//! Property-based tests on cross-crate invariants.

use proptest::prelude::*;
use vcsel_onoc::network::{assign_channels, traffic};
use vcsel_onoc::prelude::*;
use vcsel_onoc::units::WattsPerSquareMeterKelvin;

fn mm(v: f64) -> Meters {
    Meters::from_millimeters(v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Steady state conserves energy for arbitrary block stacks.
    #[test]
    fn energy_balance_for_random_designs(
        n_sources in 1usize..4,
        xs in proptest::collection::vec(0.2f64..0.7, 4),
        ys in proptest::collection::vec(0.2f64..0.7, 4),
        powers in proptest::collection::vec(0.01f64..2.0, 4),
        h in 500.0f64..20_000.0,
        ambient in 10.0f64..60.0,
    ) {
        let domain = BoxRegion::new([Meters::ZERO; 3], [mm(6.0), mm(6.0), mm(1.0)]).unwrap();
        let mut d = Design::new(domain, Material::SILICON).unwrap();
        d.set_boundary(Boundary::top(), BoundaryCondition::Convective {
            h: WattsPerSquareMeterKelvin::new(h),
            ambient: Celsius::new(ambient),
        });
        for i in 0..n_sources {
            let x0 = mm(6.0 * xs[i] * 0.8);
            let y0 = mm(6.0 * ys[i] * 0.8);
            let region = BoxRegion::new(
                [x0, y0, Meters::ZERO],
                [x0 + mm(1.0), y0 + mm(1.0), mm(0.2)],
            ).unwrap();
            d.add_block(Block::heat_source(
                format!("s{i}"), region, Material::COPPER, Watts::new(powers[i]),
            ));
        }
        let map = Simulator::new().solve(&d, &MeshSpec::uniform(mm(0.5))).unwrap();
        prop_assert!(map.energy_balance_defect() < 1e-6,
            "defect {}", map.energy_balance_defect());
        // More power in => nowhere colder than ambient.
        prop_assert!(map.coldest().1.value() >= ambient - 1e-6);
    }

    /// Adding power anywhere never cools any cell (discrete maximum
    /// principle for the conduction operator).
    #[test]
    fn monotonicity_in_power(extra in 0.1f64..3.0) {
        let domain = BoxRegion::new([Meters::ZERO; 3], [mm(4.0), mm(4.0), mm(1.0)]).unwrap();
        let build = |p2: f64| {
            let mut d = Design::new(domain, Material::SILICON).unwrap();
            d.set_boundary(Boundary::top(), BoundaryCondition::Convective {
                h: WattsPerSquareMeterKelvin::new(2_000.0),
                ambient: Celsius::new(25.0),
            });
            let r1 = BoxRegion::new([mm(0.5), mm(0.5), Meters::ZERO], [mm(1.5), mm(1.5), mm(0.2)]).unwrap();
            let r2 = BoxRegion::new([mm(2.5), mm(2.5), Meters::ZERO], [mm(3.5), mm(3.5), mm(0.2)]).unwrap();
            d.add_block(Block::heat_source("base", r1, Material::COPPER, Watts::new(1.0)));
            d.add_block(Block::heat_source("extra", r2, Material::COPPER, Watts::new(p2)));
            d
        };
        let sim = Simulator::new();
        let spec = MeshSpec::uniform(mm(0.5));
        let cold = sim.solve(&build(0.0), &spec).unwrap();
        let hot = sim.solve(&build(extra), &spec).unwrap();
        for (a, b) in cold.temperatures().iter().zip(hot.temperatures()) {
            prop_assert!(b >= &(a - 1e-9), "power increase cooled a cell: {a} -> {b}");
        }
    }

    /// A common temperature shift of every ONI leaves the SNR unchanged
    /// (only *differences* misalign wavelengths).
    #[test]
    fn snr_invariant_under_common_shift(
        base in 35.0f64..65.0,
        shift in -10.0f64..10.0,
        n in 3usize..7,
    ) {
        let topo = RingTopology::evenly_spaced(n, mm(30.0)).unwrap();
        let comms = assign_channels(&topo, &traffic::all_to_all(n)).unwrap();
        let analyzer = SnrAnalyzer::paper_default(WavelengthGrid::paper_default());
        let powers = vec![Watts::from_milliwatts(0.3); comms.len()];
        // A fixed non-uniform profile plus the common shift.
        let temps_a: Vec<Celsius> =
            (0..n).map(|i| Celsius::new(base + 0.9 * i as f64)).collect();
        let temps_b: Vec<Celsius> =
            (0..n).map(|i| Celsius::new(base + shift + 0.9 * i as f64)).collect();
        let ra = analyzer.analyze(&topo, &comms, &temps_a, &powers).unwrap();
        let rb = analyzer.analyze(&topo, &comms, &temps_b, &powers).unwrap();
        for (a, b) in ra.results().iter().zip(rb.results()) {
            if a.snr_db.is_finite() {
                prop_assert!((a.snr_db - b.snr_db).abs() < 1e-6,
                    "common shift changed SNR: {} vs {}", a.snr_db, b.snr_db);
            }
        }
    }

    /// Total received power never exceeds total injected power
    /// (passive network).
    #[test]
    fn network_is_passive(
        n in 3usize..7,
        spread in 0.0f64..8.0,
        p_mw in 0.05f64..1.0,
    ) {
        let topo = RingTopology::evenly_spaced(n, mm(40.0)).unwrap();
        let comms = assign_channels(&topo, &traffic::all_to_all(n)).unwrap();
        let analyzer = SnrAnalyzer::paper_default(WavelengthGrid::paper_default());
        let temps: Vec<Celsius> =
            (0..n).map(|i| Celsius::new(45.0 + spread * i as f64 / n as f64)).collect();
        let powers = vec![Watts::from_milliwatts(p_mw); comms.len()];
        let report = analyzer.analyze(&topo, &comms, &temps, &powers).unwrap();
        let received: f64 = report.results().iter()
            .map(|r| r.signal.value() + r.crosstalk.value()).sum();
        let injected = p_mw * 1e-3 * comms.len() as f64;
        prop_assert!(received <= injected * (1.0 + 1e-9),
            "received {received} > injected {injected}");
    }

    /// VCSEL energy conservation holds across the whole operating range.
    #[test]
    fn vcsel_conserves_energy(i_ma in 0.0f64..15.0, t in 0.0f64..85.0) {
        let v = Vcsel::paper_default();
        let op = v.operating_point(
            Amperes::from_milliamperes(i_ma), Celsius::new(t)).unwrap();
        let total = op.optical_power.value() + op.dissipated_power.value();
        prop_assert!((total - op.electrical_power.value()).abs() < 1e-12);
        prop_assert!(op.efficiency >= 0.0 && op.efficiency < 1.0);
    }

    /// Microring drop + through always conserves power, and drop peaks at
    /// zero detuning.
    #[test]
    fn ring_conservation_and_peak(delta in -10.0f64..10.0) {
        let ring = MicroringResonator::paper_default(Nanometers::new(1550.0));
        let d = ring.drop_fraction(Nanometers::new(delta));
        let t = ring.through_fraction(Nanometers::new(delta));
        prop_assert!((d + t - 1.0).abs() < 1e-12);
        prop_assert!(d <= ring.drop_fraction(Nanometers::ZERO) + 1e-15);
    }

    /// The CG kernel runs k independent recurrences in lockstep: for any
    /// SPD stencil and any bundle of right-hand sides, one k-column solve
    /// must land bitwise on the answers of k one-column solves.
    #[test]
    fn block_solve_agrees_with_scalar_solves(
        nx in 3usize..8,
        ny in 3usize..8,
        k in 1usize..5,
        seed in proptest::collection::vec(-2.0f64..2.0, 40),
        rhs_seed in proptest::collection::vec(-5.0f64..5.0, 64),
    ) {
        use vcsel_onoc::numerics::solver::{preconditioned_cg, CgWorkspace, SolveOptions};
        use vcsel_onoc::numerics::{PreconditionerKind, TripletBuilder};

        // 5-point SPD stencil with random positive conductances.
        let n = nx * ny;
        let mut b = TripletBuilder::with_capacity(n, n, 5 * n);
        let draw = |idx: usize| 0.05 + seed[idx % seed.len()].abs();
        let mut diag = vec![0.0; n];
        for j in 0..ny {
            for i in 0..nx {
                let c = j * nx + i;
                if i + 1 < nx {
                    let g = draw(c * 3 + 1);
                    b.add(c, c + 1, -g);
                    b.add(c + 1, c, -g);
                    diag[c] += g;
                    diag[c + 1] += g;
                }
                if j + 1 < ny {
                    let g = draw(c * 5 + 2);
                    b.add(c, c + nx, -g);
                    b.add(c + nx, c, -g);
                    diag[c] += g;
                    diag[c + nx] += g;
                }
            }
        }
        for (c, d) in diag.iter().enumerate() {
            b.add(c, c, d + 0.01 + 0.1 * seed[(c * 7 + 3) % seed.len()].abs());
        }
        let a = std::sync::Arc::new(b.build());

        let columns: Vec<Vec<f64>> = (0..k)
            .map(|j| (0..n).map(|i| rhs_seed[(j * n + i) % rhs_seed.len()]).collect())
            .collect();
        let opts = SolveOptions { tolerance: 1e-12, max_iterations: 50_000 };
        let mut pc = PreconditionerKind::Jacobi.build(&a).unwrap();

        let mut scalars = Vec::with_capacity(k);
        let mut scalar_ws = CgWorkspace::default();
        for rhs in &columns {
            let mut x = vec![0.0; n];
            preconditioned_cg(&a, rhs, &mut x, &mut pc, &opts, &mut scalar_ws).unwrap();
            scalars.push(x);
        }

        // One k-column call must give every column bitwise the field a
        // one-column call gives it: the columns' recurrences are
        // independent, and only their memory traffic is shared.
        let mut x = vec![0.0; k * n];
        let mut ws = CgWorkspace::default();
        preconditioned_cg(&a, &columns.concat(), &mut x, &mut pc, &opts, &mut ws).unwrap();

        for (c, scalar) in scalars.iter().enumerate() {
            for (i, (p, q)) in x[c * n..(c + 1) * n].iter().zip(scalar).enumerate() {
                prop_assert!(
                    p.to_bits() == q.to_bits(),
                    "column {}, cell {}: block {} vs one-column {}", c, i, p, q
                );
            }
        }
    }
}
