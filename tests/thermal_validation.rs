//! Integration-level validation of the FVM thermal solver against analytic
//! solutions and conservation laws — our stand-in for the paper's
//! "IcTherm was validated against COMSOL (max error < 1 %)".

use vcsel_onoc::prelude::*;
use vcsel_onoc::thermal::ThermalError;
use vcsel_onoc::units::WattsPerSquareMeterKelvin;

fn mm(v: f64) -> Meters {
    Meters::from_millimeters(v)
}

/// Composite two-layer wall with uniform flux: temperatures at each
/// interface must match the series-resistance solution within 1 %.
#[test]
fn composite_wall_matches_series_resistance() {
    let a = 4.0e-3;
    let t_si = 0.5e-3;
    let t_ox = 0.1e-3;
    let h = 5_000.0;
    let ambient = 30.0;
    let power = 2.0;

    let domain = BoxRegion::new(
        [Meters::ZERO; 3],
        [Meters::new(a), Meters::new(a), Meters::new(t_si + t_ox)],
    )
    .unwrap();
    let mut d = Design::new(domain, Material::SILICON).unwrap();
    d.set_boundary(
        Boundary::top(),
        BoundaryCondition::Convective {
            h: WattsPerSquareMeterKelvin::new(h),
            ambient: Celsius::new(ambient),
        },
    );
    // Bottom: silicon; top: oxide.
    let oxide = BoxRegion::new(
        [Meters::ZERO, Meters::ZERO, Meters::new(t_si)],
        [Meters::new(a), Meters::new(a), Meters::new(t_si + t_ox)],
    )
    .unwrap();
    d.add_block(Block::passive("oxide", oxide, Material::SILICON_DIOXIDE));
    // Thin uniform heater at the very bottom.
    let heater = BoxRegion::new(
        [Meters::ZERO; 3],
        [Meters::new(a), Meters::new(a), Meters::new(t_si / 25.0)],
    )
    .unwrap();
    d.add_block(Block::heat_source("heater", heater, Material::SILICON, Watts::new(power)));

    let spec = MeshSpec::per_axis([mm(2.0), mm(2.0), Meters::new(t_ox / 5.0)]);
    let map = Simulator::new().solve(&d, &spec).unwrap();

    let area = a * a;
    let flux = power / area;
    let k_si = Material::SILICON.conductivity().value();
    let k_ox = Material::SILICON_DIOXIDE.conductivity().value();

    // Analytic 1-D solution (heater treated as a plane source at z = 0).
    // `temperature_at` reports the containing CELL's value, i.e. the field
    // at the cell center, so each expectation is evaluated at the probed
    // cell's center rather than at the material interface: for the top
    // probe the half-cell (t_ox/10) offset through low-k oxide is ~0.9 °C,
    // far beyond the 1 % tolerance if compared against the surface value.
    let t_top = ambient + flux / h + flux * (t_ox / 10.0) / k_ox;
    let t_mid = ambient + flux / h + flux * t_ox / k_ox;
    let t_bot = t_mid + flux * (t_si - t_si / 50.0) / k_si;

    let center = mm(2.0);
    let got_top =
        map.temperature_at([center, center, Meters::new(t_si + t_ox * 0.999)]).unwrap().value();
    let got_mid = map.temperature_at([center, center, Meters::new(t_si * 0.999)]).unwrap().value();
    let got_bot = map.temperature_at([center, center, Meters::new(t_si / 50.0)]).unwrap().value();

    let tol = |expected: f64| (expected - ambient).abs() * 0.01 + 0.05;
    assert!((got_top - t_top).abs() < tol(t_top), "top {got_top} vs {t_top}");
    assert!((got_mid - t_mid).abs() < tol(t_mid), "mid {got_mid} vs {t_mid}");
    assert!((got_bot - t_bot).abs() < tol(t_bot), "bottom {got_bot} vs {t_bot}");
}

/// Uniform volumetric heating of a slab with one isothermal face:
/// the analytic profile is a parabola T(z) = T0 + q/(2k)·(L² − z²)
/// (z measured from the adiabatic face).
#[test]
fn volumetric_heating_parabola() {
    let a = 2.0e-3;
    let l = 1.0e-3;
    let power = 0.8;
    let domain =
        BoxRegion::new([Meters::ZERO; 3], [Meters::new(a), Meters::new(a), Meters::new(l)])
            .unwrap();
    let mut d = Design::new(domain, Material::SILICON).unwrap();
    d.set_boundary(
        Boundary::top(),
        BoundaryCondition::Isothermal { temperature: Celsius::new(20.0) },
    );
    let whole = BoxRegion::new([Meters::ZERO; 3], [Meters::new(a), Meters::new(a), Meters::new(l)])
        .unwrap();
    d.add_block(Block::heat_source("bulk", whole, Material::SILICON, Watts::new(power)));

    let spec = MeshSpec::per_axis([mm(1.0), mm(1.0), Meters::new(l / 40.0)]);
    let map = Simulator::new().solve(&d, &spec).unwrap();

    let q = power / (a * a * l); // W/m³
    let k = Material::SILICON.conductivity().value();
    let center = mm(1.0);
    // Probe at cell centers: `temperature_at` reports the containing
    // cell's value, and every l·frac below is tick-aligned for the l/40
    // grid, which would make the containing cell ambiguous (and near the
    // isothermal face the half-cell offset exceeds the 5 % tolerance).
    let dz = l / 40.0;
    for frac in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let z = l * frac + dz / 2.0;
        // With the adiabatic face at z = 0 (T'(0) = 0) and the isothermal
        // face at z = l (T(l) = 20), integrating T'' = -q/k gives
        // T(z) = 20 + q/(2k)·(l² − z²) directly in our coordinate.
        let expected = 20.0 + q / (2.0 * k) * (l * l - z * z);
        let got = map.temperature_at([center, center, Meters::new(z)]).unwrap().value();
        let rise = expected - 20.0;
        assert!(
            (got - expected).abs() < 0.05 * rise.max(0.01),
            "at z = {frac} L: got {got}, expected {expected}"
        );
    }
}

/// Energy balance on the full SCC case-study geometry.
#[test]
fn scc_system_energy_balance() {
    let config = SccConfig {
        p_vcsel: Watts::from_milliwatts(3.0),
        p_heater: Watts::from_milliwatts(1.0),
        ..SccConfig::tiny_test()
    };
    let system = SccSystem::build(&config).unwrap();
    let spec = system.mesh_spec().unwrap();
    let map = Simulator::new().solve(system.design(), &spec).unwrap();
    assert!(map.energy_balance_defect() < 1e-6, "defect {}", map.energy_balance_defect());
    // Total injected = chip + 32 x (vcsel + driver) + 32 x heater... for the
    // tiny 2-ONI system: 2 W + 2*16*(3+3) mW + 2*16*1 mW.
    let expected = 2.0 + 32.0 * 6.0e-3 + 32.0 * 1.0e-3;
    assert!((map.injected_power().value() - expected).abs() < 1e-9);
}

/// The mesh refuses to grow without bound.
#[test]
fn mesh_limit_guards_against_explosion() {
    let domain = BoxRegion::new([Meters::ZERO; 3], [mm(50.0), mm(50.0), mm(5.0)]).unwrap();
    let d = Design::new(domain, Material::SILICON).unwrap();
    let spec = MeshSpec::uniform(Meters::from_micrometers(5.0));
    match vcsel_onoc::thermal::Mesh::build(&d, &spec) {
        Err(ThermalError::MeshTooLarge { cells, limit }) => {
            assert!(cells > limit);
        }
        other => panic!("expected MeshTooLarge, got {:?}", other.map(|m| m.cell_count())),
    }
}

/// Superposition on the real case-study geometry: composing at new scales
/// matches a direct re-solve.
#[test]
fn scc_superposition_equals_direct() {
    let config = SccConfig::tiny_test();
    let flow = DesignFlow::paper();
    let study = ThermalStudy::new(config.clone(), flow.simulator()).unwrap();
    let outcome = study
        .evaluate(Watts::from_milliwatts(2.5), Watts::from_milliwatts(0.5), Watts::new(3.0))
        .unwrap();

    let direct_config = SccConfig {
        p_vcsel: Watts::from_milliwatts(2.5),
        p_driver: Some(Watts::from_milliwatts(2.5)),
        p_heater: Watts::from_milliwatts(0.5),
        p_chip: Watts::new(3.0),
        ..config
    };
    let system = SccSystem::build(&direct_config).unwrap();
    let spec = system.mesh_spec().unwrap();
    let map = Simulator::new().solve(system.design(), &spec).unwrap();
    let direct = system.oni_thermals(&map).unwrap();

    for (a, b) in outcome.oni.iter().zip(&direct) {
        assert!((a.average.value() - b.average.value()).abs() < 1e-4);
        assert!((a.gradient.value() - b.gradient.value()).abs() < 1e-4);
    }
}

/// Grid-refinement convergence: halving the cell size must shrink the
/// error against the analytic slab solution (first-order or better at the
/// probe point).
#[test]
fn mesh_refinement_converges() {
    let a = 2.0e-3;
    let l = 1.0e-3;
    let power = 0.5;
    let h = 3_000.0;
    let ambient = 25.0;
    let build = || {
        let domain =
            BoxRegion::new([Meters::ZERO; 3], [Meters::new(a), Meters::new(a), Meters::new(l)])
                .unwrap();
        let mut d = Design::new(domain, Material::SILICON).unwrap();
        d.set_boundary(
            Boundary::top(),
            BoundaryCondition::Convective {
                h: WattsPerSquareMeterKelvin::new(h),
                ambient: Celsius::new(ambient),
            },
        );
        let whole =
            BoxRegion::new([Meters::ZERO; 3], [Meters::new(a), Meters::new(a), Meters::new(l)])
                .unwrap();
        d.add_block(Block::heat_source("bulk", whole, Material::SILICON, Watts::new(power)));
        d
    };
    // Analytic: uniform volumetric heating, adiabatic bottom, convective
    // top: T(0) = T_amb + q''/h + q·l²/(2k) with q'' = total flux.
    let q = power / (a * a * l);
    let flux = power / (a * a);
    let k = Material::SILICON.conductivity().value();
    let exact_bottom = ambient + flux / h + q * l * l / (2.0 * k);

    let error_at = |nz: f64| {
        let spec = MeshSpec::per_axis([mm(1.0), mm(1.0), Meters::new(l / nz)]);
        let map = Simulator::new().solve(&build(), &spec).unwrap();
        let got =
            map.temperature_at([mm(1.0), mm(1.0), Meters::new(l / (nz * 2.0))]).unwrap().value();
        // Compare against the analytic value at the first cell center.
        let z_center = l / (nz * 2.0);
        let exact = exact_bottom - q * z_center * z_center / (2.0 * k);
        (got - exact).abs()
    };
    let coarse = error_at(8.0);
    let fine = error_at(32.0);
    assert!(
        fine < coarse * 0.6 + 1e-9,
        "refinement must reduce error: coarse {coarse}, fine {fine}"
    );
    assert!(fine < 0.05, "fine-grid error {fine} too large");
}

/// Transient integration lands on the steady solution for the same
/// cross-crate system (SCC reduced geometry).
#[test]
fn transient_reaches_steady_on_scc() {
    use vcsel_onoc::thermal::TransientStepper;

    let config = SccConfig { p_vcsel: Watts::from_milliwatts(2.0), ..SccConfig::tiny_test() };
    let system = SccSystem::build(&config).unwrap();
    let spec = system.mesh_spec().unwrap();
    let steady = Simulator::new().solve(system.design(), &spec).unwrap();

    let optical = system.stack().optical_layer_z();
    let oni_center = system.onis()[0].center();
    let probe = [oni_center[0], oni_center[1], optical.0 + Meters::from_micrometers(2.0)];

    // 150 ms steps for 12 s of simulated time: the package time constant
    // is ~1.5 s (measured: 4 s of simulation still leaves a 6.5 % residual,
    // outside the 5 % tolerance below). Implicit Euler's fixed point is the
    // steady solution regardless of step size, so a larger step buys
    // settling time without extra solves. Every group at scale 1 is the
    // design as built, which the steady solve sees.
    let scales: Vec<(&str, f64)> =
        system.design().group_names().into_iter().map(|g| (g, 1.0)).collect();
    let mut stepper =
        TransientStepper::new(system.design(), &spec, Celsius::new(40.0), 150e-3).unwrap();
    for _ in 0..80 {
        stepper.step(&scales).unwrap();
    }
    let t_steady = steady.temperature_at(probe).unwrap().value();
    let t_final = stepper.temperature_at(probe).unwrap().value();
    assert!(
        (t_final - t_steady).abs() < 0.05 * (t_steady - 40.0).max(0.1),
        "transient {t_final} vs steady {t_steady}"
    );
}
