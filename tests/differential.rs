//! Cross-path differential tests on random power-grouped designs.
//!
//! The engine produces a steady field along several paths: a scalar
//! solve, a batch column, a cache-restored engine, a superposed response
//! basis, an engine re-targeted with `adopt_design`, and each steady
//! preconditioner. A transient stepper reaches the same field as the
//! limit of a long run. Every test here draws random die designs (three
//! grouped copper sources and one ungrouped one on a silicon die cooled
//! through its top and bottom faces) and checks two things per path:
//!
//! * it agrees with the scalar solve of the same painting;
//! * its field keeps the physics: the boundary outflow balances the
//!   injected power, no cell is colder than ambient, and the hottest cell
//!   lies in a block that dissipates (the discrete maximum principle: a
//!   cell without a source is a weighted mean of its neighbours and the
//!   ambient).

use proptest::collection::vec;
use proptest::prelude::*;
use vcsel_numerics::solver::SolveOptions;
use vcsel_thermal::{
    Block, Boundary, BoundaryCondition, BoxRegion, Design, EngineBlueprint, Material, MeshSpec,
    PreconditionerKind, ResponseBasis, SolveContext, ThermalMap, TransientStepper,
};
use vcsel_units::{Celsius, Meters, Watts, WattsPerSquareMeterKelvin};

/// The three power groups; the fourth source is ungrouped and always on.
const GROUPS: [&str; 3] = ["g0", "g1", "g2"];

/// Tight enough that paths started from different guesses agree far
/// below the comparison tolerances.
fn tight() -> SolveOptions {
    SolveOptions { tolerance: 1e-12, max_iterations: 50_000 }
}

fn mm(v: f64) -> Meters {
    Meters::from_millimeters(v)
}

fn spec() -> MeshSpec {
    MeshSpec::uniform(mm(0.5))
}

/// A 6 × 6 × 1 mm silicon die with one 1 × 1 × 0.2 mm copper source per
/// `(x, y, watts)` entry, placed at `x`/`y` fractions of the free span,
/// and `film` = (top h, bottom h, ambient) on its convective faces.
/// Returns the design and its ambient.
fn die(sources: &[(f64, f64, f64)], film: (f64, f64, f64)) -> (Design, f64) {
    let (h_top, h_bottom, ambient) = film;
    let domain = BoxRegion::new([Meters::ZERO; 3], [mm(6.0), mm(6.0), mm(1.0)]).unwrap();
    let mut design = Design::new(domain, Material::SILICON).unwrap();
    for (face, h) in [(Boundary::top(), h_top), (Boundary::bottom(), h_bottom)] {
        design.set_boundary(
            face,
            BoundaryCondition::Convective {
                h: WattsPerSquareMeterKelvin::new(h),
                ambient: Celsius::new(ambient),
            },
        );
    }
    for (i, &(x, y, p)) in sources.iter().enumerate() {
        let (x0, y0) = (mm(5.0 * x), mm(5.0 * y));
        let region =
            BoxRegion::new([x0, y0, Meters::ZERO], [x0 + mm(1.0), y0 + mm(1.0), mm(0.2)]).unwrap();
        let block = Block::heat_source(format!("s{i}"), region, Material::COPPER, Watts::new(p));
        design.add_block(match GROUPS.get(i) {
            Some(group) => block.with_group(*group),
            None => block,
        });
    }
    (design, ambient)
}

fn painting(scales: &[f64]) -> Vec<(&'static str, f64)> {
    GROUPS.iter().copied().zip(scales.iter().copied()).collect()
}

/// Power a block dissipates under `scales`: grouped blocks at their
/// group's scale (zero when unnamed), ungrouped ones at design power.
fn block_power(block: &Block, scales: &[(&str, f64)]) -> f64 {
    let scale = match block.group() {
        Some(g) => scales.iter().find(|(name, _)| *name == g).map_or(0.0, |(_, s)| *s),
        None => 1.0,
    };
    scale * block.power().value()
}

fn injected(design: &Design, scales: &[(&str, f64)]) -> f64 {
    design.blocks().iter().map(|b| block_power(b, scales)).sum()
}

/// Energy balance, nothing below ambient, and the hottest cell inside a
/// dissipating block, for a steady `map` of `design` under `scales`.
fn assert_steady_physics(
    map: &ThermalMap,
    design: &Design,
    scales: &[(&str, f64)],
    ambient: f64,
    path: &str,
) {
    let expected = injected(design, scales);
    let got = map.injected_power().value();
    assert!((got - expected).abs() <= 1e-12 * expected, "{path}: injected {got} W vs {expected} W");
    assert!(map.energy_balance_defect() < 1e-6, "{path}: defect {}", map.energy_balance_defect());
    let coldest = map.coldest().1.value();
    assert!(coldest >= ambient - 1e-9, "{path}: cell at {coldest} °C below ambient {ambient} °C");

    let temps = map.temperatures();
    let hottest_source = design
        .blocks()
        .iter()
        .filter(|b| block_power(b, scales) > 0.0)
        .flat_map(|b| map.mesh().cells_in(b.region()))
        .map(|c| temps[c])
        .fold(f64::NEG_INFINITY, f64::max);
    let hottest = map.hottest().1.value();
    assert!(
        hottest <= hottest_source + 1e-8,
        "{path}: hottest cell {hottest} °C is outside every source (hottest there {hottest_source})"
    );
}

/// Largest cell-wise difference between two fields, in kelvin.
fn max_difference(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "fields on different meshes");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

/// The scalar reference: a fresh engine solving one painting.
fn scalar_solve(design: &Design, scales: &[(&str, f64)]) -> ThermalMap {
    let mut ctx = SolveContext::new(design, &spec()).unwrap().with_options(tight());
    ctx.solve_scaled(scales).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One batch of paintings lands, column by column, on the scalar
    /// solves of the same paintings.
    #[test]
    fn batch_columns_agree_with_scalar_solves(
        sources in vec((0.0f64..1.0, 0.0f64..1.0, 0.05f64..1.5), 4),
        film in (1_000.0f64..10_000.0, 100.0f64..2_000.0, 20.0f64..60.0),
        scales in vec(0.0f64..3.0, 9),
    ) {
        let (design, ambient) = die(&sources, film);
        let paintings: Vec<_> = scales.chunks(3).map(painting).collect();
        let refs: Vec<&[(&str, f64)]> = paintings.iter().map(Vec::as_slice).collect();
        let mut ctx = SolveContext::new(&design, &spec()).unwrap().with_options(tight());
        let maps = ctx.solve_batch(&refs).unwrap();
        prop_assert_eq!(maps.len(), paintings.len());
        for (map, scales) in maps.iter().zip(&paintings) {
            let map = map.as_ref().unwrap();
            let scalar = scalar_solve(&design, scales);
            assert_steady_physics(&scalar, &design, scales, ambient, "scalar");
            assert_steady_physics(map, &design, scales, ambient, "batch column");
            let d = max_difference(map.temperatures(), scalar.temperatures());
            prop_assert!(d < 1e-7, "batch column {:?} is {} K off the scalar solve", scales, d);
        }
    }

    /// An engine restored from its cache artifact solves exactly as the
    /// engine the artifact was written from: same iterations, same bits.
    #[test]
    fn restored_engine_reproduces_the_fresh_engine_bitwise(
        sources in vec((0.0f64..1.0, 0.0f64..1.0, 0.05f64..1.5), 4),
        film in (1_000.0f64..10_000.0, 100.0f64..2_000.0, 20.0f64..60.0),
        scales in vec(0.0f64..3.0, 3),
    ) {
        let (design, ambient) = die(&sources, film);
        let scales = painting(&scales);
        let blueprint = EngineBlueprint::new(&design, &spec()).unwrap();
        let mut fresh = blueprint.build().unwrap().with_options(tight());
        let artifact = blueprint.engine_artifact(&fresh).expect("IC(0) engines are cacheable");
        let mut restored = blueprint.restore(&artifact).unwrap().with_options(tight());

        let map_f = fresh.solve_scaled(&scales).unwrap();
        let map_r = restored.solve_scaled(&scales).unwrap();
        assert_steady_physics(&map_r, &design, &scales, ambient, "restored engine");
        prop_assert_eq!(fresh.last_iterations(), restored.last_iterations());
        for (a, b) in map_f.temperatures().iter().zip(map_r.temperatures()) {
            prop_assert!(a.to_bits() == b.to_bits(), "fresh {} vs restored {}", a, b);
        }
    }

    /// A response basis composed at any scales is the field a direct
    /// solve of that painting gives: conduction is linear in the powers.
    #[test]
    fn superposed_basis_agrees_with_direct_solves(
        sources in vec((0.0f64..1.0, 0.0f64..1.0, 0.05f64..1.5), 4),
        film in (1_000.0f64..10_000.0, 100.0f64..2_000.0, 20.0f64..60.0),
        scales in vec(0.0f64..3.0, 6),
    ) {
        let (design, ambient) = die(&sources, film);
        let mut ctx = SolveContext::new(&design, &spec()).unwrap().with_options(tight());
        let basis = ResponseBasis::build_on(&mut ctx).unwrap();
        for scales in scales.chunks(3).map(painting) {
            let composed = basis.compose(&scales).unwrap();
            assert_steady_physics(&composed, &design, &scales, ambient, "superposed basis");
            let direct = scalar_solve(&design, &scales);
            let d = max_difference(composed.temperatures(), direct.temperatures());
            prop_assert!(d < 1e-7, "composed {:?} is {} K off the scalar solve", scales, d);
        }
    }

    /// An engine re-targeted at a design with other block powers solves
    /// it as an engine built for that design does.
    #[test]
    fn adopted_design_agrees_with_a_fresh_engine(
        sources in vec((0.0f64..1.0, 0.0f64..1.0, 0.05f64..1.5), 4),
        new_powers in vec(0.05f64..1.5, 4),
        film in (1_000.0f64..10_000.0, 100.0f64..2_000.0, 20.0f64..60.0),
        scales in vec(0.0f64..3.0, 3),
    ) {
        let (design, ambient) = die(&sources, film);
        let repowered: Vec<_> =
            sources.iter().zip(&new_powers).map(|(&(x, y, _), &p)| (x, y, p)).collect();
        let (adopted, _) = die(&repowered, film);
        let scales = painting(&scales);
        let mut ctx = SolveContext::new(&design, &spec()).unwrap().with_options(tight());
        ctx.solve().unwrap();
        ctx.adopt_design(&adopted).unwrap();
        let map = ctx.solve_scaled(&scales).unwrap();
        assert_steady_physics(&map, &adopted, &scales, ambient, "adopted design");
        let d = max_difference(map.temperatures(), scalar_solve(&adopted, &scales).temperatures());
        prop_assert!(d < 1e-7, "adopted engine is {} K off a fresh one", d);
    }

    /// Jacobi, IC(0) and multigrid preconditioning change the iteration
    /// count, never the field.
    #[test]
    fn every_steady_preconditioner_lands_on_the_same_field(
        sources in vec((0.0f64..1.0, 0.0f64..1.0, 0.05f64..1.5), 4),
        film in (1_000.0f64..10_000.0, 100.0f64..2_000.0, 20.0f64..60.0),
        scales in vec(0.0f64..3.0, 3),
    ) {
        let (design, ambient) = die(&sources, film);
        let scales = painting(&scales);
        let scalar = scalar_solve(&design, &scales);
        for kind in [
            PreconditionerKind::Jacobi,
            PreconditionerKind::IncompleteCholesky,
            PreconditionerKind::Multigrid,
        ] {
            let mut ctx = SolveContext::new_preconditioned(&design, &spec(), kind)
                .unwrap()
                .with_options(tight());
            prop_assert_eq!(ctx.preconditioner_name(), kind.name());
            let map = ctx.solve_scaled(&scales).unwrap();
            assert_steady_physics(&map, &design, &scales, ambient, kind.name());
            let d = max_difference(map.temperatures(), scalar.temperatures());
            prop_assert!(d < 1e-7, "{} is {} K off the default engine", kind.name(), d);
        }
    }

    /// Held at constant power long past the die's slowest time constant,
    /// the implicit-Euler transient ends on the steady field, and its
    /// boundary outflow then balances the injected power.
    #[test]
    fn long_transient_settles_on_the_steady_field(
        sources in vec((0.0f64..1.0, 0.0f64..1.0, 0.05f64..1.5), 4),
        film in (1_000.0f64..10_000.0, 100.0f64..2_000.0, 20.0f64..60.0),
        scales in vec(0.0f64..3.0, 3),
    ) {
        // The slowest mode is the die's lumped convective one,
        // τ = ρc·L / (h_top + h_bottom) ≤ 1.5 s; 40 steps of 2 s damp it
        // by (1 + 2 s / τ)⁻⁴⁰ < 1e-15.
        let (design, ambient) = die(&sources, film);
        let scales = painting(&scales);
        let mut stepper = TransientStepper::new(&design, &spec(), Celsius::new(ambient), 2.0)
            .unwrap()
            .with_options(tight());
        for _ in 0..40 {
            stepper.step(&scales).unwrap();
        }
        let settled = stepper.snapshot();
        let steady = scalar_solve(&design, &scales);
        let d = max_difference(settled.temperatures(), steady.temperatures());
        prop_assert!(d < 1e-7, "transient ends {} K off the steady field", d);
        let expected = injected(&design, &scales);
        let outflow = settled.boundary_outflow().value();
        prop_assert!(
            (outflow - expected).abs() < 1e-6 * expected,
            "settled outflow {} W vs injected {} W", outflow, expected
        );
    }

    /// Heating from ambient at constant power, every cell warms step by
    /// step and never passes its steady temperature: `(A + C/Δt)` is an
    /// M-matrix, so the implicit step preserves both orderings.
    #[test]
    fn transient_heating_from_ambient_rises_monotonically_below_the_steady_field(
        sources in vec((0.0f64..1.0, 0.0f64..1.0, 0.05f64..1.5), 4),
        film in (1_000.0f64..10_000.0, 100.0f64..2_000.0, 20.0f64..60.0),
        scales in vec(0.0f64..3.0, 3),
    ) {
        let (design, ambient) = die(&sources, film);
        let scales = painting(&scales);
        let steady = scalar_solve(&design, &scales);
        let mut stepper = TransientStepper::new(&design, &spec(), Celsius::new(ambient), 0.02)
            .unwrap()
            .with_options(tight());
        let mut previous = vec![ambient; steady.temperatures().len()];
        for step in 1..=25 {
            stepper.step(&scales).unwrap();
            let field = stepper.snapshot();
            for (c, ((t, before), limit)) in field
                .temperatures()
                .iter()
                .zip(&previous)
                .zip(steady.temperatures())
                .enumerate()
            {
                prop_assert!(*t >= before - 1e-9, "step {}, cell {}: cooled {} -> {}",
                    step, c, before, t);
                prop_assert!(*t <= limit + 1e-7, "step {}, cell {}: {} passes steady {}",
                    step, c, t, limit);
            }
            previous = field.temperatures().to_vec();
        }
        prop_assert!(previous.iter().zip(steady.temperatures()).any(|(t, s)| s - t > 1e-3),
            "25 steps of 20 ms should still be short of steady state");
    }

    /// A multigrid-preconditioned stepper follows the IC(0) stepper's
    /// trajectory step for step, through a power change.
    #[test]
    fn multigrid_stepper_tracks_the_ic0_stepper(
        sources in vec((0.0f64..1.0, 0.0f64..1.0, 0.05f64..1.5), 4),
        film in (1_000.0f64..10_000.0, 100.0f64..2_000.0, 20.0f64..60.0),
        scales in vec(0.0f64..3.0, 6),
    ) {
        let (design, ambient) = die(&sources, film);
        let build = |kind| {
            let initial = Celsius::new(ambient);
            TransientStepper::new_preconditioned(&design, &spec(), initial, 0.05, kind)
                .unwrap()
                .with_options(tight())
        };
        let mut ic0 = build(PreconditionerKind::IncompleteCholesky);
        let mut mg = build(PreconditionerKind::Multigrid);
        for (phase, scales) in scales.chunks(3).map(painting).enumerate() {
            for step in 0..8 {
                ic0.step(&scales).unwrap();
                mg.step(&scales).unwrap();
                let d = max_difference(mg.snapshot().temperatures(), ic0.snapshot().temperatures());
                prop_assert!(d < 1e-7, "phase {}, step {}: multigrid {} K off IC(0)",
                    phase, step, d);
            }
        }
    }
}
