//! Property-based tests for the run-time management algorithms.

use proptest::prelude::*;
use vcsel_control::{
    allocate_jobs, dvfs_cap, migrate_workload, AllocationPolicy, InfluenceModel, Job, LumpedPlant,
    MigrationConfig, PiController,
};
use vcsel_units::{Celsius, Meters, Watts};

fn strip_model(tiles: usize) -> InfluenceModel {
    let onis = vec![
        [Meters::ZERO, Meters::ZERO],
        [Meters::from_millimeters(4.0 * (tiles - 1) as f64), Meters::ZERO],
    ];
    let tile_pos: Vec<[Meters; 2]> =
        (0..tiles).map(|k| [Meters::from_millimeters(4.0 * k as f64), Meters::ZERO]).collect();
    InfluenceModel::from_geometry(
        &onis,
        &tile_pos,
        Celsius::new(45.0),
        0.5,
        Meters::from_millimeters(2.0),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The plant never cools below ambient under non-negative inputs.
    #[test]
    fn plant_stays_at_or_above_ambient(
        p0 in 0.0..5.0f64,
        p1 in 0.0..5.0f64,
        dt in 1e-3..0.5f64,
        steps in 1usize..50,
    ) {
        let mut plant = LumpedPlant::builder(Celsius::new(40.0))
            .node(1e-3, 1e-3)
            .node(1e-3, 1e-3)
            .couple(0, 1, 5e-4)
            .build()
            .unwrap();
        let powers = [Watts::from_milliwatts(p0), Watts::from_milliwatts(p1)];
        for _ in 0..steps {
            let t = plant.step(&powers, dt).unwrap();
            for ti in &t {
                prop_assert!(ti.value() >= 40.0 - 1e-9);
            }
        }
    }

    /// More input power never cools any node (monotonicity of the RC map).
    #[test]
    fn plant_steady_state_is_monotone_in_power(
        base in 0.0..3.0f64,
        extra in 0.0..3.0f64,
    ) {
        let plant = LumpedPlant::builder(Celsius::new(40.0))
            .nodes(3, 1e-3, 1e-3)
            .couple(0, 1, 5e-4)
            .couple(1, 2, 5e-4)
            .build()
            .unwrap();
        let lo = vec![Watts::from_milliwatts(base); 3];
        let hi = vec![Watts::from_milliwatts(base + extra); 3];
        let t_lo = plant.steady_state(&lo).unwrap();
        let t_hi = plant.steady_state(&hi).unwrap();
        for (a, b) in t_lo.iter().zip(&t_hi) {
            prop_assert!(b.value() >= a.value() - 1e-9);
        }
    }

    /// PI output always respects its clamps, whatever the error sequence.
    #[test]
    fn pi_output_always_clamped(errors in prop::collection::vec(-100.0..100.0f64, 1..200)) {
        let mut pi = PiController::new(1.5, 20.0, 0.0, 2.0).unwrap();
        for e in errors {
            let u = pi.update(e, 0.01);
            prop_assert!((0.0..=2.0).contains(&u), "u = {u}");
        }
    }

    /// Migration preserves total power and never increases the spread.
    #[test]
    fn migration_conserves_power_and_improves(
        raw in prop::collection::vec(0.0..8.0f64, 4),
    ) {
        let model = strip_model(4);
        let powers: Vec<Watts> = raw.iter().map(|&p| Watts::new(p)).collect();
        let total_in: f64 = raw.iter().sum();
        let cfg = MigrationConfig { max_moves: 400, ..MigrationConfig::default() };
        let r = migrate_workload(&model, &powers, &cfg).unwrap();
        let total_out: f64 = r.tile_powers.iter().map(|p| p.value()).sum();
        prop_assert!((total_in - total_out).abs() < 1e-6);
        prop_assert!(r.final_spread.value() <= r.initial_spread.value() + 1e-9);
        for p in &r.tile_powers {
            prop_assert!(p.value() >= -1e-12 && p.value() <= cfg.tile_cap.value() + 1e-9);
        }
    }

    /// DVFS returns a scale in (0, 1] and meets the limit whenever it
    /// succeeds.
    #[test]
    fn dvfs_scale_is_valid_and_limit_met(
        raw in prop::collection::vec(0.5..9.0f64, 4),
        headroom in 0.1..20.0f64,
    ) {
        let model = strip_model(4);
        let powers: Vec<Watts> = raw.iter().map(|&p| Watts::new(p)).collect();
        let uncapped = model.peak(&powers).unwrap();
        let limit = Celsius::new((uncapped.value() - headroom).max(45.5));
        if let Ok(r) = dvfs_cap(&model, &powers, limit) {
            prop_assert!(r.power_scale > 0.0 && r.power_scale <= 1.0);
            prop_assert!(r.frequency_scale >= r.power_scale - 1e-12);
            prop_assert!(r.peak.value() <= limit.value() + 1e-3);
        }
    }

    /// The thermally-aware allocator never produces a larger spread than
    /// row-major when both succeed on identical jobs.
    #[test]
    fn thermal_aware_allocation_weakly_dominates(
        raw in prop::collection::vec(0.5..4.0f64, 1..8),
    ) {
        let model = strip_model(4);
        let jobs: Vec<Job> =
            raw.iter().enumerate().map(|(id, &p)| Job { id, power: Watts::new(p) }).collect();
        let cap = Watts::new(20.0);
        let naive = allocate_jobs(&model, &jobs, cap, AllocationPolicy::RowMajor).unwrap();
        let smart = allocate_jobs(&model, &jobs, cap, AllocationPolicy::ThermalAware).unwrap();
        prop_assert!(
            smart.spread.value() <= naive.spread.value() + 1e-9,
            "smart {} > naive {}",
            smart.spread,
            naive.spread
        );
    }
}
