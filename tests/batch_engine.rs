//! Umbrella regression for the batched multi-RHS solve engine: a
//! 12-point power sweep over a tiny-fidelity SCC system must match the
//! sequential `solve_scaled` loop point for point, spend strictly fewer
//! total SpMV-equivalents (pinned through telemetry solve samples), and
//! isolate a poisoned painting to its own column.

use vcsel_arch::{SccConfig, SccSystem};
use vcsel_numerics::solver::SolveOptions;
use vcsel_telemetry::{TelemetrySink, TraceMode};
use vcsel_thermal::{SolveContext, ThermalError, ThermalMap};
use vcsel_units::Watts;

/// Tightened CG tolerance so both solve paths land within the 1e-10
/// agreement bar; at the default 1e-9 their different warm-start chains
/// disagree at exactly tolerance level.
fn tight() -> SolveOptions {
    SolveOptions { tolerance: 1e-12, max_iterations: 50_000 }
}

fn tiny_system() -> (SccSystem, vcsel_thermal::MeshSpec) {
    let config = SccConfig { p_vcsel: Watts::from_milliwatts(4.0), ..SccConfig::tiny_test() };
    let system = SccSystem::build(&config).expect("tiny SCC builds");
    let spec = system.mesh_spec().expect("mesh spec");
    (system, spec)
}

/// The 12 sweep points: VCSEL drive scaled across the operating range
/// while the chip background stays put.
fn sweep_paintings() -> Vec<Vec<(&'static str, f64)>> {
    (0..12).map(|i| vec![("vcsel", 0.25 + 0.25 * i as f64)]).collect()
}

fn total_spmv(sink: &TelemetrySink) -> u64 {
    sink.drain().samples.iter().map(|s| s.spmv).sum()
}

#[test]
fn batched_sweep_matches_sequential_loop_with_fewer_spmv() {
    let (system, spec) = tiny_system();
    let paintings = sweep_paintings();

    let seq_sink = TelemetrySink::new(TraceMode::Full);
    let mut seq = SolveContext::new(system.design(), &spec)
        .expect("context")
        .with_options(tight())
        .with_telemetry(seq_sink.clone());
    let sequential: Vec<ThermalMap> =
        paintings.iter().map(|p| seq.solve_scaled(p).expect("sequential point solves")).collect();
    let seq_spmv = total_spmv(&seq_sink);

    let batch_sink = TelemetrySink::new(TraceMode::Full);
    let mut batched = SolveContext::new(system.design(), &spec)
        .expect("context")
        .with_options(tight())
        .with_telemetry(batch_sink.clone());
    let refs: Vec<&[(&str, f64)]> = paintings.iter().map(Vec::as_slice).collect();
    let maps = batched.solve_batch(&refs).expect("batch solves");
    let batch_spmv = total_spmv(&batch_sink);

    assert_eq!(maps.len(), 12);
    for (i, (map, reference)) in maps.iter().zip(&sequential).enumerate() {
        let map = map.as_ref().expect("batched point converges");
        let scale = reference.temperatures().iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (a, b) in map.temperatures().iter().zip(reference.temperatures()) {
            assert!((a - b).abs() / scale < 1e-10, "point {i}: batched {a} vs sequential {b}");
        }
        assert!(
            (map.injected_power().value() - reference.injected_power().value()).abs() < 1e-12,
            "point {i}: injected power drifted"
        );
    }

    // The whole economy of the block engine: one operator sweep serves
    // every active column, so the batch must beat twelve scalar solves.
    assert!(
        batch_spmv < seq_spmv,
        "batch spent {batch_spmv} SpMV-equivalents, sequential loop {seq_spmv}"
    );
}

#[test]
fn poisoned_painting_fails_its_column_and_spares_the_rest() {
    let (system, spec) = tiny_system();
    let mut ctx = SolveContext::new(system.design(), &spec).expect("context");

    let mut paintings = sweep_paintings();
    paintings[5] = vec![("not-a-power-group", 1.0)];
    let refs: Vec<&[(&str, f64)]> = paintings.iter().map(Vec::as_slice).collect();

    let maps = ctx.solve_batch(&refs).expect("batch call itself succeeds");
    assert_eq!(maps.len(), 12);
    for (i, slot) in maps.iter().enumerate() {
        if i == 5 {
            match slot {
                Err(ThermalError::UnknownGroup { group }) => {
                    assert_eq!(group, "not-a-power-group");
                }
                other => panic!("slot 5 should fail with UnknownGroup, got {other:?}"),
            }
        } else {
            assert!(slot.is_ok(), "slot {i} should survive the poisoned neighbour");
        }
    }
}
