//! Solve-engine regressions on the real case-study FVM system.
//!
//! The tiny-fidelity SCC mesh mixes 60 µm cells over the ONIs with 3 mm
//! cells over the package — exactly the high-aspect-ratio conditioning the
//! IC(0) preconditioner exists for. These tests pin the engine's two core
//! claims on that system: preconditioning strength (IC(0)-CG needs at most
//! half the iterations of Jacobi-CG) and answer invariance (every
//! preconditioner and the warm-start path agree with the one-shot solver,
//! and IC(0) solves take the same iterations at every worker count).

use vcsel_arch::{SccConfig, SccSystem};
use vcsel_thermal::{PreconditionerKind, Simulator, SolveContext, TransientStepper};
use vcsel_units::{Celsius, Watts};

fn tiny_system() -> (SccSystem, vcsel_thermal::MeshSpec) {
    let config = SccConfig { p_vcsel: Watts::from_milliwatts(4.0), ..SccConfig::tiny_test() };
    let system = SccSystem::build(&config).expect("tiny SCC builds");
    let spec = system.mesh_spec().expect("mesh spec");
    (system, spec)
}

#[test]
fn ic0_needs_at_most_half_the_jacobi_iterations_on_the_scc_mesh() {
    let (system, spec) = tiny_system();
    let mut jacobi =
        SolveContext::new_preconditioned(system.design(), &spec, PreconditionerKind::Jacobi)
            .expect("jacobi");
    let mut ic0 = SolveContext::new(system.design(), &spec).expect("context");
    assert_eq!(ic0.preconditioner_name(), "ic0", "IC(0) must be the engine default");

    let map_j = jacobi.solve().expect("jacobi solves");
    let map_i = ic0.solve().expect("ic0 solves");

    let (iters_j, iters_i) = (jacobi.last_iterations(), ic0.last_iterations());
    assert!(iters_j > 0 && iters_i > 0, "both must actually iterate");
    assert!(
        2 * iters_i <= iters_j,
        "IC(0)-CG took {iters_i} iterations vs Jacobi-CG {iters_j} on {} unknowns — \
         expected at most half",
        ic0.unknowns()
    );
    // Same field either way.
    let (hot_j, hot_i) = (map_j.hottest().1.value(), map_i.hottest().1.value());
    assert!((hot_j - hot_i).abs() < 1e-6, "hottest cell: {hot_j} vs {hot_i}");
}

#[test]
fn cached_engine_matches_the_one_shot_simulator_on_the_scc_system() {
    let (system, spec) = tiny_system();
    let direct = Simulator::new().solve(system.design(), &spec).expect("one-shot solve");
    let mut ctx = SolveContext::new(system.design(), &spec).expect("context");
    let first = ctx.solve().expect("cold engine solve");
    let second = ctx.solve().expect("warm engine solve");
    assert_eq!(ctx.last_iterations(), 0, "identical warm re-solve must be free");
    for ((a, b), c) in
        direct.temperatures().iter().zip(first.temperatures()).zip(second.temperatures())
    {
        assert!((a - b).abs() < 1e-6, "one-shot {a} vs engine {b}");
        assert!((b - c).abs() < 1e-9, "warm re-solve drifted: {b} vs {c}");
    }
}

#[test]
fn threaded_and_serial_transient_steppers_agree_on_the_scc_mesh() {
    // IC(0) applies its two triangular solves serially. The only threaded
    // kernels left on this path are the SpMV and the Jacobi scaling, and
    // each computes every entry exactly as its serial loop does. So any
    // worker count must reproduce these iteration counts and field bits;
    // CI runs this file under VCSEL_THREADS=1 and VCSEL_THREADS=2.
    let (system, spec) = tiny_system();
    let design = system.design();
    let mut ctx = SolveContext::new(design, &spec).expect("context");
    ctx.solve().expect("cold ic0 solve");
    assert_eq!(ctx.last_iterations(), 220, "cold tiny-mesh IC(0) iterations");

    let groups: Vec<String> = design.group_names().iter().map(|g| g.to_string()).collect();
    let scales: Vec<(&str, f64)> = groups.iter().map(|g| (g.as_str(), 1.0)).collect();
    let mut fields = Vec::new();
    for _ in 0..2 {
        let mut stepper =
            TransientStepper::new(design, &spec, Celsius::new(40.0), 1e-2).expect("stepper builds");
        for _ in 0..10 {
            stepper.step(&scales).expect("transient step");
        }
        assert_eq!(stepper.total_iterations(), 999, "10-step transient IC(0) iterations");
        fields.push(stepper.snapshot());
    }
    for (a, b) in fields[0].temperatures().iter().zip(fields[1].temperatures()) {
        assert_eq!(a.to_bits(), b.to_bits(), "stepper fields differ: {a} vs {b}");
    }
}
