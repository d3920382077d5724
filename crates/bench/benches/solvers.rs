//! Ablation: solve-engine choice on a real FVM system from the case study.
//!
//! Compares the one-level CG preconditioners (Jacobi, IC(0)) in cold- and
//! warm-start variants on the tiny-fidelity SCC system — the same matrix
//! every run-time-management path solves — plus the one-shot Jacobi-CG
//! entry point on a small Laplacian.

use criterion::{criterion_group, criterion_main, Criterion};
use vcsel_arch::{SccConfig, SccSystem};
use vcsel_numerics::solver::{self, SolveOptions};
use vcsel_thermal::{PreconditionerKind, SolveContext};
use vcsel_units::Watts;

fn bench_solvers(c: &mut Criterion) {
    let config = SccConfig { p_vcsel: Watts::from_milliwatts(4.0), ..SccConfig::tiny_test() };
    let system = SccSystem::build(&config).expect("builds");
    let spec = system.mesh_spec().expect("spec");

    let kinds =
        [("jacobi", PreconditionerKind::Jacobi), ("ic0", PreconditionerKind::IncompleteCholesky)];

    // One context per preconditioner, shared across cold and warm variants;
    // construction (assembly + factorization) happens outside the timers.
    let mut contexts: Vec<(&str, SolveContext)> = kinds
        .iter()
        .map(|&(name, kind)| {
            let ctx =
                SolveContext::new_preconditioned(system.design(), &spec, kind).expect("factors");
            (name, ctx)
        })
        .collect();
    println!("[solvers] FVM system with {} unknowns", contexts[0].1.unknowns());

    let mut group = c.benchmark_group("fvm_solve_engine");
    group.sample_size(10);
    for (name, ctx) in &mut contexts {
        group.bench_function(format!("{name}_cold"), |b| {
            b.iter(|| {
                ctx.reset_guess();
                std::hint::black_box(ctx.solve().expect("solves"))
            })
        });
        println!("[solvers] {name} cold: {} CG iterations", ctx.last_iterations());
        // Warm start: hop between two nearby VCSEL operating points from a
        // converged field — the influence-calibration / transient-stepping
        // shape. Alternating keeps every timed solve doing real work; a
        // constant RHS would converge in 0 iterations after the first call.
        group.bench_function(format!("{name}_warm"), |b| {
            let mut flip = false;
            b.iter(|| {
                flip = !flip;
                let s = if flip { 1.02 } else { 1.01 };
                std::hint::black_box(ctx.solve_scaled(&[("vcsel", s)]).expect("solves"))
            })
        });
        println!("[solvers] {name} warm: {} CG iterations", ctx.last_iterations());
    }
    group.finish();

    // Full (mesh + assemble + factor + solve) one-shot path for context.
    let mut group = c.benchmark_group("fvm_one_shot");
    group.sample_size(10);
    group.bench_function("simulator_solve", |b| {
        b.iter(|| {
            vcsel_thermal::Simulator::new()
                .solve(system.design(), std::hint::black_box(&spec))
                .expect("solves")
        })
    });
    group.finish();

    // The one-shot Jacobi-CG entry point on a small shifted 1-D Laplacian.
    let opts = SolveOptions { tolerance: 1e-8, max_iterations: 200_000 };
    let n = 2_000;
    let mut builder = vcsel_numerics::TripletBuilder::with_capacity(n, n, 3 * n);
    for i in 0..n {
        builder.add(i, i, 2.0 + 1e-3);
        if i > 0 {
            builder.add(i, i - 1, -1.0);
        }
        if i + 1 < n {
            builder.add(i, i + 1, -1.0);
        }
    }
    let a = builder.build();
    let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();

    let mut group = c.benchmark_group("krylov_kernels");
    group.bench_function("cg_laplacian_2k", |b| {
        b.iter(|| solver::conjugate_gradient(std::hint::black_box(&a), &rhs, &opts).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
