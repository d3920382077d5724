//! Multigrid solve-engine regressions on the real case-study FVM systems.
//!
//! Seven claims are pinned here:
//!
//! 1. **Strength** — on the tiny SCC mesh, multigrid-preconditioned CG
//!    needs at most half the iterations of IC(0)-CG while producing the
//!    same field.
//! 2. **Thread invariance** — the same cold solve takes exactly 27
//!    iterations. CI runs this file under `VCSEL_THREADS=1`, `2` and `4`,
//!    so the pin holds the threaded V-cycle (Chebyshev smoother, residual
//!    and transfer kernels) to the serial one across processes, even on a
//!    one-core runner.
//! 3. **Shared operator** — the hierarchy's finest level aliases the
//!    engine's matrix allocation instead of cloning it.
//! 4. **Restore parity** — an engine restored from its cache artifact
//!    takes the fresh engine's iterations and reproduces its field
//!    bitwise.
//! 5. **Mesh independence** — refining the same floorplan from
//!    `Fidelity::Tiny` to `Fidelity::Fast` may grow the multigrid CG
//!    iteration count by at most 1.5× (one-level preconditioners grow much
//!    faster; that growth is why they cannot reach `Fidelity::Paper`).
//! 6. **Block V-cycle parity** — a five-painting `solve_batch`, whose
//!    preconditioner applies run one block V-cycle per three columns,
//!    reproduces five one-painting solves from the same initial guess
//!    bitwise, in fields and iterations. Run at 1, 2 and 4 workers like
//!    claim 2, it holds the block cycle to the one-column cycle across
//!    processes.
//! 7. **Paper scale** — a full-die `Fidelity::Paper` steady solve
//!    (~2.6 M unknowns) completes through the multigrid engine. Ignored by
//!    default: run with `cargo test --release -- --ignored` (minutes, not
//!    suitable for the debug-profile tier-1 loop).

use vcsel_arch::{Fidelity, SccConfig, SccSystem};
use vcsel_thermal::{EngineBlueprint, PreconditionerKind, SolveContext};
use vcsel_units::Watts;

fn system_at(fidelity: Fidelity) -> (SccSystem, vcsel_thermal::MeshSpec) {
    let config =
        SccConfig { p_vcsel: Watts::from_milliwatts(4.0), fidelity, ..SccConfig::tiny_test() };
    let system = SccSystem::build(&config).expect("SCC builds");
    let spec = system.mesh_spec().expect("mesh spec");
    (system, spec)
}

#[test]
fn multigrid_cg_needs_at_most_half_the_ic0_iterations_on_the_scc_mesh() {
    let (system, spec) = system_at(Fidelity::Tiny);
    let mut ic0 = SolveContext::new(system.design(), &spec).expect("context");
    assert_eq!(ic0.preconditioner_name(), "ic0", "tiny meshes stay on IC(0) by default");
    let mut mg =
        SolveContext::new_preconditioned(system.design(), &spec, PreconditionerKind::Multigrid)
            .expect("hierarchy builds");
    assert_eq!(mg.preconditioner_name(), "multigrid");

    let map_i = ic0.solve().expect("ic0 solves");
    let map_m = mg.solve().expect("multigrid solves");

    let (iters_i, iters_m) = (ic0.last_iterations(), mg.last_iterations());
    assert!(iters_i > 0 && iters_m > 0, "both must actually iterate");
    // Measured at 1, 2 and 4 workers; a drift with the worker count means
    // a threaded cycle kernel stopped computing entries as its serial loop.
    assert_eq!(iters_m, 27, "tiny SCC cold multigrid-CG iterations");
    assert!(
        2 * iters_m <= iters_i,
        "multigrid-CG took {iters_m} iterations vs IC(0)-CG {iters_i} on {} unknowns — \
         expected at most half",
        mg.unknowns()
    );
    for (a, b) in map_i.temperatures().iter().zip(map_m.temperatures()) {
        assert!((a - b).abs() < 1e-6, "IC(0) {a} vs multigrid {b}");
    }
}

#[test]
fn multigrid_engine_holds_one_fine_operator_copy() {
    // The shared-operator contract of the engine refactor: the multigrid
    // hierarchy's finest level must be the engine's own matrix allocation
    // (at paper scale the old clone cost ~215 MB twice over).
    let (system, spec) = system_at(Fidelity::Tiny);
    let ctx =
        SolveContext::new_preconditioned(system.design(), &spec, PreconditionerKind::Multigrid)
            .expect("context");
    let hierarchy = ctx.preconditioner().as_multigrid().expect("multigrid engine").hierarchy();
    assert!(
        std::sync::Arc::ptr_eq(ctx.shared_operator(), hierarchy.fine_operator()),
        "hierarchy must alias the engine's operator, not clone it"
    );
}

#[test]
fn restored_multigrid_engine_reproduces_the_fresh_solve_bitwise() {
    // The engine cache stores the hierarchy (operators, prolongators,
    // smoother bounds) and restores it with no coarsening or spectral
    // estimation; only the small coarsest level is factored again, by the
    // build's own rule. The first solve must not notice.
    let (system, spec) = system_at(Fidelity::Tiny);
    let blueprint = EngineBlueprint::new(system.design(), &spec)
        .expect("mesh")
        .with_kind(PreconditionerKind::Multigrid);
    let mut fresh = blueprint.build().expect("hierarchy builds");
    let artifact = blueprint.engine_artifact(&fresh).expect("multigrid engines are cacheable");
    let mut restored = blueprint.restore(&artifact).expect("artifact restores");
    assert_eq!(restored.preconditioner_name(), "multigrid");

    let map_f = fresh.solve().expect("fresh engine solves");
    let map_r = restored.solve().expect("restored engine solves");
    assert_eq!(fresh.last_iterations(), restored.last_iterations());
    for (a, b) in map_f.temperatures().iter().zip(map_r.temperatures()) {
        assert_eq!(a.to_bits(), b.to_bits(), "fresh {a} vs restored {b}");
    }
}

#[test]
fn multigrid_iteration_count_is_mesh_independent_from_tiny_to_fast() {
    let mut iterations = Vec::new();
    for fidelity in [Fidelity::Tiny, Fidelity::Fast] {
        let (system, spec) = system_at(fidelity);
        let mut ctx =
            SolveContext::new_preconditioned(system.design(), &spec, PreconditionerKind::Multigrid)
                .expect("hierarchy builds");
        ctx.solve().expect("steady solve");
        iterations.push(ctx.last_iterations().max(1));
    }
    assert!(
        2.0 * iterations[1] as f64 <= 3.0 * iterations[0] as f64,
        "multigrid iteration count grew more than 1.5x under refinement: \
         tiny {} vs fast {}",
        iterations[0],
        iterations[1]
    );
}

#[test]
fn batched_multigrid_solve_matches_one_painting_solves_bitwise() {
    // Five right-hand sides share every V-cycle operator pass (a chunk of
    // three columns, then one of two), yet each column must come out as
    // its own one-painting solve from the same (zero) initial guess. The
    // engine reports the most iterations any column ran and their sum;
    // identical field bits pin each column's trajectory.
    let (system, spec) = system_at(Fidelity::Tiny);
    let paintings: Vec<Vec<(&str, f64)>> = (0..5)
        .map(|i| vec![("chip", 0.8 + 0.1 * i as f64), ("vcsel", 0.5 + 0.4 * i as f64)])
        .collect();
    let refs: Vec<&[(&str, f64)]> = paintings.iter().map(Vec::as_slice).collect();

    let mut batched =
        SolveContext::new_preconditioned(system.design(), &spec, PreconditionerKind::Multigrid)
            .expect("context");
    let maps = batched.solve_batch(&refs).expect("batch solves");

    let mut single =
        SolveContext::new_preconditioned(system.design(), &spec, PreconditionerKind::Multigrid)
            .expect("context");
    let (mut most, mut sum) = (0, 0);
    for (i, (map, painting)) in maps.iter().zip(&refs).enumerate() {
        let map = map.as_ref().expect("batched column converges");
        single.reset_guess();
        let one = single.solve_scaled(painting).expect("one-painting solve");
        let iterations = single.last_iterations();
        assert!(iterations > 0, "painting {i} must iterate");
        (most, sum) = (most.max(iterations), sum + iterations);
        for (a, b) in map.temperatures().iter().zip(one.temperatures()) {
            assert_eq!(a.to_bits(), b.to_bits(), "painting {i}: batched {a} vs alone {b}");
        }
    }
    assert_eq!(batched.last_iterations(), most, "most iterations of any column");
    assert_eq!(batched.total_iterations(), sum, "iterations summed over the columns");
}

/// Full paper-fidelity steady solve — the workload the multigrid subsystem
/// exists for. `cargo test --release --test multigrid_engine -- --ignored`.
#[test]
#[ignore = "paper-scale solve (~2.6M unknowns); run in release, takes minutes"]
fn paper_fidelity_steady_solve_completes_through_the_multigrid_engine() {
    let config = SccConfig {
        p_vcsel: Watts::from_milliwatts(4.0),
        fidelity: Fidelity::Paper,
        ..SccConfig::default()
    };
    let system = SccSystem::build(&config).expect("paper SCC builds");
    let spec = system.mesh_spec().expect("mesh spec");
    let mut ctx = SolveContext::new(system.design(), &spec).expect("paper-scale context");
    assert_eq!(
        ctx.preconditioner_name(),
        "multigrid",
        "paper-scale steady engines must default to multigrid"
    );
    let map = ctx.solve().expect("paper-scale steady solve");
    let hottest = map.hottest().1.value();
    assert!(
        hottest > 40.0 && hottest < 150.0,
        "paper-scale field implausible: hottest {hottest} °C"
    );
    assert!(
        ctx.last_iterations() < 200,
        "mesh independence broken at paper scale: {} iterations",
        ctx.last_iterations()
    );
}
