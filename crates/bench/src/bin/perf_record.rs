//! Records the solve-engine benchmarks in reduced form and emits
//! `BENCH_solvers.json` — the machine-readable bench trajectory the
//! ROADMAP's "as fast as the hardware allows" north star is tracked
//! against.
//!
//! Three workloads on the SCC case-study system:
//!
//! 1. **Tiny steady solves** — five cold and five warm solves per
//!    preconditioner (Jacobi / IC(0) / multigrid) on the
//!    tiny-fidelity mesh, recording setup time, the fastest and slowest
//!    solve wall time and the CG iterations.
//! 2. **Fast steady solves** — the full-die `Fidelity::Fast` system
//!    (~400 k unknowns), IC(0) vs the smoothed-aggregation multigrid
//!    hierarchy, three cold and three warm solves each, recorded like the
//!    tiny rows: the min/max spread tells a 10–20 % change from noise.
//!    This is the acceptance workload for the multigrid
//!    subsystem: its cold-solve iteration count must be at most **half**
//!    of IC(0)'s. Control with `PERF_RECORD_FAST=all|mg|off` (CI's smoke
//!    job runs `mg` to exercise hierarchy construction on every push).
//! 3. **200-step transient** — the paper's runtime-management shape — run
//!    on the engine path (IC(0) factored once + warm starts), recording
//!    steps/second. At the default 200 steps it must take exactly
//!    17 875 CG iterations and end on the frozen seed row's hottest
//!    temperature to four decimals. The seed-era path (cold-start
//!    Jacobi-CG every step) is no longer run: its row is the v11
//!    measurement, frozen and labelled as not measured by this run.
//! 4. **Engine-cache cold/warm** — on the same fast-fidelity system, one
//!    cold engine construction through the persistent cache (fresh build
//!    plus artifact store under `reports/cache/`) and one warm
//!    construction (artifact restore with zero factorizations), recording
//!    both setup times and the restore speedup. The warm probe must hit,
//!    and with at least two hardware threads the restore must be ≥ 2×
//!    faster than the fresh build.
//! 5. **Batched DSE sweep** — a 100-point power sweep on the tiny system
//!    evaluated two ways: the sequential path (one warm-started
//!    `solve_scaled` per point) vs the batched path (a
//!    `ResponseBasis::build_on` block solve, then one `compose`
//!    per point). Records both wall clocks and the throughput ratio; on
//!    machines with at least two hardware threads the batched path must
//!    be ≥ 3× faster. `PERF_RECORD_DSE=smoke` shrinks the sweep to 20
//!    points for CI.
//!
//! Every threaded section stamps the worker count it ran with (`threads`,
//! respecting the `VCSEL_THREADS` override); on a single-core machine the
//! wall-clock speedup bars are skipped with an explicit note, so a 1-core
//! record can never read as a threading regression. `VCSEL_THREADS=1` is
//! the serial baseline: a run under it against a default run measures what
//! the threaded kernels pay (iteration counts and fields do not depend on
//! the worker count).
//!
//! Setting `PERF_RECORD_PAPER=1` additionally runs one full-die
//! `Fidelity::Paper` steady solve (~2.6 M unknowns) through the multigrid
//! engine — the workload that is intractable with one-level
//! preconditioners — and records it in the output, together with the
//! memory story of the shared-operator engine (the fine operator's size,
//! a pointer-identity check that the hierarchy aliases (rather than
//! clones) it, the process peak RSS right after the solve) and the
//! paper-scale engine-artifact restore time (the factored hierarchy
//! deserialized with zero factorizations) with the peak RSS of that
//! round trip.
//!
//! Usage: `cargo run --release -p vcsel_bench --bin perf_record [out.json]`
//! (default output `BENCH_solvers.json` in the working directory). The
//! default sections run in minutes; CI shrinks the transient via
//! `PERF_RECORD_STEPS`. With `VCSEL_TRACE=full` the run also writes a
//! chrome-trace JSON under `reports/traces/perf_record.trace.json` whose
//! top-level spans mirror the record's `phases` array.

use std::sync::Arc;
use std::time::Instant;

use vcsel_arch::{Fidelity, SccConfig, SccSystem};
use vcsel_core::{CacheMode, CacheStore, EngineCache};
use vcsel_numerics::hardware_threads;
use vcsel_thermal::{
    Design, EngineBlueprint, MeshSpec, PreconditionerKind, ResponseBasis, SolveContext,
    TransientStepper,
};
use vcsel_units::{Celsius, Watts};

const TRANSIENT_DT_S: f64 = 1e-2;
const STEADY_REPS: usize = 5;
/// Cold and warm solves per full-die `Fidelity::Fast` row (several
/// seconds each).
const FAST_REPS: usize = 3;

/// Transient step count: 200 by default (the acceptance workload); CI's
/// smoke job shrinks it via `PERF_RECORD_STEPS` to stay within its budget.
fn transient_steps() -> usize {
    std::env::var("PERF_RECORD_STEPS").ok().and_then(|v| v.parse().ok()).unwrap_or(200)
}

/// Fast-fidelity section selector: `all` (default), `mg`, or `off`.
fn fast_mode() -> String {
    std::env::var("PERF_RECORD_FAST").unwrap_or_else(|_| "all".to_string())
}

fn paper_enabled() -> bool {
    matches!(std::env::var("PERF_RECORD_PAPER").as_deref(), Ok("1") | Ok("true"))
}

/// DSE sweep size: 100 by default; `PERF_RECORD_DSE=smoke` is CI's
/// 20-point budget, any integer picks an explicit size.
fn dse_points() -> usize {
    match std::env::var("PERF_RECORD_DSE").as_deref() {
        Ok("smoke") => 20,
        Ok(v) => v.parse().unwrap_or(100),
        Err(_) => 100,
    }
}

struct DseBatchRecord {
    points: usize,
    unknowns: usize,
    threads: usize,
    sequential_s: f64,
    batched_s: f64,
    throughput_ratio: f64,
}

/// One preconditioner's steady row: solve times are the fastest and the
/// slowest of the repetitions.
struct SteadyRecord {
    name: &'static str,
    setup_ms: f64,
    cold_ms: f64,
    cold_max_ms: f64,
    cold_iterations: usize,
    warm_ms: f64,
    warm_max_ms: f64,
    warm_iterations: usize,
}

struct TransientRecord {
    label: &'static str,
    /// `false` for a row copied from an earlier record.
    measured: bool,
    wall_s: f64,
    steps_per_s: f64,
    total_iterations: usize,
    final_hottest_c: f64,
    threads: usize,
}

/// The seed-era transient path (cold-start Jacobi-CG every step) as the
/// full `bench_solvers_v11` record measured it at the default 200 steps on
/// a 2-thread Xeon. It is not re-run: it took ~150 s of every record.
const SEED_JACOBI_COLD: TransientRecord = TransientRecord {
    label: "seed_jacobi_cold",
    measured: false,
    wall_s: 148.249,
    steps_per_s: 1.35,
    total_iterations: 234_074,
    final_hottest_c: 60.8273,
    threads: 2,
};

/// CG iterations the engine path takes over the default 200 steps.
const ENGINE_DEFAULT_ITERATIONS: usize = 17_875;

struct EngineCacheRecord {
    unknowns: usize,
    threads: usize,
    /// Fresh-path engine setup (assembly + factorization + artifact
    /// store), the cost a cache hit erases.
    cold_setup_ms: f64,
    /// Warm-path engine setup (artifact load + revalidating restore, zero
    /// factorizations).
    warm_setup_ms: f64,
    restore_speedup: f64,
    warm_hit: bool,
}

struct PaperRecord {
    unknowns: usize,
    setup_s: f64,
    solve_s: f64,
    iterations: usize,
    hottest_c: f64,
    /// Wall time to restore the factored paper-scale engine from its
    /// artifact (zero factorizations).
    restore_s: f64,
    /// One copy of the fine conduction operator, in MB — the allocation
    /// the engine and the multigrid hierarchy now *share* (pre-sharing,
    /// it was held three times: context, fine level, fine-level smoother).
    fine_operator_mb: f64,
    /// Process peak RSS (VmHWM) right after the cold solve, before the
    /// artifact round trip, when the OS exposes it.
    peak_rss_mb: Option<f64>,
    /// Process peak RSS after the artifact round trip (serialize while the
    /// live engine is held, then restore).
    artifact_peak_rss_mb: Option<f64>,
}

/// Cold-then-warm engine construction through the real persistent cache
/// (`reports/cache/`): the cold probe builds fresh and stores the
/// artifact, the warm probe must restore it with zero factorizations.
/// The key's entry is removed first so the cold timing is honest even
/// when a previous run left the cache populated.
fn engine_cache_section(
    config: &SccConfig,
    system: &SccSystem,
    spec: &MeshSpec,
) -> EngineCacheRecord {
    let blueprint = EngineBlueprint::new(system.design(), spec).expect("fast blueprint meshes");
    let cache = EngineCache::new(
        CacheMode::ReadWrite,
        CacheStore::new(vcsel_core::cache::DEFAULT_CACHE_DIR),
    );
    let key = EngineCache::key(config, blueprint.content_hash());
    let _ = std::fs::remove_file(cache.store().path(&key));

    let cold_t = Instant::now();
    let (cold_ctx, cold_outcome) = cache.obtain(config, &blueprint).expect("cold engine builds");
    let cold_setup_ms = cold_t.elapsed().as_secs_f64() * 1e3;
    assert!(!cold_outcome.is_hit(), "cold probe hit a key that was just removed");
    let unknowns = cold_ctx.unknowns();
    drop(cold_ctx);

    let warm_t = Instant::now();
    let (warm_ctx, warm_outcome) = cache.obtain(config, &blueprint).expect("warm engine obtains");
    let warm_setup_ms = warm_t.elapsed().as_secs_f64() * 1e3;
    drop(warm_ctx);

    let record = EngineCacheRecord {
        unknowns,
        threads: hardware_threads(),
        cold_setup_ms,
        warm_setup_ms,
        restore_speedup: cold_setup_ms / warm_setup_ms,
        warm_hit: warm_outcome.is_hit(),
    };
    println!(
        "[engine_cache/fast] {} unknowns: cold build {:.0} ms, warm restore {:.0} ms \
         ({:.1}x, hit: {})",
        record.unknowns,
        record.cold_setup_ms,
        record.warm_setup_ms,
        record.restore_speedup,
        record.warm_hit
    );
    record
}

/// Runs `f` `reps` times: the fastest and the slowest wall time, seconds.
fn time_spread(reps: usize, mut f: impl FnMut()) -> (f64, f64) {
    let (mut best, mut worst) = (f64::INFINITY, 0.0f64);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        let s = t.elapsed().as_secs_f64();
        (best, worst) = (best.min(s), worst.max(s));
    }
    (best, worst)
}

/// Runs the cold/warm steady workload for each preconditioner on one
/// system; returns the unknown count and the per-preconditioner records.
fn steady_section(
    label: &str,
    design: &Design,
    spec: &MeshSpec,
    kinds: &[(&'static str, PreconditionerKind)],
    reps: usize,
) -> (usize, Vec<SteadyRecord>) {
    let mut unknowns = 0;
    let mut records = Vec::new();
    for &(name, kind) in kinds {
        let setup = Instant::now();
        let mut ctx = SolveContext::new_preconditioned(design, spec, kind).expect("context builds");
        let setup_ms = setup.elapsed().as_secs_f64() * 1e3;
        unknowns = ctx.unknowns();
        let (cold_s, cold_max_s) = time_spread(reps, || {
            ctx.reset_guess();
            ctx.solve().expect("steady solve");
        });
        let cold_iterations = ctx.last_iterations();
        // Warm variant: hop between two nearby VCSEL operating points from
        // an already-converged field — the design-sweep / calibration
        // access pattern. Alternating keeps every rep doing real work
        // instead of re-solving an identical RHS for free.
        let mut flip = false;
        let (warm_s, warm_max_s) = time_spread(reps, || {
            flip = !flip;
            let s = if flip { 1.02 } else { 1.01 };
            ctx.solve_scaled(&[("chip", 1.0), ("vcsel", s), ("driver", 1.0)]).expect("warm solve");
        });
        let warm_iterations = ctx.last_iterations();
        let record = SteadyRecord {
            name,
            setup_ms,
            cold_ms: cold_s * 1e3,
            cold_max_ms: cold_max_s * 1e3,
            cold_iterations,
            warm_ms: warm_s * 1e3,
            warm_max_ms: warm_max_s * 1e3,
            warm_iterations,
        };
        println!(
            "[steady/{label}] {name:>9}: setup {setup_ms:>8.1} ms, \
             cold {:>8.1}–{:.1} ms / {cold_iterations:>4} iters, \
             warm {:>8.1}–{:.1} ms / {warm_iterations:>4} iters",
            record.cold_ms, record.cold_max_ms, record.warm_ms, record.warm_max_ms,
        );
        records.push(record);
    }
    (unknowns, records)
}

/// A peak RSS in MB as a JSON value: one decimal, or `null` where the OS
/// does not expose it.
fn json_mb(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), |mb| format!("{mb:.1}"))
}

fn steady_json(records: &[SteadyRecord], indent: &str) -> String {
    let rows: Vec<String> = records
        .iter()
        .map(|s| {
            format!(
                "{indent}{{ \"preconditioner\": \"{}\", \"setup_ms\": {:.3}, \"cold_ms\": {:.3}, \
                 \"cold_max_ms\": {:.3}, \"cold_iterations\": {}, \"warm_ms\": {:.3}, \
                 \"warm_max_ms\": {:.3}, \"warm_iterations\": {} }}",
                s.name,
                s.setup_ms,
                s.cold_ms,
                s.cold_max_ms,
                s.cold_iterations,
                s.warm_ms,
                s.warm_max_ms,
                s.warm_iterations
            )
        })
        .collect();
    rows.join(",\n")
}

fn main() {
    // The root span must drop before the trace flushes, hence the inner
    // function; `finish_global` is a no-op unless VCSEL_TRACE=full.
    run();
    vcsel_telemetry::finish_global("perf_record");
}

fn run() {
    let sink = vcsel_telemetry::global();
    let _root = sink.span("report", "perf_record");
    // Per-phase wall clock for the JSON record — coarser than the trace
    // spans but present even when tracing is off.
    let mut phases: Vec<(&'static str, f64)> = Vec::new();
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_solvers.json".to_string());

    // ---- Tiny steady solves per preconditioner -------------------------
    let phase_t = Instant::now();
    let phase_span = sink.span("perf", "steady_tiny");
    let config = SccConfig { p_vcsel: Watts::from_milliwatts(4.0), ..SccConfig::tiny_test() };
    let system = SccSystem::build(&config).expect("tiny SCC builds");
    let spec = system.mesh_spec().expect("mesh spec");
    let design = system.design();
    let kinds = [
        ("jacobi", PreconditionerKind::Jacobi),
        ("ic0", PreconditionerKind::IncompleteCholesky),
        ("multigrid", PreconditionerKind::Multigrid),
    ];
    let (unknowns, steady) = steady_section("tiny", design, &spec, &kinds, STEADY_REPS);
    drop(phase_span);
    phases.push(("steady_tiny", phase_t.elapsed().as_secs_f64() * 1e3));

    // ---- Fast steady solves: IC(0) vs multigrid at full-die scale ------
    let fast = fast_mode();
    let fast_kinds: &[(&'static str, PreconditionerKind)] = match fast.as_str() {
        "off" => &[],
        "mg" => &[("multigrid", PreconditionerKind::Multigrid)],
        "all" => &[
            ("ic0", PreconditionerKind::IncompleteCholesky),
            ("multigrid", PreconditionerKind::Multigrid),
        ],
        other => panic!("PERF_RECORD_FAST must be all|mg|off, got '{other}'"),
    };
    let (fast_unknowns, fast_steady, engine_cache) = if fast_kinds.is_empty() {
        (0, Vec::new(), None)
    } else {
        let phase_t = Instant::now();
        let phase_span = sink.span("perf", "steady_fast");
        let config = SccConfig {
            p_vcsel: Watts::from_milliwatts(4.0),
            fidelity: Fidelity::Fast,
            ..SccConfig::default()
        };
        let system = SccSystem::build(&config).expect("fast SCC builds");
        let spec = system.mesh_spec().expect("mesh spec");
        let (unknowns, records) =
            steady_section("fast", system.design(), &spec, fast_kinds, FAST_REPS);
        drop(phase_span);
        phases.push(("steady_fast", phase_t.elapsed().as_secs_f64() * 1e3));

        let phase_t = Instant::now();
        let phase_span = sink.span("perf", "engine_cache");
        let engine_cache = engine_cache_section(&config, &system, &spec);
        drop(phase_span);
        phases.push(("engine_cache", phase_t.elapsed().as_secs_f64() * 1e3));
        (unknowns, records, Some(engine_cache))
    };

    // ---- Optional full-paper-fidelity multigrid solve ------------------
    let paper = if paper_enabled() {
        let phase_t = Instant::now();
        let phase_span = sink.span("perf", "paper");
        let config = SccConfig {
            p_vcsel: Watts::from_milliwatts(4.0),
            fidelity: Fidelity::Paper,
            ..SccConfig::default()
        };
        let system = SccSystem::build(&config).expect("paper SCC builds");
        let spec = system.mesh_spec().expect("mesh spec");
        // One blueprint serves the build and the artifact round trip, so
        // the 2.6 M-cell mesh is built once; `setup_s` times mesh +
        // assembly + factorization, as `SolveContext::new` does.
        let setup = Instant::now();
        let blueprint =
            EngineBlueprint::new(system.design(), &spec).expect("paper blueprint meshes");
        let mut ctx = blueprint.build().expect("paper-scale context builds");
        let setup_s = setup.elapsed().as_secs_f64();
        assert_eq!(ctx.preconditioner_name(), "multigrid", "paper scale must default to multigrid");
        // The shared-operator contract at the scale where it matters: the
        // hierarchy's finest level must alias the engine's ~215 MB
        // operator, not hold a second copy of it.
        let mg = ctx.preconditioner().as_multigrid().expect("multigrid engine");
        assert!(
            Arc::ptr_eq(ctx.shared_operator(), mg.hierarchy().fine_operator()),
            "paper-scale hierarchy must share the fine operator"
        );
        let fine_operator_mb = ctx.shared_operator().storage_bytes() as f64 / 1e6;
        let solve = Instant::now();
        let hottest_c = ctx.solve().expect("paper-scale steady solve").hottest().1.value();
        let solve_s = solve.elapsed().as_secs_f64();
        // What a paper-fidelity solve needs, before any artifact bytes exist.
        let peak_rss_mb = vcsel_telemetry::peak_rss_mb();
        let iterations = ctx.last_iterations();
        let unknowns = ctx.unknowns();
        // The engine-cache story at the scale where it pays most: restore
        // the factored hierarchy from its artifact with zero
        // factorizations. The artifact is written while the live engine is
        // held, and the live engine is dropped before the restore, so the
        // round trip peaks at one engine + one artifact.
        let artifact = blueprint.engine_artifact(&ctx).expect("paper engine is cacheable");
        drop(ctx);
        let restore = Instant::now();
        let restored = blueprint.restore(&artifact).expect("paper engine restores");
        let restore_s = restore.elapsed().as_secs_f64();
        drop(restored);
        let record = PaperRecord {
            unknowns,
            setup_s,
            solve_s,
            iterations,
            hottest_c,
            restore_s,
            fine_operator_mb,
            peak_rss_mb,
            artifact_peak_rss_mb: vcsel_telemetry::peak_rss_mb(),
        };
        let mb = |v: Option<f64>| v.map_or_else(|| "n/a".to_string(), |mb| format!("{mb:.0} MB"));
        println!(
            "[paper] multigrid: {} unknowns, setup {:.1} s, cold solve {:.1} s / {} iters, \
             hottest {:.2} C, artifact restore {:.1} s ({:.1}x vs setup), \
             operator {:.0} MB shared (1 copy), peak RSS {} (solve) / {} (artifact round trip)",
            record.unknowns,
            record.setup_s,
            record.solve_s,
            record.iterations,
            record.hottest_c,
            record.restore_s,
            record.setup_s / record.restore_s,
            record.fine_operator_mb,
            mb(record.peak_rss_mb),
            mb(record.artifact_peak_rss_mb),
        );
        sink.rss_snapshot("perf", "paper_peak_rss");
        drop(phase_span);
        phases.push(("paper", phase_t.elapsed().as_secs_f64() * 1e3));
        Some(record)
    } else {
        None
    };

    // ---- 200-step transient: the engine path ----------------------------
    let phase_t = Instant::now();
    let phase_span = sink.span("perf", "transient");
    let group_names: Vec<String> = design.group_names().iter().map(|g| g.to_string()).collect();
    let scales: Vec<(&str, f64)> = group_names.iter().map(|g| (g.as_str(), 1.0)).collect();
    let steps = transient_steps();
    let mut stepper = TransientStepper::new(design, &spec, Celsius::new(40.0), TRANSIENT_DT_S)
        .expect("stepper builds");
    let t = Instant::now();
    for _ in 0..steps {
        stepper.step(&scales).expect("step solves");
    }
    let wall_s = t.elapsed().as_secs_f64();
    let engine = TransientRecord {
        label: "engine_ic0_warm",
        measured: true,
        wall_s,
        steps_per_s: steps as f64 / wall_s,
        total_iterations: stepper.total_iterations(),
        final_hottest_c: stepper.snapshot().hottest().1.value(),
        threads: hardware_threads(),
    };
    drop(phase_span);
    phases.push(("transient", phase_t.elapsed().as_secs_f64() * 1e3));
    sink.rss_snapshot("perf", "final_peak_rss");

    let transient = [SEED_JACOBI_COLD, engine];
    for t in &transient {
        let source = if t.measured { "" } else { " (frozen v11 row, not measured)" };
        println!(
            "[transient] {:>28}: {:>6.2} s ({:>7.1} steps/s, {} CG iterations){source}",
            t.label, t.wall_s, t.steps_per_s, t.total_iterations
        );
    }

    // ---- Batched DSE sweep: shared basis vs per-point solves -----------
    let phase_t = Instant::now();
    let phase_span = sink.span("perf", "dse_batch");
    let dse_n = dse_points();
    // Every point paints all power groups at the same scale; the spread
    // is wide enough that warm starts cannot make the sequential loop
    // trivially cheap.
    let dse_scales: Vec<f64> =
        (0..dse_n).map(|i| 0.25 + 2.75 * i as f64 / (dse_n.max(2) - 1) as f64).collect();
    let dse_paintings: Vec<Vec<(&str, f64)>> =
        dse_scales.iter().map(|&s| group_names.iter().map(|g| (g.as_str(), s)).collect()).collect();

    let mut seq_ctx = SolveContext::new(design, &spec).expect("sequential DSE context");
    let seq_t = Instant::now();
    let seq_hot: Vec<f64> = dse_paintings
        .iter()
        .map(|p| seq_ctx.solve_scaled(p).expect("sequential point solves").hottest().1.value())
        .collect();
    let sequential_s = seq_t.elapsed().as_secs_f64();

    let mut batch_ctx = SolveContext::new(design, &spec).expect("batched DSE context");
    let batch_t = Instant::now();
    let basis = ResponseBasis::build_on(&mut batch_ctx).expect("batched basis builds");
    let batch_hot: Vec<f64> = dse_paintings
        .iter()
        .map(|p| basis.compose(p).expect("point composes").hottest().1.value())
        .collect();
    let batched_s = batch_t.elapsed().as_secs_f64();

    for (i, (a, b)) in seq_hot.iter().zip(&batch_hot).enumerate() {
        assert!((a - b).abs() < 1e-5, "DSE point {i}: sequential hottest {a} vs batched {b}");
    }
    let dse = DseBatchRecord {
        points: dse_n,
        unknowns,
        threads: hardware_threads(),
        sequential_s,
        batched_s,
        throughput_ratio: sequential_s / batched_s,
    };
    println!(
        "[dse_batch] {} points on {} unknowns: sequential {:.3} s, batched {:.3} s \
         ({:.1}x throughput, {} threads)",
        dse.points,
        dse.unknowns,
        dse.sequential_s,
        dse.batched_s,
        dse.throughput_ratio,
        dse.threads,
    );
    drop(phase_span);
    phases.push(("dse_batch", phase_t.elapsed().as_secs_f64() * 1e3));

    // ---- Emit JSON -----------------------------------------------------
    let transient_json: Vec<String> = transient
        .iter()
        .map(|t| {
            format!(
                "      {{ \"path\": \"{}\", \"measured\": {}, \"threads\": {}, \
                 \"wall_s\": {:.4}, \"steps_per_s\": {:.2}, \"total_cg_iterations\": {}, \
                 \"final_hottest_c\": {:.4} }}",
                t.label,
                t.measured,
                t.threads,
                t.wall_s,
                t.steps_per_s,
                t.total_iterations,
                t.final_hottest_c
            )
        })
        .collect();
    let ic0 = steady.iter().find(|s| s.name == "ic0").expect("ic0 present");
    let jacobi = steady.iter().find(|s| s.name == "jacobi").expect("jacobi present");
    let fast_json = if fast_steady.is_empty() {
        String::new()
    } else {
        format!(
            ",\n  \"steady_fast\": {{\n    \"unknowns\": {fast_unknowns},\n    \
             \"rows\": [\n{}\n    ]\n  }}",
            steady_json(&fast_steady, "      ")
        )
    };
    let fast_ratio = {
        let mg = fast_steady.iter().find(|s| s.name == "multigrid");
        let ic = fast_steady.iter().find(|s| s.name == "ic0");
        match (mg, ic) {
            (Some(mg), Some(ic)) => format!(
                ",\n  \"multigrid_vs_ic0_fast_cold_iteration_ratio\": {:.4}",
                mg.cold_iterations as f64 / ic.cold_iterations.max(1) as f64
            ),
            _ => String::new(),
        }
    };
    // A wall-clock speedup bar only binds where threads exist to win with;
    // a single-core machine correctly records ~1.0x, annotated so the row
    // can never read as a threading regression.
    let speedup_note = |threads: usize| {
        if threads >= 2 {
            "\"enforced\""
        } else {
            "\"skipped: single core\""
        }
    };
    // Per-phase wall clock (since v5): the same section boundaries the trace
    // spans use, so a record and a Perfetto trace line up by name.
    let phases_json = {
        let rows: Vec<String> = phases
            .iter()
            .map(|(name, ms)| format!("    {{ \"phase\": \"{name}\", \"wall_ms\": {ms:.1} }}"))
            .collect();
        format!(",\n  \"phases\": [\n{}\n  ]", rows.join(",\n"))
    };
    let engine_cache_json = engine_cache
        .as_ref()
        .map(|c| {
            format!(
                ",\n  \"engine_cache\": {{ \"unknowns\": {}, \"threads\": {}, \
                 \"mode\": \"readwrite\", \"cold_setup_ms\": {:.1}, \"warm_setup_ms\": {:.1}, \
                 \"restore_speedup\": {:.3}, \"warm_hit\": {}, \"speedup_assertion\": {} }}",
                c.unknowns,
                c.threads,
                c.cold_setup_ms,
                c.warm_setup_ms,
                c.restore_speedup,
                c.warm_hit,
                speedup_note(c.threads)
            )
        })
        .unwrap_or_default();
    let dse_json = format!(
        ",\n  \"dse_batch\": {{ \"points\": {}, \"unknowns\": {}, \"threads\": {}, \
         \"sequential_s\": {:.4}, \"batched_s\": {:.4}, \"throughput_ratio\": {:.3}, \
         \"ratio_assertion\": {} }}",
        dse.points,
        dse.unknowns,
        dse.threads,
        dse.sequential_s,
        dse.batched_s,
        dse.throughput_ratio,
        speedup_note(dse.threads),
    );
    let paper_json = paper
        .as_ref()
        .map(|p| {
            format!(
                ",\n  \"paper\": {{ \"unknowns\": {}, \"setup_s\": {:.2}, \"solve_s\": {:.2}, \
                 \"iterations\": {}, \"hottest_c\": {:.4}, \"restore_s\": {:.2}, \
                 \"restore_speedup\": {:.3}, \"fine_operator_mb\": {:.1}, \
                 \"fine_operator_copies\": 1, \"shared_operator_savings_mb\": {:.1}, \
                 \"peak_rss_mb\": {}, \"artifact_peak_rss_mb\": {} }}",
                p.unknowns,
                p.setup_s,
                p.solve_s,
                p.iterations,
                p.hottest_c,
                p.restore_s,
                p.setup_s / p.restore_s,
                p.fine_operator_mb,
                // Pre-sharing, the operator was held three times (context
                // + fine level + fine-level SSOR): two copies saved.
                2.0 * p.fine_operator_mb,
                json_mb(p.peak_rss_mb),
                json_mb(p.artifact_peak_rss_mb),
            )
        })
        .unwrap_or_default();
    let json = format!(
        "{{\n  \"schema\": \"bench_solvers_v13\",\n  \"generated_by\": \"perf_record\",\n  \
         \"workload\": \"SccConfig tiny_test + full-die Fast, p_vcsel = 4 mW\",\n  \
         \"unknowns\": {unknowns},\n  \
         \"steady\": [\n{}\n  ]{fast_json}{fast_ratio}{engine_cache_json}{dse_json}{paper_json}\
         {phases_json},\n  \
         \"transient\": {{\n    \
         \"steps\": {steps},\n    \"dt_s\": {TRANSIENT_DT_S},\n    \
         \"paths\": [\n{}\n    ]\n  }},\n  \
         \"ic0_vs_jacobi_cold_iteration_ratio\": {:.4}\n}}\n",
        steady_json(&steady, "    "),
        transient_json.join(",\n"),
        ic0.cold_iterations as f64 / jacobi.cold_iterations.max(1) as f64,
    );
    std::fs::write(&out_path, &json).expect("write bench record");
    println!("[perf_record] wrote {out_path}");

    // The acceptance bars: at the default step count the engine transient
    // must reproduce its pinned iterations and the frozen seed row's
    // hottest temperature, IC(0) must need at most half the Jacobi
    // iterations, and at fast fidelity multigrid at most half the IC(0)
    // iterations.
    if steps == 200 {
        let engine = &transient[1];
        assert_eq!(
            engine.total_iterations, ENGINE_DEFAULT_ITERATIONS,
            "200-step engine transient CG iterations"
        );
        assert_eq!(
            format!("{:.4}", engine.final_hottest_c),
            format!("{:.4}", SEED_JACOBI_COLD.final_hottest_c),
            "200-step engine transient must end on the seed path's hottest temperature"
        );
    }
    assert!(
        2 * ic0.cold_iterations <= jacobi.cold_iterations,
        "IC(0) iterations {} vs Jacobi {} — expected at most half",
        ic0.cold_iterations,
        jacobi.cold_iterations
    );
    let mg_tiny = steady.iter().find(|s| s.name == "multigrid").expect("multigrid present");
    assert!(
        2 * mg_tiny.cold_iterations <= ic0.cold_iterations,
        "multigrid iterations {} vs IC(0) {} at tiny fidelity — expected at most half",
        mg_tiny.cold_iterations,
        ic0.cold_iterations
    );
    if let (Some(mg), Some(ic)) = (
        fast_steady.iter().find(|s| s.name == "multigrid"),
        fast_steady.iter().find(|s| s.name == "ic0"),
    ) {
        assert!(
            2 * mg.cold_iterations <= ic.cold_iterations,
            "multigrid iterations {} vs IC(0) {} at fast fidelity — expected at most half",
            mg.cold_iterations,
            ic.cold_iterations
        );
    }
    // The engine-cache bars: the warm probe must restore (a miss means the
    // artifact pipeline regressed — deterministic, asserted everywhere),
    // and the restore must erase at least half the fresh setup cost (a
    // wall-clock ratio, so it follows the single-core skip convention).
    if let Some(c) = &engine_cache {
        assert!(c.warm_hit, "warm engine-cache probe rebuilt instead of restoring");
        if c.threads >= 2 {
            assert!(
                c.restore_speedup >= 2.0,
                "engine-cache restore speedup {:.2}x < 2x (cold {:.0} ms, warm {:.0} ms)",
                c.restore_speedup,
                c.cold_setup_ms,
                c.warm_setup_ms
            );
        } else {
            println!("[engine_cache/fast] single-core: restore speedup assertion skipped");
        }
    }
    if let Some(p) = &paper {
        if hardware_threads() >= 2 {
            assert!(
                p.setup_s / p.restore_s >= 2.0,
                "paper-scale restore speedup {:.2}x < 2x (setup {:.1} s, restore {:.1} s)",
                p.setup_s / p.restore_s,
                p.setup_s,
                p.restore_s
            );
        } else {
            println!("[paper] single-core: restore speedup assertion skipped");
        }
    }
    // The batched-DSE bar: the shared basis + compose path must deliver at
    // least 3x the sweep throughput of per-point solves. The win is
    // algorithmic, but it is still a wall-clock ratio, so it follows the
    // same single-core skip convention as the threading bars.
    if dse.threads >= 2 {
        assert!(
            dse.throughput_ratio >= 3.0,
            "batched DSE throughput {:.2}x < 3x over {} points",
            dse.throughput_ratio,
            dse.points
        );
    } else {
        println!("[dse_batch] single-core: throughput assertion skipped");
    }
}
