//! Records the solve-engine benchmarks in reduced form and writes
//! `BENCH_solvers.json`, the machine-readable bench trajectory of the
//! solve engine, as one serde-derived [`BenchRecord`].
//!
//! Six workloads on the SCC case-study system, in run order:
//!
//! 1. **Tiny steady solves** — five cold and five warm solves per
//!    preconditioner (Jacobi / IC(0) / multigrid) on the
//!    tiny-fidelity mesh, recording setup time, the fastest and slowest
//!    solve wall time and the CG iterations.
//! 2. **Fast steady solves** — the full-die `Fidelity::Fast` system
//!    (~400 k unknowns), IC(0) vs the smoothed-aggregation multigrid
//!    hierarchy, three cold and three warm solves each, recorded like the
//!    tiny rows: the min/max spread tells a 10–20 % change from noise.
//!    This is the acceptance workload for the multigrid subsystem: its
//!    cold-solve iteration count must be at most **half** of IC(0)'s.
//! 3. **Engine-cache cold/warm** — on the same fast-fidelity system, one
//!    cold engine construction through the persistent cache (fresh build
//!    plus artifact store under `reports/cache/`) and one warm
//!    construction (artifact restore with zero factorizations), recording
//!    both setup times and the restore speedup. The warm probe must hit,
//!    and with at least two worker threads the restore must be ≥ 2×
//!    faster than the fresh build.
//! 4. **Paper steady solve** — one full-die `Fidelity::Paper` solve
//!    (~2.6 M unknowns) through the multigrid engine, the workload that
//!    is intractable with one-level preconditioners, with the memory
//!    story of the shared-operator engine (the fine operator's size, a
//!    pointer-identity check that the hierarchy aliases rather than
//!    clones it, the process peak RSS right after the solve) and the
//!    engine-artifact restore time (zero factorizations) with the peak
//!    RSS of that round trip.
//! 5. **200-step transient** — the paper's runtime-management shape — run
//!    on the engine path (IC(0) factored once + warm starts), recording
//!    steps/second. At 200 steps it must take exactly 17 875 CG
//!    iterations and end on the frozen seed row's hottest temperature to
//!    four decimals. The seed-era path (cold-start Jacobi-CG every step)
//!    is no longer run: its row is the v11 measurement, frozen and
//!    labelled as not measured by this run.
//! 6. **Batched DSE sweep** — a 100-point power sweep on the tiny system
//!    evaluated two ways: the sequential path (one warm-started
//!    `solve_scaled` per point) vs the batched path (a
//!    `ResponseBasis::build_on` block solve, then one `compose` per
//!    point). Records both wall clocks and the throughput ratio; with at
//!    least two worker threads the batched path must be ≥ 3× faster.
//!
//! One knob, `PERF_RECORD`, picks the run. Unset, it records all six
//! workloads as committed (minutes; the paper solve peaks at ~1.5 GB).
//! `PERF_RECORD=smoke` is CI's reduced run: multigrid-only fast rows, no
//! paper solve, 20 transient steps and 20 DSE points.
//!
//! Every bar lives in [`violations`], which reads only the record, so the
//! committed file is checked against the same bars as a fresh run. Every
//! threaded section stamps the worker count it ran with (`threads`,
//! respecting the `VCSEL_THREADS` override); a wall-clock speedup bar
//! binds only on two or more workers, and a single-core section says so
//! in its stamp, so a 1-core record can never read as a threading
//! regression. `VCSEL_THREADS=1` is the serial baseline: a run under it
//! against a default run measures what the threaded kernels pay
//! (iteration counts and fields do not depend on the worker count).
//!
//! Usage: `cargo run --release -p vcsel_bench --bin perf_record [out.json]`
//! (default output `BENCH_solvers.json` in the working directory). With
//! `VCSEL_TRACE=full` the run also writes a chrome-trace JSON under
//! `reports/traces/perf_record.trace.json` whose top-level spans mirror
//! the record's `phases` array.

use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};
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

/// CG iterations the engine path takes over the default 200 steps.
const ENGINE_DEFAULT_ITERATIONS: usize = 17_875;
/// The hottest cell at the end of the seed path's 200 steps, °C.
const SEED_FINAL_HOTTEST_C: f64 = 60.8273;

/// What one run records.
struct Plan {
    /// The full-die `Fidelity::Fast` steady rows.
    fast_kinds: &'static [(&'static str, PreconditionerKind)],
    /// Whether the paper-fidelity solve runs.
    paper: bool,
    /// Transient steps.
    steps: usize,
    /// Points of the DSE sweep.
    dse_points: usize,
}

impl Plan {
    /// The committed record.
    const FULL: Plan = Plan {
        fast_kinds: &[
            ("ic0", PreconditionerKind::IncompleteCholesky),
            ("multigrid", PreconditionerKind::Multigrid),
        ],
        paper: true,
        steps: 200,
        dse_points: 100,
    };

    /// CI's record: one full-die multigrid row still builds a fast
    /// hierarchy on every push, inside a CI budget.
    const SMOKE: Plan = Plan {
        fast_kinds: &[("multigrid", PreconditionerKind::Multigrid)],
        paper: false,
        steps: 20,
        dse_points: 20,
    };

    /// The plan `PERF_RECORD` names: unset is [`Plan::FULL`], `smoke` is
    /// [`Plan::SMOKE`].
    fn from_env() -> Result<Plan, String> {
        match std::env::var("PERF_RECORD").as_deref() {
            Err(std::env::VarError::NotPresent) => Ok(Plan::FULL),
            Ok("smoke") => Ok(Plan::SMOKE),
            Ok(v) => Err(format!("PERF_RECORD must be unset or `smoke`, got `{v}`")),
            Err(e) => Err(format!("PERF_RECORD: {e}")),
        }
    }
}

/// The whole `BENCH_solvers.json` record of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct BenchRecord {
    schema: String,
    generated_by: String,
    workload: String,
    /// Unknowns of the tiny system.
    unknowns: usize,
    steady: Vec<SteadyRecord>,
    steady_fast: SteadyFast,
    /// `null` where the run has no fast IC(0) row.
    multigrid_vs_ic0_fast_cold_iteration_ratio: Option<f64>,
    engine_cache: EngineCacheRecord,
    dse_batch: DseBatchRecord,
    /// `null` where the run skips the paper solve.
    paper: Option<PaperRecord>,
    /// Per-section wall clock, named like the trace spans, so a record
    /// and a Perfetto trace of the same run line up.
    phases: Vec<Phase>,
    transient: TransientSection,
    ic0_vs_jacobi_cold_iteration_ratio: f64,
}

/// One preconditioner's steady row: solve times are the fastest and the
/// slowest of the repetitions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SteadyRecord {
    preconditioner: String,
    setup_ms: f64,
    cold_ms: f64,
    cold_max_ms: f64,
    cold_iterations: usize,
    warm_ms: f64,
    warm_max_ms: f64,
    warm_iterations: usize,
}

/// The full-die `Fidelity::Fast` steady rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SteadyFast {
    unknowns: usize,
    rows: Vec<SteadyRecord>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct EngineCacheRecord {
    unknowns: usize,
    threads: usize,
    mode: String,
    /// Fresh-path engine setup (assembly + factorization + artifact
    /// store), the cost a cache hit erases.
    cold_setup_ms: f64,
    /// Warm-path engine setup (artifact load + revalidating restore, zero
    /// factorizations).
    warm_setup_ms: f64,
    restore_speedup: f64,
    warm_hit: bool,
    speedup_assertion: String,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct DseBatchRecord {
    points: usize,
    unknowns: usize,
    threads: usize,
    sequential_s: f64,
    batched_s: f64,
    throughput_ratio: f64,
    ratio_assertion: String,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct PaperRecord {
    unknowns: usize,
    setup_s: f64,
    solve_s: f64,
    iterations: usize,
    hottest_c: f64,
    /// Wall time to restore the factored paper-scale engine from its
    /// artifact (zero factorizations).
    restore_s: f64,
    restore_speedup: f64,
    /// One copy of the fine conduction operator, in MB — the allocation
    /// the engine and the multigrid hierarchy share.
    fine_operator_mb: f64,
    fine_operator_copies: usize,
    shared_operator_savings_mb: f64,
    /// Process peak RSS (VmHWM) right after the cold solve, before the
    /// artifact round trip, where the OS exposes it.
    peak_rss_mb: Option<f64>,
    /// Process peak RSS after the artifact round trip (serialize while the
    /// live engine is held, then restore).
    artifact_peak_rss_mb: Option<f64>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Phase {
    phase: String,
    wall_ms: f64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct TransientSection {
    steps: usize,
    dt_s: f64,
    paths: Vec<TransientRecord>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct TransientRecord {
    path: String,
    /// `false` for a row copied from an earlier record.
    measured: bool,
    threads: usize,
    wall_s: f64,
    steps_per_s: f64,
    total_cg_iterations: usize,
    final_hottest_c: f64,
}

/// The seed-era transient path (cold-start Jacobi-CG every step) as the
/// full `bench_solvers_v11` record measured it at the default 200 steps on
/// a 2-thread Xeon. It is not re-run: it took ~150 s of every record.
fn seed_jacobi_cold() -> TransientRecord {
    TransientRecord {
        path: "seed_jacobi_cold".to_string(),
        measured: false,
        threads: 2,
        wall_s: 148.249,
        steps_per_s: 1.35,
        total_cg_iterations: 234_074,
        final_hottest_c: SEED_FINAL_HOTTEST_C,
    }
}

/// The stamp of a wall-clock bar: it binds only where threads exist to
/// win with.
fn assertion_stamp(threads: usize) -> String {
    if threads >= 2 { "enforced" } else { "skipped: single core" }.to_string()
}

/// The cold iterations of `rows`' `preconditioner` row.
fn cold_iterations(rows: &[SteadyRecord], preconditioner: &str) -> Option<usize> {
    rows.iter().find(|r| r.preconditioner == preconditioner).map(|r| r.cold_iterations)
}

/// `a`'s cold iterations over `b`'s, where `rows` has both.
fn iteration_ratio(rows: &[SteadyRecord], a: &str, b: &str) -> Option<f64> {
    Some(cold_iterations(rows, a)? as f64 / cold_iterations(rows, b)?.max(1) as f64)
}

/// Every bar `r` misses, one message each. A wall-clock bar binds only
/// where its section ran on two or more workers; an iteration bar binds
/// where the record has both rows (CI's smoke record has no fast IC(0)
/// row); the transient pins bind at the default 200 steps.
fn violations(r: &BenchRecord) -> Vec<String> {
    let mut out = Vec::new();
    if r.transient.steps == 200 {
        match r.transient.paths.iter().find(|t| t.measured) {
            Some(t) => {
                if t.total_cg_iterations != ENGINE_DEFAULT_ITERATIONS {
                    out.push(format!(
                        "200-step engine transient took {} CG iterations, pinned at \
                         {ENGINE_DEFAULT_ITERATIONS}",
                        t.total_cg_iterations
                    ));
                }
                let (end, seed) =
                    (format!("{:.4}", t.final_hottest_c), format!("{SEED_FINAL_HOTTEST_C:.4}"));
                if end != seed {
                    out.push(format!(
                        "200-step engine transient ends at {end} C, the seed path at {seed} C"
                    ));
                }
            }
            None => out.push("no measured engine transient row".to_string()),
        }
    }
    let halves = [
        ("tiny", &r.steady, "ic0", "jacobi"),
        ("tiny", &r.steady, "multigrid", "ic0"),
        ("fast", &r.steady_fast.rows, "multigrid", "ic0"),
    ];
    for (label, rows, better, worse) in halves {
        if let (Some(b), Some(w)) = (cold_iterations(rows, better), cold_iterations(rows, worse)) {
            if 2 * b > w {
                out.push(format!(
                    "{label} {better} took {b} cold iterations, more than half of {worse}'s {w}"
                ));
            }
        }
    }
    let c = &r.engine_cache;
    if !c.warm_hit {
        out.push("warm engine-cache probe rebuilt instead of restoring".to_string());
    }
    if c.threads >= 2 && !(c.restore_speedup >= 2.0) {
        out.push(format!("engine-cache restore speedup {:.2}x < 2x", c.restore_speedup));
    }
    // The paper row carries no stamp of its own; it ran on the same
    // workers as the engine-cache section.
    if let Some(p) = &r.paper {
        if c.threads >= 2 && !(p.restore_speedup >= 2.0) {
            out.push(format!("paper-scale restore speedup {:.2}x < 2x", p.restore_speedup));
        }
    }
    let d = &r.dse_batch;
    if d.threads >= 2 && !(d.throughput_ratio >= 3.0) {
        out.push(format!(
            "batched DSE throughput {:.2}x < 3x over {} points",
            d.throughput_ratio, d.points
        ));
    }
    out
}

/// Runs `section` under a `perf` trace span named `name` and appends its
/// wall clock to `phases`.
fn phase<T>(phases: &mut Vec<Phase>, name: &'static str, section: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let span = vcsel_telemetry::global().span("perf", name);
    let out = section();
    drop(span);
    phases.push(Phase { phase: name.to_string(), wall_ms: t.elapsed().as_secs_f64() * 1e3 });
    out
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

    let threads = hardware_threads();
    let record = EngineCacheRecord {
        unknowns,
        threads,
        mode: "readwrite".to_string(),
        cold_setup_ms,
        warm_setup_ms,
        restore_speedup: cold_setup_ms / warm_setup_ms,
        warm_hit: warm_outcome.is_hit(),
        speedup_assertion: assertion_stamp(threads),
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
            preconditioner: name.to_string(),
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

/// The full-die `Fidelity::Paper` steady solve through the multigrid
/// engine, then the engine-artifact round trip.
fn paper_section() -> PaperRecord {
    let config = SccConfig {
        p_vcsel: Watts::from_milliwatts(4.0),
        fidelity: Fidelity::Paper,
        ..SccConfig::default()
    };
    let system = SccSystem::build(&config).expect("paper SCC builds");
    let spec = system.mesh_spec().expect("mesh spec");
    // One blueprint serves the build and the artifact round trip, so the
    // 2.6 M-cell mesh is built once; `setup_s` times mesh + assembly +
    // factorization, as `SolveContext::new` does.
    let setup = Instant::now();
    let blueprint = EngineBlueprint::new(system.design(), &spec).expect("paper blueprint meshes");
    let mut ctx = blueprint.build().expect("paper-scale context builds");
    let setup_s = setup.elapsed().as_secs_f64();
    assert_eq!(ctx.preconditioner_name(), "multigrid", "paper scale must default to multigrid");
    // The shared-operator contract at the scale where it matters: the
    // hierarchy's finest level must alias the engine's ~230 MB operator,
    // not hold a second copy of it.
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
    // The engine-cache story at the scale where it pays most: restore the
    // factored hierarchy from its artifact with zero factorizations. The
    // artifact is written while the live engine is held, and the live
    // engine is dropped before the restore, so the round trip peaks at
    // one engine + one artifact.
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
        restore_speedup: setup_s / restore_s,
        fine_operator_mb,
        fine_operator_copies: 1,
        // Before the operator was shared, the engine, the finest
        // multigrid level and that level's smoother each held a copy.
        shared_operator_savings_mb: 2.0 * fine_operator_mb,
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
        record.restore_speedup,
        record.fine_operator_mb,
        mb(record.peak_rss_mb),
        mb(record.artifact_peak_rss_mb),
    );
    vcsel_telemetry::global().rss_snapshot("perf", "paper_peak_rss");
    record
}

/// `steps` backward-Euler steps on the engine path, every group at full
/// power.
fn transient_section(design: &Design, spec: &MeshSpec, steps: usize) -> TransientRecord {
    let scales: Vec<(&str, f64)> = design.group_names().into_iter().map(|g| (g, 1.0)).collect();
    let mut stepper = TransientStepper::new(design, spec, Celsius::new(40.0), TRANSIENT_DT_S)
        .expect("stepper builds");
    let t = Instant::now();
    for _ in 0..steps {
        stepper.step(&scales).expect("step solves");
    }
    let wall_s = t.elapsed().as_secs_f64();
    TransientRecord {
        path: "engine_ic0_warm".to_string(),
        measured: true,
        threads: hardware_threads(),
        wall_s,
        steps_per_s: steps as f64 / wall_s,
        total_cg_iterations: stepper.total_iterations(),
        final_hottest_c: stepper.snapshot().hottest().1.value(),
    }
}

/// A `points`-point power sweep solved point by point, then through one
/// shared response basis; the two must agree on every point's hottest
/// cell.
fn dse_section(design: &Design, spec: &MeshSpec, unknowns: usize, points: usize) -> DseBatchRecord {
    let groups = design.group_names();
    // Every point paints all power groups at the same scale; the spread
    // is wide enough that warm starts cannot make the sequential loop
    // trivially cheap.
    let paintings: Vec<Vec<(&str, f64)>> = (0..points)
        .map(|i| 0.25 + 2.75 * i as f64 / (points.max(2) - 1) as f64)
        .map(|s| groups.iter().map(|&g| (g, s)).collect())
        .collect();

    let mut seq_ctx = SolveContext::new(design, spec).expect("sequential DSE context");
    let seq_t = Instant::now();
    let seq_hot: Vec<f64> = paintings
        .iter()
        .map(|p| seq_ctx.solve_scaled(p).expect("sequential point solves").hottest().1.value())
        .collect();
    let sequential_s = seq_t.elapsed().as_secs_f64();

    let mut batch_ctx = SolveContext::new(design, spec).expect("batched DSE context");
    let batch_t = Instant::now();
    let basis = ResponseBasis::build_on(&mut batch_ctx).expect("batched basis builds");
    let batch_hot: Vec<f64> = paintings
        .iter()
        .map(|p| basis.compose(p).expect("point composes").hottest().1.value())
        .collect();
    let batched_s = batch_t.elapsed().as_secs_f64();

    for (i, (a, b)) in seq_hot.iter().zip(&batch_hot).enumerate() {
        assert!((a - b).abs() < 1e-5, "DSE point {i}: sequential hottest {a} vs batched {b}");
    }
    let threads = hardware_threads();
    let record = DseBatchRecord {
        points,
        unknowns,
        threads,
        sequential_s,
        batched_s,
        throughput_ratio: sequential_s / batched_s,
        ratio_assertion: assertion_stamp(threads),
    };
    println!(
        "[dse_batch] {} points on {} unknowns: sequential {:.3} s, batched {:.3} s \
         ({:.1}x throughput, {} threads)",
        record.points,
        record.unknowns,
        record.sequential_s,
        record.batched_s,
        record.throughput_ratio,
        record.threads,
    );
    record
}

/// Runs every section of `plan` under the root trace span.
fn run(plan: &Plan) -> BenchRecord {
    let _root = vcsel_telemetry::global().span("report", "perf_record");
    let mut phases = Vec::new();

    let config = SccConfig { p_vcsel: Watts::from_milliwatts(4.0), ..SccConfig::tiny_test() };
    let (system, spec, (unknowns, steady)) = phase(&mut phases, "steady_tiny", || {
        let system = SccSystem::build(&config).expect("tiny SCC builds");
        let spec = system.mesh_spec().expect("mesh spec");
        let kinds = [
            ("jacobi", PreconditionerKind::Jacobi),
            ("ic0", PreconditionerKind::IncompleteCholesky),
            ("multigrid", PreconditionerKind::Multigrid),
        ];
        let rows = steady_section("tiny", system.design(), &spec, &kinds, STEADY_REPS);
        (system, spec, rows)
    });
    let design = system.design();

    // The full-die fast system lives only for its two sections.
    let (steady_fast, engine_cache) = {
        let config = SccConfig {
            p_vcsel: Watts::from_milliwatts(4.0),
            fidelity: Fidelity::Fast,
            ..SccConfig::default()
        };
        let (system, spec, steady_fast) = phase(&mut phases, "steady_fast", || {
            let system = SccSystem::build(&config).expect("fast SCC builds");
            let spec = system.mesh_spec().expect("mesh spec");
            let (unknowns, rows) =
                steady_section("fast", system.design(), &spec, plan.fast_kinds, FAST_REPS);
            (system, spec, SteadyFast { unknowns, rows })
        });
        let engine_cache =
            phase(&mut phases, "engine_cache", || engine_cache_section(&config, &system, &spec));
        (steady_fast, engine_cache)
    };

    let paper = plan.paper.then(|| phase(&mut phases, "paper", paper_section));

    let engine = phase(&mut phases, "transient", || transient_section(design, &spec, plan.steps));
    vcsel_telemetry::global().rss_snapshot("perf", "final_peak_rss");
    let transient = TransientSection {
        steps: plan.steps,
        dt_s: TRANSIENT_DT_S,
        paths: vec![seed_jacobi_cold(), engine],
    };
    for t in &transient.paths {
        let source = if t.measured { "" } else { " (frozen v11 row, not measured)" };
        println!(
            "[transient] {:>28}: {:>6.2} s ({:>7.1} steps/s, {} CG iterations){source}",
            t.path, t.wall_s, t.steps_per_s, t.total_cg_iterations
        );
    }

    let dse_batch =
        phase(&mut phases, "dse_batch", || dse_section(design, &spec, unknowns, plan.dse_points));

    BenchRecord {
        schema: "bench_solvers_v13".to_string(),
        generated_by: "perf_record".to_string(),
        workload: "SccConfig tiny_test + full-die Fast, p_vcsel = 4 mW".to_string(),
        unknowns,
        ic0_vs_jacobi_cold_iteration_ratio: iteration_ratio(&steady, "ic0", "jacobi")
            .expect("the tiny rows include IC(0) and Jacobi"),
        steady,
        multigrid_vs_ic0_fast_cold_iteration_ratio: iteration_ratio(
            &steady_fast.rows,
            "multigrid",
            "ic0",
        ),
        steady_fast,
        engine_cache,
        dse_batch,
        paper,
        phases,
        transient,
    }
}

fn main() {
    let plan = Plan::from_env().unwrap_or_else(|e| {
        eprintln!("perf_record: {e}");
        std::process::exit(2)
    });
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_solvers.json".to_string());
    // The root span must drop before the trace flushes, hence `run`;
    // `finish_global` is a no-op unless VCSEL_TRACE=full.
    let record = run(&plan);
    vcsel_telemetry::finish_global("perf_record");
    let json = serde_json::to_string_pretty(&record).expect("the record serializes");
    std::fs::write(&out_path, json + "\n").expect("write bench record");
    println!("[perf_record] wrote {out_path}");
    let missed = violations(&record);
    assert!(missed.is_empty(), "bench bars missed:\n{}", missed.join("\n"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_record_meets_every_bar_and_each_bar_flags_its_own_miss() {
        let committed: BenchRecord =
            serde_json::from_str(include_str!("../../../../BENCH_solvers.json"))
                .expect("the committed record parses");

        // Each mutation of the committed record and the one violation it
        // must raise ("" for none); every mutated record round-trips.
        type Case = (fn(&mut BenchRecord), &'static str);
        let cases: [Case; 12] = [
            (|_| {}, ""),
            (|r| r.transient.paths[1].total_cg_iterations = 17_876, "took 17876 CG iterations"),
            (|r| r.transient.paths[1].final_hottest_c = 60.8275, "ends at 60.8275 C"),
            // CI's smoke shape: 20 steps, no fast IC(0) row, no paper row.
            (
                |r| {
                    r.transient.steps = 20;
                    r.transient.paths[1].total_cg_iterations = 1_936;
                    r.steady_fast.rows.remove(0);
                    r.multigrid_vs_ic0_fast_cold_iteration_ratio = None;
                    r.paper = None;
                },
                "",
            ),
            (|r| r.steady[1].cold_iterations = 1_062, "tiny ic0 took 1062"),
            (|r| r.steady[2].cold_iterations = 111, "tiny multigrid took 111"),
            (|r| r.steady_fast.rows[1].cold_iterations = 199, "fast multigrid took 199"),
            (|r| r.engine_cache.warm_hit = false, "rebuilt instead of restoring"),
            (|r| r.engine_cache.restore_speedup = 1.9, "engine-cache restore speedup 1.90x"),
            (
                |r| r.paper.as_mut().expect("paper row").restore_speedup = 1.9,
                "paper-scale restore speedup 1.90x",
            ),
            (|r| r.dse_batch.throughput_ratio = 2.9, "batched DSE throughput 2.90x"),
            (
                |r| {
                    r.dse_batch.threads = 1;
                    r.dse_batch.throughput_ratio = 2.9;
                },
                "",
            ),
        ];
        for (i, (mutate, expected)) in cases.into_iter().enumerate() {
            let mut record = committed.clone();
            mutate(&mut record);
            let text = serde_json::to_string_pretty(&record).expect("the record serializes");
            let parsed: BenchRecord = serde_json::from_str(&text).expect("the record re-parses");
            assert_eq!(parsed, record, "case {i}");
            let found = violations(&record);
            if expected.is_empty() {
                assert!(found.is_empty(), "case {i}: {found:?}");
            } else {
                assert!(found.len() == 1 && found[0].contains(expected), "case {i}: {found:?}");
            }
        }
    }
}
