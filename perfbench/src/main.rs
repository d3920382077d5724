//! Workload runner of the repository benchmark. `perfbench/run.py` drives
//! it; each phase of a measurement is its own process:
//!
//! ```text
//! perfbench setup <workload>
//! perfbench run   <workload> --seed N --seconds S
//! ```
//!
//! `setup` builds every solve engine the workload uses, several times, through
//! the public blueprint pipeline (`EngineBlueprint::new` → `build` →
//! `engine_artifact` → `CacheStore::store`, the key removed first) into
//! `reports/cache/` under the working directory, and times each layer.
//! `run` executes the workload until `S` seconds have passed (at least
//! once), timing every call into the library from outside, and checks the
//! outputs. The caller sets `VCSEL_CACHE=read`, so the timed region
//! restores the engines `setup` stored. With `VCSEL_TRACE=full` the run
//! also wraps each call in a span and reduces the drained trace to
//! per-layer numbers.
//!
//! Both commands print one JSON object as the last line of stdout.

use std::error::Error;
use std::fmt::Write as _;
use std::time::Instant;

use vcsel_arch::{Activity, Fidelity, PlacementCase, SccConfig, SccSystem};
use vcsel_core::experiments::{figure10, figure9a, figure9b};
use vcsel_core::scenarios::{
    find_scenario, per_oni_design, run_scenario, scenario_config, DEFAULT_SEED,
};
use vcsel_core::{CacheStore, DesignFlow, EngineCache, ThermalOutcome, ThermalStudy};
use vcsel_telemetry::{EventKind, TraceData};
use vcsel_thermal::{EngineBlueprint, TransientStepper};
use vcsel_units::{Meters, Watts};

type Res<T> = Result<T, Box<dyn Error>>;

/// The paper's Fig. 9/10 axes, as the figure binaries use them.
const FIG_P_VCSEL_MW: [f64; 7] = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
const FIG_P_CHIP_W: [f64; 4] = [12.5, 18.75, 25.0, 31.25];
const FIG_PV_FAMILY_MW: [f64; 4] = [1.0, 2.0, 4.0, 6.0];
const FIG_PH_AXIS_MW: [f64; 9] = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0];
/// Seeded operating points evaluated after the figures.
const SEEDED_POINTS: usize = 64;
/// The paper's operating point (P_VCSEL, P_heater = 0.3 × P_VCSEL).
const OP_VCSEL_MW: f64 = 3.6;
const OP_HEATER_MW: f64 = 1.08;
/// Ring perimeters of the placement sweep, mm.
const SWEEP_PERIMETERS_MM: [f64; 2] = [6.0, 14.0];
/// The scenario the runtime workload replays.
const SCENARIO: &str = "hot-channel-death";
/// Activity seed of the reconfigured sweep studies (Figure 12's random
/// pattern), fixed so their outputs have a committed reference.
const SWEEP_ACTIVITY_SEED: u64 = 42;
/// Chip power of the tiny 4-ONI sweep system, W.
const SWEEP_CHIP_W: f64 = 2.0;

/// Set-up repetitions: at least the minimum, then more until the time or
/// the maximum runs out, so the median of cheap set-ups rests on more
/// samples.
const MIN_SETUP_REPS: usize = 5;
const MAX_SETUP_REPS: usize = 15;
const SETUP_SECONDS: f64 = 3.0;

/// Layer spans the benchmark opens around its calls: `(layer, span)`.
const LAYER_SPANS: [(&str, &str); 6] = [
    ("core", "study_new"),
    ("core", "reconfigure"),
    ("core", "figures"),
    ("core", "evaluate"),
    ("core", "scenario"),
    ("network", "snr"),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = dispatch(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn dispatch(args: &[String]) -> Res<()> {
    let (command, workload) = match args {
        [c, w, ..] => (c.as_str(), w.as_str()),
        _ => return Err("usage: perfbench <setup|run> <workload> [options]".into()),
    };
    let option = |name: &str| -> Res<Option<u64>> {
        match args.iter().position(|a| a == name) {
            Some(i) => {
                let v = args.get(i + 1).ok_or_else(|| format!("{name} needs a value"))?;
                Ok(Some(v.parse().map_err(|_| format!("{name}: not a number: {v}"))?))
            }
            None => Ok(None),
        }
    };
    let report = match command {
        "setup" => setup(workload)?,
        "run" => {
            let seed = option("--seed")?.ok_or("run needs --seed")?;
            let seconds = option("--seconds")?.unwrap_or(0) as f64;
            run(workload, seed, seconds)?
        }
        other => return Err(format!("unknown command '{other}'").into()),
    };
    println!("{}", report.to_json());
    Ok(())
}

// --- results ---------------------------------------------------------------

/// What one process reports: named numbers, the outputs the caller checks
/// against the committed reference, and the operation tally.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64)>,
    outputs: Vec<(String, f64)>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Counts one checked operation; a failed one keeps its reason.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    fn to_json(&self) -> String {
        let numbers = |pairs: &[(String, f64)]| {
            let body: Vec<String> = pairs
                .iter()
                .map(|(k, v)| {
                    // `+ 0.0` turns the -0.0 of an empty sum into 0.0.
                    let v = if v.is_finite() { format!("{:?}", v + 0.0) } else { "null".into() };
                    format!("{}:{v}", json_string(k))
                })
                .collect();
            format!("{{{}}}", body.join(","))
        };
        let notes: Vec<String> = self.notes.iter().map(|n| json_string(n)).collect();
        format!(
            "{{\"metrics\":{},\"outputs\":{},\"attempted\":{},\"failed\":{},\"notes\":[{}]}}",
            numbers(&self.metrics),
            numbers(&self.outputs),
            self.attempted,
            self.failed,
            notes.join(",")
        )
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        0.5 * (values[mid - 1] + values[mid])
    }
}

/// Seconds spent in `f`, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// `splitmix64`: the seeded input generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[lo, hi)`.
fn uniform(state: &mut u64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

// --- workloads ---------------------------------------------------------------

fn figures_config() -> SccConfig {
    SccConfig { fidelity: Fidelity::Fast, ..SccConfig::default() }
}

fn sweep_config(perimeter_mm: f64, activity: Activity) -> SccConfig {
    SccConfig {
        placement: PlacementCase::Custom { perimeter: Meters::from_millimeters(perimeter_mm) },
        oni_count: 4,
        activity,
        ..SccConfig::tiny_test()
    }
}

/// The engine configurations a workload restores from the cache.
fn engine_configs(workload: &str) -> Res<Vec<SccConfig>> {
    match workload {
        "figures_fast" => Ok(vec![figures_config()]),
        "placement_sweep_tiny" => {
            Ok(SWEEP_PERIMETERS_MM.iter().map(|&p| sweep_config(p, Activity::Uniform)).collect())
        }
        // `run_scenario` builds its transient plant itself; there is no
        // steady engine to cache.
        "runtime_scenario" => Ok(Vec::new()),
        other => Err(format!("unknown workload '{other}'").into()),
    }
}

// --- setup -------------------------------------------------------------------

/// Seconds of one engine construction per layer, and the artifact size.
#[derive(Default)]
struct Build {
    system_s: f64,
    mesh_s: f64,
    engine_s: f64,
    store_s: f64,
    artifact_bytes: usize,
}

/// Builds the steady engine of `config` through the blueprint pipeline and
/// stores its artifact where `ThermalStudy::new` looks it up.
fn build_and_store(config: &SccConfig, store: &CacheStore) -> Res<Build> {
    // Studies build their engine from a reference system whose device
    // powers are all non-zero, so every device block is meshed.
    let reference = SccConfig {
        p_vcsel: Watts::from_milliwatts(1.0),
        p_driver: Some(Watts::from_milliwatts(1.0)),
        p_heater: Watts::from_milliwatts(1.0),
        ..config.clone()
    };
    let (system, system_s) = timed(|| SccSystem::build(&reference));
    let system = system?;
    let (blueprint, mesh_s) = timed(|| -> Res<EngineBlueprint> {
        Ok(EngineBlueprint::new(system.design(), &system.mesh_spec()?)?)
    });
    let blueprint = blueprint?;
    let (ctx, engine_s) = timed(|| blueprint.build());
    let ctx = ctx?;
    let key = EngineCache::key(config, blueprint.content_hash());
    match std::fs::remove_file(store.path(&key)) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
        _ => {}
    }
    let (stored, store_s) = timed(|| -> Res<usize> {
        let bytes = blueprint.engine_artifact(&ctx).ok_or("engine is not cacheable")?;
        store.store(&key, &bytes)?;
        Ok(bytes.len())
    });
    Ok(Build { system_s, mesh_s, engine_s, store_s, artifact_bytes: stored? })
}

/// Replays the plant construction `run_scenario` times as its `setup_ms`:
/// system build, per-ONI regrouping, meshing, assembly and factorization.
fn build_scenario_plant() -> Res<Build> {
    let scenario = find_scenario(SCENARIO)?;
    let config = scenario_config();
    let (system, system_s) = timed(|| SccSystem::build(&config));
    let system = system?;
    let (parts, mesh_s) =
        timed(|| -> Res<_> { Ok((per_oni_design(&system), system.mesh_spec()?)) });
    let (design, spec) = parts?;
    let (stepper, engine_s) =
        timed(|| TransientStepper::new(&design, &spec, config.ambient, scenario.dt_s));
    stepper?;
    Ok(Build { system_s, mesh_s, engine_s, ..Build::default() })
}

/// Builds (and stores) every engine of `workload` at least
/// `MIN_SETUP_REPS` times, and more while cheap set-ups stay within
/// `SETUP_SECONDS`, and reports the median of each layer's time.
fn setup(workload: &str) -> Res<Report> {
    let configs = engine_configs(workload)?;
    let store = CacheStore::new(vcsel_core::cache::DEFAULT_CACHE_DIR);
    let mut columns: [Vec<f64>; 5] = Default::default();
    let mut artifact_bytes = 0;
    let start = Instant::now();
    let mut reps = 0;
    while reps < MIN_SETUP_REPS
        || (reps < MAX_SETUP_REPS && start.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        reps += 1;
        let builds = if workload == "runtime_scenario" {
            vec![build_scenario_plant()?]
        } else {
            configs.iter().map(|c| build_and_store(c, &store)).collect::<Res<Vec<_>>>()?
        };
        let layers = |f: fn(&Build) -> f64| builds.iter().map(f).sum::<f64>();
        let rep = [
            layers(|b| b.system_s),
            layers(|b| b.mesh_s),
            layers(|b| b.engine_s),
            layers(|b| b.store_s),
        ];
        for (column, t) in columns.iter_mut().zip(rep) {
            column.push(t);
        }
        columns[4].push(rep.iter().sum());
        artifact_bytes = builds.iter().map(|b| b.artifact_bytes).sum();
    }
    let mut report = Report::default();
    let names =
        ["arch.system_build_s", "thermal.mesh_s", "thermal.engine_build_s", "thermal.store_s"];
    for (name, column) in names.iter().zip(columns.iter_mut()) {
        report.metric(name, median(column));
    }
    report.metric("setup_s", median(&mut columns[4]));
    report.metric("thermal.artifact_mb", artifact_bytes as f64 / (1024.0 * 1024.0));
    Ok(report)
}

// --- timed run ---------------------------------------------------------------

/// Per-iteration accumulator: named seconds and counts, summed over calls.
#[derive(Default)]
struct Tally(Vec<(String, f64)>);

impl Tally {
    fn add(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    /// Times `f` under a `layer/span` trace span and adds the seconds to
    /// `<layer>.<span>_s`.
    fn call<T>(&mut self, layer: &'static str, span: &'static str, f: impl FnOnce() -> T) -> T {
        let _guard = vcsel_telemetry::global().span(layer, span);
        let (value, seconds) = timed(f);
        self.add(&format!("{layer}.{span}_s"), seconds);
        value
    }
}

fn run(workload: &str, seed: u64, seconds: f64) -> Res<Report> {
    let flow = DesignFlow::paper();
    let hits_before = vcsel_core::cache::cache_hits();
    let mut report = Report::default();
    let mut walls = Vec::new();
    let mut tallies: Vec<Tally> = Vec::new();
    let start = Instant::now();
    let mut last = None;
    while walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut tally = Tally::default();
        let iteration = Instant::now();
        let outputs = match workload {
            "figures_fast" => figures_fast(&flow, seed, &mut tally, &mut report)?,
            "runtime_scenario" => runtime_scenario(seed, &mut tally, &mut report)?,
            "placement_sweep_tiny" => placement_sweep(&flow, seed, &mut tally, &mut report)?,
            other => return Err(format!("unknown workload '{other}'").into()),
        };
        walls.push(iteration.elapsed().as_secs_f64());
        tallies.push(tally);
        last = Some(outputs);
    }
    let iterations = walls.len();
    report.metric("wall_s", median(&mut walls));
    // Per-layer numbers: the median over iterations of each tally entry.
    if let Some(first) = tallies.first() {
        for (name, _) in &first.0 {
            let mut values: Vec<f64> = tallies
                .iter()
                .map(|t| t.0.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v))
                .collect();
            report.metric(name, median(&mut values));
        }
    }
    let expected_hits = (engine_configs(workload)?.len() * iterations) as u64;
    let hits = vcsel_core::cache::cache_hits() - hits_before;
    report.check(hits == expected_hits, || {
        format!("engine cache served {hits} of {expected_hits} studies")
    });

    let sink = vcsel_telemetry::global();
    if sink.is_enabled() {
        trace_metrics(&sink.drain(), &mut report);
    }
    report.outputs.extend(last.into_iter().flatten());
    report.metric("peak_rss_mb", vcsel_telemetry::peak_rss_mb().unwrap_or(f64::NAN));
    report.metric("threads", vcsel_numerics::hardware_threads() as f64);
    Ok(report)
}

type Outputs = Vec<(String, f64)>;

/// Evaluates one operating point and its SNR, timing each under its layer.
fn point(
    flow: &DesignFlow,
    study: &ThermalStudy,
    (p_vcsel, p_heater, p_chip): (Watts, Watts, Watts),
    tally: &mut Tally,
) -> Res<(ThermalOutcome, f64)> {
    let outcome = tally.call("core", "evaluate", || study.evaluate(p_vcsel, p_heater, p_chip))?;
    let snr =
        tally.call("network", "snr", || flow.evaluate_snr(study.system(), &outcome, p_vcsel))?;
    Ok((outcome, snr.worst_snr_db))
}

fn sane(outcome: &ThermalOutcome, snr_db: f64) -> bool {
    outcome.oni.iter().all(|o| o.average.value().is_finite() && o.gradient.value() >= 0.0)
        && outcome.worst_gradient().value().is_finite()
        && snr_db.is_finite()
}

fn figures_fast(
    flow: &DesignFlow,
    seed: u64,
    tally: &mut Tally,
    report: &mut Report,
) -> Res<Outputs> {
    let study = tally.call("core", "study_new", || flow.study(figures_config()))?;
    tally.add("numerics.cg_iterations", study.solver_iterations() as f64);

    let chip = Watts::new(12.5);
    let (a, b, c) = tally.call("core", "figures", || -> Res<_> {
        Ok((
            figure9a(&study, &FIG_P_VCSEL_MW, &FIG_P_CHIP_W)?,
            figure9b(&study, &FIG_PV_FAMILY_MW, &FIG_PH_AXIS_MW, chip)?,
            figure10(&study, &FIG_P_VCSEL_MW, 0.3, chip)?,
        ))
    })?;
    let mut out = vec![
        ("fig9a.chip_power_slope".to_string(), a.chip_power_slope()?),
        ("fig9a.vcsel_power_slope".to_string(), a.vcsel_power_slope()?),
    ];
    for (pv, ratio) in b.p_vcsel_mw.iter().zip(&b.optimal_ratio) {
        out.push((format!("fig9b.optimal_ratio@{pv}mW"), *ratio));
    }
    for (i, pv) in c.p_vcsel_mw.iter().enumerate() {
        out.push((format!("fig10.gradient_without_c@{pv}mW"), c.gradient_without_c[i]));
        out.push((format!("fig10.gradient_with_c@{pv}mW"), c.gradient_with_c[i]));
    }

    let mut state = seed;
    for k in 0..SEEDED_POINTS {
        let pv = uniform(&mut state, 2.0, 6.0);
        let ratio = uniform(&mut state, 0.0, 0.6);
        let pc = uniform(&mut state, 12.5, 31.25);
        let powers =
            (Watts::from_milliwatts(pv), Watts::from_milliwatts(pv * ratio), Watts::new(pc));
        let ok = match point(flow, &study, powers, tally) {
            Ok((outcome, snr)) => sane(&outcome, snr),
            Err(_) => false,
        };
        report.check(ok, || format!("seeded point {k} ({pv:.3} mW, {ratio:.3}, {pc:.3} W) failed"));
    }

    let op = (Watts::from_milliwatts(OP_VCSEL_MW), Watts::from_milliwatts(OP_HEATER_MW), chip);
    let (outcome, snr) = point(flow, &study, op, tally)?;
    out.push(("op.worst_snr_db".to_string(), snr));
    out.push(("op.worst_gradient_c".to_string(), outcome.worst_gradient().value()));
    Ok(out)
}

fn runtime_scenario(seed: u64, tally: &mut Tally, report: &mut Report) -> Res<Outputs> {
    let scenario = find_scenario(SCENARIO)?;
    let result = tally.call("core", "scenario", || run_scenario(&scenario, seed));
    let r = match result {
        Ok(r) => r,
        Err(e) => {
            report.check(false, || format!("scenario failed: {e}"));
            return Ok(Vec::new());
        }
    };
    tally.add("core.scenario_setup_s", r.setup_ms / 1e3);
    tally.add("thermal.step_s", r.step_ms / 1e3);
    tally.add("control.s", r.control_ms / 1e3);
    tally.add("numerics.cg_iterations", r.cg_iterations as f64);
    // The pins hold at the catalogue's seed only; other seeds move the
    // fault timing, so there the run must just converge to finite fields.
    if seed == DEFAULT_SEED {
        let violations = scenario.pins.check(&r);
        report.check(violations.is_empty(), || format!("pins violated: {}", violations.join("; ")));
    } else {
        let finite = [r.peak_c, r.final_peak_c, r.mean_final_c, r.worst_snr_db]
            .iter()
            .all(|v| v.is_finite());
        report.check(r.converged && finite, || {
            format!("seed {seed}: converged {} with finite fields {finite}", r.converged)
        });
    }
    Ok(Vec::new())
}

fn mw(value: f64) -> Watts {
    Watts::from_milliwatts(value)
}

/// The 6 × 6 P_VCSEL × P_heater grid of one sweep study: a fixed P_VCSEL
/// axis from 2 to 6 mW (below ~1.5 mW the hot tiny die leaves the VCSELs
/// dark) times six seeded heater ratios in [0, 0.6).
fn sweep_grid(seed: u64) -> Vec<(Watts, Watts, Watts)> {
    let mut state = seed;
    let ratios: Vec<f64> = (0..6).map(|_| uniform(&mut state, 0.0, 0.6)).collect();
    let chip = Watts::new(SWEEP_CHIP_W);
    (0..6)
        .flat_map(|i| {
            let pv = 2.0 + 0.8 * i as f64;
            ratios.iter().map(move |r| (mw(pv), mw(pv * r), chip))
        })
        .collect()
}

/// Evaluates the grid on `study` and returns its outputs at the paper's
/// operating point: the ONI averages and the worst SNR.
fn sweep_study(
    flow: &DesignFlow,
    study: &ThermalStudy,
    label: &str,
    seed: u64,
    tally: &mut Tally,
    report: &mut Report,
) -> Res<Outputs> {
    for (k, powers) in sweep_grid(seed).into_iter().enumerate() {
        let ok = point(flow, study, powers, tally).is_ok_and(|(o, snr)| sane(&o, snr));
        report.check(ok, || format!("{label}: grid point {k} failed"));
    }
    let op = (mw(OP_VCSEL_MW), mw(OP_HEATER_MW), Watts::new(SWEEP_CHIP_W));
    let (outcome, snr) = point(flow, study, op, tally)?;
    let mut out: Outputs = outcome
        .oni_averages()
        .iter()
        .enumerate()
        .map(|(i, t)| (format!("{label}.oni{i}_average_c"), t.value()))
        .collect();
    out.push((format!("{label}.worst_snr_db"), snr));
    Ok(out)
}

fn placement_sweep(
    flow: &DesignFlow,
    seed: u64,
    tally: &mut Tally,
    report: &mut Report,
) -> Res<Outputs> {
    let mut out = Vec::new();
    let random = Activity::Random { seed: SWEEP_ACTIVITY_SEED };
    for perimeter in SWEEP_PERIMETERS_MM {
        let study = tally
            .call("core", "study_new", || flow.study(sweep_config(perimeter, Activity::Uniform)))?;
        let cold = study.solver_iterations();
        tally.add("numerics.cg_iterations", cold as f64);
        let label = format!("uniform@{perimeter}mm");
        out.extend(sweep_study(flow, &study, &label, seed, tally, report)?);

        let study = tally.call("core", "reconfigure", || {
            study.reconfigured(sweep_config(perimeter, random), flow.simulator())
        })?;
        tally.add("numerics.warm_cg_iterations", (study.solver_iterations() - cold) as f64);
        let label = format!("random@{perimeter}mm");
        out.extend(sweep_study(flow, &study, &label, seed, tally, report)?);
    }
    Ok(out)
}

// --- trace reduction ---------------------------------------------------------

fn trace_metrics(data: &TraceData, report: &mut Report) {
    let spans: Vec<_> = data.events.iter().filter(|e| e.kind == EventKind::Span).collect();
    let total = |name: &str| -> f64 {
        spans.iter().filter(|e| e.name == name).map(|e| e.dur_ns as f64 * 1e-9).sum()
    };
    report.metric("core.cache_load_s", total("cache_load"));
    report.metric("thermal.batch_solve_s", total("batch_solve"));
    let mut steps: Vec<f64> = spans
        .iter()
        .filter(|e| e.name == "transient_step")
        .map(|e| e.dur_ns as f64 * 1e-9)
        .collect();
    steps.sort_by(f64::total_cmp);
    let quantile = |q: f64| -> f64 {
        if steps.is_empty() {
            0.0
        } else {
            steps[((q * steps.len() as f64).ceil() as usize).clamp(1, steps.len()) - 1]
        }
    };
    report.metric("thermal.transient_step_p50_s", quantile(0.5));
    report.metric("thermal.transient_step_p90_s", quantile(0.9));
    let sum = |f: fn(&vcsel_telemetry::SolveSample) -> u64| -> f64 {
        data.samples.iter().map(f).sum::<u64>() as f64
    };
    report.metric("numerics.spmv", sum(|s| s.spmv));
    report.metric("numerics.precond_applies", sum(|s| s.precond_applies));
    report.metric("numerics.vcycles", sum(|s| s.vcycles));
    report.metric("numerics.escalations", sum(|s| s.escalations));
    report.metric("telemetry.dropped_events", data.dropped as f64);

    // Self time of each layer span: its duration minus the part of it that
    // other spans on the same thread cover.
    for (layer, name) in LAYER_SPANS {
        let mut self_s = 0.0;
        for parent in spans.iter().filter(|e| e.cat == layer && e.name == name) {
            let (lo, hi) = (parent.start_ns, parent.start_ns + parent.dur_ns);
            let mut children: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| {
                    c.tid == parent.tid
                        && !std::ptr::eq(**c, *parent)
                        && c.start_ns >= lo
                        && c.start_ns + c.dur_ns <= hi
                })
                .map(|c| (c.start_ns, c.start_ns + c.dur_ns))
                .collect();
            children.sort_unstable();
            let (mut covered, mut reach) = (0u64, lo);
            for (s, e) in children {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            self_s += (parent.dur_ns - covered) as f64 * 1e-9;
        }
        report.metric(&format!("self.{layer}.{name}_s"), self_s);
    }
}
