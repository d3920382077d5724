//! Fault-injection scenario engine: deterministic fault plans driving a
//! transient co-simulation of the thermal plant, the solver ladder, and
//! the run-time counter-measures (channel remapping, DVFS throttling).
//!
//! The paper's methodology is a *design-time* flow; this module stresses
//! the same models at *run time*. A [`Scenario`] names a fault plan (VCSEL
//! bank death, heater bank stuck off, traffic storms, DVFS throttles,
//! sensor dropouts, solver faults), replays it step by step on a
//! [`TransientStepper`] whose power groups are split **per ONI** (so a
//! single ONI's lasers or heaters can die independently), and closes the
//! loop every few steps:
//!
//! * a proportional **DVFS** controller throttles chip power when the
//!   sensed peak exceeds the scenario's temperature limit (and restores it
//!   once the plant cools), mirroring the cubic `P ∝ f³` law of
//!   [`vcsel_control::dvfs_cap`],
//! * a **channel remap** ([`vcsel_control::remap_channels`]) evacuates
//!   wavelength channels lost to a VCSEL death and re-optimizes the
//!   assignment against the drifted temperature field,
//! * a **sensor dropout** makes the controller fly blind on the last good
//!   reading — the plant keeps evolving underneath it,
//! * an injected **solver fault** corrupts the active preconditioner; the
//!   step must recover through the [`SolveLadder`](vcsel_numerics::SolveLadder)
//!   escalation rather than panic or silently return garbage.
//!
//! Every scenario in [`catalogue`] emits a [`ScenarioReport`] with
//! regression-pinned metrics ([`MetricPins`], asserted at the default
//! seed) so CI catches both physics and robustness regressions.

use serde::{Deserialize, Serialize};
use vcsel_arch::{Fidelity, PlacementCase, SccConfig, SccFloorplan, SccSystem};
use vcsel_control::{remap_channels, RemapConfig, RemapResult};
use vcsel_network::{assign_channels, traffic, OniId, SnrAnalyzer, WavelengthGrid};
use vcsel_numerics::solver::SolveOptions;
use vcsel_telemetry::{Arg, ArgValue, TelemetrySink};
use vcsel_thermal::{Design, TransientStepper};
use vcsel_units::{Celsius, Meters, Watts};

use crate::FlowError;

/// The seed the catalogue's [`MetricPins`] are measured at. Other seeds
/// jitter the fault timing (and are exercised for robustness, not pins).
pub const DEFAULT_SEED: u64 = 7;

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The VCSEL bank of one ONI stops lasing (and dissipating): its
    /// outgoing wavelength channels go dark and must be evacuated.
    VcselDeath {
        /// Index of the failing ONI.
        oni: usize,
    },
    /// The microring heater bank of one ONI sticks off: its receivers
    /// drift cold and the remapper re-optimizes against the skewed field.
    HeaterStuckOff {
        /// Index of the failing ONI.
        oni: usize,
    },
    /// Chip activity jumps to `multiplier ×` its nominal power.
    TrafficBurst {
        /// New chip-power multiplier (1.0 = nominal).
        multiplier: f64,
    },
    /// An external governor clamps the DVFS power scale at most `scale`.
    DvfsThrottle {
        /// Upper bound imposed on the chip power scale, in `(0, 1]`.
        scale: f64,
    },
    /// The temperature sensors freeze for `steps` steps: the controller
    /// holds the last good reading while the plant keeps moving.
    SensorDropout {
        /// Number of steps without fresh readings.
        steps: usize,
    },
    /// Corrupts the active preconditioner of the thermal solver; the next
    /// step must recover through the solve ladder.
    SolverFault,
}

impl FaultKind {
    /// Stable label for telemetry events and logs.
    pub fn label(&self) -> &'static str {
        match self {
            Self::VcselDeath { .. } => "vcsel_death",
            Self::HeaterStuckOff { .. } => "heater_stuck_off",
            Self::TrafficBurst { .. } => "traffic_burst",
            Self::DvfsThrottle { .. } => "dvfs_throttle",
            Self::SensorDropout { .. } => "sensor_dropout",
            Self::SolverFault => "solver_fault",
        }
    }
}

/// A fault scheduled at a simulation step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// 1-based step the fault fires at (before the step is taken).
    pub at_step: usize,
    /// What breaks.
    pub kind: FaultKind,
}

/// `splitmix64` — the standard 64-bit mixer; deterministic, dependency-free.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded, sorted fault schedule. The seed deterministically jitters
/// each event by ±1 step, so different seeds explore slightly different
/// interleavings of fault and control action while any single seed stays
/// perfectly reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    seed: u64,
}

impl FaultPlan {
    /// Builds the plan: jitters every event's step by −1/0/+1 (seeded,
    /// clamped to step ≥ 1) and sorts by firing step.
    pub fn new(mut events: Vec<FaultEvent>, seed: u64) -> Self {
        let mut state = seed ^ 0xA076_1D64_78BD_642F;
        for e in &mut events {
            let jitter = (splitmix64(&mut state) % 3) as i64 - 1;
            e.at_step = e.at_step.saturating_add_signed(jitter as isize).max(1);
        }
        events.sort_by_key(|e| e.at_step);
        Self { events, seed }
    }

    /// The seed the jitter was drawn from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The jittered, sorted schedule.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Faults firing exactly at `step`.
    fn due(&self, step: usize) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(move |e| e.at_step == step)
    }
}

/// Traffic pattern a scenario runs on the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficPattern {
    /// Each ONI sends to its clockwise neighbor.
    RingNeighbors,
    /// Every ordered pair communicates (worst-case wavelength demand).
    AllToAll,
    /// Every ONI sends to one hot node.
    Hotspot {
        /// Index of the convergecast target.
        hot: usize,
    },
}

impl TrafficPattern {
    /// The communication pairs for an `n`-ONI ring.
    pub fn pairs(&self, n: usize) -> Vec<(OniId, OniId)> {
        match *self {
            Self::RingNeighbors => traffic::ring_neighbors(n),
            Self::AllToAll => traffic::all_to_all(n),
            Self::Hotspot { hot } => traffic::hotspot(n, OniId::new(hot)),
        }
    }
}

/// Regression pins checked against a [`ScenarioReport`] produced at
/// [`DEFAULT_SEED`]. Ranges are deliberately loose enough to survive
/// floating-point noise but tight enough to catch physics or control
/// regressions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricPins {
    /// Inclusive range the peak ONI temperature must land in, °C.
    pub peak_c: (f64, f64),
    /// Ceiling on total CG iterations across the run.
    pub max_cg_iterations: usize,
    /// Floor on the remap gain, dB (only checked when a remap ran).
    pub min_remap_gain_db: f64,
    /// Whether the scenario must have triggered a channel remap.
    pub require_remap: bool,
    /// Floor on solver-ladder escalations observed during the run.
    pub min_escalations: usize,
    /// Ceiling on steps spent above the scenario's temperature limit.
    pub max_over_limit_steps: usize,
    /// Whether the final peak must sit back at or below the limit.
    pub require_recovered: bool,
}

impl Default for MetricPins {
    fn default() -> Self {
        Self {
            peak_c: (40.0, 100.0),
            max_cg_iterations: usize::MAX,
            min_remap_gain_db: -0.5,
            require_remap: false,
            min_escalations: 0,
            max_over_limit_steps: usize::MAX,
            require_recovered: true,
        }
    }
}

impl MetricPins {
    /// Checks `report` against the pins; returns one human-readable line
    /// per violation (empty = all pins hold).
    pub fn check(&self, report: &ScenarioReport) -> Vec<String> {
        let mut violations = Vec::new();
        if !report.converged {
            violations.push("final solve did not converge".to_string());
        }
        let (lo, hi) = self.peak_c;
        if !(report.peak_c >= lo && report.peak_c <= hi) {
            violations
                .push(format!("peak {:.2} °C outside pinned [{lo:.2}, {hi:.2}]", report.peak_c));
        }
        if report.cg_iterations > self.max_cg_iterations {
            violations.push(format!(
                "{} CG iterations exceed the pinned ceiling {}",
                report.cg_iterations, self.max_cg_iterations
            ));
        }
        if self.require_remap && !report.remap_ran {
            violations.push("expected a channel remap, none ran".to_string());
        }
        if report.remap_ran && report.remap_gain_db < self.min_remap_gain_db {
            violations.push(format!(
                "remap gain {:.2} dB below pinned floor {:.2} dB",
                report.remap_gain_db, self.min_remap_gain_db
            ));
        }
        if report.solver_escalations < self.min_escalations {
            violations.push(format!(
                "{} ladder escalations below pinned floor {}",
                report.solver_escalations, self.min_escalations
            ));
        }
        if report.over_limit_steps > self.max_over_limit_steps {
            violations.push(format!(
                "{} steps over the limit exceed the pinned ceiling {}",
                report.over_limit_steps, self.max_over_limit_steps
            ));
        }
        if self.require_recovered && !report.recovered {
            violations.push(format!(
                "final peak {:.2} °C never recovered below the limit",
                report.final_peak_c
            ));
        }
        violations
    }
}

/// A named fault-injection scenario: a plant configuration, a traffic
/// pattern, a fault schedule, and the pins its report must satisfy.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Stable identifier (report key, CLI selector).
    pub name: &'static str,
    /// One-line description of what the scenario stresses.
    pub description: &'static str,
    /// Number of transient steps.
    pub steps: usize,
    /// Step size, seconds.
    pub dt_s: f64,
    /// Control-loop period, steps.
    pub control_period: usize,
    /// Temperature limit the DVFS controller defends.
    pub temp_limit: Celsius,
    /// Traffic pattern on the ring.
    pub traffic: TrafficPattern,
    /// Fault schedule (pre-jitter).
    pub events: Vec<FaultEvent>,
    /// Regression pins at [`DEFAULT_SEED`].
    pub pins: MetricPins,
}

/// Summary metrics of one scenario run — serialized under
/// `reports/scenarios/` and pinned by [`MetricPins`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Seed the fault plan was jittered with.
    pub seed: u64,
    /// Steps actually integrated.
    pub steps: usize,
    /// Step size, seconds.
    pub dt_s: f64,
    /// Highest ONI probe temperature seen at any step, °C.
    pub peak_c: f64,
    /// Highest ONI probe temperature at the final step, °C.
    pub final_peak_c: f64,
    /// Mean ONI probe temperature at the final step, °C.
    pub mean_final_c: f64,
    /// Steps whose true (not sensed) peak exceeded the limit.
    pub over_limit_steps: usize,
    /// Whether the final peak sits at or below the limit.
    pub recovered: bool,
    /// Whether a channel remap ran.
    pub remap_ran: bool,
    /// Worst-case SNR gain of the remap, dB (0 when none ran).
    pub remap_gain_db: f64,
    /// Move/swap count of the remap search.
    pub remap_moves: usize,
    /// Communications force-evacuated off dead channels.
    pub evacuated: usize,
    /// Lowest chip power scale the DVFS loop reached.
    pub min_dvfs_scale: f64,
    /// Equivalent frequency scale under `P ∝ f³`.
    pub min_frequency_scale: f64,
    /// CG iterations summed over every step.
    pub cg_iterations: usize,
    /// Solver-ladder escalations observed (fault recoveries).
    pub solver_escalations: usize,
    /// Whether the last step's solve converged (always true on `Ok`).
    pub converged: bool,
    /// Worst-case SNR of the final assignment on the final field, dB.
    pub worst_snr_db: f64,
    /// Wall-clock milliseconds of plant setup (mesh, assembly, painting,
    /// preconditioner factorization). Telemetry, never pinned.
    pub setup_ms: f64,
    /// Wall-clock milliseconds inside the transient steps (the solver
    /// ladder's CG work). Telemetry, never pinned.
    pub step_ms: f64,
    /// Wall-clock milliseconds in control actions (DVFS updates, channel
    /// remaps, SNR analysis). Telemetry, never pinned.
    pub control_ms: f64,
}

/// The 4-ONI reduced plant every scenario runs on: 2×2 tiles on an
/// 8 × 6 mm die, four ONIs on a 6 mm ring, tiny-fidelity mesh.
pub fn scenario_config() -> SccConfig {
    SccConfig {
        floorplan: SccFloorplan::reduced(
            2,
            2,
            Meters::from_millimeters(8.0),
            Meters::from_millimeters(6.0),
        ),
        placement: PlacementCase::Custom { perimeter: Meters::from_millimeters(6.0) },
        oni_count: 4,
        p_vcsel: Watts::from_milliwatts(2.0),
        p_heater: Watts::from_milliwatts(0.6),
        p_chip: Watts::new(2.0),
        fidelity: Fidelity::Tiny,
        ..SccConfig::default()
    }
}

/// Splits the system's global `vcsel` / `driver` / `heater` power groups
/// into per-ONI groups (`vcsel@0`, `heater@3`, …) so a fault plan can
/// kill one ONI's devices without touching its neighbors. The `chip`
/// group stays global (the DVFS knob).
pub fn per_oni_design(system: &SccSystem) -> Design {
    let mut design = system.design().clone();
    for b in design.blocks_mut() {
        let Some(group) = b.group().map(str::to_owned) else { continue };
        if !matches!(group.as_str(), "vcsel" | "driver" | "heater") {
            continue;
        }
        let Some(idx) = oni_index_of(b.name()) else { continue };
        *b = b.clone().with_group(format!("{group}@{idx}"));
    }
    design
}

/// Parses the ONI index out of a device-block name like
/// `vcsel@oni3[1,2]`.
fn oni_index_of(name: &str) -> Option<usize> {
    let (_, rest) = name.split_once("@oni")?;
    let (digits, _) = rest.split_once('[')?;
    digits.parse().ok()
}

/// Runs one scenario end to end and returns its report.
///
/// The loop per step: fire due faults → build per-group power scales →
/// advance the stepper (through the solve ladder) → sample the ONI probes
/// → every `control_period` steps, run the DVFS controller and any
/// pending channel remap on the *sensed* temperatures.
///
/// # Errors
///
/// Returns [`FlowError::BadConfig`] for a fault that names an ONI the
/// plant lacks. Propagates plant construction and solver errors; a solver
/// fault that exhausts the whole ladder surfaces as a typed
/// non-convergence error, never as a silently degraded field.
pub fn run_scenario(scenario: &Scenario, seed: u64) -> Result<ScenarioReport, FlowError> {
    run_scenario_with(scenario, seed, vcsel_telemetry::global())
}

/// [`run_scenario`] with an explicit telemetry sink: every fault firing,
/// DVFS move and channel remap lands as a `scenario`-category instant, the
/// whole run under one `scenario_run` span, and the stepper's per-step
/// spans and solve samples record through the same handle. Tests inject
/// private sinks here; production callers use [`run_scenario`] and the
/// process-wide sink.
///
/// # Errors
///
/// Same contract as [`run_scenario`].
pub fn run_scenario_with(
    scenario: &Scenario,
    seed: u64,
    sink: &TelemetrySink,
) -> Result<ScenarioReport, FlowError> {
    if scenario.steps == 0 || scenario.control_period == 0 {
        return Err(FlowError::BadConfig {
            reason: "scenario needs at least one step and a positive control period".into(),
        });
    }
    let mut run_span = sink.span("scenario", "scenario_run");
    run_span.arg("name", ArgValue::Str(scenario.name));
    run_span.arg("seed", ArgValue::U64(seed));
    let plan = FaultPlan::new(scenario.events.clone(), seed);
    let config = scenario_config();
    let setup_timer = std::time::Instant::now();
    let setup_span = sink.span("scenario", "setup");
    let system = SccSystem::build(&config)?;
    let n = system.onis().len();
    let missing = scenario.events.iter().find(|e| match e.kind {
        FaultKind::VcselDeath { oni } | FaultKind::HeaterStuckOff { oni } => oni >= n,
        _ => false,
    });
    if let Some(event) = missing {
        return Err(FlowError::BadConfig {
            reason: format!(
                "fault {:?} at step {} names an ONI the {n}-ONI plant lacks",
                event.kind, event.at_step
            ),
        });
    }
    let design = per_oni_design(&system);
    let spec = system.mesh_spec()?;
    // 1e-8 on a ~Kelvin-scale field is far below any metric pin's
    // resolution and saves a third of the CG work per step.
    let mut stepper = TransientStepper::new(&design, &spec, config.ambient, scenario.dt_s)?
        .with_options(SolveOptions { tolerance: 1e-8, max_iterations: 50_000 })
        .with_telemetry(sink.clone());
    drop(setup_span);
    let setup_ms = setup_timer.elapsed().as_secs_f64() * 1e3;
    let mut step_ms = 0.0f64;
    let mut control_ms = 0.0f64;

    let optical = system.stack().optical_layer_z();
    let z_mid = (optical.0 + optical.1) / 2.0;
    let probes: Vec<[Meters; 3]> = system
        .onis()
        .iter()
        .map(|o| {
            let c = o.center();
            [c[0], c[1], z_mid]
        })
        .collect();

    let topology = system.topology();
    let pairs = scenario.traffic.pairs(n);
    let mut comms = assign_channels(topology, &pairs)?;
    let analyzer = SnrAnalyzer::paper_default(WavelengthGrid::paper_default());
    let injected: Vec<Watts> = vec![Watts::from_milliwatts(0.3); comms.len()];

    let limit = scenario.temp_limit.value();
    let mut vcsel_scale = vec![1.0f64; n];
    let mut heater_scale = vec![1.0f64; n];
    let mut chip_mult = 1.0f64;
    let mut dvfs_scale = 1.0f64;
    let mut min_dvfs = 1.0f64;
    let mut dropout = 0usize;
    let mut sensed = vec![config.ambient.value(); n];
    let mut raw = sensed.clone();
    let mut dead_channels: Vec<usize> = Vec::new();
    let mut remap_pending = false;
    let mut remap: Option<RemapResult> = None;
    let mut peak = f64::NEG_INFINITY;
    let mut over_limit = 0usize;
    let mut escalations = 0usize;

    // Group labels are stable across the run; build them once.
    let labels: Vec<[String; 3]> = (0..n)
        .map(|k| [format!("vcsel@{k}"), format!("driver@{k}"), format!("heater@{k}")])
        .collect();

    for step in 1..=scenario.steps {
        for event in plan.due(step) {
            sink.instant(
                "scenario",
                "fault",
                &[Arg::str("kind", event.kind.label()), Arg::u64("step", step as u64)],
            );
            match event.kind {
                FaultKind::VcselDeath { oni } => {
                    vcsel_scale[oni] = 0.0;
                    for c in &comms {
                        if c.source().index() == oni && !dead_channels.contains(&c.channel()) {
                            dead_channels.push(c.channel());
                        }
                    }
                    remap_pending = true;
                }
                FaultKind::HeaterStuckOff { oni } => {
                    heater_scale[oni] = 0.0;
                    remap_pending = true;
                }
                FaultKind::TrafficBurst { multiplier } => {
                    chip_mult = multiplier.max(0.0);
                }
                FaultKind::DvfsThrottle { scale } => {
                    dvfs_scale = dvfs_scale.min(scale.clamp(0.0, 1.0));
                    min_dvfs = min_dvfs.min(dvfs_scale);
                }
                FaultKind::SensorDropout { steps } => {
                    dropout = dropout.max(steps);
                }
                FaultKind::SolverFault => stepper.inject_solver_fault(),
            }
        }

        let mut scales: Vec<(&str, f64)> = Vec::with_capacity(3 * n + 1);
        scales.push(("chip", chip_mult * dvfs_scale));
        for (k, l) in labels.iter().enumerate() {
            scales.push((l[0].as_str(), vcsel_scale[k]));
            scales.push((l[1].as_str(), vcsel_scale[k]));
            scales.push((l[2].as_str(), heater_scale[k]));
        }
        let step_timer = std::time::Instant::now();
        stepper.step(&scales)?;
        step_ms += step_timer.elapsed().as_secs_f64() * 1e3;
        escalations += stepper.health().escalations;

        for (i, p) in probes.iter().enumerate() {
            raw[i] = stepper
                .temperature_at(*p)
                .ok_or_else(|| FlowError::BadConfig {
                    reason: "scenario probe fell outside the mesh".into(),
                })?
                .value();
        }
        if dropout > 0 {
            dropout -= 1;
        } else {
            sensed.copy_from_slice(&raw);
        }
        let step_peak = raw.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        peak = peak.max(step_peak);
        if step_peak > limit {
            over_limit += 1;
        }

        if step % scenario.control_period == 0 {
            let control_timer = std::time::Instant::now();
            let sensed_peak = sensed.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let dvfs_before = dvfs_scale;
            if sensed_peak > limit {
                dvfs_scale = (dvfs_scale * 0.8).max(0.2);
            } else if dvfs_scale < 1.0 {
                dvfs_scale = (dvfs_scale * 1.1).min(1.0);
            }
            min_dvfs = min_dvfs.min(dvfs_scale);
            if dvfs_scale != dvfs_before {
                sink.instant(
                    "scenario",
                    "dvfs",
                    &[Arg::f64("scale", dvfs_scale), Arg::u64("step", step as u64)],
                );
            }

            if remap_pending {
                let temps: Vec<Celsius> = sensed.iter().map(|&t| Celsius::new(t)).collect();
                let mut cfg =
                    RemapConfig { channel_budget: 16, max_moves: 40, ..Default::default() };
                for &ch in &dead_channels {
                    cfg = cfg.with_dead_channel(ch);
                }
                let remap_span = sink.span("scenario", "remap_search");
                let result = remap_channels(topology, &comms, &temps, &injected, &analyzer, &cfg)?;
                drop(remap_span);
                sink.instant(
                    "scenario",
                    "remap",
                    &[
                        Arg::f64("gain_db", result.gain_db()),
                        Arg::u64("moves", result.moves as u64),
                        Arg::u64("evacuated", result.evacuated as u64),
                        Arg::u64("step", step as u64),
                    ],
                );
                comms = result.comms.clone();
                remap = Some(result);
                remap_pending = false;
            }
            control_ms += control_timer.elapsed().as_secs_f64() * 1e3;
        }
    }

    let final_peak = raw.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mean_final = raw.iter().sum::<f64>() / n as f64;
    let temps: Vec<Celsius> = raw.iter().map(|&t| Celsius::new(t)).collect();
    let snr = analyzer.analyze(topology, &comms, &temps, &injected)?;

    Ok(ScenarioReport {
        name: scenario.name.to_string(),
        seed,
        steps: stepper.steps(),
        dt_s: scenario.dt_s,
        peak_c: peak,
        final_peak_c: final_peak,
        mean_final_c: mean_final,
        over_limit_steps: over_limit,
        recovered: final_peak <= limit,
        remap_ran: remap.is_some(),
        remap_gain_db: remap.as_ref().map_or(0.0, RemapResult::gain_db),
        remap_moves: remap.as_ref().map_or(0, |r| r.moves),
        evacuated: remap.as_ref().map_or(0, |r| r.evacuated),
        min_dvfs_scale: min_dvfs,
        min_frequency_scale: min_dvfs.cbrt(),
        cg_iterations: stepper.total_iterations(),
        solver_escalations: escalations,
        converged: stepper.health().converged,
        worst_snr_db: snr.worst_snr_db(),
        setup_ms,
        step_ms,
        control_ms,
    })
}

/// The named scenario catalogue: six fault stories from "nothing breaks"
/// to "everything breaks at once". Pins hold at [`DEFAULT_SEED`].
pub fn catalogue() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "healthy-baseline",
            description: "no faults: the reference trajectory every other scenario degrades from",
            steps: 40,
            dt_s: 1e-2,
            control_period: 4,
            temp_limit: Celsius::new(95.0),
            traffic: TrafficPattern::RingNeighbors,
            events: vec![],
            pins: MetricPins {
                peak_c: (44.0, 56.0),
                max_cg_iterations: 20_000,
                max_over_limit_steps: 0,
                ..MetricPins::default()
            },
        },
        Scenario {
            name: "hot-channel-death",
            description: "one ONI's VCSEL bank dies mid-run; its channels are evacuated by remap",
            steps: 40,
            dt_s: 1e-2,
            control_period: 4,
            temp_limit: Celsius::new(95.0),
            traffic: TrafficPattern::AllToAll,
            events: vec![FaultEvent { at_step: 10, kind: FaultKind::VcselDeath { oni: 1 } }],
            pins: MetricPins {
                peak_c: (44.0, 56.0),
                max_cg_iterations: 20_000,
                require_remap: true,
                min_remap_gain_db: 0.0,
                max_over_limit_steps: 0,
                ..MetricPins::default()
            },
        },
        Scenario {
            name: "heater-bank-failure",
            description: "one ONI's ring heaters stick off; remap re-optimizes on the skewed field",
            steps: 40,
            dt_s: 1e-2,
            control_period: 4,
            temp_limit: Celsius::new(95.0),
            traffic: TrafficPattern::AllToAll,
            events: vec![FaultEvent { at_step: 8, kind: FaultKind::HeaterStuckOff { oni: 0 } }],
            pins: MetricPins {
                peak_c: (44.0, 56.0),
                max_cg_iterations: 20_000,
                require_remap: true,
                max_over_limit_steps: 0,
                ..MetricPins::default()
            },
        },
        Scenario {
            name: "traffic-storm",
            description: "a 3x chip-power burst plus a sensor dropout; DVFS must cap the peak",
            steps: 48,
            dt_s: 1e-2,
            control_period: 4,
            temp_limit: Celsius::new(51.0),
            traffic: TrafficPattern::RingNeighbors,
            events: vec![
                FaultEvent { at_step: 8, kind: FaultKind::TrafficBurst { multiplier: 3.0 } },
                FaultEvent { at_step: 12, kind: FaultKind::SensorDropout { steps: 6 } },
            ],
            pins: MetricPins {
                peak_c: (44.0, 58.0),
                max_cg_iterations: 24_000,
                ..MetricPins::default()
            },
        },
        Scenario {
            name: "thermal-cycling",
            description: "chip power square-waves between 2.5x and 0.5x; the field must track it",
            steps: 48,
            dt_s: 1e-2,
            control_period: 4,
            temp_limit: Celsius::new(95.0),
            traffic: TrafficPattern::Hotspot { hot: 0 },
            events: vec![
                FaultEvent { at_step: 8, kind: FaultKind::TrafficBurst { multiplier: 2.5 } },
                FaultEvent { at_step: 22, kind: FaultKind::TrafficBurst { multiplier: 0.5 } },
                FaultEvent { at_step: 36, kind: FaultKind::TrafficBurst { multiplier: 2.5 } },
            ],
            pins: MetricPins {
                peak_c: (44.0, 62.0),
                max_cg_iterations: 24_000,
                max_over_limit_steps: 0,
                ..MetricPins::default()
            },
        },
        Scenario {
            name: "cascade-failure-with-remap",
            description: "solver fault, VCSEL death, burst and an external throttle, back to back",
            steps: 48,
            dt_s: 1e-2,
            control_period: 4,
            temp_limit: Celsius::new(53.5),
            traffic: TrafficPattern::AllToAll,
            events: vec![
                FaultEvent { at_step: 5, kind: FaultKind::SolverFault },
                FaultEvent { at_step: 9, kind: FaultKind::VcselDeath { oni: 2 } },
                FaultEvent { at_step: 13, kind: FaultKind::TrafficBurst { multiplier: 2.0 } },
                FaultEvent { at_step: 20, kind: FaultKind::DvfsThrottle { scale: 0.6 } },
            ],
            pins: MetricPins {
                peak_c: (44.0, 58.0),
                max_cg_iterations: 64_000,
                require_remap: true,
                min_remap_gain_db: 0.0,
                min_escalations: 1,
                ..MetricPins::default()
            },
        },
    ]
}

/// Looks up a catalogue scenario by name.
///
/// # Errors
///
/// Returns [`FlowError::BadConfig`] listing the valid names.
pub fn find_scenario(name: &str) -> Result<Scenario, FlowError> {
    let all = catalogue();
    let names: Vec<&str> = all.iter().map(|s| s.name).collect();
    all.into_iter().find(|s| s.name == name).ok_or_else(|| FlowError::BadConfig {
        reason: format!("unknown scenario '{name}' (expected one of: {})", names.join(", ")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_complete() {
        let all = catalogue();
        assert!(all.len() >= 6, "catalogue must hold at least six scenarios");
        let mut names: Vec<&str> = all.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "scenario names must be unique");
        for s in &all {
            assert!(s.steps > 0 && s.control_period > 0 && s.dt_s > 0.0);
            assert!(!s.description.is_empty());
        }
    }

    #[test]
    fn fault_plan_jitter_is_deterministic_and_bounded() {
        let events = vec![
            FaultEvent { at_step: 10, kind: FaultKind::SolverFault },
            FaultEvent { at_step: 20, kind: FaultKind::TrafficBurst { multiplier: 2.0 } },
        ];
        let a = FaultPlan::new(events.clone(), 7);
        let b = FaultPlan::new(events.clone(), 7);
        assert_eq!(a, b, "same seed must give the same plan");
        for (orig, jittered) in events.iter().zip(a.events()) {
            let d = jittered.at_step as i64 - orig.at_step as i64;
            assert!(d.abs() <= 1, "jitter must stay within one step, got {d}");
            assert!(jittered.at_step >= 1);
        }
        // Step-1 events can never be jittered to step 0 (before the run).
        let early =
            FaultPlan::new(vec![FaultEvent { at_step: 1, kind: FaultKind::SolverFault }], 3);
        assert!(early.events()[0].at_step >= 1);
    }

    #[test]
    fn per_oni_regrouping_splits_device_groups() {
        let system = SccSystem::build(&scenario_config()).unwrap();
        let design = per_oni_design(&system);
        let groups = design.group_names();
        assert!(groups.contains(&"chip"), "chip group must stay global");
        for k in 0..4 {
            for prefix in ["vcsel", "driver", "heater"] {
                let name = format!("{prefix}@{k}");
                assert!(
                    groups.iter().any(|g| *g == name),
                    "missing per-ONI group {name}: {groups:?}"
                );
            }
        }
        assert!(!groups.contains(&"vcsel"), "global vcsel group must be gone");
        // Power is conserved by regrouping: 4 ONIs x 16 VCSELs x 2 mW.
        let total: f64 =
            (0..4).map(|k| design.group_power(&format!("vcsel@{k}")).as_milliwatts()).sum();
        assert!((total - 128.0).abs() < 1e-9, "vcsel power must be preserved, got {total}");
    }

    #[test]
    fn oni_index_parsing() {
        assert_eq!(oni_index_of("vcsel@oni3[1,2]"), Some(3));
        assert_eq!(oni_index_of("ring@oni12[0,7]"), Some(12));
        assert_eq!(oni_index_of("tile[0,0]"), None);
        assert_eq!(oni_index_of("vcsel@onix[1,2]"), None);
    }

    #[test]
    fn find_scenario_round_trips_and_rejects_unknown() {
        for s in catalogue() {
            assert_eq!(find_scenario(s.name).unwrap().name, s.name);
        }
        assert!(matches!(find_scenario("nope"), Err(FlowError::BadConfig { .. })));
    }

    #[test]
    fn faults_naming_a_missing_oni_are_rejected() {
        // The plant has ONIs 0-3, so ONI 4 is a mistyped fault: it must
        // fail the run rather than run it as a fault-free scenario.
        for kind in [FaultKind::VcselDeath { oni: 4 }, FaultKind::HeaterStuckOff { oni: 4 }] {
            let mut scenario = find_scenario("hot-channel-death").unwrap();
            scenario.events = vec![FaultEvent { at_step: 10, kind }];
            match run_scenario(&scenario, DEFAULT_SEED) {
                Err(FlowError::BadConfig { reason }) => {
                    assert!(reason.contains("oni: 4"), "the error must name the event: {reason}");
                }
                other => panic!("{kind:?} must be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn pins_flag_violations() {
        let report = ScenarioReport {
            name: "x".into(),
            seed: DEFAULT_SEED,
            steps: 10,
            dt_s: 1e-3,
            peak_c: 120.0,
            final_peak_c: 120.0,
            mean_final_c: 100.0,
            over_limit_steps: 10,
            recovered: false,
            remap_ran: false,
            remap_gain_db: 0.0,
            remap_moves: 0,
            evacuated: 0,
            min_dvfs_scale: 1.0,
            min_frequency_scale: 1.0,
            cg_iterations: 1_000_000,
            solver_escalations: 0,
            converged: false,
            worst_snr_db: 10.0,
            setup_ms: 0.0,
            step_ms: 0.0,
            control_ms: 0.0,
        };
        let pins = MetricPins {
            peak_c: (40.0, 60.0),
            max_cg_iterations: 1000,
            require_remap: true,
            min_escalations: 1,
            max_over_limit_steps: 5,
            require_recovered: true,
            ..MetricPins::default()
        };
        let violations = pins.check(&report);
        assert!(violations.len() >= 6, "expected many violations, got {violations:?}");
        // A clean report passes the default pins.
        let clean = ScenarioReport {
            peak_c: 50.0,
            final_peak_c: 50.0,
            over_limit_steps: 0,
            recovered: true,
            converged: true,
            cg_iterations: 100,
            ..report
        };
        assert!(MetricPins::default().check(&clean).is_empty());
    }
}
