//! Spans, solver metrics and chrome-trace export for the vcsel-onoc solve
//! stack — dependency-free on purpose.
//!
//! The solve engines (`SolveContext`, `TransientStepper`, `SolveLadder`,
//! `MultigridHierarchy`, the scenario engine) each hold a [`TelemetrySink`]
//! handle. A **disabled** sink is a `None` inside an `Option` — every
//! recording call bails on that single branch, allocates nothing and makes
//! no syscall, which is what lets the handle live on registered hot paths
//! (lint.toml rule 3) and keep the on/off bitwise-identity contract. An
//! **enabled** sink records:
//!
//! * **spans** — RAII [`SpanGuard`]s with nanosecond [`Instant`] timing,
//!   stamped with a per-thread id and pushed into per-thread-shard
//!   [`EventRing`]s (fixed capacity, oldest-dropped, counted),
//! * **instants / counters** — ladder escalations, scenario remaps, peak
//!   RSS snapshots,
//! * **[`SolveSample`]s** — per-solve CG iteration / SpMV / V-cycle /
//!   triangular-solve counts, rung attempts, warm-start quality and (in
//!   full mode) whole residual histories.
//!
//! Everything drains through [`TelemetrySink::drain`] into a
//! [`TraceData`], exportable as a human summary table or a
//! `chrome://tracing` / Perfetto JSON file (see [`export`]).
//!
//! # Process-wide sink
//!
//! [`global`] resolves once from the environment: `VCSEL_TRACE=off|summary|
//! full` picks the mode, `VCSEL_TRACE_DIR` the trace directory (default
//! `reports/traces`). Engines default to the global sink; tests inject
//! their own with the engines' `set_telemetry` hooks so parallel tests
//! never share state.

// Lint levels (forbid(unsafe_code), warn(missing_docs), the clippy set)
// come from [workspace.lints] in the root Cargo.toml.

pub mod export;
mod metrics;
pub mod ring;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

pub use export::TraceData;
pub use metrics::{peak_rss_mb, AttemptSample, SolveSample};
pub use ring::{Arg, ArgValue, Event, EventKind, EventRing, MAX_ARGS};

/// Ring shards per sink; threads map to shards by `tid % SHARDS`, so
/// concurrent recorders contend only on hash collisions.
const SHARDS: usize = 8;

/// Default per-shard ring capacity (events). Shard rings are allocated
/// lazily on each shard's first event, so idle shards cost nothing.
const DEFAULT_RING_CAPACITY: usize = 16_384;

// --- clock & thread ids -------------------------------------------------

static ANCHOR: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process trace anchor (the first telemetry
/// timestamp taken). Monotonic within a process; the shared anchor lets
/// events from different sinks land on one coherent timeline.
pub fn now_ns() -> u64 {
    let elapsed = ANCHOR.get_or_init(Instant::now).elapsed();
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

// ORDER: pure id allocation — each thread takes a unique value once; no
// other memory is published through this counter.
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    // ORDER: see NEXT_THREAD_ID — unique id allocation only.
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

/// This thread's telemetry id: small, dense, assigned on first use (the
/// main thread is usually 1). Exported as the chrome-trace `tid`.
pub fn thread_id() -> u64 {
    THREAD_ID.with(|id| *id)
}

// --- modes & sink -------------------------------------------------------

/// How much an enabled sink records and exports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Record nothing; every call is a single branch.
    Off,
    /// Record spans, counters and solve samples; export only the human
    /// summary table (no trace file, no residual histories).
    Summary,
    /// Record everything including residual histories; export the summary
    /// table *and* the chrome-trace JSON.
    Full,
}

impl TraceMode {
    /// Parses a `VCSEL_TRACE` value (`off` / `summary` / `full`,
    /// case-insensitive).
    pub fn parse(value: &str) -> Option<Self> {
        match value.to_ascii_lowercase().as_str() {
            "off" | "0" | "" => Some(Self::Off),
            "summary" => Some(Self::Summary),
            "full" | "1" => Some(Self::Full),
            _ => None,
        }
    }
}

struct SinkInner {
    mode: TraceMode,
    ring_capacity: usize,
    shards: [Mutex<Option<EventRing>>; SHARDS],
    samples: Mutex<Vec<SolveSample>>,
}

/// A cloneable handle to a telemetry buffer, or a no-op.
///
/// Cloning shares the buffer (the handle is an `Arc` internally), so an
/// engine and the exporter see the same events. The disabled sink is the
/// `Default` and costs one branch per recording call.
#[derive(Clone, Default)]
pub struct TelemetrySink {
    inner: Option<Arc<SinkInner>>,
}

impl std::fmt::Debug for TelemetrySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("TelemetrySink(off)"),
            Some(inner) => {
                f.debug_struct("TelemetrySink").field("mode", &inner.mode).finish_non_exhaustive()
            }
        }
    }
}

/// Locks a mutex, treating poison as recoverable: telemetry data is
/// diagnostics, and a panic on another thread must not cascade here.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Lazily materializes a shard's ring. Lives outside the registered
/// [`TelemetrySink::record_event`] hot path so the one-time allocation is
/// visible setup cost, not a hot-path allocation.
fn shard_ring(slot: &mut Option<EventRing>, capacity: usize) -> &mut EventRing {
    slot.get_or_insert_with(|| EventRing::with_capacity(capacity))
}

impl TelemetrySink {
    /// The no-op sink: records nothing, costs one branch per call.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled sink with default ring capacity. `TraceMode::Off` yields
    /// the disabled sink.
    pub fn new(mode: TraceMode) -> Self {
        Self::with_ring_capacity(mode, DEFAULT_RING_CAPACITY)
    }

    /// An enabled sink whose per-thread-shard rings hold `capacity` events
    /// each (tests use tiny rings to exercise overflow).
    pub fn with_ring_capacity(mode: TraceMode, capacity: usize) -> Self {
        if mode == TraceMode::Off {
            return Self::disabled();
        }
        Self {
            inner: Some(Arc::new(SinkInner {
                mode,
                ring_capacity: capacity.max(1),
                shards: std::array::from_fn(|_| Mutex::new(None)),
                samples: Mutex::new(Vec::new()),
            })),
        }
    }

    /// A sink resolved from the process environment: `VCSEL_TRACE` picks
    /// the mode (unset means off).
    pub fn from_env() -> Self {
        match std::env::var("VCSEL_TRACE") {
            Ok(value) => match TraceMode::parse(&value) {
                Some(mode) => Self::new(mode),
                None => {
                    eprintln!(
                        "telemetry: unknown VCSEL_TRACE value '{value}' \
                         (expected off, summary or full) — tracing disabled"
                    );
                    Self::disabled()
                }
            },
            Err(_) => Self::disabled(),
        }
    }

    /// Whether the sink records anything at all — the single branch a hot
    /// path pays when tracing is off.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The sink's mode ([`TraceMode::Off`] for a disabled sink).
    pub fn mode(&self) -> TraceMode {
        self.inner.as_ref().map_or(TraceMode::Off, |inner| inner.mode)
    }

    /// Whether residual histories should be captured for this sink
    /// (full mode only — histories are the bulkiest metric).
    pub fn capture_residuals(&self) -> bool {
        self.mode() == TraceMode::Full
    }

    /// Opens a span: the guard stamps its start now and records a
    /// [`EventKind::Span`] event when dropped. A disabled sink returns a
    /// disarmed guard.
    pub fn span(&self, cat: &'static str, name: &'static str) -> SpanGuard {
        let armed = self.is_enabled();
        SpanGuard {
            sink: if armed { self.clone() } else { Self::disabled() },
            event: Event::new(EventKind::Span, cat, name),
            start: if armed { Some((Instant::now(), now_ns())) } else { None },
        }
    }

    /// Records a point-in-time marker with arguments.
    pub fn instant(&self, cat: &'static str, name: &'static str, args: &[Arg]) {
        if self.inner.is_none() {
            return;
        }
        let mut ev = Event::new(EventKind::Instant, cat, name).with_args(args);
        ev.start_ns = now_ns();
        ev.tid = thread_id();
        self.record_event(ev);
    }

    /// Records a sampled counter value (exported as a chrome-trace `"C"`
    /// event, which Perfetto renders as a track).
    pub fn counter(&self, cat: &'static str, name: &'static str, value: f64) {
        if self.inner.is_none() {
            return;
        }
        let mut ev =
            Event::new(EventKind::Counter, cat, name).with_args(&[Arg::f64("value", value)]);
        ev.start_ns = now_ns();
        ev.tid = thread_id();
        self.record_event(ev);
    }

    /// Records a peak-RSS counter snapshot named `name` (no-op where
    /// procfs is unavailable).
    pub fn rss_snapshot(&self, cat: &'static str, name: &'static str) {
        if self.inner.is_none() {
            return;
        }
        if let Some(mb) = peak_rss_mb() {
            self.counter(cat, name, mb);
        }
    }

    /// Pushes a finished event into the recording thread's ring shard.
    /// Registered as a hot path (lint.toml): one branch when disabled; an
    /// uncontended shard lock and a `Copy` store when enabled.
    pub fn record_event(&self, ev: Event) {
        let Some(inner) = self.inner.as_deref() else { return };
        let shard = usize::try_from(ev.tid).unwrap_or(0) % SHARDS;
        let mut slot = lock_unpoisoned(&inner.shards[shard]);
        shard_ring(&mut slot, inner.ring_capacity).push(ev);
    }

    /// Records a per-solve metric sample (cold path, once per solve).
    pub fn record_sample(&self, sample: SolveSample) {
        let Some(inner) = self.inner.as_deref() else { return };
        lock_unpoisoned(&inner.samples).push(sample);
    }

    /// Events overwritten across all shards because a ring was full.
    pub fn dropped(&self) -> u64 {
        let Some(inner) = self.inner.as_deref() else { return 0 };
        inner
            .shards
            .iter()
            .map(|shard| lock_unpoisoned(shard).as_ref().map_or(0, EventRing::dropped))
            .sum()
    }

    /// Drains every shard and the sample list into a [`TraceData`] with
    /// events sorted by start time. The sink stays usable afterwards.
    pub fn drain(&self) -> TraceData {
        let mut data = TraceData::default();
        let Some(inner) = self.inner.as_deref() else { return data };
        for shard in &inner.shards {
            let mut slot = lock_unpoisoned(shard);
            if let Some(ring) = slot.as_mut() {
                data.dropped += ring.dropped();
                ring.drain_into(&mut data.events);
            }
        }
        data.events.sort_by_key(|ev| ev.start_ns);
        data.samples = std::mem::take(&mut *lock_unpoisoned(&inner.samples));
        data
    }
}

/// RAII span: created by [`TelemetrySink::span`], records one
/// [`EventKind::Span`] event (start, duration, thread, args) on drop.
/// Chrome trace viewers nest same-thread spans by time containment, so
/// hierarchy falls out of lexical nesting with no extra bookkeeping.
#[derive(Debug)]
pub struct SpanGuard {
    sink: TelemetrySink,
    event: Event,
    /// `Some((wall_timer, anchor_ns))` when armed; `None` guards record
    /// nothing on drop.
    start: Option<(Instant, u64)>,
}

impl SpanGuard {
    /// Attaches a `key = value` argument to the span (up to
    /// [`MAX_ARGS`]; extras are dropped). No-op on a disarmed guard.
    pub fn arg(&mut self, key: &'static str, value: ArgValue) {
        if self.start.is_none() {
            return;
        }
        for slot in &mut self.event.args {
            if slot.is_none() {
                *slot = Some(Arg { key, value });
                return;
            }
        }
    }

    /// Whether this guard will record an event on drop.
    pub fn is_armed(&self) -> bool {
        self.start.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((timer, start_ns)) = self.start.take() else { return };
        let mut ev = self.event;
        ev.start_ns = start_ns;
        ev.dur_ns = u64::try_from(timer.elapsed().as_nanos()).unwrap_or(u64::MAX);
        ev.tid = thread_id();
        self.sink.record_event(ev);
    }
}

// --- process-wide sink & export ----------------------------------------

static GLOBAL: OnceLock<TelemetrySink> = OnceLock::new();

/// The process-wide sink, resolved from `VCSEL_TRACE` on first use (see
/// [`TelemetrySink::from_env`]). Engines capture it by default; tests
/// should inject their own sinks instead of relying on the global one,
/// which is shared and environment-dependent.
pub fn global() -> &'static TelemetrySink {
    GLOBAL.get_or_init(TelemetrySink::from_env)
}

/// The directory trace files land in: `VCSEL_TRACE_DIR`, defaulting to
/// `reports/traces`.
pub fn trace_dir() -> std::path::PathBuf {
    match std::env::var_os("VCSEL_TRACE_DIR") {
        Some(dir) if !dir.is_empty() => std::path::PathBuf::from(dir),
        _ => std::path::PathBuf::from("reports").join("traces"),
    }
}

/// Finishes a traced run: snapshots peak RSS, drains `sink`, prints the
/// summary table to stderr, and — in full mode — writes
/// `<trace_dir>/<label>.trace.json` and returns its path.
///
/// Call after the root span guard has dropped, or the root span will be
/// missing from its own trace.
pub fn finish(sink: &TelemetrySink, label: &str) -> Option<std::path::PathBuf> {
    if !sink.is_enabled() {
        return None;
    }
    sink.rss_snapshot("process", "peak_rss_mb");
    let data = sink.drain();
    eprintln!("{}", export::summary_table(&data));
    if sink.mode() != TraceMode::Full {
        return None;
    }
    let dir = trace_dir();
    if let Err(err) = std::fs::create_dir_all(&dir) {
        eprintln!("telemetry: cannot create {}: {err}", dir.display());
        return None;
    }
    let safe: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect();
    let path = dir.join(format!("{safe}.trace.json"));
    match std::fs::write(&path, export::chrome_trace_json(&data)) {
        Ok(()) => {
            eprintln!("telemetry: wrote {}", path.display());
            Some(path)
        }
        Err(err) => {
            eprintln!("telemetry: cannot write {}: {err}", path.display());
            None
        }
    }
}

/// [`finish`] applied to the [`global`] sink — the one-liner the report
/// binaries call after their root span closes.
pub fn finish_global(label: &str) -> Option<std::path::PathBuf> {
    finish(global(), label)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TelemetrySink::disabled();
        assert!(!sink.is_enabled());
        assert_eq!(sink.mode(), TraceMode::Off);
        {
            let mut guard = sink.span("test", "root");
            assert!(!guard.is_armed());
            guard.arg("k", ArgValue::U64(1));
        }
        sink.instant("test", "marker", &[]);
        sink.counter("test", "c", 1.0);
        sink.record_sample(SolveSample::default());
        let data = sink.drain();
        assert!(data.events.is_empty() && data.samples.is_empty());
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn off_mode_is_the_disabled_sink() {
        assert!(!TelemetrySink::new(TraceMode::Off).is_enabled());
    }

    #[test]
    fn spans_nest_and_time_monotonically() {
        let sink = TelemetrySink::new(TraceMode::Full);
        {
            let _outer = sink.span("test", "outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let mut inner = sink.span("test", "inner");
            inner.arg("iterations", ArgValue::U64(7));
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let data = sink.drain();
        assert_eq!(data.events.len(), 2);
        // Sorted by start: outer opened first.
        let (outer, inner) = (&data.events[0], &data.events[1]);
        assert_eq!(outer.name, "outer");
        assert_eq!(inner.name, "inner");
        assert!(outer.start_ns <= inner.start_ns);
        // Containment: the inner span lies inside the outer one (how
        // chrome-trace viewers derive nesting).
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
        assert!(outer.dur_ns >= 4_000_000, "outer span must cover both sleeps");
        assert_eq!(inner.args[0], Some(Arg::u64("iterations", 7)));
        assert_eq!(outer.tid, inner.tid);
    }

    #[test]
    fn drain_empties_but_sink_stays_usable() {
        let sink = TelemetrySink::new(TraceMode::Summary);
        sink.instant("test", "one", &[]);
        assert_eq!(sink.drain().events.len(), 1);
        sink.instant("test", "two", &[]);
        let again = sink.drain();
        assert_eq!(again.events.len(), 1);
        assert_eq!(again.events[0].name, "two");
    }

    #[test]
    fn ring_overflow_is_counted_through_the_sink() {
        let sink = TelemetrySink::with_ring_capacity(TraceMode::Full, 4);
        for _ in 0..10 {
            sink.instant("test", "tick", &[]);
        }
        assert_eq!(sink.dropped(), 6);
        let data = sink.drain();
        assert_eq!(data.events.len(), 4);
        assert_eq!(data.dropped, 6);
    }

    #[test]
    fn samples_round_trip_through_drain() {
        let sink = TelemetrySink::new(TraceMode::Full);
        let sample = SolveSample {
            label: "steady/test".into(),
            iterations: 42,
            converged: true,
            residual: 1e-10,
            initial_residual: 1.0,
            ..SolveSample::default()
        };
        sink.record_sample(sample.clone());
        let data = sink.drain();
        assert_eq!(data.samples, vec![sample]);
    }

    #[test]
    fn trace_mode_parses_the_documented_values() {
        assert_eq!(TraceMode::parse("off"), Some(TraceMode::Off));
        assert_eq!(TraceMode::parse("SUMMARY"), Some(TraceMode::Summary));
        assert_eq!(TraceMode::parse("full"), Some(TraceMode::Full));
        assert_eq!(TraceMode::parse("verbose"), None);
    }

    #[test]
    fn thread_ids_are_distinct_across_threads() {
        let mine = thread_id();
        let theirs = std::thread::spawn(thread_id).join().expect("thread id probe");
        assert_ne!(mine, theirs);
        assert_eq!(mine, thread_id(), "ids are stable within a thread");
    }
}
