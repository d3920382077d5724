//! Fixed-capacity event ring buffers — the storage behind
//! [`TelemetrySink`](crate::TelemetrySink).
//!
//! Every recorded span, instant and counter is a plain-old-data [`Event`]
//! (`Copy`, fixed-size argument slots, `&'static str` names) so pushing one
//! into an [`EventRing`] moves a few hundred bytes and touches no
//! allocator. The ring overwrites its **oldest** entry when full and counts
//! every overwrite, so a run that outgrows the buffer loses its earliest
//! events — never its most recent ones — and the export can say exactly how
//! many were shed.

/// Fixed number of argument slots on an [`Event`]. Keeping the slot count
/// small keeps events `Copy` and ring pushes allocation-free; richer
/// payloads (residual histories, rung attempts) travel as
/// [`SolveSample`](crate::SolveSample)s outside the ring.
pub const MAX_ARGS: usize = 4;

/// One typed argument value attached to an [`Event`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer payload (iteration counts, sizes, seeds).
    U64(u64),
    /// Floating-point payload (residuals, megabytes, factors).
    F64(f64),
    /// Static string payload (rung names, outcome labels).
    Str(&'static str),
    /// Boolean payload (converged flags).
    Bool(bool),
}

/// A `key = value` pair attached to an [`Event`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arg {
    /// Argument name as it appears under `"args"` in the chrome trace.
    pub key: &'static str,
    /// Argument value.
    pub value: ArgValue,
}

impl Arg {
    /// An unsigned-integer argument.
    pub const fn u64(key: &'static str, value: u64) -> Self {
        Self { key, value: ArgValue::U64(value) }
    }

    /// A floating-point argument.
    pub const fn f64(key: &'static str, value: f64) -> Self {
        Self { key, value: ArgValue::F64(value) }
    }

    /// A static-string argument.
    pub const fn str(key: &'static str, value: &'static str) -> Self {
        Self { key, value: ArgValue::Str(value) }
    }

    /// A boolean argument.
    pub const fn bool(key: &'static str, value: bool) -> Self {
        Self { key, value: ArgValue::Bool(value) }
    }
}

/// What kind of chrome-trace event an [`Event`] exports as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed duration span (`"ph": "X"`).
    Span,
    /// A point-in-time marker (`"ph": "i"`), e.g. a ladder escalation.
    Instant,
    /// A sampled counter value (`"ph": "C"`), e.g. peak RSS.
    Counter,
}

/// A plain-old-data telemetry event: fixed-size, `Copy`, allocation-free
/// to record. Timestamps are nanoseconds since the process trace anchor
/// (see [`now_ns`](crate::now_ns)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Span / instant / counter.
    pub kind: EventKind,
    /// Category (`"thermal"`, `"solver"`, `"multigrid"`, …) — the chrome
    /// trace `"cat"` field.
    pub cat: &'static str,
    /// Event name (`"steady_solve"`, `"escalation"`, …).
    pub name: &'static str,
    /// Start time in nanoseconds since the trace anchor.
    pub start_ns: u64,
    /// Duration in nanoseconds (zero for instants and counters).
    pub dur_ns: u64,
    /// Recording thread's telemetry id (see [`thread_id`](crate::thread_id)).
    pub tid: u64,
    /// Up to [`MAX_ARGS`] key/value arguments; `None` slots are unused.
    pub args: [Option<Arg>; MAX_ARGS],
}

impl Event {
    /// An event with no arguments; the caller fills timestamps.
    pub const fn new(kind: EventKind, cat: &'static str, name: &'static str) -> Self {
        Self { kind, cat, name, start_ns: 0, dur_ns: 0, tid: 0, args: [None; MAX_ARGS] }
    }

    /// Copies up to [`MAX_ARGS`] arguments into the fixed slots; extras are
    /// silently dropped (events are diagnostics, not a lossless channel).
    pub fn with_args(mut self, args: &[Arg]) -> Self {
        for (slot, arg) in self.args.iter_mut().zip(args) {
            *slot = Some(*arg);
        }
        self
    }
}

/// A fixed-capacity ring of [`Event`]s with oldest-dropped overflow.
///
/// The buffer is allocated once at construction; [`EventRing::push`] is a
/// registered hot path (lint.toml) and never allocates. When the ring is
/// full each push overwrites the oldest event and increments
/// [`EventRing::dropped`].
#[derive(Debug)]
pub struct EventRing {
    buf: Box<[Event]>,
    /// Next write position (equals the oldest element once full).
    head: usize,
    len: usize,
    dropped: u64,
}

impl EventRing {
    /// A ring holding at most `capacity` events (at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(1);
        Self {
            buf: vec![Event::new(EventKind::Instant, "", ""); cap].into_boxed_slice(),
            head: 0,
            len: 0,
            dropped: 0,
        }
    }

    /// Records `ev`, overwriting the oldest event when full. Registered as
    /// a hot path: no allocation, no syscall, a few word-sized writes.
    pub fn push(&mut self, ev: Event) {
        self.buf[self.head] = ev;
        self.head = (self.head + 1) % self.buf.len();
        if self.len < self.buf.len() {
            self.len += 1;
        } else {
            self.dropped += 1;
        }
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum events the ring can hold.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Events overwritten because the ring was full (cumulative; not reset
    /// by [`EventRing::drain_into`]).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends the held events to `out` in oldest→newest order and empties
    /// the ring (the drop counter is preserved).
    pub fn drain_into(&mut self, out: &mut Vec<Event>) {
        let start = if self.len == self.buf.len() { self.head } else { 0 };
        out.reserve(self.len);
        for k in 0..self.len {
            out.push(self.buf[(start + k) % self.buf.len()]);
        }
        self.head = 0;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u64) -> Event {
        let mut e = Event::new(EventKind::Instant, "test", "tick");
        e.start_ns = n;
        e
    }

    #[test]
    fn push_and_drain_preserve_order() {
        let mut ring = EventRing::with_capacity(8);
        assert!(ring.is_empty());
        for i in 0..5 {
            ring.push(ev(i));
        }
        assert_eq!(ring.len(), 5);
        assert_eq!(ring.dropped(), 0);
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        assert!(ring.is_empty());
        let stamps: Vec<u64> = out.iter().map(|e| e.start_ns).collect();
        assert_eq!(stamps, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let mut ring = EventRing::with_capacity(4);
        for i in 0..10 {
            ring.push(ev(i));
        }
        // 10 pushes into 4 slots: 6 overwrites, newest 4 survive in order.
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 6);
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        let stamps: Vec<u64> = out.iter().map(|e| e.start_ns).collect();
        assert_eq!(stamps, vec![6, 7, 8, 9]);
        // The drop counter survives the drain (it is cumulative).
        assert_eq!(ring.dropped(), 6);
        // The ring is reusable after a drain.
        ring.push(ev(42));
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut ring = EventRing::with_capacity(0);
        assert_eq!(ring.capacity(), 1);
        ring.push(ev(1));
        ring.push(ev(2));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn with_args_fills_slots_and_drops_extras() {
        let args = [
            Arg::u64("a", 1),
            Arg::f64("b", 2.0),
            Arg::str("c", "x"),
            Arg::bool("d", true),
            Arg::u64("e", 5),
        ];
        let e = Event::new(EventKind::Span, "test", "spanned").with_args(&args);
        assert_eq!(e.args.iter().filter(|a| a.is_some()).count(), MAX_ARGS);
        assert_eq!(e.args[0], Some(Arg::u64("a", 1)));
        assert_eq!(e.args[3], Some(Arg::bool("d", true)));
    }
}
