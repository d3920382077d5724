//! Escalating solve ladder: a sequence of preconditioners tried in order
//! until one converges.
//!
//! The thermal engines default to the strongest preconditioner the problem
//! size justifies (multigrid on large meshes, IC(0) elsewhere). Strong
//! preconditioners are also the most fragile: a pathological design edit
//! can make the IC(0) factor break down, and a corrupted apply (the
//! fault-injection hooks simulate one) silently destroys CG's search
//! directions instead of erroring. A [`SolveLadder`] turns both failure
//! shapes into *recovery*: it runs [`preconditioned_cg`] on the active
//! rung — one call for every right-hand-side column — and when columns
//! stall, diverge, hit the iteration cap, or the preconditioner breaks
//! down or cannot even be built, it restores those columns' initial
//! guesses and escalates to the next (weaker but sturdier) rung —
//! typically `Multigrid → IC(0) → Jacobi`. Columns that converged are
//! never solved again. Jacobi only requires a positive diagonal, which FVM
//! assembly guarantees, so the last rung is always buildable and the
//! ladder degrades gracefully instead of panicking.
//!
//! Every attempt is recorded as a [`RungAttempt`] so callers can surface
//! *why* a solve was slow or degraded (the thermal engines expose them
//! through `attempts()`, next to the call's [`LadderSummary`]). Escalation
//! is sticky: once a rung has failed it stays retired for the lifetime of
//! the ladder, because a preconditioner that broke once on this operator
//! will break again.

use std::sync::Arc;

use vcsel_telemetry::{Arg, AttemptSample, SolveSample, TelemetrySink};

use crate::precond::{AnyPreconditioner, Preconditioner, PreconditionerKind};
use crate::solver::{preconditioned_cg, CgStop, CgSummary, CgWorkspace, SolveOptions};
use crate::{CsrMatrix, NumericsError};

/// How a single rung's attempt at the solve ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RungOutcome {
    /// The rung converged; its solution is in the caller's `x`.
    Converged,
    /// The rung ran out of iterations with the residual above tolerance.
    IterationCap,
    /// The residual stopped improving (see
    /// [`STALL_WINDOW`](crate::solver::STALL_WINDOW)).
    Stalled,
    /// The residual blew past
    /// [`DIVERGENCE_LIMIT`](crate::solver::DIVERGENCE_LIMIT) or went
    /// non-finite.
    Diverged,
    /// The preconditioner itself failed (indefinite `pᵀAp`, factor
    /// breakdown) — see the attempt's `detail`.
    Breakdown,
    /// The rung's preconditioner could not be constructed for this
    /// operator at all.
    BuildFailed,
}

impl RungOutcome {
    /// Stable lower-case label (`"converged"`, `"stalled"`, …) used in
    /// telemetry events and trace files.
    pub fn label(self) -> &'static str {
        match self {
            Self::Converged => "converged",
            Self::IterationCap => "iteration_cap",
            Self::Stalled => "stalled",
            Self::Diverged => "diverged",
            Self::Breakdown => "breakdown",
            Self::BuildFailed => "build_failed",
        }
    }
}

/// Diagnostic record of one rung's attempt inside [`SolveLadder::solve`].
#[derive(Debug, Clone, PartialEq)]
pub struct RungAttempt {
    /// Preconditioner name of the rung (`"multigrid"`, `"ic0"`, …).
    pub rung: &'static str,
    /// CG iterations the attempt ran — the most any of its columns took
    /// (0 for breakdowns and build failures).
    pub iterations: usize,
    /// Relative residual when the attempt ended — its worst column's
    /// (∞ for breakdowns and build failures).
    pub residual: f64,
    /// How the attempt ended: converged only if every column did,
    /// otherwise how its first failing column stopped.
    pub outcome: RungOutcome,
    /// Human-readable failure detail, when the rung produced one.
    pub detail: Option<String>,
}

/// Aggregate result of one [`SolveLadder::solve`] call — also the solve
/// record the thermal engines keep for their most recent solve.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LadderSummary {
    /// Iterations of the final (deciding) attempt.
    pub iterations: usize,
    /// Iterations across every column of every attempt of this call,
    /// including failed rungs — the honest cost of the solve.
    pub total_iterations: usize,
    /// Relative residual of the final attempt.
    pub residual: f64,
    /// Whether every column met the tolerance. `false` means even the
    /// last rung failed some columns; those columns of the caller's `x`
    /// ([`SolveLadder::unconverged_columns`]) hold that rung's final
    /// iterate and should be treated as unconverged.
    pub converged: bool,
    /// Rungs retired during this call.
    pub escalations: usize,
}

impl LadderSummary {
    /// `true` when the solve only succeeded by escalating past at least
    /// one failed rung — converged, but on degraded (weaker) numerics.
    pub fn recovered(&self) -> bool {
        self.converged && self.escalations > 0
    }

    /// `true` when the solve converged on its first attempt with no
    /// escalations — the everyday case.
    pub fn is_clean(&self) -> bool {
        self.converged && self.escalations == 0
    }
}

#[derive(Clone)]
struct Rung {
    kind: PreconditionerKind,
    /// Built lazily on first activation, `None` until then (and forever,
    /// for rungs whose construction failed).
    precond: Option<AnyPreconditioner>,
    /// Fault-injection flag: when set, the rung's apply is corrupted (sign
    /// flip) so tests and scenarios can exercise the escalation path with
    /// a *genuine* CG failure rather than a mocked one.
    faulted: bool,
}

/// Operator work measured over every attempt of one
/// [`SolveLadder::solve`] call, from the kernel workspace's counters.
#[derive(Debug, Clone, Copy, Default)]
struct Work {
    spmv: u64,
    precond_applies: u64,
    vcycles: u64,
    trisolves: u64,
}

impl Work {
    /// Adds the counters of the attempt that just ran on `rung`: its
    /// operator sweeps and per-column preconditioner applies, which are
    /// V-cycles on a multigrid rung and pairs of triangular solves on an
    /// IC(0) rung.
    fn add(&mut self, rung: &str, ws: &CgWorkspace) {
        let applies = ws.preconditioner_applies();
        self.spmv += ws.operator_sweeps();
        self.precond_applies += applies;
        match rung {
            "multigrid" => self.vcycles += applies,
            "ic0" => self.trisolves += 2 * applies,
            _ => {}
        }
    }
}

/// A prioritized chain of preconditioners with automatic escalation.
///
/// See the [module docs](self) for semantics. Construction builds only the
/// first usable rung; later rungs are built on demand when escalation
/// reaches them, so a healthy ladder costs exactly one factorization.
#[derive(Clone)]
pub struct SolveLadder {
    rungs: Vec<Rung>,
    active: usize,
    saved_guess: Vec<f64>,
    attempts: Vec<RungAttempt>,
    /// Columns of the current (or most recent) solve still unconverged.
    pending: Vec<usize>,
    /// Rows per column of the most recent solve.
    unknowns: usize,
    work: Work,
    /// Telemetry handle: rung-build spans, per-attempt and escalation
    /// events. Defaults to the process-wide sink; engines and tests
    /// inject their own via [`SolveLadder::set_telemetry`].
    telemetry: TelemetrySink,
}

impl std::fmt::Debug for SolveLadder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveLadder")
            .field("rungs", &self.rungs.iter().map(|r| r.kind.name()).collect::<Vec<_>>())
            .field("active", &self.active)
            .finish_non_exhaustive()
    }
}

impl SolveLadder {
    /// Builds a ladder over `kinds`, tried in order.
    ///
    /// `strict` controls how a rung-0 construction failure is handled:
    /// strict ladders (an explicitly requested preconditioner) propagate
    /// the error so the caller hears about the exact kind it asked for;
    /// non-strict ladders (engine defaults) record a
    /// [`RungOutcome::BuildFailed`] attempt and fall through to the next
    /// rung.
    ///
    /// # Errors
    ///
    /// * [`NumericsError::BadInput`] if `kinds` is empty,
    /// * the first rung's construction error when `strict`,
    /// * [`NumericsError::BadMatrix`] if no rung at all can be built.
    pub fn new(
        a: &Arc<CsrMatrix>,
        kinds: &[PreconditionerKind],
        strict: bool,
    ) -> Result<Self, NumericsError> {
        if kinds.is_empty() {
            return Err(NumericsError::BadInput {
                reason: "solve ladder needs at least one preconditioner kind".into(),
            });
        }
        let mut ladder = Self {
            rungs: kinds.iter().map(|&kind| Rung { kind, precond: None, faulted: false }).collect(),
            active: 0,
            saved_guess: Vec::new(),
            attempts: Vec::new(),
            pending: Vec::new(),
            unknowns: 0,
            work: Work::default(),
            telemetry: vcsel_telemetry::global().clone(),
        };
        // Activate the first buildable rung now so construction-time
        // errors surface at construction, not mid-solve.
        loop {
            match ladder.build_rung(a, ladder.active) {
                Ok(()) => break,
                Err(err) if strict && ladder.active == 0 => return Err(err),
                Err(err) => {
                    ladder.record_build_failure(ladder.active, &err);
                    if ladder.active + 1 >= ladder.rungs.len() {
                        return Err(NumericsError::BadMatrix {
                            reason: format!(
                                "no rung of the solve ladder could be built (last: {err})"
                            ),
                        });
                    }
                    ladder.active += 1;
                }
            }
        }
        Ok(ladder)
    }

    /// Builds a ladder whose first rung adopts `prebuilt` instead of
    /// factoring anything — the engine-cache restore path: a cache hit
    /// hands the deserialized preconditioner straight to rung 0, so the
    /// ladder performs **zero** factorizations. Later rungs stay lazy and
    /// are only built if escalation ever reaches them, exactly as after
    /// [`SolveLadder::new`]. Like `new`, the ladder retains no reference
    /// to the operator.
    ///
    /// # Errors
    ///
    /// * [`NumericsError::BadInput`] if `kinds` is empty, or if
    ///   `prebuilt`'s kind does not match `kinds[0]` (the restored bytes
    ///   answered a different escalation chain than the caller wants).
    pub fn with_prebuilt(
        prebuilt: AnyPreconditioner,
        kinds: &[PreconditionerKind],
    ) -> Result<Self, NumericsError> {
        if kinds.is_empty() {
            return Err(NumericsError::BadInput {
                reason: "solve ladder needs at least one preconditioner kind".into(),
            });
        }
        let expected = kinds[0].name();
        if prebuilt.name() != expected {
            return Err(NumericsError::BadInput {
                reason: format!(
                    "prebuilt preconditioner is '{}' but the ladder's first rung is '{expected}'",
                    prebuilt.name()
                ),
            });
        }
        let mut rungs: Vec<Rung> =
            kinds.iter().map(|&kind| Rung { kind, precond: None, faulted: false }).collect();
        rungs[0].precond = Some(prebuilt);
        Ok(Self {
            rungs,
            active: 0,
            saved_guess: Vec::new(),
            attempts: Vec::new(),
            pending: Vec::new(),
            unknowns: 0,
            work: Work::default(),
            telemetry: vcsel_telemetry::global().clone(),
        })
    }

    /// Name of the rung currently answering solves.
    pub fn active_name(&self) -> &'static str {
        self.rungs[self.active].kind.name()
    }

    /// The active rung's preconditioner.
    pub fn active_preconditioner(&self) -> &AnyPreconditioner {
        self.rungs[self.active].precond.as_ref().expect("active rung is always built")
    }

    /// Diagnostics of every attempt made by the most recent
    /// [`solve`](SolveLadder::solve) call.
    pub fn attempts(&self) -> &[RungAttempt] {
        &self.attempts
    }

    /// Replaces the ladder's telemetry sink (engines forward theirs; tests
    /// inject private sinks so parallel tests never share buffers).
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.telemetry = sink;
    }

    /// The ladder's telemetry sink.
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.telemetry
    }

    /// The initial guess captured at the start of the most recent solve —
    /// what `x` held before any rung touched it, every column. Steppers use
    /// it to roll their state back when even the last rung fails.
    pub fn saved_guess(&self) -> &[f64] {
        &self.saved_guess
    }

    /// The columns of the most recent [`solve`](SolveLadder::solve) that
    /// no rung converged, in column order — empty after a converged solve.
    pub fn unconverged_columns(&self) -> &[usize] {
        &self.pending
    }

    /// Corrupts the active rung's preconditioner apply (an
    /// order-reversing, sign-alternating `CorruptApply` wrapper) until
    /// [`clear_apply_faults`](SolveLadder::clear_apply_faults) is called.
    /// The next solve on that rung will genuinely stall or diverge and the
    /// ladder will escalate past it. Test/scenario hook.
    pub fn inject_apply_fault(&mut self) {
        self.rungs[self.active].faulted = true;
    }

    /// Clears every injected apply fault (already-retired rungs stay
    /// retired).
    pub fn clear_apply_faults(&mut self) {
        for rung in &mut self.rungs {
            rung.faulted = false;
        }
    }

    /// Solves `A X = B` through the ladder for k ≥ 1 right-hand-side
    /// columns, laid out back to back as [`preconditioned_cg`] takes them,
    /// escalating on failure.
    ///
    /// Every column runs on the active rung in one kernel call. Columns
    /// that stop unconverged — every column of the attempt, when the rung
    /// breaks down — restart on the next rung from their own saved initial
    /// guesses; a column that converged is never solved again. On a
    /// converged return every column of `x` holds its solution. On an `Ok`
    /// with [`LadderSummary::converged`] `false`, every remaining rung
    /// failed: the [`unconverged_columns`](SolveLadder::unconverged_columns)
    /// of `x` hold the last rung's final iterates and the per-rung story is
    /// in [`attempts`](SolveLadder::attempts). Escalations persist across
    /// calls: the next solve starts on the rung that last worked.
    ///
    /// # Errors
    ///
    /// Input-shape errors ([`NumericsError::DimensionMismatch`],
    /// [`NumericsError::BadInput`]) propagate immediately — no rung can
    /// fix a malformed system. Preconditioner breakdowns
    /// ([`NumericsError::BadMatrix`]) are consumed as
    /// [`RungOutcome::Breakdown`] attempts and trigger escalation.
    pub fn solve(
        &mut self,
        a: &Arc<CsrMatrix>,
        b: &[f64],
        x: &mut [f64],
        opts: &SolveOptions,
        ws: &mut CgWorkspace,
    ) -> Result<LadderSummary, NumericsError> {
        let n = a.rows();
        let k = b.len().checked_div(n).unwrap_or(0);
        self.attempts.clear();
        self.work = Work::default();
        self.unknowns = n;
        self.saved_guess.clear();
        self.saved_guess.extend_from_slice(x);
        self.pending.clear();
        self.pending.extend(0..k);

        // Telemetry full mode captures per-iteration residuals. The CG
        // loop only pushes into the history, so reserve the worst case
        // here — the cold path — and the hot loop never reallocates.
        ws.log_residuals = self.telemetry.capture_residuals();
        if ws.log_residuals {
            ws.residual_history.reserve(opts.max_iterations + 2);
        }

        let mut total_iterations = 0usize;
        let mut escalations = 0usize;
        loop {
            let rung = &mut self.rungs[self.active];
            let label = rung.kind.name();
            let faulted = rung.faulted;
            let precond = rung.precond.as_mut().expect("active rung is always built");
            let mut corrupted;
            let m: &mut dyn Preconditioner = if faulted {
                corrupted = CorruptApply { inner: precond, n: a.rows() };
                &mut corrupted
            } else {
                precond
            };
            let result = if self.pending.len() == k {
                preconditioned_cg(a, b, x, m, opts, ws)
            } else {
                solve_columns(a, b, x, &self.pending, m, opts, ws)
            };
            self.work.add(label, ws);
            match result {
                Ok(stats) => {
                    total_iterations += ws.summaries().iter().map(|s| s.iterations).sum::<usize>();
                    let outcome = match stats.stop {
                        CgStop::Converged => RungOutcome::Converged,
                        CgStop::IterationCap => RungOutcome::IterationCap,
                        CgStop::Stalled => RungOutcome::Stalled,
                        CgStop::Diverged => RungOutcome::Diverged,
                    };
                    self.telemetry.instant(
                        "solver",
                        "rung_attempt",
                        &[
                            Arg::str("rung", label),
                            Arg::u64("iterations", stats.iterations as u64),
                            Arg::str("outcome", outcome.label()),
                            Arg::f64("residual", stats.residual),
                        ],
                    );
                    self.attempts.push(RungAttempt {
                        rung: label,
                        iterations: stats.iterations,
                        residual: stats.residual,
                        outcome,
                        detail: None,
                    });
                    // Converged columns are done for good.
                    let mut column = ws.summaries().iter();
                    self.pending.retain(|_| !column.next().is_some_and(|s| s.converged));
                    if stats.converged {
                        return Ok(LadderSummary {
                            iterations: stats.iterations,
                            total_iterations,
                            residual: stats.residual,
                            converged: true,
                            escalations,
                        });
                    }
                }
                Err(err @ NumericsError::BadMatrix { .. }) => {
                    self.telemetry.instant(
                        "solver",
                        "rung_attempt",
                        &[Arg::str("rung", label), Arg::str("outcome", "breakdown")],
                    );
                    self.attempts.push(RungAttempt {
                        rung: label,
                        iterations: 0,
                        residual: f64::INFINITY,
                        outcome: RungOutcome::Breakdown,
                        detail: Some(err.to_string()),
                    });
                }
                Err(err) => return Err(err),
            }

            let failed_rung = self.active_name();
            if !self.escalate(a) {
                let last = self.attempts.last().expect("at least one attempt was recorded");
                return Ok(LadderSummary {
                    iterations: last.iterations,
                    total_iterations,
                    residual: last.residual,
                    converged: false,
                    escalations,
                });
            }
            escalations += 1;
            self.telemetry.instant(
                "solver",
                "escalation",
                &[Arg::str("from", failed_rung), Arg::str("to", self.active_name())],
            );
            // A failed rung may have scrambled its columns of x (a diverged
            // iterate is poison as a warm start); restart them from the
            // caller's original guesses.
            for &j in &self.pending {
                x[j * n..(j + 1) * n].copy_from_slice(&self.saved_guess[j * n..(j + 1) * n]);
            }
        }
    }

    /// Assembles a telemetry [`SolveSample`] for the most recent
    /// [`solve`](SolveLadder::solve) call: rung attempts, warm-start
    /// quality and the residual history (when captured into `ws`, which
    /// single-column solves do), plus the work the kernel measured over
    /// every attempt — operator sweeps, per-column preconditioner applies,
    /// V-cycles on multigrid rungs and two triangular solves per IC(0)
    /// apply. The caller owns the label, category and timing fields.
    pub fn telemetry_sample(&self, summary: &LadderSummary, ws: &CgWorkspace) -> SolveSample {
        let mut sample = SolveSample {
            solver: self.active_name(),
            unknowns: self.unknowns as u64,
            iterations: summary.iterations as u64,
            total_iterations: summary.total_iterations as u64,
            escalations: summary.escalations as u64,
            converged: summary.converged,
            residual: summary.residual,
            initial_residual: ws.residual_history.first().copied().unwrap_or(f64::NAN),
            spmv: self.work.spmv,
            precond_applies: self.work.precond_applies,
            vcycles: self.work.vcycles,
            trisolves: self.work.trisolves,
            ..SolveSample::default()
        };
        if ws.log_residuals {
            sample.residual_history = ws.residual_history.clone();
        }
        for attempt in &self.attempts {
            sample.attempts.push(AttemptSample {
                rung: attempt.rung,
                iterations: attempt.iterations as u64,
                residual: attempt.residual,
                outcome: attempt.outcome.label(),
            });
        }
        sample
    }

    /// Retires the active rung and activates the next buildable one.
    /// Returns `false` when no rung is left.
    fn escalate(&mut self, a: &Arc<CsrMatrix>) -> bool {
        let mut next = self.active + 1;
        while next < self.rungs.len() {
            match self.build_rung(a, next) {
                Ok(()) => {
                    self.active = next;
                    return true;
                }
                Err(err) => {
                    self.record_build_failure(next, &err);
                    next += 1;
                }
            }
        }
        false
    }

    fn build_rung(&mut self, a: &Arc<CsrMatrix>, index: usize) -> Result<(), NumericsError> {
        if self.rungs[index].precond.is_some() {
            return Ok(());
        }
        let mut span = self.telemetry.span("solver", "rung_build");
        span.arg("rung", vcsel_telemetry::ArgValue::Str(self.rungs[index].kind.name()));
        self.rungs[index].precond = Some(self.rungs[index].kind.build(a)?);
        Ok(())
    }

    fn record_build_failure(&mut self, index: usize, err: &NumericsError) {
        self.telemetry.instant(
            "solver",
            "rung_attempt",
            &[Arg::str("rung", self.rungs[index].kind.name()), Arg::str("outcome", "build_failed")],
        );
        self.attempts.push(RungAttempt {
            rung: self.rungs[index].kind.name(),
            iterations: 0,
            residual: f64::INFINITY,
            outcome: RungOutcome::BuildFailed,
            detail: Some(err.to_string()),
        });
    }
}

/// Wrapper that models a corrupted preconditioner apply: each column's
/// healthy result is reversed and every other entry sign-flipped, so the
/// effective `M⁻¹` is neither symmetric nor definite. (A uniform sign flip
/// would not do — CG is invariant under `M → cM`, the flipped `α` and `p`
/// cancel.) CG's search directions lose conjugacy and the residual stalls
/// or runs away — a real failure for the stall/divergence detectors to
/// catch, not a mock.
struct CorruptApply<'a> {
    inner: &'a mut AnyPreconditioner,
    /// Entries per column of the k-column applies CG makes.
    n: usize,
}

impl Preconditioner for CorruptApply<'_> {
    fn apply(&mut self, r: &[f64], z: &mut [f64]) {
        self.inner.apply(r, z);
        for column in z.chunks_exact_mut(self.n.max(1)) {
            column.reverse();
            for zi in column.iter_mut().skip(1).step_by(2) {
                *zi = -*zi;
            }
        }
    }

    fn name(&self) -> &'static str {
        "fault-injected"
    }
}

/// Solves only the `pending` columns of `b`/`x`: gathers them into a
/// block of their own, runs the kernel and scatters the iterates back.
/// This is the cold path of an escalation that some columns survived, so
/// it may allocate.
#[cold]
fn solve_columns(
    a: &CsrMatrix,
    b: &[f64],
    x: &mut [f64],
    pending: &[usize],
    m: &mut dyn Preconditioner,
    opts: &SolveOptions,
    ws: &mut CgWorkspace,
) -> Result<CgSummary, NumericsError> {
    let n = a.rows();
    let gather = |v: &[f64]| -> Vec<f64> {
        pending.iter().flat_map(|&j| &v[j * n..(j + 1) * n]).copied().collect()
    };
    let sub_b = gather(b);
    let mut sub_x = gather(x);
    let result = preconditioned_cg(a, &sub_b, &mut sub_x, m, opts, ws);
    for (&j, column) in pending.iter().zip(sub_x.chunks_exact(n)) {
        x[j * n..(j + 1) * n].copy_from_slice(column);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletBuilder;

    /// 1-D Laplacian with Dirichlet ends: SPD, well conditioned at n = 50.
    fn laplacian(n: usize) -> Arc<CsrMatrix> {
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 2.0);
            if i > 0 {
                b.add(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.add(i, i + 1, -1.0);
            }
        }
        Arc::new(b.build())
    }

    /// Kershaw's SPD matrix, on which IC(0) breaks down: its pivots run
    /// 3, 5/3, 3/5, then −5. Jacobi (and a dense factorization) build.
    const KERSHAW: [[f64; 4]; 4] = [
        [3.0, -2.0, 0.0, 2.0],
        [-2.0, 3.0, -2.0, 0.0],
        [0.0, -2.0, 3.0, -2.0],
        [2.0, 0.0, -2.0, 3.0],
    ];

    /// Block-diag(`KERSHAW`, `laplacian(n)`): SPD, and IC(0) breaks down on
    /// its first block.
    fn kershaw_then_laplacian(n: usize) -> Arc<CsrMatrix> {
        let mut b = TripletBuilder::new(4 + n, 4 + n);
        for (i, row) in KERSHAW.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    b.add(i, j, v);
                }
            }
        }
        for i in 4..4 + n {
            b.add(i, i, 2.0);
            if i > 4 {
                b.add(i, i - 1, -1.0);
            }
            if i + 1 < 4 + n {
                b.add(i, i + 1, -1.0);
            }
        }
        Arc::new(b.build())
    }

    const CHAIN: &[PreconditionerKind] =
        &[PreconditionerKind::IncompleteCholesky, PreconditionerKind::Jacobi];

    #[test]
    fn healthy_ladder_converges_on_first_rung() {
        let a = laplacian(50);
        let b = vec![1.0; 50];
        let mut x = vec![0.0; 50];
        let mut ladder = SolveLadder::new(&a, CHAIN, true).unwrap();
        let mut ws = CgWorkspace::new();
        let summary = ladder.solve(&a, &b, &mut x, &SolveOptions::default(), &mut ws).unwrap();
        assert!(summary.converged);
        assert_eq!(summary.escalations, 0);
        assert_eq!(ladder.attempts().len(), 1);
        assert_eq!(ladder.attempts()[0].outcome, RungOutcome::Converged);
        assert_eq!(ladder.active_name(), "ic0");
    }

    #[test]
    fn injected_fault_escalates_and_recovers_to_same_answer() {
        let a = laplacian(50);
        let b = vec![1.0; 50];
        let opts = SolveOptions::default();
        let mut ws = CgWorkspace::new();

        let mut healthy = vec![0.0; 50];
        let mut ladder = SolveLadder::new(&a, CHAIN, true).unwrap();
        ladder.solve(&a, &b, &mut healthy, &opts, &mut ws).unwrap();

        let mut faulted = vec![0.0; 50];
        let mut ladder = SolveLadder::new(&a, CHAIN, true).unwrap();
        ladder.inject_apply_fault();
        let summary = ladder.solve(&a, &b, &mut faulted, &opts, &mut ws).unwrap();
        assert!(summary.converged, "ladder must recover through the Jacobi rung");
        assert_eq!(summary.escalations, 1);
        assert_eq!(ladder.active_name(), "jacobi");
        let first = &ladder.attempts()[0];
        assert_eq!(first.rung, "ic0");
        assert!(
            matches!(first.outcome, RungOutcome::Stalled | RungOutcome::Diverged),
            "corrupted apply must be caught by the stall/divergence detectors, got {:?}",
            first.outcome
        );
        for (h, f) in healthy.iter().zip(&faulted) {
            assert!((h - f).abs() <= 1e-9 * h.abs().max(1.0));
        }
    }

    #[test]
    fn escalation_is_sticky_across_solves() {
        let a = laplacian(50);
        let b = vec![1.0; 50];
        let opts = SolveOptions::default();
        let mut ws = CgWorkspace::new();
        let mut x = vec![0.0; 50];
        let mut ladder = SolveLadder::new(&a, CHAIN, true).unwrap();
        ladder.inject_apply_fault();
        ladder.solve(&a, &b, &mut x, &opts, &mut ws).unwrap();
        assert_eq!(ladder.active_name(), "jacobi");
        // The retired IC(0) rung stays retired even after the fault clears.
        ladder.clear_apply_faults();
        x.fill(0.0);
        let summary = ladder.solve(&a, &b, &mut x, &opts, &mut ws).unwrap();
        assert!(summary.converged);
        assert_eq!(summary.escalations, 0);
        assert_eq!(ladder.active_name(), "jacobi");
        assert_eq!(ladder.attempts().len(), 1);
    }

    #[test]
    fn faulted_block_escalates_only_its_failed_columns() {
        // Three columns on a corrupted IC(0) rung. Column 1 warm-starts at
        // a converged solution, so it converges at the iteration-0 check,
        // before the corrupted apply can matter, and is never solved
        // again; the two cold columns fail on IC(0) and recover on Jacobi.
        let n = 50;
        let a = laplacian(n);
        let b: Vec<f64> = (0..3 * n).map(|i| 1.0 + (i % 7) as f64).collect();
        let opts = SolveOptions::default();
        let mut ws = CgWorkspace::new();

        let mut healthy = vec![0.0; 3 * n];
        let mut ladder = SolveLadder::new(&a, CHAIN, true).unwrap();
        assert!(ladder.solve(&a, &b, &mut healthy, &opts, &mut ws).unwrap().converged);

        let mut x = vec![0.0; 3 * n];
        x[n..2 * n].copy_from_slice(&healthy[n..2 * n]);
        let warm_bits: Vec<u64> = x[n..2 * n].iter().map(|v| v.to_bits()).collect();
        let mut ladder = SolveLadder::new(&a, CHAIN, true).unwrap();
        ladder.inject_apply_fault();
        let summary = ladder.solve(&a, &b, &mut x, &opts, &mut ws).unwrap();
        assert!(summary.converged, "the failed columns must recover on Jacobi");
        assert_eq!(summary.escalations, 1);
        assert_eq!(ladder.active_name(), "jacobi");
        assert!(ladder.unconverged_columns().is_empty());
        let attempts = ladder.attempts();
        assert_eq!(attempts.len(), 2, "{attempts:?}");
        assert!(
            matches!(attempts[0].outcome, RungOutcome::Stalled | RungOutcome::Diverged),
            "corrupted apply must fail the cold columns, got {:?}",
            attempts[0].outcome
        );
        assert_eq!(attempts[1].outcome, RungOutcome::Converged);
        assert_eq!(ws.summaries().len(), 2, "only the two failed columns ran on Jacobi");

        let x_bits: Vec<u64> = x[n..2 * n].iter().map(|v| v.to_bits()).collect();
        assert_eq!(x_bits, warm_bits, "the warm column's field must not move");
        for c in [0, 2] {
            for (h, f) in healthy[c * n..(c + 1) * n].iter().zip(&x[c * n..(c + 1) * n]) {
                assert!((h - f).abs() <= 1e-9 * h.abs().max(1.0), "column {c}: {h} vs {f}");
            }
        }

        // Escalation is sticky for blocks too.
        ladder.clear_apply_faults();
        let mut again = vec![0.0; 3 * n];
        let summary = ladder.solve(&a, &b, &mut again, &opts, &mut ws).unwrap();
        assert!(summary.converged);
        assert_eq!(summary.escalations, 0);
        assert_eq!(ladder.active_name(), "jacobi");
    }

    #[test]
    fn last_rung_failure_returns_unconverged_summary() {
        let a = laplacian(50);
        let b = vec![1.0; 50];
        let opts = SolveOptions::default();
        let mut ws = CgWorkspace::new();
        let mut x = vec![0.0; 50];
        // Single-rung ladder with its only rung corrupted: nothing to
        // escalate to, so the failure must surface as a typed summary.
        let mut ladder = SolveLadder::new(&a, &[PreconditionerKind::Jacobi], true).unwrap();
        ladder.inject_apply_fault();
        let summary = ladder.solve(&a, &b, &mut x, &opts, &mut ws).unwrap();
        assert!(!summary.converged);
        assert_eq!(summary.escalations, 0);
        assert_eq!(ladder.attempts().len(), 1);
    }

    #[test]
    fn strict_ladder_propagates_rung_zero_build_errors() {
        let a = kershaw_then_laplacian(0);
        assert!(SolveLadder::new(&a, CHAIN, true).is_err());
        // Non-strict falls through to Jacobi and records the failure.
        let ladder = SolveLadder::new(&a, CHAIN, false).unwrap();
        assert_eq!(ladder.active_name(), "jacobi");
        assert_eq!(ladder.attempts()[0].outcome, RungOutcome::BuildFailed);
    }

    #[test]
    fn escalation_skips_a_rung_that_fails_to_build() {
        // The faulted multigrid rung fails, IC(0) breaks down on the
        // Kershaw block while escalation builds it, and Jacobi recovers
        // the healthy field: one escalation, three attempts.
        let a = kershaw_then_laplacian(46);
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let opts = SolveOptions::default();
        let mut ws = CgWorkspace::new();
        let chain = &[
            PreconditionerKind::Multigrid,
            PreconditionerKind::IncompleteCholesky,
            PreconditionerKind::Jacobi,
        ];

        let mut healthy = vec![0.0; n];
        let mut ladder = SolveLadder::new(&a, chain, true).unwrap();
        assert!(ladder.solve(&a, &b, &mut healthy, &opts, &mut ws).unwrap().converged);

        let mut x = vec![0.0; n];
        let mut ladder = SolveLadder::new(&a, chain, true).unwrap();
        ladder.inject_apply_fault();
        let summary = ladder.solve(&a, &b, &mut x, &opts, &mut ws).unwrap();
        assert!(summary.converged, "the ladder must recover on Jacobi");
        assert_eq!(summary.escalations, 1);
        assert_eq!(ladder.active_name(), "jacobi");
        let attempts = ladder.attempts();
        assert_eq!(attempts.len(), 3, "{attempts:?}");
        assert_eq!(attempts[0].rung, "multigrid");
        assert!(
            matches!(attempts[0].outcome, RungOutcome::Stalled | RungOutcome::Diverged),
            "corrupted apply must be caught by the stall/divergence detectors, got {:?}",
            attempts[0].outcome
        );
        assert_eq!((attempts[1].rung, attempts[1].outcome), ("ic0", RungOutcome::BuildFailed));
        assert_eq!((attempts[2].rung, attempts[2].outcome), ("jacobi", RungOutcome::Converged));
        for (h, f) in healthy.iter().zip(&x) {
            assert!((h - f).abs() <= 1e-9 * h.abs().max(1.0), "{h} vs {f}");
        }
    }

    #[test]
    fn ladder_does_not_retain_the_operator() {
        let a = laplacian(10);
        let _ladder = SolveLadder::new(&a, &[PreconditionerKind::Jacobi], true).unwrap();
        // Jacobi keeps only the inverse diagonal; the ladder itself must
        // not clone the Arc, or engines sharing one operator would see
        // phantom owners.
        assert_eq!(Arc::strong_count(&a), 1);
    }
}
