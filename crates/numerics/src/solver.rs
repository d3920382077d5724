//! Iterative solvers for the sparse SPD systems produced by FVM assembly.
//!
//! The workhorse is [`preconditioned_cg`]: conjugate gradient with a
//! pluggable [`Preconditioner`], warm-start initial guesses, and
//! caller-owned scratch buffers ([`CgWorkspace`]) so the iteration loop
//! performs **zero allocations** — the shape repeated transient stepping
//! and multi-right-hand-side sweeps need. It solves k ≥ 1 right-hand sides
//! per call: one vector for a steady solve or a transient step, a column
//! block for a batch of power paintings, whose independent recurrences
//! share each iteration's operator sweep and preconditioner pass.
//! [`conjugate_gradient`] is the one-shot cold-start Jacobi-CG entry point
//! over it, for small systems solved once (the lumped RC plant).

use crate::block_solver::BlockVector;
use crate::precond::{Jacobi, Preconditioner};
use crate::{CsrMatrix, NumericsError};

/// Convergence controls for conjugate gradient.
///
/// # Example
///
/// ```
/// use vcsel_numerics::solver::SolveOptions;
///
/// let opts = SolveOptions { tolerance: 1e-10, max_iterations: 20_000 };
/// assert!(opts.tolerance < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveOptions {
    /// Relative residual tolerance ‖b − Ax‖₂ / ‖b‖₂ at which to stop.
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iterations: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self { tolerance: 1e-9, max_iterations: 10_000 }
    }
}

/// Outcome of a successful [`conjugate_gradient`] solve.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// The computed solution vector.
    pub solution: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final relative residual norm.
    pub residual: f64,
    /// Whether the residual met the requested tolerance.
    /// [`conjugate_gradient`] errors on non-convergence, so its `Ok`
    /// solutions always carry `true`; the field exists so callers that
    /// forward a [`Solution`] never have to re-derive convergence from
    /// `residual` themselves.
    pub converged: bool,
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Caller-owned scratch for [`preconditioned_cg`]: the three column blocks
/// of the recurrence (residual, direction, and one block shared by the
/// operator times the direction and the preconditioned residual), the
/// per-column recurrence state and the per-column outcomes.
///
/// `A·p` and `z = M⁻¹r` share storage because they are never live at the
/// same time: `A·p` is born at the operator sweep and dies at the `x`/`r`
/// update, `z` is born at the preconditioner apply and dies at the `p`
/// update. Three blocks instead of four free one n×k block — 16.3 MB on
/// the five-column full-die `Fidelity::Fast` basis.
///
/// Holding one workspace per solve engine keeps the CG iteration loop free
/// of allocations across repeated solves: the buffers are resized once per
/// shape and reused afterwards. After a solve the workspace reports each
/// column's [`CgSummary`] and how much operator work the call did — the
/// quantities the deflation tests pin and the solve telemetry records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CgWorkspace {
    r: BlockVector,
    p: BlockVector,
    /// `A·p` from the operator sweep to the `x`/`r` update, then `z`
    /// from the preconditioner apply to the `p` update.
    zap: BlockVector,
    /// Packed active set: slot `s` of `r`, `p` and `zap` carries column
    /// `active[s]`, so the active columns are always the blocks' first
    /// `active.len()` columns.
    active: Vec<usize>,
    rz: Vec<f64>,
    b_norm: Vec<f64>,
    best: Vec<f64>,
    since_best: Vec<usize>,
    summaries: Vec<CgSummary>,
    operator_sweeps: u64,
    column_sweeps: u64,
    precond_applies: u64,
    /// Relative residual per iteration of the most recent single-column
    /// [`preconditioned_cg`] run, index 0 holding the pre-iteration
    /// (warm-start) residual. Cleared by every solve; filled only while
    /// [`log_residuals`](CgWorkspace::log_residuals) is set and the solve
    /// has one column. The solver only ever `clear`s and `push`es —
    /// callers that enable logging should `reserve` for
    /// `max_iterations + 2` entries up front so the CG loop itself never
    /// reallocates (the `SolveLadder` does).
    pub residual_history: Vec<f64>,
    /// Telemetry switch: when `true`, single-column [`preconditioned_cg`]
    /// runs record their per-iteration residuals into
    /// [`residual_history`](CgWorkspace::residual_history). Capturing
    /// never feeds back into the iteration, so enabling it cannot change
    /// a single bit of the solution.
    pub log_residuals: bool,
}

impl CgWorkspace {
    /// An empty workspace; buffers are sized lazily by the solver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sizes every buffer for one column of `n` unknowns, so a
    /// one-column solve on it never allocates, not even the first. The
    /// column blocks are allocated zeroed, so their pages stay untouched
    /// (and out of the resident set) until the first solve writes them;
    /// the per-column state is sized for 256 columns (`PRESIZED_COLUMNS`).
    pub fn with_capacity(n: usize) -> Self {
        Self {
            r: BlockVector::zeros(n, 1),
            p: BlockVector::zeros(n, 1),
            zap: BlockVector::zeros(n, 1),
            active: Vec::with_capacity(PRESIZED_COLUMNS),
            rz: Vec::with_capacity(PRESIZED_COLUMNS),
            b_norm: Vec::with_capacity(PRESIZED_COLUMNS),
            best: Vec::with_capacity(PRESIZED_COLUMNS),
            since_best: Vec::with_capacity(PRESIZED_COLUMNS),
            summaries: Vec::with_capacity(PRESIZED_COLUMNS),
            ..Self::default()
        }
    }

    /// Per-column outcomes of the most recent solve, in column order.
    pub fn summaries(&self) -> &[CgSummary] {
        &self.summaries
    }

    /// Operator sweeps ([`CsrMatrix::multiply_into`] calls on the packed
    /// active block) the most recent solve performed. With up to eight
    /// active columns this is the number of times the operator's nonzeros
    /// were streamed from memory — the quantity one block sweep amortizes
    /// over all active columns (a wider block streams them once per eight
    /// columns).
    pub fn operator_sweeps(&self) -> u64 {
        self.operator_sweeps
    }

    /// Per-column matvec work of the most recent solve: the sum over
    /// operator sweeps of the active column count. A deflated column stops
    /// contributing here — the counter the deflation tests pin.
    pub fn column_sweeps(&self) -> u64 {
        self.column_sweeps
    }

    /// Preconditioner applications, counted per column: one per active
    /// column per iteration plus the initial one, however many columns one
    /// [`Preconditioner::apply`] call serves. Whether blocking amortizes
    /// them depends on the preconditioner: IC(0) reads its factor once per
    /// eight active columns, multigrid streams every level's operators
    /// once per three, and Jacobi scales column by column.
    pub fn preconditioner_applies(&self) -> u64 {
        self.precond_applies
    }

    /// Resizes for `k` columns of `n` unknowns and clears the recurrence
    /// state and counters (capacity is kept).
    fn reset(&mut self, n: usize, k: usize) {
        self.r.reset(n, k);
        self.p.reset(n, k);
        self.zap.reset(n, k);
        self.active.clear();
        self.rz.clear();
        self.rz.resize(k, 0.0);
        self.b_norm.clear();
        self.b_norm.resize(k, 0.0);
        self.best.clear();
        self.best.resize(k, f64::INFINITY);
        self.since_best.clear();
        self.since_best.resize(k, 0);
        // Placeholders: every slot is overwritten before a solve returns
        // `Ok` (at the zero-RHS fast path, a deflation, or the
        // iteration-cap tail).
        self.summaries.clear();
        self.summaries.resize(
            k,
            CgSummary {
                iterations: 0,
                residual: f64::INFINITY,
                converged: false,
                stop: CgStop::IterationCap,
            },
        );
        self.operator_sweeps = 0;
        self.column_sweeps = 0;
        self.precond_applies = 0;
    }

    /// Deflates packed slot `s`: records the column's summary, swaps the
    /// slot's residual and direction with the last active one's and
    /// shrinks the packed block width by one. `zap` holds nothing live at
    /// a residual check, so it only shrinks.
    fn deflate(
        &mut self,
        s: usize,
        iterations: usize,
        residual: f64,
        converged: bool,
        stop: CgStop,
    ) {
        self.summaries[self.active[s]] = CgSummary { iterations, residual, converged, stop };
        let last = self.active.len() - 1;
        self.active.swap(s, last);
        self.r.swap_columns(s, last);
        self.p.swap_columns(s, last);
        self.active.pop();
        self.r.truncate_columns(last);
        self.p.truncate_columns(last);
        self.zap.truncate_columns(last);
    }
}

/// Columns [`CgWorkspace::with_capacity`] sizes the per-column state
/// (active list, recurrence scalars, summaries) for.
///
/// One column is all the solves that constructor serves need, but
/// one-column buffers are blocks of 8 to 24 bytes, and glibc keeps freed
/// blocks of up to 1 032 bytes in a per-thread cache that is never
/// coalesced with the free memory around them. With one-column buffers,
/// the `runtime_scenario` benchmark set-up, which builds and drops a
/// transient engine in a loop, took 186 k minor page faults instead of
/// 24.7 k and 22 % longer per build (2-thread Xeon, glibc 2.36). At 256
/// columns every buffer is at least 2 KiB, the faults match a workspace
/// with no pre-sized state, and batches up to this width never grow the
/// state either.
const PRESIZED_COLUMNS: usize = 256;

/// Iterations without a meaningful best-residual improvement (relative
/// improvement below 10⁻⁶) before [`preconditioned_cg`] declares a stall.
///
/// Healthy CG on our SPD systems improves its best residual far more than
/// one part in 10⁶ every few iterations even when convergence is slow; a
/// window this long without progress means the iteration is going nowhere
/// (e.g. a corrupted preconditioner made the search directions useless)
/// and burning the remaining iteration budget would not change that.
pub const STALL_WINDOW: usize = 500;

/// Minimum relative best-residual improvement that counts as progress for
/// the [`STALL_WINDOW`] stall detector.
const STALL_IMPROVEMENT: f64 = 1e-6;

/// Relative residual beyond which [`preconditioned_cg`] declares
/// divergence. A cold start begins at a relative residual of 1 and a warm
/// start near it; growth past this limit (or a NaN/Inf residual) means the
/// iterate is running away, not converging.
pub const DIVERGENCE_LIMIT: f64 = 1e10;

/// Why a [`preconditioned_cg`] run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CgStop {
    /// The relative residual met the tolerance.
    Converged,
    /// The iteration cap was reached with the residual still above the
    /// tolerance.
    IterationCap,
    /// The best residual made no meaningful progress for
    /// [`STALL_WINDOW`] consecutive iterations.
    Stalled,
    /// The residual exceeded [`DIVERGENCE_LIMIT`] or became non-finite.
    /// The caller's `x` holds a runaway iterate and must not be used.
    Diverged,
}

/// Iteration statistics of a [`preconditioned_cg`] solve (the solution
/// itself lands in the caller's `x`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgSummary {
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final relative residual norm ‖b − Ax‖₂ / ‖b‖₂.
    pub residual: f64,
    /// Whether `residual` met the requested tolerance. A `false` here is a
    /// typed outcome, not an error: the caller decides whether to escalate
    /// (e.g. through a [`SolveLadder`](crate::SolveLadder)), retry, or fail.
    pub converged: bool,
    /// Why the iteration stopped.
    pub stop: CgStop,
}

impl CgSummary {
    /// Converts a non-converged summary into the legacy
    /// [`NumericsError::NoConvergence`] error, for callers that have no
    /// recovery path and must fail loudly.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::NoConvergence`] when
    /// [`converged`](CgSummary::converged) is `false`.
    pub fn require_converged(self, opts: &SolveOptions) -> Result<CgSummary, NumericsError> {
        if self.converged {
            Ok(self)
        } else {
            Err(NumericsError::NoConvergence {
                iterations: self.iterations,
                residual: self.residual,
                tolerance: opts.tolerance,
            })
        }
    }
}

/// The summary of a whole multi-column call: the most iterations any
/// column ran, the largest final residual (NaN if any column's is NaN),
/// and convergence only if every column converged, with the first failing
/// column's stop reason. For one column it is that column's summary.
fn block_summary(columns: &[CgSummary]) -> CgSummary {
    let mut total =
        CgSummary { iterations: 0, residual: 0.0, converged: true, stop: CgStop::Converged };
    for s in columns {
        total.iterations = total.iterations.max(s.iterations);
        if s.residual.is_nan() || s.residual > total.residual {
            total.residual = s.residual;
        }
        if total.converged && !s.converged {
            total.converged = false;
            total.stop = s.stop;
        }
    }
    total
}

/// Column `j` of a column-major block of `n`-entry columns.
fn column(v: &[f64], n: usize, j: usize) -> &[f64] {
    &v[j * n..(j + 1) * n]
}

/// Mutable column `j` of a column-major block of `n`-entry columns.
fn column_mut(v: &mut [f64], n: usize, j: usize) -> &mut [f64] {
    &mut v[j * n..(j + 1) * n]
}

/// Solves `A X = B` for k ≥ 1 right-hand-side columns with preconditioned
/// conjugate gradient, warm-starting each column from the incoming `x`.
///
/// `b` and `x` hold the k columns back to back (column-major, each column
/// `A.rows()` long), so a plain n-vector is the k = 1 case. `x` is
/// **in/out**: on entry it is the initial guess (zeros for a cold start;
/// the previous time step or the previous right-hand side's solution for a
/// warm start), on return it holds the solution. Scratch comes from `ws`,
/// so the iteration loop allocates nothing; one workspace can serve many
/// solves of the same (or different) shapes.
///
/// `A` must be symmetric positive definite — which the FVM conduction
/// matrix always is (harmonic-mean conductances plus a positive Robin
/// boundary term). Convergence is declared per column on the *relative*
/// residual, so a warm start that already satisfies the tolerance stops
/// after zero iterations.
///
/// The columns run k *independent* CG recurrences in lockstep: each keeps
/// its own direction, step and residual, so a rank-deficient block
/// (duplicate right-hand sides) cannot break the iteration down, and a
/// column's iterates, iteration count and residual do not depend on which
/// other columns share the call — a column solved inside a block is
/// **bitwise** the same as that column solved alone. What the block shares
/// is memory traffic: each iteration's matvecs ride one
/// [`CsrMatrix::multiply_into`] call on the packed block and its
/// preconditioner applies one [`Preconditioner::apply`] call on the packed
/// residuals.
/// Columns that stop (converged, stalled, diverged) are **deflated** out
/// of the packed block so later sweeps do no work for them.
///
/// Failure to converge is a **typed outcome**, not an error: hitting the
/// iteration cap, stalling ([`STALL_WINDOW`] iterations without progress)
/// or diverging (residual past [`DIVERGENCE_LIMIT`] or non-finite) ends a
/// column with [`CgSummary::converged`] `false` and the reason in
/// [`CgSummary::stop`]. Each column's summary lands in
/// [`CgWorkspace::summaries`]; the returned summary covers the whole call
/// (the most iterations any column ran, the largest residual, and
/// convergence only if every column converged) and for k = 1 is the
/// column's own. Callers must check the flag — an unconverged column of
/// `x` holds its last iterate, which after a [`CgStop::Diverged`] stop
/// must not be used. Callers without a recovery path can use
/// [`CgSummary::require_converged`]; callers with fallback preconditioners
/// should use a [`SolveLadder`](crate::SolveLadder).
///
/// # Errors
///
/// * [`NumericsError::BadMatrix`] if `A` is not square or indefiniteness is
///   detected (`pᵀAp ≤ 0` on any column),
/// * [`NumericsError::DimensionMismatch`] if `b` is not a whole number of
///   columns or `x` differs from `b` in length,
/// * [`NumericsError::BadInput`] for non-finite entries in `b` or `x`.
///
/// # Example
///
/// ```
/// use vcsel_numerics::solver::{preconditioned_cg, CgWorkspace, SolveOptions};
/// use vcsel_numerics::{IncompleteCholesky, TripletBuilder};
///
/// let mut b = TripletBuilder::new(2, 2);
/// b.add(0, 0, 4.0); b.add(1, 1, 9.0);
/// let a = b.build();
/// let mut m = IncompleteCholesky::new(&a)?;
/// let mut ws = CgWorkspace::new();
/// let mut x = vec![0.0; 2];
/// let stats = preconditioned_cg(&a, &[8.0, 27.0], &mut x, &mut m, &Default::default(), &mut ws)?;
/// assert!((x[0] - 2.0).abs() < 1e-9 && (x[1] - 3.0).abs() < 1e-9);
/// // Warm restart from the solution: converged before the first iteration.
/// let again = preconditioned_cg(&a, &[8.0, 27.0], &mut x, &mut m, &Default::default(), &mut ws)?;
/// assert_eq!(again.iterations, 0);
///
/// // Two right-hand sides in one call, back to back.
/// let mut xs = vec![0.0; 4];
/// let opts = SolveOptions::default();
/// let both = preconditioned_cg(&a, &[8.0, 27.0, 4.0, 0.0], &mut xs, &mut m, &opts, &mut ws)?;
/// assert!(both.converged && ws.summaries().len() == 2);
/// assert!((xs[2] - 1.0).abs() < 1e-9 && xs[3].abs() < 1e-9);
/// # Ok::<(), vcsel_numerics::NumericsError>(())
/// ```
pub fn preconditioned_cg<P: Preconditioner + ?Sized>(
    a: &CsrMatrix,
    b: &[f64],
    x: &mut [f64],
    m: &mut P,
    opts: &SolveOptions,
    ws: &mut CgWorkspace,
) -> Result<CgSummary, NumericsError> {
    let n = a.rows();
    let k = b.len().checked_div(n).unwrap_or(0);
    // A stale history or counter from the previous solve must never be
    // read as this one's, even when validation fails; resetting keeps the
    // buffers' capacity (no allocation).
    ws.residual_history.clear();
    ws.reset(n, k);
    if a.rows() != a.cols() {
        return Err(non_square_error(a));
    }
    if b.len() != k * n {
        return Err(NumericsError::DimensionMismatch {
            what: "right-hand side (whole columns)",
            expected: (k + 1) * n,
            got: b.len(),
        });
    }
    if x.len() != b.len() {
        return Err(NumericsError::DimensionMismatch {
            what: "initial guess",
            expected: b.len(),
            got: x.len(),
        });
    }
    if let Some(i) = b.iter().position(|v| !v.is_finite()) {
        return Err(non_finite_error("right-hand side", i / n));
    }
    if let Some(i) = x.iter().position(|v| !v.is_finite()) {
        return Err(non_finite_error("initial guess", i / n));
    }
    let log = ws.log_residuals && k == 1;

    // Zero right-hand sides converge to x = 0 before the iteration.
    for j in 0..k {
        let bn = norm2(column(b, n, j));
        ws.b_norm[j] = bn;
        if bn == 0.0 {
            column_mut(x, n, j).fill(0.0);
            ws.summaries[j] = CgSummary {
                iterations: 0,
                residual: 0.0,
                converged: true,
                stop: CgStop::Converged,
            };
        } else {
            ws.active.push(j);
        }
    }
    let m0 = ws.active.len();
    ws.r.truncate_columns(m0);
    ws.p.truncate_columns(m0);
    ws.zap.truncate_columns(m0);
    if m0 == 0 {
        return Ok(block_summary(&ws.summaries));
    }

    // r = b − A·x, skipping the operator sweep when every guess is zero.
    // In a mixed block the all-zero columns ride the sweep: A·0 is exactly
    // 0.0 and b − 0.0 is bitwise b, so the shortcut and the sweep agree to
    // the last bit.
    let any_warm = ws.active.iter().any(|&j| column(x, n, j).iter().any(|&v| v != 0.0));
    if any_warm {
        for s in 0..m0 {
            ws.p.column_mut(s).copy_from_slice(column(x, n, ws.active[s]));
        }
        a.multiply_into(ws.p.data(), ws.zap.data_mut());
        ws.operator_sweeps += 1;
        ws.column_sweeps += m0 as u64;
        for s in 0..m0 {
            let j = ws.active[s];
            let rs = ws.r.column_mut(s);
            for ((ri, bi), ai) in rs.iter_mut().zip(column(b, n, j)).zip(ws.zap.column(s)) {
                *ri = bi - ai;
            }
        }
    } else {
        for s in 0..m0 {
            ws.r.column_mut(s).copy_from_slice(column(b, n, ws.active[s]));
        }
    }

    // z = M⁻¹ r for the whole active set, then p = z, rz = ⟨r, z⟩.
    m.apply(ws.r.data(), ws.zap.data_mut());
    ws.precond_applies += m0 as u64;
    for s in 0..m0 {
        let j = ws.active[s];
        ws.p.column_mut(s).copy_from_slice(ws.zap.column(s));
        ws.rz[j] = dot(ws.r.column(s), ws.zap.column(s));
    }

    for iteration in 0..opts.max_iterations {
        // Residual checks (tolerance → divergence → stall), deflating
        // finished columns out of the packed block. Not advancing `s`
        // after a deflation re-examines the swapped-in column, so every
        // active column is checked exactly once.
        let mut s = 0;
        while s < ws.active.len() {
            let j = ws.active[s];
            let res = norm2(ws.r.column(s)) / ws.b_norm[j];
            if log {
                ws.residual_history.push(res);
            }
            if res <= opts.tolerance {
                ws.deflate(s, iteration, res, true, CgStop::Converged);
                continue;
            }
            if !res.is_finite() || res > DIVERGENCE_LIMIT {
                ws.deflate(s, iteration, res, false, CgStop::Diverged);
                continue;
            }
            if res < ws.best[j] * (1.0 - STALL_IMPROVEMENT) {
                ws.best[j] = res;
                ws.since_best[j] = 0;
            } else {
                ws.since_best[j] += 1;
                if ws.since_best[j] >= STALL_WINDOW {
                    ws.deflate(s, iteration, res, false, CgStop::Stalled);
                    continue;
                }
            }
            s += 1;
        }
        let width = ws.active.len();
        if width == 0 {
            break;
        }

        // One operator sweep serves every still-active column's matvec.
        a.multiply_into(ws.p.data(), ws.zap.data_mut());
        ws.operator_sweeps += 1;
        ws.column_sweeps += width as u64;

        // Step every active column (the last reads of `A·p`), precondition
        // them all in one call into the same block, then turn every
        // direction. Each column keeps its own order of operations; only
        // the interleaving across columns changes.
        for s in 0..width {
            let j = ws.active[s];
            let pap = dot(ws.p.column(s), ws.zap.column(s));
            if pap <= 0.0 {
                return Err(indefinite_matrix_error(pap));
            }
            let alpha = ws.rz[j] / pap;
            let xj = column_mut(x, n, j);
            let rs = ws.r.column_mut(s);
            let ps = ws.p.column(s);
            let aps = ws.zap.column(s);
            for (i, xi) in xj.iter_mut().enumerate() {
                *xi += alpha * ps[i];
                rs[i] -= alpha * aps[i];
            }
        }
        m.apply(ws.r.data(), ws.zap.data_mut());
        ws.precond_applies += width as u64;
        for s in 0..width {
            let j = ws.active[s];
            let rz_next = dot(ws.r.column(s), ws.zap.column(s));
            let beta = rz_next / ws.rz[j];
            ws.rz[j] = rz_next;
            let ps = ws.p.column_mut(s);
            let zs = ws.zap.column(s);
            for (i, pi) in ps.iter_mut().enumerate() {
                *pi = zs[i] + beta * *pi;
            }
        }
    }

    // Iteration cap: the final residual of every column still active.
    for s in 0..ws.active.len() {
        let j = ws.active[s];
        let res = norm2(ws.r.column(s)) / ws.b_norm[j];
        if log {
            ws.residual_history.push(res);
        }
        let converged = res <= opts.tolerance;
        ws.summaries[j] = CgSummary {
            iterations: opts.max_iterations,
            residual: res,
            converged,
            stop: if converged { CgStop::Converged } else { CgStop::IterationCap },
        };
    }
    Ok(block_summary(&ws.summaries))
}

/// Builds the indefinite-matrix error outside the CG iteration loop: the
/// loop body is a registered hot path (lint.toml) and must stay
/// allocation-free, while this failure path may format freely.
#[cold]
#[inline(never)]
fn indefinite_matrix_error(pap: f64) -> NumericsError {
    NumericsError::BadMatrix {
        reason: format!("matrix is not positive definite (pᵀAp = {pap:.3e})"),
    }
}

/// The non-square-operator error, built off the hot path (see
/// [`indefinite_matrix_error`]).
#[cold]
#[inline(never)]
fn non_square_error(a: &CsrMatrix) -> NumericsError {
    NumericsError::BadMatrix {
        reason: format!("matrix must be square, got {}x{}", a.rows(), a.cols()),
    }
}

/// The non-finite-input error for column `column` of `what`, built off the
/// hot path (see [`indefinite_matrix_error`]).
#[cold]
#[inline(never)]
fn non_finite_error(what: &str, column: usize) -> NumericsError {
    NumericsError::BadInput { reason: format!("{what} column {column} contains non-finite values") }
}

/// Solves `A x = b` with Jacobi-preconditioned conjugate gradient from a
/// zero initial guess.
///
/// This is the legacy one-shot entry point; engines that solve the same
/// system repeatedly should hold a [`Preconditioner`]
/// and a [`CgWorkspace`] and call [`preconditioned_cg`] directly.
///
/// # Errors
///
/// * [`NumericsError::BadMatrix`] if `A` is not square or has a
///   non-positive diagonal entry,
/// * [`NumericsError::DimensionMismatch`] if `b` has the wrong length,
/// * [`NumericsError::NoConvergence`] if the iteration cap is reached.
///
/// # Example
///
/// ```
/// use vcsel_numerics::{TripletBuilder, solver};
///
/// let mut b = TripletBuilder::new(2, 2);
/// b.add(0, 0, 4.0); b.add(1, 1, 9.0);
/// let a = b.build();
/// let s = solver::conjugate_gradient(&a, &[8.0, 27.0], &Default::default())?;
/// assert!((s.solution[0] - 2.0).abs() < 1e-9);
/// assert!((s.solution[1] - 3.0).abs() < 1e-9);
/// # Ok::<(), vcsel_numerics::NumericsError>(())
/// ```
pub fn conjugate_gradient(
    a: &CsrMatrix,
    b: &[f64],
    opts: &SolveOptions,
) -> Result<Solution, NumericsError> {
    // The kernel validates everything else; a one-shot solve takes
    // exactly one column.
    if b.len() != a.rows() {
        return Err(NumericsError::DimensionMismatch {
            what: "right-hand side",
            expected: a.rows(),
            got: b.len(),
        });
    }
    let mut m = Jacobi::new(a)?;
    let mut x = vec![0.0; a.rows()];
    let mut ws = CgWorkspace::new();
    let stats = preconditioned_cg(a, b, &mut x, &mut m, opts, &mut ws)?.require_converged(opts)?;
    Ok(Solution {
        solution: x,
        iterations: stats.iterations,
        residual: stats.residual,
        converged: stats.converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletBuilder;

    fn laplacian_1d(n: usize) -> CsrMatrix {
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
        b.build()
    }

    fn check_residual(a: &CsrMatrix, b: &[f64], x: &[f64], tol: f64) {
        let ax = a.mul_vec(x).unwrap();
        let res: f64 = ax.iter().zip(b).map(|(l, r)| (l - r) * (l - r)).sum::<f64>().sqrt();
        let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(res / bn <= tol * 10.0, "residual {res} too large vs {bn}");
    }

    #[test]
    fn cg_solves_laplacian() {
        let n = 50;
        let a = laplacian_1d(n);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let s = conjugate_gradient(&a, &b, &SolveOptions::default()).unwrap();
        check_residual(&a, &b, &s.solution, 1e-9);
        assert!(s.iterations <= n + 1, "CG must converge in at most n iterations");
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let a = laplacian_1d(5);
        let s = conjugate_gradient(&a, &[0.0; 5], &SolveOptions::default()).unwrap();
        assert_eq!(s.solution, vec![0.0; 5]);
        assert_eq!(s.iterations, 0);
    }

    #[test]
    fn cg_rejects_indefinite_matrix() {
        let mut b = TripletBuilder::new(2, 2);
        b.add(0, 0, 1.0);
        b.add(0, 1, 3.0);
        b.add(1, 0, 3.0);
        b.add(1, 1, 1.0); // eigenvalues 4, -2 -> indefinite
        let a = b.build();
        // [1, -1] has negative curvature for this matrix, so the first CG
        // step must detect p^T A p < 0.
        let err = conjugate_gradient(&a, &[1.0, -1.0], &SolveOptions::default()).unwrap_err();
        assert!(matches!(err, NumericsError::BadMatrix { .. }), "got {err:?}");
    }

    #[test]
    fn cg_rejects_nonpositive_diagonal() {
        let mut b = TripletBuilder::new(2, 2);
        b.add(0, 0, -1.0);
        b.add(1, 1, 1.0);
        let a = b.build();
        assert!(conjugate_gradient(&a, &[1.0, 1.0], &SolveOptions::default()).is_err());
    }

    #[test]
    fn rhs_length_checked() {
        let a = laplacian_1d(4);
        let err = conjugate_gradient(&a, &[1.0; 3], &SolveOptions::default()).unwrap_err();
        assert!(matches!(err, NumericsError::DimensionMismatch { .. }));
    }

    #[test]
    fn nonfinite_rhs_rejected() {
        let a = laplacian_1d(2);
        assert!(conjugate_gradient(&a, &[f64::NAN, 0.0], &SolveOptions::default()).is_err());
    }

    #[test]
    fn no_convergence_reports_residual() {
        let a = laplacian_1d(40);
        let b = vec![1.0; 40];
        let opts = SolveOptions { tolerance: 1e-14, max_iterations: 2 };
        match conjugate_gradient(&a, &b, &opts) {
            Err(NumericsError::NoConvergence { iterations, residual, .. }) => {
                assert_eq!(iterations, 2);
                assert!(residual > 0.0);
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn warm_start_from_solution_converges_immediately() {
        let n = 60;
        let a = laplacian_1d(n);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).cos()).collect();
        let mut m = crate::Jacobi::new(&a).unwrap();
        let mut ws = CgWorkspace::new();
        let mut x = vec![0.0; n];
        let cold = preconditioned_cg(&a, &b, &mut x, &mut m, &SolveOptions::default(), &mut ws)
            .expect("cold solve");
        assert!(cold.iterations > 0);
        let warm = preconditioned_cg(&a, &b, &mut x, &mut m, &SolveOptions::default(), &mut ws)
            .expect("warm solve");
        assert_eq!(warm.iterations, 0, "solution-as-guess must converge before iterating");
    }

    #[test]
    fn warm_start_near_solution_needs_fewer_iterations() {
        // A diagonally shifted Laplacian — the `A + C/Δt` shape backward
        // Euler produces — where CG converges by residual contraction
        // rather than by exhausting the Krylov space, so a good initial
        // guess genuinely saves iterations.
        let n = 80;
        let mut tb = TripletBuilder::with_capacity(n, n, 3 * n);
        for i in 0..n {
            tb.add(i, i, 3.0);
            if i > 0 {
                tb.add(i, i - 1, -1.0);
            }
            if i + 1 < n {
                tb.add(i, i + 1, -1.0);
            }
        }
        let a = tb.build();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let mut m = crate::Jacobi::new(&a).unwrap();
        let mut ws = CgWorkspace::new();
        let mut cold_x = vec![0.0; n];
        let cold =
            preconditioned_cg(&a, &b, &mut cold_x, &mut m, &SolveOptions::default(), &mut ws)
                .expect("cold");
        // Perturb the converged solution slightly: the warm solve must beat
        // the cold iteration count by a wide margin.
        let mut warm_x: Vec<f64> = cold_x.iter().map(|v| v * 1.000_001).collect();
        let warm =
            preconditioned_cg(&a, &b, &mut warm_x, &mut m, &SolveOptions::default(), &mut ws)
                .expect("warm");
        assert!(
            warm.iterations * 2 < cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
        check_residual(&a, &b, &warm_x, 1e-9);
    }

    #[test]
    fn ic0_cg_beats_jacobi_cg_on_anisotropic_stencil() {
        // A 2-D 5-point stencil with a 100:1 conductance anisotropy — the
        // shape high-aspect-ratio FVM cells produce. IC(0) must agree with
        // Jacobi and take at most half the iterations.
        let (nx, ny) = (24, 24);
        let n = nx * ny;
        let mut tb = TripletBuilder::with_capacity(n, n, 5 * n);
        let (gx, gy) = (100.0, 1.0);
        for j in 0..ny {
            for i in 0..nx {
                let c = j * nx + i;
                let mut diag = 1e-3;
                if i + 1 < nx {
                    tb.add(c, c + 1, -gx);
                    tb.add(c + 1, c, -gx);
                    diag += gx;
                }
                if i > 0 {
                    diag += gx;
                }
                if j + 1 < ny {
                    tb.add(c, c + nx, -gy);
                    tb.add(c + nx, c, -gy);
                    diag += gy;
                }
                if j > 0 {
                    diag += gy;
                }
                tb.add(c, c, diag);
            }
        }
        let a = tb.build();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).sin() + 1.5).collect();
        let opts = SolveOptions { tolerance: 1e-10, max_iterations: 100_000 };

        let mut jac = crate::Jacobi::new(&a).unwrap();
        let mut ic = crate::IncompleteCholesky::new(&a).unwrap();
        let mut ws = CgWorkspace::new();
        let mut xj = vec![0.0; n];
        let sj = preconditioned_cg(&a, &b, &mut xj, &mut jac, &opts, &mut ws).unwrap();
        let mut xi = vec![0.0; n];
        let si = preconditioned_cg(&a, &b, &mut xi, &mut ic, &opts, &mut ws).unwrap();

        for (p, q) in xj.iter().zip(&xi) {
            assert!((p - q).abs() < 1e-5 * p.abs().max(1.0), "{p} vs {q}");
        }
        assert!(
            2 * si.iterations <= sj.iterations,
            "IC(0) took {} iterations vs Jacobi {}",
            si.iterations,
            sj.iterations
        );
    }

    #[test]
    fn pcg_validates_guess() {
        let a = laplacian_1d(4);
        let mut m = crate::Jacobi::new(&a).unwrap();
        let mut ws = CgWorkspace::new();
        let mut short = vec![0.0; 3];
        assert!(matches!(
            preconditioned_cg(&a, &[1.0; 4], &mut short, &mut m, &Default::default(), &mut ws),
            Err(NumericsError::DimensionMismatch { .. })
        ));
        let mut bad = vec![f64::NAN; 4];
        assert!(matches!(
            preconditioned_cg(&a, &[1.0; 4], &mut bad, &mut m, &Default::default(), &mut ws),
            Err(NumericsError::BadInput { .. })
        ));
    }

    #[test]
    fn with_capacity_workspace_runs_its_first_solve_without_growing() {
        // Every buffer a one-column solve touches is pre-sized, so the
        // first solve on a fresh workspace (the multigrid Jacobi-CG coarse
        // fallback builds one per hierarchy) neither grows nor shrinks an
        // allocation.
        let n = 64;
        let a = laplacian_1d(n);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin() + 0.5).collect();
        let mut m = crate::Jacobi::new(&a).unwrap();
        let mut ws = CgWorkspace::with_capacity(n);
        let capacities = |ws: &CgWorkspace| {
            [
                ws.r.capacity(),
                ws.p.capacity(),
                ws.zap.capacity(),
                ws.active.capacity(),
                ws.rz.capacity(),
                ws.b_norm.capacity(),
                ws.best.capacity(),
                ws.since_best.capacity(),
                ws.summaries.capacity(),
            ]
        };
        let before = capacities(&ws);
        assert!(before.iter().all(|&c| c > 0), "unsized buffers: {before:?}");
        let mut x = vec![0.0; n];
        let stats =
            preconditioned_cg(&a, &b, &mut x, &mut m, &SolveOptions::default(), &mut ws).unwrap();
        assert!(stats.converged && stats.iterations > 0);
        assert_eq!(capacities(&ws), before, "a buffer was reallocated");
    }

    #[test]
    fn pcg_zero_rhs_zeroes_the_guess() {
        let a = laplacian_1d(4);
        let mut m = crate::Jacobi::new(&a).unwrap();
        let mut ws = CgWorkspace::new();
        let mut x = vec![7.0; 4];
        let s =
            preconditioned_cg(&a, &[0.0; 4], &mut x, &mut m, &Default::default(), &mut ws).unwrap();
        assert_eq!(x, vec![0.0; 4]);
        assert_eq!(s.iterations, 0);
    }
}
