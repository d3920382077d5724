//! Block (multi-right-hand-side) conjugate gradient.
//!
//! Design-space sweeps ask the same operator many questions at once: one
//! assembled FVM matrix, k power paintings. Solving the k systems one at a
//! time re-reads the ~12 bytes/nonzero operator once per column per
//! iteration; [`block_preconditioned_cg`] instead runs k *independent* CG
//! recurrences in lockstep and serves every iteration's k matvecs from
//! **one sweep** of the operator ([`CsrMatrix::multiply_block_into`]) and
//! its k preconditioner applies from one
//! [`Preconditioner::apply_columns`] call — for IC(0), one pass over the
//! factor.
//!
//! "Independent" is the load-bearing word: unlike classical block-CG, the
//! columns share no Krylov space — each keeps its own direction, step and
//! residual, so a rank-deficient block (duplicate right-hand sides) cannot
//! break the iteration down, and every column reproduces its scalar
//! [`preconditioned_cg`](crate::solver::preconditioned_cg) run *bitwise*
//! (same dot products, same update order, same stall/divergence policy).
//! Columns that converge, stall or diverge are **deflated**: swapped out of
//! the packed active block so later sweeps do no work for them, with a
//! per-column [`CgSummary`] recording how each one stopped.

use crate::precond::Preconditioner;
use crate::solver::{
    dot, indefinite_matrix_error, norm2, CgStop, CgSummary, SolveOptions, DIVERGENCE_LIMIT,
    STALL_IMPROVEMENT, STALL_WINDOW,
};
use crate::{CsrMatrix, NumericsError};

/// A dense column block: k vectors of n entries in column-major storage,
/// so every column is one contiguous `&[f64]` (what the scalar
/// [`Preconditioner`] applies and the deflation swaps need).
///
/// # Example
///
/// ```
/// use vcsel_numerics::BlockVector;
///
/// let mut b = BlockVector::zeros(3, 2);
/// b.column_mut(1).copy_from_slice(&[1.0, 2.0, 3.0]);
/// assert_eq!(b.column(0), &[0.0; 3]);
/// assert_eq!(b.column(1), &[1.0, 2.0, 3.0]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockVector {
    n: usize,
    k: usize,
    data: Vec<f64>,
}

impl BlockVector {
    /// An n×k block of zeros.
    pub fn zeros(n: usize, k: usize) -> Self {
        Self { n, k, data: vec![0.0; n * k] }
    }

    /// Builds a block from column slices.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if the columns do not
    /// all share the first column's length.
    pub fn from_columns(columns: &[&[f64]]) -> Result<Self, NumericsError> {
        let n = columns.first().map_or(0, |c| c.len());
        let mut data = Vec::with_capacity(n * columns.len());
        for col in columns {
            if col.len() != n {
                return Err(NumericsError::DimensionMismatch {
                    what: "block column",
                    expected: n,
                    got: col.len(),
                });
            }
            data.extend_from_slice(col);
        }
        Ok(Self { n, k: columns.len(), data })
    }

    /// Rows per column.
    pub fn rows(&self) -> usize {
        self.n
    }

    /// Number of columns.
    pub fn columns(&self) -> usize {
        self.k
    }

    /// Column `j` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.columns()`.
    pub fn column(&self, j: usize) -> &[f64] {
        &self.data[j * self.n..(j + 1) * self.n]
    }

    /// Mutable column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.columns()`.
    pub fn column_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.n..(j + 1) * self.n]
    }

    /// Sets every entry of every column.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// The `W` listed columns as slices, in list order.
    ///
    /// # Panics
    ///
    /// Panics if `list` has fewer than `W` entries or names a column out
    /// of range.
    pub(crate) fn listed<const W: usize>(&self, list: &[usize]) -> [&[f64]; W] {
        std::array::from_fn(|c| self.column(list[c]))
    }

    /// The `W` listed columns as disjoint mutable slices, in list order.
    ///
    /// # Panics
    ///
    /// Panics unless `list` names exactly `W` distinct in-range columns.
    pub(crate) fn listed_mut<const W: usize>(&mut self, list: &[usize]) -> [&mut [f64]; W] {
        assert_eq!(list.len(), W, "listed_mut needs exactly W columns");
        let n = self.n;
        let mut out: [&mut [f64]; W] = std::array::from_fn(|_| Default::default());
        for (j, column) in self.data.chunks_exact_mut(n.max(1)).enumerate() {
            if let Some(slot) = list.iter().position(|&c| c == j) {
                out[slot] = column;
            }
        }
        assert!(out.iter().all(|c| c.len() == n), "listed columns must be distinct and in range");
        out
    }

    /// The raw column-major storage (used by the threaded block SpMV to
    /// hand disjoint row bands of every column to workers).
    pub(crate) fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Swaps columns `i` and `j` in place (deflation packing).
    pub(crate) fn swap_columns(&mut self, i: usize, j: usize) {
        if i == j {
            return;
        }
        let n = self.n;
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        let (head, tail) = self.data.split_at_mut(hi * n);
        head[lo * n..(lo + 1) * n].swap_with_slice(&mut tail[..n]);
    }

    /// Drops trailing columns, keeping the allocation.
    pub(crate) fn truncate_columns(&mut self, k: usize) {
        debug_assert!(k <= self.k);
        self.data.truncate(self.n * k);
        self.k = k;
    }

    /// Resizes to n×k without preserving contents.
    fn reset(&mut self, n: usize, k: usize) {
        self.data.clear();
        self.data.resize(n * k, 0.0);
        self.n = n;
        self.k = k;
    }
}

/// Caller-owned scratch for [`block_preconditioned_cg`]: the four block
/// buffers plus the per-column recurrence state, resized once per shape and
/// reused across solves so the iteration loop allocates nothing.
///
/// After a solve, the workspace's counters report how much operator work
/// the block actually did — the quantities the deflation tests pin and the
/// batch telemetry records.
#[derive(Debug, Clone, Default)]
pub struct BlockCgWorkspace {
    r: BlockVector,
    z: BlockVector,
    p: BlockVector,
    ap: BlockVector,
    /// Packed active set: slot `s` of `p`/`ap` carries column `active[s]`.
    active: Vec<usize>,
    rz: Vec<f64>,
    b_norm: Vec<f64>,
    best: Vec<f64>,
    since_best: Vec<usize>,
    operator_sweeps: u64,
    column_sweeps: u64,
    precond_applies: u64,
}

impl BlockCgWorkspace {
    /// An empty workspace; buffers are sized lazily by the solver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Operator sweeps ([`CsrMatrix::multiply_block_into`] calls) the most
    /// recent solve performed. With up to eight active columns this is the
    /// number of times the operator's nonzeros were streamed from memory —
    /// the quantity one block sweep amortizes over all active columns (a
    /// wider block streams them once per eight columns).
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
    /// column per iteration, however many columns one
    /// [`Preconditioner::apply_columns`] call serves. Whether blocking
    /// amortizes them depends on the preconditioner: IC(0) reads its
    /// factor once per call for the whole active set; the others apply
    /// column by column.
    pub fn preconditioner_applies(&self) -> u64 {
        self.precond_applies
    }

    fn reset(&mut self, n: usize, k: usize) {
        self.r.reset(n, k);
        self.z.reset(n, k);
        self.p.reset(n, k);
        self.ap.reset(n, k);
        self.active.clear();
        self.rz.clear();
        self.rz.resize(k, 0.0);
        self.b_norm.clear();
        self.b_norm.resize(k, 0.0);
        self.best.clear();
        self.best.resize(k, f64::INFINITY);
        self.since_best.clear();
        self.since_best.resize(k, 0);
        self.operator_sweeps = 0;
        self.column_sweeps = 0;
        self.precond_applies = 0;
    }
}

/// Deflates packed slot `s`: records the column's summary, swaps the slot
/// with the last active one and shrinks the packed block width by one.
fn deflate(
    ws: &mut BlockCgWorkspace,
    summaries: &mut [CgSummary],
    s: usize,
    iterations: usize,
    residual: f64,
    converged: bool,
    stop: CgStop,
) {
    summaries[ws.active[s]] = CgSummary { iterations, residual, converged, stop };
    let last = ws.active.len() - 1;
    ws.active.swap(s, last);
    ws.p.swap_columns(s, last);
    ws.active.pop();
    ws.p.truncate_columns(last);
    ws.ap.truncate_columns(last);
}

/// Solves `A X = B` for k right-hand-side columns with preconditioned
/// conjugate gradient, warm-starting each column from the incoming `x`.
///
/// Every column runs the exact scalar
/// [`preconditioned_cg`](crate::solver::preconditioned_cg) recurrence —
/// same operation order, same stall ([`STALL_WINDOW`]) and divergence
/// ([`DIVERGENCE_LIMIT`]) policy, so with `k = 1` the solution, iteration
/// count and residual are **bitwise identical** to the scalar solver. What
/// the block form changes is purely the memory traffic: each iteration's k
/// matvecs ride one sweep of the operator
/// ([`CsrMatrix::multiply_block_into`]), its k preconditioner applies one
/// [`Preconditioner::apply_columns`] call, and columns that stop
/// (converged, stalled, diverged) are deflated out of the packed block so
/// the remaining sweeps shrink. Because the columns share no Krylov space,
/// duplicate (rank-deficient) right-hand sides are harmless — each copy
/// just traces the same recurrence.
///
/// Per column the outcome lands in its [`CgSummary`] slot of the returned
/// vector; non-convergence is a typed per-column outcome, not an error.
/// After a [`CgStop::Diverged`] stop that column of `x` holds a runaway
/// iterate and must not be used.
///
/// # Errors
///
/// * [`NumericsError::BadMatrix`] if `A` is not square or indefiniteness
///   is detected (`pᵀAp ≤ 0` on any column),
/// * [`NumericsError::DimensionMismatch`] if `b` or `x` have the wrong
///   shape,
/// * [`NumericsError::BadInput`] for non-finite entries in `b` or `x`.
///
/// # Example
///
/// ```
/// use vcsel_numerics::solver::SolveOptions;
/// use vcsel_numerics::{
///     block_preconditioned_cg, BlockCgWorkspace, BlockVector, Jacobi, TripletBuilder,
/// };
///
/// let mut t = TripletBuilder::new(2, 2);
/// t.add(0, 0, 4.0);
/// t.add(1, 1, 9.0);
/// let a = t.build();
/// let b = BlockVector::from_columns(&[&[8.0, 27.0], &[4.0, 0.0]])?;
/// let mut x = BlockVector::zeros(2, 2);
/// let mut m = Jacobi::new(&a)?;
/// let mut ws = BlockCgWorkspace::new();
/// let summaries =
///     block_preconditioned_cg(&a, &b, &mut x, &mut m, &SolveOptions::default(), &mut ws)?;
/// assert!(summaries.iter().all(|s| s.converged));
/// assert!((x.column(0)[0] - 2.0).abs() < 1e-9 && (x.column(0)[1] - 3.0).abs() < 1e-9);
/// assert!((x.column(1)[0] - 1.0).abs() < 1e-9 && x.column(1)[1].abs() < 1e-9);
/// # Ok::<(), vcsel_numerics::NumericsError>(())
/// ```
pub fn block_preconditioned_cg<P: Preconditioner + ?Sized>(
    a: &CsrMatrix,
    b: &BlockVector,
    x: &mut BlockVector,
    m: &mut P,
    opts: &SolveOptions,
    ws: &mut BlockCgWorkspace,
) -> Result<Vec<CgSummary>, NumericsError> {
    if a.rows() != a.cols() {
        return Err(NumericsError::BadMatrix {
            reason: format!("matrix must be square, got {}x{}", a.rows(), a.cols()),
        });
    }
    let n = a.rows();
    if b.rows() != n {
        return Err(NumericsError::DimensionMismatch {
            what: "right-hand-side block rows",
            expected: n,
            got: b.rows(),
        });
    }
    let k = b.columns();
    if x.rows() != n {
        return Err(NumericsError::DimensionMismatch {
            what: "initial guess block rows",
            expected: n,
            got: x.rows(),
        });
    }
    if x.columns() != k {
        return Err(NumericsError::DimensionMismatch {
            what: "initial guess block columns",
            expected: k,
            got: x.columns(),
        });
    }
    for j in 0..k {
        if b.column(j).iter().any(|v| !v.is_finite()) {
            return Err(NumericsError::BadInput {
                reason: format!("right-hand-side column {j} contains non-finite values"),
            });
        }
        if x.column(j).iter().any(|v| !v.is_finite()) {
            return Err(NumericsError::BadInput {
                reason: format!("initial guess column {j} contains non-finite values"),
            });
        }
    }

    ws.reset(n, k);
    // Placeholder summaries: every slot is overwritten before return (at
    // the zero-RHS fast path, a deflation, or the iteration-cap tail).
    let mut summaries = vec![
        CgSummary {
            iterations: 0,
            residual: f64::INFINITY,
            converged: false,
            stop: CgStop::IterationCap,
        };
        k
    ];

    // Zero right-hand sides converge to x = 0 before the iteration, the
    // scalar fast path applied per column.
    for (j, summary) in summaries.iter_mut().enumerate() {
        let bn = norm2(b.column(j));
        ws.b_norm[j] = bn;
        if bn == 0.0 {
            x.column_mut(j).fill(0.0);
            *summary = CgSummary {
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
    ws.p.truncate_columns(m0);
    ws.ap.truncate_columns(m0);
    if m0 == 0 {
        return Ok(summaries);
    }

    // r = b − A·x, skipping the operator sweep when every guess is zero
    // (the scalar warm-start fast path). In a mixed batch the all-zero
    // columns ride the sweep: A·0 is exactly 0.0 and b − 0.0 is bitwise b,
    // so the shortcut and the sweep agree to the last bit.
    let any_warm = ws.active.iter().any(|&j| x.column(j).iter().any(|&v| v != 0.0));
    if any_warm {
        for s in 0..m0 {
            let j = ws.active[s];
            ws.p.column_mut(s).copy_from_slice(x.column(j));
        }
        a.multiply_block_into(&ws.p, &mut ws.ap);
        ws.operator_sweeps += 1;
        ws.column_sweeps += m0 as u64;
        for s in 0..m0 {
            let j = ws.active[s];
            let rj = ws.r.column_mut(j);
            for (i, ri) in rj.iter_mut().enumerate() {
                *ri = b.column(j)[i] - ws.ap.column(s)[i];
            }
        }
    } else {
        for s in 0..m0 {
            let j = ws.active[s];
            ws.r.column_mut(j).copy_from_slice(b.column(j));
        }
    }

    // z = M⁻¹ r for the whole active set, then p = z, rz = ⟨r, z⟩.
    m.apply_columns(&ws.r, &mut ws.z, &ws.active);
    ws.precond_applies += m0 as u64;
    for s in 0..m0 {
        let j = ws.active[s];
        ws.p.column_mut(s).copy_from_slice(ws.z.column(j));
        ws.rz[j] = dot(ws.r.column(j), ws.z.column(j));
    }

    for iteration in 0..opts.max_iterations {
        // Residual checks in scalar order (tolerance → divergence →
        // stall), deflating finished columns out of the packed block. Not
        // advancing `s` after a deflation re-examines the swapped-in
        // column, so every active column is checked exactly once.
        let mut s = 0;
        while s < ws.active.len() {
            let j = ws.active[s];
            let res = norm2(ws.r.column(j)) / ws.b_norm[j];
            if res <= opts.tolerance {
                deflate(ws, &mut summaries, s, iteration, res, true, CgStop::Converged);
                continue;
            }
            if !res.is_finite() || res > DIVERGENCE_LIMIT {
                deflate(ws, &mut summaries, s, iteration, res, false, CgStop::Diverged);
                continue;
            }
            if res < ws.best[j] * (1.0 - STALL_IMPROVEMENT) {
                ws.best[j] = res;
                ws.since_best[j] = 0;
            } else {
                ws.since_best[j] += 1;
                if ws.since_best[j] >= STALL_WINDOW {
                    deflate(ws, &mut summaries, s, iteration, res, false, CgStop::Stalled);
                    continue;
                }
            }
            s += 1;
        }
        let width = ws.active.len();
        if width == 0 {
            return Ok(summaries);
        }

        // One operator sweep serves every still-active column's matvec.
        a.multiply_block_into(&ws.p, &mut ws.ap);
        ws.operator_sweeps += 1;
        ws.column_sweeps += width as u64;

        // Step every active column, precondition them all in one call,
        // then turn every direction. Each column keeps the scalar order of
        // operations; only the interleaving across columns changes.
        for s in 0..width {
            let j = ws.active[s];
            let pap = dot(ws.p.column(s), ws.ap.column(s));
            if pap <= 0.0 {
                return Err(indefinite_matrix_error(pap));
            }
            let alpha = ws.rz[j] / pap;
            let xj = x.column_mut(j);
            let rj = ws.r.column_mut(j);
            let ps = ws.p.column(s);
            let aps = ws.ap.column(s);
            for (i, xi) in xj.iter_mut().enumerate() {
                *xi += alpha * ps[i];
                rj[i] -= alpha * aps[i];
            }
        }
        m.apply_columns(&ws.r, &mut ws.z, &ws.active);
        ws.precond_applies += width as u64;
        for s in 0..width {
            let j = ws.active[s];
            let rz_next = dot(ws.r.column(j), ws.z.column(j));
            let beta = rz_next / ws.rz[j];
            ws.rz[j] = rz_next;
            let ps = ws.p.column_mut(s);
            let zj = ws.z.column(j);
            for (i, pi) in ps.iter_mut().enumerate() {
                *pi = zj[i] + beta * *pi;
            }
        }
    }

    // Iteration cap: the scalar tail, per remaining column.
    for s in 0..ws.active.len() {
        let j = ws.active[s];
        let res = norm2(ws.r.column(j)) / ws.b_norm[j];
        let converged = res <= opts.tolerance;
        summaries[j] = CgSummary {
            iterations: opts.max_iterations,
            residual: res,
            converged,
            stop: if converged { CgStop::Converged } else { CgStop::IterationCap },
        };
    }
    Ok(summaries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{IncompleteCholesky, Jacobi};
    use crate::solver::{preconditioned_cg, CgWorkspace};
    use crate::TripletBuilder;

    /// 3-D 7-point SPD stencil with a small Robin-like diagonal shift.
    fn stencil_3d(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
        let n = nx * ny * nz;
        let idx = |i: usize, j: usize, l: usize| (l * ny + j) * nx + i;
        let mut b = TripletBuilder::with_capacity(n, n, 7 * n);
        for l in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let c = idx(i, j, l);
                    let mut diag = 1e-2;
                    let mut link = |other: usize, diag: &mut f64| {
                        b.add(c, other, -1.0);
                        *diag += 1.0;
                    };
                    if i + 1 < nx {
                        link(idx(i + 1, j, l), &mut diag);
                    }
                    if i > 0 {
                        link(idx(i - 1, j, l), &mut diag);
                    }
                    if j + 1 < ny {
                        link(idx(i, j + 1, l), &mut diag);
                    }
                    if j > 0 {
                        link(idx(i, j - 1, l), &mut diag);
                    }
                    if l + 1 < nz {
                        link(idx(i, j, l + 1), &mut diag);
                    }
                    if l > 0 {
                        link(idx(i, j, l - 1), &mut diag);
                    }
                    b.add(c, c, diag);
                }
            }
        }
        b.build()
    }

    /// Deterministic pseudo-random vector (LCG), entries in (-1, 1).
    fn pseudo_random(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn block_spmv_matches_scalar_per_column() {
        // k = 1..=9 crosses the chunk boundary at CsrMatrix::BLOCK_COLUMNS.
        let a = stencil_3d(5, 4, 3);
        let n = a.rows();
        for k in 1..=9u64 {
            let cols: Vec<Vec<f64>> = (0..k).map(|s| pseudo_random(n, 7 + s)).collect();
            let refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
            let x = BlockVector::from_columns(&refs).unwrap();
            let mut y = BlockVector::zeros(n, refs.len());
            a.mul_block_into(&x, &mut y);
            let mut y_threaded = BlockVector::zeros(n, refs.len());
            a.mul_block_into_threaded(&x, &mut y_threaded, 3);
            for (j, col) in cols.iter().enumerate() {
                let mut scalar = vec![0.0; n];
                a.mul_vec_into(col, &mut scalar);
                assert_eq!(bits(y.column(j)), bits(&scalar), "k={k} column {j} serial");
                assert_eq!(bits(y_threaded.column(j)), bits(&scalar), "k={k} column {j} threaded");
            }
        }
    }

    #[test]
    fn staggered_ic0_block_matches_scalar_columns_bitwise() {
        // Nine columns (one more than a preconditioner sweep serves) with
        // warm starts of graded quality, so columns deflate mid-solve and
        // the active set shrinks and reorders under the multi-column apply.
        let a = stencil_3d(7, 6, 5);
        let n = a.rows();
        let opts = SolveOptions { tolerance: 1e-10, ..Default::default() };
        let mut m = IncompleteCholesky::new(&a).unwrap();
        let mut ws_scalar = CgWorkspace::new();
        let rhs: Vec<Vec<f64>> = (0..9).map(|c| pseudo_random(n, 31 + c)).collect();
        let guesses: Vec<Vec<f64>> = rhs
            .iter()
            .enumerate()
            .map(|(c, b)| {
                let mut guess = vec![0.0; n];
                let head_start = SolveOptions { max_iterations: 3 * c, ..opts };
                preconditioned_cg(&a, b, &mut guess, &mut m, &head_start, &mut ws_scalar).unwrap();
                guess
            })
            .collect();

        let rhs_refs: Vec<&[f64]> = rhs.iter().map(Vec::as_slice).collect();
        let guess_refs: Vec<&[f64]> = guesses.iter().map(Vec::as_slice).collect();
        let blk = BlockVector::from_columns(&rhs_refs).unwrap();
        let mut x = BlockVector::from_columns(&guess_refs).unwrap();
        let mut ws = BlockCgWorkspace::new();
        let block = block_preconditioned_cg(&a, &blk, &mut x, &mut m, &opts, &mut ws).unwrap();

        let mut distinct = block.iter().map(|s| s.iterations).collect::<Vec<_>>();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() > 3, "warm starts must stagger the deflations: {block:?}");
        for (c, summary) in block.iter().enumerate() {
            let mut x_scalar = guesses[c].clone();
            let scalar =
                preconditioned_cg(&a, &rhs[c], &mut x_scalar, &mut m, &opts, &mut ws_scalar)
                    .unwrap();
            assert!(scalar.converged && summary.converged, "column {c}");
            assert_eq!(scalar.iterations, summary.iterations, "column {c}");
            assert_eq!(scalar.residual.to_bits(), summary.residual.to_bits(), "column {c}");
            assert_eq!(bits(&x_scalar), bits(x.column(c)), "column {c}");
        }
        let total: u64 = block.iter().map(|s| s.iterations as u64).sum();
        assert_eq!(ws.preconditioner_applies(), total + 9, "one apply per active column");
    }

    #[test]
    fn k1_degenerates_to_scalar_cg_bitwise() {
        let a = stencil_3d(6, 5, 4);
        let n = a.rows();
        let rhs = pseudo_random(n, 42);
        let opts = SolveOptions { tolerance: 1e-11, ..Default::default() };

        for ic0 in [false, true] {
            let mut x_scalar = vec![0.0; n];
            let mut ws_scalar = CgWorkspace::new();
            let mut x_block = BlockVector::zeros(n, 1);
            let mut ws_block = BlockCgWorkspace::new();
            let (scalar, block) = if ic0 {
                let mut m = IncompleteCholesky::new(&a).unwrap();
                let s = preconditioned_cg(&a, &rhs, &mut x_scalar, &mut m, &opts, &mut ws_scalar)
                    .unwrap();
                let blk = BlockVector::from_columns(&[&rhs]).unwrap();
                let b =
                    block_preconditioned_cg(&a, &blk, &mut x_block, &mut m, &opts, &mut ws_block)
                        .unwrap();
                (s, b)
            } else {
                let mut m = Jacobi::new(&a).unwrap();
                let s = preconditioned_cg(&a, &rhs, &mut x_scalar, &mut m, &opts, &mut ws_scalar)
                    .unwrap();
                let blk = BlockVector::from_columns(&[&rhs]).unwrap();
                let b =
                    block_preconditioned_cg(&a, &blk, &mut x_block, &mut m, &opts, &mut ws_block)
                        .unwrap();
                (s, b)
            };
            assert_eq!(block.len(), 1);
            assert!(scalar.converged && block[0].converged);
            assert_eq!(scalar.iterations, block[0].iterations, "ic0={ic0}");
            assert_eq!(scalar.residual.to_bits(), block[0].residual.to_bits(), "ic0={ic0}");
            assert_eq!(bits(&x_scalar), bits(x_block.column(0)), "ic0={ic0}");
        }
    }

    #[test]
    fn k1_warm_start_also_bitwise() {
        let a = stencil_3d(5, 5, 3);
        let n = a.rows();
        let rhs = pseudo_random(n, 3);
        let guess = pseudo_random(n, 9);
        let opts = SolveOptions::default();
        let mut m = Jacobi::new(&a).unwrap();

        let mut x_scalar = guess.clone();
        let mut ws_scalar = CgWorkspace::new();
        let scalar =
            preconditioned_cg(&a, &rhs, &mut x_scalar, &mut m, &opts, &mut ws_scalar).unwrap();

        let blk = BlockVector::from_columns(&[&rhs]).unwrap();
        let mut x_block = BlockVector::from_columns(&[&guess]).unwrap();
        let mut ws_block = BlockCgWorkspace::new();
        let block =
            block_preconditioned_cg(&a, &blk, &mut x_block, &mut m, &opts, &mut ws_block).unwrap();

        assert_eq!(scalar.iterations, block[0].iterations);
        assert_eq!(bits(&x_scalar), bits(x_block.column(0)));
    }

    #[test]
    fn duplicate_rhs_columns_converge_without_breakdown() {
        let a = stencil_3d(5, 4, 4);
        let n = a.rows();
        let base = pseudo_random(n, 11);
        let scaled: Vec<f64> = base.iter().map(|v| 2.0 * v).collect();
        let other = pseudo_random(n, 12);
        // Rank-deficient block: col1 duplicates col0, col2 is a multiple.
        let blk = BlockVector::from_columns(&[&base, &base, &scaled, &other]).unwrap();
        let mut x = BlockVector::zeros(n, 4);
        let mut m = IncompleteCholesky::new(&a).unwrap();
        let mut ws = BlockCgWorkspace::new();
        let opts = SolveOptions::default();
        let summaries = block_preconditioned_cg(&a, &blk, &mut x, &mut m, &opts, &mut ws).unwrap();
        assert!(summaries.iter().all(|s| s.converged), "{summaries:?}");
        // Identical recurrences: the duplicate column's trajectory is the
        // original's, bit for bit.
        assert_eq!(bits(x.column(0)), bits(x.column(1)));
        assert_eq!(summaries[0].iterations, summaries[1].iterations);
        assert!(summaries[3].residual <= opts.tolerance);
    }

    #[test]
    fn converged_column_stops_contributing_spmv_work() {
        let a = stencil_3d(6, 4, 3);
        let n = a.rows();
        let rhs = pseudo_random(n, 21);
        let opts = SolveOptions::default();
        let mut m = Jacobi::new(&a).unwrap();

        // Column 1 warm-starts at the exact solution and deflates at the
        // iteration-0 residual check; column 0 runs cold to convergence.
        let mut solution = vec![0.0; n];
        let mut ws_scalar = CgWorkspace::new();
        let cold =
            preconditioned_cg(&a, &rhs, &mut solution, &mut m, &opts, &mut ws_scalar).unwrap();
        assert!(cold.converged && cold.iterations > 0);

        let blk = BlockVector::from_columns(&[&rhs, &rhs]).unwrap();
        let zero = vec![0.0; n];
        let mut x = BlockVector::from_columns(&[&zero, &solution]).unwrap();
        let mut ws = BlockCgWorkspace::new();
        let summaries = block_preconditioned_cg(&a, &blk, &mut x, &mut m, &opts, &mut ws).unwrap();
        assert!(summaries[0].converged && summaries[1].converged);
        assert_eq!(summaries[1].iterations, 0, "warm column deflates before any sweep");

        // Counter pin: the deflated column contributed exactly one column
        // sweep (the warm-start residual evaluation); every iteration
        // sweep ran at width 1. Without deflation the same solve would
        // cost twice the iteration work.
        let iters = summaries[0].iterations as u64;
        assert_eq!(ws.operator_sweeps(), 1 + iters);
        assert_eq!(ws.column_sweeps(), 2 + iters);
        assert!(ws.column_sweeps() < 2 * (1 + iters), "deflation must shed the warm column");
    }

    #[test]
    fn zero_rhs_column_converges_at_zero_without_work() {
        let a = stencil_3d(4, 4, 2);
        let n = a.rows();
        let rhs = pseudo_random(n, 5);
        let zeros = vec![0.0; n];
        let blk = BlockVector::from_columns(&[&zeros, &rhs]).unwrap();
        let mut x = BlockVector::zeros(n, 2);
        x.column_mut(0).fill(3.0); // garbage guess: the fast path must clear it
        let mut m = Jacobi::new(&a).unwrap();
        let mut ws = BlockCgWorkspace::new();
        let summaries =
            block_preconditioned_cg(&a, &blk, &mut x, &mut m, &SolveOptions::default(), &mut ws)
                .unwrap();
        assert!(summaries[0].converged && summaries[0].iterations == 0);
        assert!(x.column(0).iter().all(|&v| v == 0.0));
        assert!(summaries[1].converged);
    }

    #[test]
    fn shape_errors_are_typed() {
        let a = stencil_3d(3, 3, 2);
        let n = a.rows();
        let mut m = Jacobi::new(&a).unwrap();
        let mut ws = BlockCgWorkspace::new();
        let opts = SolveOptions::default();

        let short = BlockVector::zeros(n - 1, 2);
        let mut x = BlockVector::zeros(n, 2);
        assert!(matches!(
            block_preconditioned_cg(&a, &short, &mut x, &mut m, &opts, &mut ws),
            Err(NumericsError::DimensionMismatch { .. })
        ));

        let b = BlockVector::zeros(n, 2);
        let mut narrow = BlockVector::zeros(n, 1);
        assert!(matches!(
            block_preconditioned_cg(&a, &b, &mut narrow, &mut m, &opts, &mut ws),
            Err(NumericsError::DimensionMismatch { .. })
        ));

        let bad = BlockVector::from_columns(&[&vec![f64::NAN; n]]).unwrap();
        let mut x1 = BlockVector::zeros(n, 1);
        assert!(matches!(
            block_preconditioned_cg(&a, &bad, &mut x1, &mut m, &opts, &mut ws),
            Err(NumericsError::BadInput { .. })
        ));

        assert!(matches!(
            BlockVector::from_columns(&[&[1.0, 2.0][..], &[1.0][..]]),
            Err(NumericsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn empty_block_returns_no_summaries() {
        let a = stencil_3d(3, 3, 2);
        let n = a.rows();
        let b = BlockVector::zeros(n, 0);
        let mut x = BlockVector::zeros(n, 0);
        let mut m = Jacobi::new(&a).unwrap();
        let mut ws = BlockCgWorkspace::new();
        let summaries =
            block_preconditioned_cg(&a, &b, &mut x, &mut m, &SolveOptions::default(), &mut ws)
                .unwrap();
        assert!(summaries.is_empty());
    }
}
