//! Column blocks for the multi-right-hand-side CG kernel.
//!
//! Design-space sweeps ask the same operator many questions at once: one
//! assembled FVM matrix, k power paintings.
//! [`preconditioned_cg`](crate::solver::preconditioned_cg) runs their k
//! independent recurrences in lockstep and keeps its per-column state in
//! three [`BlockVector`]s packed in active-column order, so every
//! iteration's k matvecs come from **one sweep** of the operator
//! ([`CsrMatrix::multiply_into`](crate::CsrMatrix::multiply_into) on the
//! block's storage, up to eight columns per pass over `A`)
//! and its k preconditioner applies from one
//! [`Preconditioner::apply`](crate::Preconditioner::apply) call on the
//! same storage — for IC(0), one pass over the factor per eight columns;
//! for multigrid, one V-cycle pass over every level per three columns.

use crate::NumericsError;

/// A dense column block: k vectors of n entries in column-major storage,
/// so every column is one contiguous `&[f64]` and the whole block is the
/// back-to-back layout [`Preconditioner::apply`](crate::Preconditioner::apply)
/// and the deflation shifts need.
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

    /// The columns back to back: the layout
    /// [`CsrMatrix::multiply_into`](crate::CsrMatrix::multiply_into)
    /// multiplies in one call.
    pub(crate) fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable form of [`BlockVector::data`].
    pub(crate) fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Removes column `j`, shifting the later columns down one (deflation
    /// packing keeps the column order), and keeps the allocation.
    pub(crate) fn remove_column(&mut self, j: usize) {
        let n = self.n;
        self.data.copy_within((j + 1) * n.., j * n);
        self.truncate_columns(self.k - 1);
    }

    /// Drops trailing columns, keeping the allocation.
    pub(crate) fn truncate_columns(&mut self, k: usize) {
        debug_assert!(k <= self.k);
        self.data.truncate(self.n * k);
        self.k = k;
    }

    /// Resizes to n×k without preserving contents.
    pub(crate) fn reset(&mut self, n: usize, k: usize) {
        self.data.clear();
        self.data.resize(n * k, 0.0);
        self.n = n;
        self.k = k;
    }

    /// Entries the storage holds without reallocating.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.data.capacity()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::precond::{IncompleteCholesky, Jacobi, Preconditioner};
    use crate::solver::{block_cg, preconditioned_cg, CgWorkspace, SolveOptions};
    use crate::{CsrMatrix, Multigrid, MultigridConfig, NumericsError, TripletBuilder};

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
        // The packed storage CG multiplies: k = 1..=9 crosses the
        // eight-column pass boundary, at several worker counts.
        let a = stencil_3d(5, 4, 3);
        let n = a.rows();
        for k in 1..=9u64 {
            let cols: Vec<Vec<f64>> = (0..k).map(|s| pseudo_random(n, 7 + s)).collect();
            let refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
            let x = BlockVector::from_columns(&refs).unwrap();
            for threads in [1, 2, 3, 7] {
                let mut y = BlockVector::zeros(n, refs.len());
                a.multiply_with_threads(x.data(), y.data_mut(), Some(threads));
                for (j, col) in cols.iter().enumerate() {
                    let mut scalar = vec![0.0; n];
                    a.multiply_with_threads(col, &mut scalar, Some(1));
                    assert_eq!(
                        bits(y.column(j)),
                        bits(&scalar),
                        "k={k} column {j}, {threads} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn staggered_ic0_block_matches_scalar_columns_bitwise() {
        // Nine columns (one more than an IC(0) sweep serves, three block
        // V-cycle passes) with warm starts of graded quality, so columns
        // deflate mid-solve and the active set shrinks under the
        // multi-column apply, leaving gaps between the columns a worker's
        // group holds. At 1 to 4 pinned workers for CG's column loops
        // (9 columns over 4 workers are groups of 2, 2, 2 and 3), every
        // column must come out bitwise as a one-column, one-worker call
        // of the same kernel leaves it, with the same iteration count,
        // with IC(0) and with a multigrid V-cycle as the preconditioner.
        let a = Arc::new(stencil_3d(7, 6, 5));
        let n = a.rows();
        let config = MultigridConfig { direct_cells: 20, ..Default::default() };
        let multigrid = Multigrid::new(Arc::clone(&a), &config).unwrap();
        assert!(multigrid.hierarchy().level_count() >= 2, "the V-cycle must coarsen");
        // Head starts of `stride · c` iterations for column c: multigrid
        // converges in a third of IC(0)'s iterations.
        let preconditioners: [(Box<dyn Preconditioner>, usize); 2] =
            [(Box::new(IncompleteCholesky::new(&a).unwrap()), 3), (Box::new(multigrid), 1)];
        let opts = SolveOptions { tolerance: 1e-10, ..Default::default() };
        for (mut m, stride) in preconditioners {
            let mut ws = CgWorkspace::new();
            let rhs: Vec<Vec<f64>> = (0..9).map(|c| pseudo_random(n, 31 + c)).collect();
            let guesses: Vec<Vec<f64>> = rhs
                .iter()
                .enumerate()
                .map(|(c, b)| {
                    let mut guess = vec![0.0; n];
                    let head_start = SolveOptions { max_iterations: stride * c, ..opts };
                    preconditioned_cg(&a, b, &mut guess, m.as_mut(), &head_start, &mut ws).unwrap();
                    guess
                })
                .collect();

            let singles: Vec<_> = (0..9)
                .map(|c| {
                    let mut x_one = guesses[c].clone();
                    let one =
                        block_cg(&a, &rhs[c], &mut x_one, m.as_mut(), &opts, &mut ws, Some(1))
                            .unwrap();
                    (one, x_one)
                })
                .collect();
            let name = m.name();
            for threads in 1..=4 {
                let mut x = guesses.concat();
                let b = rhs.concat();
                block_cg(&a, &b, &mut x, m.as_mut(), &opts, &mut ws, Some(threads)).unwrap();
                let block = ws.summaries().to_vec();
                let mut distinct = block.iter().map(|s| s.iterations).collect::<Vec<_>>();
                distinct.sort_unstable();
                distinct.dedup();
                assert!(
                    distinct.len() > 3,
                    "{name}: warm starts must stagger deflations: {block:?}"
                );
                for (c, (summary, (one, x_one))) in block.iter().zip(&singles).enumerate() {
                    let at = format!("{name} column {c}, {threads} workers");
                    assert!(one.converged && summary.converged, "{at}");
                    assert_eq!(one.iterations, summary.iterations, "{at}");
                    assert_eq!(one.residual.to_bits(), summary.residual.to_bits(), "{at}");
                    assert_eq!(bits(x_one), bits(&x[c * n..(c + 1) * n]), "{at}");
                }
                let total: u64 = block.iter().map(|s| s.iterations as u64).sum();
                let applies = ws.preconditioner_applies();
                assert_eq!(applies, total + 9, "{name}: one apply per active column");
            }
        }
    }

    #[test]
    fn non_positive_curvature_in_a_worker_group_is_the_serial_error() {
        // [[1, 3], [3, 1]] has eigenvalues 4 and −2, and Jacobi is the
        // identity on it, so the first step's pᵀAp is bᵀAb: 8 for [1, 1],
        // −4 for [1, −1] and −16 for [2, −2]. Column 0 runs on a spawned
        // worker at every pinned count above one, and the error must be
        // the one the serial loop stops at (column 0's), not a panic.
        let mut t = TripletBuilder::new(2, 2);
        t.add(0, 0, 1.0);
        t.add(0, 1, 3.0);
        t.add(1, 0, 3.0);
        t.add(1, 1, 1.0);
        let a = t.build();
        let mut m = Jacobi::new(&a).unwrap();
        let mut ws = CgWorkspace::new();
        let b = [1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 2.0, -2.0];
        let opts = SolveOptions::default();
        let mut serial_x = vec![0.0; 8];
        let serial = block_cg(&a, &b, &mut serial_x, &mut m, &opts, &mut ws, Some(1)).unwrap_err();
        assert!(matches!(serial, NumericsError::BadMatrix { .. }), "{serial:?}");
        assert!(serial.to_string().contains("-4.000e0"), "{serial}");
        for threads in 2..=4 {
            let mut x = vec![0.0; 8];
            let err = block_cg(&a, &b, &mut x, &mut m, &opts, &mut ws, Some(threads)).unwrap_err();
            assert_eq!(err, serial, "{threads} workers");
        }
    }

    #[test]
    fn duplicate_rhs_columns_converge_without_breakdown() {
        let a = stencil_3d(5, 4, 4);
        let n = a.rows();
        let base = pseudo_random(n, 11);
        let scaled: Vec<f64> = base.iter().map(|v| 2.0 * v).collect();
        let other = pseudo_random(n, 12);
        // Rank-deficient block: col1 duplicates col0, col2 is a multiple.
        let b = [base.as_slice(), &base, &scaled, &other].concat();
        let mut x = vec![0.0; 4 * n];
        let mut m = IncompleteCholesky::new(&a).unwrap();
        let mut ws = CgWorkspace::new();
        let opts = SolveOptions::default();
        preconditioned_cg(&a, &b, &mut x, &mut m, &opts, &mut ws).unwrap();
        let summaries = ws.summaries();
        assert!(summaries.iter().all(|s| s.converged), "{summaries:?}");
        // Identical recurrences: the duplicate column's trajectory is the
        // original's, bit for bit.
        assert_eq!(bits(&x[..n]), bits(&x[n..2 * n]));
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
        let mut ws = CgWorkspace::new();

        // Column 1 warm-starts at the exact solution and deflates at the
        // iteration-0 residual check; column 0 runs cold to convergence.
        let mut solution = vec![0.0; n];
        let cold = preconditioned_cg(&a, &rhs, &mut solution, &mut m, &opts, &mut ws).unwrap();
        assert!(cold.converged && cold.iterations > 0);

        let b = [rhs.as_slice(), &rhs].concat();
        let mut x = [vec![0.0; n], solution].concat();
        preconditioned_cg(&a, &b, &mut x, &mut m, &opts, &mut ws).unwrap();
        let summaries = ws.summaries();
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
        let b = [vec![0.0; n], pseudo_random(n, 5)].concat();
        let mut x = vec![0.0; 2 * n];
        x[..n].fill(3.0); // garbage guess: the fast path must clear it
        let mut m = Jacobi::new(&a).unwrap();
        let mut ws = CgWorkspace::new();
        preconditioned_cg(&a, &b, &mut x, &mut m, &SolveOptions::default(), &mut ws).unwrap();
        let summaries = ws.summaries();
        assert!(summaries[0].converged && summaries[0].iterations == 0);
        assert!(x[..n].iter().all(|&v| v == 0.0));
        assert!(summaries[1].converged);
    }

    #[test]
    fn shape_errors_are_typed() {
        let a = stencil_3d(3, 3, 2);
        let n = a.rows();
        let mut m = Jacobi::new(&a).unwrap();
        let mut ws = CgWorkspace::new();
        let opts = SolveOptions::default();

        // Not a whole number of columns.
        let ragged = vec![1.0; 2 * n - 1];
        let mut x = vec![0.0; 2 * n - 1];
        assert!(matches!(
            preconditioned_cg(&a, &ragged, &mut x, &mut m, &opts, &mut ws),
            Err(NumericsError::DimensionMismatch { .. })
        ));

        // A guess narrower than the right-hand side.
        let b = vec![1.0; 2 * n];
        let mut narrow = vec![0.0; n];
        assert!(matches!(
            preconditioned_cg(&a, &b, &mut narrow, &mut m, &opts, &mut ws),
            Err(NumericsError::DimensionMismatch { .. })
        ));

        let mut bad = b.clone();
        bad[n + 2] = f64::NAN;
        let mut x2 = vec![0.0; 2 * n];
        match preconditioned_cg(&a, &bad, &mut x2, &mut m, &opts, &mut ws) {
            Err(NumericsError::BadInput { reason }) => {
                assert!(reason.contains("column 1"), "{reason}")
            }
            other => panic!("expected BadInput, got {other:?}"),
        }

        assert!(matches!(
            BlockVector::from_columns(&[&[1.0, 2.0][..], &[1.0][..]]),
            Err(NumericsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn empty_block_returns_no_summaries() {
        let a = stencil_3d(3, 3, 2);
        let mut m = Jacobi::new(&a).unwrap();
        let mut ws = CgWorkspace::new();
        let summary =
            preconditioned_cg(&a, &[], &mut [], &mut m, &SolveOptions::default(), &mut ws).unwrap();
        assert!(ws.summaries().is_empty());
        assert!(summary.converged && summary.iterations == 0);
    }
}
