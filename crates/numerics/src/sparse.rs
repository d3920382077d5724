//! Compressed-sparse-row matrices sized for finite-volume thermal systems.
//!
//! A full-chip mesh produces systems with 10⁵–10⁶ unknowns and seven-point
//! stencils, i.e. ~7 non-zeros per row. CSR with a triplet-based builder is
//! the standard representation; duplicate triplets are summed, which matches
//! how FVM assembly naturally emits one contribution per face.
//!
//! [`CsrMatrix::multiply_into`] is the one sparse matrix–vector product:
//! it takes k ≥ 1 columns back to back (a plain vector is k = 1), reads
//! each stored entry once per pass of up to eight columns, and above a
//! size gate splits the rows into nnz-balanced bands across joined
//! workers. One row kernel serves both paths, so every column comes out
//! bitwise equal to its one-column serial product at any worker count —
//! the property multigrid's thread invariance and block CG's per-column
//! equivalence rest on.

use std::sync::OnceLock;

use crate::fork::{fork_join, take_front};
use crate::NumericsError;

/// Parses a `VCSEL_THREADS`-style override: `Some(n.max(1))` for a parsable
/// value, `None` when unset or unparsable (fall back to the hardware count).
fn thread_override(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|v| v.trim().parse::<usize>().ok()).map(|t| t.max(1))
}

/// The worker count every threaded kernel in this crate sizes itself
/// against: the `VCSEL_THREADS` environment variable when set (clamped to
/// at least 1 — CI and A/B benches use it to pin worker counts), otherwise
/// [`std::thread::available_parallelism`]. Queried once per process and
/// cached, so changing the variable after the first call has no effect.
pub fn hardware_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        thread_override(std::env::var("VCSEL_THREADS").ok().as_deref()).unwrap_or_else(|| {
            std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
        })
    })
}

/// Accumulates `(row, col, value)` triplets and compacts them into a
/// [`CsrMatrix`]. Duplicate coordinates are summed.
///
/// # Example
///
/// ```
/// use vcsel_numerics::TripletBuilder;
///
/// let mut b = TripletBuilder::new(2, 2);
/// b.add(0, 0, 1.0);
/// b.add(0, 0, 1.5); // summed with the previous entry
/// b.add(1, 1, 2.0);
/// let m = b.build();
/// assert_eq!(m.nnz(), 2);
/// assert_eq!(m.get(0, 0), 2.5);
/// ```
#[derive(Debug, Clone)]
pub struct TripletBuilder {
    rows: usize,
    cols: usize,
    entries: Vec<(u32, u32, f64)>,
}

impl TripletBuilder {
    /// Creates a builder for an `rows x cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or exceeds `u32::MAX`.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert!(
            rows <= u32::MAX as usize && cols <= u32::MAX as usize,
            "matrix dimensions exceed u32 indexing"
        );
        Self { rows, cols, entries: Vec::new() }
    }

    /// Creates a builder and pre-allocates room for `cap` triplets.
    pub fn with_capacity(rows: usize, cols: usize, cap: usize) -> Self {
        let mut b = Self::new(rows, cols);
        b.entries.reserve(cap);
        b
    }

    /// Records a contribution `value` at `(row, col)`. Contributions to the
    /// same coordinate accumulate.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows, "row {row} out of bounds ({})", self.rows);
        assert!(col < self.cols, "col {col} out of bounds ({})", self.cols);
        if value != 0.0 {
            self.entries.push((row as u32, col as u32, value));
        }
    }

    /// Number of raw (pre-compaction) triplets recorded so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no triplets have been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Compacts the triplets into a CSR matrix, summing duplicates.
    pub fn build(mut self) -> CsrMatrix {
        // Sort by (row, col), merge duplicates, then count rows.
        self.entries.sort_unstable_by_key(|&(r, c, _)| (r, c));

        let mut col_idx: Vec<u32> = Vec::with_capacity(self.entries.len());
        let mut values: Vec<f64> = Vec::with_capacity(self.entries.len());
        let mut row_ptr = vec![0usize; self.rows + 1];

        let mut entry = 0usize;
        while entry < self.entries.len() {
            let (r, c, mut v) = self.entries[entry];
            entry += 1;
            while entry < self.entries.len()
                && self.entries[entry].0 == r
                && self.entries[entry].1 == c
            {
                v += self.entries[entry].2;
                entry += 1;
            }
            row_ptr[r as usize + 1] += 1;
            col_idx.push(c);
            values.push(v);
        }
        for i in 0..self.rows {
            row_ptr[i + 1] += row_ptr[i];
        }

        CsrMatrix { rows: self.rows, cols: self.cols, row_ptr, col_idx, values }
    }
}

/// A sparse matrix in compressed-sparse-row format.
///
/// Construct via [`TripletBuilder`]. Rows are stored in ascending column
/// order with no duplicate coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Assembles a matrix from already-sorted CSR arrays (each row's
    /// columns strictly ascending, no duplicates). Used by crate-internal
    /// kernels (multigrid transfer construction) that produce CSR directly
    /// and would waste an `O(nnz log nnz)` sort going through
    /// [`TripletBuilder`].
    pub(crate) fn from_sorted_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        let m = Self { rows, cols, row_ptr, col_idx, values };
        debug_assert!(
            m.validate().is_ok(),
            "from_sorted_parts received malformed CSR arrays: {:?}",
            m.validate().err()
        );
        m
    }

    /// Fallible counterpart of [`CsrMatrix::from_sorted_parts`] for arrays
    /// that come from *outside* the process — the artifact restore path —
    /// where malformed input must surface as a typed error, not a
    /// debug-assert panic. Runs the full [`CsrMatrix::validate`] pass in
    /// every build profile.
    pub(crate) fn try_from_sorted_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self, NumericsError> {
        let m = Self { rows, cols, row_ptr, col_idx, values };
        m.validate()?;
        Ok(m)
    }

    /// The raw CSR arrays `(row_ptr, col_idx, values)`, for the artifact
    /// codec's zero-transformation encode.
    pub(crate) fn raw_parts(&self) -> (&[usize], &[u32], &[f64]) {
        (&self.row_ptr, &self.col_idx, &self.values)
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 1.0);
        }
        b.build()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Heap bytes of the CSR storage (values, column indices, row
    /// pointers) — what one copy of this operator costs in memory. The
    /// solve engines use it to report the savings of *sharing* the fine
    /// operator between a cache and a multigrid hierarchy instead of
    /// cloning it.
    pub fn storage_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<f64>()
            + self.col_idx.len() * std::mem::size_of::<u32>()
            + self.row_ptr.len() * std::mem::size_of::<usize>()
    }

    /// Returns the entry at `(row, col)` (zero if not stored).
    ///
    /// # Panics
    ///
    /// Panics if `row`/`col` are out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        let (lo, hi) = (self.row_ptr[row], self.row_ptr[row + 1]);
        match self.col_idx[lo..hi].binary_search(&(col as u32)) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Iterates over the stored `(col, value)` pairs of one row.
    pub fn row(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (lo, hi) = (self.row_ptr[row], self.row_ptr[row + 1]);
        self.col_idx[lo..hi].iter().zip(&self.values[lo..hi]).map(|(&c, &v)| (c as usize, v))
    }

    /// Dense main diagonal.
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.rows.min(self.cols)).map(|i| self.get(i, i)).collect()
    }

    /// Computes `y = A * x` into a new vector: the checked, allocating
    /// form of [`CsrMatrix::multiply_into`].
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, NumericsError> {
        if x.len() != self.cols {
            return Err(NumericsError::DimensionMismatch {
                what: "matrix-vector product operand",
                expected: self.cols,
                got: x.len(),
            });
        }
        let mut y = vec![0.0; self.rows];
        self.multiply_into(x, &mut y);
        Ok(y)
    }

    /// Computes `Y = A · X` into a caller-provided buffer, the one SpMV
    /// every solver inner loop uses (no allocation). `x` holds k ≥ 1
    /// columns of `cols` entries back to back and `y` receives the k
    /// products of `rows` entries in the same order, so a plain vector is
    /// the k = 1 case — the layout
    /// [`preconditioned_cg`](crate::solver::preconditioned_cg) packs its
    /// right-hand sides in.
    ///
    /// Each stored entry is read once per pass and feeds one accumulator
    /// per column, up to eight columns per pass; wider blocks take one
    /// pass per eight columns. A pass whose rows × columns fall below the
    /// crate's fork size gate (2¹⁵) runs serially on the calling thread;
    /// above it the rows split into nnz-balanced bands, one worker each,
    /// the last band on the calling thread, and every worker is joined
    /// before the pass ends. Every row sums its entries in storage order
    /// whatever the band it lands in and however many columns share the
    /// pass, so each column of `y` is bitwise the one-column serial
    /// product at every worker count.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not a whole number of columns or `y` does not hold
    /// one output column per input column.
    pub fn multiply_into(&self, x: &[f64], y: &mut [f64]) {
        self.multiply_with_threads(x, y, None);
    }

    /// Cap on the workers one threaded kernel forks: the kernels are
    /// memory-bandwidth bound, so more threads than memory channels only
    /// add spawn overhead.
    pub const MAX_SPMV_THREADS: usize = 8;

    /// Most columns one operator pass serves: the row kernel keeps one
    /// accumulator per column in a stack array of at most this width.
    const BLOCK_COLUMNS: usize = 8;

    /// [`CsrMatrix::multiply_into`] with the worker count pinned when
    /// `threads` is given (tests pin it). Per pass of up to
    /// [`Self::BLOCK_COLUMNS`] columns it cuts each output column into the
    /// same nnz-balanced row bands in place and hands every band to
    /// [`Self::block_chunk`] through the crate's one fork-join.
    ///
    /// # Panics
    ///
    /// Panics on the shape errors [`CsrMatrix::multiply_into`] documents.
    pub(crate) fn multiply_with_threads(&self, x: &[f64], y: &mut [f64], threads: Option<usize>) {
        let k = x.len() / self.cols.max(1);
        assert_eq!(x.len(), k * self.cols, "x must hold whole columns of the operator's width");
        assert_eq!(y.len(), k * self.rows, "y must hold one output column per column of x");
        let mut x_columns = x.chunks_exact(self.cols.max(1));
        let mut y_columns = y.chunks_exact_mut(self.rows.max(1));
        for first in (0..k).step_by(Self::BLOCK_COLUMNS) {
            let width = (k - first).min(Self::BLOCK_COLUMNS);
            let mut xs: [&[f64]; Self::BLOCK_COLUMNS] = Default::default();
            let mut rest: [&mut [f64]; Self::BLOCK_COLUMNS] = Default::default();
            for (xj, column) in xs.iter_mut().zip(x_columns.by_ref().take(width)) {
                *xj = column;
            }
            for (yj, column) in rest.iter_mut().zip(y_columns.by_ref().take(width)) {
                *yj = column;
            }
            let mut start = 0;
            fork_join(
                self.rows * width,
                self.rows,
                threads,
                |band, bands| {
                    let end = self.band_boundary(band + 1, bands);
                    let mut ys: [&mut [f64]; Self::BLOCK_COLUMNS] = Default::default();
                    for (yj, column) in ys.iter_mut().zip(&mut rest[..width]) {
                        *yj = take_front(column, end - start);
                    }
                    let band_start = start;
                    start = end;
                    (band_start, ys)
                },
                |(band_start, ys)| self.block_chunk(band_start, width, &xs, ys),
            );
        }
    }

    /// The first row past band `band` of `bands` contiguous row bands
    /// carrying roughly equal stored-non-zero counts (`rows` for the last
    /// band). Uniform row partitions would let a dense band straggle.
    fn band_boundary(&self, band: usize, bands: usize) -> usize {
        if band >= bands {
            return self.rows;
        }
        let target = self.nnz() * band / bands;
        self.row_ptr.partition_point(|&p| p < target).min(self.rows)
    }

    /// Runs [`Self::block_rows`] at the const width `width` (1 to
    /// [`Self::BLOCK_COLUMNS`]) on the first `width` slots of `x` and `y`.
    fn block_chunk(
        &self,
        start: usize,
        width: usize,
        x: &[&[f64]; Self::BLOCK_COLUMNS],
        y: [&mut [f64]; Self::BLOCK_COLUMNS],
    ) {
        match width {
            1 => self.block_rows::<1>(start, x, y),
            2 => self.block_rows::<2>(start, x, y),
            3 => self.block_rows::<3>(start, x, y),
            4 => self.block_rows::<4>(start, x, y),
            5 => self.block_rows::<5>(start, x, y),
            6 => self.block_rows::<6>(start, x, y),
            7 => self.block_rows::<7>(start, x, y),
            _ => self.block_rows::<{ Self::BLOCK_COLUMNS }>(start, x, y),
        }
    }

    /// The one SpMV row kernel: `y[j]` receives rows `start..` of
    /// `A · x[j]` for `j < W`. Each stored entry is read once and feeds
    /// all `W` accumulators, and each accumulator sums its row in storage
    /// order.
    fn block_rows<const W: usize>(
        &self,
        start: usize,
        x: &[&[f64]; Self::BLOCK_COLUMNS],
        y: [&mut [f64]; Self::BLOCK_COLUMNS],
    ) {
        // One shared length per side lets the compiler fold a row's W
        // bounds checks into one; without it a five-column pass measured
        // ~40 % slower on a 2-thread Xeon.
        let rows = y[0].len();
        let x: [&[f64]; W] = std::array::from_fn(|j| &x[j][..self.cols]);
        let mut y = y.into_iter();
        let mut y: [&mut [f64]; W] =
            std::array::from_fn(|_| &mut y.next().unwrap_or_default()[..rows]);
        for offset in 0..rows {
            let r = start + offset;
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            let mut acc = [0.0; W];
            for t in lo..hi {
                let (v, c) = (self.values[t], self.col_idx[t] as usize);
                for (a, xj) in acc.iter_mut().zip(&x) {
                    *a += v * xj[c];
                }
            }
            for (yj, a) in y.iter_mut().zip(acc) {
                yj[offset] = a;
            }
        }
    }

    /// Returns the transpose `Aᵀ` (counting sort over columns, `O(nnz)`).
    ///
    /// Used by the multigrid hierarchy to turn a prolongation `P` into its
    /// restriction `R = Pᵀ` once, so both directions run as row-major SpMV.
    pub fn transpose(&self) -> CsrMatrix {
        let mut row_ptr = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            row_ptr[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = row_ptr.clone();
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k] as usize;
                let pos = next[c];
                next[c] += 1;
                col_idx[pos] = r as u32;
                values[pos] = self.values[k];
            }
        }
        // Source rows are visited in ascending order, so each transposed
        // row's columns come out ascending — the CSR invariant holds.
        CsrMatrix { rows: self.cols, cols: self.rows, row_ptr, col_idx, values }
    }

    /// Computes the sparse product `A · B` (Gustavson's algorithm with a
    /// dense accumulator, `O(Σ_i Σ_{j ∈ row i} nnz(B_j))`).
    ///
    /// This is the kernel behind the Galerkin coarse operators
    /// `A_c = Pᵀ (A P)` of the multigrid hierarchy.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if the inner dimensions
    /// disagree.
    pub fn multiply_matrix(&self, other: &CsrMatrix) -> Result<CsrMatrix, NumericsError> {
        if self.cols != other.rows {
            return Err(NumericsError::DimensionMismatch {
                what: "matrix-matrix product operand",
                expected: self.cols,
                got: other.rows,
            });
        }
        let n = other.cols;
        let mut acc = vec![0.0; n];
        let mut marker = vec![usize::MAX; n];
        let mut touched: Vec<u32> = Vec::new();
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx: Vec<u32> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        row_ptr.push(0);
        for i in 0..self.rows {
            touched.clear();
            for (j, v) in self.row(i) {
                for (c, w) in other.row(j) {
                    if marker[c] != i {
                        marker[c] = i;
                        touched.push(c as u32);
                        acc[c] = v * w;
                    } else {
                        acc[c] += v * w;
                    }
                }
            }
            touched.sort_unstable();
            for &c in &touched {
                col_idx.push(c);
                values.push(acc[c as usize]);
            }
            row_ptr.push(col_idx.len());
        }
        Ok(CsrMatrix { rows: self.rows, cols: n, row_ptr, col_idx, values })
    }

    /// Computes `A + alpha · B` for same-shape matrices (two-pointer row
    /// merge; the union sparsity pattern is kept even where entries cancel).
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if the shapes disagree.
    pub fn add_scaled(&self, other: &CsrMatrix, alpha: f64) -> Result<CsrMatrix, NumericsError> {
        if self.rows != other.rows {
            return Err(NumericsError::DimensionMismatch {
                what: "matrix sum operand rows",
                expected: self.rows,
                got: other.rows,
            });
        }
        if self.cols != other.cols {
            return Err(NumericsError::DimensionMismatch {
                what: "matrix sum operand columns",
                expected: self.cols,
                got: other.cols,
            });
        }
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx: Vec<u32> = Vec::with_capacity(self.nnz().max(other.nnz()));
        let mut values: Vec<f64> = Vec::with_capacity(self.nnz().max(other.nnz()));
        row_ptr.push(0);
        for r in 0..self.rows {
            let (mut p, p_end) = (self.row_ptr[r], self.row_ptr[r + 1]);
            let (mut q, q_end) = (other.row_ptr[r], other.row_ptr[r + 1]);
            while p < p_end || q < q_end {
                let cp = if p < p_end { self.col_idx[p] } else { u32::MAX };
                let cq = if q < q_end { other.col_idx[q] } else { u32::MAX };
                match cp.cmp(&cq) {
                    std::cmp::Ordering::Less => {
                        col_idx.push(cp);
                        values.push(self.values[p]);
                        p += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        col_idx.push(cq);
                        values.push(alpha * other.values[q]);
                        q += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        col_idx.push(cp);
                        values.push(self.values[p] + alpha * other.values[q]);
                        p += 1;
                        q += 1;
                    }
                }
            }
            row_ptr.push(col_idx.len());
        }
        Ok(CsrMatrix { rows: self.rows, cols: self.cols, row_ptr, col_idx, values })
    }

    /// Structural validation of the CSR invariants every kernel in this
    /// crate assumes: `row_ptr` has `rows + 1` monotone entries starting at
    /// 0 and ending at `nnz`, column indices are strictly ascending and
    /// in-bounds within each row, and every stored value is finite.
    ///
    /// Wired into `debug_assertions` at the assembly and Galerkin-product
    /// sites, so a malformed operator fails loudly at construction instead
    /// of as a wrong answer ten solver layers later.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::BadMatrix`] naming the first violated
    /// invariant.
    pub fn validate(&self) -> Result<(), NumericsError> {
        let bad = |reason: String| Err(NumericsError::BadMatrix { reason });
        if self.row_ptr.len() != self.rows + 1 {
            return bad(format!(
                "row_ptr has {} entries for {} rows (want rows + 1)",
                self.row_ptr.len(),
                self.rows
            ));
        }
        if self.row_ptr[0] != 0 {
            return bad(format!("row_ptr must start at 0, starts at {}", self.row_ptr[0]));
        }
        if self.col_idx.len() != self.values.len() {
            return bad(format!(
                "{} column indices vs {} values",
                self.col_idx.len(),
                self.values.len()
            ));
        }
        if *self.row_ptr.last().unwrap_or(&0) != self.values.len() {
            return bad(format!(
                "row_ptr ends at {} but {} non-zeros are stored",
                self.row_ptr.last().unwrap_or(&0),
                self.values.len()
            ));
        }
        for r in 0..self.rows {
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            if lo > hi {
                return bad(format!("row_ptr decreases at row {r} ({lo} > {hi})"));
            }
            let row = &self.col_idx[lo..hi];
            if let Some(w) = row.windows(2).find(|w| w[0] >= w[1]) {
                return bad(format!(
                    "row {r} columns not strictly ascending ({} then {})",
                    w[0], w[1]
                ));
            }
            if let Some(&c) = row.iter().find(|&&c| c as usize >= self.cols) {
                return bad(format!("row {r} column {c} out of bounds (cols = {})", self.cols));
            }
            if let Some(k) = self.values[lo..hi].iter().position(|v| !v.is_finite()) {
                return bad(format!("non-finite value at row {r}, column {}", row[k]));
            }
        }
        Ok(())
    }

    /// [`validate`](Self::validate) plus the extra invariants of a
    /// symmetric operator: square shape, symmetric sparsity *pattern*
    /// (entry `(i, j)` stored iff `(j, i)` is), and a strictly positive
    /// diagonal — what FVM assembly and Galerkin coarsening must produce.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::BadMatrix`] naming the first violated
    /// invariant.
    pub fn validate_symmetric(&self) -> Result<(), NumericsError> {
        self.validate()?;
        let bad = |reason: String| Err(NumericsError::BadMatrix { reason });
        if self.rows != self.cols {
            return bad(format!(
                "symmetric operator must be square, got {}x{}",
                self.rows, self.cols
            ));
        }
        for r in 0..self.rows {
            let mut has_diag = false;
            for (c, _) in self.row(r) {
                if c == r {
                    has_diag = true;
                } else {
                    let (lo, hi) = (self.row_ptr[c], self.row_ptr[c + 1]);
                    if self.col_idx[lo..hi].binary_search(&(r as u32)).is_err() {
                        return bad(format!(
                            "sparsity pattern not symmetric: ({r}, {c}) stored, ({c}, {r}) missing"
                        ));
                    }
                }
            }
            if !has_diag || self.get(r, r) <= 0.0 {
                return bad(format!(
                    "diagonal entry ({r}, {r}) = {} must be strictly positive",
                    self.get(r, r)
                ));
            }
        }
        Ok(())
    }

    /// Checks structural + numerical symmetry to a relative tolerance.
    ///
    /// The FVM discretization of pure conduction must produce a symmetric
    /// matrix; this check is used by the thermal solver's debug assertions
    /// and tests.
    pub fn is_symmetric(&self, rel_tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                let vt = self.get(c, r);
                let scale = v.abs().max(vt.abs()).max(1e-300);
                if (v - vt).abs() / scale > rel_tol {
                    return false;
                }
            }
        }
        true
    }

    /// Returns `true` if every diagonal entry is strictly positive and every
    /// row is (weakly) diagonally dominant — a sufficient condition for the
    /// FVM conduction matrix to be SPD.
    pub fn is_diagonally_dominant(&self) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            let mut diag = 0.0;
            let mut off = 0.0;
            for (c, v) in self.row(r) {
                if c == r {
                    diag = v;
                } else {
                    off += v.abs();
                }
            }
            if diag <= 0.0 || diag + 1e-12 * diag < off {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn build_and_get() {
        let m = laplacian_1d(4);
        assert_eq!(m.rows(), 4);
        assert_eq!(m.nnz(), 10);
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(1, 0), -1.0);
        assert_eq!(m.get(0, 3), 0.0);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut b = TripletBuilder::new(3, 3);
        for _ in 0..5 {
            b.add(1, 1, 0.5);
        }
        b.add(1, 2, 1.0);
        b.add(1, 2, -1.0); // cancels but stays stored
        let m = b.build();
        assert_eq!(m.get(1, 1), 2.5);
        assert_eq!(m.get(1, 2), 0.0);
    }

    #[test]
    fn zero_contributions_are_skipped() {
        let mut b = TripletBuilder::new(2, 2);
        b.add(0, 0, 0.0);
        b.add(1, 1, 3.0);
        let m = b.build();
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn matvec_matches_dense() {
        let m = laplacian_1d(5);
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = m.mul_vec(&x).unwrap();
        // Dense check: y_i = -x_{i-1} + 2 x_i - x_{i+1}
        assert_eq!(y, vec![0.0, 0.0, 0.0, 0.0, 6.0]);
    }

    #[test]
    fn matvec_dimension_mismatch() {
        let m = laplacian_1d(3);
        let err = m.mul_vec(&[1.0, 2.0]).unwrap_err();
        assert!(matches!(err, NumericsError::DimensionMismatch { expected: 3, got: 2, .. }));
    }

    #[test]
    fn symmetry_and_dominance() {
        let m = laplacian_1d(6);
        assert!(m.is_symmetric(1e-14));
        assert!(m.is_diagonally_dominant());

        let mut b = TripletBuilder::new(2, 2);
        b.add(0, 0, 1.0);
        b.add(0, 1, 5.0);
        b.add(1, 1, 1.0);
        let m = b.build();
        assert!(!m.is_symmetric(1e-14));
        assert!(!m.is_diagonally_dominant());
    }

    #[test]
    fn identity() {
        let i3 = CsrMatrix::identity(3);
        let x = [4.0, -1.0, 0.5];
        assert_eq!(i3.mul_vec(&x).unwrap(), x.to_vec());
        assert_eq!(i3.diagonal(), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn row_iterator_is_sorted() {
        let m = laplacian_1d(4);
        for r in 0..4 {
            let cols: Vec<usize> = m.row(r).map(|(c, _)| c).collect();
            let mut sorted = cols.clone();
            sorted.sort_unstable();
            assert_eq!(cols, sorted);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn add_out_of_bounds_panics() {
        let mut b = TripletBuilder::new(2, 2);
        b.add(2, 0, 1.0);
    }

    #[test]
    fn threaded_matvec_matches_serial() {
        // Non-uniform nnz distribution: dense early rows, sparse tail, so
        // the nnz-balanced partition actually gets exercised.
        let n = 500;
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 4.0 + i as f64 * 0.01);
            let fan = if i < 50 { 20 } else { 2 };
            for d in 1..=fan {
                if i + d < n {
                    b.add(i, i + d, -0.01 * d as f64);
                }
            }
        }
        let m = b.build();
        let columns: Vec<Vec<f64>> =
            (0..9).map(|j| (0..n).map(|i| (i as f64 * 0.13 + j as f64).sin()).collect()).collect();
        let serial: Vec<Vec<f64>> = columns
            .iter()
            .map(|x| {
                let mut y = vec![0.0; n];
                m.multiply_with_threads(x, &mut y, Some(1));
                y
            })
            .collect();
        // k = 9 takes a second operator pass after the first eight columns.
        for k in 1..=9 {
            let x = columns[..k].concat();
            for threads in [1, 2, 3, 7] {
                let mut y = vec![0.0; k * n];
                m.multiply_with_threads(&x, &mut y, Some(threads));
                for (j, (got, want)) in y.chunks(n).zip(&serial).enumerate() {
                    let same = got.iter().zip(want).all(|(g, w)| g.to_bits() == w.to_bits());
                    assert!(same, "k={k}, column {j}, {threads} workers");
                }
            }
        }
        let mut auto = vec![0.0; n];
        m.multiply_into(&columns[0], &mut auto);
        assert_eq!(auto, serial[0]);
    }

    #[test]
    fn transpose_round_trips_and_swaps_indices() {
        let mut b = TripletBuilder::new(3, 4);
        b.add(0, 1, 2.0);
        b.add(0, 3, -1.0);
        b.add(1, 0, 4.0);
        b.add(2, 2, 5.0);
        let m = b.build();
        let t = m.transpose();
        assert_eq!((t.rows(), t.cols()), (4, 3));
        for r in 0..3 {
            for c in 0..4 {
                assert_eq!(m.get(r, c), t.get(c, r), "mismatch at ({r},{c})");
            }
        }
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_matches_dense_reference() {
        let mut a = TripletBuilder::new(3, 3);
        a.add(0, 0, 1.0);
        a.add(0, 2, 2.0);
        a.add(1, 1, 3.0);
        a.add(2, 0, -1.0);
        a.add(2, 2, 1.0);
        let a = a.build();
        let mut b = TripletBuilder::new(3, 2);
        b.add(0, 0, 1.0);
        b.add(1, 0, 2.0);
        b.add(1, 1, -1.0);
        b.add(2, 1, 4.0);
        let b = b.build();
        let c = a.multiply_matrix(&b).unwrap();
        assert_eq!((c.rows(), c.cols()), (3, 2));
        // Dense reference: c[r][k] = Σ_j a[r][j]·b[j][k].
        for r in 0..3 {
            for k in 0..2 {
                let want: f64 = (0..3).map(|j| a.get(r, j) * b.get(j, k)).sum();
                assert!((c.get(r, k) - want).abs() < 1e-14, "({r},{k}): {}", c.get(r, k));
            }
        }
        assert!(b.multiply_matrix(&a).is_err(), "inner dimension mismatch must fail");
    }

    #[test]
    fn matmul_rap_of_identity_prolongation_is_identity_galerkin() {
        // R·A·P with P = I must return A itself — the degenerate Galerkin
        // product the multigrid hierarchy relies on.
        let a = laplacian_1d(6);
        let p = CsrMatrix::identity(6);
        let rap = p.transpose().multiply_matrix(&a.multiply_matrix(&p).unwrap()).unwrap();
        for r in 0..6 {
            for c in 0..6 {
                assert!((rap.get(r, c) - a.get(r, c)).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn add_scaled_merges_patterns() {
        let mut x = TripletBuilder::new(2, 3);
        x.add(0, 0, 1.0);
        x.add(1, 2, 2.0);
        let x = x.build();
        let mut y = TripletBuilder::new(2, 3);
        y.add(0, 1, 4.0);
        y.add(1, 2, 1.0);
        let y = y.build();
        let s = x.add_scaled(&y, -0.5).unwrap();
        assert_eq!(s.get(0, 0), 1.0);
        assert_eq!(s.get(0, 1), -2.0);
        assert_eq!(s.get(1, 2), 1.5);
        let mut z = TripletBuilder::new(3, 3);
        z.add(0, 0, 1.0);
        let z = z.build();
        assert!(x.add_scaled(&z, 1.0).is_err());
    }

    #[test]
    fn threaded_matvec_handles_more_threads_than_rows() {
        let m = laplacian_1d(3);
        let mut y = vec![0.0; 3];
        m.multiply_with_threads(&[1.0, 1.0, 1.0], &mut y, Some(16));
        assert_eq!(y, vec![1.0, 0.0, 1.0]);
    }

    #[test]
    fn thread_override_parses_and_clamps() {
        assert_eq!(thread_override(None), None);
        assert_eq!(thread_override(Some("garbage")), None);
        assert_eq!(thread_override(Some("")), None);
        assert_eq!(thread_override(Some("4")), Some(4));
        assert_eq!(thread_override(Some(" 2 ")), Some(2));
        assert_eq!(thread_override(Some("0")), Some(1), "clamped to at least one worker");
        assert!(hardware_threads() >= 1);
    }

    #[test]
    fn validate_accepts_built_matrices() {
        let a = laplacian_1d(8);
        a.validate().unwrap();
        a.validate_symmetric().unwrap();
        CsrMatrix::identity(3).validate_symmetric().unwrap();
        // Empty rows are legal CSR.
        TripletBuilder::new(4, 4).build().validate().unwrap();
    }

    #[test]
    fn validate_rejects_each_structural_corruption() {
        let cases = [
            // row_ptr length mismatch.
            CsrMatrix {
                rows: 2,
                cols: 2,
                row_ptr: vec![0, 1],
                col_idx: vec![0],
                values: vec![1.0],
            },
            // row_ptr does not end at nnz.
            CsrMatrix {
                rows: 2,
                cols: 2,
                row_ptr: vec![0, 1, 3],
                col_idx: vec![0, 1],
                values: vec![1.0, 1.0],
            },
            // Unsorted columns within a row.
            CsrMatrix {
                rows: 1,
                cols: 2,
                row_ptr: vec![0, 2],
                col_idx: vec![1, 0],
                values: vec![1.0, 2.0],
            },
            // Duplicate column within a row.
            CsrMatrix {
                rows: 1,
                cols: 2,
                row_ptr: vec![0, 2],
                col_idx: vec![1, 1],
                values: vec![1.0, 2.0],
            },
            // Out-of-bounds column.
            CsrMatrix {
                rows: 1,
                cols: 1,
                row_ptr: vec![0, 1],
                col_idx: vec![3],
                values: vec![1.0],
            },
            // Non-finite value.
            CsrMatrix {
                rows: 1,
                cols: 1,
                row_ptr: vec![0, 1],
                col_idx: vec![0],
                values: vec![f64::NAN],
            },
        ];
        for (k, m) in cases.iter().enumerate() {
            assert!(m.validate().is_err(), "corruption case {k} must fail");
        }
    }

    #[test]
    fn validate_symmetric_rejects_pattern_and_diagonal_defects() {
        // (0, 1) stored without its (1, 0) mirror.
        let asym = CsrMatrix {
            rows: 2,
            cols: 2,
            row_ptr: vec![0, 2, 3],
            col_idx: vec![0, 1, 1],
            values: vec![2.0, 1.0, 2.0],
        };
        asym.validate().unwrap();
        assert!(asym.validate_symmetric().is_err());
        // Missing / non-positive diagonal.
        let mut b = TripletBuilder::new(2, 2);
        b.add(0, 0, -1.0);
        b.add(1, 1, 1.0);
        assert!(b.build().validate_symmetric().is_err());
        // Rectangular operators cannot be symmetric.
        let rect = CsrMatrix {
            rows: 1,
            cols: 2,
            row_ptr: vec![0, 1],
            col_idx: vec![0],
            values: vec![1.0],
        };
        assert!(rect.validate_symmetric().is_err());
    }

    mod validate_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Whatever triplets go in, the builder's output satisfies every
            /// structural CSR invariant.
            #[test]
            fn built_matrices_always_validate(
                n in 1usize..12,
                entries in proptest::collection::vec(
                    (0usize..12, 0usize..12, -5.0f64..5.0), 0..40),
            ) {
                let mut b = TripletBuilder::new(n, n);
                for (r, c, v) in entries {
                    b.add(r % n, c % n, v);
                }
                prop_assert!(b.build().validate().is_ok());
            }

            /// Symmetrized stencils with a dominant diagonal pass the
            /// symmetric-operator validation (the FVM assembly shape).
            #[test]
            fn symmetrized_builds_validate_symmetric(
                n in 1usize..10,
                entries in proptest::collection::vec(
                    (0usize..10, 0usize..10, -5.0f64..5.0), 0..30),
            ) {
                let mut b = TripletBuilder::new(n, n);
                for i in 0..n {
                    b.add(i, i, 500.0);
                }
                for (r, c, v) in entries {
                    b.add(r % n, c % n, v);
                    b.add(c % n, r % n, v);
                }
                prop_assert!(b.build().validate_symmetric().is_ok());
            }
        }
    }
}
