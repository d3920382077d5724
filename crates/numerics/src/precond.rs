//! Preconditioners for the conjugate-gradient solver.
//!
//! The FVM conduction matrices this workspace produces are symmetric
//! positive definite and diagonally dominant, but far from well-conditioned:
//! the paper's meshes mix 5–60 µm cells over the optical network interfaces
//! with millimetre cells over the package, so face conductances span four
//! orders of magnitude. Three preconditioners are provided, in increasing
//! setup cost and decreasing iteration count:
//!
//! * [`Jacobi`] — `M = diag(A)`; free to build, the seed behaviour,
//! * [`IncompleteCholesky`] — IC(0), a zero-fill `L·Lᵀ ≈ A` factorization;
//!   the strongest *one-level* option and the default for cached transient
//!   engines, because one factorization amortizes over many right-hand
//!   sides. Each column's two triangular solves run serially; a block of
//!   columns splits into contiguous column groups, one per worker, so
//!   IC(0) iteration counts and fields are the same at every worker
//!   count. The solves multiply by each pivot's reciprocal, and one sweep
//!   kernel serves up to eight columns per pass over the factor,
//! * [`Multigrid`] — a smoothed-aggregation algebraic
//!   multigrid V-cycle (see [`crate::multigrid`]); the only option whose
//!   iteration counts stay (nearly) mesh-independent, and the default for
//!   large steady solves. One block V-cycle serves up to three columns per
//!   pass over every level.
//!
//! One entry point, [`Preconditioner::apply`], serves k ≥ 1 columns held
//! back to back, the layout CG packs its active residuals in; every
//! column comes out bitwise as its own one-column apply. All applications
//! are allocation-free so they can sit inside the CG iteration loop.

use std::ops::Range;
use std::sync::Arc;

use crate::fork::{fork_join, share_range, take_front};
use crate::multigrid::Multigrid;
use crate::{CsrMatrix, NumericsError};

/// Applies `z = M⁻¹ r` for some SPD approximation `M ≈ A`, to k ≥ 1
/// columns at once.
///
/// `r` and `z` hold k columns of `A.rows()` entries back to back — the
/// layout [`CsrMatrix::multiply_into`] and
/// [`preconditioned_cg`](crate::solver::preconditioned_cg) use — so a
/// plain vector is the k = 1 case. Every column of `z` must be bitwise the
/// column's own one-column apply, whichever columns share the call: that
/// keeps a column solved inside a CG block bitwise equal to the column
/// solved alone. Implementations that can serve several columns from one
/// pass over their data (IC(0), multigrid) do; Jacobi scales column by
/// column.
///
/// Implementations must be allocation-free in [`Preconditioner::apply`] so
/// the solver's inner loop stays allocation-free; `&mut self` exists for
/// implementations that cycle internal workspaces (multigrid), not for
/// changing the operator.
///
/// # Example
///
/// Select a kind, build it for a matrix, and hand it to CG — the same
/// three steps every cached solve engine performs:
///
/// ```
/// use std::sync::Arc;
/// use vcsel_numerics::solver::{preconditioned_cg, CgWorkspace, SolveOptions};
/// use vcsel_numerics::{Preconditioner, PreconditionerKind, TripletBuilder};
///
/// let n = 40;
/// let mut b = TripletBuilder::new(n, n);
/// for i in 0..n {
///     b.add(i, i, 2.001);
///     if i > 0 { b.add(i, i - 1, -1.0); }
///     if i + 1 < n { b.add(i, i + 1, -1.0); }
/// }
/// let a = Arc::new(b.build());
/// let mut m = PreconditionerKind::IncompleteCholesky.build(&a)?;
/// assert_eq!(m.name(), "ic0");
///
/// let rhs = vec![1.0; n];
/// let mut x = vec![0.0; n];
/// let mut ws = CgWorkspace::with_capacity(n);
/// let stats = preconditioned_cg(&a, &rhs, &mut x, &mut m, &SolveOptions::default(), &mut ws)?;
/// assert!(stats.residual <= 1e-9);
/// # Ok::<(), vcsel_numerics::NumericsError>(())
/// ```
pub trait Preconditioner {
    /// Computes `z_j = M⁻¹ r_j` for every column `j` of `r`.
    ///
    /// # Panics
    ///
    /// Panics unless `r` holds a whole number of columns and `z` is as
    /// long as `r`.
    fn apply(&mut self, r: &[f64], z: &mut [f64]);

    /// Short identifier for benches and logs (`"jacobi"`, `"ic0"`, …).
    fn name(&self) -> &'static str;
}

/// Panics on the [`Preconditioner::apply`] shapes its contract rules out
/// for `n`-entry columns.
pub(crate) fn assert_columns(r: &[f64], z: &[f64], n: usize) {
    let k = r.len().checked_div(n).unwrap_or(0);
    assert_eq!(r.len(), k * n, "r must hold whole columns of the operator's size");
    assert_eq!(z.len(), r.len(), "z must hold one column per column of r");
}

pub(crate) fn checked_diagonal(a: &CsrMatrix) -> Result<Vec<f64>, NumericsError> {
    let diag = a.diagonal();
    if let Some(i) = diag.iter().position(|&d| d <= 0.0 || !d.is_finite()) {
        return Err(NumericsError::BadMatrix {
            reason: format!("non-positive or non-finite diagonal entry {} at row {i}", diag[i]),
        });
    }
    Ok(diag)
}

/// Diagonal (Jacobi) preconditioner: `M = diag(A)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Jacobi {
    inv_diag: Vec<f64>,
}

impl Jacobi {
    /// Extracts the inverse diagonal of `a`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::BadMatrix`] if `a` is not square or has a
    /// non-positive or non-finite diagonal entry.
    pub fn new(a: &CsrMatrix) -> Result<Self, NumericsError> {
        if a.rows() != a.cols() {
            return Err(NumericsError::BadMatrix {
                reason: format!("matrix must be square, got {}x{}", a.rows(), a.cols()),
            });
        }
        Ok(Self { inv_diag: checked_diagonal(a)?.iter().map(|&d| 1.0 / d).collect() })
    }

    /// The scaling loop on one column, in equal row chunks through the
    /// crate's one fork-join, with the worker count pinned when `threads`
    /// is given. Every entry is one independent multiply, so every count
    /// produces bitwise-identical output.
    fn apply_with_threads(&self, r: &[f64], z: &mut [f64], threads: Option<usize>) {
        let n = self.inv_diag.len();
        assert_eq!(r.len(), n);
        assert_eq!(z.len(), n);
        let mut z_rest = z;
        fork_join(
            n,
            n,
            threads,
            |share, shares| {
                let Range { start, end } = share_range(share, shares, n);
                (take_front(&mut z_rest, end - start), &r[start..end], &self.inv_diag[start..end])
            },
            |(zc, rc, dc)| {
                for ((zi, ri), di) in zc.iter_mut().zip(rc).zip(dc) {
                    *zi = ri * di;
                }
            },
        );
    }
}

impl Preconditioner for Jacobi {
    fn apply(&mut self, r: &[f64], z: &mut [f64]) {
        let n = self.inv_diag.len();
        assert_columns(r, z, n);
        for (rc, zc) in r.chunks_exact(n.max(1)).zip(z.chunks_exact_mut(n.max(1))) {
            self.apply_with_threads(rc, zc, None);
        }
    }

    fn name(&self) -> &'static str {
        "jacobi"
    }
}

/// Zero-fill incomplete Cholesky factorization IC(0): `L·Lᵀ ≈ A` with `L`
/// restricted to the sparsity pattern of the lower triangle of `A`.
///
/// For the M-matrices FVM conduction assembly produces the factorization
/// exists and is stable; applying it costs two sparse triangular solves,
/// roughly the price of one extra matrix-vector product per CG iteration,
/// and typically cuts the iteration count by 2–6× on anisotropic meshes.
///
/// Each column's two solves run serially (a gather forward over `L`, a
/// scatter backward over the same rows): the factor's dependency levels
/// are too narrow for a level-scheduled sweep to repay its per-level
/// barrier. What threads is the block: [`Preconditioner::apply`] on k ≥ 2
/// columns splits them into contiguous column groups, one per worker once
/// the rows × columns repay the fork, and every column runs the same
/// scalar recurrence whichever group it lands in, so IC(0) solves are
/// bitwise thread-invariant. A one-column apply (a transient step) runs
/// on the calling thread.
///
/// Each row computes its pivot's reciprocal once and multiplies by it, so
/// the divide depends only on the factor and runs off the recurrence's
/// dependency chain. One sweep kernel serves up to eight right-hand sides
/// per pass: each column group reads the factor once per eight of its
/// columns, each column running its own scalar recurrence bit for bit, and
/// a one-column apply is the kernel's width-1 case.
#[derive(Debug, Clone, PartialEq)]
pub struct IncompleteCholesky {
    /// CSR of `L`: lower triangular, diagonal stored last in each row,
    /// columns ascending.
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl IncompleteCholesky {
    /// Factors the lower triangle of `a` in place of a full Cholesky.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::BadMatrix`] if `a` is not square, a row has
    /// no diagonal entry, or a pivot turns non-positive (breakdown — `a` is
    /// not SPD enough for IC(0)).
    pub fn new(a: &CsrMatrix) -> Result<Self, NumericsError> {
        if a.rows() != a.cols() {
            return Err(NumericsError::BadMatrix {
                reason: format!("matrix must be square, got {}x{}", a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx: Vec<u32> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        row_ptr.push(0);

        for i in 0..n {
            let row_start = values.len();
            let mut saw_diagonal = false;
            for (j, aij) in a.row(i) {
                if j > i {
                    continue;
                }
                // s = a_ij − Σ_{k<j} l_ik · l_jk over the already-built rows
                // i (entries so far this row) and j, both column-ascending.
                let mut s = aij;
                let (mut p, mut q) = (row_start, row_ptr[j]);
                // Row j is complete for j < i; for the diagonal (j == i) the
                // partner row is the one being built right now.
                let (p_end, q_end) =
                    (values.len(), if j < i { row_ptr[j + 1] } else { values.len() });
                while p < p_end && q < q_end {
                    let (cp, cq) = (col_idx[p], col_idx[q]);
                    if cp as usize >= j || cq as usize >= j {
                        break;
                    }
                    match cp.cmp(&cq) {
                        std::cmp::Ordering::Less => p += 1,
                        std::cmp::Ordering::Greater => q += 1,
                        std::cmp::Ordering::Equal => {
                            s -= values[p] * values[q];
                            p += 1;
                            q += 1;
                        }
                    }
                }
                if j < i {
                    // Diagonal of row j is its last stored entry.
                    let djj = values[row_ptr[j + 1] - 1];
                    col_idx.push(j as u32);
                    values.push(s / djj);
                } else {
                    if !(s > 0.0) || !s.is_finite() {
                        return Err(NumericsError::BadMatrix {
                            reason: format!(
                                "IC(0) breakdown at row {i}: pivot {s:.3e} is not positive"
                            ),
                        });
                    }
                    col_idx.push(i as u32);
                    values.push(s.sqrt());
                    saw_diagonal = true;
                }
            }
            if !saw_diagonal {
                return Err(NumericsError::BadMatrix {
                    reason: format!("row {i} has no diagonal entry; cannot factor"),
                });
            }
            row_ptr.push(values.len());
        }

        Ok(Self { row_ptr, col_idx, values })
    }

    /// The factor arrays `(row_ptr, col_idx, values)` — lower triangular,
    /// diagonal stored last per row (the artifact codec's source of truth).
    pub(crate) fn factor_parts(&self) -> (&[usize], &[u32], &[f64]) {
        (&self.row_ptr, &self.col_idx, &self.values)
    }

    /// Reassembles a factor from arrays the artifact codec has already
    /// validated.
    pub(crate) fn from_restored_parts(
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        Self { row_ptr, col_idx, values }
    }

    /// Most right-hand sides one sweep serves: each row keeps one partial
    /// sum per column in a stack array of at most this width.
    const SWEEP_COLUMNS: usize = 8;

    /// [`Preconditioner::apply`] with the worker count pinned when
    /// `threads` is given (tests pin it). The k columns split into
    /// contiguous groups, one per worker through the crate's one
    /// fork-join, and each group sweeps its columns
    /// [`Self::SWEEP_COLUMNS`] at a time; every column runs its own scalar
    /// recurrence, so it comes out bitwise equal to its one-column,
    /// one-worker apply whichever group it lands in.
    fn apply_with_threads(&self, r: &[f64], z: &mut [f64], threads: Option<usize>) {
        let n = self.row_ptr.len() - 1;
        assert_columns(r, z, n);
        let k = r.len().checked_div(n).unwrap_or(0);
        let mut z_rest = z;
        fork_join(
            n * k,
            k,
            threads,
            |group, groups| {
                let columns = share_range(group, groups, k);
                let rg = &r[columns.start * n..columns.end * n];
                (rg, take_front(&mut z_rest, rg.len()))
            },
            |(rg, zg)| self.sweep_group(n, rg, zg),
        );
    }

    /// Sweeps a group of `n`-entry columns held back to back in `r` and
    /// `z`, [`Self::SWEEP_COLUMNS`] per pass over the factor.
    fn sweep_group(&self, n: usize, r: &[f64], z: &mut [f64]) {
        let chunk = (Self::SWEEP_COLUMNS * n).max(1);
        for (rc, zc) in r.chunks(chunk).zip(z.chunks_mut(chunk)) {
            self.sweep_columns(n, rc, zc);
        }
    }

    /// Runs [`Self::sweep`] on the 1 to [`Self::SWEEP_COLUMNS`] columns of
    /// `n` entries held back to back in `r` and `z`, at the matching const
    /// width.
    fn sweep_columns(&self, n: usize, r: &[f64], z: &mut [f64]) {
        match r.len() / n {
            1 => self.sweep::<1>(columns(r, n), columns_mut(z, n)),
            2 => self.sweep::<2>(columns(r, n), columns_mut(z, n)),
            3 => self.sweep::<3>(columns(r, n), columns_mut(z, n)),
            4 => self.sweep::<4>(columns(r, n), columns_mut(z, n)),
            5 => self.sweep::<5>(columns(r, n), columns_mut(z, n)),
            6 => self.sweep::<6>(columns(r, n), columns_mut(z, n)),
            7 => self.sweep::<7>(columns(r, n), columns_mut(z, n)),
            _ => self.sweep::<{ Self::SWEEP_COLUMNS }>(columns(r, n), columns_mut(z, n)),
        }
    }

    /// The two triangular solves for `W` right-hand sides at once: gather
    /// forward, scatter backward in place. Row by row, every column runs
    /// its own scalar recurrence and shares the row's stored entries and
    /// pivot reciprocal.
    fn sweep<const W: usize>(&self, r: [&[f64]; W], mut z: [&mut [f64]; W]) {
        let n = self.row_ptr.len() - 1;
        // Forward solve L y = r (gather; y lands in z).
        for i in 0..n {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            let inv = 1.0 / self.values[hi - 1];
            let mut s: [f64; W] = std::array::from_fn(|c| r[c][i]);
            for k in lo..hi - 1 {
                let (v, j) = (self.values[k], self.col_idx[k] as usize);
                for (sc, zc) in s.iter_mut().zip(&z) {
                    *sc -= v * zc[j];
                }
            }
            for (zc, sc) in z.iter_mut().zip(s) {
                zc[i] = sc * inv;
            }
        }
        // Backward solve Lᵀ x = y in place (scatter: once row i is final,
        // push its contribution into every earlier unknown).
        for i in (0..n).rev() {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            let inv = 1.0 / self.values[hi - 1];
            let mut xi = [0.0; W];
            for (xc, zc) in xi.iter_mut().zip(z.iter_mut()) {
                zc[i] *= inv;
                *xc = zc[i];
            }
            for k in lo..hi - 1 {
                let (v, j) = (self.values[k], self.col_idx[k] as usize);
                for (zc, xc) in z.iter_mut().zip(xi) {
                    zc[j] -= v * xc;
                }
            }
        }
    }
}

/// The first `W` of the `n`-entry columns held back to back in `v`.
fn columns<const W: usize>(v: &[f64], n: usize) -> [&[f64]; W] {
    std::array::from_fn(|c| &v[c * n..(c + 1) * n])
}

/// Mutable form of [`columns`]: `W` disjoint `n`-entry slices.
fn columns_mut<const W: usize>(v: &mut [f64], n: usize) -> [&mut [f64]; W] {
    let mut split = v.chunks_exact_mut(n);
    std::array::from_fn(|_| split.next().unwrap_or_default())
}

impl Preconditioner for IncompleteCholesky {
    fn apply(&mut self, r: &[f64], z: &mut [f64]) {
        self.apply_with_threads(r, z, None);
    }

    fn name(&self) -> &'static str {
        "ic0"
    }
}

/// Selects which preconditioner a solve engine should build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PreconditionerKind {
    /// `M = diag(A)` — cheapest setup, most iterations.
    Jacobi,
    /// Zero-fill incomplete Cholesky — strongest, default for cached
    /// engines where one factorization serves many right-hand sides.
    IncompleteCholesky,
    /// Smoothed-aggregation algebraic multigrid (one V-cycle per
    /// application) — mesh-independent iteration counts at `O(n)` setup,
    /// the default for large steady solves. See [`crate::multigrid`].
    Multigrid,
}

/// An owned preconditioner of any supported kind (so caches can hold one
/// without trait objects).
#[derive(Debug, Clone, PartialEq)]
pub enum AnyPreconditioner {
    /// Diagonal scaling.
    Jacobi(Jacobi),
    /// IC(0) factorization.
    IncompleteCholesky(IncompleteCholesky),
    /// Smoothed-aggregation multigrid V-cycle (boxed — the hierarchy is
    /// far larger than the one-level variants).
    Multigrid(Box<Multigrid>),
}

impl PreconditionerKind {
    /// The [`Preconditioner::name`] of the preconditioner this kind builds
    /// (`"jacobi"`, `"ic0"`, `"multigrid"`), known before building it.
    pub fn name(&self) -> &'static str {
        match self {
            PreconditionerKind::Jacobi => "jacobi",
            PreconditionerKind::IncompleteCholesky => "ic0",
            PreconditionerKind::Multigrid => "multigrid",
        }
    }

    /// Builds the selected preconditioner on the shared operator `a`.
    /// Jacobi and IC(0) derive their own compact data from it; the
    /// multigrid fine level aliases `a`, so a cached solve engine and its
    /// preconditioner hold **one** copy of the (potentially
    /// hundreds-of-MB) matrix.
    ///
    /// # Errors
    ///
    /// Propagates the constructor errors of the selected implementation
    /// (non-square matrix, bad diagonal, IC(0) breakdown).
    pub fn build(&self, a: &Arc<CsrMatrix>) -> Result<AnyPreconditioner, NumericsError> {
        Ok(match *self {
            PreconditionerKind::Jacobi => AnyPreconditioner::Jacobi(Jacobi::new(a)?),
            PreconditionerKind::IncompleteCholesky => {
                AnyPreconditioner::IncompleteCholesky(IncompleteCholesky::new(a)?)
            }
            PreconditionerKind::Multigrid => {
                AnyPreconditioner::Multigrid(Box::new(Multigrid::new(Arc::clone(a))?))
            }
        })
    }
}

impl AnyPreconditioner {
    /// The multigrid wrapper, when this is the multigrid variant — benches
    /// and tests use it to inspect the hierarchy (level counts, operator
    /// sharing) behind a cached engine.
    pub fn as_multigrid(&self) -> Option<&Multigrid> {
        match self {
            AnyPreconditioner::Multigrid(m) => Some(m),
            _ => None,
        }
    }
}

impl Preconditioner for AnyPreconditioner {
    fn apply(&mut self, r: &[f64], z: &mut [f64]) {
        match self {
            AnyPreconditioner::Jacobi(p) => p.apply(r, z),
            AnyPreconditioner::IncompleteCholesky(p) => p.apply(r, z),
            AnyPreconditioner::Multigrid(p) => p.apply(r, z),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            AnyPreconditioner::Jacobi(p) => p.name(),
            AnyPreconditioner::IncompleteCholesky(p) => p.name(),
            AnyPreconditioner::Multigrid(p) => p.name(),
        }
    }
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

    /// Applies M (not M⁻¹) by solving: checks apply ∘ M = identity through
    /// the residual of A-ish test vectors.
    fn apply_inverse(p: &mut dyn Preconditioner, r: &[f64]) -> Vec<f64> {
        let mut z = vec![0.0; r.len()];
        p.apply(r, &mut z);
        z
    }

    #[test]
    fn jacobi_is_diagonal_scaling() {
        let mut b = TripletBuilder::new(3, 3);
        b.add(0, 0, 2.0);
        b.add(1, 1, 4.0);
        b.add(2, 2, 8.0);
        let a = b.build();
        let mut p = Jacobi::new(&a).unwrap();
        let z = apply_inverse(&mut p, &[2.0, 4.0, 8.0]);
        assert_eq!(z, vec![1.0, 1.0, 1.0]);
        assert_eq!(p.name(), "jacobi");
    }

    #[test]
    fn ic0_is_exact_on_tridiagonal() {
        // A tridiagonal SPD matrix has a bidiagonal Cholesky factor — no
        // fill — so IC(0) is the exact factorization and applying it solves
        // the system outright.
        let n = 20;
        let a = laplacian_1d(n);
        let mut p = IncompleteCholesky::new(&a).unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.4).cos()).collect();
        let b = a.mul_vec(&x_true).unwrap();
        let z = apply_inverse(&mut p, &b);
        for (zi, xi) in z.iter().zip(&x_true) {
            assert!((zi - xi).abs() < 1e-12, "IC(0) must be exact here: {zi} vs {xi}");
        }
        assert_eq!(p.name(), "ic0");
    }

    #[test]
    fn ic0_rejects_indefinite() {
        let mut b = TripletBuilder::new(2, 2);
        b.add(0, 0, 1.0);
        b.add(0, 1, 3.0);
        b.add(1, 0, 3.0);
        b.add(1, 1, 1.0);
        let a = b.build();
        assert!(matches!(IncompleteCholesky::new(&a), Err(NumericsError::BadMatrix { .. })));
    }

    #[test]
    fn ic0_rejects_missing_diagonal() {
        let mut b = TripletBuilder::new(2, 2);
        b.add(0, 0, 1.0);
        b.add(0, 1, -0.5);
        b.add(1, 0, -0.5);
        let a = b.build();
        assert!(IncompleteCholesky::new(&a).is_err());
    }

    #[test]
    fn kind_builds_every_variant() {
        let a = Arc::new(laplacian_1d(5));
        for (kind, name) in [
            (PreconditionerKind::Jacobi, "jacobi"),
            (PreconditionerKind::IncompleteCholesky, "ic0"),
            (PreconditionerKind::Multigrid, "multigrid"),
        ] {
            let mut p = kind.build(&a).unwrap();
            assert_eq!(p.name(), name);
            assert_eq!(kind.name(), name, "the kind names what it builds");
            // All must act as approximate inverses: z ≈ A⁻¹r at least in
            // direction (positive alignment with the true solution).
            let r = vec![1.0; 5];
            let z = apply_inverse(&mut p, &r);
            assert!(z.iter().all(|v| v.is_finite()));
            assert!(z.iter().sum::<f64>() > 0.0);
        }
    }

    #[test]
    fn jacobi_chunked_apply_is_bitwise_serial() {
        let n = 1037; // deliberately not a multiple of any chunk count
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 1.0 + (i as f64 * 0.37).sin().abs() + 0.1);
        }
        let p = Jacobi::new(&b.build()).unwrap();
        let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos() * 3.0).collect();
        let mut serial = vec![0.0; n];
        p.apply_with_threads(&r, &mut serial, Some(1));
        for threads in [2, 3, 7, 16] {
            let mut par = vec![0.0; n];
            p.apply_with_threads(&r, &mut par, Some(threads));
            assert_eq!(par, serial, "mismatch with {threads} threads");
        }
    }

    /// 3-D 7-point stencil with a diagonal shift, rows in lexicographic
    /// order (the FVM mesh shape IC(0) serves).
    fn stencil_3d(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
        let n = nx * ny * nz;
        let idx = |i: usize, j: usize, l: usize| (l * ny + j) * nx + i;
        let mut b = TripletBuilder::with_capacity(n, n, 7 * n);
        for l in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let c = idx(i, j, l);
                    let neighbours = [
                        (i + 1 < nx).then(|| idx(i + 1, j, l)),
                        (i > 0).then(|| idx(i - 1, j, l)),
                        (j + 1 < ny).then(|| idx(i, j + 1, l)),
                        (j > 0).then(|| idx(i, j - 1, l)),
                        (l + 1 < nz).then(|| idx(i, j, l + 1)),
                        (l > 0).then(|| idx(i, j, l - 1)),
                    ];
                    let mut diag = 0.05;
                    for other in neighbours.into_iter().flatten() {
                        b.add(c, other, -1.0);
                        diag += 1.0;
                    }
                    b.add(c, c, diag);
                }
            }
        }
        b.build()
    }

    #[test]
    fn k_column_apply_is_bitwise_per_column_apply() {
        let a = stencil_3d(6, 5, 4);
        let n = a.rows();
        let column = |c: usize| -> Vec<f64> {
            (0..n).map(|i| ((i * (c + 2)) as f64 * 0.37).sin() + 0.1 * c as f64).collect()
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let ic = IncompleteCholesky::new(&a).unwrap();
        let mut jacobi = Jacobi::new(&a).unwrap();
        // k = 9 spans two IC(0) sweeps (SWEEP_COLUMNS = 8); 5 columns over
        // 3 workers are uneven column groups.
        for k in [1, 5, 9] {
            let cols: Vec<Vec<f64>> = (0..k).map(column).collect();
            let block = cols.concat();
            for threads in 1..=4 {
                let mut z = vec![7.0; k * n];
                ic.apply_with_threads(&block, &mut z, Some(threads));
                for (c, col) in cols.iter().enumerate() {
                    let mut want = vec![0.0; n];
                    ic.apply_with_threads(col, &mut want, Some(1));
                    let got = &z[c * n..(c + 1) * n];
                    assert_eq!(bits(got), bits(&want), "ic0 k={k} column {c}, {threads} workers");
                }
            }
            let mut z = vec![7.0; k * n];
            jacobi.apply(&block, &mut z);
            for (c, col) in cols.iter().enumerate() {
                let want = apply_inverse(&mut jacobi, col);
                assert_eq!(bits(&z[c * n..(c + 1) * n]), bits(&want), "jacobi k={k} column {c}");
            }
        }
    }

    #[test]
    fn non_square_rejected_everywhere() {
        let mut b = TripletBuilder::new(2, 3);
        b.add(0, 0, 1.0);
        b.add(1, 1, 1.0);
        let a = b.build();
        assert!(Jacobi::new(&a).is_err());
        assert!(IncompleteCholesky::new(&a).is_err());
    }
}
