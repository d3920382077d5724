//! Preconditioners for the conjugate-gradient solver.
//!
//! The FVM conduction matrices this workspace produces are symmetric
//! positive definite and diagonally dominant, but far from well-conditioned:
//! the paper's meshes mix 5–60 µm cells over the optical network interfaces
//! with millimetre cells over the package, so face conductances span four
//! orders of magnitude. Four preconditioners are provided, in increasing
//! setup cost and decreasing iteration count:
//!
//! * [`Jacobi`] — `M = diag(A)`; free to build, the seed behaviour,
//! * [`Ssor`] — symmetric SOR splitting; no factorization, uses `A` itself,
//! * [`IncompleteCholesky`] — IC(0), a zero-fill `L·Lᵀ ≈ A` factorization;
//!   the strongest *one-level* option and the default for cached transient
//!   engines, because one factorization amortizes over many right-hand
//!   sides. Large factors apply their two triangular solves as
//!   level-scheduled (wavefront) parallel sweeps — see the type docs,
//! * [`Multigrid`] — a smoothed-aggregation algebraic
//!   multigrid V-cycle (see [`crate::multigrid`]); the only option whose
//!   iteration counts stay (nearly) mesh-independent, and the default for
//!   large steady solves.
//!
//! All applications are allocation-free so they can sit inside the CG
//! iteration loop.

use std::sync::Arc;

use crate::multigrid::{Multigrid, MultigridConfig};
use crate::sparse::{
    hardware_threads, nnz_balanced_chunk, SharedF64, SpinBarrier, WavefrontFactor,
};
use crate::{CsrMatrix, NumericsError};

/// Applies `z = M⁻¹ r` for some SPD approximation `M ≈ A`.
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
/// let a = b.build();
/// let mut m = PreconditionerKind::Ssor { omega: 1.2 }.build(&a)?;
/// assert_eq!(m.name(), "ssor");
///
/// let rhs = vec![1.0; n];
/// let mut x = vec![0.0; n];
/// let mut ws = CgWorkspace::with_capacity(n);
/// let stats = preconditioned_cg(&a, &rhs, &mut x, &mut m, &SolveOptions::default(), &mut ws)?;
/// assert!(stats.residual <= 1e-9);
/// # Ok::<(), vcsel_numerics::NumericsError>(())
/// ```
pub trait Preconditioner {
    /// Computes `z = M⁻¹ r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `z` have the wrong length.
    fn apply(&mut self, r: &[f64], z: &mut [f64]);

    /// Short identifier for benches and logs (`"jacobi"`, `"ic0"`, …).
    fn name(&self) -> &'static str;
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
    /// Element count above which [`Jacobi::apply`] splits the scaling loop
    /// across threads. The result is bitwise identical to the serial loop
    /// (each entry is one independent multiply), so the gate is purely a
    /// spawn-cost amortization threshold.
    pub const PARALLEL_LEN_THRESHOLD: usize = 1 << 18;

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
}

impl Jacobi {
    /// The scaling loop with an explicit worker count (1 = in-place
    /// serial). Chunk results are independent, so every count produces
    /// bitwise-identical output.
    fn apply_with_threads(&self, r: &[f64], z: &mut [f64], threads: usize) {
        let n = self.inv_diag.len();
        assert_eq!(r.len(), n);
        assert_eq!(z.len(), n);
        if threads < 2 {
            for i in 0..n {
                z[i] = r[i] * self.inv_diag[i];
            }
            return;
        }
        // Equal chunks are already balanced (one multiply per element).
        let chunk = n.div_ceil(threads);
        std::thread::scope(|scope| {
            for ((zc, rc), dc) in
                z.chunks_mut(chunk).zip(r.chunks(chunk)).zip(self.inv_diag.chunks(chunk))
            {
                scope.spawn(move || {
                    for ((zi, ri), di) in zc.iter_mut().zip(rc).zip(dc) {
                        *zi = ri * di;
                    }
                });
            }
        });
    }
}

impl Preconditioner for Jacobi {
    fn apply(&mut self, r: &[f64], z: &mut [f64]) {
        let threads = if self.inv_diag.len() < Self::PARALLEL_LEN_THRESHOLD {
            1
        } else {
            hardware_threads().min(CsrMatrix::MAX_SPMV_THREADS)
        };
        self.apply_with_threads(r, z, threads);
    }

    fn name(&self) -> &'static str {
        "jacobi"
    }
}

/// Level-set (wavefront) schedule of an IC(0) factor: the rows of `L`
/// partitioned into dependency levels — a row's level is one past the
/// deepest level among its lower-triangular neighbours, so all rows of one
/// level are mutually independent in the forward solve. Processing the same
/// levels back-to-front is a valid schedule for the transposed (backward)
/// solve: `l_ji ≠ 0` with `j > i` forces `level(j) > level(i)`, so every
/// dependency of a backward row lives in a later level.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LevelSchedule {
    /// `levels + 1` boundaries into the forward permuted rows.
    pub(crate) fwd_level_ptr: Vec<usize>,
    /// `L` with rows gathered into level order (within a level: ascending
    /// natural index, so the schedule is deterministic).
    pub(crate) fwd: WavefrontFactor,
    /// `levels + 1` boundaries into the backward permuted rows.
    pub(crate) bwd_level_ptr: Vec<usize>,
    /// `Lᵀ` with rows gathered into backward processing order (levels
    /// descending, ascending natural index within a level).
    pub(crate) bwd: WavefrontFactor,
}

impl LevelSchedule {
    /// Analyzes the factor's dependency levels and gathers both triangular
    /// factors into wavefront processing order. `O(nnz)` time and two
    /// permuted copies of the factor in memory.
    fn analyze(row_ptr: &[usize], col_idx: &[u32], values: &[f64]) -> Self {
        let n = row_ptr.len() - 1;
        let mut level_of = vec![0u32; n];
        let mut levels = 0usize;
        for i in 0..n {
            let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
            let mut lvl = 0;
            for &c in &col_idx[lo..hi - 1] {
                lvl = lvl.max(level_of[c as usize] + 1);
            }
            level_of[i] = lvl;
            levels = levels.max(lvl as usize + 1);
        }

        // Counting sort: forward order = (level ascending, row ascending).
        let mut fwd_level_ptr = vec![0usize; levels + 1];
        for &l in &level_of {
            fwd_level_ptr[l as usize + 1] += 1;
        }
        for l in 0..levels {
            fwd_level_ptr[l + 1] += fwd_level_ptr[l];
        }
        let mut order = vec![0u32; n];
        let mut next = fwd_level_ptr.clone();
        for (i, &l) in level_of.iter().enumerate() {
            order[next[l as usize]] = i as u32;
            next[l as usize] += 1;
        }
        let fwd = WavefrontFactor::gather(&order, row_ptr, col_idx, values);

        // Lᵀ in CSR (upper triangular, diagonal first in each row), then
        // gathered in backward processing order: levels descending.
        let (t_ptr, t_idx, t_val) = transpose_triangular(row_ptr, col_idx, values);
        let mut bwd_order = Vec::with_capacity(n);
        let mut bwd_level_ptr = Vec::with_capacity(levels + 1);
        bwd_level_ptr.push(0usize);
        for l in (0..levels).rev() {
            bwd_order.extend_from_slice(&order[fwd_level_ptr[l]..fwd_level_ptr[l + 1]]);
            bwd_level_ptr.push(bwd_order.len());
        }
        let bwd = WavefrontFactor::gather(&bwd_order, &t_ptr, &t_idx, &t_val);

        Self { fwd_level_ptr, fwd, bwd_level_ptr, bwd }
    }

    fn levels(&self) -> usize {
        self.fwd_level_ptr.len() - 1
    }
}

/// Rows per dependency level of a triangular factor (diagonal last per
/// row), without materializing the schedule — the cheap form behind
/// [`IncompleteCholesky::level_stats`].
fn level_row_counts(row_ptr: &[usize], col_idx: &[u32]) -> Vec<usize> {
    let n = row_ptr.len() - 1;
    let mut level_of = vec![0u32; n];
    let mut counts: Vec<usize> = Vec::new();
    for i in 0..n {
        let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
        let mut lvl = 0;
        for &c in &col_idx[lo..hi - 1] {
            lvl = lvl.max(level_of[c as usize] + 1);
        }
        level_of[i] = lvl;
        if counts.len() <= lvl as usize {
            counts.resize(lvl as usize + 1, 0);
        }
        counts[lvl as usize] += 1;
    }
    counts
}

/// Transposes a square triangular CSR factor (counting sort over columns,
/// `O(nnz)`; source rows ascending keep each output row's columns
/// ascending).
fn transpose_triangular(
    row_ptr: &[usize],
    col_idx: &[u32],
    values: &[f64],
) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
    let n = row_ptr.len() - 1;
    let mut t_ptr = vec![0usize; n + 1];
    for &c in col_idx {
        t_ptr[c as usize + 1] += 1;
    }
    for i in 0..n {
        t_ptr[i + 1] += t_ptr[i];
    }
    let mut t_idx = vec![0u32; values.len()];
    let mut t_val = vec![0.0; values.len()];
    let mut next = t_ptr.clone();
    for r in 0..n {
        for k in row_ptr[r]..row_ptr[r + 1] {
            let c = col_idx[k] as usize;
            t_idx[next[c]] = r as u32;
            t_val[next[c]] = values[k];
            next[c] += 1;
        }
    }
    (t_ptr, t_idx, t_val)
}

/// Shape statistics of an IC(0) level schedule — how much wavefront
/// parallelism the factor exposes. Reported by `perf_record`'s
/// `trisolve_fast` section.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelScheduleStats {
    /// Number of dependency levels (sequential stages per sweep).
    pub levels: usize,
    /// Rows of the widest level (peak available parallelism).
    pub max_level_rows: usize,
    /// Mean rows per level (`n / levels`).
    pub mean_level_rows: f64,
}

/// Zero-fill incomplete Cholesky factorization IC(0): `L·Lᵀ ≈ A` with `L`
/// restricted to the sparsity pattern of the lower triangle of `A`.
///
/// For the M-matrices FVM conduction assembly produces the factorization
/// exists and is stable; applying it costs two sparse triangular solves,
/// roughly the price of one extra matrix-vector product per CG iteration,
/// and typically cuts the iteration count by 2–6× on anisotropic meshes.
///
/// # Level-scheduled parallel application
///
/// The two triangular solves are inherently sequential row-by-row, but not
/// row-by-row *dense*: a row only depends on the rows its off-diagonal
/// columns name. The factor is analyzed once into dependency **levels**
/// (rows whose lower-triangular neighbours all live in earlier levels) —
/// lazily at the first threaded application, cached alongside the factor
/// from then on, so serial-only consumers never pay the analysis. Rows of
/// one level solve in parallel, dispatched as contiguous nnz-balanced
/// blocks of a level-permuted copy of the factor over the same
/// scoped-thread partitioning the SpMV gate uses. The wavefront apply
/// gives the same bits for every worker count of two or more, but **not**
/// the bits of the one-thread path: the serial apply runs the backward
/// solve as a scatter over `L`, the wavefront as a gather over the rows
/// of `Lᵀ`, and the two summation orders round differently. That is why
/// a cold tiny-fidelity IC(0) solve takes 220 CG iterations on one thread
/// and 221 on two. Removing level scheduling (leaving the serial solves
/// only) would make IC(0) thread-invariant.
///
/// The threaded path engages only when all of the following hold, and runs
/// the exact serial solves otherwise:
///
/// * [`IncompleteCholesky::set_parallel_apply`] is on (the default; the
///   `false` setting is the measurable A/B baseline, mirroring
///   [`MultigridConfig::parallel_sweeps`]),
/// * at least two workers are available ([`hardware_threads`], or the
///   explicit [`IncompleteCholesky::set_apply_threads`] override), and
/// * one apply's work (both sweeps, ≈ nnz of `A`) reaches
///   [`CsrMatrix::PARALLEL_NNZ_THRESHOLD`] — small factors stay serial so
///   test-scale meshes never pay thread-spawn cost. An explicit
///   [`IncompleteCholesky::set_apply_threads`] override bypasses the size
///   gate (tests force multi-level scheduling on tiny systems with it).
#[derive(Debug, Clone)]
pub struct IncompleteCholesky {
    /// CSR of `L` (lower triangular, diagonal stored last in each row,
    /// columns ascending) — the serial-apply form.
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
    /// Wavefront execution plan, built when the parallel path is in play
    /// (boxed so the serial-only factor stays lean inside
    /// [`AnyPreconditioner`]).
    schedule: Option<Box<LevelSchedule>>,
    /// Scratch vector the wavefront workers share (length `n` whenever
    /// `schedule` is present), so `apply` stays allocation-free.
    scratch: SharedF64,
    /// The A/B knob: `false` forces the serial solves everywhere.
    parallel_apply: bool,
    /// Explicit worker-count override (benches and forced-schedule tests);
    /// `None` means [`hardware_threads`] capped like the threaded SpMV.
    apply_threads: Option<usize>,
    /// Applications run so far (each is one forward + one backward
    /// triangular sweep) — a plain counter read by telemetry, incremented
    /// in the apply dispatcher, never inside the sweep loops.
    applies: u64,
}

impl PartialEq for IncompleteCholesky {
    fn eq(&self, other: &Self) -> bool {
        // The schedule and scratch are derived from the factor, and the
        // apply counter is run history, not identity; equality is the
        // factor plus the apply configuration.
        self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
            && self.values == other.values
            && self.parallel_apply == other.parallel_apply
            && self.apply_threads == other.apply_threads
    }
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

        // The level schedule is built lazily on the first parallel apply,
        // so serial-only consumers (explicit baselines, single-core
        // machines, below-gate factors) never pay its analysis or memory.
        Ok(Self {
            row_ptr,
            col_idx,
            values,
            schedule: None,
            scratch: SharedF64::new(0),
            parallel_apply: true,
            apply_threads: None,
            applies: 0,
        })
    }

    /// Applications run since construction: each apply is one forward and
    /// one backward triangular sweep, so telemetry counts `2 × applies`
    /// triangular solves.
    pub fn applies(&self) -> u64 {
        self.applies
    }

    /// The serial factor arrays `(row_ptr, col_idx, values)` — lower
    /// triangular, diagonal stored last per row (the artifact codec's
    /// source of truth).
    pub(crate) fn factor_parts(&self) -> (&[usize], &[u32], &[f64]) {
        (&self.row_ptr, &self.col_idx, &self.values)
    }

    /// The level schedule, when one has been built (lazily, on the first
    /// parallel apply).
    pub(crate) fn schedule_ref(&self) -> Option<&LevelSchedule> {
        self.schedule.as_deref()
    }

    /// The apply configuration `(parallel_apply, apply_threads)` the
    /// artifact codec persists alongside the factor.
    pub(crate) fn apply_config(&self) -> (bool, Option<usize>) {
        (self.parallel_apply, self.apply_threads)
    }

    /// Reassembles a factor from artifact-validated parts: the apply
    /// counter restarts at zero, scratch is sized for the carried schedule,
    /// and — matching [`IncompleteCholesky::set_parallel_apply`] — a
    /// schedule the current configuration would never use is dropped.
    pub(crate) fn from_restored_parts(
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
        schedule: Option<LevelSchedule>,
        parallel_apply: bool,
        apply_threads: Option<usize>,
    ) -> Self {
        let n = row_ptr.len().saturating_sub(1);
        let scratch = if schedule.is_some() { SharedF64::new(n) } else { SharedF64::new(0) };
        let mut restored = Self {
            row_ptr,
            col_idx,
            values,
            schedule: schedule.map(Box::new),
            scratch,
            parallel_apply,
            apply_threads,
            applies: 0,
        };
        restored.drop_stale_schedule();
        restored
    }

    /// Enables/disables the level-scheduled parallel triangular solves
    /// (builder style); `false` forces the exact serial solves everywhere —
    /// the A/B baseline, mirroring [`MultigridConfig::parallel_sweeps`].
    /// On by default (the size gate still applies).
    #[must_use]
    pub fn with_parallel_apply(mut self, on: bool) -> Self {
        self.set_parallel_apply(on);
        self
    }

    /// In-place form of [`IncompleteCholesky::with_parallel_apply`], for
    /// factors already cached inside a solve engine.
    pub fn set_parallel_apply(&mut self, on: bool) {
        self.parallel_apply = on;
        self.drop_stale_schedule();
    }

    /// Pins the wavefront worker count (builder style), clamped to ≥ 1. An
    /// explicit count bypasses the [`CsrMatrix::PARALLEL_NNZ_THRESHOLD`]
    /// size gate, so tests can force multi-level scheduling (and real
    /// thread spawning) on tiny systems even on one core.
    #[must_use]
    pub fn with_apply_threads(mut self, threads: usize) -> Self {
        self.set_apply_threads(threads);
        self
    }

    /// In-place form of [`IncompleteCholesky::with_apply_threads`].
    pub fn set_apply_threads(&mut self, threads: usize) {
        self.apply_threads = Some(threads.max(1));
        self.drop_stale_schedule();
    }

    /// The worker count an apply will use right now: 1 on the serial path,
    /// the (possibly pinned) thread count on the wavefront path.
    pub fn apply_threads(&self) -> usize {
        if self.runs_parallel() {
            self.configured_threads()
        } else {
            1
        }
    }

    /// Whether the next apply takes the level-scheduled parallel path
    /// (the schedule itself is built lazily on that first apply).
    pub fn runs_parallel(&self) -> bool {
        self.wants_parallel()
    }

    /// Level-schedule shape statistics (levels, widest level, mean width).
    /// Reads the stored schedule when present, otherwise counts level
    /// widths directly — `O(nnz)` time, `O(n)` memory, no permuted factor
    /// copies.
    pub fn level_stats(&self) -> LevelScheduleStats {
        let n = self.row_ptr.len() - 1;
        let counts = match &self.schedule {
            Some(s) => s.fwd_level_ptr.windows(2).map(|w| w[1] - w[0]).collect(),
            None => level_row_counts(&self.row_ptr, &self.col_idx),
        };
        let levels = counts.len();
        let max = counts.into_iter().max().unwrap_or(0);
        LevelScheduleStats {
            levels,
            max_level_rows: max,
            mean_level_rows: n as f64 / levels.max(1) as f64,
        }
    }

    fn configured_threads(&self) -> usize {
        self.apply_threads
            .unwrap_or_else(|| hardware_threads().min(CsrMatrix::MAX_SPMV_THREADS))
            .max(1)
    }

    /// The auto policy: both sweeps together touch ≈ nnz(A) stored values,
    /// so the parallel path engages at the same total work as the threaded
    /// SpMV. A pinned thread count bypasses the gate.
    fn wants_parallel(&self) -> bool {
        self.parallel_apply
            && self.configured_threads() >= 2
            && (self.apply_threads.is_some()
                || 2 * self.values.len() >= CsrMatrix::PARALLEL_NNZ_THRESHOLD)
    }

    /// Frees the schedule (and its scratch) when the current configuration
    /// no longer wants the parallel path; re-enabling rebuilds lazily.
    fn drop_stale_schedule(&mut self) {
        if !self.wants_parallel() {
            self.schedule = None;
            self.scratch = SharedF64::new(0);
        }
    }

    /// Builds the level schedule on first parallel use.
    fn ensure_schedule(&mut self) {
        if self.schedule.is_none() {
            self.schedule =
                Some(Box::new(LevelSchedule::analyze(&self.row_ptr, &self.col_idx, &self.values)));
            self.scratch = SharedF64::new(self.row_ptr.len() - 1);
        }
    }

    /// The exact serial solves (gather forward, scatter backward in place).
    fn apply_serial(&self, r: &[f64], z: &mut [f64]) {
        let n = self.row_ptr.len() - 1;
        // Forward solve L y = r (gather; y lands in z).
        for i in 0..n {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            let mut s = r[i];
            for k in lo..hi - 1 {
                s -= self.values[k] * z[self.col_idx[k] as usize];
            }
            z[i] = s / self.values[hi - 1];
        }
        // Backward solve Lᵀ x = y in place (scatter: once row i is final,
        // push its contribution into every earlier unknown).
        for i in (0..n).rev() {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            z[i] /= self.values[hi - 1];
            let xi = z[i];
            for k in lo..hi - 1 {
                z[self.col_idx[k] as usize] -= self.values[k] * xi;
            }
        }
    }

    /// The level-scheduled solves: one persistent worker pool per apply
    /// (not per level), with a spin barrier between levels. Workers carve
    /// each level into nnz-balanced contiguous blocks of the permuted
    /// factor; the barrier (and finally the scope join) orders the levels.
    fn apply_wavefront(&self, r: &[f64], z: &mut [f64], threads: usize) {
        let schedule = self.schedule.as_ref().expect("wavefront apply needs a schedule");
        let y = &self.scratch;
        debug_assert_eq!(y.len(), z.len());
        let levels = schedule.levels();
        let barrier = SpinBarrier::new(threads);
        std::thread::scope(|scope| {
            for worker in 0..threads {
                let barrier = &barrier;
                scope.spawn(move || {
                    for level in 0..levels {
                        let (ls, le) =
                            (schedule.fwd_level_ptr[level], schedule.fwd_level_ptr[level + 1]);
                        let (lo, hi) =
                            nnz_balanced_chunk(&schedule.fwd.row_ptr, ls, le, worker, threads);
                        schedule.fwd.solve_lower_block(lo, hi, r, y);
                        barrier.wait();
                    }
                    for level in 0..levels {
                        let (ls, le) =
                            (schedule.bwd_level_ptr[level], schedule.bwd_level_ptr[level + 1]);
                        let (lo, hi) =
                            nnz_balanced_chunk(&schedule.bwd.row_ptr, ls, le, worker, threads);
                        schedule.bwd.solve_upper_block(lo, hi, y);
                        if level + 1 < levels {
                            barrier.wait();
                        }
                    }
                });
            }
        });
        for (i, zi) in z.iter_mut().enumerate() {
            *zi = y.load(i);
        }
    }
}

impl Preconditioner for IncompleteCholesky {
    fn apply(&mut self, r: &[f64], z: &mut [f64]) {
        let n = self.row_ptr.len() - 1;
        assert_eq!(r.len(), n);
        assert_eq!(z.len(), n);
        self.applies += 1;
        if self.runs_parallel() {
            self.ensure_schedule();
            self.apply_wavefront(r, z, self.configured_threads());
        } else {
            self.apply_serial(r, z);
        }
    }

    fn name(&self) -> &'static str {
        "ic0"
    }
}

/// Symmetric SOR preconditioner,
/// `M = (D + ωL) D⁻¹ (D + ωLᵀ) / (ω(2 − ω))`.
///
/// Needs no factorization — the two triangular solves run directly on `A`,
/// held behind an [`Arc`] so a solve engine and this preconditioner can
/// reference **one** copy of the operator — and sits between Jacobi and
/// IC(0) in strength. The sweeps are sequential, so the apply is serial.
#[derive(Debug, Clone, PartialEq)]
pub struct Ssor {
    a: Arc<CsrMatrix>,
    diag: Vec<f64>,
    omega: f64,
}

impl Ssor {
    /// Builds the SSOR splitting of `a` with relaxation factor `omega`,
    /// cloning the operator.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::BadInput`] for `omega` outside `(0, 2)` and
    /// [`NumericsError::BadMatrix`] for a non-square matrix or non-positive
    /// diagonal.
    pub fn new(a: &CsrMatrix, omega: f64) -> Result<Self, NumericsError> {
        Self::shared(Arc::new(a.clone()), omega)
    }

    /// Like [`Ssor::new`] but sharing an already-owned operator instead of
    /// cloning it — the form the cached solve engines use.
    ///
    /// # Errors
    ///
    /// Same contract as [`Ssor::new`].
    pub fn shared(a: Arc<CsrMatrix>, omega: f64) -> Result<Self, NumericsError> {
        if !(omega > 0.0 && omega < 2.0) {
            return Err(NumericsError::BadInput {
                reason: format!("SSOR relaxation factor must be in (0,2), got {omega}"),
            });
        }
        if a.rows() != a.cols() {
            return Err(NumericsError::BadMatrix {
                reason: format!("matrix must be square, got {}x{}", a.rows(), a.cols()),
            });
        }
        let diag = checked_diagonal(&a)?;
        Ok(Self { a, diag, omega })
    }
}

impl Preconditioner for Ssor {
    fn apply(&mut self, r: &[f64], z: &mut [f64]) {
        let n = self.diag.len();
        assert_eq!(r.len(), n);
        assert_eq!(z.len(), n);
        let w = self.omega;
        let c = w * (2.0 - w);
        // (D + ωL) y = c·r (forward, y lands in z).
        for i in 0..n {
            let mut s = c * r[i];
            for (j, v) in self.a.row(i) {
                if j < i {
                    s -= w * v * z[j];
                }
            }
            z[i] = s / self.diag[i];
        }
        // w = D y.
        for (zi, d) in z.iter_mut().zip(&self.diag) {
            *zi *= d;
        }
        // (D + ωLᵀ) x = w (backward, in place).
        for i in (0..n).rev() {
            let mut s = z[i];
            for (j, v) in self.a.row(i) {
                if j > i {
                    s -= w * v * z[j];
                }
            }
            z[i] = s / self.diag[i];
        }
    }

    fn name(&self) -> &'static str {
        "ssor"
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
    /// Symmetric SOR with the given relaxation factor in `(0, 2)`.
    Ssor {
        /// Over-relaxation factor ω.
        omega: f64,
    },
    /// Smoothed-aggregation algebraic multigrid (one V-cycle per
    /// application) — mesh-independent iteration counts at `O(n)` setup,
    /// the default for large steady solves. See [`crate::multigrid`].
    Multigrid {
        /// Hierarchy construction and cycling parameters.
        config: MultigridConfig,
    },
}

/// An owned preconditioner of any supported kind (so caches can hold one
/// without trait objects).
#[derive(Debug, Clone, PartialEq)]
pub enum AnyPreconditioner {
    /// Diagonal scaling.
    Jacobi(Jacobi),
    /// IC(0) factorization.
    IncompleteCholesky(IncompleteCholesky),
    /// SSOR splitting.
    Ssor(Ssor),
    /// Smoothed-aggregation multigrid V-cycle (boxed — the hierarchy is
    /// far larger than the one-level variants).
    Multigrid(Box<Multigrid>),
}

impl PreconditionerKind {
    /// Builds the selected preconditioner for `a`.
    ///
    /// The operator-holding variants (SSOR, multigrid) clone `a` here;
    /// engines that already own the matrix behind an [`Arc`] should use
    /// [`PreconditionerKind::build_shared`] so one copy serves both.
    ///
    /// # Errors
    ///
    /// Propagates the constructor errors of the selected implementation
    /// (non-square matrix, bad diagonal, IC(0) breakdown, ω out of range).
    pub fn build(&self, a: &CsrMatrix) -> Result<AnyPreconditioner, NumericsError> {
        match *self {
            // Jacobi and IC(0) derive their own compact data and never
            // retain the operator, so no sharing arises.
            PreconditionerKind::Jacobi | PreconditionerKind::IncompleteCholesky => {
                self.build_from_parts(a, None)
            }
            _ => self.build_from_parts(a, Some(Arc::new(a.clone()))),
        }
    }

    /// Like [`PreconditionerKind::build`] but referencing a shared
    /// operator instead of cloning it: the SSOR splitting and every
    /// multigrid fine level alias `a`, so a cached solve engine and its
    /// preconditioner hold **one** copy of the (potentially
    /// hundreds-of-MB) matrix.
    ///
    /// # Errors
    ///
    /// Same contract as [`PreconditionerKind::build`].
    pub fn build_shared(&self, a: &Arc<CsrMatrix>) -> Result<AnyPreconditioner, NumericsError> {
        self.build_from_parts(a, Some(Arc::clone(a)))
    }

    fn build_from_parts(
        &self,
        a: &CsrMatrix,
        shared: Option<Arc<CsrMatrix>>,
    ) -> Result<AnyPreconditioner, NumericsError> {
        Ok(match *self {
            PreconditionerKind::Jacobi => AnyPreconditioner::Jacobi(Jacobi::new(a)?),
            PreconditionerKind::IncompleteCholesky => {
                AnyPreconditioner::IncompleteCholesky(IncompleteCholesky::new(a)?)
            }
            PreconditionerKind::Ssor { omega } => AnyPreconditioner::Ssor(Ssor::shared(
                shared.expect("operator-holding kinds receive the shared handle"),
                omega,
            )?),
            PreconditionerKind::Multigrid { config } => {
                AnyPreconditioner::Multigrid(Box::new(Multigrid::new_shared(
                    shared.expect("operator-holding kinds receive the shared handle"),
                    &config,
                )?))
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

    /// The IC(0) factor, when this is the incomplete-Cholesky variant —
    /// benches and tests use it to inspect the level schedule behind a
    /// cached engine.
    pub fn as_incomplete_cholesky(&self) -> Option<&IncompleteCholesky> {
        match self {
            AnyPreconditioner::IncompleteCholesky(p) => Some(p),
            _ => None,
        }
    }

    /// Applies the IC(0) `parallel_apply` knob when this is the
    /// incomplete-Cholesky variant; a no-op for the other kinds (whose
    /// threading is governed by their own gates). Returns whether the knob
    /// landed on an IC(0) factor.
    pub fn set_parallel_apply(&mut self, on: bool) -> bool {
        match self {
            AnyPreconditioner::IncompleteCholesky(p) => {
                p.set_parallel_apply(on);
                true
            }
            _ => false,
        }
    }

    /// Pins the IC(0) wavefront worker count when this is the
    /// incomplete-Cholesky variant (forcing the level-scheduled path past
    /// the size gate — see [`IncompleteCholesky::with_apply_threads`]); a
    /// no-op for the other kinds. Returns whether the pin landed.
    pub fn set_apply_threads(&mut self, threads: usize) -> bool {
        match self {
            AnyPreconditioner::IncompleteCholesky(p) => {
                p.set_apply_threads(threads);
                true
            }
            _ => false,
        }
    }
}

impl Preconditioner for AnyPreconditioner {
    fn apply(&mut self, r: &[f64], z: &mut [f64]) {
        match self {
            AnyPreconditioner::Jacobi(p) => p.apply(r, z),
            AnyPreconditioner::IncompleteCholesky(p) => p.apply(r, z),
            AnyPreconditioner::Ssor(p) => p.apply(r, z),
            AnyPreconditioner::Multigrid(p) => p.apply(r, z),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            AnyPreconditioner::Jacobi(p) => p.name(),
            AnyPreconditioner::IncompleteCholesky(p) => p.name(),
            AnyPreconditioner::Ssor(p) => p.name(),
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
    fn ssor_application_is_spd() {
        // M⁻¹ of an SPD splitting must itself be SPD: check xᵀM⁻¹x > 0 on a
        // few vectors and symmetry ⟨M⁻¹u, v⟩ = ⟨u, M⁻¹v⟩.
        let a = laplacian_1d(12);
        let mut p = Ssor::new(&a, 1.3).unwrap();
        let u: Vec<f64> = (0..12).map(|i| ((i * 7 % 5) as f64) - 2.0).collect();
        let v: Vec<f64> = (0..12).map(|i| ((i * 3 % 7) as f64) - 3.0).collect();
        let mu = apply_inverse(&mut p, &u);
        let mv = apply_inverse(&mut p, &v);
        let dot = |x: &[f64], y: &[f64]| x.iter().zip(y).map(|(a, b)| a * b).sum::<f64>();
        assert!(dot(&u, &mu) > 0.0);
        assert!((dot(&mu, &v) - dot(&u, &mv)).abs() < 1e-9, "M⁻¹ must stay symmetric");
        assert_eq!(p.name(), "ssor");
    }

    #[test]
    fn ssor_validates_omega() {
        let a = laplacian_1d(3);
        assert!(Ssor::new(&a, 0.0).is_err());
        assert!(Ssor::new(&a, 2.0).is_err());
        assert!(Ssor::new(&a, 1.0).is_ok());
    }

    #[test]
    fn kind_builds_every_variant() {
        let a = laplacian_1d(5);
        for (kind, name) in [
            (PreconditionerKind::Jacobi, "jacobi"),
            (PreconditionerKind::IncompleteCholesky, "ic0"),
            (PreconditionerKind::Ssor { omega: 1.5 }, "ssor"),
            (
                PreconditionerKind::Multigrid { config: crate::MultigridConfig::default() },
                "multigrid",
            ),
        ] {
            let mut p = kind.build(&a).unwrap();
            assert_eq!(p.name(), name);
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
        p.apply_with_threads(&r, &mut serial, 1);
        for threads in [2, 3, 7, 16] {
            let mut par = vec![0.0; n];
            p.apply_with_threads(&r, &mut par, threads);
            assert_eq!(par, serial, "mismatch with {threads} threads");
        }
    }

    #[test]
    fn shared_ssor_aliases_the_operator() {
        let a = std::sync::Arc::new(laplacian_1d(10));
        let _s = Ssor::shared(std::sync::Arc::clone(&a), 1.0).unwrap();
        assert_eq!(std::sync::Arc::strong_count(&a), 2);
    }

    /// 3-D 7-point SPD stencil with mildly varying conductances — the FVM
    /// system shape, small enough for forced-schedule tests.
    fn stencil_3d(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
        let n = nx * ny * nz;
        let mut b = TripletBuilder::with_capacity(n, n, 7 * n);
        let idx = |i: usize, j: usize, k: usize| (k * ny + j) * nx + i;
        let mut diag = vec![0.0; n];
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let c = idx(i, j, k);
                    let mut couple = |d: usize, g: f64| {
                        b.add(c, d, -g);
                        b.add(d, c, -g);
                        diag[c] += g;
                        diag[d] += g;
                    };
                    if i + 1 < nx {
                        couple(idx(i + 1, j, k), 0.4 + 0.3 * ((c * 3) as f64 * 0.7).sin().abs());
                    }
                    if j + 1 < ny {
                        couple(idx(i, j + 1, k), 0.2 + 0.5 * ((c * 5) as f64 * 0.3).cos().abs());
                    }
                    if k + 1 < nz {
                        couple(idx(i, j, k + 1), 0.1 + 0.2 * ((c * 7) as f64 * 0.9).sin().abs());
                    }
                }
            }
        }
        for (c, d) in diag.iter().enumerate() {
            b.add(c, c, d + 0.05 + 0.01 * (c as f64 * 0.11).cos().abs());
        }
        b.build()
    }

    #[test]
    fn level_schedule_shape_on_known_factors() {
        // Diagonal matrix: no dependencies, one level holding every row.
        let mut b = TripletBuilder::new(5, 5);
        for i in 0..5 {
            b.add(i, i, 2.0 + i as f64);
        }
        let diag = IncompleteCholesky::new(&b.build()).unwrap();
        let s = diag.level_stats();
        assert_eq!((s.levels, s.max_level_rows), (1, 5));

        // 1-D Laplacian: bidiagonal factor, strictly sequential — n levels
        // of one row each (no wavefront parallelism to exploit).
        let chain = IncompleteCholesky::new(&laplacian_1d(9)).unwrap();
        let s = chain.level_stats();
        assert_eq!((s.levels, s.max_level_rows), (9, 1));
        assert!((s.mean_level_rows - 1.0).abs() < 1e-12);

        // 3-D stencil: levels are the i+j+k wavefronts, far fewer than n.
        let stencil = IncompleteCholesky::new(&stencil_3d(5, 4, 3)).unwrap();
        let s = stencil.level_stats();
        assert_eq!(s.levels, 5 + 4 + 3 - 2, "grid wavefront count");
        assert!(s.max_level_rows > 1);
    }

    #[test]
    fn wavefront_apply_is_bitwise_serial_for_every_worker_count() {
        // Forced thread counts bypass the size gate and spawn real workers
        // even on one core. The forward solve matches the serial kernel
        // bitwise; the backward solve sums in a different order, so
        // against serial the outputs agree to rounding, and across worker
        // counts they agree bitwise.
        let a = stencil_3d(6, 5, 4);
        let mut serial = IncompleteCholesky::new(&a).unwrap().with_parallel_apply(false);
        assert_eq!(serial.apply_threads(), 1);
        let n = a.rows();
        let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin() * 2.0).collect();
        let mut z_serial = vec![0.0; n];
        serial.apply(&r, &mut z_serial);

        for threads in [2, 3, 5, 8] {
            let mut forced = IncompleteCholesky::new(&a).unwrap().with_apply_threads(threads);
            assert!(forced.runs_parallel(), "pinned {threads} workers must take the wavefront");
            assert_eq!(forced.apply_threads(), threads);
            let mut z_par = vec![0.0; n];
            forced.apply(&r, &mut z_par);
            // The parallel backward sweep gathers over Lᵀ where the serial
            // sweep scatters, so orderings differ only there; both solve
            // the same triangular systems.
            for (s, p) in z_serial.iter().zip(&z_par) {
                let scale = s.abs().max(1.0);
                assert!((s - p).abs() <= 1e-14 * scale, "{threads} workers: {s} vs {p}");
            }
            // And the wavefront itself is deterministic: every worker count
            // produces bitwise-identical output.
            let mut z_again = vec![0.0; n];
            let mut two = IncompleteCholesky::new(&a).unwrap().with_apply_threads(2);
            two.apply(&r, &mut z_again);
            assert_eq!(z_par, z_again, "wavefront output must not depend on worker count");
        }
    }

    #[test]
    fn parallel_apply_knob_and_size_gate() {
        let a = stencil_3d(4, 4, 3);
        // Small factor + no pinned threads: the size gate keeps it serial.
        let auto = IncompleteCholesky::new(&a).unwrap();
        assert!(!auto.runs_parallel(), "below the nnz gate the apply stays exact-serial");
        // Pinning workers forces the schedule; the knob drops it again.
        let mut forced = auto.clone().with_apply_threads(4);
        assert!(forced.runs_parallel());
        forced.set_parallel_apply(false);
        assert!(!forced.runs_parallel(), "parallel_apply = false is the serial A/B baseline");
        assert_eq!(forced.apply_threads(), 1);
        forced.set_parallel_apply(true);
        assert!(forced.runs_parallel(), "re-enabling restores the pinned wavefront");
        // The enum-level knob reaches a cached IC(0) and ignores others.
        let mut any = PreconditionerKind::IncompleteCholesky.build(&a).unwrap();
        assert!(any.set_parallel_apply(false));
        assert!(any.as_incomplete_cholesky().is_some());
        let mut jac = PreconditionerKind::Jacobi.build(&a).unwrap();
        assert!(!jac.set_parallel_apply(false));
        assert!(jac.as_incomplete_cholesky().is_none());
    }

    #[test]
    fn wavefront_ic0_preconditions_cg_to_the_same_field() {
        use crate::solver::{preconditioned_cg, CgWorkspace, SolveOptions};
        let a = stencil_3d(6, 6, 3);
        let n = a.rows();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).sin()).collect();
        let rhs = a.mul_vec(&x_true).unwrap();
        let opts = SolveOptions { tolerance: 1e-12, ..Default::default() };
        let mut fields = Vec::new();
        let mut iterations = Vec::new();
        for m in [
            IncompleteCholesky::new(&a).unwrap().with_parallel_apply(false),
            IncompleteCholesky::new(&a).unwrap().with_apply_threads(3),
        ] {
            let mut m = m;
            let mut x = vec![0.0; n];
            let mut ws = CgWorkspace::new();
            let stats = preconditioned_cg(&a, &rhs, &mut x, &mut m, &opts, &mut ws).unwrap();
            fields.push(x);
            iterations.push(stats.iterations);
        }
        assert_eq!(iterations[0], iterations[1], "same preconditioner, same trajectory");
        for (s, p) in fields[0].iter().zip(&fields[1]) {
            assert!((s - p).abs() < 1e-10, "serial {s} vs wavefront {p}");
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
        assert!(Ssor::new(&a, 1.0).is_err());
    }
}
