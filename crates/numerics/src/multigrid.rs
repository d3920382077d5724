//! Algebraic multigrid by smoothed aggregation — mesh-independent solves
//! for the FVM conduction systems this workspace produces.
//!
//! One-level preconditioners (Jacobi, IC(0)) both share a scaling
//! wall: their CG iteration counts grow with mesh resolution, because a
//! point-local operator can only damp error components whose wavelength is
//! comparable to a cell. The paper-fidelity meshes are ~40× larger than
//! the test meshes, so steady cold solves need an operator whose work is
//! `O(n)` **and** whose iteration count is (nearly) independent of `n`.
//! That is exactly what a multigrid hierarchy provides.
//!
//! # Design
//!
//! The hierarchy is built *algebraically* from the assembled [`CsrMatrix`]
//! — no mesh access — by smoothed aggregation (Vaněk/Mandel/Brezina):
//!
//! 1. **Strength of connection**: `j` is a strong neighbour of `i` when
//!    `|a_ij| ≥ θ √(a_ii · a_jj)`. The FVM face conductances span four
//!    orders of magnitude (60 µm cells against 3 mm cells, copper against
//!    oxide), and this scaled test keeps aggregation focused on the stiff
//!    couplings no smoother can handle.
//! 2. **Aggregation**: greedy root-based clustering of the strength graph
//!    (roots grab their whole strong neighbourhood; stragglers join their
//!    strongest aggregated neighbour; isolated cells become singletons).
//! 3. **Tentative prolongation** `P₀`: piecewise-constant injection, one
//!    column per aggregate, so coarse constants interpolate fine constants
//!    — the near-null space of a pure conduction operator.
//! 4. **Smoothed prolongation** `P = (I − ω/λ̂ · D_F⁻¹ A_F) P₀`, where
//!    `A_F` is the strength-filtered operator (weak couplings lumped onto
//!    the diagonal) and `λ̂` a power-iteration estimate of
//!    `ρ(D_F⁻¹ A_F)`. One damped-Jacobi sweep on the columns turns the
//!    blocky tentative interpolation into the smooth basis functions that
//!    give multigrid its mesh-independent convergence.
//! 5. **Galerkin coarse operator** `A_c = Pᵀ A P`, computed with the
//!    [`CsrMatrix::transpose`] / [`CsrMatrix::multiply_matrix`] kernels.
//!    Repeat from 1 until the operator is small enough for a dense
//!    Cholesky (or the coarsening stalls, where a Jacobi-CG fallback
//!    solves the coarsest level).
//!
//! # Smoothing
//!
//! Every non-coarsest level smooths with a degree-2 Chebyshev polynomial
//! in `D⁻¹A` over the interval `[λmax/30, λmax]` (Adams, Brezina, Hu &
//! Tuminaro, "Parallel multigrid smoothing: polynomial versus
//! Gauss–Seidel", J. Comput. Phys. 188, 2003). One step of the
//! polynomial is one SpMV plus one fused element-wise update
//! `z = D⁻¹(b − Ax); d = c₁d + c₂z; x += d`, so the smoother has no
//! sequential dependency to break: its threaded form *is* its serial
//! form, and iteration counts and fields are bitwise identical at every
//! thread count. `λmax` must bound `ρ(D⁻¹A)` from above (an
//! under-estimate amplifies the top of the spectrum instead of damping
//! it): it is 1.1 × the largest Ritz value of a 12-step Lanczos run from
//! a pseudo-random start, capped by the level's Gershgorin bound,
//! computed once at build and stored in the hierarchy artifact. The
//! polynomial is a symmetric operator in `D⁻¹A`, and the cycle is a fixed
//! V(1,1) — one smoothing pass before restricting, one after
//! prolongating — over a Galerkin hierarchy, so it is itself a symmetric
//! positive-definite operator: a legal CG preconditioner.
//!
//! Every cycle kernel — smoother, residual and transfer SpMVs through
//! [`CsrMatrix::multiply_into`], the Chebyshev vector update — threads
//! behind the crate's one size gate (rows × columns) and computes each
//! entry exactly as its serial loop does. `VCSEL_THREADS=1` is the serial
//! baseline.
//!
//! # Drivers
//!
//! [`MultigridHierarchy::cycle`] runs one stationary V-cycle on one
//! column, improving the incoming `x`, against caller-owned,
//! allocation-free [`MgWorkspace`] buffers. The entry point the engines
//! use is [`Multigrid`]: one V-cycle per column and application behind
//! the [`Preconditioner`] trait, selected via
//! [`PreconditionerKind::Multigrid`](crate::PreconditionerKind::Multigrid)
//! so it drops into [`preconditioned_cg`] and every cached solve engine
//! unchanged.
//!
//! An apply on k columns is a **block V-cycle**: the columns run in
//! chunks of at most three (`CYCLE_COLUMNS`), and on each level the
//! smoother and residual SpMVs, the restriction and the prolongation are
//! one [`CsrMatrix::multiply_into`] call over the whole chunk, so every
//! level operator and transfer streams from memory once per pass instead
//! of once per column — the cycle is memory-bandwidth bound, and CG's
//! block solves of a response basis hand it several columns per
//! iteration. The Chebyshev update and the dense coarse solve run column
//! by column, and every column is bitwise its own one-column cycle.
//!
//! A preconditioner apply starts from `x = 0`, and so does every coarser
//! level's correction. The first pre-smoothing step on each level
//! therefore skips the SpMV `A·0` and writes the bits the full step would
//! (see `chebyshev_smooth`), and no level zero-fills its iterate first.
//! The finest level borrows the caller's buffers: it reads `b` from CG's
//! residual block and builds `x` in CG's `z`, with no copy in or out.
//!
//! Three columns per pass is what the memory budget buys: the wider
//! level buffers cost about what CG saves by sharing storage between `z`
//! and `A·p`, so the multigrid engines' peak resident set stays flat. A
//! five-column pass was faster still but raised the `figures_fast` peak
//! by 7.9 % (the measurements are documented at `CYCLE_COLUMNS`).

use std::ops::Range;
use std::sync::Arc;

use vcsel_telemetry::{Arg, ArgValue};

use crate::fork::{fork_join, share_range, take_front};
use crate::precond::{assert_columns, checked_diagonal, Jacobi, Preconditioner};
use crate::solver::{preconditioned_cg, CgWorkspace, SolveOptions};
use crate::{CsrMatrix, NumericsError};

/// Degree of the Chebyshev smoothing polynomial: SpMVs per smoothing pass.
const CHEBYSHEV_DEGREE: usize = 2;
/// `λmax / λmin` of the smoothing interval: the polynomial damps the top
/// of the spectrum of `D⁻¹A`, and the coarse grid handles the rest.
const CHEBYSHEV_RATIO: f64 = 30.0;
/// Lanczos steps behind the `λmax` estimate (one SpMV each).
const LANCZOS_STEPS: usize = 12;
/// Safety factor on the largest Ritz value, which approaches `ρ(D⁻¹A)`
/// from below.
const LAMBDA_SAFETY: f64 = 1.1;

/// Construction and cycling parameters of a [`MultigridHierarchy`].
///
/// The defaults are tuned for the workspace's FVM conduction systems and
/// are what [`PreconditionerKind::Multigrid`](crate::PreconditionerKind::Multigrid) with
/// [`MultigridConfig::default`] selects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultigridConfig {
    /// Strength-of-connection threshold `θ` in `[0, 1)`: `j` is strong for
    /// `i` when `|a_ij| ≥ θ √(a_ii a_jj)`.
    pub strength_threshold: f64,
    /// Prolongation-smoothing damping `ω` (applied as `ω/λ̂` with `λ̂` the
    /// estimated spectral radius of `D_F⁻¹ A_F`). The classical smoothed-
    /// aggregation choice is `4/3`.
    pub prolongation_damping: f64,
    /// Hard cap on hierarchy depth (including the coarsest level).
    pub max_levels: usize,
    /// Coarsen until an operator has at most this many unknowns, then
    /// factor it densely.
    pub direct_cells: usize,
}

impl Default for MultigridConfig {
    fn default() -> Self {
        Self {
            strength_threshold: 0.08,
            prolongation_damping: 4.0 / 3.0,
            max_levels: 16,
            direct_cells: 500,
        }
    }
}

/// One non-coarsest level: its operator, smoother state and grid
/// transfers.
#[derive(Debug, Clone, PartialEq)]
struct MgLevel {
    /// The level operator, shared rather than owned: on the finest level
    /// this aliases the caller's matrix (see [`MultigridHierarchy::build`]).
    a: Arc<CsrMatrix>,
    /// `D⁻¹`, the Chebyshev smoother's scaling.
    inv_diag: Vec<f64>,
    /// Upper end of the Chebyshev interval — an upper bound on
    /// `ρ(D⁻¹A)` (see [`chebyshev_upper_bound`]).
    lambda_max: f64,
    /// Prolongation to **this** level from the next-coarser one
    /// (`n_l × n_{l+1}`).
    p: CsrMatrix,
    /// Restriction `R = Pᵀ`, stored explicitly so both transfer directions
    /// run as row-major SpMV.
    r: CsrMatrix,
}

/// Dense Cholesky factorization of the coarsest operator.
#[derive(Debug, Clone, PartialEq)]
struct DenseCholesky {
    n: usize,
    /// Row-major lower factor `L` with `A = L Lᵀ`.
    l: Vec<f64>,
}

impl DenseCholesky {
    fn new(a: &CsrMatrix) -> Result<Self, NumericsError> {
        let n = a.rows();
        let mut l = vec![0.0; n * n];
        for i in 0..n {
            for (j, v) in a.row(i) {
                if j <= i {
                    l[i * n + j] = v;
                }
            }
        }
        for j in 0..n {
            for k in 0..j {
                let ljk = l[j * n + k];
                if ljk != 0.0 {
                    for i in j..n {
                        l[i * n + j] -= l[i * n + k] * ljk;
                    }
                }
            }
            let pivot = l[j * n + j];
            if !(pivot > 0.0) || !pivot.is_finite() {
                return Err(NumericsError::BadMatrix {
                    reason: format!(
                        "dense Cholesky breakdown at row {j}: pivot {pivot:.3e} is not positive"
                    ),
                });
            }
            let d = pivot.sqrt();
            for i in j..n {
                l[i * n + j] /= d;
            }
        }
        Ok(Self { n, l })
    }

    /// Adopts an already-computed row-major lower factor from the artifact
    /// restore path, re-checking the invariants [`DenseCholesky::solve`]
    /// divides by: `n²` entries, all finite, strictly positive diagonal.
    fn from_restored(n: usize, l: Vec<f64>) -> Result<Self, NumericsError> {
        let expected = n.checked_mul(n).ok_or_else(|| NumericsError::BadMatrix {
            reason: format!("dense factor dimension {n} overflows"),
        })?;
        if l.len() != expected {
            return Err(NumericsError::BadMatrix {
                reason: format!(
                    "dense factor holds {} entries, a {n}x{n} factor needs {expected}",
                    l.len()
                ),
            });
        }
        if let Some(i) = l.iter().position(|v| !v.is_finite()) {
            return Err(NumericsError::BadMatrix {
                reason: format!("dense factor entry {i} is not finite"),
            });
        }
        if let Some(j) = (0..n).find(|&j| !(l[j * n + j] > 0.0)) {
            return Err(NumericsError::BadMatrix {
                reason: format!("dense factor pivot {j} is not positive"),
            });
        }
        Ok(Self { n, l })
    }

    // Indexed loops are deliberate: the backward pass reads the strided
    // column `l[j*n + i]`, which has no contiguous-slice form.
    #[allow(clippy::needless_range_loop)]
    fn solve(&self, b: &[f64], x: &mut [f64]) {
        let n = self.n;
        // Forward: L y = b (y lands in x).
        for i in 0..n {
            let mut s = b[i];
            for j in 0..i {
                s -= self.l[i * n + j] * x[j];
            }
            x[i] = s / self.l[i * n + i];
        }
        // Backward: Lᵀ x = y in place.
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in i + 1..n {
                s -= self.l[j * n + i] * x[j];
            }
            x[i] = s / self.l[i * n + i];
        }
    }
}

/// How the coarsest level is solved.
#[derive(Debug, Clone, PartialEq)]
enum CoarseSolver {
    /// Dense Cholesky — the normal case once coarsening reaches
    /// [`MultigridConfig::direct_cells`].
    Direct(DenseCholesky),
    /// Jacobi-CG fallback for a coarsest operator that is still large
    /// (coarsening stalled) or resists the dense factorization.
    Iterative { m: Jacobi, opts: SolveOptions, ws: Box<CgWorkspace> },
}

/// Most columns one block V-cycle serves: every level operator,
/// restriction and prolongation is streamed once per pass for up to this
/// many columns, and a [`Multigrid`] apply on more columns runs them in
/// chunks of this width.
///
/// Three is what the memory budget buys. Each column of the pass needs
/// its own column of every level buffer in [`MgWorkspace`]: three columns
/// add about 16.2 MB over a one-column workspace on the full-die
/// `Fidelity::Fast` hierarchy (407 400 / 111 886 / 26 723 / 8 539 / 3 900
/// / 72 unknowns), which the CG workspace pays back by letting `z` share
/// storage with `A·p` (16.3 MB on its five-column basis), so the peak
/// resident set stays flat. In a prototype on a 2-thread Xeon, a
/// five-column pass ran the `figures_fast` benchmark in 7.36–7.67 s
/// against 8.1–9.0 s for three columns, but at a 299.3 MiB peak, 7.9 %
/// above the 277–278 MiB the three-column pass holds.
/// Fused SpMV epilogues (folding the Chebyshev, residual and prolongation
/// updates into the row kernel) would drop one scratch vector per level
/// and let a wider pass fit.
const CYCLE_COLUMNS: usize = 3;

/// Per-level scratch vectors for [`MultigridHierarchy::cycle`] and the
/// block V-cycle behind [`Multigrid`].
///
/// Owned by the caller (or by a [`Multigrid`] preconditioner) so repeated
/// cycles allocate nothing: the buffers are sized once against a hierarchy
/// and reused for every subsequent cycle. Every level holds two scratch
/// vectors and every coarser level its own right-hand side and iterate,
/// each for three columns back to back (the widest block V-cycle pass,
/// `CYCLE_COLUMNS`); the finest level borrows the caller's right-hand
/// side and iterate instead. The buffers are allocated zeroed, so a
/// one-column cycle never touches the pages of the other columns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MgWorkspace {
    levels: Vec<LevelBufs>,
}

#[derive(Debug, Clone, Default, PartialEq)]
struct LevelBufs {
    /// Right-hand sides, empty on the finest level.
    b: Vec<f64>,
    /// Iterates, empty on the finest level.
    x: Vec<f64>,
    scratch: Scratch,
}

/// A level's two scratch vectors, [`CYCLE_COLUMNS`] columns each.
#[derive(Debug, Clone, Default, PartialEq)]
struct Scratch {
    /// `A·x`, then the residual `b − A·x`.
    r: Vec<f64>,
    /// The Chebyshev direction, then `P · x_coarse`.
    z: Vec<f64>,
}

impl MgWorkspace {
    /// An empty workspace; buffers are sized lazily on the first cycle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sizes every level buffer for `h`.
    pub fn for_hierarchy(h: &MultigridHierarchy) -> Self {
        let mut ws = Self::new();
        ws.ensure(h);
        ws
    }

    /// Sizes the buffers for `h` unless they already fit — checked on
    /// every cycle without allocating.
    fn ensure(&mut self, h: &MultigridHierarchy) {
        let fits = self.levels.len() == h.level_count()
            && self
                .levels
                .iter()
                .zip(h.sizes())
                .all(|(l, n)| l.scratch.r.len() == CYCLE_COLUMNS * n);
        if !fits {
            self.resize(h);
        }
    }

    #[cold]
    fn resize(&mut self, h: &MultigridHierarchy) {
        self.levels = h
            .sizes()
            .enumerate()
            .map(|(level, n)| {
                let own = if level == 0 { 0 } else { CYCLE_COLUMNS * n };
                LevelBufs {
                    b: vec![0.0; own],
                    x: vec![0.0; own],
                    scratch: Scratch {
                        r: vec![0.0; CYCLE_COLUMNS * n],
                        z: vec![0.0; CYCLE_COLUMNS * n],
                    },
                }
            })
            .collect();
    }
}

/// A smoothed-aggregation multigrid hierarchy over one SPD operator.
///
/// Build once per matrix with [`MultigridHierarchy::build`], then run
/// [`cycle`](MultigridHierarchy::cycle) against a caller-owned
/// [`MgWorkspace`]. For use inside CG, wrap it in [`Multigrid`] (or select
/// [`PreconditionerKind::Multigrid`](crate::PreconditionerKind::Multigrid)).
#[derive(Debug, Clone, PartialEq)]
pub struct MultigridHierarchy {
    /// The finest operator — always the same [`Arc`] as `levels[0].a`
    /// (or as `coarse_a` when the hierarchy is degenerate), stored
    /// explicitly so residual checks against "the operator being solved"
    /// need no positional reasoning about which level holds it.
    fine: Arc<CsrMatrix>,
    /// Fine-to-coarse chain of smoothed levels (possibly empty when the
    /// operator is already small enough to factor directly).
    levels: Vec<MgLevel>,
    /// The coarsest operator (kept for residuals and the CG fallback).
    coarse_a: Arc<CsrMatrix>,
    coarse: CoarseSolver,
    config: MultigridConfig,
}

impl MultigridHierarchy {
    /// Builds the hierarchy for SPD `a` without copying it: the finest
    /// level keeps a reference to the caller's allocation (at paper scale
    /// the fine operator is ~215 MB), which
    /// [`MultigridHierarchy::fine_operator`] exposes for identity checks.
    /// Build telemetry (per-level coarsening spans, coarsest-solver choice,
    /// grid and operator complexities) goes to
    /// [`vcsel_telemetry::global`].
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::BadMatrix`] for a non-square matrix or a
    /// non-positive diagonal, and [`NumericsError::BadInput`] for
    /// out-of-range configuration values.
    ///
    /// # Example
    ///
    /// ```
    /// use std::sync::Arc;
    /// use vcsel_numerics::{MgWorkspace, MultigridConfig, MultigridHierarchy, TripletBuilder};
    ///
    /// // 1-D Poisson chain with a Robin-like shift: SPD and coarsenable.
    /// let n = 1200;
    /// let mut b = TripletBuilder::new(n, n);
    /// for i in 0..n {
    ///     b.add(i, i, 2.001);
    ///     if i > 0 { b.add(i, i - 1, -1.0); }
    ///     if i + 1 < n { b.add(i, i + 1, -1.0); }
    /// }
    /// let a = Arc::new(b.build());
    /// let mut h = MultigridHierarchy::build(Arc::clone(&a), &MultigridConfig::default())?;
    /// assert!(h.level_count() >= 2, "1200 unknowns must coarsen");
    ///
    /// // Stationary V-cycling from zero: each cycle improves `x` in place.
    /// let rhs = vec![1.0; n];
    /// let mut x = vec![0.0; n];
    /// let mut ws = MgWorkspace::for_hierarchy(&h);
    /// // ‖b − Ax‖ / ‖b‖, with ‖b‖ = √n for the all-ones right-hand side.
    /// let rel_residual = |x: &[f64]| {
    ///     let ax = a.mul_vec(x).unwrap();
    ///     let r2: f64 = ax.iter().zip(&rhs).map(|(p, q)| (p - q) * (p - q)).sum();
    ///     (r2 / n as f64).sqrt()
    /// };
    /// let mut cycles = 0;
    /// while rel_residual(&x) > 1e-9 {
    ///     h.cycle(&rhs, &mut x, &mut ws);
    ///     cycles += 1;
    ///     assert!(cycles <= 100, "V-cycles must contract");
    /// }
    /// # Ok::<(), vcsel_numerics::NumericsError>(())
    /// ```
    pub fn build(a: Arc<CsrMatrix>, config: &MultigridConfig) -> Result<Self, NumericsError> {
        let sink = vcsel_telemetry::global();
        if a.rows() != a.cols() {
            return Err(NumericsError::BadMatrix {
                reason: format!("matrix must be square, got {}x{}", a.rows(), a.cols()),
            });
        }
        validate_config(config)?;

        // Per-level construction telemetry: structured `multigrid` span
        // events for aggregation-quality diagnosis.
        let mut build_span = sink.span("multigrid", "mg_build");
        let fine = Arc::clone(&a);
        let mut levels = Vec::new();
        let mut current = a;
        while current.rows() > config.direct_cells && levels.len() + 1 < config.max_levels {
            let start_ns = vcsel_telemetry::now_ns();
            let t = std::time::Instant::now();
            let Some((p, coarse)) = coarsen(&current, config)? else {
                break; // Coarsening stalled; solve this level iteratively.
            };
            if sink.is_enabled() {
                let mut ev = vcsel_telemetry::Event::new(
                    vcsel_telemetry::EventKind::Span,
                    "multigrid",
                    "mg_level",
                )
                .with_args(&[
                    Arg::u64("level", levels.len() as u64),
                    Arg::u64("cells", current.rows() as u64),
                    Arg::u64("nnz", current.nnz() as u64),
                    Arg::u64("coarse_cells", coarse.rows() as u64),
                ]);
                ev.start_ns = start_ns;
                ev.dur_ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
                ev.tid = vcsel_telemetry::thread_id();
                sink.record_event(ev);
            }
            let r = p.transpose();
            let inv_diag = inverse_diagonal(&current)?;
            let lambda_max = chebyshev_upper_bound(&current, &inv_diag);
            levels.push(MgLevel { a: current, inv_diag, lambda_max, p, r });
            current = Arc::new(coarse);
        }

        // Only *attempt* the dense factorization on a small enough
        // operator — an O(n³) Cholesky on a stalled multi-thousand-cell
        // coarsest level would dwarf the rest of the build.
        let coarse = match &*current {
            a if a.rows() <= config.direct_cells => match DenseCholesky::new(a) {
                Ok(ch) => CoarseSolver::Direct(ch),
                Err(_) => iterative_coarse(a)?,
            },
            // Too large for a dense factor (coarsening stall / level cap):
            // fall back to Jacobi-CG per visit.
            a => iterative_coarse(a)?,
        };
        let coarse_kind = match &coarse {
            CoarseSolver::Direct(_) => "dense Cholesky",
            CoarseSolver::Iterative { .. } => "Jacobi-CG",
        };
        sink.instant(
            "multigrid",
            "mg_coarsest",
            &[
                Arg::u64("cells", current.rows() as u64),
                Arg::u64("nnz", current.nnz() as u64),
                Arg::str("solver", coarse_kind),
            ],
        );
        let built = Self { fine, levels, coarse_a: current, coarse, config: *config };
        if build_span.is_armed() {
            // Grid complexity Σ level cells / fine cells, operator
            // complexity Σ level nnz / fine nnz: the aggregation-health
            // numbers the module docs quote (1.2–1.6 is healthy).
            let fine_cells = built.fine_unknowns().max(1);
            let grid_cells: usize = built.sizes().sum();
            build_span.arg("levels", ArgValue::U64(built.level_count() as u64));
            build_span.arg("cells", ArgValue::U64(built.fine_unknowns() as u64));
            build_span.arg("grid_complexity", ArgValue::F64(grid_cells as f64 / fine_cells as f64));
            build_span.arg(
                "operator_complexity",
                ArgValue::F64(built.total_nnz() as f64 / built.fine.nnz().max(1) as f64),
            );
        }
        drop(build_span);
        Ok(built)
    }

    /// Number of operator levels, including the coarsest.
    pub fn level_count(&self) -> usize {
        self.levels.len() + 1
    }

    /// Unknowns per level, fine to coarse.
    pub fn level_sizes(&self) -> Vec<usize> {
        self.sizes().collect()
    }

    /// [`MultigridHierarchy::level_sizes`] without the allocation.
    fn sizes(&self) -> impl Iterator<Item = usize> + '_ {
        self.levels.iter().map(|l| l.a.rows()).chain(std::iter::once(self.coarse_a.rows()))
    }

    /// Unknowns of the finest operator.
    pub fn fine_unknowns(&self) -> usize {
        self.fine.rows()
    }

    /// The finest-level operator — the same allocation the caller passed
    /// to [`MultigridHierarchy::build`] (check with
    /// [`Arc::ptr_eq`]), whichever level slot it occupies.
    pub fn fine_operator(&self) -> &Arc<CsrMatrix> {
        &self.fine
    }

    /// Stored non-zeros summed over every level operator — the hierarchy's
    /// *operator complexity* numerator (divide by the fine nnz; values
    /// around 1.2–1.6 are healthy for aggregation-based coarsening).
    pub fn total_nnz(&self) -> usize {
        self.levels.iter().map(|l| l.a.nnz()).sum::<usize>() + self.coarse_a.nnz()
    }

    /// The construction parameters.
    pub fn config(&self) -> &MultigridConfig {
        &self.config
    }

    /// `(operator, λmax)` per smoothed (non-coarsest) level, fine to
    /// coarse: the level operator and the upper end of its Chebyshev
    /// smoothing interval, an upper bound on `ρ(D⁻¹A)`.
    pub fn smoother_bounds(&self) -> impl Iterator<Item = (&CsrMatrix, f64)> {
        self.levels.iter().map(|l| (&*l.a, l.lambda_max))
    }

    /// `(operator, prolongator, λmax)` per non-coarsest level, fine to
    /// coarse — the state the artifact codec persists (restrictions and
    /// inverse diagonals are deterministic functions of these and are
    /// rebuilt on restore).
    pub(crate) fn level_parts(
        &self,
    ) -> impl ExactSizeIterator<Item = (&Arc<CsrMatrix>, &CsrMatrix, f64)> {
        self.levels.iter().map(|l| (&l.a, &l.p, l.lambda_max))
    }

    /// The coarsest-level operator.
    pub(crate) fn coarse_matrix(&self) -> &CsrMatrix {
        &self.coarse_a
    }

    /// The dense Cholesky factor of the coarsest level as `(n, row-major
    /// L)`, or `None` when the coarsest solve is the Jacobi-CG fallback.
    pub(crate) fn coarse_dense_factor(&self) -> Option<(usize, &[f64])> {
        match &self.coarse {
            CoarseSolver::Direct(ch) => Some((ch.n, &ch.l)),
            CoarseSolver::Iterative { .. } => None,
        }
    }

    /// Reassembles a hierarchy from artifact-validated parts without any
    /// coarsening, factorization or spectral estimation: restrictions are
    /// re-transposed from the prolongators, inverse diagonals re-extracted
    /// from the restored level operators, the stored Chebyshev bounds
    /// adopted after a range check against each level's Gershgorin bound,
    /// and the coarse solver either adopts the stored dense factor or
    /// re-creates the cheap Jacobi-CG fallback.
    pub(crate) fn from_restored_parts(
        ops: Vec<Arc<CsrMatrix>>,
        prolongators: Vec<CsrMatrix>,
        bounds: Vec<f64>,
        coarse_a: CsrMatrix,
        coarse_dense: Option<Vec<f64>>,
        config: MultigridConfig,
    ) -> Result<Self, NumericsError> {
        validate_config(&config)?;
        if ops.len() != prolongators.len() || ops.len() != bounds.len() {
            return Err(NumericsError::BadMatrix {
                reason: format!(
                    "restored hierarchy has {} operators, {} prolongators and {} smoother bounds",
                    ops.len(),
                    prolongators.len(),
                    bounds.len()
                ),
            });
        }
        for (idx, (a, p)) in ops.iter().zip(&prolongators).enumerate() {
            let next_rows = ops.get(idx + 1).map_or(coarse_a.rows(), |coarser| coarser.rows());
            if p.rows() != a.rows() || p.cols() != next_rows {
                return Err(NumericsError::BadMatrix {
                    reason: format!(
                        "restored prolongator {idx} is {}x{}, transfer chain needs {}x{next_rows}",
                        p.rows(),
                        p.cols(),
                        a.rows()
                    ),
                });
            }
        }
        let mut levels = Vec::with_capacity(ops.len());
        for (idx, ((a, p), lambda_max)) in ops.into_iter().zip(prolongators).zip(bounds).enumerate()
        {
            let inv_diag = inverse_diagonal(&a)?;
            // A bound above Gershgorin's is impossible for a fresh build
            // (it caps the estimate), and a non-positive or non-finite one
            // would turn the smoother into an amplifier.
            let gershgorin = gershgorin_bound(&a, &inv_diag);
            if !(lambda_max > 0.0 && lambda_max <= gershgorin) {
                return Err(NumericsError::BadInput {
                    reason: format!(
                        "restored smoother bound {lambda_max:e} on level {idx} lies outside \
                         (0, {gershgorin:e}], its Gershgorin bound"
                    ),
                });
            }
            let r = p.transpose();
            levels.push(MgLevel { a, inv_diag, lambda_max, p, r });
        }
        let coarse_a = Arc::new(coarse_a);
        let coarse = match coarse_dense {
            Some(l) => CoarseSolver::Direct(DenseCholesky::from_restored(coarse_a.rows(), l)?),
            None => iterative_coarse(&coarse_a)?,
        };
        let fine = match levels.first() {
            Some(l) => Arc::clone(&l.a),
            None => Arc::clone(&coarse_a),
        };
        Ok(Self { fine, levels, coarse_a, coarse, config })
    }

    /// Runs one V-cycle on `A x = b`, improving `x` in place from its
    /// incoming value — the stationary one-column cycle. A preconditioner
    /// application starts from zero instead; [`Multigrid`] runs that form.
    ///
    /// # Panics
    ///
    /// Panics if `b` or `x` have the wrong length.
    pub fn cycle(&mut self, b: &[f64], x: &mut [f64], ws: &mut MgWorkspace) {
        let n = self.fine_unknowns();
        assert_eq!(b.len(), n, "right-hand side length");
        assert_eq!(x.len(), n, "solution length");
        ws.ensure(self);
        self.cycle_columns(b, x, false, ws);
    }

    /// One block V-cycle on the 1 to [`CYCLE_COLUMNS`] columns held back
    /// to back in `b` and `x`, against a workspace [`MgWorkspace::ensure`]
    /// has sized. The finest level works in `b` and `x` themselves. With
    /// `from_zero` the cycle starts from `x = 0` and never reads `x`'s
    /// incoming contents.
    fn cycle_columns(&mut self, b: &[f64], x: &mut [f64], from_zero: bool, ws: &mut MgWorkspace) {
        let (finest, coarser) = ws.levels.split_at_mut(1);
        self.cycle_rec(0, b, x, from_zero, &mut finest[0].scratch, coarser);
    }

    /// One recursion step on `level`'s k columns: `b`/`x` hold its
    /// right-hand sides and iterates (`x` in/out; with `from_zero` its
    /// incoming contents are ignored), `scratch` its scratch vectors and
    /// `coarser` the buffers of every coarser level. Each operator pass —
    /// smoother and residual SpMVs, restriction, prolongation — serves all
    /// k columns at once; the Chebyshev update and the coarse solve run
    /// column by column.
    fn cycle_rec(
        &mut self,
        level: usize,
        b: &[f64],
        x: &mut [f64],
        from_zero: bool,
        scratch: &mut Scratch,
        coarser: &mut [LevelBufs],
    ) {
        if level == self.levels.len() {
            self.solve_coarsest(b, x);
            return;
        }
        let len = b.len();
        let (r, z) = (&mut scratch.r[..len], &mut scratch.z[..len]);
        let (next, rest) = coarser.split_at_mut(1);
        let LevelBufs { b: next_b, x: next_x, scratch: next_scratch } = &mut next[0];
        let current = &self.levels[level];
        let coarse_len = len / current.a.rows() * current.p.cols();
        let (next_b, next_x) = (&mut next_b[..coarse_len], &mut next_x[..coarse_len]);

        chebyshev_smooth(current, b, x, from_zero, r, z);
        residual_into(&current.a, b, x, r);
        current.r.multiply_into(r, next_b);
        self.cycle_rec(level + 1, next_b, next_x, true, next_scratch, rest);
        let current = &self.levels[level];
        prolong_correct(&current.p, next_x, x, z);
        chebyshev_smooth(current, b, x, false, r, z);
    }

    /// The coarsest-level solve, column by column. Both solvers ignore the
    /// incoming `x`: the dense solve writes every entry, the Jacobi-CG
    /// fallback starts each column from zero.
    fn solve_coarsest(&mut self, b: &[f64], x: &mut [f64]) {
        let Self { coarse_a, coarse, .. } = self;
        let n = coarse_a.rows().max(1);
        for (bc, xc) in b.chunks_exact(n).zip(x.chunks_exact_mut(n)) {
            match coarse {
                CoarseSolver::Direct(ch) => ch.solve(bc, xc),
                CoarseSolver::Iterative { m, opts, ws } => {
                    xc.fill(0.0);
                    // An inexact coarse solve only weakens the cycle, so a
                    // convergence failure here is deliberately non-fatal:
                    // CG leaves its best iterate in `x`.
                    let _ = preconditioned_cg(coarse_a, bc, xc, m, opts, ws);
                }
            }
        }
    }
}

/// Range checks on [`MultigridConfig`], shared by the build path and the
/// artifact restore path (which must re-reject a config that a newer or
/// corrupted artifact smuggles in).
fn validate_config(config: &MultigridConfig) -> Result<(), NumericsError> {
    if !(0.0..1.0).contains(&config.strength_threshold) {
        return Err(NumericsError::BadInput {
            reason: format!(
                "strength threshold must lie in [0,1), got {}",
                config.strength_threshold
            ),
        });
    }
    if !(config.prolongation_damping >= 0.0) || !config.prolongation_damping.is_finite() {
        return Err(NumericsError::BadInput {
            reason: format!(
                "prolongation damping must be non-negative, got {}",
                config.prolongation_damping
            ),
        });
    }
    if config.max_levels == 0 || config.direct_cells == 0 {
        return Err(NumericsError::BadInput {
            reason: "max_levels and direct_cells must be positive".into(),
        });
    }
    Ok(())
}

/// The CG fallback for a coarsest level that resisted dense factorization
/// (stall or breakdown). Solved tightly enough to act as an exact-solve
/// surrogate on the small stalled levels the θ=0 aggregation retry leaves
/// behind, but hard-capped so a pathologically large coarsest level (e.g.
/// a user-set `max_levels` truncating the hierarchy early) bounds the
/// per-cycle cost instead of re-running a full fine-scale solve. A
/// truncated inner solve makes the preconditioner slightly inexact —
/// weaker convergence, surfaced by a large coarsest level in the
/// `mg_coarsest` trace event — which is the deliberate trade against
/// unbounded cycle cost.
fn iterative_coarse(a: &CsrMatrix) -> Result<CoarseSolver, NumericsError> {
    Ok(CoarseSolver::Iterative {
        m: Jacobi::new(a)?,
        opts: SolveOptions { tolerance: 1e-12, max_iterations: a.rows().clamp(16, 500) },
        ws: Box::new(CgWorkspace::with_capacity(a.rows())),
    })
}

fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// `r = b − A·x` on k columns, one operator pass for all of them.
fn residual_into(a: &CsrMatrix, b: &[f64], x: &[f64], r: &mut [f64]) {
    a.multiply_into(x, r);
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
}

/// One Chebyshev smoothing pass on `A x = b` for k columns: the degree-2
/// polynomial in `D⁻¹A` over `[λmax/30, λmax]` (the three-term recurrence
/// of Saad, *Iterative Methods for Sparse Linear Systems*, Alg. 12.1).
/// Each step is one SpMV into `ax` serving all k columns and one fused
/// update per column; the search directions live in `d`, which is
/// scratch between passes. The update runs in row chunks across workers
/// once a column is large enough to repay the fork (see
/// [`chebyshev_update`]).
///
/// With `from_zero` the pass starts from `x = 0` without reading `x`: the
/// first step skips the SpMV (`A·0` is exactly `+0.0` and `b − 0.0` is
/// bitwise `b`) and writes `d = 0.0 + c₂·D⁻¹b` and `x = d`, the bits the
/// full step gives in both vectors from a zeroed `x`, signed zeros
/// included.
fn chebyshev_smooth(
    level: &MgLevel,
    b: &[f64],
    x: &mut [f64],
    from_zero: bool,
    ax: &mut [f64],
    d: &mut [f64],
) {
    let n = level.inv_diag.len();
    let upper = level.lambda_max;
    let lower = upper / CHEBYSHEV_RATIO;
    let (theta, delta) = (0.5 * (upper + lower), 0.5 * (upper - lower));
    let sigma = theta / delta;
    let mut rho = 1.0 / sigma;
    let (mut c1, mut c2) = (0.0, 1.0 / theta);
    for step in 0..CHEBYSHEV_DEGREE {
        if step > 0 {
            let next = 1.0 / (2.0 * sigma - rho);
            (c1, c2) = (next * rho, 2.0 * next / delta);
            rho = next;
        }
        let skip_spmv = from_zero && step == 0;
        if !skip_spmv {
            level.a.multiply_into(x, ax);
        }
        for (((bj, axj), dj), xj) in b
            .chunks_exact(n)
            .zip(ax.chunks_exact(n))
            .zip(d.chunks_exact_mut(n))
            .zip(x.chunks_exact_mut(n))
        {
            let axj = (!skip_spmv).then_some(axj);
            chebyshev_update(&level.inv_diag, bj, axj, dj, xj, (c1, c2), None);
        }
    }
}

/// The fused element-wise Chebyshev step `d = c₁d + c₂·D⁻¹(b − Ax);
/// x += d` on one column (`c₁ = 0` starts a new direction without reading
/// the stale one; `ax = None` is the first step from `x = 0`, see
/// [`chebyshev_smooth`]), in equal row chunks through the crate's one
/// fork-join, with the worker count pinned when `threads` is given. Every
/// entry is computed exactly as in the serial loop, so the result is
/// bitwise identical for any worker count.
fn chebyshev_update(
    inv_diag: &[f64],
    b: &[f64],
    ax: Option<&[f64]>,
    d: &mut [f64],
    x: &mut [f64],
    (c1, c2): (f64, f64),
    threads: Option<usize>,
) {
    let n = x.len();
    let (mut d_rest, mut x_rest) = (d, x);
    fork_join(
        n,
        n,
        threads,
        |share, shares| {
            let Range { start, end } = share_range(share, shares, n);
            let ax = ax.map(|ax| &ax[start..end]);
            let (d, x) =
                (take_front(&mut d_rest, end - start), take_front(&mut x_rest, end - start));
            (&inv_diag[start..end], &b[start..end], ax, d, x)
        },
        |(inv_diag, b, ax, d, x)| chebyshev_chunk(inv_diag, b, ax, d, x, c1, c2),
    );
}

/// Serial body of [`chebyshev_update`] over one contiguous chunk.
fn chebyshev_chunk(
    inv_diag: &[f64],
    b: &[f64],
    ax: Option<&[f64]>,
    d: &mut [f64],
    x: &mut [f64],
    c1: f64,
    c2: f64,
) {
    let Some(ax) = ax else {
        for (((di, xi), s), bi) in d.iter_mut().zip(x.iter_mut()).zip(inv_diag).zip(b) {
            // `0.0 +` turns a `-0.0` product into `+0.0`, as the full step
            // does; `x = 0.0 + d` would then be `d` bit for bit.
            *di = 0.0 + c2 * (s * bi);
            *xi = *di;
        }
        return;
    };
    for ((((di, xi), s), bi), axi) in d.iter_mut().zip(x.iter_mut()).zip(inv_diag).zip(b).zip(ax) {
        let prev = if c1 == 0.0 { 0.0 } else { c1 * *di };
        *di = prev + c2 * (s * (bi - axi));
        *xi += *di;
    }
}

/// `x += P · coarse_x` on k columns, one prolongation pass for all of
/// them (`z` is the fine-size scratch).
fn prolong_correct(p: &CsrMatrix, coarse_x: &[f64], x: &mut [f64], z: &mut [f64]) {
    p.multiply_into(coarse_x, z);
    for (xi, zi) in x.iter_mut().zip(z.iter()) {
        *xi += zi;
    }
}

/// `D⁻¹` of a level operator, rejecting a non-positive or non-finite
/// diagonal.
fn inverse_diagonal(a: &CsrMatrix) -> Result<Vec<f64>, NumericsError> {
    Ok(checked_diagonal(a)?.iter().map(|d| 1.0 / d).collect())
}

/// The Gershgorin bound `max_i Σ_j |a_ij| / a_ii` on the eigenvalues of
/// `D⁻¹A`: no eigenvalue exceeds it, so it caps the Chebyshev interval.
fn gershgorin_bound(a: &CsrMatrix, inv_diag: &[f64]) -> f64 {
    (0..a.rows())
        .map(|i| a.row(i).map(|(_, v)| v.abs()).sum::<f64>() * inv_diag[i])
        .fold(0.0, f64::max)
}

/// The upper end `λmax` of a level's Chebyshev interval: an upper bound on
/// `ρ(D⁻¹A)` — [`LAMBDA_SAFETY`] × the largest Ritz value of
/// [`LANCZOS_STEPS`] Lanczos steps, capped by [`gershgorin_bound`].
///
/// Lanczos runs on `D⁻¹A` in the `D` inner product, where it is
/// self-adjoint (the iteration is Lanczos on `D^{-1/2} A D^{-1/2}`), so
/// the Ritz value approaches `ρ` from below. A power iteration with the
/// same SpMV count does not suffice: on high-contrast operators it
/// under-estimates by more than the safety factor, and an under-estimate
/// makes the smoother amplify the top of the spectrum. The start vector
/// is pseudo-random per row, so every eigencomponent is present from the
/// first step; a smooth start misses the oscillatory modes, and a pure
/// sign pattern can cancel a mode localised on a pair of strongly coupled
/// cells. Deterministic, and bitwise identical at any thread count.
fn chebyshev_upper_bound(a: &CsrMatrix, inv_diag: &[f64]) -> f64 {
    let gershgorin = gershgorin_bound(a, inv_diag);
    let n = a.rows();
    let diag: Vec<f64> = inv_diag.iter().map(|s| 1.0 / s).collect();
    // A unit vector in the D norm: random values scaled by D^{-1/2}.
    let mut v: Vec<f64> = (0..n).map(|i| random_unit(i) * inv_diag[i].sqrt()).collect();
    let norm = v.iter().zip(&diag).map(|(x, d)| x * x * d).sum::<f64>().sqrt();
    v.iter_mut().for_each(|vi| *vi /= norm);
    let (mut prev, mut w) = (vec![0.0; n], vec![0.0; n]);
    let (mut alpha, mut beta) = (Vec::new(), Vec::new());
    let mut beta_prev = 0.0;
    for _ in 0..LANCZOS_STEPS.min(n) {
        a.multiply_into(&v, &mut w);
        // α = ⟨D⁻¹Av, v⟩_D = (Av)·v, taken before the scaling.
        let mut alpha_j = 0.0;
        for ((wi, vi), s) in w.iter_mut().zip(&v).zip(inv_diag) {
            alpha_j += *wi * vi;
            *wi *= s;
        }
        let mut beta_sq = 0.0;
        for (((wi, vi), pi), d) in w.iter_mut().zip(&v).zip(&prev).zip(&diag) {
            *wi -= alpha_j * vi + beta_prev * pi;
            beta_sq += *wi * *wi * d;
        }
        alpha.push(alpha_j);
        // The largest Ritz value only grows with the step count, so once
        // the safety margin reaches the Gershgorin cap the cap is the
        // answer (the usual case on a diagonally dominant fine level).
        if LAMBDA_SAFETY * largest_tridiagonal_eigenvalue(&alpha, &beta) >= gershgorin {
            return gershgorin;
        }
        let beta_j = beta_sq.sqrt();
        // A vanishing β means an invariant subspace: the Ritz values are
        // exact eigenvalues and the recurrence ends.
        if !(beta_j > 1e-12 * alpha_j.abs()) {
            break;
        }
        beta.push(beta_j);
        beta_prev = beta_j;
        std::mem::swap(&mut prev, &mut v);
        let scale = 1.0 / beta_j;
        for (vi, wi) in v.iter_mut().zip(&w) {
            *vi = wi * scale;
        }
    }
    let ritz = largest_tridiagonal_eigenvalue(&alpha, &beta);
    if !(ritz > 0.0 && ritz.is_finite()) {
        return gershgorin;
    }
    (LAMBDA_SAFETY * ritz).min(gershgorin)
}

/// Largest eigenvalue of the symmetric tridiagonal matrix `T` with
/// diagonal `alpha` and off-diagonal `beta[..alpha.len() - 1]`, by
/// bisection on its Sturm count (the number of eigenvalues below `x` is
/// the number of negative pivots of `T − xI`). Returns the upper end of
/// the final bracket, `-∞` for an empty `alpha`.
fn largest_tridiagonal_eigenvalue(alpha: &[f64], beta: &[f64]) -> f64 {
    let k = alpha.len();
    let off = |j: usize| if j + 1 < k { beta[j].abs() } else { 0.0 };
    let below = |x: f64| {
        let mut count = 0;
        let mut pivot = 1.0;
        for (j, a_j) in alpha.iter().enumerate() {
            let coupling = if j > 0 { off(j - 1).powi(2) / pivot } else { 0.0 };
            pivot = a_j - x - coupling;
            if pivot == 0.0 {
                pivot = f64::MIN_POSITIVE;
            }
            count += usize::from(pivot < 0.0);
        }
        count
    };
    // λmax(T) lies between its largest diagonal entry and its Gershgorin
    // bound.
    let mut lo = alpha.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut hi = (0..k)
        .map(|j| alpha[j] + off(j) + if j > 0 { off(j - 1) } else { 0.0 })
        .fold(f64::NEG_INFINITY, f64::max);
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if below(mid) == k {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// A value in `[-1, 1)` from the splitmix64 finalizer of `i`: a fixed,
/// well-mixed pattern with no spatial structure.
fn random_unit(i: usize) -> f64 {
    let mut z = (i as u64).wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// One smoothed-aggregation coarsening step: returns the prolongation and
/// the Galerkin coarse operator, or `None` when aggregation fails to
/// shrink the operator meaningfully.
fn coarsen(
    a: &CsrMatrix,
    config: &MultigridConfig,
) -> Result<Option<(CsrMatrix, CsrMatrix)>, NumericsError> {
    let n = a.rows();
    let diag = a.diagonal();
    if let Some(i) = diag.iter().position(|&d| d <= 0.0 || !d.is_finite()) {
        return Err(NumericsError::BadMatrix {
            reason: format!("non-positive or non-finite diagonal entry {} at row {i}", diag[i]),
        });
    }

    // --- strength graph + aggregation ------------------------------------
    // The retained graph is the one actually used, so the prolongation
    // filter below stays consistent with the aggregation.
    let (agg, n_agg, strong_ptr, strong_idx, strong_val) = {
        let theta = config.strength_threshold;
        let (ptr, idx, val) = strength_graph(a, &diag, theta);
        let (agg, n_agg) = aggregate(n, &ptr, &idx, &val);
        if theta > 0.0 && (n_agg as f64) > 0.6 * n as f64 {
            // Strength filtering stranded most cells as singletons —
            // Galerkin stencils on deep coarse levels fall below any fixed
            // threshold long before their couplings stop mattering. Retry
            // treating every coupling as strong; keep whichever
            // aggregation coarsens harder.
            let (ptr0, idx0, val0) = strength_graph(a, &diag, 0.0);
            let (agg0, n0) = aggregate(n, &ptr0, &idx0, &val0);
            if n0 < n_agg {
                (agg0, n0, ptr0, idx0, val0)
            } else {
                (agg, n_agg, ptr, idx, val)
            }
        } else {
            (agg, n_agg, ptr, idx, val)
        }
    };
    if n_agg == 0 || (n_agg as f64) > 0.9 * n as f64 {
        return Ok(None);
    }

    // --- tentative prolongation P0 (piecewise constant) ------------------
    let p0 = {
        let row_ptr: Vec<usize> = (0..=n).collect();
        let col_idx: Vec<u32> = agg.clone();
        let values = vec![1.0; n];
        CsrMatrix::from_sorted_parts(n, n_agg, row_ptr, col_idx, values)
    };

    // --- prolongation smoothing ------------------------------------------
    // Filtered Jacobi operator S = D_F⁻¹ A_F: strong couplings scaled by
    // the filtered diagonal (weak couplings lumped into it), unit
    // diagonal. Built directly in CSR form from the retained strength
    // graph, so the √(a_ii·a_jj) test is never re-evaluated.
    let s = {
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx: Vec<u32> = Vec::with_capacity(strong_idx.len() + n);
        let mut values: Vec<f64> = Vec::with_capacity(strong_idx.len() + n);
        row_ptr.push(0usize);
        for i in 0..n {
            let row = strong_ptr[i]..strong_ptr[i + 1];
            // d_F = a_ii + Σ_weak a_ij = a_ii + (Σ_offdiag − Σ_strong);
            // guard against the (pathological) fully-weak zero-row-sum
            // case.
            let offdiag: f64 = a.row(i).filter(|&(j, _)| j != i).map(|(_, v)| v).sum();
            let strong_sum: f64 = strong_val[row.clone()].iter().sum();
            let mut d_f = diag[i] + offdiag - strong_sum;
            if !(d_f > 0.0) {
                d_f = diag[i];
            }
            // Graph rows are column-ascending and exclude the diagonal:
            // splice the unit diagonal entry into its sorted slot.
            let mut pushed_diag = false;
            for k in row {
                let j = strong_idx[k];
                if !pushed_diag && j as usize > i {
                    col_idx.push(i as u32);
                    values.push(1.0);
                    pushed_diag = true;
                }
                col_idx.push(j);
                values.push(strong_val[k] / d_f);
            }
            if !pushed_diag {
                col_idx.push(i as u32);
                values.push(1.0);
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_sorted_parts(n, n, row_ptr, col_idx, values)
    };

    let lambda = estimate_spectral_radius(&s, 10).max(1.0);
    let sp0 = s.multiply_matrix(&p0)?;
    let p = p0.add_scaled(&sp0, -config.prolongation_damping / lambda)?;

    // --- Galerkin coarse operator ----------------------------------------
    let ap = a.multiply_matrix(&p)?;
    let coarse = p.transpose().multiply_matrix(&ap)?;
    // RAP of a valid symmetric fine operator must stay structurally valid
    // and symmetric; a failure here means the transfer construction above
    // is broken (debug builds only).
    debug_assert!(
        coarse.validate_symmetric().is_ok(),
        "Galerkin product produced an invalid coarse operator: {:?}",
        coarse.validate_symmetric().err()
    );
    Ok(Some((p, coarse)))
}

/// CSR-shaped strength-of-connection graph: off-diagonal `j` appears in
/// row `i` when `|a_ij| ≥ θ √(a_ii a_jj)` (θ = 0 keeps every coupling).
/// Values are the **signed** couplings `a_ij`, so the prolongation filter
/// can reuse them; aggregation compares magnitudes.
fn strength_graph(a: &CsrMatrix, diag: &[f64], theta: f64) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
    let n = a.rows();
    let mut ptr = Vec::with_capacity(n + 1);
    let mut idx: Vec<u32> = Vec::new();
    let mut val: Vec<f64> = Vec::new();
    ptr.push(0usize);
    for i in 0..n {
        for (j, v) in a.row(i) {
            if j != i && v.abs() >= theta * (diag[i] * diag[j]).sqrt() {
                idx.push(j as u32);
                val.push(v);
            }
        }
        ptr.push(idx.len());
    }
    (ptr, idx, val)
}

/// Greedy root-based aggregation over the strength graph. Returns the
/// node→aggregate map and the aggregate count.
fn aggregate(
    n: usize,
    strong_ptr: &[usize],
    strong_idx: &[u32],
    strong_val: &[f64],
) -> (Vec<u32>, usize) {
    const UNASSIGNED: u32 = u32::MAX;
    let mut agg = vec![UNASSIGNED; n];
    let mut count: u32 = 0;

    // Pass 1: a node whose strong neighbourhood is fully unassigned roots
    // a new aggregate and claims that whole neighbourhood.
    for i in 0..n {
        if agg[i] != UNASSIGNED {
            continue;
        }
        let nbrs = &strong_idx[strong_ptr[i]..strong_ptr[i + 1]];
        if !nbrs.is_empty() && nbrs.iter().all(|&j| agg[j as usize] == UNASSIGNED) {
            agg[i] = count;
            for &j in nbrs {
                agg[j as usize] = count;
            }
            count += 1;
        }
    }

    // Pass 2 (twice, to let chains resolve): stragglers join the aggregate
    // of their strongest already-assigned neighbour.
    for _ in 0..2 {
        for i in 0..n {
            if agg[i] != UNASSIGNED {
                continue;
            }
            let mut best: Option<(f64, u32)> = None;
            for k in strong_ptr[i]..strong_ptr[i + 1] {
                let j = strong_idx[k] as usize;
                if agg[j] != UNASSIGNED && best.is_none_or(|(w, _)| strong_val[k].abs() > w) {
                    best = Some((strong_val[k].abs(), agg[j]));
                }
            }
            if let Some((_, target)) = best {
                agg[i] = target;
            }
        }
    }

    // Pass 3: whatever remains (cells with no strong couplings) becomes a
    // singleton aggregate.
    for a in agg.iter_mut() {
        if *a == UNASSIGNED {
            *a = count;
            count += 1;
        }
    }
    (agg, count as usize)
}

/// Crude power-iteration estimate of `ρ(S)` from a deterministic start
/// vector — accurate to the few percent prolongation smoothing needs.
fn estimate_spectral_radius(s: &CsrMatrix, iterations: usize) -> f64 {
    let n = s.rows();
    let mut v: Vec<f64> =
        (0..n).map(|i| 1.0 + 0.4 * (((i * 7919) % 1000) as f64 / 1000.0 - 0.5)).collect();
    let mut sv = vec![0.0; n];
    let mut lambda = 1.0;
    for _ in 0..iterations {
        s.multiply_into(&v, &mut sv);
        let norm = norm2(&sv);
        if !(norm > 0.0) || !norm.is_finite() {
            return 1.0;
        }
        let vnorm = norm2(&v).max(1e-300);
        lambda = norm / vnorm;
        let inv = 1.0 / norm;
        for (vi, svi) in v.iter_mut().zip(&sv) {
            *vi = svi * inv;
        }
    }
    lambda
}

/// One multigrid cycle as a [`Preconditioner`]: the form the solve engines
/// consume via [`PreconditionerKind::Multigrid`](crate::PreconditionerKind::Multigrid).
///
/// Owns its hierarchy and workspace, so every application is
/// allocation-free after construction. An apply on k columns runs one
/// block V-cycle per three columns (`CYCLE_COLUMNS`) from `z = 0`,
/// reading the right-hand sides straight from `r` and building the
/// iterates in `z`; every column is bitwise its own one-column cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct Multigrid {
    hierarchy: MultigridHierarchy,
    ws: MgWorkspace,
}

impl Multigrid {
    /// Builds the hierarchy on the shared operator `a` (see
    /// [`MultigridHierarchy::build`]) and pre-sizes the cycle workspace;
    /// the form [`PreconditionerKind::build`](crate::PreconditionerKind::build)
    /// builds.
    ///
    /// # Errors
    ///
    /// Propagates [`MultigridHierarchy::build`] failures.
    pub fn new(a: Arc<CsrMatrix>, config: &MultigridConfig) -> Result<Self, NumericsError> {
        Ok(Self::from_hierarchy(MultigridHierarchy::build(a, config)?))
    }

    /// Wraps an already-built (typically artifact-restored) hierarchy as a
    /// CG preconditioner, paying only the workspace sizing — the
    /// zero-factorization path of the engine cache.
    pub(crate) fn from_hierarchy(hierarchy: MultigridHierarchy) -> Self {
        let ws = MgWorkspace::for_hierarchy(&hierarchy);
        Self { hierarchy, ws }
    }

    /// The underlying hierarchy (level counts, complexity — for benches
    /// and logs).
    pub fn hierarchy(&self) -> &MultigridHierarchy {
        &self.hierarchy
    }
}

impl Preconditioner for Multigrid {
    fn apply(&mut self, r: &[f64], z: &mut [f64]) {
        let n = self.hierarchy.fine_unknowns();
        assert_columns(r, z, n);
        let chunk = (CYCLE_COLUMNS * n).max(1);
        for (rc, zc) in r.chunks(chunk).zip(z.chunks_mut(chunk)) {
            self.hierarchy.cycle_columns(rc, zc, true, &mut self.ws);
        }
    }

    fn name(&self) -> &'static str {
        "multigrid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletBuilder;

    /// 2-D 5-point Poisson operator with a small Robin-like shift.
    fn poisson_2d(nx: usize, ny: usize) -> CsrMatrix {
        let n = nx * ny;
        let mut b = TripletBuilder::with_capacity(n, n, 5 * n);
        for j in 0..ny {
            for i in 0..nx {
                let c = j * nx + i;
                let mut diag = 1e-3;
                if i + 1 < nx {
                    b.add(c, c + 1, -1.0);
                    b.add(c + 1, c, -1.0);
                    diag += 1.0;
                }
                if i > 0 {
                    diag += 1.0;
                }
                if j + 1 < ny {
                    b.add(c, c + nx, -1.0);
                    b.add(c + nx, c, -1.0);
                    diag += 1.0;
                }
                if j > 0 {
                    diag += 1.0;
                }
                b.add(c, c, diag);
            }
        }
        b.build()
    }

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.17).sin() + 0.4).collect()
    }

    fn rel_residual(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.mul_vec(x).unwrap();
        let num: f64 = ax.iter().zip(b).map(|(p, q)| (p - q) * (p - q)).sum::<f64>().sqrt();
        num / norm2(b)
    }

    /// Stationary V-cycling on `A x = b` from the incoming `x` until the
    /// relative residual reaches `tol`: the number of cycles it took, or
    /// `None` if `max_cycles` were not enough.
    fn v_cycles_to(
        h: &mut MultigridHierarchy,
        b: &[f64],
        x: &mut [f64],
        tol: f64,
        max_cycles: usize,
    ) -> Option<usize> {
        let a = Arc::clone(h.fine_operator());
        let mut ws = MgWorkspace::for_hierarchy(h);
        for cycles in 0..=max_cycles {
            if rel_residual(&a, x, b) <= tol {
                return Some(cycles);
            }
            if cycles < max_cycles {
                h.cycle(b, x, &mut ws);
            }
        }
        None
    }

    #[test]
    fn hierarchy_coarsens_poisson() {
        let a = Arc::new(poisson_2d(40, 40));
        let h = MultigridHierarchy::build(Arc::clone(&a), &MultigridConfig::default()).unwrap();
        assert!(h.level_count() >= 2, "1600 unknowns must coarsen at least once");
        let sizes = h.level_sizes();
        for w in sizes.windows(2) {
            assert!(w[1] < w[0], "levels must shrink: {sizes:?}");
        }
        assert!(*sizes.last().unwrap() <= 500);
        // Operator complexity stays bounded.
        assert!((h.total_nnz() as f64) < 2.5 * a.nnz() as f64, "complexity blow-up");
    }

    #[test]
    fn v_cycles_solve_standalone() {
        let a = Arc::new(poisson_2d(30, 30));
        let b = rhs(a.rows());
        let mut h = MultigridHierarchy::build(Arc::clone(&a), &MultigridConfig::default()).unwrap();
        let mut x = vec![0.0; a.rows()];
        let cycles = v_cycles_to(&mut h, &b, &mut x, 1e-10, 60).expect("V-cycles converge");
        // Measured: 44 cycles, a contraction of ~0.6 per V(1,1)-cycle with
        // degree-2 Chebyshev smoothing. Stationary cycling is not how the
        // engines use the hierarchy (CG accelerates it), so the bar only
        // guards against a broken cycle, with ~15 % headroom.
        assert!(cycles <= 50, "took {cycles} cycles");
        assert!(rel_residual(&a, &x, &b) < 1e-9);
    }

    #[test]
    fn cycle_counts_are_mesh_independent() {
        // The multigrid promise: refining the mesh must not blow up the
        // cycle count. 16× more unknowns may cost at most ~1.5× cycles.
        let mut counts = Vec::new();
        for nx in [40usize, 160] {
            // Both sizes must traverse a genuine multi-level hierarchy (the
            // coarse direct solve alone would trivially win at small n).
            let a = Arc::new(poisson_2d(nx, nx));
            let b = rhs(a.rows());
            let mut h = MultigridHierarchy::build(a, &MultigridConfig::default()).unwrap();
            assert!(h.level_count() >= 2);
            let mut x = vec![0.0; b.len()];
            let cycles = v_cycles_to(&mut h, &b, &mut x, 1e-8, 80).expect("converges");
            counts.push(cycles.max(1));
        }
        assert!(
            (counts[1] as f64) <= 1.5 * counts[0] as f64,
            "cycle counts grew with the mesh: {counts:?}"
        );
    }

    #[test]
    fn tiny_matrix_degenerates_to_direct_solve() {
        let a = Arc::new(poisson_2d(4, 4)); // 16 unknowns < direct_cells
        let b = rhs(16);
        let mut m = Multigrid::new(Arc::clone(&a), &MultigridConfig::default()).unwrap();
        assert_eq!(m.hierarchy().level_count(), 1);
        let mut z = vec![0.0; 16];
        m.apply(&b, &mut z);
        // Degenerate hierarchy = dense Cholesky = exact solve.
        assert!(rel_residual(&a, &z, &b) < 1e-12);
        assert_eq!(m.name(), "multigrid");
    }

    #[test]
    fn preconditioner_application_is_symmetric_and_positive() {
        // A legal CG preconditioner must be SPD: check ⟨M⁻¹u, v⟩ = ⟨u, M⁻¹v⟩
        // and xᵀM⁻¹x > 0 for the V-cycle with symmetric smoothing.
        let a = Arc::new(poisson_2d(12, 12));
        let n = a.rows();
        let config = MultigridConfig { direct_cells: 20, ..Default::default() };
        let mut m = Multigrid::new(a, &config).unwrap();
        assert!(m.hierarchy().level_count() >= 2);
        let u: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
        let v: Vec<f64> = (0..n).map(|i| ((i * 3 % 13) as f64) - 6.0).collect();
        let mut mu = vec![0.0; n];
        let mut mv = vec![0.0; n];
        m.apply(&u, &mut mu);
        m.apply(&v, &mut mv);
        let dot = |x: &[f64], y: &[f64]| x.iter().zip(y).map(|(a, b)| a * b).sum::<f64>();
        let (umv, vmu) = (dot(&u, &mv), dot(&v, &mu));
        let scale = umv.abs().max(vmu.abs()).max(1e-300);
        assert!((umv - vmu).abs() / scale < 1e-10, "not symmetric: {umv} vs {vmu}");
        assert!(dot(&u, &mu) > 0.0, "not positive definite");
    }

    #[test]
    fn validation_rejects_bad_config() {
        let a = Arc::new(poisson_2d(5, 5));
        for config in [
            MultigridConfig { strength_threshold: 1.0, ..Default::default() },
            MultigridConfig { strength_threshold: -0.1, ..Default::default() },
            MultigridConfig { prolongation_damping: f64::NAN, ..Default::default() },
            MultigridConfig { max_levels: 0, ..Default::default() },
            MultigridConfig { direct_cells: 0, ..Default::default() },
        ] {
            let built = MultigridHierarchy::build(Arc::clone(&a), &config);
            assert!(built.is_err(), "{config:?} must fail");
        }
        let mut nonsquare = TripletBuilder::new(2, 3);
        nonsquare.add(0, 0, 1.0);
        let nonsquare = Arc::new(nonsquare.build());
        assert!(MultigridHierarchy::build(nonsquare, &MultigridConfig::default()).is_err());
    }

    #[test]
    fn hierarchy_shares_the_fine_operator_instead_of_cloning() {
        let a = Arc::new(poisson_2d(40, 40));
        let h = MultigridHierarchy::build(Arc::clone(&a), &MultigridConfig::default()).unwrap();
        assert!(h.level_count() >= 2);
        assert!(
            Arc::ptr_eq(h.fine_operator(), &a),
            "the finest level must alias the caller's allocation"
        );
        // The `fine` handle and the fine level both reference `a`; with the
        // caller's own handle that is 3 strong counts and zero extra copies
        // of the operator payload.
        assert_eq!(Arc::strong_count(&a), 3);

        // Degenerate (direct-solve) hierarchies alias it too.
        let tiny = Arc::new(poisson_2d(4, 4));
        let h = MultigridHierarchy::build(Arc::clone(&tiny), &MultigridConfig::default()).unwrap();
        assert_eq!(h.level_count(), 1);
        assert!(Arc::ptr_eq(h.fine_operator(), &tiny));
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn chunked_chebyshev_update_is_bitwise_serial() {
        // Uneven chunks at every worker count; the count is explicit, so
        // the chunked path runs whatever the machine or `VCSEL_THREADS`.
        let n = 10_037;
        let inv_diag: Vec<f64> = (0..n).map(|i| 0.25 + (i as f64 * 0.37).sin().abs()).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
        let ax: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).sin() * 0.7).collect();
        let mut outputs = Vec::new();
        for threads in [1, 2, 3, 7] {
            let mut x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.021).cos()).collect();
            let mut d: Vec<f64> = (0..n).map(|i| (i as f64 * 0.013).sin()).collect();
            chebyshev_update(&inv_diag, &b, Some(&ax), &mut d, &mut x, (0.0, 1.3), Some(threads));
            chebyshev_update(&inv_diag, &b, Some(&ax), &mut d, &mut x, (0.4, 0.9), Some(threads));
            outputs.push((bits(&d), bits(&x)));
        }
        for (threads, out) in [2, 3, 7].iter().zip(&outputs[1..]) {
            assert_eq!(out, &outputs[0], "{threads} workers differ from serial");
        }
    }

    #[test]
    fn zero_start_chebyshev_step_is_the_full_step_from_zero() {
        // The skipped first step against the full step on a zeroed `x`
        // (`A·0` is all `+0.0`), signed-zero right-hand sides included,
        // then one ordinary step on both, at every worker count. The
        // zero-start iterate and direction begin as NaN: neither may be
        // read.
        let n = 10_037;
        let inv_diag: Vec<f64> = (0..n).map(|i| 0.25 + (i as f64 * 0.37).sin().abs()).collect();
        let b: Vec<f64> = (0..n)
            .map(|i| match i % 7 {
                0 => -0.0,
                1 => 0.0,
                _ => (i as f64 * 0.11).cos(),
            })
            .collect();
        let ax: Vec<f64> = (0..n).map(|i| if i % 5 == 0 { 0.0 } else { b[i] * 0.5 }).collect();
        let zeros = vec![0.0; n];
        for threads in [1, 2, 3, 7] {
            let step = |ax: Option<&[f64]>, d: &mut [f64], x: &mut [f64], c| {
                chebyshev_update(&inv_diag, &b, ax, d, x, c, Some(threads));
            };
            let (mut x_full, mut d_full) = (vec![0.0; n], vec![3.0; n]);
            step(Some(&zeros), &mut d_full, &mut x_full, (0.0, 1.3));
            let (mut x_zero, mut d_zero) = (vec![f64::NAN; n], vec![f64::NAN; n]);
            step(None, &mut d_zero, &mut x_zero, (0.0, 1.3));
            assert_eq!(bits(&x_zero), bits(&x_full), "first step x, {threads} workers");
            assert_eq!(bits(&d_zero), bits(&d_full), "first step d, {threads} workers");
            step(Some(&ax), &mut d_full, &mut x_full, (0.4, 0.9));
            step(Some(&ax), &mut d_zero, &mut x_zero, (0.4, 0.9));
            assert_eq!(bits(&x_zero), bits(&x_full), "second step x, {threads} workers");
        }
    }

    /// A hierarchy of at least three levels over a 1 600-unknown Poisson
    /// problem.
    fn three_level_poisson() -> (Arc<CsrMatrix>, MultigridConfig) {
        let a = Arc::new(poisson_2d(40, 40));
        let config = MultigridConfig { direct_cells: 20, ..Default::default() };
        (a, config)
    }

    #[test]
    fn block_apply_is_bitwise_one_column_applies() {
        // k = 1..=7 crosses the three-column chunk boundary twice; `z`
        // enters as NaN, so an apply that read it would show.
        let (a, config) = three_level_poisson();
        let n = a.rows();
        let mut m = Multigrid::new(a, &config).unwrap();
        assert!(m.hierarchy().level_count() >= 3, "{:?}", m.hierarchy().level_sizes());
        let column = |c: usize| -> Vec<f64> {
            (0..n).map(|i| ((i * (c + 3)) as f64 * 0.29).sin() + 0.2 * c as f64).collect()
        };
        for k in 1..=7 {
            let cols: Vec<Vec<f64>> = (0..k).map(column).collect();
            let mut z = vec![f64::NAN; k * n];
            m.apply(&cols.concat(), &mut z);
            for (c, col) in cols.iter().enumerate() {
                let mut one = vec![f64::NAN; n];
                m.apply(col, &mut one);
                assert_eq!(bits(&z[c * n..(c + 1) * n]), bits(&one), "k={k} column {c}");
            }
        }
    }

    #[test]
    fn one_column_apply_is_the_cycle_from_zero() {
        // The apply's zero-start smoothing and borrowed finest-level
        // buffers against the stationary cycle on a zeroed `x`, with
        // signed-zero right-hand-side entries.
        let (a, config) = three_level_poisson();
        let n = a.rows();
        let mut h = MultigridHierarchy::build(a, &config).unwrap();
        assert!(h.level_count() >= 3, "{:?}", h.level_sizes());
        let mut m = Multigrid::from_hierarchy(h.clone());
        let b: Vec<f64> = rhs(n)
            .into_iter()
            .enumerate()
            .map(|(i, v)| match i % 9 {
                0 => -0.0,
                1 => 0.0,
                _ => v,
            })
            .collect();
        let mut ws = MgWorkspace::for_hierarchy(&h);
        let mut x = vec![0.0; n];
        h.cycle(&b, &mut x, &mut ws);
        let mut z = vec![f64::NAN; n];
        m.apply(&b, &mut z);
        assert_eq!(bits(&z), bits(&x));
    }
}
