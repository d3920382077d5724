//! Iterative solvers for the sparse SPD systems produced by FVM assembly.
//!
//! The workhorse is [`preconditioned_cg`]: conjugate gradient with a
//! pluggable [`Preconditioner`], a warm-start initial
//! guess, and caller-owned scratch buffers ([`CgWorkspace`]) so the
//! iteration loop performs **zero allocations** — the shape repeated
//! transient stepping and multi-right-hand-side calibration need.
//! [`conjugate_gradient`] is the one-shot cold-start Jacobi-CG entry point
//! over it, for small systems solved once (the lumped RC plant).

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

pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

pub(crate) fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

fn validate_system(a: &CsrMatrix, b: &[f64]) -> Result<(), NumericsError> {
    if a.rows() != a.cols() {
        return Err(NumericsError::BadMatrix {
            reason: format!("matrix must be square, got {}x{}", a.rows(), a.cols()),
        });
    }
    if b.len() != a.rows() {
        return Err(NumericsError::DimensionMismatch {
            what: "right-hand side",
            expected: a.rows(),
            got: b.len(),
        });
    }
    if b.iter().any(|v| !v.is_finite()) {
        return Err(NumericsError::BadInput {
            reason: "right-hand side contains non-finite values".into(),
        });
    }
    Ok(())
}

/// Caller-owned scratch vectors for [`preconditioned_cg`].
///
/// Holding one workspace per solve engine keeps the CG iteration loop free
/// of allocations across repeated solves: the four direction/residual
/// vectors are resized once on first use and reused afterwards.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CgWorkspace {
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
    /// Relative residual per iteration of the most recent
    /// [`preconditioned_cg`] run, index 0 holding the pre-iteration
    /// (warm-start) residual. Cleared by every solve; filled only while
    /// [`log_residuals`](CgWorkspace::log_residuals) is set. The solver
    /// only ever `clear`s and `push`es — callers that enable logging
    /// should `reserve` for `max_iterations + 2` entries up front so the
    /// CG loop itself never reallocates (the `SolveLadder` does).
    pub residual_history: Vec<f64>,
    /// Telemetry switch: when `true`, [`preconditioned_cg`] records its
    /// per-iteration residuals into
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

    /// Pre-sizes every buffer for systems of `n` unknowns.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            r: vec![0.0; n],
            z: vec![0.0; n],
            p: vec![0.0; n],
            ap: vec![0.0; n],
            residual_history: Vec::new(),
            log_residuals: false,
        }
    }

    fn ensure(&mut self, n: usize) {
        if self.r.len() != n {
            self.r.resize(n, 0.0);
            self.z.resize(n, 0.0);
            self.p.resize(n, 0.0);
            self.ap.resize(n, 0.0);
        }
    }
}

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
pub(crate) const STALL_IMPROVEMENT: f64 = 1e-6;

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

/// Solves `A x = b` with preconditioned conjugate gradient, warm-starting
/// from the incoming contents of `x`.
///
/// `x` is **in/out**: on entry it is the initial guess (pass zeros for a
/// cold start; the previous time step or the previous right-hand side's
/// solution for a warm start), on successful return it holds the solution.
/// Scratch vectors come from `ws`, so the iteration loop allocates nothing;
/// one workspace can serve many solves of the same (or different) sizes.
///
/// `A` must be symmetric positive definite — which the FVM conduction matrix
/// always is (harmonic-mean conductances plus a positive Robin boundary
/// term). Convergence is declared on the *relative* residual, so a warm
/// start that already satisfies the tolerance returns after zero iterations.
///
/// Failure to converge is a **typed outcome**, not an error: hitting the
/// iteration cap, stalling ([`STALL_WINDOW`] iterations without progress)
/// or diverging (residual past [`DIVERGENCE_LIMIT`] or non-finite) returns
/// `Ok` with [`CgSummary::converged`] `false` and the reason in
/// [`CgSummary::stop`]. Callers must check the flag — `x` holds the last
/// iterate, which after a [`CgStop::Diverged`] stop must not be used.
/// Callers without a recovery path can use
/// [`CgSummary::require_converged`]; callers with fallback preconditioners
/// should use a [`SolveLadder`](crate::SolveLadder).
///
/// # Errors
///
/// * [`NumericsError::BadMatrix`] if `A` is not square or indefiniteness is
///   detected (`pᵀAp ≤ 0`),
/// * [`NumericsError::DimensionMismatch`] if `b` or `x` have the wrong
///   length,
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
    validate_system(a, b)?;
    let n = a.rows();
    if x.len() != n {
        return Err(NumericsError::DimensionMismatch {
            what: "initial guess",
            expected: n,
            got: x.len(),
        });
    }
    if x.iter().any(|v| !v.is_finite()) {
        return Err(NumericsError::BadInput {
            reason: "initial guess contains non-finite values".into(),
        });
    }
    // A stale history from the previous solve must never be read as this
    // solve's; clearing keeps the buffer's capacity (no allocation).
    ws.residual_history.clear();

    let b_norm = norm2(b);
    if b_norm == 0.0 {
        x.fill(0.0);
        return Ok(CgSummary {
            iterations: 0,
            residual: 0.0,
            converged: true,
            stop: CgStop::Converged,
        });
    }

    ws.ensure(n);
    // r = b − A·x (skip the matvec for an all-zero guess).
    if x.iter().all(|&v| v == 0.0) {
        ws.r.copy_from_slice(b);
    } else {
        a.multiply_into(x, &mut ws.ap);
        for (ri, (bi, ai)) in ws.r.iter_mut().zip(b.iter().zip(&ws.ap)) {
            *ri = bi - ai;
        }
    }
    m.apply(&ws.r, &mut ws.z);
    ws.p.copy_from_slice(&ws.z);
    let mut rz = dot(&ws.r, &ws.z);

    let mut best_res = f64::INFINITY;
    let mut since_best = 0usize;
    for iteration in 0..opts.max_iterations {
        let res = norm2(&ws.r) / b_norm;
        if ws.log_residuals {
            ws.residual_history.push(res);
        }
        if res <= opts.tolerance {
            return Ok(CgSummary {
                iterations: iteration,
                residual: res,
                converged: true,
                stop: CgStop::Converged,
            });
        }
        if !res.is_finite() || res > DIVERGENCE_LIMIT {
            return Ok(CgSummary {
                iterations: iteration,
                residual: res,
                converged: false,
                stop: CgStop::Diverged,
            });
        }
        if res < best_res * (1.0 - STALL_IMPROVEMENT) {
            best_res = res;
            since_best = 0;
        } else {
            since_best += 1;
            if since_best >= STALL_WINDOW {
                return Ok(CgSummary {
                    iterations: iteration,
                    residual: res,
                    converged: false,
                    stop: CgStop::Stalled,
                });
            }
        }

        a.multiply_into(&ws.p, &mut ws.ap);
        let pap = dot(&ws.p, &ws.ap);
        if pap <= 0.0 {
            return Err(indefinite_matrix_error(pap));
        }
        let alpha = rz / pap;
        for (i, xi) in x.iter_mut().enumerate() {
            *xi += alpha * ws.p[i];
            ws.r[i] -= alpha * ws.ap[i];
        }
        m.apply(&ws.r, &mut ws.z);
        let rz_next = dot(&ws.r, &ws.z);
        let beta = rz_next / rz;
        rz = rz_next;
        for i in 0..n {
            ws.p[i] = ws.z[i] + beta * ws.p[i];
        }
    }

    let res = norm2(&ws.r) / b_norm;
    if ws.log_residuals {
        ws.residual_history.push(res);
    }
    let converged = res <= opts.tolerance;
    Ok(CgSummary {
        iterations: opts.max_iterations,
        residual: res,
        converged,
        stop: if converged { CgStop::Converged } else { CgStop::IterationCap },
    })
}

/// Builds the indefinite-matrix error outside the CG iteration loop: the
/// loop body is a registered hot path (lint.toml) and must stay
/// allocation-free, while this failure path may format freely.
#[cold]
#[inline(never)]
pub(crate) fn indefinite_matrix_error(pap: f64) -> NumericsError {
    NumericsError::BadMatrix {
        reason: format!("matrix is not positive definite (pᵀAp = {pap:.3e})"),
    }
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
    validate_system(a, b)?;
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
