//! Property tests on the numerical kernels: solver correctness on random
//! SPD systems, interpolation bounds, optimizer guarantees.

use std::sync::Arc;

use proptest::prelude::*;
use vcsel_numerics::solver::{conjugate_gradient, preconditioned_cg, CgWorkspace, SolveOptions};
use vcsel_numerics::{golden_section_min, CsrMatrix, Interp1d, PreconditionerKind, TripletBuilder};

/// Random SPD stencil matrix: a 2-D 5-point grid Laplacian with per-edge
/// conductances and diagonal shifts drawn from the seed values — the shape
/// (and conditioning spread) of FVM conduction systems.
fn random_spd_stencil(nx: usize, ny: usize, seed: &[f64]) -> CsrMatrix {
    let n = nx * ny;
    let mut b = TripletBuilder::with_capacity(n, n, 5 * n);
    let draw = |k: usize| 0.05 + seed[k % seed.len()].abs();
    let mut diag = vec![0.0; n];
    for j in 0..ny {
        for i in 0..nx {
            let c = j * nx + i;
            if i + 1 < nx {
                let g = draw(c * 3 + 1);
                b.add(c, c + 1, -g);
                b.add(c + 1, c, -g);
                diag[c] += g;
                diag[c + 1] += g;
            }
            if j + 1 < ny {
                let g = draw(c * 5 + 2);
                b.add(c, c + nx, -g);
                b.add(c + nx, c, -g);
                diag[c] += g;
                diag[c + nx] += g;
            }
        }
    }
    for (c, d) in diag.iter().enumerate() {
        // Small positive shift keeps the matrix SPD (Robin-boundary-like).
        b.add(c, c, d + 0.01 + 0.1 * seed[(c * 7 + 3) % seed.len()].abs());
    }
    b.build()
}

/// Random symmetric diagonally dominant (hence SPD) matrix.
fn random_spd(n: usize, seed: &[f64]) -> CsrMatrix {
    let mut b = TripletBuilder::new(n, n);
    let mut off_diag_sums = vec![0.0; n];
    for i in 0..n {
        for j in (i + 1)..n {
            // Sparse-ish coupling pattern driven by the seed values.
            let v = seed[(i * 7 + j * 13) % seed.len()];
            if v.abs() > 0.5 {
                let w = -v.abs();
                b.add(i, j, w);
                b.add(j, i, w);
                off_diag_sums[i] += w.abs();
                off_diag_sums[j] += w.abs();
            }
        }
    }
    for (i, s) in off_diag_sums.iter().enumerate() {
        b.add(i, i, s + 1.0 + seed[i % seed.len()].abs());
    }
    b.build()
}

/// Solves `A x = b` by dense Cholesky factorization `A = L·Lᵀ` — a direct
/// reference for the iterative solver on small SPD systems.
fn dense_cholesky_solve(a: &CsrMatrix, b: &[f64]) -> Vec<f64> {
    let n = a.rows();
    let mut l = vec![vec![0.0; n]; n];
    for (i, row) in l.iter_mut().enumerate() {
        for (j, v) in a.row(i) {
            row[j] = v;
        }
    }
    for j in 0..n {
        let pivot = (l[j][j] - (0..j).map(|k| l[j][k] * l[j][k]).sum::<f64>()).sqrt();
        l[j][j] = pivot;
        for i in j + 1..n {
            l[i][j] = (l[i][j] - (0..j).map(|k| l[i][k] * l[j][k]).sum::<f64>()) / pivot;
        }
    }
    // Forward L y = b, then backward Lᵀ x = y.
    let mut y = vec![0.0; n];
    for i in 0..n {
        y[i] = (b[i] - (0..i).map(|k| l[i][k] * y[k]).sum::<f64>()) / l[i][i];
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        x[i] = (y[i] - (i + 1..n).map(|k| l[k][i] * x[k]).sum::<f64>()) / l[i][i];
    }
    x
}

fn residual(a: &CsrMatrix, x: &[f64], rhs: &[f64]) -> f64 {
    let ax = a.mul_vec(x).unwrap();
    let num: f64 = ax.iter().zip(rhs).map(|(p, q)| (p - q) * (p - q)).sum::<f64>().sqrt();
    let den: f64 = rhs.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-30);
    num / den
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cg_solves_random_spd(
        n in 3usize..40,
        seed in proptest::collection::vec(-2.0f64..2.0, 40),
        rhs_seed in proptest::collection::vec(-5.0f64..5.0, 40),
    ) {
        let a = random_spd(n, &seed);
        let rhs: Vec<f64> = rhs_seed.iter().take(n).cloned().collect();
        let opts = SolveOptions { tolerance: 1e-10, max_iterations: 10_000 };
        let sol = conjugate_gradient(&a, &rhs, &opts).unwrap();
        prop_assert!(residual(&a, &sol.solution, &rhs) < 1e-8);
    }

    #[test]
    fn all_solvers_agree(
        n in 3usize..20,
        seed in proptest::collection::vec(-2.0f64..2.0, 20),
        rhs_seed in proptest::collection::vec(-5.0f64..5.0, 20),
    ) {
        // CG against an independent reference: a dense Cholesky solve.
        let a = random_spd(n, &seed);
        let rhs: Vec<f64> = rhs_seed.iter().take(n).cloned().collect();
        let opts = SolveOptions { tolerance: 1e-11, max_iterations: 200_000 };
        let cg = conjugate_gradient(&a, &rhs, &opts).unwrap().solution;
        let direct = dense_cholesky_solve(&a, &rhs);
        let scale = cg.iter().map(|v| v.abs()).fold(1e-12, f64::max);
        for i in 0..n {
            prop_assert!((cg[i] - direct[i]).abs() < 1e-6 * scale, "CG vs Cholesky at {i}");
        }
    }

    #[test]
    fn preconditioned_cg_variants_agree_on_random_stencils(
        nx in 3usize..9,
        ny in 3usize..9,
        seed in proptest::collection::vec(-2.0f64..2.0, 48),
        rhs_seed in proptest::collection::vec(-5.0f64..5.0, 81),
    ) {
        // IC(0)-CG and Jacobi-CG must land on the same solution of a random
        // SPD stencil system, whatever the conditioning draw.
        let a = Arc::new(random_spd_stencil(nx, ny, &seed));
        let n = nx * ny;
        let rhs: Vec<f64> = rhs_seed.iter().take(n).cloned().collect();
        let opts = SolveOptions { tolerance: 1e-11, max_iterations: 50_000 };
        let kinds = [PreconditionerKind::Jacobi, PreconditionerKind::IncompleteCholesky];
        let mut solutions = Vec::new();
        let mut ws = CgWorkspace::new();
        for kind in kinds {
            let mut m = kind.build(&a).expect("SPD stencil factors");
            let mut x = vec![0.0; n];
            let stats =
                preconditioned_cg(&a, &rhs, &mut x, &mut m, &opts, &mut ws).expect("converges");
            prop_assert!(stats.residual <= opts.tolerance);
            prop_assert!(residual(&a, &x, &rhs) < 1e-8);
            solutions.push(x);
        }
        let scale = solutions[0].iter().map(|v| v.abs()).fold(1e-12, f64::max);
        for other in &solutions[1..] {
            for (p, q) in solutions[0].iter().zip(other) {
                prop_assert!((p - q).abs() < 1e-6 * scale, "preconditioner mismatch: {p} vs {q}");
            }
        }
    }

    #[test]
    fn warm_start_never_loses_to_cold_on_random_stencils(
        nx in 3usize..8,
        ny in 3usize..8,
        seed in proptest::collection::vec(-2.0f64..2.0, 32),
        rhs_seed in proptest::collection::vec(-5.0f64..5.0, 64),
    ) {
        // Restarting CG from its own solution must converge immediately,
        // and the answer must stay put.
        let a = Arc::new(random_spd_stencil(nx, ny, &seed));
        let n = nx * ny;
        let rhs: Vec<f64> = rhs_seed.iter().take(n).cloned().collect();
        let opts = SolveOptions { tolerance: 1e-10, max_iterations: 50_000 };
        let mut m = PreconditionerKind::IncompleteCholesky.build(&a).expect("factors");
        let mut ws = CgWorkspace::new();
        let mut x = vec![0.0; n];
        preconditioned_cg(&a, &rhs, &mut x, &mut m, &opts, &mut ws).expect("cold");
        let before = x.clone();
        let warm = preconditioned_cg(&a, &rhs, &mut x, &mut m, &opts, &mut ws).expect("warm");
        prop_assert_eq!(warm.iterations, 0);
        prop_assert_eq!(before, x);
    }

    #[test]
    fn matvec_is_linear(
        n in 2usize..30,
        seed in proptest::collection::vec(-2.0f64..2.0, 30),
        x_seed in proptest::collection::vec(-3.0f64..3.0, 30),
        alpha in -4.0f64..4.0,
    ) {
        let a = random_spd(n, &seed);
        let x: Vec<f64> = x_seed.iter().take(n).cloned().collect();
        let ax = a.mul_vec(&x).unwrap();
        let scaled: Vec<f64> = x.iter().map(|v| alpha * v).collect();
        let a_scaled = a.mul_vec(&scaled).unwrap();
        for i in 0..n {
            prop_assert!((a_scaled[i] - alpha * ax[i]).abs() < 1e-9 * ax[i].abs().max(1.0));
        }
    }

    #[test]
    fn interp_stays_within_knot_range(
        ys in proptest::collection::vec(-10.0f64..10.0, 2..12),
        x in -20.0f64..20.0,
    ) {
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let t = Interp1d::new(xs, ys.clone()).unwrap();
        let v = t.eval(x);
        let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12, "{v} outside [{lo}, {hi}]");
    }

    #[test]
    fn golden_section_beats_endpoints(center in -3.0f64..3.0, scale in 0.1f64..10.0) {
        let f = |x: f64| scale * (x - center).powi(2);
        let m = golden_section_min(-5.0, 5.0, 1e-9, f).unwrap();
        prop_assert!(m.value <= f(-5.0) + 1e-9);
        prop_assert!(m.value <= f(5.0) + 1e-9);
        prop_assert!((m.argmin - center).abs() < 1e-5);
    }
}
