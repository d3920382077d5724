//! Property tests on the numerical kernels: solver correctness on random
//! SPD systems, interpolation bounds, optimizer guarantees.

use proptest::prelude::*;
use vcsel_numerics::solver::{conjugate_gradient, preconditioned_cg, CgWorkspace, SolveOptions};
use vcsel_numerics::{
    golden_section_min, CsrMatrix, Interp1d, Multigrid, MultigridConfig, Preconditioner,
    PreconditionerKind, TripletBuilder,
};

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

/// Random SPD 7-point stencil: a 3-D grid Laplacian with per-edge
/// conductances drawn from the seed values — the exact shape of the FVM
/// conduction systems, including their anisotropy spread.
fn random_spd_stencil_3d(nx: usize, ny: usize, nz: usize, seed: &[f64]) -> CsrMatrix {
    let n = nx * ny * nz;
    let mut b = TripletBuilder::with_capacity(n, n, 7 * n);
    let draw = |k: usize| 0.02 + seed[k % seed.len()].abs();
    let mut diag = vec![0.0; n];
    let idx = |i: usize, j: usize, k: usize| (k * ny + j) * nx + i;
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
                    couple(idx(i + 1, j, k), draw(c * 3 + 1));
                }
                if j + 1 < ny {
                    couple(idx(i, j + 1, k), draw(c * 5 + 2));
                }
                if k + 1 < nz {
                    couple(idx(i, j, k + 1), draw(c * 7 + 3));
                }
            }
        }
    }
    for (c, d) in diag.iter().enumerate() {
        // Small positive shift keeps the matrix SPD (Robin-boundary-like).
        b.add(c, c, d + 0.01 + 0.1 * seed[(c * 11 + 5) % seed.len()].abs());
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

/// `ρ(D⁻¹A)` from 200 power-iteration steps on the similar symmetric
/// matrix `D^{-1/2} A D^{-1/2}`. For a symmetric matrix the norm ratio
/// never exceeds `ρ`, so this converges to it from below.
fn jacobi_spectral_radius(a: &CsrMatrix) -> f64 {
    let n = a.rows();
    let scale: Vec<f64> = a.diagonal().iter().map(|d| 1.0 / d.sqrt()).collect();
    let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
    let mut v: Vec<f64> = (0..n).map(|i| ((i * 7919) % 13) as f64 - 6.5).collect();
    let mut rho = 0.0;
    for _ in 0..200 {
        let sv: Vec<f64> = v.iter().zip(&scale).map(|(x, s)| x * s).collect();
        let w: Vec<f64> = a.mul_vec(&sv).unwrap().iter().zip(&scale).map(|(x, s)| x * s).collect();
        let w_norm = norm(&w);
        rho = w_norm / norm(&v);
        v = w.iter().map(|x| x / w_norm).collect();
    }
    rho
}

fn dot(x: &[f64], y: &[f64]) -> f64 {
    x.iter().zip(y).map(|(p, q)| p * q).sum()
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
        let a = random_spd_stencil(nx, ny, &seed);
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
    fn multigrid_cg_matches_ic0_cg_on_random_stencils(
        nx in 3usize..7,
        ny in 3usize..7,
        nz in 2usize..5,
        seed in proptest::collection::vec(-2.0f64..2.0, 56),
        rhs_seed in proptest::collection::vec(-5.0f64..5.0, 216),
    ) {
        // The multigrid V-cycle preconditioner must land CG on the same
        // field as IC(0), whatever the random conductance draw. Shrink
        // direct_cells so even the small proptest systems build a real
        // multi-level hierarchy instead of degenerating to a dense solve.
        let a = random_spd_stencil_3d(nx, ny, nz, &seed);
        let n = nx * ny * nz;
        let rhs: Vec<f64> = rhs_seed.iter().take(n).cloned().collect();
        let opts = SolveOptions { tolerance: 1e-11, max_iterations: 50_000 };
        let mut ws = CgWorkspace::new();

        let mut ic0 = PreconditionerKind::IncompleteCholesky.build(&a).expect("factors");
        let mut x_ic = vec![0.0; n];
        preconditioned_cg(&a, &rhs, &mut x_ic, &mut ic0, &opts, &mut ws).expect("ic0 converges");

        let config = MultigridConfig { direct_cells: 8, ..MultigridConfig::default() };
        let mut mg = PreconditionerKind::Multigrid { config }.build(&a).expect("hierarchy builds");
        let mut x_mg = vec![0.0; n];
        let stats =
            preconditioned_cg(&a, &rhs, &mut x_mg, &mut mg, &opts, &mut ws).expect("mg converges");
        prop_assert!(stats.residual <= opts.tolerance);
        prop_assert!(residual(&a, &x_mg, &rhs) < 1e-8);

        let scale = x_ic.iter().map(|v| v.abs()).fold(1e-12, f64::max);
        for (p, q) in x_ic.iter().zip(&x_mg) {
            prop_assert!((p - q).abs() / scale < 1e-8, "multigrid vs ic0 field: {p} vs {q}");
        }
    }

    #[test]
    fn chebyshev_bounds_cover_the_spectrum_on_high_contrast_stencils(
        nx in 3usize..10,
        ny in 3usize..10,
        nz in 2usize..6,
        exponents in proptest::collection::vec(-1.0f64..1.0, 56),
        probe in proptest::collection::vec(-5.0f64..5.0, 64),
    ) {
        // Conductances spanning up to ~5 orders of magnitude (the
        // package's copper-against-oxide contrast). Every smoothed level's
        // stored Chebyshev bound must lie above ρ(D⁻¹A) — an
        // under-estimate turns the smoother into an amplifier — and the
        // V-cycle built on those bounds must stay symmetric positive
        // definite, so CG may use it.
        let seed: Vec<f64> = exponents.iter().map(|e| 10f64.powf(3.0 * e)).collect();
        let a = random_spd_stencil_3d(nx, ny, nz, &seed);
        let n = nx * ny * nz;
        let config = MultigridConfig { direct_cells: 8, ..MultigridConfig::default() };
        let mut mg = Multigrid::new(&a, &config).expect("hierarchy builds");
        for (level, (op, bound)) in mg.hierarchy().smoother_bounds().enumerate() {
            let rho = jacobi_spectral_radius(op);
            prop_assert!(bound >= rho, "level {level}: bound {bound} below rho(D^-1 A) {rho}");
        }

        let u: Vec<f64> = (0..n).map(|i| probe[i % probe.len()] + 0.01 * i as f64).collect();
        let v: Vec<f64> = (0..n).map(|i| probe[(7 * i + 3) % probe.len()]).collect();
        let (mut mu, mut mv) = (vec![0.0; n], vec![0.0; n]);
        mg.apply(&u, &mut mu);
        mg.apply(&v, &mut mv);
        let scale = dot(&u, &u).sqrt() * dot(&mv, &mv).sqrt()
            + dot(&v, &v).sqrt() * dot(&mu, &mu).sqrt();
        prop_assert!(
            (dot(&u, &mv) - dot(&v, &mu)).abs() <= 1e-10 * scale,
            "V-cycle not symmetric: {} vs {}", dot(&u, &mv), dot(&v, &mu)
        );
        prop_assert!(dot(&u, &mu) > 0.0 && dot(&v, &mv) > 0.0, "V-cycle not positive definite");
    }

    #[test]
    fn block_cg_matches_sequential_cg_on_random_stencils(
        nx in 3usize..7,
        ny in 3usize..7,
        nz in 2usize..5,
        k_pick in 0usize..4,
        seed in proptest::collection::vec(-2.0f64..2.0, 56),
        rhs_seed in proptest::collection::vec(-5.0f64..5.0, 512),
    ) {
        // One preconditioned_cg call on a k-column RHS must land every
        // column bitwise on the field, iteration count and residual a
        // one-column call produces for that column alone — the kernel's
        // documented contract — for each preconditioner rung the solve
        // ladder uses.
        let a = random_spd_stencil_3d(nx, ny, nz, &seed);
        let n = nx * ny * nz;
        let k = [1usize, 2, 4, 7][k_pick];
        let columns: Vec<Vec<f64>> = (0..k)
            .map(|j| (0..n).map(|i| rhs_seed[(j * n + i) % rhs_seed.len()]).collect())
            .collect();
        let opts = SolveOptions { tolerance: 1e-12, max_iterations: 50_000 };
        let mg_config = MultigridConfig { direct_cells: 8, ..MultigridConfig::default() };
        let kinds = [
            PreconditionerKind::Jacobi,
            PreconditionerKind::IncompleteCholesky,
            PreconditionerKind::Multigrid { config: mg_config },
        ];
        let mut ws = CgWorkspace::new();
        for kind in kinds {
            let mut m = kind.build(&a).expect("SPD stencil factors");
            let mut sequential = Vec::new();
            for rhs in &columns {
                let mut x = vec![0.0; n];
                let one =
                    preconditioned_cg(&a, rhs, &mut x, &mut m, &opts, &mut ws).expect("one column");
                sequential.push((one, x));
            }

            let mut x_block = vec![0.0; k * n];
            preconditioned_cg(&a, &columns.concat(), &mut x_block, &mut m, &opts, &mut ws)
                .expect("block solve");
            for (j, (summary, (one, x))) in ws.summaries().iter().zip(&sequential).enumerate() {
                prop_assert!(summary.converged, "column {j} failed: {summary:?}");
                prop_assert_eq!(summary.iterations, one.iterations, "column {}", j);
                prop_assert_eq!(summary.residual.to_bits(), one.residual.to_bits());
                let block_bits: Vec<u64> =
                    x_block[j * n..(j + 1) * n].iter().map(|v| v.to_bits()).collect();
                let one_bits: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(block_bits, one_bits, "column {}", j);
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
        let a = random_spd_stencil(nx, ny, &seed);
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
