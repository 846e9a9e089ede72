//! Mixed-precision iterative refinement — the paper's final future-work
//! item ("mixed precision computations as a complementary way to find the
//! best tradeoff between raw performance and energy consumption", §VII).
//!
//! The classic LAPACK `dsgesv` scheme, here for SPD systems: factor in
//! **single** precision (the O(n³) work, at single's higher speed and
//! better energy efficiency), then recover **double**-precision accuracy
//! with a few O(n²) residual-correction iterations:
//!
//! ```text
//! A_sp = fl32(A);  L = potrf(A_sp)
//! x = L⁻ᵀ L⁻¹ b                       (single)
//! repeat: r = b − A·x (double);  dx = L⁻ᵀ L⁻¹ r (single);  x += dx
//! ```

use crate::kernels::gemm::{gemm, Trans};
use crate::kernels::potrf::NotSpd;
use crate::kernels::solve::{trsm_left_lower, trsm_left_lower_trans};
use crate::matrix::TiledMatrix;
use crate::ops::potrf::{build_potrf, run_potrf_native};
use crate::tile::Tile;
use ugpc_hwsim::Precision;
use ugpc_runtime::DataRegistry;

/// Outcome of a mixed-precision solve.
#[derive(Debug, Clone)]
pub struct RefineStats {
    /// Residual-correction iterations performed.
    pub iterations: usize,
    /// Relative residual ‖b − A·x‖∞ / ‖b‖∞ after the last iteration.
    pub final_residual: f64,
    /// Residual after the initial single-precision solve (before any
    /// correction) — shows how much refinement buys.
    pub initial_residual: f64,
}

/// Forward+backward sweep with a single-precision factor over an
/// `nb`-wide block of right-hand sides given as f64 (converted on entry,
/// accumulated back in f64).
fn solve_with_sp_factor(l_sp: &TiledMatrix<f32>, rhs_f64: &[Tile<f64>]) -> Vec<Tile<f64>> {
    let nt = l_sp.nt();
    let nb = l_sp.nb();
    let mut y: Vec<Tile<f32>> = rhs_f64
        .iter()
        .map(|t| Tile::from_fn(nb, |i, j| t[(i, j)] as f32))
        .collect();
    // Forward sweep L·Y = B.
    for k in 0..nt {
        let lkk = l_sp.tile_clone(k, k);
        trsm_left_lower(&lkk, &mut y[k]);
        for i in (k + 1)..nt {
            let lik = l_sp.tile_clone(i, k);
            let yk = y[k].clone();
            gemm(Trans::No, Trans::No, -1.0f32, &lik, &yk, 1.0, &mut y[i]);
        }
    }
    // Backward sweep Lᵀ·X = Y.
    for k in (0..nt).rev() {
        let lkk = l_sp.tile_clone(k, k);
        trsm_left_lower_trans(&lkk, &mut y[k]);
        for i in 0..k {
            let lki = l_sp.tile_clone(k, i);
            let yk = y[k].clone();
            gemm(Trans::Yes, Trans::No, -1.0f32, &lki, &yk, 1.0, &mut y[i]);
        }
    }
    y.iter()
        .map(|t| Tile::from_fn(nb, |i, j| t[(i, j)] as f64))
        .collect()
}

/// Residual `r = b − A·x` in double precision (block column of width nb).
fn residual(a: &TiledMatrix<f64>, b: &[Tile<f64>], x: &[Tile<f64>]) -> Vec<Tile<f64>> {
    let nt = a.nt();
    (0..nt)
        .map(|i| {
            let mut r = b[i].clone();
            for (j, xj) in x.iter().enumerate().take(nt) {
                let aij = a.tile_clone(i, j);
                gemm(Trans::No, Trans::No, -1.0, &aij, xj, 1.0, &mut r);
            }
            r
        })
        .collect()
}

fn inf_norm(ts: &[Tile<f64>]) -> f64 {
    ts.iter()
        .flat_map(|t| t.as_slice().iter())
        .fold(0.0f64, |m, &v| m.max(v.abs()))
}

/// Solve the SPD system `A·X = B` (B given as a block column of `nt`
/// f64 tiles) by single-precision factorization plus double-precision
/// iterative refinement. Returns the solution and convergence statistics.
///
/// `a` must be SPD and symmetric (full storage); refinement converges for
/// reasonably conditioned systems (κ(A) ≪ 1/ε₃₂ ≈ 10⁷).
pub fn posv_refine_native(
    a: &TiledMatrix<f64>,
    b: &[Tile<f64>],
    max_iters: usize,
    tol: f64,
) -> Result<(Vec<Tile<f64>>, RefineStats), NotSpd> {
    let nt = a.nt();
    let nb = a.nb();
    assert_eq!(b.len(), nt, "one RHS tile per tile row");

    // Downcast and factor in single precision (the O(n³) stage).
    let a_sp = TiledMatrix::<f32>::from_fn(nt, nb, |i, j| a.get(i, j) as f32);
    let mut reg = DataRegistry::new();
    let op = build_potrf(nt, nb, Precision::Single, &mut reg);
    run_potrf_native(&op, &a_sp, &op.graph.submission_order())?;

    let b_norm = inf_norm(b).max(1e-300);
    let mut x = solve_with_sp_factor(&a_sp, b);
    let mut r = residual(a, b, &x);
    let initial_residual = inf_norm(&r) / b_norm;
    let mut final_residual = initial_residual;
    let mut iterations = 0;
    while iterations < max_iters && final_residual > tol {
        let dx = solve_with_sp_factor(&a_sp, &r);
        for (xi, di) in x.iter_mut().zip(&dx) {
            for (a, b) in xi.as_mut_slice().iter_mut().zip(di.as_slice()) {
                *a += *b;
            }
        }
        r = residual(a, b, &x);
        final_residual = inf_norm(&r) / b_norm;
        iterations += 1;
    }
    Ok((
        x,
        RefineStats {
            iterations,
            final_residual,
            initial_residual,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{random_tiled, spd_tiled};

    /// Symmetrize the SPD generator's full storage (it is symmetric by
    /// construction; this is belt and braces for the residual check).
    fn spd_full(nt: usize, nb: usize, seed: u64) -> TiledMatrix<f64> {
        let a = spd_tiled::<f64>(nt, nb, seed);
        let d = a.to_dense();
        TiledMatrix::from_fn(nt, nb, |i, j| 0.5 * (d[(i, j)] + d[(j, i)]))
    }

    fn rhs(nt: usize, nb: usize, seed: u64) -> Vec<Tile<f64>> {
        let m = random_tiled::<f64>(nt, nb, seed);
        (0..nt).map(|i| m.tile_clone(i, 0)).collect()
    }

    #[test]
    fn refinement_reaches_double_precision_accuracy() {
        let (nt, nb) = (3, 8);
        let a = spd_full(nt, nb, 500);
        let b = rhs(nt, nb, 501);
        let (_, stats) = posv_refine_native(&a, &b, 10, 1e-12).unwrap();
        assert!(
            stats.final_residual < 1e-12,
            "residual {:.2e} after {} iterations",
            stats.final_residual,
            stats.iterations
        );
        // The single-precision solve alone is far from double accuracy...
        assert!(stats.initial_residual > stats.final_residual * 10.0);
        // ...and refinement converges fast for well-conditioned systems.
        assert!(stats.iterations <= 4, "{} iterations", stats.iterations);
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let (nt, nb) = (2, 8);
        let a = spd_full(nt, nb, 510);
        let b: Vec<Tile<f64>> = (0..nt).map(|_| Tile::zeros(nb)).collect();
        let (x, stats) = posv_refine_native(&a, &b, 5, 1e-14).unwrap();
        assert_eq!(stats.iterations, 0);
        assert!(inf_norm(&x) < 1e-6);
    }

    #[test]
    fn solution_actually_solves_the_system() {
        let (nt, nb) = (4, 8);
        let a = spd_full(nt, nb, 520);
        let b = rhs(nt, nb, 521);
        let (x, _) = posv_refine_native(&a, &b, 10, 1e-11).unwrap();
        let r = residual(&a, &b, &x);
        assert!(inf_norm(&r) / inf_norm(&b) < 1e-11);
    }

    #[test]
    fn non_spd_rejected() {
        let a = TiledMatrix::<f64>::from_fn(2, 4, |i, j| if i == j { -1.0 } else { 0.0 });
        let b = rhs(2, 4, 1);
        assert!(posv_refine_native(&a, &b, 3, 1e-10).is_err());
    }
}
