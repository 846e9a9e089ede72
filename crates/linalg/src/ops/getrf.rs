//! Tiled LU factorization (no pivoting) as a task graph — the Chameleon
//! `getrf_nopiv` routine, an extension beyond the paper's two evaluated
//! operations that exercises a third DAG shape: two dependent panel
//! families (L and U) feeding a dense trailing update.
//!
//! Right-looking, for `nt × nt` tiles:
//!
//! ```text
//! for k in 0..nt:
//!   GETRF(A[k][k])                       # diagonal, CPU (LAPACK)
//!   for j > k: TRSM_L(A[k][k], A[k][j])  # U panel: L⁻¹·A
//!   for i > k: TRSM_R(A[k][k], A[i][k])  # L panel: A·U⁻¹
//!   for i > k, j > k: GEMM(A[i][j] -= A[i][k]·A[k][j])
//! ```
//!
//! Task counts: `nt` GETRF, `nt(nt−1)` TRSM, `(nt−1)nt(2nt−1)/6` GEMM.

use crate::kernels::gemm::{gemm, Trans};
use crate::kernels::getrf::{getrf_nopiv, trsm_left_lower_unit, trsm_right_upper, ZeroPivot};
use crate::matrix::TiledMatrix;
use crate::scalar::Scalar;
use ugpc_hwsim::Precision;
use ugpc_runtime::{
    execute_in_order, AccessMode, DataId, DataRegistry, KernelKind, TaskDesc, TaskGraph, TaskId,
};

/// Task coordinates within the factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GetrfTaskRef {
    /// Factor diagonal tile `A[k][k]` in place (L\U storage).
    Getrf { k: usize },
    /// U-panel solve `A[k][j] ← L[k][k]⁻¹·A[k][j]`.
    TrsmU { j: usize, k: usize },
    /// L-panel solve `A[i][k] ← A[i][k]·U[k][k]⁻¹`.
    TrsmL { i: usize, k: usize },
    /// Trailing update `A[i][j] ← A[i][j] − A[i][k]·A[k][j]`.
    Gemm { i: usize, j: usize, k: usize },
}

/// A built tiled-LU operation.
pub struct GetrfOp {
    pub nt: usize,
    pub nb: usize,
    pub precision: Precision,
    pub graph: TaskGraph,
    /// Full column-major grid of handles.
    pub tiles: Vec<DataId>,
    pub refs: Vec<GetrfTaskRef>,
}

impl GetrfOp {
    /// Useful flops: 2n³/3 for n = nt·nb.
    pub fn total_flops(&self) -> ugpc_hwsim::Flops {
        let n = (self.nt * self.nb) as f64;
        ugpc_hwsim::Flops(2.0 * n * n * n / 3.0)
    }

    pub fn expected_tasks(nt: usize) -> usize {
        // nt + nt(nt−1) + Σ_{k<nt} (nt−1−k)²
        nt + nt * (nt - 1) + (nt - 1) * nt * (2 * nt - 1) / 6
    }

    pub fn expected_gemms(nt: usize) -> usize {
        (nt - 1) * nt * (2 * nt - 1) / 6
    }

    /// Edge count: nt(nt−1)(2nt+1)/2.
    pub fn expected_edges(nt: usize) -> usize {
        nt * (nt - 1) * (2 * nt + 1) / 2
    }
}

/// Build the no-pivot LU task graph.
pub fn build_getrf(nt: usize, nb: usize, precision: Precision, reg: &mut DataRegistry) -> GetrfOp {
    assert!(nt > 0 && nb > 0);
    let bytes = ugpc_hwsim::Bytes((nb * nb * precision.elem_bytes()) as f64);
    reg.reserve(nt * nt);
    let tiles: Vec<DataId> = (0..nt * nt).map(|_| reg.register(bytes)).collect();
    let at = |i: usize, j: usize| tiles[i + j * nt];

    let tasks = GetrfOp::expected_tasks(nt);
    let edges = GetrfOp::expected_edges(nt);
    let mut graph = TaskGraph::with_capacity(tasks, edges, reg.len());
    let mut refs = Vec::with_capacity(tasks);
    let prio = |k: usize, offset: i32| 3 * (nt - k) as i32 - offset;

    for k in 0..nt {
        graph.submit(
            TaskDesc::new(KernelKind::Getrf, precision, nb)
                .with_priority(prio(k, 0))
                .access(at(k, k), AccessMode::ReadWrite),
        );
        refs.push(GetrfTaskRef::Getrf { k });

        for j in (k + 1)..nt {
            graph.submit(
                TaskDesc::new(KernelKind::Trsm, precision, nb)
                    .with_priority(prio(k, 1))
                    .access(at(k, k), AccessMode::Read)
                    .access(at(k, j), AccessMode::ReadWrite),
            );
            refs.push(GetrfTaskRef::TrsmU { j, k });
        }
        for i in (k + 1)..nt {
            graph.submit(
                TaskDesc::new(KernelKind::Trsm, precision, nb)
                    .with_priority(prio(k, 1))
                    .access(at(k, k), AccessMode::Read)
                    .access(at(i, k), AccessMode::ReadWrite),
            );
            refs.push(GetrfTaskRef::TrsmL { i, k });
        }
        for i in (k + 1)..nt {
            for j in (k + 1)..nt {
                graph.submit(
                    TaskDesc::new(KernelKind::Gemm, precision, nb)
                        .with_priority(prio(k, 2))
                        .access(at(i, k), AccessMode::Read)
                        .access(at(k, j), AccessMode::Read)
                        .access(at(i, j), AccessMode::ReadWrite),
                );
                refs.push(GetrfTaskRef::Gemm { i, j, k });
            }
        }
    }
    debug_assert_eq!(graph.edge_count(), edges, "GETRF nt {nt}");
    graph.seal();
    GetrfOp {
        nt,
        nb,
        precision,
        graph,
        tiles,
        refs,
    }
}

/// Execute with the real kernels, one task at a time in `order` (see
/// [`execute_in_order`]): `a` becomes L\U in place. Fails on the first
/// zero pivot (use diagonally dominant inputs).
pub fn run_getrf_native<T: Scalar>(
    op: &GetrfOp,
    a: &TiledMatrix<T>,
    order: &[TaskId],
) -> Result<(), ZeroPivot> {
    assert_eq!(T::precision(), op.precision, "scalar type mismatch");
    assert_eq!(a.nt(), op.nt);
    assert_eq!(a.nb(), op.nb);
    execute_in_order(&op.graph, order, |tid| {
        match op.refs[tid] {
            GetrfTaskRef::Getrf { k } => {
                getrf_nopiv(&mut a.tile(k, k)).map_err(|e| ZeroPivot {
                    pivot: k * op.nb + e.pivot,
                })?;
            }
            GetrfTaskRef::TrsmU { j, k } => {
                let lkk = a.tile_clone(k, k);
                let mut akj = a.tile(k, j);
                trsm_left_lower_unit(&lkk, &mut akj);
            }
            GetrfTaskRef::TrsmL { i, k } => {
                let ukk = a.tile_clone(k, k);
                let mut aik = a.tile(i, k);
                trsm_right_upper(&ukk, &mut aik);
            }
            GetrfTaskRef::Gemm { i, j, k } => {
                let aik = a.tile_clone(i, k);
                let akj = a.tile_clone(k, j);
                let mut aij = a.tile(i, j);
                gemm(Trans::No, Trans::No, -T::ONE, &aik, &akj, T::ONE, &mut aij);
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::dd_tiled;

    #[test]
    fn task_counts_match_formulas() {
        for nt in [1usize, 2, 3, 5, 8] {
            let mut reg = DataRegistry::new();
            let op = build_getrf(nt, 8, Precision::Double, &mut reg);
            assert_eq!(op.graph.len(), GetrfOp::expected_tasks(nt), "nt={nt}");
            assert_eq!(
                op.graph.edge_count(),
                GetrfOp::expected_edges(nt),
                "nt={nt}"
            );
            assert_eq!(op.graph.count_kind(KernelKind::Getrf), nt);
            assert_eq!(op.graph.count_kind(KernelKind::Trsm), nt * (nt - 1));
            assert_eq!(
                op.graph.count_kind(KernelKind::Gemm),
                GetrfOp::expected_gemms(nt),
                "nt={nt}"
            );
        }
    }

    #[test]
    fn lu_has_more_parallel_updates_than_cholesky() {
        // LU's trailing update is the full square, Cholesky's only the
        // lower triangle: at equal nt, LU has ~2× the GEMMs.
        let nt = 10;
        let lu = GetrfOp::expected_gemms(nt);
        let chol = crate::ops::potrf::PotrfOp::expected_gemms(nt);
        assert!(lu > 2 * chol - nt, "lu {lu} vs chol {chol}");
    }

    #[test]
    fn native_factorization_reconstructs() {
        let nt = 4;
        let nb = 8;
        let n = nt * nb;
        let a = dd_tiled::<f64>(nt, nb, 77);
        let a0 = a.to_dense();
        let mut reg = DataRegistry::new();
        let op = build_getrf(nt, nb, Precision::Double, &mut reg);
        run_getrf_native(&op, &a, &op.graph.submission_order()).unwrap();
        // L·U must reproduce A.
        let f = a.to_dense();
        let l = crate::tile::Tile::from_fn(n, |i, j| {
            if i > j {
                f[(i, j)]
            } else if i == j {
                1.0
            } else {
                0.0
            }
        });
        let u = crate::tile::Tile::from_fn(n, |i, j| if i <= j { f[(i, j)] } else { 0.0 });
        let mut back = crate::tile::Tile::zeros(n);
        gemm(Trans::No, Trans::No, 1.0, &l, &u, 0.0, &mut back);
        let diff = back.max_abs_diff(&a0);
        assert!(diff < 1e-8, "diff {diff}");
    }

    #[test]
    fn native_single_precision() {
        let a = dd_tiled::<f32>(3, 8, 5);
        let mut reg = DataRegistry::new();
        let op = build_getrf(3, 8, Precision::Single, &mut reg);
        run_getrf_native(&op, &a, &op.graph.submission_order()).unwrap();
    }

    #[test]
    fn zero_pivot_detected() {
        let nt = 2;
        let nb = 4;
        let a = TiledMatrix::<f64>::zeros(nt, nb);
        let mut reg = DataRegistry::new();
        let op = build_getrf(nt, nb, Precision::Double, &mut reg);
        let err = run_getrf_native(&op, &a, &op.graph.submission_order()).unwrap_err();
        assert_eq!(err.pivot, 0);
    }

    #[test]
    fn simulates_on_platform() {
        // The third operation runs through the full simulator stack.
        let mut node = ugpc_hwsim::Node::new(ugpc_hwsim::PlatformId::Amd4A100);
        let mut reg = DataRegistry::new();
        let op = build_getrf(8, 2880, Precision::Double, &mut reg);
        let trace = ugpc_runtime::simulate(
            &mut node,
            &op.graph,
            &mut reg,
            ugpc_runtime::SimOptions::default(),
        );
        assert_eq!(trace.cpu_tasks + trace.gpu_tasks, op.graph.len());
        // GETRF diagonal tasks are CPU-only; with only 8 tiles the
        // CPU-bound critical path dominates, so efficiency is modest but
        // must be positive and bounded.
        assert!(trace.cpu_tasks >= 8);
        let eff = trace.efficiency().as_gflops_per_watt();
        assert!(eff > 0.5 && eff < 100.0, "eff {eff}");
    }
}
