//! The tiled Cholesky factorization (POTRF) as a task graph.
//!
//! Right-looking variant on the lower triangle, exactly Chameleon's
//! algorithm: at step k, factor the diagonal tile (POTRF), solve the panel
//! below it (TRSM), then update the trailing submatrix (SYRK on diagonal
//! tiles, GEMM elsewhere). For an `nt × nt` tile matrix the DAG has
//! `nt(nt+1)(nt+2)/6` vertices and `(nt−1)nt(nt+1)/2` edges, of which
//! `nt(nt−1)(nt−2)/6` are GEMM tasks — the counts quoted in §III-C, and
//! asserted by this module's tests.
//!
//! Tasks carry Chameleon-style expert priorities: the factorization chain
//! (POTRF, then its TRSMs) outranks trailing updates, and earlier steps
//! outrank later ones — keeping the critical path moving is what lets
//! dmdas tolerate slow (capped) devices.

use crate::kernels::gemm::{gemm, Trans};
use crate::kernels::potrf::{potrf_lower, NotSpd};
use crate::kernels::syrk::syrk_lower;
use crate::kernels::trsm::trsm_right_lower_trans;
use crate::matrix::TiledMatrix;
use crate::scalar::Scalar;
use ugpc_hwsim::Precision;
use ugpc_runtime::{
    execute_in_order, AccessMode, DataId, DataRegistry, KernelKind, TaskDesc, TaskGraph, TaskId,
};

/// Task coordinates within the factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PotrfTaskRef {
    /// Factor diagonal tile `A[k][k]`.
    Potrf { k: usize },
    /// Panel solve `A[i][k] ← A[i][k]·L[k][k]⁻ᵀ`.
    Trsm { i: usize, k: usize },
    /// Diagonal update `A[i][i] ← A[i][i] − A[i][k]·A[i][k]ᵀ`.
    Syrk { i: usize, k: usize },
    /// Off-diagonal update `A[i][j] ← A[i][j] − A[i][k]·A[j][k]ᵀ`.
    Gemm { i: usize, j: usize, k: usize },
}

/// A built tiled-POTRF operation.
pub struct PotrfOp {
    pub nt: usize,
    pub nb: usize,
    pub precision: Precision,
    pub graph: TaskGraph,
    /// Full column-major grid of handles (only `i ≥ j` entries are used).
    pub tiles: Vec<DataId>,
    /// Task id → coordinates.
    pub refs: Vec<PotrfTaskRef>,
}

impl PotrfOp {
    /// Useful flops: n³/3 for n = nt·nb.
    pub fn total_flops(&self) -> ugpc_hwsim::Flops {
        let n = (self.nt * self.nb) as f64;
        ugpc_hwsim::Flops(n * n * n / 3.0)
    }

    /// Expected vertex count for an `nt`-tile Cholesky (§III-C).
    pub fn expected_tasks(nt: usize) -> usize {
        nt * (nt + 1) * (nt + 2) / 6
    }

    /// Expected edge count (§III-C).
    pub fn expected_edges(nt: usize) -> usize {
        (nt - 1) * nt * (nt + 1) / 2
    }

    /// Expected GEMM task count (§III-C).
    pub fn expected_gemms(nt: usize) -> usize {
        nt.saturating_sub(2) * nt.saturating_sub(1) * nt / 6
    }
}

/// Build the lower-Cholesky task graph.
pub fn build_potrf(nt: usize, nb: usize, precision: Precision, reg: &mut DataRegistry) -> PotrfOp {
    assert!(nt > 0 && nb > 0);
    let bytes = ugpc_hwsim::Bytes((nb * nb * precision.elem_bytes()) as f64);
    reg.reserve(nt * nt);
    let tiles: Vec<DataId> = (0..nt * nt).map(|_| reg.register(bytes)).collect();
    let at = |i: usize, j: usize| tiles[i + j * nt];

    let tasks = PotrfOp::expected_tasks(nt);
    let edges = PotrfOp::expected_edges(nt);
    let mut graph = TaskGraph::with_capacity(tasks, edges, reg.len());
    let mut refs = Vec::with_capacity(tasks);
    // Priorities: higher = more urgent; the chain at step k dominates all
    // trailing updates of later steps.
    let prio = |k: usize, offset: i32| 3 * (nt - k) as i32 - offset;

    for k in 0..nt {
        graph.submit(
            TaskDesc::new(KernelKind::Potrf, precision, nb)
                .with_priority(prio(k, 0))
                .access(at(k, k), AccessMode::ReadWrite),
        );
        refs.push(PotrfTaskRef::Potrf { k });

        for i in (k + 1)..nt {
            graph.submit(
                TaskDesc::new(KernelKind::Trsm, precision, nb)
                    .with_priority(prio(k, 1))
                    .access(at(k, k), AccessMode::Read)
                    .access(at(i, k), AccessMode::ReadWrite),
            );
            refs.push(PotrfTaskRef::Trsm { i, k });
        }

        for i in (k + 1)..nt {
            graph.submit(
                TaskDesc::new(KernelKind::Syrk, precision, nb)
                    .with_priority(prio(k, 2))
                    .access(at(i, k), AccessMode::Read)
                    .access(at(i, i), AccessMode::ReadWrite),
            );
            refs.push(PotrfTaskRef::Syrk { i, k });
            for j in (k + 1)..i {
                graph.submit(
                    TaskDesc::new(KernelKind::Gemm, precision, nb)
                        .with_priority(prio(k, 2))
                        .access(at(i, k), AccessMode::Read)
                        .access(at(j, k), AccessMode::Read)
                        .access(at(i, j), AccessMode::ReadWrite),
                );
                refs.push(PotrfTaskRef::Gemm { i, j, k });
            }
        }
    }
    debug_assert_eq!(graph.edge_count(), edges, "POTRF nt {nt}");
    graph.seal();
    PotrfOp {
        nt,
        nb,
        precision,
        graph,
        tiles,
        refs,
    }
}

/// Execute the factorization with the real kernels, one task at a time
/// in `order` (see [`execute_in_order`]): `a`'s lower triangle becomes
/// `L` in place. Fails with the first non-SPD pivot (global index).
pub fn run_potrf_native<T: Scalar>(
    op: &PotrfOp,
    a: &TiledMatrix<T>,
    order: &[TaskId],
) -> Result<(), NotSpd> {
    assert_eq!(T::precision(), op.precision, "scalar type mismatch");
    assert_eq!(a.nt(), op.nt);
    assert_eq!(a.nb(), op.nb);
    execute_in_order(&op.graph, order, |tid| {
        match op.refs[tid] {
            PotrfTaskRef::Potrf { k } => {
                potrf_lower(&mut a.tile(k, k)).map_err(|e| NotSpd {
                    pivot: k * op.nb + e.pivot,
                })?;
            }
            PotrfTaskRef::Trsm { i, k } => {
                let lkk = a.tile_clone(k, k);
                let mut aik = a.tile(i, k);
                trsm_right_lower_trans(&lkk, &mut aik);
            }
            PotrfTaskRef::Syrk { i, k } => {
                let aik = a.tile_clone(i, k);
                let mut aii = a.tile(i, i);
                syrk_lower(-T::ONE, &aik, T::ONE, &mut aii);
            }
            PotrfTaskRef::Gemm { i, j, k } => {
                let aik = a.tile_clone(i, k);
                let ajk = a.tile_clone(j, k);
                let mut aij = a.tile(i, j);
                gemm(Trans::No, Trans::Yes, -T::ONE, &aik, &ajk, T::ONE, &mut aij);
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::spd_tiled;

    #[test]
    #[should_panic(expected = "submit on a sealed task graph")]
    fn a_built_graph_takes_no_more_submissions() {
        let mut reg = DataRegistry::new();
        let mut op = build_potrf(3, 8, Precision::Double, &mut reg);
        let t = op.graph.task(0).clone();
        op.graph.submit(t);
    }

    #[test]
    fn task_counts_match_paper_formulas() {
        for nt in [1, 2, 3, 5, 8, 12] {
            let mut reg = DataRegistry::new();
            let op = build_potrf(nt, 8, Precision::Double, &mut reg);
            assert_eq!(
                op.graph.len(),
                PotrfOp::expected_tasks(nt),
                "vertices at nt={nt}"
            );
            assert_eq!(
                op.graph.count_kind(KernelKind::Gemm),
                PotrfOp::expected_gemms(nt),
                "gemm count at nt={nt}"
            );
            assert_eq!(op.graph.count_kind(KernelKind::Potrf), nt);
            assert_eq!(op.graph.count_kind(KernelKind::Trsm), nt * (nt - 1) / 2);
            assert_eq!(op.graph.count_kind(KernelKind::Syrk), nt * (nt - 1) / 2);
            if nt > 1 {
                assert_eq!(
                    op.graph.edge_count(),
                    PotrfOp::expected_edges(nt),
                    "edges at nt={nt}"
                );
            }
        }
    }

    #[test]
    fn gemms_dominate_for_large_nt() {
        // §III-C: GEMM tasks are ~half of all tasks at the paper's sizes.
        let mut reg = DataRegistry::new();
        let op = build_potrf(60, 4, Precision::Double, &mut reg);
        let frac = op.graph.count_kind(KernelKind::Gemm) as f64 / op.graph.len() as f64;
        assert!((0.85..1.0).contains(&frac), "gemm fraction {frac}");
    }

    #[test]
    fn critical_path_structure() {
        // The critical path alternates potrf → trsm → syrk/gemm chains:
        // roughly 3·nt long.
        let mut reg = DataRegistry::new();
        let op = build_potrf(6, 8, Precision::Double, &mut reg);
        let cp = op.graph.critical_path_len();
        assert!(cp >= 2 * 6 - 1, "critical path {cp}");
        assert!(cp <= 3 * 6, "critical path {cp}");
    }

    #[test]
    fn priorities_decrease_with_step() {
        let mut reg = DataRegistry::new();
        let op = build_potrf(4, 8, Precision::Double, &mut reg);
        let prio_of = |r: &PotrfTaskRef| -> i32 {
            let idx = op.refs.iter().position(|x| x == r).unwrap();
            op.graph.task(idx).priority
        };
        let p0 = prio_of(&PotrfTaskRef::Potrf { k: 0 });
        let p1 = prio_of(&PotrfTaskRef::Potrf { k: 1 });
        assert!(p0 > p1);
        // POTRF outranks its TRSMs, which outrank updates.
        let t0 = prio_of(&PotrfTaskRef::Trsm { i: 1, k: 0 });
        let g0 = prio_of(&PotrfTaskRef::Gemm { i: 2, j: 1, k: 0 });
        assert!(p0 > t0 && t0 > g0);
    }

    #[test]
    fn native_factorization_reconstructs() {
        let nt = 4;
        let nb = 8;
        let a = spd_tiled::<f64>(nt, nb, 42);
        let a0 = a.to_dense();
        let mut reg = DataRegistry::new();
        let op = build_potrf(nt, nb, Precision::Double, &mut reg);
        run_potrf_native(&op, &a, &op.graph.submission_order()).unwrap();
        // L·Lᵀ must reproduce A's lower triangle.
        let n = nt * nb;
        let l = crate::tile::Tile::from_fn(n, |i, j| if i >= j { a.get(i, j) } else { 0.0 });
        let mut back = crate::tile::Tile::zeros(n);
        gemm(Trans::No, Trans::Yes, 1.0, &l, &l, 0.0, &mut back);
        for j in 0..n {
            for i in j..n {
                assert!(
                    (back[(i, j)] - a0[(i, j)]).abs() < 1e-8,
                    "({i},{j}): {} vs {}",
                    back[(i, j)],
                    a0[(i, j)]
                );
            }
        }
    }

    #[test]
    fn native_single_precision_factorization() {
        let a = spd_tiled::<f32>(3, 8, 7);
        let mut reg = DataRegistry::new();
        let op = build_potrf(3, 8, Precision::Single, &mut reg);
        run_potrf_native(&op, &a, &op.graph.submission_order()).unwrap();
        // Diagonal of L is positive.
        for i in 0..24 {
            assert!(a.get(i, i) > 0.0);
        }
    }

    #[test]
    fn non_spd_matrix_reports_pivot() {
        let nt = 3;
        let nb = 4;
        // Indefinite matrix: -I.
        let a = TiledMatrix::<f64>::from_fn(nt, nb, |i, j| if i == j { -1.0 } else { 0.0 });
        let mut reg = DataRegistry::new();
        let op = build_potrf(nt, nb, Precision::Double, &mut reg);
        let err = run_potrf_native(&op, &a, &op.graph.submission_order()).unwrap_err();
        assert_eq!(err.pivot, 0);
    }
}
