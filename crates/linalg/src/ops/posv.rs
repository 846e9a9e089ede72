//! POSV — solving an SPD system `A·X = B` end-to-end as one task graph:
//! Cholesky factorization followed by the forward (`L·Y = B`) and backward
//! (`Lᵀ·X = Y`) block sweeps. This is Chameleon's headline use case
//! ("systems of linear equations", §III-C) and adds a DAG with a long
//! sequential tail: the two sweeps have almost no parallelism compared to
//! the factorization, which stresses priority scheduling.

use crate::kernels::gemm::{gemm, Trans};
use crate::kernels::potrf::{potrf_lower, NotSpd};
use crate::kernels::solve::{trsm_left_lower, trsm_left_lower_trans};
use crate::kernels::syrk::syrk_lower;
use crate::kernels::trsm::trsm_right_lower_trans;
use crate::matrix::TiledMatrix;
use crate::scalar::Scalar;
use ugpc_hwsim::Precision;
use ugpc_runtime::{
    execute_in_order, AccessMode, DataId, DataRegistry, KernelKind, TaskDesc, TaskGraph, TaskId,
};

/// Task coordinates within the solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PosvTaskRef {
    /// Factorization stage (identical to `PotrfOp`).
    Potrf {
        k: usize,
    },
    PanelTrsm {
        i: usize,
        k: usize,
    },
    Syrk {
        i: usize,
        k: usize,
    },
    UpdateGemm {
        i: usize,
        j: usize,
        k: usize,
    },
    /// Forward sweep: `B[k] ← L[k][k]⁻¹·B[k]`.
    FwdTrsm {
        k: usize,
    },
    /// Forward sweep: `B[i] ← B[i] − L[i][k]·B[k]`.
    FwdGemm {
        i: usize,
        k: usize,
    },
    /// Backward sweep: `B[k] ← L[k][k]⁻ᵀ·B[k]`.
    BwdTrsm {
        k: usize,
    },
    /// Backward sweep: `B[i] ← B[i] − L[k][i]ᵀ·B[k]`.
    BwdGemm {
        i: usize,
        k: usize,
    },
}

/// A built POSV operation.
pub struct PosvOp {
    pub nt: usize,
    pub nb: usize,
    pub precision: Precision,
    pub graph: TaskGraph,
    /// Column-major grid of matrix-tile handles.
    pub a_tiles: Vec<DataId>,
    /// One RHS block-row handle per tile row.
    pub b_tiles: Vec<DataId>,
    pub refs: Vec<PosvTaskRef>,
}

impl PosvOp {
    /// Useful flops: factorization `n³/3` plus two sweeps `2·n²·nb` (one
    /// `nb`-wide block of right-hand sides).
    pub fn total_flops(&self) -> ugpc_hwsim::Flops {
        let n = (self.nt * self.nb) as f64;
        let nb = self.nb as f64;
        ugpc_hwsim::Flops(n * n * n / 3.0 + 2.0 * n * n * nb)
    }

    /// Tasks: POTRF's count plus `2·nt` solve TRSMs plus `nt(nt−1)` solve
    /// GEMMs.
    pub fn expected_tasks(nt: usize) -> usize {
        crate::ops::potrf::PotrfOp::expected_tasks(nt) + 2 * nt + nt * (nt - 1)
    }

    /// Edge count: nt(nt² + 7nt − 2)/2.
    pub fn expected_edges(nt: usize) -> usize {
        nt * (nt * nt + 7 * nt - 2) / 2
    }
}

/// Build the POSV task graph (factor + both sweeps in one DAG).
pub fn build_posv(nt: usize, nb: usize, precision: Precision, reg: &mut DataRegistry) -> PosvOp {
    assert!(nt > 0 && nb > 0);
    let bytes = ugpc_hwsim::Bytes((nb * nb * precision.elem_bytes()) as f64);
    reg.reserve(nt * nt + nt);
    let a_tiles: Vec<DataId> = (0..nt * nt).map(|_| reg.register(bytes)).collect();
    let b_tiles: Vec<DataId> = (0..nt).map(|_| reg.register(bytes)).collect();
    let at = |i: usize, j: usize| a_tiles[i + j * nt];

    let tasks = PosvOp::expected_tasks(nt);
    let edges = PosvOp::expected_edges(nt);
    let mut graph = TaskGraph::with_capacity(tasks, edges, reg.len());
    let mut refs = Vec::with_capacity(tasks);
    // Factorization priorities sit above the sweeps; within the sweeps,
    // earlier panels first.
    let fprio = |k: usize, offset: i32| 3 * (nt - k) as i32 + 100 - offset;

    // Stage 1: Cholesky (same construction as PotrfOp).
    for k in 0..nt {
        graph.submit(
            TaskDesc::new(KernelKind::Potrf, precision, nb)
                .with_priority(fprio(k, 0))
                .access(at(k, k), AccessMode::ReadWrite),
        );
        refs.push(PosvTaskRef::Potrf { k });
        for i in (k + 1)..nt {
            graph.submit(
                TaskDesc::new(KernelKind::Trsm, precision, nb)
                    .with_priority(fprio(k, 1))
                    .access(at(k, k), AccessMode::Read)
                    .access(at(i, k), AccessMode::ReadWrite),
            );
            refs.push(PosvTaskRef::PanelTrsm { i, k });
        }
        for i in (k + 1)..nt {
            graph.submit(
                TaskDesc::new(KernelKind::Syrk, precision, nb)
                    .with_priority(fprio(k, 2))
                    .access(at(i, k), AccessMode::Read)
                    .access(at(i, i), AccessMode::ReadWrite),
            );
            refs.push(PosvTaskRef::Syrk { i, k });
            for j in (k + 1)..i {
                graph.submit(
                    TaskDesc::new(KernelKind::Gemm, precision, nb)
                        .with_priority(fprio(k, 2))
                        .access(at(i, k), AccessMode::Read)
                        .access(at(j, k), AccessMode::Read)
                        .access(at(i, j), AccessMode::ReadWrite),
                );
                refs.push(PosvTaskRef::UpdateGemm { i, j, k });
            }
        }
    }

    // Stage 2: forward sweep L·Y = B.
    for k in 0..nt {
        graph.submit(
            TaskDesc::new(KernelKind::Trsm, precision, nb)
                .with_priority(50)
                .access(at(k, k), AccessMode::Read)
                .access(b_tiles[k], AccessMode::ReadWrite),
        );
        refs.push(PosvTaskRef::FwdTrsm { k });
        for i in (k + 1)..nt {
            graph.submit(
                TaskDesc::new(KernelKind::Gemm, precision, nb)
                    .with_priority(49)
                    .access(at(i, k), AccessMode::Read)
                    .access(b_tiles[k], AccessMode::Read)
                    .access(b_tiles[i], AccessMode::ReadWrite),
            );
            refs.push(PosvTaskRef::FwdGemm { i, k });
        }
    }

    // Stage 3: backward sweep Lᵀ·X = Y.
    for k in (0..nt).rev() {
        graph.submit(
            TaskDesc::new(KernelKind::Trsm, precision, nb)
                .with_priority(40)
                .access(at(k, k), AccessMode::Read)
                .access(b_tiles[k], AccessMode::ReadWrite),
        );
        refs.push(PosvTaskRef::BwdTrsm { k });
        for i in 0..k {
            graph.submit(
                TaskDesc::new(KernelKind::Gemm, precision, nb)
                    .with_priority(39)
                    .access(at(k, i), AccessMode::Read)
                    .access(b_tiles[k], AccessMode::Read)
                    .access(b_tiles[i], AccessMode::ReadWrite),
            );
            refs.push(PosvTaskRef::BwdGemm { i, k });
        }
    }

    debug_assert_eq!(graph.edge_count(), edges, "POSV nt {nt}");
    graph.seal();
    PosvOp {
        nt,
        nb,
        precision,
        graph,
        a_tiles,
        b_tiles,
        refs,
    }
}

/// Execute with the real kernels, one task at a time in `order` (see
/// [`execute_in_order`]): factors `a` in place and overwrites the `b`
/// block column (tiles `(i, 0)` of a tiled matrix) with the solution `X`.
/// Fails with the first non-SPD pivot (global index).
pub fn run_posv_native<T: Scalar>(
    op: &PosvOp,
    a: &TiledMatrix<T>,
    b: &TiledMatrix<T>,
    order: &[TaskId],
) -> Result<(), NotSpd> {
    assert_eq!(T::precision(), op.precision, "scalar type mismatch");
    assert_eq!(a.nt(), op.nt);
    assert_eq!(a.nb(), op.nb);
    assert!(
        b.nt() == op.nt && b.nb() == op.nb,
        "RHS tile shape mismatch"
    );
    execute_in_order(&op.graph, order, |tid| {
        match op.refs[tid] {
            PosvTaskRef::Potrf { k } => {
                potrf_lower(&mut a.tile(k, k)).map_err(|e| NotSpd {
                    pivot: k * op.nb + e.pivot,
                })?;
            }
            PosvTaskRef::PanelTrsm { i, k } => {
                let lkk = a.tile_clone(k, k);
                let mut aik = a.tile(i, k);
                trsm_right_lower_trans(&lkk, &mut aik);
            }
            PosvTaskRef::Syrk { i, k } => {
                let aik = a.tile_clone(i, k);
                let mut aii = a.tile(i, i);
                syrk_lower(-T::ONE, &aik, T::ONE, &mut aii);
            }
            PosvTaskRef::UpdateGemm { i, j, k } => {
                let aik = a.tile_clone(i, k);
                let ajk = a.tile_clone(j, k);
                let mut aij = a.tile(i, j);
                gemm(Trans::No, Trans::Yes, -T::ONE, &aik, &ajk, T::ONE, &mut aij);
            }
            PosvTaskRef::FwdTrsm { k } => {
                let lkk = a.tile_clone(k, k);
                let mut bk = b.tile(k, 0);
                trsm_left_lower(&lkk, &mut bk);
            }
            PosvTaskRef::FwdGemm { i, k } => {
                let lik = a.tile_clone(i, k);
                let bk = b.tile_clone(k, 0);
                let mut bi = b.tile(i, 0);
                gemm(Trans::No, Trans::No, -T::ONE, &lik, &bk, T::ONE, &mut bi);
            }
            PosvTaskRef::BwdTrsm { k } => {
                let lkk = a.tile_clone(k, k);
                let mut bk = b.tile(k, 0);
                trsm_left_lower_trans(&lkk, &mut bk);
            }
            PosvTaskRef::BwdGemm { i, k } => {
                let lki = a.tile_clone(k, i);
                let bk = b.tile_clone(k, 0);
                let mut bi = b.tile(i, 0);
                gemm(Trans::Yes, Trans::No, -T::ONE, &lki, &bk, T::ONE, &mut bi);
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{random_tiled, spd_tiled};

    #[test]
    fn task_counts() {
        for nt in [1usize, 2, 4, 6] {
            let mut reg = DataRegistry::new();
            let op = build_posv(nt, 8, Precision::Double, &mut reg);
            assert_eq!(op.graph.len(), PosvOp::expected_tasks(nt), "nt={nt}");
            assert_eq!(op.graph.edge_count(), PosvOp::expected_edges(nt), "nt={nt}");
            assert_eq!(op.refs.len(), op.graph.len());
        }
    }

    #[test]
    fn sweep_tail_extends_critical_path() {
        // The sweeps are almost fully sequential: the critical path grows
        // by ~2·nt over POTRF alone.
        let nt = 6;
        let mut reg = DataRegistry::new();
        let posv = build_posv(nt, 8, Precision::Double, &mut reg);
        let mut reg2 = DataRegistry::new();
        let potrf = crate::ops::potrf::build_potrf(nt, 8, Precision::Double, &mut reg2);
        assert!(
            posv.graph.critical_path_len() >= potrf.graph.critical_path_len() + 2 * nt - 2,
            "posv {} vs potrf {}",
            posv.graph.critical_path_len(),
            potrf.graph.critical_path_len()
        );
    }

    #[test]
    fn native_solves_the_system() {
        let nt = 4;
        let nb = 8;
        let a = spd_tiled::<f64>(nt, nb, 101);
        let a0 = a.to_dense();
        let b = random_tiled::<f64>(nt, nb, 102);
        let b0 = b.to_dense();
        let mut reg = DataRegistry::new();
        let op = build_posv(nt, nb, Precision::Double, &mut reg);
        run_posv_native(&op, &a, &b, &op.graph.submission_order()).unwrap();
        // Check A₀·X ≈ B₀ on the first block column.
        let n = nt * nb;
        for j in 0..nb {
            for i in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += a0[(i, k)] * b.get(k, j);
                }
                assert!(
                    (s - b0[(i, j)]).abs() < 1e-7,
                    "residual at ({i},{j}): {}",
                    (s - b0[(i, j)]).abs()
                );
            }
        }
    }

    #[test]
    fn native_single_precision() {
        let a = spd_tiled::<f32>(3, 8, 55);
        let b = random_tiled::<f32>(3, 8, 56);
        let mut reg = DataRegistry::new();
        let op = build_posv(3, 8, Precision::Single, &mut reg);
        run_posv_native(&op, &a, &b, &op.graph.submission_order()).unwrap();
    }

    #[test]
    #[should_panic(expected = "RHS tile shape mismatch")]
    fn short_rhs_panics_before_any_kernel_runs() {
        let a = spd_tiled::<f64>(3, 8, 57);
        let b = random_tiled::<f64>(1, 8, 58);
        let mut reg = DataRegistry::new();
        let op = build_posv(3, 8, Precision::Double, &mut reg);
        let _ = run_posv_native(&op, &a, &b, &op.graph.submission_order());
    }

    #[test]
    fn non_spd_fails() {
        let a = TiledMatrix::<f64>::from_fn(2, 4, |i, j| if i == j { -1.0 } else { 0.0 });
        let b = random_tiled::<f64>(2, 4, 1);
        let mut reg = DataRegistry::new();
        let op = build_posv(2, 4, Precision::Double, &mut reg);
        let err = run_posv_native(&op, &a, &b, &op.graph.submission_order()).unwrap_err();
        assert_eq!(err.pivot, 0);
    }

    #[test]
    fn simulates_on_platform() {
        let mut node = ugpc_hwsim::Node::new(ugpc_hwsim::PlatformId::Amd4A100);
        let mut reg = DataRegistry::new();
        let op = build_posv(10, 2880, Precision::Double, &mut reg);
        let trace = ugpc_runtime::simulate(
            &mut node,
            &op.graph,
            &mut reg,
            ugpc_runtime::SimOptions::default(),
        );
        assert_eq!(trace.cpu_tasks + trace.gpu_tasks, op.graph.len());
        assert!(trace.makespan.value() > 0.0);
    }
}
