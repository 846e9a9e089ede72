//! The tiled GEMM operation: `C ← A·B + C` as a task graph.
//!
//! The DAG contains `nt²·nt` identical compute-intensive GEMM tasks: for
//! each C tile, a chain of `nt` rank-`nb` updates serialized by the
//! ReadWrite access on that tile. All tasks carry equal priority — the
//! parallelism (`nt²` independent chains) is what the paper calls
//! "representative of numerous other HPC applications" (§III-C).

use crate::kernels::gemm::{gemm, Trans};
use crate::matrix::TiledMatrix;
use crate::scalar::Scalar;
use std::convert::Infallible;
use ugpc_hwsim::Precision;
use ugpc_runtime::{
    execute_in_order, AccessMode, DataId, DataRegistry, KernelKind, TaskDesc, TaskGraph, TaskId,
};

/// Task coordinates: update `C[i][j] += A[i][k] · B[k][j]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmTaskRef {
    pub i: usize,
    pub j: usize,
    pub k: usize,
}

/// A built tiled-GEMM operation: the graph plus the bookkeeping needed to
/// execute it (task coordinates, data-handle grids).
pub struct GemmOp {
    pub nt: usize,
    pub nb: usize,
    pub precision: Precision,
    pub graph: TaskGraph,
    /// Column-major grids of handles for A, B, C (simulation).
    pub a: Vec<DataId>,
    pub b: Vec<DataId>,
    pub c: Vec<DataId>,
    /// Task id → tile coordinates.
    pub refs: Vec<GemmTaskRef>,
}

impl GemmOp {
    /// Useful flops of the whole operation (2·n³ with n = nt·nb).
    pub fn total_flops(&self) -> ugpc_hwsim::Flops {
        let n = (self.nt * self.nb) as f64;
        ugpc_hwsim::Flops(2.0 * n * n * n)
    }

    /// Edge count: nt² chains of nt updates, nt²·(nt−1) edges.
    pub fn expected_edges(nt: usize) -> usize {
        nt * nt * (nt - 1)
    }
}

/// Build the `C ← A·B + C` task graph on an `nt × nt` tile grid.
pub fn build_gemm(nt: usize, nb: usize, precision: Precision, reg: &mut DataRegistry) -> GemmOp {
    assert!(nt > 0 && nb > 0);
    let bytes = ugpc_hwsim::Bytes((nb * nb * precision.elem_bytes()) as f64);
    reg.reserve(3 * nt * nt);
    let grid = |reg: &mut DataRegistry| -> Vec<DataId> {
        (0..nt * nt).map(|_| reg.register(bytes)).collect()
    };
    let a = grid(reg);
    let b = grid(reg);
    let c = grid(reg);
    let at = |g: &[DataId], i: usize, j: usize| g[i + j * nt];

    let edges = GemmOp::expected_edges(nt);
    let mut graph = TaskGraph::with_capacity(nt * nt * nt, edges, reg.len());
    let mut refs = Vec::with_capacity(nt * nt * nt);
    for j in 0..nt {
        for i in 0..nt {
            for k in 0..nt {
                graph.submit(
                    TaskDesc::new(KernelKind::Gemm, precision, nb)
                        .access(at(&a, i, k), AccessMode::Read)
                        .access(at(&b, k, j), AccessMode::Read)
                        .access(at(&c, i, j), AccessMode::ReadWrite),
                );
                refs.push(GemmTaskRef { i, j, k });
            }
        }
    }
    debug_assert_eq!(graph.edge_count(), edges, "GEMM nt {nt}");
    graph.seal();
    GemmOp {
        nt,
        nb,
        precision,
        graph,
        a,
        b,
        c,
        refs,
    }
}

/// Execute the operation with the real kernels, one task at a time in
/// `order` (see [`execute_in_order`]): `c ← a·b + c`.
pub fn run_gemm_native<T: Scalar>(
    op: &GemmOp,
    a: &TiledMatrix<T>,
    b: &TiledMatrix<T>,
    c: &TiledMatrix<T>,
    order: &[TaskId],
) {
    assert_eq!(T::precision(), op.precision, "scalar type mismatch");
    for (name, m) in [("A", a), ("B", b), ("C", c)] {
        assert!(
            m.nt() == op.nt && m.nb() == op.nb,
            "{name} tile shape mismatch: nt {} nb {}, operation nt {} nb {}",
            m.nt(),
            m.nb(),
            op.nt,
            op.nb
        );
    }
    execute_in_order(&op.graph, order, |tid| {
        let GemmTaskRef { i, j, k } = op.refs[tid];
        let a_ik = a.tile_clone(i, k);
        let b_kj = b.tile_clone(k, j);
        let mut c_ij = c.tile(i, j);
        gemm(
            Trans::No,
            Trans::No,
            T::ONE,
            &a_ik,
            &b_kj,
            T::ONE,
            &mut c_ij,
        );
        Ok::<(), Infallible>(())
    })
    .unwrap_or_else(|never| match never {});
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_shape() {
        let mut reg = DataRegistry::new();
        let op = build_gemm(4, 32, Precision::Double, &mut reg);
        // nt³ tasks, nt² chains of length nt ⇒ nt²·(nt−1) edges.
        assert_eq!(op.graph.len(), 64);
        assert_eq!(op.graph.edge_count(), 16 * 3);
        assert_eq!(GemmOp::expected_edges(4), 16 * 3);
        assert_eq!(op.graph.roots().len(), 16);
        assert_eq!(op.graph.critical_path_len(), 4);
        assert_eq!(reg.len(), 3 * 16);
    }

    #[test]
    fn all_tasks_are_gemm_with_equal_priority() {
        let mut reg = DataRegistry::new();
        let op = build_gemm(3, 16, Precision::Single, &mut reg);
        for t in op.graph.tasks() {
            assert_eq!(t.kind, KernelKind::Gemm);
            assert_eq!(t.priority, 0);
            assert_eq!(t.precision, Precision::Single);
        }
        assert_eq!(op.refs.len(), 27);
    }

    #[test]
    fn total_flops_matches_formula() {
        let mut reg = DataRegistry::new();
        let op = build_gemm(4, 32, Precision::Double, &mut reg);
        // Sum of task flops equals 2·(nt·nb)³.
        assert!((op.graph.total_flops().value() - op.total_flops().value()).abs() < 1.0);
    }

    #[test]
    fn native_matches_dense_reference() {
        let nt = 3;
        let nb = 8;
        let mut reg = DataRegistry::new();
        let op = build_gemm(nt, nb, Precision::Double, &mut reg);
        let a = TiledMatrix::<f64>::from_fn(nt, nb, |i, j| ((i * 31 + j * 17) % 7) as f64 - 3.0);
        let b = TiledMatrix::<f64>::from_fn(nt, nb, |i, j| ((i * 13 + j * 5) % 5) as f64 - 2.0);
        let c = TiledMatrix::<f64>::from_fn(nt, nb, |i, j| ((i + j) % 3) as f64);
        let c0 = c.to_dense();
        run_gemm_native(&op, &a, &b, &c, &op.graph.submission_order());

        // Dense reference.
        let mut want = c0;
        gemm(
            Trans::No,
            Trans::No,
            1.0,
            &a.to_dense(),
            &b.to_dense(),
            1.0,
            &mut want,
        );
        assert!(
            c.to_dense().max_abs_diff(&want) < 1e-10,
            "diff {}",
            c.to_dense().max_abs_diff(&want)
        );
    }

    #[test]
    fn native_single_precision() {
        let mut reg = DataRegistry::new();
        let op = build_gemm(2, 4, Precision::Single, &mut reg);
        let a = TiledMatrix::<f32>::from_fn(2, 4, |i, _| i as f32);
        let b = TiledMatrix::<f32>::from_fn(2, 4, |_, j| j as f32);
        let c = TiledMatrix::<f32>::zeros(2, 4);
        run_gemm_native(&op, &a, &b, &c, &op.graph.submission_order());
        let mut want = Tile::zeros(8);
        gemm(
            Trans::No,
            Trans::No,
            1.0f32,
            &a.to_dense(),
            &b.to_dense(),
            0.0,
            &mut want,
        );
        assert!(c.to_dense().max_abs_diff(&want) < 1e-3);
    }

    use crate::tile::Tile;

    #[test]
    #[should_panic(expected = "scalar type mismatch")]
    fn precision_mismatch_panics() {
        let mut reg = DataRegistry::new();
        let op = build_gemm(2, 4, Precision::Double, &mut reg);
        let a = TiledMatrix::<f32>::zeros(2, 4);
        let b = TiledMatrix::<f32>::zeros(2, 4);
        let c = TiledMatrix::<f32>::zeros(2, 4);
        run_gemm_native(&op, &a, &b, &c, &op.graph.submission_order());
    }

    #[test]
    #[should_panic(expected = "B tile shape mismatch")]
    fn short_b_panics_before_any_kernel_runs() {
        let mut reg = DataRegistry::new();
        let op = build_gemm(3, 4, Precision::Double, &mut reg);
        let a = TiledMatrix::<f64>::zeros(3, 4);
        let b = TiledMatrix::<f64>::zeros(2, 4);
        let c = TiledMatrix::<f64>::zeros(3, 4);
        run_gemm_native(&op, &a, &b, &c, &op.graph.submission_order());
    }

    #[test]
    #[should_panic(expected = "C tile shape mismatch")]
    fn wrong_c_tile_size_panics_before_any_kernel_runs() {
        let mut reg = DataRegistry::new();
        let op = build_gemm(2, 4, Precision::Double, &mut reg);
        let a = TiledMatrix::<f64>::zeros(2, 4);
        let b = TiledMatrix::<f64>::zeros(2, 4);
        let c = TiledMatrix::<f64>::zeros(2, 8);
        run_gemm_native(&op, &a, &b, &c, &op.graph.submission_order());
    }
}
