//! Task descriptions: the unit of scheduling.
//!
//! A task applies one tile kernel (GEMM/SYRK/TRSM/POTRF) to a set of data
//! handles with declared access modes, carries an application-assigned
//! priority (Chameleon's expert priorities, §III-C), and may be restricted
//! to a subset of worker classes — like a StarPU codelet with its
//! `cpu_funcs` / `cuda_funcs` arrays.

use crate::data::DataId;
use crate::inline::InlineVec;
use serde::{Deserialize, Serialize};
use ugpc_hwsim::{Bytes, Flops, KernelWork, Precision};

pub type TaskId = usize;

/// The tile kernels used by the paper's two operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum KernelKind {
    /// C ← α·A·B + β·C on nb×nb tiles: 2·nb³ flops.
    Gemm,
    /// C ← α·A·Aᵀ + β·C (symmetric rank-k update): nb³ flops.
    Syrk,
    /// Triangular solve with multiple right-hand sides: nb³ flops.
    Trsm,
    /// Cholesky factorization of a diagonal tile: nb³/3 flops.
    Potrf,
    /// LU factorization (no pivoting) of a diagonal tile: 2·nb³/3 flops.
    Getrf,
}

impl KernelKind {
    pub const ALL: [KernelKind; 5] = [
        KernelKind::Gemm,
        KernelKind::Syrk,
        KernelKind::Trsm,
        KernelKind::Potrf,
        KernelKind::Getrf,
    ];

    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Gemm => "gemm",
            KernelKind::Syrk => "syrk",
            KernelKind::Trsm => "trsm",
            KernelKind::Potrf => "potrf",
            KernelKind::Getrf => "getrf",
        }
    }

    /// Flop count on square `nb × nb` tiles.
    pub fn flops(self, nb: usize) -> Flops {
        let n = nb as f64;
        match self {
            KernelKind::Gemm => Flops(2.0 * n * n * n),
            KernelKind::Syrk => Flops(n * n * (n + 1.0)),
            KernelKind::Trsm => Flops(n * n * n),
            KernelKind::Potrf => Flops(n * n * n / 3.0),
            KernelKind::Getrf => Flops(2.0 * n * n * n / 3.0),
        }
    }

    /// Device-memory traffic on square tiles (tiles touched × nb² elems;
    /// GEMM re-reads C, hence 4).
    pub fn tile_traffic(self, nb: usize, precision: Precision) -> Bytes {
        let n = (nb * nb * precision.elem_bytes()) as f64;
        let tiles = match self {
            KernelKind::Gemm => 4.0,
            KernelKind::Syrk => 3.0,
            KernelKind::Trsm => 3.0,
            KernelKind::Potrf => 2.0,
            KernelKind::Getrf => 2.0,
        };
        Bytes(tiles * n)
    }

    /// Whether Chameleon provides a GPU (cuBLAS) implementation. The
    /// diagonal factorization kernels (POTRF, GETRF) run on CPU (LAPACK),
    /// which is what puts the factorization critical path on the CPUs
    /// (§III-C).
    pub fn gpu_capable(self) -> bool {
        !matches!(self, KernelKind::Potrf | KernelKind::Getrf)
    }

    /// All kernels have CPU implementations.
    pub fn cpu_capable(self) -> bool {
        true
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How a task accesses one of its data handles (StarPU access modes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessMode {
    Read,
    Write,
    ReadWrite,
}

impl AccessMode {
    #[inline]
    pub fn reads(self) -> bool {
        !matches!(self, AccessMode::Write)
    }

    #[inline]
    pub fn writes(self) -> bool {
        !matches!(self, AccessMode::Read)
    }
}

/// A task's operands with their access modes, in codelet argument order.
/// Up to three, the most a tile kernel takes, are stored in the task
/// itself; more spill to the heap.
pub type Operands = InlineVec<(DataId, AccessMode), 3>;

/// One schedulable task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskDesc {
    pub kind: KernelKind,
    pub precision: Precision,
    /// Tile dimension — the performance-model footprint key.
    pub nb: usize,
    /// Application priority; higher runs earlier under sorted schedulers.
    pub priority: i32,
    /// Accessed data handles with modes, in codelet argument order.
    pub data: Operands,
}

impl TaskDesc {
    pub fn new(kind: KernelKind, precision: Precision, nb: usize) -> Self {
        TaskDesc {
            kind,
            precision,
            nb,
            priority: 0,
            data: Operands::new(),
        }
    }

    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    pub fn access(mut self, id: DataId, mode: AccessMode) -> Self {
        self.data.push((id, mode));
        self
    }

    /// Flop count of this task.
    pub fn flops(&self) -> Flops {
        self.kind.flops(self.nb)
    }

    /// The hardware-level footprint of this task's kernel.
    pub fn kernel_work(&self) -> KernelWork {
        KernelWork::new(
            self.flops(),
            self.kind.tile_traffic(self.nb, self.precision),
            self.precision,
        )
    }

    /// Performance-model key: tasks with equal keys are interchangeable
    /// for timing purposes (StarPU's footprint hash).
    pub fn footprint(&self) -> Footprint {
        Footprint {
            kind: self.kind,
            precision: self.precision,
            nb: self.nb,
        }
    }
}

/// Performance-model footprint (StarPU's `starpu_task_footprint`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Footprint {
    pub kind: KernelKind,
    pub precision: Precision,
    pub nb: usize,
}

/// The distinct footprints over `tasks`, ascending, into a caller-owned
/// buffer — the same set, in the same order, a `BTreeSet` collect would
/// produce, without the per-run node allocations.
pub fn distinct_footprints(tasks: &[TaskDesc], out: &mut Vec<Footprint>) {
    out.clear();
    out.extend(tasks.iter().map(TaskDesc::footprint));
    out.sort_unstable();
    out.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_flop_counts() {
        assert_eq!(KernelKind::Gemm.flops(100), Flops(2e6));
        assert_eq!(KernelKind::Trsm.flops(100), Flops(1e6));
        assert_eq!(KernelKind::Potrf.flops(100), Flops(1e6 / 3.0));
        assert_eq!(KernelKind::Getrf.flops(100), Flops(2e6 / 3.0));
        assert_eq!(KernelKind::Syrk.flops(100), Flops(100.0 * 100.0 * 101.0));
    }

    #[test]
    fn only_diagonal_factorizations_are_cpu_bound() {
        assert!(!KernelKind::Potrf.gpu_capable());
        assert!(!KernelKind::Getrf.gpu_capable());
        assert!(KernelKind::Gemm.gpu_capable());
        assert!(KernelKind::Syrk.gpu_capable());
        assert!(KernelKind::Trsm.gpu_capable());
        for k in KernelKind::ALL {
            assert!(k.cpu_capable());
        }
    }

    #[test]
    fn access_mode_semantics() {
        assert!(AccessMode::Read.reads() && !AccessMode::Read.writes());
        assert!(!AccessMode::Write.reads() && AccessMode::Write.writes());
        assert!(AccessMode::ReadWrite.reads() && AccessMode::ReadWrite.writes());
    }

    #[test]
    fn task_builder() {
        let t = TaskDesc::new(KernelKind::Gemm, Precision::Double, 2880)
            .with_priority(7)
            .access(0, AccessMode::Read)
            .access(1, AccessMode::Read)
            .access(2, AccessMode::ReadWrite);
        assert_eq!(t.priority, 7);
        assert_eq!(t.data.len(), 3);
        assert_eq!(t.flops(), Flops(2.0 * 2880.0f64.powi(3)));
        let w = t.kernel_work();
        assert_eq!(w.precision, Precision::Double);
        assert_eq!(w.bytes, Bytes(4.0 * 2880.0 * 2880.0 * 8.0));
    }

    #[test]
    fn footprints_group_interchangeable_tasks() {
        let a =
            TaskDesc::new(KernelKind::Gemm, Precision::Double, 2880).access(0, AccessMode::Read);
        let b =
            TaskDesc::new(KernelKind::Gemm, Precision::Double, 2880).access(5, AccessMode::Write);
        assert_eq!(a.footprint(), b.footprint());
        let c = TaskDesc::new(KernelKind::Gemm, Precision::Single, 2880);
        assert_ne!(a.footprint(), c.footprint());
        let d = TaskDesc::new(KernelKind::Gemm, Precision::Double, 1440);
        assert_ne!(a.footprint(), d.footprint());
    }
}
