//! Tiled operations: DAG builders plus drivers that run the real kernels
//! in a given task order.

pub mod gemm;
pub mod getrf;
pub mod posv;
pub mod potrf;
pub mod refine;

pub use gemm::{build_gemm, run_gemm_native, GemmOp, GemmTaskRef};
pub use getrf::{build_getrf, run_getrf_native, GetrfOp, GetrfTaskRef};
pub use posv::{build_posv, run_posv_native, PosvOp, PosvTaskRef};
pub use potrf::{build_potrf, run_potrf_native, PotrfOp, PotrfTaskRef};
pub use refine::{posv_refine_native, RefineStats};
