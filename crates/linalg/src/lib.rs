//! # ugpc-linalg — Chameleon-like tiled dense linear algebra
//!
//! The application layer of the reproduction (§III-C): dense matrices are
//! split into `nb × nb` tiles; the two operations the paper evaluates —
//! matrix multiplication (GEMM) and Cholesky factorization (POTRF) — are
//! expressed as task graphs over those tiles with Chameleon-style expert
//! priorities, and can be
//!
//! * handed to the virtual-time simulator (`ugpc_runtime::simulate`) for
//!   the energy experiments, or
//! * run with the real reference kernels in [`kernels`], one task at a
//!   time in any topological order (`ugpc_runtime::execute_in_order`),
//!   which is how numerical correctness is validated: every order must
//!   give the same bits.

pub mod kernels;
pub mod matrix;
pub mod ops;
pub mod scalar;
pub mod tile;
pub mod verify;

pub use kernels::{
    gemm, getrf_nopiv, potrf_lower, syrk_lower, trsm_right_lower_trans, NotSpd, Trans, ZeroPivot,
};
pub use matrix::TiledMatrix;
pub use ops::refine::{posv_refine_native, RefineStats};
pub use ops::{
    build_gemm, build_getrf, build_posv, build_potrf, run_gemm_native, run_getrf_native,
    run_posv_native, run_potrf_native, GemmOp, GetrfOp, PosvOp, PotrfOp,
};
pub use scalar::Scalar;
pub use tile::Tile;
pub use verify::{dd_tiled, gemm_residual, potrf_residual, random_tiled, spd_tiled};
