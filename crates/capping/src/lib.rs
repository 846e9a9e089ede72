//! # ugpc-capping — power-capping policies
//!
//! The paper's experimental lever: per-GPU cap levels `L`/`B`/`H`
//! ([`config`]), applied through the NVML/RAPL façades ([`policy`]);
//! and single-kernel cap sweeps for the motivation study ([`sweep`],
//! Fig. 1 / Table I). The dynamic-capping drivers from the paper's
//! future-work list live in `ugpc-control` (single GPU) and `ugpc-core`
//! (whole node).

pub mod config;
pub mod policy;
pub mod sweep;

pub use config::{BadConfig, CapConfig, CapLevel};
pub use policy::{apply_cpu_cap, apply_gpu_caps, resolve_caps};
pub use sweep::{
    best_point, cap_fracs, cap_sweep, sweep_point, table_i_row, try_best_point, SweepPoint,
    TableIRow,
};
