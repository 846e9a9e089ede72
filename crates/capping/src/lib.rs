//! # ugpc-capping — power-capping policies
//!
//! The paper's experimental lever: per-GPU cap levels `L`/`B`/`H`
//! ([`config`]), applied through the NVML/RAPL façades ([`policy`]);
//! single-kernel cap sweeps for the motivation study ([`sweep`], Fig. 1 /
//! Table I); and a DEPO-like single-GPU dynamic-capping study from the
//! paper's future-work list ([`dynamic`]).

pub mod config;
pub mod dynamic;
pub mod policy;
pub mod sweep;

pub use config::{BadConfig, CapConfig, CapLevel};
pub use dynamic::{run_dynamic, DynamicRun};
pub use policy::{apply_cpu_cap, apply_gpu_caps, reset_all_caps, resolve_caps};
pub use sweep::{
    best_point, cap_fracs, cap_sweep, sweep_point, table_i_row, try_best_point, SweepPoint,
    TableIRow,
};
