//! # ugpc — unbalanced GPU power capping for task-based HPC
//!
//! A full-stack, laptop-runnable reproduction of *"Improving energy
//! efficiency of HPC applications using unbalanced GPU power capping"*
//! (d'Aviau de Piolant et al., 2025): a simulated heterogeneous node
//! (NVML/RAPL-faithful GPU and CPU power models), a StarPU-like task
//! runtime with calibrated history performance models and the dm/dmda/
//! dmdas scheduler family, a Chameleon-like tiled linear algebra layer,
//! power-capping policies, and a harness regenerating every table and
//! figure of the paper.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`hwsim`] — hardware substrate (devices, DVFS, NVML, RAPL, platforms)
//! * [`runtime`] — task graphs, schedulers, virtual-time & native executors
//! * [`linalg`] — tiled GEMM / Cholesky with real reference kernels
//! * [`capping`] — L/B/H cap configurations, sweeps, a single-GPU
//!   dynamic-capping study
//! * [`control`] — online sweet-spot capping: sensor windows, pluggable
//!   objectives (Gflop/s/W, EDP, ED²P, perf-floor), mid-run re-cap events
//! * [`experiments`] — per-figure/table reproduction runners
//! * [`serve`] — concurrent TCP simulation service with a content-addressed
//!   result cache, bounded worker pool, client, and load generator
//! * [`telemetry`] — metrics registry with Prometheus exposition,
//!   trace-context propagation, structured JSON logging, and the
//!   critical-path energy-attribution profiler
//! * the top-level [`RunConfig`] / [`run_study`] API from `ugpc-core`,
//!   with [`try_run_study_with`] as the one fallible entry point behind
//!   every study variant (traced, profiled, controlled, explicit caps)
//!
//! ## Quickstart
//!
//! ```
//! use ugpc::prelude::*;
//!
//! // The paper's headline: capping all four A100s to their best-efficiency
//! // power improves Gflop/s/W at a tolerable slowdown.
//! let base = RunConfig::paper(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double)
//!     .scaled_down(4);
//! let hhhh = run_study(&base);
//! let bbbb = run_study(&base.clone().with_gpu_config("BBBB".parse().unwrap()));
//! assert!(bbbb.efficiency_gflops_w > hhhh.efficiency_gflops_w);
//! ```

pub use ugpc_capping as capping;
pub use ugpc_control as control;
pub use ugpc_experiments as experiments;
pub use ugpc_hwsim as hwsim;
pub use ugpc_linalg as linalg;
pub use ugpc_runtime as runtime;
pub use ugpc_serve as serve;
pub use ugpc_telemetry as telemetry;

pub use ugpc_core::{
    compare, dynamic_vs_static_oracle, run_dynamic_study, run_study, run_study_traced,
    try_run_study, try_run_study_traced, try_run_study_with, CacheKey, Comparison, ControlOutcome,
    ControlledRun, DynamicIteration, DynamicStudyReport, InvalidConfig, ProfiledRun, RunConfig,
    RunReport, Study, StudyOptions, TracedRun,
};

/// Everything most programs need.
pub mod prelude {
    pub use crate::{compare, run_study, Comparison, RunConfig, RunReport};
    pub use ugpc_capping::{CapConfig, CapLevel};
    pub use ugpc_hwsim::{GpuModel, Node, Nvml, OpKind, PlatformId, Precision, Secs, Watts};
    pub use ugpc_runtime::SchedPolicy;
}
