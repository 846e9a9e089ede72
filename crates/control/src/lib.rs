//! # ugpc-control — online sweet-spot capping
//!
//! The paper's Table II finds each workload's best cap (`P_best`) by an
//! *offline* sweep: run the whole factorization once per candidate cap,
//! pick the winner. This crate closes the loop *online*: a controller
//! rides the live execution event stream, measures windowed
//! work/energy/time per device, scores each window under a pluggable
//! [`Objective`], and re-caps devices mid-run via the executors'
//! [`ControlHook`](ugpc_runtime::ControlHook) seam — discovering the
//! sweet spot during the run it is optimizing.
//!
//! Layering:
//!
//! - [`sensor::SensorHub`] — windowed per-device accumulators over
//!   [`ExecEvent`](ugpc_runtime::ExecEvent)s (flops, kernel energy, busy
//!   time, queue depth).
//! - [`objective`] — higher-is-better scoring rules: Gflop/s/W, EDP,
//!   ED²P, perf-floor-constrained efficiency; all behind the
//!   [`Objective`] trait with a typed [`ObjectiveValue`] score.
//! - [`capper::DynamicCapper`] — the per-device hill-climb, also behind
//!   the single-GPU epoch loop [`run_dynamic`] and `ugpc-core`'s
//!   between-iteration study.
//! - [`plane::ControlPlane`] — the
//!   [`ControlHook`](ugpc_runtime::ControlHook) implementation tying it
//!   together, configured by a serializable [`ControllerSpec`].
//!
//! Determinism contract: decisions depend only on event payloads and
//! virtual timestamps — never wall clock or ambient randomness — so a
//! controlled run is byte-reproducible across `--jobs N` and both DES
//! queue backends, and a quiescent controller (disabled, or converged at
//! the current caps) leaves the run byte-identical to an uncontrolled
//! one.

pub mod capper;
pub mod objective;
pub mod plane;
pub mod sensor;

pub use capper::{run_dynamic, CapperStep, Comparison, DynamicCapper, DynamicRun};
pub use objective::{
    Ed2p, Edp, GflopsPerWatt, Objective, ObjectiveKind, ObjectiveValue, PerfFloor, WindowMetrics,
};
pub use plane::{ControlPlane, ControllerSpec, DecisionRecord, GateReason, TickRecord};
pub use sensor::SensorHub;
