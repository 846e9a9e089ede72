//! # ugpc-runtime — a StarPU-like task-based runtime system
//!
//! The software layer the paper builds on (§III): applications submit a
//! DAG of tile tasks with data access modes and priorities; the runtime
//! infers dependencies, calibrates per-worker history performance models,
//! and schedules across CPU cores and GPUs.
//!
//! Two executors share the same graphs and schedulers:
//!
//! * [`sim`] — a deterministic virtual-time executor over the simulated
//!   node of `ugpc-hwsim`, with DMA transfer engines and exact energy
//!   integration. All paper experiments run here.
//! * [`native`] — a crossbeam work-stealing executor that runs the same
//!   DAGs on real host threads with real kernels, validating that the
//!   dependency machinery executes correctly (not just in virtual time).
//!
//! Schedulers ([`sched`]) cover StarPU's published family: `eager`,
//! `random`, `dm`, `dmda`, and the paper's `dmdas`, plus an energy-aware
//! extension from the paper's future-work list.
//!
//! Both executors report through one typed event stream ([`observer`]):
//! run statistics ([`trace::TraceBuilder`]), Perfetto/Chrome exports
//! ([`export::PerfettoSink`]), per-device power timelines ([`timeline`]),
//! and progress/stats meters are all observers over that stream.

pub mod arena;
pub mod control;
pub mod data;
pub mod des;
pub mod export;
pub mod graph;
pub mod memory;
pub mod native;
pub mod observer;
pub mod perfmodel;
pub mod sched;
pub mod sim;
pub mod task;
pub mod timeline;
pub mod trace;
pub mod worker;

pub use arena::{with_run_arena, RunArena};
pub use control::{ControlDecision, ControlHook, RecapEvent, SimEvent};
pub use data::{DataId, DataRegistry, MemNode};
pub use des::{EventQueue, QueueBackend};
pub use export::PerfettoSink;
pub use graph::TaskGraph;
pub use memory::GpuMemory;
pub use native::{NativeExecutor, NativeStats};
pub use observer::{
    EventLog, ExecEvent, ExecStats, Observer, Progress, RunContext, RunSummary, StatsCollector,
};
pub use perfmodel::PerfModel;
pub use sched::{SchedPolicy, SchedView, Scheduler};
pub use sim::{simulate, simulate_controlled, simulate_observed, SimOptions};
pub use task::{distinct_footprints, AccessMode, Footprint, KernelKind, TaskDesc, TaskId};
pub use timeline::{PowerProfile, PowerTimeline};
pub use trace::{RunTrace, TaskRecord, TraceBuilder};
pub use worker::{build_workers, build_workers_into, Worker, WorkerId, WorkerKind};
