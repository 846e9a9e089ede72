//! # ugpc-runtime — a StarPU-like task-based runtime system
//!
//! The software layer the paper builds on (§III): applications submit a
//! DAG of tile tasks with data access modes and priorities; the runtime
//! infers dependencies, calibrates per-worker history performance models,
//! and schedules across CPU cores and GPUs.
//!
//! Graphs run in two ways:
//!
//! * [`sim`] — a deterministic virtual-time executor over the simulated
//!   node of `ugpc-hwsim`, with DMA transfer engines and exact energy
//!   integration. All paper experiments run here.
//! * [`execute_in_order`] — a serial loop that runs a kernel per task in a
//!   caller-chosen topological order. `ugpc-linalg` runs its real tile
//!   kernels through it to check that every order the graph admits,
//!   the simulator's dispatch order among them, computes the same bits.
//!
//! Schedulers ([`sched`]) cover StarPU's published family: `eager`,
//! `random`, `dm`, `dmda`, and the paper's `dmdas`, plus an energy-aware
//! extension from the paper's future-work list.
//!
//! The simulator reports through one typed event stream ([`observer`]):
//! run statistics ([`trace::TraceBuilder`]), Perfetto/Chrome exports
//! ([`export::PerfettoSink`]), per-device power timelines ([`timeline`]),
//! and progress/stats meters are all observers over that stream.

pub mod arena;
pub mod control;
pub mod data;
pub mod des;
pub mod export;
pub mod graph;
pub mod inline;
pub mod memory;
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
pub use graph::{execute_in_order, TaskGraph};
pub use memory::GpuMemory;
pub use observer::{
    EventLog, ExecEvent, ExecStats, Observer, Progress, RunContext, RunSummary, StatsCollector,
};
pub use perfmodel::PerfModel;
pub use sched::{Choice, SchedPolicy, SchedView, Scheduler};
pub use sim::{simulate, simulate_controlled, simulate_observed, SimOptions};
pub use task::{distinct_footprints, AccessMode, Footprint, KernelKind, TaskDesc, TaskId};
pub use timeline::{PowerProfile, PowerTimeline};
pub use trace::{RunTrace, TaskRecord, TraceBuilder};
pub use worker::{build_workers, build_workers_into, Worker, WorkerId, WorkerKind};
