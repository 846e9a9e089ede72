//! The executor event stream: every state change an executor makes is
//! emitted as a typed [`ExecEvent`] through the [`Observer`] trait, and
//! every run-level surface — the [`RunTrace`](crate::trace::RunTrace)
//! aggregates, Perfetto exports, power timelines, progress meters — is an
//! observer over that stream instead of counters threaded through the hot
//! loop.
//!
//! The simulator ([`crate::sim`]) emits the stream with virtual
//! timestamps.
//!
//! ## Observer neutrality
//!
//! Observers are *read-only witnesses*: they receive each event by
//! reference after the executor has already committed the corresponding
//! state change, and nothing they do can feed back into virtual time,
//! scheduling decisions, or device state. The observer-determinism
//! differential test (`tests/observer_differential.rs`) pins this down:
//! a run with zero observers, with only the `TraceBuilder`, and with
//! every sink attached must produce bit-identical results.

use crate::data::{DataId, MemNode};
use crate::graph::TaskGraph;
use crate::sim::SimOptions;
use crate::task::{KernelKind, TaskId};
use crate::worker::Worker;
use crate::worker::WorkerId;
use serde::{Deserialize, Serialize};
use ugpc_hwsim::{Bytes, EnergyReading, Flops, Joules, Precision, Secs, Watts};

/// One executor event. Timestamps are virtual seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecEvent {
    /// The scheduler committed `task` to `worker`'s queue at time `at`.
    TaskAssigned {
        task: TaskId,
        worker: WorkerId,
        at: Secs,
    },
    /// `task` began executing on `worker`.
    TaskStart {
        task: TaskId,
        worker: WorkerId,
        at: Secs,
    },
    /// `task` finished on `worker`, with everything a sink needs to
    /// describe it without holding a graph reference.
    TaskEnd {
        task: TaskId,
        worker: WorkerId,
        start: Secs,
        end: Secs,
        /// Raw device duration. `end - start` re-rounds in f64, so any
        /// busy-time accounting that must match the executor bit-for-bit
        /// has to accumulate this, not the difference.
        duration: Secs,
        kind: KernelKind,
        precision: Precision,
        nb: usize,
        priority: i32,
        flops: Flops,
        energy: Joules,
    },
    /// A DMA engine began copying an operand replica.
    TransferStart {
        data: DataId,
        src: MemNode,
        dst: MemNode,
        bytes: Bytes,
        at: Secs,
    },
    /// The copy completed (committed at planning time: both endpoints are
    /// known the moment the engine is reserved).
    TransferEnd {
        data: DataId,
        src: MemNode,
        dst: MemNode,
        bytes: Bytes,
        start: Secs,
        end: Secs,
    },
    /// LRU eviction dropped `data`'s replica from `device`'s memory.
    Eviction {
        data: DataId,
        device: usize,
        at: Secs,
    },
    /// The evicted replica was the sole valid copy: a device-to-host
    /// writeback occupies the d2h engine over `[start, end]`.
    Writeback {
        data: DataId,
        device: usize,
        bytes: Bytes,
        start: Secs,
        end: Secs,
    },
    /// The observed execution fed the history performance model.
    ModelRefine {
        task: TaskId,
        worker: WorkerId,
        observed: Secs,
        energy: Joules,
        at: Secs,
    },
    /// Average power drawn by `worker`'s device while the task ran (GPU:
    /// whole-device power; CPU: that core's share of package power).
    PowerSample {
        worker: WorkerId,
        start: Secs,
        end: Secs,
        power: Watts,
    },
}

/// What an observer learns before the first event: the worker topology,
/// the graph being run, the executor options, and the per-GPU idle power
/// (the baseline under any power timeline). Borrowed only for the
/// duration of [`Observer::on_start`] — copy out what you need.
pub struct RunContext<'a> {
    pub workers: &'a [Worker],
    pub graph: &'a TaskGraph,
    pub options: SimOptions,
    /// Idle power per GPU device.
    pub gpu_idle: &'a [Watts],
}

/// The run-level outcome handed to [`Observer::on_finish`]: the makespan
/// is still computed by the executor (it owns the worker-drain state the
/// energy probe needs), observers copy it rather than re-deriving it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    pub makespan: Secs,
    pub energy: EnergyReading,
}

/// A sink over the executor event stream. All methods default to no-ops
/// so sinks implement only what they consume.
pub trait Observer {
    fn on_start(&mut self, _ctx: &RunContext<'_>) {}
    fn on_event(&mut self, _event: &ExecEvent) {}
    fn on_finish(&mut self, _summary: &RunSummary) {}
}

/// Dispatch one event to every attached observer.
pub(crate) fn emit(observers: &mut [&mut dyn Observer], event: &ExecEvent) {
    for o in observers.iter_mut() {
        o.on_event(event);
    }
}

/// An observer that records the raw stream — the differential tests
/// compare these across observer configurations.
#[derive(Debug, Default)]
pub struct EventLog {
    pub events: Vec<ExecEvent>,
    pub summary: Option<RunSummary>,
}

impl EventLog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Task ids in completion order.
    pub fn completions(&self) -> Vec<TaskId> {
        self.events
            .iter()
            .filter_map(|e| match e {
                ExecEvent::TaskEnd { task, .. } => Some(*task),
                _ => None,
            })
            .collect()
    }

    /// Event-order fold of every `TaskEnd` raw `duration`. Any observer
    /// accumulating busy time with `+=` over the same stream produces
    /// this value bit-for-bit (f64 addition in identical order).
    pub fn busy_time(&self) -> Secs {
        let mut total = Secs::ZERO;
        for e in &self.events {
            if let ExecEvent::TaskEnd { duration, .. } = e {
                total += *duration;
            }
        }
        total
    }

    /// Event-order fold of every `TaskEnd` task energy (the busy joules,
    /// excluding idle floor power). Bit-for-bit reference for energy
    /// attribution, like [`EventLog::busy_time`].
    pub fn busy_energy(&self) -> Joules {
        let mut total = Joules::ZERO;
        for e in &self.events {
            if let ExecEvent::TaskEnd { energy, .. } = e {
                total += *energy;
            }
        }
        total
    }
}

impl Observer for EventLog {
    fn on_event(&mut self, event: &ExecEvent) {
        self.events.push(*event);
    }

    fn on_finish(&mut self, summary: &RunSummary) {
        self.summary = Some(summary.clone());
    }
}

/// Serializable run-level counters derived from the stream: the transfer
/// and memory-pressure breakdown the aggregate `RunTrace` never carried.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecStats {
    /// Tasks completed.
    pub tasks: usize,
    pub cpu_tasks: usize,
    pub gpu_tasks: usize,
    /// Operand transfers (each hop of a staged copy counts once).
    pub transfers: usize,
    /// Bytes moved by operand transfers.
    pub transferred: Bytes,
    /// Replicas dropped from GPU memory to make room.
    pub evictions: usize,
    /// Evictions of sole owners that required a d2h writeback.
    pub writebacks: usize,
    /// Bytes written back to host by evictions.
    pub written_back: Bytes,
    /// Observations fed to the history performance model.
    pub refinements: usize,
}

/// The observer that accumulates [`ExecStats`] (kept separate so the
/// stats struct serializes without observer bookkeeping).
#[derive(Debug, Default)]
pub struct StatsCollector {
    stats: ExecStats,
    gpu_worker: Vec<bool>,
}

impl StatsCollector {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    pub fn into_stats(self) -> ExecStats {
        self.stats
    }
}

impl Observer for StatsCollector {
    fn on_start(&mut self, ctx: &RunContext<'_>) {
        self.gpu_worker = ctx.workers.iter().map(Worker::is_gpu).collect();
    }

    fn on_event(&mut self, event: &ExecEvent) {
        let s = &mut self.stats;
        match *event {
            ExecEvent::TaskEnd { worker, .. } => {
                s.tasks += 1;
                if self.gpu_worker.get(worker).copied().unwrap_or(false) {
                    s.gpu_tasks += 1;
                } else {
                    s.cpu_tasks += 1;
                }
            }
            ExecEvent::TransferEnd { bytes, .. } => {
                s.transfers += 1;
                s.transferred += bytes;
            }
            ExecEvent::Eviction { .. } => s.evictions += 1,
            ExecEvent::Writeback { bytes, .. } => {
                s.writebacks += 1;
                s.written_back += bytes;
            }
            ExecEvent::ModelRefine { .. } => s.refinements += 1,
            _ => {}
        }
    }
}

/// A progress meter for long interactive runs: prints one stderr line
/// every `every` completed tasks. Purely cosmetic — attach it to the CLI,
/// never to anything whose output is compared.
#[derive(Debug)]
pub struct Progress {
    every: usize,
    done: usize,
    total: usize,
}

impl Progress {
    pub fn every(every: usize) -> Self {
        Progress {
            every: every.max(1),
            done: 0,
            total: 0,
        }
    }
}

impl Observer for Progress {
    fn on_start(&mut self, ctx: &RunContext<'_>) {
        self.total = ctx.graph.len();
    }

    fn on_event(&mut self, event: &ExecEvent) {
        if let ExecEvent::TaskEnd { .. } = event {
            self.done += 1;
            if self.done.is_multiple_of(self.every) || self.done == self.total {
                eprintln!("[progress] {}/{} tasks", self.done, self.total);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::DataRegistry;
    use crate::sim::{simulate_observed, SimOptions};
    use crate::task::{AccessMode, TaskDesc};
    use crate::PerfModel;
    use ugpc_hwsim::{Node, PlatformId};

    fn run_with(observers: &mut [&mut dyn Observer]) -> RunSummary {
        let mut node = Node::new(PlatformId::Intel2V100);
        let mut data = DataRegistry::new();
        let mut g = TaskGraph::new();
        let t = data.register(Bytes(8.0 * 960.0 * 960.0));
        for _ in 0..4 {
            g.submit(
                TaskDesc::new(KernelKind::Gemm, Precision::Double, 960)
                    .access(t, AccessMode::ReadWrite),
            );
        }
        let mut perf = PerfModel::new();
        simulate_observed(
            &mut node,
            &g,
            &mut data,
            SimOptions::default(),
            &mut perf,
            observers,
        )
    }

    #[test]
    fn event_log_sees_lifecycle_in_order() {
        let mut log = EventLog::new();
        {
            let mut obs: [&mut dyn Observer; 1] = [&mut log];
            run_with(&mut obs);
        }
        assert_eq!(log.completions().len(), 4);
        // Per task: assigned, then started, then ended — in stream order.
        for task in 0..4 {
            let idx = |pred: &dyn Fn(&ExecEvent) -> bool| {
                log.events.iter().position(pred).expect("event")
            };
            let a = idx(&|e| matches!(e, ExecEvent::TaskAssigned { task: t, .. } if *t == task));
            let s = idx(&|e| matches!(e, ExecEvent::TaskStart { task: t, .. } if *t == task));
            let e = idx(&|e| matches!(e, ExecEvent::TaskEnd { task: t, .. } if *t == task));
            assert!(a < s && s < e, "task {task}: {a} {s} {e}");
        }
        assert!(log.summary.is_some());
    }

    #[test]
    fn stats_collector_counts_stream() {
        let mut stats = StatsCollector::new();
        {
            let mut obs: [&mut dyn Observer; 1] = [&mut stats];
            run_with(&mut obs);
        }
        let s = stats.into_stats();
        assert_eq!(s.tasks, 4);
        assert_eq!(s.cpu_tasks + s.gpu_tasks, 4);
        // The chain shares one tile: at most one fetch is needed.
        assert!(s.transfers >= 1);
        assert!(s.transferred > Bytes::ZERO);
        assert_eq!(s.refinements, 4);
    }

    #[test]
    fn exec_stats_round_trips_through_json() {
        let mut stats = StatsCollector::new();
        {
            let mut obs: [&mut dyn Observer; 1] = [&mut stats];
            run_with(&mut obs);
        }
        let s = stats.into_stats();
        let json = serde_json::to_string(&s).expect("serialize");
        let back: ExecStats = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, s);
    }

    #[test]
    fn observers_share_one_stream() {
        let mut log = EventLog::new();
        let mut stats = StatsCollector::new();
        {
            let mut obs: [&mut dyn Observer; 2] = [&mut log, &mut stats];
            run_with(&mut obs);
        }
        assert_eq!(stats.stats().tasks, log.completions().len());
    }
}
