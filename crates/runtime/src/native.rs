//! Native threaded execution of a task graph.
//!
//! The virtual-time executor ([`crate::sim`]) answers "what would this run
//! cost on that platform"; this executor actually runs the DAG on host
//! threads with real kernels, which is how the numerical correctness of
//! the tiled operations is validated (see `ugpc-linalg`).
//!
//! Work-stealing runtime in the Rayon/Tokio mold: a global injector feeds
//! per-thread deques; idle threads steal; dependency counters are atomics
//! decremented by whichever thread completes the last predecessor
//! (release/acquire pairs via the deque operations order the kernel
//! effects).

use crate::graph::TaskGraph;
use crate::observer::{ExecEvent, Observer, RunContext, RunSummary};
use crate::sim::SimOptions;
use crate::task::{TaskDesc, TaskId};
use crate::worker::{Worker, WorkerKind};
use crossbeam::deque::{Injector, Stealer, Worker as Deque};
use crossbeam::utils::Backoff;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;
use ugpc_hwsim::{EnergyReading, Joules, Secs};

/// Statistics of one native run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NativeStats {
    /// Tasks executed (always the graph size on success).
    pub executed: usize,
    /// Tasks executed by each thread.
    pub per_thread: Vec<usize>,
}

/// A threaded DAG executor.
#[derive(Debug, Clone, Copy)]
pub struct NativeExecutor {
    threads: usize,
}

impl Default for NativeExecutor {
    fn default() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }
}

impl NativeExecutor {
    pub fn new(threads: usize) -> Self {
        NativeExecutor {
            threads: threads.max(1),
        }
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute every task of `graph` exactly once, respecting all
    /// dependency edges. `kernel` is called concurrently from worker
    /// threads; disjoint-data safety is the caller's contract (the linalg
    /// layer hands out interior-mutable tiles keyed by the task id).
    pub fn execute<F>(&self, graph: &TaskGraph, kernel: F) -> NativeStats
    where
        F: Fn(TaskId, &TaskDesc) + Sync,
    {
        self.execute_observed(graph, kernel, &mut [])
    }

    /// [`execute`](Self::execute), reporting through the same
    /// [`Observer`] stream as the simulator: `TaskStart`/`TaskEnd` carry
    /// wall-clock seconds since run start, and `on_finish` delivers the
    /// wall-clock makespan (with an empty energy reading — host threads
    /// have no power model).
    ///
    /// Events are serialized through one mutex, so attaching observers
    /// perturbs timing (not correctness) of concurrent runs; pass an
    /// empty slice on the measurement path.
    pub fn execute_observed<F>(
        &self,
        graph: &TaskGraph,
        kernel: F,
        observers: &mut [&mut dyn Observer],
    ) -> NativeStats
    where
        F: Fn(TaskId, &TaskDesc) + Sync,
    {
        // Each host thread presents as one CPU-core worker.
        let workers: Vec<Worker> = (0..self.threads)
            .map(|id| Worker {
                id,
                kind: WorkerKind::CpuCore {
                    package: 0,
                    core: id,
                },
            })
            .collect();
        let ctx = RunContext {
            workers: &workers,
            graph,
            options: SimOptions::default(),
            gpu_idle: &[],
        };
        for o in observers.iter_mut() {
            o.on_start(&ctx);
        }

        let epoch = Instant::now();
        let sink = Mutex::new(observers);
        let notify = |me: usize, task: TaskId, desc: &TaskDesc, start: Secs, end: Secs| {
            // Tolerate a poisoned lock: a panicking observer on another
            // thread must not wedge the executor.
            let mut observers = sink.lock().unwrap_or_else(PoisonError::into_inner);
            if observers.is_empty() {
                return;
            }
            let start_ev = ExecEvent::TaskStart {
                task,
                worker: me,
                at: start,
            };
            let end_ev = ExecEvent::TaskEnd {
                task,
                worker: me,
                start,
                end,
                duration: end - start,
                kind: desc.kind,
                precision: desc.precision,
                nb: desc.nb,
                priority: desc.priority,
                flops: desc.flops(),
                energy: Joules::ZERO,
            };
            for o in observers.iter_mut() {
                o.on_event(&start_ev);
                o.on_event(&end_ev);
            }
        };

        let stats = self.run_graph(graph, &kernel, &notify, epoch);

        let makespan = Secs(epoch.elapsed().as_secs_f64());
        let summary = RunSummary {
            makespan,
            energy: EnergyReading {
                duration: makespan,
                per_cpu: Vec::new(),
                per_gpu: Vec::new(),
            },
        };
        let observers = sink.into_inner().unwrap_or_else(PoisonError::into_inner);
        for o in observers.iter_mut() {
            o.on_finish(&summary);
        }
        stats
    }

    fn run_graph<F, N>(
        &self,
        graph: &TaskGraph,
        kernel: &F,
        notify: &N,
        epoch: Instant,
    ) -> NativeStats
    where
        F: Fn(TaskId, &TaskDesc) + Sync,
        N: Fn(usize, TaskId, &TaskDesc, Secs, Secs) + Sync,
    {
        let n = graph.len();
        if n == 0 {
            return NativeStats {
                executed: 0,
                per_thread: vec![0; self.threads],
            };
        }

        let indeg: Vec<AtomicUsize> = graph
            .indegrees()
            .into_iter()
            .map(AtomicUsize::new)
            .collect();
        let completed = AtomicUsize::new(0);
        let injector = Injector::new();
        for t in graph.roots() {
            injector.push(t);
        }

        let deques: Vec<Deque<TaskId>> = (0..self.threads).map(|_| Deque::new_fifo()).collect();
        let stealers: Vec<Stealer<TaskId>> = deques.iter().map(Deque::stealer).collect();
        let counts: Vec<AtomicUsize> = (0..self.threads).map(|_| AtomicUsize::new(0)).collect();

        std::thread::scope(|scope| {
            for (me, local) in deques.into_iter().enumerate() {
                let injector = &injector;
                let stealers = &stealers;
                let indeg = &indeg;
                let completed = &completed;
                let counts = &counts;
                scope.spawn(move || {
                    let backoff = Backoff::new();
                    loop {
                        if completed.load(Ordering::Acquire) == n {
                            break;
                        }
                        let task = local.pop().or_else(|| {
                            // Drain the injector, then try stealing.
                            std::iter::repeat_with(|| {
                                injector.steal_batch_and_pop(&local).or_else(|| {
                                    stealers
                                        .iter()
                                        .map(|s| s.steal())
                                        .collect::<crossbeam::deque::Steal<_>>()
                                })
                            })
                            .find(|s| !s.is_retry())
                            .and_then(|s| s.success())
                        });
                        let Some(task) = task else {
                            backoff.snooze();
                            continue;
                        };
                        backoff.reset();

                        let desc = graph.task(task);
                        let start = Secs(epoch.elapsed().as_secs_f64());
                        kernel(task, desc);
                        let end = Secs(epoch.elapsed().as_secs_f64());
                        notify(me, task, desc, start, end);
                        counts[me].fetch_add(1, Ordering::Relaxed);

                        for &s in graph.successors(task) {
                            // The last predecessor to finish releases the
                            // successor.
                            if indeg[s].fetch_sub(1, Ordering::AcqRel) == 1 {
                                local.push(s);
                            }
                        }
                        completed.fetch_add(1, Ordering::Release);
                    }
                });
            }
        });

        NativeStats {
            executed: completed.load(Ordering::Acquire),
            per_thread: counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{AccessMode, KernelKind};
    use std::sync::atomic::AtomicBool;
    use ugpc_hwsim::Precision;

    fn diamond() -> TaskGraph {
        // 0 -> {1, 2} -> 3 via data deps on tiles.
        let mut g = TaskGraph::new();
        let t = |accesses: &[(usize, AccessMode)]| {
            let mut d = TaskDesc::new(KernelKind::Gemm, Precision::Double, 4);
            for &(id, m) in accesses {
                d = d.access(id, m);
            }
            d
        };
        g.submit(t(&[(0, AccessMode::Write)]));
        g.submit(t(&[(0, AccessMode::Read), (1, AccessMode::Write)]));
        g.submit(t(&[(0, AccessMode::Read), (2, AccessMode::Write)]));
        g.submit(t(&[(1, AccessMode::Read), (2, AccessMode::Read)]));
        g
    }

    #[test]
    fn executes_every_task_once() {
        let g = diamond();
        let hits: Vec<AtomicUsize> = (0..g.len()).map(|_| AtomicUsize::new(0)).collect();
        let stats = NativeExecutor::new(4).execute(&g, |t, _| {
            hits[t].fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(stats.executed, 4);
        assert_eq!(stats.per_thread.iter().sum::<usize>(), 4);
        for h in &hits {
            assert_eq!(h.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn respects_dependencies() {
        let g = diamond();
        let done: Vec<AtomicBool> = (0..g.len()).map(|_| AtomicBool::new(false)).collect();
        NativeExecutor::new(4).execute(&g, |t, _| {
            for &p in g.predecessors(t) {
                assert!(
                    done[p].load(Ordering::SeqCst),
                    "task {t} ran before predecessor {p}"
                );
            }
            done[t].store(true, Ordering::SeqCst);
        });
    }

    #[test]
    fn wide_graph_dependency_stress() {
        // 1 root -> 64 middles -> 1 sink, many times, on varying threads.
        let mut g = TaskGraph::new();
        let root = g.submit(
            TaskDesc::new(KernelKind::Gemm, Precision::Double, 4).access(0, AccessMode::Write),
        );
        let mut mids = Vec::new();
        for i in 0..64 {
            mids.push(
                g.submit(
                    TaskDesc::new(KernelKind::Gemm, Precision::Double, 4)
                        .access(0, AccessMode::Read)
                        .access(1 + i, AccessMode::Write),
                ),
            );
        }
        let mut sink = TaskDesc::new(KernelKind::Gemm, Precision::Double, 4);
        for i in 0..64 {
            sink = sink.access(1 + i, AccessMode::Read);
        }
        let sink = g.submit(sink);
        assert_eq!(g.predecessors(sink).len(), 64);
        let _ = root;

        for threads in [1, 2, 8] {
            let order = AtomicUsize::new(0);
            let stamps: Vec<AtomicUsize> = (0..g.len()).map(|_| AtomicUsize::new(0)).collect();
            let stats = NativeExecutor::new(threads).execute(&g, |t, _| {
                stamps[t].store(order.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
            });
            assert_eq!(stats.executed, 66);
            let root_stamp = stamps[0].load(Ordering::SeqCst);
            let sink_stamp = stamps[sink].load(Ordering::SeqCst);
            assert_eq!(root_stamp, 1, "root first");
            assert_eq!(sink_stamp, 66, "sink last");
        }
    }

    #[test]
    fn empty_graph() {
        let g = TaskGraph::new();
        let stats = NativeExecutor::new(2).execute(&g, |_, _| {});
        assert_eq!(stats.executed, 0);
    }

    #[test]
    fn single_thread_executes_in_valid_order() {
        let g = diamond();
        let mut seen = Vec::new();
        let seen_cell = std::sync::Mutex::new(&mut seen);
        NativeExecutor::new(1).execute(&g, |t, _| {
            seen_cell
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(t);
        });
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[0], 0);
        assert_eq!(seen[3], 3);
    }

    #[test]
    fn observers_see_the_native_stream() {
        use crate::observer::{EventLog, ExecEvent, Observer, StatsCollector};

        let g = diamond();
        let mut log = EventLog::new();
        let mut stats = StatsCollector::new();
        let exec_stats = {
            let mut obs: [&mut dyn Observer; 2] = [&mut log, &mut stats];
            NativeExecutor::new(2).execute_observed(&g, |_, _| {}, &mut obs)
        };
        assert_eq!(exec_stats.executed, 4);
        assert_eq!(log.completions().len(), 4);
        assert_eq!(stats.stats().tasks, 4);
        assert_eq!(stats.stats().cpu_tasks, 4, "native workers are CPU cores");
        // The serialized stream respects DAG order: task 0 ends before
        // task 3 starts.
        let end0 = log
            .events
            .iter()
            .position(|e| matches!(e, ExecEvent::TaskEnd { task: 0, .. }))
            .expect("task 0 ends");
        let start3 = log
            .events
            .iter()
            .position(|e| matches!(e, ExecEvent::TaskStart { task: 3, .. }))
            .expect("task 3 starts");
        assert!(end0 < start3, "sink started before its predecessor ended");
        let summary = log.summary.expect("on_finish delivered");
        assert!(summary.makespan >= ugpc_hwsim::Secs::ZERO);
        assert!(summary.energy.per_gpu.is_empty(), "no native power model");
    }

    #[test]
    fn kernel_sees_task_desc() {
        let g = diamond();
        NativeExecutor::new(2).execute(&g, |_, desc| {
            assert_eq!(desc.kind, KernelKind::Gemm);
            assert_eq!(desc.nb, 4);
        });
    }
}
