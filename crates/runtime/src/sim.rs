//! The virtual-time executor: runs a task graph on a simulated node under
//! a scheduling policy, producing exact timing and energy.
//!
//! Event-driven greedy list scheduling, matching StarPU's dm-family
//! behaviour: tasks are assigned to worker queues the moment they become
//! ready (in scheduler-defined order), using the calibrated performance
//! models; workers drain their queues; DMA engines (one per GPU and
//! direction) serialize transfers; devices integrate their own energy.
//! Each decision advances the chosen worker's expected queue end by the
//! transfer and execution estimates the policy handed back in its
//! [`Choice`](crate::sched::Choice), computing here only the terms it did
//! not cost (`dm`'s transfer term, both of `eager`'s).
//!
//! The executor keeps only *execution* state (queue drain times, DMA
//! engines, residency, the ready frontier); every statistic is emitted as
//! an [`ExecEvent`] through the observer
//! pipeline — [`simulate`] is a thin wrapper attaching a
//! [`TraceBuilder`] to [`simulate_observed`],
//! which is [`simulate_controlled`] without a control hook.

use crate::arena::with_run_arena;
use crate::control::{ControlHook, SimEvent};
use crate::data::{DataRegistry, MemNode};
use crate::des::QueueBackend;
use crate::graph::TaskGraph;
use crate::memory::GpuMemory;
use crate::observer::{emit, ExecEvent, Observer, RunContext, RunSummary};
use crate::perfmodel::PerfModel;
use crate::sched::{SchedPolicy, SchedView};
use crate::task::distinct_footprints;
use crate::trace::{RunTrace, TraceBuilder};
use crate::worker::{build_workers_into, WorkerKind};
use ugpc_hwsim::{EnergyProbe, Joules, Node, Secs, Watts};

/// Executor options.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    pub policy: SchedPolicy,
    /// Retain per-task records (needed for Gantt/Fig. 5-style breakdowns).
    pub keep_records: bool,
    /// Feed observed execution times back into the history model during
    /// the run (StarPU's online refinement). Disable to study frozen /
    /// stale models.
    pub refine_models: bool,
    /// Event-queue backend. It has one value; see [`QueueBackend`].
    pub queue: QueueBackend,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            policy: SchedPolicy::Dmdas,
            keep_records: false,
            refine_models: true,
            queue: QueueBackend::resolve(),
        }
    }
}

/// Run `graph` on `node`: calibrates a fresh performance model at the
/// node's *current power caps* (the paper's protocol — recalibration after
/// every cap change), then executes.
pub fn simulate(
    node: &mut Node,
    graph: &TaskGraph,
    data: &mut DataRegistry,
    options: SimOptions,
) -> RunTrace {
    let mut builder = TraceBuilder::new();
    simulate_observed(
        node,
        graph,
        data,
        options,
        &mut PerfModel::new(),
        &mut [&mut builder],
    );
    builder.into_trace()
}

/// The executor without a control plane: run `graph` on `node`, emitting
/// the event stream to `observers` and returning the run-level summary.
/// `perf` is calibrated for every footprint it does not know yet; a model
/// calibrated at other caps is used as is (a stale-model experiment).
/// Observers are read-only witnesses — nothing they do can perturb
/// virtual time, scheduling, or device state (see [`crate::observer`]).
pub fn simulate_observed(
    node: &mut Node,
    graph: &TaskGraph,
    data: &mut DataRegistry,
    options: SimOptions,
    perf: &mut PerfModel,
    observers: &mut [&mut dyn Observer],
) -> RunSummary {
    simulate_controlled(node, graph, data, options, perf, observers, None)
}

/// The core executor: [`simulate_observed`] with an optional control-plane
/// hook. The hook sees the same live event stream the observers do, but —
/// unlike observers — may schedule
/// [`RecapEvent`](crate::control::RecapEvent)s through the DES event
/// queue that change device power limits while the DAG executes (see
/// [`crate::control`] for the ordering and determinism contract). No hook,
/// or a quiescent one, is outcome-neutral; an active one deliberately
/// changes the run.
pub fn simulate_controlled(
    node: &mut Node,
    graph: &TaskGraph,
    data: &mut DataRegistry,
    options: SimOptions,
    perf: &mut PerfModel,
    observers: &mut [&mut dyn Observer],
    hook: Option<&mut dyn ControlHook>,
) -> RunSummary {
    with_run_arena(|arena| {
        simulate_in_arena(arena, node, graph, data, options, perf, observers, hook)
    })
}

/// Emit one event to the observers and, when a control plane is
/// attached, to its sensor feed.
#[inline]
fn feed(
    observers: &mut [&mut dyn Observer],
    hook: &mut Option<&mut dyn ControlHook>,
    ev: &ExecEvent,
) {
    emit(observers, ev);
    if let Some(h) = hook.as_deref_mut() {
        h.on_event(ev);
    }
}

/// [`simulate_observed`] against an explicit scratch arena. Every arena
/// field is reset to its run-initial state before first read, so a
/// recycled arena is observationally identical to a cold one (pinned by
/// the hotpath goldens and the queue-backend differentials).
#[allow(clippy::too_many_arguments)]
fn simulate_in_arena(
    arena: &mut crate::arena::RunArena,
    node: &mut Node,
    graph: &TaskGraph,
    data: &mut DataRegistry,
    options: SimOptions,
    perf: &mut PerfModel,
    observers: &mut [&mut dyn Observer],
    mut hook: Option<&mut dyn ControlHook>,
) -> RunSummary {
    // Destructure so each field borrows independently.
    let crate::arena::RunArena {
        workers,
        capable_cores,
        worker_free,
        worker_expected,
        h2d_free,
        d2h_free,
        task_worker,
        indeg,
        ready,
        batch,
        completed,
        footprints,
        missing,
        events,
    } = arena;

    build_workers_into(node.spec(), workers, capable_cores);
    let workers: &[crate::worker::Worker] = workers;
    for (p, pkg) in node.cpus_mut().iter_mut().enumerate() {
        pkg.set_active_workers(capable_cores[p]);
    }

    // Calibration runs for every distinct footprint not yet known.
    distinct_footprints(graph.tasks(), footprints);
    missing.clear();
    missing.extend(footprints.iter().copied().filter(|fp| {
        workers.iter().any(|w| {
            let capable = if w.is_gpu() {
                fp.kind.gpu_capable()
            } else {
                fp.kind.cpu_capable()
            };
            capable && !perf.is_calibrated(*fp, w.id)
        })
    }));
    perf.calibrate(node, workers, missing);

    let gpu_idle: Vec<Watts> = node.gpus().iter().map(|g| g.spec().idle_power).collect();
    {
        let ctx = RunContext {
            workers,
            graph,
            options,
            gpu_idle: &gpu_idle,
        };
        for o in observers.iter_mut() {
            o.on_start(&ctx);
        }
    }
    // The control plane sees the same run context; its answer is the
    // first tick time (pushed once the event queue is reset below).
    let first_tick: Option<Secs> = hook.as_deref_mut().and_then(|h| {
        let ctx = RunContext {
            workers,
            graph,
            options,
            gpu_idle: &gpu_idle,
        };
        h.on_start(&ctx)
    });

    // Fresh run state.
    data.reset_to_host();
    node.reset_energy();
    let probe = EnergyProbe::start(node, Secs::ZERO);
    // Sanitizer: independent per-GPU counter snapshots, so the probe's
    // reading can be cross-checked against a second integration at the
    // end of the run.
    #[cfg(feature = "sanitize")]
    let gpu_energy_at_start: Vec<Joules> =
        node.gpus().iter().map(|g| g.energy(Secs::ZERO)).collect();
    // Sanitizer: completion time of every finished task, to assert that
    // no task starts before all of its predecessors ended.
    #[cfg(feature = "sanitize")]
    let mut task_end: Vec<Option<Secs>> = vec![None; graph.len()];

    let n_gpus = node.gpus().len();
    let mut gpu_mem: Vec<GpuMemory> = node
        .gpus()
        .iter()
        .map(|g| GpuMemory::new(g.index(), g.spec().mem_capacity))
        .collect();
    task_worker.clear();
    task_worker.resize(graph.len(), usize::MAX);
    let links = *node.links();
    let mut scheduler = options.policy.build();
    // Actual queue-drain time per worker (drives execution) and the
    // model-predicted one (drives scheduling decisions — StarPU's
    // `expected_end`; they coincide when models are exact, and diverge
    // under stale or noisy calibration).
    worker_free.clear();
    worker_free.resize(workers.len(), Secs::ZERO);
    worker_expected.clear();
    worker_expected.resize(workers.len(), Secs::ZERO);
    h2d_free.clear();
    h2d_free.resize(n_gpus, Secs::ZERO);
    d2h_free.clear();
    d2h_free.resize(n_gpus, Secs::ZERO);
    graph.indegrees_into(indeg);
    ready.clear();
    ready.extend((0..graph.len()).filter(|&t| indeg[t] == 0));
    events.reset();
    if let Some(t0) = first_tick {
        events.push(t0.max(Secs::ZERO), SimEvent::ControlTick);
    }
    // Scratch for the per-tick cap snapshot handed to the hook.
    let mut cap_now: Vec<Watts> = Vec::new();
    let mut now = Secs::ZERO;
    let mut remaining = graph.len();

    // Reused across loop iterations (the ordered ready batch and the
    // tasks completing at one timestamp) instead of per-batch Vecs.
    batch.clear();
    completed.clear();

    while remaining > 0 {
        if !ready.is_empty() {
            // Order the batch, then commit each task to a worker.
            {
                let view = SchedView {
                    graph,
                    workers,
                    worker_free: worker_expected.as_slice(),
                    perf,
                    data,
                    links: &links,
                    now,
                };
                scheduler.order(ready, &view);
            }
            std::mem::swap(batch, ready);
            for &task in batch.iter() {
                // The policy's choice and its expected cost, `transfer +
                // exec`, with only the terms the policy did not cost
                // computed here.
                let (wid, est) = {
                    let view = SchedView {
                        graph,
                        workers,
                        worker_free: worker_expected.as_slice(),
                        perf,
                        data,
                        links: &links,
                        now,
                    };
                    let choice = scheduler.choose(task, &view);
                    let w = &workers[choice.worker];
                    let transfer = choice
                        .transfer
                        .unwrap_or_else(|| view.transfer_estimate(task, w));
                    let exec = choice.exec.unwrap_or_else(|| view.exec_estimate(task, w));
                    debug_assert_eq!(
                        (transfer.value().to_bits(), exec.value().to_bits()),
                        (
                            view.transfer_estimate(task, w).value().to_bits(),
                            view.exec_estimate(task, w).value().to_bits()
                        ),
                        "{} handed back another estimate of task {task}",
                        scheduler.name()
                    );
                    (choice.worker, transfer + exec)
                };
                // Advance the model-predicted queue end for the chosen
                // worker (what the scheduler believes it just committed).
                worker_expected[wid] = now.max(worker_expected[wid]) + est;
                let worker = workers[wid];
                let desc = graph.task(task);
                let dst = worker.mem_node();
                let mut data_ready = now;
                feed(
                    observers,
                    &mut hook,
                    &ExecEvent::TaskAssigned {
                        task,
                        worker: wid,
                        at: now,
                    },
                );

                // GPU memory management: make room for (and pin) every
                // operand before planning the fetches.
                if let MemNode::Gpu(g) = dst {
                    let operands = graph.unique_data(task);
                    let incoming: ugpc_hwsim::Bytes = operands
                        .iter()
                        .filter(|&&d| !gpu_mem[g].is_resident(d))
                        .map(|&d| data.bytes(d))
                        .sum();
                    // Pin first so make_room cannot evict our own
                    // already-resident operands.
                    for &d in operands {
                        if gpu_mem[g].is_resident(d) {
                            gpu_mem[g].pin(d);
                        }
                    }
                    for (victim, writeback) in gpu_mem[g].make_room(incoming, data) {
                        feed(
                            observers,
                            &mut hook,
                            &ExecEvent::Eviction {
                                data: victim,
                                device: g,
                                at: now,
                            },
                        );
                        if writeback {
                            let bytes = data.bytes(victim);
                            let st = now.max(d2h_free[g]);
                            let en = st + links.d2h_time(bytes);
                            d2h_free[g] = en;
                            data.add_replica(victim, MemNode::Host);
                            feed(
                                observers,
                                &mut hook,
                                &ExecEvent::Writeback {
                                    data: victim,
                                    device: g,
                                    bytes,
                                    start: st,
                                    end: en,
                                },
                            );
                            // Space is free once the copy-out lands.
                            data_ready = data_ready.max(en);
                        }
                        data.invalidate_at(victim, MemNode::Gpu(g));
                    }
                    // Allocate + pin incoming operands (transfers for
                    // reads are planned below; writes just allocate).
                    for &d in operands {
                        if !gpu_mem[g].is_resident(d) {
                            gpu_mem[g].note_resident(d, data.bytes(d));
                            gpu_mem[g].pin(d);
                        }
                    }
                }

                // Plan transfers for missing read operands.
                for &(d, mode) in &desc.data {
                    if !mode.reads() {
                        continue;
                    }
                    let Some(src) = data.transfer_source(d, dst) else {
                        continue;
                    };
                    let bytes = data.bytes(d);
                    // Every reserved engine slot becomes one transfer
                    // start/end pair on the stream (a staged copy is two).
                    let mut hop = |s: Secs, e: Secs, src: MemNode, dst: MemNode| {
                        feed(
                            observers,
                            &mut hook,
                            &ExecEvent::TransferStart {
                                data: d,
                                src,
                                dst,
                                bytes,
                                at: s,
                            },
                        );
                        feed(
                            observers,
                            &mut hook,
                            &ExecEvent::TransferEnd {
                                data: d,
                                src,
                                dst,
                                bytes,
                                start: s,
                                end: e,
                            },
                        );
                    };
                    let done = match (src, dst) {
                        (MemNode::Host, MemNode::Gpu(g)) => {
                            let s = now.max(h2d_free[g]);
                            let e = s + links.h2d_time(bytes);
                            h2d_free[g] = e;
                            hop(s, e, src, dst);
                            e
                        }
                        (MemNode::Gpu(g), MemNode::Host) => {
                            let s = now.max(d2h_free[g]);
                            let e = s + links.d2h_time(bytes);
                            d2h_free[g] = e;
                            hop(s, e, src, dst);
                            e
                        }
                        (MemNode::Gpu(sg), MemNode::Gpu(dg)) => {
                            if links.d2d.is_some() {
                                // Direct NVLink copy occupies both engines.
                                let s = now.max(d2h_free[sg]).max(h2d_free[dg]);
                                let e = s + links.d2d_time(bytes);
                                d2h_free[sg] = e;
                                h2d_free[dg] = e;
                                hop(s, e, src, dst);
                                e
                            } else {
                                // Staged through host memory, two hops.
                                let s1 = now.max(d2h_free[sg]);
                                let e1 = s1 + links.d2h_time(bytes);
                                d2h_free[sg] = e1;
                                data.add_replica(d, MemNode::Host);
                                hop(s1, e1, src, MemNode::Host);
                                let s2 = e1.max(h2d_free[dg]);
                                let e2 = s2 + links.h2d_time(bytes);
                                h2d_free[dg] = e2;
                                hop(s2, e2, MemNode::Host, dst);
                                e2
                            }
                        }
                        (MemNode::Host, MemNode::Host) => now,
                    };
                    data.add_replica(d, dst);
                    data_ready = data_ready.max(done);
                }

                // Execute on the device model; it records its own energy.
                let t_start = worker_free[wid].max(data_ready);
                #[cfg(feature = "sanitize")]
                for &p in graph.predecessors(task) {
                    let end = task_end[p].unwrap_or_else(|| {
                        panic!("sanitize: task {task} scheduled before predecessor {p} finished")
                    });
                    assert!(
                        t_start >= end,
                        "sanitize: task {task} starts at {t_start} before predecessor {p} \
                         ends at {end}"
                    );
                }
                feed(
                    observers,
                    &mut hook,
                    &ExecEvent::TaskStart {
                        task,
                        worker: wid,
                        at: t_start,
                    },
                );
                let (duration, energy, power) = match worker.kind {
                    WorkerKind::Gpu { device } => {
                        let run = node.gpu_mut(device).execute(&desc.kernel_work(), t_start);
                        (run.time, run.energy(), run.power)
                    }
                    WorkerKind::CpuCore { package, core } => {
                        let run = node.cpus_mut()[package].execute(
                            core,
                            desc.flops(),
                            desc.nb,
                            desc.precision,
                            t_start,
                        );
                        (run.time, run.core_power * run.time, run.core_power)
                    }
                };
                let t_end = t_start + duration;
                #[cfg(feature = "sanitize")]
                {
                    task_end[task] = Some(t_end);
                }
                worker_free[wid] = t_end;
                feed(
                    observers,
                    &mut hook,
                    &ExecEvent::PowerSample {
                        worker: wid,
                        start: t_start,
                        end: t_end,
                        power,
                    },
                );
                feed(
                    observers,
                    &mut hook,
                    &ExecEvent::TaskEnd {
                        task,
                        worker: wid,
                        start: t_start,
                        end: t_end,
                        duration,
                        kind: desc.kind,
                        precision: desc.precision,
                        nb: desc.nb,
                        priority: desc.priority,
                        flops: desc.flops(),
                        energy,
                    },
                );

                // Apply write effects to the replica map; replicas on
                // other devices are invalidated and their memory freed.
                for &(d, mode) in &desc.data {
                    if mode.writes() {
                        for (g, mem) in gpu_mem.iter_mut().enumerate() {
                            if MemNode::Gpu(g) != dst {
                                mem.drop_if_present(d);
                            }
                        }
                        data.write_at(d, dst);
                    }
                }
                task_worker[task] = wid;

                // Feed the history model (online refinement, like StarPU).
                if options.refine_models {
                    perf.observe(desc.footprint(), wid, duration, energy);
                    feed(
                        observers,
                        &mut hook,
                        &ExecEvent::ModelRefine {
                            task,
                            worker: wid,
                            observed: duration,
                            energy,
                            at: t_end,
                        },
                    );
                }
                events.push(t_end, SimEvent::Task(task));
            }
            batch.clear();
        } else {
            // Advance time to the next event and drain everything at
            // that timestamp in one queue pass — the batch comes back in
            // exactly the order repeated pops would give.
            completed.clear();
            now = events
                .pop_all_eq(completed)
                .expect("deadlock: tasks remain but nothing is in flight");
            // Scheduled re-caps land first: every kernel launched from
            // here on satisfies `t_start >= now`, so a re-cap at `now`
            // governs exactly the launches at or after it, while kernels
            // already committed keep the power they drew (the device
            // splits its ledger at the transition instant).
            for ev in completed.iter() {
                if let SimEvent::Recap { device, cap } = *ev {
                    node.gpu_mut(device)
                        .recap_at(now, cap)
                        .expect("control hook emitted a cap outside the device range");
                }
            }
            // Batches without a task completion (ticks / re-caps alone)
            // leave scheduler state untouched — no resync, no frontier
            // updates — so a quiescent control plane stays
            // outcome-neutral (tests/control_differential.rs).
            for ev in completed.iter() {
                let SimEvent::Task(task) = *ev else { continue };
                remaining -= 1;
                let w = task_worker[task];
                // Resync: a worker that is actually idle has nothing
                // pending, whatever the model predicted (StarPU refreshes
                // expected_end when workers go idle). A worker goes idle
                // only in the batch holding its last queued task, and its
                // prediction stays at or before `now` until its next
                // assignment, so checking each completed task's worker
                // reaches every idle worker (DESIGN.md §19).
                if worker_free[w] <= now && worker_expected[w] > now {
                    worker_expected[w] = now;
                }
                if let WorkerKind::Gpu { device } = workers[w].kind {
                    for &d in graph.unique_data(task) {
                        gpu_mem[device].unpin(d);
                    }
                }
                for &s in graph.successors(task) {
                    indeg[s] -= 1;
                    if indeg[s] == 0 {
                        ready.push(s);
                    }
                }
            }
            // The per-completion resync must be exhaustive: after this
            // batch, no idle worker may still predict a later queue end.
            #[cfg(any(debug_assertions, feature = "sanitize"))]
            for w in 0..workers.len() {
                assert!(
                    !(worker_free[w] <= now && worker_expected[w] > now),
                    "idle worker {w} still expects its queue to end after {now}"
                );
            }
            // Ticks run last, after the completions at this instant, so
            // the controller's sensors include them.
            let ticked = completed.iter().any(|e| matches!(e, SimEvent::ControlTick));
            if ticked {
                let h = hook
                    .as_deref_mut()
                    .expect("ticks are only scheduled by a control hook");
                cap_now.clear();
                cap_now.extend(node.gpus().iter().map(|g| g.power_limit()));
                let decision = h.on_tick(now, &cap_now);
                for r in decision.recaps {
                    if r.t <= now {
                        // Applies before the next scheduling round, so it
                        // binds every launch at or after `now`.
                        node.gpu_mut(r.device)
                            .recap_at(now, r.cap)
                            .expect("control hook emitted a cap outside the device range");
                    } else {
                        events.push(
                            r.t,
                            SimEvent::Recap {
                                device: r.device,
                                cap: r.cap,
                            },
                        );
                    }
                }
                // A tick at or before `now` would livelock the event
                // loop; the contract requires strictly-future ticks.
                if let Some(t) = decision.next_tick {
                    if t > now {
                        events.push(t, SimEvent::ControlTick);
                    }
                }
            }
        }
    }

    // Makespan: last task end (transfers never outlive their consumer).
    let makespan = worker_free
        .iter()
        .copied()
        .fold(Secs::ZERO, Secs::max)
        .max(now);
    let energy = probe.stop(node, makespan);
    debug_assert!(
        energy.per_gpu.iter().all(|e| *e > Joules::ZERO) || graph.is_empty(),
        "every GPU burns at least idle power"
    );
    #[cfg(feature = "sanitize")]
    {
        // All tasks must have completed with recorded end times.
        assert!(
            task_end.iter().all(Option::is_some),
            "sanitize: tasks remain unfinished after the event loop drained"
        );
        // Replica coherence held to the end.
        data.assert_coherent();
        // Energy cross-check: the probe's per-GPU reading must match an
        // independent second integration of each device's ledger over
        // the same window, and the trace total must be their sum.
        for (g, (dev, &e0)) in node.gpus().iter().zip(&gpu_energy_at_start).enumerate() {
            let independent = dev.energy(makespan) - e0;
            let drift = (independent - energy.per_gpu[g]).abs();
            let tol = Joules(1e-6) + independent.abs() * 1e-9;
            assert!(
                drift <= tol,
                "sanitize: gpu {g} probe energy {} disagrees with ledger integral {}",
                energy.per_gpu[g],
                independent
            );
        }
        let per_device_sum = energy.gpu_total() + energy.cpu_total();
        let drift = (per_device_sum - energy.total()).abs();
        assert!(
            drift <= Joules(1e-6) + per_device_sum.abs() * 1e-9,
            "sanitize: trace total energy {} is not the sum of per-device integrals {}",
            energy.total(),
            per_device_sum
        );
    }

    let summary = RunSummary { makespan, energy };
    for o in observers.iter_mut() {
        o.on_finish(&summary);
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{AccessMode, KernelKind, TaskDesc};
    use crate::worker::build_workers;
    use ugpc_hwsim::{Bytes, PlatformId, Precision, Watts};

    /// A tiny GEMM-like graph: `chains` independent chains of `len`
    /// sequential updates each, on distinct tiles.
    fn chain_graph(chains: usize, len: usize, nb: usize, data: &mut DataRegistry) -> TaskGraph {
        let mut g = TaskGraph::new();
        for c in 0..chains {
            let tile = data.register(Bytes((nb * nb * 8) as f64));
            let a = data.register(Bytes((nb * nb * 8) as f64));
            for _ in 0..len {
                g.submit(
                    TaskDesc::new(KernelKind::Gemm, Precision::Double, nb)
                        .access(a, AccessMode::Read)
                        .access(tile, AccessMode::ReadWrite),
                );
            }
            let _ = c;
        }
        g
    }

    #[test]
    fn empty_graph_runs() {
        let mut node = Node::new(PlatformId::Intel2V100);
        let mut data = DataRegistry::new();
        let g = TaskGraph::new();
        let trace = simulate(&mut node, &g, &mut data, SimOptions::default());
        assert_eq!(trace.makespan, Secs::ZERO);
        assert_eq!(trace.cpu_tasks + trace.gpu_tasks, 0);
    }

    #[test]
    fn single_task_timing_matches_device() {
        let mut node = Node::new(PlatformId::Amd4A100);
        let mut data = DataRegistry::new();
        let mut g = chain_graph(1, 1, 2880, &mut data);
        let _ = &mut g;
        let trace = simulate(&mut node, &g, &mut data, SimOptions::default());
        // One task: makespan = h2d transfers + exec on the best device.
        let desc = g.task(0);
        let exec = node.gpu(0).estimate(&desc.kernel_work()).time;
        let transfer = node.links().h2d_time(Bytes((2880 * 2880 * 8) as f64));
        let expect = exec + transfer * 2.0;
        assert!(
            (trace.makespan.value() - expect.value()).abs() / expect.value() < 0.05,
            "makespan {} vs expected {}",
            trace.makespan,
            expect
        );
        assert_eq!(trace.gpu_tasks, 1);
    }

    #[test]
    fn parallel_chains_use_all_gpus() {
        let mut node = Node::new(PlatformId::Amd4A100);
        let mut data = DataRegistry::new();
        let g = chain_graph(8, 4, 2880, &mut data);
        let trace = simulate(&mut node, &g, &mut data, SimOptions::default());
        // 32 GEMMs across 4 GPUs; every GPU should get work.
        let (workers, _) = build_workers(node.spec());
        let gpu_workers: Vec<_> = workers.iter().filter(|w| w.is_gpu()).collect();
        for w in &gpu_workers {
            assert!(
                trace.worker_tasks[w.id] > 0,
                "gpu worker {} got no tasks: {:?}",
                w.id,
                trace.worker_tasks
            );
        }
        assert_eq!(trace.gpu_tasks + trace.cpu_tasks, 32);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut node = Node::new(PlatformId::Amd4A100);
            let mut data = DataRegistry::new();
            let g = chain_graph(6, 5, 1440, &mut data);
            simulate(&mut node, &g, &mut data, SimOptions::default())
        };
        let a = run();
        let b = run();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.total_energy(), b.total_energy());
        assert_eq!(a.worker_tasks, b.worker_tasks);
    }

    #[test]
    fn capped_gpus_receive_fewer_tasks() {
        // The paper's core claim (§III-B): after recalibration the
        // scheduler shifts load away from capped devices.
        let run = |cap: Option<Watts>| {
            let mut node = Node::new(PlatformId::Amd4A100);
            if let Some(c) = cap {
                // Cap GPUs 2 and 3 to the minimum.
                node.gpu_mut(2).set_power_limit(c).unwrap();
                node.gpu_mut(3).set_power_limit(c).unwrap();
            }
            let mut data = DataRegistry::new();
            let g = chain_graph(16, 8, 2880, &mut data);
            let trace = simulate(&mut node, &g, &mut data, SimOptions::default());
            let (workers, _) = build_workers(node.spec());
            let per_gpu: Vec<usize> = workers
                .iter()
                .filter(|w| w.is_gpu())
                .map(|w| trace.worker_tasks[w.id])
                .collect();
            per_gpu
        };
        let balanced = run(None);
        let unbalanced = run(Some(Watts(100.0)));
        // Uncapped: roughly even split.
        let max = *balanced.iter().max().unwrap() as f64;
        let min = *balanced.iter().min().unwrap() as f64;
        assert!(
            max / min.max(1.0) < 2.0,
            "balanced run skewed: {balanced:?}"
        );
        // Capped: GPUs 0/1 (fast) take clearly more than GPUs 2/3 (slow).
        assert!(
            unbalanced[0] + unbalanced[1] > (unbalanced[2] + unbalanced[3]) * 2,
            "unbalanced run did not shift load: {unbalanced:?}"
        );
    }

    #[test]
    fn capping_all_gpus_saves_energy_on_saturating_work() {
        let run = |cap: Option<Watts>| {
            let mut node = Node::new(PlatformId::Amd4A100);
            if let Some(c) = cap {
                for g in 0..4 {
                    node.gpu_mut(g).set_power_limit(c).unwrap();
                }
            }
            let mut data = DataRegistry::new();
            let g = chain_graph(16, 8, 5760, &mut data);
            simulate(&mut node, &g, &mut data, SimOptions::default())
        };
        let free = run(None);
        let best = run(Some(Watts(216.0))); // P_best dp
        assert!(best.makespan > free.makespan, "capping must slow the run");
        assert!(
            best.efficiency().value() > free.efficiency().value(),
            "efficiency should improve: {} vs {}",
            best.efficiency(),
            free.efficiency()
        );
    }

    #[test]
    fn records_kept_when_requested() {
        let mut node = Node::new(PlatformId::Intel2V100);
        let mut data = DataRegistry::new();
        let g = chain_graph(2, 3, 960, &mut data);
        let opts = SimOptions {
            keep_records: true,
            ..Default::default()
        };
        let trace = simulate(&mut node, &g, &mut data, opts);
        assert_eq!(trace.records.len(), 6);
        // Records are consistent: end after start, worker ids valid.
        for r in &trace.records {
            assert!(r.end > r.start);
            assert!(r.worker < trace.worker_tasks.len());
        }
    }

    #[test]
    fn energy_accounts_whole_window() {
        let mut node = Node::new(PlatformId::Intel2V100);
        let mut data = DataRegistry::new();
        let g = chain_graph(2, 2, 1920, &mut data);
        let trace = simulate(&mut node, &g, &mut data, SimOptions::default());
        // Total energy at least idle power × makespan for every device.
        let idle_floor = 2.0 * 35.0 + 2.0 * 40.0; // uncore + GPU idle
        assert!(trace.total_energy().value() >= idle_floor * trace.makespan.value() * 0.99);
        assert_eq!(trace.energy.per_gpu.len(), 2);
        assert_eq!(trace.energy.per_cpu.len(), 2);
    }
}
