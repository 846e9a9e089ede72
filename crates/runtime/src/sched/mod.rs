//! Scheduling policies.
//!
//! The paper's experiments use **dmdas**; the rest of StarPU's family is
//! implemented for the ablation study (`repro ablation`): `eager`,
//! `random`, `dm` (HEFT-style expected completion time), `dmda` (ECT +
//! data-transfer time), `dmdas` (dmda + priority-sorted assignment +
//! locality tie-break), and the future-work `energy` scheduler.
//!
//! A policy that costs candidates does it through its `Costing` scratch:
//! one pass over the task's operands fills every memory node's transfer
//! total (and, for dmdas, its resident operand bytes), reading each
//! operand's replica set as a node bit mask (DESIGN.md §21), then each
//! class of identical workers — a run of host cores whose history entries
//! hold bit-equal means, or one GPU — is costed once, from its expected
//! time and its members' earliest queue end, a scan that stops at the
//! first member already idle. The policy compares classes and resolves a
//! member only inside the class it chose (DESIGN.md §18).
//! `random` reads each capable worker's expected time directly. The
//! policy hands the chosen worker's estimate back in its [`Choice`], so
//! the executor recomputes only what the policy did not cost.

mod dm;
mod dmda;
mod dmdas;
mod eager;
mod energy;
mod random;

pub use dm::DmScheduler;
pub use dmda::DmdaScheduler;
pub use dmdas::DmdasScheduler;
pub use eager::EagerScheduler;
pub use energy::EnergyAwareScheduler;
pub use random::RandomScheduler;

use crate::data::{DataId, DataRegistry};
use crate::graph::TaskGraph;
use crate::perfmodel::{PerfModel, PerfRow};
use crate::task::{AccessMode, TaskId};
use crate::worker::{Worker, WorkerId, WorkerKind};
use serde::{Deserialize, Serialize};
use ugpc_hwsim::{Bytes, Joules, LinkTopology, Secs};

/// Scheduler selection, serializable for experiment configs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SchedPolicy {
    Eager,
    Random {
        seed: u64,
    },
    Dm,
    Dmda,
    Dmdas,
    /// dmdas with an energy term: cost = (1−λ)·t̂ + λ·ê (normalized).
    EnergyAware {
        lambda: f64,
    },
}

impl SchedPolicy {
    pub fn build(self) -> Box<dyn Scheduler> {
        match self {
            SchedPolicy::Eager => Box::new(EagerScheduler),
            SchedPolicy::Random { seed } => Box::new(RandomScheduler::new(seed)),
            SchedPolicy::Dm => Box::new(DmScheduler::default()),
            SchedPolicy::Dmda => Box::new(DmdaScheduler::default()),
            SchedPolicy::Dmdas => Box::new(DmdasScheduler::default()),
            SchedPolicy::EnergyAware { lambda } => Box::new(EnergyAwareScheduler::new(lambda)),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            SchedPolicy::Eager => "eager",
            SchedPolicy::Random { .. } => "random",
            SchedPolicy::Dm => "dm",
            SchedPolicy::Dmda => "dmda",
            SchedPolicy::Dmdas => "dmdas",
            SchedPolicy::EnergyAware { .. } => "energy",
        }
    }
}

/// Read-only view of runtime state offered to a scheduler at decision time.
pub struct SchedView<'a> {
    pub graph: &'a TaskGraph,
    pub workers: &'a [Worker],
    /// Model-predicted virtual time at which each worker's queue ends
    /// (StarPU's `expected_end`). The executor passes its predictions,
    /// not the actual drain times, so a stale or noisy model misleads
    /// the policy as it would on a real node. A prediction may lie
    /// before `now`; policies read it through `max(now, ·)`.
    pub worker_free: &'a [Secs],
    pub perf: &'a PerfModel,
    pub data: &'a DataRegistry,
    pub links: &'a LinkTopology,
    pub now: Secs,
}

/// Pessimistic placeholder for uncalibrated (footprint, worker) pairs —
/// effectively excludes the worker unless nothing else can run the task.
const UNKNOWN_TIME: Secs = Secs(1e6);

/// Energy placeholder for workers without history.
const UNKNOWN_ENERGY: Joules = Joules(1e9);

impl<'a> SchedView<'a> {
    /// Can this worker execute this task at all (codelet has an
    /// implementation for the architecture)?
    pub fn can_run(&self, task: TaskId, w: &Worker) -> bool {
        let kind = self.graph.task(task).kind;
        if w.is_gpu() {
            kind.gpu_capable()
        } else {
            kind.cpu_capable()
        }
    }

    /// The history-model row of the task's footprint: look it up once
    /// per task, then cost each candidate with an index.
    pub(crate) fn perf_row(&self, task: TaskId) -> PerfRow<'a> {
        self.perf.row(self.graph.task(task).footprint())
    }

    /// Expected execution time from the history model.
    pub fn exec_estimate(&self, task: TaskId, w: &Worker) -> Secs {
        exec_in(&self.perf_row(task), w.id)
    }

    /// Expected energy of one execution on this worker.
    pub fn energy_estimate(&self, task: TaskId, w: &Worker) -> Joules {
        self.perf_row(task)
            .expected_energy(w.id)
            .unwrap_or(UNKNOWN_ENERGY)
    }

    /// Bandwidth-based estimate of the data-transfer time this task would
    /// incur on `w` (dmda's `transfer_model`): missing read operands moved
    /// over the worker's link, serialized.
    pub fn transfer_estimate(&self, task: TaskId, w: &Worker) -> Secs {
        let dst = w.mem_node();
        let mut total = Secs::ZERO;
        for &(d, mode) in &self.graph.task(task).data {
            if !mode.reads() {
                continue;
            }
            if let Some(src) = self.data.transfer_source(d, dst) {
                let bytes = self.data.bytes(d);
                total += match (src, dst) {
                    (crate::data::MemNode::Host, crate::data::MemNode::Gpu(_)) => {
                        self.links.h2d_time(bytes)
                    }
                    (crate::data::MemNode::Gpu(_), crate::data::MemNode::Host) => {
                        self.links.d2h_time(bytes)
                    }
                    (crate::data::MemNode::Gpu(_), crate::data::MemNode::Gpu(_)) => {
                        self.links.d2d_time(bytes)
                    }
                    (crate::data::MemNode::Host, crate::data::MemNode::Host) => Secs::ZERO,
                };
            }
        }
        total
    }

    /// Bytes of this task's operands already resident on `w`'s memory node.
    pub fn resident_bytes(&self, task: TaskId, w: &Worker) -> ugpc_hwsim::Bytes {
        self.data.resident_bytes(
            self.graph.task(task).data.iter().map(|&(d, _)| d),
            w.mem_node(),
        )
    }

    /// Workers capable of running the task.
    pub fn capable_workers(&self, task: TaskId) -> impl Iterator<Item = &Worker> {
        self.workers.iter().filter(move |w| self.can_run(task, w))
    }
}

/// A policy's rule for picking among its costed workers. It fixes what
/// [`Costing::cost`] prices, and debug builds check every decision
/// against its per-worker statement.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) enum Rule {
    /// `dm`: execution estimates only; the first worker of earliest
    /// completion.
    #[default]
    Dm,
    /// `dmda`: plus each memory node's transfer total; the first worker
    /// of earliest completion.
    Dmda,
    /// `dmdas`: plus each memory node's resident operand bytes; within
    /// `TIE_FRACTION` of one execution of the earliest completion, the
    /// most resident bytes, then the earliest completion, the last of
    /// equals.
    Dmdas,
    /// `energy`: as `dmda`, then the first worker of least normalized
    /// time-and-energy cost.
    Energy { lambda: f64 },
}

impl Rule {
    fn transfers(self) -> bool {
        self != Rule::Dm
    }
}

/// A class of capable workers that cost a task the same: consecutive
/// ids on one memory node whose history entries hold bit-equal mean
/// time and energy, or one worker on its own. Only the queue ends of
/// its members differ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Class {
    /// The members are `first..end`, in worker order.
    pub(crate) first: WorkerId,
    end: WorkerId,
    /// The members' memory node, as a [`crate::data::MemNode::index`].
    node: usize,
    /// Expected transfer time ([`SchedView::transfer_estimate`]); zero
    /// under [`Rule::Dm`].
    transfer: Secs,
    /// Expected execution time ([`SchedView::exec_estimate`]).
    pub(crate) exec: Secs,
    /// The earliest expected completion of a member.
    pub(crate) completion: Secs,
}

impl Class {
    /// Each member with its expected completion, in worker order.
    pub(crate) fn members<'v>(
        self,
        view: &'v SchedView,
    ) -> impl DoubleEndedIterator<Item = (WorkerId, Secs)> + 'v {
        (self.first..self.end).map(move |w| {
            let end = completion(view.now, view.worker_free[w], self.transfer, self.exec);
            (w, end)
        })
    }
}

/// Expected completion on a worker whose queue ends at `free`:
/// `max(now, free) + transfer + exec`, added in that order.
fn completion(now: Secs, free: Secs, transfer: Secs, exec: Secs) -> Secs {
    now.max(free) + transfer + exec
}

/// A policy's reusable scratch for costing one task's capable workers,
/// one class at a time.
///
/// [`Costing::cost`] makes one pass over the task's operands, filling each
/// memory node's transfer total and resident bytes, then walks the
/// history row's runs of equal entries, cut at the CPU/GPU boundary: a
/// run of host cores is one class, and each GPU is one. A class costs
/// one expected time and one scan of its members' queue ends; a policy
/// compares classes, then resolves a member only inside the class it
/// chose, by [`Class::members`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Costing {
    rule: Rule,
    task: TaskId,
    /// The capable workers' classes, in worker order.
    classes: Vec<Class>,
    /// dmda's transfer total per memory node.
    transfer: Vec<Secs>,
    /// Bytes of the task's operands resident per memory node.
    resident: Vec<Bytes>,
    /// `(workers, host cores)` of the worker table last checked by
    /// [`check_layout`].
    layout: Option<(usize, usize)>,
}

/// Assert the layout [`crate::worker::build_workers_into`] gives, which
/// classes rely on: ids equal indices; host cores come first, in package
/// order; GPU `g` follows them at index `cores + g`, its own memory node,
/// with fewer than 64 nodes in all (an operand's replicas are a `u64`
/// mask). Returns the number of host cores.
fn check_layout(workers: &[Worker]) -> usize {
    let cores = workers.iter().take_while(|w| !w.is_gpu()).count();
    let mut package = 0;
    for (i, w) in workers.iter().enumerate() {
        let in_place = w.id == i
            && match w.kind {
                WorkerKind::CpuCore { package: p, .. } => {
                    let ordered = p >= package;
                    package = p;
                    ordered
                }
                WorkerKind::Gpu { device } => device == i - cores,
            };
        assert!(in_place, "worker {i} ({w:?}) is out of the worker layout");
    }
    assert!(workers.len() - cores < 64, "too many GPUs to mask");
    cores
}

impl Costing {
    /// Cost every capable worker of `task` for `rule`, one class at a
    /// time. Each memory node's transfer total and resident bytes add
    /// their operands' terms in operand order from zero, each operand's
    /// link time computed once, so they equal
    /// [`SchedView::transfer_estimate`] and [`SchedView::resident_bytes`]
    /// bit for bit. A class's completion is its members' earliest:
    /// `max` and each addition are monotone, so it is the completion at
    /// the earliest queue end, and the scan for that end stops at the
    /// first member idle by `now`. An unobserved history entry, and a
    /// worker past the row, is a class of its own and falls back to the
    /// cubic extrapolation, then to `UNKNOWN_TIME`, as
    /// [`SchedView::exec_estimate`] does.
    ///
    /// # Panics
    ///
    /// If no worker can run the task, or the workers are not in
    /// [`check_layout`]'s layout (checked once per worker table).
    pub(crate) fn cost(&mut self, view: &SchedView, task: TaskId, rule: Rule) -> &Self {
        let desc = view.graph.task(task);
        let workers = view.workers.len();
        let cores = match self.layout {
            Some((n, cores)) if n == workers => cores,
            _ => {
                let cores = check_layout(view.workers);
                self.layout = Some((workers, cores));
                cores
            }
        };
        let (on_cpu, on_gpu) = (desc.kind.cpu_capable(), desc.kind.gpu_capable());
        self.rule = rule;
        self.task = task;
        if rule.transfers() {
            let nodes = if on_gpu { workers - cores + 1 } else { 1 };
            self.fill_nodes(view, &desc.data, nodes);
        }
        let row = view.perf.row(desc.footprint());
        self.classes.clear();
        if on_cpu {
            let mut w = 0;
            while w < cores {
                let end = row.run_end(w).min(cores);
                self.push_class(view, &row, w, end, 0);
                w = end;
            }
        }
        if on_gpu {
            for w in cores..workers {
                self.push_class(view, &row, w, w + 1, w - cores + 1);
            }
        }
        assert!(
            !self.classes.is_empty(),
            "no capable worker for task {task}"
        );
        self
    }

    fn push_class(
        &mut self,
        view: &SchedView,
        row: &PerfRow,
        first: WorkerId,
        end: WorkerId,
        node: usize,
    ) {
        let transfer = if self.rule.transfers() {
            self.transfer[node]
        } else {
            Secs::ZERO
        };
        let exec = exec_in(row, first);
        // The earliest queue end, or the first one not after `now`: past
        // that member, `max(now, ·)` of the minimum is `now` whatever
        // the rest hold.
        let mut free = Secs(f64::INFINITY);
        for &f in &view.worker_free[first..end] {
            free = free.min(f);
            if f <= view.now {
                break;
            }
        }
        self.classes.push(Class {
            first,
            end,
            node,
            transfer,
            exec,
            completion: completion(view.now, free, transfer, exec),
        });
    }

    /// The one pass over the operands, one registry lookup each: add each
    /// operand's link time to every node lacking a replica (dmda's
    /// transfer model: host-held data crosses one host-to-device link,
    /// GPU-only data is copied back to the host or across to another
    /// GPU), and, for [`Rule::Dmdas`], its bytes to every node holding
    /// one. Both walk the set bits of the operand's replica mask or of
    /// its complement, so each node still adds its terms in operand
    /// order.
    fn fill_nodes(&mut self, view: &SchedView, operands: &[(DataId, AccessMode)], nodes: usize) {
        let residency = self.rule == Rule::Dmdas;
        self.transfer.clear();
        self.transfer.resize(nodes, Secs::ZERO);
        self.resident.clear();
        self.resident.resize(nodes, Bytes::ZERO);
        // `check_layout` bounds `nodes` to 1..=64.
        let all = u64::MAX >> (64 - nodes);
        for &(d, mode) in operands {
            let (bytes, held) = view.data.held(d);
            if residency {
                for i in set_bits(held & all) {
                    self.resident[i] += bytes;
                }
            }
            if !mode.reads() {
                continue;
            }
            // Bit and node 0 are the host.
            let on_host = held & 1 != 0;
            if !on_host {
                self.transfer[0] += view.links.d2h_time(bytes);
            }
            let lacking = !held & all & !1;
            if lacking != 0 {
                let to_gpu = if on_host {
                    view.links.h2d_time(bytes)
                } else {
                    view.links.d2d_time(bytes)
                };
                for i in set_bits(lacking) {
                    self.transfer[i] += to_gpu;
                }
            }
        }
    }

    /// The capable workers' classes, in worker order.
    pub(crate) fn classes(&self) -> &[Class] {
        &self.classes
    }

    /// The first class holding the earliest completion; `min_by` keeps
    /// the first of equal minima.
    pub(crate) fn earliest_class(&self) -> &Class {
        self.classes
            .iter()
            .min_by(|a, b| a.completion.value().total_cmp(&b.completion.value()))
            .expect("cost() leaves at least one class")
    }

    /// The first worker of earliest completion (`dm`, `dmda`): the first
    /// member of the first earliest class whose completion has the class's
    /// bits. Matching bits, not the earliest queue end, keeps the worker a
    /// per-worker scan picks when distinct queue ends round to one
    /// completion.
    pub(crate) fn first_earliest(&self, view: &SchedView) -> Choice {
        let c = self.earliest_class();
        let (worker, _) = c
            .members(view)
            .find(|&(_, t)| t.value().to_bits() == c.completion.value().to_bits())
            .expect("a class's earliest completion is a member's");
        self.choice(view, c, worker)
    }

    /// Bytes of the task's operands resident on `c`'s memory node (costed
    /// under [`Rule::Dmdas`] only).
    pub(crate) fn resident(&self, c: &Class) -> Bytes {
        self.resident[c.node]
    }

    /// Choose `worker`, a member of `c`, handing back the terms that were
    /// costed. Debug builds check the choice against the rule applied to
    /// each worker on its own.
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    pub(crate) fn choice(&self, view: &SchedView, c: &Class, worker: WorkerId) -> Choice {
        assert!(
            (c.first..c.end).contains(&worker),
            "worker {worker} is not in its class"
        );
        let choice = Choice {
            worker,
            transfer: self.rule.transfers().then_some(c.transfer),
            exec: Some(c.exec),
        };
        #[cfg(debug_assertions)]
        self.check(view, choice);
        choice
    }

    /// The debug check of every decision: each class must hold exactly
    /// the per-worker estimates of its members and their earliest
    /// completion, and the choice must be the one [`Self::rule`] makes
    /// over the workers costed one by one through the public estimates.
    #[cfg(debug_assertions)]
    fn check(&self, view: &SchedView, choice: Choice) {
        struct Cand {
            worker: WorkerId,
            transfer: Secs,
            exec: Secs,
            completion: Secs,
            resident: Bytes,
            energy: Joules,
        }
        let task = self.task;
        let cands: Vec<Cand> = view
            .capable_workers(task)
            .map(|w| {
                let transfer = if self.rule.transfers() {
                    view.transfer_estimate(task, w)
                } else {
                    Secs::ZERO
                };
                let exec = view.exec_estimate(task, w);
                Cand {
                    worker: w.id,
                    transfer,
                    exec,
                    completion: completion(view.now, view.worker_free[w.id], transfer, exec),
                    resident: view.resident_bytes(task, w),
                    energy: view.energy_estimate(task, w),
                }
            })
            .collect();
        let bits = |x: f64| x.to_bits();
        let mut next = cands.iter();
        for c in &self.classes {
            let members: Vec<&Cand> = next.by_ref().take(c.end - c.first).collect();
            let earliest = members
                .iter()
                .map(|m| m.completion)
                .fold(Secs(f64::INFINITY), Secs::min);
            assert_eq!(bits(c.completion.value()), bits(earliest.value()));
            for m in &members {
                let same = (c.first..c.end).contains(&m.worker)
                    && bits(m.transfer.value()) == bits(c.transfer.value())
                    && bits(m.exec.value()) == bits(c.exec.value())
                    && bits(m.energy.value()) == bits(members[0].energy.value())
                    && (self.rule != Rule::Dmdas
                        || bits(m.resident.value()) == bits(self.resident(c).value()));
                assert!(same, "worker {} differs from its class {c:?}", m.worker);
            }
        }
        assert!(next.next().is_none(), "a capable worker is in no class");

        // The first candidate whose key is strictly below every earlier one.
        let first_min = |key: &dyn Fn(&Cand) -> f64| {
            let mut best = &cands[0];
            for c in &cands[1..] {
                if key(c) < key(best) {
                    best = c;
                }
            }
            best
        };
        let want = match self.rule {
            Rule::Dm | Rule::Dmda => first_min(&|c| c.completion.value()),
            Rule::Dmdas => {
                let best = first_min(&|c| c.completion.value());
                let limit = best.completion.value() + best.exec.value() * dmdas::TIE_FRACTION;
                let mut pick = best;
                for c in cands.iter().filter(|c| c.completion.value() <= limit) {
                    let (r, p) = (c.resident.value(), pick.resident.value());
                    if r > p || (r == p && c.completion <= pick.completion) {
                        pick = c;
                    }
                }
                pick
            }
            Rule::Energy { lambda } => {
                let t_min = cands
                    .iter()
                    .map(|c| c.completion.value())
                    .fold(f64::INFINITY, f64::min);
                let e_min = cands
                    .iter()
                    .map(|c| c.energy.value())
                    .fold(f64::INFINITY, f64::min);
                first_min(&|c| {
                    (1.0 - lambda) * c.completion.value() / t_min.max(1e-12)
                        + lambda * c.energy.value() / e_min.max(1e-12)
                })
            }
        };
        let want = Choice {
            worker: want.worker,
            transfer: self.rule.transfers().then_some(want.transfer),
            exec: Some(want.exec),
        };
        let key = |c: Choice| {
            (
                c.worker,
                c.transfer.map(|t| bits(t.value())),
                c.exec.map(|e| bits(e.value())),
            )
        };
        assert_eq!(
            key(choice),
            key(want),
            "{:?} on task {task}: the class decision differs from the per-worker rule",
            self.rule
        );
    }
}

/// The indices of `mask`'s set bits, ascending.
fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let i = mask.trailing_zeros() as usize;
        mask &= mask.checked_sub(1)?;
        Some(i)
    })
}

/// Expected execution time of `worker` from its footprint's row.
fn exec_in(row: &PerfRow, worker: WorkerId) -> Secs {
    row.expected_time_or_extrapolate(worker)
        .unwrap_or(UNKNOWN_TIME)
}

/// A policy's decision: the chosen worker, and whichever parts of its
/// expected cost the policy computed on the way. The executor advances the
/// worker's expected queue end by `transfer + exec`, computing only the
/// parts left out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Choice {
    pub worker: WorkerId,
    /// [`SchedView::transfer_estimate`] on `worker`, if the policy costed it.
    pub transfer: Option<Secs>,
    /// [`SchedView::exec_estimate`] on `worker`, if the policy costed it.
    pub exec: Option<Secs>,
}

/// A scheduling policy: orders each batch of newly-ready tasks, then
/// assigns each to a worker.
pub trait Scheduler {
    fn name(&self) -> &'static str;

    /// Reorder the ready batch before assignment. Default: submission
    /// (FIFO) order.
    fn order(&mut self, _ready: &mut Vec<TaskId>, _view: &SchedView) {}

    /// Pick the worker for `task`. Must return a capable worker, and only
    /// estimates equal to [`SchedView::transfer_estimate`] and
    /// [`SchedView::exec_estimate`] on it.
    fn choose(&mut self, task: TaskId, view: &SchedView) -> Choice;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names() {
        assert_eq!(SchedPolicy::Dmdas.name(), "dmdas");
        assert_eq!(SchedPolicy::Random { seed: 1 }.name(), "random");
        assert_eq!(SchedPolicy::EnergyAware { lambda: 0.5 }.name(), "energy");
    }

    #[test]
    fn policies_build() {
        for p in [
            SchedPolicy::Eager,
            SchedPolicy::Random { seed: 42 },
            SchedPolicy::Dm,
            SchedPolicy::Dmda,
            SchedPolicy::Dmdas,
            SchedPolicy::EnergyAware { lambda: 0.3 },
        ] {
            let s = p.build();
            assert_eq!(s.name(), p.name());
        }
    }
}
