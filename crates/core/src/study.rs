//! The one study entry point: [`try_run_study_with`] runs one measured
//! configuration with whatever [`StudyOptions`] attaches — the online
//! controller, explicit watt caps, observers such as a power timeline,
//! the critical-path profiler or a Perfetto sink — and reports malformed
//! input as [`InvalidConfig`] instead of panicking.
//!
//! Every other study call in the workspace (plain, traced, profiled,
//! controlled, at explicit caps, Perfetto-instrumented) is this function
//! with a different options value, so they share one validation path,
//! one observer pipeline and one executor call.
//!
//! Identity: a controlled run never aliases a static one —
//! [`RunConfig::controlled_cache_key`] appends the controller's canonical
//! bytes under a fresh tag, leaving [`RunConfig::cache_key`] untouched.
//!
//! Prepared graphs: the task graph depends only on the run's
//! `GraphShape` — `(op, nt, nb, precision)` — and the simulator reads
//! it through `&TaskGraph`; the only per-run mutable state is the
//! [`DataRegistry`]. So a built graph, with the registry its build left,
//! is kept and reused by every later run of its shape, which clones only
//! the registry. Where it is kept depends on its size. A graph of at
//! most `MAX_SHARED_TASKS` tasks — every served paper-space shape — goes
//! into one process-wide table of at most `SHARED_TASK_BUDGET` tasks,
//! least recently used evicted first, so a served miss on any thread
//! reuses a shape any thread built. A larger graph, up to
//! `MAX_KEPT_TASKS`, stays in its thread's one-entry slot: the sweep
//! driver hands each worker adjacent rows of one ladder, which differ
//! only in their caps, so most sweep runs hit it without a lock. A
//! lookup reads the slot, then the table, and builds only if both miss;
//! a build empties the slot first, so outside nested studies a thread
//! never holds two large graphs. A graph over `MAX_KEPT_TASKS` is used
//! once and dropped. A run cannot tell a kept graph from a fresh build.

use crate::{InvalidConfig, RunConfig, RunReport};
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, PoisonError};
use ugpc_control::{ControlPlane, ControllerSpec, DecisionRecord, TickRecord};
use ugpc_hwsim::{OpKind, Precision};
use ugpc_linalg::{build_gemm, build_potrf};
use ugpc_runtime::{
    simulate_controlled, ControlHook, DataRegistry, Observer, PerfModel, SimOptions,
    StatsCollector, TaskGraph, TraceBuilder,
};

/// Everything [`RunConfig::build_graph`] reads: the key of a prepared
/// graph. The builder reads only these fields, so a new input to the
/// graph must be added here, and then it is part of the key too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct GraphShape {
    op: OpKind,
    nt: usize,
    nb: usize,
    precision: Precision,
}

impl GraphShape {
    pub(crate) fn of(cfg: &RunConfig) -> Self {
        GraphShape {
            op: cfg.op,
            nt: cfg.nt(),
            nb: cfg.nb,
            precision: cfg.precision,
        }
    }

    /// Build the operation's task graph, registering its tiles in `reg`.
    pub(crate) fn build(self, reg: &mut DataRegistry) -> TaskGraph {
        match self.op {
            OpKind::Gemm => build_gemm(self.nt, self.nb, self.precision, reg).graph,
            OpKind::Potrf => build_potrf(self.nt, self.nb, self.precision, reg).graph,
        }
    }
}

/// The largest graph, in tasks, a thread keeps after its run. POTRF at
/// nt 60 (37 820 tasks, the largest paper-scale graph) is kept; a served
/// GEMM at nt 64 (262 144 tasks) is built, used and dropped.
const MAX_KEPT_TASKS: usize = 1 << 16;

/// The largest graph, in tasks, the process-wide table shares. The
/// largest served paper-space graph, GEMM nt 8, has 512 tasks.
const MAX_SHARED_TASKS: usize = 1 << 9;

/// Tasks the process-wide table holds in total, whatever shapes clients
/// ask for.
const SHARED_TASK_BUDGET: usize = 1 << 13;

/// A built graph and the registry state its build left, before any run.
struct Prepared {
    graph: TaskGraph,
    registry: DataRegistry,
}

impl Prepared {
    fn build(shape: GraphShape) -> Self {
        let mut registry = DataRegistry::new();
        let graph = shape.build(&mut registry);
        Prepared { graph, registry }
    }
}

/// Small prepared graphs any thread may reuse, by shape, each with the
/// tick of its last use.
#[derive(Default)]
struct SharedGraphs {
    graphs: HashMap<GraphShape, (Arc<Prepared>, u64)>,
    tasks: usize,
    clock: u64,
}

impl SharedGraphs {
    fn get(&mut self, shape: GraphShape) -> Option<Arc<Prepared>> {
        let (prepared, used) = self.graphs.get_mut(&shape)?;
        self.clock += 1;
        *used = self.clock;
        Some(Arc::clone(prepared))
    }

    /// Keep `prepared`, a graph of at most [`MAX_SHARED_TASKS`] tasks,
    /// evicting least recently used graphs until it fits the budget.
    fn insert(&mut self, shape: GraphShape, prepared: &Arc<Prepared>) {
        let tasks = prepared.graph.len();
        debug_assert!(tasks <= MAX_SHARED_TASKS, "{tasks} tasks to share");
        if self.graphs.contains_key(&shape) {
            return;
        }
        while self.tasks + tasks > SHARED_TASK_BUDGET {
            // Ticks are unique, so the map's order cannot change the pick.
            let oldest = self
                .graphs
                .iter() // lint:allow hash-iteration
                .min_by_key(|(_, (_, used))| *used)
                .map(|(&shape, _)| shape);
            let Some((evicted, _)) = oldest.and_then(|shape| self.graphs.remove(&shape)) else {
                break;
            };
            self.tasks -= evicted.graph.len();
        }
        self.clock += 1;
        self.graphs
            .insert(shape, (Arc::clone(prepared), self.clock));
        self.tasks += tasks;
    }
}

/// Every update leaves the table's count equal to its graphs' tasks, so
/// a table a panicking thread left behind is still valid.
fn lock(shared: &Mutex<SharedGraphs>) -> MutexGuard<'_, SharedGraphs> {
    shared.lock().unwrap_or_else(PoisonError::into_inner)
}

static SHARED: LazyLock<Mutex<SharedGraphs>> = LazyLock::new(Default::default);

thread_local! {
    /// This thread's last prepared large graph and its shape.
    static PREPARED: Cell<Option<(GraphShape, Arc<Prepared>)>> = const { Cell::new(None) };
}

/// The prepared graph of `shape`: the thread's kept one, else the
/// process-wide table's, else a fresh build.
fn prepared(shape: GraphShape) -> Arc<Prepared> {
    prepared_from(&SHARED, shape)
}

/// [`prepared`] with `shared` as the process-wide table.
fn prepared_from(shared: &Mutex<SharedGraphs>, shape: GraphShape) -> Arc<Prepared> {
    let slot = PREPARED.take();
    let hit = match &slot {
        Some((key, kept)) if *key == shape => Some(Arc::clone(kept)),
        _ => lock(shared).get(shape),
    };
    if let Some(hit) = hit {
        PREPARED.set(slot);
        return hit;
    }
    // Dropped before the build: one large graph per thread at a time.
    drop(slot);
    let fresh = Arc::new(Prepared::build(shape));
    let tasks = fresh.graph.len();
    if tasks <= MAX_SHARED_TASKS {
        lock(shared).insert(shape, &fresh);
    } else if tasks <= MAX_KEPT_TASKS {
        PREPARED.set(Some((shape, Arc::clone(&fresh))));
    }
    fresh
}

/// What rides one run besides the report builders, and how it executes.
/// `StudyOptions::default()` is a plain [`crate::run_study`].
#[derive(Default)]
pub struct StudyOptions<'o> {
    /// Re-cap the GPUs mid-run under this online controller, starting
    /// from the configuration's caps ([`Study::control`]).
    pub controller: Option<ControllerSpec>,
    /// Explicit per-GPU watt caps applied instead of the letter levels
    /// of `cfg.gpu_config` (the offline sweep's evaluator).
    pub caps_w: Option<Vec<f64>>,
    /// Observers on the executor event stream — power timelines, the
    /// critical-path profiler, Perfetto sinks, progress meters.
    /// Read-only witnesses: they never change a number.
    pub observers: Vec<&'o mut dyn Observer>,
}

/// The outcome of [`try_run_study_with`]: the report, plus the
/// controller's side of the run when one rode it.
#[derive(Debug, Clone)]
pub struct Study {
    pub report: RunReport,
    /// Present with [`StudyOptions::controller`].
    pub control: Option<ControlOutcome>,
}

/// The controller's side of a controlled run.
#[derive(Debug, Clone)]
pub struct ControlOutcome {
    /// The objective the controller maximized (its wire name).
    pub objective: String,
    /// Every control tick, in event-time order.
    pub ticks: Vec<TickRecord>,
    /// Total re-cap commands applied mid-run.
    pub recaps: usize,
    /// The caps the searches rested at when the run finished (W).
    pub final_caps_w: Vec<f64>,
    /// True if every device's search exhausted its step budget in-run.
    pub converged: bool,
    /// One record per (tick, device): every gate taken, every quorum
    /// vote, every epsilon-guard outcome. Write-only instrumentation
    /// inside [`ControlPlane`], so it never changes the run.
    pub journal: Vec<DecisionRecord>,
}

/// The wire and file shape of one controlled run: the usual report plus
/// the controller's telemetry (without the decision journal).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ControlledRun {
    pub report: RunReport,
    /// The objective the controller maximized (its wire name).
    pub objective: String,
    /// Every control tick, in event-time order.
    pub ticks: Vec<TickRecord>,
    /// Total re-cap commands applied mid-run.
    pub recaps: usize,
    /// The caps the searches rested at when the run finished (W).
    pub final_caps_w: Vec<f64>,
    /// True if every device's search exhausted its step budget in-run.
    pub converged: bool,
}

impl Study {
    /// The report with the controller's telemetry (`None` without a
    /// controller).
    pub fn controlled(self) -> Option<ControlledRun> {
        Some(self.control?.with_report(self.report))
    }
}

impl ControlOutcome {
    /// The wire shape of the controlled run that produced `report`.
    pub fn with_report(self, report: RunReport) -> ControlledRun {
        ControlledRun {
            report,
            objective: self.objective,
            ticks: self.ticks,
            recaps: self.recaps,
            final_caps_w: self.final_caps_w,
            converged: self.converged,
        }
    }
}

/// Execute one measured run: apply caps, calibrate, simulate, report —
/// with `options` deciding what else rides the run. Malformed
/// configurations, controller specs and explicit caps are errors, never
/// panics, so services can feed it wire input.
pub fn try_run_study_with(
    cfg: &RunConfig,
    options: StudyOptions<'_>,
) -> Result<Study, InvalidConfig> {
    study_on(cfg, options, prepared)
}

/// [`try_run_study_with`] on the graph `prepare` returns for the run's
/// shape, asked for once the configuration is known to be valid.
fn study_on(
    cfg: &RunConfig,
    options: StudyOptions<'_>,
    prepare: impl FnOnce(GraphShape) -> Arc<Prepared>,
) -> Result<Study, InvalidConfig> {
    let StudyOptions {
        controller,
        caps_w,
        mut observers,
    } = options;
    let mut node = cfg.capped_node(caps_w.as_deref())?;
    let mut plane = match controller {
        Some(spec) => {
            spec.validate().map_err(InvalidConfig)?;
            Some(ControlPlane::new(spec, &node))
        }
        None => None,
    };
    let prepared = prepare(GraphShape::of(cfg));
    let mut reg = prepared.registry.clone();
    let mut builder = TraceBuilder::new();
    let mut stats = StatsCollector::new();
    {
        let mut all: Vec<&mut dyn Observer> = Vec::with_capacity(2 + observers.len());
        all.push(&mut builder);
        all.push(&mut stats);
        for o in observers.iter_mut() {
            all.push(&mut **o);
        }
        let sim = SimOptions {
            policy: cfg.scheduler,
            keep_records: cfg.keep_records,
            ..Default::default()
        };
        simulate_controlled(
            &mut node,
            &prepared.graph,
            &mut reg,
            sim,
            &mut PerfModel::new(),
            &mut all,
            plane.as_mut().map(|p| p as &mut dyn ControlHook),
        );
    }
    Ok(Study {
        report: RunReport::from_parts(cfg, &builder.into_trace(), &stats.into_stats()),
        control: plane.map(|mut plane| ControlOutcome {
            objective: plane.spec().objective.name().to_string(),
            ticks: plane.ticks().to_vec(),
            recaps: plane.recaps(),
            final_caps_w: plane.final_caps().iter().map(|c| c.value()).collect(),
            converged: plane.converged(),
            journal: plane.take_journal(),
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_study;
    use ugpc_control::ObjectiveKind;
    use ugpc_hwsim::{OpKind, PlatformId, Precision};

    fn cfg() -> RunConfig {
        RunConfig::paper(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double).scaled_down(2)
    }

    fn spec() -> ControllerSpec {
        ControllerSpec::new(ObjectiveKind::GflopsPerWatt).with_period(0.1)
    }

    fn controlled(cfg: &RunConfig, spec: ControllerSpec) -> Study {
        let options = StudyOptions {
            controller: Some(spec),
            ..Default::default()
        };
        try_run_study_with(cfg, options).unwrap()
    }

    fn at_caps(cfg: &RunConfig, caps_w: &[f64]) -> Result<RunReport, InvalidConfig> {
        let options = StudyOptions {
            caps_w: Some(caps_w.to_vec()),
            ..Default::default()
        };
        try_run_study_with(cfg, options).map(|s| s.report)
    }

    #[test]
    fn controller_recaps_mid_run_and_improves_efficiency() {
        let baseline = run_study(&cfg());
        let run = controlled(&cfg(), spec()).controlled().unwrap();
        assert!(run.recaps > 0, "controller never re-capped");
        assert!(!run.ticks.is_empty());
        // Re-caps take effect mid-run: the controlled run's report is not
        // the uncontrolled one.
        assert_ne!(run.report.total_energy_j, baseline.total_energy_j);
        // Chasing Gflop/s/W from TDP must not cost efficiency.
        assert!(
            run.report.efficiency_gflops_w > baseline.efficiency_gflops_w,
            "controlled {} vs static-H {}",
            run.report.efficiency_gflops_w,
            baseline.efficiency_gflops_w
        );
        // Final caps stay within the device window and moved off TDP.
        for &cap in &run.final_caps_w {
            assert!((100.0..=400.0).contains(&cap), "cap {cap}");
        }
        assert!(run.final_caps_w.iter().any(|&c| c < 400.0));
    }

    #[test]
    fn disabled_controller_reproduces_run_study_exactly() {
        let run = controlled(&cfg(), spec().disabled()).controlled().unwrap();
        assert_eq!(run.report, run_study(&cfg()));
        assert_eq!(run.recaps, 0);
        assert!(run.ticks.is_empty());
    }

    #[test]
    fn controlled_runs_are_deterministic() {
        let a = controlled(&cfg(), spec()).controlled().unwrap();
        let b = controlled(&cfg(), spec()).controlled().unwrap();
        assert_eq!(a.report, b.report);
        assert_eq!(a.final_caps_w, b.final_caps_w);
        assert_eq!(a.recaps, b.recaps);
    }

    #[test]
    fn explicit_caps_reproduce_the_letter_levels() {
        // Setting each GPU's TDP explicitly is the `HHHH` static run.
        let tdp = ugpc_hwsim::GpuSpec::of(ugpc_hwsim::GpuModel::A100Sxm4_40).tdp;
        let at_tdp = at_caps(&cfg(), &[tdp.value(); 4]).unwrap();
        assert_eq!(at_tdp, run_study(&cfg()));
        // A deep uniform cap costs time and saves energy.
        let capped = at_caps(&cfg(), &[216.0; 4]).unwrap();
        assert!(capped.makespan_s > at_tdp.makespan_s);
        assert!(capped.total_energy_j < at_tdp.total_energy_j);
        // Wrong arity and out-of-window caps are errors, not panics.
        assert!(at_caps(&cfg(), &[216.0; 2]).is_err());
        assert!(at_caps(&cfg(), &[1000.0; 4]).is_err());
    }

    #[test]
    fn journal_covers_every_decision() {
        let study = controlled(&cfg(), spec());
        let control = study.control.as_ref().unwrap();
        // Every (tick, device) pair produced exactly one decision record,
        // and re-cap records match the run's re-cap count.
        let devices = control.final_caps_w.len();
        assert_eq!(control.journal.len(), control.ticks.len() * devices);
        assert_eq!(
            control.journal.iter().filter(|d| d.recap).count(),
            control.recaps
        );
        // With the default single-window quorum (`votes: 1`), every
        // ungated decision fires the capper: gated decisions carry a
        // reason and no outcome, scored ones carry both a score and an
        // epsilon-guard outcome.
        for d in &control.journal {
            assert_eq!(d.gate.is_none(), d.outcome.is_some(), "{d:?}");
            if d.outcome.is_some() {
                assert!(d.score.is_some(), "{d:?}");
            }
        }
        assert!(control.journal.iter().any(|d| d.outcome.is_some()));
    }

    /// `cfg`'s report on a graph built for this run alone.
    fn fresh(cfg: &RunConfig) -> RunReport {
        let build = |shape| Arc::new(Prepared::build(shape));
        study_on(cfg, StudyOptions::default(), build)
            .unwrap()
            .report
    }

    /// `cfg`'s report with `shared` as the process-wide table.
    fn study_in(shared: &Mutex<SharedGraphs>, cfg: &RunConfig) -> RunReport {
        let lookup = |shape| prepared_from(shared, shape);
        study_on(cfg, StudyOptions::default(), lookup)
            .unwrap()
            .report
    }

    fn potrf() -> RunConfig {
        RunConfig::paper(PlatformId::Amd4A100, OpKind::Potrf, Precision::Single).scaled_down(8)
    }

    /// GEMM nt 13, 2 197 tasks: a graph the slot keeps, not the table.
    fn large() -> RunConfig {
        RunConfig::paper(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double)
    }

    /// GEMM nt 12, 1 728 tasks: another shape for the slot.
    fn large_b() -> RunConfig {
        let mut cfg = large();
        cfg.n = 12 * cfg.nb;
        cfg
    }

    fn gemm(nt: usize, nb: usize) -> GraphShape {
        GraphShape {
            op: OpKind::Gemm,
            nt,
            nb,
            precision: Precision::Double,
        }
    }

    #[test]
    fn kept_graphs_reproduce_fresh_builds() {
        use ugpc_runtime::SchedPolicy;
        let a = cfg();
        let b = potrf();
        assert_ne!(GraphShape::of(&a), GraphShape::of(&b));
        let small = [
            a.clone(),
            a.clone().with_gpu_config("BBBB".parse().unwrap()),
            b.clone().with_scheduler(SchedPolicy::Dmda),
            b.clone().with_gpu_config("LHBH".parse().unwrap()),
            // A's tiles in single precision: a shape of its own.
            RunConfig::paper(PlatformId::Amd4A100, OpKind::Gemm, Precision::Single).scaled_down(2),
            a.clone().with_scheduler(SchedPolicy::Dmda),
            a.with_gpu_config("LLBB".parse().unwrap()),
        ];
        let slot = [
            large(),
            large().with_gpu_config("LLBB".parse().unwrap()),
            large_b().with_scheduler(SchedPolicy::Dmda),
            large(),
        ];
        for run in &small {
            assert!(Prepared::build(GraphShape::of(run)).graph.len() <= MAX_SHARED_TASKS);
        }
        let shared = Mutex::new(SharedGraphs::default());
        // This thread builds each small shape once, then reads the table;
        // the large ones come from its slot after their first build.
        for run in small.iter().chain(&slot) {
            assert_eq!(study_in(&shared, run), fresh(run), "{run:?}");
        }
        // Another thread finds every small shape in the table.
        std::thread::scope(|s| {
            s.spawn(|| {
                for run in &small {
                    assert!(lock(&shared).graphs.contains_key(&GraphShape::of(run)));
                    assert_eq!(study_in(&shared, run), fresh(run), "{run:?}");
                }
            });
        });
    }

    #[test]
    fn a_shape_built_on_one_thread_is_served_to_another() {
        let shared = Mutex::new(SharedGraphs::default());
        let shape = GraphShape::of(&cfg());
        let on_new_thread =
            || std::thread::scope(|s| s.spawn(|| prepared_from(&shared, shape)).join().unwrap());
        let built = on_new_thread();
        let served = on_new_thread();
        assert!(
            Arc::ptr_eq(&built, &served),
            "the second thread built again"
        );
    }

    #[test]
    fn the_table_keeps_its_budget_and_evicts_least_recently_used_first() {
        let mut table = SharedGraphs::default();
        let at = |nb: usize| {
            let shape = gemm(8, 64 * nb);
            (shape, Arc::new(Prepared::build(shape)))
        };
        let graphs: Vec<_> = (1..=17).map(at).collect();
        assert_eq!(graphs[0].1.graph.len(), MAX_SHARED_TASKS);
        let held = |table: &SharedGraphs, i: usize| table.graphs.contains_key(&graphs[i].0);
        for (shape, graph) in &graphs[..16] {
            table.insert(*shape, graph);
        }
        assert_eq!(table.tasks, SHARED_TASK_BUDGET);
        assert!((0..16).all(|i| held(&table, i)));
        // Touch the oldest; the next insert evicts the second oldest.
        assert!(table.get(graphs[0].0).is_some());
        table.insert(graphs[16].0, &graphs[16].1);
        assert_eq!(table.tasks, SHARED_TASK_BUDGET);
        assert!(held(&table, 0) && !held(&table, 1) && held(&table, 16));
        // A 27-task graph evicts one more, again the least recently used.
        let tiny = gemm(3, 64);
        table.insert(tiny, &Arc::new(Prepared::build(tiny)));
        assert!(!held(&table, 2) && held(&table, 3));
        assert_eq!(table.tasks, 15 * MAX_SHARED_TASKS + 27);
        let sum: usize = table.graphs.values().map(|(g, _)| g.graph.len()).sum();
        assert_eq!(table.tasks, sum);
        // Re-inserting a held shape changes nothing.
        table.insert(graphs[16].0, &graphs[16].1);
        assert_eq!(table.tasks, sum);
    }

    #[test]
    fn graphs_over_the_shared_bound_never_enter_the_table() {
        let shared = Mutex::new(SharedGraphs::default());
        let over = prepared_from(&shared, gemm(9, 64));
        assert!(over.graph.len() > MAX_SHARED_TASKS);
        assert!(lock(&shared).graphs.is_empty());
        // The slot keeps it instead.
        assert!(Arc::ptr_eq(&over, &prepared_from(&shared, gemm(9, 64))));
        prepared_from(&shared, gemm(8, 64));
        assert_eq!(lock(&shared).tasks, MAX_SHARED_TASKS);
    }

    #[test]
    fn a_thread_keeps_one_graph() {
        let a = GraphShape::of(&large());
        let kept = prepared(a);
        assert!(kept.graph.len() > MAX_SHARED_TASKS);
        assert!(Arc::ptr_eq(&kept, &prepared(a)), "same shape, same graph");
        let weak = Arc::downgrade(&kept);
        drop(kept);
        run_study(&large_b());
        assert!(weak.upgrade().is_none(), "shape A outlived a run of B");
    }

    #[test]
    fn graphs_over_the_bound_are_not_kept() {
        let mut big = RunConfig::paper(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double);
        big.n = 41 * big.nb;
        let graph = prepared(GraphShape::of(&big));
        assert!(graph.graph.len() > MAX_KEPT_TASKS);
        assert_eq!(Arc::strong_count(&graph), 1, "the slot kept it");
        assert!(PREPARED.take().is_none());
    }

    /// Runs a study of another shape when the outer run starts.
    struct Nested {
        cfg: RunConfig,
        report: Option<RunReport>,
    }

    impl Observer for Nested {
        fn on_start(&mut self, _ctx: &ugpc_runtime::RunContext<'_>) {
            self.report = Some(run_study(&self.cfg));
        }
    }

    #[test]
    fn studies_nested_in_an_observer_match_standalone_runs() {
        // The inner shape replaces the outer one in the slot while the
        // outer run still reads its graph, or comes from the table.
        for (outer, inner) in [(large(), large_b()), (large(), cfg()), (cfg(), large())] {
            let mut nested = Nested {
                cfg: inner.clone(),
                report: None,
            };
            let options = StudyOptions {
                observers: vec![&mut nested],
                ..Default::default()
            };
            let report = try_run_study_with(&outer, options).unwrap().report;
            assert_eq!(report, fresh(&outer));
            assert_eq!(nested.report.unwrap(), fresh(&inner));
        }
    }

    #[test]
    fn options_validate_both_layers() {
        let run = |cfg: &RunConfig, spec: ControllerSpec| {
            let options = StudyOptions {
                controller: Some(spec),
                ..Default::default()
            };
            try_run_study_with(cfg, options).map(|_| ())
        };
        assert!(run(&cfg(), spec()).is_ok());
        assert!(run(&cfg(), spec().with_period(-1.0)).is_err());
        let mut bad_cfg = cfg();
        bad_cfg.nb += 1;
        assert!(run(&bad_cfg, spec()).is_err());
    }
}
