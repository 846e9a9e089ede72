//! Observer-neutrality differential suite: observers are read-only
//! witnesses of the executor event stream, so attaching any combination
//! of them must not change a run's outcome by a single bit.
//!
//! Three configurations of the same run are compared:
//!   1. zero observers (the executor's bare `RunSummary`),
//!   2. only the `TraceBuilder` (what `simulate` attaches),
//!   3. every sink at once (trace, event log, stats, Perfetto, power).
//!
//! The traces must serialize byte-identically, and the summary pair
//! (makespan, energy) must be bitwise equal across all three.

#![allow(clippy::unwrap_used)]

use ugpc::linalg::build_potrf;
use ugpc::runtime::{
    simulate, simulate_observed, DataRegistry, EventLog, Observer, PerfModel, PerfettoSink,
    PowerTimeline, QueueBackend, RunSummary, SimOptions, StatsCollector, TraceBuilder,
};
use ugpc_hwsim::{Node, OpKind, PlatformId, Precision};

const NT: usize = 5;
const NB: usize = 2880;

fn fresh() -> (Node, ugpc::runtime::TaskGraph, DataRegistry) {
    let mut node = Node::new(PlatformId::Intel2V100);
    ugpc::capping::apply_gpu_caps(
        &mut node,
        &"HB".parse().unwrap(),
        OpKind::Potrf,
        Precision::Double,
    )
    .unwrap();
    let mut reg = DataRegistry::new();
    let op = build_potrf(NT, NB, Precision::Double, &mut reg);
    (node, op.graph, reg)
}

fn opts() -> SimOptions {
    SimOptions {
        keep_records: true,
        ..Default::default()
    }
}

fn run_bare() -> RunSummary {
    let (mut node, graph, mut reg) = fresh();
    let mut perf = PerfModel::new();
    simulate_observed(&mut node, &graph, &mut reg, opts(), &mut perf, &mut [])
}

#[test]
fn observers_never_perturb_the_run() {
    // 1. Zero observers.
    let bare = run_bare();

    // 2. TraceBuilder only (the `simulate` wrapper).
    let (mut node, graph, mut reg) = fresh();
    let trace_only = simulate(&mut node, &graph, &mut reg, opts());

    // 3. Every sink at once.
    let (mut node, graph, mut reg) = fresh();
    let mut builder = TraceBuilder::new();
    let mut log = EventLog::new();
    let mut stats = StatsCollector::new();
    let mut perfetto = PerfettoSink::new();
    let mut timeline = PowerTimeline::new(32);
    let mut profiler = ugpc::telemetry::CriticalPathProfiler::new();
    let all_summary = {
        let mut observers: [&mut dyn Observer; 6] = [
            &mut builder,
            &mut log,
            &mut stats,
            &mut perfetto,
            &mut timeline,
            &mut profiler,
        ];
        let mut perf = PerfModel::new();
        simulate_observed(
            &mut node,
            &graph,
            &mut reg,
            opts(),
            &mut perf,
            &mut observers,
        )
    };
    let full_trace = builder.into_trace();

    // Bitwise-equal outcomes across all three configurations.
    assert_eq!(bare.makespan, trace_only.makespan);
    assert_eq!(bare.energy, trace_only.energy);
    assert_eq!(bare, all_summary);

    // The rebuilt traces serialize byte-identically.
    assert_eq!(
        serde_json::to_string(&trace_only).unwrap(),
        serde_json::to_string(&full_trace).unwrap(),
        "TraceBuilder output must not depend on co-attached observers"
    );

    // The sinks are self-consistent with the trace they rode along with.
    assert_eq!(
        stats.stats().tasks,
        full_trace.cpu_tasks + full_trace.gpu_tasks
    );
    assert_eq!(stats.stats().evictions, full_trace.evictions);
    assert_eq!(stats.stats().writebacks, full_trace.writebacks);
    assert_eq!(log.completions().len(), graph.len());
    let json = perfetto.into_json();
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    let profile = timeline.into_profile();
    assert_eq!(profile.makespan_s, bare.makespan.value());

    // The critical-path profiler reproduces the run's totals exactly:
    // its makespan is the summary's (bitwise), and its busy time/energy
    // are the same event-order folds the event log performs.
    let attribution = profiler.into_report();
    assert_eq!(attribution.makespan_s.to_bits(), bare.makespan.0.to_bits());
    assert_eq!(
        attribution.total_busy_s.to_bits(),
        log.busy_time().0.to_bits(),
        "busy-time fold must match the event log bit-for-bit"
    );
    assert_eq!(
        attribution.total_busy_energy_j.to_bits(),
        log.busy_energy().0.to_bits(),
        "busy-energy fold must match the event log bit-for-bit"
    );
    assert_eq!(attribution.graph_tasks, graph.len());
    assert_eq!(attribution.path_len, graph.critical_path_len());
    attribution
        .check_consistency(1e-12)
        .expect("attribution identities");
}

#[test]
fn study_reports_are_observer_neutral() {
    use ugpc::{run_study, try_run_study_with, RunConfig, StudyOptions};

    let cfg = RunConfig::paper(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double)
        .scaled_down(6)
        .with_records();
    let plain = run_study(&cfg);
    let mut perfetto = PerfettoSink::new();
    let mut timeline = PowerTimeline::new(16);
    let options = StudyOptions {
        observers: vec![&mut perfetto, &mut timeline],
        ..Default::default()
    };
    let observed = try_run_study_with(&cfg, options).unwrap().report;
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&observed).unwrap(),
        "extra sinks must not change the report"
    );
}

#[test]
fn profiled_study_is_observer_neutral_and_exact() {
    use ugpc::{run_study, try_run_study_with, RunConfig, StudyOptions};

    let cfg = RunConfig::paper(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double)
        .scaled_down(6)
        .with_records();
    let plain = run_study(&cfg);
    let mut profiler = ugpc::telemetry::CriticalPathProfiler::new().with_top_k(5);
    let options = StudyOptions {
        observers: vec![&mut profiler],
        ..Default::default()
    };
    let report = try_run_study_with(&cfg, options).unwrap().report;
    let profiled = ugpc::ProfiledRun {
        report,
        profile: profiler.into_report(),
    };
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&profiled.report).unwrap(),
        "the profiler must not change the report"
    );
    assert_eq!(
        profiled.profile.makespan_s.to_bits(),
        profiled.report.makespan_s.to_bits(),
        "attributed makespan is the report's makespan, bitwise"
    );
    profiled
        .profile
        .check_consistency(1e-12)
        .expect("attribution identities");
    assert_eq!(profiled.profile.hot_tasks.len(), 5);
}

/// Backend differential at the executor level: the same run under the
/// heap and calendar event queues must agree bitwise on the summary and
/// byte-for-byte on the serialized trace. This is what licenses the
/// calendar backend as the default — speed must never change outcomes.
#[test]
fn queue_backends_are_outcome_identical() {
    let run = |queue: QueueBackend| {
        let (mut node, graph, mut reg) = fresh();
        let options = SimOptions { queue, ..opts() };
        let trace = simulate(&mut node, &graph, &mut reg, options);
        let (mut node, graph, mut reg) = fresh();
        let mut perf = PerfModel::new();
        let summary = simulate_observed(&mut node, &graph, &mut reg, options, &mut perf, &mut []);
        (serde_json::to_string(&trace).unwrap(), summary)
    };
    let (heap_trace, heap_summary) = run(QueueBackend::Heap);
    let (cal_trace, cal_summary) = run(QueueBackend::Calendar);
    assert_eq!(heap_summary, cal_summary, "summaries must be bitwise equal");
    assert_eq!(
        heap_trace, cal_trace,
        "traces must serialize byte-identically across queue backends"
    );
}

/// Backend differential at the study level, through the process-wide
/// backend override: full reports byte-identical across backends.
#[test]
fn study_reports_are_backend_identical() {
    use ugpc::{run_study, RunConfig};

    let cfg = RunConfig::paper(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double)
        .scaled_down(6)
        .with_records();
    // Other tests in this binary may run meanwhile; they pin their own
    // backend, and reports are backend-identical anyway.
    let run_on = |queue| {
        ugpc::runtime::set_backend_override(Some(queue));
        let report = run_study(&cfg);
        ugpc::runtime::set_backend_override(None);
        report
    };
    let heap = run_on(QueueBackend::Heap);
    let calendar = run_on(QueueBackend::Calendar);
    assert_eq!(
        serde_json::to_string(&heap).unwrap(),
        serde_json::to_string(&calendar).unwrap(),
        "run reports must not depend on the event-queue backend"
    );
}
