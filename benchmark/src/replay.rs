//! The traced replay: runs a list of configurations the way `run_study`
//! does, with a span around each call into a layer, and checks that the
//! result serializes to the same bytes as the untraced library call.
//! The spans live in this file only; none are inside the program.

use crate::{metric, Metric, Span};
use std::time::Instant;
use ugpc::capping::{apply_cpu_cap, apply_gpu_caps};
use ugpc::experiments::driver;
use ugpc::hwsim::Node;
use ugpc::runtime::{
    simulate_observed, DataRegistry, Observer, PerfModel, PowerTimeline, QueueBackend, SimOptions,
    StatsCollector, TraceBuilder,
};
use ugpc::serve::protocol::encode;
use ugpc::serve::Response;
use ugpc::{RunConfig, RunReport, TracedRun};

/// Worker threads of the replay's sweep driver, as `repro --jobs 2`.
pub const JOBS: usize = 2;

/// The reply line the service must send for one request, computed by
/// the library's checked entry points.
pub fn library_line(cfg: &RunConfig, bins: Option<usize>) -> Result<String, String> {
    let bad = |e: ugpc::InvalidConfig| e.to_string();
    Ok(match bins {
        None => encode(&Response::Run(ugpc::try_run_study(cfg).map_err(bad)?)),
        Some(b) => encode(&Response::Traced(
            ugpc::try_run_study_traced(cfg, b).map_err(bad)?,
        )),
    })
}

/// Layers of one run, in call order; the last is the untraced
/// `run_study` the replay is checked against.
const LAYERS: [&str; 6] = [
    "capping.apply",
    "linalg.build_graph",
    "runtime.simulate",
    "core.report",
    "core.serialize",
    "core.run_study",
];

struct Job {
    report: RunReport,
    line: String,
    tasks: usize,
    /// Nanoseconds since the replay began at which each layer started,
    /// then the end of the last one.
    marks: [u64; LAYERS.len() + 1],
}

impl Job {
    fn layer_ns(&self, i: usize) -> u64 {
        self.marks[i + 1] - self.marks[i]
    }
}

/// One run, layer by layer, mirroring `ugpc_core::run_study_observed`.
fn run_layered(cfg: &RunConfig, bins: Option<usize>, epoch: Instant) -> Result<Job, String> {
    let mut marks = [0; LAYERS.len() + 1];
    let mut mark = |i: usize| marks[i] = epoch.elapsed().as_nanos() as u64;

    mark(0);
    let mut node = Node::new(cfg.platform);
    apply_gpu_caps(&mut node, &cfg.gpu_config, cfg.op, cfg.precision)
        .map_err(|e| format!("gpu caps: {e}"))?;
    if let Some((pkg, cap)) = cfg.cpu_cap {
        apply_cpu_cap(&mut node, pkg, cap).map_err(|e| format!("cpu cap: {e}"))?;
    }

    mark(1);
    let mut reg = DataRegistry::new();
    let graph = cfg.build_graph(&mut reg);

    mark(2);
    let mut builder = TraceBuilder::new();
    let mut stats = StatsCollector::new();
    let mut timeline = bins.map(PowerTimeline::new);
    {
        let mut observers: Vec<&mut dyn Observer> = vec![&mut builder, &mut stats];
        if let Some(tl) = timeline.as_mut() {
            observers.push(tl);
        }
        simulate_observed(
            &mut node,
            &graph,
            &mut reg,
            SimOptions {
                policy: cfg.scheduler,
                keep_records: cfg.keep_records,
                queue: QueueBackend::resolve(),
                ..SimOptions::default()
            },
            &mut PerfModel::new(),
            &mut observers,
        );
    }

    mark(3);
    let report = RunReport::from_parts(cfg, &builder.into_trace(), &stats.into_stats());

    mark(4);
    let line = match timeline {
        None => encode(&Response::Run(report.clone())),
        Some(tl) => encode(&Response::Traced(TracedRun {
            report: report.clone(),
            power: tl.into_profile(),
        })),
    };

    mark(5);
    let untraced = match bins {
        None => encode(&Response::Run(ugpc::run_study(cfg))),
        Some(b) => encode(&Response::Traced(ugpc::run_study_traced(cfg, b))),
    };
    mark(6);
    if untraced != line {
        return Err(format!(
            "layered replay of {} {} {} {} differs from run_study",
            report.platform, report.op, report.precision, report.gpu_config
        ));
    }
    Ok(Job {
        report,
        line,
        tasks: graph.len(),
        marks,
    })
}

/// What the replay produced and measured.
pub struct Layered {
    pub reports: Vec<RunReport>,
    pub lines: Vec<String>,
    pub metrics: Vec<Metric>,
    pub spans: Vec<Span>,
}

/// Replay `requests` on the sweep driver with `JOBS` workers.
pub fn layered(requests: &[(RunConfig, Option<usize>)]) -> Result<Layered, String> {
    if requests.is_empty() {
        return Err("nothing to replay".into());
    }
    driver::set_jobs(JOBS);
    let epoch = Instant::now();
    let jobs: Vec<Result<Job, String>> =
        driver::par_map(requests.iter().collect(), |(cfg, bins)| {
            run_layered(cfg, *bins, epoch)
        });
    let wall_ns = epoch.elapsed().as_nanos() as u64;
    let jobs = jobs.into_iter().collect::<Result<Vec<Job>, String>>()?;

    let n = jobs.len() as f64;
    let layer = |i: usize| jobs.iter().map(|j| j.layer_ns(i)).sum::<u64>() as f64;
    let [apply, build, simulate, report, serialize, untraced] = std::array::from_fn(layer);
    let traced = apply + build + simulate + report + serialize;
    let busy = jobs
        .iter()
        .map(|j| j.marks[LAYERS.len()] - j.marks[0])
        .sum::<u64>() as f64;
    let tasks = jobs.iter().map(|j| j.tasks).sum::<usize>() as f64;
    let workers = driver::jobs().min(jobs.len()) as f64;
    let metrics = vec![
        metric("replay.runs", n, "count"),
        metric("capping.apply_us", apply / n / 1e3, "us"),
        metric("linalg.build_s", build / 1e9, "s"),
        metric("linalg.build_share", build / traced, "ratio"),
        metric("linalg.tasks", tasks, "count"),
        metric("runtime.simulate_s", simulate / 1e9, "s"),
        metric("runtime.simulate_share", simulate / traced, "ratio"),
        metric("runtime.us_per_task", simulate / tasks / 1e3, "us"),
        metric(
            "runtime.transfers",
            jobs.iter().map(|j| j.report.transfers as f64).sum(),
            "count",
        ),
        metric(
            "runtime.evictions",
            jobs.iter().map(|j| j.report.evictions as f64).sum(),
            "count",
        ),
        metric("core.report_us", report / n / 1e3, "us"),
        metric("core.serialize_us", serialize / n / 1e3, "us"),
        metric("core.run_study_s", untraced / 1e9, "s"),
        metric(
            "core.trace_overhead_share",
            traced / untraced - 1.0,
            "ratio",
        ),
        metric(
            "experiments.driver_efficiency",
            busy / (workers * wall_ns as f64),
            "ratio",
        ),
        metric(
            "experiments.driver_tail_s",
            (wall_ns as f64 - busy / workers) / 1e9,
            "s",
        ),
    ];

    let mut spans = Vec::with_capacity(jobs.len() * (LAYERS.len() + 1));
    for (i, j) in jobs.iter().enumerate() {
        let job = format!("replay.job[{i}]");
        spans.push(Span::new(&job, "replay", j.marks[0], j.marks[LAYERS.len()]));
        for (k, name) in LAYERS.iter().enumerate() {
            spans.push(Span::new(name, &job, j.marks[k], j.marks[k + 1]));
        }
    }
    let (reports, lines) = jobs.into_iter().map(|j| (j.report, j.line)).unzip();
    Ok(Layered {
        reports,
        lines,
        metrics,
        spans,
    })
}
