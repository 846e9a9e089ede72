//! Export a run's execution trace for Perfetto / chrome://tracing, plus a
//! terminal Gantt sketch — the simulator's counterpart to StarPU's FxT
//! traces.
//!
//! The sinks all ride the executor's observer stream: one simulation
//! feeds the `RunTrace` aggregates (via `TraceBuilder`), the streaming
//! Perfetto export (task, transfer and eviction lanes), and a
//! per-device power timeline.
//!
//! ```text
//! cargo run --release --example trace_export
//! # then open /tmp/ugpc_trace.json in https://ui.perfetto.dev
//! ```

use ugpc::linalg::build_potrf;
use ugpc::prelude::*;
use ugpc::runtime::{
    build_workers, simulate_observed, DataRegistry, Observer, PerfModel, PerfettoSink,
    PowerTimeline, SimOptions, TraceBuilder,
};

fn main() {
    let mut node = Node::new(PlatformId::Amd4A100);
    // Unbalanced caps make the Gantt interesting: two GPUs run slow.
    ugpc::capping::apply_gpu_caps(
        &mut node,
        &"HHLL".parse().expect("HHLL is a valid gpu config"),
        OpKind::Potrf,
        Precision::Double,
    )
    .expect("HHLL caps fit a 4-GPU node");

    let mut reg = DataRegistry::new();
    let op = build_potrf(12, 2880, Precision::Double, &mut reg);

    let mut builder = TraceBuilder::new();
    let mut sink = PerfettoSink::new();
    let mut timeline = PowerTimeline::new(48);
    {
        let mut observers: [&mut dyn Observer; 3] = [&mut builder, &mut sink, &mut timeline];
        let mut perf = PerfModel::new();
        simulate_observed(
            &mut node,
            &op.graph,
            &mut reg,
            SimOptions {
                keep_records: true,
                ..Default::default()
            },
            &mut perf,
            &mut observers,
        );
    }
    let trace = builder.into_trace();
    let (workers, _) = build_workers(node.spec());

    println!(
        "POTRF 12×2880 under HHLL: {:.2} s, {:.0} J, {} tasks ({} on CPUs)",
        trace.makespan.value(),
        trace.total_energy().value(),
        trace.cpu_tasks + trace.gpu_tasks,
        trace.cpu_tasks,
    );
    println!("\nGantt (last 4 rows are the GPUs; note the capped gpu2/gpu3):\n");
    let gantt = trace.gantt(&workers, 100);
    // Print only workers that did something, to keep the demo readable.
    for line in gantt.lines() {
        if line.contains('#') || line.contains('+') {
            println!("{line}");
        }
    }

    let profile = timeline.into_profile();
    println!(
        "\nPeak device power over {} time bins:",
        profile.avg_w[0].len()
    );
    for (lane, peak) in profile.lanes.iter().zip(&profile.peak_w) {
        println!("  {lane:>6}: {peak:.0} W");
    }

    let json = sink.into_json();
    let path = "/tmp/ugpc_trace.json";
    std::fs::write(path, &json).expect("write trace");
    println!(
        "\nwrote {path} ({} bytes) — open it in https://ui.perfetto.dev",
        json.len()
    );
}
