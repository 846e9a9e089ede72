//! Integration tests for the features beyond the paper's evaluation:
//! memory-capacity enforcement, trace export, LU/POSV, the node-level
//! dynamic capping study, and the model ablation machinery.

// Test helpers may unwrap (clippy's allow-unwrap-in-tests does not
// reach helper fns in integration-test files).
#![allow(clippy::unwrap_used)]

use ugpc::linalg::{build_getrf, build_posv, build_potrf};
use ugpc::prelude::*;
use ugpc::runtime::{
    simulate, simulate_observed, DataRegistry, PerfModel, PerfettoSink, SimOptions,
};

#[test]
fn eviction_fires_on_oversubscribed_problems_only() {
    // A 60-tile POTRF at the paper's sizes (~239 GB) must evict; a small
    // one (fits in 40 GB) must not.
    let run = |nt: usize| {
        let mut node = Node::new(PlatformId::Amd4A100);
        let mut reg = DataRegistry::new();
        let op = build_potrf(nt, 2880, Precision::Double, &mut reg);
        simulate(&mut node, &op.graph, &mut reg, SimOptions::default())
    };
    let small = run(10); // 100 tiles × 66 MB ≈ 6.6 GB
    assert_eq!(small.evictions, 0, "small problem should fit");
    let large = run(40); // 1600 tiles × 66 MB ≈ 106 GB across 4 GPUs
    assert!(large.evictions > 0, "paper-size problem must evict");
    // Writebacks only for sole owners — a subset of evictions.
    assert!(large.writebacks <= large.evictions);
}

#[test]
fn chrome_trace_round_trips_through_json() {
    let mut node = Node::new(PlatformId::Intel2V100);
    let mut reg = DataRegistry::new();
    let op = build_potrf(4, 960, Precision::Double, &mut reg);
    let mut sink = PerfettoSink::new();
    let summary = simulate_observed(
        &mut node,
        &op.graph,
        &mut reg,
        SimOptions::default(),
        &mut PerfModel::new(),
        &mut [&mut sink],
    );
    let json = sink.into_json();
    // Must parse as JSON with one complete event per task (the other
    // complete events sit on the DMA lanes).
    let value: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    let events = value["traceEvents"].as_array().expect("array");
    let tasks: Vec<_> = events
        .iter()
        .filter(|e| e["ph"] == "X" && e["cat"] != "dma")
        .collect();
    assert_eq!(tasks.len(), op.graph.len());
    // Durations are positive and within the makespan.
    for e in tasks {
        let ts = e["ts"].as_f64().unwrap();
        let dur = e["dur"].as_f64().unwrap();
        assert!(dur > 0.0);
        assert!(ts + dur <= summary.makespan.value() * 1e6 + 1.0);
    }
}

#[test]
fn third_and_fourth_operations_run_under_caps() {
    // LU and POSV run through the whole stack under an unbalanced config.
    let mut node = Node::new(PlatformId::Amd4A100);
    ugpc::capping::apply_gpu_caps(
        &mut node,
        &"HHBB".parse().unwrap(),
        OpKind::Gemm,
        Precision::Double,
    )
    .unwrap();
    let mut reg = DataRegistry::new();
    let lu = build_getrf(8, 2880, Precision::Double, &mut reg);
    let lu_trace = simulate(&mut node, &lu.graph, &mut reg, SimOptions::default());
    assert_eq!(lu_trace.cpu_tasks + lu_trace.gpu_tasks, lu.graph.len());

    let mut reg2 = DataRegistry::new();
    let posv = build_posv(8, 2880, Precision::Double, &mut reg2);
    let posv_trace = simulate(&mut node, &posv.graph, &mut reg2, SimOptions::default());
    assert_eq!(
        posv_trace.cpu_tasks + posv_trace.gpu_tasks,
        posv.graph.len()
    );
    // POSV carries the factorization plus the sweeps: more tasks, more
    // flops than LU at the same nt? (different op — just sanity-check both
    // produced sensible efficiency numbers).
    for t in [&lu_trace, &posv_trace] {
        let eff = t.efficiency().as_gflops_per_watt();
        assert!(eff > 0.5 && eff < 100.0, "eff {eff}");
    }
}

#[test]
fn dynamic_node_study_beats_uncapped_start() {
    let cfg =
        RunConfig::paper(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double).scaled_down(4);
    let report = ugpc::run_dynamic_study(&cfg, 20).unwrap();
    assert!(report.final_efficiency_gflops_w > report.initial_efficiency_gflops_w);
    // Serializes.
    let json = serde_json::to_string(&report).unwrap();
    assert!(json.contains("final_caps_w"));
}

#[test]
fn noisy_models_keep_simulation_deterministic() {
    let run = || {
        let mut node = Node::new(PlatformId::Amd4A100);
        let mut reg = DataRegistry::new();
        let op = ugpc::linalg::build_gemm(4, 2880, Precision::Double, &mut reg);
        let mut perf = PerfModel::new().with_calibration_noise(0.3, 7);
        let mut builder = ugpc::runtime::TraceBuilder::new();
        ugpc::runtime::simulate_observed(
            &mut node,
            &op.graph,
            &mut reg,
            SimOptions::default(),
            &mut perf,
            &mut [&mut builder],
        );
        builder.into_trace()
    };
    let a = run();
    let b = run();
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.worker_tasks, b.worker_tasks);
}

#[test]
fn frozen_model_run_still_executes_everything() {
    // refine_models off: scheduling quality degrades but correctness holds.
    let mut node = Node::new(PlatformId::Amd4A100);
    let mut reg = DataRegistry::new();
    let op = ugpc::linalg::build_gemm(4, 2880, Precision::Double, &mut reg);
    let trace = simulate(
        &mut node,
        &op.graph,
        &mut reg,
        SimOptions {
            refine_models: false,
            ..Default::default()
        },
    );
    assert_eq!(trace.cpu_tasks + trace.gpu_tasks, 64);
}
