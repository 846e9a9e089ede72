//! Node-level dynamic power capping for iterative applications — the
//! paper's §VII future work ("consider dynamic power capping and its
//! interaction with scheduling decisions"), implemented end-to-end.
//!
//! An iterative application (e.g. a solver calling the same tiled
//! operation every outer iteration) runs under per-GPU hill-climbing
//! controllers: after each iteration, every GPU's *local* efficiency
//! (flops it executed per joule it consumed) feeds its controller, which
//! adjusts that GPU's cap; the runtime's performance models are then
//! recalibrated, so the scheduler adapts to the new speeds exactly as the
//! paper describes for static caps.

use crate::{RunConfig, RunReport};
use serde::{Deserialize, Serialize};
use ugpc_control::{DynamicCapper, ObjectiveValue};
use ugpc_hwsim::Node;
use ugpc_runtime::{build_workers, simulate, DataRegistry, SimOptions, WorkerKind};

/// One iteration's telemetry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DynamicIteration {
    /// Cap applied to each GPU during this iteration (W).
    pub caps_w: Vec<f64>,
    /// Whole-node efficiency (Gflop/s/W).
    pub efficiency_gflops_w: f64,
    /// Per-GPU local efficiency (Gflop/s/W of that device alone).
    pub gpu_efficiency: Vec<f64>,
    pub makespan_s: f64,
}

/// Outcome of a dynamically-capped iterative run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DynamicStudyReport {
    pub iterations: Vec<DynamicIteration>,
    /// Final caps the controllers settled on (W).
    pub final_caps_w: Vec<f64>,
    /// Whole-node efficiency of the last iteration.
    pub final_efficiency_gflops_w: f64,
    /// Reference: the first (uncapped) iteration's efficiency.
    pub initial_efficiency_gflops_w: f64,
}

/// Run `iterations` outer iterations of the configured operation with
/// per-GPU dynamic capping. The GPU cap levels in `cfg.gpu_config` set the
/// *starting* caps (use the default `H…H` to start uncapped).
pub fn run_dynamic_study(cfg: &RunConfig, iterations: usize) -> DynamicStudyReport {
    assert!(iterations > 0);
    let mut node = Node::new(cfg.platform);
    ugpc_capping::apply_gpu_caps(&mut node, &cfg.gpu_config, cfg.op, cfg.precision)
        .expect("cap configuration matches the platform");
    if let Some((pkg, cap)) = cfg.cpu_cap {
        ugpc_capping::apply_cpu_cap(&mut node, pkg, cap).expect("CPU cap supported");
    }
    let mut controllers: Vec<DynamicCapper> = node.gpus().iter().map(DynamicCapper::new).collect();
    let (workers, _) = build_workers(node.spec());

    let mut reg = DataRegistry::new();
    let graph = cfg.build_graph(&mut reg);
    let mut out = Vec::with_capacity(iterations);

    for _ in 0..iterations {
        let caps_w: Vec<f64> = node
            .gpus()
            .iter()
            .map(|g| g.power_limit().value())
            .collect();
        // Fresh model each iteration: caps changed, so StarPU recalibrates.
        let trace = simulate(
            &mut node,
            &graph,
            &mut reg,
            SimOptions {
                policy: cfg.scheduler,
                ..Default::default()
            },
        );
        // Per-GPU local efficiency: flops executed there / device energy.
        let gpu_efficiency: Vec<f64> = workers
            .iter()
            .filter_map(|w| match w.kind {
                WorkerKind::Gpu { device } => {
                    let e = trace.energy.per_gpu[device].value().max(1e-12);
                    Some(trace.worker_flops[w.id].value() / e / 1e9)
                }
                WorkerKind::CpuCore { .. } => None,
            })
            .collect();
        let iteration = DynamicIteration {
            caps_w,
            efficiency_gflops_w: trace.efficiency().as_gflops_per_watt(),
            gpu_efficiency: gpu_efficiency.clone(),
            makespan_s: trace.makespan.value(),
        };
        out.push(iteration);
        // Feed controllers and apply the next caps.
        for (g, ctl) in controllers.iter_mut().enumerate() {
            let next = ctl.observe(ObjectiveValue(gpu_efficiency[g]));
            node.gpu_mut(g)
                .set_power_limit(next)
                .expect("controller stays within constraints");
        }
    }

    DynamicStudyReport {
        final_caps_w: node
            .gpus()
            .iter()
            .map(|g| g.power_limit().value())
            .collect(),
        final_efficiency_gflops_w: out.last().expect("iterations > 0").efficiency_gflops_w,
        initial_efficiency_gflops_w: out[0].efficiency_gflops_w,
        iterations: out,
    }
}

/// Compare the dynamic run against the static oracle (`B…B`) on the same
/// configuration.
pub fn dynamic_vs_static_oracle(
    cfg: &RunConfig,
    iterations: usize,
) -> (DynamicStudyReport, RunReport) {
    let dynamic = run_dynamic_study(cfg, iterations);
    let n_gpus = ugpc_hwsim::PlatformSpec::of(cfg.platform).gpu_count;
    let oracle_cfg = cfg
        .clone()
        .with_gpu_config(ugpc_capping::CapConfig::uniform(
            ugpc_capping::CapLevel::B,
            n_gpus,
        ));
    let oracle = crate::run_study(&oracle_cfg);
    (dynamic, oracle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugpc_hwsim::{OpKind, PlatformId, Precision};

    fn cfg() -> RunConfig {
        RunConfig::paper(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double).scaled_down(3)
    }

    #[test]
    fn efficiency_improves_over_iterations() {
        let report = run_dynamic_study(&cfg(), 25);
        assert_eq!(report.iterations.len(), 25);
        assert!(
            report.final_efficiency_gflops_w > report.initial_efficiency_gflops_w * 1.08,
            "{} -> {}",
            report.initial_efficiency_gflops_w,
            report.final_efficiency_gflops_w
        );
        // Controllers moved every GPU's cap below TDP.
        for &cap in &report.final_caps_w {
            assert!(cap < 400.0, "cap {cap}");
            assert!(cap >= 100.0);
        }
    }

    #[test]
    fn dynamic_approaches_static_oracle() {
        let (dynamic, oracle) = dynamic_vs_static_oracle(&cfg(), 30);
        let gap = dynamic.final_efficiency_gflops_w / oracle.efficiency_gflops_w;
        assert!(
            gap > 0.9,
            "dynamic {} vs oracle {}",
            dynamic.final_efficiency_gflops_w,
            oracle.efficiency_gflops_w
        );
    }

    #[test]
    fn starts_at_requested_caps() {
        let report = run_dynamic_study(&cfg(), 2);
        assert_eq!(report.iterations[0].caps_w, vec![400.0; 4]);
        // Second iteration runs at adjusted caps.
        assert!(report.iterations[1].caps_w.iter().all(|&c| c < 400.0));
    }

    #[test]
    fn telemetry_is_complete() {
        let report = run_dynamic_study(&cfg(), 3);
        for it in &report.iterations {
            assert_eq!(it.caps_w.len(), 4);
            assert_eq!(it.gpu_efficiency.len(), 4);
            assert!(it.makespan_s > 0.0);
            assert!(it.efficiency_gflops_w > 0.0);
        }
    }
}
