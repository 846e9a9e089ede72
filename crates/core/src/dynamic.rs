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
//!
//! Each iteration is one [`try_run_study_with`] call at the current
//! explicit caps, so the study shares the static runs' validation, cap
//! application and executor. The mid-run counterpart, which re-caps
//! inside one run, is [`StudyOptions::controller`].

use crate::{try_run_study_with, InvalidConfig, RunConfig, StudyOptions};
use serde::{Deserialize, Serialize};
use ugpc_control::{DynamicCapper, ObjectiveValue};
use ugpc_runtime::TraceBuilder;

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
/// *starting* caps (use the default `H…H` to start uncapped). Malformed
/// configurations, zero iterations and controller caps the devices refuse
/// are errors.
pub fn run_dynamic_study(
    cfg: &RunConfig,
    iterations: usize,
) -> Result<DynamicStudyReport, InvalidConfig> {
    if iterations == 0 {
        return Err(InvalidConfig(
            "a dynamic study needs at least one iteration".into(),
        ));
    }
    let node = cfg.capped_node(None)?;
    let mut controllers: Vec<DynamicCapper> = node.gpus().iter().map(DynamicCapper::new).collect();
    let mut caps_w: Vec<f64> = node
        .gpus()
        .iter()
        .map(|g| g.power_limit().value())
        .collect();
    let mut out = Vec::with_capacity(iterations);

    for _ in 0..iterations {
        // Fresh model each iteration: caps changed, so StarPU recalibrates.
        let mut witness = TraceBuilder::new();
        let options = StudyOptions {
            caps_w: Some(caps_w.clone()),
            observers: vec![&mut witness],
            ..Default::default()
        };
        let report = try_run_study_with(cfg, options)?.report;
        // Per-GPU local efficiency: flops executed there / device energy.
        // GPU workers come last, in device order.
        let flops = witness.into_trace().worker_flops;
        let gpu_efficiency: Vec<f64> = flops[flops.len() - caps_w.len()..]
            .iter()
            .zip(&report.energy_per_gpu)
            .map(|(f, &e)| f.value() / e.max(1e-12) / 1e9)
            .collect();
        // Feed controllers; their answers are the next iteration's caps.
        let next: Vec<f64> = controllers
            .iter_mut()
            .zip(&gpu_efficiency)
            .map(|(ctl, &eff)| ctl.observe(ObjectiveValue(eff)).value())
            .collect();
        out.push(DynamicIteration {
            caps_w: std::mem::replace(&mut caps_w, next),
            efficiency_gflops_w: report.efficiency_gflops_w,
            gpu_efficiency,
            makespan_s: report.makespan_s,
        });
    }

    Ok(DynamicStudyReport {
        final_caps_w: caps_w,
        final_efficiency_gflops_w: out[iterations - 1].efficiency_gflops_w,
        initial_efficiency_gflops_w: out[0].efficiency_gflops_w,
        iterations: out,
    })
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
        let report = run_dynamic_study(&cfg(), 25).unwrap();
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
        let dynamic = run_dynamic_study(&cfg(), 30).unwrap();
        let oracle = crate::run_study(&cfg().with_gpu_config("BBBB".parse().unwrap()));
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
        let report = run_dynamic_study(&cfg(), 2).unwrap();
        assert_eq!(report.iterations[0].caps_w, vec![400.0; 4]);
        // Second iteration runs at adjusted caps.
        assert!(report.iterations[1].caps_w.iter().all(|&c| c < 400.0));
    }

    #[test]
    fn malformed_studies_are_errors() {
        assert!(run_dynamic_study(&cfg(), 0).is_err());
        let wrong_arity = cfg().with_gpu_config("BB".parse().unwrap());
        assert!(run_dynamic_study(&wrong_arity, 2).is_err());
    }

    #[test]
    fn telemetry_is_complete() {
        let report = run_dynamic_study(&cfg(), 3).unwrap();
        for it in &report.iterations {
            assert_eq!(it.caps_w.len(), 4);
            assert_eq!(it.gpu_efficiency.len(), 4);
            assert!(it.makespan_s > 0.0);
            assert!(it.efficiency_gflops_w > 0.0);
        }
    }
}
