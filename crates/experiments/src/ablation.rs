//! Ablation studies beyond the paper's figures:
//!
//! 1. **Scheduler ablation** — the paper asserts dmdas "implicitly"
//!    adapts to unbalanced caps through recalibrated models; here every
//!    scheduler in the zoo runs the same unbalanced configuration, which
//!    quantifies how much the model-based policies actually buy.
//! 2. **Dynamic capping** — the future-work online controller versus the
//!    static `B` oracle it is supposed to discover.

use crate::format::{f, pct, TextTable};
use crate::memo::run_study;
use serde::{Deserialize, Serialize};
use ugpc_capping::CapConfig;
use ugpc_control::run_dynamic;
use ugpc_core::{RunConfig, RunReport};
use ugpc_hwsim::{GpuDevice, KernelWork, OpKind, PlatformId, Precision, Watts};
use ugpc_runtime::SchedPolicy;

/// One scheduler's outcome on the unbalanced configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchedulerRow {
    pub scheduler: String,
    pub report: RunReport,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchedulerAblation {
    pub platform: String,
    pub op: String,
    pub config: String,
    pub rows: Vec<SchedulerRow>,
}

/// The scheduler zoo evaluated by the ablation.
pub fn policies() -> Vec<SchedPolicy> {
    vec![
        SchedPolicy::Eager,
        SchedPolicy::Random { seed: 42 },
        SchedPolicy::Dm,
        SchedPolicy::Dmda,
        SchedPolicy::Dmdas,
        SchedPolicy::EnergyAware { lambda: 0.3 },
    ]
}

/// Run every scheduler on the 4-GPU platform under `HHBB` (the config
/// where cap-awareness matters most).
pub fn run_scheduler_ablation(op: OpKind, scale: usize) -> SchedulerAblation {
    let config: CapConfig = "HHBB".parse().expect("valid config");
    let rows = policies()
        .into_iter()
        .map(|policy| {
            let cfg = RunConfig::paper(PlatformId::Amd4A100, op, Precision::Double)
                .scaled_down(scale)
                .with_gpu_config(config.clone())
                .with_scheduler(policy);
            SchedulerRow {
                scheduler: policy.name().to_string(),
                report: run_study(&cfg),
            }
        })
        .collect();
    SchedulerAblation {
        platform: PlatformId::Amd4A100.name().to_string(),
        op: op.name().to_string(),
        config: config.to_string(),
        rows,
    }
}

pub fn render_schedulers(a: &SchedulerAblation) -> String {
    let mut out = format!(
        "Scheduler ablation — {} / {} / double, config {}\n\n",
        a.platform, a.op, a.config
    );
    let base = &a
        .rows
        .iter()
        .find(|r| r.scheduler == "dmdas")
        .expect("dmdas present")
        .report;
    let mut table = TextTable::new(&[
        "scheduler",
        "Gflop/s",
        "vs dmdas",
        "eff (Gflop/s/W)",
        "cpu tasks",
    ]);
    for r in &a.rows {
        table.row(vec![
            r.scheduler.clone(),
            f(r.report.gflops, 0),
            pct((r.report.gflops / base.gflops - 1.0) * 100.0),
            f(r.report.efficiency_gflops_w, 2),
            r.report.cpu_tasks.to_string(),
        ]);
    }
    out.push_str(&table.render());
    out
}

/// Dynamic-capping ablation: online controller vs static caps.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DynamicAblation {
    /// (label, final cap W, efficiency Gflop/s/W).
    pub rows: Vec<(String, f64, f64)>,
}

pub fn run_dynamic_ablation() -> DynamicAblation {
    let work = KernelWork::gemm_tile(5760, Precision::Double);
    let static_eff = |cap: Watts| {
        let mut gpu = GpuDevice::new(0, ugpc_hwsim::GpuModel::A100Sxm4_40);
        gpu.set_power_limit(cap).expect("in range");
        let run = gpu.estimate(&work);
        (cap.value(), work.flops.value() / run.energy().value() / 1e9)
    };
    let (h_cap, h_eff) = static_eff(Watts(400.0));
    let (b_cap, b_eff) = static_eff(Watts(216.0));
    let mut gpu = GpuDevice::new(0, ugpc_hwsim::GpuModel::A100Sxm4_40);
    let dynamic = run_dynamic(&mut gpu, &work, 40, 3);
    DynamicAblation {
        rows: vec![
            ("static H (400 W)".to_string(), h_cap, h_eff),
            ("static B (216 W, oracle)".to_string(), b_cap, b_eff),
            (
                "dynamic (DEPO-like)".to_string(),
                dynamic.final_cap.value(),
                dynamic.final_efficiency,
            ),
        ],
    }
}

pub fn render_dynamic(a: &DynamicAblation) -> String {
    let mut out = String::from("Dynamic capping ablation — DGEMM 5760 on A100-SXM4-40GB\n\n");
    let mut table = TextTable::new(&["policy", "cap (W)", "eff (Gflop/s/W)"]);
    for (label, cap, eff) in &a.rows {
        table.row(vec![label.clone(), f(*cap, 0), f(*eff, 2)]);
    }
    out.push_str(&table.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dmdas_beats_naive_schedulers_under_unbalanced_caps() {
        let a = run_scheduler_ablation(OpKind::Gemm, 3);
        let perf = |name: &str| {
            a.rows
                .iter()
                .find(|r| r.scheduler == name)
                .unwrap()
                .report
                .gflops
        };
        // Model-based policies dominate the model-free ones.
        assert!(
            perf("dmdas") > perf("random"),
            "dmdas {} vs random {}",
            perf("dmdas"),
            perf("random")
        );
        assert!(perf("dm") > perf("random"));
        // dmda/dmdas should not lose to dm (transfer awareness helps).
        assert!(perf("dmdas") >= perf("dm") * 0.95);
    }

    #[test]
    fn dynamic_controller_approaches_static_oracle() {
        let a = run_dynamic_ablation();
        let eff = |label_prefix: &str| {
            a.rows
                .iter()
                .find(|(l, _, _)| l.starts_with(label_prefix))
                .unwrap()
                .2
        };
        let h = eff("static H");
        let b = eff("static B");
        let d = eff("dynamic");
        assert!(b > h);
        // Dynamic recovers most of the static-oracle gain.
        assert!(d > h + 0.6 * (b - h), "dynamic {d} vs H {h}, B {b}");
    }

    #[test]
    fn renders() {
        let s = render_schedulers(&run_scheduler_ablation(OpKind::Gemm, 6));
        assert!(s.contains("dmdas") && s.contains("eager"));
        let d = render_dynamic(&run_dynamic_ablation());
        assert!(d.contains("oracle"));
    }
}
