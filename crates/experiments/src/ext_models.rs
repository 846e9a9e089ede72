//! Extension ablations on the performance models — the paper's central
//! mechanism is that StarPU's history models are *recalibrated after every
//! cap change* (§III-B), which is what makes dmdas implicitly cap-aware.
//! Two questions the paper leaves implicit:
//!
//! 1. **Stale models** — what happens when caps change but the models are
//!    *not* recalibrated (the scheduler believes all GPUs still run at
//!    full speed)?
//! 2. **Noisy models** — how much calibration accuracy does dmdas need?

use crate::format::{f, pct, TextTable};
use serde::{Deserialize, Serialize};
use ugpc_capping::{apply_gpu_caps, CapConfig};
use ugpc_hwsim::{Node, OpKind, PlatformId, Precision};
use ugpc_runtime::{simulate_observed, DataRegistry, PerfModel, SimOptions, TraceBuilder};

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelRow {
    pub label: String,
    pub gflops: f64,
    pub efficiency_gflops_w: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelAblation {
    pub config: String,
    pub rows: Vec<ModelRow>,
}

fn run_once(
    config: &str,
    scale: usize,
    perf: &mut PerfModel,
    calibrate_at_caps: bool,
    refine: bool,
) -> ModelRow {
    let entry = ugpc_hwsim::table_ii_entry(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double);
    let nt = (entry.n / entry.nt / scale).max(2);
    let caps: CapConfig = config.parse().expect("valid config");

    let mut node = Node::new(PlatformId::Amd4A100);
    if !calibrate_at_caps {
        // Calibrate the model on the *uncapped* node first (stale model),
        // then cap.
        let uncapped_graph = {
            let mut reg = DataRegistry::new();
            ugpc_linalg::build_gemm(1, entry.nt, Precision::Double, &mut reg).graph
        };
        let (workers, _) = ugpc_runtime::build_workers(node.spec());
        let fps: Vec<_> = uncapped_graph
            .tasks()
            .iter()
            .map(|t| t.footprint())
            .collect();
        perf.calibrate(&node, &workers, &fps[..1]);
    }
    apply_gpu_caps(&mut node, &caps, OpKind::Gemm, Precision::Double).expect("valid caps");

    let mut reg = DataRegistry::new();
    let op = ugpc_linalg::build_gemm(nt, entry.nt, Precision::Double, &mut reg);
    let options = SimOptions {
        refine_models: refine,
        ..Default::default()
    };
    let mut builder = TraceBuilder::new();
    simulate_observed(
        &mut node,
        &op.graph,
        &mut reg,
        options,
        perf,
        &mut [&mut builder],
    );
    let trace = builder.into_trace();
    ModelRow {
        label: String::new(),
        gflops: trace.perf().as_gflops(),
        efficiency_gflops_w: trace.efficiency().as_gflops_per_watt(),
    }
}

/// Compare fresh vs stale models under an unbalanced configuration.
pub fn run_stale_ablation(scale: usize) -> ModelAblation {
    let config = "HHLL";
    let mut rows = Vec::new();

    let mut fresh = PerfModel::new();
    let mut row = run_once(config, scale, &mut fresh, true, true);
    row.label = "recalibrated at caps (paper protocol)".into();
    rows.push(row);

    let mut stale = PerfModel::new();
    let mut row = run_once(config, scale, &mut stale, false, true);
    row.label = "stale, online refinement on".into();
    rows.push(row);

    let mut frozen = PerfModel::new();
    let mut row = run_once(config, scale, &mut frozen, false, false);
    row.label = "stale, model frozen".into();
    rows.push(row);

    ModelAblation {
        config: config.into(),
        rows,
    }
}

/// Sweep calibration noise for dmdas under `HHBB`.
pub fn run_noise_ablation(scale: usize) -> ModelAblation {
    let config = "HHBB";
    let rows = [0.0, 0.05, 0.2, 0.5]
        .into_iter()
        .map(|sigma| {
            let mut perf = PerfModel::new().with_calibration_noise(sigma, 42);
            let mut row = run_once(config, scale, &mut perf, true, true);
            row.label = format!("calibration noise σ = {:.0} %", sigma * 100.0);
            row
        })
        .collect();
    ModelAblation {
        config: config.into(),
        rows,
    }
}

pub fn render(title: &str, a: &ModelAblation) -> String {
    let mut out = format!(
        "{title} — 32-AMD-4-A100 / GEMM / double, config {}\n\n",
        a.config
    );
    let base = &a.rows[0];
    let mut table = TextTable::new(&["model", "Gflop/s", "vs baseline", "eff (Gflop/s/W)"]);
    for r in &a.rows {
        table.row(vec![
            r.label.clone(),
            f(r.gflops, 0),
            pct((r.gflops / base.gflops - 1.0) * 100.0),
            f(r.efficiency_gflops_w, 2),
        ]);
    }
    out.push_str(&table.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frozen_stale_models_hurt_under_unbalanced_caps() {
        // Without recalibration (and with refinement off) the scheduler
        // balances as if all GPUs ran at full speed, so the L-capped
        // devices become stragglers — the quantified version of the
        // paper's "the scheduler is implicitly informed" claim. With
        // refinement on, the history heals itself within a few tasks.
        let a = run_stale_ablation(2);
        let fresh = &a.rows[0];
        let refining = &a.rows[1];
        let frozen = &a.rows[2];
        assert!(
            frozen.gflops < fresh.gflops * 0.80,
            "frozen {} vs fresh {}",
            frozen.gflops,
            fresh.gflops
        );
        assert!(
            refining.gflops > frozen.gflops,
            "refinement should help: {} vs {}",
            refining.gflops,
            frozen.gflops
        );
    }

    #[test]
    fn moderate_noise_is_tolerable() {
        let a = run_noise_ablation(3);
        let exact = a.rows[0].gflops;
        let sigma5 = a.rows[1].gflops;
        // 5 % calibration jitter costs little.
        assert!(sigma5 > exact * 0.9, "sigma 5 %: {sigma5} vs exact {exact}");
    }

    #[test]
    fn render_lists_all_rows() {
        let a = run_noise_ablation(6);
        let text = render("Noise ablation", &a);
        assert!(text.contains("σ = 0 %"));
        assert!(text.contains("σ = 50 %"));
    }
}
