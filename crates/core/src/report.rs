//! Run reports: the numbers the paper plots, in plain serializable form.

use crate::RunConfig;
use serde::{Deserialize, Serialize};
use ugpc_runtime::{ExecStats, PowerProfile, RunTrace};
use ugpc_telemetry::ProfileReport;

/// The measured outcome of one run, in the paper's units.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    pub platform: String,
    pub op: String,
    pub precision: String,
    /// GPU cap configuration string ("HHBB").
    pub gpu_config: String,
    pub cpu_capped: bool,
    pub scheduler: String,
    pub n: usize,
    pub nb: usize,
    /// End-to-end time in seconds.
    pub makespan_s: f64,
    /// Achieved Gflop/s.
    pub gflops: f64,
    /// Total energy of all processing units, joules.
    pub total_energy_j: f64,
    /// Energy efficiency, Gflop/s/W.
    pub efficiency_gflops_w: f64,
    /// Per-device energy, joules.
    pub energy_per_cpu: Vec<f64>,
    pub energy_per_gpu: Vec<f64>,
    /// Task placement counts.
    pub cpu_tasks: usize,
    pub gpu_tasks: usize,
    /// Memory-system breakdown from the executor event stream.
    pub evictions: usize,
    pub writebacks: usize,
    /// Operand transfers (each hop of a staged copy counts once).
    pub transfers: usize,
    /// Bytes moved by operand transfers.
    pub transferred_b: f64,
}

impl RunReport {
    /// Build a report from the trace aggregates plus the stream-derived
    /// [`ExecStats`] (transfer counts the trace never carried).
    pub fn from_parts(cfg: &RunConfig, trace: &RunTrace, stats: &ExecStats) -> Self {
        RunReport {
            platform: cfg.platform.name().to_string(),
            op: cfg.op.name().to_string(),
            precision: cfg.precision.to_string(),
            gpu_config: cfg.gpu_config.to_string(),
            cpu_capped: cfg.cpu_cap.is_some(),
            scheduler: cfg.scheduler.name().to_string(),
            n: cfg.n,
            nb: cfg.nb,
            makespan_s: trace.makespan.value(),
            gflops: trace.perf().as_gflops(),
            total_energy_j: trace.total_energy().value(),
            efficiency_gflops_w: trace.efficiency().as_gflops_per_watt(),
            energy_per_cpu: trace.energy.per_cpu.iter().map(|e| e.value()).collect(),
            energy_per_gpu: trace.energy.per_gpu.iter().map(|e| e.value()).collect(),
            cpu_tasks: trace.cpu_tasks,
            gpu_tasks: trace.gpu_tasks,
            evictions: trace.evictions,
            writebacks: trace.writebacks,
            transfers: stats.transfers,
            transferred_b: stats.transferred.value(),
        }
    }

    /// CPU share of total energy, in [0, 1].
    pub fn cpu_energy_share(&self) -> f64 {
        let cpu: f64 = self.energy_per_cpu.iter().sum();
        cpu / self.total_energy_j.max(1e-300)
    }
}

/// A run report paired with its per-device power timeline — what
/// [`run_study_traced`](crate::run_study_traced) returns and `ugpc-serve`
/// ships for traced requests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TracedRun {
    pub report: RunReport,
    pub power: PowerProfile,
}

/// A run report paired with its critical-path energy-attribution
/// profile, as `repro profile` records it. `profile.makespan_s` is
/// bitwise identical to `report.makespan_s`: both are copied from the
/// executor's summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfiledRun {
    pub report: RunReport,
    pub profile: ProfileReport,
}

/// A run measured against a baseline, in the paper's Fig. 3/4 axes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Comparison {
    /// Performance change in % — positive is a speedup.
    pub perf_pct: f64,
    /// Energy change in % — positive is a saving.
    pub energy_pct: f64,
    /// Efficiency gain in %.
    pub eff_gain_pct: f64,
}

/// Compare a run to a baseline with the paper's sign conventions.
pub fn compare(run: &RunReport, baseline: &RunReport) -> Comparison {
    Comparison {
        perf_pct: (run.gflops / baseline.gflops - 1.0) * 100.0,
        energy_pct: (1.0 - run.total_energy_j / baseline.total_energy_j) * 100.0,
        eff_gain_pct: (run.efficiency_gflops_w / baseline.efficiency_gflops_w - 1.0) * 100.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo(gflops: f64, energy: f64) -> RunReport {
        RunReport {
            platform: "test".into(),
            op: "GEMM".into(),
            precision: "double".into(),
            gpu_config: "HH".into(),
            cpu_capped: false,
            scheduler: "dmdas".into(),
            n: 1024,
            nb: 256,
            makespan_s: 1.0,
            gflops,
            total_energy_j: energy,
            efficiency_gflops_w: gflops / energy,
            energy_per_cpu: vec![energy * 0.25],
            energy_per_gpu: vec![energy * 0.75],
            cpu_tasks: 1,
            gpu_tasks: 9,
            evictions: 0,
            writebacks: 0,
            transfers: 12,
            transferred_b: 1e6,
        }
    }

    #[test]
    fn comparison_sign_conventions() {
        let base = demo(1000.0, 1000.0);
        // Slower but much cheaper.
        let capped = demo(800.0, 700.0);
        let c = compare(&capped, &base);
        assert!((c.perf_pct - -20.0).abs() < 1e-9, "{c:?}");
        assert!((c.energy_pct - 30.0).abs() < 1e-9, "{c:?}");
        assert!(c.eff_gain_pct > 0.0);
        // Identity comparison is all zeros.
        let z = compare(&base, &base);
        assert!(z.perf_pct.abs() < 1e-12 && z.energy_pct.abs() < 1e-12);
    }

    #[test]
    fn cpu_energy_share() {
        let r = demo(100.0, 1000.0);
        assert!((r.cpu_energy_share() - 0.25).abs() < 1e-12);
    }
}
