//! # ugpc-core — the high-level study API
//!
//! One call runs one of the paper's measurements: pick a platform, an
//! operation, a precision, a GPU cap configuration (and optionally a CPU
//! cap), and get back the three metrics the paper reports — performance
//! (Gflop/s), total energy (J), and energy efficiency (Gflop/s/W) — plus
//! per-device breakdowns.
//!
//! ```
//! use ugpc_core::{RunConfig, run_study};
//! use ugpc_hwsim::{OpKind, PlatformId, Precision};
//!
//! let base = run_study(&RunConfig::paper(
//!     PlatformId::Amd4A100, OpKind::Gemm, Precision::Double,
//! ).scaled_down(4));
//! let capped = run_study(
//!     &RunConfig::paper(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double)
//!         .scaled_down(4)
//!         .with_gpu_config("BBBB".parse().unwrap()),
//! );
//! assert!(capped.efficiency_gflops_w > base.efficiency_gflops_w);
//! ```

pub mod dynamic;
pub mod key;
pub mod report;
pub mod study;

pub use dynamic::{
    dynamic_vs_static_oracle, run_dynamic_study, DynamicIteration, DynamicStudyReport,
};
pub use key::CacheKey;
pub use report::{compare, Comparison, ProfiledRun, RunReport, TracedRun};
pub use study::{try_run_study_with, ControlOutcome, ControlledRun, Study, StudyOptions};

use serde::{Deserialize, Serialize};
use ugpc_capping::{apply_cpu_cap, apply_gpu_caps, CapConfig};
use ugpc_hwsim::{table_ii_entry, Node, OpKind, PlatformId, Precision, Watts};
use ugpc_linalg::{build_gemm, build_potrf};
use ugpc_runtime::{DataRegistry, PowerTimeline, SchedPolicy, TaskGraph};

/// Everything that defines one measured run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunConfig {
    pub platform: PlatformId,
    pub op: OpKind,
    pub precision: Precision,
    /// Matrix dimension (N × N matrix).
    pub n: usize,
    /// Tile dimension Nt.
    pub nb: usize,
    /// Per-GPU cap levels.
    pub gpu_config: CapConfig,
    /// Optional CPU package cap: (package index, limit).
    pub cpu_cap: Option<(usize, Watts)>,
    pub scheduler: SchedPolicy,
    /// Keep per-task records in the trace.
    pub keep_records: bool,
}

impl RunConfig {
    /// The paper's configuration for a (platform, op, precision) triple:
    /// Table II sizes, dmdas, all GPUs uncapped, no CPU cap.
    pub fn paper(platform: PlatformId, op: OpKind, precision: Precision) -> Self {
        let entry = table_ii_entry(platform, op, precision);
        let n_gpus = ugpc_hwsim::PlatformSpec::of(platform).gpu_count;
        RunConfig {
            platform,
            op,
            precision,
            n: entry.n,
            nb: entry.nt,
            gpu_config: CapConfig::uniform(ugpc_capping::CapLevel::H, n_gpus),
            cpu_cap: None,
            scheduler: SchedPolicy::Dmdas,
            keep_records: false,
        }
    }

    /// Shrink the problem by an integer factor (fewer tiles, same tile
    /// size) — used by tests and benches to keep runs quick while
    /// preserving the per-task physics.
    pub fn scaled_down(mut self, factor: usize) -> Self {
        let nt = (self.n / self.nb / factor.max(1)).max(2);
        self.n = nt * self.nb;
        self
    }

    /// Change the tile size, keeping the matrix dimension (Fig. 7's
    /// tile-size study). The tile must divide N.
    pub fn with_tile(mut self, nb: usize) -> Self {
        assert!(
            nb > 0 && self.n.is_multiple_of(nb),
            "tile {nb} does not divide N = {}",
            self.n
        );
        self.nb = nb;
        self
    }

    pub fn with_gpu_config(mut self, config: CapConfig) -> Self {
        self.gpu_config = config;
        self
    }

    pub fn with_cpu_cap(mut self, package: usize, cap: Watts) -> Self {
        self.cpu_cap = Some((package, cap));
        self
    }

    pub fn with_scheduler(mut self, scheduler: SchedPolicy) -> Self {
        self.scheduler = scheduler;
        self
    }

    pub fn with_records(mut self) -> Self {
        self.keep_records = true;
        self
    }

    /// Tiles per dimension.
    pub fn nt(&self) -> usize {
        self.n / self.nb
    }

    /// Build the operation's task graph.
    pub fn build_graph(&self, reg: &mut DataRegistry) -> TaskGraph {
        match self.op {
            OpKind::Gemm => build_gemm(self.nt(), self.nb, self.precision, reg).graph,
            OpKind::Potrf => build_potrf(self.nt(), self.nb, self.precision, reg).graph,
        }
    }

    /// Check that [`run_study`] would accept this configuration, without
    /// running anything: non-dividing tile sizes, cap configurations
    /// sized for a different platform, and CPU caps on platforms without
    /// RAPL capping are all rejected.
    pub fn validate(&self) -> Result<(), InvalidConfig> {
        self.capped_node(None).map(drop)
    }

    /// The platform node with this configuration's caps applied —
    /// `caps_w`, explicit per-GPU watts, in place of the letter levels
    /// when given. The one place a configuration is checked.
    pub(crate) fn capped_node(&self, caps_w: Option<&[f64]>) -> Result<Node, InvalidConfig> {
        if self.n == 0 || self.nb == 0 {
            return Err(InvalidConfig("n and nb must be positive".into()));
        }
        if !self.n.is_multiple_of(self.nb) {
            return Err(InvalidConfig(format!(
                "tile {} does not divide N = {}",
                self.nb, self.n
            )));
        }
        let mut node = Node::new(self.platform);
        match caps_w {
            None => apply_gpu_caps(&mut node, &self.gpu_config, self.op, self.precision)
                .map_err(|e| InvalidConfig(format!("gpu caps: {e}")))?,
            Some(caps) => {
                if caps.len() != node.gpus().len() {
                    return Err(InvalidConfig(format!(
                        "{} explicit caps for {} GPUs",
                        caps.len(),
                        node.gpus().len()
                    )));
                }
                for (g, &cap) in caps.iter().enumerate() {
                    node.gpu_mut(g)
                        .set_power_limit(Watts(cap))
                        .map_err(|e| InvalidConfig(format!("gpu{g} cap: {e}")))?;
                }
            }
        }
        if let Some((pkg, cap)) = self.cpu_cap {
            apply_cpu_cap(&mut node, pkg, cap)
                .map_err(|e| InvalidConfig(format!("cpu cap: {e}")))?;
        }
        Ok(node)
    }
}

/// A [`RunConfig`] that [`run_study`] would reject, with the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidConfig(pub String);

impl std::fmt::Display for InvalidConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid run configuration: {}", self.0)
    }
}

impl std::error::Error for InvalidConfig {}

/// One plain run, with malformed configurations reported as errors —
/// [`try_run_study_with`] under default options.
pub fn try_run_study(cfg: &RunConfig) -> Result<RunReport, InvalidConfig> {
    try_run_study_with(cfg, StudyOptions::default()).map(|s| s.report)
}

/// Execute one measured run: apply caps, calibrate, simulate, report.
/// Panics on a configuration [`RunConfig::validate`] rejects.
pub fn run_study(cfg: &RunConfig) -> RunReport {
    try_run_study(cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// One run with its per-device power timeline (`bins` time bins over the
/// makespan) — the paper's Fig. 5 energy breakdown, resolved in time.
pub fn try_run_study_traced(cfg: &RunConfig, bins: usize) -> Result<TracedRun, InvalidConfig> {
    let mut timeline = PowerTimeline::new(bins);
    let options = StudyOptions {
        observers: vec![&mut timeline],
        ..Default::default()
    };
    let report = try_run_study_with(cfg, options)?.report;
    Ok(TracedRun {
        report,
        power: timeline.into_profile(),
    })
}

/// [`try_run_study_traced`], panicking on an invalid configuration.
pub fn run_study_traced(cfg: &RunConfig, bins: usize) -> TracedRun {
    try_run_study_traced(cfg, bins).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugpc_capping::CapLevel;

    fn quick(platform: PlatformId, op: OpKind, p: Precision) -> RunConfig {
        RunConfig::paper(platform, op, p).scaled_down(4)
    }

    #[test]
    fn paper_defaults_pull_table_ii() {
        let cfg = RunConfig::paper(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double);
        assert_eq!(cfg.n, 74_880);
        assert_eq!(cfg.nb, 5_760);
        assert_eq!(cfg.nt(), 13);
        assert_eq!(cfg.gpu_config.to_string(), "HHHH");
    }

    #[test]
    fn scaled_down_keeps_tile_size() {
        let cfg = quick(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double);
        assert_eq!(cfg.nb, 5_760);
        assert!(cfg.nt() >= 2);
        assert!(cfg.nt() < 13);
    }

    #[test]
    fn gemm_run_produces_sane_report() {
        let report = run_study(&quick(
            PlatformId::Amd4A100,
            OpKind::Gemm,
            Precision::Double,
        ));
        assert!(report.makespan_s > 0.0);
        assert!(report.gflops > 1000.0, "gflops {}", report.gflops);
        assert!(report.total_energy_j > 0.0);
        assert!(
            report.efficiency_gflops_w > 10.0 && report.efficiency_gflops_w < 100.0,
            "eff {}",
            report.efficiency_gflops_w
        );
        assert_eq!(report.energy_per_gpu.len(), 4);
        assert_eq!(report.energy_per_cpu.len(), 1);
    }

    #[test]
    fn bbbb_beats_hhhh_efficiency_on_sxm4() {
        // The paper's headline (Fig. 3a).
        let base = run_study(&quick(
            PlatformId::Amd4A100,
            OpKind::Gemm,
            Precision::Double,
        ));
        let capped = run_study(
            &quick(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double)
                .with_gpu_config(CapConfig::uniform(CapLevel::B, 4)),
        );
        assert!(capped.efficiency_gflops_w > base.efficiency_gflops_w * 1.05);
        assert!(capped.gflops < base.gflops, "capping must cost performance");
    }

    #[test]
    fn potrf_runs_on_all_platforms() {
        for pf in PlatformId::ALL {
            let report = run_study(&quick(pf, OpKind::Potrf, Precision::Single));
            assert!(report.gflops > 0.0, "{pf}");
            assert!(
                report.cpu_tasks > 0,
                "{pf}: POTRF diagonal tasks are CPU-only"
            );
        }
    }

    #[test]
    fn cpu_cap_applies_on_intel() {
        let report = run_study(
            &quick(PlatformId::Intel2V100, OpKind::Gemm, Precision::Double)
                .with_cpu_cap(1, Watts(60.0)),
        );
        assert!(report.total_energy_j > 0.0);
    }

    #[test]
    #[should_panic(expected = "cpu cap")]
    fn cpu_cap_panics_on_amd() {
        let _ = run_study(
            &quick(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double)
                .with_cpu_cap(0, Watts(100.0)),
        );
    }

    #[test]
    fn validate_mirrors_run_study_panics() {
        let good = quick(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double);
        assert!(good.validate().is_ok());
        assert!(try_run_study(&good).is_ok());
        // Wrong cap-config arity for the platform.
        let wrong_arity = good
            .clone()
            .with_gpu_config(CapConfig::uniform(CapLevel::B, 2));
        assert!(wrong_arity.validate().is_err());
        // CPU capping is Intel-only.
        let amd_cpu_cap = good.clone().with_cpu_cap(0, Watts(100.0));
        assert!(try_run_study(&amd_cpu_cap).is_err());
        // Non-dividing tile.
        let mut bad_tile = good;
        bad_tile.nb += 1;
        assert!(bad_tile.validate().is_err());
    }

    #[test]
    fn deterministic_reports() {
        let a = run_study(&quick(
            PlatformId::Intel2V100,
            OpKind::Gemm,
            Precision::Single,
        ));
        let b = run_study(&quick(
            PlatformId::Intel2V100,
            OpKind::Gemm,
            Precision::Single,
        ));
        assert_eq!(a.makespan_s, b.makespan_s);
        assert_eq!(a.total_energy_j, b.total_energy_j);
    }
}
