//! Critical-path energy attribution under capping — `repro profile`.
//!
//! Profiles the uncapped `HHHH` run against the fully capped `BBBB` run
//! (GEMM double on the 4-A100 platform) with the
//! [`CriticalPathProfiler`](ugpc_telemetry::CriticalPathProfiler) riding
//! the executor event stream, and compares where the makespan and the
//! busy joules went: on-path vs off-path work per device, worker
//! idle/imbalance, hottest tasks. Capping stretches on-path kernels, so
//! the comparison shows directly *which* work absorbed the slowdown that
//! bought the energy saving.

use crate::format::{f, TextTable};
use serde::{Deserialize, Serialize};
use ugpc_capping::CapConfig;
use ugpc_core::{try_run_study_with, ProfiledRun, RunConfig, StudyOptions};
use ugpc_hwsim::{OpKind, PlatformId, Precision};
use ugpc_telemetry::CriticalPathProfiler;

/// One configuration's run + attribution profile.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfileRow {
    pub config: String,
    pub profiled: ProfiledRun,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfileStudy {
    pub platform: String,
    pub op: String,
    pub top_k: usize,
    pub rows: Vec<ProfileRow>,
}

/// Profile `HHHH` vs `BBBB` GEMM double on the 4-A100 platform.
pub fn run(scale: usize) -> ProfileStudy {
    run_with(PlatformId::Amd4A100, OpKind::Gemm, scale, 5)
}

pub fn run_with(platform: PlatformId, op: OpKind, scale: usize, top_k: usize) -> ProfileStudy {
    let n_gpus = ugpc_hwsim::PlatformSpec::of(platform).gpu_count;
    let rows = ["H", "B"]
        .iter()
        .map(|level| {
            let config: CapConfig = level
                .repeat(n_gpus)
                .parse()
                .expect("uniform config is valid");
            let name = config.to_string();
            let cfg = RunConfig::paper(platform, op, Precision::Double)
                .scaled_down(scale)
                .with_gpu_config(config);
            let mut profiler = CriticalPathProfiler::new().with_top_k(top_k);
            let options = StudyOptions {
                observers: vec![&mut profiler],
                ..Default::default()
            };
            let report = try_run_study_with(&cfg, options)
                .unwrap_or_else(|e| panic!("{e}"))
                .report;
            ProfileRow {
                config: name,
                profiled: ProfiledRun {
                    report,
                    profile: profiler.into_report(),
                },
            }
        })
        .collect();
    ProfileStudy {
        platform: platform.name().to_string(),
        op: op.name().to_string(),
        top_k,
        rows,
    }
}

pub fn render(study: &ProfileStudy) -> String {
    let mut out = format!(
        "Critical-path energy attribution — {} {} double\n\n",
        study.platform, study.op
    );
    for row in &study.rows {
        out.push_str(&format!("=== {} ===\n", row.config));
        out.push_str(&row.profiled.profile.render());
        out.push('\n');
    }
    let mut table = TextTable::new(&[
        "config",
        "makespan s",
        "busy energy J",
        "path busy s",
        "path cover",
        "slack s",
        "gpu imbalance s",
    ]);
    for row in &study.rows {
        let p = &row.profiled.profile;
        table.row(vec![
            row.config.clone(),
            f(p.makespan_s, 3),
            f(p.total_busy_energy_j, 0),
            f(p.path_busy_s, 3),
            format!("{:.1} %", 100.0 * p.path_coverage()),
            f(p.path_slack_s, 3),
            f(p.gpu_imbalance_s(), 3),
        ]);
    }
    out.push_str(&table.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_agrees_with_report_and_identities_hold() {
        let study = run(6);
        assert_eq!(study.rows[0].config, "HHHH");
        assert_eq!(study.rows[1].config, "BBBB");
        for row in &study.rows {
            let p = &row.profiled.profile;
            let r = &row.profiled.report;
            assert_eq!(
                p.makespan_s.to_bits(),
                r.makespan_s.to_bits(),
                "{}: profiler makespan must be the report's, bitwise",
                row.config
            );
            p.check_consistency(1e-9).expect("attribution identities");
            assert_eq!(p.hot_tasks.len(), study.top_k.min(p.graph_tasks));
        }
        // Capping costs time: the capped critical path is longer in
        // wall-clock even though it's the same tasks.
        assert!(
            study.rows[1].profiled.profile.makespan_s > study.rows[0].profiled.profile.makespan_s
        );
    }

    #[test]
    fn render_shows_comparison_table() {
        let text = render(&run(8));
        assert!(text.contains("=== HHHH ==="), "{text}");
        assert!(text.contains("=== BBBB ==="), "{text}");
        assert!(text.contains("critical path:"), "{text}");
        assert!(text.contains("hottest tasks:"), "{text}");
        assert!(text.contains("| config "), "{text}");
        assert!(text.contains("gpu imbalance"), "{text}");
    }
}
