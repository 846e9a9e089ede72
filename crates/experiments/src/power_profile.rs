//! Power-over-time profiles under capping — the paper's Fig. 5 energy
//! breakdown, resolved in (virtual) time instead of integrated over the
//! run: per-device power timelines for the uncapped `HHHH` run versus the
//! fully capped `BBBB` run on the 4-A100 platform.
//!
//! Built on [`run_study_traced`]: a [`PowerTimeline`](ugpc_runtime::PowerTimeline) observer rides the
//! executor event stream, so the profile comes from the exact same run
//! that produced the report (not a re-simulation).

use crate::format::{f, TextTable};
use serde::{Deserialize, Serialize};
use ugpc_capping::CapConfig;
use ugpc_core::{run_study_traced, RunConfig, TracedRun};
use ugpc_hwsim::{OpKind, PlatformId, Precision};

/// One configuration's run + timeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PowerRow {
    pub config: String,
    pub traced: TracedRun,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PowerStudy {
    pub platform: String,
    pub op: String,
    pub bins: usize,
    pub rows: Vec<PowerRow>,
}

/// Profile `HHHH` vs `BBBB` GEMM double on the 4-A100 platform.
pub fn run(scale: usize) -> PowerStudy {
    run_with(PlatformId::Amd4A100, OpKind::Gemm, scale, 32)
}

pub fn run_with(platform: PlatformId, op: OpKind, scale: usize, bins: usize) -> PowerStudy {
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
            PowerRow {
                config: name,
                traced: run_study_traced(&cfg, bins),
            }
        })
        .collect();
    PowerStudy {
        platform: platform.name().to_string(),
        op: op.name().to_string(),
        bins,
        rows,
    }
}

/// One lane's bins as an ASCII sparkline, scaled to `max_w`. Shared with
/// the `control` study's re-cap profiles.
pub(crate) fn sparkline(bins: &[f64], max_w: f64) -> String {
    const RAMP: [char; 8] = [' ', '.', ':', '-', '=', '+', '*', '#'];
    bins.iter()
        .map(|w| {
            let t = if max_w > 0.0 { w / max_w } else { 0.0 };
            let i = (t * (RAMP.len() - 1) as f64).round() as usize;
            RAMP[i.min(RAMP.len() - 1)]
        })
        .collect()
}

pub fn render(study: &PowerStudy) -> String {
    let mut out = format!(
        "Power timelines — {} {} double, {} bins over each makespan\n\n",
        study.platform, study.op, study.bins
    );
    // One power scale across all rows so the sparklines compare.
    let max_w = study
        .rows
        .iter()
        .flat_map(|r| r.traced.power.peak_w.iter().copied())
        .fold(0.0f64, f64::max);
    for row in &study.rows {
        let p = &row.traced.power;
        out.push_str(&format!(
            "{}: makespan {} s, {} J, {} Gflop/s/W\n",
            row.config,
            f(row.traced.report.makespan_s, 2),
            f(row.traced.report.total_energy_j, 0),
            f(row.traced.report.efficiency_gflops_w, 1),
        ));
        for (i, lane) in p.lanes.iter().enumerate() {
            out.push_str(&format!(
                "  {:>6} |{}| peak {} W\n",
                lane,
                sparkline(&p.avg_w[i], max_w),
                f(p.peak_w[i], 0),
            ));
        }
        out.push('\n');
    }
    let mut table = TextTable::new(&["config", "makespan s", "energy J", "gpu0 mean W", "peak W"]);
    for row in &study.rows {
        let p = &row.traced.power;
        let gpu0 = p.lane("gpu0").map(|l| p.mean_w(l)).unwrap_or(0.0);
        let peak = p.peak_w.iter().copied().fold(0.0f64, f64::max);
        table.row(vec![
            row.config.clone(),
            f(row.traced.report.makespan_s, 2),
            f(row.traced.report.total_energy_j, 0),
            f(gpu0, 0),
            f(peak, 0),
        ]);
    }
    out.push_str(&table.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capping_flattens_the_power_envelope() {
        let study = run(4);
        let hhhh = &study.rows[0];
        let bbbb = &study.rows[1];
        assert_eq!(hhhh.config, "HHHH");
        assert_eq!(bbbb.config, "BBBB");
        let peak = |r: &PowerRow| r.traced.power.peak_w.iter().copied().fold(0.0f64, f64::max);
        assert!(
            peak(hhhh) > peak(bbbb),
            "capping must lower the power peak: {} vs {}",
            peak(hhhh),
            peak(bbbb)
        );
        assert!(
            bbbb.traced.report.makespan_s > hhhh.traced.report.makespan_s,
            "capping must cost time"
        );
    }

    #[test]
    fn lanes_cover_the_platform() {
        let study = run(6);
        for row in &study.rows {
            assert_eq!(
                row.traced.power.lanes.len(),
                5,
                "4 GPUs + 1 package on Amd4A100"
            );
            assert!(row.traced.power.avg_w.iter().all(|l| l.len() == study.bins));
        }
    }

    #[test]
    fn render_shows_sparklines_per_lane() {
        let text = render(&run(8));
        assert!(text.contains("HHHH") && text.contains("BBBB"));
        assert!(text.contains("gpu0") && text.contains("gpu3") && text.contains("cpu0"));
        assert!(text.contains('|'), "sparkline rails present");
        assert!(text.contains("peak"));
    }
}
