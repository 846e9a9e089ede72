//! Shared machinery for the unbalanced-capping ladders of Figs. 3 and 4:
//! run every configuration of the paper's ladder (`LLLL … HHHH … BBBB`)
//! for one (platform, operation, precision) and compare against the
//! default `H…H`.

use crate::format::{f, pct, TextTable};
use crate::memo::run_study;
use serde::{Deserialize, Serialize};
use ugpc_capping::CapConfig;
use ugpc_core::{compare, Comparison, RunConfig, RunReport};
use ugpc_hwsim::{OpKind, PlatformId, Precision, Watts};

/// One configuration's outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LadderRow {
    pub config: String,
    pub report: RunReport,
    /// Versus the default configuration (paper sign conventions).
    pub vs_default: Comparison,
}

/// One (platform, op, precision) ladder — one subplot of Fig. 3/4.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ladder {
    pub platform: String,
    pub op: String,
    pub precision: String,
    pub cpu_capped: bool,
    pub rows: Vec<LadderRow>,
}

impl Ladder {
    /// Checked lookup: `None` when the ladder has no such configuration.
    pub fn try_row(&self, config: &str) -> Option<&LadderRow> {
        self.rows.iter().find(|r| r.config == config)
    }

    pub fn row(&self, config: &str) -> &LadderRow {
        match self.try_row(config) {
            Some(r) => r,
            None => panic!("no config {config} in ladder"),
        }
    }

    /// The best-efficiency configuration.
    pub fn best_config(&self) -> &LadderRow {
        self.rows
            .iter()
            .max_by(|a, b| {
                a.report
                    .efficiency_gflops_w
                    .total_cmp(&b.report.efficiency_gflops_w)
            })
            .expect("non-empty ladder")
    }
}

/// Run the full ladder. `scale` shrinks the problem (1 = paper size);
/// `cpu_cap` optionally caps one CPU package for every run (§V-C).
pub fn run_ladder(
    platform: PlatformId,
    op: OpKind,
    precision: Precision,
    scale: usize,
    cpu_cap: Option<(usize, Watts)>,
) -> Ladder {
    let base_cfg = |config: CapConfig| {
        let mut c = RunConfig::paper(platform, op, precision)
            .scaled_down(scale)
            .with_gpu_config(config);
        if let Some((pkg, w)) = cpu_cap {
            c = c.with_cpu_cap(pkg, w);
        }
        c
    };
    let n_gpus = ugpc_hwsim::PlatformSpec::of(platform).gpu_count;
    let default = run_study(&base_cfg(CapConfig::uniform(
        ugpc_capping::CapLevel::H,
        n_gpus,
    )));
    // Each remaining configuration is an independent simulation — fan
    // them across the sweep driver (the default H…H already ran above
    // and is reused, exactly as in the serial path).
    let rows = crate::driver::par_map(CapConfig::paper_ladder(n_gpus), |config| {
        let report = if config.is_default() {
            default.clone()
        } else {
            run_study(&base_cfg(config.clone()))
        };
        let vs_default = compare(&report, &default);
        LadderRow {
            config: config.to_string(),
            report,
            vs_default,
        }
    });
    Ladder {
        platform: platform.name().to_string(),
        op: op.name().to_string(),
        precision: precision.to_string(),
        cpu_capped: cpu_cap.is_some(),
        rows,
    }
}

/// Render one ladder in the axes of Fig. 3/4: % performance, % energy
/// saving (both vs default), and absolute efficiency.
pub fn render(l: &Ladder) -> String {
    let mut out = format!(
        "{} / {} / {}{}\n",
        l.platform,
        l.op,
        l.precision,
        if l.cpu_capped {
            " (one CPU capped)"
        } else {
            ""
        }
    );
    let mut table = TextTable::new(&[
        "config",
        "perf vs H",
        "energy vs H",
        "eff (Gflop/s/W)",
        "Gflop/s",
        "energy (kJ)",
        "cpu tasks",
    ]);
    for r in &l.rows {
        table.row(vec![
            r.config.clone(),
            pct(r.vs_default.perf_pct),
            pct(r.vs_default.energy_pct),
            f(r.report.efficiency_gflops_w, 2),
            f(r.report.gflops, 0),
            f(r.report.total_energy_j / 1e3, 2),
            r.report.cpu_tasks.to_string(),
        ]);
    }
    out.push_str(&table.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_covers_paper_configs() {
        let l = run_ladder(
            PlatformId::Amd4A100,
            OpKind::Gemm,
            Precision::Double,
            6,
            None,
        );
        let configs: Vec<&str> = l.rows.iter().map(|r| r.config.as_str()).collect();
        assert_eq!(
            configs,
            vec!["LLLL", "HLLL", "HHLL", "HHHL", "HHHH", "HHHB", "HHBB", "HBBB", "BBBB"]
        );
        // Default row compares to itself.
        let h = l.row("HHHH");
        assert!(h.vs_default.perf_pct.abs() < 1e-9);
    }

    #[test]
    fn sxm4_dp_gemm_shapes() {
        // The load-bearing Fig. 3a shapes, on a reduced problem.
        let l = run_ladder(
            PlatformId::Amd4A100,
            OpKind::Gemm,
            Precision::Double,
            2,
            None,
        );
        let llll = l.row("LLLL");
        let bbbb = l.row("BBBB");
        let hhhh = l.row("HHHH");
        // LLLL: massive slowdown, *more* energy.
        assert!(llll.vs_default.perf_pct < -60.0, "{:?}", llll.vs_default);
        assert!(llll.vs_default.energy_pct < 0.0, "{:?}", llll.vs_default);
        // BBBB: the best efficiency, better than default.
        assert!(
            bbbb.report.efficiency_gflops_w > hhhh.report.efficiency_gflops_w,
            "BBBB {} vs HHHH {}",
            bbbb.report.efficiency_gflops_w,
            hhhh.report.efficiency_gflops_w
        );
        assert_eq!(l.best_config().config, "BBBB");
        // Partial capping sits between.
        let hhbb = l.row("HHBB");
        assert!(hhbb.vs_default.perf_pct < 0.0);
        assert!(hhbb.vs_default.perf_pct > bbbb.vs_default.perf_pct);
    }

    #[test]
    fn render_contains_all_rows() {
        let l = run_ladder(
            PlatformId::Intel2V100,
            OpKind::Gemm,
            Precision::Double,
            6,
            None,
        );
        let text = render(&l);
        for r in &l.rows {
            assert!(text.contains(&r.config));
        }
        assert!(text.contains("24-Intel-2-V100"));
    }

    #[test]
    fn try_row_is_checked() {
        let l = run_ladder(
            PlatformId::Intel2V100,
            OpKind::Gemm,
            Precision::Double,
            6,
            None,
        );
        assert!(l.try_row("XXXX").is_none());
        assert_eq!(l.try_row("HH").map(|r| r.config.as_str()), Some("HH"));
    }

    #[test]
    #[should_panic(expected = "no config")]
    fn missing_config_panics() {
        let l = run_ladder(
            PlatformId::Intel2V100,
            OpKind::Gemm,
            Precision::Double,
            6,
            None,
        );
        let _ = l.row("XXXX");
    }
}
