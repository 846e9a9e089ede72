//! Figure 7: energy efficiency across additional tile sizes, all three
//! platforms, both operations and precisions. On 24-Intel-2-V100 one CPU
//! is power capped, as in the paper.

use crate::fig6::CPU_CAP;
use crate::format::{f, TextTable};
use crate::memo::run_study;
use serde::{Deserialize, Serialize};
use ugpc_capping::CapConfig;
use ugpc_core::RunConfig;
use ugpc_hwsim::{OpKind, PlatformId, Precision};

/// Tile sizes per (platform, op): the paper's Table II size plus smaller
/// and larger alternatives that divide N.
pub fn tile_sizes(platform: PlatformId, op: OpKind) -> Vec<usize> {
    match (platform, op) {
        (PlatformId::Intel2V100, OpKind::Gemm) => vec![1440, 2880, 4320],
        (PlatformId::Intel2V100, OpKind::Potrf) => vec![1600, 1920, 3200],
        (PlatformId::Amd2A100, OpKind::Gemm) => vec![2880, 5760, 6912],
        (PlatformId::Amd2A100, OpKind::Potrf) => vec![1920, 2880, 5760],
        (PlatformId::Amd4A100, OpKind::Gemm) => vec![2880, 5760, 7488],
        (PlatformId::Amd4A100, OpKind::Potrf) => vec![1920, 2880, 5760],
    }
}

/// Efficiency of every ladder configuration at one tile size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7Series {
    pub platform: String,
    pub op: String,
    pub precision: String,
    pub nb: usize,
    /// (config, efficiency Gflop/s/W).
    pub efficiency: Vec<(String, f64)>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7 {
    pub series: Vec<Fig7Series>,
}

pub fn run(scale: usize) -> Fig7 {
    // One job per (platform, op, precision, tile size) series; the
    // configs within a series run in submission order inside the job.
    let mut cells = Vec::new();
    for platform in PlatformId::ALL {
        let cpu_cap = (platform == PlatformId::Intel2V100).then_some(CPU_CAP);
        for op in OpKind::ALL {
            for precision in Precision::ALL {
                for nb in tile_sizes(platform, op) {
                    cells.push((platform, cpu_cap, op, precision, nb));
                }
            }
        }
    }
    let series = crate::driver::par_map(cells, |(platform, cpu_cap, op, precision, nb)| {
        let n_gpus = ugpc_hwsim::PlatformSpec::of(platform).gpu_count;
        let efficiency = CapConfig::paper_ladder(n_gpus)
            .into_iter()
            .map(|config| {
                let mut cfg = RunConfig::paper(platform, op, precision)
                    .with_tile(nb)
                    .scaled_down(scale)
                    .with_gpu_config(config.clone());
                if let Some((pkg, w)) = cpu_cap {
                    cfg = cfg.with_cpu_cap(pkg, w);
                }
                let report = run_study(&cfg);
                (config.to_string(), report.efficiency_gflops_w)
            })
            .collect();
        Fig7Series {
            platform: platform.name().to_string(),
            op: op.name().to_string(),
            precision: precision.to_string(),
            nb,
            efficiency,
        }
    });
    Fig7 { series }
}

pub fn render(fig: &Fig7) -> String {
    let mut out = String::from(
        "Fig. 7 — efficiency (Gflop/s/W) across tile sizes (V100 node: one CPU capped)\n\n",
    );
    let mut last_key = String::new();
    for s in &fig.series {
        let key = format!("{} / {} / {}", s.platform, s.op, s.precision);
        if key != last_key {
            out.push_str(&format!("{key}:\n"));
            last_key = key;
        }
        let mut table = TextTable::new(&["Nt", "config", "eff"]);
        for (config, eff) in &s.efficiency {
            table.row(vec![s.nb.to_string(), config.clone(), f(*eff, 2)]);
        }
        out.push_str(&table.render());
    }
    out
}

impl Fig7 {
    /// Efficiency of one (platform, op, precision, nb, config) cell.
    pub fn eff(
        &self,
        platform: PlatformId,
        op: OpKind,
        precision: Precision,
        nb: usize,
        config: &str,
    ) -> f64 {
        self.series
            .iter()
            .find(|s| {
                s.platform == platform.name()
                    && s.op == op.name()
                    && s.precision == precision.to_string()
                    && s.nb == nb
            })
            .and_then(|s| s.efficiency.iter().find(|(c, _)| c == config))
            .map(|(_, e)| *e)
            .expect("cell present")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugpc_hwsim::table_ii_entry;

    #[test]
    fn tile_sizes_divide_table_ii_n() {
        for platform in PlatformId::ALL {
            for op in OpKind::ALL {
                let n = table_ii_entry(platform, op, Precision::Double).n;
                for nb in tile_sizes(platform, op) {
                    assert_eq!(n % nb, 0, "{platform} {op}: {nb} !| {n}");
                }
            }
        }
    }

    #[test]
    fn bbbb_best_on_sxm4_across_tile_sizes() {
        // §V-D: "in most cases, applying a power cap to all GPUs (BBBB)
        // provides the best energy efficiency" on additional tile sizes.
        // Reduced: one platform, one op/precision, all three tiles.
        for nb in tile_sizes(PlatformId::Amd4A100, OpKind::Gemm) {
            let mut effs = Vec::new();
            for config in ["HHHH", "HHBB", "BBBB"] {
                let cfg = RunConfig::paper(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double)
                    .with_tile(nb)
                    .scaled_down(4)
                    .with_gpu_config(config.parse().unwrap());
                effs.push((config, run_study(&cfg).efficiency_gflops_w));
            }
            assert!(
                effs[2].1 > effs[0].1,
                "nb={nb}: BBBB {} vs HHHH {}",
                effs[2].1,
                effs[0].1
            );
            assert!(
                effs[1].1 > effs[0].1,
                "nb={nb}: HHBB {} vs HHHH {}",
                effs[1].1,
                effs[0].1
            );
        }
    }
}
