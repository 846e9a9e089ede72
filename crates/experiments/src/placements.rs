//! Placement invariance (§IV-C): the paper evaluated every *placement* of
//! each configuration (`HHHB`, `HHBH`, `HBHH`, `BHHH`, …) and "found that
//! the variation in results was negligible", which justifies presenting
//! only canonical forms. This experiment reproduces that check.

use crate::format::{f, TextTable};
use crate::memo::run_study;
use serde::{Deserialize, Serialize};
use ugpc_capping::{CapConfig, CapLevel};
use ugpc_core::RunConfig;
use ugpc_hwsim::{OpKind, PlatformId, Precision};

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlacementRow {
    pub config: String,
    pub gflops: f64,
    pub efficiency_gflops_w: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlacementStudy {
    pub canonical: String,
    pub rows: Vec<PlacementRow>,
    /// Max relative spread of efficiency across placements.
    pub eff_spread: f64,
    /// Max relative spread of performance across placements.
    pub perf_spread: f64,
}

/// All distinct placements with the same level multiset as `canonical`.
pub fn placements_of(canonical: &CapConfig) -> Vec<CapConfig> {
    let levels = canonical.levels().to_vec();
    let mut out: Vec<Vec<CapLevel>> = vec![vec![]];
    // Generate permutations via simple recursion with dedup at the end.
    fn rec(remaining: &mut Vec<CapLevel>, cur: &mut Vec<CapLevel>, out: &mut Vec<Vec<CapLevel>>) {
        if remaining.is_empty() {
            out.push(cur.clone());
            return;
        }
        for i in 0..remaining.len() {
            let l = remaining.remove(i);
            cur.push(l);
            rec(remaining, cur, out);
            cur.pop();
            remaining.insert(i, l);
        }
    }
    out.clear();
    let mut rem = levels;
    rec(&mut rem, &mut Vec::new(), &mut out);
    out.sort();
    out.dedup();
    out.into_iter().map(CapConfig::new).collect()
}

/// Run every placement of `canonical` for GEMM dp on the 4-GPU platform.
pub fn run(canonical: &str, scale: usize) -> PlacementStudy {
    let canonical: CapConfig = canonical.parse().expect("valid config");
    // Each placement is an independent simulation — fan out.
    let rows: Vec<PlacementRow> = crate::driver::par_map(placements_of(&canonical), |config| {
        let cfg = RunConfig::paper(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double)
            .scaled_down(scale)
            .with_gpu_config(config.clone());
        let r = run_study(&cfg);
        PlacementRow {
            config: config.to_string(),
            gflops: r.gflops,
            efficiency_gflops_w: r.efficiency_gflops_w,
        }
    });
    let spread = |vals: Vec<f64>| {
        let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (max - min) / min.max(1e-300)
    };
    PlacementStudy {
        canonical: canonical.to_string(),
        eff_spread: spread(rows.iter().map(|r| r.efficiency_gflops_w).collect()),
        perf_spread: spread(rows.iter().map(|r| r.gflops).collect()),
        rows,
    }
}

pub fn render(s: &PlacementStudy) -> String {
    let mut out = format!(
        "Placement invariance (§IV-C) — all placements of {} on 32-AMD-4-A100 / GEMM / dp\n\n",
        s.canonical
    );
    let mut table = TextTable::new(&["placement", "Gflop/s", "eff (Gflop/s/W)"]);
    for r in &s.rows {
        table.row(vec![
            r.config.clone(),
            f(r.gflops, 0),
            f(r.efficiency_gflops_w, 2),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nspread: perf {:.3} %, efficiency {:.3} %\n",
        s.perf_spread * 100.0,
        s.eff_spread * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_enumeration() {
        let c: CapConfig = "HHHB".parse().unwrap();
        let p = placements_of(&c);
        assert_eq!(p.len(), 4);
        let c: CapConfig = "HHBB".parse().unwrap();
        assert_eq!(placements_of(&c).len(), 6);
        let c: CapConfig = "HHHH".parse().unwrap();
        assert_eq!(placements_of(&c).len(), 1);
        let c: CapConfig = "HBL".parse().unwrap();
        assert_eq!(placements_of(&c).len(), 6);
    }

    #[test]
    fn variation_across_placements_is_negligible() {
        // The paper's §IV-C observation.
        for canonical in ["HHHB", "HHBB"] {
            let s = run(canonical, 3);
            assert!(
                s.perf_spread < 0.02,
                "{canonical}: perf spread {:.4}",
                s.perf_spread
            );
            assert!(
                s.eff_spread < 0.02,
                "{canonical}: eff spread {:.4}",
                s.eff_spread
            );
        }
    }

    #[test]
    fn render_shows_spread() {
        let s = run("HHHB", 6);
        let text = render(&s);
        assert!(text.contains("spread"));
        assert!(text.contains("HBHH"));
    }
}
