//! Table II: the experiment constants (matrix/tile sizes, power states)
//! plus a re-derivation of each `P_best` by sweeping the GEMM kernel at
//! the operation's tile size.

use crate::format::{f, TextTable};
use serde::{Deserialize, Serialize};
use ugpc_capping::{best_point, cap_sweep};
use ugpc_hwsim::{table_ii, GpuSpec, PlatformSpec, TableIIEntry};

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Row {
    pub entry: TableIIEntry,
    /// P_min / P_best / P_max in watts.
    pub p_min_w: f64,
    pub p_best_w: f64,
    pub p_max_w: f64,
    /// Best cap fraction re-derived by sweeping at this tile size.
    pub rederived_best_frac: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2 {
    pub rows: Vec<Table2Row>,
}

pub fn run() -> Table2 {
    // One independent cap sweep per Table II entry — fan out.
    let rows = crate::driver::par_map(table_ii().to_vec(), |entry| {
        let spec = GpuSpec::of(PlatformSpec::of(entry.platform).gpu_model);
        let sweep = cap_sweep(spec.model, entry.nt, entry.precision, 0.02);
        let best = best_point(&sweep);
        Table2Row {
            p_min_w: spec.min_cap.value(),
            p_best_w: spec.tdp.value() * entry.best_cap_frac,
            p_max_w: spec.tdp.value(),
            rederived_best_frac: best.cap_frac,
            entry,
        }
    });
    Table2 { rows }
}

pub fn render(t: &Table2) -> String {
    let mut out = String::from(
        "Table II — matrix/tile sizes and GPU power states per platform and operation\n\n",
    );
    let mut table = TextTable::new(&[
        "platform",
        "op",
        "precision",
        "N",
        "Nt",
        "P_best %TDP (paper)",
        "P_best %TDP (sweep @ Nt)",
        "P_min W",
        "P_best W",
        "P_max W",
    ]);
    for r in &t.rows {
        table.row(vec![
            r.entry.platform.name().to_string(),
            r.entry.op.name().to_string(),
            r.entry.precision.to_string(),
            r.entry.n.to_string(),
            r.entry.nt.to_string(),
            f(r.entry.best_cap_frac * 100.0, 0),
            f(r.rederived_best_frac * 100.0, 0),
            f(r.p_min_w, 0),
            f(r.p_best_w, 0),
            f(r.p_max_w, 0),
        ]);
    }
    out.push_str(&table.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_rows_with_consistent_states() {
        let t = run();
        assert_eq!(t.rows.len(), 12);
        for r in &t.rows {
            // B may coincide with L (64-AMD-2-A100 single precision, §V-B).
            assert!(r.p_min_w <= r.p_best_w, "{:?}", r.entry);
            assert!(r.p_best_w < r.p_max_w, "{:?}", r.entry);
            // Re-derived optimum lands within the plausible band of the
            // table value (tile-size effects shift it by a few points).
            assert!(
                (r.rederived_best_frac - r.entry.best_cap_frac).abs() < 0.17,
                "{:?}: {} vs {}",
                r.entry,
                r.rederived_best_frac,
                r.entry.best_cap_frac
            );
        }
    }

    #[test]
    fn render_lists_all_platforms() {
        let text = render(&run());
        assert!(text.contains("24-Intel-2-V100"));
        assert!(text.contains("64-AMD-2-A100"));
        assert!(text.contains("32-AMD-4-A100"));
        assert!(text.contains("74880"));
    }
}
