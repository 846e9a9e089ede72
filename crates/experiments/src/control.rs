//! Online sweet-spot capping vs the offline sweep — the `repro control`
//! study.
//!
//! The paper finds the per-GPU sweet-spot cap *offline*: sweep static
//! caps, run the workload once per cap, pick the best (Table II). The
//! `ugpc-control` crate closes that loop *online*: a controller rides
//! one run, scores sensor windows under a pluggable objective, and
//! re-caps the GPUs mid-run. This study puts the two side by side on
//! GEMM and POTRF:
//!
//! * **offline**: a uniform static-cap sweep from the device minimum to
//!   TDP, every point a full measured run, each objective evaluated on
//!   the whole-run metrics — the sweet spot the paper's method would
//!   pick with perfect hindsight;
//! * **online**: one controlled run per objective, starting uncapped
//!   (`HHHH`), with the caps the search rested at re-evaluated by a
//!   fresh static run so both columns are scored by the same evaluator.
//!
//! The acceptance bar (pinned by `tests/control_bench.rs` on the
//! committed `results/bench/BENCH_control.json`): the online controller
//! lands within 5 % of the offline sweet spot's objective value, for
//! every objective, on both operations.

use crate::driver::par_map;
use crate::format::{f, TextTable};
use crate::power_profile::sparkline;
use serde::{Deserialize, Serialize};
use ugpc_control::{ControllerSpec, DecisionRecord, ObjectiveKind, WindowMetrics};
use ugpc_core::{run_study, try_run_study_with, RunConfig, RunReport, Study, StudyOptions};
use ugpc_hwsim::{Flops, GpuSpec, Joules, OpKind, PlatformId, PlatformSpec, Precision, Secs};
use ugpc_runtime::{PowerProfile, PowerTimeline};

/// One objective's online-vs-offline comparison on one operation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObjectiveRow {
    /// The objective's wire name (`gflops-w`, `edp`, ...).
    pub objective: String,
    /// Caps the online search rested at when the run finished (W).
    pub final_caps_w: Vec<f64>,
    /// Re-cap commands applied mid-run.
    pub recaps: usize,
    /// Control ticks that fired.
    pub ticks: usize,
    /// Whether every device's search exhausted its step budget in-run.
    pub converged: bool,
    /// The controlled run itself (includes the exploration transient).
    pub controlled: RunReport,
    /// Whole-run objective value of a *static* run at the found caps.
    pub online_value: f64,
    /// Best uniform static cap from the offline sweep (W).
    pub offline_cap_w: f64,
    /// Whole-run objective value at that offline sweet spot.
    pub offline_value: f64,
    /// How far online landed below offline, in % (negative = online
    /// beat the uniform offline optimum).
    pub gap_pct: f64,
    /// Per-device power timeline of the controlled run — the re-caps
    /// are visible as mid-run steps.
    pub power: PowerProfile,
}

/// One operation's worth of comparisons.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ControlCase {
    pub op: String,
    /// Window scores buffered per re-cap decision for this operation
    /// (see [`controller_tuning`]).
    pub votes: u32,
    /// Occupancy gate below which a window is discarded as idle-phase
    /// noise (see [`controller_tuning`]).
    pub min_occupancy: f64,
    /// Uncapped static reference (`HHHH`) — also the perf-floor
    /// objective's reference performance.
    pub uncapped: RunReport,
    /// The paper's fully capped static baseline (`BBBB`).
    pub static_bbbb: RunReport,
    /// The uniform caps the offline sweep visited (W).
    pub sweep_caps_w: Vec<f64>,
    pub rows: Vec<ObjectiveRow>,
}

/// One run of the study. Every configuration here is built from the
/// platform's own specification, so a rejection is a bug in this file.
fn study(cfg: &RunConfig, options: StudyOptions<'_>) -> Study {
    try_run_study_with(cfg, options).unwrap_or_else(|e| panic!("{e}"))
}

/// One static run at explicit per-GPU watt caps.
fn run_study_at_caps(cfg: &RunConfig, caps_w: &[f64]) -> RunReport {
    let options = StudyOptions {
        caps_w: Some(caps_w.to_vec()),
        ..Default::default()
    };
    study(cfg, options).report
}

/// Per-operation controller tuning: `(votes, min_occupancy)`.
///
/// The control epoch has to match the workload's phase structure, so —
/// like DEPO's per-application tuning — the quorum size is chosen per
/// operation. GEMM's windows are dense and uniform; a 6-window quorum
/// averages out the few DAG-drain dips that would otherwise fake a
/// downhill gradient. POTRF alternates GPU bursts with CPU panel
/// phases, so busy windows are scarce: a 6-window quorum takes so long
/// to fill that the search cannot finish its descent in-run, while 5
/// converges. Both gate out windows where the device sat mostly idle
/// (occupancy < 0.9) — those score the workload's gaps, not the cap.
fn controller_tuning(op: OpKind) -> (u32, f64) {
    match op {
        OpKind::Potrf => (5, 0.9),
        _ => (6, 0.9),
    }
}

/// One controlled run's decision journal, kept alongside (not inside)
/// the study so the study's serialized form — and the committed
/// `BENCH_control.json` it refreshes — is byte-identical whether or not
/// anyone asked for an explanation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExplainEntry {
    pub op: String,
    pub objective: String,
    /// One record per (tick, device), tick-major: the full provenance
    /// of every re-cap and every decision not to move.
    pub journal: Vec<DecisionRecord>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ControlStudy {
    pub platform: String,
    pub precision: String,
    pub scale: usize,
    /// Control period in virtual seconds.
    pub period_s: f64,
    /// Floor fraction for the perf-floor objective.
    pub perf_floor: f64,
    pub bins: usize,
    pub cases: Vec<ControlCase>,
}

/// Whole-run metrics in the controller's own window currency, so the
/// offline and online columns are scored by the very same objective
/// code that drove the search.
fn whole_run_window(r: &RunReport) -> WindowMetrics {
    WindowMetrics {
        flops: Flops::from_gflop(r.gflops * r.makespan_s),
        energy: Joules(r.total_energy_j),
        elapsed: Secs(r.makespan_s),
        busy_time: Secs(r.makespan_s),
    }
}

/// Score `run` under `kind`. The uncapped reference is scored first so
/// the perf-floor objective pins its reference performance exactly as
/// the online controller does (first window at the starting caps).
pub fn objective_value(
    kind: ObjectiveKind,
    perf_floor: f64,
    uncapped: &RunReport,
    run: &RunReport,
) -> f64 {
    let mut obj = kind.build(perf_floor);
    let _ = obj.score(&whole_run_window(uncapped));
    obj.score(&whole_run_window(run)).value()
}

/// GEMM + POTRF double on the 4-A100 platform, all four objectives.
pub fn run(scale: usize) -> ControlStudy {
    run_explained(scale).0
}

/// [`run`] plus the per-run decision journals for `--explain`.
pub fn run_explained(scale: usize) -> (ControlStudy, Vec<ExplainEntry>) {
    run_with(PlatformId::Amd4A100, scale, 0.1, 0.85, 32, 26)
}

/// A fast variant for CI's `repro control --smoke`: deep scale-down,
/// short control period, coarse sweep. Exercises every code path; the
/// 5 % acceptance bar applies only to the committed full-scale study.
pub fn run_smoke() -> (ControlStudy, Vec<ExplainEntry>) {
    run_with(PlatformId::Amd4A100, 8, 0.02, 0.85, 16, 7)
}

/// The study plus the decision journal of every controlled run. The
/// journals ride the same runs — nothing is re-simulated — and live
/// outside [`ControlStudy`], so the study's bytes never depend on
/// whether anyone reads them.
pub fn run_with(
    platform: PlatformId,
    scale: usize,
    period_s: f64,
    perf_floor: f64,
    bins: usize,
    sweep_points: usize,
) -> (ControlStudy, Vec<ExplainEntry>) {
    assert!(sweep_points >= 2, "sweep needs at least min and TDP");
    let spec = PlatformSpec::of(platform);
    let n_gpus = spec.gpu_count;
    let gpu = GpuSpec::of(spec.gpu_model);
    let (min_w, tdp_w) = (gpu.min_cap.value(), gpu.tdp.value());
    let sweep_caps_w: Vec<f64> = (0..sweep_points)
        .map(|i| min_w + (tdp_w - min_w) * i as f64 / (sweep_points - 1) as f64)
        .collect();

    let mut journals: Vec<ExplainEntry> = Vec::new();
    let cases = [OpKind::Gemm, OpKind::Potrf]
        .into_iter()
        .map(|op| {
            let cfg = RunConfig::paper(platform, op, Precision::Double).scaled_down(scale);
            let (votes, min_occupancy) = controller_tuning(op);
            let uncapped = run_study(&cfg);
            let static_bbbb = run_study(
                &cfg.clone()
                    .with_gpu_config("B".repeat(n_gpus).parse().expect("uniform B config")),
            );
            // Offline: one full static run per uniform cap level.
            let sweep: Vec<RunReport> = par_map(sweep_caps_w.clone(), |cap| {
                run_study_at_caps(&cfg, &vec![cap; n_gpus])
            });
            // Online: one controlled run per objective, starting at TDP.
            let rows = par_map(ObjectiveKind::ALL.to_vec(), |kind| {
                let ctl_spec = ControllerSpec::new(kind)
                    .with_period(period_s)
                    .with_perf_floor(perf_floor)
                    .with_votes(votes)
                    .with_min_occupancy(min_occupancy);
                let mut timeline = PowerTimeline::new(bins);
                let Study { report, control } = study(
                    &cfg,
                    StudyOptions {
                        controller: Some(ctl_spec),
                        observers: vec![&mut timeline],
                        ..Default::default()
                    },
                );
                let controlled = control.expect("controller attached");
                let settled = run_study_at_caps(&cfg, &controlled.final_caps_w);
                let online_value = objective_value(kind, perf_floor, &uncapped, &settled);
                let (offline_cap_w, offline_value) = sweep_caps_w
                    .iter()
                    .zip(&sweep)
                    .map(|(&cap, report)| {
                        (cap, objective_value(kind, perf_floor, &uncapped, report))
                    })
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("non-empty sweep");
                let row = ObjectiveRow {
                    objective: kind.name().to_string(),
                    final_caps_w: controlled.final_caps_w.clone(),
                    recaps: controlled.recaps,
                    ticks: controlled.ticks.len(),
                    converged: controlled.converged,
                    controlled: report,
                    online_value,
                    offline_cap_w,
                    offline_value,
                    gap_pct: (1.0 - online_value / offline_value) * 100.0,
                    power: timeline.into_profile(),
                };
                let entry = ExplainEntry {
                    op: op.name().to_string(),
                    objective: kind.name().to_string(),
                    journal: controlled.journal,
                };
                (row, entry)
            });
            let (rows, entries): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
            journals.extend(entries);
            ControlCase {
                op: op.name().to_string(),
                votes,
                min_occupancy,
                uncapped,
                static_bbbb,
                sweep_caps_w: sweep_caps_w.clone(),
                rows,
            }
        })
        .collect();

    let study = ControlStudy {
        platform: platform.name().to_string(),
        precision: Precision::Double.to_string(),
        scale,
        period_s,
        perf_floor,
        bins,
        cases,
    };
    (study, journals)
}

/// Render the decision journals as the `repro control --explain` dump:
/// one block per controlled run, one line per (tick, device) decision —
/// the cap in force, the window evidence, and what the controller did
/// with it. Deterministic: the text is a pure function of the journals.
pub fn render_explain(journals: &[ExplainEntry]) -> String {
    let mut out = String::from("Re-cap decision journals (--explain)\n");
    for entry in journals {
        let recaps = entry.journal.iter().filter(|d| d.recap).count();
        out.push_str(&format!(
            "\n{} / {} — {} decisions, {} re-caps\n",
            entry.op,
            entry.objective,
            entry.journal.len(),
            recaps,
        ));
        for d in &entry.journal {
            out.push_str(&format!(
                "  t {:>7} gpu{} cap {:>3} W",
                f(d.t, 3),
                d.device,
                f(d.cap_w, 0),
            ));
            if let Some(occ) = d.occupancy {
                out.push_str(&format!(" occ {}", f(occ, 2)));
            }
            match (&d.gate, &d.outcome) {
                (Some(gate), _) => out.push_str(&format!(": skipped ({})\n", gate.name())),
                (None, None) => out.push_str(&format!(
                    ": score {}, buffered vote {} (quorum pending)\n",
                    f(d.score.unwrap_or(f64::NAN), 3),
                    d.votes_buffered,
                )),
                (None, Some(step)) => {
                    out.push_str(&format!(
                        ": score {}, quorum best {}: {} -> cap {} W",
                        f(d.score.unwrap_or(f64::NAN), 3),
                        f(d.quorum.unwrap_or(f64::NAN), 3),
                        step.comparison.name(),
                        f(step.cap_after_w, 0),
                    ));
                    if d.recap {
                        out.push_str("  [re-cap]");
                    }
                    if step.converged {
                        out.push_str("  (converged)");
                    }
                    out.push('\n');
                }
            }
        }
    }
    out
}

fn caps_str(caps: &[f64]) -> String {
    caps.iter()
        .map(|c| format!("{c:.0}"))
        .collect::<Vec<_>>()
        .join("/")
}

pub fn render(study: &ControlStudy) -> String {
    let mut out = format!(
        "Online sweet-spot capping — {} double, scale {}, period {} s\n\n",
        study.platform, study.scale, study.period_s
    );
    for case in &study.cases {
        out.push_str(&format!(
            "{}: uncapped {} Gflop/s/W, static BBBB {} Gflop/s/W\n\n",
            case.op,
            f(case.uncapped.efficiency_gflops_w, 1),
            f(case.static_bbbb.efficiency_gflops_w, 1),
        ));
        let mut table = TextTable::new(&[
            "objective",
            "final caps W",
            "recaps",
            "conv",
            "online value",
            "offline value",
            "offline cap W",
            "gap %",
        ]);
        for row in &case.rows {
            table.row(vec![
                row.objective.clone(),
                caps_str(&row.final_caps_w),
                row.recaps.to_string(),
                if row.converged { "yes" } else { "no" }.to_string(),
                f(row.online_value, 2),
                f(row.offline_value, 2),
                f(row.offline_cap_w, 0),
                f(row.gap_pct, 2),
            ]);
        }
        out.push_str(&table.render());
        out.push('\n');
        // Re-cap power profiles: every mid-run cap change is a step in
        // the GPU lanes.
        let max_w = case
            .rows
            .iter()
            .flat_map(|r| r.power.peak_w.iter().copied())
            .fold(0.0f64, f64::max);
        for row in &case.rows {
            out.push_str(&format!(
                "{} ({} re-caps, makespan {} s):\n",
                row.objective,
                row.recaps,
                f(row.controlled.makespan_s, 2),
            ));
            for (i, lane) in row.power.lanes.iter().enumerate() {
                if !lane.starts_with("gpu") {
                    continue;
                }
                out.push_str(&format!(
                    "  {:>6} |{}| peak {} W\n",
                    lane,
                    sparkline(&row.power.avg_w[i], max_w),
                    f(row.power.peak_w[i], 0),
                ));
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_study_covers_both_ops_and_all_objectives() {
        let (study, _) = run_smoke();
        assert_eq!(study.cases.len(), 2);
        for case in &study.cases {
            assert_eq!(case.rows.len(), ObjectiveKind::ALL.len());
            assert!(case.sweep_caps_w.len() >= 2);
            let gpu = GpuSpec::of(ugpc_hwsim::GpuModel::A100Sxm4_40);
            for row in &case.rows {
                assert_eq!(row.final_caps_w.len(), 4);
                for &cap in &row.final_caps_w {
                    assert!(
                        (gpu.min_cap.value()..=gpu.tdp.value()).contains(&cap),
                        "{}: cap {cap} outside the device window",
                        row.objective
                    );
                }
                assert!(row.offline_value > 0.0, "{}", row.objective);
                assert!(row.online_value.is_finite());
                assert!(row.power.avg_w.iter().all(|l| l.len() == study.bins));
            }
        }
    }

    #[test]
    fn smoke_study_is_deterministic() {
        let a = serde_json::to_string(&run_smoke().0).expect("serialize");
        let b = serde_json::to_string(&run_smoke().0).expect("serialize");
        assert_eq!(a, b);
    }

    #[test]
    fn objective_values_rank_the_sweet_spot_above_tdp() {
        // At the kernel sweet spot the whole-run efficiency objective
        // must beat the uncapped run — the paper's headline effect, seen
        // through the objective evaluator.
        let cfg =
            RunConfig::paper(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double).scaled_down(4);
        let uncapped = run_study(&cfg);
        let capped = run_study_at_caps(&cfg, &[216.0; 4]);
        let kind = ObjectiveKind::GflopsPerWatt;
        assert!(
            objective_value(kind, 0.85, &uncapped, &capped)
                > objective_value(kind, 0.85, &uncapped, &uncapped)
        );
    }

    #[test]
    fn journals_cover_every_controlled_run() {
        let (study, journals) = run_smoke();
        // One journal per (op, objective) controlled run, in study order.
        assert_eq!(journals.len(), 2 * ObjectiveKind::ALL.len());
        for (case, chunk) in study
            .cases
            .iter()
            .zip(journals.chunks(ObjectiveKind::ALL.len()))
        {
            for (row, entry) in case.rows.iter().zip(chunk) {
                assert_eq!(entry.op, case.op);
                assert_eq!(entry.objective, row.objective);
                assert_eq!(entry.journal.iter().filter(|d| d.recap).count(), row.recaps);
                // Every tick journals every device.
                assert_eq!(entry.journal.len(), row.ticks * 4);
            }
        }
    }

    #[test]
    fn explain_render_is_deterministic_and_names_gates_and_votes() {
        let (_, journals) = run_smoke();
        let text = render_explain(&journals);
        assert_eq!(text, render_explain(&journals), "pure function of input");
        assert!(text.contains("GEMM / gflops-w"));
        assert!(text.contains("POTRF / perf-floor"));
        // The smoke run is too short to fill its 5–6-window quorums, so
        // its journal shows the evidence-gathering paths: buffered votes
        // and gated (empty / low-occupancy) windows.
        assert!(text.contains("buffered vote"), "quorum buffering rendered");
        assert!(text.contains("skipped ("), "gated windows rendered");
    }

    #[test]
    fn explain_render_shows_quorum_decisions_and_recaps() {
        use ugpc_control::{CapperStep, Comparison};
        // A hand-built journal exercising the decision branch the smoke
        // study is too short to reach: a filled quorum driving a re-cap.
        let entry = ExplainEntry {
            op: "GEMM".to_string(),
            objective: "gflops-w".to_string(),
            journal: vec![DecisionRecord {
                t: 0.1,
                device: 2,
                cap_w: 400.0,
                occupancy: Some(0.97),
                gate: None,
                score: Some(41.5),
                votes_buffered: 0,
                quorum: Some(42.0),
                outcome: Some(CapperStep {
                    comparison: Comparison::First,
                    cap_before_w: 400.0,
                    cap_after_w: 368.0,
                    step_w: 32.0,
                    direction: -1.0,
                    converged: false,
                }),
                recap: true,
            }],
        };
        let text = render_explain(&[entry]);
        assert!(text.contains("1 decisions, 1 re-caps"));
        assert!(text.contains("gpu2"));
        assert!(text.contains("quorum best 42"));
        assert!(text.contains("first"), "comparison name rendered");
        assert!(text.contains("cap 368 W"));
        assert!(text.contains("[re-cap]"));
    }

    #[test]
    fn render_shows_per_objective_rows_and_recap_profiles() {
        let text = render(&run_smoke().0);
        for name in ["gflops-w", "edp", "ed2p", "perf-floor"] {
            assert!(text.contains(name), "missing {name}");
        }
        assert!(text.contains("GEMM") && text.contains("POTRF"));
        assert!(text.contains("gap %"));
        assert!(text.contains("gpu0"), "sparkline lanes present");
    }
}
