//! The hill-climbing sweet-spot search, one instance per GPU.
//!
//! [`DynamicCapper::observe`] takes a typed [`ObjectiveValue`] rather
//! than a raw `f64`, so the search is generic over *which* metric it
//! maximizes — Gflop/s/W, EDP, ED²P, or a perf-floor-constrained
//! objective all drive the same state machine.
//!
//! [`run_dynamic`] is the standalone single-GPU epoch loop for iterative
//! workloads, modeled on the DEPO tool the paper cites (refs. 24 and 25)
//! for its future-work extension (§VII). The same capper drives
//! `ugpc-core`'s between-iteration node study and, mid-run, the
//! [`ControlPlane`](crate::ControlPlane).

use crate::objective::ObjectiveValue;
use serde::{Deserialize, Serialize};
use ugpc_hwsim::{GpuDevice, KernelWork, Watts};

/// How one epoch's score compared against the previous one, after the
/// relative-epsilon guard (a last-ulp difference reads as a tie, not a
/// gradient).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Comparison {
    /// No previous score: the warm-up epoch takes the initial step.
    First,
    /// Strictly worse than the previous score: overshot the peak.
    Worse,
    /// Equal within epsilon: a plateau — ties break toward lower caps.
    Tie,
    /// Strictly better: keep moving in the current direction.
    Better,
}

impl Comparison {
    pub fn name(self) -> &'static str {
        match self {
            Comparison::First => "first",
            Comparison::Worse => "worse",
            Comparison::Tie => "tie",
            Comparison::Better => "better",
        }
    }
}

/// One hill-climb decision, fully attributed — what
/// [`DynamicCapper::observe_explained`] journals for the control
/// plane's decision log.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapperStep {
    /// The epsilon-guarded score comparison that drove the move.
    pub comparison: Comparison,
    /// Cap in force when the score was observed.
    pub cap_before_w: f64,
    /// Cap commanded for the next epoch (clamped to the device range).
    pub cap_after_w: f64,
    /// Step size after the decision (halved on reversals and plateau
    /// refinement).
    pub step_w: f64,
    /// Search direction after the decision: −1.0 (down) or +1.0 (up).
    pub direction: f64,
    /// Whether the step budget is now exhausted.
    pub converged: bool,
}

/// Hill-climbing controller state for one GPU.
///
/// Each epoch it is fed the objective score achieved at the current cap
/// and moves the cap in the improving direction, reversing and halving
/// the step when the score drops. On a unimodal score-vs-cap curve this
/// converges to the peak — it *discovers* the sweet spot online, without
/// the offline sweep of the paper's Table II.
#[derive(Debug, Clone)]
pub struct DynamicCapper {
    cap: Watts,
    step: Watts,
    min_step: Watts,
    /// +1 or −1: current search direction.
    direction: f64,
    last_score: Option<ObjectiveValue>,
    min: Watts,
    max: Watts,
}

impl DynamicCapper {
    /// Start at the device's current limit with a step of 10 % of the cap
    /// range.
    pub fn new(gpu: &GpuDevice) -> Self {
        Self::with_range(gpu.power_limit(), gpu.spec().min_cap, gpu.spec().tdp)
    }

    /// Start at `cap` searching within `[min, max]` — for callers that
    /// know the range without holding a device (e.g. the control plane
    /// configuring from specs).
    pub fn with_range(cap: Watts, min: Watts, max: Watts) -> Self {
        assert!(
            min < max && cap >= min && cap <= max,
            "capper range must satisfy min <= cap <= max, got {cap} in [{min}, {max}]"
        );
        let step = (max - min) * 0.10;
        DynamicCapper {
            cap,
            step,
            min_step: step * 0.05,
            direction: -1.0, // start by lowering: that is where savings live
            last_score: None,
            min,
            max,
        }
    }

    pub fn cap(&self) -> Watts {
        self.cap
    }

    /// Lower bound of the search window (the device's min cap).
    pub fn min(&self) -> Watts {
        self.min
    }

    /// Upper bound of the search window (the device's TDP).
    pub fn max(&self) -> Watts {
        self.max
    }

    /// Has the search effectively converged (step exhausted)?
    pub fn converged(&self) -> bool {
        self.step <= self.min_step
    }

    /// Feed the objective score measured over the last epoch; returns the
    /// cap to apply for the next epoch.
    pub fn observe(&mut self, score: ObjectiveValue) -> Watts {
        Watts(self.observe_explained(score).cap_after_w)
    }

    /// [`DynamicCapper::observe`] with full decision attribution — the
    /// same state machine (the plain form delegates here), returning
    /// what moved and why for the control plane's decision journal.
    pub fn observe_explained(&mut self, score: ObjectiveValue) -> CapperStep {
        let cap_before = self.cap;
        let mut comparison = Comparison::First;
        if let Some(prev) = self.last_score {
            // Relative epsilon: two epochs of identical workload
            // composition score bit-near-identically, and a last-ulp
            // difference must not read as a gradient.
            let eps = prev.value().abs() * 1e-9;
            if score.value() < prev.value() - eps {
                // Strictly worse: overshot — reverse and refine.
                comparison = Comparison::Worse;
                self.direction = -self.direction;
                self.step = (self.step * 0.5).max(self.min_step);
            } else if score.value() <= prev.value() + eps {
                // Flat landscape (equal within epsilon): equal objective
                // at lower power is strictly preferable, so ties break
                // *downward*. Climbing on a plateau is pointless — turn
                // around and refine; descending pinned at the floor has
                // nowhere left to go — refine toward convergence;
                // descending mid-plateau keeps walking down at full step
                // until the score actually drops off the plateau's low
                // edge (which reads as "worse" and reverses normally).
                comparison = Comparison::Tie;
                if self.direction > 0.0 {
                    self.direction = -1.0;
                    self.step = (self.step * 0.5).max(self.min_step);
                } else if self.cap <= self.min {
                    self.step = (self.step * 0.5).max(self.min_step);
                }
            } else {
                comparison = Comparison::Better;
            }
        }
        self.last_score = Some(score);
        self.cap = (self.cap + self.step * self.direction).clamp(self.min, self.max);
        CapperStep {
            comparison,
            cap_before_w: cap_before.value(),
            cap_after_w: self.cap.value(),
            step_w: self.step.value(),
            direction: self.direction,
            converged: self.converged(),
        }
    }
}

/// History of one single-GPU dynamic-capping run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DynamicRun {
    /// Per-epoch (cap, efficiency in Gflop/s/W).
    pub history: Vec<(Watts, f64)>,
    pub final_cap: Watts,
    pub final_efficiency: f64,
}

/// Drive an iterative workload (repeated identical kernels, DEPO's target
/// shape) on one GPU under the controller for `epochs` epochs of
/// `iters_per_epoch` kernels each.
pub fn run_dynamic(
    gpu: &mut GpuDevice,
    work: &KernelWork,
    epochs: usize,
    iters_per_epoch: usize,
) -> DynamicRun {
    assert!(epochs > 0 && iters_per_epoch > 0);
    let mut ctl = DynamicCapper::new(gpu);
    let mut history = Vec::with_capacity(epochs);
    let mut now = gpu.last_end();
    for _ in 0..epochs {
        let cap = ctl.cap();
        let e0 = gpu.energy(now);
        for _ in 0..iters_per_epoch {
            let run = gpu.execute(work, now);
            now += run.time;
        }
        let energy = gpu.energy(now) - e0;
        let flops = work.flops.value() * iters_per_epoch as f64;
        let eff = flops / energy.value() / 1e9;
        history.push((cap, eff));
        let next = ctl.observe(ObjectiveValue(eff));
        // Apply through the device's constraint-checked setter.
        gpu.set_power_limit(next)
            .expect("controller stayed in range");
    }
    let (final_cap, final_efficiency) = *history.last().expect("epochs > 0");
    DynamicRun {
        history,
        final_cap,
        final_efficiency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugpc_hwsim::{GpuModel, Precision};

    fn s(v: f64) -> ObjectiveValue {
        ObjectiveValue(v)
    }

    #[test]
    fn controller_lowers_cap_first() {
        let gpu = GpuDevice::new(0, GpuModel::A100Sxm4_40);
        let mut ctl = DynamicCapper::new(&gpu);
        let next = ctl.observe(s(40.0));
        assert!(next < Watts(400.0));
    }

    #[test]
    fn reverses_on_score_drop() {
        let gpu = GpuDevice::new(0, GpuModel::A100Sxm4_40);
        let mut ctl = DynamicCapper::new(&gpu);
        let c1 = ctl.observe(s(40.0));
        let c2 = ctl.observe(s(45.0)); // improving: keep going down
        assert!(c2 < c1);
        let c3 = ctl.observe(s(30.0)); // worse: reverse
        assert!(c3 > c2);
    }

    #[test]
    fn stays_within_constraints() {
        let gpu = GpuDevice::new(0, GpuModel::A100Sxm4_40);
        let mut ctl = DynamicCapper::new(&gpu);
        // Relentlessly "improving" while lowering: must clamp at min cap.
        let mut score = 10.0;
        let mut cap = Watts(400.0);
        for _ in 0..100 {
            score += 1.0;
            cap = ctl.observe(s(score));
            assert!(cap >= gpu.spec().min_cap && cap <= gpu.spec().tdp);
        }
        assert_eq!(cap, gpu.spec().min_cap);
    }

    #[test]
    fn ties_break_toward_lower_caps() {
        let gpu = GpuDevice::new(0, GpuModel::A100Sxm4_40);
        let mut ctl = DynamicCapper::new(&gpu);
        // Force the search upward first: descend, then get punished.
        let c1 = ctl.observe(s(50.0));
        let c2 = ctl.observe(s(10.0)); // worse: reverse upward
        assert!(c2 > c1);
        // Identical score while climbing: the tie must turn the search
        // back down instead of buying more power for nothing.
        let c3 = ctl.observe(s(10.0));
        assert!(c3 < c2, "tie while climbing must reverse downward");
    }

    #[test]
    fn fully_flat_landscape_settles_at_min_cap() {
        let gpu = GpuDevice::new(0, GpuModel::A100Sxm4_40);
        let mut ctl = DynamicCapper::new(&gpu);
        let mut cap = ctl.cap();
        for _ in 0..300 {
            cap = ctl.observe(s(42.0));
            if ctl.converged() {
                break;
            }
        }
        assert!(ctl.converged(), "flat landscape must exhaust the step");
        assert_eq!(cap, gpu.spec().min_cap);
    }

    #[test]
    fn with_range_rejects_inverted_windows() {
        let r = std::panic::catch_unwind(|| {
            DynamicCapper::with_range(Watts(100.0), Watts(300.0), Watts(200.0))
        });
        assert!(r.is_err());
        let r = std::panic::catch_unwind(|| {
            DynamicCapper::with_range(Watts(500.0), Watts(100.0), Watts(400.0))
        });
        assert!(r.is_err(), "start cap outside the window must be rejected");
    }

    // `run_dynamic` end to end on real device models.

    #[test]
    fn discovers_best_cap_online() {
        // The headline property: starting from TDP, the controller
        // converges near the knee (P_best ≈ 54 % TDP for dp GEMM) without
        // any offline profiling.
        let mut gpu = GpuDevice::new(0, GpuModel::A100Sxm4_40);
        let work = KernelWork::gemm_tile(5760, Precision::Double);
        let run = run_dynamic(&mut gpu, &work, 40, 3);
        let frac = run.final_cap.value() / 400.0;
        assert!(
            (0.44..=0.66).contains(&frac),
            "converged to {:.0} % TDP",
            frac * 100.0
        );
        // Final efficiency beats the uncapped first epoch by a wide margin.
        let first_eff = run.history[0].1;
        assert!(
            run.final_efficiency > first_eff * 1.15,
            "{} vs {first_eff}",
            run.final_efficiency
        );
    }

    /// FNV-1a over the bit patterns of every (cap, efficiency) epoch.
    fn history_digest(run: &DynamicRun) -> u64 {
        run.history
            .iter()
            .flat_map(|(cap, eff)| [cap.value().to_bits(), eff.to_bits()])
            .flat_map(u64::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    #[test]
    fn histories_match_the_golden_digests() {
        let mut a100 = GpuDevice::new(0, GpuModel::A100Sxm4_40);
        let work = KernelWork::gemm_tile(5760, Precision::Double);
        let run = run_dynamic(&mut a100, &work, 40, 3);
        assert_eq!(history_digest(&run), 0x1a3d_a12e_9f11_52c2, "A100");
        let mut v100 = GpuDevice::new(0, GpuModel::V100Pcie32);
        let work = KernelWork::gemm_tile(2880, Precision::Single);
        let run = run_dynamic(&mut v100, &work, 10, 2);
        assert_eq!(history_digest(&run), 0xa075_4bc2_8cc0_6eff, "V100");
    }

    #[test]
    fn history_has_one_entry_per_epoch() {
        let mut gpu = GpuDevice::new(0, GpuModel::V100Pcie32);
        let work = KernelWork::gemm_tile(2880, Precision::Single);
        let run = run_dynamic(&mut gpu, &work, 10, 2);
        assert_eq!(run.history.len(), 10);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::objective::{ObjectiveKind, WindowMetrics};
    use proptest::prelude::*;
    use ugpc_hwsim::{Flops, GpuModel, Joules, Secs};

    /// (gpu, start-cap) pairs across every modeled device and any legal
    /// starting power limit.
    fn arb_capper() -> impl Strategy<Value = DynamicCapper> {
        (0..GpuModel::ALL.len(), 0.0..1.0f64).prop_map(|(m, start)| {
            let mut gpu = GpuDevice::new(0, GpuModel::ALL[m]);
            let (min, max) = (gpu.spec().min_cap, gpu.spec().tdp);
            gpu.set_power_limit(Watts(min.value() + start * (max - min).value()))
                .expect("start cap within [min_cap, tdp]");
            DynamicCapper::new(&gpu)
        })
    }

    proptest! {
        /// Whatever score sequence the workload produces — noisy,
        /// adversarial, constant — every cap the controller emits stays
        /// inside the device's [min_cap, tdp] window.
        #[test]
        fn caps_never_leave_device_range(
            case in (arb_capper(), proptest::collection::vec(0.0..200.0f64, 1..60)),
        ) {
            let (mut ctl, scores) = case;
            let (min, max) = (ctl.min(), ctl.max());
            for v in scores {
                let cap = ctl.observe(ObjectiveValue(v));
                prop_assert!(cap >= min && cap <= max, "cap {cap} outside [{min}, {max}]");
                prop_assert_eq!(cap, ctl.cap());
            }
        }

        /// On any unimodal score curve with an interior peak the
        /// hill-climber converges (step exhausted) within a bounded number
        /// of observations. The bound is generous but finite: the initial
        /// step is 10 % of the cap range and needs 5 halvings to shrink
        /// below min_step; each leg between reversals crosses at most the
        /// whole range (≤ 10 steps), so 200 epochs is ample headroom.
        #[test]
        fn converges_on_unimodal_curves(
            ctl in arb_capper(),
            peak_frac in 0.15..0.85f64,
            sharpness in 0.5..8.0f64,
        ) {
            let mut ctl = ctl;
            let (min, max) = (ctl.min(), ctl.max());
            let range = (max - min).value();
            let peak = min.value() + peak_frac * range;
            // Strictly concave, maximum at `peak`, strictly decreasing
            // away from it — the DEPO iterative-workload shape.
            let score = |cap: Watts| {
                let d = (cap.value() - peak) / range;
                ObjectiveValue(100.0 - sharpness * d * d * 100.0)
            };
            let mut observations = 0usize;
            while !ctl.converged() {
                observations += 1;
                prop_assert!(
                    observations <= 200,
                    "no convergence after 200 epochs (peak {peak:.0} W, cap {})",
                    ctl.cap()
                );
                let cap = ctl.cap();
                ctl.observe(score(cap));
            }
            // Converged means the search landed near the peak: within the
            // travel still reachable by the remaining (exhausted) step
            // budget. min_step is 0.5 % of the range; the final resting
            // point sits within a few final-leg steps of the peak.
            let err = (ctl.cap().value() - peak).abs() / range;
            prop_assert!(
                err <= 0.20,
                "converged {:.1} % of range away from the peak",
                err * 100.0
            );
        }

        /// On a landscape with a flat top — a plateau of equal-best score
        /// spanning `[lo, hi]`, strictly decreasing outside it — the
        /// settled cap is the *lowest* cap on the plateau (within the
        /// residual travel of the exhausted step): equal objective at
        /// lower power must win the tie.
        #[test]
        fn settles_at_the_low_edge_of_a_plateau(
            ctl in arb_capper(),
            lo_frac in 0.15..0.70f64,
            width_frac in 0.10..0.25f64,
        ) {
            let mut ctl = ctl;
            let (min, max) = (ctl.min(), ctl.max());
            let range = (max - min).value();
            let lo = min.value() + lo_frac * range;
            let hi = lo + width_frac * range;
            let score = |cap: Watts| {
                let c = cap.value();
                let dist = if c < lo {
                    (lo - c) / range
                } else if c > hi {
                    (c - hi) / range
                } else {
                    0.0
                };
                ObjectiveValue(100.0 - 80.0 * dist)
            };
            let mut observations = 0usize;
            while !ctl.converged() {
                observations += 1;
                prop_assert!(
                    observations <= 300,
                    "no convergence after 300 epochs (plateau [{lo:.0}, {hi:.0}] W, cap {})",
                    ctl.cap()
                );
                let cap = ctl.cap();
                ctl.observe(score(cap));
            }
            // The search must settle at the plateau's low edge, not
            // anywhere on its (equally scoring) interior — allow the few
            // final half-steps of residual travel around `lo`.
            let err = (ctl.cap().value() - lo).abs() / range;
            prop_assert!(
                err <= 0.10,
                "settled {:.1} % of range away from the plateau's low edge \
                 (cap {}, plateau [{lo:.0}, {hi:.0}] W)",
                err * 100.0,
                ctl.cap()
            );
        }

        /// The convergence bound holds for every shipped objective, not
        /// just a synthetic score. Windows hold energy and elapsed fixed
        /// while completed work is a strictly positive unimodal function
        /// of the cap, so each objective's realized score — G (Gflop/s/W
        /// and compliant perf-floor), G² (EDP), G³ (ED²P), and the
        /// negative-shortfall branch — is a strictly increasing transform
        /// of the same unimodal curve. Comparisons are what drive the
        /// hill-climb, and monotone transforms preserve them, so every
        /// objective must converge within the same bounded epoch count,
        /// caps in range throughout.
        #[test]
        fn every_objective_converges_on_unimodal_curves(
            ctl in arb_capper(),
            peak_frac in 0.15..0.85f64,
            sharpness in 0.5..8.0f64,
            kind_ix in 0..ObjectiveKind::ALL.len(),
        ) {
            let mut ctl = ctl;
            let kind = ObjectiveKind::ALL[kind_ix];
            let mut objective = kind.build(0.5);
            let (min, max) = (ctl.min(), ctl.max());
            let range = (max - min).value();
            let peak = min.value() + peak_frac * range;
            let window = |cap: Watts| {
                let d = (cap.value() - peak) / range;
                WindowMetrics {
                    flops: Flops::from_gflop(120.0 * (-sharpness * d * d).exp()),
                    energy: Joules(1.0),
                    elapsed: Secs(1.0),
                    busy_time: Secs(1.0),
                }
            };
            let mut observations = 0usize;
            while !ctl.converged() {
                observations += 1;
                prop_assert!(observations <= 200, "{kind}: no convergence after 200 epochs");
                let m = window(ctl.cap());
                prop_assert!(!m.is_empty());
                let cap = ctl.observe(objective.score(&m));
                prop_assert!(cap >= min && cap <= max, "{kind}: cap {cap} left the range");
            }
            let err = (ctl.cap().value() - peak).abs() / range;
            prop_assert!(
                err <= 0.20,
                "{kind}: converged {:.1} % of range away from the peak",
                err * 100.0
            );
        }
    }
}
