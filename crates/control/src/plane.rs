//! The control plane: spec, hook implementation, and tick telemetry.
//!
//! [`ControlPlane`] wires the pieces together: a [`SensorHub`] fed by the
//! executor's event stream, one [`DynamicCapper`] + [`Objective`] pair
//! per GPU, and the [`ControlHook`] contract the simulator calls. Each
//! tick it closes the sensor window, scores it per device, advances each
//! device's hill-climb, and emits re-cap commands for the caps that
//! moved. Everything runs on virtual event time — no wall clock, no
//! randomness — so a controlled run is byte-reproducible across `--jobs
//! N`.

use crate::capper::{CapperStep, DynamicCapper};
use crate::objective::{Objective, ObjectiveKind};
use crate::sensor::SensorHub;
use serde::{Deserialize, Serialize};
use ugpc_hwsim::{Node, Secs, Watts};
use ugpc_runtime::{ControlDecision, ControlHook, ExecEvent, RecapEvent, RunContext};

/// Declarative controller configuration — the wire/CLI/cache identity of
/// a controlled run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerSpec {
    /// Which metric the controller maximizes.
    pub objective: ObjectiveKind,
    /// Control period in virtual seconds (window length between ticks).
    pub period_s: f64,
    /// Performance floor fraction, used by [`ObjectiveKind::PerfFloor`]
    /// only (ignored otherwise, but still part of the identity).
    pub perf_floor: f64,
    /// A disabled controller attaches but never ticks — the neutrality
    /// baseline for differential tests.
    pub enabled: bool,
    /// Reserved determinism salt. The hill-climber itself is
    /// deterministic; the seed exists so future stochastic policies get a
    /// cache-key slot without a wire change.
    pub seed: u64,
    /// Sensor windows per hill-climb decision. The plane buffers this
    /// many per-device window scores and feeds the capper the quorum's
    /// **best** — one anomalous window (a DAG drain phase, a straggler
    /// kernel straddling the boundary) cannot fake a gradient and
    /// trigger a spurious reversal. `1` acts on every window.
    pub votes: u32,
    /// Minimum busy fraction for a window to count as evidence. A window
    /// the device spent mostly idle (waiting on a CPU panel phase, say)
    /// measures the *workload's* gaps, not the cap — its score says
    /// nothing about where the sweet spot is, so it never enters a vote
    /// quorum. `0` scores every non-empty window.
    pub min_occupancy: f64,
}

impl ControllerSpec {
    pub fn new(objective: ObjectiveKind) -> Self {
        ControllerSpec {
            objective,
            period_s: 1.0,
            perf_floor: 0.8,
            enabled: true,
            seed: 0,
            votes: 1,
            min_occupancy: 0.5,
        }
    }

    pub fn with_period(mut self, period_s: f64) -> Self {
        self.period_s = period_s;
        self
    }

    pub fn with_perf_floor(mut self, perf_floor: f64) -> Self {
        self.perf_floor = perf_floor;
        self
    }

    pub fn disabled(mut self) -> Self {
        self.enabled = false;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_votes(mut self, votes: u32) -> Self {
        self.votes = votes;
        self
    }

    pub fn with_min_occupancy(mut self, min_occupancy: f64) -> Self {
        self.min_occupancy = min_occupancy;
        self
    }

    /// Reject specs that cannot drive a run.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.period_s.is_finite() && self.period_s > 0.0) {
            return Err(format!(
                "controller period must be a positive finite number of seconds, got {}",
                self.period_s
            ));
        }
        if !(self.perf_floor.is_finite() && self.perf_floor > 0.0 && self.perf_floor <= 1.0) {
            return Err(format!(
                "perf floor must be a fraction in (0, 1], got {}",
                self.perf_floor
            ));
        }
        if self.votes == 0 {
            return Err("controller votes must be >= 1 windows per decision".to_string());
        }
        if !(self.min_occupancy.is_finite() && (0.0..1.0).contains(&self.min_occupancy)) {
            return Err(format!(
                "min occupancy must be a fraction in [0, 1), got {}",
                self.min_occupancy
            ));
        }
        Ok(())
    }

    /// Canonical byte encoding for cache keys: one tag byte per field in
    /// declaration order, fixed-width little-endian payloads. Append-only
    /// — new fields must extend, never reorder.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(30);
        out.push(self.objective.tag());
        out.extend_from_slice(&self.period_s.to_bits().to_le_bytes());
        out.extend_from_slice(&self.perf_floor.to_bits().to_le_bytes());
        out.push(u8::from(self.enabled));
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.votes.to_le_bytes());
        out.extend_from_slice(&self.min_occupancy.to_bits().to_le_bytes());
        out
    }
}

/// One control-tick observation, kept for reporting: when it fired, the
/// caps in force when it fired, and the per-device scores (None for
/// devices whose window was empty or whose search had converged).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TickRecord {
    pub t: f64,
    pub caps: Vec<f64>,
    pub scores: Vec<Option<f64>>,
}

/// Why one device took no score at one tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GateReason {
    /// No work completed on the device during the window.
    EmptyWindow,
    /// The window's busy fraction was below
    /// [`ControllerSpec::min_occupancy`] — it measures the workload's
    /// gaps, not the cap.
    LowOccupancy,
    /// The device's search has exhausted its step budget.
    Converged,
    /// The objective produced a non-finite score (degenerate window).
    NonFiniteScore,
}

impl GateReason {
    pub fn name(self) -> &'static str {
        match self {
            GateReason::EmptyWindow => "empty window",
            GateReason::LowOccupancy => "occupancy below floor",
            GateReason::Converged => "search converged",
            GateReason::NonFiniteScore => "non-finite score",
        }
    }
}

/// One (tick, device) entry of the decision journal: every input the
/// controller weighed and what it did — the full provenance of a re-cap
/// (or of the decision not to move). Journaling is unconditional and
/// write-only, so a controlled run's outputs are independent of whether
/// anyone reads the journal (`repro control --explain` does).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// Tick time, virtual seconds.
    pub t: f64,
    /// Device index.
    pub device: usize,
    /// Cap in force when the tick fired.
    pub cap_w: f64,
    /// The window's busy fraction (`None` for an empty window).
    pub occupancy: Option<f64>,
    /// Why the window was discarded, when it was.
    pub gate: Option<GateReason>,
    /// The window's objective score, when one was taken.
    pub score: Option<f64>,
    /// Scores buffered toward the vote quorum after this window
    /// (0 once the quorum fires and the buffer drains).
    pub votes_buffered: u32,
    /// The quorum's decision statistic (best buffered window), when the
    /// quorum fired this tick.
    pub quorum: Option<f64>,
    /// The hill-climb decision, when the quorum fired.
    pub outcome: Option<CapperStep>,
    /// Whether a re-cap command was emitted (the commanded cap differs
    /// from the cap in force).
    pub recap: bool,
}

/// The online sweet-spot controller: implements [`ControlHook`] for the
/// simulator.
pub struct ControlPlane {
    spec: ControllerSpec,
    sensors: SensorHub,
    cappers: Vec<DynamicCapper>,
    objectives: Vec<Box<dyn Objective>>,
    /// Per-device window scores buffered since that device's last
    /// hill-climb decision (see [`ControllerSpec::votes`]).
    pending: Vec<Vec<f64>>,
    ticks: Vec<TickRecord>,
    journal: Vec<DecisionRecord>,
    recaps: usize,
}

impl ControlPlane {
    /// Build for the node's devices. Panics if the spec fails
    /// [`ControllerSpec::validate`] — callers on untrusted input (the
    /// serve layer) validate first.
    pub fn new(spec: ControllerSpec, node: &Node) -> Self {
        spec.validate().expect("controller spec must be valid");
        let cappers: Vec<DynamicCapper> = node.gpus().iter().map(DynamicCapper::new).collect();
        let objectives = node
            .gpus()
            .iter()
            .map(|_| spec.objective.build(spec.perf_floor))
            .collect();
        let pending = vec![Vec::new(); cappers.len()];
        ControlPlane {
            spec,
            sensors: SensorHub::new(),
            cappers,
            objectives,
            pending,
            ticks: Vec::new(),
            journal: Vec::new(),
            recaps: 0,
        }
    }

    pub fn spec(&self) -> &ControllerSpec {
        &self.spec
    }

    /// Every tick taken, in event-time order.
    pub fn ticks(&self) -> &[TickRecord] {
        &self.ticks
    }

    /// Total re-cap commands emitted.
    pub fn recaps(&self) -> usize {
        self.recaps
    }

    /// The decision journal: one record per (tick, device), in tick
    /// order, device-major within a tick.
    pub fn journal(&self) -> &[DecisionRecord] {
        &self.journal
    }

    /// Take the journal out (the study driver moves it into the
    /// explained report without cloning).
    pub fn take_journal(&mut self) -> Vec<DecisionRecord> {
        std::mem::take(&mut self.journal)
    }

    /// The cap each device's search currently rests at.
    pub fn final_caps(&self) -> Vec<Watts> {
        self.cappers.iter().map(DynamicCapper::cap).collect()
    }

    /// True once every device's search has exhausted its step budget.
    pub fn converged(&self) -> bool {
        self.cappers.iter().all(DynamicCapper::converged)
    }

    fn period(&self) -> Secs {
        Secs(self.spec.period_s)
    }
}

/// The decision statistic over one vote quorum: the **best** window
/// score. Window-composition noise is one-sided — a DAG drain phase, a
/// straggler kernel straddling the window boundary, or an idle bubble
/// can only *depress* a window's score relative to the steady-state
/// kernel mix — so the best window of the quorum is the cleanest
/// estimate of the device's true score at the current cap. (A mean or
/// median still lets one bad window fake a downhill gradient and
/// trigger a spurious reversal.) NaN-free input is a precondition — the
/// tick loop filters non-finite scores before buffering.
fn quorum_score(scores: &[f64]) -> f64 {
    scores.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

impl ControlHook for ControlPlane {
    fn on_start(&mut self, ctx: &RunContext<'_>) -> Option<Secs> {
        self.sensors.configure(ctx);
        self.ticks.clear();
        self.journal.clear();
        self.recaps = 0;
        for buf in &mut self.pending {
            buf.clear();
        }
        (self.spec.enabled && !self.cappers.is_empty()).then(|| self.period())
    }

    fn on_event(&mut self, event: &ExecEvent) {
        self.sensors.observe(event);
    }

    fn on_tick(&mut self, now: Secs, caps: &[Watts]) -> ControlDecision {
        let mut decision = ControlDecision::quiescent();
        let mut scores: Vec<Option<f64>> = Vec::with_capacity(self.cappers.len());
        for g in 0..self.cappers.len() {
            let window = self.sensors.window(g, now);
            let mut rec = DecisionRecord {
                t: now.value(),
                device: g,
                cap_w: caps.get(g).map_or(f64::NAN, |c| c.value()),
                occupancy: (!window.is_empty()).then(|| window.occupancy()),
                gate: None,
                score: None,
                votes_buffered: 0,
                quorum: None,
                outcome: None,
                recap: false,
            };
            // No completed work, or a finished search: nothing to learn,
            // nothing to move. Skipping converged devices is what makes a
            // converged-at-current-cap controller completely quiescent.
            let gate = if window.is_empty() {
                Some(GateReason::EmptyWindow)
            } else if window.occupancy() < self.spec.min_occupancy {
                Some(GateReason::LowOccupancy)
            } else if self.cappers[g].converged() {
                Some(GateReason::Converged)
            } else {
                None
            };
            if let Some(gate) = gate {
                rec.gate = Some(gate);
                self.journal.push(rec);
                scores.push(None);
                continue;
            }
            let score = self.objectives[g].score(&window);
            if !score.is_finite() {
                rec.gate = Some(GateReason::NonFiniteScore);
                self.journal.push(rec);
                scores.push(None);
                continue;
            }
            scores.push(Some(score.value()));
            rec.score = Some(score.value());
            // Buffer until the vote quorum fills, then act on the
            // quorum's best — robust to single anomalous windows.
            self.pending[g].push(score.value());
            if self.pending[g].len() < self.spec.votes as usize {
                rec.votes_buffered = self.pending[g].len() as u32;
                self.journal.push(rec);
                continue;
            }
            let vote = crate::ObjectiveValue(quorum_score(&self.pending[g]));
            rec.quorum = Some(vote.value());
            self.pending[g].clear();
            let step = self.cappers[g].observe_explained(vote);
            rec.outcome = Some(step);
            let next = self.cappers[g].cap();
            if caps.get(g).is_some_and(|&current| next != current) {
                rec.recap = true;
                decision.recaps.push(RecapEvent {
                    t: now,
                    device: g,
                    cap: next,
                });
            }
            self.journal.push(rec);
        }
        self.recaps += decision.recaps.len();
        self.sensors.reset_window(now);
        self.ticks.push(TickRecord {
            t: now.value(),
            caps: caps.iter().map(|c| c.value()).collect(),
            scores,
        });
        if !self.converged() {
            decision.next_tick = Some(now + self.period());
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugpc_hwsim::PlatformId;
    use ugpc_runtime::{SimOptions, TaskGraph, Worker, WorkerKind};

    fn node2() -> Node {
        // Two A100s.
        Node::new(PlatformId::Amd2A100)
    }

    #[test]
    fn spec_validates_period_and_floor() {
        let ok = ControllerSpec::new(ObjectiveKind::Edp);
        assert!(ok.validate().is_ok());
        assert!(ok.clone().with_period(0.0).validate().is_err());
        assert!(ok.clone().with_period(f64::NAN).validate().is_err());
        assert!(ok.clone().with_perf_floor(0.0).validate().is_err());
        assert!(ok.clone().with_perf_floor(1.5).validate().is_err());
        assert!(ok.clone().with_votes(0).validate().is_err());
        assert!(ok.clone().with_votes(3).validate().is_ok());
        assert!(ok.clone().with_min_occupancy(1.0).validate().is_err());
        assert!(ok.clone().with_min_occupancy(-0.1).validate().is_err());
        assert!(ok.clone().with_min_occupancy(0.0).validate().is_ok());
    }

    #[test]
    fn canonical_bytes_are_stable_and_distinguishing() {
        let a = ControllerSpec::new(ObjectiveKind::GflopsPerWatt);
        assert_eq!(a.canonical_bytes().len(), 38);
        assert_eq!(a.canonical_bytes(), a.clone().canonical_bytes());
        for b in [
            ControllerSpec::new(ObjectiveKind::Edp),
            a.clone().with_period(2.0),
            a.clone().with_perf_floor(0.9),
            a.clone().disabled(),
            a.clone().with_seed(7),
            a.clone().with_votes(5),
            a.clone().with_min_occupancy(0.25),
        ] {
            assert_ne!(a.canonical_bytes(), b.canonical_bytes());
        }
    }

    #[test]
    fn disabled_plane_never_schedules_a_tick() {
        let node = node2();
        let workers = vec![Worker {
            id: 0,
            kind: WorkerKind::Gpu { device: 0 },
        }];
        let graph = TaskGraph::new();
        let idle = [Watts(40.0), Watts(40.0)];
        let ctx = RunContext {
            workers: &workers,
            graph: &graph,
            options: SimOptions::default(),
            gpu_idle: &idle,
        };
        let mut off = ControlPlane::new(ControllerSpec::new(ObjectiveKind::Edp).disabled(), &node);
        assert_eq!(off.on_start(&ctx), None, "disabled: no first tick");
        let mut on = ControlPlane::new(ControllerSpec::new(ObjectiveKind::Edp), &node);
        assert_eq!(on.on_start(&ctx), Some(Secs(1.0)), "enabled: period-1 tick");
    }

    #[test]
    fn tick_scores_skip_empty_windows_and_reschedules_until_converged() {
        let node = node2();
        let mut plane = ControlPlane::new(
            ControllerSpec::new(ObjectiveKind::GflopsPerWatt).with_period(0.5),
            &node,
        );
        let workers = vec![Worker {
            id: 0,
            kind: WorkerKind::Gpu { device: 0 },
        }];
        let graph = TaskGraph::new();
        let idle = [Watts(40.0), Watts(40.0)];
        let ctx = RunContext {
            workers: &workers,
            graph: &graph,
            options: SimOptions::default(),
            gpu_idle: &idle,
        };
        assert_eq!(plane.on_start(&ctx), Some(Secs(0.5)));
        let caps = [Watts(400.0), Watts(400.0)];
        // Nothing completed yet: both windows empty, no recaps, but the
        // controller keeps ticking.
        let d = plane.on_tick(Secs(0.5), &caps);
        assert!(d.recaps.is_empty());
        assert_eq!(d.next_tick, Some(Secs(1.0)));
        assert_eq!(plane.ticks().len(), 1);
        assert_eq!(plane.ticks()[0].scores, vec![None, None]);
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = ControllerSpec::new(ObjectiveKind::PerfFloor)
            .with_period(0.25)
            .with_perf_floor(0.9)
            .with_seed(42)
            .with_votes(3);
        let json = serde_json::to_string(&spec).expect("serialize");
        let back: ControllerSpec = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, spec);
    }
}
