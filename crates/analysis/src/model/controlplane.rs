//! Abstract model of the online control loop's re-cap protocol
//! (`crates/control/src/plane.rs` + the DES hook in
//! `crates/runtime/src/sim.rs`).
//!
//! The control plane acts on the simulation only through the event
//! queue: a tick fires at its scheduled instant, the plane decides, and
//! a decision becomes a `RecapEvent` pushed at the decision time —
//! popped, by the queue's `(time, seq)` contract, before anything later
//! touches the devices. This model checks that command path
//! exhaustively at miniature scale: integer time, a unit-period tick
//! train interleaved with a unit-spaced workload, a three-level cap
//! domain, and — the exhaustive part — **every decision sequence** the
//! controller could emit (hold / lower / raise at each tick, clamped at
//! the domain edges).
//!
//! Checked invariants:
//! * **no re-cap lost** — every emitted command is pending or applied
//!   (conservation at every state; at drain time `applied == emitted`);
//! * **no re-cap out of order** — a workload event must never execute
//!   while a command decided at an *earlier* time is still pending: the
//!   cap it would run under is stale. Commands apply in emission order
//!   at their decision instant;
//! * **caps stay in the domain** — no decision sequence can push the
//!   cap outside `0..levels`;
//! * **quiescent ⇒ identical** — on the all-hold path the drained trace
//!   must equal the uncontrolled reference (every workload event at the
//!   starting cap, starting cap untouched). This is the model-level
//!   statement of the neutrality differential suite
//!   (`tests/control_differential.rs`).
//!
//! The deliberately broken variant
//! ([`late_recap`](ControlPlaneModel::late_recap())) schedules the re-cap one period after its decision —
//! the classic "apply at the next epoch boundary" bug, under which a
//! workload event slips through on the stale cap. The checker must
//! catch it within one tick.

use super::Model;

/// What an event in the miniature DES is.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EvKind {
    /// A workload completion; records the cap it ran under.
    Task,
    /// A controller epoch boundary; branches over decisions.
    Tick,
    /// An emitted re-cap command: `(decided_at, new_cap)`.
    Recap(u8, u8),
}

/// One queue entry: `(time, seq, kind)`, popped in `(time, seq)` order.
pub type Ev = (u8, u8, EvKind);

/// Global model state: the event queue, the device cap, and the
/// bookkeeping the invariants audit.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CpState {
    pub now: u8,
    /// Pending events, kept sorted by `(time, seq)`.
    pub queue: Vec<Ev>,
    pub next_seq: u8,
    pub cap: u8,
    /// Ticks still to be scheduled after the current one.
    pub ticks_left: u8,
    /// Re-cap commands emitted so far.
    pub emitted: u8,
    /// Re-cap commands applied so far.
    pub applied: u8,
    /// True while every decision so far was a hold.
    pub quiescent: bool,
    /// Workload events processed, as `(time, cap_they_ran_under)`.
    pub trace: Vec<(u8, u8)>,
    /// First protocol violation, recorded by the transition that saw it
    /// and reported by the invariant with its interleaving.
    pub violation: Option<String>,
}

/// Model configuration: `ticks` controller epochs at unit period
/// (first at time 1) over a workload of `tasks` unit-spaced events,
/// caps in `0..levels` starting at `levels - 1` (the TDP analogue).
pub struct ControlPlaneModel {
    pub ticks: u8,
    pub tasks: u8,
    pub levels: u8,
    /// Broken scheduling: the re-cap lands one period after its
    /// decision instead of at the decision instant.
    pub late_recap: bool,
}

impl ControlPlaneModel {
    /// The configuration the audit leg checks: enough epochs for the
    /// cap to walk the whole domain and back with workload interleaved
    /// at every step.
    pub fn correct(ticks: u8) -> Self {
        ControlPlaneModel {
            ticks,
            tasks: ticks,
            levels: 3,
            late_recap: false,
        }
    }

    /// The "apply next epoch" bug.
    pub fn late_recap(ticks: u8) -> Self {
        ControlPlaneModel {
            late_recap: true,
            ..Self::correct(ticks)
        }
    }

    /// The uncontrolled reference trace the quiescent path must equal.
    fn reference(&self) -> Vec<(u8, u8)> {
        (1..=self.tasks).map(|t| (t, self.levels - 1)).collect()
    }

    fn push(&self, s: &mut CpState, time: u8, kind: EvKind) {
        let seq = s.next_seq;
        s.next_seq += 1;
        let at = s.queue.partition_point(|&(t, q, _)| (t, q) <= (time, seq));
        s.queue.insert(at, (time, seq, kind));
    }

    /// Advance `n` past the popped event's timestamp; records the
    /// time-went-backwards violation the real DES turns into a panic.
    fn advance(s: &mut CpState, t: u8) {
        if t < s.now {
            s.violation = Some(format!(
                "event at t{t} popped after time reached t{}",
                s.now
            ));
        }
        s.now = t;
    }

    /// Finish a tick: emit the decision (if any) and arm the next epoch.
    fn settle_tick(&self, s: &mut CpState, t: u8, decision: Option<u8>) {
        if let Some(cap) = decision {
            s.emitted += 1;
            s.quiescent = false;
            let land = if self.late_recap { t + 1 } else { t };
            self.push(s, land, EvKind::Recap(t, cap));
        }
        if s.ticks_left > 0 {
            s.ticks_left -= 1;
            self.push(s, t + 1, EvKind::Tick);
        }
    }
}

impl Model for ControlPlaneModel {
    type State = CpState;

    fn initial(&self) -> CpState {
        let mut s = CpState {
            now: 0,
            queue: Vec::new(),
            next_seq: 0,
            cap: self.levels - 1,
            ticks_left: self.ticks.saturating_sub(1),
            emitted: 0,
            applied: 0,
            quiescent: true,
            trace: Vec::new(),
            violation: None,
        };
        for t in 1..=self.tasks {
            self.push(&mut s, t, EvKind::Task);
        }
        if self.ticks > 0 {
            self.push(&mut s, 1, EvKind::Tick);
        }
        s
    }

    fn transitions(&self, s: &CpState) -> Vec<(String, CpState)> {
        if s.violation.is_some() || s.queue.is_empty() {
            // The invariant already failed here, or the run drained.
            return Vec::new();
        }
        let (t, _, kind) = s.queue[0].clone();
        let popped = |s: &CpState| {
            let mut n = s.clone();
            n.queue.remove(0);
            Self::advance(&mut n, t);
            n
        };
        match kind {
            EvKind::Task => {
                let mut n = popped(s);
                n.trace.push((t, n.cap));
                // The staleness rule: a command decided before this
                // event's time must already have been applied.
                if let Some((_, _, EvKind::Recap(decided, _))) = n
                    .queue
                    .iter()
                    .find(|(_, _, k)| matches!(k, EvKind::Recap(d, _) if *d < t))
                {
                    n.violation = Some(format!(
                        "task at t{t} ran under a stale cap: re-cap decided at t{decided} \
                         still pending"
                    ));
                }
                vec![(format!("task@{t}"), n)]
            }
            EvKind::Tick => {
                // The exhaustive axis: every decision the controller
                // could make at this epoch.
                let mut out = Vec::new();
                let mut hold = popped(s);
                self.settle_tick(&mut hold, t, None);
                out.push((format!("tick@{t}:hold"), hold));
                if s.cap > 0 {
                    let mut n = popped(s);
                    let cap = s.cap - 1;
                    self.settle_tick(&mut n, t, Some(cap));
                    out.push((format!("tick@{t}:lower->{cap}"), n));
                }
                if s.cap + 1 < self.levels {
                    let mut n = popped(s);
                    let cap = s.cap + 1;
                    self.settle_tick(&mut n, t, Some(cap));
                    out.push((format!("tick@{t}:raise->{cap}"), n));
                }
                out
            }
            EvKind::Recap(decided, cap) => {
                let mut n = popped(s);
                n.applied += 1;
                n.cap = cap;
                vec![(format!("recap@{t}->{cap} (decided t{decided})"), n)]
            }
        }
    }

    fn invariant(&self, s: &CpState) -> Result<(), String> {
        if let Some(v) = &s.violation {
            return Err(v.clone());
        }
        if s.cap >= self.levels {
            return Err(format!(
                "cap {} escaped the domain 0..{}",
                s.cap, self.levels
            ));
        }
        // No re-cap lost: every emission is pending or applied.
        let pending = s
            .queue
            .iter()
            .filter(|(_, _, k)| matches!(k, EvKind::Recap(_, _)))
            .count() as u8;
        if s.applied + pending != s.emitted {
            return Err(format!(
                "{} re-caps emitted, but {} applied + {} pending (lost or duplicated command)",
                s.emitted, s.applied, pending
            ));
        }
        if s.queue.is_empty() {
            // Drained: everything emitted has landed...
            if s.applied != s.emitted {
                return Err(format!(
                    "drained with {} emitted but {} applied",
                    s.emitted, s.applied
                ));
            }
            // ...and the all-hold path changed nothing at all.
            if s.quiescent && (s.trace != self.reference() || s.cap != self.levels - 1) {
                return Err(format!(
                    "quiescent controller perturbed the run: trace {:?}, cap {}",
                    s.trace, s.cap
                ));
            }
        }
        Ok(())
    }

    fn is_expected_terminal(&self, s: &CpState) -> bool {
        s.queue.is_empty() && s.violation.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{accepts_trace, Checker};

    #[test]
    fn correct_plane_verifies_exhaustively() {
        let model = ControlPlaneModel::correct(6);
        let out = Checker::default().run(&model);
        assert!(
            out.verified(),
            "control plane violated: {:?}",
            out.violation
        );
        // Non-trivial: every clamped decision sequence over six epochs
        // (169 of them), caps walking the whole domain, workload
        // interleaved throughout. The audit leg pins the exact counts.
        assert!(out.states > 500, "only {} states", out.states);
        assert!(out.terminals > 100, "only {} terminals", out.terminals);
    }

    #[test]
    fn late_recap_scheduling_is_caught() {
        let out = Checker::default().run(&ControlPlaneModel::late_recap(3));
        let v = out.violation.expect("checker must catch the late re-cap");
        assert!(
            v.message.contains("stale cap"),
            "unexpected violation: {}",
            v.message
        );
        // Witness: the first lowering decision, then the next task runs
        // before the command lands.
        assert!(v.trace.iter().any(|l| l.contains("lower")), "{:?}", v.trace);
    }

    #[test]
    fn real_scenarios_are_accepted() {
        let model = ControlPlaneModel::correct(3);
        // A decision applies at its instant, before the next task.
        accepts_trace(
            &model,
            &[
                "task@1",
                "tick@1:lower->1",
                "recap@1->1 (decided t1)",
                "task@2",
                "tick@2:hold",
                "task@3",
                "tick@3:hold",
            ],
        )
        .expect("lower-then-hold run rejected");
        // The quiescent path.
        accepts_trace(
            &model,
            &[
                "task@1",
                "tick@1:hold",
                "task@2",
                "tick@2:hold",
                "task@3",
                "tick@3:hold",
            ],
        )
        .expect("all-hold run rejected");
    }

    #[test]
    fn impossible_scenarios_are_rejected() {
        let model = ControlPlaneModel::correct(3);
        // A task can never run before a same-decision-time re-cap lands.
        assert_eq!(
            accepts_trace(&model, &["task@1", "tick@1:lower->1", "task@2"]),
            Err(2)
        );
        // Raising at TDP is clamped out of the decision set.
        assert_eq!(
            accepts_trace(&model, &["task@1", "tick@1:raise->3"]),
            Err(1)
        );
    }
}
