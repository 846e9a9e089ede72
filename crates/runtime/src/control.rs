//! The mid-run control-plane hook: re-cap events landing inside a live
//! execution.
//!
//! The paper's protocol is static — caps are set, the model recalibrates,
//! the run executes. The related work ("Modeling and Chasing the
//! Energy-Efficiency Sweet Spots in Modern GPUs"; "Power-Capping Metric
//! Evaluation") closes the loop *during* the run. This module is the
//! executor-side half of that loop: a [`ControlHook`] rides the run,
//! observes the same [`ExecEvent`] stream the
//! observers see, and — unlike observers, which are read-only witnesses —
//! is **deliberately non-neutral**: at scheduled tick times it may emit
//! [`RecapEvent`]s that change device power limits while the DAG
//! executes.
//!
//! ## Event-loop contract (determinism rules)
//!
//! * Control traffic travels through the same DES [`EventQueue`]
//!   (`EventQueue<SimEvent>`) as task completions, so every decision is
//!   anchored to virtual event time — never wall clock — and the whole
//!   run stays byte-reproducible under `--jobs N` (pinned by
//!   `control_differential`).
//! * Within one popped timestamp batch, re-caps apply **first**, then
//!   task completions, then control ticks. Since every later launch
//!   satisfies `t_start >= now`, a re-cap at time `t` governs exactly
//!   the kernels launched at or after `t`; kernels already committed
//!   keep the power they were launched at, with the device ledger split
//!   at the transition instant ([`ugpc_hwsim::GpuDevice::recap_at`]).
//! * Tick-only batches leave scheduler state untouched (no predicted
//!   queue end is reset, no completion is processed), so a **quiescent
//!   hook** — one that never requests a tick, or ticks but never
//!   re-caps — is outcome-neutral: the run is bit-identical to one
//!   without the hook (pinned by `tests/control_differential.rs`).
//! * `next_tick` must be strictly in the future; a tick at or before
//!   `now` would livelock the event loop and is discarded.
//!
//! [`EventQueue`]: crate::des::EventQueue

use crate::observer::{ExecEvent, RunContext};
use crate::task::TaskId;
use ugpc_hwsim::{Secs, Watts};

/// Payload of the executor's event queue: task completions interleaved
/// with control traffic, all ordered by `(virtual time, push order)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimEvent {
    /// A task finishes at this instant.
    Task(TaskId),
    /// A scheduled power-cap change lands on `device`.
    Recap { device: usize, cap: Watts },
    /// The control hook asked to be woken at this instant.
    ControlTick,
}

/// A power-cap change scheduled for virtual time `t` on one device.
///
/// Caps must lie within the device's `[min_cap, tdp]` window — the
/// executor applies them through
/// [`GpuDevice::recap_at`](ugpc_hwsim::GpuDevice::recap_at) and treats a
/// rejected cap as a controller bug, not a recoverable condition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecapEvent {
    pub t: Secs,
    pub device: usize,
    pub cap: Watts,
}

/// What a controller decided at one tick: zero or more re-caps (at or
/// after the tick time), plus the next wake-up.
#[derive(Debug, Clone, Default)]
pub struct ControlDecision {
    /// Cap changes to apply. A `t` at or before the tick time applies
    /// immediately (before the next scheduling round); later ones are
    /// scheduled through the event queue.
    pub recaps: Vec<RecapEvent>,
    /// Next tick time; `None` stops the loop for the rest of the run.
    /// Must be strictly after the current tick or it is discarded.
    pub next_tick: Option<Secs>,
}

impl ControlDecision {
    /// No re-caps, no further ticks.
    pub fn quiescent() -> Self {
        Self::default()
    }
}

/// The control-plane hook attached to a simulated run.
pub trait ControlHook {
    /// Called once before execution with the same context observers get.
    /// Returns the first tick time, or `None` for a hook that only
    /// listens (a quiescent hook — guaranteed outcome-neutral).
    fn on_start(&mut self, ctx: &RunContext<'_>) -> Option<Secs>;

    /// Sensor feed: every event of the run, in stream order, after the
    /// executor committed the corresponding state change.
    fn on_event(&mut self, event: &ExecEvent);

    /// A scheduled tick fired at virtual time `now`. `caps` holds the
    /// current power limit of each GPU device.
    fn on_tick(&mut self, now: Secs, caps: &[Watts]) -> ControlDecision;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiescent_decision_is_empty() {
        let d = ControlDecision::quiescent();
        assert!(d.recaps.is_empty());
        assert!(d.next_tick.is_none());
    }

    #[test]
    fn sim_event_is_small_and_copyable() {
        // The queue payload rides the hot path; keep it register-sized.
        assert!(std::mem::size_of::<SimEvent>() <= 24);
        let e = SimEvent::Recap {
            device: 1,
            cap: Watts(216.0),
        };
        let f = e;
        assert_eq!(e, f);
    }
}
