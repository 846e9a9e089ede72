//! Per-run scratch arena for the virtual-time executor.
//!
//! Every `simulate_observed` call needs the same family of working
//! vectors (worker drain times, ready frontier, in-degree counters, the
//! event queue, …). Allocating them per run made the DES
//! core allocation-bound under sweeps, where thousands of short
//! simulations execute back to back. [`RunArena`] owns all of that
//! scratch; [`with_run_arena`] checks the thread's arena out, and the
//! executor resets each field to its run-initial state before use — so
//! a run observes exactly what a fresh allocation would have held,
//! while the backing buffers (and the event queue's heap) are reused
//! across runs.
//!
//! Reuse is outcome-neutral by construction: every field is
//! `clear()`ed/refilled or `reset()` before the run reads it, and
//! `hotpath_goldens`, `observer_differential` and `control_differential`
//! pin that no run can tell a recycled arena from a cold one. The arena
//! is thread-local, so each thread of the sweep driver's pool has its
//! own, with no synchronization on the hot path.

use crate::control::SimEvent;
use crate::des::EventQueue;
use crate::task::{Footprint, TaskId};
use crate::worker::Worker;
use std::cell::RefCell;
use ugpc_hwsim::Secs;

/// All per-run executor scratch, reusable across runs.
pub struct RunArena {
    /// Worker table for the node under simulation.
    pub workers: Vec<Worker>,
    /// Task-capable cores per CPU package.
    pub capable_cores: Vec<usize>,
    /// Actual queue-drain time per worker.
    pub worker_free: Vec<Secs>,
    /// Model-predicted queue end per worker (StarPU's `expected_end`).
    pub worker_expected: Vec<Secs>,
    /// Host-to-device DMA engine availability, per GPU.
    pub h2d_free: Vec<Secs>,
    /// Device-to-host DMA engine availability, per GPU.
    pub d2h_free: Vec<Secs>,
    /// Which worker ran each task (`usize::MAX` = not yet placed).
    pub task_worker: Vec<usize>,
    /// Remaining unmet dependencies per task.
    pub indeg: Vec<usize>,
    /// The ready frontier.
    pub ready: Vec<TaskId>,
    /// Scheduler-ordered batch being committed this round.
    pub batch: Vec<TaskId>,
    /// Events landing at the current timestamp (task completions
    /// interleaved with control traffic).
    pub completed: Vec<SimEvent>,
    /// Distinct performance-model footprints in the graph (sorted).
    pub footprints: Vec<Footprint>,
    /// Footprints still needing calibration runs.
    pub missing: Vec<Footprint>,
    /// The run's event queue: task completions plus control-plane
    /// re-caps and ticks, all in one time-ordered stream.
    pub events: EventQueue<SimEvent>,
}

impl RunArena {
    pub fn new() -> Self {
        RunArena {
            workers: Vec::new(),
            capable_cores: Vec::new(),
            worker_free: Vec::new(),
            worker_expected: Vec::new(),
            h2d_free: Vec::new(),
            d2h_free: Vec::new(),
            task_worker: Vec::new(),
            indeg: Vec::new(),
            ready: Vec::new(),
            batch: Vec::new(),
            completed: Vec::new(),
            footprints: Vec::new(),
            missing: Vec::new(),
            events: EventQueue::new(),
        }
    }
}

impl Default for RunArena {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    static ARENA: RefCell<RunArena> = RefCell::new(RunArena::new());
}

/// Run `f` with this thread's arena checked out. Re-entrant calls (an
/// observer that starts a nested simulation) fall back to a fresh
/// arena rather than aliasing the one already in use.
pub fn with_run_arena<R>(f: impl FnOnce(&mut RunArena) -> R) -> R {
    ARENA.with(|cell| match cell.try_borrow_mut() {
        Ok(mut arena) => f(&mut arena),
        Err(_) => f(&mut RunArena::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_reuses_across_checkouts() {
        with_run_arena(|a| {
            a.ready.push(1);
            a.ready.push(2);
        });
        // Same thread, same arena: capacity survives, contents are the
        // caller's responsibility to reset (the executor always does).
        with_run_arena(|a| {
            assert!(a.ready.capacity() >= 2);
            a.ready.clear();
        });
    }

    #[test]
    fn reentrant_checkout_gets_a_fresh_arena() {
        with_run_arena(|outer| {
            outer.ready.push(7);
            with_run_arena(|inner| {
                assert!(inner.ready.is_empty(), "nested checkout must not alias");
                inner.ready.push(8);
            });
            assert_eq!(outer.ready, vec![7]);
            outer.ready.clear();
        });
    }
}
