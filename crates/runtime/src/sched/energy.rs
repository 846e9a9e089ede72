//! Energy-aware scheduling — the paper's future-work extension ("dynamic
//! scheduling algorithms optimizing energy efficiency", §VII).
//!
//! Extends dmdas with an energy term: for each candidate worker the cost is
//!
//! ```text
//! cost(w) = (1 − λ) · t̂(w)/t̂_min + λ · ê(w)/ê_min
//! ```
//!
//! where `t̂` is the dmda expected completion time and `ê` the expected
//! energy of the execution from the history model. `λ = 0` degenerates to
//! dmda; `λ = 1` always picks the most energy-frugal capable worker.

use crate::sched::{Choice, Class, Costing, Rule, SchedView, Scheduler, UNKNOWN_ENERGY};
use crate::task::TaskId;
use ugpc_hwsim::Secs;

#[derive(Debug, Clone)]
pub struct EnergyAwareScheduler {
    lambda: f64,
    costing: Costing,
}

impl EnergyAwareScheduler {
    pub fn new(lambda: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&lambda),
            "lambda must be in [0, 1], got {lambda}"
        );
        EnergyAwareScheduler {
            lambda,
            costing: Costing::default(),
        }
    }

    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

impl Scheduler for EnergyAwareScheduler {
    fn name(&self) -> &'static str {
        "energy"
    }

    fn order(&mut self, ready: &mut Vec<TaskId>, view: &SchedView) {
        ready.sort_by_key(|&t| std::cmp::Reverse(view.graph.task(t).priority));
    }

    /// The members of a class share one energy, and the cost grows with
    /// the completion, so a class's least cost is its earliest member's.
    /// The member taken is the first whose cost has the class's least
    /// cost's bits: at `λ = 1` every member ties.
    fn choose(&mut self, task: TaskId, view: &SchedView) -> Choice {
        let lambda = self.lambda;
        let costs = self.costing.cost(view, task, Rule::Energy { lambda });
        let row = view.perf_row(task);
        let energy = |c: &Class| {
            row.expected_energy(c.first)
                .unwrap_or(UNKNOWN_ENERGY)
                .value()
        };
        let classes = costs.classes();
        let t_min = classes
            .iter()
            .map(|c| c.completion.value())
            .fold(f64::INFINITY, f64::min);
        let e_min = classes.iter().map(energy).fold(f64::INFINITY, f64::min);
        let cost = |t: Secs, e: f64| {
            (1.0 - lambda) * t.value() / t_min.max(1e-12) + lambda * e / e_min.max(1e-12)
        };
        let (class, least) = classes
            .iter()
            .map(|c| (c, cost(c.completion, energy(c))))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("cost() leaves at least one class");
        let e = energy(class);
        let (worker, _) = class
            .members(view)
            .find(|&(_, t)| cost(t, e).to_bits() == least.to_bits())
            .expect("a class's least cost is a member's");
        costs.choice(view, class, worker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambda_bounds_enforced() {
        let s = EnergyAwareScheduler::new(0.5);
        assert_eq!(s.lambda(), 0.5);
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn invalid_lambda_panics() {
        let _ = EnergyAwareScheduler::new(1.5);
    }
}
