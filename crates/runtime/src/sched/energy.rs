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

use crate::sched::{Choice, Costing, Estimate, SchedView, Scheduler, Terms, UNKNOWN_ENERGY};
use crate::task::TaskId;

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

    fn choose(&mut self, task: TaskId, view: &SchedView) -> Choice {
        let costs = self.costing.cost(view, task, Terms::Transfers);
        let row = view.perf_row(task);
        let energy = |e: &Estimate| {
            row.expected_energy(e.worker)
                .unwrap_or(UNKNOWN_ENERGY)
                .value()
        };
        let candidates = costs.candidates();
        let t_min = candidates
            .iter()
            .map(|e| e.completion.value())
            .fold(f64::INFINITY, f64::min);
        let e_min = candidates.iter().map(energy).fold(f64::INFINITY, f64::min);
        candidates
            .iter()
            .map(|e| {
                let cost = (1.0 - self.lambda) * e.completion.value() / t_min.max(1e-12)
                    + self.lambda * energy(e) / e_min.max(1e-12);
                (e, cost)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(e, _)| costs.choice(e))
            .expect("cost() leaves at least one candidate")
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
