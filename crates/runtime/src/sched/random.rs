//! StarPU's `random` policy: each task goes to a capable worker drawn
//! with probability proportional to the worker's relative speed on that
//! task (StarPU weights by `relative_speedup`), using a seeded generator
//! for reproducible experiments.

use crate::sched::{Choice, Costing, Estimate, SchedView, Scheduler, Terms};
use crate::task::TaskId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone)]
pub struct RandomScheduler {
    rng: SmallRng,
    costing: Costing,
}

impl RandomScheduler {
    pub fn new(seed: u64) -> Self {
        RandomScheduler {
            rng: SmallRng::seed_from_u64(seed),
            costing: Costing::default(),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn name(&self) -> &'static str {
        "random"
    }

    fn choose(&mut self, task: TaskId, view: &SchedView) -> Choice {
        let costs = self.costing.cost(view, task, Terms::Exec);
        // Weight = inverse expected execution time (relative speed).
        let weight = |e: &Estimate| 1.0 / e.exec.value().max(1e-12);
        let candidates = costs.candidates();
        let total: f64 = candidates.iter().map(weight).sum();
        let mut pick = self.rng.gen_range(0.0..total);
        for e in candidates {
            if pick < weight(e) {
                return costs.choice(e);
            }
            pick -= weight(e);
        }
        // Floating-point round-off can leave `pick` a hair past the last
        // cumulative weight; the draw then belongs to the final bucket.
        let last = candidates
            .last()
            .expect("cost() leaves at least one candidate");
        costs.choice(last)
    }
}
