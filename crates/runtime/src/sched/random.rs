//! StarPU's `random` policy: each task goes to a capable worker drawn
//! with probability proportional to the worker's relative speed on that
//! task (StarPU weights by `relative_speedup`), using a seeded generator
//! for reproducible experiments.

use crate::sched::{SchedView, Scheduler};
use crate::task::TaskId;
use crate::worker::WorkerId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone)]
pub struct RandomScheduler {
    rng: SmallRng,
}

impl RandomScheduler {
    pub fn new(seed: u64) -> Self {
        RandomScheduler {
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn name(&self) -> &'static str {
        "random"
    }

    fn choose(&mut self, task: TaskId, view: &SchedView) -> WorkerId {
        // Weight = inverse expected execution time (relative speed).
        let candidates: Vec<(WorkerId, f64)> = view
            .estimates(task, false)
            .map(|e| (e.worker, 1.0 / e.exec.value().max(1e-12)))
            .collect();
        let Some(last) = candidates.last() else {
            panic!("no capable worker for task {task}");
        };
        let total: f64 = candidates.iter().map(|c| c.1).sum();
        let mut pick = self.rng.gen_range(0.0..total);
        for (id, weight) in &candidates {
            if pick < *weight {
                return *id;
            }
            pick -= weight;
        }
        // Floating-point round-off can leave `pick` a hair past the last
        // cumulative weight; the draw then belongs to the final bucket.
        last.0
    }
}
