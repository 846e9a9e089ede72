//! StarPU's `random` policy: each task goes to a capable worker drawn
//! with probability proportional to the worker's relative speed on that
//! task (StarPU weights by `relative_speedup`), using a seeded generator
//! for reproducible experiments.

use crate::sched::{exec_in, Choice, SchedView, Scheduler};
use crate::task::TaskId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ugpc_hwsim::Secs;

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

    /// Reads each capable worker's expected time from the history row;
    /// the weights are summed in worker order.
    fn choose(&mut self, task: TaskId, view: &SchedView) -> Choice {
        let row = view.perf_row(task);
        let candidates = || {
            view.capable_workers(task)
                .map(|w| (w.id, exec_in(&row, w.id)))
        };
        // Weight = inverse expected execution time (relative speed).
        let weight = |exec: Secs| 1.0 / exec.value().max(1e-12);
        let choice = |(worker, exec): (usize, Secs)| Choice {
            worker,
            transfer: None,
            exec: Some(exec),
        };
        let last = candidates()
            .last()
            .unwrap_or_else(|| panic!("no capable worker for task {task}"));
        let total: f64 = candidates().map(|(_, exec)| weight(exec)).sum();
        let mut pick = self.rng.gen_range(0.0..total);
        for c in candidates() {
            if pick < weight(c.1) {
                return choice(c);
            }
            pick -= weight(c.1);
        }
        // Floating-point round-off can leave `pick` a hair past the last
        // cumulative weight; the draw then belongs to the final bucket.
        choice(last)
    }
}
