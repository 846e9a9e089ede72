//! The eager (greedy FIFO) baseline: a single shared queue; each task goes
//! to whichever capable worker frees up first, with no performance model.

use crate::sched::{Choice, SchedView, Scheduler};
use crate::task::TaskId;

#[derive(Debug, Default, Clone, Copy)]
pub struct EagerScheduler;

impl Scheduler for EagerScheduler {
    fn name(&self) -> &'static str {
        "eager"
    }

    /// Costs no estimate: the executor computes both terms.
    fn choose(&mut self, task: TaskId, view: &SchedView) -> Choice {
        let worker = view
            .capable_workers(task)
            .map(|w| (w.id, view.now.max(view.worker_free[w.id]).value()))
            // `min_by` keeps the first of equal minima.
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap_or_else(|| panic!("no capable worker for task {task}"))
            .0;
        Choice {
            worker,
            transfer: None,
            exec: None,
        }
    }
}
