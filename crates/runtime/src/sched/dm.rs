//! The dequeue-model (`dm`) policy, StarPU's HEFT-style strategy (§III-B,
//! Fig. 2): assign each task to the worker with the earliest expected
//! completion time according to the calibrated performance models,
//! ignoring data-transfer costs.

use crate::sched::{earliest_completion, SchedView, Scheduler};
use crate::task::TaskId;
use crate::worker::WorkerId;

#[derive(Debug, Default, Clone, Copy)]
pub struct DmScheduler;

impl Scheduler for DmScheduler {
    fn name(&self) -> &'static str {
        "dm"
    }

    fn choose(&mut self, task: TaskId, view: &SchedView) -> WorkerId {
        earliest_completion(view, task, false)
    }
}
