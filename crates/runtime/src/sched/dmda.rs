//! The data-aware dequeue model (`dmda`, a.k.a. heft-tmdp-pr): like
//! [`crate::sched::DmScheduler`] but the expected completion time includes
//! the time to move missing operands to the candidate worker.

use crate::sched::{earliest_completion, SchedView, Scheduler};
use crate::task::TaskId;
use crate::worker::WorkerId;

#[derive(Debug, Default, Clone, Copy)]
pub struct DmdaScheduler;

impl Scheduler for DmdaScheduler {
    fn name(&self) -> &'static str {
        "dmda"
    }

    fn choose(&mut self, task: TaskId, view: &SchedView) -> WorkerId {
        earliest_completion(view, task, true)
    }
}
