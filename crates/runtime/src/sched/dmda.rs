//! The data-aware dequeue model (`dmda`, a.k.a. heft-tmdp-pr): like
//! [`crate::sched::DmScheduler`] but the expected completion time includes
//! the time to move missing operands to the candidate worker.

use crate::sched::{Choice, Costing, Rule, SchedView, Scheduler};
use crate::task::TaskId;

#[derive(Debug, Default, Clone)]
pub struct DmdaScheduler {
    costing: Costing,
}

impl Scheduler for DmdaScheduler {
    fn name(&self) -> &'static str {
        "dmda"
    }

    fn choose(&mut self, task: TaskId, view: &SchedView) -> Choice {
        self.costing
            .cost(view, task, Rule::Dmda)
            .first_earliest(view)
    }
}
