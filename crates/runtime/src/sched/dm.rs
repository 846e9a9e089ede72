//! The dequeue-model (`dm`) policy, StarPU's HEFT-style strategy (§III-B,
//! Fig. 2): assign each task to the worker with the earliest expected
//! completion time according to the calibrated performance models,
//! ignoring data-transfer costs.

use crate::sched::{Choice, Costing, Rule, SchedView, Scheduler};
use crate::task::TaskId;

#[derive(Debug, Default, Clone)]
pub struct DmScheduler {
    costing: Costing,
}

impl Scheduler for DmScheduler {
    fn name(&self) -> &'static str {
        "dm"
    }

    /// The executor adds the chosen worker's transfer term, which `dm`
    /// leaves out of its costs.
    fn choose(&mut self, task: TaskId, view: &SchedView) -> Choice {
        self.costing.cost(view, task, Rule::Dm).first_earliest(view)
    }
}
