//! The sorted data-aware dequeue model (`dmdas`) — the scheduler the paper
//! uses for all its experiments (§III-B).
//!
//! On top of dmda it (1) assigns ready tasks in decreasing application
//! priority (Chameleon's expert priorities), and (2) among workers whose
//! expected completion times are within a small factor of the best,
//! prefers the one already holding the most operand bytes — StarPU's
//! "prioritizes tasks whose data buffers are already available on the
//! target device".

use crate::sched::{Choice, Class, Costing, Rule, SchedView, Scheduler};
use crate::task::TaskId;

/// Fraction of the task's own execution time within which two expected
/// completion times count as a tie for the locality preference. The
/// tolerance scales with the *task*, not the queue depth — a
/// queue-relative tolerance would let arbitrarily many tasks pile onto
/// one device late in a long run.
pub(super) const TIE_FRACTION: f64 = 0.25;

#[derive(Debug, Default, Clone)]
pub struct DmdasScheduler {
    costing: Costing,
}

impl Scheduler for DmdasScheduler {
    fn name(&self) -> &'static str {
        "dmdas"
    }

    fn order(&mut self, ready: &mut Vec<TaskId>, view: &SchedView) {
        // Higher priority first; stable on submission order for equals.
        ready.sort_by_key(|&t| std::cmp::Reverse(view.graph.task(t).priority));
    }

    /// The window and the locality pick run over classes: every member of
    /// a class holds the same resident bytes, so a class's best member is
    /// its earliest, and on equal keys the later class, then the later
    /// member, wins.
    fn choose(&mut self, task: TaskId, view: &SchedView) -> Choice {
        let costs = self.costing.cost(view, task, Rule::Dmdas);
        let ect = |c: &Class| c.completion.value();
        let best = costs.earliest_class();
        let limit = ect(best) + best.exec.value() * TIE_FRACTION;
        // Locality tie-break among classes finishing within a fraction of
        // one execution of the best.
        let class = costs
            .classes()
            .iter()
            .filter(|c| ect(c) <= limit)
            // Most resident bytes, then earliest ECT; `max_by` keeps the
            // last of equal maxima.
            .max_by(|a, b| {
                costs
                    .resident(a)
                    .value()
                    .total_cmp(&costs.resident(b).value())
                    .then_with(|| ect(b).total_cmp(&ect(a)))
            })
            .expect("the best class is within its own window");
        // The last member finishing at the class's earliest completion.
        let (worker, _) = class
            .members(view)
            .rfind(|&(_, t)| t.value().to_bits() == ect(class).to_bits())
            .expect("a class's earliest completion is a member's");
        costs.choice(view, class, worker)
    }
}
