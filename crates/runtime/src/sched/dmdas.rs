//! The sorted data-aware dequeue model (`dmdas`) — the scheduler the paper
//! uses for all its experiments (§III-B).
//!
//! On top of dmda it (1) assigns ready tasks in decreasing application
//! priority (Chameleon's expert priorities), and (2) among workers whose
//! expected completion times are within a small factor of the best,
//! prefers the one already holding the most operand bytes — StarPU's
//! "prioritizes tasks whose data buffers are already available on the
//! target device".

use crate::sched::{Choice, Costing, Estimate, SchedView, Scheduler, Terms};
use crate::task::TaskId;

/// Fraction of the task's own execution time within which two expected
/// completion times count as a tie for the locality preference. The
/// tolerance scales with the *task*, not the queue depth — a
/// queue-relative tolerance would let arbitrarily many tasks pile onto
/// one device late in a long run.
const TIE_FRACTION: f64 = 0.25;

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

    fn choose(&mut self, task: TaskId, view: &SchedView) -> Choice {
        let costs = self.costing.cost(view, task, Terms::Locality);
        let ect = |e: &Estimate| e.completion.value();
        let best = costs.earliest();
        let (best_ect, slack) = (ect(best), best.exec.value() * TIE_FRACTION);
        // Locality tie-break among workers finishing within a fraction of
        // one execution of the best.
        costs
            .candidates()
            .iter()
            .filter(|e| ect(e) <= best_ect + slack)
            .map(|e| (e, costs.resident(e).value()))
            // Most resident bytes, then earliest ECT; `max_by` keeps the
            // last of equal maxima.
            .max_by(|a, b| {
                a.1.total_cmp(&b.1)
                    .then_with(|| ect(b.0).total_cmp(&ect(a.0)))
            })
            .map(|(e, _)| costs.choice(e))
            .expect("the best candidate is within its own window")
    }
}
