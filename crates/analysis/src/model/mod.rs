//! Explicit-state model checking for the serve layer's concurrency
//! protocols.
//!
//! The serve crate's correctness rests on two hand-rolled lock-based
//! protocols: the result cache's *single-flight* (one leader computes, N
//! subscribers' callbacks receive the same bytes) and the worker pool's
//! bounded-queue backpressure. Unit tests cannot establish protocols
//! like these: the bugs live in interleavings the scheduler rarely
//! produces. This module models each protocol as a small abstract state
//! machine and **exhaustively enumerates every interleaving** to a
//! bounded depth with a depth-first search over the explicit state
//! graph:
//!
//! * [`singleflight`]: the `ResultCache` begin/subscribe/fulfill/
//!   drop-fail protocol over one or more shards, with a leader's pool
//!   job racing its own request's subscription — invariants: at most one
//!   leader per key, no lost callback (one queued on a resolved flight
//!   is a violation, not just a deadlock), no phantom callback, exactly
//!   one simulation when leaders don't fail, every execution ends with
//!   every client answered.
//! * [`backpressure`]: the `WorkerPool` bounded queue — invariants: the
//!   queue never exceeds capacity, `accepted + rejected == submitted`,
//!   and at drain time `executed == accepted` with every worker joined.
//! * [`controlplane`]: the online controller's re-cap command path —
//!   every decision sequence a bounded tick train could emit, checked
//!   for lost or stale re-caps, domain escapes, and the neutrality
//!   guarantee that the all-hold path leaves the run untouched.
//!
//! Each model also has a deliberately broken variant reproducing a
//! classic bug (a subscribe that checks, unlocks, then queues; signaling
//! `stop` without the queue mutex) so the tests prove the checker *can*
//! catch what it claims to check — a model checker that never fails is
//! vacuous.
//!
//! The real implementations are tied to the models through
//! transition-labeling tests (`crates/serve/tests/protocol_model.rs`):
//! driving the real code through a scenario yields a label sequence the
//! model must [`accept`](accepts_trace).

pub mod backpressure;
pub mod controlplane;
pub mod pool;
pub mod singleflight;

use std::collections::HashSet;
use std::hash::Hash;

/// An abstract protocol state machine with checkable invariants.
pub trait Model {
    /// Global protocol state (all threads + shared data). Must be
    /// hashable: the checker deduplicates states reached along
    /// different interleavings.
    type State: Clone + Eq + Hash;

    fn initial(&self) -> Self::State;

    /// Every enabled transition from `s`, as `(label, successor)`.
    /// Labels name atomic steps (`"t0:begin:lead"`) and double as the
    /// vocabulary for [`accepts_trace`].
    fn transitions(&self, s: &Self::State) -> Vec<(String, Self::State)>;

    /// Safety invariant, checked at every reached state.
    fn invariant(&self, s: &Self::State) -> Result<(), String>;

    /// Is this a state the protocol is *allowed* to stop in? A state
    /// with no enabled transitions that is not expected-terminal is
    /// reported as a deadlock (the liveness check).
    fn is_expected_terminal(&self, s: &Self::State) -> bool;
}

/// An invariant violation or deadlock, with the interleaving that
/// produced it.
#[derive(Debug, Clone)]
pub struct Violation {
    pub message: String,
    /// Transition labels from the initial state to the bad state.
    pub trace: Vec<String>,
}

/// What an exhaustive exploration found.
#[derive(Debug, Clone, Default)]
pub struct CheckOutcome {
    /// Distinct states reached.
    pub states: usize,
    /// Transitions taken (interleaving steps explored).
    pub transitions: usize,
    /// Distinct expected-terminal states reached.
    pub terminals: usize,
    /// First violation found, if any (the search stops there).
    pub violation: Option<Violation>,
    /// True if the depth bound cut off any path — the exploration was
    /// then *not* exhaustive and absence of violations is inconclusive.
    pub truncated: bool,
}

impl CheckOutcome {
    /// Exhaustively verified: no violation and no truncation.
    pub fn verified(&self) -> bool {
        self.violation.is_none() && !self.truncated
    }
}

/// Exhaustive DFS explorer with a depth bound.
pub struct Checker {
    /// Maximum trace length explored. Paths longer than this set
    /// [`CheckOutcome::truncated`]; pick it above the model's diameter
    /// (every model here terminates, so a generous bound stays
    /// exhaustive).
    pub max_depth: usize,
}

impl Default for Checker {
    fn default() -> Self {
        Checker { max_depth: 10_000 }
    }
}

struct Frame<S> {
    succs: Vec<(String, S)>,
    next: usize,
}

impl Checker {
    /// Explore every interleaving of `model` from its initial state.
    pub fn run<M: Model>(&self, model: &M) -> CheckOutcome {
        let mut out = CheckOutcome::default();
        let mut visited: HashSet<M::State> = HashSet::new();
        let mut labels: Vec<String> = Vec::new();

        let init = model.initial();
        if let Err(message) = model.invariant(&init) {
            out.states = 1;
            out.violation = Some(Violation {
                message,
                trace: Vec::new(),
            });
            return out;
        }
        visited.insert(init.clone());
        out.states = 1;
        let init_succs = model.transitions(&init);
        if init_succs.is_empty() {
            if model.is_expected_terminal(&init) {
                out.terminals = 1;
            } else {
                out.violation = Some(Violation {
                    message: "deadlock: initial state has no transitions".to_string(),
                    trace: Vec::new(),
                });
            }
            return out;
        }
        let mut stack: Vec<Frame<M::State>> = vec![Frame {
            succs: init_succs,
            next: 0,
        }];

        while let Some(top) = stack.last_mut() {
            if top.next >= top.succs.len() {
                stack.pop();
                labels.pop();
                continue;
            }
            let (label, state) = top.succs[top.next].clone();
            top.next += 1;
            out.transitions += 1;
            if !visited.insert(state.clone()) {
                continue;
            }
            out.states += 1;
            labels.push(label);
            if let Err(message) = model.invariant(&state) {
                out.violation = Some(Violation {
                    message,
                    trace: labels.clone(),
                });
                return out;
            }
            let succs = model.transitions(&state);
            if succs.is_empty() {
                if model.is_expected_terminal(&state) {
                    out.terminals += 1;
                } else {
                    out.violation = Some(Violation {
                        message: "deadlock: no enabled transition in non-terminal state"
                            .to_string(),
                        trace: labels.clone(),
                    });
                    return out;
                }
                labels.pop();
                continue;
            }
            if labels.len() >= self.max_depth {
                out.truncated = true;
                labels.pop();
                continue;
            }
            stack.push(Frame { succs, next: 0 });
        }
        out
    }
}

/// Does `model` accept this sequence of transition labels from its
/// initial state? The bridge between the real implementation and the
/// model: a test drives the real code through a scenario, records what
/// happened as labels, and asserts the model agrees that ordering is a
/// legal protocol run. Returns the index of the first rejected label on
/// failure.
pub fn accepts_trace<M: Model>(model: &M, labels: &[&str]) -> Result<(), usize> {
    let mut state = model.initial();
    for (i, want) in labels.iter().enumerate() {
        let next = model
            .transitions(&state)
            .into_iter()
            .find(|(label, _)| label == want);
        match next {
            Some((_, s)) => state = s,
            None => return Err(i),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3-bit counter that must not reach 7, with a sink at 6.
    struct Toy {
        bad: u8,
    }

    impl Model for Toy {
        type State = u8;

        fn initial(&self) -> u8 {
            0
        }

        fn transitions(&self, s: &u8) -> Vec<(String, u8)> {
            if *s >= 6 {
                return Vec::new();
            }
            vec![
                (format!("inc1->{}", s + 1), s + 1),
                (format!("inc2->{}", (s + 2).min(6)), (s + 2).min(6)),
            ]
        }

        fn invariant(&self, s: &u8) -> Result<(), String> {
            if *s == self.bad {
                Err(format!("reached forbidden state {s}"))
            } else {
                Ok(())
            }
        }

        fn is_expected_terminal(&self, s: &u8) -> bool {
            *s == 6
        }
    }

    #[test]
    fn explores_and_terminates() {
        let out = Checker::default().run(&Toy { bad: 7 });
        assert!(out.verified(), "{:?}", out.violation);
        assert_eq!(out.states, 7); // 0..=6
        assert_eq!(out.terminals, 1);
        assert!(out.transitions >= out.states - 1);
    }

    #[test]
    fn finds_violation_with_trace() {
        let out = Checker::default().run(&Toy { bad: 3 });
        let v = out.violation.expect("must find the forbidden state");
        assert!(v.message.contains("forbidden state 3"));
        // The trace replays to the bad state.
        assert!(!v.trace.is_empty());
        let labels: Vec<&str> = v.trace.iter().map(String::as_str).collect();
        assert!(accepts_trace(&Toy { bad: 7 }, &labels).is_ok());
    }

    #[test]
    fn depth_bound_reports_truncation() {
        let out = Checker { max_depth: 2 }.run(&Toy { bad: 7 });
        assert!(out.truncated);
        assert!(!out.verified());
    }

    #[test]
    fn rejects_illegal_traces() {
        let toy = Toy { bad: 7 };
        assert!(accepts_trace(&toy, &["inc1->1", "inc2->3"]).is_ok());
        assert_eq!(accepts_trace(&toy, &["inc1->2"]), Err(0));
        assert_eq!(accepts_trace(&toy, &["inc1->1", "inc1->3"]), Err(1));
    }
}
