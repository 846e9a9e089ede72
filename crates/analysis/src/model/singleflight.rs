//! Abstract model of the `ResultCache` single-flight protocol
//! (`crates/serve/src/cache.rs`) as the server runs it: every coalesced
//! waiter and every leader receives its answer through a `subscribe`
//! callback.
//!
//! `threads` clients race over `shards` independent shards; client `i`
//! wants the one key living on shard `i % shards`. With one shard this
//! is the one-key protocol; with more it is the sharded cache, where a
//! key's low bits select a shard and each shard runs the protocol behind
//! its own locks. The protocol in terms of atomic steps (each holds the
//! shard's map lock or the flight's slot lock, which is what makes it
//! one transition here):
//!
//! * `begin` (map lock): `Ready` ⇒ hit; `Pending` ⇒ take a handle on the
//!   flight; `Absent` ⇒ become leader, insert `Pending` with a fresh
//!   flight and hand the `LeadGuard` to a pool job.
//! * `subscribe` (slot lock): a resolved slot runs the callback inline;
//!   an unresolved one queues it. Check and queue are one step.
//! * the pool job's `fulfill` / drop-`fail`: under the map lock, replace
//!   or remove the pending entry (`…:map`); then under the slot lock,
//!   resolve the slot and take the queued callbacks, which run with the
//!   outcome (`…:publish`). Two steps — the model deliberately exposes
//!   the window between them, where a late `begin` can hit the ready
//!   entry while queued callbacks have not run yet.
//!
//! A leader is two actors: its pool job (`j{i}`) and its own request
//! (`t{i}`), which subscribes to `LeadGuard::flight()` while the job
//! runs. Every served miss takes that race: the job may publish before
//! the subscription (the callback runs inline) or after it (queued).
//!
//! Flights are numbered by *generation* per shard: when a leader
//! drop-fails, the key returns to `Absent` and the next `begin` starts
//! generation `g+1` with a fresh slot — which is how the real cache lets
//! a new leader retry after a failure while the failed flight's
//! subscribers all receive the error.
//!
//! Checked invariants, per shard (= per key: a key lives on one shard):
//! * **leader uniqueness** — at most one live leader; a `Pending` entry
//!   has exactly one;
//! * **no lost callback** — a callback queued on a resolved flight will
//!   never run ([`Bug::CheckThenQueue`] trips this: it splits the check
//!   and the queueing into two steps, the analogue of a non-atomic
//!   check-then-park);
//! * **no phantom callback** — a callback runs only with its own
//!   flight's outcome, after that flight resolved
//!   ([`Bug::CrossShardPublish`] trips this and the lost callback);
//! * **at most one successful simulation**, and exactly one simulation
//!   total when leaders cannot fail;
//! * a ready entry comes from a fulfilled flight;
//! * **every client answered** — terminal states must have every
//!   request answered and every job published (deadlock detection).
//!
//! Shards share no state, so the reachable space of the sharded model
//! factors *exactly* into the product of its shards' spaces — pinned
//! arithmetically by `sharded_state_space_is_the_product_of_its_shards`.

use super::Model;

/// Per-generation flight slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slot {
    Unresolved,
    Resolved { ok: bool },
}

/// A shard's cache map entry for its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Entry {
    Absent,
    /// In flight, generation `g`.
    Pending(u8),
    /// Ready value produced by flight `g`.
    Ready(u8),
}

/// One client request's position in the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Request {
    /// Has not called `begin` yet.
    Start,
    /// Holds a handle on flight `g` (`Begin::Wait`, or its own
    /// `LeadGuard::flight()`), not subscribed yet.
    Holding(u8),
    /// Buggy variant only: saw an empty slot and *released the lock*
    /// before queueing — the lost-callback window.
    Checked(u8),
    /// Callback queued on flight `g`.
    Queued(u8),
    /// Answered from the ready entry of flight `g`.
    Hit(u8),
    /// Callback ran with flight `g`'s outcome (`ok`?).
    Answered(u8, bool),
}

/// A leader's pool job, holding the `LeadGuard` for flight `g`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Job {
    Running(u8),
    /// Finished the map phase of `finish` (`ok`?), publish pending.
    Mapped(u8, bool),
    Published(u8, bool),
}

/// One shard's slice of the global state: its own entry, flight
/// generations, and simulation count — nothing shared.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ShardState {
    pub entry: Entry,
    /// Indexed by flight generation.
    pub slots: Vec<Slot>,
    /// Simulations run (each fulfill or fail is one computed attempt).
    pub sims: u8,
}

/// Global protocol state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SfState {
    pub shards: Vec<ShardState>,
    pub requests: Vec<Request>,
    /// `jobs[i]` is client `i`'s pool job, if it led.
    pub jobs: Vec<Option<Job>>,
}

/// A deliberately broken protocol variant the checker must catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bug {
    /// `subscribe` checks the slot, unlocks, then queues: a publish in
    /// between leaves the callback queued on a resolved flight.
    CheckThenQueue,
    /// `publish` takes the other shards' queued callbacks instead of its
    /// own — the wrong-flight bug a sharded refactor can introduce.
    CrossShardPublish,
}

/// Model configuration: `threads` clients over `shards` shards.
pub struct SingleFlight {
    pub shards: usize,
    /// Clients; client `i` targets the key on shard `i % shards`.
    pub threads: usize,
    /// Explore the leader drop-failure branch (`LeadGuard` dropped
    /// without `fulfill`).
    pub leader_may_fail: bool,
    pub bug: Option<Bug>,
}

impl SingleFlight {
    pub fn correct(shards: usize, threads: usize) -> Self {
        SingleFlight {
            shards,
            threads,
            leader_may_fail: true,
            bug: None,
        }
    }

    fn shard_of(&self, client: usize) -> usize {
        client % self.shards
    }
}

impl Model for SingleFlight {
    type State = SfState;

    fn initial(&self) -> SfState {
        SfState {
            shards: vec![
                ShardState {
                    entry: Entry::Absent,
                    slots: Vec::new(),
                    sims: 0,
                };
                self.shards
            ],
            requests: vec![Request::Start; self.threads],
            jobs: vec![None; self.threads],
        }
    }

    fn transitions(&self, s: &SfState) -> Vec<(String, SfState)> {
        let mut out = Vec::new();
        for i in 0..self.threads {
            let k = self.shard_of(i);
            let at = if self.shards > 1 {
                format!("{i}.s{k}")
            } else {
                i.to_string()
            };
            let mut step = |actor: char, label: &str, f: &dyn Fn(&mut SfState)| {
                let mut n = s.clone();
                f(&mut n);
                out.push((format!("{actor}{at}:{label}"), n));
            };
            let slot = |g: u8| s.shards[k].slots[g as usize];
            match s.requests[i] {
                Request::Start => match s.shards[k].entry {
                    Entry::Ready(g) => step('t', "begin:hit", &|n| {
                        n.requests[i] = Request::Hit(g);
                    }),
                    Entry::Pending(g) => step('t', "begin:wait", &|n| {
                        n.requests[i] = Request::Holding(g);
                    }),
                    Entry::Absent => step('t', "begin:lead", &|n| {
                        let g = n.shards[k].slots.len() as u8;
                        n.shards[k].slots.push(Slot::Unresolved);
                        n.shards[k].entry = Entry::Pending(g);
                        n.requests[i] = Request::Holding(g);
                        n.jobs[i] = Some(Job::Running(g));
                    }),
                },
                Request::Holding(g) => match slot(g) {
                    Slot::Resolved { ok } => step('t', "subscribe:inline", &|n| {
                        n.requests[i] = Request::Answered(g, ok);
                    }),
                    Slot::Unresolved if self.bug == Some(Bug::CheckThenQueue) => {
                        step('t', "subscribe:check", &|n| {
                            n.requests[i] = Request::Checked(g);
                        })
                    }
                    Slot::Unresolved => step('t', "subscribe:queue", &|n| {
                        n.requests[i] = Request::Queued(g);
                    }),
                },
                Request::Checked(g) => step('t', "subscribe:queue", &|n| {
                    n.requests[i] = Request::Queued(g);
                }),
                Request::Queued(_) | Request::Hit(_) | Request::Answered(..) => {}
            }
            match s.jobs[i] {
                Some(Job::Running(g)) => {
                    step('j', "fulfill:map", &|n| {
                        n.shards[k].entry = Entry::Ready(g);
                        n.shards[k].sims += 1;
                        n.jobs[i] = Some(Job::Mapped(g, true));
                    });
                    if self.leader_may_fail {
                        step('j', "fail:map", &|n| {
                            n.shards[k].entry = Entry::Absent;
                            n.shards[k].sims += 1;
                            n.jobs[i] = Some(Job::Mapped(g, false));
                        });
                    }
                }
                Some(Job::Mapped(g, ok)) => step('j', "publish", &|n| {
                    n.shards[k].slots[g as usize] = Slot::Resolved { ok };
                    for j in 0..n.requests.len() {
                        let taken = match n.requests[j] {
                            Request::Queued(h) if self.bug == Some(Bug::CrossShardPublish) => {
                                (self.shard_of(j) != k).then_some(h)
                            }
                            Request::Queued(h) => (self.shard_of(j) == k && h == g).then_some(h),
                            _ => None,
                        };
                        if let Some(h) = taken {
                            n.requests[j] = Request::Answered(h, ok);
                        }
                    }
                    n.jobs[i] = Some(Job::Published(g, ok));
                }),
                Some(Job::Published(..)) | None => {}
            }
        }
        out
    }

    fn invariant(&self, s: &SfState) -> Result<(), String> {
        for (k, shard) in s.shards.iter().enumerate() {
            let on_k = |j: usize| self.shard_of(j) == k;
            let jobs = || {
                s.jobs
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| on_k(j))
                    .filter_map(|(_, job)| *job)
            };
            // Leader uniqueness: at most one job holds the pending map
            // entry. (A `Mapped` job has already surrendered the entry —
            // a *new* leader may legally start a fresh flight while the
            // failed one is still publishing its error.)
            let leaders = jobs().filter(|j| matches!(j, Job::Running(_))).count();
            if leaders > 1 {
                return Err(format!(
                    "shard {k}: {leaders} simultaneous leaders for one key"
                ));
            }
            if let Entry::Pending(g) = shard.entry {
                if !jobs().any(|j| j == Job::Running(g)) {
                    return Err(format!("shard {k}: pending flight {g} has no leader"));
                }
            }
            // At most one simulation can succeed; without failures,
            // exactly one simulation runs no matter the interleaving.
            let fulfilled = |j: &Job| matches!(j, Job::Mapped(_, true) | Job::Published(_, true));
            let successes = jobs().filter(fulfilled).count();
            if successes > 1 {
                return Err(format!(
                    "shard {k}: {successes} successful simulations for one key"
                ));
            }
            if !self.leader_may_fail && shard.sims > 1 {
                return Err(format!(
                    "shard {k}: {} simulations with no leader failures (want exactly 1)",
                    shard.sims
                ));
            }
            // Divergence: a ready entry must come from a fulfilled flight.
            if let Entry::Ready(g) = shard.entry {
                let fulfilled_g =
                    |j: Job| matches!(j, Job::Mapped(h, true) | Job::Published(h, true) if h == g);
                if !jobs().any(fulfilled_g) {
                    return Err(format!(
                        "shard {k}: ready entry from flight {g} that no leader fulfilled"
                    ));
                }
            }
        }
        // Callback discipline, across every shard at once.
        for (j, r) in s.requests.iter().enumerate() {
            let k = self.shard_of(j);
            let slot = |g: u8| s.shards[k].slots[g as usize];
            match *r {
                Request::Queued(g) if slot(g) != Slot::Unresolved => {
                    return Err(format!(
                        "lost callback: t{j} queued on shard {k} flight {g} after it resolved"
                    ));
                }
                Request::Answered(g, ok) if slot(g) != (Slot::Resolved { ok }) => {
                    return Err(format!(
                        "phantom callback: t{j} ran with ok={ok} but shard {k} flight {g} is {:?}",
                        slot(g)
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn is_expected_terminal(&self, s: &SfState) -> bool {
        s.requests
            .iter()
            .all(|r| matches!(r, Request::Hit(_) | Request::Answered(..)))
            && s.jobs
                .iter()
                .all(|j| matches!(j, None | Some(Job::Published(..))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{accepts_trace, Checker};

    #[test]
    fn correct_protocol_verifies_exhaustively() {
        let out = Checker::default().run(&SingleFlight::correct(1, 3));
        assert!(
            out.verified(),
            "single-flight violated: {:?}",
            out.violation
        );
        // Exhaustive and non-trivial: thousands of interleavings.
        assert!(out.states > 100, "only {} states", out.states);
        assert!(out.terminals >= 1);
    }

    #[test]
    fn no_failure_means_exactly_one_simulation() {
        let model = SingleFlight {
            leader_may_fail: false,
            ..SingleFlight::correct(1, 3)
        };
        let out = Checker::default().run(&model);
        assert!(out.verified(), "{:?}", out.violation);
    }

    #[test]
    fn check_then_queue_loses_a_callback() {
        let model = SingleFlight {
            leader_may_fail: false,
            bug: Some(Bug::CheckThenQueue),
            ..SingleFlight::correct(1, 2)
        };
        let out = Checker::default().run(&model);
        let v = out.violation.expect("checker must catch the lost callback");
        assert!(
            v.message.contains("lost callback"),
            "unexpected violation: {}",
            v.message
        );
        // The witness trace shows the bug shape: check-empty, then the
        // publish slips in, then the doomed queueing.
        let trace = v.trace.join(" ");
        assert!(trace.contains("subscribe:check"), "{trace}");
        assert!(trace.contains("publish"), "{trace}");
    }

    #[test]
    fn real_scenarios_are_accepted() {
        let model = SingleFlight::correct(1, 3);
        // The leader's own subscription queues before its job publishes;
        // a waiter coalesces behind it; a late client hits in the window
        // between the map swap and the publish.
        accepts_trace(
            &model,
            &[
                "t0:begin:lead",
                "t0:subscribe:queue",
                "t1:begin:wait",
                "t1:subscribe:queue",
                "j0:fulfill:map",
                "t2:begin:hit",
                "j0:publish",
            ],
        )
        .expect("legal single-flight run rejected");
        // The job publishes first: both subscriptions run inline.
        accepts_trace(
            &model,
            &[
                "t0:begin:lead",
                "t1:begin:wait",
                "j0:fulfill:map",
                "j0:publish",
                "t0:subscribe:inline",
                "t1:subscribe:inline",
                "t2:begin:hit",
            ],
        )
        .expect("inline subscriptions rejected");
        // Leader drop-fails; the waiter sees the error; a new leader
        // retries.
        accepts_trace(
            &model,
            &[
                "t0:begin:lead",
                "t1:begin:wait",
                "j0:fail:map",
                "j0:publish",
                "t1:subscribe:inline",
                "t2:begin:lead",
            ],
        )
        .expect("drop-propagated failure run rejected");
    }

    #[test]
    fn impossible_scenarios_are_rejected() {
        let model = SingleFlight::correct(1, 2);
        // Two concurrent leaders for one key can never happen.
        assert_eq!(
            accepts_trace(&model, &["t0:begin:lead", "t1:begin:lead"]),
            Err(1)
        );
        // A hit before anything was computed can never happen.
        assert_eq!(accepts_trace(&model, &["t0:begin:hit"]), Err(0));
        // A subscription cannot run inline before the flight resolves.
        assert_eq!(
            accepts_trace(&model, &["t0:begin:lead", "t0:subscribe:inline"]),
            Err(1)
        );
    }

    #[test]
    fn sharded_protocol_verifies_exhaustively() {
        let out = Checker::default().run(&SingleFlight::correct(2, 4));
        assert!(
            out.verified(),
            "sharded single-flight violated: {:?}",
            out.violation
        );
        assert!(out.states > 1_000, "only {} states", out.states);
        assert!(out.terminals >= 1);
    }

    /// The composition theorem, pinned arithmetically. Shards share no
    /// state, so the 2-shard, 4-client space must factor *exactly* into
    /// the product of two copies of the 1-shard, 2-client space:
    /// `S = s²`, `T = t²` terminals, and — since a product state's
    /// out-degree is the sum of its components' — `E = 2·s·e` edges.
    /// Any accidental coupling between shards (a shared counter, a
    /// cross-shard publish) breaks at least one of these equalities
    /// before it breaks an invariant.
    #[test]
    fn sharded_state_space_is_the_product_of_its_shards() {
        let one = Checker::default().run(&SingleFlight::correct(1, 2));
        let two = Checker::default().run(&SingleFlight::correct(2, 4));
        assert!(one.verified() && two.verified());
        assert_eq!(two.states, one.states * one.states);
        assert_eq!(two.terminals, one.terminals * one.terminals);
        assert_eq!(two.transitions, 2 * one.states * one.transitions);
    }

    #[test]
    fn shards_lead_independently_but_each_key_stays_single_flight() {
        let model = SingleFlight::correct(2, 4);
        // Two simultaneous leaders on *different* shards — impossible in
        // the one-key model, and exactly the parallelism sharding buys.
        accepts_trace(&model, &["t0.s0:begin:lead", "t1.s1:begin:lead"])
            .expect("independent shards must lead concurrently");
        // A second leader for the *same* key is still impossible.
        assert_eq!(
            accepts_trace(&model, &["t0.s0:begin:lead", "t2.s0:begin:lead"]),
            Err(1)
        );
    }

    /// The wrong-flight bug: publish takes the other shard's queued
    /// callbacks. The checker must catch it — as the subscriber left
    /// queued on its own resolved flight (lost callback) or as the
    /// innocent shard's callback run before its flight resolved
    /// (phantom callback).
    #[test]
    fn cross_shard_publish_loses_a_callback() {
        let model = SingleFlight {
            leader_may_fail: false,
            bug: Some(Bug::CrossShardPublish),
            ..SingleFlight::correct(2, 3)
        };
        let out = Checker::default().run(&model);
        let v = out
            .violation
            .expect("checker must catch the cross-shard publish");
        assert!(
            v.message.contains("callback"),
            "unexpected violation: {}",
            v.message
        );
        assert!(v.trace.join(" ").contains("publish"), "{:?}", v.trace);
    }
}
