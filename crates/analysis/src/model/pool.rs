//! Abstract model of the sweep driver's join protocol
//! (`crates/experiments/src/driver.rs`).
//!
//! One top-level `par_map` opens a pool: its caller and the pool
//! threads take jobs from one queue. A job that calls `par_map` itself
//! pushes its batch at the *front* of the queue and then helps — runs
//! queued jobs, its own or any other — until its batch counter reads
//! zero, parking on the pool's condition variable while the queue is
//! empty. A finished job decrements its batch's counter and wakes every
//! parked thread, both under the queue lock. When the caller's own
//! batch is done it releases the pool threads: it zeroes their counter
//! and wakes them, under the lock too.
//!
//! The model runs a fixed job tree on `threads` threads (thread 0 is
//! the top-level caller): batch 0 = jobs 0 and 1; job 0 opens batch 1 =
//! jobs 2 and 3; job 1 opens batch 2 = jobs 4 and 5; job 2 opens
//! batch 3 = jobs 6 and 7 — three levels, with two nested batches open
//! at once. Each thread is a call stack, since a helping waiter runs
//! other jobs on top of its own frame. Atomic steps mirror the critical
//! sections: a help step (check the counter, pop a job or park), a
//! batch push and a finish each hold the queue lock for one step;
//! running a leaf is a lock-free step of its own.
//!
//! Checked invariants:
//! * **a waiter returns only after all of its jobs have finished** — a
//!   job resumed from its nested batch, and a thread leaving the pool,
//!   find every job of the batch they waited for counted off. The
//!   driver's one `unsafe` block rests on this: a job borrows its
//!   caller's frame until it is counted off;
//! * **every execution terminates** — no reachable state is stuck short
//!   of every thread having left the pool, so no wakeup is lost. Every
//!   step but a park and its wake starts, advances or finishes a job,
//!   and a wake needs such a step first, so the state graph has no
//!   cycle and deadlock freedom is termination.
//!
//! Two deliberately broken variants ([`Bug`]) must be caught: a finish
//! that decrements and notifies without the queue lock (the decrement
//! lands between a waiter's check and its park, and the waiter sleeps
//! forever), and a waiter that returns when the queue is empty rather
//! than when its batch is done (it resumes its job while another
//! thread still runs one of the batch's jobs — in the driver, a
//! use-after-free of the caller's frame).

use super::Model;

/// The counter the pool threads (every thread but the caller) wait on;
/// the caller zeroes it once batch 0 is done.
const RELEASE: u8 = 4;

/// Jobs of each batch, in submission order; batch `RELEASE` has none.
const BATCHES: [&[u8]; 4] = [&[0, 1], &[2, 3], &[4, 5], &[6, 7]];

/// The batch each job opens, if any.
const OPENS: [Option<u8>; 8] = [Some(1), Some(2), Some(3), None, None, None, None, None];

/// Where a job is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Popped, not yet begun.
    Start,
    /// Pushed its nested batch; a `Help` frame for it sits above.
    Joining,
    /// Result written (a nested job's once its help returned); next,
    /// the counted-off finish.
    Wrote,
}

/// One frame of a thread's call stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Frame {
    /// Helping until the batch's counter reads zero; about to take the
    /// lock and check.
    Help(u8),
    /// Lock-free-notify variant only: decided to park on the batch
    /// (counter non-zero, queue empty) but not parked yet; still holds
    /// the queue lock.
    Deciding(u8),
    /// Parked on the condition variable while helping the batch.
    Parked(u8),
    /// Running a job.
    Job(u8, Stage),
    /// The caller's last step: release the pool threads.
    Release,
}

/// Global protocol state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PoolState {
    /// Queued jobs, front first.
    pub queue: Vec<u8>,
    /// Unfinished jobs per batch, then the release counter.
    pub pending: [u8; 5],
    /// Bit `j`: job `j` has been counted off.
    pub finished: u16,
    /// Each thread's call stack, innermost last; empty once it left.
    pub threads: Vec<Vec<Frame>>,
}

/// A broken variant the checker must catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bug {
    /// Decrement and notify without taking the queue lock.
    LockFreeNotify,
    /// A waiter returns when the queue is empty, not when its batch is
    /// done.
    ReturnWhenQueueEmpty,
}

/// Model configuration.
pub struct PoolModel {
    pub threads: usize,
    pub bug: Option<Bug>,
}

impl PoolModel {
    pub fn correct(threads: usize) -> Self {
        PoolModel { threads, bug: None }
    }

    pub fn buggy(threads: usize, bug: Bug) -> Self {
        PoolModel {
            threads,
            bug: Some(bug),
        }
    }
}

fn all_finished(s: &PoolState, batch: u8) -> bool {
    BATCHES[usize::from(batch)]
        .iter()
        .all(|&j| s.finished & (1 << j) != 0)
}

/// Wake every parked thread (`notify_all`).
fn wake_all(s: &mut PoolState) {
    for stack in &mut s.threads {
        if let Some(top) = stack.last_mut() {
            if let Frame::Parked(b) = *top {
                *top = Frame::Help(b);
            }
        }
    }
}

/// Pop thread `t`'s help frame: the job below resumes from its join
/// and writes its result.
fn return_from_help(s: &mut PoolState, t: usize) {
    let stack = &mut s.threads[t];
    stack.pop();
    if let Some(top) = stack.last_mut() {
        if let Frame::Job(j, Stage::Joining) = *top {
            *top = Frame::Job(j, Stage::Wrote);
        }
    }
}

fn batch_of(job: u8) -> u8 {
    // Every job is in exactly one of `BATCHES`.
    (0u8..)
        .zip(BATCHES)
        .find(|(_, jobs)| jobs.contains(&job))
        .map_or(RELEASE, |(b, _)| b)
}

impl Model for PoolModel {
    type State = PoolState;

    fn initial(&self) -> PoolState {
        let mut pending = [0; 5];
        for (b, jobs) in BATCHES.iter().enumerate() {
            pending[b] = jobs.len() as u8;
        }
        pending[usize::from(RELEASE)] = 1;
        let mut threads = vec![vec![Frame::Release, Frame::Help(0)]];
        threads.resize(self.threads, vec![Frame::Help(RELEASE)]);
        PoolState {
            queue: BATCHES[0].to_vec(),
            pending,
            finished: 0,
            threads,
        }
    }

    fn transitions(&self, s: &PoolState) -> Vec<(String, PoolState)> {
        let mut out = Vec::new();
        // A thread between deciding to park and parking holds the lock.
        let locked = s
            .threads
            .iter()
            .any(|stack| matches!(stack.last(), Some(Frame::Deciding(_))));
        for (t, stack) in s.threads.iter().enumerate() {
            let Some(&top) = stack.last() else { continue };
            let mut n = s.clone();
            match top {
                Frame::Help(b) if !locked => {
                    let done = match self.bug {
                        Some(Bug::ReturnWhenQueueEmpty) => s.queue.is_empty(),
                        _ => s.pending[usize::from(b)] == 0,
                    };
                    if done {
                        return_from_help(&mut n, t);
                        out.push((format!("t{t}:return b{b}"), n));
                    } else if let Some(&j) = s.queue.first() {
                        n.queue.remove(0);
                        n.threads[t].push(Frame::Job(j, Stage::Start));
                        out.push((format!("t{t}:pop j{j}"), n));
                    } else if self.bug == Some(Bug::LockFreeNotify) {
                        n.threads[t].pop();
                        n.threads[t].push(Frame::Deciding(b));
                        out.push((format!("t{t}:decide-park b{b}"), n));
                    } else {
                        n.threads[t].pop();
                        n.threads[t].push(Frame::Parked(b));
                        out.push((format!("t{t}:park b{b}"), n));
                    }
                }
                Frame::Deciding(b) => {
                    n.threads[t].pop();
                    n.threads[t].push(Frame::Parked(b));
                    out.push((format!("t{t}:park b{b}"), n));
                }
                Frame::Job(j, Stage::Start) => match OPENS[usize::from(j)] {
                    Some(c) if !locked => {
                        let mut queue = BATCHES[usize::from(c)].to_vec();
                        queue.extend(&s.queue);
                        n.queue = queue;
                        wake_all(&mut n);
                        n.threads[t].pop();
                        n.threads[t].push(Frame::Job(j, Stage::Joining));
                        n.threads[t].push(Frame::Help(c));
                        out.push((format!("t{t}:push b{c}"), n));
                    }
                    Some(_) => {}
                    None => {
                        n.threads[t].pop();
                        n.threads[t].push(Frame::Job(j, Stage::Wrote));
                        out.push((format!("t{t}:run j{j}"), n));
                    }
                },
                Frame::Job(j, Stage::Wrote) if !locked || self.bug == Some(Bug::LockFreeNotify) => {
                    n.pending[usize::from(batch_of(j))] -= 1;
                    n.finished |= 1 << j;
                    wake_all(&mut n);
                    n.threads[t].pop();
                    out.push((format!("t{t}:finish j{j}"), n));
                }
                Frame::Release if !locked => {
                    n.pending[usize::from(RELEASE)] = 0;
                    wake_all(&mut n);
                    n.threads[t].pop();
                    out.push((format!("t{t}:release"), n));
                }
                _ => {}
            }
        }
        out
    }

    fn invariant(&self, s: &PoolState) -> Result<(), String> {
        for (t, stack) in s.threads.iter().enumerate() {
            for frame in stack {
                if let Frame::Job(j, Stage::Wrote) = *frame {
                    if let Some(c) = OPENS[usize::from(j)] {
                        if !all_finished(s, c) {
                            return Err(format!(
                                "t{t}: job {j} resumed before every job of batch {c} finished"
                            ));
                        }
                    }
                }
            }
            if matches!(stack.last(), Some(Frame::Release)) && !all_finished(s, 0) {
                return Err(format!(
                    "t{t}: the caller returned before every job of batch 0 finished"
                ));
            }
            if stack.is_empty() && s.finished != (1 << OPENS.len()) - 1 {
                return Err(format!("t{t} left the pool before every job finished"));
            }
        }
        Ok(())
    }

    fn is_expected_terminal(&self, s: &PoolState) -> bool {
        s.threads.iter().all(Vec::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{accepts_trace, Checker};

    #[test]
    fn correct_protocol_verifies_exhaustively() {
        for threads in [2, 3] {
            let out = Checker::default().run(&PoolModel::correct(threads));
            assert!(out.verified(), "threads={threads}: {:?}", out.violation);
            assert!(out.states > 100, "only {} states", out.states);
            assert!(out.terminals >= 1);
        }
    }

    #[test]
    fn lock_free_notify_loses_the_last_wakeup() {
        let out = Checker::default().run(&PoolModel::buggy(2, Bug::LockFreeNotify));
        let v = out.violation.expect("checker must catch the lost wakeup");
        assert!(v.message.contains("deadlock"), "{}", v.message);
        let trace = v.trace.join(" ");
        assert!(trace.contains("decide-park"), "{trace}");
    }

    #[test]
    fn returning_on_an_empty_queue_resumes_too_early() {
        let out = Checker::default().run(&PoolModel::buggy(2, Bug::ReturnWhenQueueEmpty));
        let v = out.violation.expect("checker must catch the early return");
        assert!(v.message.contains("before every job"), "{}", v.message);
    }

    #[test]
    fn a_nested_batch_worked_by_both_threads_is_accepted() {
        // The caller takes job 0 and opens batch 1; the pool thread
        // takes job 1 and opens batch 2, whose jobs go in front. The
        // caller, helping batch 1, runs batch 2's jobs too.
        let model = PoolModel::correct(2);
        accepts_trace(
            &model,
            &[
                "t0:pop j0",
                "t1:pop j1",
                "t0:push b1",
                "t1:push b2",
                "t0:pop j4",
                "t1:pop j5",
                "t0:run j4",
                "t0:finish j4",
                "t0:pop j2",
                "t1:run j5",
                "t1:finish j5",
                "t1:return b2",
                "t1:finish j1",
                "t1:pop j3",
                "t1:run j3",
                "t1:finish j3",
                "t1:park b4",
                "t0:push b3",
                "t0:pop j6",
                "t1:pop j7",
                "t0:run j6",
                "t0:finish j6",
                "t0:park b3",
                "t1:run j7",
                "t1:finish j7",
                "t1:park b4",
                "t0:return b3",
                "t0:finish j2",
                "t0:return b1",
                "t0:finish j0",
                "t0:return b0",
                "t0:release",
                "t1:return b4",
            ],
        )
        .expect("legal pool run rejected");
    }

    #[test]
    fn impossible_runs_are_rejected() {
        let model = PoolModel::correct(2);
        // A nested job cannot run before its parent pushed it.
        assert_eq!(accepts_trace(&model, &["t0:pop j2"]), Err(0));
        // The caller cannot return while batch 0 is unfinished.
        assert_eq!(accepts_trace(&model, &["t0:return b0"]), Err(0));
    }
}
