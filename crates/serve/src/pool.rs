//! Bounded worker pool with backpressure.
//!
//! Same job shape as the PR-2 sweep driver (`ugpc_experiments::driver`),
//! adapted for a long-lived service: instead of a one-shot batch on
//! work-stealing deques, jobs arrive continuously on one bounded queue
//! and [`try_submit`](WorkerPool::try_submit) *rejects* when the queue
//! is full. The caller turns that rejection into a structured
//! `backpressure` reply — a flood of requests degrades into polite
//! retry-after answers instead of an unbounded queue eating the heap.
//!
//! A panicking job is caught per-job, so one poisoned simulation cannot
//! take a worker thread (and eventually the whole pool) down.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use ugpc_telemetry::{Logger, TraceCtx};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Submission failed because the queue was at capacity; the job is
/// handed back untouched.
pub struct QueueFull(pub Job);

impl std::fmt::Debug for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("QueueFull(..)")
    }
}

/// A queued job plus the trace context of the request that enqueued it,
/// so the worker's log lines join the request's trace.
struct Queued {
    job: Job,
    trace: Option<TraceCtx>,
}

struct Shared {
    queue: Mutex<VecDeque<Queued>>,
    available: Condvar,
    capacity: usize,
    stop: AtomicBool,
    executed: AtomicU64,
    rejected: AtomicU64,
    logger: Arc<Logger>,
}

fn lock_queue(shared: &Shared) -> std::sync::MutexGuard<'_, VecDeque<Queued>> {
    shared.queue.lock().unwrap_or_else(PoisonError::into_inner)
}

/// See the module docs.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// `workers` threads draining a queue bounded at `queue_capacity`
    /// pending jobs (the job a worker is executing no longer counts).
    /// Worker log lines (dequeue at debug, job panic at error) go to
    /// `logger`.
    pub fn new(workers: usize, queue_capacity: usize, logger: Arc<Logger>) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            capacity: queue_capacity.max(1),
            stop: AtomicBool::new(false),
            executed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            logger,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("ugpc-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            shared,
            workers: handles,
        }
    }

    /// Enqueue a job carrying the trace context of the request that
    /// spawned it, or reject it if the queue is full.
    pub fn try_submit(&self, job: Job, trace: Option<TraceCtx>) -> Result<(), QueueFull> {
        let mut queue = lock_queue(&self.shared);
        if queue.len() >= self.shared.capacity {
            drop(queue);
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(QueueFull(job));
        }
        queue.push_back(Queued { job, trace });
        drop(queue);
        self.shared.available.notify_one();
        Ok(())
    }

    /// Jobs currently waiting (not counting ones being executed).
    pub fn queue_depth(&self) -> usize {
        lock_queue(&self.shared).len()
    }

    pub fn queue_capacity(&self) -> usize {
        self.shared.capacity
    }

    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs completed (including ones that panicked).
    pub fn executed(&self) -> u64 {
        self.shared.executed.load(Ordering::Relaxed)
    }

    /// Submissions rejected by the bound.
    pub fn rejected(&self) -> u64 {
        self.shared.rejected.load(Ordering::Relaxed)
    }

    /// A retry-after hint proportional to the backlog: the fuller the
    /// queue, the longer clients should back off.
    pub fn retry_after_ms(&self) -> u64 {
        25 * (self.queue_depth().max(1) as u64)
    }

    /// Finish queued jobs, then stop and join every worker.
    pub fn shutdown(mut self) {
        signal_stop(&self.shared);
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Store `stop` *while holding the queue mutex*, then notify. The lock
/// makes the store atomic against the workers' check-then-wait: without
/// it, the store + `notify_all` can land between a worker observing
/// `stop == false` and it actually parking, and that worker sleeps
/// through shutdown forever. The `backpressure` protocol model
/// (`ugpc-analysis`, `buggy_signal` variant) finds exactly this
/// interleaving; `crates/serve/tests/protocol_model.rs` pins the fix.
fn signal_stop(shared: &Shared) {
    {
        let _queue = lock_queue(shared);
        shared.stop.store(true, Ordering::SeqCst);
    }
    shared.available.notify_all();
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        signal_stop(&self.shared);
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let queued = {
            let mut queue = lock_queue(shared);
            loop {
                if let Some(q) = queue.pop_front() {
                    break q;
                }
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Queued { job, trace } = queued;
        shared.logger.debug("job dequeued", trace, &[]);
        // Contain panics: the job's LeadGuard (if any) reports the
        // failure to its waiters on unwind; the worker itself survives.
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
            shared.logger.error("simulation job panicked", trace, &[]);
        }
        shared.executed.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn executes_submitted_jobs() {
        let pool = WorkerPool::new(2, 16, Logger::disabled());
        let (tx, rx) = mpsc::channel();
        for i in 0..10u32 {
            let tx = tx.clone();
            pool.try_submit(Box::new(move || tx.send(i).expect("send")), None)
                .expect("submit");
        }
        let mut got: Vec<u32> = (0..10).map(|_| rx.recv().expect("recv")).collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        pool.shutdown();
    }

    #[test]
    fn rejects_when_queue_full() {
        let pool = WorkerPool::new(1, 2, Logger::disabled());
        // Block the single worker…
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        pool.try_submit(
            Box::new(move || {
                let _ = gate_rx.recv_timeout(Duration::from_secs(5));
            }),
            None,
        )
        .expect("blocker");
        // Give the worker a moment to take the blocker off the queue.
        std::thread::sleep(Duration::from_millis(30));
        // …fill the queue…
        pool.try_submit(Box::new(|| ()), None).expect("fits 1");
        pool.try_submit(Box::new(|| ()), None).expect("fits 2");
        // …and the next submission must bounce.
        assert!(pool.try_submit(Box::new(|| ()), None).is_err());
        assert_eq!(pool.rejected(), 1);
        assert!(pool.retry_after_ms() > 0);
        gate_tx.send(()).expect("release");
        pool.shutdown();
    }

    #[test]
    fn panicking_job_does_not_kill_worker() {
        let pool = WorkerPool::new(1, 8, Logger::disabled());
        let done = Arc::new(AtomicUsize::new(0));
        pool.try_submit(Box::new(|| panic!("boom")), None)
            .expect("submit");
        let d = done.clone();
        pool.try_submit(
            Box::new(move || {
                d.fetch_add(1, Ordering::SeqCst);
            }),
            None,
        )
        .expect("submit");
        // The worker survives the panic and runs the second job.
        for _ in 0..200 {
            if done.load(Ordering::SeqCst) == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(done.load(Ordering::SeqCst), 1);
        assert_eq!(pool.executed(), 2);
        pool.shutdown();
    }

    #[test]
    fn traced_jobs_log_with_their_trace_ids() {
        let (logger, buf) = ugpc_telemetry::Logger::to_buffer(ugpc_telemetry::Level::Debug);
        let pool = WorkerPool::new(1, 8, logger);
        let ctx = TraceCtx {
            trace_id: 0xabc,
            span_id: 0xdef,
        };
        pool.try_submit(Box::new(|| panic!("boom")), Some(ctx))
            .expect("submit");
        pool.shutdown();
        let text = String::from_utf8(buf.lock().clone()).expect("utf8");
        assert!(text.contains("job dequeued"), "{text}");
        assert!(text.contains("simulation job panicked"), "{text}");
        assert!(text.contains("000000000abc"), "{text}");
    }

    #[test]
    fn shutdown_drains_pending_jobs() {
        let pool = WorkerPool::new(1, 64, Logger::disabled());
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let c = count.clone();
            pool.try_submit(
                Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }),
                None,
            )
            .expect("submit");
        }
        pool.shutdown();
        assert_eq!(count.load(Ordering::SeqCst), 32);
    }
}
