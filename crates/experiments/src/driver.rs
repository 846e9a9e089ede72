//! Parallel sweep driver: one work pool per top-level call tree.
//!
//! Every experiment in this crate is a fan-out of *independent* pure
//! simulations — ladder configurations, cap-sweep points, tile sizes,
//! placements — and `repro` fans the experiments themselves out the
//! same way. [`par_map`] runs such a batch on a pool of threads while
//! collecting results in **submission order**: each job writes into its
//! own index slot, so the output `Vec` is positionally identical to the
//! serial `items.into_iter().map(f)` — and, the jobs being pure,
//! byte-identical once serialized. The determinism-differential suite
//! (`tests/parallel_differential.rs`) enforces exactly that.
//!
//! Parallelism is a process-wide setting resolved by [`jobs`]:
//! an explicit [`set_jobs`] (the `repro --jobs N` flag) wins, then the
//! `UGPC_JOBS` environment variable, then the machine's available
//! cores. A top-level call at `jobs() == 1` bypasses the pool entirely —
//! the serial path is not merely a one-thread pool, it is the plain
//! iterator chain.
//!
//! A top-level call (one made outside any pool job) opens a pool: the
//! caller and `jobs() − 1` scoped threads pull jobs from one queue until
//! its batch is done. A call made from inside a pool job joins that
//! pool: it pushes its batch at the *front* of the queue, so the tree is
//! worked depth first, and then helps run queued jobs — its own or any
//! other — until its own batch counter reaches zero. Thus `fig34::run`'s
//! ladders and each ladder's rows share one set of threads, and so do
//! the experiments of one `repro` run. DESIGN.md §20 gives the design,
//! why it cannot deadlock, and the variants it replaced; the join
//! protocol is model-checked in `ugpc_analysis::model::pool`.
//!
//! A job's panic is caught, and re-raised in its caller once the whole
//! batch has drained. Each job runs in its caller's report-memo session
//! (see [`crate::memo`]), so a study a job repeats is served from the
//! same memo the serial path would use.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Explicit override; 0 = unset (fall back to env, then cores).
static JOBS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The pool whose jobs this thread runs: set on pool threads for
    /// their life and on a top-level caller for the length of its call.
    static POOL: RefCell<Option<Arc<Pool>>> = const { RefCell::new(None) };
}

/// Set the worker count for all subsequent [`par_map`] calls.
/// `0` clears the override (back to `UGPC_JOBS`, then core count).
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// The effective worker count: [`set_jobs`] override, else the
/// `UGPC_JOBS` environment variable, else available cores.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => std::env::var("UGPC_JOBS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            }),
        n => n,
    }
}

/// A queued job: its body, and the counter of the batch it belongs to.
/// The body stores its result (or its panic) in its caller's slot and
/// never unwinds; [`Pool::run`] decrements `pending` after it returns.
struct Job {
    body: Box<dyn FnOnce() + Send>,
    pending: Arc<AtomicUsize>,
}

/// The shared queue of one top-level call tree. `pending` counters are
/// read and written only while `queue` is locked, so a waiter cannot
/// miss the decrement that finishes its batch between checking and
/// parking on `ready`; the lock also orders them, and the results
/// stored before each decrement, which is why they use `Relaxed`.
#[derive(Default)]
struct Pool {
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
}

impl Pool {
    /// Only `reserve` can panic while the queue is locked, before it
    /// changed anything, so a poisoned lock still guards a valid queue.
    fn lock(&self) -> MutexGuard<'_, VecDeque<Job>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queue `bodies` at the front, in order, then help until every one
    /// of them has finished. Returns only then, and never unwinds.
    fn run_batch<'a>(&self, bodies: Vec<Box<dyn FnOnce() + Send + 'a>>) {
        let pending = Arc::new(AtomicUsize::new(bodies.len()));
        let mut queue = self.lock();
        queue.reserve(bodies.len());
        for body in bodies.into_iter().rev() {
            // SAFETY: the body borrows from the frame of the `par_map`
            // call that made it (`'a`), and this erases that lifetime.
            // It is never used after that frame is gone: `help` below
            // returns only once `pending` is zero, `Pool::run` decrements
            // `pending` only after the body has returned and been
            // dropped, and nothing between here and that return can
            // unwind (`reserve` above was the last step that could
            // panic, the lock ignores poisoning, and bodies catch their
            // own panics).
            let body = unsafe {
                std::mem::transmute::<
                    Box<dyn FnOnce() + Send + 'a>,
                    Box<dyn FnOnce() + Send + 'static>,
                >(body)
            };
            queue.push_front(Job {
                body,
                pending: Arc::clone(&pending),
            });
        }
        self.ready.notify_all();
        drop(queue);
        self.help(&pending);
    }

    /// Run queued jobs, front first, until `pending` reads zero; park
    /// while the queue is empty and jobs of the batch are still running
    /// elsewhere.
    fn help(&self, pending: &AtomicUsize) {
        let mut queue = self.lock();
        while pending.load(Ordering::Relaxed) != 0 {
            match queue.pop_front() {
                Some(job) => {
                    drop(queue);
                    self.run(job);
                    queue = self.lock();
                }
                None => {
                    queue = self
                        .ready
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner)
                }
            }
        }
    }

    /// Run one job, then count it off its batch and wake every waiter
    /// under the queue lock.
    fn run(&self, job: Job) {
        (job.body)();
        let _queue = self.lock();
        job.pending.fetch_sub(1, Ordering::Relaxed);
        self.ready.notify_all();
    }
}

fn lock_slot<R>(slot: &Mutex<Option<R>>) -> MutexGuard<'_, Option<R>> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Map `f` over `items` on the work pool, preserving submission order
/// in the result. A call made inside a pool job joins that job's pool;
/// a top-level call opens a pool of [`jobs`] threads, the caller
/// included, for its whole call tree. At most one item runs inline, and
/// so does a top-level call when `jobs() <= 1` (see module docs). If a
/// job panics, the panic is re-raised here after the batch drains.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let joined = POOL.with(|p| p.borrow().clone());
    // Threads of the pool a top-level call would open; none to open
    // when joining one.
    let workers = if joined.is_some() { 0 } else { jobs() };
    if items.len() <= 1 || workers == 1 {
        return items.into_iter().map(f).collect();
    }

    let slots: Vec<Mutex<Option<std::thread::Result<R>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    let memo = crate::memo::active();
    let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = items
        .into_iter()
        .zip(&slots)
        .map(|(item, slot)| {
            let (f, memo) = (&f, memo.clone());
            Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let _session = crate::memo::install(memo);
                    f(item)
                }));
                *lock_slot(slot) = Some(result);
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();

    match joined {
        Some(pool) => pool.run_batch(bodies),
        None => {
            let pool = Arc::new(Pool::default());
            // The pool threads help until the caller zeroes this.
            let top = Arc::new(AtomicUsize::new(1));
            std::thread::scope(|scope| {
                for _ in 1..workers {
                    let (pool, top) = (Arc::clone(&pool), Arc::clone(&top));
                    scope.spawn(move || {
                        POOL.with(|p| *p.borrow_mut() = Some(Arc::clone(&pool)));
                        pool.help(&top);
                    });
                }
                POOL.with(|p| *p.borrow_mut() = Some(Arc::clone(&pool)));
                pool.run_batch(bodies);
                POOL.with(|p| p.borrow_mut().take());
                // The whole tree has drained: release the pool threads.
                let _queue = pool.lock();
                top.store(0, Ordering::Relaxed);
                pool.ready.notify_all();
            });
        }
    }

    slots
        .into_iter()
        .map(|slot| {
            match slot
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every submitted job produced a result")
            {
                Ok(r) => r,
                Err(panic) => resume_unwind(panic),
            }
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;
    use std::thread::ThreadId;

    /// Tests mutate the process-wide jobs override; serialize them.
    static LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn with_jobs<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_jobs(n);
        let r = f();
        set_jobs(0);
        r
    }

    #[test]
    fn preserves_submission_order() {
        for n in [1, 2, 4, 7] {
            let out = with_jobs(n, || par_map((0..100).collect(), |i: u64| i * i));
            assert_eq!(
                out,
                (0..100).map(|i| i * i).collect::<Vec<u64>>(),
                "jobs={n}"
            );
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let out: Vec<u32> = with_jobs(4, || par_map(Vec::<u32>::new(), |x| x));
        assert!(out.is_empty());
        let out = with_jobs(4, || par_map(vec![9], |x: u32| x + 1));
        assert_eq!(out, vec![10]);
    }

    #[test]
    fn three_level_nesting_keeps_submission_order_at_every_level() {
        let tree = |i: u32| {
            par_map((0..4).collect(), move |j: u32| {
                par_map((0..3).collect(), move |k: u32| (i, j, k))
            })
        };
        let serial: Vec<_> = (0..5).map(tree).collect();
        for n in [2, 3, 4] {
            assert_eq!(
                with_jobs(n, || par_map((0..5).collect(), tree)),
                serial,
                "jobs={n}"
            );
        }
    }

    #[test]
    fn a_nested_tree_runs_on_at_most_jobs_threads() {
        let threads: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        let note = || {
            threads.lock().unwrap().insert(std::thread::current().id());
        };
        with_jobs(3, || {
            par_map((0..6).collect(), |_: u32| {
                note();
                par_map((0..6).collect(), |_: u32| {
                    note();
                    par_map((0..4).collect(), |_: u32| note())
                })
            })
        });
        let seen = threads.into_inner().unwrap().len();
        assert!((1..=3).contains(&seen), "{seen} threads ran jobs");
    }

    #[test]
    fn a_nested_batch_is_worked_by_two_threads() {
        // Both jobs of the nested batch wait for each other, so the
        // batch completes only if a second thread joins it.
        let rendezvous = Barrier::new(2);
        let out = with_jobs(2, || {
            par_map(vec![true, false], |nest| {
                if nest {
                    let ids = par_map(vec![0, 1], |_: u32| {
                        rendezvous.wait();
                        std::thread::current().id()
                    });
                    ids[0] != ids[1]
                } else {
                    false
                }
            })
        });
        assert_eq!(out, vec![true, false]);
    }

    #[test]
    fn nested_panic_reaches_the_top_level_caller() {
        let result = with_jobs(2, || {
            std::panic::catch_unwind(|| {
                par_map(vec![0u32, 1, 2, 3], |i| {
                    par_map(vec![i, i + 10], |j| {
                        assert!(j != 12, "boom");
                        j
                    })
                })
            })
        });
        let panic = result.expect_err("the nested panic must propagate");
        let message = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied());
        assert_eq!(message, Some("boom"));
        let out = with_jobs(2, || par_map(vec![1u32, 2, 3], |i| i * 2));
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn borrowed_items_and_captures() {
        // The shape of a replay: items borrowed from a list the caller
        // owns, and a closure borrowing the caller's state.
        let requests: Vec<(String, Option<usize>)> = (0..9)
            .map(|i| (format!("cfg{i}"), (i % 2 == 0).then_some(i)))
            .collect();
        let suffix = String::from("!");
        let out = with_jobs(2, || {
            par_map(requests.iter().collect(), |(name, bins)| {
                format!("{name}:{}{suffix}", bins.unwrap_or(0))
            })
        });
        let want: Vec<String> = requests
            .iter()
            .map(|(name, bins)| format!("{name}:{}{suffix}", bins.unwrap_or(0)))
            .collect();
        assert_eq!(out, want);
    }

    #[test]
    fn jobs_resolution_precedence() {
        let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_jobs(3);
        assert_eq!(jobs(), 3);
        set_jobs(0);
        // Unset: env or core count, both >= 1.
        assert!(jobs() >= 1);
    }

    #[test]
    fn panic_in_job_propagates_and_pool_shuts_down() {
        let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_jobs(2);
        let result = std::panic::catch_unwind(|| {
            par_map(vec![0u32, 1, 2, 3], |i| {
                assert!(i != 2, "boom");
                i
            })
        });
        set_jobs(0);
        assert!(result.is_err());
    }
}
