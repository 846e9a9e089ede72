//! Work-stealing parallel sweep driver.
//!
//! Every experiment in this crate is a fan-out of *independent* pure
//! simulations — ladder configurations, cap-sweep points, tile sizes,
//! placements. [`par_map`] distributes such a batch over a pool of
//! worker threads (a crossbeam injector feeding per-thread deques, with
//! stealing) while collecting results in **submission order**:
//! each job writes into its own index slot, so the output `Vec` is
//! positionally identical to the serial `items.into_iter().map(f)` —
//! and, the jobs being pure, byte-identical once serialized. The
//! determinism-differential suite (`tests/parallel_differential.rs`)
//! enforces exactly that.
//!
//! Parallelism is a process-wide setting resolved by [`jobs`]:
//! an explicit [`set_jobs`] (the `repro --jobs N` flag) wins, then the
//! `UGPC_JOBS` environment variable, then the machine's available
//! cores. `jobs() == 1` bypasses the pool entirely — the serial path is
//! not merely a one-thread pool, it is the plain iterator chain.
//!
//! Nested calls run inline: when a job executing on a pool thread
//! itself calls `par_map` (e.g. `fig34::run` fans ladders whose
//! `run_ladder` fans rows), the inner call degrades to the serial path
//! instead of spawning a second pool, bounding the thread count at the
//! top-level `jobs()`.
//!
//! Each pool thread runs its jobs in the caller's report-memo session
//! (see [`crate::memo`]), so a study a job repeats is served from the
//! same memo the serial path would use.

use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Explicit override; 0 = unset (fall back to env, then cores).
static JOBS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on pool worker threads so nested `par_map` calls run inline.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
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

/// Take a job: local queue first, then batch-steal from the injector,
/// then steal from a sibling. The crossbeam retry loop runs until every
/// source answers something other than `Retry`.
///
/// `None` means every queue was observed empty — and because the whole
/// batch is injected before the workers start and jobs never submit new
/// jobs, any job not yet executed at that point sits in some *other*
/// worker's local queue, whose owner drains it before exiting. A worker
/// seeing `None` can therefore terminate instead of spinning; this
/// matters when threads outnumber cores (idle spinners would otherwise
/// time-slice against the workers still computing the tail).
fn find_job<T>(
    local: &Worker<(usize, T)>,
    injector: &Injector<(usize, T)>,
    stealers: &[Stealer<(usize, T)>],
) -> Option<(usize, T)> {
    local.pop().or_else(|| {
        std::iter::repeat_with(|| {
            injector
                .steal_batch_and_pop(local)
                .or_else(|| stealers.iter().map(Stealer::steal).collect())
        })
        .find(|s| !s.is_retry())
        .and_then(Steal::success)
    })
}

fn lock_slot<R>(slot: &Mutex<Option<R>>) -> std::sync::MutexGuard<'_, Option<R>> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Map `f` over `items` on the work-stealing pool, preserving
/// submission order in the result. Falls back to the plain serial
/// iterator when `jobs() <= 1`, when there is at most one item, or when
/// called from inside a pool job (see module docs).
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n_workers = jobs().min(items.len());
    if n_workers <= 1 || IN_POOL.with(Cell::get) {
        return items.into_iter().map(f).collect();
    }

    let injector: Injector<(usize, T)> = Injector::new();
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    for job in items.into_iter().enumerate() {
        injector.push(job);
    }
    let locals: Vec<Worker<(usize, T)>> = (0..n_workers).map(|_| Worker::new_fifo()).collect();
    let stealers: Vec<Stealer<(usize, T)>> = locals.iter().map(Worker::stealer).collect();
    let memo = crate::memo::active();

    // If a job panics, `scope` joins the remaining workers (which drain
    // the rest of the batch) and re-raises the panic here, so the slot
    // collection below is never reached with missing results.
    std::thread::scope(|scope| {
        for local in locals {
            let (injector, stealers, slots, f) = (&injector, &stealers[..], &slots[..], &f);
            let memo = memo.clone();
            scope.spawn(move || {
                IN_POOL.with(|c| c.set(true));
                let _session = crate::memo::install(memo);
                while let Some((i, item)) = find_job(&local, injector, stealers) {
                    // `i` is the enumerate index of a job pushed above;
                    // `slots` was built with one entry per job.
                    *lock_slot(&slots[i]) = Some(f(item)); // lint:allow panic-path
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every submitted job produced a result")
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

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
    fn nested_calls_run_inline() {
        let saw_inline = AtomicBool::new(false);
        let out = with_jobs(2, || {
            par_map(vec![0u64, 1, 2, 3], |i| {
                // The inner call must take the serial path (IN_POOL set).
                let inner = par_map(vec![i, i + 10], |j| {
                    if IN_POOL.with(Cell::get) {
                        saw_inline.store(true, Ordering::Relaxed);
                    }
                    j * 2
                });
                inner.iter().sum::<u64>()
            })
        });
        assert_eq!(out, vec![20, 24, 28, 32]);
        assert!(saw_inline.load(Ordering::Relaxed));
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
