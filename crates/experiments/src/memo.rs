//! One report per distinct static study inside a session.
//!
//! The paper presents one set of measured runs in several views: Fig. 5
//! is the energy breakdown of Fig. 3's 24-Intel-2-V100 ladders, and
//! Figs. 6 and 7 repeat ladder rows of Figs. 3/4. Inside a [`session`],
//! [`run_study`] and [`run_study_at_caps`] keep every report they
//! compute in a memo keyed by the exact bytes of what was run, so each
//! distinct static study simulates once per session. `repro` opens one
//! session around its whole experiment loop. Outside a session both
//! functions simulate on every call, exactly as `ugpc_core::run_study`.
//!
//! The key is [`RunConfig::canonical_bytes`], then a tag byte (0: the
//! configuration's own cap levels, 1: explicit caps), then the bit
//! patterns of the explicit caps — the full encoding, not the 64-bit
//! [`ugpc_core::CacheKey`] hashed from it, so two studies never collide.
//! Runs with observers or a controller never come through here.
//!
//! The memo is session-scoped, not process-global, so that a process
//! can still run one experiment twice and compare: the parallel
//! differentials run each experiment at `--jobs 1` and then at
//! `--jobs 2`/`4`, and under a global memo the later runs would only
//! read the first run's reports. [`crate::driver::par_map`] hands the
//! caller's session to its pool threads. The lock is never held while a
//! study runs: the map holds one cell per key, and the first caller
//! fills it while a second caller of the same key waits for that report
//! instead of simulating it again. A study calls no `par_map`, so the
//! thread filling a cell never waits on the pool, and a waiter cannot
//! deadlock it.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use ugpc_core::{try_run_study_with, RunConfig, RunReport, StudyOptions};

/// One study's report, filled once by whichever caller asked first.
type ReportCell = Arc<OnceLock<RunReport>>;

/// The reports of one session, by exact study key.
#[derive(Debug, Default)]
pub(crate) struct Memo {
    reports: Mutex<HashMap<Vec<u8>, ReportCell>>,
    /// Studies this session simulated.
    #[cfg(test)]
    simulated: std::sync::atomic::AtomicUsize,
}

impl Memo {
    /// Every update is one insert of a cell, so a map a panicking thread
    /// left behind is still valid.
    fn lock(&self) -> MutexGuard<'_, HashMap<Vec<u8>, ReportCell>> {
        self.reports.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

thread_local! {
    /// The session the calling thread runs in, if any.
    static ACTIVE: RefCell<Option<Arc<Memo>>> = const { RefCell::new(None) };
}

/// The calling thread's session memo.
pub(crate) fn active() -> Option<Arc<Memo>> {
    ACTIVE.with(|a| a.borrow().clone())
}

/// Makes `memo` the calling thread's session until the returned guard
/// drops, which restores the previous one (also while unwinding).
pub(crate) fn install(memo: Option<Arc<Memo>>) -> Installed {
    Installed(ACTIVE.with(|a| a.replace(memo)))
}

pub(crate) struct Installed(Option<Arc<Memo>>);

impl Drop for Installed {
    fn drop(&mut self) {
        let previous = self.0.take();
        ACTIVE.with(|a| *a.borrow_mut() = previous);
    }
}

/// Run `f` in a session: a fresh memo, or the enclosing session's when
/// one is already active on this thread.
pub fn session<R>(f: impl FnOnce() -> R) -> R {
    let _installed = install(Some(active().unwrap_or_default()));
    f()
}

/// One static run of `cfg` at its own cap levels. Panics on a
/// configuration [`RunConfig::validate`] rejects.
pub fn run_study(cfg: &RunConfig) -> RunReport {
    memoized(cfg, None)
}

/// One static run of `cfg` at explicit per-GPU watt caps (the offline
/// sweep's evaluator). Panics on a rejected configuration or caps.
pub fn run_study_at_caps(cfg: &RunConfig, caps_w: &[f64]) -> RunReport {
    memoized(cfg, Some(caps_w))
}

fn key(cfg: &RunConfig, caps_w: Option<&[f64]>) -> Vec<u8> {
    let mut key = Vec::with_capacity(64);
    cfg.canonical_bytes(&mut key);
    match caps_w {
        None => key.push(0),
        Some(caps) => {
            key.push(1);
            for cap in caps {
                key.extend_from_slice(&cap.to_bits().to_le_bytes());
            }
        }
    }
    key
}

fn memoized(cfg: &RunConfig, caps_w: Option<&[f64]>) -> RunReport {
    let simulate = || {
        let options = StudyOptions {
            caps_w: caps_w.map(<[f64]>::to_vec),
            ..Default::default()
        };
        try_run_study_with(cfg, options)
            .unwrap_or_else(|e| panic!("{e}"))
            .report
    };
    let Some(memo) = active() else {
        return simulate();
    };
    let cell = Arc::clone(memo.lock().entry(key(cfg, caps_w)).or_default());
    // A panicking study leaves the cell empty for the next caller.
    cell.get_or_init(|| {
        #[cfg(test)]
        memo.simulated
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        simulate()
    })
    .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{par_map, tests::with_jobs};
    use std::sync::atomic::Ordering;
    use ugpc_hwsim::{OpKind, PlatformId, Precision};

    fn cfg() -> RunConfig {
        RunConfig::paper(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double).scaled_down(8)
    }

    fn entries() -> usize {
        active().map_or(0, |m| m.lock().len())
    }

    #[test]
    fn repeated_study_simulates_once_per_session() {
        let fresh = run_study(&cfg());
        session(|| {
            assert_eq!(run_study(&cfg()), fresh);
            assert_eq!(entries(), 1);
            // Doctor the stored report: every later call must return it,
            // which no simulation would.
            let memo = active().unwrap();
            let doctored = RunReport {
                makespan_s: -1.0,
                ..fresh.clone()
            };
            *memo.lock().values_mut().next().unwrap() = Arc::new(OnceLock::from(doctored.clone()));
            for _ in 0..5 {
                assert_eq!(run_study(&cfg()), doctored);
            }
            assert_eq!(entries(), 1);
        });
    }

    #[test]
    fn racing_pool_jobs_simulate_a_key_once() {
        session(|| {
            let memo = active().unwrap();
            // The jobs meet at the barrier, so they run on two threads and
            // look the key up microseconds apart, while a study of 2 197
            // tasks takes milliseconds: the second finds it running.
            let large = RunConfig::paper(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double);
            let rendezvous = std::sync::Barrier::new(2);
            let reports = with_jobs(2, || {
                par_map(vec![0u32, 1], |_| {
                    rendezvous.wait();
                    run_study(&large)
                })
            });
            assert_eq!(reports[0], reports[1]);
            assert_eq!(memo.simulated.load(Ordering::Relaxed), 1);
            assert_eq!(entries(), 1);
        });
    }

    #[test]
    fn explicit_caps_key_apart_from_levels_and_each_other() {
        session(|| {
            let levels = run_study(&cfg());
            let at_tdp = run_study_at_caps(&cfg(), &[400.0; 4]);
            let capped = run_study_at_caps(&cfg(), &[216.0; 4]);
            assert_eq!(entries(), 3);
            assert_eq!(levels, at_tdp);
            assert_ne!(at_tdp, capped);
            assert_eq!(run_study_at_caps(&cfg(), &[216.0; 4]), capped);
            assert_eq!(entries(), 3);
        });
    }

    #[test]
    fn nothing_is_stored_outside_a_session() {
        assert!(active().is_none());
        let _ = run_study(&cfg());
        let _ = run_study_at_caps(&cfg(), &[216.0; 4]);
        assert!(active().is_none());
        session(|| assert_eq!(entries(), 0));
        assert!(active().is_none());
    }

    #[test]
    fn pool_jobs_see_their_callers_session() {
        session(|| {
            let caller = active().unwrap();
            let here = std::thread::current().id();
            // Jobs 1 and 2 wait for each other, so they run on two
            // threads and at least one of them off the caller's.
            let rendezvous = std::sync::Barrier::new(2);
            let seen = with_jobs(2, || {
                par_map(vec![0u32, 1, 2, 3], |i| {
                    if i == 1 || i == 2 {
                        rendezvous.wait();
                    }
                    let theirs = active().is_some_and(|m| Arc::ptr_eq(&m, &caller));
                    (theirs, std::thread::current().id() != here)
                })
            });
            assert!(seen.iter().all(|&(theirs, _)| theirs), "{seen:?}");
            assert!(seen.iter().any(|&(_, pooled)| pooled), "{seen:?}");
        });
    }

    #[test]
    fn nested_sessions_share_one_memo_and_restore_on_panic() {
        session(|| {
            let outer = active().unwrap();
            session(|| assert!(Arc::ptr_eq(&active().unwrap(), &outer)));
            assert!(Arc::ptr_eq(&active().unwrap(), &outer));
        });
        assert!(active().is_none());
        let unwound = std::panic::catch_unwind(|| session(|| panic!("boom")));
        assert!(unwound.is_err());
        assert!(active().is_none());
    }
}
