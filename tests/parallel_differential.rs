//! Determinism-differential suite: the headline guarantee of the
//! parallel sweep driver is that `--jobs N` produces output
//! **byte-identical** to the serial `--jobs 1` path. Each test runs one
//! experiment at reduced scale under jobs = 1, 2 and 4 and compares the
//! serialized JSON strings — not parsed values, the exact bytes.
//!
//! The jobs setting is process-global, so every test serializes on one
//! mutex and restores the default afterwards.
//!
//! The per-experiment tests run outside any report-memo session, so each
//! run at each worker count simulates afresh. The session test runs the
//! experiments that share studies inside one session, where a later
//! experiment reads reports an earlier one stored.

#![allow(clippy::unwrap_used)]

use std::sync::Mutex;
use ugpc_experiments::{
    ablation, control, driver, fig1, fig34, fig5, fig6, fig7, memo, placements,
};
use ugpc_hwsim::{GpuModel, OpKind, Precision};

static JOBS_LOCK: Mutex<()> = Mutex::new(());

fn with_jobs<R>(n: usize, f: impl FnOnce() -> R) -> R {
    driver::set_jobs(n);
    let r = f();
    driver::set_jobs(0);
    r
}

/// Run `experiment` serially and at 2 and 4 workers; every serialized
/// output must equal the serial bytes.
fn assert_parallel_matches_serial(name: &str, experiment: impl Fn() -> String) {
    let _guard = JOBS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let serial = with_jobs(1, &experiment);
    for n in [2, 4] {
        let parallel = with_jobs(n, &experiment);
        assert_eq!(
            serial, parallel,
            "{name}: --jobs {n} JSON diverged from --jobs 1"
        );
    }
}

#[test]
fn fig3_parallel_is_byte_identical() {
    assert_parallel_matches_serial("fig3", || {
        serde_json::to_string(&fig34::run(Precision::Double, 8)).unwrap()
    });
}

#[test]
fn fig4_parallel_is_byte_identical() {
    assert_parallel_matches_serial("fig4", || {
        serde_json::to_string(&fig34::run(Precision::Single, 8)).unwrap()
    });
}

#[test]
fn fig1_parallel_is_byte_identical() {
    assert_parallel_matches_serial("fig1", || {
        serde_json::to_string(&fig1::run(GpuModel::A100Sxm4_40, 0.05)).unwrap()
    });
}

#[test]
fn fig7_parallel_is_byte_identical() {
    assert_parallel_matches_serial("fig7", || serde_json::to_string(&fig7::run(8)).unwrap());
}

#[test]
fn placements_parallel_is_byte_identical() {
    assert_parallel_matches_serial("placements", || {
        serde_json::to_string(&placements::run("HHBB", 6)).unwrap()
    });
}

/// An experiment's name and its serialized output.
type Experiment = (&'static str, fn() -> String);

/// Every experiment that shares static studies, at one reduced scale so
/// their studies overlap as they do under `repro all`.
fn sharing_experiments() -> Vec<Experiment> {
    const SCALE: usize = 8;
    vec![
        ("fig3", || {
            serde_json::to_string(&fig34::run(Precision::Double, SCALE)).unwrap()
        }),
        ("fig4", || {
            serde_json::to_string(&fig34::run(Precision::Single, SCALE)).unwrap()
        }),
        ("fig5", || serde_json::to_string(&fig5::run(SCALE)).unwrap()),
        ("fig6", || serde_json::to_string(&fig6::run(SCALE)).unwrap()),
        ("fig7", || serde_json::to_string(&fig7::run(SCALE)).unwrap()),
        ("ablation", || {
            let gemm = ablation::run_scheduler_ablation(OpKind::Gemm, SCALE);
            let potrf = ablation::run_scheduler_ablation(OpKind::Potrf, SCALE);
            serde_json::to_string(&(gemm, potrf)).unwrap()
        }),
        ("placements", || {
            let hhhb = placements::run("HHHB", SCALE);
            let hhbb = placements::run("HHBB", SCALE);
            serde_json::to_string(&(hhhb, hhbb)).unwrap()
        }),
        ("control", || {
            serde_json::to_string(&control::run(SCALE)).unwrap()
        }),
    ]
}

#[test]
fn session_served_reports_are_byte_identical() {
    let _guard = JOBS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let experiments = sharing_experiments();
    let run_all = || -> Vec<String> { experiments.iter().map(|(_, run)| run()).collect() };
    let fresh = with_jobs(1, run_all);
    for n in [1, 2] {
        let served = with_jobs(n, || memo::session(run_all));
        for ((name, _), (fresh, served)) in experiments.iter().zip(fresh.iter().zip(&served)) {
            assert_eq!(
                fresh, served,
                "{name}: JSON inside a session at --jobs {n} diverged from a run outside it"
            );
        }
    }
}
