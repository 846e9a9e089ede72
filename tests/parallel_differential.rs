//! Determinism-differential suite: the headline guarantee of the
//! work-stealing sweep driver is that `--jobs N` produces output
//! **byte-identical** to the serial `--jobs 1` path. Each test runs one
//! experiment at reduced scale under jobs = 1, 2 and 4 and compares the
//! serialized JSON strings — not parsed values, the exact bytes.
//!
//! The jobs setting is process-global, so every test serializes on one
//! mutex and restores the default afterwards.

#![allow(clippy::unwrap_used)]

use std::sync::Mutex;
use ugpc_experiments::{driver, fig1, fig34, fig7, placements};
use ugpc_hwsim::{GpuModel, Precision};

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
