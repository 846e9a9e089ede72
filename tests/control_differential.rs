//! Controller-neutrality differential suite.
//!
//! The control plane rides the simulation as an event source: it may
//! *only* change a run through the re-cap commands it emits. So a
//! controller that emits none — disabled outright, or quiescent because
//! its quorum never fills — must leave the run **byte-identical** to
//! plain [`ugpc::run_study`], and that neutrality has to hold across
//! the determinism axes the repo already pins: both DES queue backends
//! (`UGPC_QUEUE` heap | calendar) crossed with `--jobs` 1 and 4.
//!
//! Same discipline as `parallel_differential.rs`: the jobs setting and
//! the backend override are process-global, so everything serializes on
//! one mutex and restores defaults afterwards.

#![allow(clippy::unwrap_used)]

use std::sync::Mutex;
use ugpc::control::{ControllerSpec, ObjectiveKind};
use ugpc::experiments::driver;
use ugpc::{run_study, try_run_study_with, ControlledRun, QueueBackend, RunConfig, StudyOptions};
use ugpc_hwsim::{OpKind, PlatformId, Precision};

static JOBS_LOCK: Mutex<()> = Mutex::new(());

fn with_jobs<R>(n: usize, f: impl FnOnce() -> R) -> R {
    driver::set_jobs(n);
    let r = f();
    driver::set_jobs(0);
    r
}

fn with_backend<R>(b: QueueBackend, f: impl FnOnce() -> R) -> R {
    ugpc::runtime::set_backend_override(Some(b));
    let r = f();
    ugpc::runtime::set_backend_override(None);
    r
}

fn run_study_controlled(config: &RunConfig, spec: &ControllerSpec) -> ControlledRun {
    let options = StudyOptions {
        controller: Some(spec.clone()),
        ..Default::default()
    };
    try_run_study_with(config, options)
        .unwrap()
        .controlled()
        .unwrap()
}

fn cfg(op: OpKind) -> RunConfig {
    RunConfig::paper(PlatformId::Amd4A100, op, Precision::Double).scaled_down(8)
}

/// For every {backend} x {jobs} cell, `experiment` must reproduce the
/// plain `run_study` bytes of the same cell.
fn assert_neutral_across_axes(name: &str, op: OpKind, controlled: impl Fn(&RunConfig) -> String) {
    let _guard = JOBS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let config = cfg(op);
    let reference = with_backend(QueueBackend::Heap, || {
        with_jobs(1, || serde_json::to_string(&run_study(&config)).unwrap())
    });
    for backend in [QueueBackend::Heap, QueueBackend::Calendar] {
        for jobs in [1, 4] {
            let uncontrolled = with_backend(backend, || {
                with_jobs(jobs, || serde_json::to_string(&run_study(&config)).unwrap())
            });
            assert_eq!(
                reference, uncontrolled,
                "{op:?}: plain run_study not deterministic under queue={backend} --jobs {jobs}"
            );
            let bytes = with_backend(backend, || with_jobs(jobs, || controlled(&config)));
            assert_eq!(
                reference, bytes,
                "{name} ({op:?}): controlled run diverged from run_study under \
                 queue={backend} --jobs {jobs}"
            );
        }
    }
}

#[test]
fn disabled_controller_is_byte_identical_to_run_study() {
    for op in [OpKind::Gemm, OpKind::Potrf] {
        assert_neutral_across_axes("disabled", op, |config| {
            let spec = ControllerSpec::new(ObjectiveKind::GflopsPerWatt)
                .with_period(0.05)
                .disabled();
            let run = run_study_controlled(config, &spec);
            assert_eq!(run.ticks.len(), 0, "disabled controller must never tick");
            assert_eq!(run.recaps, 0);
            serde_json::to_string(&run.report).unwrap()
        });
    }
}

#[test]
fn quorum_starved_controller_is_byte_identical_to_run_study() {
    // The quiescent case: the controller ticks, senses, scores — but its
    // vote quorum never fills, so it never issues a re-cap. Sensing must
    // be a pure observation: same bytes as the uncontrolled run.
    for op in [OpKind::Gemm, OpKind::Potrf] {
        assert_neutral_across_axes("quorum-starved", op, |config| {
            let spec = ControllerSpec::new(ObjectiveKind::GflopsPerWatt)
                .with_period(0.05)
                .with_votes(u32::MAX);
            let run = run_study_controlled(config, &spec);
            assert!(!run.ticks.is_empty(), "quiescent != dead: ticks still fire");
            assert_eq!(run.recaps, 0, "a starved quorum must never re-cap");
            serde_json::to_string(&run.report).unwrap()
        });
    }
}

#[test]
fn quiescent_controller_rests_at_the_starting_caps() {
    let _guard = JOBS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let config = cfg(OpKind::Gemm);
    let spec = ControllerSpec::new(ObjectiveKind::Edp)
        .with_period(0.05)
        .with_votes(u32::MAX);
    let run = run_study_controlled(&config, &spec);
    let tdp = ugpc_hwsim::GpuSpec::of(ugpc_hwsim::GpuModel::A100Sxm4_40).tdp;
    assert_eq!(run.final_caps_w, vec![tdp.value(); 4]);
    assert!(!run.converged, "no observations means no converged verdict");
}

/// The *active* controller is pinned too: a full controlled run — ticks,
/// re-caps, split energy accounting and all — produces one set of bytes
/// across both queue backends and both jobs settings.
#[test]
fn active_controlled_run_is_byte_identical_across_backends_and_jobs() {
    let _guard = JOBS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let config = cfg(OpKind::Gemm);
    let spec = ControllerSpec::new(ObjectiveKind::GflopsPerWatt)
        .with_period(0.02)
        .with_votes(2);
    let experiment = || serde_json::to_string(&run_study_controlled(&config, &spec)).unwrap();
    let reference = with_backend(QueueBackend::Heap, || with_jobs(1, experiment));
    {
        let run = run_study_controlled(&config, &spec);
        assert!(run.recaps > 0, "this config must actually re-cap mid-run");
    }
    for backend in [QueueBackend::Heap, QueueBackend::Calendar] {
        for jobs in [1, 4] {
            let bytes = with_backend(backend, || with_jobs(jobs, experiment));
            assert_eq!(
                reference, bytes,
                "active controller diverged under queue={backend} --jobs {jobs}"
            );
        }
    }
}
