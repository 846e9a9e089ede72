//! Profile one run with the critical-path energy-attribution profiler:
//! where do the makespan and the busy joules go when every GPU is capped
//! to its best-efficiency power?
//!
//! A Cholesky factorization under the fully capped `BBBB` configuration
//! is profiled against its own task graph's critical path: the profiler
//! rides the executor event stream (so the report is bitwise identical
//! to an unprofiled run) and splits busy time/energy into on-path vs
//! off-path work per device, then lists the five hottest tasks.
//!
//! ```text
//! cargo run --release --example profile_run
//! ```

use ugpc::prelude::*;
use ugpc::telemetry::CriticalPathProfiler;
use ugpc::{try_run_study_with, StudyOptions};

fn main() {
    let cfg = RunConfig::paper(PlatformId::Amd4A100, OpKind::Potrf, Precision::Double)
        .scaled_down(2)
        .with_gpu_config("BBBB".parse().expect("BBBB fits the 4-GPU node"));

    let mut profiler = CriticalPathProfiler::new().with_top_k(5);
    let options = StudyOptions {
        observers: vec![&mut profiler],
        ..Default::default()
    };
    let report = &try_run_study_with(&cfg, options)
        .expect("BBBB fits the 4-GPU node")
        .report;
    let profile = &profiler.into_report();

    println!(
        "POTRF n={} nb={} under {} on {}: {:.2} s, {:.0} J, {:.1} Gflop/s/W\n",
        report.n,
        report.nb,
        report.gpu_config,
        report.platform,
        report.makespan_s,
        report.total_energy_j,
        report.efficiency_gflops_w,
    );

    // The attribution table: on-path vs off-path busy time and energy
    // per (device, kernel, precision), worker utilization, hot tasks.
    println!("{}", profile.render());

    println!(
        "critical path covers {:.1}% of the makespan; slack {:.3} s; gpu imbalance {:.3} s",
        100.0 * profile.path_coverage(),
        profile.path_slack_s,
        profile.gpu_imbalance_s(),
    );

    // The exactness contract: the profiler is a read-only witness.
    assert_eq!(
        profile.makespan_s.to_bits(),
        report.makespan_s.to_bits(),
        "attributed makespan is the report's makespan, bitwise"
    );
    profile
        .check_consistency(1e-9)
        .expect("attribution identities hold");
}
