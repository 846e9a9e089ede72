//! One digest over the served key space: every platform × operation ×
//! precision × GPU cap configuration × 3–8 tiles per dimension ×
//! {dmdas, dmda} — 4 752 configurations, the same space and order the
//! benchmark's serve workloads draw from — sampled at a fixed stride.
//!
//! Each sampled configuration is run and encoded exactly as the service
//! answers it (`encode(Response::Run(try_run_study(cfg)))`); the FNV-1a
//! digest of all reply lines pins every scheduling decision, transfer and
//! joule of the sample to the bytes the pre-optimization simulator wrote.

use ugpc::capping::CapConfig;
use ugpc::hwsim::{OpKind, PlatformId, PlatformSpec, Precision, Watts};
use ugpc::prelude::SchedPolicy;
use ugpc::serve::protocol::{encode, Response};
use ugpc::{run_dynamic_study, try_run_study, RunConfig};
use ugpc_core::key::fnv1a;

/// Every `STRIDE`-th configuration is run: 432 runs, a few seconds in a
/// debug build. The stride is coprime with the 12 innermost (tile count,
/// scheduler) pairs and with the 3 cap letters, so the sample visits
/// every tile count, both schedulers and every cap level.
const STRIDE: usize = 11;

/// Digest of the sample's reply lines, captured before the hash-free hot
/// path (dense perf-model rows, per-memory-node scheduler costs, dense
/// resident sets, kernel-run memo).
const GOLDEN: u64 = 0xcdb1_26f1_9e27_4841;

fn paper_space() -> Vec<RunConfig> {
    let mut out = Vec::new();
    for platform in PlatformId::ALL {
        let gpus = PlatformSpec::of(platform).gpu_count;
        for op in OpKind::ALL {
            for precision in Precision::ALL {
                for caps in CapConfig::all(gpus) {
                    for nt in 3..=8 {
                        for scheduler in [SchedPolicy::Dmdas, SchedPolicy::Dmda] {
                            let mut cfg = RunConfig::paper(platform, op, precision)
                                .with_gpu_config(caps.clone())
                                .with_scheduler(scheduler);
                            cfg.n = nt * cfg.nb;
                            out.push(cfg);
                        }
                    }
                }
            }
        }
    }
    out
}

#[test]
fn strided_paper_space_replies_match_the_golden_digest() {
    let space = paper_space();
    assert_eq!(space.len(), 4752);
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut runs = 0;
    for cfg in space.iter().step_by(STRIDE) {
        let report = try_run_study(cfg).unwrap_or_else(|e| panic!("{e}"));
        let line = encode(&Response::Run(report));
        digest = fnv1a(digest, line.as_bytes());
        digest = fnv1a(digest, b"\n");
        runs += 1;
    }
    assert_eq!(runs, 4752usize.div_ceil(STRIDE));
    assert_eq!(
        digest, GOLDEN,
        "reply digest {digest:#018x} over {runs} runs drifted from the golden"
    );
}

/// Digest of the served `Dynamic` replies below, captured while the
/// node-level study still drove the simulator itself.
const DYNAMIC_GOLDEN: u64 = 0x221d_37bb_84ac_50ef;

/// Iterations of every dynamic study in the digest.
const DYNAMIC_K: usize = 6;

/// Every platform × {GEMM, POTRF} from two starts — uniform `H` and
/// alternating `L`/`B` — at four tiles per dimension, plus one Intel
/// study under a RAPL package cap.
fn dynamic_space() -> Vec<RunConfig> {
    let mut out = Vec::new();
    for platform in PlatformId::ALL {
        let gpus = PlatformSpec::of(platform).gpu_count;
        for op in OpKind::ALL {
            for start in ["H".repeat(gpus), "LB".repeat(gpus / 2)] {
                let mut cfg = RunConfig::paper(platform, op, Precision::Double)
                    .with_gpu_config(start.parse().expect("cap letters"));
                cfg.n = 4 * cfg.nb;
                out.push(cfg);
            }
        }
    }
    let mut capped = RunConfig::paper(PlatformId::Intel2V100, OpKind::Gemm, Precision::Double)
        .with_cpu_cap(1, Watts(60.0));
    capped.n = 4 * capped.nb;
    out.push(capped);
    out
}

#[test]
fn dynamic_study_replies_match_the_golden_digest() {
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for cfg in dynamic_space() {
        let report = run_dynamic_study(&cfg, DYNAMIC_K).unwrap_or_else(|e| panic!("{e}"));
        let line = encode(&Response::Dynamic(report));
        digest = fnv1a(digest, line.as_bytes());
        digest = fnv1a(digest, b"\n");
    }
    assert_eq!(
        digest, DYNAMIC_GOLDEN,
        "dynamic reply digest {digest:#018x} drifted from the golden"
    );
}
