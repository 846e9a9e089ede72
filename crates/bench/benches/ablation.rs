//! Ablation benches: the scheduler zoo under unbalanced caps, and the
//! dynamic-capping controller versus the static oracle.

// Bench setup code may unwrap, same as tests (the workspace denies
// unwrap_used in library code only).
#![allow(clippy::unwrap_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use ugpc_control::run_dynamic;
use ugpc_core::{run_study, RunConfig};
use ugpc_experiments::ablation;
use ugpc_hwsim::{GpuDevice, GpuModel, KernelWork, OpKind, PlatformId, Precision};

fn bench(c: &mut Criterion) {
    let a = ablation::run_scheduler_ablation(OpKind::Gemm, 1);
    println!("\n=== Scheduler ablation (regenerated) ===");
    println!("{}", ablation::render_schedulers(&a));
    let d = ablation::run_dynamic_ablation();
    println!("{}", ablation::render_dynamic(&d));
    let stale = ugpc_experiments::ext_models::run_stale_ablation(2);
    println!(
        "{}",
        ugpc_experiments::ext_models::render("Stale-model ablation", &stale)
    );
    let noise = ugpc_experiments::ext_models::run_noise_ablation(2);
    println!(
        "{}",
        ugpc_experiments::ext_models::render("Calibration-noise ablation", &noise)
    );

    let mut group = c.benchmark_group("ablation_schedulers");
    group.sample_size(10);
    for policy in ablation::policies() {
        group.bench_with_input(
            BenchmarkId::from_parameter(policy.name()),
            &policy,
            |b, &policy| {
                let cfg = RunConfig::paper(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double)
                    .scaled_down(4)
                    .with_gpu_config("HHBB".parse().unwrap())
                    .with_scheduler(policy);
                b.iter(|| black_box(run_study(&cfg).gflops))
            },
        );
    }
    group.finish();

    c.bench_function("ablation_dynamic/40_epochs", |b| {
        let work = KernelWork::gemm_tile(5760, Precision::Double);
        b.iter(|| {
            let mut gpu = GpuDevice::new(0, GpuModel::A100Sxm4_40);
            black_box(run_dynamic(&mut gpu, &work, 40, 3).final_cap)
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
