//! Micro-benches of the substrate itself: reference tile kernels, the
//! virtual-time simulator, and DAG construction — the costs a downstream
//! user of the library pays.

// Bench setup code may unwrap, same as tests (the workspace denies
// unwrap_used in library code only).
#![allow(clippy::unwrap_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use ugpc_hwsim::{Node, PlatformId, Precision};
use ugpc_linalg::{build_gemm, build_potrf, Tile, Trans};
use ugpc_runtime::{simulate, DataRegistry, SimOptions};

fn tile_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("tile_kernels");
    for &n in &[32usize, 64, 128] {
        let a = Tile::<f64>::from_fn(n, |i, j| ((i * 31 + j * 7) % 13) as f64 - 6.0);
        let b = Tile::<f64>::from_fn(n, |i, j| ((i * 17 + j * 3) % 11) as f64 - 5.0);
        group.throughput(Throughput::Elements((2 * n * n * n) as u64));
        group.bench_with_input(BenchmarkId::new("dgemm", n), &n, |bch, _| {
            bch.iter(|| {
                let mut cc = Tile::<f64>::zeros(n);
                ugpc_linalg::gemm(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut cc);
                black_box(cc)
            })
        });
        group.bench_with_input(BenchmarkId::new("dpotrf", n), &n, |bch, _| {
            let spd = {
                let mut t = Tile::<f64>::scaled_identity(n, n as f64);
                ugpc_linalg::gemm(Trans::No, Trans::Yes, 1.0, &a, &a, 1.0, &mut t);
                t
            };
            bch.iter(|| {
                let mut w = spd.clone();
                ugpc_linalg::potrf_lower(&mut w).unwrap();
                black_box(w)
            })
        });
    }
    group.finish();
}

fn simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    // Events per second of the virtual-time executor: the cost of
    // simulating the paper's POTRF (nt=20 -> 1540 tasks).
    group.throughput(Throughput::Elements(1540));
    group.bench_function("potrf_nt20_dmdas", |b| {
        b.iter(|| {
            let mut node = Node::new(PlatformId::Amd4A100);
            let mut reg = DataRegistry::new();
            let op = build_potrf(20, 2880, Precision::Double, &mut reg);
            let trace = simulate(&mut node, &op.graph, &mut reg, SimOptions::default());
            black_box(trace.makespan)
        })
    });
    group.finish();
}

fn graph_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_construction");
    // Full paper-size POTRF DAG: 60 tiles -> 37 820 tasks with inferred deps.
    group.throughput(Throughput::Elements(37_820));
    group.bench_function("potrf_nt60", |b| {
        b.iter(|| {
            let mut reg = DataRegistry::new();
            black_box(
                build_potrf(60, 2880, Precision::Double, &mut reg)
                    .graph
                    .len(),
            )
        })
    });
    group.throughput(Throughput::Elements(13usize.pow(3) as u64));
    group.bench_function("gemm_nt13", |b| {
        b.iter(|| {
            let mut reg = DataRegistry::new();
            black_box(
                build_gemm(13, 5760, Precision::Double, &mut reg)
                    .graph
                    .len(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, tile_kernels, simulator, graph_construction);
criterion_main!(benches);
