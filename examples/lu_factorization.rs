//! Extension beyond the paper's two operations: tiled LU (no pivoting) —
//! numerically verified with the real tile kernels, then run under the cap
//! ladder on the 4-GPU platform to show the unbalanced-capping trade-off
//! generalizes to a third DAG shape.
//!
//! ```text
//! cargo run --release --example lu_factorization
//! ```

// Demo code may unwrap, same as tests (the workspace denies
// unwrap_used in library code only).
#![allow(clippy::unwrap_used)]

use ugpc::linalg::{build_getrf, dd_tiled, gemm, run_getrf_native, Tile, Trans};
use ugpc::prelude::*;
use ugpc::runtime::{simulate, DataRegistry, SimOptions};

fn main() {
    // Numeric verification with the real kernels, in submission order.
    let (nt, nb) = (5, 16);
    let n = nt * nb;
    let a = dd_tiled::<f64>(nt, nb, 7);
    let a0 = a.to_dense();
    let mut reg = DataRegistry::new();
    let op = build_getrf(nt, nb, Precision::Double, &mut reg);
    run_getrf_native(&op, &a, &op.graph.submission_order()).expect("diagonally dominant input");
    let f = a.to_dense();
    let l = Tile::from_fn(n, |i, j| {
        if i > j {
            f[(i, j)]
        } else if i == j {
            1.0
        } else {
            0.0
        }
    });
    let u = Tile::from_fn(n, |i, j| if i <= j { f[(i, j)] } else { 0.0 });
    let mut back = Tile::zeros(n);
    gemm(Trans::No, Trans::No, 1.0, &l, &u, 0.0, &mut back);
    println!(
        "native LU  n = {n}: {} tasks, max |L·U − A| = {:.2e}",
        op.graph.len(),
        back.max_abs_diff(&a0)
    );

    // Cap ladder on the simulated 4×A100 node at a realistic size.
    println!("\nLU under the cap ladder — 32-AMD-4-A100, double precision, Nt = 2880, 20 tiles");
    println!(
        "{:<8} {:>10} {:>12} {:>14}",
        "config", "Gflop/s", "energy (kJ)", "Gflop/s/W"
    );
    for config in ["LLLL", "HHLL", "HHHH", "HHBB", "BBBB"] {
        let mut node = Node::new(PlatformId::Amd4A100);
        let caps: CapConfig = config.parse().unwrap();
        // LU is not in Table II; use the GEMM dp power states (its trailing
        // update is GEMM-dominated).
        ugpc::capping::apply_gpu_caps(&mut node, &caps, OpKind::Gemm, Precision::Double).unwrap();
        let mut reg = DataRegistry::new();
        let op = build_getrf(20, 2880, Precision::Double, &mut reg);
        let trace = simulate(&mut node, &op.graph, &mut reg, SimOptions::default());
        println!(
            "{config:<8} {:>10.0} {:>12.2} {:>14.2}",
            trace.perf().as_gflops(),
            trace.total_energy().value() / 1e3,
            trace.efficiency().as_gflops_per_watt()
        );
    }
}
