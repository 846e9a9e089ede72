//! Cross-crate numerical validation: the tiled operations, run with the
//! real tile kernels in submission order, produce LAPACK-grade results.
//! `tests/executor_differential.rs` extends each result to every order the
//! graph admits.

// Test helpers may unwrap (clippy's allow-unwrap-in-tests does not
// reach helper fns in integration-test files).
#![allow(clippy::unwrap_used)]

use ugpc::linalg::{
    build_gemm, build_potrf, gemm_residual, potrf_residual, random_tiled, run_gemm_native,
    run_potrf_native, spd_tiled, Scalar, TiledMatrix,
};
use ugpc::prelude::*;
use ugpc::runtime::DataRegistry;

mod common;

fn gemm_case<T: Scalar>(nt: usize, nb: usize, seed: u64) {
    let mut reg = DataRegistry::new();
    let op = build_gemm(nt, nb, T::precision(), &mut reg);
    let a = random_tiled::<T>(nt, nb, seed);
    let b = random_tiled::<T>(nt, nb, seed + 1);
    let c = random_tiled::<T>(nt, nb, seed + 2);
    let c0 = c.to_dense();
    run_gemm_native(&op, &a, &b, &c, &op.graph.submission_order());
    let res = gemm_residual(&a, &b, &c0, &c);
    assert!(
        res < 50.0 * T::epsilon(),
        "gemm residual {res:.3e} (nt={nt}, nb={nb})"
    );
}

fn potrf_case<T: Scalar>(nt: usize, nb: usize, seed: u64) {
    let a = spd_tiled::<T>(nt, nb, seed);
    let a0 = a.to_dense();
    let mut reg = DataRegistry::new();
    let op = build_potrf(nt, nb, T::precision(), &mut reg);
    run_potrf_native(&op, &a, &op.graph.submission_order()).expect("SPD factorizes");
    let res = potrf_residual(&a0, &a);
    assert!(
        res < 100.0 * T::epsilon() * (nt * nb) as f64,
        "potrf residual {res:.3e} (nt={nt}, nb={nb})"
    );
}

#[test]
fn gemm_native_double_various_shapes() {
    gemm_case::<f64>(2, 4, 1);
    gemm_case::<f64>(3, 8, 2);
    gemm_case::<f64>(4, 8, 3);
    gemm_case::<f64>(5, 16, 4);
}

#[test]
fn gemm_native_single_various_shapes() {
    gemm_case::<f32>(2, 8, 5);
    gemm_case::<f32>(4, 16, 6);
}

#[test]
fn potrf_native_double_various_shapes() {
    potrf_case::<f64>(2, 8, 11);
    potrf_case::<f64>(4, 8, 12);
    potrf_case::<f64>(6, 16, 13);
}

#[test]
fn potrf_native_single() {
    potrf_case::<f32>(3, 16, 21);
}

#[test]
fn potrf_native_large_stress() {
    // A bigger factorization: 10 tiles, 10·11·12/6 = 220 tasks, on
    // three matrices.
    for seed in 0..3 {
        potrf_case::<f64>(10, 8, 100 + seed);
    }
}

#[test]
fn non_spd_detected_at_correct_global_pivot() {
    // SPD everywhere except one negative eigenvalue introduced in tile
    // (1,1): the factorization must fail with a pivot in that tile.
    let nt = 3;
    let nb = 8;
    let good = spd_tiled::<f64>(nt, nb, 33);
    let a = TiledMatrix::<f64>::from_fn(nt, nb, |i, j| {
        let v = good.get(i, j);
        if i == 12 && j == 12 {
            -1000.0
        } else {
            v
        }
    });
    let mut reg = DataRegistry::new();
    let op = build_potrf(nt, nb, Precision::Double, &mut reg);
    let err = run_potrf_native(&op, &a, &op.graph.submission_order()).unwrap_err();
    // Global pivot index is within tile row 1 (rows 8..16).
    assert!(
        (8..16).contains(&err.pivot),
        "pivot {} not in failing tile",
        err.pivot
    );
}

#[test]
fn sim_and_native_agree_on_task_counts() {
    // The same graph drives both: the simulator starts every task once,
    // in an order the kernels accept (`execute_in_order` checks that it
    // is a topological permutation of the graph).
    let nt = 4;
    let nb = 8;
    let mut reg = DataRegistry::new();
    let op = build_potrf(nt, nb, Precision::Double, &mut reg);
    let expected = nt * (nt + 1) * (nt + 2) / 6;
    assert_eq!(op.graph.len(), expected);

    let started = common::dispatch_order(PlatformId::Amd4A100, &op.graph, &mut reg);
    assert_eq!(started.len(), expected);
    let a = spd_tiled::<f64>(nt, nb, 55);
    run_potrf_native(&op, &a, &started).unwrap();
}
