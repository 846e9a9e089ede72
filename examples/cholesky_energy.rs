//! Cholesky factorization end-to-end: numerical verification with the
//! real tile kernels in submission order, then an energy comparison of
//! every scheduler on the capped simulated platform.
//!
//! ```text
//! cargo run --release --example cholesky_energy
//! ```

// Demo code may unwrap, same as tests (the workspace denies
// unwrap_used in library code only).
#![allow(clippy::unwrap_used)]

use ugpc::linalg::{build_potrf, potrf_residual, run_potrf_native, spd_tiled, Scalar};
use ugpc::prelude::*;
use ugpc::runtime::DataRegistry;

fn verify_native<T: Scalar>(nt: usize, nb: usize) {
    let a = spd_tiled::<T>(nt, nb, 42);
    let a0 = a.to_dense();
    let mut reg = DataRegistry::new();
    let op = build_potrf(nt, nb, T::precision(), &mut reg);
    run_potrf_native(&op, &a, &op.graph.submission_order()).expect("SPD input factorizes");
    let residual = potrf_residual(&a0, &a);
    println!(
        "native POTRF {:>6}  n = {:>4} ({} tiles of {nb}): {} tasks, residual {:.2e}",
        T::precision().to_string(),
        nt * nb,
        nt * nt,
        op.graph.len(),
        residual,
    );
    assert!(residual < 100.0 * T::epsilon() * (nt * nb) as f64);
}

fn main() {
    println!("— numerical verification (real kernels, submission order) —");
    verify_native::<f64>(6, 32);
    verify_native::<f32>(6, 32);

    println!("\n— scheduler comparison on 32-AMD-4-A100, POTRF dp, config HHBB —");
    let schedulers = [
        SchedPolicy::Eager,
        SchedPolicy::Random { seed: 7 },
        SchedPolicy::Dm,
        SchedPolicy::Dmda,
        SchedPolicy::Dmdas,
        SchedPolicy::EnergyAware { lambda: 0.3 },
    ];
    let base = RunConfig::paper(PlatformId::Amd4A100, OpKind::Potrf, Precision::Double)
        .scaled_down(2)
        .with_gpu_config("HHBB".parse().unwrap());
    println!(
        "{:<8} {:>10} {:>12} {:>14} {:>10}",
        "policy", "Gflop/s", "energy (kJ)", "Gflop/s/W", "cpu tasks"
    );
    for policy in schedulers {
        let r = run_study(&base.clone().with_scheduler(policy));
        println!(
            "{:<8} {:>10.0} {:>12.2} {:>14.2} {:>10}",
            r.scheduler,
            r.gflops,
            r.total_energy_j / 1e3,
            r.efficiency_gflops_w,
            r.cpu_tasks
        );
    }
}
