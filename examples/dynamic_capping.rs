//! Future-work demo: the DEPO-like online controller discovers the
//! best-efficiency power cap without any offline sweep, by hill-climbing
//! on measured efficiency while an iterative workload runs.
//!
//! ```text
//! cargo run --release --example dynamic_capping
//! ```

use ugpc::control::run_dynamic;
use ugpc::hwsim::{GpuDevice, KernelWork};
use ugpc::prelude::*;

fn main() {
    let mut gpu = GpuDevice::new(0, GpuModel::A100Sxm4_40);
    let work = KernelWork::gemm_tile(5760, Precision::Double);

    println!(
        "dynamic capping on {} — DGEMM 5760, starting uncapped at {:.0} W",
        gpu.model(),
        gpu.power_limit().value()
    );
    let run = run_dynamic(&mut gpu, &work, 32, 3);

    println!("\nepoch   cap (W)   efficiency (Gflop/s/W)");
    for (i, (cap, eff)) in run.history.iter().enumerate() {
        println!("{:>5}   {:>7.0}   {:>10.2}", i, cap.value(), eff);
    }
    println!(
        "\nconverged at {:.0} W ({:.0} % of TDP) — the paper's offline study picked 54 % (Table I)",
        run.final_cap.value(),
        run.final_cap.value() / 400.0 * 100.0,
    );
    println!(
        "efficiency: {:.2} Gflop/s/W, {:+.1} % vs the uncapped first epoch",
        run.final_efficiency,
        (run.final_efficiency / run.history[0].1 - 1.0) * 100.0,
    );
}
