//! Future-work demo (§VII): node-level dynamic power capping for an
//! iterative application. The same tiled GEMM runs 25 outer iterations on
//! the simulated 4×A100 node; between iterations, a per-GPU hill-climbing
//! controller adjusts each cap from the device's measured efficiency, and
//! the runtime recalibrates its performance models — no offline Table II
//! sweep required.
//!
//! ```text
//! cargo run --release --example iterative_solver
//! ```

use ugpc::prelude::*;
use ugpc::{run_dynamic_study, try_run_study, InvalidConfig, RunConfig};

fn main() -> Result<(), InvalidConfig> {
    let cfg =
        RunConfig::paper(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double).scaled_down(2);
    let dynamic = run_dynamic_study(&cfg, 25)?;
    let oracle = try_run_study(&cfg.with_gpu_config(CapConfig::uniform(CapLevel::B, 4)))?;

    println!("iter   caps (W)                  node eff (Gflop/s/W)");
    for (i, it) in dynamic.iterations.iter().enumerate() {
        let caps: Vec<String> = it.caps_w.iter().map(|c| format!("{c:>3.0}")).collect();
        println!(
            "{:>4}   [{}]   {:>8.2}",
            i,
            caps.join(", "),
            it.efficiency_gflops_w
        );
    }
    println!(
        "\ndynamic:      {:.2} Gflop/s/W at caps {:?} W",
        dynamic.final_efficiency_gflops_w,
        dynamic
            .final_caps_w
            .iter()
            .map(|c| c.round() as i64)
            .collect::<Vec<_>>(),
    );
    println!(
        "static BBBB:  {:.2} Gflop/s/W at 216 W (the paper's offline oracle)",
        oracle.efficiency_gflops_w
    );
    println!(
        "improvement over uncapped start: {:+.1} %",
        (dynamic.final_efficiency_gflops_w / dynamic.initial_efficiency_gflops_w - 1.0) * 100.0
    );
    Ok(())
}
