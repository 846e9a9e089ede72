//! Dynamic power capping — the paper's future-work extension (§VII),
//! modeled on the DEPO tool it cites (refs. 24 and 25 in the paper).
//!
//! [`run_dynamic`] is the standalone single-GPU epoch loop for iterative
//! workloads (DEPO's target shape), driven by the hill-climbing
//! [`DynamicCapper`] that lives in [`ugpc_control::capper`], where it
//! also drives the online mid-run control plane.

use serde::{Deserialize, Serialize};
use ugpc_control::{DynamicCapper, ObjectiveValue};
use ugpc_hwsim::{GpuDevice, KernelWork, Secs, Watts};

/// History of one dynamic-capping run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DynamicRun {
    /// Per-epoch (cap, efficiency in Gflop/s/W).
    pub history: Vec<(Watts, f64)>,
    pub final_cap: Watts,
    pub final_efficiency: f64,
}

/// Drive an iterative workload (repeated identical kernels, DEPO's target
/// shape) on one GPU under the controller for `epochs` epochs of
/// `iters_per_epoch` kernels each.
pub fn run_dynamic(
    gpu: &mut GpuDevice,
    work: &KernelWork,
    epochs: usize,
    iters_per_epoch: usize,
) -> DynamicRun {
    assert!(epochs > 0 && iters_per_epoch > 0);
    let mut ctl = DynamicCapper::new(gpu);
    let mut history = Vec::with_capacity(epochs);
    let mut now = gpu.last_end();
    for _ in 0..epochs {
        let cap = ctl.cap();
        let e0 = gpu.energy(now);
        let t0 = now;
        for _ in 0..iters_per_epoch {
            let run = gpu.execute(work, now);
            now += run.time;
        }
        let energy = gpu.energy(now) - e0;
        let flops = work.flops.value() * iters_per_epoch as f64;
        let _epoch_time: Secs = now - t0;
        let eff = flops / energy.value() / 1e9;
        history.push((cap, eff));
        let next = ctl.observe(ObjectiveValue(eff));
        // Apply through the device's constraint-checked setter.
        gpu.set_power_limit(next)
            .expect("controller stayed in range");
    }
    let (final_cap, final_efficiency) = *history.last().expect("epochs > 0");
    DynamicRun {
        history,
        final_cap,
        final_efficiency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugpc_hwsim::{GpuModel, Precision};

    // The controller's own unit tests and proptests (range safety,
    // reversal behavior, unimodal convergence) live with it in
    // `ugpc-control`. These tests drive a real device study end to end.

    #[test]
    fn discovers_best_cap_online() {
        // The headline property: starting from TDP, the controller
        // converges near the knee (P_best ≈ 54 % TDP for dp GEMM) without
        // any offline profiling.
        let mut gpu = GpuDevice::new(0, GpuModel::A100Sxm4_40);
        let work = KernelWork::gemm_tile(5760, Precision::Double);
        let run = run_dynamic(&mut gpu, &work, 40, 3);
        let frac = run.final_cap.value() / 400.0;
        assert!(
            (0.44..=0.66).contains(&frac),
            "converged to {:.0} % TDP",
            frac * 100.0
        );
        // Final efficiency beats the uncapped first epoch by a wide margin.
        let first_eff = run.history[0].1;
        assert!(
            run.final_efficiency > first_eff * 1.15,
            "{} vs {first_eff}",
            run.final_efficiency
        );
    }

    #[test]
    fn history_has_one_entry_per_epoch() {
        let mut gpu = GpuDevice::new(0, GpuModel::V100Pcie32);
        let work = KernelWork::gemm_tile(2880, Precision::Single);
        let run = run_dynamic(&mut gpu, &work, 10, 2);
        assert_eq!(run.history.len(), 10);
    }
}
