//! A stateful GPU device instance: power-limit state, kernel execution and
//! energy integration.

use crate::energy::EnergyLedger;
use crate::error::{HwError, HwResult};
use crate::gpu::kernel::{run_kernel, KernelRun, KernelWork};
use crate::gpu::spec::{GpuModel, GpuSpec};
use crate::units::{Joules, Precision, Secs, Watts};

/// Distinct (kernel, cap) outcomes [`GpuDevice::execute`] remembers. A run
/// launches a handful of kernel shapes per device (three GEMM-family
/// kernels at one tile size and precision), times the caps a control
/// plane moves it through.
const MEMO_SLOTS: usize = 8;

/// What [`run_kernel`] depends on besides the fixed spec, as exact bit
/// patterns: equal keys give bit-identical runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MemoKey {
    flops: u64,
    bytes: u64,
    precision: Precision,
    cap: u64,
}

impl MemoKey {
    fn new(work: &KernelWork, cap: Watts) -> Self {
        MemoKey {
            flops: work.flops.value().to_bits(),
            bytes: work.bytes.value().to_bits(),
            precision: work.precision,
            cap: cap.value().to_bits(),
        }
    }
}

/// One GPU of a simulated node. Executes kernels serially (the runtime
/// submits one task at a time per device, as StarPU does with one worker
/// per CUDA device) and integrates its own energy.
#[derive(Debug, Clone)]
pub struct GpuDevice {
    index: usize,
    spec: GpuSpec,
    cap: Watts,
    ledger: EnergyLedger,
    /// Recent [`run_kernel`] results, replaced round-robin. `run_kernel`
    /// is pure, so a hit is exactly the result a fresh solve would give.
    memo: [Option<(MemoKey, KernelRun)>; MEMO_SLOTS],
    memo_next: usize,
}

impl GpuDevice {
    pub fn new(index: usize, model: GpuModel) -> Self {
        let spec = GpuSpec::of(model);
        let idle = spec.idle_power;
        let cap = spec.tdp;
        Self {
            index,
            spec,
            cap,
            ledger: EnergyLedger::new(idle).aggregates_only(),
            memo: [None; MEMO_SLOTS],
            memo_next: 0,
        }
    }

    pub fn index(&self) -> usize {
        self.index
    }

    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    pub fn model(&self) -> GpuModel {
        self.spec.model
    }

    /// Current enforced power limit.
    pub fn power_limit(&self) -> Watts {
        self.cap
    }

    /// Set the power limit, validating against the device's constraint
    /// window exactly as `nvmlDeviceSetPowerManagementLimit` does.
    pub fn set_power_limit(&mut self, cap: Watts) -> HwResult<()> {
        if !cap.is_valid() || cap < self.spec.min_cap || cap > self.spec.tdp {
            return Err(HwError::PowerLimitOutOfRange {
                requested: cap,
                min: self.spec.min_cap,
                max: self.spec.tdp,
            });
        }
        self.cap = cap;
        Ok(())
    }

    /// Reset the limit to the default (TDP, i.e. "no cap").
    pub fn reset_power_limit(&mut self) {
        self.cap = self.spec.tdp;
    }

    /// Change the power limit at virtual time `t` on a live device — the
    /// mid-run re-cap primitive. Validates exactly like
    /// [`set_power_limit`](Self::set_power_limit). The device's ledger
    /// keeps only aggregates, so every energy reading is unchanged by
    /// the re-cap itself. A kernel already in flight keeps the power it was
    /// launched at (hardware enforces caps at launch/DVFS granularity;
    /// the executor only re-caps between launches); the new limit
    /// governs every subsequent launch.
    pub fn recap_at(&mut self, t: Secs, cap: Watts) -> HwResult<()> {
        self.set_power_limit(cap)?;
        self.ledger.split_at(t);
        Ok(())
    }

    /// Predict a kernel's run under the current cap without executing it.
    /// Used by the runtime's performance-model calibration — StarPU's
    /// calibration runs map to exactly this call.
    pub fn estimate(&self, work: &KernelWork) -> KernelRun {
        run_kernel(&self.spec, work, self.cap)
    }

    /// Execute a kernel starting at virtual time `start`; records the busy
    /// interval in the energy ledger and returns the run outcome.
    pub fn execute(&mut self, work: &KernelWork, start: Secs) -> KernelRun {
        let run = self.memoized_run(work);
        self.ledger.record(start, start + run.time, run.power);
        run
    }

    /// [`run_kernel`] at the current cap, solved once per distinct
    /// (work, cap) while it stays in the memo.
    fn memoized_run(&mut self, work: &KernelWork) -> KernelRun {
        let key = MemoKey::new(work, self.cap);
        if let Some((_, run)) = self.memo.iter().flatten().find(|(k, _)| *k == key) {
            return *run;
        }
        let run = run_kernel(&self.spec, work, self.cap);
        self.memo[self.memo_next] = Some((key, run));
        self.memo_next = (self.memo_next + 1) % MEMO_SLOTS;
        run
    }

    /// Total energy consumed in `[0, until]`, busy intervals at kernel
    /// power and the rest at idle power — the NVML energy counter.
    pub fn energy(&self, until: Secs) -> Joules {
        self.ledger.energy_until(until)
    }

    /// Time spent executing kernels so far.
    pub fn busy_time(&self) -> Secs {
        self.ledger.busy_time()
    }

    /// End of the last executed kernel.
    pub fn last_end(&self) -> Secs {
        self.ledger.last_end()
    }

    /// Instantaneous power draw at the current cap for a given utilization
    /// (NVML `power_usage` semantics).
    pub fn power_draw(&self, util: f64, precision: crate::units::Precision) -> Watts {
        let dvfs = self.spec.dvfs.get(precision);
        let x = dvfs.freq_for_cap(self.cap, util.max(1e-9));
        dvfs.power(x, util)
    }

    /// Clear accumulated activity (between measured runs).
    pub fn reset_energy(&mut self) {
        self.ledger.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Precision;

    #[test]
    fn default_limit_is_tdp() {
        let d = GpuDevice::new(0, GpuModel::A100Sxm4_40);
        assert_eq!(d.power_limit(), Watts(400.0));
    }

    #[test]
    fn set_limit_validates_constraints() {
        let mut d = GpuDevice::new(0, GpuModel::A100Sxm4_40);
        d.set_power_limit(Watts(216.0)).unwrap();
        assert_eq!(d.power_limit(), Watts(216.0));
        assert!(matches!(
            d.set_power_limit(Watts(50.0)),
            Err(HwError::PowerLimitOutOfRange { .. })
        ));
        assert!(d.set_power_limit(Watts(500.0)).is_err());
        assert!(d.set_power_limit(Watts(f64::NAN)).is_err());
        // Failed set leaves the limit unchanged.
        assert_eq!(d.power_limit(), Watts(216.0));
        d.reset_power_limit();
        assert_eq!(d.power_limit(), Watts(400.0));
    }

    #[test]
    fn recap_at_validates_and_splits_history() {
        let mut d = GpuDevice::new(0, GpuModel::A100Sxm4_40);
        let w = KernelWork::gemm_tile(2880, Precision::Double);
        let r = d.execute(&w, Secs(0.0));
        let mid = r.time * 0.5;
        // Out-of-range re-cap fails and leaves state alone.
        assert!(d.recap_at(mid, Watts(10.0)).is_err());
        assert_eq!(d.power_limit(), Watts(400.0));
        d.recap_at(mid, Watts(216.0)).unwrap();
        assert_eq!(d.power_limit(), Watts(216.0));
        // Energy unchanged by the re-cap.
        let e = d.energy(r.time);
        assert!((e.value() - r.energy().value()).abs() < 1e-9);
        // Subsequent launches run at the new cap.
        let capped = d.estimate(&w);
        assert!(capped.time > r.time);
    }

    #[test]
    fn execute_accumulates_energy() {
        let mut d = GpuDevice::new(0, GpuModel::A100Sxm4_40);
        let w = KernelWork::gemm_tile(2880, Precision::Double);
        let r1 = d.execute(&w, Secs(0.0));
        let end1 = r1.time;
        let r2 = d.execute(&w, end1);
        let end2 = end1 + r2.time;
        let e = d.energy(end2);
        assert!((e.value() - (r1.energy() + r2.energy()).value()).abs() < 1e-6);
        assert_eq!(d.busy_time(), r1.time + r2.time);
    }

    #[test]
    fn idle_time_charged_at_idle_power() {
        let d = GpuDevice::new(0, GpuModel::V100Pcie32);
        let e = d.energy(Secs(100.0));
        assert!((e.value() - 100.0 * d.spec().idle_power.value()).abs() < 1e-9);
    }

    #[test]
    fn estimate_matches_execute() {
        let mut d = GpuDevice::new(0, GpuModel::A100Pcie40);
        d.set_power_limit(Watts(195.0)).unwrap();
        let w = KernelWork::gemm_tile(5760, Precision::Double);
        let est = d.estimate(&w);
        let got = d.execute(&w, Secs(0.0));
        assert_eq!(est, got);
    }

    #[test]
    fn capped_device_estimates_slower() {
        let mut free = GpuDevice::new(0, GpuModel::A100Sxm4_40);
        let mut capped = GpuDevice::new(1, GpuModel::A100Sxm4_40);
        capped.set_power_limit(Watts(216.0)).unwrap();
        let w = KernelWork::gemm_tile(5760, Precision::Double);
        assert!(capped.estimate(&w).time > free.estimate(&w).time);
        // And each device's executed time equals its estimate.
        assert_eq!(free.execute(&w, Secs(0.0)).time, free.estimate(&w).time);
        assert_eq!(capped.execute(&w, Secs(0.0)).time, capped.estimate(&w).time);
    }

    /// Bit patterns of a run's fields, for exact comparison.
    fn bits(r: &KernelRun) -> (u64, u64, u64, bool) {
        (
            r.time.value().to_bits(),
            r.power.value().to_bits(),
            r.clock_frac.to_bits(),
            r.memory_bound,
        )
    }

    #[test]
    fn memo_hit_is_bitwise_run_kernel() {
        let mut d = GpuDevice::new(0, GpuModel::A100Sxm4_40);
        d.set_power_limit(Watts(216.0)).unwrap();
        let w = KernelWork::gemm_tile(2880, Precision::Double);
        let fresh = run_kernel(d.spec(), &w, Watts(216.0));
        let miss = d.execute(&w, Secs(0.0));
        let hit = d.execute(&w, miss.time);
        assert_eq!(bits(&miss), bits(&fresh));
        assert_eq!(bits(&hit), bits(&fresh));
    }

    #[test]
    fn memo_follows_the_cap() {
        let w = KernelWork::gemm_tile(5760, Precision::Double);
        let mut d = GpuDevice::new(0, GpuModel::A100Sxm4_40);
        let free = d.execute(&w, Secs(0.0));
        d.set_power_limit(Watts(216.0)).unwrap();
        let capped = d.execute(&w, free.time);
        assert_eq!(bits(&capped), bits(&run_kernel(d.spec(), &w, Watts(216.0))));
        assert!(capped.time > free.time);
        let t = free.time + capped.time;
        d.recap_at(t, Watts(100.0)).unwrap();
        let low = d.execute(&w, t);
        assert_eq!(bits(&low), bits(&run_kernel(d.spec(), &w, Watts(100.0))));
        assert!(low.time > capped.time);
        // Back at the first cap, the remembered run is the exact one.
        d.recap_at(t + low.time, Watts(400.0)).unwrap();
        assert_eq!(bits(&d.execute(&w, t + low.time)), bits(&free));
    }

    #[test]
    fn memo_overflow_stays_exact() {
        let mut d = GpuDevice::new(0, GpuModel::V100Pcie32);
        let kernels: Vec<KernelWork> = (1..=3 * MEMO_SLOTS)
            .map(|i| KernelWork::gemm_tile(320 * i, Precision::Single))
            .collect();
        let mut t = Secs::ZERO;
        for _ in 0..3 {
            for w in &kernels {
                let got = d.execute(w, t);
                assert_eq!(bits(&got), bits(&run_kernel(d.spec(), w, d.power_limit())));
                t += got.time;
            }
        }
    }

    #[test]
    fn clones_keep_independent_memos() {
        let w = KernelWork::gemm_tile(4096, Precision::Double);
        let mut a = GpuDevice::new(0, GpuModel::A100Pcie40);
        let t = a.execute(&w, Secs(0.0)).time;
        let mut b = a.clone();
        b.set_power_limit(Watts(150.0)).unwrap();
        let rb = b.execute(&w, t);
        let ra = a.execute(&w, t);
        assert_eq!(bits(&ra), bits(&run_kernel(a.spec(), &w, Watts(250.0))));
        assert_eq!(bits(&rb), bits(&run_kernel(b.spec(), &w, Watts(150.0))));
        assert!(rb.time > ra.time);
        assert_eq!(a.power_limit(), Watts(250.0));
    }

    #[test]
    fn power_draw_idle_is_static() {
        let d = GpuDevice::new(0, GpuModel::A100Sxm4_40);
        let p = d.power_draw(0.0, Precision::Double);
        assert!((p.value() - d.spec().idle_power.value()).abs() < 1e-9);
    }

    #[test]
    fn reset_energy_clears() {
        let mut d = GpuDevice::new(0, GpuModel::A100Sxm4_40);
        let w = KernelWork::gemm_tile(1440, Precision::Single);
        d.execute(&w, Secs(0.0));
        d.reset_energy();
        assert_eq!(d.busy_time(), Secs::ZERO);
    }
}
