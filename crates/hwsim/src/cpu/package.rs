//! A stateful CPU package: RAPL cap, per-core execution, energy integration.

use crate::cpu::spec::{CpuModel, CpuSpec};
use crate::energy::EnergyLedger;
use crate::error::{HwError, HwResult};
use crate::gpu::dvfs::DvfsParams;
use crate::units::{Flops, Joules, Precision, Secs, Watts};

/// Outcome of one CPU tile-kernel execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuRun {
    pub time: Secs,
    /// Power attributed to the executing core (uncore is accounted
    /// separately at the package level).
    pub core_power: Watts,
}

/// One CPU package of a simulated node.
///
/// Frequency under a RAPL cap is solved for the configured number of
/// *potentially* active cores (the runtime sets this to its CPU worker
/// count before a run): the governor must guarantee the limit even in the
/// all-workers-busy case, so the all-active frequency is the sustained one.
/// Idle cores draw nothing beyond uncore.
#[derive(Debug, Clone)]
pub struct CpuPackage {
    index: usize,
    spec: CpuSpec,
    cap: Option<Watts>,
    active_workers: usize,
    /// Cached clock fraction for the current (cap, active_workers).
    clock_frac: f64,
    /// True while a runtime owns the package: every core busy-waits in the
    /// worker polling loop when not executing a task (StarPU behaviour),
    /// drawing `spin_factor` of active-core power.
    attached: bool,
    cores: Vec<EnergyLedger>,
}

impl CpuPackage {
    pub fn new(index: usize, model: CpuModel) -> Self {
        let spec = CpuSpec::of(model);
        let cores = (0..spec.cores)
            .map(|_| EnergyLedger::new(Watts::ZERO).aggregates_only())
            .collect();
        let mut pkg = Self {
            index,
            spec,
            cap: None,
            active_workers: 0,
            clock_frac: 1.0,
            attached: false,
            cores,
        };
        pkg.active_workers = pkg.spec.cores;
        pkg.refresh_clock();
        pkg
    }

    pub fn index(&self) -> usize {
        self.index
    }

    pub fn spec(&self) -> &CpuSpec {
        &self.spec
    }

    pub fn model(&self) -> CpuModel {
        self.spec.model
    }

    pub fn cores(&self) -> usize {
        self.spec.cores
    }

    /// Current RAPL limit, if any.
    pub fn power_limit(&self) -> Option<Watts> {
        self.cap
    }

    /// Clock fraction the package sustains under the current cap with the
    /// configured worker count all active.
    pub fn clock_frac(&self) -> f64 {
        self.clock_frac
    }

    /// Number of workers the governor provisions frequency for. Also
    /// attaches the runtime: all cores start busy-waiting between tasks.
    pub fn set_active_workers(&mut self, n: usize) {
        self.active_workers = n.min(self.spec.cores).max(1);
        self.attached = true;
        self.refresh_clock();
    }

    /// Release the package: cores go back to true idle (no spin power).
    pub fn detach(&mut self) {
        self.attached = false;
    }

    /// Is a runtime currently spinning on this package's cores?
    pub fn attached(&self) -> bool {
        self.attached
    }

    /// Power drawn by one core busy-waiting in the worker loop at the
    /// sustained clock.
    pub fn spin_core_power(&self) -> Watts {
        if self.attached {
            self.active_core_power() * self.spec.spin_factor
        } else {
            Watts::ZERO
        }
    }

    /// Apply a RAPL package power limit.
    ///
    /// Fails with [`HwError::NotSupported`] on packages where the paper
    /// could not cap (AMD EPYC on Grid'5000) and with
    /// [`HwError::UnstableCpuCap`] below the measured stability floor.
    pub fn set_power_limit(&mut self, cap: Watts) -> HwResult<()> {
        if !self.spec.supports_capping {
            return Err(HwError::NotSupported(format!(
                "RAPL capping on {}",
                self.spec.model
            )));
        }
        if cap < self.spec.stability_floor {
            return Err(HwError::UnstableCpuCap {
                requested: cap,
                floor: self.spec.stability_floor,
            });
        }
        if cap > self.spec.tdp {
            return Err(HwError::PowerLimitOutOfRange {
                requested: cap,
                min: self.spec.stability_floor,
                max: self.spec.tdp,
            });
        }
        self.cap = Some(cap);
        self.refresh_clock();
        Ok(())
    }

    pub fn clear_power_limit(&mut self) {
        self.cap = None;
        self.refresh_clock();
    }

    fn governor_params(&self, active: usize) -> DvfsParams {
        DvfsParams {
            static_power: self.spec.uncore_power,
            dyn_power: self.spec.core_power * active as f64,
            vmin: self.spec.vmin,
            k: self.spec.k,
            x_min: self.spec.x_min,
        }
    }

    fn refresh_clock(&mut self) {
        let cap = self.cap.unwrap_or(self.spec.tdp);
        let params = self.governor_params(self.active_workers);
        self.clock_frac = params.freq_for_cap(cap, 1.0);
    }

    /// Power drawn by one active core at the sustained clock.
    pub fn active_core_power(&self) -> Watts {
        let params = self.governor_params(1);
        let v = params.voltage(self.clock_frac);
        self.spec.core_power * (v * v * self.clock_frac)
    }

    /// Predict the execution of `flops` of tile-kernel work (tile dimension
    /// `nb`) on one core without recording it.
    pub fn estimate(&self, flops: Flops, nb: usize, precision: Precision) -> CpuRun {
        let rate =
            self.spec.core_rate.get(precision) * (self.clock_frac * self.spec.tile_efficiency(nb));
        CpuRun {
            time: flops / rate + self.spec.task_overhead,
            core_power: self.active_core_power(),
        }
    }

    /// Execute on core `core` starting at `start`; records the busy
    /// interval and returns the outcome.
    pub fn execute(
        &mut self,
        core: usize,
        flops: Flops,
        nb: usize,
        precision: Precision,
        start: Secs,
    ) -> CpuRun {
        let run = self.estimate(flops, nb, precision);
        self.cores[core].record(start, start + run.time, run.core_power);
        run
    }

    /// RAPL package energy counter over `[0, until]`: uncore, task
    /// execution, and (while a runtime is attached) busy-wait spin on the
    /// non-executing cores. Assumes the current cap held over the window,
    /// which is true for every measured run (caps are set between runs).
    pub fn energy(&self, until: Secs) -> Joules {
        let spin = self.spin_core_power();
        let core_energy: Joules = self
            .cores
            .iter()
            .map(|c| c.energy_until(until) + spin * (until - c.busy_time()).max(Secs::ZERO))
            .sum();
        self.spec.uncore_power * until + core_energy
    }

    /// Aggregate busy time across cores.
    pub fn busy_time(&self) -> Secs {
        self.cores.iter().map(|c| c.busy_time()).sum()
    }

    /// Latest activity end across cores.
    pub fn last_end(&self) -> Secs {
        self.cores
            .iter()
            .map(|c| c.last_end())
            .fold(Secs::ZERO, Secs::max)
    }

    pub fn reset_energy(&mut self) {
        for c in &mut self.cores {
            c.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xeon() -> CpuPackage {
        CpuPackage::new(0, CpuModel::XeonGold6126)
    }

    #[test]
    fn uncapped_runs_nominal() {
        let p = xeon();
        assert_eq!(p.clock_frac(), 1.0);
    }

    #[test]
    fn cap_reduces_clock() {
        let mut p = xeon();
        p.set_power_limit(Watts(60.0)).unwrap();
        assert!(p.clock_frac() < 1.0, "x = {}", p.clock_frac());
        // 60 W of 125 W with all 12 workers: substantial throttle.
        assert!(p.clock_frac() > p.spec().x_min);
        p.clear_power_limit();
        assert_eq!(p.clock_frac(), 1.0);
    }

    #[test]
    fn capping_amd_not_supported() {
        let mut p = CpuPackage::new(0, CpuModel::Epyc7452);
        assert!(matches!(
            p.set_power_limit(Watts(100.0)),
            Err(HwError::NotSupported(_))
        ));
    }

    #[test]
    fn unstable_cap_rejected() {
        let mut p = xeon();
        assert!(matches!(
            p.set_power_limit(Watts(50.0)),
            Err(HwError::UnstableCpuCap { .. })
        ));
        // Exactly at the floor is allowed (the paper's chosen 60 W).
        p.set_power_limit(Watts(60.0)).unwrap();
    }

    #[test]
    fn cap_above_tdp_rejected() {
        let mut p = xeon();
        assert!(p.set_power_limit(Watts(150.0)).is_err());
    }

    #[test]
    fn fewer_workers_sustain_higher_clocks() {
        let mut p = xeon();
        p.set_power_limit(Watts(60.0)).unwrap();
        p.set_active_workers(12);
        let x_all = p.clock_frac();
        p.set_active_workers(4);
        let x_few = p.clock_frac();
        assert!(x_few > x_all, "{x_few} vs {x_all}");
    }

    #[test]
    fn execute_and_energy() {
        let mut p = xeon();
        let r = p.execute(0, Flops(1e9), 960, Precision::Double, Secs(0.0));
        // ~1 Gflop at ~30 Gflop/s ≈ 33 ms.
        assert!((0.02..0.06).contains(&r.time.value()), "{}", r.time);
        let e = p.energy(r.time);
        // Uncore + one busy core.
        let expect = p.spec().uncore_power * r.time + r.core_power * r.time;
        assert!((e.value() - expect.value()).abs() < 1e-9);
    }

    #[test]
    fn capped_core_slower_and_cheaper() {
        let free = xeon();
        let mut capped = xeon();
        capped.set_power_limit(Watts(60.0)).unwrap();
        let w = Flops(2e9);
        let rf = free.estimate(w, 960, Precision::Double);
        let rc = capped.estimate(w, 960, Precision::Double);
        assert!(rc.time > rf.time);
        assert!(rc.core_power < rf.core_power);
    }

    #[test]
    fn single_precision_faster() {
        let p = xeon();
        let d = p.estimate(Flops(1e9), 960, Precision::Double);
        let s = p.estimate(Flops(1e9), 960, Precision::Single);
        assert!(s.time < d.time);
    }

    #[test]
    fn idle_package_draws_uncore_only() {
        let p = CpuPackage::new(0, CpuModel::Epyc7513);
        let e = p.energy(Secs(10.0));
        assert!((e.value() - 600.0).abs() < 1e-9); // 60 W uncore × 10 s
    }

    #[test]
    fn detached_package_has_no_spin() {
        let p = xeon();
        assert!(!p.attached());
        assert_eq!(p.spin_core_power(), Watts::ZERO);
        assert!((p.energy(Secs(1.0)).value() - 35.0).abs() < 1e-9);
    }

    #[test]
    fn attached_package_spins() {
        let mut p = xeon();
        p.set_active_workers(11);
        assert!(p.attached());
        // 12 cores spinning at half of 7.5 W plus 35 W uncore = 80 W.
        let e = p.energy(Secs(1.0));
        assert!((e.value() - 80.0).abs() < 0.5, "{e}");
        p.detach();
        assert!((p.energy(Secs(1.0)).value() - 35.0).abs() < 1e-9);
    }

    #[test]
    fn rapl_cap_cuts_spin_energy() {
        // The §V-C effect: an attached, mostly-idle package consumes less
        // under a 60 W cap because the spinning cores throttle.
        let mut free = xeon();
        free.set_active_workers(11);
        let mut capped = xeon();
        capped.set_active_workers(11);
        capped.set_power_limit(Watts(60.0)).unwrap();
        let ef = free.energy(Secs(10.0));
        let ec = capped.energy(Secs(10.0));
        assert!(ec.value() < ef.value() * 0.80, "capped {ec} vs free {ef}");
    }

    #[test]
    fn per_core_ledgers_are_independent() {
        let mut p = xeon();
        // Two cores busy at overlapping virtual times is legal.
        p.execute(0, Flops(1e9), 960, Precision::Double, Secs(0.0));
        p.execute(1, Flops(1e9), 960, Precision::Double, Secs(0.0));
        assert!(p.busy_time().value() > 0.05);
    }
}
