//! Voltage-floor DVFS model.
//!
//! The central physical model of the reproduction. Normalize the SM clock
//! as `x = f / f_max ∈ (0, 1]`. Above the *voltage floor* the operating
//! voltage tracks frequency linearly, `V(x) = 1 + k·(x − 1)` (normalized to
//! `V(1) = 1`); below the knee `x_knee = 1 − (1 − Vmin)/k` the voltage
//! cannot be lowered further and stays at `Vmin`.
//!
//! Dynamic power follows the classic CMOS law `P_dyn ∝ V²·f`, so the total
//! draw of a kernel with utilization `u` is
//!
//! ```text
//! P(x, u) = S + u · D · V(x)² · x
//! ```
//!
//! with `S` the static (idle) power and `D` the dynamic draw of a fully
//! saturating kernel at max clocks. Above the knee, power is strongly
//! super-linear in `x` (cubic-like when `k ≈ 1`), so a power cap costs
//! little performance; below the knee it is linear, so capping becomes a
//! pure slowdown. Consequently the energy-efficiency optimum of a
//! compute-bound kernel sits **exactly at the knee** — which is the
//! empirical finding of the paper (Fig. 1 / Table I) that the whole study
//! builds on.

use crate::error::{HwError, HwResult};
use crate::units::Watts;
use serde::{Deserialize, Serialize};

/// Parameters of the voltage-floor DVFS power model for one device and one
/// kernel class (the paper distinguishes single- and double-precision GEMM).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DvfsParams {
    /// Static/idle power `S` (fans, HBM refresh, leakage). Drawn whenever
    /// the device is powered, independent of the cap.
    pub static_power: Watts,
    /// Max dynamic power `D` of a saturating kernel at `x = 1`
    /// (so `S + D` is the uncapped draw of that kernel).
    pub dyn_power: Watts,
    /// Voltage floor as a fraction of the max-clock voltage, `0 < Vmin < 1`.
    pub vmin: f64,
    /// Slope of the V/f curve above the floor (`dV/dx`), `k > 0`.
    pub k: f64,
    /// Lowest supported clock fraction (the bottom DVFS state).
    pub x_min: f64,
}

impl DvfsParams {
    /// Validate physicality of the parameters.
    pub fn validate(&self) -> HwResult<()> {
        let ok = self.static_power.is_valid()
            && self.dyn_power.is_valid()
            && self.dyn_power.value() > 0.0
            && self.vmin > 0.0
            && self.vmin < 1.0
            && self.k > 0.0
            && self.x_min > 0.0
            && self.x_min < 1.0;
        if !ok {
            return Err(HwError::BadModel(format!("{self:?}")));
        }
        // The knee must lie inside the supported clock range, otherwise the
        // model degenerates to a single branch and calibration loses meaning.
        let knee = self.knee();
        if !(self.x_min < knee && knee < 1.0) {
            return Err(HwError::BadModel(format!(
                "knee {knee:.3} outside clock range [{:.3}, 1)",
                self.x_min
            )));
        }
        Ok(())
    }

    /// Normalized voltage at clock fraction `x`.
    #[inline]
    pub fn voltage(&self, x: f64) -> f64 {
        (1.0 + self.k * (x - 1.0)).max(self.vmin)
    }

    /// Clock fraction at which the voltage floor is reached.
    #[inline]
    pub fn knee(&self) -> f64 {
        1.0 - (1.0 - self.vmin) / self.k
    }

    /// Power drawn at clock fraction `x` by a kernel with utilization `u`.
    #[inline]
    pub fn power(&self, x: f64, u: f64) -> Watts {
        debug_assert!((0.0..=1.0 + 1e-9).contains(&u), "utilization {u}");
        let v = self.voltage(x);
        self.static_power + self.dyn_power * (u * v * v * x)
    }

    /// Uncapped draw of a saturating kernel (`P(1, 1) = S + D`).
    #[inline]
    pub fn max_draw(&self) -> Watts {
        self.static_power + self.dyn_power
    }

    /// The DVFS governor: the largest clock fraction `x ∈ [x_min, 1]` such
    /// that a kernel with utilization `u` stays under the power cap.
    ///
    /// Solved in closed form on the linear (below-knee) branch and checked
    /// against the monotone super-linear branch by bisection. If even the
    /// lowest clock exceeds the cap, the governor pins `x_min` — real GPUs
    /// do the same: the enforced limit can be exceeded transiently at the
    /// bottom DVFS state.
    pub fn freq_for_cap(&self, cap: Watts, u: f64) -> f64 {
        let budget = (cap - self.static_power).value();
        if budget <= 0.0 {
            return self.x_min;
        }
        let d = self.dyn_power.value() * u.max(1e-12);
        // Full speed fits under the cap?
        if d <= budget {
            return 1.0;
        }
        let knee = self.knee();
        // Linear branch: P_dyn = d · Vmin² · x.
        let x_lin = budget / (d * self.vmin * self.vmin);
        if x_lin <= knee {
            return x_lin.max(self.x_min);
        }
        // Super-linear branch: bisect the monotone function
        // g(x) = d · V(x)² · x − budget on [knee, 1].
        // The step is a pure function of `(lo, hi)`, so once one leaves
        // both bit-unchanged every later step would too.
        let (mut lo, mut hi) = (knee, 1.0f64);
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            let v = self.voltage(mid);
            let before = (lo.to_bits(), hi.to_bits());
            if d * v * v * mid > budget {
                hi = mid;
            } else {
                lo = mid;
            }
            if (lo.to_bits(), hi.to_bits()) == before {
                break;
            }
        }
        let x = 0.5 * (lo + hi);
        x.clamp(self.x_min, 1.0)
    }

    /// Energy efficiency (arbitrary scale: perf ∝ x over watts) of a
    /// saturating compute-bound kernel at clock fraction `x`. Used by tests
    /// and calibration to locate the optimum.
    #[inline]
    pub fn relative_efficiency(&self, x: f64) -> f64 {
        x / self.power(x, 1.0).value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> DvfsParams {
        // Roughly the calibrated A100-SXM4 double-precision numbers.
        DvfsParams {
            static_power: Watts(55.0),
            dyn_power: Watts(306.0),
            vmin: 0.826,
            k: 0.758,
            x_min: 0.15,
        }
    }

    #[test]
    fn validates() {
        demo().validate().unwrap();
    }

    #[test]
    fn rejects_unphysical() {
        let mut p = demo();
        p.vmin = 1.2;
        assert!(p.validate().is_err());
        let mut p = demo();
        p.k = -1.0;
        assert!(p.validate().is_err());
        let mut p = demo();
        // Knee below x_min: voltage floor never reached in range.
        p.x_min = 0.9;
        assert!(p.validate().is_err());
    }

    /// The governor with all 64 bisection steps, as it was solved before
    /// the loop stopped at its first step that moves neither end.
    fn freq_by_64_steps(p: &DvfsParams, cap: Watts, u: f64) -> f64 {
        let budget = (cap - p.static_power).value();
        let d = p.dyn_power.value() * u.max(1e-12);
        let (mut lo, mut hi) = (p.knee(), 1.0);
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            let v = p.voltage(mid);
            if d * v * v * mid > budget {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        (0.5 * (lo + hi)).clamp(p.x_min, 1.0)
    }

    #[test]
    fn early_stopped_bisection_matches_all_64_steps() {
        use crate::gpu::spec::{GpuModel, GpuSpec};
        use crate::units::Precision;
        let mut params = vec![demo()];
        for model in GpuModel::ALL {
            for precision in [Precision::Single, Precision::Double] {
                params.push(GpuSpec::of(model).dvfs.get(precision));
            }
        }
        let mut bisected = 0;
        for p in &params {
            for step in 0..=400 {
                let cap = Watts(50.0 + step as f64);
                for u in [0.3, 0.71, 0.9, 1.0] {
                    let x = p.freq_for_cap(cap, u);
                    let budget = (cap - p.static_power).value();
                    let d = p.dyn_power.value() * u;
                    if d > budget && budget / (d * p.vmin * p.vmin) > p.knee() {
                        bisected += 1;
                        assert_eq!(
                            x.to_bits(),
                            freq_by_64_steps(p, cap, u).to_bits(),
                            "{p:?} at {cap:?}, u {u}"
                        );
                    }
                }
            }
        }
        assert!(bisected > 100, "only {bisected} points reach the bisection");
    }

    #[test]
    fn voltage_has_floor() {
        let p = demo();
        assert!((p.voltage(1.0) - 1.0).abs() < 1e-12);
        let knee = p.knee();
        assert!((p.voltage(knee) - p.vmin).abs() < 1e-9);
        // Below the knee the voltage stays pinned.
        assert_eq!(p.voltage(knee - 0.1), p.vmin);
        assert_eq!(p.voltage(0.0), p.vmin);
    }

    #[test]
    fn power_is_monotone_in_x_and_u() {
        let p = demo();
        let mut last = Watts::ZERO;
        for i in 1..=100 {
            let x = i as f64 / 100.0;
            let w = p.power(x, 1.0);
            assert!(w > last, "power not monotone at x={x}");
            last = w;
        }
        assert!(p.power(0.8, 0.5) < p.power(0.8, 1.0));
        // Idle draw equals static power.
        assert_eq!(p.power(0.5, 0.0), p.static_power);
    }

    #[test]
    fn uncapped_runs_full_speed() {
        let p = demo();
        // Any cap at or above max draw leaves clocks untouched.
        assert_eq!(p.freq_for_cap(p.max_draw(), 1.0), 1.0);
        assert_eq!(p.freq_for_cap(Watts(400.0), 1.0), 1.0);
    }

    #[test]
    fn governor_respects_cap() {
        let p = demo();
        for cap_w in [120.0, 160.0, 216.0, 280.0, 340.0] {
            let cap = Watts(cap_w);
            let x = p.freq_for_cap(cap, 1.0);
            let draw = p.power(x, 1.0);
            assert!(
                draw.value() <= cap.value() + 1e-6 || (x - p.x_min).abs() < 1e-12,
                "cap {cap_w}: x={x} draws {draw}"
            );
            // The governor should not leave headroom either (within solver
            // tolerance), unless pinned at a boundary.
            if x < 1.0 - 1e-9 && x > p.x_min + 1e-9 {
                assert!(
                    draw.value() >= cap.value() - 0.5,
                    "cap {cap_w}: x={x} under-utilizes cap, draw {draw}"
                );
            }
        }
    }

    #[test]
    fn governor_monotone_in_cap() {
        let p = demo();
        let mut last = 0.0;
        for i in 0..200 {
            let cap = Watts(100.0 + i as f64 * 1.6);
            let x = p.freq_for_cap(cap, 1.0);
            assert!(x >= last - 1e-12, "governor not monotone at {cap}");
            last = x;
        }
    }

    #[test]
    fn low_utilization_keeps_clocks_high() {
        let p = demo();
        // A kernel drawing 30 % of dynamic power fits under a mid cap at
        // full clocks — this is why small matrices in Fig. 1 are cap-
        // insensitive until very low caps.
        let x = p.freq_for_cap(Watts(200.0), 0.3);
        assert_eq!(x, 1.0);
        let x_sat = p.freq_for_cap(Watts(200.0), 1.0);
        assert!(x_sat < 1.0);
    }

    #[test]
    fn cap_below_static_pins_lowest_state() {
        let p = demo();
        assert_eq!(p.freq_for_cap(Watts(10.0), 1.0), p.x_min);
        assert_eq!(p.freq_for_cap(Watts::ZERO, 1.0), p.x_min);
    }

    #[test]
    fn efficiency_peaks_at_knee() {
        let p = demo();
        let knee = p.knee();
        let e_knee = p.relative_efficiency(knee);
        for i in 1..100 {
            let x = p.x_min + (1.0 - p.x_min) * i as f64 / 100.0;
            assert!(
                p.relative_efficiency(x) <= e_knee + 1e-12,
                "efficiency at x={x} exceeds knee"
            );
        }
    }

    #[test]
    fn knee_matches_closed_form() {
        let p = demo();
        let knee = p.knee();
        assert!((knee - (1.0 - (1.0 - 0.826) / 0.758)).abs() < 1e-12);
    }
}
