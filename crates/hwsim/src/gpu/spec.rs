//! The GPU catalog: the three NVIDIA models used by the paper, with
//! datasheet constants and DVFS parameters calibrated from Table I.

use crate::calibrate::{fit_dvfs, EfficiencyTarget};
use crate::gpu::dvfs::DvfsParams;
use crate::units::{Bandwidth, Bytes, FlopRate, Flops, Precision, Secs, Watts};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// A value that differs between single- and double-precision kernels.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerPrecision<T> {
    pub single: T,
    pub double: T,
}

impl<T: Copy> PerPrecision<T> {
    pub const fn new(single: T, double: T) -> Self {
        Self { single, double }
    }

    #[inline]
    pub fn get(&self, p: Precision) -> T {
        match p {
            Precision::Single => self.single,
            Precision::Double => self.double,
        }
    }
}

/// The GPU models of the paper's three platforms (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GpuModel {
    /// NVIDIA Tesla V100-PCIE-32GB (24-Intel-2-V100, "chifflot").
    V100Pcie32,
    /// NVIDIA A100-PCIE-40GB (64-AMD-2-A100, "grouille").
    A100Pcie40,
    /// NVIDIA A100-SXM4-40GB (32-AMD-4-A100, "chuc").
    A100Sxm4_40,
}

impl GpuModel {
    pub const ALL: [GpuModel; 3] = [
        GpuModel::V100Pcie32,
        GpuModel::A100Pcie40,
        GpuModel::A100Sxm4_40,
    ];

    pub fn name(self) -> &'static str {
        match self {
            GpuModel::V100Pcie32 => "V100-PCIE-32GB",
            GpuModel::A100Pcie40 => "A100-PCIE-40GB",
            GpuModel::A100Sxm4_40 => "A100-SXM4-40GB",
        }
    }

    /// Measured efficiency optima from Table I. Slowdowns not reported by
    /// the paper use plausible estimates consistent with the V/f curves
    /// (documented in DESIGN.md §5).
    pub fn efficiency_target(self, p: Precision) -> EfficiencyTarget {
        match (self, p) {
            // Table I rows: (best cap %TDP, efficiency gain, slowdown).
            (GpuModel::A100Sxm4_40, Precision::Double) => {
                EfficiencyTarget::new(0.54, 0.2881, 0.2293)
            }
            (GpuModel::A100Sxm4_40, Precision::Single) => {
                EfficiencyTarget::new(0.40, 0.2776, 0.2950)
            }
            (GpuModel::A100Pcie40, Precision::Double) => {
                EfficiencyTarget::new(0.78, 0.1092, 0.0800)
            }
            (GpuModel::A100Pcie40, Precision::Single) => {
                EfficiencyTarget::new(0.60, 0.2317, 0.1971)
            }
            (GpuModel::V100Pcie32, Precision::Double) => {
                EfficiencyTarget::new(0.60, 0.1852, 0.1200)
            }
            (GpuModel::V100Pcie32, Precision::Single) => {
                EfficiencyTarget::new(0.58, 0.2074, 0.1400)
            }
        }
    }
}

impl fmt::Display for GpuModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Full specification of a GPU model: datasheet constants plus the
/// calibrated voltage-floor DVFS parameters per precision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    pub model: GpuModel,
    /// Maximum power limit (TDP); NVML's `powerManagementLimitConstraints.max`.
    pub tdp: Watts,
    /// Minimum settable power limit; NVML's constraint minimum.
    pub min_cap: Watts,
    /// Draw with no kernel resident.
    pub idle_power: Watts,
    /// HBM capacity.
    pub mem_capacity: Bytes,
    /// HBM bandwidth (cap-insensitive to first order).
    pub mem_bandwidth: Bandwidth,
    /// Fixed per-kernel launch overhead.
    pub launch_overhead: Secs,
    /// Peak sustained GEMM rate at max clocks and full occupancy.
    pub peak: PerPrecision<FlopRate>,
    /// Calibrated DVFS/power parameters.
    pub dvfs: PerPrecision<DvfsParams>,
    /// Tile dimension at which GEMM reaches half of peak (occupancy model).
    pub nb_half: PerPrecision<f64>,
    /// Power-utilization floor of any resident kernel: even a tiny launch
    /// lights up schedulers, caches and HBM refresh, so draw never falls to
    /// occupancy alone. `u = u_floor + (1 − u_floor) · occupancy`.
    pub u_floor: f64,
}

impl GpuSpec {
    /// The calibrated spec of one of the paper's GPU models, built once
    /// per process: every `Node` of every run, and every served request's
    /// validation, asks for it.
    ///
    /// Panics only if the built-in calibration constants are unphysical,
    /// which is covered by tests — the catalog is static data.
    pub fn of(model: GpuModel) -> Self {
        static SPECS: [OnceLock<GpuSpec>; GpuModel::ALL.len()] =
            [const { OnceLock::new() }; GpuModel::ALL.len()];
        SPECS[model as usize]
            .get_or_init(|| Self::build(model))
            .clone()
    }

    /// Fit the DVFS parameters of `model` and assemble its spec.
    fn build(model: GpuModel) -> Self {
        let (tdp, min_cap, idle, x_min) = match model {
            GpuModel::V100Pcie32 => (Watts(250.0), Watts(100.0), Watts(40.0), 0.10),
            GpuModel::A100Pcie40 => (Watts(250.0), Watts(150.0), Watts(45.0), 0.15),
            GpuModel::A100Sxm4_40 => (Watts(400.0), Watts(100.0), Watts(50.0), 0.15),
        };
        let fit = |p: Precision| {
            fit_dvfs(tdp, idle, x_min, model.efficiency_target(p))
                .unwrap_or_else(|e| panic!("calibration for {model} {p} failed: {e}"))
        };
        let dvfs = PerPrecision::new(fit(Precision::Single), fit(Precision::Double));
        let (peak, bw, mem) = match model {
            GpuModel::V100Pcie32 => (
                PerPrecision::new(FlopRate::from_tflops(14.5), FlopRate::from_tflops(6.8)),
                Bandwidth::from_gb_s(900.0),
                Bytes::from_gib(32.0),
            ),
            GpuModel::A100Pcie40 => (
                PerPrecision::new(FlopRate::from_tflops(19.0), FlopRate::from_tflops(17.0)),
                Bandwidth::from_gb_s(1555.0),
                Bytes::from_gib(40.0),
            ),
            GpuModel::A100Sxm4_40 => (
                PerPrecision::new(FlopRate::from_tflops(19.0), FlopRate::from_tflops(17.0)),
                Bandwidth::from_gb_s(1555.0),
                Bytes::from_gib(40.0),
            ),
        };
        GpuSpec {
            model,
            tdp,
            min_cap,
            idle_power: idle,
            mem_capacity: mem,
            mem_bandwidth: bw,
            launch_overhead: Secs(10e-6),
            peak,
            dvfs,
            // Single precision needs larger tiles to saturate the same SMs
            // (higher arithmetic throughput per byte of tile).
            nb_half: PerPrecision::new(600.0, 450.0),
            u_floor: 0.25,
        }
    }

    /// Performance occupancy of a kernel of `flops` total work: a smooth
    /// saturation in the effective tile dimension (cube root of flops),
    /// reaching 0.5 at `nb_half`.
    #[inline]
    pub fn occupancy(&self, flops: Flops, p: Precision) -> f64 {
        let dim = flops.value().max(0.0).cbrt();
        let half = (2.0f64).cbrt() * self.nb_half.get(p);
        dim / (dim + half)
    }

    /// Power utilization of a kernel of `flops` total work: tracks
    /// occupancy above a floor. Tying draw to occupancy keeps efficiency
    /// monotone in problem size (`occ / (S + u·D)` is increasing in `occ`
    /// whenever `u` is affine in `occ`), which is the paper's Fig. 1
    /// observation that bigger matrices are always more energy-efficient.
    #[inline]
    pub fn utilization(&self, flops: Flops, p: Precision) -> f64 {
        self.u_floor + (1.0 - self.u_floor) * self.occupancy(flops, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::sweep_optimum;

    #[test]
    fn catalog_builds_and_is_physical() {
        for model in GpuModel::ALL {
            let spec = GpuSpec::of(model);
            for p in Precision::ALL {
                let d = spec.dvfs.get(p);
                d.validate().unwrap();
                assert!(
                    d.max_draw().value() <= spec.tdp.value() * 1.0001,
                    "{model} {p}"
                );
                assert!(spec.idle_power < spec.min_cap, "{model}");
            }
        }
    }

    #[test]
    fn kept_specs_equal_fresh_builds() {
        for model in GpuModel::ALL {
            let kept = GpuSpec::of(model);
            assert_eq!(kept.model, model);
            assert_eq!(kept, GpuSpec::build(model));
            assert_eq!(kept, GpuSpec::of(model));
        }
    }

    #[test]
    fn table_i_round_trip_all_models() {
        // Re-sweeping every calibrated model must recover the paper's
        // Table I optima within the sweep step.
        for model in GpuModel::ALL {
            let spec = GpuSpec::of(model);
            for p in Precision::ALL {
                let want = model.efficiency_target(p);
                let got = sweep_optimum(spec.tdp, spec.min_cap, &spec.dvfs.get(p));
                assert!(
                    (got.best_cap_frac - want.best_cap_frac).abs() < 0.03,
                    "{model} {p}: best cap {:.3} vs {:.3}",
                    got.best_cap_frac,
                    want.best_cap_frac
                );
                assert!(
                    (got.gain - want.gain).abs() < 0.04,
                    "{model} {p}: gain {:.3} vs {:.3}",
                    got.gain,
                    want.gain
                );
            }
        }
    }

    #[test]
    fn occupancy_saturates() {
        let spec = GpuSpec::of(GpuModel::A100Sxm4_40);
        let f = |nb: f64| spec.occupancy(Flops(2.0 * nb * nb * nb), Precision::Double);
        assert!(f(5760.0) > 0.85, "{}", f(5760.0));
        assert!(f(450.0) > 0.45 && f(450.0) < 0.55, "{}", f(450.0));
        assert!(f(96.0) < 0.25, "{}", f(96.0));
        assert!(f(5760.0) > f(2880.0));
    }

    #[test]
    fn utilization_floors_above_occupancy() {
        let spec = GpuSpec::of(GpuModel::A100Sxm4_40);
        let nb = 2880.0f64;
        let flops = Flops(2.0 * nb * nb * nb);
        assert!(
            spec.utilization(flops, Precision::Double) > spec.occupancy(flops, Precision::Double)
        );
        // Even a trivial kernel draws at least the floor.
        assert!(spec.utilization(Flops(1.0), Precision::Double) >= spec.u_floor);
        // Large kernels approach full utilization.
        let big = Flops(2.0 * 5760.0f64.powi(3));
        assert!(spec.utilization(big, Precision::Double) > 0.9);
    }

    #[test]
    fn per_precision_accessor() {
        let pp = PerPrecision::new(1, 2);
        assert_eq!(pp.get(Precision::Single), 1);
        assert_eq!(pp.get(Precision::Double), 2);
    }

    #[test]
    fn model_names_match_paper() {
        assert_eq!(GpuModel::V100Pcie32.name(), "V100-PCIE-32GB");
        assert_eq!(GpuModel::A100Pcie40.name(), "A100-PCIE-40GB");
        assert_eq!(GpuModel::A100Sxm4_40.name(), "A100-SXM4-40GB");
    }
}
