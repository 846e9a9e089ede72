//! Applying cap configurations to a node — through the NVML façade for
//! GPUs (as the paper's tooling does) and through RAPL for CPU packages.

use crate::config::{CapConfig, CapLevel};
use ugpc_hwsim::{HwError, HwResult, Node, Nvml, OpKind, Precision, Watts};

/// Resolve a configuration's levels into watt values for a node, using the
/// Table II power states for the given operation/precision.
pub fn resolve_caps(
    node: &Node,
    config: &CapConfig,
    op: OpKind,
    precision: Precision,
) -> HwResult<Vec<Watts>> {
    if config.len() != node.gpus().len() {
        return Err(HwError::InvalidDeviceIndex {
            index: config.len(),
            count: node.gpus().len(),
        });
    }
    let (l, b, h) = node.gpu_power_states(op, precision);
    Ok(config
        .levels()
        .iter()
        .map(|lev| match lev {
            CapLevel::L => l,
            CapLevel::B => b,
            CapLevel::H => h,
        })
        .collect())
}

/// Apply a GPU cap configuration through NVML (`nvmlDeviceSetPowerManagementLimit`
/// per device, in milliwatts — exactly the paper's procedure).
pub fn apply_gpu_caps(
    node: &mut Node,
    config: &CapConfig,
    op: OpKind,
    precision: Precision,
) -> HwResult<()> {
    let caps = resolve_caps(node, config, op, precision)?;
    let mut nvml = Nvml::new(node.gpus_mut());
    for (i, cap) in caps.iter().enumerate() {
        nvml.set_power_management_limit(i, cap.as_milliwatts())?;
    }
    Ok(())
}

/// Apply the paper's CPU cap (§V-C): one package limited to `cap`, the
/// rest untouched. Fails on packages without RAPL capping (AMD) or below
/// the stability floor.
pub fn apply_cpu_cap(node: &mut Node, package: usize, cap: Watts) -> HwResult<()> {
    let n = node.cpus().len();
    node.cpus_mut()
        .get_mut(package)
        .ok_or(HwError::InvalidDeviceIndex {
            index: package,
            count: n,
        })?
        .set_power_limit(cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugpc_hwsim::PlatformId;

    #[test]
    fn resolve_maps_levels_to_watts() {
        let node = Node::new(PlatformId::Amd4A100);
        let cfg: CapConfig = "HHBL".parse().unwrap();
        let caps = resolve_caps(&node, &cfg, OpKind::Gemm, Precision::Double).unwrap();
        assert_eq!(caps[0], Watts(400.0));
        assert_eq!(caps[1], Watts(400.0));
        assert!((caps[2].value() - 216.0).abs() < 1e-9);
        assert_eq!(caps[3], Watts(100.0));
    }

    #[test]
    fn resolve_rejects_wrong_length() {
        let node = Node::new(PlatformId::Amd4A100);
        let cfg: CapConfig = "HH".parse().unwrap();
        assert!(resolve_caps(&node, &cfg, OpKind::Gemm, Precision::Double).is_err());
    }

    #[test]
    fn apply_sets_device_limits() {
        let mut node = Node::new(PlatformId::Amd4A100);
        let cfg: CapConfig = "BBLH".parse().unwrap();
        apply_gpu_caps(&mut node, &cfg, OpKind::Gemm, Precision::Single).unwrap();
        // Single-precision GEMM: B = 40 % of 400 W = 160 W.
        assert!((node.gpu(0).power_limit().value() - 160.0).abs() < 1e-9);
        assert!((node.gpu(1).power_limit().value() - 160.0).abs() < 1e-9);
        assert_eq!(node.gpu(2).power_limit(), Watts(100.0));
        assert_eq!(node.gpu(3).power_limit(), Watts(400.0));
    }

    #[test]
    fn potrf_levels_differ_from_gemm() {
        let mut node = Node::new(PlatformId::Amd4A100);
        let cfg = CapConfig::uniform(CapLevel::B, 4);
        apply_gpu_caps(&mut node, &cfg, OpKind::Potrf, Precision::Double).unwrap();
        // Table II: POTRF dp best cap is 52 % of 400 W = 208 W.
        assert!((node.gpu(0).power_limit().value() - 208.0).abs() < 1e-9);
    }

    #[test]
    fn cpu_cap_intel_only() {
        let mut intel = Node::new(PlatformId::Intel2V100);
        // The paper's setting: second package at 60 W.
        apply_cpu_cap(&mut intel, 1, Watts(60.0)).unwrap();
        assert_eq!(intel.cpus()[1].power_limit(), Some(Watts(60.0)));
        assert_eq!(intel.cpus()[0].power_limit(), None);

        let mut amd = Node::new(PlatformId::Amd2A100);
        assert!(matches!(
            apply_cpu_cap(&mut amd, 0, Watts(100.0)),
            Err(HwError::NotSupported(_))
        ));
    }

    #[test]
    fn cpu_cap_bad_package_index() {
        let mut node = Node::new(PlatformId::Intel2V100);
        assert!(apply_cpu_cap(&mut node, 5, Watts(60.0)).is_err());
    }
}
