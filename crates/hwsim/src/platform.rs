//! The paper's three Grid'5000 platforms (§IV-A) and the Table II
//! experiment constants, plus the [`Node`] — a live instance of a platform
//! with stateful CPU packages and GPU devices.

use crate::cpu::package::CpuPackage;
use crate::cpu::spec::CpuModel;
use crate::gpu::device::GpuDevice;
use crate::gpu::spec::GpuModel;
use crate::link::LinkTopology;
use crate::units::{Precision, Watts};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The three experimental platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlatformId {
    /// "chifflot-7": 2× Xeon Gold 6126 (24 cores) + 2× V100-PCIE-32GB.
    Intel2V100,
    /// "grouille-1": 2× EPYC 7452 (64 cores) + 2× A100-PCIE-40GB.
    Amd2A100,
    /// "chuc-1": 1× EPYC 7513 (32 cores) + 4× A100-SXM4-40GB.
    Amd4A100,
}

impl PlatformId {
    pub const ALL: [PlatformId; 3] = [
        PlatformId::Intel2V100,
        PlatformId::Amd2A100,
        PlatformId::Amd4A100,
    ];

    pub fn name(self) -> &'static str {
        match self {
            PlatformId::Intel2V100 => "24-Intel-2-V100",
            PlatformId::Amd2A100 => "64-AMD-2-A100",
            PlatformId::Amd4A100 => "32-AMD-4-A100",
        }
    }
}

impl fmt::Display for PlatformId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The two task-based operations evaluated by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    Gemm,
    Potrf,
}

impl OpKind {
    pub const ALL: [OpKind; 2] = [OpKind::Gemm, OpKind::Potrf];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Gemm => "GEMM",
            OpKind::Potrf => "POTRF",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Static description of a platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformSpec {
    pub id: PlatformId,
    pub cpu_model: CpuModel,
    pub cpu_count: usize,
    pub gpu_model: GpuModel,
    pub gpu_count: usize,
    pub links: LinkTopology,
}

impl PlatformSpec {
    pub fn of(id: PlatformId) -> Self {
        match id {
            PlatformId::Intel2V100 => PlatformSpec {
                id,
                cpu_model: CpuModel::XeonGold6126,
                cpu_count: 2,
                gpu_model: GpuModel::V100Pcie32,
                gpu_count: 2,
                links: LinkTopology::pcie_gen3(),
            },
            PlatformId::Amd2A100 => PlatformSpec {
                id,
                cpu_model: CpuModel::Epyc7452,
                cpu_count: 2,
                gpu_model: GpuModel::A100Pcie40,
                gpu_count: 2,
                links: LinkTopology::pcie_gen4(),
            },
            PlatformId::Amd4A100 => PlatformSpec {
                id,
                cpu_model: CpuModel::Epyc7513,
                cpu_count: 1,
                gpu_model: GpuModel::A100Sxm4_40,
                gpu_count: 4,
                links: LinkTopology::sxm4_nvlink(),
            },
        }
    }

    /// Total CPU cores across packages.
    pub fn total_cores(&self) -> usize {
        self.cpu_count * crate::cpu::spec::CpuSpec::of(self.cpu_model).cores
    }
}

/// One row of the paper's Table II: the matrix/tile sizes and best-cap
/// fraction selected for a (platform, operation, precision) triple.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TableIIEntry {
    pub platform: PlatformId,
    pub op: OpKind,
    pub precision: Precision,
    /// Full matrix dimension N (matrix is N × N).
    pub n: usize,
    /// Tile dimension Nt.
    pub nt: usize,
    /// `P_best` as a fraction of TDP.
    pub best_cap_frac: f64,
}

/// One Table II row, for the `static` table.
const fn row(
    platform: PlatformId,
    op: OpKind,
    precision: Precision,
    n: usize,
    nt: usize,
    best_cap_frac: f64,
) -> TableIIEntry {
    TableIIEntry {
        platform,
        op,
        precision,
        n,
        nt,
        best_cap_frac,
    }
}

static TABLE_II: [TableIIEntry; 12] = {
    use OpKind::*;
    use PlatformId::*;
    use Precision::*;
    [
        row(Intel2V100, Gemm, Double, 43_200, 2_880, 0.62),
        row(Intel2V100, Gemm, Single, 43_200, 2_880, 0.60),
        row(Intel2V100, Potrf, Double, 96_000, 1_920, 0.56),
        row(Intel2V100, Potrf, Single, 96_000, 1_920, 0.66),
        row(Amd2A100, Gemm, Double, 69_120, 5_760, 0.78),
        row(Amd2A100, Gemm, Single, 69_120, 5_760, 0.60),
        row(Amd2A100, Potrf, Double, 115_200, 2_880, 0.78),
        row(Amd2A100, Potrf, Single, 115_200, 2_880, 0.60),
        row(Amd4A100, Gemm, Double, 74_880, 5_760, 0.54),
        row(Amd4A100, Gemm, Single, 74_880, 5_760, 0.40),
        row(Amd4A100, Potrf, Double, 172_800, 2_880, 0.52),
        row(Amd4A100, Potrf, Single, 172_800, 2_880, 0.38),
    ]
};

/// The complete Table II.
pub fn table_ii() -> &'static [TableIIEntry] {
    &TABLE_II
}

/// Look up the Table II entry for a configuration.
pub fn table_ii_entry(platform: PlatformId, op: OpKind, precision: Precision) -> TableIIEntry {
    *table_ii()
        .iter()
        .find(|e| e.platform == platform && e.op == op && e.precision == precision)
        .expect("Table II covers all (platform, op, precision) triples")
}

/// A live platform instance: stateful devices with caps and energy ledgers.
#[derive(Debug, Clone)]
pub struct Node {
    spec: PlatformSpec,
    cpus: Vec<CpuPackage>,
    gpus: Vec<GpuDevice>,
}

impl Node {
    pub fn new(id: PlatformId) -> Self {
        let spec = PlatformSpec::of(id);
        let cpus = (0..spec.cpu_count)
            .map(|i| CpuPackage::new(i, spec.cpu_model))
            .collect();
        let gpus = (0..spec.gpu_count)
            .map(|i| GpuDevice::new(i, spec.gpu_model))
            .collect();
        Node { spec, cpus, gpus }
    }

    pub fn spec(&self) -> &PlatformSpec {
        &self.spec
    }

    pub fn id(&self) -> PlatformId {
        self.spec.id
    }

    pub fn cpus(&self) -> &[CpuPackage] {
        &self.cpus
    }

    pub fn cpus_mut(&mut self) -> &mut [CpuPackage] {
        &mut self.cpus
    }

    pub fn gpus(&self) -> &[GpuDevice] {
        &self.gpus
    }

    pub fn gpus_mut(&mut self) -> &mut [GpuDevice] {
        &mut self.gpus
    }

    pub fn gpu(&self, i: usize) -> &GpuDevice {
        &self.gpus[i]
    }

    pub fn gpu_mut(&mut self, i: usize) -> &mut GpuDevice {
        &mut self.gpus[i]
    }

    pub fn links(&self) -> &LinkTopology {
        &self.spec.links
    }

    /// The GPU power states of the paper: `P_min` / `P_best` / `P_max`.
    pub fn gpu_power_states(&self, op: OpKind, precision: Precision) -> (Watts, Watts, Watts) {
        let spec = crate::gpu::spec::GpuSpec::of(self.spec.gpu_model);
        let entry = table_ii_entry(self.spec.id, op, precision);
        (spec.min_cap, spec.tdp * entry.best_cap_frac, spec.tdp)
    }

    /// Reset all energy ledgers (between measured runs).
    pub fn reset_energy(&mut self) {
        for c in &mut self.cpus {
            c.reset_energy();
        }
        for g in &mut self.gpus {
            g.reset_energy();
        }
    }

    /// Reset all power limits to defaults.
    pub fn reset_power_limits(&mut self) {
        for c in &mut self.cpus {
            c.clear_power_limit();
        }
        for g in &mut self.gpus {
            g.reset_power_limit();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_shapes_match_paper() {
        let p = PlatformSpec::of(PlatformId::Intel2V100);
        assert_eq!(p.total_cores(), 24);
        assert_eq!(p.gpu_count, 2);

        let p = PlatformSpec::of(PlatformId::Amd2A100);
        assert_eq!(p.total_cores(), 64);
        assert_eq!(p.gpu_count, 2);

        let p = PlatformSpec::of(PlatformId::Amd4A100);
        assert_eq!(p.total_cores(), 32);
        assert_eq!(p.gpu_count, 4);
        assert!(p.links.d2d.is_some(), "SXM4 has NVLink");
    }

    #[test]
    fn table_ii_is_complete() {
        let t = table_ii();
        assert_eq!(t.len(), 12);
        // One row per triple: every row is the one its lookup finds.
        for e in t {
            assert_eq!(table_ii_entry(e.platform, e.op, e.precision), *e);
        }
        for pf in PlatformId::ALL {
            for op in OpKind::ALL {
                for p in Precision::ALL {
                    let e = table_ii_entry(pf, op, p);
                    assert!(
                        e.n.is_multiple_of(e.nt),
                        "{pf} {op} {p}: N={} Nt={}",
                        e.n,
                        e.nt
                    );
                    assert!(e.best_cap_frac > 0.3 && e.best_cap_frac < 0.9);
                }
            }
        }
    }

    #[test]
    fn table_ii_headline_entries() {
        let e = table_ii_entry(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double);
        assert_eq!((e.n, e.nt), (74_880, 5_760));
        assert!((e.best_cap_frac - 0.54).abs() < 1e-12);
        let e = table_ii_entry(PlatformId::Intel2V100, OpKind::Potrf, Precision::Single);
        assert!((e.best_cap_frac - 0.66).abs() < 1e-12);
    }

    #[test]
    fn node_construction() {
        let node = Node::new(PlatformId::Amd4A100);
        assert_eq!(node.gpus().len(), 4);
        assert_eq!(node.cpus().len(), 1);
        assert_eq!(node.gpu(2).index(), 2);
    }

    #[test]
    fn power_states_ordering() {
        let node = Node::new(PlatformId::Amd4A100);
        let (l, b, h) = node.gpu_power_states(OpKind::Gemm, Precision::Double);
        assert_eq!(l, Watts(100.0));
        assert_eq!(h, Watts(400.0));
        assert!((b.value() - 216.0).abs() < 1e-9);
        assert!(l < b && b < h);
    }

    #[test]
    fn amd2a100_best_is_close_to_min() {
        // The paper's §V-A observation: on 64-AMD-2-A100 P_best (195 W dp)
        // is near P_min (150 W), leaving little room for a B vs L contrast.
        let node = Node::new(PlatformId::Amd2A100);
        let (l, b, h) = node.gpu_power_states(OpKind::Gemm, Precision::Double);
        assert_eq!(l, Watts(150.0));
        assert!((b.value() - 195.0).abs() < 1e-9);
        assert_eq!(h, Watts(250.0));
        // Single precision: B and L coincide at 150 W (§V-B).
        let (l, b, _) = node.gpu_power_states(OpKind::Gemm, Precision::Single);
        assert_eq!(l, b);
    }

    #[test]
    fn reset_power_limits_restores_defaults() {
        let mut node = Node::new(PlatformId::Amd4A100);
        node.gpu_mut(0).set_power_limit(Watts(216.0)).unwrap();
        node.reset_power_limits();
        assert_eq!(node.gpu(0).power_limit(), Watts(400.0));
    }
}
