//! Content-addressed run identity: a canonical, stable 64-bit key over
//! [`RunConfig`], used by `ugpc-serve`'s result cache (and any external
//! tooling that wants to deduplicate runs).
//!
//! ## Canonical byte layout
//!
//! The key is FNV-1a (64-bit, offset basis `0xcbf29ce484222325`, prime
//! `0x100000001b3`) over a *tagged* encoding of the config's fields in a
//! **fixed documented order** — the order listed below, not the struct's
//! declaration order and not the order builder methods were called in.
//! Every field is prefixed with a one-byte tag so adjacent
//! variable-length fields cannot alias each other, and every enum is
//! encoded through an explicit discriminant table so reordering variants
//! in source cannot silently change keys:
//!
//! | tag | field | encoding |
//! |-----|-------|----------|
//! | `0x01` | `platform` | 1 byte: Intel2V100=0, Amd2A100=1, Amd4A100=2 |
//! | `0x02` | `op` | 1 byte: Gemm=0, Potrf=1 |
//! | `0x03` | `precision` | 1 byte: Single=0, Double=1 |
//! | `0x04` | `n` | u64 LE |
//! | `0x05` | `nb` | u64 LE |
//! | `0x06` | `gpu_config` | u64 LE length, then 1 byte per level: H=0, B=1, L=2 |
//! | `0x07` | `cpu_cap` | `0x00` for None; `0x01`, u64 LE package, f64 bits LE for Some |
//! | `0x08` | `scheduler` | 1 byte: Eager=0, Random=1 (+ u64 LE seed), Dm=2, Dmda=3, Dmdas=4, EnergyAware=5 (+ f64 bits LE λ) |
//! | `0x09` | `keep_records` | 1 byte: 0 or 1 |
//!
//! Controlled runs ([`crate::StudyOptions::controller`]) extend the encoding
//! with one appended segment, so they can never alias a static run of
//! the same configuration:
//!
//! | tag | field | encoding |
//! |-----|-------|----------|
//! | `0x0A` | `controller` | [`ControllerSpec::canonical_bytes`] (objective tag, period bits, floor bits, enabled, seed) |
//!
//! The layout is frozen: changing it invalidates every persisted or
//! remote cache, so additions must append new tags, never renumber.
//! `key_stability_is_pinned` below locks the layout with a golden value.

use crate::RunConfig;
use serde::json::{Error, Value};
use serde::{Deserialize, Serialize};
use std::fmt;
use ugpc_capping::CapLevel;
use ugpc_hwsim::{OpKind, PlatformId, Precision};
use ugpc_runtime::SchedPolicy;

/// A content-addressed identity for a [`RunConfig`]: equal keys ⇔ equal
/// canonical encodings. Serializes as a 16-hex-digit string (JSON numbers
/// cannot carry full 64-bit precision).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(pub u64);

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl Serialize for CacheKey {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for CacheKey {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => u64::from_str_radix(s, 16)
                .map(CacheKey)
                .map_err(|_| Error::msg("expected 16-hex-digit cache key")),
            _ => Err(Error::msg("expected cache-key string")),
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice, continuing from `state`.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

fn platform_tag(p: PlatformId) -> u8 {
    match p {
        PlatformId::Intel2V100 => 0,
        PlatformId::Amd2A100 => 1,
        PlatformId::Amd4A100 => 2,
    }
}

fn op_tag(op: OpKind) -> u8 {
    match op {
        OpKind::Gemm => 0,
        OpKind::Potrf => 1,
    }
}

fn precision_tag(p: Precision) -> u8 {
    match p {
        Precision::Single => 0,
        Precision::Double => 1,
    }
}

fn level_tag(l: CapLevel) -> u8 {
    match l {
        CapLevel::H => 0,
        CapLevel::B => 1,
        CapLevel::L => 2,
    }
}

impl RunConfig {
    /// Append this config's canonical encoding (documented in the module
    /// docs) to `out`.
    pub fn canonical_bytes(&self, out: &mut Vec<u8>) {
        out.push(0x01);
        out.push(platform_tag(self.platform));
        out.push(0x02);
        out.push(op_tag(self.op));
        out.push(0x03);
        out.push(precision_tag(self.precision));
        out.push(0x04);
        out.extend_from_slice(&(self.n as u64).to_le_bytes());
        out.push(0x05);
        out.extend_from_slice(&(self.nb as u64).to_le_bytes());
        out.push(0x06);
        out.extend_from_slice(&(self.gpu_config.len() as u64).to_le_bytes());
        out.extend(self.gpu_config.levels().iter().map(|&l| level_tag(l)));
        out.push(0x07);
        match self.cpu_cap {
            None => out.push(0x00),
            Some((pkg, cap)) => {
                out.push(0x01);
                out.extend_from_slice(&(pkg as u64).to_le_bytes());
                out.extend_from_slice(&cap.value().to_bits().to_le_bytes());
            }
        }
        out.push(0x08);
        match self.scheduler {
            SchedPolicy::Eager => out.push(0),
            SchedPolicy::Random { seed } => {
                out.push(1);
                out.extend_from_slice(&seed.to_le_bytes());
            }
            SchedPolicy::Dm => out.push(2),
            SchedPolicy::Dmda => out.push(3),
            SchedPolicy::Dmdas => out.push(4),
            SchedPolicy::EnergyAware { lambda } => {
                out.push(5);
                out.extend_from_slice(&lambda.to_bits().to_le_bytes());
            }
        }
        out.push(0x09);
        out.push(u8::from(self.keep_records));
    }

    /// The content-addressed identity of this configuration: FNV-1a-64
    /// over [`canonical_bytes`](Self::canonical_bytes). Stable across
    /// processes, builds, and field/builder ordering; distinct whenever
    /// any field differs.
    pub fn cache_key(&self) -> CacheKey {
        let mut bytes = Vec::with_capacity(64);
        self.canonical_bytes(&mut bytes);
        CacheKey(fnv1a(FNV_OFFSET, &bytes))
    }

    /// The identity of this configuration run under an online controller:
    /// the static encoding with the controller's canonical bytes appended
    /// under tag `0x0A`. Guarantees a controlled run never shares a key
    /// with the static run of the same configuration, and that two
    /// controllers differing in any spec field (objective, period, floor,
    /// enabled, seed) key differently. [`cache_key`](Self::cache_key)
    /// itself is unchanged — static keys stay frozen.
    pub fn controlled_cache_key(&self, spec: &ugpc_control::ControllerSpec) -> CacheKey {
        let mut bytes = Vec::with_capacity(96);
        self.canonical_bytes(&mut bytes);
        bytes.push(0x0a);
        bytes.extend_from_slice(&spec.canonical_bytes());
        CacheKey(fnv1a(FNV_OFFSET, &bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugpc_capping::CapConfig;
    use ugpc_hwsim::Watts;

    fn base() -> RunConfig {
        RunConfig::paper(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double).scaled_down(4)
    }

    #[test]
    fn key_ignores_builder_order() {
        // Same final config assembled through two different builder
        // sequences must hash identically.
        let a = base()
            .with_scheduler(SchedPolicy::Dmda)
            .with_gpu_config("HHBB".parse().unwrap())
            .with_records();
        let b = base()
            .with_records()
            .with_gpu_config("HHBB".parse().unwrap())
            .with_scheduler(SchedPolicy::Dmda);
        assert_eq!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn key_changes_with_every_field() {
        let k0 = base().cache_key();
        let variants = [
            RunConfig {
                platform: PlatformId::Amd2A100,
                gpu_config: CapConfig::uniform(ugpc_capping::CapLevel::H, 2),
                ..base()
            },
            RunConfig {
                op: OpKind::Potrf,
                ..base()
            },
            RunConfig {
                precision: Precision::Single,
                ..base()
            },
            RunConfig {
                n: base().n + base().nb,
                ..base()
            },
            base().with_gpu_config("HHHB".parse().unwrap()),
            base().with_cpu_cap(0, Watts(100.0)),
            base().with_scheduler(SchedPolicy::Eager),
            base().with_scheduler(SchedPolicy::Random { seed: 1 }),
            base().with_scheduler(SchedPolicy::Random { seed: 2 }),
            base().with_scheduler(SchedPolicy::EnergyAware { lambda: 0.25 }),
            base().with_records(),
        ];
        let mut keys = vec![k0];
        for v in variants {
            keys.push(v.cache_key());
        }
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "variants {i} and {j} collide");
            }
        }
    }

    #[test]
    fn key_is_deterministic_across_clones() {
        let cfg = base().with_cpu_cap(1, Watts(90.0));
        assert_eq!(cfg.cache_key(), cfg.clone().cache_key());
    }

    #[test]
    fn key_stability_is_pinned() {
        // Golden value: locks the documented byte layout. If this test
        // fails, the canonical encoding changed — which invalidates every
        // persisted cache. Do that only deliberately, and bump the
        // module-level layout documentation alongside.
        let mut bytes = Vec::new();
        base().canonical_bytes(&mut bytes);
        assert_eq!(bytes[0], 0x01);
        assert_eq!(
            bytes.len(),
            // 3 tagged single-byte enums (6) + n/nb (18) + gpu_config
            // (1 + 8 + 4) + cpu_cap none (2) + scheduler dmdas (2) +
            // keep_records (2).
            6 + 18 + 13 + 2 + 2 + 2
        );
        let key = base().cache_key();
        assert_eq!(key.to_string().len(), 16);
        // The pinned golden key for the Amd4A100/GEMM/dp paper config
        // scaled down 4× (n = 17 280, nb = 5 760, HHHH, dmdas).
        assert_eq!(key, CacheKey(0xe51f_9177_25f4_89da));
    }

    #[test]
    fn controlled_keys_never_alias_static_or_each_other() {
        use ugpc_control::{ControllerSpec, ObjectiveKind};
        let cfg = base();
        let spec = ControllerSpec::new(ObjectiveKind::GflopsPerWatt);
        // Static golden stays frozen.
        assert_eq!(cfg.cache_key(), CacheKey(0xe51f_9177_25f4_89da));
        let mut keys = vec![cfg.cache_key()];
        for s in [
            spec.clone(),
            ControllerSpec::new(ObjectiveKind::Edp),
            ControllerSpec::new(ObjectiveKind::Ed2p),
            ControllerSpec::new(ObjectiveKind::PerfFloor),
            spec.clone().with_period(0.5),
            spec.clone().with_perf_floor(0.9),
            spec.clone().disabled(),
            spec.clone().with_seed(3),
        ] {
            keys.push(cfg.controlled_cache_key(&s));
        }
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "keys {i} and {j} collide");
            }
        }
        // Deterministic.
        assert_eq!(
            cfg.controlled_cache_key(&spec),
            cfg.clone().controlled_cache_key(&spec.clone())
        );
    }

    #[test]
    fn cache_key_serde_round_trips_full_64_bits() {
        // High bit set: would be mangled by an f64 JSON number.
        let k = CacheKey(0xdead_beef_cafe_f00d);
        let json = serde_json::to_string(&k).expect("serialize");
        assert_eq!(json, "\"deadbeefcafef00d\"");
        let back: CacheKey = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, k);
        assert!(serde_json::from_str::<CacheKey>("\"zz\"").is_err());
        assert!(serde_json::from_str::<CacheKey>("12").is_err());
    }
}
