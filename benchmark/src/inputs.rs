//! Seeded workload inputs: the request key space, a small deterministic
//! generator, and the Zipf draw built on it. The program
//! under test only ever sees the generated configurations.

use ugpc::capping::CapConfig;
use ugpc::hwsim::{OpKind, PlatformId, PlatformSpec, Precision};
use ugpc::prelude::SchedPolicy;
use ugpc::RunConfig;

/// SplitMix64: tiny, fast, and fully determined by its seed, so a
/// workload's request sequence is a function of `--seed` alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one consumer (connection, phase) of a
    /// seed, so adding a consumer never shifts another's draws.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }

    /// `k` distinct indices of `0..n`, in draw order.
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut p = self.permutation(n);
        p.truncate(k);
        p
    }
}

/// Tile counts per dimension in the key space: small enough that one
/// miss costs about a millisecond of simulation.
pub const NT_RANGE: std::ops::RangeInclusive<usize> = 3..=8;

/// The served key space: every platform, operation, precision and GPU
/// cap configuration of the paper, at `NT_RANGE` tiles with the dmdas
/// and dmda schedulers. 4 752 configurations, all valid.
pub fn paper_space() -> Vec<RunConfig> {
    let mut out = Vec::new();
    for platform in PlatformId::ALL {
        let gpus = PlatformSpec::of(platform).gpu_count;
        for op in OpKind::ALL {
            for precision in Precision::ALL {
                for caps in CapConfig::all(gpus) {
                    for nt in NT_RANGE {
                        for scheduler in [SchedPolicy::Dmdas, SchedPolicy::Dmda] {
                            let mut cfg = RunConfig::paper(platform, op, precision)
                                .with_gpu_config(caps.clone())
                                .with_scheduler(scheduler);
                            cfg.n = nt * cfg.nb;
                            out.push(cfg);
                        }
                    }
                }
            }
        }
    }
    out
}

/// Zipf(s) over ranks `0..n`: P(rank k) ∝ 1 / (k + 1)^s, sampled by
/// binary search in the cumulative distribution.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        let zipf = Zipf::new(4752, 1.0);
        let draw = |seed: u64| {
            let mut r = Rng::stream(seed, 1);
            let keys: Vec<usize> = (0..200).map(|_| r.below(4752)).collect();
            let ranks: Vec<usize> = (0..200).map(|_| zipf.draw(&mut r)).collect();
            (keys, ranks, r.permutation(100))
        };
        assert_eq!(draw(7), draw(7));
        let (a, b) = (draw(7), draw(8));
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1);
        assert_ne!(a.2, b.2);
        // Streams of one seed are independent of each other.
        assert_ne!(Rng::stream(7, 0).next_u64(), Rng::stream(7, 1).next_u64());
    }

    #[test]
    fn zipf_cdf_is_the_harmonic_law() {
        let z = Zipf::new(1000, 1.0);
        let cdf = &z.cdf;
        assert!(cdf.windows(2).all(|w| w[0] < w[1]));
        assert!((cdf[999] - 1.0).abs() < 1e-12);
        let p = |k: usize| if k == 0 { cdf[0] } else { cdf[k] - cdf[k - 1] };
        assert!((p(0) / p(1) - 2.0).abs() < 1e-9);
        assert!((p(0) / p(9) - 10.0).abs() < 1e-9);
        let harmonic: f64 = (1..=1000).map(|k| 1.0 / k as f64).sum();
        assert!((p(0) - 1.0 / harmonic).abs() < 1e-12);
        // Empirical frequency of the top rank matches its probability.
        let mut rng = Rng::stream(3, 0);
        let n = 200_000;
        let top = (0..n).filter(|_| z.draw(&mut rng) == 0).count();
        assert!((top as f64 / n as f64 - p(0)).abs() < 0.005);
        // Every draw is in range, including u close to 1.
        assert!((0..10_000).all(|_| z.draw(&mut rng) < 1000));
    }

    #[test]
    fn paper_space_has_4752_valid_distinct_keys() {
        let space = paper_space();
        assert_eq!(space.len(), 4752);
        assert!(space.iter().all(|c| c.validate().is_ok()));
        let mut keys: Vec<u64> = space.iter().map(|c| c.cache_key().0).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 4752, "every config is its own cache key");
    }

    #[test]
    fn sample_and_permutation_are_distinct_indices() {
        let mut rng = Rng::stream(5, 0);
        let mut p = rng.permutation(500);
        p.sort_unstable();
        assert_eq!(p, (0..500).collect::<Vec<_>>());
        let mut s = rng.sample(500, 64);
        assert_eq!(s.len(), 64);
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 64);
    }
}
