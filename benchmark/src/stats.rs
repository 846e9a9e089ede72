//! Order statistics: exact nearest-rank percentiles of small samples,
//! Python-compatible quartiles for comparing sets of runs, and a
//! fixed-size latency histogram whose memory does not grow with load.

/// Nearest-rank percentile of `values` (`0 < p <= 1`): the smallest
/// value with at least `p · n` values at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The middle value (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method) computes them. One value gives that value three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld == 1 {
        return [d[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    out
}

/// Sub-buckets per power of two: values are kept to within 1/128 of
/// their size, so a reported percentile is off by less than 0.4 %.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Powers of two covered: nanosecond values up to 2^40 ns (18 min).
const OCTAVES: usize = 40 - SUB_BITS as usize + 1;

/// Log-linear histogram of nanosecond latencies.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; SUB * (OCTAVES + 1)],
            total: 0,
        }
    }
}

impl Hist {
    fn index(ns: u64) -> usize {
        let ns = ns.min((1u64 << 40) - 1);
        if ns < SUB as u64 {
            return ns as usize;
        }
        let e = 63 - ns.leading_zeros();
        let shift = e - SUB_BITS;
        let mantissa = ((ns >> shift) as usize) & (SUB - 1);
        (shift as usize + 1) * SUB + mantissa
    }

    /// Midpoint of bucket `i`, in nanoseconds.
    fn value(i: usize) -> f64 {
        if i < SUB {
            return i as f64;
        }
        let shift = (i / SUB - 1) as u32;
        let lower = ((SUB + i % SUB) as u64) << shift;
        lower as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Nearest-rank percentile in milliseconds (`None` when empty).
    pub fn percentile_ms(&self, p: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((p * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::value(i) / 1e6);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_percentiles_on_known_arrays() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.999), 100.0);
        assert_eq!(percentile(&v, 0.01), 1.0);
        let small = [5.0, 1.0, 3.0];
        assert_eq!(percentile(&small, 0.5), 3.0);
        assert_eq!(percentile(&small, 0.99), 5.0);
        assert_eq!(percentile(&[7.5], 0.99), 7.5);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([3, 1, 2, 10, 4], n=4) == [1.5, 3.0, 7.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0, 4.0]), [1.5, 3.0, 7.0]);
    }

    #[test]
    fn histogram_percentiles_are_within_bucket_precision() {
        let mut h = Hist::default();
        let mut exact = Vec::new();
        // 1 µs .. 50 ms, spread over many octaves.
        for i in 0..20_000u64 {
            let ns = 1_000 + i * i * 125;
            h.record(ns);
            exact.push(ns as f64 / 1e6);
        }
        for p in [0.5, 0.9, 0.99, 0.999] {
            let want = percentile(&exact, p);
            let got = h.percentile_ms(p).expect("non-empty");
            assert!((got / want - 1.0).abs() < 0.004, "p{p}: {got} vs {want}");
        }
        // Small values are exact; merging adds counts.
        let mut a = Hist::default();
        a.record(3);
        let mut b = Hist::default();
        b.record(100);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.percentile_ms(0.3), Some(3e-6));
        assert_eq!(a.percentile_ms(1.0), Some(100e-6));
        assert_eq!(Hist::default().percentile_ms(0.5), None);
    }
}
