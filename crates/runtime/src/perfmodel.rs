//! History-based performance models, StarPU-style (§III-B).
//!
//! StarPU estimates task execution times from a per-(footprint, worker)
//! history of observed runs, built by a few calibration runs and refined
//! online. Crucially for the paper, **models are recalibrated after every
//! power-cap change**, which is how the dm/dmda/dmdas schedulers become
//! implicitly cap-aware: a capped GPU simply advertises longer predicted
//! times and receives fewer tasks.
//!
//! Alongside time, each entry also tracks observed energy, enabling the
//! energy-aware scheduler extension.
//!
//! Each footprint's row also keeps its entries' mean times in a dense
//! array, updated by [`PerfModel::observe`], which is what a scheduler
//! reads once per candidate worker.

use crate::task::Footprint;
use crate::worker::{Worker, WorkerId, WorkerKind};
use ugpc_hwsim::{Joules, Node, Secs};

/// Streaming mean/variance (Welford) of observed samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Stats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Stats {
    /// What `n` pushes of `x` into an empty `Stats` leave: the first
    /// sets the mean to `x` exactly, and each later one adds a zero
    /// delta.
    fn repeated(x: f64, n: u64) -> Self {
        Stats {
            count: n,
            mean: x,
            m2: 0.0,
        }
    }

    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> f64 {
        self.mean
    }

    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    time: Stats,
    energy: Stats,
}

impl Entry {
    /// An entry exists once it holds a sample; a zero-count slot in a
    /// row is a worker never observed on that footprint.
    fn observed(&self) -> bool {
        self.time.count() > 0
    }
}

/// One footprint's history, indexed by worker id.
#[derive(Debug, Clone)]
struct Row {
    fp: Footprint,
    entries: Vec<Entry>,
    /// Each entry's mean time, NaN where the worker was never observed
    /// (observed times are finite).
    times: Vec<f64>,
}

impl Row {
    /// Apply `f` to `worker`'s entry, growing the row to reach it, and
    /// refresh its dense mean time.
    fn update(&mut self, worker: WorkerId, f: impl FnOnce(&mut Entry)) {
        if self.entries.len() <= worker {
            self.entries.resize(worker + 1, Entry::default());
            self.times.resize(worker + 1, f64::NAN);
        }
        let e = &mut self.entries[worker];
        f(e);
        self.times[worker] = e.time.mean();
    }
}

/// The per-worker history model, stored as dense rows: one row per
/// footprint (in first-observation order), one entry per worker id.
#[derive(Debug, Clone, Default)]
pub struct PerfModel {
    rows: Vec<Row>,
    /// Samples required before an entry is considered calibrated
    /// (StarPU's `calibrate_minimum`, default 10; we default to 4).
    min_samples: u64,
    /// Multiplicative noise applied to calibration samples (relative
    /// standard deviation) — models real measurement jitter. 0 = exact.
    noise: f64,
    noise_state: u64,
}

/// One footprint's history row, looked up once per task so that costing
/// every candidate worker is an index, not a search.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PerfRow<'a> {
    model: &'a PerfModel,
    fp: Footprint,
    entries: &'a [Entry],
    times: &'a [f64],
}

impl PerfRow<'_> {
    fn entry(&self, worker: WorkerId) -> Option<&Entry> {
        self.entries.get(worker).filter(|e| e.observed())
    }

    /// [`PerfModel::expected_time`] for this row's footprint.
    pub(crate) fn expected_time(&self, worker: WorkerId) -> Option<Secs> {
        let t = *self.times.get(worker)?;
        (!t.is_nan()).then_some(Secs(t))
    }

    /// [`PerfModel::expected_energy`] for this row's footprint.
    pub(crate) fn expected_energy(&self, worker: WorkerId) -> Option<Joules> {
        self.entry(worker).map(|e| Joules(e.energy.mean()))
    }

    /// [`PerfModel::expected_time_or_extrapolate`] for this row's
    /// footprint.
    pub(crate) fn expected_time_or_extrapolate(&self, worker: WorkerId) -> Option<Secs> {
        self.expected_time(worker)
            .or_else(|| self.model.extrapolate(self.fp, worker))
    }
}

impl PerfModel {
    pub fn new() -> Self {
        PerfModel {
            rows: Vec::new(),
            min_samples: 4,
            noise: 0.0,
            noise_state: 0x9E3779B97F4A7C15,
        }
    }

    pub fn with_min_samples(mut self, n: u64) -> Self {
        self.min_samples = n.max(1);
        self
    }

    /// Apply seeded multiplicative noise to calibration samples — on real
    /// hardware, history entries carry measurement jitter; this lets the
    /// ablations quantify how much scheduling quality depends on model
    /// accuracy.
    pub fn with_calibration_noise(mut self, relative_sigma: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&relative_sigma),
            "sigma {relative_sigma}"
        );
        self.noise = relative_sigma;
        self.noise_state = seed | 1;
        self
    }

    /// A deterministic noise factor around 1.0 (uniform in
    /// `[1−σ√3, 1+σ√3]`, matching the requested standard deviation).
    fn noise_factor(&mut self) -> f64 {
        if self.noise == 0.0 {
            return 1.0;
        }
        // xorshift64*
        let mut x = self.noise_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.noise_state = x;
        let u = (x.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64;
        let half_width = self.noise * 3.0f64.sqrt();
        (1.0 + (2.0 * u - 1.0) * half_width).max(0.05)
    }

    /// A run sees a handful of footprints, so a scan finds a row.
    fn row_index(&self, fp: Footprint) -> Option<usize> {
        self.rows.iter().position(|r| r.fp == fp)
    }

    /// The history row of `fp` (empty if it was never observed).
    pub(crate) fn row(&self, fp: Footprint) -> PerfRow<'_> {
        let (entries, times) = match self.row_index(fp) {
            Some(i) => (
                self.rows[i].entries.as_slice(),
                self.rows[i].times.as_slice(),
            ),
            None => (&[][..], &[][..]),
        };
        PerfRow {
            model: self,
            fp,
            entries,
            times,
        }
    }

    /// The index of `fp`'s row, appended empty if it was never observed.
    fn row_index_or_push(&mut self, fp: Footprint) -> usize {
        self.row_index(fp).unwrap_or_else(|| {
            self.rows.push(Row {
                fp,
                entries: Vec::new(),
                times: Vec::new(),
            });
            self.rows.len() - 1
        })
    }

    /// Record an observed execution.
    pub fn observe(&mut self, fp: Footprint, worker: WorkerId, time: Secs, energy: Joules) {
        let i = self.row_index_or_push(fp);
        self.rows[i].update(worker, |e| {
            e.time.push(time.value());
            e.energy.push(energy.value());
        });
    }

    /// Expected execution time, if history exists for this exact key.
    pub fn expected_time(&self, fp: Footprint, worker: WorkerId) -> Option<Secs> {
        self.row(fp).expected_time(worker)
    }

    /// Expected energy of one execution, if history exists.
    pub fn expected_energy(&self, fp: Footprint, worker: WorkerId) -> Option<Joules> {
        self.row(fp).expected_energy(worker)
    }

    /// Expected time with a cubic-scaling regression fallback: when the
    /// exact tile size was never observed on this worker, extrapolate from
    /// another observed size of the same kernel via `t ∝ nb³` (StarPU's
    /// `STARPU_REGRESSION_BASED` model with the natural GEMM exponent).
    pub fn expected_time_or_extrapolate(&self, fp: Footprint, worker: WorkerId) -> Option<Secs> {
        self.row(fp).expected_time_or_extrapolate(worker)
    }

    /// The cubic fallback: the nearest observed `nb` for the same
    /// (kind, precision, worker), the smaller `nb` when two are equally
    /// near.
    fn extrapolate(&self, fp: Footprint, worker: WorkerId) -> Option<Secs> {
        self.rows
            .iter()
            .filter(|r| r.fp.kind == fp.kind && r.fp.precision == fp.precision)
            .filter_map(|r| Some((r.fp.nb, r.entries.get(worker).filter(|e| e.observed())?)))
            .min_by_key(|&(nb, _)| (nb.abs_diff(fp.nb), nb))
            .map(|(nb, e)| {
                let scale = (fp.nb as f64 / nb as f64).powi(3);
                Secs(e.time.mean() * scale)
            })
    }

    /// Is this (footprint, worker) entry calibrated?
    pub fn is_calibrated(&self, fp: Footprint, worker: WorkerId) -> bool {
        self.row(fp)
            .entry(worker)
            .is_some_and(|e| e.time.count() >= self.min_samples)
    }

    /// Number of distinct history entries.
    pub fn len(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.entries.iter().filter(|e| e.observed()).count())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Drop all history — the paper recalibrates "following each
    /// modification to the power capping settings".
    pub fn invalidate(&mut self) {
        self.rows.clear();
    }

    /// Calibration runs: execute each footprint `min_samples` times on
    /// every capable worker *at the current power caps* and record the
    /// observations. In the simulation, a calibration run is a device
    /// estimate (deterministic), so this is exact — on real hardware it
    /// would be noisy but unbiased. Every core of a package runs alike, so
    /// its estimate is solved once per package and footprint; the noise
    /// draws still go footprint by footprint, worker by worker, sample by
    /// sample. Without noise the samples are equal, so an entry with no
    /// history is filled in one step, bit-identical to `min_samples`
    /// pushes (`Stats::repeated`); an entry that already holds samples
    /// still takes them one by one, since its mean moves.
    pub fn calibrate(&mut self, node: &Node, workers: &[Worker], footprints: &[Footprint]) {
        let mut package_runs: Vec<Option<(Secs, Joules)>> = Vec::new();
        for &fp in footprints {
            let work = crate::task::TaskDesc::new(fp.kind, fp.precision, fp.nb).kernel_work();
            package_runs.clear();
            package_runs.resize(node.cpus().len(), None);
            // Looked up on the first fill, so a footprint no worker runs
            // adds no row.
            let mut row = None;
            for w in workers {
                let (time, energy) = match w.kind {
                    WorkerKind::Gpu { device } => {
                        if !fp.kind.gpu_capable() {
                            continue;
                        }
                        let run = node.gpu(device).estimate(&work);
                        (run.time, run.energy())
                    }
                    WorkerKind::CpuCore { package, .. } => *package_runs[package]
                        .get_or_insert_with(|| {
                            let flops = fp.kind.flops(fp.nb);
                            let run = node.cpus()[package].estimate(flops, fp.nb, fp.precision);
                            (run.time, run.core_power * run.time)
                        }),
                };
                let i = *row.get_or_insert_with(|| self.row_index_or_push(fp));
                let n = self.min_samples;
                let fresh = !self.rows[i].entries.get(w.id).is_some_and(Entry::observed);
                if self.noise == 0.0 && fresh {
                    self.rows[i].update(w.id, |e| {
                        e.time = Stats::repeated(time.value(), n);
                        e.energy = Stats::repeated(energy.value(), n);
                    });
                    continue;
                }
                for _ in 0..n {
                    let f = self.noise_factor();
                    self.observe(fp, w.id, time * f, energy * f);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::KernelKind;
    use crate::worker::build_workers;
    use ugpc_hwsim::{PlatformId, PlatformSpec, Precision, Watts};

    fn fp(kind: KernelKind, nb: usize) -> Footprint {
        Footprint {
            kind,
            precision: Precision::Double,
            nb,
        }
    }

    #[test]
    fn welford_stats() {
        let mut s = Stats::default();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn observe_and_query() {
        let mut m = PerfModel::new();
        let f = fp(KernelKind::Gemm, 2880);
        m.observe(f, 0, Secs(1.0), Joules(100.0));
        m.observe(f, 0, Secs(3.0), Joules(300.0));
        assert_eq!(m.expected_time(f, 0), Some(Secs(2.0)));
        assert_eq!(m.expected_energy(f, 0), Some(Joules(200.0)));
        assert_eq!(m.expected_time(f, 1), None);
        assert!(!m.is_calibrated(f, 0)); // needs 4 samples
        m.observe(f, 0, Secs(2.0), Joules(200.0));
        m.observe(f, 0, Secs(2.0), Joules(200.0));
        assert!(m.is_calibrated(f, 0));
    }

    #[test]
    fn cubic_extrapolation() {
        let mut m = PerfModel::new();
        let small = fp(KernelKind::Gemm, 1000);
        m.observe(small, 0, Secs(1.0), Joules(10.0));
        let big = fp(KernelKind::Gemm, 2000);
        let t = m.expected_time_or_extrapolate(big, 0).unwrap();
        assert!((t.value() - 8.0).abs() < 1e-9, "{t}");
        // No cross-worker or cross-kind leakage.
        assert!(m.expected_time_or_extrapolate(big, 1).is_none());
        let other = fp(KernelKind::Trsm, 2000);
        assert!(m.expected_time_or_extrapolate(other, 0).is_none());
    }

    #[test]
    fn extrapolation_breaks_distance_ties_toward_smaller_nb() {
        // 1000 and 3000 are equally far from 2000: the answer must not
        // depend on which footprint was observed first.
        for order in [[1000, 3000], [3000, 1000]] {
            for _ in 0..8 {
                let mut m = PerfModel::new();
                for nb in order {
                    m.observe(fp(KernelKind::Gemm, nb), 0, Secs(nb as f64), Joules(1.0));
                }
                let t = m
                    .expected_time_or_extrapolate(fp(KernelKind::Gemm, 2000), 0)
                    .unwrap();
                // From nb = 1000: 1000 s × (2000/1000)³.
                assert_eq!(t, Secs(8000.0));
            }
        }
    }

    #[test]
    fn rows_answer_like_the_model() {
        let mut m = PerfModel::new();
        let f = fp(KernelKind::Gemm, 2880);
        m.observe(f, 3, Secs(2.0), Joules(20.0));
        m.observe(fp(KernelKind::Gemm, 1440), 1, Secs(1.0), Joules(5.0));
        let row = m.row(f);
        for w in 0..5 {
            assert_eq!(row.expected_time(w), m.expected_time(f, w));
            assert_eq!(row.expected_energy(w), m.expected_energy(f, w));
            assert_eq!(
                row.expected_time_or_extrapolate(w),
                m.expected_time_or_extrapolate(f, w)
            );
        }
        // Worker 1 has no 2880 entry: the row falls back to the cubic
        // extrapolation from 1440.
        assert_eq!(row.expected_time(1), None);
        assert_eq!(row.expected_time_or_extrapolate(1), Some(Secs(8.0)));
        assert_eq!(m.len(), 2);
        assert!(m.row(fp(KernelKind::Trsm, 2880)).expected_time(3).is_none());
    }

    #[test]
    fn calibration_covers_capable_workers() {
        let node = Node::new(PlatformId::Intel2V100);
        let (workers, _) = build_workers(&PlatformSpec::of(PlatformId::Intel2V100));
        let mut m = PerfModel::new();
        let fps = [fp(KernelKind::Gemm, 2880), fp(KernelKind::Potrf, 2880)];
        m.calibrate(&node, &workers, &fps);
        let gpu_worker = workers.iter().find(|w| w.is_gpu()).unwrap().id;
        let cpu_worker = workers.iter().find(|w| !w.is_gpu()).unwrap().id;
        // GEMM on both; POTRF only on CPU (no cuBLAS implementation).
        assert!(m.is_calibrated(fps[0], gpu_worker));
        assert!(m.is_calibrated(fps[0], cpu_worker));
        assert!(!m.is_calibrated(fps[1], gpu_worker));
        assert!(m.is_calibrated(fps[1], cpu_worker));
        // GPU is much faster than a single CPU core on GEMM.
        let tg = m.expected_time(fps[0], gpu_worker).unwrap();
        let tc = m.expected_time(fps[0], cpu_worker).unwrap();
        assert!(
            tc.value() / tg.value() > 20.0,
            "ratio {}",
            tc.value() / tg.value()
        );
    }

    #[test]
    fn recalibration_reflects_caps() {
        // The paper's central mechanism: after capping, calibrated times
        // on that GPU grow, so the scheduler will send it fewer tasks.
        let mut node = Node::new(PlatformId::Amd4A100);
        let (workers, _) = build_workers(&PlatformSpec::of(PlatformId::Amd4A100));
        let fps = [fp(KernelKind::Gemm, 5760)];
        let gpu0 = workers.iter().find(|w| w.is_gpu()).unwrap().id;

        let mut before = PerfModel::new();
        before.calibrate(&node, &workers, &fps);
        let t_free = before.expected_time(fps[0], gpu0).unwrap();

        node.gpu_mut(0).set_power_limit(Watts(216.0)).unwrap();
        let mut after = PerfModel::new();
        after.calibrate(&node, &workers, &fps);
        let t_capped = after.expected_time(fps[0], gpu0).unwrap();

        assert!(t_capped.value() > t_free.value() * 1.1);
    }

    /// Calibration as `min_samples` separate noiseless pushes per
    /// (footprint, worker), the reference the one-step fill must match.
    fn calibrate_by_pushes(m: &mut PerfModel, node: &Node, workers: &[Worker], fps: &[Footprint]) {
        for &fp in fps {
            let work = crate::task::TaskDesc::new(fp.kind, fp.precision, fp.nb).kernel_work();
            for w in workers {
                let (time, energy) = match w.kind {
                    WorkerKind::Gpu { device } => {
                        if !fp.kind.gpu_capable() {
                            continue;
                        }
                        let run = node.gpu(device).estimate(&work);
                        (run.time, run.energy())
                    }
                    WorkerKind::CpuCore { package, .. } => {
                        let run = node.cpus()[package].estimate(
                            fp.kind.flops(fp.nb),
                            fp.nb,
                            fp.precision,
                        );
                        (run.time, run.core_power * run.time)
                    }
                };
                for _ in 0..m.min_samples {
                    m.observe(fp, w.id, time, energy);
                }
            }
        }
    }

    fn assert_same_bits(a: &PerfModel, b: &PerfModel) {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(a.rows.len(), b.rows.len());
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(ra.fp, rb.fp);
            assert_eq!(bits(&ra.times), bits(&rb.times), "{:?}", ra.fp);
            assert_eq!(ra.entries.len(), rb.entries.len());
            for (ea, eb) in ra.entries.iter().zip(&rb.entries) {
                for (sa, sb) in [(ea.time, eb.time), (ea.energy, eb.energy)] {
                    assert_eq!(sa.count(), sb.count());
                    assert_eq!(sa.mean().to_bits(), sb.mean().to_bits());
                    assert_eq!(sa.variance().to_bits(), sb.variance().to_bits());
                }
            }
        }
    }

    #[test]
    fn noiseless_fill_matches_repeated_pushes() {
        let fps = [
            fp(KernelKind::Gemm, 2880),
            fp(KernelKind::Potrf, 2880),
            fp(KernelKind::Trsm, 1920),
        ];
        for platform in [PlatformId::Intel2V100, PlatformId::Amd2A100] {
            let (workers, _) = build_workers(&PlatformSpec::of(platform));
            let gpu = workers.iter().find(|w| w.is_gpu()).unwrap().id;
            let cpu = workers.iter().find(|w| !w.is_gpu()).unwrap().id;
            let mut node = Node::new(platform);
            for capped in [false, true] {
                if capped {
                    for d in node.gpus_mut() {
                        let min = d.spec().min_cap;
                        d.set_power_limit(min).unwrap();
                    }
                }
                for pre_observed in [false, true] {
                    let (mut filled, mut pushed) = (PerfModel::new(), PerfModel::new());
                    if pre_observed {
                        // Stale samples, as when a model calibrated at other
                        // caps is calibrated again: these entries take
                        // per-sample pushes, the rest of their rows a fill.
                        for m in [&mut filled, &mut pushed] {
                            m.observe(fps[0], gpu, Secs(1.5), Joules(300.0));
                            m.observe(fps[0], gpu, Secs(2.5), Joules(310.0));
                            m.observe(fps[2], cpu, Secs(9.0), Joules(40.0));
                        }
                    }
                    filled.calibrate(&node, &workers, &fps);
                    calibrate_by_pushes(&mut pushed, &node, &workers, &fps);
                    assert_same_bits(&filled, &pushed);
                    assert!(filled.is_calibrated(fps[0], gpu));
                    if pre_observed {
                        assert_eq!(filled.row(fps[0]).entry(gpu).unwrap().time.count(), 6);
                    }
                }
            }
        }
    }

    #[test]
    fn noise_perturbs_calibration_reproducibly() {
        let node = Node::new(PlatformId::Intel2V100);
        let (workers, _) = build_workers(&PlatformSpec::of(PlatformId::Intel2V100));
        let fps = [fp(KernelKind::Gemm, 2880)];
        let exact = {
            let mut m = PerfModel::new();
            m.calibrate(&node, &workers, &fps);
            m.expected_time(fps[0], workers.len() - 1).unwrap()
        };
        let noisy = |seed: u64| {
            let mut m = PerfModel::new().with_calibration_noise(0.2, seed);
            m.calibrate(&node, &workers, &fps);
            m.expected_time(fps[0], workers.len() - 1).unwrap()
        };
        // Same seed: identical. Different seed: (almost surely) different.
        assert_eq!(noisy(1), noisy(1));
        assert_ne!(noisy(1), noisy(2));
        // Noise of 20 % keeps the mean within a plausible band.
        let n = noisy(1);
        assert!(
            (n.value() / exact.value() - 1.0).abs() < 0.5,
            "{n} vs {exact}"
        );
        // Zero sigma is exact.
        let mut m = PerfModel::new().with_calibration_noise(0.0, 3);
        m.calibrate(&node, &workers, &fps);
        assert_eq!(m.expected_time(fps[0], workers.len() - 1).unwrap(), exact);
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn excessive_noise_rejected() {
        let _ = PerfModel::new().with_calibration_noise(1.5, 1);
    }

    #[test]
    fn invalidate_clears_history() {
        let mut m = PerfModel::new();
        m.observe(fp(KernelKind::Gemm, 64), 0, Secs(1.0), Joules(1.0));
        assert!(!m.is_empty());
        m.invalidate();
        assert!(m.is_empty());
    }
}
