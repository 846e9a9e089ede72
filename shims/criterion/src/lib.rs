//! Offline shim for `criterion` (see `shims/README.md`).
//!
//! Provides the harness subset the `ugpc-bench` targets use:
//! `Criterion::benchmark_group`, `BenchmarkGroup::{throughput,
//! sample_size, bench_function, bench_with_input, finish}`,
//! `Bencher::iter`, `BenchmarkId`, `Throughput`, and the
//! `criterion_group!`/`criterion_main!` macros. Instead of criterion's
//! statistical engine it takes a handful of wall-clock samples per
//! benchmark and prints mean/min (plus element throughput when set) —
//! enough to compare paper configurations, not for micro-variance work.
//! Respects `--bench`/`--test` CLI noise that `cargo bench` passes.
//!
//! Two environment variables support a CI benchmark trajectory:
//! `UGPC_BENCH_JSON=<dir>` makes each harness write its results as
//! `<dir>/BENCH_<harness>.json` on exit (via `criterion_main!`), and
//! `UGPC_BENCH_SAMPLES=<n>` caps the per-benchmark sample count for
//! quick smoke runs.

use std::fmt::Display;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Target wall-clock spent measuring each benchmark.
const MEASURE_BUDGET: Duration = Duration::from_millis(300);

/// Results accumulated across every group of the harness, for the
/// optional JSON report.
static RESULTS: Mutex<Vec<BenchRecord>> = Mutex::new(Vec::new());

struct BenchRecord {
    group: String,
    label: String,
    samples: usize,
    mean_ns: u128,
    min_ns: u128,
    /// Elements or bytes per second, when a throughput was declared.
    rate: Option<f64>,
}

/// The smoke-run sample cap, if `UGPC_BENCH_SAMPLES` is set.
fn sample_cap() -> Option<usize> {
    std::env::var("UGPC_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
}

/// The harness name: executable file stem minus cargo's `-<hash>` suffix.
fn harness_stem() -> String {
    let stem = std::env::args()
        .next()
        .as_deref()
        .map(std::path::Path::new)
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "bench".to_string());
    strip_cargo_hash(&stem).to_string()
}

/// Cargo names bench executables `<name>-<16 hex digits>`.
fn strip_cargo_hash(stem: &str) -> &str {
    match stem.rsplit_once('-') {
        Some((base, hash)) if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) => {
            base
        }
        _ => stem,
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Write `BENCH_<harness>.json` into `$UGPC_BENCH_JSON` (no-op when the
/// variable is unset or nothing ran). Called by `criterion_main!` after
/// all groups finish.
pub fn write_json_report() {
    let Ok(dir) = std::env::var("UGPC_BENCH_JSON") else {
        return;
    };
    let records = std::mem::take(
        &mut *RESULTS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    );
    if records.is_empty() {
        return;
    }
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"bench\": \"{}\",\n",
        json_escape(&harness_stem())
    ));
    out.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"group\": \"{}\", \"label\": \"{}\", \"samples\": {}, \"mean_ns\": {}, \"min_ns\": {}",
            json_escape(&r.group),
            json_escape(&r.label),
            r.samples,
            r.mean_ns,
            r.min_ns,
        ));
        if let Some(rate) = r.rate {
            out.push_str(&format!(", \"rate_per_s\": {rate}"));
        }
        out.push_str(if i + 1 < records.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ]\n}\n");
    let dir = std::path::PathBuf::from(dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("criterion shim: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("BENCH_{}.json", harness_stem()));
    match std::fs::write(&path, out) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("criterion shim: cannot write {}: {e}", path.display()),
    }
}

#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

/// A benchmark identifier: `function_id/parameter`.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    pub fn new<S: Into<String>, P: Display>(function_id: S, parameter: P) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function_id.into(), parameter),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { label: s.into() }
    }
}

pub struct Bencher {
    samples: Vec<Duration>,
    max_samples: usize,
}

impl Bencher {
    /// Run `routine` repeatedly, recording one wall-clock sample per call,
    /// until the sample target or the time budget is reached.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let budget_start = Instant::now();
        // Warm-up call, not recorded.
        black_box(routine());
        while self.samples.len() < self.max_samples {
            let t0 = Instant::now();
            black_box(routine());
            self.samples.push(t0.elapsed());
            if budget_start.elapsed() > MEASURE_BUDGET {
                break;
            }
        }
    }
}

pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher {
            samples: Vec::new(),
            max_samples: self.effective_samples(),
        };
        f(&mut b);
        self.report(&id.label, &b.samples);
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher {
            samples: Vec::new(),
            max_samples: self.effective_samples(),
        };
        f(&mut b, input);
        self.report(&id.label, &b.samples);
        self
    }

    /// Requested sample size, clamped by the `UGPC_BENCH_SAMPLES` smoke cap.
    fn effective_samples(&self) -> usize {
        sample_cap().map_or(self.sample_size, |cap| self.sample_size.min(cap))
    }

    pub fn finish(self) {}

    fn report(&mut self, label: &str, samples: &[Duration]) {
        if samples.is_empty() {
            println!("{}/{label}: no samples", self.name);
            return;
        }
        let total: Duration = samples.iter().sum();
        let mean = total / samples.len() as u32;
        let min = samples.iter().min().copied().unwrap_or_default();
        let mut line = format!(
            "{}/{label}: mean {mean:?}, min {min:?} ({} samples)",
            self.name,
            samples.len(),
        );
        let mut rate = None;
        if let Some(tp) = self.throughput {
            let (count, unit) = match tp {
                Throughput::Elements(n) => (n, "elem/s"),
                Throughput::Bytes(n) => (n, "B/s"),
            };
            let r = count as f64 / mean.as_secs_f64();
            line.push_str(&format!(", {r:.3e} {unit}"));
            rate = Some(r);
        }
        println!("{line}");
        RESULTS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(BenchRecord {
                group: self.name.clone(),
                label: label.to_string(),
                samples: samples.len(),
                mean_ns: mean.as_nanos(),
                min_ns: min.as_nanos(),
                rate,
            });
        self.criterion.benchmarks_run += 1;
    }
}

#[derive(Default)]
pub struct Criterion {
    benchmarks_run: usize,
}

impl Criterion {
    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("== group {name} ==");
        BenchmarkGroup {
            criterion: self,
            name,
            throughput: None,
            sample_size: 20,
        }
    }

    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut group = self.benchmark_group(id);
        group.bench_function("base", f);
        group.finish();
        self
    }

    /// Hook for `criterion_main!` to degrade to a no-op compile check when
    /// the harness is invoked by `cargo test --benches`.
    pub fn configure_from_args(self) -> Self {
        self
    }
}

#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo test --benches` runs each harness with `--test`; a
            // compile-and-launch check is all that's wanted there.
            if std::env::args().any(|a| a == "--test") {
                return;
            }
            $($group();)+
            $crate::write_json_report();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_reports() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(5);
        group.throughput(Throughput::Elements(100));
        let mut runs = 0usize;
        group.bench_function("count", |b| {
            b.iter(|| {
                runs += 1;
                black_box(runs)
            })
        });
        group.bench_with_input(BenchmarkId::new("with_input", 3), &3usize, |b, &n| {
            b.iter(|| black_box(n * 2))
        });
        group.finish();
        // Warm-up + at least one sample.
        assert!(runs >= 2);
        assert_eq!(c.benchmarks_run, 2);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("gemm", 64).label, "gemm/64");
    }

    #[test]
    fn cargo_hash_suffix_is_stripped() {
        assert_eq!(
            strip_cargo_hash("fig1_cap_sweep-0123456789abcdef"),
            "fig1_cap_sweep"
        );
        // Not a hash: wrong length or non-hex.
        assert_eq!(strip_cargo_hash("fig1-cap"), "fig1-cap");
        assert_eq!(strip_cargo_hash("a-0123456789abcdeg"), "a-0123456789abcdeg");
        assert_eq!(strip_cargo_hash("plain"), "plain");
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(json_escape("x\ny"), "x\\u000ay");
        assert_eq!(json_escape("plain"), "plain");
    }
}
