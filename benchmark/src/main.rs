//! `ugpc-benchmark` — the repository's end-to-end and per-layer
//! benchmark. Run it from the repository root through `run.sh`, which
//! builds `repro`, this binary and `ugpc-calibrate` first:
//!
//! ```text
//! bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//! bash benchmark/run.sh run --seed N --runs K --out DIR [--workload W] [--seconds S]
//! bash benchmark/run.sh compare BASELINE_DIR CANDIDATE_DIR
//! bash benchmark/run.sh digests
//! ```
//!
//! A measurement prints every metric with its unit on standard error
//! and, as the last line of standard output, one JSON object:
//! `{"correct":true,"attempted":..,"failed":..,"metrics":{..}}` — the
//! end-to-end metrics of `BENCHMARK.json` with `--trace 0`, its
//! per-layer metrics with `--trace 1`. Any failed output check exits
//! nonzero without a result line. See `benchmark/README.md`.

mod calib;
mod compare;
mod inputs;
mod replay;
mod repro;
mod serve;
mod stats;

use serde::json::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// A traced interval: what ran, the span that caused it, and when
/// (nanoseconds since the traced phase began).
pub struct Span {
    name: String,
    cause: String,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    pub fn new(name: &str, cause: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.to_string(),
            cause: cause.to_string(),
            start_ns,
            end_ns,
        }
    }
}

/// What one measurement produced. `metrics` are exactly the ones
/// `BENCHMARK.json` lists for the mode; `extras` are printed and
/// written with `--out` but not reported to the result line.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub extras: Vec<Metric>,
    pub spans: Vec<Span>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReproAll,
    ServeHit,
    ServeMiss,
    ServeZipf,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ReproAll,
        Workload::ServeHit,
        Workload::ServeMiss,
        Workload::ServeZipf,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReproAll => "repro_all",
            Workload::ServeHit => "serve_hit",
            Workload::ServeMiss => "serve_miss",
            Workload::ServeZipf => "serve_zipf",
        }
    }

    pub fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload {s:?}"))
    }
}

/// A scratch directory under `.bench_tmp/` in the working directory,
/// removed with everything in it when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(label: &str) -> Result<TempDir, String> {
        let path = Path::new(".bench_tmp").join(format!("{label}-{}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run is using it.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// Peak resident set (`VmHWM`) of a process, or of this one, in MiB.
pub fn vm_hwm_mib(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut it = args.iter();
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        out,
    })
}

fn json_metrics(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                let v = Value::Object(vec![
                    ("value".into(), Value::Num(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]);
                (m.name.clone(), v)
            })
            .collect(),
    )
}

/// Check the outcome's metrics against the names and units that
/// `BENCHMARK.json` declares for this mode.
fn check_declared(outcome: &Outcome, trace: bool) -> Result<(), String> {
    let spec = compare::Spec::load()?;
    let declared = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut got: Vec<(&str, &str)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    let mut want: Vec<(&str, &str)> = declared
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    got.sort_unstable();
    want.sort_unstable();
    if got != want {
        return Err(format!(
            "emitted metrics {got:?} do not match BENCHMARK.json's {want:?}"
        ));
    }
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", m.name));
    }
    if !trace {
        if let Some(m) = outcome.metrics.iter().find(|m| m.value <= 0.0) {
            return Err(format!("end-to-end metric {} is not positive", m.name));
        }
    }
    Ok(())
}

fn measure(args: &[String]) -> Result<bool, String> {
    let args = parse_args(args)?;
    let tmp = TempDir::new(args.workload.name())?;
    let outcome = match args.workload {
        Workload::ReproAll => repro::run(args.seed, args.seconds, args.trace, &tmp)?,
        w => serve::run(w, args.seed, args.seconds, args.trace, &tmp)?,
    };
    drop(tmp);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    eprintln!(
        "{} seed {} ({} s, trace {}, {cores} cores): {} attempted, {} failed",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed
    );
    for m in outcome.metrics.iter().chain(&outcome.extras) {
        eprintln!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    check_declared(&outcome, args.trace)?;
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(true)),
        ("attempted".into(), Value::Num(outcome.attempted as f64)),
        ("failed".into(), Value::Num(outcome.failed as f64)),
        ("metrics".into(), json_metrics(&outcome.metrics)),
    ]);
    if let Some(dir) = &args.out {
        let spans = outcome
            .spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".into(), Value::Str(s.name.clone())),
                    ("cause".into(), Value::Str(s.cause.clone())),
                    ("start_us".into(), Value::Num(s.start_ns as f64 / 1e3)),
                    ("end_us".into(), Value::Num(s.end_ns as f64 / 1e3)),
                ])
            })
            .collect();
        let doc = Value::Object(vec![
            ("workload".into(), Value::Str(args.workload.name().into())),
            ("seed".into(), Value::Num(args.seed as f64)),
            ("seconds".into(), Value::Num(args.seconds as f64)),
            ("cores".into(), Value::Num(cores as f64)),
            ("result".into(), line.clone()),
            ("extras".into(), json_metrics(&outcome.extras)),
            ("spans".into(), Value::Array(spans)),
        ]);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!(
            "{}-seed{}-trace{}.json",
            args.workload.name(),
            args.seed,
            u8::from(args.trace)
        ));
        std::fs::write(&path, doc.to_json_pretty())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!("{}", line.to_json());
    Ok(true)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("error: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => compare::run_sets(&args[1..]),
        Some("compare") => compare::compare(&args[1..]),
        Some("digests") => {
            TempDir::new("digests").and_then(|t| repro::print_digests(&t).map(|()| true))
        }
        _ => measure(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
