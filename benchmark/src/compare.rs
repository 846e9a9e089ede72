//! Sets of runs and their comparison: `run` measures every workload
//! several times into a directory, `compare` judges two such
//! directories metric by metric against the bounds in `BENCHMARK.json`.

use crate::stats::{median, quartiles};
use crate::Workload;
use serde::json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// One metric as declared in `BENCHMARK.json`.
pub struct SpecMetric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the baseline median (0 for
    /// per-layer metrics, which have no bound).
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
pub struct Spec {
    pub run_seconds: u64,
    pub end_to_end: Vec<SpecMetric>,
    pub per_layer: Vec<SpecMetric>,
}

impl Spec {
    /// Read `BENCHMARK.json` from the working directory (the repository
    /// root).
    pub fn load() -> Result<Spec, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
        let doc = serde::json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let metrics = |key: &str| -> Result<Vec<SpecMetric>, String> {
            let list = doc
                .get(key)
                .and_then(Value::as_array)
                .ok_or(format!("BENCHMARK.json has no {key} list"))?;
            list.iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).map(str::to_string);
                    Ok(SpecMetric {
                        name: s("name").ok_or("metric without a name")?,
                        unit: s("unit").ok_or("metric without a unit")?,
                        lower_is_better: s("better").as_deref() == Some("lower"),
                        bound: m.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_u64)
                .ok_or("BENCHMARK.json has no run_seconds")?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// How a candidate set of runs compares with a baseline set on one
/// metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Wins at least 9 of 10 paired runs and the medians differ by more
    /// than the baseline's interquartile distance.
    Better,
    /// Within the bound.
    Same,
    /// Worse than the baseline median by more than the bound.
    Worse,
    /// The runs spread wider than the bound, so no claim either way.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge candidate runs `b` against baseline runs `a` (run `i` of each
/// form a pair).
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let beats = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let (ma, mb) = (median(a), median(b));
    let (qa, qb) = (quartiles(a), quartiles(b));
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|&(&x, &y)| beats(y, x)).count();
    if beats(mb, ma) && wins * 10 >= pairs * 9 && (mb - ma).abs() > qa[2] - qa[0] {
        return Verdict::Better;
    }
    let spread = ((qa[2] - qa[0]) / ma.abs()).max((qb[2] - qb[0]) / mb.abs());
    let every_run_better = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
    if spread > bound && !every_run_better {
        return Verdict::Unresolved;
    }
    let worse_by = (if lower_is_better { mb - ma } else { ma - mb }) / ma.abs();
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.windows(2)
        .find(|w| w[0] == name)
        .map(|w| w[1].as_str())
}

/// `run --seed S --runs N --out DIR [--workload W] [--seconds T]`:
/// measure each workload `N` times (seeds `S`, `S+1`, …), each run in
/// its own process, appending every result line to `DIR/<workload>.jsonl`.
pub fn run_sets(args: &[String]) -> Result<bool, String> {
    let spec = Spec::load()?;
    let parse = |name: &str| -> Result<Option<u64>, String> {
        flag(args, name)
            .map(|v| v.parse().map_err(|_| format!("bad {name} {v:?}")))
            .transpose()
    };
    let seed = parse("--seed")?.ok_or("run needs --seed")?;
    let runs = parse("--runs")?.unwrap_or(5);
    let seconds = parse("--seconds")?.unwrap_or(spec.run_seconds);
    let out = PathBuf::from(flag(args, "--out").ok_or("run needs --out DIR")?);
    let workloads = match flag(args, "--workload") {
        Some(w) => vec![Workload::parse(w)?],
        None => Workload::ALL.to_vec(),
    };
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for w in workloads {
        let mut lines = String::new();
        for i in 0..runs {
            let output = Command::new(&exe)
                .args(["--workload", w.name(), "--trace", "0"])
                .args(["--seed", &(seed + i).to_string()])
                .args(["--seconds", &seconds.to_string()])
                .stderr(Stdio::null())
                .output()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            if !output.status.success() {
                return Err(format!(
                    "{} seed {} failed ({})",
                    w.name(),
                    seed + i,
                    output.status
                ));
            }
            eprintln!("{} seed {}: {last}", w.name(), seed + i);
            lines.push_str(last);
            lines.push('\n');
        }
        let path = out.join(format!("{}.jsonl", w.name()));
        let mut all = std::fs::read_to_string(&path).unwrap_or_default();
        all.push_str(&lines);
        std::fs::write(&path, all).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(true)
}

/// Every value of `metric` in a set's result lines for `workload`.
fn values(dir: &Path, workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    let path = dir.join(format!("{workload}.jsonl"));
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            serde::json::parse(l)
                .ok()
                .and_then(|v| v.get("metrics")?.get(metric)?.get("value")?.as_f64())
                .ok_or(format!("{}: a line lacks {metric}", path.display()))
        })
        .collect()
}

/// `compare A B`: per workload and end-to-end metric, each set's median
/// and quartiles, the change, the bound and the verdict. Fails when any
/// pair is worse.
pub fn compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: compare BASELINE_DIR CANDIDATE_DIR".into());
    };
    let spec = Spec::load()?;
    let (a, b) = (Path::new(a), Path::new(b));
    println!(
        "{:<11} {:<15} {:>28} {:>28} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    let mut ok = true;
    for w in Workload::ALL {
        if !a.join(format!("{}.jsonl", w.name())).exists() {
            continue;
        }
        for m in &spec.end_to_end {
            let (va, vb) = (values(a, w.name(), &m.name)?, values(b, w.name(), &m.name)?);
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{} {}: no runs to compare", w.name(), m.name));
            }
            let v = verdict(&va, &vb, m.lower_is_better, m.bound);
            ok &= v != Verdict::Worse;
            let show = |v: &[f64]| {
                let q = quartiles(v);
                format!("{:.4} [{:.4}, {:.4}]", median(v), q[0], q[2])
            };
            println!(
                "{:<11} {:<15} {:>28} {:>28} {:>+7.1}% {:>5.0}%  {}",
                w.name(),
                m.name,
                show(&va),
                show(&vb),
                (median(&vb) / median(&va) - 1.0) * 100.0,
                m.bound * 100.0,
                v.label()
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, spread: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + spread * (i as f64 / 9.0 - 0.5)))
            .collect()
    }

    #[test]
    fn compare_verdicts() {
        let base = around(100.0, 0.02);
        // The same runs again: within any bound.
        assert_eq!(verdict(&base, &base, true, 0.05), Verdict::Same);
        // 3 % slower with a 5 % bound: still the same.
        assert_eq!(
            verdict(&base, &around(103.0, 0.02), true, 0.05),
            Verdict::Same
        );
        // 10 % slower: worse for a lower-is-better metric...
        assert_eq!(
            verdict(&base, &around(110.0, 0.02), true, 0.05),
            Verdict::Worse
        );
        // ...and better for a higher-is-better one.
        assert_eq!(
            verdict(&base, &around(110.0, 0.02), false, 0.05),
            Verdict::Better
        );
        // 10 % lower latency, every pair won: better.
        assert_eq!(
            verdict(&base, &around(90.0, 0.02), true, 0.05),
            Verdict::Better
        );
        // 10 % lower throughput: worse.
        assert_eq!(
            verdict(&base, &around(90.0, 0.02), false, 0.05),
            Verdict::Worse
        );
        // Runs spread ±20 % against a 5 % bound: no claim either way.
        let noisy = around(108.0, 0.4);
        assert_eq!(verdict(&base, &noisy, true, 0.05), Verdict::Unresolved);
        // A small gain that wins every pair but sits inside the
        // baseline's own quartiles is not a gain.
        let wide = around(100.0, 0.1);
        let nudged: Vec<f64> = wide.iter().map(|x| x - 0.5).collect();
        assert_eq!(verdict(&wide, &nudged, true, 0.25), Verdict::Same);
    }
}
