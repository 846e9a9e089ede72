//! The `repro_all` workload: what a reproducer runs, `repro --jobs 2
//! all`, as a child process, with every output it writes checked
//! against committed digests.

use crate::calib::Calibrator;
use crate::inputs::Rng;
use crate::stats::{median, percentile};
use crate::{metric, replay, serve, Metric, Outcome, Span, TempDir};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use ugpc::experiments as ex;
use ugpc::hwsim::{OpKind, PlatformId, Precision};
use ugpc::prelude::SchedPolicy;
use ugpc::RunConfig;

/// Problem-size divisor: at 3 one `repro all` takes 1.0–1.4 s on the
/// two-core reference machine, so a run times many of them (the paper
/// scale, 1, takes 30 s).
const SCALE: usize = 3;
const JOBS: &str = "2";
/// `repro --validate` runs per set-up measurement.
const SETUPS: usize = 5;
/// How often the child's peak resident set is sampled.
const RSS_POLL: Duration = Duration::from_millis(20);

/// Digests of `repro --jobs 2 --scale 3 all`: its standard output and
/// every JSON file it writes. Regenerate with `ugpc-benchmark digests`.
const EXPECTED: &str = include_str!("../expected/repro_all.txt");

/// FNV-1a, 64-bit: a change detector for outputs, not a security hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn digest_line(name: &str, bytes: &[u8]) -> String {
    format!("{name} {} {:016x}", bytes.len(), fnv1a(bytes))
}

/// The committed digest lines, comments dropped.
fn expected() -> Vec<&'static str> {
    EXPECTED
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .collect()
}

/// Where `repro` was built: `$CARGO_TARGET_DIR/release`, else
/// `target/release`, relative to the working directory.
fn repro_bin() -> Result<PathBuf, String> {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let bin = PathBuf::from(dir).join("release").join("repro");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} not found: build it with `cargo build --release -p ugpc-experiments --bin repro`",
            bin.display()
        ))
    }
}

/// One `repro` invocation: wall-clock seconds and the child's peak
/// resident set (MiB, polled every `RSS_POLL`).
fn spawn_timed(cmd: &mut Command) -> Result<(f64, f64), String> {
    let t0 = Instant::now();
    let mut child = cmd.spawn().map_err(|e| format!("spawn repro: {e}"))?;
    let pid = child.id();
    let done = AtomicBool::new(false);
    let (status, rss) = std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            let mut peak: f64 = 0.0;
            while !done.load(Ordering::Acquire) {
                if let Ok(mib) = crate::vm_hwm_mib(Some(pid)) {
                    peak = peak.max(mib);
                }
                std::thread::sleep(RSS_POLL);
            }
            peak
        });
        let status = child.wait();
        done.store(true, Ordering::Release);
        (status, poller.join().unwrap_or(0.0))
    });
    let wall = t0.elapsed().as_secs_f64();
    let status = status.map_err(|e| format!("wait for repro: {e}"))?;
    if !status.success() {
        return Err(format!("repro exited with {status}"));
    }
    Ok((wall, rss))
}

/// Run `repro all` once in `dir` and return its digest lines (standard
/// output first, then every written file by name), wall time and RSS.
fn repro_all(bin: &Path, dir: &Path) -> Result<(Vec<String>, f64, f64), String> {
    let json = dir.join("json");
    std::fs::create_dir_all(&json).map_err(|e| format!("create {}: {e}", json.display()))?;
    let stdout_path = dir.join("stdout.txt");
    let stdout = std::fs::File::create(&stdout_path).map_err(|e| e.to_string())?;
    let (wall, rss) = spawn_timed(
        Command::new(bin)
            .args(["--jobs", JOBS, "--scale", &SCALE.to_string(), "--json"])
            .arg(&json)
            .arg("all")
            // Without it, a full-scale `repro` rewrites the committed
            // results/bench/BENCH_control.json.
            .env("UGPC_BENCH_JSON", &json)
            .stdout(stdout)
            .stderr(Stdio::null()),
    )?;
    let read = |p: &Path| std::fs::read(p).map_err(|e| format!("read {}: {e}", p.display()));
    let mut digests = vec![digest_line("stdout", &read(&stdout_path)?)];
    let mut names: Vec<String> = std::fs::read_dir(&json)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().into_owned()))
        .collect();
    names.sort();
    for name in names {
        digests.push(digest_line(&name, &read(&json.join(&name))?));
    }
    std::fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
    Ok((digests, wall, rss))
}

fn check_digests(got: &[String]) -> Result<(), String> {
    let want = expected();
    if got == want.as_slice() {
        return Ok(());
    }
    let mut diff = String::new();
    for line in got.iter().filter(|l| !want.contains(&l.as_str())) {
        diff.push_str(&format!("\n  got      {line}"));
    }
    for line in want.iter().filter(|l| !got.contains(&l.to_string())) {
        diff.push_str(&format!("\n  expected {line}"));
    }
    Err(format!(
        "repro outputs differ from benchmark/expected/repro_all.txt:{diff}"
    ))
}

/// Print the digest file for the current `repro` build.
pub fn print_digests(tmp: &TempDir) -> Result<(), String> {
    let (digests, _, _) = repro_all(&repro_bin()?, &tmp.path().join("digests"))?;
    println!("# repro --jobs {JOBS} --scale {SCALE} all: <output> <bytes> <fnv1a-64>");
    for d in digests {
        println!("{d}");
    }
    Ok(())
}

/// Operations per second, median and 90th-percentile latency (ms) of a
/// list of operation times in seconds, named with `prefix`.
fn timing(secs: &[f64], prefix: &str) -> Vec<Metric> {
    let ms: Vec<f64> = secs.iter().map(|s| s * 1e3).collect();
    let name = |n: &str| format!("{prefix}{n}");
    vec![
        metric(
            &name("throughput_ops"),
            secs.len() as f64 / secs.iter().sum::<f64>(),
            "1/s",
        ),
        metric(&name("latency_p50_ms"), median(&ms), "ms"),
        metric(&name("latency_p90_ms"), percentile(&ms, 0.9), "ms"),
    ]
}

pub fn run(seed: u64, seconds: u64, trace: bool, tmp: &TempDir) -> Result<Outcome, String> {
    if trace {
        return run_traced(seed);
    }
    let bin = repro_bin()?;
    // Set-up is not scaled: `repro --validate` is mostly process
    // start-up, which does not slow when other tenants load the host
    // (raw spread 0.4 % over ten runs where the calibration varied 12 %).
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let (wall, _) = spawn_timed(
            Command::new(&bin)
                .arg("--validate")
                .stdout(Stdio::null())
                .stderr(Stdio::null()),
        )?;
        setups.push(wall);
    }
    let mut cal = Calibrator::new()?;
    let start = Instant::now();
    let (mut walls, mut scaled, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    while walls.is_empty() || start.elapsed() < Duration::from_secs(seconds) {
        let dir = tmp.path().join(format!("run{}", walls.len()));
        let (digests, wall, peak) = repro_all(&bin, &dir)?;
        check_digests(&digests)?;
        walls.push(wall);
        scaled.push(wall / cal.after_unit()?);
        rss.push(peak);
    }
    let mut metrics = timing(&scaled, "");
    metrics.push(metric("rss_peak_mb", median(&rss), "MiB"));
    metrics.push(metric("setup_s", median(&setups), "s"));
    let mut extras = timing(&walls, "raw.");
    extras.push(metric("calib.slowdown", cal.median(), "ratio"));
    Ok(Outcome {
        attempted: walls.len() as u64,
        failed: 0,
        metrics,
        extras,
        spans: Vec::new(),
    })
}

fn find<T: Copy>(all: &[T], name: &str, name_of: impl Fn(T) -> String) -> Result<T, String> {
    all.iter()
        .copied()
        .find(|&x| name_of(x) == name)
        .ok_or_else(|| format!("unknown name {name:?} in an experiment row"))
}

/// The configuration behind one Fig. 3/4/6 ladder row.
fn ladder_config(l: &ex::unbalanced::Ladder, r: &ugpc::RunReport) -> Result<RunConfig, String> {
    let platform = find(&PlatformId::ALL, &l.platform, |p| p.name().to_string())?;
    let op = find(&OpKind::ALL, &l.op, |o| o.name().to_string())?;
    let precision = find(&Precision::ALL, &l.precision, |p| p.to_string())?;
    let scheduler = find(
        &[
            SchedPolicy::Dmdas,
            SchedPolicy::Dmda,
            SchedPolicy::Dm,
            SchedPolicy::Eager,
        ],
        &r.scheduler,
        |s| s.name().to_string(),
    )?;
    let mut cfg = RunConfig::paper(platform, op, precision)
        .with_gpu_config(r.gpu_config.parse().map_err(|e| format!("{e}"))?)
        .with_scheduler(scheduler);
    cfg.n = r.n;
    cfg.nb = r.nb;
    if l.cpu_capped {
        cfg = cfg.with_cpu_cap(ex::fig6::CPU_CAP.0, ex::fig6::CPU_CAP.1);
    }
    Ok(cfg)
}

/// Spans and output digests of experiment calls made in-process.
struct ExperimentCalls {
    epoch: Instant,
    spans: Vec<Span>,
    extras: Vec<Metric>,
    digests: Vec<String>,
}

impl ExperimentCalls {
    /// Time `f`, the call behind `repro`'s `name` experiment, and digest
    /// its output the way `repro --json` writes `<name>.json`.
    fn call<T: Serialize>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t0 = self.epoch.elapsed();
        let out = f();
        let t1 = self.epoch.elapsed();
        let (start, end) = (t0.as_nanos() as u64, t1.as_nanos() as u64);
        self.spans.push(Span::new(
            &format!("experiments.{name}"),
            "repro_all",
            start,
            end,
        ));
        self.extras.push(metric(
            &format!("experiments.{name}_s"),
            (t1 - t0).as_secs_f64(),
            "s",
        ));
        let json = serde_json::to_string_pretty(&out).unwrap_or_default();
        self.digests
            .push(digest_line(&format!("{name}.json"), json.as_bytes()));
        out
    }
}

/// What an experiment published for one configuration it ran.
enum Published {
    Report(Box<ugpc::RunReport>),
    Efficiency(f64),
}

/// The traced run: the figure experiments in-process with a span around
/// each call, every configuration of Figs. 3, 4, 6 and 7 rebuilt from
/// its output row and replayed layer by layer, and the same list served
/// through a fresh server.
fn run_traced(seed: u64) -> Result<Outcome, String> {
    ex::driver::set_jobs(replay::JOBS);
    let mut calls = ExperimentCalls {
        epoch: Instant::now(),
        spans: Vec::new(),
        extras: Vec::new(),
        digests: Vec::new(),
    };
    let fig3 = calls.call("fig3", || ex::fig34::run(Precision::Double, SCALE));
    let fig4 = calls.call("fig4", || ex::fig34::run(Precision::Single, SCALE));
    let fig6 = calls.call("fig6", || ex::fig6::run(SCALE));
    let fig7 = calls.call("fig7", || ex::fig7::run(SCALE));
    let control = calls.call("control", || ex::control::run(SCALE));
    let want = expected();
    if let Some(line) = calls.digests.iter().find(|l| !want.contains(&l.as_str())) {
        return Err(format!(
            "in-process experiment output {line} is not in the committed digests"
        ));
    }
    let ExperimentCalls {
        mut spans,
        mut extras,
        ..
    } = calls;
    extras.push(metric(
        "control.recaps",
        control
            .cases
            .iter()
            .flat_map(|c| &c.rows)
            .map(|r| r.recaps as f64)
            .sum(),
        "count",
    ));

    let mut rows: Vec<(RunConfig, Published)> = Vec::new();
    let ladders = fig3
        .ladders
        .iter()
        .chain(&fig4.ladders)
        .chain(fig6.cases.iter().flat_map(|c| [&c.uncapped, &c.capped]));
    for l in ladders {
        for r in &l.rows {
            rows.push((
                ladder_config(l, &r.report)?,
                Published::Report(Box::new(r.report.clone())),
            ));
        }
    }
    for s in &fig7.series {
        let platform = find(&PlatformId::ALL, &s.platform, |p| p.name().to_string())?;
        let op = find(&OpKind::ALL, &s.op, |o| o.name().to_string())?;
        let precision = find(&Precision::ALL, &s.precision, |p| p.to_string())?;
        for (config, eff) in &s.efficiency {
            let mut cfg = RunConfig::paper(platform, op, precision)
                .with_tile(s.nb)
                .scaled_down(SCALE)
                .with_gpu_config(config.parse().map_err(|e| format!("{e}"))?);
            if platform == PlatformId::Intel2V100 {
                cfg = cfg.with_cpu_cap(ex::fig6::CPU_CAP.0, ex::fig6::CPU_CAP.1);
            }
            rows.push((cfg, Published::Efficiency(*eff)));
        }
    }
    let requests: Vec<(RunConfig, Option<usize>)> =
        rows.iter().map(|(c, _)| (c.clone(), None)).collect();
    let layered = replay::layered(&requests)?;
    for ((_, published), report) in rows.iter().zip(&layered.reports) {
        let same = match published {
            Published::Report(p) => {
                serde_json::to_string(&**p).ok() == serde_json::to_string(report).ok()
            }
            Published::Efficiency(e) => e.to_bits() == report.efficiency_gflops_w.to_bits(),
        };
        if !same {
            return Err(format!(
                "replayed {} {} {} {} differs from the experiment's row",
                report.platform, report.op, report.precision, report.gpu_config
            ));
        }
    }
    spans.extend(layered.spans);
    let mut metrics = layered.metrics;

    // Serve the replay list in a seeded order, once cold and once warm.
    let order = Rng::stream(seed, 0).permutation(requests.len());
    let shuffled: Vec<_> = order.iter().map(|&i| requests[i].clone()).collect();
    let (load, serve_metrics) = serve::serve_list(shuffled)?;
    metrics.extend(serve_metrics);
    metrics.extend(load.client_metrics());
    Ok(Outcome {
        attempted: layered.lines.len() as u64,
        failed: 0,
        metrics,
        extras,
        spans,
    })
}
