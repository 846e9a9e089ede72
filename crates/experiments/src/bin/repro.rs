//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--validate] [--audit] [--smoke] [--explain] [--scale K] [--jobs N] [--queue Q] [--json DIR] [fig1|table1|table2|fig3|fig4|fig5|fig6|fig7|ablation|power|profile|control|all]...
//! repro --serve [ADDR] [--persist PATH]
//! repro --trace-out DIR [--scale K]
//! ```
//!
//! `--serve` skips the reproduction entirely and runs the `ugpc-serve`
//! simulation service on ADDR (default `127.0.0.1:7878`), blocking until
//! a client sends a `Shutdown` request. `--persist PATH` attaches the
//! append-log cache tier: results survive restarts and replay
//! byte-identically without re-simulating.
//! `--trace-out DIR` runs one instrumented POTRF and writes
//! `trace.json` (Perfetto/Chrome trace-event), `power.json` (per-device
//! power timeline) and `summary.json` (the run report) into DIR, then
//! self-validates the trace (parses, task count matches the report).
//! `--scale K` shrinks every task graph by K× (fewer tiles, same tile
//! size) for quick runs; the default 1 reproduces the paper's sizes.
//! `--jobs N` fans independent simulations over N worker threads
//! (default: available cores, also settable via `UGPC_JOBS`); `--jobs 1`
//! preserves the plain serial path. Output is byte-identical either way
//! — see `ugpc_experiments::driver`.
//! `--queue heap|calendar` picks the DES event-queue backend (also
//! settable via `UGPC_QUEUE`; default calendar). Both backends pop in
//! the same order, so output is byte-identical either way — this is a
//! performance knob, pinned by the queue-equivalence suite.
//! `--json DIR` additionally writes each experiment's raw data as JSON.
//! `--smoke` runs the cheap CI variant of experiments that have one
//! (currently `control`); the full-scale committed baselines are left
//! untouched.
//! `--explain` (with `control`) additionally dumps the controller's
//! per-device decision journal — every window score, quorum vote,
//! occupancy gate, and epsilon-guard outcome behind every re-cap. The
//! journal rides the same runs, so the study output is byte-identical
//! with or without it.
//! `--validate` lints the GEMM and POTRF task graphs (hazard-edge audit
//! plus a parallelism report) before anything else and fails the run on
//! errors; alone, it runs only the validation.
//! `--audit` runs the `ugpc-audit` source rules over the workspace
//! (same gate as CI: fails on non-baselined error-tier findings);
//! combines with `--validate` and, like it, runs alone if no
//! experiments are named.

use std::path::PathBuf;
use std::process::ExitCode;
use ugpc_experiments as ex;
use ugpc_hwsim::{GpuModel, Precision};

struct Args {
    scale: usize,
    json_dir: Option<PathBuf>,
    validate: bool,
    audit: bool,
    smoke: bool,
    explain: bool,
    serve: Option<String>,
    persist: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    experiments: Vec<String>,
}

const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7878";

const ALL: [&str; 16] = [
    "fig1",
    "table1",
    "table2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "ablation",
    "lu",
    "models",
    "placements",
    "mixed",
    "power",
    "profile",
    "control",
];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: 1,
        json_dir: None,
        validate: false,
        audit: false,
        smoke: false,
        explain: false,
        serve: None,
        persist: None,
        trace_out: None,
        experiments: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                args.scale = v.parse().map_err(|_| format!("bad scale {v:?}"))?;
                if args.scale == 0 {
                    return Err("scale must be >= 1".into());
                }
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad jobs {v:?}"))?;
                if n == 0 {
                    return Err("jobs must be >= 1".into());
                }
                ex::driver::set_jobs(n);
            }
            "--queue" => {
                let v = it.next().ok_or("--queue needs `heap` or `calendar`")?;
                let backend = v.parse()?;
                ugpc_runtime::set_backend_override(Some(backend));
            }
            "--json" => {
                let v = it.next().ok_or("--json needs a directory")?;
                args.json_dir = Some(PathBuf::from(v));
            }
            "--validate" => args.validate = true,
            "--audit" => args.audit = true,
            "--smoke" => args.smoke = true,
            "--explain" => args.explain = true,
            "--trace-out" => {
                let v = it.next().ok_or("--trace-out needs a directory")?;
                args.trace_out = Some(PathBuf::from(v));
            }
            "--serve" => {
                // Optional positional ADDR; the next token is an address
                // unless it is another flag or an experiment name.
                args.serve = Some(DEFAULT_SERVE_ADDR.to_string());
                // Peek is awkward with `args()`, so collect the rest.
                let rest: Vec<String> = it.by_ref().collect();
                let mut rest = rest.into_iter();
                let mut addr_given = false;
                while let Some(next) = rest.next() {
                    if next == "--persist" {
                        let v = rest.next().ok_or("--persist needs a path")?;
                        args.persist = Some(PathBuf::from(v));
                    } else if next.starts_with("--")
                        || ALL.contains(&next.as_str())
                        || next == "all"
                        || addr_given
                    {
                        return Err(format!("unexpected argument after --serve: {next:?}"));
                    } else {
                        args.serve = Some(next);
                        addr_given = true;
                    }
                }
            }
            "--persist" => {
                let v = it.next().ok_or("--persist needs a path")?;
                args.persist = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--validate] [--audit] [--smoke] [--explain] [--scale K] [--jobs N] [--queue Q] [--json DIR] [{}|all]...\n       repro --serve [ADDR] [--persist PATH]   (default {DEFAULT_SERVE_ADDR})\n       repro --trace-out DIR [--scale K]",
                    ALL.join("|")
                );
                std::process::exit(0);
            }
            "all" => args.experiments.extend(ALL.iter().map(|s| s.to_string())),
            e if ALL.contains(&e) => args.experiments.push(e.to_string()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.persist.is_some() && args.serve.is_none() {
        return Err("--persist only applies to --serve".into());
    }
    if args.explain && !args.experiments.iter().any(|e| e == "control") {
        return Err("--explain only applies to the `control` experiment".into());
    }
    // `repro --validate` / `--audit` alone run only those checks;
    // `--serve` and `--trace-out` never run experiments; everything
    // else keeps the run-all default.
    if args.experiments.is_empty()
        && !args.validate
        && !args.audit
        && args.serve.is_none()
        && args.trace_out.is_none()
    {
        args.experiments.extend(ALL.iter().map(|s| s.to_string()));
    }
    Ok(args)
}

/// Run the simulation service in the foreground until a client asks it
/// to shut down (`ugpc-serve`'s `Shutdown` request, or Ctrl-C).
fn serve(addr: &str, persist: Option<&std::path::Path>) -> ExitCode {
    use ugpc_serve::{ServeOptions, Server};
    let options = ServeOptions {
        persist_path: persist.map(std::path::Path::to_path_buf),
        ..ServeOptions::default()
    };
    let server = match Server::bind(addr, options) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "[serve] listening on {} (send a Shutdown request to stop)",
        server.local_addr()
    );
    server.run();
    eprintln!("[serve] stopped");
    ExitCode::SUCCESS
}

/// Run one instrumented POTRF (double, 2-V100 platform) and write the
/// Perfetto trace, the power timeline, and the run report into `dir`.
/// The written trace is validated before returning: it must parse as
/// JSON and carry exactly one task slice per executed task.
fn trace_run(dir: &std::path::Path, scale: usize) -> ExitCode {
    use ugpc_core::{try_run_study_with, RunConfig, StudyOptions};
    use ugpc_hwsim::{OpKind, PlatformId};
    use ugpc_runtime::{PerfettoSink, PowerTimeline, Progress};

    let cfg = RunConfig::paper(PlatformId::Intel2V100, OpKind::Potrf, Precision::Double)
        .scaled_down(scale)
        .with_records();
    eprintln!(
        "[trace] POTRF double on Intel2V100, nt = {} ({} tasks expected)",
        cfg.nt(),
        (cfg.nt() * (cfg.nt() + 1) * (cfg.nt() + 2)) / 6,
    );
    let mut sink = PerfettoSink::new();
    let mut timeline = PowerTimeline::new(64);
    let mut progress = Progress::every(100);
    let options = StudyOptions {
        observers: vec![&mut sink, &mut timeline, &mut progress],
        ..Default::default()
    };
    let report = match try_run_study_with(&cfg, options) {
        Ok(study) => study.report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace_json = sink.into_json();
    let power = timeline.into_profile();

    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let write = |name: &str, data: &str| -> bool {
        let path = dir.join(name);
        match std::fs::write(&path, data) {
            Ok(()) => {
                eprintln!("wrote {}", path.display());
                true
            }
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                false
            }
        }
    };
    let power_json = serde_json::to_string_pretty(&power).expect("serialize profile");
    let summary_json = serde_json::to_string_pretty(&report).expect("serialize report");
    if !(write("trace.json", &trace_json)
        && write("power.json", &power_json)
        && write("summary.json", &summary_json))
    {
        return ExitCode::FAILURE;
    }

    // Self-validation: the emitted trace must be well-formed JSON whose
    // task slices (complete events with a task id) match the run report.
    let parsed = match serde::json::parse(&trace_json) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: trace.json does not parse: {e:?}");
            return ExitCode::FAILURE;
        }
    };
    let Some(events) = parsed.get("traceEvents").and_then(|v| v.as_array()) else {
        eprintln!("error: trace.json has no traceEvents array");
        return ExitCode::FAILURE;
    };
    let task_slices = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("X")
                && e.get("args").is_some_and(|a| a.get("task").is_some())
        })
        .count();
    let tasks = report.cpu_tasks + report.gpu_tasks;
    if task_slices != tasks {
        eprintln!("error: trace has {task_slices} task slices, report counts {tasks} tasks");
        return ExitCode::FAILURE;
    }
    eprintln!("[trace] validated: {task_slices} task slices match the report");
    ExitCode::SUCCESS
}

fn write_json<T: serde::Serialize>(dir: &Option<PathBuf>, name: &str, value: &T) {
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).expect("create json dir");
        let path = dir.join(format!("{name}.json"));
        let data = serde_json::to_string_pretty(value).expect("serialize");
        std::fs::write(&path, data).expect("write json");
        eprintln!("wrote {}", path.display());
    }
}

/// Persist the control study as `BENCH_control.json`: into
/// `$UGPC_BENCH_JSON` when set (CI's artifact dir, same convention as
/// the Criterion shim), else — for full-scale runs only — refresh the
/// committed baseline in `results/bench/`. Smoke or scaled runs never
/// overwrite the committed file, whose acceptance bar
/// (`tests/control_bench.rs`) only the full-scale study meets.
fn write_bench_control(study: &ugpc_experiments::control::ControlStudy, smoke: bool, scale: usize) {
    let data = serde_json::to_string_pretty(study).expect("serialize control study");
    let path = if let Ok(dir) = std::env::var("UGPC_BENCH_JSON") {
        PathBuf::from(dir).join("BENCH_control.json")
    } else if !smoke && scale == 1 {
        match std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
        {
            Some(root) => root.join("results/bench/BENCH_control.json"),
            None => {
                eprintln!("error: cannot locate the workspace root");
                return;
            }
        }
    } else {
        eprintln!(
            "[control] not refreshing results/bench/BENCH_control.json \
             (smoke/scaled run; set UGPC_BENCH_JSON to capture the data)"
        );
        return;
    };
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create bench dir");
    }
    std::fs::write(&path, data).expect("write BENCH_control.json");
    eprintln!("wrote {}", path.display());
}

/// Lint the operations' task graphs at validation size (nt=16) and print
/// the hazard findings and the DAG-shape report. Returns whether every
/// graph came back clean.
fn validate_graphs() -> bool {
    use ugpc_linalg::ops::{build_gemm, build_potrf};
    use ugpc_runtime::DataRegistry;

    let nt = 16;
    let nb = 2880;
    let mut clean = true;
    let graphs = [
        ("gemm", {
            let mut reg = DataRegistry::new();
            let op = build_gemm(nt, nb, Precision::Double, &mut reg);
            (op.graph, reg)
        }),
        ("potrf", {
            let mut reg = DataRegistry::new();
            let op = build_potrf(nt, nb, Precision::Double, &mut reg);
            (op.graph, reg)
        }),
    ];
    for (name, (graph, reg)) in graphs {
        let report = ugpc_analysis::lint(&graph, &reg);
        println!("[validate] {name} nt={nt}: {report}");
        clean &= report.is_clean();
    }
    clean
}

/// Run the `ugpc-audit` source rules over the workspace with the
/// committed baseline — the same gate CI's `audit` leg enforces.
fn audit_sources() -> bool {
    let root = match std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
    {
        Some(r) => r,
        None => {
            eprintln!("error: cannot locate the workspace root");
            return false;
        }
    };
    match ugpc_analysis::audit_workspace(root) {
        Ok(report) => {
            print!("[audit] {}", report.render());
            report.is_clean()
        }
        Err(e) => {
            eprintln!("error: {e}");
            false
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(addr) = &args.serve {
        return serve(addr, args.persist.as_deref());
    }

    if let Some(dir) = &args.trace_out {
        return trace_run(dir, args.scale);
    }

    if args.validate && !validate_graphs() {
        eprintln!("error: task-graph validation failed");
        return ExitCode::FAILURE;
    }

    if args.audit && !audit_sources() {
        eprintln!("error: source audit failed");
        return ExitCode::FAILURE;
    }

    for exp in &args.experiments {
        let t0 = std::time::Instant::now();
        match exp.as_str() {
            "fig1" => {
                let fig = ex::fig1::run(GpuModel::A100Sxm4_40, 0.02);
                println!("{}", ex::fig1::render(&fig));
                write_json(&args.json_dir, "fig1", &fig);
            }
            "table1" => {
                let t = ex::table1::run();
                println!("{}", ex::table1::render(&t));
                write_json(&args.json_dir, "table1", &t);
            }
            "table2" => {
                let t = ex::table2::run();
                println!("{}", ex::table2::render(&t));
                write_json(&args.json_dir, "table2", &t);
            }
            "fig3" => {
                let fig = ex::fig34::run(Precision::Double, args.scale);
                println!("{}", ex::fig34::render_figure(&fig));
                write_json(&args.json_dir, "fig3", &fig);
            }
            "fig4" => {
                let fig = ex::fig34::run(Precision::Single, args.scale);
                println!("{}", ex::fig34::render_figure(&fig));
                write_json(&args.json_dir, "fig4", &fig);
            }
            "fig5" => {
                let fig = ex::fig5::run(args.scale);
                println!("{}", ex::fig5::render(&fig));
                write_json(&args.json_dir, "fig5", &fig);
            }
            "fig6" => {
                let fig = ex::fig6::run(args.scale);
                println!("{}", ex::fig6::render(&fig));
                write_json(&args.json_dir, "fig6", &fig);
            }
            "fig7" => {
                let fig = ex::fig7::run(args.scale);
                println!("{}", ex::fig7::render(&fig));
                write_json(&args.json_dir, "fig7", &fig);
            }
            "lu" => {
                let scale = args.scale.max(1);
                let nt = (20 / scale).max(4);
                for precision in [Precision::Double, Precision::Single] {
                    let l = ex::ext_lu::run(precision, nt, 2880);
                    println!("{}", ex::ext_lu::render(&l));
                    write_json(&args.json_dir, &format!("ext_lu_{}", precision.short()), &l);
                }
            }
            "mixed" => {
                let scale = args.scale.max(1);
                // Two regimes on the 4×A100 node: CPU-critical-path-bound
                // (small nt, mixed wins) and GPU-bound (large nt, break-
                // even on A100 because FP64 tensor ≈ FP32 peak).
                for (nt, config) in [(6usize, "HHHH"), (6, "BBBB"), (16, "HHHH"), (16, "BBBB")] {
                    let nt = (nt / scale).max(3);
                    let s = ex::ext_mixed::run(config, nt, 2880, 2);
                    println!("{}", ex::ext_mixed::render(&s));
                    write_json(
                        &args.json_dir,
                        &format!("ext_mixed_a100_{config}_nt{nt}"),
                        &s,
                    );
                }
            }
            "placements" => {
                for canonical in ["HHHB", "HHBB"] {
                    let s = ex::placements::run(canonical, args.scale);
                    println!("{}", ex::placements::render(&s));
                    write_json(&args.json_dir, &format!("placements_{canonical}"), &s);
                }
            }
            "models" => {
                let stale = ex::ext_models::run_stale_ablation(args.scale);
                println!("{}", ex::ext_models::render("Stale-model ablation", &stale));
                write_json(&args.json_dir, "ext_models_stale", &stale);
                let noise = ex::ext_models::run_noise_ablation(args.scale);
                println!(
                    "{}",
                    ex::ext_models::render("Calibration-noise ablation", &noise)
                );
                write_json(&args.json_dir, "ext_models_noise", &noise);
            }
            "power" => {
                let s = ex::power_profile::run(args.scale);
                println!("{}", ex::power_profile::render(&s));
                write_json(&args.json_dir, "power_profile", &s);
            }
            "profile" => {
                let s = ex::profile::run(args.scale);
                println!("{}", ex::profile::render(&s));
                write_json(&args.json_dir, "profile", &s);
            }
            "control" => {
                let (s, journals) = if args.smoke {
                    ex::control::run_smoke()
                } else {
                    ex::control::run_explained(args.scale)
                };
                println!("{}", ex::control::render(&s));
                if args.explain {
                    println!("{}", ex::control::render_explain(&journals));
                    write_json(&args.json_dir, "control_explain", &journals);
                }
                write_json(&args.json_dir, "control", &s);
                write_bench_control(&s, args.smoke, args.scale);
            }
            "ablation" => {
                for op in ugpc_hwsim::OpKind::ALL {
                    let a = ex::ablation::run_scheduler_ablation(op, args.scale);
                    println!("{}", ex::ablation::render_schedulers(&a));
                    write_json(
                        &args.json_dir,
                        &format!("ablation_sched_{}", op.name().to_lowercase()),
                        &a,
                    );
                }
                let d = ex::ablation::run_dynamic_ablation();
                println!("{}", ex::ablation::render_dynamic(&d));
                write_json(&args.json_dir, "ablation_dynamic", &d);
            }
            _ => unreachable!("validated in parse_args"),
        }
        eprintln!("[{exp} done in {:.1} s]", t0.elapsed().as_secs_f64());
    }
    ExitCode::SUCCESS
}
