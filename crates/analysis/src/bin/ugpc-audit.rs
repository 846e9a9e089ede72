//! `ugpc-audit` — the multi-rule workspace lint driver's CLI.
//!
//! Runs every registered rule (see `ugpc_analysis::lints::all_rules`)
//! over the workspace source tree, diffs the findings against the
//! committed `lint-baseline.json`, and prints a deterministic report.
//!
//! ```text
//! ugpc-audit [--root DIR] [--json FILE] [--rules] [--model] [--strict]
//! ```
//!
//! * `--root DIR`   scan root (default: the workspace root containing
//!   this crate, so `cargo run -p ugpc-analysis --bin ugpc-audit` does
//!   the right thing from anywhere inside the repo)
//! * `--json FILE`  also write the full structured report (findings,
//!   suppressed/baselined findings, file count) as pretty JSON — the
//!   artifact CI uploads
//! * `--rules`      list rule ids and descriptions, then exit
//! * `--model`      exhaustively check the concurrency protocol models
//!   (single-flight cache, worker-pool backpressure, control-plane
//!   re-cap path) and report the interleaving counts; any violation
//!   fails the run
//! * `--strict`     exit non-zero on warnings too, not just errors
//!
//! Exit codes: `0` clean, `1` non-baselined error-tier findings (or any
//! findings under `--strict`), `2` usage / I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use ugpc_analysis::lints::{self, all_rules};
use ugpc_analysis::model::backpressure::Backpressure;
use ugpc_analysis::model::controlplane::ControlPlaneModel;
use ugpc_analysis::model::singleflight::SingleFlight;
use ugpc_analysis::model::{Checker, Model};

fn workspace_root() -> PathBuf {
    // crates/analysis -> crates -> workspace root
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .nth(2)
        .map(PathBuf::from)
        .unwrap_or(manifest)
}

fn usage() -> ExitCode {
    eprintln!("usage: ugpc-audit [--root DIR] [--json FILE] [--rules] [--model] [--strict]");
    ExitCode::from(2)
}

/// Exhaustively check one protocol model and print its interleaving
/// counts. Returns false (after printing the witness trace) on any
/// invariant violation or deadlock.
fn check_model<M: Model>(name: &str, model: &M) -> bool {
    let out = Checker::default().run(model);
    println!(
        "model {name}: {} state(s), {} transition(s), {} terminal(s){}",
        out.states,
        out.transitions,
        out.terminals,
        if out.truncated { " [truncated]" } else { "" },
    );
    match &out.violation {
        Some(v) => {
            println!("  VIOLATION: {}", v.message);
            for step in &v.trace {
                println!("    {step}");
            }
            false
        }
        None => out.verified(),
    }
}

/// The `--model` leg: the shipped protocols at the configurations the
/// transition-labeling tests in `ugpc-serve` exercise, plus the control
/// plane's re-cap path.
fn check_models() -> bool {
    let mut ok = true;
    ok &= check_model(
        "single-flight(shards=1, threads=3)",
        &SingleFlight::correct(1, 3),
    );
    ok &= check_model(
        "single-flight(shards=2, threads=4)",
        &SingleFlight::correct(2, 4),
    );
    ok &= check_model(
        "backpressure(clients=2, workers=2, capacity=1)",
        &Backpressure::correct(2, 2, 1),
    );
    ok &= check_model("control-plane(ticks=6)", &ControlPlaneModel::correct(6));
    ok
}

fn main() -> ExitCode {
    let mut root = workspace_root();
    let mut json_out: Option<PathBuf> = None;
    let mut list_rules = false;
    let mut model = false;
    let mut strict = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage(),
            },
            "--json" => match args.next() {
                Some(path) => json_out = Some(PathBuf::from(path)),
                None => return usage(),
            },
            "--rules" => list_rules = true,
            "--model" => model = true,
            "--strict" => strict = true,
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }

    if list_rules {
        for rule in all_rules() {
            println!("{:<22} {}", rule.id(), rule.description());
        }
        return ExitCode::SUCCESS;
    }

    if model && !check_models() {
        return ExitCode::FAILURE;
    }

    let report = match lints::audit_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ugpc-audit: {e}");
            return ExitCode::from(2);
        }
    };

    print!("{}", report.render());

    if let Some(path) = json_out {
        if let Err(e) = std::fs::write(&path, lints::findings_json(&report)) {
            eprintln!("ugpc-audit: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    let fail = if strict {
        !report.findings.is_empty()
    } else {
        !report.is_clean()
    };
    if fail {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
