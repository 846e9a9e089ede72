//! Audit-driver tests over the committed fixture tree.
//!
//! The fixture tree under `tests/fixtures/tree/` mimics workspace paths
//! (`crates/<crate>/src/<file>.rs`) with one deliberately bad file per
//! rule, one ordered-container file that must stay clean, and the
//! `#[cfg(test)]`-tail regression fixture for the PR-1 `ugpc-lint`
//! false negative. The full JSON report is pinned as a golden: any rule
//! change that alters a finding, its order, or its serialization shows
//! up as a diff here. Regenerate with
//! `UPDATE_GOLDENS=1 cargo test -p ugpc-analysis --test audit_driver`.

#![allow(clippy::unwrap_used)]

use std::path::{Path, PathBuf};
use ugpc_analysis::lints::walker::walk_tree;
use ugpc_analysis::lints::{all_rules, findings_json, run_rules, Baseline, BaselineEntry};
use ugpc_analysis::Severity;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tree")
}

fn audit_fixtures() -> ugpc_analysis::AuditReport {
    let files = walk_tree(&fixture_root()).expect("fixture tree walks");
    run_rules(&files, &all_rules(), &Baseline::default())
}

#[test]
fn fixture_tree_matches_golden() {
    let report = audit_fixtures();
    let json = findings_json(&report);
    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/audit_golden.json");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&golden_path, &json).expect("write golden");
        return;
    }
    let golden =
        std::fs::read_to_string(&golden_path).expect("golden exists (UPDATE_GOLDENS=1 to create)");
    assert_eq!(
        json.trim(),
        golden.trim(),
        "audit JSON drifted from the golden; if intended, regenerate with UPDATE_GOLDENS=1"
    );
}

#[test]
fn every_rule_fires_on_its_fixture() {
    let report = audit_fixtures();
    for rule in [
        "raw-unit",
        "hash-iteration",
        "lock-across-blocking",
        "panic-path",
    ] {
        assert!(
            report.findings.iter().any(|f| f.rule == rule),
            "rule `{rule}` produced no finding on its fixture:\n{}",
            report.render()
        );
    }
    assert_eq!(report.files_scanned, 7);
    assert!(!report.is_clean());
}

#[test]
fn ordered_containers_stay_clean() {
    let report = audit_fixtures();
    assert!(
        !report
            .findings
            .iter()
            .any(|f| f.file.contains("good_btree")),
        "BTreeMap/sorted-Vec fixture was flagged:\n{}",
        report.render()
    );
}

/// The PR-1 `ugpc-lint` stopped scanning at the first `#[cfg(test)]`,
/// exempting every line below it. Only the test module is exempt now:
/// the raw-unit violation *after* the module must be reported, the
/// identical patterns *inside* it must not.
#[test]
fn cfg_test_exemption_ends_with_the_module() {
    let report = audit_fixtures();
    let in_fixture: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.file.contains("cfg_test_tail"))
        .collect();
    assert_eq!(
        in_fixture.len(),
        1,
        "expected exactly the post-module finding:\n{}",
        report.render()
    );
    assert_eq!(in_fixture[0].rule, "raw-unit");
    assert_eq!(in_fixture[0].ident, "total_energy");
}

#[test]
fn allow_marker_suppresses_in_place() {
    let report = audit_fixtures();
    // schedule.rs has two hash-iteration sites; the `.values()` sum
    // carries a justified `lint:allow` marker and must not appear.
    let schedule: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.file.contains("schedule"))
        .collect();
    assert_eq!(schedule.len(), 1);
    assert!(schedule[0].message.contains("iter"));
}

/// Baseline entries match on `(rule, file, ident)` — not line — so the
/// committed baseline survives edits that shift line numbers.
#[test]
fn baseline_suppresses_by_ident_not_line() {
    let files = walk_tree(&fixture_root()).unwrap();
    let first = run_rules(&files, &all_rules(), &Baseline::default());
    let target = first
        .findings
        .iter()
        .find(|f| f.rule == "panic-path" && f.severity == Severity::Error)
        .expect("the handler fixture has a panic-path error");

    let baseline = Baseline {
        entries: vec![BaselineEntry {
            rule: target.rule.clone(),
            file: target.file.clone(),
            ident: target.ident.clone(),
            justification: "test entry".to_string(),
        }],
    };
    let second = run_rules(&files, &all_rules(), &baseline);
    assert_eq!(second.findings.len(), first.findings.len() - 1);
    assert!(second.suppressed.iter().any(|f| f == target));
    assert!(!second.findings.iter().any(|f| f == target));

    // Round-trip through the JSON the committed file uses.
    let json = format!(
        r#"{{"entries": [{{"rule": "{}", "file": "{}", "ident": {}, "justification": "x"}}]}}"#,
        target.rule,
        target.file,
        serde_json::to_string(&target.ident).unwrap(),
    );
    let parsed = Baseline::parse(&json).expect("baseline JSON parses");
    assert!(parsed.matches(target));
}

/// Findings are totally ordered: the report is byte-identical no matter
/// what order files arrive in.
#[test]
fn report_is_independent_of_file_order() {
    let mut files = walk_tree(&fixture_root()).unwrap();
    let forward = findings_json(&run_rules(&files, &all_rules(), &Baseline::default()));
    files.reverse();
    let backward = findings_json(&run_rules(&files, &all_rules(), &Baseline::default()));
    assert_eq!(forward, backward);
}

/// Pin the `--model` leg's interleaving counts. The audit binary prints
/// these as its evidence of exhaustiveness; a silent change in any
/// model's state space (a dropped transition, a collapsed state) would
/// otherwise look identical to a healthy run. Deliberate model changes
/// update these numbers alongside the model.
#[test]
fn model_interleaving_counts_are_pinned() {
    use ugpc_analysis::model::backpressure::Backpressure;
    use ugpc_analysis::model::controlplane::ControlPlaneModel;
    use ugpc_analysis::model::pool::PoolModel;
    use ugpc_analysis::model::singleflight::SingleFlight;
    use ugpc_analysis::model::{CheckOutcome, Checker, Model};

    fn counts<M: Model>(model: &M) -> (usize, usize, usize) {
        let out: CheckOutcome = Checker::default().run(model);
        assert!(out.verified(), "{:?}", out.violation);
        (out.states, out.transitions, out.terminals)
    }

    assert_eq!(counts(&SingleFlight::correct(1, 3)), (2611, 7686, 57));
    // Exactly the square of the 1-shard, 2-thread space (149, 312, 10):
    // 149² states, 2·149·312 transitions, 10² terminals — the sharded
    // composition factors (see `sharded_state_space_is_the_product_of_
    // its_shards` in the model's own tests).
    let one = counts(&SingleFlight::correct(1, 2));
    assert_eq!(one, (149, 312, 10));
    let two = counts(&SingleFlight::correct(2, 4));
    assert_eq!(two, (22201, 92976, 100));
    assert_eq!(two, (one.0 * one.0, 2 * one.0 * one.1, one.2 * one.2));
    assert_eq!(counts(&Backpressure::correct(2, 2, 1)), (291, 710, 3));
    assert_eq!(counts(&ControlPlaneModel::correct(6)), (575, 574, 169));
    assert_eq!(counts(&PoolModel::correct(2)), (4088, 7939, 1));
}
