//! Multi-rule workspace lint driver.
//!
//! The PR-1 `ugpc-lint` binary was a single hard-coded scan (raw-`f64`
//! unit hygiene). This module generalizes it into an audit subsystem:
//!
//! * a [`Rule`] trait over the shared [`walker`] source model, so every
//!   rule gets comment/string stripping, `#[cfg(test)]` exemption, and
//!   `lint:allow <rule>` markers for free;
//! * four rules: [`units::RawUnitRule`] (the PR-1 scan), a
//!   [`determinism::HashIterationRule`] guarding the byte-identical
//!   reply/golden invariants, a [`locks::LockAcrossBlockingRule`]
//!   guarding the serve concurrency rewrite, and a
//!   [`panics::PanicPathRule`] for service/worker request paths;
//! * severity tiers reusing [`Severity`] and
//!   structured, deterministically ordered JSON findings;
//! * a committed baseline (`lint-baseline.json`) so a new rule can land
//!   while its pre-existing, justified findings are suppressed instead
//!   of forcing a flag-day fix — the CI gate fails only on
//!   **non-baselined error-tier** findings.
//!
//! Run it via `cargo run -p ugpc-analysis --bin ugpc-audit` (CI does).

pub mod determinism;
pub mod locks;
pub mod panics;
pub mod units;
pub mod walker;

use crate::lint::Severity;
use serde::Serialize;
use std::path::Path;
use walker::SourceFile;

/// One source-level finding.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SourceFinding {
    /// Rule id (kebab-case, the `lint:allow` token).
    pub rule: String,
    pub severity: Severity,
    /// Scan-root-relative path, `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// The offending identifier or matched snippet — the stable part of
    /// the baseline key (line numbers drift, idents rarely do).
    pub ident: String,
    pub message: String,
}

impl SourceFinding {
    /// Total deterministic order: severity (errors first), then file,
    /// line, rule, ident — the serialization order of every report.
    fn sort_key(&self) -> (std::cmp::Reverse<Severity>, &str, usize, &str, &str) {
        (
            std::cmp::Reverse(self.severity),
            &self.file,
            self.line,
            &self.rule,
            &self.ident,
        )
    }
}

impl std::fmt::Display for SourceFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tag = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        };
        write!(
            f,
            "{}:{}: [{tag}] {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A source lint over the walker's file model.
pub trait Rule {
    /// Stable kebab-case id; also the `lint:allow` token.
    fn id(&self) -> &'static str;
    /// One-line description for `ugpc-audit --rules`.
    fn description(&self) -> &'static str;
    /// Path-scoped rules narrow this (default: every file).
    fn applies(&self, rel_path: &str) -> bool {
        let _ = rel_path;
        true
    }
    /// Scan one file, pushing findings.
    fn check_file(&self, file: &SourceFile, out: &mut Vec<SourceFinding>);
}

/// The driver's rule set, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(units::RawUnitRule),
        Box::new(determinism::HashIterationRule),
        Box::new(locks::LockAcrossBlockingRule),
        Box::new(panics::PanicPathRule),
    ]
}

/// One baseline entry: a justified pre-existing finding. Matching is by
/// `(rule, file, ident)` — deliberately not by line, so unrelated edits
/// above a baselined site do not resurrect it.
#[derive(Debug, Clone, Serialize)]
pub struct BaselineEntry {
    pub rule: String,
    pub file: String,
    pub ident: String,
    pub justification: String,
}

/// The committed baseline (`lint-baseline.json` at the workspace root).
#[derive(Debug, Clone, Default, Serialize)]
pub struct Baseline {
    pub entries: Vec<BaselineEntry>,
}

impl Baseline {
    pub fn matches(&self, f: &SourceFinding) -> bool {
        self.entries
            .iter()
            .any(|e| e.rule == f.rule && e.file == f.file && e.ident == f.ident)
    }

    /// Parse the baseline JSON (a hand-editable, reviewed file — parse
    /// errors are reported, not ignored).
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let v = serde::json::parse(text).map_err(|e| format!("baseline does not parse: {e:?}"))?;
        let entries = v
            .get("entries")
            .and_then(|e| e.as_array())
            .ok_or("baseline has no `entries` array")?;
        let field = |e: &serde::json::Value, k: &str| -> Result<String, String> {
            Ok(e.get(k)
                .and_then(|s| s.as_str())
                .ok_or_else(|| format!("baseline entry missing `{k}`"))?
                .to_string())
        };
        let mut out = Vec::new();
        for e in entries {
            out.push(BaselineEntry {
                rule: field(e, "rule")?,
                file: field(e, "file")?,
                ident: field(e, "ident")?,
                justification: field(e, "justification")?,
            });
        }
        Ok(Baseline { entries: out })
    }

    pub fn load(path: &Path) -> Result<Baseline, String> {
        if !path.exists() {
            return Ok(Baseline::default());
        }
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text)
    }
}

/// The audit driver's result over one source tree.
#[derive(Debug, Clone, Serialize)]
pub struct AuditReport {
    /// Non-baselined findings, in `SourceFinding::sort_key` order.
    pub findings: Vec<SourceFinding>,
    /// Findings suppressed by the baseline (kept for the JSON artifact:
    /// a baselined finding is still a finding).
    pub suppressed: Vec<SourceFinding>,
    pub files_scanned: usize,
}

impl AuditReport {
    /// The CI gate: no non-baselined error-tier findings.
    pub fn is_clean(&self) -> bool {
        !self.findings.iter().any(|f| f.severity == Severity::Error)
    }

    pub fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == severity)
            .count()
    }

    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{f}");
        }
        let _ = writeln!(
            out,
            "audit: {} file(s), {} error(s), {} warning(s), {} info, {} baselined",
            self.files_scanned,
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
            self.suppressed.len(),
        );
        out
    }
}

/// Run `rules` over pre-walked `files`, splitting findings against the
/// baseline. The exported entry point for tests and fixture trees.
pub fn run_rules(
    files: &[SourceFile],
    rules: &[Box<dyn Rule>],
    baseline: &Baseline,
) -> AuditReport {
    let mut all = Vec::new();
    for rule in rules {
        for file in files {
            if rule.applies(&file.rel_path) {
                rule.check_file(file, &mut all);
            }
        }
    }
    // lint:allow must name the right rule; in_test filtering is
    // per-rule (some rules want test code too — none today).
    all.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    all.dedup();
    let (suppressed, findings) = all.into_iter().partition(|f| baseline.matches(f));
    AuditReport {
        findings,
        suppressed,
        files_scanned: files.len(),
    }
}

/// Audit the workspace at `root` with every rule and the committed
/// baseline (`root/lint-baseline.json`).
pub fn audit_workspace(root: &Path) -> Result<AuditReport, String> {
    let files = walker::walk_workspace(root).map_err(|e| format!("walking {root:?}: {e}"))?;
    let baseline = Baseline::load(&root.join("lint-baseline.json"))?;
    Ok(run_rules(&files, &all_rules(), &baseline))
}

/// Serialize findings as the JSON artifact CI uploads. Deterministic:
/// findings are already totally ordered.
pub fn findings_json(report: &AuditReport) -> String {
    serde_json::to_string_pretty(report).unwrap_or_else(|_| "{}".to_string())
}
