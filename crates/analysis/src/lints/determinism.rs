//! `hash-iteration` — flag `HashMap`/`HashSet` iteration.
//!
//! The repo's two load-bearing invariants — byte-identical serve replies
//! and bit-exact hotpath goldens — die silently the moment a hash-order
//! iteration leaks into anything serialized: the same run produces
//! different bytes across processes (`HashMap` iteration order is
//! randomized per process by SipHash keying, and even with a fixed
//! hasher it changes under insertion-order refactors). f64 *reductions*
//! over hash order are just as bad: floating-point addition is not
//! associative, so even an "order-independent" sum drifts bitwise.
//!
//! The rule is syntactic: it collects every binding (let, field, or
//! parameter) declared with a `HashMap`/`HashSet` type in the file, then
//! flags iteration over those bindings (`.iter()`, `.keys()`,
//! `.values()`, `.drain()`, `for … in &m`, …), including a method chain
//! split across lines — a binding that ends one line with the iteration
//! method starting the next code line. `BTreeMap`/`BTreeSet`/
//! sorted-`Vec` iteration is naturally never flagged — switching to an
//! ordered container is the canonical fix. Genuinely order-independent
//! consumers (`min` over unique keys, counting) take a
//! `lint:allow hash-iteration` marker with the justification in the
//! comment; pre-existing justified sites live in the baseline.

use super::walker::SourceFile;
use super::{Rule, SourceFinding};
use crate::lint::Severity;
use std::collections::BTreeSet;

const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".into_iter()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
];

/// Is `code[i]` the start of a word (not preceded by an ident char)?
fn word_boundary_before(code: &str, i: usize) -> bool {
    i == 0 || {
        let c = code.as_bytes()[i - 1];
        !(c.is_ascii_alphanumeric() || c == b'_')
    }
}

/// Collect the names declared with a hash-ordered type anywhere in the
/// file: `let [mut] name … = HashMap::new()`, `name: HashMap<…>` fields
/// and parameters, including through wrappers (`name: Mutex<HashMap<…>>`)
/// and path prefixes (`std::collections::HashMap`).
fn hash_bindings(file: &SourceFile) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for line in &file.lines {
        let code = &line.code;
        for ty in HASH_TYPES {
            let mut from = 0;
            while let Some(pos) = code[from..].find(ty) {
                let at = from + pos;
                from = at + ty.len();
                if !word_boundary_before(code, at) {
                    continue;
                }
                if let Some(name) = declared_name(code, at) {
                    names.insert(name);
                }
            }
        }
    }
    names
}

/// Given a hash-type occurrence at byte `at`, find the binding it
/// declares, if this line is a declaration.
fn declared_name(code: &str, at: usize) -> Option<String> {
    let head = &code[..at];
    // `name: [wrappers/path] HashMap` — accept a colon whose suffix up to
    // the type is only path/generic/reference syntax and `mut`.
    if let Some(colon) = head.rfind(':') {
        // Skip the second colon of a `::` path separator.
        let colon = if colon > 0 && head.as_bytes()[colon - 1] == b':' {
            head[..colon - 1].rfind(':').filter(|&c| {
                c == 0 || head.as_bytes()[c - 1] != b':' // plain `:`, not `::`
            })
        } else {
            Some(colon)
        };
        if let Some(colon) = colon {
            let between = &head[colon + 1..];
            let glue_ok = between
                .replace("mut", "")
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || " \t:<&>_".contains(c));
            if glue_ok {
                if let Some(ident) = super::units::ident_before(code, colon) {
                    return Some(ident.to_string());
                }
            }
        }
    }
    // `let [mut] name = HashMap::new()` / `with_capacity(…)`.
    if let Some(let_pos) = code.find("let ") {
        if let_pos < at && code[let_pos..at].contains('=') {
            let after = code[let_pos + 4..].trim_start();
            let after = after.strip_prefix("mut ").unwrap_or(after).trim_start();
            let name: String = after
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                return Some(name);
            }
        }
    }
    None
}

/// See the module docs.
pub struct HashIterationRule;

impl HashIterationRule {
    fn flag(
        &self,
        file: &SourceFile,
        line_number: usize,
        name: &str,
        how: &str,
        out: &mut Vec<SourceFinding>,
    ) {
        out.push(SourceFinding {
            rule: self.id().to_string(),
            severity: Severity::Error,
            file: file.rel_path.clone(),
            line: line_number,
            ident: name.to_string(),
            message: format!(
                "iteration over hash-ordered `{name}` ({how}) — order is nondeterministic; \
                 use BTreeMap/BTreeSet, sort before consuming, or justify with \
                 `lint:allow hash-iteration`"
            ),
        });
    }
}

impl Rule for HashIterationRule {
    fn id(&self) -> &'static str {
        "hash-iteration"
    }

    fn description(&self) -> &'static str {
        "HashMap/HashSet iteration (nondeterministic order leaking toward serialized output)"
    }

    fn check_file(&self, file: &SourceFile, out: &mut Vec<SourceFinding>) {
        let names = hash_bindings(file);
        if names.is_empty() {
            return;
        }
        for (i, line) in file.lines.iter().enumerate() {
            if line.in_test || line.allows(self.id()) {
                continue;
            }
            let code = &line.code;
            // `self.name` ending this line, `.iter()` starting the next
            // code line: flagged where the iteration starts.
            if let Some(next) = file.lines[i + 1..]
                .iter()
                .find(|l| !l.code.trim().is_empty())
                .filter(|l| !l.in_test && !l.allows(self.id()))
            {
                let head = next.code.trim_start();
                if let Some(m) = ITER_METHODS.iter().find(|m| head.starts_with(**m)) {
                    let tail = code.trim_end();
                    if let Some(name) = names.iter().find(|n| {
                        tail.ends_with(n.as_str())
                            && word_boundary_before(tail, tail.len() - n.len())
                    }) {
                        self.flag(file, next.number, name, m.trim_matches(['.', '(']), out);
                    }
                }
            }
            for name in &names {
                // `name.iter()` / `self.name.keys()` / …
                let mut from = 0;
                while let Some(pos) = code[from..].find(name.as_str()) {
                    let at = from + pos;
                    from = at + name.len();
                    if !word_boundary_before(code, at) {
                        continue;
                    }
                    let rest = &code[at + name.len()..];
                    if let Some(m) = ITER_METHODS.iter().find(|m| rest.starts_with(**m)) {
                        self.flag(file, line.number, name, m.trim_matches(['.', '(']), out);
                    }
                }
                // `for x in &name` / `for x in name` / `for x in &mut name`
                if let Some(in_pos) = code.find(" in ") {
                    if code.trim_start().starts_with("for ") {
                        let target = code[in_pos + 4..].trim_start();
                        let target = target.strip_prefix('&').unwrap_or(target);
                        let target = target.strip_prefix("mut ").unwrap_or(target).trim_start();
                        let target = target.strip_prefix("self.").unwrap_or(target);
                        let tok: String = target
                            .chars()
                            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                            .collect();
                        let after = &target[tok.len()..];
                        if tok == *name
                            && (after.is_empty()
                                || after.starts_with(' ')
                                || after.starts_with('{'))
                        {
                            self.flag(file, line.number, name, "for loop", out);
                        }
                    }
                }
            }
        }
    }
}
