//! # ugpc-analysis — static analysis for the ugpc stack
//!
//! Three layers of checking, from graph semantics down to source hygiene:
//!
//! 1. **Graph linter** ([`lint()`] / [`lint_with`]): re-derives the
//!    RAW/WAW/WAR hazard edges every task graph must contain from its
//!    declared `(DataId, AccessMode)` lists — independently of the
//!    runtime's own inference — and diffs them against the edges actually
//!    present. Missing hazard edges are classified as true races (no
//!    ordering path at all) or missing-direct-edge warnings (transitively
//!    still ordered); structural invariants (topological edges, sorted
//!    symmetric adjacency, registered handles) are re-checked rather than
//!    trusted. See [`lint::LintReport`].
//! 2. **Parallelism report** ([`parallelism::analyze`]): work/span
//!    summary of the DAG shape (critical path, max width, per-kind
//!    counts), printed by `repro --validate` alongside the findings.
//! 3. **Source audit** ([`lints`], `ugpc-audit` binary): a multi-rule
//!    lint driver over a shared source walker — unit hygiene
//!    (`raw-unit`), hash-order iteration guarding the byte-identical
//!    reply/golden invariants (`hash-iteration`), lock guards held
//!    across blocking calls (`lock-across-blocking`), and panic sites on
//!    service/worker request paths (`panic-path`) — with `lint:allow`
//!    markers, a committed baseline, and structured JSON findings; part
//!    of the CI gate.
//! 4. **Protocol model checking** ([`model`]): explicit-state DFS
//!    exploration of the serve layer's callback single-flight protocol
//!    and bounded worker-pool backpressure, exhaustively checking
//!    no-lost-callback, no-lost-wakeup, exactly-one-simulation-per-key,
//!    drop-propagated-failure, and bounded-queue invariants over every
//!    interleaving to bounded depth.
//!
//! The runtime's complementary *dynamic* checks (virtual-time
//! monotonicity, replica coherence, memory accounting, energy
//! conservation) live behind `ugpc-runtime`'s `sanitize` feature, which
//! this crate forwards.

pub mod lint;
pub mod lints;
pub mod model;
pub mod parallelism;
pub mod reach;

pub use lint::{lint, lint_with, Finding, FindingKind, Hazard, LintOptions, LintReport, Severity};
pub use lints::{AuditReport, SourceFinding};
pub use model::{CheckOutcome, Checker};
pub use parallelism::{analyze, KindCount, ParallelismReport};
pub use reach::Reachability;
