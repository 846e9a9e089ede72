//! # ugpc-telemetry — unified service telemetry
//!
//! The observability layer shared by `ugpc-serve`, the experiment
//! drivers, and the runtime:
//!
//! - **Metrics registry** ([`Registry`]): named atomic [`Counter`]s,
//!   [`Gauge`]s, and log₂ latency [`Histogram`]s with a Prometheus
//!   text-exposition encoder ([`Registry::render`]). The histogram is the
//!   one `ugpc-serve` always used, generalized out of its stats module
//!   and given [`Histogram::merge`] for lock-free per-worker aggregation.
//! - **Trace context** ([`TraceCtx`]): 48-bit trace/span ids generated
//!   per request (or adopted from the client), hex-stamped on every
//!   structured log line and embedded in Perfetto exports, so a served
//!   run is joinable with server logs by one grep.
//! - **Structured logging** ([`Logger`]): leveled JSON-lines output with
//!   an `UGPC_LOG` env filter and a swappable sink for tests.
//! - **Request spans & flight recorder** ([`RequestSpans`],
//!   [`FlightRecorder`]): per-phase request timing with telescoping
//!   (exactly-summing) durations, journaled into per-shard mutex-guarded
//!   rings with zero hot-path allocation and drained on demand — the
//!   "why is p99 39 ms" answer behind the serve layer's `Introspect`.
//! - **Critical-path profiler** ([`CriticalPathProfiler`]): an
//!   `Observer` that replays the executor event stream against
//!   `TaskGraph::critical_path`, attributing makespan and busy energy to
//!   on-path vs off-path tasks per (device, kernel, precision) — the
//!   "where did the joules go" answer behind the paper's tables.

pub mod histogram;
pub mod log;
pub mod profiler;
pub mod recorder;
pub mod registry;
pub mod span;
pub mod trace;

pub use histogram::{bucket_index, Histogram, HistogramSnapshot, BUCKETS};
pub use log::{json_str, Level, Logger};
pub use profiler::{CriticalPathProfiler, GroupRow, HotTask, ProfileReport, WorkerRow};
pub use recorder::FlightRecorder;
pub use registry::{Counter, Gauge, Registry};
pub use span::{Phase, RequestSpans, SpanTree, PHASES};
pub use trace::{TraceCtx, ID_BITS};
