//! # ugpc-serve — the concurrent simulation service
//!
//! The ROADMAP's serving layer: a long-lived, multi-threaded service
//! exposing the `ugpc-core` study API over a JSON-lines TCP protocol, so
//! external tooling (cluster-level capping studies, online sweet-spot
//! search, dashboards) can *query* the simulator instead of shelling out
//! to the one-shot `repro` binary.
//!
//! Three properties define the service contract:
//!
//! 1. **Byte-fidelity** — a served [`RunReport`](ugpc_core::RunReport)
//!    serializes to exactly the bytes a direct `run_study` call would
//!    produce (`examples/serve_roundtrip.rs` pins this).
//! 2. **Content-addressed reuse** — results are cached under the
//!    canonical [`RunConfig::cache_key`](ugpc_core::RunConfig::cache_key)
//!    with LRU bounding and single-flight deduplication: N concurrent
//!    identical requests cost one simulation and get N identical replies.
//! 3. **Graceful overload** — simulations run on a bounded worker pool;
//!    when the queue is full, requests get a structured `backpressure`
//!    error with a retry-after hint instead of an OOM or a dropped
//!    connection.
//!
//! ```no_run
//! use ugpc_serve::{Client, ServeOptions, Server};
//! use ugpc_core::RunConfig;
//! use ugpc_hwsim::{OpKind, PlatformId, Precision};
//!
//! let server = Server::bind("127.0.0.1:0", ServeOptions::default()).expect("bind");
//! let handle = server.spawn();
//! let mut client = Client::connect(handle.addr()).expect("connect");
//! let cfg = RunConfig::paper(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double)
//!     .scaled_down(4);
//! let report = client.run(cfg).expect("run");
//! println!("{} Gflop/s/W", report.efficiency_gflops_w);
//! handle.stop();
//! ```

pub mod cache;
pub mod client;
pub mod eventloop;
mod net;
pub mod persist;
pub mod pool;
pub mod protocol;
pub mod server;
pub mod service;
pub mod stats;

pub use cache::{PersistSnapshot, ResultCache};
pub use client::{Client, ClientError};
pub use persist::AppendLog;
pub use pool::WorkerPool;
pub use protocol::{
    error_code, ErrorReply, IntrospectReport, IntrospectRequest, PerfettoRun, PhaseLatency,
    Request, Response, RunRequest, SpanDump, MAX_DYNAMIC_ITERATIONS, MAX_LINE_BYTES, MAX_NT,
    MAX_POWER_BINS,
};
pub use server::{Server, ServerHandle};
pub use service::{ServeOptions, Service, CACHE_SHARDS, RECORDER_CAPACITY};
pub use stats::{CacheStats, OpLatency, PersistStats, ShardDepths, StatsReport};
pub use ugpc_telemetry::{Level, Logger, Registry, TraceCtx};
