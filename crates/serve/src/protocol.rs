//! The wire protocol: JSON lines over TCP, one request per line, one
//! response line per request, in order.
//!
//! ```text
//! -> {"Run": {"config": {...RunConfig...}, "record_tasks": false, "dynamic_iterations": null}}
//! <- {"Run": {...RunReport...}}
//! -> {"Stats": null}
//! <- {"Stats": {...StatsReport...}}
//! -> not json
//! <- {"Error": {"code": "bad_request", "message": "...", "retry_after_ms": null}}
//! ```
//!
//! Malformed input always gets a structured [`ErrorReply`] — the
//! connection is never dropped in response to bad bytes. The only error
//! carrying `retry_after_ms` is `backpressure` (the worker-pool queue was
//! full); clients should wait that long and resend.

use serde::{Deserialize, Serialize};
use ugpc_control::ControllerSpec;
use ugpc_core::{CacheKey, ControlledRun, DynamicStudyReport, RunConfig, RunReport, TracedRun};
use ugpc_telemetry::TraceCtx;

/// One simulation request: a full [`RunConfig`] plus service-level options.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRequest {
    pub config: RunConfig,
    /// Keep per-task records in the simulator trace (forces
    /// `config.keep_records`; part of the cache identity).
    pub record_tasks: bool,
    /// `Some(k)` runs the k-iteration dynamic-capping study instead of a
    /// single static run, answering with `Response::Dynamic`.
    pub dynamic_iterations: Option<usize>,
    /// `Some(bins)` attaches a power timeline with that many time bins
    /// and answers with `Response::Traced`. Mutually exclusive with
    /// `dynamic_iterations`. (`Option` so older clients' lines, which
    /// omit the field, still decode.)
    pub power_bins: Option<usize>,
    /// Client-supplied trace context. The server adopts it (masked to
    /// 48 bits) or mints a fresh one if absent, and stamps it on every
    /// log line for this request. Not part of the cache identity for
    /// plain runs — identical configs still share one simulation.
    pub trace: Option<TraceCtx>,
    /// `Some(true)` additionally exports the run as a Perfetto trace
    /// stamped with the trace context, answering with
    /// `Response::Perfetto`. Mutually exclusive with
    /// `dynamic_iterations` and `power_bins`. The resolved trace
    /// context *is* part of the cache identity here, because it is
    /// embedded in the response bytes.
    pub perfetto: Option<bool>,
    /// `Some(spec)` runs the study under the online sweet-spot
    /// controller, re-capping GPUs mid-run, and answers with
    /// `Response::Controlled`. Mutually exclusive with
    /// `dynamic_iterations`, `power_bins`, and `perfetto`. Part of the
    /// cache identity: a controlled run never aliases the static run of
    /// the same config, and distinct specs never alias each other.
    /// (`Option` so older clients' lines still decode.)
    pub controller: Option<ControllerSpec>,
}

impl RunRequest {
    pub fn new(config: RunConfig) -> Self {
        RunRequest {
            config,
            record_tasks: false,
            dynamic_iterations: None,
            power_bins: None,
            trace: None,
            perfetto: None,
            controller: None,
        }
    }

    /// Whether this request wants a Perfetto export.
    pub fn wants_perfetto(&self) -> bool {
        self.perfetto == Some(true)
    }

    /// The effective config the simulator will see (`record_tasks`
    /// folded in).
    pub fn effective_config(&self) -> RunConfig {
        let mut cfg = self.config.clone();
        cfg.keep_records |= self.record_tasks;
        cfg
    }

    /// Content-addressed identity of this request: the effective
    /// config's key, extended with the request kind and the dynamic
    /// iteration count so static and dynamic studies of the same config
    /// never alias.
    pub fn cache_key(&self) -> CacheKey {
        self.cache_key_with(&self.effective_config())
    }

    /// [`cache_key`](RunRequest::cache_key) with the effective config
    /// already at hand — the service's hot path computes it once for
    /// validation and reuses it here instead of recloning the config.
    pub fn cache_key_with(&self, effective: &RunConfig) -> CacheKey {
        let key = effective.cache_key();
        let mut tail = vec![0x10];
        match self.dynamic_iterations {
            None => tail.push(0x00),
            Some(k) => {
                tail.push(0x01);
                tail.extend_from_slice(&(k as u64).to_le_bytes());
            }
        }
        match self.power_bins {
            None => tail.push(0x00),
            Some(bins) => {
                tail.push(0x01);
                tail.extend_from_slice(&(bins as u64).to_le_bytes());
            }
        }
        // Perfetto responses embed the trace context in the exported
        // JSON, so the resolved ids join the identity; the service
        // normalizes `trace` before keying so a fresh server-minted ctx
        // never aliases another. Plain runs ignore `trace` entirely.
        if self.wants_perfetto() {
            tail.push(0x02);
            let (t, s) = match self.trace {
                Some(ctx) => (ctx.trace_id, ctx.span_id),
                None => (0, 0),
            };
            tail.extend_from_slice(&t.to_le_bytes());
            tail.extend_from_slice(&s.to_le_bytes());
        } else {
            tail.push(0x00);
        }
        // Appended segment (older layout ended above): the online
        // controller's canonical identity, so controlled runs never alias
        // static ones and distinct specs never alias each other.
        match &self.controller {
            None => tail.push(0x00),
            Some(spec) => {
                tail.push(0x01);
                tail.extend_from_slice(&spec.canonical_bytes());
            }
        }
        CacheKey(ugpc_core::key::fnv1a(key.0, &tail))
    }
}

/// Parameters of the [`Request::Introspect`] ops call. Every field is
/// optional-with-default so a bare `{"Introspect":{}}` line works from
/// `nc`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct IntrospectRequest {
    /// Return at most this many of the most recent span trees
    /// (default 16).
    pub last: Option<usize>,
    /// Return the worst-K span trees by total latency (default 8).
    pub worst: Option<usize>,
}

/// One span tree in an [`IntrospectReport`]: a request's root span and
/// its telescoped phase decomposition. `phases` durations sum to
/// `total_us` exactly (integer telescoping — see `ugpc_telemetry::span`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpanDump {
    /// Zero-padded lowercase-hex trace id (grep target in server logs).
    pub trace: String,
    /// Event-loop shard that served the request.
    pub shard: u64,
    /// Root-span open, µs since the recorder epoch.
    pub start_us: u64,
    /// Root-span total duration.
    pub total_us: u64,
    /// `(phase name, duration µs)` in pipeline order.
    pub phases: Vec<(String, u64)>,
}

/// Per-phase latency decomposition over every recorded request (the
/// phase histograms outlive the ring, so these cover the whole uptime).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseLatency {
    pub phase: String,
    pub count: u64,
    pub mean_us: f64,
    pub max_us: u64,
    /// log₂-bucket upper bound holding the median.
    pub p50_us: u64,
    /// log₂-bucket upper bound holding the 99th percentile.
    pub p99_us: u64,
}

/// The [`Request::Introspect`] response payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IntrospectReport {
    /// Whether a flight recorder is attached at all.
    pub enabled: bool,
    /// Requests ever recorded (ring overwrites included).
    pub recorded: u64,
    /// The last-N span trees, oldest first.
    pub spans: Vec<SpanDump>,
    /// The worst-K span trees by total latency, worst first.
    pub worst: Vec<SpanDump>,
    /// Per-phase p50/p99 decomposition, pipeline order, over every
    /// recorded request.
    pub phases: Vec<PhaseLatency>,
    /// Root-span (total request latency) decomposition.
    pub total: Option<PhaseLatency>,
}

/// Everything a client can ask the service.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Request {
    /// Simulate (or fetch from cache) one run.
    Run(RunRequest),
    /// Batch submission: one request line carrying N runs, answered as N
    /// ordered response lines (reply `i` answers run `i`; each run is
    /// validated, cached, and single-flighted independently). An empty
    /// batch is answered with zero lines; a batch beyond [`MAX_BATCH`]
    /// answers every slot with a `bad_request` error so the client's
    /// reply count always matches its request count.
    Batch(Vec<RunRequest>),
    /// Ops snapshot: uptime, queue, cache counters, latency histograms.
    Stats,
    /// Prometheus text exposition of every registered instrument.
    Metrics,
    /// Drop every cached result (used by benchmarks to measure the
    /// cache-miss path).
    ClearCache,
    /// Liveness probe.
    Ping,
    /// Drain the flight recorder: last-N spans, worst-K span trees by
    /// total latency, and the per-phase p50/p99 decomposition.
    Introspect(IntrospectRequest),
    /// Stop accepting connections and exit the serve loop.
    Shutdown,
}

/// Longest request line the service buffers, newline excluded: 1 MiB,
/// over 30 times the largest 64-slot batch line. A connection that sends
/// more without a newline is answered `bad_request` and closed.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Most tiles per dimension a run may ask for; a bigger config is
/// answered `invalid_config` (guards against graph-building DoS).
pub const MAX_NT: usize = 64;

/// Largest accepted `dynamic_iterations`.
pub const MAX_DYNAMIC_ITERATIONS: usize = 200;

/// Largest accepted `power_bins` (bounds the size of a traced reply).
pub const MAX_POWER_BINS: usize = 4096;

/// Largest accepted [`Request::Batch`]; a bigger batch answers every
/// slot with `bad_request`.
pub const MAX_BATCH: usize = 64;

/// Machine-readable error categories.
pub mod error_code {
    /// Not valid JSON, or JSON not matching the request schema.
    pub const BAD_REQUEST: &str = "bad_request";
    /// Config rejected by `RunConfig::validate` or service limits.
    pub const INVALID_CONFIG: &str = "invalid_config";
    /// Worker-pool queue full; retry after `retry_after_ms`.
    pub const BACKPRESSURE: &str = "backpressure";
    /// The simulation worker failed; nothing was cached.
    pub const INTERNAL: &str = "internal";
}

/// A structured error reply (never a dropped connection).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorReply {
    /// One of the [`error_code`] constants.
    pub code: String,
    pub message: String,
    /// Set only for `backpressure`: how long to wait before resending.
    pub retry_after_ms: Option<u64>,
}

impl ErrorReply {
    pub fn new(code: &str, message: impl Into<String>) -> Self {
        ErrorReply {
            code: code.to_string(),
            message: message.into(),
            retry_after_ms: None,
        }
    }

    pub fn backpressure(retry_after_ms: u64, queue_depth: usize) -> Self {
        ErrorReply {
            code: error_code::BACKPRESSURE.to_string(),
            message: format!("worker queue full ({queue_depth} requests queued)"),
            retry_after_ms: Some(retry_after_ms),
        }
    }
}

/// A run report plus its Perfetto export, stamped with the trace
/// context that identifies this request in the server's logs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfettoRun {
    pub report: RunReport,
    /// Resolved trace id, zero-padded lowercase hex.
    pub trace_id: String,
    pub span_id: String,
    /// Chrome/Perfetto trace-event JSON with the trace context embedded
    /// as a `trace_context` metadata record.
    pub trace_json: String,
}

/// Every possible response line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Response {
    Run(RunReport),
    Dynamic(DynamicStudyReport),
    Traced(TracedRun),
    Controlled(ControlledRun),
    Perfetto(PerfettoRun),
    Stats(crate::stats::StatsReport),
    Metrics(String),
    Introspect(IntrospectReport),
    Pong,
    CacheCleared,
    ShuttingDown,
    Error(ErrorReply),
}

/// Encode one protocol message as its wire line (no trailing newline).
pub fn encode<T: Serialize>(msg: &T) -> String {
    // The shim's value model is infallible for derived types.
    serde_json::to_string(msg).unwrap_or_else(|e| {
        format!(
            "{{\"Error\":{{\"code\":\"internal\",\"message\":\"encode: {e:?}\",\"retry_after_ms\":null}}}}"
        )
    })
}

/// Decode one wire line.
pub fn decode<T: Deserialize>(line: &str) -> Result<T, String> {
    serde_json::from_str(line).map_err(|e| format!("{e:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugpc_hwsim::{OpKind, PlatformId, Precision};

    fn req() -> RunRequest {
        RunRequest::new(
            RunConfig::paper(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double).scaled_down(4),
        )
    }

    #[test]
    fn request_round_trips() {
        let mut traced = req();
        traced.trace = Some(TraceCtx {
            trace_id: 0xdead_beef_cafe,
            span_id: 0x0123_4567_89ab,
        });
        traced.perfetto = Some(true);
        let mut dynamic = req();
        dynamic.dynamic_iterations = Some(3);
        for r in [
            Request::Run(req()),
            Request::Run(traced),
            Request::Batch(vec![]),
            Request::Batch(vec![req(), dynamic]),
            Request::Stats,
            Request::Metrics,
            Request::ClearCache,
            Request::Ping,
            Request::Introspect(IntrospectRequest::default()),
            Request::Introspect(IntrospectRequest {
                last: Some(4),
                worst: Some(2),
            }),
            Request::Shutdown,
        ] {
            let line = encode(&r);
            assert!(!line.contains('\n'), "wire lines must be single-line");
            let back: Request = decode(&line).expect("decode");
            assert_eq!(encode(&back), line, "re-encode differs for {line}");
        }
    }

    #[test]
    fn error_reply_round_trips() {
        let e = Response::Error(ErrorReply::backpressure(25, 64));
        let back: Response = decode(&encode(&e)).expect("decode");
        match back {
            Response::Error(err) => {
                assert_eq!(err.code, error_code::BACKPRESSURE);
                assert_eq!(err.retry_after_ms, Some(25));
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn introspect_report_round_trips() {
        let report = Response::Introspect(IntrospectReport {
            enabled: true,
            recorded: 42,
            spans: vec![SpanDump {
                trace: "00000000000abc".to_string(),
                shard: 3,
                start_us: 100,
                total_us: 900,
                phases: vec![("parse".to_string(), 7), ("simulate".to_string(), 893)],
            }],
            worst: vec![],
            phases: vec![PhaseLatency {
                phase: "simulate".to_string(),
                count: 10,
                mean_us: 812.5,
                max_us: 2000,
                p50_us: 1024,
                p99_us: 2048,
            }],
            total: None,
        });
        let back: Response = decode(&encode(&report)).expect("decode");
        let Response::Introspect(got) = back else {
            panic!("wrong variant");
        };
        assert!(got.enabled);
        assert_eq!(got.recorded, 42);
        assert_eq!(got.spans.len(), 1);
        assert_eq!(got.spans[0].phases[1].1, 893);
        assert_eq!(
            got.spans[0].phases.iter().map(|&(_, d)| d).sum::<u64>(),
            got.spans[0].total_us,
            "phase sums must telescope to the total over the wire too"
        );
        assert_eq!(got.phases[0].p99_us, 2048);
        assert!(got.total.is_none());
        // A bare ops call decodes with every field defaulted.
        let bare: Request = decode("{\"Introspect\":{}}").expect("bare line");
        let Request::Introspect(r) = bare else {
            panic!("wrong variant");
        };
        assert_eq!(r.last, None);
        assert_eq!(r.worst, None);
    }

    #[test]
    fn garbage_decodes_to_err_not_panic() {
        assert!(decode::<Request>("not json").is_err());
        assert!(decode::<Request>("{\"Nope\": 1}").is_err());
        assert!(decode::<Request>("").is_err());
    }

    #[test]
    fn static_and_dynamic_keys_differ() {
        let stat = req();
        let mut dyn5 = req();
        dyn5.dynamic_iterations = Some(5);
        let mut dyn6 = req();
        dyn6.dynamic_iterations = Some(6);
        assert_ne!(stat.cache_key(), dyn5.cache_key());
        assert_ne!(dyn5.cache_key(), dyn6.cache_key());
        // Traced requests never alias plain or differently-binned ones.
        let mut traced32 = req();
        traced32.power_bins = Some(32);
        let mut traced64 = req();
        traced64.power_bins = Some(64);
        assert_ne!(stat.cache_key(), traced32.cache_key());
        assert_ne!(traced32.cache_key(), traced64.cache_key());
        // record_tasks is part of the identity (it changes the effective
        // config), but two requests with the same effective config share
        // a key.
        let mut recorded = req();
        recorded.record_tasks = true;
        assert_ne!(stat.cache_key(), recorded.cache_key());
        let mut explicit = req();
        explicit.config.keep_records = true;
        assert_eq!(recorded.cache_key(), explicit.cache_key());
    }

    #[test]
    fn controlled_keys_never_alias_static_over_the_wire() {
        use ugpc_control::ObjectiveKind;
        let plain = req();
        let mut keys = vec![plain.cache_key()];
        for spec in [
            ControllerSpec::new(ObjectiveKind::GflopsPerWatt),
            ControllerSpec::new(ObjectiveKind::Edp),
            ControllerSpec::new(ObjectiveKind::GflopsPerWatt).with_period(0.25),
            ControllerSpec::new(ObjectiveKind::GflopsPerWatt).disabled(),
        ] {
            let mut controlled = req();
            controlled.controller = Some(spec);
            keys.push(controlled.cache_key());
        }
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "keys {i} and {j} collide");
            }
        }
        // And the request round-trips the spec over the wire.
        let mut controlled = req();
        controlled.controller =
            Some(ControllerSpec::new(ObjectiveKind::PerfFloor).with_perf_floor(0.9));
        let line = encode(&Request::Run(controlled.clone()));
        let back: Request = decode(&line).expect("decode");
        let Request::Run(got) = back else {
            panic!("wrong variant");
        };
        assert_eq!(got.controller, controlled.controller);
        assert_eq!(got.cache_key(), controlled.cache_key());
        // Old wire lines, which omit the field entirely, still decode —
        // as a plain run with the unchanged plain key.
        let legacy = encode(&Request::Run(plain.clone())).replace(",\"controller\":null", "");
        assert!(!legacy.contains("controller"), "field not stripped");
        let Request::Run(old) = decode::<Request>(&legacy).expect("legacy line decodes") else {
            panic!("wrong variant");
        };
        assert!(old.controller.is_none());
        assert_eq!(old.cache_key(), plain.cache_key());
    }

    #[test]
    fn perfetto_keys_include_trace_identity() {
        let plain = req();
        let mut perf = req();
        perf.perfetto = Some(true);
        assert_ne!(plain.cache_key(), perf.cache_key());
        // Distinct trace contexts never alias: the exported JSON embeds
        // the ids, so the cached bytes differ.
        let mut perf_a = perf.clone();
        perf_a.trace = Some(TraceCtx {
            trace_id: 1,
            span_id: 2,
        });
        let mut perf_b = perf.clone();
        perf_b.trace = Some(TraceCtx {
            trace_id: 3,
            span_id: 4,
        });
        assert_ne!(perf_a.cache_key(), perf_b.cache_key());
        assert_ne!(perf_a.cache_key(), perf.cache_key());
        // Same supplied context -> same key (repeat requests hit cache).
        let perf_a2 = perf_a.clone();
        assert_eq!(perf_a.cache_key(), perf_a2.cache_key());
        // For plain runs the trace context is observability-only and
        // must NOT fragment the cache.
        let mut plain_traced = req();
        plain_traced.trace = Some(TraceCtx {
            trace_id: 9,
            span_id: 9,
        });
        assert_eq!(plain.cache_key(), plain_traced.cache_key());
    }
}
