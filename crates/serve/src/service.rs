//! Transport-independent request handling: parse a wire line, route it
//! through the cache and worker pool, produce the response line.
//!
//! Keeping this free of sockets means the whole service contract —
//! single-flight, backpressure, error replies, stats — is unit-testable
//! without TCP. There is one run path: [`Service::handle_run_async`].
//! The event loop ([`crate::eventloop`]) drives it with completion
//! callbacks; [`Service::handle_line`] drives the same path and waits for
//! the callback, which makes it the in-process reference the wire is
//! differential-tested against.

use crate::cache::{Begin, ResultCache};
use crate::persist::AppendLog;
use crate::pool::WorkerPool;
use crate::protocol::{
    decode, encode, error_code, ErrorReply, IntrospectReport, IntrospectRequest, PerfettoRun,
    PhaseLatency, Request, Response, RunRequest, SpanDump, MAX_DYNAMIC_ITERATIONS, MAX_LINE_BYTES,
    MAX_NT, MAX_POWER_BINS,
};
use crate::stats::{CacheStats, Metrics, PersistStats, StatsReport};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use ugpc_core::{run_dynamic_study, try_run_study_with, StudyOptions, TracedRun};
use ugpc_runtime::{Observer, PerfettoSink, PowerTimeline};
use ugpc_telemetry::{
    json_str, FlightRecorder, HistogramSnapshot, Level, Logger, Phase, RequestSpans, SpanTree,
    TraceCtx,
};

/// The one allocation on a leader's span path: the phase checkpoints
/// travel to the pool worker inside the job box and come back through
/// the flight's completion callback, so both sides share this cell.
type SpanCell = Arc<Mutex<Option<RequestSpans>>>;

/// Result-cache shards requested of [`ResultCache::with_options`]
/// (clamped by capacity there).
pub const CACHE_SHARDS: usize = 8;

/// Flight-recorder span-ring capacity per event-loop shard (newest wins
/// on wrap).
pub const RECORDER_CAPACITY: usize = 256;

/// The settings a deployment picks for one service instance. Request
/// limits are fixed constants ([`MAX_NT`], [`MAX_POWER_BINS`], …).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Simulation worker threads.
    pub workers: usize,
    /// Pending-simulation queue bound (beyond it: backpressure replies).
    pub queue_capacity: usize,
    /// Ready-entry bound of the result cache.
    pub cache_capacity: usize,
    /// Event-loop shard threads (connections are dispatched across
    /// them; also sizes the per-shard latency histogram sets).
    pub shards: usize,
    /// Append-log path for the persistent cache tier. `None` (default)
    /// disables persistence. An unopenable log is a warning, not a
    /// startup failure — the service falls back to memory-only.
    pub persist_path: Option<std::path::PathBuf>,
    /// Attach the in-memory flight recorder (request span rings +
    /// per-phase histograms, served by `Request::Introspect`). On by
    /// default; turning it off is the differential-test axis proving
    /// the recorder never changes a reply byte.
    pub recorder: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        ServeOptions {
            workers: cores,
            queue_capacity: 64,
            cache_capacity: 256,
            shards: cores.min(8),
            persist_path: None,
            recorder: true,
        }
    }
}

/// The shared state behind every connection.
pub struct Service {
    pub(crate) cache: Arc<ResultCache>,
    pub(crate) pool: WorkerPool,
    pub(crate) metrics: Metrics,
    pub(crate) logger: Arc<Logger>,
    /// Per-shard span rings + phase histograms; `None` when
    /// `ServeOptions::recorder` is off.
    recorder: Option<Arc<FlightRecorder>>,
    options: ServeOptions,
    shutdown: AtomicBool,
}

impl Service {
    /// A service logging to stderr, filtered by `UGPC_LOG`.
    pub fn new(options: ServeOptions) -> Arc<Self> {
        Self::with_logger(options, Logger::from_env())
    }

    /// A service with an explicit logger — tests capture the exact log
    /// bytes with [`Logger::to_buffer`].
    pub fn with_logger(options: ServeOptions, logger: Arc<Logger>) -> Arc<Self> {
        let persist =
            options
                .persist_path
                .as_deref()
                .and_then(|path| match AppendLog::open(path) {
                    Ok(log) => {
                        if log.recovered_count() > 0 || log.truncated_bytes() > 0 {
                            logger.info(
                                "cache log recovered",
                                None,
                                &[
                                    ("records", log.recovered_count().to_string()),
                                    ("bytes", log.bytes().to_string()),
                                    ("truncated_bytes", log.truncated_bytes().to_string()),
                                ],
                            );
                        }
                        Some(log)
                    }
                    Err(e) => {
                        logger.warn(
                            "cache log unavailable, serving memory-only",
                            None,
                            &[("error", json_str(&e.to_string()))],
                        );
                        None
                    }
                });
        Arc::new(Service {
            cache: ResultCache::with_options(options.cache_capacity, CACHE_SHARDS, persist),
            pool: WorkerPool::new(options.workers, options.queue_capacity, logger.clone()),
            metrics: Metrics::new(options.shards.max(1)),
            logger,
            recorder: options
                .recorder
                .then(|| FlightRecorder::new(options.shards.max(1), RECORDER_CAPACITY)),
            options,
            shutdown: AtomicBool::new(false),
        })
    }

    pub fn options(&self) -> &ServeOptions {
        &self.options
    }

    /// The attached flight recorder, if any (the event loop threads it
    /// through request handling; `Introspect` drains it).
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
    }

    /// Set once a `Shutdown` request is seen; the accept loop polls it.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Decode one wire line, counting it; a line that is not UTF-8 or not
    /// a request gets the `bad_request` reply line instead.
    pub(crate) fn decode_line(&self, line: &[u8]) -> Result<Request, String> {
        self.metrics.requests_total.inc();
        std::str::from_utf8(line)
            .map_err(|e| e.to_string())
            .and_then(|line| decode::<Request>(line.trim()))
            .map_err(|e| {
                self.parse_error(
                    "unparseable request line",
                    format!("unparseable request: {e}"),
                )
            })
    }

    /// The reply to a line longer than [`MAX_LINE_BYTES`], counted as a
    /// request that failed to parse.
    pub(crate) fn oversized_line_reply(&self) -> String {
        self.metrics.requests_total.inc();
        self.parse_error(
            "request line over the size limit",
            format!("request line longer than {MAX_LINE_BYTES} bytes"),
        )
    }

    /// Count, log and encode one `bad_request` reply.
    fn parse_error(&self, log: &str, message: String) -> String {
        self.metrics.parse_errors.inc();
        self.logger.warn(log, None, &[]);
        encode(&Response::Error(ErrorReply::new(
            error_code::BAD_REQUEST,
            message,
        )))
    }

    /// Handle one wire line, returning the response line (without the
    /// trailing newline). Never panics on malformed input. Runs take the
    /// event loop's path on shard 0 and block until their completion
    /// callback fires, so the bytes are the wire's bytes.
    pub fn handle_line(self: &Arc<Self>, line: &str) -> String {
        let run = match self.decode_line(line.as_bytes()) {
            Err(error_line) => return error_line,
            Ok(Request::Run(run)) => run,
            Ok(request) => return self.handle_op(request),
        };
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        let immediate = self.handle_run_async(run, 0, None, move |line, _| {
            let _ = tx.send(line);
        });
        let line = match immediate {
            Some((line, _)) => line,
            // A dropped sender means the flight's callback never ran.
            None => rx
                .recv()
                .unwrap_or_else(|_| render_flight(Err("reply lost".into()))),
        };
        line.to_string()
    }

    /// Answer one ops request inline: everything but `Run`, which needs
    /// the run path.
    pub(crate) fn handle_op(&self, request: Request) -> String {
        match request {
            Request::Ping => encode(&Response::Pong),
            Request::Stats => {
                let t0 = Instant::now();
                let report = self.stats_report();
                let line = encode(&Response::Stats(report));
                self.metrics.stats_op.record(t0.elapsed());
                line
            }
            Request::Metrics => {
                let t0 = Instant::now();
                let line = encode(&Response::Metrics(self.render_metrics()));
                self.metrics.stats_op.record(t0.elapsed());
                line
            }
            Request::Introspect(req) => {
                let t0 = Instant::now();
                let line = encode(&Response::Introspect(self.introspect_report(&req)));
                self.metrics.stats_op.record(t0.elapsed());
                line
            }
            Request::ClearCache => {
                self.cache.clear();
                encode(&Response::CacheCleared)
            }
            Request::Shutdown => {
                self.logger.info("shutdown requested", None, &[]);
                self.request_shutdown();
                encode(&Response::ShuttingDown)
            }
            // Both callers dispatch runs before calling this.
            Request::Run(_) => encode(&Response::Error(ErrorReply::new(
                error_code::BAD_REQUEST,
                "run requests need the run path",
            ))),
        }
    }

    /// Resolve the trace context once (adopt the client's or mint one)
    /// and pin it on the request, so the perfetto cache key and every
    /// log line see the same ids.
    fn resolve_and_log(&self, run: &mut RunRequest) -> TraceCtx {
        let ctx = TraceCtx::adopt(run.trace);
        run.trace = Some(ctx);
        // Building the field strings costs four allocations — skip it
        // entirely when info logging is off (the bench servers' hot path).
        if self.logger.enabled(Level::Info) {
            self.logger.info(
                "run request",
                Some(ctx),
                &[
                    ("op", json_str(run.config.op.name())),
                    ("platform", json_str(run.config.platform.name())),
                    ("n", run.config.n.to_string()),
                    ("perfetto", run.wants_perfetto().to_string()),
                ],
            );
        }
        ctx
    }

    /// Fill the scrape-time gauges and render the Prometheus text
    /// exposition of every registered instrument.
    pub fn render_metrics(&self) -> String {
        let m = &self.metrics;
        m.gauge_uptime_s.set(m.uptime().as_secs_f64());
        m.gauge_open_connections
            .set(*m.open_connections.lock() as f64);
        m.gauge_queue_depth.set(self.pool.queue_depth() as f64);
        m.gauge_queue_capacity
            .set(self.pool.queue_capacity() as f64);
        m.gauge_workers.set(self.pool.workers() as f64);
        let c = self.cache.counters_snapshot();
        m.gauge_cache_entries.set(self.cache.len() as f64);
        m.gauge_cache_capacity.set(self.cache.capacity() as f64);
        m.gauge_cache_hits.set(c.hits as f64);
        m.gauge_cache_misses.set(c.misses as f64);
        m.gauge_cache_coalesced.set(c.coalesced as f64);
        m.gauge_cache_evictions.set(c.evictions as f64);
        m.gauge_cache_hit_rate.set(self.cache.hit_rate());
        let (inbox, backlog) = m.depth_totals();
        m.gauge_inbox_depth.set(inbox as f64);
        m.gauge_write_backlog_bytes.set(backlog as f64);
        if let Some(p) = self.cache.persist_stats() {
            m.gauge_persist_log_bytes.set(p.bytes as f64);
            m.gauge_persist_log_records
                .set((p.recovered + p.appended) as f64);
            m.gauge_persist_recovered_records.set(p.recovered as f64);
            m.gauge_persist_truncated_bytes
                .set(p.truncated_bytes as f64);
        }
        m.registry().render()
    }

    /// Drain the flight recorder into the wire report: the last-N and
    /// worst-K span trees plus the uptime-wide per-phase decomposition.
    /// An absent recorder answers `enabled: false` rather than erroring
    /// so ops tooling can probe unconditionally.
    pub fn introspect_report(&self, req: &IntrospectRequest) -> IntrospectReport {
        let Some(rec) = &self.recorder else {
            return IntrospectReport {
                enabled: false,
                recorded: 0,
                spans: Vec::new(),
                worst: Vec::new(),
                phases: Vec::new(),
                total: None,
            };
        };
        let trees = rec.drain();
        let last = req.last.unwrap_or(16);
        let spans: Vec<SpanDump> = trees.iter().rev().take(last).rev().map(dump_tree).collect();
        let mut by_total: Vec<&SpanTree> = trees.iter().collect();
        by_total.sort_by_key(|t| std::cmp::Reverse(t.total_us()));
        let worst: Vec<SpanDump> = by_total
            .iter()
            .take(req.worst.unwrap_or(8))
            .map(|t| dump_tree(t))
            .collect();
        let phases = rec
            .phase_snapshots()
            .iter()
            .map(|(p, snap)| phase_latency(p.name(), snap))
            .collect();
        IntrospectReport {
            enabled: true,
            recorded: rec.recorded(),
            spans,
            worst,
            phases,
            total: Some(phase_latency("total", &rec.total_snapshot())),
        }
    }

    /// Checkpoint `phase` on the request's spans, if both the recorder
    /// and the spans exist (the event loop attaches them together;
    /// [`Service::handle_line`] runs without spans).
    pub(crate) fn mark_phase(&self, spans: &mut Option<RequestSpans>, phase: Phase) {
        if let (Some(rec), Some(s)) = (&self.recorder, spans.as_mut()) {
            s.mark(phase, rec.now_us());
        }
    }

    /// Submit the leader's simulation job to the pool. Returns
    /// `Some(reply)` on rejection (the flight is failed by dropping the
    /// job box, so concurrent waiters see a clean error); `None` once
    /// the job is queued and the caller should await the flight.
    fn lead_simulation(
        self: &Arc<Self>,
        run: &RunRequest,
        ctx: TraceCtx,
        guard: crate::cache::LeadGuard,
        spans_cell: Option<SpanCell>,
    ) -> Option<String> {
        let job_run = run.clone();
        let sims = self.metrics.simulations.clone();
        let rec = self.recorder.clone();
        let submitted = self.pool.try_submit(
            Box::new(move || {
                // The gap since the leader's CacheLookup mark is time
                // spent queued behind other jobs.
                mark_cell(&rec, &spans_cell, Phase::QueueWait);
                let response = simulate_response(&job_run);
                mark_cell(&rec, &spans_cell, Phase::Simulate);
                sims.inc();
                let line = encode(&response);
                mark_cell(&rec, &spans_cell, Phase::Serialize);
                // `fulfill` runs the subscribed completion callbacks
                // synchronously, so every Serialize mark above is
                // visible before the leader's callback takes the cell.
                guard.fulfill(line.into());
            }),
            Some(ctx),
        );
        if let Err(rejected) = submitted {
            self.metrics.backpressure_rejections.inc();
            self.logger.warn("backpressure", Some(ctx), &[]);
            // Fail the flight so concurrent waiters see a clean error
            // (the job box still owns the guard; dropping it resolves
            // the flight).
            drop(rejected);
            return Some(encode(&Response::Error(ErrorReply::backpressure(
                self.pool.retry_after_ms(),
                self.pool.queue_depth(),
            ))));
        }
        None
    }

    /// The run path: validate, consult the cache (single-flight), and on
    /// a miss simulate on the worker pool — or bounce with backpressure.
    /// It never blocks on an in-flight simulation; it subscribes a
    /// completion callback instead. Returns
    /// `Some((reply, spans))` when the answer is available immediately
    /// (validation error, cache hit, backpressure); `None` when
    /// `complete` will be invoked exactly once with the reply line and
    /// the request's spans, from whichever thread resolves the flight —
    /// the event loop routes both back to the owning shard, which alone
    /// writes its span ring. Latency is recorded into the shard-`shard`
    /// histogram set *before* the reply is surfaced on every path, so a
    /// client that observes its reply then asks for `Stats` sees the
    /// sample.
    pub fn handle_run_async<F>(
        self: &Arc<Self>,
        mut run: RunRequest,
        shard: usize,
        mut spans: Option<RequestSpans>,
        complete: F,
    ) -> Option<(Arc<str>, Option<RequestSpans>)>
    where
        F: FnOnce(Arc<str>, Option<RequestSpans>) + Send + 'static,
    {
        let t0 = Instant::now();
        let ctx = self.resolve_and_log(&mut run);
        if let Some(s) = spans.as_mut() {
            s.set_trace(ctx);
        }
        let lat = self.metrics.latency_shard(shard);
        if let Err(reply) = self.validate_run(&run) {
            self.metrics.invalid_configs.inc();
            self.logger.warn(
                "run rejected",
                Some(ctx),
                &[("reason", json_str(&reply.message))],
            );
            return Some((encode(&Response::Error(reply)).into(), spans));
        }
        let begun = self.cache.begin(run.cache_key());
        self.mark_phase(&mut spans, Phase::CacheLookup);
        match begun {
            Begin::Hit(line) => {
                lat.run_hit.record(t0.elapsed());
                self.logger.debug("cache hit", Some(ctx), &[]);
                Some((line, spans))
            }
            Begin::Wait(flight) => {
                self.logger
                    .debug("coalesced behind in-flight run", Some(ctx), &[]);
                let hist = lat.run_wait.clone();
                let rec = self.recorder.clone();
                ResultCache::subscribe(
                    &flight,
                    Box::new(move |res| {
                        hist.record(t0.elapsed());
                        let mut spans = spans;
                        if let (Some(rec), Some(s)) = (&rec, spans.as_mut()) {
                            s.mark(Phase::FlightWait, rec.now_us());
                        }
                        complete(render_flight(res), spans);
                    }),
                );
                None
            }
            Begin::Lead(guard) => {
                let flight = guard.flight();
                self.logger
                    .debug("cache miss, leading simulation", Some(ctx), &[]);
                let cell: Option<SpanCell> = spans.map(|s| Arc::new(Mutex::new(Some(s))));
                if let Some(reply) = self.lead_simulation(&run, ctx, guard, cell.clone()) {
                    // Backpressure: the rejected job box (and its cell
                    // clone) was dropped, so the spans come straight
                    // back out for the shard to journal the rejection.
                    let spans = cell.and_then(|c| c.lock().take());
                    return Some((reply.into(), spans));
                }
                let hist = lat.run_miss.clone();
                ResultCache::subscribe(
                    &flight,
                    Box::new(move |res| {
                        hist.record(t0.elapsed());
                        // Runs inside `fulfill`, after the worker's
                        // Serialize mark — the take sees every phase.
                        let spans = cell.and_then(|c| c.lock().take());
                        complete(render_flight(res), spans);
                    }),
                );
                None
            }
        }
    }

    /// Whether the event loop may serve repeated byte-identical request
    /// lines through the request-identity memo (skipping the parse /
    /// validate / trace-mint sequence). Allowed only when info logging
    /// is off: the memo path emits no per-request "run request" line, so
    /// it must not engage while anyone is watching the logs. Correctness
    /// does not depend on this gate — identical bytes parse to an
    /// identical request, whose content-addressed key can only hit an
    /// entry produced by a fully validated identical run.
    pub(crate) fn memo_allowed(&self) -> bool {
        !self.logger.enabled(Level::Info)
    }

    /// The request-identity fast path: count the wire line and probe the
    /// cache for `key`. On a hit the reply, hit counter, and shard
    /// latency sample are all recorded exactly as on the parsed hit
    /// path. On a miss nothing is counted — the caller falls back to the
    /// full path, which counts the line itself.
    pub(crate) fn fast_run_hit(&self, key: ugpc_core::CacheKey, shard: usize) -> Option<Arc<str>> {
        let t0 = Instant::now();
        let line = self.cache.probe(key)?;
        self.metrics.requests_total.inc();
        self.metrics
            .latency_shard(shard)
            .run_hit
            .record(t0.elapsed());
        Some(line)
    }

    /// Service-level admission checks on top of `RunConfig::validate`.
    fn validate_run(&self, run: &RunRequest) -> Result<(), ErrorReply> {
        let cfg = &run.config;
        cfg.validate()
            .map_err(|e| ErrorReply::new(error_code::INVALID_CONFIG, e.to_string()))?;
        if cfg.nt() > MAX_NT {
            return Err(ErrorReply::new(
                error_code::INVALID_CONFIG,
                format!("nt = {} exceeds this service's limit of {MAX_NT}", cfg.nt()),
            ));
        }
        match run.dynamic_iterations {
            Some(0) => {
                return Err(ErrorReply::new(
                    error_code::INVALID_CONFIG,
                    "dynamic_iterations must be >= 1",
                ))
            }
            Some(k) if k > MAX_DYNAMIC_ITERATIONS => {
                return Err(ErrorReply::new(
                    error_code::INVALID_CONFIG,
                    format!(
                        "dynamic_iterations = {k} exceeds this service's limit of \
                         {MAX_DYNAMIC_ITERATIONS}"
                    ),
                ))
            }
            _ => {}
        }
        match run.power_bins {
            Some(0) => {
                return Err(ErrorReply::new(
                    error_code::INVALID_CONFIG,
                    "power_bins must be >= 1",
                ))
            }
            Some(b) if b > MAX_POWER_BINS => {
                return Err(ErrorReply::new(
                    error_code::INVALID_CONFIG,
                    format!("power_bins = {b} exceeds this service's limit of {MAX_POWER_BINS}"),
                ))
            }
            Some(_) if run.dynamic_iterations.is_some() => {
                return Err(ErrorReply::new(
                    error_code::INVALID_CONFIG,
                    "power_bins and dynamic_iterations are mutually exclusive",
                ))
            }
            _ => {}
        }
        if run.wants_perfetto() && (run.dynamic_iterations.is_some() || run.power_bins.is_some()) {
            return Err(ErrorReply::new(
                error_code::INVALID_CONFIG,
                "perfetto is mutually exclusive with dynamic_iterations and power_bins",
            ));
        }
        if let Some(spec) = &run.controller {
            if run.dynamic_iterations.is_some() || run.power_bins.is_some() || run.wants_perfetto()
            {
                return Err(ErrorReply::new(
                    error_code::INVALID_CONFIG,
                    "controller is mutually exclusive with dynamic_iterations, power_bins, and perfetto",
                ));
            }
            spec.validate()
                .map_err(|e| ErrorReply::new(error_code::INVALID_CONFIG, e))?;
        }
        Ok(())
    }

    pub fn stats_report(&self) -> StatsReport {
        let c = self.cache.counters_snapshot();
        StatsReport {
            uptime_s: self.metrics.uptime().as_secs_f64(),
            workers: self.pool.workers(),
            queue_depth: self.pool.queue_depth(),
            queue_capacity: self.pool.queue_capacity(),
            open_connections: *self.metrics.open_connections.lock(),
            requests_total: self.metrics.requests_total.get(),
            parse_errors: self.metrics.parse_errors.get(),
            invalid_configs: self.metrics.invalid_configs.get(),
            backpressure_rejections: self.metrics.backpressure_rejections.get(),
            simulations_executed: self.metrics.simulations.get(),
            cache: CacheStats {
                entries: self.cache.len(),
                capacity: self.cache.capacity(),
                hits: c.hits,
                misses: c.misses,
                coalesced: c.coalesced,
                evictions: c.evictions,
                hit_rate: self.cache.hit_rate(),
            },
            latency: self.metrics.latency_report(),
            persist: self.cache.persist_stats().map(|p| PersistStats {
                path: p.path,
                recovered: p.recovered,
                appended: p.appended,
                bytes: p.bytes,
                truncated_bytes: p.truncated_bytes,
                errors: p.errors,
            }),
        }
    }
}

/// Checkpoint `phase` on the spans travelling inside a leader's cell
/// (no-ops without a recorder or without spans — in-process calls and
/// recorder-off servers pay one `None` check).
fn mark_cell(rec: &Option<Arc<FlightRecorder>>, cell: &Option<SpanCell>, phase: Phase) {
    if let (Some(rec), Some(cell)) = (rec, cell) {
        if let Some(s) = cell.lock().as_mut() {
            s.mark(phase, rec.now_us());
        }
    }
}

/// Project one drained span tree into its wire form.
fn dump_tree(t: &SpanTree) -> SpanDump {
    SpanDump {
        trace: t.trace_hex(),
        shard: u64::from(t.shard),
        start_us: t.start_us,
        total_us: t.total_us(),
        phases: t
            .phases
            .iter()
            .map(|&(p, us)| (p.name().to_string(), us))
            .collect(),
    }
}

/// Project a phase histogram snapshot into its wire form.
fn phase_latency(phase: &str, snap: &HistogramSnapshot) -> PhaseLatency {
    PhaseLatency {
        phase: phase.to_string(),
        count: snap.count,
        mean_us: snap.mean_us(),
        max_us: snap.max_us,
        p50_us: snap.quantile_upper_us(0.5),
        p99_us: snap.quantile_upper_us(0.99),
    }
}

/// Render a resolved flight into the reply line (a failed flight becomes
/// a structured `internal` error), handing the cached line onward by
/// reference count.
fn render_flight(res: Result<Arc<str>, String>) -> Arc<str> {
    match res {
        Ok(line) => line,
        Err(msg) => encode(&Response::Error(ErrorReply::new(error_code::INTERNAL, msg))).into(),
    }
}

/// Execute a validated run request — the only place the service touches
/// the simulator. Runs on a pool worker. Every static-run shape (plain,
/// traced, controlled, Perfetto) is one [`try_run_study_with`] call with
/// different options; the between-iteration dynamic study is a loop of
/// them.
fn simulate_response(run: &RunRequest) -> Response {
    let cfg = &run.config;
    if let Some(k) = run.dynamic_iterations {
        return match run_dynamic_study(cfg, k) {
            Ok(report) => Response::Dynamic(report),
            Err(e) => Response::Error(ErrorReply::new(error_code::INVALID_CONFIG, e.to_string())),
        };
    }
    // The trace context was resolved by the service before keying;
    // adopt() here only covers direct calls in tests.
    let ctx = TraceCtx::adopt(run.trace);
    let mut sink = run.wants_perfetto().then(|| {
        let mut sink = PerfettoSink::new();
        sink.set_trace_ids(&ctx.trace_hex(), &ctx.span_hex());
        sink
    });
    let mut timeline = run.power_bins.map(PowerTimeline::new);
    let mut observers: Vec<&mut dyn Observer> = Vec::new();
    if let Some(sink) = sink.as_mut() {
        observers.push(sink);
    }
    if let Some(timeline) = timeline.as_mut() {
        observers.push(timeline);
    }
    let options = StudyOptions {
        controller: run.controller.clone(),
        observers,
        ..Default::default()
    };
    let study = match try_run_study_with(cfg, options) {
        Ok(study) => study,
        Err(e) => {
            return Response::Error(ErrorReply::new(error_code::INVALID_CONFIG, e.to_string()))
        }
    };
    // Validated: perfetto, power_bins and controller are mutually
    // exclusive, so at most one attachment is present.
    match (sink, timeline, study.control) {
        (Some(sink), _, _) => Response::Perfetto(PerfettoRun {
            report: study.report,
            trace_id: ctx.trace_hex(),
            span_id: ctx.span_hex(),
            trace_json: sink.into_json(),
        }),
        (None, Some(timeline), _) => Response::Traced(TracedRun {
            report: study.report,
            power: timeline.into_profile(),
        }),
        (None, None, Some(control)) => Response::Controlled(control.with_report(study.report)),
        (None, None, None) => Response::Run(study.report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::decode;
    use ugpc_core::RunConfig;
    use ugpc_hwsim::{OpKind, PlatformId, Precision};

    fn tiny() -> RunConfig {
        RunConfig::paper(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double).scaled_down(8)
    }

    fn small_service() -> Arc<Service> {
        Service::with_logger(
            ServeOptions {
                workers: 2,
                queue_capacity: 8,
                cache_capacity: 8,
                ..ServeOptions::default()
            },
            Logger::disabled(),
        )
    }

    #[test]
    fn run_then_hit_skips_simulation() {
        let svc = small_service();
        let req = encode(&Request::Run(RunRequest::new(tiny())));
        let first = svc.handle_line(&req);
        let second = svc.handle_line(&req);
        assert_eq!(first, second, "cache hit must be byte-identical");
        assert!(matches!(
            decode::<Response>(&first).expect("decode"),
            Response::Run(_)
        ));
        let stats = svc.stats_report();
        assert_eq!(stats.cache.misses, 1);
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.simulations_executed, 1, "hit skipped the pool");
    }

    /// A client writing the line by hand sends only the config; every
    /// other field of the request is optional.
    #[test]
    fn a_run_line_with_only_a_config_is_served() {
        let svc = small_service();
        let bare = format!("{{\"Run\":{{\"config\":{}}}}}", encode(&tiny()));
        let first = svc.handle_line(&bare);
        assert!(
            matches!(decode::<Response>(&first), Ok(Response::Run(_))),
            "{first}"
        );
        let full = encode(&Request::Run(RunRequest::new(tiny())));
        assert_eq!(svc.handle_line(&full), first, "one request, one cache slot");
        assert_eq!(svc.stats_report().simulations_executed, 1);
    }

    #[test]
    fn malformed_line_gets_error_reply() {
        let svc = small_service();
        for bad in ["", "garbage", "{\"Run\": 1}", "{\"Run\": {\"config\": {}}}"] {
            let out = svc.handle_line(bad);
            match decode::<Response>(&out).expect("decode") {
                Response::Error(e) => assert_eq!(e.code, error_code::BAD_REQUEST, "{bad}"),
                other => panic!("expected error for {bad:?}, got {other:?}"),
            }
        }
        assert_eq!(svc.stats_report().parse_errors, 4);
    }

    #[test]
    fn invalid_config_is_rejected_not_simulated() {
        let svc = small_service();
        // 2-GPU cap config on the 4-GPU platform.
        let mut cfg = tiny();
        cfg.gpu_config = ugpc_capping::CapConfig::uniform(ugpc_capping::CapLevel::B, 2);
        let out = svc.handle_line(&encode(&Request::Run(RunRequest::new(cfg))));
        match decode::<Response>(&out).expect("decode") {
            Response::Error(e) => assert_eq!(e.code, error_code::INVALID_CONFIG),
            other => panic!("{other:?}"),
        }
        // Over-sized problems bounce on the nt guard.
        let mut big = tiny();
        big.n = big.nb * (MAX_NT + 1);
        let out = svc.handle_line(&encode(&Request::Run(RunRequest::new(big))));
        match decode::<Response>(&out).expect("decode") {
            Response::Error(e) => assert_eq!(e.code, error_code::INVALID_CONFIG),
            other => panic!("{other:?}"),
        }
        assert_eq!(svc.stats_report().simulations_executed, 0);
    }

    #[test]
    fn limit_errors_keep_their_wording() {
        let svc = small_service();
        let message = |line: String| match decode::<Response>(&line).expect("decode") {
            Response::Error(e) => e.message,
            other => panic!("{other:?}"),
        };
        let mut big = tiny();
        big.n = big.nb * (MAX_NT + 1);
        let mut dynamic = RunRequest::new(tiny());
        dynamic.dynamic_iterations = Some(MAX_DYNAMIC_ITERATIONS + 1);
        let mut traced = RunRequest::new(tiny());
        traced.power_bins = Some(MAX_POWER_BINS + 1);
        for (run, expected) in [
            (
                RunRequest::new(big),
                "nt = 65 exceeds this service's limit of 64",
            ),
            (
                dynamic,
                "dynamic_iterations = 201 exceeds this service's limit of 200",
            ),
            (
                traced,
                "power_bins = 4097 exceeds this service's limit of 4096",
            ),
        ] {
            assert_eq!(
                message(svc.handle_line(&encode(&Request::Run(run)))),
                expected
            );
        }
        assert_eq!(svc.stats_report().simulations_executed, 0);
    }

    #[test]
    fn dynamic_study_served_and_cached() {
        let svc = small_service();
        let mut req = RunRequest::new(tiny());
        req.dynamic_iterations = Some(2);
        let line = encode(&Request::Run(req));
        let first = svc.handle_line(&line);
        match decode::<Response>(&first).expect("decode") {
            Response::Dynamic(d) => assert_eq!(d.iterations.len(), 2),
            other => panic!("{other:?}"),
        }
        let second = svc.handle_line(&line);
        assert_eq!(first, second);
        assert_eq!(svc.stats_report().simulations_executed, 1);
    }

    #[test]
    fn traced_run_served_cached_and_validated() {
        let svc = small_service();
        let mut req = RunRequest::new(tiny());
        req.power_bins = Some(16);
        let line = encode(&Request::Run(req.clone()));
        let first = svc.handle_line(&line);
        match decode::<Response>(&first).expect("decode") {
            Response::Traced(t) => {
                assert!(t.report.makespan_s > 0.0);
                assert!(t.power.avg_w.iter().all(|l| l.len() == 16));
                assert_eq!(t.power.lanes.len(), 5, "4 GPUs + 1 package");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(svc.handle_line(&line), first, "traced hits byte-identical");
        assert_eq!(svc.stats_report().simulations_executed, 1);
        // Limits: zero bins, oversized bins, and combining with a
        // dynamic study are all rejected before simulation.
        for bad in [
            {
                let mut r = req.clone();
                r.power_bins = Some(0);
                r
            },
            {
                let mut r = req.clone();
                r.power_bins = Some(MAX_POWER_BINS + 1);
                r
            },
            {
                let mut r = req.clone();
                r.dynamic_iterations = Some(2);
                r
            },
        ] {
            let out = svc.handle_line(&encode(&Request::Run(bad)));
            match decode::<Response>(&out).expect("decode") {
                Response::Error(e) => assert_eq!(e.code, error_code::INVALID_CONFIG),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(svc.stats_report().simulations_executed, 1);
    }

    #[test]
    fn metrics_exposition_agrees_with_stats() {
        let svc = small_service();
        let req = encode(&Request::Run(RunRequest::new(tiny())));
        svc.handle_line(&req); // miss
        svc.handle_line(&req); // hit
        let out = svc.handle_line(&encode(&Request::Metrics));
        let text = match decode::<Response>(&out).expect("decode") {
            Response::Metrics(t) => t,
            other => panic!("{other:?}"),
        };
        let stats = svc.stats_report();
        // Counter values in the exposition match the StatsReport view of
        // the same atomics.
        assert!(
            text.contains(&format!("ugpc_requests_total {}", stats.requests_total)),
            "{text}"
        );
        assert!(
            text.contains(&format!(
                "ugpc_simulations_total {}",
                stats.simulations_executed
            )),
            "{text}"
        );
        assert!(text.contains("ugpc_cache_hits 1"), "{text}");
        assert!(text.contains("ugpc_cache_misses 1"), "{text}");
        assert!(text.contains("# TYPE ugpc_run_miss_latency_us histogram"));
        assert!(text.contains("ugpc_run_miss_latency_us_count 1"), "{text}");
        assert!(text.contains("ugpc_queue_capacity 8"), "{text}");
    }

    #[test]
    fn perfetto_run_embeds_trace_context_and_caches() {
        let svc = small_service();
        let mut req = RunRequest::new(tiny());
        req.perfetto = Some(true);
        req.trace = Some(TraceCtx {
            trace_id: 0x1234,
            span_id: 0x5678,
        });
        let line = encode(&Request::Run(req.clone()));
        let first = svc.handle_line(&line);
        match decode::<Response>(&first).expect("decode") {
            Response::Perfetto(p) => {
                assert_eq!(p.trace_id, "000000001234");
                assert_eq!(p.span_id, "000000005678");
                assert!(p.trace_json.contains("trace_context"), "metadata record");
                assert!(p.trace_json.contains("000000001234"), "trace id embedded");
                assert!(p.report.makespan_s > 0.0);
            }
            other => panic!("{other:?}"),
        }
        // Same supplied context repeats byte-identically from cache.
        assert_eq!(svc.handle_line(&line), first);
        assert_eq!(svc.stats_report().simulations_executed, 1);
        // Perfetto combined with either study mode is rejected.
        for bad in [
            {
                let mut r = req.clone();
                r.power_bins = Some(8);
                r
            },
            {
                let mut r = req.clone();
                r.dynamic_iterations = Some(2);
                r
            },
        ] {
            let out = svc.handle_line(&encode(&Request::Run(bad)));
            match decode::<Response>(&out).expect("decode") {
                Response::Error(e) => assert_eq!(e.code, error_code::INVALID_CONFIG),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(svc.stats_report().simulations_executed, 1);
    }

    #[test]
    fn run_requests_log_with_trace_ids() {
        let (logger, buf) = Logger::to_buffer(ugpc_telemetry::Level::Debug);
        let svc = Service::with_logger(
            ServeOptions {
                workers: 1,
                queue_capacity: 4,
                cache_capacity: 4,
                ..ServeOptions::default()
            },
            logger,
        );
        let mut req = RunRequest::new(tiny());
        req.trace = Some(TraceCtx {
            trace_id: 0xfeed,
            span_id: 0x1,
        });
        svc.handle_line(&encode(&Request::Run(req)));
        let text = String::from_utf8(buf.lock().clone()).expect("utf8");
        assert!(text.contains("\"run request\""), "{text}");
        assert!(text.contains("00000000feed"), "{text}");
        assert!(text.contains("cache miss, leading simulation"), "{text}");
        // The pool worker's dequeue line carries the same trace id.
        assert!(text.contains("job dequeued"), "{text}");
    }

    #[test]
    fn ping_stats_clear_shutdown() {
        let svc = small_service();
        assert!(matches!(
            decode::<Response>(&svc.handle_line(&encode(&Request::Ping))).expect("decode"),
            Response::Pong
        ));
        let out = svc.handle_line(&encode(&Request::Stats));
        match decode::<Response>(&out).expect("decode") {
            Response::Stats(s) => {
                assert_eq!(s.workers, 2);
                assert_eq!(s.queue_capacity, 8);
            }
            other => panic!("{other:?}"),
        }
        svc.handle_line(&encode(&Request::Run(RunRequest::new(tiny()))));
        assert_eq!(svc.stats_report().cache.entries, 1);
        svc.handle_line(&encode(&Request::ClearCache));
        assert_eq!(svc.stats_report().cache.entries, 0);
        assert!(!svc.shutdown_requested());
        svc.handle_line(&encode(&Request::Shutdown));
        assert!(svc.shutdown_requested());
    }

    #[test]
    fn backpressure_when_queue_full() {
        // One worker (blocked), queue bound 1 (occupied): the next run
        // request must bounce with a structured retry-after error rather
        // than queue without bound or drop anything.
        let svc = Service::new(ServeOptions {
            workers: 1,
            queue_capacity: 1,
            cache_capacity: 8,
            ..ServeOptions::default()
        });
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        svc.pool
            .try_submit(
                Box::new(move || {
                    let _ = gate_rx.recv_timeout(std::time::Duration::from_secs(10));
                }),
                None,
            )
            .expect("blocker");
        // Wait for the worker to take the blocker off the queue, then
        // occupy the single queue slot.
        for _ in 0..200 {
            if svc.pool.queue_depth() == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(
            svc.pool.queue_depth(),
            0,
            "worker never picked up the blocker"
        );
        svc.pool
            .try_submit(Box::new(|| ()), None)
            .expect("fills queue");
        let out = svc.handle_line(&encode(&Request::Run(RunRequest::new(tiny()))));
        match decode::<Response>(&out).expect("decode") {
            Response::Error(e) => {
                assert_eq!(e.code, error_code::BACKPRESSURE);
                assert!(e.retry_after_ms.is_some());
            }
            other => panic!("expected backpressure, got {other:?}"),
        }
        gate_tx.send(()).expect("release blocker");
        let stats = svc.stats_report();
        assert_eq!(stats.backpressure_rejections, 1);
        // Wait for the blocker and filler to drain, then the same
        // request succeeds: the rejected flight was resolved, not wedged.
        for _ in 0..400 {
            if svc.pool.executed() == 2 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let out = svc.handle_line(&encode(&Request::Run(RunRequest::new(tiny()))));
        assert!(matches!(
            decode::<Response>(&out).expect("decode"),
            Response::Run(_)
        ));
    }
}
