//! The ops surface, as a thin view over the `ugpc-telemetry` registry.
//!
//! Every live counter and latency histogram is an instrument registered
//! on one [`Registry`]; [`StatsReport`] (the `stats` response) and the
//! Prometheus text exposition (the `metrics` response) are two
//! projections of the same atomics, so the numbers can never drift
//! apart. The histogram implementation itself moved to
//! [`ugpc_telemetry::Histogram`] — serve keeps only the wire types.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use ugpc_telemetry::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};

pub use ugpc_telemetry::BUCKETS;

/// Serialized histogram snapshot for one operation class.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OpLatency {
    pub op: String,
    pub count: u64,
    pub mean_us: f64,
    pub max_us: u64,
    /// `(upper bound in µs, samples)` per non-empty log₂ bucket.
    pub buckets: Vec<(u64, u64)>,
}

impl OpLatency {
    /// Project a telemetry histogram snapshot into the wire form this
    /// service has always reported (kept byte-identical through the
    /// registry refactor).
    pub fn from_snapshot(op: &str, snap: &HistogramSnapshot) -> OpLatency {
        OpLatency {
            op: op.to_string(),
            count: snap.count,
            mean_us: snap.mean_us(),
            max_us: snap.max_us,
            buckets: snap.nonzero_buckets(),
        }
    }
}

/// One event-loop shard's latency instruments. Each shard thread records
/// into its own set lock-free; scrapes and `stats` replies merge the
/// shards bucket-wise (exact integer sums), so the exposed distributions
/// are bit-identical to a single shared set fed the same samples.
pub struct ShardLatencies {
    /// Latency of cache-hit run requests (no simulation).
    pub run_hit: Arc<Histogram>,
    /// Latency of cache-miss run requests (leader: queue + simulate).
    pub run_miss: Arc<Histogram>,
    /// Latency of requests coalesced behind an in-flight leader.
    pub run_wait: Arc<Histogram>,
    pub stats_op: Arc<Histogram>,
}

impl ShardLatencies {
    fn new() -> ShardLatencies {
        ShardLatencies {
            run_hit: Arc::new(Histogram::new()),
            run_miss: Arc::new(Histogram::new()),
            run_wait: Arc::new(Histogram::new()),
            stats_op: Arc::new(Histogram::new()),
        }
    }
}

/// One event-loop shard's live depth instruments, updated by the shard
/// thread after every event round and summed at scrape time (the same
/// merge discipline as the per-shard latency histograms).
#[derive(Default)]
pub struct ShardDepths {
    /// Request lines the shard's connections have admitted but not yet
    /// answered.
    pub inbox_depth: AtomicU64,
    /// Bytes buffered across the shard's connection write buffers.
    pub write_backlog_bytes: AtomicU64,
}

/// Live service metrics: handles into the shared registry, plus the few
/// values that are genuinely scrape-time (gauges, uptime).
pub struct Metrics {
    started: Instant,
    registry: Arc<Registry>,
    /// Per-shard latency histograms (ops requests record into
    /// `shards[0]`, aliased by the `stats_op` field below).
    shards: Vec<ShardLatencies>,
    /// Per-shard event-loop depth instruments (same cardinality as
    /// `shards`).
    depths: Vec<ShardDepths>,
    pub requests_total: Arc<Counter>,
    pub parse_errors: Arc<Counter>,
    pub invalid_configs: Arc<Counter>,
    pub backpressure_rejections: Arc<Counter>,
    /// Simulations actually executed on the pool, counted by the worker
    /// job *before* the result publishes — so a leader observing its own
    /// reply already sees the increment (unlike the pool's job counter,
    /// which lags the flight). The counter's `Relaxed` increment is
    /// enough: `fulfill` publishes the reply through the cache mutex
    /// after it, so whoever saw the reply sees the count. `Stats` reads
    /// this same counter.
    pub simulations: Arc<Counter>,
    /// Latency of ops requests (stats, metrics, introspect).
    pub stats_op: Arc<Histogram>,
    /// Connections currently open (guarded by a plain mutex so the
    /// accept loop and handlers stay trivially consistent).
    pub open_connections: Mutex<usize>,
    // Scrape-time gauges, filled by `Service` right before rendering
    // (queue depth and cache state live outside this struct; cache
    // counters mirror as gauges because `coalesced` is not monotone —
    // the leader's self-wait is subtracted back out).
    pub gauge_uptime_s: Arc<Gauge>,
    pub gauge_open_connections: Arc<Gauge>,
    pub gauge_queue_depth: Arc<Gauge>,
    pub gauge_queue_capacity: Arc<Gauge>,
    pub gauge_workers: Arc<Gauge>,
    pub gauge_cache_entries: Arc<Gauge>,
    pub gauge_cache_capacity: Arc<Gauge>,
    pub gauge_cache_hits: Arc<Gauge>,
    pub gauge_cache_misses: Arc<Gauge>,
    pub gauge_cache_coalesced: Arc<Gauge>,
    pub gauge_cache_evictions: Arc<Gauge>,
    pub gauge_cache_hit_rate: Arc<Gauge>,
    /// Sum of every shard's admitted-but-unanswered request slots
    /// (scrape-time).
    pub gauge_inbox_depth: Arc<Gauge>,
    /// Sum of every shard's buffered write bytes (scrape-time).
    pub gauge_write_backlog_bytes: Arc<Gauge>,
    // Append-log health; all four stay 0 for memory-only servers.
    pub gauge_persist_log_bytes: Arc<Gauge>,
    pub gauge_persist_log_records: Arc<Gauge>,
    pub gauge_persist_recovered_records: Arc<Gauge>,
    pub gauge_persist_truncated_bytes: Arc<Gauge>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new(1)
    }
}

impl Metrics {
    /// Build the metrics surface with `latency_shards` independent sets of
    /// latency histograms (clamped to at least 1). The exposition
    /// registers each latency series as a merged *view* over the shards
    /// under the exact seed metric names, so a scrape of a sharded server
    /// is bit-identical to the single-registry output for the same
    /// samples.
    pub fn new(latency_shards: usize) -> Self {
        let shards: Vec<ShardLatencies> = (0..latency_shards.max(1))
            .map(|_| ShardLatencies::new())
            .collect();
        let depths: Vec<ShardDepths> = (0..shards.len()).map(|_| ShardDepths::default()).collect();
        let r = Registry::new();
        let view = |name: &str, help: &str, pick: fn(&ShardLatencies) -> &Arc<Histogram>| {
            r.histogram_view(name, help, shards.iter().map(|s| pick(s).clone()).collect());
        };
        view(
            "ugpc_run_hit_latency_us",
            "Latency of cache-hit run requests (microseconds).",
            |s| &s.run_hit,
        );
        view(
            "ugpc_run_miss_latency_us",
            "Latency of cache-miss run requests (microseconds).",
            |s| &s.run_miss,
        );
        view(
            "ugpc_run_wait_latency_us",
            "Latency of run requests coalesced behind a leader (microseconds).",
            |s| &s.run_wait,
        );
        view(
            "ugpc_stats_latency_us",
            "Latency of stats requests (microseconds).",
            |s| &s.stats_op,
        );
        Metrics {
            started: Instant::now(),
            requests_total: r.counter("ugpc_requests_total", "Wire requests received."),
            parse_errors: r.counter("ugpc_parse_errors_total", "Unparseable request lines."),
            invalid_configs: r.counter(
                "ugpc_invalid_configs_total",
                "Run requests rejected by validation.",
            ),
            backpressure_rejections: r.counter(
                "ugpc_backpressure_rejections_total",
                "Run requests bounced because the worker queue was full.",
            ),
            simulations: r.counter(
                "ugpc_simulations_total",
                "Simulations executed on the worker pool.",
            ),
            stats_op: shards[0].stats_op.clone(),
            open_connections: Mutex::new(0),
            gauge_uptime_s: r.gauge("ugpc_uptime_seconds", "Service uptime."),
            gauge_open_connections: r.gauge("ugpc_open_connections", "Connections currently open."),
            gauge_queue_depth: r.gauge("ugpc_queue_depth", "Jobs waiting in the worker queue."),
            gauge_queue_capacity: r.gauge("ugpc_queue_capacity", "Worker queue bound."),
            gauge_workers: r.gauge("ugpc_workers", "Simulation worker threads."),
            gauge_cache_entries: r.gauge("ugpc_cache_entries", "Ready results cached."),
            gauge_cache_capacity: r.gauge("ugpc_cache_capacity", "Result cache bound."),
            gauge_cache_hits: r.gauge("ugpc_cache_hits", "Cache hits."),
            gauge_cache_misses: r.gauge("ugpc_cache_misses", "Cache misses."),
            gauge_cache_coalesced: r.gauge(
                "ugpc_cache_coalesced",
                "Requests that coalesced behind an in-flight identical request.",
            ),
            gauge_cache_evictions: r.gauge("ugpc_cache_evictions", "LRU evictions."),
            gauge_cache_hit_rate: r
                .gauge("ugpc_cache_hit_rate", "hits / (hits + misses + coalesced)."),
            gauge_inbox_depth: r.gauge(
                "ugpc_inbox_depth",
                "Request slots admitted by event-loop shards but not yet answered.",
            ),
            gauge_write_backlog_bytes: r.gauge(
                "ugpc_write_backlog_bytes",
                "Response bytes buffered awaiting socket writability.",
            ),
            gauge_persist_log_bytes: r.gauge(
                "ugpc_persist_log_bytes",
                "Append-log size in bytes (0 for memory-only servers).",
            ),
            gauge_persist_log_records: r.gauge(
                "ugpc_persist_log_records",
                "Append-log records: recovered at boot plus appended since.",
            ),
            gauge_persist_recovered_records: r.gauge(
                "ugpc_persist_recovered_records",
                "Records the boot-time recovery scan replayed.",
            ),
            gauge_persist_truncated_bytes: r.gauge(
                "ugpc_persist_truncated_bytes",
                "Bytes discarded at boot as a corrupt or torn log tail.",
            ),
            registry: r,
            shards,
            depths,
        }
    }
}

impl Metrics {
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// The registry every instrument above is registered on.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Number of independent latency-histogram sets.
    pub fn latency_shards(&self) -> usize {
        self.shards.len()
    }

    /// The latency instruments for shard `i` (wrapped modulo the shard
    /// count so any dispatch index is safe).
    pub fn latency_shard(&self, i: usize) -> &ShardLatencies {
        &self.shards[i % self.shards.len()]
    }

    /// The depth instruments for shard `i` (wrapped like
    /// [`Metrics::latency_shard`]).
    pub fn depth_shard(&self, i: usize) -> &ShardDepths {
        &self.depths[i % self.depths.len()]
    }

    /// `(inbox_depth, write_backlog_bytes)` summed across every shard.
    pub fn depth_totals(&self) -> (u64, u64) {
        self.depths.iter().fold((0, 0), |(inbox, backlog), d| {
            (
                inbox + d.inbox_depth.load(Ordering::Relaxed),
                backlog + d.write_backlog_bytes.load(Ordering::Relaxed),
            )
        })
    }

    /// Merged snapshots across every shard, in the fixed wire order
    /// (`run_hit`, `run_miss`, `run_wait`, `stats`) the service has
    /// always reported.
    pub fn latency_report(&self) -> Vec<OpLatency> {
        let merged = |pick: fn(&ShardLatencies) -> &Arc<Histogram>| {
            Histogram::merged_snapshot(self.shards.iter().map(|s| pick(s).as_ref()))
        };
        vec![
            OpLatency::from_snapshot("run_hit", &merged(|s| &s.run_hit)),
            OpLatency::from_snapshot("run_miss", &merged(|s| &s.run_miss)),
            OpLatency::from_snapshot("run_wait", &merged(|s| &s.run_wait)),
            OpLatency::from_snapshot("stats", &merged(|s| &s.stats_op)),
        ]
    }
}

/// Cache counters as reported over the wire.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheStats {
    pub entries: usize,
    pub capacity: usize,
    pub hits: u64,
    pub misses: u64,
    /// Requests that coalesced behind an in-flight identical request.
    pub coalesced: u64,
    pub evictions: u64,
    /// hits / (hits + misses + coalesced).
    pub hit_rate: f64,
}

/// Persistent cache-tier state as reported over the wire. `None` in
/// [`StatsReport::persist`] when the service runs memory-only.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PersistStats {
    /// Append-log path.
    pub path: String,
    /// Records recovered by the boot-time scan.
    pub recovered: u64,
    /// Records appended since boot.
    pub appended: u64,
    /// Current log size in bytes.
    pub bytes: u64,
    /// Bytes the boot-time scan discarded as a corrupt or torn tail.
    pub truncated_bytes: u64,
    /// Append failures (the cache keeps serving from memory).
    pub errors: u64,
}

/// The `stats` response payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatsReport {
    pub uptime_s: f64,
    pub workers: usize,
    pub queue_depth: usize,
    pub queue_capacity: usize,
    pub open_connections: usize,
    pub requests_total: u64,
    pub parse_errors: u64,
    pub invalid_configs: u64,
    pub backpressure_rejections: u64,
    pub simulations_executed: u64,
    pub cache: CacheStats,
    pub latency: Vec<OpLatency>,
    /// Persistent-tier stats; `null` for memory-only servers. Decodes
    /// as `None` from seed-era reports that lack the field entirely.
    pub persist: Option<PersistStats>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_view_matches_historical_wire_form() {
        let m = Metrics::default();
        let hits = &m.latency_shard(0).run_hit;
        hits.record(Duration::from_micros(0)); // bucket 0 (<1µs)
        hits.record(Duration::from_micros(3)); // 3µs -> bucket 2 (<4µs)
        hits.record(Duration::from_millis(2)); // 2000µs -> bucket 11
        let snap = hits.snapshot();
        let lat = OpLatency::from_snapshot("test", &snap);
        assert_eq!(lat.count, 3);
        assert_eq!(lat.max_us, 2000);
        assert!((lat.mean_us - (0.0 + 3.0 + 2000.0) / 3.0).abs() < 1e-9);
        let total: u64 = lat.buckets.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 3);
        assert!(lat.buckets.iter().any(|&(ub, _)| ub == 4));
        // Monster durations land in the last bucket, not out of range.
        hits.record(Duration::from_secs(40_000));
        assert_eq!(hits.snapshot().count, 4);
    }

    #[test]
    fn counters_flow_into_the_exposition() {
        let m = Metrics::default();
        m.requests_total.add(7);
        m.parse_errors.inc();
        let text = m.registry().render();
        assert!(text.contains("ugpc_requests_total 7"));
        assert!(text.contains("ugpc_parse_errors_total 1"));
        assert!(text.contains("# TYPE ugpc_run_hit_latency_us histogram"));
    }

    #[test]
    fn stats_report_round_trips() {
        let report = StatsReport {
            uptime_s: 1.5,
            workers: 2,
            queue_depth: 0,
            queue_capacity: 64,
            open_connections: 1,
            requests_total: 10,
            parse_errors: 1,
            invalid_configs: 2,
            backpressure_rejections: 3,
            simulations_executed: 4,
            cache: CacheStats {
                entries: 1,
                capacity: 256,
                hits: 5,
                misses: 5,
                coalesced: 0,
                evictions: 0,
                hit_rate: 0.5,
            },
            latency: vec![OpLatency::from_snapshot(
                "run_hit",
                &Histogram::new().snapshot(),
            )],
            persist: Some(PersistStats {
                path: "/tmp/cache.log".to_string(),
                recovered: 2,
                appended: 3,
                bytes: 123,
                truncated_bytes: 7,
                errors: 0,
            }),
        };
        let json = serde_json::to_string(&report).expect("serialize");
        let back: StatsReport = serde_json::from_str(&json).expect("parse");
        assert_eq!(back.cache.hits, 5);
        assert_eq!(back.latency.len(), 1);
        assert_eq!(back.latency[0].op, "run_hit");
        let p = back.persist.expect("persist present");
        assert_eq!(p.recovered, 2);
        assert_eq!(p.bytes, 123);
        assert_eq!(p.truncated_bytes, 7);
        // Seed-era reports lack the field entirely; it decodes as None.
        let seedish = json.replace(",\"persist\":{", ",\"ignored\":{");
        let old: StatsReport = serde_json::from_str(&seedish).expect("parse seed form");
        assert!(old.persist.is_none());
    }

    /// Satellite regression: a fixed duration sequence recorded
    /// round-robin across per-shard histogram sets must produce the
    /// exact wire report (`OpLatency`) and the exact text exposition
    /// that the seed's single shared set produced for the same samples.
    #[test]
    fn sharded_latency_report_is_bit_identical_to_single_registry() {
        // A deliberately awkward sequence: bucket edges, repeats, a
        // zero, and a max-setter, as both µs and ms values.
        let samples_us: [u64; 12] = [0, 1, 2, 3, 4, 7, 8, 1023, 1024, 90_000, 3, 2_000_000];
        let single = Metrics::new(1);
        let sharded = Metrics::new(4);
        for (i, &us) in samples_us.iter().enumerate() {
            let d = Duration::from_micros(us);
            single.latency_shard(0).run_hit.record(d);
            single.latency_shard(0).run_miss.record(d);
            sharded.latency_shard(i).run_hit.record(d);
            sharded.latency_shard(i + 1).run_miss.record(d);
        }
        let a = single.latency_report();
        let b = sharded.latency_report();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.op, y.op);
            assert_eq!(x.count, y.count);
            assert_eq!(x.max_us, y.max_us);
            assert_eq!(x.buckets, y.buckets, "{}", x.op);
            assert!(
                (x.mean_us - y.mean_us).abs() == 0.0,
                "exact, not approximate"
            );
        }
        // The wire JSON and the Prometheus exposition are byte-equal.
        assert_eq!(
            serde_json::to_string(&a).expect("a"),
            serde_json::to_string(&b).expect("b")
        );
        assert_eq!(single.registry().render(), sharded.registry().render());
    }
}
