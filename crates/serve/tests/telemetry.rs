//! The telemetry smoke suite (the CI `telemetry-smoke` leg): boot a real
//! TCP server, drive one run plus a `Metrics` scrape through a client,
//! and assert the whole observability surface holds together —
//!
//! - the Prometheus text exposition parses and is internally consistent
//!   (cumulative histogram buckets, `+Inf` == `_count`),
//! - counters are monotone across scrapes,
//! - a client-supplied `trace_id` round-trips into both the server's
//!   JSON log lines and the exported Perfetto trace,
//! - the `StatsReport` and the registry report the same numbers.

// Test helpers may unwrap (clippy's allow-unwrap-in-tests does not
// reach helper fns in integration-test files).
#![allow(clippy::unwrap_used)]

use std::collections::HashMap;
use ugpc_core::RunConfig;
use ugpc_hwsim::{OpKind, PlatformId, Precision};
use ugpc_serve::{Client, Level, Logger, ServeOptions, Server, TraceCtx};

fn tiny() -> RunConfig {
    RunConfig::paper(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double).scaled_down(8)
}

fn small_options() -> ServeOptions {
    ServeOptions {
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 16,
        ..ServeOptions::default()
    }
}

/// A parsed exposition: metric line -> value, keyed by the full series
/// name including labels (`ugpc_run_hit_latency_us_bucket{le="4"}`).
struct Exposition {
    series: HashMap<String, f64>,
    histograms: Vec<String>,
}

/// Parse (and validate the grammar of) a Prometheus 0.0.4 text page.
fn parse_exposition(text: &str) -> Exposition {
    let mut series = HashMap::new();
    let mut histograms = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("type line has a name").to_string();
            let kind = parts.next().expect("type line has a kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown metric type {kind:?}"
            );
            if kind == "histogram" {
                histograms.push(name);
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        // Sample line: `name` or `name{labels}`, one space, float value.
        let (name, value) = line.rsplit_once(' ').expect("sample line has a value");
        let value: f64 = value.parse().unwrap_or_else(|_| {
            panic!("unparseable sample value in {line:?}");
        });
        assert!(
            name.chars().next().is_some_and(|c| c.is_ascii_alphabetic()),
            "bad series name in {line:?}"
        );
        let dup = series.insert(name.to_string(), value);
        assert!(dup.is_none(), "duplicate series {name}");
    }
    Exposition { series, histograms }
}

impl Exposition {
    fn get(&self, series: &str) -> f64 {
        *self
            .series
            .get(series)
            .unwrap_or_else(|| panic!("series {series} missing from exposition"))
    }

    /// Validate one histogram family: cumulative buckets are monotone
    /// non-decreasing in `le`, and the `+Inf` bucket equals `_count`.
    fn check_histogram(&self, name: &str) {
        let mut buckets: Vec<(f64, f64)> = self
            .series
            .iter()
            .filter_map(|(k, &v)| {
                let le = k
                    .strip_prefix(&format!("{name}_bucket{{le=\""))?
                    .strip_suffix("\"}")?;
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().expect("numeric bucket bound")
                };
                Some((bound, v))
            })
            .collect();
        assert!(!buckets.is_empty(), "{name}: no buckets");
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        for pair in buckets.windows(2) {
            assert!(
                pair[1].1 >= pair[0].1,
                "{name}: cumulative buckets must be non-decreasing"
            );
        }
        let (last_bound, last) = *buckets.last().unwrap();
        assert!(last_bound.is_infinite(), "{name}: missing +Inf bucket");
        assert_eq!(last, self.get(&format!("{name}_count")), "{name}: +Inf");
        assert!(self.get(&format!("{name}_sum")) >= 0.0);
    }
}

#[test]
fn metrics_scrape_is_valid_and_counters_are_monotone() {
    let handle = Server::bind("127.0.0.1:0", small_options())
        .expect("bind")
        .spawn();
    let mut client = Client::connect(handle.addr()).unwrap();

    client.run(tiny()).unwrap();
    let first = parse_exposition(&client.metrics().unwrap());
    for h in &first.histograms {
        first.check_histogram(h);
    }
    assert_eq!(first.get("ugpc_cache_misses"), 1.0);
    assert_eq!(first.get("ugpc_simulations_total"), 1.0);
    assert!(first.get("ugpc_uptime_seconds") >= 0.0);
    assert_eq!(first.get("ugpc_open_connections"), 1.0);
    // Shard health gauges: exported even when idle. Every earlier reply
    // was read before the scrape was sent, and a shard publishes its
    // depths after the event round that wrote the reply, so no slot is
    // unanswered and no reply byte is buffered.
    assert_eq!(first.get("ugpc_inbox_depth"), 0.0);
    assert_eq!(first.get("ugpc_write_backlog_bytes"), 0.0);
    // Append-log gauges: a memory-only server exports them as zeros
    // rather than omitting the series (dashboards need stable names).
    assert_eq!(first.get("ugpc_persist_log_bytes"), 0.0);
    assert_eq!(first.get("ugpc_persist_log_records"), 0.0);
    assert_eq!(first.get("ugpc_persist_recovered_records"), 0.0);
    assert_eq!(first.get("ugpc_persist_truncated_bytes"), 0.0);

    // More traffic, then a second scrape: every counter is monotone.
    client.run(tiny()).unwrap(); // cache hit
    client.stats().unwrap();
    let second = parse_exposition(&client.metrics().unwrap());
    for h in &second.histograms {
        second.check_histogram(h);
    }
    for (name, &v1) in &first.series {
        if name.contains("_total") || name.ends_with("_count") || name.ends_with("_sum") {
            let v2 = second.get(name);
            assert!(v2 >= v1, "{name} went backwards: {v1} -> {v2}");
        }
    }
    assert_eq!(second.get("ugpc_cache_hits"), 1.0);
    assert_eq!(second.get("ugpc_run_hit_latency_us_count"), 1.0);
    assert_eq!(second.get("ugpc_run_miss_latency_us_count"), 1.0);

    // The registry and the StatsReport are views of the same atomics.
    let stats = client.stats().unwrap();
    let third = parse_exposition(&client.metrics().unwrap());
    assert_eq!(
        third.get("ugpc_simulations_total") as u64,
        stats.simulations_executed
    );
    assert_eq!(third.get("ugpc_cache_hits") as u64, stats.cache.hits);
    assert_eq!(third.get("ugpc_cache_misses") as u64, stats.cache.misses);
    let hit_lat = stats.latency.iter().find(|l| l.op == "run_hit").unwrap();
    assert_eq!(
        third.get("ugpc_run_hit_latency_us_count") as u64,
        hit_lat.count
    );

    handle.stop();
}

#[test]
fn client_trace_id_reaches_log_and_perfetto_export() {
    let (logger, buf) = Logger::to_buffer(Level::Debug);
    let handle = Server::bind_with_logger("127.0.0.1:0", small_options(), logger)
        .expect("bind")
        .spawn();
    let mut client = Client::connect(handle.addr()).unwrap();

    let ctx = TraceCtx {
        trace_id: 0x00c0_ffee_0042,
        span_id: 0x0000_0bad_cafe,
    };
    let run = client.run_perfetto(tiny(), Some(ctx)).unwrap();
    assert_eq!(run.trace_id, "00c0ffee0042");
    assert_eq!(run.span_id, "00000badcafe");
    assert!(run.report.makespan_s > 0.0);

    // The export embeds the context as a metadata record.
    assert!(run.trace_json.contains("trace_context"), "metadata record");
    assert!(run.trace_json.contains("00c0ffee0042"), "trace id embedded");
    let parsed = serde::json::parse(&run.trace_json).expect("perfetto JSON parses");
    assert!(parsed.get("traceEvents").is_some());

    // The server's JSON log lines carry the same ids, and parse.
    let text = String::from_utf8(buf.lock().clone()).expect("utf8 log");
    let mut saw_trace = false;
    for line in text.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("log line is JSON");
        if v.get("trace_id").and_then(|t| t.as_str()) == Some("00c0ffee0042") {
            saw_trace = true;
            assert_eq!(
                v.get("span_id").and_then(|s| s.as_str()),
                Some("00000badcafe")
            );
        }
    }
    assert!(saw_trace, "client trace id absent from server log:\n{text}");

    // A repeat of the same request is a cache hit with the same bytes.
    let again = client.run_perfetto(tiny(), Some(ctx)).unwrap();
    assert_eq!(again.trace_json, run.trace_json);
    let stats = client.stats().unwrap();
    assert_eq!(stats.simulations_executed, 1);

    handle.stop();
}
