//! Differential suite: the event-loop server versus the in-process
//! [`Service::handle_line`], over every submission shape.
//!
//! The non-negotiable invariant of the serve layer is that the transport
//! is invisible on the wire: for the same request stream, the event loop
//! produces **byte-identical reply lines** to an in-process service fed
//! the same lines, the same cache-slot behavior (same misses, same
//! simulation count, same retained entries), and the same structured
//! errors — whether requests arrive one at a time (sequential) or many in
//! flight on one connection (pipelined).

// Test helpers may unwrap (clippy's allow-unwrap-in-tests does not
// reach helper fns in integration-test files).
#![allow(clippy::unwrap_used)]

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use ugpc_core::RunConfig;
use ugpc_hwsim::{OpKind, PlatformId, Precision};
use ugpc_serve::protocol::encode;
use ugpc_serve::{
    Client, IntrospectRequest, Logger, Request, RunRequest, ServeOptions, Server, ServerHandle,
    Service, StatsReport,
};

fn tiny() -> RunConfig {
    RunConfig::paper(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double).scaled_down(8)
}

fn seeded(seed: u64) -> RunConfig {
    tiny().with_scheduler(ugpc_runtime::SchedPolicy::Random { seed })
}

fn options() -> ServeOptions {
    ServeOptions {
        workers: 2,
        queue_capacity: 32,
        cache_capacity: 32,
        ..ServeOptions::default()
    }
}

fn spawn() -> ServerHandle {
    Server::bind("127.0.0.1:0", options())
        .expect("bind ephemeral port")
        .spawn()
}

/// A fresh in-process service with the servers' options.
fn in_process() -> Arc<Service> {
    Service::with_logger(options(), Logger::disabled())
}

/// The reference: each line answered by [`Service::handle_line`].
fn exchange_in_process(svc: &Arc<Service>, lines: &[String]) -> Vec<String> {
    lines.iter().map(|line| svc.handle_line(line)).collect()
}

/// The workload every scenario submits: four distinct configs plus a
/// repeat of the first (one slot must be served from cache or by
/// coalescing, never by a fifth simulation).
fn workload() -> Vec<RunConfig> {
    let mut configs: Vec<RunConfig> = (0..3).map(seeded).collect();
    configs.insert(0, tiny());
    configs.push(tiny());
    configs
}

fn run_lines(configs: &[RunConfig]) -> Vec<String> {
    configs
        .iter()
        .map(|c| encode(&Request::Run(RunRequest::new(c.clone()))))
        .collect()
}

fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    (BufReader::new(stream.try_clone().unwrap()), stream)
}

fn read_replies(reader: &mut BufReader<TcpStream>, n: usize) -> Vec<String> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut reply = String::new();
        assert!(
            reader.read_line(&mut reply).unwrap() > 0,
            "server closed the connection mid-stream"
        );
        out.push(reply.trim_end().to_string());
    }
    out
}

/// One request line per turn: write, read, repeat.
fn exchange_sequential(addr: SocketAddr, lines: &[String]) -> Vec<String> {
    let (mut reader, mut writer) = connect(addr);
    let mut out = Vec::with_capacity(lines.len());
    for line in lines {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        out.extend(read_replies(&mut reader, 1));
    }
    out
}

/// Every request line written before any reply is read; replies must
/// come back in request order regardless of completion order.
fn exchange_pipelined(addr: SocketAddr, lines: &[String]) -> Vec<String> {
    let (mut reader, mut writer) = connect(addr);
    for line in lines {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
    }
    writer.flush().unwrap();
    read_replies(&mut reader, lines.len())
}

fn stats_of(addr: SocketAddr) -> StatsReport {
    Client::connect(addr).unwrap().stats().unwrap()
}

const SCENARIOS: [&str; 2] = ["sequential", "pipelined"];

/// Submit `configs` to the server at `addr` in the `scenario` shape.
fn exchange(addr: SocketAddr, scenario: &str, configs: &[RunConfig]) -> Vec<String> {
    match scenario {
        "sequential" => exchange_sequential(addr, &run_lines(configs)),
        "pipelined" => exchange_pipelined(addr, &run_lines(configs)),
        other => panic!("unknown scenario {other}"),
    }
}

/// Run `scenario` against a fresh server and return the reply lines plus
/// the end-of-run stats.
fn run_scenario(scenario: &str) -> (Vec<String>, StatsReport) {
    let handle = spawn();
    let replies = exchange(handle.addr(), scenario, &workload());
    let stats = stats_of(handle.addr());
    handle.stop();
    (replies, stats)
}

/// Every submission shape (sequential, pipelined) against the
/// in-process reference. Reply bytes must be identical across every
/// shape, and cache-slot behavior must agree: four misses (the four
/// distinct configs), four simulations, four retained entries, and the
/// repeated slot answered without a fifth simulation — from the ready
/// entry (a hit) or by coalescing behind the identical in-flight leader
/// (pipelined submission races the repeat against its twin; both
/// are legal, and either way the bytes match).
#[test]
fn reply_bytes_match_in_process_across_scenarios() {
    let svc = in_process();
    let reference = exchange_in_process(&svc, &run_lines(&workload()));
    let stats = svc.stats_report();
    assert_eq!((stats.cache.misses, stats.cache.hits), (4, 1), "in-process");
    assert_eq!(stats.simulations_executed, 4, "in-process");
    // The repeated slot must echo the first slot's bytes exactly.
    assert_eq!(
        reference[4], reference[0],
        "cache hit must be byte-identical"
    );
    for scenario in SCENARIOS {
        let (replies, stats) = run_scenario(scenario);
        assert_eq!(replies, reference, "reply bytes diverged in {scenario}");
        assert_eq!(
            stats.cache.misses, 4,
            "{scenario}: one miss per distinct config"
        );
        assert_eq!(
            stats.simulations_executed, 4,
            "{scenario}: no duplicate work"
        );
        assert_eq!(
            stats.cache.entries, 4,
            "{scenario}: all four slots retained"
        );
        assert_eq!(
            stats.cache.hits + stats.cache.coalesced,
            1,
            "{scenario}: the repeated config reused the leader's result"
        );
        assert_eq!(stats.parse_errors, 0, "{scenario}");
        assert_eq!(stats.invalid_configs, 0, "{scenario}");
    }
}

/// Error slots are part of the differential contract too: an invalid
/// config in the middle of each submission shape produces the in-process
/// structured error bytes, in its request-order position, without
/// desynchronizing the later slots.
#[test]
fn error_slots_are_identical_and_keep_the_stream_in_sync() {
    let mut invalid = tiny();
    invalid.nb += 1; // tile no longer divides N
    let configs = vec![tiny(), invalid, seeded(1)];
    let reference = exchange_in_process(&in_process(), &run_lines(&configs));
    assert!(
        reference[1].contains("invalid_config"),
        "middle slot must be the structured error: {}",
        reference[1]
    );
    for scenario in SCENARIOS {
        let handle = spawn();
        let replies = exchange(handle.addr(), scenario, &configs);
        let stats = stats_of(handle.addr());
        handle.stop();
        assert_eq!(replies, reference, "replies diverged in {scenario}");
        assert_eq!(stats.invalid_configs, 1, "{scenario}");
        assert_eq!(stats.simulations_executed, 2, "{scenario}");
    }
}

/// With info logging off, the event loop memoizes request-line bytes to
/// skip re-parsing repeats (`Service::memo_allowed`). The fast path must
/// be invisible on the wire: byte-identical replies to the in-process
/// service, exact request counters, and still exactly one simulation.
#[test]
fn request_identity_memo_is_invisible_on_the_wire() {
    let line = encode(&Request::Run(RunRequest::new(tiny())));
    let lines: Vec<String> = vec![line; 12];
    let eventloop = Server::bind_with_logger("127.0.0.1:0", options(), Logger::disabled())
        .expect("bind ephemeral port")
        .spawn();
    let fast = exchange_pipelined(eventloop.addr(), &lines);
    let stats = stats_of(eventloop.addr());
    eventloop.stop();
    let slow = exchange_in_process(&in_process(), &lines);
    assert_eq!(fast, slow, "memo fast path changed the reply bytes");
    // 12 memoized runs + the stats request itself: a probe-served
    // repeat must count exactly like a parsed one.
    assert_eq!(stats.requests_total, 13, "every repeat counted");
    assert_eq!(stats.simulations_executed, 1);
    assert_eq!(stats.cache.misses, 1);
    assert_eq!(stats.cache.hits + stats.cache.coalesced, 11);
}

/// Raw garbage gets the in-process `bad_request` bytes, and the
/// connection survives to serve the next request identically.
#[test]
fn malformed_lines_match_in_process() {
    let lines = [
        "this is not json".to_string(),
        "{\"Run\": {\"config\": 5}}".to_string(),
        // The connection still serves a real request afterwards.
        encode(&Request::Run(RunRequest::new(tiny()))),
    ];
    let reference = exchange_in_process(&in_process(), &lines);
    assert!(reference[0].contains("bad_request"), "{}", reference[0]);
    let handle = spawn();
    let replies = exchange_sequential(handle.addr(), &lines);
    let stats = stats_of(handle.addr());
    handle.stop();
    assert_eq!(stats.parse_errors, 2);
    assert_eq!(replies, reference);
}

/// The flight recorder is pure observation: a server with the recorder
/// attached (the default) and one with it detached produce
/// byte-identical reply lines for the same request stream, across every
/// submission shape.
/// This is the neutrality half of the observability contract — spans
/// may time anything they like as long as no reply byte moves.
#[test]
fn flight_recorder_is_invisible_on_the_wire() {
    let run = |scenario: &str, recorder: bool| -> Vec<String> {
        let opts = ServeOptions {
            recorder,
            ..options()
        };
        let handle = Server::bind("127.0.0.1:0", opts)
            .expect("bind ephemeral port")
            .spawn();
        let replies = exchange(handle.addr(), scenario, &workload());
        handle.stop();
        replies
    };
    for scenario in SCENARIOS {
        let attached = run(scenario, true);
        let detached = run(scenario, false);
        assert_eq!(
            attached, detached,
            "recorder changed the wire bytes in {scenario}"
        );
    }
}

/// Introspect exactness: every span tree the recorder returns
/// telescopes — the phase durations sum to the root total *exactly*
/// (integer µs, no rounding slop) — and a recorder-off server answers
/// `enabled: false` instead of erroring.
#[test]
fn introspect_span_trees_telescope_exactly() {
    let handle = spawn();
    let _ = exchange_pipelined(handle.addr(), &run_lines(&workload()));
    let report = Client::connect(handle.addr())
        .unwrap()
        .introspect(IntrospectRequest {
            last: Some(16),
            worst: Some(8),
        })
        .unwrap();
    handle.stop();
    assert!(report.enabled, "the default options attach the recorder");
    assert!(report.recorded >= 5, "all five workload slots recorded");
    assert!(!report.spans.is_empty());
    assert!(!report.worst.is_empty());
    for dump in report.spans.iter().chain(report.worst.iter()) {
        let sum: u64 = dump.phases.iter().map(|(_, us)| us).sum();
        assert_eq!(
            sum, dump.total_us,
            "trace {} phase sums must telescope to the root total",
            dump.trace
        );
        assert!(!dump.phases.is_empty(), "trace {}", dump.trace);
    }
    // The per-phase decomposition covers the same uptime: the root-total
    // histogram saw every recorded request.
    let total = report.total.expect("root decomposition present");
    assert_eq!(total.count, report.recorded);

    let detached = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            recorder: false,
            ..options()
        },
    )
    .expect("bind ephemeral port")
    .spawn();
    let report = Client::connect(detached.addr())
        .unwrap()
        .introspect(IntrospectRequest {
            last: None,
            worst: None,
        })
        .unwrap();
    detached.stop();
    assert!(!report.enabled, "detached server reports enabled: false");
    assert_eq!(report.recorded, 0);
    assert!(report.spans.is_empty() && report.worst.is_empty() && report.phases.is_empty());
    assert!(report.total.is_none());
}
