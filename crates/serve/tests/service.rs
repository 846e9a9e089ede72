//! End-to-end tests of the TCP service: byte-fidelity, single-flight
//! under concurrent clients, malformed-input resilience, backpressure,
//! the ops surface, and the pipelined multi-connection load smoke.

// Test helpers may unwrap (clippy's allow-unwrap-in-tests does not
// reach helper fns in integration-test files).
#![allow(clippy::unwrap_used)]

use ugpc_core::{run_study, RunConfig};
use ugpc_hwsim::{OpKind, PlatformId, Precision};
use ugpc_runtime::SchedPolicy;
use ugpc_serve::protocol::{decode, encode};
use ugpc_serve::{
    error_code, Client, IntrospectRequest, Logger, Request, Response, RunRequest, ServeOptions,
    Server, Service,
};

fn tiny() -> RunConfig {
    RunConfig::paper(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double).scaled_down(8)
}

fn spawn_server(options: ServeOptions) -> ugpc_serve::ServerHandle {
    Server::bind("127.0.0.1:0", options)
        .expect("bind ephemeral port")
        .spawn()
}

fn small_options() -> ServeOptions {
    ServeOptions {
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 16,
        ..ServeOptions::default()
    }
}

#[test]
fn served_report_matches_direct_library_call() {
    let handle = spawn_server(small_options());
    let mut client = Client::connect(handle.addr()).unwrap();
    let served = client.run(tiny()).unwrap();
    let direct = run_study(&tiny());
    assert_eq!(
        serde_json::to_string(&served).unwrap(),
        serde_json::to_string(&direct).unwrap(),
        "service must be byte-identical to the library"
    );
    handle.stop();
}

#[test]
fn concurrent_identical_requests_simulate_once() {
    let handle = spawn_server(small_options());
    let n = 6;
    let responses: Vec<String> = std::thread::scope(|s| {
        let addr = handle.addr();
        let handles: Vec<_> = (0..n)
            .map(|_| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let report = client.run(tiny()).unwrap();
                    serde_json::to_string(&report).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &responses[1..] {
        assert_eq!(r, &responses[0], "all N responses identical");
    }
    let mut client = Client::connect(handle.addr()).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.simulations_executed, 1,
        "single-flight: one simulation"
    );
    assert_eq!(stats.cache.misses, 1);
    assert_eq!(
        stats.cache.hits + stats.cache.coalesced,
        (n - 1) as u64,
        "everyone else reused the leader's result: {stats:?}"
    );
    handle.stop();
}

#[test]
fn malformed_input_gets_error_reply_and_connection_survives() {
    let handle = spawn_server(small_options());
    let mut client = Client::connect(handle.addr()).unwrap();
    for garbage in ["this is not json", "{\"Run\": {\"config\": 5}}"] {
        client.send_raw(garbage.as_bytes()).unwrap();
        match client.recv().unwrap() {
            Response::Error(e) => assert_eq!(e.code, error_code::BAD_REQUEST),
            other => panic!("expected error, got {other:?}"),
        }
    }
    // Same connection still works for a real request afterwards.
    client.ping().unwrap();
    let report = client.run(tiny()).unwrap();
    assert!(report.gflops > 0.0);
    handle.stop();
}

/// A line nested far past the JSON parser's depth limit is an ordinary
/// bad request, not a stack overflow, and the service keeps serving.
#[test]
fn deeply_nested_line_is_a_bad_request() {
    let svc = Service::with_logger(small_options(), Logger::disabled());
    let reply: Response = decode(&svc.handle_line(&"[".repeat(1_000_000))).unwrap();
    match reply {
        Response::Error(e) => assert_eq!(e.code, error_code::BAD_REQUEST),
        other => panic!("expected error, got {other:?}"),
    }
    let run = encode(&Request::Run(RunRequest::new(tiny())));
    match decode(&svc.handle_line(&run)).unwrap() {
        Response::Run(report) => assert!(report.gflops > 0.0),
        other => panic!("expected a run report, got {other:?}"),
    }
}

#[test]
fn invalid_config_is_structured_error() {
    let handle = spawn_server(small_options());
    let mut client = Client::connect(handle.addr()).unwrap();
    let mut cfg = tiny();
    cfg.nb += 1; // tile no longer divides N
    match client.run(cfg) {
        Err(ugpc_serve::ClientError::Server(e)) => {
            assert_eq!(e.code, error_code::INVALID_CONFIG);
            assert!(e.message.contains("divide"), "{}", e.message);
        }
        other => panic!("expected invalid_config, got {other:?}"),
    }
    handle.stop();
}

#[test]
fn dynamic_study_over_the_wire() {
    let handle = spawn_server(small_options());
    let mut client = Client::connect(handle.addr()).unwrap();
    let report = client.run_dynamic(tiny(), 3).unwrap();
    assert_eq!(report.iterations.len(), 3);
    assert!(report.final_efficiency_gflops_w > 0.0);
    // Served dynamic study matches the direct call byte-for-byte too.
    let direct = ugpc_core::run_dynamic_study(&tiny(), 3).unwrap();
    assert_eq!(
        serde_json::to_string(&report).unwrap(),
        serde_json::to_string(&direct).unwrap()
    );
    handle.stop();
}

#[test]
fn controlled_run_over_the_wire() {
    use ugpc_control::{ControllerSpec, ObjectiveKind};
    let handle = spawn_server(small_options());
    let mut client = Client::connect(handle.addr()).unwrap();
    let spec = ControllerSpec::new(ObjectiveKind::GflopsPerWatt).with_period(0.05);
    let run = client.run_controlled(tiny(), spec.clone()).unwrap();
    assert_eq!(run.objective, "gflops-w");
    assert!(run.report.makespan_s > 0.0);
    // Served controlled run matches the direct call byte-for-byte.
    let options = ugpc_core::StudyOptions {
        controller: Some(spec.clone()),
        ..Default::default()
    };
    let direct = ugpc_core::try_run_study_with(&tiny(), options)
        .unwrap()
        .controlled()
        .unwrap();
    assert_eq!(
        serde_json::to_string(&run).unwrap(),
        serde_json::to_string(&direct).unwrap()
    );
    // A controlled request and the static request of the same config use
    // distinct cache slots: running one then the other must be two
    // misses, and repeating each hits its own entry.
    let static_report = client.run(tiny()).unwrap();
    let again = client.run_controlled(tiny(), spec.clone()).unwrap();
    assert_eq!(
        serde_json::to_string(&again).unwrap(),
        serde_json::to_string(&run).unwrap()
    );
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.cache.misses, 2,
        "controlled and static are distinct entries"
    );
    assert!(stats.cache.hits >= 1);
    assert!(static_report.gflops > 0.0);
    // Malformed spec is a structured error, not a dropped connection.
    match client.run_controlled(tiny(), spec.clone().with_period(0.0)) {
        Err(ugpc_serve::ClientError::Server(e)) => {
            assert_eq!(e.code, error_code::INVALID_CONFIG);
            assert!(e.message.contains("period"), "{}", e.message);
        }
        other => panic!("expected invalid_config, got {other:?}"),
    }
    handle.stop();
}

#[test]
fn traced_run_over_the_wire() {
    let handle = spawn_server(small_options());
    let mut client = Client::connect(handle.addr()).unwrap();
    let traced = client.run_traced(tiny(), 24).unwrap();
    assert!(traced.report.makespan_s > 0.0);
    assert!(traced.power.avg_w.iter().all(|l| l.len() == 24));
    // Served timeline matches the direct call byte-for-byte.
    let direct = ugpc_core::run_study_traced(&tiny(), 24);
    assert_eq!(
        serde_json::to_string(&traced).unwrap(),
        serde_json::to_string(&direct).unwrap()
    );
    handle.stop();
}

#[test]
fn cache_eviction_respects_bound_over_the_wire() {
    let handle = spawn_server(ServeOptions {
        workers: 1,
        queue_capacity: 16,
        cache_capacity: 2,
        ..ServeOptions::default()
    });
    let mut client = Client::connect(handle.addr()).unwrap();
    for seed in 0..4u64 {
        let cfg = tiny().with_scheduler(SchedPolicy::Random { seed });
        client.run(cfg).unwrap();
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.cache.entries, 2, "LRU bound holds");
    assert_eq!(stats.cache.evictions, 2);
    assert_eq!(stats.cache.misses, 4);
    handle.stop();
}

#[test]
fn stats_and_clear_cache_roundtrip() {
    let handle = spawn_server(small_options());
    let mut client = Client::connect(handle.addr()).unwrap();
    client.run(tiny()).unwrap();
    client.run(tiny()).unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.uptime_s >= 0.0);
    assert_eq!(stats.workers, 2);
    assert_eq!(stats.cache.hits, 1);
    assert!(stats.cache.hit_rate > 0.0);
    assert_eq!(stats.open_connections, 1);
    // Latency histograms recorded both classes.
    let lat = |op: &str| {
        stats
            .latency
            .iter()
            .find(|l| l.op == op)
            .map(|l| l.count)
            .unwrap_or(0)
    };
    assert_eq!(lat("run_miss"), 1);
    assert_eq!(lat("run_hit"), 1);
    client.clear_cache().unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.cache.entries, 0);
    handle.stop();
}

#[test]
fn shutdown_stops_the_accept_loop() {
    let handle = spawn_server(small_options());
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    handle.stop(); // joins promptly because the loop already exited
                   // New connections are refused (or reset) once the server is gone.
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert!(
        Client::connect(addr).and_then(|mut c| c.ping()).is_err(),
        "server should be gone"
    );
}

/// The load smoke: prime four configurations, then pipeline twelve
/// requests on each of eight connections at once, so every reply is a
/// cache hit served while other connections are busy. With
/// `UGPC_BENCH_JSON` set, the flight recorder's report (last-N and
/// worst-K span trees, per-phase p50/p99) is written to
/// `$UGPC_BENCH_JSON/SPANS_serve.json`; a relative directory is taken
/// from the workspace root, not from this crate's test directory.
#[test]
fn pipelined_load_on_eight_connections_is_served_from_cache() {
    const CONNECTIONS: usize = 8;
    const PIPELINE: usize = 12;
    let configs = [
        tiny(),
        tiny().with_scheduler(SchedPolicy::Dmda),
        tiny().with_gpu_config("BBBB".parse().unwrap()),
        tiny().with_scheduler(SchedPolicy::Random { seed: 3 }),
    ];
    let handle = spawn_server(ServeOptions::default());
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    for cfg in &configs {
        client.run(cfg.clone()).unwrap();
    }

    let errors: usize = std::thread::scope(|s| {
        let conns: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let configs = &configs;
                s.spawn(move || {
                    let mut conn = Client::connect(addr).unwrap();
                    for i in 0..PIPELINE {
                        let cfg = configs[(c + i) % configs.len()].clone();
                        conn.send(&Request::Run(RunRequest::new(cfg))).unwrap();
                    }
                    (0..PIPELINE)
                        .filter(|_| match conn.recv().unwrap() {
                            Response::Run(_) => false,
                            Response::Error(_) => true,
                            other => panic!("unexpected reply {other:?}"),
                        })
                        .count()
                })
            })
            .collect();
        conns.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(errors, 0, "error replies under load");

    let stats = client.stats().unwrap();
    assert_eq!(stats.simulations_executed, 4, "only the primes simulate");
    assert!(stats.cache.hit_rate > 0.0, "{stats:?}");

    let report = client
        .introspect(IntrospectRequest {
            last: Some(32),
            worst: Some(8),
        })
        .unwrap();
    assert!(
        report.recorded >= (CONNECTIONS * PIPELINE) as u64,
        "recorded {}",
        report.recorded
    );
    if let Ok(dir) = std::env::var("UGPC_BENCH_JSON") {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap();
        let dir = root.join(dir);
        std::fs::create_dir_all(&dir).unwrap();
        let json = serde_json::to_string_pretty(&report).unwrap();
        std::fs::write(dir.join("SPANS_serve.json"), json).unwrap();
    }
    handle.stop();
}
