//! Kill-and-restart persistence suite: the append-log cache tier must
//! make a restarted server indistinguishable from one that never died —
//! recovered keys replay **byte-identically** with zero simulations —
//! and a corrupt or torn log tail must degrade to recomputation, never
//! to wrong bytes or a failed boot.

// Test helpers may unwrap (clippy's allow-unwrap-in-tests does not
// reach helper fns in integration-test files).
#![allow(clippy::unwrap_used)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use ugpc_core::RunConfig;
use ugpc_hwsim::{OpKind, PlatformId, Precision};
use ugpc_serve::protocol::encode;
use ugpc_serve::{
    Client, Logger, Request, RunRequest, ServeOptions, Server, ServerHandle, Service,
};

fn tiny() -> RunConfig {
    RunConfig::paper(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double).scaled_down(8)
}

fn seeded(seed: u64) -> RunConfig {
    tiny().with_scheduler(ugpc_runtime::SchedPolicy::Random { seed })
}

fn log_path(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ugpc-serve-persist-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join("cache.log")
}

fn persistent_options(path: &Path) -> ServeOptions {
    ServeOptions {
        workers: 1,
        queue_capacity: 16,
        cache_capacity: 16,
        persist_path: Some(path.to_path_buf()),
        ..ServeOptions::default()
    }
}

fn spawn_persistent(path: &Path) -> ServerHandle {
    Server::bind("127.0.0.1:0", persistent_options(path))
        .expect("bind ephemeral port")
        .spawn()
}

/// Sequential request/reply turns over a raw socket, returning the
/// exact reply lines (the replay comparisons are byte comparisons).
fn exchange(handle: &ServerHandle, configs: &[RunConfig]) -> Vec<String> {
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut out = Vec::with_capacity(configs.len());
    for cfg in configs {
        let line = encode(&Request::Run(RunRequest::new(cfg.clone())));
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        assert!(
            reader.read_line(&mut reply).unwrap() > 0,
            "connection closed"
        );
        out.push(reply.trim_end().to_string());
    }
    out
}

/// Generation 1 computes and persists; generation 2 (a fresh process'
/// worth of state over the same log) serves every key byte-identically
/// with **zero** simulations; generation 3 proves the log is
/// transport-neutral by replaying into an in-process service.
#[test]
fn restart_replays_byte_identically_without_simulating() {
    let path = log_path("restart");
    let configs: Vec<RunConfig> = (0..3).map(seeded).collect();

    let first = spawn_persistent(&path);
    let original = exchange(&first, &configs);
    let stats = Client::connect(first.addr()).unwrap().stats().unwrap();
    assert_eq!(stats.simulations_executed, 3);
    let persist = stats.persist.expect("persist tier attached");
    assert_eq!((persist.recovered, persist.appended), (0, 3));
    assert!(persist.bytes > 0);
    first.stop();

    let second = spawn_persistent(&path);
    let replayed = exchange(&second, &configs);
    let stats = Client::connect(second.addr()).unwrap().stats().unwrap();
    second.stop();
    assert_eq!(
        replayed, original,
        "recovered replies must be byte-identical"
    );
    assert_eq!(
        stats.simulations_executed, 0,
        "every key served from the recovered corpus"
    );
    assert_eq!(stats.cache.hits, 3);
    assert_eq!(stats.cache.misses, 0);
    let persist = stats.persist.expect("persist tier attached");
    assert_eq!((persist.recovered, persist.appended), (3, 0));
    assert_eq!(persist.truncated_bytes, 0, "clean replay truncates nothing");

    // The log is a property of the cache, not the transport: a service
    // driven in-process replays the server's corpus too.
    let third = Service::with_logger(persistent_options(&path), Logger::disabled());
    let cross: Vec<String> = configs
        .iter()
        .map(|cfg| third.handle_line(&encode(&Request::Run(RunRequest::new(cfg.clone())))))
        .collect();
    assert_eq!(cross, original, "cross-transport replay diverged");
    assert_eq!(third.stats_report().simulations_executed, 0);
}

/// Kill mid-corpus: flip one payload byte in the middle record. Recovery
/// keeps everything before the corruption, truncates the rest, and the
/// server recomputes the lost keys — reproducing the original bytes
/// (simulation is deterministic), now with simulations > 0 for exactly
/// the lost keys. The repaired log then persists the recomputed results.
#[test]
fn corrupt_tail_truncates_and_recomputes_over_the_wire() {
    let path = log_path("corrupt");
    let configs: Vec<RunConfig> = (0..3).map(seeded).collect();

    let first = spawn_persistent(&path);
    let original = exchange(&first, &configs);
    first.stop();

    // Record layout: [len u32][crc u32][key u64][payload]. Sequential
    // requests over one worker append in request order, so record i
    // holds original[i]. Flip a payload byte inside record 1.
    let mut raw = std::fs::read(&path).expect("read log");
    let rec0 = 8 + 8 + original[0].len();
    let flip_at = rec0 + 8 + 8 + 2;
    raw[flip_at] ^= 0xFF;
    std::fs::write(&path, &raw).expect("write corrupted log");

    let second = spawn_persistent(&path);
    let replayed = exchange(&second, &configs);
    let stats = Client::connect(second.addr()).unwrap().stats().unwrap();
    second.stop();
    assert_eq!(
        replayed, original,
        "recomputed keys must reproduce the original bytes"
    );
    assert_eq!(
        stats.simulations_executed, 2,
        "exactly the corrupted-and-after keys recompute"
    );
    assert_eq!(stats.cache.hits, 1, "the intact prefix record still serves");
    let persist = stats.persist.expect("persist tier attached");
    assert_eq!(persist.recovered, 1, "scan stopped at the corrupt record");
    assert_eq!(persist.appended, 2, "recomputed results re-persisted");
    let truncated = persist.truncated_bytes;
    assert!(
        truncated > 0,
        "the discarded tail must be visible over the wire"
    );

    // The repaired log now holds the full corpus again: one more
    // restart serves everything with zero simulations.
    let third = spawn_persistent(&path);
    let healed = exchange(&third, &configs);
    let stats = Client::connect(third.addr()).unwrap().stats().unwrap();
    third.stop();
    assert_eq!(healed, original);
    assert_eq!(stats.simulations_executed, 0);
    assert_eq!(stats.persist.expect("attached").recovered, 3);
}

/// `ClearCache` over the wire truncates the log: a cleared corpus must
/// not resurrect on restart.
#[test]
fn clear_cache_truncates_the_log_across_restart() {
    let path = log_path("clear");
    let first = spawn_persistent(&path);
    exchange(&first, &[tiny()]);
    let mut client = Client::connect(first.addr()).unwrap();
    client.clear_cache().unwrap();
    first.stop();

    let second = spawn_persistent(&path);
    let stats = Client::connect(second.addr()).unwrap().stats().unwrap();
    assert_eq!(stats.persist.expect("attached").recovered, 0);
    assert_eq!(stats.cache.entries, 0, "cleared corpus resurrected");
    // The service still works and re-persists fresh results.
    exchange(&second, &[tiny()]);
    let stats = Client::connect(second.addr()).unwrap().stats().unwrap();
    second.stop();
    assert_eq!(stats.simulations_executed, 1);
    assert_eq!(stats.persist.expect("attached").appended, 1);
}
