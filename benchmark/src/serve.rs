//! The three serve workloads: an in-process `ugpc-serve` server driven
//! over loopback TCP by a closed-loop client on one connection, with
//! every reply checked byte for byte.
//!
//! A run is split into rounds. Each round sets up a fresh server (timed:
//! the set-up time) and loads it in one-second slices, with a machine
//! calibration after the set-up and after every slice (see `calib.rs`).
//! Throughput and latency are medians over the slices of all rounds,
//! each slice scaled by the slowdown measured around it.

use crate::calib::Calibrator;
use crate::inputs::{paper_space, Rng, Zipf};
use crate::stats::{median, Hist};
use crate::{metric, replay, Metric, Outcome, TempDir, Workload};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use ugpc::serve::protocol::encode;
use ugpc::serve::{
    IntrospectRequest, Logger, Request, RunRequest, ServeOptions, Server, ServerHandle, StatsReport,
};
use ugpc::RunConfig;

/// Server shape for every workload: two simulation workers and two
/// event-loop shards on the two-core reference machine, recorder on,
/// logging off (the default `info` logging alone cuts hit throughput
/// by more than half, which would hide every other cost). The client's
/// one connection is served by one shard.
const WORKERS: usize = 2;
const SHARDS: usize = 2;
/// Rounds per run, each with its own server.
const ROUNDS: u64 = 8;
/// Load between two calibrations.
const SLICE: Duration = Duration::from_secs(1);

const HIT_KEYS: usize = 64;
const HIT_DEPTH: usize = 16;
/// Four misses in flight keep both workers busy with two queued.
const MISS_DEPTH: usize = 4;
const ZIPF_DEPTH: usize = 8;
/// Keys primed into the 256-entry cache before the miss load, so the
/// measured phase starts at its steady ~5 % hit ratio.
const MISS_FILL: usize = 256;
/// Zipf exponent of the key popularity.
const ZIPF_EXPONENT: f64 = 1.0;
/// Share of Zipf requests asking for a power timeline: a distinct cache
/// identity with a larger reply.
const TRACED_SHARE: f64 = 0.05;
const POWER_BINS: usize = 64;
/// Requests of the Zipf warm phase that fills the append log every
/// round restarts from.
const ZIPF_WARM_REQUESTS: usize = 8000;
/// Served replies compared against in-process library calls.
const CHECK_SAMPLE: usize = 200;

fn server_options(persist_path: Option<PathBuf>) -> ServeOptions {
    ServeOptions {
        workers: WORKERS,
        shards: SHARDS,
        recorder: true,
        persist_path,
        ..ServeOptions::default()
    }
}

/// Bind, spawn, and wait for the first `Pong`.
fn start_server(persist_path: Option<PathBuf>) -> Result<ServerHandle, String> {
    let server = Server::bind_with_logger(
        "127.0.0.1:0",
        server_options(persist_path),
        Logger::disabled(),
    )
    .map_err(|e| format!("bind: {e}"))?;
    let handle = server.spawn();
    let mut conn = Conn::open(handle.addr())?;
    conn.send(format!("{}\n", encode(&Request::Ping)).as_bytes())?;
    let pong = conn.recv()?;
    if pong != b"\"Pong\"" {
        return Err(format!("ping answered {}", String::from_utf8_lossy(pong)));
    }
    Ok(handle)
}

/// Every distinct request a workload can send, pre-encoded, with the
/// first reply seen for it. All later replies must repeat those bytes.
struct Catalog {
    requests: Vec<(RunConfig, Option<usize>)>,
    lines: Vec<Vec<u8>>,
    first: Vec<OnceLock<Vec<u8>>>,
}

impl Catalog {
    fn new(requests: Vec<(RunConfig, Option<usize>)>) -> Catalog {
        let lines = requests
            .iter()
            .map(|(cfg, bins)| {
                let mut run = RunRequest::new(cfg.clone());
                run.power_bins = *bins;
                format!("{}\n", encode(&Request::Run(run))).into_bytes()
            })
            .collect();
        let first = requests.iter().map(|_| OnceLock::new()).collect();
        Catalog {
            requests,
            lines,
            first,
        }
    }

    fn len(&self) -> usize {
        self.requests.len()
    }

    fn check(&self, id: usize, reply: &[u8]) -> Reply {
        if reply.starts_with(b"{\"Error\"") {
            return Reply::Failed;
        }
        let first = self.first[id].get_or_init(|| reply.to_vec());
        if first.as_slice() == reply {
            Reply::Ok
        } else {
            Reply::Mismatch
        }
    }

    /// A seeded sample of up to `CHECK_SAMPLE` answered requests.
    fn answered_sample(&self, seed: u64) -> Vec<usize> {
        let answered: Vec<usize> = (0..self.len())
            .filter(|&i| self.first[i].get().is_some())
            .collect();
        let picks = Rng::stream(seed, 99).sample(answered.len(), CHECK_SAMPLE.min(answered.len()));
        picks.into_iter().map(|p| answered[p]).collect()
    }

    fn served(&self, id: usize) -> &[u8] {
        self.first[id].get().map_or(&[], Vec::as_slice)
    }
}

enum Reply {
    Ok,
    Failed,
    Mismatch,
}

/// One client connection speaking raw JSON lines.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let read_half = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            writer: stream,
            reader: BufReader::with_capacity(1 << 16, read_half),
            buf: Vec::with_capacity(1 << 14),
        })
    }

    fn send(&mut self, line: &[u8]) -> Result<(), String> {
        self.writer
            .write_all(line)
            .map_err(|e| format!("send: {e}"))
    }

    /// The next reply line, without its newline.
    fn recv(&mut self) -> Result<&[u8], String> {
        self.buf.clear();
        let n = self
            .reader
            .read_until(b'\n', &mut self.buf)
            .map_err(|e| format!("recv: {e}"))?;
        if n == 0 || self.buf.last() != Some(&b'\n') {
            return Err("server closed the connection".into());
        }
        Ok(&self.buf[..n - 1])
    }
}

/// What the client saw over one stretch of load.
#[derive(Default)]
struct Slice {
    latency: Hist,
    secs: f64,
    sent: u64,
    failed: u64,
    mismatched: u64,
}

impl Slice {
    fn record(&mut self, latency: Duration, reply: Reply) {
        match reply {
            Reply::Ok => {}
            Reply::Failed => self.failed += 1,
            Reply::Mismatch => self.mismatched += 1,
        }
        self.sent += 1;
        self.latency.record(latency.as_nanos() as u64);
    }

    fn check_clean(&self, phase: &str) -> Result<(), String> {
        if self.failed + self.mismatched > 0 {
            return Err(format!(
                "{phase}: {} failed and {} mismatched replies",
                self.failed, self.mismatched
            ));
        }
        Ok(())
    }
}

/// One timed slice: replies per second, latency p50 and p90 in ms, and
/// the slowdown measured around it.
struct Timed {
    rate: f64,
    p50_ms: f64,
    p90_ms: f64,
    slowdown: f64,
}

/// Everything a run's load observed.
#[derive(Default)]
pub struct Load {
    all: Slice,
    timed: Vec<Timed>,
}

impl Load {
    fn add(&mut self, s: &Slice) {
        self.all.latency.merge(&s.latency);
        self.all.secs += s.secs;
        self.all.sent += s.sent;
        self.all.failed += s.failed;
        self.all.mismatched += s.mismatched;
    }

    fn add_timed(&mut self, s: &Slice, slowdown: f64) {
        self.add(s);
        let p = |q: f64| s.latency.percentile_ms(q).unwrap_or(0.0);
        self.timed.push(Timed {
            rate: s.sent as f64 / s.secs,
            p50_ms: p(0.5),
            p90_ms: p(0.9),
            slowdown,
        });
    }

    /// Replies per second, latency p50 and p90 (ms), each the median over
    /// the timed slices: scaled to the reference machine, or raw.
    fn end_to_end(&self, scaled: bool) -> Result<Vec<Metric>, String> {
        if self.timed.is_empty() {
            return Err("no timed slice ran".into());
        }
        let by = |t: &Timed| if scaled { t.slowdown } else { 1.0 };
        let med = |f: &dyn Fn(&Timed) -> f64| median(&self.timed.iter().map(f).collect::<Vec<_>>());
        let prefix = if scaled { "" } else { "raw." };
        Ok(vec![
            metric(
                &format!("{prefix}throughput_ops"),
                med(&|t| t.rate * by(t)),
                "1/s",
            ),
            metric(
                &format!("{prefix}latency_p50_ms"),
                med(&|t| t.p50_ms / by(t)),
                "ms",
            ),
            metric(
                &format!("{prefix}latency_p90_ms"),
                med(&|t| t.p90_ms / by(t)),
                "ms",
            ),
        ])
    }

    pub fn client_metrics(&self) -> Vec<Metric> {
        let p = |q: f64| self.all.latency.percentile_ms(q).unwrap_or(0.0);
        vec![
            metric("client.sent", self.all.sent as f64, "count"),
            metric("client.failed", self.all.failed as f64, "count"),
            metric("client.latency_p99_ms", p(0.99), "ms"),
            metric("client.latency_p999_ms", p(0.999), "ms"),
        ]
    }
}

/// Closed loop on one connection: keep `depth` requests in flight,
/// sending the next as soon as a reply arrives, until `next` runs dry;
/// then collect the replies still due.
fn closed_loop(
    conn: &mut Conn,
    catalog: &Catalog,
    depth: usize,
    mut next: impl FnMut() -> Option<usize>,
) -> Result<Slice, String> {
    let start = Instant::now();
    let mut slice = Slice::default();
    let mut inflight = VecDeque::with_capacity(depth);
    while inflight.len() < depth {
        let Some(id) = next() else { break };
        conn.send(&catalog.lines[id])?;
        inflight.push_back((Instant::now(), id));
    }
    while let Some((sent_at, id)) = inflight.pop_front() {
        let reply = catalog.check(id, conn.recv()?);
        slice.record(sent_at.elapsed(), reply);
        if let Some(id) = next() {
            conn.send(&catalog.lines[id])?;
            inflight.push_back((Instant::now(), id));
        }
    }
    slice.secs = start.elapsed().as_secs_f64();
    Ok(slice)
}

/// Send `ids` once, in order, over a new connection.
fn send_list(
    addr: SocketAddr,
    catalog: &Catalog,
    depth: usize,
    ids: &[usize],
) -> Result<Slice, String> {
    let mut ids = ids.iter().copied();
    closed_loop(&mut Conn::open(addr)?, catalog, depth, || ids.next())
}

/// Wire phases reported per request. `flight_wait` (time parked behind
/// an identical in-flight request) is left to the extras: most
/// workloads never coalesce, and `serve.cache.coalesced` counts it.
const PHASES: [&str; 8] = [
    "accept",
    "inbox_wait",
    "parse",
    "cache_lookup",
    "queue_wait",
    "simulate",
    "serialize",
    "write",
];

/// The per-layer serve metrics of one server over its whole life, set-up
/// and load: cache and pool counters, and each wire phase's time per
/// recorded request (a phase a request skips counts as zero for it).
/// Also returns the raw stats and the flight-wait phase.
fn server_metrics(handle: &ServerHandle) -> (StatsReport, Vec<Metric>, Metric) {
    let service = handle.service();
    let s = service.stats_report();
    let spans = service.introspect_report(&IntrospectRequest::default());
    let op_mean_us = |op: &str| {
        s.latency
            .iter()
            .find(|l| l.op == op)
            .map_or(0.0, |l| l.mean_us)
    };
    let requests = spans.total.as_ref().map_or(0, |t| t.count).max(1) as f64;
    let phase_us = |name: &str| {
        spans
            .phases
            .iter()
            .find(|p| p.phase == name)
            .map_or(0.0, |p| p.mean_us * p.count as f64 / requests)
    };
    let (appended, bytes, recovered) = s
        .persist
        .as_ref()
        .map_or((0, 0, 0), |p| (p.appended, p.bytes, p.recovered));
    let mut m = vec![
        metric("serve.requests", s.requests_total as f64, "count"),
        metric("serve.cache.hit_ratio", s.cache.hit_rate, "ratio"),
        metric("serve.cache.evictions", s.cache.evictions as f64, "count"),
        metric("serve.cache.coalesced", s.cache.coalesced as f64, "count"),
        metric("serve.simulations", s.simulations_executed as f64, "count"),
        metric(
            "serve.backpressure",
            s.backpressure_rejections as f64,
            "count",
        ),
        metric("serve.hit_mean_us", op_mean_us("run_hit"), "us"),
        metric("serve.miss_mean_us", op_mean_us("run_miss"), "us"),
    ];
    for phase in PHASES {
        m.push(metric(
            &format!("serve.phase.{phase}_us"),
            phase_us(phase),
            "us",
        ));
    }
    m.push(metric("serve.persist.appended", appended as f64, "count"));
    m.push(metric(
        "serve.persist.log_mb",
        bytes as f64 / (1024.0 * 1024.0),
        "MiB",
    ));
    m.push(metric("serve.persist.recovered", recovered as f64, "count"));
    let flight = metric("serve.phase.flight_wait_us", phase_us("flight_wait"), "us");
    (s, m, flight)
}

/// Serve a fixed list of requests twice through a fresh server (cold,
/// then warm), as the per-layer serve numbers of a workload that has no
/// server of its own.
pub fn serve_list(
    requests: Vec<(RunConfig, Option<usize>)>,
) -> Result<(Load, Vec<Metric>), String> {
    let catalog = Catalog::new(requests);
    let ids: Vec<usize> = (0..catalog.len()).collect();
    let handle = start_server(None)?;
    let mut load = Load::default();
    for _pass in 0..2 {
        load.add(&send_list(handle.addr(), &catalog, MISS_DEPTH, &ids)?);
    }
    let (_, metrics, _) = server_metrics(&handle);
    handle.stop();
    load.all.check_clean("serving the replay list")?;
    Ok((load, metrics))
}

/// `seconds` split over `ROUNDS` rounds of whole seconds (fewer rounds
/// when there are fewer seconds).
fn round_lengths(seconds: u64) -> Vec<u64> {
    let rounds = ROUNDS.min(seconds);
    (0..rounds)
        .map(|i| seconds / rounds + u64::from(i < seconds % rounds))
        .collect()
}

/// What one workload sends and how each round's server is set up.
struct Plan {
    catalog: Catalog,
    depth: usize,
    /// Requests sent once to each fresh server as part of its set-up.
    prime: Vec<usize>,
    /// Append log of the warm phase, and the copy of it each round's
    /// server restarts from.
    logs: Option<(PathBuf, PathBuf)>,
    /// The next request of the load.
    draw: Box<dyn Fn(&mut Rng) -> usize>,
}

impl Plan {
    fn new(workload: Workload, seed: u64, tmp: &TempDir) -> Result<Plan, String> {
        let space = paper_space();
        let n = space.len();
        Ok(match workload {
            Workload::ServeHit => {
                let keys = Rng::stream(seed, 0).sample(n, HIT_KEYS);
                Plan {
                    catalog: Catalog::new(keys.iter().map(|&k| (space[k].clone(), None)).collect()),
                    depth: HIT_DEPTH,
                    prime: (0..HIT_KEYS).collect(),
                    logs: None,
                    draw: Box::new(|rng| rng.below(HIT_KEYS)),
                }
            }
            Workload::ServeMiss => Plan {
                catalog: Catalog::new(space.into_iter().map(|c| (c, None)).collect()),
                depth: MISS_DEPTH,
                prime: Rng::stream(seed, 1).sample(n, MISS_FILL),
                logs: None,
                draw: Box::new(move |rng| rng.below(n)),
            },
            Workload::ServeZipf => {
                let zipf = Zipf::new(n, ZIPF_EXPONENT);
                let order = Rng::stream(seed, 2).permutation(n);
                let draw = move |rng: &mut Rng| {
                    let key = order[zipf.draw(rng)];
                    2 * key + usize::from(rng.unit() < TRACED_SHARE)
                };
                let catalog = Catalog::new(
                    space
                        .into_iter()
                        .flat_map(|c| [(c.clone(), None), (c, Some(POWER_BINS))])
                        .collect(),
                );
                // The warm phase fills an append log once; every round
                // restarts from a fresh copy of it, so each set-up
                // recovers the same records.
                let warm_log = tmp.path().join("warm.log");
                let warm = start_server(Some(warm_log.clone()))?;
                let mut rng = Rng::stream(seed, 3);
                let ids: Vec<usize> = (0..ZIPF_WARM_REQUESTS).map(|_| draw(&mut rng)).collect();
                send_list(warm.addr(), &catalog, ZIPF_DEPTH, &ids)?.check_clean("warm phase")?;
                warm.stop();
                Plan {
                    catalog,
                    depth: ZIPF_DEPTH,
                    prime: Vec::new(),
                    logs: Some((warm_log, tmp.path().join("round.log"))),
                    draw: Box::new(draw),
                }
            }
            Workload::ReproAll => unreachable!("not a serve workload"),
        })
    }

    /// Start a round's server: on a fresh copy of the warm log, if any,
    /// then primed. Returns it with the seconds that took, the copy
    /// excluded.
    fn set_up(&self) -> Result<(ServerHandle, f64), String> {
        let persist = match &self.logs {
            Some((warm, round)) => {
                std::fs::copy(warm, round).map_err(|e| format!("copy log: {e}"))?;
                Some(round.clone())
            }
            None => None,
        };
        let t0 = Instant::now();
        let handle = start_server(persist)?;
        if !self.prime.is_empty() {
            send_list(handle.addr(), &self.catalog, self.depth, &self.prime)?
                .check_clean("priming")?;
        }
        Ok((handle, t0.elapsed().as_secs_f64()))
    }
}

pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    tmp: &TempDir,
) -> Result<Outcome, String> {
    let plan = Plan::new(workload, seed, tmp)?;
    let catalog = &plan.catalog;
    let mut cal = Calibrator::new()?;
    let (mut load, mut setups, mut last) = (Load::default(), Vec::new(), None);
    for (round, slices) in round_lengths(seconds).into_iter().enumerate() {
        let (handle, setup_s) = plan.set_up()?;
        setups.push((setup_s, cal.after_unit()?));
        let mut conn = Conn::open(handle.addr())?;
        let mut rng = Rng::stream(seed, 10 + round as u64);
        for _ in 0..slices {
            let deadline = Instant::now() + SLICE;
            let slice = closed_loop(&mut conn, catalog, plan.depth, || {
                (Instant::now() < deadline).then(|| (plan.draw)(&mut rng))
            })?;
            load.add_timed(&slice, cal.after_unit()?);
        }
        drop(conn);
        let (stats, layer, flight) = server_metrics(&handle);
        handle.stop();
        // Priming simulated each key once; everything after must hit.
        let (sims, misses) = (stats.simulations_executed, stats.cache.misses);
        if workload == Workload::ServeHit && (sims, misses) != (HIT_KEYS as u64, HIT_KEYS as u64) {
            return Err(format!(
                "serve_hit ran {sims} simulations and {misses} misses, not {HIT_KEYS} each"
            ));
        }
        last = Some((stats, layer, flight));
    }
    let (stats, layer_metrics, flight_wait) = last.ok_or("no round ran")?;
    let rss = crate::vm_hwm_mib(None)?;
    if load.all.mismatched > 0 {
        return Err(format!(
            "{} replies differ from the first reply to the same request",
            load.all.mismatched
        ));
    }
    let sample = catalog.answered_sample(seed);
    let mut extras = vec![
        metric("check.library_sample", sample.len() as f64, "count"),
        flight_wait,
    ];

    // Served bytes must equal the library's: in-process calls, or in a
    // traced run the layered replay (itself checked against them).
    let requests: Vec<(RunConfig, Option<usize>)> = sample
        .iter()
        .map(|&i| catalog.requests[i].clone())
        .collect();
    let (metrics, spans) = if trace {
        let layered = replay::layered(&requests)?;
        for (&id, line) in sample.iter().zip(&layered.lines) {
            if catalog.served(id) != line.as_bytes() {
                return Err(format!(
                    "served reply for request {id} differs from the layered replay"
                ));
            }
        }
        let mut m = layer_metrics;
        m.extend(load.client_metrics());
        m.extend(layered.metrics);
        (m, layered.spans)
    } else {
        for (&id, (cfg, bins)) in sample.iter().zip(&requests) {
            if catalog.served(id) != replay::library_line(cfg, *bins)?.as_bytes() {
                return Err(format!(
                    "served reply for request {id} differs from the library"
                ));
            }
        }
        let raw_setup = median(&setups.iter().map(|s| s.0).collect::<Vec<_>>());
        let scaled_setup = median(&setups.iter().map(|s| s.0 / s.1).collect::<Vec<_>>());
        extras.extend(load.end_to_end(false)?);
        extras.push(metric("raw.setup_s", raw_setup, "s"));
        extras.push(metric("calib.slowdown", cal.median(), "ratio"));
        extras.push(metric(
            "serve.cache.hit_ratio",
            stats.cache.hit_rate,
            "ratio",
        ));
        extras.extend(load.client_metrics());
        let mut m = load.end_to_end(true)?;
        m.push(metric("rss_peak_mb", rss, "MiB"));
        m.push(metric("setup_s", scaled_setup, "s"));
        (m, Vec::new())
    };
    Ok(Outcome {
        attempted: load.all.sent,
        failed: load.all.failed,
        metrics,
        extras,
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_are_scaled_by_their_own_slowdown() {
        let slice = |ms: u64, slowdown: f64, load: &mut Load| {
            let mut s = Slice::default();
            for _ in 0..100 {
                s.record(Duration::from_millis(ms), Reply::Ok);
            }
            s.secs = 0.5 * slowdown;
            load.add_timed(&s, slowdown);
        };
        let mut load = Load::default();
        // The same work seen at the reference speed, on a machine twice
        // as slow, and on one three times as slow.
        slice(2, 1.0, &mut load);
        slice(4, 2.0, &mut load);
        slice(6, 3.0, &mut load);
        let value = |m: &[Metric], name: &str| m.iter().find(|m| m.name == name).map(|m| m.value);
        let scaled = load.end_to_end(true).expect("three slices");
        let raw = load.end_to_end(false).expect("three slices");
        let rate = value(&scaled, "throughput_ops").expect("reported");
        assert!((rate - 200.0).abs() < 1e-9, "scaled rate {rate}");
        for name in ["latency_p50_ms", "latency_p90_ms"] {
            let v = value(&scaled, name).expect("reported");
            assert!((v - 2.0).abs() < 0.01, "{name} {v}");
        }
        // Raw numbers are the middle slice's.
        let rate = value(&raw, "raw.throughput_ops").expect("reported");
        assert!((rate - 100.0).abs() < 1e-9, "raw rate {rate}");
        let p50 = value(&raw, "raw.latency_p50_ms").expect("reported");
        assert!((p50 - 4.0).abs() < 0.02, "raw p50 {p50}");
        assert_eq!(load.all.sent, 300);
        assert!(Load::default().end_to_end(true).is_err());
    }

    #[test]
    fn rounds_cover_the_window_in_whole_seconds() {
        assert_eq!(round_lengths(25), vec![4, 3, 3, 3, 3, 3, 3, 3]);
        assert_eq!(round_lengths(10), vec![2, 2, 1, 1, 1, 1, 1, 1]);
        assert_eq!(round_lengths(2), vec![1, 1]);
        assert_eq!(round_lengths(1), vec![1]);
    }
}
