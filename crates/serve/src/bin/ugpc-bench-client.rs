//! `ugpc-bench-client` — load generator and latency harness for
//! `ugpc-serve`.
//!
//! A single-threaded, event-driven load harness firing `N` requests,
//! cycling over `K` distinct configurations, on `C` pipelined
//! connections (`--connections`, default 1) multiplexed over the serve
//! crate's own poller. Closed-loop by default (each connection keeps
//! `--pipeline D` requests in flight); open-loop with `--open-rate R`
//! (requests scheduled at `R`/s across all connections, latency
//! measured from the *scheduled* arrival so queueing delay is not
//! hidden). `--batch B` submits `batch` lines of `B` configs instead of
//! individual `run` lines. Reports throughput and p50/p99/p999 latency.
//!
//! ```text
//! ugpc-bench-client [--addr HOST:PORT | --spawn] [--requests N]
//!                   [--unique K] [--scale S] [--require-hits]
//!                   [--connections C] [--pipeline D] [--batch B]
//!                   [--open-rate R] [--json PATH] [--introspect PATH]
//! ```
//!
//! The harness primes the cache (one warm-up run per unique config)
//! before the timed phase, so the measured path is the cache-hit path —
//! the serving-layer overhead itself, not simulation time. Exits
//! nonzero if any request ultimately failed — or, under
//! `--require-hits`, if the server's cache hit rate stayed at zero.
//!
//! `--introspect PATH` drains the server's flight recorder right after
//! the load (an `Introspect` request on a fresh connection) and writes
//! the report — worst-K span trees, last-N spans, per-phase p50/p99
//! decomposition — as pretty JSON to PATH; CI uploads it as the
//! tail-latency attribution artifact.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use ugpc_core::RunConfig;
use ugpc_hwsim::{OpKind, PlatformId, Precision};
use ugpc_runtime::SchedPolicy;
use ugpc_serve::net::{Interest, Poller};
use ugpc_serve::protocol::encode;
use ugpc_serve::{
    error_code, Client, IntrospectRequest, Request, Response, RunRequest, ServeOptions, Server,
};

struct Args {
    addr: Option<String>,
    spawn: bool,
    requests: usize,
    unique: usize,
    scale: usize,
    require_hits: bool,
    connections: usize,
    pipeline: usize,
    batch: usize,
    open_rate: f64,
    json: Option<String>,
    introspect: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        spawn: false,
        requests: 10_000,
        unique: 4,
        scale: 8,
        require_hits: false,
        connections: 1,
        pipeline: 1,
        batch: 0,
        open_rate: 0.0,
        json: None,
        introspect: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| -> Result<String, String> {
            it.next().ok_or(format!("{name} needs a value"))
        };
        match a.as_str() {
            "--addr" => args.addr = Some(val("--addr")?),
            "--spawn" => args.spawn = true,
            "--requests" => args.requests = parse_num(&val("--requests")?, "--requests")?,
            "--unique" => args.unique = parse_num(&val("--unique")?, "--unique")?.max(1),
            "--scale" => args.scale = parse_num(&val("--scale")?, "--scale")?.max(1),
            "--require-hits" => args.require_hits = true,
            "--connections" => {
                args.connections = parse_num(&val("--connections")?, "--connections")?.max(1);
            }
            "--pipeline" => args.pipeline = parse_num(&val("--pipeline")?, "--pipeline")?.max(1),
            "--batch" => args.batch = parse_num(&val("--batch")?, "--batch")?,
            "--open-rate" => {
                args.open_rate = val("--open-rate")?
                    .parse::<f64>()
                    .map_err(|e| format!("bad --open-rate: {e}"))?;
            }
            "--json" => args.json = Some(val("--json")?),
            "--introspect" => args.introspect = Some(val("--introspect")?),
            "--help" | "-h" => {
                println!(
                    "usage: ugpc-bench-client [--addr HOST:PORT | --spawn] [--requests N] \
                     [--unique K] [--scale S] [--require-hits] \
                     [--connections C] [--pipeline D] [--batch B] [--open-rate R] \
                     [--json PATH] [--introspect PATH]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.addr.is_none() && !args.spawn {
        return Err("need --addr or --spawn".into());
    }
    Ok(args)
}

fn parse_num(s: &str, name: &str) -> Result<usize, String> {
    s.parse::<usize>().map_err(|e| format!("bad {name}: {e}"))
}

/// The K distinct configurations the load cycles over: the small GEMM
/// study under K different schedulers/seeds, so each has its own cache
/// key but all are cheap.
fn config(index: usize, scale: usize) -> RunConfig {
    let base =
        RunConfig::paper(PlatformId::Amd4A100, OpKind::Gemm, Precision::Double).scaled_down(scale);
    match index {
        0 => base,
        1 => base.with_scheduler(SchedPolicy::Dmda),
        2 => base.with_gpu_config("BBBB".parse().expect("valid config")),
        k => base.with_scheduler(SchedPolicy::Random { seed: k as u64 }),
    }
}

// ---------------------------------------------------------------------
// Single-threaded event-driven load over C connections.

struct LoadSpec {
    label: String,
    connections: usize,
    pipeline: usize,
    /// 0 or 1 = individual `run` lines; >1 = `batch` lines of this size.
    batch: usize,
    requests: usize,
    unique: usize,
    scale: usize,
    /// 0 = closed loop; >0 = open loop at this many requests/second.
    open_rate: f64,
}

struct LoadResult {
    label: String,
    loop_kind: &'static str,
    connections: usize,
    pipeline: usize,
    batch: usize,
    requests: u64,
    wall_s: f64,
    throughput_rps: f64,
    mean_us: f64,
    p50_us: u64,
    p99_us: u64,
    p999_us: u64,
    max_us: u64,
    errors: u64,
    cache_hit_rate: f64,
    simulations: u64,
}

impl LoadResult {
    fn to_json(&self) -> String {
        format!(
            "{{\"label\": {:?}, \"loop\": {:?}, \
             \"connections\": {}, \"pipeline\": {}, \"batch\": {}, \"requests\": {}, \
             \"wall_s\": {:.4}, \"throughput_rps\": {:.1}, \"mean_us\": {:.2}, \
             \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}, \"max_us\": {}, \
             \"errors\": {}, \"cache_hit_rate\": {:.4}, \"simulations\": {}}}",
            self.label,
            self.loop_kind,
            self.connections,
            self.pipeline,
            self.batch,
            self.requests,
            self.wall_s,
            self.throughput_rps,
            self.mean_us,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.max_us,
            self.errors,
            self.cache_hit_rate,
            self.simulations,
        )
    }
}

struct BConn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Send (closed loop) or scheduled-arrival (open loop) timestamp per
    /// outstanding reply slot, in reply order.
    inflight: VecDeque<Instant>,
    sent: usize,
    quota: usize,
    next_key: usize,
    interest: Interest,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Enqueue one send unit (a `run` line or a `batch` line) on `conn` with
/// the given latency-clock start time.
fn enqueue_unit(conn: &mut BConn, lines: &[Vec<u8>], batch: usize, t: Instant) {
    let line = &lines[conn.next_key % lines.len()];
    conn.next_key += 1;
    conn.wbuf.extend_from_slice(line);
    let slots = batch.max(1);
    for _ in 0..slots {
        conn.inflight.push_back(t);
    }
    conn.sent += slots;
}

fn flush_conn(poller: &Poller, conn: &mut BConn, token: u64) -> Result<(), String> {
    while !conn.wbuf.is_empty() {
        match conn.stream.write(&conn.wbuf) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => {
                conn.wbuf.drain(..n);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("write: {e}")),
        }
    }
    let want = if conn.wbuf.is_empty() {
        Interest::Read
    } else {
        Interest::ReadWrite
    };
    if want != conn.interest {
        poller
            .rearm(conn.stream.as_raw_fd(), token, want)
            .map_err(|e| format!("rearm: {e}"))?;
        conn.interest = want;
    }
    Ok(())
}

/// Run one load phase against a serving `addr`. Single-threaded: all
/// connections are multiplexed over one poller, which easily saturates
/// the (local) server on the cache-hit path.
fn run_load(addr: &str, spec: &LoadSpec) -> Result<LoadResult, String> {
    // Prime the cache so the timed phase measures the serving layer, not
    // the simulator.
    let mut prime = Client::connect(addr).map_err(|e| format!("prime connect: {e}"))?;
    for k in 0..spec.unique {
        prime
            .run(config(k, spec.scale))
            .map_err(|e| format!("prime run {k}: {e}"))?;
    }
    drop(prime);

    // Pre-encode the request lines the load cycles over.
    let batch = if spec.batch > 1 { spec.batch } else { 0 };
    let lines: Vec<Vec<u8>> = (0..spec.unique)
        .map(|k| {
            let mut bytes = if batch > 0 {
                let runs: Vec<RunRequest> = (0..batch)
                    .map(|j| RunRequest::new(config((k + j) % spec.unique, spec.scale)))
                    .collect();
                encode(&Request::Batch(runs)).into_bytes()
            } else {
                encode(&Request::Run(RunRequest::new(config(k, spec.scale)))).into_bytes()
            };
            bytes.push(b'\n');
            bytes
        })
        .collect();
    // Reply lines that carry a structured error start with this prefix
    // (cheaper than decoding every reply at 6-figure rates).
    let error_prefix: Vec<u8> = {
        let sample = encode(&Response::Error(ugpc_serve::ErrorReply::new(
            error_code::INTERNAL,
            "",
        )));
        sample.as_bytes()[..sample.len().min(9)].to_vec()
    };

    let unit = batch.max(1);
    let conn_count = spec.connections.max(1);
    let poller = Poller::new().map_err(|e| format!("poller: {e}"))?;
    let mut conns: Vec<BConn> = Vec::with_capacity(conn_count);
    for i in 0..conn_count {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {i}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?;
        poller
            .register(stream.as_raw_fd(), i as u64, Interest::Read)
            .map_err(|e| format!("register: {e}"))?;
        conns.push(BConn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            inflight: VecDeque::new(),
            sent: 0,
            quota: 0,
            next_key: i,
            interest: Interest::Read,
        });
    }

    // Distribute the request quota in whole send units.
    let units_total = spec.requests.div_ceil(unit).max(1);
    for (i, conn) in conns.iter_mut().enumerate() {
        let units = units_total / conn_count + usize::from(i < units_total % conn_count);
        conn.quota = units * unit;
    }
    let total: usize = conns.iter().map(|c| c.quota).sum();

    let open = spec.open_rate > 0.0;
    let interval = if open {
        Duration::from_secs_f64(1.0 / spec.open_rate)
    } else {
        Duration::ZERO
    };

    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs(300);
    if !open {
        // Closed loop: fill every pipeline.
        for (i, conn) in conns.iter_mut().enumerate() {
            while conn.sent < conn.quota && conn.inflight.len() < spec.pipeline.max(unit) {
                enqueue_unit(conn, &lines, batch, Instant::now());
            }
            flush_conn(&poller, conn, i as u64)?;
        }
    }

    let mut latencies: Vec<u64> = Vec::with_capacity(total);
    let mut errors = 0u64;
    let mut received = 0usize;
    let mut next_arrival = t0;
    let mut rr = 0usize;
    let mut events = Vec::new();
    while received < total {
        let now = Instant::now();
        if now > deadline {
            return Err(format!(
                "deadline exceeded: {received}/{total} replies after {:?}",
                now - t0
            ));
        }
        if open {
            // Fire every arrival that is due, round-robin across
            // connections; the latency clock starts at the *scheduled*
            // time so server-side queueing is visible.
            while next_arrival <= now {
                let sent: usize = conns.iter().map(|c| c.sent).sum();
                if sent >= total {
                    break;
                }
                for _ in 0..conn_count {
                    let i = rr % conn_count;
                    rr += 1;
                    if conns[i].sent < conns[i].quota {
                        enqueue_unit(&mut conns[i], &lines, batch, next_arrival);
                        flush_conn(&poller, &mut conns[i], i as u64)?;
                        break;
                    }
                }
                next_arrival += interval.max(Duration::from_nanos(1));
            }
        }
        let timeout_ms = if open {
            let until = next_arrival.saturating_duration_since(Instant::now());
            (until.as_millis() as i32).clamp(0, 20)
        } else {
            200
        };
        events.clear();
        poller
            .wait(&mut events, timeout_ms)
            .map_err(|e| format!("poll: {e}"))?;
        for ev in &events {
            let Some(conn) = conns.get_mut(ev.token as usize) else {
                continue;
            };
            if ev.readable {
                let mut buf = [0u8; 64 * 1024];
                loop {
                    match conn.stream.read(&mut buf) {
                        Ok(0) => return Err("server closed a connection mid-load".into()),
                        Ok(n) => conn.rbuf.extend_from_slice(&buf[..n]),
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(e) => return Err(format!("read: {e}")),
                    }
                }
                let mut start = 0usize;
                let reply_at = Instant::now();
                while let Some(nl) = conn.rbuf[start..].iter().position(|&b| b == b'\n') {
                    let end = start + nl;
                    let line = &conn.rbuf[start..end];
                    if line.starts_with(&error_prefix) {
                        errors += 1;
                    }
                    if let Some(sent_at) = conn.inflight.pop_front() {
                        latencies
                            .push(reply_at.saturating_duration_since(sent_at).as_micros() as u64);
                    }
                    received += 1;
                    start = end + 1;
                }
                conn.rbuf.drain(..start);
                if !open {
                    while conn.sent < conn.quota && conn.inflight.len() < spec.pipeline.max(unit) {
                        enqueue_unit(conn, &lines, batch, Instant::now());
                    }
                }
            }
            flush_conn(&poller, conn, ev.token)?;
        }
    }
    let wall = t0.elapsed();

    let stats = Client::connect(addr)
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("final stats: {e}"))?;
    latencies.sort_unstable();
    let mean_us = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
    };
    Ok(LoadResult {
        label: spec.label.clone(),
        loop_kind: if open { "open" } else { "closed" },
        connections: conn_count,
        pipeline: spec.pipeline,
        batch,
        requests: total as u64,
        wall_s: wall.as_secs_f64(),
        throughput_rps: total as f64 / wall.as_secs_f64().max(1e-9),
        mean_us,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        p999_us: percentile(&latencies, 0.999),
        max_us: latencies.last().copied().unwrap_or(0),
        errors,
        cache_hit_rate: stats.cache.hit_rate,
        simulations: stats.simulations_executed,
    })
}

fn write_json(path: &str, content: &str) -> Result<(), String> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("mkdir {parent:?}: {e}"))?;
    }
    std::fs::write(path, content).map_err(|e| format!("write {path}: {e}"))
}

/// Drain the server's flight recorder and write the span-tree /
/// phase-decomposition report to `path`. Run right after a load phase,
/// while the worst offenders are still in the rings.
fn capture_introspect(addr: &str, path: &str) -> Result<(), String> {
    let report = Client::connect(addr)
        .and_then(|mut c| {
            c.introspect(IntrospectRequest {
                last: Some(32),
                worst: Some(8),
            })
        })
        .map_err(|e| format!("introspect: {e}"))?;
    if !report.enabled {
        eprintln!("[introspect] server has no flight recorder; writing empty report");
    } else if let Some(worst) = report.worst.first() {
        eprintln!(
            "[introspect] {} recorded; worst request {} µs (trace {})",
            report.recorded, worst.total_us, worst.trace
        );
    }
    let json = serde_json::to_string_pretty(&report).map_err(|e| format!("serialize: {e}"))?;
    write_json(path, &json)?;
    eprintln!("[introspect] wrote {path}");
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run one harness load; `Err` is the failure to report.
fn run(args: &Args) -> Result<(), String> {
    let spawned = if args.spawn {
        let server = Server::bind("127.0.0.1:0", ServeOptions::default())
            .map_err(|e| format!("bind: {e}"))?;
        Some(server.spawn())
    } else {
        None
    };
    let addr = spawned
        .as_ref()
        .map(|h| h.addr().to_string())
        .or(args.addr.clone())
        .expect("validated in parse_args");

    let connections = args.connections;
    let spec = LoadSpec {
        label: format!("eventloop/c{connections}/d{}", args.pipeline),
        connections,
        pipeline: args.pipeline,
        batch: args.batch,
        requests: args.requests,
        unique: args.unique,
        scale: args.scale,
        open_rate: args.open_rate,
    };
    let result = run_load(&addr, &spec).and_then(|result| {
        if let Some(path) = &args.introspect {
            capture_introspect(&addr, path)?;
        }
        Ok(result)
    });
    if let Some(handle) = spawned {
        handle.stop();
    }
    let result = result?;
    let json = result.to_json();
    println!("{json}");
    if let Some(path) = &args.json {
        write_json(path, &format!("{json}\n"))?;
    }
    if result.errors > 0 {
        return Err(format!("{} error replies", result.errors));
    }
    if args.require_hits && result.cache_hit_rate <= 0.0 {
        return Err("cache hit rate stayed at zero".into());
    }
    Ok(())
}
