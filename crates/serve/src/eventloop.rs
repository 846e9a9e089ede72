//! The non-blocking event-loop transport: an acceptor thread dispatches
//! connections round-robin across shard threads, each running a
//! level-triggered readiness loop over its own `Poller` (the crate's
//! private epoll wrapper, `net.rs`).
//!
//! ## Pipelining and ordering
//!
//! A connection may send many request lines without reading replies.
//! Every line is assigned a connection-local sequence number when it is
//! parsed; replies are emitted strictly in sequence order, buffered in a
//! reorder window when simulations complete out of order. The reply
//! *bytes* on every path are produced by the same [`Service`] entry
//! points as the in-process [`Service::handle_line`], so the two are
//! byte-identical by construction (the differential suite pins this).
//!
//! ## Shard anatomy
//!
//! Each shard owns its poller, its connections, and one latency-histogram
//! set ([`crate::stats::Metrics::latency_shard`]). Cross-thread input
//! arrives through two mailboxes — `inbox` (new connections from the
//! acceptor) and `completions` (reply lines from pool workers resolving
//! flights) — each drained at the top of the loop after a `WAKE` token.
//!
//! ## Shutdown
//!
//! A wire `Shutdown` sets the service flag; the observing shard pokes
//! the acceptor loose with a loopback connect, the acceptor wakes every
//! shard, and each shard drains outstanding replies (bounded by a drain
//! deadline), flushes blockingly, and exits.
//!
//! ## Request spans
//!
//! With a flight recorder attached, every request line gets a
//! [`RequestSpans`] opened when its socket becomes readable and closed
//! when the reply is buffered for writing. The phase checkpoints are
//! `Copy` data riding along the existing paths (through the service's
//! completion callbacks and back via the `completions` mailbox), so
//! only the owning shard thread ever writes its span ring —
//! single-writer by construction, and reply bytes are untouched.

use crate::net::{Event, Interest, Poller, WAKE};
use crate::protocol::{Request, MAX_LINE_BYTES};
use crate::service::Service;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use ugpc_core::CacheKey;
use ugpc_telemetry::{Phase, RequestSpans, TraceCtx};

/// How long a shard keeps draining in-flight replies after shutdown.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Poll timeout: shards also notice the shutdown flag at this cadence
/// even if a wake is lost (belt and braces — wakes are not lossy).
const POLL_MS: i32 = 250;

/// Bound on the per-shard request-identity memo (distinct request lines;
/// the map is cleared wholesale when full — hot lines repopulate it on
/// their next occurrence).
const MEMO_CAP: usize = 512;

/// A completed async reply routed back to its connection: `(connection
/// token, sequence number, reply line, request spans)`. The spans ride
/// the mailbox so the shard that owns the connection — and the span
/// ring — journals them itself.
type Completion = (u64, u64, Arc<str>, Option<RequestSpans>);

/// The cross-thread face of one shard.
struct ShardShared {
    poller: Poller,
    inbox: Mutex<Vec<TcpStream>>,
    completions: Mutex<Vec<Completion>>,
}

/// One pipelined connection's state machine.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Next sequence number to assign to an incoming request slot.
    next_seq: u64,
    /// Next sequence number to emit; replies with later numbers park in
    /// `pending` until the gap fills.
    next_emit: u64,
    pending: BTreeMap<u64, Arc<str>>,
    read_closed: bool,
    interest: Interest,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            next_seq: 0,
            next_emit: 0,
            pending: BTreeMap::new(),
            read_closed: false,
            interest: Interest::Read,
        }
    }

    fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// All assigned reply slots have been emitted and flushed.
    fn drained(&self) -> bool {
        self.next_emit == self.next_seq && self.wbuf.is_empty()
    }

    /// Move in-order pending replies into the write buffer.
    fn pump(&mut self) {
        while let Some(line) = self.pending.remove(&self.next_emit) {
            self.wbuf.extend_from_slice(line.as_bytes());
            self.wbuf.push(b'\n');
            self.next_emit += 1;
        }
    }

    /// Write as much of the buffer as the socket accepts. `Err` means
    /// the connection is dead.
    fn flush(&mut self) -> std::io::Result<()> {
        while !self.wbuf.is_empty() {
            match self.stream.write(&self.wbuf) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.wbuf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Serve `listener` until shutdown. Blocks the calling thread (which
/// runs the accept loop); shard threads are joined before returning.
pub(crate) fn serve(listener: TcpListener, service: Arc<Service>) {
    let addr = match listener.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("[ugpc-serve] listener has no address: {e}");
            return;
        }
    };
    let shard_count = service.options().shards.max(1);
    let mut shards = Vec::with_capacity(shard_count);
    for _ in 0..shard_count {
        match Poller::new() {
            Ok(poller) => shards.push(Arc::new(ShardShared {
                poller,
                inbox: Mutex::new(Vec::new()),
                completions: Mutex::new(Vec::new()),
            })),
            Err(e) => {
                eprintln!("[ugpc-serve] poller setup failed: {e}");
                return;
            }
        }
    }
    let mut joins = Vec::with_capacity(shard_count);
    for (i, shared) in shards.iter().enumerate() {
        let shared = shared.clone();
        let svc = service.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("ugpc-serve-shard-{i}"))
            .spawn(move || shard_main(i, &shared, &svc, addr));
        match spawned {
            Ok(j) => joins.push(j),
            Err(e) => {
                eprintln!("[ugpc-serve] shard spawn failed: {e}");
                service.request_shutdown();
                break;
            }
        }
    }

    // The accept loop: hand each connection to the next shard.
    let mut rr = 0usize;
    for stream in listener.incoming() {
        if service.shutdown_requested() {
            break;
        }
        match stream {
            Ok(stream) => {
                let shard = &shards[rr % shards.len()];
                rr += 1;
                shard.inbox.lock().push(stream);
                shard.poller.wake();
            }
            Err(e) => eprintln!("[ugpc-serve] accept error: {e}"),
        }
    }
    service.request_shutdown();
    for shared in &shards {
        shared.poller.wake();
    }
    for join in joins {
        let _ = join.join();
    }
}

fn shard_main(
    shard_idx: usize,
    shared: &Arc<ShardShared>,
    service: &Arc<Service>,
    addr: SocketAddr,
) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    // Request-identity memo: raw request-line bytes -> content-addressed
    // cache key, so a byte-identical repeat of a plain `run` line skips
    // the parse/validate/key sequence and goes straight to a cache
    // probe. Shard-local (no locks); never stale, because the mapping is
    // content-addressed; bounded by MEMO_CAP. Only consulted when
    // `Service::memo_allowed` says per-request logging is off.
    let mut memo: HashMap<Box<[u8]>, CacheKey> = HashMap::new();
    let mut next_token: u64 = 0;
    let mut events: Vec<Event> = Vec::new();
    let mut shutdown_seen = false;
    while !shutdown_seen {
        events.clear();
        if let Err(e) = shared.poller.wait(&mut events, POLL_MS) {
            eprintln!("[ugpc-serve] shard {shard_idx} poll error: {e}");
            break;
        }
        adopt_new_connections(shared, service, &mut conns, &mut next_token);
        route_completions(shard_idx, shared, service, &mut conns);
        for ev in &events {
            if ev.token == WAKE {
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.token) else {
                continue;
            };
            let mut dead = false;
            if ev.readable {
                read_and_process(shard_idx, shared, service, ev.token, conn, &mut memo);
            }
            conn.pump();
            if conn.flush().is_err() {
                dead = true;
            }
            if dead || (conn.read_closed && conn.drained()) {
                close_conn(shared, service, &mut conns, ev.token);
            } else {
                update_interest(shared, conn, ev.token);
            }
        }
        publish_depths(shard_idx, service, &conns);
        if service.shutdown_requested() {
            shutdown_seen = true;
            // The shutdown request may have arrived on this very shard
            // while the acceptor blocks in accept(): poke it loose.
            let _ = TcpStream::connect(addr);
        }
    }
    drain_and_close(shard_idx, shared, service, &mut conns);
}

/// Refresh this shard's depth gauges after an event round: request
/// slots admitted but not yet answered, and response bytes parked in
/// write buffers awaiting socket writability.
fn publish_depths(shard_idx: usize, service: &Arc<Service>, conns: &HashMap<u64, Conn>) {
    let (mut inflight, mut backlog) = (0u64, 0u64);
    // Sums are order-independent.
    let open = conns.values(); // lint:allow hash-iteration
    for c in open {
        inflight += c.next_seq - c.next_emit;
        backlog += c.wbuf.len() as u64;
    }
    let depths = service.metrics.depth_shard(shard_idx);
    depths.inbox_depth.store(inflight, Ordering::Relaxed);
    depths.write_backlog_bytes.store(backlog, Ordering::Relaxed);
}

/// Install connections handed over by the acceptor.
fn adopt_new_connections(
    shared: &Arc<ShardShared>,
    service: &Arc<Service>,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
) {
    let fresh: Vec<TcpStream> = std::mem::take(&mut *shared.inbox.lock());
    for stream in fresh {
        // One-line request/response turns: without TCP_NODELAY, Nagle
        // plus the peer's delayed ACK adds ~40 ms to every round trip.
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let token = *next_token;
        *next_token += 1;
        if shared
            .poller
            .register(stream.as_raw_fd(), token, Interest::Read)
            .is_err()
        {
            continue;
        }
        conns.insert(token, Conn::new(stream));
        *service.metrics.open_connections.lock() += 1;
        service.logger.debug("connection opened", None, &[]);
    }
}

/// Swap the completion mailbox empty. The guard is scoped to this
/// expression: the caller writes replies to sockets with no lock held.
fn take_completions(shared: &ShardShared) -> Vec<Completion> {
    std::mem::take(&mut *shared.completions.lock())
}

/// Deliver async reply lines into their connections' reorder windows,
/// journaling each request's spans into this shard's ring on the way.
fn route_completions(
    shard_idx: usize,
    shared: &Arc<ShardShared>,
    service: &Arc<Service>,
    conns: &mut HashMap<u64, Conn>,
) {
    let done = take_completions(shared);
    for (token, seq, line, spans) in done {
        record_span(service, shard_idx, spans);
        let Some(conn) = conns.get_mut(&token) else {
            continue; // connection closed before its reply resolved
        };
        conn.pending.insert(seq, line);
        conn.pump();
        if conn.flush().is_err() || (conn.read_closed && conn.drained()) {
            close_conn(shared, service, conns, token);
        } else if let Some(conn) = conns.get_mut(&token) {
            update_interest(shared, conn, token);
        }
    }
}

/// Drain the socket and process every complete line in the buffer.
fn read_and_process(
    shard_idx: usize,
    shared: &Arc<ShardShared>,
    service: &Arc<Service>,
    token: u64,
    conn: &mut Conn,
    memo: &mut HashMap<Box<[u8]>, CacheKey>,
) {
    if conn.read_closed {
        // Input after EOF or a refused line is never processed.
        return;
    }
    let t_open = service.recorder().map(|r| r.now_us());
    // The carried tail holds no newline: every complete line was taken.
    let mut scan = conn.rbuf.len();
    let mut buf = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.read_closed = true;
                break;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&buf[..n]);
                // Level-triggered: the rest is read on the next round.
                if conn.rbuf.len() > MAX_LINE_BYTES {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.read_closed = true;
                break;
            }
        }
    }
    // Root spans open when the socket went readable; the Accept phase
    // covers draining it.
    let arrival = t_open.zip(service.recorder().map(|r| r.now_us()));
    // Detach the buffer so line slices can be handed out while `conn` is
    // mutably borrowed (avoids a per-line copy on the hot path).
    let rbuf = std::mem::take(&mut conn.rbuf);
    let mut start = 0usize;
    while let Some(nl) = rbuf[scan..].iter().position(|&b| b == b'\n') {
        let end = scan + nl;
        let line = &rbuf[start..end];
        start = end + 1;
        scan = start;
        // Blank lines are skipped; a line that is not UTF-8 is answered
        // `bad_request` in its slot like any other unparseable line.
        if std::str::from_utf8(line).is_ok_and(|l| l.trim().is_empty()) {
            continue;
        }
        process_line(shard_idx, shared, service, token, conn, line, memo, arrival);
    }
    conn.rbuf = rbuf;
    conn.rbuf.drain(..start);
    if conn.rbuf.len() > MAX_LINE_BYTES {
        let seq = conn.alloc_seq();
        conn.pending
            .insert(seq, service.oversized_line_reply().into());
        conn.read_closed = true;
        conn.rbuf = Vec::new();
    }
}

/// Open a request's spans: the root at `t_open` (socket readable), the
/// Accept phase closing at `t_read` (socket drained), and InboxWait
/// closing now — the time this line spent queued behind earlier lines
/// of the same read batch. `None` without a recorder.
fn begin_spans(
    service: &Arc<Service>,
    shard_idx: usize,
    arrival: Option<(u64, u64)>,
) -> Option<RequestSpans> {
    let rec = service.recorder()?;
    let (t_open, t_read) = arrival?;
    // The real trace context is only known after parsing; the service
    // stamps it via `set_trace` (memo and error paths keep id 0).
    let mut spans = RequestSpans::begin(
        TraceCtx {
            trace_id: 0,
            span_id: 0,
        },
        shard_idx,
        t_open,
    );
    spans.mark(Phase::Accept, t_read);
    spans.mark(Phase::InboxWait, rec.now_us());
    Some(spans)
}

/// Close a request's spans (the Write phase: reply bytes ready → the
/// owning shard buffering them, including the completion-mailbox hop
/// for async replies) and journal them into this shard's ring.
fn record_span(service: &Arc<Service>, shard_idx: usize, mut spans: Option<RequestSpans>) {
    if let (Some(rec), Some(s)) = (service.recorder(), spans.as_mut()) {
        s.mark(Phase::Write, rec.now_us());
        rec.record(shard_idx, s);
    }
}

/// Parse one wire line and enqueue its reply slot. Byte-identical
/// repeats of plain `run` lines short-circuit through the
/// request-identity memo when allowed (see `Service::memo_allowed`).
#[allow(clippy::too_many_arguments)]
fn process_line(
    shard_idx: usize,
    shared: &Arc<ShardShared>,
    service: &Arc<Service>,
    token: u64,
    conn: &mut Conn,
    line: &[u8],
    memo: &mut HashMap<Box<[u8]>, CacheKey>,
    arrival: Option<(u64, u64)>,
) {
    let mut spans = begin_spans(service, shard_idx, arrival);
    let memo_ok = service.memo_allowed();
    if memo_ok {
        if let Some(&key) = memo.get(line) {
            if let Some(reply) = service.fast_run_hit(key, shard_idx) {
                service.mark_phase(&mut spans, Phase::CacheLookup);
                let seq = conn.alloc_seq();
                conn.pending.insert(seq, reply);
                record_span(service, shard_idx, spans);
                return;
            }
        }
    }
    let decoded = service.decode_line(line);
    service.mark_phase(&mut spans, Phase::Parse);
    match decoded {
        Err(error_line) => {
            let seq = conn.alloc_seq();
            conn.pending.insert(seq, error_line.into());
            record_span(service, shard_idx, spans);
        }
        Ok(Request::Run(run)) => {
            // Perfetto replies embed a server-minted trace context when
            // the client supplies none, so only plain runs are
            // memoizable by line bytes.
            if memo_ok && !run.wants_perfetto() && !memo.contains_key(line) {
                if memo.len() >= MEMO_CAP {
                    memo.clear();
                }
                memo.insert(line.into(), run.cache_key());
            }
            // Immediate replies (validation errors, cache hits,
            // backpressure) land in the reorder window now; otherwise the
            // flight's completion callback routes the reply back through
            // `completions`.
            let seq = conn.alloc_seq();
            let cb_shared = shared.clone();
            let immediate = service.handle_run_async(run, shard_idx, spans, move |line, spans| {
                cb_shared.completions.lock().push((token, seq, line, spans));
                cb_shared.poller.wake();
            });
            if let Some((reply, spans)) = immediate {
                conn.pending.insert(seq, reply);
                record_span(service, shard_idx, spans);
            }
        }
        // Ops requests are cheap and answered inline (Shutdown sets the
        // flag; the loop observes it after this event round).
        Ok(other) => {
            let seq = conn.alloc_seq();
            let reply = service.handle_op(other);
            service.mark_phase(&mut spans, Phase::Serialize);
            conn.pending.insert(seq, reply.into());
            record_span(service, shard_idx, spans);
        }
    }
}

fn update_interest(shared: &Arc<ShardShared>, conn: &mut Conn, token: u64) {
    let want = if conn.wbuf.is_empty() {
        Interest::Read
    } else {
        Interest::ReadWrite
    };
    if want != conn.interest
        && shared
            .poller
            .rearm(conn.stream.as_raw_fd(), token, want)
            .is_ok()
    {
        conn.interest = want;
    }
}

fn close_conn(
    shared: &Arc<ShardShared>,
    service: &Arc<Service>,
    conns: &mut HashMap<u64, Conn>,
    token: u64,
) {
    if let Some(conn) = conns.remove(&token) {
        let _ = shared.poller.deregister(conn.stream.as_raw_fd());
        *service.metrics.open_connections.lock() -= 1;
        service.logger.debug("connection closed", None, &[]);
    }
}

/// Post-shutdown: wait (bounded) for outstanding flights to resolve so
/// pipelined clients get every reply they were promised, then flush each
/// connection blockingly and close it.
fn drain_and_close(
    shard_idx: usize,
    shared: &Arc<ShardShared>,
    service: &Arc<Service>,
    conns: &mut HashMap<u64, Conn>,
) {
    let deadline = Instant::now() + DRAIN_DEADLINE;
    let mut events = Vec::new();
    // Order-independent predicate (`any` over a per-connection condition).
    let outstanding = |cs: &HashMap<u64, Conn>| cs.values().any(|c| c.next_emit < c.next_seq); // lint:allow hash-iteration
    while outstanding(conns) && Instant::now() < deadline {
        events.clear();
        let _ = shared.poller.wait(&mut events, 50);
        route_completions(shard_idx, shared, service, conns);
    }
    // Sorted before consuming: connections close in token order.
    let mut tokens: Vec<u64> = conns.keys().copied().collect(); // lint:allow hash-iteration
    tokens.sort_unstable();
    for token in tokens {
        if let Some(conn) = conns.get_mut(&token) {
            conn.pump();
            let _ = conn.stream.set_nonblocking(false);
            let _ = conn.stream.write_all(&conn.wbuf);
            conn.wbuf.clear();
        }
        close_conn(shared, service, conns, token);
    }
}
