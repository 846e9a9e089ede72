//! Transition-labeling tests: tie the *real* `ResultCache` single-flight
//! and `WorkerPool` backpressure implementations to their abstract
//! models in `ugpc_analysis::model`.
//!
//! Each test drives the real implementation through a concrete schedule,
//! asserting at every step that the implementation does what the
//! corresponding model transition says (leader election, coalescing,
//! queued and inline callbacks, hit-after-publish, rejection at
//! capacity, drain-before-stop). The
//! observed schedule is recorded as a model label trace and replayed
//! with `accepts_trace`: the run we just executed for real must be a
//! path of the verified state machine. A schedule the model rejects that
//! the implementation permits (or vice versa) fails here — which is what
//! keeps the model honest as the implementation evolves.
//!
//! Two real-thread races back the models: subscribers racing the
//! leader's publish must each be called exactly once, and the real pool
//! must survive the park/shutdown race the backpressure model's
//! `buggy_signal` witness describes.

#![allow(clippy::unwrap_used)]

use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::time::Duration;
use ugpc_analysis::model::backpressure::Backpressure;
use ugpc_analysis::model::singleflight::SingleFlight;
use ugpc_analysis::model::{accepts_trace, Checker};
use ugpc_core::CacheKey;
use ugpc_serve::cache::{Begin, Flight, ResultCache};
use ugpc_serve::pool::WorkerPool;
use ugpc_serve::Logger;

/// Unpack `begin` into the role the model names, failing loudly on a
/// protocol divergence.
macro_rules! expect_begin {
    ($cache:expr, $key:expr, $variant:path) => {
        match $cache.begin($key) {
            $variant(x) => x,
            _ => panic!(
                "real cache diverged from the model: expected {}",
                stringify!($variant)
            ),
        }
    };
}

/// Every outcome a subscribed callback was called with.
type Calls = Arc<Mutex<Vec<Result<Arc<str>, String>>>>;

/// Subscribe a recording callback to `flight` and name the model step
/// that happened: `subscribe:inline` when the callback already ran (the
/// flight had resolved), `subscribe:queue` when it was queued.
fn subscribe(flight: &Flight) -> (Calls, &'static str) {
    let calls: Calls = Arc::default();
    let sink = calls.clone();
    ResultCache::subscribe(flight, Box::new(move |r| sink.lock().unwrap().push(r)));
    let step = if calls.lock().unwrap().is_empty() {
        "subscribe:queue"
    } else {
        "subscribe:inline"
    };
    (calls, step)
}

fn outcomes(calls: &Calls) -> Vec<Result<Arc<str>, String>> {
    calls.lock().unwrap().clone()
}

fn assert_model_path(model: &SingleFlight, trace: &[String]) {
    let labels: Vec<&str> = trace.iter().map(String::as_str).collect();
    accepts_trace(model, &labels)
        .unwrap_or_else(|i| panic!("model rejects the executed run at step {i}: {trace:?}"));
}

/// Queued callbacks: the leader's own request and a coalesced waiter
/// subscribe before the pool job publishes; `fulfill` runs both.
#[test]
fn single_flight_queued_run_is_a_model_path() {
    let cache = ResultCache::new(8);
    let key = CacheKey(0xfeed);
    let mut trace: Vec<String> = Vec::new();

    // t0 arrives first: the model says Absent ⇒ lead.
    let guard = expect_begin!(cache, key, Begin::Lead);
    trace.push("t0:begin:lead".into());
    // The leader's request subscribes to its own flight while the job
    // has not published: the callback is queued.
    let (lead_calls, step) = subscribe(&guard.flight());
    assert_eq!(step, "subscribe:queue");
    trace.push(format!("t0:{step}"));

    // t1 arrives while pending: Pending ⇒ wait handle, no second leader.
    let flight = expect_begin!(cache, key, Begin::Wait);
    trace.push("t1:begin:wait".into());
    let (wait_calls, step) = subscribe(&flight);
    assert_eq!(step, "subscribe:queue");
    trace.push(format!("t1:{step}"));

    // The job publishes. The real `finish` is the model's two steps —
    // the map swap, then the slot resolve that takes the queued
    // callbacks — back to back.
    let payload: Arc<str> = Arc::from("{\"reply\":\"ok\"}");
    guard.fulfill(payload.clone());
    trace.push("j0:fulfill:map".into());
    trace.push("j0:publish".into());
    assert_eq!(outcomes(&lead_calls), vec![Ok(payload.clone())]);
    assert_eq!(outcomes(&wait_calls), vec![Ok(payload.clone())]);

    // t2 arrives late: Ready ⇒ hit, byte-identical to the leader's
    // payload (the no-reply-divergence invariant).
    let hit = expect_begin!(cache, key, Begin::Hit);
    trace.push("t2:begin:hit".into());
    assert_eq!(&*hit, &*payload, "hit diverged from the leader's reply");

    assert_model_path(&SingleFlight::correct(1, 3), &trace);
}

/// Inline callbacks: the pool job publishes before either subscription,
/// so each callback runs on the subscribing thread.
#[test]
fn single_flight_inline_run_is_a_model_path() {
    let cache = ResultCache::new(8);
    let key = CacheKey(0xbeef);
    let mut trace: Vec<String> = Vec::new();

    let guard = expect_begin!(cache, key, Begin::Lead);
    trace.push("t0:begin:lead".into());
    let lead_flight = guard.flight();
    let flight = expect_begin!(cache, key, Begin::Wait);
    trace.push("t1:begin:wait".into());

    let payload: Arc<str> = Arc::from("{\"reply\":\"inline\"}");
    guard.fulfill(payload.clone());
    trace.push("j0:fulfill:map".into());
    trace.push("j0:publish".into());

    let (lead_calls, step) = subscribe(&lead_flight);
    assert_eq!(step, "subscribe:inline");
    trace.push(format!("t0:{step}"));
    let (wait_calls, step) = subscribe(&flight);
    assert_eq!(step, "subscribe:inline");
    trace.push(format!("t1:{step}"));
    assert_eq!(outcomes(&lead_calls), vec![Ok(payload.clone())]);
    assert_eq!(outcomes(&wait_calls), vec![Ok(payload)]);

    assert_model_path(&SingleFlight::correct(1, 2), &trace);
}

#[test]
fn single_flight_failure_run_is_a_model_path() {
    let cache = ResultCache::new(8);
    let key = CacheKey(0xdead);
    let mut trace: Vec<String> = Vec::new();

    let guard = expect_begin!(cache, key, Begin::Lead);
    trace.push("t0:begin:lead".into());
    let (lead_calls, step) = subscribe(&guard.flight());
    trace.push(format!("t0:{step}"));
    let flight = expect_begin!(cache, key, Begin::Wait);
    trace.push("t1:begin:wait".into());

    // The job unwinds: dropping the guard fails the flight
    // (drop-propagated failure), returning the key to Absent.
    drop(guard);
    trace.push("j0:fail:map".into());
    trace.push("j0:publish".into());

    let (wait_calls, step) = subscribe(&flight);
    trace.push(format!("t1:{step}"));
    for calls in [&lead_calls, &wait_calls] {
        match &outcomes(calls)[..] {
            [Err(e)] => assert!(e.contains("failed"), "unexpected error text: {e}"),
            other => panic!("want exactly one error, got {other:?}"),
        }
    }

    // Nothing was cached: the next requester must lead a *fresh* flight
    // (the model's generation bump), not hit or wait.
    let retry = expect_begin!(cache, key, Begin::Lead);
    trace.push("t2:begin:lead".into());
    drop(retry);

    assert_model_path(&SingleFlight::correct(1, 3), &trace);
}

/// The sharded cache against the 2-shard model: keys 0 and 1 land on
/// shards 0 and 1 (low-bits selection), so two leaders legally run
/// *concurrently* — the one-shard model rejects that trace, the 2-shard
/// model requires it — while each key individually keeps single-flight
/// (the waiter coalesces, the late requester hits, bytes identical).
#[test]
fn sharded_single_flight_run_is_a_model_path() {
    let cache = ResultCache::with_options(64, 2, None);
    assert_eq!(cache.shard_count(), 2, "64/32 = 2 shards");
    let k0 = CacheKey(0); // 0 & 1 == 0 → shard 0
    let k1 = CacheKey(1); // 1 & 1 == 1 → shard 1
    let mut trace: Vec<String> = Vec::new();

    // t0 leads shard 0, t1 leads shard 1 — simultaneously. Per-shard
    // locks mean neither blocks the other.
    let g0 = expect_begin!(cache, k0, Begin::Lead);
    trace.push("t0.s0:begin:lead".into());
    let g1 = expect_begin!(cache, k1, Begin::Lead);
    trace.push("t1.s1:begin:lead".into());
    let (c0, step) = subscribe(&g0.flight());
    trace.push(format!("t0.s0:{step}"));

    // t2 wants k0 while it is in flight: coalesces behind shard 0's
    // leader, untouched by shard 1's concurrent flight.
    let flight = expect_begin!(cache, k0, Begin::Wait);
    trace.push("t2.s0:begin:wait".into());
    let (c2, step) = subscribe(&flight);
    trace.push(format!("t2.s0:{step}"));

    let p0: Arc<str> = Arc::from("{\"reply\":\"shard0\"}");
    let p1: Arc<str> = Arc::from("{\"reply\":\"shard1\"}");
    let f1 = g1.flight();
    g1.fulfill(p1.clone());
    trace.push("j1.s1:fulfill:map".into());
    trace.push("j1.s1:publish".into());
    assert!(outcomes(&c0).is_empty(), "shard 1 ran shard 0's callback");
    let (c1, step) = subscribe(&f1);
    trace.push(format!("t1.s1:{step}"));
    g0.fulfill(p0.clone());
    trace.push("j0.s0:fulfill:map".into());
    trace.push("j0.s0:publish".into());
    assert_eq!(outcomes(&c0), vec![Ok(p0.clone())]);
    assert_eq!(outcomes(&c2), vec![Ok(p0)], "waiter diverged from shard 0");
    assert_eq!(outcomes(&c1), vec![Ok(p1.clone())]);

    // t3 arrives late on shard 1: hit, byte-identical.
    let hit = expect_begin!(cache, k1, Begin::Hit);
    trace.push("t3.s1:begin:hit".into());
    assert_eq!(&*hit, &*p1, "hit diverged from shard 1's leader");

    assert_model_path(&SingleFlight::correct(2, 4), &trace);
    // The same concurrent-leaders prefix is *impossible* in the one-shard
    // model — concurrency across shards is exactly what sharding adds.
    assert_eq!(
        accepts_trace(
            &SingleFlight::correct(1, 4),
            &["t0:begin:lead", "t1:begin:lead"]
        ),
        Err(1)
    );
}

/// The callback path under real threads: in every round, the leader's
/// own request and `WAITERS` clients `begin` and `subscribe` on one key
/// while the pool job fulfils (or drops its guard) on another thread.
/// Every callback must run exactly once, with the leader's bytes or its
/// error. A client that arrives after a failure leads a fresh flight and
/// fails it too, so failure rounds answer every subscriber with an error.
#[test]
fn subscribers_racing_the_leader_are_each_called_once() {
    const WAITERS: usize = 4;
    for round in 0..200u64 {
        let cache = ResultCache::new(8);
        let key = CacheKey(round);
        let guard = expect_begin!(cache, key, Begin::Lead);
        let lead_flight = guard.flight();
        let fail = round % 3 == 0;
        let payload: Arc<str> = Arc::from(format!("{{\"round\":{round}}}"));
        let barrier = Barrier::new(WAITERS + 2);
        let (calls, hits) = std::thread::scope(|s| {
            s.spawn(|| {
                barrier.wait();
                if fail {
                    drop(guard);
                } else {
                    guard.fulfill(payload.clone());
                }
            });
            let lead = s.spawn(|| {
                barrier.wait();
                subscribe(&lead_flight).0
            });
            let waiters: Vec<_> = (0..WAITERS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        match cache.begin(key) {
                            Begin::Hit(v) => Err(v),
                            Begin::Wait(f) => Ok(subscribe(&f).0),
                            Begin::Lead(retry) => {
                                assert!(fail, "round {round}: a second leader after a fulfil");
                                let calls = subscribe(&retry.flight()).0;
                                drop(retry);
                                Ok(calls)
                            }
                        }
                    })
                })
                .collect();
            let mut calls = vec![lead.join().unwrap()];
            let mut hits = Vec::new();
            for w in waiters {
                match w.join().unwrap() {
                    Ok(c) => calls.push(c),
                    Err(v) => hits.push(v),
                }
            }
            (calls, hits)
        });
        for c in &calls {
            match &outcomes(c)[..] {
                [Ok(v)] => assert!(!fail && *v == payload, "round {round}: got {v}"),
                [Err(_)] => assert!(fail, "round {round}: error after a fulfil"),
                other => panic!("round {round}: callback ran {} times", other.len()),
            }
        }
        assert!(hits.iter().all(|v| !fail && *v == payload));
    }
}

#[test]
fn pool_backpressure_run_is_a_model_path() {
    let pool = WorkerPool::new(1, 1, Logger::disabled());
    // Let the worker reach its park (empty queue, no stop).
    std::thread::sleep(Duration::from_millis(30));
    let mut trace: Vec<&str> = Vec::new();
    trace.push("w0:park");

    // c0 submits the gate job; the notify wakes the parked worker,
    // which dequeues and blocks inside the job (Executing).
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let (running_tx, running_rx) = mpsc::channel::<()>();
    pool.try_submit(
        Box::new(move || {
            running_tx.send(()).unwrap();
            let _ = gate_rx.recv_timeout(Duration::from_secs(10));
        }),
        None,
    )
    .expect("c0 fits an empty queue");
    trace.push("c0:push");
    trace.push("c0:notify>w0");
    running_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("worker dequeued the gate job");
    trace.push("w0:dequeue");
    assert_eq!(pool.queue_depth(), 0, "executing job must leave the queue");

    // c1 fills the single queue slot while the worker is busy.
    let (done_tx, done_rx) = mpsc::channel::<()>();
    pool.try_submit(Box::new(move || done_tx.send(()).unwrap()), None)
        .expect("c1 fits the empty slot");
    trace.push("c1:push");
    trace.push("c1:notify:none");
    assert_eq!(pool.queue_depth(), 1);

    // c2 bounces off the bound — the model's reject transition is the
    // only one enabled for it.
    assert!(
        pool.try_submit(Box::new(|| ()), None).is_err(),
        "queue full must reject"
    );
    trace.push("c2:reject");
    assert_eq!(pool.rejected(), 1);

    // Release the gate: the worker finishes c0's job, drains c1's.
    gate_tx.send(()).unwrap();
    trace.push("w0:finish");
    done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("queued job drained");
    trace.push("w0:dequeue");
    trace.push("w0:finish");

    pool.shutdown();
    trace.push("shutdown");
    trace.push("w0:exit");

    accepts_trace(&Backpressure::correct(3, 1, 1), &trace)
        .unwrap_or_else(|i| panic!("model rejects the executed run at step {i}: {trace:?}"));
}

/// The checker proves the lock-free stop store loses the shutdown
/// wakeup (worker parks forever ⇒ deadlock), and that the shipped
/// protocol — store under the queue mutex — verifies exhaustively.
#[test]
fn model_separates_fixed_from_buggy_shutdown() {
    let fixed = Checker::default().run(&Backpressure::correct(2, 2, 1));
    assert!(
        fixed.verified(),
        "fixed protocol violated: {:?}",
        fixed.violation
    );

    let buggy = Checker::default().run(&Backpressure {
        clients: 1,
        workers: 1,
        capacity: 1,
        buggy_signal: true,
    });
    let v = buggy.violation.expect("buggy signal must deadlock");
    assert!(v.message.contains("deadlock"), "{}", v.message);
    assert!(
        v.trace.join(" ").contains("decide-park"),
        "witness should show the race window"
    );
}

/// Pin the `signal_stop` fix against the race its model found: shutdown
/// raced against workers heading into their park must always terminate.
/// With the store outside the queue mutex this loop eventually hangs a
/// worker (the checker's witness interleaving); the watchdog turns that
/// hang into a failure instead of a stuck CI job.
#[test]
fn shutdown_never_loses_the_stop_wakeup() {
    for round in 0..50 {
        let pool = WorkerPool::new(2, 4, Logger::disabled());
        if round % 2 == 0 {
            // Half the rounds give workers time to park; the other half
            // race shutdown straight against their first queue check.
            std::thread::sleep(Duration::from_millis(2));
        }
        let (done_tx, done_rx) = mpsc::channel::<()>();
        std::thread::spawn(move || {
            pool.shutdown();
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("shutdown hung on round {round}: lost stop wakeup"));
    }
}
