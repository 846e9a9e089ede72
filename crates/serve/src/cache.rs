//! Content-addressed result cache: sharded, single-flight, optionally
//! persistent.
//!
//! Keys are [`CacheKey`]s (canonical config hashes from `ugpc-core`);
//! values are fully serialized response payloads (`Arc<str>` wire
//! lines), so a cache hit is byte-identical to the original computation
//! by construction and costs no re-serialization.
//!
//! **Sharding:** entries live in `2^k` independent shards selected by
//! the low bits of the key, each behind its own lock with its own LRU
//! clock and counters — concurrent connections on different keys never
//! contend. Because a key maps to exactly one shard, per-shard
//! single-flight *is* global single-flight: one leader per key,
//! process-wide (the model checker's `SingleFlight` at two shards
//! proves this composition). Shard count is clamped by capacity
//! (`max(1, capacity/32)`, rounded down to a power of two) so small
//! caches keep exact global LRU semantics.
//!
//! **Single-flight:** the first requester of a key becomes its *leader*
//! and computes; concurrent requesters of the same key subscribe a
//! completion callback ([`ResultCache::subscribe`]) and receive the
//! leader's result — one simulation, N identical responses. The leader's
//! own request subscribes the same way ([`LeadGuard::flight`]) while its
//! pool job computes, so every answer to a miss arrives through one
//! callback path, model-checked as `ugpc_analysis::model::singleflight`.
//!
//! **LRU bounding:** at most `capacity` ready entries across all shards
//! (capacity split evenly; per-shard least-recently-touched eviction).
//! In-flight computations don't count against the bound and are never
//! evicted.
//!
//! **Persistence:** with an [`AppendLog`] attached, every retained
//! result is also appended to the log (length-prefixed, CRC-checked; see
//! [`crate::persist`]), and a restarted cache replays the log so hits
//! survive the process — byte-identical, because the log stores the
//! exact response line.

use crate::persist::AppendLog;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use ugpc_core::CacheKey;

/// The outcome a waiter observes for an in-flight computation.
type FlightResult = Result<Arc<str>, String>;

/// A completion callback registered by the non-blocking path.
type FlightCallback = Box<dyn FnOnce(FlightResult) + Send>;

struct FlightState {
    result: Option<FlightResult>,
    callbacks: Vec<FlightCallback>,
}

/// Shared slot the leader resolves; requesters register a completion
/// callback ([`ResultCache::subscribe`]). A panicked leader is reported
/// through the [`LeadGuard`] drop path.
pub struct Flight {
    slot: Mutex<FlightState>,
}

impl Flight {
    fn new() -> Arc<Flight> {
        Arc::new(Flight {
            slot: Mutex::new(FlightState {
                result: None,
                callbacks: Vec::new(),
            }),
        })
    }
}

enum Entry {
    /// Computation in progress; waiters hold the same `Arc<Flight>`.
    Pending(Arc<Flight>),
    /// Finished result plus its last-touch tick for LRU ordering.
    Ready { value: Arc<str>, touched: u64 },
}

/// Monotonic counters, readable without the map lock. Each shard owns a
/// set; [`ResultCache::counters_snapshot`] sums them.
#[derive(Debug, Default)]
pub struct CacheCounters {
    /// Requests answered from a ready entry.
    pub hits: AtomicU64,
    /// Requests that became computation leaders.
    pub misses: AtomicU64,
    /// Requests that coalesced behind an in-flight leader.
    pub coalesced: AtomicU64,
    /// Ready entries dropped by the LRU bound.
    pub evictions: AtomicU64,
}

/// Plain-value sum of every shard's [`CacheCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCountersSnapshot {
    pub hits: u64,
    pub misses: u64,
    pub coalesced: u64,
    pub evictions: u64,
}

/// Health snapshot of the persistent append-log tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistSnapshot {
    pub path: String,
    /// Records the recovery scan replayed at open.
    pub recovered: u64,
    /// Records appended since open.
    pub appended: u64,
    /// Current log size in bytes.
    pub bytes: u64,
    /// Bytes discarded at open as a corrupt or torn tail.
    pub truncated_bytes: u64,
    /// Append failures since open (the cache keeps serving from memory).
    pub errors: u64,
}

/// What [`ResultCache::begin`] tells a requester to do.
pub enum Begin {
    /// Ready value — answer immediately, no simulation.
    Hit(Arc<str>),
    /// Someone else is computing this key — subscribe to the flight
    /// ([`ResultCache::subscribe`]).
    Wait(Arc<Flight>),
    /// You are the leader: compute, then [`LeadGuard::fulfill`] (the
    /// guard reports failure automatically if you unwind first).
    Lead(LeadGuard),
}

/// Leader's obligation token. Dropping it without fulfilling (worker
/// panic, pool rejection) fails the flight so subscribers receive an
/// error instead of never being called.
pub struct LeadGuard {
    cache: Arc<ResultCache>,
    key: CacheKey,
    flight: Arc<Flight>,
    done: bool,
}

impl LeadGuard {
    pub fn key(&self) -> CacheKey {
        self.key
    }

    /// The flight this leader owes a result to. The non-blocking leader
    /// path subscribes to its own flight here instead of re-`begin`ning
    /// the key (which would double-count a coalesced waiter).
    pub fn flight(&self) -> Arc<Flight> {
        self.flight.clone()
    }

    /// Publish the computed payload: the entry becomes ready (subject to
    /// the LRU bound) and every subscriber receives it.
    pub fn fulfill(mut self, value: Arc<str>) {
        self.done = true;
        self.cache.finish(self.key, &self.flight, Ok(value));
    }

    /// Fail the flight: nothing is cached, subscribers receive the error.
    pub fn fail(mut self, message: String) {
        self.done = true;
        self.cache.finish(self.key, &self.flight, Err(message));
    }
}

impl Drop for LeadGuard {
    fn drop(&mut self) {
        if !self.done {
            self.cache.finish(
                self.key,
                &self.flight,
                Err("simulation worker failed".to_string()),
            );
        }
    }
}

/// One independent slice of the cache: its own lock, LRU clock,
/// capacity share, and counters.
struct Shard {
    map: Mutex<HashMap<u64, Entry>>,
    capacity: usize,
    clock: AtomicU64,
    counters: CacheCounters,
}

impl Shard {
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Evict least-recently-touched ready entries until at most `target`
    /// remain. Linear scan per eviction — fine for the bounded,
    /// ops-sized per-shard capacities this service uses.
    fn evict_to(&self, target: usize, map: &mut HashMap<u64, Entry>) {
        loop {
            // Order-free: the count and the `min` over unique
            // (touched, key) pairs do not depend on iteration order.
            let ready = map
                .iter() // lint:allow hash-iteration
                .filter_map(|(k, e)| match e {
                    Entry::Ready { touched, .. } => Some((*touched, *k)),
                    Entry::Pending(_) => None,
                })
                .collect::<Vec<_>>();
            if ready.len() <= target {
                return;
            }
            if let Some(&(_, oldest)) = ready.iter().min() {
                map.remove(&oldest);
                self.counters.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// See the module docs.
pub struct ResultCache {
    shards: Vec<Shard>,
    /// `shards.len() - 1` (shard count is a power of two).
    mask: u64,
    capacity: usize,
    persist: Option<Mutex<AppendLog>>,
    /// Appends that failed with an I/O error (the cache keeps serving
    /// from memory; persistence is a tier, not a dependency).
    persist_errors: AtomicU64,
}

/// Largest power of two `<= v` (v >= 1).
fn floor_pow2(v: usize) -> usize {
    debug_assert!(v >= 1);
    1 << (usize::BITS - 1 - v.leading_zeros())
}

impl ResultCache {
    /// `capacity` bounds *ready* entries; 0 disables caching entirely
    /// (every request is a leader, nothing is retained). Single shard —
    /// the seed configuration.
    pub fn new(capacity: usize) -> Arc<Self> {
        Self::with_options(capacity, 1, None)
    }

    /// A cache with up to `shards` shards (rounded down to a power of
    /// two and clamped to `max(1, capacity/32)` so small caches keep
    /// exact global LRU semantics) and an optional persistent tier. Any
    /// records the log recovered are replayed into the shards — later
    /// records for a key win, and the LRU bound applies as usual.
    pub fn with_options(capacity: usize, shards: usize, persist: Option<AppendLog>) -> Arc<Self> {
        let clamp = (capacity / 32).max(1);
        let n = floor_pow2(shards.max(1).min(clamp));
        let shards: Vec<Shard> = (0..n)
            .map(|i| Shard {
                map: Mutex::new(HashMap::new()),
                // Split capacity evenly; the remainder goes to the first
                // shards so the shard capacities sum exactly to `capacity`.
                capacity: capacity / n + usize::from(i < capacity % n),
                clock: AtomicU64::new(0),
                counters: CacheCounters::default(),
            })
            .collect();
        let mut cache = ResultCache {
            shards,
            mask: (n - 1) as u64,
            capacity,
            persist: None,
            persist_errors: AtomicU64::new(0),
        };
        if let Some(mut log) = persist {
            for (key, line) in log.take_recovered() {
                cache.seed_ready(CacheKey(key), line.into());
            }
            cache.persist = Some(Mutex::new(log));
        }
        Arc::new(cache)
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, key: CacheKey) -> &Shard {
        &self.shards[(key.0 & self.mask) as usize]
    }

    /// Insert a recovered record as a ready entry (recovery path only:
    /// no counter bumps beyond natural evictions, no log append — the
    /// record is already in the log).
    fn seed_ready(&mut self, key: CacheKey, value: Arc<str>) {
        let shard = &self.shards[(key.0 & self.mask) as usize];
        if shard.capacity == 0 {
            return;
        }
        let mut map = shard.map.lock();
        // Replaying over an existing key (later log records win) must
        // not trip the bound check into evicting an unrelated entry.
        if !map.contains_key(&key.0) {
            shard.evict_to(shard.capacity - 1, &mut map);
        }
        let touched = shard.tick();
        map.insert(key.0, Entry::Ready { value, touched });
    }

    /// Look up `key`, registering this requester as hit, waiter, or
    /// leader (see [`Begin`]).
    pub fn begin(self: &Arc<Self>, key: CacheKey) -> Begin {
        let shard = self.shard(key);
        let mut map = shard.map.lock();
        match map.get_mut(&key.0) {
            Some(Entry::Ready { value, touched }) => {
                *touched = shard.tick();
                shard.counters.hits.fetch_add(1, Ordering::Relaxed);
                Begin::Hit(value.clone())
            }
            Some(Entry::Pending(flight)) => {
                shard.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                Begin::Wait(flight.clone())
            }
            None => {
                shard.counters.misses.fetch_add(1, Ordering::Relaxed);
                let flight = Flight::new();
                map.insert(key.0, Entry::Pending(flight.clone()));
                Begin::Lead(LeadGuard {
                    cache: self.clone(),
                    key,
                    flight,
                    done: false,
                })
            }
        }
    }

    /// Hit-only probe: returns the ready entry (touching its LRU slot
    /// and counting the hit, exactly like the `Hit` arm of
    /// [`begin`](ResultCache::begin)) or `None` — with **no** side
    /// effects on a miss or an in-flight entry. The event loop's
    /// request-identity fast path uses this before falling back to the
    /// full parse-validate-begin sequence.
    pub fn probe(&self, key: CacheKey) -> Option<Arc<str>> {
        let shard = self.shard(key);
        let mut map = shard.map.lock();
        match map.get_mut(&key.0) {
            Some(Entry::Ready { value, touched }) => {
                *touched = shard.tick();
                shard.counters.hits.fetch_add(1, Ordering::Relaxed);
                Some(value.clone())
            }
            _ => None,
        }
    }

    /// Register a completion callback: `callback` runs exactly once with
    /// the flight's outcome — immediately (on the calling thread) if the
    /// flight already resolved, otherwise on the resolving thread. The
    /// check and the queueing happen under one slot lock, so a publish
    /// cannot slip between them.
    pub fn subscribe(flight: &Flight, callback: FlightCallback) {
        let mut slot = flight.slot.lock();
        match slot.result.clone() {
            Some(r) => {
                // Invoke outside the slot lock.
                drop(slot);
                callback(r);
            }
            None => slot.callbacks.push(callback),
        }
    }

    /// Resolve a flight: store the result (evicting per LRU if needed,
    /// appending to the persistent tier if attached), then run every
    /// subscribed callback.
    fn finish(&self, key: CacheKey, flight: &Arc<Flight>, result: FlightResult) {
        let mut retained = false;
        {
            let shard = self.shard(key);
            let mut map = shard.map.lock();
            // Replace the pending entry we own. ClearCache may have
            // removed it meanwhile; then the result is simply not cached.
            let ours = matches!(map.get(&key.0), Some(Entry::Pending(p)) if Arc::ptr_eq(p, flight));
            if ours {
                map.remove(&key.0);
                if let Ok(value) = &result {
                    if shard.capacity > 0 {
                        shard.evict_to(shard.capacity - 1, &mut map);
                        let touched = shard.tick();
                        map.insert(
                            key.0,
                            Entry::Ready {
                                value: value.clone(),
                                touched,
                            },
                        );
                        retained = true;
                    }
                }
            }
        }
        if retained {
            if let (Some(log), Ok(value)) = (&self.persist, &result) {
                if log.lock().append(key.0, value).is_err() {
                    self.persist_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let callbacks = {
            let mut slot = flight.slot.lock();
            slot.result = Some(result.clone());
            std::mem::take(&mut slot.callbacks)
        };
        for cb in callbacks {
            cb(result.clone());
        }
    }

    /// Drop every ready entry (and truncate the persistent tier, if
    /// attached — a cleared corpus must not resurrect on restart).
    /// Pending flights keep running, publish to their waiters, and are
    /// retained on completion — a result computed after the clear is
    /// fresh by definition.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard
                .map
                .lock()
                .retain(|_, e| matches!(e, Entry::Pending(_)));
        }
        if let Some(log) = &self.persist {
            if log.lock().truncate().is_err() {
                self.persist_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Number of ready entries currently held, across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.map
                    .lock()
                    .values()
                    .filter(|e| matches!(e, Entry::Ready { .. }))
                    .count()
            })
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Sum of every shard's counters.
    pub fn counters_snapshot(&self) -> CacheCountersSnapshot {
        let mut out = CacheCountersSnapshot::default();
        for s in &self.shards {
            out.hits += s.counters.hits.load(Ordering::Relaxed);
            out.misses += s.counters.misses.load(Ordering::Relaxed);
            out.coalesced += s.counters.coalesced.load(Ordering::Relaxed);
            out.evictions += s.counters.evictions.load(Ordering::Relaxed);
        }
        out
    }

    /// A snapshot of the persistent tier's health, if one is attached.
    pub fn persist_stats(&self) -> Option<PersistSnapshot> {
        self.persist.as_ref().map(|log| {
            let log = log.lock();
            PersistSnapshot {
                path: log.path().display().to_string(),
                recovered: log.recovered_count(),
                appended: log.appended(),
                bytes: log.bytes(),
                truncated_bytes: log.truncated_bytes(),
                errors: self.persist_errors.load(Ordering::Relaxed),
            }
        })
    }

    /// hits / (hits + misses + coalesced), 0.0 when nothing happened yet.
    /// Coalesced waiters count toward the denominator only: they did not
    /// simulate, but they did not reuse a *finished* result either.
    pub fn hit_rate(&self) -> f64 {
        let c = self.counters_snapshot();
        let total = (c.hits + c.misses + c.coalesced) as f64;
        if total == 0.0 {
            0.0
        } else {
            c.hits as f64 / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    /// Subscribe to `flight` and block on the callback's delivery.
    fn await_flight(flight: &Flight) -> FlightResult {
        let (tx, rx) = std::sync::mpsc::channel();
        ResultCache::subscribe(
            flight,
            Box::new(move |r| {
                let _ = tx.send(r);
            }),
        );
        rx.recv().expect("the callback runs")
    }

    fn get_or_compute(
        cache: &Arc<ResultCache>,
        key: CacheKey,
        f: impl FnOnce() -> String,
    ) -> Arc<str> {
        match cache.begin(key) {
            Begin::Hit(v) => v,
            Begin::Wait(flight) => await_flight(&flight).expect("flight ok"),
            Begin::Lead(guard) => {
                let v: Arc<str> = f().into();
                guard.fulfill(v.clone());
                v
            }
        }
    }

    #[test]
    fn hit_after_miss() {
        let cache = ResultCache::new(8);
        let k = CacheKey(42);
        let a = get_or_compute(&cache, k, || "payload".to_string());
        let b = get_or_compute(&cache, k, || panic!("must not recompute"));
        assert_eq!(a, b);
        let c = cache.counters_snapshot();
        assert_eq!(c.misses, 1);
        assert_eq!(c.hits, 1);
        assert!(cache.hit_rate() > 0.0);
    }

    #[test]
    fn single_flight_computes_once() {
        let cache = ResultCache::new(8);
        let computations = AtomicUsize::new(0);
        let n = 8;
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for _ in 0..n {
                handles.push(s.spawn(|| {
                    get_or_compute(&cache, CacheKey(7), || {
                        computations.fetch_add(1, Ordering::SeqCst);
                        // Hold the flight open long enough for the other
                        // threads to subscribe behind it.
                        std::thread::sleep(Duration::from_millis(50));
                        "result".to_string()
                    })
                }));
            }
            let results: Vec<Arc<str>> = handles
                .into_iter()
                .map(|h| h.join().expect("join"))
                .collect();
            for r in &results {
                assert_eq!(&**r, "result");
            }
        });
        assert_eq!(
            computations.load(Ordering::SeqCst),
            1,
            "exactly one simulation"
        );
        let c = cache.counters_snapshot();
        assert_eq!(c.misses, 1);
        // Everyone else either coalesced behind the flight or (rarely,
        // if the leader finished first) hit the ready entry.
        assert_eq!(c.coalesced + c.hits, (n - 1) as u64);
    }

    #[test]
    fn lru_bound_and_order() {
        let cache = ResultCache::new(2);
        for i in 0..2u64 {
            get_or_compute(&cache, CacheKey(i), || format!("v{i}"));
        }
        // Touch key 0 so key 1 is the LRU victim.
        get_or_compute(&cache, CacheKey(0), || panic!("hit expected"));
        get_or_compute(&cache, CacheKey(2), || "v2".to_string());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.counters_snapshot().evictions, 1);
        // Key 0 survived; key 1 was evicted and recomputes.
        get_or_compute(&cache, CacheKey(0), || panic!("0 must have survived"));
        let recomputed = AtomicUsize::new(0);
        get_or_compute(&cache, CacheKey(1), || {
            recomputed.fetch_add(1, Ordering::SeqCst);
            "v1-again".to_string()
        });
        assert_eq!(recomputed.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn zero_capacity_disables_retention() {
        let cache = ResultCache::new(0);
        let computed = AtomicUsize::new(0);
        for _ in 0..3 {
            get_or_compute(&cache, CacheKey(1), || {
                computed.fetch_add(1, Ordering::SeqCst);
                "x".to_string()
            });
        }
        assert_eq!(computed.load(Ordering::SeqCst), 3);
        assert!(cache.is_empty());
    }

    #[test]
    fn dropped_leader_fails_waiters() {
        let cache = ResultCache::new(4);
        let k = CacheKey(9);
        let guard = match cache.begin(k) {
            Begin::Lead(g) => g,
            _ => panic!("first requester must lead"),
        };
        let waiter = {
            let cache = cache.clone();
            std::thread::spawn(move || match cache.begin(k) {
                Begin::Wait(f) => await_flight(&f),
                _ => panic!("second requester must wait"),
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        drop(guard); // leader dies without fulfilling
        let res = waiter.join().expect("join");
        assert!(res.is_err(), "waiter must see the failure");
        // The key is free again: a new leader can claim it.
        assert!(matches!(cache.begin(k), Begin::Lead(_)));
    }

    #[test]
    fn clear_drops_ready_entries_only() {
        let cache = ResultCache::new(4);
        get_or_compute(&cache, CacheKey(1), || "a".to_string());
        let pending = match cache.begin(CacheKey(2)) {
            Begin::Lead(g) => g,
            _ => panic!("lead"),
        };
        cache.clear();
        assert!(cache.is_empty());
        // The in-flight computation still publishes to its waiters, and
        // its result — computed after the clear, hence fresh — is cached.
        pending.fulfill("b".into());
        match cache.begin(CacheKey(2)) {
            Begin::Hit(v) => assert_eq!(&*v, "b"),
            _ => panic!("fresh in-flight result must be retained"),
        }
    }

    #[test]
    fn shard_count_is_clamped_by_capacity() {
        // Tiny caches collapse to one shard (exact global LRU), big
        // caches honor the request rounded down to a power of two.
        assert_eq!(ResultCache::with_options(2, 8, None).shard_count(), 1);
        assert_eq!(ResultCache::with_options(16, 8, None).shard_count(), 1);
        assert_eq!(ResultCache::with_options(64, 8, None).shard_count(), 2);
        assert_eq!(ResultCache::with_options(256, 8, None).shard_count(), 8);
        assert_eq!(ResultCache::with_options(256, 7, None).shard_count(), 4);
        assert_eq!(ResultCache::with_options(4096, 1, None).shard_count(), 1);
    }

    #[test]
    fn sharded_cache_keeps_per_key_single_flight_and_global_bound() {
        let cache = ResultCache::with_options(256, 8, None);
        assert_eq!(cache.shard_count(), 8);
        // Keys landing in different shards lead independently...
        let g0 = match cache.begin(CacheKey(0)) {
            Begin::Lead(g) => g,
            _ => panic!("lead"),
        };
        let g1 = match cache.begin(CacheKey(1)) {
            Begin::Lead(g) => g,
            _ => panic!("lead"),
        };
        // ...while a same-key requester still coalesces (per-shard
        // single-flight is global: a key maps to exactly one shard).
        assert!(matches!(cache.begin(CacheKey(0)), Begin::Wait(_)));
        g0.fulfill("a".into());
        g1.fulfill("b".into());
        assert_eq!(cache.len(), 2);
        // Fill well past any single shard's share: the global bound holds.
        for k in 0..600u64 {
            get_or_compute(&cache, CacheKey(k), || format!("v{k}"));
        }
        assert!(cache.len() <= 256, "global bound: {}", cache.len());
        assert!(cache.counters_snapshot().evictions > 0);
    }

    #[test]
    fn subscribe_runs_once_resolved_or_immediately() {
        let cache = ResultCache::new(8);
        let k = CacheKey(3);
        let guard = match cache.begin(k) {
            Begin::Lead(g) => g,
            _ => panic!("lead"),
        };
        let flight = guard.flight();
        let fired = Arc::new(Mutex::new(Vec::<String>::new()));
        {
            let fired = fired.clone();
            ResultCache::subscribe(
                &flight,
                Box::new(move |r| fired.lock().push(r.expect("ok").to_string())),
            );
        }
        assert!(fired.lock().is_empty(), "not resolved yet");
        guard.fulfill("done".into());
        assert_eq!(*fired.lock(), vec!["done".to_string()]);
        // Subscribing after resolution invokes immediately.
        {
            let fired = fired.clone();
            ResultCache::subscribe(
                &flight,
                Box::new(move |r| fired.lock().push(r.expect("ok").to_string())),
            );
        }
        assert_eq!(fired.lock().len(), 2);
        // A failed flight delivers the error to subscribers too.
        let guard = match cache.begin(CacheKey(4)) {
            Begin::Lead(g) => g,
            _ => panic!("lead"),
        };
        let flight = guard.flight();
        let errs = Arc::new(Mutex::new(Vec::<String>::new()));
        {
            let errs = errs.clone();
            ResultCache::subscribe(
                &flight,
                Box::new(move |r| errs.lock().push(r.expect_err("failed"))),
            );
        }
        drop(guard);
        assert_eq!(errs.lock().len(), 1);
    }

    #[test]
    fn persistent_tier_replays_after_restart() {
        let dir = std::env::temp_dir().join(format!("ugpc-cache-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("cache.log");
        {
            let log = AppendLog::open(&path).expect("open");
            let cache = ResultCache::with_options(64, 2, Some(log));
            get_or_compute(&cache, CacheKey(1), || "one".to_string());
            get_or_compute(&cache, CacheKey(2), || "two".to_string());
            let p = cache.persist_stats().expect("persist attached");
            assert_eq!((p.recovered, p.appended, p.errors), (0, 2, 0));
            assert_eq!(p.truncated_bytes, 0, "clean log has no torn tail");
            assert!(p.bytes > 0);
        }
        // "Restart": a fresh cache over the same log serves both keys
        // without recomputing, byte-identically.
        let log = AppendLog::open(&path).expect("reopen");
        let cache = ResultCache::with_options(64, 2, Some(log));
        assert_eq!(cache.len(), 2);
        let one = get_or_compute(&cache, CacheKey(1), || panic!("recovered"));
        assert_eq!(&*one, "one");
        let two = get_or_compute(&cache, CacheKey(2), || panic!("recovered"));
        assert_eq!(&*two, "two");
        let p = cache.persist_stats().expect("attached");
        assert_eq!((p.recovered, p.appended), (2, 0));
        // ClearCache truncates the log: a second restart starts cold.
        cache.clear();
        drop(cache);
        let log = AppendLog::open(&path).expect("reopen cleared");
        let cache = ResultCache::with_options(64, 2, Some(log));
        assert!(cache.is_empty(), "cleared corpus must not resurrect");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
