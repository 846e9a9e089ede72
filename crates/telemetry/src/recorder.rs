//! The flight recorder: fixed-capacity per-shard rings of request span
//! records, written by each shard's owning thread and drained on demand
//! by the `Introspect` ops call.
//!
//! Each ring is a preallocated array of [`RequestSpans`] values behind
//! one mutex. The shard's thread takes the lock once per request to
//! store a record by value; a drain takes it once per shard to copy the
//! live records out and converts them to [`SpanTree`]s after releasing
//! it. Every record a drain sees is therefore whole, and a writer waits
//! at most for one drain's copy of one ring (a few hundred records).
//!
//! Writes never allocate: an overwritten slot simply loses the oldest
//! record (it's a flight recorder, not a log). Each shard also feeds
//! per-phase latency histograms at write time, so the drain can report a
//! p50/p99 decomposition over *every* recorded request, not just the
//! ones still in the ring.

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::span::{Phase, RequestSpans, SpanTree, PHASES};
use crate::trace::TraceCtx;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;

/// One shard's ring: `slots[i % capacity]` holds record `i`.
struct Ring {
    /// Records ever pushed to this ring.
    head: u64,
    slots: Box<[RequestSpans]>,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        let empty = RequestSpans::begin(
            TraceCtx {
                trace_id: 0,
                span_id: 0,
            },
            0,
            0,
        );
        Ring {
            head: 0,
            slots: vec![empty; capacity.max(1)].into_boxed_slice(),
        }
    }

    /// Store one record, overwriting the oldest once the ring is full.
    fn push(&mut self, spans: RequestSpans) {
        let cap = self.slots.len() as u64;
        self.slots[(self.head % cap) as usize] = spans;
        self.head += 1;
    }

    /// The records still in the ring, oldest first.
    fn live(&self) -> Vec<RequestSpans> {
        let cap = self.slots.len() as u64;
        (self.head.saturating_sub(cap)..self.head)
            .map(|i| self.slots[(i % cap) as usize])
            .collect()
    }
}

/// See the module docs.
pub struct FlightRecorder {
    epoch: Instant,
    rings: Vec<Mutex<Ring>>,
    /// Per-shard, per-phase latency histograms (writer-local updates).
    phase_hist: Vec<[Histogram; PHASES]>,
    /// Per-shard root-span (total) latency histograms.
    total_hist: Vec<Histogram>,
}

impl FlightRecorder {
    /// A recorder with `shards` independent rings of `capacity` records
    /// each.
    pub fn new(shards: usize, capacity: usize) -> Arc<FlightRecorder> {
        let n = shards.max(1);
        Arc::new(FlightRecorder {
            epoch: Instant::now(),
            rings: (0..n).map(|_| Mutex::new(Ring::new(capacity))).collect(),
            phase_hist: (0..n)
                .map(|_| std::array::from_fn(|_| Histogram::new()))
                .collect(),
            total_hist: (0..n).map(|_| Histogram::new()).collect(),
        })
    }

    /// Cumulative µs since the recorder epoch — the clock every
    /// [`RequestSpans`] checkpoint uses.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }

    pub fn shard_count(&self) -> usize {
        self.rings.len()
    }

    /// Record one finished request on `shard`'s ring and feed the
    /// per-phase and total histograms. Zero allocation.
    pub fn record(&self, shard: usize, spans: &RequestSpans) {
        let i = shard % self.rings.len();
        self.rings[i].lock().push(*spans);
        for (phase, us) in spans.phases() {
            self.phase_hist[i][phase as usize].record_us(us);
        }
        self.total_hist[i].record_us(spans.total_us());
    }

    /// Every record still in the rings, oldest-first per shard, then
    /// globally ordered by root-span open time.
    pub fn drain(&self) -> Vec<SpanTree> {
        let live: Vec<RequestSpans> = self.rings.iter().flat_map(|r| r.lock().live()).collect();
        let mut out: Vec<SpanTree> = live.iter().map(SpanTree::from).collect();
        out.sort_by_key(|t| (t.start_us, t.trace_id));
        out
    }

    /// Merged per-phase latency snapshots, in pipeline order.
    pub fn phase_snapshots(&self) -> Vec<(Phase, HistogramSnapshot)> {
        Phase::ALL
            .iter()
            .map(|&p| {
                (
                    p,
                    Histogram::merged_snapshot(
                        self.phase_hist.iter().map(|shard| &shard[p as usize]),
                    ),
                )
            })
            .collect()
    }

    /// Merged root-span (total latency) snapshot.
    pub fn total_snapshot(&self) -> HistogramSnapshot {
        Histogram::merged_snapshot(self.total_hist.iter())
    }

    /// Requests ever recorded, across all shards (ring drops included).
    pub fn recorded(&self) -> u64 {
        self.rings.iter().map(|r| r.lock().head).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn spans(trace: u64, start: u64, sim_end: u64) -> RequestSpans {
        let mut s = RequestSpans::begin(
            TraceCtx {
                trace_id: trace,
                span_id: trace + 1,
            },
            0,
            start,
        );
        s.mark(Phase::Parse, start + 2);
        s.mark(Phase::Simulate, sim_end);
        s
    }

    #[test]
    fn records_round_trip_through_the_ring() {
        let r = FlightRecorder::new(2, 8);
        r.record(0, &spans(1, 10, 50));
        r.record(1, &spans(2, 20, 90));
        let trees = r.drain();
        assert_eq!(trees.len(), 2);
        assert_eq!(trees[0].trace_id, 1);
        assert_eq!(trees[1].trace_id, 2);
        assert_eq!(trees[0].total_us(), 40);
        assert_eq!(r.recorded(), 2);
    }

    #[test]
    fn wraparound_keeps_the_newest_records() {
        let r = FlightRecorder::new(1, 4);
        for i in 0..10u64 {
            r.record(0, &spans(i + 1, i * 100, i * 100 + 10));
        }
        let trees = r.drain();
        assert_eq!(trees.len(), 4, "ring keeps exactly its capacity");
        let ids: Vec<u64> = trees.iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, vec![7, 8, 9, 10], "oldest records were overwritten");
        assert_eq!(r.recorded(), 10, "pushes are counted through drops");
    }

    #[test]
    fn phase_histograms_accumulate_beyond_ring_capacity() {
        let r = FlightRecorder::new(1, 2);
        for i in 0..6u64 {
            r.record(0, &spans(i + 1, 0, 12)); // parse 2µs, simulate 10µs
        }
        let by_phase = r.phase_snapshots();
        let parse = &by_phase[Phase::Parse as usize].1;
        let sim = &by_phase[Phase::Simulate as usize].1;
        assert_eq!(parse.count, 6, "histograms outlive the ring");
        assert_eq!(parse.total_us, 12);
        assert_eq!(sim.count, 6);
        assert_eq!(sim.total_us, 60);
        assert_eq!(by_phase[Phase::Write as usize].1.count, 0);
        assert_eq!(r.total_snapshot().count, 6);
        assert_eq!(r.total_snapshot().total_us, 72);
    }

    #[test]
    fn concurrent_drains_never_see_torn_records() {
        // A writer hammering a tiny ring while readers drain: every
        // drained record must be whole: a self-consistent
        // (trace, total) pair the writer actually produced. Draining
        // goes on until the writer has lapped the ring many times, so the
        // drains overlap writes however late the writer thread starts.
        const OVERLAP: u64 = 256;
        let r = FlightRecorder::new(1, 4);
        let stop = Arc::new(AtomicU64::new(0));
        let published = AtomicU64::new(0);
        std::thread::scope(|s| {
            let writer = {
                let r = &r;
                let stop = stop.clone();
                let published = &published;
                s.spawn(move || {
                    let mut i = 0u64;
                    while stop.load(Ordering::Relaxed) == 0 {
                        // Encode the iteration in both trace id and the
                        // simulate duration so a torn mix is detectable.
                        let mut sp = RequestSpans::begin(
                            TraceCtx {
                                trace_id: i + 1,
                                span_id: i + 1,
                            },
                            0,
                            i,
                        );
                        sp.mark(Phase::Simulate, i + (i + 1) % 1000);
                        r.record(0, &sp);
                        i += 1;
                        published.store(i, Ordering::Relaxed);
                    }
                    i
                })
            };
            let mut drains = 0;
            while drains < 200 || published.load(Ordering::Relaxed) < OVERLAP {
                for t in r.drain() {
                    assert_eq!(
                        t.total_us(),
                        t.trace_id % 1000,
                        "torn record leaked through the lock: {t:?}"
                    );
                }
                drains += 1;
            }
            stop.store(1, Ordering::Relaxed);
            let written = writer.join().expect("writer");
            assert!(written > 0);
        });
    }

    #[test]
    fn now_us_is_monotone() {
        let r = FlightRecorder::new(1, 1);
        let a = r.now_us();
        let b = r.now_us();
        assert!(b >= a);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The record the writer publishes for push number `i`: its trace
    /// id, open time and mark all carry `i + 1`, so an intact drain
    /// result is fully determined by (and checkable against) its
    /// position.
    fn record(i: u64) -> RequestSpans {
        let mut s = RequestSpans::begin(
            TraceCtx {
                trace_id: i + 1,
                span_id: i + 1,
            },
            0,
            i + 1,
        );
        s.mark(Phase::Simulate, 2 * (i + 1));
        s
    }

    proptest! {
        /// Quiescent drains through arbitrary push/drain interleavings:
        /// after any prefix of pushes, a drain returns exactly the last
        /// `min(capacity, pushed)` records, oldest first, every field
        /// intact — wraparound loses only lapped history. (Concurrent
        /// drains are covered by the threaded stress test above.)
        #[test]
        fn wraparound_keeps_the_newest_records_in_order(
            capacity in 1usize..9,
            // true = push, false = drain
            ops in proptest::collection::vec(proptest::bool::ANY, 1..60),
        ) {
            let mut ring = Ring::new(capacity);
            let mut pushed = 0u64;
            for op in ops {
                if op {
                    ring.push(record(pushed));
                    pushed += 1;
                } else {
                    let got = ring.live();
                    let expect = pushed.min(capacity as u64);
                    prop_assert_eq!(got.len() as u64, expect);
                    for (k, spans) in got.iter().enumerate() {
                        let index = pushed - expect + k as u64;
                        prop_assert_eq!(spans, &record(index));
                    }
                }
            }
            prop_assert_eq!(ring.head, pushed);
        }
    }
}
