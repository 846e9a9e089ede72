//! The flight recorder: fixed-capacity per-shard ring buffers of
//! encoded span records, written lock-free by each shard's owning
//! thread and drained on demand by the `Introspect` ops call.
//!
//! ## Seqlock-per-slot protocol
//!
//! Each slot carries a sequence word next to its payload. The (single)
//! writer of a shard stores an *odd* sequence, writes the payload
//! words, then stores the *even* sequence encoding the record's
//! generation. A drain reads the sequence, skips odd (in-progress)
//! slots, copies the payload, and re-reads the sequence: any change
//! means the copy may be torn, and the slot is skipped. Payload words
//! are relaxed atomics, so a torn read is *detectable data*, never
//! undefined behavior — the protocol is modeled exhaustively in
//! `ugpc-analysis` (`model::seqlock`) and the `buggy_*` variants there
//! show which orderings the invariant catches.
//!
//! Writes never block and never allocate: an overwritten slot simply
//! loses the oldest record (it's a flight recorder, not a log). Each
//! shard also feeds per-phase latency histograms at write time, so the
//! drain can report a p50/p99 decomposition over *every* recorded
//! request, not just the ones still in the ring.

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::span::{Phase, RequestSpans, SpanTree, PHASES, RECORD_WORDS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct Slot {
    /// Odd while the writer is mid-record; `2 * (index + 1)` once the
    /// record at ring index `index` is published.
    seq: AtomicU64,
    words: [AtomicU64; RECORD_WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// One shard's ring. Exactly one thread may call [`RingShard::push`]
/// (the shard's event-loop thread); any thread may drain.
pub struct RingShard {
    /// Records ever pushed by this shard's writer.
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl RingShard {
    fn new(capacity: usize) -> RingShard {
        RingShard {
            head: AtomicU64::new(0),
            slots: (0..capacity.max(1)).map(|_| Slot::new()).collect(),
        }
    }

    /// Publish one record. **Single-writer**: only the owning shard
    /// thread may call this.
    pub fn push(&self, words: &[u64; RECORD_WORDS]) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head % self.slots.len() as u64) as usize];
        slot.seq.store(2 * head + 1, Ordering::Release);
        for (w, &v) in slot.words.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
        slot.seq.store(2 * (head + 1), Ordering::Release);
        self.head.store(head + 1, Ordering::Release);
    }

    /// Copy out every intact record, oldest first. Slots the writer is
    /// overwriting concurrently fail the seq re-check and are skipped —
    /// a drain never returns torn data.
    pub fn drain(&self) -> Vec<[u64; RECORD_WORDS]> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let mut out = Vec::new();
        for index in head.saturating_sub(cap)..head {
            let slot = &self.slots[(index % cap) as usize];
            let expect = 2 * (index + 1);
            if slot.seq.load(Ordering::Acquire) != expect {
                continue; // overwritten or mid-write
            }
            let words: [u64; RECORD_WORDS] =
                std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            if slot.seq.load(Ordering::Acquire) != expect {
                continue; // torn: the writer lapped us mid-copy
            }
            out.push(words);
        }
        out
    }

    /// Records ever pushed (drops included).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }
}

/// See the module docs.
pub struct FlightRecorder {
    epoch: Instant,
    shards: Vec<RingShard>,
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
            shards: (0..n).map(|_| RingShard::new(capacity)).collect(),
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
        self.shards.len()
    }

    /// Record one finished request on `shard`'s ring (single-writer:
    /// the shard's owning thread). Also feeds the per-phase and total
    /// histograms. Zero allocation.
    pub fn record(&self, shard: usize, spans: &RequestSpans) {
        let i = shard % self.shards.len();
        self.shards[i].push(&spans.to_words());
        let tree = spans.to_words();
        let n = (tree[1] >> 48) as usize;
        let mut last = tree[2];
        for &word in tree.iter().take(3 + n.min(PHASES)).skip(3) {
            let tag = (word >> 56) as usize;
            let cum = word & ((1 << 56) - 1);
            if let Some(h) = self.phase_hist[i].get(tag) {
                h.record_us(cum.saturating_sub(last));
            }
            last = cum;
        }
        self.total_hist[i].record_us(spans.total_us());
    }

    /// Decode every intact record across all shards, oldest-first per
    /// shard, then globally ordered by root-span open time.
    pub fn drain(&self) -> Vec<SpanTree> {
        let mut out: Vec<SpanTree> = self
            .shards
            .iter()
            .flat_map(|s| s.drain())
            .filter_map(|w| SpanTree::from_words(&w))
            .collect();
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
        self.shards.iter().map(RingShard::pushed).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceCtx;

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
        // drained record must decode and carry a self-consistent
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
                        "torn record leaked through the seq check: {t:?}"
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

    /// The record the single writer publishes for push number `i`:
    /// every word carries `i + 1`, so an intact drain result is fully
    /// determined by (and checkable against) its position.
    fn record(i: u64) -> [u64; RECORD_WORDS] {
        [i + 1; RECORD_WORDS]
    }

    proptest! {
        /// Quiescent drains through arbitrary push/drain interleavings:
        /// after any prefix of pushes, a drain returns exactly the last
        /// `min(capacity, pushed)` records, oldest first, every word
        /// intact — wraparound loses only lapped history. (Concurrent
        /// torn-read rejection is covered by the threaded stress test
        /// above and exhaustively by `ugpc-analysis::model::seqlock`.)
        #[test]
        fn wraparound_keeps_the_newest_records_in_order(
            capacity in 1usize..9,
            // true = push, false = drain
            ops in proptest::collection::vec(proptest::bool::ANY, 1..60),
        ) {
            let ring = RingShard::new(capacity);
            let mut pushed = 0u64;
            for op in ops {
                if op {
                    ring.push(&record(pushed));
                    pushed += 1;
                } else {
                    let got = ring.drain();
                    let expect = pushed.min(capacity as u64);
                    prop_assert_eq!(got.len() as u64, expect);
                    for (k, words) in got.iter().enumerate() {
                        let index = pushed - expect + k as u64;
                        prop_assert_eq!(words, &record(index));
                    }
                }
            }
            prop_assert_eq!(ring.pushed(), pushed);
        }
    }
}
