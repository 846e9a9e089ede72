//! Deterministic discrete-event queue.
//!
//! The contract is a min-queue over `(time, sequence)`: `f64::total_cmp`
//! on time, then insertion sequence, so ties in virtual time resolve in
//! insertion order and every simulation run is bit-reproducible. The
//! queue is a `BinaryHeap`; a run keeps only about 10² events pending,
//! which is the heap's best regime.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use ugpc_hwsim::Secs;

struct Event<T> {
    time: f64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Event<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<T> Eq for Event<T> {}

impl<T> PartialOrd for Event<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Event<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The event-queue implementation behind [`SimOptions::queue`]. There is
/// one; the type and its [`resolve`](QueueBackend::resolve) exist only
/// because the benchmark's traced replay (`benchmark/src/replay.rs`)
/// names both, and stay until the next change to the benchmark.
///
/// [`SimOptions::queue`]: crate::SimOptions::queue
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueBackend {
    /// The `BinaryHeap` queue.
    #[default]
    Heap,
}

impl QueueBackend {
    /// The backend every queue uses.
    pub fn resolve() -> QueueBackend {
        QueueBackend::Heap
    }
}

/// Min-queue of timed events with FIFO tie-breaking.
///
/// Under the `sanitize` feature, pops on a *monitored* queue assert that
/// virtual time never moves backwards: once an event at time `t` has
/// been popped, pushing and popping an event earlier than `t` is an
/// invariant violation in a discrete-event simulation (the past would
/// be rewritten). The resync-candidate queue in `sim.rs` legitimately
/// pushes into the past (stale candidates are re-checked at pop), so it
/// uses [`EventQueue::unmonitored`].
pub struct EventQueue<T> {
    heap: BinaryHeap<Event<T>>,
    seq: u64,
    #[cfg(feature = "sanitize")]
    monitored: bool,
    #[cfg(feature = "sanitize")]
    last_pop: f64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            #[cfg(feature = "sanitize")]
            monitored: true,
            #[cfg(feature = "sanitize")]
            last_pop: f64::NEG_INFINITY,
        }
    }

    /// A queue whose pops are exempt from the sanitize monotone-time
    /// assertion (for candidate queues that legally push into the past).
    pub fn unmonitored() -> Self {
        #[allow(unused_mut)]
        let mut q = Self::new();
        #[cfg(feature = "sanitize")]
        {
            q.monitored = false;
        }
        q
    }

    /// Empty the queue for reuse, keeping its allocation. Sequence
    /// numbering and the sanitize watermark restart from scratch, so a
    /// reset queue is observationally a fresh one.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.seq = 0;
        #[cfg(feature = "sanitize")]
        {
            self.last_pop = f64::NEG_INFINITY;
        }
    }

    pub fn push(&mut self, time: Secs, payload: T) {
        debug_assert!(time.value().is_finite(), "non-finite event time");
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Event {
            time: time.value(),
            seq,
            payload,
        });
    }

    pub fn pop(&mut self) -> Option<(Secs, T)> {
        let e = self.heap.pop()?;
        #[cfg(feature = "sanitize")]
        self.check_monotone(e.time);
        Some((Secs(e.time), e.payload))
    }

    /// Pop the earliest event and every event at an `==`-equal time in
    /// one pass, appending payloads to `out` in exactly the order
    /// repeated [`pop`](Self::pop) calls would produce. Returns the
    /// first popped event's time (the batch timestamp). Note `-0.0 ==
    /// 0.0`: a mixed batch leads with `-0.0` (the `total_cmp` minimum).
    pub fn pop_all_eq(&mut self, out: &mut Vec<T>) -> Option<Secs> {
        let first = self.heap.pop()?;
        let t = first.time;
        out.push(first.payload);
        while self.heap.peek().is_some_and(|e| e.time == t) {
            out.push(self.heap.pop().expect("peeked event exists").payload);
        }
        #[cfg(feature = "sanitize")]
        self.check_monotone(t);
        Some(Secs(t))
    }

    #[cfg(feature = "sanitize")]
    fn check_monotone(&mut self, t: f64) {
        if !self.monitored {
            return;
        }
        assert!(
            t >= self.last_pop,
            "sanitize: virtual time moved backwards: popped {} after {}",
            t,
            self.last_pop
        );
        self.last_pop = t;
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Secs> {
        self.heap.peek().map(|e| Secs(e.time))
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Secs(3.0), "c");
        q.push(Secs(1.0), "a");
        q.push(Secs(2.0), "b");
        assert_eq!(q.pop(), Some((Secs(1.0), "a")));
        assert_eq!(q.pop(), Some((Secs(2.0), "b")));
        assert_eq!(q.pop(), Some((Secs(3.0), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_resolve_in_insertion_order() {
        let mut q = EventQueue::new();
        q.push(Secs(1.0), 10);
        q.push(Secs(1.0), 20);
        q.push(Secs(1.0), 30);
        assert_eq!(q.pop().unwrap().1, 10);
        assert_eq!(q.pop().unwrap().1, 20);
        assert_eq!(q.pop().unwrap().1, 30);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(Secs(5.0), ());
        assert_eq!(q.peek_time(), Some(Secs(5.0)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn pop_all_eq_drains_one_timestamp() {
        let mut q = EventQueue::new();
        q.push(Secs(2.0), 20);
        q.push(Secs(1.0), 10);
        q.push(Secs(1.0), 11);
        q.push(Secs(3.0), 30);
        q.push(Secs(1.0), 12);
        let mut out = Vec::new();
        assert_eq!(q.pop_all_eq(&mut out), Some(Secs(1.0)));
        assert_eq!(out, vec![10, 11, 12]);
        out.clear();
        assert_eq!(q.pop_all_eq(&mut out), Some(Secs(2.0)));
        assert_eq!(out, vec![20]);
        out.clear();
        assert_eq!(q.pop_all_eq(&mut out), Some(Secs(3.0)));
        assert_eq!(out, vec![30]);
        out.clear();
        assert_eq!(q.pop_all_eq(&mut out), None);
    }

    #[test]
    fn negative_zero_batches_with_positive_zero() {
        // total_cmp orders -0.0 < 0.0 but `==` merges them: the batch
        // leads with -0.0 and contains both, FIFO within each sign.
        let mut q = EventQueue::new();
        q.push(Secs(0.0), 1);
        q.push(Secs(-0.0), 2);
        q.push(Secs(0.0), 3);
        let mut out = Vec::new();
        let t = q.pop_all_eq(&mut out).unwrap();
        assert!(t.value() == 0.0 && t.value().is_sign_negative());
        assert_eq!(out, vec![2, 1, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn reset_restarts_sequence_numbering() {
        // After a reset, equal-time ties order by the new insertion
        // sequence only, as in a fresh queue.
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(Secs(1.0), 1);
        q.push(Secs(1.0), 2);
        q.reset();
        assert!(q.is_empty() && q.peek_time().is_none());
        q.push(Secs(1.0), 7);
        q.push(Secs(1.0), 8);
        assert_eq!(q.pop(), Some((Secs(1.0), 7)));
        assert_eq!(q.pop(), Some((Secs(1.0), 8)));
        assert!(q.pop().is_none());
    }

    // Pushing an event earlier than an already-popped one is legal for
    // the plain queue but an invariant violation under `sanitize` (a
    // simulator rewriting its own past), so the two builds assert
    // opposite outcomes on the same sequence.
    #[test]
    #[cfg(not(feature = "sanitize"))]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(Secs(2.0), 2);
        q.push(Secs(4.0), 4);
        assert_eq!(q.pop().unwrap().1, 2);
        q.push(Secs(1.0), 1);
        q.push(Secs(3.0), 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 4);
    }

    #[test]
    #[cfg(feature = "sanitize")]
    #[should_panic(expected = "virtual time moved backwards")]
    fn sanitize_catches_time_reversal() {
        let mut q = EventQueue::new();
        q.push(Secs(2.0), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        q.push(Secs(1.0), 1);
        let _ = q.pop();
    }

    #[test]
    #[cfg(feature = "sanitize")]
    fn sanitize_allows_monotone_interleaving() {
        let mut q = EventQueue::new();
        q.push(Secs(1.0), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(Secs(1.0), 10); // equal time is fine
        q.push(Secs(2.0), 2);
        assert_eq!(q.pop().unwrap().1, 10);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    #[cfg(feature = "sanitize")]
    fn unmonitored_queue_tolerates_past_pushes() {
        let mut q = EventQueue::unmonitored();
        q.push(Secs(5.0), 5);
        assert_eq!(q.pop().unwrap().1, 5);
        q.push(Secs(1.0), 1); // in the past — fine, unmonitored
        assert_eq!(q.pop().unwrap().1, 1);
    }
}
