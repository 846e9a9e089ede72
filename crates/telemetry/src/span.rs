//! Request spans: per-phase timing of one served request, parented
//! under the PR-5 [`TraceCtx`].
//!
//! A [`RequestSpans`] is a tiny fixed-size builder the hot path carries
//! through the request's life: the event loop opens it when the first
//! byte of a request line is taken off the socket, and every layer that
//! finishes a phase calls [`RequestSpans::mark`] with the recorder's
//! monotonic clock. Marks are *cumulative* microsecond checkpoints since
//! the recorder epoch, so phase durations are first differences and the
//! per-phase durations **telescope**: they sum to the root span's total
//! exactly, by integer arithmetic, not by luck. That exactness is what
//! lets `Introspect` cross-check a span tree against its own phase
//! decomposition.
//!
//! The builder is `Copy` and heap-free (a handful of words), so the
//! flight recorder's ring stores it by value — zero allocation on the
//! hot path.
//!
//! The phase taxonomy covers the whole serve pipeline:
//! accept → shard inbox wait → parse → cache lookup → single-flight wait
//! → pool queue wait → simulation → serialize → write(+backpressure).
//! A request only marks the phases it actually passed through (a cache
//! hit has no `Simulate`), and marks are strictly append-ordered.

use crate::trace::TraceCtx;

/// One phase of a request's life. The discriminants are pipeline order
/// and index the recorder's per-phase histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Connection accepted / request picked up by the owning shard.
    Accept = 0,
    /// Time a freshly accepted connection waited in the shard inbox.
    InboxWait = 1,
    /// Wire-line decode and validation.
    Parse = 2,
    /// Result-cache probe (`begin`): hit/lead/wait classification.
    CacheLookup = 3,
    /// Parked behind another request's in-flight computation.
    FlightWait = 4,
    /// Queued on the worker pool, waiting for a worker.
    QueueWait = 5,
    /// The simulation itself.
    Simulate = 6,
    /// Response serialization.
    Serialize = 7,
    /// Completion routing and socket write (incl. backpressure time).
    Write = 8,
}

/// Number of distinct phases (and the max marks one request can carry).
pub const PHASES: usize = 9;

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; PHASES] = [
        Phase::Accept,
        Phase::InboxWait,
        Phase::Parse,
        Phase::CacheLookup,
        Phase::FlightWait,
        Phase::QueueWait,
        Phase::Simulate,
        Phase::Serialize,
        Phase::Write,
    ];

    /// Stable snake_case name (wire and exposition form).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Accept => "accept",
            Phase::InboxWait => "inbox_wait",
            Phase::Parse => "parse",
            Phase::CacheLookup => "cache_lookup",
            Phase::FlightWait => "flight_wait",
            Phase::QueueWait => "queue_wait",
            Phase::Simulate => "simulate",
            Phase::Serialize => "serialize",
            Phase::Write => "write",
        }
    }
}

/// The per-request span builder. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSpans {
    trace_id: u64,
    span_id: u64,
    shard: u16,
    /// Cumulative µs since the recorder epoch when the root span opened.
    start_us: u64,
    /// Number of marks taken so far.
    n: u8,
    /// `(phase, cumulative µs at phase end)`, append-ordered.
    marks: [(Phase, u64); PHASES],
}

impl RequestSpans {
    /// Open the root span at `now_us` (the recorder clock).
    pub fn begin(ctx: TraceCtx, shard: usize, now_us: u64) -> RequestSpans {
        RequestSpans {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            shard: (shard & 0xffff) as u16,
            start_us: now_us,
            n: 0,
            marks: [(Phase::Accept, 0); PHASES],
        }
    }

    /// Close `phase` at cumulative clock `now_us`. The phase's duration
    /// is `now_us` minus the previous checkpoint (or the root open), so
    /// durations telescope to the total exactly. Marks beyond one per
    /// phase slot are dropped (cannot happen in the serve pipeline) and
    /// a non-monotone clock is clamped to the previous checkpoint.
    pub fn mark(&mut self, phase: Phase, now_us: u64) {
        if (self.n as usize) < PHASES {
            let floor = self.last_us();
            self.marks[self.n as usize] = (phase, now_us.max(floor));
            self.n += 1;
        }
    }

    /// Replace the identity after a late adopt (the client-supplied
    /// trace context is only known once the line parses).
    pub fn set_trace(&mut self, ctx: TraceCtx) {
        self.trace_id = ctx.trace_id;
        self.span_id = ctx.span_id;
    }

    /// Cumulative clock at the most recent checkpoint (or the open).
    pub fn last_us(&self) -> u64 {
        if self.n == 0 {
            self.start_us
        } else {
            self.marks[self.n as usize - 1].1
        }
    }

    /// Total root-span duration so far: last checkpoint − open.
    pub fn total_us(&self) -> u64 {
        self.last_us() - self.start_us
    }

    /// `(phase, duration µs)` for every mark, in append order: first
    /// differences of the checkpoints, so they sum to
    /// [`RequestSpans::total_us`] exactly.
    pub fn phases(&self) -> impl Iterator<Item = (Phase, u64)> + '_ {
        let mut last = self.start_us;
        self.marks[..self.n as usize]
            .iter()
            .map(move |&(phase, cum)| {
                let duration = cum - last;
                last = cum;
                (phase, duration)
            })
    }
}

/// One span record, as drained from the flight recorder: the root span
/// plus its telescoped child phases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTree {
    pub trace_id: u64,
    pub span_id: u64,
    pub shard: u16,
    /// Root-span open, in µs since the recorder epoch.
    pub start_us: u64,
    /// `(phase, duration µs)` in pipeline order; durations sum to
    /// [`SpanTree::total_us`] exactly.
    pub phases: Vec<(Phase, u64)>,
}

impl From<&RequestSpans> for SpanTree {
    fn from(spans: &RequestSpans) -> SpanTree {
        SpanTree {
            trace_id: spans.trace_id,
            span_id: spans.span_id,
            shard: spans.shard,
            start_us: spans.start_us,
            phases: spans.phases().collect(),
        }
    }
}

impl SpanTree {
    /// Total root-span duration: the exact sum of the phase durations.
    pub fn total_us(&self) -> u64 {
        self.phases.iter().map(|&(_, d)| d).sum()
    }

    /// Canonical hex trace id (matches [`TraceCtx::trace_hex`]).
    pub fn trace_hex(&self) -> String {
        format!("{:012x}", self.trace_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> TraceCtx {
        TraceCtx {
            trace_id: 0xabc,
            span_id: 0xdef,
        }
    }

    #[test]
    fn phase_indices_follow_pipeline_order() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i, "{p:?} indexes its histogram");
        }
        assert_eq!(Phase::Accept.name(), "accept");
        assert_eq!(Phase::Write.name(), "write");
    }

    #[test]
    fn durations_telescope_to_the_total_exactly() {
        let mut s = RequestSpans::begin(ctx(), 3, 100);
        s.mark(Phase::Parse, 107);
        s.mark(Phase::CacheLookup, 107); // zero-length phase is legal
        s.mark(Phase::Simulate, 1_000_000);
        s.mark(Phase::Write, 1_000_400);
        assert_eq!(s.total_us(), 1_000_300);
        let tree = SpanTree::from(&s);
        assert_eq!(tree.trace_id, 0xabc);
        assert_eq!(tree.span_id, 0xdef);
        assert_eq!(tree.shard, 3);
        assert_eq!(tree.start_us, 100);
        assert_eq!(
            tree.phases,
            vec![
                (Phase::Parse, 7),
                (Phase::CacheLookup, 0),
                (Phase::Simulate, 999_893),
                (Phase::Write, 400),
            ]
        );
        // The acceptance property: phase durations sum to the root
        // total exactly, as integers.
        assert_eq!(tree.total_us(), s.total_us());
        assert_eq!(
            tree.phases.iter().map(|&(_, d)| d).sum::<u64>(),
            tree.total_us()
        );
    }

    #[test]
    fn non_monotone_clock_clamps_instead_of_underflowing() {
        let mut s = RequestSpans::begin(ctx(), 0, 500);
        s.mark(Phase::Parse, 400); // clock went "backwards"
        assert_eq!(s.total_us(), 0);
        let tree = SpanTree::from(&s);
        assert_eq!(tree.phases, vec![(Phase::Parse, 0)]);
    }

    #[test]
    fn late_trace_adoption_rewrites_identity_only() {
        let mut s = RequestSpans::begin(ctx(), 1, 0);
        s.mark(Phase::Parse, 3);
        s.set_trace(TraceCtx {
            trace_id: 0x123,
            span_id: 0x456,
        });
        let tree = SpanTree::from(&s);
        assert_eq!(tree.trace_id, 0x123);
        assert_eq!(tree.phases, vec![(Phase::Parse, 3)]);
    }
}
