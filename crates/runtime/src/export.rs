//! Trace export in the Chrome trace-event format (`chrome://tracing`,
//! Perfetto) — the simulator's counterpart to StarPU's FxT/Paje traces.
//!
//! [`PerfettoSink`] is an [`Observer`]: attached to a run it streams the
//! event pipeline straight into trace-event JSON — worker lanes for
//! tasks, one lane per DMA engine for transfers and writebacks, an
//! instant-event lane per GPU for evictions, and counter tracks for the
//! power samples. The output opens directly in `ui.perfetto.dev`.

use crate::data::MemNode;
use crate::observer::{ExecEvent, Observer, RunContext};
use crate::worker::Worker;
use std::fmt::Write as _;

/// Escape a string into `out` as JSON string content (the subset we
/// emit: names are ASCII identifiers, but be safe anyway). One output
/// buffer, no per-character allocation.
fn esc_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Streaming Chrome trace-event / Perfetto sink over the executor event
/// stream.
///
/// Lane (`tid`) layout, with `W` workers and `G` GPUs:
/// worker `w` → `w`; GPU `g`'s h2d engine → `W + 2g`, d2h engine →
/// `W + 2g + 1`; GPU `g`'s memory-event lane → `W + 2G + g`. Engine and
/// memory lanes are named lazily, so a task-only trace carries exactly
/// one metadata record per worker.
#[derive(Debug)]
pub struct PerfettoSink {
    out: String,
    /// Whether any non-metadata event has been written (comma control).
    first: bool,
    n_workers: usize,
    n_gpus: usize,
    named_lanes: Vec<bool>,
    /// Optional (trace_id, span_id) hex pair stamped into the document
    /// as a process metadata record — set by services so an exported
    /// trace is joinable with their request logs.
    trace_ids: Option<(String, String)>,
}

impl Default for PerfettoSink {
    fn default() -> Self {
        Self::new()
    }
}

impl PerfettoSink {
    pub fn new() -> Self {
        PerfettoSink {
            out: String::new(),
            first: true,
            n_workers: 0,
            n_gpus: 0,
            named_lanes: Vec::new(),
            trace_ids: None,
        }
    }

    /// Stamp the export with a request's trace context (plain hex
    /// strings — the runtime stays agnostic of the id scheme). Must be
    /// set before the run starts; `begin` resets the output buffer, so a
    /// later call only affects the next run.
    pub fn set_trace_ids(&mut self, trace_id: &str, span_id: &str) {
        self.trace_ids = Some((trace_id.to_string(), span_id.to_string()));
    }

    /// Open the document and name the worker lanes (at `on_start`).
    fn begin(&mut self, workers: &[Worker], n_gpus: usize) {
        self.out = String::from("{\"traceEvents\":[\n");
        self.first = true;
        self.n_workers = workers.len();
        self.n_gpus = n_gpus;
        self.named_lanes = vec![false; workers.len() + 3 * n_gpus];
        if let Some((trace_id, span_id)) = self.trace_ids.clone() {
            self.sep();
            let _ = write!(
                self.out,
                "{{\"name\":\"trace_context\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"trace_id\":\""
            );
            esc_into(&mut self.out, &trace_id);
            self.out.push_str("\",\"span_id\":\"");
            esc_into(&mut self.out, &span_id);
            self.out.push_str("\"}}");
        }
        for w in workers {
            self.name_lane(w.id, &w.short_name());
        }
    }

    fn sep(&mut self) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
    }

    fn name_lane(&mut self, tid: usize, name: &str) {
        self.sep();
        let _ = write!(
            self.out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\""
        );
        esc_into(&mut self.out, name);
        self.out.push_str("\"}}");
        if let Some(named) = self.named_lanes.get_mut(tid) {
            *named = true;
        }
    }

    /// DMA-engine lane for one endpoint pair, named on first use.
    fn engine_lane(&mut self, src: MemNode, dst: MemNode) -> usize {
        let (tid, name) = match (src, dst) {
            (_, MemNode::Gpu(g)) => (self.n_workers + 2 * g, format!("h2d{g}")),
            (MemNode::Gpu(g), _) => (self.n_workers + 2 * g + 1, format!("d2h{g}")),
            (MemNode::Host, MemNode::Host) => (self.n_workers, "host".to_string()),
        };
        if !self.named_lanes.get(tid).copied().unwrap_or(true) {
            self.name_lane(tid, &name);
        }
        tid
    }

    fn mem_lane(&mut self, device: usize) -> usize {
        let tid = self.n_workers + 2 * self.n_gpus + device;
        if !self.named_lanes.get(tid).copied().unwrap_or(true) {
            self.name_lane(tid, &format!("mem{device}"));
        }
        tid
    }

    /// A complete (`"X"`) event. Timestamps in µs, like the format wants.
    fn complete(
        &mut self,
        name: &str,
        cat: &str,
        tid: usize,
        start_s: f64,
        dur_s: f64,
        args: &str,
    ) {
        self.sep();
        let _ = write!(self.out, "{{\"name\":\"");
        esc_into(&mut self.out, name);
        let _ = write!(
            self.out,
            "\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{}}}}}",
            cat,
            tid,
            start_s * 1e6,
            dur_s * 1e6,
            args,
        );
    }

    /// The finished JSON document.
    pub fn into_json(mut self) -> String {
        if self.out.is_empty() {
            // Never attached to a run: an empty, still-valid document.
            self.out = String::from("{\"traceEvents\":[\n");
        }
        self.out.push_str("\n]}\n");
        self.out
    }
}

impl Observer for PerfettoSink {
    fn on_start(&mut self, ctx: &RunContext<'_>) {
        let n_gpus = ctx.gpu_idle.len();
        self.begin(ctx.workers, n_gpus);
    }

    fn on_event(&mut self, event: &ExecEvent) {
        match *event {
            ExecEvent::TaskEnd {
                task,
                worker,
                start,
                end,
                kind,
                precision,
                nb,
                priority,
                ..
            } => {
                let args = format!("\"task\":{task},\"nb\":{nb},\"priority\":{priority}");
                self.complete(
                    kind.name(),
                    precision.short(),
                    worker,
                    start.value(),
                    (end - start).value(),
                    &args,
                );
            }
            ExecEvent::TransferEnd {
                data,
                src,
                dst,
                bytes,
                start,
                end,
            } => {
                let lane = self.engine_lane(src, dst);
                let name = match (src, dst) {
                    (MemNode::Host, MemNode::Gpu(_)) => "h2d",
                    (MemNode::Gpu(_), MemNode::Host) => "d2h",
                    (MemNode::Gpu(_), MemNode::Gpu(_)) => "d2d",
                    (MemNode::Host, MemNode::Host) => "host",
                };
                let args = format!("\"data\":{data},\"bytes\":{}", bytes.value());
                self.complete(
                    name,
                    "dma",
                    lane,
                    start.value(),
                    (end - start).value(),
                    &args,
                );
            }
            ExecEvent::Writeback {
                data,
                device,
                bytes,
                start,
                end,
            } => {
                let lane = self.engine_lane(MemNode::Gpu(device), MemNode::Host);
                let args = format!("\"data\":{data},\"bytes\":{}", bytes.value());
                self.complete(
                    "writeback",
                    "dma",
                    lane,
                    start.value(),
                    (end - start).value(),
                    &args,
                );
            }
            ExecEvent::Eviction { data, device, at } => {
                let lane = self.mem_lane(device);
                self.sep();
                let _ = write!(
                    self.out,
                    "{{\"name\":\"evict\",\"cat\":\"mem\",\"ph\":\"i\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"s\":\"t\",\"args\":{{\"data\":{}}}}}",
                    lane,
                    at.value() * 1e6,
                    data,
                );
            }
            ExecEvent::PowerSample {
                worker,
                start,
                end,
                power,
            } => {
                // A counter track per worker: device power while the task
                // runs, back to zero at its end.
                for (ts, w) in [(start, power.value()), (end, 0.0)] {
                    self.sep();
                    let _ = write!(
                        self.out,
                        "{{\"name\":\"power_w{}\",\"ph\":\"C\",\"pid\":1,\"ts\":{:.3},\"args\":{{\"watts\":{}}}}}",
                        worker,
                        ts.value() * 1e6,
                        w,
                    );
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::DataRegistry;
    use crate::graph::TaskGraph;
    use crate::observer::StatsCollector;
    use crate::sim::{simulate_observed, SimOptions};
    use crate::task::{AccessMode, KernelKind, TaskDesc};
    use crate::PerfModel;
    use ugpc_hwsim::{Bytes, Node, PlatformId, Precision};

    fn esc(s: &str) -> String {
        let mut out = String::new();
        esc_into(&mut out, s);
        out
    }

    /// Stream a run of `tasks` read-write GEMMs on one tile through `sink`.
    fn export(tasks: usize, mut sink: PerfettoSink) -> String {
        let mut node = Node::new(PlatformId::Intel2V100);
        let mut data = DataRegistry::new();
        let mut g = TaskGraph::new();
        let t = data.register(Bytes(8.0 * 960.0 * 960.0));
        for _ in 0..tasks {
            g.submit(
                TaskDesc::new(KernelKind::Gemm, Precision::Double, 960)
                    .access(t, AccessMode::ReadWrite),
            );
        }
        simulate_observed(
            &mut node,
            &g,
            &mut data,
            SimOptions::default(),
            &mut PerfModel::new(),
            &mut [&mut sink],
        );
        sink.into_json()
    }

    #[test]
    fn exports_valid_json_shape() {
        let json = export(3, PerfettoSink::new());
        let workers = crate::worker::build_workers(Node::new(PlatformId::Intel2V100).spec()).0;
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        // One task event per task; every worker lane is named.
        assert_eq!(json.matches("\"cat\":\"dp\",\"ph\":\"X\"").count(), 3);
        assert!(json.matches("\"name\":\"thread_name\"").count() >= workers.len());
        assert!(json.contains("\"name\":\"gemm\""));
        // Balanced braces — a cheap well-formedness smoke check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn empty_graph_exports_empty_trace() {
        let json = export(0, PerfettoSink::new());
        assert!(json.contains("traceEvents"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 0);
        // A sink never attached to a run is still a valid document.
        assert_eq!(
            PerfettoSink::new().into_json(),
            "{\"traceEvents\":[\n\n]}\n"
        );
    }

    #[test]
    fn streaming_sink_gains_transfer_and_eviction_lanes() {
        let mut node = Node::new(PlatformId::Amd4A100);
        let mut data = DataRegistry::new();
        let mut g = TaskGraph::new();
        for _ in 0..4 {
            let t = data.register(Bytes(8.0 * 2880.0 * 2880.0));
            for _ in 0..2 {
                g.submit(
                    TaskDesc::new(KernelKind::Gemm, Precision::Double, 2880)
                        .access(t, AccessMode::ReadWrite),
                );
            }
        }
        let mut sink = PerfettoSink::new();
        let mut stats = StatsCollector::new();
        let mut perf = PerfModel::new();
        {
            let mut obs: [&mut dyn Observer; 2] = [&mut sink, &mut stats];
            simulate_observed(
                &mut node,
                &g,
                &mut data,
                SimOptions::default(),
                &mut perf,
                &mut obs,
            );
        }
        let json = sink.into_json();
        let stats = stats.into_stats();
        assert!(stats.transfers > 0, "workload fetches tiles");
        // Task + transfer complete events all present.
        assert_eq!(
            json.matches("\"ph\":\"X\"").count(),
            stats.tasks + stats.transfers + stats.writebacks
        );
        // DMA lanes got named.
        assert!(json.contains("\"name\":\"h2d0\""));
        assert!(json.contains("\"cat\":\"dma\""));
        // Power counter tracks: two samples (start, end) per task.
        assert_eq!(json.matches("\"ph\":\"C\"").count(), stats.tasks * 2);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn trace_ids_are_stamped_as_metadata() {
        let mut sink = PerfettoSink::new();
        sink.set_trace_ids("00deadbeef01", "00cafef00d02");
        let json = export(3, sink);
        assert!(json.contains("\"name\":\"trace_context\""));
        assert!(json.contains("\"trace_id\":\"00deadbeef01\""));
        assert!(json.contains("\"span_id\":\"00cafef00d02\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Unstamped sinks carry no trace_context record.
        assert!(!export(3, PerfettoSink::new()).contains("trace_context"));
    }

    #[test]
    fn escaping() {
        assert_eq!(esc("plain"), "plain");
        assert_eq!(esc("a\"b"), "a\\\"b");
        assert_eq!(esc("a\\b"), "a\\\\b");
        assert_eq!(esc("a\nb"), "a\\u000ab");
    }
}
