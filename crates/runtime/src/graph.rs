//! The task DAG with StarPU-style implicit dependency inference.
//!
//! Tasks are submitted in program order; dependencies are inferred from
//! overlapping data accesses under sequential consistency (StarPU's
//! default): a reader depends on the last writer of each operand (RAW), a
//! writer depends on the last writer (WAW) and on every reader since
//! (WAR). Explicit edges can be added on top.
//!
//! Storage is contiguous: each per-task list — predecessors, successors,
//! distinct operands — is a slice of one array, found through per-task
//! offsets (CSR). `submit` appends the new task's predecessors; the
//! successor lists are derived from them in one counting pass the first
//! time they are read. Building a graph therefore makes a handful of
//! allocations in all, not several per task.

use crate::data::DataId;
use crate::task::{TaskDesc, TaskId};
use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::OnceLock;

/// Per-task lists in one array: `items[offsets[t]..offsets[t + 1]]` is
/// task `t`'s list.
#[derive(Debug, Clone)]
struct Csr {
    offsets: Vec<usize>,
    items: Vec<usize>,
}

impl Default for Csr {
    fn default() -> Self {
        Csr::with_capacity(0, 0)
    }
}

impl Csr {
    fn with_capacity(lists: usize, items: usize) -> Self {
        let mut offsets = Vec::with_capacity(lists + 1);
        offsets.push(0);
        Csr {
            offsets,
            items: Vec::with_capacity(items),
        }
    }

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn get(&self, t: usize) -> &[usize] {
        &self.items[self.offsets[t]..self.offsets[t + 1]]
    }

    /// Append the next task's list.
    fn push(&mut self, list: &[usize]) {
        self.items.extend_from_slice(list);
        self.offsets.push(self.items.len());
    }
}

/// Sorted adjacency lists laid out as a [`Csr`], except that a list an
/// explicit edge has changed moves out of line into `edited`, where it
/// shadows its slot. So an edit costs a lookup and a shift within one
/// list, never a shift of the whole array; and a graph no edge was ever
/// edited in reads its lists straight from the array.
#[derive(Debug, Clone, Default)]
struct Adjacency {
    laid_out: Csr,
    edited: BTreeMap<TaskId, Vec<TaskId>>,
    /// Total length of the lists.
    edges: usize,
}

impl Adjacency {
    fn list(&self, t: TaskId) -> &[TaskId] {
        if !self.edited.is_empty() {
            if let Some(list) = self.edited.get(&t) {
                return list;
            }
        }
        self.laid_out.get(t)
    }

    /// Every list in task order; one pass, with no lookup per task.
    fn lists(&self) -> impl Iterator<Item = &[TaskId]> {
        let mut edited = self.edited.iter().peekable();
        (0..self.laid_out.len()).map(move |t| match edited.next_if(|&(&e, _)| e == t) {
            Some((_, list)) => list,
            None => self.laid_out.get(t),
        })
    }

    fn push(&mut self, list: &[TaskId]) {
        self.laid_out.push(list);
        self.edges += list.len();
    }

    /// Insert `x` into `t`'s list; false if it was there already.
    fn insert(&mut self, t: TaskId, x: TaskId) -> bool {
        let Some((list, Err(at))) = self.edit(t, x, Result::is_err) else {
            return false;
        };
        list.insert(at, x);
        self.edges += 1;
        true
    }

    /// Remove `x` from `t`'s list; false if it was not there.
    fn remove(&mut self, t: TaskId, x: TaskId) -> bool {
        let Some((list, Ok(at))) = self.edit(t, x, Result::is_ok) else {
            return false;
        };
        list.remove(at);
        self.edges -= 1;
        true
    }

    /// `t`'s list with the result of searching it for `x`, when `changes`
    /// accepts that result; the list moves out of line then, on its first
    /// edit. One map lookup either way.
    fn edit(
        &mut self,
        t: TaskId,
        x: TaskId,
        changes: fn(&Result<usize, usize>) -> bool,
    ) -> Option<(&mut Vec<TaskId>, Result<usize, usize>)> {
        let list = match self.edited.entry(t) {
            Entry::Occupied(list) => list.into_mut(),
            Entry::Vacant(slot) => {
                let laid_out = self.laid_out.get(t);
                if !changes(&laid_out.binary_search(&x)) {
                    return None;
                }
                slot.insert(laid_out.to_vec())
            }
        };
        let found = list.binary_search(&x);
        changes(&found).then_some((list, found))
    }

    /// The reverse lists: `s` is in list `t` of the result exactly when
    /// `t` is in list `s` here. Filled in ascending `s`, so each list of
    /// the result is ascending.
    fn transposed(&self) -> Adjacency {
        let n = self.laid_out.len();
        // Count into `offsets[t + 2]`, prefix-sum, then fill with
        // `offsets[t + 1]` as list `t`'s cursor: afterwards it holds the
        // end of list `t`, which is the start of list `t + 1`.
        let mut offsets = vec![0; n + 2];
        for &t in self.lists().flatten() {
            offsets[t + 2] += 1;
        }
        for t in 2..offsets.len() {
            offsets[t] += offsets[t - 1];
        }
        let mut items = vec![0; self.edges];
        for (s, list) in self.lists().enumerate() {
            for &t in list {
                items[offsets[t + 1]] = s;
                offsets[t + 1] += 1;
            }
        }
        offsets.pop();
        Adjacency {
            laid_out: Csr { offsets, items },
            edited: BTreeMap::new(),
            edges: self.edges,
        }
    }
}

/// What `submit` infers the next task's dependencies from.
#[derive(Debug, Clone, Default)]
struct Hazards {
    /// Per datum, indexed by the dense [`DataId`] (grown on demand): its
    /// last writer.
    last_writer: Vec<Option<TaskId>>,
    /// Per datum: one past the index in `reads` of its latest read since
    /// its last write, or 0 when it has none.
    latest_read: Vec<usize>,
    /// `(reader, link)` per read access, where `link` is the same kind of
    /// index as `latest_read` for the datum's read before: each datum's
    /// readers since its last write are a list threaded through here,
    /// newest first.
    reads: Vec<(TaskId, usize)>,
    /// Scratch: the task being submitted's dependencies, then operands.
    scratch: Vec<usize>,
}

/// An immutable-after-build task graph.
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    tasks: Vec<TaskDesc>,
    preds: Adjacency,
    /// Derived from `preds` on first read; `submit` drops it, and edge
    /// edits keep it in step.
    succs: OnceLock<Adjacency>,
    /// Per-task distinct operands, sorted ascending — precomputed once at
    /// submission for the executors' per-occurrence loops.
    unique_data: Csr,
    /// Read only by `submit`; [`Self::seal`] frees it.
    hazards: Hazards,
    /// Set by [`Self::seal`]: `submit` then panics.
    sealed: bool,
}

impl TaskGraph {
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty graph with room for `tasks` tasks and `edges` inferred
    /// dependencies over the handles `0..data`, sized for up to three
    /// operands per task, as the tiled builders submit. A builder that
    /// knows its counts then allocates a fixed handful of times, not per
    /// task.
    pub fn with_capacity(tasks: usize, edges: usize, data: usize) -> Self {
        TaskGraph {
            tasks: Vec::with_capacity(tasks),
            preds: Adjacency {
                laid_out: Csr::with_capacity(tasks, edges),
                edited: BTreeMap::new(),
                edges: 0,
            },
            succs: OnceLock::new(),
            unique_data: Csr::with_capacity(tasks, 3 * tasks),
            hazards: Hazards {
                last_writer: Vec::with_capacity(data),
                latest_read: Vec::with_capacity(data),
                reads: Vec::with_capacity(2 * tasks),
                scratch: Vec::new(),
            },
            sealed: false,
        }
    }

    /// Close the graph to submissions and free what only `submit` reads:
    /// each datum's last writer and its readers since. The tiled builders
    /// seal the graphs they return, so a graph kept for reuse does not
    /// hold that state for life. Explicit edge edits still work.
    pub fn seal(&mut self) {
        self.hazards = Hazards::default();
        self.sealed = true;
    }

    /// Submit a task; dependencies on earlier tasks are inferred from its
    /// data accesses. Returns the new task's id.
    ///
    /// # Panics
    ///
    /// If the graph is [sealed](Self::seal).
    pub fn submit(&mut self, task: TaskDesc) -> TaskId {
        assert!(
            !self.sealed,
            "submit on a sealed task graph: its builder has finished, and \
             the per-datum state that infers dependencies is gone"
        );
        let id = self.tasks.len();
        let h = &mut self.hazards;
        if let Some(max) = task.data.iter().map(|&(d, _)| d).max() {
            if h.last_writer.len() <= max {
                h.last_writer.resize(max + 1, None);
                h.latest_read.resize(max + 1, 0);
            }
        }

        // Collect dependencies first to dedupe before wiring edges.
        let deps = &mut h.scratch;
        deps.clear();
        for &(data, mode) in &task.data {
            // Every access reads (RAW) or writes (WAW) after the last writer.
            deps.extend(h.last_writer[data]);
            if mode.writes() {
                let mut link = h.latest_read[data];
                while link != 0 {
                    let (reader, before) = h.reads[link - 1];
                    deps.push(reader); // WAR
                    link = before;
                }
            }
        }
        deps.sort_unstable();
        deps.dedup();
        debug_assert!(deps.iter().all(|&d| d < id));
        self.preds.push(deps);
        // The new task's predecessors gained a successor.
        self.succs.take();

        // Update per-datum tracking.
        for &(data, mode) in &task.data {
            if mode.writes() {
                h.last_writer[data] = Some(id);
                h.latest_read[data] = 0;
            } else {
                h.reads.push((id, h.latest_read[data]));
                h.latest_read[data] = h.reads.len();
            }
        }

        let unique = &mut h.scratch;
        unique.clear();
        unique.extend(task.data.iter().map(|&(d, _)| d));
        unique.sort_unstable();
        unique.dedup();
        self.unique_data.push(unique);

        self.tasks.push(task);
        id
    }

    /// The task's distinct operands, sorted ascending. Precomputed at
    /// submission: the executors touch this once per task *occurrence*
    /// (memory planning, pin/unpin), which used to re-sort every time.
    pub fn unique_data(&self, id: TaskId) -> &[DataId] {
        self.unique_data.get(id)
    }

    /// Add an explicit edge `from → to` (StarPU tag dependencies).
    ///
    /// Panics on forward edges (`from >= to`): submission order is the
    /// topological order and must stay acyclic by construction.
    ///
    /// Adjacency lists stay sorted ascending, so the duplicate check is a
    /// binary search. The edit touches only the two lists it changes: each
    /// moves out of the contiguous array on its first edit, so no call
    /// shifts the whole array.
    pub fn add_edge(&mut self, from: TaskId, to: TaskId) {
        assert!(
            from < to,
            "explicit edge must follow submission order ({from} -> {to})"
        );
        if self.preds.insert(to, from) {
            if let Some(succs) = self.succs.get_mut() {
                succs.insert(from, to);
            }
        }
    }

    /// Remove the edge `from → to` if present; returns whether it existed.
    ///
    /// This is a fault-injection hook: the graph linter's tests delete
    /// inferred hazard edges and assert the deletion is flagged as a
    /// race. The per-datum submission tracking is deliberately not
    /// rewound — the graph's *declared* accesses still require the
    /// ordering, which is exactly the inconsistency the linter detects.
    pub fn remove_edge(&mut self, from: TaskId, to: TaskId) -> bool {
        if to >= self.len() || !self.preds.remove(to, from) {
            return false;
        }
        if let Some(succs) = self.succs.get_mut() {
            succs.remove(from, to);
        }
        true
    }

    /// The successor lists, derived on first use.
    fn succs(&self) -> &Adjacency {
        self.succs.get_or_init(|| self.preds.transposed())
    }

    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// The task ids in submission order, `0..len()`. Always topological:
    /// inferred and explicit edges both run from an earlier task to a
    /// later one.
    pub fn submission_order(&self) -> Vec<TaskId> {
        (0..self.len()).collect()
    }

    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    pub fn task(&self, id: TaskId) -> &TaskDesc {
        &self.tasks[id]
    }

    pub fn tasks(&self) -> &[TaskDesc] {
        &self.tasks
    }

    pub fn successors(&self, id: TaskId) -> &[TaskId] {
        self.succs().list(id)
    }

    pub fn predecessors(&self, id: TaskId) -> &[TaskId] {
        self.preds.list(id)
    }

    /// In-degree vector (cloned for executor bookkeeping).
    pub fn indegrees(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.indegrees_into(&mut out);
        out
    }

    /// [`indegrees`](Self::indegrees) into a caller-owned buffer
    /// (arena-reuse path: same values, no allocation).
    pub fn indegrees_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.preds.lists().map(<[TaskId]>::len));
    }

    /// Tasks with no predecessors.
    pub fn roots(&self) -> Vec<TaskId> {
        self.preds
            .lists()
            .enumerate()
            .filter_map(|(t, preds)| preds.is_empty().then_some(t))
            .collect()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.preds.edges
    }

    /// Total flops over all tasks.
    pub fn total_flops(&self) -> ugpc_hwsim::Flops {
        self.tasks.iter().map(|t| t.flops()).sum()
    }

    /// Count tasks of one kernel kind.
    pub fn count_kind(&self, kind: crate::task::KernelKind) -> usize {
        self.tasks.iter().filter(|t| t.kind == kind).count()
    }

    /// Length (in tasks) of the longest path — the critical path in task
    /// counts. Computed over the submission order, which is topological.
    pub fn critical_path_len(&self) -> usize {
        self.critical_path().len()
    }

    /// One longest dependency chain, as task ids in dependency order
    /// (each task is a predecessor of the next). Empty for an empty
    /// graph. Ties are broken deterministically toward the smallest task
    /// id, at both the endpoint and every hop, so repeated calls — and
    /// callers on different platforms — agree on which chain is "the"
    /// critical path.
    pub fn critical_path(&self) -> Vec<TaskId> {
        if self.is_empty() {
            return Vec::new();
        }
        // Longest-path DP over submission order (which is topological).
        let mut depth = vec![0usize; self.len()];
        let mut best_pred: Vec<Option<TaskId>> = vec![None; self.len()];
        for id in 0..self.len() {
            // preds are sorted ascending and only strict improvements
            // update, so the deepest smallest-id predecessor wins.
            for &p in self.predecessors(id) {
                if depth[p] + 1 > depth[id] {
                    depth[id] = depth[p] + 1;
                    best_pred[id] = Some(p);
                }
            }
        }
        // Deepest endpoint; first occurrence = smallest id among ties.
        let mut end = 0;
        for id in 1..self.len() {
            if depth[id] > depth[end] {
                end = id;
            }
        }
        let mut path = Vec::with_capacity(depth[end] + 1);
        let mut cur = Some(end);
        while let Some(id) = cur {
            path.push(id);
            cur = best_pred[id];
        }
        path.reverse();
        path
    }
}

/// Run `kernel` on every task of `graph`, one at a time, in `order`.
///
/// This is how the tiled operations' numerics are checked: a missing
/// dependency edge lets some topological order run two conflicting tasks
/// the other way round, so the result must be bit-identical across every
/// order the graph admits. Submission order, `0..graph.len()`, is always
/// one of them.
///
/// Panics before any kernel runs, naming the offending task, unless
/// `order` is a permutation of the graph's tasks in which every task
/// follows all its predecessors. Stops at, and returns, the first error
/// the kernel returns.
pub fn execute_in_order<E>(
    graph: &TaskGraph,
    order: &[TaskId],
    mut kernel: impl FnMut(TaskId) -> Result<(), E>,
) -> Result<(), E> {
    let n = graph.len();
    let mut position = vec![None; n];
    for (at, &task) in order.iter().enumerate() {
        assert!(
            task < n,
            "order names task {task}, but the graph has {n} tasks"
        );
        assert!(
            position[task].replace(at).is_none(),
            "task {task} appears twice in the order"
        );
    }
    if let Some(task) = position.iter().position(Option::is_none) {
        panic!("task {task} is missing from the order");
    }
    for (at, &task) in order.iter().enumerate() {
        for &pred in graph.predecessors(task) {
            assert!(
                position[pred] < Some(at),
                "task {task} is ordered before its predecessor {pred}"
            );
        }
    }
    order.iter().try_for_each(|&task| kernel(task))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{AccessMode, KernelKind};
    use ugpc_hwsim::Precision;

    fn gemm_on(data: &[(DataId, AccessMode)]) -> TaskDesc {
        let mut t = TaskDesc::new(KernelKind::Gemm, Precision::Double, 64);
        for &(d, m) in data {
            t = t.access(d, m);
        }
        t
    }

    #[test]
    #[should_panic(expected = "submit on a sealed task graph")]
    fn submit_after_seal_panics() {
        let mut g = TaskGraph::new();
        let w = g.submit(gemm_on(&[(0, AccessMode::Write)]));
        let r = g.submit(gemm_on(&[(0, AccessMode::Read)]));
        g.seal();
        // Reads and edge edits still work on a sealed graph.
        assert_eq!(g.predecessors(r), &[w]);
        g.add_edge(w, r);
        g.submit(gemm_on(&[(0, AccessMode::Read)]));
    }

    #[test]
    fn raw_dependency() {
        let mut g = TaskGraph::new();
        let w = g.submit(gemm_on(&[(0, AccessMode::Write)]));
        let r = g.submit(gemm_on(&[(0, AccessMode::Read)]));
        assert_eq!(g.predecessors(r), &[w]);
        assert_eq!(g.successors(w), &[r]);
    }

    #[test]
    fn war_dependency() {
        let mut g = TaskGraph::new();
        let r = g.submit(gemm_on(&[(0, AccessMode::Read)]));
        let w = g.submit(gemm_on(&[(0, AccessMode::Write)]));
        assert_eq!(g.predecessors(w), &[r]);
    }

    #[test]
    fn waw_dependency() {
        let mut g = TaskGraph::new();
        let w1 = g.submit(gemm_on(&[(0, AccessMode::Write)]));
        let w2 = g.submit(gemm_on(&[(0, AccessMode::Write)]));
        assert_eq!(g.predecessors(w2), &[w1]);
    }

    #[test]
    fn independent_readers_run_concurrently() {
        let mut g = TaskGraph::new();
        let w = g.submit(gemm_on(&[(0, AccessMode::Write)]));
        let r1 = g.submit(gemm_on(&[(0, AccessMode::Read)]));
        let r2 = g.submit(gemm_on(&[(0, AccessMode::Read)]));
        // Both readers depend only on the writer, not on each other.
        assert_eq!(g.predecessors(r1), &[w]);
        assert_eq!(g.predecessors(r2), &[w]);
        // A subsequent writer depends on both readers (WAR) and w (WAW).
        let w2 = g.submit(gemm_on(&[(0, AccessMode::ReadWrite)]));
        let mut preds = g.predecessors(w2).to_vec();
        preds.sort_unstable();
        assert_eq!(preds, vec![w, r1, r2]);
    }

    #[test]
    fn readwrite_chain_serializes() {
        // A chain of GEMM updates to the same C tile serializes — the
        // GEMM operation's K-chains rely on this.
        let mut g = TaskGraph::new();
        let ids: Vec<_> = (0..5)
            .map(|_| g.submit(gemm_on(&[(7, AccessMode::ReadWrite)])))
            .collect();
        for w in ids.windows(2) {
            assert_eq!(g.predecessors(w[1]), &[w[0]]);
        }
        assert_eq!(g.critical_path_len(), 5);
        assert_eq!(g.critical_path(), ids);
    }

    #[test]
    fn critical_path_is_a_dependency_chain() {
        // Diamond with one long arm: w → a → b → join, w → c → join.
        let mut g = TaskGraph::new();
        let w = g.submit(gemm_on(&[(0, AccessMode::Write), (1, AccessMode::Write)]));
        let a = g.submit(gemm_on(&[(0, AccessMode::ReadWrite)]));
        let b = g.submit(gemm_on(&[(0, AccessMode::ReadWrite)]));
        let _c = g.submit(gemm_on(&[(1, AccessMode::ReadWrite)]));
        let join = g.submit(gemm_on(&[(0, AccessMode::Read), (1, AccessMode::Read)]));
        let path = g.critical_path();
        assert_eq!(path, vec![w, a, b, join]);
        assert_eq!(path.len(), g.critical_path_len());
        for pair in path.windows(2) {
            assert!(
                g.predecessors(pair[1]).contains(&pair[0]),
                "{} must be a predecessor of {}",
                pair[0],
                pair[1]
            );
        }
        assert!(TaskGraph::new().critical_path().is_empty());
    }

    #[test]
    fn disjoint_data_no_edges() {
        let mut g = TaskGraph::new();
        g.submit(gemm_on(&[(0, AccessMode::ReadWrite)]));
        g.submit(gemm_on(&[(1, AccessMode::ReadWrite)]));
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.roots(), vec![0, 1]);
        assert_eq!(g.critical_path_len(), 1);
    }

    #[test]
    fn duplicate_deps_are_merged() {
        let mut g = TaskGraph::new();
        let w = g.submit(gemm_on(&[(0, AccessMode::Write), (1, AccessMode::Write)]));
        // Reads both data written by the same task: one edge, not two.
        let r = g.submit(gemm_on(&[(0, AccessMode::Read), (1, AccessMode::Read)]));
        assert_eq!(g.predecessors(r), &[w]);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn explicit_edges() {
        let mut g = TaskGraph::new();
        let a = g.submit(gemm_on(&[]));
        let b = g.submit(gemm_on(&[]));
        g.add_edge(a, b);
        g.add_edge(a, b); // idempotent
        assert_eq!(g.successors(a), &[b]);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    #[should_panic(expected = "submission order")]
    fn forward_explicit_edge_panics() {
        let mut g = TaskGraph::new();
        let a = g.submit(gemm_on(&[]));
        let b = g.submit(gemm_on(&[]));
        g.add_edge(b, a);
    }

    #[test]
    fn remove_edge_reports_presence() {
        let mut g = TaskGraph::new();
        let w = g.submit(gemm_on(&[(0, AccessMode::Write)]));
        let r = g.submit(gemm_on(&[(0, AccessMode::Read)]));
        assert!(g.remove_edge(w, r));
        assert!(g.successors(w).is_empty());
        assert!(g.predecessors(r).is_empty());
        assert!(!g.remove_edge(w, r)); // already gone
                                       // Re-adding restores it.
        g.add_edge(w, r);
        assert_eq!(g.successors(w), &[r]);
        assert_eq!(g.predecessors(r), &[w]);
    }

    #[test]
    fn adjacency_stays_sorted_under_explicit_edges() {
        let mut g = TaskGraph::new();
        for _ in 0..64 {
            g.submit(gemm_on(&[]));
        }
        // Insert explicit edges out of order, with duplicates.
        for &to in &[40usize, 8, 56, 8, 24, 63, 16, 40] {
            g.add_edge(0, to);
        }
        for &from in &[9usize, 3, 31, 3, 17] {
            g.add_edge(from, 62);
        }
        assert_eq!(g.successors(0), &[8, 16, 24, 40, 56, 63]);
        assert_eq!(g.predecessors(62), &[3, 9, 17, 31]);
    }

    #[test]
    fn dense_explicit_fanout_is_fast() {
        // Bench-sized regression guard for the old O(degree) duplicate
        // scan in add_edge: a hub with tens of thousands of successors
        // was quadratic (~1e9 comparisons here); with sorted adjacency
        // and binary search it completes instantly even in debug builds.
        const N: usize = 30_000;
        let mut g = TaskGraph::new();
        for _ in 0..N {
            g.submit(gemm_on(&[]));
        }
        for to in 1..N {
            g.add_edge(0, to);
        }
        // Duplicate pass over the full fan-out is pure binary search.
        for to in 1..N {
            g.add_edge(0, to);
        }
        assert_eq!(g.successors(0).len(), N - 1);
        assert_eq!(g.edge_count(), N - 1);
        assert!(g.successors(0).windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn unique_data_is_sorted_and_deduped() {
        let mut g = TaskGraph::new();
        let t = g.submit(gemm_on(&[
            (7, AccessMode::Read),
            (3, AccessMode::Write),
            (7, AccessMode::ReadWrite),
            (1, AccessMode::Read),
        ]));
        assert_eq!(g.unique_data(t), &[1, 3, 7]);
        let empty = g.submit(gemm_on(&[]));
        assert!(g.unique_data(empty).is_empty());
    }

    /// 0 → {1, 2} → 3 through data dependencies.
    fn diamond() -> TaskGraph {
        let mut g = TaskGraph::new();
        g.submit(gemm_on(&[(0, AccessMode::Write)]));
        g.submit(gemm_on(&[(0, AccessMode::Read), (1, AccessMode::Write)]));
        g.submit(gemm_on(&[(0, AccessMode::Read), (2, AccessMode::Write)]));
        g.submit(gemm_on(&[(1, AccessMode::Read), (2, AccessMode::Read)]));
        g
    }

    fn run(g: &TaskGraph, order: &[TaskId]) -> Vec<TaskId> {
        let mut ran = Vec::new();
        execute_in_order(g, order, |t| {
            ran.push(t);
            Ok::<(), ()>(())
        })
        .unwrap();
        ran
    }

    #[test]
    fn executes_every_topological_order_as_given() {
        let g = diamond();
        assert_eq!(run(&g, &g.submission_order()), [0, 1, 2, 3]);
        assert_eq!(run(&g, &[0, 2, 1, 3]), [0, 2, 1, 3]);
        assert!(run(&TaskGraph::new(), &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "task 3 is ordered before its predecessor 2")]
    fn task_before_its_predecessor_panics() {
        run(&diamond(), &[0, 1, 3, 2]);
    }

    #[test]
    #[should_panic(expected = "task 1 appears twice in the order")]
    fn duplicate_task_panics() {
        run(&diamond(), &[0, 1, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "task 2 is missing from the order")]
    fn missing_task_panics() {
        run(&diamond(), &[0, 1, 3]);
    }

    #[test]
    #[should_panic(expected = "order names task 4, but the graph has 4 tasks")]
    fn unknown_task_panics() {
        run(&diamond(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn kernel_error_stops_the_run() {
        let g = diamond();
        let mut ran = Vec::new();
        let result = execute_in_order(&g, &[0, 2, 1, 3], |t| {
            ran.push(t);
            if t == 2 {
                Err(t)
            } else {
                Ok(())
            }
        });
        assert_eq!(result, Err(2));
        assert_eq!(ran, [0, 2]);
    }

    #[test]
    fn indegrees_match_preds() {
        let mut g = TaskGraph::new();
        let w = g.submit(gemm_on(&[(0, AccessMode::Write)]));
        let _r1 = g.submit(gemm_on(&[(0, AccessMode::Read)]));
        let _r2 = g.submit(gemm_on(&[(0, AccessMode::Read)]));
        assert_eq!(g.indegrees(), vec![0, 1, 1]);
        assert_eq!(g.roots(), vec![w]);
    }
}
