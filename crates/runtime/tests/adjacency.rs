//! The graph's contiguous adjacency against a naive model.
//!
//! `TaskGraph` lays its lists out in shared arrays, derives successors
//! from predecessors on first read and moves a list out of line when an
//! explicit edge edits it. The model here keeps one `Vec` per task and
//! direction and infers dependencies the plain way. Random graphs are
//! submitted, then edited by random `add_edge` / `remove_edge` calls —
//! duplicates, removals of inferred edges, removals of absent edges —
//! interleaved with reads of the successors and with further submissions,
//! and every observable list and count must agree with the model.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use ugpc_hwsim::Precision;
use ugpc_runtime::{AccessMode, KernelKind, TaskDesc, TaskGraph, TaskId};

const POOL: usize = 6;

fn mode(code: usize) -> AccessMode {
    match code % 3 {
        0 => AccessMode::Read,
        1 => AccessMode::Write,
        _ => AccessMode::ReadWrite,
    }
}

/// Up to five operands, past the three a task stores inline.
fn task(accesses: &[(usize, usize)]) -> TaskDesc {
    accesses.iter().fold(
        TaskDesc::new(KernelKind::Gemm, Precision::Double, 8),
        |t, &(d, m)| t.access(d, mode(m)),
    )
}

/// One `Vec` per task and direction; dependencies inferred per datum.
#[derive(Default)]
struct Model {
    preds: Vec<Vec<TaskId>>,
    succs: Vec<Vec<TaskId>>,
    last_writer: Vec<Option<TaskId>>,
    readers: Vec<Vec<TaskId>>,
}

impl Model {
    fn submit(&mut self, accesses: &[(usize, usize)]) {
        let id = self.preds.len();
        self.last_writer.resize(POOL, None);
        self.readers.resize(POOL, Vec::new());
        let mut deps = Vec::new();
        for &(d, m) in accesses {
            let m = mode(m);
            if m.reads() {
                deps.extend(self.last_writer[d]);
            }
            if m.writes() {
                deps.extend(self.last_writer[d]);
                deps.extend(self.readers[d].iter().copied());
            }
        }
        for &(d, m) in accesses {
            if mode(m).writes() {
                self.last_writer[d] = Some(id);
                self.readers[d].clear();
            } else {
                self.readers[d].push(id);
            }
        }
        deps.sort_unstable();
        deps.dedup();
        self.preds.push(Vec::new());
        self.succs.push(Vec::new());
        for d in deps {
            self.add(d, id);
        }
    }

    fn add(&mut self, from: TaskId, to: TaskId) {
        if !self.succs[from].contains(&to) {
            self.succs[from].push(to);
            self.succs[from].sort_unstable();
            self.preds[to].push(from);
            self.preds[to].sort_unstable();
        }
    }

    fn remove(&mut self, from: TaskId, to: TaskId) -> bool {
        let present = self.succs[from].contains(&to);
        self.succs[from].retain(|&s| s != to);
        self.preds[to].retain(|&p| p != from);
        present
    }

    fn edges(&self) -> Vec<(TaskId, TaskId)> {
        (0..self.succs.len())
            .flat_map(|u| self.succs[u].iter().map(move |&v| (u, v)))
            .collect()
    }

    /// Longest chain; ties toward the smallest id at the end and at
    /// every hop.
    fn critical_path(&self) -> Vec<TaskId> {
        let n = self.preds.len();
        if n == 0 {
            return Vec::new();
        }
        let mut depth = vec![1usize; n];
        for t in 0..n {
            for &p in &self.preds[t] {
                depth[t] = depth[t].max(depth[p] + 1);
            }
        }
        let longest = depth.iter().copied().max().expect("n > 0");
        let mut t = depth.iter().position(|&d| d == longest).expect("a max");
        let mut path = vec![t];
        while depth[t] > 1 {
            t = *self.preds[t]
                .iter()
                .find(|&&p| depth[p] + 1 == depth[t])
                .expect("a deeper task has a predecessor one less deep");
            path.push(t);
        }
        path.reverse();
        path
    }
}

fn agree(g: &TaskGraph, m: &Model) -> Result<(), TestCaseError> {
    let n = m.preds.len();
    prop_assert_eq!(g.len(), n);
    for t in 0..n {
        let (preds, succs) = (g.predecessors(t), g.successors(t));
        prop_assert!(preds.windows(2).all(|w| w[0] < w[1]), "preds {t}");
        prop_assert!(succs.windows(2).all(|w| w[0] < w[1]), "succs {t}");
        prop_assert_eq!(
            preds,
            &m.preds[t][..],
            "preds {t}: {preds:?}, model {:?}",
            m.preds[t]
        );
        prop_assert_eq!(
            succs,
            &m.succs[t][..],
            "succs {t}: {succs:?}, model {:?}",
            m.succs[t]
        );
        for &p in preds {
            prop_assert!(g.successors(p).contains(&t), "{p} -> {t} one-sided");
        }
    }
    prop_assert_eq!(g.edge_count(), m.edges().len());
    let mut indegrees = vec![usize::MAX; 3];
    g.indegrees_into(&mut indegrees);
    let expected: Vec<usize> = m.preds.iter().map(Vec::len).collect();
    prop_assert_eq!(&indegrees, &expected);
    prop_assert_eq!(g.indegrees(), expected);
    let roots: Vec<TaskId> = (0..n).filter(|&t| m.preds[t].is_empty()).collect();
    prop_assert_eq!(g.roots(), roots);
    prop_assert_eq!(g.critical_path(), m.critical_path());
    Ok(())
}

proptest! {
    #[test]
    fn edited_graphs_match_the_naive_model(
        tasks in vec(vec((0usize..POOL, 0usize..3), 0..6), 1..30),
        edits in vec((0usize..5, 0usize..10_000, 0usize..10_000), 0..40),
        late in vec((0usize..POOL, 0usize..3), 0..6),
    ) {
        let mut g = TaskGraph::new();
        let mut m = Model::default();
        for accesses in &tasks {
            g.submit(task(accesses));
            m.submit(accesses);
        }
        for &(kind, a, b) in &edits {
            let n = m.preds.len();
            match kind {
                // An edge from an earlier to a later task, often already there.
                0 | 1 if n >= 2 => {
                    let to = 1 + b % (n - 1);
                    let from = a % to;
                    g.add_edge(from, to);
                    m.add(from, to);
                }
                // Remove an edge that exists, inferred or explicit.
                2 => {
                    let edges = m.edges();
                    if !edges.is_empty() {
                        let (from, to) = edges[a % edges.len()];
                        prop_assert!(g.remove_edge(from, to));
                        prop_assert!(m.remove(from, to));
                        prop_assert!(!g.remove_edge(from, to));
                    }
                }
                // Remove any pair, present or not, in either order.
                3 => {
                    let (from, to) = (a % n, b % n);
                    prop_assert_eq!(g.remove_edge(from, to), m.remove(from, to));
                }
                // Read every list, which derives the successors mid-sequence.
                _ => agree(&g, &m)?,
            }
        }
        agree(&g, &m)?;
        // A submission after edits infers from the declared accesses.
        g.submit(task(&late));
        m.submit(&late);
        agree(&g, &m)?;
    }
}

#[test]
fn removing_an_edge_to_an_unknown_task_reports_absence() {
    let mut g = TaskGraph::new();
    g.submit(task(&[(0, 1)]));
    assert!(!g.remove_edge(0, 5));
}
