//! Executor differential: the virtual-time simulator and the serial
//! `execute_in_order` run the same task graphs, and the tiled operations
//! compute the same bits in every topological order of those graphs.
//!
//! Every RAW, WAW and WAR hazard between two tasks is an edge, so in any
//! order the graph admits each tile goes through the same sequence of
//! updates, and the result must be bit-identical to submission order.
//! The orders checked are [`K`] seeded random topological orders and the
//! order in which the simulator starts the tasks of the same `nt` at the
//! paper's tile size, on two platforms. The graph structure depends only
//! on `nt`, so the simulated order runs on small tiles.
//!
//! A residual bound alone cannot see every missing edge: two updates of
//! one tile in swapped order differ only by rounding. The mutation test
//! deletes each edge of a POTRF graph in turn and requires some order to
//! change the bits.
//!
//! Both executors are checked against the same edges: in the simulator's
//! virtual-time schedule no task starts before each of its predecessors
//! ends, and `execute_in_order` refuses, before any kernel runs, an
//! order that puts a task before one of its predecessors.

#![allow(clippy::unwrap_used)]

mod common;

use common::{dispatch_order, random_topological_order};
use ugpc_hwsim::{PlatformId, Precision, Secs};
use ugpc_linalg::ops::{
    build_gemm, build_getrf, build_posv, build_potrf, run_gemm_native, run_getrf_native,
    run_posv_native, run_potrf_native, PotrfOp,
};
use ugpc_linalg::{
    dd_tiled, gemm_residual, potrf_residual, random_tiled, spd_tiled, Scalar, TiledMatrix,
};
use ugpc_runtime::{DataRegistry, EventLog, ExecEvent, TaskGraph, TaskId};

/// Tiles per side. At 10 the simulated dispatch order of every operation
/// departs from submission order on both platforms.
const NT: usize = 10;
const NB: usize = 8;
/// The paper's tile size, for the simulated dispatch orders.
const PAPER_NB: usize = 2880;
/// Seeded random topological orders per check. In the mutation test the
/// last of the 30 edge deletions is first caught by seed 10, so 16
/// leaves a margin.
const K: u64 = 16;
const PLATFORMS: [PlatformId; 2] = [PlatformId::Amd4A100, PlatformId::Intel2V100];

/// Every element of `m`, as bits.
fn bits<T: Scalar>(m: &TiledMatrix<T>) -> Vec<u64> {
    m.to_dense()
        .as_slice()
        .iter()
        .map(|x| x.to_f64().to_bits())
        .collect()
}

/// The orders each operation is checked in, with a label: `K` seeded
/// random topological orders of `graph`, then the simulator's dispatch
/// order of `paper_graph` (the same operation at `PAPER_NB`) on each
/// platform. Asserts that some dispatch order departs from submission
/// order, so the simulated schedule is a real second witness.
fn orders(
    graph: &TaskGraph,
    paper_graph: impl Fn(&mut DataRegistry) -> TaskGraph,
) -> Vec<(String, Vec<TaskId>)> {
    let mut orders: Vec<_> = (0..K)
        .map(|seed| {
            let order = random_topological_order(graph, seed);
            (format!("random order, seed {seed}"), order)
        })
        .collect();
    let mut departs = false;
    for platform in PLATFORMS {
        let mut reg = DataRegistry::new();
        let paper = paper_graph(&mut reg);
        let order = dispatch_order(platform, &paper, &mut reg);
        departs |= order != graph.submission_order();
        orders.push((format!("dispatch order on {platform:?}"), order));
    }
    assert!(departs, "no dispatch order departs from submission order");
    orders
}

#[test]
fn gemm_is_bit_identical_in_every_order() {
    let mut reg = DataRegistry::new();
    let op = build_gemm(NT, NB, Precision::Double, &mut reg);
    let a = random_tiled::<f64>(NT, NB, 1);
    let b = random_tiled::<f64>(NT, NB, 2);
    let run = |order: &[TaskId]| {
        let c = random_tiled::<f64>(NT, NB, 3);
        run_gemm_native(&op, &a, &b, &c, order);
        c
    };
    let c = run(&op.graph.submission_order());
    let res = gemm_residual(&a, &b, &random_tiled::<f64>(NT, NB, 3).to_dense(), &c);
    assert!(res < 1e-12, "residual {res}");
    let want = bits(&c);
    for (label, order) in orders(&op.graph, |reg| {
        build_gemm(NT, PAPER_NB, Precision::Double, reg).graph
    }) {
        assert!(bits(&run(&order)) == want, "{label} changed the bits");
    }
}

#[test]
fn potrf_is_bit_identical_in_every_order() {
    let mut reg = DataRegistry::new();
    let op = build_potrf(NT, NB, Precision::Double, &mut reg);
    let run = |order: &[TaskId]| {
        let a = spd_tiled::<f64>(NT, NB, 7);
        run_potrf_native(&op, &a, order).unwrap();
        a
    };
    let l = run(&op.graph.submission_order());
    let res = potrf_residual(&spd_tiled::<f64>(NT, NB, 7).to_dense(), &l);
    assert!(res < 1e-12, "residual {res}");
    let want = bits(&l);
    for (label, order) in orders(&op.graph, |reg| {
        build_potrf(NT, PAPER_NB, Precision::Double, reg).graph
    }) {
        assert!(bits(&run(&order)) == want, "{label} changed the bits");
    }
}

#[test]
fn posv_is_bit_identical_in_every_order() {
    let mut reg = DataRegistry::new();
    let op = build_posv(NT, NB, Precision::Double, &mut reg);
    let run = |order: &[TaskId]| {
        let a = spd_tiled::<f64>(NT, NB, 101);
        let b = random_tiled::<f64>(NT, NB, 102);
        run_posv_native(&op, &a, &b, order).unwrap();
        (bits(&a), bits(&b))
    };
    let want = run(&op.graph.submission_order());
    for (label, order) in orders(&op.graph, |reg| {
        build_posv(NT, PAPER_NB, Precision::Double, reg).graph
    }) {
        assert!(run(&order) == want, "{label} changed the bits");
    }
}

#[test]
fn getrf_is_bit_identical_in_every_order() {
    let mut reg = DataRegistry::new();
    let op = build_getrf(NT, NB, Precision::Double, &mut reg);
    let run = |order: &[TaskId]| {
        let a = dd_tiled::<f64>(NT, NB, 77);
        run_getrf_native(&op, &a, order).unwrap();
        bits(&a)
    };
    let want = run(&op.graph.submission_order());
    for (label, order) in orders(&op.graph, |reg| {
        build_getrf(NT, PAPER_NB, Precision::Double, reg).graph
    }) {
        assert!(run(&order) == want, "{label} changed the bits");
    }
}

#[test]
fn every_potrf_edge_deletion_changes_the_bits_in_some_order() {
    let build = || build_potrf(4, 8, Precision::Double, &mut DataRegistry::new());
    // `None` when the factorization fails: a wrong order can break SPD.
    let run = |op: &PotrfOp, order: &[TaskId]| {
        let a = spd_tiled::<f64>(4, 8, 9);
        run_potrf_native(op, &a, order).ok().map(|()| bits(&a))
    };
    let op = build();
    let want = run(&op, &op.graph.submission_order());
    assert!(want.is_some());

    let edges: Vec<(TaskId, TaskId)> = (0..op.graph.len())
        .flat_map(|from| op.graph.successors(from).iter().map(move |&to| (from, to)))
        .collect();
    assert_eq!(edges.len(), 30);
    for (from, to) in edges {
        let mut mutant = build();
        assert!(mutant.graph.remove_edge(from, to));
        let caught =
            (0..K).any(|seed| run(&mutant, &random_topological_order(&mutant.graph, seed)) != want);
        assert!(
            caught,
            "deleting edge {from} -> {to} changed no bits in {K} orders"
        );
    }
}

/// Simulate `graph` and check the virtual-time schedule against the
/// dependency edges, reading each task's window from its `TaskEnd` event.
fn assert_sim_respects_dag(graph: &TaskGraph, data: &mut DataRegistry) {
    let mut node = ugpc_hwsim::Node::new(PlatformId::Amd4A100);
    let mut log = EventLog::new();
    let summary = ugpc_runtime::simulate_observed(
        &mut node,
        graph,
        data,
        ugpc_runtime::SimOptions::default(),
        &mut ugpc_runtime::PerfModel::new(),
        &mut [&mut log],
    );
    assert!(summary.makespan.value() > 0.0);
    let mut window: Vec<Option<(Secs, Secs)>> = vec![None; graph.len()];
    for e in &log.events {
        if let ExecEvent::TaskEnd {
            task, start, end, ..
        } = *e
        {
            assert!(window[task].is_none(), "task {task} recorded twice");
            window[task] = Some((start, end));
        }
    }
    for t in 0..graph.len() {
        let (start, _) = window[t].expect("every task has a record");
        for &p in graph.predecessors(t) {
            let (_, p_end) = window[p].unwrap();
            assert!(
                start >= p_end,
                "simulated task {t} started at {start:?} before predecessor {p} ended at {p_end:?}"
            );
        }
    }
}

#[test]
fn gemm_dag_order_holds_in_both_executors() {
    let mut reg = DataRegistry::new();
    let op = build_gemm(3, 16, Precision::Double, &mut reg);
    assert_sim_respects_dag(&op.graph, &mut reg);
}

#[test]
fn potrf_dag_order_holds_in_both_executors() {
    let mut reg = DataRegistry::new();
    let op = build_potrf(3, 16, Precision::Double, &mut reg);
    assert_sim_respects_dag(&op.graph, &mut reg);
}
