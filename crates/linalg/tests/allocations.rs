//! Building a task graph makes a bounded number of heap allocations,
//! however many tasks it has: the graph keeps its per-task lists in
//! contiguous arrays, a task's operands in the task and a handle's
//! replica set in the registry. A regression to a `Vec` per task or per
//! tile shows up here as thousands of allocations.
//!
//! This file is its own test binary because it installs a counting
//! global allocator; the count is per thread, so tests running beside
//! each other do not mix their counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use ugpc_hwsim::Precision;
use ugpc_linalg::{build_gemm, build_potrf};
use ugpc_runtime::{DataRegistry, TaskGraph};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may be gone while the thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which meets `GlobalAlloc`'s contract; the count beside it neither
// allocates nor touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (including reallocations) `build` makes on this
/// thread, with what it returns.
fn allocations<R>(build: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let built = build();
    (ALLOCATIONS.with(Cell::get) - before, built)
}

/// A bound that does not grow with the task count: the builders below
/// submit 5 984 and 4 096 tasks.
const MAX_ALLOCATIONS: usize = 64;

fn assert_bounded(what: &str, (count, (graph, reg)): (usize, (TaskGraph, DataRegistry))) {
    assert!(
        count <= MAX_ALLOCATIONS,
        "{what}: {count} heap allocations for {} tasks over {} tiles, \
         more than {MAX_ALLOCATIONS}",
        graph.len(),
        reg.len()
    );
}

#[test]
fn building_potrf_nt32_allocates_a_bounded_number_of_times() {
    let built = allocations(|| {
        let mut reg = DataRegistry::new();
        let graph = build_potrf(32, 64, Precision::Double, &mut reg).graph;
        (graph, reg)
    });
    assert_eq!(built.1 .0.len(), 5_984);
    assert_bounded("build_potrf(32)", built);
}

#[test]
fn building_gemm_nt16_allocates_a_bounded_number_of_times() {
    let built = allocations(|| {
        let mut reg = DataRegistry::new();
        let graph = build_gemm(16, 64, Precision::Double, &mut reg).graph;
        (graph, reg)
    });
    assert_eq!(built.1 .0.len(), 4_096);
    assert_bounded("build_gemm(16)", built);
}
