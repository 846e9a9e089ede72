//! `ugpc-calibrate`: times a fixed CPU-bound kernel on two threads and
//! prints the wall-clock seconds it took.
//!
//! The benchmark runs it between units of measured work to learn how
//! fast the machine is right now, and divides that speed out of its
//! timings (see `calib.rs`). The kernel uses nothing from the repository,
//! so this executable is the same machine code in every commit: only the
//! machine changes what it reads.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// Threads sharing the work: as many as the benchmark's workloads keep
/// busy (two simulation workers, or two sweep jobs). They take chunks
/// from a shared counter, as the sweep driver and the worker pool take
/// jobs, so a core that runs slower does less of the work instead of
/// holding up the end.
const THREADS: usize = 2;
/// Chunks of work, and events per chunk: about 50 ms on the two-core
/// reference machine.
const CHUNKS: u64 = 48;
const EVENTS: u64 = 20_000;
/// Entries of the lookup table (512 KiB of `f64`), so the kernel reads
/// memory beyond the first-level caches as the simulator does.
const TABLE: usize = 1 << 16;
/// Simultaneous entities in the event queue.
const ENTITIES: u64 = 256;
/// Keys of the map of open records.
const KEYS: u64 = 2048;

/// A small discrete-event simulation with the simulator's mix of work:
/// pop the earliest event, look up a cost, append it to a record in a
/// hash map (closing and freeing full records), and schedule the
/// entity's next event. Returns a checksum so the work cannot be
/// optimised away.
fn kernel(seed: u64, table: &[f64]) -> u64 {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut queue = BinaryHeap::with_capacity(ENTITIES as usize);
    let mut open: HashMap<u64, Vec<f64>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for id in 0..ENTITIES {
        queue.push(Reverse((next() % 1000, id)));
    }
    let mut sum = 0u64;
    for _ in 0..EVENTS {
        let Some(Reverse((t, id))) = queue.pop() else {
            break;
        };
        let r = next();
        let cost = table[r as usize % TABLE];
        let key = (r >> 40) % KEYS;
        match open.get_mut(&key) {
            Some(record) if record.len() < 8 => record.push(cost),
            Some(record) => {
                sum = sum.wrapping_add(record.iter().sum::<f64>() as u64);
                open.remove(&key);
            }
            None => {
                open.insert(key, vec![cost]);
            }
        }
        queue.push(Reverse((t + (cost * 10.0) as u64 + 1, id)));
        sum = sum.wrapping_add(t ^ id);
    }
    sum
}

fn main() {
    let table: Vec<f64> = (0..TABLE).map(|i| 1.0 + (i as f64).sqrt()).collect();
    let taken = AtomicU64::new(0);
    let start = Barrier::new(THREADS + 1);
    let elapsed = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let (table, taken, start) = (&table, &taken, &start);
                scope.spawn(move || {
                    start.wait();
                    let mut sum = 0;
                    loop {
                        let chunk = taken.fetch_add(1, Ordering::Relaxed);
                        if chunk >= CHUNKS {
                            break black_box(sum);
                        }
                        sum ^= kernel(black_box(7 + chunk), table);
                    }
                })
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        for w in workers {
            w.join().expect("a calibration thread panicked");
        }
        t0.elapsed()
    });
    println!("{:.9}", elapsed.as_secs_f64());
}
