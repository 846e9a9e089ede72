//! The schedulers' costing against a per-worker reference scan.
//!
//! A policy that costs candidate workers fills every memory node's
//! transfer total and resident bytes in one pass over the task's operands,
//! costs each class of identical workers once from the history row's runs
//! of equal entries, and hands the chosen worker's estimate back to the
//! executor. Here random runtime states — one to three CPU packages of 1
//! to 31 cores at equal or unequal caps; replicas on the host only, on one
//! GPU as sole owner, or on several nodes; one to four GPUs behind staged
//! PCIe or direct NVLink links; tiles of unequal sizes; random, tied and
//! one-ulp-apart queue ends; exact, noisy and partly unobserved history
//! models, some refined after calibration so that one entry's mean moves
//! and splits its run — are put to every such policy, and its choice and
//! estimate must equal a scan that costs each worker on its own through
//! the public `transfer_estimate`, `exec_estimate`, `resident_bytes` and
//! `energy_estimate`, and applies the documented tie rules.

// Test helpers may unwrap (clippy's allow-unwrap-in-tests does not
// reach helper fns in integration-test files).
#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ugpc_hwsim::{Bytes, Joules, LinkTopology, Node, PlatformId, Precision, Secs, Watts};
use ugpc_runtime::{
    distinct_footprints, AccessMode, Choice, DataRegistry, Footprint, KernelKind, MemNode,
    PerfModel, SchedPolicy, SchedView, TaskDesc, TaskGraph, TaskId, Worker, WorkerKind,
};

/// dmdas's locality window: completion times within this fraction of the
/// earliest candidate's own execution time count as tied.
const TIE_FRACTION: f64 = 0.25;

/// Every policy that costs candidates (`eager` costs none).
fn policies(seed: u64) -> [SchedPolicy; 7] {
    [
        SchedPolicy::Dm,
        SchedPolicy::Dmda,
        SchedPolicy::Dmdas,
        SchedPolicy::EnergyAware { lambda: 0.0 },
        SchedPolicy::EnergyAware { lambda: 0.5 },
        SchedPolicy::EnergyAware { lambda: 1.0 },
        SchedPolicy::Random { seed },
    ]
}

/// A random runtime state: workers, replicas, tasks, model, queue ends.
struct State {
    workers: Vec<Worker>,
    links: LinkTopology,
    data: DataRegistry,
    graph: TaskGraph,
    perf: PerfModel,
    free: Vec<Secs>,
    now: Secs,
}

/// The shape of a random state's platform and model.
#[derive(Debug, Clone, Copy)]
struct Shape {
    packages: usize,
    cores: usize,
    gpus: usize,
    nvlink: bool,
    /// 0: calibrated, 1: noise-calibrated, else observed at random.
    model: u32,
    /// Whether the packages are calibrated at different RAPL caps.
    unequal_caps: bool,
}

/// `packages × cores` CPU workers in package order, then one worker per
/// GPU: the layout `build_workers` gives.
fn workers(packages: usize, cores: usize, gpus: usize) -> Vec<Worker> {
    (0..packages)
        .flat_map(|package| (0..cores).map(move |core| WorkerKind::CpuCore { package, core }))
        .chain((0..gpus).map(|device| WorkerKind::Gpu { device }))
        .enumerate()
        .map(|(id, kind)| Worker { id, kind })
        .collect()
}

fn state(shape: Shape, seed: u64) -> State {
    let Shape {
        packages,
        cores,
        gpus,
        nvlink,
        model,
        unequal_caps,
    } = shape;
    let mut rng = SmallRng::seed_from_u64(seed);
    let workers = workers(packages, cores, gpus);
    let links = if nvlink {
        LinkTopology::sxm4_nvlink()
    } else {
        LinkTopology::pcie_gen3()
    };

    // Tiles of unequal sizes, each in one of four replica states.
    let mut data = DataRegistry::new();
    let n_tiles = rng.gen_range(1..7usize);
    for _ in 0..n_tiles {
        let nb = [320usize, 960, 1920, 2880][rng.gen_range(0..4usize)];
        let d = data.register(Bytes((nb * nb * 8) as f64));
        let gpu = |rng: &mut SmallRng| MemNode::Gpu(rng.gen_range(0..gpus));
        match rng.gen_range(0..4u32) {
            // Host only, as registered.
            0 => {}
            // One GPU as sole owner.
            1 => data.write_at(d, gpu(&mut rng)),
            // The host and some GPUs.
            2 => {
                for _ in 0..rng.gen_range(1..4usize) {
                    data.add_replica(d, gpu(&mut rng));
                }
            }
            // Several GPUs, not the host.
            _ => {
                data.write_at(d, gpu(&mut rng));
                data.add_replica(d, gpu(&mut rng));
            }
        }
    }

    // Tasks of mixed kinds (some CPU-only) and tile sizes.
    let mut graph = TaskGraph::new();
    for _ in 0..rng.gen_range(1..6usize) {
        let kind = KernelKind::ALL[rng.gen_range(0..KernelKind::ALL.len())];
        let nb = [960usize, 1920][rng.gen_range(0..2usize)];
        let mut t = TaskDesc::new(kind, Precision::Double, nb);
        for _ in 0..rng.gen_range(1..5usize) {
            let mode = [AccessMode::Read, AccessMode::Write, AccessMode::ReadWrite]
                [rng.gen_range(0..3usize)];
            t = t.access(rng.gen_range(0..n_tiles), mode);
        }
        graph.submit(t);
    }

    let mut footprints = Vec::new();
    distinct_footprints(graph.tasks(), &mut footprints);
    let mut perf = match model {
        0 => calibrated(
            &mut rng,
            PerfModel::new(),
            &workers,
            &footprints,
            unequal_caps,
        ),
        1 => {
            let m = PerfModel::new().with_calibration_noise(0.3, seed);
            calibrated(&mut rng, m, &workers, &footprints, unequal_caps)
        }
        _ => observed_at_random(&mut rng, &workers, &footprints),
    };
    refine(&mut rng, &mut perf, &workers, &footprints);

    // Queue ends from a short list, so completion times often tie, with
    // one-ulp neighbours whose completions may round to the same bits.
    let ends = [
        0.0,
        1e-3,
        f64::from_bits(1e-3f64.to_bits() + 1),
        2e-3,
        f64::from_bits(2e-3f64.to_bits() - 1),
        5e-3,
    ];
    let free = workers
        .iter()
        .map(|_| Secs(ends[rng.gen_range(0..ends.len())]))
        .collect();
    let now = Secs(ends[rng.gen_range(0..2usize)]);
    State {
        workers,
        links,
        data,
        graph,
        perf,
        free,
        now,
    }
}

/// A model calibrated the way `simulate` does it: the GPUs on the
/// four-GPU node, each package's cores on a Xeon package whose RAPL cap
/// is the same for every package, or drawn per package.
fn calibrated(
    rng: &mut SmallRng,
    mut m: PerfModel,
    workers: &[Worker],
    fps: &[Footprint],
    unequal_caps: bool,
) -> PerfModel {
    let gpus: Vec<Worker> = workers.iter().copied().filter(Worker::is_gpu).collect();
    m.calibrate(&Node::new(PlatformId::Amd4A100), &gpus, fps);
    let caps = [125.0, 100.0, 80.0, 60.0];
    let shared = caps[rng.gen_range(0..caps.len())];
    let packages = workers.iter().filter_map(|w| match w.kind {
        WorkerKind::CpuCore { package, .. } => Some(package),
        WorkerKind::Gpu { .. } => None,
    });
    for package in 0..packages.max().map_or(0, |p| p + 1) {
        let cap = if unequal_caps {
            caps[rng.gen_range(0..caps.len())]
        } else {
            shared
        };
        let mut node = Node::new(PlatformId::Intel2V100);
        node.cpus_mut()[0].set_power_limit(Watts(cap)).unwrap();
        // The package's cores, as package 0 of the capped node.
        let cores: Vec<Worker> = workers
            .iter()
            .filter(|w| matches!(w.kind, WorkerKind::CpuCore { package: p, .. } if p == package))
            .map(|w| Worker {
                id: w.id,
                kind: WorkerKind::CpuCore {
                    package: 0,
                    core: 0,
                },
            })
            .collect();
        m.calibrate(&node, &cores, fps);
    }
    m
}

/// Online refinement after calibration, as `simulate` feeds it: a few
/// entries take one more sample, either at their mean (an exact model's
/// refinement, which keeps the bits) or elsewhere, which moves the mean
/// and splits a run of cores.
fn refine(rng: &mut SmallRng, m: &mut PerfModel, workers: &[Worker], fps: &[Footprint]) {
    for _ in 0..rng.gen_range(0..4usize) {
        let fp = fps[rng.gen_range(0..fps.len())];
        let w = rng.gen_range(0..workers.len());
        let (Some(t), Some(e)) = (m.expected_time(fp, w), m.expected_energy(fp, w)) else {
            continue;
        };
        let f = [1.0, 0.1, 3.0][rng.gen_range(0..3usize)];
        m.observe(fp, w, t * f, e * f);
    }
}

/// A model holding some (footprint, worker) entries, with times and
/// energies from short lists (ties again), some entries only at another
/// tile size (the cubic extrapolation) and some at none (the unknown-time
/// placeholder).
fn observed_at_random(rng: &mut SmallRng, workers: &[Worker], fps: &[Footprint]) -> PerfModel {
    let mut m = PerfModel::new();
    for &fp in fps {
        for w in workers {
            for nb in [fp.nb, 480] {
                if rng.gen_range(0..4u32) == 0 {
                    continue;
                }
                let t = [0.5e-3, 1e-3, 2e-3][rng.gen_range(0..3usize)];
                let e = [1.0, 2.0, 3.0][rng.gen_range(0..3usize)];
                let key = Footprint { nb, ..fp };
                m.observe(key, w.id, Secs(t), Joules(e));
            }
        }
    }
    m
}

/// The reference: each capable worker costed on its own, then the policy's
/// documented rule.
fn reference(view: &SchedView, task: TaskId, policy: SchedPolicy) -> Choice {
    struct Cand {
        worker: usize,
        transfer: Secs,
        exec: Secs,
        completion: f64,
        resident: f64,
        energy: f64,
    }
    let with_transfers = !matches!(policy, SchedPolicy::Dm | SchedPolicy::Random { .. });
    let cands: Vec<Cand> = view
        .capable_workers(task)
        .map(|w| {
            let transfer = view.transfer_estimate(task, w);
            let exec = view.exec_estimate(task, w);
            let start = view.now.max(view.worker_free[w.id]);
            let completion = if with_transfers {
                start + transfer + exec
            } else {
                start + exec
            };
            Cand {
                worker: w.id,
                transfer,
                exec,
                completion: completion.value(),
                resident: view.resident_bytes(task, w).value(),
                energy: view.energy_estimate(task, w).value(),
            }
        })
        .collect();
    let choice = |c: &Cand| Choice {
        worker: c.worker,
        transfer: with_transfers.then_some(c.transfer),
        exec: Some(c.exec),
    };
    // The first candidate whose key is strictly below every earlier one.
    let first_min = |key: &dyn Fn(&Cand) -> f64| {
        let mut best = &cands[0];
        for c in &cands[1..] {
            if key(c) < key(best) {
                best = c;
            }
        }
        best
    };
    match policy {
        SchedPolicy::Dm | SchedPolicy::Dmda => choice(first_min(&|c| c.completion)),
        SchedPolicy::Dmdas => {
            let best = first_min(&|c| c.completion);
            let limit = best.completion + best.exec.value() * TIE_FRACTION;
            // Most resident bytes, then earliest completion; the last of
            // equal candidates wins.
            let mut pick = best;
            for c in cands.iter().filter(|c| c.completion <= limit) {
                if c.resident > pick.resident
                    || (c.resident == pick.resident && c.completion <= pick.completion)
                {
                    pick = c;
                }
            }
            choice(pick)
        }
        SchedPolicy::EnergyAware { lambda } => {
            let t_min = cands
                .iter()
                .map(|c| c.completion)
                .fold(f64::INFINITY, f64::min);
            let e_min = cands.iter().map(|c| c.energy).fold(f64::INFINITY, f64::min);
            choice(first_min(&|c| {
                (1.0 - lambda) * c.completion / t_min.max(1e-12)
                    + lambda * c.energy / e_min.max(1e-12)
            }))
        }
        SchedPolicy::Random { seed } => {
            let weight = |c: &Cand| 1.0 / c.exec.value().max(1e-12);
            let total: f64 = cands.iter().map(weight).sum();
            let mut pick = SmallRng::seed_from_u64(seed).gen_range(0.0..total);
            for c in &cands {
                if pick < weight(c) {
                    return choice(c);
                }
                pick -= weight(c);
            }
            choice(cands.last().unwrap())
        }
        SchedPolicy::Eager => unreachable!("eager costs no candidate"),
    }
}

/// A choice with its estimates as bit patterns.
fn bits(c: Choice) -> (usize, Option<u64>, Option<u64>) {
    (
        c.worker,
        c.transfer.map(|t| t.value().to_bits()),
        c.exec.map(|e| e.value().to_bits()),
    )
}

impl State {
    fn view(&self) -> SchedView<'_> {
        SchedView {
            graph: &self.graph,
            workers: &self.workers,
            worker_free: &self.free,
            perf: &self.perf,
            data: &self.data,
            links: &self.links,
            now: self.now,
        }
    }
}

proptest! {
    #[test]
    fn every_costed_choice_matches_the_per_worker_scan(
        packages in 1usize..4,
        cores in 1usize..32,
        gpus in 1usize..5,
        nvlink in proptest::bool::ANY,
        model in 0u32..3,
        unequal_caps in proptest::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        let shape = Shape { packages, cores, gpus, nvlink, model, unequal_caps };
        let s = state(shape, seed);
        let view = s.view();
        for task in 0..s.graph.len() {
            for policy in policies(seed) {
                let got = policy.build().choose(task, &view);
                let want = reference(&view, task, policy);
                prop_assert_eq!(
                    bits(got),
                    bits(want),
                    "{} on task {task} ({:?}), {shape:?}, seed {seed}: chose {got:?}, \
                     the scan {want:?}",
                    policy.name(),
                    s.graph.task(task).kind
                );
            }
        }
    }
}

/// Distinct queue ends whose completions round to the same bits: 1 and
/// 1 + 2⁻⁵² plus an execution of 1 both give 2. A per-worker scan takes
/// the first (or, for dmdas, the last) worker of that completion, which
/// is not always the one with the earliest queue end.
#[test]
fn completions_that_round_together_resolve_like_the_scan() {
    let one_up = f64::from_bits(1f64.to_bits() + 1);
    let workers = workers(1, 3, 1);
    let mut graph = TaskGraph::new();
    let mut data = DataRegistry::new();
    let tile = data.register(Bytes(8.0));
    let task = graph.submit(
        TaskDesc::new(KernelKind::Gemm, Precision::Double, 960).access(tile, AccessMode::Read),
    );
    let fp = graph.task(task).footprint();
    let mut perf = PerfModel::new();
    for w in &workers {
        let t = if w.is_gpu() { 100.0 } else { 1.0 };
        perf.observe(fp, w.id, Secs(t), Joules(1.0));
    }
    for ends in [[one_up, 1.0, 5.0], [1.0, one_up, 5.0], [5.0, one_up, 1.0]] {
        let s = State {
            free: ends.iter().chain(&[0.0]).map(|&t| Secs(t)).collect(),
            workers: workers.clone(),
            links: LinkTopology::pcie_gen3(),
            data: data.clone(),
            graph: graph.clone(),
            perf: perf.clone(),
            now: Secs::ZERO,
        };
        let view = s.view();
        for policy in policies(3) {
            let got = policy.build().choose(task, &view);
            let want = reference(&view, task, policy);
            assert_eq!(
                bits(got),
                bits(want),
                "{} at queue ends {ends:?}",
                policy.name()
            );
        }
    }
}

/// A class of four cores where idle members sit behind busy ones. The
/// class's earliest queue end is found at the first member idle by
/// `now`, but the member a per-worker scan picks may be a busy one: a
/// queue end one ulp past `now` = 1, plus an execution of 1, rounds to
/// the idle members' completion of 2.
#[test]
fn idle_members_behind_busy_ones_resolve_like_the_scan() {
    let one_up = f64::from_bits(1f64.to_bits() + 1);
    let workers = workers(1, 4, 1);
    let mut graph = TaskGraph::new();
    let mut data = DataRegistry::new();
    let tile = data.register(Bytes(8.0));
    let task = graph.submit(
        TaskDesc::new(KernelKind::Gemm, Precision::Double, 960).access(tile, AccessMode::Read),
    );
    let fp = graph.task(task).footprint();
    let mut perf = PerfModel::new();
    for w in &workers {
        let t = if w.is_gpu() { 100.0 } else { 1.0 };
        perf.observe(fp, w.id, Secs(t), Joules(1.0));
    }
    for ends in [
        [5.0, one_up, 0.5, 1.0],
        [one_up, 5.0, 1.0, 0.5],
        [5.0, 5.0, one_up, 1.0],
        [5.0, 0.5, one_up, 0.25],
        [5.0, 3.0, one_up, 0.5],
    ] {
        let s = State {
            free: ends.iter().chain(&[0.0]).map(|&t| Secs(t)).collect(),
            workers: workers.clone(),
            links: LinkTopology::pcie_gen3(),
            data: data.clone(),
            graph: graph.clone(),
            perf: perf.clone(),
            now: Secs(1.0),
        };
        let view = s.view();
        for policy in [SchedPolicy::Dm, SchedPolicy::Dmda, SchedPolicy::Dmdas] {
            let got = policy.build().choose(task, &view);
            let want = reference(&view, task, policy);
            assert_eq!(
                bits(got),
                bits(want),
                "{} at queue ends {ends:?}",
                policy.name()
            );
        }
    }
}
