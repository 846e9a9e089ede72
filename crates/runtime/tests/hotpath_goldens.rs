//! Behavior-preservation goldens for the DES hot path.
//!
//! The operand-cache, incremental-`expected_end` and allocation-reuse
//! changes inside the simulator must not alter a single scheduling
//! decision. These tests pin makespan and total energy of seeded random
//! DAGs under dmdas to values captured from the pre-refactor executor
//! (bit-exact: the simulator is deterministic, so any behavioral drift
//! shows up as a changed 17-digit float). A separate pass checks
//! run-to-run determinism, which the `sanitize` CI leg re-executes with
//! the runtime's dynamic invariant checks armed.
//!
//! The second group pins the paths the first one never reaches: capped
//! devices (the DVFS governor's bisection branch), the `dmda`, `dm` and
//! `energy` policies, a DAG whose operands overflow device memory (LRU
//! eviction with writebacks), and a run re-capped mid-flight by a control
//! hook. Those values were captured from the executor that still kept
//! its history model, resident sets and submission maps in hash maps and
//! re-solved the governor on every launch.
//!
//! The last group pins the `random` policy (its seeded draws over
//! speed weights) and runs on a noise-calibrated history model, captured
//! from the executor that still costed each candidate worker separately.
//! The stale-model group, captured from the executor that still kept its
//! idle-worker resync candidates in a second event heap, runs a model
//! calibrated at one set of caps after the GPUs were re-capped.

// Test helpers may unwrap (clippy's allow-unwrap-in-tests does not
// reach helper fns in integration-test files).
#![allow(clippy::unwrap_used)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ugpc_hwsim::{Bytes, Node, OpKind, PlatformId, Precision, Secs, Watts};
use ugpc_runtime::{
    simulate, simulate_controlled, simulate_observed, AccessMode, ControlDecision, ControlHook,
    DataRegistry, ExecEvent, KernelKind, PerfModel, RecapEvent, RunContext, RunTrace, SchedPolicy,
    SimOptions, TaskDesc, TaskGraph, TraceBuilder,
};

/// Tile size, handle-pool size and precision of a random DAG.
#[derive(Clone, Copy)]
struct Shape {
    nb: usize,
    n_data: usize,
    precision: Precision,
}

const SMALL: Shape = Shape {
    nb: 960,
    n_data: 24,
    precision: Precision::Double,
};

/// A seeded random DAG over a shared pool of tiles: mixed kernel kinds
/// (including the CPU-only diagonal factorizations), mixed access modes,
/// so RAW/WAW/WAR inference produces irregular dependency structure.
fn random_graph(seed: u64, n_tasks: usize, shape: Shape, reg: &mut DataRegistry) -> TaskGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let Shape {
        nb,
        n_data,
        precision,
    } = shape;
    let pool: Vec<_> = (0..n_data)
        .map(|_| reg.register(Bytes((nb * nb * precision.elem_bytes()) as f64)))
        .collect();
    let mut g = TaskGraph::new();
    for _ in 0..n_tasks {
        let kind = KernelKind::ALL[rng.gen_range(0..KernelKind::ALL.len())];
        let mut t = TaskDesc::new(kind, precision, nb).with_priority(rng.gen_range(0..4i32));
        let accesses = rng.gen_range(1..4usize);
        for _ in 0..accesses {
            let mode = match rng.gen_range(0..3u32) {
                0 => AccessMode::Read,
                1 => AccessMode::Write,
                _ => AccessMode::ReadWrite,
            };
            t = t.access(pool[rng.gen_range(0..n_data)], mode);
        }
        g.submit(t);
    }
    g
}

fn run(seed: u64, platform: PlatformId) -> (f64, f64) {
    let mut node = Node::new(platform);
    let mut reg = DataRegistry::new();
    let g = random_graph(seed, 120, SMALL, &mut reg);
    let trace = simulate(&mut node, &g, &mut reg, SimOptions::default());
    (trace.makespan.value(), trace.total_energy().value())
}

/// Golden values captured from the pre-refactor simulator (PR 2). If a
/// hot-path change is behavior-preserving these match to the last bit;
/// print-and-update is NOT the fix for a mismatch — the refactor is.
const GOLDENS: [(u64, PlatformId, f64, f64); 4] = [
    (
        1,
        PlatformId::Amd4A100,
        0.23234239646645652,
        80.70387650740463,
    ),
    (
        2,
        PlatformId::Amd4A100,
        0.2076384540214562,
        72.11357903267012,
    ),
    (
        3,
        PlatformId::Intel2V100,
        0.24482054163322434,
        63.720554141327824,
    ),
    (
        4,
        PlatformId::Amd2A100,
        0.46241659200402196,
        136.13351718238192,
    ),
];

#[test]
fn random_dags_match_pre_refactor_goldens() {
    let measured: Vec<(f64, f64)> = GOLDENS
        .iter()
        .map(|&(seed, platform, _, _)| run(seed, platform))
        .collect();
    for (&(seed, platform, _, _), &(m, e)) in GOLDENS.iter().zip(&measured) {
        println!("({seed}, PlatformId::{platform:?}, {m:?}, {e:?}),");
    }
    for (&(seed, platform, makespan, energy), &(m, e)) in GOLDENS.iter().zip(&measured) {
        assert_eq!(
            m.to_bits(),
            makespan.to_bits(),
            "seed {seed} on {platform}: makespan {m:?} != golden {makespan:?}"
        );
        assert_eq!(
            e.to_bits(),
            energy.to_bits(),
            "seed {seed} on {platform}: energy {e:?} != golden {energy:?}"
        );
    }
}

#[test]
fn random_dags_are_deterministic_across_runs() {
    for seed in 0..12u64 {
        let a = run(seed, PlatformId::Amd4A100);
        let b = run(seed, PlatformId::Amd4A100);
        assert_eq!(a, b, "seed {seed} not reproducible");
    }
}

/// What a golden pins of one run: makespan, total energy, evictions and
/// writebacks.
type Outcome = (f64, f64, usize, usize);

fn outcome(trace: &RunTrace) -> Outcome {
    (
        trace.makespan.value(),
        trace.total_energy().value(),
        trace.evictions,
        trace.writebacks,
    )
}

/// Compare every case against its golden, after printing all measured
/// values (so one failing run shows the whole table).
fn check(group: &str, measured: &[(String, Outcome)], goldens: &[Outcome]) {
    for (name, (m, e, ev, wb)) in measured {
        println!("{group} {name}: ({m:?}, {e:?}, {ev}, {wb}),");
    }
    assert_eq!(measured.len(), goldens.len(), "{group}: case count");
    let bits = |&(m, e, ev, wb): &Outcome| (m.to_bits(), e.to_bits(), ev, wb);
    for ((name, got), want) in measured.iter().zip(goldens) {
        assert_eq!(
            bits(got),
            bits(want),
            "{group} {name}: {got:?} drifted from the golden {want:?}"
        );
    }
}

/// Per-GPU caps from Table II letter levels (`L`, `B` or `H`) for GEMM
/// at `precision`.
fn letter_caps(node: &Node, letters: &str, precision: Precision) -> Vec<Watts> {
    let (l, b, h) = node.gpu_power_states(OpKind::Gemm, precision);
    letters
        .chars()
        .map(|c| match c {
            'L' => l,
            'B' => b,
            'H' => h,
            _ => panic!("cap letter {c}"),
        })
        .collect()
}

fn run_capped(seed: u64, platform: PlatformId, letters: &str, shape: Shape) -> RunTrace {
    let mut node = Node::new(platform);
    for (g, cap) in letter_caps(&node, letters, shape.precision)
        .into_iter()
        .enumerate()
    {
        node.gpu_mut(g).set_power_limit(cap).unwrap();
    }
    // A B-capped device must run its GEMMs on the governor's bisection
    // branch: a clock strictly between the voltage knee and full speed.
    for (g, c) in letters.chars().enumerate() {
        if c == 'B' {
            let dev = node.gpu(g);
            let work = TaskDesc::new(KernelKind::Gemm, shape.precision, shape.nb).kernel_work();
            let x = dev.estimate(&work).clock_frac;
            let knee = dev.spec().dvfs.get(shape.precision).knee();
            assert!(
                knee < x && x < 1.0,
                "gpu {g} at B: clock {x} is not on the bisection branch (knee {knee})"
            );
        }
    }
    let mut reg = DataRegistry::new();
    let g = random_graph(seed, 120, shape, &mut reg);
    simulate(&mut node, &g, &mut reg, SimOptions::default())
}

const CAPPED_GOLDENS: [Outcome; 4] = [
    (5.311386747163885, 1838.941660166639, 0, 0),
    (6.43847522153537, 1672.496849937, 0, 0),
    (4.590172627740044, 1362.9628455711754, 0, 0),
    (3.461996624959349, 1194.741585810279, 0, 0),
];

#[test]
fn capped_nodes_match_goldens() {
    let big = Shape {
        nb: 2880,
        n_data: 24,
        precision: Precision::Double,
    };
    let big_sp = Shape {
        precision: Precision::Single,
        ..big
    };
    let cases = [
        (5, PlatformId::Amd4A100, "BLBL", big),
        (6, PlatformId::Intel2V100, "LB", big),
        (7, PlatformId::Amd2A100, "BB", big_sp),
        (8, PlatformId::Amd4A100, "HBBL", big_sp),
    ];
    let measured: Vec<(String, Outcome)> = cases
        .iter()
        .map(|&(seed, platform, letters, shape)| {
            let t = run_capped(seed, platform, letters, shape);
            (format!("seed {seed} {platform} {letters}"), outcome(&t))
        })
        .collect();
    check("capped", &measured, &CAPPED_GOLDENS);
}

const POLICY_GOLDENS: [Outcome; 6] = [
    (0.2549401815120127, 87.93463651100528, 0, 0),
    (0.22697897649441592, 59.560056747675546, 0, 0),
    (0.18177100966679202, 63.636620183916385, 0, 0),
    (0.42497800717607515, 125.32061762535389, 0, 0),
    (0.25613388377423696, 88.25134887402676, 0, 0),
    (0.2540488048063761, 66.11938066916504, 0, 0),
];

#[test]
fn other_policies_match_goldens() {
    let cases = [
        (9, PlatformId::Amd4A100, SchedPolicy::Dmda),
        (10, PlatformId::Intel2V100, SchedPolicy::Dmda),
        (11, PlatformId::Amd4A100, SchedPolicy::Dm),
        (12, PlatformId::Amd2A100, SchedPolicy::Dm),
        (
            13,
            PlatformId::Amd4A100,
            SchedPolicy::EnergyAware { lambda: 0.5 },
        ),
        (
            14,
            PlatformId::Intel2V100,
            SchedPolicy::EnergyAware { lambda: 0.9 },
        ),
    ];
    let measured: Vec<(String, Outcome)> = cases
        .iter()
        .map(|&(seed, platform, policy)| {
            let mut node = Node::new(platform);
            let mut reg = DataRegistry::new();
            let g = random_graph(seed, 120, SMALL, &mut reg);
            let opts = SimOptions {
                policy,
                ..SimOptions::default()
            };
            let t = simulate(&mut node, &g, &mut reg, opts);
            (
                format!("seed {seed} {platform} {}", policy.name()),
                outcome(&t),
            )
        })
        .collect();
    check("policy", &measured, &POLICY_GOLDENS);
}

const PRESSURE_GOLDENS: [Outcome; 3] = [
    (82.84289541611892, 31969.567360355843, 219, 8),
    (125.24645228777342, 50312.77463303157, 66, 0),
    (118.2405501679232, 39877.87212732864, 206, 6),
];

/// A read-heavy DAG over operands far larger than device memory: 1 GiB
/// tiles, 96 read-only inputs and 16 accumulators, against 32–40 GiB of
/// HBM. Read replicas pile up until `make_room` evicts, and accumulators
/// last written on a GPU are sole copies that must be written back.
fn pressure_graph(seed: u64, n_tasks: usize, reg: &mut DataRegistry) -> TaskGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nb = 11520;
    let tile = Bytes((nb * nb * 8) as f64);
    let inputs: Vec<_> = (0..96).map(|_| reg.register(tile)).collect();
    let accs: Vec<_> = (0..16).map(|_| reg.register(tile)).collect();
    let mut g = TaskGraph::new();
    for _ in 0..n_tasks {
        let acc = accs[rng.gen_range(0..accs.len())];
        let t = if rng.gen_range(0..10u32) == 0 {
            TaskDesc::new(KernelKind::Potrf, Precision::Double, nb)
                .access(acc, AccessMode::ReadWrite)
        } else {
            let kind =
                [KernelKind::Gemm, KernelKind::Syrk, KernelKind::Trsm][rng.gen_range(0..3usize)];
            TaskDesc::new(kind, Precision::Double, nb)
                .with_priority(rng.gen_range(0..4i32))
                .access(inputs[rng.gen_range(0..inputs.len())], AccessMode::Read)
                .access(inputs[rng.gen_range(0..inputs.len())], AccessMode::Read)
                .access(acc, AccessMode::ReadWrite)
        };
        g.submit(t);
    }
    g
}

#[test]
fn memory_pressure_matches_goldens() {
    let cases = [
        (15, PlatformId::Intel2V100, SchedPolicy::Dmdas),
        (16, PlatformId::Amd4A100, SchedPolicy::Dmdas),
        (17, PlatformId::Amd2A100, SchedPolicy::Dmda),
    ];
    let measured: Vec<(String, Outcome)> = cases
        .iter()
        .map(|&(seed, platform, policy)| {
            let mut node = Node::new(platform);
            let mut reg = DataRegistry::new();
            let g = pressure_graph(seed, 240, &mut reg);
            let opts = SimOptions {
                policy,
                ..SimOptions::default()
            };
            let t = simulate(&mut node, &g, &mut reg, opts);
            assert!(t.evictions > 0, "seed {seed}: no eviction under pressure");
            (
                format!("seed {seed} {platform} {}", policy.name()),
                outcome(&t),
            )
        })
        .collect();
    assert!(
        measured.iter().any(|(_, o)| o.3 > 0),
        "no case wrote a sole copy back"
    );
    check("pressure", &measured, &PRESSURE_GOLDENS);
}

/// A control hook that wakes every `period` and rotates every GPU through
/// the L, B and H caps, half of the changes applied at the tick and half
/// scheduled a half-period later through the event queue.
struct Rotator {
    caps: Vec<Watts>,
    period: Secs,
    ticks: usize,
    max_ticks: usize,
}

impl ControlHook for Rotator {
    fn on_start(&mut self, _ctx: &RunContext<'_>) -> Option<Secs> {
        Some(self.period)
    }

    fn on_event(&mut self, _event: &ExecEvent) {}

    fn on_tick(&mut self, now: Secs, caps: &[Watts]) -> ControlDecision {
        self.ticks += 1;
        let recaps = (0..caps.len())
            .map(|device| RecapEvent {
                t: if device % 2 == 0 {
                    now
                } else {
                    now + self.period * 0.5
                },
                device,
                cap: self.caps[(self.ticks + device) % self.caps.len()],
            })
            .collect();
        ControlDecision {
            recaps,
            next_tick: (self.ticks < self.max_ticks).then(|| now + self.period),
        }
    }
}

const RECAP_GOLDENS: [Outcome; 3] = [
    (2.6629989168071924, 906.812502508273, 0, 0),
    (1.0594117306874482, 274.0550336819846, 0, 0),
    (2.8607546061302225, 845.2079337968239, 0, 0),
];

#[test]
fn mid_run_recaps_match_goldens() {
    let cases = [
        (18, PlatformId::Amd4A100, Precision::Double),
        (19, PlatformId::Intel2V100, Precision::Single),
        (20, PlatformId::Amd2A100, Precision::Double),
    ];
    let measured: Vec<(String, Outcome)> = cases
        .iter()
        .map(|&(seed, platform, precision)| {
            let mut node = Node::new(platform);
            let (l, b, h) = node.gpu_power_states(OpKind::Gemm, precision);
            let mut hook = Rotator {
                caps: vec![l, b, h],
                period: Secs(0.1),
                ticks: 0,
                max_ticks: 12,
            };
            let shape = Shape {
                nb: 1920,
                n_data: 24,
                precision,
            };
            let mut reg = DataRegistry::new();
            let g = random_graph(seed, 120, shape, &mut reg);
            let mut builder = TraceBuilder::new();
            simulate_controlled(
                &mut node,
                &g,
                &mut reg,
                SimOptions::default(),
                &mut PerfModel::new(),
                &mut [&mut builder],
                Some(&mut hook),
            );
            assert!(hook.ticks >= 2, "seed {seed}: the hook never re-capped");
            (
                format!("seed {seed} {platform}"),
                outcome(&builder.into_trace()),
            )
        })
        .collect();
    check("recap", &measured, &RECAP_GOLDENS);
}

const RANDOM_GOLDENS: [Outcome; 2] = [
    (0.32630071306522956, 111.64179624353402, 0, 0),
    (0.34569245112348257, 88.65665849753415, 0, 0),
];

/// StarPU's `random` policy draws each worker with probability
/// proportional to its speed on the task, from a seeded generator: the
/// draw order and the weights it reads are pinned together.
#[test]
fn random_policy_matches_goldens() {
    let cases = [
        (21, PlatformId::Amd4A100, 7u64),
        (22, PlatformId::Intel2V100, 8u64),
    ];
    let measured: Vec<(String, Outcome)> = cases
        .iter()
        .map(|&(seed, platform, draw_seed)| {
            let mut node = Node::new(platform);
            let mut reg = DataRegistry::new();
            let g = random_graph(seed, 120, SMALL, &mut reg);
            let opts = SimOptions {
                policy: SchedPolicy::Random { seed: draw_seed },
                ..SimOptions::default()
            };
            let t = simulate(&mut node, &g, &mut reg, opts);
            (format!("seed {seed} {platform} random"), outcome(&t))
        })
        .collect();
    check("random", &measured, &RANDOM_GOLDENS);
}

const NOISY_GOLDENS: [Outcome; 2] = [
    (0.4430818647938447, 130.5099093722843, 0, 0),
    (0.2839097043293518, 97.56051201530688, 0, 0),
];

/// A model calibrated with multiplicative noise (the model-accuracy
/// ablation): every sample of every (footprint, worker) pair is drawn from
/// one generator, so the order of the draws is pinned along with the
/// decisions the noisy history leads to. The 64-core platform calibrates
/// 62 CPU workers on two packages.
#[test]
fn noise_calibrated_model_matches_goldens() {
    let cases = [
        (23, PlatformId::Amd2A100, SchedPolicy::Dmdas),
        (24, PlatformId::Amd4A100, SchedPolicy::Dmda),
    ];
    let measured: Vec<(String, Outcome)> = cases
        .iter()
        .map(|&(seed, platform, policy)| {
            let mut node = Node::new(platform);
            let mut reg = DataRegistry::new();
            let g = random_graph(seed, 120, SMALL, &mut reg);
            let opts = SimOptions {
                policy,
                ..SimOptions::default()
            };
            let mut perf = PerfModel::new().with_calibration_noise(0.3, seed);
            let mut builder = TraceBuilder::new();
            simulate_observed(
                &mut node,
                &g,
                &mut reg,
                opts,
                &mut perf,
                &mut [&mut builder],
            );
            (
                format!("seed {seed} {platform} {} noisy", policy.name()),
                outcome(&builder.into_trace()),
            )
        })
        .collect();
    check("noisy", &measured, &NOISY_GOLDENS);
}

const STALE_GOLDENS: [Outcome; 4] = [
    (0.2450325970878559, 84.01582574503334, 0, 0),
    (0.2983719579726355, 101.45050163285804, 0, 0),
    (0.25902775410835155, 67.43176895683365, 0, 0),
    (0.30488596152094777, 77.79277506367501, 0, 0),
];

/// A model calibrated at full caps, then run frozen after every GPU is
/// re-capped to B or L. The history model still predicts the `H` kernel
/// times while the devices run slower, so each worker's predicted queue
/// end and its actual drain time part ways. These runs pin the rule that
/// pulls a prediction back to `now` once its worker has actually gone
/// idle, and leaves a busy worker's prediction alone: dropping the pull,
/// or applying it to a worker with tasks still queued, changes them.
#[test]
fn stale_model_after_recap_matches_goldens() {
    let cases = [
        (26, PlatformId::Amd4A100, "HHHH", "BBBB"),
        (25, PlatformId::Amd4A100, "HHHH", "LLLL"),
        (32, PlatformId::Intel2V100, "HH", "BB"),
        (29, PlatformId::Intel2V100, "HH", "LL"),
    ];
    let frozen = SimOptions {
        refine_models: false,
        ..SimOptions::default()
    };
    let set_caps = |node: &mut Node, letters: &str| {
        for (g, cap) in letter_caps(node, letters, SMALL.precision)
            .into_iter()
            .enumerate()
        {
            node.gpu_mut(g).set_power_limit(cap).unwrap();
        }
    };
    let measured: Vec<(String, Outcome)> = cases
        .iter()
        .map(|&(seed, platform, calibrated, run_at)| {
            let mut node = Node::new(platform);
            let mut reg = DataRegistry::new();
            let g = random_graph(seed, 120, SMALL, &mut reg);
            let mut perf = PerfModel::new();
            set_caps(&mut node, calibrated);
            simulate_observed(&mut node, &g, &mut reg, frozen, &mut perf, &mut []);
            set_caps(&mut node, run_at);
            let mut builder = TraceBuilder::new();
            simulate_observed(
                &mut node,
                &g,
                &mut reg,
                frozen,
                &mut perf,
                &mut [&mut builder],
            );
            (
                format!("seed {seed} {platform} {calibrated}->{run_at}"),
                outcome(&builder.into_trace()),
            )
        })
        .collect();
    check("stale", &measured, &STALE_GOLDENS);
}
