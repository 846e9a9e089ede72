//! Property-based tests over the core invariants.

// Test helpers may unwrap (clippy's allow-unwrap-in-tests does not
// reach helper fns in integration-test files).
#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use ugpc::hwsim::{DvfsParams, EnergyLedger, Joules, Secs, Watts};
use ugpc::linalg::{build_potrf, PotrfOp};
use ugpc::prelude::*;
use ugpc::runtime::{execute_in_order, AccessMode, DataRegistry, KernelKind, TaskDesc, TaskGraph};

mod common;

fn arb_dvfs() -> impl Strategy<Value = DvfsParams> {
    // Physical parameter ranges; constrain so the knee is interior.
    (
        20.0..80.0f64,   // static W
        100.0..350.0f64, // dynamic W
        0.70..0.95f64,   // vmin
        0.05..0.30f64,   // knee depth d: knee = 1 - d
        0.05..0.40f64,   // x_min
    )
        .prop_map(|(s, d, vmin, depth, x_min)| DvfsParams {
            static_power: Watts(s),
            dyn_power: Watts(d),
            vmin,
            k: (1.0 - vmin) / depth,
            x_min: x_min.min(1.0 - depth - 0.05).max(0.01),
        })
        .prop_filter("valid model", |p| p.validate().is_ok())
}

/// Finite `f64`s from three pools: any bit pattern (subnormals, huge
/// exponents, both zeros), plain decimals, and the edges of the shim's
/// integral-print rule.
fn arb_finite_f64() -> impl Strategy<Value = f64> {
    const EDGES: [f64; 10] = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        9_007_199_254_740_991.0,
        9_007_199_254_740_992.0,
        -9_007_199_254_740_994.0,
        0.1,
    ];
    (0u8..3, 0..u64::MAX, -1e6..1e6f64)
        .prop_map(|(pool, bits, decimal)| match pool {
            0 => f64::from_bits(bits),
            1 => decimal,
            _ => EDGES[(bits % EDGES.len() as u64) as usize],
        })
        .prop_filter("finite", |x| x.is_finite())
}

/// One char from the classes a JSON string writer must get right: the
/// two escaped ASCII chars, control characters below 0x20, printable
/// ASCII, BMP code points above ASCII (surrogates skipped), and non-BMP
/// code points.
fn arb_json_char() -> impl Strategy<Value = char> {
    (0u8..6, 0..u32::MAX).prop_map(|(class, raw)| {
        let code = match class {
            0 => u32::from('"'),
            1 => u32::from('\\'),
            2 => raw % 0x20,
            3 => 0x20 + raw % (0x7f - 0x20),
            4 => {
                let c = 0x80 + raw % (0xD800 - 0x80 + 0x1_0000 - 0xE000);
                if c < 0xD800 {
                    c
                } else {
                    c + 0x800
                }
            }
            _ => 0x1_0000 + raw % (0x11_0000 - 0x1_0000),
        };
        char::from_u32(code).unwrap()
    })
}

proptest! {
    /// The governor never exceeds the cap (unless pinned at x_min) and is
    /// monotone in the cap.
    #[test]
    fn governor_respects_and_is_monotone(params in arb_dvfs(), caps in proptest::collection::vec(10.0..500.0f64, 2..20)) {
        let mut sorted = caps.clone();
        sorted.sort_by(f64::total_cmp);
        let mut last_x = 0.0;
        for c in sorted {
            let cap = Watts(c);
            let x = params.freq_for_cap(cap, 1.0);
            prop_assert!(x >= params.x_min - 1e-12 && x <= 1.0);
            prop_assert!(x >= last_x - 1e-9, "not monotone");
            last_x = x;
            let draw = params.power(x, 1.0);
            prop_assert!(
                draw.value() <= cap.value() + 1e-6 || (x - params.x_min).abs() < 1e-9,
                "draw {draw} over cap {cap} at x={x}"
            );
        }
    }

    /// Below the voltage floor, efficiency is strictly increasing in the
    /// clock (capping below the knee is a pure loss) — true for every
    /// physical parameterization.
    #[test]
    fn efficiency_increasing_below_knee(params in arb_dvfs()) {
        let knee = params.knee();
        let mut last = 0.0;
        for i in 0..=30 {
            let x = params.x_min + (knee - params.x_min) * i as f64 / 30.0;
            let e = params.relative_efficiency(x);
            prop_assert!(e >= last, "not increasing at x={x}");
            last = e;
        }
    }

    /// When the super-linear branch is steep enough
    /// (`2·D·Vmin·k·knee² > S`, satisfied by every calibrated model in the
    /// catalog), the efficiency optimum of a saturating kernel sits
    /// exactly at the knee.
    #[test]
    fn efficiency_peak_at_knee_for_steep_models(
        params in arb_dvfs().prop_filter("steep", |p| {
            let knee = p.knee();
            2.0 * p.dyn_power.value() * p.vmin * p.k * knee * knee
                > p.static_power.value()
        })
    ) {
        let knee = params.knee();
        let e_knee = params.relative_efficiency(knee);
        for i in 0..50 {
            let x = params.x_min + (1.0 - params.x_min) * (i as f64 + 0.5) / 50.0;
            prop_assert!(params.relative_efficiency(x) <= e_knee + 1e-12);
        }
    }

    /// Every calibrated catalog model satisfies the steepness condition,
    /// so its sweep optimum is its knee.
    #[test]
    fn catalog_models_are_steep(idx in 0usize..3, dp in proptest::bool::ANY) {
        let model = GpuModel::ALL[idx];
        let spec = ugpc::hwsim::GpuSpec::of(model);
        let p = spec.dvfs.get(if dp { Precision::Double } else { Precision::Single });
        let knee = p.knee();
        prop_assert!(
            2.0 * p.dyn_power.value() * p.vmin * p.k * knee * knee
                > p.static_power.value(),
            "{model}: calibrated model not knee-optimal"
        );
    }

    /// Energy ledger: total energy equals busy + idle integration, and is
    /// monotone in the query time.
    #[test]
    fn ledger_integration(
        idle in 0.0..100.0f64,
        intervals in proptest::collection::vec((0.0..10.0f64, 0.0..5.0f64, 1.0..400.0f64), 0..20),
    ) {
        let mut ledger = EnergyLedger::new(Watts(idle));
        let mut t = 0.0;
        let mut busy_e = 0.0;
        let mut busy_t = 0.0;
        for (gap, dur, w) in intervals {
            let start = t + gap;
            let end = start + dur;
            ledger.record(Secs(start), Secs(end), Watts(w));
            busy_e += w * dur;
            busy_t += dur;
            t = end;
        }
        let horizon = t + 1.0;
        let total = ledger.energy_until(Secs(horizon));
        let expect = busy_e + idle * (horizon - busy_t);
        prop_assert!((total.value() - expect).abs() < 1e-6 * (1.0 + expect.abs()));
        let later = ledger.energy_until(Secs(horizon + 5.0));
        prop_assert!(later.value() >= total.value() - 1e-9);
    }

    /// Dependency inference: for any random sequence of accesses, every
    /// seeded random topological order is accepted and runs each task
    /// exactly once, after its predecessors.
    #[test]
    fn random_graphs_execute_correctly(
        accesses in proptest::collection::vec(
            proptest::collection::vec((0usize..6, 0u8..3), 1..4),
            1..40,
        ),
        seed in 0u64..1_000_000,
    ) {
        let mut g = TaskGraph::new();
        for task_accesses in &accesses {
            let mut t = TaskDesc::new(KernelKind::Gemm, Precision::Double, 4);
            let mut seen = std::collections::HashSet::new();
            for &(data, mode) in task_accesses {
                if !seen.insert(data) {
                    continue; // one access per handle per task
                }
                let mode = match mode {
                    0 => AccessMode::Read,
                    1 => AccessMode::Write,
                    _ => AccessMode::ReadWrite,
                };
                t = t.access(data, mode);
            }
            g.submit(t);
        }
        let order = common::random_topological_order(&g, seed);
        let mut done = vec![false; g.len()];
        execute_in_order(&g, &order, |t| {
            assert!(!done[t], "task {t} ran twice");
            assert!(g.predecessors(t).iter().all(|&p| done[p]), "task {t} ran early");
            done[t] = true;
            Ok::<(), ()>(())
        })
        .unwrap();
        prop_assert!(done.iter().all(|&d| d));
    }

    /// The simulator conserves sanity for arbitrary small GEMM problems:
    /// energy ≥ idle floor, perf > 0, every task placed.
    #[test]
    fn simulation_invariants(nt in 2usize..5, seed in 0u64..3) {
        let _ = seed;
        let mut node = Node::new(PlatformId::Amd4A100);
        let mut reg = DataRegistry::new();
        let op = ugpc::linalg::build_gemm(nt, 512, Precision::Double, &mut reg);
        let trace = ugpc::runtime::simulate(
            &mut node, &op.graph, &mut reg, ugpc::runtime::SimOptions::default(),
        );
        prop_assert_eq!(trace.cpu_tasks + trace.gpu_tasks, nt * nt * nt);
        prop_assert!(trace.makespan > Secs::ZERO);
        // Whole-node idle floor: 4 GPUs + 1 CPU uncore.
        let floor = (4.0 * 50.0 + 60.0) * trace.makespan.value();
        prop_assert!(trace.total_energy() > Joules(floor * 0.99));
        // Efficiency bounded by peak/min-power.
        prop_assert!(trace.efficiency().as_gflops_per_watt() < 200.0);
    }

    /// For any random access pattern, `critical_path` returns a real
    /// dependency chain: consecutive tasks are predecessor-linked, ids
    /// are strictly increasing (submission order is topological), its
    /// length matches `critical_path_len`, and no longer chain exists.
    #[test]
    fn critical_path_is_a_maximal_dependency_chain(
        accesses in proptest::collection::vec(
            proptest::collection::vec((0usize..6, 0u8..3), 1..4),
            1..40,
        ),
    ) {
        let mut g = TaskGraph::new();
        for task_accesses in &accesses {
            let mut t = TaskDesc::new(KernelKind::Gemm, Precision::Double, 4);
            let mut seen = std::collections::HashSet::new();
            for &(data, mode) in task_accesses {
                if !seen.insert(data) {
                    continue;
                }
                let mode = match mode {
                    0 => AccessMode::Read,
                    1 => AccessMode::Write,
                    _ => AccessMode::ReadWrite,
                };
                t = t.access(data, mode);
            }
            g.submit(t);
        }
        let path = g.critical_path();
        prop_assert_eq!(path.len(), g.critical_path_len());
        prop_assert!(!path.is_empty(), "non-empty graph has a non-empty path");
        for pair in path.windows(2) {
            prop_assert!(pair[0] < pair[1], "submission order is topological");
            prop_assert!(
                g.predecessors(pair[1]).contains(&pair[0]),
                "consecutive path tasks must be dependency-linked: {} -> {}",
                pair[0],
                pair[1]
            );
        }
        // Maximality: longest-path depths computed independently must
        // never exceed the claimed path length.
        let mut depth = vec![1usize; g.len()];
        for t in 0..g.len() {
            for &p in g.predecessors(t) {
                depth[t] = depth[t].max(depth[p] + 1);
            }
        }
        prop_assert_eq!(
            depth.iter().copied().max().unwrap_or(0),
            path.len(),
            "critical path must be a longest chain"
        );
    }

    /// POTRF task-count formulas hold for arbitrary tile counts.
    #[test]
    fn potrf_formulas(nt in 1usize..15) {
        let mut reg = DataRegistry::new();
        let op = build_potrf(nt, 4, Precision::Single, &mut reg);
        prop_assert_eq!(op.graph.len(), PotrfOp::expected_tasks(nt));
        prop_assert_eq!(op.graph.count_kind(KernelKind::Gemm), PotrfOp::expected_gemms(nt));
        if nt > 1 {
            prop_assert_eq!(op.graph.edge_count(), PotrfOp::expected_edges(nt));
        }
    }

    /// Cap configuration strings round-trip.
    #[test]
    fn cap_config_round_trip(levels in proptest::collection::vec(0u8..3, 1..8)) {
        let s: String = levels
            .iter()
            .map(|l| match l { 0 => 'H', 1 => 'B', _ => 'L' })
            .collect();
        let parsed: CapConfig = s.parse().unwrap();
        prop_assert_eq!(parsed.to_string(), s);
    }

    /// The JSON shim carries every number as an `f64`; a finite `f64`
    /// must come back `==` to what was written. Signed zero is the one
    /// value whose bits change: `-0.0` takes the integral-print path,
    /// is written as `0` and reads back as `+0.0`, which `==` treats as
    /// equal. Reply bytes depend on that spelling, so it is pinned too.
    #[test]
    fn json_shim_round_trips_finite_f64(x in arb_finite_f64()) {
        let text = serde_json::to_string(&x).unwrap();
        let back: f64 = serde_json::from_str(&text).unwrap();
        prop_assert!(back == x, "{x:?} -> {text} -> {back:?}");
        if x == 0.0 {
            prop_assert_eq!(text.as_str(), "0");
        }
    }

    /// Integers inside the f64-exact range (|n| < 2⁵³) round-trip and
    /// print as plain decimal digits, with no fraction or exponent.
    #[test]
    fn json_shim_round_trips_safe_integers(n in -9_007_199_254_740_991i64..9_007_199_254_740_992) {
        let text = serde_json::to_string(&n).unwrap();
        prop_assert_eq!(&text, &n.to_string());
        let back: i64 = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(back, n);
        if let Ok(u) = u64::try_from(n) {
            let back: u64 = serde_json::from_str(&serde_json::to_string(&u).unwrap()).unwrap();
            prop_assert_eq!(back, u);
        }
    }

    /// Strings with quotes, backslashes, control characters, and BMP and
    /// non-BMP unicode round-trip exactly, and the written form keeps
    /// every control character escaped.
    #[test]
    fn json_shim_round_trips_escaped_strings(chars in proptest::collection::vec(arb_json_char(), 0..40)) {
        let s: String = chars.into_iter().collect();
        let text = serde_json::to_string(&s).unwrap();
        prop_assert!(!text.chars().any(|c| u32::from(c) < 0x20), "raw control char in {text:?}");
        let back: String = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(back, s);
    }
}
