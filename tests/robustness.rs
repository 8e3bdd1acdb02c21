//! Robustness and determinism: the search must be stable under
//! profiling jitter (real measurements are noisy), byte-for-byte
//! reproducible across runs, and the fault-injection ladder must
//! degrade gracefully — typed events and verified replans, never
//! deadlocks or panics — for *any* seeded fault scenario.

use adapipe::{plan_io, ChaosConfig, Method, Planner};
use adapipe_faults::{DegradedCluster, Fault, FaultPlan};
use adapipe_hw::presets as hw;
use adapipe_memory::{MemoryModel, OptimizerSpec};
use adapipe_model::{presets, LayerSeq, ParallelConfig, TrainConfig};
use adapipe_obs::Recorder;
use adapipe_profiler::{NoiseConfig, Profiler};
use adapipe_recompute::{optimize, KnapsackConfig};
use adapipe_units::{Bytes, MicroSecs};
use proptest::prelude::*;
use std::path::Path;

#[test]
fn knapsack_is_stable_under_measurement_noise() {
    // Profile the same stage with ±5 % jitter under several seeds: the
    // chosen strategy's backward time must stay within a few percent of
    // the noiseless optimum, and the budget must always be respected.
    let model = presets::gpt3_175b();
    let parallel = ParallelConfig::new(8, 8, 1).unwrap();
    let train = TrainConfig::new(1, 4096, 128).unwrap();
    let seq = LayerSeq::for_model(&model);
    let range = seq.even_partition(8)[2];

    let clean_table = Profiler::new(hw::cluster_a()).profile(&model, &parallel, &train);
    let clean_units = clean_table.units_in(range);
    let budget = clean_units.iter().map(|u| u.mem_saved).sum::<Bytes>() * 60 / 100;
    let (cfg, off) = (KnapsackConfig::default(), Recorder::disabled());
    let clean = optimize(&clean_units, budget, cfg, &off).unwrap();

    for seed in 0..8 {
        let noisy_table = Profiler::new(hw::cluster_a())
            .with_noise(NoiseConfig {
                amplitude: 0.05,
                seed,
            })
            .profile(&model, &parallel, &train);
        let noisy_units = noisy_table.units_in(range);
        let noisy = optimize(&noisy_units, budget, cfg, &off).unwrap();
        assert!(noisy.cost.saved_bytes_per_mb <= budget, "seed {seed}");
        // Evaluate the noisy choice under the *clean* costs.
        let realized = adapipe_recompute::strategy::cost_of(&clean_units, &noisy.strategy);
        let rel = (realized.time_b - clean.cost.time_b).abs() / clean.cost.time_b;
        assert!(
            rel < 0.05,
            "seed {seed}: noisy strategy costs {rel:.3} more"
        );
    }
}

#[test]
fn planning_is_deterministic_across_planner_instances() {
    let parallel = ParallelConfig::new(8, 8, 1).unwrap();
    let train = TrainConfig::new(1, 4096, 128).unwrap();
    let run = || {
        let planner = Planner::new(presets::gpt3_175b(), hw::cluster_a());
        let plan = planner.plan(Method::AdaPipe, parallel, train).unwrap();
        let eval = planner.evaluate(&plan);
        (
            plan_io::to_text(&plan),
            eval.iteration_time,
            eval.peak_bytes_per_device,
        )
    };
    let (text_a, time_a, peaks_a) = run();
    let (text_b, time_b, peaks_b) = run();
    assert_eq!(text_a, text_b, "plan text differs across runs");
    assert_eq!(time_a, time_b, "simulated time differs across runs");
    assert_eq!(peaks_a, peaks_b, "peaks differ across runs");
}

#[test]
fn memory_budget_monotonicity_in_capacity() {
    // More usable memory never slows the adaptive plan down.
    let parallel = ParallelConfig::new(8, 8, 1).unwrap();
    let train = TrainConfig::new(1, 16384, 32).unwrap();
    let mut last = MicroSecs::new(f64::INFINITY);
    for headroom in [0.6f64, 0.7, 0.8, 0.9, 1.0] {
        let planner =
            Planner::new(presets::gpt3_175b(), hw::cluster_a()).with_search_headroom(headroom);
        let Ok(plan) = planner.plan(Method::AdaPipe, parallel, train) else {
            continue;
        };
        let t = planner.evaluate(&plan).iteration_time;
        assert!(t <= last * 1.001, "headroom {headroom}: {t} > {last}");
        last = t;
    }
    assert!(last.is_finite(), "no headroom produced a feasible plan");
}

#[test]
fn noisy_profiles_still_produce_feasible_plans() {
    // Algorithm 1 fed jittered profiles still finds a feasible 8-stage
    // plan. The jitter makes no two layers the same knapsack items, so
    // no two windows share a §5.3 class, and every stage carries its
    // own window's leaf. GPT-3 13B without tensor parallelism must
    // recompute on its first stage at this length, and its 82 layers
    // keep a plan of one-window classes cheap in a debug build.
    let model = presets::gpt3_13b();
    let parallel = ParallelConfig::new(1, 8, 1).unwrap();
    let train = TrainConfig::new(1, 8192, 64).unwrap();
    let seq = LayerSeq::for_model(&model);
    let mem = MemoryModel::new(model.clone(), parallel, OptimizerSpec::adam_fp32());

    let off = Recorder::disabled();
    for seed in [1u64, 2, 3] {
        let table = Profiler::new(hw::cluster_a())
            .with_noise(NoiseConfig {
                amplitude: 0.05,
                seed,
            })
            .profile(&model, &parallel, &train);
        let capacity = Bytes::new((hw::a100_80gb().usable_bytes().as_f64() * 0.875) as u64);
        let provider = adapipe_partition::KnapsackCostProvider::new(&seq, &table, &mem, capacity);
        let plan = adapipe_partition::algorithm1::solve_traced(&provider, seq.len(), 8, 64, &off)
            .expect("noisy profile still feasible");
        assert_eq!(plan.ranges.len(), 8);
        assert!(plan.iteration_time().is_finite());
        for (s, (&r, times)) in plan.ranges.iter().zip(&plan.stage_times).enumerate() {
            let own = provider.optimize_stage(s, r).expect("stage fits");
            assert_eq!(
                *times,
                adapipe_partition::StageTimes::from(&own.cost),
                "seed {seed}: stage {s} {r}"
            );
        }
    }
}

/// A small world the chaos property tests share: gpt2 on one node of
/// cluster A at (t=2, p=4).
fn chaos_world() -> (Planner, ParallelConfig, TrainConfig) {
    let planner = Planner::new(presets::gpt2_small(), hw::cluster_a_with_nodes(1));
    let parallel = ParallelConfig::new(2, 4, 1).unwrap();
    let train = TrainConfig::new(1, 512, 16).unwrap();
    (planner, parallel, train)
}

fn read_golden(rel: &str) -> String {
    // CARGO_MANIFEST_DIR is crates/adapipe; the shared fixtures live at
    // the workspace root.
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

proptest! {
    // Each case is a full plan → inject → detect → replan cycle;
    // 16 cases keeps the suite under a few seconds.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any seeded fault scenario terminates with typed events — the
    /// chaos run never deadlocks or panics — and whenever the ladder
    /// escalates to a replan, the replanned artifact passes the static
    /// verifier with zero error-severity diagnostics.
    #[test]
    fn arbitrary_fault_plans_degrade_gracefully(
        seed in 0u64..1_000_000,
        straggler_device in 0usize..8,
        factor in 0.4f64..1.0,
        shrink_mib in 0u64..48,
        stall_device in 0usize..8,
        stall_micro_batch in 0usize..16,
        delay_us in 0.0f64..20_000.0,
    ) {
        let (planner, parallel, train) = chaos_world();
        let faults = FaultPlan::new(seed)
            .with(Fault::Straggler {
                device: straggler_device,
                factor,
                from_step: 0,
            })
            .with(Fault::MemoryPressure {
                stage: straggler_device % 4,
                shrink: Bytes::from_mib(shrink_mib),
            })
            .with(Fault::TransientStall {
                device: stall_device,
                micro_batch: stall_micro_batch,
                delay: MicroSecs::new(delay_us),
            });
        let degraded = DegradedCluster::new(hw::cluster_a_with_nodes(1), faults);
        // Typed result, not a panic or a hang: injection may slow and
        // stall tasks but must never corrupt the 1F1B DAG.
        let outcome = planner
            .chaos_run(parallel, train, &degraded, &ChaosConfig::default())
            .expect("chaos run must terminate with typed events");
        if let Some(plan) = &outcome.replan.plan {
            let report = planner.verify(plan);
            prop_assert_eq!(
                report.error_count(), 0,
                "replanned plan failed verification:\n{}", report
            );
        }
        if let Some(report) = &outcome.verify {
            prop_assert_eq!(report.error_count(), 0, "chaos verify: {}", report);
        }
    }
}

/// The checked-in chaos scenario (stage-2 straggler at 0.6× compute) is
/// pinned byte-for-byte: same fault file, same report, same replanned
/// plan. Any drift in the watchdog, the ladder, or the report format is
/// a reviewable diff, not a silent behaviour change. Regenerate with:
/// `cargo run -p adapipe-cli -- chaos --faults tests/golden/chaos/straggler_stage2.faults
///    --out ... --replan-out ... --model gpt2 --cluster a --nodes 1
///    --tensor 2 --pipeline 4 --seq 512 --global-batch 16`
#[test]
fn golden_chaos_scenario_is_pinned_byte_for_byte() {
    let faults =
        FaultPlan::from_text(&read_golden("tests/golden/chaos/straggler_stage2.faults")).unwrap();
    let (planner, parallel, train) = chaos_world();
    let degraded = DegradedCluster::new(hw::cluster_a_with_nodes(1), faults);
    let outcome = planner
        .chaos_run(parallel, train, &degraded, &ChaosConfig::default())
        .unwrap();

    let report = read_golden("tests/golden/chaos/straggler_stage2.report");
    assert_eq!(outcome.report, report, "chaos report drifted");
    assert!(report.contains("action = replan"), "{report}");
    assert!(report.contains("improved = true"), "{report}");

    let replanned = outcome
        .replan
        .plan
        .expect("straggler escalates to a replan");
    let golden = read_golden("tests/golden/chaos/straggler_stage2.replan");
    assert_eq!(
        plan_io::to_text(&replanned),
        golden,
        "replanned plan drifted"
    );
    assert!(
        golden.starts_with("adapipe-plan v2"),
        "replanned golden must carry the v2 units header"
    );
}
