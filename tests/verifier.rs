//! Static-verification suite: every plan the planner emits must pass
//! `Planner::verify`, and corrupted plans must be rejected with the
//! right diagnostic (mutation testing of the verifier itself).
//!
//! The corruption classes mirror `docs/static-analysis.md`:
//!   1. gapped/overlapping partition   → `partition-gap`
//!   2. stale per-stage cost           → `cost-drift`
//!   3. activation memory over budget  → `budget-overflow`
//!   4. cyclic task dependencies       → `cycle-detected`
//!   5. wrong stage count              → `stage-count`
//!   6. tampered analytic breakdown    → `breakdown-drift`
//!   7. reordered fixed-order script   → `device-order-deadlock`
//!
//! The task-graph check must also agree with the engine it stands in
//! for: it reports a deadlock exactly when `simulate` returns one.

use adapipe::{CheckCode, Method, Plan, Planner, Recorder, VerifyOptions};
use adapipe_check::check_task_graph;
use adapipe_hw::presets as hw;
use adapipe_model::{presets, LayerRange, ParallelConfig, TrainConfig};
use adapipe_sim::{
    schedule, simulate, Discipline, OpKind, SimError, StageExec, TaskGraph, TaskMeta,
};
use adapipe_units::{Bytes, MicroSecs};
use proptest::prelude::*;

type TestResult = Result<(), Box<dyn std::error::Error>>;

fn planner() -> Planner {
    Planner::new(presets::gpt2_small(), hw::cluster_a())
}

fn valid_plan(method: Method) -> Result<(Planner, Plan), Box<dyn std::error::Error>> {
    let planner = planner();
    let parallel = ParallelConfig::new(2, 4, 1)?;
    let train = TrainConfig::new(1, 1024, 32)?;
    let plan = planner.plan(method, parallel, train)?;
    Ok((planner, plan))
}

// ---------------------------------------------------------------------
// Acceptance: every plan from every method verifies clean, including
// the §5.3 class check for the adaptive methods.

#[test]
fn every_method_produces_a_plan_that_verifies_clean() -> TestResult {
    let planner = planner();
    let parallel = ParallelConfig::new(2, 4, 1)?;
    let train = TrainConfig::new(1, 1024, 32)?;
    for method in Method::all() {
        let Ok(plan) = planner.plan(method, parallel, train) else {
            continue; // infeasible under this config — nothing to verify
        };
        let report = planner.verify(&plan);
        assert!(!report.has_errors(), "{method}: {report}");
    }
    Ok(())
}

#[test]
fn llama_preset_plans_verify_clean() -> TestResult {
    let planner = Planner::new(presets::llama2_70b(), hw::cluster_a_with_nodes(8));
    let parallel = ParallelConfig::new(8, 8, 1)?;
    let train = TrainConfig::new(1, 4096, 64)?;
    for method in [
        Method::AdaPipe,
        Method::EvenPartitioning,
        Method::DappleFull,
    ] {
        let Ok(plan) = planner.plan(method, parallel, train) else {
            continue;
        };
        let report = planner.verify(&plan);
        assert!(!report.has_errors(), "{method}: {report}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any (p, n) the planner accepts yields a plan the verifier accepts —
    /// the planner and verifier agree on every invariant by construction.
    #[test]
    fn planner_output_always_verifies(
        p in 2usize..=6,
        n_scale in 1usize..=3,
        method_idx in 0usize..13,
    ) {
        let method = Method::all()[method_idx % Method::all().len()];
        let planner = planner();
        let Ok(parallel) = ParallelConfig::new(2, p, 1) else {
            return Ok(());
        };
        // n chosen as a positive multiple of p so Chimera configs are
        // representable too; other methods accept any n >= p.
        let Ok(train) = TrainConfig::new(1, 1024, 2 * p * n_scale) else {
            return Ok(());
        };
        let Ok(plan) = planner.plan(method, parallel, train) else {
            return Ok(());
        };
        let report = planner.verify_with(&plan, VerifyOptions::default());
        prop_assert!(!report.has_errors(), "{method} p={p}: {report}");
    }
}

// ---------------------------------------------------------------------
// Mutation tests: each corruption class must be rejected with the right
// diagnostic code.

#[test]
fn corruption_gapped_partition_is_rejected() -> TestResult {
    let (planner, mut plan) = valid_plan(Method::AdaPipe)?;
    let r = plan.stages[1].range;
    plan.stages[1].range = LayerRange::new(r.first + 1, r.last);
    let report = planner.verify_with(&plan, VerifyOptions::default());
    assert!(report.has_errors(), "gapped partition accepted:\n{report}");
    assert!(
        report.has_code(CheckCode::PartitionGap),
        "wrong diagnostic:\n{report}"
    );
    Ok(())
}

#[test]
fn corruption_overlapping_partition_is_rejected() -> TestResult {
    let (planner, mut plan) = valid_plan(Method::AdaPipe)?;
    let r = plan.stages[0].range;
    plan.stages[0].range = LayerRange::new(r.first, r.last + 1);
    let report = planner.verify_with(&plan, VerifyOptions::default());
    assert!(report.has_code(CheckCode::PartitionGap), "{report}");
    Ok(())
}

#[test]
fn corruption_stale_cost_is_rejected() -> TestResult {
    // A cached cost that no longer matches its strategy — the bug class
    // the iso-cache soundness argument (§5.3) exists to prevent.
    let (planner, mut plan) = valid_plan(Method::AdaPipe)?;
    plan.stages[2].cost.time_f = plan.stages[2].cost.time_f * 2.0;
    let report = planner.verify_with(&plan, VerifyOptions::default());
    assert!(report.has_errors(), "stale cost accepted:\n{report}");
    assert!(
        report.has_code(CheckCode::CostDrift),
        "wrong diagnostic:\n{report}"
    );
    Ok(())
}

#[test]
fn corruption_memory_overflow_is_rejected() -> TestResult {
    let (planner, mut plan) = valid_plan(Method::AdaPipe)?;
    // Claim far more live intermediates than the device holds. Both the
    // accounting identity and the Eq. (1) budget must fire.
    plan.stages[0].memory.intermediate_bytes = 10 * planner.capacity();
    let report = planner.verify_with(&plan, VerifyOptions::default());
    assert!(report.has_errors(), "overflow accepted:\n{report}");
    assert!(
        report.has_code(CheckCode::BudgetOverflow),
        "missing budget-overflow:\n{report}"
    );
    assert!(
        report.has_code(CheckCode::MemoryAccounting),
        "missing memory-accounting:\n{report}"
    );
    Ok(())
}

#[test]
fn corruption_stage_count_is_rejected() -> TestResult {
    let (planner, mut plan) = valid_plan(Method::AdaPipe)?;
    plan.stages.pop();
    let report = planner.verify_with(&plan, VerifyOptions::default());
    assert!(report.has_code(CheckCode::StageCount), "{report}");
    Ok(())
}

#[test]
fn corruption_breakdown_drift_is_rejected() -> TestResult {
    let (planner, mut plan) = valid_plan(Method::AdaPipe)?;
    if let Some(bd) = plan.predicted.as_mut() {
        bd.warmup = bd.warmup * 3.0;
    }
    let report = planner.verify_with(&plan, VerifyOptions::default());
    assert!(report.has_code(CheckCode::BreakdownDrift), "{report}");
    Ok(())
}

#[test]
fn corruption_cyclic_dependency_is_rejected() {
    // The task-graph check rejects cycles introduced after construction
    // (push() alone cannot create one — deps must precede their task).
    let meta = |m: usize, s: usize| TaskMeta {
        kind: OpKind::Forward,
        micro_batch: m,
        stage: s,
        replica: 0,
    };
    let mut g = TaskGraph::new("cyclic", 2, Discipline::GreedyPriority);
    let a = g.push(
        0,
        MicroSecs::new(1.0),
        vec![],
        Bytes::ZERO,
        Bytes::ZERO,
        0,
        meta(0, 0),
    );
    let b = g.push(
        1,
        MicroSecs::new(1.0),
        vec![(a, MicroSecs::ZERO)],
        Bytes::ZERO,
        Bytes::ZERO,
        1,
        meta(0, 1),
    );
    g.add_dep(a, b, MicroSecs::ZERO); // a -> b -> a
    let diags = check_task_graph(&g);
    assert!(
        diags.iter().any(|d| d.code == CheckCode::CycleDetected),
        "cycle not detected: {diags:?}"
    );
}

#[test]
fn corruption_swapped_script_is_rejected() -> TestResult {
    // A real 1F1B plan's graph with stage 1's F and B of micro-batch 5
    // trading script places: B then heads F in the device's queue, but
    // waits on it through stages 2 and 3.
    let (_, plan) = valid_plan(Method::DappleFull)?;
    let execs: Vec<StageExec> = plan
        .stages
        .iter()
        .map(|st| StageExec {
            time_f: st.cost.time_f,
            time_b: st.cost.time_b,
            saved_bytes: st.cost.saved_bytes_per_mb,
            buffer_bytes: st.memory.buffer_bytes,
        })
        .collect();
    let mut g = schedule::one_f_one_b(&execs, plan.n_microbatches, MicroSecs::new(0.5));
    assert!(check_task_graph(&g).is_empty());
    let find = |kind| {
        (0..g.len())
            .find(|&t| {
                let m = g.task_meta(t);
                (m.kind, m.micro_batch, m.stage) == (kind, 5, 1)
            })
            .ok_or("task not found")
    };
    let (f, b) = (find(OpKind::Forward)?, find(OpKind::Backward)?);
    g.swap_priorities(f, b);
    let diags = check_task_graph(&g);
    assert!(
        diags
            .iter()
            .any(|d| d.code == CheckCode::DeviceOrderDeadlock),
        "swapped script accepted: {diags:?}"
    );
    assert!(
        matches!(
            simulate(&g, &Recorder::disabled()),
            Err(SimError::Deadlock { .. })
        ),
        "the engine ran the swapped script"
    );
    Ok(())
}

/// Per-stage profiles of a small pipeline with uneven stages.
fn execs(count: usize) -> Vec<StageExec> {
    (0..count)
        .map(|s| StageExec {
            time_f: MicroSecs::new(1.0 + (s % 3) as f64),
            time_b: MicroSecs::new(2.0 + (s % 2) as f64),
            saved_bytes: Bytes::new(10),
            buffer_bytes: Bytes::new(1),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The static check reports `cycle-detected` or
    /// `device-order-deadlock` exactly when the engine deadlocks, on
    /// every generator's graphs and on seeded mutations of them: two
    /// tasks of one device trading priorities, or one extra dependency.
    #[test]
    fn task_graph_check_agrees_with_the_engine(
        family in 0usize..4,
        p_seed in 1usize..=5,
        n_seed in 1usize..=3,
        extra in 0usize..4,
        mutation in 0usize..3,
        a in 0usize..100_000,
        b in 0usize..100_000,
    ) {
        let p2p = MicroSecs::new(0.25);
        let mut g = match family {
            0 => schedule::one_f_one_b(&execs(p_seed), p_seed * n_seed + extra, p2p),
            1 => schedule::gpipe(&execs(p_seed), n_seed + extra, p2p),
            2 => {
                let p = 2 * p_seed.div_ceil(2);
                schedule::chimera(&execs(p), p * n_seed, p2p, extra % 2 == 1)
            }
            _ => {
                let v = 1 + extra % 2;
                schedule::interleaved(&execs(v * p_seed), p_seed, p_seed * n_seed + extra, p2p)
            }
        };
        match mutation {
            1 => {
                let queues = g.device_queues();
                let queue = &queues[a % queues.len()];
                if !queue.is_empty() {
                    g.swap_priorities(queue[a / 7 % queue.len()], queue[b % queue.len()]);
                }
            }
            2 => g.add_dep(a % g.len(), b % g.len(), MicroSecs::ZERO),
            _ => {}
        }
        let flagged = check_task_graph(&g).iter().any(|d| {
            matches!(d.code, CheckCode::CycleDetected | CheckCode::DeviceOrderDeadlock)
        });
        let deadlocked = matches!(
            simulate(&g, &Recorder::disabled()),
            Err(SimError::Deadlock { .. })
        );
        prop_assert_eq!(flagged, deadlocked, "{} mutation {}", g.name(), mutation);
        prop_assert!(mutation != 0 || !deadlocked, "{} deadlocked unmutated", g.name());
    }
}

#[test]
fn corrupted_plans_name_the_offending_stage() -> TestResult {
    let (planner, mut plan) = valid_plan(Method::AdaPipe)?;
    plan.stages[2].cost.time_f = plan.stages[2].cost.time_f * 2.0;
    let report = planner.verify_with(&plan, VerifyOptions::default());
    let text = report.to_string();
    assert!(
        text.contains("stage 2"),
        "diagnostic does not name stage 2:\n{text}"
    );
    Ok(())
}
