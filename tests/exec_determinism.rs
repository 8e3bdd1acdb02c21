//! Determinism laws for the parallel search engine (`docs/parallel.md`):
//! attaching the exec pool or sharing the §5.3 class table across plans
//! must never change a single byte of an emitted plan. The pool only
//! *prefills* isomorphism-class representatives — the DP itself stays
//! serial — and a shared table holds exactly what a private one would,
//! with each slot's save flags re-costed against the materialized
//! window, so both layers are byte-transparent by construction. These
//! tests pin that law.

use std::sync::Arc;

use adapipe::{plan_io, Method, Planner};
use adapipe_exec::ExecPool;
use adapipe_hw::presets as hw;
use adapipe_model::{presets, ParallelConfig, TrainConfig};
use adapipe_obs::{keys, Recorder};
use adapipe_partition::subcache::ClassTables;
use proptest::prelude::*;

fn gpt2_planner() -> Planner {
    Planner::new(presets::gpt2_small(), hw::cluster_a_with_nodes(1))
}

fn text_of(
    planner: &Planner,
    method: Method,
    parallel: ParallelConfig,
    train: TrainConfig,
) -> String {
    let plan = planner
        .plan(method, parallel, train)
        .unwrap_or_else(|e| panic!("{method} must plan on a loose configuration: {e}"));
    plan_io::to_text(&plan)
}

/// The same AdaPipe plan, byte for byte, with no pool and with pools of
/// 1, 2 and 8 workers: thread count is not allowed to leak into search
/// results.
#[test]
fn adapipe_plans_are_byte_identical_at_any_thread_count() {
    let parallel = ParallelConfig::new(2, 4, 1).expect("valid");
    let train = TrainConfig::new(1, 1024, 32).expect("valid");
    let baseline = text_of(&gpt2_planner(), Method::AdaPipe, parallel, train);
    for threads in [1usize, 2, 8] {
        let pooled = gpt2_planner().with_exec_pool(Arc::new(ExecPool::new(threads)));
        let text = text_of(&pooled, Method::AdaPipe, parallel, train);
        assert_eq!(
            text, baseline,
            "plan diverged from the sequential baseline at {threads} worker(s)"
        );
    }
}

/// Sharing the class table is byte-transparent: with it on, a plan at
/// global batch 32 (cold) and then one at 64 (warm: the same instance,
/// another n) emit exactly the uncached bytes, for both adaptive
/// methods, and the warm plan evaluates no knapsack leaf.
#[test]
fn shared_subcache_replays_byte_identical_plans() {
    let gpt3 = Planner::new(presets::gpt3_175b(), hw::cluster_a_with_nodes(8));
    for (planner, (t, p, seq)) in [(gpt2_planner(), (2, 4, 1024)), (gpt3, (8, 8, 4096))] {
        let parallel = ParallelConfig::new(t, p, 1).expect("valid");
        let tables = Arc::new(ClassTables::default());
        for method in [Method::AdaPipe, Method::EvenPartitioning] {
            for global_batch in [32, 64] {
                let train = TrainConfig::new(1, seq, global_batch).expect("valid");
                let uncached = text_of(&planner, method, parallel, train);
                let rec = Recorder::new();
                let shared = planner
                    .clone()
                    .with_class_tables(Arc::clone(&tables))
                    .with_recorder(rec.clone());
                let text = text_of(&shared, method, parallel, train);
                let name = format!("{} {method} gbs {global_batch}", planner.model().name());
                assert_eq!(text, uncached, "{name}: cached plan diverged");
                if global_batch == 64 {
                    let snap = rec.snapshot();
                    let evals = snap.counters.get(keys::PARTITION_LEAF_EVALS);
                    assert_eq!(
                        evals.copied().unwrap_or(0),
                        0,
                        "{name}: warm plan evaluated leaves"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Pool + shared class tables together, against the sequential
    /// baseline, across randomized shapes: the full daemon configuration
    /// (what adapipe-serve runs) is byte-transparent too. Each case plans
    /// twice on one `ClassTables`: cold, then warm at another global
    /// batch and another thread count, so every case also checks a warm
    /// table against the serial plan, and the warm plan evaluates no leaf.
    #[test]
    fn daemon_configuration_is_byte_transparent(
        seq_kb in 1usize..=4,
        gbs_chunks in 1usize..=4,
        threads in 2usize..=6,
        warm_threads in 1usize..=6,
    ) {
        let parallel = ParallelConfig::new(2, 4, 1).expect("valid");
        let tables = Arc::new(ClassTables::default());
        let warm_chunks = gbs_chunks % 4 + 1;
        for (chunks, threads) in [(gbs_chunks, threads), (warm_chunks, warm_threads)] {
            let train = TrainConfig::new(1, seq_kb * 512, chunks * 16).expect("valid");
            let baseline = text_of(&gpt2_planner(), Method::AdaPipe, parallel, train);
            let rec = Recorder::new();
            let daemon = gpt2_planner()
                .with_exec_pool(Arc::new(ExecPool::new(threads)))
                .with_class_tables(Arc::clone(&tables))
                .with_recorder(rec.clone());
            let text = text_of(&daemon, Method::AdaPipe, parallel, train);
            prop_assert_eq!(text, baseline);
            if chunks == warm_chunks {
                let evals = rec.snapshot().counters.get(keys::PARTITION_LEAF_EVALS).copied();
                prop_assert_eq!(evals.unwrap_or(0), 0, "warm plan evaluated leaves");
            }
        }
    }
}
