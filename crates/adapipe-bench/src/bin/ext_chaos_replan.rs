//! Extension: replan latency after a detected straggler.
//!
//! AdaPipe's search is offline in the paper; once a straggler is
//! detected at runtime the re-run of Algorithm 1 sits on the recovery
//! critical path, so its latency decides how long the pipeline trains
//! on a stale plan. Each replan starts from fresh providers; within the
//! re-solve the §5.3 isomorphism cache answers isomorphic windows from
//! one knapsack solve each, which the reported hit/miss counts show.
//! The cache-off ablation is the `algorithm1` criterion bench.

use adapipe::{Planner, ReplanConfig};
use adapipe_bench::{emit_bench_json, print_table};
use adapipe_faults::{DegradedCluster, Diagnosis, Fault, FaultPlan};
use adapipe_hw::presets as hw;
use adapipe_model::{presets, ParallelConfig, TrainConfig};
use adapipe_obs::{keys, Recorder};

fn main() {
    let rec = Recorder::new();
    let t0 = std::time::Instant::now();
    let planner =
        Planner::new(presets::gpt2_small(), hw::cluster_a_with_nodes(1)).with_recorder(rec.clone());
    let parallel = ParallelConfig::new(2, 4, 1).expect("valid");
    let train = TrainConfig::new(1, 1024, 32).expect("valid");
    let stale = planner
        .plan(adapipe::Method::AdaPipe, parallel, train)
        .expect("healthy plan");

    let faults = FaultPlan::new(42).with(Fault::Straggler {
        device: 2,
        factor: 0.6,
        from_step: 0,
    });
    let degraded = DegradedCluster::new(hw::cluster_a_with_nodes(1), faults);
    let diagnosis = Diagnosis {
        transient_stalls: vec![],
        persistent_stragglers: vec![2],
        budget_exceeded: vec![],
    };
    const REPS: u32 = 20;
    let cfg = ReplanConfig::default();
    let mut outcome = None;
    let start = std::time::Instant::now();
    for _ in 0..REPS {
        outcome = Some(
            planner
                .replan(&stale, &degraded, &diagnosis, &cfg)
                .expect("replan succeeds"),
        );
    }
    let per_solve_ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(REPS);
    let outcome = outcome.expect("ran at least once");
    assert!(outcome.plan.is_some(), "straggler forces a replan");
    let rows = vec![vec![
        format!("{per_solve_ms:.2}"),
        format!("{}", outcome.cache_hits),
        format!("{}", outcome.cache_misses),
        format!(
            "{:.3}",
            outcome
                .replanned_time
                .expect("replanned time present")
                .as_secs()
        ),
    ]];
    rec.gauge("bench.chaos_replan.ms", per_solve_ms);

    print_table(
        "Replan latency after a stage-2 straggler (0.6x) — GPT-2, (2,4,1)",
        &["ms/solve", "iso hits", "iso misses", "T (s)"],
        &rows,
    );
    println!(
        "\nExpected shape: nonzero iso-cache hits — isomorphic windows share one \
         knapsack solve within the re-solve."
    );

    rec.gauge(keys::BENCH_WALL_S, t0.elapsed().as_secs_f64());
    emit_bench_json(
        "chaos_replan",
        &rec,
        &[("extension", "fault-recovery"), ("scenario", "straggler")],
    );
}
