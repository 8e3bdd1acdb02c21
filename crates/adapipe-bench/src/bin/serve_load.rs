//! Extension: planner-as-a-service throughput — content-addressed
//! cache hits vs cold plans.
//!
//! The paper's workflow (profile once, search in seconds, reuse across
//! jobs) makes the planner a natural service; what the service adds is
//! *result reuse*. This load test drives an in-process `adapipe-serve`
//! daemon over real loopback HTTP and measures two regimes: misses (a
//! full search per request; they differ only in global batch, so the
//! first fills the instance's §5.3 class table and the run asserts the
//! whole flood solves exactly as many knapsacks as that first plan) and
//! cache hits on the golden GPT-2 config (digest lookup + byte-identical
//! replay). The first plan is timed on its own
//! (`bench.serve_load.first_plan.us`), and the miss rate
//! (`bench.serve_load.miss.rps`) covers only the warm misses after it,
//! enough of them to fill a window of 100 ms or more: over a handful
//! of misses, the one cold plan set the rate. Hits must return in under
//! a millisecond at the median; the hit/miss throughput gap shrinks as
//! the shared table speeds the misses themselves, so the gate on the
//! ratio is loose and the real regression fence is `xtask bench-diff`
//! on the absolute miss/hit rates in the emitted artifact.

use adapipe_bench::{emit_bench_json, print_table};
use adapipe_obs::{keys, Recorder};
use adapipe_serve::{client, PlanRequest, ServeConfig, Server};
use std::time::Instant;

/// The golden config: the same GPT-2 world the checked-in golden plans
/// and the CI serve job use.
fn golden() -> PlanRequest {
    PlanRequest {
        model: "gpt2".to_string(),
        cluster: "a".to_string(),
        nodes: 1,
        ..PlanRequest::new(2, 4, 1024, 32)
    }
}

fn main() {
    // A warm miss takes ~1 ms on a 2-core VM, so 256 of them fill
    // ~250 ms. The count is fixed, not timed, because the artifact's
    // work counters are compared exactly.
    const WARM_MISSES: usize = 256;
    const HIT_THREADS: usize = 4;
    const HITS_PER_THREAD: usize = 100;

    let rec = Recorder::new();
    let t0 = Instant::now();
    let server = Server::bind(
        ServeConfig {
            port: 0,
            workers: 4,
            ..ServeConfig::default()
        },
        rec.clone(),
    )
    .expect("bind an ephemeral port");
    let addr = server.addr().to_string();

    // Miss regime: distinct digests, every request runs the full
    // search. Sequential, so the measured rate is per-worker. Global
    // batch 32 itself is the golden entry, seeded below; the misses
    // keep n within 64..=320.
    let miss = |global_batch: usize| {
        let req = PlanRequest {
            global_batch,
            ..golden()
        };
        let resp = client::post_plan(&addr, &req.to_wire_text()).expect("daemon reachable");
        assert_eq!(resp.status, 200, "miss failed: {}", resp.body);
        assert_eq!(resp.header("x-adapipe-cache"), Some("miss"));
    };
    let knapsack_calls = || rec.snapshot().counters.get(keys::KNAPSACK_CALLS).copied();
    let first_start = Instant::now();
    miss(64);
    let first_plan_us = first_start.elapsed().as_secs_f64() * 1e6;
    let first_plan_calls = knapsack_calls();
    let miss_start = Instant::now();
    for global_batch in (65..).take(WARM_MISSES) {
        miss(global_batch);
    }
    let miss_wall = miss_start.elapsed().as_secs_f64();
    let miss_rps = WARM_MISSES as f64 / miss_wall;

    // Seed the golden entry and keep its cold bytes for the identity
    // check.
    let cold = client::post_plan(&addr, &golden().to_wire_text()).expect("daemon reachable");
    assert_eq!(cold.status, 200, "{}", cold.body);
    assert_eq!(cold.header("x-adapipe-cache"), Some("miss"));
    let cold_body = cold.body;
    assert_eq!(
        knapsack_calls(),
        first_plan_calls,
        "later plans of the instance must answer every leaf from its class table"
    );

    // Hot regime: every thread hammers the one golden digest.
    let hit_start = Instant::now();
    let handles: Vec<_> = (0..HIT_THREADS)
        .map(|_| {
            let addr = addr.clone();
            let body = golden().to_wire_text();
            let expected = cold_body.clone();
            std::thread::spawn(move || {
                let mut latencies_us = Vec::with_capacity(HITS_PER_THREAD);
                for _ in 0..HITS_PER_THREAD {
                    let t = Instant::now();
                    let resp = client::post_plan(&addr, &body).expect("daemon reachable");
                    latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
                    assert_eq!(resp.status, 200, "{}", resp.body);
                    assert_eq!(resp.header("x-adapipe-cache"), Some("hit"));
                    assert_eq!(resp.body, expected, "cache hit must be byte-identical");
                }
                latencies_us
            })
        })
        .collect();
    let mut latencies_us: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("hit thread"))
        .collect();
    let hit_wall = hit_start.elapsed().as_secs_f64();
    let hits = HIT_THREADS * HITS_PER_THREAD;
    let hit_rps = hits as f64 / hit_wall;
    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let p50 = latencies_us[latencies_us.len() / 2];
    let p99 = latencies_us[latencies_us.len() * 99 / 100];
    let speedup = hit_rps / miss_rps;

    // Percentiles and the first plan stay in histograms only: gauges
    // feed the `xtask bench-diff` 20% gate, and single-run tail
    // latencies and one cold plan are far too noisy to gate (throughput
    // and the hit/miss ratio are the tracked metrics).
    for (key, value) in [
        ("bench.serve_load.miss.rps", miss_rps),
        ("bench.serve_load.hit.rps", hit_rps),
        ("bench.serve_load.hit_over_miss", speedup),
    ] {
        rec.gauge(key, value);
    }
    for us in &latencies_us {
        rec.observe(keys::BENCH_SERVE_LOAD_HIT_US, *us);
    }
    rec.observe(keys::BENCH_SERVE_LOAD_FIRST_PLAN_US, first_plan_us);

    print_table(
        "Planner-as-a-service throughput — GPT-2 golden config, 4 workers",
        &["regime", "requests", "req/s", "p50 (us)"],
        &[
            vec![
                "first plan (fills the class table)".to_string(),
                "1".to_string(),
                format!("{:.1}", 1e6 / first_plan_us),
                "-".to_string(),
            ],
            vec![
                "warm miss (full search)".to_string(),
                format!("{WARM_MISSES}"),
                format!("{miss_rps:.1}"),
                "-".to_string(),
            ],
            vec![
                "hit (digest replay)".to_string(),
                format!("{hits}"),
                format!("{hit_rps:.1}"),
                format!("{p50:.0}"),
            ],
        ],
    );
    println!(
        "\nwarm-miss window {:.0} ms; hit/miss throughput = {speedup:.1}x (hit p99 {p99:.0}us); every hit\n\
         byte-identical to the cold plan. Expected shape: p50 under 1 ms. The plan\n\
         cache turns a full Algorithm 1 search into a digest lookup, while the shared\n\
         class table speeds the misses themselves (no knapsack leaf after the first\n\
         plan of the instance), narrowing the ratio.",
        miss_wall * 1e3
    );

    // Fold the engine gauges (exec pool, shared class tables) into the
    // artifact before the snapshot below.
    server.publish_engine_gauges();

    let summary = server.shutdown_and_join();
    assert_eq!(summary.rejected, 0, "no request should have been shed");
    assert!(
        p50 < 1_000.0,
        "cache-hit p50 must be under 1ms, got {p50:.0}us"
    );
    assert!(
        speedup >= 2.0,
        "cache hits must still clearly beat table-assisted misses, got {speedup:.1}x"
    );

    rec.gauge(keys::BENCH_WALL_S, t0.elapsed().as_secs_f64());
    emit_bench_json(
        "serve_throughput",
        &rec,
        &[
            ("extension", "planner-as-a-service"),
            ("config", "gpt2/a/1-node t2 p4 seq1024 gbs32"),
        ],
    );
}
