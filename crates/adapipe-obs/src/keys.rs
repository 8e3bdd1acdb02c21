//! Canonical metric-key names shared across the workspace.
//!
//! Every consumer of a cross-crate metric (the CLI's `--metrics-out`
//! report, the `adapipe-serve` `/metrics` endpoint, tests and CI jq
//! probes) must agree on the key strings. Defining them once here keeps
//! the producers (`adapipe-partition`, `adapipe-serve`) and the
//! consumers from drifting apart; a renamed key becomes a compile
//! error instead of a silently-empty dashboard.

use crate::Recorder;

/// §5.3 isomorphism-cache lookup hits (counter, `adapipe-partition`).
pub const ISO_CACHE_HITS: &str = "partition.iso_cache.hits";

/// §5.3 isomorphism-cache lookup misses (counter, `adapipe-partition`).
pub const ISO_CACHE_MISSES: &str = "partition.iso_cache.misses";

/// §5.3 isomorphism-cache hit rate in `[0, 1]` (gauge, derived from the
/// two counters by [`publish_iso_cache_hit_rate`]).
pub const ISO_CACHE_HIT_RATE: &str = "partition.iso_cache.hit_rate";

/// Total HTTP requests accepted by `adapipe-serve` (counter).
pub const SERVE_REQUESTS: &str = "serve.requests";

/// Plan-cache hits in `adapipe-serve` (counter).
pub const SERVE_CACHE_HITS: &str = "serve.cache.hits";

/// Plan-cache misses (cold plans) in `adapipe-serve` (counter).
pub const SERVE_CACHE_MISSES: &str = "serve.cache.misses";

/// Plan-cache hit rate in `[0, 1]` (gauge, derived like the iso-cache
/// rate by [`publish_serve_cache_hit_rate`]).
pub const SERVE_CACHE_HIT_RATE: &str = "serve.cache.hit_rate";

/// Plan-cache entries evicted by the LRU bound (counter).
pub const SERVE_CACHE_EVICTIONS: &str = "serve.cache.evictions";

/// Requests rejected with 503 because the worker queue was full
/// (counter).
pub const SERVE_REJECTED_BACKPRESSURE: &str = "serve.rejected.backpressure";

/// Requests rejected with 503 because their deadline expired while
/// queued (counter).
pub const SERVE_REJECTED_DEADLINE: &str = "serve.rejected.deadline";

/// Requests answered after their deadline had already passed (counter;
/// the response still ships, the miss is diagnosed by the watchdog).
pub const SERVE_DEADLINE_MISSED: &str = "serve.deadline.missed";

/// Workers the `adapipe-faults` watchdog currently classifies as
/// persistent deadline-missers (gauge).
pub const SERVE_DEADLINE_PERSISTENT: &str = "serve.deadline.persistent_workers";

/// Plans rejected by the `adapipe::verify` gate before leaving the
/// server (counter; nonzero means a planner bug).
pub const SERVE_VERIFY_REJECTED: &str = "serve.verify.rejected";

/// End-to-end request handling time in microseconds (histogram).
pub const SERVE_REQUEST_US: &str = "serve.request.us";

/// Cold-plan (cache-miss) solve time in microseconds (histogram).
pub const SERVE_PLAN_US: &str = "serve.plan.us";

/// Current worker-queue depth (gauge, sampled on every push/pop
/// transition).
pub const SERVE_QUEUE_DEPTH: &str = "serve.queue.depth";

/// High-water worker-queue depth (gauge, max-tracked).
pub const SERVE_QUEUE_DEPTH_MAX: &str = "serve.queue.depth.max";

/// Workers currently executing a request (gauge, sampled on every
/// request transition).
pub const SERVE_WORKERS_BUSY: &str = "serve.workers.busy";

/// Responses by status class (counters).
pub const SERVE_HTTP_2XX: &str = "serve.http.2xx";
/// Responses with client-error status (counter).
pub const SERVE_HTTP_4XX: &str = "serve.http.4xx";
/// Responses with server-error status (counter).
pub const SERVE_HTTP_5XX: &str = "serve.http.5xx";

// ---- planner / search-engine names ---------------------------------
// The taxonomy in docs/observability.md; producers reference these
// constants so the `stringly-metric` xtask lint can keep free-floating
// name literals out of lib crates.

/// Knapsack optimizations run (counter, `adapipe-recompute`).
pub const KNAPSACK_CALLS: &str = "recompute.knapsack.calls";
/// DP cells evaluated; 0 under the everything-fits shortcut (counter).
pub const KNAPSACK_CELLS: &str = "recompute.knapsack.cells";
/// Extra scale doublings past the GCD when the cell cap binds (counter).
pub const KNAPSACK_REBUCKETS: &str = "recompute.knapsack.rebuckets";
/// Largest §5.3 memory-axis scale factor used (gauge, max-tracked).
pub const KNAPSACK_GCD_SCALE: &str = "recompute.knapsack.gcd_scale";
/// Wall-clock µs per knapsack call (histogram).
pub const KNAPSACK_US: &str = "recompute.knapsack.us";

/// Cache misses that ran a real knapsack (counter, `adapipe-partition`).
pub const PARTITION_LEAF_EVALS: &str = "partition.leaf_evals";
/// Wall-clock µs per leaf-cost evaluation (histogram).
pub const PARTITION_LEAF_US: &str = "partition.leaf.us";
/// Algorithm 1 DP states filled (counter).
pub const ALG1_STATES: &str = "partition.alg1.states";
/// Split points scored across all states (counter).
pub const ALG1_CANDIDATES: &str = "partition.alg1.candidates";
/// Isomorphism-class representative leaves evaluated by the parallel
/// prefill pass (counter, `adapipe` planner).
pub const PREFILL_LEAVES: &str = "partition.prefill.leaves";

// ---- execution-engine names ----------------------------------------
// Produced by consumers of `adapipe-exec` (the planner, the serve
// daemon, the benches) from `ExecPool::stats()` and the daemon's
// `ClassTables`, its cache of §5.3 class tables keyed by
// `instance_digest`; see
// docs/parallel.md.

/// Workers configured in the deterministic exec pool (gauge).
pub const EXEC_POOL_WORKERS: &str = "exec.pool.workers";
/// Fork-join batches executed by the pool so far (gauge, cumulative).
pub const EXEC_POOL_BATCHES: &str = "exec.pool.batches";
/// Tasks executed across all pool batches so far (gauge, cumulative).
pub const EXEC_POOL_TASKS: &str = "exec.pool.tasks";
/// Tasks a worker claimed beyond its even share `ceil(n/workers)` of
/// a batch (gauge, cumulative).
pub const EXEC_POOL_STEALS: &str = "exec.pool.steals";

/// Winning stages that plan materialization rebuilt from the saved
/// flags of their §5.3 class slot instead of solving them (counter,
/// `adapipe-partition`).
pub const SUBCACHE_HITS: &str = "subcache.hits";
/// Winning stages that plan materialization had to solve: no slot
/// flags, or a slot filled by a window with other knapsack items
/// (counter).
pub const SUBCACHE_MISSES: &str = "subcache.misses";
/// Materialize rebuild rate in `[0, 1]` (gauge, derived from the two
/// counters by [`publish_subcache_hit_rate`]).
pub const SUBCACHE_HIT_RATE: &str = "subcache.hit_rate";
/// Class tables the daemon's cache evicted by its LRU bound (gauge,
/// cumulative over the daemon's lifetime).
pub const SUBCACHE_EVICTIONS: &str = "subcache.evictions";
/// Bytes of the slot arrays of the class tables the daemon's cache
/// holds (gauge; the saved flags of filled slots come on top).
pub const SUBCACHE_BYTES: &str = "subcache.bytes";
/// Class tables the daemon's cache holds, one per planning instance
/// (gauge).
pub const SUBCACHE_ENTRIES: &str = "subcache.entries";

/// Simulator events processed (counter, `adapipe-sim`).
pub const SIM_EVENTS: &str = "sim.events";
/// Simulator tasks executed (counter).
pub const SIM_TASKS: &str = "sim.tasks";
/// Dispatchable-set high-water mark (gauge, max-tracked).
pub const SIM_READY_QUEUE_PEAK: &str = "sim.ready_queue.peak";

/// Per-device busy-time gauge name: `sim.device<i>.busy_us`.
#[must_use]
pub fn sim_device_busy_us(device: usize) -> String {
    format!("sim.device{device}.busy_us")
}

/// Per-device bubble-time gauge name: `sim.device<i>.bubble_us`.
#[must_use]
pub fn sim_device_bubble_us(device: usize) -> String {
    format!("sim.device{device}.bubble_us")
}

/// Degradation-aware replans that retried a tighter solve (counter,
/// `adapipe`).
pub const REPLAN_RETRIES: &str = "replan.retries";
/// Replans that fell back to a full recompute (counter).
pub const REPLAN_FALLBACK_FULL_RECOMPUTE: &str = "replan.fallback.full_recompute";
/// Iso-cache hits observed during a replan (histogram).
pub const REPLAN_ISO_HITS: &str = "replan.iso_cache.hits";
/// Iso-cache misses observed during a replan (histogram).
pub const REPLAN_ISO_MISSES: &str = "replan.iso_cache.misses";
/// Wall-clock µs per replan solve (histogram).
pub const REPLAN_SOLVE_US: &str = "replan.solve.us";

// ---- optimality-verification names ---------------------------------
// Produced by `adapipe::oracle` / `adapipe::certify` and surfaced by
// `adapipe verify --optimality` and `adapipe report`.

/// Instances evaluated by the DP-vs-oracle agreement sweeps and the
/// counterexample search (counter, `adapipe`).
pub const ORACLE_INSTANCES: &str = "oracle.instances";
/// Instances where the DP left the calibrated gap band or beat the
/// brute-force oracle (counter; nonzero means a planner bug).
pub const ORACLE_DISAGREEMENTS: &str = "oracle.disagreements";
/// Per-instance DP-over-oracle gap in percent (histogram).
pub const ORACLE_GAP_PCT: &str = "oracle.gap.pct";

/// Lower-bound certificates computed for plans (counter, `adapipe`).
pub const CERT_CHECKS: &str = "certificate.checks";
/// Certificates that failed validation: internally inconsistent, or a
/// bound above the plan cost it claims to bound (counter).
pub const CERT_FAILURES: &str = "certificate.failures";
/// Certified plan-cost-over-lower-bound gap in percent (histogram).
pub const CERT_GAP_PCT: &str = "certificate.gap.pct";

/// Bench regenerator wall-clock gauge (seconds).
pub const BENCH_WALL_S: &str = "bench.wall_s";
/// Serve-load bench per-hit latency (histogram, µs).
pub const BENCH_SERVE_LOAD_HIT_US: &str = "bench.serve_load.hit.us";
/// Serve-load bench latency of the first plan, which fills the class
/// table (histogram, µs).
pub const BENCH_SERVE_LOAD_FIRST_PLAN_US: &str = "bench.serve_load.first_plan.us";

// ---- span names ----------------------------------------------------

/// Root planner span (args carry the method).
pub const SPAN_PLAN: &str = "plan";
/// Cost-profiling phase.
pub const SPAN_PLAN_PROFILE: &str = "plan.profile";
/// §5 partition-search phase (wraps [`SPAN_PARTITION_ALG1`]).
pub const SPAN_PLAN_PARTITION: &str = "plan.partition";
/// Parallel leaf-prefill phase preceding the serial DP sweep.
pub const SPAN_PLAN_PREFILL: &str = "plan.prefill";
/// Plan-materialization phase.
pub const SPAN_PLAN_MATERIALIZE: &str = "plan.materialize";
/// Plan evaluation (wraps [`SPAN_EVALUATE_SIMULATE`]).
pub const SPAN_EVALUATE: &str = "evaluate";
/// The simulation inside an evaluation.
pub const SPAN_EVALUATE_SIMULATE: &str = "evaluate.simulate";
/// One discrete-event simulator run.
pub const SPAN_SIM_RUN: &str = "sim.run";
/// One Algorithm 1 DP solve.
pub const SPAN_PARTITION_ALG1: &str = "partition.alg1";
/// A whole chaos-harness run.
pub const SPAN_CHAOS: &str = "chaos";
/// One injected-fault step inside a chaos run.
pub const SPAN_CHAOS_STEP: &str = "chaos.step";
/// A degradation-aware replan.
pub const SPAN_REPLAN: &str = "replan";
/// The partition re-solve inside a replan.
pub const SPAN_REPLAN_PARTITION: &str = "replan.partition";

/// Time a request spent queued before a worker picked it up
/// (serve-request trace span; starts at enqueue).
pub const SPAN_SERVE_QUEUE_WAIT: &str = "serve.queue_wait";
/// Request parsing/validation (serve-request trace span).
pub const SPAN_SERVE_PARSE: &str = "serve.parse";
/// The `adapipe::verify` gate on a cold plan (serve-request trace span).
pub const SPAN_SERVE_VERIFY: &str = "serve.verify";
/// Plan-cache insertion of a cold plan (serve-request trace span).
pub const SPAN_SERVE_CACHE_INSERT: &str = "serve.cache_insert";

// ---- flight-recorder event kinds -----------------------------------
// The `kind` vocabulary of `adapipe-flight/v1` dumps (see
// `crate::flight`); `reason` fields reuse the same constants.

/// A request was rejected with 503 because the queue was full.
pub const FLIGHT_BACKPRESSURE: &str = "flight.backpressure";
/// A request was rejected or answered late against its deadline.
pub const FLIGHT_DEADLINE: &str = "flight.deadline";
/// The watchdog emitted a `DegradationEvent`.
pub const FLIGHT_WATCHDOG: &str = "flight.watchdog";
/// A chaos-harness run ended in a non-accepted outcome.
pub const FLIGHT_CHAOS_FAILURE: &str = "flight.chaos.failure";
/// A plan failed the verify gate.
pub const FLIGHT_VERIFY_REJECTED: &str = "flight.verify.rejected";
/// An operator requested a dump via `POST /admin/dump`.
pub const FLIGHT_MANUAL: &str = "flight.manual";

/// Derives a hit rate from a hit and a miss counter and publishes it
/// under `rate_key`. Returns `(hits, misses, rate)`, or `None` when no
/// lookup was recorded (the gauge is left unset so reports distinguish
/// "no traffic" from "0% hits").
fn publish_hit_rate(
    rec: &Recorder,
    hits_key: &str,
    misses_key: &str,
    rate_key: &str,
) -> Option<(u64, u64, f64)> {
    let hits = rec.counter(hits_key);
    let misses = rec.counter(misses_key);
    let total = hits + misses;
    if total == 0 {
        return None;
    }
    let rate = hits as f64 / total as f64;
    rec.gauge(rate_key, rate);
    Some((hits, misses, rate))
}

/// Publishes the §5.3 iso-cache hit rate ([`ISO_CACHE_HIT_RATE`]) from
/// its counters so `/metrics` and `--metrics-out` report it uniformly.
/// Returns `(hits, misses, rate)` when any lookup was recorded.
pub fn publish_iso_cache_hit_rate(rec: &Recorder) -> Option<(u64, u64, f64)> {
    publish_hit_rate(rec, ISO_CACHE_HITS, ISO_CACHE_MISSES, ISO_CACHE_HIT_RATE)
}

/// Publishes the serve plan-cache hit rate ([`SERVE_CACHE_HIT_RATE`])
/// from its counters. Returns `(hits, misses, rate)` when any request
/// was served.
pub fn publish_serve_cache_hit_rate(rec: &Recorder) -> Option<(u64, u64, f64)> {
    publish_hit_rate(
        rec,
        SERVE_CACHE_HITS,
        SERVE_CACHE_MISSES,
        SERVE_CACHE_HIT_RATE,
    )
}

/// Publishes the materialize rebuild rate ([`SUBCACHE_HIT_RATE`]) from
/// its counters. Returns
/// `(hits, misses, rate)` when any lookup was recorded.
pub fn publish_subcache_hit_rate(rec: &Recorder) -> Option<(u64, u64, f64)> {
    publish_hit_rate(rec, SUBCACHE_HITS, SUBCACHE_MISSES, SUBCACHE_HIT_RATE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_lookups_publishes_nothing() {
        let rec = Recorder::new();
        assert_eq!(publish_iso_cache_hit_rate(&rec), None);
        assert_eq!(rec.gauge_value(ISO_CACHE_HIT_RATE), None);
    }

    #[test]
    fn hit_rate_is_derived_and_published() {
        let rec = Recorder::new();
        rec.add(ISO_CACHE_HITS, 3);
        rec.add(ISO_CACHE_MISSES, 1);
        let (hits, misses, rate) = publish_iso_cache_hit_rate(&rec).unwrap();
        assert_eq!((hits, misses), (3, 1));
        assert!((rate - 0.75).abs() < 1e-12);
        let gauge = rec.gauge_value(ISO_CACHE_HIT_RATE).unwrap();
        assert!((gauge - 0.75).abs() < 1e-12);
    }

    #[test]
    fn serve_cache_rate_uses_its_own_keys() {
        let rec = Recorder::new();
        rec.add(SERVE_CACHE_HITS, 9);
        rec.add(SERVE_CACHE_MISSES, 1);
        let (_, _, rate) = publish_serve_cache_hit_rate(&rec).unwrap();
        assert!((rate - 0.9).abs() < 1e-12);
        assert!(rec.gauge_value(SERVE_CACHE_HIT_RATE).is_some());
        assert_eq!(rec.gauge_value(ISO_CACHE_HIT_RATE), None);
    }

    #[test]
    fn misses_only_still_publishes_a_zero_rate() {
        let rec = Recorder::new();
        rec.add(ISO_CACHE_MISSES, 4);
        let (hits, misses, rate) = publish_iso_cache_hit_rate(&rec).unwrap();
        assert_eq!((hits, misses), (0, 4));
        assert!(rate.abs() < 1e-12);
        let gauge = rec.gauge_value(ISO_CACHE_HIT_RATE).unwrap();
        assert!(gauge.abs() < 1e-12);
    }
}
