//! `cold-paper`: closed-loop, one caller, in-process cold plans.
//!
//! Each request body goes through `PlanRequest::parse` → `planner()`
//! (with the exec pool attached exactly as `adapipe plan` attaches it)
//! → `Planner::plan(AdaPipe)` → `verify_with(default)` →
//! `plan_io::to_text`, with a fresh planner per request and no
//! subproblem or plan cache. The traced run re-drives each config
//! through the public calls `Planner::plan` makes, in its order, and
//! times every layer from outside.

use crate::calibrate::{self, Kernel};
use crate::grid::{Rng, Rotation, COLD_MIX, GRID};
use crate::report::{counters_line, Checks, Counters, Ledger};
use crate::stats::median;
use crate::{Measured, RunOpts};
use adapipe::{plan_io, Plan, VerifyOptions};
use adapipe_exec::ExecPool;
use adapipe_memory::{MemoryModel, OptimizerSpec};
use adapipe_model::{LayerRange, LayerSeq};
use adapipe_obs::{keys, Recorder};
use adapipe_partition::{algorithm1, KnapsackCostProvider, StageCostProvider, StageTimes};
use adapipe_profiler::Profiler;
use adapipe_serve::{names, PlanRequest};
use adapipe_units::Bytes;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Manifest of the SHA-256 of every grid config's plan text, produced
/// at the parent commit: golden plans stay byte-identical.
const MANIFEST: &str = "perfbench/manifest/cold-paper.sha256";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// `peak_rss_mb` is read after this many timed requests.
const RSS_AFTER: usize = 40;

/// The pool `adapipe plan` builds: sized by `ADAPIPE_THREADS`, attached
/// only when it has more than one worker.
pub fn cli_pool() -> Option<Arc<ExecPool>> {
    let pool = ExecPool::from_env();
    (pool.threads() > 1).then(|| Arc::new(pool))
}

/// One cold plan from request bytes to verified plan bytes.
pub fn plan_in_process(body: &str, pool: Option<&Arc<ExecPool>>) -> Result<(Plan, String), String> {
    let req = PlanRequest::parse(body).map_err(|e| format!("parse: {e}"))?;
    let mut planner = req.planner().map_err(|e| format!("planner: {e}"))?;
    if let Some(pool) = pool {
        planner = planner.with_exec_pool(Arc::clone(pool));
    }
    let (method, parallel, train) = (
        req.method_enum().map_err(|e| e.to_string())?,
        req.parallel().map_err(|e| e.to_string())?,
        req.train().map_err(|e| e.to_string())?,
    );
    let plan = planner
        .plan(method, parallel, train)
        .map_err(|e| format!("plan: {e}"))?;
    let report = planner.verify_with(&plan, VerifyOptions::default());
    if report.has_errors() {
        return Err(format!("verify: {report}"));
    }
    let text = plan_io::to_text(&plan);
    Ok((plan, text))
}

fn sha_hex(text: &str) -> String {
    adapipe_exec::sha256_hex(text.as_bytes())
}

/// The grid's base plans' digests, in `GRID` order.
fn load_manifest() -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(MANIFEST).map_err(|e| format!("{MANIFEST}: {e}"))?;
    GRID.iter()
        .map(|cfg| {
            text.lines()
                .find_map(|l| {
                    let (hex, name) = l.split_once("  ")?;
                    (name.trim() == cfg.name).then(|| hex.trim().to_string())
                })
                .ok_or_else(|| format!("{MANIFEST}: no entry for {}", cfg.name))
        })
        .collect()
}

/// Prints a fresh manifest of the grid's base plans.
pub fn print_manifest() -> Result<(), String> {
    let pool = cli_pool();
    for cfg in GRID {
        let (_, text) = plan_in_process(&cfg.base().to_wire_text(), pool.as_ref())?;
        println!("{}  {}", sha_hex(&text), cfg.name);
    }
    Ok(())
}

fn check_plan(result: &Result<(Plan, String), String>, want: &str) -> Result<(), String> {
    match result {
        Ok((_, text)) if sha_hex(text) == want => Ok(()),
        Ok(_) => Err("plan bytes differ from the manifest".to_string()),
        Err(e) => Err(e.clone()),
    }
}

pub fn run(opts: &RunOpts) -> Result<Measured, String> {
    let manifest = load_manifest()?;
    let bodies: Vec<String> = GRID.iter().map(|c| c.base().to_wire_text()).collect();
    let mut checks = Checks::default();

    // Set-up: build the pool and plan one config once, the first-plan
    // cost a fresh `adapipe plan` process pays.
    let kernel = Kernel::new();
    let mut setup_kernel_ms = Vec::new();
    let mut setup = Vec::new();
    let mut pool = None;
    let mut before = kernel.samples(calibrate::PER_SETUP);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        pool = cli_pool();
        let warm = plan_in_process(&bodies[0], pool.as_ref());
        setup.push(t0.elapsed().as_secs_f64());
        checks.record(check_plan(&warm, &manifest[0]));
        let after = kernel.samples(calibrate::PER_SETUP);
        setup_kernel_ms.push(calibrate::around(&before, &after));
        before = after;
    }

    let mut kernel_ms = Vec::new();
    let mut peak_rss_mb = None;
    let mut rotation = Rotation::new(Rng::new(opts.seed, 1), &COLD_MIX);
    let mut latencies = Vec::new();
    let mut kernel_at = Vec::new();
    let mut classes = Vec::new();
    let mut traced = Vec::new();
    let mut ledger = Ledger::default();
    let mut counters: BTreeMap<&'static str, Counters> = BTreeMap::new();
    let mut ok = 0u64;
    let window = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    while start.elapsed() < window {
        kernel_ms.push(kernel.time_ms());
        let idx = rotation.next();
        let t0 = Instant::now();
        let result = plan_in_process(&bodies[idx], pool.as_ref());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if latencies.len() + 1 == RSS_AFTER {
            peak_rss_mb = Some(crate::report::peak_rss_mb(None)?);
        }
        let verdict = check_plan(&result, &manifest[idx]);
        if verdict.is_ok() {
            ok += 1;
            latencies.push(ms);
            kernel_at.push(kernel_ms.len() - 1);
            classes.push(idx);
        }
        checks.record(verdict);
        if !opts.trace {
            continue;
        }
        let Ok((plan, text)) = &result else { continue };
        match redrive(&bodies[idx], pool.as_ref(), plan, text, &mut ledger) {
            Ok((ms, work)) => {
                traced.push(ms);
                let name = GRID[idx].name;
                let verdict = match counters.get(name) {
                    Some(first) if *first != work => Err(format!(
                        "{name}: work counters changed between identical plans: {} vs {}",
                        counters_line("cold-paper", name, first),
                        counters_line("cold-paper", name, &work)
                    )),
                    _ => Ok(()),
                };
                checks.record(verdict);
                counters.entry(name).or_insert(work);
            }
            Err(e) => checks.record(Err(e)),
        }
    }
    let window_s = calibrate::excluding(start.elapsed(), &kernel_ms);

    if opts.trace {
        for (name, work) in &counters {
            println!("{}", counters_line("cold-paper", name, work));
        }
        ledger.push("trace.overhead_ratio", median(&traced) / median(&latencies));
    }
    Ok(Measured {
        checks,
        setup,
        setup_kernel_ms,
        classes: classes.iter().map(|&c| GRID[c].name).collect(),
        slowness: kernel_at
            .iter()
            .map(|&k| calibrate::slowness_near(&kernel_ms, k))
            .collect(),
        latencies,
        ok,
        window_s,
        peak_rss_mb: match peak_rss_mb {
            Some(mb) => mb,
            None => crate::report::peak_rss_mb(None)?,
        },
        kernel_ms,
        ledger: opts.trace.then_some(ledger),
    })
}

/// Times every `stage_times` query Algorithm 1 makes, out-of-memory
/// answers included.
struct TimedLeaves<'p, 'a> {
    inner: &'p KnapsackCostProvider<'a>,
    busy: Cell<Duration>,
    oom: Cell<u64>,
}

impl StageCostProvider for TimedLeaves<'_, '_> {
    fn stage_times(&self, stage: usize, range: LayerRange) -> Option<StageTimes> {
        let t0 = Instant::now();
        let out = self.inner.stage_times(stage, range);
        self.busy.set(self.busy.get() + t0.elapsed());
        if out.is_none() {
            self.oom.set(self.oom.get() + 1);
        }
        out
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Re-drives one request through the calls `Planner::plan` makes, in
/// its order, checks it reaches `plan`, and records each layer's time.
/// Returns the traced latency (ms) and the request's work counters.
fn redrive(
    body: &str,
    pool: Option<&Arc<ExecPool>>,
    plan: &Plan,
    text: &str,
    ledger: &mut Ledger,
) -> Result<(f64, Counters), String> {
    let rec = Recorder::new();
    let t_start = Instant::now();
    let req = PlanRequest::parse(body).map_err(|e| e.to_string())?;
    let planner = req.planner().map_err(|e| e.to_string())?;
    let t_parsed = Instant::now();

    let model = names::model(&req.model).ok_or("unknown model")?;
    let cluster = names::cluster(&req.cluster, Some(req.nodes)).ok_or("unknown cluster")?;
    let parallel = req.parallel().map_err(|e| e.to_string())?;
    let train = req.train().map_err(|e| e.to_string())?;
    let optimizer = if req.fp32_grads {
        OptimizerSpec::adam_fp32_grad_accum()
    } else {
        OptimizerSpec::adam_fp32()
    };

    let t0 = Instant::now();
    let table = Profiler::new(cluster.clone()).profile(&model, &parallel, &train);
    let profile = t0.elapsed();

    let seq = LayerSeq::for_model(&model);
    let mem = MemoryModel::new(model, parallel, optimizer);
    let n = train.micro_batches(&parallel);
    let p = parallel.pipeline();
    // `Planner::search_capacity`: usable device memory times headroom.
    let capacity = Bytes::new((cluster.device().usable_bytes().as_f64() * req.headroom) as u64);
    let provider =
        KnapsackCostProvider::new(&seq, &table, &mem, capacity).with_recorder(rec.clone());

    let pool_before = pool.map(|p| p.stats());
    let t0 = Instant::now();
    if let Some(pool) = pool {
        let windows = algorithm1::reachable_windows(seq.len(), p);
        let leaves = provider
            .prefill(pool, &windows)
            .map_err(|e| e.to_string())?;
        rec.add(keys::PREFILL_LEAVES, leaves as u64);
    }
    let prefill = t0.elapsed();
    let (tasks, steals) = match (pool, pool_before) {
        (Some(pool), Some(before)) => {
            let after = pool.stats();
            (after.tasks - before.tasks, after.steals - before.steals)
        }
        _ => (0, 0),
    };

    let timed = TimedLeaves {
        inner: &provider,
        busy: Cell::new(Duration::ZERO),
        oom: Cell::new(0),
    };
    let t0 = Instant::now();
    let partition = algorithm1::solve_traced(&timed, seq.len(), p, n, &rec)
        .ok_or("re-drive: Algorithm 1 found no feasible partition")?;
    let solve = t0.elapsed();

    let t0 = Instant::now();
    let stages = partition
        .ranges
        .iter()
        .enumerate()
        .map(|(s, &r)| provider.optimize_stage(s, r))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("re-drive materialize: {e}"))?;
    let materialize = t0.elapsed();

    let t0 = Instant::now();
    let report = planner.verify_with(plan, VerifyOptions::default());
    let verify = t0.elapsed();
    let t0 = Instant::now();
    let serialized = plan_io::to_text(plan);
    let serialize = t0.elapsed();
    let total = t_start.elapsed();

    if partition.ranges != plan.ranges() {
        return Err("re-drive reached a different partition than Planner::plan".to_string());
    }
    for (s, (got, want)) in stages.iter().zip(&plan.stages).enumerate() {
        if got.strategy != want.strategy || got.cost != want.cost {
            return Err(format!("re-drive stage {s} differs from Planner::plan"));
        }
    }
    if report.has_errors() || serialized != text {
        return Err("re-drive verify/serialize disagrees with the untraced plan".to_string());
    }

    let parse = t_parsed - t_start;
    let leaf = timed.busy.get();
    let alg1_self = solve.saturating_sub(leaf);
    let accounted = parse + profile + prefill + leaf + alg1_self + materialize + verify + serialize;
    let snap = rec.snapshot();
    let counter = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
    let iso_hits = counter(keys::ISO_CACHE_HITS);
    let iso_total = iso_hits + counter(keys::ISO_CACHE_MISSES);
    let timed_calls = snap
        .histograms
        .get(keys::KNAPSACK_US)
        .map_or(0, |h| h.count);

    ledger.push("serve.parse_us", us(parse));
    ledger.push("profiler.profile_us", us(profile));
    ledger.push("exec.prefill_ms", ms(prefill));
    ledger.push("exec.pool.tasks", tasks as f64);
    ledger.push("exec.pool.steals", steals as f64);
    ledger.push("partition.leaf_ms", ms(leaf));
    ledger.push(
        "partition.leaf_evals",
        counter(keys::PARTITION_LEAF_EVALS) as f64,
    );
    ledger.push("partition.leaf_oom", timed.oom.get() as f64);
    ledger.push(
        "partition.iso_cache.hit_ratio",
        iso_hits as f64 / iso_total.max(1) as f64,
    );
    ledger.push("partition.alg1_self_ms", ms(alg1_self));
    ledger.push(
        "partition.alg1.candidates",
        counter(keys::ALG1_CANDIDATES) as f64,
    );
    ledger.push(
        "recompute.knapsack.cells",
        counter(keys::KNAPSACK_CELLS) as f64,
    );
    ledger.push(
        "recompute.knapsack.calls",
        counter(keys::KNAPSACK_CALLS) as f64,
    );
    ledger.push("recompute.knapsack.timed_calls", timed_calls as f64);
    ledger.push("planner.materialize_ms", ms(materialize));
    ledger.push("check.verify_ms", ms(verify));
    ledger.push("planner.serialize_us", us(serialize));
    let unaccounted = total.saturating_sub(accounted).as_secs_f64() / total.as_secs_f64();
    if unaccounted > 0.1 {
        return Err(format!(
            "layers account for only {:.1}% of the traced plan",
            100.0 * (1.0 - unaccounted)
        ));
    }
    ledger.push("ledger.unaccounted_share", unaccounted);

    let work = Counters::from([
        ("recompute.knapsack.cells", counter(keys::KNAPSACK_CELLS)),
        ("recompute.knapsack.calls", counter(keys::KNAPSACK_CALLS)),
        ("recompute.knapsack.timed_calls", timed_calls),
        ("partition.leaf_evals", counter(keys::PARTITION_LEAF_EVALS)),
        ("partition.leaf_oom", timed.oom.get()),
        ("partition.prefill.leaves", counter(keys::PREFILL_LEAVES)),
        ("partition.alg1.states", counter(keys::ALG1_STATES)),
        ("partition.alg1.candidates", counter(keys::ALG1_CANDIDATES)),
        ("partition.iso_cache.hits", iso_hits),
        ("partition.iso_cache.misses", iso_total - iso_hits),
        ("subcache.hits", counter(keys::SUBCACHE_HITS)),
        ("subcache.misses", counter(keys::SUBCACHE_MISSES)),
    ]);
    Ok((ms(total), work))
}
