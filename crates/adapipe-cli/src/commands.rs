//! The CLI subcommands: `plan`, `sweep`, `compare`, `serve`, `query`,
//! `models`, and friends.

use crate::args::Args;
use crate::config::{self, ConfigError};
use adapipe::{best_outcome, sweep_parallel_strategies, ChaosConfig, Method, Planner};
use adapipe_exec::ExecPool;
use adapipe_faults::{DegradedCluster, FaultPlan};
use adapipe_memory::OptimizerSpec;
use adapipe_obs::{keys, Recorder};
use adapipe_partition::CacheStats;
use adapipe_serve::{client, PlanRequest, ServeConfig, Server};
use adapipe_units::MicroSecs;
use std::time::Duration;

/// Writes an output artifact, creating missing parent directories
/// first so `--out results/deep/file.json` works on a fresh checkout.
/// Failure is an artifact error (exit code 1): the computation
/// succeeded but the deliverable was not produced.
fn write_artifact(path: &str, contents: &str) -> Result<(), ConfigError> {
    let artifact = |e: std::io::Error| ConfigError::Artifact {
        path: path.to_string(),
        message: e.to_string(),
    };
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(artifact)?;
        }
    }
    std::fs::write(path, contents).map_err(artifact)
}

/// The observability flags shared by `plan`, `sweep` and `compare`:
/// `--metrics-out FILE` (JSON metrics report) and `--chrome-trace FILE`
/// (Chrome Trace Event Format spans).
struct ObsSink {
    rec: Recorder,
    metrics_out: Option<String>,
    chrome_trace: Option<String>,
}

impl ObsSink {
    /// Takes the obs flags. `always_on` forces an enabled recorder even
    /// without output files (sweep/compare print iso-cache stats from
    /// it); `plan` keeps the free disabled recorder unless asked.
    fn from_args(args: &mut Args, always_on: bool) -> Self {
        let metrics_out = args.take("metrics-out");
        let chrome_trace = args.take("chrome-trace");
        let rec = if always_on || metrics_out.is_some() || chrome_trace.is_some() {
            Recorder::new()
        } else {
            Recorder::disabled()
        };
        ObsSink {
            rec,
            metrics_out,
            chrome_trace,
        }
    }

    /// Hit/miss stats of the §5.3 isomorphism cache, if any lookups
    /// were recorded.
    fn iso_cache_stats(&self) -> Option<CacheStats> {
        let snap = self.rec.snapshot();
        let hits = snap.counters.get(keys::ISO_CACHE_HITS).copied()?;
        let misses = snap
            .counters
            .get(keys::ISO_CACHE_MISSES)
            .copied()
            .unwrap_or(0);
        let stats = CacheStats::new(hits, misses);
        (stats.lookups() > 0).then_some(stats)
    }

    /// Writes the requested artifacts and returns status lines for the
    /// human-readable output.
    fn flush(&self, meta: &[(&str, &str)]) -> Result<String, ConfigError> {
        let mut out = String::new();
        if self.metrics_out.is_none() && self.chrome_trace.is_none() {
            return Ok(out);
        }
        if let Some(stats) = self.iso_cache_stats() {
            self.rec.gauge(keys::ISO_CACHE_HIT_RATE, stats.hit_rate());
        }
        // None only means no plan was materialized.
        let _sub = keys::publish_subcache_hit_rate(&self.rec);
        let snap = self.rec.snapshot();
        if let Some(path) = &self.metrics_out {
            let json = adapipe_obs::report::metrics_json(&snap, meta);
            write_artifact(path, &json)?;
            out.push_str(&format!("metrics written to {path}\n"));
        }
        if let Some(path) = &self.chrome_trace {
            let json = adapipe_obs::trace::chrome_trace_json(&snap);
            write_artifact(path, &json)?;
            out.push_str(&format!(
                "chrome trace written to {path} ({} spans)\n",
                snap.spans.len()
            ));
        }
        Ok(out)
    }
}

/// Applies the shared planner flags (`--headroom`, `--fp32-grads`).
fn build_planner(args: &mut Args) -> Result<Planner, ConfigError> {
    let model = config::model(args)?;
    let cluster = config::cluster(args)?;
    let mut planner = Planner::new(model, cluster);
    if let Some(headroom) = args.take_parsed::<f64>("headroom", "a fraction in (0, 1]")? {
        if !(headroom > 0.0 && headroom <= 1.0) {
            return Err(ConfigError::Domain(format!(
                "--headroom {headroom} must be in (0, 1]"
            )));
        }
        planner = planner.with_search_headroom(headroom);
    }
    if let Some(flag) = args.take("fp32-grads") {
        match flag.as_str() {
            "true" => planner = planner.with_optimizer(OptimizerSpec::adam_fp32_grad_accum()),
            "false" => {}
            other => {
                return Err(ConfigError::BadChoice {
                    flag: "fp32-grads",
                    value: other.to_string(),
                    choices: "true, false",
                })
            }
        }
    }
    // ADAPIPE_THREADS > 1 opts the search into parallel leaf prefill
    // (plans are byte-identical either way, see docs/parallel.md).
    let pool = ExecPool::from_env();
    if pool.threads() > 1 {
        planner = planner.with_exec_pool(std::sync::Arc::new(pool));
    }
    Ok(planner)
}

/// `adapipe plan`: one method, one strategy, full plan dump
/// (optionally saved to `--out FILE` in the plan text format).
pub fn plan(mut args: Args) -> Result<String, ConfigError> {
    let method = config::method(&mut args)?;
    let sink = ObsSink::from_args(&mut args, false);
    let planner = build_planner(&mut args)?.with_recorder(sink.rec.clone());
    let out_file = args.take("out");
    let parallel = config::parallel(&mut args)?;
    let train = config::workload(&mut args)?;
    args.finish()?;

    match planner.plan(method, parallel, train) {
        Ok(plan) => {
            let eval = planner.evaluate(&plan);
            let mut out = format!("{plan}\nevaluation: {eval}\n");
            if let Some(path) = out_file {
                write_artifact(&path, &adapipe::plan_io::to_text(&plan))?;
                out.push_str(&format!("plan written to {path}\n"));
            }
            out.push_str(&sink.flush(&[
                ("command", "plan"),
                ("model", planner.model().name()),
                ("method", &method.to_string()),
            ])?);
            Ok(out)
        }
        Err(e) => Ok(format!("{method} cannot run at {parallel}: {e}\n")),
    }
}

/// Reads a plan file written by `plan --out`. The second element
/// carries parser warnings (e.g. a legacy v1 file whose seconds were
/// converted to microseconds) formatted as ready-to-print lines.
fn read_plan(args: &mut Args) -> Result<(adapipe::Plan, String), ConfigError> {
    let path = args.require("plan")?;
    let text = std::fs::read_to_string(&path)
        .map_err(|e| ConfigError::Domain(format!("cannot read {path}: {e}")))?;
    let (plan, warnings) = adapipe::plan_io::from_text_with_warnings(&text)
        .map_err(|e| ConfigError::Domain(e.to_string()))?;
    let rendered = warnings.iter().map(|w| format!("warning: {w}\n")).collect();
    Ok((plan, rendered))
}

/// `adapipe show`: print a saved plan and re-evaluate it.
pub fn show(mut args: Args) -> Result<String, ConfigError> {
    let (plan, warnings) = read_plan(&mut args)?;
    let planner = build_planner(&mut args)?;
    args.finish()?;
    let eval = planner.evaluate(&plan);
    Ok(format!("{warnings}{plan}\nevaluation: {eval}\n"))
}

/// `adapipe trace`: simulate a saved plan and emit Chrome-trace JSON
/// (load in chrome://tracing or Perfetto).
pub fn trace(mut args: Args) -> Result<String, ConfigError> {
    let (plan, warnings) = read_plan(&mut args)?;
    let out_file = args.take("out");
    let planner = build_planner(&mut args)?;
    args.finish()?;
    let eval = planner.evaluate(&plan);
    let json = adapipe_sim::render::to_chrome_trace(&eval.report);
    match out_file {
        Some(path) => {
            write_artifact(&path, &json)?;
            Ok(format!(
                "{warnings}{} events written to {path} ({:.3}s makespan)\n",
                eval.report.timeline.len(),
                eval.iteration_time.as_secs()
            ))
        }
        None => Ok(json),
    }
}

/// Parses a `--flag true|false` pair (absent means `false`).
fn bool_flag(args: &mut Args, flag: &'static str) -> Result<bool, ConfigError> {
    match args.take(flag).as_deref() {
        None | Some("false") => Ok(false),
        Some("true") => Ok(true),
        Some(other) => Err(ConfigError::BadChoice {
            flag,
            value: other.to_string(),
            choices: "true, false",
        }),
    }
}

/// `adapipe verify`: statically check a saved plan against the paper's
/// feasibility invariants (Eq. (1)-(3), partition cover, schedule DAG)
/// without executing it. `--optimality true` additionally certifies the
/// plan against its analytic lower bound and cross-checks the planner's
/// DPs against the brute-force oracles (see docs/verification.md).
pub fn verify(mut args: Args) -> Result<String, ConfigError> {
    let (plan, warnings) = read_plan(&mut args)?;
    let optimality = bool_flag(&mut args, "optimality")?;
    let epsilon: Option<f64> = args.take_parsed("epsilon", "a fraction like 0.35")?;
    let oracle_seed: Option<u64> = args.take_parsed("oracle-seed", "an unsigned integer")?;
    let oracle_iters: Option<usize> = args.take_parsed("oracle-iters", "an instance count")?;
    let cert_out = args.take("certificate-out");
    if !optimality
        && (epsilon.is_some()
            || oracle_seed.is_some()
            || oracle_iters.is_some()
            || cert_out.is_some())
    {
        return Err(ConfigError::Domain(
            "--epsilon/--oracle-seed/--oracle-iters/--certificate-out need --optimality true"
                .to_string(),
        ));
    }
    let sink = ObsSink::from_args(&mut args, false);
    let planner = build_planner(&mut args)?.with_recorder(sink.rec.clone());
    args.finish()?;
    let mut report = planner.verify(&plan);
    let mut extra = String::new();
    if optimality {
        let mut oopts = adapipe::OptimalityOptions::default();
        if let Some(e) = epsilon {
            if !(e.is_finite() && e >= 0.0) {
                return Err(ConfigError::Domain(format!(
                    "--epsilon must be a non-negative fraction, got {e}"
                )));
            }
            oopts.epsilon = e;
        }
        if let Some(s) = oracle_seed {
            oopts.search_seed = s;
        }
        if let Some(i) = oracle_iters {
            oopts.search_iterations = i;
        }
        report.extend(
            planner
                .verify_optimality(&plan, &oopts)
                .diagnostics()
                .iter()
                .cloned(),
        );
        if let Some(path) = &cert_out {
            match planner.certificate(&plan) {
                Some(cert) => {
                    write_artifact(path, &cert.to_text())?;
                    extra.push_str(&format!(
                        "certificate written to {path} (gap {:.2}%)\n",
                        cert.gap() * 100.0
                    ));
                }
                None => extra.push_str(
                    "no certificate emitted: the plan has no Eq. (3) prediction or \
                     overflows device memory\n",
                ),
            }
        }
    }
    extra.push_str(&sink.flush(&[
        ("command", "verify"),
        ("model", planner.model().name()),
        ("method", &plan.method.to_string()),
    ])?);
    let header = format!(
        "{warnings}verifying {} plan ({} stages, n={}) against {} on {}\n",
        plan.method,
        plan.stages.len(),
        plan.n_microbatches,
        planner.model().name(),
        planner.cluster().name()
    );
    if report.has_errors() {
        Err(ConfigError::Rejected(format!(
            "plan failed verification\n{report}"
        )))
    } else {
        Ok(format!("{header}{extra}{report}"))
    }
}

/// `adapipe sim`: execute a saved plan in the event simulator and check
/// every device's dynamic high-water mark against its Eq. (1)-(2)
/// budget. Over-budget devices reject the plan (exit code 1) instead of
/// silently reporting an infeasible execution as fine.
pub fn sim(mut args: Args) -> Result<String, ConfigError> {
    let (plan, warnings) = read_plan(&mut args)?;
    let planner = build_planner(&mut args)?;
    args.finish()?;
    let eval = planner.evaluate(&plan);
    let budgets: Vec<adapipe_units::Bytes> = plan
        .stages
        .iter()
        .map(|s| planner.capacity().saturating_sub(s.memory.static_bytes))
        .collect();
    let mut out = format!(
        "{warnings}simulated {} plan ({} stages, n={}) on {}:\n  makespan = {:.3}s\n  bubble = {:.3}s ({:.1}% of device-time)\n  peak dynamic = {:.3} GB\n",
        plan.method,
        plan.stages.len(),
        plan.n_microbatches,
        planner.cluster().name(),
        eval.report.makespan.as_secs(),
        eval.report.total_bubble().as_secs(),
        eval.report.bubble_ratio() * 100.0,
        eval.report.max_peak_dynamic_bytes().get() as f64 / 1e9,
    );
    if let Err(e) = adapipe_sim::validate::check_budgets(&eval.report, &budgets) {
        return Err(ConfigError::Rejected(format!(
            "simulation exceeded the memory budget: {e}"
        )));
    }
    if !eval.fits {
        return Err(ConfigError::Rejected(format!(
            "plan does not fit device memory: peak {:.3} GB > capacity {:.3} GB",
            eval.max_peak_gb(),
            planner.capacity().get() as f64 / 1e9,
        )));
    }
    out.push_str("  budgets: ok on every device\n");
    Ok(out)
}

/// `adapipe chaos`: plan, inject a deterministic fault scenario, detect
/// the degradation, drive the recovery ladder (retry → replan →
/// full-recompute fallback) and verify the replanned artifact. The
/// machine-readable report is byte-stable for a given fault file +
/// seed. An unrecovered run (replan needed but rejected) exits 1.
pub fn chaos(mut args: Args) -> Result<String, ConfigError> {
    let faults_path = args.require("faults")?;
    let seed: Option<u64> = args.take_parsed("seed", "an unsigned integer")?;
    let steps: Option<usize> = args.take_parsed("steps", "a positive integer")?;
    let out_file = args.take("out");
    let replan_out = args.take("replan-out");
    let flight_out = args.take("flight-out");
    let sink = ObsSink::from_args(&mut args, false);
    let planner = build_planner(&mut args)?.with_recorder(sink.rec.clone());
    let parallel = config::parallel(&mut args)?;
    let train = config::workload(&mut args)?;
    args.finish()?;

    let text = std::fs::read_to_string(&faults_path)
        .map_err(|e| ConfigError::Domain(format!("cannot read {faults_path}: {e}")))?;
    let mut faults = FaultPlan::from_text(&text).map_err(|e| ConfigError::Domain(e.to_string()))?;
    if let Some(seed) = seed {
        let mut reseeded = FaultPlan::new(seed);
        for fault in faults.faults() {
            reseeded.push(fault.clone());
        }
        faults = reseeded;
    }
    let degraded = DegradedCluster::new(planner.cluster().clone(), faults);
    let mut cfg = ChaosConfig::default();
    if let Some(steps) = steps {
        cfg.steps = steps;
    }
    let outcome = planner
        .chaos_run(parallel, train, &degraded, &cfg)
        .map_err(|e| ConfigError::Domain(e.to_string()))?;

    let mut out = String::new();
    match &out_file {
        Some(path) => {
            write_artifact(path, &outcome.report)?;
            out.push_str(&format!("chaos report written to {path}\n"));
        }
        None => out.push_str(&outcome.report),
    }
    if let Some(path) = &replan_out {
        match &outcome.replan.plan {
            Some(plan) => {
                write_artifact(path, &adapipe::plan_io::to_text(plan))?;
                out.push_str(&format!("replanned plan written to {path}\n"));
            }
            None => out.push_str("no replan was needed; --replan-out skipped\n"),
        }
    }
    out.push_str(&sink.flush(&[
        ("command", "chaos"),
        ("model", planner.model().name()),
        ("seed", &degraded.plan().seed().to_string()),
    ])?);
    // Flight dump on an unrecovered run: the watchdog events replayed
    // into a flight ring plus the terminal failure, in the same
    // `adapipe-flight/v1` schema the serving daemon dumps on 503s.
    if let Some(path) = &flight_out {
        if outcome.accepted() {
            out.push_str("chaos run recovered; no flight dump written\n");
        } else {
            let flight = adapipe_obs::FlightRecorder::new(adapipe_obs::flight::DEFAULT_CAPACITY);
            for (step, events) in outcome.events.iter().enumerate() {
                for event in events {
                    flight.note(keys::FLIGHT_WATCHDOG, format!("step {step}: {event}"));
                }
            }
            flight.note(
                keys::FLIGHT_CHAOS_FAILURE,
                "recovery ladder exhausted: the replanned artifact was rejected",
            );
            let seed = degraded.plan().seed().to_string();
            let json = adapipe_obs::flight::flight_json(
                &flight.snapshot(),
                keys::FLIGHT_CHAOS_FAILURE,
                &[("command", "chaos"), ("seed", &seed)],
            );
            write_artifact(path, &json)?;
            out.push_str(&format!("flight dump written to {path}\n"));
        }
    }
    if !outcome.accepted() {
        return Err(ConfigError::Rejected(format!(
            "{out}chaos run was not recovered: the replanned artifact was rejected"
        )));
    }
    Ok(out)
}

/// `adapipe sweep`: one method across every (t, p, d) strategy.
pub fn sweep(mut args: Args) -> Result<String, ConfigError> {
    let method = config::method(&mut args)?;
    let sink = ObsSink::from_args(&mut args, true);
    let planner = build_planner(&mut args)?.with_recorder(sink.rec.clone());
    let devices = args
        .take_parsed("devices", "a positive integer")?
        .unwrap_or_else(|| planner.cluster().total_devices());
    let max_tensor = args
        .take_parsed("max-tensor", "a positive integer")?
        .unwrap_or_else(|| planner.cluster().devices_per_node());
    let train = config::workload(&mut args)?;
    args.finish()?;

    let outcomes = sweep_parallel_strategies(&planner, method, devices, train, max_tensor, 2);
    let mut out = format!(
        "{method} on {} devices of {}:\n",
        devices,
        planner.cluster().name()
    );
    for o in &outcomes {
        out.push_str(&format!("  {o}\n"));
    }
    match best_outcome(&outcomes) {
        Some(best) => out.push_str(&format!("best: {best}\n")),
        None => out.push_str("no memory-feasible strategy\n"),
    }
    if let Some(stats) = sink.iso_cache_stats() {
        out.push_str(&format!("iso-cache: {stats}\n"));
    }
    out.push_str(&sink.flush(&[
        ("command", "sweep"),
        ("model", planner.model().name()),
        ("method", &method.to_string()),
    ])?);
    Ok(out)
}

/// `adapipe compare`: every method at one strategy.
pub fn compare(mut args: Args) -> Result<String, ConfigError> {
    let sink = ObsSink::from_args(&mut args, true);
    let planner = build_planner(&mut args)?.with_recorder(sink.rec.clone());
    let parallel = config::parallel(&mut args)?;
    let train = config::workload(&mut args)?;
    args.finish()?;

    let mut out = format!(
        "{} at {parallel}, {train} on {}:\n",
        planner.model().name(),
        planner.cluster().name()
    );
    let mut best: Option<(Method, adapipe_units::MicroSecs)> = None;
    for method in Method::all() {
        let line = match planner.plan(method, parallel, train) {
            Ok(plan) => {
                let eval = planner.evaluate(&plan);
                if eval.fits && best.as_ref().is_none_or(|(_, t)| eval.iteration_time < *t) {
                    best = Some((method, eval.iteration_time));
                }
                if eval.fits {
                    let tp = planner.throughput(&plan, &eval);
                    format!("{eval}, {tp}")
                } else {
                    format!("{eval}")
                }
            }
            Err(e) => format!("{e}"),
        };
        out.push_str(&format!("  {method:<20} {line}\n"));
    }
    if let Some((method, t)) = best {
        out.push_str(&format!("fastest: {method} at {:.3}s\n", t.as_secs()));
    }
    if let Some(stats) = sink.iso_cache_stats() {
        out.push_str(&format!("iso-cache: {stats}\n"));
    }
    out.push_str(&sink.flush(&[("command", "compare"), ("model", planner.model().name())])?);
    Ok(out)
}

/// `adapipe serve`: run the planner daemon until a client posts
/// `/admin/shutdown`. Prints the bound address immediately (flushed)
/// so `--port 0` callers can discover the ephemeral port, then blocks
/// draining requests.
pub fn serve(mut args: Args) -> Result<String, ConfigError> {
    let host = args.take("host").unwrap_or_else(|| "127.0.0.1".to_string());
    let port: u16 = args.take_parsed("port", "a port number")?.unwrap_or(8080);
    let workers: usize = args
        .take_parsed("workers", "a positive integer")?
        .unwrap_or(4);
    let cache_capacity: usize = args
        .take_parsed("cache-capacity", "a positive integer")?
        .unwrap_or(1024);
    let queue_depth: usize = args
        .take_parsed("queue-depth", "a positive integer")?
        .unwrap_or(64);
    let deadline_ms: Option<f64> = args.take_parsed("deadline-ms", "milliseconds")?;
    let plan_delay_ms: Option<u64> =
        args.take_parsed("plan-delay-ms", "milliseconds (testing aid)")?;
    let trace_capacity: Option<usize> = args.take_parsed("trace-capacity", "a positive integer")?;
    let flight_dir = args.take("flight-dir").map(std::path::PathBuf::from);
    args.finish()?;

    let cfg = ServeConfig {
        host: host.clone(),
        port,
        workers,
        cache_capacity,
        queue_depth,
        default_deadline: deadline_ms.map(|ms| MicroSecs::new(ms * 1e3)),
        plan_delay: plan_delay_ms.map(Duration::from_millis),
        trace_capacity: trace_capacity.unwrap_or(ServeConfig::default().trace_capacity),
        flight_dir,
    };
    let server = Server::bind(cfg, Recorder::new())
        .map_err(|e| ConfigError::Domain(format!("cannot bind {host}:{port}: {e}")))?;
    println!("adapipe-serve listening on http://{}", server.addr());
    println!("  workers={workers} cache-capacity={cache_capacity} queue-depth={queue_depth}");
    use std::io::Write as _;
    // A stdout flush failure cannot be reported anywhere better.
    let _flushed = std::io::stdout().flush();
    let summary = server.join();
    Ok(format!(
        "drained: {} requests served ({} cache hits, {} misses, {} rejected)\n",
        summary.requests, summary.cache_hits, summary.cache_misses, summary.rejected
    ))
}

/// Builds a [`PlanRequest`] body from `query` flags. Only
/// `--tensor/--pipeline/--seq/--global-batch` are required; everything
/// else keeps the same defaults the daemon would materialize.
fn plan_request_from_args(args: &mut Args) -> Result<PlanRequest, ConfigError> {
    let tensor = args.require_parsed("tensor", "a positive integer")?;
    let pipeline = args.require_parsed("pipeline", "a positive integer")?;
    let seq_len = args.require_parsed("seq", "a positive integer")?;
    let global_batch = args.require_parsed("global-batch", "a positive integer")?;
    let mut req = PlanRequest::new(tensor, pipeline, seq_len, global_batch);
    if let Some(model) = args.take("model") {
        req.model = model;
    }
    if let Some(cluster) = args.take("cluster") {
        req.nodes = adapipe_serve::names::default_nodes(&cluster).ok_or_else(|| {
            ConfigError::BadChoice {
                flag: "cluster",
                value: cluster.clone(),
                choices: adapipe_serve::names::CLUSTER_CHOICES,
            }
        })?;
        req.cluster = cluster;
    }
    if let Some(nodes) = args.take_parsed("nodes", "a positive integer")? {
        req.nodes = nodes;
    }
    if let Some(data) = args.take_parsed("data", "a positive integer")? {
        req.data = data;
    }
    if let Some(mb) = args.take_parsed("micro-batch", "a positive integer")? {
        req.micro_batch = mb;
    }
    if let Some(method) = args.take("method") {
        req.method = method;
    }
    if let Some(headroom) = args.take_parsed("headroom", "a fraction in (0, 1]")? {
        req.headroom = headroom;
    }
    if let Some(flag) = args.take("fp32-grads") {
        req.fp32_grads = match flag.as_str() {
            "true" => true,
            "false" => false,
            other => {
                return Err(ConfigError::BadChoice {
                    flag: "fp32-grads",
                    value: other.to_string(),
                    choices: "true, false",
                })
            }
        };
    }
    if let Some(ms) = args.take_parsed::<f64>("deadline-ms", "milliseconds")? {
        req.deadline = Some(MicroSecs::new(ms * 1e3));
    }
    Ok(req)
}

/// `adapipe query`: drive a running daemon. One of four modes:
/// `--shutdown true` (graceful drain), `--get PATH` (raw GET, e.g.
/// `/metrics`), `--digest D` (cache lookup), `--body-file FILE` (POST
/// a raw request body), or the regular plan flags (POST a canonical
/// request). A 2xx response exits 0; 4xx/5xx exit 1; network errors
/// exit 2.
pub fn query(mut args: Args) -> Result<String, ConfigError> {
    let addr = args.require("addr")?;
    let out_file = args.take("out");
    let shutdown = args.take("shutdown");
    let get_path = args.take("get");
    let digest = args.take("digest");
    let body_file = args.take("body-file");

    let network = |e: std::io::Error| ConfigError::Domain(format!("cannot reach {addr}: {e}"));
    let resp = if let Some(flag) = shutdown {
        if flag != "true" {
            return Err(ConfigError::BadChoice {
                flag: "shutdown",
                value: flag,
                choices: "true",
            });
        }
        args.finish()?;
        client::request(&addr, "POST", "/admin/shutdown", None).map_err(network)?
    } else if let Some(path) = get_path {
        args.finish()?;
        client::get(&addr, &path).map_err(network)?
    } else if let Some(digest) = digest {
        args.finish()?;
        client::get(&addr, &format!("/v1/plan/{digest}")).map_err(network)?
    } else if let Some(path) = body_file {
        args.finish()?;
        let body = std::fs::read_to_string(&path)
            .map_err(|e| ConfigError::Domain(format!("cannot read {path}: {e}")))?;
        client::post_plan(&addr, &body).map_err(network)?
    } else {
        let req = plan_request_from_args(&mut args)?;
        args.finish()?;
        client::post_plan(&addr, &req.to_wire_text()).map_err(network)?
    };

    let mut out = String::new();
    if let Some(path) = &out_file {
        write_artifact(path, &resp.body)?;
        out.push_str(&format!("status {}", resp.status));
        if let Some(cache) = resp.header("x-adapipe-cache") {
            out.push_str(&format!(", cache {cache}"));
        }
        if let Some(trace) = resp.header("x-adapipe-trace") {
            out.push_str(&format!(", trace {trace}"));
        }
        if let Some(digest) = resp.header("x-adapipe-digest") {
            out.push_str(&format!(", digest {digest}"));
        }
        out.push_str(&format!("; body written to {path}\n"));
    } else {
        out.push_str(&resp.body);
        if !resp.body.ends_with('\n') {
            out.push('\n');
        }
    }
    if resp.is_success() {
        Ok(out)
    } else {
        Err(ConfigError::Rejected(format!(
            "server answered {}: {}",
            resp.status,
            resp.body.trim_end()
        )))
    }
}

/// `adapipe report`: renders collected metrics/trace/flight artifacts
/// into one self-contained HTML file (inline SVG, no JavaScript).
/// Inputs come from `--dir DIR` (every `*.json` under it, classified
/// by shape; unknown shapes are skipped with a note) and/or `--files
/// a.json,b.json`.
pub fn report(mut args: Args) -> Result<String, ConfigError> {
    let out_path = args.require("out")?;
    let dir = args.take("dir");
    let files_csv = args.take("files");
    let title = args
        .take("title")
        .unwrap_or_else(|| "AdaPipe observability report".to_string());
    args.finish()?;

    let mut paths: Vec<std::path::PathBuf> = Vec::new();
    if let Some(dir) = &dir {
        let entries = std::fs::read_dir(dir)
            .map_err(|e| ConfigError::Domain(format!("cannot read --dir {dir}: {e}")))?;
        for entry in entries.filter_map(Result::ok) {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some("json") {
                paths.push(path);
            }
        }
        paths.sort();
    }
    if let Some(csv) = &files_csv {
        paths.extend(csv.split(',').filter(|s| !s.is_empty()).map(Into::into));
    }
    if paths.is_empty() {
        return Err(ConfigError::Domain(
            "report needs --dir DIR and/or --files a.json,b.json".to_string(),
        ));
    }

    let mut out = String::new();
    let mut artifacts = Vec::new();
    for path in &paths {
        let display = path.display().to_string();
        let text = std::fs::read_to_string(path)
            .map_err(|e| ConfigError::Domain(format!("cannot read {display}: {e}")))?;
        let doc = match adapipe_obs::json::parse(&text) {
            Ok(doc) => doc,
            Err(e) => {
                out.push_str(&format!("skipped {display}: {e}\n"));
                continue;
            }
        };
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or(&display);
        match crate::report_html::classify(name, doc) {
            Some(a) => artifacts.push(a),
            None => out.push_str(&format!("skipped {display}: not a known artifact schema\n")),
        }
    }
    let html = crate::report_html::render(&title, &artifacts);
    write_artifact(&out_path, &html)?;
    out.push_str(&format!(
        "report written to {out_path} ({} artifact(s) rendered)\n",
        artifacts.len()
    ));
    Ok(out)
}

/// `adapipe models`: list presets.
pub fn models(args: Args) -> Result<String, ConfigError> {
    args.finish()?;
    let mut out = String::from("available model presets:\n");
    for spec in [
        adapipe_model::presets::gpt3_175b(),
        adapipe_model::presets::llama2_70b(),
        adapipe_model::presets::gpt2_small(),
        adapipe_model::presets::bert_large(),
        adapipe_model::presets::tiny_gpt(),
    ] {
        out.push_str(&format!(
            "  {spec} — {:.1}B params\n",
            spec.total_params() as f64 / 1e9
        ));
    }
    Ok(out)
}

/// Usage text.
pub const USAGE: &str = "\
adapipe — plan pipeline-parallel training with adaptive recomputation & partitioning

USAGE:
  adapipe plan    --tensor T --pipeline P [--data D] --seq S --global-batch G
                  [--model M] [--cluster a|b] [--nodes N] [--method NAME]
                  [--headroom F] [--fp32-grads true|false] [--micro-batch B]
                  [--metrics-out FILE] [--chrome-trace FILE]
  adapipe sweep   --seq S --global-batch G [--devices N] [--max-tensor T]
                  [--model M] [--cluster a|b] [--method NAME]
                  [--metrics-out FILE] [--chrome-trace FILE] ...
  adapipe compare --tensor T --pipeline P [--data D] --seq S --global-batch G
                  [--metrics-out FILE] [--chrome-trace FILE] ...
  adapipe show    --plan FILE [--model M] [--cluster a|b] [--nodes N]
  adapipe verify  --plan FILE [--optimality true] [--epsilon F] [--oracle-seed N]
                  [--oracle-iters N] [--certificate-out FILE]
                  [--metrics-out FILE] [--model M] [--cluster a|b] [--nodes N]
  adapipe sim     --plan FILE [--model M] [--cluster a|b] [--nodes N]
  adapipe trace   --plan FILE [--out trace.json] [--model M] [--cluster a|b]
  adapipe chaos   --faults FILE --tensor T --pipeline P --seq S --global-batch G
                  [--seed N] [--steps N] [--out report.txt] [--replan-out plan.txt]
                  [--flight-out flight.json] [--model M] [--cluster a|b] [--nodes N]
  adapipe serve   [--host H] [--port P] [--workers N] [--cache-capacity N]
                  [--queue-depth N] [--deadline-ms MS] [--trace-capacity N]
                  [--flight-dir DIR]
  adapipe query   --addr HOST:PORT (plan flags | --digest D | --get PATH |
                  --body-file FILE | --shutdown true) [--out FILE]
  adapipe report  --out report.html [--dir DIR] [--files a.json,b.json]
                  [--title TEXT]
  adapipe models

VERIFY:
  statically checks a saved plan against the paper's invariants — memory
  budgets under the chosen save/recompute sets (Eq. (1)-(2)), contiguous
  full-cover partitioning, an acyclic deadlock-free task DAG, Eq. (3)
  breakdown consistency and iso-cache soundness — without executing it;
  exits 1 if any error-severity finding is reported; --optimality true
  additionally (a) certifies the plan against an analytic lower bound on
  any memory-feasible Eq. (3) plan (written as an adapipe-certificate v1
  artifact by --certificate-out; an AdaPipe plan more than --epsilon
  above the bound is an optimality-gap error, a baseline's gap is only a
  warning), and (b) cross-checks Algorithm 1 and the recomputation
  knapsack against brute-force oracles on pinned grids plus
  --oracle-iters seeded random instances (--oracle-seed), shrinking any
  disagreement to a minimal reproducer; see docs/verification.md

SIM:
  executes a saved plan in the event simulator and checks every device's
  dynamic-memory high-water mark against its Eq. (1)-(2) budget; an
  over-budget device rejects the plan with exit code 1

CHAOS:
  plans, injects the deterministic fault scenario in --faults FILE
  (straggler / link / mem-shrink / stall lines; see docs/robustness.md),
  detects the degradation with the watchdog, drives the recovery ladder
  (bounded retry -> Algorithm 1 replan -> full-recompute fallback) and
  verifies the replanned artifact; the report is byte-stable for a given
  fault file + seed (--seed overrides the file's seed); exits 1 when a
  needed replan is rejected

SERVE:
  runs the planner as an HTTP/1.1 daemon (see docs/serving.md): POST
  /v1/plan canonicalizes the request, digests it (SHA-256) and answers
  from a content-addressed LRU plan cache; misses are planned on a
  bounded worker pool with explicit backpressure (503 + Retry-After
  when the queue is full) and every plan is verified before it is
  served; POST /admin/shutdown drains in-flight work and exits 0; every
  POST /v1/plan response carries an X-Adapipe-Trace id whose span
  timeline is retrievable via GET /v1/trace/{id}; --flight-dir DIR
  makes the daemon dump its flight-recorder ring (adapipe-flight/v1
  JSON) there on backpressure, deadline violations and watchdog
  events, and POST /admin/dump returns the same dump on demand

QUERY:
  drives a running daemon: plan flags POST a canonical request,
  --digest D looks up a cached plan by content address, --get PATH
  fetches e.g. /metrics, --body-file FILE posts a raw body and
  --shutdown true drains the daemon; a 2xx response exits 0, a 4xx/5xx
  response exits 1, a network failure exits 2

REPORT:
  renders collected observability artifacts into one self-contained
  HTML file (inline SVG charts, no JavaScript): serve latency
  histograms and the planner phase breakdown from adapipe-obs/v1
  metrics reports, schedule timelines from Chrome-trace dumps, bench
  mean-latency bars from BENCH_*.json summaries and flight-recorder
  incident tables; inputs are classified by shape, unknown files are
  skipped with a note (see docs/observability.md)

EXIT CODES:
  0  success: the command ran and the artifact under test was accepted
  1  rejected: the artifact failed (verification errors, over-budget
     simulation, unrecovered chaos run, a 4xx/5xx daemon response, an
     unwritable output artifact)
  2  internal error: bad flags, unreadable files, invalid configurations

OBSERVABILITY:
  --metrics-out FILE   write the search engine's metrics (knapsack DP
                       effort, Algorithm 1 states, iso-cache hit rate,
                       simulator events) as a JSON report
  --chrome-trace FILE  write the planner's spans in Chrome Trace Event
                       Format (load in chrome://tracing or Perfetto)

MODELS:  gpt3 (default), llama2, gpt2, bert, tiny
METHODS: adapipe (default), even, dapple-full, dapple-non, dapple-selective,
         chimera-full, chimera-non, chimerad-full, chimerad-non,
         gpipe-full, gpipe-non, interleaved-full, interleaved-non
";

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::parse(list.iter().map(ToString::to_string)).unwrap()
    }

    #[test]
    fn plan_produces_a_stage_dump() {
        let out = plan(args(&[
            "--model",
            "gpt2",
            "--cluster",
            "a",
            "--nodes",
            "1",
            "--tensor",
            "2",
            "--pipeline",
            "4",
            "--seq",
            "1024",
            "--global-batch",
            "32",
        ]))
        .unwrap();
        assert!(out.contains("stage 0"), "{out}");
        assert!(out.contains("evaluation"), "{out}");
    }

    #[test]
    fn plan_reports_oom_gracefully() {
        let out = plan(args(&[
            "--model",
            "gpt3",
            "--cluster",
            "b",
            "--nodes",
            "1",
            "--tensor",
            "1",
            "--pipeline",
            "8",
            "--seq",
            "4096",
            "--global-batch",
            "64",
        ]))
        .unwrap();
        assert!(out.contains("cannot run"), "{out}");
    }

    #[test]
    fn sweep_lists_strategies_and_a_best() {
        let out = sweep(args(&[
            "--model",
            "gpt2",
            "--cluster",
            "a",
            "--nodes",
            "1",
            "--seq",
            "512",
            "--global-batch",
            "32",
        ]))
        .unwrap();
        assert!(out.contains("best:"), "{out}");
    }

    #[test]
    fn compare_covers_every_method() {
        let out = compare(args(&[
            "--model",
            "gpt2",
            "--cluster",
            "a",
            "--nodes",
            "1",
            "--tensor",
            "2",
            "--pipeline",
            "4",
            "--seq",
            "512",
            "--global-batch",
            "32",
        ]))
        .unwrap();
        for m in Method::all() {
            assert!(out.contains(&m.to_string()), "missing {m}: {out}");
        }
        assert!(out.contains("fastest:"), "{out}");
    }

    #[test]
    fn plan_show_trace_round_trip_via_files() {
        let dir = std::env::temp_dir();
        let plan_path = dir.join("adapipe-cli-test-plan.txt");
        let trace_path = dir.join("adapipe-cli-test-trace.json");
        let plan_path = plan_path.to_str().unwrap();
        let trace_path = trace_path.to_str().unwrap();

        let out = plan(args(&[
            "--model",
            "gpt2",
            "--cluster",
            "a",
            "--nodes",
            "1",
            "--tensor",
            "2",
            "--pipeline",
            "4",
            "--seq",
            "512",
            "--global-batch",
            "16",
            "--out",
            plan_path,
        ]))
        .unwrap();
        assert!(out.contains("plan written"), "{out}");

        let shown = show(args(&[
            "--plan",
            plan_path,
            "--model",
            "gpt2",
            "--cluster",
            "a",
            "--nodes",
            "1",
        ]))
        .unwrap();
        assert!(shown.contains("stage 0"), "{shown}");

        let traced = trace(args(&[
            "--plan",
            plan_path,
            "--model",
            "gpt2",
            "--cluster",
            "a",
            "--nodes",
            "1",
            "--out",
            trace_path,
        ]))
        .unwrap();
        assert!(traced.contains("events written"), "{traced}");
        let json = std::fs::read_to_string(trace_path).unwrap();
        assert!(json.starts_with('['));
        let _ = std::fs::remove_file(plan_path);
        let _ = std::fs::remove_file(trace_path);
    }

    #[test]
    fn verify_accepts_saved_plans_and_rejects_corrupted_ones() {
        let dir = std::env::temp_dir();
        let plan_path = dir.join("adapipe-cli-test-verify-plan.txt");
        let bad_path = dir.join("adapipe-cli-test-verify-bad.txt");
        let plan_path = plan_path.to_str().unwrap();
        let bad_path = bad_path.to_str().unwrap();

        let common = [
            "--model",
            "gpt2",
            "--cluster",
            "a",
            "--nodes",
            "1",
            "--tensor",
            "2",
            "--pipeline",
            "4",
            "--seq",
            "512",
            "--global-batch",
            "16",
        ];
        let mut plan_args: Vec<&str> = common.to_vec();
        plan_args.extend(["--method", "adapipe", "--out", plan_path]);
        let _ = plan(args(&plan_args)).unwrap();

        let ok = verify(args(&[
            "--plan",
            plan_path,
            "--model",
            "gpt2",
            "--cluster",
            "a",
            "--nodes",
            "1",
        ]))
        .unwrap();
        assert!(ok.contains("ok: all invariants hold"), "{ok}");

        // Corrupt one stage's backward time: the stored cost no longer
        // matches the strategy (stale-cost class) and Eq. (3) drifts.
        let text = std::fs::read_to_string(plan_path).unwrap();
        let line = text
            .lines()
            .find(|l| l.trim_start().starts_with("time_b ="))
            .unwrap();
        let corrupted = text.replacen(line, "  time_b = 999.0", 1);
        std::fs::write(bad_path, corrupted).unwrap();
        let err = verify(args(&[
            "--plan",
            bad_path,
            "--model",
            "gpt2",
            "--cluster",
            "a",
            "--nodes",
            "1",
        ]))
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("failed verification"), "{msg}");
        assert!(msg.contains("cost-drift"), "{msg}");
        let _ = std::fs::remove_file(plan_path);
        let _ = std::fs::remove_file(bad_path);
    }

    #[test]
    fn plan_writes_metrics_and_chrome_trace() {
        let dir = std::env::temp_dir();
        let metrics_path = dir.join("adapipe-cli-test-metrics.json");
        let trace_path = dir.join("adapipe-cli-test-obs-trace.json");
        let metrics_path = metrics_path.to_str().unwrap();
        let trace_path = trace_path.to_str().unwrap();

        let out = plan(args(&[
            "--model",
            "gpt2",
            "--cluster",
            "a",
            "--nodes",
            "1",
            "--tensor",
            "2",
            "--pipeline",
            "4",
            "--seq",
            "512",
            "--global-batch",
            "16",
            "--metrics-out",
            metrics_path,
            "--chrome-trace",
            trace_path,
        ]))
        .unwrap();
        assert!(out.contains("metrics written"), "{out}");
        assert!(out.contains("chrome trace written"), "{out}");

        let metrics = std::fs::read_to_string(metrics_path).unwrap();
        let v = adapipe_obs::json::parse(&metrics).expect("valid metrics JSON");
        let counters = v.get("counters").expect("counters object");
        // The acceptance set: knapsack DP effort, Algorithm 1 leaf
        // evaluations, iso-cache traffic, simulator events.
        for key in [
            "recompute.knapsack.calls",
            "partition.leaf_evals",
            "partition.alg1.states",
            "partition.iso_cache.misses",
            "sim.events",
        ] {
            assert!(
                counters.get(key).and_then(|c| c.as_f64()).unwrap_or(0.0) > 0.0,
                "missing counter {key}: {metrics}"
            );
        }
        assert!(
            v.get("histograms")
                .and_then(|h| h.get("recompute.knapsack.us"))
                .is_some(),
            "knapsack timing histogram missing: {metrics}"
        );
        assert!(
            v.get("gauges")
                .and_then(|g| g.get("partition.iso_cache.hit_rate"))
                .is_some(),
            "iso-cache hit rate missing: {metrics}"
        );

        let trace = std::fs::read_to_string(trace_path).unwrap();
        let events = adapipe_obs::json::parse(&trace).expect("valid trace JSON");
        let events = events.as_array().expect("trace is an array");
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
            .collect();
        for span in ["plan", "plan.profile", "plan.partition", "sim.run"] {
            assert!(names.contains(&span), "span {span} missing: {names:?}");
        }
        let _ = std::fs::remove_file(metrics_path);
        let _ = std::fs::remove_file(trace_path);
    }

    #[test]
    fn compare_reports_iso_cache_hit_rate() {
        let out = compare(args(&[
            "--model",
            "gpt2",
            "--cluster",
            "a",
            "--nodes",
            "1",
            "--tensor",
            "2",
            "--pipeline",
            "4",
            "--seq",
            "512",
            "--global-batch",
            "32",
        ]))
        .unwrap();
        assert!(out.contains("iso-cache:"), "{out}");
        let hits: u64 = out
            .split("iso-cache: ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .unwrap();
        assert!(hits > 0, "expected nonzero iso-cache hits: {out}");
    }

    #[test]
    fn show_rejects_missing_file() {
        let e = show(args(&["--plan", "/nonexistent/adapipe-plan.txt"])).unwrap_err();
        assert!(e.to_string().contains("cannot read"), "{e}");
    }

    #[test]
    fn models_lists_presets() {
        let out = models(args(&[])).unwrap();
        assert!(out.contains("gpt3-175b"));
        assert!(out.contains("llama2-70b"));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let e = plan(args(&["--frobnicate", "1"])).unwrap_err();
        assert!(e.to_string().contains("tensor") || e.to_string().contains("frobnicate"));
    }

    #[test]
    fn bad_headroom_is_rejected() {
        let e = plan(args(&[
            "--tensor",
            "2",
            "--pipeline",
            "4",
            "--seq",
            "512",
            "--global-batch",
            "32",
            "--headroom",
            "1.5",
        ]))
        .unwrap_err();
        assert!(e.to_string().contains("headroom"), "{e}");
    }
}
