//! `serve-paper-miss` and `serve-mixed`: closed-loop clients driving an
//! `adapipe-serve` daemon in a child process over loopback HTTP.
//!
//! The daemon is this benchmark binary re-executed as `daemon`, which
//! binds `adapipe_serve::Server` with nproc workers and otherwise the
//! default `ServeConfig` (plan-cache capacity included); the child
//! inherits `ADAPIPE_THREADS`. Per-layer numbers come from the span
//! trees the daemon serves at `GET /v1/trace/{id}` and the counters at
//! `GET /metrics`; nothing inside the daemon is instrumented anew.

use crate::calibrate::{self, Kernel};
use crate::cold::{cli_pool, plan_in_process};
use crate::grid::{HeadroomBand, MissBand, Rng, Rotation, COLD_MIX, GLOBAL_BATCH, GRID, PIPELINE};
use crate::report::{counters_line, Checks, Counters, Ledger};
use crate::stats::{median, quantile};
use crate::{Measured, RunOpts};
use adapipe::{plan_io, VerifyOptions};
use adapipe_obs::json::{self, Value};
use adapipe_obs::keys;
use adapipe_serve::client::{self, HttpResponse};
use adapipe_serve::PlanRequest;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Daemon set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// Responses of `serve-paper-miss` re-verified and re-planned in
/// process after the timed window.
const SAMPLE_CHECKS: usize = 3;

/// Concurrent closed-loop connections of `serve-mixed`, one per core of
/// the 2-core reference machine.
pub const MIXED_CONNECTIONS: usize = 2;

/// `serve-mixed` sends one miss per block of this many requests (5 %).
const MIX_BLOCK: usize = 20;

/// Global batches of the `serve-mixed` hot set, per grid config.
const HOT_BATCHES: [usize; 2] = [GLOBAL_BATCH, 2 * GLOBAL_BATCH];

/// `peak_rss_mb` is read after this many timed requests: the daemon's
/// caches grow with every miss, so a fixed amount of work keeps the
/// reading independent of the host's speed.
const RSS_AFTER_MISSES: usize = 40;
const RSS_AFTER_MIXED: usize = 4000;

/// `serve-mixed` drives load in segments of this length and, between
/// two segments, with the daemon idle, samples the calibration kernel.
const SEGMENT: Duration = Duration::from_secs(1);
const KERNEL_PER_PAUSE: usize = 2;

/// A daemon child process. Dropping the handle closes the child's
/// stdin, which the daemon treats as a shutdown request, and reaps it.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    pub addr: String,
}

impl Daemon {
    /// Spawns the daemon and waits until `/healthz` answers.
    pub fn spawn() -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("daemon")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let stdin = child.stdin.take();
        let mut line = String::new();
        if let Some(out) = child.stdout.take() {
            BufReader::new(out)
                .read_line(&mut line)
                .map_err(|e| format!("daemon stdout: {e}"))?;
        }
        let mut daemon = Daemon {
            child,
            stdin,
            addr: String::new(),
        };
        daemon.addr = line
            .trim()
            .strip_prefix("listening ")
            .ok_or_else(|| format!("daemon did not report its address: {line:?}"))?
            .to_string();
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match client::get(&daemon.addr, "/healthz") {
                Ok(r) if r.status == 200 => return Ok(daemon),
                _ if Instant::now() > deadline => {
                    return Err("daemon never answered /healthz".to_string())
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::report::peak_rss_mb(Some(self.child.id()))
    }

    /// `GET /metrics`, flattened to `counter:`, `gauge:`, `sum:` and
    /// `count:` prefixed keys.
    pub fn metrics(&self) -> Result<BTreeMap<String, f64>, String> {
        let resp = client::get(&self.addr, "/metrics").map_err(|e| format!("/metrics: {e}"))?;
        let doc = json::parse(&resp.body).map_err(|e| format!("/metrics: {e}"))?;
        let mut flat = BTreeMap::new();
        for (section, prefix) in [("counters", "counter:"), ("gauges", "gauge:")] {
            if let Some(Value::Object(map)) = doc.get(section) {
                for (k, v) in map {
                    flat.insert(format!("{prefix}{k}"), v.as_f64().unwrap_or(0.0));
                }
            }
        }
        if let Some(Value::Object(map)) = doc.get("histograms") {
            for (k, h) in map {
                for field in ["sum", "count"] {
                    let v = h.get(field).and_then(Value::as_f64).unwrap_or(0.0);
                    flat.insert(format!("{field}:{k}"), v);
                }
            }
        }
        Ok(flat)
    }

    /// Graceful drain via `POST /admin/shutdown`, then reap the child.
    pub fn shutdown(mut self) -> Result<(), String> {
        let drained = client::request(&self.addr, "POST", "/admin/shutdown", None);
        self.stdin.take();
        let status = self.child.wait().map_err(|e| format!("daemon wait: {e}"))?;
        match drained {
            Ok(r) if r.status == 200 && status.success() => Ok(()),
            _ => Err(format!("daemon did not drain cleanly ({status})")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stdin.take();
        if let Ok(None) = self.child.try_wait() {
            // The child may exit on its own first; a failed kill is moot.
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The daemon side: binds the server, reports its address on stdout,
/// and drains when asked over HTTP or when its parent goes away.
pub fn daemon_main() -> Result<(), String> {
    use std::io::{Read, Write};
    let cfg = adapipe_serve::ServeConfig {
        port: 0,
        workers: crate::nproc(),
        ..adapipe_serve::ServeConfig::default()
    };
    let server = adapipe_serve::Server::bind(cfg, adapipe_obs::Recorder::new())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr().to_string();
    println!("listening {addr}");
    std::io::stdout()
        .flush()
        .map_err(|e| format!("stdout: {e}"))?;
    let watcher = std::thread::spawn(move || {
        let mut sink = Vec::new();
        let _ = std::io::stdin().read_to_end(&mut sink);
        let _ = client::request(&addr, "POST", "/admin/shutdown", None);
    });
    server.join();
    watcher
        .join()
        .map_err(|_| "stdin watcher panicked".to_string())
}

fn expect_plan(
    resp: &std::io::Result<HttpResponse>,
    digest: &str,
    cache: &str,
) -> Result<(), String> {
    let resp = resp.as_ref().map_err(|e| format!("transport: {e}"))?;
    if resp.status != 200 {
        return Err(format!("status {}: {}", resp.status, resp.body.trim()));
    }
    if resp.header("x-adapipe-digest") != Some(digest) {
        return Err("response digest differs from the request's".to_string());
    }
    if resp.header("x-adapipe-cache") != Some(cache) {
        return Err(format!("expected a cache {cache}"));
    }
    Ok(())
}

/// Re-parses and re-verifies a served plan, then byte-compares it with
/// an in-process plan of the same request.
fn recheck(req: &PlanRequest, body: &str) -> Result<(), String> {
    let plan = plan_io::from_text(body).map_err(|e| format!("served plan: {e}"))?;
    let planner = req.planner().map_err(|e| e.to_string())?;
    let report = planner.verify_with(&plan, VerifyOptions::default());
    if report.has_errors() {
        return Err(format!("served plan fails verification: {report}"));
    }
    let (_, local) = plan_in_process(&req.to_wire_text(), cli_pool().as_ref())?;
    if local != body {
        return Err("served plan differs from the in-process plan".to_string());
    }
    Ok(())
}

/// Span name → (start µs, duration µs) of one request trace.
struct Spans(Vec<(String, f64, f64)>);

impl Spans {
    fn fetch(addr: &str, resp: &HttpResponse) -> Result<Spans, String> {
        let id = resp.header("x-adapipe-trace").ok_or("no trace id")?;
        let trace = client::get(addr, &format!("/v1/trace/{id}")).map_err(|e| e.to_string())?;
        let doc = json::parse(&trace.body).map_err(|e| format!("trace {id}: {e}"))?;
        let events = doc.as_array().ok_or("trace is not an array")?;
        Ok(Spans(
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
                .filter_map(|e| {
                    Some((
                        e.get("name")?.as_str()?.to_string(),
                        e.get("ts")?.as_f64()?,
                        e.get("dur")?.as_f64()?,
                    ))
                })
                .collect(),
        ))
    }

    fn get(&self, name: &str) -> Option<(f64, f64)> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, ts, dur)| (ts, dur))
    }

    fn dur(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |(_, d)| d)
    }

    /// From the first span's start (the accept instant) to the last
    /// span's end.
    fn extent(&self) -> f64 {
        let start = self.0.iter().map(|s| s.1).fold(f64::INFINITY, f64::min);
        let end = self.0.iter().map(|s| s.1 + s.2).fold(0.0, f64::max);
        (end - start).max(0.0)
    }

    /// Records the serving-layer spans of one request.
    fn record(&self, client_us: f64, ledger: &mut Ledger) {
        let extent = self.extent();
        let (parse, queue) = (
            self.dur(keys::SPAN_SERVE_PARSE),
            self.dur(keys::SPAN_SERVE_QUEUE_WAIT),
        );
        ledger.push("serve.parse_us", parse);
        ledger.push("serve.queue_wait_us", queue);
        ledger.push("serve.transport_us", (client_us - extent).max(0.0));
        let Some((insert_ts, insert)) = self.get(keys::SPAN_SERVE_CACHE_INSERT) else {
            ledger.push("serve.hit_self_us", (extent - parse - queue).max(0.0));
            return;
        };
        let (verify_ts, verify) = self
            .get(keys::SPAN_SERVE_VERIFY)
            .unwrap_or((insert_ts, 0.0));
        // `plan_io::to_text` runs between the verify gate and the insert.
        let serialize = (insert_ts - verify_ts - verify).max(0.0);
        let plan = self.dur(keys::SPAN_PLAN);
        ledger.push("serve.cache_insert_us", insert);
        ledger.push("profiler.profile_us", self.dur(keys::SPAN_PLAN_PROFILE));
        ledger.push("exec.prefill_ms", self.dur(keys::SPAN_PLAN_PREFILL) / 1e3);
        // Prefill leaves every leaf in the iso cache, so the DP span is
        // Algorithm 1's self time.
        ledger.push(
            "partition.alg1_self_ms",
            self.dur(keys::SPAN_PARTITION_ALG1) / 1e3,
        );
        ledger.push(
            "planner.materialize_ms",
            self.dur(keys::SPAN_PLAN_MATERIALIZE) / 1e3,
        );
        ledger.push("check.verify_ms", verify / 1e3);
        ledger.push("planner.serialize_us", serialize);
        let accounted = queue + parse + plan + verify + serialize + insert;
        ledger.push(
            "ledger.unaccounted_share",
            ((extent - accounted) / extent.max(1e-9)).max(0.0),
        );
    }
}

fn delta(after: &BTreeMap<String, f64>, before: &BTreeMap<String, f64>, key: &str) -> f64 {
    after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
}

fn ratio(hits: f64, misses: f64) -> f64 {
    hits / (hits + misses).max(1.0)
}

/// Records planner work between two `/metrics` scrapes, divided over
/// `per` requests, and returns the exact counters.
fn record_work(
    after: &BTreeMap<String, f64>,
    before: &BTreeMap<String, f64>,
    per: f64,
    ledger: &mut Ledger,
) -> Counters {
    let d = |k: &str| delta(after, before, k);
    let c = |k: &str| d(&format!("counter:{k}"));
    ledger.push(
        "serve.cache.hit_ratio",
        ratio(c(keys::SERVE_CACHE_HITS), c(keys::SERVE_CACHE_MISSES)),
    );
    ledger.push(
        "partition.subcache.hit_ratio",
        ratio(c(keys::SUBCACHE_HITS), c(keys::SUBCACHE_MISSES)),
    );
    ledger.push(
        "partition.iso_cache.hit_ratio",
        ratio(c(keys::ISO_CACHE_HITS), c(keys::ISO_CACHE_MISSES)),
    );
    let per = per.max(1.0);
    ledger.push(
        "exec.pool.tasks",
        d(&format!("gauge:{}", keys::EXEC_POOL_TASKS)) / per,
    );
    ledger.push(
        "exec.pool.steals",
        d(&format!("gauge:{}", keys::EXEC_POOL_STEALS)) / per,
    );
    ledger.push(
        "partition.leaf_ms",
        d(&format!("sum:{}", keys::PARTITION_LEAF_US)) / 1e3 / per,
    );
    let timed = d(&format!("count:{}", keys::KNAPSACK_US));
    ledger.push("recompute.knapsack.timed_calls", timed / per);
    let mut work = Counters::new();
    for (name, key) in [
        ("recompute.knapsack.cells", keys::KNAPSACK_CELLS),
        ("recompute.knapsack.calls", keys::KNAPSACK_CALLS),
        ("partition.leaf_evals", keys::PARTITION_LEAF_EVALS),
        ("partition.alg1.candidates", keys::ALG1_CANDIDATES),
    ] {
        ledger.push(name, c(key) / per);
        work.insert(name, c(key) as u64);
    }
    for (name, key) in [
        ("partition.prefill.leaves", keys::PREFILL_LEAVES),
        ("partition.alg1.states", keys::ALG1_STATES),
        ("partition.iso_cache.hits", keys::ISO_CACHE_HITS),
        ("partition.iso_cache.misses", keys::ISO_CACHE_MISSES),
        ("subcache.hits", keys::SUBCACHE_HITS),
        ("subcache.misses", keys::SUBCACHE_MISSES),
    ] {
        work.insert(name, c(key) as u64);
    }
    work.insert("recompute.knapsack.timed_calls", timed as u64);
    work
}

/// What `set_up` hands back: the last daemon, the set-up times, the
/// kernel time around each set-up and the warm responses' bodies.
struct SetUp {
    daemon: Daemon,
    setup: Vec<f64>,
    kernel_ms: Vec<f64>,
    bodies: Vec<String>,
}

/// Spawns `SETUP_REPS` daemons in turn, each time timing spawn →
/// `/healthz` → `warm` requests answered; keeps the last daemon.
fn set_up(warm: &[PlanRequest], kernel: &Kernel, checks: &mut Checks) -> Result<SetUp, String> {
    let mut setup = Vec::new();
    let mut kernel_ms = Vec::new();
    let mut last: Option<(Daemon, Vec<String>)> = None;
    let mut before = kernel.samples(calibrate::PER_SETUP);
    for _ in 0..SETUP_REPS {
        if let Some((old, _)) = last.take() {
            old.shutdown()?;
        }
        let t0 = Instant::now();
        let daemon = Daemon::spawn()?;
        let responses: Vec<_> = warm
            .iter()
            .map(|r| client::post_plan(&daemon.addr, &r.to_wire_text()))
            .collect();
        setup.push(t0.elapsed().as_secs_f64());
        let mut bodies = Vec::new();
        for (req, resp) in warm.iter().zip(&responses) {
            checks.record(expect_plan(resp, &req.digest(), "miss"));
            bodies.push(resp.as_ref().map(|r| r.body.clone()).unwrap_or_default());
        }
        if let Some((_, earlier)) = &last {
            checks.record(if *earlier == bodies {
                Ok(())
            } else {
                Err("set-up plans differ between daemons".to_string())
            });
        }
        last = Some((daemon, bodies));
        let after = kernel.samples(calibrate::PER_SETUP);
        kernel_ms.push(calibrate::around(&before, &after));
        before = after;
    }
    let (daemon, bodies) = last.ok_or("no set-up ran")?;
    Ok(SetUp {
        daemon,
        setup,
        kernel_ms,
        bodies,
    })
}

pub fn run_paper_miss(opts: &RunOpts) -> Result<Measured, String> {
    let mut checks = Checks::default();
    let kernel = Kernel::new();
    // The warm-up plans at the default headroom, outside the timed band,
    // so its leaves never serve a timed request.
    let SetUp {
        daemon,
        setup,
        kernel_ms: setup_kernel_ms,
        ..
    } = set_up(&[GRID[0].base()], &kernel, &mut checks)?;

    let mut rotation = Rotation::new(Rng::new(opts.seed, 2), &COLD_MIX);
    let mut band = HeadroomBand::new(Rng::new(opts.seed, 3));
    let mut latencies = Vec::new();
    let mut kernel_at = Vec::new();
    let mut classes = Vec::new();
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut served = Vec::new();
    let mut ledger = Ledger::default();
    let mut kernel_ms = Vec::new();
    let mut peak_rss_mb = None;
    let window = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut k = 0usize;
    while start.elapsed() < window {
        let Some(headroom) = band.next() else { break };
        kernel_ms.push(kernel.time_ms());
        if k == RSS_AFTER_MISSES {
            peak_rss_mb = Some(daemon.peak_rss_mb()?);
        }
        let idx = rotation.next();
        let req = GRID[idx].request(GLOBAL_BATCH, headroom);
        let traced = opts.trace && k % 2 == 1;
        k += 1;
        let before = if traced {
            Some(daemon.metrics()?)
        } else {
            None
        };
        let t0 = Instant::now();
        let resp = client::post_plan(&daemon.addr, &req.to_wire_text());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let verdict = expect_plan(&resp, &req.digest(), "miss");
        let ok = verdict.is_ok();
        checks.record(verdict);
        let Ok(resp) = resp else { continue };
        if !ok {
            continue;
        }
        latencies.push(ms);
        kernel_at.push(kernel_ms.len() - 1);
        classes.push(idx);
        if let Some(before) = before {
            traced_ms.push(ms);
            match Spans::fetch(&daemon.addr, &resp) {
                Ok(spans) => spans.record(ms * 1e3, &mut ledger),
                Err(e) => checks.record(Err(e)),
            }
            let work = record_work(&daemon.metrics()?, &before, 1.0, &mut ledger);
            let key = format!("{}-h{headroom:.5}", GRID[idx].name);
            println!("{}", counters_line("serve-paper-miss", &key, &work));
            // Distinct budgets: no leaf of another request can be reused.
            // The only hits are materialize replaying this request's own
            // prefilled leaves, one per stage.
            checks.record(match work.get("subcache.hits") {
                Some(&hits) if hits == PIPELINE as u64 => Ok(()),
                hits => Err(format!("{key}: {hits:?} subcache hits, want {PIPELINE}")),
            });
        } else {
            untraced_ms.push(ms);
        }
        served.push((req, resp.body));
    }
    let window_s = calibrate::excluding(start.elapsed(), &kernel_ms);
    let peak_rss_mb = match peak_rss_mb {
        Some(mb) => mb,
        None => daemon.peak_rss_mb()?,
    };
    let ok = latencies.len() as u64;

    let mut pick = Rng::new(opts.seed, 4);
    for _ in 0..SAMPLE_CHECKS.min(served.len()) {
        let (req, body) = served.swap_remove(pick.below(served.len()));
        checks.record(recheck(&req, &body));
    }
    daemon.shutdown()?;
    if opts.trace {
        ledger.push(
            "trace.overhead_ratio",
            median(&traced_ms) / median(&untraced_ms),
        );
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
        peak_rss_mb,
        kernel_ms,
        ledger: opts.trace.then_some(ledger),
    })
}

/// One completed `serve-mixed` request.
struct Sent {
    miss: Option<PlanRequest>,
    ms: f64,
    /// Index of the last kernel sample taken before its segment.
    kernel_at: usize,
    traced: bool,
    body: String,
}

pub fn run_mixed(opts: &RunOpts) -> Result<Measured, String> {
    let mut checks = Checks::default();
    let kernel = Kernel::new();
    let hot: Vec<PlanRequest> = GRID
        .iter()
        .flat_map(|cfg| HOT_BATCHES.map(|gb| cfg.request(gb, adapipe_serve::DEFAULT_HEADROOM)))
        .collect();
    let SetUp {
        daemon,
        setup,
        kernel_ms: setup_kernel_ms,
        bodies: hot_bodies,
    } = set_up(&hot, &kernel, &mut checks)?;
    let hot_wire: Vec<(String, String)> =
        hot.iter().map(|r| (r.to_wire_text(), r.digest())).collect();

    let mix = Mix {
        addr: &daemon.addr,
        hot: &hot_wire,
        hot_bodies: &hot_bodies,
        misses: MissBand::new(Rng::new(opts.seed, 6)),
        next_miss: AtomicUsize::new(0),
        completed: AtomicUsize::new(0),
        daemon: &daemon,
        peak_rss_mb: Mutex::new(None),
    };
    let mut conns: Vec<Connection> = (0..MIXED_CONNECTIONS)
        .map(|conn| Connection::new(opts.seed, conn))
        .collect();
    let mut kernel_ms = Vec::new();
    let mut window_s = 0.0;
    let before = daemon.metrics()?;
    while window_s < opts.seconds {
        // Every request of the last segment has been answered: the
        // kernel has the host to itself.
        kernel_ms.extend(kernel.samples(KERNEL_PER_PAUSE));
        let start = Instant::now();
        let deadline = start + SEGMENT.min(Duration::from_secs_f64(opts.seconds - window_s));
        let kernel_at = kernel_ms.len() - 1;
        let ends = std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .iter_mut()
                .map(|conn| {
                    let mix = &mix;
                    scope.spawn(move || conn.run(opts, mix, deadline, kernel_at))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join())
                .collect::<Result<Vec<Instant>, _>>()
        })
        .map_err(|_| "a serve-mixed connection panicked".to_string())?;
        window_s += ends
            .iter()
            .map(|end| end.duration_since(start).as_secs_f64())
            .fold(0.0, f64::max);
    }
    let after = daemon.metrics()?;
    let peak_rss_mb = match mix.peak_rss_mb.into_inner().ok().flatten() {
        Some(mb) => mb,
        None => daemon.peak_rss_mb()?,
    };

    let mut ledger = Ledger::default();
    let mut sent = Vec::new();
    for conn in conns {
        sent.extend(conn.sent);
        checks.attempted += conn.checks.attempted;
        checks.failed += conn.checks.failed;
        ledger.merge(conn.ledger);
    }
    let misses: Vec<&Sent> = sent.iter().filter(|s| s.miss.is_some()).collect();
    let (n_hits, n_misses) = ((sent.len() - misses.len()) as f64, misses.len() as f64);
    // The daemon's own plan-cache counters must match the configured mix.
    let (d_hits, d_misses) = (
        delta(
            &after,
            &before,
            &format!("counter:{}", keys::SERVE_CACHE_HITS),
        ),
        delta(
            &after,
            &before,
            &format!("counter:{}", keys::SERVE_CACHE_MISSES),
        ),
    );
    checks.record(if (d_hits, d_misses) == (n_hits, n_misses) {
        Ok(())
    } else {
        Err(format!(
            "daemon counted {d_hits} hits / {d_misses} misses, client sent {n_hits} / {n_misses}"
        ))
    });
    // Served misses must parse back to the plan that was asked for; a
    // seeded few are re-verified and re-planned in process.
    for s in &misses {
        let want = s.miss.as_ref().map(|r| r.global_batch);
        checks.record(match plan_io::from_text(&s.body) {
            Ok(plan) if Some(plan.train.global_batch()) == want => Ok(()),
            Ok(_) => Err("served miss answers another global batch".to_string()),
            Err(e) => Err(format!("served miss: {e}")),
        });
    }
    let mut pick = Rng::new(opts.seed, 5);
    for _ in 0..SAMPLE_CHECKS.min(misses.len()) {
        let s = misses[pick.below(misses.len())];
        if let Some(req) = &s.miss {
            checks.record(recheck(req, &s.body));
        }
    }
    daemon.shutdown()?;
    // Miss latency by quarter of the global-batch band: the tail's
    // misses come from the whole band, not from its late, large end.
    let quarter = MissBand::STEPS / 4;
    for lo in (0..4).map(|q| MissBand::FIRST + q * quarter) {
        let ms: Vec<f64> = misses
            .iter()
            .filter(|s| {
                s.miss
                    .as_ref()
                    .is_some_and(|r| (lo..lo + quarter).contains(&r.global_batch))
            })
            .map(|s| s.ms)
            .collect();
        println!(
            "misses at global batch {lo}..{}: {} samples, raw p50 {:.4} ms, raw p90 {:.4} ms",
            lo + quarter,
            ms.len(),
            median(&ms),
            quantile(&ms, 0.9)
        );
    }

    if opts.trace {
        record_work(&after, &before, n_misses, &mut ledger);
        let traced: Vec<f64> = sent.iter().filter(|s| s.traced).map(|s| s.ms).collect();
        let untraced: Vec<f64> = sent.iter().filter(|s| !s.traced).map(|s| s.ms).collect();
        ledger.push("trace.overhead_ratio", median(&traced) / median(&untraced));
    }
    Ok(Measured {
        checks,
        setup,
        setup_kernel_ms,
        classes: sent
            .iter()
            .map(|s| if s.miss.is_some() { "miss" } else { "hit" })
            .collect(),
        latencies: sent.iter().map(|s| s.ms).collect(),
        slowness: sent
            .iter()
            .map(|s| calibrate::slowness_near(&kernel_ms, s.kernel_at))
            .collect(),
        ok: sent.len() as u64,
        window_s,
        peak_rss_mb,
        kernel_ms,
        ledger: opts.trace.then_some(ledger),
    })
}

/// What the `serve-mixed` connections share.
struct Mix<'a> {
    addr: &'a str,
    /// Wire body and digest of each hot-set request.
    hot: &'a [(String, String)],
    /// The cold body of each hot-set request, captured at set-up.
    hot_bodies: &'a [String],
    misses: MissBand,
    /// Index of the next miss in `misses`, over both connections.
    next_miss: AtomicUsize,
    completed: AtomicUsize,
    daemon: &'a Daemon,
    peak_rss_mb: Mutex<Option<f64>>,
}

/// One closed-loop `serve-mixed` connection: per block of `MIX_BLOCK`
/// requests one miss at a seeded position (the next pair of the shared
/// `MissBand`: a hot config with another global batch, so every
/// knapsack leaf is a subcache hit), the rest hits spread uniformly
/// over the hot set. Its state carries over from segment to segment.
struct Connection {
    rng: Rng,
    k: usize,
    miss_at: usize,
    sent: Vec<Sent>,
    checks: Checks,
    ledger: Ledger,
}

impl Connection {
    fn new(seed: u64, conn: usize) -> Self {
        let mut rng = Rng::new(seed, 10 + conn as u64);
        let miss_at = rng.below(MIX_BLOCK);
        Connection {
            rng,
            k: 0,
            miss_at,
            sent: Vec::new(),
            checks: Checks::default(),
            ledger: Ledger::default(),
        }
    }

    /// Sends requests until `deadline`; returns when the last answer
    /// came in.
    fn run(&mut self, opts: &RunOpts, mix: &Mix, deadline: Instant, kernel_at: usize) -> Instant {
        let (addr, hot, hot_bodies) = (mix.addr, mix.hot, mix.hot_bodies);
        while Instant::now() < deadline {
            let slot = self.k % MIX_BLOCK;
            if slot == 0 && self.k > 0 {
                self.miss_at = self.rng.below(MIX_BLOCK);
            }
            let traced = opts.trace && self.k % 2 == 1;
            self.k += 1;
            let miss = (slot == self.miss_at).then(|| {
                let (cfg, gb) = mix
                    .misses
                    .get(mix.next_miss.fetch_add(1, Ordering::Relaxed));
                GRID[cfg].request(gb, adapipe_serve::DEFAULT_HEADROOM)
            });
            let target = self.rng.below(hot.len());
            let (body, digest) = match &miss {
                Some(req) => (req.to_wire_text(), req.digest()),
                None => hot[target].clone(),
            };
            let t0 = Instant::now();
            let resp = client::post_plan(addr, &body);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let mut verdict =
                expect_plan(&resp, &digest, if miss.is_some() { "miss" } else { "hit" });
            let Ok(resp) = resp else {
                self.checks.record(verdict);
                continue;
            };
            if verdict.is_ok() && miss.is_none() && resp.body != hot_bodies[target] {
                verdict = Err("hit differs from the cold body captured at set-up".to_string());
            }
            let ok = verdict.is_ok();
            self.checks.record(verdict);
            if !ok {
                continue;
            }
            if mix.completed.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AFTER_MIXED {
                let rss = mix.daemon.peak_rss_mb().ok();
                *mix.peak_rss_mb.lock().unwrap_or_else(|e| e.into_inner()) = rss;
            }
            if traced {
                match Spans::fetch(addr, &resp) {
                    Ok(spans) => spans.record(ms * 1e3, &mut self.ledger),
                    Err(e) => self.checks.record(Err(e)),
                }
            }
            self.sent.push(Sent {
                body: if miss.is_some() {
                    resp.body
                } else {
                    String::new()
                },
                miss,
                ms,
                kernel_at,
                traced,
            });
        }
        Instant::now()
    }
}
