//! The daemon: an acceptor thread feeding a bounded worker pool.
//!
//! ```text
//!            ┌──────────┐  try_push   ┌───────────────┐
//!  TCP ────▶ │ acceptor │ ──────────▶ │ BoundedQueue  │ ──▶ workers (N)
//!            └──────────┘   (full →   └───────────────┘       │
//!                            503 +                            ▼
//!                            Retry-After)              parse → digest →
//!                                                      cache hit? ──▶ 200
//!                                                      miss → plan →
//!                                                      verify → insert
//! ```
//!
//! Design rules, in order of importance:
//!
//! 1. **Never accept-then-hang.** A connection the pool cannot absorb
//!    is answered `503` with `Retry-After` by the acceptor itself.
//! 2. **Every served plan verifies.** The cold path runs
//!    `adapipe::verify` (full [`VerifyOptions`]) before the plan enters
//!    the cache or leaves the process.
//! 3. **Cache hits are byte-identical** to the cold response: the cache
//!    stores the exact body string the cold path rendered.
//! 4. **Shutdown drains.** [`Server::request_shutdown`] (or
//!    `POST /admin/shutdown`) stops the acceptor, then workers finish
//!    everything already queued before exiting. Rust's std cannot catch
//!    SIGTERM without a dependency, so process supervisors use the
//!    admin endpoint; `kill -9` remains safe because no response is
//!    ever half-served from the cache.
//!
//! ## Request-scoped tracing
//!
//! Every accepted connection carries its own request [`Recorder`] whose
//! epoch is the accept instant. The worker injects a queue-wait span at
//! pickup, the request phases (`serve.parse`, the planner's own span
//! tree, `serve.verify`, `serve.cache_insert`) record into the same
//! recorder, and `POST /v1/plan` responses return a deterministic trace
//! id in `X-Adapipe-Trace` — `<digest prefix>-<sequence>`, no
//! wall-clock — whose Chrome-trace JSON is retrievable from a bounded
//! LRU of traces via `GET /v1/trace/{id}`. Metrics (not spans) from
//! the request recorder are folded into the shared registry via
//! [`Recorder::absorb`], so `/metrics` aggregates while span storage
//! stays bounded per request.
//!
//! ## Flight recorder
//!
//! A bounded [`FlightRecorder`] ring notes every incident (backpressure
//! 503s, deadline rejections and misses, watchdog degradation events,
//! verify failures). Each incident also dumps the ring to
//! `flight-<reason>.json` under [`ServeConfig::flight_dir`] (when set);
//! backpressure dumps at most once per `BACKPRESSURE_DUMP_INTERVAL`, so
//! a 503 flood does not put a disk write on the accept path per
//! rejection. `POST /admin/dump` returns the ring as
//! `adapipe-flight/v1` JSON on demand.

use crate::http::{self, Request, Response};
use crate::queue::{BoundedQueue, PushError};
use crate::request::{PlanRequest, RequestError};
use adapipe::VerifyOptions;
use adapipe_exec::cache::Digest;
use adapipe_exec::{digest_from_hex, ExecPool, LruCache};
use adapipe_faults::{DegradationEvent, Diagnosis, Watchdog};
use adapipe_obs::{flight, keys, report, trace, FlightRecorder, Recorder};
use adapipe_partition::subcache;
use adapipe_units::{convert, MicroSecs};
use std::collections::VecDeque;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How many deadline-miss events the watchdog log retains (a bounded
/// ring; older events age out first).
const DEADLINE_LOG_CAP: usize = 1024;

/// Socket read/write timeout: a stalled client cannot pin a worker.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Most request bytes the acceptor drains after a 503 before closing.
const DRAIN_BYTES: usize = 64 * 1024;

/// Longest the acceptor waits on a rejected client to hang up.
const DRAIN_TIME: Duration = Duration::from_millis(100);

/// Shortest gap between two backpressure flight dumps. Every 503 still
/// notes its event in the ring; only the disk write is throttled.
const BACKPRESSURE_DUMP_INTERVAL: Duration = Duration::from_secs(5);

/// Response header carrying the request's trace id.
const TRACE_HEADER: &str = "X-Adapipe-Trace";

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind host.
    pub host: String,
    /// Bind port (0 picks a free port; see [`Server::addr`]).
    pub port: u16,
    /// Worker threads planning cold requests.
    pub workers: usize,
    /// Plan-cache capacity in entries.
    pub cache_capacity: usize,
    /// Worker-queue depth; connections beyond it get `503`.
    pub queue_depth: usize,
    /// Deadline applied to requests that carry none of their own.
    pub default_deadline: Option<MicroSecs>,
    /// Extra latency injected into every cold plan — a testing aid that
    /// makes backpressure and drain scenarios deterministic.
    pub plan_delay: Option<Duration>,
    /// How many request traces `GET /v1/trace/{id}` retains (least
    /// recently stored or fetched evicted first).
    pub trace_capacity: usize,
    /// Flight-recorder ring capacity (events retained for dumps).
    pub flight_capacity: usize,
    /// Directory flight dumps are written into (`flight-<reason>.json`)
    /// on incidents and `POST /admin/dump`; `None` disables artifacts
    /// (the in-memory ring still records).
    pub flight_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            host: "127.0.0.1".to_string(),
            port: 8080,
            workers: 4,
            cache_capacity: 1024,
            queue_depth: 64,
            default_deadline: None,
            plan_delay: None,
            trace_capacity: 64,
            flight_capacity: flight::DEFAULT_CAPACITY,
            flight_dir: None,
        }
    }
}

/// What the daemon did over its lifetime, reported by [`Server::join`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections accepted.
    pub requests: u64,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses (cold plans).
    pub cache_misses: u64,
    /// Connections rejected with `503` (backpressure + expired
    /// deadlines).
    pub rejected: u64,
}

struct Job {
    stream: TcpStream,
    enqueued: Instant,
    /// Request-scoped recorder; epoch is the accept instant, so the
    /// queue-wait span starts at ~0 and the phase spans nest after it.
    rec: Recorder,
}

struct Shared {
    cfg: ServeConfig,
    addr: SocketAddr,
    /// Plan cache: raw request digest → cold response body.
    cache: LruCache<Digest, str>,
    /// Deterministic exec pool shared by every worker's
    /// planner for parallel leaf prefill (`ADAPIPE_THREADS` sizes it).
    exec: Arc<ExecPool>,
    queue: BoundedQueue<Job>,
    rec: Recorder,
    /// Request traces: trace id → Chrome-trace JSON.
    traces: LruCache<String, str>,
    flight: FlightRecorder,
    trace_seq: AtomicU64,
    busy: AtomicUsize,
    watchdog: Watchdog,
    deadline_log: Mutex<VecDeque<DegradationEvent>>,
    shutting_down: AtomicBool,
    /// Reference point for `next_backpressure_dump_us`.
    epoch: Instant,
    /// Microseconds after `epoch` before which a backpressure 503 does
    /// not dump the flight ring (0: the next one dumps).
    next_backpressure_dump_us: AtomicU64,
}

impl Shared {
    fn begin_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the acceptor out of `accept` with a no-op connection; if
        // the connect fails the acceptor is already gone.
        // lint: allow(swallowed-result): best-effort wake of the acceptor
        let _wake = TcpStream::connect(self.addr);
    }

    fn record_deadline_miss(
        &self,
        worker: usize,
        seq: usize,
        observed: MicroSecs,
        deadline: MicroSecs,
        trace_id: &str,
    ) {
        let event = DegradationEvent::DeadlineMissed {
            stage: worker,
            micro_batch: seq,
            observed,
            deadline,
        };
        // A watchdog-grade event is flight-recorder material: note it
        // with its trace id and dump the ring.
        self.flight
            .note_traced(keys::FLIGHT_WATCHDOG, event.to_string(), trace_id);
        self.dump_flight(keys::FLIGHT_WATCHDOG);
        let mut log = self.deadline_log.lock().unwrap_or_else(|e| e.into_inner());
        if log.len() >= DEADLINE_LOG_CAP {
            log.pop_front();
        }
        log.push_back(event);
    }

    /// Classifies the logged deadline misses with the `adapipe-faults`
    /// watchdog: a worker missing persistently is a straggler worth
    /// operator attention, a one-off is load noise.
    fn deadline_diagnosis(&self) -> Diagnosis {
        let events: Vec<DegradationEvent> = self
            .deadline_log
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect();
        self.watchdog.diagnose(&events)
    }

    /// Whether this backpressure 503 should dump the flight ring: the
    /// first one does, then at most one per
    /// [`BACKPRESSURE_DUMP_INTERVAL`].
    fn backpressure_dump_due(&self) -> bool {
        let micros = |d: Duration| u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let now = micros(self.epoch.elapsed());
        let next = self.next_backpressure_dump_us.load(Ordering::Relaxed);
        now >= next
            && self
                .next_backpressure_dump_us
                .compare_exchange(
                    next,
                    now.saturating_add(micros(BACKPRESSURE_DUMP_INTERVAL)),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                )
                .is_ok()
    }

    /// Writes the flight ring to `flight-<reason>.json` under the
    /// configured dump directory; a no-op when none is configured.
    fn dump_flight(&self, reason: &str) {
        let Some(dir) = &self.cfg.flight_dir else {
            return;
        };
        // lint: allow(swallowed-result): artifact dumps are best-effort
        let _made = std::fs::create_dir_all(dir);
        let json = flight::flight_json(
            &self.flight.snapshot(),
            reason,
            &[("component", "adapipe-serve")],
        );
        let path = dir.join(format!("flight-{reason}.json"));
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("warning: cannot write flight dump {}: {e}", path.display());
        }
    }

    /// The cached body for a hex `digest`; a malformed digest is
    /// simply absent.
    fn cached(&self, digest: &str) -> Option<Arc<str>> {
        digest_from_hex(digest).and_then(|key| self.cache.get(&key))
    }

    /// The deterministic trace id for a request: the first 16 hex chars
    /// of its content digest plus a process-lifetime sequence number.
    /// No wall-clock component — two runs replaying the same request
    /// stream mint the same ids.
    fn next_trace_id(&self, digest: &str) -> String {
        let n = self.trace_seq.fetch_add(1, Ordering::SeqCst);
        let prefix = digest.get(..16).unwrap_or(digest);
        format!("{prefix}-{n}")
    }

    /// Renders the request recorder's spans as Chrome-trace JSON and
    /// parks them in the bounded trace cache.
    fn store_trace(&self, rec: &Recorder, trace_id: &str) {
        let text = trace::chrome_trace_json(&rec.snapshot());
        let bytes = convert::usize_u64(text.len());
        self.traces
            .insert(trace_id.to_string(), Arc::from(text.as_str()), bytes);
    }
}

/// A running daemon. Dropping the handle does **not** stop the server;
/// call [`Server::shutdown_and_join`] (or hit `POST /admin/shutdown`).
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts accepting. Metrics flow into `rec` (pass
    /// [`Recorder::disabled`] to opt out).
    pub fn bind(cfg: ServeConfig, rec: Recorder) -> std::io::Result<Server> {
        let listener = TcpListener::bind((cfg.host.as_str(), cfg.port))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cache: LruCache::new(cfg.cache_capacity),
            exec: Arc::new(ExecPool::from_env()),
            queue: BoundedQueue::new(cfg.queue_depth),
            rec,
            traces: LruCache::new(cfg.trace_capacity),
            flight: FlightRecorder::new(cfg.flight_capacity),
            trace_seq: AtomicU64::new(1),
            busy: AtomicUsize::new(0),
            watchdog: Watchdog::default(),
            deadline_log: Mutex::new(VecDeque::with_capacity(DEADLINE_LOG_CAP)),
            shutting_down: AtomicBool::new(false),
            epoch: Instant::now(),
            next_backpressure_dump_us: AtomicU64::new(0),
            addr,
            cfg,
        });
        let workers = (0..shared.cfg.workers.max(1))
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, id))
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            Some(std::thread::spawn(move || accept_loop(&shared, &listener)))
        };
        Ok(Server {
            shared,
            acceptor,
            workers,
        })
    }

    /// The bound address (useful with `port: 0`).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The recorder metrics flow into.
    #[must_use]
    pub fn recorder(&self) -> &Recorder {
        &self.shared.rec
    }

    /// The daemon's flight recorder (incident ring buffer).
    #[must_use]
    pub fn flight(&self) -> &FlightRecorder {
        &self.shared.flight
    }

    /// Publishes the search-engine gauges (`exec.pool.*`, `subcache.*`)
    /// into the recorder. `GET /metrics` does this on every scrape;
    /// embedders that read the recorder directly (e.g. the serve_load
    /// bench artifact) call it once before snapshotting.
    pub fn publish_engine_gauges(&self) {
        // lint: allow(swallowed-result): None only means "no traffic yet"
        let _sub = keys::publish_subcache_hit_rate(&self.shared.rec);
        publish_engine_gauges(&self.shared);
    }

    /// Starts a graceful drain: stop accepting, finish queued and
    /// in-flight requests. Returns immediately; [`Server::join`] waits.
    pub fn request_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Whether a shutdown has been requested.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down.load(Ordering::SeqCst)
    }

    /// Waits for the acceptor and every worker to exit (i.e. for a
    /// requested shutdown to finish draining) and reports totals.
    pub fn join(mut self) -> ServeSummary {
        if let Some(acceptor) = self.acceptor.take() {
            // A panicked acceptor already detached its listener; the
            // summary below still reflects everything that was served.
            // lint: allow(swallowed-result): thread panics surface via metrics, not propagation
            let _joined = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            // lint: allow(swallowed-result): thread panics surface via metrics, not propagation
            let _joined = worker.join();
        }
        let rec = &self.shared.rec;
        ServeSummary {
            requests: rec.counter(keys::SERVE_REQUESTS),
            cache_hits: rec.counter(keys::SERVE_CACHE_HITS),
            cache_misses: rec.counter(keys::SERVE_CACHE_MISSES),
            rejected: rec.counter(keys::SERVE_REJECTED_BACKPRESSURE)
                + rec.counter(keys::SERVE_REJECTED_DEADLINE),
        }
    }

    /// [`Server::request_shutdown`] followed by [`Server::join`].
    pub fn shutdown_and_join(self) -> ServeSummary {
        self.request_shutdown();
        self.join()
    }
}

fn accept_loop(shared: &Shared, listener: &TcpListener) {
    for conn in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        shared.rec.incr(keys::SERVE_REQUESTS);
        let job = Job {
            stream,
            enqueued: Instant::now(),
            rec: Recorder::new(),
        };
        match shared.queue.try_push(job) {
            Ok(depth) => {
                shared.rec.gauge(keys::SERVE_QUEUE_DEPTH, depth as f64);
                shared
                    .rec
                    .gauge_max(keys::SERVE_QUEUE_DEPTH_MAX, depth as f64);
            }
            Err(PushError::Full(job) | PushError::Closed(job)) => {
                shared.rec.incr(keys::SERVE_REJECTED_BACKPRESSURE);
                shared.flight.note(
                    keys::FLIGHT_BACKPRESSURE,
                    format!(
                        "503: worker queue full (capacity {})",
                        shared.queue.capacity()
                    ),
                );
                if shared.backpressure_dump_due() {
                    shared.dump_flight(keys::FLIGHT_BACKPRESSURE);
                }
                respond_overloaded(job.stream, "worker queue is full");
            }
        }
    }
    shared.queue.close();
}

/// Writes the backpressure rejection directly from the acceptor — the
/// one response that must never wait for a worker.
///
/// Closing a socket with unread input makes the kernel send a TCP RST,
/// which can destroy the 503 before the client reads it. So the
/// acceptor half-closes (the client sees the response end) and reads
/// until the client hangs up, at most [`DRAIN_BYTES`] within
/// [`DRAIN_TIME`], so a silent or flooding client cannot stall it.
fn respond_overloaded(mut stream: TcpStream, why: &str) {
    // lint: allow(swallowed-result): the socket may already be gone; rejection is best-effort
    let _sent = Response::new(503, format!("overloaded: {why}\n"))
        .with_header("Retry-After", "1")
        .write_to(&mut stream);
    if stream.shutdown(Shutdown::Write).is_err() {
        return;
    }
    let deadline = Instant::now() + DRAIN_TIME;
    let mut sink = [0u8; 4096];
    let mut drained = 0usize;
    while drained < DRAIN_BYTES {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => return,
            Ok(n) => drained += n,
        }
    }
}

fn worker_loop(shared: &Shared, worker: usize) {
    let mut seq = 0usize;
    while let Some(job) = shared.queue.pop() {
        shared
            .rec
            .gauge(keys::SERVE_QUEUE_DEPTH, shared.queue.len() as f64);
        seq += 1;
        handle_job(shared, worker, seq, job);
    }
}

fn handle_job(shared: &Shared, worker: usize, seq: usize, mut job: Job) {
    let t0 = Instant::now();
    let busy = shared.busy.fetch_add(1, Ordering::SeqCst) + 1;
    shared.rec.gauge(keys::SERVE_WORKERS_BUSY, busy as f64);
    // The time between accept and pickup, injected as the trace's first
    // span (its start predates every recorder call on this request).
    job.rec
        .record_span(keys::SPAN_SERVE_QUEUE_WAIT, "serve", job.enqueued, t0);
    // lint: allow(swallowed-result): timeouts are best-effort hardening
    let _rt = job.stream.set_read_timeout(Some(IO_TIMEOUT));
    // lint: allow(swallowed-result): timeouts are best-effort hardening
    let _wt = job.stream.set_write_timeout(Some(IO_TIMEOUT));
    let response = match http::read_request(&mut job.stream) {
        Ok(request) => route(shared, worker, seq, &request, job.enqueued, &job.rec),
        Err(e) => Response::new(400, format!("bad request: {e}\n")),
    };
    let class = match response.status {
        200..=299 => keys::SERVE_HTTP_2XX,
        400..=499 => keys::SERVE_HTTP_4XX,
        _ => keys::SERVE_HTTP_5XX,
    };
    shared.rec.incr(class);
    shared
        .rec
        .observe(keys::SERVE_REQUEST_US, t0.elapsed().as_secs_f64() * 1e6);
    // Fold the request's metrics (planner counters, histograms) into
    // the shared registry before the client sees the response, so a
    // follow-up `GET /metrics` cannot race past them. Spans stay with
    // the request (already parked in the trace store when traced).
    shared.rec.absorb(&job.rec);
    // lint: allow(swallowed-result): the client may have hung up; nothing to salvage
    let _sent = response.write_to(&mut job.stream);
    let busy = shared.busy.fetch_sub(1, Ordering::SeqCst).saturating_sub(1);
    shared.rec.gauge(keys::SERVE_WORKERS_BUSY, busy as f64);
}

fn route(
    shared: &Shared,
    worker: usize,
    seq: usize,
    request: &Request,
    enqueued: Instant,
    rec: &Recorder,
) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::new(200, "ok\n"),
        ("GET", "/metrics") => metrics_response(shared),
        ("GET", path) => {
            if let Some(digest) = path.strip_prefix("/v1/plan/") {
                lookup_response(shared, digest)
            } else if let Some(id) = path.strip_prefix("/v1/trace/") {
                trace_response(shared, id)
            } else {
                Response::new(404, "not found\n")
            }
        }
        ("POST", "/v1/plan") => plan_response(shared, worker, seq, request, enqueued, rec),
        ("POST", "/admin/dump") => dump_response(shared),
        ("POST", "/admin/shutdown") => {
            shared.begin_shutdown();
            Response::new(
                200,
                "draining: new connections refused, in-flight work completes\n",
            )
        }
        ("POST", _) => Response::new(404, "not found\n"),
        _ => Response::new(405, "method not allowed\n"),
    }
}

fn lookup_response(shared: &Shared, digest: &str) -> Response {
    match shared.cached(digest) {
        Some(body) => {
            shared.rec.incr(keys::SERVE_CACHE_HITS);
            plan_ok(digest, &body, "hit")
        }
        None => Response::new(404, format!("no cached plan for digest {digest}\n")),
    }
}

fn trace_response(shared: &Shared, id: &str) -> Response {
    match shared.traces.get(id) {
        Some(trace_json) => Response::json(200, trace_json.to_string()),
        None => Response::new(
            404,
            format!(
                "no trace {id} (the daemon keeps its {} most recently used traces)\n",
                shared.traces.capacity()
            ),
        ),
    }
}

fn dump_response(shared: &Shared) -> Response {
    let json = flight::flight_json(
        &shared.flight.snapshot(),
        keys::FLIGHT_MANUAL,
        &[("component", "adapipe-serve")],
    );
    shared.dump_flight(keys::FLIGHT_MANUAL);
    Response::json(200, json)
}

fn plan_ok(digest: &str, body: &str, cache_state: &str) -> Response {
    Response::new(200, body)
        .with_header("X-Adapipe-Digest", digest)
        .with_header("X-Adapipe-Cache", cache_state)
}

fn request_error_response(e: &RequestError) -> Response {
    Response::new(400, format!("invalid plan request: {e}\n"))
}

fn plan_response(
    shared: &Shared,
    worker: usize,
    seq: usize,
    request: &Request,
    enqueued: Instant,
    rec: &Recorder,
) -> Response {
    let preq = {
        let _parse = rec.span_cat(keys::SPAN_SERVE_PARSE, "serve");
        match PlanRequest::parse(&request.body) {
            Ok(p) => p,
            Err(e) => return request_error_response(&e),
        }
    };
    let digest = preq.digest();
    let trace_id = shared.next_trace_id(&digest);

    if let Some(body) = shared.cached(&digest) {
        shared.rec.incr(keys::SERVE_CACHE_HITS);
        let response = plan_ok(&digest, &body, "hit").with_header(TRACE_HEADER, &trace_id);
        shared.store_trace(rec, &trace_id);
        return response;
    }

    // A request whose deadline already expired while it sat in the
    // queue is not worth planning: reject with backpressure semantics
    // so the caller retries against a hopefully-warmer cache.
    let deadline = preq.deadline.or(shared.cfg.default_deadline);
    let waited = MicroSecs::new(enqueued.elapsed().as_secs_f64() * 1e6);
    if let Some(limit) = deadline {
        if waited > limit {
            shared.rec.incr(keys::SERVE_REJECTED_DEADLINE);
            shared.flight.note_traced(
                keys::FLIGHT_DEADLINE,
                format!(
                    "503: deadline expired in queue ({:.0}us waited, {:.0}us budget)",
                    waited.as_micros(),
                    limit.as_micros()
                ),
                &trace_id,
            );
            shared.dump_flight(keys::FLIGHT_DEADLINE);
            shared.store_trace(rec, &trace_id);
            return Response::new(
                503,
                format!(
                    "deadline expired in queue: waited {:.0}us of a {:.0}us budget\n",
                    waited.as_micros(),
                    limit.as_micros()
                ),
            )
            .with_header("Retry-After", "1")
            .with_header(TRACE_HEADER, &trace_id);
        }
    }

    shared.rec.incr(keys::SERVE_CACHE_MISSES);
    if let Some(delay) = shared.cfg.plan_delay {
        std::thread::sleep(delay);
    }

    // The planner records into the *request* recorder: its span tree
    // lands in this request's trace, its metrics are absorbed into the
    // shared registry when the request completes. Every daemon planner
    // shares the exec pool and the process-wide class tables, so cold
    // plans prefill leaves in parallel and a plan of an instance an
    // earlier request filled runs no knapsack leaf (plans stay
    // byte-identical — docs/parallel.md).
    let planner = match preq.planner() {
        Ok(p) => p
            .with_recorder(rec.clone())
            .with_exec_pool(Arc::clone(&shared.exec))
            .with_shared_subcache(true),
        Err(e) => return request_error_response(&e),
    };
    let (method, parallel, train) = match (preq.method_enum(), preq.parallel(), preq.train()) {
        (Ok(m), Ok(p), Ok(t)) => (m, p, t),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => return request_error_response(&e),
    };

    let t_plan = Instant::now();
    let plan = match planner.plan(method, parallel, train) {
        Ok(plan) => plan,
        Err(e) => {
            shared.store_trace(rec, &trace_id);
            return Response::new(422, format!("{method} cannot run at {parallel}: {e}\n"))
                .with_header(TRACE_HEADER, &trace_id);
        }
    };
    // The verification gate: nothing leaves the process unverified.
    let check = {
        let _verify = rec.span_cat(keys::SPAN_SERVE_VERIFY, "serve");
        planner.verify_with(&plan, VerifyOptions::default())
    };
    if check.has_errors() {
        shared.rec.incr(keys::SERVE_VERIFY_REJECTED);
        shared.flight.note_traced(
            keys::FLIGHT_VERIFY_REJECTED,
            format!("plan {digest} failed the verify gate"),
            &trace_id,
        );
        shared.dump_flight(keys::FLIGHT_VERIFY_REJECTED);
        shared.store_trace(rec, &trace_id);
        return Response::new(
            500,
            format!("planned artifact failed verification\n{check}"),
        )
        .with_header(TRACE_HEADER, &trace_id);
    }
    shared
        .rec
        .observe(keys::SERVE_PLAN_US, t_plan.elapsed().as_secs_f64() * 1e6);

    let body: Arc<str> = Arc::from(adapipe::plan_io::to_text(&plan));
    let evicted = {
        let _insert = rec.span_cat(keys::SPAN_SERVE_CACHE_INSERT, "serve");
        digest_from_hex(&digest).map_or(0, |key| {
            let bytes = convert::usize_u64(body.len());
            shared.cache.insert(key, Arc::clone(&body), bytes)
        })
    };
    if evicted > 0 {
        shared
            .rec
            .add(keys::SERVE_CACHE_EVICTIONS, convert::usize_u64(evicted));
    }

    let mut response = plan_ok(&digest, &body, "miss").with_header(TRACE_HEADER, &trace_id);
    if let Some(limit) = deadline {
        let total = MicroSecs::new(enqueued.elapsed().as_secs_f64() * 1e6);
        if total > limit {
            // Too late but not wasted: serve the plan, record the miss
            // for the watchdog to classify.
            shared.rec.incr(keys::SERVE_DEADLINE_MISSED);
            shared.record_deadline_miss(worker, seq, total, limit, &trace_id);
            response = response.with_header("X-Adapipe-Deadline", "missed");
        }
    }
    shared.store_trace(rec, &trace_id);
    response
}

fn metrics_response(shared: &Shared) -> Response {
    // lint: allow(swallowed-result): None only means "no traffic yet"
    let _iso = keys::publish_iso_cache_hit_rate(&shared.rec);
    // lint: allow(swallowed-result): None only means "no traffic yet"
    let _hit = keys::publish_serve_cache_hit_rate(&shared.rec);
    // lint: allow(swallowed-result): None only means "no traffic yet"
    let _sub = keys::publish_subcache_hit_rate(&shared.rec);
    publish_engine_gauges(shared);
    let diagnosis = shared.deadline_diagnosis();
    shared.rec.gauge(
        keys::SERVE_DEADLINE_PERSISTENT,
        diagnosis.persistent_stragglers.len() as f64,
    );
    let workers = shared.cfg.workers.to_string();
    let cache_capacity = shared.cache.capacity().to_string();
    let queue_depth = shared.queue.capacity().to_string();
    let snapshot = shared.rec.snapshot();
    let json = report::metrics_json(
        &snapshot,
        &[
            ("component", "adapipe-serve"),
            ("workers", &workers),
            ("cache_capacity", &cache_capacity),
            ("queue_depth", &queue_depth),
        ],
    );
    Response::json(200, json)
}

/// Publishes the execution-engine state — exec-pool counters and the
/// process-global cache of class tables — as gauges on the shared registry,
/// so `/metrics` and the serve bench artifact expose them.
fn publish_engine_gauges(shared: &Shared) {
    let pool = shared.exec.stats();
    let rec = &shared.rec;
    rec.gauge(keys::EXEC_POOL_WORKERS, convert::u64_f64(pool.workers));
    rec.gauge(keys::EXEC_POOL_BATCHES, convert::u64_f64(pool.batches));
    rec.gauge(keys::EXEC_POOL_TASKS, convert::u64_f64(pool.tasks));
    rec.gauge(keys::EXEC_POOL_STEALS, convert::u64_f64(pool.steals));
    subcache::publish_gauges(rec);
}
