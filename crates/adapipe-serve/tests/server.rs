//! In-process integration tests: a real `Server` on a loopback port,
//! driven through the bundled HTTP client.

use adapipe_obs::{json, keys, Recorder};
use adapipe_serve::{client, PlanRequest, ServeConfig, Server, REQUEST_HEADER};
use adapipe_units::MicroSecs;
use std::time::Duration;

fn gpt2_request() -> PlanRequest {
    PlanRequest {
        model: "gpt2".to_string(),
        cluster: "a".to_string(),
        nodes: 1,
        ..PlanRequest::new(2, 4, 512, 16)
    }
}

fn start(cfg: ServeConfig) -> (Server, String) {
    let server = Server::bind(cfg, Recorder::new()).expect("bind on a free port");
    let addr = server.addr().to_string();
    (server, addr)
}

fn quick_server() -> (Server, String) {
    start(ServeConfig {
        port: 0,
        workers: 2,
        ..ServeConfig::default()
    })
}

#[test]
fn healthz_reports_ok() {
    let (server, addr) = quick_server();
    let resp = client::get(&addr, "/healthz").unwrap();
    assert_eq!((resp.status, resp.body.as_str()), (200, "ok\n"));
    server.shutdown_and_join();
}

#[test]
fn unknown_paths_and_methods_are_rejected() {
    let (server, addr) = quick_server();
    assert_eq!(client::get(&addr, "/nope").unwrap().status, 404);
    assert_eq!(
        client::request(&addr, "POST", "/healthz", None)
            .unwrap()
            .status,
        404
    );
    assert_eq!(
        client::request(&addr, "DELETE", "/healthz", None)
            .unwrap()
            .status,
        405
    );
    server.shutdown_and_join();
}

#[test]
fn cold_plan_then_cache_hit_is_byte_identical() {
    let (server, addr) = quick_server();
    let body = gpt2_request().to_wire_text();

    let cold = client::post_plan(&addr, &body).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.body);
    assert_eq!(cold.header("x-adapipe-cache"), Some("miss"));
    let digest = cold.header("x-adapipe-digest").unwrap().to_string();
    assert_eq!(digest, gpt2_request().digest());
    assert!(cold.body.starts_with("adapipe-plan v2"), "{}", cold.body);

    let hit = client::post_plan(&addr, &body).unwrap();
    assert_eq!(hit.status, 200);
    assert_eq!(hit.header("x-adapipe-cache"), Some("hit"));
    assert_eq!(hit.body, cold.body, "cache hit must be byte-identical");

    // The content address also resolves over GET.
    let by_digest = client::get(&addr, &format!("/v1/plan/{digest}")).unwrap();
    assert_eq!(by_digest.status, 200);
    assert_eq!(by_digest.body, cold.body);

    // Hostile spellings never alias the entry and never 5xx.
    let non_ascii = format!("{}é", &digest[..62]);
    let hostile = [
        "deadbeef".to_string(),
        digest.to_uppercase(),
        digest[..63].to_string(),
        format!("{digest}0"),
        "z".repeat(64),
        non_ascii,
    ];
    for bad in &hostile {
        let missing = client::get(&addr, &format!("/v1/plan/{bad}")).unwrap();
        assert_eq!(missing.status, 404, "/v1/plan/{bad}: {}", missing.body);
    }
    let again = client::get(&addr, &format!("/v1/plan/{digest}")).unwrap();
    assert_eq!(again.status, 200);
    assert_eq!(again.body, cold.body);

    let summary = server.shutdown_and_join();
    assert_eq!(summary.cache_misses, 1);
    assert_eq!(summary.cache_hits, 3, "one POST hit and two GET hits");
}

#[test]
fn dimensionally_equal_spellings_hit_the_same_entry() {
    let (server, addr) = quick_server();
    let implicit = format!(
        "{REQUEST_HEADER}\nmodel = gpt2\ncluster = a\nnodes = 1\n\
         tensor = 2\npipeline = 4\nseq_len = 512\nglobal_batch = 16\n"
    );
    // Same config, different order, defaults spelled out, a comment.
    let explicit = format!(
        "{REQUEST_HEADER}\n# same thing, spelled out\nheadroom = 0.875\n\
         method = adapipe\ndata = 1\nmicro_batch = 1\nfp32_grads = false\n\
         global_batch = 16\nseq_len = 512\npipeline = 4\ntensor = 2\n\
         nodes = 1\ncluster = a\nmodel = gpt2\n"
    );
    let cold = client::post_plan(&addr, &implicit).unwrap();
    assert_eq!(cold.header("x-adapipe-cache"), Some("miss"));
    let hit = client::post_plan(&addr, &explicit).unwrap();
    assert_eq!(hit.header("x-adapipe-cache"), Some("hit"), "{}", hit.body);
    assert_eq!(hit.body, cold.body);
    assert_eq!(
        hit.header("x-adapipe-digest"),
        cold.header("x-adapipe-digest")
    );
    server.shutdown_and_join();
}

#[test]
fn malformed_and_infeasible_requests_map_to_4xx() {
    let (server, addr) = quick_server();

    let garbage = client::post_plan(&addr, "not a plan request\n").unwrap();
    assert_eq!(garbage.status, 400, "{}", garbage.body);
    assert!(garbage.body.contains("first line"), "{}", garbage.body);

    let unknown_model = client::post_plan(
        &addr,
        &format!(
            "{REQUEST_HEADER}\nmodel = bloom\ntensor = 1\npipeline = 2\n\
             seq_len = 128\nglobal_batch = 4\n"
        ),
    )
    .unwrap();
    assert_eq!(unknown_model.status, 400);
    assert!(
        unknown_model.body.contains("model"),
        "{}",
        unknown_model.body
    );

    // GPT-3 on one Atlas node cannot fit: the planner refuses, 422.
    let infeasible = client::post_plan(
        &addr,
        &format!(
            "{REQUEST_HEADER}\nmodel = gpt3\ncluster = b\nnodes = 1\n\
             tensor = 1\npipeline = 8\nseq_len = 4096\nglobal_batch = 64\n"
        ),
    )
    .unwrap();
    assert_eq!(infeasible.status, 422, "{}", infeasible.body);
    assert!(
        infeasible.body.contains("cannot run"),
        "{}",
        infeasible.body
    );

    server.shutdown_and_join();
}

#[test]
fn saturating_the_queue_yields_503_with_retry_after() {
    // One worker, queue depth 1, and slow plans: concurrent cold
    // requests must overflow and be rejected, not parked.
    let (server, addr) = start(ServeConfig {
        port: 0,
        workers: 1,
        queue_depth: 1,
        plan_delay: Some(Duration::from_millis(300)),
        ..ServeConfig::default()
    });
    let mut req = gpt2_request();
    req.seq_len = 256; // distinct config per thread → all misses
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let addr = addr.clone();
            let mut req = req.clone();
            req.global_batch = 8 * (i + 1); // six distinct digests
            std::thread::spawn(move || client::post_plan(&addr, &req.to_wire_text()))
        })
        .collect();
    // Every client gets an answer: the daemon drains a rejected request
    // before closing, so no 503 is lost to a connection reset.
    let responses: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().unwrap().unwrap())
        .collect();
    let oks = responses.iter().filter(|r| r.status == 200).count();
    let busy: Vec<_> = responses.iter().filter(|r| r.status == 503).collect();
    assert_eq!(
        oks + busy.len(),
        6,
        "statuses {:?}",
        responses.iter().map(|r| r.status).collect::<Vec<_>>()
    );
    assert!(oks >= 1, "someone must get through");
    assert!(
        !busy.is_empty(),
        "expected at least one 503, got statuses {:?}",
        responses.iter().map(|r| r.status).collect::<Vec<_>>()
    );
    for r in &busy {
        assert_eq!(r.header("retry-after"), Some("1"), "{:?}", r.headers);
    }
    let summary = server.shutdown_and_join();
    assert_eq!(
        summary.rejected,
        busy.len() as u64,
        "daemon rejections vs 503s the clients saw"
    );
}

#[test]
fn expired_deadline_is_rejected_and_late_finish_is_diagnosed() {
    let (server, addr) = start(ServeConfig {
        port: 0,
        workers: 1,
        queue_depth: 8,
        plan_delay: Some(Duration::from_millis(120)),
        ..ServeConfig::default()
    });

    // A 1 ms deadline with a 120 ms plan delay: the request is either
    // rejected in queue (behind the first) or served late with the
    // deadline-missed marker. Fire two so at least one queues.
    let mut req = gpt2_request();
    req.deadline = Some(MicroSecs::new(1_000.0));
    let handles: Vec<_> = (0..2)
        .map(|i| {
            let addr = addr.clone();
            let mut req = req.clone();
            req.global_batch = 16 * (i + 1);
            std::thread::spawn(move || client::post_plan(&addr, &req.to_wire_text()).unwrap())
        })
        .collect();
    let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for r in &responses {
        match r.status {
            200 => assert_eq!(
                r.header("x-adapipe-deadline"),
                Some("missed"),
                "{:?}",
                r.headers
            ),
            503 => assert!(r.body.contains("deadline expired"), "{}", r.body),
            other => panic!("unexpected status {other}: {}", r.body),
        }
    }
    // At least one finished late → the watchdog log has an event and
    // /metrics reports the counter.
    let metrics = client::get(&addr, "/metrics").unwrap();
    let v = json::parse(&metrics.body).expect("valid metrics JSON");
    let counters = v.get("counters").expect("counters object");
    let missed = counters
        .get(keys::SERVE_DEADLINE_MISSED)
        .and_then(|c| c.as_f64())
        .unwrap_or(0.0);
    let rejected = counters
        .get(keys::SERVE_REJECTED_DEADLINE)
        .and_then(|c| c.as_f64())
        .unwrap_or(0.0);
    assert!(
        missed + rejected >= 1.0,
        "no deadline accounting in {}",
        metrics.body
    );
    server.shutdown_and_join();
}

#[test]
fn metrics_expose_serve_and_iso_cache_families() {
    let (server, addr) = quick_server();
    let body = gpt2_request().to_wire_text();
    client::post_plan(&addr, &body).unwrap();
    client::post_plan(&addr, &body).unwrap();

    let resp = client::get(&addr, "/metrics").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("content-type"), Some("application/json"));
    let v = json::parse(&resp.body).expect("valid metrics JSON");
    assert_eq!(
        v.get("schema").and_then(|s| s.as_str()),
        Some("adapipe-obs/v1")
    );
    let counters = v.get("counters").expect("counters object");
    for key in [
        keys::SERVE_REQUESTS,
        keys::SERVE_CACHE_HITS,
        keys::SERVE_CACHE_MISSES,
        keys::ISO_CACHE_MISSES,
    ] {
        assert!(
            counters.get(key).and_then(|c| c.as_f64()).unwrap_or(0.0) > 0.0,
            "missing counter {key}: {}",
            resp.body
        );
    }
    let gauges = v.get("gauges").expect("gauges object");
    for key in [keys::SERVE_CACHE_HIT_RATE, keys::ISO_CACHE_HIT_RATE] {
        assert!(
            gauges.get(key).is_some(),
            "missing gauge {key}: {}",
            resp.body
        );
    }
    // The planner's own instrumentation flows into the same recorder.
    assert!(
        counters.get("partition.leaf_evals").is_some(),
        "planner metrics missing: {}",
        resp.body
    );
    server.shutdown_and_join();
}

#[test]
fn trace_of_a_real_request_covers_every_phase() {
    let (server, addr) = quick_server();
    let req = gpt2_request();
    let cold = client::post_plan(&addr, &req.to_wire_text()).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.body);

    // The trace id is deterministic: digest prefix + sequence, no
    // wall-clock. The first plan request of this server is sequence 1.
    let trace_id = cold
        .header("x-adapipe-trace")
        .expect("plan responses carry X-Adapipe-Trace")
        .to_string();
    let digest = req.digest();
    assert_eq!(trace_id, format!("{}-1", &digest[..16]));

    let trace = client::get(&addr, &format!("/v1/trace/{trace_id}")).unwrap();
    assert_eq!(trace.status, 200, "{}", trace.body);
    assert_eq!(trace.header("content-type"), Some("application/json"));
    let json::Value::Array(events) = json::parse(&trace.body).expect("valid trace JSON") else {
        panic!("trace must be a JSON array: {}", trace.body);
    };
    let names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    // Queue wait, parse, every planner phase, verify, cache insert.
    for phase in [
        keys::SPAN_SERVE_QUEUE_WAIT,
        keys::SPAN_SERVE_PARSE,
        keys::SPAN_PLAN,
        keys::SPAN_PLAN_PROFILE,
        keys::SPAN_PLAN_PARTITION,
        keys::SPAN_PLAN_MATERIALIZE,
        keys::SPAN_SERVE_VERIFY,
        keys::SPAN_SERVE_CACHE_INSERT,
    ] {
        assert!(names.contains(&phase), "span {phase} missing in {names:?}");
    }
    // Chrome-trace structural invariants: sorted non-negative
    // timestamps, every event complete ("X") or metadata ("M").
    let mut last_ts = f64::NEG_INFINITY;
    for ev in &events {
        let ph = ev.get("ph").and_then(|p| p.as_str()).expect("ph");
        if ph == "M" {
            continue;
        }
        assert_eq!(ph, "X", "only complete events: {ev:?}");
        let ts = ev.get("ts").and_then(|t| t.as_f64()).expect("ts");
        assert!(ts >= last_ts && ts >= 0.0);
        last_ts = ts;
    }

    // Cache hits trace too (queue wait + parse), under a fresh id.
    let hit = client::post_plan(&addr, &req.to_wire_text()).unwrap();
    let hit_id = hit.header("x-adapipe-trace").unwrap().to_string();
    assert_eq!(hit_id, format!("{}-2", &digest[..16]));
    assert_eq!(
        client::get(&addr, &format!("/v1/trace/{hit_id}"))
            .unwrap()
            .status,
        200
    );

    let missing = client::get(&addr, "/v1/trace/nope-0").unwrap();
    assert_eq!(missing.status, 404);
    server.shutdown_and_join();
}

#[test]
fn trace_store_retention_is_bounded() {
    let (server, addr) = start(ServeConfig {
        port: 0,
        workers: 1,
        trace_capacity: 1,
        ..ServeConfig::default()
    });
    let body = gpt2_request().to_wire_text();
    let first = client::post_plan(&addr, &body).unwrap();
    let second = client::post_plan(&addr, &body).unwrap(); // cache hit, new id
    let first_id = first.header("x-adapipe-trace").unwrap().to_string();
    let second_id = second.header("x-adapipe-trace").unwrap().to_string();
    assert_ne!(first_id, second_id);
    assert_eq!(
        client::get(&addr, &format!("/v1/trace/{first_id}"))
            .unwrap()
            .status,
        404,
        "oldest trace must be evicted at capacity 1"
    );
    assert_eq!(
        client::get(&addr, &format!("/v1/trace/{second_id}"))
            .unwrap()
            .status,
        200
    );
    server.shutdown_and_join();
}

#[test]
fn backpressure_and_admin_dump_produce_flight_artifacts() {
    let flight_dir = std::env::temp_dir().join(format!(
        "adapipe-flight-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let (server, addr) = start(ServeConfig {
        port: 0,
        workers: 1,
        queue_depth: 1,
        plan_delay: Some(Duration::from_millis(300)),
        flight_dir: Some(flight_dir.clone()),
        ..ServeConfig::default()
    });

    // Deterministic 503 flood: six distinct cold digests against one
    // slow worker and a depth-1 queue. Returns how many were shed.
    let mut req = gpt2_request();
    req.seq_len = 256;
    let flood = |first: usize| {
        let handles: Vec<_> = (first..first + 6)
            .map(|i| {
                let addr = addr.clone();
                let mut req = req.clone();
                req.global_batch = 8 * (i + 1);
                std::thread::spawn(move || client::post_plan(&addr, &req.to_wire_text()).unwrap())
            })
            .collect();
        let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        responses.iter().filter(|r| r.status == 503).count()
    };
    let rejected = flood(0);
    assert!(rejected >= 1, "flood must trigger backpressure");

    // The automatic dump artifact exists and parses as adapipe-flight/v1.
    let auto_path = flight_dir.join(format!("flight-{}.json", keys::FLIGHT_BACKPRESSURE));
    let auto_text = std::fs::read_to_string(&auto_path)
        .unwrap_or_else(|e| panic!("no auto dump at {}: {e}", auto_path.display()));
    let auto = json::parse(&auto_text).expect("valid flight JSON");
    assert_eq!(
        auto.get("schema").and_then(|s| s.as_str()),
        Some("adapipe-flight/v1")
    );
    assert_eq!(
        auto.get("reason").and_then(|s| s.as_str()),
        Some(keys::FLIGHT_BACKPRESSURE)
    );

    // A second flood inside the dump interval (5 s; both floods take
    // about a second) notes its 503s in the ring but writes no dump.
    std::fs::remove_file(&auto_path).unwrap();
    let rejected_again = flood(6);
    assert!(
        rejected_again >= 1,
        "second flood must trigger backpressure"
    );
    assert!(
        !auto_path.exists(),
        "backpressure dumps are throttled, not written per 503"
    );
    let rejected = rejected + rejected_again;

    // The on-demand dump returns the ring with the rejection events.
    let dump = client::request(&addr, "POST", "/admin/dump", None).unwrap();
    assert_eq!(dump.status, 200, "{}", dump.body);
    let v = json::parse(&dump.body).expect("valid dump JSON");
    assert_eq!(
        v.get("schema").and_then(|s| s.as_str()),
        Some("adapipe-flight/v1")
    );
    assert_eq!(
        v.get("reason").and_then(|s| s.as_str()),
        Some(keys::FLIGHT_MANUAL)
    );
    let Some(json::Value::Array(events)) = v.get("events") else {
        panic!("events array: {}", dump.body);
    };
    let backpressure = events
        .iter()
        .filter(|e| e.get("kind").and_then(|k| k.as_str()) == Some(keys::FLIGHT_BACKPRESSURE))
        .count();
    assert_eq!(backpressure, rejected, "one flight event per 503");

    server.shutdown_and_join();
    // lint: allow(swallowed-result): best-effort temp cleanup
    let _cleaned = std::fs::remove_dir_all(&flight_dir);
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let (server, addr) = start(ServeConfig {
        port: 0,
        workers: 1,
        queue_depth: 4,
        plan_delay: Some(Duration::from_millis(250)),
        ..ServeConfig::default()
    });

    // Start a slow cold plan, then immediately request shutdown.
    let slow = {
        let addr = addr.clone();
        let body = gpt2_request().to_wire_text();
        std::thread::spawn(move || client::post_plan(&addr, &body).unwrap())
    };
    std::thread::sleep(Duration::from_millis(60)); // let it reach a worker
    let draining = client::request(&addr, "POST", "/admin/shutdown", None).unwrap();
    assert_eq!(draining.status, 200, "{}", draining.body);

    let slow_resp = slow.join().unwrap();
    assert_eq!(slow_resp.status, 200, "in-flight request must complete");
    assert!(slow_resp.body.starts_with("adapipe-plan v2"));

    let summary = server.join();
    assert_eq!(summary.cache_misses, 1);
    // The daemon is really gone: new connections fail or are refused.
    assert!(client::get(&addr, "/healthz").is_err());
}
