//! Protocol-layer coverage: malformed HTTP, oversized bodies, bad and
//! hostile job specs, unknown stores, back-pressure, concurrent
//! submission/polling, and clean shutdown with jobs in flight.

mod common;

use common::{parse, raw_request, request, store_dir, wait_terminal, Session};
use frontier_sampling::runner::{EstimatorSpec, SamplerSpec};
use fs_serve::{Config, JobPhase, JobSpec, ResultCache, Server, StoreRegistry, SubmitError};
use std::sync::Arc;

#[test]
fn malformed_http_is_rejected_not_fatal() {
    let dir = store_dir("proto_http", 200, 1);
    let server = Server::start(Config::new(&dir)).unwrap();
    let addr = server.addr();

    for raw in [
        &b"GARBAGE\r\n\r\n"[..],
        b"GET\r\n\r\n",
        b"GET /healthz HTTP/9.9\r\n\r\n",
        b"get /healthz HTTP/1.1\r\n\r\n",
        b"GET healthz HTTP/1.1\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nbroken-header\r\n\r\n",
        b"POST /v1/jobs HTTP/1.1\r\ncontent-length: twelve\r\n\r\n",
        b"POST /v1/jobs HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n0\r\n\r\n",
    ] {
        let (status, body) = raw_request(addr, raw);
        assert_eq!(status, 400, "{:?} → {body}", String::from_utf8_lossy(raw));
        assert!(parse(&body).get("error").is_some());
    }
    // The server stays healthy afterwards.
    let (status, body) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    assert_eq!(parse(&body).get("status").unwrap().as_str().unwrap(), "ok");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn oversized_bodies_get_413_without_reading() {
    let dir = store_dir("proto_413", 200, 2);
    let server = Server::start(Config::new(&dir)).unwrap();
    let addr = server.addr();
    // Default limit is 256 KiB; declare 10 MiB and send nothing.
    let raw = b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 10485760\r\n\r\n";
    let (status, _) = raw_request(addr, raw);
    assert_eq!(status, 413);
    // An actually-oversized body is refused too.
    let big = format!(
        "POST /v1/jobs HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
        300 * 1024,
        "x".repeat(300 * 1024)
    );
    let (status, _) = raw_request(addr, big.as_bytes());
    assert_eq!(status, 413);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_job_specs_are_client_errors() {
    let dir = store_dir("proto_spec", 200, 3);
    let server = Server::start(Config::new(&dir)).unwrap();
    let addr = server.addr();

    let cases: &[(&str, u16, &str)] = &[
        ("not json", 400, "invalid JSON"),
        ("{\"store\":\"ba.fsg\"}", 400, "missing field"),
        (
            "{\"store\":\"ba.fsg\",\"sampler\":\"teleport\",\"budget\":10,\"seed\":1,\"estimator\":\"avg_degree\"}",
            400,
            "unknown sampler",
        ),
        (
            "{\"store\":\"ba.fsg\",\"sampler\":\"fs\",\"m\":4,\"budget\":10,\"seed\":1,\"estimator\":\"entropy\"}",
            400,
            "unknown estimator",
        ),
        (
            "{\"store\":\"ba.fsg\",\"sampler\":\"fs\",\"m\":0,\"budget\":10,\"seed\":1,\"estimator\":\"avg_degree\"}",
            400,
            "m >= 1",
        ),
        (
            "{\"store\":\"ba.fsg\",\"sampler\":\"mhrw\",\"budget\":10,\"seed\":1,\"estimator\":\"clustering\"}",
            400,
            "MHRW",
        ),
        (
            // The retired thread-count knob is no longer a field.
            "{\"store\":\"ba.fsg\",\"sampler\":\"fs\",\"m\":4,\"budget\":10,\"seed\":1,\"estimator\":\"avg_degree\",\"pool_threads\":4}",
            400,
            "unknown field 'pool_threads'",
        ),
        (
            "{\"store\":\"ba.fsg\",\"sampler\":\"fs\",\"m\":4,\"budget\":1e999,\"seed\":1,\"estimator\":\"avg_degree\"}",
            400,
            "invalid JSON",
        ),
        (
            "{\"store\":\"ba.fsg\",\"sampler\":\"fs\",\"m\":4,\"budget\":10,\"seed\":1,\"estimator\":\"avg_degree\",\"surprise\":1}",
            400,
            "unknown field",
        ),
        (
            "{\"store\":\"ba.fsg\",\"sampler\":\"fs\",\"m\":4,\"budget\":10,\"seed\":-3,\"estimator\":\"avg_degree\"}",
            400,
            "seed",
        ),
        (
            // An absurd m must be a 400, not a fatal allocation attempt
            // in the job worker (allocation failure aborts the process).
            "{\"store\":\"ba.fsg\",\"sampler\":\"fs\",\"m\":4503599627370496,\"budget\":10,\"seed\":1,\"estimator\":\"avg_degree\"}",
            400,
            "server limit",
        ),
        (
            "{\"store\":\"nope.fsg\",\"sampler\":\"fs\",\"m\":4,\"budget\":10,\"seed\":1,\"estimator\":\"avg_degree\"}",
            404,
            "no store named",
        ),
        (
            "{\"store\":\"../ba.fsg\",\"sampler\":\"fs\",\"m\":4,\"budget\":10,\"seed\":1,\"estimator\":\"avg_degree\"}",
            400,
            "invalid store name",
        ),
    ];
    for (body, expect_status, fragment) in cases {
        let (status, text) = request(addr, "POST", "/v1/jobs", Some(body));
        assert_eq!(status, *expect_status, "{body} → {text}");
        let error = parse(&text)
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert!(
            error.contains(fragment),
            "{body}: error {error:?} missing {fragment:?}"
        );
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn huge_budget_job_starts_and_cancels_promptly() {
    // A job runs the chunked runner, so it needs no budget cap: it
    // starts, and a cancel lands at the next chunk.
    let dir = store_dir("proto_huge_cancel", 2_000, 4);
    let server = Server::start(Config::new(&dir)).unwrap();
    let addr = server.addr();
    let body = "{\"store\":\"ba.fsg\",\"sampler\":\"fs\",\"m\":4,\"budget\":1000000000,\
                \"seed\":1,\"estimator\":\"avg_degree\"}";
    let (status, text) = request(addr, "POST", "/v1/jobs", Some(body));
    assert_eq!(status, 202, "{text}");
    let id = parse(&text).get("id").unwrap().as_u64().unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let (_, view) = request(addr, "GET", &format!("/v1/jobs/{id}"), None);
        let phase = parse(&view)
            .get("phase")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        if phase == "running" {
            break;
        }
        assert_eq!(phase, "queued", "{view}");
        assert!(std::time::Instant::now() < deadline, "job never started");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let cancelled_at = std::time::Instant::now();
    let (status, body) = request(addr, "DELETE", &format!("/v1/jobs/{id}"), None);
    assert_eq!(status, 200, "{body}");
    let doc = wait_terminal(addr, id);
    assert_eq!(doc.get("phase").unwrap().as_str().unwrap(), "cancelled");
    assert!(
        cancelled_at.elapsed() < std::time::Duration::from_secs(10),
        "cancel took {:?}",
        cancelled_at.elapsed()
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn routing_edges() {
    let dir = store_dir("proto_route", 200, 4);
    let server = Server::start(Config::new(&dir)).unwrap();
    let addr = server.addr();

    let (status, _) = request(addr, "GET", "/nope", None);
    assert_eq!(status, 404);
    let (status, _) = request(addr, "DELETE", "/healthz", None);
    assert_eq!(status, 405);
    let (status, _) = request(addr, "GET", "/v1/jobs/abc", None);
    assert_eq!(status, 400);
    let (status, _) = request(addr, "GET", "/v1/jobs/99999", None);
    assert_eq!(status, 404);
    let (status, _) = request(addr, "DELETE", "/v1/jobs/99999", None);
    assert_eq!(status, 404);
    let (status, _) = request(addr, "PATCH", "/v1/jobs/1", None);
    assert_eq!(status, 405);

    let (status, body) = request(addr, "GET", "/v1/stores", None);
    assert_eq!(status, 200);
    let doc = parse(&body);
    let stores = doc.get("stores").unwrap().as_arr().unwrap();
    assert_eq!(stores.len(), 1);
    assert_eq!(stores[0].get("name").unwrap().as_str().unwrap(), "ba.fsg");
    assert_eq!(stores[0].get("num_vertices").unwrap().as_u64(), Some(200));
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_submission_and_polling_32_in_flight() {
    let dir = store_dir("proto_conc", 500, 5);
    let mut config = Config::new(&dir);
    config.conn_workers = 8;
    config.job_workers = 4;
    let server = Server::start(config).unwrap();
    let addr = server.addr();

    // 32 client threads, each submitting against the ONE shared store
    // and polling its job to completion. Results must be per-seed
    // deterministic: equal seeds ⇒ equal results, different seeds ⇒
    // (almost surely) different scalar estimates.
    let handles: Vec<_> = (0..32u64)
        .map(|i| {
            std::thread::spawn(move || {
                let seed = i % 4; // 4 distinct seeds ⇒ 8-way agreement
                let body = format!(
                    "{{\"store\":\"ba.fsg\",\"sampler\":\"fs\",\"m\":8,\"budget\":4000,\
                     \"seed\":{seed},\"estimator\":\"avg_degree\"}}"
                );
                let (status, text) = request(addr, "POST", "/v1/jobs", Some(&body));
                assert_eq!(status, 202, "{text}");
                let id = parse(&text).get("id").unwrap().as_u64().unwrap();
                let doc = wait_terminal(addr, id);
                assert_eq!(
                    doc.get("phase").unwrap().as_str().unwrap(),
                    "done",
                    "{}",
                    doc.encode()
                );
                let est = doc.get("estimate").unwrap();
                let scalar = est.get("scalar").unwrap().as_f64().unwrap();
                assert!(scalar.is_finite());
                (seed, scalar.to_bits())
            })
        })
        .collect();
    let mut by_seed: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for h in handles {
        let (seed, bits) = h.join().expect("client thread panicked");
        let prev = by_seed.insert(seed, bits);
        if let Some(prev) = prev {
            assert_eq!(prev, bits, "seed {seed}: concurrent runs diverged");
        }
    }
    assert_eq!(by_seed.len(), 4);
    let distinct: std::collections::HashSet<u64> = by_seed.values().copied().collect();
    assert!(distinct.len() > 1, "different seeds all collided");

    let (status, body) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    assert_eq!(
        parse(&body).get("in_flight_jobs").unwrap().as_u64(),
        Some(0)
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn queue_full_gives_429_and_drains_after_cancel() {
    let dir = store_dir("proto_queue", 500, 6);
    let mut config = Config::new(&dir);
    config.job_workers = 1;
    config.max_queue = 2;
    let server = Server::start(config).unwrap();
    let addr = server.addr();

    // A job that runs effectively forever keeps the lone worker busy.
    let blocker = "{\"store\":\"ba.fsg\",\"sampler\":\"single\",\"budget\":1000000000,\
                   \"seed\":1,\"estimator\":\"avg_degree\"}";
    let (status, text) = request(addr, "POST", "/v1/jobs", Some(blocker));
    assert_eq!(status, 202, "{text}");
    let blocker_id = parse(&text).get("id").unwrap().as_u64().unwrap();
    // Wait until it is actually running (off the queue).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let (_, body) = request(addr, "GET", &format!("/v1/jobs/{blocker_id}"), None);
        if parse(&body).get("phase").unwrap().as_str().unwrap() == "running" {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "blocker never ran");
    }

    // Fill the queue…
    let small = "{\"store\":\"ba.fsg\",\"sampler\":\"single\",\"budget\":100,\
                 \"seed\":2,\"estimator\":\"avg_degree\"}";
    let mut queued = Vec::new();
    for _ in 0..2 {
        let (status, text) = request(addr, "POST", "/v1/jobs", Some(small));
        assert_eq!(status, 202, "{text}");
        queued.push(parse(&text).get("id").unwrap().as_u64().unwrap());
    }
    // …and overflow it.
    let (status, text) = request(addr, "POST", "/v1/jobs", Some(small));
    assert_eq!(status, 429, "{text}");

    // Cancelling the blocker frees the worker; the queue drains.
    let (status, _) = request(addr, "DELETE", &format!("/v1/jobs/{blocker_id}"), None);
    assert_eq!(status, 200);
    assert_eq!(
        wait_terminal(addr, blocker_id)
            .get("phase")
            .unwrap()
            .as_str()
            .unwrap(),
        "cancelled"
    );
    for id in queued {
        assert_eq!(
            wait_terminal(addr, id)
                .get("phase")
                .unwrap()
                .as_str()
                .unwrap(),
            "done"
        );
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_with_jobs_in_flight_is_prompt_and_clean() {
    let dir = store_dir("proto_shutdown", 500, 7);
    let mut config = Config::new(&dir);
    config.job_workers = 2;
    let server = Server::start(config).unwrap();
    let addr = server.addr();

    // Two effectively-endless jobs occupy both workers, one more queues.
    let endless = "{\"store\":\"ba.fsg\",\"sampler\":\"fs\",\"m\":4,\"budget\":1000000000,\
                   \"seed\":9,\"estimator\":\"avg_degree\"}";
    for _ in 0..3 {
        let (status, text) = request(addr, "POST", "/v1/jobs", Some(endless));
        assert_eq!(status, 202, "{text}");
    }
    std::thread::sleep(std::time::Duration::from_millis(100));
    let started = std::time::Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < std::time::Duration::from_secs(30),
        "shutdown took {:?} with jobs in flight",
        started.elapsed()
    );
}

#[test]
fn manager_level_shutdown_cancels_in_flight_jobs() {
    // Same property, observed through the manager so the final phases
    // are assertable after shutdown.
    let dir = store_dir("proto_mgr", 500, 8);
    let registry = Arc::new(StoreRegistry::new(&dir, 2));
    let cache = Arc::new(ResultCache::new(64, 1 << 20));
    let manager = fs_serve::JobManager::start(registry, cache, 1, 8, None);
    let running = manager
        .submit(JobSpec {
            store: "ba.fsg".into(),
            sampler: SamplerSpec::Single,
            budget: 1e9,
            seed: 1,
            estimator: EstimatorSpec::AverageDegree,
        })
        .unwrap();
    let queued = manager
        .submit(JobSpec {
            store: "ba.fsg".into(),
            sampler: SamplerSpec::Single,
            budget: 100.0,
            seed: 2,
            estimator: EstimatorSpec::AverageDegree,
        })
        .unwrap();
    // Wait for the first job to start.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while manager.view(running).unwrap().phase != JobPhase::Running {
        assert!(std::time::Instant::now() < deadline);
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    manager.shutdown();
    assert_eq!(manager.view(running).unwrap().phase, JobPhase::Cancelled);
    assert_eq!(manager.view(queued).unwrap().phase, JobPhase::Cancelled);
    // Post-shutdown submissions are refused.
    let refused = manager.submit(JobSpec {
        store: "ba.fsg".into(),
        sampler: SamplerSpec::Single,
        budget: 10.0,
        seed: 3,
        estimator: EstimatorSpec::AverageDegree,
    });
    assert!(matches!(refused, Err(SubmitError::ShuttingDown)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn job_lifecycle_status_codes_are_stable() {
    let dir = store_dir("proto_lifecycle", 300, 11);
    let server = Server::start(Config::new(&dir)).unwrap();
    let addr = server.addr();
    let spec = "{\"store\":\"ba.fsg\",\"sampler\":\"fs\",\"m\":4,\"budget\":2000,\
                \"seed\":5,\"estimator\":\"avg_degree\"}";

    // A completed job: GET is 200, DELETE is 409 (the result stands).
    let (status, text) = request(addr, "POST", "/v1/jobs", Some(spec));
    assert_eq!(status, 202, "{text}");
    let done_id = parse(&text).get("id").unwrap().as_u64().unwrap();
    wait_terminal(addr, done_id);
    let (status, body) = request(addr, "GET", &format!("/v1/jobs/{done_id}"), None);
    assert_eq!(status, 200);
    assert_eq!(parse(&body).get("cached").unwrap().as_bool(), Some(false));
    let (status, body) = request(addr, "DELETE", &format!("/v1/jobs/{done_id}"), None);
    assert_eq!(status, 409, "DELETE on done job: {body}");
    let doc = parse(&body);
    assert_eq!(doc.get("phase").unwrap().as_str().unwrap(), "done");
    assert!(doc.get("error").is_some());
    // Still 409 on repeat, and the job is untouched.
    let (status, _) = request(addr, "DELETE", &format!("/v1/jobs/{done_id}"), None);
    assert_eq!(status, 409);
    let (_, body) = request(addr, "GET", &format!("/v1/jobs/{done_id}"), None);
    assert_eq!(parse(&body).get("phase").unwrap().as_str().unwrap(), "done");

    // The identical spec completes from the result cache: GET is a
    // plain 200 with `cached: true`, and cancelling it is still 409.
    let (status, text) = request(addr, "POST", "/v1/jobs", Some(spec));
    assert_eq!(status, 202, "{text}");
    let hit = parse(&text);
    let hit_id = hit.get("id").unwrap().as_u64().unwrap();
    assert_ne!(hit_id, done_id);
    assert_eq!(hit.get("phase").unwrap().as_str().unwrap(), "done");
    let (status, body) = request(addr, "GET", &format!("/v1/jobs/{hit_id}"), None);
    assert_eq!(status, 200);
    assert_eq!(parse(&body).get("cached").unwrap().as_bool(), Some(true));
    let (status, _) = request(addr, "DELETE", &format!("/v1/jobs/{hit_id}"), None);
    assert_eq!(status, 409);

    // A running job: DELETE is 200, and double-cancel stays 200
    // (idempotent).
    let endless = "{\"store\":\"ba.fsg\",\"sampler\":\"single\",\"budget\":1000000000,\
                   \"seed\":6,\"estimator\":\"avg_degree\"}";
    let (status, text) = request(addr, "POST", "/v1/jobs", Some(endless));
    assert_eq!(status, 202, "{text}");
    let run_id = parse(&text).get("id").unwrap().as_u64().unwrap();
    let (status, body) = request(addr, "DELETE", &format!("/v1/jobs/{run_id}"), None);
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        wait_terminal(addr, run_id)
            .get("phase")
            .unwrap()
            .as_str()
            .unwrap(),
        "cancelled"
    );
    let (status, body) = request(addr, "DELETE", &format!("/v1/jobs/{run_id}"), None);
    assert_eq!(status, 200, "double-cancel must stay 200: {body}");
    assert_eq!(
        parse(&body).get("phase").unwrap().as_str().unwrap(),
        "cancelled"
    );

    // Unknown ids are 404 for both verbs.
    let (status, _) = request(addr, "GET", "/v1/jobs/123456789", None);
    assert_eq!(status, 404);
    let (status, _) = request(addr, "DELETE", "/v1/jobs/123456789", None);
    assert_eq!(status, 404);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn keep_alive_session_pipelines_in_order() {
    let dir = store_dir("proto_keepalive", 200, 12);
    let server = Server::start(Config::new(&dir)).unwrap();
    let addr = server.addr();

    // Many sequential round trips over ONE socket.
    let mut session = Session::connect(addr);
    for _ in 0..50 {
        let (status, body) = session.roundtrip("GET", "/healthz", None);
        assert_eq!(status, 200);
        assert_eq!(parse(&body).get("status").unwrap().as_str().unwrap(), "ok");
    }

    // A pipelined burst: write 40 requests before reading anything,
    // then require the 40 responses to come back in request order
    // (the 404 bodies echo their distinct paths).
    for i in 0..20 {
        session.send("GET", "/healthz", None);
        session.send("GET", &format!("/pipelined-{i}"), None);
    }
    for i in 0..20 {
        let (status, _) = session.read_response();
        assert_eq!(status, 200);
        let (status, body) = session.read_response();
        assert_eq!(status, 404);
        assert!(
            body.contains(&format!("/pipelined-{i}")),
            "response {i} out of order: {body}"
        );
    }

    // App-level errors (bad JSON spec) keep the connection alive —
    // framing was fine, so there is nothing to distrust.
    let (status, _) = session.roundtrip("POST", "/v1/jobs", Some("{\"store\":\"ba.fsg\"}"));
    assert_eq!(status, 400);
    let (status, _) = session.roundtrip("GET", "/healthz", None);
    assert_eq!(status, 200);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn smuggling_shaped_framing_is_rejected_with_close() {
    let dir = store_dir("proto_smuggle", 200, 13);
    let server = Server::start(Config::new(&dir)).unwrap();
    let addr = server.addr();
    // Every framing ambiguity must draw a 400 AND close the
    // connection — `raw_request` reads to EOF, so a server that kept
    // the connection open would hang this test, and a poisoned parser
    // must never route the trailing smuggled request.
    let smuggled = "GET /admin HTTP/1.1\r\n\r\n";
    for raw in [
        format!("POST /v1/jobs HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 2\r\n\r\n{{}}{smuggled}"),
        format!("POST /v1/jobs HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 29\r\n\r\n{{}}{smuggled}"),
        format!("POST /v1/jobs HTTP/1.1\r\ncontent-length: +2\r\n\r\n{{}}{smuggled}"),
        format!("POST /v1/jobs HTTP/1.1\r\ncontent-length: 99999999999999999999\r\n\r\n{smuggled}"),
        format!("POST /v1/jobs HTTP/1.1\r\ncontent-length: 0x2\r\n\r\n{{}}{smuggled}"),
        format!("POST /v1/jobs HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n0\r\n\r\n{smuggled}"),
        format!("POST /v1/jobs HTTP/1.1\r\ntransfer-encoding: identity\r\ncontent-length: 2\r\n\r\n{{}}{smuggled}"),
        format!("POST /v1/jobs HTTP/1.1\r\ncontent-length : 2\r\n\r\n{{}}{smuggled}"),
    ] {
        let (status, text) = raw_request(addr, raw.as_bytes());
        assert_eq!(status, 400, "{raw:?} → {text}");
        // Exactly one response came back: the poisoned parser did not
        // route the smuggled request.
        assert!(
            !text.contains("HTTP/1.1"),
            "{raw:?}: smuggled request was answered: {text}"
        );
    }
    let (status, _) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 200, "server must stay healthy");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Declares `setsockopt(2)` to shrink the client's receive buffer —
/// the test crate carries its own scoped FFI (the library itself
/// denies unsafe outside the reactor's epoll shim).
#[allow(unsafe_code)]
mod tiny_rcvbuf {
    use std::os::fd::AsRawFd;

    // SAFETY: signature transcribed from setsockopt(2); the one call
    // site passes a pointer to a live `c_int` with its exact size.
    extern "C" {
        fn setsockopt(
            fd: std::os::raw::c_int,
            level: std::os::raw::c_int,
            optname: std::os::raw::c_int,
            optval: *const std::os::raw::c_void,
            optlen: u32,
        ) -> std::os::raw::c_int;
    }

    const SOL_SOCKET: std::os::raw::c_int = 1;
    const SO_RCVBUF: std::os::raw::c_int = 8;

    /// Caps the socket's receive buffer (Linux doubles the value and
    /// enforces a floor; the point is "small", not exact).
    pub fn shrink(sock: &impl AsRawFd, bytes: i32) {
        // SAFETY: the fd is live (borrowed from an open socket), and
        // the option value is a stack i32 read synchronously by the
        // kernel.
        let rc = unsafe {
            setsockopt(
                sock.as_raw_fd(),
                SOL_SOCKET,
                SO_RCVBUF,
                (&bytes) as *const i32 as *const std::os::raw::c_void,
                std::mem::size_of::<i32>() as u32,
            )
        };
        assert_eq!(rc, 0, "setsockopt(SO_RCVBUF) failed");
    }
}

#[test]
fn response_writer_survives_tiny_rcvbuf_dribble() {
    // Pin the partial-write continuation path: a peer with a tiny
    // receive window pipelines far more response bytes than any kernel
    // buffer holds, so the server must hit EAGAIN mid-response and
    // resume on EPOLLOUT — repeatedly — without corrupting or
    // reordering a single byte.
    let dir = store_dir("proto_dribble", 200, 14);
    let server = Server::start(Config::new(&dir)).unwrap();
    let addr = server.addr();

    // 64 KiB: far below the 5 MB backlog (guaranteeing repeated EAGAIN
    // parks on the server) but at least one loopback-MSS segment, so
    // TCP keeps streaming instead of degenerating into persist-timer
    // probes.
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    tiny_rcvbuf::shrink(&stream, 64 * 1024);
    let mut session = Session::from_stream(stream);
    // ~30k distinct 404s ≈ 5 MB of responses — past the write
    // high-water mark and any default socket buffer.
    const N: usize = 30_000;
    for i in 0..N {
        session.send("GET", &format!("/dribble-{i}"), None);
    }
    for i in 0..N {
        let (status, body) = session.read_response();
        assert_eq!(status, 404);
        assert!(
            body.contains(&format!("/dribble-{i}")),
            "response {i} corrupted or out of order: {body}"
        );
    }
    // The connection is still perfectly usable.
    let (status, _) = session.roundtrip("GET", "/healthz", None);
    assert_eq!(status, 200);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn http_shutdown_endpoint_flips_to_503() {
    let dir = store_dir("proto_503", 200, 9);
    let server = Server::start(Config::new(&dir)).unwrap();
    let addr = server.addr();
    let (status, _) = request(addr, "POST", "/v1/shutdown", None);
    assert_eq!(status, 202);
    assert!(server.shutdown_requested());
    let (status, _) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 503);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
