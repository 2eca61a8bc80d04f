//! Crash recovery and chaos, end to end: a server restarted over a
//! journal left behind by a dead predecessor must finish every
//! journaled job with estimates **bit-identical** to an uninterrupted
//! run, and injected I/O faults (journal `ENOSPC`, flaky reactor
//! sockets) must never change a result — only, at worst, cost work.
//!
//! The "crash" here is simulated by hand-building the journal a dead
//! server would have left (a process cannot SIGKILL itself and keep
//! asserting); the real SIGKILL-mid-burst case runs in CI's
//! `recovery (smoke)` job via `loadgen --submit-only` /
//! `--recovery-probe`.
//!
//! The failpoint registry is process-global, so every test here takes
//! `CHAOS_LOCK` — armed or not — to keep faults from leaking across
//! concurrently running tests.

mod common;

use common::{parse, request, store_dir, wait_ready, wait_terminal};
use frontier_sampling::runner::{
    ChunkStatus, ChunkedRunner, EstimateSnapshot, EstimatorSpec, JobEstimator, SamplerSpec,
};
use frontier_sampling::CostModel;
use fs_graph::failpoint::{self, ArmedGuard};
use fs_serve::journal::{DurabilityStats, Journal};
use fs_serve::json::Json;
use fs_serve::{Config, JobPhase, JobSpec, Server};
use fs_store::MmapGraph;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const BUDGET: f64 = 30_000.0;

fn spec(seed: u64) -> JobSpec {
    JobSpec {
        store: "ba.fsg".into(),
        sampler: SamplerSpec::Frontier { m: 4 },
        budget: BUDGET,
        seed,
        estimator: EstimatorSpec::AverageDegree,
    }
}

fn job_body(seed: u64) -> String {
    format!(
        "{{\"store\":\"ba.fsg\",\"sampler\":\"fs\",\"m\":4,\"budget\":{BUDGET},\"seed\":{seed},\
         \"estimator\":\"avg_degree\"}}"
    )
}

/// The uninterrupted library run the served result must match bit for
/// bit, crash or no crash.
fn library_run(graph: &MmapGraph, seed: u64) -> EstimateSnapshot {
    let spec = spec(seed);
    let mut est = JobEstimator::new(spec.estimator, &spec.sampler).unwrap();
    let mut runner = ChunkedRunner::new(&spec.sampler, graph, &CostModel::unit(), BUDGET, seed);
    while runner.run_chunk(usize::MAX, |s| est.observe(graph, s)) == ChunkStatus::InProgress {}
    est.snapshot()
}

fn assert_estimate_matches(doc: &Json, expect: &EstimateSnapshot, context: &str) {
    let est = doc.get("estimate").unwrap_or(&Json::Null);
    assert_eq!(
        est.get("num_observed").and_then(|v| v.as_u64()),
        Some(expect.num_observed),
        "{context}: num_observed"
    );
    assert_eq!(
        est.get("scalar").and_then(|v| v.as_f64()).map(f64::to_bits),
        expect.scalar.map(f64::to_bits),
        "{context}: scalar bits"
    );
}

/// A fresh temp directory for a bare journal.
fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fs_serve_journal_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn server_over(dir: &Path) -> Server {
    let mut config = Config::new(dir);
    config.journal_dir = Some(dir.join("journal"));
    Server::start(config).expect("start server")
}

#[test]
fn resumed_job_completes_bit_identical_after_simulated_crash() {
    let _guard = lock();
    let dir = store_dir("recovery_resume", 2_000, 21);
    let store_path = dir.join("ba.fsg");
    let graph = MmapGraph::open(&store_path).unwrap();
    let digest = fs_store::file_digest(&store_path).unwrap();
    let seed = 777u64;

    // The journal a SIGKILLed server would have left: one accepted
    // job, checkpointed mid-run (runner + estimator from the same
    // instant), no terminal record.
    {
        let job = spec(seed);
        let mut est = JobEstimator::new(job.estimator, &job.sampler).unwrap();
        let mut runner = ChunkedRunner::new(&job.sampler, &graph, &CostModel::unit(), BUDGET, seed);
        while runner.steps_done() < 12_000 {
            assert_eq!(
                runner.run_chunk(4_096, |s| est.observe(&graph, s)),
                ChunkStatus::InProgress,
                "budget too small to stop mid-run"
            );
        }
        let (journal, _) = Journal::open(
            &dir.join("journal"),
            std::sync::Arc::new(DurabilityStats::default()),
        )
        .unwrap();
        journal.submit(1, &job, digest);
        journal.checkpoint(
            1,
            runner.steps_done(),
            &runner.serialize(),
            &est.serialize(),
        );
    }

    let server = server_over(&dir);
    let addr = server.addr();
    wait_ready(addr);
    let doc = wait_terminal(addr, 1);
    assert_eq!(doc.get("phase").unwrap().as_str(), Some("done"));
    assert_estimate_matches(&doc, &library_run(&graph, seed), "resumed job");

    let health = wait_ready(addr);
    let durability = health.get("durability").expect("durability counters");
    assert_eq!(
        durability.get("jobs_resumed").and_then(|v| v.as_u64()),
        Some(1)
    );
    assert_eq!(
        durability
            .get("resumed_from_checkpoint")
            .and_then(|v| v.as_u64()),
        Some(1)
    );

    // Ids handed out after recovery never collide with journaled ones.
    let (status, body) = request(addr, "POST", "/v1/jobs", Some(&job_body(seed + 1)));
    assert_eq!(status, 202, "{body}");
    let new_id = parse(&body).get("id").unwrap().as_u64().unwrap();
    assert!(new_id > 1, "journaled id reused: {new_id}");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn terminal_jobs_reappear_and_warm_the_result_cache() {
    let _guard = lock();
    let dir = store_dir("recovery_terminal", 2_000, 22);
    let store_path = dir.join("ba.fsg");
    let graph = MmapGraph::open(&store_path).unwrap();
    let digest = fs_store::file_digest(&store_path).unwrap();
    let seed = 900u64;
    let snapshot = library_run(&graph, seed);

    {
        let (journal, _) = Journal::open(
            &dir.join("journal"),
            std::sync::Arc::new(DurabilityStats::default()),
        )
        .unwrap();
        journal.submit(5, &spec(seed), digest);
        journal.terminal(5, fs_serve::JobPhase::Done, None, 30_000, Some(&snapshot));
    }

    let server = server_over(&dir);
    let addr = server.addr();
    wait_ready(addr);

    // The finished job reappears under its pre-crash id with its exact
    // result — a client polling across the crash sees it complete.
    let (status, body) = request(addr, "GET", "/v1/jobs/5", None);
    assert_eq!(status, 200, "{body}");
    let doc = parse(&body);
    assert_eq!(doc.get("phase").unwrap().as_str(), Some("done"));
    assert_estimate_matches(&doc, &snapshot, "recovered terminal");

    // And its estimate warmed the result cache: an identical re-submit
    // completes at submission.
    let (status, body) = request(addr, "POST", "/v1/jobs", Some(&job_body(seed)));
    assert_eq!(status, 202, "{body}");
    let resubmit = parse(&body);
    assert_eq!(resubmit.get("phase").unwrap().as_str(), Some("done"));
    let id = resubmit.get("id").unwrap().as_u64().unwrap();
    let doc = parse(&request(addr, "GET", &format!("/v1/jobs/{id}")[..], None).1);
    assert_eq!(doc.get("cached").unwrap(), &Json::Bool(true));
    assert_estimate_matches(&doc, &snapshot, "cache-hit twin");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_checkpoint_blob_falls_back_to_a_fresh_run() {
    let _guard = lock();
    let dir = store_dir("recovery_corrupt", 2_000, 23);
    let store_path = dir.join("ba.fsg");
    let graph = MmapGraph::open(&store_path).unwrap();
    let digest = fs_store::file_digest(&store_path).unwrap();
    let seed = 1_234u64;

    // A checkpoint whose *frame* is intact but whose blobs are garbage
    // (e.g. written by a different build): resume must reject it and
    // re-run from scratch — which determinism makes bit-identical too.
    {
        let (journal, _) = Journal::open(
            &dir.join("journal"),
            std::sync::Arc::new(DurabilityStats::default()),
        )
        .unwrap();
        journal.submit(1, &spec(seed), digest);
        journal.checkpoint(1, 9_999, b"not a runner blob", b"not an estimator blob");
    }

    let server = server_over(&dir);
    let addr = server.addr();
    wait_ready(addr);
    let doc = wait_terminal(addr, 1);
    assert_eq!(doc.get("phase").unwrap().as_str(), Some("done"));
    assert_estimate_matches(&doc, &library_run(&graph, seed), "fresh-run fallback");
    let health = wait_ready(addr);
    let durability = health.get("durability").expect("durability counters");
    assert_eq!(
        durability
            .get("resumed_from_checkpoint")
            .and_then(|v| v.as_u64()),
        Some(0),
        "a corrupt checkpoint must not count as resumed-from-checkpoint"
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journal_enospc_chaos_keeps_the_server_serving() {
    let _guard = lock();
    let dir = store_dir("recovery_enospc", 2_000, 24);
    let graph = MmapGraph::open(dir.join("ba.fsg")).unwrap();
    let server = server_over(&dir);
    let addr = server.addr();
    wait_ready(addr);

    // Half of all journal appends fail (ENOSPC / torn short writes):
    // durability degrades, results must not.
    let seeds: Vec<u64> = (3_000..3_006).collect();
    {
        let _armed = ArmedGuard::new("journal.append=enospc:0.3,short_write:0.2", 7);
        for &seed in &seeds {
            let (status, body) = request(addr, "POST", "/v1/jobs", Some(&job_body(seed)));
            assert_eq!(status, 202, "{body}");
            let id = parse(&body).get("id").unwrap().as_u64().unwrap();
            let doc = wait_terminal(addr, id);
            assert_eq!(doc.get("phase").unwrap().as_str(), Some("done"), "{doc:?}");
            assert_estimate_matches(&doc, &library_run(&graph, seed), "job under ENOSPC chaos");
        }
    }
    let health = wait_ready(addr);
    let durability = health.get("durability").expect("durability counters");
    let failed = durability
        .get("appends_failed")
        .and_then(|v| v.as_u64())
        .unwrap();
    assert!(failed > 0, "the chaos spec never fired");
    assert_eq!(
        durability.get("degraded").unwrap(),
        &Json::Bool(false),
        "truncate-back keeps the journal healthy"
    );
    server.shutdown();

    // Whatever subset of records survived must replay cleanly: a
    // restart over the storm-damaged journal comes up healthy.
    let server = server_over(&dir);
    wait_ready(server.addr());
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reactor_socket_chaos_is_invisible_to_clients() {
    let _guard = lock();
    let dir = store_dir("recovery_reactor", 2_000, 25);
    let graph = MmapGraph::open(dir.join("ba.fsg")).unwrap();
    let mut config = Config::new(&dir);
    config.journal_dir = None; // chaos target is the reactor, not the journal
    let server = Server::start(config).expect("start server");
    let addr = server.addr();

    // Every socket turns flaky with *recoverable* faults — EINTR,
    // spurious EAGAIN, short reads, short writes. Level-triggered
    // epoll + the continuation arms must make all of it invisible:
    // same statuses, same bits, no hangs.
    {
        let _armed = ArmedGuard::new(
            "reactor.read=eintr:0.05,eagain:0.05,short_read:0.15;\
             reactor.write=eagain:0.05,short_write:0.2",
            11,
        );
        for seed in 4_000..4_006u64 {
            let (status, body) = request(addr, "POST", "/v1/jobs", Some(&job_body(seed)));
            assert_eq!(status, 202, "{body}");
            let id = parse(&body).get("id").unwrap().as_u64().unwrap();
            let doc = wait_terminal(addr, id);
            assert_eq!(doc.get("phase").unwrap().as_str(), Some("done"), "{doc:?}");
            assert_estimate_matches(&doc, &library_run(&graph, seed), "job under socket chaos");
        }
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replayed_job_with_unsupported_spec_fails_cleanly() {
    let _guard = lock();
    let dir = store_dir("recovery_badspec", 2_000, 23);
    let store_path = dir.join("ba.fsg");
    let digest = fs_store::file_digest(&store_path).unwrap();

    // A spec submit validation rejects, resurrected via the journal —
    // exactly what a journal written by a different build (or edited
    // by hand) can hand this server. It must land as a clean journaled
    // `failed` job, never a worker panic.
    {
        let (journal, _) = Journal::open(
            &dir.join("journal"),
            std::sync::Arc::new(DurabilityStats::default()),
        )
        .unwrap();
        // Statistically unsupported pair: clustering needs an edge
        // stream, MHRW emits uniform vertices.
        journal.submit(
            1,
            &JobSpec {
                store: "ba.fsg".into(),
                sampler: SamplerSpec::Mhrw,
                budget: BUDGET,
                seed: 1,
                estimator: EstimatorSpec::Clustering,
            },
            digest,
        );
    }

    let server = server_over(&dir);
    let addr = server.addr();
    wait_ready(addr);

    let doc = wait_terminal(addr, 1);
    assert_eq!(
        doc.get("phase").unwrap().as_str(),
        Some("failed"),
        "{doc:?}"
    );
    let error = doc.get("error").unwrap().as_str().unwrap().to_string();
    assert!(
        error.contains("invalid estimator/sampler pair"),
        "wrong error: {error}"
    );
    assert!(
        !error.contains("internal error"),
        "must degrade, not catch a panic: {error}"
    );

    // The failure is journaled: a second restart replays it as
    // terminal and re-runs nothing.
    server.shutdown();
    let server = server_over(&dir);
    let addr = server.addr();
    wait_ready(addr);
    let doc = wait_terminal(addr, 1);
    assert_eq!(
        doc.get("phase").unwrap().as_str(),
        Some("failed"),
        "{doc:?}"
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_enospc_truncates_back_and_keeps_serving() {
    let _guard = lock();
    let dir = tmp("enospc");
    let stats = Arc::new(DurabilityStats::default());
    let (journal, _) = Journal::open(&dir, Arc::clone(&stats)).unwrap();
    journal.submit(1, &spec(5), 1);
    let good = std::fs::metadata(journal.path()).unwrap().len();
    {
        let _armed = failpoint::ArmedGuard::new("journal.append=enospc:0.5,short_write:0.5", 3);
        for i in 0..20 {
            journal.checkpoint(1, i, b"blob", b"blob");
        }
    }
    assert!(stats.appends_failed.load(Ordering::Relaxed) > 0);
    assert!(!stats.degraded.load(Ordering::Relaxed));
    // Whatever landed must replay cleanly: every surviving frame is
    // intact (short-write halves were truncated away).
    journal.terminal(1, JobPhase::Done, None, 20, None);
    drop(journal);
    let stats2 = Arc::new(DurabilityStats::default());
    let (_j, replay) = Journal::open(&dir, Arc::clone(&stats2)).unwrap();
    assert_eq!(stats2.torn_truncated.load(Ordering::Relaxed), 0);
    assert_eq!(replay.jobs.len(), 1);
    assert_eq!(
        replay.jobs[0].terminal.as_ref().unwrap().phase,
        JobPhase::Done
    );
    assert!(std::fs::metadata(dir.join("jobs.fsjl")).unwrap().len() > good);
    std::fs::remove_dir_all(&dir).ok();
}

/// Journals `specs` as accepted-but-unfinished jobs `1..`, the way a
/// server killed before running them leaves them.
fn journal_unfinished(dir: &Path, digest: u64, specs: &[JobSpec]) {
    let (journal, _) =
        Journal::open(&dir.join("journal"), Arc::new(DurabilityStats::default())).unwrap();
    for (id, spec) in (1..).zip(specs) {
        journal.submit(id, spec, digest);
    }
}

fn job_error(doc: &Json) -> String {
    assert_eq!(
        doc.get("phase").unwrap().as_str(),
        Some("failed"),
        "{doc:?}"
    );
    doc.get("error").unwrap().as_str().unwrap().to_string()
}

#[test]
fn replayed_specs_get_submits_checks() {
    let _guard = lock();
    let dir = store_dir("recovery_limits", 2_000, 26);
    let digest = fs_store::file_digest(dir.join("ba.fsg")).unwrap();
    // Specs submit refuses, resurrected via the journal: an unbounded
    // budget would run forever, and `m` past the limit would size
    // walker state from untrusted input.
    let endless = JobSpec {
        budget: f64::INFINITY,
        ..spec(1)
    };
    let too_wide = JobSpec {
        sampler: SamplerSpec::Frontier { m: 1_000_001 },
        ..spec(2)
    };
    journal_unfinished(&dir, digest, &[endless, too_wide]);

    let server = server_over(&dir);
    let addr = server.addr();
    wait_ready(addr);
    let error = job_error(&wait_terminal(addr, 1));
    assert_eq!(
        error,
        "budget must be a finite non-negative number, got inf"
    );
    let error = job_error(&wait_terminal(addr, 2));
    // Word for word what submit answers for the same spec.
    let body = job_body(2).replace("\"m\":4", "\"m\":1000001");
    let (status, text) = request(addr, "POST", "/v1/jobs", Some(&body));
    assert_eq!(status, 400, "{text}");
    assert_eq!(
        parse(&text).get("error").unwrap().as_str(),
        Some(error.as_str())
    );
    assert!(error.contains("server limit"), "{error}");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Reads `name`'s value off a Prometheus text exposition.
fn metric(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no metric {name}"))
        .trim()
        .parse()
        .unwrap()
}

fn submit(addr: std::net::SocketAddr, seed: u64, budget: f64) -> u64 {
    let body = job_body(seed).replace(
        &format!("\"budget\":{BUDGET}"),
        &format!("\"budget\":{budget}"),
    );
    let (status, text) = request(addr, "POST", "/v1/jobs", Some(&body));
    assert_eq!(status, 202, "{text}");
    parse(&text).get("id").unwrap().as_u64().unwrap()
}

fn phase(addr: std::net::SocketAddr, id: u64) -> String {
    let (status, body) = request(addr, "GET", &format!("/v1/jobs/{id}"), None);
    assert_eq!(status, 200, "{body}");
    parse(&body)
        .get("phase")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string()
}

fn wait_running(addr: std::net::SocketAddr, id: u64) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while phase(addr, id) != "running" {
        assert!(std::time::Instant::now() < deadline, "job {id} never ran");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

fn cancel(addr: std::net::SocketAddr, id: u64) {
    let (status, body) = request(addr, "DELETE", &format!("/v1/jobs/{id}"), None);
    assert_eq!(status, 200, "{body}");
}

/// Terminal records per job id in a journal file, read frame by frame
/// (`type:u8 len:u32le payload checksum:u64le` after the 8-byte
/// header; a terminal record is type 3 and its payload opens with the
/// id).
fn terminal_records(path: &Path) -> BTreeMap<u64, usize> {
    let bytes = std::fs::read(path).unwrap();
    let mut counts = BTreeMap::new();
    let mut at = 8;
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at + 1..at + 5].try_into().unwrap()) as usize;
        if bytes[at] == 3 {
            let id = u64::from_le_bytes(bytes[at + 5..at + 13].try_into().unwrap());
            *counts.entry(id).or_insert(0) += 1;
        }
        at += 1 + 4 + len + 8;
    }
    assert_eq!(at, bytes.len(), "journal ends mid-frame");
    counts
}

#[test]
fn each_terminal_path_counts_and_journals_once() {
    let _guard = lock();
    let dir = store_dir("recovery_terminal_paths", 2_000, 27);
    let digest = fs_store::file_digest(dir.join("ba.fsg")).unwrap();
    {
        let (journal, _) =
            Journal::open(&dir.join("journal"), Arc::new(DurabilityStats::default())).unwrap();
        // Job 1: replayed, then failed by the spec check.
        let too_wide = JobSpec {
            sampler: SamplerSpec::Frontier { m: 1_000_001 },
            ..spec(1)
        };
        journal.submit(1, &too_wide, digest);
        // Job 2: finished before the restart; replay recovers it.
        journal.submit(2, &spec(2), digest);
        let snapshot = EstimateSnapshot {
            num_observed: 1,
            scalar: Some(4.0),
            vector: None,
        };
        journal.terminal(2, JobPhase::Done, None, 1, Some(&snapshot));
        // Job 3: its store is gone, so restore fails it.
        let gone = JobSpec {
            store: "gone.fsg".into(),
            ..spec(3)
        };
        journal.submit(3, &gone, digest);
    }
    let recovered = 2;
    let trace_log = dir.join("trace.ndjson");
    let mut config = Config::new(&dir);
    config.journal_dir = Some(dir.join("journal"));
    config.job_workers = 1;
    config.trace_log = Some(trace_log.clone());
    let server = Server::start(config).expect("start server");
    let addr = server.addr();
    wait_ready(addr);
    for id in [1, 3] {
        assert_eq!(
            wait_terminal(addr, id).get("phase").unwrap().as_str(),
            Some("failed")
        );
    }
    assert_eq!(phase(addr, recovered), "done");

    // An endless budget in wire terms: runs until cancelled.
    let endless = 1e15;
    let done = submit(addr, 10, BUDGET);
    assert_eq!(
        wait_terminal(addr, done).get("phase").unwrap().as_str(),
        Some("done")
    );
    let running = submit(addr, 11, endless);
    wait_running(addr, running);
    // The one worker is busy: these stay queued.
    let queued = submit(addr, 12, BUDGET);
    cancel(addr, queued);
    assert_eq!(phase(addr, queued), "cancelled");
    let next = submit(addr, 13, endless);
    let drained = submit(addr, 14, BUDGET);
    cancel(addr, running);
    assert_eq!(
        wait_terminal(addr, running).get("phase").unwrap().as_str(),
        Some("cancelled")
    );
    wait_running(addr, next);
    assert_eq!(phase(addr, drained), "queued");

    let (status, exposition) = request(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let count = |name: &str| metric(&exposition, name);
    let (submitted, recovered_n, resumed) = (
        count("fs_jobs_submitted_total"),
        count("fs_journal_jobs_recovered_total"),
        count("fs_journal_jobs_resumed_total"),
    );
    let (done_n, failed, cancelled, in_flight) = (
        count("fs_jobs_done_total"),
        count("fs_jobs_failed_total"),
        count("fs_jobs_cancelled_total"),
        count("fs_jobs_in_flight"),
    );
    // A replayed job enters through the journal, not submit: recovered
    // when its terminal record replays, resumed when it is incomplete
    // (also when restore fails it).
    assert_eq!((submitted, recovered_n, resumed), (5, 1, 2));
    assert_eq!((done_n, failed, cancelled, in_flight), (2, 2, 2, 2));
    assert_eq!(
        submitted + recovered_n + resumed,
        done_n + failed + cancelled + in_flight
    );

    // Shutdown cancels the running job and drains the queued one.
    server.shutdown();

    // The recovered job ends no transition here, so it has no event.
    let ids = [1, 3, done, queued, running, next, drained];
    let expect = |id: u64| match id {
        1 | 3 => "job.failed",
        id if id == done || id == recovered => "job.done",
        _ => "job.cancelled",
    };
    let mut events: BTreeMap<u64, Vec<Json>> = BTreeMap::new();
    for line in std::fs::read_to_string(&trace_log).unwrap().lines() {
        let event = parse(line);
        let kind = event.get("kind").unwrap().as_str().unwrap();
        if ["job.done", "job.failed", "job.cancelled"].contains(&kind) {
            let id = event.get("span").unwrap().as_u64().unwrap();
            events.entry(id).or_default().push(event);
        }
    }
    assert_eq!(events.keys().copied().collect::<Vec<_>>(), {
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        sorted
    });
    for (&id, list) in &events {
        assert_eq!(list.len(), 1, "job {id}: {list:?}");
        let event = &list[0];
        assert_eq!(event.get("kind").unwrap().as_str(), Some(expect(id)));
        assert!(event.get("steps").is_some(), "{event:?}");
        assert_eq!(
            event.get("reason").is_some(),
            expect(id) == "job.failed",
            "only a failure carries a reason: {event:?}"
        );
    }

    let journal_dir = dir.join("journal");
    let records = terminal_records(&journal_dir.join("jobs.fsjl"));
    let mut with_recovered: Vec<u64> = events.keys().copied().collect();
    with_recovered.push(recovered);
    with_recovered.sort_unstable();
    assert_eq!(records.keys().copied().collect::<Vec<_>>(), with_recovered);
    assert!(records.values().all(|&n| n == 1), "{records:?}");
    let (_journal, replay) =
        Journal::open(&journal_dir, Arc::new(DurabilityStats::default())).unwrap();
    for job in &replay.jobs {
        let phase = job.terminal.as_ref().expect("terminal record").phase;
        let want = match expect(job.id) {
            "job.failed" => JobPhase::Failed,
            "job.done" => JobPhase::Done,
            _ => JobPhase::Cancelled,
        };
        assert_eq!(phase, want, "job {}", job.id);
    }
    std::fs::remove_dir_all(&dir).ok();
}
