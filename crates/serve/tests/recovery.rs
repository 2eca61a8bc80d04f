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
use fs_graph::failpoint::ArmedGuard;
use fs_serve::journal::{DurabilityStats, Journal};
use fs_serve::json::Json;
use fs_serve::{Config, JobSpec, Server};
use fs_store::MmapGraph;
use std::path::Path;
use std::sync::Mutex;

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
        pool_threads: None,
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

    // Specs submit validation rejects, resurrected via the journal —
    // exactly what a journal written by a different build (or edited
    // by hand) can hand this server. Both must land as clean journaled
    // `failed` jobs, never a worker panic.
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
                pool_threads: None,
            },
            digest,
        );
        // Valid pair, but the walker pool only runs fs/multiple.
        journal.submit(
            2,
            &JobSpec {
                store: "ba.fsg".into(),
                sampler: SamplerSpec::Mhrw,
                budget: BUDGET,
                seed: 1,
                estimator: EstimatorSpec::AverageDegree,
                pool_threads: Some(2),
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

    let doc = wait_terminal(addr, 2);
    assert_eq!(
        doc.get("phase").unwrap().as_str(),
        Some("failed"),
        "{doc:?}"
    );
    let error = doc.get("error").unwrap().as_str().unwrap().to_string();
    assert!(
        error.contains("pooled execution supports frontier and multiple"),
        "wrong error: {error}"
    );
    assert!(!error.contains("internal error"), "{error}");

    // The failures are journaled: a second restart replays them as
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
