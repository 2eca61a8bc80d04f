//! Streaming + result-cache integration tests: chunked NDJSON
//! progress streams, cache-hit byte-identity, and LRU evictions (store
//! registry and result cache) racing in-flight streaming jobs.

mod common;

use common::{parse, request, store_dir, wait_ready, wait_terminal, Session};
use fs_serve::json::Json;
use fs_serve::{Config, Server};

/// The serialized estimate payload — everything from `"estimate":` to
/// the end of the body. Byte-level comparisons on this substring pin
/// the cache's byte-identity guarantee without being distracted by the
/// `id`/`cached` bookkeeping fields, which legitimately differ.
fn estimate_bytes(body: &str) -> &str {
    body.split_once("\"estimate\":")
        .unwrap_or_else(|| panic!("no estimate field in {body}"))
        .1
}

fn submit(addr: std::net::SocketAddr, spec: &str) -> Json {
    let (status, body) = request(addr, "POST", "/v1/jobs", Some(spec));
    assert_eq!(status, 202, "{body}");
    parse(&body)
}

#[test]
fn stream_emits_monotone_snapshots_then_terminates() {
    let dir = store_dir("stream_monotone", 2_000, 21);
    let server = Server::start(Config::new(&dir)).unwrap();
    let addr = server.addr();

    let spec = "{\"store\":\"ba.fsg\",\"sampler\":\"fs\",\"m\":8,\"budget\":2000000,\
                \"seed\":9,\"estimator\":\"avg_degree\"}";
    let id = submit(addr, spec).get("id").unwrap().as_u64().unwrap();

    let mut session = Session::connect(addr);
    session.send("GET", &format!("/v1/jobs/{id}/stream"), None);
    assert_eq!(session.read_stream_head(), 200);
    let mut lines = Vec::new();
    while let Some(chunk) = session.read_chunk() {
        // Every chunk is exactly one newline-terminated JSON line.
        assert!(chunk.ends_with('\n'), "chunk not a line: {chunk:?}");
        lines.push(parse(chunk.trim_end()));
    }
    assert!(!lines.is_empty(), "stream ended without a single line");
    let steps: Vec<u64> = lines
        .iter()
        .map(|doc| doc.get("steps_done").unwrap().as_u64().unwrap())
        .collect();
    assert!(
        steps.windows(2).all(|w| w[0] <= w[1]),
        "steps_done regressed along the stream: {steps:?}"
    );
    let last = lines.last().unwrap();
    assert_eq!(last.get("phase").unwrap().as_str().unwrap(), "done");
    assert_eq!(last.get("final").unwrap().as_bool(), Some(true));
    assert!(
        !matches!(last.get("estimate"), None | Some(Json::Null)),
        "terminal line carries no estimate"
    );

    // The same connection serves plain requests after the stream ends.
    let (status, body) = session.roundtrip("GET", &format!("/v1/jobs/{id}"), None);
    assert_eq!(status, 200);
    assert_eq!(parse(&body).get("phase").unwrap().as_str().unwrap(), "done");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stream_of_cached_job_is_one_terminal_line_and_keeps_pipelining() {
    let dir = store_dir("stream_cached", 600, 22);
    let server = Server::start(Config::new(&dir)).unwrap();
    let addr = server.addr();
    let spec = "{\"store\":\"ba.fsg\",\"sampler\":\"fs\",\"m\":4,\"budget\":30000,\
                \"seed\":3,\"estimator\":\"avg_degree\"}";
    let id = submit(addr, spec).get("id").unwrap().as_u64().unwrap();
    wait_terminal(addr, id);

    // The resubmit completes instantly from the cache; its stream is a
    // single terminal line. A pipelined request behind the stream must
    // be answered after it, on the same connection, in order.
    let hit = submit(addr, spec);
    assert_eq!(hit.get("phase").unwrap().as_str().unwrap(), "done");
    let hit_id = hit.get("id").unwrap().as_u64().unwrap();
    let mut session = Session::connect(addr);
    session.send("GET", &format!("/v1/jobs/{hit_id}/stream"), None);
    session.send("GET", "/healthz", None);
    assert_eq!(session.read_stream_head(), 200);
    let line = session.read_chunk().expect("one terminal line");
    let doc = parse(line.trim_end());
    assert_eq!(doc.get("phase").unwrap().as_str().unwrap(), "done");
    assert_eq!(doc.get("cached").unwrap().as_bool(), Some(true));
    assert!(session.read_chunk().is_none(), "more than one line");
    let (status, body) = session.read_response();
    assert_eq!(status, 200, "pipelined request after stream: {body}");
    assert_eq!(parse(&body).get("status").unwrap().as_str().unwrap(), "ok");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resubmit_right_after_terminal_line_hits_the_cache() {
    // A job is published to the result cache before it shows as done,
    // so a resubmit sent the moment its stream's terminal line arrives
    // is always a hit. The journal's fsync of the terminal record makes
    // any gap between the two wide enough to hit. 300 jobs stay far
    // below the cache's capacity.
    let dir = store_dir("resubmit_hit", 400, 24);
    let mut config = Config::new(&dir);
    config.journal_dir = Some(dir.join("journal"));
    let server = Server::start(config).unwrap();
    let addr = server.addr();
    wait_ready(addr);
    for seed in 0..300u64 {
        let spec = format!(
            "{{\"store\":\"ba.fsg\",\"sampler\":\"single\",\"budget\":200,\
             \"seed\":{seed},\"estimator\":\"avg_degree\"}}"
        );
        let id = submit(addr, &spec).get("id").unwrap().as_u64().unwrap();
        let mut session = Session::connect(addr);
        session.send("GET", &format!("/v1/jobs/{id}/stream"), None);
        assert_eq!(session.read_stream_head(), 200);
        let mut last = None;
        while let Some(chunk) = session.read_chunk() {
            last = Some(chunk);
        }
        let last = parse(last.expect("stream had no lines").trim_end());
        assert_eq!(last.get("phase").unwrap().as_str().unwrap(), "done");

        let hit_id = submit(addr, &spec).get("id").unwrap().as_u64().unwrap();
        let (_, view) = request(addr, "GET", &format!("/v1/jobs/{hit_id}"), None);
        assert_eq!(
            parse(&view).get("cached").unwrap().as_bool(),
            Some(true),
            "seed {seed}: resubmit after the terminal line missed the cache"
        );
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_hit_is_byte_identical_and_counted() {
    let dir = store_dir("cache_bytes", 1_500, 23);
    let server = Server::start(Config::new(&dir)).unwrap();
    let addr = server.addr();
    let spec = "{\"store\":\"ba.fsg\",\"sampler\":\"fs\",\"m\":16,\"budget\":120000,\
                \"seed\":77,\"estimator\":\"degree_dist\"}";

    let cold_id = submit(addr, spec).get("id").unwrap().as_u64().unwrap();
    wait_terminal(addr, cold_id);
    let (_, cold_body) = request(addr, "GET", &format!("/v1/jobs/{cold_id}"), None);
    assert_eq!(
        parse(&cold_body).get("cached").unwrap().as_bool(),
        Some(false)
    );

    let hit = submit(addr, spec);
    assert_eq!(hit.get("phase").unwrap().as_str().unwrap(), "done");
    let hit_id = hit.get("id").unwrap().as_u64().unwrap();
    let (_, hit_body) = request(addr, "GET", &format!("/v1/jobs/{hit_id}"), None);
    let hit_doc = parse(&hit_body);
    assert_eq!(hit_doc.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(
        estimate_bytes(&cold_body),
        estimate_bytes(&hit_body),
        "cached estimate payload must be byte-identical"
    );
    assert_eq!(
        parse(&cold_body).get("steps_done").unwrap().as_u64(),
        hit_doc.get("steps_done").unwrap().as_u64()
    );

    // A different seed is a different key: misses, then caches.
    let other = spec.replace("\"seed\":77", "\"seed\":78");
    let miss = submit(addr, &other);
    let miss_id = miss.get("id").unwrap().as_u64().unwrap();
    let done = wait_terminal(addr, miss_id);
    assert_eq!(done.get("cached").unwrap().as_bool(), Some(false));

    let (_, health) = request(addr, "GET", "/healthz", None);
    let cache = parse(&health);
    let cache = cache.get("cache").unwrap();
    assert!(cache.get("hits").unwrap().as_u64().unwrap() >= 1);
    assert!(cache.get("misses").unwrap().as_u64().unwrap() >= 2);
    assert!(cache.get("entries").unwrap().as_u64().unwrap() >= 2);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replayed_pooled_multiple_rw_result_stays_out_of_the_cache() {
    // A journal written before pooled MultipleRW joined the sequential
    // stream holds a submit carrying a thread count (option tag 1) and a
    // done record with the old per-walker pool's estimate. Replay must
    // not serve it to a plain submit of the same spec, which computes
    // the sequential stream.
    use frontier_sampling::checkpoint::fnv1a64;
    use frontier_sampling::runner::{
        ChunkStatus, ChunkedRunner, EstimatorSpec, JobEstimator, SamplerSpec,
    };
    use frontier_sampling::CostModel;
    use fs_serve::journal::{DurabilityStats, Journal};
    use fs_serve::JobPhase;
    use std::io::Write;

    let dir = store_dir("replay_pooled_mrw", 2_000, 27);
    let store_path = dir.join("ba.fsg");
    let graph = fs_store::MmapGraph::open(&store_path).unwrap();
    let digest = fs_store::file_digest(&store_path).unwrap();
    let (budget, seed) = (30_000.0, 31u64);
    let sampler = SamplerSpec::Multiple { m: 8 };
    let estimator = EstimatorSpec::AverageDegree;
    let run = |seed: u64| {
        let mut est = JobEstimator::new(estimator, &sampler).unwrap();
        let mut runner = ChunkedRunner::new(&sampler, &graph, &CostModel::unit(), budget, seed);
        while runner.run_chunk(usize::MAX, |s| est.observe(&graph, s)) == ChunkStatus::InProgress {}
        est.snapshot()
    };
    // Any estimate but the sequential one stands in for the retired
    // stream's.
    let retired = run(seed + 1);
    let sequential = run(seed);
    assert_ne!(retired, sequential, "the two estimates must differ");

    let journal_dir = dir.join("journal");
    {
        let (journal, _) = Journal::open(
            &journal_dir,
            std::sync::Arc::new(DurabilityStats::default()),
        )
        .unwrap();
        journal.terminal(5, JobPhase::Done, None, 29_992, Some(&retired));
    }
    // The legacy submit, framed by hand from the documented `jobs.fsjl`
    // layout (replay aggregates per id, so it may follow the terminal).
    let mut payload = Vec::new();
    let put_bytes = |payload: &mut Vec<u8>, b: &[u8]| {
        payload.extend_from_slice(&(b.len() as u64).to_le_bytes());
        payload.extend_from_slice(b);
    };
    payload.extend_from_slice(&5u64.to_le_bytes());
    put_bytes(&mut payload, b"ba.fsg");
    payload.extend_from_slice(&digest.to_le_bytes());
    put_bytes(&mut payload, b"multiple");
    payload.extend_from_slice(&8u64.to_le_bytes());
    payload.extend_from_slice(&0f64.to_le_bytes());
    payload.extend_from_slice(&budget.to_le_bytes());
    payload.extend_from_slice(&seed.to_le_bytes());
    put_bytes(&mut payload, b"avg_degree");
    payload.push(1);
    payload.extend_from_slice(&4u64.to_le_bytes());
    let mut frame = vec![1u8];
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    let sum = fnv1a64(&frame);
    frame.extend_from_slice(&sum.to_le_bytes());
    std::fs::OpenOptions::new()
        .append(true)
        .open(journal_dir.join("jobs.fsjl"))
        .unwrap()
        .write_all(&frame)
        .unwrap();

    let mut config = Config::new(&dir);
    config.journal_dir = Some(dir.join("journal"));
    let server = Server::start(config).unwrap();
    let addr = server.addr();
    wait_ready(addr);
    // The legacy record replayed: job 5 is back with its estimate.
    let replayed = wait_terminal(addr, 5);
    assert_eq!(replayed.get("phase").unwrap().as_str(), Some("done"));
    assert_eq!(
        replayed
            .get("estimate")
            .and_then(|e| e.get("scalar"))
            .and_then(|v| v.as_f64())
            .map(f64::to_bits),
        retired.scalar.map(f64::to_bits)
    );

    let plain = format!(
        "{{\"store\":\"ba.fsg\",\"sampler\":\"multiple\",\"m\":8,\"budget\":{budget},\
         \"seed\":{seed},\"estimator\":\"avg_degree\"}}"
    );
    let id = submit(addr, &plain).get("id").unwrap().as_u64().unwrap();
    let doc = wait_terminal(addr, id);
    assert_eq!(doc.get("phase").unwrap().as_str(), Some("done"));
    assert_eq!(doc.get("cached").unwrap().as_bool(), Some(false));
    let wire = doc.get("estimate").unwrap();
    assert_eq!(
        wire.get("num_observed").unwrap().as_u64(),
        Some(sequential.num_observed)
    );
    assert_eq!(
        wire.get("scalar")
            .and_then(|v| v.as_f64())
            .map(f64::to_bits),
        sequential.scalar.map(f64::to_bits),
        "plain MultipleRW must equal the sequential library call"
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_eviction_does_not_unmap_streaming_job() {
    use rand::SeedableRng;
    let dir = store_dir("evict_pin", 2_000, 24);
    // A second store so the single-slot registry must evict.
    let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
    let g = fs_gen::barabasi_albert(500, 3, &mut rng);
    fs_store::write_store(&g, dir.join("other.fsg")).unwrap();

    let mut config = Config::new(&dir);
    config.store_capacity = 1;
    let server = Server::start(config).unwrap();
    let addr = server.addr();

    // A long job pins ba.fsg through its Arc; stream it.
    let long = "{\"store\":\"ba.fsg\",\"sampler\":\"fs\",\"m\":8,\"budget\":8000000,\
                \"seed\":4,\"estimator\":\"avg_degree\"}";
    let id = submit(addr, long).get("id").unwrap().as_u64().unwrap();
    let mut session = Session::connect(addr);
    session.send("GET", &format!("/v1/jobs/{id}/stream"), None);
    assert_eq!(session.read_stream_head(), 200);

    // Working the other store evicts ba.fsg from the one-slot registry
    // while the streaming job is mid-flight.
    let other = "{\"store\":\"other.fsg\",\"sampler\":\"single\",\"budget\":20000,\
                 \"seed\":5,\"estimator\":\"avg_degree\"}";
    let other_id = submit(addr, other).get("id").unwrap().as_u64().unwrap();
    assert_eq!(
        wait_terminal(addr, other_id)
            .get("phase")
            .unwrap()
            .as_str()
            .unwrap(),
        "done"
    );

    // The evicted job's mapping stays alive (Arc-pinned): the stream
    // runs to a successful terminal snapshot, never `failed`.
    let mut last = None;
    while let Some(chunk) = session.read_chunk() {
        last = Some(parse(chunk.trim_end()));
    }
    let last = last.expect("stream produced no lines");
    assert_eq!(
        last.get("phase").unwrap().as_str().unwrap(),
        "done",
        "streaming job died under store eviction: {}",
        last.encode()
    );
    assert!(!matches!(last.get("estimate"), None | Some(Json::Null)));
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rewritten_store_digest_invalidates_cached_results() {
    use rand::SeedableRng;
    let dir = store_dir("rewrite_digest", 800, 25);
    let server = Server::start(Config::new(&dir)).unwrap();
    let addr = server.addr();
    let spec = "{\"store\":\"ba.fsg\",\"sampler\":\"fs\",\"m\":8,\"budget\":60000,\
                \"seed\":11,\"estimator\":\"avg_degree\"}";

    let first_id = submit(addr, spec).get("id").unwrap().as_u64().unwrap();
    wait_terminal(addr, first_id);
    let (_, first_body) = request(addr, "GET", &format!("/v1/jobs/{first_id}"), None);
    let first_digest = parse(&first_body)
        .get("store_digest")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();

    // Rewrite the store file in place with a different graph: the
    // digest changes, so the identical spec MUST miss the cache and
    // recompute — serving the old bytes would be silently wrong.
    let mut rng = rand::rngs::SmallRng::seed_from_u64(4242);
    let g = fs_gen::barabasi_albert(800, 4, &mut rng);
    fs_store::write_store(&g, dir.join("ba.fsg")).unwrap();

    let second_id = submit(addr, spec).get("id").unwrap().as_u64().unwrap();
    assert_ne!(second_id, first_id);
    let done = wait_terminal(addr, second_id);
    assert_eq!(done.get("phase").unwrap().as_str().unwrap(), "done");
    assert_eq!(
        done.get("cached").unwrap().as_bool(),
        Some(false),
        "stale cache served across a store rewrite"
    );
    let (_, second_body) = request(addr, "GET", &format!("/v1/jobs/{second_id}"), None);
    let second_digest = parse(&second_body)
        .get("store_digest")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    assert_ne!(first_digest, second_digest, "rewrite did not change digest");

    // The recomputed result is cached under the NEW digest.
    let third = submit(addr, spec);
    assert_eq!(third.get("phase").unwrap().as_str().unwrap(), "done");
    let third_id = third.get("id").unwrap().as_u64().unwrap();
    let (_, third_body) = request(addr, "GET", &format!("/v1/jobs/{third_id}"), None);
    let third_doc = parse(&third_body);
    assert_eq!(third_doc.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(
        third_doc.get("store_digest").unwrap().as_str().unwrap(),
        second_digest
    );
    assert_eq!(estimate_bytes(&second_body), estimate_bytes(&third_body));
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn result_cache_eviction_races_streaming_and_stays_deterministic() {
    let dir = store_dir("cache_churn", 1_200, 26);
    let mut config = Config::new(&dir);
    config.cache_entries = 1; // every insert evicts the previous entry
    let server = Server::start(config).unwrap();
    let addr = server.addr();

    let streamed = "{\"store\":\"ba.fsg\",\"sampler\":\"fs\",\"m\":8,\"budget\":4000000,\
                    \"seed\":30,\"estimator\":\"avg_degree\"}";
    let id = submit(addr, streamed).get("id").unwrap().as_u64().unwrap();
    let mut session = Session::connect(addr);
    session.send("GET", &format!("/v1/jobs/{id}/stream"), None);
    assert_eq!(session.read_stream_head(), 200);

    // Churn the one-entry cache while the stream is in flight.
    for seed in 31..35 {
        let quick = format!(
            "{{\"store\":\"ba.fsg\",\"sampler\":\"fs\",\"m\":4,\"budget\":20000,\
             \"seed\":{seed},\"estimator\":\"avg_degree\"}}"
        );
        let qid = submit(addr, &quick).get("id").unwrap().as_u64().unwrap();
        wait_terminal(addr, qid);
    }

    let mut last = None;
    while let Some(chunk) = session.read_chunk() {
        last = Some(parse(chunk.trim_end()));
    }
    let last = last.expect("stream produced no lines");
    assert_eq!(last.get("phase").unwrap().as_str().unwrap(), "done");
    let (_, final_body) = request(addr, "GET", &format!("/v1/jobs/{id}"), None);

    // Whether or not the churn evicted this job's entry, a resubmit is
    // byte-identical — cache hits replay stored bytes, misses
    // recompute them deterministically.
    let again = submit(addr, streamed);
    let again_id = again.get("id").unwrap().as_u64().unwrap();
    wait_terminal(addr, again_id);
    let (_, again_body) = request(addr, "GET", &format!("/v1/jobs/{again_id}"), None);
    assert_eq!(estimate_bytes(&final_body), estimate_bytes(&again_body));

    let (_, health) = request(addr, "GET", "/healthz", None);
    let health = parse(&health);
    let evictions = health
        .get("cache")
        .unwrap()
        .get("evictions")
        .unwrap()
        .as_u64()
        .unwrap();
    assert!(
        evictions >= 3,
        "one-entry cache must have evicted: {evictions}"
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
