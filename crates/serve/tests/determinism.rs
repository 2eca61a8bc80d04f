//! End-to-end determinism: a seeded estimation job submitted over HTTP
//! returns results **bit-identical** to the equivalent direct library
//! call, and an FS job to the engine-independent `DistributedFs`
//! reference. This is the acceptance
//! gate for the serving layer: floats cross the wire through the
//! shortest-round-trip JSON encoding, so comparisons are on exact
//! `f64::to_bits`, not epsilons.

mod common;

use common::{parse, request, store_dir, wait_terminal};
use frontier_sampling::runner::{
    ChunkStatus, ChunkedRunner, EstimateSnapshot, EstimatorSpec, JobEstimator, Sample, SamplerSpec,
};
use frontier_sampling::{Budget, CostModel, DistributedFs};
use fs_serve::{Config, Server};
use fs_store::MmapGraph;

/// The direct sequential library call: the chunked runner driven to
/// completion in one giant chunk (pinned bit-identical to the plain
/// `sample_edges`/`sample_vertices` calls by the core `chunked_runner`
/// test — this is the canonical "library path").
fn library_sequential(
    graph: &MmapGraph,
    sampler: &SamplerSpec,
    estimator: EstimatorSpec,
    budget: f64,
    seed: u64,
) -> EstimateSnapshot {
    let mut est = JobEstimator::new(estimator, sampler).unwrap();
    let mut runner = ChunkedRunner::new(sampler, graph, &CostModel::unit(), budget, seed);
    while runner.run_chunk(usize::MAX, |s| est.observe(graph, s)) == ChunkStatus::InProgress {}
    est.snapshot()
}

/// FS through the heap-merged Theorem 5.5 reference, an engine
/// independent of the windowed one every job runs.
fn library_distributed_fs(
    graph: &MmapGraph,
    m: usize,
    estimator: EstimatorSpec,
    budget: f64,
    seed: u64,
) -> EstimateSnapshot {
    let mut est = JobEstimator::new(estimator, &SamplerSpec::Frontier { m }).unwrap();
    let mut budget = Budget::new(budget);
    DistributedFs::new(m).sample_edges_seeded(graph, &CostModel::unit(), &mut budget, seed, |e| {
        est.observe(graph, Sample::Edge(e))
    });
    est.snapshot()
}

/// Reads the estimate object out of a final job document.
fn wire_estimate(doc: &fs_serve::Json) -> (u64, Option<f64>, Option<Vec<f64>>) {
    let est = doc.get("estimate").expect("estimate present");
    let num = est.get("num_observed").unwrap().as_u64().unwrap();
    let scalar = est.get("scalar").and_then(|v| v.as_f64());
    let vector = est.get("vector").and_then(|v| {
        v.as_arr()
            .map(|items| items.iter().map(|x| x.as_f64().unwrap()).collect())
    });
    (num, scalar, vector)
}

fn assert_bit_identical(
    label: &str,
    wire: (u64, Option<f64>, Option<Vec<f64>>),
    expect: &EstimateSnapshot,
) {
    assert_eq!(wire.0, expect.num_observed, "{label}: num_observed");
    assert_eq!(
        wire.1.map(f64::to_bits),
        expect.scalar.map(f64::to_bits),
        "{label}: scalar bits"
    );
    match (&wire.2, &expect.vector) {
        (None, None) => {}
        (Some(got), Some(want)) => {
            assert_eq!(got.len(), want.len(), "{label}: vector length");
            for (i, (g, w)) in got.iter().zip(want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "{label}: vector[{i}] bits");
            }
        }
        other => panic!("{label}: vector presence mismatch {other:?}"),
    }
}

fn submit(addr: std::net::SocketAddr, body: &str) -> u64 {
    let (status, text) = request(addr, "POST", "/v1/jobs", Some(body));
    assert_eq!(status, 202, "submit failed: {text}");
    parse(&text).get("id").unwrap().as_u64().unwrap()
}

#[test]
fn http_jobs_are_bit_identical_to_library_calls() {
    let dir = store_dir("determinism", 2_000, 0xD1CE);
    let graph = MmapGraph::open(dir.join("ba.fsg")).unwrap();
    let server = Server::start(Config::new(&dir)).unwrap();
    let addr = server.addr();

    let cases: &[(&str, SamplerSpec, &str, EstimatorSpec)] = &[
        (
            "fs",
            SamplerSpec::Frontier { m: 16 },
            "avg_degree",
            EstimatorSpec::AverageDegree,
        ),
        (
            "fs",
            SamplerSpec::Frontier { m: 16 },
            "degree_dist",
            EstimatorSpec::DegreeDist,
        ),
        ("single", SamplerSpec::Single, "ccdf", EstimatorSpec::Ccdf),
        (
            "multiple",
            SamplerSpec::Multiple { m: 8 },
            "pop_size",
            EstimatorSpec::PopulationSize,
        ),
        (
            "mhrw",
            SamplerSpec::Mhrw,
            "degree_dist",
            EstimatorSpec::DegreeDist,
        ),
        (
            "nbrw",
            SamplerSpec::Nbrw,
            "clustering",
            EstimatorSpec::Clustering,
        ),
        (
            "rwj",
            SamplerSpec::Rwj { alpha: 1.5 },
            "avg_degree",
            EstimatorSpec::AverageDegree,
        ),
    ];
    let budget = 30_000.0;
    let seed = 42u64;
    for (wire_name, sampler, est_name, estimator) in cases {
        let m = match sampler {
            SamplerSpec::Frontier { m } | SamplerSpec::Multiple { m } => *m,
            _ => 1,
        };
        let body = format!(
            "{{\"store\":\"ba.fsg\",\"sampler\":\"{wire_name}\",\"m\":{m},\"alpha\":1.5,\
             \"budget\":{budget},\"seed\":{seed},\"estimator\":\"{est_name}\"}}"
        );
        let id = submit(addr, &body);
        let doc = wait_terminal(addr, id);
        assert_eq!(
            doc.get("phase").unwrap().as_str().unwrap(),
            "done",
            "{wire_name}/{est_name}: {}",
            doc.encode()
        );
        let expect = library_sequential(&graph, sampler, *estimator, budget, seed);
        assert!(expect.num_observed > 0, "{wire_name}: library run empty");
        assert_bit_identical(
            &format!("{wire_name}/{est_name}"),
            wire_estimate(&doc),
            &expect,
        );
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fs_jobs_are_bit_identical_to_the_distributed_reference() {
    let dir = store_dir("det_distributed", 2_000, 0xB00);
    let graph = MmapGraph::open(dir.join("ba.fsg")).unwrap();
    let server = Server::start(Config::new(&dir)).unwrap();
    let addr = server.addr();
    let (m, budget, seed) = (16, 30_000.0, 7u64);
    for (est_name, estimator) in [
        ("avg_degree", EstimatorSpec::AverageDegree),
        ("degree_dist", EstimatorSpec::DegreeDist),
    ] {
        let body = format!(
            "{{\"store\":\"ba.fsg\",\"sampler\":\"fs\",\"m\":{m},\
             \"budget\":{budget},\"seed\":{seed},\"estimator\":\"{est_name}\"}}"
        );
        let id = submit(addr, &body);
        let doc = wait_terminal(addr, id);
        assert_eq!(doc.get("phase").unwrap().as_str().unwrap(), "done");
        let expect = library_distributed_fs(&graph, m, estimator, budget, seed);
        assert!(expect.num_observed > 0, "{est_name}: reference run empty");
        assert_bit_identical(&format!("fs/{est_name}"), wire_estimate(&doc), &expect);
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn partial_estimates_appear_before_completion() {
    let dir = store_dir("det_partial", 1_000, 0xAB);
    let server = Server::start(Config::new(&dir)).unwrap();
    let addr = server.addr();
    // Large budget so the job is observably in progress.
    let id = submit(
        addr,
        "{\"store\":\"ba.fsg\",\"sampler\":\"fs\",\"m\":8,\"budget\":30000000,\
         \"seed\":3,\"estimator\":\"avg_degree\"}",
    );
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let mut saw_partial = false;
    loop {
        let (status, body) = request(addr, "GET", &format!("/v1/jobs/{id}"), None);
        assert_eq!(status, 200);
        let doc = parse(&body);
        let phase = doc.get("phase").unwrap().as_str().unwrap();
        if phase == "running" {
            if let Some(est) = doc.get("estimate") {
                if est.get("scalar").and_then(|v| v.as_f64()).is_some() {
                    let progress = doc.get("progress").unwrap().as_f64().unwrap();
                    assert!((0.0..=1.0).contains(&progress));
                    assert!(!doc.get("final").unwrap().as_bool().unwrap());
                    saw_partial = true;
                    break;
                }
            }
        }
        if ["done", "failed", "cancelled"].contains(&phase) {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "no progress observed");
    }
    assert!(saw_partial, "job finished before any partial estimate");
    // Cancel the long job; it must terminate promptly.
    let (status, _) = request(addr, "DELETE", &format!("/v1/jobs/{id}"), None);
    assert_eq!(status, 200);
    let doc = wait_terminal(addr, id);
    assert_eq!(doc.get("phase").unwrap().as_str().unwrap(), "cancelled");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
