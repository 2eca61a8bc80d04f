//! The durability contract: pausing a [`ChunkedRunner`] (and its
//! [`JobEstimator`]) at **any** chunk boundary via
//! `serialize`/`resume` continues the run bit-identically to never
//! having paused — same sample stream, same budget accounting, same
//! final estimate down to the last f64 bit, for all six samplers. And
//! the corruption discipline: a flipped byte or truncated checkpoint
//! must fail loudly at `resume`, never rebuild a silently wrong state
//! machine.

use frontier_sampling::runner::{
    ChunkStatus, ChunkedRunner, EstimateSnapshot, EstimatorSpec, JobEstimator, Sample, SamplerSpec,
};
use frontier_sampling::CostModel;
use fs_graph::Graph;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn fixture() -> Graph {
    let mut rng = SmallRng::seed_from_u64(0xBEEF);
    fs_gen::barabasi_albert(250, 3, &mut rng)
}

fn all_specs() -> Vec<SamplerSpec> {
    vec![
        SamplerSpec::Frontier { m: 5 },
        SamplerSpec::Single,
        SamplerSpec::Multiple { m: 4 },
        SamplerSpec::Mhrw,
        SamplerSpec::Nbrw,
        SamplerSpec::Rwj { alpha: 2.0 },
    ]
}

/// Estimators each sampler's stream supports, in checkpoint-worthy
/// variety (every `EstState` variant is covered across the six).
fn supported_estimators(spec: &SamplerSpec) -> Vec<EstimatorSpec> {
    if spec.emits_vertices() {
        vec![
            EstimatorSpec::AverageDegree,
            EstimatorSpec::DegreeDist,
            EstimatorSpec::Ccdf,
        ]
    } else {
        vec![
            EstimatorSpec::AverageDegree,
            EstimatorSpec::DegreeDist,
            EstimatorSpec::Ccdf,
            EstimatorSpec::Assortativity,
            EstimatorSpec::Clustering,
            EstimatorSpec::PopulationSize,
        ]
    }
}

/// Exact-bits view of a snapshot, so comparisons catch any f64 drift.
fn snapshot_bits(s: &EstimateSnapshot) -> (u64, Option<u64>, Option<Vec<u64>>) {
    (
        s.num_observed,
        s.scalar.map(f64::to_bits),
        s.vector
            .as_ref()
            .map(|v| v.iter().map(|x| x.to_bits()).collect()),
    )
}

struct RunResult {
    samples: Vec<Sample>,
    snapshot: (u64, Option<u64>, Option<Vec<u64>>),
    budget_spent: u64,
    steps_done: u64,
}

/// Runs to completion with no pause.
fn uninterrupted(
    g: &Graph,
    spec: &SamplerSpec,
    est: EstimatorSpec,
    budget: f64,
    seed: u64,
    chunk: usize,
) -> RunResult {
    let mut runner = ChunkedRunner::new(spec, g, &CostModel::unit(), budget, seed);
    let mut estimator = JobEstimator::new(est, spec).expect("supported pairing");
    let mut samples = Vec::new();
    while runner.run_chunk(chunk, |s| {
        estimator.observe(g, s);
        samples.push(s);
    }) == ChunkStatus::InProgress
    {}
    RunResult {
        samples,
        snapshot: snapshot_bits(&estimator.snapshot()),
        budget_spent: runner.budget_spent().to_bits(),
        steps_done: runner.steps_done(),
    }
}

/// Runs `pause_after` chunks, serializes runner + estimator, resumes
/// from the bytes alone, and completes.
fn paused_and_resumed(
    g: &Graph,
    spec: &SamplerSpec,
    est: EstimatorSpec,
    budget: f64,
    seed: u64,
    chunk: usize,
    pause_after: usize,
) -> RunResult {
    let mut runner = ChunkedRunner::new(spec, g, &CostModel::unit(), budget, seed);
    let mut estimator = JobEstimator::new(est, spec).expect("supported pairing");
    let mut samples = Vec::new();
    let mut paused = false;
    for _ in 0..pause_after {
        if runner.run_chunk(chunk, |s| {
            estimator.observe(g, s);
            samples.push(s);
        }) == ChunkStatus::Finished
        {
            paused = true; // finished before the pause point: nothing to resume
            break;
        }
    }
    if !paused {
        let runner_bytes = runner.serialize();
        let est_bytes = estimator.serialize();
        drop(runner);
        drop(estimator);
        let mut runner = ChunkedRunner::resume(spec, g, &runner_bytes).expect("resume runner");
        let mut estimator = JobEstimator::resume(est, spec, &est_bytes).expect("resume estimator");
        // A checkpoint of the resumed runner must be byte-identical to
        // the one it was built from (serialize ∘ resume = id).
        assert_eq!(
            runner.serialize(),
            runner_bytes,
            "runner round-trip drifted"
        );
        assert_eq!(
            estimator.serialize(),
            est_bytes,
            "estimator round-trip drifted"
        );
        while runner.run_chunk(chunk, |s| {
            estimator.observe(g, s);
            samples.push(s);
        }) == ChunkStatus::InProgress
        {}
        return RunResult {
            samples,
            snapshot: snapshot_bits(&estimator.snapshot()),
            budget_spent: runner.budget_spent().to_bits(),
            steps_done: runner.steps_done(),
        };
    }
    RunResult {
        samples,
        snapshot: snapshot_bits(&estimator.snapshot()),
        budget_spent: runner.budget_spent().to_bits(),
        steps_done: runner.steps_done(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Serialize-at-a-random-chunk-boundary then resume == never
    /// paused, for every sampler and a rotating estimator.
    #[test]
    fn resume_is_bit_identical_to_uninterrupted(
        seed in 0u64..10_000,
        budget in 60u32..400,
        chunk in 1usize..64,
        pause_after in 1usize..40,
        est_pick in 0usize..6,
    ) {
        let g = fixture();
        for spec in all_specs() {
            let ests = supported_estimators(&spec);
            let est = ests[est_pick % ests.len()];
            let straight = uninterrupted(&g, &spec, est, budget as f64, seed, chunk);
            let resumed =
                paused_and_resumed(&g, &spec, est, budget as f64, seed, chunk, pause_after);
            prop_assert_eq!(
                &resumed.samples, &straight.samples,
                "sample stream diverged for {} after pause", spec.label()
            );
            prop_assert_eq!(
                &resumed.snapshot, &straight.snapshot,
                "final estimate diverged for {} / {}", spec.label(), est.name()
            );
            prop_assert_eq!(resumed.budget_spent, straight.budget_spent);
            prop_assert_eq!(resumed.steps_done, straight.steps_done);
        }
    }

    /// Any single flipped byte in a runner or estimator checkpoint is
    /// rejected by `resume` — corruption can never resume wrong.
    #[test]
    fn corrupted_checkpoints_fail_loudly(
        seed in 0u64..10_000,
        pause_after in 1usize..20,
        corrupt_seed in 0u64..1_000_000,
    ) {
        let g = fixture();
        let mut corrupt_rng = SmallRng::seed_from_u64(corrupt_seed);
        for spec in all_specs() {
            let est = supported_estimators(&spec)[0];
            let mut runner = ChunkedRunner::new(&spec, &g, &CostModel::unit(), 300.0, seed);
            let mut estimator = JobEstimator::new(est, &spec).unwrap();
            for _ in 0..pause_after {
                if runner.run_chunk(16, |s| estimator.observe(&g, s)) == ChunkStatus::Finished {
                    break;
                }
            }
            for bytes in [runner.serialize(), estimator.serialize()] {
                // Random single-byte flip.
                let mut flipped = bytes.clone();
                let i = corrupt_rng.gen_range(0..flipped.len());
                let bit = corrupt_rng.gen_range(0..8u32);
                flipped[i] ^= 1 << bit;
                prop_assert!(
                    ChunkedRunner::resume(&spec, &g, &flipped).is_err(),
                    "byte flip at {} resumed a runner for {}", i, spec.label()
                );
                prop_assert!(
                    JobEstimator::resume(est, &spec, &flipped).is_err(),
                    "byte flip at {} resumed an estimator for {}", i, spec.label()
                );
                // Random truncation (strictly shorter than the blob).
                let keep = corrupt_rng.gen_range(0..bytes.len());
                prop_assert!(
                    ChunkedRunner::resume(&spec, &g, &bytes[..keep]).is_err(),
                    "truncation to {} resumed a runner for {}", keep, spec.label()
                );
                prop_assert!(
                    JobEstimator::resume(est, &spec, &bytes[..keep]).is_err(),
                    "truncation to {} resumed an estimator for {}", keep, spec.label()
                );
            }
        }
    }
}

/// Cross-wiring checkpoints must be rejected: a runner blob is not an
/// estimator blob, a checkpoint for one sampler cannot resume another,
/// and an estimator checkpoint cannot switch reweighting.
#[test]
fn mismatched_checkpoints_are_rejected() {
    let g = fixture();
    let fs = SamplerSpec::Frontier { m: 3 };
    let single = SamplerSpec::Single;
    let mut runner = ChunkedRunner::new(&fs, &g, &CostModel::unit(), 200.0, 7);
    let mut estimator = JobEstimator::new(EstimatorSpec::AverageDegree, &fs).unwrap();
    runner.run_chunk(32, |s| estimator.observe(&g, s));
    let runner_bytes = runner.serialize();
    let est_bytes = estimator.serialize();

    // Wrong blob type.
    assert!(ChunkedRunner::resume(&fs, &g, &est_bytes).is_err());
    assert!(JobEstimator::resume(EstimatorSpec::AverageDegree, &fs, &runner_bytes).is_err());
    // Wrong sampler spec.
    assert!(ChunkedRunner::resume(&single, &g, &runner_bytes).is_err());
    assert!(ChunkedRunner::resume(&SamplerSpec::Frontier { m: 4 }, &g, &runner_bytes).is_err());
    // Wrong estimator spec, and a pairing whose state shape differs
    // (MHRW avg_degree is scalar accumulators, not the edge estimator).
    assert!(JobEstimator::resume(EstimatorSpec::Clustering, &fs, &est_bytes).is_err());
    assert!(
        JobEstimator::resume(EstimatorSpec::AverageDegree, &SamplerSpec::Mhrw, &est_bytes).is_err()
    );
    // Empty and garbage blobs.
    assert!(ChunkedRunner::resume(&fs, &g, &[]).is_err());
    assert!(ChunkedRunner::resume(&fs, &g, b"not a checkpoint at all").is_err());
}

/// A finished runner checkpoints and resumes too (the journal may
/// checkpoint right at completion); the resumed runner reports
/// finished without emitting anything further.
#[test]
fn finished_runner_round_trips() {
    let g = fixture();
    for spec in all_specs() {
        let mut runner = ChunkedRunner::new(&spec, &g, &CostModel::unit(), 80.0, 11);
        while runner.run_chunk(64, |_| {}) == ChunkStatus::InProgress {}
        let bytes = runner.serialize();
        let mut resumed = ChunkedRunner::resume(&spec, &g, &bytes).expect("resume finished");
        assert!(resumed.finished(), "{}", spec.label());
        assert_eq!(resumed.steps_done(), runner.steps_done());
        assert_eq!(
            resumed.budget_spent().to_bits(),
            runner.budget_spent().to_bits()
        );
        let mut emitted = 0usize;
        assert_eq!(
            resumed.run_chunk(100, |_| emitted += 1),
            ChunkStatus::Finished
        );
        assert_eq!(emitted, 0);
    }
}

/// FNV-1a 64-bit: a dependency-free fingerprint for the byte pins below.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Offset of the population estimator's visit-counter mode byte in an
/// FSEC blob: magic (4) ‖ version (4) ‖ spec tag (1) ‖ state tag (1) ‖
/// degree sum (8) ‖ inverse-degree sum (8).
const POP_MODE_OFFSET: usize = 26;

/// A `pop_size` FSEC blob built field by field: the layout journals
/// persist, written without going through the estimator.
fn population_blob(
    sums: (f64, f64),
    mode: u8,
    dense_len: u64,
    entries: &[(u64, u32)],
    collisions: u64,
    observed: u64,
) -> Vec<u8> {
    use frontier_sampling::checkpoint::Encoder;
    let mut enc = Encoder::with_header(*b"FSEC", 1);
    enc.put_u8(5); // EstimatorSpec::PopulationSize
    enc.put_u8(4); // edge population-size state
    enc.put_f64(sums.0);
    enc.put_f64(sums.1);
    enc.put_u8(mode);
    enc.put_u64(dense_len);
    enc.put_u64(entries.len() as u64);
    for &(i, c) in entries {
        enc.put_u64(i);
        enc.put_u32(c);
    }
    enc.put_u64(collisions);
    enc.put_u64(observed);
    enc.finish()
}

fn edge(s: usize, t: usize) -> Sample {
    Sample::Edge(fs_graph::Arc {
        source: fs_graph::VertexId::new(s),
        target: fs_graph::VertexId::new(t),
    })
}

/// The `pop_size` estimator checkpoint is what the job journal
/// persists, so its bytes must not move with the in-memory counter:
/// (length, FNV-1a-64) of FSEC blobs after a seeded FS run on the
/// BA(250) fixture, mid-run and at the end. The universe is small, so
/// both are dense-mode (mode 1) blobs.
#[test]
fn population_checkpoint_bytes_are_stable() {
    let g = fixture();
    let spec = SamplerSpec::Frontier { m: 5 };
    let mut runner = ChunkedRunner::new(&spec, &g, &CostModel::unit(), 600.0, 42);
    let mut estimator = JobEstimator::new(EstimatorSpec::PopulationSize, &spec).unwrap();
    for _ in 0..3 {
        assert_eq!(
            runner.run_chunk(64, |s| estimator.observe(&g, s)),
            ChunkStatus::InProgress
        );
    }
    let mid = estimator.serialize();
    while runner.run_chunk(64, |s| estimator.observe(&g, s)) == ChunkStatus::InProgress {}
    let end = estimator.serialize();
    assert_eq!(mid[POP_MODE_OFFSET], 1, "dense-mode blob expected");
    assert_eq!(end[POP_MODE_OFFSET], 1, "dense-mode blob expected");
    let got = [(mid.len(), fnv1a64(&mid)), (end.len(), fnv1a64(&end))];
    assert_eq!(
        got,
        [(1303, 0xd888_e18b_a9c9_2c14), (2287, 0xd8b5_6be3_9187_ee84)]
    );
}

/// A sparse-mode (mode 2) blob — the layout a universe above 2^24
/// writes — resumes, re-serializes to the same bytes, and keeps
/// counting: observing a vertex already seen `c` times adds `c`
/// colliding pairs. Its ids may exceed the live graph's universe.
#[test]
fn sparse_mode_population_blob_resumes_byte_identically() {
    let g = fixture();
    let spec = SamplerSpec::Frontier { m: 5 };
    let entries = [(7u64, 3u32), (40, 1), (20_000_000, 2), (4_000_000_000, 1)];
    let blob = population_blob((21.0, 2.5), 2, 0, &entries, 4, 7);
    let mut est = JobEstimator::resume(EstimatorSpec::PopulationSize, &spec, &blob)
        .expect("mode-2 blob resumes");
    assert_eq!(est.serialize(), blob, "mode-2 round-trip drifted");

    let d7 = g.degree(fs_graph::VertexId::new(7)) as f64;
    est.observe(&g, edge(0, 7));
    let sums = (21.0 + d7, 2.5 + 1.0 / d7);
    let after = [(7u64, 4u32), (40, 1), (20_000_000, 2), (4_000_000_000, 1)];
    assert_eq!(
        est.serialize(),
        population_blob(sums, 2, 0, &after, 7, 8),
        "a sparse-mode counter keeps its mode and counts on"
    );
    let snap = est.snapshot();
    assert_eq!(snap.num_observed, 8);
    assert_eq!(
        snap.scalar.map(f64::to_bits),
        Some((sums.0 * sums.1 / 14.0).to_bits())
    );
}

/// A dense-mode (mode 1) blob records its universe length apart from
/// its entries: one whose `dense_len` exceeds its largest entry
/// round-trips as it is, an observed id past `dense_len` grows it to
/// that id + 1 (the universe may grow between observations), and an
/// entry at or past `dense_len` is rejected.
#[test]
fn dense_mode_population_blob_keeps_its_universe_length() {
    let g = fixture();
    let spec = SamplerSpec::Frontier { m: 5 };
    let entries = [(3u64, 2u32), (17, 1)];
    let blob = population_blob((9.0, 1.25), 1, 100, &entries, 1, 3);
    let mut est = JobEstimator::resume(EstimatorSpec::PopulationSize, &spec, &blob)
        .expect("mode-1 blob resumes");
    assert_eq!(est.serialize(), blob, "mode-1 round-trip drifted");

    let d3 = g.degree(fs_graph::VertexId::new(3)) as f64;
    let d200 = g.degree(fs_graph::VertexId::new(200)) as f64;
    est.observe(&g, edge(0, 3));
    est.observe(&g, edge(0, 200));
    let sums = (9.0 + d3 + d200, 1.25 + 1.0 / d3 + 1.0 / d200);
    let after = [(3u64, 3u32), (17, 1), (200, 1)];
    assert_eq!(est.serialize(), population_blob(sums, 1, 201, &after, 3, 5));

    let out_of_range = population_blob((9.0, 1.25), 1, 17, &entries, 1, 3);
    assert!(JobEstimator::resume(EstimatorSpec::PopulationSize, &spec, &out_of_range).is_err());
}

/// A resealed 27-byte FSEC blob — magic ‖ version ‖ degree_dist tag ‖
/// edge degree-distribution state ‖ degree kind ‖ a length of 2^28 − 1
/// weights ‖ checksum — holds no weights at all. Resume must refuse it
/// before sizing a vector from the forged length.
#[test]
fn forged_fsec_vector_length_is_refused() {
    use frontier_sampling::checkpoint::{CheckpointError, Encoder};
    let mut enc = Encoder::with_header(*b"FSEC", 1);
    enc.put_u8(1); // EstimatorSpec::DegreeDist
    enc.put_u8(1); // edge degree-distribution state
    enc.put_u8(0); // symmetric degrees
    enc.put_u64((1 << 28) - 1);
    let blob = enc.finish();
    assert_eq!(blob.len(), 27);
    let spec = SamplerSpec::Frontier { m: 4 };
    assert!(matches!(
        JobEstimator::resume(EstimatorSpec::DegreeDist, &spec, &blob),
        Err(CheckpointError::Truncated)
    ));
}

/// A resealed FSRC blob whose FS state claims 2^28 lanes (15 GiB of
/// lane state) and then ends. Resume must refuse it before sizing the
/// lane vector from the forged count.
#[test]
fn forged_fsrc_lane_count_is_refused() {
    use frontier_sampling::checkpoint::{CheckpointError, Encoder};
    let mut enc = Encoder::with_header(*b"FSRC", 1);
    enc.put_u8(0); // SamplerSpec::Frontier
    enc.put_u64(4); // m
    for word in [1u64, 2, 3, 4] {
        enc.put_u64(word); // base RNG state
    }
    enc.put_f64(1_000.0); // budget total
    enc.put_f64(4.0); // budget spent
    enc.put_f64(1.0); // step cost
    enc.put_u64(0); // steps done
    enc.put_u8(0); // not finished
    enc.put_u8(2); // FS window walk
    enc.put_u64(1 << 28); // lanes
    let blob = enc.finish();
    let g = fixture();
    let spec = SamplerSpec::Frontier { m: 4 };
    assert!(matches!(
        ChunkedRunner::resume(&spec, &g, &blob),
        Err(CheckpointError::Truncated)
    ));
}
