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

/// Every (sampler, estimator) pair [`JobEstimator::new`] accepts over
/// [`all_specs`], in a fixed order: 4 edge samplers × 6 estimators plus
/// MHRW and RWJ × 3. Together they cover every FSEC state shape.
fn all_pairs() -> Vec<(SamplerSpec, EstimatorSpec)> {
    all_specs()
        .into_iter()
        .flat_map(|spec| {
            supported_estimators(&spec)
                .into_iter()
                .map(move |est| (spec.clone(), est))
        })
        .collect()
}

/// An FSEC blob of `(spec, est)` after three 64-attempt chunks of a
/// seeded run over the fixture: the journal's mid-run checkpoint.
fn mid_run_estimator_blob(spec: &SamplerSpec, est: EstimatorSpec) -> Vec<u8> {
    let g = fixture();
    let mut runner = ChunkedRunner::new(spec, &g, &CostModel::unit(), 600.0, 42);
    let mut estimator = JobEstimator::new(est, spec).expect("supported pairing");
    for _ in 0..3 {
        assert_eq!(
            runner.run_chunk(64, |s| estimator.observe(&g, s)),
            ChunkStatus::InProgress,
            "{} / {} finished early",
            spec.label(),
            est.name()
        );
    }
    estimator.serialize()
}

/// (length, FNV-1a-64) of every pair's mid-run FSEC blob, keyed by
/// wire names (fs m = 5, multiple m = 4, rwj α = 2). The journal
/// persists these bytes, so no estimator's layout may move.
#[test]
fn every_estimator_checkpoint_is_byte_stable() {
    let want: [(&str, &str, usize, u64); 30] = [
        ("fs", "avg_degree", 42, 0xd17f_8e94_6dc7_5a15),
        ("fs", "degree_dist", 387, 0x669e_1d93_055d_c3f1),
        ("fs", "ccdf", 387, 0x1aa7_042b_b469_d6fa),
        ("fs", "assortativity", 74, 0x8aad_af57_dedf_cd04),
        ("fs", "clustering", 42, 0xd56a_de48_4a26_0857),
        ("fs", "pop_size", 1303, 0xd888_e18b_a9c9_2c14),
        ("single", "avg_degree", 42, 0x7982_08fa_b350_459a),
        ("single", "degree_dist", 387, 0x1ea7_7a3c_62b6_907b),
        ("single", "ccdf", 387, 0xf267_1590_879f_a6d4),
        ("single", "assortativity", 74, 0x3a7d_a759_2e02_7e53),
        ("single", "clustering", 42, 0x2012_acc9_6ebf_0fd0),
        ("single", "pop_size", 1255, 0xaaf1_20d1_f94d_f2ea),
        ("multiple", "avg_degree", 42, 0x556e_6a4c_8e59_94ed),
        ("multiple", "degree_dist", 387, 0x6779_4b4a_08e2_36ae),
        ("multiple", "ccdf", 387, 0xb0a7_fb42_922f_4910),
        ("multiple", "assortativity", 74, 0xde64_551f_132b_06bd),
        ("multiple", "clustering", 42, 0x567a_0862_072b_093f),
        ("multiple", "pop_size", 1291, 0x0aba_202d_10de_e7e6),
        ("mhrw", "avg_degree", 34, 0x14cc_3eae_93e3_c859),
        ("mhrw", "degree_dist", 331, 0xf12d_41e5_257c_e3e9),
        ("mhrw", "ccdf", 331, 0x6a58_b304_9e29_90d3),
        ("nbrw", "avg_degree", 42, 0xbbed_5c87_e00c_8287),
        ("nbrw", "degree_dist", 387, 0xc4a6_8a6d_eb60_0bee),
        ("nbrw", "ccdf", 387, 0xed2e_0fb6_37db_be15),
        ("nbrw", "assortativity", 74, 0xa807_d728_d6ca_50ea),
        ("nbrw", "clustering", 42, 0x3728_811e_ebdc_6f88),
        ("nbrw", "pop_size", 1507, 0xa1fb_df12_c1cf_23a0),
        ("rwj", "avg_degree", 50, 0x02a4_a9e9_2ac3_8025),
        ("rwj", "degree_dist", 395, 0xce7f_69e9_a8ce_4833),
        ("rwj", "ccdf", 395, 0x28fe_2580_5d77_0101),
    ];
    let pairs = all_pairs();
    assert_eq!(pairs.len(), 30);
    for ((spec, est), (sampler, name, len, hash)) in pairs.iter().zip(want) {
        assert_eq!((spec.wire().0, est.name()), (sampler, name));
        let blob = mid_run_estimator_blob(spec, *est);
        assert_eq!(
            (blob.len(), fnv1a64(&blob)),
            (len, hash),
            "{sampler} / {name}"
        );
    }
}

/// An FSRC blob of `spec` after three 64-attempt chunks of the seeded
/// run [`mid_run_estimator_blob`] checkpoints.
fn mid_run_runner_blob(spec: &SamplerSpec) -> Vec<u8> {
    let g = fixture();
    let mut runner = ChunkedRunner::new(spec, &g, &CostModel::unit(), 600.0, 42);
    for _ in 0..3 {
        assert_eq!(runner.run_chunk(64, |_| {}), ChunkStatus::InProgress);
    }
    runner.serialize()
}

/// `blob` with `bytes` written at offset `at` and its FNV-1a-64 trailer
/// recomputed, so only the field checks can refuse it.
fn resealed(blob: &[u8], at: usize, bytes: &[u8]) -> Vec<u8> {
    let mut content = blob[..blob.len() - 8].to_vec();
    content[at..at + bytes.len()].copy_from_slice(bytes);
    let sum = fnv1a64(&content);
    content.extend_from_slice(&sum.to_le_bytes());
    content
}

/// FSRC offsets: magic (4) ‖ version (4) ‖ sampler tag (1), then `m` or
/// α (8) for fs, multiple and rwj ‖ RNG (32) ‖ budget total, spent and
/// step cost (24) ‖ steps done (8) ‖ finished (1) ‖ state tag.
const SPEC_PARAM_AT: usize = 9;
const SINGLE_STATE_TAG_AT: usize = 74;
const PARAM_STATE_TAG_AT: usize = 82;

/// Resealed runner blobs that contradict the resume spec: a walk of
/// another sampler, more FS lanes or MultipleRW starts than `m`, and an
/// RWJ walk whose own α differs from the spec's.
#[test]
fn runner_checkpoints_the_spec_contradicts_are_refused() {
    use frontier_sampling::checkpoint::CheckpointError;
    let g = fixture();
    let single = mid_run_runner_blob(&SamplerSpec::Single);
    assert_eq!(single[SINGLE_STATE_TAG_AT], 1, "SingleRW state tag");
    let fs = mid_run_runner_blob(&SamplerSpec::Frontier { m: 5 });
    let multiple = mid_run_runner_blob(&SamplerSpec::Multiple { m: 4 });
    let rwj = mid_run_runner_blob(&SamplerSpec::Rwj { alpha: 2.0 });
    let walk_alpha_at = PARAM_STATE_TAG_AT + 1;
    let cases = [
        (
            "an MHRW walk under single",
            SamplerSpec::Single,
            resealed(&single, SINGLE_STATE_TAG_AT, &[4]),
        ),
        (
            "5 FS lanes under m = 4",
            SamplerSpec::Frontier { m: 4 },
            resealed(&fs, SPEC_PARAM_AT, &[4]),
        ),
        (
            "4 MultipleRW starts under m = 3",
            SamplerSpec::Multiple { m: 3 },
            resealed(&multiple, SPEC_PARAM_AT, &[3]),
        ),
        (
            "an RWJ walk with α = 1 under α = 2",
            SamplerSpec::Rwj { alpha: 2.0 },
            resealed(&rwj, walk_alpha_at, &1.0f64.to_le_bytes()),
        ),
    ];
    for (what, spec, blob) in cases {
        assert!(
            matches!(
                ChunkedRunner::resume(&spec, &g, &blob),
                Err(CheckpointError::Malformed(_))
            ),
            "{what} resumed"
        );
    }
}

/// Estimator blobs whose configuration contradicts the resuming job: an
/// honest RWJ(α = 2) blob resumed under α = 1, and resealed
/// degree-distribution blobs whose degree kind is not the symmetric one
/// every job uses.
#[test]
fn estimator_checkpoints_the_job_contradicts_are_refused() {
    use frontier_sampling::checkpoint::CheckpointError;
    let rwj2 = SamplerSpec::Rwj { alpha: 2.0 };
    let rwj1 = SamplerSpec::Rwj { alpha: 1.0 };
    let mut cases = Vec::new();
    for est in supported_estimators(&rwj2) {
        let blob = mid_run_estimator_blob(&rwj2, est);
        cases.push((
            format!("rwj α = 2 {} under α = 1", est.name()),
            rwj1.clone(),
            est,
            blob,
        ));
    }
    // Degree kind offsets: after the two tags, and after RWJ's α.
    for (spec, kind_at) in [
        (SamplerSpec::Frontier { m: 5 }, 10),
        (SamplerSpec::Mhrw, 10),
        (rwj2.clone(), 18),
    ] {
        for est in [EstimatorSpec::DegreeDist, EstimatorSpec::Ccdf] {
            let blob = mid_run_estimator_blob(&spec, est);
            assert_eq!(blob[kind_at], 0, "symmetric degree kind");
            let what = format!("{} {} with in-degrees", spec.wire().0, est.name());
            cases.push((what, spec.clone(), est, resealed(&blob, kind_at, &[1])));
        }
    }
    for (what, spec, est, blob) in cases {
        assert!(
            matches!(
                JobEstimator::resume(est, &spec, &blob),
                Err(CheckpointError::Malformed(_))
            ),
            "{what} resumed"
        );
    }
}

/// FSEC accumulators hold sums of positive terms, so a NaN, infinite or
/// negative one cannot come from a run: resume refuses it rather than
/// serve `null`. Each case overwrites one f64 of a real mid-run blob
/// (offsets after magic, version and the two tags) and reseals it.
#[test]
fn non_finite_or_negative_accumulators_are_refused() {
    use frontier_sampling::checkpoint::CheckpointError;
    let fs = SamplerSpec::Frontier { m: 5 };
    let rwj = SamplerSpec::Rwj { alpha: 2.0 };
    // (sampler, estimator, accumulator, offset; negative = from the end)
    let cases: [(&SamplerSpec, EstimatorSpec, &str, isize); 14] = [
        (&fs, EstimatorSpec::AverageDegree, "inv_degree_sum", 10),
        (&fs, EstimatorSpec::AverageDegree, "degree_sum", 18),
        (&fs, EstimatorSpec::DegreeDist, "weighted[0]", 19),
        (&fs, EstimatorSpec::DegreeDist, "inv_degree_sum", -24),
        (&fs, EstimatorSpec::Assortativity, "moment n", 10),
        (&fs, EstimatorSpec::Assortativity, "moment sxy", 50),
        (&fs, EstimatorSpec::Clustering, "numerator", 10),
        (&fs, EstimatorSpec::Clustering, "denominator", 18),
        (&fs, EstimatorSpec::PopulationSize, "degree_sum", 10),
        (&fs, EstimatorSpec::PopulationSize, "inv_degree_sum", 18),
        (&SamplerSpec::Mhrw, EstimatorSpec::AverageDegree, "sum", 10),
        (&rwj, EstimatorSpec::AverageDegree, "weight_sum", 26),
        (&rwj, EstimatorSpec::DegreeDist, "weighted[0]", 27),
        (&rwj, EstimatorSpec::Ccdf, "weight_sum", -24),
    ];
    for (spec, est, field, at) in cases {
        let blob = mid_run_estimator_blob(spec, est);
        let at = if at < 0 {
            blob.len() - at.unsigned_abs()
        } else {
            at as usize
        };
        let honest = f64::from_le_bytes(blob[at..at + 8].try_into().unwrap());
        assert!(honest.is_finite() && honest >= 0.0, "{field} offset");
        let ok = resealed(&blob, at, &honest.to_le_bytes());
        assert!(JobEstimator::resume(est, spec, &ok).is_ok());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let what = format!("{} {} {field} = {bad}", spec.wire().0, est.name());
            let blob = resealed(&blob, at, &bad.to_le_bytes());
            assert!(
                matches!(
                    JobEstimator::resume(est, spec, &blob),
                    Err(CheckpointError::Malformed(_))
                ),
                "{what} resumed"
            );
        }
    }
}
