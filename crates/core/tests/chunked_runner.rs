//! The chunked runner's determinism contract: for every sampler and
//! every chunk size, a chunked run with seed `s` emits **bit-identical**
//! samples — and spends an identical budget — to the one-shot library
//! call with seed `s`. This is the property the serving layer's
//! "server result == library result" guarantee rests on.
//!
//! Each sampler is one step machine, and the one-shot call and the
//! runner are two drivers over it (for FS, the reference is the
//! heap-merged `DistributedFs` on the same per-walker streams). These
//! tests stay as the
//! regression check that the two drivers agree, and pin the bytes the
//! runner's checkpoint format writes.

use frontier_sampling::runner::{ChunkStatus, ChunkedRunner, Sample, SamplerSpec};
use frontier_sampling::{
    Budget, CostModel, DistributedFs, MetropolisHastingsRw, MultipleRw, NonBacktrackingRw,
    RandomWalkWithJumps, SingleRw,
};
use fs_graph::Graph;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn fixture() -> Graph {
    let mut rng = SmallRng::seed_from_u64(0xF00D);
    fs_gen::barabasi_albert(300, 3, &mut rng)
}

/// The one-shot library call a chunked run must replay, per sampler.
fn library_samples(
    spec: &SamplerSpec,
    g: &Graph,
    budget_units: f64,
    seed: u64,
) -> (Vec<Sample>, f64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut budget = Budget::new(budget_units);
    let cost = CostModel::unit();
    let mut out = Vec::new();
    match *spec {
        SamplerSpec::Frontier { m } => {
            // FS's reference is the exponential-clock process on
            // per-walker streams (Theorem 5.5), merged by a heap of
            // clocks; the runner replays the same (time, walker) stream
            // window by window. Re-pinned from the sequential shared-RNG
            // sampler when the runner moved to the batched engine — the
            // two are distribution-identical but factorize randomness
            // differently.
            DistributedFs::new(m)
                .sample_edges_seeded(g, &cost, &mut budget, seed, |e| out.push(Sample::Edge(e)));
        }
        SamplerSpec::Single => {
            SingleRw::new().sample_edges(g, &cost, &mut budget, &mut rng, |e| {
                out.push(Sample::Edge(e))
            });
        }
        SamplerSpec::Multiple { m } => {
            MultipleRw::new(m).sample_edges(g, &cost, &mut budget, &mut rng, |e| {
                out.push(Sample::Edge(e))
            });
        }
        SamplerSpec::Mhrw => {
            MetropolisHastingsRw::new().sample_vertices(g, &cost, &mut budget, &mut rng, |v| {
                out.push(Sample::Vertex(v))
            });
        }
        SamplerSpec::Nbrw => {
            NonBacktrackingRw::new().sample_edges(g, &cost, &mut budget, &mut rng, |e| {
                out.push(Sample::Edge(e))
            });
        }
        SamplerSpec::Rwj { alpha } => {
            RandomWalkWithJumps::new(alpha).sample_visits(g, &cost, &mut budget, &mut rng, |v| {
                out.push(Sample::Vertex(v))
            });
        }
    }
    (out, budget.spent())
}

fn chunked_samples(
    spec: &SamplerSpec,
    g: &Graph,
    budget_units: f64,
    seed: u64,
    chunk: usize,
) -> (Vec<Sample>, f64) {
    let mut runner = ChunkedRunner::new(spec, g, &CostModel::unit(), budget_units, seed);
    let mut out = Vec::new();
    let mut chunks = 0usize;
    while runner.run_chunk(chunk, |s| out.push(s)) == ChunkStatus::InProgress {
        chunks += 1;
        assert!(chunks < 10_000_000, "runner failed to terminate");
    }
    assert!(runner.finished());
    (out, runner.budget_spent())
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

#[test]
fn chunked_equals_one_shot_for_every_sampler_and_chunk_size() {
    let g = fixture();
    for spec in all_specs() {
        for seed in [1u64, 42, 0xFE5] {
            let (expect, expect_spent) = library_samples(&spec, &g, 700.0, seed);
            assert!(!expect.is_empty(), "{}: library run empty", spec.label());
            for chunk in [1usize, 7, 64, usize::MAX] {
                let (got, got_spent) = chunked_samples(&spec, &g, 700.0, seed, chunk);
                assert_eq!(
                    got,
                    expect,
                    "{} seed {seed} chunk {chunk}: sample stream diverged",
                    spec.label()
                );
                assert_eq!(
                    got_spent,
                    expect_spent,
                    "{} seed {seed} chunk {chunk}: budget spend diverged",
                    spec.label()
                );
            }
        }
    }
}

#[test]
fn chunked_runner_matches_on_disconnected_graph() {
    // Two components — the regime FS exists for; MultipleRW walkers can
    // stall in a tiny component, exercising the walker-advance path.
    let g = fs_graph::graph_from_undirected_pairs(
        8,
        [
            (0, 1),
            (1, 2),
            (0, 2),
            (2, 3),
            (4, 5),
            (5, 6),
            (6, 7),
            (4, 7),
        ],
    );
    for spec in all_specs() {
        let (expect, _) = library_samples(&spec, &g, 300.0, 11);
        for chunk in [1usize, 13] {
            let (got, _) = chunked_samples(&spec, &g, 300.0, 11, chunk);
            assert_eq!(got, expect, "{} chunk {chunk}", spec.label());
        }
    }
}

#[test]
fn budget_smaller_than_starts_finishes_clean() {
    let g = fixture();
    // m = 8 walkers, budget 5: start draws eat the whole budget.
    let spec = SamplerSpec::Frontier { m: 8 };
    let (expect, _) = library_samples(&spec, &g, 5.0, 3);
    assert!(expect.is_empty());
    let (got, _) = chunked_samples(&spec, &g, 5.0, 3, 4);
    assert_eq!(got, expect);
}

#[test]
fn isolated_start_universe_stalls_cleanly() {
    // Fixed-free sampler on a graph with isolated vertices: uniform
    // start redraws burn budget exactly like the library call.
    let g = fs_graph::graph_from_undirected_pairs(6, [(0, 1)]);
    for spec in [SamplerSpec::Single, SamplerSpec::Mhrw] {
        let (expect, expect_spent) = library_samples(&spec, &g, 50.0, 21);
        let (got, got_spent) = chunked_samples(&spec, &g, 50.0, 21, 3);
        assert_eq!(got, expect, "{}", spec.label());
        assert_eq!(got_spent, expect_spent);
    }
    // Same check for the walker that can land jumps on isolated ids.
    let spec = SamplerSpec::Rwj { alpha: 1.5 };
    let (expect, expect_spent) = library_samples(&spec, &g, 50.0, 21);
    let (got, got_spent) = chunked_samples(&spec, &g, 50.0, 21, 3);
    assert_eq!(got, expect);
    assert_eq!(got_spent, expect_spent);
}

#[test]
fn vertex_and_edge_streams_have_the_declared_kind() {
    let g = fixture();
    for spec in all_specs() {
        let (samples, _) = library_samples(&spec, &g, 120.0, 5);
        for s in &samples {
            match (spec.emits_vertices(), s) {
                (true, Sample::Vertex(_)) | (false, Sample::Edge(_)) => {}
                other => panic!("{}: unexpected sample kind {other:?}", spec.label()),
            }
        }
    }
}

/// FNV-1a 64-bit: a dependency-free fingerprint for the pins below.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn serialized_runner_bytes_are_stable() {
    // The FSRC checkpoint format is what journals persist, so a blob
    // written by one build must resume in the next. Each pin is the
    // (length, FNV-1a-64) of a runner serialized at a fixed chunk
    // boundary; a layout or draw-order change moves it.
    let g = fixture();
    let cost = CostModel::unit();
    let mid_run = |spec: &SamplerSpec| {
        let mut runner = ChunkedRunner::new(spec, &g, &cost, 700.0, 42);
        for _ in 0..3 {
            assert_eq!(
                runner.run_chunk(64, |_| {}),
                ChunkStatus::InProgress,
                "{}",
                spec.label()
            );
        }
        runner.serialize()
    };
    let mut blobs: Vec<(String, Vec<u8>)> = all_specs()
        .iter()
        .map(|spec| (spec.label(), mid_run(spec)))
        .collect();
    let drained = ChunkedRunner::new(&SamplerSpec::Single, &g, &cost, 0.0, 42);
    assert!(drained.finished());
    blobs.push(("drained".into(), drained.serialize()));
    let mut done = ChunkedRunner::new(&SamplerSpec::Multiple { m: 4 }, &g, &cost, 700.0, 42);
    while done.run_chunk(usize::MAX, |_| {}) == ChunkStatus::InProgress {}
    blobs.push(("finished".into(), done.serialize()));

    let got: Vec<(String, usize, u64)> = blobs
        .iter()
        .map(|(name, bytes)| (name.clone(), bytes.len(), fnv1a64(bytes)))
        .collect();
    let pinned: [(&str, usize, u64); 8] = [
        ("FS (m=5)", 50376, 0x937527598f20db51),
        ("SingleRW", 107, 0xa6fb2d74fffdd224),
        ("MultipleRW (m=4)", 179, 0xdea347b316edb1f5),
        ("MHRW", 107, 0xbcb1b823e5342d48),
        ("NBRW", 116, 0xc07179ded7a4afdf),
        ("RWJ (alpha=2)", 131, 0x227e2da20190e22e),
        ("drained", 83, 0x009eda953b9beaf9),
        ("finished", 179, 0x1dfb9dea83977718),
    ];
    let want: Vec<(String, usize, u64)> = pinned
        .iter()
        .map(|&(name, len, hash)| (name.to_string(), len, hash))
        .collect();
    assert_eq!(got, want);
}
