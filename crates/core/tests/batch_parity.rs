//! Batched-stepping parity: the lockstep SoA engine is a pure
//! performance transform. Every test here pins **bit-identical** output
//! (not merely golden-equivalent distributions): per-walker RNG streams
//! are pure functions of their seeds and the lockstep fill/apply phases
//! consume each lane's stream in exactly the sequential draw order, so
//! the runner's window schedule and chunk size must not move a single
//! bit of the result.
//!
//! Per-lane parity against the one-shot library step
//! (`walk::step_known`) is pinned by the `lockstep_matches_sequential_
//! step_known` unit test in `src/batch.rs`; this file pins the composed
//! engine against the heap-merged reference.

use frontier_sampling::runner::{ChunkStatus, ChunkedRunner, Sample, SamplerSpec};
use frontier_sampling::{Budget, CostModel, DistributedFs};
use fs_graph::Graph;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn fixture() -> Graph {
    let mut rng = SmallRng::seed_from_u64(0xBA7C4);
    fs_gen::barabasi_albert(400, 3, &mut rng)
}

#[test]
fn runner_fs_stream_is_bit_identical_to_the_reference_at_every_chunk_size() {
    // The chunked runner replays the per-walker event streams window by
    // window; the heap-merged reference fires one clock at a time. Chunk
    // boundaries cut windows anywhere, so every chunk size must give the
    // reference's stream and budget spend.
    let g = fixture();
    let spec = SamplerSpec::Frontier { m: 6 };
    for seed in [3u64, 57, 71, 0xC0FFEE] {
        let mut budget = Budget::new(900.0);
        let mut expect = Vec::new();
        DistributedFs::new(6).sample_edges_seeded(&g, &CostModel::unit(), &mut budget, seed, |e| {
            expect.push(Sample::Edge(e))
        });
        assert!(!expect.is_empty());
        for chunk in [1usize, 64, usize::MAX] {
            let mut runner = ChunkedRunner::new(&spec, &g, &CostModel::unit(), 900.0, seed);
            let mut got = Vec::new();
            while runner.run_chunk(chunk, |s| got.push(s)) == ChunkStatus::InProgress {}
            assert_eq!(
                got, expect,
                "runner vs reference at chunk {chunk}, seed {seed}"
            );
            assert_eq!(
                runner.budget_spent(),
                budget.spent(),
                "budget at chunk {chunk}"
            );
        }
    }
}
