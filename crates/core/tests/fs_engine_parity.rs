//! One FS stream, two engines: the heap-merged
//! `DistributedFs::sample_edges_seeded` (the engine-independent bit
//! reference) and the chunked runner (driving the windowed engine) must
//! emit the same sample stream and spend the same budget for the same
//! seed.

use frontier_sampling::runner::{ChunkStatus, ChunkedRunner, Sample, SamplerSpec};
use frontier_sampling::{Budget, CostModel, DistributedFs};
use fs_graph::Graph;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The `chunked_runner` suite's fixture.
fn ba_fixture() -> Graph {
    let mut rng = SmallRng::seed_from_u64(0xF00D);
    fs_gen::barabasi_albert(300, 3, &mut rng)
}

/// Two BA components of different sizes: walkers never cross.
fn two_components() -> Graph {
    let mut rng = SmallRng::seed_from_u64(0x2C0);
    let a = fs_gen::barabasi_albert(120, 2, &mut rng);
    let b = fs_gen::barabasi_albert(60, 4, &mut rng);
    fs_gen::disjoint_union(&[&a, &b])
}

/// Several windows (a window holds at most ~4.5k events).
const BUDGET: f64 = 20_000.0;

fn distributed(g: &Graph, m: usize, seed: u64) -> (Vec<Sample>, f64) {
    let mut budget = Budget::new(BUDGET);
    let mut out = Vec::new();
    DistributedFs::new(m).sample_edges_seeded(g, &CostModel::unit(), &mut budget, seed, |e| {
        out.push(Sample::Edge(e))
    });
    (out, budget.spent())
}

fn runner(g: &Graph, m: usize, seed: u64) -> (Vec<Sample>, f64) {
    let spec = SamplerSpec::Frontier { m };
    let mut run = ChunkedRunner::new(&spec, g, &CostModel::unit(), BUDGET, seed);
    let mut out = Vec::new();
    while run.run_chunk(64, |s| out.push(s)) == ChunkStatus::InProgress {}
    (out, run.budget_spent())
}

#[test]
fn distributed_and_runner_emit_one_stream() {
    for (name, g) in [("ba", ba_fixture()), ("two components", two_components())] {
        for m in [1usize, 6, 40] {
            let seed = 0xD15 + m as u64;
            let reference = distributed(&g, m, seed);
            assert!(!reference.0.is_empty(), "{name} m={m}: empty reference");
            assert_eq!(runner(&g, m, seed), reference, "{name} m={m}: runner");
        }
    }
}
