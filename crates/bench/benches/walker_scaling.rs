//! Replication throughput vs thread count for the chain scheduler.
//!
//! `cargo bench --bench walker_scaling`
//!
//! `ParallelWalkerPool::run_chains` runs independent replication chains
//! (the Monte-Carlo engine behind the experiments) concurrently with
//! *bit-identical* results at every thread count, so throughput should
//! rise with threads until the memory bus saturates. This bench records
//! steps/sec for 20 chains of 5k-step single walks on a 100k-vertex
//! Barabási–Albert graph at 1/2/4/8 threads, with the sequential
//! `FrontierSampler` (m = 100, the same step total) as the
//! single-threaded reference.
//!
//! On a single-core container every row collapses to the same rate and
//! only the (deliberately small) scheduling overhead separates them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use frontier_sampling::parallel::ParallelWalkerPool;
use frontier_sampling::{Budget, CostModel, FrontierSampler};
use fs_graph::Graph;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Total steps per iteration (the walkers share this budget).
const STEPS: usize = 100_000;
/// FS dimension (the paper's m = 100 regime at bench scale).
const M: usize = 100;

fn fixture() -> Graph {
    let mut rng = SmallRng::seed_from_u64(0x5CA1E);
    fs_gen::barabasi_albert(100_000, 5, &mut rng)
}

fn bench_walker_scaling(c: &mut Criterion) {
    let graph = fixture();
    let mut group = c.benchmark_group("walker_scaling");
    group.throughput(Throughput::Elements(STEPS as u64));
    group.sample_size(10);

    // Single-threaded reference: the sequential Algorithm 1 sampler.
    group.bench_function("fs_m100/sequential", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(7);
            let mut budget = Budget::new(STEPS as f64);
            let mut acc = 0usize;
            FrontierSampler::new(M).sample_edges(
                &graph,
                &CostModel::unit(),
                &mut budget,
                &mut rng,
                |e| acc += e.target.index(),
            );
            black_box(acc)
        })
    });

    for threads in [1usize, 2, 4, 8] {
        let pool = ParallelWalkerPool::with_threads(threads);
        // Across-run replication: 20 chains of 5k-step single walks.
        group.bench_with_input(
            BenchmarkId::new("replication_20x5k/pool", threads),
            &threads,
            |b, _| {
                b.iter(|| {
                    let out = pool.run_chains(20, 7, |_, seed| {
                        let mut rng = SmallRng::seed_from_u64(seed);
                        let mut budget = Budget::new((STEPS / 20) as f64);
                        let mut acc = 0usize;
                        frontier_sampling::SingleRw::new().sample_edges(
                            &graph,
                            &CostModel::unit(),
                            &mut budget,
                            &mut rng,
                            |e| acc += e.target.index(),
                        );
                        acc
                    });
                    black_box(out.len())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_walker_scaling);
criterion_main!(benches);
