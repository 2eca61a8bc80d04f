//! Backend parity: the `GraphAccess` layer must be *behaviourally free*.
//!
//! A seeded sampler is a deterministic function of its RNG stream and
//! the backend's replies. Since `CsrAccess` and a fault-free
//! `CrawlAccess` answer every query identically and consume no
//! randomness of their own, every walker must produce bit-identical walk
//! traces and estimator outputs over either backend (and over a plain
//! `&Graph`, and under the `CachedAccess` decorator). These tests pin
//! that contract; the `access_overhead` bench pins the *performance*
//! half (monomorphization keeps the trait layer free).

use frontier_sampling::backend::{CachedAccess, CrawlAccess};
use frontier_sampling::estimators::{
    ClusteringEstimator, DegreeDistributionEstimator, EdgeEstimator,
};
use frontier_sampling::parallel::{stream_seed, ParallelWalkerPool};
use frontier_sampling::runner::{ChunkStatus, ChunkedRunner, Sample, SamplerSpec};
use frontier_sampling::{
    Budget, CostModel, DistributedFs, FrontierSampler, GraphAccess, MetropolisHastingsRw, SingleRw,
    StartPolicy,
};
use fs_graph::{CsrAccess, Graph, VertexId};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A loosely connected fixture: two communities bridged by one edge,
/// plus a pendant — enough structure for degree variety.
fn fixture() -> Graph {
    let mut rng = SmallRng::seed_from_u64(0xF1C);
    fs_gen::barabasi_albert(500, 3, &mut rng)
}

/// Runs `sampler` over `access` and returns (walk trace, θ̂ vector, Ĉ).
fn run_edges<A: GraphAccess>(
    access: &A,
    seed: u64,
    run: impl Fn(&A, &mut Budget, &mut SmallRng, &mut dyn FnMut(fs_graph::Arc)),
) -> (Vec<(usize, usize)>, Vec<f64>, Option<f64>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut budget = Budget::new(5_000.0);
    let mut trace = Vec::new();
    let mut deg = DegreeDistributionEstimator::symmetric();
    let mut clu = ClusteringEstimator::new();
    run(access, &mut budget, &mut rng, &mut |e| {
        trace.push((e.source.index(), e.target.index()));
        deg.observe(access, e);
        clu.observe(access, e);
    });
    (trace, deg.distribution(), clu.estimate())
}

#[test]
fn frontier_sampler_identical_over_csr_and_fault_free_crawl() {
    let g = fixture();
    let csr = CsrAccess::new(&g);
    let crawler = CrawlAccess::new(&g);
    let fs = FrontierSampler::new(8);
    let runner = |access: &_, budget: &mut Budget, rng: &mut SmallRng, sink: &mut dyn FnMut(_)| {
        fs.sample_edges(access, &CostModel::unit(), budget, rng, sink)
    };
    let a = run_edges(&csr, 7, runner);
    let runner = |access: &_, budget: &mut Budget, rng: &mut SmallRng, sink: &mut dyn FnMut(_)| {
        fs.sample_edges(access, &CostModel::unit(), budget, rng, sink)
    };
    let b = run_edges(&crawler, 7, runner);
    assert_eq!(a.0, b.0, "walk traces diverged");
    assert_eq!(a.1, b.1, "degree-distribution estimates diverged");
    assert_eq!(a.2, b.2, "clustering estimates diverged");
    assert_eq!(
        crawler.stats().neighbor_queries,
        b.0.len() as u64,
        "fault-free crawler answers exactly one query per sampled edge"
    );
}

#[test]
fn single_rw_identical_over_all_fault_free_backends() {
    let g = fixture();
    let sampler = SingleRw::new();
    let runner = |access: &_, budget: &mut Budget, rng: &mut SmallRng, sink: &mut dyn FnMut(_)| {
        sampler.sample_edges(access, &CostModel::unit(), budget, rng, sink)
    };
    let plain = run_edges(&&g, 11, runner);
    let runner = |access: &_, budget: &mut Budget, rng: &mut SmallRng, sink: &mut dyn FnMut(_)| {
        sampler.sample_edges(access, &CostModel::unit(), budget, rng, sink)
    };
    let csr = run_edges(&CsrAccess::new(&g), 11, runner);
    let runner = |access: &_, budget: &mut Budget, rng: &mut SmallRng, sink: &mut dyn FnMut(_)| {
        sampler.sample_edges(access, &CostModel::unit(), budget, rng, sink)
    };
    let crawl = run_edges(&CrawlAccess::new(&g), 11, runner);
    let runner = |access: &_, budget: &mut Budget, rng: &mut SmallRng, sink: &mut dyn FnMut(_)| {
        sampler.sample_edges(access, &CostModel::unit(), budget, rng, sink)
    };
    let cached = run_edges(&CachedAccess::new(&g, 64), 11, runner);
    assert_eq!(plain, csr);
    assert_eq!(plain, crawl);
    assert_eq!(plain, cached, "the cache decorator must not perturb walks");
}

#[test]
fn mhrw_identical_over_csr_and_fault_free_crawl() {
    let g = fixture();
    let run = |access: &dyn Fn(&mut SmallRng, &mut Vec<usize>)| {
        let mut rng = SmallRng::seed_from_u64(13);
        let mut visits = Vec::new();
        access(&mut rng, &mut visits);
        visits
    };
    let csr = CsrAccess::new(&g);
    let a = run(&|rng, visits| {
        let mut budget = Budget::new(5_000.0);
        MetropolisHastingsRw::new().sample_vertices(
            &csr,
            &CostModel::unit(),
            &mut budget,
            rng,
            |v| visits.push(v.index()),
        );
    });
    let crawler = CrawlAccess::new(&g);
    let b = run(&|rng, visits| {
        let mut budget = Budget::new(5_000.0);
        MetropolisHastingsRw::new().sample_vertices(
            &crawler,
            &CostModel::unit(),
            &mut budget,
            rng,
            |v| visits.push(v.index()),
        );
    });
    assert_eq!(a, b, "MHRW vertex traces diverged");
    assert!(!a.is_empty());
}

#[test]
fn cached_access_hit_accounting_matches_repeated_query_counts() {
    let g = fixture();
    // Cache big enough to never evict: every fetch after a vertex's
    // first is a hit, so hits = total fetches − distinct vertices.
    let cached = CachedAccess::new(&g, g.num_vertices());
    let mut rng = SmallRng::seed_from_u64(17);
    let mut budget = Budget::new(3_000.0);
    let mut edges = Vec::new();
    SingleRw::new().sample_edges(&cached, &CostModel::unit(), &mut budget, &mut rng, |e| {
        edges.push(e)
    });
    // Replay the walker's backend fetches. Per step the combined
    // `step_query` touches the source (coalesced with the previous
    // step's landing fetch — the graph has no self-loops, so consecutive
    // sources always differ) and the vertex stepped to, whose adjacency
    // the reply reveals. The chain therefore costs one logical fetch per
    // edge source plus the final landing. With no eviction the hit/miss
    // split depends only on totals and distinct vertices.
    let mut distinct = std::collections::HashSet::new();
    let mut fetches = 0u64;
    let mut probe = |v: usize| {
        fetches += 1;
        distinct.insert(v);
    };
    for e in &edges {
        probe(e.source.index());
    }
    if let Some(last) = edges.last() {
        probe(last.target.index());
    }
    assert_eq!(
        cached.hits() + cached.misses(),
        fetches,
        "every backend fetch must be classified as hit or miss"
    );
    assert_eq!(
        cached.misses(),
        distinct.len() as u64,
        "with no eviction, misses = distinct vertices fetched"
    );
    assert_eq!(
        cached.hits(),
        fetches - distinct.len() as u64,
        "hit count must equal repeated-query count"
    );
    assert_eq!(cached.cached_vertices(), distinct.len());
}

/// FS (`m = 8`, `B = 5000`) through the chunked runner's windowed
/// engine: the edges it samples, in order.
fn runner_fs<A: GraphAccess>(access: &A, seed: u64) -> Vec<fs_graph::Arc> {
    let spec = SamplerSpec::Frontier { m: 8 };
    let mut run = ChunkedRunner::new(&spec, access, &CostModel::unit(), 5_000.0, seed);
    let mut edges = Vec::new();
    while run.run_chunk(512, |s| {
        if let Sample::Edge(e) = s {
            edges.push(e)
        }
    }) == ChunkStatus::InProgress
    {}
    edges
}

/// Folds sampled edges into a degree-distribution estimate.
fn fs_estimate<A: GraphAccess>(access: &A, edges: &[fs_graph::Arc]) -> Vec<f64> {
    let mut est = DegreeDistributionEstimator::symmetric();
    for &e in edges {
        est.observe(access, e);
    }
    est.distribution()
}

/// The windowed FS engine must answer every query identically over CSR
/// and the fault-free crawler (backend parity extends to the engine
/// behind the runner and the server).
#[test]
fn windowed_frontier_backend_parity() {
    let g = fixture();
    let via_csr = runner_fs(&CsrAccess::new(&g), 9);
    let crawler = CrawlAccess::new(&g);
    let via_crawl = runner_fs(&crawler, 9);
    assert!(!via_csr.is_empty(), "FS emitted nothing");
    assert_eq!(via_csr, via_crawl, "windowed FS diverged across backends");
    assert_eq!(fs_estimate(&g, &via_csr), fs_estimate(&g, &via_crawl));
    // The engine generates walker events speculatively past the budget
    // horizon and truncates at the merge, so the crawler answers at
    // least one query per retained event.
    assert!(
        crawler.stats().neighbor_queries >= via_crawl.len() as u64,
        "crawler must have answered every retained event"
    );
}

/// `ParallelWalkerPool` determinism for single-chain samplers (SingleRW
/// and MHRW ride the chain scheduler): any thread count reproduces the
/// existing sequential sampler on the derived stream seed.
#[test]
fn pooled_chains_match_sequential_single_rw_and_mhrw() {
    let g = fixture();
    let seed = 33;
    let chains = 5;
    let run_single = |threads: usize| -> Vec<Vec<(usize, usize)>> {
        ParallelWalkerPool::with_threads(threads).run_chains(chains, seed, |_, chain_seed| {
            let mut rng = SmallRng::seed_from_u64(chain_seed);
            let mut budget = Budget::new(1_000.0);
            let mut edges = Vec::new();
            SingleRw::new().sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |e| {
                edges.push((e.source.index(), e.target.index()))
            });
            edges
        })
    };
    let one = run_single(1);
    assert_eq!(one, run_single(2));
    assert_eq!(one, run_single(8));
    // Chain i is literally the existing sequential sampler on stream i.
    for (i, chain) in one.iter().enumerate() {
        let mut rng = SmallRng::seed_from_u64(stream_seed(seed, i as u64));
        let mut budget = Budget::new(1_000.0);
        let mut expect = Vec::new();
        SingleRw::new().sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |e| {
            expect.push((e.source.index(), e.target.index()))
        });
        assert_eq!(chain, &expect, "chain {i} diverged from sequential path");
    }

    let run_mhrw = |threads: usize| -> Vec<Vec<usize>> {
        ParallelWalkerPool::with_threads(threads).run_chains(chains, seed, |_, chain_seed| {
            let mut rng = SmallRng::seed_from_u64(chain_seed);
            let mut budget = Budget::new(1_000.0);
            let mut visits = Vec::new();
            MetropolisHastingsRw::new().sample_vertices(
                &g,
                &CostModel::unit(),
                &mut budget,
                &mut rng,
                |v| visits.push(v.index()),
            );
            visits
        })
    };
    let one = run_mhrw(1);
    assert_eq!(one, run_mhrw(2));
    assert_eq!(one, run_mhrw(8));
    assert!(one.iter().all(|c| !c.is_empty()));
}

/// Windowed FS is the Theorem 5.5 factorization of the same chain: its
/// per-vertex visit distribution must agree with sequential
/// `FrontierSampler` (they are not bit-identical — the randomness is
/// factored per walker — but the science must match).
#[test]
fn windowed_frontier_distribution_matches_sequential_fs() {
    let g = fs_graph::graph_from_undirected_pairs(4, [(0, 1), (1, 2), (0, 2), (2, 3)]);
    let steps = 200_000.0;
    let mut windowed = [0f64; 4];
    let spec = SamplerSpec::Frontier { m: 3 };
    let mut run = ChunkedRunner::new(&spec, &g, &CostModel::unit(), steps, 41);
    while run.run_chunk(usize::MAX, |s| {
        if let Sample::Edge(e) = s {
            windowed[e.target.index()] += 1.0
        }
    }) == ChunkStatus::InProgress
    {}
    let mut sequential = [0f64; 4];
    let mut rng = SmallRng::seed_from_u64(42);
    let mut budget = Budget::new(steps);
    FrontierSampler::new(3).sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |e| {
        sequential[e.target.index()] += 1.0
    });
    let tw: f64 = windowed.iter().sum();
    let ts: f64 = sequential.iter().sum();
    for v in 0..4 {
        let (w, s) = (windowed[v] / tw, sequential[v] / ts);
        assert!((w - s).abs() < 0.01, "vertex {v}: windowed {w} vs seq {s}");
    }
}

/// The Theorem 5.5 walkers must preserve fixed starts (used by the
/// disconnected-component experiments) — and keep both components
/// alive like sequential FS does.
#[test]
fn independent_clock_frontier_keeps_disconnected_components_alive() {
    let g =
        fs_graph::graph_from_undirected_pairs(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
    let sampler = DistributedFs::new(2)
        .with_start(StartPolicy::Fixed(vec![VertexId::new(0), VertexId::new(3)]));
    let mut budget = Budget::new(100_000.0);
    let (mut in_a, mut in_b) = (0usize, 0usize);
    sampler.sample_edges_seeded(&g, &CostModel::unit(), &mut budget, 17, |e| {
        if e.source.index() < 3 {
            in_a += 1;
        } else {
            in_b += 1;
        }
    });
    let frac = in_a as f64 / (in_a + in_b) as f64;
    assert!(
        (frac - 0.5).abs() < 0.01,
        "equal-volume components must be sampled equally, got {frac}"
    );
}

/// Writes the fixture to a store file and memory-maps it back: the
/// fourth backend. The temp file lives until the guard drops.
fn mmap_fixture(tag: &str) -> (MmapFixture, fs_store::MmapGraph) {
    let path = std::env::temp_dir().join(format!("fs_parity_{}_{tag}.fsg", std::process::id()));
    fs_store::write_store(&fixture(), &path).expect("write store");
    let mmap = fs_store::MmapGraph::open(&path).expect("open store");
    (MmapFixture(path), mmap)
}

struct MmapFixture(std::path::PathBuf);

impl Drop for MmapFixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Seeded FS over the mmap-backed store is bit-identical to the
/// in-memory CSR backend: same walk trace, same estimates.
#[test]
fn frontier_sampler_identical_over_mmap_and_csr() {
    let g = fixture();
    let (_guard, mmap) = mmap_fixture("fs");
    let fs = FrontierSampler::new(8);
    let runner = |access: &_, budget: &mut Budget, rng: &mut SmallRng, sink: &mut dyn FnMut(_)| {
        fs.sample_edges(access, &CostModel::unit(), budget, rng, sink)
    };
    let a = run_edges(&CsrAccess::new(&g), 7, runner);
    let runner = |access: &_, budget: &mut Budget, rng: &mut SmallRng, sink: &mut dyn FnMut(_)| {
        fs.sample_edges(access, &CostModel::unit(), budget, rng, sink)
    };
    let b = run_edges(&mmap, 7, runner);
    assert_eq!(a.0, b.0, "walk traces diverged");
    assert_eq!(a.1, b.1, "degree-distribution estimates diverged");
    assert_eq!(a.2, b.2, "clustering estimates diverged");
    assert!(!a.0.is_empty());
}

/// SingleRW parity on the mmap backend.
#[test]
fn single_rw_identical_over_mmap_and_csr() {
    let g = fixture();
    let (_guard, mmap) = mmap_fixture("srw");
    let sampler = SingleRw::new();
    let runner = |access: &_, budget: &mut Budget, rng: &mut SmallRng, sink: &mut dyn FnMut(_)| {
        sampler.sample_edges(access, &CostModel::unit(), budget, rng, sink)
    };
    let a = run_edges(&CsrAccess::new(&g), 11, runner);
    let runner = |access: &_, budget: &mut Budget, rng: &mut SmallRng, sink: &mut dyn FnMut(_)| {
        sampler.sample_edges(access, &CostModel::unit(), budget, rng, sink)
    };
    let b = run_edges(&mmap, 11, runner);
    assert_eq!(a, b, "SingleRW diverged over mmap");
}

/// MHRW parity on the mmap backend (vertex traces).
#[test]
fn mhrw_identical_over_mmap_and_csr() {
    let g = fixture();
    let (_guard, mmap) = mmap_fixture("mhrw");
    let collect = |run: &dyn Fn(&mut SmallRng, &mut Vec<usize>)| {
        let mut rng = SmallRng::seed_from_u64(13);
        let mut visits = Vec::new();
        run(&mut rng, &mut visits);
        visits
    };
    let csr = CsrAccess::new(&g);
    let a = collect(&|rng, visits| {
        let mut budget = Budget::new(5_000.0);
        MetropolisHastingsRw::new().sample_vertices(
            &csr,
            &CostModel::unit(),
            &mut budget,
            rng,
            |v| visits.push(v.index()),
        );
    });
    let b = collect(&|rng, visits| {
        let mut budget = Budget::new(5_000.0);
        MetropolisHastingsRw::new().sample_vertices(
            &mmap,
            &CostModel::unit(),
            &mut budget,
            rng,
            |v| visits.push(v.index()),
        );
    });
    assert_eq!(a, b, "MHRW vertex traces diverged over mmap");
    assert!(!a.is_empty());
}

/// Windowed FS on the mmap backend (`MmapGraph` is `Sync`, so one
/// mapping serves all walkers) is bit-identical to the same run over
/// the in-memory CSR.
#[test]
fn windowed_frontier_identical_over_mmap_and_csr() {
    let g = fixture();
    let (_guard, mmap) = mmap_fixture("window");
    let via_mmap = runner_fs(&mmap, 7);
    assert!(!via_mmap.is_empty(), "FS over mmap emitted nothing");
    let via_csr = runner_fs(&CsrAccess::new(&g), 7);
    assert_eq!(
        via_mmap, via_csr,
        "windowed FS diverged between mmap and CSR"
    );
    assert_eq!(
        fs_estimate(&mmap, &via_mmap),
        fs_estimate(&g, &via_csr),
        "estimates diverged between mmap and CSR"
    );
}

#[test]
fn walk_method_dispatch_is_backend_agnostic() {
    use frontier_sampling::WalkMethod;
    let g = fixture();
    for method in [
        WalkMethod::single(),
        WalkMethod::multiple(4),
        WalkMethod::frontier(4),
        WalkMethod::distributed_frontier(4),
        WalkMethod::non_backtracking(),
        WalkMethod::non_backtracking_frontier(4),
    ] {
        let collect = |access: &CrawlAccess, seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut budget = Budget::new(2_000.0);
            let mut edges = Vec::new();
            method.sample_edges(access, &CostModel::unit(), &mut budget, &mut rng, |e| {
                edges.push((e.source.index(), e.target.index()))
            });
            edges
        };
        let crawler = CrawlAccess::new(&g);
        let via_crawl = collect(&crawler, 23);
        let mut rng = SmallRng::seed_from_u64(23);
        let mut budget = Budget::new(2_000.0);
        let mut via_graph = Vec::new();
        method.sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |e| {
            via_graph.push((e.source.index(), e.target.index()))
        });
        assert_eq!(via_graph, via_crawl, "{} diverged", method.label());
        assert!(!via_graph.is_empty(), "{} emitted nothing", method.label());
        // Ids stay within the universe.
        assert!(via_graph
            .iter()
            .all(|&(s, t)| s < g.num_vertices() && t < g.num_vertices()));
    }
}
