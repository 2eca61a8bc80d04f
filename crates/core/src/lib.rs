//! # frontier-sampling — multidimensional random-walk graph sampling
//!
//! A production-quality Rust implementation of
//!
//! > Bruno Ribeiro and Don Towsley,
//! > *"Estimating and Sampling Graphs with Multidimensional Random
//! > Walks"*, IMC 2010.
//!
//! The paper's contribution is **Frontier Sampling (FS)**: `m` dependent
//! random walkers, coordinated so that each step picks a walker with
//! probability proportional to its current vertex degree and advances it
//! one hop. FS is exactly a single random walk on the `m`-th Cartesian
//! power `G^m`, so in steady state it samples edges uniformly and obeys
//! the strong law of large numbers like an ordinary random walk — but its
//! joint stationary distribution approaches the *uniform* distribution as
//! `m` grows, so initialising the walkers at uniformly sampled vertices
//! starts the process near steady state. That is what makes FS robust to
//! the disconnected and loosely connected graphs that trap single or
//! independent walkers.
//!
//! ## What's in the crate
//!
//! * The access layer: every sampler and estimator is generic over
//!   [`GraphAccess`] — the paper's crawl-oracle model (Section 2) —
//!   with three backends: the zero-cost in-memory [`CsrAccess`] (or a
//!   plain `&Graph`), the fault-injecting budget-surcharging
//!   [`CrawlAccess`] simulated crawler, and the LRU hit-ratio decorator
//!   [`CachedAccess`] (see [`backend`]).
//! * Samplers: [`FrontierSampler`] (Algorithm 1), [`DistributedFs`]
//!   (Theorem 5.5's uncoordinated equivalent), [`SingleRw`],
//!   [`MultipleRw`], [`MetropolisHastingsRw`], and the independent
//!   [`RandomVertexSampler`] / [`RandomEdgeSampler`] baselines, unified
//!   under [`WalkMethod`].
//! * Budgets: [`Budget`] and [`CostModel`] implement the paper's
//!   resource accounting (per-start cost `c`, vertex/edge hit ratios).
//! * Estimators (Section 4.2): vertex/edge label densities, degree
//!   distributions and CCDFs, the assortative mixing coefficient, the
//!   global clustering coefficient, plus sample-path traces — all
//!   streaming, in [`estimators`].
//! * Analysis: NMSE/CNMSE error metrics and the closed-form NMSE of
//!   independent sampling ([`metrics`]); Lemma 5.3 / Theorem 5.4
//!   machinery ([`theory`]); exact and Monte-Carlo transient
//!   edge-sampling distributions ([`transient`], Appendix B).
//! * Execution: the chunked runner ([`ChunkedRunner`], [`runner`]) drives
//!   every sampler as a resumable step machine, chunk by chunk; the
//!   server runs every job through it. FS has one windowed event engine
//!   over the SoA walker lanes of [`FsEventBatch`] ([`batch`]) behind
//!   the runner, on the calling thread, and [`DistributedFs`] is its
//!   bit-exact heap-based reference. Runs and estimators checkpoint
//!   into versioned blobs ([`checkpoint`]); each machine and estimator
//!   encodes its own fields.
//!   [`ParallelWalkerPool::run_chains`] ([`parallel`]) runs independent
//!   chains for replication and diagnostics across threads on
//!   SplitMix-derived RNG streams, bit-identical for 1, 2, or N threads.
//!
//! ## Quickstart
//!
//! ```
//! use frontier_sampling::{Budget, CostModel, FrontierSampler, StartPolicy};
//! use frontier_sampling::estimators::{DegreeDistributionEstimator, EdgeEstimator};
//! use rand::SeedableRng;
//!
//! // A small social-like graph.
//! let graph = fs_graph::graph_from_undirected_pairs(
//!     6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]);
//!
//! // Frontier Sampling with m = 3 walkers and a budget of 5000 queries.
//! let sampler = FrontierSampler::new(3).with_start(StartPolicy::Uniform);
//! let mut estimator = DegreeDistributionEstimator::symmetric();
//! let mut budget = Budget::new(5_000.0);
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
//! sampler.sample_edges(&graph, &CostModel::unit(), &mut budget, &mut rng,
//!     |edge| estimator.observe(&graph, edge));
//!
//! let theta = estimator.distribution();
//! let truth = fs_graph::degree_distribution(&graph, fs_graph::DegreeKind::Symmetric);
//! for (est, tru) in theta.iter().zip(&truth) {
//!     assert!((est - tru).abs() < 0.1);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod adaptive;
pub mod alias;
pub mod backend;
pub mod batch;
pub mod budget;
pub mod checkpoint;
pub mod coverage;
pub mod diagnostics;
pub mod distributed;
pub mod edge_sampling;
pub mod estimators;
pub mod faults;
pub mod fenwick;
pub mod frontier;
pub mod method;
pub mod metrics;
pub mod mhrw;
pub mod multiple;
pub mod nbrw;
pub mod parallel;
pub mod runner;
pub mod rwj;
pub mod single;
pub mod start;
pub mod theory;
pub mod transient;
pub mod vertex_sampling;
pub mod walk;
pub mod weighted;

pub use ablation::UniformSelectWalkers;
pub use adaptive::{AdaptiveFrontier, AdaptiveOutcome};
pub use alias::AliasTable;
pub use backend::{CachedAccess, CrawlAccess, CrawlStats};
pub use batch::FsEventBatch;
pub use budget::{Budget, CostModel};
pub use checkpoint::CheckpointError;
pub use coverage::CoverageTracker;
pub use diagnostics::ChainDiagnostics;
pub use distributed::DistributedFs;
pub use edge_sampling::RandomEdgeSampler;
pub use faults::{DeadVertexModel, SampleLossModel};
pub use fenwick::{FenwickTree, IntFenwick};
pub use frontier::{Frontier, FrontierSampler};
pub use method::WalkMethod;
pub use mhrw::MetropolisHastingsRw;
pub use multiple::{MultipleRw, Schedule};
pub use nbrw::{NonBacktrackingFrontier, NonBacktrackingRw};
pub use parallel::{stream_seed, ParallelWalkerPool};
pub use runner::{
    ChunkStatus, ChunkedRunner, EstimateSnapshot, EstimatorSpec, JobEstimator, Sample, SamplerSpec,
};
pub use rwj::{RandomWalkWithJumps, RwjEvent};
pub use single::SingleRw;
pub use start::StartPolicy;
pub use vertex_sampling::RandomVertexSampler;
pub use walk::StepOutcome;
pub use weighted::{WeightedFrontierSampler, WeightedSingleRw, WeightedStart};

// Re-export the substrate (and the access-layer vocabulary every sampler
// is generic over) so downstream users need a single dependency.
pub use fs_graph;
pub use fs_graph::{CsrAccess, GraphAccess, NeighborReply, QueryKind};
