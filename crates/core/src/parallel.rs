//! Deterministic parallel walker execution.
//!
//! The paper's evaluation is embarrassingly parallel in two directions:
//! *across* replications (error metrics are averaged over thousands of
//! independent runs) and *within* a run (FS is `m` walkers sharing one
//! budget; MultipleRW is `m` fully independent walkers). Sequential
//! samplers thread a single RNG through every walker, which welds the
//! walkers together: reordering execution reorders the stream and changes
//! every result, so naive threading would make the science
//! schedule-dependent.
//!
//! [`ParallelWalkerPool`] breaks the weld with two ingredients:
//!
//! 1. **Per-walker SplitMix-derived RNG streams.** Walker (or chain) `i`
//!    of a run with base seed `s` draws from
//!    `SmallRng::seed_from_u64(stream_seed(s, i))`, where [`stream_seed`]
//!    is the `i + 1`-th SplitMix64 output of a generator seeded at `s` —
//!    state advance *plus* finalizer, so the derivation composes (see
//!    [`stream_seed`] on why nesting needs the non-linear mix). A
//!    walker's trajectory depends only on its own stream, never on how
//!    walkers are packed onto threads.
//! 2. **Order-independent deterministic reduction.** Each walker's trace
//!    is reduced into a canonical global order that is a pure function of
//!    the traces themselves — concatenation/round-robin in walker order
//!    for independent walkers, a merge by continuous event time for FS —
//!    so the output is bit-identical for 1, 2, or N threads.
//!
//! ## FS as independent walkers
//!
//! Algorithm 1 looks inherently sequential: every step selects a walker
//! degree-proportionally from the *shared* frontier. Theorem 5.5 (see
//! [`crate::distributed`]) removes the coupling: run the `m` walkers as
//! independent continuous-time walks where a walker at `v` holds for an
//! `Exp(deg(v))` time before stepping; the embedded jump chain of the
//! superposed event stream *is* the FS chain. Holding times and steps of
//! walker `i` depend only on stream `i`, so walkers generate their event
//! sequences independently. [`ParallelWalkerPool::frontier`] drives the
//! same windowed engine as the chunked runner (`FsWindowWalk` in
//! [`crate::batch`]) on the calling thread: each virtual-time window's
//! events are generated in one lockstep batch and merged by `(time,
//! walker id)` until `B − mc` events are out. (A window holds a few
//! thousand events; splitting one over threads measured no faster.) The pool's FS is
//! therefore distribution-identical to [`FrontierSampler`] (same chain,
//! different but equivalent randomness factorization), and
//! bit-identical to [`crate::distributed::DistributedFs`] with the same
//! seed at every thread count.
//!
//! ## Determinism contract
//!
//! Bit-identical replication holds whenever the backend's replies are a
//! pure function of the query — true for [`fs_graph::CsrAccess`], a
//! plain `&Graph`, fault-free `CrawlAccess`, and any `CachedAccess`
//! wrapping of those. A backend that injects faults from its own RNG
//! (e.g. `CrawlAccess::with_sample_loss`) answers in arrival order, so
//! its fault *placement* is schedule-dependent (statistics remain exact;
//! see [`crate::backend`]). Sequential runs of faulty backends stay
//! deterministic as before.
//!
//! One cost of the FS factorization: walkers generate each window's
//! events *speculatively* and the run stops at the budget, so a
//! query-counting backend sees more queries than retained events — at
//! most the unused tail of the last window (windows are sized from the
//! measured event rate for the remaining quota, capped at a few
//! thousand events). For simulation throughput that overshoot is
//! irrelevant; when the query count itself is the object of study
//! (crawl-cost experiments), use the sequential
//! [`FrontierSampler`]/[`crate::distributed::DistributedFs`], which
//! query exactly once per budget unit.

use crate::batch::{FsWindowWalk, WalkerBatch};
use crate::budget::{Budget, CostModel};
use crate::frontier::FrontierSampler;
use crate::multiple::{MultipleRw, Schedule};
use crate::walk::{self, StepOutcome};
use fs_graph::csr::STEP_PIPELINE_WIDTH;
use fs_graph::{Arc, GraphAccess, VertexId};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The SplitMix64 golden-ratio increment.
pub const SPLITMIX_GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Seed of stream `index` under base seed `base`: the `index + 1`-th
/// SplitMix64 output of a SplitMix64 generator seeded at `base` (state
/// advance *and* finalizer).
///
/// Applying the finalizer here — not just the linear state advance — is
/// what makes derivation **composable**: streams nest, as in
/// `monte_carlo(runs, base, |seed| pool.frontier(.., seed))`, where run
/// `r`'s walker `j` draws from `stream_seed(stream_seed(base, r), j)`.
/// With a purely additive derivation that nesting would collapse to
/// `base + GOLDEN·(r + j + 2)`, making run `r`'s walker `j` share its
/// stream with run `r + 1`'s walker `j − 1` — thousands of "independent"
/// replications would silently reuse almost every walker stream. The
/// finalizer's non-linear mix breaks the additive structure between
/// levels; within a level, it is a bijection, so sibling streams are
/// distinct by construction.
#[inline]
pub fn stream_seed(base: u64, index: u64) -> u64 {
    let mut z = base.wrapping_add(SPLITMIX_GOLDEN.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One attempted step in a pool run: which walker moved and what
/// happened. The full outcome (not just sampled edges) is recorded so
/// tests can pin exact trace equality across thread counts.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PoolStep {
    /// Index of the walker that fired (`0..m`).
    pub walker: usize,
    /// What the step produced.
    pub outcome: StepOutcome,
}

/// The deterministic result of a pooled multi-walker run.
#[derive(Clone, Debug, PartialEq)]
pub struct PoolRun {
    /// Start vertex of each walker, in walker order.
    pub starts: Vec<VertexId>,
    /// Every attempted step in canonical order (see the module docs).
    pub steps: Vec<PoolStep>,
}

impl PoolRun {
    /// The sampled edges in canonical order (lost/bounced attempts
    /// filtered out), ready to feed estimators.
    pub fn edges(&self) -> impl Iterator<Item = Arc> + '_ {
        self.steps.iter().filter_map(|s| s.outcome.sampled())
    }

    /// Number of reported samples.
    pub fn sampled_count(&self) -> usize {
        self.edges().count()
    }
}

/// A deterministic thread pool for multi-walker sampling and independent
/// chain replication. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct ParallelWalkerPool {
    threads: usize,
    batch_width: usize,
}

impl Default for ParallelWalkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl ParallelWalkerPool {
    /// A pool sized to the machine (`available_parallelism`), stepping
    /// MultipleRW walkers in lockstep groups of
    /// [`STEP_PIPELINE_WIDTH`](fs_graph::csr::STEP_PIPELINE_WIDTH).
    pub fn new() -> Self {
        // fs-lint: allow(determinism) — thread count only sizes the pool; reductions are thread-count independent (pinned by the bit-identity tests)
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ParallelWalkerPool {
            threads,
            batch_width: STEP_PIPELINE_WIDTH,
        }
    }

    /// A pool with an explicit thread count (`1` runs everything inline
    /// on the calling thread). Results never depend on this number.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads >= 1, "need at least one thread");
        ParallelWalkerPool {
            threads,
            batch_width: STEP_PIPELINE_WIDTH,
        }
    }

    /// Sets the lockstep group width of [`ParallelWalkerPool::multiple_rw`]
    /// (`1` degenerates to scalar stepping; FS steps all its walkers as
    /// one batch). Results never depend on this number —
    /// it only controls how many independent walkers' memory loads are
    /// in flight at once (pinned by the `batch_parity` integration test
    /// at widths 1/8/16).
    pub fn with_batch_width(mut self, width: usize) -> Self {
        assert!(width >= 1, "need at least one lane per batch");
        self.batch_width = width;
        self
    }

    /// Runs `chains` independent chain bodies, handing body `i` its index
    /// and its derived stream seed [`stream_seed`]`(base_seed, i)`.
    /// Results come back in chain order regardless of which thread ran
    /// which chain (work is handed out through an atomic cursor for load
    /// balance; each result lands in its own slot). This is the engine
    /// behind `fs_experiments::monte_carlo` and the multi-chain
    /// convergence diagnostics.
    pub fn run_chains<T, F>(&self, chains: usize, base_seed: u64, body: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, u64) -> T + Sync,
    {
        if chains == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(chains);
        if workers == 1 {
            return (0..chains)
                .map(|i| body(i, stream_seed(base_seed, i as u64)))
                .collect();
        }
        // Workers accumulate (index, result) locally and the results are
        // scattered into slots after the join — result handoff stays
        // lock-free however short the chain bodies are.
        let cursor = AtomicUsize::new(0);
        let mut results: Vec<Option<T>> = (0..chains).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let cursor = &cursor;
                    let body = &body;
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= chains {
                                break;
                            }
                            local.push((i, body(i, stream_seed(base_seed, i as u64))));
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                for (i, out) in handle.join().expect("chain worker panicked") {
                    results[i] = Some(out);
                }
            }
        });
        results
            .into_iter()
            .map(|slot| slot.expect("every chain ran"))
            .collect()
    }

    /// Runs [`MultipleRw`] with walker `i` on stream `i`: walkers execute
    /// concurrently and the canonical order reassembles exactly what the
    /// per-walker sequential schedule would emit (concatenation for
    /// [`Schedule::EqualSplit`], round-robin for
    /// [`Schedule::Interleaved`]). Budget accounting matches the
    /// sequential sampler: `m·c` for starts, one `walk_step` per attempt.
    ///
    /// Start vertices are drawn on the calling thread from a generator
    /// seeded with `base_seed` itself, so they too are thread-count
    /// independent.
    pub fn multiple_rw<A: GraphAccess + ?Sized>(
        &self,
        sampler: &MultipleRw,
        access: &A,
        cost: &CostModel,
        budget: &mut Budget,
        base_seed: u64,
    ) -> PoolRun {
        let mut start_rng = SmallRng::seed_from_u64(base_seed);
        let starts = sampler
            .start
            .draw(access, sampler.m, cost, budget, &mut start_rng);
        if starts.is_empty() {
            return PoolRun {
                starts,
                steps: Vec::new(),
            };
        }
        let step_cost = walk::step_cost(cost, access);
        let affordable = budget.affordable(step_cost);
        let m = starts.len();
        // Per-walker attempt quotas mirroring the sequential schedules:
        // EqualSplit gives every walker ⌊affordable/m⌋; Interleaved deals
        // the remainder to the first walkers (they get one extra round).
        let per = affordable / m;
        let rem = affordable % m;
        let quotas: Vec<usize> = match sampler.schedule {
            Schedule::EqualSplit => vec![per; m],
            Schedule::Interleaved => (0..m).map(|i| per + usize::from(i < rem)).collect(),
        };

        // Walkers are packed into SoA lockstep groups of `batch_width`
        // lanes; each group is one work unit. Lockstep stepping batches
        // the backend queries (overlapping the walkers' CSR load chains)
        // while leaving every walker's RNG stream untouched, so traces
        // are bit-identical to scalar stepping at any width.
        let seeds: Vec<u64> = (0..m).map(|i| stream_seed(base_seed, i as u64)).collect();
        struct MrwGroup {
            base: usize,
            batch: WalkerBatch,
            traces: Vec<Vec<StepOutcome>>,
            /// Lanes retired early (EqualSplit walkers that went
            /// isolated; Interleaved keeps burning their turns, matching
            /// the sequential loop, where an isolated walker still
            /// spends budget each round without consuming randomness).
            halted: Vec<bool>,
        }
        let mut groups: Vec<MrwGroup> = starts
            .chunks(self.batch_width)
            .zip(seeds.chunks(self.batch_width))
            .enumerate()
            .map(|(g, (s, sd))| MrwGroup {
                base: g * self.batch_width,
                batch: WalkerBatch::new(access, s, sd),
                traces: vec![Vec::new(); s.len()],
                halted: vec![false; s.len()],
            })
            .collect();
        let equal_split = sampler.schedule == Schedule::EqualSplit;
        self.for_each_walker(&mut groups, |_, grp| {
            let mut due: Vec<usize> = Vec::with_capacity(grp.traces.len());
            loop {
                due.clear();
                for lane in 0..grp.traces.len() {
                    if !grp.halted[lane] && grp.traces[lane].len() < quotas[grp.base + lane] {
                        due.push(lane);
                    }
                }
                if due.is_empty() {
                    break;
                }
                let traces = &mut grp.traces;
                let halted = &mut grp.halted;
                grp.batch.step_lanes(access, &due, |lane, stepped, _| {
                    traces[lane].push(stepped.outcome);
                    if stepped.outcome == StepOutcome::Isolated && equal_split {
                        halted[lane] = true;
                    }
                });
            }
        });
        let traces: Vec<Vec<StepOutcome>> = groups.into_iter().flat_map(|g| g.traces).collect();

        // Canonical reduction + exact budget spend.
        let mut steps = Vec::with_capacity(traces.iter().map(Vec::len).sum());
        match sampler.schedule {
            Schedule::EqualSplit => {
                for (walker, trace) in traces.iter().enumerate() {
                    steps.extend(trace.iter().map(|&outcome| PoolStep { walker, outcome }));
                }
            }
            Schedule::Interleaved => {
                let rounds = traces.iter().map(Vec::len).max().unwrap_or(0);
                for round in 0..rounds {
                    for (walker, trace) in traces.iter().enumerate() {
                        if let Some(&outcome) = trace.get(round) {
                            steps.push(PoolStep { walker, outcome });
                        }
                    }
                }
            }
        }
        // Affordability was established by the quotas above.
        budget.force_spend(steps.len() as f64 * step_cost);
        PoolRun { starts, steps }
    }

    /// Runs [`FrontierSampler`] as `m` concurrent exponential-clock
    /// walkers (Theorem 5.5; module docs): draws the starts from a
    /// generator seeded with `base_seed`, then drives the windowed FS
    /// engine to the end on the calling thread, returning the first
    /// `affordable` events of the superposed process in event-time
    /// order. Bit-identical at every thread count and to
    /// [`crate::distributed::DistributedFs`] with the same seed;
    /// distribution-identical to the sequential [`FrontierSampler`].
    pub fn frontier<A: GraphAccess + ?Sized>(
        &self,
        sampler: &FrontierSampler,
        access: &A,
        cost: &CostModel,
        budget: &mut Budget,
        base_seed: u64,
    ) -> PoolRun {
        let mut start_rng = SmallRng::seed_from_u64(base_seed);
        let starts = sampler
            .start
            .draw(access, sampler.m, cost, budget, &mut start_rng);
        let step_cost = walk::step_cost(cost, access);
        let mut steps = Vec::new();
        let n_steps = budget.affordable(step_cost);
        if let Some(mut fs) = FsWindowWalk::new(access, &starts, base_seed, n_steps) {
            let mut record = |walker, outcome| steps.push(PoolStep { walker, outcome });
            while !fs.step(access, budget, step_cost, &mut record) {}
        }
        PoolRun { starts, steps }
    }

    /// Applies `body` to every walker slot, spread over the pool's
    /// threads in contiguous chunks (inline when one thread suffices).
    /// Empty chunks are never spawned.
    fn for_each_walker<W, F>(&self, walkers: &mut [W], body: F)
    where
        W: Send,
        F: Fn(usize, &mut W) + Sync,
    {
        let workers = self.threads.min(walkers.len());
        if workers <= 1 {
            for (i, w) in walkers.iter_mut().enumerate() {
                body(i, w);
            }
            return;
        }
        let chunk = walkers.len().div_ceil(workers);
        std::thread::scope(|scope| {
            for (c, slice) in walkers.chunks_mut(chunk).enumerate() {
                let body = &body;
                scope.spawn(move || {
                    for (j, w) in slice.iter_mut().enumerate() {
                        body(c * chunk + j, w);
                    }
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::start::StartPolicy;
    use fs_graph::{graph_from_undirected_pairs, Graph};

    fn lollipop() -> Graph {
        graph_from_undirected_pairs(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    }

    fn two_triangles() -> Graph {
        graph_from_undirected_pairs(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    }

    #[test]
    fn stream_seed_is_the_splitmix64_output_sequence() {
        // Reference SplitMix64 (Steele et al.): stream_seed(base, i) must
        // be the (i+1)-th output of a generator seeded at `base`.
        let splitmix_next = |state: &mut u64| {
            *state = state.wrapping_add(SPLITMIX_GOLDEN);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for base in [0u64, 7, 0xF5_2010, u64::MAX] {
            let mut state = base;
            for i in 0..8u64 {
                assert_eq!(stream_seed(base, i), splitmix_next(&mut state));
            }
        }
    }

    #[test]
    fn nested_stream_derivation_does_not_collide() {
        // The advertised composition: replication r's walker j draws from
        // stream_seed(stream_seed(base, r), j). A purely additive
        // derivation collapses this to base + GOLDEN·(r+j+2), aliasing
        // run r walker j with run r+1 walker j−1; the finalizer must
        // keep every (r, j) pair distinct.
        let base = 0xF5_2010u64;
        let mut seen = std::collections::HashSet::new();
        for r in 0..64u64 {
            let run_seed = stream_seed(base, r);
            assert!(seen.insert(run_seed), "run seed {r} collided");
            for j in 0..64u64 {
                assert!(
                    seen.insert(stream_seed(run_seed, j)),
                    "walker stream (run {r}, walker {j}) collided"
                );
            }
        }
    }

    #[test]
    fn run_chains_in_order_any_thread_count() {
        for threads in [1, 2, 3, 8] {
            let pool = ParallelWalkerPool::with_threads(threads);
            let out = pool.run_chains(10, 42, |i, seed| (i, seed));
            assert_eq!(out.len(), 10);
            for (i, &(idx, seed)) in out.iter().enumerate() {
                assert_eq!(idx, i);
                assert_eq!(seed, stream_seed(42, i as u64));
            }
        }
    }

    #[test]
    fn run_chains_zero_and_fewer_chains_than_threads() {
        let pool = ParallelWalkerPool::with_threads(8);
        assert!(pool.run_chains(0, 1, |i, _| i).is_empty());
        // Must not hang or spawn idle-looping workers beyond the chains.
        assert_eq!(pool.run_chains(3, 1, |i, _| i), vec![0, 1, 2]);
    }

    #[test]
    fn multiple_rw_bit_identical_across_thread_counts() {
        let g = two_triangles();
        let run = |threads: usize, schedule: Schedule| {
            let pool = ParallelWalkerPool::with_threads(threads);
            let mut budget = Budget::new(500.0);
            let sampler = MultipleRw::new(5).with_schedule(schedule);
            pool.multiple_rw(&sampler, &g, &CostModel::unit(), &mut budget, 99)
        };
        for schedule in [Schedule::EqualSplit, Schedule::Interleaved] {
            let one = run(1, schedule);
            assert_eq!(one, run(2, schedule), "{schedule:?} 2 threads");
            assert_eq!(one, run(8, schedule), "{schedule:?} 8 threads");
            assert!(!one.steps.is_empty());
        }
    }

    #[test]
    fn multiple_rw_spends_budget_like_sequential() {
        // B = 100, m = 10, c = 1 ⇒ 10 starts + ⌊90/10⌋ = 9 steps each.
        let g = two_triangles();
        let pool = ParallelWalkerPool::with_threads(4);
        let mut budget = Budget::new(100.0);
        let run = pool.multiple_rw(&MultipleRw::new(10), &g, &CostModel::unit(), &mut budget, 7);
        assert_eq!(run.starts.len(), 10);
        assert_eq!(run.steps.len(), 90);
        assert_eq!(run.sampled_count(), 90);
        assert_eq!(budget.spent(), 100.0);
    }

    #[test]
    fn frontier_bit_identical_across_thread_counts() {
        let g = lollipop();
        let run = |threads: usize| {
            let pool = ParallelWalkerPool::with_threads(threads);
            let mut budget = Budget::new(400.0);
            pool.frontier(
                &FrontierSampler::new(3),
                &g,
                &CostModel::unit(),
                &mut budget,
                1234,
            )
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
        assert_eq!(one.steps.len(), 397, "3 starts + 397 events under B=400");
        for e in one.edges() {
            assert!(g.has_edge(e.source, e.target));
        }
    }

    #[test]
    fn frontier_pool_samples_edges_uniformly() {
        // Theorem 5.2(I) via Theorem 5.5: the pooled FS event stream must
        // sample arcs uniformly in steady state, like sequential FS.
        let g = lollipop();
        let pool = ParallelWalkerPool::with_threads(2);
        let mut budget = Budget::new(400_000.0);
        let run = pool.frontier(
            &FrontierSampler::new(3),
            &g,
            &CostModel::unit(),
            &mut budget,
            5,
        );
        let mut counts = std::collections::HashMap::new();
        for e in run.edges() {
            *counts
                .entry((e.source.index(), e.target.index()))
                .or_insert(0usize) += 1;
        }
        let total: usize = counts.values().sum();
        assert_eq!(counts.len(), g.num_arcs());
        for (&arc, &c) in &counts {
            let emp = c as f64 / total as f64;
            assert!(
                (emp - 1.0 / g.num_arcs() as f64).abs() < 0.01,
                "arc {arc:?}: {emp}"
            );
        }
    }

    #[test]
    fn frontier_pool_event_times_exhaust_stuck_walkers() {
        // A path graph where one walker starts on a leaf of a 2-vertex
        // component: it can never die (degree ≥ 1 everywhere it can
        // reach), but a component with only an isolated pair bounds its
        // rate; the run must still fill the budget from the other walker.
        let g = graph_from_undirected_pairs(5, [(0, 1), (1, 2), (0, 2), (3, 4)]);
        let pool = ParallelWalkerPool::with_threads(2);
        let mut budget = Budget::new(2_000.0);
        let sampler = FrontierSampler::new(2)
            .with_start(StartPolicy::Fixed(vec![VertexId::new(0), VertexId::new(3)]));
        let run = pool.frontier(&sampler, &g, &CostModel::unit(), &mut budget, 11);
        assert_eq!(run.steps.len(), 1_998);
        // Both components get sampled (walkers never cross).
        let (mut a, mut b) = (0usize, 0usize);
        for e in run.edges() {
            if e.source.index() < 3 {
                a += 1;
            } else {
                b += 1;
            }
        }
        assert!(a > 0 && b > 0, "components A={a} B={b}");
    }

    #[test]
    fn empty_budget_yields_empty_run() {
        let g = lollipop();
        let pool = ParallelWalkerPool::with_threads(2);
        let mut budget = Budget::new(0.0);
        let run = pool.frontier(
            &FrontierSampler::new(2),
            &g,
            &CostModel::unit(),
            &mut budget,
            3,
        );
        assert!(run.starts.is_empty());
        assert!(run.steps.is_empty());
        let mut budget = Budget::new(0.0);
        let run = pool.multiple_rw(&MultipleRw::new(2), &g, &CostModel::unit(), &mut budget, 3);
        assert!(run.steps.is_empty());
    }
}
