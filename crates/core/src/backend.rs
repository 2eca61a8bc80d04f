//! Access-layer backends: the simulated crawler and the caching
//! decorator.
//!
//! The paper's samplers never touch a graph data structure — they talk to
//! a *crawl oracle* (Section 2) that answers neighbor queries, charges a
//! budget, and, in the real world, fails some of the time. The
//! [`GraphAccess`] trait (in `fs_graph::access`) is that oracle's
//! interface; this module provides the two backends that go beyond plain
//! in-memory access:
//!
//! * [`CrawlAccess`] — a simulated crawler over a ground-truth CSR graph.
//!   It folds the fault models of [`crate::faults`] into the access layer
//!   (per-query loss, permanently dead vertices), applies per-[`QueryKind`]
//!   budget surcharges, and counts every query it answers. With no
//!   faults and unit surcharges it is *bit-for-bit identical* to
//!   [`CsrAccess`](fs_graph::CsrAccess): it draws nothing from any RNG,
//!   so a seeded sampler produces the same walk over either backend (the
//!   `backend_parity` integration test enforces this).
//! * [`CachedAccess`] — an LRU cache *model* wrapped around any backend.
//!   Re-querying a vertex whose neighbor list is still cached is a hit;
//!   the decorator reports the hit ratio, the workload signal that
//!   motivates real crawl caches (walkers revisit hubs constantly —
//!   stationary visit probability is `deg(v)/vol(V)`).
//!
//! Both backends use *thread-safe* interior mutability for their
//! statistics, keeping every [`GraphAccess`] method `&self` so one
//! backend instance can serve many concurrent walkers (the trait requires
//! `Sync`; see [`crate::parallel`]):
//!
//! * [`CrawlAccess`] counts queries in sharded atomic counters
//!   ([`fs_graph::ShardedCounter`]) — increments from N walker threads
//!   land on distinct cache lines and always **sum exactly** to the
//!   sequential totals (no lost updates; pinned by the concurrency
//!   property tests). The fault RNG, present only when a loss model is
//!   configured, sits behind a `Mutex`; fault *placement* under
//!   concurrency is schedule-dependent (like a real flaky crawl), while
//!   loss statistics remain exact.
//! * [`CachedAccess`] keeps its LRU model behind lock stripes: vertex `v`
//!   maps to stripe `v mod s`, so concurrent walkers touching different
//!   stripes never contend. `new` uses a single stripe (bit-identical to
//!   the historical sequential semantics); [`CachedAccess::with_stripes`]
//!   splits the capacity for concurrent use. Hits + misses always equal
//!   the number of logical fetches, concurrent or not.

use crate::faults::{DeadVertexModel, SampleLossModel};
use fs_graph::{
    Arc, ArcId, Graph, GraphAccess, GroupId, NeighborReply, QueryKind, ShardedCounter, StepReply,
    VertexId,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Cumulative query statistics of a [`CrawlAccess`] backend.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CrawlStats {
    /// Neighbor queries answered — one per walk step, whether issued
    /// through [`GraphAccess::query_neighbor`] or the combined
    /// [`GraphAccess::step_query`] (the fused pick + degree read is
    /// still a *single* charged query, the Section 2 unit).
    pub neighbor_queries: u64,
    /// Uniform-vertex queries answered ([`GraphAccess::query_vertex`]):
    /// walker start draws and RWJ jump landings, including redraws that
    /// hit unwalkable ids.
    pub vertex_queries: u64,
    /// Queries whose response payload was lost in transit.
    pub lost_replies: u64,
    /// Queries that hit an unresponsive (dead) vertex.
    pub unresponsive: u64,
}

impl CrawlStats {
    /// Fraction of neighbor queries that produced a reported sample.
    pub fn success_ratio(&self) -> f64 {
        if self.neighbor_queries == 0 {
            return 1.0;
        }
        1.0 - (self.lost_replies + self.unresponsive) as f64 / self.neighbor_queries as f64
    }
}

/// A budget-accounted simulated crawler over a ground-truth [`Graph`].
///
/// See the [module docs](self). Construction is builder-style:
///
/// ```
/// use frontier_sampling::backend::CrawlAccess;
/// use frontier_sampling::{Budget, CostModel, FrontierSampler};
/// use rand::SeedableRng;
///
/// let g = fs_graph::graph_from_undirected_pairs(
///     6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]);
/// let crawler = CrawlAccess::new(&g)
///     .with_sample_loss(0.2, 99)      // 20% of replies lost
///     .with_step_surcharge(2.0);      // each query costs 2 budget units
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
/// let mut budget = Budget::new(1_000.0);
/// let mut sampled = 0usize;
/// FrontierSampler::new(3).sample_edges(&crawler, &CostModel::unit(), &mut budget, &mut rng,
///     |_| sampled += 1);
/// let stats = crawler.stats();
/// assert_eq!(stats.neighbor_queries as usize, sampled + stats.lost_replies as usize);
/// assert!(budget.remaining() < 2.0, "cannot afford another surcharged step");
/// ```
#[derive(Debug)]
pub struct CrawlAccess<'g> {
    graph: &'g Graph,
    loss: Option<SampleLossModel>,
    dead: Option<DeadVertexModel>,
    /// Present iff `loss` is set — a fault-free crawler must not consume
    /// randomness, so seeded walks stay identical to in-memory runs. The
    /// mutex makes the faulty crawler shareable across walker threads;
    /// fault-free backends never touch it.
    fault_rng: Option<Mutex<SmallRng>>,
    step_surcharge: f64,
    vertex_surcharge: f64,
    edge_surcharge: f64,
    neighbor_queries: ShardedCounter,
    vertex_queries: ShardedCounter,
    lost_replies: ShardedCounter,
    unresponsive: ShardedCounter,
}

impl<'g> CrawlAccess<'g> {
    /// A fault-free, unit-cost crawler over `graph` (behaviourally
    /// identical to [`fs_graph::CsrAccess`], plus query counting).
    pub fn new(graph: &'g Graph) -> Self {
        CrawlAccess {
            graph,
            loss: None,
            dead: None,
            fault_rng: None,
            step_surcharge: 1.0,
            vertex_surcharge: 1.0,
            edge_surcharge: 1.0,
            neighbor_queries: ShardedCounter::new(),
            vertex_queries: ShardedCounter::new(),
            lost_replies: ShardedCounter::new(),
            unresponsive: ShardedCounter::new(),
        }
    }

    /// Loses each query reply independently with probability `p`
    /// ([`SampleLossModel`] semantics: the walker still moves, the sample
    /// is dropped). The fault stream is seeded separately from the walk's
    /// RNG so loss patterns are reproducible per backend instance.
    pub fn with_sample_loss(mut self, p: f64, fault_seed: u64) -> Self {
        self.loss = Some(SampleLossModel::new(p));
        self.fault_rng = Some(Mutex::new(SmallRng::seed_from_u64(fault_seed)));
        self
    }

    /// Marks a fixed vertex set as permanently unresponsive
    /// ([`DeadVertexModel`] semantics: stepping to one bounces the
    /// walker).
    pub fn with_dead_vertices(mut self, model: DeadVertexModel) -> Self {
        self.dead = Some(model);
        self
    }

    /// Multiplies the budget cost of every neighbor query (rate limits,
    /// retries, page weight).
    pub fn with_step_surcharge(mut self, factor: f64) -> Self {
        assert!(factor > 0.0);
        self.step_surcharge = factor;
        self
    }

    /// Multiplies the budget cost of every uniform-vertex query.
    pub fn with_vertex_surcharge(mut self, factor: f64) -> Self {
        assert!(factor > 0.0);
        self.vertex_surcharge = factor;
        self
    }

    /// Multiplies the budget cost of every random-edge query.
    pub fn with_edge_surcharge(mut self, factor: f64) -> Self {
        assert!(factor > 0.0);
        self.edge_surcharge = factor;
        self
    }

    /// The ground-truth graph behind the crawler.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Snapshot of the query statistics. Exact once walker threads have
    /// been joined; a snapshot racing live walkers may lag in-flight
    /// increments.
    pub fn stats(&self) -> CrawlStats {
        CrawlStats {
            neighbor_queries: self.neighbor_queries.get(),
            vertex_queries: self.vertex_queries.get(),
            lost_replies: self.lost_replies.get(),
            unresponsive: self.unresponsive.get(),
        }
    }

    /// Resets the query statistics (e.g. between Monte-Carlo runs). Must
    /// not race live walkers.
    pub fn reset_stats(&self) {
        self.neighbor_queries.reset();
        self.vertex_queries.reset();
        self.lost_replies.reset();
        self.unresponsive.reset();
    }

    /// Applies the fault models to a resolved neighbor target. Shared by
    /// [`GraphAccess::query_neighbor`] and [`GraphAccess::step_query`] so
    /// the two entry points stay behaviourally identical (same fault
    /// stream, same counters — only the reply shape differs).
    fn resolve_target(&self, target: VertexId) -> NeighborReply {
        if let Some(dead) = &self.dead {
            if dead.is_dead(target) {
                self.unresponsive.incr();
                return NeighborReply::Unresponsive;
            }
        }
        if let (Some(loss), Some(rng)) = (&self.loss, &self.fault_rng) {
            let lost = {
                let mut rng = rng.lock().expect("fault RNG poisoned");
                rng.gen_range(0.0..1.0) < loss.failure_prob
            };
            if lost {
                self.lost_replies.incr();
                return NeighborReply::Lost(target);
            }
        }
        NeighborReply::Vertex(target)
    }
}

impl GraphAccess for CrawlAccess<'_> {
    type Neighbors<'a>
        = &'a [VertexId]
    where
        Self: 'a;

    #[inline]
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.graph.neighbors(v)
    }

    fs_graph::delegate_graph_access!(self => self.graph);

    fn query_neighbor(&self, v: VertexId, i: usize) -> NeighborReply {
        self.neighbor_queries.incr();
        self.resolve_target(self.graph.nth_neighbor(v, i))
    }

    fn step_query(&self, v: VertexId, i: usize) -> StepReply {
        self.step_query_at(v, self.graph.row_start(v), i)
    }

    fn step_query_at(&self, v: VertexId, row: usize, i: usize) -> StepReply {
        // ONE charged query: crawling the i-th neighbor returns its full
        // adjacency list, so the target's degree (and row handle) ships
        // with the reply — the fix for the historical double round-trip
        // (neighbor query followed by a separate degree read) that
        // over-counted crawl work per walk step.
        debug_assert_eq!(row, self.graph.row_start(v), "stale row handle");
        self.neighbor_queries.incr();
        let (target, target_degree, target_row) = self.graph.nth_neighbor_with_degree_at(row, i);
        let reply = self.resolve_target(target);
        match reply {
            NeighborReply::Unresponsive => StepReply {
                reply,
                target_degree: 0,
                target_row: 0,
            },
            _ => StepReply {
                reply,
                target_degree,
                target_row,
            },
        }
    }

    fn vertex_row(&self, v: VertexId) -> usize {
        self.graph.row_start(v)
    }

    fn query_vertex(&self, v: VertexId) -> usize {
        self.vertex_queries.incr();
        self.graph.degree(v)
    }

    fn cost_factor(&self, kind: QueryKind) -> f64 {
        match kind {
            QueryKind::NeighborStep => self.step_surcharge,
            QueryKind::UniformVertex => self.vertex_surcharge,
            QueryKind::RandomEdge => self.edge_surcharge,
        }
    }

    fn queries_issued(&self) -> u64 {
        self.neighbor_queries.get() + self.vertex_queries.get()
    }
}

/// LRU bookkeeping for [`CachedAccess`] (stamp-based with lazy eviction:
/// amortised `O(1)` per touch).
#[derive(Debug)]
struct LruModel {
    capacity: usize,
    clock: u64,
    stamps: HashMap<usize, u64>,
    queue: VecDeque<(usize, u64)>,
}

impl LruModel {
    fn new(capacity: usize) -> Self {
        LruModel {
            capacity,
            clock: 0,
            stamps: HashMap::new(),
            queue: VecDeque::new(),
        }
    }

    /// Returns whether `v` was cached; always leaves `v` most-recent.
    fn touch(&mut self, v: usize) -> bool {
        self.clock += 1;
        let hit = self.stamps.contains_key(&v);
        self.stamps.insert(v, self.clock);
        self.queue.push_back((v, self.clock));
        while self.stamps.len() > self.capacity {
            // Lazily discard queue entries superseded by a later touch.
            let Some((u, stamp)) = self.queue.pop_front() else {
                break;
            };
            if self.stamps.get(&u) == Some(&stamp) {
                self.stamps.remove(&u);
            }
        }
        // Keep the lazy-deletion queue O(capacity): once it is dominated
        // by superseded entries (which eviction alone never drains while
        // the cache stays under capacity), compact it in place.
        if self.queue.len() > 2 * self.stamps.len().max(1) {
            let stamps = &self.stamps;
            self.queue
                .retain(|&(u, stamp)| stamps.get(&u) == Some(&stamp));
        }
        hit
    }
}

/// An LRU-caching decorator modelling repeated-query deduplication.
///
/// Every per-vertex crawl fetch (`degree`, `neighbors`, `nth_neighbor`,
/// `query_neighbor`) touches the simulated cache, with **consecutive
/// touches of the same vertex by the same thread coalesced into one
/// logical fetch** — a walker that reads `degree(v)` and then resolves a
/// neighbor of `v` in the same step fetched `v`'s adjacency list once,
/// not twice, so only one cache probe is recorded. The decorator counts
/// hits and misses and reports the [`CachedAccess::hit_ratio`]. Queries
/// are **delegated unchanged** to the wrapped backend — the cache models
/// dedup accounting (what a production crawler would *not* have to
/// re-fetch), it does not change results, costs, or fault behaviour, so
/// wrapping a backend never perturbs a seeded walk.
///
/// ## Concurrency
///
/// The LRU state lives behind **lock stripes**: vertex `v` maps to stripe
/// `v mod s`, each stripe an independent LRU over its share of the
/// capacity, so concurrent walkers touching different stripes never
/// contend. [`CachedAccess::new`] uses a single stripe — bit-identical to
/// the historical sequential LRU — and [`CachedAccess::with_stripes`]
/// splits the capacity for multi-walker workloads. Hit/miss totals are
/// kept in sharded atomic counters; `hits + misses` equals the number of
/// logical fetches under any interleaving, though the *split* between
/// them is schedule-dependent once walkers genuinely race (eviction order
/// depends on interleaving, exactly as in a production cache).
///
/// ```
/// use frontier_sampling::backend::CachedAccess;
/// use frontier_sampling::{Budget, CostModel, SingleRw};
/// use rand::SeedableRng;
///
/// let g = fs_graph::graph_from_undirected_pairs(4, [(0, 1), (1, 2), (0, 2), (2, 3)]);
/// let cached = CachedAccess::new(&g, 64);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
/// let mut budget = Budget::new(500.0);
/// SingleRw::new().sample_edges(&cached, &CostModel::unit(), &mut budget, &mut rng, |_| {});
/// // A long walk on a 4-vertex graph re-fetches constantly.
/// assert!(cached.hit_ratio() > 0.9);
/// ```
#[derive(Debug)]
pub struct CachedAccess<A> {
    inner: A,
    /// Independent LRU stripes; vertex `v` lives in stripe `v % len`.
    stripes: Box<[Mutex<LruModel>]>,
    /// Total capacity across stripes, remembered for `with_stripes`.
    capacity: usize,
    /// Distinguishes this instance in the per-thread coalescing slot.
    instance: u64,
    hits: ShardedCounter,
    misses: ShardedCounter,
}

/// Source of unique [`CachedAccess`] instance ids (for the thread-local
/// coalescing slot).
static NEXT_CACHE_INSTANCE: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Per-`(thread, cache instance)` vertex of the immediately
    /// preceding cache touch: instance id → vertex id. Keyed per
    /// instance so that composed or interleaved decorators each keep
    /// their own coalescing run (exactly the historical per-instance
    /// `Cell` semantics), and per thread so each walker thread coalesces
    /// its own consecutive touches without a lock on the hot path.
    static LAST_CACHE_FETCH: RefCell<HashMap<u64, u64>> = RefCell::new(HashMap::new());
}

impl<A: GraphAccess> CachedAccess<A> {
    /// Wraps `inner` with a single-stripe LRU model holding `capacity`
    /// vertices (exact sequential LRU semantics).
    pub fn new(inner: A, capacity: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be at least 1");
        CachedAccess {
            inner,
            stripes: Box::new([Mutex::new(LruModel::new(capacity))]),
            capacity,
            instance: NEXT_CACHE_INSTANCE.fetch_add(1, Ordering::Relaxed),
            hits: ShardedCounter::new(),
            misses: ShardedCounter::new(),
        }
    }

    /// Splits the cache into `stripes` independent lock stripes whose
    /// capacities sum **exactly** to the configured capacity (the first
    /// `capacity mod stripes` stripes hold one extra slot). Call before
    /// serving queries — restriping discards hit/miss statistics and the
    /// cached set. The union of the per-stripe LRUs approximates one
    /// global LRU (stripe-local eviction instead of global recency
    /// order), which is the same trade production segmented caches make.
    ///
    /// A stripe cannot hold less than one vertex, so when `stripes`
    /// exceeds the capacity the stripe count is **clamped to the
    /// capacity** — every stripe stays usable (a zero-capacity stripe
    /// would evict each entry on insert, silently turning every fetch of
    /// the vertices it owns into a miss) and the total capacity is
    /// preserved exactly. Callers sizing stripes from a thread count
    /// need not cross-check it against the cache size.
    ///
    /// # Panics
    /// If `stripes` is 0.
    pub fn with_stripes(mut self, stripes: usize) -> Self {
        assert!(stripes >= 1, "need at least one stripe");
        let stripes = stripes.min(self.capacity);
        let per_stripe = self.capacity / stripes;
        let extra = self.capacity % stripes;
        self.stripes = (0..stripes)
            .map(|k| Mutex::new(LruModel::new(per_stripe + usize::from(k < extra))))
            .collect();
        self.hits = ShardedCounter::new();
        self.misses = ShardedCounter::new();
        self
    }

    /// Number of lock stripes.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Cache misses so far (unique-enough fetches).
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// `hits / (hits + misses)`; 0 before any fetch.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits.get() + self.misses.get();
        if total == 0 {
            return 0.0;
        }
        self.hits.get() as f64 / total as f64
    }

    /// Number of distinct vertices currently modelled as cached, summed
    /// over the stripes.
    pub fn cached_vertices(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("LRU stripe poisoned").stamps.len())
            .sum()
    }

    fn touch(&self, v: VertexId) {
        let vertex = v.index() as u64;
        let coalesced = LAST_CACHE_FETCH.with(|slot| {
            match slot.borrow_mut().insert(self.instance, vertex) {
                // Same logical fetch as this thread's previous probe of
                // this instance (e.g. degree(v) then query_neighbor(v,
                // ..) within one walk step); `v` is already most-recent
                // in its stripe.
                Some(prev) => prev == vertex,
                None => false,
            }
        });
        if coalesced {
            return;
        }
        let stripe = v.index() % self.stripes.len();
        let hit = self.stripes[stripe]
            .lock()
            .expect("LRU stripe poisoned")
            .touch(v.index());
        if hit {
            self.hits.incr();
        } else {
            self.misses.incr();
        }
    }
}

impl<A> Drop for CachedAccess<A> {
    /// Releases the dropping thread's coalescing slot for this instance.
    /// Slots that *other* threads created (`run_chains` threads are
    /// scoped, so theirs die with the thread) are reclaimed at those
    /// threads' exit; instance ids are never reused, so a stale entry can
    /// only waste its 16 bytes, never alias a live cache.
    fn drop(&mut self) {
        let _ = LAST_CACHE_FETCH.try_with(|slot| {
            slot.borrow_mut().remove(&self.instance);
        });
    }
}

impl<A: GraphAccess> GraphAccess for CachedAccess<A> {
    type Neighbors<'a>
        = A::Neighbors<'a>
    where
        Self: 'a;

    #[inline]
    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }
    fn degree(&self, v: VertexId) -> usize {
        self.touch(v);
        self.inner.degree(v)
    }
    fn neighbors(&self, v: VertexId) -> Self::Neighbors<'_> {
        self.touch(v);
        self.inner.neighbors(v)
    }
    fn nth_neighbor(&self, v: VertexId, i: usize) -> VertexId {
        self.touch(v);
        self.inner.nth_neighbor(v, i)
    }
    fn query_neighbor(&self, v: VertexId, i: usize) -> NeighborReply {
        self.touch(v);
        self.inner.query_neighbor(v, i)
    }
    fn step_query(&self, v: VertexId, i: usize) -> StepReply {
        // One lookup pair per step: the pick reads v's cached adjacency
        // (coalesced with the arrival fetch of v) and the reply's degree
        // is the fetch of the vertex stepped to — exactly the touches the
        // historical degree(v) + query_neighbor(v, i) + degree(target)
        // sequence produced, so hit/miss accounting is unchanged.
        self.touch(v);
        let out = self.inner.step_query(v, i);
        if let Some(t) = out.reply.moved_to() {
            self.touch(t);
        }
        out
    }
    fn step_query_at(&self, v: VertexId, row: usize, i: usize) -> StepReply {
        // A walker holding v's row handle still *logically* reads v's
        // adjacency list for the pick — same touch pair as `step_query`.
        self.touch(v);
        let out = self.inner.step_query_at(v, row, i);
        if let Some(t) = out.reply.moved_to() {
            self.touch(t);
        }
        out
    }
    #[inline]
    fn vertex_row(&self, v: VertexId) -> usize {
        // Free topology read (handle bootstrap), not a modelled fetch.
        self.inner.vertex_row(v)
    }
    fn query_vertex(&self, v: VertexId) -> usize {
        self.touch(v);
        self.inner.query_vertex(v)
    }
    #[inline]
    fn num_arcs(&self) -> usize {
        self.inner.num_arcs()
    }
    #[inline]
    fn arc_endpoints(&self, a: ArcId) -> Arc {
        self.inner.arc_endpoints(a)
    }
    #[inline]
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.inner.has_edge(u, v)
    }
    #[inline]
    fn in_degree_orig(&self, v: VertexId) -> usize {
        self.inner.in_degree_orig(v)
    }
    #[inline]
    fn out_degree_orig(&self, v: VertexId) -> usize {
        self.inner.out_degree_orig(v)
    }
    #[inline]
    fn has_original_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.inner.has_original_edge(u, v)
    }
    #[inline]
    fn groups_of(&self, v: VertexId) -> &[GroupId] {
        self.inner.groups_of(v)
    }
    #[inline]
    fn num_groups(&self) -> usize {
        self.inner.num_groups()
    }
    #[inline]
    fn cost_factor(&self, kind: QueryKind) -> f64 {
        self.inner.cost_factor(kind)
    }
    #[inline]
    fn queries_issued(&self) -> u64 {
        self.inner.queries_issued()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{Budget, CostModel};
    use crate::frontier::FrontierSampler;
    use crate::single::SingleRw;
    use fs_graph::{graph_from_undirected_pairs, BitSet, CsrAccess};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn two_triangles_bridged() -> Graph {
        graph_from_undirected_pairs(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    }
    use fs_graph::Graph;

    #[test]
    fn fault_free_crawl_matches_csr_exactly() {
        let g = two_triangles_bridged();
        let crawler = CrawlAccess::new(&g);
        let csr = CsrAccess::new(&g);
        let run = |access: &dyn Fn(&mut SmallRng, &mut Vec<Arc>)| {
            let mut rng = SmallRng::seed_from_u64(42);
            let mut edges = Vec::new();
            access(&mut rng, &mut edges);
            edges
        };
        let a = run(&|rng, edges| {
            let mut budget = Budget::new(500.0);
            FrontierSampler::new(3).sample_edges(
                &crawler,
                &CostModel::unit(),
                &mut budget,
                rng,
                |e| edges.push(e),
            );
        });
        let b = run(&|rng, edges| {
            let mut budget = Budget::new(500.0);
            FrontierSampler::new(3).sample_edges(&csr, &CostModel::unit(), &mut budget, rng, |e| {
                edges.push(e)
            });
        });
        assert_eq!(a, b, "fault-free crawl must replay the CSR walk");
        assert_eq!(crawler.stats().neighbor_queries, a.len() as u64);
        assert_eq!(crawler.stats().lost_replies, 0);
        assert_eq!(crawler.stats().success_ratio(), 1.0);
    }

    #[test]
    fn sample_loss_drops_proportionally_and_accounts() {
        let g = two_triangles_bridged();
        let crawler = CrawlAccess::new(&g).with_sample_loss(0.3, 7);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut budget = Budget::new(60_000.0);
        let mut kept = 0u64;
        SingleRw::new().sample_edges(&crawler, &CostModel::unit(), &mut budget, &mut rng, |_| {
            kept += 1
        });
        let stats = crawler.stats();
        assert_eq!(stats.neighbor_queries, kept + stats.lost_replies);
        let loss = stats.lost_replies as f64 / stats.neighbor_queries as f64;
        assert!((loss - 0.3).abs() < 0.02, "observed loss {loss}");
        assert!((stats.success_ratio() - 0.7).abs() < 0.02);
    }

    #[test]
    fn dead_vertices_bounce_and_are_never_reported() {
        let g = graph_from_undirected_pairs(4, [(0, 1), (1, 2), (0, 2), (2, 3)]);
        let mut dead = BitSet::new(4);
        dead.set(3);
        let crawler = CrawlAccess::new(&g).with_dead_vertices(DeadVertexModel::from_set(dead));
        let mut rng = SmallRng::seed_from_u64(2);
        let mut budget = Budget::new(50_000.0);
        let mut visited3 = false;
        SingleRw::new().sample_edges(&crawler, &CostModel::unit(), &mut budget, &mut rng, |e| {
            visited3 |= e.target.index() == 3;
        });
        assert!(!visited3, "dead vertex must never be reported");
        assert!(crawler.stats().unresponsive > 0, "bounces must be counted");
        crawler.reset_stats();
        assert_eq!(crawler.stats(), CrawlStats::default());
    }

    #[test]
    fn surcharges_scale_budget_spend() {
        let g = two_triangles_bridged();
        // Step surcharge 2 and start surcharge 3: B = 100 buys
        // m = 2 starts (6 units) + 47 steps (94 units).
        let crawler = CrawlAccess::new(&g)
            .with_step_surcharge(2.0)
            .with_vertex_surcharge(3.0);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut budget = Budget::new(100.0);
        let mut count = 0usize;
        FrontierSampler::new(2).sample_edges(
            &crawler,
            &CostModel::unit(),
            &mut budget,
            &mut rng,
            |_| count += 1,
        );
        assert_eq!(count, 47);
        assert_eq!(budget.spent(), 100.0);
    }

    #[test]
    fn lru_model_hits_and_evicts() {
        let mut lru = LruModel::new(2);
        assert!(!lru.touch(1));
        assert!(!lru.touch(2));
        assert!(lru.touch(1)); // still cached
        assert!(!lru.touch(3)); // evicts 2 (LRU)
        assert!(!lru.touch(2)); // 2 was evicted
        assert!(lru.touch(2));
        assert_eq!(lru.stamps.len(), 2);
    }

    #[test]
    fn cached_access_reports_hub_heavy_hit_ratio() {
        let g = two_triangles_bridged();
        let cached = CachedAccess::new(&g, 3);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut budget = Budget::new(10_000.0);
        SingleRw::new().sample_edges(&cached, &CostModel::unit(), &mut budget, &mut rng, |_| {});
        // 6 vertices, cache of 3, heavy revisits: well above half hits
        // even with consecutive same-vertex touches coalesced.
        assert!(cached.hit_ratio() > 0.5, "hit ratio {}", cached.hit_ratio());
        assert!(cached.cached_vertices() <= 3);
    }

    #[test]
    fn lru_queue_stays_bounded_below_capacity() {
        // A cache that never exceeds capacity must not accumulate state:
        // eviction never runs, so only the compaction pass keeps the
        // lazy-deletion queue finite.
        let mut lru = LruModel::new(8);
        for i in 0..100_000usize {
            lru.touch(i % 4);
        }
        assert_eq!(lru.stamps.len(), 4);
        assert!(
            lru.queue.len() <= 16,
            "lazy queue grew to {}",
            lru.queue.len()
        );
    }

    #[test]
    fn coalesces_consecutive_touches_of_one_vertex() {
        let g = graph_from_undirected_pairs(4, [(0, 1), (1, 2), (2, 3)]);
        let cached = CachedAccess::new(&g, 10);
        // degree + query_neighbor of the same vertex = one logical fetch.
        let _ = cached.degree(VertexId::new(1));
        let _ = cached.query_neighbor(VertexId::new(1), 0);
        assert_eq!((cached.hits(), cached.misses()), (0, 1));
        // A different vertex in between breaks the run.
        let _ = cached.degree(VertexId::new(2));
        let _ = cached.degree(VertexId::new(1));
        assert_eq!((cached.hits(), cached.misses()), (1, 2));
    }

    #[test]
    fn composed_caches_coalesce_independently() {
        // Regression: the per-thread coalescing slot is keyed by cache
        // instance, so nested decorators each coalesce their own
        // consecutive touches — degree(v) + query_neighbor(v, ..) is one
        // logical fetch *per layer*, exactly the historical per-instance
        // semantics.
        let g = graph_from_undirected_pairs(4, [(0, 1), (1, 2), (2, 3)]);
        let nested = CachedAccess::new(CachedAccess::new(&g, 10), 10);
        let _ = nested.degree(VertexId::new(1));
        let _ = nested.query_neighbor(VertexId::new(1), 0);
        assert_eq!((nested.hits(), nested.misses()), (0, 1), "outer layer");
        assert_eq!(
            (nested.inner().hits(), nested.inner().misses()),
            (0, 1),
            "inner layer"
        );
        // Interleaving two sibling instances must not break either run:
        // each instance's consecutive same-vertex touches stay one
        // logical fetch (the historical per-instance `Cell` never saw
        // other instances' touches).
        let a = CachedAccess::new(&g, 10);
        let b = CachedAccess::new(&g, 10);
        for _ in 0..3 {
            let _ = a.degree(VertexId::new(2));
            let _ = b.degree(VertexId::new(2));
        }
        assert_eq!((a.hits(), a.misses()), (0, 1));
        assert_eq!((b.hits(), b.misses()), (0, 1));
    }

    #[test]
    fn cached_access_does_not_perturb_walks() {
        let g = two_triangles_bridged();
        let run_plain = || {
            let mut rng = SmallRng::seed_from_u64(5);
            let mut budget = Budget::new(300.0);
            let mut edges = Vec::new();
            FrontierSampler::new(2).sample_edges(
                &g,
                &CostModel::unit(),
                &mut budget,
                &mut rng,
                |e| edges.push(e),
            );
            edges
        };
        let run_cached = || {
            let cached = CachedAccess::new(&g, 2);
            let mut rng = SmallRng::seed_from_u64(5);
            let mut budget = Budget::new(300.0);
            let mut edges = Vec::new();
            FrontierSampler::new(2).sample_edges(
                &cached,
                &CostModel::unit(),
                &mut budget,
                &mut rng,
                |e| edges.push(e),
            );
            edges
        };
        assert_eq!(run_plain(), run_cached());
    }

    #[test]
    fn with_stripes_distributes_capacity_exactly() {
        // Odd (capacity, stripes) pairs, including stripes > capacity
        // (clamped) and non-dividing splits: the per-stripe capacities
        // must sum exactly to the configured capacity and no stripe may
        // end up with zero slots.
        for (capacity, stripes) in [
            (1usize, 1usize),
            (1, 4),
            (2, 3),
            (3, 2),
            (5, 3),
            (7, 16),
            (13, 5),
            (64, 7),
            (100, 100),
        ] {
            let g = graph_from_undirected_pairs(4, [(0, 1), (1, 2), (2, 3)]);
            let cached = CachedAccess::new(&g, capacity).with_stripes(stripes);
            assert_eq!(
                cached.stripe_count(),
                stripes.min(capacity),
                "({capacity}, {stripes}): stripe count"
            );
            let caps: Vec<usize> = cached
                .stripes
                .iter()
                .map(|s| s.lock().unwrap().capacity)
                .collect();
            assert!(
                caps.iter().all(|&c| c >= 1),
                "({capacity}, {stripes}): zero-capacity stripe in {caps:?}"
            );
            assert_eq!(
                caps.iter().sum::<usize>(),
                capacity,
                "({capacity}, {stripes}): total capacity drifted: {caps:?}"
            );
            // Capacities differ by at most one (balanced split).
            let (lo, hi) = (caps.iter().min().unwrap(), caps.iter().max().unwrap());
            assert!(hi - lo <= 1, "({capacity}, {stripes}): unbalanced {caps:?}");
        }
    }

    #[test]
    fn more_stripes_than_capacity_still_caches() {
        // Regression: stripes > capacity historically panicked; clamped
        // stripes must behave like a working cache (a revisit is a hit).
        let g = graph_from_undirected_pairs(4, [(0, 1), (1, 2), (2, 3)]);
        let cached = CachedAccess::new(&g, 2).with_stripes(8);
        let _ = cached.degree(VertexId::new(0));
        let _ = cached.degree(VertexId::new(1));
        let _ = cached.degree(VertexId::new(0));
        assert_eq!((cached.hits(), cached.misses()), (1, 2));
    }

    #[test]
    fn exact_hit_count_on_scripted_queries() {
        let g = graph_from_undirected_pairs(4, [(0, 1), (1, 2), (2, 3)]);
        let cached = CachedAccess::new(&g, 10);
        // 3 distinct vertices fetched, one twice: 1 hit, 3 misses.
        let _ = cached.degree(VertexId::new(0));
        let _ = cached.degree(VertexId::new(1));
        let _ = cached.neighbors(VertexId::new(0));
        let _ = cached.query_neighbor(VertexId::new(2), 0);
        assert_eq!(cached.hits(), 1);
        assert_eq!(cached.misses(), 3);
        assert!((cached.hit_ratio() - 0.25).abs() < 1e-12);
    }
}
