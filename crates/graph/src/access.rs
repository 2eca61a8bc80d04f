//! # `GraphAccess` — the crawl-oracle seam between samplers and storage
//!
//! ## The paper's access model (Section 2)
//!
//! Ribeiro & Towsley's samplers are designed for graphs that can **only be
//! crawled**: "the graph topology is unknown and sampling is performed by
//! either (a) querying randomly generated vertex (or edge) ids or (b)
//! querying neighbors of previously queried vertices" — an OSN profile
//! page, a router interface, a P2P peer. Querying a vertex reveals its
//! full adjacency list (both in- and out-edges, hence the symmetric
//! closure `G`), and *every query has a cost* charged against a fixed
//! sampling budget `B`.
//!
//! The in-memory CSR [`Graph`] is therefore *not* the
//! paper's object of study — it is the simulator's ground truth. This
//! trait abstracts the three primitives the paper's crawler actually has,
//! so samplers can run unchanged over an in-memory graph, a simulated
//! crawler with failures, a caching layer, or (the roadmap's direction)
//! sharded/remote backends:
//!
//! 1. **vertex-universe access** — the id space `0..num_vertices` that
//!    random-vertex queries draw from ([`GraphAccess::num_vertices`]);
//! 2. **neighborhood queries** — degree and neighbor lookup of a crawled
//!    vertex ([`GraphAccess::degree`], [`GraphAccess::neighbors`],
//!    [`GraphAccess::query_neighbor`]);
//! 3. **global edge access** — uniform random edges, available on some
//!    systems (Section 3's random-edge baseline) and needed by the
//!    steady-state start oracle ([`GraphAccess::num_arcs`],
//!    [`GraphAccess::arc_endpoints`]).
//!
//! ## How cost accounting maps to the paper's budget `B`
//!
//! The budget bookkeeping itself lives in the sampling crate
//! (`frontier_sampling::Budget` / `CostModel`): every walk step costs
//! `walk_step` (the paper's unit cost), every uniform vertex draw costs
//! `uniform_vertex` (the paper's `c ≥ 1`, or `1/h` under a sparse id
//! space with hit ratio `h`, Section 6.4), every random edge
//! `random_edge`. What the *backend* controls is the multiplicative
//! [`GraphAccess::cost_factor`] applied on top per [`QueryKind`]: a plain
//! in-memory graph charges factor 1 (the paper's unitary-cost
//! assumption), while a crawl backend can surcharge queries (rate limits,
//! retries) without the samplers knowing. A sampler spends
//! `base_cost(kind) × cost_factor(kind)` from its budget before issuing
//! each query, which reproduces Algorithm 1's accounting: `m` walker
//! initialisations pay `m·c` and the walk then takes `B − mc` steps.
//!
//! ## Failure semantics
//!
//! Real crawls lose queries. [`GraphAccess::query_neighbor`] returns a
//! [`NeighborReply`] that distinguishes the three outcomes walkers must
//! handle; in-memory backends always answer
//! [`NeighborReply::Vertex`], so after monomorphization the failure
//! branches vanish from the hot path (verified by the
//! `access_overhead` bench).
//!
//! ## Contract
//!
//! * Vertex ids form the dense range `0..num_vertices()`.
//! * `neighbors(v)` is sorted ascending, deduplicated, and self-loop
//!   free; `degree(v) == neighbors(v).len()`; adjacency is symmetric.
//! * `query_neighbor(v, i)` resolves the same vertex `neighbors(v)[i]`
//!   would, but routes through the backend's failure/accounting model.
//! * Implementations use interior mutability for statistics; methods take
//!   `&self`, and the trait requires `Sync`, so one backend instance can
//!   serve many concurrent walkers (`frontier_sampling::parallel`).
//!   Statistics must therefore be thread-safe — atomic or sharded
//!   ([`crate::sharded::ShardedCounter`]) rather than `Cell`-based — and
//!   counter *totals* must be exact under concurrency (no lost updates),
//!   though the interleaving of replies may of course depend on the
//!   schedule once the backend injects faults.

use crate::graph::{Arc, Graph};
use crate::ids::{ArcId, GroupId, VertexId};

/// The kinds of budget-charged queries a sampler issues, mirroring the
/// three costs of the paper's Section 2/6.4 model.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Querying a neighbor of an already-crawled vertex (one walk step;
    /// the paper's unit cost).
    NeighborStep,
    /// Querying a uniformly random vertex id (the paper's cost `c`, or
    /// `1/h` under hit ratio `h`).
    UniformVertex,
    /// Querying a uniformly random edge (cost 2 by default — two
    /// endpoints — divided by the edge hit ratio).
    RandomEdge,
}

/// Outcome of resolving one neighbor query through a backend.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum NeighborReply {
    /// The query succeeded: the walker moves to this vertex and the edge
    /// is reported as a sample.
    Vertex(VertexId),
    /// The crawler reached the vertex but the *response payload* was lost
    /// (timeout after the move, dropped record): the walker still moves,
    /// but no sample is reported. Budget is spent either way.
    Lost(VertexId),
    /// The target never responds (deleted account, dead host): the walker
    /// stays where it is and no sample is reported. Budget is spent.
    Unresponsive,
}

impl NeighborReply {
    /// The vertex the walker occupies after this reply, if it moved.
    pub fn moved_to(self) -> Option<VertexId> {
        match self {
            NeighborReply::Vertex(v) | NeighborReply::Lost(v) => Some(v),
            NeighborReply::Unresponsive => None,
        }
    }
}

/// Outcome of one **combined step query** ([`GraphAccess::step_query`]):
/// the neighbor resolution plus the degree of the vertex stepped to.
///
/// This is the paper's Section 2 query shape: crawling a vertex returns
/// its full neighbor list, so the degree of wherever the walker lands is
/// part of the *same* charged query, never a second round-trip. The
/// walkers carry the degree forward, which is what lets every sampler
/// issue exactly one backend query per step.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StepReply {
    /// How the neighbor query resolved.
    pub reply: NeighborReply,
    /// Degree of the vertex the walker moved to ([`NeighborReply::Vertex`]
    /// or [`NeighborReply::Lost`]); 0 for [`NeighborReply::Unresponsive`]
    /// (an unresponsive vertex reveals nothing — the walker keeps the
    /// degree of where it already stands).
    pub target_degree: usize,
    /// Backend-defined **row handle** of the vertex moved to — the
    /// walker-side stand-in for "I am holding this vertex's neighbor
    /// list". CSR backends return the target's row start (its
    /// `offsets[t]`, loaded for the degree anyway), so the *next* step
    /// via [`GraphAccess::step_query_at`] skips the `offsets[v]` lookup
    /// entirely. Backends without a natural handle return 0 and ignore
    /// the handle on the way back in. 0 when the walker did not move.
    pub target_row: usize,
}

/// One walker's pending step inside a [`GraphAccess::step_query_batch`]
/// call: the inputs of a [`GraphAccess::step_query_at`] (`vertex`,
/// `row`, `neighbor` pick) plus the `reply` slot the backend fills.
///
/// The batched engine (`frontier_sampling::batch`) keeps 8–16 of these
/// in flight per call so a CSR backend can overlap every slot's
/// dependent load chain with software prefetch instead of serializing
/// one cache miss chain per walker.
#[derive(Copy, Clone, Debug)]
pub struct StepSlot {
    /// The walker's current vertex.
    pub vertex: VertexId,
    /// The walker's carried row handle (see [`StepReply::target_row`]).
    pub row: usize,
    /// The neighbor pick `i` (`0 ≤ i < deg(vertex)`), drawn by the
    /// caller *before* the batch call so per-walker RNG order is
    /// independent of batching.
    pub neighbor: usize,
    /// Output: filled by the backend exactly as `step_query_at(vertex,
    /// row, neighbor)` would.
    pub reply: StepReply,
}

impl StepSlot {
    /// A slot awaiting resolution for walker state `(vertex, row)` and
    /// neighbor pick `i`.
    #[inline]
    pub fn new(vertex: VertexId, row: usize, i: usize) -> Self {
        StepSlot {
            vertex,
            row,
            neighbor: i,
            reply: StepReply {
                reply: NeighborReply::Unresponsive,
                target_degree: 0,
                target_row: 0,
            },
        }
    }
}

/// Abstract neighbor-query oracle over a (logical) symmetric graph.
///
/// See the [module docs](self) for the crawl model, cost accounting, and
/// the implementation contract. Samplers and estimators in
/// `frontier_sampling` are generic over this trait; backends:
///
/// | backend | where | models |
/// |---------|-------|--------|
/// | [`Graph`] / [`CsrAccess`] | this crate | zero-cost in-memory access |
/// | `CrawlAccess` | `frontier_sampling::backend` | budget surcharges, query loss, dead vertices |
/// | `CachedAccess<A>` | `frontier_sampling::backend` | LRU repeated-query deduplication |
pub trait GraphAccess: Sync {
    /// Borrowed or owned neighbor-list handle (`&[VertexId]` for
    /// in-memory backends; owned buffers for future remote ones).
    type Neighbors<'a>: AsRef<[VertexId]>
    where
        Self: 'a;

    /// Size of the vertex id universe `|V|` (ids are `0..num_vertices`).
    fn num_vertices(&self) -> usize;

    /// Symmetric degree `deg(v)`.
    fn degree(&self, v: VertexId) -> usize;

    /// Sorted neighbor list of `v` in the symmetric closure.
    fn neighbors(&self, v: VertexId) -> Self::Neighbors<'_>;

    /// Resolves the `i`-th neighbor of `v` (`0 ≤ i < deg(v)`) as a crawl
    /// query, routing through the backend's failure model. In-memory
    /// backends always answer [`NeighborReply::Vertex`].
    fn query_neighbor(&self, v: VertexId, i: usize) -> NeighborReply {
        NeighborReply::Vertex(self.nth_neighbor(v, i))
    }

    /// The hot-path step primitive: resolves the `i`-th neighbor of `v`
    /// **and** the degree of the vertex stepped to as **one charged crawl
    /// query** (Section 2: a query returns the full neighbor list, hence
    /// the degree). Walkers that carry their current degree forward never
    /// need a separate `degree` round-trip per step.
    ///
    /// Backends must keep this consistent with [`Self::query_neighbor`]
    /// (same failure model, same accounting: exactly one counted query)
    /// and are encouraged to override it with a fused read — the CSR
    /// implementation resolves pick + degree from one offsets load pair.
    fn step_query(&self, v: VertexId, i: usize) -> StepReply {
        let reply = self.query_neighbor(v, i);
        let (target_degree, target_row) = reply
            .moved_to()
            .map_or((0, 0), |t| (self.degree(t), self.vertex_row(t)));
        StepReply {
            reply,
            target_degree,
            target_row,
        }
    }

    /// [`Self::step_query`] for a walker that also carries its **row
    /// handle** (the previous reply's [`StepReply::target_row`], or
    /// [`Self::vertex_row`] at the start crawl). Semantically identical
    /// to `step_query(v, i)` — same failure model, same single charged
    /// query — but a CSR backend resolves it in 2 dependent loads
    /// instead of 3 (`row` replaces the `offsets[v]` lookup).
    fn step_query_at(&self, v: VertexId, row: usize, i: usize) -> StepReply {
        let _ = row;
        self.step_query(v, i)
    }

    /// Resolves a batch of step queries — one [`Self::step_query_at`]
    /// per slot, filling each [`StepSlot::reply`] in place.
    ///
    /// Semantically this is exactly a loop over `step_query_at` (the
    /// default implementation *is* that loop, which keeps accounting
    /// and failure-model backends correct with no extra work), and the
    /// results must be bit-identical to the sequential calls in slot
    /// order. CSR-shaped backends override it with a software-pipelined
    /// pass — prefetch every slot's `targets[row + i]` line, then every
    /// target's `offsets[t..]` line, then resolve — so the dependent
    /// load chains of up to 16 interleaved walkers overlap instead of
    /// serializing (see `Csr::step_at_batch`).
    fn step_query_batch(&self, slots: &mut [StepSlot]) {
        for slot in slots {
            slot.reply = self.step_query_at(slot.vertex, slot.row, slot.neighbor);
        }
    }

    /// Row handle of `v` for [`Self::step_query_at`] (free topology
    /// read, not a charged query): the CSR row start for in-memory
    /// backends, 0 for backends without a natural handle.
    fn vertex_row(&self, v: VertexId) -> usize {
        let _ = v;
        0
    }

    /// Resolves a uniformly drawn vertex id as a crawl query, returning
    /// the degree its profile reveals (0 ⇒ the id is unwalkable and the
    /// caller redraws). Start-vertex draws and RWJ jump landings route
    /// through this so query-counting backends can charge them — the
    /// Section 2 budget identity `total queries = starts + walk steps`
    /// depends on it. Plain in-memory backends answer from topology.
    fn query_vertex(&self, v: VertexId) -> usize {
        self.degree(v)
    }

    /// The `i`-th neighbor of `v` without failure modelling (topology
    /// inspection, not a charged crawl query).
    fn nth_neighbor(&self, v: VertexId, i: usize) -> VertexId {
        self.neighbors(v).as_ref()[i]
    }

    /// Number of arcs of the symmetric closure, `|E| = vol(V)`.
    fn num_arcs(&self) -> usize;

    /// `vol(V) = Σ_v deg(v)` (equals [`Self::num_arcs`]).
    fn volume(&self) -> usize {
        self.num_arcs()
    }

    /// Endpoints of arc `a` (global random-edge access; backends without
    /// it may panic — the samplers that need it say so in their docs).
    fn arc_endpoints(&self, a: ArcId) -> Arc;

    /// Whether the symmetric arc `(u, v)` exists.
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).as_ref().binary_search(&v).is_ok()
    }

    /// In-degree of `v` in the original directed graph `G_d` (vertex
    /// metadata revealed by crawling `v`).
    fn in_degree_orig(&self, v: VertexId) -> usize;

    /// Out-degree of `v` in the original directed graph `G_d`.
    fn out_degree_orig(&self, v: VertexId) -> usize;

    /// Whether the directed edge `(u, v)` existed in `E_d`.
    fn has_original_edge(&self, u: VertexId, v: VertexId) -> bool;

    /// Group labels of `v` (Section 6.5 special-interest groups).
    fn groups_of(&self, v: VertexId) -> &[GroupId];

    /// Total number of distinct groups.
    fn num_groups(&self) -> usize;

    /// Multiplicative budget surcharge for `kind` queries; the sampler
    /// charges `CostModel base × cost_factor`. Default: 1 (the paper's
    /// unitary-cost crawler).
    fn cost_factor(&self, kind: QueryKind) -> f64 {
        let _ = kind;
        1.0
    }

    /// Cumulative number of charged crawl queries answered — neighbor
    /// steps ([`Self::query_neighbor`] / [`Self::step_query`]) plus
    /// uniform-vertex draws ([`Self::query_vertex`]). 0 for backends that
    /// do not track queries. Under [`crate::access`]'s combined-query
    /// model this equals `initial starts + walk steps` for the paper's
    /// walkers (the Section 2 budget identity).
    fn queries_issued(&self) -> u64 {
        0
    }
}

/// Expands to the [`GraphAccess`] methods that delegate verbatim to an
/// inner implementor reachable via the expression written with a `$g`
/// placeholder for `self`. Used by every delegating backend (here and in
/// `frontier_sampling::backend`) so a new trait method is added in one
/// place.
#[doc(hidden)]
#[macro_export]
macro_rules! delegate_graph_access {
    ($self_:ident => $g:expr) => {
        #[inline]
        fn num_vertices(&$self_) -> usize {
            $g.num_vertices()
        }
        #[inline]
        fn degree(&$self_, v: $crate::VertexId) -> usize {
            $g.degree(v)
        }
        #[inline]
        fn nth_neighbor(&$self_, v: $crate::VertexId, i: usize) -> $crate::VertexId {
            $g.nth_neighbor(v, i)
        }
        #[inline]
        fn num_arcs(&$self_) -> usize {
            $g.num_arcs()
        }
        #[inline]
        fn arc_endpoints(&$self_, a: $crate::ArcId) -> $crate::Arc {
            $g.arc_endpoints(a)
        }
        #[inline]
        fn has_edge(&$self_, u: $crate::VertexId, v: $crate::VertexId) -> bool {
            $g.has_edge(u, v)
        }
        #[inline]
        fn in_degree_orig(&$self_, v: $crate::VertexId) -> usize {
            $g.in_degree_orig(v)
        }
        #[inline]
        fn out_degree_orig(&$self_, v: $crate::VertexId) -> usize {
            $g.out_degree_orig(v)
        }
        #[inline]
        fn has_original_edge(&$self_, u: $crate::VertexId, v: $crate::VertexId) -> bool {
            $g.has_original_edge(u, v)
        }
        #[inline]
        fn groups_of(&$self_, v: $crate::VertexId) -> &[$crate::GroupId] {
            $g.groups_of(v)
        }
        #[inline]
        fn num_groups(&$self_) -> usize {
            $g.num_groups()
        }
    };
}

impl GraphAccess for Graph {
    type Neighbors<'a> = &'a [VertexId];

    #[inline]
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        Graph::neighbors(self, v)
    }

    #[inline]
    fn step_query(&self, v: VertexId, i: usize) -> StepReply {
        self.step_query_at(v, self.row_start(v), i)
    }

    #[inline]
    fn step_query_at(&self, v: VertexId, row: usize, i: usize) -> StepReply {
        debug_assert_eq!(row, self.row_start(v), "stale row handle");
        let (target, target_degree, target_row) = self.nth_neighbor_with_degree_at(row, i);
        StepReply {
            reply: NeighborReply::Vertex(target),
            target_degree,
            target_row,
        }
    }

    #[inline]
    fn vertex_row(&self, v: VertexId) -> usize {
        self.row_start(v)
    }

    #[inline]
    fn step_query_batch(&self, slots: &mut [StepSlot]) {
        self.step_batch(slots);
    }

    delegate_graph_access!(self => self);
}

/// Zero-cost [`GraphAccess`] wrapper over a borrowed CSR [`Graph`].
///
/// `Graph` itself implements the trait, so most call sites simply pass
/// `&graph`; `CsrAccess` exists to *name* the in-memory backend in
/// configuration enums, parity tests, and benchmarks (where it is
/// measured against direct CSR access to confirm monomorphization erases
/// the trait layer).
#[derive(Copy, Clone, Debug)]
pub struct CsrAccess<'g>(pub &'g Graph);

impl<'g> CsrAccess<'g> {
    /// Wraps a graph.
    pub fn new(graph: &'g Graph) -> Self {
        CsrAccess(graph)
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.0
    }
}

impl GraphAccess for CsrAccess<'_> {
    type Neighbors<'a>
        = &'a [VertexId]
    where
        Self: 'a;

    #[inline]
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.0.neighbors(v)
    }

    #[inline]
    fn step_query(&self, v: VertexId, i: usize) -> StepReply {
        self.0.step_query(v, i)
    }

    #[inline]
    fn step_query_at(&self, v: VertexId, row: usize, i: usize) -> StepReply {
        self.0.step_query_at(v, row, i)
    }

    #[inline]
    fn vertex_row(&self, v: VertexId) -> usize {
        self.0.vertex_row(v)
    }

    #[inline]
    fn step_query_batch(&self, slots: &mut [StepSlot]) {
        self.0.step_query_batch(slots);
    }

    delegate_graph_access!(self => self.0);
}

impl<A: GraphAccess + ?Sized> GraphAccess for &A {
    type Neighbors<'a>
        = A::Neighbors<'a>
    where
        Self: 'a;

    #[inline]
    fn neighbors(&self, v: VertexId) -> Self::Neighbors<'_> {
        (**self).neighbors(v)
    }
    #[inline]
    fn query_neighbor(&self, v: VertexId, i: usize) -> NeighborReply {
        (**self).query_neighbor(v, i)
    }
    #[inline]
    fn step_query(&self, v: VertexId, i: usize) -> StepReply {
        (**self).step_query(v, i)
    }
    #[inline]
    fn step_query_at(&self, v: VertexId, row: usize, i: usize) -> StepReply {
        (**self).step_query_at(v, row, i)
    }
    #[inline]
    fn step_query_batch(&self, slots: &mut [StepSlot]) {
        (**self).step_query_batch(slots)
    }
    #[inline]
    fn vertex_row(&self, v: VertexId) -> usize {
        (**self).vertex_row(v)
    }
    #[inline]
    fn query_vertex(&self, v: VertexId) -> usize {
        (**self).query_vertex(v)
    }
    #[inline]
    fn cost_factor(&self, kind: QueryKind) -> f64 {
        (**self).cost_factor(kind)
    }
    #[inline]
    fn queries_issued(&self) -> u64 {
        (**self).queries_issued()
    }

    delegate_graph_access!(self => (**self));
}

/// `|N(u) ∩ N(v)|` over any backend; the generic counterpart of
/// [`crate::triangles::shared_neighbors`], with the same kernel.
pub fn shared_neighbors_via<A: GraphAccess + ?Sized>(
    access: &A,
    u: VertexId,
    v: VertexId,
) -> usize {
    let (nu, nv) = (access.neighbors(u), access.neighbors(v));
    crate::triangles::sorted_intersection_len(nu.as_ref(), nv.as_ref())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_undirected_pairs;

    fn lollipop() -> Graph {
        graph_from_undirected_pairs(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    }

    fn check_backend<A: GraphAccess>(access: &A, graph: &Graph) {
        assert_eq!(access.num_vertices(), graph.num_vertices());
        assert_eq!(access.num_arcs(), graph.num_arcs());
        assert_eq!(access.volume(), graph.volume());
        for v in graph.vertices() {
            assert_eq!(access.degree(v), graph.degree(v));
            assert_eq!(access.neighbors(v).as_ref(), graph.neighbors(v));
            assert_eq!(access.in_degree_orig(v), graph.in_degree_orig(v));
            assert_eq!(access.out_degree_orig(v), graph.out_degree_orig(v));
            assert_eq!(access.groups_of(v), graph.groups_of(v));
            assert_eq!(access.query_vertex(v), graph.degree(v));
            for i in 0..graph.degree(v) {
                assert_eq!(access.nth_neighbor(v, i), graph.nth_neighbor(v, i));
                assert_eq!(
                    access.query_neighbor(v, i),
                    NeighborReply::Vertex(graph.nth_neighbor(v, i))
                );
                let t = graph.nth_neighbor(v, i);
                let expect = StepReply {
                    reply: NeighborReply::Vertex(t),
                    target_degree: graph.degree(t),
                    target_row: graph.row_start(t),
                };
                assert_eq!(access.step_query(v, i), expect);
                assert_eq!(access.step_query_at(v, access.vertex_row(v), i), expect);
            }
            for u in graph.vertices() {
                assert_eq!(access.has_edge(v, u), graph.has_edge(v, u));
                assert_eq!(
                    access.has_original_edge(v, u),
                    graph.has_original_edge(v, u)
                );
            }
        }
        for a in 0..graph.num_arcs() {
            assert_eq!(access.arc_endpoints(a), graph.arc_endpoints(a));
        }
        assert_eq!(access.cost_factor(QueryKind::NeighborStep), 1.0);
        assert_eq!(access.cost_factor(QueryKind::UniformVertex), 1.0);
        assert_eq!(access.cost_factor(QueryKind::RandomEdge), 1.0);
        assert_eq!(access.queries_issued(), 0);
        // The batched path must resolve every slot exactly as the
        // scalar call would, at any batch length.
        let mut slots: Vec<StepSlot> = graph
            .vertices()
            .flat_map(|v| (0..graph.degree(v)).map(move |i| (v, i)))
            .map(|(v, i)| StepSlot::new(v, graph.row_start(v), i))
            .collect();
        access.step_query_batch(&mut slots);
        for s in &slots {
            assert_eq!(s.reply, access.step_query_at(s.vertex, s.row, s.neighbor));
        }
    }

    #[test]
    fn graph_implements_access() {
        let g = lollipop();
        check_backend(&g, &g);
    }

    #[test]
    fn csr_access_delegates_exactly() {
        let g = lollipop();
        check_backend(&CsrAccess::new(&g), &g);
        assert_eq!(CsrAccess::new(&g).graph().num_vertices(), 4);
    }

    #[test]
    fn reference_blanket_impl() {
        let g = lollipop();
        check_backend(&&g, &g);
        let csr = CsrAccess::new(&g);
        check_backend(&&csr, &g);
    }

    #[test]
    fn neighbor_reply_moved_to() {
        let v = VertexId::new(3);
        assert_eq!(NeighborReply::Vertex(v).moved_to(), Some(v));
        assert_eq!(NeighborReply::Lost(v).moved_to(), Some(v));
        assert_eq!(NeighborReply::Unresponsive.moved_to(), None);
    }

    #[test]
    fn shared_neighbors_generic_matches_concrete() {
        let g = lollipop();
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(
                    shared_neighbors_via(&g, u, v),
                    crate::triangles::shared_neighbors(&g, u, v)
                );
            }
        }
    }
}
