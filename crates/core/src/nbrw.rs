//! Non-backtracking random walks (extension baseline).
//!
//! A non-backtracking random walk (NBRW) refuses to re-traverse the edge
//! it just arrived on unless the current vertex has degree 1. On graphs
//! with minimum degree ≥ 2 the NBRW is a random walk on the set of
//! *directed edges* whose stationary distribution is uniform over those
//! edges, so — exactly like the paper's simple RW — vertices are visited
//! with probability proportional to their degree and every Section-4.2
//! estimator applies unchanged. What changes is the *mixing speed*: by
//! suppressing the immediate-return move the walk diffuses faster, which
//! was shown to reduce the asymptotic variance of RW estimates
//! (Alon et al. 2007; Lee, Xu & Eun, SIGMETRICS 2012).
//!
//! This module provides the single-walker [`NonBacktrackingRw`] and the
//! hybrid [`NonBacktrackingFrontier`] — Frontier Sampling where each
//! dependent walker additionally remembers its previous vertex and moves
//! non-backtrackingly. The hybrid is an *ablation of the paper's design*:
//! it keeps FS's degree-proportional walker scheduling (what fixes
//! disconnected components) and adds NBRW's locally faster diffusion.
//! Both are validated empirically in the tests below and compared against
//! FS in the `extra_nbrw` experiment.

use crate::budget::{Budget, CostModel};
use crate::checkpoint::{put_vertex, take_vertex, CheckpointError, Decoder, Encoder};
use crate::fenwick::IntFenwick;
use crate::start::StartPolicy;
use crate::walk::{Position, StepOutcome, Stepped};
use fs_graph::{Arc, GraphAccess, VertexId};
use rand::Rng;

/// Takes one non-backtracking step from `cur`, whose degree `d` the
/// caller tracks (previous step's [`Stepped::degree_after`]); `prev` is
/// the vertex the walker occupied before `cur` (`None` at the start of
/// the walk).
///
/// Chooses uniformly among the neighbors of `cur` other than `prev`
/// (index peeks are free topology reads; the accepted pick is then
/// resolved as one charged combined query through
/// [`GraphAccess::step_query`], which also hands back the landing
/// degree); falls back to backtracking when `prev` is the only neighbor.
/// [`StepOutcome::Isolated`] only for isolated vertices.
#[inline]
pub fn nb_step_known<A: GraphAccess + ?Sized, R: Rng + ?Sized>(
    access: &A,
    cur: VertexId,
    d: usize,
    row: usize,
    prev: Option<VertexId>,
    rng: &mut R,
) -> Stepped {
    debug_assert_eq!(d, access.degree(cur), "caller-tracked degree diverged");
    debug_assert_eq!(row, access.vertex_row(cur), "caller-tracked row diverged");
    if d == 0 {
        return Stepped {
            outcome: StepOutcome::Isolated,
            degree_after: 0,
            row_after: row,
        };
    }
    let pick = match prev {
        // Degree 1 forces the return move; otherwise resample until the
        // pick differs from `prev`. Neighbor lists may contain `prev`
        // once only (the substrate deduplicates arcs), so rejection
        // sampling terminates in O(d/(d-1)) expected draws.
        Some(p) if d > 1 => loop {
            let i = rng.gen_range(0..d);
            if access.nth_neighbor(cur, i) != p {
                break i;
            }
        },
        _ => rng.gen_range(0..d),
    };
    crate::walk::resolve_stepped(cur, d, row, access.step_query_at(cur, row, pick))
}

/// [`nb_step_known`] without prior degree/row knowledge (tests and
/// one-shot callers).
#[inline]
pub fn nb_step<A: GraphAccess + ?Sized, R: Rng + ?Sized>(
    access: &A,
    cur: VertexId,
    prev: Option<VertexId>,
    rng: &mut R,
) -> StepOutcome {
    nb_step_known(
        access,
        cur,
        access.degree(cur),
        access.vertex_row(cur),
        prev,
        rng,
    )
    .outcome
}

/// Single-walker non-backtracking random walk.
///
/// Drop-in comparable to [`crate::SingleRw`]: same budget accounting,
/// same uniform-edge stationary behaviour (minimum degree ≥ 2), faster
/// mixing.
///
/// ```
/// use frontier_sampling::{Budget, CostModel, NonBacktrackingRw};
/// use rand::SeedableRng;
///
/// // Diamond (min degree 2): the walk never reverses an edge.
/// let g = fs_graph::graph_from_undirected_pairs(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
/// let mut budget = Budget::new(500.0);
/// let mut last: Option<fs_graph::Arc> = None;
/// NonBacktrackingRw::new().sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |e| {
///     if let Some(prev) = last {
///         assert_eq!(prev.target, e.source);
///         assert_ne!(e.target, prev.source, "never backtracks here");
///     }
///     last = Some(e);
/// });
/// ```
#[derive(Clone, Debug)]
pub struct NonBacktrackingRw {
    /// Start-vertex distribution (default: uniform).
    pub start: StartPolicy,
}

impl Default for NonBacktrackingRw {
    fn default() -> Self {
        NonBacktrackingRw {
            start: StartPolicy::Uniform,
        }
    }
}

impl NonBacktrackingRw {
    /// Creates a uniform-start non-backtracking walker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a walker with the given start policy.
    pub fn with_start(start: StartPolicy) -> Self {
        NonBacktrackingRw { start }
    }

    /// Runs the walk until the budget is exhausted, feeding every sampled
    /// edge to `sink` in order.
    pub fn sample_edges<A: GraphAccess + ?Sized, R: Rng + ?Sized>(
        &self,
        access: &A,
        cost: &CostModel,
        budget: &mut Budget,
        rng: &mut R,
        mut sink: impl FnMut(Arc),
    ) {
        let Some(pos) = Position::draw(&self.start, access, cost, budget, rng) else {
            return;
        };
        let mut walk = NbrwWalk::at(pos);
        let step_cost = crate::walk::step_cost(cost, access);
        while !walk.step(access, budget, step_cost, rng, &mut sink) {}
    }
}

/// NBRW as a resumable step machine — the one walk loop that both
/// [`NonBacktrackingRw::sample_edges`] and
/// [`crate::runner::ChunkedRunner`] drive.
#[derive(Clone, Debug)]
pub(crate) struct NbrwWalk {
    pos: Position,
    /// The vertex the walker occupied before `pos` (`None` at the start).
    prev: Option<VertexId>,
}

impl NbrwWalk {
    /// A fresh walk from `pos`, with no previous vertex yet.
    pub(crate) fn at(pos: Position) -> Self {
        NbrwWalk { pos, prev: None }
    }

    /// One attempt: spends a step, moves non-backtrackingly, and feeds
    /// a reported edge to `sink`. Returns `true` once the walk has
    /// ended (budget exhausted, or stuck on a degree-0 vertex).
    #[inline]
    pub(crate) fn step<A: GraphAccess + ?Sized, R: Rng + ?Sized>(
        &mut self,
        access: &A,
        budget: &mut Budget,
        step_cost: f64,
        rng: &mut R,
        mut sink: impl FnMut(Arc),
    ) -> bool {
        if !budget.try_spend(step_cost) {
            return true;
        }
        let Position { v, d, row } = self.pos;
        match self
            .pos
            .advance(nb_step_known(access, v, d, row, self.prev, rng))
        {
            StepOutcome::Edge(edge) => {
                self.prev = Some(v);
                sink(edge);
                false
            }
            StepOutcome::Lost(_) => {
                self.prev = Some(v);
                false
            }
            StepOutcome::Bounced => false,
            StepOutcome::Isolated => true,
        }
    }

    pub(crate) fn encode(&self, enc: &mut Encoder) {
        self.pos.encode(enc);
        match self.prev {
            Some(p) => {
                enc.put_u8(1);
                put_vertex(enc, p);
            }
            None => enc.put_u8(0),
        }
    }

    pub(crate) fn decode(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        Ok(NbrwWalk {
            pos: Position::decode(dec)?,
            prev: match dec.take_u8()? {
                0 => None,
                1 => Some(take_vertex(dec)?),
                t => return Err(CheckpointError::Malformed(format!("invalid prev tag {t}"))),
            },
        })
    }
}

/// Frontier Sampling with non-backtracking walkers.
///
/// Algorithm 1 with one change: each walker remembers the vertex it came
/// from and line 5's uniform edge choice excludes the return edge (unless
/// forced). Walker selection stays degree-proportional, so the scheduling
/// that makes FS robust to disconnected components is untouched.
#[derive(Clone, Debug)]
pub struct NonBacktrackingFrontier {
    /// Dimension `m ≥ 1`.
    pub m: usize,
    /// Start-vertex distribution (default: uniform).
    pub start: StartPolicy,
}

impl NonBacktrackingFrontier {
    /// Non-backtracking FS with `m` uniformly started walkers.
    pub fn new(m: usize) -> Self {
        assert!(m >= 1, "dimension must be at least 1");
        NonBacktrackingFrontier {
            m,
            start: StartPolicy::Uniform,
        }
    }

    /// Sets the start policy.
    pub fn with_start(mut self, start: StartPolicy) -> Self {
        self.start = start;
        self
    }

    /// Runs the sampler, feeding every sampled edge to `sink` until the
    /// budget is exhausted.
    pub fn sample_edges<A: GraphAccess + ?Sized, R: Rng + ?Sized>(
        &self,
        access: &A,
        cost: &CostModel,
        budget: &mut Budget,
        rng: &mut R,
        mut sink: impl FnMut(Arc),
    ) {
        let positions = self.start.draw(access, self.m, cost, budget, rng);
        if positions.is_empty() {
            return;
        }
        let step_cost = crate::walk::step_cost(cost, access);
        let degrees: Vec<u64> = positions.iter().map(|&v| access.degree(v) as u64).collect();
        let mut weights = IntFenwick::new(&degrees);
        let mut rows: Vec<usize> = positions.iter().map(|&v| access.vertex_row(v)).collect();
        let mut positions = positions;
        let mut prevs: Vec<Option<VertexId>> = vec![None; positions.len()];
        while budget.try_spend(step_cost) {
            let total = weights.total();
            if total == 0 {
                break;
            }
            let i = weights.find(rng.gen_range(0..total));
            let d = weights.get(i) as usize;
            let stepped = nb_step_known(access, positions[i], d, rows[i], prevs[i], rng);
            match stepped.outcome {
                StepOutcome::Edge(edge) => {
                    prevs[i] = Some(positions[i]);
                    positions[i] = edge.target;
                    rows[i] = stepped.row_after;
                    weights.set(i, stepped.degree_after as u64);
                    sink(edge);
                }
                StepOutcome::Lost(edge) => {
                    prevs[i] = Some(positions[i]);
                    positions[i] = edge.target;
                    rows[i] = stepped.row_after;
                    weights.set(i, stepped.degree_after as u64);
                }
                StepOutcome::Bounced => {}
                StepOutcome::Isolated => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_graph::{graph_from_undirected_pairs, Graph};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// K4 minus one edge: degrees 2, 2, 3, 3; min degree 2.
    fn diamond() -> Graph {
        graph_from_undirected_pairs(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn never_backtracks_unless_forced() {
        let g = diamond();
        let mut rng = SmallRng::seed_from_u64(201);
        let mut edges = Vec::new();
        let mut budget = Budget::new(5_000.0);
        NonBacktrackingRw::new().sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |e| {
            edges.push(e)
        });
        for w in edges.windows(2) {
            assert_eq!(w[0].target, w[1].source, "edges must chain");
            // Min degree is 2: backtracking must never happen.
            assert_ne!(w[1].target, w[0].source, "backtracked at {:?}", w);
        }
    }

    #[test]
    fn degree_one_vertex_forces_return() {
        // Path 0-1-2: walker entering vertex 0 or 2 must bounce back.
        let g = graph_from_undirected_pairs(3, [(0, 1), (1, 2)]);
        let mut rng = SmallRng::seed_from_u64(202);
        let mut edges = Vec::new();
        let mut budget = Budget::new(200.0);
        NonBacktrackingRw::new().sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |e| {
            edges.push(e)
        });
        assert!(edges.len() > 100, "walk must not stall");
        for w in edges.windows(2) {
            assert_eq!(w[0].target, w[1].source);
        }
    }

    #[test]
    fn deterministic_direction_on_cycle() {
        // On a cycle the non-backtracking walk never reverses: after n
        // steps it has visited every vertex exactly once.
        let n = 24;
        let g = graph_from_undirected_pairs(n, (0..n).map(|i| (i, (i + 1) % n)));
        let mut rng = SmallRng::seed_from_u64(203);
        let mut visited = std::collections::HashSet::new();
        let mut count = 0usize;
        let mut budget = Budget::new((n + 1) as f64);
        NonBacktrackingRw::new().sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |e| {
            visited.insert(e.target);
            count += 1;
        });
        assert_eq!(count, n, "1 start + n steps");
        assert_eq!(visited.len(), n, "cycle covered in exactly n steps");
    }

    #[test]
    fn stationary_visits_proportional_to_degree() {
        let g = diamond();
        let mut rng = SmallRng::seed_from_u64(204);
        let mut visits = [0usize; 4];
        let steps = 400_000;
        let mut budget = Budget::new(steps as f64);
        NonBacktrackingRw::new().sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |e| {
            visits[e.target.index()] += 1;
        });
        let total: usize = visits.iter().sum();
        for (i, &c) in visits.iter().enumerate() {
            let expect = g.degree(VertexId::new(i)) as f64 / g.volume() as f64;
            let emp = c as f64 / total as f64;
            assert!(
                (emp - expect).abs() < 0.01,
                "vertex {i}: visited {emp}, expected {expect}"
            );
        }
    }

    #[test]
    fn edges_sampled_uniformly() {
        let g = diamond();
        let mut rng = SmallRng::seed_from_u64(205);
        let mut counts = std::collections::HashMap::new();
        let steps = 400_000;
        let mut budget = Budget::new(steps as f64);
        NonBacktrackingRw::new().sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |e| {
            *counts
                .entry((e.source.index(), e.target.index()))
                .or_insert(0usize) += 1;
        });
        let total: usize = counts.values().sum();
        let uniform = 1.0 / g.num_arcs() as f64;
        assert_eq!(counts.len(), g.num_arcs());
        for (&arc, &c) in &counts {
            let emp = c as f64 / total as f64;
            assert!(
                (emp - uniform).abs() < 0.01,
                "arc {arc:?}: {emp} vs {uniform}"
            );
        }
    }

    #[test]
    fn frontier_variant_emits_valid_chained_per_walker_edges() {
        let g = diamond();
        let mut rng = SmallRng::seed_from_u64(206);
        let mut budget = Budget::new(200.0);
        let mut count = 0usize;
        NonBacktrackingFrontier::new(3).sample_edges(
            &g,
            &CostModel::unit(),
            &mut budget,
            &mut rng,
            |e| {
                assert!(g.has_edge(e.source, e.target));
                count += 1;
            },
        );
        assert_eq!(count, 197, "3 starts + 197 steps");
    }

    #[test]
    fn frontier_variant_visits_proportional_to_degree() {
        let g = diamond();
        let mut rng = SmallRng::seed_from_u64(207);
        let mut visits = [0usize; 4];
        let steps = 400_000;
        let mut budget = Budget::new(steps as f64);
        NonBacktrackingFrontier::new(4).sample_edges(
            &g,
            &CostModel::unit(),
            &mut budget,
            &mut rng,
            |e| visits[e.target.index()] += 1,
        );
        let total: usize = visits.iter().sum();
        for (i, &c) in visits.iter().enumerate() {
            let expect = g.degree(VertexId::new(i)) as f64 / g.volume() as f64;
            let emp = c as f64 / total as f64;
            assert!(
                (emp - expect).abs() < 0.01,
                "vertex {i}: visited {emp}, expected {expect}"
            );
        }
    }

    #[test]
    fn frontier_variant_keeps_sampling_disconnected_components() {
        // Two disconnected diamonds; walkers pinned one per component.
        let g = graph_from_undirected_pairs(
            8,
            [
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (4, 6),
                (4, 7),
                (5, 6),
                (5, 7),
                (6, 7),
            ],
        );
        let sampler = NonBacktrackingFrontier::new(2)
            .with_start(StartPolicy::Fixed(vec![VertexId::new(0), VertexId::new(4)]));
        let mut rng = SmallRng::seed_from_u64(208);
        let mut in_a = 0usize;
        let mut in_b = 0usize;
        let mut budget = Budget::new(100_000.0);
        sampler.sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |e| {
            if e.source.index() < 4 {
                in_a += 1;
            } else {
                in_b += 1;
            }
        });
        let frac = in_a as f64 / (in_a + in_b) as f64;
        assert!((frac - 0.5).abs() < 0.01, "component A fraction {frac}");
    }

    #[test]
    fn isolated_start_impossible_nonisolated_walk_continues() {
        // Vertex 3 isolated; StartPolicy rejects it, walk proceeds on the
        // triangle.
        let g = graph_from_undirected_pairs(4, [(0, 1), (1, 2), (0, 2)]);
        let mut rng = SmallRng::seed_from_u64(209);
        let mut budget = Budget::new(100.0);
        let mut count = 0usize;
        NonBacktrackingRw::new().sample_edges(
            &g,
            &CostModel::unit(),
            &mut budget,
            &mut rng,
            |_| count += 1,
        );
        // Rejected draws of the isolated vertex burn budget, so the step
        // count is 99 minus the number of rejections.
        assert!((90..=99).contains(&count), "count = {count}");
        assert!(budget.exhausted());
    }
}
