//! Crawl fault injection.
//!
//! Real crawls lose queries: deleted accounts, rate-limit errors,
//! timeouts. Two models are provided:
//!
//! * [`SampleLossModel`] — each neighbor query independently fails with
//!   probability `p`. The budget is spent, no edge is recorded, and the
//!   walker stays put (it retries from the same vertex next step). Failed
//!   queries are *independent of the target*, so surviving samples keep
//!   the stationary distribution — estimators stay asymptotically
//!   unbiased, just with `(1 − p)·B` effective samples. Tests verify
//!   both properties.
//! * [`DeadVertexModel`] — a fixed random subset of vertices never
//!   responds. Walkers can see dead neighbors (ids appear in neighbor
//!   lists) but stepping to one fails and bounces the walker back. This
//!   *does* perturb the sampling distribution (edges incident to dead
//!   vertices are never reported); the model quantifies how gracefully
//!   each estimator degrades.
//!
//! Both models also plug directly into the access layer: a
//! [`CrawlAccess`](crate::backend::CrawlAccess) backend built
//! `.with_sample_loss(..)` / `.with_dead_vertices(..)` injects the same
//! faults *underneath* any sampler, which is where the paper's crawl
//! model puts them. The method-wrapping runners below remain for
//! sink-level loss (independent of which vertex was hit) and for the
//! bounce-walk reference implementation the tests compare against.

use crate::budget::{Budget, CostModel};
use crate::method::WalkMethod;
use fs_graph::{Arc, BitSet, GraphAccess, QueryKind, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Independent per-query loss.
#[derive(Clone, Copy, Debug)]
pub struct SampleLossModel {
    /// Probability that a neighbor query fails.
    pub failure_prob: f64,
}

impl SampleLossModel {
    /// Creates the model.
    ///
    /// # Panics
    /// Panics if `failure_prob ∉ [0, 1)`.
    pub fn new(failure_prob: f64) -> Self {
        assert!((0.0..1.0).contains(&failure_prob));
        SampleLossModel { failure_prob }
    }

    /// Runs `method` under this fault model: every sampled edge is
    /// dropped (budget spent, walker still moves — the response was lost,
    /// not the move) with probability `failure_prob`.
    pub fn sample_edges<A: GraphAccess + ?Sized, R: Rng + ?Sized>(
        &self,
        method: &WalkMethod,
        access: &A,
        cost: &CostModel,
        budget: &mut Budget,
        rng: &mut R,
        mut sink: impl FnMut(Arc),
    ) {
        // A dedicated fault RNG keeps the fault stream independent of the
        // walk's own RNG consumption order.
        let p = self.failure_prob;
        let mut fault_rng = SmallRng::seed_from_u64(rng.gen::<u64>());
        method.sample_edges(access, cost, budget, rng, |e| {
            if fault_rng.gen_range(0.0..1.0) >= p {
                sink(e);
            }
        });
    }
}

/// A fixed set of unresponsive vertices.
#[derive(Clone, Debug)]
pub struct DeadVertexModel {
    dead: BitSet,
}

impl DeadVertexModel {
    /// Marks each vertex dead independently with probability `fraction`,
    /// using `rng` (callers seed it for reproducibility).
    pub fn random<A: GraphAccess + ?Sized, R: Rng + ?Sized>(
        access: &A,
        fraction: f64,
        rng: &mut R,
    ) -> Self {
        assert!((0.0..1.0).contains(&fraction));
        let mut dead = BitSet::new(access.num_vertices());
        for v in 0..access.num_vertices() {
            if rng.gen_range(0.0..1.0) < fraction {
                dead.set(v);
            }
        }
        DeadVertexModel { dead }
    }

    /// Explicit dead set.
    pub fn from_set(dead: BitSet) -> Self {
        DeadVertexModel { dead }
    }

    /// Whether `v` is dead.
    pub fn is_dead(&self, v: VertexId) -> bool {
        self.dead.get(v.index())
    }

    /// Number of dead vertices.
    pub fn num_dead(&self) -> usize {
        self.dead.count_ones()
    }

    /// Runs a single random walk that treats dead vertices as bounce-
    /// backs: stepping onto a dead vertex costs budget but yields no
    /// sample and the walker stays. The walker's start is redrawn until
    /// alive.
    pub fn single_walk<A: GraphAccess + ?Sized, R: Rng + ?Sized>(
        &self,
        access: &A,
        cost: &CostModel,
        budget: &mut Budget,
        rng: &mut R,
        mut sink: impl FnMut(Arc),
    ) {
        let n = access.num_vertices();
        if n == 0 {
            return;
        }
        let start_cost = cost.uniform_vertex * access.cost_factor(QueryKind::UniformVertex);
        let step_cost = crate::walk::step_cost(cost, access);
        // Uniform alive start.
        let mut v = loop {
            if !budget.try_spend(start_cost) {
                return;
            }
            let cand = VertexId::new(rng.gen_range(0..n));
            if access.degree(cand) > 0 && !self.is_dead(cand) {
                break cand;
            }
        };
        while budget.try_spend(step_cost) {
            match crate::walk::step(access, v, rng) {
                crate::walk::StepOutcome::Edge(edge) => {
                    if self.is_dead(edge.target) {
                        // Query failed: no sample, walker stays.
                        continue;
                    }
                    v = edge.target;
                    sink(edge);
                }
                crate::walk::StepOutcome::Lost(edge) => {
                    if !self.is_dead(edge.target) {
                        v = edge.target;
                    }
                }
                crate::walk::StepOutcome::Bounced => {}
                crate::walk::StepOutcome::Isolated => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::{DegreeDistributionEstimator, EdgeEstimator};
    use fs_graph::{graph_from_undirected_pairs, Graph};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn lollipop() -> Graph {
        graph_from_undirected_pairs(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    }

    #[test]
    fn sample_loss_reduces_count_proportionally() {
        let g = lollipop();
        let mut rng = SmallRng::seed_from_u64(291);
        let model = SampleLossModel::new(0.3);
        let mut count = 0usize;
        let budget_units = 50_000.0;
        let mut budget = Budget::new(budget_units);
        model.sample_edges(
            &WalkMethod::frontier(2),
            &g,
            &CostModel::unit(),
            &mut budget,
            &mut rng,
            |_| count += 1,
        );
        let expected = (budget_units - 2.0) * 0.7;
        assert!(
            (count as f64 - expected).abs() < 0.03 * expected,
            "kept {count} of ~{expected}"
        );
    }

    #[test]
    fn sample_loss_keeps_estimators_unbiased() {
        let g = lollipop();
        let mut rng = SmallRng::seed_from_u64(292);
        let model = SampleLossModel::new(0.5);
        let mut est = DegreeDistributionEstimator::symmetric();
        let mut budget = Budget::new(400_000.0);
        model.sample_edges(
            &WalkMethod::single(),
            &g,
            &CostModel::unit(),
            &mut budget,
            &mut rng,
            |e| est.observe(&g, e),
        );
        let theta = est.distribution();
        assert!((theta[2] - 0.5).abs() < 0.01, "θ2 = {}", theta[2]);
        assert!((theta[1] - 0.25).abs() < 0.01, "θ1 = {}", theta[1]);
    }

    #[test]
    fn zero_failure_is_identity() {
        let g = lollipop();
        let model = SampleLossModel::new(0.0);
        let mut rng = SmallRng::seed_from_u64(293);
        let mut count = 0usize;
        let mut budget = Budget::new(100.0);
        model.sample_edges(
            &WalkMethod::single(),
            &g,
            &CostModel::unit(),
            &mut budget,
            &mut rng,
            |_| count += 1,
        );
        assert_eq!(count, 99);
    }

    #[test]
    fn dead_vertices_never_sampled() {
        let g = lollipop();
        let mut set = BitSet::new(4);
        set.set(3); // vertex 3 is dead
        let model = DeadVertexModel::from_set(set);
        assert_eq!(model.num_dead(), 1);
        let mut rng = SmallRng::seed_from_u64(294);
        let mut budget = Budget::new(50_000.0);
        let mut visited3 = false;
        model.single_walk(&g, &CostModel::unit(), &mut budget, &mut rng, |e| {
            if e.target.index() == 3 {
                visited3 = true;
            }
        });
        assert!(!visited3, "dead vertex must never be reported");
    }

    #[test]
    fn dead_vertices_bias_is_restriction_to_alive_subgraph() {
        // With vertex 3 dead, the walk on the lollipop is effectively a
        // walk on the triangle {0,1,2} — bounces at 2→3 cost budget but
        // the *reported* samples follow the triangle's stationary law
        // restricted to alive targets.
        let g = lollipop();
        let mut set = BitSet::new(4);
        set.set(3);
        let model = DeadVertexModel::from_set(set);
        let mut rng = SmallRng::seed_from_u64(295);
        let mut budget = Budget::new(300_000.0);
        let mut visits = [0usize; 4];
        model.single_walk(&g, &CostModel::unit(), &mut budget, &mut rng, |e| {
            visits[e.target.index()] += 1;
        });
        // Reported-target distribution: each alive vertex visited
        // proportionally to its degree *in G* normalized over alive
        // transitions: stationary over the walk-with-bounces. Degrees in
        // G: 2,2,3. The bounce-back at 2 keeps its effective rate
        // deg=3 walk attempts but only 2 land. The empirical check:
        // vertex 3 zero, others all positive.
        assert_eq!(visits[3], 0);
        assert!(visits[0] > 0 && visits[1] > 0 && visits[2] > 0);
    }

    #[test]
    fn random_dead_fraction() {
        let g = lollipop();
        let mut rng = SmallRng::seed_from_u64(296);
        let model = DeadVertexModel::random(&g, 0.99, &mut rng);
        assert!(model.num_dead() >= 3);
    }
}
