//! The classic single random walk (`SingleRW`, Section 4).
//!
//! One walker starts at a (by default uniformly) random vertex and takes
//! `B − c` steps, emitting one sampled edge per step. In steady state the
//! sampled edges are uniform over `E` and obey the SLLN (Theorem 4.1),
//! but a single walker is the method most exposed to getting trapped in a
//! disconnected or loosely connected component (Sections 4.3, 4.5).

use crate::budget::{Budget, CostModel};
use crate::start::StartPolicy;
use crate::walk::{self, Position, StepOutcome};
use fs_graph::{Arc, GraphAccess};
use rand::Rng;

/// Single random-walk edge sampler.
#[derive(Clone, Debug)]
pub struct SingleRw {
    /// Start-vertex distribution (default: uniform).
    pub start: StartPolicy,
}

impl Default for SingleRw {
    fn default() -> Self {
        SingleRw {
            start: StartPolicy::Uniform,
        }
    }
}

impl SingleRw {
    /// Creates a uniform-start single walker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a single walker with the given start policy.
    pub fn with_start(start: StartPolicy) -> Self {
        SingleRw { start }
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
        let mut walk = SingleRwWalk(pos);
        let step_cost = walk::step_cost(cost, access);
        while !walk.step(access, budget, step_cost, rng, &mut sink) {}
    }
}

/// SingleRW as a resumable step machine — the one walk loop that both
/// [`SingleRw::sample_edges`] and [`crate::runner::ChunkedRunner`]
/// drive. Its whole state is the walker's [`Position`] (and so is its
/// checkpoint).
#[derive(Clone, Debug)]
pub(crate) struct SingleRwWalk(pub(crate) Position);

impl SingleRwWalk {
    /// One attempt: spends a step, moves, and feeds a reported edge to
    /// `sink`. Returns `true` once the walk has ended (budget
    /// exhausted, or stuck on a degree-0 vertex).
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
        match self.0.step(access, rng) {
            StepOutcome::Edge(edge) => {
                sink(edge);
                false
            }
            StepOutcome::Lost(_) | StepOutcome::Bounced => false,
            StepOutcome::Isolated => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_graph::{graph_from_undirected_pairs, Graph, VertexId};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn cycle(n: usize) -> Graph {
        graph_from_undirected_pairs(n, (0..n).map(|i| (i, (i + 1) % n)))
    }

    #[test]
    fn walk_is_a_path_of_edges() {
        let g = cycle(10);
        let mut budget = Budget::new(50.0);
        let mut rng = SmallRng::seed_from_u64(121);
        let mut edges = Vec::new();
        SingleRw::new().sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |e| {
            edges.push(e)
        });
        assert_eq!(edges.len(), 49, "1 unit start + 49 steps");
        for w in edges.windows(2) {
            assert_eq!(w[0].target, w[1].source, "consecutive edges must chain");
        }
        for e in &edges {
            assert!(g.has_edge(e.source, e.target));
        }
    }

    #[test]
    fn respects_budget_exactly() {
        let g = cycle(6);
        let mut budget = Budget::new(10.0);
        let mut rng = SmallRng::seed_from_u64(122);
        let mut count = 0usize;
        SingleRw::new().sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |_| {
            count += 1
        });
        assert_eq!(count, 9);
        assert!(budget.exhausted());
    }

    #[test]
    fn stationary_visit_frequency_proportional_to_degree() {
        // Lollipop: triangle {0,1,2} + path 2-3. Degrees: 2,2,3,1.
        let g = graph_from_undirected_pairs(4, [(0, 1), (1, 2), (0, 2), (2, 3)]);
        let mut rng = SmallRng::seed_from_u64(123);
        let mut visits = [0usize; 4];
        let steps = 400_000;
        let mut budget = Budget::new(steps as f64);
        SingleRw::new().sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |e| {
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
    fn fixed_start_used() {
        let g = cycle(8);
        let mut budget = Budget::new(2.0);
        let mut rng = SmallRng::seed_from_u64(124);
        let mut first = None;
        SingleRw::with_start(StartPolicy::Fixed(vec![VertexId::new(5)])).sample_edges(
            &g,
            &CostModel::unit(),
            &mut budget,
            &mut rng,
            |e| {
                if first.is_none() {
                    first = Some(e.source);
                }
            },
        );
        assert_eq!(first, Some(VertexId::new(5)));
    }

    #[test]
    fn zero_budget_emits_nothing() {
        let g = cycle(4);
        let mut budget = Budget::new(0.0);
        let mut rng = SmallRng::seed_from_u64(125);
        let mut count = 0;
        SingleRw::new().sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |_| {
            count += 1
        });
        assert_eq!(count, 0);
    }
}
