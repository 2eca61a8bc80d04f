//! Ablations of Frontier Sampling's design choices (DESIGN.md D1–D2).
//!
//! * **D1 — walker selection.** Algorithm 1 selects the walker to advance
//!   with probability proportional to its current degree. The obvious
//!   simplification — advance a *uniformly* chosen walker — destroys the
//!   `G^m`-random-walk structure: the sampled edges are no longer uniform
//!   over `E` in steady state (each walker converges to its own
//!   degree-proportional law, but the *mixture over walkers* weights each
//!   walker equally rather than by frontier degree — which matters
//!   precisely on graphs whose components have different average degrees,
//!   i.e. the paper's motivating scenario).
//! * **D2 — start distribution.** Covered by
//!   [`crate::start::StartPolicy`]: uniform (the design choice),
//!   steady-state (the oracle), or a fixed seed list (the degenerate
//!   "replicate one seed" choice).
//!
//! [`UniformSelectWalkers`] implements the D1 ablation so the benches and
//! tests can quantify the damage.

use crate::budget::{Budget, CostModel};
use crate::start::StartPolicy;
use crate::walk::{self, Position, StepOutcome};
use fs_graph::{Arc, GraphAccess};
use rand::Rng;

/// The D1 ablation: `m` walkers advanced in uniformly random order
/// (instead of degree-proportionally as FS does).
///
/// Statistically this is MultipleRW with a randomized interleaving — the
/// walkers are still independent — so it inherits MultipleRW's biases
/// while *looking* superficially like FS.
#[derive(Clone, Debug)]
pub struct UniformSelectWalkers {
    /// Number of walkers.
    pub m: usize,
    /// Start-vertex distribution.
    pub start: StartPolicy,
}

impl UniformSelectWalkers {
    /// `m` uniformly started walkers with uniform selection.
    pub fn new(m: usize) -> Self {
        assert!(m >= 1);
        UniformSelectWalkers {
            m,
            start: StartPolicy::Uniform,
        }
    }

    /// Runs the process, feeding sampled edges to `sink`.
    pub fn sample_edges<A: GraphAccess + ?Sized, R: Rng + ?Sized>(
        &self,
        access: &A,
        cost: &CostModel,
        budget: &mut Budget,
        rng: &mut R,
        mut sink: impl FnMut(Arc),
    ) {
        let mut walkers: Vec<Position> = self
            .start
            .draw(access, self.m, cost, budget, rng)
            .into_iter()
            .map(|v| Position::at(access, v))
            .collect();
        if walkers.is_empty() {
            return;
        }
        let step_cost = walk::step_cost(cost, access);
        while budget.try_spend(step_cost) {
            let i = rng.gen_range(0..walkers.len());
            if let StepOutcome::Edge(edge) = walkers[i].step(access, rng) {
                sink(edge);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::FrontierSampler;
    use fs_graph::{graph_from_undirected_pairs, Graph, VertexId};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Two disconnected components with very different average degrees:
    /// a K5 clique (deg 4) and a path of 5 vertices (deg ≤ 2).
    fn imbalance() -> Graph {
        let mut pairs = Vec::new();
        for i in 0..5usize {
            for j in (i + 1)..5 {
                pairs.push((i, j));
            }
        }
        for i in 5..9usize {
            pairs.push((i, i + 1));
        }
        graph_from_undirected_pairs(10, pairs)
    }

    #[test]
    fn uniform_selection_oversamples_sparse_component() {
        // The ablation's whole point: with one walker fixed per
        // component, FS allocates samples by component *volume* (clique
        // 20/28), uniform selection by walker count (1/2 each).
        let g = imbalance();
        let vol_clique = 20.0;
        let vol_total = g.volume() as f64;
        let clique_share = vol_clique / vol_total;

        let starts = StartPolicy::Fixed(vec![VertexId::new(0), VertexId::new(7)]);
        let run = |ablation: bool, seed: u64| -> f64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut in_clique = 0usize;
            let mut total = 0usize;
            let mut budget = Budget::new(200_000.0);
            let mut count = |e: Arc| {
                total += 1;
                if e.source.index() < 5 {
                    in_clique += 1;
                }
            };
            if ablation {
                UniformSelectWalkers {
                    m: 2,
                    start: starts.clone(),
                }
                .sample_edges(
                    &g,
                    &CostModel::unit(),
                    &mut budget,
                    &mut rng,
                    &mut count,
                );
            } else {
                FrontierSampler::new(2)
                    .with_start(starts.clone())
                    .sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, &mut count);
            }
            in_clique as f64 / total as f64
        };

        let fs_share = run(false, 1);
        let ablated_share = run(true, 2);
        assert!(
            (fs_share - clique_share).abs() < 0.02,
            "FS clique share {fs_share} vs volume share {clique_share}"
        );
        assert!(
            (ablated_share - 0.5).abs() < 0.02,
            "uniform selection shares by walker count, got {ablated_share}"
        );
    }

    #[test]
    fn respects_budget() {
        let g = imbalance();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut count = 0usize;
        let mut budget = Budget::new(50.0);
        UniformSelectWalkers::new(5).sample_edges(
            &g,
            &CostModel::unit(),
            &mut budget,
            &mut rng,
            |_| count += 1,
        );
        assert_eq!(count, 45);
    }
}
