//! Metropolis–Hastings random walk (MHRW) baseline.
//!
//! The related work the paper compares against (Section 7; [15, 29])
//! samples *vertices uniformly* by Metropolizing the walk: at `u`, propose
//! a uniform neighbor `w` and accept with probability
//! `min(1, deg(u)/deg(w))`, otherwise stay. The stationary distribution
//! over vertices is uniform, so plain averages of vertex labels are
//! unbiased — at the cost of rejected (wasted) steps. The paper cites
//! evidence that the degree-proportional RW with reweighting (eq. 7) beats
//! MHRW in practice; the experiment harness lets us reproduce that
//! comparison.

use crate::budget::{Budget, CostModel};
use crate::start::StartPolicy;
use crate::walk::{self, Position};
use fs_graph::{GraphAccess, NeighborReply, StepReply, VertexId};
use rand::Rng;

/// Metropolis–Hastings random walk emitting one (uniformly distributed)
/// vertex sample per step.
#[derive(Clone, Debug)]
pub struct MetropolisHastingsRw {
    /// Start-vertex distribution.
    pub start: StartPolicy,
}

impl Default for MetropolisHastingsRw {
    fn default() -> Self {
        MetropolisHastingsRw {
            start: StartPolicy::Uniform,
        }
    }
}

impl MetropolisHastingsRw {
    /// Uniform-start MHRW.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs the walk; every step (accepted or rejected) costs one
    /// `walk_step` and emits the walker's position after the step.
    ///
    /// Each proposal is **one** combined backend query
    /// ([`fs_graph::GraphAccess::step_query`]): crawling the proposed
    /// neighbor reveals its degree, which is exactly what the acceptance
    /// test `min(1, deg(u)/deg(w))` needs — historically this paid a
    /// second candidate-degree round-trip per proposal.
    ///
    /// Backend faults map naturally onto Metropolis–Hastings: an
    /// unresponsive proposal is a forced rejection (the walker stays, the
    /// step is emitted as usual — rejections always re-emit the current
    /// vertex), while a lost response runs the acceptance test but emits
    /// nothing.
    pub fn sample_vertices<A: GraphAccess + ?Sized, R: Rng + ?Sized>(
        &self,
        access: &A,
        cost: &CostModel,
        budget: &mut Budget,
        rng: &mut R,
        mut sink: impl FnMut(VertexId),
    ) {
        let Some(pos) = Position::draw(&self.start, access, cost, budget, rng) else {
            return;
        };
        let mut walk = MhrwWalk(pos);
        let step_cost = walk::step_cost(cost, access);
        while !walk.step(access, budget, step_cost, rng, &mut sink) {}
    }
}

/// MHRW as a resumable step machine — the one walk loop that both
/// [`MetropolisHastingsRw::sample_vertices`] and
/// [`crate::runner::ChunkedRunner`] drive. Its whole state is the
/// walker's [`Position`] (and so is its checkpoint).
#[derive(Clone, Debug)]
pub(crate) struct MhrwWalk(pub(crate) Position);

impl MhrwWalk {
    /// One proposal: spends a step, runs the acceptance test, and feeds
    /// the walker's position after it to `sink` unless the reply was
    /// lost. Returns `true` once the walk has ended (budget exhausted,
    /// or stuck on a degree-0 vertex).
    #[inline]
    pub(crate) fn step<A: GraphAccess + ?Sized, R: Rng + ?Sized>(
        &mut self,
        access: &A,
        budget: &mut Budget,
        step_cost: f64,
        rng: &mut R,
        mut sink: impl FnMut(VertexId),
    ) -> bool {
        if !budget.try_spend(step_cost) {
            return true;
        }
        let Position { v, d, row } = self.0;
        if d == 0 {
            return true;
        }
        let StepReply {
            reply,
            target_degree,
            target_row,
        } = access.step_query_at(v, row, rng.gen_range(0..d));
        let (proposal, report) = match reply {
            NeighborReply::Vertex(w) => (Some(w), true),
            NeighborReply::Lost(w) => (Some(w), false),
            NeighborReply::Unresponsive => (None, true),
        };
        if let Some(proposal) = proposal {
            let dp = target_degree.max(1);
            let accept = d as f64 / dp as f64;
            if accept >= 1.0 || rng.gen_range(0.0..1.0) < accept {
                self.0 = Position {
                    v: proposal,
                    d: target_degree,
                    row: target_row,
                };
            }
        }
        if report {
            sink(self.0.v);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_graph::graph_from_undirected_pairs;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn stationary_distribution_is_uniform_over_vertices() {
        // Lollipop: degrees 2,2,3,1 — a plain RW would visit vertex 2
        // three times as often as vertex 3; MHRW must visit all equally.
        let g = graph_from_undirected_pairs(4, [(0, 1), (1, 2), (0, 2), (2, 3)]);
        let mut rng = SmallRng::seed_from_u64(161);
        let mut visits = [0usize; 4];
        let steps = 400_000;
        let mut budget = Budget::new(steps as f64);
        MetropolisHastingsRw::new().sample_vertices(
            &g,
            &CostModel::unit(),
            &mut budget,
            &mut rng,
            |v| visits[v.index()] += 1,
        );
        let total: usize = visits.iter().sum();
        for (i, &c) in visits.iter().enumerate() {
            let emp = c as f64 / total as f64;
            assert!((emp - 0.25).abs() < 0.01, "vertex {i}: {emp}");
        }
    }

    #[test]
    fn budget_respected() {
        let g = graph_from_undirected_pairs(3, [(0, 1), (1, 2), (0, 2)]);
        let mut rng = SmallRng::seed_from_u64(162);
        let mut count = 0usize;
        let mut budget = Budget::new(20.0);
        MetropolisHastingsRw::new().sample_vertices(
            &g,
            &CostModel::unit(),
            &mut budget,
            &mut rng,
            |_| count += 1,
        );
        assert_eq!(count, 19);
    }

    #[test]
    fn rejections_emit_current_vertex() {
        // Star: hub deg 4, leaves deg 1. From a leaf every proposal is the
        // hub with acceptance min(1, 1/4); most steps stay at the leaf.
        let g = graph_from_undirected_pairs(5, [(0, 1), (0, 2), (0, 3), (0, 4)]);
        let mut rng = SmallRng::seed_from_u64(163);
        let mut hub = 0usize;
        let mut leaf = 0usize;
        let mut budget = Budget::new(100_000.0);
        MetropolisHastingsRw::new().sample_vertices(
            &g,
            &CostModel::unit(),
            &mut budget,
            &mut rng,
            |v| {
                if v.index() == 0 {
                    hub += 1
                } else {
                    leaf += 1
                }
            },
        );
        let frac_hub = hub as f64 / (hub + leaf) as f64;
        // Uniform over 5 vertices -> hub fraction 0.2.
        assert!((frac_hub - 0.2).abs() < 0.01, "hub fraction {frac_hub}");
    }
}
