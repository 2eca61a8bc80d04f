//! Assortative mixing coefficient estimator (Section 4.2.2).
//!
//! The label of a directed edge `(u, v) ∈ E_d` is the pair
//! `(outdeg(u), indeg(v))`; the paper's `r̂` is Newman's eq. (25)
//! evaluated on the *sampled* edge-label distribution `p̂_ij`, which is
//! algebraically the Pearson correlation of the sampled label pairs.
//! Sampled edges outside `E_d` (reverse arcs added by symmetrisation) are
//! skipped, exactly the paper's `E* = E_d` restriction; since stationary
//! RW samples arcs uniformly, the retained pairs are uniform over `E_d`
//! and `r̂ → r` almost surely.

use super::EdgeEstimator;
use crate::checkpoint::{take_sum, CheckpointError, Decoder, Encoder};
use fs_graph::assortativity::MomentAccumulator;
use fs_graph::{Arc, GraphAccess};

/// Streaming `r̂` over sampled edges.
#[derive(Clone, Debug, Default)]
pub struct AssortativityEstimator {
    moments: MomentAccumulator,
    observed: usize,
}

impl AssortativityEstimator {
    /// Creates the estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current estimate `r̂`; `None` until at least one labeled edge with
    /// non-degenerate marginals has been seen.
    pub fn estimate(&self) -> Option<f64> {
        self.moments.pearson()
    }

    /// Number of sampled edges that fell in `E_d`.
    pub fn num_labeled(&self) -> f64 {
        self.moments.count()
    }

    /// Number of edges observed so far.
    pub fn num_observed(&self) -> usize {
        self.observed
    }

    /// Writes the six moment sums' exact bits, then the count: this
    /// state's FSEC layout.
    pub(crate) fn encode(&self, enc: &mut Encoder) {
        for m in self.moments.state() {
            enc.put_f64(m);
        }
        enc.put_usize(self.observed);
    }

    /// Restores [`Self::encode`]'s accumulators into this estimator.
    pub(crate) fn decode(&mut self, dec: &mut Decoder<'_>) -> Result<(), CheckpointError> {
        let mut moments = [0.0f64; 6];
        for m in &mut moments {
            *m = take_sum(dec)?;
        }
        self.moments = MomentAccumulator::from_state(moments);
        self.observed = dec.take_usize()?;
        Ok(())
    }
}

impl<A: GraphAccess + ?Sized> EdgeEstimator<A> for AssortativityEstimator {
    fn observe(&mut self, access: &A, edge: Arc) {
        self.observed += 1;
        if access.has_original_edge(edge.source, edge.target) {
            self.moments.push(
                access.out_degree_orig(edge.source) as f64,
                access.in_degree_orig(edge.target) as f64,
            );
        }
    }

    fn num_observed(&self) -> usize {
        self.observed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{Budget, CostModel};
    use crate::method::WalkMethod;
    use fs_graph::{degree_assortativity, DegreeLabels};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn converges_on_star() {
        // Star is maximally disassortative: r = -1.
        let g = fs_graph::graph_from_undirected_pairs(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        let mut est = AssortativityEstimator::new();
        let mut rng = SmallRng::seed_from_u64(231);
        let mut budget = Budget::new(100_000.0);
        WalkMethod::single().sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |e| {
            est.observe(&g, e)
        });
        let r = est.estimate().unwrap();
        assert!((r + 1.0).abs() < 0.02, "r = {r}");
    }

    #[test]
    fn converges_on_mixed_graph() {
        let g = fs_graph::graph_from_undirected_pairs(
            8,
            [
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (1, 5),
                (2, 6),
            ],
        );
        let truth = degree_assortativity(&g, DegreeLabels::OriginalOutIn).unwrap();
        let mut est = AssortativityEstimator::new();
        let mut rng = SmallRng::seed_from_u64(232);
        let mut budget = Budget::new(400_000.0);
        WalkMethod::frontier(3).sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |e| {
            est.observe(&g, e)
        });
        let r = est.estimate().unwrap();
        assert!((r - truth).abs() < 0.03, "r̂ = {r}, r = {truth}");
    }

    #[test]
    fn skips_non_original_arcs() {
        // Single directed edge 0->1: E_d has one arc; the reverse arc is
        // closure-only and must not contribute.
        let g = fs_graph::graph_from_directed_pairs(2, [(0, 1)]);
        let mut est = AssortativityEstimator::new();
        let mut rng = SmallRng::seed_from_u64(233);
        let mut budget = Budget::new(1_000.0);
        WalkMethod::single().sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |e| {
            est.observe(&g, e)
        });
        // Roughly half the sampled arcs are the reverse arc.
        assert!(est.num_labeled() < est.num_observed() as f64 * 0.7);
        // Degenerate marginals (single point) -> None.
        assert!(est.estimate().is_none());
    }
}
