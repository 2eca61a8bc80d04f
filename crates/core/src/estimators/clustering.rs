//! Global clustering coefficient estimator (Section 4.2.4).
//!
//! The target is eq. (8):
//! `C = (1/|V*|) Σ_v Δ(v)/C(deg v, 2)` over `V* = {v : deg(v) ≥ 2}`.
//!
//! Derivation of the streaming estimator (the paper's §4.2.4 with the
//! algebra carried through consistently): with `f(v, u) = |N(v) ∩ N(u)|`
//! and `Σ_{u∈N(v)} f(v, u) = 2Δ(v)`,
//!
//! ```text
//! Σ_{(v,u)∈E} f(v,u) / (2·C(deg v, 2))   =  Σ_v Δ(v)/C(deg v, 2)
//! Σ_{(v,u)∈E} 1(deg v ≥ 2) / deg(v)      =  |V*|
//! ```
//!
//! so with edges sampled uniformly (stationary RW),
//!
//! ```text
//! Ĉ = [Σ_i 1(deg v_i ≥ 2) · f(v_i, u_i) / (2·C(deg v_i, 2))]
//!     / [Σ_i 1(deg v_i ≥ 2) / deg(v_i)]   →  C·|E|/|E| = C  (a.s.)
//! ```
//!
//! Each observation queries the sampled edge's two (already crawled)
//! neighbor lists for `f(v, u)` — no two-hop exploration needed, the
//! paper's stated motivation for this estimator form.
//!
//! Note the numerator/denominator weights differ from the display
//! equation in the paper (which, read literally, carries an extra
//! `1/deg(v_i)` in the numerator and counts `|V|` rather than `|V*|` in
//! `S`); the version here is the one that converges to eq. (8), which the
//! tests verify against exact triangle counts.

use super::EdgeEstimator;
use crate::checkpoint::{take_sum, CheckpointError, Decoder, Encoder};
use fs_graph::triangles::binom2;
use fs_graph::{shared_neighbors_via, Arc, GraphAccess};

/// Streaming `Ĉ` over sampled edges.
#[derive(Clone, Debug, Default)]
pub struct ClusteringEstimator {
    numerator: f64,
    denominator: f64,
    observed: usize,
}

impl ClusteringEstimator {
    /// Creates the estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current estimate `Ĉ`; `None` before any eligible observation.
    pub fn estimate(&self) -> Option<f64> {
        if self.denominator > 0.0 {
            Some(self.numerator / self.denominator)
        } else {
            None
        }
    }

    /// Number of edges observed so far.
    pub fn num_observed(&self) -> usize {
        self.observed
    }

    /// Writes the accumulators' exact bits: this state's FSEC layout.
    pub(crate) fn encode(&self, enc: &mut Encoder) {
        enc.put_f64(self.numerator);
        enc.put_f64(self.denominator);
        enc.put_usize(self.observed);
    }

    /// Restores [`Self::encode`]'s accumulators into this estimator.
    pub(crate) fn decode(&mut self, dec: &mut Decoder<'_>) -> Result<(), CheckpointError> {
        self.numerator = take_sum(dec)?;
        self.denominator = take_sum(dec)?;
        self.observed = dec.take_usize()?;
        Ok(())
    }
}

impl<A: GraphAccess + ?Sized> EdgeEstimator<A> for ClusteringEstimator {
    fn observe(&mut self, access: &A, edge: Arc) {
        self.observed += 1;
        // The paper's estimator is written on the sampled edge (v_i, u_i)
        // with v_i the *source*; by symmetry of stationary edge sampling
        // either endpoint works — we use the source.
        let v = edge.source;
        let d = access.degree(v);
        if d < 2 {
            return;
        }
        let f = shared_neighbors_via(access, v, edge.target) as f64;
        self.numerator += f / (2.0 * binom2(d));
        self.denominator += 1.0 / d as f64;
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
    use fs_graph::{global_clustering, graph_from_undirected_pairs, Graph};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn run_estimate(g: &Graph, seed: u64, steps: f64) -> f64 {
        let mut est = ClusteringEstimator::new();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut budget = Budget::new(steps);
        WalkMethod::frontier(2).sample_edges(g, &CostModel::unit(), &mut budget, &mut rng, |e| {
            est.observe(g, e)
        });
        est.estimate().unwrap()
    }

    #[test]
    fn triangle_estimates_one() {
        let g = graph_from_undirected_pairs(3, [(0, 1), (1, 2), (0, 2)]);
        let c = run_estimate(&g, 241, 50_000.0);
        assert!((c - 1.0).abs() < 0.01, "Ĉ = {c}");
    }

    #[test]
    fn paw_graph_estimate_matches_exact() {
        let g = graph_from_undirected_pairs(4, [(0, 1), (1, 2), (0, 2), (2, 3)]);
        let truth = global_clustering(&g); // (1 + 1 + 1/3)/3
        let c = run_estimate(&g, 242, 400_000.0);
        assert!((c - truth).abs() < 0.01, "Ĉ = {c} vs C = {truth}");
    }

    #[test]
    fn triangle_free_graph_estimates_zero() {
        let g = graph_from_undirected_pairs(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let c = run_estimate(&g, 243, 20_000.0);
        assert!(c.abs() < 1e-9, "Ĉ = {c}");
    }

    #[test]
    fn karate_size_random_graph_estimate() {
        // A denser random-ish fixture with known exact value.
        let pairs = [
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 6),
            (6, 7),
            (7, 4),
            (5, 7),
            (2, 6),
            (1, 5),
        ];
        let g = graph_from_undirected_pairs(8, pairs);
        let truth = global_clustering(&g);
        let c = run_estimate(&g, 244, 600_000.0);
        assert!((c - truth).abs() < 0.01, "Ĉ = {c} vs C = {truth}");
    }
}
