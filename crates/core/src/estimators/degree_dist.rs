//! Degree distribution and CCDF estimators (Section 6.2).
//!
//! The degree of a vertex in the *original* directed graph is treated as a
//! vertex label, so the distribution `θ = {θ_i}` is estimated with eq. (7)
//! applied per degree bucket:
//!
//! ```text
//! θ̂_i = [Σ_k 1(deg_kind(v_k) = i)/deg(v_k)] / [Σ_k 1/deg(v_k)]
//! ```
//!
//! (the normalising denominator is shared across all buckets, so one pass
//! estimates the whole distribution). `γ̂_l = Σ_{k>l} θ̂_k` gives the CCDF
//! the figures plot. [`VertexSampleDegreeEstimator`] is the trivial
//! estimator for uniformly sampled vertices (the random-vertex baseline of
//! Figures 12–13).

use super::EdgeEstimator;
use crate::checkpoint::{
    expect_same, put_degree_kind, put_f64_slice, take_degree_kind, take_sum, take_sums,
    CheckpointError, Decoder, Encoder,
};
use fs_graph::stats::DegreeKind;
use fs_graph::{Arc, GraphAccess, VertexId};

/// Degree-distribution estimator over RW/RE edge samples (eq. 7 per
/// degree bucket).
#[derive(Clone, Debug)]
pub struct DegreeDistributionEstimator {
    kind: DegreeKind,
    /// `weighted[i] = Σ 1/deg(v_k)` over samples with labeled degree `i`.
    weighted: Vec<f64>,
    inv_degree_sum: f64,
    observed: usize,
}

impl DegreeDistributionEstimator {
    /// Estimator of the chosen degree notion's distribution.
    pub fn new(kind: DegreeKind) -> Self {
        DegreeDistributionEstimator {
            kind,
            weighted: Vec::new(),
            inv_degree_sum: 0.0,
            observed: 0,
        }
    }

    /// In-degree (of `G_d`) distribution estimator.
    pub fn in_degree() -> Self {
        Self::new(DegreeKind::InOriginal)
    }

    /// Out-degree (of `G_d`) distribution estimator.
    pub fn out_degree() -> Self {
        Self::new(DegreeKind::OutOriginal)
    }

    /// Symmetric degree distribution estimator.
    pub fn symmetric() -> Self {
        Self::new(DegreeKind::Symmetric)
    }

    /// Estimated distribution `θ̂` (index = degree). Empty before any
    /// observation.
    pub fn distribution(&self) -> Vec<f64> {
        if self.inv_degree_sum <= 0.0 {
            return Vec::new();
        }
        self.weighted
            .iter()
            .map(|&w| w / self.inv_degree_sum)
            .collect()
    }

    /// Estimated CCDF `γ̂` (index = degree; `γ̂_l = Σ_{k>l} θ̂_k`).
    pub fn ccdf(&self) -> Vec<f64> {
        fs_graph::ccdf(&self.distribution())
    }

    /// Point estimate `θ̂_i`.
    pub fn theta(&self, i: usize) -> f64 {
        if self.inv_degree_sum <= 0.0 {
            return 0.0;
        }
        self.weighted.get(i).copied().unwrap_or(0.0) / self.inv_degree_sum
    }

    /// Number of edges observed so far.
    pub fn num_observed(&self) -> usize {
        self.observed
    }

    /// Writes the degree kind and the accumulators' exact bits: this
    /// state's FSEC layout.
    pub(crate) fn encode(&self, enc: &mut Encoder) {
        put_degree_kind(enc, self.kind);
        put_f64_slice(enc, &self.weighted);
        enc.put_f64(self.inv_degree_sum);
        enc.put_usize(self.observed);
    }

    /// Restores [`Self::encode`]'s accumulators into this estimator,
    /// refusing a blob of another degree kind.
    pub(crate) fn decode(&mut self, dec: &mut Decoder<'_>) -> Result<(), CheckpointError> {
        expect_same("degree kind", take_degree_kind(dec)?, self.kind)?;
        self.weighted = take_sums(dec)?;
        self.inv_degree_sum = take_sum(dec)?;
        self.observed = dec.take_usize()?;
        Ok(())
    }
}

impl<A: GraphAccess + ?Sized> EdgeEstimator<A> for DegreeDistributionEstimator {
    fn observe(&mut self, access: &A, edge: Arc) {
        self.observed += 1;
        let v = edge.target;
        let d = access.degree(v);
        if d == 0 {
            return;
        }
        let w = 1.0 / d as f64;
        self.inv_degree_sum += w;
        let label = self.kind.degree_of(access, v);
        if label >= self.weighted.len() {
            self.weighted.resize(label + 1, 0.0);
        }
        self.weighted[label] += w;
    }

    fn num_observed(&self) -> usize {
        self.observed
    }
}

/// Degree-distribution estimator over *uniform vertex* samples: the
/// empirical histogram (unbiased without reweighting).
#[derive(Clone, Debug)]
pub struct VertexSampleDegreeEstimator {
    kind: DegreeKind,
    counts: Vec<u64>,
    total: u64,
}

impl VertexSampleDegreeEstimator {
    /// Estimator of the chosen degree notion's distribution.
    pub fn new(kind: DegreeKind) -> Self {
        VertexSampleDegreeEstimator {
            kind,
            counts: Vec::new(),
            total: 0,
        }
    }

    /// Consumes one uniformly sampled vertex.
    pub fn observe<A: GraphAccess + ?Sized>(&mut self, access: &A, v: VertexId) {
        self.total += 1;
        let d = self.kind.degree_of(access, v);
        if d >= self.counts.len() {
            self.counts.resize(d + 1, 0);
        }
        self.counts[d] += 1;
    }

    /// Estimated distribution (empty before any sample).
    pub fn distribution(&self) -> Vec<f64> {
        if self.total == 0 {
            return Vec::new();
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// Estimated CCDF.
    pub fn ccdf(&self) -> Vec<f64> {
        fs_graph::ccdf(&self.distribution())
    }

    /// Point estimate `θ̂_i`.
    pub fn theta(&self, i: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.counts.get(i).copied().unwrap_or(0) as f64 / self.total as f64
    }

    /// Number of vertices observed.
    pub fn num_observed(&self) -> u64 {
        self.total
    }

    /// Writes the degree kind, the histogram and its total: this
    /// state's FSEC layout.
    pub(crate) fn encode(&self, enc: &mut Encoder) {
        put_degree_kind(enc, self.kind);
        enc.put_usize(self.counts.len());
        for &c in &self.counts {
            enc.put_u64(c);
        }
        enc.put_u64(self.total);
    }

    /// Restores [`Self::encode`]'s histogram into this estimator,
    /// refusing a blob of another degree kind.
    pub(crate) fn decode(&mut self, dec: &mut Decoder<'_>) -> Result<(), CheckpointError> {
        expect_same("degree kind", take_degree_kind(dec)?, self.kind)?;
        let n = dec.take_count(8)?;
        self.counts = (0..n).map(|_| dec.take_u64()).collect::<Result<_, _>>()?;
        self.total = dec.take_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{Budget, CostModel};
    use crate::method::WalkMethod;
    use fs_graph::{degree_distribution, graph_from_directed_pairs, graph_from_undirected_pairs};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn symmetric_distribution_converges() {
        // Lollipop degrees: 2,2,3,1 -> θ1=.25, θ2=.5, θ3=.25
        let g = graph_from_undirected_pairs(4, [(0, 1), (1, 2), (0, 2), (2, 3)]);
        let mut est = DegreeDistributionEstimator::symmetric();
        let mut rng = SmallRng::seed_from_u64(221);
        let mut budget = Budget::new(400_000.0);
        WalkMethod::single().sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |e| {
            est.observe(&g, e)
        });
        let theta = est.distribution();
        assert!((theta[1] - 0.25).abs() < 0.01, "θ1 = {}", theta[1]);
        assert!((theta[2] - 0.50).abs() < 0.01, "θ2 = {}", theta[2]);
        assert!((theta[3] - 0.25).abs() < 0.01, "θ3 = {}", theta[3]);
    }

    #[test]
    fn in_degree_distribution_of_directed_graph() {
        // 0->1, 0->2, 1->2: in-degrees (0,1,2) -> θ0=θ1=θ2=1/3.
        let g = graph_from_directed_pairs(3, [(0, 1), (0, 2), (1, 2)]);
        let truth = degree_distribution(&g, DegreeKind::InOriginal);
        let mut est = DegreeDistributionEstimator::in_degree();
        let mut rng = SmallRng::seed_from_u64(222);
        let mut budget = Budget::new(400_000.0);
        WalkMethod::frontier(2).sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |e| {
            est.observe(&g, e)
        });
        let theta = est.distribution();
        for i in 0..truth.len() {
            assert!(
                (theta[i] - truth[i]).abs() < 0.015,
                "θ{i}: {} vs {}",
                theta[i],
                truth[i]
            );
        }
    }

    #[test]
    fn ccdf_is_consistent_with_distribution() {
        let g = graph_from_undirected_pairs(4, [(0, 1), (1, 2), (0, 2), (2, 3)]);
        let mut est = DegreeDistributionEstimator::symmetric();
        let mut rng = SmallRng::seed_from_u64(223);
        let mut budget = Budget::new(50_000.0);
        WalkMethod::single().sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |e| {
            est.observe(&g, e)
        });
        let theta = est.distribution();
        let gamma = est.ccdf();
        assert!((gamma[0] - (1.0 - theta[0])).abs() < 1e-9);
        for w in gamma.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn vertex_sample_estimator_matches_truth() {
        let g = graph_from_undirected_pairs(4, [(0, 1), (1, 2), (0, 2), (2, 3)]);
        let truth = degree_distribution(&g, DegreeKind::Symmetric);
        let mut est = VertexSampleDegreeEstimator::new(DegreeKind::Symmetric);
        let mut rng = SmallRng::seed_from_u64(224);
        for _ in 0..200_000 {
            est.observe(&g, fs_graph::VertexId::new(rng.gen_range(0..4)));
        }
        let theta = est.distribution();
        for i in 0..truth.len() {
            assert!((theta[i] - truth[i]).abs() < 0.01);
        }
    }

    #[test]
    fn empty_estimators() {
        let est = DegreeDistributionEstimator::symmetric();
        assert!(est.distribution().is_empty());
        assert_eq!(est.theta(3), 0.0);
        let est2 = VertexSampleDegreeEstimator::new(DegreeKind::Symmetric);
        assert!(est2.distribution().is_empty());
    }
}
