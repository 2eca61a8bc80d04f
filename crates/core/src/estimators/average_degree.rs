//! Average-degree estimator from stationary RW edge samples.
//!
//! With edges sampled uniformly, `S = (1/B) Σ 1/deg(v_i) → |V|/|E|`
//! almost surely (the normalising constant inside eq. 7), so `1/S` is an
//! asymptotically unbiased estimator of the average degree
//! `vol(V)/|V| = |E|/|V|`. This is the harmonic-mean trick used across
//! the peer-counting literature the paper cites ([16, 23, 34]) — the
//! arithmetic mean of sampled degrees would instead converge to the
//! *degree-biased* mean `E[deg²]/E[deg]`.

use super::EdgeEstimator;
use crate::checkpoint::{take_sum, CheckpointError, Decoder, Encoder};
use fs_graph::{Arc, GraphAccess};

/// Streaming estimator of the average (symmetric) degree.
#[derive(Clone, Debug, Default)]
pub struct AverageDegreeEstimator {
    inv_degree_sum: f64,
    /// Arithmetic mean accumulator — exposed for the bias demonstration.
    degree_sum: f64,
    observed: usize,
}

impl AverageDegreeEstimator {
    /// Creates the estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Harmonic estimate of the average degree (`1/S`); `None` before any
    /// observation.
    pub fn estimate(&self) -> Option<f64> {
        if self.inv_degree_sum > 0.0 {
            Some(self.observed as f64 / self.inv_degree_sum)
        } else {
            None
        }
    }

    /// The *naive* (biased) arithmetic mean of sampled degrees, which
    /// converges to `E[deg²]/E[deg] ≥` the true average. Exposed so users
    /// can see why the harmonic correction matters.
    pub fn naive_biased_estimate(&self) -> Option<f64> {
        if self.observed > 0 {
            Some(self.degree_sum / self.observed as f64)
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
        enc.put_f64(self.inv_degree_sum);
        enc.put_f64(self.degree_sum);
        enc.put_usize(self.observed);
    }

    /// Restores [`Self::encode`]'s accumulators into this estimator.
    pub(crate) fn decode(&mut self, dec: &mut Decoder<'_>) -> Result<(), CheckpointError> {
        self.inv_degree_sum = take_sum(dec)?;
        self.degree_sum = take_sum(dec)?;
        self.observed = dec.take_usize()?;
        Ok(())
    }
}

impl<A: GraphAccess + ?Sized> EdgeEstimator<A> for AverageDegreeEstimator {
    fn observe(&mut self, access: &A, edge: Arc) {
        let d = access.degree(edge.target);
        if d == 0 {
            return;
        }
        self.observed += 1;
        self.inv_degree_sum += 1.0 / d as f64;
        self.degree_sum += d as f64;
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
    use fs_graph::{graph_from_undirected_pairs, Graph};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn run(g: &Graph, seed: u64) -> AverageDegreeEstimator {
        let mut est = AverageDegreeEstimator::new();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut budget = Budget::new(300_000.0);
        WalkMethod::frontier(3).sample_edges(g, &CostModel::unit(), &mut budget, &mut rng, |e| {
            est.observe(g, e)
        });
        est
    }

    #[test]
    fn harmonic_estimate_converges() {
        // Lollipop: degrees 2,2,3,1 → avg 2.0
        let g = graph_from_undirected_pairs(4, [(0, 1), (1, 2), (0, 2), (2, 3)]);
        let est = run(&g, 281);
        let d = est.estimate().unwrap();
        assert!((d - 2.0).abs() < 0.02, "estimated avg degree {d}");
    }

    #[test]
    fn naive_mean_is_biased_upwards() {
        // Star: degrees 4,1,1,1,1 → avg 8/5 = 1.6; degree-biased mean
        // = E[d²]/E[d] = (16+4)/8 = 2.5.
        let g = graph_from_undirected_pairs(5, [(0, 1), (0, 2), (0, 3), (0, 4)]);
        let est = run(&g, 282);
        let harmonic = est.estimate().unwrap();
        let naive = est.naive_biased_estimate().unwrap();
        assert!((harmonic - 1.6).abs() < 0.02, "harmonic {harmonic}");
        assert!((naive - 2.5).abs() < 0.03, "naive {naive}");
    }

    #[test]
    fn empty_is_none() {
        let est = AverageDegreeEstimator::new();
        assert!(est.estimate().is_none());
        assert!(est.naive_biased_estimate().is_none());
    }
}
