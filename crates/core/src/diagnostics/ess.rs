//! Effective sample size via Geyer's initial monotone sequence.
//!
//! A stationary chain of length `n` with integrated autocorrelation time
//! `τ = 1 + 2 Σ_{k≥1} ρ(k)` carries the information of `n/τ` independent
//! samples. Summing the empirical ACF naively diverges (the tail is pure
//! noise); Geyer (*Practical Markov Chain Monte Carlo*, 1992 — the
//! paper's reference \[14\]) proved that for reversible chains the sums of
//! adjacent autocorrelation pairs `Γ_k = ρ(2k) + ρ(2k+1)` are positive
//! and decreasing, which yields the standard truncation rule implemented
//! here: accumulate `Γ_k` while positive, clamping each term to be no
//! larger than its predecessor.

use super::acf::autocovariance;

/// Effective sample size of a scalar chain (Geyer's initial monotone
/// sequence estimator).
///
/// Returns `n` for series shorter than 4 samples or with zero variance
/// (no correlation structure to estimate). May exceed `n` for antithetic
/// (negatively correlated) chains — that is a real variance reduction,
/// not an error.
pub fn effective_sample_size(x: &[f64]) -> f64 {
    let n = x.len();
    if n < 4 {
        return n as f64;
    }
    let c0 = autocovariance(x, 0);
    if c0 <= 0.0 {
        return n as f64;
    }
    // Γ_k = ρ(2k) + ρ(2k+1), accumulated while positive and monotone.
    let mut sum_gamma = 0.0;
    let mut prev = f64::INFINITY;
    let mut k = 0usize;
    while 2 * k + 1 < n {
        let gamma = (autocovariance(x, 2 * k) + autocovariance(x, 2 * k + 1)) / c0;
        if gamma <= 0.0 {
            break;
        }
        let gamma = gamma.min(prev);
        sum_gamma += gamma;
        prev = gamma;
        k += 1;
    }
    // τ = −1 + 2 Σ Γ_k  (Γ_0 = ρ(0) + ρ(1) = 1 + ρ(1) absorbs the +1).
    let tau = (2.0 * sum_gamma - 1.0).max(1e-12);
    n as f64 / tau
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::tests::ar1;

    #[test]
    fn iid_chain_ess_near_n() {
        let n = 20_000;
        let x = ar1(n, 0.0, 701);
        let ess = effective_sample_size(&x);
        assert!((ess / n as f64 - 1.0).abs() < 0.15, "ESS {ess} for n = {n}");
    }

    #[test]
    fn ar1_matches_closed_form() {
        // For AR(1): τ = (1+ρ)/(1−ρ), so ESS/n = (1−ρ)/(1+ρ).
        for &rho in &[0.3, 0.6, 0.9] {
            let n = 200_000;
            let x = ar1(n, rho, 702);
            let ess = effective_sample_size(&x);
            let expect = n as f64 * (1.0 - rho) / (1.0 + rho);
            assert!(
                (ess / expect - 1.0).abs() < 0.2,
                "rho {rho}: ESS {ess} vs {expect}"
            );
        }
    }

    #[test]
    fn more_correlation_means_less_ess() {
        let n = 50_000;
        let weak = effective_sample_size(&ar1(n, 0.2, 703));
        let strong = effective_sample_size(&ar1(n, 0.95, 703));
        assert!(
            strong < weak / 4.0,
            "weak {weak} should dwarf strong {strong}"
        );
    }

    #[test]
    fn antithetic_chain_exceeds_n() {
        // Alternating noise has negative lag-1 correlation: its mean
        // converges faster than iid sampling.
        let base = ar1(10_000, 0.0, 704);
        let x: Vec<f64> = base
            .iter()
            .enumerate()
            .map(|(i, &v)| if i % 2 == 0 { v } else { -v } + v.abs() * 0.0)
            .collect();
        // x alternates sign around 0 → lag-1 autocorrelation < 0.
        let ess = effective_sample_size(&x);
        assert!(ess > x.len() as f64 * 0.9, "ESS {ess}");
    }

    #[test]
    fn short_and_constant_series() {
        assert_eq!(effective_sample_size(&[]), 0.0);
        assert_eq!(effective_sample_size(&[1.0, 2.0]), 2.0);
        assert_eq!(effective_sample_size(&vec![5.0; 100]), 100.0);
    }
}
