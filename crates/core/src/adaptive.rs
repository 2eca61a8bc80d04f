//! Adaptive sampling: run FS until the walk has earned a target
//! effective sample size.
//!
//! Section 4.3 points out that fixing a burn-in (or a budget) in advance
//! is guesswork when the graph's size and mixing structure are unknown.
//! The production-friendly alternative is *sequential*: keep walking
//! until the effective sample size ([`crate::diagnostics::ess`], Geyer
//! 1992 — the paper's reference \[14\]) of a monitored functional reaches
//! a target, then stop. The budget becomes a *cap*, not a guess.
//!
//! [`AdaptiveFrontier`] wraps [`FrontierSampler`] with that rule. ESS is
//! re-evaluated on a geometric schedule (every time the sample has grown
//! by [`AdaptiveFrontier::growth`]), so the total diagnostic cost stays
//! `O(n · k*)` across all checks — the same order as one final check.

use crate::budget::{Budget, CostModel};
use crate::diagnostics::effective_sample_size;
use crate::frontier::{Frontier, FrontierSampler};
use crate::start::StartPolicy;
use crate::walk::StepOutcome;
use fs_graph::{Arc, GraphAccess};
use rand::Rng;

/// Outcome of an adaptive run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptiveOutcome {
    /// Walk steps actually taken (edges emitted).
    pub steps: usize,
    /// ESS of the monitored functional at stop time.
    pub ess: f64,
    /// Whether the target was reached (false = budget cap hit first).
    pub reached: bool,
}

/// Frontier Sampling with an ESS-based stopping rule.
///
/// The monitored functional is `1/deg(v_i)` — the reweighting term every
/// eq.-7 estimator divides by, which makes its ESS a lower-bound proxy
/// for the quality of all of them.
///
/// ```
/// use frontier_sampling::adaptive::AdaptiveFrontier;
/// use frontier_sampling::{Budget, CostModel};
/// use rand::SeedableRng;
///
/// let g = fs_graph::graph_from_undirected_pairs(
///     6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
/// let mut budget = Budget::new(50_000.0);
/// let mut sampled = 0usize;
/// let outcome = AdaptiveFrontier::new(2, 200.0)
///     .sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |_| sampled += 1);
/// assert!(outcome.reached);
/// assert!(outcome.ess >= 200.0);
/// assert_eq!(outcome.steps, sampled);
/// assert!(budget.remaining() > 0.0, "stopped before the cap");
/// ```
#[derive(Clone, Debug)]
pub struct AdaptiveFrontier {
    /// FS dimension `m ≥ 1`.
    pub m: usize,
    /// Stop once the monitored functional's ESS reaches this value.
    pub target_ess: f64,
    /// Start-vertex distribution (default: uniform).
    pub start: StartPolicy,
    /// Geometric re-check factor (> 1): ESS is recomputed whenever the
    /// sample has grown by this factor since the last check. Default 1.5.
    pub growth: f64,
    /// First ESS check happens after this many steps. Default 64.
    pub min_steps: usize,
}

impl AdaptiveFrontier {
    /// Adaptive FS with `m` uniformly-started walkers and the given ESS
    /// target.
    pub fn new(m: usize, target_ess: f64) -> Self {
        assert!(m >= 1, "FS dimension must be at least 1");
        assert!(target_ess > 0.0, "ESS target must be positive");
        AdaptiveFrontier {
            m,
            target_ess,
            start: StartPolicy::Uniform,
            growth: 1.5,
            min_steps: 64,
        }
    }

    /// Sets the start policy.
    pub fn with_start(mut self, start: StartPolicy) -> Self {
        self.start = start;
        self
    }

    /// Runs FS until the ESS target is met or the budget cap is
    /// exhausted; every sampled edge is fed to `sink`.
    pub fn sample_edges<A: GraphAccess + ?Sized, R: Rng + ?Sized>(
        &self,
        access: &A,
        cost: &CostModel,
        budget: &mut Budget,
        rng: &mut R,
        mut sink: impl FnMut(Arc),
    ) -> AdaptiveOutcome {
        let sampler = FrontierSampler {
            m: self.m,
            start: self.start.clone(),
        };
        let mut frontier = match Frontier::init(&sampler, access, cost, budget, rng) {
            Some(f) => f,
            None => {
                return AdaptiveOutcome {
                    steps: 0,
                    ess: 0.0,
                    reached: false,
                }
            }
        };
        let step_cost = crate::walk::step_cost(cost, access);
        let mut series: Vec<f64> = Vec::new();
        let mut next_check = self.min_steps.max(4);
        let mut ess = 0.0;
        while budget.try_spend(step_cost) {
            let edge = match frontier.step_outcome(access, rng) {
                StepOutcome::Edge(edge) => edge,
                StepOutcome::Lost(_) | StepOutcome::Bounced => continue,
                StepOutcome::Isolated => break,
            };
            let d = access.degree(edge.target);
            series.push(if d == 0 { 0.0 } else { 1.0 / d as f64 });
            sink(edge);
            if series.len() >= next_check {
                ess = effective_sample_size(&series);
                if ess >= self.target_ess {
                    return AdaptiveOutcome {
                        steps: series.len(),
                        ess,
                        reached: true,
                    };
                }
                next_check = ((series.len() as f64 * self.growth) as usize).max(series.len() + 1);
            }
        }
        // Budget (or a dead end) stopped us; report the final ESS.
        if !series.is_empty() {
            ess = effective_sample_size(&series);
        }
        AdaptiveOutcome {
            steps: series.len(),
            ess,
            reached: ess >= self.target_ess,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_graph::{graph_from_undirected_pairs, Graph};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Fast-mixing fixture: two bridged triangles.
    fn fast() -> Graph {
        graph_from_undirected_pairs(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    }

    /// Slow-mixing fixture where the 1/deg functional differs between
    /// the two loosely joined regions: a clique `K_k` (degrees ≈ k)
    /// bridged to a cycle of length `c` (degrees 2). A walker trapped on
    /// either side sees a nearly constant functional, so the ESS only
    /// grows with region crossings — which the single bridge makes rare.
    fn clique_plus_cycle(k: usize, c: usize) -> Graph {
        let mut edges = Vec::new();
        for i in 0..k {
            for j in i + 1..k {
                edges.push((i, j));
            }
        }
        for i in 0..c {
            edges.push((k + i, k + (i + 1) % c));
        }
        edges.push((0, k));
        graph_from_undirected_pairs(k + c, edges)
    }

    #[test]
    fn stops_early_when_target_met() {
        let g = fast();
        let mut rng = SmallRng::seed_from_u64(501);
        let mut budget = Budget::new(100_000.0);
        let out = AdaptiveFrontier::new(2, 300.0).sample_edges(
            &g,
            &CostModel::unit(),
            &mut budget,
            &mut rng,
            |_| {},
        );
        assert!(out.reached);
        assert!(out.ess >= 300.0);
        assert!(
            out.steps < 20_000,
            "fast graph should need ≪ budget, took {}",
            out.steps
        );
        assert!(budget.remaining() > 0.0);
    }

    #[test]
    fn budget_cap_respected_when_target_unreachable() {
        let g = fast();
        let mut rng = SmallRng::seed_from_u64(502);
        let mut budget = Budget::new(500.0);
        let out = AdaptiveFrontier::new(2, 1e9).sample_edges(
            &g,
            &CostModel::unit(),
            &mut budget,
            &mut rng,
            |_| {},
        );
        assert!(!out.reached);
        assert_eq!(out.steps, 498, "2 starts + 498 steps");
        assert!(budget.exhausted());
    }

    #[test]
    fn slow_mixing_costs_more_steps() {
        let target = 200.0;
        let steps_on = |g: &Graph, seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut budget = Budget::new(500_000.0);
            AdaptiveFrontier::new(1, target).sample_edges(
                g,
                &CostModel::unit(),
                &mut budget,
                &mut rng,
                |_| {},
            )
        };
        // Average over seeds: single runs are noisy.
        let avg = |g: &Graph| -> f64 {
            (0..3)
                .map(|s| {
                    let o = steps_on(g, 510 + s);
                    assert!(o.reached, "target must be reachable");
                    o.steps as f64
                })
                .sum::<f64>()
                / 3.0
        };
        let fast_steps = avg(&fast());
        let slow_steps = avg(&clique_plus_cycle(10, 30));
        assert!(
            slow_steps > fast_steps * 1.5,
            "clique+cycle ({slow_steps}) should cost more than triangles ({fast_steps})"
        );
    }

    #[test]
    fn sink_sees_exactly_the_reported_steps() {
        let g = fast();
        let mut rng = SmallRng::seed_from_u64(503);
        let mut budget = Budget::new(10_000.0);
        let mut seen = 0usize;
        let out = AdaptiveFrontier::new(3, 200.0).sample_edges(
            &g,
            &CostModel::unit(),
            &mut budget,
            &mut rng,
            |e| {
                assert!(g.has_edge(e.source, e.target));
                seen += 1;
            },
        );
        assert_eq!(seen, out.steps);
    }

    #[test]
    #[should_panic(expected = "ESS target must be positive")]
    fn zero_target_rejected() {
        let _ = AdaptiveFrontier::new(1, 0.0);
    }
}
