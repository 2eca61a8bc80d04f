//! Random walk with uniform jumps (extension baseline).
//!
//! The paper fixes the trapping problem of Section 4.3 by *coupling* `m`
//! walkers (Frontier Sampling). The other well-known fix, proposed
//! contemporaneously by Avrachenkov, Ribeiro & Towsley ("Improving Random
//! Walk Estimation Accuracy with Uniform Restarts", WAW 2010), is a
//! single walker that occasionally *jumps* to a fresh uniformly sampled
//! vertex: at vertex `v`, with probability `α / (deg(v) + α)` the walker
//! jumps to a uniform random vertex (one random-vertex query), otherwise
//! it takes a normal RW step. This is exactly a random walk on `G`
//! augmented with a virtual vertex-to-everywhere weight `α/|V|`, so its
//! stationary vertex distribution is
//!
//! ```text
//! π(v) ∝ deg(v) + α ,
//! ```
//!
//! which reaches *every* component regardless of connectivity. Estimates
//! must therefore be reweighted by `1/(deg(v) + α)` instead of `1/deg(v)`
//! — [`RwjDegreeDistributionEstimator`] and [`RwjGroupDensityEstimator`]
//! below do exactly that (the Volz–Heckathorn importance-reweighting
//! recipe with the modified stationary law).
//!
//! RWJ trades bias for cost: every jump burns a uniform-vertex query
//! (expensive under low hit ratios, Section 6.4), while FS pays the
//! random-vertex cost only once per walker at start-up. The `extra_rwj`
//! experiment quantifies that trade-off on the `G_AB` graph.

use crate::budget::{Budget, CostModel};
use crate::checkpoint::{
    expect_same, put_degree_kind, put_f64_slice, take_degree_kind, take_sum, take_sums,
    CheckpointError, Decoder, Encoder,
};
use crate::start::StartPolicy;
use crate::walk::{Position, StepOutcome};
use fs_graph::stats::DegreeKind;
use fs_graph::{Arc, GraphAccess, QueryKind, VertexId};
use rand::Rng;

/// One move of the jump-augmented walker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RwjEvent {
    /// A normal random-walk step over an edge of `G`.
    Walk(Arc),
    /// A uniform restart (not an edge of `G`).
    Jump {
        /// Vertex the walker left.
        from: VertexId,
        /// Uniformly sampled landing vertex.
        to: VertexId,
    },
}

impl RwjEvent {
    /// The vertex the walker occupies after this move.
    pub fn destination(&self) -> VertexId {
        match *self {
            RwjEvent::Walk(arc) => arc.target,
            RwjEvent::Jump { to, .. } => to,
        }
    }
}

/// Single random walker with uniform restarts (jump weight `α > 0`).
///
/// ```
/// use frontier_sampling::rwj::{RandomWalkWithJumps, RwjDegreeDistributionEstimator};
/// use frontier_sampling::{Budget, CostModel};
/// use fs_graph::stats::DegreeKind;
/// use rand::SeedableRng;
///
/// // Two disconnected triangles: a plain walk sees only one; RWJ with
/// // its 1/(deg+α) reweighting still estimates θ₂ = 1 correctly.
/// let g = fs_graph::graph_from_undirected_pairs(
///     6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
/// let alpha = 1.0;
/// let mut est = RwjDegreeDistributionEstimator::new(alpha, DegreeKind::Symmetric);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
/// let mut budget = Budget::new(20_000.0);
/// RandomWalkWithJumps::new(alpha).sample_visits(
///     &g, &CostModel::unit(), &mut budget, &mut rng, |v| est.observe(&g, v));
/// assert!((est.theta(2) - 1.0).abs() < 0.01);
/// ```
#[derive(Clone, Debug)]
pub struct RandomWalkWithJumps {
    /// Jump weight `α`: at vertex `v` the jump probability is
    /// `α / (deg(v) + α)`. `α = 0` degenerates to a plain random walk.
    pub alpha: f64,
    /// Start-vertex distribution (default: uniform).
    pub start: StartPolicy,
}

impl RandomWalkWithJumps {
    /// RWJ with jump weight `alpha` and a uniform start.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha >= 0.0 && alpha.is_finite(), "alpha must be ≥ 0");
        RandomWalkWithJumps {
            alpha,
            start: StartPolicy::Uniform,
        }
    }

    /// Sets the start policy.
    pub fn with_start(mut self, start: StartPolicy) -> Self {
        self.start = start;
        self
    }

    /// Runs the walker until the budget is exhausted, feeding every move
    /// to `sink`.
    ///
    /// Cost accounting: a walk step costs [`CostModel::walk_step`]; a jump
    /// costs [`CostModel::uniform_vertex`] (it *is* a random-vertex
    /// query, so low hit ratios make jumping expensive). Jump landings on
    /// degree-0 vertices are redrawn, burning cost per attempt like
    /// [`StartPolicy::draw`].
    pub fn sample<A: GraphAccess + ?Sized, R: Rng + ?Sized>(
        &self,
        access: &A,
        cost: &CostModel,
        budget: &mut Budget,
        rng: &mut R,
        mut sink: impl FnMut(RwjEvent),
    ) {
        let Some(mut walk) = RwjWalk::start(self.alpha, &self.start, access, cost, budget, rng)
        else {
            return;
        };
        let step_cost = crate::walk::step_cost(cost, access);
        while !walk.step(access, budget, step_cost, rng, &mut sink) {}
    }

    /// Convenience wrapper feeding only the visited vertices (the
    /// destination of every move) to `sink`.
    pub fn sample_visits<A: GraphAccess + ?Sized, R: Rng + ?Sized>(
        &self,
        access: &A,
        cost: &CostModel,
        budget: &mut Budget,
        rng: &mut R,
        mut sink: impl FnMut(VertexId),
    ) {
        self.sample(access, cost, budget, rng, |ev| sink(ev.destination()));
    }
}

/// RWJ as a resumable step machine — the one walk loop that both
/// [`RandomWalkWithJumps::sample`] and [`crate::runner::ChunkedRunner`]
/// drive.
#[derive(Clone, Debug)]
pub(crate) struct RwjWalk {
    alpha: f64,
    /// Budget one jump attempt costs (a uniform-vertex query).
    jump_cost: f64,
    pos: Position,
}

impl RwjWalk {
    /// Draws the start vertex, charging the budget; `None` when the
    /// budget cannot afford one.
    pub(crate) fn start<A: GraphAccess + ?Sized, R: Rng + ?Sized>(
        alpha: f64,
        policy: &StartPolicy,
        access: &A,
        cost: &CostModel,
        budget: &mut Budget,
        rng: &mut R,
    ) -> Option<Self> {
        Some(RwjWalk {
            alpha,
            jump_cost: cost.uniform_vertex * access.cost_factor(QueryKind::UniformVertex),
            pos: Position::draw(policy, access, cost, budget, rng)?,
        })
    }

    /// One move — a jump with probability `α / (deg + α)`, else a walk
    /// step — fed to `sink` when it reports. Returns `true` once the
    /// walk has ended (budget exhausted, or stuck on an isolated vertex
    /// with `α = 0`).
    #[inline]
    pub(crate) fn step<A: GraphAccess + ?Sized, R: Rng + ?Sized>(
        &mut self,
        access: &A,
        budget: &mut Budget,
        step_cost: f64,
        rng: &mut R,
        mut sink: impl FnMut(RwjEvent),
    ) -> bool {
        let d = self.pos.d as f64;
        let jump = self.alpha > 0.0 && rng.gen_range(0.0..d + self.alpha) < self.alpha;
        if jump {
            // Redraw until a walkable vertex lands; each try is a
            // charged uniform-vertex crawl (`query_vertex`), whose
            // reply carries the landing degree.
            let n = access.num_vertices();
            let mut landed = None;
            while budget.try_spend(self.jump_cost) {
                let cand = VertexId::new(rng.gen_range(0..n));
                let cand_deg = access.query_vertex(cand);
                if cand_deg > 0 {
                    landed = Some((cand, cand_deg));
                    break;
                }
            }
            let Some((to, to_deg)) = landed else {
                return true; // budget died mid-jump
            };
            sink(RwjEvent::Jump {
                from: self.pos.v,
                to,
            });
            self.pos = Position {
                v: to,
                d: to_deg,
                row: access.vertex_row(to),
            };
            false
        } else {
            if !budget.try_spend(step_cost) {
                return true;
            }
            match self.pos.step(access, rng) {
                StepOutcome::Edge(edge) => {
                    sink(RwjEvent::Walk(edge));
                    false
                }
                StepOutcome::Lost(_) | StepOutcome::Bounced => false,
                StepOutcome::Isolated => true, // isolated vertex with alpha = 0
            }
        }
    }

    pub(crate) fn encode(&self, enc: &mut Encoder) {
        enc.put_f64(self.alpha);
        enc.put_f64(self.jump_cost);
        self.pos.encode(enc);
    }

    /// Decodes [`RwjWalk::encode`] output, refusing a walk whose α is
    /// not the job's `alpha`.
    pub(crate) fn decode(dec: &mut Decoder<'_>, alpha: f64) -> Result<Self, CheckpointError> {
        expect_same("alpha", dec.take_f64()?, alpha)?;
        Ok(RwjWalk {
            alpha,
            jump_cost: dec.take_f64()?,
            pos: Position::decode(dec)?,
        })
    }
}

/// Degree-distribution estimator over RWJ visits: eq. (7) with the
/// reweighting `1/(deg(v) + α)` matching RWJ's stationary law.
#[derive(Clone, Debug)]
pub struct RwjDegreeDistributionEstimator {
    alpha: f64,
    kind: DegreeKind,
    weighted: Vec<f64>,
    weight_sum: f64,
    observed: usize,
}

impl RwjDegreeDistributionEstimator {
    /// Estimator of the chosen degree notion's distribution under jump
    /// weight `alpha` (must match the sampler's).
    pub fn new(alpha: f64, kind: DegreeKind) -> Self {
        assert!(alpha >= 0.0 && alpha.is_finite());
        RwjDegreeDistributionEstimator {
            alpha,
            kind,
            weighted: Vec::new(),
            weight_sum: 0.0,
            observed: 0,
        }
    }

    /// Consumes one visited vertex.
    pub fn observe<A: GraphAccess + ?Sized>(&mut self, access: &A, v: VertexId) {
        self.observed += 1;
        let d = access.degree(v) as f64;
        if d + self.alpha <= 0.0 {
            return;
        }
        let w = 1.0 / (d + self.alpha);
        self.weight_sum += w;
        let label = self.kind.degree_of(access, v);
        if label >= self.weighted.len() {
            self.weighted.resize(label + 1, 0.0);
        }
        self.weighted[label] += w;
    }

    /// Number of visits observed so far.
    pub fn num_observed(&self) -> usize {
        self.observed
    }

    /// Writes α, the degree kind and the accumulators' exact bits: this
    /// state's FSEC layout.
    pub(crate) fn encode(&self, enc: &mut Encoder) {
        enc.put_f64(self.alpha);
        put_degree_kind(enc, self.kind);
        put_f64_slice(enc, &self.weighted);
        enc.put_f64(self.weight_sum);
        enc.put_usize(self.observed);
    }

    /// Restores [`Self::encode`]'s accumulators into this estimator,
    /// refusing a blob of another α or degree kind.
    pub(crate) fn decode(&mut self, dec: &mut Decoder<'_>) -> Result<(), CheckpointError> {
        expect_same("alpha", dec.take_f64()?, self.alpha)?;
        expect_same("degree kind", take_degree_kind(dec)?, self.kind)?;
        self.weighted = take_sums(dec)?;
        self.weight_sum = take_sum(dec)?;
        self.observed = dec.take_usize()?;
        Ok(())
    }

    /// Estimated distribution `θ̂` (index = degree).
    pub fn distribution(&self) -> Vec<f64> {
        if self.weight_sum <= 0.0 {
            return Vec::new();
        }
        self.weighted.iter().map(|&w| w / self.weight_sum).collect()
    }

    /// Estimated CCDF `γ̂`.
    pub fn ccdf(&self) -> Vec<f64> {
        fs_graph::ccdf(&self.distribution())
    }

    /// Point estimate `θ̂_i`.
    pub fn theta(&self, i: usize) -> f64 {
        if self.weight_sum <= 0.0 {
            return 0.0;
        }
        self.weighted.get(i).copied().unwrap_or(0.0) / self.weight_sum
    }
}

/// Group-density estimator over RWJ visits (the Figure-14 metric under
/// RWJ's `1/(deg + α)` reweighting): `θ̂_g` = weighted fraction of visits
/// whose vertex belongs to group `g`.
#[derive(Clone, Debug)]
pub struct RwjGroupDensityEstimator {
    alpha: f64,
    weighted: Vec<f64>,
    weight_sum: f64,
    observed: usize,
}

impl RwjGroupDensityEstimator {
    /// Estimator for `num_groups` group densities under jump weight
    /// `alpha`.
    pub fn new(alpha: f64, num_groups: usize) -> Self {
        assert!(alpha >= 0.0 && alpha.is_finite());
        RwjGroupDensityEstimator {
            alpha,
            weighted: vec![0.0; num_groups],
            weight_sum: 0.0,
            observed: 0,
        }
    }

    /// Consumes one visited vertex.
    pub fn observe<A: GraphAccess + ?Sized>(&mut self, access: &A, v: VertexId) {
        self.observed += 1;
        let d = access.degree(v) as f64;
        if d + self.alpha <= 0.0 {
            return;
        }
        let w = 1.0 / (d + self.alpha);
        self.weight_sum += w;
        for &g in access.groups_of(v) {
            if (g as usize) < self.weighted.len() {
                self.weighted[g as usize] += w;
            }
        }
    }

    /// Number of visits observed so far.
    pub fn num_observed(&self) -> usize {
        self.observed
    }

    /// Estimated density `θ̂_g` of every group.
    pub fn densities(&self) -> Vec<f64> {
        if self.weight_sum <= 0.0 {
            return vec![0.0; self.weighted.len()];
        }
        self.weighted.iter().map(|&w| w / self.weight_sum).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_graph::{graph_from_undirected_pairs, Graph};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn lollipop() -> Graph {
        graph_from_undirected_pairs(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    }

    #[test]
    fn stationary_visits_proportional_to_degree_plus_alpha() {
        let g = lollipop();
        let alpha = 2.0;
        let mut rng = SmallRng::seed_from_u64(211);
        let mut visits = [0usize; 4];
        let mut budget = Budget::new(600_000.0);
        RandomWalkWithJumps::new(alpha).sample_visits(
            &g,
            &CostModel::unit(),
            &mut budget,
            &mut rng,
            |v| visits[v.index()] += 1,
        );
        let total: usize = visits.iter().sum();
        let denom: f64 = (0..4)
            .map(|i| g.degree(VertexId::new(i)) as f64 + alpha)
            .sum();
        for (i, &c) in visits.iter().enumerate() {
            let expect = (g.degree(VertexId::new(i)) as f64 + alpha) / denom;
            let emp = c as f64 / total as f64;
            assert!(
                (emp - expect).abs() < 0.01,
                "vertex {i}: visited {emp}, expected {expect}"
            );
        }
    }

    #[test]
    fn alpha_zero_never_jumps() {
        let g = lollipop();
        let mut rng = SmallRng::seed_from_u64(212);
        let mut jumps = 0usize;
        let mut budget = Budget::new(50_000.0);
        RandomWalkWithJumps::new(0.0).sample(&g, &CostModel::unit(), &mut budget, &mut rng, |ev| {
            if matches!(ev, RwjEvent::Jump { .. }) {
                jumps += 1;
            }
        });
        assert_eq!(jumps, 0);
    }

    #[test]
    fn jumps_cross_disconnected_components() {
        // Two disconnected triangles; a plain RW would never leave its
        // starting component, RWJ must visit both.
        let g = graph_from_undirected_pairs(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let mut rng = SmallRng::seed_from_u64(213);
        let mut in_a = 0usize;
        let mut in_b = 0usize;
        let mut budget = Budget::new(100_000.0);
        RandomWalkWithJumps::new(1.0).sample_visits(
            &g,
            &CostModel::unit(),
            &mut budget,
            &mut rng,
            |v| {
                if v.index() < 3 {
                    in_a += 1;
                } else {
                    in_b += 1;
                }
            },
        );
        assert!(in_a > 0 && in_b > 0, "both components must be visited");
        // Components are isomorphic: visits split evenly under π ∝ deg+α.
        let frac = in_a as f64 / (in_a + in_b) as f64;
        assert!((frac - 0.5).abs() < 0.05, "component A fraction {frac}");
    }

    #[test]
    fn reweighted_degree_estimate_is_unbiased_on_disconnected_graph() {
        // Triangle (degrees 2) ⊎ single edge (degrees 1):
        // θ_1 = 2/5, θ_2 = 3/5. Plain SingleRW cannot estimate this; RWJ
        // with the 1/(deg+α) reweighting can.
        let g = graph_from_undirected_pairs(5, [(0, 1), (1, 2), (0, 2), (3, 4)]);
        let alpha = 1.0;
        let mut rng = SmallRng::seed_from_u64(214);
        let mut est = RwjDegreeDistributionEstimator::new(alpha, DegreeKind::Symmetric);
        let mut budget = Budget::new(400_000.0);
        RandomWalkWithJumps::new(alpha).sample_visits(
            &g,
            &CostModel::unit(),
            &mut budget,
            &mut rng,
            |v| est.observe(&g, v),
        );
        assert!((est.theta(1) - 0.4).abs() < 0.01, "θ̂₁ = {}", est.theta(1));
        assert!((est.theta(2) - 0.6).abs() < 0.01, "θ̂₂ = {}", est.theta(2));
    }

    #[test]
    fn jump_cost_uses_uniform_vertex_price() {
        // With jump cost 10× the walk cost and a huge alpha (jumps almost
        // always), the number of moves is ≈ budget/10.
        let g = lollipop();
        let cost = CostModel {
            walk_step: 1.0,
            uniform_vertex: 10.0,
            random_edge: 2.0,
        };
        let mut rng = SmallRng::seed_from_u64(215);
        let mut moves = 0usize;
        let mut budget = Budget::new(1_000.0);
        RandomWalkWithJumps::new(1e9).sample(&g, &cost, &mut budget, &mut rng, |_| moves += 1);
        // 1 start (10 units) + ~99 jumps (10 units each).
        assert!((90..=100).contains(&moves), "moves = {moves}");
    }

    #[test]
    fn group_density_reweighting() {
        // Group 0 = the two degree-1 vertices of the single edge.
        use fs_graph::VertexGroups;
        let mut g = graph_from_undirected_pairs(5, [(0, 1), (1, 2), (0, 2), (3, 4)]);
        let g0: fs_graph::GroupId = 0;
        g.set_groups(VertexGroups::from_per_vertex(vec![
            vec![],
            vec![],
            vec![],
            vec![g0],
            vec![g0],
        ]));
        let alpha = 1.0;
        let mut rng = SmallRng::seed_from_u64(216);
        let mut est = RwjGroupDensityEstimator::new(alpha, 1);
        let mut budget = Budget::new(400_000.0);
        RandomWalkWithJumps::new(alpha).sample_visits(
            &g,
            &CostModel::unit(),
            &mut budget,
            &mut rng,
            |v| est.observe(&g, v),
        );
        let d = est.densities();
        assert!((d[0] - 0.4).abs() < 0.01, "group density {}", d[0]);
    }

    #[test]
    fn zero_budget_emits_nothing() {
        let g = lollipop();
        let mut rng = SmallRng::seed_from_u64(217);
        let mut budget = Budget::new(0.0);
        let mut count = 0usize;
        RandomWalkWithJumps::new(1.0).sample(&g, &CostModel::unit(), &mut budget, &mut rng, |_| {
            count += 1
        });
        assert_eq!(count, 0);
    }
}
