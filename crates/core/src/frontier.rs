//! Frontier Sampling — the paper's contribution (Section 5, Algorithm 1).
//!
//! FS maintains a list `L = (v_1, …, v_m)` of `m` *dependent* walkers.
//! Each step:
//!
//! 1. select a walker `u ∈ L` with probability `deg(u) / Σ_{v∈L} deg(v)`
//!    (line 4);
//! 2. move it over a uniformly random incident edge `(u, v)`, emit the
//!    edge, and replace `u` by `v` in `L` (lines 5–6);
//!
//! until `n ≥ B − mc` steps have been taken (line 8 — the budget left
//! after paying `c` per uniformly-drawn start vertex).
//!
//! Selecting a walker degree-proportionally and then an incident edge
//! uniformly is *exactly* sampling a uniform random edge out of the
//! "edge frontier" `e(L)`, which is why FS is a single random walk on the
//! `m`-th Cartesian power `G^m` (Lemma 5.1) and inherits uniform edge
//! sampling and the SLLN in steady state (Theorem 5.2). Unlike `m`
//! independent walkers, its joint stationary distribution approaches the
//! uniform distribution as `m → ∞` (Theorem 5.4), so starting from
//! uniformly sampled vertices starts FS *near* steady state — the property
//! that makes it robust to disconnected components.
//!
//! The walker-selection step uses an exact integer Fenwick tree
//! ([`crate::fenwick::IntFenwick`]) for `O(log m)` select/update —
//! degrees are integers, so selection probabilities are exact and the
//! branchless descent keeps high-dimensional FS cheap. The tree doubles
//! as the per-walker degree store, so one combined
//! [`fs_graph::GraphAccess::step_query`] per step is the only backend
//! round-trip (Section 2's one-query-per-crawl cost model, exactly).

use crate::budget::{Budget, CostModel};
use crate::fenwick::IntFenwick;
use crate::start::StartPolicy;
use crate::walk::{self, StepOutcome};
use fs_graph::{Arc, GraphAccess, VertexId};
use rand::Rng;

/// Frontier Sampling (Algorithm 1): an `m`-dimensional random walk.
///
/// ```
/// use frontier_sampling::{Budget, CostModel, FrontierSampler};
/// use rand::SeedableRng;
///
/// let g = fs_graph::graph_from_undirected_pairs(4, [(0, 1), (1, 2), (0, 2), (2, 3)]);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let mut budget = Budget::new(100.0);
/// let mut sampled = 0;
/// FrontierSampler::new(3).sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |edge| {
///     assert!(g.has_edge(edge.source, edge.target));
///     sampled += 1;
/// });
/// assert_eq!(sampled, 97); // 3 uniform starts cost 3 of the 100 units
/// ```
#[derive(Clone, Debug)]
pub struct FrontierSampler {
    /// Dimension `m ≥ 1` (number of dependent walkers). `m = 1` is
    /// exactly a single random walk.
    pub m: usize,
    /// Start-vertex distribution (the paper's default: uniform).
    pub start: StartPolicy,
}

impl FrontierSampler {
    /// FS with `m` uniformly started walkers.
    pub fn new(m: usize) -> Self {
        assert!(m >= 1, "FS dimension must be at least 1");
        FrontierSampler {
            m,
            start: StartPolicy::Uniform,
        }
    }

    /// Sets the start policy.
    pub fn with_start(mut self, start: StartPolicy) -> Self {
        self.start = start;
        self
    }

    /// Runs FS, feeding every sampled edge to `sink` until the budget is
    /// exhausted.
    pub fn sample_edges<A: GraphAccess + ?Sized, R: Rng + ?Sized>(
        &self,
        access: &A,
        cost: &CostModel,
        budget: &mut Budget,
        rng: &mut R,
        mut sink: impl FnMut(Arc),
    ) {
        let mut frontier = match Frontier::init(self, access, cost, budget, rng) {
            Some(f) => f,
            None => return,
        };
        let step_cost = walk::step_cost(cost, access);
        // Hoist the budget arithmetic out of the hot loop: the number of
        // affordable steps is fixed up front and each attempt — including
        // a final Isolated one — costs one step, exactly as the
        // historical per-step `try_spend` charged.
        let affordable = budget.affordable(step_cost);
        let mut attempts = 0usize;
        while attempts < affordable {
            attempts += 1;
            match frontier.step_outcome(access, rng) {
                StepOutcome::Edge(edge) => sink(edge),
                StepOutcome::Lost(_) | StepOutcome::Bounced => {}
                StepOutcome::Isolated => break,
            }
        }
        budget.force_spend(attempts as f64 * step_cost);
    }
}

/// The live FS state: walker positions plus the degree-weighted selection
/// tree (which doubles as the exact per-walker degree cache). Exposed so
/// sample-path experiments and the theory tests can drive FS step by
/// step.
#[derive(Clone, Debug)]
pub struct Frontier {
    positions: Vec<VertexId>,
    /// Per-walker backend row handles, threaded from reply to reply
    /// alongside the degrees (which live in the selection tree).
    rows: Vec<usize>,
    weights: IntFenwick,
}

impl Frontier {
    /// Draws the initial walker list (paying `m·c`) and builds the state.
    /// Returns `None` if no walker could be afforded.
    pub fn init<A: GraphAccess + ?Sized, R: Rng + ?Sized>(
        sampler: &FrontierSampler,
        access: &A,
        cost: &CostModel,
        budget: &mut Budget,
        rng: &mut R,
    ) -> Option<Self> {
        let positions = sampler.start.draw(access, sampler.m, cost, budget, rng);
        if positions.is_empty() {
            return None;
        }
        Some(Self::from_positions(access, positions))
    }

    /// Builds the state from explicit walker positions.
    pub fn from_positions<A: GraphAccess + ?Sized>(access: &A, positions: Vec<VertexId>) -> Self {
        let degrees: Vec<u64> = positions.iter().map(|&v| access.degree(v) as u64).collect();
        Frontier {
            weights: IntFenwick::new(&degrees),
            rows: positions.iter().map(|&v| access.vertex_row(v)).collect(),
            positions,
        }
    }

    /// Current walker positions `L`.
    pub fn positions(&self) -> &[VertexId] {
        &self.positions
    }

    /// `Σ_{v ∈ L} deg(v)` — the size of the edge frontier `|e(L)|`.
    pub fn frontier_volume(&self) -> f64 {
        self.weights.total() as f64
    }

    /// One FS step (Algorithm 1 lines 4–6): selects a walker
    /// degree-proportionally, moves it, and returns the sampled edge.
    ///
    /// Convenience for fault-free backends, where
    /// [`Frontier::step_outcome`] only ever yields
    /// [`StepOutcome::Edge`]: returns `None` exactly when no edge was
    /// *reported* — on an in-memory graph that means every walker sits on
    /// a degree-0 vertex (cannot happen when starts are drawn by
    /// [`StartPolicy`], which rejects isolated vertices, and the graph is
    /// symmetric).
    pub fn step<A: GraphAccess + ?Sized, R: Rng + ?Sized>(
        &mut self,
        access: &A,
        rng: &mut R,
    ) -> Option<Arc> {
        self.step_outcome(access, rng).sampled()
    }

    /// One FS step with the backend's full failure taxonomy: a
    /// [`StepOutcome::Lost`] reply still advances the selected walker
    /// (and its selection weight), [`StepOutcome::Bounced`] leaves the
    /// frontier unchanged, and [`StepOutcome::Isolated`] reports that
    /// every walker is stuck (`frontier_volume() == 0`).
    pub fn step_outcome<A: GraphAccess + ?Sized, R: Rng + ?Sized>(
        &mut self,
        access: &A,
        rng: &mut R,
    ) -> StepOutcome {
        let total = self.weights.total();
        if total == 0 {
            return StepOutcome::Isolated;
        }
        // Select the walker and read its degree from the selection tree
        // itself (`O(1)` shadow read) — the one backend query of this
        // step is the combined pick + landing-degree resolution inside
        // `step_known`, entered through the walker's carried row handle.
        let i = self.weights.find(rng.gen_range(0..total));
        let d = self.weights.get(i) as usize;
        let stepped = walk::step_known(access, self.positions[i], d, self.rows[i], rng);
        if let StepOutcome::Edge(edge) | StepOutcome::Lost(edge) = stepped.outcome {
            self.positions[i] = edge.target;
            self.rows[i] = stepped.row_after;
            self.weights.set(i, stepped.degree_after as u64);
        }
        stepped.outcome
    }

    /// Migrates the frontier onto a **new snapshot** of an evolving
    /// network (the paper's future-work direction, Section 8: "estimating
    /// characteristics of dynamic networks").
    ///
    /// Walker positions are carried over by vertex id; walkers whose
    /// vertex no longer exists or has lost all edges are re-seeded at a
    /// uniformly random non-isolated vertex. Degree weights are
    /// recomputed against the new snapshot, so subsequent [`Frontier::step`]s
    /// are exact FS on the new graph — warm-started from the old
    /// frontier, which is near the new steady state whenever the change
    /// between snapshots is incremental.
    pub fn migrate<A: GraphAccess + ?Sized, R: Rng + ?Sized>(
        &mut self,
        new_access: &A,
        rng: &mut R,
    ) {
        let n = new_access.num_vertices();
        assert!(n > 0, "cannot migrate onto an empty graph");
        for pos in &mut self.positions {
            if pos.index() >= n || new_access.degree(*pos) == 0 {
                // Re-seed: the walker's host vanished.
                loop {
                    let cand = VertexId::new(rng.gen_range(0..n));
                    if new_access.degree(cand) > 0 {
                        *pos = cand;
                        break;
                    }
                }
            }
        }
        let degrees: Vec<u64> = self
            .positions
            .iter()
            .map(|&v| new_access.degree(v) as u64)
            .collect();
        self.weights = IntFenwick::new(&degrees);
        self.rows = self
            .positions
            .iter()
            .map(|&v| new_access.vertex_row(v))
            .collect();
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
    fn emits_valid_edges_and_respects_budget() {
        let g = lollipop();
        let mut budget = Budget::new(100.0);
        let mut rng = SmallRng::seed_from_u64(141);
        let mut count = 0usize;
        FrontierSampler::new(5).sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |e| {
            assert!(g.has_edge(e.source, e.target));
            count += 1;
        });
        // 5 starts + 95 steps (Algorithm 1: n goes to B - mc).
        assert_eq!(count, 95);
    }

    #[test]
    fn edges_sampled_uniformly_in_steady_state() {
        // Theorem 5.2(I): every arc equally likely.
        let g = lollipop();
        let mut rng = SmallRng::seed_from_u64(142);
        let mut counts = std::collections::HashMap::new();
        let steps = 400_000;
        let mut budget = Budget::new(steps as f64);
        FrontierSampler::new(3).sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |e| {
            *counts
                .entry((e.source.index(), e.target.index()))
                .or_insert(0usize) += 1;
        });
        let total: usize = counts.values().sum();
        let num_arcs = g.num_arcs() as f64;
        for (&arc, &c) in &counts {
            let emp = c as f64 / total as f64;
            assert!(
                (emp - 1.0 / num_arcs).abs() < 0.01,
                "arc {arc:?}: {emp} vs {}",
                1.0 / num_arcs
            );
        }
        assert_eq!(counts.len(), g.num_arcs(), "every arc reached");
    }

    #[test]
    fn m_equal_one_behaves_like_single_walker() {
        // Same stationary visit distribution as SingleRW.
        let g = lollipop();
        let mut rng = SmallRng::seed_from_u64(143);
        let mut visits = [0usize; 4];
        let steps = 300_000;
        let mut budget = Budget::new(steps as f64);
        FrontierSampler::new(1).sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |e| {
            visits[e.target.index()] += 1;
        });
        let total: usize = visits.iter().sum();
        for (i, &c) in visits.iter().enumerate() {
            let expect = g.degree(VertexId::new(i)) as f64 / g.volume() as f64;
            let emp = c as f64 / total as f64;
            assert!((emp - expect).abs() < 0.01, "vertex {i}: {emp} vs {expect}");
        }
    }

    #[test]
    fn walker_exchange_covers_components() {
        // Two disconnected triangles: FS walkers starting in both
        // components keep sampling *both*, proportionally to volume.
        let g = graph_from_undirected_pairs(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let mut rng = SmallRng::seed_from_u64(144);
        let sampler = FrontierSampler::new(2)
            .with_start(StartPolicy::Fixed(vec![VertexId::new(0), VertexId::new(3)]));
        let mut in_a = 0usize;
        let mut in_b = 0usize;
        let mut budget = Budget::new(100_000.0);
        sampler.sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |e| {
            if e.source.index() < 3 {
                in_a += 1;
            } else {
                in_b += 1;
            }
        });
        // Equal volumes -> equal sampling rates.
        let frac = in_a as f64 / (in_a + in_b) as f64;
        assert!((frac - 0.5).abs() < 0.01, "component A fraction {frac}");
    }

    #[test]
    fn frontier_state_tracks_positions() {
        let g = lollipop();
        let mut rng = SmallRng::seed_from_u64(145);
        let mut f = Frontier::from_positions(&g, vec![VertexId::new(0), VertexId::new(3)]);
        assert_eq!(f.frontier_volume(), 3.0); // deg0=2, deg3=1
        let e = f.step(&g, &mut rng).unwrap();
        // The moved walker's new position must be the edge target.
        assert!(f.positions().contains(&e.target));
        let vol: f64 = f.positions().iter().map(|&v| g.degree(v) as f64).sum();
        assert_eq!(f.frontier_volume(), vol);
    }

    #[test]
    fn migrate_tracks_an_evolving_graph() {
        // Snapshot 1: two triangles bridged at 2-3. Snapshot 2: the
        // bridge is gone and vertex 6 appears attached to the second
        // triangle. FS must keep sampling valid edges of whichever
        // snapshot is current.
        let g1 = graph_from_undirected_pairs(
            6,
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
        );
        let g2 = graph_from_undirected_pairs(
            7,
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (5, 6)],
        );
        // Seed chosen so at least one walker occupies the second
        // component after migration (discovery is impossible otherwise —
        // the bridge is gone).
        let mut rng = SmallRng::seed_from_u64(149);
        let mut f = Frontier::from_positions(&g1, vec![VertexId::new(0), VertexId::new(4)]);
        for _ in 0..1_000 {
            let e = f.step(&g1, &mut rng).unwrap();
            assert!(g1.has_edge(e.source, e.target));
        }
        f.migrate(&g2, &mut rng);
        let mut saw_new_vertex = false;
        for _ in 0..20_000 {
            let e = f.step(&g2, &mut rng).unwrap();
            assert!(g2.has_edge(e.source, e.target));
            if e.target.index() == 6 {
                saw_new_vertex = true;
            }
        }
        assert!(saw_new_vertex, "FS should discover the new vertex");
        // Weights consistent with positions after migration + steps.
        let vol: f64 = f.positions().iter().map(|&v| g2.degree(v) as f64).sum();
        assert_eq!(f.frontier_volume(), vol);
    }

    #[test]
    fn migrate_reseeds_vanished_walkers() {
        let g1 = graph_from_undirected_pairs(4, [(0, 1), (2, 3)]);
        // Snapshot 2 drops vertices 2 and 3's edges entirely.
        let g2 = graph_from_undirected_pairs(4, [(0, 1)]);
        let mut rng = SmallRng::seed_from_u64(148);
        let mut f = Frontier::from_positions(&g1, vec![VertexId::new(2), VertexId::new(3)]);
        f.migrate(&g2, &mut rng);
        for &p in f.positions() {
            assert!(g2.degree(p) > 0, "walker at {p} stranded");
        }
    }

    #[test]
    fn frontier_joint_distribution_matches_theorem_5_2() {
        // Theorem 5.2(II) on a tiny graph, m = 2: P[L = (v1, v2)] =
        // (deg v1 + deg v2) / (m |V|^{m-1} vol(V)).
        let g = graph_from_undirected_pairs(3, [(0, 1), (1, 2), (0, 2)]);
        // Triangle: all degrees 2; the stationary distribution over V^2 is
        // uniform (all 9 states equal).
        let mut rng = SmallRng::seed_from_u64(146);
        let mut f = Frontier::from_positions(&g, vec![VertexId::new(0), VertexId::new(0)]);
        let mut counts = std::collections::HashMap::new();
        let steps = 300_000;
        for _ in 0..steps {
            f.step(&g, &mut rng).unwrap();
            let key = (f.positions()[0].index(), f.positions()[1].index());
            *counts.entry(key).or_insert(0usize) += 1;
        }
        for (&state, &c) in &counts {
            let emp = c as f64 / steps as f64;
            assert!(
                (emp - 1.0 / 9.0).abs() < 0.01,
                "state {state:?}: {emp} vs 1/9"
            );
        }
        assert_eq!(counts.len(), 9);
    }
}
