//! Multiple independent random walkers (`MultipleRW`, Section 4.4).
//!
//! `m` walkers start at independently drawn vertices and walk
//! independently; with budget `B` and per-start cost `c`, each walker
//! takes `⌊B/m − c⌋` steps. The paper shows this *naive* parallelisation
//! can be worse than a single walker when starts are uniform (Figure 1):
//! each walker's steady-state visit distribution is degree-proportional,
//! so uniformly placed walkers oversample low-volume regions during their
//! (short) transients, and disconnected components never mix at all
//! (Section 4.5).

use crate::budget::{Budget, CostModel};
use crate::checkpoint::{put_vertex, take_vertex, CheckpointError, Decoder, Encoder};
use crate::start::StartPolicy;
use crate::walk::{self, Position, StepOutcome};
use fs_graph::{Arc, GraphAccess, VertexId};
use rand::Rng;

/// How the step budget is spread across the independent walkers.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Each walker runs its whole share in turn (the paper's
    /// `⌊B/m − c⌋` steps per walker). Sampled edges are grouped by
    /// walker in the output order.
    EqualSplit,
    /// Walkers advance round-robin, one step each. Statistically
    /// identical (walkers are independent); output order interleaves
    /// walkers. Used by the ablation benches.
    Interleaved,
}

/// Multiple independent random walkers.
#[derive(Clone, Debug)]
pub struct MultipleRw {
    /// Number of walkers `m ≥ 1`.
    pub m: usize,
    /// Start-vertex distribution.
    pub start: StartPolicy,
    /// Budget schedule.
    pub schedule: Schedule,
}

impl MultipleRw {
    /// `m` uniform-start walkers with the paper's equal-split schedule.
    pub fn new(m: usize) -> Self {
        assert!(m >= 1, "need at least one walker");
        MultipleRw {
            m,
            start: StartPolicy::Uniform,
            schedule: Schedule::EqualSplit,
        }
    }

    /// Sets the start policy.
    pub fn with_start(mut self, start: StartPolicy) -> Self {
        self.start = start;
        self
    }

    /// Sets the schedule.
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Runs all walkers, feeding every sampled edge to `sink`.
    pub fn sample_edges<A: GraphAccess + ?Sized, R: Rng + ?Sized>(
        &self,
        access: &A,
        cost: &CostModel,
        budget: &mut Budget,
        rng: &mut R,
        mut sink: impl FnMut(Arc),
    ) {
        let step_cost = walk::step_cost(cost, access);
        match self.schedule {
            Schedule::EqualSplit => {
                let Some(mut walk) =
                    MultipleRwWalk::start(&self.start, self.m, access, cost, budget, rng)
                else {
                    return;
                };
                while !walk.step(access, budget, step_cost, rng, &mut sink) {}
            }
            Schedule::Interleaved => {
                let starts = self.start.draw(access, self.m, cost, budget, rng);
                let mut walkers: Vec<Position> =
                    starts.iter().map(|&v| Position::at(access, v)).collect();
                if walkers.is_empty() {
                    return;
                }
                'outer: loop {
                    for pos in &mut walkers {
                        if !budget.try_spend(step_cost) {
                            break 'outer;
                        }
                        if let StepOutcome::Edge(edge) = pos.step(access, rng) {
                            sink(edge);
                        }
                    }
                }
            }
        }
    }
}

/// MultipleRW under [`Schedule::EqualSplit`] as a resumable step
/// machine — the one walk loop that both [`MultipleRw::sample_edges`]
/// and [`crate::runner::ChunkedRunner`] drive. Walker `w` runs its
/// whole `per_walker` quota, then the next walker starts from its own
/// start vertex.
#[derive(Clone, Debug)]
pub(crate) struct MultipleRwWalk {
    starts: Vec<VertexId>,
    /// Steps each walker may take, frozen after the start draws.
    per_walker: usize,
    /// Current walker index.
    w: usize,
    /// Attempts taken by the current walker.
    taken: usize,
    /// Current walker's position.
    pos: Position,
}

impl MultipleRwWalk {
    /// Draws the `m` start vertices, charging the budget, and splits
    /// what is left equally; `None` when not even one start is
    /// affordable.
    pub(crate) fn start<A: GraphAccess + ?Sized, R: Rng + ?Sized>(
        policy: &StartPolicy,
        m: usize,
        access: &A,
        cost: &CostModel,
        budget: &mut Budget,
        rng: &mut R,
    ) -> Option<Self> {
        let starts = policy.draw(access, m, cost, budget, rng);
        let first = *starts.first()?;
        Some(MultipleRwWalk {
            per_walker: budget.affordable(walk::step_cost(cost, access)) / starts.len(),
            pos: Position::at(access, first),
            starts,
            w: 0,
            taken: 0,
        })
    }

    /// One attempt of the current walker, handing over to the next
    /// walker first when its quota is spent. Returns `true` once the
    /// last walker is done or the budget runs out.
    #[inline]
    pub(crate) fn step<A: GraphAccess + ?Sized, R: Rng + ?Sized>(
        &mut self,
        access: &A,
        budget: &mut Budget,
        step_cost: f64,
        rng: &mut R,
        mut sink: impl FnMut(Arc),
    ) -> bool {
        loop {
            if self.w >= self.starts.len() {
                return true;
            }
            if self.taken < self.per_walker {
                break;
            }
            self.w += 1;
            self.taken = 0;
            if let Some(&next) = self.starts.get(self.w) {
                self.pos = Position::at(access, next);
            }
        }
        if !budget.try_spend(step_cost) {
            return true;
        }
        self.taken += 1;
        match self.pos.step(access, rng) {
            StepOutcome::Edge(edge) => sink(edge),
            StepOutcome::Lost(_) | StepOutcome::Bounced => {}
            // A stuck walker forfeits the rest of its quota; the next
            // attempt hands over to the following walker.
            StepOutcome::Isolated => self.taken = self.per_walker,
        }
        false
    }

    pub(crate) fn encode(&self, enc: &mut Encoder) {
        enc.put_usize(self.starts.len());
        for &s in &self.starts {
            put_vertex(enc, s);
        }
        enc.put_usize(self.per_walker);
        enc.put_usize(self.w);
        enc.put_usize(self.taken);
        self.pos.encode(enc);
    }

    /// Decodes [`MultipleRwWalk::encode`] output, refusing a walk with
    /// no starts or more than the job's `m`.
    pub(crate) fn decode(dec: &mut Decoder<'_>, m: usize) -> Result<Self, CheckpointError> {
        let n_starts = dec.take_count(8)?;
        if !(1..=m).contains(&n_starts) {
            return Err(CheckpointError::Malformed(format!(
                "{n_starts} walkers outside 1..={m}"
            )));
        }
        let mut starts = Vec::with_capacity(n_starts);
        for _ in 0..n_starts {
            starts.push(take_vertex(dec)?);
        }
        Ok(MultipleRwWalk {
            starts,
            per_walker: dec.take_usize()?,
            w: dec.take_usize()?,
            taken: dec.take_usize()?,
            pos: Position::decode(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_graph::{graph_from_undirected_pairs, Graph, VertexId};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn two_triangles() -> Graph {
        graph_from_undirected_pairs(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    }

    #[test]
    fn equal_split_step_counts() {
        let g = two_triangles();
        let mut budget = Budget::new(100.0);
        let mut rng = SmallRng::seed_from_u64(131);
        let mut count = 0usize;
        MultipleRw::new(4).sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |_| {
            count += 1
        });
        // 4 starts cost 4; remaining 96 split as 24 steps x 4 walkers.
        assert_eq!(count, 96);
    }

    #[test]
    fn paper_step_formula() {
        // B = 100, m = 10, c = 1: each walker gets floor(B/m - c) = 9.
        let g = two_triangles();
        let mut budget = Budget::new(100.0);
        let mut rng = SmallRng::seed_from_u64(132);
        let mut count = 0usize;
        MultipleRw::new(10).sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |_| {
            count += 1
        });
        assert_eq!(count, 90);
    }

    #[test]
    fn walkers_stay_in_their_components() {
        let g = two_triangles();
        let mut budget = Budget::new(2_000.0);
        let mut rng = SmallRng::seed_from_u64(133);
        // Fix starts: one walker per triangle.
        let sampler = MultipleRw::new(2)
            .with_start(StartPolicy::Fixed(vec![VertexId::new(0), VertexId::new(3)]));
        let mut seen_cross = false;
        let mut in_a = 0usize;
        let mut in_b = 0usize;
        sampler.sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |e| {
            let a = e.source.index() < 3;
            let b = e.target.index() < 3;
            if a != b {
                seen_cross = true;
            }
            if a {
                in_a += 1;
            } else {
                in_b += 1;
            }
        });
        assert!(!seen_cross, "disconnected components cannot be crossed");
        assert!(in_a > 0 && in_b > 0);
    }

    #[test]
    fn interleaved_same_totals() {
        let g = two_triangles();
        let mut rng = SmallRng::seed_from_u64(134);
        let mut b1 = Budget::new(61.0);
        let mut c1 = 0usize;
        MultipleRw::new(3).sample_edges(&g, &CostModel::unit(), &mut b1, &mut rng, |_| c1 += 1);
        let mut b2 = Budget::new(61.0);
        let mut c2 = 0usize;
        MultipleRw::new(3)
            .with_schedule(Schedule::Interleaved)
            .sample_edges(&g, &CostModel::unit(), &mut b2, &mut rng, |_| c2 += 1);
        // EqualSplit: floor(58/3)=19 x3 = 57; Interleaved uses all 58.
        assert_eq!(c1, 57);
        assert_eq!(c2, 58);
    }

    #[test]
    fn start_cost_models_hit_ratio() {
        let g = two_triangles();
        let cost = CostModel::unit().with_vertex_hit_ratio(0.5); // c = 2
        let mut budget = Budget::new(40.0);
        let mut rng = SmallRng::seed_from_u64(135);
        let mut count = 0usize;
        MultipleRw::new(5).sample_edges(&g, &cost, &mut budget, &mut rng, |_| count += 1);
        // 5 starts cost 10; 30 steps split 6x5.
        assert_eq!(count, 30);
    }

    #[test]
    fn m_one_equals_single_walker_distribution() {
        // Both are the same process; check visit stats agree loosely.
        let g = graph_from_undirected_pairs(4, [(0, 1), (1, 2), (0, 2), (2, 3)]);
        let mut rng = SmallRng::seed_from_u64(136);
        let steps = 200_000;
        let mut visits = [0usize; 4];
        let mut budget = Budget::new(steps as f64);
        MultipleRw::new(1).sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |e| {
            visits[e.target.index()] += 1;
        });
        let total: usize = visits.iter().sum();
        let emp3 = visits[3] as f64 / total as f64;
        let expect3 = 1.0 / 8.0;
        assert!((emp3 - expect3).abs() < 0.01, "{emp3} vs {expect3}");
    }
}
