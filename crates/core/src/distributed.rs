//! Distributed Frontier Sampling (Section 5.3, Theorem 5.5).
//!
//! FS looks inherently centralized — line 4 of Algorithm 1 needs the
//! degrees of *all* `m` walkers. Theorem 5.5 removes the coordination:
//! run `m` **independent** walkers in continuous time where a walker at
//! vertex `v` waits an `Exp(deg(v))`-distributed time before stepping.
//! By the uniformization of the CTMC on `G^m` and the Poisson
//! superposition property, the embedded jump chain of the union process
//! is exactly the FS chain — so the walkers never need to communicate.
//!
//! This module implements that continuous-time process with a priority
//! queue of walker clocks. The emitted *edge sequence* is distribution-
//! identical to [`crate::frontier::FrontierSampler`]; tests verify this
//! empirically.

use crate::budget::{Budget, CostModel};
use crate::start::StartPolicy;
use crate::walk::{self, StepOutcome};
use fs_graph::{Arc, GraphAccess};
use rand::Rng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Distributed FS: `m` uncoordinated walkers with exponential clocks.
#[derive(Clone, Debug)]
pub struct DistributedFs {
    /// Number of walkers.
    pub m: usize,
    /// Start-vertex distribution.
    pub start: StartPolicy,
}

/// Heap entry: next firing time of a walker (min-heap via reversed cmp).
#[derive(Copy, Clone, Debug)]
struct Clock {
    time: f64,
    walker: usize,
}

impl PartialEq for Clock {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.walker == other.walker
    }
}
impl Eq for Clock {}
impl PartialOrd for Clock {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Clock {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse on time for a min-heap; tie-break on walker id for
        // total order (times are continuous, ties are measure-zero).
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.walker.cmp(&self.walker))
    }
}

impl DistributedFs {
    /// Distributed FS with `m` uniformly started walkers.
    pub fn new(m: usize) -> Self {
        assert!(m >= 1);
        DistributedFs {
            m,
            start: StartPolicy::Uniform,
        }
    }

    /// Sets the start policy.
    pub fn with_start(mut self, start: StartPolicy) -> Self {
        self.start = start;
        self
    }

    /// Runs the process, emitting edges in event-time order, spending one
    /// `walk_step` of budget per event so the sample count matches
    /// centralized FS under the same budget.
    pub fn sample_edges<A: GraphAccess + ?Sized, R: Rng + ?Sized>(
        &self,
        access: &A,
        cost: &CostModel,
        budget: &mut Budget,
        rng: &mut R,
        mut sink: impl FnMut(Arc),
    ) {
        let positions = self.start.draw(access, self.m, cost, budget, rng);
        if positions.is_empty() {
            return;
        }
        let step_cost = walk::step_cost(cost, access);
        let mut positions = positions;
        // Degrees and row handles ride along with positions (start
        // crawls revealed them), so each event issues exactly one
        // combined step query.
        let mut degrees: Vec<usize> = positions.iter().map(|&v| access.degree(v)).collect();
        let mut rows: Vec<usize> = positions.iter().map(|&v| access.vertex_row(v)).collect();
        let mut heap = BinaryHeap::with_capacity(positions.len());
        for (i, &d) in degrees.iter().enumerate() {
            if let Some(t) = walk::exp_holding_time(d, rng) {
                heap.push(Clock { time: t, walker: i });
            }
        }
        while budget.try_spend(step_cost) {
            let Some(Clock { time, walker }) = heap.pop() else {
                break;
            };
            // A degree-0 position yields no step: the walker's clock
            // simply never fires again. On faulty backends, a lost reply
            // or a bounce still rewinds the clock (the walker retries).
            let stepped = walk::step_known(
                access,
                positions[walker],
                degrees[walker],
                rows[walker],
                rng,
            );
            if let StepOutcome::Edge(edge) | StepOutcome::Lost(edge) = stepped.outcome {
                positions[walker] = edge.target;
                degrees[walker] = stepped.degree_after;
                rows[walker] = stepped.row_after;
            }
            if let StepOutcome::Edge(edge) = stepped.outcome {
                sink(edge);
            }
            if !matches!(stepped.outcome, StepOutcome::Isolated) {
                if let Some(dt) = walk::exp_holding_time(degrees[walker], rng) {
                    heap.push(Clock {
                        time: time + dt,
                        walker,
                    });
                }
            }
        }
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
    fn emits_requested_number_of_edges() {
        let g = lollipop();
        let mut budget = Budget::new(50.0);
        let mut rng = SmallRng::seed_from_u64(151);
        let mut count = 0usize;
        DistributedFs::new(5).sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |_| {
            count += 1
        });
        assert_eq!(count, 45); // 5 starts + 45 events
    }

    #[test]
    fn edge_sampling_uniform_like_fs() {
        // Theorem 5.5: same steady-state behaviour as FS — uniform arcs.
        let g = lollipop();
        let mut rng = SmallRng::seed_from_u64(152);
        let mut counts = std::collections::HashMap::new();
        let steps = 400_000;
        let mut budget = Budget::new(steps as f64);
        DistributedFs::new(4).sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |e| {
            *counts
                .entry((e.source.index(), e.target.index()))
                .or_insert(0usize) += 1;
        });
        let total: usize = counts.values().sum();
        for &c in counts.values() {
            let emp = c as f64 / total as f64;
            assert!((emp - 1.0 / 8.0).abs() < 0.01, "arc fraction {emp}");
        }
    }

    #[test]
    fn matches_frontier_sampler_distribution() {
        // Empirical per-vertex visit distribution of DFS vs FS must agree
        // (both = degree-proportional in steady state).
        let g = lollipop();
        let steps = 200_000;
        let run_dfs = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut visits = [0f64; 4];
            let mut budget = Budget::new(steps as f64);
            DistributedFs::new(3).sample_edges(
                &g,
                &CostModel::unit(),
                &mut budget,
                &mut rng,
                |e| visits[e.target.index()] += 1.0,
            );
            visits
        };
        let run_fs = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut visits = [0f64; 4];
            let mut budget = Budget::new(steps as f64);
            crate::frontier::FrontierSampler::new(3).sample_edges(
                &g,
                &CostModel::unit(),
                &mut budget,
                &mut rng,
                |e| visits[e.target.index()] += 1.0,
            );
            visits
        };
        let d = run_dfs(153);
        let f = run_fs(154);
        let total_d: f64 = d.iter().sum();
        let total_f: f64 = f.iter().sum();
        for i in 0..4 {
            let dd = d[i] / total_d;
            let ff = f[i] / total_f;
            assert!((dd - ff).abs() < 0.01, "vertex {i}: DFS {dd} vs FS {ff}");
        }
    }

    #[test]
    fn event_times_monotone() {
        // The emitted sequence must respect event-time order; verify by
        // instrumenting a tiny run with a wrapped sink checking that the
        // walker holding the token alternates plausibly (no panic = pass
        // for ordering; heap guarantees order by construction).
        let g = lollipop();
        let mut budget = Budget::new(100.0);
        let mut rng = SmallRng::seed_from_u64(155);
        let mut count = 0;
        DistributedFs::new(2).sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |e| {
            assert!(g.has_edge(e.source, e.target));
            count += 1;
        });
        assert!(count > 0);
    }
}
