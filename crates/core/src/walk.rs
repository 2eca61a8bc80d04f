//! Shared single-step random-walk mechanics.
//!
//! Section 4: "At the i-th step a walker at vertex `v_i` chooses an
//! outgoing edge `(v_i, u)` uniformly at random … and adds it to the
//! sequence of sampled edges." All walk-based samplers reduce to this
//! primitive, issued against any [`GraphAccess`] backend — the uniform
//! neighbor pick is routed through the **combined step query**
//! [`GraphAccess::step_query`], so backends can model query loss and
//! dead vertices without the walkers knowing.
//!
//! ## The single-query hot loop
//!
//! The paper's cost model charges one query per crawled vertex, and that
//! one query returns the full neighbor list — hence the degree — of the
//! vertex stepped to. [`step_known`] mirrors this exactly: the caller
//! passes the degree of its current vertex (learned when it arrived
//! there) and receives the degree of wherever it lands, so a walker in
//! steady state issues **exactly one backend query per step** — no
//! `degree` round-trip before the pick, none after the move. On the CSR
//! backend the fused read is also measurably faster (one offsets load
//! pair serves pick + degree; see `fs_graph::Csr::step_to` and the
//! `BENCH_samplers.json` baseline).

use crate::budget::{Budget, CostModel};
use crate::checkpoint::{put_vertex, take_vertex, CheckpointError, Decoder, Encoder};
use crate::start::StartPolicy;
use fs_graph::{Arc, GraphAccess, NeighborReply, QueryKind, StepReply, VertexId};
use rand::Rng;

/// Outcome of one attempted random-walk step.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The step succeeded: the walker moves to `arc.target` and the edge
    /// is reported as a sample.
    Edge(Arc),
    /// The backend lost the response payload: the walker still moves to
    /// `arc.target`, but the sample is not reported.
    Lost(Arc),
    /// The queried neighbor never responded: the walker stays put, no
    /// sample. (Budget was spent by the caller regardless.)
    Bounced,
    /// `v` has no neighbors — the walk cannot continue from here.
    Isolated,
}

impl StepOutcome {
    /// The sampled edge, if one was reported.
    pub fn sampled(self) -> Option<Arc> {
        match self {
            StepOutcome::Edge(arc) => Some(arc),
            _ => None,
        }
    }

    /// The walker's position after the step, given where it stood.
    pub fn position_after(self, before: VertexId) -> VertexId {
        match self {
            StepOutcome::Edge(arc) | StepOutcome::Lost(arc) => arc.target,
            StepOutcome::Bounced | StepOutcome::Isolated => before,
        }
    }
}

/// One attempted step together with the degree and row handle of the
/// walker's resulting position — the state a single-query walker threads
/// from step to step.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Stepped {
    /// What the step produced.
    pub outcome: StepOutcome,
    /// Degree of the vertex the walker occupies **after** the step: the
    /// combined reply's `target_degree` when it moved, the caller's own
    /// degree when it bounced, 0 when isolated. Feed this back as the
    /// next step's `d`.
    pub degree_after: usize,
    /// Backend row handle of the vertex the walker occupies after the
    /// step ([`StepReply::target_row`] when it moved, the caller's own
    /// handle otherwise). Feed this back as the next step's `row`.
    pub row_after: usize,
}

/// Takes one random-walk step from `v`, whose degree `d` and row handle
/// `row` the caller already knows (from arriving at `v` — the previous
/// step's [`Stepped`], or `access.degree(v)` / `access.vertex_row(v)`
/// at the start crawl): picks an incident edge uniformly and resolves
/// pick + landing degree + landing row through the backend as **one**
/// combined query. The hot-path primitive; in-memory backends only ever
/// produce [`StepOutcome::Edge`] or [`StepOutcome::Isolated`].
#[inline]
pub fn step_known<A: GraphAccess + ?Sized, R: Rng + ?Sized>(
    access: &A,
    v: VertexId,
    d: usize,
    row: usize,
    rng: &mut R,
) -> Stepped {
    debug_assert_eq!(d, access.degree(v), "caller-tracked degree diverged");
    debug_assert_eq!(row, access.vertex_row(v), "caller-tracked row diverged");
    if d == 0 {
        return Stepped {
            outcome: StepOutcome::Isolated,
            degree_after: 0,
            row_after: row,
        };
    }
    resolve_stepped(v, d, row, access.step_query_at(v, row, rng.gen_range(0..d)))
}

/// Folds one combined reply into the walker state after the step. The
/// single home of the fault taxonomy's threading rules: a moved walker
/// (`Vertex`/`Lost`) adopts the reply's degree and row, an
/// `Unresponsive` target reveals nothing so the walker keeps the
/// caller's `d`/`row`. Shared by [`step_known`] and
/// [`crate::nbrw::nb_step_known`].
#[inline]
pub(crate) fn resolve_stepped(v: VertexId, d: usize, row: usize, reply: StepReply) -> Stepped {
    let StepReply {
        reply,
        target_degree,
        target_row,
    } = reply;
    match reply {
        NeighborReply::Vertex(next) => Stepped {
            outcome: StepOutcome::Edge(Arc {
                source: v,
                target: next,
            }),
            degree_after: target_degree,
            row_after: target_row,
        },
        NeighborReply::Lost(next) => Stepped {
            outcome: StepOutcome::Lost(Arc {
                source: v,
                target: next,
            }),
            degree_after: target_degree,
            row_after: target_row,
        },
        NeighborReply::Unresponsive => Stepped {
            outcome: StepOutcome::Bounced,
            degree_after: d,
            row_after: row,
        },
    }
}

/// Budget one walk step costs on `access`: the cost model's
/// `walk_step` times the backend's neighbor-step surcharge.
#[inline]
pub(crate) fn step_cost<A: GraphAccess + ?Sized>(cost: &CostModel, access: &A) -> f64 {
    cost.walk_step * access.cost_factor(QueryKind::NeighborStep)
}

/// Where a single-query walker stands: its vertex plus the degree and
/// backend row handle it learned on arriving there. Every walk machine
/// threads one of these from step to step (MultipleRW re-seats it per
/// walker) and checkpoints it as `v ‖ d ‖ row`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct Position {
    pub(crate) v: VertexId,
    pub(crate) d: usize,
    pub(crate) row: usize,
}

impl Position {
    /// A walker standing on `v` (degree and row read from the start
    /// crawl that revealed it).
    #[inline]
    pub(crate) fn at<A: GraphAccess + ?Sized>(access: &A, v: VertexId) -> Self {
        Position {
            v,
            d: access.degree(v),
            row: access.vertex_row(v),
        }
    }

    /// Draws one start vertex through `policy`, charging the budget;
    /// `None` when the budget cannot afford it.
    pub(crate) fn draw<A: GraphAccess + ?Sized, R: Rng + ?Sized>(
        policy: &StartPolicy,
        access: &A,
        cost: &CostModel,
        budget: &mut Budget,
        rng: &mut R,
    ) -> Option<Self> {
        let v = *policy.draw(access, 1, cost, budget, rng).first()?;
        Some(Position::at(access, v))
    }

    /// One uniform random-walk step ([`step_known`]); the walker moves
    /// on `Edge`/`Lost` and stays put otherwise.
    #[inline]
    pub(crate) fn step<A: GraphAccess + ?Sized, R: Rng + ?Sized>(
        &mut self,
        access: &A,
        rng: &mut R,
    ) -> StepOutcome {
        self.advance(step_known(access, self.v, self.d, self.row, rng))
    }

    /// Adopts a step's landing state and returns its outcome.
    #[inline]
    pub(crate) fn advance(&mut self, stepped: Stepped) -> StepOutcome {
        self.v = stepped.outcome.position_after(self.v);
        self.d = stepped.degree_after;
        self.row = stepped.row_after;
        stepped.outcome
    }

    pub(crate) fn encode(&self, enc: &mut Encoder) {
        put_vertex(enc, self.v);
        enc.put_usize(self.d);
        enc.put_usize(self.row);
    }

    pub(crate) fn decode(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        Ok(Position {
            v: take_vertex(dec)?,
            d: dec.take_usize()?,
            row: dec.take_usize()?,
        })
    }
}

/// Takes one random-walk step from `v` over `access` without prior
/// degree/row knowledge (convenience for one-shot callers and tests;
/// hot loops thread both through [`step_known`] instead).
#[inline]
pub fn step<A: GraphAccess + ?Sized, R: Rng + ?Sized>(
    access: &A,
    v: VertexId,
    rng: &mut R,
) -> StepOutcome {
    step_known(access, v, access.degree(v), access.vertex_row(v), rng).outcome
}

/// Exponential holding time with rate `d = deg(v)` for the
/// continuous-time FS factorization (Theorem 5.5); `None` — and no RNG
/// draw — for isolated vertices (rate 0 → the clock never fires).
/// Shared by [`crate::distributed::DistributedFs`] and the windowed
/// engine's [`crate::batch::FsEventBatch`], which draw it at the same
/// point of each walker's stream — what keeps the two bit-identical.
#[inline]
pub(crate) fn exp_holding_time<R: Rng + ?Sized>(d: usize, rng: &mut R) -> Option<f64> {
    if d == 0 {
        return None;
    }
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    Some(-u.ln() / d as f64)
}

/// An edge-sink callback, fed every sampled edge in order.
///
/// Estimators implement [`crate::estimators::EdgeEstimator`] and are
/// adapted to this via closures; keeping the sink a plain `FnMut` keeps
/// samplers decoupled from estimator types.
pub type EdgeSink<'a> = dyn FnMut(Arc) + 'a;

/// A vertex-sink callback, fed every independently sampled vertex
/// (random vertex sampling only).
pub type VertexSink<'a> = dyn FnMut(VertexId) + 'a;

#[cfg(test)]
mod tests {
    use super::*;
    use fs_graph::{graph_from_undirected_pairs, CsrAccess};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn step_returns_valid_edge() {
        let g = graph_from_undirected_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut rng = SmallRng::seed_from_u64(111);
        for _ in 0..100 {
            let e = step(&g, VertexId::new(1), &mut rng).sampled().unwrap();
            assert_eq!(e.source, VertexId::new(1));
            assert!(g.has_edge(e.source, e.target));
        }
    }

    #[test]
    fn step_uniform_over_neighbors() {
        let g = graph_from_undirected_pairs(4, [(0, 1), (0, 2), (0, 3)]);
        let mut rng = SmallRng::seed_from_u64(112);
        let mut counts = [0usize; 4];
        let trials = 30_000;
        for _ in 0..trials {
            let e = step(&g, VertexId::new(0), &mut rng).sampled().unwrap();
            counts[e.target.index()] += 1;
        }
        for &c in &counts[1..] {
            let frac = c as f64 / trials as f64;
            assert!((frac - 1.0 / 3.0).abs() < 0.02, "neighbor fraction {frac}");
        }
    }

    #[test]
    fn isolated_vertex_has_no_step() {
        let g = graph_from_undirected_pairs(3, [(0, 1)]);
        let mut rng = SmallRng::seed_from_u64(113);
        assert_eq!(step(&g, VertexId::new(2), &mut rng), StepOutcome::Isolated);
    }

    #[test]
    fn csr_access_wrapper_steps_identically() {
        let g = graph_from_undirected_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut r1 = SmallRng::seed_from_u64(114);
        let mut r2 = SmallRng::seed_from_u64(114);
        let csr = CsrAccess::new(&g);
        for _ in 0..200 {
            assert_eq!(
                step(&g, VertexId::new(1), &mut r1),
                step(&csr, VertexId::new(1), &mut r2)
            );
        }
    }

    #[test]
    fn outcome_accessors() {
        let arc = Arc {
            source: VertexId::new(0),
            target: VertexId::new(1),
        };
        assert_eq!(StepOutcome::Edge(arc).sampled(), Some(arc));
        assert_eq!(StepOutcome::Lost(arc).sampled(), None);
        assert_eq!(StepOutcome::Bounced.sampled(), None);
        let at = VertexId::new(5);
        assert_eq!(StepOutcome::Edge(arc).position_after(at), arc.target);
        assert_eq!(StepOutcome::Lost(arc).position_after(at), arc.target);
        assert_eq!(StepOutcome::Bounced.position_after(at), at);
        assert_eq!(StepOutcome::Isolated.position_after(at), at);
    }
}
