//! Chunked, cancellable sampling runs with streaming estimator
//! snapshots — the execution engine behind the serving layer.
//!
//! Each serving-relevant sampler (FS, SingleRW, MultipleRW, MHRW, NBRW,
//! RWJ) is one resumable step machine that lives beside its sampler:
//! `SingleRwWalk`, `MultipleRwWalk`, `MhrwWalk`, `NbrwWalk`, `RwjWalk`,
//! and FS's windowed `FsWindowWalk` in [`crate::batch`]. A one-shot call
//! such as [`crate::SingleRw::sample_edges`] starts its machine and steps
//! it until done; [`ChunkedRunner`] drives the same machine, but
//! [`ChunkedRunner::run_chunk`] returns after at most `n` attempts, so a
//! server can interleave snapshotting, cancellation checks, and other
//! jobs between chunks.
//!
//! ## Determinism contract
//!
//! A chunked run with seed `s` consumes its RNG **exactly** like the
//! one-shot library call with seed `s` — same start draws, same step
//! draws, same budget accounting — so the emitted sample stream is
//! bit-identical whatever the chunk size. For the five single-stream
//! walks this holds because both drivers call the same `step`; the
//! `chunked_runner` integration test (chunk sizes 1 through ∞) stays as
//! the regression check. This is the guarantee that lets a server
//! advertise: *a job with seed `s` equals the library call with seed
//! `s`*.
//!
//! For Frontier Sampling the bit reference is
//! [`crate::distributed::DistributedFs::sample_edges_seeded`] with the
//! same seed: the Theorem 5.5 walkers on per-walker streams, merged by
//! a heap of clocks. The runner reaches the same `(time, walker)`
//! stream through the windowed engine (`FsWindowWalk` in
//! [`crate::batch`]), window by window so chunks stay prompt and memory
//! bounded.
//!
//! [`JobEstimator`] pairs the runner with the estimator suite: it
//! consumes the runner's [`Sample`] stream (edges for the edge
//! samplers, visited vertices for MHRW/RWJ, each with the statistically
//! correct reweighting) and produces cheap [`EstimateSnapshot`]s at any
//! point mid-run — every defined value finite, every undefined value an
//! explicit `None`, never NaN (see the estimator audit tests).

use crate::batch::FsWindowWalk;
use crate::budget::{Budget, CostModel};
use crate::checkpoint::{expect_same, take_sum, CheckpointError, Decoder, Encoder};
use crate::estimators::{
    AssortativityEstimator, AverageDegreeEstimator, ClusteringEstimator,
    DegreeDistributionEstimator, EdgeEstimator, PopulationSizeEstimator,
    VertexSampleDegreeEstimator,
};
use crate::mhrw::MhrwWalk;
use crate::multiple::MultipleRwWalk;
use crate::nbrw::NbrwWalk;
use crate::rwj::{RwjDegreeDistributionEstimator, RwjWalk};
use crate::single::SingleRwWalk;
use crate::start::StartPolicy;
use crate::walk::{self, Position};
use fs_graph::stats::DegreeKind;
use fs_graph::{Arc, GraphAccess, VertexId};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Which sampler a job runs, with its parameters. The six methods the
/// serving layer exposes.
#[derive(Clone, Debug, PartialEq)]
pub enum SamplerSpec {
    /// Frontier Sampling with dimension `m`.
    Frontier {
        /// FS dimension `m ≥ 1`.
        m: usize,
    },
    /// Single random walk.
    Single,
    /// `m` independent walkers (the paper's equal-split schedule).
    Multiple {
        /// Number of walkers `m ≥ 1`.
        m: usize,
    },
    /// Metropolis–Hastings RW (uniform vertex samples).
    Mhrw,
    /// Non-backtracking single walker.
    Nbrw,
    /// Random walk with uniform jumps.
    Rwj {
        /// Jump weight `α ≥ 0`.
        alpha: f64,
    },
}

impl SamplerSpec {
    /// Parses the wire name used by the serving layer (`"fs"`,
    /// `"single"`, `"multiple"`, `"mhrw"`, `"nbrw"`, `"rwj"`), taking
    /// `m`/`alpha` from the request.
    pub fn parse(name: &str, m: usize, alpha: f64) -> Result<SamplerSpec, String> {
        match name {
            "fs" => {
                if m < 1 {
                    return Err("fs requires m >= 1".into());
                }
                Ok(SamplerSpec::Frontier { m })
            }
            "single" => Ok(SamplerSpec::Single),
            "multiple" => {
                if m < 1 {
                    return Err("multiple requires m >= 1".into());
                }
                Ok(SamplerSpec::Multiple { m })
            }
            "mhrw" => Ok(SamplerSpec::Mhrw),
            "nbrw" => Ok(SamplerSpec::Nbrw),
            "rwj" => {
                if !(alpha >= 0.0 && alpha.is_finite()) {
                    return Err("rwj requires a finite alpha >= 0".into());
                }
                Ok(SamplerSpec::Rwj { alpha })
            }
            other => Err(format!(
                "unknown sampler '{other}' (expected fs|single|multiple|mhrw|nbrw|rwj)"
            )),
        }
    }

    /// Figure-legend style label.
    pub fn label(&self) -> String {
        match self {
            SamplerSpec::Frontier { m } => format!("FS (m={m})"),
            SamplerSpec::Single => "SingleRW".to_string(),
            SamplerSpec::Multiple { m } => format!("MultipleRW (m={m})"),
            SamplerSpec::Mhrw => "MHRW".to_string(),
            SamplerSpec::Nbrw => "NBRW".to_string(),
            SamplerSpec::Rwj { alpha } => format!("RWJ (alpha={alpha})"),
        }
    }

    /// The wire triple `(name, m, alpha)` that [`SamplerSpec::parse`]
    /// rebuilds this spec from; samplers without `m` or `alpha` report
    /// 1 and 0.0.
    pub fn wire(&self) -> (&'static str, usize, f64) {
        match *self {
            SamplerSpec::Frontier { m } => ("fs", m, 0.0),
            SamplerSpec::Single => ("single", 1, 0.0),
            SamplerSpec::Multiple { m } => ("multiple", m, 0.0),
            SamplerSpec::Mhrw => ("mhrw", 1, 0.0),
            SamplerSpec::Nbrw => ("nbrw", 1, 0.0),
            SamplerSpec::Rwj { alpha } => ("rwj", 1, alpha),
        }
    }

    /// Whether this sampler's native output is visited vertices (MHRW,
    /// RWJ) rather than sampled edges.
    pub fn emits_vertices(&self) -> bool {
        matches!(self, SamplerSpec::Mhrw | SamplerSpec::Rwj { .. })
    }
}

/// One element of a job's sample stream.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Sample {
    /// A sampled edge (FS, SingleRW, MultipleRW, NBRW).
    Edge(Arc),
    /// A visited vertex (MHRW, RWJ).
    Vertex(VertexId),
}

/// What a [`ChunkedRunner::run_chunk`] call left behind.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ChunkStatus {
    /// The run has more work; call `run_chunk` again.
    InProgress,
    /// Budget exhausted (or the walk is stuck): the run is complete.
    Finished,
}

/// The run's step machine. The variant order is the checkpoint's state
/// tag (0–6).
enum State {
    /// Start draw failed (budget below one start): nothing to run.
    Drained,
    Single(SingleRwWalk),
    Frontier(FsWindowWalk),
    Multiple(MultipleRwWalk),
    Mhrw(MhrwWalk),
    Nbrw(NbrwWalk),
    Rwj(RwjWalk),
}

/// A point-in-time profiling view of a [`ChunkedRunner`], read between
/// chunks by the serving tier (steps/s, queries/step, budget
/// burn-down). Observation only: taking one has no behavioral effect
/// on the run.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RunnerProfile {
    /// Walk attempts executed.
    pub steps_done: u64,
    /// Budget consumed so far.
    pub budget_spent: f64,
    /// The total budget `B`.
    pub budget_total: f64,
    /// Backend-reported charged queries (0 for non-counting backends).
    pub queries_issued: u64,
}

/// A resumable, cancellable sampling run over any [`GraphAccess`]
/// backend. See the [module docs](self) for the determinism contract.
pub struct ChunkedRunner<'a, A: GraphAccess + ?Sized> {
    access: &'a A,
    spec: SamplerSpec,
    rng: SmallRng,
    budget: Budget,
    step_cost: f64,
    state: State,
    steps_done: u64,
    finished: bool,
}

impl<'a, A: GraphAccess + ?Sized> ChunkedRunner<'a, A> {
    /// Starts a run: draws the start vertices (charging the budget
    /// exactly as the one-shot sampler would) and freezes the per-method
    /// step quotas. `seed` fixes the whole run.
    pub fn new(
        spec: &SamplerSpec,
        access: &'a A,
        cost: &CostModel,
        budget_total: f64,
        seed: u64,
    ) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut budget = Budget::new(budget_total);
        let step_cost = walk::step_cost(cost, access);
        let (b, r) = (&mut budget, &mut rng);
        let start = &StartPolicy::Uniform;
        let state = match *spec {
            SamplerSpec::Frontier { m } => {
                let starts = start.draw(access, m, cost, b, r);
                FsWindowWalk::new(access, &starts, seed, b.affordable(step_cost))
                    .map(State::Frontier)
            }
            SamplerSpec::Single => Position::draw(start, access, cost, b, r)
                .map(|pos| State::Single(SingleRwWalk(pos))),
            SamplerSpec::Multiple { m } => {
                MultipleRwWalk::start(start, m, access, cost, b, r).map(State::Multiple)
            }
            SamplerSpec::Mhrw => {
                Position::draw(start, access, cost, b, r).map(|pos| State::Mhrw(MhrwWalk(pos)))
            }
            SamplerSpec::Nbrw => {
                Position::draw(start, access, cost, b, r).map(|pos| State::Nbrw(NbrwWalk::at(pos)))
            }
            SamplerSpec::Rwj { alpha } => {
                RwjWalk::start(alpha, start, access, cost, b, r).map(State::Rwj)
            }
        }
        .unwrap_or(State::Drained);
        let finished = matches!(state, State::Drained);
        ChunkedRunner {
            access,
            spec: spec.clone(),
            rng,
            budget,
            step_cost,
            state,
            steps_done: 0,
            finished,
        }
    }

    /// Whether the run is complete.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Walk attempts executed so far (the job's progress numerator).
    pub fn steps_done(&self) -> u64 {
        self.steps_done
    }

    /// Fraction of the budget consumed, in `[0, 1]`. FS defers its bulk
    /// spend to completion (one `force_spend`), so the
    /// in-flight estimate charges pending attempts at the step cost.
    pub fn progress(&self) -> f64 {
        if self.finished {
            return 1.0;
        }
        let total = self.budget.total();
        if total <= 0.0 {
            return 1.0;
        }
        let pending = match &self.state {
            State::Frontier(walk) => walk.pending_spend(self.step_cost),
            _ => 0.0,
        };
        ((self.budget.spent() + pending) / total).clamp(0.0, 1.0)
    }

    /// Budget spent so far (final value equals the one-shot sampler's).
    pub fn budget_spent(&self) -> f64 {
        self.budget.spent()
    }

    /// The budget `B` this run was created with.
    pub fn budget_total(&self) -> f64 {
        self.budget.total()
    }

    /// Charged crawl queries the backend has answered (0 for backends
    /// that do not count — wrap them in [`fs_graph::CountedAccess`] to
    /// arm counting). Under the combined-query model this equals
    /// `starts + walk steps` at unit costs (Section 2's identity).
    pub fn queries_issued(&self) -> u64 {
        self.access.queries_issued()
    }

    /// One read-only profiling snapshot: everything the serving tier's
    /// per-job profile reports, taken between chunks. Pure observation
    /// — no RNG, no budget mutation, no state change.
    pub fn profile(&self) -> RunnerProfile {
        RunnerProfile {
            steps_done: self.steps_done,
            budget_spent: self.budget.spent(),
            budget_total: self.budget.total(),
            queries_issued: self.queries_issued(),
        }
    }

    /// Advances the run by at most `max_attempts` walk attempts,
    /// feeding every produced sample to `sink`. Returns whether the run
    /// completed. Attempts that produce no sample (lost replies,
    /// bounces, MH rejections re-emitting the current vertex — which
    /// *do* produce a sample — or isolated stalls) still count toward
    /// the chunk, so a chunk always terminates.
    pub fn run_chunk(&mut self, max_attempts: usize, mut sink: impl FnMut(Sample)) -> ChunkStatus {
        if self.finished {
            return ChunkStatus::Finished;
        }
        let mut left = max_attempts;
        while left > 0 {
            left -= 1;
            let done = self.one_attempt(&mut sink);
            if done {
                self.finished = true;
                return ChunkStatus::Finished;
            }
            self.steps_done += 1;
        }
        ChunkStatus::InProgress
    }

    /// One attempt of the method's step machine. Returns `true` when
    /// the run just completed (the attempt may or may not have
    /// executed).
    fn one_attempt(&mut self, sink: &mut impl FnMut(Sample)) -> bool {
        let (access, budget, step_cost, rng) =
            (self.access, &mut self.budget, self.step_cost, &mut self.rng);
        let edge = |e: Arc| sink(Sample::Edge(e));
        match &mut self.state {
            State::Drained => true,
            State::Single(walk) => walk.step(access, budget, step_cost, rng, edge),
            State::Frontier(walk) => walk.step(access, budget, step_cost, |_, outcome| {
                if let Some(e) = outcome.sampled() {
                    sink(Sample::Edge(e))
                }
            }),
            State::Multiple(walk) => walk.step(access, budget, step_cost, rng, edge),
            State::Mhrw(walk) => {
                walk.step(access, budget, step_cost, rng, |v| sink(Sample::Vertex(v)))
            }
            State::Nbrw(walk) => walk.step(access, budget, step_cost, rng, edge),
            State::Rwj(walk) => walk.step(access, budget, step_cost, rng, |ev| {
                sink(Sample::Vertex(ev.destination()))
            }),
        }
    }
}

/// Magic bytes of a serialized [`ChunkedRunner`] ("Frontier Sampling
/// Runner Checkpoint").
const RUNNER_MAGIC: [u8; 4] = *b"FSRC";
/// Newest runner checkpoint layout this build reads and writes.
const RUNNER_VERSION: u32 = 1;

fn put_sampler(enc: &mut Encoder, spec: &SamplerSpec) {
    match *spec {
        SamplerSpec::Frontier { m } => {
            enc.put_u8(0);
            enc.put_usize(m);
        }
        SamplerSpec::Single => enc.put_u8(1),
        SamplerSpec::Multiple { m } => {
            enc.put_u8(2);
            enc.put_usize(m);
        }
        SamplerSpec::Mhrw => enc.put_u8(3),
        SamplerSpec::Nbrw => enc.put_u8(4),
        SamplerSpec::Rwj { alpha } => {
            enc.put_u8(5);
            enc.put_f64(alpha);
        }
    }
}

fn take_sampler(dec: &mut Decoder<'_>) -> Result<SamplerSpec, CheckpointError> {
    Ok(match dec.take_u8()? {
        0 => SamplerSpec::Frontier {
            m: dec.take_usize()?,
        },
        1 => SamplerSpec::Single,
        2 => SamplerSpec::Multiple {
            m: dec.take_usize()?,
        },
        3 => SamplerSpec::Mhrw,
        4 => SamplerSpec::Nbrw,
        5 => SamplerSpec::Rwj {
            alpha: dec.take_f64()?,
        },
        t => {
            return Err(CheckpointError::Malformed(format!(
                "unknown sampler tag {t}"
            )))
        }
    })
}

fn take_rng(dec: &mut Decoder<'_>) -> Result<SmallRng, CheckpointError> {
    let mut s = [0u64; 4];
    for word in &mut s {
        *word = dec.take_u64()?;
    }
    Ok(SmallRng::from_state(s))
}

impl<'a, A: GraphAccess + ?Sized> ChunkedRunner<'a, A> {
    /// Serializes the runner's full state machine — sampler spec, base
    /// RNG stream, budget cursor, per-method step machine (including
    /// FS's lockstep lanes, per-lane RNG streams, pending exponential
    /// clocks, and buffered event window) — into a versioned,
    /// checksummed blob.
    ///
    /// The contract, pinned by the `checkpoint_resume` proptests:
    /// [`ChunkedRunner::resume`] over these bytes continues the run
    /// **bit-identically** to never having paused, at any chunk
    /// boundary.
    pub fn serialize(&self) -> Vec<u8> {
        let mut enc = Encoder::with_header(RUNNER_MAGIC, RUNNER_VERSION);
        put_sampler(&mut enc, &self.spec);
        for word in self.rng.state() {
            enc.put_u64(word);
        }
        enc.put_f64(self.budget.total());
        enc.put_f64(self.budget.spent());
        enc.put_f64(self.step_cost);
        enc.put_u64(self.steps_done);
        enc.put_u8(self.finished as u8);
        match &self.state {
            State::Drained => enc.put_u8(0),
            State::Single(walk) => {
                enc.put_u8(1);
                walk.0.encode(&mut enc);
            }
            State::Frontier(walk) => {
                enc.put_u8(2);
                walk.encode(&mut enc);
            }
            State::Multiple(walk) => {
                enc.put_u8(3);
                walk.encode(&mut enc);
            }
            State::Mhrw(walk) => {
                enc.put_u8(4);
                walk.0.encode(&mut enc);
            }
            State::Nbrw(walk) => {
                enc.put_u8(5);
                walk.encode(&mut enc);
            }
            State::Rwj(walk) => {
                enc.put_u8(6);
                walk.encode(&mut enc);
            }
        }
        enc.finish()
    }

    /// Rebuilds a runner from [`ChunkedRunner::serialize`] bytes,
    /// continuing the run bit-identically to never having paused.
    ///
    /// `spec` must be the sampler the checkpoint was taken for, and the
    /// stored walk that sampler's machine with at most `m` walkers and
    /// the spec's α; `access` must present the **same graph content**
    /// the original run observed (the serving layer enforces this by
    /// store digest). A mismatch is refused here, a corrupt blob by
    /// checksum before any field is trusted.
    pub fn resume(
        spec: &SamplerSpec,
        access: &'a A,
        bytes: &[u8],
    ) -> Result<Self, CheckpointError> {
        let (mut dec, _version) =
            Decoder::with_checked_header(bytes, RUNNER_MAGIC, RUNNER_VERSION)?;
        let stored = take_sampler(&mut dec)?;
        if stored != *spec {
            return Err(CheckpointError::Malformed(format!(
                "checkpoint was taken for sampler {} but resume requested {}",
                stored.label(),
                spec.label()
            )));
        }
        let rng = take_rng(&mut dec)?;
        let total = dec.take_f64()?;
        let spent = dec.take_f64()?;
        if !total.is_finite() || total < 0.0 || !spent.is_finite() {
            return Err(CheckpointError::Malformed("invalid budget cursor".into()));
        }
        let budget = Budget::resume(total, spent);
        let step_cost = dec.take_f64()?;
        if !step_cost.is_finite() || step_cost < 0.0 {
            return Err(CheckpointError::Malformed("invalid step cost".into()));
        }
        let steps_done = dec.take_u64()?;
        let finished = match dec.take_u8()? {
            0 => false,
            1 => true,
            t => {
                return Err(CheckpointError::Malformed(format!(
                    "invalid finished flag {t}"
                )))
            }
        };
        // A stored walk must be the spec's own machine (or none at all),
        // configured as the spec says.
        let state = match (dec.take_u8()?, spec) {
            (0, _) => State::Drained,
            (1, SamplerSpec::Single) => State::Single(SingleRwWalk(Position::decode(&mut dec)?)),
            (2, &SamplerSpec::Frontier { m }) => {
                State::Frontier(FsWindowWalk::decode(&mut dec, m)?)
            }
            (3, &SamplerSpec::Multiple { m }) => {
                State::Multiple(MultipleRwWalk::decode(&mut dec, m)?)
            }
            (4, SamplerSpec::Mhrw) => State::Mhrw(MhrwWalk(Position::decode(&mut dec)?)),
            (5, SamplerSpec::Nbrw) => State::Nbrw(NbrwWalk::decode(&mut dec)?),
            (6, &SamplerSpec::Rwj { alpha }) => State::Rwj(RwjWalk::decode(&mut dec, alpha)?),
            (t, _) => {
                return Err(CheckpointError::Malformed(format!(
                    "runner state tag {t} is not a {} walk",
                    spec.label()
                )))
            }
        };
        dec.finish()?;
        Ok(ChunkedRunner {
            access,
            spec: stored,
            rng,
            budget,
            step_cost,
            state,
            steps_done,
            finished,
        })
    }
}

/// Which estimate a job reports.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum EstimatorSpec {
    /// Harmonic-mean average degree (`1/S`).
    AverageDegree,
    /// Degree distribution `θ̂` (vector estimate).
    DegreeDist,
    /// Degree CCDF `γ̂` (vector estimate).
    Ccdf,
    /// Assortative mixing coefficient `r̂`.
    Assortativity,
    /// Global clustering coefficient `Ĉ`.
    Clustering,
    /// Katzir-style population size `|V̂|`.
    PopulationSize,
}

impl EstimatorSpec {
    /// Every estimator in declaration order, which is the checkpoint's
    /// tag order (`spec as u8`).
    const ALL: [EstimatorSpec; 6] = [
        EstimatorSpec::AverageDegree,
        EstimatorSpec::DegreeDist,
        EstimatorSpec::Ccdf,
        EstimatorSpec::Assortativity,
        EstimatorSpec::Clustering,
        EstimatorSpec::PopulationSize,
    ];

    /// Parses the wire name used by the serving layer.
    pub fn parse(name: &str) -> Result<EstimatorSpec, String> {
        Self::ALL.into_iter().find(|e| e.name() == name).ok_or_else(|| {
            format!(
                "unknown estimator '{name}' (expected avg_degree|degree_dist|ccdf|assortativity|clustering|pop_size)"
            )
        })
    }

    /// Wire name.
    pub fn name(&self) -> &'static str {
        match self {
            EstimatorSpec::AverageDegree => "avg_degree",
            EstimatorSpec::DegreeDist => "degree_dist",
            EstimatorSpec::Ccdf => "ccdf",
            EstimatorSpec::Assortativity => "assortativity",
            EstimatorSpec::Clustering => "clustering",
            EstimatorSpec::PopulationSize => "pop_size",
        }
    }
}

/// A cheap, always-finite snapshot of a job's current estimate.
#[derive(Clone, Debug, PartialEq)]
pub struct EstimateSnapshot {
    /// Samples consumed so far.
    pub num_observed: u64,
    /// Scalar estimate, when the estimator is scalar-valued and
    /// defined. Guaranteed finite.
    pub scalar: Option<f64>,
    /// Vector estimate (degree distribution / CCDF), when defined.
    /// Every entry finite.
    pub vector: Option<Vec<f64>>,
}

/// Internal estimator state, chosen per (estimator, sampler) pair so
/// each sample stream gets the statistically correct reweighting.
#[derive(Debug)]
enum EstState {
    /// Edge-stream estimators (eq. 5/7 reweighting).
    EdgeAvgDeg(AverageDegreeEstimator),
    EdgeDegreeDist(DegreeDistributionEstimator),
    EdgeAssort(AssortativityEstimator),
    EdgeClust(ClusteringEstimator),
    EdgePop(PopulationSizeEstimator),
    /// MHRW vertex stream: uniform over vertices, no reweighting.
    MhrwDegreeDist(VertexSampleDegreeEstimator),
    MhrwAvgDeg {
        sum: f64,
        n: u64,
    },
    /// RWJ visit stream: `1/(deg + α)` reweighting.
    RwjDegreeDist(RwjDegreeDistributionEstimator),
    RwjAvgDeg {
        alpha: f64,
        weighted_degree: f64,
        weight_sum: f64,
        n: u64,
    },
}

/// Streaming estimator for one job: consumes the runner's [`Sample`]s
/// and produces [`EstimateSnapshot`]s on demand.
#[derive(Debug)]
pub struct JobEstimator {
    spec: EstimatorSpec,
    state: EstState,
}

impl JobEstimator {
    /// Builds the estimator for a (sampler, estimator) pair, or
    /// explains why the combination is statistically unsupported (e.g.
    /// edge-based clustering over MHRW's vertex stream).
    pub fn new(spec: EstimatorSpec, sampler: &SamplerSpec) -> Result<JobEstimator, String> {
        let state = match sampler {
            SamplerSpec::Frontier { .. }
            | SamplerSpec::Single
            | SamplerSpec::Multiple { .. }
            | SamplerSpec::Nbrw => match spec {
                EstimatorSpec::AverageDegree => EstState::EdgeAvgDeg(AverageDegreeEstimator::new()),
                EstimatorSpec::DegreeDist | EstimatorSpec::Ccdf => {
                    EstState::EdgeDegreeDist(DegreeDistributionEstimator::symmetric())
                }
                EstimatorSpec::Assortativity => EstState::EdgeAssort(AssortativityEstimator::new()),
                EstimatorSpec::Clustering => EstState::EdgeClust(ClusteringEstimator::new()),
                EstimatorSpec::PopulationSize => EstState::EdgePop(PopulationSizeEstimator::new()),
            },
            SamplerSpec::Mhrw => match spec {
                EstimatorSpec::AverageDegree => EstState::MhrwAvgDeg { sum: 0.0, n: 0 },
                EstimatorSpec::DegreeDist | EstimatorSpec::Ccdf => EstState::MhrwDegreeDist(
                    VertexSampleDegreeEstimator::new(DegreeKind::Symmetric),
                ),
                other => {
                    return Err(format!(
                        "estimator '{}' needs an edge sample stream; MHRW emits uniform vertices \
                         (supported: avg_degree, degree_dist, ccdf)",
                        other.name()
                    ))
                }
            },
            SamplerSpec::Rwj { alpha } => match spec {
                EstimatorSpec::AverageDegree => EstState::RwjAvgDeg {
                    alpha: *alpha,
                    weighted_degree: 0.0,
                    weight_sum: 0.0,
                    n: 0,
                },
                EstimatorSpec::DegreeDist | EstimatorSpec::Ccdf => EstState::RwjDegreeDist(
                    RwjDegreeDistributionEstimator::new(*alpha, DegreeKind::Symmetric),
                ),
                other => {
                    return Err(format!(
                        "estimator '{}' needs an edge sample stream; RWJ emits visited vertices \
                         (supported: avg_degree, degree_dist, ccdf)",
                        other.name()
                    ))
                }
            },
        };
        Ok(JobEstimator { spec, state })
    }

    /// The estimator this job reports.
    pub fn spec(&self) -> EstimatorSpec {
        self.spec
    }

    /// Consumes one sample. Edge estimators ignore vertex samples and
    /// vice versa (the runner never produces the mismatched kind).
    pub fn observe<A: GraphAccess + ?Sized>(&mut self, access: &A, sample: Sample) {
        match (&mut self.state, sample) {
            (EstState::EdgeAvgDeg(e), Sample::Edge(arc)) => e.observe(access, arc),
            (EstState::EdgeDegreeDist(e), Sample::Edge(arc)) => e.observe(access, arc),
            (EstState::EdgeAssort(e), Sample::Edge(arc)) => e.observe(access, arc),
            (EstState::EdgeClust(e), Sample::Edge(arc)) => e.observe(access, arc),
            (EstState::EdgePop(e), Sample::Edge(arc)) => e.observe(access, arc),
            (EstState::MhrwDegreeDist(e), Sample::Vertex(v)) => e.observe(access, v),
            (EstState::MhrwAvgDeg { sum, n }, Sample::Vertex(v)) => {
                *sum += access.degree(v) as f64;
                *n += 1;
            }
            (EstState::RwjDegreeDist(e), Sample::Vertex(v)) => e.observe(access, v),
            (
                EstState::RwjAvgDeg {
                    alpha,
                    weighted_degree,
                    weight_sum,
                    n,
                },
                Sample::Vertex(v),
            ) => {
                let d = access.degree(v) as f64;
                if d + *alpha > 0.0 {
                    // Self-normalised importance weights 1/(deg + α):
                    // Σ d·w / Σ w → the plain average degree under RWJ's
                    // deg+α stationary law.
                    let w = 1.0 / (d + *alpha);
                    *weighted_degree += d * w;
                    *weight_sum += w;
                }
                *n += 1;
            }
            _ => debug_assert!(false, "sample kind does not match estimator"),
        }
    }

    /// Current estimate. Cheap for scalars; `O(max degree)` for the
    /// distribution estimators.
    pub fn snapshot(&self) -> EstimateSnapshot {
        let ccdf = self.spec == EstimatorSpec::Ccdf;
        match &self.state {
            EstState::EdgeAvgDeg(e) => EstimateSnapshot {
                num_observed: e.num_observed() as u64,
                scalar: e.estimate(),
                vector: None,
            },
            EstState::EdgeDegreeDist(e) => EstimateSnapshot {
                num_observed: EdgeEstimator::<fs_graph::Graph>::num_observed(e) as u64,
                scalar: None,
                vector: nonempty(if ccdf { e.ccdf() } else { e.distribution() }),
            },
            EstState::EdgeAssort(e) => EstimateSnapshot {
                num_observed: e.num_observed() as u64,
                scalar: e.estimate(),
                vector: None,
            },
            EstState::EdgeClust(e) => EstimateSnapshot {
                num_observed: e.num_observed() as u64,
                scalar: e.estimate(),
                vector: None,
            },
            EstState::EdgePop(e) => EstimateSnapshot {
                num_observed: e.num_observed() as u64,
                scalar: e.estimate(),
                vector: None,
            },
            EstState::MhrwDegreeDist(e) => EstimateSnapshot {
                num_observed: e.num_observed(),
                scalar: None,
                vector: nonempty(if ccdf { e.ccdf() } else { e.distribution() }),
            },
            EstState::MhrwAvgDeg { sum, n } => EstimateSnapshot {
                num_observed: *n,
                scalar: if *n > 0 { Some(sum / *n as f64) } else { None },
                vector: None,
            },
            EstState::RwjDegreeDist(e) => EstimateSnapshot {
                num_observed: e.num_observed() as u64,
                scalar: None,
                vector: nonempty(if ccdf { e.ccdf() } else { e.distribution() }),
            },
            EstState::RwjAvgDeg {
                weighted_degree,
                weight_sum,
                n,
                ..
            } => EstimateSnapshot {
                num_observed: *n,
                scalar: if *weight_sum > 0.0 {
                    Some(weighted_degree / weight_sum)
                } else {
                    None
                },
                vector: None,
            },
        }
    }
    /// Serializes the estimator's accumulators into a versioned,
    /// checksummed blob. Every `f64` is stored as its exact bit
    /// pattern, and the population estimator's visit counters are
    /// captured canonically, so [`JobEstimator::resume`] +
    /// further observations reproduce the uninterrupted run's final
    /// snapshot bit-for-bit.
    pub fn serialize(&self) -> Vec<u8> {
        let mut enc = Encoder::with_header(ESTIMATOR_MAGIC, ESTIMATOR_VERSION);
        enc.put_u8(self.spec as u8);
        enc.put_u8(self.state.tag());
        match &self.state {
            EstState::EdgeAvgDeg(e) => e.encode(&mut enc),
            EstState::EdgeDegreeDist(e) => e.encode(&mut enc),
            EstState::EdgeAssort(e) => e.encode(&mut enc),
            EstState::EdgeClust(e) => e.encode(&mut enc),
            EstState::EdgePop(e) => e.encode(&mut enc),
            EstState::MhrwDegreeDist(e) => e.encode(&mut enc),
            EstState::MhrwAvgDeg { sum, n } => {
                enc.put_f64(*sum);
                enc.put_u64(*n);
            }
            EstState::RwjDegreeDist(e) => e.encode(&mut enc),
            EstState::RwjAvgDeg {
                alpha,
                weighted_degree,
                weight_sum,
                n,
            } => {
                enc.put_f64(*alpha);
                enc.put_f64(*weighted_degree);
                enc.put_f64(*weight_sum);
                enc.put_u64(*n);
            }
        }
        enc.finish()
    }

    /// Rebuilds an estimator from [`JobEstimator::serialize`] bytes.
    /// Resume starts from the estimator [`JobEstimator::new`] builds for
    /// `(spec, sampler)`: the stored estimator spec and state shape must
    /// be that estimator's, and its own decode refuses a stored
    /// configuration (degree kind, α) other than its own — so a
    /// checkpoint can never be replayed into a statistically different
    /// reweighting.
    pub fn resume(
        spec: EstimatorSpec,
        sampler: &SamplerSpec,
        bytes: &[u8],
    ) -> Result<JobEstimator, CheckpointError> {
        let (mut dec, _version) =
            Decoder::with_checked_header(bytes, ESTIMATOR_MAGIC, ESTIMATOR_VERSION)?;
        let stored_tag = dec.take_u8()?;
        let stored = *EstimatorSpec::ALL
            .get(usize::from(stored_tag))
            .ok_or_else(|| {
                CheckpointError::Malformed(format!("unknown estimator tag {stored_tag}"))
            })?;
        if stored != spec {
            return Err(CheckpointError::Malformed(format!(
                "checkpoint was taken for estimator '{}' but resume requested '{}'",
                stored.name(),
                spec.name()
            )));
        }
        let mut est = JobEstimator::new(spec, sampler).map_err(CheckpointError::Malformed)?;
        if dec.take_u8()? != est.state.tag() {
            return Err(CheckpointError::Malformed(
                "checkpointed state does not match the (sampler, estimator) pairing".into(),
            ));
        }
        match &mut est.state {
            EstState::EdgeAvgDeg(e) => e.decode(&mut dec)?,
            EstState::EdgeDegreeDist(e) => e.decode(&mut dec)?,
            EstState::EdgeAssort(e) => e.decode(&mut dec)?,
            EstState::EdgeClust(e) => e.decode(&mut dec)?,
            EstState::EdgePop(e) => e.decode(&mut dec)?,
            EstState::MhrwDegreeDist(e) => e.decode(&mut dec)?,
            EstState::MhrwAvgDeg { sum, n } => {
                *sum = take_sum(&mut dec)?;
                *n = dec.take_u64()?;
            }
            EstState::RwjDegreeDist(e) => e.decode(&mut dec)?,
            EstState::RwjAvgDeg {
                alpha,
                weighted_degree,
                weight_sum,
                n,
            } => {
                expect_same("alpha", dec.take_f64()?, *alpha)?;
                *weighted_degree = take_sum(&mut dec)?;
                *weight_sum = take_sum(&mut dec)?;
                *n = dec.take_u64()?;
            }
        }
        dec.finish()?;
        Ok(est)
    }
}

impl EstState {
    /// The FSEC state tag, in variant order.
    fn tag(&self) -> u8 {
        match self {
            EstState::EdgeAvgDeg(_) => 0,
            EstState::EdgeDegreeDist(_) => 1,
            EstState::EdgeAssort(_) => 2,
            EstState::EdgeClust(_) => 3,
            EstState::EdgePop(_) => 4,
            EstState::MhrwDegreeDist(_) => 5,
            EstState::MhrwAvgDeg { .. } => 6,
            EstState::RwjDegreeDist(_) => 7,
            EstState::RwjAvgDeg { .. } => 8,
        }
    }
}

/// Magic bytes of a serialized [`JobEstimator`].
const ESTIMATOR_MAGIC: [u8; 4] = *b"FSEC";
/// Newest estimator checkpoint layout this build reads and writes.
const ESTIMATOR_VERSION: u32 = 1;

fn nonempty(v: Vec<f64>) -> Option<Vec<f64>> {
    if v.is_empty() {
        None
    } else {
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_graph::graph_from_undirected_pairs;

    #[test]
    fn spec_parsing() {
        assert_eq!(
            SamplerSpec::parse("fs", 7, 0.0),
            Ok(SamplerSpec::Frontier { m: 7 })
        );
        assert_eq!(
            SamplerSpec::parse("single", 0, 0.0),
            Ok(SamplerSpec::Single)
        );
        assert!(SamplerSpec::parse("fs", 0, 0.0).is_err());
        assert!(SamplerSpec::parse("rwj", 1, f64::NAN).is_err());
        assert!(SamplerSpec::parse("teleport", 1, 0.0).is_err());
        assert_eq!(
            EstimatorSpec::parse("avg_degree"),
            Ok(EstimatorSpec::AverageDegree)
        );
        assert!(EstimatorSpec::parse("nope").is_err());
    }

    #[test]
    fn unsupported_combinations_are_rejected_with_reason() {
        let err = JobEstimator::new(EstimatorSpec::Clustering, &SamplerSpec::Mhrw).unwrap_err();
        assert!(err.contains("MHRW"), "{err}");
        let err = JobEstimator::new(
            EstimatorSpec::Assortativity,
            &SamplerSpec::Rwj { alpha: 1.0 },
        )
        .unwrap_err();
        assert!(err.contains("RWJ"), "{err}");
        assert!(JobEstimator::new(EstimatorSpec::Ccdf, &SamplerSpec::Mhrw).is_ok());
    }

    #[test]
    fn zero_budget_run_finishes_immediately() {
        let g = graph_from_undirected_pairs(4, [(0, 1), (1, 2), (2, 3)]);
        for spec in [
            SamplerSpec::Frontier { m: 3 },
            SamplerSpec::Single,
            SamplerSpec::Multiple { m: 2 },
            SamplerSpec::Mhrw,
            SamplerSpec::Nbrw,
            SamplerSpec::Rwj { alpha: 1.0 },
        ] {
            let mut runner = ChunkedRunner::new(&spec, &g, &CostModel::unit(), 0.0, 9);
            assert!(runner.finished(), "{}", spec.label());
            let mut samples = 0usize;
            assert_eq!(
                runner.run_chunk(100, |_| samples += 1),
                ChunkStatus::Finished
            );
            assert_eq!(samples, 0);
            assert_eq!(runner.progress(), 1.0);
        }
    }

    #[test]
    fn progress_is_monotone_and_bounded() {
        let g = graph_from_undirected_pairs(4, [(0, 1), (1, 2), (0, 2), (2, 3)]);
        let spec = SamplerSpec::Frontier { m: 2 };
        let mut runner = ChunkedRunner::new(&spec, &g, &CostModel::unit(), 200.0, 3);
        let mut last = runner.progress();
        assert!((0.0..=1.0).contains(&last));
        while runner.run_chunk(17, |_| {}) == ChunkStatus::InProgress {
            let p = runner.progress();
            assert!(p >= last - 1e-12, "progress went backwards: {last} -> {p}");
            assert!((0.0..=1.0).contains(&p));
            last = p;
        }
        assert_eq!(runner.progress(), 1.0);
    }
}
