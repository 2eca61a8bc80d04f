//! Frontier Sampling's walkers as SoA lanes stepped in lockstep over
//! the batched backend query.
//!
//! A single walker's step is a dependent two-load chain
//! (`targets[row + i]` → `offsets[t..t+2]`), so one walker at a time is
//! memory-*latency*-bound: on graphs that outgrow the last-level cache
//! the core sits idle for the full round-trip of every load. The fix is
//! memory-level parallelism — keep many independent walkers' loads in
//! flight at once. [`FsEventBatch`] holds the walkers' hot state as
//! parallel arrays (structure-of-arrays: `vertex[]`, `degree[]`,
//! `row[]`, `rng[]`, `next_fire[]`) and each round of
//! [`FsEventBatch::advance`] steps every lane whose clock is due by
//! exactly one step through [`GraphAccess::step_query_batch`], which
//! prefetches every lane's cache lines before any dependent load
//! executes (see `fs_graph::csr::STEP_PIPELINE_WIDTH`).
//!
//! Each lane is one FS walker under the Theorem 5.5 exponential-clock
//! schedule, generating `(event time, outcome)` pairs up to a
//! virtual-time horizon. `FsWindowWalk` merges those streams window by
//! window in `(time, walker)` order. It is the one windowed FS engine,
//! and the chunked runner drives it; both encode their own fields into
//! the runner checkpoint.
//!
//! ## Determinism
//!
//! Lockstep batching is **bit-identical** to stepping the same walkers
//! one at a time: every walker draws from its own RNG stream, and a
//! round preserves each lane's per-walker draw order (the neighbor pick
//! in the fill pass, then the exponential holding time in the resolve
//! pass). Cross-walker interleaving therefore never touches any
//! walker's stream, which is what lets [`crate::runner::ChunkedRunner`]
//! match [`crate::distributed::DistributedFs`] bit for bit.

use crate::budget::Budget;
use crate::checkpoint::{put_vertex, take_vertex, CheckpointError, Decoder, Encoder};
use crate::parallel::stream_seed;
use crate::walk::{self, StepOutcome};
use fs_graph::{Arc, GraphAccess, StepSlot, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A group of FS walkers under the Theorem 5.5 exponential-clock
/// factorization, generating `(event time, outcome)` streams in
/// batched lockstep. Lane `i`'s stream is a pure function of its seed —
/// identical to the sequential per-walker generator — so outputs are
/// invariant to horizon schedule and grouping. See the
/// [module docs](self).
#[derive(Debug)]
pub struct FsEventBatch {
    /// Current vertex of each lane.
    vertex: Vec<VertexId>,
    /// Degree of `vertex[lane]`, threaded from the previous reply.
    degree: Vec<usize>,
    /// Backend row handle of `vertex[lane]`, threaded alongside.
    row: Vec<usize>,
    /// Per-lane RNG stream state.
    rng: Vec<SmallRng>,
    /// Absolute time of each lane's next step; `None` once stuck on a
    /// degree-0 vertex (rate 0 → the clock never fires again).
    next_fire: Vec<Option<f64>>,
    /// Scratch: pending combined queries of the current lockstep round.
    slots: Vec<StepSlot>,
    /// Scratch: `slot_lanes[k]` is the lane that owns `slots[k]`.
    slot_lanes: Vec<usize>,
}

impl FsEventBatch {
    /// Builds the group with lane `i` started at `starts[i]` on the RNG
    /// stream seeded `seeds[i]`. Each lane draws its initial holding
    /// time exactly like the sequential generator (one exponential draw,
    /// none for isolated starts).
    ///
    /// # Panics
    /// Panics if `starts` and `seeds` differ in length.
    pub fn new<A: GraphAccess + ?Sized>(access: &A, starts: &[VertexId], seeds: &[u64]) -> Self {
        assert_eq!(starts.len(), seeds.len(), "one seed per walker");
        let degree: Vec<usize> = starts.iter().map(|&v| access.degree(v)).collect();
        let mut rng: Vec<SmallRng> = seeds.iter().map(|&s| SmallRng::seed_from_u64(s)).collect();
        let next_fire = (degree.iter().zip(&mut rng))
            .map(|(&d, rng)| walk::exp_holding_time(d, rng))
            .collect();
        FsEventBatch {
            vertex: starts.to_vec(),
            row: starts.iter().map(|&v| access.vertex_row(v)).collect(),
            degree,
            rng,
            next_fire,
            slots: Vec::new(),
            slot_lanes: Vec::new(),
        }
    }

    /// Whether every lane's clock has stopped for good.
    pub fn all_stuck(&self) -> bool {
        self.next_fire.iter().all(Option::is_none)
    }

    /// Time of the earliest pending event; `None` once every lane is
    /// stuck.
    pub(crate) fn next_event_time(&self) -> Option<f64> {
        self.next_fire.iter().flatten().copied().reduce(f64::min)
    }

    /// Current aggregate event rate: the summed degree of all live lanes
    /// (each lane fires at rate `deg`). Horizon schedulers use this to
    /// size windows so speculative overshoot stays small.
    pub fn rate(&self) -> f64 {
        (self.next_fire.iter().zip(&self.degree))
            .filter(|(fire, _)| fire.is_some())
            .map(|(_, &d)| d as f64)
            .sum()
    }

    /// Generates every event with time `≤ t_hi`, in batched lockstep:
    /// each round steps all lanes whose clocks are due, so up to a full
    /// group of independent CSR load chains is in flight at once.
    /// `emit(lane, time, outcome)` receives each lane's events in that
    /// lane's time order (cross-lane ordering is the caller's merge).
    /// Resumable: later calls with a larger horizon continue each lane's
    /// stream exactly where it stopped.
    ///
    /// A round has two passes over the due lanes, in lane order:
    ///
    /// 1. *Fill*: draw the uniform neighbor pick from the lane's RNG and
    ///    queue the combined query (an isolated lane draws nothing,
    ///    emits [`StepOutcome::Isolated`] and stops its clock, mirroring
    ///    [`walk::step_known`]).
    /// 2. *Resolve*: the backend answers every queued query in one
    ///    [`GraphAccess::step_query_batch`]; each lane moves, emits its
    ///    outcome and draws its next holding time.
    pub fn advance<A: GraphAccess + ?Sized>(
        &mut self,
        access: &A,
        t_hi: f64,
        mut emit: impl FnMut(usize, f64, StepOutcome),
    ) {
        loop {
            self.slots.clear();
            self.slot_lanes.clear();
            let mut any_due = false;
            for lane in 0..self.vertex.len() {
                let Some(t) = self.next_fire[lane].filter(|&t| t <= t_hi) else {
                    continue;
                };
                any_due = true;
                let d = self.degree[lane];
                if d == 0 {
                    emit(lane, t, StepOutcome::Isolated);
                    self.next_fire[lane] = None;
                    continue;
                }
                let pick = self.rng[lane].gen_range(0..d);
                self.slots
                    .push(StepSlot::new(self.vertex[lane], self.row[lane], pick));
                self.slot_lanes.push(lane);
            }
            if !any_due {
                return;
            }
            access.step_query_batch(&mut self.slots);
            for (slot, &lane) in self.slots.iter().zip(&self.slot_lanes) {
                let stepped = walk::resolve_stepped(
                    self.vertex[lane],
                    self.degree[lane],
                    self.row[lane],
                    slot.reply,
                );
                self.vertex[lane] = stepped.outcome.position_after(self.vertex[lane]);
                self.degree[lane] = stepped.degree_after;
                self.row[lane] = stepped.row_after;
                let t = self.next_fire[lane].expect("due lane has a pending clock");
                emit(lane, t, stepped.outcome);
                self.next_fire[lane] = if stepped.outcome == StepOutcome::Isolated {
                    None
                } else {
                    walk::exp_holding_time(stepped.degree_after, &mut self.rng[lane])
                        .map(|dt| t + dt)
                };
            }
        }
    }

    /// Writes every lane's walker state, then every lane's clock.
    /// Degree and row are stored verbatim (not re-derived from the
    /// backend) so a restored lane continues exactly the trajectory it
    /// was on — including lanes whose replies came from a degraded
    /// backend.
    fn encode(&self, enc: &mut Encoder) {
        enc.put_usize(self.vertex.len());
        for lane in 0..self.vertex.len() {
            put_vertex(enc, self.vertex[lane]);
            enc.put_usize(self.degree[lane]);
            enc.put_usize(self.row[lane]);
            for word in self.rng[lane].state() {
                enc.put_u64(word);
            }
        }
        for fire in &self.next_fire {
            match *fire {
                Some(t) => {
                    enc.put_u8(1);
                    enc.put_f64(t);
                }
                None => enc.put_u8(0),
            }
        }
    }

    /// Decodes [`FsEventBatch::encode`] output, refusing a lane count
    /// outside `1..=m` and a clock outside `[0, MAX_FS_CLOCK]`: a NaN
    /// clock is never due, and one past [`MAX_FS_CLOCK`] may stop
    /// moving, so either could keep a window filling forever. The
    /// scratch arrays start empty (they are per-round state), so a
    /// restored group steps bit-identically to the original.
    fn decode(dec: &mut Decoder<'_>, m: usize) -> Result<Self, CheckpointError> {
        // A lane is 56 bytes of state plus at least its clock's tag byte.
        let n = dec.take_count(56 + 1)?;
        if !(1..=m).contains(&n) {
            return Err(CheckpointError::Malformed(format!(
                "{n} walkers outside 1..={m}"
            )));
        }
        let mut batch = FsEventBatch {
            vertex: Vec::with_capacity(n),
            degree: Vec::with_capacity(n),
            row: Vec::with_capacity(n),
            rng: Vec::with_capacity(n),
            next_fire: Vec::with_capacity(n),
            slots: Vec::new(),
            slot_lanes: Vec::new(),
        };
        for _ in 0..n {
            batch.vertex.push(take_vertex(dec)?);
            batch.degree.push(dec.take_usize()?);
            batch.row.push(dec.take_usize()?);
            let mut state = [0u64; 4];
            for word in &mut state {
                *word = dec.take_u64()?;
            }
            batch.rng.push(SmallRng::from_state(state));
        }
        for _ in 0..n {
            let fire = match dec.take_u8()? {
                0 => None,
                1 => Some(dec.take_f64()?),
                t => {
                    return Err(CheckpointError::Malformed(format!(
                        "unknown option tag {t}"
                    )))
                }
            };
            if !fire.is_none_or(valid_time) {
                return Err(CheckpointError::Malformed(
                    "walker clock out of range".into(),
                ));
            }
            batch.next_fire.push(fire);
        }
        Ok(batch)
    }
}

/// Target event count per FS virtual-time window. Bounds the per-refill
/// latency (one [`FsWindowWalk::step`] never generates much more than
/// this many speculative events) and the buffer memory, while staying
/// large enough that the lockstep engine amortises its fill/apply
/// passes.
const FS_WINDOW: usize = 4096;

/// Window headroom: each window is sized for its target event count at
/// the measured event rate, padded by 10% so most refills need one
/// pass. Every event past the quota is a speculative backend query, so
/// the pad stays tight.
const FS_WINDOW_HEADROOM: f64 = 1.10;

/// Largest walker clock or window horizon a checkpoint may hold. A
/// walker's clock grows by a mean holding time `1/deg <= 1` per step,
/// so an honest run needs about 2^40 steps of one walker to get here.
/// Past it the clock's resolution (2^-12 and coarser) nears the holding
/// times of high-degree vertices, so `t + dt` can round back to `t` and
/// a walker's clock stop moving inside a window.
const MAX_FS_CLOCK: f64 = (1u64 << 40) as f64;

/// Whether a checkpointed clock or horizon is one `step` can run from.
fn valid_time(t: f64) -> bool {
    (0.0..=MAX_FS_CLOCK).contains(&t)
}

/// Frontier Sampling as a resumable step machine: the one windowed FS
/// engine, driven chunk by chunk by [`crate::runner::ChunkedRunner`].
/// The `m` walkers are [`FsEventBatch`] lanes (Theorem 5.5), walker `i`
/// on stream `stream_seed(seed, i)`. Events are generated
/// window-by-window in virtual time (windows partition the time axis,
/// so the global `(time, walker)` order holds across windows) and
/// buffered sorted; memory stays `O(window + m)`.
#[derive(Debug)]
pub(crate) struct FsWindowWalk {
    engine: FsEventBatch,
    /// Virtual-time high edge of the last generated window.
    t_hi: f64,
    /// Starting frontier volume `Σ deg(start_i)` — the event-rate
    /// estimate before any event has fired.
    volume: f64,
    /// Events generated so far (measured-rate numerator).
    generated: u64,
    /// Current window's events, sorted by `(time, walker)`.
    buffer: Vec<(f64, usize, StepOutcome)>,
    /// Next unemitted event in `buffer`.
    cursor: usize,
    /// Fixed step quota computed at start (Algorithm 1's `B − mc`).
    n_steps: usize,
    /// Events emitted so far; the deferred spend at completion.
    emitted: usize,
}

impl FsWindowWalk {
    /// Walker `i` starts at `starts[i]` on stream `stream_seed(seed, i)`;
    /// the run emits at most `n_steps` events. `None` without walkers.
    pub(crate) fn new<A: GraphAccess + ?Sized>(
        access: &A,
        starts: &[VertexId],
        seed: u64,
        n_steps: usize,
    ) -> Option<Self> {
        if starts.is_empty() {
            return None;
        }
        let seeds: Vec<u64> = (0..starts.len())
            .map(|i| stream_seed(seed, i as u64))
            .collect();
        let volume = starts.iter().map(|&v| access.degree(v) as f64).sum();
        Some(FsWindowWalk {
            engine: FsEventBatch::new(access, starts, &seeds),
            t_hi: 0.0,
            volume,
            generated: 0,
            buffer: Vec::new(),
            cursor: 0,
            n_steps,
            emitted: 0,
        })
    }

    /// High edge of the next window: `target` events at the measured
    /// rate (the starting volume until anything has fired), padded, and
    /// never short of the earliest pending clock, so every window of a
    /// live walk holds at least one event.
    fn next_horizon(&self, target: usize, earliest: f64) -> f64 {
        let rate = if self.generated > 0 {
            self.generated as f64 / self.t_hi
        } else {
            self.volume
        };
        let sized = self.t_hi + FS_WINDOW_HEADROOM * target as f64 / rate.max(f64::MIN_POSITIVE);
        sized.max(earliest)
    }

    /// Budget the events emitted so far will be charged at completion.
    pub(crate) fn pending_spend(&self, step_cost: f64) -> f64 {
        self.emitted as f64 * step_cost
    }

    /// Emits the next attempt of the superposed exponential-clock
    /// stream in `(time, walker)` order as `sink(walker, outcome)`,
    /// refilling the buffer from the next virtual-time window when it
    /// runs dry. The quota is fixed at start and the whole spend is one
    /// deferred `force_spend` at the end. Returns `true` once the run
    /// has ended.
    pub(crate) fn step<A: GraphAccess + ?Sized>(
        &mut self,
        access: &A,
        budget: &mut Budget,
        step_cost: f64,
        mut sink: impl FnMut(usize, StepOutcome),
    ) -> bool {
        if self.emitted >= self.n_steps {
            budget.force_spend(self.pending_spend(step_cost));
            return true;
        }
        if self.cursor >= self.buffer.len() {
            self.buffer.clear();
            self.cursor = 0;
            let Some(earliest) = self.engine.next_event_time() else {
                // Every walker stuck: the run ends short of quota,
                // spending only what was actually emitted.
                budget.force_spend(self.pending_spend(step_cost));
                return true;
            };
            let target = (self.n_steps - self.emitted).clamp(64, FS_WINDOW);
            let t_next = self.next_horizon(target, earliest);
            let buffer = &mut self.buffer;
            self.engine
                .advance(access, t_next, |lane, t, o| buffer.push((t, lane, o)));
            self.t_hi = t_next;
            self.generated += self.buffer.len() as u64;
            self.buffer
                .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        }
        let (_, walker, outcome) = self.buffer[self.cursor];
        self.cursor += 1;
        self.emitted += 1;
        sink(walker, outcome);
        false
    }

    pub(crate) fn encode(&self, enc: &mut Encoder) {
        self.engine.encode(enc);
        enc.put_f64(self.t_hi);
        enc.put_f64(self.volume);
        enc.put_u64(self.generated);
        enc.put_usize(self.buffer.len());
        for &(t, lane, outcome) in &self.buffer {
            enc.put_f64(t);
            enc.put_usize(lane);
            put_outcome(enc, outcome);
        }
        enc.put_usize(self.cursor);
        enc.put_usize(self.n_steps);
        enc.put_usize(self.emitted);
    }

    /// Decodes [`FsWindowWalk::encode`] output for a job of `m`
    /// walkers. Rejects lanes, clocks and horizons the encoder never
    /// writes and `step` could not run (see [`FsEventBatch::decode`]).
    pub(crate) fn decode(dec: &mut Decoder<'_>, m: usize) -> Result<Self, CheckpointError> {
        let malformed = |what: &str| Err(CheckpointError::Malformed(what.into()));
        let engine = FsEventBatch::decode(dec, m)?;
        let n_lanes = engine.vertex.len();
        let t_hi = dec.take_f64()?;
        let volume = dec.take_f64()?;
        if !(valid_time(t_hi) && volume.is_finite() && volume >= 0.0) {
            return malformed("invalid window horizon or volume");
        }
        let generated = dec.take_u64()?;
        // An event is its time, its walker and at least an outcome tag.
        let n_buffered = dec.take_count(8 + 8 + 1)?;
        let mut buffer = Vec::with_capacity(n_buffered);
        for _ in 0..n_buffered {
            let t = dec.take_f64()?;
            let lane = dec.take_usize()?;
            if lane >= n_lanes {
                return malformed("buffered event of an unknown walker");
            }
            buffer.push((t, lane, take_outcome(dec)?));
        }
        let cursor = dec.take_usize()?;
        if cursor > buffer.len() {
            return malformed("buffer cursor past end");
        }
        Ok(FsWindowWalk {
            engine,
            t_hi,
            volume,
            generated,
            buffer,
            cursor,
            n_steps: dec.take_usize()?,
            emitted: dec.take_usize()?,
        })
    }
}

fn put_outcome(enc: &mut Encoder, outcome: StepOutcome) {
    let (tag, arc) = match outcome {
        StepOutcome::Edge(arc) => (0, Some(arc)),
        StepOutcome::Lost(arc) => (1, Some(arc)),
        StepOutcome::Bounced => (2, None),
        StepOutcome::Isolated => (3, None),
    };
    enc.put_u8(tag);
    if let Some(arc) = arc {
        put_vertex(enc, arc.source);
        put_vertex(enc, arc.target);
    }
}

fn take_outcome(dec: &mut Decoder<'_>) -> Result<StepOutcome, CheckpointError> {
    let take_arc = |dec: &mut Decoder<'_>| -> Result<Arc, CheckpointError> {
        Ok(Arc {
            source: take_vertex(dec)?,
            target: take_vertex(dec)?,
        })
    };
    Ok(match dec.take_u8()? {
        0 => StepOutcome::Edge(take_arc(dec)?),
        1 => StepOutcome::Lost(take_arc(dec)?),
        2 => StepOutcome::Bounced,
        3 => StepOutcome::Isolated,
        t => {
            return Err(CheckpointError::Malformed(format!(
                "unknown step outcome tag {t}"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_graph::graph_from_undirected_pairs;

    #[test]
    fn lockstep_matches_sequential_step_known() {
        // Five lanes advanced in lockstep must reproduce each walker's
        // sequential trajectory bit for bit: the clock draw, then per
        // event the `step_known` pick and the next holding time, all on
        // the walker's own stream.
        let g = graph_from_undirected_pairs(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)]);
        let starts: Vec<VertexId> = [0usize, 1, 2, 3, 4]
            .iter()
            .map(|&v| VertexId::new(v))
            .collect();
        let seeds: Vec<u64> = (0..5).map(|i| stream_seed(777, i)).collect();
        let horizon = 20.0;

        let mut expected: Vec<Vec<(u64, StepOutcome)>> = Vec::new();
        for (&s, &seed) in starts.iter().zip(seeds.iter()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (mut v, mut d, mut row) = (s, g.degree(s), g.row_start(s));
            let mut fire = walk::exp_holding_time(d, &mut rng);
            let mut trace = Vec::new();
            while let Some(t) = fire.filter(|&t| t <= horizon) {
                let stepped = walk::step_known(&g, v, d, row, &mut rng);
                trace.push((t.to_bits(), stepped.outcome));
                v = stepped.outcome.position_after(v);
                d = stepped.degree_after;
                row = stepped.row_after;
                fire = walk::exp_holding_time(d, &mut rng).map(|dt| t + dt);
            }
            expected.push(trace);
        }

        let mut batch = FsEventBatch::new(&g, &starts, &seeds);
        let mut traces: Vec<Vec<(u64, StepOutcome)>> = vec![Vec::new(); 5];
        batch.advance(&g, horizon, |lane, t, o| {
            traces[lane].push((t.to_bits(), o))
        });
        assert_eq!(traces, expected);
        assert!(expected.iter().all(|trace| trace.len() >= 10));
    }

    #[test]
    fn isolated_lanes_resolve_without_rng() {
        // An isolated start draws no clock and never fires. A lane left
        // on a degree-0 vertex with a pending clock emits one `Isolated`
        // event and stops, drawing nothing. The live lane keeps walking.
        let g = graph_from_undirected_pairs(3, [(0, 1)]);
        let starts = [VertexId::new(2), VertexId::new(0)];
        let seeds = [stream_seed(5, 0), stream_seed(5, 1)];
        let mut batch = FsEventBatch::new(&g, &starts, &seeds);
        assert_eq!(batch.next_fire[0], None);
        assert_eq!(batch.rate(), 1.0);
        let mut outcomes = Vec::new();
        batch.advance(&g, 5.0, |lane, _, o| outcomes.push((lane, o)));
        assert!(!outcomes.is_empty());
        assert!(outcomes
            .iter()
            .all(|&(lane, o)| lane == 1 && matches!(o, StepOutcome::Edge(_))));

        batch.next_fire[0] = Some(6.0);
        let mut isolated = Vec::new();
        batch.advance(&g, 7.0, |lane, t, o| {
            if lane == 0 {
                isolated.push((t, o))
            }
        });
        assert_eq!(isolated, [(6.0, StepOutcome::Isolated)]);
        assert_eq!(batch.next_fire[0], None);
        assert_eq!(
            batch.rng[0].state(),
            SmallRng::seed_from_u64(seeds[0]).state()
        );
        assert!(!batch.all_stuck());
    }

    #[test]
    fn fs_event_batch_is_horizon_invariant() {
        // The same walkers advanced in one jump vs many small windows
        // must emit identical event streams.
        let g = graph_from_undirected_pairs(4, [(0, 1), (1, 2), (0, 2), (2, 3)]);
        let starts = [VertexId::new(0), VertexId::new(3)];
        let seeds = [stream_seed(42, 0), stream_seed(42, 1)];

        let mut one = FsEventBatch::new(&g, &starts, &seeds);
        let mut jump: Vec<(usize, u64, StepOutcome)> = Vec::new();
        one.advance(&g, 50.0, |lane, t, o| jump.push((lane, t.to_bits(), o)));

        let mut many = FsEventBatch::new(&g, &starts, &seeds);
        let mut stepped: Vec<(usize, u64, StepOutcome)> = Vec::new();
        for k in 1..=100 {
            many.advance(&g, 0.5 * k as f64, |lane, t, o| {
                stepped.push((lane, t.to_bits(), o))
            });
        }
        // The emit contract orders events per lane only; the global
        // (t, lane) merge is the caller's job, so compare merged streams.
        // (Positive finite f64 order agrees with to_bits order.)
        jump.sort_by_key(|&(lane, t, _)| (t, lane));
        stepped.sort_by_key(|&(lane, t, _)| (t, lane));
        assert_eq!(jump, stepped);
        assert!(!jump.is_empty());
    }

    /// A one-lane FS window blob: `fire` is the lane's clock, then the
    /// window fields, with one buffered event of walker `buffered`.
    fn window_blob(fire: f64, t_hi: f64, volume: f64, generated: u64, buffered: usize) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_usize(1);
        put_vertex(&mut enc, VertexId::new(0));
        enc.put_usize(2); // degree
        enc.put_usize(0); // row
        for word in [1u64, 2, 3, 4] {
            enc.put_u64(word);
        }
        enc.put_u8(1);
        enc.put_f64(fire);
        enc.put_f64(t_hi);
        enc.put_f64(volume);
        enc.put_u64(generated);
        enc.put_usize(1);
        enc.put_f64(0.5);
        enc.put_usize(buffered);
        put_outcome(&mut enc, StepOutcome::Bounced);
        enc.put_usize(0); // cursor
        enc.put_usize(100); // n_steps
        enc.put_usize(0); // emitted
        enc.into_bytes()
    }

    #[test]
    fn decode_rejects_window_states_that_cannot_run() {
        let decode = |blob: Vec<u8>| FsWindowWalk::decode(&mut Decoder::new(&blob), 1).map(|_| ());
        assert_eq!(decode(window_blob(1.0, 0.5, 2.0, 1, 0)), Ok(()));
        let bad = [
            ("NaN clock", window_blob(f64::NAN, 0.5, 2.0, 1, 0)),
            ("infinite clock", window_blob(f64::INFINITY, 0.5, 2.0, 1, 0)),
            ("far clock", window_blob(1e300, 1.0, 2.0, 1 << 50, 0)),
            ("negative clock", window_blob(-1.0, 0.5, 2.0, 1, 0)),
            ("NaN horizon", window_blob(1.0, f64::NAN, 2.0, 1, 0)),
            (
                "infinite horizon",
                window_blob(1.0, f64::INFINITY, 2.0, 1, 0),
            ),
            ("NaN volume", window_blob(1.0, 0.5, f64::NAN, 0, 0)),
            (
                "infinite volume",
                window_blob(1.0, 0.5, f64::INFINITY, 0, 0),
            ),
            ("unknown walker", window_blob(1.0, 0.5, 2.0, 1, 1)),
        ];
        for (what, blob) in bad {
            assert!(
                matches!(decode(blob), Err(CheckpointError::Malformed(_))),
                "{what} accepted"
            );
        }
    }

    #[test]
    fn windows_reach_a_distant_clock_in_one_refill() {
        // A measured rate that sizes every window far short of the next
        // clock (2^50 events by t = 1, then a walker due at 1e9), or a
        // horizon at 0 with events already counted: each refill must
        // still reach the earliest clock, so the run ends.
        let g = graph_from_undirected_pairs(3, [(0, 1), (0, 2)]);
        for (fire, t_hi, generated) in [(1e9, 1.0, 1 << 50), (1.0, 0.0, 1)] {
            let blob = window_blob(fire, t_hi, 2.0, generated, 0);
            let mut walk = FsWindowWalk::decode(&mut Decoder::new(&blob), 1).expect("valid blob");
            let mut budget = Budget::new(1e6);
            let mut emitted = 0;
            let done = (0..=100).any(|_| walk.step(&g, &mut budget, 1.0, |_, _| emitted += 1));
            assert!(done, "fire {fire}: run did not end");
            assert_eq!(emitted, 100, "fire {fire}");
        }
    }
}
