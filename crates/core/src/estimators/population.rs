//! Population-size (`|V|`) estimation from random-walk samples.
//!
//! The paper's motivating applications include peer counting in overlay
//! networks ([23, 34] in its bibliography). The standard RW approach
//! (Katzir, Liberty & Somekh, WWW 2011 — contemporaneous with the paper)
//! is a degree-corrected birthday paradox: among `B` stationary samples,
//! the expected number of *colliding pairs* (same vertex sampled twice)
//! is `C ≈ C(B,2) · Σ_v π_v²` with `π_v = deg(v)/vol(V)`, giving
//!
//! ```text
//! |V̂| = (Σ_i deg(v_i)) · (Σ_i 1/deg(v_i)) / (2 · C)
//! ```
//!
//! (the two degree sums estimate `vol·|V|/vol = |V|` up to the collision
//! normalisation). The estimator needs enough samples for collisions to
//! occur — `B = Ω(√(|V| · w_max))` in practice.
//!
//! ## Memory and checkpoint modes
//!
//! Visit counts live in an open-addressing table of the *sampled*
//! vertices, so a job's memory is O(distinct sampled vertices), not
//! O(|V|). The checkpoint holds a mode byte, a length and the nonzero
//! `(vertex index, count)` entries sorted by index: mode 0 before the
//! first observation; mode 1 if the universe then was at most
//! [`DENSE_UNIVERSE_MAX`], with length max(that universe, largest id +
//! 1), as the graph may grow; mode 2 above that, with length 0. Earlier
//! builds held mode 1 in a per-vertex array and wrote the same bytes,
//! so journals resume across builds.

use super::EdgeEstimator;
use crate::checkpoint::{take_sum, CheckpointError, Decoder, Encoder};
use fs_graph::{Arc, GraphAccess, VertexId};

/// Largest universe (at the first observation) whose checkpoint is
/// written in mode 1.
const DENSE_UNIVERSE_MAX: usize = 1 << 24;

/// Slots the visit table starts with (128 KiB), enough for 8,192
/// distinct vertices. Smaller starts were slower at budgets of a few
/// thousand: probes collide more, and growing rehashes into new memory.
const START_SLOTS: usize = 1 << 14;

/// Per-vertex visit counters: an open-addressing table of packed
/// `(vertex index << 32) | count` slots, power-of-two sized, probed
/// linearly from a multiplicative hash and kept at most half full. A
/// used slot's count is at least 1, so 0 marks an empty slot.
#[derive(Clone, Debug, Default)]
struct VisitCounts {
    /// Empty until the first observation (checkpoint mode 0).
    slots: Vec<u64>,
    /// Used slots.
    len: usize,
    /// Mode 1's universe length: the universe at the first observation
    /// (or the resumed length), if at most [`DENSE_UNIVERSE_MAX`];
    /// `None` writes mode 2.
    dense_len: Option<usize>,
}

impl VisitCounts {
    fn with_capacity(distinct: usize, dense_len: Option<usize>) -> Self {
        VisitCounts {
            slots: vec![0; (2 * distinct).next_power_of_two().max(START_SLOTS)],
            len: 0,
            dense_len,
        }
    }

    /// Bumps `v`'s count and returns how often it was seen *before*.
    #[inline]
    fn bump(&mut self, v: VertexId, universe: usize) -> u32 {
        if self.slots.is_empty() {
            *self =
                VisitCounts::with_capacity(0, Some(universe).filter(|&n| n <= DENSE_UNIVERSE_MAX));
        }
        let (i, slot) = self.find(v.raw());
        // An empty slot takes the key with count 1, a match counts on:
        // both are `(slot + 1) | key`, so the store needs no branch.
        self.slots[i] = (slot + 1) | u64::from(v.raw()) << 32;
        self.len += usize::from(slot == 0);
        if 2 * self.len > self.slots.len() {
            self.grow();
        }
        slot as u32
    }

    /// The slot holding `index`, or the empty slot where it belongs,
    /// with that slot's contents.
    #[inline]
    fn find(&self, index: u32) -> (usize, u64) {
        let mask = self.slots.len() - 1;
        let shift = 64 - self.slots.len().trailing_zeros();
        let mut i = (u64::from(index).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) as usize;
        loop {
            let slot = self.slots[i];
            // Empty (count 0) or `index`'s: one branch, not a
            // mispredicted one on whether `index` is new.
            if (slot & 0xffff_ffff) * ((slot >> 32) ^ u64::from(index)) == 0 {
                return (i, slot);
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the table.
    fn grow(&mut self) {
        let grown = vec![0; 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, grown);
        for slot in old.into_iter().filter(|&s| s != 0) {
            let (j, _) = self.find((slot >> 32) as u32);
            self.slots[j] = slot;
        }
    }
}

/// Streaming Katzir-style `|V|` estimator over stationary RW samples.
#[derive(Clone, Debug)]
pub struct PopulationSizeEstimator {
    degree_sum: f64,
    inv_degree_sum: f64,
    /// Times each vertex has been sampled (for collision counting).
    counts: VisitCounts,
    collisions: u64,
    observed: usize,
}

impl Default for PopulationSizeEstimator {
    fn default() -> Self {
        PopulationSizeEstimator {
            degree_sum: 0.0,
            inv_degree_sum: 0.0,
            counts: VisitCounts::default(),
            collisions: 0,
            observed: 0,
        }
    }
}

impl PopulationSizeEstimator {
    /// Creates the estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of colliding sample pairs seen so far.
    pub fn collisions(&self) -> u64 {
        self.collisions
    }

    /// Current estimate of `|V|`; `None` until at least one collision has
    /// been observed.
    pub fn estimate(&self) -> Option<f64> {
        if self.collisions == 0 {
            return None;
        }
        Some(self.degree_sum * self.inv_degree_sum / (2.0 * self.collisions as f64))
    }

    /// Number of edges observed so far.
    pub fn num_observed(&self) -> usize {
        self.observed
    }

    /// Writes the sums, the visit counters and the collision and sample
    /// counts: this state's FSEC layout. The counters are their mode
    /// (see the module docs) plus the `(vertex index, count)` entries
    /// sorted by index, so the bytes are canonical whatever the table's
    /// slot order.
    pub(crate) fn encode(&self, enc: &mut Encoder) {
        let mut entries: Vec<(u64, u32)> = (self.counts.slots.iter())
            .filter(|&&s| s != 0)
            .map(|&s| (s >> 32, s as u32))
            .collect();
        entries.sort_unstable_by_key(|&(i, _)| i);
        let past_largest = entries.last().map_or(0, |&(i, _)| i as usize + 1);
        let (counts_mode, dense_len) = match self.counts.dense_len {
            _ if self.counts.slots.is_empty() => (0, 0),
            Some(len) => (1, len.max(past_largest)),
            None => (2, 0),
        };
        enc.put_f64(self.degree_sum);
        enc.put_f64(self.inv_degree_sum);
        enc.put_u8(counts_mode);
        enc.put_usize(dense_len);
        enc.put_usize(entries.len());
        for (i, c) in entries {
            enc.put_u64(i);
            enc.put_u32(c);
        }
        enc.put_u64(self.collisions);
        enc.put_usize(self.observed);
    }

    /// Restores [`Self::encode`]'s state into this estimator; refuses an
    /// unknown mode byte, and entries that are not nonzero, strictly
    /// increasing by index and in the mode's range.
    pub(crate) fn decode(&mut self, dec: &mut Decoder<'_>) -> Result<(), CheckpointError> {
        self.degree_sum = take_sum(dec)?;
        self.inv_degree_sum = take_sum(dec)?;
        let counts_mode = dec.take_u8()?;
        let len = dec.take_usize()?;
        // An entry is a u64 index and a u32 count.
        let n = dec.take_count(8 + 4)?;
        let (mut counts, limit) = match counts_mode {
            0 => (VisitCounts::default(), 0),
            1 => (
                VisitCounts::with_capacity(n, Some(len)),
                (len as u64).min(1 << 32),
            ),
            2 => (VisitCounts::with_capacity(n, None), 1 << 32),
            other => {
                return Err(CheckpointError::Malformed(format!(
                    "unknown visit-counter mode {other}"
                )))
            }
        };
        let mut next = 0u64;
        for _ in 0..n {
            let (i, c) = (dec.take_u64()?, dec.take_u32()?);
            if i < next || i >= limit || c == 0 {
                return Err(CheckpointError::Malformed(
                    "visit entries not nonzero, sorted and in range".into(),
                ));
            }
            let (slot, _) = counts.find(i as u32);
            counts.slots[slot] = i << 32 | u64::from(c);
            counts.len += 1;
            next = i + 1;
        }
        self.counts = counts;
        self.collisions = dec.take_u64()?;
        self.observed = dec.take_usize()?;
        Ok(())
    }
}

impl<A: GraphAccess + ?Sized> EdgeEstimator<A> for PopulationSizeEstimator {
    fn observe(&mut self, access: &A, edge: Arc) {
        let v = edge.target;
        let d = access.degree(v);
        if d == 0 {
            return;
        }
        self.observed += 1;
        self.degree_sum += d as f64;
        self.inv_degree_sum += 1.0 / d as f64;
        // Each previous occurrence of v forms one new colliding pair.
        self.collisions += self.counts.bump(v, access.num_vertices()) as u64;
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
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    #[test]
    fn estimates_vertex_count_of_ba_graph() {
        let mut rng = SmallRng::seed_from_u64(301);
        let g = fs_gen::barabasi_albert(2_000, 3, &mut rng);
        let mut est = PopulationSizeEstimator::new();
        let mut budget = Budget::new(30_000.0);
        WalkMethod::frontier(10).sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |e| {
            est.observe(&g, e)
        });
        let n_hat = est.estimate().expect("collisions expected at B ≫ √n");
        let n = g.num_vertices() as f64;
        assert!(
            (n_hat - n).abs() / n < 0.15,
            "estimated |V| = {n_hat}, true {n}"
        );
    }

    #[test]
    fn no_estimate_before_collisions() {
        let g = fs_graph::graph_from_undirected_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut est = PopulationSizeEstimator::new();
        // Observe three distinct targets only.
        for (s, t) in [(0usize, 1usize), (1, 2), (2, 3)] {
            est.observe(
                &g,
                Arc {
                    source: VertexId::new(s),
                    target: VertexId::new(t),
                },
            );
        }
        assert_eq!(est.collisions(), 0);
        assert!(est.estimate().is_none());
    }

    /// Round-trips the counters through the estimator checkpoint.
    fn round_trip(counts: VisitCounts) -> VisitCounts {
        let mut enc = Encoder::new();
        PopulationSizeEstimator {
            counts,
            ..PopulationSizeEstimator::default()
        }
        .encode(&mut enc);
        let mut est = PopulationSizeEstimator::new();
        est.decode(&mut Decoder::new(&enc.into_bytes()))
            .expect("own checkpoint resumes");
        est.counts
    }

    /// The counters' checkpoint as (mode, universe length, entries).
    fn encoded_counts(counts: VisitCounts) -> (u8, u64, Vec<(u64, u32)>) {
        let mut enc = Encoder::new();
        PopulationSizeEstimator {
            counts,
            ..PopulationSizeEstimator::default()
        }
        .encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes[16..]); // past the two sums
        let (mode, len) = (dec.take_u8().unwrap(), dec.take_u64().unwrap());
        let n = dec.take_u64().unwrap();
        let entries = (0..n)
            .map(|_| (dec.take_u64().unwrap(), dec.take_u32().unwrap()))
            .collect();
        (mode, len, entries)
    }

    /// A population state with the given counters and zero sums.
    fn population_body(counts_mode: u8, dense_len: u64, entries: &[(u64, u32)]) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_f64(0.0);
        enc.put_f64(0.0);
        enc.put_u8(counts_mode);
        enc.put_u64(dense_len);
        enc.put_usize(entries.len());
        for &(i, c) in entries {
            enc.put_u64(i);
            enc.put_u32(c);
        }
        enc.put_u64(0);
        enc.put_u64(0);
        enc.into_bytes()
    }

    #[test]
    fn counter_matches_a_btreemap_reference() {
        // Seeded id streams, every third one hub-heavy (half its ids
        // from eight hubs), over universes on both sides of the mode
        // switch. Ids run past the starting universe, and the state is
        // checkpointed and rebuilt at a random cut point.
        for seed in 0..32u64 {
            let mut rng = SmallRng::seed_from_u64(0x5eed + seed);
            let universe = [50, 5_000, 1 << 20, DENSE_UNIVERSE_MAX + 1][seed as usize % 4];
            let hubs: Vec<u32> = (0..8).map(|_| rng.gen_range(0..universe as u32)).collect();
            let len = rng.gen_range(1..6_000usize);
            let cut = rng.gen_range(0..=len);
            let mut counts = VisitCounts::default();
            let mut reference = BTreeMap::<u32, u32>::new();
            let mut collisions = 0u64;
            for step in 0..len {
                if step == cut {
                    counts = round_trip(counts);
                }
                let id = if seed % 3 == 0 && rng.gen_bool(0.5) {
                    hubs[rng.gen_range(0..hubs.len())]
                } else if rng.gen_bool(0.02) {
                    rng.gen::<u32>()
                } else {
                    rng.gen_range(0..(universe + universe / 4) as u32)
                };
                let seen = counts.bump(VertexId::from(id), universe);
                let slot = reference.entry(id).or_insert(0);
                assert_eq!(seen, *slot, "seed {seed}, step {step}, id {id}");
                *slot += 1;
                collisions += u64::from(seen);
            }
            let pairs = |c: u32| u64::from(c) * u64::from(c - 1) / 2;
            assert_eq!(
                collisions,
                reference.values().map(|&c| pairs(c)).sum::<u64>()
            );
            let (mode, dense_len, entries) = encoded_counts(counts);
            let want: Vec<(u64, u32)> = reference.iter().map(|(&i, &c)| (i.into(), c)).collect();
            assert_eq!(entries, want, "seed {seed}");
            let largest = *reference.keys().next_back().unwrap() as usize;
            if universe <= DENSE_UNIVERSE_MAX {
                assert_eq!((mode, dense_len), (1, universe.max(largest + 1) as u64));
            } else {
                assert_eq!((mode, dense_len), (2, 0));
            }
        }
    }

    #[test]
    fn table_is_sized_by_the_samples_not_the_universe() {
        let mut rng = SmallRng::seed_from_u64(304);
        let universe = DENSE_UNIVERSE_MAX + 1;
        let mut counts = VisitCounts::default();
        for _ in 0..5_000 {
            counts.bump(VertexId::new(rng.gen_range(0..universe)), universe);
        }
        assert_eq!(counts.dense_len, None);
        assert!(counts.slots.len() <= 16_384, "{} slots", counts.slots.len());
    }

    #[test]
    fn malformed_counter_checkpoints_are_rejected() {
        let ck = population_body;
        let resume = |body: Vec<u8>| {
            let mut dec = Decoder::new(&body);
            PopulationSizeEstimator::new().decode(&mut dec).is_ok()
        };
        assert!(resume(ck(1, 10, &[(2, 1), (9, 3)])));
        assert!(resume(ck(2, 0, &[(2, 1), (u32::MAX.into(), 3)])));
        assert!(!resume(ck(0, 0, &[(2, 1)])), "undecided with entries");
        assert!(!resume(ck(1, 10, &[(10, 1)])), "past the dense length");
        assert!(!resume(ck(2, 0, &[(1 << 32, 1)])), "past u32 ids");
        assert!(!resume(ck(2, 0, &[(5, 1), (5, 2)])), "repeated index");
        assert!(!resume(ck(2, 0, &[(5, 1), (3, 2)])), "unsorted");
        assert!(!resume(ck(1, 10, &[(5, 0)])), "zero count");
        assert!(!resume(ck(3, 0, &[])), "unknown mode");
    }

    #[test]
    fn collision_counting_is_pairwise() {
        let g = fs_graph::graph_from_undirected_pairs(3, [(0, 1), (1, 2)]);
        let mut est = PopulationSizeEstimator::new();
        let arc = Arc {
            source: VertexId::new(0),
            target: VertexId::new(1),
        };
        for _ in 0..4 {
            est.observe(&g, arc);
        }
        // 4 samples of the same vertex -> C(4,2) = 6 colliding pairs.
        assert_eq!(est.collisions(), 6);
    }
}
