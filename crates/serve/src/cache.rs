//! Deterministic result cache: completed estimates keyed by
//! `(store digest, canonicalized job spec, seed)`.
//!
//! ## Why caching is sound here
//!
//! Every job result in this system is a **pure function** of the store
//! content, the job spec, and the seed: every job inherits the
//! `ChunkedRunner` bit-identity contract. Ribeiro & Towsley's estimators depend only on the budget-`B` sample path, and
//! the sample path depends only on `(graph, spec, seed)` — so a cached
//! response is byte-equal to a recomputed one, forever. The cache is an
//! optimization with **zero** freshness semantics to manage.
//!
//! ## Key canonicalization
//!
//! The key must equate exactly the spec pairs that are guaranteed to
//! produce identical results, and nothing more:
//!
//! * the **store content digest**, never the file name — a rewritten
//!   store gets a new digest from the registry's open-time checksum, so
//!   stale results for the old bytes can never be served for the new
//!   ones (invalidation-by-digest is structural, not evented);
//! * sampler **variant and parameters**, as the wire triple
//!   `SamplerSpec::wire` gives, with `alpha` compared by IEEE bit
//!   pattern (`f64::to_bits`) — the RNG consumes the exact bits;
//! * `budget` by bit pattern, for the same reason;
//! * the `seed` and the estimator variant.
//!
//! The store name is deliberately excluded: the digest already names
//! the bytes, so two names for one content share one entry.
//!
//! ## Bounds
//!
//! LRU over both an entry count and a byte budget (vector estimates —
//! degree distributions over power-law graphs — dominate the bytes).
//! Recency is a monotone stamp per entry plus a stamp-ordered index, so
//! get/insert are `O(log n)` with no unsafe pointer chasing.

use crate::jobs::JobSpec;
use frontier_sampling::runner::{EstimateSnapshot, EstimatorSpec};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Canonical cache key. See the [module docs](self) for what each
/// field buys.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    digest: u64,
    /// [`SamplerSpec::wire`](frontier_sampling::runner::SamplerSpec::wire),
    /// `alpha` as its bit pattern.
    sampler: (&'static str, usize, u64),
    budget_bits: u64,
    seed: u64,
    estimator: EstimatorSpec,
}

impl CacheKey {
    /// The canonical key of `spec` run over the store content `digest`
    /// (`spec.store` does not enter it).
    pub fn new(digest: u64, spec: &JobSpec) -> CacheKey {
        let (name, m, alpha) = spec.sampler.wire();
        CacheKey {
            digest,
            sampler: (name, m, alpha.to_bits()),
            budget_bits: spec.budget.to_bits(),
            seed: spec.seed,
            estimator: spec.estimator,
        }
    }
}

/// A completed job's terminal output — everything `GET /v1/jobs/{id}`
/// reports beyond lifecycle bookkeeping.
#[derive(Clone, Debug, PartialEq)]
pub struct CachedResult {
    /// The final estimate snapshot, shared with the jobs it answers.
    pub snapshot: Arc<EstimateSnapshot>,
    /// Walk attempts the original run completed.
    pub steps_done: u64,
}

impl CachedResult {
    /// Approximate heap + struct footprint, for the byte budget.
    fn weight(&self) -> usize {
        let vec_bytes = self
            .snapshot
            .vector
            .as_ref()
            .map_or(0, |v| v.len() * std::mem::size_of::<f64>());
        std::mem::size_of::<CachedResult>() + std::mem::size_of::<CacheKey>() + vec_bytes
    }
}

/// Counters for `/healthz` and the loadgen A/B.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a result.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries written.
    pub inserts: u64,
    /// Entries dropped by the LRU bounds.
    pub evictions: u64,
    /// Live entries.
    pub entries: usize,
    /// Approximate live bytes.
    pub bytes: usize,
}

struct Entry {
    result: CachedResult,
    weight: usize,
    stamp: u64,
}

struct Inner {
    map: HashMap<CacheKey, Entry>,
    /// Recency index: stamp → key. Stamps are unique (monotone counter
    /// under the same lock), so `BTreeMap` is a faithful LRU order.
    by_stamp: BTreeMap<u64, CacheKey>,
    bytes: usize,
    next_stamp: u64,
    inserts: u64,
    evictions: u64,
}

/// The process-wide deterministic result cache. Thread-safe; all
/// operations take one short critical section.
pub struct ResultCache {
    inner: Mutex<Inner>,
    max_entries: usize,
    max_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    /// An LRU cache bounded by `max_entries` entries and (approximately)
    /// `max_bytes` bytes. `max_entries == 0` disables caching entirely
    /// (every lookup misses, every insert is dropped).
    pub fn new(max_entries: usize, max_bytes: usize) -> ResultCache {
        ResultCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                by_stamp: BTreeMap::new(),
                bytes: 0,
                next_stamp: 0,
                inserts: 0,
                evictions: 0,
            }),
            max_entries,
            max_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up a completed result, refreshing its recency on hit. The
    /// result shares the cached snapshot.
    pub fn get(&self, key: &CacheKey) -> Option<CachedResult> {
        let mut inner = self.inner.lock().expect("cache poisoned");
        let inner = &mut *inner;
        match inner.map.get_mut(key) {
            Some(entry) => {
                inner.by_stamp.remove(&entry.stamp);
                entry.stamp = inner.next_stamp;
                inner.next_stamp += 1;
                inner.by_stamp.insert(entry.stamp, key.clone());
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.result.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or refreshes) a completed result, then enforces the LRU
    /// bounds. An entry larger than the whole byte budget is dropped
    /// rather than cached alone.
    pub fn insert(&self, key: CacheKey, result: CachedResult) {
        if self.max_entries == 0 {
            return;
        }
        let weight = result.weight();
        if weight > self.max_bytes {
            return;
        }
        let mut inner = self.inner.lock().expect("cache poisoned");
        let inner = &mut *inner;
        if let Some(old) = inner.map.remove(&key) {
            inner.by_stamp.remove(&old.stamp);
            inner.bytes -= old.weight;
        }
        let stamp = inner.next_stamp;
        inner.next_stamp += 1;
        inner.bytes += weight;
        inner.inserts += 1;
        inner.by_stamp.insert(stamp, key.clone());
        inner.map.insert(
            key,
            Entry {
                result,
                weight,
                stamp,
            },
        );
        while inner.map.len() > self.max_entries || inner.bytes > self.max_bytes {
            let Some((&stamp, _)) = inner.by_stamp.iter().next() else {
                break;
            };
            // The two indices are updated together everywhere, but a
            // desync degrades to ending eviction early rather than
            // aborting the reactor mid-request.
            let Some(key) = inner.by_stamp.remove(&stamp) else {
                break;
            };
            let Some(entry) = inner.map.remove(&key) else {
                break;
            };
            inner.bytes -= entry.weight;
            inner.evictions += 1;
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache poisoned");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: inner.inserts,
            evictions: inner.evictions,
            entries: inner.map.len(),
            bytes: inner.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frontier_sampling::runner::SamplerSpec;

    fn snap(observed: u64, scalar: f64) -> EstimateSnapshot {
        EstimateSnapshot {
            num_observed: observed,
            scalar: Some(scalar),
            vector: None,
        }
    }

    fn result(observed: u64) -> CachedResult {
        CachedResult {
            snapshot: Arc::new(snap(observed, observed as f64)),
            steps_done: observed,
        }
    }

    fn spec(seed: u64) -> JobSpec {
        JobSpec {
            store: "g.fsg".into(),
            sampler: SamplerSpec::Frontier { m: 16 },
            budget: 20_000.0,
            seed,
            estimator: EstimatorSpec::AverageDegree,
        }
    }

    fn key(digest: u64, seed: u64) -> CacheKey {
        CacheKey::new(digest, &spec(seed))
    }

    #[test]
    fn hit_returns_the_inserted_result() {
        let cache = ResultCache::new(16, 1 << 20);
        cache.insert(key(1, 7), result(42));
        assert_eq!(cache.get(&key(1, 7)), Some(result(42)));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 0, 1));
    }

    #[test]
    fn every_spec_dimension_is_part_of_the_key() {
        let cache = ResultCache::new(64, 1 << 20);
        let base = key(1, 7);
        cache.insert(base.clone(), result(1));
        let with = |edit: fn(&mut JobSpec)| {
            let mut s = spec(7);
            edit(&mut s);
            CacheKey::new(1, &s)
        };
        let variants = [
            // different digest (store rewritten)
            key(2, 7),
            // different sampler parameter
            with(|s| s.sampler = SamplerSpec::Frontier { m: 17 }),
            // different sampler variant with the same parameter
            with(|s| s.sampler = SamplerSpec::Multiple { m: 16 }),
            // different budget
            with(|s| s.budget = 20_001.0),
            // different seed
            key(1, 8),
            // different estimator
            with(|s| s.estimator = EstimatorSpec::Clustering),
        ];
        for variant in &variants {
            assert_ne!(variant, &base);
            assert_eq!(cache.get(variant), None, "{variant:?} must miss");
        }
        assert_eq!(cache.get(&base), Some(result(1)));
    }

    #[test]
    fn store_name_is_not_part_of_the_key() {
        let mut other = spec(7);
        other.store = "same-bytes.fsg".into();
        assert_eq!(CacheKey::new(1, &other), key(1, 7));
    }

    #[test]
    fn alpha_is_keyed_by_bit_pattern() {
        let k = |alpha: f64| {
            let mut s = spec(7);
            s.sampler = SamplerSpec::Rwj { alpha };
            CacheKey::new(1, &s)
        };
        // 0.0 == -0.0 under IEEE comparison but the RNG path consumes
        // the bits, so the canonical key must distinguish them.
        assert_ne!(k(0.0), k(-0.0));
        assert_eq!(k(0.25), k(0.25));
    }

    #[test]
    fn entry_count_lru_evicts_the_coldest() {
        let cache = ResultCache::new(2, 1 << 20);
        cache.insert(key(1, 1), result(1));
        cache.insert(key(1, 2), result(2));
        // Touch seed-1 so seed-2 is now the coldest.
        assert!(cache.get(&key(1, 1)).is_some());
        cache.insert(key(1, 3), result(3));
        assert_eq!(cache.get(&key(1, 2)), None, "coldest entry evicted");
        assert!(cache.get(&key(1, 1)).is_some());
        assert!(cache.get(&key(1, 3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn byte_budget_evicts_and_oversized_entries_are_refused() {
        let big = CachedResult {
            snapshot: Arc::new(EstimateSnapshot {
                num_observed: 1,
                scalar: None,
                vector: Some(vec![0.0; 1000]), // 8000 heap bytes
            }),
            steps_done: 1,
        };
        let fixed = result(0).weight();
        // Budget fits exactly one big entry (plus fixed overhead).
        let cache = ResultCache::new(1024, fixed + 8_000);
        cache.insert(key(1, 1), big.clone());
        cache.insert(key(1, 2), big.clone());
        let stats = cache.stats();
        assert_eq!(stats.entries, 1, "byte budget holds one big entry");
        assert_eq!(stats.evictions, 1);
        assert_eq!(cache.get(&key(1, 2)), Some(big));
        // An entry bigger than the whole budget is refused outright.
        let cache = ResultCache::new(1024, 64);
        cache.insert(key(1, 3), result(3));
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ResultCache::new(0, 1 << 20);
        cache.insert(key(1, 1), result(1));
        assert_eq!(cache.get(&key(1, 1)), None);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn reinsert_replaces_and_keeps_byte_accounting_consistent() {
        let cache = ResultCache::new(8, 1 << 20);
        cache.insert(key(1, 1), result(1));
        let before = cache.stats().bytes;
        cache.insert(key(1, 1), result(2));
        assert_eq!(cache.stats().bytes, before, "same-weight replace");
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.get(&key(1, 1)), Some(result(2)));
    }
}
