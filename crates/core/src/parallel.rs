//! Deterministic parallel chain execution.
//!
//! The paper's evaluation is embarrassingly parallel across
//! replications: error metrics are averaged over thousands of
//! independent runs. [`ParallelWalkerPool::run_chains`] runs those chain
//! bodies across threads, and its results never depend on the thread
//! count:
//!
//! 1. **SplitMix-derived RNG streams.** Chain `i` of a run with base seed
//!    `s` gets the seed [`stream_seed`]`(s, i)`, the `i + 1`-th SplitMix64
//!    output of a generator seeded at `s` (state advance *plus*
//!    finalizer, so the derivation composes; see [`stream_seed`]). A
//!    chain's result depends only on its own stream, never on which
//!    thread ran it.
//! 2. **Ordered results.** Each result lands in its chain's slot, so the
//!    output is in chain order for 1, 2, or N threads.
//!
//! The same derivation gives FS's walkers their streams: walker `i` of an
//! FS run with seed `s` draws from `stream_seed(s, i)` (Theorem 5.5; see
//! [`crate::distributed`]). FS itself runs on the calling thread, through
//! the chunked runner ([`crate::runner::ChunkedRunner`]) over the one
//! windowed engine in [`crate::batch`].
//!
//! Bit-identical replication holds whenever the backend's replies are a
//! pure function of the query — true for [`fs_graph::CsrAccess`], a
//! plain `&Graph`, fault-free `CrawlAccess`, and any `CachedAccess`
//! wrapping of those. A backend that injects faults from its own RNG
//! (e.g. `CrawlAccess::with_sample_loss`) answers in arrival order, so
//! chains sharing it see schedule-dependent fault *placement*
//! (statistics remain exact; see [`crate::backend`]).

use std::sync::atomic::{AtomicUsize, Ordering};

/// The SplitMix64 golden-ratio increment.
pub const SPLITMIX_GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Seed of stream `index` under base seed `base`: the `index + 1`-th
/// SplitMix64 output of a SplitMix64 generator seeded at `base` (state
/// advance *and* finalizer).
///
/// Applying the finalizer here — not just the linear state advance — is
/// what makes derivation **composable**: streams nest, as in
/// `monte_carlo(runs, base, |seed| ..)` over FS runs, where run
/// `r`'s walker `j` draws from `stream_seed(stream_seed(base, r), j)`.
/// With a purely additive derivation that nesting would collapse to
/// `base + GOLDEN·(r + j + 2)`, making run `r`'s walker `j` share its
/// stream with run `r + 1`'s walker `j − 1` — thousands of "independent"
/// replications would silently reuse almost every walker stream. The
/// finalizer's non-linear mix breaks the additive structure between
/// levels; within a level, it is a bijection, so sibling streams are
/// distinct by construction.
#[inline]
pub fn stream_seed(base: u64, index: u64) -> u64 {
    let mut z = base.wrapping_add(SPLITMIX_GOLDEN.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic thread pool for independent chain replication. See
/// the [module docs](self).
#[derive(Clone, Debug)]
pub struct ParallelWalkerPool {
    threads: usize,
}

impl Default for ParallelWalkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl ParallelWalkerPool {
    /// A pool sized to the machine (`available_parallelism`).
    pub fn new() -> Self {
        // fs-lint: allow(determinism) — thread count only sizes the pool; reductions are thread-count independent (pinned by the bit-identity tests)
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ParallelWalkerPool { threads }
    }

    /// A pool with an explicit thread count (`1` runs everything inline
    /// on the calling thread). Results never depend on this number.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads >= 1, "need at least one thread");
        ParallelWalkerPool { threads }
    }

    /// Runs `chains` independent chain bodies, handing body `i` its index
    /// and its derived stream seed [`stream_seed`]`(base_seed, i)`.
    /// Results come back in chain order regardless of which thread ran
    /// which chain (work is handed out through an atomic cursor for load
    /// balance; each result lands in its own slot). This is the engine
    /// behind `fs_experiments::monte_carlo` and the multi-chain
    /// convergence diagnostics.
    pub fn run_chains<T, F>(&self, chains: usize, base_seed: u64, body: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, u64) -> T + Sync,
    {
        if chains == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(chains);
        if workers == 1 {
            return (0..chains)
                .map(|i| body(i, stream_seed(base_seed, i as u64)))
                .collect();
        }
        // Workers accumulate (index, result) locally and the results are
        // scattered into slots after the join — result handoff stays
        // lock-free however short the chain bodies are.
        let cursor = AtomicUsize::new(0);
        let mut results: Vec<Option<T>> = (0..chains).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let cursor = &cursor;
                    let body = &body;
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= chains {
                                break;
                            }
                            local.push((i, body(i, stream_seed(base_seed, i as u64))));
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                for (i, out) in handle.join().expect("chain worker panicked") {
                    results[i] = Some(out);
                }
            }
        });
        results
            .into_iter()
            .map(|slot| slot.expect("every chain ran"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_seed_is_the_splitmix64_output_sequence() {
        // Reference SplitMix64 (Steele et al.): stream_seed(base, i) must
        // be the (i+1)-th output of a generator seeded at `base`.
        let splitmix_next = |state: &mut u64| {
            *state = state.wrapping_add(SPLITMIX_GOLDEN);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for base in [0u64, 7, 0xF5_2010, u64::MAX] {
            let mut state = base;
            for i in 0..8u64 {
                assert_eq!(stream_seed(base, i), splitmix_next(&mut state));
            }
        }
    }

    #[test]
    fn nested_stream_derivation_does_not_collide() {
        // The advertised composition: replication r's walker j draws from
        // stream_seed(stream_seed(base, r), j). A purely additive
        // derivation collapses this to base + GOLDEN·(r+j+2), aliasing
        // run r walker j with run r+1 walker j−1; the finalizer must
        // keep every (r, j) pair distinct.
        let base = 0xF5_2010u64;
        let mut seen = std::collections::HashSet::new();
        for r in 0..64u64 {
            let run_seed = stream_seed(base, r);
            assert!(seen.insert(run_seed), "run seed {r} collided");
            for j in 0..64u64 {
                assert!(
                    seen.insert(stream_seed(run_seed, j)),
                    "walker stream (run {r}, walker {j}) collided"
                );
            }
        }
    }

    #[test]
    fn run_chains_in_order_any_thread_count() {
        for threads in [1, 2, 3, 8] {
            let pool = ParallelWalkerPool::with_threads(threads);
            let out = pool.run_chains(10, 42, |i, seed| (i, seed));
            assert_eq!(out.len(), 10);
            for (i, &(idx, seed)) in out.iter().enumerate() {
                assert_eq!(idx, i);
                assert_eq!(seed, stream_seed(42, i as u64));
            }
        }
    }

    #[test]
    fn run_chains_zero_and_fewer_chains_than_threads() {
        let pool = ParallelWalkerPool::with_threads(8);
        assert!(pool.run_chains(0, 1, |i, _| i).is_empty());
        // Must not hang or spawn idle-looping workers beyond the chains.
        assert_eq!(pool.run_chains(3, 1, |i, _| i), vec![0, 1, 2]);
    }
}
