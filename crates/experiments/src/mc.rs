//! Parallel Monte-Carlo engine.
//!
//! The evaluation averages error metrics over thousands of independent
//! runs ("CNMSE over 10,000 runs"). [`monte_carlo`] fans the runs out
//! over all cores through
//! [`frontier_sampling::parallel::ParallelWalkerPool::run_chains`], so
//! replications parallelize *across* runs while each run body drives
//! its sampler on its own thread (e.g. an FS run through
//! [`frontier_sampling::runner::ChunkedRunner`], whose walkers derive
//! their streams from the run's seed — the derivation composes: nested
//! streams never alias). Each run receives the stream
//! seed [`frontier_sampling::parallel::stream_seed`]`(base, run_index)` —
//! the SplitMix64 output sequence seeded at `base` — so results are
//! reproducible regardless of thread count or interleaving.
//!
//! The scheduler hands out run indices through an atomic cursor, so there
//! are no per-thread chunks at all: `runs < threads` simply spawns fewer
//! workers (a worker is never created without at least one run to
//! execute — the historical chunked fan-out could spawn threads for
//! empty trailing chunks when `runs % threads != 0`).

use frontier_sampling::parallel::ParallelWalkerPool;

/// Runs `runs` independent replications of `body` (given the run's seed)
/// in parallel, returning the results in run order.
///
/// `body` must be `Sync` (it is shared across threads) and is expected to
/// build its own RNG from the seed.
pub fn monte_carlo<T, F>(runs: usize, base_seed: u64, body: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    monte_carlo_with(&ParallelWalkerPool::new(), runs, base_seed, body)
}

/// [`monte_carlo`] on an explicit pool (tests pin thread-count
/// independence with it; callers embedding the engine can bound its
/// parallelism).
pub fn monte_carlo_with<T, F>(
    pool: &ParallelWalkerPool,
    runs: usize,
    base_seed: u64,
    body: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    pool.run_chains(runs, base_seed, |_, seed| body(seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use frontier_sampling::parallel::{stream_seed, SPLITMIX_GOLDEN};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_exact_count_in_order() {
        let out = monte_carlo(100, 1, |seed| seed);
        assert_eq!(out.len(), 100);
        // Deterministic: same call yields same seeds.
        let out2 = monte_carlo(100, 1, |seed| seed);
        assert_eq!(out, out2);
        // Different base seed changes every stream.
        let out3 = monte_carlo(100, 2, |seed| seed);
        assert!(out.iter().zip(&out3).all(|(a, b)| a != b));
    }

    #[test]
    fn seed_derivation_is_the_pool_splitmix_stream() {
        // Experiment outputs are seed-addressed; the engine must hand run
        // i exactly stream_seed(base, i) — the SplitMix64 output
        // sequence — which also composes safely with per-walker streams
        // derived inside a run body.
        let out = monte_carlo(5, 0xF5_2010, |seed| seed);
        let mut state = 0xF5_2010u64;
        for (i, &seed) in out.iter().enumerate() {
            state = state.wrapping_add(SPLITMIX_GOLDEN);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            assert_eq!(seed, z ^ (z >> 31));
            assert_eq!(seed, stream_seed(0xF5_2010, i as u64));
        }
    }

    #[test]
    fn all_runs_execute() {
        let counter = AtomicUsize::new(0);
        let _ = monte_carlo(250, 3, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 250);
    }

    #[test]
    fn single_run() {
        let out = monte_carlo(1, 9, |s| s.wrapping_mul(2));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn zero_runs() {
        let out: Vec<u64> = monte_carlo(0, 9, |s| s);
        assert!(out.is_empty());
    }

    #[test]
    fn fewer_runs_than_threads() {
        // Regression: the chunked scheduler could spawn a thread for an
        // empty trailing chunk when runs < threads; the cursor scheduler
        // must execute each run exactly once and return them in order,
        // with results identical to the single-threaded pool.
        for runs in 1..6 {
            let wide = monte_carlo_with(&ParallelWalkerPool::with_threads(16), runs, 5, |s| s);
            let narrow = monte_carlo_with(&ParallelWalkerPool::with_threads(1), runs, 5, |s| s);
            assert_eq!(wide.len(), runs);
            assert_eq!(wide, narrow);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let body = |seed: u64| seed.wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(17);
        let reference = monte_carlo_with(&ParallelWalkerPool::with_threads(1), 64, 11, body);
        for threads in [2, 3, 8] {
            let out = monte_carlo_with(&ParallelWalkerPool::with_threads(threads), 64, 11, body);
            assert_eq!(out, reference, "{threads} threads");
        }
    }
}
