//! Host-drift probe: a fixed-work reference loop, timed before and after
//! each run. It is reported beside the metrics and never scales them, so
//! a noisy verdict can be told apart from a change to the program.

use std::time::Instant;

/// Words in the probe's table: 64 MiB, well past the last-level cache,
/// so like the FS walk the loop waits on memory as well as on the core.
const TABLE_WORDS: usize = 1 << 23;
const ROUNDS: usize = 4_000_000;

/// Milliseconds one pass of the reference loop took. The table lives on
/// the stack of a thread of its own, which is mapped and unmapped
/// outside the allocator: a freed 64 MiB heap block would raise the
/// allocator's mmap threshold and change how the program's own memory
/// is kept, and so its peak RSS.
pub fn probe_ms() -> f64 {
    std::thread::Builder::new()
        .stack_size(TABLE_WORDS * 8 + (8 << 20))
        .spawn(|| {
            let mut table = [0u64; TABLE_WORDS];
            for (i, w) in table.iter_mut().enumerate() {
                *w = i as u64;
            }
            let start = Instant::now();
            let mut x = 0x2545_f491_4f6c_dd1du64;
            for _ in 0..ROUNDS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let slot = (x as usize) & (TABLE_WORDS - 1);
                table[slot] = table[slot].wrapping_add(x);
            }
            std::hint::black_box(&table);
            start.elapsed().as_secs_f64() * 1e3
        })
        .expect("spawn the probe thread")
        .join()
        .expect("probe thread panicked")
}

/// The median of three passes.
pub fn probe_median_ms() -> f64 {
    crate::stats::median(&[probe_ms(), probe_ms(), probe_ms()])
}
