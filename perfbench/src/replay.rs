//! Recomputes a served job with the library over the same store, the
//! way a job worker runs it, with a span around each call into a layer.
//! Untraced, the same path is the correctness gate's recompute.

use crate::trace::Tracer;
use crate::workload::Job;
use frontier_sampling::runner::{
    ChunkStatus, ChunkedRunner, EstimateSnapshot, JobEstimator, Sample,
};
use frontier_sampling::{stream_seed, Budget, CostModel, FsEventBatch, StartPolicy};
use fs_graph::{CountedAccess, ShardedCounter};
use fs_serve::Json;
use fs_store::MmapGraph;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Attempts per chunk, as the server's job workers run them.
pub const CHUNK: usize = 8_192;

/// Journaled jobs checkpoint every this many chunks, as the server does.
const CHECKPOINT_CHUNKS: u64 = 4;

/// An estimate reduced to what bit-equality needs: the sample count,
/// the scalar's bits, and a hash over the vector's bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EstimateKey {
    pub num_observed: u64,
    pub scalar_bits: Option<u64>,
    pub vector_len: usize,
    pub vector_hash: u64,
}

fn fnv(bits: impl Iterator<Item = u64>) -> u64 {
    bits.fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

impl EstimateKey {
    pub fn of_snapshot(s: &EstimateSnapshot) -> EstimateKey {
        let vector = s.vector.as_deref().unwrap_or(&[]);
        EstimateKey {
            num_observed: s.num_observed,
            scalar_bits: s.scalar.map(f64::to_bits),
            vector_len: vector.len(),
            vector_hash: fnv(vector.iter().map(|x| x.to_bits())),
        }
    }

    /// From the `estimate` object of a served job document.
    pub fn of_wire(estimate: &Json) -> Result<EstimateKey, String> {
        let num_observed = estimate
            .get("num_observed")
            .and_then(Json::as_u64)
            .ok_or("estimate without num_observed")?;
        let scalar_bits = estimate
            .get("scalar")
            .and_then(Json::as_f64)
            .map(f64::to_bits);
        let vector = match estimate.get("vector").and_then(Json::as_arr) {
            None => Vec::new(),
            Some(items) => items
                .iter()
                .map(|x| {
                    x.as_f64()
                        .map(f64::to_bits)
                        .ok_or("non-numeric vector entry")
                })
                .collect::<Result<Vec<u64>, _>>()?,
        };
        Ok(EstimateKey {
            num_observed,
            scalar_bits,
            vector_len: vector.len(),
            vector_hash: fnv(vector.into_iter()),
        })
    }
}

/// The `estimate` object the server serializes for a snapshot.
fn estimate_json(s: &EstimateSnapshot) -> Json {
    Json::obj([
        ("num_observed", Json::from(s.num_observed)),
        ("scalar", s.scalar.map(Json::Num).unwrap_or(Json::Null)),
        (
            "vector",
            s.vector
                .as_ref()
                .map(|v| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect()))
                .unwrap_or(Json::Null),
        ),
    ])
}

/// What a replay did, in exact counts.
pub struct Replayed {
    pub key: EstimateKey,
    pub steps: u64,
    pub samples: u64,
    pub queries: u64,
}

/// Runs `job` chunk by chunk over `graph`. Each chunk's samples are
/// collected first and then observed, so run_chunk and observe time
/// apart; the estimate bits are the same as observing inline. Traced,
/// every chunk also takes the snapshot and JSON encode a streaming
/// subscriber causes, and the job ends with one checkpoint serialize.
pub fn replay_job(graph: &MmapGraph, job: &Job, id: u64, t: &mut Tracer) -> Replayed {
    let spec = job.sampler_spec();
    let counter = Arc::new(ShardedCounter::new());
    let access = CountedAccess::new(graph, Arc::clone(&counter));
    t.span(id, "replay.job", |t| {
        let mut runner = t.span(id, "runner.new", |_| {
            ChunkedRunner::new(&spec, &access, &CostModel::unit(), job.budget, job.seed)
        });
        let mut estimator =
            JobEstimator::new(job.estimator_spec(), &spec).expect("benchmark jobs are valid");
        let mut buf: Vec<Sample> = Vec::with_capacity(CHUNK);
        let (mut samples, mut chunks) = (0u64, 0u64);
        loop {
            buf.clear();
            let status = t.span(id, "runner.run_chunk", |_| {
                runner.run_chunk(CHUNK, |s| buf.push(s))
            });
            chunks += 1;
            samples += buf.len() as u64;
            t.span(id, "estimator.observe", |_| {
                for &s in &buf {
                    estimator.observe(graph, s);
                }
            });
            if t.enabled() {
                let snapshot = t.span(id, "estimator.snapshot", |_| estimator.snapshot());
                t.span(id, "json.encode", |_| {
                    std::hint::black_box(estimate_json(&snapshot).encode())
                });
                if chunks % CHECKPOINT_CHUNKS == 0 || status == ChunkStatus::Finished {
                    t.span(id, "checkpoint.serialize", |_| {
                        std::hint::black_box((runner.serialize(), estimator.serialize()))
                    });
                }
            }
            if status == ChunkStatus::Finished {
                break;
            }
        }
        Replayed {
            key: EstimateKey::of_snapshot(&estimator.snapshot()),
            steps: runner.steps_done(),
            samples,
            queries: runner.queries_issued(),
        }
    })
}

/// Advances FS job `job`'s walkers alone — same starts, same per-walker
/// seeds as its runner — until `events` events exist, with no merge or
/// emit. Returns the events generated.
pub fn replay_batch(graph: &MmapGraph, job: &Job, id: u64, events: u64, t: &mut Tracer) -> u64 {
    let m = job.m;
    let mut rng = SmallRng::seed_from_u64(job.seed);
    let mut budget = Budget::new(job.budget);
    let starts = StartPolicy::Uniform.draw(graph, m, &CostModel::unit(), &mut budget, &mut rng);
    let seeds: Vec<u64> = (0..starts.len())
        .map(|i| stream_seed(job.seed, i as u64))
        .collect();
    t.span(id, "replay.batch", |t| {
        let mut engine = FsEventBatch::new(graph, &starts, &seeds);
        let (mut generated, mut t_hi) = (0u64, 0.0f64);
        while generated < events && !engine.all_stuck() {
            // Windows sized like the runner's: a bounded batch of
            // events at the measured rate.
            let target = (events - generated).clamp(64, 4_096) as f64;
            let rate = if generated > 0 {
                generated as f64 / t_hi
            } else {
                engine.rate()
            };
            let t_next = t_hi + 1.10 * target / rate.max(f64::MIN_POSITIVE);
            let mut n = 0u64;
            t.span(id, "batch.advance", |_| {
                engine.advance(graph, t_next, |_, _, _| n += 1)
            });
            generated += n;
            t_hi = t_next;
        }
        generated
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_and_snapshot_keys_agree() {
        let snap = EstimateSnapshot {
            num_observed: 12,
            scalar: None,
            vector: Some(vec![0.25, 0.5, 0.1 + 0.2]),
        };
        let wire = fs_serve::json::parse(&estimate_json(&snap).encode()).unwrap();
        assert_eq!(
            EstimateKey::of_wire(&wire).unwrap(),
            EstimateKey::of_snapshot(&snap)
        );
        let scalar = EstimateSnapshot {
            num_observed: 3,
            scalar: Some(5.999_950_000_000_1),
            vector: None,
        };
        let wire = fs_serve::json::parse(&estimate_json(&scalar).encode()).unwrap();
        assert_eq!(
            EstimateKey::of_wire(&wire).unwrap(),
            EstimateKey::of_snapshot(&scalar)
        );
        assert_ne!(
            EstimateKey::of_snapshot(&snap),
            EstimateKey::of_snapshot(&scalar)
        );
    }
}
