//! The workloads: which graph each one serves, and the per-client job
//! streams its clients submit.
//!
//! A workload's graph is its dataset and stays the same for every seed;
//! the workload seed picks the job stream (samplers, estimators,
//! budgets, job seeds, repeats), which is the same on every workload, so
//! two workloads differ only in the graph. A seed fixes the inputs
//! exactly, and seed-to-seed differences in a graph's hubs — which set
//! the size of every degree-distribution payload — cannot pass for
//! program noise.

use frontier_sampling::runner::{EstimatorSpec, SamplerSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// The benchmark's workloads. See `BENCHMARK.json` for why each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The mixed job stream over G_AB, a store far larger than the
    /// core's caches: graph access and the walk weigh against the
    /// per-job serving costs.
    GabShort,
    /// All 30 accepted (sampler, estimator) pairs at small budgets over a
    /// small BA graph, with cache repeats: per-job fixed costs dominate.
    MixedShort,
}

/// The graph a workload serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphKind {
    /// G_AB (paper §6.1): BA halves of 500k vertices with average
    /// degrees 2 and 10, joined by one edge.
    Gab,
    /// BA(50k, 4).
    Ba50k,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::GabShort, Workload::MixedShort];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::GabShort => "gab_short",
            Workload::MixedShort => "mixed_short",
        }
    }

    pub fn graph(self) -> GraphKind {
        match self {
            Workload::GabShort => GraphKind::Gab,
            Workload::MixedShort => GraphKind::Ba50k,
        }
    }

    /// Set-ups per run; `setup_s` is their median.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::GabShort => 3,
            Workload::MixedShort => 15,
        }
    }
}

/// One job per spec kind, run before timing starts.
pub fn warmup_jobs(seed: u64) -> Vec<Job> {
    let seed = |i: u64| job_seed(&[seed, WARMUP_TAG, i]);
    mixed_pairs()
        .into_iter()
        .zip(0u64..)
        .map(|((sampler, estimator), i)| pair_job(sampler, estimator, 2_000.0, seed(i)))
        .collect()
}

/// Non-cached `avg_degree` jobs each client must finish before the timed
/// phase may end. `est_nrmse` is taken over exactly these jobs, so at a
/// fixed seed it repeats bit for bit whatever the host's speed, and the
/// run always holds enough latency samples for p90.
pub const NRMSE_QUOTA: usize = 3_000;

/// Non-cached jobs of the traced phase replayed under library spans.
pub const REPLAY_JOBS: usize = 90;

/// Every `VERIFY_EVERY`-th job of a client is recomputed with the library
/// after the run and must match the served bits.
pub const VERIFY_EVERY: u64 = 32;

/// Share of mixed submits that repeat an earlier job of the same client.
pub const REPEAT_SHARE: f64 = 0.25;

/// Repeats pick among this many of the client's most recent finished
/// cold jobs, which the result cache is far too large to have evicted.
pub const REPEAT_WINDOW: usize = 16;

const WARMUP_TAG: u64 = 0x7761_726d;
const JOB_TAG: u64 = 0x006a_6f62;

/// SplitMix64 finaliser folded over `parts`: the one seed-derivation
/// function of the benchmark.
pub fn mix(parts: &[u64]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64;
    for &p in parts {
        let mut z = h ^ p.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h = z ^ (z >> 31);
    }
    h
}

/// A job seed: [`mix`] cut to 53 bits, which JSON numbers carry exactly.
fn job_seed(parts: &[u64]) -> u64 {
    mix(parts) >> 11
}

impl GraphKind {
    /// The generator seed of the dataset.
    pub fn seed(self) -> u64 {
        match self {
            GraphKind::Gab => 0x0067_6162,
            GraphKind::Ba50k => 0x0062_6135_306b,
        }
    }
}

/// One job as a client submits it.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    pub sampler: &'static str,
    /// Walkers, for `fs` and `multiple`.
    pub m: usize,
    /// Jump weight, for `rwj`.
    pub alpha: f64,
    pub budget: f64,
    pub estimator: &'static str,
    pub seed: u64,
}

impl Job {
    /// The `POST /v1/jobs` body.
    pub fn body(&self, store: &str) -> String {
        let mut body = format!(
            "{{\"store\":\"{store}\",\"sampler\":\"{}\",\"estimator\":\"{}\",\"budget\":{},\"seed\":{}",
            self.sampler, self.estimator, self.budget, self.seed
        );
        match self.sampler {
            "fs" | "multiple" => body.push_str(&format!(",\"m\":{}", self.m)),
            "rwj" => body.push_str(&format!(",\"alpha\":{}", self.alpha)),
            _ => {}
        }
        body.push('}');
        body
    }

    pub fn sampler_spec(&self) -> SamplerSpec {
        SamplerSpec::parse(self.sampler, self.m, self.alpha).expect("benchmark jobs are valid")
    }

    pub fn estimator_spec(&self) -> EstimatorSpec {
        EstimatorSpec::parse(self.estimator).expect("benchmark jobs are valid")
    }

    pub fn is_fs(&self) -> bool {
        self.sampler == "fs"
    }

    pub fn is_avg_degree(&self) -> bool {
        self.estimator == "avg_degree"
    }
}

fn pair_job(sampler: &'static str, estimator: &'static str, budget: f64, seed: u64) -> Job {
    Job {
        sampler,
        m: 16,
        alpha: 1.0,
        budget,
        estimator,
        seed,
    }
}

/// Every (sampler, estimator) pair the server accepts: the four edge
/// samplers with all six estimators, MHRW and RWJ with the three
/// vertex-sample estimators.
pub fn mixed_pairs() -> Vec<(&'static str, &'static str)> {
    const EDGE: [&str; 6] = [
        "avg_degree",
        "degree_dist",
        "ccdf",
        "assortativity",
        "clustering",
        "pop_size",
    ];
    let mut pairs = Vec::new();
    for sampler in ["fs", "single", "multiple", "nbrw"] {
        pairs.extend(EDGE.iter().map(|&e| (sampler, e)));
    }
    for sampler in ["mhrw", "rwj"] {
        pairs.extend(EDGE[..3].iter().map(|&e| (sampler, e)));
    }
    pairs
}

/// A job of a client's stream, with its position.
#[derive(Clone, Debug, PartialEq)]
pub struct Planned {
    pub idx: u64,
    pub job: Job,
    /// Index of the earlier job of the same client this one repeats.
    pub repeat_of: Option<u64>,
}

/// One client's deterministic job stream. Job `idx` depends only on
/// (seed, client, idx) and on which of the client's own jobs
/// finished before it, so a closed-loop client replays it exactly.
pub struct ClientStream {
    seed: u64,
    client: u64,
    next_idx: u64,
    /// The client's most recent finished cold jobs, oldest first.
    finished: VecDeque<(u64, Job)>,
}

impl ClientStream {
    pub fn new(seed: u64, client: u64) -> ClientStream {
        ClientStream {
            seed,
            client,
            next_idx: 0,
            finished: VecDeque::with_capacity(REPEAT_WINDOW),
        }
    }

    pub fn next_job(&mut self) -> Planned {
        let idx = self.next_idx;
        self.next_idx += 1;
        let seed = job_seed(&[self.seed, JOB_TAG, self.client, idx]);
        let mut rng = SmallRng::seed_from_u64(seed);
        if !self.finished.is_empty() && rng.gen_range(0.0..1.0) < REPEAT_SHARE {
            let (twin, job) = &self.finished[rng.gen_range(0..self.finished.len())];
            return Planned {
                idx,
                job: job.clone(),
                repeat_of: Some(*twin),
            };
        }
        let pairs = mixed_pairs();
        let (sampler, estimator) = pairs[rng.gen_range(0..pairs.len())];
        let budget = (500.0 * 10f64.powf(rng.gen_range(0.0..1.0))).round();
        Planned {
            idx,
            job: pair_job(sampler, estimator, budget, seed),
            repeat_of: None,
        }
    }

    /// Records that a cold (non-repeat) job finished, making it a
    /// candidate for later repeats.
    pub fn finished(&mut self, planned: &Planned) {
        if planned.repeat_of.is_some() {
            return;
        }
        if self.finished.len() == REPEAT_WINDOW {
            self.finished.pop_front();
        }
        self.finished.push_back((planned.idx, planned.job.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, client: u64, n: usize) -> Vec<Planned> {
        let mut s = ClientStream::new(seed, client);
        (0..n)
            .map(|_| {
                let p = s.next_job();
                s.finished(&p);
                p
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_job_list() {
        assert_eq!(stream(7, 0, 300), stream(7, 0, 300));
        assert_eq!(warmup_jobs(7), warmup_jobs(7));
    }

    #[test]
    fn different_seed_or_client_gives_different_job_list() {
        assert_ne!(stream(7, 0, 50), stream(8, 0, 50));
        assert_ne!(stream(7, 0, 50), stream(7, 1, 50));
    }

    #[test]
    fn repeats_reference_only_finished_jobs_of_the_same_client() {
        let mut s = ClientStream::new(11, 1);
        let mut done: Vec<Planned> = Vec::new();
        let mut repeats = 0;
        for i in 0..2_000 {
            let p = s.next_job();
            if let Some(twin) = p.repeat_of {
                repeats += 1;
                let cold = done
                    .iter()
                    .find(|d| d.idx == twin)
                    .expect("a repeat names a finished job of this client");
                assert!(cold.repeat_of.is_none(), "twins are cold jobs");
                assert_eq!(cold.job, p.job);
            }
            // Every third job "fails" and never becomes a repeat target.
            if i % 3 != 2 {
                s.finished(&p);
                done.push(p);
            }
        }
        let share = repeats as f64 / 2_000.0;
        assert!((share - REPEAT_SHARE).abs() < 0.04, "repeat share {share}");
    }

    #[test]
    fn fresh_seeds_are_unique_and_pairs_cover_all_thirty() {
        let jobs = stream(5, 0, 3_000);
        let mut seeds: Vec<u64> = jobs
            .iter()
            .filter(|p| p.repeat_of.is_none())
            .map(|p| p.job.seed)
            .collect();
        let cold = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), cold);
        let mut seen: Vec<(&str, &str)> = jobs
            .iter()
            .map(|p| (p.job.sampler, p.job.estimator))
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 30);
        assert_eq!(mixed_pairs().len(), 30);
        for p in &jobs {
            assert!((500.0..=5_000.0).contains(&p.job.budget));
            // Every job is one the server accepts.
            frontier_sampling::runner::JobEstimator::new(
                p.job.estimator_spec(),
                &p.job.sampler_spec(),
            )
            .expect("accepted pair");
        }
    }
}
