//! Job lifecycle: a bounded worker pool executing sampling jobs over
//! shared mmap stores, with incremental progress, partial estimates,
//! cancellation, and clean shutdown.
//!
//! ## Lifecycle
//!
//! `submit` checks the spec (`validate`: budget, walker limit,
//! sampler/estimator pairing) and the store name, both failing
//! fast with a client error, resolves the store to an `Arc<MmapGraph>`
//! handle (held for the job's whole life, so registry eviction can
//! never unmap it mid-run), and enqueues. `workers` threads pop jobs
//! and drive a [`frontier_sampling::runner::ChunkedRunner`] chunk by
//! chunk; after every chunk the shared state gets a fresh progress
//! figure and estimator snapshot (what `GET /v1/jobs/{id}` serves as
//! *partial* results), and the cancel/shutdown flags are honoured.
//! Every job takes this one path, so every job can be cancelled at a
//! chunk boundary and checkpointed to the journal. A job replayed from
//! the journal passes the same `validate` before it runs.
//!
//! A job is built in one place (`JobShared::new`) and, except for a
//! cache hit, which is born `done`, ends in one place
//! (`JobManager::finish`): the phase is set under the state lock, the
//! terminal record journaled, the transition counted and traced, then
//! published. Estimate snapshots are shared (`Arc`) between the job,
//! its views, the result cache and the journal writer, never copied.
//!
//! ## Determinism
//!
//! Jobs inherit the runner's contract: seed `s` ⇒ bit-identical to the
//! library call with seed `s`, so a job's result is a pure function of
//! `(store content, spec, seed)`, not of the server's thread schedule.
//! Pinned end-to-end by the `determinism` integration test.

use crate::cache::{CacheKey, CachedResult, ResultCache};
use crate::journal::{JobCheckpoint, JobTerminal, Journal, Replay};
use crate::obs::ServeObs;
use crate::registry::{RegistryError, StoreRegistry};
use frontier_sampling::runner::{
    ChunkStatus, ChunkedRunner, EstimateSnapshot, EstimatorSpec, JobEstimator, SamplerSpec,
};
use frontier_sampling::CostModel;
use fs_graph::{CountedAccess, ShardedCounter};
use fs_obs::FieldValue;
use fs_store::MmapGraph;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// A validated job specification.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Store file name under the registry root.
    pub store: String,
    /// Sampling method.
    pub sampler: SamplerSpec,
    /// Budget `B` in query units.
    pub budget: f64,
    /// RNG seed — fixes the result bit-for-bit.
    pub seed: u64,
    /// Which estimate to report.
    pub estimator: EstimatorSpec,
}

/// Where a job is in its life.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum JobPhase {
    /// Waiting for a worker.
    Queued,
    /// Executing.
    Running,
    /// Completed; the estimate is final.
    Done,
    /// Aborted by error.
    Failed,
    /// Cancelled by the client or by server shutdown.
    Cancelled,
}

impl JobPhase {
    /// Wire name.
    pub fn name(&self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Failed => "failed",
            JobPhase::Cancelled => "cancelled",
        }
    }

    /// Whether the job has reached a terminal phase.
    pub fn terminal(&self) -> bool {
        matches!(
            self,
            JobPhase::Done | JobPhase::Failed | JobPhase::Cancelled
        )
    }
}

/// Per-job execution profile, updated at every chunk boundary —
/// pure observation of work already done (its fields never feed back
/// into sampling, so the estimate stays bit-identical with profiling
/// armed). Derived rates (`steps/s`, `queries/step`) are computed at
/// serialization time from these raw totals.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct JobProfile {
    /// Runner chunks executed.
    pub chunks: u64,
    /// Wall time spent inside `run_chunk` (µs) — sampling time only,
    /// excluding queue wait and snapshot/journal overhead.
    pub busy_us: u64,
    /// Charged access-layer queries issued (the paper's budget axis).
    pub queries: u64,
    /// Budget consumed so far.
    pub budget_spent: f64,
    /// The job's total budget `B`.
    pub budget_total: f64,
}

/// Mutable job state behind the shared lock.
struct JobState {
    phase: JobPhase,
    error: Option<String>,
    steps_done: u64,
    progress: f64,
    /// Shared with views, the result cache and the journal writer, so
    /// none of them copies the estimate vector.
    snapshot: Option<Arc<EstimateSnapshot>>,
    profile: JobProfile,
}

struct JobShared {
    spec: JobSpec,
    store_digest: u64,
    /// The job was answered from the result cache (no sampling ran).
    cached: bool,
    state: Mutex<JobState>,
    cancel: AtomicBool,
    /// A journal checkpoint to resume from (crash recovery). Taken by
    /// the worker when the job starts; `None` for fresh jobs.
    resume: Mutex<Option<JobCheckpoint>>,
    /// Bumped after every observable state change; stream subscribers
    /// use it as a cheap "anything new since generation g?" cursor.
    /// Starts at 1 so a fresh subscriber (cursor 0) always sees the
    /// initial state.
    generation: AtomicU64,
}

/// How a job enters the job table.
enum Entry {
    /// Waiting for a worker, `steps_done` attempts already behind it
    /// (a journal checkpoint's), resuming from `resume` when given.
    Queued {
        steps_done: u64,
        resume: Option<JobCheckpoint>,
    },
    /// Born finished: a result-cache hit (`cached`) or an outcome
    /// replayed from the journal.
    Finished { outcome: JobTerminal, cached: bool },
}

impl JobShared {
    /// Builds a job: the only place one is built.
    fn new(spec: JobSpec, store_digest: u64, entry: Entry) -> Arc<JobShared> {
        let (phase, error, steps_done, snapshot, cached, resume) = match entry {
            Entry::Queued { steps_done, resume } => {
                (JobPhase::Queued, None, steps_done, None, false, resume)
            }
            Entry::Finished { outcome: o, cached } => {
                (o.phase, o.error, o.steps_done, o.snapshot, cached, None)
            }
        };
        Arc::new(JobShared {
            spec,
            store_digest,
            cached,
            state: Mutex::new(JobState {
                phase,
                error,
                steps_done,
                progress: if phase == JobPhase::Done { 1.0 } else { 0.0 },
                snapshot,
                profile: JobProfile::default(),
            }),
            cancel: AtomicBool::new(false),
            resume: Mutex::new(resume),
            generation: AtomicU64::new(1),
        })
    }
}

/// A read-only snapshot of one job, for serialization.
#[derive(Clone, Debug)]
pub struct JobView {
    /// Job id.
    pub id: u64,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Content digest of the store the job runs over.
    pub store_digest: u64,
    /// Current phase.
    pub phase: JobPhase,
    /// Failure reason, when `phase == Failed`.
    pub error: Option<String>,
    /// Walk attempts completed.
    pub steps_done: u64,
    /// Budget fraction consumed, `[0, 1]`.
    pub progress: f64,
    /// Latest estimate — partial while running, final when done.
    /// Shared with the job, not copied.
    pub estimate: Option<Arc<EstimateSnapshot>>,
    /// The result came from the deterministic result cache (the job
    /// completed at submit without sampling).
    pub cached: bool,
    /// Execution profile at the last chunk boundary (zeroed for
    /// cached/replayed jobs, which never ran here).
    pub profile: JobProfile,
    /// State-change counter at the time of this view. Monotone per
    /// job; a view with a larger generation is never older.
    pub generation: u64,
}

/// Rejection reasons for `submit`.
#[derive(Debug)]
pub enum SubmitError {
    /// Spec invalid (bad sampler/estimator combination, bad budget,
    /// too many walkers).
    Invalid(String),
    /// Store resolution failed.
    Store(RegistryError),
    /// The queue is full — back-pressure, try again later.
    QueueFull,
    /// The manager is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Invalid(m) => write!(f, "{m}"),
            SubmitError::Store(e) => write!(f, "{e}"),
            SubmitError::QueueFull => write!(f, "job queue is full"),
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

/// What a cancellation request found. The HTTP layer maps these to the
/// documented lifecycle status codes (see `DELETE /v1/jobs/{id}` in
/// DESIGN.md): `NotFound` → 404, `Terminal` → 409, `Cancelled` → 200.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CancelOutcome {
    /// No job with that id (never existed, or pruned by retention).
    NotFound,
    /// The job already finished as `Done` or `Failed` — there is
    /// nothing left to cancel, and the result stands.
    Terminal(JobPhase),
    /// The job is now (or already was) cancelled. Double-cancel is
    /// idempotent and lands here.
    Cancelled,
}

type QueueItem = (u64, Arc<JobShared>, Arc<MmapGraph>);

struct ManagerInner {
    queue: VecDeque<QueueItem>,
    shutdown: bool,
}

/// The bounded job worker pool. See the [module docs](self).
pub struct JobManager {
    registry: Arc<StoreRegistry>,
    cache: Arc<ResultCache>,
    /// Crash-safe job journal (`--journal-dir`); `None` runs
    /// journal-free with identical behaviour minus durability.
    journal: Option<Arc<Journal>>,
    jobs: Mutex<HashMap<u64, Arc<JobShared>>>,
    inner: Mutex<ManagerInner>,
    wake: Condvar,
    next_id: AtomicU64,
    max_queue: usize,
    /// Attempts per chunk between snapshot/cancel checks.
    chunk: usize,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Called (outside all locks) after every observable job-state
    /// change — the reactor hangs its wake pipe here so streaming
    /// connections learn about fresh snapshots without polling.
    update_hook: OnceLock<Box<dyn Fn() + Send + Sync>>,
    /// Job lifecycle metrics + wide-event tracing. Installed by the
    /// server right after `start` (same once-only idiom as
    /// `update_hook`); absent in bare test harnesses, in which case
    /// every instrumentation site is a no-op.
    obs: OnceLock<Arc<ServeObs>>,
}

/// Completed jobs retained before the oldest are pruned.
const MAX_RETAINED_JOBS: usize = 10_000;

/// Extra headroom before a prune pass actually runs (amortisation).
const RETENTION_SLACK: usize = 1_024;

/// Upper bound on `m` for FS/MultipleRW jobs: walker state is `O(m)`,
/// and `m` beyond the budget buys nothing (each start costs budget).
const MAX_WALKERS: usize = 1_000_000;

/// Jobs write a journal checkpoint every this many chunks
/// (~32k attempts at the default chunk size): frequent enough that a
/// crash re-does seconds of work, rare enough that serializing walker
/// state never shows up in the profile.
const JOURNAL_CHECKPOINT_CHUNKS: u64 = 4;

impl JobManager {
    /// Starts `workers` job threads over `registry`, with completed
    /// results published to (and submits answered from) `cache`.
    /// `max_queue` bounds queued-but-not-running jobs (back-pressure
    /// surface). With a `journal`, every submit/checkpoint/terminal is
    /// recorded for crash recovery (see [`crate::journal`]).
    pub fn start(
        registry: Arc<StoreRegistry>,
        cache: Arc<ResultCache>,
        workers: usize,
        max_queue: usize,
        journal: Option<Arc<Journal>>,
    ) -> Arc<JobManager> {
        assert!(workers >= 1, "need at least one job worker");
        let manager = Arc::new(JobManager {
            registry,
            cache,
            journal,
            jobs: Mutex::new(HashMap::new()),
            inner: Mutex::new(ManagerInner {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
            next_id: AtomicU64::new(1),
            max_queue,
            chunk: 8_192,
            workers: Mutex::new(Vec::new()),
            update_hook: OnceLock::new(),
            obs: OnceLock::new(),
        });
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let m = Arc::clone(&manager);
            handles.push(std::thread::spawn(move || m.worker_loop()));
        }
        *manager.workers.lock().expect("workers poisoned") = handles;
        manager
    }

    /// Installs the state-change hook (at most once — later calls are
    /// ignored). The reactor registers its wake pipe here.
    pub fn set_update_hook(&self, hook: Box<dyn Fn() + Send + Sync>) {
        let _ = self.update_hook.set(hook);
    }

    /// Installs the observability bundle (at most once — later calls
    /// are ignored). The server wires this before restoring the
    /// journal, so replay counters and events land in the registry.
    pub fn set_obs(&self, obs: Arc<ServeObs>) {
        let _ = self.obs.set(obs);
    }

    fn obs(&self) -> Option<&Arc<ServeObs>> {
        self.obs.get()
    }

    /// Counts an accepted submit and traces it as a wide event.
    fn observe_submitted(&self, id: u64, spec: &JobSpec, cached: bool) {
        let Some(obs) = self.obs() else { return };
        obs.jobs_submitted.incr();
        obs.event(
            "job.submitted",
            Some(id),
            &[
                ("store", FieldValue::from(spec.store.as_str())),
                ("sampler", FieldValue::from(spec.sampler.label())),
                ("budget", FieldValue::from(spec.budget)),
                ("seed", FieldValue::from(spec.seed)),
                ("cached", FieldValue::from(cached)),
            ],
        );
    }

    /// Counts a terminal transition and traces it as a wide event
    /// carrying the job's steps, and a failure's reason.
    fn observe_terminal(&self, id: u64, phase: JobPhase, steps_done: u64, reason: Option<&str>) {
        let Some(obs) = self.obs() else { return };
        let (counter, kind) = match phase {
            JobPhase::Done => (&obs.jobs_done, "job.done"),
            JobPhase::Failed => (&obs.jobs_failed, "job.failed"),
            JobPhase::Cancelled => (&obs.jobs_cancelled, "job.cancelled"),
            JobPhase::Queued | JobPhase::Running => return,
        };
        counter.incr();
        let steps = ("steps", FieldValue::from(steps_done));
        match reason {
            Some(reason) => obs.event(
                kind,
                Some(id),
                &[steps, ("reason", FieldValue::from(reason))],
            ),
            None => obs.event(kind, Some(id), &[steps]),
        }
    }

    /// Publishes a state change: bump the job's generation, then fire
    /// the hook. Callers must have dropped the job's state lock — the
    /// hook runs arbitrary reactor-side code.
    fn touch(&self, shared: &JobShared) {
        shared.generation.fetch_add(1, Ordering::Release);
        if let Some(hook) = self.update_hook.get() {
            hook();
        }
    }

    /// Validates and enqueues a job; returns its id.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        validate(&spec).map_err(SubmitError::Invalid)?;

        // Result-cache fast path: the digest-only probe is O(1) I/O
        // (no store open), and the result is a pure function of
        // (digest, spec, seed) — a hit completes the job at submit,
        // byte-identical to a fresh run.
        let probe_digest = self
            .registry
            .digest(&spec.store)
            .map_err(SubmitError::Store)?;
        if let Some(hit) = self.cache.get(&CacheKey::new(probe_digest, &spec)) {
            if self.inner.lock().expect("manager poisoned").shutdown {
                return Err(SubmitError::ShuttingDown);
            }
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            // A cache hit is born terminal: journal submit + terminal
            // together so a restart re-registers the finished job.
            if let Some(journal) = &self.journal {
                journal.submit(id, &spec, probe_digest);
                journal.terminal(
                    id,
                    JobPhase::Done,
                    None,
                    hit.steps_done,
                    Some(&hit.snapshot),
                );
            }
            self.observe_submitted(id, &spec, true);
            let outcome = JobTerminal {
                phase: JobPhase::Done,
                error: None,
                steps_done: hit.steps_done,
                snapshot: Some(hit.snapshot),
            };
            let shared = JobShared::new(
                spec,
                probe_digest,
                Entry::Finished {
                    outcome,
                    cached: true,
                },
            );
            self.insert_job(id, Arc::clone(&shared));
            self.observe_terminal(id, JobPhase::Done, hit.steps_done, None);
            self.touch(&shared);
            return Ok(id);
        }

        let (digest, graph) = self
            .registry
            .get_with_digest(&spec.store, probe_digest)
            .map_err(SubmitError::Store)?;

        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let shared = JobShared::new(
            spec,
            digest,
            Entry::Queued {
                steps_done: 0,
                resume: None,
            },
        );
        {
            let mut inner = self.inner.lock().expect("manager poisoned");
            if inner.shutdown {
                return Err(SubmitError::ShuttingDown);
            }
            if inner.queue.len() >= self.max_queue {
                return Err(SubmitError::QueueFull);
            }
            inner.queue.push_back((id, Arc::clone(&shared), graph));
        }
        // Journal only *accepted* submits (a 429/503 rejection must not
        // resurrect on replay). Worker records racing ahead of this
        // append are harmless: replay aggregates per id across the
        // whole file, so record order never matters.
        if let Some(journal) = &self.journal {
            journal.submit(id, &shared.spec, digest);
        }
        self.observe_submitted(id, &shared.spec, false);
        self.insert_job(id, shared);
        self.wake.notify_one();
        Ok(id)
    }

    /// Re-registers everything a journal replay found, then resumes the
    /// incomplete jobs. Called once at startup, before the listener
    /// starts answering (the server serves 503 while this runs).
    ///
    /// * Jobs with a terminal record reappear in `GET /v1/jobs/{id}`
    ///   with their journaled outcome; a `Done` estimate also warms the
    ///   result cache, so identical re-submits answer from it.
    /// * Incomplete jobs re-pin their store **by content digest** — if
    ///   the file changed or vanished since the crash, the job fails
    ///   loudly instead of silently computing over different bits —
    ///   and re-enqueue (bypassing `max_queue`: these jobs were already
    ///   accepted once, back-pressure does not apply twice), carrying
    ///   their last checkpoint when one survived.
    ///
    /// Every replayed job enters exactly one durability counter:
    /// `jobs_recovered` when its terminal record replays, `jobs_resumed`
    /// when it is incomplete (even if it then fails here). So
    /// `submitted + recovered + resumed = done + failed + cancelled +
    /// in_flight` holds after any replay.
    pub fn restore(&self, replay: Replay) {
        // Ids handed out after restart must never collide with
        // journaled ones, even if replay itself then fails a job.
        self.next_id.fetch_max(replay.next_id, Ordering::Relaxed);
        let stats = self.journal.as_ref().map(|j| Arc::clone(j.stats()));
        for job in replay.jobs {
            let id = job.id;
            if let Some(outcome) = job.terminal {
                // Finished before the crash: re-register the outcome.
                let (phase, steps_done) = (outcome.phase, outcome.steps_done);
                // A done MultipleRW record whose submit carried a thread
                // count may come from the retired per-walker pool
                // stream, not the sequential stream a submit of the same
                // spec now computes, so it stays out of the cache (a
                // resubmit recomputes).
                let retired_stream =
                    job.pooled && matches!(job.spec.sampler, SamplerSpec::Multiple { .. });
                if let (JobPhase::Done, false, Some(snapshot)) =
                    (phase, retired_stream, &outcome.snapshot)
                {
                    self.cache.insert(
                        CacheKey::new(job.digest, &job.spec),
                        CachedResult {
                            snapshot: Arc::clone(snapshot),
                            steps_done,
                        },
                    );
                }
                let shared = JobShared::new(
                    job.spec,
                    job.digest,
                    Entry::Finished {
                        outcome,
                        cached: false,
                    },
                );
                self.insert_job(id, Arc::clone(&shared));
                if let Some(stats) = &stats {
                    stats.jobs_recovered.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(obs) = self.obs() {
                    match phase {
                        JobPhase::Done => obs.jobs_done.incr(),
                        JobPhase::Failed => obs.jobs_failed.incr(),
                        JobPhase::Cancelled => obs.jobs_cancelled.incr(),
                        JobPhase::Queued | JobPhase::Running => {}
                    }
                    obs.event(
                        "job.recovered",
                        Some(id),
                        &[
                            ("phase", FieldValue::from(phase.name())),
                            ("steps", FieldValue::from(steps_done)),
                        ],
                    );
                }
                self.touch(&shared);
                continue;
            }
            // Incomplete: re-pin the store and re-run.
            let pinned = match self.registry.get(&job.spec.store) {
                Ok((digest, graph)) if digest == job.digest => Ok(graph),
                Ok((digest, _)) => Err(format!(
                    "store {} changed since the crash (digest {digest:016x}, \
                     job ran over {:016x}); refusing to resume over different bits",
                    job.spec.store, job.digest
                )),
                Err(e) => Err(format!(
                    "store {} unavailable after restart: {e}",
                    job.spec.store
                )),
            };
            let steps_done = job.checkpoint.as_ref().map_or(0, |ck| ck.steps_done);
            let resume = if pinned.is_ok() { job.checkpoint } else { None };
            let entry = Entry::Queued { steps_done, resume };
            let shared = JobShared::new(job.spec, job.digest, entry);
            self.insert_job(id, Arc::clone(&shared));
            if let Some(stats) = &stats {
                stats.jobs_resumed.fetch_add(1, Ordering::Relaxed);
            }
            let graph = match pinned {
                Ok(graph) => graph,
                // Journaled, so the next restart reports the failure
                // instead of retrying a store that is gone for good.
                Err(error) => {
                    self.finish(id, &shared, JobPhase::Failed, Some(error));
                    continue;
                }
            };
            self.inner
                .lock()
                .expect("manager poisoned")
                .queue
                .push_back((id, Arc::clone(&shared), graph));
            if let Some(obs) = self.obs() {
                obs.event(
                    "job.resumed",
                    Some(id),
                    &[("steps", FieldValue::from(steps_done))],
                );
            }
            self.wake.notify_one();
            self.touch(&shared);
        }
    }

    /// Registers a job in the id map and prunes retention: drop the
    /// oldest *terminal* jobs beyond the cap. The slack amortizes the
    /// O(len) scan (which touches every job's state lock) over many
    /// submits instead of paying it on each one once the cap is
    /// reached.
    fn insert_job(&self, id: u64, shared: Arc<JobShared>) {
        let mut jobs = self.jobs.lock().expect("jobs poisoned");
        jobs.insert(id, shared);
        if jobs.len() > MAX_RETAINED_JOBS + RETENTION_SLACK {
            let mut terminal: Vec<u64> = jobs
                .iter()
                .filter(|(_, j)| j.state.lock().expect("job poisoned").phase.terminal())
                .map(|(&id, _)| id)
                .collect();
            terminal.sort_unstable();
            let excess = jobs.len().saturating_sub(MAX_RETAINED_JOBS);
            for id in terminal.into_iter().take(excess) {
                jobs.remove(&id);
            }
        }
    }

    fn shared(&self, id: u64) -> Option<Arc<JobShared>> {
        self.jobs.lock().expect("jobs poisoned").get(&id).cloned()
    }

    /// Snapshot of one job.
    pub fn view(&self, id: u64) -> Option<JobView> {
        let shared = self.shared(id)?;
        // Generation before state: a racing update between the two
        // reads can only make the view *newer* than its generation
        // claims, so a subscriber that stores this generation as its
        // cursor never skips a change.
        let generation = shared.generation.load(Ordering::Acquire);
        let state = shared.state.lock().expect("job poisoned");
        Some(JobView {
            id,
            spec: shared.spec.clone(),
            store_digest: shared.store_digest,
            phase: state.phase,
            error: state.error.clone(),
            steps_done: state.steps_done,
            progress: state.progress,
            estimate: state.snapshot.clone(),
            cached: shared.cached,
            profile: state.profile,
            generation,
        })
    }

    /// A job's current state-change counter, without cloning the view.
    pub fn generation(&self, id: u64) -> Option<u64> {
        let jobs = self.jobs.lock().expect("jobs poisoned");
        Some(jobs.get(&id)?.generation.load(Ordering::Acquire))
    }

    /// A job's current phase, without cloning the view.
    pub fn phase(&self, id: u64) -> Option<JobPhase> {
        let shared = self.shared(id)?;
        let phase = shared.state.lock().expect("job poisoned").phase;
        Some(phase)
    }

    /// Requests cancellation. Queued jobs flip to `Cancelled`
    /// immediately; running jobs stop at their next chunk boundary;
    /// terminal jobs are reported as such (`Done`/`Failed` cannot be
    /// cancelled; repeated cancels are idempotent). See
    /// [`CancelOutcome`] for the HTTP mapping.
    pub fn cancel(&self, id: u64) -> CancelOutcome {
        let Some(shared) = self.shared(id) else {
            return CancelOutcome::NotFound;
        };
        // Refuse to clobber a finished result: only non-terminal jobs
        // (or already-cancelled ones, idempotently) accept the flag.
        {
            let state = shared.state.lock().expect("job poisoned");
            match state.phase {
                JobPhase::Done | JobPhase::Failed => {
                    return CancelOutcome::Terminal(state.phase);
                }
                JobPhase::Cancelled => return CancelOutcome::Cancelled,
                JobPhase::Queued | JobPhase::Running => {}
            }
        }
        shared.cancel.store(true, Ordering::Relaxed);
        // If still queued, remove from the queue and finalise here.
        let mut inner = self.inner.lock().expect("manager poisoned");
        if let Some(at) = inner.queue.iter().position(|(qid, _, _)| *qid == id) {
            inner.queue.remove(at);
            drop(inner);
            self.finish(id, &shared, JobPhase::Cancelled, None);
            return CancelOutcome::Cancelled;
        }
        drop(inner);
        // Running (the worker flips the phase at its next chunk) or
        // already terminal from a race — either way the cancel request
        // has done all it can.
        let phase = shared.state.lock().expect("job poisoned").phase;
        self.touch(&shared);
        match phase {
            JobPhase::Done | JobPhase::Failed => CancelOutcome::Terminal(phase),
            _ => CancelOutcome::Cancelled,
        }
    }

    /// Jobs currently queued or running (the in-flight count the load
    /// generator reports against).
    pub fn in_flight(&self) -> usize {
        let jobs = self.jobs.lock().expect("jobs poisoned");
        jobs.values()
            .filter(|j| !j.state.lock().expect("job poisoned").phase.terminal())
            .count()
    }

    /// Clean shutdown: stop accepting, cancel queued jobs, signal
    /// running jobs to stop at their next chunk, join every worker.
    pub fn shutdown(&self) {
        let drained: Vec<QueueItem> = {
            let mut inner = self.inner.lock().expect("manager poisoned");
            inner.shutdown = true;
            inner.queue.drain(..).collect()
        };
        for (id, shared, _) in drained {
            shared.cancel.store(true, Ordering::Relaxed);
            self.finish(id, &shared, JobPhase::Cancelled, None);
        }
        // Running jobs observe the cancel flag at the next chunk.
        {
            let jobs = self.jobs.lock().expect("jobs poisoned");
            for shared in jobs.values() {
                shared.cancel.store(true, Ordering::Relaxed);
            }
        }
        self.wake.notify_all();
        let handles = std::mem::take(&mut *self.workers.lock().expect("workers poisoned"));
        for h in handles {
            let _ = h.join();
        }
    }

    fn worker_loop(&self) {
        loop {
            let item = {
                let mut inner = self.inner.lock().expect("manager poisoned");
                loop {
                    if let Some(item) = inner.queue.pop_front() {
                        break Some(item);
                    }
                    if inner.shutdown {
                        break None;
                    }
                    inner = self.wake.wait(inner).expect("manager poisoned");
                }
            };
            let Some((id, shared, graph)) = item else {
                return;
            };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.run_job(id, &shared, &graph)
            }));
            if let Err(panic) = outcome {
                let message = panic
                    .downcast_ref::<String>()
                    .map(|s| s.as_str())
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("job panicked");
                let error = format!("internal error: {message}");
                self.finish(id, &shared, JobPhase::Failed, Some(error));
            }
        }
    }

    fn run_job(&self, id: u64, shared: &JobShared, graph: &MmapGraph) {
        let cancelled = {
            let mut state = shared.state.lock().expect("job poisoned");
            let cancelled = shared.cancel.load(Ordering::Relaxed);
            if !cancelled {
                state.phase = JobPhase::Running;
            }
            cancelled
        };
        if cancelled {
            return self.finish(id, shared, JobPhase::Cancelled, None);
        }
        if let Some(obs) = self.obs() {
            obs.event("job.running", Some(id), &[]);
        }
        self.touch(shared);
        // Journal replay re-creates jobs from disk, and a journal
        // written by another build (or edited by hand) can carry a spec
        // submit refuses: it fails with submit's message, journaled,
        // instead of running (or unwinding the worker).
        let mut estimator = match validate(&shared.spec) {
            Ok(estimator) => estimator,
            Err(why) => return self.finish(id, shared, JobPhase::Failed, Some(why)),
        };
        match self.run_chunks(id, shared, graph, &mut estimator) {
            Some(result) => {
                // Publish to the result cache: the run is complete and
                // the result is a pure function of (digest, spec,
                // seed), so future identical submits answer from here
                // byte-for-byte. It goes in before the job shows as
                // done, so a resubmit sent on reading the terminal line
                // cannot miss it.
                self.cache
                    .insert(CacheKey::new(shared.store_digest, &shared.spec), result);
                self.finish(id, shared, JobPhase::Done, None);
            }
            None => {
                // Chunks leave the snapshot of the estimator as it
                // stands; a job cancelled before its first chunk takes
                // one here.
                let mut state = shared.state.lock().expect("job poisoned");
                if state.snapshot.is_none() {
                    state.snapshot = Some(Arc::new(estimator.snapshot()));
                }
                drop(state);
                self.finish(id, shared, JobPhase::Cancelled, None);
            }
        }
    }

    /// Chunked execution. Returns `None` when cancelled; a finished
    /// run returns its result, the final snapshot and progress already
    /// in the job's state (its phase is the caller's to set).
    ///
    /// A job carrying a journal checkpoint restarts from it —
    /// bit-identical to never having paused (the runner's resume
    /// contract). A checkpoint that fails validation (corrupt blob,
    /// spec drift) is discarded and the job re-runs from scratch,
    /// which determinism makes bit-identical too: recovery never has
    /// a wrong answer, only a slower one.
    fn run_chunks(
        &self,
        id: u64,
        shared: &JobShared,
        graph: &MmapGraph,
        estimator: &mut JobEstimator,
    ) -> Option<CachedResult> {
        let spec = &shared.spec;
        // Charged-query tap: delegation is bit-identical (pinned in
        // fs-graph), so arming the counter cannot change the estimate.
        // On checkpoint resume the count restarts at zero — it profiles
        // queries *this process* issued, while `budget_spent` keeps the
        // job-lifetime figure.
        let query_counter = Arc::new(ShardedCounter::new());
        let access = CountedAccess::new(graph, Arc::clone(&query_counter));
        let checkpoint = shared.resume.lock().expect("job poisoned").take();
        let mut runner = None;
        if let Some(ck) = checkpoint {
            match (
                ChunkedRunner::resume(&spec.sampler, &access, &ck.runner),
                JobEstimator::resume(spec.estimator, &spec.sampler, &ck.estimator),
            ) {
                (Ok(r), Ok(e)) => {
                    if let Some(journal) = &self.journal {
                        journal
                            .stats()
                            .resumed_from_checkpoint
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    *estimator = e;
                    runner = Some(r);
                }
                (r, e) => {
                    // Runner and estimator state come from the same
                    // record; using half a checkpoint would desync the
                    // sample stream from the accumulators.
                    let cause = r
                        .err()
                        .map(|x| x.to_string())
                        .unwrap_or_else(|| e.err().map(|x| x.to_string()).unwrap_or_default());
                    eprintln!("job {id}: checkpoint rejected ({cause}); re-running from scratch");
                }
            }
        }
        let mut runner = runner.unwrap_or_else(|| {
            ChunkedRunner::new(
                &spec.sampler,
                &access,
                &CostModel::unit(),
                spec.budget,
                spec.seed,
            )
        });
        let mut chunks_since_checkpoint = 0u64;
        let mut busy_us = 0u64;
        let mut chunks = 0u64;
        let mut queries_reported = 0u64;
        loop {
            if shared.cancel.load(Ordering::Relaxed) {
                return None;
            }
            let chunk_start = Instant::now();
            let status = runner.run_chunk(self.chunk, |sample| estimator.observe(graph, sample));
            let chunk_us = chunk_start.elapsed().as_micros() as u64;
            busy_us += chunk_us;
            chunks += 1;
            let rp = runner.profile();
            if let Some(obs) = self.obs() {
                obs.job_chunks.incr();
                obs.chunk_latency_us.record(chunk_us);
                // Drain only this chunk's queries into the process-wide
                // counter, so the /metrics total conserves exactly.
                obs.access_queries.add(rp.queries_issued - queries_reported);
            }
            queries_reported = rp.queries_issued;
            let snapshot = Arc::new(estimator.snapshot());
            let mut state = shared.state.lock().expect("job poisoned");
            state.steps_done = runner.steps_done();
            state.progress = runner.progress();
            state.profile = JobProfile {
                chunks,
                busy_us,
                queries: rp.queries_issued,
                budget_spent: rp.budget_spent,
                budget_total: rp.budget_total,
            };
            state.snapshot = Some(Arc::clone(&snapshot));
            drop(state);
            if status == ChunkStatus::Finished {
                return Some(CachedResult {
                    snapshot,
                    steps_done: runner.steps_done(),
                });
            }
            if let Some(journal) = &self.journal {
                chunks_since_checkpoint += 1;
                if chunks_since_checkpoint >= JOURNAL_CHECKPOINT_CHUNKS {
                    chunks_since_checkpoint = 0;
                    journal.checkpoint(
                        id,
                        runner.steps_done(),
                        &runner.serialize(),
                        &estimator.serialize(),
                    );
                }
            }
            self.touch(shared);
        }
    }

    /// Ends a job; every terminal transition but a cache hit's goes
    /// through here. Sets `phase` (and a failure's `error`) under the
    /// state lock, journals the terminal record (with the estimate
    /// when `done`), counts and traces it, then publishes the change.
    fn finish(&self, id: u64, shared: &JobShared, phase: JobPhase, error: Option<String>) {
        let mut state = shared.state.lock().expect("job poisoned");
        state.phase = phase;
        state.error.clone_from(&error);
        let snapshot = if phase == JobPhase::Done {
            state.progress = 1.0;
            state.snapshot.clone()
        } else {
            None
        };
        let steps_done = state.steps_done;
        drop(state);
        if let Some(journal) = &self.journal {
            journal.terminal(id, phase, error.as_deref(), steps_done, snapshot.as_deref());
        }
        self.observe_terminal(id, phase, steps_done, error.as_deref());
        self.touch(shared);
    }
}

/// The checks a spec must pass to run, at submit and again when journal
/// replay resumes it: a finite budget ≥ 0, `m` within the server limit,
/// and a valid (estimator, sampler) pairing. Returns the job's estimator.
fn validate(spec: &JobSpec) -> Result<JobEstimator, String> {
    if !(spec.budget.is_finite() && spec.budget >= 0.0) {
        return Err(format!(
            "budget must be a finite non-negative number, got {}",
            spec.budget
        ));
    }
    // Untrusted `m` sizes walker-state allocations; a petabyte `Vec`
    // request would abort the process (allocation failure is not a
    // catchable panic), so bound it server-side.
    if let SamplerSpec::Frontier { m } | SamplerSpec::Multiple { m } = spec.sampler {
        if m > MAX_WALKERS {
            return Err(format!(
                "m = {m} exceeds the server limit of {MAX_WALKERS} walkers"
            ));
        }
    }
    JobEstimator::new(spec.estimator, &spec.sampler)
        .map_err(|why| format!("invalid estimator/sampler pair: {why}"))
}
