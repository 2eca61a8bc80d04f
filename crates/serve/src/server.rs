//! The HTTP server: an epoll [`Reactor`] (keep-alive + pipelining +
//! chunked streaming) routing onto the [`StoreRegistry`], the
//! [`JobManager`], and the deterministic [`ResultCache`].
//!
//! ## API
//!
//! | method & path                | meaning                                       |
//! |------------------------------|-----------------------------------------------|
//! | `GET /healthz`               | liveness + worker/queue/cache stats           |
//! | `GET /v1/stores`             | list `.fsg` stores under the root             |
//! | `POST /v1/jobs`              | submit a job (JSON body; `202` + `{"id": …}`) |
//! | `GET /v1/jobs/{id}`          | job status, progress, partial/final estimate  |
//! | `GET /v1/jobs/{id}/stream`   | chunked NDJSON: one line per fresh snapshot   |
//! | `DELETE /v1/jobs/{id}`       | cancel (`200`; `404` unknown, `409` terminal) |
//! | `POST /v1/shutdown`          | graceful shutdown (also via [`Server::shutdown`]) |
//!
//! Job body: `{"store": "name.fsg", "sampler": "fs", "m": 16,
//! "alpha": 1.0, "budget": 10000, "seed": 7, "estimator":
//! "avg_degree"}` — `m`/`alpha` optional where the sampler ignores
//! them.
//!
//! ## Job lifecycle status codes (pinned by `protocol.rs`)
//!
//! * `GET /v1/jobs/{id}` — `200` for any known job (including one
//!   completed instantly from the result cache, where the body carries
//!   `"cached": true`), `404` for unknown ids.
//! * `DELETE /v1/jobs/{id}` — `200` when the job is now cancelled
//!   (queued, running, or *already cancelled* — double-cancel is
//!   idempotent), `409` when it already finished `done`/`failed` (the
//!   result stands; nothing to cancel), `404` for unknown ids.
//!
//! ## Shutdown
//!
//! Two stages: `POST /v1/shutdown` flips the drain flag — new requests
//! answer `503` while connections stay open. [`Server::shutdown`] then
//! cancels jobs (in-flight streams see the terminal snapshot and end
//! their chunked bodies cleanly), signals the reactor to quit, and
//! joins every thread — jobs in flight end `cancelled`, never wedged
//! (pinned by the protocol tests).

use crate::cache::ResultCache;
use crate::http::Limits;
use crate::jobs::{CancelOutcome, JobManager, JobPhase, JobSpec, JobView, SubmitError};
use crate::journal::{DurabilityStats, Journal};
use crate::json::{self, Json, ObjectWriter};
use crate::obs::ServeObs;
use crate::reactor::{Action, AppLogic, Reactor, StreamEvent, Waker};
use crate::registry::{RegistryError, StoreRegistry};
use frontier_sampling::runner::{EstimatorSpec, SamplerSpec};
use fs_obs::TraceSink;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

/// The failpoint sites a running server consults: socket reads and
/// writes, journal appends and store opens. `fs-serve` refuses an
/// `FS_FAILPOINTS` spec that names any other site.
pub const FAILPOINT_SITES: [&str; 4] = [
    crate::reactor::READ_SITE,
    crate::reactor::WRITE_SITE,
    crate::journal::APPEND_SITE,
    fs_store::OPEN_SITE,
];

/// Server configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Directory holding `.fsg` stores.
    pub root: PathBuf,
    /// Bind address, e.g. `127.0.0.1:0` (port 0 = ephemeral).
    pub addr: String,
    /// Job worker threads.
    pub job_workers: usize,
    /// Maximum queued jobs (back-pressure → `429`).
    pub max_queue: usize,
    /// Maximum stores kept mapped.
    pub store_capacity: usize,
    /// HTTP parsing limits.
    pub limits: Limits,
    /// Result-cache entry bound (`0` disables caching).
    pub cache_entries: usize,
    /// Result-cache byte bound.
    pub cache_bytes: usize,
    /// Directory for the crash-safe job journal (`--journal-dir`).
    /// `None` runs journal-free: identical behaviour, no durability.
    pub journal_dir: Option<PathBuf>,
    /// NDJSON file every trace event is appended to (`--trace-log`),
    /// in addition to the in-memory ring `GET /v1/trace` drains.
    pub trace_log: Option<PathBuf>,
}

impl Config {
    /// Sensible defaults over `root`, binding an ephemeral local port.
    pub fn new(root: impl Into<PathBuf>) -> Config {
        Config {
            root: root.into(),
            addr: "127.0.0.1:0".to_string(),
            job_workers: 2,
            max_queue: 256,
            store_capacity: 8,
            limits: Limits::default(),
            cache_entries: 4_096,
            cache_bytes: 64 * 1024 * 1024,
            journal_dir: None,
            trace_log: None,
        }
    }
}

/// A running server. Dropping the handle does **not** stop it; call
/// [`Server::shutdown`].
pub struct Server {
    addr: std::net::SocketAddr,
    /// Draining: `POST /v1/shutdown` sets it; requests answer `503`
    /// but connections are still served (the owner decides when to
    /// actually stop).
    shutdown_flag: Arc<AtomicBool>,
    /// Hard stop: set only by [`Server::shutdown`]; the reactor exits.
    quit_flag: Arc<AtomicBool>,
    manager: Arc<JobManager>,
    waker: Waker,
    reactor: Option<std::thread::JoinHandle<()>>,
}

/// The application half handed to the reactor: pure routing, no
/// blocking work (jobs run on the manager's worker pool).
struct Logic {
    registry: Arc<StoreRegistry>,
    manager: Arc<JobManager>,
    shutdown_flag: Arc<AtomicBool>,
    /// Journal replay still in progress: every route answers `503`
    /// with `"replaying": true` until recovery finishes, so clients
    /// never observe a half-restored job table.
    replaying: Arc<AtomicBool>,
    /// The single source of every operational number: `/metrics`
    /// renders it, `/healthz` reads it back by name, `/v1/trace`
    /// drains its ring. No handler keeps counters of its own.
    obs: Arc<ServeObs>,
}

impl Server {
    /// Binds, spawns the job workers and the reactor, and starts
    /// accepting. With [`Config::journal_dir`] set, opens (or replays)
    /// the job journal first: the listener answers `503` until every
    /// journaled job is re-registered and incomplete ones re-enqueued.
    pub fn start(config: Config) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        // The observability bundle is created first so every layer
        // below can thread it through at construction.
        let obs = ServeObs::new();
        if let Some(path) = &config.trace_log {
            obs.trace().set_sink(TraceSink::open(path)?);
        }
        obs.install_failpoint_hook();
        let registry = Arc::new(
            StoreRegistry::new(&config.root, config.store_capacity).with_obs(Arc::clone(&obs)),
        );
        let cache = Arc::new(ResultCache::new(config.cache_entries, config.cache_bytes));
        let (journal, replay, durability) = match &config.journal_dir {
            None => (None, None, None),
            Some(dir) => {
                let stats = Arc::new(DurabilityStats::default());
                let (journal, replay) = Journal::open(dir, Arc::clone(&stats))?;
                journal.set_trace(Arc::clone(obs.trace()));
                (Some(Arc::new(journal)), Some(replay), Some(stats))
            }
        };
        let manager = JobManager::start(
            Arc::clone(&registry),
            Arc::clone(&cache),
            config.job_workers,
            config.max_queue,
            journal,
        );
        // Installed before the restore thread spawns, so replayed jobs
        // count and trace like live ones.
        manager.set_obs(Arc::clone(&obs));
        register_derived_metrics(
            &obs,
            &registry,
            &manager,
            &cache,
            durability.as_ref(),
            config.job_workers,
        );
        let shutdown_flag = Arc::new(AtomicBool::new(false));
        let quit_flag = Arc::new(AtomicBool::new(false));
        let replaying = Arc::new(AtomicBool::new(replay.is_some()));
        let logic = Arc::new(Logic {
            registry,
            manager: Arc::clone(&manager),
            shutdown_flag: Arc::clone(&shutdown_flag),
            replaying: Arc::clone(&replaying),
            obs: Arc::clone(&obs),
        });
        let (waker, handle) = Reactor::spawn(
            listener,
            logic,
            config.limits,
            Arc::clone(&quit_flag),
            Some(obs),
        )?;
        // Job workers poke the reactor after every chunk so streaming
        // connections learn about fresh snapshots without polling.
        let hook_waker = waker.clone();
        manager.set_update_hook(Box::new(move || hook_waker.wake()));
        // Restore off-thread: re-pinning stores mmaps real files, and
        // the listener should answer (503) rather than hang meanwhile.
        if let Some(replay) = replay {
            let restore_manager = Arc::clone(&manager);
            let restore_flag = Arc::clone(&replaying);
            std::thread::spawn(move || {
                restore_manager.restore(replay);
                restore_flag.store(false, Ordering::SeqCst);
            });
        }
        Ok(Server {
            addr,
            shutdown_flag,
            quit_flag,
            manager,
            waker,
            reactor: Some(handle),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Whether a client asked for shutdown (`POST /v1/shutdown`). The
    /// owner should then call [`Server::shutdown`] to drain and join.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_flag.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: see the [module docs](self). Idempotent.
    pub fn shutdown(mut self) {
        // Stage 1: drain — new requests answer 503.
        self.shutdown_flag.store(true, Ordering::SeqCst);
        // Stage 2: stop the jobs. Running jobs flip to `cancelled` at
        // their next chunk; each flip wakes the reactor, so in-flight
        // streams emit the terminal snapshot and end their chunked
        // bodies *before* the reactor is told to quit.
        self.manager.shutdown();
        // Stage 3: quit the reactor; it grace-drains pending output
        // (including those stream terminators) and joins.
        self.quit_flag.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
    }
}

/// Registers the read-through views: numbers owned by other subsystems
/// (cache, durability stats, registry occupancy, in-flight jobs) become
/// registry metrics via closures, so `/metrics` and `/healthz` read the
/// same live values without any copy to drift.
///
/// Registry and manager are captured **weakly**: both hold the
/// `Arc<ServeObs>` whose registry owns these closures, and a strong
/// capture would cycle the three `Arc`s and leak the whole stack.
fn register_derived_metrics(
    obs: &Arc<ServeObs>,
    registry: &Arc<StoreRegistry>,
    manager: &Arc<JobManager>,
    cache: &Arc<ResultCache>,
    durability: Option<&Arc<DurabilityStats>>,
    job_workers: usize,
) {
    let r = obs.registry();
    let stores: Weak<StoreRegistry> = Arc::downgrade(registry);
    r.gauge_fn("fs_stores_open", "Stores currently mapped.", move || {
        stores.upgrade().map_or(0, |s| s.open_count() as u64)
    });
    let jobs: Weak<JobManager> = Arc::downgrade(manager);
    r.gauge_fn(
        "fs_jobs_in_flight",
        "Jobs currently queued or running.",
        move || jobs.upgrade().map_or(0, |m| m.in_flight() as u64),
    );
    r.gauge_fn(
        "fs_job_workers",
        "Configured job worker threads.",
        move || job_workers as u64,
    );
    for (name, help, read) in [
        (
            "fs_cache_hits_total",
            "Result-cache hits.",
            Box::new({
                let c = Arc::clone(cache);
                move || c.stats().hits
            }) as Box<dyn Fn() -> u64 + Send + Sync>,
        ),
        (
            "fs_cache_misses_total",
            "Result-cache misses.",
            Box::new({
                let c = Arc::clone(cache);
                move || c.stats().misses
            }),
        ),
        (
            "fs_cache_evictions_total",
            "Result-cache evictions.",
            Box::new({
                let c = Arc::clone(cache);
                move || c.stats().evictions
            }),
        ),
    ] {
        r.counter_fn(name, help, read);
    }
    let c = Arc::clone(cache);
    r.gauge_fn(
        "fs_cache_entries",
        "Result-cache entries held.",
        move || c.stats().entries as u64,
    );
    let c = Arc::clone(cache);
    r.gauge_fn("fs_cache_bytes", "Result-cache bytes held.", move || {
        c.stats().bytes as u64
    });
    if let Some(stats) = durability {
        type Reader = fn(&DurabilityStats) -> u64;
        let counters: [(&str, &str, Reader); 7] = [
            (
                "fs_journal_records_replayed_total",
                "Journal records replayed at startup.",
                |d| d.records_replayed.load(Ordering::Relaxed),
            ),
            (
                "fs_journal_torn_truncated_total",
                "Torn journal tails truncated.",
                |d| d.torn_truncated.load(Ordering::Relaxed),
            ),
            (
                "fs_journal_jobs_resumed_total",
                "Incomplete jobs replayed after restart (re-enqueued, or failed when their store changed or vanished).",
                |d| d.jobs_resumed.load(Ordering::Relaxed),
            ),
            (
                "fs_journal_jobs_recovered_total",
                "Finished jobs re-registered after restart.",
                |d| d.jobs_recovered.load(Ordering::Relaxed),
            ),
            (
                "fs_journal_resumed_from_checkpoint_total",
                "Jobs resumed from a surviving checkpoint.",
                |d| d.resumed_from_checkpoint.load(Ordering::Relaxed),
            ),
            (
                "fs_journal_checkpoints_written_total",
                "Checkpoints appended to the journal.",
                |d| d.checkpoints_written.load(Ordering::Relaxed),
            ),
            (
                "fs_journal_appends_failed_total",
                "Journal appends that failed and truncated back.",
                |d| d.appends_failed.load(Ordering::Relaxed),
            ),
        ];
        for (name, help, read) in counters {
            let d = Arc::clone(stats);
            r.counter_fn(name, help, move || read(&d));
        }
        let d = Arc::clone(stats);
        r.gauge_fn(
            "fs_journal_degraded",
            "1 when the journal stopped appending after an unrecoverable failure.",
            move || u64::from(d.degraded.load(Ordering::Relaxed)),
        );
    }
}

fn error_body(message: &str) -> String {
    Json::obj([("error", Json::from(message))]).encode()
}

fn respond(status: u16, body: String) -> Action {
    Action::Respond {
        status,
        content_type: "application/json",
        body,
    }
}

impl AppLogic for Logic {
    fn handle(&self, request: &crate::http::Request) -> Action {
        if self.shutdown_flag.load(Ordering::SeqCst) {
            return respond(503, error_body("server is shutting down"));
        }
        if self.replaying.load(Ordering::SeqCst) {
            // Recovery in progress: a half-restored job table would
            // 404 ids that are about to reappear. The structured body
            // lets clients (and the load generator's retry loop) tell
            // this apart from a drain 503 and retry.
            return respond(
                503,
                Json::obj([
                    ("error", Json::from("journal replay in progress; retry")),
                    ("replaying", Json::from(true)),
                ])
                .encode(),
            );
        }
        let path = request.path.as_str();
        let method = request.method.as_str();
        match (method, path) {
            ("GET", "/healthz") => {
                // A thin JSON view over the metric registry: every
                // number is `Registry::value(name)` of a metric that
                // `/metrics` also renders, so the two surfaces cannot
                // drift (pinned by the metrics integration test). No
                // counter is hand-assembled here.
                let metric = |name: &str| Json::from(self.obs.registry().value(name).unwrap_or(0));
                let mut fields = vec![
                    ("status", Json::from("ok")),
                    ("open_stores", metric("fs_stores_open")),
                    ("in_flight_jobs", metric("fs_jobs_in_flight")),
                    ("job_workers", metric("fs_job_workers")),
                    (
                        "cache",
                        Json::obj([
                            ("hits", metric("fs_cache_hits_total")),
                            ("misses", metric("fs_cache_misses_total")),
                            ("entries", metric("fs_cache_entries")),
                            ("bytes", metric("fs_cache_bytes")),
                            ("evictions", metric("fs_cache_evictions_total")),
                        ]),
                    ),
                ];
                // Journal metrics register only when one is configured.
                if self
                    .obs
                    .registry()
                    .value("fs_journal_records_replayed_total")
                    .is_some()
                {
                    fields.push((
                        "durability",
                        Json::obj([
                            (
                                "records_replayed",
                                metric("fs_journal_records_replayed_total"),
                            ),
                            ("torn_truncated", metric("fs_journal_torn_truncated_total")),
                            ("jobs_resumed", metric("fs_journal_jobs_resumed_total")),
                            ("jobs_recovered", metric("fs_journal_jobs_recovered_total")),
                            (
                                "resumed_from_checkpoint",
                                metric("fs_journal_resumed_from_checkpoint_total"),
                            ),
                            (
                                "checkpoints_written",
                                metric("fs_journal_checkpoints_written_total"),
                            ),
                            ("appends_failed", metric("fs_journal_appends_failed_total")),
                            (
                                "degraded",
                                Json::from(
                                    self.obs
                                        .registry()
                                        .value("fs_journal_degraded")
                                        .unwrap_or(0)
                                        != 0,
                                ),
                            ),
                        ]),
                    ));
                }
                respond(200, Json::obj(fields).encode())
            }
            ("GET", "/metrics") => Action::Respond {
                status: 200,
                content_type: "text/plain; version=0.0.4",
                body: self.obs.registry().render_prometheus(),
            },
            ("GET", "/v1/trace") => {
                let mut body: String = String::new();
                for line in self.obs.trace().drain() {
                    body.push_str(&line);
                    body.push('\n');
                }
                Action::Respond {
                    status: 200,
                    content_type: "application/x-ndjson",
                    body,
                }
            }
            ("GET", "/v1/stores") => match self.registry.list() {
                Ok(infos) => {
                    let items: Vec<Json> = infos
                        .into_iter()
                        .map(|i| {
                            Json::obj([
                                ("name", Json::from(i.name)),
                                ("digest", Json::from(format!("{:016x}", i.digest))),
                                ("num_vertices", Json::from(i.num_vertices)),
                                ("num_arcs", Json::from(i.num_arcs)),
                                ("open", Json::from(i.open)),
                            ])
                        })
                        .collect();
                    respond(200, Json::obj([("stores", Json::Arr(items))]).encode())
                }
                Err(e) => respond(500, error_body(&format!("cannot list stores: {e}"))),
            },
            ("POST", "/v1/jobs") => self.submit_job(request),
            ("POST", "/v1/shutdown") => {
                self.shutdown_flag.store(true, Ordering::SeqCst);
                respond(
                    202,
                    Json::obj([("status", Json::from("shutting down"))]).encode(),
                )
            }
            _ => {
                if let Some(rest) = path.strip_prefix("/v1/jobs/") {
                    return self.job_route(method, rest);
                }
                match path {
                    "/healthz" | "/metrics" | "/v1/stores" | "/v1/jobs" | "/v1/shutdown"
                    | "/v1/trace" => respond(
                        405,
                        error_body(&format!("method {method} not allowed on {path}")),
                    ),
                    _ => respond(404, error_body(&format!("no route for {path}"))),
                }
            }
        }
    }

    fn stream_poll(&self, job: u64, last_gen: &mut u64) -> StreamEvent {
        // An idle poll reads one counter: no view, no clone. Every
        // state change (the terminal one too) bumps the generation
        // after it lands, so a job at the cursor has nothing to send.
        let view = match self.manager.generation(job) {
            Some(generation) if generation <= *last_gen => return StreamEvent::Idle,
            Some(_) => self.manager.view(job),
            None => None,
        };
        let Some(view) = view else {
            // Pruned by retention mid-stream: terminate rather than
            // hang the subscriber.
            return StreamEvent::End(error_body(&format!("job {job} no longer exists")));
        };
        if view.phase.terminal() {
            *last_gen = view.generation;
            return StreamEvent::End(job_doc(&view));
        }
        if view.generation > *last_gen {
            *last_gen = view.generation;
            return StreamEvent::Chunk(job_doc(&view));
        }
        StreamEvent::Idle
    }

    fn error_body(&self, message: &str) -> String {
        error_body(message)
    }
}

impl Logic {
    /// Routes `/v1/jobs/{id}` and `/v1/jobs/{id}/stream`.
    fn job_route(&self, method: &str, rest: &str) -> Action {
        let (id_text, stream) = match rest.strip_suffix("/stream") {
            Some(prefix) => (prefix, true),
            None => (rest, false),
        };
        let Ok(id) = id_text.parse::<u64>() else {
            return respond(400, error_body(&format!("bad job id '{id_text}'")));
        };
        match (method, stream) {
            ("GET", false) => match self.manager.view(id) {
                Some(view) => respond(200, job_doc(&view)),
                None => respond(404, error_body(&format!("no job {id}"))),
            },
            ("GET", true) => {
                if self.manager.generation(id).is_none() {
                    return respond(404, error_body(&format!("no job {id}")));
                }
                Action::Stream { job: id }
            }
            ("DELETE", false) => match self.manager.cancel(id) {
                CancelOutcome::NotFound => respond(404, error_body(&format!("no job {id}"))),
                CancelOutcome::Terminal(phase) => respond(
                    409,
                    Json::obj([
                        ("id", Json::from(id)),
                        ("phase", Json::from(phase.name())),
                        (
                            "error",
                            Json::from(format!(
                                "job {id} already finished as {}; nothing to cancel",
                                phase.name()
                            )),
                        ),
                    ])
                    .encode(),
                ),
                CancelOutcome::Cancelled => respond(
                    200,
                    Json::obj([
                        ("id", Json::from(id)),
                        ("phase", Json::from(JobPhase::Cancelled.name())),
                    ])
                    .encode(),
                ),
            },
            ("DELETE", true) => respond(405, error_body("DELETE the job, not its stream")),
            _ => respond(405, error_body("use GET or DELETE on /v1/jobs/{id}")),
        }
    }

    fn submit_job(&self, request: &crate::http::Request) -> Action {
        let Ok(text) = std::str::from_utf8(&request.body) else {
            return respond(400, error_body("body is not UTF-8"));
        };
        let doc = match json::parse(text) {
            Ok(doc) => doc,
            Err(e) => return respond(400, error_body(&e.to_string())),
        };
        let spec = match parse_job_spec(&doc) {
            Ok(spec) => spec,
            Err(message) => return respond(400, error_body(&message)),
        };
        match self.manager.submit(spec) {
            Ok(id) => {
                // A cache hit completes the job at submit; report the
                // actual phase so clients need not poll a done job.
                let phase = self.manager.phase(id).unwrap_or(JobPhase::Queued);
                respond(
                    202,
                    Json::obj([("id", Json::from(id)), ("phase", Json::from(phase.name()))])
                        .encode(),
                )
            }
            Err(SubmitError::Invalid(m)) => respond(400, error_body(&m)),
            Err(SubmitError::Store(RegistryError::NotFound(n))) => {
                respond(404, error_body(&format!("no store named '{n}'")))
            }
            Err(SubmitError::Store(e)) => respond(400, error_body(&e.to_string())),
            Err(SubmitError::QueueFull) => {
                respond(429, error_body("job queue is full; retry later"))
            }
            Err(SubmitError::ShuttingDown) => respond(503, error_body("server is shutting down")),
        }
    }
}

fn parse_job_spec(doc: &Json) -> Result<JobSpec, String> {
    let field_str = |name: &str| -> Result<&str, String> {
        doc.get(name)
            .ok_or_else(|| format!("missing field '{name}'"))?
            .as_str()
            .ok_or_else(|| format!("field '{name}' must be a string"))
    };
    let store = field_str("store")?.to_string();
    let sampler_name = field_str("sampler")?;
    let estimator_name = field_str("estimator")?;
    let budget = doc
        .get("budget")
        .ok_or("missing field 'budget'")?
        .as_f64()
        .ok_or("field 'budget' must be a number")?;
    let seed = doc
        .get("seed")
        .ok_or("missing field 'seed'")?
        .as_u64()
        .ok_or("field 'seed' must be a non-negative integer")?;
    let m = match doc.get("m") {
        None | Some(Json::Null) => 1,
        Some(v) => v
            .as_u64()
            .ok_or("field 'm' must be a non-negative integer")? as usize,
    };
    let alpha = match doc.get("alpha") {
        None | Some(Json::Null) => 0.0,
        Some(v) => v.as_f64().ok_or("field 'alpha' must be a number")?,
    };
    for (key, _) in match doc {
        Json::Obj(pairs) => pairs.iter(),
        _ => return Err("body must be a JSON object".into()),
    } {
        if !matches!(
            key.as_str(),
            "store" | "sampler" | "estimator" | "budget" | "seed" | "m" | "alpha"
        ) {
            return Err(format!("unknown field '{key}'"));
        }
    }
    let sampler = SamplerSpec::parse(sampler_name, m, alpha)?;
    let estimator = EstimatorSpec::parse(estimator_name)?;
    Ok(JobSpec {
        store,
        sampler,
        budget,
        seed,
        estimator,
    })
}

/// The JSON document of a job view — the body of `GET /v1/jobs/{id}`
/// and every stream line — written straight to bytes, with no `Json`
/// tree. Estimate floats use shortest-round-trip encoding, so clients
/// recover server-side values bit for bit — and a cache-hit job's
/// estimate is **byte-identical** to the original run's (the
/// `cached`/`id` bookkeeping fields differ; the payload does not).
fn job_doc(view: &JobView) -> String {
    let mut out = String::new();
    let spec = &view.spec;
    let mut doc = ObjectWriter::new(&mut out);
    doc.int("id", view.id);
    doc.str("phase", view.phase.name());
    doc.opt_str("error", view.error.as_deref());
    doc.str("store", &spec.store);
    doc.str("store_digest", &format!("{:016x}", view.store_digest));
    doc.str("sampler", &spec.sampler.label());
    doc.str("estimator", spec.estimator.name());
    doc.num("budget", spec.budget);
    doc.int("seed", spec.seed);
    doc.int("steps_done", view.steps_done);
    doc.num("progress", view.progress);
    doc.bool("cached", view.cached);
    write_profile(view, doc.object("profile"));
    doc.bool("final", view.phase == JobPhase::Done);
    match &view.estimate {
        None => doc.null("estimate"),
        Some(snapshot) => {
            let mut estimate = doc.object("estimate");
            estimate.int("num_observed", snapshot.num_observed);
            estimate.opt_num("scalar", snapshot.scalar);
            estimate.nums("vector", snapshot.vector.as_deref());
            estimate.end();
        }
    }
    doc.end();
    out
}

/// The per-job execution profile: raw totals from the chunk loop plus
/// the derived rates (`steps_per_sec`, `queries_per_step`) clients
/// would otherwise recompute. Observation only — nothing here feeds
/// back into sampling, so the `estimate` payload stays byte-identical
/// to a run without profiling (pinned by `determinism.rs` and
/// `loadgen --verify`, which compare estimate bits with this field
/// present).
fn write_profile(view: &JobView, mut doc: ObjectWriter<'_>) {
    let p = &view.profile;
    doc.int("chunks", p.chunks);
    doc.int("busy_us", p.busy_us);
    doc.int("queries", p.queries);
    doc.opt_num(
        "steps_per_sec",
        (p.busy_us > 0).then(|| view.steps_done as f64 * 1e6 / p.busy_us as f64),
    );
    doc.opt_num(
        "queries_per_step",
        (view.steps_done > 0).then(|| p.queries as f64 / view.steps_done as f64),
    );
    doc.num("budget_spent", p.budget_spent);
    doc.num("budget_total", p.budget_total);
    doc.num(
        "budget_remaining",
        (p.budget_total - p.budget_spent).max(0.0),
    );
    doc.end();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::JobProfile;
    use frontier_sampling::runner::EstimateSnapshot;

    fn queued() -> JobView {
        JobView {
            id: 7,
            spec: JobSpec {
                store: "ba_50k.fsg".to_string(),
                sampler: SamplerSpec::Frontier { m: 16 },
                budget: 20_000.0,
                seed: 424_242,
                estimator: EstimatorSpec::Ccdf,
            },
            store_digest: 0x00c0_ffee_1234_5678,
            phase: JobPhase::Queued,
            error: None,
            steps_done: 0,
            progress: 0.0,
            estimate: None,
            cached: false,
            profile: JobProfile::default(),
            generation: 1,
        }
    }

    fn profile(chunks: u64, busy_us: u64, queries: u64, spent: f64, total: f64) -> JobProfile {
        JobProfile {
            chunks,
            busy_us,
            queries,
            budget_spent: spent,
            budget_total: total,
        }
    }

    /// One view per shape a job document takes on the wire.
    fn pinned_views() -> Vec<(&'static str, JobView)> {
        let running = JobView {
            phase: JobPhase::Running,
            steps_done: 8_192,
            progress: 0.4096,
            estimate: Some(Arc::new(EstimateSnapshot {
                num_observed: 8_176,
                scalar: None,
                vector: Some(vec![
                    1.0,
                    1.0,
                    0.75,
                    0.75,
                    0.75,
                    0.1 + 0.2,
                    0.0,
                    0.0,
                    -0.0,
                    -0.0,
                    2.5e-8,
                    2f64.powi(53) + 2.0,
                    f64::NAN,
                    0.0,
                ]),
            })),
            profile: profile(1, 2_345, 8_208, 8_192.0, 20_000.0),
            ..queued()
        };
        let done_scalar = JobView {
            spec: JobSpec {
                sampler: SamplerSpec::Single,
                estimator: EstimatorSpec::AverageDegree,
                budget: 5_000.5,
                ..queued().spec
            },
            phase: JobPhase::Done,
            steps_done: 5_000,
            progress: 1.0,
            estimate: Some(Arc::new(EstimateSnapshot {
                num_observed: 4_999,
                scalar: Some(7.998_765_432_101_234),
                vector: None,
            })),
            profile: profile(3, 1_234, 5_016, 5_003.0, 5_000.5),
            ..queued()
        };
        let done_vector = JobView {
            spec: JobSpec {
                estimator: EstimatorSpec::DegreeDist,
                ..queued().spec
            },
            phase: JobPhase::Done,
            steps_done: 20_000,
            progress: 1.0,
            estimate: Some(Arc::new(EstimateSnapshot {
                num_observed: 19_984,
                scalar: None,
                vector: Some(vec![
                    0.0,
                    0.0,
                    0.0,
                    0.0,
                    0.412_345_678_9,
                    0.2,
                    0.2,
                    0.0,
                    0.012_5,
                    0.0,
                    0.0,
                    0.012_5,
                    1.0 / 3.0,
                ]),
            })),
            profile: profile(3, 9_876, 20_016, 20_000.0, 20_000.0),
            ..queued()
        };
        let cached = JobView {
            id: 9,
            cached: true,
            generation: 2,
            ..done_vector.clone()
        };
        let cached = JobView {
            profile: JobProfile::default(),
            ..cached
        };
        let failed = JobView {
            spec: JobSpec {
                store: "grafo_é.fsg".to_string(),
                sampler: SamplerSpec::Rwj { alpha: 0.25 },
                estimator: EstimatorSpec::PopulationSize,
                ..queued().spec
            },
            phase: JobPhase::Failed,
            error: Some("store \"grafo_é.fsg\" vanished:\nline two \u{1} end\\".to_string()),
            steps_done: 100,
            progress: 0.005,
            profile: profile(1, 0, 101, 100.0, 20_000.0),
            ..queued()
        };
        let extremes = JobView {
            id: u64::from(u32::MAX) + 1,
            spec: JobSpec {
                sampler: SamplerSpec::Multiple { m: 4 },
                estimator: EstimatorSpec::Clustering,
                seed: u64::MAX,
                ..queued().spec
            },
            store_digest: u64::MAX,
            phase: JobPhase::Cancelled,
            steps_done: 12,
            progress: 0.0006,
            estimate: Some(Arc::new(EstimateSnapshot {
                num_observed: 0,
                scalar: None,
                vector: None,
            })),
            ..queued()
        };
        vec![
            ("queued", queued()),
            ("running", running),
            ("done_scalar", done_scalar),
            ("done_vector", done_vector),
            ("cached", cached),
            ("failed", failed),
            ("extremes", extremes),
        ]
    }

    /// The wire bytes of each pinned view. Changing one changes what
    /// clients read, so these move only with a named protocol change.
    const GOLDEN: [(&str, &str); 7] = [
        (
            "queued",
            r#"{"id":7,"phase":"queued","error":null,"store":"ba_50k.fsg","store_digest":"00c0ffee12345678","sampler":"FS (m=16)","estimator":"ccdf","budget":20000,"seed":424242,"steps_done":0,"progress":0,"cached":false,"profile":{"chunks":0,"busy_us":0,"queries":0,"steps_per_sec":null,"queries_per_step":null,"budget_spent":0,"budget_total":0,"budget_remaining":0},"final":false,"estimate":null}"#,
        ),
        (
            "running",
            r#"{"id":7,"phase":"running","error":null,"store":"ba_50k.fsg","store_digest":"00c0ffee12345678","sampler":"FS (m=16)","estimator":"ccdf","budget":20000,"seed":424242,"steps_done":8192,"progress":0.4096,"cached":false,"profile":{"chunks":1,"busy_us":2345,"queries":8208,"steps_per_sec":3493390.1918976544,"queries_per_step":1.001953125,"budget_spent":8192,"budget_total":20000,"budget_remaining":11808},"final":false,"estimate":{"num_observed":8176,"scalar":null,"vector":[1,1,0.75,0.75,0.75,0.30000000000000004,0,0,-0,-0,0.000000025,9007199254740994,null,0]}}"#,
        ),
        (
            "done_scalar",
            r#"{"id":7,"phase":"done","error":null,"store":"ba_50k.fsg","store_digest":"00c0ffee12345678","sampler":"SingleRW","estimator":"avg_degree","budget":5000.5,"seed":424242,"steps_done":5000,"progress":1,"cached":false,"profile":{"chunks":3,"busy_us":1234,"queries":5016,"steps_per_sec":4051863.8573743924,"queries_per_step":1.0032,"budget_spent":5003,"budget_total":5000.5,"budget_remaining":0},"final":true,"estimate":{"num_observed":4999,"scalar":7.998765432101234,"vector":null}}"#,
        ),
        (
            "done_vector",
            r#"{"id":7,"phase":"done","error":null,"store":"ba_50k.fsg","store_digest":"00c0ffee12345678","sampler":"FS (m=16)","estimator":"degree_dist","budget":20000,"seed":424242,"steps_done":20000,"progress":1,"cached":false,"profile":{"chunks":3,"busy_us":9876,"queries":20016,"steps_per_sec":2025111.381125962,"queries_per_step":1.0008,"budget_spent":20000,"budget_total":20000,"budget_remaining":0},"final":true,"estimate":{"num_observed":19984,"scalar":null,"vector":[0,0,0,0,0.4123456789,0.2,0.2,0,0.0125,0,0,0.0125,0.3333333333333333]}}"#,
        ),
        (
            "cached",
            r#"{"id":9,"phase":"done","error":null,"store":"ba_50k.fsg","store_digest":"00c0ffee12345678","sampler":"FS (m=16)","estimator":"degree_dist","budget":20000,"seed":424242,"steps_done":20000,"progress":1,"cached":true,"profile":{"chunks":0,"busy_us":0,"queries":0,"steps_per_sec":null,"queries_per_step":0,"budget_spent":0,"budget_total":0,"budget_remaining":0},"final":true,"estimate":{"num_observed":19984,"scalar":null,"vector":[0,0,0,0,0.4123456789,0.2,0.2,0,0.0125,0,0,0.0125,0.3333333333333333]}}"#,
        ),
        (
            "failed",
            r#"{"id":7,"phase":"failed","error":"store \"grafo_é.fsg\" vanished:\nline two \u0001 end\\","store":"grafo_é.fsg","store_digest":"00c0ffee12345678","sampler":"RWJ (alpha=0.25)","estimator":"pop_size","budget":20000,"seed":424242,"steps_done":100,"progress":0.005,"cached":false,"profile":{"chunks":1,"busy_us":0,"queries":101,"steps_per_sec":null,"queries_per_step":1.01,"budget_spent":100,"budget_total":20000,"budget_remaining":19900},"final":false,"estimate":null}"#,
        ),
        (
            "extremes",
            r#"{"id":4294967296,"phase":"cancelled","error":null,"store":"ba_50k.fsg","store_digest":"ffffffffffffffff","sampler":"MultipleRW (m=4)","estimator":"clustering","budget":20000,"seed":18446744073709552000,"steps_done":12,"progress":0.0006,"cached":false,"profile":{"chunks":0,"busy_us":0,"queries":0,"steps_per_sec":null,"queries_per_step":0,"budget_spent":0,"budget_total":0,"budget_remaining":0},"final":false,"estimate":{"num_observed":0,"scalar":null,"vector":null}}"#,
        ),
    ];

    #[test]
    fn job_documents_match_pinned_bytes() {
        let views = pinned_views();
        assert_eq!(views.len(), GOLDEN.len());
        for ((name, view), (golden_name, golden)) in views.iter().zip(GOLDEN) {
            assert_eq!(*name, golden_name);
            assert_eq!(job_doc(view), golden, "{name}");
            assert!(json::parse(golden).is_ok(), "{name} is not JSON");
        }
    }

    #[test]
    fn failpoint_spec_must_name_a_consulted_site() {
        use fs_graph::failpoint::validate_spec;
        // CI's chaos spec arms only sites the server consults.
        let chaos = "reactor.read=eintr:0.05,eagain:0.05,short_read:0.1;\
                     reactor.write=eagain:0.05,short_write:0.1;journal.append=enospc:0.1";
        assert_eq!(validate_spec(chaos, &FAILPOINT_SITES), Ok(()));
        assert_eq!(
            validate_spec("store.mmap_open=error:1.0", &FAILPOINT_SITES),
            Ok(())
        );
        // The server never writes a store, and a misspelled site would
        // otherwise arm nothing.
        for site in ["store.write", "reactor.raed", "store.mmap-open"] {
            let err = validate_spec(&format!("{site}=error:1.0"), &FAILPOINT_SITES).unwrap_err();
            assert!(err.contains(&format!("'{site}'")), "{err}");
        }
    }
}
