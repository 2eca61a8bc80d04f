//! Set-up of an in-process server and the closed-loop phases that
//! drive it.

use crate::client::Client;
use crate::procfs;
use crate::promtext::Scrape;
use crate::replay::EstimateKey;
use crate::trace::{Span, Tracer};
use crate::workload::{self, ClientStream, Planned, REPEAT_WINDOW};
use fs_serve::json::{self, Json};
use fs_serve::{Config, Server};
use std::collections::BTreeMap;
use std::io::Read;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// File name of the store under each server's root.
pub const STORE: &str = "graph.fsg";

/// A running server over its own store directory.
pub struct Served {
    pub server: Server,
    pub root: PathBuf,
    pub journal: Option<PathBuf>,
}

/// Where one set-up spent its time.
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    pub ingest_s: f64,
    pub start_ms: f64,
    /// First submit's round trip: the registry opens and validates the
    /// store on it.
    pub open_ms: f64,
    /// Store page-in plus one untimed job per spec kind.
    pub warmup_s: f64,
    pub total_s: f64,
}

fn err(context: &str) -> impl Fn(String) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// Ingests `edge_list` into a store under `root`, starts a server over
/// it with `workers` job workers, and warms it up.
pub fn set_up(
    seed: u64,
    edge_list: &Path,
    root: &Path,
    workers: usize,
) -> Result<(Served, SetupTimes), String> {
    std::fs::create_dir_all(root).map_err(|e| format!("create {root:?}: {e}"))?;
    let t0 = Instant::now();
    fs_store::ingest_edge_list(edge_list, root.join(STORE), &Default::default())
        .map_err(|e| format!("ingest: {e}"))?;
    let ingest_s = t0.elapsed().as_secs_f64();
    let served = start(root, None, workers)?;
    let start_ms = (t0.elapsed().as_secs_f64() - ingest_s) * 1e3;
    let (open_ms, warmup_s) = warm_up(&served, seed)?;
    let times = SetupTimes {
        ingest_s,
        start_ms,
        open_ms,
        warmup_s,
        total_s: t0.elapsed().as_secs_f64(),
    };
    Ok((served, times))
}

/// Starts a server over an existing store directory.
pub fn start(root: &Path, journal: Option<PathBuf>, workers: usize) -> Result<Served, String> {
    let mut config = Config::new(root);
    config.job_workers = workers;
    config.journal_dir = journal.clone();
    let server = Server::start(config).map_err(|e| format!("server start: {e}"))?;
    Ok(Served {
        server,
        root: root.to_path_buf(),
        journal,
    })
}

/// Pages the store in and runs the warm-up jobs. Returns
/// (first submit's round trip in ms, warm-up seconds).
pub fn warm_up(served: &Served, seed: u64) -> Result<(f64, f64), String> {
    let t0 = Instant::now();
    page_in(&served.root.join(STORE)).map_err(|e| format!("page-in: {e}"))?;
    let mut client = Client::connect(served.server.addr())?;
    let mut open_ms = 0.0;
    for (i, job) in workload::warmup_jobs(seed).iter().enumerate() {
        let body = job.body(STORE);
        let t = Instant::now();
        let (mut status, mut text) = client.request("POST", "/v1/jobs", &body)?;
        // A journaled server answers 503 until its (empty) journal replay ends.
        let replay_deadline = t + Duration::from_secs(10);
        while status == 503 && text.contains("replaying") && Instant::now() < replay_deadline {
            std::thread::sleep(Duration::from_millis(1));
            (status, text) = client.request("POST", "/v1/jobs", &body)?;
        }
        if i == 0 {
            open_ms = t.elapsed().as_secs_f64() * 1e3;
        }
        let id = submitted_id(status, &text).map_err(err("warm-up submit"))?;
        let end = client.stream_job(id).map_err(err("warm-up stream"))?;
        let doc = json::parse(&end.line).map_err(|e| format!("warm-up doc: {e}"))?;
        if doc.get("phase").and_then(Json::as_str) != Some("done") {
            return Err(format!("warm-up job {id} did not finish: {}", end.line));
        }
    }
    Ok((open_ms, t0.elapsed().as_secs_f64()))
}

/// Reads the file through the page cache without mapping it, so the
/// server's first jobs do not pay for disk reads.
fn page_in(path: &Path) -> std::io::Result<()> {
    let mut file = std::fs::File::open(path)?;
    let mut buf = vec![0u8; 1 << 20];
    while file.read(&mut buf)? > 0 {}
    Ok(())
}

fn submitted_id(status: u16, text: &str) -> Result<u64, String> {
    if status != 202 {
        return Err(format!("{status} {text}"));
    }
    json::parse(text)
        .ok()
        .and_then(|d| d.get("id").and_then(Json::as_u64))
        .ok_or_else(|| format!("no job id in {text}"))
}

/// What every attempted job leaves behind. A run holds ~100k of these,
/// so they stay small: the benchmark's own memory counts in the
/// process's peak RSS.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// From just before the POST is written to receipt of the terminal
    /// line; infinite for a failed job, which misses every limit.
    pub latency_us: f32,
    /// POST to its 202.
    pub submit_us: f32,
    /// The served `profile.busy_us`.
    pub busy_us: u32,
    pub cached: bool,
}

impl Timing {
    pub fn done(&self) -> bool {
        self.latency_us.is_finite()
    }
}

/// One job that ended `done`.
#[derive(Clone, Debug)]
pub struct DoneJob {
    pub id: u64,
    pub timing: Timing,
    pub key: EstimateKey,
    pub scalar: Option<f64>,
}

/// A done cold job kept whole for the checks after the phase.
#[derive(Clone, Debug)]
pub struct JobRecord {
    pub client: usize,
    pub planned: Planned,
    pub done: DoneJob,
}

/// A closed-loop client's state, carried across phases.
pub struct ClientState {
    client: usize,
    stream: ClientStream,
    /// Estimates of the client's recent cold jobs, by index: what a
    /// repeat must reproduce.
    twins: BTreeMap<u64, EstimateKey>,
}

impl ClientState {
    pub fn new(seed: u64, client: usize) -> ClientState {
        ClientState {
            client,
            stream: ClientStream::new(seed, client as u64),
            twins: BTreeMap::new(),
        }
    }
}

/// Clients stop here even if their quota is not met, which then fails
/// the run; it keeps every run well inside its time limit.
pub const HARD_STOP: Duration = Duration::from_secs(100);

/// How one closed-loop phase runs.
pub struct PhaseSpec {
    pub seconds: f64,
    /// Cold non-cached `avg_degree` jobs each client must finish before
    /// it may stop (0: stop on time alone).
    pub quota: usize,
    pub trace: bool,
    pub epoch: Instant,
    /// Which done cold jobs are kept whole: each client's first
    /// `keep_first`, every `keep_every`-th, and those in the quota.
    pub keep_first: usize,
    pub keep_every: u64,
}

/// What a phase measured.
pub struct PhaseOut {
    /// Every attempted job, in each client's order.
    pub timings: Vec<Timing>,
    /// The done cold jobs [`PhaseSpec`] keeps, in each client's order.
    pub records: Vec<JobRecord>,
    pub wall_s: f64,
    /// CPU time of every thread but the benchmark's own.
    pub server_cpu_ns: u64,
    /// CPU time of the benchmark's client threads.
    pub client_cpu_ns: u64,
    /// `/metrics` over the phase.
    pub metrics: Scrape,
    pub journal_bytes: u64,
    /// Failed jobs and repeats whose estimate differed from their twin's.
    pub failures: Vec<String>,
    /// Repeats that came back done, and those the cache did not answer.
    pub repeats: usize,
    pub repeat_misses: usize,
    pub quota_met: bool,
    pub spans: Vec<Span>,
}

impl PhaseOut {
    pub fn done(&self) -> impl Iterator<Item = &Timing> {
        self.timings.iter().filter(|t| t.done())
    }

    pub fn jobs_per_s(&self) -> f64 {
        self.done().count() as f64 / self.wall_s
    }
}

fn scrape(client: &mut Client) -> Result<Scrape, String> {
    let (status, text) = client.request("GET", "/metrics", "")?;
    if status != 200 {
        return Err(format!("GET /metrics: {status}"));
    }
    Scrape::parse(&text)
}

fn dir_bytes(dir: Option<&Path>) -> u64 {
    let Some(Ok(entries)) = dir.map(std::fs::read_dir) else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// Runs `states.len()` closed-loop clients against `served` until the
/// phase's time and quota are both spent.
pub fn run_phase(
    served: &Served,
    states: &mut [ClientState],
    spec: &PhaseSpec,
) -> Result<PhaseOut, String> {
    let addr = served.server.addr();
    let mut scraper = Client::connect(addr)?;
    let before = scrape(&mut scraper)?;
    let journal_before = dir_bytes(served.journal.as_deref());
    let go = Barrier::new(states.len() + 1);
    let stop = Barrier::new(states.len() + 1);
    let main_tid = procfs::thread_id().map_err(|e| e.to_string())?;
    let (outs, wall_s, cpu) = std::thread::scope(|s| {
        let handles: Vec<_> = states
            .iter_mut()
            .map(|state| {
                let (go, stop) = (&go, &stop);
                s.spawn(move || {
                    let tid = procfs::thread_id().unwrap_or(0);
                    let cpu0 = procfs::own_cpu_ns().unwrap_or(0);
                    go.wait();
                    let mut out = client_loop(addr, state, spec);
                    out.cpu_ns = procfs::own_cpu_ns().unwrap_or(0).saturating_sub(cpu0);
                    stop.wait();
                    (tid, out)
                })
            })
            .collect();
        let cpu_before = procfs::thread_cpu_ns();
        go.wait();
        let t0 = Instant::now();
        stop.wait();
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_after = procfs::thread_cpu_ns();
        let outs: Vec<(u32, ClientOut)> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let mut bench_tids: Vec<u32> = outs.iter().map(|(tid, _)| *tid).collect();
        bench_tids.push(main_tid);
        let cpu = match (cpu_before, cpu_after) {
            (Ok(b), Ok(a)) => Ok(procfs::cpu_ns_excluding(&b, &a, &bench_tids)),
            (Err(e), _) | (_, Err(e)) => Err(format!("schedstat: {e}")),
        };
        (outs, wall_s, cpu)
    });
    let server_cpu_ns = cpu?;
    let metrics = scrape(&mut scraper)?.delta(&before);
    let journal_bytes = dir_bytes(served.journal.as_deref()).saturating_sub(journal_before);
    let mut out = PhaseOut {
        timings: Vec::new(),
        records: Vec::new(),
        wall_s,
        server_cpu_ns,
        client_cpu_ns: 0,
        metrics,
        journal_bytes,
        failures: Vec::new(),
        repeats: 0,
        repeat_misses: 0,
        quota_met: true,
        spans: Vec::new(),
    };
    for (_, o) in outs {
        out.timings.extend(o.timings);
        out.records.extend(o.records);
        out.failures.extend(o.failures);
        out.repeats += o.repeats;
        out.repeat_misses += o.repeat_misses;
        out.quota_met &= o.quota_met;
        out.client_cpu_ns += o.cpu_ns;
        out.spans.extend(o.spans);
    }
    Ok(out)
}

#[derive(Default)]
struct ClientOut {
    timings: Vec<Timing>,
    records: Vec<JobRecord>,
    failures: Vec<String>,
    repeats: usize,
    repeat_misses: usize,
    quota_met: bool,
    spans: Vec<Span>,
    cpu_ns: u64,
}

fn client_loop(addr: SocketAddr, state: &mut ClientState, spec: &PhaseSpec) -> ClientOut {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(spec.seconds);
    let hard_stop = start + HARD_STOP;
    let mut tracer = Tracer::new(spec.trace, spec.epoch, 1 + state.client as u64);
    let mut out = ClientOut {
        quota_met: spec.quota == 0,
        ..ClientOut::default()
    };
    let mut counted = 0usize;
    let mut conn: Option<Client> = None;
    loop {
        let now = Instant::now();
        if now >= hard_stop || (now >= deadline && counted >= spec.quota) {
            break;
        }
        let planned = state.stream.next_job();
        let outcome = match conn.as_mut() {
            Some(c) => Ok(c),
            None => Client::connect(addr).map(|c| conn.insert(c)),
        }
        .and_then(|c| run_job(c, &planned, &mut tracer));
        let done = match outcome {
            Ok(done) => done,
            Err(e) => {
                // The connection's state is unknown after an error.
                conn = None;
                out.failures
                    .push(format!("client {} job {}: {e}", state.client, planned.idx));
                out.timings.push(Timing {
                    latency_us: f32::INFINITY,
                    submit_us: f32::INFINITY,
                    busy_us: 0,
                    cached: false,
                });
                continue;
            }
        };
        out.timings.push(done.timing);
        if let Some(twin) = planned.repeat_of {
            out.repeats += 1;
            if !done.timing.cached {
                out.repeat_misses += 1;
            }
            if state.twins.get(&twin) != Some(&done.key) {
                out.failures.push(format!(
                    "client {} job {} repeats job {twin} but its estimate differs",
                    state.client, planned.idx
                ));
            }
            continue;
        }
        state.twins.insert(planned.idx, done.key);
        if state.twins.len() > 2 * REPEAT_WINDOW {
            state.twins.pop_first();
        }
        state.stream.finished(&planned);
        if done.timing.cached {
            continue;
        }
        let in_quota = planned.job.is_avg_degree() && counted < spec.quota;
        if in_quota {
            counted += 1;
            out.quota_met |= counted >= spec.quota;
        }
        if in_quota
            || out.records.len() < spec.keep_first
            || planned.idx.is_multiple_of(spec.keep_every)
        {
            out.records.push(JobRecord {
                client: state.client,
                planned,
                done,
            });
        }
    }
    out.spans = tracer.into_spans();
    out
}

/// Re-submits finished cold jobs over one connection; each must come
/// back from the cache with its cold twin's estimate. Returns the
/// repeats' latencies (µs) and any mismatches.
pub fn hit_probe(served: &Served, jobs: &[&JobRecord]) -> Result<(Vec<f64>, Vec<String>), String> {
    let mut conn = Client::connect(served.server.addr())?;
    let mut off = Tracer::disabled();
    let mut latencies = Vec::new();
    let mut mismatches = Vec::new();
    for r in jobs {
        let done = run_job(&mut conn, &r.planned, &mut off)?;
        if !done.timing.cached || done.key != r.done.key {
            mismatches.push(format!(
                "repeat of job {} (cached: {}) differs from its cold twin",
                r.planned.idx, done.timing.cached
            ));
        }
        latencies.push(f64::from(done.timing.latency_us));
    }
    Ok((latencies, mismatches))
}

/// Submits one job and reads its stream to the terminal line.
fn run_job(conn: &mut Client, planned: &Planned, tracer: &mut Tracer) -> Result<DoneJob, String> {
    let body = planned.job.body(STORE);
    let t_post = Instant::now();
    let (status, text) = conn.request("POST", "/v1/jobs", &body)?;
    let t_ack = Instant::now();
    let id = submitted_id(status, &text)?;
    let end = conn.stream_job(id)?;
    tracer.record(id, "client.submit", t_post, t_ack);
    tracer.record(id, "client.wait", t_ack, end.at);
    let doc = json::parse(&end.line).map_err(|e| format!("job {id}: bad document: {e}"))?;
    let phase = doc.get("phase").and_then(Json::as_str).unwrap_or("missing");
    if phase != "done" {
        return Err(format!("job {id} ended {phase}: {}", end.line.trim_end()));
    }
    let busy_us = doc
        .get("profile")
        .and_then(|p| p.get("busy_us"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let estimate = doc
        .get("estimate")
        .ok_or_else(|| format!("job {id}: done without an estimate"))?;
    Ok(DoneJob {
        id,
        timing: Timing {
            latency_us: (end.at - t_post).as_secs_f32() * 1e6,
            submit_us: (t_ack - t_post).as_secs_f32() * 1e6,
            busy_us: u32::try_from(busy_us).unwrap_or(u32::MAX),
            cached: doc.get("cached").and_then(Json::as_bool).unwrap_or(false),
        },
        key: EstimateKey::of_wire(estimate)?,
        scalar: estimate.get("scalar").and_then(Json::as_f64),
    })
}
