//! `loadgen` — concurrent-client load generator for `fs-serve`.
//!
//! Drives `N` jobs through the estimation service with `C` clients
//! keeping `C` jobs in flight at all times, records per-job latency
//! (submit → terminal) and aggregate throughput, and writes a JSON
//! summary compatible with the committed `BENCH_samplers.json`
//! (`"serve"` section).
//!
//! ```text
//! # in-process server over a store directory (the CI smoke shape):
//! loadgen --spawn --root stores --store ba.fsg --jobs 64 --concurrency 32
//!
//! # against a running server:
//! loadgen --addr 127.0.0.1:8080 --store ba.fsg --jobs 64 --concurrency 32
//! ```
//!
//! Each client thread drives one persistent keep-alive connection
//! (submit + poll share the socket), matching the reactor's intended
//! hot path.
//!
//! `--verify` additionally submits a seeded job and asserts the served
//! estimate is bit-identical to the direct library call over the same
//! store file — the serving layer's determinism guarantee, checked
//! against a *real* server.
//! `--cache-phase` re-runs the whole burst with identical specs after
//! the cold phase: every job must hit the deterministic result cache,
//! return estimate bits identical to its cold twin, and the phase as a
//! whole must beat the cold throughput by `--min-cache-speedup`
//! (default 10×) — otherwise loadgen exits nonzero.
//! `--stream-probe` opens a chunked `/v1/jobs/{id}/stream` on a
//! deliberately unbounded job and leaves it in flight across shutdown,
//! asserting the stream still ends with a clean terminal line (the
//! two-stage drain, exercised end to end).
//! `--shutdown-after` posts `/v1/shutdown` at the end (lets CI stop a
//! background server without signals).
//! `--latency-out FILE` writes the cold burst's full per-job latency
//! distribution as JSON: exact p50/p90/p99/p999 percentiles from the
//! sorted sample plus the log2-bucketed `fs-obs` histogram the serving
//! tier itself exports, cross-checked against each other.
//!
//! ## Robustness knobs (the recovery/chaos suite)
//!
//! `--max-retries R` (default 4) bounds per-job retries on *retryable*
//! failures — transport errors, `429` back-pressure, `503`
//! drain/replay — with capped exponential backoff (50 ms · 2^attempt,
//! capped at 2 s) plus deterministic jitter seeded from
//! `(seed-base, job index, attempt)`, so a chaos run's retry schedule
//! replays exactly. `0` means fail-fast. Retrying a whole job is safe:
//! results are pure functions of `(store, spec, seed)`, so a duplicate
//! submit is at worst a cache hit.
//!
//! `--submit-only` submits the burst's jobs without waiting and prints
//! `submitted FIRST:LAST` — stage one of the CI crash test (SIGKILL
//! the server mid-burst). `--recovery-probe FIRST:LAST` is stage two:
//! after the restart it polls every id through connection refusals and
//! replay `503`s until `done`, then recomputes each estimate with the
//! library and requires bit-identity — the crash must be invisible in
//! the results.

use frontier_sampling::runner::{
    ChunkStatus, ChunkedRunner, EstimateSnapshot, EstimatorSpec, JobEstimator, SamplerSpec,
};
use frontier_sampling::CostModel;
use fs_serve::json::{self, Json};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: loadgen (--spawn --root DIR | --addr HOST:PORT) --store NAME \
         [--jobs N] [--concurrency C] [--budget B] [--sampler fs] [--m M] \
         [--estimator avg_degree] [--seed-base S] [--out FILE] [--latency-out FILE] \
         [--verify --root DIR] \
         [--cache-phase] [--min-cache-speedup X] [--stream-probe] [--shutdown-after] \
         [--max-retries R] [--submit-only] [--recovery-probe FIRST:LAST --root DIR]"
    );
    std::process::exit(2);
}

/// One blocking HTTP/1.1 exchange over a fresh connection. Sends
/// `connection: close` — the server defaults to keep-alive, and this
/// helper frames the response by EOF.
fn http(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(60))).ok();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: loadgen\r\nconnection: close\r\n\
         content-length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .map_err(|e| format!("write: {e}"))?;
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .map_err(|e| format!("read: {e}"))?;
    let status: u16 = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.get(..3))
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("malformed response: {text:?}"))?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// A persistent keep-alive connection — the hot-path client. Responses
/// are framed by `content-length` (or chunked transfer for streams),
/// never by EOF, so one socket serves a whole job sequence.
struct Client {
    writer: TcpStream,
    reader: std::io::BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).ok();
        writer.set_read_timeout(Some(Duration::from_secs(60))).ok();
        let reader = std::io::BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { writer, reader })
    }

    fn send(&mut self, method: &str, path: &str, body: &str) -> Result<(), String> {
        write!(
            self.writer,
            "{method} {path} HTTP/1.1\r\nhost: loadgen\r\ncontent-length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .map_err(|e| format!("write: {e}"))
    }

    fn read_line(&mut self) -> Result<String, String> {
        use std::io::BufRead;
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed by server".into());
        }
        Ok(line)
    }

    /// Status + lowercased header lines, leaving the reader at the body.
    fn read_head(&mut self) -> Result<(u16, Vec<String>), String> {
        let status_line = self.read_line()?;
        let status: u16 = status_line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|r| r.get(..3))
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| format!("malformed status line: {status_line:?}"))?;
        let mut headers = Vec::new();
        loop {
            let line = self.read_line()?;
            let line = line.trim_end().to_ascii_lowercase();
            if line.is_empty() {
                break;
            }
            headers.push(line);
        }
        Ok((status, headers))
    }

    /// One round trip over the persistent connection.
    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        self.send(method, path, body)?;
        let (status, headers) = self.read_head()?;
        let length: usize = headers
            .iter()
            .find_map(|h| h.strip_prefix("content-length:"))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| format!("no content-length in {headers:?}"))?;
        let mut buf = vec![0u8; length];
        self.reader
            .read_exact(&mut buf)
            .map_err(|e| format!("read body: {e}"))?;
        String::from_utf8(buf)
            .map(|body| (status, body))
            .map_err(|e| e.to_string())
    }

    /// Reads one chunked-transfer chunk; `None` is the terminator.
    fn read_chunk(&mut self) -> Result<Option<String>, String> {
        let size_line = self.read_line()?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| format!("bad chunk size line {size_line:?}"))?;
        if size == 0 {
            self.read_line()?; // trailing CRLF
            return Ok(None);
        }
        let mut payload = vec![0u8; size + 2]; // payload + CRLF
        self.reader
            .read_exact(&mut payload)
            .map_err(|e| format!("read chunk: {e}"))?;
        payload.truncate(size);
        String::from_utf8(payload)
            .map(Some)
            .map_err(|e| e.to_string())
    }
}

fn get_json(addr: &str, path: &str) -> Result<Json, String> {
    let (status, body) = http(addr, "GET", path, "")?;
    if status != 200 {
        return Err(format!("GET {path}: {status} {body}"));
    }
    json::parse(&body).map_err(|e| e.to_string())
}

struct JobParams {
    store: String,
    sampler: String,
    m: usize,
    budget: f64,
    estimator: String,
}

/// Encodes a job body, submits it over the persistent connection, and
/// returns (id, phase-at-submit). A cache hit reports `done` directly
/// in the submit response — no polling round trip at all.
fn submit_job(client: &mut Client, p: &JobParams, seed: u64) -> Result<(u64, String), String> {
    let body = format!(
        "{{\"store\":\"{}\",\"sampler\":\"{}\",\"m\":{},\"budget\":{},\"seed\":{seed},\
         \"estimator\":\"{}\"}}",
        p.store, p.sampler, p.m, p.budget, p.estimator
    );
    let (status, text) = client.request("POST", "/v1/jobs", &body)?;
    if status != 202 {
        return Err(format!("submit: {status} {text}"));
    }
    let doc = json::parse(&text).map_err(|e| e.to_string())?;
    let id = doc
        .get("id")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| format!("submit: no id in {text}"))?;
    let phase = doc
        .get("phase")
        .and_then(|v| v.as_str())
        .unwrap_or("queued")
        .to_string();
    Ok((id, phase))
}

fn wait_job(client: &mut Client, id: u64) -> Result<Json, String> {
    let deadline = Instant::now() + Duration::from_secs(600);
    loop {
        let (status, body) = client.request("GET", &format!("/v1/jobs/{id}"), "")?;
        if status != 200 {
            return Err(format!("GET /v1/jobs/{id}: {status} {body}"));
        }
        let doc = json::parse(&body).map_err(|e| e.to_string())?;
        let phase = doc
            .get("phase")
            .and_then(|v| v.as_str())
            .ok_or("job doc without phase")?
            .to_string();
        match phase.as_str() {
            "done" => return Ok(doc),
            "failed" | "cancelled" => {
                return Err(format!("job {id} ended {phase}: {}", doc.encode()))
            }
            _ => {}
        }
        if Instant::now() > deadline {
            return Err(format!("job {id} timed out"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Runs one job start to finish over the persistent connection.
fn run_job(client: &mut Client, p: &JobParams, seed: u64) -> Result<Json, String> {
    let (id, _) = submit_job(client, p, seed)?;
    wait_job(client, id)
}

/// Extracts (num_observed, scalar bits, vector bits) from a final doc.
fn wire_bits(doc: &Json) -> (u64, Option<u64>, Option<Vec<u64>>) {
    let est = doc.get("estimate").expect("estimate");
    (
        est.get("num_observed")
            .and_then(|v| v.as_u64())
            .unwrap_or(0),
        est.get("scalar").and_then(|v| v.as_f64()).map(f64::to_bits),
        est.get("vector").and_then(|v| v.as_arr()).map(|items| {
            items
                .iter()
                .map(|x| x.as_f64().unwrap_or(f64::NAN).to_bits())
                .collect()
        }),
    )
}

fn snapshot_bits(s: &EstimateSnapshot) -> (u64, Option<u64>, Option<Vec<u64>>) {
    (
        s.num_observed,
        s.scalar.map(f64::to_bits),
        s.vector
            .as_ref()
            .map(|v| v.iter().map(|x| x.to_bits()).collect()),
    )
}

/// Whether a failure is worth retrying: transport-level errors (the
/// peer may be restarting, or a chaos failpoint reset the socket) and
/// the two transient HTTP statuses — `429` back-pressure and `503`
/// drain/replay. Anything else (4xx validation, job `failed`) is a
/// real answer and retrying would only mask it.
fn retryable(e: &str) -> bool {
    if e.contains(": 429 ") || e.contains(": 503 ") {
        return true;
    }
    e.starts_with("connect ")
        || e.starts_with("write:")
        || e.starts_with("read:")
        || e.starts_with("read body:")
        || e.starts_with("read chunk:")
        || e.contains("connection closed")
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Capped exponential backoff with deterministic jitter: base
/// 50 ms · 2^attempt capped at 2 s, jittered over ±half by a
/// splitmix64 stream keyed on `(seed-base, job index, attempt)` — a
/// repeated chaos run sleeps the exact same schedule.
fn backoff(attempt: u32, key: u64) -> Duration {
    let base = 50u64.saturating_mul(1 << attempt.min(5)).min(2_000);
    let jitter = splitmix64(key) % (base / 2 + 1);
    Duration::from_millis(base / 2 + jitter)
}

/// Runs `work` up to `1 + max_retries` times, backing off between
/// retryable failures. `key` seeds the deterministic jitter.
fn with_retries<T>(
    max_retries: u32,
    key: u64,
    label: &str,
    mut work: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut attempt = 0u32;
    loop {
        match work() {
            Ok(v) => return Ok(v),
            Err(e) if attempt < max_retries && retryable(&e) => {
                attempt += 1;
                let pause = backoff(attempt, key ^ u64::from(attempt));
                eprintln!(
                    "{label}: retryable failure ({e}); retry {attempt}/{max_retries} in {} ms",
                    pause.as_millis()
                );
                std::thread::sleep(pause);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Writes the burst's latency distribution as JSON: exact percentiles
/// from the sorted sample alongside the same log2-bucketed histogram
/// shape the server exports at `/metrics` — built client-side from the
/// identical `fs-obs` code, so the two views are directly comparable.
fn write_latency_out(path: &str, latencies_ms: &[f64]) {
    let hist = fs_obs::Histogram::new();
    for &ms in latencies_ms {
        hist.record((ms * 1e3).round() as u64);
    }
    let snap = hist.snapshot();
    assert_eq!(
        snap.count(),
        latencies_ms.len() as u64,
        "latency histogram lost samples"
    );
    // Cross-check: the histogram's bucketed quantile can only round a
    // value *up* to its bucket's upper bound, never below the exact
    // sample percentile.
    for q in [0.5, 0.9, 0.99] {
        let exact_us = percentile(latencies_ms, q) * 1e3;
        let bucketed_us = snap.quantile(q) as f64;
        assert!(
            bucketed_us >= exact_us.floor(),
            "histogram p{q}: bucket bound {bucketed_us} below exact {exact_us}"
        );
    }
    let round2 = |v: f64| Json::Num((v * 100.0).round() / 100.0);
    let mut buckets = Vec::new();
    let mut cumulative = 0u64;
    for (i, &c) in snap.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        cumulative += c;
        buckets.push(Json::obj([
            ("le_us", Json::from(fs_obs::hist::bucket_upper(i))),
            ("count", Json::from(cumulative)),
        ]));
    }
    let doc = Json::obj([
        ("suite", Json::from("serve-latency")),
        ("unit", Json::from("ms")),
        ("jobs", Json::from(latencies_ms.len())),
        ("p50", round2(percentile(latencies_ms, 0.50))),
        ("p90", round2(percentile(latencies_ms, 0.90))),
        ("p99", round2(percentile(latencies_ms, 0.99))),
        ("p999", round2(percentile(latencies_ms, 0.999))),
        ("max", round2(percentile(latencies_ms, 1.0))),
        (
            "histogram_us",
            Json::obj([
                ("count", Json::from(snap.count())),
                ("sum", Json::from(snap.sum)),
                ("buckets", Json::Arr(buckets)),
            ]),
        ),
    ]);
    std::fs::write(path, format!("{}\n", doc.encode())).expect("write latency-out");
    eprintln!("wrote {path}");
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

type Bits = (u64, Option<u64>, Option<Vec<u64>>);

/// One burst's outcome. `bits[i]` holds job `i`'s estimate bits (the
/// cache phase compares them against the cold phase's, job by job).
struct Burst {
    latencies: Vec<f64>,
    completed: usize,
    failed: u64,
    wall_s: f64,
    peak: usize,
    bits: Vec<Option<Bits>>,
}

/// `C` clients keep `C` jobs in flight until `N` ran, each client on
/// one persistent keep-alive connection (a transport error drops the
/// connection; the next job reconnects).
fn run_burst(
    addr: &str,
    params: &Arc<JobParams>,
    jobs: usize,
    concurrency: usize,
    seed_base: u64,
    max_retries: u32,
) -> Burst {
    let next = Arc::new(AtomicUsize::new(0));
    let in_flight = Arc::new(AtomicUsize::new(0));
    let peak_in_flight = Arc::new(AtomicUsize::new(0));
    let failures = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let addr_arc = Arc::new(addr.to_string());
    let handles: Vec<_> = (0..concurrency)
        .map(|_| {
            let next = Arc::clone(&next);
            let in_flight = Arc::clone(&in_flight);
            let peak = Arc::clone(&peak_in_flight);
            let failures = Arc::clone(&failures);
            let params = Arc::clone(params);
            let addr = Arc::clone(&addr_arc);
            std::thread::spawn(move || {
                let mut results: Vec<(usize, f64, Bits)> = Vec::new();
                let mut client: Option<Client> = None;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs {
                        return results;
                    }
                    let t0 = Instant::now();
                    let live = in_flight.fetch_add(1, Ordering::Relaxed) + 1;
                    peak.fetch_max(live, Ordering::Relaxed);
                    // Retrying the whole job (not just the failing
                    // round trip) is safe: the result is a pure
                    // function of (store, spec, seed), so a duplicate
                    // submit is at worst a result-cache hit.
                    let retry_key = splitmix64(seed_base ^ ((i as u64) << 16));
                    let outcome = with_retries(max_retries, retry_key, &format!("job {i}"), || {
                        if client.is_none() {
                            client = Some(Client::connect(&addr)?);
                        }
                        run_job(
                            client.as_mut().expect("client"),
                            &params,
                            seed_base + i as u64,
                        )
                        .inspect_err(|_| client = None)
                    });
                    in_flight.fetch_sub(1, Ordering::Relaxed);
                    match outcome {
                        Ok(doc) => {
                            results.push((i, t0.elapsed().as_secs_f64() * 1e3, wire_bits(&doc)));
                        }
                        Err(e) => {
                            eprintln!("job {i} failed: {e}");
                            failures.fetch_add(1, Ordering::Relaxed);
                            client = None;
                        }
                    }
                }
            })
        })
        .collect();
    let mut latencies: Vec<f64> = Vec::with_capacity(jobs);
    let mut bits: Vec<Option<Bits>> = vec![None; jobs];
    for h in handles {
        for (i, ms, b) in h.join().expect("client thread panicked") {
            latencies.push(ms);
            bits[i] = Some(b);
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.total_cmp(b));
    Burst {
        completed: latencies.len(),
        failed: failures.load(Ordering::Relaxed),
        wall_s,
        peak: peak_in_flight.load(Ordering::Relaxed),
        latencies,
        bits,
    }
}

/// Stage two of the crash test: after a SIGKILL + restart, every job
/// submitted before the crash must reach `done` with estimate bits
/// identical to the direct library run — the crash must be invisible
/// in the results. Polls through connection refusals (server still
/// starting) and `503`s (journal replay in progress); exits nonzero on
/// any non-`done` outcome or bit mismatch.
///
/// The sampler/estimator parameters come from the CLI flags (the job
/// document reports the sampler as a display label, not a wire name);
/// each job's `seed` and `budget` are taken from its served document.
fn run_recovery_probe(addr: &str, root: Option<&str>, p: &JobParams, first: u64, last: u64) {
    let Some(root) = root else {
        eprintln!("--recovery-probe requires --root DIR (to open the store directly)");
        std::process::exit(2);
    };
    let graph = fs_store::MmapGraph::open(std::path::Path::new(root).join(&p.store))
        .expect("open store for recovery verification");
    let spec = SamplerSpec::parse(&p.sampler, p.m, 0.0).expect("sampler");
    let est_spec = EstimatorSpec::parse(&p.estimator).expect("estimator");

    let deadline = Instant::now() + Duration::from_secs(300);
    let mut verified = 0u64;
    for id in first..=last {
        // One-shot connections: the probe must survive the server
        // being gone entirely between polls.
        let doc = loop {
            match http(addr, "GET", &format!("/v1/jobs/{id}"), "") {
                Ok((200, body)) => {
                    let doc = json::parse(&body).expect("job doc");
                    let phase = doc
                        .get("phase")
                        .and_then(|v| v.as_str())
                        .unwrap_or("?")
                        .to_string();
                    match phase.as_str() {
                        "done" => break doc,
                        "queued" | "running" => {}
                        other => {
                            eprintln!("RECOVERY PROBE: job {id} ended '{other}': {}", doc.encode());
                            std::process::exit(1);
                        }
                    }
                }
                Ok((503, _)) => {} // restart drain or journal replay
                Ok((status, body)) => {
                    eprintln!("RECOVERY PROBE: GET /v1/jobs/{id}: {status} {body}");
                    std::process::exit(1);
                }
                Err(e) => eprintln!("recovery probe: job {id}: {e} (server restarting?)"),
            }
            if Instant::now() > deadline {
                eprintln!("RECOVERY PROBE: job {id} never reached a terminal phase");
                std::process::exit(1);
            }
            std::thread::sleep(Duration::from_millis(100));
        };
        let seed = doc
            .get("seed")
            .and_then(|v| v.as_u64())
            .expect("job doc seed");
        let job_budget = doc
            .get("budget")
            .and_then(|v| v.as_f64())
            .expect("job doc budget");
        let mut est = JobEstimator::new(est_spec, &spec).expect("combo");
        let mut runner = ChunkedRunner::new(&spec, &graph, &CostModel::unit(), job_budget, seed);
        while runner.run_chunk(usize::MAX, |s| est.observe(&graph, s)) == ChunkStatus::InProgress {}
        if wire_bits(&doc) != snapshot_bits(&est.snapshot()) {
            eprintln!(
                "RECOVERY BIT-IDENTITY VIOLATION: job {id} (seed {seed}) differs from the \
                 uninterrupted library run"
            );
            std::process::exit(1);
        }
        verified += 1;
    }
    if let Ok(health) = get_json(addr, "/healthz") {
        eprintln!(
            "recovery probe: healthz after recovery: {}",
            health.encode()
        );
    }
    eprintln!(
        "recovery probe: jobs {first}..={last} all done, {verified} estimates bit-identical \
         to the uninterrupted run"
    );
}

#[allow(clippy::too_many_lines)]
fn main() {
    let mut root: Option<String> = None;
    let mut addr: Option<String> = None;
    let mut spawn = false;
    let mut store = "ba.fsg".to_string();
    let mut jobs = 64usize;
    let mut concurrency = 32usize;
    let mut budget = 20_000.0f64;
    let mut sampler = "fs".to_string();
    let mut m = 16usize;
    let mut estimator = "avg_degree".to_string();
    let mut seed_base = 1_000u64;
    let mut out: Option<String> = None;
    let mut latency_out: Option<String> = None;
    let mut verify = false;
    let mut cache_phase = false;
    let mut min_cache_speedup = 10.0f64;
    let mut stream_probe = false;
    let mut shutdown_after = false;
    let mut max_retries = 4u32;
    let mut submit_only = false;
    let mut recovery_probe: Option<String> = None;

    use fs_bench::parsed_arg as parsed;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = args.next(),
            "--addr" => addr = args.next(),
            "--spawn" => spawn = true,
            "--store" => store = parsed(args.next(), "--store"),
            "--jobs" => jobs = parsed(args.next(), "--jobs"),
            "--concurrency" => concurrency = parsed(args.next(), "--concurrency"),
            "--budget" => budget = parsed(args.next(), "--budget"),
            "--sampler" => sampler = parsed(args.next(), "--sampler"),
            "--m" => m = parsed(args.next(), "--m"),
            "--estimator" => estimator = parsed(args.next(), "--estimator"),
            "--seed-base" => seed_base = parsed(args.next(), "--seed-base"),
            "--out" => out = args.next(),
            "--latency-out" => latency_out = args.next(),
            "--verify" => verify = true,
            "--cache-phase" => cache_phase = true,
            "--min-cache-speedup" => min_cache_speedup = parsed(args.next(), "--min-cache-speedup"),
            "--stream-probe" => stream_probe = true,
            "--shutdown-after" => shutdown_after = true,
            "--max-retries" => max_retries = parsed(args.next(), "--max-retries"),
            "--submit-only" => submit_only = true,
            "--recovery-probe" => recovery_probe = args.next(),
            _ => usage(),
        }
    }

    // Start (or find) the server.
    let spawned = if spawn {
        let Some(root) = root.as_deref() else {
            eprintln!("--spawn requires --root DIR");
            std::process::exit(2);
        };
        let mut config = fs_serve::Config::new(root);
        config.job_workers = 4;
        let server = fs_serve::Server::start(config).expect("start server");
        eprintln!("spawned server on {}", server.addr());
        Some(server)
    } else {
        None
    };
    let addr = match (&spawned, addr) {
        (Some(server), _) => server.addr().to_string(),
        (None, Some(a)) => a,
        (None, None) => usage(),
    };

    // ---- Recovery probe: stage two of the crash test (the server may
    // still be restarting or replaying — tolerate both). ----
    if let Some(range) = recovery_probe {
        let Some((first, last)) = range
            .split_once(':')
            .and_then(|(a, b)| Some((a.parse::<u64>().ok()?, b.parse::<u64>().ok()?)))
        else {
            eprintln!("bad --recovery-probe value '{range}' (want FIRST:LAST)");
            std::process::exit(2);
        };
        let probe_params = JobParams {
            store: store.clone(),
            sampler: sampler.clone(),
            m,
            budget,
            estimator: estimator.clone(),
        };
        run_recovery_probe(&addr, root.as_deref(), &probe_params, first, last);
        if shutdown_after {
            let _ = http(&addr, "POST", "/v1/shutdown", "");
            eprintln!("posted /v1/shutdown");
        }
        return;
    }

    let health = get_json(&addr, "/healthz").expect("server health");
    eprintln!("server healthy: {}", health.encode());

    let params = Arc::new(JobParams {
        store: store.clone(),
        sampler: sampler.clone(),
        m,
        budget,
        estimator: estimator.clone(),
    });

    // ---- Submit-only: stage one of the crash test — load the queue,
    // print the id range, and leave without collecting results (the
    // harness SIGKILLs the server while these jobs are in flight). ----
    if submit_only {
        let mut client = Client::connect(&addr).expect("connect");
        let mut first: Option<u64> = None;
        let mut last = 0u64;
        for i in 0..jobs {
            let key = splitmix64(seed_base ^ ((i as u64) << 16) ^ 0xB007);
            let (id, _) = with_retries(max_retries, key, &format!("submit {i}"), || {
                submit_job(&mut client, &params, seed_base + i as u64)
            })
            .expect("submit-only: submission failed");
            first.get_or_insert(id);
            last = id;
        }
        let first = first.expect("submitted at least one job");
        eprintln!("submit-only: {jobs} jobs queued, ids {first}..={last}");
        // Stdout is the machine-readable contract the harness captures.
        println!("submitted {first}:{last}");
        return;
    }

    // ---- Cold burst: C clients keep C jobs in flight until N ran. ----
    let cold = run_burst(&addr, &params, jobs, concurrency, seed_base, max_retries);
    eprintln!(
        "cold phase: {}/{jobs} jobs, {:.1} jobs/s, p50 {:.1} ms",
        cold.completed,
        cold.completed as f64 / cold.wall_s,
        percentile(&cold.latencies, 0.5)
    );
    let mut total_failed = cold.failed;
    if let Some(path) = &latency_out {
        write_latency_out(path, &cold.latencies);
    }

    // ---- Cache phase: the identical burst again — every job must hit
    // the result cache, match its cold twin bit for bit, and the phase
    // must clear the speedup bar. ----
    let mut cached_summary = Json::Null;
    if cache_phase {
        let warm = run_burst(&addr, &params, jobs, concurrency, seed_base, max_retries);
        total_failed += warm.failed;
        let mismatched = cold
            .bits
            .iter()
            .zip(warm.bits.iter())
            .filter(|(a, b)| matches!((a, b), (Some(a), Some(b)) if a != b))
            .count();
        if mismatched > 0 {
            eprintln!(
                "CACHE BYTE-IDENTITY VIOLATION: {mismatched} cached jobs differ from their cold twins"
            );
            std::process::exit(1);
        }
        let cold_tp = cold.completed as f64 / cold.wall_s;
        let warm_tp = warm.completed as f64 / warm.wall_s;
        let speedup = warm_tp / cold_tp.max(1e-9);
        eprintln!(
            "cache phase: {:.0} jobs/s vs cold {:.0} jobs/s ({speedup:.1}x), estimates bit-identical",
            warm_tp, cold_tp
        );
        if speedup < min_cache_speedup {
            eprintln!("CACHE SPEEDUP TOO LOW: {speedup:.1}x < required {min_cache_speedup}x");
            std::process::exit(1);
        }
        cached_summary = Json::obj([
            ("jobs", Json::from(warm.completed)),
            ("wall_s", Json::Num((warm.wall_s * 1e3).round() / 1e3)),
            (
                "throughput_jobs_per_sec",
                Json::Num((warm_tp * 10.0).round() / 10.0),
            ),
            (
                "latency_ms_p50",
                Json::Num((percentile(&warm.latencies, 0.50) * 100.0).round() / 100.0),
            ),
            (
                "speedup_vs_cold",
                Json::Num((speedup * 10.0).round() / 10.0),
            ),
            ("bit_identical_to_cold", Json::Bool(true)),
        ]);
    }

    // ---- Optional determinism verification against the library. ----
    let mut verified = Json::Null;
    if verify {
        let Some(root) = root.as_deref() else {
            eprintln!("--verify requires --root DIR (to open the store directly)");
            std::process::exit(2);
        };
        let graph = fs_store::MmapGraph::open(std::path::Path::new(root).join(&store))
            .expect("open store for verification");
        let vseed = 424_242u64;
        // Verify the sampler the burst actually used (jobs are
        // submitted without an alpha field, which the server reads as
        // 0.0 — match that here).
        let spec = SamplerSpec::parse(&sampler, m, 0.0).expect("sampler");
        let est_spec = EstimatorSpec::parse(&estimator).expect("estimator");

        // Library reference.
        let seq_expect = {
            let mut est = JobEstimator::new(est_spec, &spec).expect("combo");
            let mut runner = ChunkedRunner::new(&spec, &graph, &CostModel::unit(), budget, vseed);
            while runner.run_chunk(usize::MAX, |s| est.observe(&graph, s))
                == ChunkStatus::InProgress
            {}
            snapshot_bits(&est.snapshot())
        };
        let vp = JobParams {
            store: store.clone(),
            sampler: sampler.clone(),
            m,
            budget,
            estimator: estimator.clone(),
        };
        let mut vclient = Client::connect(&addr).expect("verify connect");
        let doc = run_job(&mut vclient, &vp, vseed).expect("verification job (sequential)");
        assert_eq!(
            wire_bits(&doc),
            seq_expect,
            "SEQUENTIAL DETERMINISM VIOLATION: served != library"
        );

        eprintln!("verified: seeded {sampler} job bit-identical to library");
        verified = Json::Bool(true);
    }

    // ---- Stream probe: a chunked stream left in flight across
    // shutdown must still end with a terminal line and a clean chunk
    // terminator. ----
    let probe_state = if stream_probe {
        let mut pc = Client::connect(&addr).expect("probe connect");
        let probe_params = JobParams {
            store: store.clone(),
            sampler: sampler.clone(),
            m,
            // Deliberately unbounded: only cancellation (DELETE or the
            // shutdown sequence) ends this job.
            budget: 1e9,
            estimator: estimator.clone(),
        };
        let (pid, _) = submit_job(&mut pc, &probe_params, 777_777).expect("probe submit");
        pc.send("GET", &format!("/v1/jobs/{pid}/stream"), "")
            .expect("probe stream request");
        let (status, headers) = pc.read_head().expect("probe stream head");
        assert_eq!(status, 200, "probe stream head: {headers:?}");
        assert!(
            headers.iter().any(|h| h == "transfer-encoding: chunked"),
            "probe stream not chunked: {headers:?}"
        );
        let first = pc
            .read_chunk()
            .expect("probe first line")
            .expect("probe stream ended before shutdown");
        assert!(
            json::parse(first.trim_end()).is_ok(),
            "probe line is not JSON: {first:?}"
        );
        eprintln!("stream probe: job {pid} streaming");
        Some((pc, pid))
    } else {
        None
    };

    if shutdown_after {
        let _ = http(&addr, "POST", "/v1/shutdown", "");
        eprintln!("posted /v1/shutdown");
    }
    // An owned server runs its two-stage shutdown on a side thread so
    // the probe stream (if any) is genuinely in flight while the
    // server drains — the scenario the reactor's quit-grace exists for.
    let owned_shutdown = spawned.map(|server| std::thread::spawn(move || server.shutdown()));

    let mut probe_summary = Json::Null;
    if let Some((mut pc, pid)) = probe_state {
        if owned_shutdown.is_none() && !shutdown_after {
            // Nothing will stop the unbounded job for us: cancel it.
            let _ = http(&addr, "DELETE", &format!("/v1/jobs/{pid}"), "");
        }
        let mut lines = 1u64;
        let mut last: Option<Json> = None;
        loop {
            match pc.read_chunk() {
                Ok(Some(line)) => {
                    lines += 1;
                    last = json::parse(line.trim_end()).ok();
                }
                Ok(None) => break,
                Err(e) => {
                    eprintln!("STREAM PROBE BROKEN: stream died without terminator: {e}");
                    std::process::exit(1);
                }
            }
        }
        let phase = last
            .as_ref()
            .and_then(|d| d.get("phase"))
            .and_then(|v| v.as_str())
            .unwrap_or("?")
            .to_string();
        if !matches!(phase.as_str(), "done" | "cancelled" | "failed") {
            eprintln!("STREAM PROBE: last line is not terminal (phase {phase})");
            std::process::exit(1);
        }
        eprintln!("stream probe: {lines} lines, clean terminator, terminal phase '{phase}'");
        probe_summary = Json::obj([
            ("lines", Json::from(lines)),
            ("terminal_phase", Json::from(phase)),
        ]);
    }
    if let Some(handle) = owned_shutdown {
        handle.join().expect("server shutdown thread");
        eprintln!("spawned server shut down cleanly");
    }

    let summary = Json::obj([
        ("suite", Json::from("serve-loadgen")),
        ("store", Json::from(store)),
        ("sampler", Json::from(sampler)),
        ("m", Json::from(m)),
        ("estimator", Json::from(estimator)),
        ("budget_per_job", Json::Num(budget)),
        ("jobs", Json::from(jobs)),
        ("concurrency", Json::from(concurrency)),
        ("peak_in_flight", Json::from(cold.peak)),
        ("completed", Json::from(cold.completed)),
        ("failed", Json::from(total_failed)),
        ("wall_s", Json::Num((cold.wall_s * 1e3).round() / 1e3)),
        (
            "throughput_jobs_per_sec",
            Json::Num((cold.completed as f64 / cold.wall_s * 10.0).round() / 10.0),
        ),
        (
            "steps_per_sec_aggregate",
            Json::Num((cold.completed as f64 * budget / cold.wall_s).round()),
        ),
        (
            "latency_ms",
            Json::obj([
                (
                    "p50",
                    Json::Num((percentile(&cold.latencies, 0.50) * 10.0).round() / 10.0),
                ),
                (
                    "p90",
                    Json::Num((percentile(&cold.latencies, 0.90) * 10.0).round() / 10.0),
                ),
                (
                    "p95",
                    Json::Num((percentile(&cold.latencies, 0.95) * 10.0).round() / 10.0),
                ),
                (
                    "p99",
                    Json::Num((percentile(&cold.latencies, 0.99) * 10.0).round() / 10.0),
                ),
                (
                    "max",
                    Json::Num((percentile(&cold.latencies, 1.0) * 10.0).round() / 10.0),
                ),
            ]),
        ),
        ("cached", cached_summary),
        ("stream_probe", probe_summary),
        ("verified_bit_identical", verified),
    ]);
    let text = summary.encode();
    println!("{text}");
    if let Some(path) = out {
        std::fs::write(&path, format!("{text}\n")).expect("write summary");
        eprintln!("wrote {path}");
    }
    if total_failed > 0 {
        std::process::exit(1);
    }
}
