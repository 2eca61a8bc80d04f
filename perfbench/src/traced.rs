//! The traced run (`--trace 1`): the per-layer metrics, the span
//! replay that measures the library layers, the reconciliation with
//! served busy time, and the dominance predictions.

use crate::run::{self, ClientState, PhaseOut, PhaseSpec, Served, STORE};
use crate::trace::{self, Tracer};
use crate::workload::{Workload, REPLAY_JOBS};
use crate::{calib, m, procfs, replay, result_json, stats, Args, Ctx, Metric, PER_LAYER};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Cache hits the hit-latency metric needs; a phase with fewer gets
/// this many re-submits of its finished jobs after it.
const HIT_PROBE: usize = 20;

pub fn traced_run(
    ctx: &Ctx,
    served: Served,
    states: &mut [ClientState],
    args: &Args,
    base: &Path,
) -> Result<String, String> {
    let workload = ctx.workload;
    let epoch = Instant::now();
    let phase_spec = |trace| PhaseSpec {
        seconds: args.seconds / 3.0,
        quota: 0,
        trace,
        epoch,
        keep_first: REPLAY_JOBS.max(HIT_PROBE),
        keep_every: u64::MAX,
    };
    // Untraced: the /metrics, OS and client-side layer numbers.
    let a = run::run_phase(&served, states, &phase_spec(false))?;
    // The journal's share: the same stream against a server over the
    // same store with the crash-safe journal on.
    let journaled = {
        let other = run::start(&served.root, Some(served.root.join("journal")), ctx.nproc)?;
        let phase = run::warm_up(&other, args.seed)
            .and_then(|_| run::run_phase(&other, states, &phase_spec(false)));
        other.server.shutdown();
        phase?
    };
    // A phase with too few repeats still gets a cache-hit latency:
    // re-submit some of its finished jobs.
    let hits: Vec<f64> = a
        .done()
        .filter(|t| t.cached)
        .map(|t| f64::from(t.latency_us))
        .collect();
    let (hit_latencies_us, probe_mismatches, probed) = if hits.len() >= HIT_PROBE {
        (hits, Vec::new(), 0)
    } else {
        let twins: Vec<&run::JobRecord> = a.records.iter().take(HIT_PROBE).collect();
        let (latencies, mismatches) = run::hit_probe(&served, &twins)?;
        (latencies, mismatches, twins.len())
    };
    // Traced: client spans, then library spans over a sample of its jobs.
    let b = run::run_phase(&served, states, &phase_spec(true))?;
    let serve_hwm_kib = procfs::vm_hwm_kib().map_err(|e| e.to_string())?;
    let store = served.root.join(STORE);
    served.server.shutdown();

    let graph = fs_store::MmapGraph::open(&store).map_err(|e| format!("open {store:?}: {e}"))?;
    let mut tracer = Tracer::new(true, epoch, 0);
    let mut replayed = Vec::new();
    let mut mismatches = Vec::new();
    for r in b.records.iter().take(REPLAY_JOBS) {
        let job = &r.planned.job;
        let out = replay::replay_job(&graph, job, r.done.id, &mut tracer);
        if out.key != r.done.key {
            mismatches.push(format!(
                "replayed job {} differs from its served estimate",
                r.done.id
            ));
        }
        let events = if job.is_fs() {
            replay::replay_batch(&graph, job, r.done.id, out.steps, &mut tracer)
        } else {
            0
        };
        replayed.push(ReplayedJob {
            fs: job.is_fs(),
            busy_us: r.done.timing.busy_us,
            counts: out,
            events,
        });
    }
    let mut spans = tracer.into_spans();
    spans.extend(b.spans.iter().cloned());
    let _ = std::fs::create_dir_all(base);
    let trace_path = base.join(format!("trace-{}.ndjson", workload.name()));
    trace::write_ndjson(&spans, &trace_path).map_err(|e| format!("write {trace_path:?}: {e}"))?;
    let calib_after = calib::probe_median_ms();

    let layers = Layers::measure(&spans, &replayed);
    let mut report = String::new();
    let metrics = per_layer_metrics(
        ctx,
        &a,
        &journaled,
        &b,
        &layers,
        &hit_latencies_us,
        serve_hwm_kib,
        calib_after,
        &mut report,
    );
    println!("{report}");
    println!(
        "cache.hit_latency_us_p50 over {} hits{}",
        hit_latencies_us.len(),
        if probed > 0 {
            " re-submitted after the untraced phase"
        } else {
            " of the untraced phase"
        }
    );
    println!(
        "trace: {} spans written to {}",
        spans.len(),
        trace_path.display()
    );
    print_predictions(workload, &a, &journaled);

    let phases = [&a, &journaled, &b];
    let attempted: usize = probed + phases.iter().map(|p| p.timings.len()).sum::<usize>();
    let mut failures: Vec<String> = phases.iter().flat_map(|p| p.failures.clone()).collect();
    failures.extend(mismatches);
    failures.extend(probe_mismatches);
    for f in failures.iter().take(10) {
        println!("FAILED: {f}");
    }
    result_json(
        failures.is_empty(),
        attempted,
        failures.len(),
        &metrics,
        &PER_LAYER,
    )
}

/// One replayed job: its served busy time and what the replay counted.
struct ReplayedJob {
    fs: bool,
    busy_us: u32,
    counts: replay::Replayed,
    /// Events `batch.advance` generated (FS jobs only).
    events: u64,
}

/// Library-layer totals from the replayed sample.
struct Layers {
    /// Per span name: (calls, self ns), over the replay spans.
    self_ns: std::collections::BTreeMap<&'static str, (u64, u64)>,
    /// Served busy time of the replayed jobs.
    busy_ns: f64,
    steps: u64,
    samples: u64,
    queries: u64,
    fs_steps: u64,
    fs_run_chunk_ns: u64,
    fs_events: u64,
    /// Client spans of the traced phase: (submit, wait) self ns per job.
    client_submit_ns: f64,
    client_wait_ns: f64,
    client_jobs: usize,
}

impl Layers {
    fn measure(spans: &[trace::Span], replayed: &[ReplayedJob]) -> Layers {
        let self_ns = trace::self_by_name(spans);
        let fs_ids: BTreeSet<u64> = spans
            .iter()
            .filter(|s| s.name == "replay.batch")
            .map(|s| s.job)
            .collect();
        let fs_run_chunk_ns = spans
            .iter()
            .zip(trace::self_times(spans))
            .filter(|(s, _)| s.name == "runner.run_chunk" && fs_ids.contains(&s.job))
            .map(|(_, ns)| ns)
            .sum();
        let client = |name| self_ns.get(name).map_or(0.0, |&(_, ns)| ns as f64);
        Layers {
            busy_ns: replayed.iter().map(|r| f64::from(r.busy_us) * 1e3).sum(),
            steps: replayed.iter().map(|r| r.counts.steps).sum(),
            samples: replayed.iter().map(|r| r.counts.samples).sum(),
            queries: replayed.iter().map(|r| r.counts.queries).sum(),
            fs_steps: replayed
                .iter()
                .filter(|r| r.fs)
                .map(|r| r.counts.steps)
                .sum(),
            fs_events: replayed.iter().map(|r| r.events).sum(),
            fs_run_chunk_ns,
            client_submit_ns: client("client.submit"),
            client_wait_ns: client("client.wait"),
            client_jobs: self_ns.get("client.wait").map_or(0, |&(n, _)| n as usize),
            self_ns,
        }
    }

    fn total(&self, name: &str) -> f64 {
        self.self_ns.get(name).map_or(0.0, |&(_, ns)| ns as f64)
    }

    fn per_call_us(&self, name: &str) -> f64 {
        self.self_ns
            .get(name)
            .map_or(0.0, |&(n, ns)| ns as f64 / 1e3 / n.max(1) as f64)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[allow(clippy::too_many_arguments)]
fn per_layer_metrics(
    ctx: &Ctx,
    a: &PhaseOut,
    journaled: &PhaseOut,
    b: &PhaseOut,
    l: &Layers,
    hit_latencies_us: &[f64],
    serve_hwm_kib: u64,
    calib_after: f64,
    report: &mut String,
) -> Vec<Metric> {
    let cold: Vec<&run::Timing> = a.done().filter(|t| !t.cached).collect();
    let hits = a.done().filter(|t| t.cached).count();
    let done = cold.len() + hits;
    let attempted = a.timings.len().max(1) as f64;
    let p50 = |v: Vec<f64>| stats::nearest_rank(&stats::sorted(v), 0.5).map_or(0.0, |r| r.0);
    let walk_ns = l.total("runner.run_chunk") + l.total("estimator.observe");
    let batch_ns_per_event = ratio(l.total("batch.advance"), l.fs_events as f64);
    let metrics = vec![
        m("store.ingest_s", ctx.setup_median(|s| s.ingest_s), "s"),
        m("store.open_ms", ctx.setup_median(|s| s.open_ms), "ms"),
        m("serve.start_ms", ctx.setup_median(|s| s.start_ms), "ms"),
        m("setup.warmup_s", ctx.setup_median(|s| s.warmup_s), "s"),
        m(
            "serve.submit_rtt_us",
            p50(a.done().map(|t| f64::from(t.submit_us)).collect()),
            "us",
        ),
        m(
            "serve.busy_ms_per_job",
            ratio(
                cold.iter().map(|t| f64::from(t.busy_us)).sum::<f64>() / 1e3,
                cold.len() as f64,
            ),
            "ms",
        ),
        m(
            "serve.nonbusy_ms_p50",
            p50(cold
                .iter()
                .map(|t| (f64::from(t.latency_us) - f64::from(t.busy_us)) / 1e3)
                .collect()),
            "ms",
        ),
        m(
            "serve.chunk_us_p50",
            a.metrics
                .quantile("fs_job_chunk_latency_us", 0.5)
                .unwrap_or(0.0),
            "us",
        ),
        m(
            "serve.requests_per_job",
            // The closing /metrics scrape counts itself.
            (a.metrics.get("fs_reactor_requests_total") - 1.0) / attempted,
            "count",
        ),
        m(
            "serve.chunks_per_job",
            ratio(a.metrics.get("fs_job_chunks_total"), cold.len() as f64),
            "count",
        ),
        m("serve.peak_rss_mb", serve_hwm_kib as f64 / 1024.0, "MiB"),
        m("cache.hit_ratio", ratio(hits as f64, done as f64), "ratio"),
        m(
            "cache.hit_latency_us_p50",
            p50(hit_latencies_us.to_vec()),
            "us",
        ),
        m(
            "journal.bytes_per_job",
            ratio(
                journaled.journal_bytes as f64,
                journaled.timings.len() as f64,
            ),
            "B",
        ),
        m(
            "journal.checkpoints_per_job",
            ratio(
                journaled
                    .metrics
                    .get("fs_journal_checkpoints_written_total"),
                journaled.timings.len() as f64,
            ),
            "count",
        ),
        m("runner.new_us", l.per_call_us("runner.new"), "us"),
        m(
            "runner.ns_per_step",
            ratio(l.total("runner.run_chunk"), l.steps as f64),
            "ns",
        ),
        m("batch.ns_per_event", batch_ns_per_event, "ns"),
        m(
            "runner.merge_ns_per_step",
            if l.fs_steps > 0 {
                l.fs_run_chunk_ns as f64 / l.fs_steps as f64 - batch_ns_per_event
            } else {
                0.0
            },
            "ns",
        ),
        m(
            "runner.samples_per_step",
            ratio(l.samples as f64, l.steps as f64),
            "count",
        ),
        m(
            "graph.queries_per_step",
            ratio(l.queries as f64, l.steps as f64),
            "count",
        ),
        m(
            "estimator.observe_ns_per_sample",
            ratio(l.total("estimator.observe"), l.samples as f64),
            "ns",
        ),
        m(
            "estimator.snapshot_us",
            l.per_call_us("estimator.snapshot"),
            "us",
        ),
        m("json.encode_us", l.per_call_us("json.encode"), "us"),
        m(
            "checkpoint.serialize_us",
            l.per_call_us("checkpoint.serialize"),
            "us",
        ),
        m("trace.gap_frac", 1.0 - ratio(walk_ns, l.busy_ns), "ratio"),
        m(
            "trace.overhead_frac",
            1.0 - ratio(b.jobs_per_s(), a.jobs_per_s()),
            "ratio",
        ),
        m(
            "host.calib_ms",
            stats::median(&[ctx.calib_before, calib_after]),
            "ms",
        ),
    ];
    let _ = writeln!(
        report,
        "untraced phase: {:.3} s, {} jobs ({} cache hits), {:.3} jobs/s; journaled phase: {:.3} jobs/s; traced phase: {:.3} jobs/s",
        a.wall_s,
        a.timings.len(),
        hits,
        a.jobs_per_s(),
        journaled.jobs_per_s(),
        b.jobs_per_s()
    );
    for x in &metrics {
        let _ = writeln!(
            report,
            "  {:<32} {:>14.6} {:<6} -> {}",
            x.name,
            x.value,
            x.unit,
            moves(x.name)
        );
    }
    // Reconciliation: the replayed jobs' served busy time against the
    // self time of the layers that run inside it.
    let _ = writeln!(
        report,
        "reconciliation over {} replayed jobs: served busy {:.3} ms = runner.run_chunk {:.3} ms + estimator.observe {:.3} ms + gap {:.3} ms",
        l.self_ns.get("replay.job").map_or(0, |e| e.0),
        l.busy_ns / 1e6,
        l.total("runner.run_chunk") / 1e6,
        l.total("estimator.observe") / 1e6,
        (l.busy_ns - walk_ns) / 1e6
    );
    let _ = writeln!(
        report,
        "outside busy, per replayed job: runner.new {:.1} us, snapshot {:.1} us, json.encode {:.1} us, checkpoint.serialize {:.1} us, replay.job self {:.1} us",
        l.per_call_us("runner.new"),
        l.total("estimator.snapshot") / 1e3 / l.self_ns.get("replay.job").map_or(1, |e| e.0) as f64,
        l.total("json.encode") / 1e3 / l.self_ns.get("replay.job").map_or(1, |e| e.0) as f64,
        l.total("checkpoint.serialize") / 1e3 / l.self_ns.get("replay.job").map_or(1, |e| e.0) as f64,
        l.per_call_us("replay.job"),
    );
    let _ = write!(
        report,
        "client spans, traced phase: {} jobs, submit {:.1} us/job, wait {:.1} us/job",
        l.client_jobs,
        ratio(l.client_submit_ns / 1e3, l.client_jobs as f64),
        ratio(l.client_wait_ns / 1e3, l.client_jobs as f64)
    );
    metrics
}

/// The end-to-end metric and workload each layer metric should move.
fn moves(name: &str) -> &'static str {
    match name {
        "store.ingest_s" | "store.open_ms" | "serve.start_ms" | "setup.warmup_s" => {
            "setup_s, mostly gab_short"
        }
        "serve.submit_rtt_us" => "latency_p50_ms on mixed_short",
        "serve.busy_ms_per_job" | "serve.chunk_us_p50" => "jobs_per_s on gab_short",
        "serve.nonbusy_ms_p50" => "latency_p50_ms on mixed_short",
        "serve.requests_per_job"
        | "serve.chunks_per_job"
        | "runner.samples_per_step"
        | "graph.queries_per_step" => "exact count, a guard",
        "serve.peak_rss_mb" => "peak_rss_mb, mostly mixed_short",
        "cache.hit_ratio" => "jobs_per_s on mixed_short (exact by design)",
        "cache.hit_latency_us_p50" => "latency_p50_ms on mixed_short",
        "journal.bytes_per_job" | "journal.checkpoints_per_job" | "checkpoint.serialize_us" => {
            "latency of the traced run's journaled phase; the timed runs are journal-free"
        }
        "runner.new_us" | "estimator.snapshot_us" | "json.encode_us" => {
            "latency_p50_ms on mixed_short"
        }
        "runner.ns_per_step" | "batch.ns_per_event" | "estimator.observe_ns_per_sample" => {
            "jobs_per_s on gab_short"
        }
        "runner.merge_ns_per_step" => "jobs_per_s on gab_short, less on mixed_short",
        "trace.gap_frac" => "busy time no layer span accounts for",
        "trace.overhead_frac" => "traced against untraced jobs_per_s",
        "host.calib_ms" => "host drift only; never applied to a metric",
        _ => "",
    }
}

/// Checks the dominance predictions recorded for each workload and
/// prints each as held or wrong.
fn print_predictions(workload: Workload, a: &PhaseOut, journaled: &PhaseOut) {
    let cold = || a.done().filter(|t| !t.cached);
    let latency: f64 = cold().map(|t| f64::from(t.latency_us)).sum();
    let busy: f64 = cold().map(|t| f64::from(t.busy_us)).sum();
    let verdict = |held: bool| if held { "held" } else { "wrong" };
    let walk_share = ratio(busy, latency);
    match workload {
        Workload::GabShort => println!(
            "prediction: the walk dominates gab_short: busy/latency = {walk_share:.3} (>= 0.5): {}",
            verdict(walk_share >= 0.5)
        ),
        Workload::MixedShort => println!(
            "prediction: the serve layers dominate mixed_short: (latency - busy)/latency = {:.3} (>= 0.5): {}",
            1.0 - walk_share,
            verdict(1.0 - walk_share >= 0.5)
        ),
    }
    let p50 = |p: &PhaseOut, f: fn(&run::Timing) -> f32| {
        stats::nearest_rank(&stats::sorted(p.done().map(|t| f64::from(f(t)))), 0.5)
            .map_or(0.0, |r| r.0)
    };
    let lat = p50(journaled, |t| t.latency_us) - p50(a, |t| t.latency_us);
    let submit = p50(journaled, |t| t.submit_us) - p50(a, |t| t.submit_us);
    println!(
        "prediction: the journal adds latency on {}: latency p50 {lat:+.1} us, submit rtt p50 {submit:+.1} us, jobs/s {:.1} journaled vs {:.1} without: {}",
        workload.name(),
        journaled.jobs_per_s(),
        a.jobs_per_s(),
        verdict(lat > 0.0 && submit > 0.0)
    );
}
