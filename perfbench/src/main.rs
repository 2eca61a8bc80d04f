//! `perfbench` — end-to-end and per-layer benchmark of the `fs-serve`
//! estimation service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload gab_short --seed 1 --seconds 45 --trace 0
//! ```
//!
//! One run synthesises the workload's graph, ingests it through
//! `fs_store`, starts an in-process `fs_serve::Server` with one job
//! worker per core, warms it up, and drives one closed-loop client per
//! core against it with the job stream the seed picks. `--trace 0`
//! prints the end-to-end metrics; `--trace 1` runs the stream untraced,
//! against a journaled server, and traced, replays a sample of its jobs
//! under library spans, and prints the per-layer metrics. The last
//! stdout line is the JSON result.

mod calib;
mod client;
mod inputs;
mod procfs;
mod promtext;
mod replay;
mod run;
mod stats;
mod trace;
mod traced;
mod workload;

use run::{ClientState, PhaseOut, PhaseSpec, Served, SetupTimes, STORE};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;
use workload::Workload;

const USAGE: &str =
    "usage: perfbench --workload gab_short|mixed_short [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match bench(&args) {
        Ok(result) => println!("{result}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// The run's working directory under the benchmark's own directory,
/// removed when the run ends. Directories of runs whose process is gone
/// are swept.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(base: &Path, workload: Workload) -> Result<WorkDir, String> {
        if let Ok(entries) = std::fs::read_dir(base) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                let pid = name.rsplit('-').next().unwrap_or("");
                if name.starts_with("run-") && !Path::new("/proc").join(pid).exists() {
                    let _ = std::fs::remove_dir_all(entry.path());
                }
            }
        }
        let dir = base.join(format!("run-{}-{}", workload.name(), std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The metrics `--trace 0` prints, in `BENCHMARK.json`'s order.
const END_TO_END: [&str; 7] = [
    "jobs_per_s",
    "latency_p50_ms",
    "latency_p90_ms",
    "server_cpu_ms_per_job",
    "peak_rss_mb",
    "setup_s",
    "est_nrmse",
];

/// The metrics `--trace 1` prints, in `BENCHMARK.json`'s order.
const PER_LAYER: [&str; 28] = [
    "store.ingest_s",
    "store.open_ms",
    "serve.start_ms",
    "setup.warmup_s",
    "serve.submit_rtt_us",
    "serve.busy_ms_per_job",
    "serve.nonbusy_ms_p50",
    "serve.chunk_us_p50",
    "serve.requests_per_job",
    "serve.chunks_per_job",
    "serve.peak_rss_mb",
    "cache.hit_ratio",
    "cache.hit_latency_us_p50",
    "journal.bytes_per_job",
    "journal.checkpoints_per_job",
    "runner.new_us",
    "runner.ns_per_step",
    "batch.ns_per_event",
    "runner.merge_ns_per_step",
    "runner.samples_per_step",
    "graph.queries_per_step",
    "estimator.observe_ns_per_sample",
    "estimator.snapshot_us",
    "json.encode_us",
    "checkpoint.serialize_us",
    "trace.gap_frac",
    "trace.overhead_frac",
    "host.calib_ms",
];

/// The last stdout line. `expected` names the metrics in order; any
/// difference is a bug in this program.
fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[Metric],
    expected: &[&str],
) -> Result<String, String> {
    let names: Vec<&str> = metrics.iter().map(|x| x.name).collect();
    if names != expected {
        return Err(format!(
            "internal: metrics {names:?} differ from {expected:?}"
        ));
    }
    if let Some(x) = metrics.iter().find(|x| !x.value.is_finite()) {
        return Err(format!("{} is not finite: {}", x.name, x.value));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

fn bench(args: &Args) -> Result<String, String> {
    let workload = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let base = Path::new(env!("CARGO_MANIFEST_DIR")).join(".work");
    let work = WorkDir::create(&base, workload)?;
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} clients={nproc} job_workers={nproc}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let calib_before = calib::probe_median_ms();

    // Inputs: generated before anything is timed; the graph is freed on
    // return, and the peak is reset after it.
    let inputs =
        inputs::synthesize(workload, &work.0).map_err(|e| format!("input synthesis: {e}"))?;
    println!(
        "inputs: {:?} |V|={} arcs={} exact avg_degree={} synthesised in {:.2} s (outside setup_s)",
        workload.graph(),
        inputs.num_vertices,
        inputs.num_arcs,
        inputs.truth,
        inputs.synth_s
    );
    procfs::reset_hwm().map_err(|e| format!("reset VmHWM: {e}"))?;

    // Set up several times; keep the last server for the timed phases.
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut kept: Option<Served> = None;
    for r in 0..workload.setup_reps() {
        let root = work.0.join(format!("setup{r}"));
        let (served, times) = run::set_up(args.seed, &inputs.edge_list, &root, nproc)?;
        setups.push(times);
        if let Some(old) = kept.replace(served) {
            old.server.shutdown();
            let _ = std::fs::remove_dir_all(&old.root);
        }
    }
    let served = kept.expect("at least one set-up");
    let _ = std::fs::remove_file(&inputs.edge_list);
    let setup_hwm_kib = procfs::vm_hwm_kib().map_err(|e| e.to_string())?;
    procfs::reset_hwm().map_err(|e| format!("reset VmHWM: {e}"))?;
    let mut states: Vec<ClientState> = (0..nproc).map(|c| ClientState::new(args.seed, c)).collect();
    let ctx = Ctx {
        workload,
        truth: inputs.truth,
        nproc,
        setups: &setups,
        setup_hwm_kib,
        calib_before,
    };
    println!(
        "setup x{}: median setup_s {:.4} = ingest {:.4} s + start {:.3} ms + warm-up {:.4} s (first submit {:.3} ms); each: {}",
        setups.len(),
        ctx.setup_median(|s| s.total_s),
        ctx.setup_median(|s| s.ingest_s),
        ctx.setup_median(|s| s.start_ms),
        ctx.setup_median(|s| s.warmup_s),
        ctx.setup_median(|s| s.open_ms),
        setups
            .iter()
            .map(|s| format!("{:.4}", s.total_s))
            .collect::<Vec<_>>()
            .join(" ")
    );
    if args.trace {
        traced::traced_run(&ctx, served, &mut states, args, &base)
    } else {
        end_to_end_run(&ctx, served, &mut states, args)
    }
}

struct Ctx<'a> {
    workload: Workload,
    truth: f64,
    nproc: usize,
    setups: &'a [SetupTimes],
    setup_hwm_kib: u64,
    calib_before: f64,
}

impl Ctx<'_> {
    fn setup_median(&self, f: fn(&SetupTimes) -> f64) -> f64 {
        stats::median(&self.setups.iter().map(f).collect::<Vec<_>>())
    }
}

fn end_to_end_run(
    ctx: &Ctx,
    served: Served,
    states: &mut [ClientState],
    args: &Args,
) -> Result<String, String> {
    let phase = run::run_phase(
        &served,
        states,
        &PhaseSpec {
            seconds: args.seconds,
            quota: workload::NRMSE_QUOTA,
            trace: false,
            epoch: Instant::now(),
            keep_first: 0,
            keep_every: workload::VERIFY_EVERY,
        },
    )?;
    let serve_hwm_kib = procfs::vm_hwm_kib().map_err(|e| e.to_string())?;
    let store = served.root.join(STORE);
    served.server.shutdown();

    let mut failures = phase.failures.clone();
    if !phase.quota_met {
        failures.push(format!(
            "quota of {} cold avg_degree jobs per client not met within {:?}",
            workload::NRMSE_QUOTA,
            run::HARD_STOP
        ));
    }
    let (verified, mismatches) = verify(&store, &phase, workload::VERIFY_EVERY)?;
    failures.extend(mismatches);

    let done = phase.done().count();
    let latencies_ms = stats::sorted(phase.timings.iter().map(|t| f64::from(t.latency_us) / 1e3));
    let (p50, beyond50) = stats::nearest_rank(&latencies_ms, 0.5).ok_or("no jobs ran")?;
    let p90 = stats::supported_percentile(&latencies_ms, 0.9).ok_or_else(|| {
        format!(
            "{} latency samples cannot support p90 ({} beyond it needed)",
            latencies_ms.len(),
            stats::MIN_BEYOND
        )
    })?;
    let (_, beyond90) = stats::nearest_rank(&latencies_ms, 0.9).expect("non-empty");
    let (nrmse, nrmse_jobs) = est_nrmse(&phase, workload::NRMSE_QUOTA, ctx.truth);
    let calib_after = calib::probe_median_ms();

    let metrics = vec![
        m("jobs_per_s", done as f64 / phase.wall_s, "jobs/s"),
        m("latency_p50_ms", p50, "ms"),
        m("latency_p90_ms", p90, "ms"),
        m(
            "server_cpu_ms_per_job",
            phase.server_cpu_ns as f64 / 1e6 / done.max(1) as f64,
            "ms",
        ),
        m(
            "peak_rss_mb",
            ctx.setup_hwm_kib.max(serve_hwm_kib) as f64 / 1024.0,
            "MiB",
        ),
        m("setup_s", ctx.setup_median(|s| s.total_s), "s"),
        m("est_nrmse", nrmse, "ratio"),
    ];
    println!(
        "timed phase: {:.3} s wall, {} jobs attempted, {done} done ({} cache hits), {} failed ops; client threads used {:.4} ms CPU per job",
        phase.wall_s,
        phase.timings.len(),
        phase.done().filter(|t| t.cached).count(),
        failures.len(),
        phase.client_cpu_ns as f64 / 1e6 / done.max(1) as f64
    );
    for x in &metrics {
        let note = match x.name {
            "latency_p50_ms" => format!("  (n={}, {beyond50} beyond)", latencies_ms.len()),
            "latency_p90_ms" => format!("  (n={}, {beyond90} beyond)", latencies_ms.len()),
            "est_nrmse" => format!("  (over {nrmse_jobs} cold avg_degree jobs)"),
            "peak_rss_mb" => format!(
                "  (set-up {:.1} MiB, serving {:.1} MiB)",
                ctx.setup_hwm_kib as f64 / 1024.0,
                serve_hwm_kib as f64 / 1024.0
            ),
            _ => String::new(),
        };
        println!("  {:<24} {:>14.6} {}{note}", x.name, x.value, x.unit);
    }
    println!(
        "correctness: {verified} sampled jobs recomputed bit-identical to the library; {} repeats checked against their cold twins, {} missed the cache",
        phase.repeats, phase.repeat_misses
    );
    println!(
        "host.calib_ms before {:.3} after {:.3} (reported, never applied)",
        ctx.calib_before, calib_after
    );
    for f in failures.iter().take(10) {
        println!("FAILED: {f}");
    }
    result_json(
        failures.is_empty(),
        phase.timings.len(),
        failures.len(),
        &metrics,
        &END_TO_END,
    )
}

/// `sqrt(mean(((est − truth)/truth)²))` over each client's first
/// `quota` cold, non-cached `avg_degree` jobs. Returns (value, jobs).
fn est_nrmse(phase: &PhaseOut, quota: usize, truth: f64) -> (f64, usize) {
    let mut taken = vec![0usize; 1 + phase.records.iter().map(|r| r.client).max().unwrap_or(0)];
    let mut sum = 0.0;
    let mut n = 0usize;
    for r in &phase.records {
        if !r.planned.job.is_avg_degree() || taken[r.client] == quota {
            continue;
        }
        taken[r.client] += 1;
        if let Some(est) = r.done.scalar {
            sum += ((est - truth) / truth).powi(2);
            n += 1;
        }
    }
    ((sum / n.max(1) as f64).sqrt(), n)
}

/// Recomputes every `every`-th cold job of each client with the library
/// over the same store and compares estimate bits. Returns (jobs
/// checked, mismatch descriptions).
fn verify(store: &Path, phase: &PhaseOut, every: u64) -> Result<(usize, Vec<String>), String> {
    let graph = fs_store::MmapGraph::open(store).map_err(|e| format!("open {store:?}: {e}"))?;
    let mut checked = 0;
    let mut mismatches = Vec::new();
    let mut off = Tracer::disabled();
    for r in phase.records.iter().filter(|r| r.planned.idx % every == 0) {
        let replayed = replay::replay_job(&graph, &r.planned.job, r.done.id, &mut off);
        checked += 1;
        if replayed.key != r.done.key {
            mismatches.push(format!(
                "job {} ({:?}) served {:?}, library gives {:?}",
                r.done.id, r.planned.job, r.done.key, replayed.key
            ));
        }
    }
    Ok((checked, mismatches))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "gab_short",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::GabShort);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 10.0, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "gab_short", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "gab_short", "--seconds"]).is_err());
    }

    #[test]
    fn result_line_shape() {
        let metrics = [m("setup_s", 0.8125, "s"), m("jobs_per_s", 12.5, "jobs/s")];
        let line = result_json(true, 3, 0, &metrics, &["setup_s", "jobs_per_s"]).unwrap();
        assert!(result_json(true, 3, 0, &metrics, &["jobs_per_s", "setup_s"]).is_err());
        assert!(result_json(true, 3, 0, &[m("setup_s", f64::NAN, "s")], &["setup_s"]).is_err());
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8125, \"unit\": \"s\"}, \"jobs_per_s\": {\"value\": 12.5, \"unit\": \"jobs/s\"}}}"
        );
        assert!(fs_serve::json::parse(&line).is_ok());
    }

    /// The metric lists this program prints are the ones the benchmark
    /// declares, in the same order.
    #[test]
    fn metric_names_match_benchmark_json() {
        let doc = fs_serve::json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .unwrap()
                .iter()
                .map(|x| x.get("name").and_then(|n| n.as_str()).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names("workloads"), workloads);
    }
}
