//! `perfsuite` — the tracked sampler-throughput baseline.
//!
//! Runs the four workhorse samplers (FS, SingleRW, MultipleRW, MHRW) at
//! two or three Barabási–Albert graph scales, measures wall-clock
//! steps-per-second on the in-memory CSR backend and queries-per-step on
//! the query-counting `CrawlAccess` backend, and writes the results to
//! `BENCH_samplers.json`. The committed copy of that file is the perf
//! baseline this repository tracks: regenerate it on the same machine
//! and compare before claiming (or reviewing) a hot-path change.
//!
//! ```text
//! cargo run --release -p fs-bench --bin perfsuite            # full suite
//! cargo run --release -p fs-bench --bin perfsuite -- --smoke # CI-sized
//! cargo run --release -p fs-bench --bin perfsuite -- --out /tmp/b.json
//! ```
//!
//! Timing method: each (sampler, scale) cell runs `reps` times after one
//! warm-up; the JSON records the **best** rep (least scheduler noise, the
//! number to compare across commits) and the mean. Queries/step comes
//! from an exact counter, not timing, so it is machine-independent: a
//! step primitive that issues more than one backend query per walk step
//! shows up here as `queries_per_step > 1`.
//!
//! The `obs_overhead` section is the observability tier's cost pin: the
//! identical seeded FS run timed bare vs wrapped in the query-counting
//! `CountedAccess` tap every served job arms, with a bit-identity
//! assertion (instrumentation must not perturb the walk). Two rows per
//! scale: `sequential` charges the counter once per step (the worst
//! case, reported for visibility) and `batched` charges once per
//! lockstep batch — the serving tier's hot engine, where a best-of-reps
//! overhead above 2% prints a loud warning.
//!
//! The suite also tracks the **storage layer** (`fs-store`): per scale
//! it saves the graph as a text edge list and as a binary store, then
//! times `load_text` (parse + rebuild) vs `load_store` (checksummed
//! owned load) vs `mmap_open` (zero-copy `MmapGraph`), records an
//! FS(m=100) throughput cell on the mmap backend, and — untimed —
//! asserts the round-trip is structurally exact and a seeded FS walk on
//! the mmap backend is bit-identical to the CSR backend. The committed
//! numbers pin the "binary store ≥ 10x faster than text parse" claim.
//!
//! The batched cell (`@batch`) runs the lockstep SoA engine on one
//! thread, so its delta against the sequential rows is the
//! batching/prefetch win; a query-accounting gate aborts the run if
//! the batched engine ever issues materially more backend queries per
//! retained step than the sequential loop. A `header` object records
//! git revision, core count and hugepage status so two baseline files
//! can be compared knowing where the numbers came from.

use frontier_sampling::backend::CrawlAccess;
use frontier_sampling::runner::{ChunkStatus, ChunkedRunner, Sample, SamplerSpec};
use frontier_sampling::{Budget, CostModel, WalkMethod};
use fs_graph::{CountedAccess, Graph, GraphAccess, ShardedCounter};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Machine/commit provenance recorded at the top of the JSON so two
/// baseline files can be compared knowing whether the numbers came from
/// the same code and the same kind of machine.
struct RunHeader {
    git_rev: String,
    nproc: usize,
    /// `HugePages_Total` from `/proc/meminfo` (explicit 2 MiB pool).
    hugepages_total: u64,
    /// The bracketed mode in
    /// `/sys/kernel/mm/transparent_hugepage/enabled`.
    thp: String,
}

impl RunHeader {
    fn collect() -> RunHeader {
        let git_rev = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        let nproc = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let hugepages_total = std::fs::read_to_string("/proc/meminfo")
            .ok()
            .and_then(|meminfo| {
                meminfo
                    .lines()
                    .find(|l| l.starts_with("HugePages_Total:"))
                    .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
            })
            .unwrap_or(0);
        let thp = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
            .ok()
            .and_then(|s| {
                let open = s.find('[')?;
                let close = s[open..].find(']')? + open;
                Some(s[open + 1..close].to_string())
            })
            .unwrap_or_else(|| "unavailable".to_string());
        RunHeader {
            git_rev,
            nproc,
            hugepages_total,
            thp,
        }
    }
}

/// One measured (sampler, graph-scale) cell.
struct Cell {
    sampler: String,
    graph: String,
    num_vertices: usize,
    /// Budget `B` handed to the run (starts + steps).
    budget: usize,
    /// Walk steps actually taken (the throughput denominator — the
    /// budget also pays the m start draws).
    steps: usize,
    best_steps_per_sec: f64,
    mean_steps_per_sec: f64,
    queries_per_step: f64,
}

/// One A/B row of the instrumentation-overhead probe: the same seeded
/// FS run timed bare vs wrapped in the serving tier's query-counting
/// [`CountedAccess`] tap.
struct ObsCell {
    graph: String,
    /// `sequential` (per-step taps, the worst case) or `batched` (one
    /// tap per lockstep batch — the serving tier's hot engine).
    mode: &'static str,
    bare_steps_per_sec: f64,
    counted_steps_per_sec: f64,
    /// `counted/bare - 1` on best-of-reps times; negative means the
    /// wrapped run happened to be faster (noise).
    overhead_frac: f64,
    queries_counted: u64,
}

/// One measured loader row: seconds to materialise a usable graph from
/// each persistence form (best-of-reps and mean, like the sampler
/// cells).
struct LoaderCell {
    graph: String,
    text_bytes: u64,
    store_bytes: u64,
    load_text_best_s: f64,
    load_text_mean_s: f64,
    load_store_best_s: f64,
    load_store_mean_s: f64,
    mmap_open_best_s: f64,
    mmap_open_mean_s: f64,
}

struct Config {
    /// (label, |V|, BA attachment m, steps per run)
    scales: Vec<(&'static str, usize, usize, usize)>,
    reps: usize,
    out: String,
}

fn parse_args() -> Config {
    let mut smoke = false;
    let mut only: Option<String> = None;
    let mut out = "BENCH_samplers.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = args.next().expect("--out needs a path"),
            "--graph" => only = Some(args.next().expect("--graph needs a label")),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: perfsuite [--smoke] [--graph LABEL] [--out FILE]");
                std::process::exit(2);
            }
        }
    }
    let mut scales = if smoke {
        vec![("ba_10k", 10_000, 4, 20_000)]
    } else {
        vec![
            ("ba_10k", 10_000, 4, 100_000),
            ("ba_100k", 100_000, 5, 100_000),
            ("ba_1m", 1_000_000, 5, 100_000),
        ]
    };
    if let Some(label) = &only {
        scales.retain(|&(l, ..)| l == label);
        assert!(!scales.is_empty(), "unknown graph label {label}");
    }
    Config {
        scales,
        reps: if smoke { 3 } else { 5 },
        out,
    }
}

/// The samplers the baseline tracks, labelled as in the paper's figures.
fn methods() -> Vec<(String, WalkMethod)> {
    vec![
        ("FS (m=100)".into(), WalkMethod::frontier(100)),
        ("SingleRW".into(), WalkMethod::single()),
        ("MultipleRW (m=100)".into(), WalkMethod::multiple(100)),
    ]
}

/// Steps actually taken by a budgeted run (starts are paid from the same
/// budget, so sampled edges < budget).
fn run_once<A: GraphAccess>(method: &WalkMethod, access: &A, steps: usize, seed: u64) -> usize {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut budget = Budget::new(steps as f64);
    let mut n = 0usize;
    method.sample_edges(access, &CostModel::unit(), &mut budget, &mut rng, |e| {
        black_box(e.target);
        n += 1;
    });
    n
}

/// FS (m = 100) on the lockstep batched engine, driven to the end by
/// the chunked runner on one thread (so the cell measures the
/// SoA/prefetch win, not parallelism). Hands each sampled edge to
/// `sink` and returns attempted steps — the same denominator as the
/// sequential cells on a fault-free backend.
fn fs_batch_run<A: GraphAccess + ?Sized>(
    access: &A,
    steps: usize,
    seed: u64,
    mut sink: impl FnMut(fs_graph::Arc),
) -> usize {
    let spec = SamplerSpec::Frontier { m: 100 };
    let mut run = ChunkedRunner::new(&spec, access, &CostModel::unit(), steps as f64, seed);
    while run.run_chunk(usize::MAX, |s| {
        if let Sample::Edge(e) = s {
            sink(e)
        }
    }) == ChunkStatus::InProgress
    {}
    run.steps_done() as usize
}

fn fs_batch_once<A: GraphAccess + ?Sized>(access: &A, steps: usize, seed: u64) -> usize {
    fs_batch_run(access, steps, seed, |e| {
        black_box(e.target);
    })
}

/// The batched-engine query-overhead gate: a batched cell that issues
/// materially more backend queries per retained step than the
/// sequential loop (`1 + starts/steps`, plus `slack` for FS's bounded
/// speculative final-window overshoot) is a regression, and the suite fails
/// loudly rather than committing the number.
fn gate_queries_per_step(label: &str, qps: f64, starts: usize, taken: usize, slack: f64) {
    let bound = (1.0 + starts as f64 / taken.max(1) as f64) * slack + 1e-9;
    assert!(
        qps <= bound,
        "{label}: queries_per_step {qps:.4} exceeds {bound:.4} \
         ({starts} starts over {taken} steps, slack {slack}) — \
         the batched engine is over-querying the backend"
    );
}

/// Times one A/B pair (bare vs [`CountedAccess`]-wrapped) and reports
/// the overhead; a best-of-reps overhead above 2% prints a loud
/// warning (no hard gate — single-machine scheduler noise at these run
/// lengths can exceed the effect).
fn obs_ab(
    graph_label: &str,
    mode: &'static str,
    reps: usize,
    warn_above_target: bool,
    bare_run: &mut dyn FnMut() -> usize,
    counted_run: &mut dyn FnMut() -> usize,
    queries_counted: u64,
) -> ObsCell {
    // Same protocol as `measure`: one warm-up (which reports the
    // deterministic step count), then best of `reps` timed runs.
    let best_rate = |run: &mut dyn FnMut() -> usize| {
        let steps = black_box(run());
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            black_box(run());
            best = best.min(t0.elapsed().as_secs_f64());
        }
        steps as f64 / best
    };
    let bare = best_rate(bare_run);
    let counted = best_rate(counted_run);
    let overhead = bare / counted.max(f64::MIN_POSITIVE) - 1.0;
    eprintln!(
        "  obs A/B ({mode:<10})   {graph_label:<8} bare {bare:>10.0} vs counted \
         {counted:>10.0} steps/s ({:+.2}% overhead)",
        overhead * 100.0
    );
    if warn_above_target && overhead > 0.02 {
        eprintln!(
            "  WARNING: {graph_label} ({mode}): CountedAccess overhead {:.2}% exceeds the 2% target",
            overhead * 100.0
        );
    }
    ObsCell {
        graph: graph_label.to_string(),
        mode,
        bare_steps_per_sec: bare,
        counted_steps_per_sec: counted,
        overhead_frac: overhead,
        queries_counted,
    }
}

/// The instrumentation-overhead A/B: the identical seeded FS(m=100)
/// run timed bare and wrapped in [`CountedAccess`] — the exact tap the
/// serving tier arms on every job for `fs_access_queries_total`. The
/// wrapper holds no RNG, so the two walks are bit-identical by
/// construction (asserted on a probe prefix); the only delta a timer
/// can see is the pinned-shard atomic add per charged query. Two rows
/// per scale: `sequential` (a tap per step — the worst case, visible
/// on cache-hot small graphs) and `batched` (a tap per lockstep batch
/// — the serving tier's hot engine, where the tap amortizes to
/// nothing).
fn obs_overhead_cells(graph_label: &str, graph: &Graph, steps: usize, reps: usize) -> Vec<ObsCell> {
    let method = WalkMethod::frontier(100);
    let probe_steps = steps.min(20_000);
    let counter = Arc::new(ShardedCounter::new());
    let counted = CountedAccess::new(graph, Arc::clone(&counter));
    assert_eq!(
        fs_trace(graph, probe_steps, 7),
        fs_trace(&counted, probe_steps, 7),
        "{graph_label}: FS walk under CountedAccess diverged from bare backend"
    );
    assert_eq!(
        fs_batch_trace(graph, probe_steps, 7),
        fs_batch_trace(&counted, probe_steps, 7),
        "{graph_label}: batched FS walk under CountedAccess diverged from bare backend"
    );
    // Deterministic accounting: the same seeded run charges the same
    // query count every time.
    counter.reset();
    run_once(&method, &counted, steps, 7);
    let seq_queries = counter.get();
    counter.reset();
    run_once(&method, &counted, steps, 7);
    assert_eq!(
        seq_queries,
        counter.get(),
        "{graph_label}: CountedAccess query count is not deterministic"
    );
    let seq = obs_ab(
        graph_label,
        "sequential",
        reps,
        false,
        &mut || run_once(&method, graph, steps, 7),
        &mut || run_once(&method, &counted, steps, 7),
        seq_queries,
    );
    counter.reset();
    fs_batch_once(&counted, steps, 7);
    let batch_queries = counter.get();
    // The 2% target is pinned on the batched engine — the serving
    // tier's actual hot path since the lockstep rework. The sequential
    // row is the per-step worst case and is expected to sit above it
    // on cache-hot small graphs: reported, never warned on. Smoke-length
    // runs finish in a couple of milliseconds, where scheduler noise
    // swamps a 2% effect, so the warning is reserved for full runs.
    let batch = obs_ab(
        graph_label,
        "batched",
        reps,
        steps >= 100_000,
        &mut || fs_batch_once(graph, steps, 7),
        &mut || fs_batch_once(&counted, steps, 7),
        batch_queries,
    );
    vec![seq, batch]
}

fn mhrw_once<A: GraphAccess>(access: &A, steps: usize, seed: u64) -> usize {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut budget = Budget::new(steps as f64);
    let mut n = 0usize;
    frontier_sampling::MetropolisHastingsRw::new().sample_vertices(
        access,
        &CostModel::unit(),
        &mut budget,
        &mut rng,
        |v| {
            black_box(v);
            n += 1;
        },
    );
    n
}

fn measure(
    label: &str,
    graph_label: &str,
    graph: &Graph,
    budget: usize,
    reps: usize,
    run: &mut dyn FnMut() -> usize,
    queries_per_step: f64,
) -> Cell {
    // One warm-up, which also reports the (deterministic, same-seed)
    // number of walk steps the budget buys — the throughput denominator.
    let steps = black_box(run());
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        black_box(run());
        times.push(t0.elapsed().as_secs_f64());
    }
    let best = times.iter().cloned().fold(f64::INFINITY, f64::min);
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    Cell {
        sampler: label.to_string(),
        graph: graph_label.to_string(),
        num_vertices: graph.num_vertices(),
        budget,
        steps,
        best_steps_per_sec: steps as f64 / best,
        mean_steps_per_sec: steps as f64 / mean,
        queries_per_step,
    }
}

/// Times `run` like the sampler cells: one untimed warm-up, then `reps`
/// timed repetitions; returns (best, mean) seconds.
fn time_loader(reps: usize, run: &mut dyn FnMut()) -> (f64, f64) {
    run();
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        run();
        times.push(t0.elapsed().as_secs_f64());
    }
    let best = times.iter().cloned().fold(f64::INFINITY, f64::min);
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    (best, mean)
}

/// Seeded FS(m=100) walk trace over any backend — the bit-identity
/// probe the storage section asserts with (untimed).
fn fs_trace<A: GraphAccess>(access: &A, steps: usize, seed: u64) -> Vec<(u32, u32)> {
    let method = WalkMethod::frontier(100);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut budget = Budget::new(steps as f64);
    let mut trace = Vec::new();
    method.sample_edges(access, &CostModel::unit(), &mut budget, &mut rng, |e| {
        trace.push((e.source.raw(), e.target.raw()));
    });
    trace
}

/// Seeded batched-FS edge trace — the parity probe for the hugepage
/// cell (the batched engine must be bit-identical across backings).
fn fs_batch_trace<A: GraphAccess + ?Sized>(access: &A, steps: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut trace = Vec::new();
    fs_batch_run(access, steps, seed, |e| {
        trace.push((e.source.raw(), e.target.raw()))
    });
    trace
}

/// The storage-layer measurements for one scale: loader timings, the
/// FS-over-mmap throughput cell, and the untimed round-trip/parity
/// assertions. Returns (mmap FS cell, loader row).
fn storage_cells(
    graph_label: &str,
    graph: &Graph,
    steps: usize,
    reps: usize,
    fs_qps: f64,
    dir: &std::path::Path,
) -> (Cell, LoaderCell) {
    let text_path = dir.join(format!("{graph_label}.el"));
    let store_path = dir.join(format!("{graph_label}.fsg"));
    fs_graph::io::save_edge_list(graph, &text_path).expect("write text edge list");
    fs_store::write_store(graph, &store_path).expect("write store");
    let text_bytes = std::fs::metadata(&text_path).unwrap().len();
    let store_bytes = std::fs::metadata(&store_path).unwrap().len();

    // Round-trip exactness (the acceptance gate, untimed): the owned
    // reload is structurally identical and a seeded FS walk on the mmap
    // backend is bit-identical to the in-memory CSR backend.
    let reloaded = fs_store::load_store(&store_path).expect("load store");
    assert_eq!(
        reloaded.csr().offsets(),
        graph.csr().offsets(),
        "{graph_label}: reloaded offsets diverged"
    );
    assert_eq!(
        reloaded.csr().targets(),
        graph.csr().targets(),
        "{graph_label}: reloaded targets diverged"
    );
    assert_eq!(reloaded.num_original_edges(), graph.num_original_edges());
    let mmap = fs_store::MmapGraph::open(&store_path).expect("open store");
    let probe_steps = steps.min(20_000);
    assert_eq!(
        fs_trace(graph, probe_steps, 7),
        fs_trace(&mmap, probe_steps, 7),
        "{graph_label}: FS walk on mmap backend diverged from CSR"
    );

    // Loader timings.
    let loader_reps = reps.min(3);
    let (text_best, text_mean) = time_loader(loader_reps, &mut || {
        black_box(fs_graph::io::load_edge_list(&text_path).expect("load text"));
    });
    let (store_best, store_mean) = time_loader(loader_reps, &mut || {
        black_box(fs_store::load_store(&store_path).expect("load store"));
    });
    let (mmap_best, mmap_mean) = time_loader(loader_reps, &mut || {
        black_box(fs_store::MmapGraph::open(&store_path).expect("mmap open"));
    });
    eprintln!(
        "  {:<22} {graph_label:<8} text {:>8.3}s  store {:>8.3}s ({:>5.1}x)  mmap {:>10.6}s ({:.0}x)",
        "loaders (best)",
        text_best,
        store_best,
        text_best / store_best,
        mmap_best,
        text_best / mmap_best,
    );
    let loader = LoaderCell {
        graph: graph_label.to_string(),
        text_bytes,
        store_bytes,
        load_text_best_s: text_best,
        load_text_mean_s: text_mean,
        load_store_best_s: store_best,
        load_store_mean_s: store_mean,
        mmap_open_best_s: mmap_best,
        mmap_open_mean_s: mmap_mean,
    };

    // FS(m=100) throughput on the mmap backend — same protocol as the
    // in-memory cells; queries/step is backend-independent accounting,
    // reported from the CSR run's exact counter.
    let method = WalkMethod::frontier(100);
    let cell = measure(
        "FS (m=100) @mmap",
        graph_label,
        graph,
        steps,
        reps,
        &mut || run_once(&method, &mmap, steps, 7),
        fs_qps,
    );
    eprintln!(
        "  {:<22} {graph_label:<8} {:>10.0} steps/s (best)  {:.3} queries/step",
        "FS (m=100) @mmap", cell.best_steps_per_sec, cell.queries_per_step
    );

    // The batched engine must walk the mapping bit-identically too.
    assert_eq!(
        fs_batch_trace(graph, probe_steps, 7),
        fs_batch_trace(&mmap, probe_steps, 7),
        "{graph_label}: batched FS walk on mmap diverged from CSR"
    );

    std::fs::remove_file(&text_path).ok();
    std::fs::remove_file(&store_path).ok();
    (cell, loader)
}

fn main() {
    let cfg = parse_args();
    let mut cells: Vec<Cell> = Vec::new();
    let mut loaders: Vec<LoaderCell> = Vec::new();
    let mut obs_cells: Vec<ObsCell> = Vec::new();
    let tmp_dir = std::env::temp_dir().join(format!("fs_perfsuite_{}", std::process::id()));
    std::fs::create_dir_all(&tmp_dir).expect("create temp dir");

    for &(graph_label, n, ba_m, steps) in &cfg.scales {
        eprintln!("generating {graph_label} ({n} vertices)…");
        let mut g_rng = SmallRng::seed_from_u64(0x5CA1E);
        let graph = fs_gen::barabasi_albert(n, ba_m, &mut g_rng);
        let mut fs_qps = 1.0;

        for (label, method) in methods() {
            // Query accounting on the counting crawler (exact, not timed).
            let crawler = CrawlAccess::new(&graph);
            let taken = run_once(&method, &crawler, steps, 7);
            let qps = crawler.queries_issued() as f64 / taken.max(1) as f64;
            if label.starts_with("FS") {
                fs_qps = qps;
            }
            let cell = measure(
                &label,
                graph_label,
                &graph,
                steps,
                cfg.reps,
                &mut || run_once(&method, &graph, steps, 7),
                qps,
            );
            eprintln!(
                "  {label:<22} {graph_label:<8} {:>10.0} steps/s (best)  {:.3} queries/step",
                cell.best_steps_per_sec, cell.queries_per_step
            );
            cells.push(cell);
        }

        // Batched lockstep cell (single thread: the delta against the
        // sequential FS row above is the SoA + software prefetch win, not
        // parallelism). The query gate fails the run if batching ever
        // starts over-querying the backend.
        {
            let crawler = CrawlAccess::new(&graph);
            let taken = fs_batch_once(&crawler, steps, 7);
            let qps = crawler.queries_issued() as f64 / taken.max(1) as f64;
            // FS generates each window's events speculatively; the
            // final-window slack covers the unused tail of the last
            // window, the only overshoot.
            gate_queries_per_step("FS (m=100) @batch", qps, 100, taken, 1.15);
            let cell = measure(
                "FS (m=100) @batch",
                graph_label,
                &graph,
                steps,
                cfg.reps,
                &mut || fs_batch_once(&graph, steps, 7),
                qps,
            );
            eprintln!(
                "  {:<22} {graph_label:<8} {:>10.0} steps/s (best)  {:.3} queries/step",
                "FS (m=100) @batch", cell.best_steps_per_sec, cell.queries_per_step
            );
            cells.push(cell);
        }

        // MHRW emits vertices, not edges; same timing protocol.
        let crawler = CrawlAccess::new(&graph);
        let taken = mhrw_once(&crawler, steps, 7);
        let qps = crawler.queries_issued() as f64 / taken.max(1) as f64;
        let cell = measure(
            "MHRW",
            graph_label,
            &graph,
            steps,
            cfg.reps,
            &mut || mhrw_once(&graph, steps, 7),
            qps,
        );
        eprintln!(
            "  {:<22} {graph_label:<8} {:>10.0} steps/s (best)  {:.3} queries/step",
            "MHRW", cell.best_steps_per_sec, cell.queries_per_step
        );
        cells.push(cell);

        // Storage layer: loader timings + FS over the mmap backend.
        let (store_cell, loader) =
            storage_cells(graph_label, &graph, steps, cfg.reps, fs_qps, &tmp_dir);
        cells.push(store_cell);
        loaders.push(loader);

        // Instrumentation-overhead A/B: the serving tier's armed
        // query-counting tap vs the bare backend, same seeded run.
        obs_cells.extend(obs_overhead_cells(graph_label, &graph, steps, cfg.reps));
    }

    std::fs::remove_dir_all(&tmp_dir).ok();
    let json = render_json(&RunHeader::collect(), &cells, &loaders, &obs_cells);
    std::fs::write(&cfg.out, json).expect("write baseline file");
    eprintln!("wrote {}", cfg.out);
}

/// Hand-rolled JSON (the workspace is offline — no serde).
fn render_json(
    header: &RunHeader,
    cells: &[Cell],
    loaders: &[LoaderCell],
    obs_cells: &[ObsCell],
) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"suite\": \"samplers\",\n  \"unit\": \"steps/sec\",\n");
    let _ = writeln!(
        s,
        "  \"header\": {{\"git_rev\": \"{}\", \"nproc\": {}, \"hugepages_total\": {}, \
         \"transparent_hugepages\": \"{}\"}},",
        header.git_rev, header.nproc, header.hugepages_total, header.thp
    );
    s.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"sampler\": \"{}\", \"graph\": \"{}\", \"num_vertices\": {}, \
             \"budget\": {}, \"steps\": {}, \"best_steps_per_sec\": {:.0}, \
             \"mean_steps_per_sec\": {:.0}, \"queries_per_step\": {:.4}}}",
            c.sampler,
            c.graph,
            c.num_vertices,
            c.budget,
            c.steps,
            c.best_steps_per_sec,
            c.mean_steps_per_sec,
            c.queries_per_step
        );
        s.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"loaders\": [\n");
    for (i, l) in loaders.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"graph\": \"{}\", \"text_bytes\": {}, \"store_bytes\": {}, \
             \"load_text_best_s\": {:.6}, \"load_text_mean_s\": {:.6}, \
             \"load_store_best_s\": {:.6}, \"load_store_mean_s\": {:.6}, \
             \"mmap_open_best_s\": {:.6}, \"mmap_open_mean_s\": {:.6}, \
             \"speedup_store_vs_text\": {:.1}, \"speedup_mmap_vs_text\": {:.1}}}",
            l.graph,
            l.text_bytes,
            l.store_bytes,
            l.load_text_best_s,
            l.load_text_mean_s,
            l.load_store_best_s,
            l.load_store_mean_s,
            l.mmap_open_best_s,
            l.mmap_open_mean_s,
            l.load_text_best_s / l.load_store_best_s,
            l.load_text_best_s / l.mmap_open_best_s,
        );
        s.push_str(if i + 1 < loaders.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"obs_overhead\": [\n");
    for (i, o) in obs_cells.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"graph\": \"{}\", \"mode\": \"{}\", \"bare_steps_per_sec\": {:.0}, \
             \"counted_steps_per_sec\": {:.0}, \"overhead_frac\": {:.4}, \
             \"queries_counted\": {}}}",
            o.graph,
            o.mode,
            o.bare_steps_per_sec,
            o.counted_steps_per_sec,
            o.overhead_frac,
            o.queries_counted
        );
        s.push_str(if i + 1 < obs_cells.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}
