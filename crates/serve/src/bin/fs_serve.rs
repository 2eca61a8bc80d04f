//! `fs-serve` — serve estimation jobs over a directory of `.fsg`
//! stores.
//!
//! ```text
//! fs-serve --root stores [--addr 127.0.0.1:8080] [--job-workers 2]
//!          [--max-queue 256] [--store-capacity 8] [--cache-capacity 4096]
//!          [--cache-mb 64] [--journal-dir DIR] [--trace-log FILE]
//! ```
//!
//! Observability: `GET /metrics` renders every operational counter,
//! gauge, and latency histogram in Prometheus text exposition format;
//! `GET /v1/trace` drains the in-memory wide-event ring as NDJSON.
//! `--trace-log FILE` additionally appends every trace event to FILE
//! as it happens (NDJSON, crash-tolerant appends), surviving the
//! ring's bounded retention.
//!
//! `--journal-dir` arms crash recovery: every accepted job is recorded
//! in an append-only journal (`DIR/jobs.fsjl`), running jobs checkpoint
//! periodically, and a restart over the same directory replays the
//! journal — finished jobs reappear with their exact results, and
//! incomplete ones resume (from their last checkpoint when one
//! survived) with estimates bit-identical to an uninterrupted run. The
//! server answers `503` with `"replaying": true` until recovery
//! completes.
//!
//! The chaos harness arms from the environment: `FS_FAILPOINTS`
//! (`site=fault:prob,…;…`) and `FS_FAILPOINT_SEED` inject
//! deterministic I/O faults at the sites the server consults
//! ([`fs_serve::FAILPOINT_SITES`]: `reactor.read`, `reactor.write`,
//! `journal.append`, `store.mmap_open`). A malformed spec, or one that
//! names any other site, refuses startup — a chaos run should never
//! silently run fault-free.
//!
//! `--cache-capacity` bounds the deterministic result cache in entries
//! (`0` disables caching), `--cache-mb` in megabytes; a repeated
//! `(store, spec, seed)` submit completes instantly with the cached —
//! byte-identical — estimate.
//!
//! Prints `listening on <addr>` to stderr once bound (port 0 picks an
//! ephemeral port — useful for scripts). Runs until `POST
//! /v1/shutdown` arrives or stdin reaches EOF / reads a line saying
//! `shutdown`, then drains connections, cancels in-flight jobs at
//! their next chunk, joins every worker, and exits 0 — no signal
//! handling needed, so orchestrating from CI is one pipe away.

use fs_serve::{Config, Server};
use std::io::BufRead;

fn usage() -> ! {
    eprintln!(
        "usage: fs-serve --root DIR [--addr HOST:PORT] [--job-workers N] \
         [--max-queue N] [--store-capacity N] [--cache-capacity N] [--cache-mb N] \
         [--journal-dir DIR] [--trace-log FILE] [--no-stdin]"
    );
    std::process::exit(2);
}

fn main() {
    let mut root: Option<String> = None;
    let mut addr = "127.0.0.1:8080".to_string();
    let mut job_workers = 2usize;
    let mut max_queue = 256usize;
    let mut store_capacity = 8usize;
    let mut cache_capacity = 4_096usize;
    let mut cache_mb = 64usize;
    let mut journal_dir: Option<String> = None;
    let mut trace_log: Option<String> = None;
    // Background processes have no useful stdin (it may be closed,
    // which reads as instant EOF): --no-stdin leaves HTTP shutdown as
    // the only trigger.
    let mut watch_stdin = true;

    fn parsed<T: std::str::FromStr>(value: Option<String>, name: &str) -> T {
        match value.as_deref().map(str::parse) {
            Some(Ok(v)) => v,
            _ => {
                eprintln!("bad or missing value for {name}");
                std::process::exit(2);
            }
        }
    }
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = args.next(),
            "--addr" => addr = parsed(args.next(), "--addr"),
            "--job-workers" => job_workers = parsed(args.next(), "--job-workers"),
            "--max-queue" => max_queue = parsed(args.next(), "--max-queue"),
            "--store-capacity" => store_capacity = parsed(args.next(), "--store-capacity"),
            "--cache-capacity" => cache_capacity = parsed(args.next(), "--cache-capacity"),
            "--cache-mb" => cache_mb = parsed(args.next(), "--cache-mb"),
            "--journal-dir" => journal_dir = args.next(),
            "--trace-log" => trace_log = args.next(),
            "--no-stdin" => watch_stdin = false,
            _ => usage(),
        }
    }
    let root = root.unwrap_or_else(|| usage());
    if !std::path::Path::new(&root).is_dir() {
        eprintln!("--root {root}: not a directory");
        std::process::exit(2);
    }

    // Chaos harness: a malformed FS_FAILPOINTS spec, or one naming a
    // site this server never consults, refuses startup — a chaos run
    // must never silently proceed fault-free.
    match fs_graph::failpoint::configure_from_env(&fs_serve::FAILPOINT_SITES) {
        Ok(false) => {}
        Ok(true) => eprintln!("failpoints armed from FS_FAILPOINTS"),
        Err(e) => {
            eprintln!("bad FS_FAILPOINTS: {e}");
            std::process::exit(2);
        }
    }

    let mut config = Config::new(&root);
    config.addr = addr;
    config.job_workers = job_workers.max(1);
    config.max_queue = max_queue.max(1);
    config.store_capacity = store_capacity.max(1);
    config.cache_entries = cache_capacity;
    config.cache_bytes = cache_mb.saturating_mul(1024 * 1024).max(1);
    config.journal_dir = journal_dir.map(std::path::PathBuf::from);
    config.trace_log = trace_log.map(std::path::PathBuf::from);

    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot start server: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("listening on {}", server.addr());

    // Shutdown sources: HTTP (POST /v1/shutdown) polled here, or stdin
    // EOF / a "shutdown" line (lets CI stop the server by closing a
    // pipe, no signals required).
    let (tx, rx) = std::sync::mpsc::channel::<()>();
    if watch_stdin {
        std::thread::spawn(move || {
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                match line {
                    Ok(l) if l.trim() == "shutdown" => break,
                    Ok(_) => continue,
                    Err(_) => break,
                }
            }
            let _ = tx.send(());
        });
    } else {
        // Keep the sender alive so recv_timeout never disconnects.
        std::mem::forget(tx);
    }
    loop {
        if server.shutdown_requested() {
            break;
        }
        match rx.recv_timeout(std::time::Duration::from_millis(200)) {
            Ok(()) | Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => continue,
        }
    }
    eprintln!("shutting down");
    server.shutdown();
}
