//! `graphstore` — convert, inspect and verify `.fsg` graph stores.
//!
//! ```text
//! graphstore convert <INPUT.el> <OUTPUT.fsg> [--in-memory | --snap] [--budget-mb N]
//! graphstore inspect <FILE.fsg>
//! graphstore verify  <FILE.fsg>
//! graphstore map     <FILE.fsg>
//! ```
//!
//! `convert` defaults to the ingest pipeline (bounded RAM; dense vertex
//! ids, same dialect as the text loader): it reads the input once when
//! its arcs fit `--budget-mb` (default 256) and spools them through
//! vertex-range buckets on a second read when they do not.
//! `--in-memory` routes through the `GraphBuilder` instead (RAM-bound),
//! and `--snap` additionally compacts sparse SNAP/KONECT vertex ids to
//! a dense range in first-appearance order.
//! `inspect` prints the validated header and section table; `verify`
//! additionally checks every payload checksum and the deep structural
//! invariants, exiting non-zero on any failure. `map` opens the store
//! through the mmap backend the server serves it from and runs the
//! same checks in place, over the mapping.

use fs_store::{ingest_edge_list, inspect, verify_store, write_store, IngestOptions, MmapGraph};
use std::path::PathBuf;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage:\n  graphstore convert <INPUT.el> <OUTPUT.fsg> [--in-memory | --snap] [--budget-mb N]\n  graphstore inspect <FILE.fsg>\n  graphstore verify <FILE.fsg>\n  graphstore map <FILE.fsg>"
    );
    std::process::exit(2);
}

fn fail(e: impl std::fmt::Display) -> ! {
    eprintln!("error: {e}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("convert") => convert(&args[1..]),
        Some("inspect") => {
            let path = args.get(1).cloned().unwrap_or_else(|| usage());
            if args.len() > 2 {
                usage();
            }
            match inspect(&path) {
                Ok(layout) => print_layout(&path, &layout),
                Err(e) => fail(e),
            }
        }
        Some("verify") => {
            let path = args.get(1).cloned().unwrap_or_else(|| usage());
            if args.len() > 2 {
                usage();
            }
            let t0 = Instant::now();
            match verify_store(&path) {
                Ok(layout) => {
                    print_layout(&path, &layout);
                    println!(
                        "ok: all checksums and structural invariants verified in {:.2?}",
                        t0.elapsed()
                    );
                }
                Err(e) => fail(e),
            }
        }
        Some("map") => map(&args[1..]),
        _ => usage(),
    }
}

fn map(args: &[String]) {
    let [path] = args else { usage() };
    let t0 = Instant::now();
    let graph = MmapGraph::open(path).unwrap_or_else(|e| fail(e));
    println!(
        "{path}: mapped {} bytes in {:.2?}",
        graph.mapped_len(),
        t0.elapsed()
    );
    let t1 = Instant::now();
    graph.verify().unwrap_or_else(|e| fail(e));
    println!(
        "ok: {} vertices, {} arcs verified in place in {:.2?}",
        fs_graph::GraphAccess::num_vertices(&graph),
        graph.layout().header.num_arcs,
        t1.elapsed()
    );
}

fn convert(args: &[String]) {
    let mut input: Option<PathBuf> = None;
    let mut output: Option<PathBuf> = None;
    let mut in_memory = false;
    let mut snap = false;
    let mut budget_mb: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--in-memory" => in_memory = true,
            "--snap" => snap = true,
            "--budget-mb" => {
                let v = it.next().unwrap_or_else(|| usage());
                budget_mb = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            other if !other.starts_with('-') => {
                if input.is_none() {
                    input = Some(other.into());
                } else if output.is_none() {
                    output = Some(other.into());
                } else {
                    usage();
                }
            }
            _ => usage(),
        }
    }
    let (input, output) = match (input, output) {
        (Some(i), Some(o)) => (i, o),
        _ => usage(),
    };
    // --snap implies the in-memory path; passing both flags is harmless.
    let t0 = Instant::now();
    if snap {
        let graph = fs_graph::io::load_snap_edge_list(&input).unwrap_or_else(|e| fail(e));
        write_store(&graph, &output).unwrap_or_else(|e| fail(e));
        println!(
            "converted {} -> {} (snap id compaction, in-memory): {} vertices, {} arcs in {:.2?}",
            input.display(),
            output.display(),
            graph.num_vertices(),
            graph.num_arcs(),
            t0.elapsed()
        );
    } else if in_memory {
        let graph = fs_graph::io::load_edge_list(&input).unwrap_or_else(|e| fail(e));
        write_store(&graph, &output).unwrap_or_else(|e| fail(e));
        println!(
            "converted {} -> {} (in-memory): {} vertices, {} arcs in {:.2?}",
            input.display(),
            output.display(),
            graph.num_vertices(),
            graph.num_arcs(),
            t0.elapsed()
        );
    } else {
        let opts = match budget_mb {
            Some(mb) => IngestOptions {
                memory_budget_bytes: mb << 20,
            },
            None => IngestOptions::default(),
        };
        let report = ingest_edge_list(&input, &output, &opts).unwrap_or_else(|e| fail(e));
        let path = if report.buckets == 1 {
            "one pass".to_string()
        } else {
            format!("two passes, {} spooled buckets", report.buckets)
        };
        println!(
            "converted {} -> {} ({path}): {} vertices, {} arcs, {} original edges in {:.2?}",
            input.display(),
            output.display(),
            report.num_vertices,
            report.num_arcs,
            report.num_original_edges,
            t0.elapsed()
        );
    }
}

fn print_layout(path: &str, layout: &fs_store::Layout) {
    let h = &layout.header;
    println!("{path}: fs-store v1, kind = {:?}", h.kind);
    println!(
        "  vertices {}  arcs {}  original edges {}  groups {} ({} memberships)",
        h.num_vertices, h.num_arcs, h.num_original_edges, h.num_groups, h.num_memberships
    );
    println!(
        "  {:<14} {:>12} {:>14}  checksum",
        "section", "offset", "bytes"
    );
    for s in &layout.sections {
        println!(
            "  {:<14} {:>12} {:>14}  {:016x}",
            s.id.name(),
            s.offset,
            s.len,
            s.hash
        );
    }
}
