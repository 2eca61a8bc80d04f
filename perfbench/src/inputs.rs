//! Input synthesis with `fs-gen`: the workload's graph, written as a
//! text edge list, and its exact average degree. This runs before any
//! timed region, and its memory is freed before the peak is reset.

use crate::workload::{GraphKind, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub struct Inputs {
    pub edge_list: PathBuf,
    pub num_vertices: usize,
    pub num_arcs: usize,
    /// Exact average degree, from the generated graph.
    pub truth: f64,
    pub synth_s: f64,
}

pub fn synthesize(workload: Workload, dir: &Path) -> std::io::Result<Inputs> {
    let start = Instant::now();
    let mut rng = SmallRng::seed_from_u64(workload.graph().seed());
    let graph = match workload.graph() {
        GraphKind::Gab => fs_gen::datasets::gab(1.0, &mut rng),
        GraphKind::Ba50k => fs_gen::barabasi_albert(50_000, 4, &mut rng),
    };
    let edge_list = dir.join("graph.el");
    fs_graph::io::save_edge_list(&graph, &edge_list)?;
    // Flushed now, so its write-back cannot land in the first set-up's
    // fsyncs.
    std::fs::File::open(&edge_list)?.sync_all()?;
    Ok(Inputs {
        edge_list,
        num_vertices: graph.num_vertices(),
        num_arcs: graph.num_arcs(),
        truth: graph.average_degree(),
        synth_s: start.elapsed().as_secs_f64(),
    })
}
