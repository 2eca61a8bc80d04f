//! Round-trip, ingestion-equivalence and corruption-path tests of the
//! `.fsg` container.

use fs_graph::{Graph, GraphAccess, GraphBuilder, VertexId, WeightedGraph};
use fs_store::{
    file_digest, ingest_edge_list, load_store, load_weighted_store, verify_store, write_store,
    write_weighted_store, IngestOptions, MmapGraph, StoreError,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A unique temp path removed on drop (tests run concurrently in one
/// process, and reruns must not see stale files).
struct TempPath(PathBuf);

impl TempPath {
    fn new(tag: &str) -> TempPath {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let id = COUNTER.fetch_add(1, Ordering::Relaxed);
        TempPath(
            std::env::temp_dir().join(format!("fs_store_test_{}_{tag}_{id}", std::process::id())),
        )
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn v(i: usize) -> VertexId {
    VertexId::new(i)
}

/// The lib.rs doc-example graph plus labels and an isolated vertex.
fn labeled_fixture() -> Graph {
    let mut b = GraphBuilder::new(5);
    b.add_edge(v(0), v(1));
    b.add_edge(v(1), v(2));
    b.add_edge(v(2), v(0));
    b.add_edge(v(2), v(3));
    b.add_edge(v(0), v(1)); // duplicate directed edge
    b.add_group(v(0), 7);
    b.add_group(v(0), 3);
    b.add_group(v(3), 3);
    b.build()
}

/// Asserts `access` answers every `GraphAccess` query exactly like the
/// in-memory `expected` graph.
fn assert_access_matches<A: GraphAccess>(access: &A, expected: &Graph) {
    assert_eq!(access.num_vertices(), expected.num_vertices());
    assert_eq!(access.num_arcs(), expected.num_arcs());
    assert_eq!(access.num_groups(), expected.num_groups());
    for u in expected.vertices() {
        assert_eq!(access.degree(u), expected.degree(u));
        assert_eq!(access.neighbors(u).as_ref(), expected.neighbors(u));
        assert_eq!(access.vertex_row(u), expected.row_start(u));
        assert_eq!(access.in_degree_orig(u), expected.in_degree_orig(u));
        assert_eq!(access.out_degree_orig(u), expected.out_degree_orig(u));
        assert_eq!(access.groups_of(u), expected.groups_of(u));
        for i in 0..expected.degree(u) {
            assert_eq!(
                access.step_query(u, i),
                GraphAccess::step_query(expected, u, i)
            );
            assert_eq!(
                access.step_query_at(u, access.vertex_row(u), i),
                GraphAccess::step_query(expected, u, i)
            );
        }
        for w in expected.vertices() {
            assert_eq!(access.has_edge(u, w), expected.has_edge(u, w));
            assert_eq!(
                access.has_original_edge(u, w),
                expected.has_original_edge(u, w)
            );
        }
    }
    for a in 0..expected.num_arcs() {
        assert_eq!(access.arc_endpoints(a), expected.arc_endpoints(a));
    }
}

#[test]
fn labeled_graph_roundtrips_through_owned_load() {
    let g = labeled_fixture();
    let path = TempPath::new("owned");
    write_store(&g, &path.0).unwrap();
    let loaded = load_store(&path.0).unwrap();
    loaded.validate().unwrap();
    assert_eq!(loaded.num_original_edges(), g.num_original_edges());
    assert_access_matches(&loaded, &g);
}

#[test]
fn labeled_graph_roundtrips_through_mmap() {
    let g = labeled_fixture();
    let path = TempPath::new("mmap");
    write_store(&g, &path.0).unwrap();
    let m = MmapGraph::open(&path.0).unwrap();
    m.verify().unwrap();
    assert_eq!(m.num_original_edges(), g.num_original_edges());
    assert_access_matches(&m, &g);
}

#[test]
fn ba_graph_roundtrips_and_verifies() {
    let mut rng = SmallRng::seed_from_u64(0xBA);
    let g = fs_gen::barabasi_albert(2_000, 4, &mut rng);
    let path = TempPath::new("ba");
    write_store(&g, &path.0).unwrap();
    let m = MmapGraph::open(&path.0).unwrap();
    m.verify().unwrap();
    assert_access_matches(&m, &g);
    let loaded = load_store(&path.0).unwrap();
    loaded.validate().unwrap();
    assert_access_matches(&loaded, &g);
    verify_store(&path.0).unwrap();
}

#[test]
fn empty_and_isolated_graphs_roundtrip() {
    for n in [0usize, 1, 4] {
        let g = GraphBuilder::new(n).build();
        let path = TempPath::new("empty");
        write_store(&g, &path.0).unwrap();
        let m = MmapGraph::open(&path.0).unwrap();
        m.verify().unwrap();
        assert_eq!(m.num_vertices(), n);
        assert_eq!(m.num_arcs(), 0);
        let loaded = load_store(&path.0).unwrap();
        assert_eq!(loaded.num_vertices(), n);
    }
}

#[test]
fn weighted_graph_roundtrips_bit_identically() {
    let wg = WeightedGraph::from_weighted_pairs(
        5,
        [
            (0, 1, 1.5),
            (1, 2, 0.25),
            (0, 2, 3.0),
            (2, 3, 10.0),
            (0, 1, 0.5), // accumulates onto (0, 1)
        ],
    );
    let path = TempPath::new("weighted");
    write_weighted_store(&wg, &path.0).unwrap();
    let loaded = load_weighted_store(&path.0).unwrap();
    loaded.validate().unwrap();
    assert_eq!(loaded.offsets(), wg.offsets());
    assert_eq!(loaded.targets(), wg.targets());
    // Weights travel as bit patterns; prefix sums and strengths are
    // recomputed in the same order, so everything is bit-identical.
    let bits = |ws: &[f64]| ws.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(loaded.weights()), bits(wg.weights()));
    for u in wg.vertices() {
        assert_eq!(loaded.strength(u).to_bits(), wg.strength(u).to_bits());
    }
    verify_store(&path.0).unwrap();
}

#[test]
fn kind_mismatch_is_a_clean_error() {
    let g = labeled_fixture();
    let path = TempPath::new("kind");
    write_store(&g, &path.0).unwrap();
    assert!(matches!(
        load_weighted_store(&path.0),
        Err(StoreError::Format(_))
    ));
    let wpath = TempPath::new("kind_w");
    write_weighted_store(&WeightedGraph::unit_weights(&g), &wpath.0).unwrap();
    assert!(matches!(load_store(&wpath.0), Err(StoreError::Format(_))));
    assert!(matches!(
        MmapGraph::open(&wpath.0),
        Err(StoreError::Format(_))
    ));
}

/// The text dialect exercising every record type, duplicates,
/// self-loops, bare pairs and trailing fields.
const INGEST_TEXT: &str = "# fixture\nn 9\ne 0 1\n1 2\ne 2 0\n2\t3\ne 0 1\ne 3 3\ne 4 0 extra\ng 0 7\ng 0 3\ng 3 3\ng 0 7\n% trailer comment\n";

#[test]
fn ingestion_is_byte_identical_to_in_memory_conversion() {
    let text_path = TempPath::new("ingest_in");
    std::fs::write(&text_path.0, INGEST_TEXT).unwrap();

    let via_memory = TempPath::new("ingest_mem");
    let g = fs_graph::io::load_edge_list(&text_path.0).unwrap();
    write_store(&g, &via_memory.0).unwrap();

    for budget in [usize::MAX, 1] {
        // budget 1 byte → one bucket per vertex: the multi-bucket path.
        let via_stream = TempPath::new("ingest_stream");
        let report = ingest_edge_list(
            &text_path.0,
            &via_stream.0,
            &IngestOptions {
                memory_budget_bytes: budget,
            },
        )
        .unwrap();
        assert_eq!(report.num_vertices, g.num_vertices());
        assert_eq!(report.num_arcs, g.num_arcs());
        assert_eq!(report.num_original_edges, g.num_original_edges());
        assert_eq!(report.num_memberships, 3);
        if budget == 1 {
            assert!(report.buckets > 1, "tiny budget must force many buckets");
        }
        let a = std::fs::read(&via_memory.0).unwrap();
        let b = std::fs::read(&via_stream.0).unwrap();
        assert_eq!(a, b, "streaming and in-memory conversion diverged");
    }
}

#[test]
fn ingested_store_loads_and_verifies() {
    let text_path = TempPath::new("ingest2_in");
    std::fs::write(&text_path.0, INGEST_TEXT).unwrap();
    let store_path = TempPath::new("ingest2_out");
    ingest_edge_list(&text_path.0, &store_path.0, &IngestOptions::default()).unwrap();
    let m = MmapGraph::open(&store_path.0).unwrap();
    m.verify().unwrap();
    let g = fs_graph::io::load_edge_list(&text_path.0).unwrap();
    assert_access_matches(&m, &g);
}

#[test]
fn ingestion_reports_parse_errors_with_line_numbers() {
    let text_path = TempPath::new("ingest_bad");
    std::fs::write(&text_path.0, "e 0 1\nbogus line\n").unwrap();
    let out = TempPath::new("ingest_bad_out");
    match ingest_edge_list(&text_path.0, &out.0, &IngestOptions::default()) {
        Err(StoreError::Format(m)) => assert!(m.contains("line 2"), "message: {m}"),
        other => panic!("expected format error, got {other:?}"),
    }
    std::fs::write(&text_path.0, "n 2\ne 0 5\n").unwrap();
    assert!(ingest_edge_list(&text_path.0, &out.0, &IngestOptions::default()).is_err());
}

#[test]
fn corrupted_header_fails_cleanly() {
    let g = labeled_fixture();
    let path = TempPath::new("corrupt_header");
    write_store(&g, &path.0).unwrap();
    let mut bytes = std::fs::read(&path.0).unwrap();
    bytes[0] ^= 0xFF; // magic
    std::fs::write(&path.0, &bytes).unwrap();
    assert!(matches!(
        MmapGraph::open(&path.0),
        Err(StoreError::Format(_))
    ));
    assert!(matches!(load_store(&path.0), Err(StoreError::Format(_))));
    assert!(file_digest(&path.0).is_err());

    // Flip a bit inside the counts instead: caught by the header hash.
    let mut bytes = std::fs::read(&path.0).unwrap();
    bytes[0] ^= 0xFF; // restore magic
    bytes[17] ^= 0x04; // num_vertices
    std::fs::write(&path.0, &bytes).unwrap();
    assert!(matches!(
        MmapGraph::open(&path.0),
        Err(StoreError::Checksum { section: "header" })
    ));
}

#[test]
fn truncated_section_fails_cleanly() {
    let g = labeled_fixture();
    let path = TempPath::new("truncate");
    write_store(&g, &path.0).unwrap();
    let bytes = std::fs::read(&path.0).unwrap();
    for keep in [bytes.len() - 1, bytes.len() / 2, 80, 60, 10, 0] {
        std::fs::write(&path.0, &bytes[..keep]).unwrap();
        assert!(
            MmapGraph::open(&path.0).is_err(),
            "mmap open accepted a {keep}-byte prefix"
        );
        assert!(
            load_store(&path.0).is_err(),
            "owned load accepted a {keep}-byte prefix"
        );
    }
}

#[test]
fn payload_corruption_is_caught_by_checksums() {
    let g = labeled_fixture();
    let path = TempPath::new("payload");
    write_store(&g, &path.0).unwrap();
    let clean = std::fs::read(&path.0).unwrap();
    let layout = fs_store::inspect(&path.0).unwrap();
    assert!(layout.sections.len() >= 7, "fixture should have groups");
    // Flip a byte at the start, middle and end of every section payload.
    for s in &layout.sections {
        for at in [s.offset, s.offset + s.len / 2, s.offset + s.len - 1] {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x10;
            std::fs::write(&path.0, &bytes).unwrap();
            // The owned loader always checksums → must fail.
            match load_store(&path.0) {
                Err(StoreError::Checksum { .. }) | Err(StoreError::Format(_)) => {}
                other => panic!(
                    "corrupt '{}' payload at {at} loaded: {other:?}",
                    s.id.name()
                ),
            }
            // The lazy mmap open may succeed (it skips payload checksums
            // by design) but verify() must catch the corruption.
            if let Ok(m) = MmapGraph::open(&path.0) {
                assert!(
                    m.verify().is_err(),
                    "verify missed corruption in '{}' at {at}",
                    s.id.name()
                );
            }
        }
    }
}

#[test]
fn file_digest_tracks_content() {
    let g = labeled_fixture();
    let p1 = TempPath::new("digest1");
    let p2 = TempPath::new("digest2");
    write_store(&g, &p1.0).unwrap();
    write_store(&g, &p2.0).unwrap();
    assert_eq!(
        file_digest(&p1.0).unwrap(),
        file_digest(&p2.0).unwrap(),
        "identical stores must digest identically"
    );
    let mut b = GraphBuilder::new(5);
    b.add_edge(v(0), v(4));
    write_store(&b.build(), &p2.0).unwrap();
    assert_ne!(
        file_digest(&p1.0).unwrap(),
        file_digest(&p2.0).unwrap(),
        "different stores must digest differently"
    );
}

#[test]
fn mmap_graph_is_sync() {
    fn assert_sync<T: Sync + Send>() {}
    assert_sync::<MmapGraph>();
}

/// `file_digest` and whole-file FNV-1a of generated stores, captured
/// from the two-pass spooled ingester. Every conversion path must keep
/// reproducing them byte for byte.
const PINNED_STORES: &[(&str, u64, u64)] = &[
    ("ba_50k_m4_seed7", 6945547762255522929, 16137903026803088237),
    ("gab_0.05", 5387831508788395164, 4634629596625889266),
];

/// CI's `mkgraph --vertices 50000 --ba-m 4 --seed 7` graph and a 5%
/// G_AB, written as text edge lists.
fn pinned_store_graph(name: &str) -> Graph {
    match name {
        "ba_50k_m4_seed7" => fs_gen::barabasi_albert(50_000, 4, &mut SmallRng::seed_from_u64(7)),
        "gab_0.05" => fs_gen::datasets::gab(0.05, &mut SmallRng::seed_from_u64(0x0067_6162)),
        other => unreachable!("no pinned graph {other}"),
    }
}

#[test]
fn ingested_stores_match_pinned_digests() {
    for &(name, digest, whole) in PINNED_STORES {
        let g = pinned_store_graph(name);
        let text_path = TempPath::new("pinned_in");
        fs_graph::io::save_edge_list(&g, &text_path.0).unwrap();
        drop(g);
        // The default budget, then 1 MiB, which splits either graph's
        // arcs over several buckets.
        for budget in [IngestOptions::default().memory_budget_bytes, 1 << 20] {
            let out = TempPath::new("pinned_out");
            let report = ingest_edge_list(
                &text_path.0,
                &out.0,
                &IngestOptions {
                    memory_budget_bytes: budget,
                },
            )
            .unwrap();
            if budget == 1 << 20 {
                assert!(report.buckets > 1, "[{name}] 1 MiB must force buckets");
            }
            let bytes = std::fs::read(&out.0).unwrap();
            assert_eq!(
                (
                    file_digest(&out.0).unwrap(),
                    fs_store::format::fnv1a(&bytes)
                ),
                (digest, whole),
                "[{name}] store bytes moved at budget {budget} ({} bytes)",
                bytes.len()
            );
        }
    }
}
