//! Writer durability under injected faults: a failed store write must
//! be *invisible* — no half-written file under the target name, no
//! stranded staging sibling — and a disarmed retry must succeed over
//! the same path.
//!
//! The failpoint registry is process-global, and the test harness runs
//! this binary's tests on parallel threads: one test's armed
//! `store.write` fault would land in a sibling's unarmed writes. So
//! every test here holds [`serial`] for its whole body, armed or not.

use fs_graph::failpoint::ArmedGuard;
use fs_graph::GraphAccess;
use fs_store::{ingest_edge_list, IngestOptions};
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests of this binary around the failpoint registry.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A test that panicked while holding the lock leaves nothing to
    // repair: the registry is disarmed by its guard's drop.
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("fs_store_durability_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn residue(dir: &PathBuf) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect()
}

#[test]
fn failed_write_is_invisible_and_retry_succeeds() {
    let _serial = serial();
    let g = fs_gen::barabasi_albert(500, 3, &mut rand::rngs::SmallRng::seed_from_u64(11));
    let dir = tmp_dir("invisible");
    let path = dir.join("g.fsg");

    // Hard error mid-assembly: target absent, staging cleaned up.
    {
        let _armed = ArmedGuard::new("store.write=error:1.0", 1);
        assert!(fs_store::write_store(&g, &path).is_err());
    }
    assert!(!path.exists(), "failed write must not publish the target");
    assert_eq!(residue(&dir), Vec::<String>::new(), "no staging residue");

    // Short write (partial payload lands, then the failure): same
    // invisibility guarantee.
    {
        let _armed = ArmedGuard::new("store.write=short_write:1.0", 2);
        assert!(fs_store::write_store(&g, &path).is_err());
    }
    assert!(!path.exists());
    assert_eq!(residue(&dir), Vec::<String>::new());

    // Disarmed: the same path now takes a full, openable store.
    fs_store::write_store(&g, &path).unwrap();
    let m = fs_store::MmapGraph::open(&path).unwrap();
    assert_eq!(m.num_vertices(), g.num_vertices());
    assert_eq!(m.num_arcs(), g.num_arcs());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_rewrite_preserves_the_existing_store() {
    let _serial = serial();
    let g1 = fs_gen::barabasi_albert(300, 2, &mut rand::rngs::SmallRng::seed_from_u64(5));
    let g2 = fs_gen::barabasi_albert(400, 3, &mut rand::rngs::SmallRng::seed_from_u64(6));
    let dir = tmp_dir("preserve");
    let path = dir.join("g.fsg");
    fs_store::write_store(&g1, &path).unwrap();
    let before = std::fs::read(&path).unwrap();

    // A failed overwrite must leave the old bits untouched — the
    // staging file absorbs the damage, the rename never happens.
    {
        let _armed = ArmedGuard::new("store.write=enospc:1.0", 3);
        assert!(fs_store::write_store(&g2, &path).is_err());
    }
    assert_eq!(std::fs::read(&path).unwrap(), before);
    let m = fs_store::MmapGraph::open(&path).unwrap();
    assert_eq!(m.num_vertices(), g1.num_vertices());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_ingest_is_invisible_and_retry_matches_the_builder_path() {
    let _serial = serial();
    let g = fs_gen::barabasi_albert(2_000, 3, &mut rand::rngs::SmallRng::seed_from_u64(12));
    let dir = tmp_dir("ingest");
    let text = dir.join("g.el");
    fs_graph::io::save_edge_list(&g, &text).unwrap();
    let reference = dir.join("reference.fsg");
    fs_store::write_store(&fs_graph::io::load_edge_list(&text).unwrap(), &reference).unwrap();
    let expected = std::fs::read(&reference).unwrap();
    std::fs::remove_file(&reference).unwrap();

    let path = dir.join("g.fsg");
    // The default budget reads the input once; 1 byte spools every
    // vertex to its own bucket.
    for budget in [IngestOptions::default().memory_budget_bytes, 1] {
        let opts = IngestOptions {
            memory_budget_bytes: budget,
        };
        {
            let _armed = ArmedGuard::new("store.write=error:1.0", 4);
            assert!(ingest_edge_list(&text, &path, &opts).is_err());
        }
        assert!(!path.exists(), "failed ingest must not publish the target");
        assert_eq!(
            residue(&dir),
            vec!["g.el".to_string()],
            "no staging or spool residue at budget {budget}"
        );

        let report = ingest_edge_list(&text, &path, &opts).unwrap();
        assert_eq!(report.buckets > 1, budget == 1);
        assert_eq!(std::fs::read(&path).unwrap(), expected, "budget {budget}");
        std::fs::remove_file(&path).unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}
