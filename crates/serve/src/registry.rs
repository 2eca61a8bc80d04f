//! Shared, content-addressed registry of open mmap stores.
//!
//! Jobs name stores by **file name** under the registry's root
//! directory; the registry resolves the name to the file's *content
//! digest* ([`fs_store::file_digest`] — header + section table, `O(1)`
//! I/O) and keeps an LRU of open [`MmapGraph`]s keyed by that digest:
//!
//! * two names for identical content share one mapping;
//! * rewriting a store file under the same name is picked up on the
//!   next job (new digest → fresh open), never served stale;
//! * handles are `Arc`s, so **eviction is safe under in-flight jobs**:
//!   dropping a registry entry cannot unmap a store a running job still
//!   reads — the job's clone keeps the mapping alive until the job
//!   finishes (the kernel reclaims the pages when the last clone
//!   drops).
//!
//! Store names are validated to a single path component (no `/`, no
//! `..`), so requests cannot traverse outside the root.

use fs_store::{HugepageMode, MmapGraph, StoreError};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Why a store could not be served.
#[derive(Debug)]
pub enum RegistryError {
    /// The name is not a plain file name (traversal attempt or empty).
    BadName(String),
    /// No such file under the registry root.
    NotFound(String),
    /// The file exists but is not a readable graph store.
    Unreadable {
        /// The requested name.
        name: String,
        /// The store layer's error.
        cause: StoreError,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::BadName(n) => write!(f, "invalid store name '{n}'"),
            RegistryError::NotFound(n) => write!(f, "no store named '{n}'"),
            RegistryError::Unreadable { name, cause } => {
                write!(f, "store '{name}' is unreadable: {cause}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

struct OpenStore {
    graph: Arc<MmapGraph>,
    last_used: u64,
}

struct Inner {
    open: HashMap<u64, OpenStore>,
    clock: u64,
}

/// Content-digest-keyed LRU of open [`MmapGraph`]s. See the
/// [module docs](self).
pub struct StoreRegistry {
    root: PathBuf,
    capacity: usize,
    hugepages: HugepageMode,
    inner: Mutex<Inner>,
    /// Open/evict telemetry; `None` in bare test harnesses.
    obs: Option<Arc<crate::obs::ServeObs>>,
}

/// A summary row for `GET /v1/stores`.
#[derive(Clone, Debug)]
pub struct StoreInfo {
    /// File name under the registry root.
    pub name: String,
    /// Content digest (hex) — the LRU key.
    pub digest: u64,
    /// `|V|`.
    pub num_vertices: usize,
    /// Arcs of the symmetric closure.
    pub num_arcs: usize,
    /// Whether the store is currently mapped.
    pub open: bool,
}

impl StoreRegistry {
    /// A registry over `root`, keeping at most `capacity` stores
    /// mapped.
    pub fn new(root: impl Into<PathBuf>, capacity: usize) -> StoreRegistry {
        assert!(capacity >= 1, "registry capacity must be at least 1");
        StoreRegistry {
            root: root.into(),
            capacity,
            hugepages: HugepageMode::Off,
            inner: Mutex::new(Inner {
                open: HashMap::new(),
                clock: 0,
            }),
            obs: None,
        }
    }

    /// Sets the hugepage policy stores are opened with (see
    /// [`fs_store::HugepageMode`]). `Try` is safe everywhere — it falls
    /// back to a plain mapping when no hugepage pool is configured;
    /// `Require` makes jobs fail loudly instead.
    pub fn with_hugepages(mut self, mode: HugepageMode) -> StoreRegistry {
        self.hugepages = mode;
        self
    }

    /// Arms open/evict metrics and trace events (builder, like
    /// [`StoreRegistry::with_hugepages`]).
    pub fn with_obs(mut self, obs: Arc<crate::obs::ServeObs>) -> StoreRegistry {
        self.obs = Some(obs);
        self
    }

    /// The registry root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn resolve(&self, name: &str) -> Result<PathBuf, RegistryError> {
        let bad = name.is_empty()
            || name == "."
            || name == ".."
            || name.contains('/')
            || name.contains('\\')
            || name.contains('\0');
        if bad {
            return Err(RegistryError::BadName(name.to_string()));
        }
        Ok(self.root.join(name))
    }

    /// Resolves `name` to its current content digest **without**
    /// opening or mapping the store (`O(1)` I/O: header + section
    /// table). The result-cache fast path uses this so a cache hit
    /// costs no `O(V)` open — and because the digest is read fresh
    /// from the file, a rewritten store misses the old entries by
    /// construction.
    pub fn digest(&self, name: &str) -> Result<u64, RegistryError> {
        let path = self.resolve(name)?;
        if !path.is_file() {
            return Err(RegistryError::NotFound(name.to_string()));
        }
        fs_store::file_digest(&path).map_err(|cause| RegistryError::Unreadable {
            name: name.to_string(),
            cause,
        })
    }

    /// Opens (or returns the cached mapping of) the store named `name`,
    /// returning its content digest and a shared handle. The handle
    /// stays valid after eviction — jobs hold it for their whole run.
    pub fn get(&self, name: &str) -> Result<(u64, Arc<MmapGraph>), RegistryError> {
        let digest = self.digest(name)?;
        self.get_with_digest(name, digest)
    }

    /// [`StoreRegistry::get`] for a `digest` the caller just read with
    /// [`StoreRegistry::digest`]: a store mapped under that digest is
    /// returned with no I/O. Otherwise the store is opened and its
    /// digest read again, as `get` does; the returned digest is the
    /// one the mapping was verified against.
    pub fn get_with_digest(
        &self,
        name: &str,
        mut digest: u64,
    ) -> Result<(u64, Arc<MmapGraph>), RegistryError> {
        let path = self.resolve(name)?;
        let unreadable = |cause| RegistryError::Unreadable {
            name: name.to_string(),
            cause,
        };
        // Digest → (cache hit or open) → re-digest. The re-check closes
        // the race where the file is rewritten between the digest read
        // and the open: caching the new content under the old digest
        // would serve the wrong graph to later digest hits. A handful
        // of retries rides out an in-progress rewrite; persistent
        // instability is reported, never cached.
        let graph = 'open: {
            for _ in 0..4 {
                {
                    let mut inner = self.inner.lock().expect("registry poisoned");
                    inner.clock += 1;
                    let clock = inner.clock;
                    if let Some(entry) = inner.open.get_mut(&digest) {
                        entry.last_used = clock;
                        return Ok((digest, Arc::clone(&entry.graph)));
                    }
                }
                // The O(V) open runs outside the lock.
                let graph =
                    Arc::new(MmapGraph::open_with(&path, self.hugepages).map_err(&unreadable)?);
                let after = fs_store::file_digest(&path).map_err(&unreadable)?;
                if after == digest {
                    break 'open graph;
                }
                digest = after;
            }
            return Err(unreadable(fs_store::StoreError::Format(
                "store file keeps changing while being opened".into(),
            )));
        };
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner.clock += 1;
        let clock = inner.clock;
        let graph = match inner.open.get_mut(&digest) {
            // A racing opener beat us; adopt its mapping.
            Some(entry) => {
                entry.last_used = clock;
                Arc::clone(&entry.graph)
            }
            None => {
                inner.open.insert(
                    digest,
                    OpenStore {
                        graph: Arc::clone(&graph),
                        last_used: clock,
                    },
                );
                if let Some(obs) = &self.obs {
                    obs.store_opens.incr();
                    obs.event(
                        "registry.open",
                        None,
                        &[
                            ("store", fs_obs::FieldValue::from(name)),
                            ("digest", fs_obs::FieldValue::from(format!("{digest:016x}"))),
                        ],
                    );
                }
                graph
            }
        };
        // LRU eviction; the Arc keeps evicted stores alive for any job
        // still holding a handle.
        while inner.open.len() > self.capacity {
            // `len() > capacity >= 0` makes the map non-empty, but a
            // degrade beats an abort on the open-store path.
            let Some(oldest) = inner
                .open
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k)
            else {
                break;
            };
            inner.open.remove(&oldest);
            if let Some(obs) = &self.obs {
                obs.store_evictions.incr();
                obs.event(
                    "registry.evict",
                    None,
                    &[("digest", fs_obs::FieldValue::from(format!("{oldest:016x}")))],
                );
            }
        }
        Ok((digest, graph))
    }

    /// Number of currently mapped stores.
    pub fn open_count(&self) -> usize {
        self.inner.lock().expect("registry poisoned").open.len()
    }

    /// Lists `.fsg` files under the root with their header facts
    /// (cheap: header + section table reads, no mapping).
    pub fn list(&self) -> std::io::Result<Vec<StoreInfo>> {
        let mut out = Vec::new();
        let open_digests: Vec<u64> = {
            let inner = self.inner.lock().expect("registry poisoned");
            inner.open.keys().copied().collect()
        };
        let mut entries: Vec<_> = std::fs::read_dir(&self.root)?
            .filter_map(|e| e.ok())
            .filter(|e| {
                e.path().extension().and_then(|x| x.to_str()) == Some("fsg") && e.path().is_file()
            })
            .collect();
        entries.sort_by_key(|e| e.file_name());
        for entry in entries {
            let name = entry.file_name().to_string_lossy().into_owned();
            // Skip unreadable/corrupt files rather than failing the
            // whole listing.
            let Ok(digest) = fs_store::file_digest(entry.path()) else {
                continue;
            };
            let Ok(layout) = fs_store::inspect(entry.path()) else {
                continue;
            };
            out.push(StoreInfo {
                name,
                digest,
                num_vertices: layout.header.num_vertices,
                num_arcs: layout.header.num_arcs,
                open: open_digests.contains(&digest),
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_graph::GraphAccess;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn write_ba_store(dir: &Path, name: &str, n: usize, seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = fs_gen::barabasi_albert(n, 2, &mut rng);
        fs_store::write_store(&g, dir.join(name)).unwrap();
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fs_serve_registry_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn name_validation_blocks_traversal() {
        let dir = tmp("names");
        let reg = StoreRegistry::new(&dir, 2);
        for bad in ["", ".", "..", "../x.fsg", "a/b.fsg", "a\\b.fsg", "x\0.fsg"] {
            assert!(
                matches!(reg.get(bad), Err(RegistryError::BadName(_))),
                "{bad:?} must be rejected"
            );
        }
        assert!(matches!(
            reg.get("missing.fsg"),
            Err(RegistryError::NotFound(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn caches_by_digest_and_evicts_lru_safely() {
        let dir = tmp("lru");
        write_ba_store(&dir, "a.fsg", 60, 1);
        write_ba_store(&dir, "b.fsg", 80, 2);
        // Same content as a.fsg under another name: shares the mapping.
        std::fs::copy(dir.join("a.fsg"), dir.join("a2.fsg")).unwrap();

        let reg = StoreRegistry::new(&dir, 1);
        let (da, ga) = reg.get("a.fsg").unwrap();
        let (da2, ga2) = reg.get("a2.fsg").unwrap();
        assert_eq!(da, da2, "identical content shares a digest");
        assert!(Arc::ptr_eq(&ga, &ga2), "identical content shares a mapping");
        assert_eq!(reg.open_count(), 1);

        // Opening b evicts a (capacity 1) — but the held handle stays
        // fully usable: eviction is safe under in-flight jobs.
        let (db, gb) = reg.get("b.fsg").unwrap();
        assert_ne!(da, db);
        assert_eq!(reg.open_count(), 1);
        assert_eq!(ga.num_vertices(), 60);
        assert!(ga.degree(fs_graph::VertexId::new(0)) > 0);
        assert_eq!(gb.num_vertices(), 80);

        // Re-opening a maps it afresh.
        let (da3, ga3) = reg.get("a.fsg").unwrap();
        assert_eq!(da, da3);
        assert!(!Arc::ptr_eq(&ga, &ga3), "evicted mapping was reopened");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rewritten_store_is_picked_up_by_digest() {
        let dir = tmp("rewrite");
        write_ba_store(&dir, "s.fsg", 50, 3);
        let reg = StoreRegistry::new(&dir, 4);
        let (d1, g1) = reg.get("s.fsg").unwrap();
        assert_eq!(g1.num_vertices(), 50);
        write_ba_store(&dir, "s.fsg", 70, 4);
        let (d2, g2) = reg.get("s.fsg").unwrap();
        assert_ne!(d1, d2, "rewrite must change the digest");
        assert_eq!(g2.num_vertices(), 70);
        // The old handle still reads the old mapping.
        assert_eq!(g1.num_vertices(), 50);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_probed_digest_reuses_the_mapping_and_a_stale_one_reopens() {
        let dir = tmp("probed");
        write_ba_store(&dir, "p.fsg", 50, 7);
        let reg = StoreRegistry::new(&dir, 4);
        let d1 = reg.digest("p.fsg").unwrap();
        let (da, ga) = reg.get_with_digest("p.fsg", d1).unwrap();
        assert_eq!(da, d1);
        // A mapped digest is served without touching the file: with the
        // file gone, the probed lookup still answers and `get` cannot.
        std::fs::rename(dir.join("p.fsg"), dir.join("p.moved")).unwrap();
        let (db, gb) = reg.get_with_digest("p.fsg", d1).unwrap();
        assert_eq!(db, d1);
        assert!(Arc::ptr_eq(&ga, &gb));
        assert!(matches!(reg.get("p.fsg"), Err(RegistryError::NotFound(_))));
        // A digest that no longer matches the file is re-checked after
        // the open: the new content comes back under its own digest.
        write_ba_store(&dir, "p.fsg", 70, 8);
        let stale = d1 ^ 1;
        let (dc, gc) = reg.get_with_digest("p.fsg", stale).unwrap();
        assert_eq!(dc, reg.digest("p.fsg").unwrap());
        assert_ne!(dc, stale);
        assert_eq!(gc.num_vertices(), 70);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn listing_reports_header_facts() {
        let dir = tmp("list");
        write_ba_store(&dir, "x.fsg", 40, 5);
        write_ba_store(&dir, "y.fsg", 30, 6);
        std::fs::write(dir.join("junk.fsg"), b"not a store").unwrap();
        std::fs::write(dir.join("readme.txt"), b"ignored").unwrap();
        let reg = StoreRegistry::new(&dir, 4);
        let infos = reg.list().unwrap();
        assert_eq!(infos.len(), 2, "junk and non-.fsg files skipped");
        assert_eq!(infos[0].name, "x.fsg");
        assert_eq!(infos[0].num_vertices, 40);
        assert!(!infos[0].open);
        reg.get("x.fsg").unwrap();
        let infos = reg.list().unwrap();
        assert!(infos.iter().find(|i| i.name == "x.fsg").unwrap().open);
        std::fs::remove_dir_all(&dir).ok();
    }
}
