//! Serializing graphs into `.fsg` container files.
//!
//! Two front doors: [`write_store`] persists an in-memory
//! [`fs_graph::Graph`] (with its original-edge flags, degree tables and
//! group labels), [`write_weighted_store`] persists a
//! [`fs_graph::WeightedGraph`]. Both funnel into the shared
//! [`assemble`] pass, which the external-memory ingestion pipeline
//! (`crate::ingest`) also uses with temp-file-backed sections, so every
//! store file is laid out and checksummed by exactly one code path.

use crate::format::{
    fnv1a, Fnv1a, SectionId, StoreError, StoreKind, HEADER_LEN, MAGIC, SECTION_ALIGN,
    SECTION_ENTRY_LEN, VERSION,
};
use fs_graph::failpoint::{self, Fault};
use fs_graph::{Graph, WeightedGraph};
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

/// Failpoint site consulted while assembling a store file: an injected
/// fault aborts the write mid-file, and the staging discipline must
/// leave nothing behind — no half-written store under the target name,
/// no stranded `.tmp` sibling.
pub const WRITE_SITE: &str = "store.write";

/// Where a section's payload bytes live while the file is assembled.
pub(crate) enum SectionData {
    /// Payload already in memory.
    Bytes(Vec<u8>),
    /// `u32` values, written little-endian without a byte copy.
    U32s(Vec<u32>),
    /// `u64` values, written little-endian without a byte copy.
    U64s(Vec<u64>),
    /// Payload spooled to a temp file during ingestion, with its length
    /// and checksum accumulated while it was written.
    Spooled {
        /// The spool file (read back from the start during assembly).
        file: File,
        /// Payload byte length.
        len: u64,
        /// FNV-1a 64 of the payload, computed during spooling.
        hash: u64,
    },
}

/// Values per little-endian piece of a `U32s`/`U64s` payload.
const PIECE_VALUES: usize = 8 << 10;

/// Hands `values` to `sink` as little-endian bytes, a piece at a time.
fn le_pieces<T: Copy, const N: usize>(
    values: &[T],
    to_le: fn(T) -> [u8; N],
    sink: &mut dyn FnMut(&[u8]) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut piece = Vec::with_capacity(PIECE_VALUES.min(values.len()) * N);
    for chunk in values.chunks(PIECE_VALUES) {
        piece.clear();
        for &v in chunk {
            piece.extend_from_slice(&to_le(v));
        }
        sink(&piece)?;
    }
    Ok(())
}

impl SectionData {
    fn len(&self) -> u64 {
        match self {
            SectionData::Bytes(b) => b.len() as u64,
            SectionData::U32s(v) => v.len() as u64 * 4,
            SectionData::U64s(v) => v.len() as u64 * 8,
            SectionData::Spooled { len, .. } => *len,
        }
    }

    fn hash(&self) -> u64 {
        let mut hasher = Fnv1a::new();
        let mut update = |bytes: &[u8]| {
            hasher.update(bytes);
            Ok(())
        };
        let hashed = match self {
            SectionData::Bytes(b) => return fnv1a(b),
            SectionData::U32s(v) => le_pieces(v, u32::to_le_bytes, &mut update),
            SectionData::U64s(v) => le_pieces(v, u64::to_le_bytes, &mut update),
            SectionData::Spooled { hash, .. } => return *hash,
        };
        hashed.expect("hashing into memory cannot fail");
        hasher.finish()
    }
}

/// Header counts of the file being assembled.
pub(crate) struct HeaderFields {
    pub kind: StoreKind,
    pub num_vertices: usize,
    pub num_arcs: usize,
    pub num_original_edges: usize,
    pub num_groups: usize,
    pub num_memberships: usize,
}

/// Writes a complete store file: header, section table, padded payloads.
///
/// The file is first written to `<path>.tmp` and atomically renamed into
/// place, so a crash mid-write never leaves a half-written store behind
/// under the target name.
pub(crate) fn assemble(
    path: &Path,
    fields: &HeaderFields,
    sections: Vec<(SectionId, SectionData)>,
) -> Result<(), StoreError> {
    // Lay out payload offsets: metadata first, then each payload at the
    // next 8-byte boundary.
    let table_end = HEADER_LEN + sections.len() * SECTION_ENTRY_LEN;
    let mut pos = table_end.next_multiple_of(SECTION_ALIGN);
    let mut entries = Vec::with_capacity(sections.len());
    for (id, data) in &sections {
        entries.push((*id, pos as u64, data.len(), data.hash()));
        pos = (pos + data.len() as usize).next_multiple_of(SECTION_ALIGN);
    }

    // Header (first 64 bytes) + table, then the covering hash.
    let mut head = Vec::with_capacity(table_end);
    head.extend_from_slice(&MAGIC);
    head.extend_from_slice(&VERSION.to_le_bytes());
    head.extend_from_slice(&fields.kind.as_u32().to_le_bytes());
    head.extend_from_slice(&(fields.num_vertices as u64).to_le_bytes());
    head.extend_from_slice(&(fields.num_arcs as u64).to_le_bytes());
    head.extend_from_slice(&(fields.num_original_edges as u64).to_le_bytes());
    head.extend_from_slice(&(fields.num_groups as u64).to_le_bytes());
    head.extend_from_slice(&(fields.num_memberships as u64).to_le_bytes());
    head.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    head.extend_from_slice(&0u32.to_le_bytes());
    debug_assert_eq!(head.len(), 64);
    let mut table = Vec::with_capacity(sections.len() * SECTION_ENTRY_LEN);
    for &(id, offset, len, hash) in &entries {
        table.extend_from_slice(&(id as u32).to_le_bytes());
        table.extend_from_slice(&0u32.to_le_bytes());
        table.extend_from_slice(&offset.to_le_bytes());
        table.extend_from_slice(&len.to_le_bytes());
        table.extend_from_slice(&hash.to_le_bytes());
    }
    let mut hasher = Fnv1a::new();
    hasher.update(&head);
    hasher.update(&table);
    let header_hash = hasher.finish();

    // Suffix the *full* file name (plus pid): `with_extension` would
    // collapse outputs differing only in extension onto one temp file,
    // and concurrent writers must not share staging paths.
    let tmp_path = sibling_path(path, &format!(".tmp.{}", std::process::id()));
    // Failed assemblies (disk full, shrunk spool) must not strand a
    // partially written multi-gigabyte staging file; the guard is
    // defused once the rename has installed it under the real name.
    struct TmpGuard(Option<std::path::PathBuf>);
    impl Drop for TmpGuard {
        fn drop(&mut self) {
            if let Some(p) = &self.0 {
                let _ = std::fs::remove_file(p);
            }
        }
    }
    let mut guard = TmpGuard(Some(tmp_path.clone()));
    {
        let file = File::create(&tmp_path)?;
        let mut w = BufWriter::new(file);
        w.write_all(&head)?;
        w.write_all(&header_hash.to_le_bytes())?;
        w.write_all(&table)?;
        // Chaos hook: fail after real bytes hit the staging file, so
        // the partial-write-invisibility guarantee is what's tested,
        // not an early-exit shortcut.
        if let Some(fault) = failpoint::check(WRITE_SITE) {
            if fault == Fault::ShortWrite {
                w.write_all(&[0u8; 7])?;
                let _ = w.flush();
            }
            return Err(StoreError::Io(std::io::Error::other(format!(
                "injected write failure (failpoint {WRITE_SITE}: {fault:?})"
            ))));
        }
        let mut written = table_end;
        for ((_, data), &(_, offset, len, _)) in sections.into_iter().zip(&entries) {
            let pad = offset as usize - written;
            w.write_all(&vec![0u8; pad])?;
            let mut write = |bytes: &[u8]| w.write_all(bytes);
            match data {
                SectionData::Bytes(bytes) => write(&bytes)?,
                SectionData::U32s(v) => le_pieces(&v, u32::to_le_bytes, &mut write)?,
                SectionData::U64s(v) => le_pieces(&v, u64::to_le_bytes, &mut write)?,
                SectionData::Spooled { mut file, .. } => {
                    use std::io::Seek;
                    file.seek(std::io::SeekFrom::Start(0))?;
                    let copied = std::io::copy(&mut Read::by_ref(&mut file).take(len), &mut w)?;
                    if copied != len {
                        return Err(StoreError::Format(format!(
                            "spooled section shrank: {copied} of {len} bytes"
                        )));
                    }
                }
            }
            written = offset as usize + len as usize;
        }
        w.flush()?;
        // Durability before the rename publishes the file: without the
        // fsync, a power loss can persist the rename but not the
        // payload pages, and the checksum-skipping `MmapGraph::open`
        // would then serve a torn file as valid.
        w.into_inner()
            .map_err(|e| StoreError::Io(e.into_error()))?
            .sync_all()?;
    }
    std::fs::rename(&tmp_path, path)?;
    guard.0 = None;
    // The rename is only durable once the directory entry is: fsync
    // the parent directory, or a power loss can roll the publish back
    // (old file or nothing) after the caller was told the store
    // exists. Same discipline as the serve journal's fsync points.
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()?;
    Ok(())
}

/// `path` with `suffix` appended to its full file name (not swapped in
/// for the extension), staying in the same directory so the final
/// rename cannot cross filesystems.
pub(crate) fn sibling_path(path: &Path, suffix: &str) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map(|s| s.to_os_string())
        .unwrap_or_default();
    name.push(suffix);
    path.with_file_name(name)
}

/// `usize` values → little-endian `u64` payload bytes.
pub(crate) fn u64_bytes(values: impl ExactSizeIterator<Item = u64>) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// `u32` values → little-endian payload bytes.
pub(crate) fn u32_bytes(values: impl ExactSizeIterator<Item = u32>) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Persists `graph` to a store file of kind [`StoreKind::Graph`].
///
/// Sections written: CSR offsets/targets, original-edge flags, original
/// in-/out-degree tables, and — only when the graph has labels — the
/// group CSR. The output is deterministic: the same graph always
/// produces byte-identical files (pinned by the ingestion-equivalence
/// tests).
pub fn write_store(graph: &Graph, path: impl AsRef<Path>) -> Result<(), StoreError> {
    let csr = graph.csr();
    let mut sections = vec![
        (
            SectionId::Offsets,
            SectionData::Bytes(u64_bytes(csr.offsets().iter().map(|&o| o as u64))),
        ),
        (
            SectionId::Targets,
            SectionData::Bytes(u32_bytes(csr.targets().iter().map(|t| t.raw()))),
        ),
        (
            SectionId::ArcFlags,
            SectionData::Bytes(u64_bytes(graph.arc_flags().words().iter().copied())),
        ),
        (
            SectionId::InDegrees,
            SectionData::Bytes(u32_bytes(graph.in_degrees_orig().iter().copied())),
        ),
        (
            SectionId::OutDegrees,
            SectionData::Bytes(u32_bytes(graph.out_degrees_orig().iter().copied())),
        ),
    ];
    let groups = graph.groups();
    if groups.num_memberships() > 0 {
        sections.push((
            SectionId::GroupOffsets,
            SectionData::Bytes(u64_bytes(groups.offsets().iter().map(|&o| o as u64))),
        ));
        sections.push((
            SectionId::GroupLabels,
            SectionData::Bytes(u32_bytes(groups.labels().iter().copied())),
        ));
    }
    assemble(
        path.as_ref(),
        &HeaderFields {
            kind: StoreKind::Graph,
            num_vertices: graph.num_vertices(),
            num_arcs: graph.num_arcs(),
            num_original_edges: graph.num_original_edges(),
            num_groups: graph.num_groups(),
            num_memberships: groups.num_memberships(),
        },
        sections,
    )
}

/// Persists `graph` to a store file of kind [`StoreKind::Weighted`]
/// (CSR offsets/targets plus the per-arc `f64` weights, stored as bit
/// patterns so the round-trip is exact).
pub fn write_weighted_store(
    graph: &WeightedGraph,
    path: impl AsRef<Path>,
) -> Result<(), StoreError> {
    let sections = vec![
        (
            SectionId::Offsets,
            SectionData::Bytes(u64_bytes(graph.offsets().iter().map(|&o| o as u64))),
        ),
        (
            SectionId::Targets,
            SectionData::Bytes(u32_bytes(graph.targets().iter().map(|t| t.raw()))),
        ),
        (
            SectionId::EdgeWeights,
            SectionData::Bytes(u64_bytes(graph.weights().iter().map(|w| w.to_bits()))),
        ),
    ];
    assemble(
        path.as_ref(),
        &HeaderFields {
            kind: StoreKind::Weighted,
            num_vertices: graph.num_vertices(),
            num_arcs: graph.num_arcs(),
            num_original_edges: 0,
            num_groups: 0,
            num_memberships: 0,
        },
        sections,
    )
}
