//! Ingestion: text edge lists into store files, reading the input once
//! when its arcs fit the memory budget.
//!
//! The builder path (`read_edge_list` → `GraphBuilder` →
//! [`crate::write_store`]) holds the raw edges, a sorted arc list and
//! the adjacency at once. This pipeline places arcs by counting:
//!
//! 1. **Count pass** — scan the text once through the shared
//!    [`EdgeListScanner`] (one grammar with `read_edge_list`, line
//!    numbers in errors); count the arcs each vertex will own, learn
//!    `|V|`, collect the (small) group records, and buffer each edge's
//!    `(u, v)` pair while the pairs and the arc slots they will take
//!    (16 bytes per edge line) fit the budget.
//! 2. **Placement** — prefix sums of the counts give each row its slots
//!    in one `u32` array. Each original arc goes to its owner's left
//!    cursor, each reverse copy to its target's right cursor.
//! 3. **Row build** — per row, sort the two halves and merge them,
//!    dropping repeated targets: a target found in the original half
//!    keeps its flag, which is exactly `GraphBuilder::build`'s
//!    `(u, v, !original)` rule. The merged rows are the CSR targets;
//!    offsets, flag bits and degree tables fill in as rows close.
//!
//! An input whose pairs would pass the budget drops its buffer and is
//! read a second time instead: each edge's pair is spooled to the
//! buckets (contiguous vertex ranges of at most budget / 8 arc slots)
//! of its two endpoints, and each bucket is placed and built as above,
//! its targets and flag words streaming to section spools. Then only
//! `O(V)` tables and one bucket's slots are resident.
//!
//! The output is **byte-identical** to `write_store(read_edge_list(..))`
//! on the same input (pinned by tests): same dedup rules, same section
//! layout, same checksums — one canonical file per graph, whichever
//! path produced it.

use crate::format::{Fnv1a, SectionId, StoreError, StoreKind};
use crate::writer::{assemble, u32_bytes, u64_bytes, HeaderFields, SectionData};
use fs_graph::io::{EdgeListRecord as Record, EdgeListScanner, IoError};
use fs_graph::VertexGroups;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Tuning knobs for [`ingest_edge_list`].
#[derive(Clone, Debug)]
pub struct IngestOptions {
    /// Approximate cap on resident bytes for the arcs being placed (the
    /// `O(V)` tables are always resident on top of this). Default
    /// 256 MiB.
    pub memory_budget_bytes: usize,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            // 16 bytes per edge line read once (an 8-byte buffered pair
            // and two 4-byte arc slots) → ~16M edge lines in one pass;
            // above that, buckets of ~32M arc slots.
            memory_budget_bytes: 256 << 20,
        }
    }
}

/// What one ingestion run did.
#[derive(Clone, Debug)]
pub struct IngestReport {
    /// `|V|` of the written store.
    pub num_vertices: usize,
    /// Arcs of the symmetric closure.
    pub num_arcs: usize,
    /// Distinct directed edges of `E_d`.
    pub num_original_edges: usize,
    /// Distinct group labels.
    pub num_groups: usize,
    /// Total (vertex, group) memberships.
    pub num_memberships: usize,
    /// Vertex-range buckets the rows were built in: 1 when the arcs fit
    /// the budget and the input was read once; more when it was read
    /// twice, through spooled buckets.
    pub buckets: usize,
    /// Lines of the input (a second read sees the same lines).
    pub lines: usize,
}

/// Resident bytes per buffered edge line: its `(u, v)` pair plus the
/// two `u32` slots its arcs take.
const EDGE_COST: usize = 16;

/// Resident bytes per arc slot of a spooled bucket: half an edge line's,
/// so a bucket costs what the one-pass path would.
const ARC_COST: usize = EDGE_COST / 2;

/// Spooled pair record: `u32` source + `u32` target, little-endian.
const PAIR_LEN: usize = 8;

/// Least capacity, in bytes, of the edge-sized buffers (the pair buffer
/// and the arc slots). glibc serves a request above its mmap threshold
/// from a private mapping and unmaps it on free, and it raises that
/// threshold, up to 32 MiB, as mapped chunks are freed. A smaller
/// buffer can come from the heap, whose freed pages stay resident
/// under the peak of whatever the process does next (a server's, say);
/// one reserved above 32 MiB is always mapped. Untouched pages are
/// never resident, so a small input pays only address space.
const EDGE_BUFFER_FLOOR: usize = (32 << 20) + (64 << 10);

/// An empty edge-sized buffer with room for `len` values.
fn edge_buffer<T>(len: usize) -> Vec<T> {
    Vec::with_capacity(len.max(EDGE_BUFFER_FLOOR / std::mem::size_of::<T>()))
}

fn line_err<T>(line: usize, message: impl std::fmt::Display) -> Result<T, StoreError> {
    Err(StoreError::Format(format!(
        "parse error at line {line}: {message}"
    )))
}

fn scan_err(e: IoError) -> StoreError {
    match e {
        IoError::Io(e) => StoreError::Io(e),
        parse => StoreError::Format(parse.to_string()),
    }
}

fn open_scanner(input: &Path) -> Result<EdgeListScanner<BufReader<File>>, StoreError> {
    Ok(EdgeListScanner::new(BufReader::with_capacity(
        1 << 20,
        File::open(input)?,
    )))
}

/// Adds each pair's two arcs to the arc counts of their owners.
fn count_arcs(counts: &mut Vec<u32>, pairs: &[(u32, u32)]) -> Result<(), StoreError> {
    for &(u, v) in pairs {
        let hi = u.max(v) as usize;
        if counts.len() <= hi {
            counts.resize(hi + 1, 0);
        }
        for w in [u, v] {
            let c = &mut counts[w as usize];
            *c = c.checked_add(1).ok_or_else(|| {
                StoreError::Format(format!("vertex {w} owns over {} arcs", u32::MAX))
            })?;
        }
    }
    Ok(())
}

fn changed_between_passes<T>() -> Result<T, StoreError> {
    Err(StoreError::Format("input changed between passes".into()))
}

/// The arcs of the vertex range `lo..lo + rows`, placed by counting.
/// Row `r` owns slots `bounds[r]..bounds[r + 1]`: its original arcs
/// fill them from the left cursor up, the reverse copies of arcs into
/// it from the right cursor down, and the cursors meet once the row is
/// complete.
struct Rows {
    lo: u32,
    bounds: Vec<usize>,
    /// `(left, right)` per row, side by side: a reverse copy reads both.
    cursors: Vec<(usize, usize)>,
    slots: Vec<u32>,
}

impl Rows {
    /// Empty rows for the vertices from `lo` on, `counts` giving the
    /// arcs each will own.
    fn new(lo: usize, counts: &[u32]) -> Rows {
        let mut bounds = Vec::with_capacity(counts.len() + 1);
        let mut total = 0usize;
        bounds.push(0);
        for &c in counts {
            total += c as usize;
            bounds.push(total);
        }
        let mut slots = edge_buffer(total);
        slots.resize(total, 0);
        Rows {
            lo: lo as u32,
            cursors: bounds.windows(2).map(|w| (w[0], w[1])).collect(),
            bounds,
            slots,
        }
    }

    /// Places the original arc `u → v` in `u`'s row and its reverse copy
    /// in `v`'s, for whichever of the two rows this range holds.
    fn place(&mut self, u: u32, v: u32) -> Result<(), StoreError> {
        if let Some((left, right)) = self.cursors.get_mut(u.wrapping_sub(self.lo) as usize) {
            if left == right {
                return changed_between_passes();
            }
            self.slots[*left] = v;
            *left += 1;
        }
        if let Some((left, right)) = self.cursors.get_mut(v.wrapping_sub(self.lo) as usize) {
            if left == right {
                return changed_between_passes();
            }
            *right -= 1;
            self.slots[*right] = u;
        }
        Ok(())
    }

    /// Sorts each row's two halves and merges them, dropping repeated
    /// targets with the original-flagged copy kept, and closes the rows
    /// in `csr`. Returns the merged targets.
    fn build(mut self, csr: &mut CsrTables) -> Result<Vec<u32>, StoreError> {
        let mut row = Vec::new();
        let mut kept = 0;
        for (r, &(mid, right)) in self.cursors.iter().enumerate() {
            let (start, end) = (self.bounds[r], self.bounds[r + 1]);
            if mid != right {
                return changed_between_passes();
            }
            // Merged rows move to the front of `slots`; a copy keeps
            // that from overwriting the row's unread half.
            row.clear();
            row.extend_from_slice(&self.slots[start..end]);
            let (orig, rev) = row.split_at_mut(mid - start);
            orig.sort_unstable();
            rev.sort_unstable();
            // The distinct sources of original arcs into this vertex
            // are its in-degree; the distinct targets, its out-degree.
            let owner = self.lo as usize + r;
            let out_deg = orig.chunk_by(u32::eq).count() as u32;
            csr.out_deg[owner] = out_deg;
            csr.in_deg[owner] = rev.chunk_by(u32::eq).count() as u32;
            csr.num_original_edges += out_deg as usize;
            let (mut i, mut j) = (0, 0);
            let mut last = None;
            while i < orig.len() || j < rev.len() {
                let original = j == rev.len() || (i < orig.len() && orig[i] <= rev[j]);
                let target = if original {
                    i += 1;
                    orig[i - 1]
                } else {
                    j += 1;
                    rev[j - 1]
                };
                if last != Some(target) {
                    last = Some(target);
                    self.slots[kept] = target;
                    kept += 1;
                    csr.push_flag(original);
                }
            }
            csr.offsets.push(csr.num_arcs);
        }
        self.slots.truncate(kept);
        Ok(self.slots)
    }
}

/// The CSR tables, filled row by row in vertex order. `flags` holds the
/// flag words not yet spooled; its last word is partial unless the arc
/// count is a multiple of 64.
struct CsrTables {
    offsets: Vec<u64>,
    in_deg: Vec<u32>,
    out_deg: Vec<u32>,
    flags: Vec<u64>,
    num_arcs: u64,
    num_original_edges: usize,
}

impl CsrTables {
    fn new(n: usize) -> CsrTables {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        CsrTables {
            offsets,
            in_deg: vec![0; n],
            out_deg: vec![0; n],
            flags: Vec::new(),
            num_arcs: 0,
            num_original_edges: 0,
        }
    }

    /// Appends one arc's flag bit.
    fn push_flag(&mut self, original: bool) {
        let bit = self.num_arcs % 64;
        if bit == 0 {
            self.flags.push(0);
        }
        if original {
            *self.flags.last_mut().expect("a word was pushed") |= 1 << bit;
        }
        self.num_arcs += 1;
    }

    /// Moves the complete flag words to `spool`.
    fn spool_flags(&mut self, spool: &mut Spool) -> Result<(), StoreError> {
        let complete = (self.num_arcs / 64) as usize - (spool.len / 8) as usize;
        spool.write(&u64_bytes(self.flags.drain(..complete)))
    }
}

/// A section spool: payload bytes streamed to a temp file with the
/// running length and checksum the final assembly needs.
struct Spool {
    writer: BufWriter<File>,
    len: u64,
    hash: Fnv1a,
}

impl Spool {
    fn create(path: &Path) -> Result<Spool, StoreError> {
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Spool {
            writer: BufWriter::with_capacity(1 << 20, file),
            len: 0,
            hash: Fnv1a::new(),
        })
    }

    fn write(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.writer.write_all(bytes)?;
        self.hash.update(bytes);
        self.len += bytes.len() as u64;
        Ok(())
    }

    fn into_section(mut self) -> Result<SectionData, StoreError> {
        self.writer.flush()?;
        let file = self
            .writer
            .into_inner()
            .map_err(|e| StoreError::Io(e.into_error()))?;
        Ok(SectionData::Spooled {
            file,
            len: self.len,
            hash: self.hash.finish(),
        })
    }
}

/// Removes the ingestion temp directory on scope exit (success or
/// error), leaving only the output store behind.
struct TempDirGuard(PathBuf);

impl Drop for TempDirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Converts the text edge list at `input` into a graph store at
/// `output`, reading the input once when its arcs fit the budget (see
/// the module docs). Accepts the same dialect as
/// `fs_graph::io::read_edge_list`, including SNAP-style bare pairs and
/// `g` group records; ids are used as-is (dense convention).
pub fn ingest_edge_list(
    input: impl AsRef<Path>,
    output: impl AsRef<Path>,
    opts: &IngestOptions,
) -> Result<IngestReport, StoreError> {
    let input = input.as_ref();
    let output = output.as_ref();

    // ---- Pass 1: count, validate, learn the universe. -------------
    let mut declared: Option<usize> = None;
    // Max id + 1, and the line that first referenced the highest vertex
    // id — a declared-too-small error points there, exactly like the
    // in-memory `read_edge_list` (pinned by the dialect-parity test).
    let mut max_seen: usize = 0;
    let mut max_line: usize = 0;
    let mut counts: Vec<u32> = Vec::new(); // arcs per owner
    let mut group_records: Vec<(u32, u32)> = Vec::new();
    let max_pairs = opts.memory_budget_bytes / EDGE_COST;
    let mut pairs: Option<Vec<(u32, u32)>> = Some(edge_buffer(0));
    let mut scanner = open_scanner(input)?;
    while let Some((record, lineno)) = scanner.next_record().map_err(scan_err)? {
        match record {
            Record::Blank => {}
            Record::Vertices(n) => declared = Some(n),
            Record::Edge(u, v) => {
                let hi = u.max(v) as usize;
                if hi + 1 > max_seen {
                    max_seen = hi + 1;
                    max_line = lineno;
                }
                // Self-loops raise the inferred vertex count but
                // produce no arcs, exactly as in `GraphBuilder`. Buffered
                // pairs are counted after the scan, in a loop of their own
                // that overlaps the counters' cache misses.
                if u != v {
                    match &mut pairs {
                        Some(buf) if buf.len() < max_pairs => buf.push((u, v)),
                        _ => {
                            if let Some(buf) = pairs.take() {
                                count_arcs(&mut counts, &buf)?;
                            }
                            count_arcs(&mut counts, &[(u, v)])?;
                        }
                    }
                }
            }
            Record::Group(v, g) => {
                if v as usize + 1 > max_seen {
                    max_seen = v as usize + 1;
                    max_line = lineno;
                }
                group_records.push((v, g));
            }
        }
    }
    let lines = scanner.lines();
    drop(scanner);
    let n = match declared {
        Some(d) => {
            if d < max_seen {
                return line_err(
                    max_line,
                    format!(
                        "declared {d} vertices but records reference vertex {}",
                        max_seen - 1
                    ),
                );
            }
            d
        }
        None => max_seen,
    };
    if let Some(buf) = &pairs {
        count_arcs(&mut counts, buf)?;
    }
    counts.resize(n, 0);

    // ---- Place and build the rows: from the pairs, or bucket by
    // bucket through a second pass. ----------------------------------
    let (targets, flags, buckets, csr, _spool_dir) = match pairs {
        Some(pairs) => {
            let mut rows = Rows::new(0, &counts);
            drop(counts);
            for &(u, v) in &pairs {
                rows.place(u, v)?;
            }
            drop(pairs);
            let mut csr = CsrTables::new(n);
            let targets = rows.build(&mut csr)?;
            let flags = std::mem::take(&mut csr.flags);
            (
                SectionData::U32s(targets),
                SectionData::U64s(flags),
                1,
                csr,
                None,
            )
        }
        None => {
            let mut csr = CsrTables::new(n);
            let (targets, flags, buckets, dir) =
                spooled(input, output, &counts, opts.memory_budget_bytes, &mut csr)?;
            (targets, flags, buckets, csr, Some(dir))
        }
    };

    // ---- Groups (small, in-memory — metadata, not edge-scale). -----
    let groups = if group_records.is_empty() {
        None
    } else {
        let mut per_vertex: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(v, g) in &group_records {
            per_vertex[v as usize].push(g);
        }
        Some(VertexGroups::from_per_vertex(per_vertex))
    };

    // ---- Assemble the container. -----------------------------------
    let CsrTables {
        offsets,
        in_deg,
        out_deg,
        num_arcs,
        num_original_edges,
        ..
    } = csr;
    let mut sections = vec![
        (SectionId::Offsets, SectionData::U64s(offsets)),
        (SectionId::Targets, targets),
        (SectionId::ArcFlags, flags),
        (SectionId::InDegrees, SectionData::U32s(in_deg)),
        (SectionId::OutDegrees, SectionData::U32s(out_deg)),
    ];
    let (num_groups, num_memberships) = match &groups {
        Some(g) => {
            sections.push((
                SectionId::GroupOffsets,
                SectionData::Bytes(u64_bytes(g.offsets().iter().map(|&o| o as u64))),
            ));
            sections.push((
                SectionId::GroupLabels,
                SectionData::Bytes(u32_bytes(g.labels().iter().copied())),
            ));
            (g.num_groups(), g.num_memberships())
        }
        None => (0, 0),
    };
    assemble(
        output,
        &HeaderFields {
            kind: StoreKind::Graph,
            num_vertices: n,
            num_arcs: num_arcs as usize,
            num_original_edges,
            num_groups,
            num_memberships,
        },
        sections,
    )?;
    Ok(IngestReport {
        num_vertices: n,
        num_arcs: num_arcs as usize,
        num_original_edges,
        num_groups,
        num_memberships,
        buckets,
        lines,
    })
}

/// The second pass of an input whose arcs pass the budget: spools each
/// edge's pair to the buckets of its two endpoints (contiguous vertex
/// ranges of at most `budget / ARC_COST` slots), then places and builds the
/// buckets in vertex order, streaming targets and flag words to section
/// spools. Returns the two sections, the bucket count, and the guard of
/// the spool directory, which must outlive the assembly.
fn spooled(
    input: &Path,
    output: &Path,
    counts: &[u32],
    budget: usize,
    csr: &mut CsrTables,
) -> Result<(SectionData, SectionData, usize, TempDirGuard), StoreError> {
    let n = counts.len();
    // At most ~1024 buckets, whatever the budget: each is a spool file.
    let total_arcs: u64 = counts.iter().map(|&c| u64::from(c)).sum();
    let budget_arcs = ((budget / ARC_COST).max(1) as u64).max(total_arcs.div_ceil(1024));
    let mut starts: Vec<u32> = vec![0];
    let mut acc = 0u64;
    for (v, &c) in counts.iter().enumerate() {
        if acc + u64::from(c) > budget_arcs && acc > 0 {
            starts.push(v as u32);
            acc = 0;
        }
        acc += u64::from(c);
    }
    let buckets = starts.len();

    // Full-name + pid suffix: outputs differing only in extension (or
    // two concurrent ingests) must not share — and mutually delete —
    // one spool directory.
    let tmp_dir =
        crate::writer::sibling_path(output, &format!(".ingest-tmp.{}", std::process::id()));
    std::fs::create_dir_all(&tmp_dir)?;
    let guard = TempDirGuard(tmp_dir.clone());
    let bucket_path = |b: usize| tmp_dir.join(format!("bucket-{b}"));

    // The bucket writers' buffers share the budget.
    let spool_buf = (budget / buckets).clamp(8 << 10, 1 << 18);
    {
        let mut writers: Vec<BufWriter<File>> = (0..buckets)
            .map(|b| File::create(bucket_path(b)).map(|f| BufWriter::with_capacity(spool_buf, f)))
            .collect::<Result<_, _>>()?;
        let bucket_of = |v: u32| -> usize { starts.partition_point(|&s| s <= v) - 1 };
        let mut scanner = open_scanner(input)?;
        while let Some((record, lineno)) = scanner.next_record().map_err(scan_err)? {
            if let Record::Edge(u, v) = record {
                if u == v {
                    continue;
                }
                if u.max(v) as usize >= n {
                    // Input changed between passes; refuse to misroute.
                    return line_err(lineno, "input grew between passes");
                }
                let mut pair = [0u8; PAIR_LEN];
                pair[..4].copy_from_slice(&u.to_le_bytes());
                pair[4..].copy_from_slice(&v.to_le_bytes());
                let (bu, bv) = (bucket_of(u), bucket_of(v));
                writers[bu].write_all(&pair)?;
                if bv != bu {
                    writers[bv].write_all(&pair)?;
                }
            }
        }
        for mut w in writers {
            w.flush()?;
        }
    }

    let mut targets = Spool::create(&tmp_dir.join("targets"))?;
    let mut flags = Spool::create(&tmp_dir.join("flags"))?;
    for b in 0..buckets {
        let lo = starts[b] as usize;
        let hi = starts.get(b + 1).map_or(n, |&s| s as usize);
        let mut rows = Rows::new(lo, &counts[lo..hi]);
        let path = bucket_path(b);
        let file = File::open(&path)?;
        let records = file.metadata()?.len();
        if records % PAIR_LEN as u64 != 0 {
            return Err(StoreError::Format("bucket spool corrupted".into()));
        }
        let mut reader = BufReader::with_capacity(1 << 18, file);
        let mut pair = [0u8; PAIR_LEN];
        for _ in 0..records / PAIR_LEN as u64 {
            reader.read_exact(&mut pair)?;
            let (u, v) = pair.split_at(4);
            rows.place(
                u32::from_le_bytes(u.try_into().expect("4 bytes")),
                u32::from_le_bytes(v.try_into().expect("4 bytes")),
            )?;
        }
        drop(reader);
        std::fs::remove_file(&path).ok();
        targets.write(&u32_bytes(rows.build(csr)?.into_iter()))?;
        csr.spool_flags(&mut flags)?;
    }
    flags.write(&u64_bytes(csr.flags.drain(..)))?;
    Ok((
        targets.into_section()?,
        flags.into_section()?,
        buckets,
        guard,
    ))
}
