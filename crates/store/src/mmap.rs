//! Zero-copy mmap-backed graph access.
//!
//! [`Mmap`] is a thin RAII wrapper over raw `mmap(2)`/`munmap(2)` —
//! declared directly against libc symbols (`extern "C"`), because the
//! build environment has no registry access and the two calls need no
//! crate. [`MmapGraph`] maps a [`StoreKind::Graph`] container file and
//! implements [`GraphAccess`] by viewing the file's sections in place:
//! opening a multi-gigabyte graph is `O(V)` (one pass over the offsets
//! section to make later arithmetic corruption-proof) and touches none
//! of the targets payload until a walker steps on it.
//!
//! ## Safety argument
//!
//! The only `unsafe` in this crate lives here, in three places:
//!
//! 1. **The syscalls.** `mmap` is called with `PROT_READ | MAP_PRIVATE`,
//!    a length taken from `fstat`, and a file descriptor owned by an
//!    open [`File`]; failure (`MAP_FAILED`) is checked and surfaced as
//!    `io::Error::last_os_error()`. `munmap` runs in `Drop` with the
//!    exact pointer/length pair `mmap` returned.
//! 2. **The byte view.** `Mmap::as_slice` hands out `&[u8]` for the
//!    mapping. The pointer is non-null and valid for `len` bytes for the
//!    lifetime of the `Mmap` (the mapping is only removed in `Drop`),
//!    and the mapping is never writable, so the usual `&[u8]` aliasing
//!    rules hold *within this process*. As with every file-backed map
//!    (memmap2 has the same caveat), an outside process truncating the
//!    file can invalidate the pages; `MAP_PRIVATE` insulates the view
//!    from plain content writes, and the container's checksums catch
//!    swaps that happen before `open`.
//! 3. **The typed views.** Section payloads are re-viewed as `&[u64]` /
//!    `&[u32]` / `&[VertexId]`. This is sound because `open` verifies
//!    each section's byte range lies inside the map with the right
//!    length and 8-byte file alignment (page-aligned base + aligned
//!    offset ⇒ aligned address), every bit pattern is a valid `u64` /
//!    `u32`, and `VertexId` is `repr(transparent)` over `u32`.
//!
//! Beyond UB-freedom, *corrupt data* (a checksum-valid file from a buggy
//! writer, or corruption after a checksum-skipping `open`) can at worst
//! panic on a bounds check, never touch memory outside the map: `open`
//! validates the offsets array (monotone, bookended by `0` and
//! `num_arcs`), so every degree subtraction and row slice is in range,
//! and an out-of-range *target* vertex id panics on the offsets-slice
//! index before it can be used as a pointer. [`MmapGraph::verify`]
//! checks checksums plus full structural invariants (in-range sorted
//! targets, symmetry, flag/degree consistency) for callers that want
//! corruption ruled out up front.

use crate::format::{self, parse_layout, resolve_sections, Layout, StoreError, StoreKind};
use fs_graph::csr::STEP_PIPELINE_WIDTH;
use fs_graph::{
    prefetch_read, Arc as GraphArc, ArcId, GraphAccess, GroupId, NeighborReply, StepReply,
    StepSlot, VertexId,
};
use std::fs::File;
use std::ops::Range;
use std::path::Path;

mod sys {
    //! The libc symbols the store needs, declared by hand (offline
    //! build: no `libc` crate). Signatures and constants match the
    //! x86-64/aarch64 Linux ABI where `off_t` is 64-bit.
    use std::ffi::c_void;
    use std::os::raw::c_int;

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    // SAFETY: signatures transcribed from the Linux mmap(2) family's
    // libc ABI; callers uphold the pointer/length contracts (mapping
    // lifetimes are owned by `Mmap`, which unmaps exactly once).
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, length: usize) -> c_int;
    }
}

/// The failpoint site [`MmapGraph::open`] consults before mapping.
pub const OPEN_SITE: &str = "store.mmap_open";

/// A read-only, private memory mapping of an entire file.
pub struct Mmap {
    ptr: std::ptr::NonNull<u8>,
    len: usize,
}

// SAFETY: the mapping is immutable (PROT_READ) for its whole lifetime
// and owned exclusively by this value; sharing &Mmap across threads is
// sharing read-only memory.
unsafe impl Send for Mmap {}
// SAFETY: as above — concurrent readers of a read-only mapping race
// with nothing.
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps `file` read-only in its entirety. Zero-length files are
    /// rejected (`mmap` would fail with `EINVAL`; no store file is
    /// empty).
    pub fn map(file: &File) -> Result<Mmap, StoreError> {
        use std::os::fd::AsRawFd;
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| StoreError::Format(format!("file of {len} bytes exceeds usize")))?;
        if len == 0 {
            return Err(StoreError::Format("cannot map an empty file".into()));
        }
        // SAFETY: fd is valid for the duration of the call (borrowed
        // from an open File); length is the file's size; PROT_READ |
        // MAP_PRIVATE cannot alias writable memory. MAP_FAILED is
        // checked below.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(StoreError::Io(std::io::Error::last_os_error()));
        }
        let ptr = std::ptr::NonNull::new(ptr.cast::<u8>())
            .ok_or_else(|| StoreError::Format("mmap returned null".into()))?;
        Ok(Mmap { ptr, len })
    }

    /// Length of the mapping in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty (never true for a successful map).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The mapped bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: ptr is non-null and valid for len read-only bytes for
        // the lifetime of self (unmapped only in Drop); see module docs.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        // SAFETY: exactly the pointer/length pair mmap returned; the
        // mapping has not been unmapped before (Drop runs once).
        unsafe {
            sys::munmap(self.ptr.as_ptr().cast(), self.len);
        }
    }
}

impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mmap").field("len", &self.len).finish()
    }
}

/// Byte offset + element count of a typed section view.
#[derive(Copy, Clone, Debug)]
struct View {
    at: usize,
    count: usize,
}

impl View {
    fn new(range: &Range<usize>, elem: usize) -> View {
        debug_assert!(range.len().is_multiple_of(elem));
        View {
            at: range.start,
            count: range.len() / elem,
        }
    }

    const EMPTY: View = View { at: 0, count: 0 };
}

/// A graph served straight out of a memory-mapped store file.
///
/// Implements [`GraphAccess`] — including the single-query hot path
/// `step_query` / `step_query_at` / `vertex_row` — with the same
/// numerics as the in-memory CSR backends, so seeded walks are
/// **bit-identical** to [`fs_graph::CsrAccess`] on the same graph
/// (pinned by `backend_parity`). The type is `Sync`: one open store can
/// serve many jobs' walkers concurrently.
#[derive(Debug)]
pub struct MmapGraph {
    map: Mmap,
    layout: Layout,
    offsets: View,
    targets: View,
    arc_flags: View,
    in_degrees: View,
    out_degrees: View,
    group_offsets: View,
    group_labels: View,
    has_groups: bool,
}

impl MmapGraph {
    /// Opens a [`StoreKind::Graph`] store file and validates everything
    /// cheap: magic/version/header hash, section table shape, and the
    /// offsets arrays (monotone, correct bookends) that all later index
    /// arithmetic rests on. Payload checksums are *not* read here — that
    /// would page in the whole file and defeat lazy mapping; call
    /// [`MmapGraph::verify`] (or `graphstore verify`) when reading
    /// possibly-corrupt data.
    pub fn open(path: impl AsRef<Path>) -> Result<MmapGraph, StoreError> {
        if fs_graph::failpoint::check(OPEN_SITE).is_some() {
            return Err(StoreError::Io(std::io::Error::other(format!(
                "injected mmap-open failure (failpoint {OPEN_SITE})"
            ))));
        }
        let file = File::open(path.as_ref())?;
        let map = Mmap::map(&file)?;
        let bytes = map.as_slice();
        let layout = parse_layout(bytes, bytes.len())?;
        if layout.header.kind != StoreKind::Graph {
            return Err(StoreError::Format(
                "not a graph store (open weighted stores with load_weighted_store)".into(),
            ));
        }
        let sections = resolve_sections(&layout)?;
        let h = layout.header;

        let offsets = View::new(&sections.offsets, 8);
        let targets = View::new(&sections.targets, 4);
        let arc_flags = View::new(sections.arc_flags.as_ref().unwrap(), 8);
        let in_degrees = View::new(sections.in_degrees.as_ref().unwrap(), 4);
        let out_degrees = View::new(sections.out_degrees.as_ref().unwrap(), 4);
        let has_groups = sections.group_offsets.is_some();
        let group_offsets = sections
            .group_offsets
            .as_ref()
            .map_or(View::EMPTY, |r| View::new(r, 8));
        let group_labels = sections
            .group_labels
            .as_ref()
            .map_or(View::EMPTY, |r| View::new(r, 4));

        let graph = MmapGraph {
            map,
            layout,
            offsets,
            targets,
            arc_flags,
            in_degrees,
            out_degrees,
            group_offsets,
            group_labels,
            has_groups,
        };
        check_offsets_array(graph.offsets_slice(), h.num_arcs as u64, "offsets")?;
        if has_groups {
            check_offsets_array(
                graph.group_offsets_slice(),
                h.num_memberships as u64,
                "group_offsets",
            )?;
        }
        Ok(graph)
    }

    #[inline]
    fn view_u64(&self, view: View) -> &[u64] {
        // SAFETY: open() validated the range (inside the map, len =
        // count*8, 8-byte aligned); every bit pattern is a valid u64.
        unsafe {
            std::slice::from_raw_parts(
                self.map.as_slice().as_ptr().add(view.at).cast::<u64>(),
                view.count,
            )
        }
    }

    #[inline]
    fn view_u32(&self, view: View) -> &[u32] {
        // SAFETY: as view_u64, with 4-byte elements (8-byte file
        // alignment implies 4-byte).
        unsafe {
            std::slice::from_raw_parts(
                self.map.as_slice().as_ptr().add(view.at).cast::<u32>(),
                view.count,
            )
        }
    }

    /// The CSR offsets section, `num_vertices + 1` entries.
    #[inline]
    pub fn offsets_slice(&self) -> &[u64] {
        self.view_u64(self.offsets)
    }

    /// The CSR targets section viewed as vertex ids, `num_arcs` entries.
    #[inline]
    pub fn targets_slice(&self) -> &[VertexId] {
        let raw = self.view_u32(self.targets);
        // SAFETY: VertexId is repr(transparent) over u32 — identical
        // layout, and every u32 is a valid VertexId representation.
        unsafe { std::slice::from_raw_parts(raw.as_ptr().cast::<VertexId>(), raw.len()) }
    }

    #[inline]
    fn flag_words(&self) -> &[u64] {
        self.view_u64(self.arc_flags)
    }

    #[inline]
    fn group_offsets_slice(&self) -> &[u64] {
        self.view_u64(self.group_offsets)
    }

    /// The decoded header + section table of the backing file.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Number of distinct directed edges in the original `E_d`.
    #[inline]
    pub fn num_original_edges(&self) -> usize {
        self.layout.header.num_original_edges
    }

    /// Total bytes mapped.
    pub fn mapped_len(&self) -> usize {
        self.map.len()
    }

    /// Whether arc `a` of the symmetric closure existed in `E_d`.
    #[inline]
    pub fn arc_in_original(&self, a: ArcId) -> bool {
        assert!(a < self.layout.header.num_arcs, "arc {a} out of range");
        (self.flag_words()[a / 64] >> (a % 64)) & 1 == 1
    }

    /// Verifies every payload checksum and the full structural
    /// invariants the cheap `open` checks leave to the writer's
    /// contract: targets sorted/deduplicated, in range, self-loop-free
    /// and symmetric; flag bits consistent with the degree tables and
    /// the header's original-edge count; group labels sorted and
    /// consistent with the membership count; zeroed flag tail bits.
    ///
    /// `O(E log deg)` — the price of trusting nothing; `graphstore
    /// verify` runs exactly this.
    pub fn verify(&self) -> Result<(), StoreError> {
        format::verify_checksums(self.map.as_slice(), &self.layout)?;
        let h = &self.layout.header;
        let n = h.num_vertices;
        let offsets = self.offsets_slice();
        let targets = self.targets_slice();
        let mut in_deg = vec![0u32; n];
        let mut out_deg = vec![0u32; n];
        let mut original = 0usize;
        for v in 0..n {
            let (start, end) = (offsets[v] as usize, offsets[v + 1] as usize);
            let row = &targets[start..end];
            if !row.windows(2).all(|w| w[0] < w[1]) {
                return Err(StoreError::Format(format!(
                    "row {v} not sorted/deduplicated"
                )));
            }
            for (i, &t) in row.iter().enumerate() {
                if t.index() >= n {
                    return Err(StoreError::Format(format!("arc {v}->{t} out of range")));
                }
                if t.index() == v {
                    return Err(StoreError::Format(format!("self-loop at {v}")));
                }
                let (ts, te) = (offsets[t.index()] as usize, offsets[t.index() + 1] as usize);
                if targets[ts..te].binary_search(&VertexId::new(v)).is_err() {
                    return Err(StoreError::Format(format!("asymmetric arc {v}->{t}")));
                }
                if self.arc_in_original(start + i) {
                    original += 1;
                    out_deg[v] += 1;
                    in_deg[t.index()] += 1;
                }
            }
        }
        if original != h.num_original_edges {
            return Err(StoreError::Format(format!(
                "flagged {original} original edges, header records {}",
                h.num_original_edges
            )));
        }
        if in_deg != self.view_u32(self.in_degrees) || out_deg != self.view_u32(self.out_degrees) {
            return Err(StoreError::Format(
                "degree tables inconsistent with arc flags".into(),
            ));
        }
        if !h.num_arcs.is_multiple_of(64) {
            if let Some(&last) = self.flag_words().last() {
                if last >> (h.num_arcs % 64) != 0 {
                    return Err(StoreError::Format(
                        "arc-flag tail bits past num_arcs not zero".into(),
                    ));
                }
            }
        }
        if self.has_groups {
            let go = self.group_offsets_slice();
            let labels = self.view_u32(self.group_labels);
            for v in 0..n {
                let row = &labels[go[v] as usize..go[v + 1] as usize];
                if !row.windows(2).all(|w| w[0] < w[1]) {
                    return Err(StoreError::Format(format!(
                        "group labels of vertex {v} not sorted/deduplicated"
                    )));
                }
            }
            let mut distinct: Vec<u32> = labels.to_vec();
            distinct.sort_unstable();
            distinct.dedup();
            if distinct.len() != h.num_groups {
                return Err(StoreError::Format(format!(
                    "{} distinct group labels, header records {}",
                    distinct.len(),
                    h.num_groups
                )));
            }
        }
        Ok(())
    }
}

/// The `O(V)` offsets validation both offsets arrays go through at open:
/// monotone non-decreasing with bookends `0` and `expected_end`, and
/// every entry within `usize` (on 64-bit targets this is free). This is
/// what makes degree arithmetic and row slicing corruption-proof.
fn check_offsets_array(offsets: &[u64], expected_end: u64, name: &str) -> Result<(), StoreError> {
    // resolve_sections already pinned the length to num_vertices + 1 ≥ 1.
    debug_assert!(!offsets.is_empty());
    if offsets[0] != 0 {
        return Err(StoreError::Format(format!(
            "{name}[0] = {}, expected 0",
            offsets[0]
        )));
    }
    if *offsets.last().unwrap() != expected_end {
        return Err(StoreError::Format(format!(
            "{name} ends at {}, expected {expected_end}",
            offsets.last().unwrap()
        )));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(StoreError::Format(format!("{name} not monotone")));
    }
    Ok(())
}

impl GraphAccess for MmapGraph {
    type Neighbors<'a> = &'a [VertexId];

    #[inline]
    fn num_vertices(&self) -> usize {
        self.layout.header.num_vertices
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        let offsets = self.offsets_slice();
        (offsets[v.index() + 1] - offsets[v.index()]) as usize
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let offsets = self.offsets_slice();
        &self.targets_slice()[offsets[v.index()] as usize..offsets[v.index() + 1] as usize]
    }

    #[inline]
    fn nth_neighbor(&self, v: VertexId, i: usize) -> VertexId {
        self.neighbors(v)[i]
    }

    #[inline]
    fn step_query(&self, v: VertexId, i: usize) -> StepReply {
        let row = self.offsets_slice()[v.index()] as usize;
        self.step_query_at(v, row, i)
    }

    #[inline]
    fn step_query_at(&self, v: VertexId, row: usize, i: usize) -> StepReply {
        debug_assert_eq!(
            row,
            self.offsets_slice()[v.index()] as usize,
            "stale row handle"
        );
        debug_assert!(i < self.degree(v));
        // Same 2-dependent-load shape as `Csr::step_at`: the target from
        // the walker-carried row handle, then its adjacent offsets pair
        // (degree + next row handle).
        let t = self.targets_slice()[row + i];
        let offsets = self.offsets_slice();
        let t_row = offsets[t.index()];
        StepReply {
            reply: NeighborReply::Vertex(t),
            target_degree: (offsets[t.index() + 1] - t_row) as usize,
            target_row: t_row as usize,
        }
    }

    fn step_query_batch(&self, slots: &mut [StepSlot]) {
        // Same three-pass software pipeline as `Csr::step_at_batch`, over
        // the mmap-backed views: prefetch every slot's target entry,
        // then read targets while prefetching their offsets pairs, then
        // resolve replies — W overlapped misses instead of W serialized
        // two-load chains. Slot-order bit-identical to `step_query_at`.
        let offsets = self.offsets_slice();
        let targets = self.targets_slice();
        for group in slots.chunks_mut(STEP_PIPELINE_WIDTH) {
            #[cfg(debug_assertions)]
            for s in group.iter() {
                debug_assert_eq!(
                    offsets[s.vertex.index()] as usize,
                    s.row,
                    "stale row handle"
                );
                debug_assert!(s.neighbor < self.degree(s.vertex));
            }
            let mut picked = [VertexId::new(0); STEP_PIPELINE_WIDTH];
            for s in group.iter() {
                prefetch_read(&targets[s.row + s.neighbor]);
            }
            for (t, s) in picked.iter_mut().zip(group.iter()) {
                *t = targets[s.row + s.neighbor];
                prefetch_read(&offsets[t.index()]);
            }
            for (&t, s) in picked.iter().zip(group.iter_mut()) {
                let t_row = offsets[t.index()];
                s.reply = StepReply {
                    reply: NeighborReply::Vertex(t),
                    target_degree: (offsets[t.index() + 1] - t_row) as usize,
                    target_row: t_row as usize,
                };
            }
        }
    }

    #[inline]
    fn vertex_row(&self, v: VertexId) -> usize {
        self.offsets_slice()[v.index()] as usize
    }

    #[inline]
    fn num_arcs(&self) -> usize {
        self.layout.header.num_arcs
    }

    fn arc_endpoints(&self, a: ArcId) -> GraphArc {
        let offsets = self.offsets_slice();
        debug_assert!(a < self.layout.header.num_arcs);
        // Same partition-point search as `Csr::arc_source`.
        let row = offsets.partition_point(|&off| off as usize <= a);
        GraphArc {
            source: VertexId::new(row - 1),
            target: self.targets_slice()[a],
        }
    }

    #[inline]
    fn in_degree_orig(&self, v: VertexId) -> usize {
        self.view_u32(self.in_degrees)[v.index()] as usize
    }

    #[inline]
    fn out_degree_orig(&self, v: VertexId) -> usize {
        self.view_u32(self.out_degrees)[v.index()] as usize
    }

    fn has_original_edge(&self, u: VertexId, v: VertexId) -> bool {
        let offsets = self.offsets_slice();
        let start = offsets[u.index()] as usize;
        let row = &self.targets_slice()[start..offsets[u.index() + 1] as usize];
        match row.binary_search(&v) {
            Ok(i) => self.arc_in_original(start + i),
            Err(_) => false,
        }
    }

    fn groups_of(&self, v: VertexId) -> &[GroupId] {
        if !self.has_groups {
            return &[];
        }
        let go = self.group_offsets_slice();
        &self.view_u32(self.group_labels)[go[v.index()] as usize..go[v.index() + 1] as usize]
    }

    #[inline]
    fn num_groups(&self) -> usize {
        self.layout.header.num_groups
    }
}
