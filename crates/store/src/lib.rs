//! # fs-store — zero-copy binary graph storage
//!
//! The experiments the paper runs (Frontier Sampling over multi-million
//! vertex crawls — Flickr, LiveJournal, UF networks; Ribeiro & Towsley,
//! IMC 2010, Section 6) presume cheap repeated access to large *fixed*
//! graphs. A text edge list re-parsed and re-CSR'd on every run caps
//! every experiment at synthetic-generator scale; this crate removes
//! that cap with a persistent binary form of the CSR the samplers
//! already run on:
//!
//! * [`format`](mod@format) — the `.fsg` container: versioned, sectioned,
//!   little-endian, per-section FNV-1a checksums, 8-byte payload
//!   alignment so sections are directly viewable as `&[u64]` / `&[u32]`.
//! * [`write_store`] / [`write_weighted_store`] — persist an in-memory
//!   [`fs_graph::Graph`] / [`fs_graph::WeightedGraph`].
//! * [`MmapGraph`] — maps a store file via a thin raw-`mmap(2)` shim
//!   and implements [`fs_graph::GraphAccess`] *in place*: the fourth
//!   backend (after `CsrAccess`, `CrawlAccess`, `CachedAccess`), with
//!   bit-identical walks and `Sync` parallel access, at `O(V)` open
//!   cost and zero deserialization.
//! * [`load_store`] / [`load_weighted_store`] — checksum-verified owned
//!   loads for code that wants the plain in-memory types.
//! * [`ingest_edge_list`] — text edge list to store with bounded
//!   memory: one pass and counting placement when the arcs fit the
//!   budget, spooled vertex-range buckets on a second pass when not.
//! * `graphstore` — the companion CLI: `convert`, `inspect`, `verify`,
//!   `map`.
//!
//! ## Quick example
//!
//! ```
//! use fs_graph::GraphAccess;
//! use rand::SeedableRng;
//! let g = fs_gen::barabasi_albert(100, 3, &mut rand::rngs::SmallRng::seed_from_u64(1));
//! let path = std::env::temp_dir().join(format!("fs_store_doc_{}.fsg", std::process::id()));
//! fs_store::write_store(&g, &path).unwrap();
//! let m = fs_store::MmapGraph::open(&path).unwrap();
//! assert_eq!(m.num_vertices(), g.num_vertices());
//! assert_eq!(m.neighbors(fs_graph::VertexId::new(7)), g.neighbors(fs_graph::VertexId::new(7)));
//! # std::fs::remove_file(&path).unwrap();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod format;
pub mod ingest;
pub mod mmap;
pub mod reader;
mod writer;

pub use format::{file_digest, Layout, SectionId, StoreError, StoreKind};
pub use ingest::{ingest_edge_list, IngestOptions, IngestReport};
pub use mmap::{Mmap, MmapGraph, OPEN_SITE};
pub use reader::{inspect, load_store, load_weighted_store, verify_store};
pub use writer::{write_store, write_weighted_store, WRITE_SITE};
