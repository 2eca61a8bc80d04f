//! # fs-serve — a dependency-free estimation service over mmap stores
//!
//! The paper's output is *estimates from budgeted crawls* (Ribeiro &
//! Towsley, IMC 2010, §2/§4); this crate is the layer that serves them:
//! an event-driven HTTP/1.1 service (std + a scoped epoll shim — the
//! build environment has no registry access, so everything from JSON to
//! the protocol parser is hand-rolled and hardened) that schedules
//! sampling jobs over shared memory-mapped `.fsg` graph stores, streams
//! incremental estimates, and caches deterministic results.
//!
//! * [`reactor::Reactor`] — single-threaded epoll reactor: keep-alive,
//!   strictly ordered pipelining, partial-write continuation, chunked
//!   streaming subscriptions.
//! * [`registry::StoreRegistry`] — content-digest-keyed LRU of open
//!   [`fs_store::MmapGraph`]s; concurrent readers; eviction safe under
//!   in-flight jobs (handles are `Arc`s).
//! * [`jobs::JobManager`] — bounded worker pool executing
//!   [`frontier_sampling::runner::ChunkedRunner`] jobs chunk by chunk:
//!   incremental progress, partial estimates, cancellation, clean
//!   shutdown with jobs in flight.
//! * [`cache::ResultCache`] — LRU-bounded deterministic result cache
//!   keyed on `(store digest, canonicalized spec, seed)`; hits complete
//!   jobs at submission, byte-identical to a recompute.
//! * [`journal::Journal`] — crash-safe job journal (`--journal-dir`):
//!   append-only, checksum-framed, fsync-disciplined. On restart the
//!   server replays it, re-registers finished jobs, and resumes
//!   incomplete ones from their last checkpoint — estimates across a
//!   SIGKILL are bit-identical to an uninterrupted run.
//! * [`server::Server`] — the HTTP surface: `POST /v1/jobs`,
//!   `GET /v1/jobs/{id}`, `GET /v1/jobs/{id}/stream` (chunked NDJSON),
//!   `GET /v1/stores`, `GET /healthz`, `DELETE /v1/jobs/{id}`,
//!   `POST /v1/shutdown`.
//! * [`json`] / [`http`] — the minimal wire layers (shortest-round-trip
//!   float encoding: estimates survive the wire bit for bit).
//!
//! ## Determinism guarantee
//!
//! A job submitted with seed `s` returns results **bit-identical** to
//! the equivalent direct library call with seed `s` (the
//! `ChunkedRunner` contract): every job runs the chunked runner.
//! Pinned end-to-end by the `determinism` integration test.
//!
//! ## Quickstart
//!
//! ```text
//! graphstore convert graph.el stores/graph.fsg     # build a store
//! fs-serve --root stores --addr 127.0.0.1:8080     # serve it
//! curl -X POST localhost:8080/v1/jobs -d \
//!   '{"store":"graph.fsg","sampler":"fs","m":16,"budget":100000,
//!     "seed":7,"estimator":"avg_degree"}'
//! curl localhost:8080/v1/jobs/1                    # poll progress
//! ```

#![warn(missing_docs)]
// `forbid` became `deny` when the serving tier moved to an epoll
// reactor: the one `#[allow(unsafe_code)]` is the scoped syscall shim
// in `reactor::sys`, which carries a written safety argument (same
// discipline as the mmap shim in fs-store). Everything else stays
// safe code, enforced at the module level.
#![deny(unsafe_code)]

pub mod cache;
pub mod http;
pub mod jobs;
pub mod journal;
pub mod json;
pub mod obs;
pub mod reactor;
pub mod registry;
pub mod server;

pub use cache::{CacheKey, CacheStats, CachedResult, ResultCache};
pub use jobs::{CancelOutcome, JobManager, JobPhase, JobSpec, JobView, SubmitError};
pub use journal::{DurabilityStats, Journal, Replay};
pub use json::Json;
pub use obs::ServeObs;
pub use registry::{RegistryError, StoreInfo, StoreRegistry};
pub use server::{Config, Server, FAILPOINT_SITES};
