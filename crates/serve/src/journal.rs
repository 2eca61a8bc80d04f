//! Crash-safe job journal: an append-only, fsync-disciplined record of
//! every job's submit, checkpoints, and terminal outcome.
//!
//! ## Why a journal
//!
//! The paper's estimates are pure functions of `(store content, spec,
//! seed)` — the serving layer's determinism contract. That purity makes
//! crash recovery *exact* rather than best-effort: if the server is
//! SIGKILLed mid-burst, a restart over the same journal re-pins each
//! job's store by content digest and re-runs every incomplete job —
//! from its last checkpoint when one survived (the
//! [`ChunkedRunner::resume`](frontier_sampling::runner::ChunkedRunner::resume)
//! contract makes that bit-identical to never having paused), from
//! scratch otherwise (determinism makes *that* bit-identical too). The
//! client polling `GET /v1/jobs/{id}` across the crash sees the same
//! id finish with the same bits.
//!
//! ## File format (`jobs.fsjl`)
//!
//! ```text
//! header  := "FSJL" version:u32le
//! record  := type:u8 len:u32le payload:[u8; len] fnv1a64(type‖len‖payload):u64le
//! ```
//!
//! Record types: `1` submit, `2` checkpoint, `3` terminal. The
//! trailing FNV-1a checksum makes a torn tail (a crash mid-append)
//! detectable: replay stops at the first bad frame and truncates the
//! file back to the last good record — a torn record is never applied
//! and never poisons later appends.
//!
//! Every integer is little-endian, and `bytes := len:u64 data:[u8; len]`.
//! A submit payload is
//!
//! ```text
//! id:u64 store:bytes digest:u64 sampler:bytes m:u64 alpha:f64
//! budget:f64 seed:u64 estimator:bytes option:u8 [threads:u64]
//! ```
//!
//! where `sampler` and `estimator` are wire names. This build writes
//! `option = 0`. Journals written before the thread-count knob was
//! retired may hold `option = 1` followed by the count; replay accepts
//! them and flags the job as `pooled`.
//!
//! ## Fsync discipline
//!
//! * **submit** and **terminal** records are `fdatasync`ed before the
//!   append returns: an acknowledged job id survives a crash, and an
//!   acknowledged result is never re-run.
//! * **checkpoint** records are *not* synced: losing one costs re-doing
//!   work (from the previous checkpoint or from scratch), never
//!   correctness — the resumed bits are identical either way.
//!
//! ## Failure containment
//!
//! An append failure (`ENOSPC`, or the `journal.append` failpoint)
//! truncates the file back to the last durable offset so the partial
//! frame is invisible to replay; if even the truncate fails the
//! journal marks itself degraded and stops appending. The server keeps
//! serving either way — durability degrades, availability does not.

use crate::jobs::{JobPhase, JobSpec};
use frontier_sampling::runner::{EstimateSnapshot, EstimatorSpec, SamplerSpec};
use fs_graph::failpoint::{self, Fault};
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use frontier_sampling::checkpoint::{fnv1a64, Decoder, Encoder};

/// Journal file magic.
const JOURNAL_MAGIC: [u8; 4] = *b"FSJL";
/// Current journal format version.
const JOURNAL_VERSION: u32 = 1;
/// Header length: magic + version.
const HEADER_LEN: u64 = 8;
/// Frame overhead: type byte + length word + trailing checksum.
const FRAME_OVERHEAD: u64 = 1 + 4 + 8;
/// Upper bound on one record's payload — a corrupt length word must
/// not drive a huge allocation (checkpoints of million-walker jobs fit
/// comfortably; anything past this is garbage).
const MAX_RECORD_LEN: u32 = 1 << 30;

/// Failpoint site consulted on every append (the `ENOSPC` storm of the
/// chaos suite).
pub const APPEND_SITE: &str = "journal.append";

const TYPE_SUBMIT: u8 = 1;
const TYPE_CHECKPOINT: u8 = 2;
const TYPE_TERMINAL: u8 = 3;

/// Shared durability counters, surfaced on `/healthz`.
#[derive(Default)]
pub struct DurabilityStats {
    /// Valid records applied during replay.
    pub records_replayed: AtomicU64,
    /// Torn/corrupt tail records truncated during replay.
    pub torn_truncated: AtomicU64,
    /// Incomplete jobs replayed: re-enqueued, or failed at restore
    /// because their store changed or vanished.
    pub jobs_resumed: AtomicU64,
    /// Terminal jobs re-registered from the journal.
    pub jobs_recovered: AtomicU64,
    /// Resumed jobs that restarted from a surviving checkpoint (the
    /// rest re-ran from scratch — bit-identical either way).
    pub resumed_from_checkpoint: AtomicU64,
    /// Checkpoint records written since startup.
    pub checkpoints_written: AtomicU64,
    /// Appends that failed (and were truncated back).
    pub appends_failed: AtomicU64,
    /// The journal stopped appending (truncate-back itself failed).
    pub degraded: AtomicBool,
}

/// A checkpoint surviving in the journal: both blobs come from the
/// *same* append, so runner and estimator state are mutually
/// consistent by construction.
#[derive(Clone, Debug)]
pub struct JobCheckpoint {
    /// Walk attempts completed at the checkpoint.
    pub steps_done: u64,
    /// [`ChunkedRunner::serialize`](frontier_sampling::runner::ChunkedRunner::serialize) blob.
    pub runner: Vec<u8>,
    /// [`JobEstimator::serialize`](frontier_sampling::runner::JobEstimator::serialize) blob.
    pub estimator: Vec<u8>,
}

/// A terminal outcome surviving in the journal.
#[derive(Clone, Debug)]
pub struct JobTerminal {
    /// `Done`, `Failed`, or `Cancelled`.
    pub phase: JobPhase,
    /// Failure reason, when `phase == Failed`.
    pub error: Option<String>,
    /// Walk attempts the job completed.
    pub steps_done: u64,
    /// The final estimate, bit-exact (`f64`s stored as raw bits).
    pub snapshot: Option<Arc<EstimateSnapshot>>,
}

/// One journaled job, aggregated across its records.
#[derive(Clone, Debug)]
pub struct ReplayedJob {
    /// The id the client was given — preserved across restart.
    pub id: u64,
    /// The validated spec as submitted.
    pub spec: JobSpec,
    /// Content digest of the store the job ran over.
    pub digest: u64,
    /// The submit carried a legacy thread count (option tag `1`).
    pub pooled: bool,
    /// Latest surviving checkpoint, if any.
    pub checkpoint: Option<JobCheckpoint>,
    /// Terminal record, if the job finished before the crash.
    pub terminal: Option<JobTerminal>,
}

/// What replay found in an existing journal file.
pub struct Replay {
    /// Journaled jobs in id order.
    pub jobs: Vec<ReplayedJob>,
    /// The next job id to hand out (max journaled id + 1).
    pub next_id: u64,
}

struct JournalFile {
    file: File,
    /// Bytes known durable-framed; append failures truncate back here.
    len: u64,
    degraded: bool,
}

/// The append half. See the [module docs](self).
pub struct Journal {
    path: PathBuf,
    inner: Mutex<JournalFile>,
    stats: Arc<DurabilityStats>,
    /// Wide-event sink for append failures/degradation. Installed by
    /// the server after open (the journal opens before the rest of the
    /// stack assembles); absent in bare tests.
    trace: OnceLock<Arc<fs_obs::TraceRing>>,
}

impl Journal {
    /// Opens (creating if absent) `dir/jobs.fsjl`, replays every intact
    /// record, truncates any torn tail, and returns the journal
    /// positioned for appending plus the replayed jobs.
    pub fn open(dir: &Path, stats: Arc<DurabilityStats>) -> std::io::Result<(Journal, Replay)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("jobs.fsjl");
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let (good_len, records) = if bytes.len() < HEADER_LEN as usize {
            // Fresh file, or a creation torn mid-header: write a clean
            // header and start empty.
            if !bytes.is_empty() {
                stats.torn_truncated.fetch_add(1, Ordering::Relaxed);
            }
            // `set_len` leaves the cursor where `read_to_end` parked
            // it; writing there would punch a zero-filled hole.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            let mut head = Vec::with_capacity(HEADER_LEN as usize);
            head.extend_from_slice(&JOURNAL_MAGIC);
            head.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
            file.write_all(&head)?;
            file.sync_data()?;
            (HEADER_LEN, Vec::new())
        } else {
            if bytes.get(..4) != Some(JOURNAL_MAGIC.as_slice()) {
                return Err(std::io::Error::new(
                    ErrorKind::InvalidData,
                    format!("{} is not a job journal (bad magic)", path.display()),
                ));
            }
            // `bytes.len() >= HEADER_LEN` on this branch; the fallback
            // value degrades a short read to the version error below.
            let version = le_u32(&bytes, 4).unwrap_or(u32::MAX);
            if version > JOURNAL_VERSION {
                return Err(std::io::Error::new(
                    ErrorKind::InvalidData,
                    format!(
                        "{} has journal version {version}, this build reads <= {JOURNAL_VERSION}",
                        path.display()
                    ),
                ));
            }
            let (good_len, records, torn) = scan_records(&bytes);
            if torn > 0 {
                stats.torn_truncated.fetch_add(torn, Ordering::Relaxed);
                file.set_len(good_len)?;
                file.sync_data()?;
            }
            file.seek(SeekFrom::Start(good_len))?;
            (good_len, records)
        };

        let replay = aggregate(records, &stats);
        let journal = Journal {
            path,
            inner: Mutex::new(JournalFile {
                file,
                len: good_len,
                degraded: false,
            }),
            stats,
            trace: OnceLock::new(),
        };
        Ok((journal, replay))
    }

    /// Installs the trace ring (at most once — later calls ignored).
    pub fn set_trace(&self, trace: Arc<fs_obs::TraceRing>) {
        let _ = self.trace.set(trace);
    }

    /// The journal file path (for diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Shared durability counters.
    pub fn stats(&self) -> &Arc<DurabilityStats> {
        &self.stats
    }

    /// Records a validated submit. Synced: once the client holds the
    /// id, the job survives a crash.
    pub fn submit(&self, id: u64, spec: &JobSpec, digest: u64) {
        let mut enc = Encoder::new();
        enc.put_u64(id);
        enc.put_bytes(spec.store.as_bytes());
        enc.put_u64(digest);
        let (name, m, alpha) = spec.sampler.wire();
        enc.put_bytes(name.as_bytes());
        enc.put_u64(m as u64);
        enc.put_f64(alpha);
        enc.put_f64(spec.budget);
        enc.put_u64(spec.seed);
        enc.put_bytes(spec.estimator.name().as_bytes());
        enc.put_u8(0);
        self.append(TYPE_SUBMIT, &enc.into_bytes(), true);
    }

    /// Records a mid-run checkpoint (unsynced — see the fsync
    /// discipline in the [module docs](self)).
    pub fn checkpoint(&self, id: u64, steps_done: u64, runner: &[u8], estimator: &[u8]) {
        let mut enc = Encoder::new();
        enc.put_u64(id);
        enc.put_u64(steps_done);
        enc.put_bytes(runner);
        enc.put_bytes(estimator);
        if self.append(TYPE_CHECKPOINT, &enc.into_bytes(), false) {
            self.stats
                .checkpoints_written
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a terminal outcome. Synced: an acknowledged result is
    /// never re-run after a crash.
    pub fn terminal(
        &self,
        id: u64,
        phase: JobPhase,
        error: Option<&str>,
        steps_done: u64,
        snapshot: Option<&EstimateSnapshot>,
    ) {
        let mut enc = Encoder::new();
        enc.put_u64(id);
        enc.put_u8(match phase {
            JobPhase::Done => 0,
            JobPhase::Failed => 1,
            JobPhase::Cancelled => 2,
            // Non-terminal phases are never journaled as terminal.
            // fs-lint: allow(panic-path) — module-internal contract: every caller passes Done/Failed/Cancelled
            JobPhase::Queued | JobPhase::Running => unreachable!("terminal record for live phase"),
        });
        match error {
            None => enc.put_u8(0),
            Some(e) => {
                enc.put_u8(1);
                enc.put_bytes(e.as_bytes());
            }
        }
        enc.put_u64(steps_done);
        match snapshot {
            None => enc.put_u8(0),
            Some(s) => {
                enc.put_u8(1);
                enc.put_u64(s.num_observed);
                match s.scalar {
                    None => enc.put_u8(0),
                    Some(x) => {
                        enc.put_u8(1);
                        enc.put_f64(x);
                    }
                }
                match &s.vector {
                    None => enc.put_u8(0),
                    Some(v) => {
                        enc.put_u8(1);
                        enc.put_usize(v.len());
                        for &x in v {
                            enc.put_f64(x);
                        }
                    }
                }
            }
        }
        self.append(TYPE_TERMINAL, &enc.into_bytes(), true);
    }

    /// Frames, appends, and (optionally) syncs one record. Returns
    /// whether the record landed durably framed. Failures truncate
    /// back to the last good offset so replay never sees the partial
    /// frame; a failed truncate degrades the journal (no further
    /// appends) rather than risking a frame boundary we cannot trust.
    fn append(&self, record_type: u8, payload: &[u8], sync: bool) -> bool {
        let mut frame = Vec::with_capacity(payload.len() + FRAME_OVERHEAD as usize);
        frame.push(record_type);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        let sum = fnv1a64(&frame);
        frame.extend_from_slice(&sum.to_le_bytes());

        let mut inner = self.inner.lock().expect("journal poisoned");
        if inner.degraded {
            return false;
        }
        let wrote = (|| -> std::io::Result<()> {
            match failpoint::check(APPEND_SITE) {
                Some(Fault::Enospc) => {
                    return Err(std::io::Error::other(
                        "injected ENOSPC (failpoint journal.append)",
                    ));
                }
                Some(Fault::ShortWrite) => {
                    // Land half a frame, then fail — the torn-tail case
                    // the truncate-back below must make invisible.
                    let half = (frame.len() / 2).max(1);
                    // fs-lint: allow(panic-path) — `half = (len / 2).max(1) <= len`: a frame always carries its 5-byte header
                    inner.file.write_all(&frame[..half])?;
                    return Err(std::io::Error::other(
                        "injected short write (failpoint journal.append)",
                    ));
                }
                Some(Fault::Error) => {
                    return Err(std::io::Error::other(
                        "injected write error (failpoint journal.append)",
                    ));
                }
                // Retryable faults are no-ops for a buffered append.
                Some(Fault::Eintr | Fault::Eagain | Fault::ShortRead) | None => {}
            }
            inner.file.write_all(&frame)?;
            if sync {
                inner.file.sync_data()?;
            }
            Ok(())
        })();
        match wrote {
            Ok(()) => {
                inner.len += frame.len() as u64;
                true
            }
            Err(e) => {
                self.stats.appends_failed.fetch_add(1, Ordering::Relaxed);
                let last_good = inner.len;
                // Truncate *and* rewind: `set_len` leaves the cursor
                // past the partial frame, and appending there would
                // punch a zero-filled hole replay reads as torn.
                let restored = inner
                    .file
                    .set_len(last_good)
                    .and_then(|()| inner.file.seek(SeekFrom::Start(last_good)))
                    .is_ok();
                if !restored {
                    // Cannot restore a trustworthy frame boundary:
                    // stop appending entirely.
                    inner.degraded = true;
                    self.stats.degraded.store(true, Ordering::Relaxed);
                }
                eprintln!(
                    "journal append failed ({e}); truncated back to {last_good} bytes{}",
                    if inner.degraded {
                        ", journal now degraded"
                    } else {
                        ""
                    }
                );
                if let Some(trace) = self.trace.get() {
                    trace.record(
                        "journal.append_failed",
                        None,
                        &[
                            ("error", fs_obs::FieldValue::from(e.to_string())),
                            ("truncated_to", fs_obs::FieldValue::from(last_good)),
                            ("degraded", fs_obs::FieldValue::from(inner.degraded)),
                        ],
                    );
                }
                false
            }
        }
    }
}

/// One raw record off the wire.
struct RawRecord {
    record_type: u8,
    payload: Vec<u8>,
}

/// Walks the framed records after the header. Returns (bytes of intact
/// prefix, intact records, torn records dropped). Framing loses sync
/// at the first bad record, so everything from there on is truncated —
/// with the fsync discipline above, only an unsynced tail can be lost.
fn scan_records(bytes: &[u8]) -> (u64, Vec<RawRecord>, u64) {
    let mut records = Vec::new();
    let mut pos = HEADER_LEN as usize;
    while pos < bytes.len() {
        let rest = bytes.get(pos..).unwrap_or_default();
        // Every read is length-checked: a torn or bit-rotted tail must
        // truncate back to the last intact frame, never panic replay.
        let Some((record_type, payload, frame_len)) = decode_frame(rest) else {
            break;
        };
        records.push(RawRecord {
            record_type,
            payload,
        });
        pos += frame_len;
    }
    let torn = u64::from(pos < bytes.len());
    (pos as u64, records, torn)
}

/// Decodes one frame at the head of `rest`: `(type, payload, frame
/// bytes consumed)`. `None` for anything short, oversized, or failing
/// its checksum — the caller truncates there.
fn decode_frame(rest: &[u8]) -> Option<(u8, Vec<u8>, usize)> {
    let record_type = *rest.first()?;
    let len = le_u32(rest, 1)?;
    if len > MAX_RECORD_LEN {
        return None; // corrupt length word
    }
    let body_len = 5 + len as usize;
    let body = rest.get(..body_len)?; // torn: frame runs past EOF
    let stored = le_u64(rest, body_len)?;
    if fnv1a64(body) != stored {
        return None; // torn or bit-rotted: checksum mismatch
    }
    Some((record_type, body.get(5..)?.to_vec(), body_len + 8))
}

/// Length-checked little-endian reads for the replay path.
fn le_u32(bytes: &[u8], at: usize) -> Option<u32> {
    let raw = bytes.get(at..at.checked_add(4)?)?;
    let mut buf = [0u8; 4];
    buf.copy_from_slice(raw);
    Some(u32::from_le_bytes(buf))
}

fn le_u64(bytes: &[u8], at: usize) -> Option<u64> {
    let raw = bytes.get(at..at.checked_add(8)?)?;
    let mut buf = [0u8; 8];
    buf.copy_from_slice(raw);
    Some(u64::from_le_bytes(buf))
}

/// Aggregates raw records into per-job replay state. Records that fail
/// payload decoding (possible only across a version change — the frame
/// checksum already passed) are skipped, never trusted.
fn aggregate(records: Vec<RawRecord>, stats: &DurabilityStats) -> Replay {
    use std::collections::BTreeMap;
    struct Partial {
        spec: Option<(JobSpec, u64, bool)>,
        checkpoint: Option<JobCheckpoint>,
        terminal: Option<JobTerminal>,
    }
    let mut by_id: BTreeMap<u64, Partial> = BTreeMap::new();
    let mut applied = 0u64;
    for record in records {
        let mut dec = Decoder::new(&record.payload);
        let Ok(id) = dec.take_u64() else { continue };
        let entry = by_id.entry(id).or_insert(Partial {
            spec: None,
            checkpoint: None,
            terminal: None,
        });
        let ok = match record.record_type {
            TYPE_SUBMIT => decode_submit(&mut dec).map(|sd| entry.spec = Some(sd)),
            TYPE_CHECKPOINT => decode_checkpoint(&mut dec).map(|ck| entry.checkpoint = Some(ck)),
            TYPE_TERMINAL => decode_terminal(&mut dec).map(|t| entry.terminal = Some(t)),
            _ => None, // unknown type: forward-compat skip
        };
        if ok.is_some() {
            applied += 1;
        }
    }
    stats.records_replayed.fetch_add(applied, Ordering::Relaxed);
    let next_id = by_id.keys().next_back().map_or(1, |max| max + 1);
    let jobs = by_id
        .into_iter()
        .filter_map(|(id, p)| {
            let (spec, digest, pooled) = p.spec?;
            Some(ReplayedJob {
                id,
                spec,
                digest,
                pooled,
                checkpoint: p.checkpoint,
                terminal: p.terminal,
            })
        })
        .collect();
    Replay { jobs, next_id }
}

fn decode_submit(dec: &mut Decoder<'_>) -> Option<(JobSpec, u64, bool)> {
    let store = String::from_utf8(dec.take_bytes().ok()?.to_vec()).ok()?;
    let digest = dec.take_u64().ok()?;
    let sampler_name = String::from_utf8(dec.take_bytes().ok()?.to_vec()).ok()?;
    let m = dec.take_u64().ok()? as usize;
    let alpha = dec.take_f64().ok()?;
    let budget = dec.take_f64().ok()?;
    let seed = dec.take_u64().ok()?;
    let estimator_name = String::from_utf8(dec.take_bytes().ok()?.to_vec()).ok()?;
    let pooled = match dec.take_u8().ok()? {
        0 => false,
        1 => {
            dec.take_u64().ok()?; // the legacy thread count, unused
            true
        }
        _ => return None,
    };
    let sampler = SamplerSpec::parse(&sampler_name, m, alpha).ok()?;
    let estimator = EstimatorSpec::parse(&estimator_name).ok()?;
    Some((
        JobSpec {
            store,
            sampler,
            budget,
            seed,
            estimator,
        },
        digest,
        pooled,
    ))
}

fn decode_checkpoint(dec: &mut Decoder<'_>) -> Option<JobCheckpoint> {
    Some(JobCheckpoint {
        steps_done: dec.take_u64().ok()?,
        runner: dec.take_bytes().ok()?.to_vec(),
        estimator: dec.take_bytes().ok()?.to_vec(),
    })
}

fn decode_terminal(dec: &mut Decoder<'_>) -> Option<JobTerminal> {
    let phase = match dec.take_u8().ok()? {
        0 => JobPhase::Done,
        1 => JobPhase::Failed,
        2 => JobPhase::Cancelled,
        _ => return None,
    };
    let error = match dec.take_u8().ok()? {
        0 => None,
        1 => Some(String::from_utf8(dec.take_bytes().ok()?.to_vec()).ok()?),
        _ => return None,
    };
    let steps_done = dec.take_u64().ok()?;
    let snapshot = match dec.take_u8().ok()? {
        0 => None,
        1 => {
            let num_observed = dec.take_u64().ok()?;
            let scalar = match dec.take_u8().ok()? {
                0 => None,
                1 => Some(dec.take_f64().ok()?),
                _ => return None,
            };
            let vector = match dec.take_u8().ok()? {
                0 => None,
                1 => {
                    let n = dec.take_count(8).ok()?;
                    let mut v = Vec::with_capacity(n);
                    for _ in 0..n {
                        v.push(dec.take_f64().ok()?);
                    }
                    Some(v)
                }
                _ => return None,
            };
            Some(Arc::new(EstimateSnapshot {
                num_observed,
                scalar,
                vector,
            }))
        }
        _ => return None,
    };
    Some(JobTerminal {
        phase,
        error,
        steps_done,
        snapshot,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fs_serve_journal_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn spec(seed: u64) -> JobSpec {
        JobSpec {
            store: "g.fsg".into(),
            sampler: SamplerSpec::Frontier { m: 4 },
            budget: 1000.0,
            seed,
            estimator: EstimatorSpec::AverageDegree,
        }
    }

    fn open(dir: &Path) -> (Journal, Replay) {
        Journal::open(dir, Arc::new(DurabilityStats::default())).expect("open journal")
    }

    #[test]
    fn round_trips_submit_checkpoint_terminal() {
        let dir = tmp("rt");
        {
            let (journal, replay) = open(&dir);
            assert!(replay.jobs.is_empty());
            assert_eq!(replay.next_id, 1);
            journal.submit(7, &spec(99), 0xD1CE);
            journal.checkpoint(7, 512, b"runner-blob", b"est-blob");
            journal.submit(9, &spec(100), 0xD1CE);
            journal.terminal(
                9,
                JobPhase::Done,
                None,
                1000,
                Some(&EstimateSnapshot {
                    num_observed: 42,
                    scalar: Some(std::f64::consts::PI),
                    vector: Some(vec![1.5, -0.0, f64::MIN_POSITIVE]),
                }),
            );
        }
        let (_journal, replay) = open(&dir);
        assert_eq!(replay.next_id, 10);
        assert_eq!(replay.jobs.len(), 2);
        let j7 = &replay.jobs[0];
        assert_eq!(j7.id, 7);
        assert_eq!(j7.digest, 0xD1CE);
        assert_eq!(j7.spec.seed, 99);
        assert_eq!(j7.spec.sampler, SamplerSpec::Frontier { m: 4 });
        let ck = j7.checkpoint.as_ref().expect("checkpoint");
        assert_eq!(ck.steps_done, 512);
        assert_eq!(ck.runner, b"runner-blob");
        assert_eq!(ck.estimator, b"est-blob");
        assert!(j7.terminal.is_none());
        let j9 = &replay.jobs[1];
        let t = j9.terminal.as_ref().expect("terminal");
        assert_eq!(t.phase, JobPhase::Done);
        let s = t.snapshot.as_ref().expect("snapshot");
        assert_eq!(
            s.scalar.map(f64::to_bits),
            Some(std::f64::consts::PI.to_bits())
        );
        assert_eq!(
            s.vector
                .as_deref()
                .map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()),
            Some(vec![
                1.5f64.to_bits(),
                (-0.0f64).to_bits(),
                f64::MIN_POSITIVE.to_bits()
            ])
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn later_checkpoint_wins_and_torn_tail_is_truncated() {
        let dir = tmp("torn");
        {
            let (journal, _) = open(&dir);
            journal.submit(1, &spec(5), 1);
            journal.checkpoint(1, 100, b"old", b"old-est");
            journal.checkpoint(1, 200, b"new", b"new-est");
        }
        let path = dir.join("jobs.fsjl");
        let full = std::fs::metadata(&path).unwrap().len();
        // Tear the last record: chop 3 bytes off its checksum.
        let torn_len = full - 3;
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(torn_len)
            .unwrap();
        let stats = Arc::new(DurabilityStats::default());
        let (_journal, replay) = Journal::open(&dir, Arc::clone(&stats)).unwrap();
        assert_eq!(stats.torn_truncated.load(Ordering::Relaxed), 1);
        let ck = replay.jobs[0].checkpoint.as_ref().expect("checkpoint");
        assert_eq!(ck.steps_done, 100, "torn record must not apply");
        assert_eq!(ck.runner, b"old");
        // The torn bytes are gone from disk: reopening is clean.
        assert!(std::fs::metadata(&path).unwrap().len() < torn_len);
        let stats2 = Arc::new(DurabilityStats::default());
        let (_j, _r) = Journal::open(&dir, Arc::clone(&stats2)).unwrap();
        assert_eq!(stats2.torn_truncated.load(Ordering::Relaxed), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_tail_and_flipped_byte_are_contained() {
        let dir = tmp("garbage");
        {
            let (journal, _) = open(&dir);
            journal.submit(1, &spec(5), 1);
            journal.terminal(1, JobPhase::Cancelled, None, 0, None);
        }
        let path = dir.join("jobs.fsjl");
        // Garbage appended past the good records.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xAB; 37]).unwrap();
        drop(f);
        let (_journal, replay) = open(&dir);
        assert_eq!(replay.jobs.len(), 1);
        assert_eq!(
            replay.jobs[0].terminal.as_ref().unwrap().phase,
            JobPhase::Cancelled
        );
        // Flip a byte inside the (now truncated-back) last record: the
        // frame checksum rejects it and replay drops it.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 10;
        bytes[at] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let stats = Arc::new(DurabilityStats::default());
        let (_journal, replay) = Journal::open(&dir, Arc::clone(&stats)).unwrap();
        assert!(stats.torn_truncated.load(Ordering::Relaxed) >= 1);
        assert!(
            replay.jobs[0].terminal.is_none(),
            "corrupt terminal dropped"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_frame_headers_truncate_instead_of_panicking() {
        let dir = tmp("hostile");
        {
            let (journal, _) = open(&dir);
            journal.submit(1, &spec(5), 1);
        }
        let path = dir.join("jobs.fsjl");
        let good = std::fs::read(&path).unwrap();

        // A length word claiming u32::MAX: rejected before any read.
        let mut bytes = good.clone();
        bytes.push(7);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let stats = Arc::new(DurabilityStats::default());
        let (_j, replay) = Journal::open(&dir, Arc::clone(&stats)).unwrap();
        assert_eq!(replay.jobs.len(), 1);
        assert_eq!(stats.torn_truncated.load(Ordering::Relaxed), 1);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            good.len() as u64,
            "truncated back to the intact prefix"
        );

        // A plausible length word whose frame runs past EOF.
        let mut bytes = good.clone();
        bytes.push(7);
        bytes.extend_from_slice(&64u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 10]);
        std::fs::write(&path, &bytes).unwrap();
        let (_j, replay) = open(&dir);
        assert_eq!(replay.jobs.len(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good.len() as u64);

        // A file shorter than the header: rewritten as a fresh journal.
        std::fs::write(&path, b"FSJ").unwrap();
        let stats = Arc::new(DurabilityStats::default());
        let (_j, replay) = Journal::open(&dir, Arc::clone(&stats)).unwrap();
        assert!(replay.jobs.is_empty());
        assert_eq!(stats.torn_truncated.load(Ordering::Relaxed), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), HEADER_LEN);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_magic_and_future_version_are_refused() {
        let dir = tmp("magic");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("jobs.fsjl"), b"NOTAJRNL").unwrap();
        assert!(Journal::open(&dir, Arc::new(DurabilityStats::default())).is_err());
        let mut future = JOURNAL_MAGIC.to_vec();
        future.extend_from_slice(&(JOURNAL_VERSION + 1).to_le_bytes());
        std::fs::write(dir.join("jobs.fsjl"), &future).unwrap();
        assert!(Journal::open(&dir, Arc::new(DurabilityStats::default())).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
