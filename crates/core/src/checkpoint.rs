//! Versioned, checksummed binary snapshots of in-flight runs.
//!
//! A serving tier that promises *a job with seed `s` equals the library
//! call with seed `s`* can only survive restarts if a paused run resumes
//! **bit-identically** — same RNG words, same budget head-room, same
//! buffered events, same estimator accumulators, down to the last f64
//! bit. This module provides the codec that
//! [`crate::runner::ChunkedRunner::serialize`] and
//! [`crate::runner::JobEstimator::serialize`] build on, plus the error
//! taxonomy their `resume` constructors report. Each walk machine and
//! each estimator encodes and decodes its own fields in its own module;
//! the field codecs they share (vertex ids, degree kinds, runs of
//! `f64`, checked sums, configuration checks) live here.
//!
//! ## Format
//!
//! Every blob is `magic (4 bytes) ‖ version (u32 LE) ‖ payload ‖
//! fnv1a64(everything before the checksum)`. All integers are
//! little-endian; every `f64` is stored as its IEEE-754 bit pattern via
//! `to_bits`, so values round-trip exactly (including signed zeros and
//! any NaN payloads, although the runner never produces NaN).
//!
//! ## Corruption discipline
//!
//! Decoding is *fail-loud*: a flipped byte, a truncated tail, a wrong
//! magic, or trailing garbage each yields a distinct
//! [`CheckpointError`] — a corrupt checkpoint must never resume into a
//! silently wrong state machine (pinned by the corruption proptests in
//! `tests/checkpoint_resume.rs`). A checkpoint that contradicts the job
//! it resumes (another sampler's walk, another α or degree kind) or
//! holds what no run can reach (a NaN or negative sum, a clock out of
//! range) is refused the same way, as `Malformed`. Callers that hold a
//! journal can then fall back to re-running from scratch, which the
//! determinism contract makes equally correct, just slower.

use fs_graph::stats::DegreeKind;
use fs_graph::VertexId;
use std::fmt;

/// FNV-1a 64-bit hash — the same checksum the `.fsg` store format
/// trails its sections with, re-implemented here so `frontier-sampling`
/// stays dependency-free.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Why a checkpoint blob was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The blob ends before a complete header/payload/checksum.
    Truncated,
    /// The magic bytes are not this blob type's.
    BadMagic,
    /// The version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The trailing FNV-1a-64 checksum does not match the content.
    ChecksumMismatch,
    /// The checksum held but a field is structurally invalid (wrong
    /// enum tag, spec mismatch, trailing bytes, length overflow).
    Malformed(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint of this type (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::Malformed(why) => write!(f, "malformed checkpoint: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Little-endian binary writer. `finish` seals the blob with the
/// trailing checksum.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder (raw payload, no header) — journal records
    /// frame their own payloads.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// An encoder opened with the standard `magic ‖ version` header.
    pub fn with_header(magic: [u8; 4], version: u32) -> Self {
        let mut enc = Encoder::new();
        enc.buf.extend_from_slice(&magic);
        enc.put_u32(version);
        enc
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` widened to `u64` (the format is
    /// pointer-width-independent).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Current encoded length (header included).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The raw bytes with **no** trailing checksum (callers that frame
    /// records themselves, e.g. the job journal, checksum the frame).
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Seals the blob: appends `fnv1a64` of everything written so far.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = fnv1a64(&self.buf);
        self.put_u64(sum);
        self.buf
    }
}

/// Checked little-endian binary reader over a sealed or raw blob.
#[derive(Debug)]
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A reader over raw bytes (no header/checksum validation).
    pub fn new(data: &'a [u8]) -> Self {
        Decoder { data, pos: 0 }
    }

    /// Validates `magic ‖ version ‖ payload ‖ checksum` framing and
    /// returns a reader positioned at the payload. The checksum is
    /// verified *before* any field is interpreted, so a flipped byte
    /// anywhere in the blob fails here.
    pub fn with_checked_header(
        data: &'a [u8],
        magic: [u8; 4],
        max_version: u32,
    ) -> Result<(Self, u32), CheckpointError> {
        if data.len() < 4 + 4 + 8 {
            return Err(CheckpointError::Truncated);
        }
        let (content, trailer) = data.split_at(data.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        if fnv1a64(content) != stored {
            // A wrong magic with a valid checksum is a different blob
            // type; report that more specifically than "corrupt".
            if content[..4] != magic {
                return Err(CheckpointError::BadMagic);
            }
            return Err(CheckpointError::ChecksumMismatch);
        }
        if content[..4] != magic {
            return Err(CheckpointError::BadMagic);
        }
        let version = u32::from_le_bytes(content[4..8].try_into().expect("4-byte version"));
        if version == 0 || version > max_version {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        Ok((
            Decoder {
                data: &content[8..],
                pos: 0,
            },
            version,
        ))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or(CheckpointError::Truncated)?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `u64` narrowed to `usize`, failing on overflow (a blob
    /// written on a 64-bit host read on a narrower one).
    pub fn take_usize(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.take_u64()?)
            .map_err(|_| CheckpointError::Malformed("length overflows usize".into()))
    }

    /// Reads an item count, failing with `Truncated` when the unread
    /// input cannot hold that many items of at least `min_item_bytes`
    /// each. Every length-driven allocation sizes from this, so a forged
    /// count can never ask for more memory than the input could fill.
    pub fn take_count(&mut self, min_item_bytes: usize) -> Result<usize, CheckpointError> {
        let n = self.take_usize()?;
        if n.saturating_mul(min_item_bytes) > self.remaining() {
            return Err(CheckpointError::Truncated);
        }
        Ok(n)
    }

    /// Reads an `f64` from its bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], CheckpointError> {
        let len = self.take_usize()?;
        self.take(len)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Asserts the payload was consumed exactly — trailing bytes mean
    /// the blob disagrees with this build's layout.
    pub fn finish(self) -> Result<(), CheckpointError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CheckpointError::Malformed(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )))
        }
    }
}

/// Appends a vertex id as its `usize` index.
pub(crate) fn put_vertex(enc: &mut Encoder, v: VertexId) {
    enc.put_usize(v.index());
}

/// Inverse of [`put_vertex`].
pub(crate) fn take_vertex(dec: &mut Decoder<'_>) -> Result<VertexId, CheckpointError> {
    Ok(VertexId::new(dec.take_usize()?))
}

/// Appends a degree notion as its one-byte tag.
pub(crate) fn put_degree_kind(enc: &mut Encoder, kind: DegreeKind) {
    enc.put_u8(match kind {
        DegreeKind::Symmetric => 0,
        DegreeKind::InOriginal => 1,
        DegreeKind::OutOriginal => 2,
    });
}

/// Inverse of [`put_degree_kind`].
pub(crate) fn take_degree_kind(dec: &mut Decoder<'_>) -> Result<DegreeKind, CheckpointError> {
    Ok(match dec.take_u8()? {
        0 => DegreeKind::Symmetric,
        1 => DegreeKind::InOriginal,
        2 => DegreeKind::OutOriginal,
        t => {
            return Err(CheckpointError::Malformed(format!(
                "unknown degree kind {t}"
            )))
        }
    })
}

/// Appends a length-prefixed run of `f64`s.
pub(crate) fn put_f64_slice(enc: &mut Encoder, v: &[f64]) {
    enc.put_usize(v.len());
    for &x in v {
        enc.put_f64(x);
    }
}

/// Reads an accumulated sum of nonnegative terms, refusing what no run
/// can accumulate: a NaN, an infinity or a negative value.
pub(crate) fn take_sum(dec: &mut Decoder<'_>) -> Result<f64, CheckpointError> {
    let x = dec.take_f64()?;
    if x.is_finite() && x >= 0.0 {
        Ok(x)
    } else {
        Err(CheckpointError::Malformed(format!(
            "invalid accumulator {x}"
        )))
    }
}

/// Reads a [`put_f64_slice`] run of sums, each checked as [`take_sum`].
pub(crate) fn take_sums(dec: &mut Decoder<'_>) -> Result<Vec<f64>, CheckpointError> {
    let n = dec.take_count(8)?;
    (0..n).map(|_| take_sum(dec)).collect()
}

/// Refuses a checkpoint whose stored `what` differs from the resuming
/// job's own: a blob never changes how a machine is configured.
pub(crate) fn expect_same<T: PartialEq + fmt::Debug>(
    what: &str,
    stored: T,
    job: T,
) -> Result<(), CheckpointError> {
    if stored == job {
        Ok(())
    } else {
        Err(CheckpointError::Malformed(format!(
            "checkpoint {what} {stored:?} differs from the job's {job:?}"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 4] = *b"TEST";

    #[test]
    fn take_count_is_bounded_by_the_unread_input() {
        // A count of 3 followed by exactly 3 × 4 bytes fits; 4 does not.
        let mut enc = Encoder::new();
        enc.put_u64(3);
        enc.put_u64(4);
        let mut bytes = enc.into_bytes();
        bytes.extend_from_slice(&[0; 12]);
        assert_eq!(Decoder::new(&bytes).take_count(4), Ok(3));
        let mut dec = Decoder::new(&bytes[8..]);
        assert_eq!(dec.take_count(4), Err(CheckpointError::Truncated));
        // A count whose byte total overflows usize is refused, not wrapped.
        let huge = u64::MAX.to_le_bytes();
        assert_eq!(
            Decoder::new(&huge).take_count(8),
            Err(CheckpointError::Truncated)
        );
    }

    fn sealed() -> Vec<u8> {
        let mut enc = Encoder::with_header(MAGIC, 1);
        enc.put_u8(7);
        enc.put_u64(0xDEAD_BEEF);
        enc.put_f64(-0.0);
        enc.put_bytes(b"hello");
        enc.finish()
    }

    #[test]
    fn round_trip() {
        let blob = sealed();
        let (mut dec, version) = Decoder::with_checked_header(&blob, MAGIC, 1).unwrap();
        assert_eq!(version, 1);
        assert_eq!(dec.take_u8().unwrap(), 7);
        assert_eq!(dec.take_u64().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(dec.take_bytes().unwrap(), b"hello");
        dec.finish().unwrap();
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let blob = sealed();
        for i in 0..blob.len() {
            for bit in 0..8 {
                let mut bad = blob.clone();
                bad[i] ^= 1 << bit;
                assert!(
                    Decoder::with_checked_header(&bad, MAGIC, 1).is_err(),
                    "flip at byte {i} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let blob = sealed();
        for len in 0..blob.len() {
            assert!(
                Decoder::with_checked_header(&blob[..len], MAGIC, 1).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn wrong_magic_and_future_version_are_rejected() {
        let blob = sealed();
        assert_eq!(
            Decoder::with_checked_header(&blob, *b"ELSE", 1).unwrap_err(),
            CheckpointError::BadMagic
        );
        let future = Encoder::with_header(MAGIC, 9).finish();
        assert_eq!(
            Decoder::with_checked_header(&future, MAGIC, 1).unwrap_err(),
            CheckpointError::UnsupportedVersion(9)
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut enc = Encoder::with_header(MAGIC, 1);
        enc.put_u64(1);
        enc.put_u64(2);
        let blob = enc.finish();
        let (mut dec, _) = Decoder::with_checked_header(&blob, MAGIC, 1).unwrap();
        let _ = dec.take_u64().unwrap();
        assert!(matches!(dec.finish(), Err(CheckpointError::Malformed(_))));
    }

    #[test]
    fn fnv_vector() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
