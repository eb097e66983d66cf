//! The versioned key-file codec — how the owner's secrets leave the
//! process.
//!
//! A one-shot release (Figure 1) can keep the [`TransformationKey`] and
//! fitted normalizer in memory, but a production owner releasing *new*
//! records under the *same* secrets must persist them between runs. A
//! fitted release persists as one record: an RBT release as its
//! [`ReleaseSession`](crate::session::ReleaseSession) (key, normalizer,
//! optional config and drift bounds, ID-suppression flag), any other
//! method as its fitted state. This module defines the binary envelope
//! both travel in:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"RBTS"
//! 4       2     format version (little-endian u16, currently 1)
//! 6       1     record kind (4 session, 5 method)
//! 7       8     payload length (little-endian u64)
//! 15      n     payload (record-specific)
//! 15+n    4     CRC-32 over bytes [0, 15+n)
//! ```
//!
//! Payloads are built from [`rbt_linalg::codec`] primitives: fixed-width
//! little-endian integers and raw `f64` bit patterns, so a round trip is
//! **bit-identical** — no decimal formatting in the loop. The trailing
//! CRC-32 covers the header too, so any single flipped byte (magic,
//! version, length, payload, or the checksum itself) and any truncation is
//! rejected with a typed [`CodecError`]; decoding never panics. The
//! human-readable companion format lives on
//! [`crate::session::ReleaseSession::to_text`].

use crate::key::{RotationStep, TransformationKey};
use crate::{Error, Result};
use rbt_linalg::codec::{crc32, ByteReader, ByteWriter, DecodeError};
use std::fmt;

/// The four magic bytes opening every binary key file.
pub const MAGIC: [u8; 4] = *b"RBTS";

/// The current format version.
pub const FORMAT_VERSION: u16 = 1;

/// What a sealed envelope contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RecordKind {
    /// A full release session: key, normalizer, optional config and drift
    /// bounds, ID-suppression flag.
    Session,
    /// A fitted privacy-transform method other than the RBT session: a
    /// method-name tag followed by a method-specific payload. The release
    /// API layer uses this kind so every registered method — hybrid
    /// isometries, baselines — persists inside the same sealed envelope.
    Method,
}

impl RecordKind {
    fn to_u8(self) -> u8 {
        match self {
            RecordKind::Session => 4,
            RecordKind::Method => 5,
        }
    }
}

/// Why a key file could not be decoded (or, for text forms, parsed).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CodecError {
    /// The input does not start with the `RBTS` magic.
    BadMagic {
        /// The bytes found instead (zero-padded when shorter than 4).
        found: [u8; 4],
    },
    /// The format version is newer than this build understands.
    UnsupportedVersion {
        /// The version field that was read.
        found: u16,
    },
    /// The envelope holds a different record kind than the caller asked
    /// for.
    WrongKind {
        /// The kind the caller expected.
        expected: RecordKind,
        /// The kind byte found in the envelope.
        found: u8,
    },
    /// The trailing CRC-32 does not match the envelope contents.
    ChecksumMismatch {
        /// The checksum stored in the file.
        stored: u32,
        /// The checksum computed over the received bytes.
        computed: u32,
    },
    /// A low-level byte-stream failure (truncation, bad tag, …).
    Byte(DecodeError),
    /// A failure in the line-oriented text form.
    Text {
        /// 1-based index into the non-empty lines of the input.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic { found } => {
                write!(f, "bad magic {found:?} (expected {MAGIC:?})")
            }
            CodecError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported format version {found} (this build reads {FORMAT_VERSION})"
                )
            }
            CodecError::WrongKind { expected, found } => {
                write!(
                    f,
                    "envelope holds record kind {found}, expected {expected:?}"
                )
            }
            CodecError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: file says {stored:08x}, contents hash to {computed:08x}"
            ),
            CodecError::Byte(e) => write!(f, "byte stream error: {e}"),
            CodecError::Text { line, message } => {
                write!(f, "text parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Byte(e) => Some(e),
            _ => None,
        }
    }
}

impl CodecError {
    /// A [`CodecError::BadMagic`] describing the first bytes of `bytes`
    /// (zero-padded when shorter than 4).
    pub(crate) fn bad_magic(bytes: &[u8]) -> Self {
        let mut found = [0u8; 4];
        found[..bytes.len().min(4)].copy_from_slice(&bytes[..bytes.len().min(4)]);
        CodecError::BadMagic { found }
    }
}

impl From<DecodeError> for CodecError {
    fn from(e: DecodeError) -> Self {
        CodecError::Byte(e)
    }
}

impl From<DecodeError> for Error {
    fn from(e: DecodeError) -> Self {
        Error::Codec(CodecError::Byte(e))
    }
}

impl From<CodecError> for Error {
    fn from(e: CodecError) -> Self {
        Error::Codec(e)
    }
}

/// Wraps `payload` in the magic/version/kind/length envelope and appends
/// the CRC-32.
pub(crate) fn seal(kind: RecordKind, payload: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_bytes(&MAGIC);
    w.put_u16(FORMAT_VERSION);
    w.put_u8(kind.to_u8());
    w.put_blob(payload);
    let checksum = crc32(w.as_bytes());
    w.put_u32(checksum);
    w.into_bytes()
}

/// Verifies magic, checksum, version, kind, and length, returning the
/// payload slice.
///
/// The order matters: the magic identifies the file type, then the
/// trailing CRC-32 (covering everything before it) is verified over the
/// *whole* input, so any flipped byte — version, kind, length, payload,
/// or the checksum itself — reports as corruption; only an intact file of
/// a newer format reaches the `UnsupportedVersion` / `WrongKind` paths.
pub(crate) fn open(bytes: &[u8], expected: RecordKind) -> Result<&[u8]> {
    if bytes.len() < 4 || bytes[..4] != MAGIC {
        return Err(CodecError::bad_magic(bytes).into());
    }
    // Smallest well-formed envelope: header (15) + empty payload + CRC (4).
    if bytes.len() < 19 {
        return Err(CodecError::Byte(DecodeError::Truncated {
            offset: bytes.len(),
            needed: 19,
            available: bytes.len(),
        })
        .into());
    }
    let body_end = bytes.len() - 4;
    let stored = ByteReader::new(&bytes[body_end..]).take_u32()?;
    let computed = crc32(&bytes[..body_end]);
    if stored != computed {
        return Err(CodecError::ChecksumMismatch { stored, computed }.into());
    }
    let mut r = ByteReader::new(&bytes[4..body_end]);
    let version = r.take_u16()?;
    if version != FORMAT_VERSION {
        return Err(CodecError::UnsupportedVersion { found: version }.into());
    }
    let kind = r.take_u8()?;
    if kind != expected.to_u8() {
        return Err(CodecError::WrongKind {
            expected,
            found: kind,
        }
        .into());
    }
    let payload = r.take_blob()?;
    r.expect_end()?;
    Ok(payload)
}

pub(crate) fn write_key_record(w: &mut ByteWriter, key: &TransformationKey) {
    w.put_usize(key.n_attributes());
    w.put_usize(key.steps().len());
    for s in key.steps() {
        w.put_usize(s.i);
        w.put_usize(s.j);
        w.put_f64(s.theta_degrees);
        w.put_f64(s.achieved_var1);
        w.put_f64(s.achieved_var2);
    }
}

pub(crate) fn read_key_record(r: &mut ByteReader<'_>) -> Result<TransformationKey> {
    let n_attributes = r.take_usize()?;
    let n_steps = r.take_usize()?;
    r.check_count(n_steps, 40)?;
    let mut steps = Vec::with_capacity(n_steps);
    for _ in 0..n_steps {
        steps.push(RotationStep {
            i: r.take_usize()?,
            j: r.take_usize()?,
            theta_degrees: r.take_f64()?,
            achieved_var1: r.take_f64()?,
            achieved_var2: r.take_f64()?,
        });
    }
    // `new` re-validates index ranges and angles, so a tampered-but-
    // checksummed payload still cannot produce an inconsistent key.
    TransformationKey::new(steps, n_attributes)
}

/// Wraps an arbitrary record payload in the sealed `RBTS` envelope
/// (magic, version, kind, length, trailing CRC-32).
///
/// This is the public codec hook for the release-API layer: any fitted
/// privacy-transform method can serialize its state as a payload and ride
/// the same envelope (and corruption guarantees) as the release session
/// record.
pub fn seal_envelope(kind: RecordKind, payload: &[u8]) -> Vec<u8> {
    seal(kind, payload)
}

/// Verifies magic, checksum, version, and kind of a sealed envelope and
/// returns the payload slice — the decoding counterpart of
/// [`seal_envelope`].
///
/// # Errors
///
/// Returns [`Error::Codec`] for framing or corruption problems (bad magic,
/// checksum mismatch, unsupported version, wrong kind, bad length).
pub fn open_envelope(bytes: &[u8], expected: RecordKind) -> Result<&[u8]> {
    open(bytes, expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;
    use crate::session::ReleaseSession;

    fn paper_session() -> ReleaseSession {
        let example = paper::run_example().unwrap();
        ReleaseSession::new(example.key, example.normalizer).unwrap()
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let session = paper_session();
        let mut bytes = session.to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            ReleaseSession::from_bytes(&bytes),
            Err(Error::Codec(CodecError::BadMagic { .. }))
        ));
        let mut bytes = session.to_bytes();
        bytes[4] = 0xFF; // version low byte
        assert!(matches!(
            ReleaseSession::from_bytes(&bytes),
            Err(Error::Codec(CodecError::ChecksumMismatch { .. }))
        ));
        // An intact envelope of a *future* version is UnsupportedVersion:
        // rebuild the checksum after bumping the version field.
        let mut bytes = session.to_bytes();
        bytes[4] = 2;
        let body_end = bytes.len() - 4;
        let fixed = crc32(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&fixed.to_le_bytes());
        assert!(matches!(
            ReleaseSession::from_bytes(&bytes),
            Err(Error::Codec(CodecError::UnsupportedVersion { found: 2 }))
        ));
    }

    #[test]
    fn wrong_kind_rejected() {
        let bytes = paper_session().to_bytes();
        let payload = open(&bytes, RecordKind::Session).unwrap();
        let method = seal(RecordKind::Method, payload);
        assert!(matches!(
            ReleaseSession::from_bytes(&method),
            Err(Error::Codec(CodecError::WrongKind {
                expected: RecordKind::Session,
                found: 5
            }))
        ));
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = paper_session().to_bytes();
        for cut in 0..bytes.len() {
            match ReleaseSession::from_bytes(&bytes[..cut]) {
                Err(Error::Codec(_)) => {}
                other => panic!("cut {cut}: expected codec error, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let bytes = paper_session().to_bytes();
        for idx in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[idx] ^= 0x01;
            assert!(
                ReleaseSession::from_bytes(&corrupted).is_err(),
                "flip at byte {idx}"
            );
        }
    }

    #[test]
    fn tampered_step_indices_still_validated() {
        // A session whose key step references column 9 of a 3-column key,
        // sealed with a *correct* checksum: decode must fail in key
        // validation.
        let mut w = ByteWriter::new();
        w.put_usize(3);
        w.put_usize(1);
        w.put_usize(9);
        w.put_usize(1);
        w.put_f64(45.0);
        w.put_f64(0.0);
        w.put_f64(0.0);
        paper_session().normalizer().encode_into(&mut w);
        w.put_bool(false);
        w.put_bool(false);
        w.put_bool(true);
        let bytes = seal(RecordKind::Session, w.as_bytes());
        assert!(matches!(
            ReleaseSession::from_bytes(&bytes),
            Err(Error::KeyMismatch(_))
        ));
    }
}
