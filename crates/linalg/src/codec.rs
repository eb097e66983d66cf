//! Binary codec primitives: a little-endian byte writer / reader pair,
//! bulk `f64` rows, and the IEEE CRC-32 (from the `crc32fast` shim).
//!
//! The release-session subsystem persists the data owner's secrets
//! (transformation keys, fitted normalizers, session metadata) to files.
//! The workspace has no serde, so the higher layers build their formats out
//! of these primitives instead: fixed-width little-endian integers, `f64`
//! bit patterns (lossless for every value including `-0.0` and NaN
//! payloads), `u32`-length-prefixed UTF-8 strings and `u64`-length-prefixed
//! byte strings (blobs). [`ByteReader`] never panics on malformed input —
//! every accessor returns a typed [`DecodeError`] carrying the byte offset
//! of the failure, which is what lets the conformance battery assert that
//! corrupted key files are *rejected*, not crashed on.
//!
//! **Counts before bytes:** every decoder checks a declared count against
//! the bytes present before it reserves room for it, through
//! [`ByteReader::check_count`] (or [`ByteReader::take_f64s`] /
//! [`ByteReader::take_blob`], which check before they copy).

use std::fmt;

/// Errors produced while decoding a byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The input ended before a field could be read in full.
    Truncated {
        /// Byte offset at which the read started.
        offset: usize,
        /// How many bytes the field needed.
        needed: usize,
        /// How many bytes were actually available.
        available: usize,
    },
    /// A field was read but its value is invalid (bad bool byte, invalid
    /// UTF-8, an out-of-range count, …).
    Malformed {
        /// Byte offset at which the offending field started.
        offset: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated {
                offset,
                needed,
                available,
            } => write!(
                f,
                "truncated input at byte {offset}: needed {needed} bytes, {available} available"
            ),
            DecodeError::Malformed { offset, message } => {
                write!(f, "malformed field at byte {offset}: {message}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Decode result alias.
pub type DecodeResult<T> = std::result::Result<T, DecodeError>;

/// An append-only little-endian byte buffer.
#[derive(Debug, Clone, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// The bytes `encode` writes into a fresh writer: one record as a
    /// standalone buffer.
    pub fn encode_with(encode: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
        let mut w = ByteWriter::new();
        encode(&mut w);
        w.into_bytes()
    }

    /// A writer appending to `buf`, keeping its bytes and its capacity:
    /// how a caller encodes into one buffer record after record.
    pub fn from_vec(buf: Vec<u8>) -> Self {
        ByteWriter { buf }
    }

    /// An empty writer with room for `capacity` bytes, so a writer whose
    /// final size is known never grows by reallocation.
    pub fn with_capacity(capacity: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The accumulated bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a little-endian `u64` (portable across
    /// pointer widths).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as the little-endian encoding of its bit pattern —
    /// lossless for every value, including signed zeros and NaN payloads.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends every value of `values` exactly as [`ByteWriter::put_f64`]
    /// would, one after another, in a single pass: the bytes are written
    /// once, with no zero-fill of the buffer first.
    pub fn put_f64s(&mut self, values: &[f64]) {
        self.buf.extend(values.iter().flat_map(|v| v.to_le_bytes()));
    }

    /// Appends a bool as a single `0`/`1` byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed (`u32`) UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends raw bytes with no length prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u64`-length-prefixed byte string, read back by
    /// [`ByteReader::take_blob`].
    pub fn put_blob(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.put_bytes(bytes);
    }
}

/// A cursor over a byte slice with typed, non-panicking accessors.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Decodes `bytes` as exactly one record: runs `decode` over them and
    /// rejects any bytes it leaves behind.
    ///
    /// # Errors
    ///
    /// Whatever `decode` returns, or [`DecodeError::Malformed`] for
    /// trailing bytes.
    pub fn decode_all<T, E: From<DecodeError>>(
        bytes: &'a [u8],
        decode: impl FnOnce(&mut ByteReader<'a>) -> Result<T, E>,
    ) -> Result<T, E> {
        let mut r = ByteReader::new(bytes);
        let record = decode(&mut r)?;
        r.expect_end()?;
        Ok(record)
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the whole input has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Fails unless the whole input has been consumed — used to reject
    /// trailing garbage after a record.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Malformed`] when bytes remain.
    pub fn expect_end(&self) -> DecodeResult<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::Malformed {
                offset: self.pos,
                message: format!("{} trailing bytes after the record", self.remaining()),
            })
        }
    }

    /// The counts-before-bytes guard: fails unless `count` elements of at
    /// least `min_elem_bytes` bytes each fit in the remaining input. Call it
    /// after reading a declared count and before reserving room for it.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Malformed`] when `count · min_elem_bytes`
    /// exceeds the remaining bytes or overflows `usize`.
    pub fn check_count(&self, count: usize, min_elem_bytes: usize) -> DecodeResult<()> {
        match count.checked_mul(min_elem_bytes) {
            Some(need) if need <= self.remaining() => Ok(()),
            _ => Err(DecodeError::Malformed {
                offset: self.pos,
                message: format!(
                    "count {count} of {min_elem_bytes}-byte elements exceeds the remaining {} bytes",
                    self.remaining()
                ),
            }),
        }
    }

    /// Takes `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Truncated`] when fewer than `n` remain.
    pub fn take_bytes(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated {
                offset: self.pos,
                needed: n,
                available: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Takes one byte.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Truncated`] at end of input.
    pub fn take_u8(&mut self) -> DecodeResult<u8> {
        Ok(self.take_bytes(1)?[0])
    }

    /// Takes a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Truncated`] when fewer than 2 bytes remain.
    pub fn take_u16(&mut self) -> DecodeResult<u16> {
        let b = self.take_bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Takes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Truncated`] when fewer than 4 bytes remain.
    pub fn take_u32(&mut self) -> DecodeResult<u32> {
        let b = self.take_bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Takes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Truncated`] when fewer than 8 bytes remain.
    pub fn take_u64(&mut self) -> DecodeResult<u64> {
        let b = self.take_bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Takes a `u64` and narrows it to `usize`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] at end of input, [`DecodeError::Malformed`]
    /// when the value exceeds `usize::MAX`.
    pub fn take_usize(&mut self) -> DecodeResult<usize> {
        let offset = self.pos;
        let v = self.take_u64()?;
        usize::try_from(v).map_err(|_| DecodeError::Malformed {
            offset,
            message: format!("count {v} does not fit in usize"),
        })
    }

    /// Takes an `f64` from its little-endian bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Truncated`] when fewer than 8 bytes remain.
    pub fn take_f64(&mut self) -> DecodeResult<f64> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Takes `n` `f64`s written by [`ByteWriter::put_f64s`] (or `n`
    /// [`ByteWriter::put_f64`] calls). The `8·n` bytes are taken before
    /// anything is allocated, so a corrupted count cannot drive an
    /// allocation larger than the input.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] when fewer than `8·n` bytes remain,
    /// [`DecodeError::Malformed`] when `8·n` overflows `usize`.
    pub fn take_f64s(&mut self, n: usize) -> DecodeResult<Vec<f64>> {
        let offset = self.pos;
        let len = n.checked_mul(8).ok_or_else(|| DecodeError::Malformed {
            offset,
            message: format!("{n} f64 values overflow the byte count"),
        })?;
        let bytes = self.take_bytes(len)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().expect("chunks_exact(8) yields 8 bytes")))
            .collect())
    }

    /// Takes a bool encoded as a `0`/`1` byte.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] at end of input, [`DecodeError::Malformed`]
    /// for any byte other than `0` or `1`.
    pub fn take_bool(&mut self) -> DecodeResult<bool> {
        let offset = self.pos;
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError::Malformed {
                offset,
                message: format!("invalid bool byte {other:#04x}"),
            }),
        }
    }

    /// Takes a `u64`-length-prefixed byte string written by
    /// [`ByteWriter::put_blob`], borrowed from the input. The length is
    /// checked against the bytes present before anything is copied.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] when the prefix or body is cut short,
    /// [`DecodeError::Malformed`] when the length exceeds `usize::MAX`.
    pub fn take_blob(&mut self) -> DecodeResult<&'a [u8]> {
        let len = self.take_usize()?;
        self.take_bytes(len)
    }

    /// Takes a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] when the prefix or body is cut short,
    /// [`DecodeError::Malformed`] for invalid UTF-8.
    pub fn take_str(&mut self) -> DecodeResult<&'a str> {
        let len = self.take_u32()? as usize;
        let offset = self.pos;
        let bytes = self.take_bytes(len)?;
        std::str::from_utf8(bytes).map_err(|e| DecodeError::Malformed {
            offset,
            message: format!("invalid UTF-8: {e}"),
        })
    }
}

/// IEEE CRC-32 (the zlib/PNG variant) of `bytes`.
///
/// Detects every single-byte corruption and every burst shorter than 32
/// bits, which is what the key-file envelope relies on to reject flipped or
/// truncated secrets instead of silently releasing garbage.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32fast::hash(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // The canonical check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn crc32_detects_every_single_byte_flip() {
        let base = b"the data owner's secret rotation key".to_vec();
        let reference = crc32(&base);
        for idx in 0..base.len() {
            for bit in 0..8 {
                let mut corrupted = base.clone();
                corrupted[idx] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), reference, "flip at {idx}:{bit}");
            }
        }
    }

    #[test]
    fn writer_reader_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_usize(42);
        w.put_f64(-0.0);
        w.put_f64(f64::MIN_POSITIVE);
        w.put_bool(true);
        w.put_bool(false);
        w.put_str("naïve");
        w.put_blob(b"sealed");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 0xAB);
        assert_eq!(r.take_u16().unwrap(), 0xBEEF);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.take_usize().unwrap(), 42);
        // Bit-exact, sign of zero included.
        assert_eq!(r.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.take_f64().unwrap(), f64::MIN_POSITIVE);
        assert!(r.take_bool().unwrap());
        assert!(!r.take_bool().unwrap());
        assert_eq!(r.take_str().unwrap(), "naïve");
        assert_eq!(r.take_blob().unwrap(), b"sealed");
        r.expect_end().unwrap();
    }

    #[test]
    fn nan_payload_round_trips() {
        let odd_nan = f64::from_bits(0x7FF8_0000_0000_1234);
        let bytes = ByteWriter::encode_with(|w| w.put_f64(odd_nan));
        let got = ByteReader::decode_all(&bytes, ByteReader::take_f64).unwrap();
        assert_eq!(got.to_bits(), odd_nan.to_bits());
        let trailing = ByteReader::decode_all(&bytes, ByteReader::take_u32);
        assert!(matches!(
            trailing,
            Err(DecodeError::Malformed { offset: 4, .. })
        ));
    }

    #[test]
    fn bulk_f64s_match_the_per_value_encoding() {
        let values = [-0.0, 1.5, f64::from_bits(0x7FF8_0000_0000_1234), f64::MAX];
        let mut bulk = ByteWriter::new();
        bulk.put_u8(7);
        bulk.put_f64s(&values);
        let mut each = ByteWriter::new();
        each.put_u8(7);
        for &v in &values {
            each.put_f64(v);
        }
        assert_eq!(bulk.as_bytes(), each.as_bytes());

        let bytes = bulk.into_bytes();
        let mut r = ByteReader::new(&bytes);
        r.take_u8().unwrap();
        let back = r.take_f64s(values.len()).unwrap();
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&values));
        r.expect_end().unwrap();

        // A count the input cannot hold fails before any allocation.
        let mut r = ByteReader::new(&bytes);
        r.check_count(4, 8).unwrap();
        assert!(matches!(
            r.check_count(5, 8),
            Err(DecodeError::Malformed { offset: 0, .. })
        ));
        assert!(r.check_count(usize::MAX, 2).is_err());
        assert!(matches!(
            r.take_f64s(usize::MAX),
            Err(DecodeError::Malformed { offset: 0, .. })
        ));
        assert_eq!(
            r.take_f64s(5).unwrap_err(),
            DecodeError::Truncated {
                offset: 0,
                needed: 40,
                available: 33
            }
        );
    }

    #[test]
    fn truncation_reports_offset() {
        let mut w = ByteWriter::new();
        w.put_u32(7);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let err = r.take_u64().unwrap_err();
        assert_eq!(
            err,
            DecodeError::Truncated {
                offset: 0,
                needed: 8,
                available: 4
            }
        );
    }

    #[test]
    fn malformed_bool_and_utf8_rejected() {
        let mut r = ByteReader::new(&[2]);
        assert!(matches!(
            r.take_bool(),
            Err(DecodeError::Malformed { offset: 0, .. })
        ));
        // Length prefix 1 followed by an invalid UTF-8 byte.
        let mut r = ByteReader::new(&[1, 0, 0, 0, 0xFF]);
        assert!(matches!(
            r.take_str(),
            Err(DecodeError::Malformed { offset: 4, .. })
        ));
    }

    #[test]
    fn string_truncation_rejected() {
        let mut w = ByteWriter::new();
        w.put_str("hello");
        let mut bytes = w.into_bytes();
        bytes.truncate(bytes.len() - 2);
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.take_str(), Err(DecodeError::Truncated { .. })));
        let mut r = ByteReader::new(&[0xFF; 8]);
        assert!(matches!(r.take_blob(), Err(DecodeError::Truncated { .. })));
    }

    #[test]
    fn expect_end_flags_trailing_bytes() {
        let r = ByteReader::new(&[1, 2, 3]);
        assert!(matches!(
            r.expect_end(),
            Err(DecodeError::Malformed { offset: 0, .. })
        ));
    }
}
