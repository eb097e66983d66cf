//! The `RBTW` length-prefixed wire protocol.
//!
//! Every message on the socket is one *frame*:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"RBTW"
//! 4       2     protocol version (u16 LE, currently 2)
//! 6       1     opcode
//! 7       4     body length n (u32 LE)
//! 11      n     body (opcode-specific, ByteWriter/ByteReader encoded)
//! 11+n    4     CRC-32 (u32 LE) over bytes [0, 11+n)
//! ```
//!
//! **Version 2** prefixes every body with a `u64` *request id*: responses
//! echo the id of the request they answer, which is what makes the
//! client's reconnect-and-retry loop safe — a response can be matched to
//! its request even after the stream it originally travelled on has died.
//! Version 2 is the only version this build speaks; a frame tagged with
//! any other version is a [`WireError::UnsupportedVersion`].
//!
//! The framing layer reuses [`rbt_linalg::codec`]'s primitives and inherits
//! its contract: malformed input is *rejected with a typed error*, never
//! panicked on. Streaming validation order is magic → length (bounded by
//! [`MAX_BODY_LEN`] **before** any allocation) → CRC over header+body →
//! version → opcode, so a frame with a valid checksum but an unknown
//! version is reported as [`WireError::UnsupportedVersion`] rather than as
//! corruption, while any flipped byte anywhere in the frame trips the CRC.
//!
//! **One encoder, one validator, one frame.** Every frame is written by
//! one encoder: `Request::encode_into` and `Response::encode_into` write
//! header, request id, body and CRC-32 trailer in one pass into a
//! caller's buffer (the client keeps one per connection). Every frame is
//! checked by one in-place validator — CRC, then version, then opcode —
//! that [`FrameAssembler`], [`read_frame`] and [`decode_frame`] share.
//! A [`Frame`] is one whole encoded frame at the tail of its buffer, the
//! bytes as they travel. The daemon reads a socket straight into its
//! [`FrameAssembler`] and takes every checked request out of it as a
//! `Frame`, answers it inside that frame's own buffer, and writes the
//! answer from there. A `Transform` or `Invert` is released inside its
//! frame: `BatchRequest` hands the row kernels the frame's cells as
//! little-endian `[u8; 8]`s, which they read and write once each, then
//! rewrites the frame in place into the bytes `Response::encode_into`
//! writes for the answer, so the daemon never copies a served batch's
//! rows. [`read_frame`] keeps the bytes it read as
//! the frame, so the client copies a response's rows only when it decodes
//! them. [`Frame::new`], `to_frame`, [`encode_frame`] and [`write_frame`]
//! build and write whole frames for tests and tools.

use std::fmt;
use std::io::{Read, Write};
use std::ops::Range;

use rbt_data::Dataset;
use rbt_linalg::codec::{crc32, ByteReader, ByteWriter, DecodeError};
use rbt_linalg::Matrix;

use crate::metrics::ServerStats;

/// Frame magic: "RBT wire".
pub const MAGIC: [u8; 4] = *b"RBTW";
/// The protocol version (2: request-id prefix in every body).
pub const WIRE_VERSION: u16 = 2;
/// Fixed header size: magic + version + opcode + body length.
pub const HEADER_LEN: usize = 11;
/// CRC-32 trailer size.
pub const TRAILER_LEN: usize = 4;
/// Size of the request-id prefix inside the body.
pub const REQUEST_ID_LEN: usize = 8;
/// Upper bound on a frame body (64 MiB). Checked against the declared
/// length *before* the body is allocated, so a corrupted or hostile length
/// field cannot drive the server out of memory.
pub const MAX_BODY_LEN: u32 = 64 * 1024 * 1024;

/// One read (64 KiB): what `FrameAssembler::read_from` reads when no
/// frame is in progress — several small frames, or the head of a large
/// one. A frame at least this long leaves the assembler with its buffer,
/// and the daemon keeps flushed buffers no shorter than this; a shorter
/// frame is copied into a buffer of its own size, which costs little to
/// allocate.
pub(crate) const MIN_READ: usize = 64 * 1024;

/// Bytes a `Transform` answer's drift count adds to the frame of its
/// request, whose tenant field (at least 4 bytes) the answer drops. The
/// daemon reads every frame into a buffer with this much room past it, so
/// a batch request is rewritten into its answer without reallocating.
const DRIFT_LEN: usize = 8;

/// The largest frame buffer a connection keeps once its frame is done
/// (4 MiB): a drained `FrameAssembler` gives back a larger one, and the
/// daemon's free list of flushed response frames keeps none larger. Rarer,
/// larger frames go back to the allocator instead of pinning their memory.
pub(crate) const FREE_FRAME_MAX: usize = 4 * 1024 * 1024;

/// Frame opcodes. Responses reuse the opcode of the request they answer;
/// failures use [`Opcode::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Register (or replace) a tenant's sealed key file.
    LoadKey = 1,
    /// Transform an out-of-sample batch under a tenant's session.
    Transform = 2,
    /// Owner-side inverse of [`Opcode::Transform`].
    Invert = 3,
    /// Server and per-tenant counters.
    Stats = 4,
    /// Drop a tenant: key bytes, live session, and counters.
    EvictTenant = 5,
    /// Liveness check.
    Ping = 6,
    /// Either direction announcing a clean departure: the server sends it
    /// as its final frame while draining, the client as a goodbye before
    /// closing its socket.
    GoingAway = 7,
    /// Re-scan the key directory into the registry (hot reload).
    ReloadKeys = 8,
    /// The request was shed because its deadline expired before the
    /// server could start it (never a request).
    Deadline = 9,
    /// Open a federated release session on the server's hub.
    FedOpen = 10,
    /// Deliver an owner's outbound federation messages and drain its
    /// mailbox.
    FedMsg = 11,
    /// Poll a federated session for its joint clustering result.
    FedResult = 12,
    /// Close a federated session, dropping its state.
    FedClose = 13,
    /// Error response (never a request).
    Error = 15,
}

impl Opcode {
    fn from_u8(v: u8) -> Option<Opcode> {
        match v {
            1 => Some(Opcode::LoadKey),
            2 => Some(Opcode::Transform),
            3 => Some(Opcode::Invert),
            4 => Some(Opcode::Stats),
            5 => Some(Opcode::EvictTenant),
            6 => Some(Opcode::Ping),
            7 => Some(Opcode::GoingAway),
            8 => Some(Opcode::ReloadKeys),
            9 => Some(Opcode::Deadline),
            10 => Some(Opcode::FedOpen),
            11 => Some(Opcode::FedMsg),
            12 => Some(Opcode::FedResult),
            13 => Some(Opcode::FedClose),
            15 => Some(Opcode::Error),
            _ => None,
        }
    }
}

/// Errors produced while reading or decoding frames. Every variant is a
/// *rejection* — the framing layer never panics on wire input.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The first four bytes were not `RBTW`.
    BadMagic {
        /// What was found instead.
        found: [u8; 4],
    },
    /// The frame checksummed correctly but declares a version this build
    /// does not speak.
    UnsupportedVersion {
        /// The declared version.
        found: u16,
    },
    /// The frame checksummed correctly but carries an unknown opcode.
    UnknownOpcode {
        /// The declared opcode byte.
        found: u8,
    },
    /// The declared body length exceeds [`MAX_BODY_LEN`]. Raised before
    /// any allocation.
    Oversized {
        /// The declared body length.
        length: u32,
        /// The configured cap.
        limit: u32,
    },
    /// The CRC-32 trailer does not match the header + body.
    ChecksumMismatch {
        /// CRC stored in the trailer.
        stored: u32,
        /// CRC computed over the received bytes.
        computed: u32,
    },
    /// A frame body (or a buffered frame) failed byte-level decoding.
    Byte(DecodeError),
    /// The underlying stream failed (including EOF in the middle of a
    /// frame — a client that disconnected mid-send).
    Io {
        /// The I/O error kind.
        kind: std::io::ErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic { found } => {
                write!(f, "bad frame magic {found:02x?}, expected \"RBTW\"")
            }
            WireError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported wire version {found} (this build speaks {WIRE_VERSION})"
                )
            }
            WireError::UnknownOpcode { found } => write!(f, "unknown opcode {found:#04x}"),
            WireError::Oversized { length, limit } => {
                write!(
                    f,
                    "declared body length {length} exceeds the {limit}-byte cap"
                )
            }
            WireError::ChecksumMismatch { stored, computed } => write!(
                f,
                "frame checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            WireError::Byte(e) => write!(f, "frame body: {e}"),
            WireError::Io { kind, message } => write!(f, "wire i/o ({kind:?}): {message}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::Byte(e)
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io {
            kind: e.kind(),
            message: e.to_string(),
        }
    }
}

/// Wire result alias.
pub type WireResult<T> = std::result::Result<T, WireError>;

fn malformed(offset: usize, message: impl Into<String>) -> WireError {
    WireError::Byte(DecodeError::Malformed {
        offset,
        message: message.into(),
    })
}

/// A validated frame borrowed from the buffer it was read into: opcode,
/// request id, and the whole frame's bytes. [`Request::from_view`] decodes
/// it without copying the body first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FrameView<'a> {
    /// The frame opcode.
    pub(crate) opcode: Opcode,
    /// The request id (0 for unsolicited frames).
    pub(crate) request_id: u64,
    /// The whole encoded frame: header, request id, body and CRC trailer.
    pub(crate) bytes: &'a [u8],
}

impl<'a> FrameView<'a> {
    /// The opcode-specific body (request-id prefix already stripped).
    pub(crate) fn body(&self) -> &'a [u8] {
        &self.bytes[HEADER_LEN + REQUEST_ID_LEN..self.bytes.len() - TRAILER_LEN]
    }
}

/// One whole encoded frame — header, request id, body and CRC-32 trailer —
/// at the tail of the buffer it was read or encoded into. The body is
/// interpreted by [`Request::from_frame`] / [`Response::from_frame`]; the
/// request id is echoed by the server so clients can match a response to
/// its request across reconnects. The daemon answers a request inside its
/// frame's own buffer. Two frames are equal when their opcode, request id
/// and body are.
#[derive(Clone)]
pub struct Frame {
    /// The frame opcode, as its header declares it.
    pub opcode: Opcode,
    /// The request id the frame carries (0 for unsolicited frames:
    /// farewells, refusals, and framing errors); set it with
    /// [`Frame::with_request_id`].
    pub request_id: u64,
    /// `bytes[start..]` is the frame; the bytes before `start` are what a
    /// buffer rewritten in place left over, and the capacity past its end
    /// is room for the frame's answer to grow into.
    bytes: Vec<u8>,
    start: usize,
}

impl Frame {
    /// Encodes a frame with the given opcode and body, request id 0.
    pub fn new(opcode: Opcode, body: Vec<u8>) -> Frame {
        let mut bytes = Vec::new();
        encode_with(&mut bytes, opcode, 0, body.len(), |w| w.put_bytes(&body));
        Frame::from_encoded(bytes, 0, opcode, 0)
    }

    /// Takes ownership of one whole, validated encoded frame,
    /// `bytes[start..]`.
    fn from_encoded(bytes: Vec<u8>, start: usize, opcode: Opcode, request_id: u64) -> Frame {
        Frame {
            opcode,
            request_id,
            bytes,
            start,
        }
    }

    /// An owned copy of a borrowed frame, with room past it for the
    /// daemon to rewrite a batch into its answer.
    fn from_view(view: FrameView<'_>) -> Frame {
        let mut bytes = Vec::with_capacity(view.bytes.len() + DRIFT_LEN);
        bytes.extend_from_slice(view.bytes);
        Frame::from_encoded(bytes, 0, view.opcode, view.request_id)
    }

    /// The same frame carrying `id` as its request id, with the CRC
    /// trailer that covers it.
    pub fn with_request_id(mut self, id: u64) -> Frame {
        let at = self.start + HEADER_LEN;
        self.bytes[at..at + REQUEST_ID_LEN].copy_from_slice(&id.to_le_bytes());
        let crc_at = self.bytes.len() - TRAILER_LEN;
        let crc = crc32(&self.bytes[self.start..crc_at]);
        self.bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
        self.request_id = id;
        self
    }

    /// The opcode-specific body (request-id prefix already stripped).
    pub fn body(&self) -> &[u8] {
        self.view().body()
    }

    /// The frame as a borrowed view.
    pub(crate) fn view(&self) -> FrameView<'_> {
        FrameView {
            opcode: self.opcode,
            request_id: self.request_id,
            bytes: self.as_bytes(),
        }
    }

    /// The whole encoded frame.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.bytes[self.start..]
    }

    /// Encodes `response`, echoing the frame's request id, into the
    /// frame's own buffer in place of the frame.
    pub(crate) fn answer(self, response: &Response) -> Frame {
        let mut bytes = self.bytes;
        response.encode_into(self.request_id, &mut bytes);
        Frame::from_encoded(bytes, 0, response.opcode(), self.request_id)
    }

    /// The buffer the frame lives in, for reuse.
    pub(crate) fn into_buffer(self) -> Vec<u8> {
        self.bytes
    }
}

impl PartialEq for Frame {
    fn eq(&self, other: &Frame) -> bool {
        self.view() == other.view()
    }
}

impl Eq for Frame {}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Frame")
            .field("opcode", &self.opcode)
            .field("request_id", &self.request_id)
            .field("body", &self.body())
            .finish()
    }
}

/// The one frame encoder: writes header, request id, the body `put_body`
/// appends, and the CRC-32 trailer into `buf` in one pass, replacing what
/// it held. `body_len` presizes the buffer (an estimate is fine); a
/// buffer that already has room keeps its allocation. The body length is
/// patched into the header once the body is written.
fn encode_with(
    buf: &mut Vec<u8>,
    opcode: Opcode,
    request_id: u64,
    body_len: usize,
    put_body: impl FnOnce(&mut ByteWriter),
) {
    let frame_len = HEADER_LEN + REQUEST_ID_LEN + body_len + TRAILER_LEN;
    buf.clear();
    if buf.capacity() < frame_len {
        // Growing the old buffer would copy its stale bytes; start fresh.
        *buf = Vec::with_capacity(frame_len);
    }
    let mut w = ByteWriter::from_vec(std::mem::take(buf));
    // The body length is patched below.
    w.put_bytes(&frame_head(opcode, 0, request_id));
    put_body(&mut w);
    let mut bytes = w.into_bytes();
    let declared = (bytes.len() - HEADER_LEN) as u32;
    bytes[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&declared.to_le_bytes());
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    *buf = bytes;
}

/// The first bytes of every frame: magic, version, opcode, body length
/// and request id.
fn frame_head(opcode: Opcode, body_len: u32, request_id: u64) -> [u8; HEADER_LEN + REQUEST_ID_LEN] {
    let mut head = [0u8; HEADER_LEN + REQUEST_ID_LEN];
    head[..4].copy_from_slice(&MAGIC);
    head[4..6].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    head[6] = opcode as u8;
    head[7..HEADER_LEN].copy_from_slice(&body_len.to_le_bytes());
    head[HEADER_LEN..].copy_from_slice(&request_id.to_le_bytes());
    head
}

/// A copy of a frame's encoded bytes (header + request-id prefix + body +
/// CRC-32 trailer), always at [`WIRE_VERSION`].
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    frame.as_bytes().to_vec()
}

/// Header fields once magic and the length bound have been validated.
struct RawHeader {
    version: u16,
    opcode_byte: u8,
    body_len: usize,
}

impl RawHeader {
    /// Bytes of the whole frame: header, body and trailer.
    fn frame_len(&self) -> usize {
        HEADER_LEN + self.body_len + TRAILER_LEN
    }
}

/// Parses the header at the start of `bytes` (at least [`HEADER_LEN`]
/// long): magic, then the length bound.
fn parse_header(bytes: &[u8]) -> WireResult<RawHeader> {
    let mut r = ByteReader::new(&bytes[..HEADER_LEN]);
    let magic = r.take_bytes(4)?;
    if magic != MAGIC {
        return Err(WireError::BadMagic {
            found: [magic[0], magic[1], magic[2], magic[3]],
        });
    }
    let version = r.take_u16()?;
    let opcode_byte = r.take_u8()?;
    let body_len = r.take_u32()?;
    if body_len > MAX_BODY_LEN {
        return Err(WireError::Oversized {
            length: body_len,
            limit: MAX_BODY_LEN,
        });
    }
    Ok(RawHeader {
        version,
        opcode_byte,
        body_len: body_len as usize,
    })
}

/// The one frame validator: checks one whole frame in place — CRC over
/// header and body, then version, then opcode, then that the body holds
/// the request id — and returns a view of it. `frame` is exactly
/// `header.frame_len()` bytes whose header parsed as `header`.
fn check_frame<'a>(frame: &'a [u8], header: &RawHeader) -> WireResult<FrameView<'a>> {
    let crc_end = HEADER_LEN + header.body_len;
    let stored = u32::from_le_bytes([
        frame[crc_end],
        frame[crc_end + 1],
        frame[crc_end + 2],
        frame[crc_end + 3],
    ]);
    let computed = crc32(&frame[..crc_end]);
    if stored != computed {
        return Err(WireError::ChecksumMismatch { stored, computed });
    }
    if header.version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion {
            found: header.version,
        });
    }
    let opcode = Opcode::from_u8(header.opcode_byte).ok_or(WireError::UnknownOpcode {
        found: header.opcode_byte,
    })?;
    if header.body_len < REQUEST_ID_LEN {
        return Err(malformed(
            HEADER_LEN,
            format!(
                "version-2 body of {} bytes cannot hold the request id",
                header.body_len
            ),
        ));
    }
    let mut id_bytes = [0u8; REQUEST_ID_LEN];
    id_bytes.copy_from_slice(&frame[HEADER_LEN..HEADER_LEN + REQUEST_ID_LEN]);
    Ok(FrameView {
        opcode,
        request_id: u64::from_le_bytes(id_bytes),
        bytes: frame,
    })
}

/// Decodes one frame from a buffer that must contain exactly one frame.
///
/// # Errors
///
/// Any deviation from the format — short input, bad magic, oversized or
/// inconsistent length, checksum mismatch, unknown version or opcode,
/// trailing bytes — returns the corresponding typed [`WireError`].
pub fn decode_frame(bytes: &[u8]) -> WireResult<Frame> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Byte(DecodeError::Truncated {
            offset: 0,
            needed: HEADER_LEN,
            available: bytes.len(),
        }));
    }
    let header = parse_header(bytes)?;
    let total = header.frame_len();
    if bytes.len() < total {
        return Err(WireError::Byte(DecodeError::Truncated {
            offset: bytes.len(),
            needed: total,
            available: bytes.len(),
        }));
    }
    if bytes.len() > total {
        return Err(malformed(
            total,
            format!("{} trailing bytes after the frame", bytes.len() - total),
        ));
    }
    check_frame(bytes, &header).map(Frame::from_view)
}

/// Reads the next frame from a stream.
///
/// Returns `Ok(None)` on a clean end-of-stream (the peer closed between
/// frames); EOF in the *middle* of a frame is a disconnect and reported as
/// [`WireError::Io`] with [`std::io::ErrorKind::UnexpectedEof`]. The
/// declared body length is validated against [`MAX_BODY_LEN`] before the
/// frame buffer is allocated. The bytes are read straight into that
/// buffer, which the returned frame keeps: the body is neither zeroed
/// first nor copied out.
///
/// # Errors
///
/// Typed [`WireError`] for every malformed frame or stream failure.
pub fn read_frame<R: Read>(stream: &mut R) -> WireResult<Option<Frame>> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < HEADER_LEN {
        let n = stream.read(&mut header[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None); // clean EOF between frames
            }
            return Err(WireError::Io {
                kind: std::io::ErrorKind::UnexpectedEof,
                message: format!("peer closed after {filled} of {HEADER_LEN} header bytes"),
            });
        }
        filled += n;
    }
    let parsed = parse_header(&header)?;
    let total = parsed.frame_len();
    let mut bytes = Vec::with_capacity(total);
    bytes.extend_from_slice(&header);
    stream
        .take((total - HEADER_LEN) as u64)
        .read_to_end(&mut bytes)?;
    if bytes.len() < total {
        return Err(WireError::Io {
            kind: std::io::ErrorKind::UnexpectedEof,
            message: "peer closed mid-frame".to_string(),
        });
    }
    let view = check_frame(&bytes, &parsed)?;
    let (opcode, request_id) = (view.opcode, view.request_id);
    Ok(Some(Frame::from_encoded(bytes, 0, opcode, request_id)))
}

/// Incremental frame decoder for non-blocking sockets.
///
/// The blocking [`read_frame`] owns its stream and can loop until a frame
/// completes; a readiness-polled connection instead receives bytes in
/// arbitrary chunks whenever the socket is readable. The daemon reads them
/// straight into the assembler's own buffer, with room for the rest of
/// the frame in progress, and takes each complete, validated frame out
/// owned: a frame of one read or more with the buffer itself, any other
/// frame copied into a buffer of its own size; [`FrameAssembler::push`]
/// and [`FrameAssembler::next_frame`] are the copying feeder and reader
/// for callers that already hold the bytes. Either way
/// the validation is exactly [`read_frame`]'s: magic and length bound from
/// the header, then CRC over the whole frame, then version, then opcode.
/// A buffer that has held one frame holds the next of the same size
/// without growing: consumed bytes are dropped before a read needs their
/// room. Once nothing is pending, a buffer larger than 4 MiB goes back to
/// the allocator, so one large frame does not pin its memory for as long
/// as the connection lives.
///
/// Error recoverability mirrors the blocking path. A header-level error
/// (bad magic, oversized length) or a checksum mismatch leaves the byte
/// stream desynchronized — the caller must close the connection. A version
/// or opcode error is only reachable *after* the CRC proved the declared
/// length honest, so the offending frame has been fully consumed and the
/// assembler keeps working on whatever follows it.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    /// Bytes received; those before `start` are consumed.
    buf: Vec<u8>,
    start: usize,
}

impl FrameAssembler {
    /// Creates an empty assembler.
    pub fn new() -> FrameAssembler {
        FrameAssembler::default()
    }

    /// The received bytes not yet consumed.
    fn pending(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    /// Makes room for `additional` more bytes. Consumed bytes are dropped
    /// first — for free when nothing is pending — so the buffer grows only
    /// when the pending bytes and the new ones do not fit in it.
    fn reserve(&mut self, additional: usize) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        if self.buf.capacity() - self.buf.len() < additional {
            self.buf.drain(..self.start);
            self.start = 0;
            self.buf.reserve_exact(additional);
        }
    }

    /// Appends bytes to the reassembly buffer (the copying feeder, for
    /// callers that already hold the bytes).
    pub fn push(&mut self, bytes: &[u8]) {
        self.reserve(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Reads once from `src` straight into the reassembly buffer: exactly
    /// the rest of the frame in progress, or up to 64 KiB (several small
    /// frames, or the head of a large one) when no frame is in progress.
    /// A read so stops at a large frame's end, and a buffer that has held
    /// one frame holds the next of its size without growing or moving.
    /// Returns how many bytes arrived; 0 means end of stream. The buffer
    /// is sized from a header only after the header passed its magic and
    /// length checks.
    ///
    /// # Errors
    ///
    /// The read's own error (`WouldBlock` on a drained non-blocking
    /// socket) when no bytes arrived. Bytes that arrived before an error
    /// are kept and counted; the error then recurs on the next read.
    pub(crate) fn read_from<R: Read>(&mut self, src: &mut R) -> std::io::Result<usize> {
        let pending = self.pending();
        let rest = if pending.len() < HEADER_LEN {
            0
        } else {
            parse_header(pending).map_or(0, |h| h.frame_len().saturating_sub(pending.len()))
        };
        let room = if rest > 0 { rest } else { MIN_READ };
        self.reserve(room + DRIFT_LEN);
        let before = self.buf.len();
        let read = src.take(room as u64).read_to_end(&mut self.buf);
        match (read, self.buf.len() - before) {
            (Err(e), 0) => Err(e),
            (_, n) => Ok(n),
        }
    }

    /// True while the buffer holds any unconsumed bytes — complete frames
    /// not yet extracted count too. To
    /// decide whether a silent peer is *stalled* (owes bytes) or merely
    /// unread (back-pressured by the caller), use
    /// [`FrameAssembler::partial_frame`] instead.
    pub fn mid_frame(&self) -> bool {
        self.start < self.buf.len()
    }

    /// True when [`FrameAssembler::next_frame`] would yield something —
    /// a complete frame, or a typed error for bytes that can never become
    /// one — without any further bytes.
    pub fn frame_ready(&self) -> bool {
        let pending = self.pending();
        if pending.len() < HEADER_LEN {
            return false;
        }
        match parse_header(pending) {
            // An undecodable header is extractable as a (fatal) error.
            Err(_) => true,
            Ok(header) => pending.len() >= header.frame_len(),
        }
    }

    /// True while the pending bytes begin an *incomplete* frame the peer
    /// still owes bytes for — the state in which a silent peer counts as
    /// stalled rather than idle, and an EOF is a mid-frame disconnect
    /// rather than clean. Complete-but-unextracted frames (e.g. held back
    /// by a full in-flight window) do not count: the peer owes nothing.
    pub fn partial_frame(&self) -> bool {
        self.mid_frame() && !self.frame_ready()
    }

    /// Yields the next complete frame as a view into the buffer, `None`
    /// if more bytes are needed. The call that finds nothing pending gives
    /// a buffer larger than `FREE_FRAME_MAX` back, so draining the
    /// assembler until `None` leaves at most that much.
    ///
    /// # Errors
    ///
    /// Typed [`WireError`] exactly as [`read_frame`] would produce for the
    /// same bytes. After [`WireError::UnsupportedVersion`] or
    /// [`WireError::UnknownOpcode`] the frame was fully consumed and the
    /// assembler remains usable; after any other error the stream is
    /// desynchronized and the connection should be closed.
    pub(crate) fn next_view(&mut self) -> Option<WireResult<FrameView<'_>>> {
        if self.start == self.buf.len() && self.buf.capacity() > FREE_FRAME_MAX {
            *self = FrameAssembler::new();
        }
        let pending = &self.buf[self.start..];
        if pending.len() < HEADER_LEN {
            return None;
        }
        let header = match parse_header(pending) {
            Ok(header) => header,
            Err(e) => return Some(Err(e)),
        };
        let total = header.frame_len();
        if pending.len() < total {
            return None;
        }
        let result = check_frame(&pending[..total], &header);
        match &result {
            // The CRC covered `total` bytes, so consuming them is safe even
            // when the version or opcode is unknown — resynchronization is
            // exact, matching the blocking reader.
            Ok(_)
            | Err(WireError::UnsupportedVersion { .. })
            | Err(WireError::UnknownOpcode { .. }) => self.start += total,
            // Checksum mismatch / short v2 body: the declared length is not
            // trustworthy; leave the buffer as-is for the caller to abandon.
            Err(_) => {}
        }
        Some(result)
    }

    /// Yields a copy of the next complete frame, `None` if more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// Typed [`WireError`] exactly as [`read_frame`] would produce for the
    /// same bytes. After [`WireError::UnsupportedVersion`] or
    /// [`WireError::UnknownOpcode`] the frame was fully consumed and the
    /// assembler remains usable; after any other error the stream is
    /// desynchronized and the connection should be closed.
    pub fn next_frame(&mut self) -> Option<WireResult<Frame>> {
        self.next_view().map(|view| view.map(Frame::from_view))
    }

    /// [`next_frame`](Self::next_frame) for the daemon, with the same
    /// validation and errors, but copying only small frames. A frame of at
    /// least one 64 KiB read that ends the pending bytes — as every frame
    /// of that size does, because the read of its rest stops at its end —
    /// takes the whole buffer, and the assembler goes on in `fresh()`. Any
    /// other frame is copied into a buffer of its own size, so a small
    /// request never pins a read's buffer. Either way the frame's buffer
    /// has room past it for a batch's answer.
    pub(crate) fn next_request(
        &mut self,
        fresh: impl FnOnce() -> Vec<u8>,
    ) -> Option<WireResult<Frame>> {
        let (opcode, request_id, len) = match self.next_view()? {
            Ok(view) => (view.opcode, view.request_id, view.bytes.len()),
            Err(e) => return Some(Err(e)),
        };
        let end = self.start;
        let frame = if len >= MIN_READ && end == self.buf.len() {
            let mut next = fresh();
            next.clear();
            self.start = 0;
            let bytes = std::mem::replace(&mut self.buf, next);
            Frame::from_encoded(bytes, end - len, opcode, request_id)
        } else {
            Frame::from_view(FrameView {
                opcode,
                request_id,
                bytes: &self.buf[end - len..end],
            })
        };
        Some(Ok(frame))
    }
}

/// A `Transform` or `Invert` request the daemon owns as its checked frame,
/// whose body parsed as [`Request::from_view`] parses it. Its rows are
/// released inside the frame, which is then rewritten in place into the
/// answer's frame.
#[derive(Debug)]
pub(crate) struct BatchRequest {
    frame: Frame,
    tenant: String,
    /// Offset of the dataset in the frame's buffer.
    dataset: usize,
    layout: DatasetLayout,
}

/// Parses a batch request's body: the tenant, then a dataset, then
/// nothing.
fn parse_batch_body(body: &[u8]) -> WireResult<(String, DatasetLayout)> {
    let mut r = ByteReader::new(body);
    let tenant = r.take_str()?.to_string();
    let (layout, _) = read_dataset(&mut r)?;
    r.expect_end()?;
    Ok((tenant, layout))
}

impl BatchRequest {
    /// Parses an owned `Transform` or `Invert` frame. Any other frame, or
    /// one whose body does not parse, comes back as it was.
    pub(crate) fn parse(frame: Frame) -> Result<BatchRequest, Frame> {
        if !matches!(frame.opcode, Opcode::Transform | Opcode::Invert) {
            return Err(frame);
        }
        let Ok((tenant, layout)) = parse_batch_body(frame.body()) else {
            return Err(frame);
        };
        let dataset = frame.start + HEADER_LEN + REQUEST_ID_LEN + 4 + tenant.len();
        Ok(BatchRequest {
            frame,
            tenant,
            dataset,
            layout,
        })
    }

    /// The frame opcode, `Transform` or `Invert`.
    pub(crate) fn opcode(&self) -> Opcode {
        self.frame.opcode
    }

    /// The tenant the batch is for.
    pub(crate) fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The batch's row count.
    pub(crate) fn n_rows(&self) -> usize {
        self.layout.rows
    }

    /// The batch's column count.
    pub(crate) fn n_cols(&self) -> usize {
        self.layout.cols
    }

    /// The frame, unparsed.
    pub(crate) fn into_frame(self) -> Frame {
        self.frame
    }

    /// The batch's cells, row-major, as the frame carries them: the
    /// little-endian bytes of each `f64`, released and recovered in place
    /// by the row kernels (`rbt_core::RowKernels`).
    pub(crate) fn cells(&mut self) -> &mut [[u8; 8]] {
        let cells_at = self.dataset + self.layout.cells_at;
        let cells_end = self.frame.bytes.len() - TRAILER_LEN;
        self.frame.bytes[cells_at..cells_end].as_chunks_mut().0
    }

    /// Rewrites the frame in place into the frame
    /// `Response::Transformed { released, out_of_range_rows }` encodes,
    /// `released` being the batch as it now stands, its IDs dropped when
    /// `drop_ids`.
    pub(crate) fn into_transformed(self, drop_ids: bool, out_of_range_rows: u64) -> Frame {
        self.into_answer(Opcode::Transform, drop_ids, Some(out_of_range_rows))
    }

    /// Rewrites the frame in place into the frame
    /// `Response::Inverted { recovered }` encodes, `recovered` being the
    /// batch as it now stands.
    pub(crate) fn into_inverted(self) -> Frame {
        self.into_answer(Opcode::Invert, false, None)
    }

    /// The in-place rewrite: the dataset stays where it is, except that
    /// its counts, names and ID flag move up against the cells when the
    /// IDs are dropped; the drift count takes the request's CRC's place;
    /// the header and request id move up to meet the dataset, over the
    /// tenant field; and the answer's CRC follows.
    fn into_answer(self, opcode: Opcode, drop_ids: bool, drift: Option<u64>) -> Frame {
        let BatchRequest {
            frame,
            mut dataset,
            layout,
            ..
        } = self;
        let mut buf = frame.bytes;
        if drop_ids && layout.has_ids {
            let flag = dataset + layout.has_ids_at;
            let shift = layout.cells_at - layout.has_ids_at - 1;
            buf[flag] = 0;
            buf.copy_within(dataset..=flag, dataset + shift);
            dataset += shift;
        }
        buf.truncate(buf.len() - TRAILER_LEN);
        if let Some(drift) = drift {
            buf.extend_from_slice(&drift.to_le_bytes());
        }
        let start = dataset - HEADER_LEN - REQUEST_ID_LEN;
        let body_len = (buf.len() - start - HEADER_LEN) as u32;
        buf[start..dataset].copy_from_slice(&frame_head(opcode, body_len, frame.request_id));
        let crc = crc32(&buf[start..]);
        buf.extend_from_slice(&crc.to_le_bytes());
        Frame::from_encoded(buf, start, opcode, frame.request_id)
    }
}

/// Writes one frame's bytes to a stream and flushes it — how the tests
/// put hand-built frames on a socket. The client writes the bytes
/// `encode_into` leaves in its buffer instead.
///
/// # Errors
///
/// Propagates stream failures as [`WireError::Io`].
pub fn write_frame<W: Write>(stream: &mut W, frame: &Frame) -> WireResult<()> {
    stream.write_all(frame.as_bytes())?;
    stream.flush()?;
    Ok(())
}

/// Appends a dataset to the writer: row/column counts, column names,
/// optional record IDs, then the matrix as raw `f64` bit patterns —
/// lossless, which is what makes the server's responses bit-comparable to
/// the in-process `Pipeline` output.
pub fn encode_dataset(w: &mut ByteWriter, ds: &Dataset) {
    w.put_usize(ds.n_rows());
    w.put_usize(ds.n_cols());
    for name in ds.columns() {
        w.put_str(name);
    }
    match ds.ids() {
        Some(ids) => {
            w.put_bool(true);
            for &id in ids {
                w.put_u64(id);
            }
        }
        None => w.put_bool(false),
    }
    w.put_f64s(ds.matrix().as_slice());
}

/// Bytes [`encode_dataset`] writes for `ds`, for presizing a writer.
fn encoded_dataset_len(ds: &Dataset) -> usize {
    let names: usize = ds.columns().iter().map(|name| 4 + name.len()).sum();
    let ids = ds.ids().map_or(0, |ids| 8 * ids.len());
    8 + 8 + names + 1 + ids + 8 * ds.n_rows() * ds.n_cols()
}

/// Where the parts of one dataset [`encode_dataset`] wrote lie, as offsets
/// from its first byte: the row and column counts at 0 and 8, then the
/// column names, the ID flag at `has_ids_at`, the IDs when the flag is
/// set, and the row-major cells from `cells_at` to the end.
#[derive(Debug, Clone, Copy)]
struct DatasetLayout {
    rows: usize,
    cols: usize,
    has_ids: bool,
    has_ids_at: usize,
    cells_at: usize,
}

/// Reads the dataset at `r`'s position, checking everything
/// [`decode_dataset`] checks but copying nothing: returns its layout and
/// its bytes.
fn read_dataset<'a>(r: &mut ByteReader<'a>) -> WireResult<(DatasetLayout, &'a [u8])> {
    let mut whole = r.clone();
    let start = r.position();
    let rows = r.take_usize()?;
    let cols = r.take_usize()?;
    // Rows without columns carry no bytes, so no count check would bound
    // them; a 0×0 dataset stays valid.
    if cols == 0 && rows > 0 {
        return Err(malformed(
            start,
            format!("dataset declares {rows} rows but no columns"),
        ));
    }
    r.check_count(cols, 4)?;
    for _ in 0..cols {
        r.take_str()?;
    }
    let has_ids_at = r.position() - start;
    let has_ids = r.take_bool()?;
    if has_ids {
        r.check_count(rows, 8)?;
        r.take_bytes(8 * rows)?;
    }
    let cells = rows
        .checked_mul(cols)
        .ok_or_else(|| malformed(start, format!("dataset shape {rows}x{cols} overflows")))?;
    r.check_count(cells, 8)?;
    let cells_at = r.position() - start;
    r.take_bytes(8 * cells)?;
    let bytes = whole.take_bytes(r.position() - start)?;
    let layout = DatasetLayout {
        rows,
        cols,
        has_ids,
        has_ids_at,
        cells_at,
    };
    Ok((layout, bytes))
}

/// Reads a dataset written by [`encode_dataset`].
///
/// # Errors
///
/// Typed [`WireError`] on truncation, oversized counts, or inconsistent
/// shape.
pub fn decode_dataset(r: &mut ByteReader<'_>) -> WireResult<Dataset> {
    let shape_offset = r.position();
    let (layout, bytes) = read_dataset(r)?;
    // `read_dataset` checked every count, name and flag below.
    let mut names = ByteReader::new(&bytes[16..layout.has_ids_at]);
    let columns = (0..layout.cols)
        .map(|_| names.take_str().map(str::to_string))
        .collect::<Result<Vec<_>, _>>()?;
    let words = |range: Range<usize>| bytes[range].as_chunks::<8>().0.iter();
    let data = words(layout.cells_at..bytes.len())
        .map(|w| f64::from_le_bytes(*w))
        .collect();
    let matrix = Matrix::from_vec(layout.rows, layout.cols, data)
        .map_err(|e| malformed(shape_offset, e.to_string()))?;
    let ds = Dataset::new(matrix, columns).map_err(|e| malformed(shape_offset, e.to_string()))?;
    if !layout.has_ids {
        return Ok(ds);
    }
    let ids = words(layout.has_ids_at + 1..layout.cells_at)
        .map(|w| u64::from_le_bytes(*w))
        .collect();
    ds.with_ids(ids)
        .map_err(|e| malformed(shape_offset, e.to_string()))
}

/// A client request, one per frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Register (or replace) `tenant`'s sealed key file.
    LoadKey {
        /// Tenant identifier.
        tenant: String,
        /// The sealed `RBTS` key bytes, exactly as persisted on disk.
        key_bytes: Vec<u8>,
    },
    /// Transform a batch under `tenant`'s fitted session.
    Transform {
        /// Tenant identifier.
        tenant: String,
        /// The out-of-sample batch.
        batch: Dataset,
    },
    /// Owner-side inverse of a released batch.
    Invert {
        /// Tenant identifier.
        tenant: String,
        /// A previously released batch.
        batch: Dataset,
    },
    /// Server and per-tenant counters.
    Stats,
    /// Drop a tenant entirely.
    EvictTenant {
        /// Tenant identifier.
        tenant: String,
    },
    /// Liveness check.
    Ping,
    /// Re-scan the server's key directory into the registry (hot reload).
    /// Served only when the server was started with a key store.
    ReloadKeys,
    /// A clean goodbye: the client is closing this connection and expects
    /// no response. Replaces the bare RST a dropped socket would send.
    Goodbye,
    /// Open a federated release session on the server's hub. The body is
    /// an encoded `rbt_protocol::FederationConfig` — self-checksummed by
    /// the protocol codec and opaque to the framing layer.
    FedOpen {
        /// Encoded `FederationConfig` (protocol-layer codec).
        config: Vec<u8>,
    },
    /// Deliver one owner's outbound federation messages and drain that
    /// owner's mailbox in return. Each element is one encoded,
    /// CRC-trailed `rbt_protocol::Message`, opaque to the framing layer.
    FedMsg {
        /// Federation session id.
        session: u64,
        /// The calling owner's index within the session.
        owner: u16,
        /// Encoded protocol messages, owner → hub.
        messages: Vec<Vec<u8>>,
    },
    /// Poll a federated session for its joint clustering summary.
    FedResult {
        /// Federation session id.
        session: u64,
    },
    /// Close a federated session, dropping all its hub-side state.
    FedClose {
        /// Federation session id.
        session: u64,
    },
}

/// Encodes a `Transform` or `Invert` request (`opcode`) of `tenant`'s
/// `batch` as one whole frame tagged `request_id` into `buf`, replacing
/// what it held. This is the one encoder of a batch request:
/// [`Request::encode_into`] calls it, and the client calls it on the
/// caller's borrowed batch, so the rows are copied once, into the frame.
pub(crate) fn encode_batch_request(
    buf: &mut Vec<u8>,
    opcode: Opcode,
    request_id: u64,
    tenant: &str,
    batch: &Dataset,
) {
    let body_len = 4 + tenant.len() + encoded_dataset_len(batch);
    encode_with(buf, opcode, request_id, body_len, |w| {
        w.put_str(tenant);
        encode_dataset(w, batch);
    });
}

/// Encodes a list of opaque protocol-message blobs.
fn encode_blobs(w: &mut ByteWriter, blobs: &[Vec<u8>]) {
    w.put_u32(blobs.len() as u32);
    for blob in blobs {
        w.put_blob(blob);
    }
}

/// Decodes a list of opaque protocol-message blobs.
fn decode_blobs(r: &mut ByteReader<'_>) -> WireResult<Vec<Vec<u8>>> {
    let count = r.take_u32()? as usize;
    // Each blob costs at least its 8-byte length prefix.
    r.check_count(count, 8)?;
    let mut blobs = Vec::with_capacity(count);
    for _ in 0..count {
        blobs.push(r.take_blob()?.to_vec());
    }
    Ok(blobs)
}

impl Request {
    /// The opcode this request travels under.
    pub fn opcode(&self) -> Opcode {
        match self {
            Request::LoadKey { .. } => Opcode::LoadKey,
            Request::Transform { .. } => Opcode::Transform,
            Request::Invert { .. } => Opcode::Invert,
            Request::Stats => Opcode::Stats,
            Request::EvictTenant { .. } => Opcode::EvictTenant,
            Request::Ping => Opcode::Ping,
            Request::ReloadKeys => Opcode::ReloadKeys,
            Request::Goodbye => Opcode::GoingAway,
            Request::FedOpen { .. } => Opcode::FedOpen,
            Request::FedMsg { .. } => Opcode::FedMsg,
            Request::FedResult { .. } => Opcode::FedResult,
            Request::FedClose { .. } => Opcode::FedClose,
        }
    }

    /// Encodes the request as one whole frame tagged `request_id` into
    /// `buf` (header, id, body and CRC-32 trailer, in one pass), replacing
    /// what it held. A buffer reused across requests of the same size
    /// allocates nothing.
    pub(crate) fn encode_into(&self, request_id: u64, buf: &mut Vec<u8>) {
        if let Request::Transform { tenant, batch } | Request::Invert { tenant, batch } = self {
            return encode_batch_request(buf, self.opcode(), request_id, tenant, batch);
        }
        let body_len = match self {
            Request::LoadKey { tenant, key_bytes } => 4 + tenant.len() + 8 + key_bytes.len(),
            _ => 0,
        };
        encode_with(buf, self.opcode(), request_id, body_len, |w| match self {
            Request::LoadKey { tenant, key_bytes } => {
                w.put_str(tenant);
                w.put_blob(key_bytes);
            }
            // Encoded by `encode_batch_request` above.
            Request::Transform { .. } | Request::Invert { .. } => {}
            Request::EvictTenant { tenant } => w.put_str(tenant),
            Request::FedOpen { config } => w.put_blob(config),
            Request::FedMsg {
                session,
                owner,
                messages,
            } => {
                w.put_u64(*session);
                w.put_u16(*owner);
                encode_blobs(w, messages);
            }
            Request::FedResult { session } | Request::FedClose { session } => w.put_u64(*session),
            Request::Stats | Request::Ping | Request::ReloadKeys | Request::Goodbye => {}
        });
    }

    /// Encodes the request into a frame (request id 0; use
    /// [`Frame::with_request_id`] to tag it).
    pub fn to_frame(&self) -> Frame {
        let mut buf = Vec::new();
        self.encode_into(0, &mut buf);
        Frame::from_encoded(buf, 0, self.opcode(), 0)
    }

    /// Decodes a request from a frame.
    ///
    /// # Errors
    ///
    /// Typed [`WireError`] when the body does not parse for the frame's
    /// opcode, or the opcode is response-only ([`Opcode::Error`],
    /// [`Opcode::Deadline`]).
    pub fn from_frame(frame: &Frame) -> WireResult<Request> {
        Request::from_view(frame.view())
    }

    /// [`Request::from_frame`] on a borrowed frame: a batch's rows are
    /// copied once, from the frame body into the batch matrix.
    pub(crate) fn from_view(frame: FrameView<'_>) -> WireResult<Request> {
        let mut r = ByteReader::new(frame.body());
        let req = match frame.opcode {
            Opcode::LoadKey => Request::LoadKey {
                tenant: r.take_str()?.to_string(),
                key_bytes: r.take_blob()?.to_vec(),
            },
            Opcode::Transform => Request::Transform {
                tenant: r.take_str()?.to_string(),
                batch: decode_dataset(&mut r)?,
            },
            Opcode::Invert => Request::Invert {
                tenant: r.take_str()?.to_string(),
                batch: decode_dataset(&mut r)?,
            },
            Opcode::Stats => Request::Stats,
            Opcode::EvictTenant => Request::EvictTenant {
                tenant: r.take_str()?.to_string(),
            },
            Opcode::Ping => Request::Ping,
            Opcode::ReloadKeys => Request::ReloadKeys,
            Opcode::GoingAway => Request::Goodbye,
            Opcode::FedOpen => Request::FedOpen {
                config: r.take_blob()?.to_vec(),
            },
            Opcode::FedMsg => Request::FedMsg {
                session: r.take_u64()?,
                owner: r.take_u16()?,
                messages: decode_blobs(&mut r)?,
            },
            Opcode::FedResult => Request::FedResult {
                session: r.take_u64()?,
            },
            Opcode::FedClose => Request::FedClose {
                session: r.take_u64()?,
            },
            Opcode::Deadline => {
                return Err(malformed(0, "Deadline frames are responses, not requests"))
            }
            Opcode::Error => return Err(malformed(0, "Error frames are responses, not requests")),
        };
        r.expect_end()?;
        Ok(req)
    }

    /// Whether [`Request::from_view`] decodes `frame` as a `FedMsg` that
    /// delivers no message — a mailbox poll — read off its body without
    /// decoding it: a session, an owner and a zero message count, and
    /// nothing after them.
    pub(crate) fn is_fed_poll(frame: FrameView<'_>) -> bool {
        const SESSION_AND_OWNER: usize = 8 + 2;
        let body = frame.body();
        frame.opcode == Opcode::FedMsg
            && body.len() == SESSION_AND_OWNER + 4
            && body[SESSION_AND_OWNER..] == [0; 4]
    }

    /// Whether a retry of this request is safe after a transport failure
    /// whose outcome is unknown. Transforms are pure given a loaded key,
    /// `LoadKey` overwrites with identical bytes, and the control requests
    /// are reads — excluded are `EvictTenant` and `FedClose` (whose
    /// `existed` answers change on replay), `Goodbye`, and the federation
    /// writes: a replayed `FedOpen` collides with the session it opened,
    /// and a replayed `FedMsg` double-delivers protocol messages, which
    /// the state machines reject as duplicates (poisoning the session).
    /// Only `FedResult`, a pure poll, is retry-safe in the family.
    pub fn is_idempotent(&self) -> bool {
        !matches!(
            self,
            Request::EvictTenant { .. }
                | Request::Goodbye
                | Request::FedOpen { .. }
                | Request::FedMsg { .. }
                | Request::FedClose { .. }
        )
    }
}

/// A server response, one per frame. Success responses reuse the opcode of
/// the request they answer and echo its request id; failures use
/// [`Opcode::Error`] or [`Opcode::Deadline`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The key decoded and the session is registered.
    Loaded {
        /// The release method the key encodes (`rbt`, `noise`, …).
        method: String,
        /// Attribute count the session was fitted on.
        n_attributes: u64,
    },
    /// A transformed batch.
    Transformed {
        /// The released (transformed) batch, IDs suppressed.
        released: Dataset,
        /// Rows of the request batch that fell outside the fitted
        /// normalization range (drift).
        out_of_range_rows: u64,
    },
    /// A recovered batch.
    Inverted {
        /// The owner-side recovered batch.
        recovered: Dataset,
    },
    /// Server and per-tenant counters.
    Stats(ServerStats),
    /// Tenant eviction outcome.
    Evicted {
        /// Whether the tenant existed.
        existed: bool,
    },
    /// Liveness reply.
    Pong,
    /// Key-directory hot-reload outcome.
    Reloaded {
        /// Tenants (re)registered from the key directory.
        loaded: u64,
        /// Corrupt entries moved to quarantine instead of being served.
        quarantined: u64,
    },
    /// The server is draining: this is the last frame on the connection.
    /// Every request read before the drain began has been answered;
    /// anything unanswered should be retried against a fresh connection.
    GoingAway {
        /// Human-readable reason (e.g. "shutting down").
        message: String,
    },
    /// The request was shed because it waited past its per-opcode
    /// deadline before the server could start it.
    Deadline {
        /// How long the request had waited, in milliseconds.
        waited_ms: u64,
        /// The per-opcode budget it exceeded, in milliseconds.
        budget_ms: u64,
    },
    /// A federated session was opened on the hub.
    FedOpened {
        /// The session id now hosted.
        session: u64,
    },
    /// The calling owner's drained mailbox: encoded `rbt_protocol`
    /// messages, hub → owner.
    FedMsgs {
        /// Encoded protocol messages, opaque to the framing layer.
        messages: Vec<Vec<u8>>,
    },
    /// Outcome of a federated result poll.
    FedSummary {
        /// The encoded `JointDataset` protocol message once the session's
        /// receiver has completed; `None` while rounds are in flight.
        summary: Option<Vec<u8>>,
    },
    /// Outcome of a federated session close.
    FedClosed {
        /// Whether the session existed.
        existed: bool,
    },
    /// The request failed.
    Error {
        /// Error family, matching the CLI exit-code taxonomy (2 usage,
        /// 3 data, 4 codec/wire, 5 shape, 6 threshold, 7 capability,
        /// 8 unavailable — the server refused the connection or request
        /// because it is at capacity or draining).
        code: u8,
        /// Human-readable detail.
        message: String,
    },
}

/// The `Error` code family for "server at capacity / draining" refusals.
pub const CODE_UNAVAILABLE: u8 = 8;

impl Response {
    /// The opcode this response travels under.
    pub fn opcode(&self) -> Opcode {
        match self {
            Response::Loaded { .. } => Opcode::LoadKey,
            Response::Transformed { .. } => Opcode::Transform,
            Response::Inverted { .. } => Opcode::Invert,
            Response::Stats(_) => Opcode::Stats,
            Response::Evicted { .. } => Opcode::EvictTenant,
            Response::Pong => Opcode::Ping,
            Response::Reloaded { .. } => Opcode::ReloadKeys,
            Response::GoingAway { .. } => Opcode::GoingAway,
            Response::Deadline { .. } => Opcode::Deadline,
            Response::FedOpened { .. } => Opcode::FedOpen,
            Response::FedMsgs { .. } => Opcode::FedMsg,
            Response::FedSummary { .. } => Opcode::FedResult,
            Response::FedClosed { .. } => Opcode::FedClose,
            Response::Error { .. } => Opcode::Error,
        }
    }

    /// Encodes the response as one whole frame echoing `request_id` into
    /// `buf` (header, id, body and CRC-32 trailer, in one pass), replacing
    /// what it held: a released batch's rows are copied once, from its
    /// matrix into the frame. A buffer reused across responses of the
    /// same size allocates nothing.
    pub(crate) fn encode_into(&self, request_id: u64, buf: &mut Vec<u8>) {
        let body_len = match self {
            Response::Transformed { released, .. } => encoded_dataset_len(released) + 8,
            Response::Inverted { recovered } => encoded_dataset_len(recovered),
            _ => 0,
        };
        encode_with(buf, self.opcode(), request_id, body_len, |w| match self {
            Response::Loaded {
                method,
                n_attributes,
            } => {
                w.put_str(method);
                w.put_u64(*n_attributes);
            }
            Response::Transformed {
                released,
                out_of_range_rows,
            } => {
                encode_dataset(w, released);
                w.put_u64(*out_of_range_rows);
            }
            Response::Inverted { recovered } => encode_dataset(w, recovered),
            Response::Stats(stats) => stats.encode_into(w),
            Response::Evicted { existed } => w.put_bool(*existed),
            Response::Pong => {}
            Response::Reloaded {
                loaded,
                quarantined,
            } => {
                w.put_u64(*loaded);
                w.put_u64(*quarantined);
            }
            Response::GoingAway { message } => w.put_str(message),
            Response::Deadline {
                waited_ms,
                budget_ms,
            } => {
                w.put_u64(*waited_ms);
                w.put_u64(*budget_ms);
            }
            Response::FedOpened { session } => w.put_u64(*session),
            Response::FedMsgs { messages } => encode_blobs(w, messages),
            Response::FedSummary { summary } => {
                w.put_bool(summary.is_some());
                if let Some(bytes) = summary {
                    w.put_blob(bytes);
                }
            }
            Response::FedClosed { existed } => w.put_bool(*existed),
            Response::Error { code, message } => {
                w.put_u8(*code);
                w.put_str(message);
            }
        });
    }

    /// Encodes the response into a frame (request id 0; use
    /// [`Frame::with_request_id`] to echo the request's id).
    pub fn to_frame(&self) -> Frame {
        let mut buf = Vec::new();
        self.encode_into(0, &mut buf);
        Frame::from_encoded(buf, 0, self.opcode(), 0)
    }

    /// Decodes a response from a frame.
    ///
    /// # Errors
    ///
    /// Typed [`WireError`] when the body does not parse for the frame's
    /// opcode.
    pub fn from_frame(frame: &Frame) -> WireResult<Response> {
        let mut r = ByteReader::new(frame.body());
        let resp = match frame.opcode {
            Opcode::LoadKey => Response::Loaded {
                method: r.take_str()?.to_string(),
                n_attributes: r.take_u64()?,
            },
            Opcode::Transform => Response::Transformed {
                released: decode_dataset(&mut r)?,
                out_of_range_rows: r.take_u64()?,
            },
            Opcode::Invert => Response::Inverted {
                recovered: decode_dataset(&mut r)?,
            },
            Opcode::Stats => Response::Stats(ServerStats::decode_from(&mut r)?),
            Opcode::EvictTenant => Response::Evicted {
                existed: r.take_bool()?,
            },
            Opcode::Ping => Response::Pong,
            Opcode::ReloadKeys => Response::Reloaded {
                loaded: r.take_u64()?,
                quarantined: r.take_u64()?,
            },
            Opcode::GoingAway => Response::GoingAway {
                message: r.take_str()?.to_string(),
            },
            Opcode::Deadline => Response::Deadline {
                waited_ms: r.take_u64()?,
                budget_ms: r.take_u64()?,
            },
            Opcode::FedOpen => Response::FedOpened {
                session: r.take_u64()?,
            },
            Opcode::FedMsg => Response::FedMsgs {
                messages: decode_blobs(&mut r)?,
            },
            Opcode::FedResult => Response::FedSummary {
                summary: if r.take_bool()? {
                    Some(r.take_blob()?.to_vec())
                } else {
                    None
                },
            },
            Opcode::FedClose => Response::FedClosed {
                existed: r.take_bool()?,
            },
            Opcode::Error => Response::Error {
                code: r.take_u8()?,
                message: r.take_str()?.to_string(),
            },
        };
        r.expect_end()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_dataset(rows: usize, with_ids: bool) -> Dataset {
        let cols = 3;
        let data: Vec<f64> = (0..rows * cols).map(|i| (i as f64) * 1.25 - 7.0).collect();
        let m = Matrix::from_vec(rows, cols, data).unwrap();
        let ds = Dataset::new(
            m,
            vec![
                "age".to_string(),
                "weight".to_string(),
                "h_rate".to_string(),
            ],
        )
        .unwrap();
        if with_ids {
            ds.with_ids((0..rows as u64).map(|i| 9000 + i).collect())
                .unwrap()
        } else {
            ds
        }
    }

    fn assert_datasets_bitwise(a: &Dataset, b: &Dataset) {
        assert_eq!(a.columns(), b.columns());
        assert_eq!(a.ids(), b.ids());
        assert_eq!(a.n_rows(), b.n_rows());
        assert_eq!(a.n_cols(), b.n_cols());
        let (xs, ys) = (a.matrix().as_slice(), b.matrix().as_slice());
        assert_eq!(xs.len(), ys.len());
        for (x, y) in xs.iter().zip(ys) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn assembler_yields_frames_from_single_byte_chunks() {
        let frames = [
            Request::Ping.to_frame().with_request_id(1),
            Request::Stats.to_frame().with_request_id(2),
            Request::Transform {
                tenant: "t".to_string(),
                batch: sample_dataset(3, true),
            }
            .to_frame()
            .with_request_id(3),
        ];
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend_from_slice(&encode_frame(f));
        }
        let mut asm = FrameAssembler::new();
        let mut out = Vec::new();
        for b in bytes {
            asm.push(&[b]);
            while let Some(res) = asm.next_frame() {
                out.push(res.unwrap());
            }
        }
        assert_eq!(out, frames);
        assert!(!asm.mid_frame(), "all bytes must be consumed");
    }

    #[test]
    fn assembler_splits_multi_frame_chunks_and_tracks_mid_frame() {
        let a = encode_frame(&Request::Ping.to_frame().with_request_id(7));
        let b = encode_frame(&Request::Stats.to_frame().with_request_id(8));
        let mut chunk = a.clone();
        chunk.extend_from_slice(&b[..5]); // one whole frame + a partial header
        let mut asm = FrameAssembler::new();
        asm.push(&chunk);
        assert!(matches!(asm.next_frame(), Some(Ok(f)) if f.request_id == 7));
        assert!(asm.next_frame().is_none());
        assert!(asm.mid_frame(), "partial second frame is pending");
        asm.push(&b[5..]);
        assert!(matches!(asm.next_frame(), Some(Ok(f)) if f.request_id == 8));
        assert!(!asm.mid_frame());
    }

    #[test]
    fn assembler_distinguishes_partial_tails_from_unextracted_frames() {
        let a = encode_frame(&Request::Ping.to_frame().with_request_id(1));
        let b = encode_frame(&Request::Stats.to_frame().with_request_id(2));

        // Empty: neither pending nor partial.
        let mut asm = FrameAssembler::new();
        assert!(!asm.frame_ready());
        assert!(!asm.partial_frame());

        // A complete-but-unextracted frame is *ready*, not partial: a
        // peer held back only by the caller's window owes nothing.
        asm.push(&a);
        assert!(asm.mid_frame());
        assert!(asm.frame_ready());
        assert!(!asm.partial_frame());

        // Two complete frames plus a torn tail: still ready (the front
        // frame is extractable), still not partial.
        asm.push(&b);
        asm.push(&a[..5]);
        assert!(asm.frame_ready());
        assert!(!asm.partial_frame());

        // Drain the complete frames: only the torn tail remains, which
        // the peer does owe bytes for.
        assert!(matches!(asm.next_frame(), Some(Ok(f)) if f.request_id == 1));
        assert!(matches!(asm.next_frame(), Some(Ok(f)) if f.request_id == 2));
        assert!(asm.next_frame().is_none());
        assert!(asm.mid_frame());
        assert!(!asm.frame_ready());
        assert!(asm.partial_frame(), "a torn tail is a genuine partial");

        // A full header declaring an unfinished body is also partial.
        let mut asm = FrameAssembler::new();
        asm.push(&a[..HEADER_LEN + 1]);
        assert!(!asm.frame_ready());
        assert!(asm.partial_frame());

        // Undecodable header bytes are *ready* — next_frame() yields the
        // typed error without more input, so the peer is not stalled.
        let mut bad = a.clone();
        bad[0] = b'X';
        let mut asm = FrameAssembler::new();
        asm.push(&bad);
        assert!(asm.frame_ready());
        assert!(!asm.partial_frame());
    }

    #[test]
    fn drained_assembler_gives_back_a_large_buffer() {
        // A 6 MiB `Transform` read the daemon's way, then drained until
        // nothing is pending: the buffer that held it goes back.
        let big = encode_frame(
            &Request::Transform {
                tenant: "t".to_string(),
                batch: sample_dataset(256 * 1024, false),
            }
            .to_frame()
            .with_request_id(5),
        );
        assert!(big.len() > 6 * 1024 * 1024);
        let mut asm = FrameAssembler::new();
        let mut src = &big[..];
        while !asm.frame_ready() {
            asm.read_from(&mut src).unwrap();
        }
        assert!(asm.buf.capacity() >= big.len());
        assert!(matches!(asm.next_view(), Some(Ok(v)) if v.request_id == 5));
        assert!(asm.next_view().is_none());
        assert!(
            asm.buf.capacity() <= FREE_FRAME_MAX,
            "{} bytes kept",
            asm.buf.capacity()
        );
        // The next small frame still decodes.
        asm.push(&encode_frame(&Request::Ping.to_frame().with_request_id(6)));
        assert!(matches!(asm.next_frame(), Some(Ok(f)) if f.request_id == 6));
        assert!(!asm.mid_frame());
    }

    #[test]
    fn assembler_reports_header_and_checksum_errors() {
        // Bad magic.
        let mut bytes = encode_frame(&Request::Ping.to_frame());
        bytes[0] = b'X';
        let mut asm = FrameAssembler::new();
        asm.push(&bytes);
        assert!(matches!(
            asm.next_frame(),
            Some(Err(WireError::BadMagic { .. }))
        ));

        // Oversized declared length, detected from the header alone.
        let mut bytes = encode_frame(&Request::Ping.to_frame());
        bytes[7..11].copy_from_slice(&(MAX_BODY_LEN + 1).to_le_bytes());
        let mut asm = FrameAssembler::new();
        asm.push(&bytes[..HEADER_LEN]);
        assert!(matches!(
            asm.next_frame(),
            Some(Err(WireError::Oversized { .. }))
        ));

        // Flipped body byte: checksum mismatch, bytes not consumed.
        let mut bytes = encode_frame(&Request::Ping.to_frame());
        let flip_at = HEADER_LEN + 2;
        bytes[flip_at] ^= 0x40;
        let mut asm = FrameAssembler::new();
        asm.push(&bytes);
        assert!(matches!(
            asm.next_frame(),
            Some(Err(WireError::ChecksumMismatch { .. }))
        ));
        assert!(asm.mid_frame(), "desynchronized bytes stay pending");
    }

    #[test]
    fn assembler_survives_version_skew_between_frames() {
        // A CRC-valid frame tagged with a future version must be consumed
        // whole so the following frame still parses — the reactor-side
        // mirror of the `read_frame` version-skew contract.
        let mut skewed = encode_frame(&Request::Stats.to_frame().with_request_id(22));
        skewed[4..6].copy_from_slice(&9u16.to_le_bytes());
        let crc_at = skewed.len() - TRAILER_LEN;
        let crc = crc32(&skewed[..crc_at]);
        skewed[crc_at..].copy_from_slice(&crc.to_le_bytes());

        let mut bytes = encode_frame(&Request::Ping.to_frame().with_request_id(21));
        bytes.extend_from_slice(&skewed);
        bytes.extend_from_slice(&encode_frame(&Request::Ping.to_frame().with_request_id(23)));

        let mut asm = FrameAssembler::new();
        asm.push(&bytes);
        assert!(matches!(asm.next_frame(), Some(Ok(f)) if f.request_id == 21));
        assert!(matches!(
            asm.next_frame(),
            Some(Err(WireError::UnsupportedVersion { found: 9 }))
        ));
        assert!(matches!(asm.next_frame(), Some(Ok(f)) if f.request_id == 23));
        assert!(asm.next_frame().is_none());
        assert!(!asm.mid_frame());
    }

    /// A large request and response frame with their encoded size and CRC
    /// trailer, both read with the bytewise table CRC-32. The frames are
    /// long enough to take the shim's folded path where the CPU has it.
    fn golden_frames() -> [(Frame, usize, u32); 2] {
        [
            (
                Request::Transform {
                    tenant: "t".to_string(),
                    batch: sample_dataset(1000, true),
                }
                .to_frame()
                .with_request_id(77),
                32_072,
                0xDA81_CAB6,
            ),
            (
                Response::Transformed {
                    released: sample_dataset(1000, false),
                    out_of_range_rows: 3,
                }
                .to_frame()
                .with_request_id(77),
                24_075,
                0xF875_B894,
            ),
        ]
    }

    #[test]
    fn large_frames_keep_their_golden_bytes() {
        for (frame, len, crc) in golden_frames() {
            let bytes = encode_frame(&frame);
            assert_eq!(bytes.len(), len, "{:?} frame size", frame.opcode);
            let trailer = u32::from_le_bytes(bytes[len - TRAILER_LEN..].try_into().unwrap());
            assert_eq!(trailer, crc, "{:?} frame CRC", frame.opcode);
        }
    }

    /// The frames the daemon's reader extracts from `bytes`, read off a
    /// socket that delivers everything at once.
    fn read_requests(bytes: &[u8]) -> Vec<Frame> {
        let mut asm = FrameAssembler::new();
        let mut src = bytes;
        let mut frames = Vec::new();
        while asm.read_from(&mut src).unwrap() > 0 {
            while let Some(next) = asm.next_request(Vec::new) {
                frames.push(next.unwrap());
            }
        }
        assert!(!asm.mid_frame());
        frames
    }

    /// A batch request frame of `batch` for a non-ASCII tenant.
    fn batch_frame(opcode: Opcode, batch: &Dataset) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_batch_request(&mut bytes, opcode, 77, "tenant-ü", batch);
        bytes
    }

    /// A batch whose every cell was mapped by [`scale`], its IDs dropped
    /// when `drop_ids`.
    fn scaled(batch: &Dataset, drop_ids: bool) -> Dataset {
        let mut out = batch.clone();
        out.matrix_mut().as_mut_slice().iter_mut().for_each(scale);
        if drop_ids {
            out.take_ids();
        }
        out
    }

    fn scale(v: &mut f64) {
        *v = *v * -0.75 + 1.0;
    }

    #[test]
    fn batch_answers_rewritten_in_place_are_the_encoded_answers() {
        // Empty, small and large batches, and rows wider than a kernel's
        // stack block.
        let wide = Dataset::from_matrix(
            Matrix::from_vec(2, 5000, (0..10_000).map(|i| i as f64 / 7.0).collect()).unwrap(),
        );
        let batches = [
            sample_dataset(0, false),
            sample_dataset(0, true),
            sample_dataset(1, true),
            sample_dataset(5, false),
            sample_dataset(2000, true),
            wide.clone(),
            wide.with_ids(vec![4, 2]).unwrap(),
        ];
        for batch in &batches {
            for opcode in [Opcode::Transform, Opcode::Invert] {
                for drop_ids in [false, true] {
                    let what = format!(
                        "{opcode:?} of {}x{} (ids: {}, drop: {drop_ids})",
                        batch.n_rows(),
                        batch.n_cols(),
                        batch.ids().is_some()
                    );
                    let [frame] = read_requests(&batch_frame(opcode, batch))
                        .try_into()
                        .unwrap();
                    let capacity = frame.bytes.capacity();
                    let mut request = BatchRequest::parse(frame).unwrap();
                    assert_eq!(request.tenant(), "tenant-ü");
                    let cols = batch.n_cols();
                    let cells = request.cells();
                    assert_eq!(cells.len() % cols, 0, "{what}: whole rows");
                    assert_eq!(cells.len() / cols, batch.n_rows(), "{what}: every row once");
                    for cell in cells {
                        let mut v = f64::from_le_bytes(*cell);
                        scale(&mut v);
                        *cell = v.to_le_bytes();
                    }
                    let (answer, response) = if opcode == Opcode::Transform {
                        let response = Response::Transformed {
                            released: scaled(batch, drop_ids),
                            out_of_range_rows: 3,
                        };
                        (request.into_transformed(drop_ids, 3), response)
                    } else {
                        let recovered = scaled(batch, false);
                        (request.into_inverted(), Response::Inverted { recovered })
                    };
                    let mut expected = Vec::new();
                    response.encode_into(77, &mut expected);
                    assert_eq!(answer.as_bytes(), &expected[..], "{what}");
                    assert_eq!(answer.bytes.capacity(), capacity, "{what}: reallocated");
                }
            }
        }
    }

    #[test]
    fn only_a_frame_of_a_read_or_more_takes_the_buffer_it_ends() {
        let small = batch_frame(Opcode::Transform, &sample_dataset(3, true));
        let large = batch_frame(Opcode::Invert, &sample_dataset(4000, false));
        let ping = encode_frame(&Request::Ping.to_frame().with_request_id(9));
        assert!(large.len() > MIN_READ);
        // A socket that delivers both small frames at once, then the large
        // one, then a small one, then a ping: the first small frame shares
        // its read with the second, which ends that read, as do the last
        // small frame and the ping; the large frame's last read ends at its
        // end. Only the large frame takes the buffer: a smaller one is
        // copied even when it ends its read.
        let mut asm = FrameAssembler::new();
        let mut fresh_buffers = 0;
        let mut owned = Vec::new();
        for chunk in [
            [&small[..], &small[..]].concat(),
            large.clone(),
            small.clone(),
            ping.clone(),
        ] {
            let mut src = &chunk[..];
            while asm.read_from(&mut src).unwrap() > 0 {
                while let Some(Ok(frame)) = asm.next_request(|| {
                    fresh_buffers += 1;
                    vec![1, 2, 3]
                }) {
                    owned.push(frame);
                }
            }
        }
        let starts: Vec<_> = owned.iter().map(|f| f.start).collect();
        assert_eq!(fresh_buffers, 1, "starts {starts:?}");
        assert_eq!(starts, [0; 5]);
        for (frame, bytes) in owned.iter().zip([&small, &small, &large, &small, &ping]) {
            assert_eq!(frame.as_bytes(), &bytes[..]);
            assert_eq!(frame.bytes.capacity() - frame.bytes.len(), DRIFT_LEN);
        }
        assert!(owned[2].bytes.capacity() >= MIN_READ + DRIFT_LEN);
        assert!(!asm.mid_frame());

        // Errors are the view path's: a version-skewed batch frame is
        // consumed.
        let mut skewed = small.clone();
        skewed[4..6].copy_from_slice(&9u16.to_le_bytes());
        let crc_at = skewed.len() - TRAILER_LEN;
        let crc = crc32(&skewed[..crc_at]);
        skewed[crc_at..].copy_from_slice(&crc.to_le_bytes());
        let mut asm = FrameAssembler::new();
        asm.push(&ping);
        asm.push(&skewed);
        asm.push(&small);
        assert!(matches!(
            asm.next_request(Vec::new),
            Some(Ok(frame)) if frame.request_id == 9 && frame.opcode == Opcode::Ping
        ));
        assert!(matches!(
            asm.next_request(Vec::new),
            Some(Err(WireError::UnsupportedVersion { found: 9 }))
        ));
        assert!(matches!(
            asm.next_request(Vec::new),
            Some(Ok(frame)) if frame.as_bytes() == &small[..]
        ));
        assert!(asm.next_request(Vec::new).is_none());
    }

    #[test]
    fn batch_parse_refuses_exactly_what_decoding_refuses() {
        let valid = {
            let mut w = ByteWriter::new();
            w.put_str("t");
            encode_dataset(&mut w, &sample_dataset(3, true));
            w.into_bytes()
        };
        let mut bodies: Vec<Vec<u8>> = (0..valid.len()).map(|len| valid[..len].to_vec()).collect();
        bodies.push([&valid[..], &[0]].concat());
        for at in 0..valid.len() {
            for flip in [0x01, 0x80, 0xFF] {
                let mut body = valid.clone();
                body[at] ^= flip;
                bodies.push(body);
            }
        }
        let mut refused = 0;
        for body in bodies {
            let frame = Frame::new(Opcode::Transform, body.clone()).with_request_id(1);
            let [owned] = read_requests(&encode_frame(&frame)).try_into().unwrap();
            let decoded = Request::from_view(owned.view());
            match BatchRequest::parse(owned) {
                Ok(request) => {
                    let Ok(Request::Transform { tenant, batch }) = decoded else {
                        panic!("parsed what decoding refuses: {body:?}");
                    };
                    assert_eq!(request.tenant(), tenant);
                    assert_eq!(request.n_rows(), batch.n_rows());
                    assert_eq!(request.n_cols(), batch.n_cols());
                }
                Err(owned) => {
                    assert!(decoded.is_err(), "refused what decodes: {body:?}");
                    assert_eq!(owned.body(), &body[..], "handed back as it was");
                    refused += 1;
                }
            }
        }
        assert!(refused > valid.len());
    }

    #[test]
    fn a_fed_poll_is_what_decodes_as_a_fed_msg_delivering_nothing() {
        let mut bodies = Vec::new();
        for count in 0..=3u8 {
            let request = Request::FedMsg {
                session: 0x0102_0304_0506_0708,
                owner: 3,
                messages: (0..count).map(|i| vec![i; usize::from(i)]).collect(),
            };
            let frame = request.to_frame();
            let valid = frame.body();
            bodies.extend((0..=valid.len()).map(|len| valid[..len].to_vec()));
            bodies.push([valid, &[0]].concat());
        }
        let mut polls = 0;
        for body in bodies {
            let frame = Frame::new(Opcode::FedMsg, body.clone());
            let decodes_as_poll = matches!(
                Request::from_view(frame.view()),
                Ok(Request::FedMsg { messages, .. }) if messages.is_empty()
            );
            assert_eq!(
                Request::is_fed_poll(frame.view()),
                decodes_as_poll,
                "{body:?}"
            );
            polls += usize::from(decodes_as_poll);
        }
        assert_eq!(polls, 1, "only the whole zero-count body is a poll");
        // The opcode counts too.
        let stats = Frame::new(Opcode::Stats, vec![0; 14]);
        assert!(!Request::is_fed_poll(stats.view()));
    }

    /// A non-blocking socket that delivers at most `chunk` bytes per
    /// readiness: one short read, then `WouldBlock`, then the next chunk;
    /// end of stream once its bytes run out.
    struct Trickle<'a> {
        bytes: &'a [u8],
        chunk: usize,
        ready: bool,
    }

    impl<'a> Trickle<'a> {
        fn new(bytes: &'a [u8], chunk: usize) -> Self {
            Trickle {
                bytes,
                chunk,
                ready: true,
            }
        }
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !self.ready && !self.bytes.is_empty() {
                self.ready = true;
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.chunk).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            self.ready = false;
            Ok(n)
        }
    }

    /// Everything the assembler yields for `bytes` fed through its socket
    /// path at `chunk` bytes per read, up to end of stream or the first
    /// error after which the stream is desynchronized.
    fn assemble_by_reads(bytes: &[u8], chunk: usize) -> Vec<WireResult<Frame>> {
        let mut src = Trickle::new(bytes, chunk);
        let mut asm = FrameAssembler::new();
        let mut out = Vec::new();
        loop {
            match asm.read_from(&mut src) {
                Ok(0) => return out,
                Ok(n) => assert!(n <= chunk, "{n} bytes from a {chunk}-byte read"),
                Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock),
            }
            while let Some(result) = asm.next_frame() {
                let fatal = matches!(
                    result,
                    Err(ref e) if !matches!(e, WireError::UnsupportedVersion { .. })
                );
                out.push(result);
                if fatal {
                    return out;
                }
            }
        }
    }

    /// The read sizes the socket-path feeders use.
    const READ_SIZES: [usize; 4] = [1, 7, 4096, 65_537];

    #[test]
    fn assembler_matches_decode_frame_on_every_request() {
        let small = [Request::Ping, Request::Stats, Request::ReloadKeys]
            .map(|req| req.to_frame().with_request_id(42));
        let large = golden_frames().map(|(frame, _, _)| frame);
        for frame in small.into_iter().chain(large) {
            let bytes = encode_frame(&frame);
            // Fed in 16 KiB chunks, as the reactor reads a socket.
            let mut asm = FrameAssembler::new();
            let mut from_asm = None;
            for chunk in bytes.chunks(16 * 1024) {
                assert!(
                    from_asm.is_none(),
                    "a frame completed before its last chunk"
                );
                asm.push(chunk);
                from_asm = asm.next_frame().map(Result::unwrap);
            }
            let from_asm = from_asm.expect("the last chunk completes the frame");
            assert!(!asm.mid_frame());
            let from_decode = decode_frame(&bytes).unwrap();
            let from_read = read_frame(&mut std::io::Cursor::new(&bytes))
                .unwrap()
                .unwrap();
            assert_eq!(from_asm, from_decode);
            assert_eq!(from_read, from_decode);
            assert_eq!(from_decode, frame);
            // And read off a socket, whatever the read size.
            for chunk in READ_SIZES {
                assert_eq!(
                    assemble_by_reads(&bytes, chunk),
                    [Ok(from_decode.clone())],
                    "{chunk}-byte reads"
                );
            }
        }
    }

    #[test]
    fn socket_reads_yield_what_decode_frame_does_at_every_read_size() {
        let [(request, _, _), (response, _, _)] = golden_frames();
        let mut skewed = encode_frame(&Request::Stats.to_frame().with_request_id(22));
        skewed[4..6].copy_from_slice(&9u16.to_le_bytes());
        let crc_at = skewed.len() - TRAILER_LEN;
        let crc = crc32(&skewed[..crc_at]);
        skewed[crc_at..].copy_from_slice(&crc.to_le_bytes());
        let mut corrupt = encode_frame(&Request::Ping.to_frame().with_request_id(24));
        corrupt[HEADER_LEN + 2] ^= 0x40;
        let frames = [
            encode_frame(&request),
            skewed,
            encode_frame(&response),
            corrupt,
        ];
        let expected: Vec<WireResult<Frame>> = frames.iter().map(|f| decode_frame(f)).collect();
        assert!(matches!(
            expected[1],
            Err(WireError::UnsupportedVersion { found: 9 })
        ));
        assert!(matches!(
            expected[3],
            Err(WireError::ChecksumMismatch { .. })
        ));
        let stream = frames.concat();
        for chunk in READ_SIZES {
            assert_eq!(
                assemble_by_reads(&stream, chunk),
                expected,
                "{chunk}-byte reads"
            );
        }
    }

    #[test]
    fn encode_into_writes_the_owned_frame_bytes() {
        let requests = [
            Request::LoadKey {
                tenant: "hospital-a".to_string(),
                key_bytes: vec![0, 1, 2, 254, 255],
            },
            Request::Transform {
                tenant: "t".to_string(),
                batch: sample_dataset(0, false),
            },
            Request::Transform {
                tenant: "t".to_string(),
                batch: sample_dataset(1, true),
            },
            Request::Invert {
                tenant: "naïve-tenant".to_string(),
                batch: sample_dataset(1, false),
            },
            Request::Invert {
                tenant: "u".to_string(),
                batch: sample_dataset(0, true),
            },
            Request::Stats,
            Request::EvictTenant {
                tenant: "x".to_string(),
            },
            Request::Ping,
            Request::ReloadKeys,
            Request::Goodbye,
            Request::FedOpen {
                config: vec![9, 8, 7],
            },
            Request::FedMsg {
                session: 7,
                owner: 3,
                messages: vec![vec![1, 2, 3], Vec::new()],
            },
            Request::FedResult { session: 1 },
            Request::FedClose { session: 2 },
        ];
        let responses = [
            Response::Loaded {
                method: "rbt".to_string(),
                n_attributes: 7,
            },
            Response::Transformed {
                released: sample_dataset(0, true),
                out_of_range_rows: 0,
            },
            Response::Transformed {
                released: sample_dataset(1, false),
                out_of_range_rows: 1,
            },
            Response::Inverted {
                recovered: sample_dataset(1, true),
            },
            Response::Inverted {
                recovered: sample_dataset(0, false),
            },
            Response::Stats(ServerStats::sample_for_tests()),
            Response::Evicted { existed: true },
            Response::Pong,
            Response::Reloaded {
                loaded: 5,
                quarantined: 2,
            },
            Response::GoingAway {
                message: "shutting down".to_string(),
            },
            Response::Deadline {
                waited_ms: 5200,
                budget_ms: 5000,
            },
            Response::FedOpened { session: 77 },
            Response::FedMsgs {
                messages: vec![Vec::new(), vec![42; 9]],
            },
            Response::FedSummary { summary: None },
            Response::FedSummary {
                summary: Some(vec![0, 1, 2, 3]),
            },
            Response::FedClosed { existed: false },
            Response::Error {
                code: 4,
                message: "checksum mismatch".to_string(),
            },
        ];
        // A buffer that last held a longer frame: the golden request.
        let longer = encode_frame(&golden_frames()[0].0);
        for id in [0u64, 9, u64::MAX] {
            for req in &requests {
                let owned = encode_frame(&req.to_frame().with_request_id(id));
                let (mut fresh, mut reused) = (Vec::new(), longer.clone());
                req.encode_into(id, &mut fresh);
                req.encode_into(id, &mut reused);
                assert_eq!(fresh, owned, "{req:?}");
                assert_eq!(reused, owned, "{req:?} into a used buffer");
            }
            for resp in &responses {
                let owned = encode_frame(&resp.to_frame().with_request_id(id));
                let (mut fresh, mut reused) = (Vec::new(), longer.clone());
                resp.encode_into(id, &mut fresh);
                resp.encode_into(id, &mut reused);
                assert_eq!(fresh, owned, "{resp:?}");
                assert_eq!(reused, owned, "{resp:?} into a used buffer");
            }
        }
    }

    #[test]
    fn every_request_round_trips() {
        let requests = vec![
            Request::LoadKey {
                tenant: "hospital-a".to_string(),
                key_bytes: vec![0, 1, 2, 254, 255],
            },
            Request::Transform {
                tenant: "hospital-b".to_string(),
                batch: sample_dataset(4, true),
            },
            Request::Invert {
                tenant: "naïve-tenant".to_string(),
                batch: sample_dataset(2, false),
            },
            Request::Stats,
            Request::EvictTenant {
                tenant: "x".to_string(),
            },
            Request::Ping,
            Request::ReloadKeys,
            Request::Goodbye,
            Request::FedOpen {
                config: vec![9, 8, 7, 6, 0, 255],
            },
            Request::FedMsg {
                session: 0xFEED_F00D,
                owner: 3,
                messages: vec![vec![1, 2, 3], Vec::new(), vec![255; 17]],
            },
            Request::FedMsg {
                session: 1,
                owner: 0,
                messages: Vec::new(),
            },
            Request::FedResult { session: u64::MAX },
            Request::FedClose { session: 0 },
        ];
        for req in requests {
            let frame = req.to_frame();
            let bytes = encode_frame(&frame);
            let decoded_frame = decode_frame(&bytes).unwrap();
            assert_eq!(decoded_frame, frame);
            let decoded = Request::from_frame(&decoded_frame).unwrap();
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn every_response_round_trips() {
        let responses = vec![
            Response::Loaded {
                method: "rbt".to_string(),
                n_attributes: 7,
            },
            Response::Transformed {
                released: sample_dataset(5, false),
                out_of_range_rows: 3,
            },
            Response::Inverted {
                recovered: sample_dataset(1, true),
            },
            Response::Stats(ServerStats::sample_for_tests()),
            Response::Evicted { existed: true },
            Response::Pong,
            Response::Reloaded {
                loaded: 5,
                quarantined: 2,
            },
            Response::GoingAway {
                message: "shutting down".to_string(),
            },
            Response::Deadline {
                waited_ms: 5200,
                budget_ms: 5000,
            },
            Response::Error {
                code: 4,
                message: "checksum mismatch".to_string(),
            },
            Response::FedOpened { session: 77 },
            Response::FedMsgs {
                messages: vec![Vec::new(), vec![42; 9]],
            },
            Response::FedSummary { summary: None },
            Response::FedSummary {
                summary: Some(vec![0, 1, 2, 3]),
            },
            Response::FedClosed { existed: false },
        ];
        for resp in responses {
            let frame = resp.to_frame();
            let decoded = Response::from_frame(&decode_frame(&encode_frame(&frame)).unwrap());
            assert_eq!(decoded.unwrap(), resp);
        }
    }

    #[test]
    fn request_ids_echo_through_the_codec() {
        for id in [0u64, 1, 42, u64::MAX] {
            let frame = Request::Ping.to_frame().with_request_id(id);
            let bytes = encode_frame(&frame);
            let back = decode_frame(&bytes).unwrap();
            assert_eq!(back.request_id, id);
            assert_eq!(back, frame);
            let mut cursor = std::io::Cursor::new(bytes);
            assert_eq!(read_frame(&mut cursor).unwrap(), Some(frame));
        }
    }

    #[test]
    fn version_2_body_too_short_for_the_id_is_malformed() {
        // A v2 frame whose declared body cannot hold the 8-byte id.
        let mut w = ByteWriter::new();
        w.put_bytes(&MAGIC);
        w.put_u16(WIRE_VERSION);
        w.put_u8(Opcode::Ping as u8);
        w.put_u32(3);
        w.put_bytes(&[1, 2, 3]);
        let crc = crc32(w.as_bytes());
        w.put_u32(crc);
        assert!(matches!(
            decode_frame(&w.into_bytes()).unwrap_err(),
            WireError::Byte(DecodeError::Malformed { .. })
        ));
    }

    #[test]
    fn dataset_payload_is_bitwise_lossless() {
        let m = Matrix::from_vec(
            2,
            2,
            vec![
                -0.0,
                f64::MIN_POSITIVE,
                f64::from_bits(0x7FF8_0000_0000_1234),
                1e308,
            ],
        )
        .unwrap();
        let ds = Dataset::new(m, vec!["a".to_string(), "b".to_string()]).unwrap();
        let mut w = ByteWriter::new();
        encode_dataset(&mut w, &ds);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = decode_dataset(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_datasets_bitwise(&ds, &back);
    }

    #[test]
    fn rows_without_columns_are_malformed() {
        // A 2^60×0 batch carries no cell bytes, so no count check bounds
        // its rows; the shape rule refuses it at the shape offset.
        let rows = 1usize << 60;
        let mut w = ByteWriter::new();
        w.put_str("t");
        w.put_usize(rows);
        w.put_usize(0);
        w.put_bool(false);
        let frame = Frame::new(Opcode::Transform, w.into_bytes());
        assert_eq!(encode_frame(&frame).len(), 45);
        // The shape follows the 5-byte tenant.
        assert!(matches!(
            Request::from_frame(&frame),
            Err(WireError::Byte(DecodeError::Malformed { offset: 5, message }))
                if message == format!("dataset declares {rows} rows but no columns")
        ));
        // A 0×0 dataset stays valid.
        let empty = Request::Transform {
            tenant: "t".to_string(),
            batch: Dataset::from_matrix(Matrix::zeros(0, 0)),
        };
        assert_eq!(Request::from_frame(&empty.to_frame()).unwrap(), empty);
    }

    /// The PR-3-style battery: every single-bit corruption of a valid frame
    /// is rejected with a typed error, never a panic or a silent success.
    #[test]
    fn every_single_bit_flip_is_rejected() {
        let frame = Request::Transform {
            tenant: "t".to_string(),
            batch: sample_dataset(2, true),
        }
        .to_frame()
        .with_request_id(77);
        let bytes = encode_frame(&frame);
        for idx in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupted = bytes.clone();
                corrupted[idx] ^= 1 << bit;
                assert!(
                    decode_frame(&corrupted).is_err(),
                    "flip at byte {idx} bit {bit} was not rejected"
                );
            }
        }
    }

    /// Every proper prefix of a valid frame is rejected as truncated.
    #[test]
    fn every_truncation_is_rejected() {
        let bytes = encode_frame(&Request::Ping.to_frame());
        for len in 0..bytes.len() {
            let err = decode_frame(&bytes[..len]).unwrap_err();
            assert!(
                matches!(err, WireError::Byte(DecodeError::Truncated { .. })),
                "prefix of {len} bytes: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode_frame(&Request::Ping.to_frame());
        bytes.push(0);
        assert!(matches!(
            decode_frame(&bytes).unwrap_err(),
            WireError::Byte(DecodeError::Malformed { .. })
        ));
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut bytes = encode_frame(&Request::Ping.to_frame());
        bytes[7..11].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_frame(&bytes).unwrap_err(),
            WireError::Oversized {
                length: u32::MAX,
                limit: MAX_BODY_LEN
            }
        );
    }

    #[test]
    fn wrong_version_with_valid_checksum_is_a_version_error() {
        for version in [1u16, 99] {
            // Re-seal the CRC so the *only* defect is the version field.
            let frame = Request::Ping.to_frame();
            let mut bytes = encode_frame(&frame);
            bytes[4..6].copy_from_slice(&version.to_le_bytes());
            let crc = crc32(&bytes[..bytes.len() - TRAILER_LEN]);
            let crc_at = bytes.len() - TRAILER_LEN;
            bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
            assert_eq!(
                decode_frame(&bytes).unwrap_err(),
                WireError::UnsupportedVersion { found: version }
            );
        }
    }

    #[test]
    fn unknown_opcode_with_valid_checksum_is_an_opcode_error() {
        let frame = Request::Ping.to_frame();
        let mut bytes = encode_frame(&frame);
        bytes[6] = 0xEE;
        let crc = crc32(&bytes[..bytes.len() - TRAILER_LEN]);
        let crc_at = bytes.len() - TRAILER_LEN;
        bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            decode_frame(&bytes).unwrap_err(),
            WireError::UnknownOpcode { found: 0xEE }
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode_frame(&Request::Ping.to_frame());
        bytes[..4].copy_from_slice(b"RBTS");
        assert_eq!(
            decode_frame(&bytes).unwrap_err(),
            WireError::BadMagic { found: *b"RBTS" }
        );
    }

    #[test]
    fn stream_reader_yields_frames_then_clean_eof() {
        let mut buf = Vec::new();
        let ping = Request::Ping.to_frame();
        let stats = Request::Stats.to_frame();
        buf.extend_from_slice(&encode_frame(&ping));
        buf.extend_from_slice(&encode_frame(&stats));
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(ping));
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(stats));
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn stream_eof_mid_frame_is_a_disconnect() {
        let bytes = encode_frame(&Request::Ping.to_frame());
        // Cut inside the header and inside the trailer.
        for cut in [1, HEADER_LEN - 1, bytes.len() - 1] {
            let mut cursor = std::io::Cursor::new(bytes[..cut].to_vec());
            let err = read_frame(&mut cursor).unwrap_err();
            assert!(
                matches!(
                    err,
                    WireError::Io {
                        kind: std::io::ErrorKind::UnexpectedEof,
                        ..
                    }
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn stream_reader_rejects_oversized_without_allocating() {
        let mut bytes = encode_frame(&Request::Ping.to_frame());
        bytes[7..11].copy_from_slice(&(MAX_BODY_LEN + 1).to_le_bytes());
        let mut cursor = std::io::Cursor::new(bytes);
        assert_eq!(
            read_frame(&mut cursor).unwrap_err(),
            WireError::Oversized {
                length: MAX_BODY_LEN + 1,
                limit: MAX_BODY_LEN
            }
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        // Arbitrary bodies round-trip bit-identically through the frame
        // codec, for every opcode and arbitrary request ids.
        #[test]
        fn arbitrary_bodies_round_trip(
            body in prop::collection::vec(0usize..256, 0..96),
            opcode_pick in 0usize..10,
            request_id in 0u64..u64::MAX,
        ) {
            let opcodes = [
                Opcode::LoadKey, Opcode::Transform, Opcode::Invert,
                Opcode::Stats, Opcode::EvictTenant, Opcode::Ping,
                Opcode::GoingAway, Opcode::ReloadKeys, Opcode::Deadline,
                Opcode::Error,
            ];
            let body: Vec<u8> = body.into_iter().map(|b| b as u8).collect();
            let frame = Frame::new(opcodes[opcode_pick], body).with_request_id(request_id);
            let bytes = encode_frame(&frame);
            prop_assert_eq!(decode_frame(&bytes).unwrap(), frame.clone());
            let mut cursor = std::io::Cursor::new(bytes);
            prop_assert_eq!(read_frame(&mut cursor).unwrap(), Some(frame));
        }

        // Single-byte corruption at an arbitrary position is rejected.
        #[test]
        fn random_corruption_is_rejected(
            body in prop::collection::vec(0usize..256, 0..64),
            pos_frac in 0.0..1.0f64,
            flip in 1usize..256,
        ) {
            let body: Vec<u8> = body.into_iter().map(|b| b as u8).collect();
            let mut bytes = encode_frame(&Frame::new(Opcode::Transform, body));
            let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len();
            bytes[pos] ^= flip as u8;
            prop_assert!(decode_frame(&bytes).is_err());
        }
    }
}
