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

use std::fmt;
use std::io::{Read, Write};

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

/// A decoded frame: opcode, request id, and raw body bytes. The body is
/// interpreted by [`Request::from_frame`] / [`Response::from_frame`]; the
/// request id is echoed by the server so clients can match a response to
/// its request across reconnects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame opcode.
    pub opcode: Opcode,
    /// The request id (0 for unsolicited frames: farewells, refusals, and
    /// framing errors).
    pub request_id: u64,
    /// The opcode-specific body (request-id prefix already stripped).
    pub body: Vec<u8>,
}

impl Frame {
    /// A frame with the given opcode and body, request id 0.
    pub fn new(opcode: Opcode, body: Vec<u8>) -> Frame {
        Frame {
            opcode,
            request_id: 0,
            body,
        }
    }

    /// The same frame carrying `id` as its request id.
    pub fn with_request_id(mut self, id: u64) -> Frame {
        self.request_id = id;
        self
    }
}

/// Encodes a frame into a self-contained byte buffer (header + request-id
/// prefix + body + CRC-32 trailer), always at [`WIRE_VERSION`].
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut w =
        ByteWriter::with_capacity(HEADER_LEN + REQUEST_ID_LEN + frame.body.len() + TRAILER_LEN);
    w.put_bytes(&MAGIC);
    w.put_u16(WIRE_VERSION);
    w.put_u8(frame.opcode as u8);
    w.put_u32((REQUEST_ID_LEN + frame.body.len()) as u32);
    w.put_u64(frame.request_id);
    w.put_bytes(&frame.body);
    let crc = crc32(w.as_bytes());
    w.put_u32(crc);
    w.into_bytes()
}

/// Header fields once magic and the length bound have been validated.
struct RawHeader {
    version: u16,
    opcode_byte: u8,
    body_len: usize,
}

fn parse_header(header: &[u8; HEADER_LEN]) -> WireResult<RawHeader> {
    let mut r = ByteReader::new(header);
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

/// Validates CRC/version/opcode of one whole frame and splits the
/// request-id prefix. `bytes` is the contiguous frame — header, body and
/// trailer, exactly `HEADER_LEN + raw.body_len + TRAILER_LEN` bytes. The
/// CRC is computed in place and the body is copied once, after the id.
fn finish_frame(bytes: &[u8], raw: RawHeader) -> WireResult<Frame> {
    let crc_end = HEADER_LEN + raw.body_len;
    let stored = u32::from_le_bytes([
        bytes[crc_end],
        bytes[crc_end + 1],
        bytes[crc_end + 2],
        bytes[crc_end + 3],
    ]);
    let computed = crc32(&bytes[..crc_end]);
    if stored != computed {
        return Err(WireError::ChecksumMismatch { stored, computed });
    }
    if raw.version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion { found: raw.version });
    }
    let opcode = Opcode::from_u8(raw.opcode_byte).ok_or(WireError::UnknownOpcode {
        found: raw.opcode_byte,
    })?;
    if raw.body_len < REQUEST_ID_LEN {
        return Err(malformed(
            HEADER_LEN,
            format!(
                "version-2 body of {} bytes cannot hold the request id",
                raw.body_len
            ),
        ));
    }
    let body_start = HEADER_LEN + REQUEST_ID_LEN;
    let mut id_bytes = [0u8; REQUEST_ID_LEN];
    id_bytes.copy_from_slice(&bytes[HEADER_LEN..body_start]);
    Ok(Frame {
        opcode,
        request_id: u64::from_le_bytes(id_bytes),
        body: bytes[body_start..crc_end].to_vec(),
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
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&bytes[..HEADER_LEN]);
    let raw = parse_header(&header)?;
    let total = HEADER_LEN + raw.body_len + TRAILER_LEN;
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
    finish_frame(bytes, raw)
}

/// Reads the next frame from a stream.
///
/// Returns `Ok(None)` on a clean end-of-stream (the peer closed between
/// frames); EOF in the *middle* of a frame is a disconnect and reported as
/// [`WireError::Io`] with [`std::io::ErrorKind::UnexpectedEof`]. The
/// declared body length is validated against [`MAX_BODY_LEN`] before the
/// body buffer is allocated.
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
    let raw = parse_header(&header)?;
    let mut frame = vec![0u8; HEADER_LEN + raw.body_len + TRAILER_LEN];
    frame[..HEADER_LEN].copy_from_slice(&header);
    stream.read_exact(&mut frame[HEADER_LEN..]).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Io {
                kind: std::io::ErrorKind::UnexpectedEof,
                message: "peer closed mid-frame".to_string(),
            }
        } else {
            WireError::from(e)
        }
    })?;
    finish_frame(&frame, raw).map(Some)
}

/// Incremental frame decoder for non-blocking sockets.
///
/// The blocking [`read_frame`] owns its stream and can loop until a frame
/// completes; a readiness-polled connection instead receives bytes in
/// arbitrary chunks whenever the socket is readable. [`FrameAssembler`]
/// buffers those chunks ([`FrameAssembler::push`]) and yields complete,
/// validated frames ([`FrameAssembler::next_frame`]) with exactly the same
/// validation order as [`read_frame`]: magic and length bound from the
/// header, then CRC over the whole frame, then version, then opcode.
///
/// Error recoverability mirrors the blocking path. A header-level error
/// (bad magic, oversized length) or a checksum mismatch leaves the byte
/// stream desynchronized — the caller must close the connection. A version
/// or opcode error is only reachable *after* the CRC proved the declared
/// length honest, so the offending frame has been fully consumed and the
/// assembler keeps working on whatever follows it.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    start: usize,
}

impl FrameAssembler {
    /// Creates an empty assembler.
    pub fn new() -> FrameAssembler {
        FrameAssembler::default()
    }

    /// Appends bytes read from the socket to the reassembly buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing: everything before `start` is consumed.
        if self.start > 0 && (self.start == self.buf.len() || self.start >= 4096) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// True while the buffer holds any unconsumed bytes — complete frames
    /// not yet extracted by [`FrameAssembler::next_frame`] count too. To
    /// decide whether a silent peer is *stalled* (owes bytes) or merely
    /// unread (back-pressured by the caller), use
    /// [`FrameAssembler::partial_frame`] instead.
    pub fn mid_frame(&self) -> bool {
        self.start < self.buf.len()
    }

    /// True when [`FrameAssembler::next_frame`] would yield something —
    /// a complete frame, or a typed error for bytes that can never become
    /// one — without any further `push`.
    pub fn frame_ready(&self) -> bool {
        let pending = &self.buf[self.start..];
        if pending.len() < HEADER_LEN {
            return false;
        }
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(&pending[..HEADER_LEN]);
        match parse_header(&header) {
            // An undecodable header is extractable as a (fatal) error.
            Err(_) => true,
            Ok(raw) => pending.len() >= HEADER_LEN + raw.body_len + TRAILER_LEN,
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

    /// Yields the next complete frame, `None` if more bytes are needed.
    ///
    /// # Errors
    ///
    /// Typed [`WireError`] exactly as [`read_frame`] would produce for the
    /// same bytes. After [`WireError::UnsupportedVersion`] or
    /// [`WireError::UnknownOpcode`] the frame was fully consumed and the
    /// assembler remains usable; after any other error the stream is
    /// desynchronized and the connection should be closed.
    pub fn next_frame(&mut self) -> Option<WireResult<Frame>> {
        let pending = &self.buf[self.start..];
        if pending.len() < HEADER_LEN {
            return None;
        }
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(&pending[..HEADER_LEN]);
        let raw = match parse_header(&header) {
            Ok(raw) => raw,
            Err(e) => return Some(Err(e)),
        };
        let total = HEADER_LEN + raw.body_len + TRAILER_LEN;
        if pending.len() < total {
            return None;
        }
        let result = finish_frame(&pending[..total], raw);
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
}

/// Writes one encoded frame to a stream and flushes it.
///
/// # Errors
///
/// Propagates stream failures as [`WireError::Io`].
pub fn write_frame<W: Write>(stream: &mut W, frame: &Frame) -> WireResult<()> {
    stream.write_all(&encode_frame(frame))?;
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

/// Reads a dataset written by [`encode_dataset`].
///
/// # Errors
///
/// Typed [`WireError`] on truncation, oversized counts, or inconsistent
/// shape.
pub fn decode_dataset(r: &mut ByteReader<'_>) -> WireResult<Dataset> {
    let shape_offset = r.position();
    let rows = r.take_usize()?;
    let cols = r.take_usize()?;
    // Rows without columns carry no bytes, so no count check would bound
    // them; a 0×0 dataset stays valid.
    if cols == 0 && rows > 0 {
        return Err(malformed(
            shape_offset,
            format!("dataset declares {rows} rows but no columns"),
        ));
    }
    r.check_count(cols, 4)?;
    let mut columns = Vec::with_capacity(cols);
    for _ in 0..cols {
        columns.push(r.take_str()?.to_string());
    }
    let has_ids = r.take_bool()?;
    let ids = if has_ids {
        r.check_count(rows, 8)?;
        let mut ids = Vec::with_capacity(rows);
        for _ in 0..rows {
            ids.push(r.take_u64()?);
        }
        Some(ids)
    } else {
        None
    };
    let cells = rows.checked_mul(cols).ok_or_else(|| {
        malformed(
            shape_offset,
            format!("dataset shape {rows}x{cols} overflows"),
        )
    })?;
    r.check_count(cells, 8)?;
    let data = r.take_f64s(cells)?;
    let matrix =
        Matrix::from_vec(rows, cols, data).map_err(|e| malformed(shape_offset, e.to_string()))?;
    let ds = Dataset::new(matrix, columns).map_err(|e| malformed(shape_offset, e.to_string()))?;
    match ids {
        Some(ids) => ds
            .with_ids(ids)
            .map_err(|e| malformed(shape_offset, e.to_string())),
        None => Ok(ds),
    }
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

    /// Encodes the request into a frame (request id 0; use
    /// [`Frame::with_request_id`] to tag it).
    pub fn to_frame(&self) -> Frame {
        let mut w = ByteWriter::new();
        match self {
            Request::LoadKey { tenant, key_bytes } => {
                w.put_str(tenant);
                w.put_blob(key_bytes);
            }
            Request::Transform { tenant, batch } | Request::Invert { tenant, batch } => {
                w = ByteWriter::with_capacity(4 + tenant.len() + encoded_dataset_len(batch));
                w.put_str(tenant);
                encode_dataset(&mut w, batch);
            }
            Request::EvictTenant { tenant } => w.put_str(tenant),
            Request::FedOpen { config } => w.put_blob(config),
            Request::FedMsg {
                session,
                owner,
                messages,
            } => {
                w.put_u64(*session);
                w.put_u16(*owner);
                encode_blobs(&mut w, messages);
            }
            Request::FedResult { session } | Request::FedClose { session } => w.put_u64(*session),
            Request::Stats | Request::Ping | Request::ReloadKeys | Request::Goodbye => {}
        }
        Frame::new(self.opcode(), w.into_bytes())
    }

    /// Decodes a request from a frame.
    ///
    /// # Errors
    ///
    /// Typed [`WireError`] when the body does not parse for the frame's
    /// opcode, or the opcode is response-only ([`Opcode::Error`],
    /// [`Opcode::Deadline`]).
    pub fn from_frame(frame: &Frame) -> WireResult<Request> {
        let mut r = ByteReader::new(&frame.body);
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

    /// Encodes the response into a frame (request id 0; use
    /// [`Frame::with_request_id`] to echo the request's id).
    pub fn to_frame(&self) -> Frame {
        let mut w = ByteWriter::new();
        match self {
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
                w = ByteWriter::with_capacity(encoded_dataset_len(released) + 8);
                encode_dataset(&mut w, released);
                w.put_u64(*out_of_range_rows);
            }
            Response::Inverted { recovered } => {
                w = ByteWriter::with_capacity(encoded_dataset_len(recovered));
                encode_dataset(&mut w, recovered);
            }
            Response::Stats(stats) => stats.encode_into(&mut w),
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
            Response::FedMsgs { messages } => encode_blobs(&mut w, messages),
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
        }
        Frame::new(self.opcode(), w.into_bytes())
    }

    /// Decodes a response from a frame.
    ///
    /// # Errors
    ///
    /// Typed [`WireError`] when the body does not parse for the frame's
    /// opcode.
    pub fn from_frame(frame: &Frame) -> WireResult<Response> {
        let mut r = ByteReader::new(&frame.body);
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
