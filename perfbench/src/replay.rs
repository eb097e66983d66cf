//! In-process replay of a request through the daemon's public steps:
//! server decode (`FrameAssembler::push/next_frame` + `Request::from_frame`),
//! the request engine's call, server encode (`Response::to_frame` +
//! `wire::encode_frame`), CRC alone, and a loopback echo of the same byte
//! counts. Each rung is timed and recorded as a span under a `replay` root.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use rbt::linalg::codec::crc32;
use rbt::server::wire::{self, FrameAssembler, Request, Response};

use crate::count_allocs;
use crate::trace::{Span, Tracer};

/// Span lane of the replay recorder.
const LANE: u64 = 15;

/// Per-rung times (µs per request), allocation counts and spans.
#[derive(Default)]
pub struct Rungs {
    /// Server decode.
    pub decode: Vec<f64>,
    /// The request engine's call (registry or hub).
    pub call: Vec<f64>,
    /// Server encode.
    pub encode: Vec<f64>,
    /// CRC-32 over the request and the response frame.
    pub crc: Vec<f64>,
    /// Loopback echo round trip.
    pub echo: Vec<f64>,
    /// Allocations made by server decode + encode.
    pub allocs: u64,
    /// Bytes those allocations asked for.
    pub alloc_bytes: u64,
    /// The recorded spans.
    pub spans: Vec<Span>,
}

/// The engine-call span of one replayed request, for laying children.
pub struct Call {
    id: u64,
    request: u64,
    start_ns: u64,
    /// How long the call took, µs.
    pub us: f64,
}

/// Replays requests one at a time.
pub struct Replayer {
    tracer: Tracer,
    echo: TcpStream,
    buf: Vec<u8>,
    rungs: Rungs,
}

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

impl Replayer {
    /// Replays `req` under request id `id`. `engine` is the daemon's call
    /// for the decoded request (timed as `call_name`); the response it
    /// returns is encoded and echoed like the daemon's would be.
    pub fn replay(
        &mut self,
        id: u64,
        req: &Request,
        call_name: &'static str,
        engine: impl FnOnce(Request) -> Result<Response, String>,
    ) -> Result<(Response, Call), String> {
        let rid = (LANE << 48) | id;
        let req_bytes = wire::encode_frame(&req.to_frame().with_request_id(id));
        let t = &mut self.tracer;
        let root = t.open("replay", rid, 0);

        let s0 = t.now_ns();
        let clock = Instant::now();
        let (decoded, a1, b1) = count_allocs(|| {
            let mut asm = FrameAssembler::new();
            asm.push(&req_bytes);
            let frame = asm.next_frame().expect("one whole frame")?;
            Request::from_frame(&frame).map(|req| (frame.request_id, req))
        });
        let d_decode = clock.elapsed();
        t.record("wire.server_decode", rid, root.id(), s0, t.now_ns());
        let (req_id, request) = decoded.map_err(|e| format!("replay decode: {e}"))?;

        let s1 = t.now_ns();
        let clock = Instant::now();
        let response = engine(request)?;
        let d_call = clock.elapsed();
        let call = t.record(call_name, rid, root.id(), s1, t.now_ns());

        let s2 = t.now_ns();
        let clock = Instant::now();
        let (resp_bytes, a2, b2) =
            count_allocs(|| wire::encode_frame(&response.to_frame().with_request_id(req_id)));
        let d_encode = clock.elapsed();
        t.record("wire.server_encode", rid, root.id(), s2, t.now_ns());

        let s3 = t.now_ns();
        let clock = Instant::now();
        std::hint::black_box(
            crc32(&req_bytes[..req_bytes.len() - wire::TRAILER_LEN])
                ^ crc32(&resp_bytes[..resp_bytes.len() - wire::TRAILER_LEN]),
        );
        let d_crc = clock.elapsed();
        t.record("wire.crc", rid, root.id(), s3, t.now_ns());

        self.buf.clear();
        self.buf
            .extend_from_slice(&(req_bytes.len() as u32).to_le_bytes());
        self.buf
            .extend_from_slice(&(resp_bytes.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(&req_bytes);
        let mut back = vec![0u8; resp_bytes.len()];
        let s4 = t.now_ns();
        let clock = Instant::now();
        self.echo
            .write_all(&self.buf)
            .and_then(|()| self.echo.read_exact(&mut back))
            .map_err(|e| format!("loopback echo: {e}"))?;
        let d_echo = clock.elapsed();
        t.record("socket.echo", rid, root.id(), s4, t.now_ns());
        t.close(root);

        let r = &mut self.rungs;
        r.decode.push(us(d_decode));
        r.call.push(us(d_call));
        r.encode.push(us(d_encode));
        r.crc.push(us(d_crc));
        r.echo.push(us(d_echo));
        r.allocs += a1 + a2;
        r.alloc_bytes += b1 + b2;
        Ok((
            response,
            Call {
                id: call,
                request: rid,
                start_ns: s1,
                us: us(d_call),
            },
        ))
    }

    /// Records work the opaque engine call contains, timed alone on an
    /// identical bench-owned object, as a child laid at the call's start.
    pub fn lay_child(&mut self, call: &Call, name: &'static str, took: Duration) {
        let end = call.start_ns + took.as_nanos() as u64;
        self.tracer
            .record(name, call.request, call.id, call.start_ns, end);
    }
}

/// A loopback echo peer: for each message it reads a request of the
/// given length and answers with the given number of bytes.
fn echo_peer(listener: TcpListener) {
    let Ok((mut stream, _)) = listener.accept() else {
        return;
    };
    let _ = stream.set_nodelay(true);
    let mut buf = Vec::new();
    let mut out = Vec::new();
    loop {
        let mut hdr = [0u8; 8];
        if stream.read_exact(&mut hdr).is_err() {
            return;
        }
        let req = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]) as usize;
        let resp = u32::from_le_bytes([hdr[4], hdr[5], hdr[6], hdr[7]]) as usize;
        buf.resize(req, 0);
        out.resize(resp, 0);
        if stream.read_exact(&mut buf).is_err() || stream.write_all(&out).is_err() {
            return;
        }
    }
}

/// Runs `f` with a replayer whose echo peer lives on a scoped thread, and
/// hands back `f`'s result with the rungs it recorded.
pub fn with_replayer<T>(
    epoch: Instant,
    f: impl FnOnce(&mut Replayer) -> Result<T, String>,
) -> Result<(T, Rungs), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    // Connect before the peer accepts (the backlog completes the
    // handshake), so a failure here leaves no thread blocked in accept.
    let echo = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    echo.set_nodelay(true).map_err(|e| e.to_string())?;
    std::thread::scope(|sc| {
        sc.spawn(move || echo_peer(listener));
        let mut replayer = Replayer {
            tracer: Tracer::new(epoch, LANE),
            echo,
            buf: Vec::new(),
            rungs: Rungs::default(),
        };
        let out = f(&mut replayer);
        // Dropping the replayer closes the echo stream, ending the peer.
        let mut rungs = replayer.rungs;
        rungs.spans = replayer.tracer.into_spans();
        out.map(|v| (v, rungs))
    })
}
