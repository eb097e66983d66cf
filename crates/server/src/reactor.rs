//! The connection core: one readiness-polled event loop owning every
//! socket, plus a fixed worker pool for transform compute, so thousands of
//! connections ride a handful of threads. The split of responsibilities:
//!
//! * the **event loop** (one thread) owns the non-blocking listener and
//!   every connection socket, multiplexed through the vendored `poll(2)`
//!   shim (`shims/polling`). It reads each socket straight into the
//!   connection's [`FrameAssembler`], takes every checked request out of
//!   it as an owned [`Frame`] (with the assembler's buffer when the frame
//!   is a read or more and ends it, copied otherwise), runs a
//!   per-connection state machine, and writes queued answer frames. It
//!   answers itself, inside the request's frame, what costs no more than
//!   the bytes it moves (`server::answer_on_loop`): a `Ping` and the hub's
//!   bookkeeping — `FedOpen`, `FedResult`, `FedClose` and a `FedMsg` poll —
//!   when the hub's lock is free, and the typed error or the shed answer
//!   when one of those does not decode or is past its deadline. It never
//!   decodes anything else, never runs a row kernel, a key decode, a
//!   party's state machine, disk I/O or the registry lock, and never waits
//!   on a lock;
//! * the **worker pool** ([`rbt_linalg::pool::default_threads`] threads,
//!   which honours `RBT_THREADS`) runs the request engine in
//!   [`crate::server`] (`server::serve`) for every other frame: a batch is
//!   released inside its own frame on the worker's thread, and the frame
//!   is rewritten into the answer; anything else is decoded, shed past its
//!   deadline, served, and answered inside its frame's buffer.
//!   Completions come back to the event loop over a self-pipe waker.
//!
//! The load-bearing rules:
//!
//! * at most one request per connection is ever in a worker, and the loop
//!   answers a request only while none of its connection's is in one, so
//!   responses are written in arrival order (pipelining stays FIFO);
//! * a connection is read only while its extracted requests, the one in a
//!   worker and its answers not yet written number fewer than
//!   [`crate::ServerConfig::window`] — backpressure lands in the kernel's
//!   TCP buffers, also for a peer that reads none of its answers. The
//!   silence timers stay parked while requests the daemon has not answered
//!   fill the window; while unread answers hold it, a partial frame is no
//!   stall, but a peer that takes no answer is idle like any other;
//! * a connection is pumped pass after pass — extract, answer or
//!   dispatch, flush — until a pass writes no answer out: each answer
//!   written frees a slot of the window, and frames already read but held
//!   back by it get no further socket event;
//! * version-skewed frames are consumed whole (CRC before version) and
//!   answered with a typed error without closing the connection; every
//!   other parse failure answers once and closes after the flush;
//! * idle connections are reaped after `idle_timeout` counted from the
//!   last byte received or whole answer written; a peer silent
//!   *mid-frame* is cut after `stall_budget`;
//! * on drain, connections already in the kernel's accept queue are
//!   admitted before the listener closes; each connection then quiesces
//!   after one read-tick without new bytes or answers taken and with room
//!   in its window, everything already buffered is answered, a
//!   `GoingAway` farewell is written, and stragglers are force-severed at
//!   `drain_deadline`;
//! * a request is one [`Frame`] from socket read to socket write: each
//!   connection queues whole answer frames, and a flushed one's buffer
//!   goes back to the frame assemblers through a free list that keeps at
//!   most 8 buffers of 64 KiB to 4 MiB each, and only in place of buffers
//!   the assemblers handed on with their frames, so a steady stream of
//!   batches allocates no frame.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex as StdMutex};
use std::thread;
use std::time::{Duration, Instant};

use polling::{Event, Interest, Poller};

use crate::server::{answer_on_loop, refuse, serve, DrainReport, Shared, WRITE_TIMEOUT};
use crate::wire::{Frame, FrameAssembler, Opcode, Response, WireError, FREE_FRAME_MAX, MIN_READ};
use crate::CODE_UNAVAILABLE;

const LISTENER_KEY: usize = 0;
const WAKER_KEY: usize = 1;
/// Connection ids map to poller keys with this offset.
const CONN_KEY_BASE: u64 = 2;

/// Flushed frame buffers the free list keeps, at most.
const FREE_FRAMES: usize = 8;

/// A request extracted on the event loop, as the frame it was read into.
struct Inbound {
    /// When the frame was extracted, for the queue-wait deadline.
    arrival: Instant,
    frame: Frame,
}

/// A request on its way to the worker pool.
struct Job {
    conn_id: u64,
    inbound: Inbound,
}

/// An answer frame on its way back to the event loop.
struct Completion {
    conn_id: u64,
    frame: Frame,
}

/// Frame buffers the event loop has flushed, on their way back to the
/// frame assemblers: at most [`FREE_FRAMES`] of them, each of
/// [`MIN_READ`] to [`FREE_FRAME_MAX`] bytes. A frame of a read or more
/// leaves with its assembler's buffer and comes back as its answer, so a
/// steady stream of batches allocates no frame. A buffer is kept only in
/// place of one an assembler handed on: an answer that outgrew a small
/// request's buffer would otherwise settle in the free list, and the
/// assemblers would grow it to their frames' size.
#[derive(Default)]
struct FrameBuffers {
    free: Vec<Vec<u8>>,
    /// Buffers the assemblers have handed on with their frames and not
    /// had back.
    lent: usize,
}

impl FrameBuffers {
    /// A buffer for an assembler whose own left with a frame: a free
    /// one, or an empty one.
    fn take(&mut self) -> Vec<u8> {
        self.lent += 1;
        self.free.pop().unwrap_or_default()
    }

    /// Takes a flushed frame's buffer back in place of a lent one,
    /// keeping it within the bounds.
    fn recycle(&mut self, frame: Frame) {
        let buf = frame.into_buffer();
        if self.repay(buf.capacity())
            && buf.capacity() <= FREE_FRAME_MAX
            && self.free.len() < FREE_FRAMES
        {
            self.free.push(buf);
        }
    }

    /// Drops frames that will never be written — a retired connection's
    /// requests and answers, an answer that comes back for one, requests
    /// left unread after a goodbye or a malformed frame — repaying their
    /// buffers' loans as [`recycle`](Self::recycle) does, but keeping none.
    fn discard(&mut self, frames: impl IntoIterator<Item = Frame>) {
        for frame in frames {
            self.repay(frame.into_buffer().capacity());
        }
    }

    /// Settles one loan for a buffer of `capacity`, when it is of a lent
    /// buffer's size and a loan is open; whether it did.
    fn repay(&mut self, capacity: usize) -> bool {
        if capacity < MIN_READ || self.lent == 0 {
            return false;
        }
        self.lent -= 1;
        true
    }
}

/// The request frames of `inbox`, emptying it.
fn drain_frames(
    inbox: &mut VecDeque<Result<Inbound, WireError>>,
) -> impl Iterator<Item = Frame> + '_ {
    inbox.drain(..).flatten().map(|inbound| inbound.frame)
}

/// One worker: each frame is answered inside its own buffer by
/// [`serve`]. Exits when the job channel closes (the event loop exited).
fn run_worker(
    shared: Arc<Shared>,
    jobs: Arc<StdMutex<mpsc::Receiver<Job>>>,
    completions: Arc<StdMutex<Vec<Completion>>>,
    waker: Arc<UnixStream>,
) {
    loop {
        let job = {
            let rx = jobs.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv()
        };
        let Ok(Job { conn_id, inbound }) = job else {
            return;
        };
        let frame = serve(&shared, inbound.frame, inbound.arrival);
        completions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Completion { conn_id, frame });
        // One byte per completion; the event loop drains the pipe in bulk.
        let _ = (&*waker).write(&[1u8]);
    }
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    asm: FrameAssembler,
    /// Extracted requests (or recoverable/fatal parse errors) waiting to
    /// be answered. With the request in a worker and the queued answers,
    /// bounded by the in-flight window.
    inbox: VecDeque<Result<Inbound, WireError>>,
    /// One request is in the worker pool; nothing else may be popped
    /// until its completion returns, preserving response order.
    in_worker: bool,
    /// Whole answer frames in answer order; the front one is written
    /// from `out_at` on.
    outq: VecDeque<Frame>,
    out_at: usize,
    /// When the peer last sent a byte or took a whole answer: the silence
    /// timers count from here.
    last_progress_at: Instant,
    /// No more bytes will be read (EOF, fatal parse error, idle reap,
    /// stall cut, or drain quiescence).
    read_closed: bool,
    /// No more frames may be extracted from the assembler (fatal parse
    /// error, `GoingAway` received, stall cut, or the trailing mid-frame
    /// EOF error already queued). Distinct from `read_closed`: an EOF or
    /// a drain quiescence stops *reading*, but complete frames already
    /// buffered must still be extracted and served — every frame
    /// received before the peer went away is answered.
    parse_dead: bool,
    /// Retire once the inbox is served and the out queue flushed.
    closing: bool,
    /// When `closing` began, bounding how long an unflushable out queue
    /// may pin the connection.
    closing_since: Option<Instant>,
    /// The peer said `Goodbye`; no drain farewell is owed.
    said_goodbye: bool,
    /// The socket failed a write; retire without farewell.
    write_broken: bool,
    /// The peer's departure has been counted in `disconnects`. A client
    /// that says `Goodbye` and then closes would otherwise be counted on
    /// both the frame path and the EOF path; each connection counts
    /// exactly one disconnect.
    disconnect_counted: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            asm: FrameAssembler::new(),
            inbox: VecDeque::new(),
            in_worker: false,
            outq: VecDeque::new(),
            out_at: 0,
            last_progress_at: Instant::now(),
            read_closed: false,
            parse_dead: false,
            closing: false,
            closing_since: None,
            said_goodbye: false,
            write_broken: false,
            disconnect_counted: false,
            interest: Interest::READABLE,
        }
    }

    /// Counts the peer's departure exactly once, no matter which path
    /// (Goodbye frame, EOF, hard socket error) observes it first.
    fn count_disconnect(&mut self, runtime: &crate::metrics::RuntimeCounters) {
        if !self.disconnect_counted {
            self.disconnect_counted = true;
            runtime.disconnects.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Queues the answer to a framing error, which has no request frame
    /// to answer into, encoded into a fresh buffer.
    fn queue_response(&mut self, response: &Response) {
        self.outq.push_back(response.to_frame());
    }

    /// What the connection holds against its in-flight window: extracted
    /// requests, the one in a worker, and answers not yet written.
    fn pending(&self) -> usize {
        self.inbox.len() + usize::from(self.in_worker) + self.outq.len()
    }

    fn flushed(&self) -> bool {
        self.outq.is_empty()
    }

    fn begin_close(&mut self) {
        self.read_closed = true;
        if !self.closing {
            self.closing = true;
            self.closing_since = Some(Instant::now());
        }
    }
}

/// The event loop state. Runs on its own thread until stopped.
struct Reactor {
    shared: Arc<Shared>,
    poller: Poller,
    listener: Option<TcpListener>,
    waker_rx: UnixStream,
    conns: HashMap<u64, Conn>,
    next_conn_id: u64,
    jobs_tx: mpsc::Sender<Job>,
    completions: Arc<StdMutex<Vec<Completion>>>,
    buffers: FrameBuffers,
    stop: Arc<AtomicBool>,
    drain_started: Option<Instant>,
    forced: u64,
}

impl Reactor {
    /// The loop: poll → events → completions → timers, until stopped.
    /// Returns the number of force-severed connections.
    fn run(mut self) -> u64 {
        let tick = self.shared.config.read_tick;
        let mut events: Vec<Event> = Vec::new();
        let mut last_scan = Instant::now();
        loop {
            // `stop` before `draining`: shutdown raises `draining` first,
            // so a loop that sees the stop also sees the drain and never
            // mistakes a shutdown for an abort.
            let stop = self.stop.load(Ordering::SeqCst);
            let draining = self.shared.draining.load(Ordering::SeqCst);
            if stop {
                if self.listener.is_some() {
                    if draining {
                        // Connections still in the kernel's accept queue
                        // may already have sent requests; admit them so
                        // the drain answers those frames instead of the
                        // listener's close resetting them.
                        self.accept_ready();
                    }
                    let _ = self.poller.deregister(LISTENER_KEY);
                    self.listener = None;
                }
                if !draining {
                    // Abort (handle dropped without shutdown): sever
                    // everything now.
                    self.sever_all();
                    return self.forced;
                }
                if self.conns.is_empty() {
                    return self.forced;
                }
                let started = *self.drain_started.get_or_insert_with(Instant::now);
                if started.elapsed() >= self.shared.config.drain_deadline {
                    self.forced += self.conns.len() as u64;
                    self.sever_all();
                    return self.forced;
                }
            }

            if self.poller.wait(&mut events, Some(tick)).is_err() {
                // A failed poll would spin; treat it like a fatal stop.
                self.sever_all();
                return self.forced;
            }

            let mut touched: HashSet<u64> = HashSet::new();
            for &ev in &events {
                match ev.key {
                    LISTENER_KEY => self.accept_ready(),
                    WAKER_KEY => self.drain_waker(),
                    key => {
                        let conn_id = key as u64 - CONN_KEY_BASE;
                        if ev.writable {
                            self.flush_conn(conn_id);
                        }
                        if ev.readable {
                            self.read_conn(conn_id);
                        }
                        touched.insert(conn_id);
                    }
                }
            }

            for c in self.take_completions() {
                match self.conns.get_mut(&c.conn_id) {
                    Some(conn) => {
                        conn.in_worker = false;
                        conn.outq.push_back(c.frame);
                        touched.insert(c.conn_id);
                    }
                    None => self.buffers.discard([c.frame]),
                }
            }

            if last_scan.elapsed() >= tick {
                last_scan = Instant::now();
                touched.extend(self.scan_timers(draining, tick));
            }

            for conn_id in touched {
                self.pump_conn(conn_id);
            }
        }
    }

    /// Accepts every pending connection (the listener is non-blocking).
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Admission control: refuse with a typed code-8 error at the
    /// connection cap, otherwise register the socket with the poller.
    fn admit(&mut self, stream: TcpStream) {
        let runtime = self.shared.registry.runtime();
        let config = &self.shared.config;
        if self.conns.len() >= config.max_conns {
            runtime.refused.fetch_add(1, Ordering::Relaxed);
            // On the BSD family accepted sockets inherit the listener's
            // O_NONBLOCK (Linux never does); make the refusal write
            // blocking so `refuse` cannot drop it on WouldBlock.
            let _ = stream.set_nonblocking(false);
            refuse(
                stream,
                Response::Error {
                    code: CODE_UNAVAILABLE,
                    message: format!("server at capacity ({} connections)", config.max_conns),
                },
            );
            return;
        }
        runtime.accepted.fetch_add(1, Ordering::Relaxed);
        self.shared.spawned.fetch_add(1, Ordering::SeqCst);
        let sockopts = stream
            .set_nonblocking(true)
            .and_then(|_| stream.set_nodelay(true));
        if sockopts.is_err() {
            self.shared.retire_conn();
            return;
        }
        let conn_id = self.next_conn_id;
        self.next_conn_id += 1;
        let key = (conn_id + CONN_KEY_BASE) as usize;
        if self
            .poller
            .register(stream.as_raw_fd(), key, Interest::READABLE)
            .is_err()
        {
            self.shared.retire_conn();
            return;
        }
        self.conns.insert(conn_id, Conn::new(stream));
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match self.waker_rx.read(&mut buf) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut *self.completions.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Reads a readable socket straight into the assembler and extracts
    /// complete frames into the inbox, stopping at the in-flight window
    /// ([`Conn::pending`]).
    fn read_conn(&mut self, conn_id: u64) {
        let window = self.shared.config.window.max(1);
        let runtime = self.shared.registry.runtime();
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        if conn.read_closed {
            return;
        }
        loop {
            if conn.pending() >= window {
                // Window full: stop pulling bytes. Whatever the client
                // keeps pipelining backs up in the kernel's TCP buffers,
                // also while it reads none of its answers.
                break;
            }
            match conn.asm.read_from(&mut conn.stream) {
                Ok(0) => {
                    // EOF. Complete frames already buffered are still
                    // served (the peer may only have half-closed); if the
                    // trailing bytes are an incomplete frame, pump_conn
                    // queues the mid-frame error once extraction runs dry.
                    conn.count_disconnect(runtime);
                    conn.begin_close();
                    break;
                }
                Ok(_) => {
                    conn.last_progress_at = Instant::now();
                    Reactor::extract_frames(conn, window, &mut self.buffers);
                    if conn.read_closed {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Hard socket error: treat as a disconnect.
                    conn.count_disconnect(runtime);
                    conn.begin_close();
                    break;
                }
            }
        }
    }

    /// Extracts complete frames from the assembler into the inbox,
    /// honouring the window bound and the error-recoverability contract. A
    /// frame that takes the assembler's buffer leaves it a free one.
    fn extract_frames(conn: &mut Conn, window: usize, buffers: &mut FrameBuffers) {
        while conn.pending() < window && !conn.parse_dead {
            let item = match conn.asm.next_request(|| buffers.take()) {
                None => break,
                Some(next) => next.map(|frame| Inbound {
                    arrival: Instant::now(),
                    frame,
                }),
            };
            match item {
                Ok(inbound) => conn.inbox.push_back(Ok(inbound)),
                Err(e) => {
                    let recoverable = matches!(e, WireError::UnsupportedVersion { .. });
                    conn.inbox.push_back(Err(e));
                    if !recoverable {
                        // The stream is desynchronized: stop reading; the
                        // queued error answers once, then the connection
                        // closes.
                        conn.parse_dead = true;
                        conn.begin_close();
                    }
                }
            }
        }
        if conn.read_closed
            && !conn.parse_dead
            && conn.pending() < window
            && conn.asm.partial_frame()
        {
            // EOF (or a hard read error) left an incomplete trailing
            // frame: a malformed-stream event, answered with a typed
            // error (best-effort) after everything complete before it.
            conn.parse_dead = true;
            conn.inbox.push_back(Err(WireError::Io {
                kind: ErrorKind::UnexpectedEof,
                message: "peer closed mid-frame".to_string(),
            }));
        }
    }

    /// Writes queued frames as far as the socket accepts, handing each
    /// fully written one back to the frame assemblers' free list; a whole
    /// answer taken restarts the silence clock. Returns how many frames
    /// were written whole.
    fn flush_conn(&mut self, conn_id: u64) -> usize {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return 0;
        };
        let mut written = 0;
        while let Some(frame) = conn.outq.front() {
            let bytes = frame.as_bytes();
            match conn.stream.write(&bytes[conn.out_at..]) {
                Ok(0) => {
                    conn.write_broken = true;
                    break;
                }
                Ok(n) => {
                    conn.out_at += n;
                    if conn.out_at == bytes.len() {
                        conn.out_at = 0;
                        conn.last_progress_at = Instant::now();
                        written += 1;
                        if let Some(done) = conn.outq.pop_front() {
                            self.buffers.recycle(done);
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Client went away mid-response.
                    conn.write_broken = true;
                    break;
                }
            }
        }
        written
    }

    /// Advances one connection's state machine, pass after pass until a
    /// pass writes no answer out: extract buffered frames, answer on the
    /// loop what [`answer_on_loop`] answers and hand the rest to the
    /// workers (only while none of the connection's requests is in one, so
    /// answers keep arrival order), then flush. Each answer written frees a
    /// slot of the window, and frames read but held back by the window get
    /// no further socket event, so the next pass extracts them. Then update
    /// the poller interest, or retire the connection when it is done.
    fn pump_conn(&mut self, conn_id: u64) {
        let window = self.shared.config.window.max(1);
        loop {
            let runtime = self.shared.registry.runtime();
            let Some(conn) = self.conns.get_mut(&conn_id) else {
                return;
            };
            Reactor::extract_frames(conn, window, &mut self.buffers);
            while !conn.in_worker {
                let Some(item) = conn.inbox.pop_front() else {
                    break;
                };
                let inbound = match item {
                    // Any `GoingAway` frame is a goodbye, whatever its body
                    // holds.
                    Ok(inbound) if inbound.frame.opcode == Opcode::GoingAway => {
                        // A clean departure: no response owed, no error
                        // frame, nothing after it served.
                        conn.count_disconnect(runtime);
                        conn.said_goodbye = true;
                        self.buffers.discard([inbound.frame]);
                        self.buffers.discard(drain_frames(&mut conn.inbox));
                        conn.parse_dead = true;
                        conn.begin_close();
                        break;
                    }
                    Ok(Inbound { arrival, frame }) => {
                        match answer_on_loop(&self.shared, frame, arrival) {
                            Ok(answer) => {
                                conn.outq.push_back(answer);
                                continue;
                            }
                            Err(frame) => Inbound { arrival, frame },
                        }
                    }
                    Err(e) => {
                        runtime.malformed.fetch_add(1, Ordering::Relaxed);
                        if matches!(e, WireError::UnsupportedVersion { .. }) {
                            // Consumed whole (CRC before version): answer
                            // the typed rejection and keep serving.
                            conn.queue_response(&Response::Error {
                                code: 4,
                                message: e.to_string(),
                            });
                            continue;
                        }
                        // Malformed frame, mid-frame EOF, or stall: answer
                        // once (best-effort) and close after the flush.
                        conn.queue_response(&Response::Error {
                            code: 4,
                            message: format!("malformed frame: {e}"),
                        });
                        self.buffers.discard(drain_frames(&mut conn.inbox));
                        conn.parse_dead = true;
                        conn.begin_close();
                        break;
                    }
                };
                conn.in_worker = true;
                if self.jobs_tx.send(Job { conn_id, inbound }).is_err() {
                    // Workers are gone; the loop is exiting anyway.
                    conn.in_worker = false;
                    conn.begin_close();
                    break;
                }
            }
            if self.flush_conn(conn_id) == 0 {
                break;
            }
        }

        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        if conn.write_broken
            || (conn.closing && conn.inbox.is_empty() && !conn.in_worker && conn.flushed())
        {
            self.retire(conn_id);
            return;
        }
        let desired = Interest {
            readable: !conn.read_closed && conn.pending() < window,
            writable: !conn.flushed(),
        };
        if desired != conn.interest {
            conn.interest = desired;
            let _ = self
                .poller
                .modify((conn_id + CONN_KEY_BASE) as usize, desired);
        }
    }

    /// Periodic per-connection timers: idle reap, mid-frame stall, drain
    /// quiescence, and the closing-flush bound. Returns ids to pump.
    fn scan_timers(&mut self, draining: bool, tick: Duration) -> Vec<u64> {
        let config = &self.shared.config;
        let window = config.window.max(1);
        let runtime = self.shared.registry.runtime();
        let now = Instant::now();
        let mut touched = Vec::new();
        for (&conn_id, conn) in self.conns.iter_mut() {
            if conn.closing {
                // A closing connection whose peer will not take the final
                // bytes gets the same patience a blocking write would.
                if let Some(since) = conn.closing_since {
                    if !conn.flushed() && now.duration_since(since) >= WRITE_TIMEOUT {
                        conn.write_broken = true;
                        touched.push(conn_id);
                    }
                }
                if conn.in_worker || (conn.inbox.is_empty() && !conn.asm.frame_ready()) {
                    continue;
                }
                touched.push(conn_id);
                continue;
            }
            if conn.read_closed {
                continue;
            }
            if conn.inbox.len() + usize::from(conn.in_worker) >= window {
                // Reading is paused by requests the daemon has not answered
                // yet, not by the peer, so the peer is neither idle nor
                // stalled, even with a partial frame buffered. Keep the
                // silence clock parked so the timers restart from the
                // moment the work is done, not from a byte we refused to
                // read.
                conn.last_progress_at = now;
                continue;
            }
            // Answers the peer has not taken fill the rest of the window:
            // whatever else it sent waits unread in the kernel's buffers,
            // so a partial frame is no stall and a drain keeps waiting for
            // it (up to `drain_deadline`), but a peer that takes no answer
            // and sends no byte for `idle_timeout` is idle.
            let unread_answers = conn.pending() >= window;
            let silent = now.duration_since(conn.last_progress_at);
            if conn.asm.partial_frame() && !unread_answers {
                if silent >= config.stall_budget {
                    // A wedged or malicious sender mid-frame: cut it with
                    // a typed error.
                    runtime.stalled.fetch_add(1, Ordering::Relaxed);
                    conn.inbox.push_back(Err(WireError::Io {
                        kind: ErrorKind::TimedOut,
                        message: format!(
                            "peer stalled mid-frame past the {:?} budget",
                            config.stall_budget
                        ),
                    }));
                    conn.parse_dead = true;
                    conn.begin_close();
                    touched.push(conn_id);
                }
            } else if draining {
                // One tick with no new bytes and no answer taken: the final
                // sweep is done — everything the client sent before the
                // drain began is in the inbox. Serve it, then say goodbye.
                if silent >= tick && !unread_answers {
                    conn.begin_close();
                    touched.push(conn_id);
                }
            } else if silent >= config.idle_timeout {
                runtime.idle_reaped.fetch_add(1, Ordering::Relaxed);
                conn.begin_close();
                touched.push(conn_id);
            }
        }
        touched
    }

    /// Removes a connection: on a drain, flush and send the `GoingAway`
    /// farewell over a temporarily-blocking socket, then close and
    /// account for it.
    fn retire(&mut self, conn_id: u64) {
        let Some(mut conn) = self.conns.remove(&conn_id) else {
            return;
        };
        let _ = self.poller.deregister((conn_id + CONN_KEY_BASE) as usize);
        let draining = self.shared.draining.load(Ordering::SeqCst);
        if draining && !conn.said_goodbye && !conn.write_broken {
            let runtime = self.shared.registry.runtime();
            let _ = conn.stream.set_nonblocking(false);
            let _ = conn.stream.set_write_timeout(Some(WRITE_TIMEOUT));
            let pending_ok = conn.outq.iter().enumerate().all(|(i, frame)| {
                let from = if i == 0 { conn.out_at } else { 0 };
                conn.stream.write_all(&frame.as_bytes()[from..]).is_ok()
            });
            let mut farewell = Vec::new();
            Response::GoingAway {
                message: "server draining".to_string(),
            }
            .encode_into(0, &mut farewell);
            if pending_ok && conn.stream.write_all(&farewell).is_ok() {
                runtime.drained.fetch_add(1, Ordering::Relaxed);
            }
        }
        let _ = conn.stream.shutdown(Shutdown::Both);
        self.buffers.discard(conn.outq.drain(..));
        self.buffers.discard(drain_frames(&mut conn.inbox));
        self.shared.retire_conn();
    }

    /// Severs and retires every remaining connection.
    fn sever_all(&mut self) {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for conn_id in ids {
            if let Some(conn) = self.conns.get_mut(&conn_id) {
                // Past the point of farewells: cut the socket first so
                // retire() cannot block on a blocking write.
                conn.said_goodbye = true;
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
            self.retire(conn_id);
        }
    }
}

/// Handle the [`crate::Server`] keeps for a running reactor core.
pub(crate) struct ReactorHandle {
    stop: Arc<AtomicBool>,
    waker_tx: Arc<UnixStream>,
    loop_thread: Option<thread::JoinHandle<u64>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ReactorHandle {
    fn wake(&self) {
        let _ = (&*self.waker_tx).write(&[1u8]);
    }

    /// Blocks until the event loop exits (used by `rbt-cli serve`).
    pub(crate) fn wait(&mut self) {
        if let Some(handle) = self.loop_thread.take() {
            let _ = handle.join();
        }
    }

    /// Drains the reactor (the caller has already set the draining flag)
    /// and accounts for every connection ever admitted.
    pub(crate) fn shutdown(&mut self, shared: &Shared) -> DrainReport {
        self.stop.store(true, Ordering::SeqCst);
        self.wake();
        let forced = self
            .loop_thread
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or(0);
        // The loop thread owned the job sender; workers exit as the
        // channel drains dry.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        DrainReport {
            spawned: shared.spawned.load(Ordering::SeqCst),
            joined: shared.finished.load(Ordering::SeqCst),
            forced,
        }
    }

    /// Stops the loop without a drain (handle dropped): live connections
    /// are severed; workers unwind on their own once the channel closes.
    pub(crate) fn abort(&mut self) {
        if self.loop_thread.is_none() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        self.wake();
        if let Some(handle) = self.loop_thread.take() {
            let _ = handle.join();
        }
    }
}

/// Binds `addr`, starts the event loop and the worker pool, and returns
/// the bound address plus the handle.
pub(crate) fn spawn(
    addr: &str,
    shared: Arc<Shared>,
) -> std::io::Result<(SocketAddr, ReactorHandle)> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let (waker_rx, waker_tx) = UnixStream::pair()?;
    waker_rx.set_nonblocking(true)?;
    waker_tx.set_nonblocking(true)?;
    let mut poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), LISTENER_KEY, Interest::READABLE)?;
    poller.register(waker_rx.as_raw_fd(), WAKER_KEY, Interest::READABLE)?;

    let stop = Arc::new(AtomicBool::new(false));
    let (jobs_tx, jobs_rx) = mpsc::channel::<Job>();
    let jobs_rx = Arc::new(StdMutex::new(jobs_rx));
    let completions: Arc<StdMutex<Vec<Completion>>> = Arc::new(StdMutex::new(Vec::new()));
    let waker_tx = Arc::new(waker_tx);

    let pool_size = rbt_linalg::pool::default_threads();
    let mut workers = Vec::with_capacity(pool_size);
    for _ in 0..pool_size {
        let shared = Arc::clone(&shared);
        let jobs_rx = Arc::clone(&jobs_rx);
        let completions = Arc::clone(&completions);
        let waker = Arc::clone(&waker_tx);
        workers.push(thread::spawn(move || {
            run_worker(shared, jobs_rx, completions, waker)
        }));
    }

    let reactor = Reactor {
        shared,
        poller,
        listener: Some(listener),
        waker_rx,
        conns: HashMap::new(),
        next_conn_id: 0,
        jobs_tx,
        completions,
        buffers: FrameBuffers::default(),
        stop: Arc::clone(&stop),
        drain_started: None,
        forced: 0,
    };
    let loop_thread = thread::spawn(move || reactor.run());
    Ok((
        local,
        ReactorHandle {
            stop,
            waker_tx,
            loop_thread: Some(loop_thread),
            workers,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SessionRegistry;
    use crate::ServerConfig;

    const TICK: Duration = Duration::from_millis(10);

    /// A reactor over `config` with no listener and no workers, holding
    /// connection 0 to the loopback peer it also returns. The connection's
    /// assembler holds the first bytes of a frame.
    fn reactor_with_partial_frame(config: ServerConfig) -> (Reactor, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let (waker_rx, _) = UnixStream::pair().unwrap();
        let registry = Arc::new(SessionRegistry::new(1));
        let mut reactor = Reactor {
            shared: Arc::new(Shared::new(registry, config)),
            poller: Poller::new().unwrap(),
            listener: None,
            waker_rx,
            conns: HashMap::new(),
            next_conn_id: 1,
            jobs_tx: mpsc::channel().0,
            completions: Arc::default(),
            buffers: FrameBuffers::default(),
            stop: Arc::default(),
            drain_started: None,
            forced: 0,
        };
        let mut conn = Conn::new(stream);
        conn.asm.read_from(&mut &crate::wire::MAGIC[..2]).unwrap();
        assert!(conn.asm.partial_frame());
        reactor.conns.insert(0, conn);
        (reactor, peer)
    }

    fn conn(reactor: &mut Reactor) -> &mut Conn {
        reactor.conns.get_mut(&0).unwrap()
    }

    fn ago(elapsed: Duration) -> Instant {
        Instant::now().checked_sub(elapsed).unwrap()
    }

    fn counts(reactor: &Reactor) -> (u64, u64) {
        let runtime = reactor.shared.registry.runtime();
        (
            runtime.idle_reaped.load(Ordering::SeqCst),
            runtime.stalled.load(Ordering::SeqCst),
        )
    }

    /// A `Ping` answered inside its own frame, whose body of `body_len`
    /// bytes sized the buffer.
    fn answer_in(body_len: usize) -> Frame {
        Frame::new(Opcode::Ping, vec![0; body_len]).answer(&Response::Pong)
    }

    #[test]
    fn flushed_buffers_are_kept_only_in_place_of_lent_ones() {
        let mut buffers = FrameBuffers::default();
        // Nothing lent: a buffer in range is freed.
        buffers.recycle(answer_in(MIN_READ));
        assert!(buffers.free.is_empty());
        // Two buffers lent with their frames: a small one settles nothing,
        // two in range come back, and a third is freed.
        assert!(buffers.take().is_empty() && buffers.take().is_empty());
        buffers.recycle(answer_in(0));
        for _ in 0..3 {
            buffers.recycle(answer_in(MIN_READ));
        }
        assert_eq!((buffers.free.len(), buffers.lent), (2, 0));
        assert!(buffers.take().capacity() >= MIN_READ);
        // One too large to keep settles its debt all the same.
        buffers.recycle(answer_in(FREE_FRAME_MAX));
        assert_eq!((buffers.free.len(), buffers.lent), (1, 0));
    }

    #[test]
    fn dropped_frames_repay_their_loans() {
        let mut buffers = FrameBuffers::default();
        assert!(buffers.take().is_empty() && buffers.take().is_empty());
        buffers.discard([answer_in(MIN_READ), answer_in(MIN_READ)]);
        assert_eq!((buffers.free.len(), buffers.lent), (0, 0));
        // Nothing is owed any more: a flushed buffer in range is freed.
        buffers.recycle(answer_in(MIN_READ));
        assert_eq!((buffers.free.len(), buffers.lent), (0, 0));
    }

    /// Answers the peer has not taken fill the window: the partial frame
    /// behind them is no stall and a drain waits, but a peer that takes
    /// no answer for `idle_timeout` is reaped, and a whole answer taken
    /// restarts the clock.
    #[test]
    fn unread_answers_are_no_stall_but_do_not_keep_an_idle_peer() {
        let (mut reactor, _peer) = reactor_with_partial_frame(ServerConfig {
            window: 2,
            stall_budget: Duration::from_millis(10),
            idle_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        });
        let fill = |conn: &mut Conn, silent: Duration| {
            while conn.pending() < 2 {
                conn.outq.push_back(Response::Pong.to_frame());
            }
            conn.last_progress_at = ago(silent);
        };

        fill(conn(&mut reactor), Duration::from_secs(1));
        assert!(reactor.scan_timers(false, TICK).is_empty());
        assert!(reactor.scan_timers(true, TICK).is_empty());
        assert!(!conn(&mut reactor).closing);
        assert_eq!(counts(&reactor), (0, 0));

        assert_eq!(reactor.flush_conn(0), 2);
        assert!(conn(&mut reactor).last_progress_at > ago(Duration::from_millis(500)));

        fill(conn(&mut reactor), Duration::from_secs(6));
        assert_eq!(reactor.scan_timers(false, TICK), vec![0]);
        assert!(conn(&mut reactor).closing);
        assert_eq!(counts(&reactor), (1, 0));
    }

    /// Requests the daemon has not answered fill the window: the peer is
    /// neither idle nor stalled, however long the work takes, and the
    /// silence clock restarts when it is done.
    #[test]
    fn unanswered_requests_park_the_silence_clock() {
        let (mut reactor, _peer) = reactor_with_partial_frame(ServerConfig {
            window: 2,
            stall_budget: Duration::from_millis(10),
            idle_timeout: Duration::from_millis(10),
            ..ServerConfig::default()
        });
        let busy = conn(&mut reactor);
        busy.in_worker = true;
        busy.inbox.push_back(Ok(Inbound {
            arrival: Instant::now(),
            frame: crate::wire::Request::Ping.to_frame().with_request_id(1),
        }));
        busy.last_progress_at = ago(Duration::from_secs(1));

        assert!(reactor.scan_timers(false, TICK).is_empty());
        assert!(reactor.scan_timers(true, TICK).is_empty());
        assert!(!conn(&mut reactor).closing);
        assert!(conn(&mut reactor).last_progress_at > ago(Duration::from_millis(500)));
        assert_eq!(counts(&reactor), (0, 0));
    }
}
