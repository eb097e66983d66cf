//! The connection core: one readiness-polled event loop owning every
//! socket, plus a fixed worker pool for transform compute, so thousands of
//! connections ride `1 + worker_threads` threads. The split of
//! responsibilities:
//!
//! * the **event loop** (one thread) owns the non-blocking listener and
//!   every connection socket, multiplexed through the vendored `poll(2)`
//!   shim (`shims/polling`). It reads bytes into each connection's
//!   incremental [`FrameAssembler`], pops decoded frames through a
//!   per-connection state machine, and flushes queued response bytes —
//!   never doing transform compute itself;
//! * the **worker pool** (`ServerConfig::worker_threads` threads, default
//!   [`rbt_linalg::pool::default_threads`]) decodes request bodies, checks
//!   the queue-wait deadline, runs the request engine in
//!   [`crate::server`], and encodes the response. Completions come back to
//!   the event loop over a self-pipe waker.
//!
//! The load-bearing rules:
//!
//! * at most one request per connection is ever in a worker, so responses
//!   are written in arrival order (pipelining stays FIFO);
//! * a connection whose inbox reaches [`crate::ServerConfig::window`]
//!   stops being read — backpressure lands in the kernel's TCP buffers;
//! * version-skewed frames are consumed whole (CRC before version) and
//!   answered with a typed error without closing the connection; every
//!   other parse failure answers once and closes after the flush;
//! * idle connections are reaped after `idle_timeout` counted from the
//!   last byte received; a peer silent *mid-frame* is cut after
//!   `stall_budget`;
//! * on drain, connections already in the kernel's accept queue are
//!   admitted before the listener closes; each connection then quiesces
//!   after one read-tick without new bytes, everything already buffered
//!   is answered, a `GoingAway` farewell is written, and stragglers are
//!   force-severed at `drain_deadline`.

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

use crate::server::{process_request, refuse, DrainReport, Shared};
use crate::wire::{self, Frame, FrameAssembler, Opcode, Request, Response, WireError};
use crate::CODE_UNAVAILABLE;

const LISTENER_KEY: usize = 0;
const WAKER_KEY: usize = 1;
/// Connection ids map to poller keys with this offset.
const CONN_KEY_BASE: u64 = 2;

/// A decoded request on its way to the worker pool.
struct Job {
    conn_id: u64,
    arrival: Instant,
    frame: Frame,
}

/// An encoded response on its way back to the event loop.
struct Completion {
    conn_id: u64,
    bytes: Vec<u8>,
}

/// One worker: decode body → deadline check → request engine → encode.
/// Exits when the job channel closes (the event loop exited).
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
        let Ok(job) = job else { return };
        let runtime = shared.registry.runtime();
        let request_id = job.frame.request_id;
        let response = match Request::from_frame(&job.frame) {
            // A valid frame with an undecodable body: framing is intact,
            // so answer and keep the connection.
            Err(e) => Response::Error {
                code: 4,
                message: format!("bad request body: {e}"),
            },
            Ok(request) => {
                let waited = job.arrival.elapsed();
                let budget = shared.config.deadline_for(job.frame.opcode);
                if waited > budget {
                    // Shed rather than serve stale: the client has either
                    // timed out already or would rather retry elsewhere.
                    runtime.deadlines_shed.fetch_add(1, Ordering::Relaxed);
                    Response::Deadline {
                        waited_ms: waited.as_millis().min(u128::from(u64::MAX)) as u64,
                        budget_ms: budget.as_millis().min(u128::from(u64::MAX)) as u64,
                    }
                } else {
                    process_request(&shared, request)
                }
            }
        };
        let bytes = wire::encode_frame(&response.to_frame().with_request_id(request_id));
        completions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Completion {
                conn_id: job.conn_id,
                bytes,
            });
        // One byte per completion; the event loop drains the pipe in bulk.
        let _ = (&*waker).write(&[1u8]);
    }
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    asm: FrameAssembler,
    /// Decoded frames (or recoverable/fatal parse errors) waiting for the
    /// worker, each stamped with its arrival time for the queue-wait
    /// deadline. Bounded by the in-flight window.
    inbox: VecDeque<(Instant, Result<Frame, WireError>)>,
    /// One request is in the worker pool; nothing else may be popped
    /// until its completion returns, preserving response order.
    in_worker: bool,
    outbuf: Vec<u8>,
    out_at: usize,
    last_byte_at: Instant,
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
    /// Retire once the inbox is served and the outbuf flushed.
    closing: bool,
    /// When `closing` began, bounding how long an unflushable outbuf may
    /// pin the connection.
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
            outbuf: Vec::new(),
            out_at: 0,
            last_byte_at: Instant::now(),
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

    fn queue_response_frame(&mut self, frame: &Frame) {
        self.queue_bytes(wire::encode_frame(frame));
    }

    /// Appends encoded frames to the outbuf; an empty outbuf (`out_at` is
    /// then 0) takes the buffer over instead of copying it.
    fn queue_bytes(&mut self, bytes: Vec<u8>) {
        if self.outbuf.is_empty() {
            self.outbuf = bytes;
        } else {
            self.outbuf.extend_from_slice(&bytes);
        }
    }

    fn flushed(&self) -> bool {
        self.out_at == self.outbuf.len()
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
                if let Some(conn) = self.conns.get_mut(&c.conn_id) {
                    conn.in_worker = false;
                    conn.queue_bytes(c.bytes);
                    touched.insert(c.conn_id);
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
                config.write_timeout,
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

    /// Pulls bytes off a readable socket into the assembler and extracts
    /// complete frames into the inbox, stopping at the in-flight window.
    fn read_conn(&mut self, conn_id: u64) {
        let window = self.shared.config.window.max(1);
        let runtime = self.shared.registry.runtime();
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        if conn.read_closed {
            return;
        }
        let mut buf = [0u8; 16 * 1024];
        loop {
            if conn.inbox.len() >= window {
                // Window full: stop pulling bytes. Whatever the client
                // keeps pipelining backs up in the kernel's TCP buffers.
                break;
            }
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    // EOF. Complete frames already buffered are still
                    // served (the peer may only have half-closed); if the
                    // trailing bytes are an incomplete frame, pump_conn
                    // queues the mid-frame error once extraction runs dry.
                    conn.count_disconnect(runtime);
                    conn.begin_close();
                    break;
                }
                Ok(n) => {
                    conn.last_byte_at = Instant::now();
                    conn.asm.push(&buf[..n]);
                    Reactor::extract_frames(conn, window);
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

    /// Moves complete frames from the assembler into the inbox, honouring
    /// the window bound and the error-recoverability contract.
    fn extract_frames(conn: &mut Conn, window: usize) {
        while conn.inbox.len() < window && !conn.parse_dead {
            match conn.asm.next_frame() {
                None => break,
                Some(Ok(frame)) => conn.inbox.push_back((Instant::now(), Ok(frame))),
                Some(Err(e)) => {
                    let recoverable = matches!(e, WireError::UnsupportedVersion { .. });
                    conn.inbox.push_back((Instant::now(), Err(e)));
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
            && conn.inbox.len() < window
            && conn.asm.partial_frame()
        {
            // EOF (or a hard read error) left an incomplete trailing
            // frame: a malformed-stream event, answered with a typed
            // error (best-effort) after everything complete before it.
            conn.parse_dead = true;
            conn.inbox.push_back((
                Instant::now(),
                Err(WireError::Io {
                    kind: ErrorKind::UnexpectedEof,
                    message: "peer closed mid-frame".to_string(),
                }),
            ));
        }
    }

    /// Writes as much of the outbuf as the socket accepts.
    fn flush_conn(&mut self, conn_id: u64) {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        while conn.out_at < conn.outbuf.len() {
            match conn.stream.write(&conn.outbuf[conn.out_at..]) {
                Ok(0) => {
                    conn.write_broken = true;
                    break;
                }
                Ok(n) => conn.out_at += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Client went away mid-response.
                    conn.write_broken = true;
                    break;
                }
            }
        }
        if conn.flushed() {
            conn.outbuf.clear();
            conn.out_at = 0;
        }
    }

    /// Advances one connection's state machine: extract buffered frames,
    /// pop the inbox (at most one request in the worker at a time), flush,
    /// update poller interest, and retire when done.
    fn pump_conn(&mut self, conn_id: u64) {
        let window = self.shared.config.window.max(1);
        let runtime = self.shared.registry.runtime();
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };

        Reactor::extract_frames(conn, window);
        while !conn.in_worker {
            let Some((arrival, item)) = conn.inbox.pop_front() else {
                break;
            };
            match item {
                Ok(frame) => {
                    if frame.opcode == Opcode::GoingAway {
                        // A clean departure: no response owed, no error
                        // frame, nothing after it served.
                        conn.count_disconnect(runtime);
                        conn.said_goodbye = true;
                        conn.inbox.clear();
                        conn.parse_dead = true;
                        conn.begin_close();
                        break;
                    }
                    conn.in_worker = true;
                    if self
                        .jobs_tx
                        .send(Job {
                            conn_id,
                            arrival,
                            frame,
                        })
                        .is_err()
                    {
                        // Workers are gone; the loop is exiting anyway.
                        conn.in_worker = false;
                        conn.begin_close();
                        break;
                    }
                }
                Err(e) => {
                    runtime.malformed.fetch_add(1, Ordering::Relaxed);
                    if matches!(e, WireError::UnsupportedVersion { .. }) {
                        // Consumed whole (CRC before version): answer the
                        // typed rejection and keep serving.
                        let resp = Response::Error {
                            code: 4,
                            message: e.to_string(),
                        };
                        conn.queue_response_frame(&resp.to_frame());
                        continue;
                    }
                    // Malformed frame, mid-frame EOF, or stall: answer
                    // once (best-effort) and close after the flush.
                    let resp = Response::Error {
                        code: 4,
                        message: format!("malformed frame: {e}"),
                    };
                    conn.queue_response_frame(&resp.to_frame());
                    conn.inbox.clear();
                    conn.parse_dead = true;
                    conn.begin_close();
                    break;
                }
            }
        }

        self.flush_conn(conn_id);
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
            readable: !conn.read_closed && conn.inbox.len() < window,
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
                    if !conn.flushed() && now.duration_since(since) >= config.write_timeout {
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
            if conn.inbox.len() >= window || conn.asm.frame_ready() {
                // Reading is paused by the in-flight window, not by the
                // peer: complete frames are waiting their turn, so the
                // peer is neither idle nor stalled. Keep the silence
                // clock parked so the timers restart from the moment
                // backpressure lifts, not from a byte we refused to read.
                conn.last_byte_at = now;
                continue;
            }
            let silent = now.duration_since(conn.last_byte_at);
            if conn.asm.partial_frame() {
                if silent >= config.stall_budget {
                    // A wedged or malicious sender mid-frame: cut it with
                    // a typed error.
                    runtime.stalled.fetch_add(1, Ordering::Relaxed);
                    conn.inbox.push_back((
                        now,
                        Err(WireError::Io {
                            kind: ErrorKind::TimedOut,
                            message: format!(
                                "peer stalled mid-frame past the {:?} budget",
                                config.stall_budget
                            ),
                        }),
                    ));
                    conn.parse_dead = true;
                    conn.begin_close();
                    touched.push(conn_id);
                }
            } else if draining {
                // One tick with no new bytes: the final sweep is done —
                // everything the client sent before the drain began is in
                // the inbox. Serve it, then say goodbye.
                if silent >= tick {
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
            let _ = conn
                .stream
                .set_write_timeout(Some(self.shared.config.write_timeout));
            let pending_ok = if conn.flushed() {
                true
            } else {
                conn.stream.write_all(&conn.outbuf[conn.out_at..]).is_ok()
            };
            let farewell = Response::GoingAway {
                message: "server draining".to_string(),
            };
            if pending_ok && wire::write_frame(&mut conn.stream, &farewell.to_frame()).is_ok() {
                runtime.drained.fetch_add(1, Ordering::Relaxed);
            }
        }
        let _ = conn.stream.shutdown(Shutdown::Both);
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

    let pool_size = match shared.config.worker_threads {
        0 => rbt_linalg::pool::default_threads(),
        n => n,
    }
    .max(1);
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
