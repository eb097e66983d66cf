//! The TCP server: the [`Server`] front door, its configuration, and the
//! request engine, which answers every request inside the frame it was
//! read into — on the event loop in [`crate::reactor`] for pings and the
//! federation hub's bookkeeping (`answer_on_loop`), on its worker pool for
//! everything else (`serve`, which releases an RBT or hybrid-isometry
//! batch in one pass over its frame's cells through the tenant's
//! [`RowKernels`](rbt_core::RowKernels)) — plus the fault-tolerance layer:
//! deadlines, an idle reaper, a connection cap, and graceful drain.
//!
//! Fault containment is the design center, mirroring the codec's
//! reject-don't-crash contract at the connection level:
//!
//! * a **malformed frame** (bad magic, checksum mismatch, oversized
//!   length…) desynchronizes the byte stream, so the server sends one
//!   typed `Error` frame and closes *that connection* — the listener and
//!   every other connection keep serving;
//! * a **well-framed but undecodable body** does not desynchronize
//!   framing, so the server answers with an `Error` response and keeps the
//!   connection open;
//! * a **disconnect** mid-frame or mid-response just retires the
//!   connection; the registry (a non-poisoning lock) is untouched;
//! * an **idle connection** — one that sends no byte and takes no whole
//!   answer, also while its unread answers fill the window — is reaped
//!   after [`ServerConfig::idle_timeout`]; a peer that goes silent
//!   *mid-frame* is cut after [`ServerConfig::stall_budget`] — no
//!   connection is ever held open forever;
//! * a request that waits in the window past its per-opcode deadline is
//!   **shed** with a typed `Deadline` frame instead of being served stale;
//! * past [`ServerConfig::max_conns`] active connections, new arrivals are
//!   refused with a typed `Error` (code 8, unavailable) frame instead of
//!   being admitted without bound.
//!
//! Graceful drain ([`Server::shutdown`]): the event loop admits every
//! connection already waiting in the kernel's accept queue, then closes
//! the listener. Each connection is read until one tick passes with no
//! new bytes and no answer taken, everything in its window is answered, a
//! final `GoingAway` frame is sent, and the socket closes. Connections that outlive
//! [`ServerConfig::drain_deadline`] are force-severed. The returned
//! [`DrainReport`] accounts for every connection ever admitted — the
//! chaos battery asserts `spawned == joined` to prove none leaks.
//!
//! Backpressure: a connection is read only while its extracted requests,
//! the one in a worker and its answers not yet written number fewer than
//! [`ServerConfig::window`]. A client that pipelines past the window, or
//! reads none of its answers, blocks in the kernel's TCP buffers, and the
//! daemon holds at most `window` request or answer frames for it plus the
//! one its frame assembler is reading into (flushed frame buffers go to a
//! free list of at most 8, shared by every connection) — memory on the
//! server stays bounded per connection. A client with more than `window`
//! requests outstanding must therefore read its answers while it sends.

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use rbt_api::{FittedTransform, RbtError};
use rbt_linalg::codec::ByteReader;
use rbt_protocol::{FederationConfig, FederationHub, Message as FedMessage, ProtocolError};

use crate::keystore::KeyStore;
use crate::reactor::{self, ReactorHandle};
use crate::registry::{ServerError, SessionRegistry};
use crate::wire::{BatchRequest, Frame, Opcode, Request, Response, WireError};

/// Socket write timeout for responses and refusal frames.
pub(crate) const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Concurrent federated release sessions the embedded [`FederationHub`]
/// admits; `FedOpen` past the cap is refused with a typed error.
const MAX_FED_SESSIONS: usize = 16;

/// Mid-run connection accounting, exposed by [`Server::accounting`] so
/// tests can assert lifecycle invariants (live count bounded, every
/// connection retired) *while the server runs*, not only at shutdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnAccounting {
    /// Connections admitted over the server's lifetime.
    pub spawned: u64,
    /// Connections fully retired (socket closed, resources reclaimed).
    pub finished: u64,
    /// Connections currently being served (`spawned - finished`).
    pub live: u64,
}

/// Tuning for the serving core's fault-tolerance layer. The defaults are
/// production-shaped; tests shrink them to make timeouts observable.
#[derive(Clone)]
pub struct ServerConfig {
    /// Per-connection in-flight window: a connection is read only while
    /// its extracted requests, the one in a worker and its answers not yet
    /// written number fewer than this, so a peer — even one that reads
    /// none of its answers — holds at most `window` frames on the daemon's
    /// heap.
    pub window: usize,
    /// Event-loop poll timeout: the granularity of the idle reaper, the
    /// stall detector, and drain quiescence.
    pub read_tick: Duration,
    /// Reap a connection after this long without a byte received or a
    /// whole answer taken.
    pub idle_timeout: Duration,
    /// Cut a peer that has been silent *mid-frame* for this long.
    pub stall_budget: Duration,
    /// How long [`Server::shutdown`] waits for in-flight connections
    /// before force-severing them.
    pub drain_deadline: Duration,
    /// Maximum concurrent connections; arrivals past the cap are refused
    /// with a typed `Error` (code 8) frame.
    pub max_conns: usize,
    /// Queue-wait budget for data-plane requests (`LoadKey`, `Transform`,
    /// `Invert`, `ReloadKeys`, `FedOpen`, `FedMsg`).
    pub data_deadline: Duration,
    /// Queue-wait budget for control-plane requests (`Ping`, `Stats`,
    /// `EvictTenant`, `FedResult`, `FedClose`).
    pub control_deadline: Duration,
    /// Key store backing the `ReloadKeys` opcode; without one the opcode
    /// answers with a capability error.
    pub keystore: Option<Arc<KeyStore>>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            window: 8,
            read_tick: Duration::from_millis(50),
            idle_timeout: Duration::from_secs(60),
            stall_budget: Duration::from_secs(5),
            drain_deadline: Duration::from_secs(5),
            max_conns: 256,
            data_deadline: Duration::from_secs(30),
            control_deadline: Duration::from_secs(10),
            keystore: None,
        }
    }
}

impl ServerConfig {
    /// The queue-wait budget for a request opcode.
    pub fn deadline_for(&self, opcode: Opcode) -> Duration {
        match opcode {
            Opcode::LoadKey
            | Opcode::Transform
            | Opcode::Invert
            | Opcode::ReloadKeys
            | Opcode::FedOpen
            | Opcode::FedMsg => self.data_deadline,
            _ => self.control_deadline,
        }
    }
}

/// What a completed [`Server::shutdown`] drain did, for leak accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Connections admitted over the server's lifetime.
    pub spawned: u64,
    /// Connections retired by the end of the drain — the chaos battery
    /// asserts this equals `spawned` (no connection leaks).
    pub joined: u64,
    /// Connections force-severed at the drain deadline.
    pub forced: u64,
}

/// State shared by the event loop, the worker pool, and the [`Server`]
/// handle.
pub(crate) struct Shared {
    pub(crate) registry: Arc<SessionRegistry>,
    pub(crate) config: ServerConfig,
    pub(crate) draining: AtomicBool,
    pub(crate) spawned: AtomicU64,
    pub(crate) finished: AtomicU64,
    /// Hosts federated release sessions behind the `Fed*` opcodes.
    pub(crate) hub: Mutex<FederationHub>,
}

impl Shared {
    /// Fresh state for a server about to start: no connection admitted
    /// and an empty hub.
    pub(crate) fn new(registry: Arc<SessionRegistry>, config: ServerConfig) -> Shared {
        Shared {
            registry,
            config,
            draining: AtomicBool::new(false),
            spawned: AtomicU64::new(0),
            finished: AtomicU64::new(0),
            hub: Mutex::new(FederationHub::new(MAX_FED_SESSIONS)),
        }
    }

    /// Marks one connection fully retired.
    pub(crate) fn retire_conn(&self) {
        self.finished.fetch_add(1, Ordering::SeqCst);
    }
}

/// How the server answers a failed request.
fn error_response(e: &ServerError) -> Response {
    Response::Error {
        code: e.code(),
        message: e.to_string(),
    }
}

/// Maps a federation protocol failure onto the wire error-code taxonomy
/// ([`ProtocolError::code`]).
pub(crate) fn fed_error(e: &ProtocolError) -> Response {
    Response::Error {
        code: e.code(),
        message: format!("federation: {e}"),
    }
}

/// A `Deadline` answer when a request of `opcode` that arrived at
/// `arrival` has waited past its budget: shed rather than serve stale,
/// since the client has either timed out already or would rather retry
/// elsewhere.
fn shed(shared: &Shared, opcode: Opcode, arrival: Instant) -> Option<Response> {
    let waited = arrival.elapsed();
    let budget = shared.config.deadline_for(opcode);
    if waited <= budget {
        return None;
    }
    let runtime = shared.registry.runtime();
    runtime.deadlines_shed.fetch_add(1, Ordering::Relaxed);
    Some(Response::Deadline {
        waited_ms: waited.as_millis().min(u128::from(u64::MAX)) as u64,
        budget_ms: budget.as_millis().min(u128::from(u64::MAX)) as u64,
    })
}

/// The typed answer to a well-framed body that did not decode: framing is
/// intact, so the connection stays open.
fn bad_body(e: &WireError) -> Response {
    Response::Error {
        code: 4,
        message: format!("bad request body: {e}"),
    }
}

/// Answers, on the event loop and inside the frame, a request that
/// arrived at `arrival` when its work is proportional to the bytes it
/// moves: a `Ping`, and the hub's bookkeeping — `FedOpen`, `FedResult`,
/// `FedClose` and a `FedMsg` poll — while no worker holds the hub. The hub
/// is tried first, so bookkeeping that finds it held comes back undecoded
/// and is decoded once, on a worker; otherwise the request is decoded
/// here, and a body that does not decode and a request past its deadline
/// are answered as [`serve`] answers them. Any other frame comes back
/// undecoded for the worker pool: a batch, `LoadKey`, `ReloadKeys`,
/// `Stats` and `EvictTenant` (the registry lock, held across a key decode
/// on an LRU miss), and a `FedMsg` that delivers messages (a party's state
/// machine, which may run the receiver's clustering). The loop never waits
/// on a lock.
pub(crate) fn answer_on_loop(
    shared: &Shared,
    frame: Frame,
    arrival: Instant,
) -> Result<Frame, Frame> {
    let bookkeeping = match frame.opcode {
        Opcode::Ping => false,
        Opcode::FedOpen | Opcode::FedResult | Opcode::FedClose => true,
        Opcode::FedMsg if Request::is_fed_poll(frame.view()) => true,
        _ => return Err(frame),
    };
    let response = {
        let hub = match bookkeeping.then(|| shared.hub.try_lock()) {
            Some(None) => return Err(frame),
            tried => tried.flatten(),
        };
        match Request::from_view(frame.view()) {
            Err(e) => bad_body(&e),
            Ok(request) => match (shed(shared, request.opcode(), arrival), hub) {
                (Some(stale), _) => stale,
                (None, Some(mut hub)) => serve_federation(&mut hub, request),
                (None, None) => Response::Pong,
            },
        }
    };
    Ok(frame.answer(&response))
}

/// Answers, on a worker and inside the frame, a request that arrived at
/// `arrival`. A `Transform` or `Invert` for a tenant whose release has row
/// kernels of the batch's width (RBT and hybrid isometry) is released
/// inside the frame, one pass over its cells, and the frame is rewritten
/// into the answer: the rows are never copied into a matrix or out of one.
/// Anything else is decoded from the frame: a body that does not decode is
/// refused with a typed error (framing is intact, so the connection
/// stays), a request past its deadline is shed, and the rest is served by
/// [`process_request`].
pub(crate) fn serve(shared: &Shared, frame: Frame, arrival: Instant) -> Frame {
    match BatchRequest::parse(frame) {
        Ok(batch) => serve_batch(shared, batch, arrival),
        Err(frame) => {
            let response = match Request::from_view(frame.view()) {
                Ok(request) => shed(shared, request.opcode(), arrival)
                    .unwrap_or_else(|| process_request(shared, request)),
                Err(e) => bad_body(&e),
            };
            frame.answer(&response)
        }
    }
}

/// [`serve`] for a parsed batch: shed if stale, released inside its frame
/// through the tenant's row kernels when they are of the batch's width,
/// and otherwise decoded and served by [`process_request`].
fn serve_batch(shared: &Shared, mut batch: BatchRequest, arrival: Instant) -> Frame {
    if let Some(stale) = shed(shared, batch.opcode(), arrival) {
        return batch.into_frame().answer(&stale);
    }
    let registry = &shared.registry;
    let live = registry.checkout(batch.tenant()).ok();
    let kernels = live
        .as_deref()
        .and_then(FittedTransform::row_kernels)
        .filter(|kernels| kernels.n_cols() == batch.n_cols());
    let Some(kernels) = kernels else {
        let frame = batch.into_frame();
        let response = match Request::from_view(frame.view()) {
            Ok(request) => process_request(shared, request),
            Err(e) => bad_body(&e),
        };
        return frame.answer(&response);
    };
    let start = Instant::now();
    let forward = batch.opcode() == Opcode::Transform;
    let released = if forward {
        kernels.forward_rows(batch.cells())
    } else {
        kernels.inverse_rows(batch.cells()).map(|()| 0)
    };
    let drift_rows = match released {
        Ok(drift_rows) => drift_rows as u64,
        Err(e) => {
            let error = ServerError::Rbt(RbtError::from(e));
            return batch.into_frame().answer(&error_response(&error));
        }
    };
    if forward {
        registry.note(batch.tenant(), batch.n_rows() as u64, drift_rows, start);
        batch.into_transformed(kernels.suppresses_ids(), drift_rows)
    } else {
        registry.note(batch.tenant(), 0, 0, start);
        batch.into_inverted()
    }
}

/// Serves one decoded request.
pub(crate) fn process_request(shared: &Shared, request: Request) -> Response {
    let registry = &shared.registry;
    match request {
        Request::LoadKey { tenant, key_bytes } => match registry.load_key(&tenant, key_bytes) {
            Ok((method, n_attributes)) => Response::Loaded {
                method,
                n_attributes: n_attributes as u64,
            },
            Err(e) => error_response(&e),
        },
        // The request's own batch becomes the answer: released in place.
        Request::Transform { tenant, mut batch } => {
            match registry.transform_in_place(&tenant, &mut batch) {
                Ok(out_of_range_rows) => Response::Transformed {
                    released: batch,
                    out_of_range_rows,
                },
                Err(e) => error_response(&e),
            }
        }
        Request::Invert { tenant, mut batch } => {
            match registry.invert_in_place(&tenant, &mut batch) {
                Ok(()) => Response::Inverted { recovered: batch },
                Err(e) => error_response(&e),
            }
        }
        Request::Stats => Response::Stats(registry.stats()),
        Request::EvictTenant { tenant } => Response::Evicted {
            existed: registry.evict(&tenant),
        },
        Request::Ping => Response::Pong,
        Request::ReloadKeys => match &shared.config.keystore {
            Some(store) => match store.load_into(registry) {
                Ok(report) => {
                    registry.runtime().reloads.fetch_add(1, Ordering::Relaxed);
                    Response::Reloaded {
                        loaded: report.loaded,
                        quarantined: report.quarantined,
                    }
                }
                Err(e) => Response::Error {
                    code: 3,
                    message: format!("key directory reload failed: {e}"),
                },
            },
            None => Response::Error {
                code: 7,
                message: "this server was not started with a key store".to_string(),
            },
        },
        request @ (Request::FedOpen { .. }
        | Request::FedMsg { .. }
        | Request::FedResult { .. }
        | Request::FedClose { .. }) => serve_federation(&mut shared.hub.lock(), request),
        // Goodbye is intercepted by the event loop before this point.
        Request::Goodbye => Response::GoingAway {
            message: "goodbye".to_string(),
        },
    }
}

/// Serves one `Fed*` request against the hub. The callers pass no other
/// request: [`process_request`] under the hub's lock, [`answer_on_loop`]
/// only when it got the lock without waiting.
fn serve_federation(hub: &mut FederationHub, request: Request) -> Response {
    match request {
        Request::FedOpen { config } => {
            match ByteReader::decode_all(&config, FederationConfig::decode_from) {
                Ok(cfg) => {
                    let session = cfg.session;
                    match hub.open(cfg) {
                        Ok(()) => Response::FedOpened { session },
                        Err(e) => fed_error(&e),
                    }
                }
                Err(e) => Response::Error {
                    code: 4,
                    message: format!("federation: undecodable session config: {e}"),
                },
            }
        }
        Request::FedMsg {
            session,
            owner,
            messages,
        } => {
            let mut decoded = Vec::with_capacity(messages.len());
            for bytes in &messages {
                match FedMessage::decode(bytes) {
                    Ok(msg) => decoded.push(msg),
                    Err(e) => return fed_error(&ProtocolError::Decode(e)),
                }
            }
            match hub.exchange(session, owner, decoded) {
                Ok(outbound) => Response::FedMsgs {
                    messages: outbound.iter().map(FedMessage::encode).collect(),
                },
                Err(e) => fed_error(&e),
            }
        }
        Request::FedResult { session } => match hub.result(session) {
            Ok(Some(summary)) => Response::FedSummary {
                summary: Some(
                    FedMessage::JointDataset {
                        session,
                        summary: summary.clone(),
                    }
                    .encode(),
                ),
            },
            Ok(None) => Response::FedSummary { summary: None },
            Err(e) => fed_error(&e),
        },
        Request::FedClose { session } => Response::FedClosed {
            existed: hub.close(session),
        },
        other => unreachable!("{:?} is not a federation request", other.opcode()),
    }
}

/// Writes a best-effort refusal frame on a connection that will not be
/// served, then closes it.
pub(crate) fn refuse(mut stream: TcpStream, response: Response) {
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut frame = Vec::new();
    response.encode_into(0, &mut frame);
    let _ = stream.write_all(&frame);
    let _ = stream.shutdown(Shutdown::Both);
}

/// A running release server. [`shutdown`](Server::shutdown) drains
/// gracefully; dropping the handle severs every open connection.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: ReactorHandle,
}

impl Server {
    /// Binds `addr` and starts accepting with default tuning and the
    /// given per-connection in-flight `window`. See
    /// [`spawn_with`](Server::spawn_with) for full control.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn spawn(
        addr: &str,
        registry: Arc<SessionRegistry>,
        window: usize,
    ) -> std::io::Result<Server> {
        Server::spawn_with(
            addr,
            registry,
            ServerConfig {
                window,
                ..ServerConfig::default()
            },
        )
    }

    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving under `config`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn spawn_with(
        addr: &str,
        registry: Arc<SessionRegistry>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let shared = Arc::new(Shared::new(registry, config));
        let (addr, reactor) = reactor::spawn(addr, Arc::clone(&shared))?;
        Ok(Server {
            addr,
            shared,
            reactor,
        })
    }

    /// The bound address (with the OS-assigned port when spawned on
    /// port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared registry this server serves from.
    pub fn registry(&self) -> &Arc<SessionRegistry> {
        &self.shared.registry
    }

    /// Mid-run connection accounting: admissions, retirements, and the
    /// live count. Valid at any point in the server's life, so tests can
    /// assert lifecycle invariants under churn rather than only after
    /// [`Server::shutdown`].
    pub fn accounting(&self) -> ConnAccounting {
        let spawned = self.shared.spawned.load(Ordering::SeqCst);
        let finished = self.shared.finished.load(Ordering::SeqCst);
        ConnAccounting {
            spawned,
            finished,
            live: spawned.saturating_sub(finished),
        }
    }

    /// Blocks until the event loop exits. Used by `rbt-cli serve`.
    pub fn wait(mut self) {
        self.reactor.wait();
    }

    /// Gracefully drains the server: admits the connections already
    /// queued on the listener and stops accepting, lets every in-flight
    /// request in the bounded window complete (up to
    /// [`ServerConfig::drain_deadline`]), sends each surviving client a
    /// `GoingAway` frame, force-severs stragglers at the deadline, and
    /// retires every connection. The report accounts for every connection
    /// ever admitted, so callers can assert nothing leaked.
    pub fn shutdown(mut self) -> DrainReport {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.reactor.shutdown(&self.shared)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reactor.abort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbt_core::{PairwiseSecurityThreshold, RbtConfig};
    use rbt_data::{Dataset, Normalization};
    use rbt_linalg::codec::ByteWriter;
    use rbt_linalg::Matrix;
    use rbt_protocol::KeyPolicy;

    fn shared() -> Shared {
        Shared::new(Arc::new(SessionRegistry::new(4)), ServerConfig::default())
    }

    fn config_bytes(session: u64) -> Vec<u8> {
        let config = FederationConfig {
            session,
            n_cols: 4,
            owners: 2,
            normalization: Normalization::zscore_paper(),
            rbt: RbtConfig::uniform(PairwiseSecurityThreshold::new(0.2, 0.2).unwrap()),
            key_policy: KeyPolicy::Shared,
            seed: 5,
            kmeans_k: 3,
            kmeans_max_iters: 128,
        };
        let mut w = ByteWriter::new();
        config.encode_into(&mut w);
        w.into_bytes()
    }

    /// `Ping`, and the hub's bookkeeping over one session's life, with the
    /// typed failures of each: what the event loop may answer.
    fn bookkeeping() -> Vec<Request> {
        let fed_msg = |session, owner| Request::FedMsg {
            session,
            owner,
            messages: Vec::new(),
        };
        vec![
            Request::Ping,
            Request::FedOpen {
                config: config_bytes(7),
            },
            Request::FedOpen {
                config: config_bytes(7),
            },
            Request::FedOpen {
                config: vec![1, 2, 3],
            },
            fed_msg(7, 0),
            fed_msg(7, 0),
            fed_msg(7, 1),
            fed_msg(7, 9),
            fed_msg(8, 0),
            Request::FedResult { session: 7 },
            Request::FedResult { session: 8 },
            Request::FedClose { session: 7 },
            Request::FedClose { session: 7 },
            fed_msg(7, 0),
        ]
    }

    /// What only a worker may serve.
    fn worker_requests() -> Vec<Request> {
        let batch = Dataset::new(
            Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap(),
            vec!["a".to_string(), "b".to_string()],
        )
        .unwrap();
        vec![
            Request::Transform {
                tenant: "t".to_string(),
                batch: batch.clone(),
            },
            Request::Invert {
                tenant: "t".to_string(),
                batch,
            },
            Request::LoadKey {
                tenant: "t".to_string(),
                key_bytes: vec![1, 2, 3],
            },
            Request::Stats,
            Request::EvictTenant {
                tenant: "t".to_string(),
            },
            Request::ReloadKeys,
            Request::FedMsg {
                session: 7,
                owner: 0,
                messages: vec![vec![0; 16]],
            },
        ]
    }

    fn frame(request: &Request) -> Frame {
        request.to_frame().with_request_id(42)
    }

    fn encoded(response: &Response) -> Vec<u8> {
        let mut frame = Vec::new();
        response.encode_into(42, &mut frame);
        frame
    }

    /// Well-framed bodies that do not decode, under each opcode the loop
    /// decodes.
    fn undecodable() -> Vec<Frame> {
        [
            (Opcode::Ping, vec![1]),
            (Opcode::FedOpen, vec![1, 2]),
            (Opcode::FedResult, vec![0; 7]),
            (Opcode::FedClose, vec![0; 9]),
        ]
        .into_iter()
        .map(|(opcode, body)| Frame::new(opcode, body).with_request_id(42))
        .collect()
    }

    #[test]
    fn bookkeeping_answered_on_the_loop_equals_the_workers_answer() {
        let (on_loop, on_worker) = (shared(), shared());
        for request in bookkeeping() {
            let what = format!("{request:?}");
            let answer = answer_on_loop(&on_loop, frame(&request), Instant::now())
                .unwrap_or_else(|_| panic!("{what}: given back with the hub free"));
            let served = process_request(&on_worker, request);
            assert_eq!(answer.as_bytes(), encoded(&served), "{what}");
        }
        for frame in undecodable() {
            let what = format!("{frame:?}");
            let answer = answer_on_loop(&on_loop, frame.clone(), Instant::now())
                .unwrap_or_else(|_| panic!("{what}: given back"));
            let e = Request::from_frame(&frame).unwrap_err();
            assert_eq!(answer.as_bytes(), encoded(&bad_body(&e)), "{what}");
        }
    }

    #[test]
    fn the_loop_answers_a_frame_as_a_worker_would() {
        let (on_loop, on_worker) = (shared(), shared());
        let requests = bookkeeping();
        for frame in requests.iter().map(frame).chain(undecodable()) {
            let what = format!("{frame:?}");
            let answer = answer_on_loop(&on_loop, frame.clone(), Instant::now())
                .unwrap_or_else(|_| panic!("{what}: given back with the hub free"));
            let served = serve(&on_worker, frame, Instant::now());
            assert_eq!(answer.as_bytes(), served.as_bytes(), "{what}");
        }
    }

    #[test]
    fn bookkeeping_goes_to_the_workers_while_one_holds_the_hub() {
        let shared = shared();
        let _held = shared.hub.lock();
        for request in bookkeeping() {
            match answer_on_loop(&shared, frame(&request), Instant::now()) {
                Ok(answer) if request == Request::Ping => {
                    assert_eq!(answer.as_bytes(), encoded(&Response::Pong))
                }
                Err(back) => assert_eq!(back, frame(&request), "{request:?}"),
                Ok(answer) => panic!("{request:?} answered on the loop: {answer:?}"),
            }
        }
    }

    /// With the hub held, the loop decodes no bookkeeping: each of the
    /// four kinds comes back with its bytes, whether its body decodes or
    /// not, and a worker then answers it as the loop would have with the
    /// hub free. A `Ping` needs no hub and is still answered.
    #[test]
    fn bookkeeping_found_held_comes_back_undecoded() {
        let (held, free) = (shared(), shared());
        let kinds = [
            Request::FedOpen {
                config: config_bytes(7),
            },
            Request::FedMsg {
                session: 7,
                owner: 0,
                messages: Vec::new(),
            },
            Request::FedResult { session: 7 },
            Request::FedClose { session: 7 },
        ];
        let (pings, bookkeeping): (Vec<Frame>, Vec<Frame>) = kinds
            .iter()
            .chain([&Request::Ping])
            .map(frame)
            .chain(undecodable())
            .partition(|frame| frame.opcode == Opcode::Ping);
        let guard = held.hub.lock();
        for frame in &bookkeeping {
            let back = answer_on_loop(&held, frame.clone(), Instant::now());
            assert_eq!(back.as_ref(), Err(frame), "{frame:?}");
        }
        for ping in pings {
            let answer = answer_on_loop(&held, ping.clone(), Instant::now());
            let free_answer = answer_on_loop(&free, ping.clone(), Instant::now());
            assert_eq!(answer, free_answer, "{ping:?}");
            assert!(answer.is_ok(), "{ping:?}");
        }
        drop(guard);
        for frame in bookkeeping {
            let what = format!("{frame:?}");
            let served = serve(&held, frame.clone(), Instant::now());
            let on_loop = answer_on_loop(&free, frame, Instant::now())
                .unwrap_or_else(|_| panic!("{what}: given back with the hub free"));
            assert_eq!(served.as_bytes(), on_loop.as_bytes(), "{what}");
        }
    }

    #[test]
    fn the_loop_gives_back_what_only_a_worker_serves() {
        let shared = shared();
        for hub_held in [false, true] {
            let _held = hub_held.then(|| shared.hub.lock());
            for request in worker_requests() {
                let answer = answer_on_loop(&shared, frame(&request), Instant::now());
                assert_eq!(answer, Err(frame(&request)), "hub held: {hub_held}");
            }
        }
    }

    /// The loop sheds a stale request it would answer; a stale request
    /// for a worker goes to the worker, which sheds it.
    #[test]
    fn a_request_past_its_deadline_is_shed() {
        let shared = shared();
        let arrival = Instant::now()
            .checked_sub(shared.config.data_deadline + Duration::from_secs(1))
            .unwrap();
        let _held = shared.hub.lock();
        for request in worker_requests().into_iter().chain(bookkeeping()) {
            let what = format!("{request:?}");
            let answer = match answer_on_loop(&shared, frame(&request), arrival) {
                Ok(answer) => {
                    assert!(!worker_requests().contains(&request), "{what} on the loop");
                    answer
                }
                Err(frame) => serve(&shared, frame, arrival),
            };
            match Response::from_frame(&answer) {
                Ok(Response::Deadline { budget_ms, .. }) => {
                    assert!(budget_ms <= shared.config.data_deadline.as_millis() as u64)
                }
                other => panic!("{what}: expected a Deadline answer, got {other:?}"),
            }
            assert_eq!(answer.request_id, 42, "{what}");
        }
    }
}
