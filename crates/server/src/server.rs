//! The TCP server: the [`Server`] front door, its configuration, and the
//! request engine the event loop in [`crate::reactor`] runs on its worker
//! pool — plus the fault-tolerance layer: deadlines, an idle reaper, a
//! connection cap, and graceful drain.
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
//! * an **idle connection** is reaped after
//!   [`ServerConfig::idle_timeout`]; a peer that goes silent *mid-frame*
//!   is cut after [`ServerConfig::stall_budget`] — no connection is ever
//!   held open forever;
//! * a request that waits in the window past its per-opcode deadline is
//!   **shed** with a typed `Deadline` frame instead of being served stale;
//! * past [`ServerConfig::max_conns`] active connections, new arrivals are
//!   refused with a typed `Error` (code 8, unavailable) frame instead of
//!   being admitted without bound.
//!
//! Graceful drain ([`Server::shutdown`]): the event loop admits every
//! connection already waiting in the kernel's accept queue, then closes
//! the listener. Each connection is read until one tick passes with no
//! new bytes, everything in its window is answered, a final `GoingAway`
//! frame is sent, and the socket closes. Connections that outlive
//! [`ServerConfig::drain_deadline`] are force-severed. The returned
//! [`DrainReport`] accounts for every connection ever admitted — the
//! chaos battery asserts `spawned == joined` to prove none leaks.
//!
//! Backpressure: a connection whose in-flight window is full stops being
//! read, so a client that pipelines more requests than the window
//! eventually blocks in the kernel's TCP buffers — memory on the server
//! stays bounded per connection.

use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use rbt_protocol::{FederationConfig, FederationHub, Message as FedMessage, ProtocolError};

use crate::keystore::KeyStore;
use crate::reactor::{self, ReactorHandle};
use crate::registry::{ServerError, SessionRegistry};
use crate::wire::{self, Opcode, Request, Response};

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
    /// Per-connection in-flight window (decoded requests buffered ahead
    /// of the worker pool).
    pub window: usize,
    /// Event-loop poll timeout: the granularity of the idle reaper, the
    /// stall detector, and drain quiescence.
    pub read_tick: Duration,
    /// Reap a connection after this long with no new frame.
    pub idle_timeout: Duration,
    /// Cut a peer that has been silent *mid-frame* for this long.
    pub stall_budget: Duration,
    /// Socket write timeout for responses.
    pub write_timeout: Duration,
    /// How long [`Server::shutdown`] waits for in-flight connections
    /// before force-severing them.
    pub drain_deadline: Duration,
    /// Maximum concurrent connections; arrivals past the cap are refused
    /// with a typed `Error` (code 8) frame.
    pub max_conns: usize,
    /// Queue-wait budget for data-plane requests (`LoadKey`, `Transform`,
    /// `Invert`, `ReloadKeys`).
    pub data_deadline: Duration,
    /// Queue-wait budget for control-plane requests (`Ping`, `Stats`,
    /// `EvictTenant`).
    pub control_deadline: Duration,
    /// Key store backing the `ReloadKeys` opcode; without one the opcode
    /// answers with a capability error.
    pub keystore: Option<Arc<KeyStore>>,
    /// Concurrent federated release sessions the embedded
    /// [`FederationHub`] admits; `FedOpen` past the cap is refused with a
    /// typed error.
    pub max_fed_sessions: usize,
    /// Worker threads for request compute; `0` (the default) sizes the
    /// pool with [`rbt_linalg::pool::default_threads`], which honours the
    /// `RBT_THREADS` environment variable.
    pub worker_threads: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            window: 8,
            read_tick: Duration::from_millis(50),
            idle_timeout: Duration::from_secs(60),
            stall_budget: Duration::from_secs(5),
            write_timeout: Duration::from_secs(10),
            drain_deadline: Duration::from_secs(5),
            max_conns: 256,
            data_deadline: Duration::from_secs(30),
            control_deadline: Duration::from_secs(10),
            keystore: None,
            max_fed_sessions: 16,
            worker_threads: 0,
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

/// Maps a federation protocol failure onto the wire error-code taxonomy:
/// codec failures are code 4, shape violations code 5, session/config
/// usage errors code 2, everything else (state-machine rejections, data
/// and method failures) code 3.
pub(crate) fn fed_error(e: &ProtocolError) -> Response {
    let code = match e {
        ProtocolError::Decode(_) => 4,
        ProtocolError::ShapeMismatch(_) => 5,
        ProtocolError::InvalidConfig(_)
        | ProtocolError::UnknownSession(_)
        | ProtocolError::SessionExists(_)
        | ProtocolError::OwnerOutOfRange { .. }
        | ProtocolError::SessionMismatch { .. } => 2,
        _ => 3,
    };
    Response::Error {
        code,
        message: format!("federation: {e}"),
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
        Request::Transform { tenant, batch } => match registry.transform(&tenant, &batch) {
            Ok((released, out_of_range_rows)) => Response::Transformed {
                released,
                out_of_range_rows,
            },
            Err(e) => error_response(&e),
        },
        Request::Invert { tenant, batch } => match registry.invert(&tenant, &batch) {
            Ok(recovered) => Response::Inverted { recovered },
            Err(e) => error_response(&e),
        },
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
        Request::FedOpen { config } => {
            let mut r = rbt_linalg::codec::ByteReader::new(&config);
            match FederationConfig::decode_from(&mut r).and_then(|cfg| {
                r.expect_end()?;
                Ok(cfg)
            }) {
                Ok(cfg) => {
                    let session = cfg.session;
                    match shared.hub.lock().open(cfg) {
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
            match shared.hub.lock().exchange(session, owner, decoded) {
                Ok(outbound) => Response::FedMsgs {
                    messages: outbound.iter().map(FedMessage::encode).collect(),
                },
                Err(e) => fed_error(&e),
            }
        }
        Request::FedResult { session } => match shared.hub.lock().result(session) {
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
            existed: shared.hub.lock().close(session),
        },
        // Goodbye is intercepted by the event loop before this point.
        Request::Goodbye => Response::GoingAway {
            message: "goodbye".to_string(),
        },
    }
}

/// Writes a best-effort refusal frame on a connection that will not be
/// served, then closes it.
pub(crate) fn refuse(mut stream: TcpStream, response: Response, write_timeout: Duration) {
    let _ = stream.set_write_timeout(Some(write_timeout));
    let _ = stream.set_nodelay(true);
    let _ = wire::write_frame(&mut stream, &response.to_frame());
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
        let hub = Mutex::new(FederationHub::new(config.max_fed_sessions));
        let shared = Arc::new(Shared {
            registry,
            config,
            draining: AtomicBool::new(false),
            spawned: AtomicU64::new(0),
            finished: AtomicU64::new(0),
            hub,
        });
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
