//! A blocking, *resilient* client for the `RBTW` protocol.
//!
//! One request, one response, in order, over a plain `TcpStream` — but
//! unlike a naive client, transport failures are not the end of the
//! world:
//!
//! * **reconnect with backoff** — a dead or refused connection is retried
//!   with exponential backoff plus deterministic jitter, re-resolving the
//!   server address each attempt (so a restarted server on a new port is
//!   found via an address provider);
//! * **idempotent retry** — requests carry a per-request id echoed by the
//!   server; a request whose outcome is unknown (connection died
//!   mid-call) is retried only when [`Request::is_idempotent`] says a
//!   replay is safe, and a response is only accepted if its echoed id
//!   matches;
//! * **circuit breaker** — after [`RetryPolicy::breaker_threshold`]
//!   consecutive transport failures the client fails fast for
//!   [`RetryPolicy::breaker_cooldown`] instead of hammering a dead
//!   server; the first call after the cooldown is the half-open probe;
//! * **clean goodbye** — sockets get `TCP_NODELAY` and explicit
//!   read/write timeouts, and `Drop` sends a `Goodbye` frame so the
//!   server sees a clean departure instead of an RST.

use std::fmt;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::thread;
use std::time::{Duration, Instant};

use rbt_data::Dataset;

use crate::metrics::ServerStats;
use crate::wire::{self, Request, Response, WireError, CODE_UNAVAILABLE};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// The wire layer rejected something (or the stream failed).
    Wire(WireError),
    /// The server answered with a typed `Error` frame.
    Server {
        /// Error-family code (matches the CLI exit-code taxonomy).
        code: u8,
        /// Server-side detail.
        message: String,
    },
    /// The server closed the connection before answering.
    Disconnected,
    /// The server announced it is draining (`GoingAway`) and will not
    /// answer further requests on this connection.
    GoingAway {
        /// Server-side detail.
        message: String,
    },
    /// The server shed the request because it waited past its deadline.
    Deadline {
        /// How long the request had waited server-side, milliseconds.
        waited_ms: u64,
        /// The budget it exceeded, milliseconds.
        budget_ms: u64,
    },
    /// The circuit breaker is open: recent calls failed repeatedly, so
    /// this call failed fast without touching the network.
    CircuitOpen {
        /// Consecutive transport failures that opened the breaker.
        failures: u32,
    },
    /// The server answered with a response of the wrong kind for the
    /// request — a protocol bug, not an I/O failure.
    Unexpected {
        /// What the caller was waiting for.
        expected: &'static str,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error (code {code}): {message}")
            }
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::GoingAway { message } => {
                write!(f, "server going away: {message}")
            }
            ClientError::Deadline {
                waited_ms,
                budget_ms,
            } => write!(
                f,
                "request shed after waiting {waited_ms}ms (budget {budget_ms}ms)"
            ),
            ClientError::CircuitOpen { failures } => write!(
                f,
                "circuit breaker open after {failures} consecutive failures"
            ),
            ClientError::Unexpected { expected } => {
                write!(f, "unexpected response kind, wanted {expected}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// Client result alias.
pub type ClientResult<T> = std::result::Result<T, ClientError>;

/// Retry, backoff, and circuit-breaker tuning.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Attempts per call beyond the first (0 disables retry).
    pub max_retries: u32,
    /// First backoff sleep; doubles per attempt.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter applied to each backoff sleep.
    pub jitter_seed: u64,
    /// Consecutive transport failures that open the circuit breaker.
    pub breaker_threshold: u32,
    /// How long the breaker stays open before a half-open probe.
    pub breaker_cooldown: Duration,
    /// Socket read timeout (bounds how long a call waits on a wedged
    /// server).
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 4,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(2),
            jitter_seed: 0x5EED_CAFE,
            breaker_threshold: 8,
            breaker_cooldown: Duration::from_secs(1),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
        }
    }
}

impl RetryPolicy {
    /// A policy with retries disabled (one shot, like the pre-resilience
    /// client).
    pub fn no_retries() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }
}

/// Where the client finds the server: a fixed address, or a provider
/// callback re-queried on every reconnect (how the chaos battery follows
/// a server restarted on a new port).
enum AddrSource {
    Fixed(SocketAddr),
    Provider(Box<dyn FnMut() -> SocketAddr + Send>),
}

impl AddrSource {
    fn current(&mut self) -> SocketAddr {
        match self {
            AddrSource::Fixed(addr) => *addr,
            AddrSource::Provider(f) => f(),
        }
    }
}

/// Client-side resilience counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientMetrics {
    /// Requests retried after a transport-class failure.
    pub retries: u64,
    /// Reconnect attempts (successful or not).
    pub reconnects: u64,
    /// Calls failed fast by the open circuit breaker.
    pub breaker_fast_fails: u64,
}

/// A blocking, resilient connection to an [`rbt-server`](crate) daemon.
pub struct Client {
    addr: AddrSource,
    stream: Option<TcpStream>,
    policy: RetryPolicy,
    next_request_id: u64,
    /// xorshift state for deterministic backoff jitter.
    jitter: u64,
    consecutive_failures: u32,
    breaker_opened_at: Option<Instant>,
    metrics: ClientMetrics,
}

impl Client {
    /// Connects to a running server with the default [`RetryPolicy`].
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] wrapping the connect failure.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> ClientResult<Client> {
        Client::connect_with(addr, RetryPolicy::default())
    }

    /// Connects with an explicit policy.
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] wrapping the connect or address-resolution
    /// failure.
    pub fn connect_with<A: ToSocketAddrs>(addr: A, policy: RetryPolicy) -> ClientResult<Client> {
        let resolved = addr
            .to_socket_addrs()
            .map_err(WireError::from)?
            .next()
            .ok_or_else(|| {
                ClientError::Wire(WireError::Io {
                    kind: std::io::ErrorKind::AddrNotAvailable,
                    message: "address resolved to nothing".to_string(),
                })
            })?;
        let mut client = Client {
            addr: AddrSource::Fixed(resolved),
            stream: None,
            jitter: policy.jitter_seed | 1,
            policy,
            next_request_id: 1,
            consecutive_failures: 0,
            breaker_opened_at: None,
            metrics: ClientMetrics::default(),
        };
        client.reconnect()?;
        Ok(client)
    }

    /// Connects through an address provider that is re-queried on every
    /// reconnect — the failover path for a server that restarts on a
    /// different port.
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] wrapping the initial connect failure.
    pub fn connect_via(
        provider: impl FnMut() -> SocketAddr + Send + 'static,
        policy: RetryPolicy,
    ) -> ClientResult<Client> {
        let mut client = Client {
            addr: AddrSource::Provider(Box::new(provider)),
            stream: None,
            jitter: policy.jitter_seed | 1,
            policy,
            next_request_id: 1,
            consecutive_failures: 0,
            breaker_opened_at: None,
            metrics: ClientMetrics::default(),
        };
        client.reconnect()?;
        Ok(client)
    }

    /// Client-side resilience counters.
    pub fn metrics(&self) -> ClientMetrics {
        self.metrics
    }

    /// Deterministic jitter in `[0, cap)` microseconds (xorshift64*).
    fn jitter_us(&mut self, cap: u64) -> u64 {
        let mut x = self.jitter;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.jitter = x;
        if cap == 0 {
            0
        } else {
            x.wrapping_mul(0x2545_F491_4F6C_DD1D) % cap
        }
    }

    fn backoff_for(&mut self, attempt: u32) -> Duration {
        let base = self
            .policy
            .base_backoff
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.policy.max_backoff);
        let jitter = self.jitter_us(base.as_micros().min(u128::from(u64::MAX)) as u64 / 2 + 1);
        base + Duration::from_micros(jitter)
    }

    fn reconnect(&mut self) -> ClientResult<()> {
        self.stream = None;
        self.metrics.reconnects += 1;
        let addr = self.addr.current();
        let stream = TcpStream::connect(addr).map_err(WireError::from)?;
        stream.set_nodelay(true).map_err(WireError::from)?;
        stream
            .set_read_timeout(Some(self.policy.read_timeout))
            .map_err(WireError::from)?;
        stream
            .set_write_timeout(Some(self.policy.write_timeout))
            .map_err(WireError::from)?;
        self.stream = Some(stream);
        Ok(())
    }

    fn stream(&mut self) -> ClientResult<&mut TcpStream> {
        if self.stream.is_none() {
            self.reconnect()?;
        }
        Ok(self
            .stream
            .as_mut()
            .expect("reconnect populated the stream"))
    }

    /// Whether an error is transport-class: the request's outcome is
    /// unknown (or the server refused it for capacity reasons), so an
    /// idempotent replay on a fresh connection is the right move.
    fn is_transport_error(e: &ClientError) -> bool {
        matches!(
            e,
            ClientError::Wire(WireError::Io { .. })
                | ClientError::Disconnected
                | ClientError::GoingAway { .. }
                | ClientError::Deadline { .. }
                | ClientError::Server {
                    code: CODE_UNAVAILABLE,
                    ..
                }
        )
    }

    fn breaker_check(&mut self) -> ClientResult<()> {
        if self.consecutive_failures < self.policy.breaker_threshold {
            return Ok(());
        }
        let opened = self
            .breaker_opened_at
            .get_or_insert_with(Instant::now)
            .to_owned();
        if opened.elapsed() < self.policy.breaker_cooldown {
            self.metrics.breaker_fast_fails += 1;
            return Err(ClientError::CircuitOpen {
                failures: self.consecutive_failures,
            });
        }
        // Cooldown over: half-open. Allow this one probe through; a
        // success resets the breaker, a failure re-opens it.
        self.breaker_opened_at = Some(Instant::now());
        Ok(())
    }

    fn note_success(&mut self) {
        self.consecutive_failures = 0;
        self.breaker_opened_at = None;
    }

    fn note_transport_failure(&mut self) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if self.consecutive_failures >= self.policy.breaker_threshold
            && self.breaker_opened_at.is_none()
        {
            self.breaker_opened_at = Some(Instant::now());
        }
    }

    /// Sends one request frame tagged with a fresh request id, without
    /// waiting for the answer — the pipelining half of
    /// [`call`](Client::call), used by the bench load generator and the
    /// backpressure tests. Pipelined sends bypass the retry loop.
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] on stream failure.
    pub fn send(&mut self, request: &Request) -> ClientResult<()> {
        let id = self.next_request_id;
        self.next_request_id += 1;
        let frame = request.to_frame().with_request_id(id);
        wire::write_frame(self.stream()?, &frame)?;
        Ok(())
    }

    /// Receives the next response frame (any request id).
    ///
    /// # Errors
    ///
    /// [`ClientError::Disconnected`] when the server closed the stream;
    /// [`ClientError::Server`] for typed `Error` frames;
    /// [`ClientError::GoingAway`] / [`ClientError::Deadline`] for their
    /// frames; [`ClientError::Wire`] for anything malformed.
    pub fn receive(&mut self) -> ClientResult<Response> {
        let stream = self.stream()?;
        match wire::read_frame(stream)? {
            Some(frame) => match Response::from_frame(&frame)? {
                Response::Error { code, message } => Err(ClientError::Server { code, message }),
                Response::GoingAway { message } => Err(ClientError::GoingAway { message }),
                Response::Deadline {
                    waited_ms,
                    budget_ms,
                } => Err(ClientError::Deadline {
                    waited_ms,
                    budget_ms,
                }),
                response => Ok(response),
            },
            None => Err(ClientError::Disconnected),
        }
    }

    /// One attempt: send the tagged frame, read until the response whose
    /// echoed id matches (tolerating id 0, which farewells, refusals, and
    /// framing errors carry).
    fn call_once(&mut self, request: &Request, id: u64) -> ClientResult<Response> {
        let frame = request.to_frame().with_request_id(id);
        let stream = self.stream()?;
        wire::write_frame(stream, &frame)?;
        loop {
            let stream = self.stream()?;
            match wire::read_frame(stream)? {
                Some(frame) => {
                    if frame.request_id != 0 && frame.request_id != id {
                        // A stale response from an earlier, abandoned
                        // attempt on this connection; skip it.
                        continue;
                    }
                    return match Response::from_frame(&frame)? {
                        Response::Error { code, message } => {
                            Err(ClientError::Server { code, message })
                        }
                        Response::GoingAway { message } => Err(ClientError::GoingAway { message }),
                        Response::Deadline {
                            waited_ms,
                            budget_ms,
                        } => Err(ClientError::Deadline {
                            waited_ms,
                            budget_ms,
                        }),
                        response => Ok(response),
                    };
                }
                None => return Err(ClientError::Disconnected),
            }
        }
    }

    /// One request, one response — retried behind the scenes when the
    /// failure is transport-class, the request is idempotent, and the
    /// circuit breaker allows it.
    ///
    /// # Errors
    ///
    /// The last attempt's error once retries are exhausted;
    /// [`ClientError::CircuitOpen`] when failing fast.
    pub fn call(&mut self, request: &Request) -> ClientResult<Response> {
        self.breaker_check()?;
        let id = self.next_request_id;
        self.next_request_id += 1;
        let retries = if request.is_idempotent() {
            self.policy.max_retries
        } else {
            0
        };
        let mut attempt = 0u32;
        loop {
            let result = self.call_once(request, id);
            match result {
                Ok(response) => {
                    self.note_success();
                    return Ok(response);
                }
                Err(e) if Self::is_transport_error(&e) && attempt < retries => {
                    self.note_transport_failure();
                    self.metrics.retries += 1;
                    // The connection's state is unknown; start fresh.
                    self.stream = None;
                    let backoff = self.backoff_for(attempt);
                    thread::sleep(backoff);
                    attempt += 1;
                    self.breaker_check()?;
                    // Reconnect failures burn attempts too.
                    if self.reconnect().is_err() && attempt >= retries {
                        return Err(e);
                    }
                }
                Err(e) => {
                    if Self::is_transport_error(&e) {
                        self.note_transport_failure();
                        self.stream = None;
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Liveness check.
    ///
    /// # Errors
    ///
    /// Any transport or server failure.
    pub fn ping(&mut self) -> ClientResult<()> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(ClientError::Unexpected { expected: "Pong" }),
        }
    }

    /// Registers `tenant`'s sealed key bytes; returns the decoded method
    /// name and attribute count.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with code 4 for undecodable keys.
    pub fn load_key(&mut self, tenant: &str, key_bytes: Vec<u8>) -> ClientResult<(String, u64)> {
        let request = Request::LoadKey {
            tenant: tenant.to_string(),
            key_bytes,
        };
        match self.call(&request)? {
            Response::Loaded {
                method,
                n_attributes,
            } => Ok((method, n_attributes)),
            _ => Err(ClientError::Unexpected { expected: "Loaded" }),
        }
    }

    /// Transforms a batch under `tenant`'s session; returns the released
    /// batch and its out-of-range (drift) row count.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with code 2 for unknown tenants, 5 for
    /// shape mismatches.
    pub fn transform(&mut self, tenant: &str, batch: &Dataset) -> ClientResult<(Dataset, u64)> {
        let request = Request::Transform {
            tenant: tenant.to_string(),
            batch: batch.clone(),
        };
        match self.call(&request)? {
            Response::Transformed {
                released,
                out_of_range_rows,
            } => Ok((released, out_of_range_rows)),
            _ => Err(ClientError::Unexpected {
                expected: "Transformed",
            }),
        }
    }

    /// Owner-side inverse of a released batch.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with code 7 for non-invertible methods.
    pub fn invert(&mut self, tenant: &str, batch: &Dataset) -> ClientResult<Dataset> {
        let request = Request::Invert {
            tenant: tenant.to_string(),
            batch: batch.clone(),
        };
        match self.call(&request)? {
            Response::Inverted { recovered } => Ok(recovered),
            _ => Err(ClientError::Unexpected {
                expected: "Inverted",
            }),
        }
    }

    /// The server's stats snapshot.
    ///
    /// # Errors
    ///
    /// Any transport failure.
    pub fn stats(&mut self) -> ClientResult<ServerStats> {
        match self.call(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            _ => Err(ClientError::Unexpected { expected: "Stats" }),
        }
    }

    /// Drops a tenant server-side; returns whether it existed. Never
    /// retried (the `existed` answer changes on replay).
    ///
    /// # Errors
    ///
    /// Any transport failure.
    pub fn evict(&mut self, tenant: &str) -> ClientResult<bool> {
        let request = Request::EvictTenant {
            tenant: tenant.to_string(),
        };
        match self.call(&request)? {
            Response::Evicted { existed } => Ok(existed),
            _ => Err(ClientError::Unexpected {
                expected: "Evicted",
            }),
        }
    }

    /// Asks the server to hot-reload its key directory; returns how many
    /// tenants were loaded and how many corrupt files were quarantined.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with code 7 when the server has no key
    /// store.
    pub fn reload_keys(&mut self) -> ClientResult<(u64, u64)> {
        match self.call(&Request::ReloadKeys)? {
            Response::Reloaded {
                loaded,
                quarantined,
            } => Ok((loaded, quarantined)),
            _ => Err(ClientError::Unexpected {
                expected: "Reloaded",
            }),
        }
    }

    /// Opens a federated release session on the server's hub. `config` is
    /// an encoded `rbt_protocol::FederationConfig`; returns the hosted
    /// session id. Never retried — a replay collides with the session the
    /// first attempt opened.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with code 2 for a duplicate session id or
    /// a full hub, 4 for an undecodable config.
    pub fn fed_open(&mut self, config: Vec<u8>) -> ClientResult<u64> {
        match self.call(&Request::FedOpen { config })? {
            Response::FedOpened { session } => Ok(session),
            _ => Err(ClientError::Unexpected {
                expected: "FedOpened",
            }),
        }
    }

    /// Delivers this owner's outbound federation messages (each an
    /// encoded `rbt_protocol::Message`) and drains the owner's mailbox in
    /// return. Never retried — a replayed delivery is a duplicate the
    /// protocol state machines reject.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with code 2 for unknown sessions or
    /// out-of-range owners, 3 for protocol-state rejections.
    pub fn fed_exchange(
        &mut self,
        session: u64,
        owner: u16,
        messages: Vec<Vec<u8>>,
    ) -> ClientResult<Vec<Vec<u8>>> {
        let request = Request::FedMsg {
            session,
            owner,
            messages,
        };
        match self.call(&request)? {
            Response::FedMsgs { messages } => Ok(messages),
            _ => Err(ClientError::Unexpected {
                expected: "FedMsgs",
            }),
        }
    }

    /// Polls a federated session for its joint clustering result: `None`
    /// while rounds are in flight, or the encoded `JointDataset` protocol
    /// message once the receiver has completed. A pure read, so it is
    /// retried like the other idempotent calls.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with code 2 for unknown sessions, or the
    /// session's recorded protocol failure.
    pub fn fed_result(&mut self, session: u64) -> ClientResult<Option<Vec<u8>>> {
        match self.call(&Request::FedResult { session })? {
            Response::FedSummary { summary } => Ok(summary),
            _ => Err(ClientError::Unexpected {
                expected: "FedSummary",
            }),
        }
    }

    /// Closes a federated session server-side; returns whether it
    /// existed. Never retried (the `existed` answer changes on replay).
    ///
    /// # Errors
    ///
    /// Any transport failure.
    pub fn fed_close(&mut self, session: u64) -> ClientResult<bool> {
        match self.call(&Request::FedClose { session })? {
            Response::FedClosed { existed } => Ok(existed),
            _ => Err(ClientError::Unexpected {
                expected: "FedClosed",
            }),
        }
    }

    /// The raw stream — the escape hatch the fault-injection tests use to
    /// write malformed or partial frames.
    ///
    /// # Panics
    ///
    /// When the client is between connections (a retry left the stream
    /// closed and nothing has reconnected yet).
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        self.stream
            .as_mut()
            .expect("client is between connections; call ping() first")
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        // A clean goodbye instead of an RST: best-effort, never blocking
        // shutdown on a dead server.
        if let Some(stream) = self.stream.as_mut() {
            let _ = wire::write_frame(stream, &Request::Goodbye.to_frame());
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }
}
