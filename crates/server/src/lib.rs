//! # rbt-server — the multi-tenant release daemon
//!
//! The paper's trust model has a data owner releasing transformed data to
//! an untrusted party; ROADMAP item 1 turns the one-shot CLI workflow into
//! a long-lived serving layer. This crate is that layer:
//!
//! * [`wire`] — the `RBTW` length-prefixed frame protocol (magic, version,
//!   opcode, u32 body length, CRC-32 trailer), built on
//!   [`rbt_linalg::codec`]'s typed, non-panicking primitives;
//! * [`SessionRegistry`] — sealed key bytes per tenant as the source of
//!   truth, an LRU-bounded cache of decoded live sessions (any method in
//!   the [`rbt_api`] registry, via
//!   [`decode_fitted`](rbt_api::decode_fitted)), and per-tenant counters
//!   (requests, rows, drift rows, evictions, p50/p99 service time) that
//!   survive eviction;
//! * [`Server`] — the TCP daemon (Unix only): the [`reactor`], a
//!   readiness-polled event loop owning every socket plus a fixed compute
//!   pool, so thousands of connections ride a handful of OS threads; with
//!   a bounded in-flight window for backpressure, deadline enforcement
//!   (idle reaper, stall budgets, per-opcode queue deadlines), a
//!   connection cap, and graceful drain that answers every in-flight
//!   request before saying `GoingAway`;
//! * [`Client`] — the blocking client the CLI, the benchmark, and the
//!   integration battery drive the daemon with — now with
//!   reconnect + exponential backoff, idempotent retry keyed by echoed
//!   request ids, and a circuit breaker;
//! * [`KeyStore`] — crash-safe key persistence: atomic
//!   temp-fsync-rename writes behind an intent journal replayed on open,
//!   quarantine (never abort) for corrupt entries, hot reload into the
//!   registry;
//! * [`faults`] — a seeded, deterministic fault-injection harness
//!   ([`FaultPlan`]) the chaos battery wraps around the wire to prove the
//!   conformance contract holds under stalls, torn writes, and mid-frame
//!   disconnects.
//!
//! The conformance contract, pinned by `tests/server_integration.rs` and
//! `tests/server_chaos.rs` at the workspace root: a batch transformed
//! through the server is **bit-identical** to the same batch transformed
//! by an in-process [`Pipeline`](rbt_core::Pipeline)/`ReleaseSession`,
//! for every tenant, under concurrency, before and after LRU eviction,
//! and under injected faults; and every malformed frame or mid-frame
//! disconnect is rejected with a typed error while the server keeps
//! serving.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod faults;
pub mod keystore;
pub mod metrics;
#[cfg(unix)]
pub mod reactor;
pub mod registry;
#[cfg(unix)]
pub mod server;
pub mod wire;

pub use client::{Client, ClientError, ClientResult, RetryPolicy};
pub use faults::{FaultPlan, FaultyStream};
pub use keystore::{KeyStore, ReloadReport, ReplayReport};
pub use metrics::{
    LatencyHistogram, RuntimeCounters, RuntimeSnapshot, ServerStats, TenantMetrics, TenantStats,
};
pub use registry::{ServerError, ServerResult, SessionRegistry};
#[cfg(unix)]
pub use server::{ConnAccounting, DrainReport, Server, ServerConfig};
pub use wire::{
    Frame, FrameAssembler, Opcode, Request, Response, WireError, WireResult, CODE_UNAVAILABLE,
};
