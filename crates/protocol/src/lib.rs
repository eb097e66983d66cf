//! # rbt-protocol — multi-owner federated RBT release
//!
//! The paper's release pipeline assumes **one** data owner. The outsourced-
//! clustering literature it sits in assumes several owners holding
//! *horizontally partitioned* data (each owns a block of rows over the same
//! attributes) who want a third party to cluster the union without any owner
//! pooling raw rows. This crate implements that as a typed, deterministic
//! round protocol:
//!
//! 1. **Announce** — the [`Coordinator`] broadcasts the federation
//!    configuration (attributes, normalization, RBT parameters, key policy,
//!    seed) to every [`Owner`] and the [`Receiver`]; each owner `Join`s.
//! 2. **Shared normalization** — per-owner column statistics are merged by
//!    a chained fold ([`Fold::Normalization`]): the coordinator hands a
//!    [`rbt_data::PartialFit`] accumulator to each owner in announced order
//!    (`Chain`), and the owner folds its rows in and hands it back
//!    (`ChainAck`). Only the aggregate fold state travels, never rows;
//!    because every fitter statistic is a sequential left fold, the merged
//!    normalizer (`SharedNormalization`) is **bit-identical** to fitting
//!    the pooled matrix.
//! 3. **Key fit** — under [`KeyPolicy::Shared`] each rotation pair's
//!    variance profile over the (progressively rotated) federated matrix is
//!    merged by the same chained fold ([`Fold::Pair`], a
//!    [`rbt_core::PairMoments`]), the coordinator solves the pair's security
//!    range and broadcasts the drawn angle (`ApplyRotation`), and every
//!    owner applies the same rotation locally. Under
//!    [`KeyPolicy::PerOwner`] each owner fits a private key on its own
//!    partition once told the fit is complete (`FitComplete`).
//! 4. **Owner release → joint dataset** — owners send their transformed
//!    blocks to the receiver (`OwnerRelease`), which assembles the union in
//!    owner order, runs joint k-means and reports it (`JointDataset`).
//!
//! Every party is a **state machine**: construction puts it in its initial
//! state, and the only way forward is [`Owner::handle`] /
//! [`Coordinator::handle`] / [`Receiver::handle`] consuming a typed
//! [`Message`] and producing typed [`Outbound`] messages. Anything
//! unexpected — wrong session, wrong turn, duplicated round, missing
//! rotation — is a typed [`ProtocolError`], never silently divergent data.
//!
//! The crate is transport-agnostic: [`harness::InProcessFederation`] drives
//! 2–64 owners in memory (with deterministic fault injection), while
//! [`hub::FederationHub`] hosts the coordinator + receiver behind a
//! mailbox API that `rbt-server` exposes over its framed wire protocol.
//!
//! ## Determinism contract
//!
//! With [`KeyPolicy::Shared`], the federated release of N partitions is
//! **bit-identical** to the single-owner pooled
//! [`rbt_core::Pipeline`] baseline run with the same seed: identical
//! normalizer bytes, identical rotation angles, identical released matrix,
//! and therefore identical joint k-means labels and inertia. The golden
//! tests in the workspace root pin this for N ∈ {2, 3}.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod coordinator;
pub mod harness;
pub mod hub;
pub mod messages;
pub mod owner;
pub mod receiver;

pub use config::{FederationConfig, KeyPolicy};
pub use coordinator::Coordinator;
pub use harness::{FaultPlan, FederationRun, InProcessFederation};
pub use hub::FederationHub;
pub use messages::{Fold, JointSummary, Message, Outbound, Party};
pub use owner::Owner;
pub use receiver::{JointResult, Receiver};

use std::fmt;

/// Errors produced by the federated release protocol.
///
/// Every transport fault, ordering violation, or shape disagreement maps to
/// a variant here; a party never applies a message it cannot fully
/// validate, so a faulty exchange can fail the session but cannot corrupt
/// the joint dataset.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ProtocolError {
    /// The federation configuration is malformed (owner count, attribute
    /// count, k-means parameters, or an unchainable normalization).
    InvalidConfig(String),
    /// A message arrived for a different session than the party belongs to.
    SessionMismatch {
        /// Session the party was constructed for.
        expected: u64,
        /// Session carried by the message.
        found: u64,
    },
    /// A message arrived that the party's current state cannot accept
    /// (wrong round, wrong turn, or out of order — e.g. after a dropped or
    /// reordered delivery).
    UnexpectedMessage {
        /// Which party rejected the message.
        party: String,
        /// The party's current state.
        state: String,
        /// Short description of the offending message.
        message: String,
    },
    /// A message for a round the party has already completed (duplicated
    /// delivery).
    DuplicateMessage {
        /// Which party rejected the message.
        party: String,
        /// Short description of the offending message.
        message: String,
    },
    /// An owner id outside the announced owner count.
    OwnerOutOfRange {
        /// The offending owner id.
        owner: u16,
        /// The announced owner count.
        owners: u16,
    },
    /// A hub exchange delivered a message claiming to originate from a
    /// different owner than the one the exchange was made for
    /// (impersonation attempt; the message is rejected without poisoning
    /// the session).
    OwnerMismatch {
        /// Owner index the message claims to originate from.
        claimed: u16,
        /// Owner index the exchange was made for.
        exchanging: u16,
    },
    /// Two parts of the federation disagreed on data shape.
    ShapeMismatch(String),
    /// A message or accumulator payload could not be decoded (truncation,
    /// checksum mismatch after corruption, unknown tag).
    Decode(rbt_linalg::codec::DecodeError),
    /// An underlying data-layer error (normalization fold/fit).
    Data(rbt_data::Error),
    /// An underlying RBT method error (pairing, empty security range, key).
    Method(rbt_core::Error),
    /// Joint clustering on the receiver failed.
    Cluster(String),
    /// The in-process harness drained its queue without the receiver
    /// completing — some message was dropped and the protocol cannot make
    /// progress (the deadlock-free alternative to waiting forever).
    Stalled {
        /// Messages delivered before the stall.
        delivered: usize,
        /// Which phase the coordinator was in.
        state: String,
    },
    /// The hub has no session with this id.
    UnknownSession(u64),
    /// The hub already hosts a session with this id.
    SessionExists(u64),
}

impl ProtocolError {
    /// The failure's family in the CLI exit-code and wire `Error` taxonomy:
    /// 4 for decode failures, 5 for shape disagreements, 2 for session and
    /// config usage errors, 3 for everything else (state-machine
    /// rejections, data, method and clustering failures).
    pub fn code(&self) -> u8 {
        match self {
            ProtocolError::Decode(_) => 4,
            ProtocolError::ShapeMismatch(_) => 5,
            ProtocolError::InvalidConfig(_)
            | ProtocolError::UnknownSession(_)
            | ProtocolError::SessionExists(_)
            | ProtocolError::OwnerOutOfRange { .. }
            | ProtocolError::SessionMismatch { .. } => 2,
            _ => 3,
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::InvalidConfig(msg) => write!(f, "invalid federation config: {msg}"),
            ProtocolError::SessionMismatch { expected, found } => {
                write!(
                    f,
                    "session mismatch: expected {expected:#x}, got {found:#x}"
                )
            }
            ProtocolError::UnexpectedMessage {
                party,
                state,
                message,
            } => write!(f, "{party} in state {state} cannot accept {message}"),
            ProtocolError::DuplicateMessage { party, message } => {
                write!(f, "{party} already processed {message}")
            }
            ProtocolError::OwnerOutOfRange { owner, owners } => {
                write!(
                    f,
                    "owner {owner} out of range (session has {owners} owners)"
                )
            }
            ProtocolError::OwnerMismatch {
                claimed,
                exchanging,
            } => {
                write!(
                    f,
                    "message claims owner {claimed} but was exchanged by owner {exchanging}"
                )
            }
            ProtocolError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            ProtocolError::Decode(e) => write!(f, "message decode error: {e}"),
            ProtocolError::Data(e) => write!(f, "data error: {e}"),
            ProtocolError::Method(e) => write!(f, "method error: {e}"),
            ProtocolError::Cluster(msg) => write!(f, "joint clustering error: {msg}"),
            ProtocolError::Stalled { delivered, state } => write!(
                f,
                "protocol stalled after {delivered} deliveries (coordinator in {state})"
            ),
            ProtocolError::UnknownSession(id) => write!(f, "unknown session {id:#x}"),
            ProtocolError::SessionExists(id) => write!(f, "session {id:#x} already open"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Decode(e) => Some(e),
            ProtocolError::Data(e) => Some(e),
            ProtocolError::Method(e) => Some(e),
            _ => None,
        }
    }
}

impl From<rbt_linalg::codec::DecodeError> for ProtocolError {
    fn from(e: rbt_linalg::codec::DecodeError) -> Self {
        ProtocolError::Decode(e)
    }
}

impl From<rbt_data::Error> for ProtocolError {
    fn from(e: rbt_data::Error) -> Self {
        ProtocolError::Data(e)
    }
}

impl From<rbt_core::Error> for ProtocolError {
    fn from(e: rbt_core::Error) -> Self {
        ProtocolError::Method(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ProtocolError>;
