//! # rbt-core — the Rotation-Based Transformation method
//!
//! This crate is the reproduction of the primary contribution of
//! Oliveira & Zaïane, *"Achieving Privacy Preservation When Sharing Data For
//! Clustering"* (2004): a spatial data transformation that protects
//! attribute values released for clustering while preserving **all**
//! pairwise distances, so that any distance-based clustering algorithm
//! returns exactly the same clusters on the transformed data (Theorem 2 and
//! Corollary 1 of the paper).
//!
//! The method (Definitions 2 and 3):
//!
//! 1. the data matrix is normalized ([`pipeline`] wires this up per the
//!    paper's Figure 1),
//! 2. attributes are distorted **two at a time** by a plane rotation
//!    (Eq. 1; [`rbt_linalg::Rotation2`]),
//! 3. each pair's rotation angle θ is drawn at random from the **security
//!    range** — the set of angles meeting the *Pairwise-Security Threshold*
//!    `Var(Ai − Ai') ≥ ρ1 ∧ Var(Aj − Aj') ≥ ρ2` ([`security`]),
//! 4. with an odd number of attributes, the last one is paired with an
//!    already-distorted attribute ([`pairing`]).
//!
//! The modules:
//!
//! * [`security`] — closed-form `Var(A − A')(θ)`, the security-range solver,
//!   and the scale-invariant security level `Sec = Var(X−X')/Var(X)`,
//! * [`pairing`] — attribute-pair selection strategies (§4.3 Step 1),
//! * [`method`] — the RBT algorithm itself (§4.3 Step 2) producing a
//!   transformed matrix plus a [`key::TransformationKey`],
//! * [`key`] — the owner-side secret (pairs, angles); invertible,
//! * [`pipeline`] — normalize-then-distort (Figure 1) over `rbt-data`
//!   datasets,
//! * [`session`] — streaming release sessions: persisted secrets applied
//!   to arriving out-of-sample batches, with drift accounting,
//! * [`codec`] — the versioned, checksummed key-file envelope (the session
//!   record's text form lives on [`session::ReleaseSession`]),
//! * [`isometry`] — Theorem 2 checks: dissimilarity-matrix preservation,
//! * [`paper`] — the constants of the paper's running example (§5.1) and a
//!   function reproducing Tables 2–6 from Table 1.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod isometry;
pub mod key;
pub mod method;
pub mod pairing;
pub mod paper;
pub mod pipeline;
pub mod reflection;
pub mod security;
pub mod session;

pub use key::{RotationStep, TransformationKey};
pub use method::{RbtConfig, RbtOutput, RbtTransformer, ThresholdPolicy};
pub use pairing::PairingStrategy;
pub use pipeline::{Pipeline, PipelineOutput};
pub use security::{PairMoments, PairVarianceProfile, PairwiseSecurityThreshold, SecurityRange};
pub use session::{DriftBounds, ReleaseSession, RowKernels, SessionBatch};

use std::fmt;

/// Errors produced by the RBT method.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// An underlying linear-algebra error.
    Linalg(rbt_linalg::Error),
    /// An underlying data-layer error.
    Data(rbt_data::Error),
    /// A parameter was invalid.
    InvalidParameter(String),
    /// The requested pairwise-security threshold is unsatisfiable for a
    /// pair: no rotation angle achieves it.
    EmptySecurityRange {
        /// Index of the first attribute of the pair.
        i: usize,
        /// Index of the second attribute of the pair.
        j: usize,
        /// The threshold that could not be met.
        rho1: f64,
        /// The threshold that could not be met.
        rho2: f64,
        /// Maximum of `Var(Ai − Ai')` over all angles (what *was* achievable).
        max_var1: f64,
        /// Maximum of `Var(Aj − Aj')` over all angles.
        max_var2: f64,
    },
    /// A pairing did not cover every attribute, or was malformed.
    InvalidPairing(String),
    /// A key was applied to data with an incompatible shape.
    KeyMismatch(String),
    /// A persisted key file could not be decoded (bad magic, unsupported
    /// version, checksum mismatch, truncation, malformed record, …).
    Codec(codec::CodecError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Linalg(e) => write!(f, "linear algebra error: {e}"),
            Error::Data(e) => write!(f, "data error: {e}"),
            Error::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            Error::EmptySecurityRange {
                i,
                j,
                rho1,
                rho2,
                max_var1,
                max_var2,
            } => write!(
                f,
                "empty security range for pair ({i}, {j}): PST ({rho1}, {rho2}) unsatisfiable \
                 (max achievable variances: {max_var1:.4}, {max_var2:.4})"
            ),
            Error::InvalidPairing(msg) => write!(f, "invalid pairing: {msg}"),
            Error::KeyMismatch(msg) => write!(f, "key mismatch: {msg}"),
            Error::Codec(e) => write!(f, "codec error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Linalg(e) => Some(e),
            Error::Data(e) => Some(e),
            Error::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<rbt_linalg::Error> for Error {
    fn from(e: rbt_linalg::Error) -> Self {
        Error::Linalg(e)
    }
}

impl From<rbt_data::Error> for Error {
    fn from(e: rbt_data::Error) -> Self {
        Error::Data(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
