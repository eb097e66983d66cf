//! # rbt — privacy-preserving clustering via Rotation-Based Transformation
//!
//! Facade crate for the reproduction of Oliveira & Zaïane,
//! *"Achieving Privacy Preservation When Sharing Data For Clustering"*
//! (2004). It re-exports the member crates under stable module names:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`linalg`] | `rbt-linalg` | matrices, statistics, rotations, distances |
//! | [`data`] | `rbt-data` | datasets, normalization, synthetic generators |
//! | [`cluster`] | `rbt-cluster` | k-means, hierarchical, DBSCAN, validation metrics |
//! | [`core`] | `rbt-core` | the RBT method itself (the paper's contribution) |
//! | [`transform`] | `rbt-transform` | baseline perturbation methods |
//! | [`attack`] | `rbt-attack` | attacks on rotation perturbation |
//! | [`api`] | `rbt-api` | the release API: `PrivacyTransform`, `Release` builder, method registry, `RbtError` |
//! | [`protocol`] | `rbt-protocol` | multi-owner federated release: typed party state machines, federation hub, chaos harness |
//! | [`server`] | `rbt-server` | the multi-tenant release daemon: `RBTW` wire protocol, LRU session registry, blocking client |
//!
//! ## Quickstart
//!
//! The blessed entry point is the [`prelude`]'s typed-state [`Release`]
//! builder:
//!
//! ```
//! use rbt::prelude::*;
//! use rand::SeedableRng;
//!
//! let patients = rbt::data::datasets::arrhythmia_sample();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
//! let fitted = Release::of(&patients)
//!     .with_method(Method::Rbt)
//!     .with_thresholds(PairwiseSecurityThreshold::uniform(0.3).unwrap())
//!     .fit(&mut rng)
//!     .unwrap();
//! assert!(fitted.properties().isometric);
//! ```
//!
//! See `examples/quickstart.rs` for the full Figure 1 workflow: normalize →
//! rotate pairwise under security thresholds → share → cluster, with
//! identical clusters before and after.
//!
//! For streaming workloads — the same persisted secrets applied to batch
//! after batch of arriving records — see [`ReleaseSession`] and
//! `examples/streaming_release.rs`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use rbt_api as api;
pub use rbt_attack as attack;
pub use rbt_cluster as cluster;
pub use rbt_core as core;
pub use rbt_data as data;
pub use rbt_linalg as linalg;
pub use rbt_protocol as protocol;
pub use rbt_server as server;
pub use rbt_transform as transform;

// Most-used types at the top level for ergonomic imports.
pub use rbt_api::{Method, RbtError, Release};
pub use rbt_core::{
    DriftBounds, PairwiseSecurityThreshold, RbtConfig, RbtTransformer, ReleaseSession, SessionBatch,
};
pub use rbt_data::dataset::Dataset;
pub use rbt_linalg::{Matrix, Rotation2, VarianceMode};

/// The one-import surface for release workflows: the typed-state
/// [`Release`] builder, the [`Method`] registry, the
/// [`PrivacyTransform`](rbt_api::PrivacyTransform) traits, the
/// [`RbtError`] taxonomy, and the legacy entry points
/// ([`Pipeline`](rbt_core::Pipeline), [`ReleaseSession`]) they wrap.
pub mod prelude {
    pub use rbt_api::{
        decode_fitted, FittedRelease, FittedTransform, Method, MethodProperties, PrivacyTransform,
        RbtError, Release, ReleaseBuilder,
    };
    pub use rbt_core::{
        DriftBounds, PairingStrategy, PairwiseSecurityThreshold, Pipeline, RbtConfig,
        ReleaseSession, SessionBatch, ThresholdPolicy,
    };
    pub use rbt_data::{Dataset, FittedNormalizer, Normalization};
    pub use rbt_linalg::Matrix;
}
