//! # rbt-api — one release API to rule them all
//!
//! The paper's Corollary 1 makes RBT a drop-in release method for *any*
//! distance-based clustering; §5.2 benchmarks it against additive noise,
//! rank swapping, and geometric perturbation. This crate is the **service
//! boundary** that makes those methods interchangeable — the layer the
//! outsourced-clustering workloads (multi-user / multi-server k-means over
//! a stable owner-side transformation) program against:
//!
//! * [`PrivacyTransform`] / [`FittedTransform`] — the object-safe method
//!   interface: fit once into a [`FittedRelease`], transform batch after
//!   batch (each batch reports its drift: the rows outside the fitted
//!   range), invert when the method supports it, persist through the
//!   sealed `RBTS` envelope;
//! * [`Method`] — the name registry (`rbt`, `hybrid-isometry`, `noise`,
//!   `swap`, `geometric`) behind the CLI, the daemon and the bench
//!   harness;
//! * [`Release`] — the typed-state builder and blessed entry point:
//!   `Release::of(&data).with_method(Method::Rbt).with_thresholds(pst)
//!   .fit(&mut rng)`; forgetting the method is a compile error;
//! * [`RbtError`] — the workspace-wide error taxonomy, grouped by remedy
//!   and mapped to distinct CLI exit codes.
//!
//! RBT through this layer wraps the existing
//! [`Pipeline`](rbt_core::Pipeline) and
//! [`ReleaseSession`](rbt_core::ReleaseSession) unchanged, so its releases
//! and key files are bit-identical to the direct paths (pinned by the
//! conformance tests).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod methods;
pub mod release;
pub mod transform_api;

pub use error::{RbtError, Result};
pub use methods::{
    decode_fitted, FittedBaseline, FittedHybridIsometry, FittedRbt, GeometricMethod,
    HybridIsometryMethod, Method, NoiseMethod, RbtMethod, SwapMethod,
};
pub use release::{FittedRelease, Release, ReleaseBuilder};
pub use transform_api::{FittedTransform, MethodProperties, PrivacyTransform};
