//! The object-safe release interface every privacy method implements.
//!
//! The paper's Corollary 1 claims RBT is a drop-in release method for *any*
//! distance-based clustering — and §5.2 benchmarks it against the noise,
//! swapping, and geometric baselines. This module gives all of those one
//! service boundary:
//!
//! * [`PrivacyTransform`] — an **unfitted method**: a name, a
//!   [`MethodProperties`] descriptor, and [`fit`](PrivacyTransform::fit),
//!   which consumes a dataset plus randomness and produces a
//!   [`FittedRelease`]: the initial release alongside a fitted, reusable
//!   transform (the [`Release`](crate::Release) builder returns the same
//!   type);
//! * [`FittedTransform`] — the **fitted state**, an immutable value:
//!   batch-wise [`transform_batch`](FittedTransform::transform_batch) /
//!   [`invert_batch`](FittedTransform::invert_batch) take `&self`
//!   (inversion is
//!   `Err(`[`RbtError::NotInvertible`](crate::RbtError::NotInvertible)`)`
//!   for the baselines), a transformed batch reports its drift (the rows
//!   outside the fitted normalization range; 0 for methods that keep no
//!   range), and a [`to_bytes`](FittedTransform::to_bytes) codec hook
//!   rides the sealed `RBTS` envelope of [`rbt_core::codec`]. The in-place
//!   [`transform_batch_in_place`](FittedTransform::transform_batch_in_place)
//!   / [`invert_batch_in_place`](FittedTransform::invert_batch_in_place)
//!   turn the caller's batch into its release: RBT and hybrid isometry
//!   normalize and sweep the batch's own matrix on the calling thread, the
//!   other methods move their `transform_batch` result into it. Those two
//!   also expose their [`row_kernels`](FittedTransform::row_kernels), which
//!   the daemon runs over a wire frame's cells.
//!
//! Both traits are dyn-compatible: the CLI, the daemon's registry, the
//! bench harness, and the [`Release`](crate::Release) builder all hold
//! `Box<dyn …>` (or `Arc<dyn …>`) and select methods by name through the
//! [`Method`](crate::Method) registry. The randomness parameter is
//! `&mut dyn RngCore` for the same reason — seeded reproducibility without
//! a generic signature. One downcast remains:
//! `<dyn FittedTransform>::session` reaches the RBT [`ReleaseSession`]
//! behind a fitted state, for the session-only extras (zero-copy `_into`
//! batches, the text key-file form).

use crate::error::Result;
use crate::methods::FittedRbt;
use crate::release::FittedRelease;
use rand::RngCore;
use rbt_core::{ReleaseSession, RowKernels, SessionBatch};
use rbt_data::Dataset;
use std::any::Any;
use std::fmt;

/// What a method guarantees, and what breaking it would cost an attacker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodProperties {
    /// Whether the method preserves all pairwise distances exactly
    /// (Theorem 2 / Corollary 1: clustering results are identical on the
    /// release). The noise/swap/geometric baselines trade this away.
    pub isometric: bool,
    /// Whether the fitted state can undo its own releases
    /// ([`FittedTransform::invert_batch`]).
    pub invertible: bool,
    /// Whether the method accepts pairwise-security thresholds (the §4.2
    /// PST knob). Baselines tune privacy through their own parameters.
    pub tunable_thresholds: bool,
    /// A coarse lower-bound estimate, in bits, of the §5.2 brute-force
    /// keyspace an attacker must search (angle discretization only;
    /// pairing/order uncertainty makes the true space larger). `None`
    /// before fitting, or for methods whose security is not key-based.
    pub keyspace_bits: Option<f64>,
}

impl fmt::Display for MethodProperties {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "isometric={} invertible={} thresholds={}",
            self.isometric, self.invertible, self.tunable_thresholds
        )?;
        if let Some(bits) = self.keyspace_bits {
            write!(f, " keyspace≥2^{bits:.0}")?;
        }
        Ok(())
    }
}

/// An unfitted privacy-preserving release method.
///
/// Implementations must be deterministic given the RNG stream, so a seeded
/// run reproduces its release bit for bit.
pub trait PrivacyTransform {
    /// The registry name (`rbt`, `hybrid-isometry`, `noise`, `swap`,
    /// `geometric`).
    fn name(&self) -> &'static str;

    /// The method's capability descriptor. `keyspace_bits` is `None`
    /// before fitting (it depends on the fitted key size).
    fn properties(&self) -> MethodProperties;

    /// Fits the method to a dataset: derives whatever owner-side secrets
    /// it needs (normalization statistics, rotation keys, perturbation
    /// draws) and produces the initial release of that same data.
    ///
    /// # Errors
    ///
    /// * [`RbtError::InfeasibleThreshold`](crate::RbtError::InfeasibleThreshold)
    ///   when a security threshold cannot be met at any angle,
    /// * [`RbtError::InvalidConfig`](crate::RbtError::InvalidConfig) for
    ///   parameters incompatible with the data (too few columns, NaNs, …),
    /// * [`RbtError::DimensionMismatch`](crate::RbtError::DimensionMismatch)
    ///   for internal shape disagreements.
    fn fit(&self, data: &Dataset, rng: &mut dyn RngCore) -> Result<FittedRelease>;
}

/// A fitted privacy transform: owner-side secrets bound to a fixed
/// attribute layout, applicable to batch after batch of arriving records.
///
/// A batch's release depends only on the fitted secrets and the batch, so
/// transforming takes `&self` and one fitted state can be shared across
/// threads (`Send + Sync`) and serve concurrent requests.
pub trait FittedTransform: Send + Sync {
    /// The registry name of the method that produced this state.
    fn method_name(&self) -> &'static str;

    /// The capability descriptor, now including the fitted
    /// [`keyspace_bits`](MethodProperties::keyspace_bits) estimate where
    /// the method has one.
    fn properties(&self) -> MethodProperties;

    /// Number of attributes (columns) this state was fitted for.
    fn n_attributes(&self) -> usize;

    /// Transforms a batch of out-of-sample records under the fitted
    /// secrets. The batch's `out_of_range_rows` counts the records with a
    /// normalized value outside the fitted range (RBT sessions keep that
    /// range; every other method reports 0).
    ///
    /// # Errors
    ///
    /// [`RbtError::DimensionMismatch`](crate::RbtError::DimensionMismatch)
    /// when the batch's column count disagrees with the fitted layout.
    fn transform_batch(&self, batch: &Dataset) -> Result<SessionBatch>;

    /// Owner-side inverse: recovers the pre-release values of a released
    /// batch.
    ///
    /// # Errors
    ///
    /// * [`RbtError::NotInvertible`](crate::RbtError::NotInvertible) for
    ///   methods without an inverse (the baselines),
    /// * [`RbtError::DimensionMismatch`](crate::RbtError::DimensionMismatch)
    ///   on a column-count disagreement.
    fn invert_batch(&self, released: &Dataset) -> Result<Dataset>;

    /// Transforms `batch` in place: it becomes exactly what
    /// [`transform_batch`](Self::transform_batch) would release for it —
    /// cells, column names, and IDs kept or suppressed — and the returned
    /// count is that batch's drift. The default, which the three baselines
    /// use, moves the `transform_batch` result into `batch`; RBT and hybrid
    /// isometry override it to normalize and sweep the batch's own rows on
    /// the calling thread, without a copy.
    ///
    /// # Errors
    ///
    /// As [`transform_batch`](Self::transform_batch); `batch` is then left
    /// untouched.
    fn transform_batch_in_place(&self, batch: &mut Dataset) -> Result<usize> {
        let out = self.transform_batch(batch)?;
        *batch = out.released;
        Ok(out.out_of_range_rows)
    }

    /// Owner-side inverse in place: `released` becomes exactly what
    /// [`invert_batch`](Self::invert_batch) would recover from it. The
    /// default moves the `invert_batch` result into it; RBT and hybrid
    /// isometry override it as they do
    /// [`transform_batch_in_place`](Self::transform_batch_in_place).
    ///
    /// # Errors
    ///
    /// As [`invert_batch`](Self::invert_batch); `released` is then left
    /// untouched.
    fn invert_batch_in_place(&self, released: &mut Dataset) -> Result<()> {
        *released = self.invert_batch(released)?;
        Ok(())
    }

    /// Serializes the fitted state into the sealed, checksummed `RBTS`
    /// envelope of [`rbt_core::codec`] — RBT states use the existing
    /// session record (readable by every session consumer), other methods
    /// the name-tagged method record. Decode with
    /// [`decode_fitted`](crate::decode_fitted).
    ///
    /// # Errors
    ///
    /// [`RbtError::Codec`](crate::RbtError::Codec) when the state has no
    /// stable encoding (cannot occur for the shipped methods).
    fn to_bytes(&self) -> Result<Vec<u8>>;

    /// The row kernels behind the release, when it normalizes each row and
    /// then sweeps it with 2×2 pair steps — RBT and hybrid isometry; `None`
    /// (the default) for the baselines. Callers holding whole rows outside
    /// a [`Dataset`] (the daemon, on a wire frame's cells) release and
    /// recover them through these, with the bits of
    /// [`transform_batch`](Self::transform_batch) and
    /// [`invert_batch`](Self::invert_batch).
    fn row_kernels(&self) -> Option<RowKernels<'_>> {
        None
    }

    /// Upcast hook for callers that need the concrete fitted type (e.g.
    /// the RBT [`ReleaseSession`] behind `<dyn FittedTransform>::session`).
    fn as_any(&self) -> &dyn Any;
}

impl dyn FittedTransform {
    /// The underlying [`ReleaseSession`] when the fitted method is RBT
    /// (`None` for every other method) — the bridge to the session-level
    /// API (zero-copy `_into` batches, the text key-file form).
    pub fn session(&self) -> Option<&ReleaseSession> {
        self.as_any()
            .downcast_ref::<FittedRbt>()
            .map(FittedRbt::session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traits_are_dyn_compatible() {
        // Compile-time check: both traits box.
        fn _takes_boxed(_: Box<dyn PrivacyTransform>, _: Box<dyn FittedTransform>) {}
    }

    #[test]
    fn properties_display_is_compact() {
        let p = MethodProperties {
            isometric: true,
            invertible: true,
            tunable_thresholds: true,
            keyspace_bits: Some(371.2),
        };
        let s = p.to_string();
        assert!(s.contains("isometric=true"));
        assert!(s.contains("keyspace≥2^371"));
        let q = MethodProperties {
            isometric: false,
            invertible: false,
            tunable_thresholds: false,
            keyspace_bits: None,
        };
        assert!(!q.to_string().contains("keyspace"));
    }
}
