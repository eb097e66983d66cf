//! The typed-state `Release` builder — the blessed entry point for every
//! privacy-preserving release.
//!
//! ```
//! use rand::SeedableRng;
//! use rbt_api::{Method, Release};
//! use rbt_core::PairwiseSecurityThreshold;
//! use rbt_data::datasets;
//!
//! let patients = datasets::arrhythmia_sample();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
//! let fitted = Release::of(&patients)
//!     .with_method(Method::Rbt)
//!     .with_thresholds(PairwiseSecurityThreshold::uniform(0.3).unwrap())
//!     .fit(&mut rng)
//!     .unwrap();
//! assert!(fitted.properties().isometric);
//! // The same secrets transform tomorrow's batch…
//! let batch = fitted.transform_batch(&patients).unwrap().released;
//! // …and the owner can undo it.
//! let recovered = fitted.invert_batch(&batch).unwrap();
//! assert!(recovered.matrix().approx_eq(patients.matrix(), 1e-8));
//! ```
//!
//! The builder is **typed-state**: [`Release::of`] returns a builder
//! without a `fit` method; only [`with_method`](ReleaseBuilder::with_method)
//! unlocks it, so "forgot to pick a method" is a compile error, not a
//! runtime panic. Knobs the method cannot take (thresholds, pairing or
//! normalization on a baseline) are typed [`RbtError::InvalidConfig`]
//! failures at [`fit`](ReleaseBuilder::fit) time. A pre-configured
//! transform skips the builder: [`PrivacyTransform::fit`] returns the same
//! [`FittedRelease`].

use crate::error::{RbtError, Result};
use crate::methods::{
    GeometricMethod, HybridIsometryMethod, Method, NoiseMethod, RbtMethod, SwapMethod,
};
use crate::transform_api::{FittedTransform, MethodProperties, PrivacyTransform};
use rand::RngCore;
use rbt_core::method::ThresholdPolicy;
use rbt_core::pairing::PairingStrategy;
use rbt_core::{ReleaseSession, SessionBatch};
use rbt_data::{Dataset, Normalization};

/// Marker entry point for the release builder; see [`Release::of`].
pub struct Release;

impl Release {
    /// Starts building a release of `data`. The returned builder has no
    /// `fit` until a method is chosen.
    pub fn of(data: &Dataset) -> ReleaseBuilder<'_, NeedsMethod> {
        ReleaseBuilder {
            data,
            state: NeedsMethod(()),
        }
    }
}

/// Typed state: no method chosen yet (no `fit` available).
pub struct NeedsMethod(());

/// Typed state: a method is chosen; `fit` unlocked. Unset knobs take the
/// method's documented defaults.
pub struct HasMethod {
    method: Method,
    thresholds: Option<ThresholdPolicy>,
    pairing: Option<PairingStrategy>,
    normalization: Option<Normalization>,
    suppress_ids: bool,
}

/// The release builder; `S` is the typed state.
pub struct ReleaseBuilder<'d, S> {
    data: &'d Dataset,
    state: S,
}

impl<'d> ReleaseBuilder<'d, NeedsMethod> {
    /// Chooses a registered method (with its documented defaults until
    /// overridden by the other builder knobs).
    pub fn with_method(self, method: Method) -> ReleaseBuilder<'d, HasMethod> {
        ReleaseBuilder {
            data: self.data,
            state: HasMethod {
                method,
                thresholds: None,
                pairing: None,
                normalization: None,
                suppress_ids: true,
            },
        }
    }
}

impl<'d> ReleaseBuilder<'d, HasMethod> {
    /// Sets the pairwise-security thresholds (RBT / hybrid isometry only).
    /// Accepts a single
    /// [`PairwiseSecurityThreshold`](rbt_core::PairwiseSecurityThreshold)
    /// (uniform across pairs) or a full [`ThresholdPolicy`].
    pub fn with_thresholds(mut self, thresholds: impl Into<ThresholdPolicy>) -> Self {
        self.state.thresholds = Some(thresholds.into());
        self
    }

    /// Sets the attribute-pairing strategy (RBT / hybrid isometry only).
    pub fn with_pairing(mut self, pairing: PairingStrategy) -> Self {
        self.state.pairing = Some(pairing);
        self
    }

    /// Sets the normalization step (RBT / hybrid isometry only).
    pub fn with_normalization(mut self, normalization: Normalization) -> Self {
        self.state.normalization = Some(normalization);
        self
    }

    /// Controls §5.3 ID suppression on releases (every registry method;
    /// `true` by default).
    pub fn with_id_suppression(mut self, suppress: bool) -> Self {
        self.state.suppress_ids = suppress;
        self
    }

    /// Fits the configured method to the dataset and produces the initial
    /// release plus the reusable fitted transform.
    ///
    /// RBT through this path is **bit-identical** to
    /// [`Pipeline::run`](rbt_core::Pipeline::run) +
    /// [`ReleaseSession`] with the same RNG stream (the builder is a thin
    /// wrapper over exactly those).
    ///
    /// # Errors
    ///
    /// * [`RbtError::InvalidConfig`] when a knob does not apply to the
    ///   chosen method (thresholds, pairing or normalization on a
    ///   baseline),
    /// * everything [`PrivacyTransform::fit`] can return.
    pub fn fit(self, rng: &mut dyn RngCore) -> Result<FittedRelease> {
        self.state.into_transform()?.fit(self.data, rng)
    }
}

impl HasMethod {
    fn into_transform(self) -> Result<Box<dyn PrivacyTransform>> {
        let HasMethod {
            method,
            thresholds,
            pairing,
            normalization,
            suppress_ids,
        } = self;
        match method {
            Method::Rbt | Method::HybridIsometry => {
                let mut config = crate::methods::default_rbt_config();
                if let Some(t) = thresholds {
                    config = config.with_thresholds(t);
                }
                if let Some(p) = pairing {
                    config = config.with_pairing(p);
                }
                let normalization = normalization.unwrap_or_else(Normalization::zscore_paper);
                Ok(if method == Method::Rbt {
                    Box::new(
                        RbtMethod::new(config)
                            .with_normalization(normalization)
                            .with_id_suppression(suppress_ids),
                    )
                } else {
                    Box::new(
                        HybridIsometryMethod::new(config)
                            .with_normalization(normalization)
                            .with_id_suppression(suppress_ids),
                    )
                })
            }
            Method::Noise | Method::Swap | Method::Geometric => {
                if thresholds.is_some() || pairing.is_some() || normalization.is_some() {
                    return Err(RbtError::InvalidConfig(format!(
                        "method {:?} takes no thresholds/pairing/normalization — it perturbs \
                         raw values directly; tune it by constructing the transform explicitly \
                         and calling PrivacyTransform::fit",
                        method.name()
                    )));
                }
                Ok(match method {
                    Method::Noise => Box::new(
                        NoiseMethod::new(crate::methods::default_noise())
                            .with_id_suppression(suppress_ids),
                    ),
                    Method::Swap => Box::new(
                        SwapMethod::new(crate::methods::default_swap())
                            .with_id_suppression(suppress_ids),
                    ),
                    _ => Box::new(
                        GeometricMethod::new(rbt_transform::HybridPerturbation::default())
                            .with_id_suppression(suppress_ids),
                    ),
                })
            }
        }
    }
}

/// A completed release: the released dataset plus the fitted transform
/// behind it — what [`ReleaseBuilder::fit`] and [`PrivacyTransform::fit`]
/// both return.
pub struct FittedRelease {
    /// The initial release: the fitting data transformed under the freshly
    /// drawn secrets (ID-suppressed per the method's configuration).
    pub released: Dataset,
    /// The fitted, reusable transform for out-of-sample batches.
    pub fitted: Box<dyn FittedTransform>,
}

impl std::fmt::Debug for FittedRelease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FittedRelease")
            .field("method", &self.fitted.method_name())
            .field("n_attributes", &self.fitted.n_attributes())
            .field("properties", &self.fitted.properties())
            .field("released_rows", &self.released.n_rows())
            .finish()
    }
}

impl FittedRelease {
    /// The registry name of the fitted method.
    pub fn method_name(&self) -> &'static str {
        self.fitted.method_name()
    }

    /// The fitted method's capability descriptor, keyspace estimate
    /// included.
    pub fn properties(&self) -> MethodProperties {
        self.fitted.properties()
    }

    /// Number of attributes the release was fitted for.
    pub fn n_attributes(&self) -> usize {
        self.fitted.n_attributes()
    }

    /// Transforms a batch of out-of-sample records under the fitted
    /// secrets.
    ///
    /// # Errors
    ///
    /// As [`FittedTransform::transform_batch`].
    pub fn transform_batch(&self, batch: &Dataset) -> Result<SessionBatch> {
        self.fitted.transform_batch(batch)
    }

    /// Owner-side inverse of a released batch.
    ///
    /// # Errors
    ///
    /// As [`FittedTransform::invert_batch`] — notably
    /// [`RbtError::NotInvertible`] for baseline methods.
    pub fn invert_batch(&self, released: &Dataset) -> Result<Dataset> {
        self.fitted.invert_batch(released)
    }

    /// Serializes the fitted state into the sealed `RBTS` envelope; decode
    /// with [`decode_fitted`](crate::decode_fitted).
    ///
    /// # Errors
    ///
    /// As [`FittedTransform::to_bytes`].
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        self.fitted.to_bytes()
    }

    /// The underlying [`ReleaseSession`] when the fitted method is RBT
    /// (`None` for every other method); as `<dyn FittedTransform>::session`.
    pub fn session(&self) -> Option<&ReleaseSession> {
        self.fitted.session()
    }
}
