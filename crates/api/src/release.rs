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
//! let batch = fitted.transform_batch(&patients).unwrap();
//! // …and the owner can undo it.
//! let recovered = fitted.invert_batch(&batch).unwrap();
//! assert!(recovered.matrix().approx_eq(patients.matrix(), 1e-8));
//! ```
//!
//! The builder is **typed-state**: [`Release::of`] returns a builder
//! without a `fit` method; only [`with_method`](ReleaseBuilder::with_method)
//! / [`with_transform`](ReleaseBuilder::with_transform) unlock it, so
//! "forgot to pick a method" is a compile error, not a runtime panic.
//! Method-specific knobs that do not apply (thresholds on a baseline, a
//! normalization override on an opaque custom transform) are typed
//! [`RbtError::InvalidConfig`] failures at [`fit`](ReleaseBuilder::fit)
//! time.

use crate::error::{RbtError, Result};
use crate::methods::{
    FittedRbt, GeometricMethod, HybridIsometryMethod, Method, NoiseMethod, RbtMethod, SwapMethod,
};
use crate::transform_api::{FittedTransform, MethodProperties, PrivacyTransform};
use rand::RngCore;
use rbt_core::method::ThresholdPolicy;
use rbt_core::pairing::PairingStrategy;
use rbt_core::ReleaseSession;
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

/// Typed state: a method (or custom transform) is chosen; `fit` unlocked.
pub struct HasMethod {
    spec: Spec,
}

enum Spec {
    Registry {
        method: Method,
        thresholds: Option<ThresholdPolicy>,
        pairing: Option<PairingStrategy>,
        normalization: Option<Normalization>,
        suppress_ids: Option<bool>,
    },
    Custom(Box<dyn PrivacyTransform>),
    /// A knob was applied that the chosen spec cannot take; reported as
    /// [`RbtError::InvalidConfig`] at fit time.
    Invalid(String),
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
                spec: Spec::Registry {
                    method,
                    thresholds: None,
                    pairing: None,
                    normalization: None,
                    suppress_ids: None,
                },
            },
        }
    }

    /// Supplies a pre-configured (possibly third-party) transform instead
    /// of a registry method. The builder's method-specific knobs are then
    /// rejected at fit time — configure the transform before handing it in.
    pub fn with_transform(
        self,
        transform: Box<dyn PrivacyTransform>,
    ) -> ReleaseBuilder<'d, HasMethod> {
        ReleaseBuilder {
            data: self.data,
            state: HasMethod {
                spec: Spec::Custom(transform),
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
        self.state.spec = match self.state.spec {
            Spec::Registry {
                method,
                pairing,
                normalization,
                suppress_ids,
                ..
            } => Spec::Registry {
                method,
                thresholds: Some(thresholds.into()),
                pairing,
                normalization,
                suppress_ids,
            },
            other => Spec::invalid_knob(other, "thresholds"),
        };
        self
    }

    /// Sets the attribute-pairing strategy (RBT / hybrid isometry only).
    pub fn with_pairing(mut self, pairing: PairingStrategy) -> Self {
        self.state.spec = match self.state.spec {
            Spec::Registry {
                method,
                thresholds,
                normalization,
                suppress_ids,
                ..
            } => Spec::Registry {
                method,
                thresholds,
                pairing: Some(pairing),
                normalization,
                suppress_ids,
            },
            other => Spec::invalid_knob(other, "pairing"),
        };
        self
    }

    /// Sets the normalization step (RBT / hybrid isometry only).
    pub fn with_normalization(mut self, normalization: Normalization) -> Self {
        self.state.spec = match self.state.spec {
            Spec::Registry {
                method,
                thresholds,
                pairing,
                suppress_ids,
                ..
            } => Spec::Registry {
                method,
                thresholds,
                pairing,
                normalization: Some(normalization),
                suppress_ids,
            },
            other => Spec::invalid_knob(other, "normalization"),
        };
        self
    }

    /// Controls §5.3 ID suppression on releases (every registry method;
    /// `true` by default).
    pub fn with_id_suppression(mut self, suppress: bool) -> Self {
        self.state.spec = match self.state.spec {
            Spec::Registry {
                method,
                thresholds,
                pairing,
                normalization,
                ..
            } => Spec::Registry {
                method,
                thresholds,
                pairing,
                normalization,
                suppress_ids: Some(suppress),
            },
            other => Spec::invalid_knob(other, "id suppression"),
        };
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
    ///   chosen method (thresholds on a baseline, any knob on a custom
    ///   transform),
    /// * everything [`PrivacyTransform::fit`] can return.
    pub fn fit(self, rng: &mut dyn RngCore) -> Result<FittedRelease> {
        let transform = self.state.spec.into_transform()?;
        let out = transform.fit(self.data, rng)?;
        Ok(FittedRelease {
            released: out.released,
            fitted: out.fitted,
        })
    }
}

impl Spec {
    /// Records a knob applied to a spec that cannot take it; surfaced as a
    /// typed error at fit time (builder setters stay infallible).
    fn invalid_knob(spec: Spec, knob: &str) -> Spec {
        match spec {
            // Keep the first failure — it names the original mistake.
            Spec::Invalid(message) => Spec::Invalid(message),
            Spec::Registry { method, .. } => Spec::Invalid(format!(
                "method {:?} takes no {knob} setting",
                method.name()
            )),
            Spec::Custom(t) => Spec::Invalid(format!(
                "custom transform {:?} takes no {knob} setting — configure it before \
                 with_transform",
                t.name()
            )),
        }
    }

    fn into_transform(self) -> Result<Box<dyn PrivacyTransform>> {
        match self {
            Spec::Invalid(message) => Err(RbtError::InvalidConfig(message)),
            Spec::Custom(t) => Ok(t),
            Spec::Registry {
                method,
                thresholds,
                pairing,
                normalization,
                suppress_ids,
            } => {
                let has_rbt_knobs =
                    thresholds.is_some() || pairing.is_some() || normalization.is_some();
                match method {
                    Method::Rbt | Method::HybridIsometry => {
                        let mut config = crate::methods::default_rbt_config();
                        if let Some(t) = thresholds {
                            config = config.with_thresholds(t);
                        }
                        if let Some(p) = pairing {
                            config = config.with_pairing(p);
                        }
                        let normalization =
                            normalization.unwrap_or_else(Normalization::zscore_paper);
                        let suppress = suppress_ids.unwrap_or(true);
                        Ok(if method == Method::Rbt {
                            Box::new(
                                RbtMethod::new(config)
                                    .with_normalization(normalization)
                                    .with_id_suppression(suppress),
                            )
                        } else {
                            Box::new(
                                HybridIsometryMethod::new(config)
                                    .with_normalization(normalization)
                                    .with_id_suppression(suppress),
                            )
                        })
                    }
                    Method::Noise | Method::Swap | Method::Geometric => {
                        if has_rbt_knobs {
                            return Err(RbtError::InvalidConfig(format!(
                                "method {:?} takes no thresholds/pairing/normalization — it \
                                 perturbs raw values directly; tune it by constructing the \
                                 transform explicitly and using with_transform",
                                method.name()
                            )));
                        }
                        let suppress = suppress_ids.unwrap_or(true);
                        Ok(match method {
                            Method::Noise => Box::new(
                                NoiseMethod::new(crate::methods::default_noise())
                                    .with_id_suppression(suppress),
                            ),
                            Method::Swap => Box::new(
                                SwapMethod::new(crate::methods::default_swap())
                                    .with_id_suppression(suppress),
                            ),
                            _ => Box::new(
                                GeometricMethod::new(rbt_transform::HybridPerturbation::default())
                                    .with_id_suppression(suppress),
                            ),
                        })
                    }
                }
            }
        }
    }
}

/// A completed release: the released dataset plus the fitted transform
/// behind it.
pub struct FittedRelease {
    released: Dataset,
    fitted: Box<dyn FittedTransform>,
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
    /// The initial release of the fitting data.
    pub fn released(&self) -> &Dataset {
        &self.released
    }

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
    pub fn transform_batch(&self, batch: &Dataset) -> Result<Dataset> {
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

    /// Borrows the fitted transform.
    pub fn fitted(&self) -> &dyn FittedTransform {
        self.fitted.as_ref()
    }

    /// The underlying [`ReleaseSession`] when the fitted method is RBT
    /// (`None` for every other method) — the bridge to the session-level
    /// API (per-batch drift counts, zero-copy `_into` batches, text
    /// key-file form).
    pub fn session(&self) -> Option<&ReleaseSession> {
        self.fitted
            .as_any()
            .downcast_ref::<FittedRbt>()
            .map(FittedRbt::session)
    }
}
