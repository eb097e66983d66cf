//! The method registry: every shipped privacy transform behind one name.
//!
//! [`Method`] enumerates the five release methods the workspace ships —
//! RBT itself, the rotation/reflection [`HybridIsometry`] extension, and
//! the three §5.2 baselines (additive noise, rank swapping, geometric
//! perturbation). [`Method::from_name`] resolves CLI / config strings, and
//! [`Method::default_transform`] constructs a ready-to-fit
//! [`PrivacyTransform`] with that method's documented defaults. The
//! concrete transform types ([`RbtMethod`], [`HybridIsometryMethod`],
//! [`NoiseMethod`], [`SwapMethod`], [`GeometricMethod`]) are public too,
//! for callers that want non-default parameters.
//!
//! Fitted states persist through [`FittedTransform::to_bytes`] and come
//! back through [`decode_fitted`]: RBT rides the existing session record
//! (so its key files stay readable by `rbt-cli transform`/`invert` and
//! every other session consumer), the rest ride the name-tagged
//! [`RecordKind::Method`] record of the same sealed envelope.

use crate::error::{RbtError, Result};
use crate::release::FittedRelease;
use crate::transform_api::{FittedTransform, MethodProperties, PrivacyTransform};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rbt_core::codec::{open_envelope, seal_envelope, CodecError, RecordKind, MAGIC};
use rbt_core::reflection::{HybridIsometry, IsometryKey, IsometryStep};
use rbt_core::security::DEFAULT_GRID;
use rbt_core::{Pipeline, RbtConfig, ReleaseSession, RowKernels, SessionBatch};
use rbt_data::{Dataset, FittedNormalizer, Normalization};
use rbt_linalg::codec::{ByteReader, ByteWriter};
use rbt_linalg::matrix::PairStep;
use rbt_transform::{AdditiveNoise, HybridPerturbation, NoiseKind, Perturbation, RankSwap};
use std::any::Any;

/// A registered release method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Method {
    /// Rotation-Based Transformation — the paper's contribution.
    Rbt,
    /// The rotation/reflection hybrid isometry (§3.1 completed).
    HybridIsometry,
    /// Additive i.i.d. noise (`Y = X + e`), the statistical-DB baseline.
    Noise,
    /// Rank swapping within a bounded window.
    Swap,
    /// The geometric (translate/scale/rotate per pair) GDTM baseline.
    Geometric,
}

impl Method {
    /// Every registered method, in registry order.
    pub const ALL: [Method; 5] = [
        Method::Rbt,
        Method::HybridIsometry,
        Method::Noise,
        Method::Swap,
        Method::Geometric,
    ];

    /// The canonical registry name.
    pub fn name(self) -> &'static str {
        match self {
            Method::Rbt => "rbt",
            Method::HybridIsometry => "hybrid-isometry",
            Method::Noise => "noise",
            Method::Swap => "swap",
            Method::Geometric => "geometric",
        }
    }

    /// A one-line description for `rbt-cli methods` and docs.
    pub fn description(self) -> &'static str {
        match self {
            Method::Rbt => {
                "rotation-based transformation: isometric, invertible, PST-tunable (the paper)"
            }
            Method::HybridIsometry => {
                "per-pair coin flip between rotation and reflection: isometric, invertible, \
                 +1 key bit per pair"
            }
            Method::Noise => "additive Gaussian noise Y = X + e: privacy/accuracy trade-off",
            Method::Swap => "rank swapping within a window: exact marginals, broken structure",
            Method::Geometric => {
                "translate/scale/rotate per attribute pair (GDTM): the authors' prior baseline"
            }
        }
    }

    /// Resolves a method by name. Canonical names and common aliases are
    /// accepted, case-insensitively.
    ///
    /// # Errors
    ///
    /// Returns [`RbtError::UnknownMethod`] for anything else.
    pub fn from_name(name: &str) -> Result<Method> {
        match name.to_ascii_lowercase().as_str() {
            "rbt" | "rotation" | "rotation-based" => Ok(Method::Rbt),
            "hybrid-isometry" | "hybrid" | "isometry" => Ok(Method::HybridIsometry),
            "noise" | "additive-noise" | "gaussian" => Ok(Method::Noise),
            "swap" | "rank-swap" | "swapping" => Ok(Method::Swap),
            "geometric" | "gdtm" => Ok(Method::Geometric),
            _ => Err(RbtError::UnknownMethod { name: name.into() }),
        }
    }

    /// Constructs the method's transform with its documented defaults:
    /// RBT/hybrid with a uniform PST of 0.3 and the paper's z-score
    /// normalization, Gaussian noise at level 0.3, a 0.2 rank-swap window,
    /// and the default geometric hybrid. The
    /// [`Release`](crate::Release) builder starts from these same
    /// defaults (the constructors below are shared).
    pub fn default_transform(self) -> Box<dyn PrivacyTransform> {
        match self {
            Method::Rbt => Box::new(RbtMethod::new(default_rbt_config())),
            Method::HybridIsometry => Box::new(HybridIsometryMethod::new(default_rbt_config())),
            Method::Noise => Box::new(NoiseMethod::new(default_noise())),
            Method::Swap => Box::new(SwapMethod::new(default_swap())),
            Method::Geometric => Box::new(GeometricMethod::new(HybridPerturbation::default())),
        }
    }
}

/// The registry default for RBT/hybrid: a uniform PST of 0.3, sequential
/// pairing, paper variance mode (shared by [`Method::default_transform`]
/// and the [`Release`](crate::Release) builder, so the documented defaults
/// cannot drift apart).
pub(crate) fn default_rbt_config() -> RbtConfig {
    RbtConfig::uniform(
        rbt_core::PairwiseSecurityThreshold::uniform(0.3)
            .expect("0.3 is a valid threshold constant"),
    )
}

/// The registry default noise distribution: Gaussian at level 0.3.
pub(crate) fn default_noise() -> AdditiveNoise {
    AdditiveNoise::gaussian(0.3).expect("0.3 is a valid noise level constant")
}

/// The registry default rank-swap window: 0.2.
pub(crate) fn default_swap() -> RankSwap {
    RankSwap::new(0.2).expect("0.2 is a valid window constant")
}

/// Coarse keyspace estimate for an angle-keyed method: `steps` angles each
/// drawn from a `grid`-position security-range discretization, plus
/// `extra_bits_per_step` (the hybrid's rotation/reflection coin). A lower
/// bound — pairing and order uncertainty only enlarge the space.
fn angle_keyspace_bits(steps: usize, grid: usize, extra_bits_per_step: f64) -> Option<f64> {
    if steps == 0 {
        return None;
    }
    Some(steps as f64 * ((grid.max(2) as f64).log2() + extra_bits_per_step))
}

/// Builds the released dataset for a transformed matrix: named columns
/// always survive, object IDs only when `suppress_ids` is off (§5.3 Step 2).
fn released_dataset(
    matrix: rbt_linalg::Matrix,
    source: &Dataset,
    suppress_ids: bool,
) -> Result<Dataset> {
    let mut out = Dataset::new(matrix, source.columns().to_vec())?;
    if !suppress_ids {
        if let Some(ids) = source.ids() {
            out = out.with_ids(ids.to_vec())?;
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// RBT
// ---------------------------------------------------------------------------

/// The paper's RBT as a [`PrivacyTransform`]: normalize → rotate pairs
/// under security thresholds → release. Fitting wraps the existing
/// [`Pipeline`] + [`ReleaseSession`] machinery, so releases through this
/// interface are **bit-identical** to the direct path.
#[derive(Debug, Clone)]
pub struct RbtMethod {
    config: RbtConfig,
    normalization: Normalization,
    suppress_ids: bool,
}

impl RbtMethod {
    /// Creates the method with the paper's z-score normalization and ID
    /// suppression on.
    pub fn new(config: RbtConfig) -> Self {
        RbtMethod {
            config,
            normalization: Normalization::zscore_paper(),
            suppress_ids: true,
        }
    }

    /// Replaces the normalization step.
    pub fn with_normalization(mut self, normalization: Normalization) -> Self {
        self.normalization = normalization;
        self
    }

    /// Controls §5.3 ID suppression on releases (`true` by default).
    pub fn with_id_suppression(mut self, suppress: bool) -> Self {
        self.suppress_ids = suppress;
        self
    }
}

impl PrivacyTransform for RbtMethod {
    fn name(&self) -> &'static str {
        "rbt"
    }

    fn properties(&self) -> MethodProperties {
        MethodProperties {
            isometric: true,
            invertible: true,
            tunable_thresholds: true,
            keyspace_bits: None,
        }
    }

    fn fit(&self, data: &Dataset, rng: &mut dyn RngCore) -> Result<FittedRelease> {
        let out = Pipeline::new(self.config.clone())
            .with_normalization(self.normalization)
            .with_id_suppression(self.suppress_ids)
            .run(data, rng)?;
        let session = ReleaseSession::from_pipeline_output(&out)?
            .with_config(self.config.clone())
            .with_id_suppression(self.suppress_ids);
        Ok(FittedRelease {
            released: out.released,
            fitted: Box::new(FittedRbt { session }),
        })
    }
}

/// A fitted RBT state: a [`ReleaseSession`] behind the object-safe
/// interface.
#[derive(Debug, Clone)]
pub struct FittedRbt {
    session: ReleaseSession,
}

impl FittedRbt {
    /// Wraps an existing session (e.g. one decoded from a key file).
    pub fn from_session(session: ReleaseSession) -> Self {
        FittedRbt { session }
    }

    /// The underlying release session.
    pub fn session(&self) -> &ReleaseSession {
        &self.session
    }
}

impl FittedTransform for FittedRbt {
    fn method_name(&self) -> &'static str {
        "rbt"
    }

    fn properties(&self) -> MethodProperties {
        let grid = self
            .session
            .config()
            .map_or(DEFAULT_GRID, |c| c.solver_grid);
        MethodProperties {
            isometric: true,
            invertible: true,
            tunable_thresholds: true,
            keyspace_bits: angle_keyspace_bits(self.session.key().steps().len(), grid, 0.0),
        }
    }

    fn n_attributes(&self) -> usize {
        self.session.key().n_attributes()
    }

    fn transform_batch(&self, batch: &Dataset) -> Result<SessionBatch> {
        Ok(self.session.transform_batch(batch)?)
    }

    fn invert_batch(&self, released: &Dataset) -> Result<Dataset> {
        Ok(self.session.invert_batch(released)?)
    }

    fn row_kernels(&self) -> Option<RowKernels<'_>> {
        Some(self.session.kernels())
    }

    fn to_bytes(&self) -> Result<Vec<u8>> {
        Ok(self.session.to_bytes())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

// ---------------------------------------------------------------------------
// Hybrid isometry
// ---------------------------------------------------------------------------

/// The rotation/reflection hybrid as a [`PrivacyTransform`]: same
/// normalization and threshold machinery as RBT, one extra key bit per
/// pair.
#[derive(Debug, Clone)]
pub struct HybridIsometryMethod {
    config: RbtConfig,
    normalization: Normalization,
    suppress_ids: bool,
}

impl HybridIsometryMethod {
    /// Creates the method with the paper's z-score normalization and ID
    /// suppression on.
    pub fn new(config: RbtConfig) -> Self {
        HybridIsometryMethod {
            config,
            normalization: Normalization::zscore_paper(),
            suppress_ids: true,
        }
    }

    /// Replaces the normalization step.
    pub fn with_normalization(mut self, normalization: Normalization) -> Self {
        self.normalization = normalization;
        self
    }

    /// Controls §5.3 ID suppression on releases (`true` by default).
    pub fn with_id_suppression(mut self, suppress: bool) -> Self {
        self.suppress_ids = suppress;
        self
    }
}

impl PrivacyTransform for HybridIsometryMethod {
    fn name(&self) -> &'static str {
        "hybrid-isometry"
    }

    fn properties(&self) -> MethodProperties {
        MethodProperties {
            isometric: true,
            invertible: true,
            tunable_thresholds: true,
            keyspace_bits: None,
        }
    }

    fn fit(&self, data: &Dataset, rng: &mut dyn RngCore) -> Result<FittedRelease> {
        let (normalizer, normalized) = self.normalization.fit_transform(data.matrix())?;
        let out = HybridIsometry::new(self.config.clone()).transform(&normalized, rng)?;
        let released = released_dataset(out.transformed, data, self.suppress_ids)?;
        Ok(FittedRelease {
            released,
            fitted: Box::new(FittedHybridIsometry::new(
                out.key,
                normalizer,
                self.config.solver_grid,
                self.suppress_ids,
            )),
        })
    }
}

/// A fitted hybrid-isometry state: the isometry key plus the fitted
/// normalizer.
#[derive(Debug, Clone)]
pub struct FittedHybridIsometry {
    key: IsometryKey,
    normalizer: FittedNormalizer,
    solver_grid: usize,
    suppress_ids: bool,
    /// The key's forward and inverse sweeps, drawn once here rather than
    /// per batch, as a release session draws its own.
    forward: Vec<PairStep>,
    inverse: Vec<PairStep>,
}

impl FittedHybridIsometry {
    fn new(
        key: IsometryKey,
        normalizer: FittedNormalizer,
        solver_grid: usize,
        suppress_ids: bool,
    ) -> Self {
        FittedHybridIsometry {
            forward: key.forward_sweep(),
            inverse: key.inverse_sweep(),
            key,
            normalizer,
            solver_grid,
            suppress_ids,
        }
    }

    /// The fitted isometry key.
    pub fn key(&self) -> &IsometryKey {
        &self.key
    }

    /// The fitted normalizer.
    pub fn normalizer(&self) -> &FittedNormalizer {
        &self.normalizer
    }

    /// The normalizer, no drift bounds, and the key's sweeps.
    fn row_kernels_of(&self) -> RowKernels<'_> {
        RowKernels::new(
            &self.normalizer,
            None,
            &self.forward,
            &self.inverse,
            self.suppress_ids,
        )
    }
}

impl FittedTransform for FittedHybridIsometry {
    fn method_name(&self) -> &'static str {
        "hybrid-isometry"
    }

    fn properties(&self) -> MethodProperties {
        MethodProperties {
            isometric: true,
            invertible: true,
            tunable_thresholds: true,
            // +1 bit per pair: the attacker must also guess each step's
            // isometry family.
            keyspace_bits: angle_keyspace_bits(self.key.steps().len(), self.solver_grid, 1.0),
        }
    }

    fn n_attributes(&self) -> usize {
        self.key.n_attributes()
    }

    fn transform_batch(&self, batch: &Dataset) -> Result<SessionBatch> {
        Ok(self.row_kernels_of().transform_batch(batch)?)
    }

    fn invert_batch(&self, released: &Dataset) -> Result<Dataset> {
        Ok(self.row_kernels_of().invert_batch(released)?)
    }

    fn row_kernels(&self) -> Option<RowKernels<'_>> {
        Some(self.row_kernels_of())
    }

    fn to_bytes(&self) -> Result<Vec<u8>> {
        let mut w = ByteWriter::new();
        w.put_str(self.method_name());
        self.normalizer.encode_into(&mut w);
        w.put_usize(self.key.n_attributes());
        w.put_usize(self.key.steps().len());
        for step in self.key.steps() {
            match *step {
                IsometryStep::Rotate {
                    i,
                    j,
                    theta_degrees,
                } => {
                    w.put_u8(0);
                    w.put_usize(i);
                    w.put_usize(j);
                    w.put_f64(theta_degrees);
                }
                IsometryStep::Reflect { i, j, phi_degrees } => {
                    w.put_u8(1);
                    w.put_usize(i);
                    w.put_usize(j);
                    w.put_f64(phi_degrees);
                }
            }
        }
        w.put_usize(self.solver_grid);
        w.put_bool(self.suppress_ids);
        Ok(seal_envelope(RecordKind::Method, w.as_bytes()))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn decode_hybrid_isometry(r: &mut ByteReader<'_>) -> Result<FittedHybridIsometry> {
    let normalizer = FittedNormalizer::decode_from(r).map_err(CodecError::from)?;
    let n_attributes = r.take_usize().map_err(CodecError::from)?;
    let n_steps = r.take_usize().map_err(CodecError::from)?;
    // Each step is a tag, two indices and an angle.
    r.check_count(n_steps, 25).map_err(CodecError::from)?;
    let mut steps = Vec::with_capacity(n_steps);
    for _ in 0..n_steps {
        let tag_offset = r.position();
        let tag = r.take_u8().map_err(CodecError::from)?;
        let i = r.take_usize().map_err(CodecError::from)?;
        let j = r.take_usize().map_err(CodecError::from)?;
        let angle = r.take_f64().map_err(CodecError::from)?;
        steps.push(match tag {
            0 => IsometryStep::Rotate {
                i,
                j,
                theta_degrees: angle,
            },
            1 => IsometryStep::Reflect {
                i,
                j,
                phi_degrees: angle,
            },
            other => {
                return Err(CodecError::Byte(rbt_linalg::codec::DecodeError::Malformed {
                    offset: tag_offset,
                    message: format!("unknown isometry step tag {other}"),
                })
                .into())
            }
        });
    }
    let solver_grid = r.take_usize().map_err(CodecError::from)?;
    let suppress_ids = r.take_bool().map_err(CodecError::from)?;
    r.expect_end().map_err(CodecError::from)?;
    let key = IsometryKey::new(steps, n_attributes)?;
    if key.n_attributes() != normalizer.n_cols() {
        return Err(RbtError::DimensionMismatch(format!(
            "isometry key covers {} attributes, normalizer {} columns",
            key.n_attributes(),
            normalizer.n_cols()
        )));
    }
    Ok(FittedHybridIsometry::new(
        key,
        normalizer,
        solver_grid,
        suppress_ids,
    ))
}

// ---------------------------------------------------------------------------
// Baselines
// ---------------------------------------------------------------------------

/// The perturbation a fitted baseline applies per batch.
#[derive(Debug, Clone, Copy)]
enum BaselineKind {
    Noise(AdditiveNoise),
    Swap(RankSwap),
    Geometric(HybridPerturbation),
}

impl BaselineKind {
    fn method_name(&self) -> &'static str {
        match self {
            BaselineKind::Noise(_) => "noise",
            BaselineKind::Swap(_) => "swap",
            BaselineKind::Geometric(_) => "geometric",
        }
    }

    fn perturb(&self, m: &rbt_linalg::Matrix, rng: &mut StdRng) -> Result<rbt_linalg::Matrix> {
        Ok(match self {
            BaselineKind::Noise(p) => p.perturb(m, rng)?,
            BaselineKind::Swap(p) => p.perturb(m, rng)?,
            BaselineKind::Geometric(p) => p.perturb(m, rng)?,
        })
    }
}

/// The per-batch perturbation stream: the fit-time secret seed mixed with
/// an FNV-1a fingerprint of the batch's shape and exact `f64` bit
/// patterns.
///
/// Content-derived seeding gives three properties at once: **distinct
/// batches draw independent perturbations** (no cross-batch reuse of
/// noise/swap patterns, which a known-sample attacker could subtract
/// off), **re-releasing identical content reuses identical draws** (so an
/// attacker cannot average fresh noise away by requesting the same batch
/// twice), and **a persisted-and-restored state behaves exactly like the
/// live one** (there is no stream position to lose).
fn baseline_batch_stream(seed: u64, m: &rbt_linalg::Matrix) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(m.rows() as u64);
    mix(m.cols() as u64);
    for &v in m.as_slice() {
        mix(v.to_bits());
    }
    StdRng::seed_from_u64(seed ^ h)
}

/// Shared fit/state machinery for the three baselines.
///
/// A baseline has no distance-preserving key: "fitting" draws a private
/// seed from the caller's RNG and releases the fitting data under a
/// stream derived from it via [`baseline_batch_stream`]; subsequent
/// batches derive their own streams the same way (noise and swapping are
/// per-record by definition; the geometric method re-draws its per-pair
/// parameters each batch). Like every other method, a baseline refuses a
/// dataset without attributes: no fitted state has zero of them.
fn fit_baseline(
    kind: BaselineKind,
    suppress_ids: bool,
    data: &Dataset,
    rng: &mut dyn RngCore,
) -> Result<FittedRelease> {
    if data.n_cols() == 0 {
        return Err(RbtError::InvalidConfig(format!(
            "method {:?} needs at least one attribute to perturb",
            kind.method_name()
        )));
    }
    let seed = rng.next_u64();
    let mut stream = baseline_batch_stream(seed, data.matrix());
    let released_matrix = kind.perturb(data.matrix(), &mut stream)?;
    let released = released_dataset(released_matrix, data, suppress_ids)?;
    Ok(FittedRelease {
        released,
        fitted: Box::new(FittedBaseline {
            kind,
            seed,
            n_attributes: data.n_cols(),
            suppress_ids,
        }),
    })
}

/// A fitted baseline: the configured perturbation plus its private seed.
#[derive(Debug, Clone)]
pub struct FittedBaseline {
    kind: BaselineKind,
    /// The fit-time seed — persisted by
    /// [`to_bytes`](FittedTransform::to_bytes). Per-batch draws are
    /// derived from it and the batch content ([`baseline_batch_stream`]),
    /// so a restored state perturbs exactly like the live one.
    seed: u64,
    n_attributes: usize,
    suppress_ids: bool,
}

impl FittedTransform for FittedBaseline {
    fn method_name(&self) -> &'static str {
        self.kind.method_name()
    }

    fn properties(&self) -> MethodProperties {
        MethodProperties {
            isometric: false,
            invertible: false,
            tunable_thresholds: false,
            keyspace_bits: None,
        }
    }

    fn n_attributes(&self) -> usize {
        self.n_attributes
    }

    fn transform_batch(&self, batch: &Dataset) -> Result<SessionBatch> {
        if batch.n_cols() != self.n_attributes {
            return Err(RbtError::DimensionMismatch(format!(
                "baseline fitted for {} attributes, batch has {}",
                self.n_attributes,
                batch.n_cols()
            )));
        }
        let mut stream = baseline_batch_stream(self.seed, batch.matrix());
        let perturbed = self.kind.perturb(batch.matrix(), &mut stream)?;
        Ok(SessionBatch {
            released: released_dataset(perturbed, batch, self.suppress_ids)?,
            out_of_range_rows: 0,
        })
    }

    fn invert_batch(&self, _released: &Dataset) -> Result<Dataset> {
        Err(RbtError::NotInvertible {
            method: self.method_name().into(),
        })
    }

    fn to_bytes(&self) -> Result<Vec<u8>> {
        let mut w = ByteWriter::new();
        w.put_str(self.method_name());
        match self.kind {
            BaselineKind::Noise(p) => {
                w.put_u8(match p.kind() {
                    NoiseKind::Uniform => 0,
                    NoiseKind::Gaussian => 1,
                });
                w.put_f64(p.level());
            }
            BaselineKind::Swap(p) => {
                w.put_f64(p.window());
            }
            BaselineKind::Geometric(p) => {
                let (lo, hi) = p.scale_bounds();
                w.put_f64(p.translation_magnitude());
                w.put_f64(lo);
                w.put_f64(hi);
            }
        }
        w.put_u64(self.seed);
        w.put_usize(self.n_attributes);
        w.put_bool(self.suppress_ids);
        Ok(seal_envelope(RecordKind::Method, w.as_bytes()))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn decode_baseline(name: &str, r: &mut ByteReader<'_>) -> Result<FittedBaseline> {
    let kind = match name {
        "noise" => {
            let tag_offset = r.position();
            let kind = match r.take_u8().map_err(CodecError::from)? {
                0 => NoiseKind::Uniform,
                1 => NoiseKind::Gaussian,
                other => {
                    return Err(CodecError::Byte(rbt_linalg::codec::DecodeError::Malformed {
                        offset: tag_offset,
                        message: format!("unknown noise kind tag {other}"),
                    })
                    .into())
                }
            };
            let level = r.take_f64().map_err(CodecError::from)?;
            BaselineKind::Noise(AdditiveNoise::new(kind, level)?)
        }
        "swap" => BaselineKind::Swap(RankSwap::new(r.take_f64().map_err(CodecError::from)?)?),
        "geometric" => {
            let magnitude = r.take_f64().map_err(CodecError::from)?;
            let lo = r.take_f64().map_err(CodecError::from)?;
            let hi = r.take_f64().map_err(CodecError::from)?;
            BaselineKind::Geometric(HybridPerturbation::new(magnitude, lo, hi)?)
        }
        other => {
            return Err(RbtError::UnknownMethod {
                name: other.to_string(),
            })
        }
    };
    let seed = r.take_u64().map_err(CodecError::from)?;
    let n_attributes_offset = r.position();
    let n_attributes = r.take_usize().map_err(CodecError::from)?;
    if n_attributes == 0 {
        return Err(CodecError::Byte(rbt_linalg::codec::DecodeError::Malformed {
            offset: n_attributes_offset,
            message: format!("a fitted {name} state needs at least one attribute"),
        })
        .into());
    }
    let suppress_ids = r.take_bool().map_err(CodecError::from)?;
    r.expect_end().map_err(CodecError::from)?;
    Ok(FittedBaseline {
        kind,
        seed,
        n_attributes,
        suppress_ids,
    })
}

/// Additive noise as a [`PrivacyTransform`].
#[derive(Debug, Clone, Copy)]
pub struct NoiseMethod {
    noise: AdditiveNoise,
    suppress_ids: bool,
}

impl NoiseMethod {
    /// Creates the method around a configured noise distribution.
    pub fn new(noise: AdditiveNoise) -> Self {
        NoiseMethod {
            noise,
            suppress_ids: true,
        }
    }

    /// Controls §5.3 ID suppression on releases (`true` by default).
    pub fn with_id_suppression(mut self, suppress: bool) -> Self {
        self.suppress_ids = suppress;
        self
    }
}

impl PrivacyTransform for NoiseMethod {
    fn name(&self) -> &'static str {
        "noise"
    }

    fn properties(&self) -> MethodProperties {
        MethodProperties {
            isometric: false,
            invertible: false,
            tunable_thresholds: false,
            keyspace_bits: None,
        }
    }

    fn fit(&self, data: &Dataset, rng: &mut dyn RngCore) -> Result<FittedRelease> {
        fit_baseline(
            BaselineKind::Noise(self.noise),
            self.suppress_ids,
            data,
            rng,
        )
    }
}

/// Rank swapping as a [`PrivacyTransform`].
#[derive(Debug, Clone, Copy)]
pub struct SwapMethod {
    swap: RankSwap,
    suppress_ids: bool,
}

impl SwapMethod {
    /// Creates the method around a configured swap window.
    pub fn new(swap: RankSwap) -> Self {
        SwapMethod {
            swap,
            suppress_ids: true,
        }
    }

    /// Controls §5.3 ID suppression on releases (`true` by default).
    pub fn with_id_suppression(mut self, suppress: bool) -> Self {
        self.suppress_ids = suppress;
        self
    }
}

impl PrivacyTransform for SwapMethod {
    fn name(&self) -> &'static str {
        "swap"
    }

    fn properties(&self) -> MethodProperties {
        MethodProperties {
            isometric: false,
            invertible: false,
            tunable_thresholds: false,
            keyspace_bits: None,
        }
    }

    fn fit(&self, data: &Dataset, rng: &mut dyn RngCore) -> Result<FittedRelease> {
        fit_baseline(BaselineKind::Swap(self.swap), self.suppress_ids, data, rng)
    }
}

/// The geometric (GDTM) hybrid as a [`PrivacyTransform`].
#[derive(Debug, Clone, Copy)]
pub struct GeometricMethod {
    hybrid: HybridPerturbation,
    suppress_ids: bool,
}

impl GeometricMethod {
    /// Creates the method around a configured geometric hybrid.
    pub fn new(hybrid: HybridPerturbation) -> Self {
        GeometricMethod {
            hybrid,
            suppress_ids: true,
        }
    }

    /// Controls §5.3 ID suppression on releases (`true` by default).
    pub fn with_id_suppression(mut self, suppress: bool) -> Self {
        self.suppress_ids = suppress;
        self
    }
}

impl PrivacyTransform for GeometricMethod {
    fn name(&self) -> &'static str {
        "geometric"
    }

    fn properties(&self) -> MethodProperties {
        MethodProperties {
            isometric: false,
            invertible: false,
            tunable_thresholds: false,
            keyspace_bits: None,
        }
    }

    fn fit(&self, data: &Dataset, rng: &mut dyn RngCore) -> Result<FittedRelease> {
        fit_baseline(
            BaselineKind::Geometric(self.hybrid),
            self.suppress_ids,
            data,
            rng,
        )
    }
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

/// Decodes any fitted transform persisted by
/// [`FittedTransform::to_bytes`]: RBT session records (binary envelope or
/// checksummed text form) come back as [`FittedRbt`], name-tagged method
/// records as their respective fitted types.
///
/// # Errors
///
/// * [`RbtError::Codec`] for corruption, truncation, or framing problems,
/// * [`RbtError::UnknownMethod`] for a method record naming a method this
///   build does not register.
pub fn decode_fitted(bytes: &[u8]) -> Result<Box<dyn FittedTransform>> {
    if !bytes.starts_with(&MAGIC) {
        // Only RBT sessions have a text form.
        return Ok(Box::new(FittedRbt::from_session(ReleaseSession::decode(
            bytes,
        )?)));
    }
    match open_envelope(bytes, RecordKind::Method) {
        Ok(payload) => {
            let mut r = ByteReader::new(payload);
            let name = r.take_str().map_err(CodecError::from)?.to_string();
            match name.as_str() {
                "hybrid-isometry" => Ok(Box::new(decode_hybrid_isometry(&mut r)?)),
                _ => Ok(Box::new(decode_baseline(&name, &mut r)?)),
            }
        }
        Err(rbt_core::Error::Codec(CodecError::WrongKind { .. })) => Ok(Box::new(
            FittedRbt::from_session(ReleaseSession::from_bytes(bytes)?),
        )),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_round_trips_names_and_aliases() {
        for m in Method::ALL {
            assert_eq!(Method::from_name(m.name()).unwrap(), m);
            assert_eq!(m.default_transform().name(), m.name());
            assert!(!m.description().is_empty());
        }
        assert_eq!(Method::from_name("RBT").unwrap(), Method::Rbt);
        assert_eq!(Method::from_name("rank-swap").unwrap(), Method::Swap);
        assert_eq!(Method::from_name("gdtm").unwrap(), Method::Geometric);
        assert!(matches!(
            Method::from_name("wavelet"),
            Err(RbtError::UnknownMethod { .. })
        ));
    }

    #[test]
    fn keyspace_estimate_shape() {
        assert_eq!(angle_keyspace_bits(0, 3600, 0.0), None);
        let rbt = angle_keyspace_bits(2, 3600, 0.0).unwrap();
        let hybrid = angle_keyspace_bits(2, 3600, 1.0).unwrap();
        assert!((hybrid - rbt - 2.0).abs() < 1e-12, "+1 bit per step");
        assert!(rbt > 23.0 && rbt < 24.0, "2·log2(3600) ≈ 23.6, got {rbt}");
    }
}
