//! The RBT algorithm (§4.3, Step 2) — Definition 3's `RBT = (D, fr)`.
//!
//! Given a **normalized** data matrix, the transformer:
//!
//! 1. selects attribute pairs ([`PairingStrategy`]),
//! 2. for each pair, derives the variance curves as a function of θ
//!    (step 2a–2b), solves the **security range** (step 2c),
//! 3. draws θ uniformly at random from that range,
//! 4. rotates the two columns in place (step 2d), and
//! 5. records the step in a [`TransformationKey`].
//!
//! Every key fit runs this one pair loop: [`RbtTransformer::transform`],
//! the fixed-angle replay [`RbtTransformer::transform_with_angles`] and the
//! reflection extension's [`HybridIsometry::transform`] differ only in how
//! they draw each pair's step. Each step is applied with the release
//! sweep ([`apply_steps_in_rows`]), so a fit rotates with exactly the
//! arithmetic that later releases batches with.
//!
//! The loop visits each pair once and each step costs `O(m)` plus the
//! solver's `O(grid)`, giving the `O(m·n)` total of Theorem 1 (the bench
//! suite's `rbt_scaling` target measures exactly this).
//!
//! [`HybridIsometry::transform`]: crate::reflection::HybridIsometry::transform

use crate::key::{RotationStep, TransformationKey};
use crate::pairing::PairingStrategy;
use crate::security::{
    draw_rotation, PairVarianceProfile, PairwiseSecurityThreshold, DEFAULT_GRID,
};
use crate::{Error, Result};
use rand::Rng;
use rbt_linalg::codec::{ByteReader, ByteWriter, DecodeError, DecodeResult};
use rbt_linalg::matrix::{apply_steps_in_rows, PairStep};
use rbt_linalg::stats::VarianceMode;
use rbt_linalg::Matrix;

/// How thresholds are assigned to pairs.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ThresholdPolicy {
    /// One threshold shared by every pair.
    Uniform(PairwiseSecurityThreshold),
    /// One threshold per pair, in pairing order (the paper's running
    /// example: `PST1 = (0.30, 0.55)`, `PST2 = (2.30, 2.30)`).
    PerPair(Vec<PairwiseSecurityThreshold>),
}

impl From<PairwiseSecurityThreshold> for ThresholdPolicy {
    /// A single threshold means "uniform across every pair".
    fn from(pst: PairwiseSecurityThreshold) -> Self {
        ThresholdPolicy::Uniform(pst)
    }
}

impl ThresholdPolicy {
    fn resolve(&self, n_pairs: usize) -> Result<Vec<PairwiseSecurityThreshold>> {
        match self {
            ThresholdPolicy::Uniform(pst) => Ok(vec![*pst; n_pairs]),
            ThresholdPolicy::PerPair(list) => {
                if list.len() != n_pairs {
                    return Err(Error::InvalidParameter(format!(
                        "{} thresholds for {n_pairs} pairs",
                        list.len()
                    )));
                }
                Ok(list.clone())
            }
        }
    }
}

/// Configuration of an RBT run.
#[derive(Debug, Clone, PartialEq)]
pub struct RbtConfig {
    /// Pair-selection strategy (§4.3 Step 1).
    pub pairing: PairingStrategy,
    /// Threshold assignment (§4.2, Pairwise-Security Threshold).
    pub thresholds: ThresholdPolicy,
    /// Variance divisor; [`VarianceMode::Sample`] matches the paper's
    /// numbers.
    pub variance_mode: VarianceMode,
    /// Grid resolution of the security-range solver.
    pub solver_grid: usize,
}

impl RbtConfig {
    /// A configuration with a single threshold for all pairs, sequential
    /// pairing, paper-matching variance mode, and the default solver grid.
    pub fn uniform(pst: PairwiseSecurityThreshold) -> Self {
        RbtConfig {
            pairing: PairingStrategy::Sequential,
            thresholds: ThresholdPolicy::Uniform(pst),
            variance_mode: VarianceMode::Sample,
            solver_grid: DEFAULT_GRID,
        }
    }

    /// Replaces the pairing strategy.
    pub fn with_pairing(mut self, pairing: PairingStrategy) -> Self {
        self.pairing = pairing;
        self
    }

    /// Replaces the threshold policy.
    pub fn with_thresholds(mut self, thresholds: ThresholdPolicy) -> Self {
        self.thresholds = thresholds;
        self
    }

    /// Replaces the variance mode.
    pub fn with_variance_mode(mut self, mode: VarianceMode) -> Self {
        self.variance_mode = mode;
        self
    }

    /// Replaces the solver grid resolution.
    pub fn with_solver_grid(mut self, grid: usize) -> Self {
        self.solver_grid = grid;
        self
    }

    /// Resolves the threshold policy against a pair count, as every key
    /// fit does once it has drawn its pairs (the federated coordinator
    /// calls it for the pooled fit's thresholds).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if a per-pair list disagrees
    /// with `n_pairs`.
    pub fn thresholds_for(&self, n_pairs: usize) -> Result<Vec<PairwiseSecurityThreshold>> {
        self.thresholds.resolve(n_pairs)
    }

    /// Appends the binary config record: pairing tag (`0` sequential, `1`
    /// random shuffle, `2` explicit followed by a `u64` count and the
    /// `(i, j)` index pairs), threshold tag (`0` uniform followed by one
    /// `(ρ1, ρ2)`, `1` per-pair followed by a `u64` count and the pairs),
    /// variance mode (`0` population, `1` sample), then the solver grid.
    ///
    /// This is the one encoding of an RBT configuration: the key file's
    /// config and session records and the federation's announced
    /// configuration all carry it.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        match &self.pairing {
            PairingStrategy::Sequential => w.put_u8(0),
            PairingStrategy::RandomShuffle => w.put_u8(1),
            PairingStrategy::Explicit(pairs) => {
                w.put_u8(2);
                w.put_usize(pairs.len());
                for &(i, j) in pairs {
                    w.put_usize(i);
                    w.put_usize(j);
                }
            }
        }
        match &self.thresholds {
            ThresholdPolicy::Uniform(pst) => {
                w.put_u8(0);
                w.put_f64s(&[pst.rho1, pst.rho2]);
            }
            ThresholdPolicy::PerPair(list) => {
                w.put_u8(1);
                w.put_usize(list.len());
                for pst in list {
                    w.put_f64s(&[pst.rho1, pst.rho2]);
                }
            }
        }
        w.put_u8(match self.variance_mode {
            VarianceMode::Population => 0,
            VarianceMode::Sample => 1,
        });
        w.put_usize(self.solver_grid);
    }

    /// Decodes a record written by [`encode_into`](Self::encode_into),
    /// advancing `r` past it.
    ///
    /// # Errors
    ///
    /// Returns a typed [`DecodeError`] for truncated input, an unknown tag,
    /// a pair or threshold count the remaining bytes cannot hold, or an
    /// out-of-range threshold.
    pub fn decode_from(r: &mut ByteReader<'_>) -> DecodeResult<Self> {
        fn unknown(offset: usize, what: &str, tag: u8) -> DecodeError {
            DecodeError::Malformed {
                offset,
                message: format!("unknown {what} tag {tag}"),
            }
        }
        fn pst(r: &mut ByteReader<'_>) -> DecodeResult<PairwiseSecurityThreshold> {
            let offset = r.position();
            let (rho1, rho2) = (r.take_f64()?, r.take_f64()?);
            PairwiseSecurityThreshold::new(rho1, rho2).map_err(|e| DecodeError::Malformed {
                offset,
                message: e.to_string(),
            })
        }
        let offset = r.position();
        let pairing = match r.take_u8()? {
            0 => PairingStrategy::Sequential,
            1 => PairingStrategy::RandomShuffle,
            2 => {
                let n = r.take_usize()?;
                r.check_count(n, 16)?;
                let mut pairs = Vec::with_capacity(n);
                for _ in 0..n {
                    pairs.push((r.take_usize()?, r.take_usize()?));
                }
                PairingStrategy::Explicit(pairs)
            }
            tag => return Err(unknown(offset, "pairing", tag)),
        };
        let offset = r.position();
        let thresholds = match r.take_u8()? {
            0 => ThresholdPolicy::Uniform(pst(r)?),
            1 => {
                let n = r.take_usize()?;
                r.check_count(n, 16)?;
                let mut list = Vec::with_capacity(n);
                for _ in 0..n {
                    list.push(pst(r)?);
                }
                ThresholdPolicy::PerPair(list)
            }
            tag => return Err(unknown(offset, "threshold", tag)),
        };
        let offset = r.position();
        let variance_mode = match r.take_u8()? {
            0 => VarianceMode::Population,
            1 => VarianceMode::Sample,
            tag => return Err(unknown(offset, "variance mode", tag)),
        };
        Ok(RbtConfig {
            pairing,
            thresholds,
            variance_mode,
            solver_grid: r.take_usize()?,
        })
    }
}

/// Output of an RBT run: the released matrix plus the owner's secret key.
#[derive(Debug, Clone)]
pub struct RbtOutput {
    /// The transformed (released) data matrix `D'`.
    pub transformed: Matrix,
    /// The secret transformation key (pairs, angles, achieved variances).
    pub key: TransformationKey,
}

/// The RBT transformer.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use rbt_core::{RbtConfig, RbtTransformer, PairwiseSecurityThreshold};
/// use rbt_data::{datasets, Normalization};
///
/// let raw = datasets::arrhythmia_sample();
/// let (_, normalized) = Normalization::zscore_paper()
///     .fit_transform(raw.matrix()).unwrap();
///
/// let config = RbtConfig::uniform(PairwiseSecurityThreshold::uniform(0.3).unwrap());
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let out = RbtTransformer::new(config).transform(&normalized, &mut rng).unwrap();
///
/// // Distances are preserved (Theorem 2) …
/// let diff = rbt_core::isometry::dissimilarity_drift(&normalized, &out.transformed);
/// assert!(diff < 1e-9);
/// // … while every attribute meets its security threshold.
/// for step in out.key.steps() {
///     assert!(step.achieved_var1 >= 0.3 && step.achieved_var2 >= 0.3);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct RbtTransformer {
    config: RbtConfig,
}

impl RbtTransformer {
    /// Creates a transformer with the given configuration.
    pub fn new(config: RbtConfig) -> Self {
        RbtTransformer { config }
    }

    /// The configuration.
    pub fn config(&self) -> &RbtConfig {
        &self.config
    }

    /// Runs the RBT algorithm on a normalized data matrix.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidParameter`] for NaN or ∞ input, fewer than 2
    ///   columns or a threshold/pair count mismatch,
    /// * [`Error::InvalidPairing`] for a malformed explicit pairing,
    /// * [`Error::EmptySecurityRange`] when a pair cannot meet its
    ///   threshold at any angle (the error reports the maximum achievable
    ///   variances so the administrator can pick a feasible PST).
    pub fn transform<R: Rng + ?Sized>(
        &self,
        normalized: &Matrix,
        rng: &mut R,
    ) -> Result<RbtOutput> {
        let grid = self.config.solver_grid;
        let (transformed, steps) = fit_pairs(&self.config, normalized, rng, |p, rng| {
            draw_rotation((p.i, p.j), &p.profile, p.pst, grid, rng)
        })?;
        Ok(RbtOutput {
            transformed,
            key: TransformationKey::new(steps, normalized.cols())?,
        })
    }

    /// Runs the algorithm with **fixed angles** instead of random draws —
    /// used to replay the paper's running example and for regression tests.
    /// Angles are taken per pair, in pairing order; thresholds are still
    /// checked (an angle outside its pair's security range is an error).
    ///
    /// # Errors
    ///
    /// As [`transform`](Self::transform), plus [`Error::InvalidParameter`]
    /// if `angles.len()` disagrees with the pairing or an angle violates
    /// its pair's threshold.
    pub fn transform_with_angles<R: Rng + ?Sized>(
        &self,
        normalized: &Matrix,
        angles: &[f64],
        rng: &mut R,
    ) -> Result<RbtOutput> {
        let (transformed, steps) = fit_pairs(&self.config, normalized, rng, |p, _| {
            if angles.len() != p.n_pairs {
                return Err(Error::InvalidParameter(format!(
                    "{} angles for {} pairs",
                    angles.len(),
                    p.n_pairs
                )));
            }
            let theta = angles[p.k];
            let (var1, var2) = (
                p.profile.var_diff_first(theta),
                p.profile.var_diff_second(theta),
            );
            if !p.profile.satisfies(theta, p.pst) {
                return Err(Error::InvalidParameter(format!(
                    "angle {theta}° violates PST ({}, {}) for pair ({}, {}): \
                     achieved ({var1:.4}, {var2:.4})",
                    p.pst.rho1, p.pst.rho2, p.i, p.j,
                )));
            }
            Ok(RotationStep {
                i: p.i,
                j: p.j,
                theta_degrees: theta,
                achieved_var1: var1,
                achieved_var2: var2,
            })
        })?;
        Ok(RbtOutput {
            transformed,
            key: TransformationKey::new(steps, normalized.cols())?,
        })
    }
}

/// A key step as the pair loop records it.
pub(crate) trait KeyStep {
    /// The step as a 2×2 sweep step.
    fn forward(&self) -> PairStep;
}

/// One attribute pair, as the pair loop hands it to a draw.
pub(crate) struct Pair<'a> {
    /// Position in pairing order.
    pub k: usize,
    /// How many pairs the pairing drew.
    pub n_pairs: usize,
    /// First attribute.
    pub i: usize,
    /// Second attribute.
    pub j: usize,
    /// The second moments of the two columns as the earlier steps left them.
    pub profile: PairVarianceProfile,
    /// The pair's threshold.
    pub pst: &'a PairwiseSecurityThreshold,
}

/// The one pair loop of every key fit (§4.3, Step 2).
///
/// Refuses NaN or ∞ input, draws the pairing (the fit's first use of
/// `rng`) and resolves the thresholds. Then, for each pair in pairing
/// order, it profiles the two current columns, asks `draw` for the step,
/// applies the step to every row with the release sweep
/// ([`apply_steps_in_rows`]) and records it. Returns the transformed copy
/// of `normalized` and the steps.
///
/// # Errors
///
/// * [`Error::InvalidParameter`] for non-finite input, fewer than 2
///   columns or a threshold/pair count mismatch,
/// * [`Error::InvalidPairing`] for a malformed explicit pairing,
/// * whatever `draw` returns.
pub(crate) fn fit_pairs<R, S>(
    config: &RbtConfig,
    normalized: &Matrix,
    rng: &mut R,
    mut draw: impl FnMut(Pair<'_>, &mut R) -> Result<S>,
) -> Result<(Matrix, Vec<S>)>
where
    R: Rng + ?Sized,
    S: KeyStep,
{
    if normalized.has_non_finite() {
        return Err(Error::InvalidParameter(
            "input matrix contains NaN or infinite values".into(),
        ));
    }
    let n = normalized.cols();
    let pairs = config.pairing.pairs(n, rng)?;
    let thresholds = config.thresholds.resolve(pairs.len())?;

    let mut out = normalized.clone();
    let mut steps = Vec::with_capacity(pairs.len());
    let mut xs: Vec<f64> = Vec::with_capacity(out.rows());
    let mut ys: Vec<f64> = Vec::with_capacity(out.rows());
    for (k, (&(i, j), pst)) in pairs.iter().zip(&thresholds).enumerate() {
        out.column_into(i, &mut xs);
        out.column_into(j, &mut ys);
        let profile = PairVarianceProfile::from_columns(&xs, &ys, config.variance_mode)?;
        let pair = Pair {
            k,
            n_pairs: pairs.len(),
            i,
            j,
            profile,
            pst,
        };
        let step = draw(pair, rng)?;
        apply_steps_in_rows(out.as_mut_slice(), n, &[step.forward()]);
        steps.push(step);
    }
    Ok((out, steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isometry::dissimilarity_drift;
    use rand::SeedableRng;
    use rbt_data::{datasets, Normalization};

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn normalized_sample() -> Matrix {
        let raw = datasets::arrhythmia_sample();
        Normalization::zscore_paper()
            .fit_transform(raw.matrix())
            .unwrap()
            .1
    }

    fn default_config() -> RbtConfig {
        RbtConfig::uniform(PairwiseSecurityThreshold::uniform(0.25).unwrap())
    }

    #[test]
    fn transform_preserves_distances() {
        let normalized = normalized_sample();
        let out = RbtTransformer::new(default_config())
            .transform(&normalized, &mut rng(3))
            .unwrap();
        assert!(dissimilarity_drift(&normalized, &out.transformed) < 1e-9);
    }

    #[test]
    fn transform_meets_thresholds() {
        let normalized = normalized_sample();
        let out = RbtTransformer::new(default_config())
            .transform(&normalized, &mut rng(5))
            .unwrap();
        for step in out.key.steps() {
            assert!(step.achieved_var1 >= 0.25, "step {step:?}");
            assert!(step.achieved_var2 >= 0.25, "step {step:?}");
        }
    }

    #[test]
    fn odd_attribute_count_distorts_every_column() {
        let normalized = normalized_sample(); // 3 columns
        let out = RbtTransformer::new(default_config())
            .transform(&normalized, &mut rng(11))
            .unwrap();
        // Every column must differ from the original.
        for j in 0..3 {
            let orig = normalized.column(j);
            let released = out.transformed.column(j);
            let moved = orig
                .iter()
                .zip(&released)
                .any(|(a, b)| (a - b).abs() > 1e-6);
            assert!(moved, "column {j} unchanged");
        }
        // Sequential pairing on 3 columns: (0,1) then (2,0).
        assert_eq!(out.key.steps().len(), 2);
    }

    #[test]
    fn key_inverts_the_release() {
        let normalized = normalized_sample();
        let out = RbtTransformer::new(default_config())
            .transform(&normalized, &mut rng(23))
            .unwrap();
        let recovered = out.key.invert(&out.transformed).unwrap();
        assert!(recovered.approx_eq(&normalized, 1e-10));
    }

    #[test]
    fn per_pair_thresholds_enforced() {
        let normalized = normalized_sample();
        let config = default_config().with_thresholds(ThresholdPolicy::PerPair(vec![
            PairwiseSecurityThreshold::new(0.30, 0.55).unwrap(),
            PairwiseSecurityThreshold::uniform(2.30).unwrap(),
        ]));
        let out = RbtTransformer::new(config)
            .transform(&normalized, &mut rng(2))
            .unwrap();
        let s = out.key.steps();
        assert!(s[0].achieved_var1 >= 0.30 && s[0].achieved_var2 >= 0.55);
        assert!(s[1].achieved_var1 >= 2.30 && s[1].achieved_var2 >= 2.30);
    }

    #[test]
    fn threshold_count_mismatch_rejected() {
        let normalized = normalized_sample();
        let config = default_config().with_thresholds(ThresholdPolicy::PerPair(vec![
            PairwiseSecurityThreshold::uniform(0.3).unwrap(),
        ]));
        assert!(matches!(
            RbtTransformer::new(config).transform(&normalized, &mut rng(0)),
            Err(Error::InvalidParameter(_))
        ));
    }

    #[test]
    fn unsatisfiable_threshold_reports_max_achievable() {
        let normalized = normalized_sample();
        let config = RbtConfig::uniform(PairwiseSecurityThreshold::uniform(50.0).unwrap());
        match RbtTransformer::new(config).transform(&normalized, &mut rng(0)) {
            Err(Error::EmptySecurityRange {
                max_var1, max_var2, ..
            }) => {
                assert!(max_var1 > 0.0 && max_var1 < 50.0);
                assert!(max_var2 > 0.0 && max_var2 < 50.0);
            }
            other => panic!("expected EmptySecurityRange, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_input_rejected() {
        // The pair loop refuses NaN or ∞ up front for every fit — RBT's,
        // the fixed-angle replay and hybrid isometry — before any pair is
        // profiled.
        let t = RbtTransformer::new(default_config());
        let hybrid = crate::reflection::HybridIsometry::new(default_config());
        let mut normalized = normalized_sample();
        for bad in [f64::NAN, f64::NEG_INFINITY] {
            normalized[(1, 2)] = bad;
            for result in [
                t.transform(&normalized, &mut rng(0))
                    .map(|out| out.transformed),
                t.transform_with_angles(&normalized, &[312.47, 147.29], &mut rng(0))
                    .map(|out| out.transformed),
                hybrid
                    .transform(&normalized, &mut rng(0))
                    .map(|out| out.transformed),
            ] {
                assert!(
                    matches!(&result, Err(Error::InvalidParameter(m)) if m.contains("NaN or infinite")),
                    "{bad}: {result:?}"
                );
            }
        }
    }

    #[test]
    fn too_few_columns_rejected() {
        let one_col = Matrix::from_columns(&[&[1.0, 2.0, 3.0]]).unwrap();
        assert!(matches!(
            RbtTransformer::new(default_config()).transform(&one_col, &mut rng(0)),
            Err(Error::InvalidParameter(_))
        ));
    }

    #[test]
    fn different_seeds_give_different_releases() {
        let normalized = normalized_sample();
        let t = RbtTransformer::new(default_config());
        let a = t.transform(&normalized, &mut rng(1)).unwrap();
        let b = t.transform(&normalized, &mut rng(2)).unwrap();
        assert!(a.transformed.max_abs_diff(&b.transformed).unwrap() > 1e-6);
        // … but both preserve distances.
        assert!(dissimilarity_drift(&normalized, &a.transformed) < 1e-9);
        assert!(dissimilarity_drift(&normalized, &b.transformed) < 1e-9);
    }

    #[test]
    fn fixed_angles_replay_and_validation() {
        let normalized = normalized_sample();
        let config = default_config().with_pairing(PairingStrategy::Explicit(vec![(0, 2), (1, 0)]));
        let t = RbtTransformer::new(config);
        // The paper's angles satisfy a loose uniform threshold.
        let out = t
            .transform_with_angles(&normalized, &[312.47, 147.29], &mut rng(0))
            .unwrap();
        assert_eq!(out.key.steps()[0].theta_degrees, 312.47);
        // θ = 0 is the identity rotation: violates any positive threshold.
        assert!(matches!(
            t.transform_with_angles(&normalized, &[0.0, 147.29], &mut rng(0)),
            Err(Error::InvalidParameter(_))
        ));
        // Angle count mismatch.
        assert!(matches!(
            t.transform_with_angles(&normalized, &[312.47], &mut rng(0)),
            Err(Error::InvalidParameter(_))
        ));
    }

    #[test]
    fn random_pairing_still_preserves_distances() {
        let normalized = normalized_sample();
        let config = default_config().with_pairing(PairingStrategy::RandomShuffle);
        let out = RbtTransformer::new(config)
            .transform(&normalized, &mut rng(9))
            .unwrap();
        assert!(dissimilarity_drift(&normalized, &out.transformed) < 1e-9);
    }
}
