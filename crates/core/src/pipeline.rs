//! The end-to-end release pipeline of the paper's Figure 1:
//! raw data → (Step 1) normalization → (Step 2) RBT distortion → release.
//!
//! §5.3 adds an anonymization step (suppressing object IDs) between
//! normalization and release; [`Pipeline::run`] performs all three and
//! returns both the releasable dataset and the owner-side secrets (fitted
//! normalizer + transformation key).

use crate::method::{RbtConfig, RbtTransformer};
use crate::Result;
use rand::Rng;
use rbt_data::{Dataset, FittedNormalizer, Normalization};

/// Figure 1's two-step transformation plus §5.3's anonymization.
#[derive(Debug, Clone)]
pub struct Pipeline {
    normalization: Normalization,
    config: RbtConfig,
    suppress_ids: bool,
}

/// Everything a pipeline run produces.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// The dataset to release: normalized, rotated, optionally ID-stripped.
    pub released: Dataset,
    /// The normalized (pre-rotation) dataset — owner-side intermediate.
    pub normalized: Dataset,
    /// Owner-side secret: the fitted normalization parameters.
    pub normalizer: FittedNormalizer,
    /// Owner-side secret: the rotation key.
    pub key: crate::key::TransformationKey,
}

impl Pipeline {
    /// Creates a pipeline with the paper's defaults: z-score normalization
    /// (sample divisor) and ID suppression on release.
    pub fn new(config: RbtConfig) -> Self {
        Pipeline {
            normalization: Normalization::zscore_paper(),
            config,
            suppress_ids: true,
        }
    }

    /// Replaces the normalization method (e.g. min–max per Eq. 3).
    pub fn with_normalization(mut self, normalization: Normalization) -> Self {
        self.normalization = normalization;
        self
    }

    /// Controls §5.3 Step 2 — whether object IDs are stripped from the
    /// released dataset (`true` by default).
    pub fn with_id_suppression(mut self, suppress: bool) -> Self {
        self.suppress_ids = suppress;
        self
    }

    /// Runs normalize → distort → (anonymize) on a dataset.
    ///
    /// Normalization fits fold the rows once per pass and each RBT step is
    /// a fused in-place column-pair sweep, so the whole release costs
    /// `O(m·n)` for the fits plus `O(p·m)` for the `p` rotations, with no
    /// per-step buffers.
    ///
    /// # Errors
    ///
    /// Propagates normalization errors ([`crate::Error::Data`]) and RBT
    /// errors (see [`RbtTransformer::transform`]).
    pub fn run<R: Rng + ?Sized>(&self, data: &Dataset, rng: &mut R) -> Result<PipelineOutput> {
        let (normalizer, normalized_matrix) = self.normalization.fit_transform(data.matrix())?;

        let mut normalized = data.clone();
        normalized
            .replace_matrix(normalized_matrix.clone())
            .map_err(crate::Error::Data)?;

        let rbt = RbtTransformer::new(self.config.clone());
        let out = rbt.transform(&normalized_matrix, rng)?;

        let mut released = data.clone();
        released
            .replace_matrix(out.transformed)
            .map_err(crate::Error::Data)?;
        if self.suppress_ids {
            released = released.anonymized();
        }

        Ok(PipelineOutput {
            released,
            normalized,
            normalizer,
            key: out.key,
        })
    }

    /// Owner-side recovery: undoes the rotations and the normalization of a
    /// released matrix, returning raw-scale values.
    ///
    /// # Errors
    ///
    /// Propagates key/normalizer shape mismatches.
    pub fn recover(
        output: &PipelineOutput,
        released: &rbt_linalg::Matrix,
    ) -> Result<rbt_linalg::Matrix> {
        let normalized = output.key.invert(released)?;
        Ok(output.normalizer.inverse_transform(&normalized)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isometry::dissimilarity_drift;
    use crate::security::PairwiseSecurityThreshold;
    use rand::SeedableRng;
    use rbt_data::datasets;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn pipeline() -> Pipeline {
        Pipeline::new(RbtConfig::uniform(
            PairwiseSecurityThreshold::uniform(0.25).unwrap(),
        ))
    }

    #[test]
    fn run_produces_anonymized_isometric_release() {
        let raw = datasets::arrhythmia_sample();
        let out = pipeline().run(&raw, &mut rng(1)).unwrap();
        // IDs stripped (§5.3 Step 2).
        assert!(out.released.ids().is_none());
        assert_eq!(out.released.columns(), raw.columns());
        // Distances preserved w.r.t. the normalized data (Theorem 2).
        assert!(dissimilarity_drift(out.normalized.matrix(), out.released.matrix()) < 1e-9);
        // Values actually distorted.
        assert!(
            out.released
                .matrix()
                .max_abs_diff(out.normalized.matrix())
                .unwrap()
                > 1e-3
        );
    }

    #[test]
    fn id_suppression_can_be_disabled() {
        let raw = datasets::arrhythmia_sample();
        let out = pipeline()
            .with_id_suppression(false)
            .run(&raw, &mut rng(2))
            .unwrap();
        assert_eq!(out.released.ids(), raw.ids());
    }

    #[test]
    fn min_max_normalization_variant() {
        let raw = datasets::arrhythmia_sample();
        let out = pipeline()
            .with_normalization(Normalization::min_max_unit())
            .run(&raw, &mut rng(3))
            .unwrap();
        assert!(dissimilarity_drift(out.normalized.matrix(), out.released.matrix()) < 1e-9);
    }

    #[test]
    fn recover_round_trips_to_raw() {
        let raw = datasets::arrhythmia_sample();
        let out = pipeline().run(&raw, &mut rng(4)).unwrap();
        let recovered = Pipeline::recover(&out, out.released.matrix()).unwrap();
        assert!(recovered.approx_eq(raw.matrix(), 1e-8));
    }

    #[test]
    fn unsatisfiable_threshold_propagates() {
        let raw = datasets::arrhythmia_sample();
        let p = Pipeline::new(RbtConfig::uniform(
            PairwiseSecurityThreshold::uniform(1e6).unwrap(),
        ));
        assert!(matches!(
            p.run(&raw, &mut rng(0)),
            Err(crate::Error::EmptySecurityRange { .. })
        ));
    }
}
