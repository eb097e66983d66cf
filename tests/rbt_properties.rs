//! Property-based tests of the RBT method's contract, on random data:
//! isometry, threshold satisfaction, key invertibility, and pairing
//! coverage — the invariants Theorems 1–2, Corollary 1 and Definition 2
//! promise.

use proptest::prelude::*;
use rand::SeedableRng;
use rbt::core::isometry::dissimilarity_drift;
use rbt::core::{
    PairingStrategy, PairwiseSecurityThreshold, RbtConfig, RbtTransformer, ReleaseSession,
};
use rbt::data::Normalization;
use rbt::linalg::Matrix;

/// Random full-rank-ish data matrices: values in a sane range, shapes that
/// exercise both even and odd attribute counts.
fn data_matrix() -> impl Strategy<Value = Matrix> {
    (4usize..40, 2usize..7).prop_flat_map(|(rows, cols)| {
        prop::collection::vec(-50.0..50.0f64, rows * cols)
            .prop_map(move |data| Matrix::from_vec(rows, cols, data).unwrap())
    })
}

fn normalized(m: &Matrix) -> Option<Matrix> {
    // Skip degenerate draws where a column is (nearly) constant — the
    // z-score is undefined there and the variance curves vanish.
    let (_, z) = Normalization::zscore_paper().fit_transform(m).ok()?;
    let vars = rbt::linalg::stats::column_variances(&z, rbt::VarianceMode::Sample).ok()?;
    vars.iter().all(|&v| v > 0.5).then_some(z)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rbt_is_always_an_isometry(m in data_matrix(), seed in 0u64..1000) {
        let Some(z) = normalized(&m) else { return Ok(()); };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let out = RbtTransformer::new(RbtConfig::uniform(
            PairwiseSecurityThreshold::uniform(0.05).unwrap(),
        ))
        .transform(&z, &mut rng);
        let Ok(out) = out else { return Ok(()); }; // unsatisfiable PST on this draw
        let drift = dissimilarity_drift(&z, &out.transformed);
        prop_assert!(drift < 1e-8, "drift {drift}");
    }

    #[test]
    fn achieved_variances_meet_the_threshold(m in data_matrix(), seed in 0u64..1000) {
        let Some(z) = normalized(&m) else { return Ok(()); };
        let rho = 0.1;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let out = RbtTransformer::new(RbtConfig::uniform(
            PairwiseSecurityThreshold::uniform(rho).unwrap(),
        ))
        .transform(&z, &mut rng);
        let Ok(out) = out else { return Ok(()); };
        for step in out.key.steps() {
            prop_assert!(step.achieved_var1 >= rho - 1e-9, "{step:?}");
            prop_assert!(step.achieved_var2 >= rho - 1e-9, "{step:?}");
        }
    }

    #[test]
    fn key_inverts_every_release(m in data_matrix(), seed in 0u64..1000) {
        let Some(z) = normalized(&m) else { return Ok(()); };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let out = RbtTransformer::new(RbtConfig::uniform(
            PairwiseSecurityThreshold::uniform(0.05).unwrap(),
        ))
        .transform(&z, &mut rng);
        let Ok(out) = out else { return Ok(()); };
        let back = out.key.invert(&out.transformed).unwrap();
        prop_assert!(back.approx_eq(&z, 1e-9));
    }

    #[test]
    fn key_text_round_trip(m in data_matrix(), seed in 0u64..1000) {
        let Some(z) = normalized(&m) else { return Ok(()); };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let out = RbtTransformer::new(RbtConfig::uniform(
            PairwiseSecurityThreshold::uniform(0.05).unwrap(),
        ))
        .transform(&z, &mut rng);
        let Ok(out) = out else { return Ok(()); };
        // The key persists inside its session's text key file.
        let normalizer = Normalization::zscore_paper().fit(&m).unwrap();
        let session = ReleaseSession::new(out.key.clone(), normalizer).unwrap();
        let parsed = ReleaseSession::from_text(&session.to_text()).unwrap();
        prop_assert_eq!(parsed.key(), &out.key);
        // The parsed key decodes the release identically.
        let a = out.key.invert(&out.transformed).unwrap();
        let b = parsed.key().invert(&out.transformed).unwrap();
        prop_assert!(a.approx_eq(&b, 1e-12));
    }

    #[test]
    fn every_column_is_distorted(m in data_matrix(), seed in 0u64..1000) {
        let Some(z) = normalized(&m) else { return Ok(()); };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let out = RbtTransformer::new(RbtConfig::uniform(
            PairwiseSecurityThreshold::uniform(0.1).unwrap(),
        ).with_pairing(PairingStrategy::RandomShuffle))
        .transform(&z, &mut rng);
        let Ok(out) = out else { return Ok(()); };
        for j in 0..z.cols() {
            let before = z.column(j);
            let after = out.transformed.column(j);
            let moved = before.iter().zip(&after).any(|(a, b)| (a - b).abs() > 1e-9);
            prop_assert!(moved, "column {j} escaped distortion");
        }
    }

    #[test]
    fn hybrid_isometry_preserves_distances_and_inverts(m in data_matrix(), seed in 0u64..1000) {
        let Some(z) = normalized(&m) else { return Ok(()); };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let hybrid = rbt::core::reflection::HybridIsometry::new(RbtConfig::uniform(
            PairwiseSecurityThreshold::uniform(0.05).unwrap(),
        ));
        let out = hybrid.transform(&z, &mut rng);
        let Ok(out) = out else { return Ok(()); };
        prop_assert!(dissimilarity_drift(&z, &out.transformed) < 1e-8);
        let back = out.key.invert(&out.transformed).unwrap();
        prop_assert!(back.approx_eq(&z, 1e-9));
    }

    #[test]
    fn composite_matrix_is_orthogonal_and_consistent(m in data_matrix(), seed in 0u64..1000) {
        let Some(z) = normalized(&m) else { return Ok(()); };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let out = RbtTransformer::new(RbtConfig::uniform(
            PairwiseSecurityThreshold::uniform(0.05).unwrap(),
        ))
        .transform(&z, &mut rng);
        let Ok(out) = out else { return Ok(()); };
        let r = out.key.composite_matrix().unwrap();
        prop_assert!(rbt::linalg::rotation::is_orthogonal(&r, 1e-9));
        let via_matrix = z.matmul(&r.transpose()).unwrap();
        prop_assert!(via_matrix.approx_eq(&out.transformed, 1e-8));
    }
}
