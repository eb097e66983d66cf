//! Cross-crate integration: the full release workflow — generate, pipeline,
//! serialize to CSV, mine on the other side, recover on the owner side —
//! exercising rbt-data, rbt-core, rbt-cluster, and the facade together.

use rand::SeedableRng;
use rbt::cluster::metrics::same_partition;
use rbt::cluster::{KMeans, KMeansInit};
use rbt::core::{PairingStrategy, Pipeline, PipelineOutput, RbtConfig, ReleaseSession};
use rbt::data::synth::GaussianMixture;
use rbt::data::{csv, Dataset, Normalization};
use rbt::PairwiseSecurityThreshold;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

fn release(rows: usize, cols: usize, seed: u64) -> (Dataset, PipelineOutput) {
    let mut r = rng(seed);
    let gm = GaussianMixture::well_separated(3, cols, 10.0, 1.0).unwrap();
    let sample = gm.sample(rows, &mut r);
    let data = Dataset::from_matrix(sample.matrix)
        .with_ids((0..rows as u64).collect())
        .unwrap();
    let pipeline = Pipeline::new(RbtConfig::uniform(
        PairwiseSecurityThreshold::uniform(0.4).unwrap(),
    ));
    let output = pipeline.run(&data, &mut r).unwrap();
    (data, output)
}

#[test]
fn csv_round_trip_preserves_the_release() {
    let (_, output) = release(200, 4, 1);
    let text = csv::to_csv(&output.released);
    let parsed = csv::from_csv(&text).unwrap();
    assert_eq!(parsed.columns(), output.released.columns());
    // f64 Display round-trips exactly.
    assert!(parsed.matrix().approx_eq(output.released.matrix(), 0.0));
}

#[test]
fn miner_clusters_release_identically_to_owner() {
    let (_, output) = release(300, 6, 2);
    let km = KMeans::new(3).unwrap().with_init(KMeansInit::FirstK);
    let on_release = km
        .fit(output.released.matrix(), &mut rng(0))
        .unwrap()
        .labels;
    let on_original = km
        .fit(output.normalized.matrix(), &mut rng(0))
        .unwrap()
        .labels;
    assert!(same_partition(&on_release, &on_original));
}

#[test]
fn key_serialization_survives_the_full_loop() {
    let (data, output) = release(150, 5, 3);
    // Owner stores key and normalizer as a session key file …
    let stored = ReleaseSession::from_pipeline_output(&output)
        .unwrap()
        .to_text();
    // … and later parses it back to decode the release.
    let session = ReleaseSession::from_text(&stored).unwrap();
    let normalized = session.key().invert(output.released.matrix()).unwrap();
    let raw = session.normalizer().inverse_transform(&normalized).unwrap();
    assert!(raw.approx_eq(data.matrix(), 1e-8));
}

#[test]
fn key_applies_to_late_arriving_rows() {
    // New rows arrive after the release; the owner normalizes them with the
    // *fitted* parameters and applies the stored key — the releases stay
    // mutually consistent (distances between old and new rows preserved).
    let (data, output) = release(120, 4, 4);
    let mut r = rng(5);
    let gm = GaussianMixture::well_separated(3, 4, 10.0, 1.0).unwrap();
    let fresh = gm.sample(30, &mut r);
    let fresh_normalized = output.normalizer.transform(&fresh.matrix).unwrap();
    let fresh_released = output.key.apply(&fresh_normalized).unwrap();

    // Distance between a fresh row and an old row must be identical in
    // normalized and released space.
    let old_norm = output.normalizer.transform(data.matrix()).unwrap();
    let old_rel = output.released.matrix();
    for i in 0..5 {
        for j in 0..5 {
            let before = rbt::linalg::distance::Metric::Euclidean
                .distance(fresh_normalized.row(i), old_norm.row(j));
            let after = rbt::linalg::distance::Metric::Euclidean
                .distance(fresh_released.row(i), old_rel.row(j));
            assert!((before - after).abs() < 1e-10);
        }
    }
}

#[test]
fn per_pair_thresholds_flow_through_pipeline() {
    let mut r = rng(6);
    let gm = GaussianMixture::well_separated(2, 4, 8.0, 1.0).unwrap();
    let data = Dataset::from_matrix(gm.sample(100, &mut r).matrix);
    let config = RbtConfig::uniform(PairwiseSecurityThreshold::uniform(0.2).unwrap())
        .with_pairing(PairingStrategy::Explicit(vec![(0, 1), (2, 3)]))
        .with_thresholds(rbt::core::ThresholdPolicy::PerPair(vec![
            PairwiseSecurityThreshold::new(1.0, 1.0).unwrap(),
            PairwiseSecurityThreshold::new(0.2, 0.2).unwrap(),
        ]));
    let output = Pipeline::new(config).run(&data, &mut r).unwrap();
    let steps = output.key.steps();
    assert!(steps[0].achieved_var1 >= 1.0 && steps[0].achieved_var2 >= 1.0);
    assert!(steps[1].achieved_var1 >= 0.2 && steps[1].achieved_var2 >= 0.2);
}

#[test]
fn normalization_variants_compose_with_rbt() {
    let mut r = rng(7);
    let gm = GaussianMixture::well_separated(2, 4, 8.0, 1.0).unwrap();
    let data = Dataset::from_matrix(gm.sample(100, &mut r).matrix);
    for normalization in [
        Normalization::zscore_paper(),
        Normalization::min_max_unit(),
        Normalization::DecimalScaling,
    ] {
        // PSTs are calibrated to the normalized scale: min-max and decimal
        // scaling shrink variances well below 1, so a fixed rho that works
        // for z-scores is unsatisfiable there. Scale rho to the smallest
        // column variance the normalization produces.
        let (_, preview) = normalization.fit_transform(data.matrix()).unwrap();
        let min_var = rbt::linalg::stats::column_variances(&preview, rbt::VarianceMode::Sample)
            .unwrap()
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        let pipeline = Pipeline::new(RbtConfig::uniform(
            PairwiseSecurityThreshold::uniform(0.05 * min_var).unwrap(),
        ))
        .with_normalization(normalization);
        let output = pipeline.run(&data, &mut r).unwrap();
        let drift = rbt::core::isometry::dissimilarity_drift(
            output.normalized.matrix(),
            output.released.matrix(),
        );
        assert!(drift < 1e-9, "{normalization:?}: drift {drift}");
        let recovered = Pipeline::recover(&output, output.released.matrix()).unwrap();
        assert!(recovered.approx_eq(data.matrix(), 1e-7));
    }
}
