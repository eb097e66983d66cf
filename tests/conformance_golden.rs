//! Golden-file conformance: the §5.1 running-example session is committed
//! as key-file fixtures (text and binary) under `tests/fixtures/`. These
//! tests pin two things at once:
//!
//! 1. **format stability** — encoding today's `paper::run_example()`
//!    session must reproduce the committed fixtures byte for byte, so any
//!    codec change that would orphan existing key files fails CI;
//! 2. **semantic conformance** — *decoding* the fixtures must yield a
//!    session that replays the paper's Tables 2–6 digit-for-digit against
//!    the copies embedded in `rbt_data::datasets`, and inverts back to
//!    Table 1.
//!
//! Regenerate after an intentional format bump with:
//! `RBT_REGEN_FIXTURES=1 cargo test --test conformance_golden`.

use rbt::core::security::DEFAULT_GRID;
use rbt::core::{paper, DriftBounds, PairingStrategy, RbtConfig, ReleaseSession, ThresholdPolicy};
use rbt::data::datasets;
use rbt::linalg::dissimilarity::DissimilarityMatrix;
use rbt::linalg::distance::Metric;
use std::path::PathBuf;

const TEXT_FIXTURE: &str = "tests/fixtures/paper_session.rbt";
const BINARY_FIXTURE: &str = "tests/fixtures/paper_session.bin";

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(name)
}

/// The §5.1 session, rebuilt from the paper constants.
fn paper_session() -> ReleaseSession {
    let example = paper::run_example().unwrap();
    let config = RbtConfig::uniform(paper::pst1())
        .with_pairing(PairingStrategy::Explicit(vec![paper::PAIR1, paper::PAIR2]))
        .with_thresholds(ThresholdPolicy::PerPair(vec![paper::pst1(), paper::pst2()]))
        .with_solver_grid(DEFAULT_GRID);
    ReleaseSession::new(example.key, example.normalizer)
        .unwrap()
        .with_drift_bounds(DriftBounds::from_normalized(&example.normalized).unwrap())
        .unwrap()
        .with_config(config)
}

fn read_or_regen(name: &str, expected: &[u8]) -> Vec<u8> {
    let path = fixture_path(name);
    if std::env::var("RBT_REGEN_FIXTURES").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, expected).unwrap();
    }
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {name}: {e}\n\
             regenerate with RBT_REGEN_FIXTURES=1 cargo test --test conformance_golden"
        )
    })
}

#[test]
fn text_fixture_is_byte_stable() {
    let expected = paper_session().to_text();
    let committed = read_or_regen(TEXT_FIXTURE, expected.as_bytes());
    assert_eq!(
        String::from_utf8(committed).unwrap(),
        expected,
        "committed text fixture no longer matches the encoder — \
         a format change would orphan existing key files"
    );
}

#[test]
fn binary_fixture_is_byte_stable() {
    let expected = paper_session().to_bytes();
    let committed = read_or_regen(BINARY_FIXTURE, &expected);
    assert_eq!(
        committed, expected,
        "committed binary fixture no longer matches the encoder"
    );
}

#[test]
fn fixtures_agree_with_each_other() {
    let text = ReleaseSession::decode(&std::fs::read(fixture_path(TEXT_FIXTURE)).unwrap()).unwrap();
    let binary =
        ReleaseSession::decode(&std::fs::read(fixture_path(BINARY_FIXTURE)).unwrap()).unwrap();
    assert_eq!(text.key(), binary.key());
    for (a, b) in text.key().steps().iter().zip(binary.key().steps()) {
        assert_eq!(a.theta_degrees.to_bits(), b.theta_degrees.to_bits());
    }
    assert_eq!(text.normalizer(), binary.normalizer());
    assert_eq!(text.config(), binary.config());
    assert_eq!(text.drift_bounds(), binary.drift_bounds());
}

#[test]
fn decoded_fixture_replays_tables_2_through_6() {
    let example = paper::run_example().unwrap();
    let session =
        ReleaseSession::decode(&std::fs::read(fixture_path(TEXT_FIXTURE)).unwrap()).unwrap();

    // The decoded key is the paper's key, bit for bit.
    assert_eq!(session.key(), &example.key);
    assert_eq!(
        session.key().steps()[0].theta_degrees,
        paper::THETA1_DEGREES
    );
    assert_eq!(
        session.key().steps()[1].theta_degrees,
        paper::THETA2_DEGREES
    );

    // Table 1 → Table 2 via the decoded normalizer: digit-for-digit against
    // the embedded printed table (4 decimals), bitwise against the exact
    // in-process replay.
    let raw = datasets::arrhythmia_sample();
    let normalized = session.normalizer().transform(raw.matrix()).unwrap();
    assert!(normalized.approx_eq(&example.normalized, 0.0));
    assert!(normalized.approx_eq(datasets::arrhythmia_normalized_table2().matrix(), 5e-5));

    // Table 1 → Table 3 via the decoded session: bitwise against the
    // replay, digit-for-digit against the printed table.
    let batch = session.transform_batch(&raw).unwrap();
    assert!(batch.released.matrix().approx_eq(&example.transformed, 0.0));
    assert!(batch
        .released
        .matrix()
        .approx_eq(datasets::arrhythmia_transformed_table3().matrix(), 5e-4));
    // The fitting data itself never drifts out of its own fitted range.
    assert_eq!(batch.out_of_range_rows, 0);

    // Table 4 (== Table 6): the release's dissimilarity matrix.
    let dm = DissimilarityMatrix::from_matrix(batch.released.matrix(), Metric::Euclidean);
    let table4 = DissimilarityMatrix::from_condensed(
        5,
        datasets::lower_triangle_to_condensed(&datasets::ARRHYTHMIA_TABLE4_LOWER),
    )
    .unwrap();
    assert!(dm.max_abs_diff(&table4).unwrap() < 5e-4);
    // …and it is exactly the normalized data's dissimilarity (the §5.1
    // headline: clustering the release equals clustering the original).
    let dm_before = DissimilarityMatrix::from_matrix(&normalized, Metric::Euclidean);
    assert!(dm.max_abs_diff(&dm_before).unwrap() < 1e-12);

    // Table 5: what the re-normalization attacker reconstructs from the
    // decoded session's release.
    let attacked =
        rbt::attack::renormalize::renormalization_attack(batch.released.matrix(), None).unwrap();
    let dm5 = DissimilarityMatrix::from_matrix(&attacked.renormalized, Metric::Euclidean);
    let table5 = DissimilarityMatrix::from_condensed(
        5,
        datasets::lower_triangle_to_condensed(&datasets::ARRHYTHMIA_TABLE5_LOWER),
    )
    .unwrap();
    assert!(dm5.max_abs_diff(&table5).unwrap() < 5e-4);

    // And back to Table 1 (owner-side inversion).
    let recovered = session.invert_batch(&batch.released).unwrap();
    assert!(recovered.matrix().approx_eq(raw.matrix(), 1e-8));
}
