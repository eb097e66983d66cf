//! Streaming release: one fitted session, many batches, persisted secrets.
//!
//! The Figure 1 pipeline is a one-shot release, but a production data
//! owner keeps releasing *new* records under the *same* secrets — an
//! intake system publishing yesterday's admissions every morning. This
//! example walks that lifecycle:
//!
//! 1. **Day 0** — fit the pipeline on the historical data, release it, and
//!    persist the session (key + fitted normalizer + drift bounds) to a
//!    checksummed key file.
//! 2. **Days 1..3** — reload the session from the key file and transform
//!    each day's arrivals. The released batches are bit-identical to what
//!    a one-shot release of the concatenated data would have produced, so
//!    the analyst's distances (and therefore clusters) are consistent
//!    across days.
//! 3. **Drift** — day 3's intake shifts distribution; each batch's drift
//!    count flags records outside the fitted normalization range.
//! 4. **Recovery** — the owner inverts a released batch back to raw values
//!    with the same session.
//!
//! Run: `cargo run --release --example streaming_release`

use rand::SeedableRng;
use rbt::core::isometry::dissimilarity_drift;
use rbt::core::{Pipeline, RbtConfig, ReleaseSession};
use rbt::data::synth::GaussianMixture;
use rbt::data::Dataset;
use rbt::PairwiseSecurityThreshold;

fn main() {
    let mixture = GaussianMixture::well_separated(3, 4, 8.0, 1.0).expect("valid mixture spec");
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);

    // ---- Day 0: fit on the historical data and persist the session. ----
    let history = Dataset::from_matrix(mixture.sample(400, &mut rng).matrix);
    let pipeline = Pipeline::new(RbtConfig::uniform(
        PairwiseSecurityThreshold::uniform(0.3).expect("valid threshold"),
    ));
    let fit = pipeline.run(&history, &mut rng).expect("release succeeds");
    let session = ReleaseSession::from_pipeline_output(&fit).expect("secrets are consistent");

    let key_file = std::env::temp_dir().join("rbt-streaming-example.session");
    std::fs::write(&key_file, session.to_text()).expect("key file written");
    println!(
        "day 0: released {} historical rows; session persisted to {}",
        fit.released.n_rows(),
        key_file.display()
    );

    // ---- Days 1..3: reload the session and release the arrivals. ----
    let key_bytes = std::fs::read(&key_file).expect("key file readable");
    let session = ReleaseSession::decode(&key_bytes).expect("key file intact");
    println!(
        "reloaded session: {} attributes, {} rotation steps, drift bounds attached: {}",
        session.key().n_attributes(),
        session.key().steps().len(),
        session.drift_bounds().is_some()
    );

    // The session keeps no history; lifetime totals are the owner's.
    let (mut seen, mut out_of_range) = (0, 0);
    for day in 1..=3 {
        // Day 3's intake drifts: the instrument recalibrates and every
        // reading shifts by several fitted standard deviations.
        let mut arrivals = mixture.sample(150, &mut rng).matrix;
        if day == 3 {
            arrivals = arrivals.map(|v| v + 25.0);
        }
        let arrivals = Dataset::from_matrix(arrivals);

        let batch = session
            .transform_batch(&arrivals)
            .expect("batch matches the fitted layout");
        seen += arrivals.n_rows();
        out_of_range += batch.out_of_range_rows;
        // The released batch is still an isometric image of its
        // normalized form: distances survive, values do not.
        let normalized = session
            .normalizer()
            .transform(arrivals.matrix())
            .expect("same layout");
        println!(
            "day {day}: released {} rows, drift {}/{} rows outside fitted range, \
             distance drift {:.2e}",
            batch.released.n_rows(),
            batch.out_of_range_rows,
            arrivals.n_rows(),
            dissimilarity_drift(&normalized, batch.released.matrix()),
        );

        // ---- Owner-side recovery of a released batch. ----
        if day == 1 {
            let recovered = session
                .invert_batch(&batch.released)
                .expect("same session inverts");
            let max_err = recovered
                .matrix()
                .max_abs_diff(arrivals.matrix())
                .expect("same shape");
            println!("day {day}: inverted release recovers raw values (max err {max_err:.2e})");
        }
    }

    println!("session lifetime: {seen} records seen, {out_of_range} outside the fitted range");
    std::fs::remove_file(&key_file).ok();
}
