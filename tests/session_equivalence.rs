//! The streaming contract: feeding a dataset through
//! `ReleaseSession::transform_batch` in arbitrary row splits (under any
//! `RBT_THREADS`) produces exactly — bitwise — the release that
//! the one-shot `Pipeline::run` produces on the concatenated data,
//! including the odd-`n` chained-pair case of §5.1.

use proptest::prelude::*;
use rand::SeedableRng;
use rbt::core::{Pipeline, PipelineOutput, RbtConfig, ReleaseSession};
use rbt::data::datasets;
use rbt::{Dataset, Matrix, PairwiseSecurityThreshold};

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// Rows `[lo, hi)` of a dataset, names and IDs included. Coinciding split
/// points produce genuinely empty batches — a valid streaming edge case.
fn slice_rows(ds: &Dataset, lo: usize, hi: usize) -> Dataset {
    let indices: Vec<usize> = (lo..hi).collect();
    let m = if indices.is_empty() {
        Matrix::from_vec(0, ds.n_cols(), Vec::new()).unwrap()
    } else {
        ds.matrix().select_rows(&indices).unwrap()
    };
    let out = Dataset::new(m, ds.columns().to_vec()).unwrap();
    match ds.ids() {
        Some(ids) => out.with_ids(ids[lo..hi].to_vec()).unwrap(),
        None => out,
    }
}

/// Splits `ds` at the given row boundaries (already sorted, within range).
fn split_at(ds: &Dataset, cuts: &[usize]) -> Vec<Dataset> {
    let mut batches = Vec::with_capacity(cuts.len() + 1);
    let mut lo = 0;
    for &cut in cuts {
        batches.push(slice_rows(ds, lo, cut));
        lo = cut;
    }
    batches.push(slice_rows(ds, lo, ds.n_rows()));
    batches
}

/// Concatenates the matrices of released batches, in order.
fn concat_matrices(batches: &[Dataset]) -> Matrix {
    Matrix::from_row_iter(
        batches
            .iter()
            .flat_map(|b| b.matrix().row_iter())
            .map(|r| r.to_vec()),
    )
    .unwrap()
}

fn run_one_shot(ds: &Dataset, seed: u64) -> Option<PipelineOutput> {
    let pipeline = Pipeline::new(RbtConfig::uniform(
        PairwiseSecurityThreshold::uniform(0.05).unwrap(),
    ));
    pipeline.run(ds, &mut rng(seed)).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_row_splits_match_the_one_shot_release_bitwise(
        rows in 4usize..32,
        cols in 2usize..6, // includes odd widths → the chained-pair rule
        values in prop::collection::vec(-1e3..1e3f64, 32 * 6),
        cuts in prop::collection::vec(0.0..1.0f64, 0..4),
        seed in any::<u64>(),
        with_ids in any::<bool>(),
    ) {
        let matrix = Matrix::from_vec(rows, cols, values[..rows * cols].to_vec()).unwrap();
        let ds = Dataset::from_matrix(matrix);
        let ds = if with_ids {
            ds.with_ids((0..rows as u64).map(|i| 1000 + i).collect()).unwrap()
        } else {
            ds
        };

        // Random data can make the security threshold unsatisfiable; those
        // draws exercise nothing about the session, skip them.
        let Some(out) = run_one_shot(&ds, seed) else { return Ok(()) };

        let session = ReleaseSession::from_pipeline_output(&out).unwrap();

        let mut row_cuts: Vec<usize> = cuts.iter().map(|f| ((rows as f64) * f) as usize).collect();
        row_cuts.sort_unstable();
        let batches = split_at(&ds, &row_cuts);
        prop_assert_eq!(batches.iter().map(Dataset::n_rows).sum::<usize>(), rows);

        let released: Vec<Dataset> = batches
            .iter()
            .map(|b| session.transform_batch(b).unwrap().released)
            .collect();
        for b in &released {
            prop_assert!(b.ids().is_none(), "IDs must be suppressed on release");
        }
        let streamed = concat_matrices(&released);
        // Bitwise: tolerance 0.0.
        prop_assert!(
            streamed.approx_eq(out.released.matrix(), 0.0),
            "streamed release differs from one-shot (cuts {:?})",
            row_cuts
        );

        // The inverse path is bitwise-consistent with the owner-side
        // recovery of the one-shot pipeline.
        let one_shot_recovered = Pipeline::recover(&out, out.released.matrix()).unwrap();
        let streamed_recovered = concat_matrices(
            &released
                .iter()
                .map(|b| session.invert_batch(b).unwrap())
                .collect::<Vec<_>>(),
        );
        prop_assert!(streamed_recovered.approx_eq(&one_shot_recovered, 0.0));
    }
}

#[test]
fn paper_odd_n_chained_pair_streams_bitwise() {
    // The §5.1 shape: 3 attributes, pair 2 re-rotating pair 1's output.
    // Stream the 5 sample rows one at a time and compare to the one-shot
    // release under the same drawn key.
    let raw = datasets::arrhythmia_sample();
    let out = run_one_shot(&raw, 17).expect("arrhythmia sample always satisfies rho=0.05");
    assert_eq!(out.key.n_attributes(), 3);

    let session = ReleaseSession::from_pipeline_output(&out).unwrap();
    let outputs: Vec<_> = (0..raw.n_rows())
        .map(|i| {
            session
                .transform_batch(&slice_rows(&raw, i, i + 1))
                .unwrap()
        })
        .collect();
    // Nothing on the fitting data drifts out of its own range.
    assert!(outputs.iter().all(|b| b.out_of_range_rows == 0));
    let released: Vec<Dataset> = outputs.into_iter().map(|b| b.released).collect();
    let streamed = concat_matrices(&released);
    assert!(streamed.approx_eq(out.released.matrix(), 0.0));
}
