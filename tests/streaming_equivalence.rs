//! Property battery for the throughput data path: the SIMD-width kernels,
//! the register-blocked matmul and the zero-copy streaming batches must
//! all agree with their reference paths — exactly where a bitwise contract
//! is promised, within 1e-12 where the summation order legitimately
//! differs. CI runs this suite under both `RBT_THREADS`
//! modes (shared-pool default and pinned to one thread).

use proptest::prelude::*;
use rand::SeedableRng;
use rbt::data::datasets;
use rbt::linalg::kernels;
use rbt::prelude::*;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// Plain one-accumulator references for the unrolled kernels.
fn scalar_sq_euclidean(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn scalar_manhattan(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

fn vec_pair(len: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    len.prop_flat_map(|n| {
        (
            prop::collection::vec(-100.0..100.0f64, n),
            prop::collection::vec(-100.0..100.0f64, n),
        )
    })
}

/// A fitted 3-column session shared by the batch properties.
fn fitted_session() -> ReleaseSession {
    let raw = datasets::arrhythmia_sample();
    let out = Pipeline::new(RbtConfig::uniform(
        PairwiseSecurityThreshold::uniform(0.25).unwrap(),
    ))
    .run(&raw, &mut rng(7))
    .unwrap();
    ReleaseSession::from_pipeline_output(&out).unwrap()
}

/// A batch with the session's column layout from arbitrary row data.
fn batch_of(values: &[f64]) -> Dataset {
    let rows = values.len() / 3;
    Dataset::from_matrix(Matrix::from_vec(rows, 3, values[..rows * 3].to_vec()).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn unrolled_kernels_match_scalar_within_1e12((xs, ys) in vec_pair(0..=67)) {
        // Lengths straddle the 8-wide chunking (remainders 0..7 included).
        let fast = kernels::squared_euclidean(&xs, &ys);
        let slow = scalar_sq_euclidean(&xs, &ys);
        prop_assert!((fast - slow).abs() <= 1e-12 * (1.0 + slow.abs()));
        let fast = kernels::manhattan(&xs, &ys);
        let slow = scalar_manhattan(&xs, &ys);
        prop_assert!((fast - slow).abs() <= 1e-12 * (1.0 + slow.abs()));
    }

    #[test]
    fn blocked_matmul_is_bitwise_naive(
        m in 1usize..28,
        k in 1usize..28,
        n in 1usize..28,
        seed in 0u64..1000,
    ) {
        // Sizes straddle the small-product dispatch cutoff, so both the
        // naive path and the register-blocked panels (including row and
        // column remainders) are exercised.
        let mut r = rng(seed);
        let a = Matrix::from_vec(m, k, (0..m * k).map(|_| r.random_range(-10.0..10.0)).collect()).unwrap();
        let b = Matrix::from_vec(k, n, (0..k * n).map(|_| r.random_range(-10.0..10.0)).collect()).unwrap();
        let blocked = a.matmul(&b).unwrap();
        let naive = a.matmul_naive(&b).unwrap();
        for (x, y) in blocked.as_slice().iter().zip(naive.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn zero_copy_batches_are_bitwise_the_cloning_path(
        values in prop::collection::vec(-50.0..150.0f64, 3..=60),
    ) {
        let session = fitted_session();
        let batch = batch_of(&values);

        let released = session.transform_batch(&batch).unwrap();

        let mut out = Matrix::zeros(0, 0);
        let oor = session.transform_batch_into(&batch, &mut out).unwrap();
        prop_assert_eq!(oor, released.out_of_range_rows);
        for (x, y) in out.as_slice().iter().zip(released.released.matrix().as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }

        let recovered = session.invert_batch(&released.released).unwrap();
        let mut inv = Matrix::zeros(0, 0);
        session.invert_batch_into(&released.released, &mut inv).unwrap();
        for (x, y) in inv.as_slice().iter().zip(recovered.matrix().as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
