//! Property tests for the release API's error paths: infeasible security
//! thresholds, dimension-mismatched batches, non-invertible baselines, and
//! non-finite input must all surface as typed `Err(RbtError::…)` values —
//! never a panic — under both `RBT_THREADS` modes (CI runs this suite with
//! the shared pool at its default width and pinned to one thread).

use proptest::prelude::*;
use rand::SeedableRng;
use rbt::data::datasets;
use rbt::prelude::*;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

fn sample() -> Dataset {
    datasets::arrhythmia_sample()
}

/// The z-scored arrhythmia sample has unit column variances, so
/// `Var(A − A')` maxes out around `2·(Var(X)+Var(Y)) ≈ 4`; anything ≥ 10
/// is safely infeasible.
const INFEASIBLE_RHO: f64 = 10.0;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn infeasible_thresholds_are_typed_not_panics(
        rho_scale in 1.0f64..1e6,
        seed in 0u64..1000,
    ) {
        let data = sample();
        let rho = INFEASIBLE_RHO * rho_scale;
        for method in [Method::Rbt, Method::HybridIsometry] {
            let err = Release::of(&data)
                .with_method(method)
                .with_thresholds(PairwiseSecurityThreshold::uniform(rho).unwrap())
                .fit(&mut rng(seed))
                .unwrap_err();
            match err {
                RbtError::InfeasibleThreshold { rho1, rho2, max_var1, max_var2, .. } => {
                    prop_assert_eq!(rho1, rho);
                    prop_assert_eq!(rho2, rho);
                    // The report tells the administrator what would work.
                    prop_assert!(max_var1.is_finite() && max_var1 < rho);
                    prop_assert!(max_var2.is_finite() && max_var2 < rho);
                    prop_assert_eq!(err.exit_code(), 6);
                }
                other => prop_assert!(false, "{}: {other:?}", method.name()),
            }
        }
    }

    #[test]
    fn dimension_mismatched_batches_are_typed_not_panics(
        cols in 1usize..8,
        rows in 1usize..6,
        seed in 0u64..1000,
    ) {
        // Fit on the 3-column sample, then feed batches of every other
        // width: the fitted state must refuse with DimensionMismatch.
        prop_assume!(cols != 3);
        let data = sample();
        let batch = Dataset::from_matrix(Matrix::zeros(rows, cols));
        for method in Method::ALL {
            let fitted = Release::of(&data)
                .with_method(method)
                .fit(&mut rng(seed))
                .unwrap();
            let err = fitted.transform_batch(&batch).unwrap_err();
            prop_assert!(
                matches!(err, RbtError::DimensionMismatch(_)),
                "{} transform: {err:?}",
                method.name()
            );
            prop_assert_eq!(err.exit_code(), 5);
            let err = fitted.invert_batch(&batch).unwrap_err();
            prop_assert!(
                matches!(
                    err,
                    RbtError::DimensionMismatch(_) | RbtError::NotInvertible { .. }
                ),
                "{} invert: {err:?}",
                method.name()
            );
        }
    }

    #[test]
    fn baseline_inversion_is_always_refused(seed in 0u64..1000) {
        let data = sample();
        for method in [Method::Noise, Method::Swap, Method::Geometric] {
            let fitted = Release::of(&data)
                .with_method(method)
                .fit(&mut rng(seed))
                .unwrap();
            let released = fitted.transform_batch(&data).unwrap().released;
            let err = fitted.invert_batch(&released).unwrap_err();
            match err {
                RbtError::NotInvertible { method: ref name } => {
                    prop_assert_eq!(name.as_str(), method.name());
                    prop_assert_eq!(err.exit_code(), 7);
                }
                other => prop_assert!(false, "{}: {other:?}", method.name()),
            }
        }
    }

    #[test]
    fn non_finite_input_is_a_typed_error(
        row in 0usize..5,
        col in 0usize..3,
        seed in 0u64..100,
    ) {
        let mut data = sample();
        data.matrix_mut()[(row, col)] = f64::NAN;
        // Every normalizing method refuses NaN at fit time; rank swapping
        // refuses it inside the perturbation. Either way the *data* is at
        // fault, so all three land in the same Data family (exit code 3).
        // (Additive noise and the geometric hybrid operate value-wise and
        // propagate NaN without statistics, so they are exempt.)
        for method in [Method::Rbt, Method::HybridIsometry, Method::Swap] {
            let result = Release::of(&data).with_method(method).fit(&mut rng(seed));
            prop_assert!(
                matches!(result, Err(RbtError::Data(_))),
                "{}: {result:?}",
                method.name()
            );
        }
    }
}

#[test]
fn linalg_rejects_non_finite_input_with_typed_errors() {
    // The Gaussian-elimination pivot search and the Jacobi eigen sort used
    // to panic on NaN (via `partial_cmp().expect()`); both now refuse with
    // a typed error before touching the data.
    use rbt::linalg::{eigen::symmetric_eigen, solve, Error as LinalgError};

    let mut a = Matrix::identity(3);
    a[(1, 1)] = f64::NAN;
    assert!(matches!(
        solve::solve(&a, &[1.0, 2.0, 3.0]),
        Err(LinalgError::InvalidArgument(_))
    ));
    assert!(matches!(
        solve::invert(&a),
        Err(LinalgError::InvalidArgument(_))
    ));
    // NaN slips through the symmetry gate (`NaN > tol` is false), so the
    // eigendecomposition needs its own finiteness check.
    assert!(matches!(
        symmetric_eigen(&a),
        Err(LinalgError::InvalidArgument(_))
    ));
    let mut inf = Matrix::identity(2);
    inf[(0, 1)] = f64::INFINITY;
    inf[(1, 0)] = f64::INFINITY;
    assert!(matches!(
        symmetric_eigen(&inf),
        Err(LinalgError::InvalidArgument(_))
    ));
}

#[test]
fn degenerate_shapes_are_typed_not_panics() {
    // Empty matrices, one-row datasets, and constant columns: every one
    // must come back as a typed error or a well-defined release — never a
    // panic — under whichever RBT_THREADS mode CI pinned.
    use rbt::linalg::{eigen::symmetric_eigen, solve, Error as LinalgError};

    assert!(matches!(
        solve::solve(&Matrix::zeros(0, 0), &[]),
        Err(LinalgError::Empty)
    ));
    assert!(matches!(
        symmetric_eigen(&Matrix::zeros(0, 0)),
        Err(LinalgError::Empty)
    ));

    // A 1-row dataset has no pairwise variance to protect: the fit must
    // refuse (infeasible/degenerate), not panic in the normalizer.
    let one_row = Dataset::from_matrix(Matrix::from_rows(&[&[1.0, 2.0, 3.0]]).unwrap());
    for method in [Method::Rbt, Method::HybridIsometry] {
        let result = Release::of(&one_row).with_method(method).fit(&mut rng(1));
        assert!(result.is_err(), "{}: {result:?}", method.name());
    }

    // A dataset with rows but no attributes has nothing to release: every
    // method refuses to fit it, so no fitted state has zero attributes.
    let no_columns = Dataset::from_matrix(Matrix::zeros(5, 0));
    for method in Method::ALL {
        let result = Release::of(&no_columns)
            .with_method(method)
            .fit(&mut rng(3));
        let Err(err) = result else {
            panic!("{}: fitted a dataset without attributes", method.name());
        };
        assert!(
            matches!(err.exit_code(), 2 | 5),
            "{}: {err:?}",
            method.name()
        );
    }
    // Nor does one decode: a sealed 52-byte swap record that declares 0
    // attributes is a malformed key file (exit code 4).
    let mut w = rbt::linalg::codec::ByteWriter::new();
    w.put_str("swap");
    w.put_f64(0.2);
    w.put_u64(42);
    w.put_usize(0);
    w.put_bool(true);
    let key = rbt::core::codec::seal_envelope(rbt::core::codec::RecordKind::Method, w.as_bytes());
    assert_eq!(key.len(), 52);
    let err = decode_fitted(&key).map(|_| ()).unwrap_err();
    assert!(matches!(err, RbtError::Codec(_)), "{err:?}");
    assert_eq!(err.exit_code(), 4);

    // Constant columns normalize to a degenerate (zero-variance) axis;
    // whether the threshold search succeeds or refuses, it must be typed.
    let constant = Dataset::from_matrix(
        Matrix::from_rows(&[&[5.0, 1.0, 9.0], &[5.0, 2.0, 7.0], &[5.0, 3.0, 2.0]]).unwrap(),
    );
    for method in [Method::Rbt, Method::HybridIsometry] {
        match Release::of(&constant).with_method(method).fit(&mut rng(2)) {
            Ok(fitted) => {
                let batch = fitted.transform_batch(&constant).unwrap().released;
                assert_eq!(batch.n_rows(), 3);
            }
            Err(err) => {
                // Typed refusal is acceptable; a panic is not.
                let _ = err.exit_code();
            }
        }
    }
}

#[test]
fn threshold_errors_match_between_builder_and_legacy_path() {
    // The builder's InfeasibleThreshold carries the same diagnostics the
    // legacy EmptySecurityRange did.
    let data = sample();
    let pst = PairwiseSecurityThreshold::uniform(INFEASIBLE_RHO).unwrap();
    let legacy = Pipeline::new(RbtConfig::uniform(pst))
        .run(&data, &mut rng(0))
        .unwrap_err();
    let blessed = Release::of(&data)
        .with_method(Method::Rbt)
        .with_thresholds(pst)
        .fit(&mut rng(0))
        .unwrap_err();
    let rbt::core::Error::EmptySecurityRange {
        i,
        j,
        max_var1,
        max_var2,
        ..
    } = legacy
    else {
        panic!("legacy path: {legacy:?}");
    };
    let RbtError::InfeasibleThreshold {
        i: bi,
        j: bj,
        max_var1: bm1,
        max_var2: bm2,
        ..
    } = blessed
    else {
        panic!("blessed path: {blessed:?}");
    };
    assert_eq!((i, j), (bi, bj));
    assert_eq!(max_var1.to_bits(), bm1.to_bits());
    assert_eq!(max_var2.to_bits(), bm2.to_bits());
}
