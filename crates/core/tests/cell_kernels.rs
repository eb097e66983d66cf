//! Property tests for the release row kernels over a wire frame's cells:
//! releasing and recovering rows held as little-endian `[u8; 8]` cells, at
//! any byte offset of a buffer and in any split into row slices, gives the
//! bits and the drift count the same kernels give over `f64` rows, and
//! both equal the unfused reference — the normalizer's matrix transform,
//! then the key's own sweep (`TransformationKey::apply`), or in reverse
//! for the inverse. Keys are random or sequentially paired (whose sweeps
//! the kernels apply in lanes across pairs), normalizers of every kind,
//! cells include NaN, ±∞, −0.0, a subnormal and values far outside the
//! fitted range.

use proptest::prelude::*;
use rbt_core::{DriftBounds, ReleaseSession, RotationStep, TransformationKey};
use rbt_data::Normalization;
use rbt_linalg::{Matrix, VarianceMode};

fn normalization(which: usize) -> Normalization {
    match which {
        0 => Normalization::zscore_paper(),
        1 => Normalization::ZScore {
            mode: VarianceMode::Population,
        },
        2 => Normalization::min_max_unit(),
        3 => Normalization::MinMax {
            new_min: -2.0,
            new_max: 2.0,
        },
        4 => Normalization::DecimalScaling,
        _ => Normalization::RobustZScore,
    }
}

/// A key over `n` attributes: sequential pairs when `sequential`, then the
/// `extra` steps (attribute, offset to its partner, angle).
fn key(n: usize, sequential: bool, extra: &[(usize, usize, f64)]) -> TransformationKey {
    let step = |i, j, theta_degrees| RotationStep {
        i,
        j,
        theta_degrees,
        achieved_var1: 0.0,
        achieved_var2: 0.0,
    };
    let mut steps: Vec<RotationStep> = Vec::new();
    if sequential {
        for t in 0..n / 2 {
            steps.push(step(2 * t, 2 * t + 1, 23.0 + 41.0 * t as f64));
        }
    }
    for &(a, off, theta) in extra {
        steps.push(step(a % n, (a + off) % n, theta));
    }
    TransformationKey::new(steps, n).unwrap()
}

/// A cell value: mostly ordinary, sometimes special.
fn cell() -> impl Strategy<Value = f64> {
    (0usize..24, -1e6..1e6f64).prop_map(|(k, v)| match k {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => 5e-324,
        5 => 1e300,
        6 => -4e7,
        _ => v,
    })
}

/// Session, its width, the batch's cells, a byte offset and row cuts.
type Case = (ReleaseSession, usize, Vec<f64>, usize, Vec<usize>);

fn case() -> impl Strategy<Value = Case> {
    (2usize..20, 0usize..40, 0usize..6)
        .prop_flat_map(|(n, rows, which)| {
            (
                Just((n, rows, which)),
                (any::<bool>(), any::<bool>(), any::<bool>()),
                prop::collection::vec((0usize..64, 1usize..64, -720.0..720.0f64), 0..4),
                prop::collection::vec(-1e4..1e4f64, 6 * n),
                prop::collection::vec(cell(), rows * n),
                (0usize..8, prop::collection::vec(0usize..16, 0..4)),
            )
        })
        .prop_map(
            |((n, _, which), (sequential, drift, suppress), extra, fit, cells, (offset, cuts))| {
                let extra: Vec<_> = extra
                    .into_iter()
                    .map(|(a, off, theta)| (a, 1 + off % (n - 1), theta))
                    .collect();
                let fit = Matrix::from_vec(6, n, fit).unwrap();
                let (normalizer, normalized) = normalization(which).fit_transform(&fit).unwrap();
                let mut session = ReleaseSession::new(key(n, sequential, &extra), normalizer)
                    .unwrap()
                    .with_id_suppression(suppress);
                if drift {
                    let bounds = DriftBounds::from_normalized(&normalized).unwrap();
                    session = session.with_drift_bounds(bounds).unwrap();
                }
                (session, n, cells, offset, cuts)
            },
        )
}

fn same_bits(actual: &[f64], expected: &[f64]) -> bool {
    actual.len() == expected.len()
        && actual
            .iter()
            .zip(expected)
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// `values` as little-endian cells after `offset` filler bytes.
fn frame(values: &[f64], offset: usize) -> Vec<u8> {
    let mut bytes = vec![0xA5; offset];
    for v in values {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    bytes
}

fn cells_of(bytes: &[u8], offset: usize) -> Vec<f64> {
    bytes[offset..]
        .as_chunks::<8>()
        .0
        .iter()
        .map(|c| f64::from_le_bytes(*c))
        .collect()
}

/// Runs `kernel` over the cells of `bytes` past `offset`, split into
/// slices of whole `n`-value rows after each cut (in rows), summing what
/// it returns.
fn by_slices(
    bytes: &mut [u8],
    offset: usize,
    n: usize,
    cuts: &[usize],
    mut kernel: impl FnMut(&mut [[u8; 8]]) -> usize,
) -> usize {
    let mut rest = bytes[offset..].as_chunks_mut::<8>().0;
    let mut total = 0;
    for &cut in cuts {
        let (slice, tail) = rest.split_at_mut((cut * n).min(rest.len()));
        total += kernel(slice);
        rest = tail;
    }
    total + kernel(rest)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cell_kernels_match_the_f64_kernels_and_the_unfused_reference(
        (session, n, values, offset, cuts) in case()
    ) {
        let rows = values.len() / n;
        let batch = Matrix::from_vec(rows, n, values.clone()).unwrap();

        // The unfused reference: normalize the whole matrix, then sweep.
        let normalized = session.normalizer().transform(&batch).unwrap();
        let reference = session.key().apply(&normalized).unwrap();
        let reference_drift = session.drift_bounds().map_or(0, |b| {
            normalized.row_iter().filter(|row| !b.row_in_range(row)).count()
        });

        let mut released = values.clone();
        let drift = session.forward_rows(&mut released).unwrap();
        prop_assert!(same_bits(&released, reference.as_slice()), "f64 forward");
        prop_assert_eq!(drift, reference_drift);

        let mut bytes = frame(&values, offset);
        let cell_drift = by_slices(&mut bytes, offset, n, &cuts, |cells| {
            session.forward_rows(cells).unwrap()
        });
        prop_assert!(same_bits(&cells_of(&bytes, offset), &released), "cell forward");
        prop_assert_eq!(cell_drift, drift);
        prop_assert!(bytes[..offset].iter().all(|&b| b == 0xA5), "bytes before the cells");

        // The inverse, of the release and of the raw batch.
        for (input, what) in [(&released, "release"), (&values, "raw batch")] {
            let m = Matrix::from_vec(rows, n, input.clone()).unwrap();
            let unswept = session.key().invert(&m).unwrap();
            let reference = session.normalizer().inverse_transform(&unswept).unwrap();
            let mut recovered = input.clone();
            session.inverse_rows(&mut recovered).unwrap();
            prop_assert!(same_bits(&recovered, reference.as_slice()), "f64 inverse of the {}", what);
            let mut bytes = frame(input, offset);
            by_slices(&mut bytes, offset, n, &cuts, |cells| {
                session.inverse_rows(cells).unwrap();
                0
            });
            prop_assert!(same_bits(&cells_of(&bytes, offset), &recovered), "cell inverse of the {}", what);
        }
    }
}
