//! Property tests for the key-file codec: a release session (random key,
//! a normalizer of every method, optional config and drift bounds) round
//! trips bit-identically through both key-file formats; corrupted bytes
//! (truncation, bad magic, any flipped byte — checksum included) are
//! rejected with typed errors, never panics.

use proptest::prelude::*;
use rbt_core::codec::CodecError;
use rbt_core::{
    DriftBounds, Error, PairingStrategy, PairwiseSecurityThreshold, RbtConfig, ReleaseSession,
    RotationStep, ThresholdPolicy, TransformationKey,
};
use rbt_data::{FittedNormalizer, Normalization};
use rbt_linalg::{Matrix, VarianceMode};

fn key_strategy(n: usize) -> impl Strategy<Value = TransformationKey> {
    prop::collection::vec(
        (
            0usize..n,
            1usize..n,
            -720.0..720.0f64,
            0.0..10.0f64,
            0.0..10.0f64,
        ),
        1..6,
    )
    .prop_map(move |raw| {
        let steps = raw
            .into_iter()
            .map(
                |(a, off, theta_degrees, achieved_var1, achieved_var2)| RotationStep {
                    i: a,
                    j: (a + off) % n,
                    theta_degrees,
                    achieved_var1,
                    achieved_var2,
                },
            )
            .collect();
        TransformationKey::new(steps, n).expect("constructed steps are in range and distinct")
    })
}

/// A normalizer of any method fitted on random rows of width `cols`, with
/// the normalized fitting rows.
fn normalizer_strategy(cols: usize) -> impl Strategy<Value = (FittedNormalizer, Matrix)> {
    (2usize..12, 0usize..6).prop_flat_map(move |(rows, which)| {
        prop::collection::vec(-1e6..1e6f64, rows * cols).prop_map(move |data| {
            let m = Matrix::from_vec(rows, cols, data).unwrap();
            let method = match which {
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
            };
            method.fit_transform(&m).expect("non-empty matrix fits")
        })
    })
}

fn config_strategy() -> impl Strategy<Value = RbtConfig> {
    (
        0usize..3,
        2usize..9,
        any::<bool>(),
        0.0..5.0f64,
        16usize..5000,
    )
        .prop_map(|(pairing_kind, n, per_pair, rho, grid)| {
            let pairing = match pairing_kind {
                0 => PairingStrategy::Sequential,
                1 => PairingStrategy::RandomShuffle,
                _ => {
                    let mut pairs: Vec<(usize, usize)> =
                        (0..n / 2).map(|t| (2 * t, 2 * t + 1)).collect();
                    if n % 2 == 1 {
                        pairs.push((n - 1, 0));
                    }
                    PairingStrategy::Explicit(pairs)
                }
            };
            let n_pairs = n.div_ceil(2);
            let thresholds = if per_pair {
                ThresholdPolicy::PerPair(
                    (0..n_pairs)
                        .map(|t| {
                            PairwiseSecurityThreshold::new(rho + t as f64 * 0.125, rho).unwrap()
                        })
                        .collect(),
                )
            } else {
                ThresholdPolicy::Uniform(PairwiseSecurityThreshold::uniform(rho).unwrap())
            };
            RbtConfig::uniform(PairwiseSecurityThreshold::uniform(0.1).unwrap())
                .with_pairing(pairing)
                .with_thresholds(thresholds)
                .with_variance_mode(if per_pair {
                    VarianceMode::Sample
                } else {
                    VarianceMode::Population
                })
                .with_solver_grid(grid)
        })
}

/// Bitwise comparison of two keys (stricter than `PartialEq`, which uses
/// float equality and would conflate `-0.0` with `0.0`).
fn assert_keys_bit_identical(a: &TransformationKey, b: &TransformationKey) {
    assert_eq!(a.n_attributes(), b.n_attributes());
    assert_eq!(a.steps().len(), b.steps().len());
    for (x, y) in a.steps().iter().zip(b.steps()) {
        assert_eq!((x.i, x.j), (y.i, y.j));
        assert_eq!(x.theta_degrees.to_bits(), y.theta_degrees.to_bits());
        assert_eq!(x.achieved_var1.to_bits(), y.achieved_var1.to_bits());
        assert_eq!(x.achieved_var2.to_bits(), y.achieved_var2.to_bits());
    }
}

/// A release session over 2–7 attributes: a random key, a normalizer of
/// any method fitted for its width, and, each at random, a config, drift
/// bounds from the normalized fitting rows, and ID suppression.
fn session_strategy() -> impl Strategy<Value = ReleaseSession> {
    (2usize..8)
        .prop_flat_map(|n| {
            (
                key_strategy(n),
                normalizer_strategy(n),
                (any::<bool>(), config_strategy()),
                any::<bool>(),
                any::<bool>(),
            )
        })
        .prop_map(
            |(key, (normalizer, normalized), (with_config, config), drift, suppress)| {
                let mut session = ReleaseSession::new(key, normalizer)
                    .unwrap()
                    .with_id_suppression(suppress);
                if with_config {
                    session = session.with_config(config);
                }
                if drift {
                    let bounds = DriftBounds::from_normalized(&normalized).unwrap();
                    session = session.with_drift_bounds(bounds).unwrap();
                }
                session
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn session_round_trips_through_both_formats(session in session_strategy()) {
        let bytes = session.to_bytes();
        let text = session.to_text();
        let from_bytes = ReleaseSession::from_bytes(&bytes).unwrap();
        let from_text = ReleaseSession::from_text(&text).unwrap();
        for back in [&from_bytes, &from_text] {
            assert_keys_bit_identical(back.key(), session.key());
            prop_assert_eq!(back.normalizer(), session.normalizer());
            prop_assert_eq!(back.normalizer().method(), session.normalizer().method());
            prop_assert_eq!(back.config(), session.config());
            prop_assert_eq!(back.drift_bounds(), session.drift_bounds());
            prop_assert_eq!(back.suppresses_ids(), session.suppresses_ids());
            // Canonical encodings: re-encoding reproduces the same bytes.
            prop_assert_eq!(&back.to_bytes(), &bytes);
            prop_assert_eq!(&back.to_text(), &text);
        }
    }

    #[test]
    fn truncated_session_bytes_are_typed_errors(session in session_strategy(), frac in 0.0..1.0f64) {
        let bytes = session.to_bytes();
        let cut = ((bytes.len() as f64) * frac) as usize;
        match ReleaseSession::from_bytes(&bytes[..cut.min(bytes.len() - 1)]) {
            Err(Error::Codec(_)) => {}
            other => prop_assert!(false, "expected codec error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn flipped_session_byte_is_rejected(
        session in session_strategy(),
        pos in 0.0..1.0f64,
        bit in 0u8..8,
    ) {
        let mut bytes = session.to_bytes();
        let idx = ((bytes.len() as f64) * pos) as usize % bytes.len();
        bytes[idx] ^= 1 << bit;
        prop_assert!(ReleaseSession::from_bytes(&bytes).is_err(), "flip at {}", idx);
    }

    #[test]
    fn bad_magic_is_rejected(session in session_strategy(), byte in any::<u8>()) {
        let mut bytes = session.to_bytes();
        if byte != bytes[0] {
            bytes[0] = byte;
            prop_assert!(matches!(
                ReleaseSession::from_bytes(&bytes),
                Err(Error::Codec(CodecError::BadMagic { .. }))
            ));
        }
    }

    #[test]
    fn flipped_checksum_byte_is_rejected(
        session in session_strategy(),
        which in 0usize..4,
        bit in 0u8..8,
    ) {
        let mut bytes = session.to_bytes();
        let idx = bytes.len() - 4 + which;
        bytes[idx] ^= 1 << bit;
        prop_assert!(matches!(
            ReleaseSession::from_bytes(&bytes),
            Err(Error::Codec(CodecError::ChecksumMismatch { .. }))
        ));
    }
}

/// Pins `(length, CRC-32)` of 21 shared binary encodings: the normalizer
/// record for all five methods, the partial fit of the four chainable ones
/// after one fold, and the config record for every pairing × threshold
/// policy × variance mode. The values were read before the encoders moved
/// onto their types, so a move that changes any byte fails here.
#[test]
fn shared_encodings_keep_their_bytes() {
    use rbt_linalg::codec::{crc32, ByteWriter};
    let pin = |bytes: &[u8]| (bytes.len(), crc32(bytes));
    let record = |encode: &dyn Fn(&mut ByteWriter)| {
        let mut w = ByteWriter::new();
        encode(&mut w);
        pin(w.as_bytes())
    };
    let rows = [
        75., 80., 63., 56., 64., 53., 40., 52., 70., 28., 58., 76., 44., 90., 68.,
    ];
    let m = Matrix::from_vec(5, 3, rows.to_vec()).unwrap();
    let population = VarianceMode::Population;
    let methods = [
        Normalization::MinMax {
            new_min: -1.0,
            new_max: 2.0,
        },
        Normalization::zscore_paper(),
        Normalization::ZScore { mode: population },
        Normalization::DecimalScaling,
        Normalization::RobustZScore,
    ];
    let mut actual: Vec<_> = methods
        .iter()
        .map(|n| record(&|w| n.fit(&m).unwrap().encode_into(w)))
        .collect();
    for method in &methods[..4] {
        let mut partial = method.begin_partial_fit(3).unwrap();
        partial.fold(&m).unwrap();
        actual.push(record(&|w| partial.encode_into(w)));
    }
    let pst = |a, b| PairwiseSecurityThreshold::new(a, b).unwrap();
    for pairing in [
        PairingStrategy::Sequential,
        PairingStrategy::RandomShuffle,
        PairingStrategy::Explicit(vec![(0, 2), (1, 0)]),
    ] {
        for policy in [
            ThresholdPolicy::Uniform(pst(0.3, 0.55)),
            ThresholdPolicy::PerPair(vec![pst(0.3, 0.55), pst(2.3, 2.3)]),
        ] {
            for mode in [VarianceMode::Sample, population] {
                let config = RbtConfig::uniform(pst(0.1, 0.1))
                    .with_pairing(pairing.clone())
                    .with_thresholds(policy.clone())
                    .with_variance_mode(mode)
                    .with_solver_grid(3600);
                actual.push(record(&|w| config.encode_into(w)));
            }
        }
    }
    // In the order above: normalizers (min-max, sample and population
    // z-score, decimal, robust), partial fits (the first four), then configs
    // (sequential, shuffle, explicit; uniform, per-pair; sample, population).
    let lengths = [
        124, 60, 60, 36, 60, 98, 50, 50, 50, 27, 27, 51, 51, 27, 27, 51, 51, 67, 67, 91, 91,
    ];
    let crcs = [
        0x2BB030C1, 0x4339714D, 0x71C0C90F, 0x93D9CBD6, 0xF2BC51C5, 0x8EC474E6, 0x2E389968,
        0x791AB53A, 0xE490E99D, 0x8A3B67DC, 0x9D40739F, 0xC28BC2EE, 0xD5F0D6AD, 0xE4B77C9D,
        0xF3CC68DE, 0x08B5317D, 0x1FCE253E, 0xB2349751, 0xA54F8312, 0x9D9177C4, 0x8AEA6387,
    ];
    let golden: Vec<(usize, u32)> = lengths.into_iter().zip(crcs).collect();
    assert_eq!(actual, golden);
}

/// `(length, CRC-32)` of a matrix's bits, every NaN hashed as one
/// canonical pattern: Rust leaves a NaN result's sign and payload
/// unspecified, so only its NaN-ness is pinned.
fn bits_pin(m: &Matrix) -> (usize, u32) {
    let bytes: Vec<u8> = m
        .as_slice()
        .iter()
        .flat_map(|v| {
            let bits = if v.is_nan() { f64::NAN } else { *v }.to_bits();
            bits.to_le_bytes()
        })
        .collect();
    (bytes.len(), rbt_linalg::codec::crc32(&bytes))
}

/// Pins what a release session releases, bit for bit. For each of the five
/// normalizations and cols ∈ {2, 3, 16, 17, 33} (column 1 constant), a
/// `Pipeline` fit becomes a `ReleaseSession` with drift bounds. Its batch
/// holds every fitting row (several lie exactly on a fitted bound), then,
/// per special value (±0, ±∞, 1e±300, subnormals, NaN), one fitting row
/// carrying it in one column and one row of nothing else. Each case pins
/// the released bits, the drift count and the inverse's bits. The values
/// were read before the normalizer ran in SIMD lanes, so a kernel that
/// changes any bit, or any drift verdict, fails here.
#[test]
fn releases_keep_their_bits() {
    use rand::SeedableRng;
    use rbt_core::Pipeline;
    use rbt_data::Dataset;

    let specials = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e300,
        -1e300,
        1e-300,
        -1e-300,
        f64::MIN_POSITIVE / 4.0,
        -5e-324,
        f64::NAN,
    ];
    let methods = [
        Normalization::MinMax {
            new_min: -1.0,
            new_max: 2.0,
        },
        Normalization::zscore_paper(),
        Normalization::ZScore {
            mode: VarianceMode::Population,
        },
        Normalization::DecimalScaling,
        Normalization::RobustZScore,
    ];
    const FIT_ROWS: usize = 24;
    let mut actual = Vec::new();
    for method in methods {
        for cols in [2usize, 3, 16, 17, 33] {
            let fit = Matrix::from_vec(
                FIT_ROWS,
                cols,
                (0..FIT_ROWS * cols)
                    .map(|t| {
                        let (r, j) = (t / cols, t % cols);
                        if j == 1 {
                            7.5
                        } else {
                            (((r * 37 + j * 11) % 23) as f64 - 11.0) * (1.0 + 0.25 * j as f64)
                                + (0.7 * t as f64).sin()
                        }
                    })
                    .collect(),
            )
            .unwrap();
            let out = Pipeline::new(RbtConfig::uniform(
                PairwiseSecurityThreshold::uniform(1e-4).unwrap(),
            ))
            .with_normalization(method)
            .run(
                &Dataset::from_matrix(fit.clone()),
                &mut rand::rngs::StdRng::seed_from_u64(cols as u64),
            )
            .unwrap();
            let session = ReleaseSession::from_pipeline_output(&out).unwrap();
            let mut rows = fit.as_slice().to_vec();
            for (k, &v) in specials.iter().enumerate() {
                let mut row = fit.row(k % FIT_ROWS).to_vec();
                row[k % cols] = v;
                rows.extend(&row);
                rows.extend(std::iter::repeat_n(v, cols));
            }
            let n_rows = rows.len() / cols;
            let batch = Dataset::from_matrix(Matrix::from_vec(n_rows, cols, rows).unwrap());
            let released = session.transform_batch(&batch).unwrap();
            let inverse = session.invert_batch(&released.released).unwrap();
            actual.push((
                bits_pin(released.released.matrix()),
                released.out_of_range_rows,
                bits_pin(inverse.matrix()),
            ));
        }
    }
    // Per method, over cols 2, 3, 16, 17, 33.
    let lengths = [736, 1104, 5888, 6256, 12144];
    let released_crcs = [
        0x5D22352A, 0xF03E3214, 0xE5F131C7, 0x0F2A632E, 0xF2194323, // min-max
        0x61D271C8, 0xFF44DB09, 0xAA996074, 0x12FDA19E, 0xFAF0A478, // sample z-score
        0xD6DAD076, 0xC19D060F, 0xEB257E33, 0x0C893A6E, 0x23DB36C5, // population z-score
        0x71506119, 0x4DD08321, 0x637D2FE3, 0xDA56F627, 0x87CC8453, // decimal
        0x4ABF7C5F, 0xD95960BC, 0xFC685FCF, 0xC401CF51, 0xD1793F0C, // robust
    ];
    let drift_rows = [
        8, 8, 10, 10, 10, // min-max
        8, 8, 10, 10, 10, // sample z-score
        8, 8, 10, 10, 10, // population z-score
        19, 18, 17, 17, 17, // decimal
        8, 8, 10, 10, 10, // robust
    ];
    let inverse_crcs = [
        0x8DC6ED9A, 0x70FAF448, 0x0F8834BA, 0x31D168E3, 0xF8BF9A38, // min-max
        0xB7C40F4F, 0xF8C8A6BA, 0x1981EB04, 0xB52B127C, 0x130E598C, // sample z-score
        0x76B97CC7, 0xBC080F9D, 0x64E1D8A9, 0x1154FDFF, 0x773EFCAD, // population z-score
        0x640E3795, 0x27C3C3E7, 0x9C4A9D0F, 0xAEC647D4, 0xE9449675, // decimal
        0x848969AA, 0x61276593, 0x1085CD38, 0xF4FA001D, 0x2D06E912, // robust
    ];
    let golden: Vec<_> = (0..25)
        .map(|k| {
            let len = lengths[k % 5];
            (
                (len, released_crcs[k]),
                drift_rows[k],
                (len, inverse_crcs[k]),
            )
        })
        .collect();
    assert_eq!(actual, golden);
}
