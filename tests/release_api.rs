//! Conformance battery for the release API: all five registered methods
//! behind one `PrivacyTransform` boundary, with the RBT path pinned
//! bit-identical to the legacy `Pipeline`/`ReleaseSession` entry points.

use rand::SeedableRng;
use rbt::data::datasets;
use rbt::prelude::*;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

fn sample() -> Dataset {
    datasets::arrhythmia_sample()
}

#[test]
fn every_registered_method_fits_and_transforms() {
    let data = sample();
    for method in Method::ALL {
        let fitted = Release::of(&data)
            .with_method(method)
            .fit(&mut rng(7))
            .unwrap_or_else(|e| panic!("{}: {e:?}", method.name()));
        assert_eq!(fitted.method_name(), method.name());
        assert_eq!(fitted.n_attributes(), data.n_cols());
        // The initial release keeps the column layout and strips IDs.
        assert_eq!(fitted.released.n_cols(), data.n_cols());
        assert_eq!(fitted.released.n_rows(), data.n_rows());
        assert_eq!(fitted.released.columns(), data.columns());
        assert!(fitted.released.ids().is_none(), "{}", method.name());
        // Values actually move.
        assert!(
            fitted
                .released
                .matrix()
                .max_abs_diff(data.matrix())
                .unwrap()
                > 1e-6,
            "{} released data unchanged",
            method.name()
        );
        // Out-of-sample batches transform without error and keep shape.
        let batch = fitted
            .transform_batch(&data)
            .unwrap_or_else(|e| panic!("{}: {e:?}", method.name()))
            .released;
        assert_eq!(batch.n_rows(), data.n_rows());
        assert_eq!(batch.n_cols(), data.n_cols());
    }
}

#[test]
fn properties_match_the_paper_taxonomy() {
    let data = sample();
    for method in Method::ALL {
        let fitted = Release::of(&data)
            .with_method(method)
            .fit(&mut rng(3))
            .unwrap();
        let p = fitted.properties();
        let isometric = matches!(method, Method::Rbt | Method::HybridIsometry);
        assert_eq!(p.isometric, isometric, "{}", method.name());
        assert_eq!(p.invertible, isometric, "{}", method.name());
        assert_eq!(p.tunable_thresholds, isometric, "{}", method.name());
        if isometric {
            // 3 attributes → 2 steps; each angle worth log2(grid) bits.
            let bits = p.keyspace_bits.expect("keyed methods estimate bits");
            assert!(bits > 20.0, "{}: {bits}", method.name());
            // Releases really are isometric…
            let drift = rbt::core::isometry::dissimilarity_drift(
                &Normalization::zscore_paper()
                    .fit_transform(data.matrix())
                    .unwrap()
                    .1,
                fitted.released.matrix(),
            );
            assert!(drift < 1e-9, "{}: drift {drift}", method.name());
        } else {
            assert!(p.keyspace_bits.is_none(), "{}", method.name());
        }
    }
    // The hybrid isometry's coin adds one bit per step over RBT under the
    // same configuration.
    let rbt_bits = Release::of(&data)
        .with_method(Method::Rbt)
        .fit(&mut rng(5))
        .unwrap()
        .properties()
        .keyspace_bits
        .unwrap();
    let hybrid_bits = Release::of(&data)
        .with_method(Method::HybridIsometry)
        .fit(&mut rng(5))
        .unwrap()
        .properties()
        .keyspace_bits
        .unwrap();
    assert!((hybrid_bits - rbt_bits - 2.0).abs() < 1e-9);
}

#[test]
fn rbt_through_the_builder_is_bit_identical_to_the_pipeline() {
    let data = sample();
    let pst = PairwiseSecurityThreshold::uniform(0.3).unwrap();

    // Legacy path.
    let out = Pipeline::new(RbtConfig::uniform(pst))
        .run(&data, &mut rng(2024))
        .unwrap();
    let legacy_session = ReleaseSession::from_pipeline_output(&out).unwrap();

    // Blessed path, same RNG stream.
    let fitted = Release::of(&data)
        .with_method(Method::Rbt)
        .with_thresholds(pst)
        .fit(&mut rng(2024))
        .unwrap();

    assert!(
        fitted
            .released
            .matrix()
            .approx_eq(out.released.matrix(), 0.0),
        "builder release differs from Pipeline::run"
    );
    // Batch transforms agree bitwise too.
    let via_builder = fitted.transform_batch(&data).unwrap().released;
    let via_session = legacy_session.transform_batch(&data).unwrap().released;
    assert!(via_builder.matrix().approx_eq(via_session.matrix(), 0.0));
    // And the builder exposes the session (same key) for session-level
    // workflows.
    let session = fitted.session().expect("rbt exposes its session");
    assert_eq!(session.key(), legacy_session.key());
    assert_eq!(session.normalizer(), legacy_session.normalizer());
    // Non-RBT methods do not.
    let hybrid = Release::of(&data)
        .with_method(Method::HybridIsometry)
        .fit(&mut rng(1))
        .unwrap();
    assert!(hybrid.session().is_none());
}

#[test]
fn invertible_methods_round_trip_and_baselines_refuse() {
    let data = sample();
    for method in Method::ALL {
        let fitted = Release::of(&data)
            .with_method(method)
            .fit(&mut rng(11))
            .unwrap();
        let released = fitted.transform_batch(&data).unwrap().released;
        match fitted.invert_batch(&released) {
            Ok(recovered) => {
                assert!(fitted.properties().invertible);
                assert!(
                    recovered.matrix().approx_eq(data.matrix(), 1e-8),
                    "{} recovery off",
                    method.name()
                );
            }
            Err(RbtError::NotInvertible { method: name }) => {
                assert!(!fitted.properties().invertible);
                assert_eq!(name, method.name());
            }
            Err(other) => panic!("{}: unexpected error {other:?}", method.name()),
        }
    }
}

#[test]
fn fitted_states_persist_through_the_sealed_envelope() {
    let data = sample();
    for method in Method::ALL {
        let fitted = Release::of(&data)
            .with_method(method)
            .fit(&mut rng(23))
            .unwrap();
        let bytes = fitted.to_bytes().unwrap();
        assert_eq!(&bytes[..4], b"RBTS", "{}", method.name());
        let back = decode_fitted(&bytes).unwrap_or_else(|e| panic!("{}: {e:?}", method.name()));
        assert_eq!(back.method_name(), method.name());
        assert_eq!(back.n_attributes(), data.n_cols());
        assert_eq!(back.properties(), fitted.properties());

        match method {
            // Deterministic states: the decoded transform reproduces the
            // original bitwise on any batch.
            Method::Rbt | Method::HybridIsometry => {
                let a = fitted.transform_batch(&data).unwrap().released;
                let b = back.transform_batch(&data).unwrap().released;
                assert!(a.matrix().approx_eq(b.matrix(), 0.0), "{}", method.name());
            }
            // Baselines replay from the fit-time seed: the decoded state's
            // first batch equals the fit-time release of the same data.
            _ => {
                let replay = back.transform_batch(&data).unwrap().released;
                assert!(
                    replay.matrix().approx_eq(fitted.released.matrix(), 0.0),
                    "{} seed replay diverged",
                    method.name()
                );
            }
        }

        // Corruption is rejected with a typed codec error, never a panic.
        for idx in [4usize, bytes.len() / 2, bytes.len() - 1] {
            let mut corrupt = bytes.clone();
            corrupt[idx] ^= 0x01;
            assert!(
                matches!(decode_fitted(&corrupt), Err(RbtError::Codec(_))),
                "{} flip at {idx}",
                method.name()
            );
        }
        for cut in [0usize, 3, 10, bytes.len() - 1] {
            assert!(
                matches!(decode_fitted(&bytes[..cut]), Err(RbtError::Codec(_))),
                "{} cut at {cut}",
                method.name()
            );
        }
    }
}

#[test]
fn baseline_batches_never_reuse_perturbation_draws() {
    // Baseline per-batch streams are derived from (fit seed, batch
    // content): distinct batches must get independent draws — reusing the
    // noise/swap pattern across batches would let a known-sample attacker
    // subtract it off — while a decoded state must perturb exactly like
    // the live one, including across repeated decodes (the CLI decodes
    // afresh per invocation).
    let data = sample();
    let other = {
        let mut d = sample();
        for v in d.matrix_mut().as_mut_slice() {
            *v += 1.0;
        }
        d
    };
    for method in [Method::Noise, Method::Geometric] {
        let fitted = Release::of(&data)
            .with_method(method)
            .fit(&mut rng(31))
            .unwrap();
        let bytes = fitted.to_bytes().unwrap();
        let a = fitted.transform_batch(&data).unwrap().released;
        let b = fitted.transform_batch(&other).unwrap().released;
        // The perturbation applied to `other` differs from the one applied
        // to `data` (not just shifted by the +1.0 offset).
        let reused = a
            .matrix()
            .as_slice()
            .iter()
            .zip(b.matrix().as_slice())
            .zip(
                data.matrix()
                    .as_slice()
                    .iter()
                    .zip(other.matrix().as_slice()),
            )
            .all(|((ra, rb), (xa, xb))| ((ra - xa) - (rb - xb)).abs() < 1e-12);
        assert!(!reused, "{} reused draws across batches", method.name());
        // Two independent decodes perturb identically to the live state.
        let d1 = decode_fitted(&bytes).unwrap();
        let d2 = decode_fitted(&bytes).unwrap();
        for batch in [&data, &other] {
            let live = fitted.transform_batch(batch).unwrap().released;
            assert!(live
                .matrix()
                .approx_eq(d1.transform_batch(batch).unwrap().released.matrix(), 0.0));
            assert!(live
                .matrix()
                .approx_eq(d2.transform_batch(batch).unwrap().released.matrix(), 0.0));
        }
    }
}

#[test]
fn decode_fitted_reads_legacy_session_files() {
    // The text and binary session key files the CLI has always written
    // decode straight into a fitted RBT transform.
    let data = sample();
    let out = Pipeline::new(RbtConfig::uniform(
        PairwiseSecurityThreshold::uniform(0.25).unwrap(),
    ))
    .run(&data, &mut rng(9))
    .unwrap();
    let session = ReleaseSession::from_pipeline_output(&out).unwrap();

    for bytes in [session.to_bytes(), session.to_text().into_bytes()] {
        let fitted = decode_fitted(&bytes).unwrap();
        assert_eq!(fitted.method_name(), "rbt");
        let batch = fitted.transform_batch(&data).unwrap().released;
        assert!(batch.matrix().approx_eq(
            session
                .clone()
                .transform_batch(&data)
                .unwrap()
                .released
                .matrix(),
            0.0
        ));
    }
}

#[test]
fn builder_rejects_knobs_the_method_cannot_take() {
    let data = sample();
    // Thresholds on a baseline are a typed configuration error.
    let err = Release::of(&data)
        .with_method(Method::Noise)
        .with_thresholds(PairwiseSecurityThreshold::uniform(0.3).unwrap())
        .fit(&mut rng(0))
        .unwrap_err();
    assert!(matches!(err, RbtError::InvalidConfig(_)), "{err:?}");
    assert_eq!(err.exit_code(), 2);
    // Same for normalization on a baseline…
    let err = Release::of(&data)
        .with_method(Method::Swap)
        .with_normalization(Normalization::min_max_unit())
        .fit(&mut rng(0))
        .unwrap_err();
    assert!(matches!(err, RbtError::InvalidConfig(_)));
    // ID suppression, by contrast, applies to every registry method.
    let fitted = Release::of(&data)
        .with_method(Method::Noise)
        .with_id_suppression(false)
        .fit(&mut rng(4))
        .unwrap();
    assert_eq!(fitted.released.ids(), data.ids());
}

#[test]
fn custom_transforms_ride_the_same_builder() {
    let data = sample();
    // A pre-configured transform (higher noise than the registry default)
    // fits on its own into the same `FittedRelease` the builder returns.
    let custom = rbt::api::NoiseMethod::new(rbt::transform::AdditiveNoise::gaussian(2.0).unwrap());
    let fitted = custom.fit(&data, &mut rng(8)).unwrap();
    assert_eq!(fitted.method_name(), "noise");
    assert!(!fitted.properties().isometric);
}

#[test]
fn every_method_reports_drift_through_the_one_interface() {
    // A batch shifted far outside the fitting range: RBT's session counts
    // its drifted rows, through the fitted state and through the decoded
    // key alike; every other method keeps no fitted range and reports 0.
    let data = sample();
    let mut shifted = sample();
    for v in shifted.matrix_mut().as_mut_slice() {
        *v += 1000.0;
    }
    for method in Method::ALL {
        let fitted = Release::of(&data)
            .with_method(method)
            .fit(&mut rng(13))
            .unwrap();
        let decoded = decode_fitted(&fitted.to_bytes().unwrap()).unwrap();
        for state in [fitted.fitted.as_ref(), decoded.as_ref()] {
            let drift = state.transform_batch(&shifted).unwrap().out_of_range_rows;
            if method == Method::Rbt {
                let session = state.session().expect("rbt exposes its session");
                let expected = session.transform_batch(&shifted).unwrap();
                assert_eq!(drift, expected.out_of_range_rows);
                assert!(drift > 0, "every shifted row drifts");
            } else {
                assert!(state.session().is_none(), "{}", method.name());
                assert_eq!(drift, 0, "{}", method.name());
            }
        }
    }
}

/// `(length, CRC-32)` of a matrix's bits, every NaN hashed as one
/// canonical pattern (Rust leaves a NaN result's sign and payload
/// unspecified).
fn bits_pin(m: &Matrix) -> (usize, u32) {
    let bytes: Vec<u8> = m
        .as_slice()
        .iter()
        .flat_map(|v| {
            if v.is_nan() { f64::NAN } else { *v }
                .to_bits()
                .to_le_bytes()
        })
        .collect();
    (bytes.len(), rbt::linalg::codec::crc32(&bytes))
}

#[test]
fn hybrid_isometry_releases_keep_their_bits() {
    // A 17-column fit (column 1 constant) at a fixed seed, then a batch of
    // every fitting row plus rows carrying ±0, ±∞, 1e±300, subnormals and
    // NaN. Pinned: the fit-time release, the batch's release through the
    // copying and the in-place entry points (equal), and its inverse.
    const ROWS: usize = 48;
    const COLS: usize = 17;
    let fit = Matrix::from_vec(
        ROWS,
        COLS,
        (0..ROWS * COLS)
            .map(|t| {
                let (r, j) = (t / COLS, t % COLS);
                if j == 1 {
                    -3.25
                } else {
                    (((r * 29 + j * 13) % 31) as f64 - 15.0) * (1.0 + 0.5 * j as f64)
                        + (1.3 * t as f64).cos()
                }
            })
            .collect(),
    )
    .unwrap();
    let data = Dataset::from_matrix(fit.clone());
    let fitted = Release::of(&data)
        .with_method(Method::HybridIsometry)
        .fit(&mut rng(4242))
        .unwrap();
    let mut rows = fit.as_slice().to_vec();
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
    for (k, &v) in specials.iter().enumerate() {
        let mut row = fit.row(k).to_vec();
        row[(3 * k) % COLS] = v;
        rows.extend(&row);
        rows.extend(std::iter::repeat_n(v, COLS));
    }
    let n_rows = rows.len() / COLS;
    let batch = Dataset::from_matrix(Matrix::from_vec(n_rows, COLS, rows).unwrap());
    let released = fitted.transform_batch(&batch).unwrap().released;
    let mut in_place = batch.clone();
    fitted
        .fitted
        .transform_batch_in_place(&mut in_place)
        .unwrap();
    assert_eq!(bits_pin(in_place.matrix()), bits_pin(released.matrix()));
    let inverse = fitted.invert_batch(&released).unwrap();
    let mut inverse_in_place = released.clone();
    fitted
        .fitted
        .invert_batch_in_place(&mut inverse_in_place)
        .unwrap();
    assert_eq!(
        bits_pin(inverse_in_place.matrix()),
        bits_pin(inverse.matrix())
    );
    assert_eq!(
        [
            bits_pin(fitted.released.matrix()),
            bits_pin(released.matrix()),
            bits_pin(inverse.matrix()),
        ],
        [(6528, 0x115728EA), (9520, 0x91DE1098), (9520, 0x8DC4D949)]
    );
}

/// `(length, CRC-32)` of the bits of every step's angle, in key order.
fn angles_pin(key: &rbt::core::TransformationKey) -> (usize, u32) {
    let bytes: Vec<u8> = key
        .steps()
        .iter()
        .flat_map(|st| st.theta_degrees.to_bits().to_le_bytes())
        .collect();
    (bytes.len(), rbt::linalg::codec::crc32(&bytes))
}

#[test]
fn rbt_fits_keep_their_bits() {
    // `Pipeline::run` at a fixed seed per width, on 2, 3, 16, 17 and 33
    // columns (odd widths re-rotate a column), under sequential and
    // random-shuffle pairing. Pinned: the fit-time release and every key
    // angle.
    const ROWS: usize = 40;
    let mut pins = Vec::new();
    for cols in [2usize, 3, 16, 17, 33] {
        let data = Dataset::from_matrix(
            Matrix::from_vec(
                ROWS,
                cols,
                (0..ROWS * cols)
                    .map(|t| {
                        let (r, j) = (t / cols, t % cols);
                        (((r * 29 + j * 13) % 31) as f64 - 15.0) * (1.0 + 0.5 * j as f64)
                            + (1.3 * t as f64).cos()
                    })
                    .collect(),
            )
            .unwrap(),
        );
        for pairing in [PairingStrategy::Sequential, PairingStrategy::RandomShuffle] {
            let config = RbtConfig::uniform(PairwiseSecurityThreshold::uniform(0.3).unwrap())
                .with_pairing(pairing);
            let out = Pipeline::new(config)
                .run(&data, &mut rng(700 + cols as u64))
                .unwrap();
            pins.push((cols, bits_pin(out.released.matrix()), angles_pin(&out.key)));
        }
    }
    assert_eq!(
        pins,
        [
            (2, (640, 0xD7CFF1F6), (8, 0x2F279052)),
            (2, (640, 0x9353012C), (8, 0xF5EE2834)),
            (3, (960, 0x0EA4498F), (16, 0x895B3E1D)),
            (3, (960, 0x00AA24BC), (16, 0x5B900317)),
            (16, (5120, 0x0D667217), (64, 0xB140911E)),
            (16, (5120, 0x9D10C388), (64, 0x4824FDDF)),
            (17, (5440, 0x0C950495), (72, 0x73E460A7)),
            (17, (5440, 0xB8263FE0), (72, 0x21418982)),
            (33, (10560, 0x0F9D4264), (136, 0x275E19CD)),
            (33, (10560, 0xCB858D6F), (136, 0x34FBF637)),
        ]
    );

    // The §5.1 replay through `transform_with_angles`.
    let example = rbt::core::paper::run_example().unwrap();
    assert_eq!(
        (bits_pin(&example.transformed), angles_pin(&example.key)),
        ((120, 0xCB2D27CB), (16, 0x19E8CE30))
    );
}

#[test]
fn session_keys_embedding_a_mixed_normalizer_are_refused() {
    use rbt::core::codec::{self, CodecError, RecordKind};
    use rbt::linalg::codec::{ByteWriter, DecodeError};

    // A fitted RBT key file whose normalizer record is rewritten into one
    // no producer writes, then resealed with a valid checksum: its second
    // column turned into a well-formed decimal-scaling entry, or its
    // method tag turned from sample z-score into decimal scaling over the
    // z-score columns. The session decoder, the fitted-state decoder and
    // the daemon's key loader all refuse it as a corrupt key (code 4).
    let data = sample();
    let fitted = Release::of(&data)
        .with_method(Method::Rbt)
        .fit(&mut rng(3))
        .unwrap();
    let session = fitted.session().expect("rbt exposes its session");
    let bytes = fitted.to_bytes().unwrap();
    let payload = codec::open_envelope(&bytes, RecordKind::Session)
        .unwrap()
        .to_vec();
    let record = ByteWriter::encode_with(|w| session.normalizer().encode_into(w));
    let start = payload
        .windows(record.len())
        .position(|w| w == record)
        .expect("the session embeds its normalizer record");
    assert_eq!(payload[start], 1, "the method is sample z-score");
    // Method tag and column count, then column 0's tag; column 1's tag
    // follows column 0's two f64s.
    let column0 = start + 1 + 8;
    let column1 = column0 + 1 + 16;
    assert_eq!(payload[column1], 1, "column 1 is z-score");
    let mut mixed_columns = payload.clone();
    let decimal = std::iter::once(2).chain(100.0f64.to_le_bytes());
    mixed_columns.splice(column1..column1 + 1 + 16, decimal);
    let mut mistagged = payload.clone();
    mistagged[start] = 3;

    for (edited, at) in [(mixed_columns, column1), (mistagged, column0)] {
        let mixed = codec::seal_envelope(RecordKind::Session, &edited);
        match ReleaseSession::from_bytes(&mixed) {
            Err(rbt::core::Error::Codec(CodecError::Byte(DecodeError::Malformed {
                offset,
                ..
            }))) => {
                assert_eq!(offset, at)
            }
            other => panic!("expected a refusal at offset {at}, got {other:?}"),
        }
        let refused = decode_fitted(&mixed).map(|_| ()).unwrap_err();
        assert!(matches!(refused, RbtError::Codec(_)), "{refused:?}");
        assert_eq!(refused.exit_code(), 4);
        let registry = rbt::server::SessionRegistry::new(1);
        let refused = registry.load_key("t", mixed).map(|_| ()).unwrap_err();
        assert_eq!(refused.code(), 4);
    }

    // The text key file: one `param` line of another kind, or a min–max
    // method tag over the z-score lines; checksum recomputed, refused at
    // the normalizer section.
    let text = session.to_text();
    let body: Vec<String> = text
        .lines()
        .filter(|l| !l.starts_with("checksum"))
        .map(str::to_string)
        .collect();
    let param = body
        .iter()
        .position(|l| l.starts_with("param "))
        .expect("a param line");
    let tag = body
        .iter()
        .position(|l| l == "normalizer method=zscore-sample")
        .expect("a normalizer line");
    let mut mixed_lines = body.clone();
    mixed_lines[param + 1] = "param decimal 1.00000000000000000e2".into();
    let mut mistagged = body;
    mistagged[tag] = "normalizer method=minmax".into();
    for edited in [mixed_lines, mistagged] {
        let sum = rbt::linalg::codec::crc32(edited.join("\n").as_bytes());
        let mixed_text = format!("{}\nchecksum {sum:08x}\n", edited.join("\n"));
        match ReleaseSession::from_text(&mixed_text) {
            Err(rbt::core::Error::Codec(CodecError::Text { message, .. })) => {
                assert!(message.contains("one parameter kind"), "{message}")
            }
            other => panic!("expected a text refusal, got {other:?}"),
        }
    }
}
