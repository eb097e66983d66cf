//! A key step whose angle is NaN or ±∞ would release NaN in its pair's
//! columns, so every key reader refuses it as a key mismatch: a binary and
//! a text session file, a hybrid isometry's `Method` record, and a
//! tenant's `LoadKey`. Each file is a valid one with one angle replaced
//! and its checksum recomputed.

use rand::SeedableRng;
use rbt::core::codec::{open_envelope, seal_envelope, RecordKind};
use rbt::data::datasets;
use rbt::prelude::*;

#[test]
fn non_finite_key_angles_are_refused_by_every_key_reader() {
    let data = datasets::arrhythmia_sample();
    let fit = |method| {
        Release::of(&data)
            .with_method(method)
            .fit(&mut rand::rngs::StdRng::seed_from_u64(5))
            .unwrap()
    };
    let rbt = fit(Method::Rbt);
    let session = rbt.session().unwrap();
    let hybrid = fit(Method::HybridIsometry).fitted.to_bytes().unwrap();
    let registry = rbt::server::SessionRegistry::new(4);
    for angle in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        // The first step's angle follows the key's attribute and step
        // counts and the step's two indices.
        let mut payload = open_envelope(&session.to_bytes(), RecordKind::Session)
            .unwrap()
            .to_vec();
        payload[32..40].copy_from_slice(&angle.to_le_bytes());
        let binary = seal_envelope(RecordKind::Session, &payload);

        // The first `rotate` line's angle, under a recomputed checksum.
        let mut lines: Vec<String> = session.to_text().lines().map(String::from).collect();
        lines.pop();
        let rotate = lines.iter_mut().find(|l| l.starts_with("rotate ")).unwrap();
        let mut fields: Vec<String> = rotate.split_whitespace().map(String::from).collect();
        fields[3] = format!("{angle:.17e}");
        *rotate = fields.join(" ");
        let body = lines.join("\n");
        let text = format!(
            "{body}\nchecksum {:08x}\n",
            rbt::linalg::codec::crc32(body.as_bytes())
        );

        // The last step's angle precedes the solver grid and the ID flag.
        let mut payload = open_envelope(&hybrid, RecordKind::Method).unwrap().to_vec();
        let at = payload.len() - 17;
        payload[at..at + 8].copy_from_slice(&angle.to_le_bytes());
        let method_record = seal_envelope(RecordKind::Method, &payload);

        for bytes in [&binary, text.as_bytes()] {
            let err = ReleaseSession::decode(bytes).unwrap_err();
            assert!(
                matches!(&err, rbt::core::Error::KeyMismatch(m) if m.contains("non-finite angle")),
                "session file, angle {angle}: {err:?}"
            );
        }
        for (what, bytes) in [
            ("binary session", binary),
            ("text session", text.into_bytes()),
            ("hybrid method record", method_record),
        ] {
            let err = decode_fitted(&bytes).map(|_| ()).unwrap_err();
            assert!(
                matches!(&err, RbtError::DimensionMismatch(m) if m.contains("non-finite angle")),
                "{what}, angle {angle}: {err:?}"
            );
            let err = registry.load_key("tenant", bytes).unwrap_err();
            assert_eq!(err.code(), 5, "{what}, angle {angle}: {err}");
        }
    }
    assert_eq!(registry.stats().known_tenants, 0);
}
