//! Integration tests for the `rbt-cli` binary: the full
//! keygen → audit → invert workflow through the actual executable.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rbt-cli"))
}

/// Runs `cmd` and asserts it exits 0, showing its stderr otherwise.
fn run_ok(cmd: &mut Command) -> Output {
    let out = cmd.output().unwrap();
    assert!(
        out.status.success(),
        "{cmd:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// `(length, CRC-32)` of a file's bytes.
fn file_pin(path: &Path) -> (usize, u32) {
    let bytes = std::fs::read(path).unwrap();
    (bytes.len(), rbt::linalg::codec::crc32(&bytes))
}

/// A test's own directory, removed when the test ends, pass or fail.
struct TempDir(PathBuf);

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A fresh directory for one test: process ids recur, so whatever an
/// earlier run with the same id left there is removed first.
fn temp_dir(name: &str) -> TempDir {
    let dir = std::env::temp_dir().join(format!("rbt-cli-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    TempDir(dir)
}

const SAMPLE: &str = "id,age,weight,heart_rate\n\
1237,75,80,63\n\
3420,56,64,53\n\
2543,40,52,70\n\
4461,28,58,76\n\
2863,44,90,68\n";

#[test]
fn keygen_audit_invert_workflow() {
    let dir = temp_dir("workflow");
    let input = dir.join("data.csv");
    std::fs::write(&input, SAMPLE).unwrap();
    let released = dir.join("released.csv");
    let key = dir.join("session.rbt");
    let recovered = dir.join("recovered.csv");

    let out = run_ok(
        cli()
            .args(["keygen", "--input"])
            .arg(&input)
            .arg("--key")
            .arg(&key)
            .arg("--released")
            .arg(&released)
            .args(["--rho", "0.3", "--seed", "42"]),
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("initial release: 5 rows"), "{stdout}");
    assert!(stdout.contains("session key for 3 attributes"), "{stdout}");

    // Released CSV has no id column and different values.
    let released_text = std::fs::read_to_string(&released).unwrap();
    assert!(released_text.starts_with("age,weight,heart_rate\n"));
    assert!(!released_text.contains("1237"));

    // The one key file holds key and normalizer.
    assert!(std::fs::read_to_string(&key)
        .unwrap()
        .starts_with("rbt-session v1\n"));

    // Audit reports isometry.
    let audit = run_ok(
        cli()
            .args(["audit", "--original"])
            .arg(&input)
            .arg("--released")
            .arg(&released),
    );
    let audit_text = String::from_utf8_lossy(&audit.stdout);
    assert!(
        audit_text.contains("isometric (tolerance 1e-6): true"),
        "{audit_text}"
    );

    // Inspect-key lists the two rotations.
    let inspect = run_ok(cli().args(["inspect-key", "--key"]).arg(&key));
    let inspect_text = String::from_utf8_lossy(&inspect.stdout);
    assert!(inspect_text.contains("2 rotation steps"));
    assert!(inspect_text.contains("composite rotation is orthogonal: true"));

    // Invert round-trips to the original integers.
    run_ok(
        cli()
            .args(["invert", "--key"])
            .arg(&key)
            .arg("--input")
            .arg(&released)
            .arg("--output")
            .arg(&recovered),
    );
    let recovered_text = std::fs::read_to_string(&recovered).unwrap();
    for line in ["75,80,63", "44,90,68"] {
        assert!(recovered_text.contains(line), "{recovered_text}");
    }

    // inspect-key reads key files only: the key's rotate lines without
    // their session, or any other file, are a corrupt key file.
    let rotations: String = std::fs::read_to_string(&key)
        .unwrap()
        .lines()
        .filter(|l| l.starts_with("rotate "))
        .map(|l| format!("{l}\n"))
        .collect();
    let bare = dir.join("rotations.txt");
    std::fs::write(&bare, rotations).unwrap();
    for path in [&bare, &input] {
        let out = cli()
            .args(["inspect-key", "--key"])
            .arg(path)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(4), "{path:?}");
    }
}

/// Pins the bytes of the one-shot Figure-1 workflow: `keygen --released`
/// then `invert`, at seed 4242, for every normalization with IDs kept and
/// suppressed. Decimal scaling runs at rho 0.05, since 0.3 is infeasible
/// on this sample.
#[test]
fn one_shot_cli_outputs_keep_their_bytes() {
    let dir = temp_dir("one-shot-pins");
    let input = dir.join("data.csv");
    std::fs::write(&input, SAMPLE).unwrap();
    let mut actual = Vec::new();
    for (normalization, rho) in [
        ("zscore", "0.3"),
        ("minmax", "0.3"),
        ("robust", "0.3"),
        ("decimal", "0.05"),
    ] {
        for keep_ids in [false, true] {
            let ids: &[&str] = if keep_ids { &["--keep-ids"] } else { &[] };
            let case = dir.join(format!("{normalization}-{keep_ids}"));
            let key = case.with_extension("rbt");
            let released = case.with_extension("released.csv");
            let recovered = case.with_extension("recovered.csv");
            run_ok(
                cli()
                    .args(["keygen", "--input"])
                    .arg(&input)
                    .arg("--key")
                    .arg(&key)
                    .arg("--released")
                    .arg(&released)
                    .args(["--seed", "4242", "--rho", rho])
                    .args(["--normalization", normalization])
                    .args(ids),
            );
            run_ok(
                cli()
                    .args(["invert", "--key"])
                    .arg(&key)
                    .arg("--input")
                    .arg(&released)
                    .arg("--output")
                    .arg(&recovered),
            );
            actual.push((file_pin(&released), file_pin(&recovered)));
        }
    }
    // (released, recovered) per normalization, IDs suppressed then kept.
    let golden = [
        ((320, 0xA17AD14F), (67, 0x3D4128CC)),
        ((348, 0x721FEA73), (95, 0x5FAD0CBD)),
        ((324, 0x7DF3B680), (82, 0x073253B9)),
        ((352, 0xA66946AC), (110, 0x734FCF7B)),
        ((319, 0xC53F6BAC), (83, 0x14D1F92F)),
        ((347, 0xA95DC35E), (111, 0x58324770)),
        ((318, 0xDB30A54B), (158, 0x99439D2D)),
        ((346, 0x1C7C84FE), (186, 0x840C1F71)),
    ];
    assert_eq!(actual, golden);
}

#[test]
fn keygen_transform_invert_round_trip() {
    let dir = temp_dir("session-roundtrip");
    let input = dir.join("data.csv");
    std::fs::write(&input, SAMPLE).unwrap();
    let key = dir.join("session.rbt");
    let released0 = dir.join("released0.csv");
    let transformed = dir.join("transformed.csv");
    let recovered = dir.join("recovered.csv");

    let out = cli()
        .args(["keygen", "--input"])
        .arg(&input)
        .args(["--key"])
        .arg(&key)
        .args(["--released"])
        .arg(&released0)
        .args(["--rho", "0.25", "--seed", "9"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("session key for 3 attributes"));
    // Default key-file format is the human-readable checksummed text form.
    assert!(std::fs::read_to_string(&key)
        .unwrap()
        .starts_with("rbt-session v1\n"));

    // Transforming the same rows through the persisted session must equal
    // the keygen-time release byte for byte (the matrices are bit-identical
    // and the CSV writer is deterministic).
    let out = cli()
        .args(["transform", "--key"])
        .arg(&key)
        .args(["--input"])
        .arg(&input)
        .args(["--output"])
        .arg(&transformed)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("drift: 0 records"));
    assert_eq!(
        std::fs::read(&transformed).unwrap(),
        std::fs::read(&released0).unwrap(),
        "streamed transform differs from the keygen-time release"
    );

    // invert recovers the raw values within 1e-9.
    let out = cli()
        .args(["invert", "--key"])
        .arg(&key)
        .args(["--input"])
        .arg(&transformed)
        .args(["--output"])
        .arg(&recovered)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let recovered_ds = rbt::data::csv::read_file(&recovered).unwrap();
    let original = rbt::data::csv::from_csv(SAMPLE).unwrap();
    let err = recovered_ds
        .matrix()
        .max_abs_diff(original.matrix())
        .unwrap();
    assert!(err < 1e-9, "recovered CSV off by {err}");
}

#[test]
fn keygen_writes_the_library_key_bytes() {
    // Every key file keygen writes is byte for byte the one the library
    // fits from the same seed: RBT's session record (text and binary, as
    // the Pipeline + ReleaseSession path writes it) and the Release
    // builder's sealed state for the other methods.
    use rand::SeedableRng;
    use rbt::prelude::*;

    let dir = temp_dir("keygen-bytes");
    let input = dir.join("data.csv");
    std::fs::write(&input, SAMPLE).unwrap();
    let data = rbt::data::csv::from_csv(SAMPLE).unwrap();
    let rng = || rand::rngs::StdRng::seed_from_u64(4242);
    let pst = PairwiseSecurityThreshold::uniform(0.05).unwrap();

    let config = RbtConfig::uniform(pst);
    let out = Pipeline::new(config.clone())
        .with_normalization(Normalization::min_max_unit())
        .with_id_suppression(false)
        .run(&data, &mut rng())
        .unwrap();
    let session = ReleaseSession::from_pipeline_output(&out)
        .unwrap()
        .with_config(config)
        .with_id_suppression(false);
    let hybrid = Release::of(&data)
        .with_method(Method::HybridIsometry)
        .with_thresholds(pst)
        .fit(&mut rng())
        .unwrap();
    let swap = Release::of(&data)
        .with_method(Method::Swap)
        .fit(&mut rng())
        .unwrap();

    let rbt_flags = ["--rho", "0.05", "--normalization", "minmax", "--keep-ids"];
    let cases: [(&str, Vec<&str>, Vec<u8>); 4] = [
        (
            "rbt",
            [&rbt_flags[..], &["--format", "text"]].concat(),
            session.to_text().into_bytes(),
        ),
        (
            "rbt",
            [&rbt_flags[..], &["--format", "binary"]].concat(),
            session.to_bytes(),
        ),
        (
            "hybrid-isometry",
            vec!["--rho", "0.05"],
            hybrid.to_bytes().unwrap(),
        ),
        ("swap", vec![], swap.to_bytes().unwrap()),
    ];
    for (i, (method, flags, expected)) in cases.iter().enumerate() {
        let key = dir.join(format!("key{i}"));
        let out = cli()
            .args(["keygen", "--method", method, "--input"])
            .arg(&input)
            .arg("--key")
            .arg(&key)
            .args(["--seed", "4242"])
            .args(flags)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{method} {flags:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            std::fs::read(&key).unwrap() == *expected,
            "{method} {flags:?}: key file differs from the library's bytes"
        );
    }
}

#[test]
fn binary_and_text_key_files_are_equivalent() {
    let dir = temp_dir("session-binary");
    let input = dir.join("data.csv");
    std::fs::write(&input, SAMPLE).unwrap();
    let key_text = dir.join("session.rbt");
    let key_bin = dir.join("session.bin");
    let out_text = dir.join("t-text.csv");
    let out_bin = dir.join("t-bin.csv");

    for (key, fmt) in [(&key_text, "text"), (&key_bin, "binary")] {
        let out = cli()
            .args(["keygen", "--input"])
            .arg(&input)
            .args(["--key"])
            .arg(key)
            .args(["--seed", "4242", "--format", fmt])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert_eq!(&std::fs::read(&key_bin).unwrap()[..4], b"RBTS");

    for (key, out_path) in [(&key_text, &out_text), (&key_bin, &out_bin)] {
        let out = cli()
            .args(["transform", "--key"])
            .arg(key)
            .args(["--input"])
            .arg(&input)
            .args(["--output"])
            .arg(out_path)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // Same seed, either key-file container: identical releases.
    assert_eq!(
        std::fs::read(&out_text).unwrap(),
        std::fs::read(&out_bin).unwrap()
    );

    // inspect-key understands session key files (both containers).
    for key in [&key_text, &key_bin] {
        let inspect = cli()
            .args(["inspect-key", "--key"])
            .arg(key)
            .output()
            .unwrap();
        assert!(inspect.status.success());
        let text = String::from_utf8_lossy(&inspect.stdout);
        assert!(text.contains("session key file"), "{text}");
        assert!(text.contains("drift bounds attached"), "{text}");
    }
}

#[test]
fn corrupted_session_key_files_are_refused() {
    let dir = temp_dir("session-corrupt");
    let input = dir.join("data.csv");
    std::fs::write(&input, SAMPLE).unwrap();
    let key = dir.join("session.rbt");
    let output = dir.join("out.csv");

    let out = cli()
        .args(["keygen", "--input"])
        .arg(&input)
        .args(["--key"])
        .arg(&key)
        .args(["--seed", "7"])
        .output()
        .unwrap();
    assert!(out.status.success());

    // Tamper with one rotation line in the text key file.
    let text = std::fs::read_to_string(&key).unwrap();
    let tampered = text.replacen("rotate 0", "rotate 1", 1);
    assert_ne!(text, tampered);
    std::fs::write(&key, tampered).unwrap();

    let out = cli()
        .args(["transform", "--key"])
        .arg(&key)
        .args(["--input"])
        .arg(&input)
        .args(["--output"])
        .arg(&output)
        .output()
        .unwrap();
    assert!(!out.status.success(), "tampered key must be refused");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("checksum mismatch"),
        "stderr should name the corruption: {stderr}"
    );
    assert!(!output.exists(), "no output written from a corrupt key");

    // inspect-key reports the same corruption instead of falling back to
    // the legacy bare-key parser.
    let out = cli()
        .args(["inspect-key", "--key"])
        .arg(&key)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("checksum mismatch"),
        "inspect-key should surface the decode error: {stderr}"
    );

    // Unknown --format is a usage error.
    let out = cli()
        .args(["keygen", "--input"])
        .arg(&input)
        .args(["--key"])
        .arg(&key)
        .args(["--format", "yaml"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown key format"));
}

#[test]
fn methods_command_lists_the_registry() {
    let out = cli().arg("methods").output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["rbt", "hybrid-isometry", "noise", "swap", "geometric"] {
        assert!(text.contains(name), "registry missing {name}: {text}");
    }
    assert!(text.contains("isometric=true"));
    assert!(text.contains("isometric=false"));
}

#[test]
fn keygen_selects_methods_by_name() {
    let dir = temp_dir("method-select");
    let input = dir.join("data.csv");
    std::fs::write(&input, SAMPLE).unwrap();

    // hybrid-isometry: fits, transforms, and inverts back to the raw data.
    let key = dir.join("hybrid.key");
    let transformed = dir.join("hybrid-t.csv");
    let recovered = dir.join("hybrid-r.csv");
    let out = cli()
        .args(["keygen", "--method", "hybrid-isometry", "--input"])
        .arg(&input)
        .args(["--key"])
        .arg(&key)
        .args(["--rho", "0.25", "--seed", "77"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("hybrid-isometry"));
    assert_eq!(&std::fs::read(&key).unwrap()[..4], b"RBTS");

    let out = cli()
        .args(["transform", "--key"])
        .arg(&key)
        .args(["--input"])
        .arg(&input)
        .args(["--output"])
        .arg(&transformed)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = cli()
        .args(["invert", "--key"])
        .arg(&key)
        .args(["--input"])
        .arg(&transformed)
        .args(["--output"])
        .arg(&recovered)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let recovered_ds = rbt::data::csv::read_file(&recovered).unwrap();
    let original = rbt::data::csv::from_csv(SAMPLE).unwrap();
    let err = recovered_ds
        .matrix()
        .max_abs_diff(original.matrix())
        .unwrap();
    assert!(err < 1e-9, "hybrid recovery off by {err}");

    // inspect-key understands fitted non-RBT states.
    let out = cli()
        .args(["inspect-key", "--key"])
        .arg(&key)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("hybrid-isometry"));

    // noise: fits and transforms, but --rho is a usage error and inversion
    // is a capability error (exit 7).
    let noise_key = dir.join("noise.key");
    let out = cli()
        .args(["keygen", "--method", "noise", "--input"])
        .arg(&input)
        .args(["--key"])
        .arg(&noise_key)
        .args(["--rho", "0.25"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "noise takes no --rho");
    let out = cli()
        .args(["keygen", "--method", "noise", "--input"])
        .arg(&input)
        .args(["--key"])
        .arg(&noise_key)
        .args(["--seed", "5"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let noise_out = dir.join("noise-t.csv");
    let out = cli()
        .args(["transform", "--key"])
        .arg(&noise_key)
        .args(["--input"])
        .arg(&input)
        .args(["--output"])
        .arg(&noise_out)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = cli()
        .args(["invert", "--key"])
        .arg(&noise_key)
        .args(["--input"])
        .arg(&noise_out)
        .args(["--output"])
        .arg(dir.join("noise-r.csv"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(7), "baseline inversion is exit 7");
    assert!(String::from_utf8_lossy(&out.stderr).contains("not invertible"));
}

#[test]
fn exit_codes_distinguish_failure_families() {
    let dir = temp_dir("exit-codes");
    let input = dir.join("data.csv");
    std::fs::write(&input, SAMPLE).unwrap();
    let key = dir.join("session.rbt");

    // Unknown method → usage (2), naming the registry.
    let out = cli()
        .args(["keygen", "--method", "wavelet", "--input"])
        .arg(&input)
        .args(["--key"])
        .arg(&key)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown method"));

    // Malformed CSV → input data (3), with the line number.
    let bad_csv = dir.join("bad.csv");
    std::fs::write(&bad_csv, "age,weight\n1.0,2.0\n3.0,banana\n").unwrap();
    let out = cli()
        .args(["keygen", "--input"])
        .arg(&bad_csv)
        .args(["--key"])
        .arg(dir.join("k.rbt"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 3"));

    // Missing input file → I/O (3), naming the path.
    let out = cli()
        .args(["transform", "--key", "/nonexistent/key.rbt", "--input"])
        .arg(&input)
        .args(["--output"])
        .arg(dir.join("x.csv"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("/nonexistent/key.rbt"));

    // Infeasible threshold → 6, reporting what was achievable.
    let out = cli()
        .args(["keygen", "--input"])
        .arg(&input)
        .args(["--key"])
        .arg(dir.join("k.rbt"))
        .args(["--rho", "1e6", "--seed", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(6));
    assert!(String::from_utf8_lossy(&out.stderr).contains("maximum achievable"));

    // Corrupt key file → 4; shape-mismatched batch → 5.
    let out = cli()
        .args(["keygen", "--input"])
        .arg(&input)
        .args(["--key"])
        .arg(&key)
        .args(["--seed", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = std::fs::read_to_string(&key).unwrap();
    std::fs::write(&key, text.replacen("rotate 0", "rotate 1", 1)).unwrap();
    let out = cli()
        .args(["transform", "--key"])
        .arg(&key)
        .args(["--input"])
        .arg(&input)
        .args(["--output"])
        .arg(dir.join("x.csv"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4));
    std::fs::write(&key, text).unwrap();

    let narrow = dir.join("narrow.csv");
    std::fs::write(&narrow, "age,weight\n1.0,2.0\n").unwrap();
    let out = cli()
        .args(["transform", "--key"])
        .arg(&key)
        .args(["--input"])
        .arg(&narrow)
        .args(["--output"])
        .arg(dir.join("x.csv"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(5));
    assert!(String::from_utf8_lossy(&out.stderr).contains("dimension mismatch"));
}

#[test]
fn bad_invocations_fail_cleanly() {
    // Unknown command.
    let out = cli().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing required flag.
    let out = cli().args(["keygen", "--input", "x.csv"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing required flag"));

    // Nonexistent input file.
    let dir = temp_dir("bad-invocations");
    let key = dir.join("k.rbt");
    let out = cli()
        .args(["keygen", "--input", "/nonexistent/data.csv", "--key"])
        .arg(&key)
        .output()
        .unwrap();
    assert!(!out.status.success());

    // Bad rho.
    let input = dir.join("data.csv");
    std::fs::write(&input, SAMPLE).unwrap();
    let out = cli()
        .args(["keygen", "--input"])
        .arg(&input)
        .arg("--key")
        .arg(&key)
        .args(["--rho", "banana"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --rho"));
    assert!(!key.exists());

    // Help succeeds.
    let out = cli().arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn serve_quarantines_a_corrupt_key_and_keeps_serving_the_rest() {
    let dir = temp_dir("serve-corrupt");
    let keys = dir.join("keys");
    std::fs::create_dir_all(&keys).unwrap();

    // One valid key...
    let input = dir.join("data.csv");
    std::fs::write(&input, SAMPLE).unwrap();
    let good_key = keys.join("tenant-good.rbt");
    let out = cli()
        .args(["keygen", "--input"])
        .arg(&input)
        .arg("--key")
        .arg(&good_key)
        .args(["--seed", "7", "--format", "binary"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // ...and one corrupted copy next to it.
    let mut bytes = std::fs::read(&good_key).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(keys.join("tenant-bad.rbt"), &bytes).unwrap();

    // serve must quarantine the torn key and come up serving the tenants
    // that decoded, rather than aborting the whole directory.
    let mut child = cli()
        .args(["serve", "--keys"])
        .arg(&keys)
        .args(["--addr", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut banner = String::new();
    {
        use std::io::BufRead;
        let stdout = child.stdout.as_mut().unwrap();
        std::io::BufReader::new(stdout)
            .read_line(&mut banner)
            .unwrap();
    }
    child.kill().unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        banner.contains("serving 1 tenants") && banner.contains("1 quarantined"),
        "unexpected serve banner: {banner:?}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("quarantined") && stderr.contains("tenant-bad"),
        "quarantine was not logged: {stderr}"
    );
    let quarantine = keys.join(".quarantine");
    let moved: Vec<_> = std::fs::read_dir(&quarantine)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(moved, vec!["tenant-bad.rbt.0".to_string()]);
    assert!(!keys.join("tenant-bad.rbt").exists());
    assert!(good_key.exists());

    // A directory that does not exist is an I/O failure (3), not codec.
    let out = cli()
        .args([
            "serve",
            "--keys",
            "/nonexistent/keys",
            "--addr",
            "127.0.0.1:0",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
}

#[test]
fn unknown_and_repeated_flags_are_usage_errors() {
    let dir = temp_dir("unknown-flags");
    let input = dir.join("data.csv");
    std::fs::write(&input, SAMPLE).unwrap();
    let key = dir.join("session.rbt");
    let refused = |cmd: &mut Command, flag: &str| {
        let out = cmd.output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd:?}: {stderr}");
        assert!(stderr.contains(flag), "{cmd:?} must name {flag}: {stderr}");
    };

    // A mistyped threshold must not release under the default one.
    let keygen = || {
        let mut cmd = cli();
        cmd.args(["keygen", "--input"])
            .arg(&input)
            .arg("--key")
            .arg(&key)
            .args(["--seed", "42"]);
        cmd
    };
    refused(
        keygen().args(["--rhoo", "0.9", "--normalisation", "minmax"]),
        "--rhoo",
    );
    assert!(!key.exists(), "a refused keygen writes no key file");
    refused(keygen().args(["--rho", "0.3", "--rho", "0.9"]), "--rho");
    refused(keygen().args(["--keep-ids", "--keep-ids"]), "--keep-ids");
    assert!(!key.exists(), "a refused keygen writes no key file");

    // Every command checks its own flags, before it touches any file.
    refused(
        cli().args([
            "transform",
            "--key",
            "k",
            "--input",
            "i",
            "--output",
            "o",
            "--keep-ids",
        ]),
        "--keep-ids",
    );
    refused(
        cli().args(["inspect-key", "--key", "k", "--rho", "0.3"]),
        "--rho",
    );
    refused(
        cli().args([
            "serve",
            "--keys",
            "/nonexistent/keys",
            "--adr",
            "127.0.0.1:0",
        ]),
        "--adr",
    );
    refused(
        cli().args([
            "federate",
            "receive",
            "--addr",
            "a",
            "--session",
            "1",
            "--session",
            "2",
        ]),
        "--session",
    );
}

/// Kills the daemon when the test ends, whether it passes or not.
struct Daemon(std::process::Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `serve --keys <keys> --addr 127.0.0.1:0` and reads the bound
/// address from its banner.
fn serve(keys: &Path) -> (Daemon, String) {
    use std::io::BufRead;
    let mut daemon = Daemon(
        cli()
            .args(["serve", "--keys"])
            .arg(keys)
            .args(["--addr", "127.0.0.1:0"])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .unwrap(),
    );
    let mut banner = String::new();
    std::io::BufReader::new(daemon.0.stdout.as_mut().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let addr = banner
        .split(" on ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or_else(|| panic!("unexpected serve banner: {banner:?}"))
        .to_string();
    (daemon, addr)
}

/// The README's two-owner federation through the CLI: both owners save
/// the shared session key, which releases the pooled rows as `keygen`
/// does at the same seed and inverts each owner's block.
#[test]
fn federate_join_saves_a_session_key_file() {
    use rand::SeedableRng;
    let dir = temp_dir("federate");
    let keys = dir.join("keys");
    std::fs::create_dir_all(&keys).unwrap();
    // 60 rows × 4 attributes, split 25 / 35 between the two owners.
    let sample = rbt::data::synth::GaussianMixture::well_separated(3, 4, 10.0, 1.2)
        .unwrap()
        .sample(60, &mut rand::rngs::StdRng::seed_from_u64(7))
        .matrix;
    let pooled_text = rbt::data::csv::to_csv(&rbt::Dataset::from_matrix(sample));
    let pooled = dir.join("pooled.csv");
    std::fs::write(&pooled, &pooled_text).unwrap();
    let blocks = [1..26, 26..61];
    let block_csv = |text: &str, o: usize, name: &str| {
        let lines: Vec<&str> = text.lines().collect();
        let path = dir.join(format!("{name}{o}.csv"));
        let rows = lines[blocks[o].clone()].join("\n");
        std::fs::write(&path, format!("{}\n{rows}\n", lines[0])).unwrap();
        path
    };
    let parts = [0, 1].map(|o| block_csv(&pooled_text, o, "part"));
    let saved = [0, 1].map(|o| dir.join(format!("owner{o}.rbt")));

    let (_daemon, addr) = serve(&keys);
    let session = ["--addr", addr.as_str(), "--session", "42"];
    run_ok(cli().args(["federate", "coordinate"]).args(session).args([
        "--owners", "2", "--cols", "4", "--rho", "0.3", "--seed", "7",
    ]));
    let joins = [0, 1].map(|o| {
        cli()
            .args(["federate", "join"])
            .args(session)
            .args(["--owner", &o.to_string(), "--input"])
            .arg(&parts[o])
            .arg("--key")
            .arg(&saved[o])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .unwrap()
    });
    for join in joins {
        let out = join.wait_with_output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let labels = dir.join("labels.csv");
    run_ok(
        cli()
            .args(["federate", "receive"])
            .args(session)
            .arg("--output")
            .arg(&labels),
    );
    // A header, then one line per pooled row.
    assert_eq!(
        std::fs::read_to_string(&labels).unwrap().lines().count(),
        61
    );

    // Under the shared policy both owners saved the same key file...
    assert!(std::fs::read(&saved[0]).unwrap() == std::fs::read(&saved[1]).unwrap());
    // ...which releases the pooled rows as one owner holding them all would.
    let released = dir.join("released.csv");
    run_ok(
        cli()
            .args(["transform", "--key"])
            .arg(&saved[0])
            .arg("--input")
            .arg(&pooled)
            .arg("--output")
            .arg(&released),
    );
    let pooled_release = dir.join("pooled-release.csv");
    run_ok(
        cli()
            .args(["keygen", "--input"])
            .arg(&pooled)
            .arg("--key")
            .arg(dir.join("pooled.rbt"))
            .arg("--released")
            .arg(&pooled_release)
            .args(["--seed", "7", "--rho", "0.3"]),
    );
    assert!(
        std::fs::read(&released).unwrap() == std::fs::read(&pooled_release).unwrap(),
        "the saved key releases other bytes than keygen on the pooled rows"
    );
    // Each owner's key inverts its own block of the joint release.
    let released_text = std::fs::read_to_string(&released).unwrap();
    for o in [0, 1] {
        let recovered = dir.join(format!("recovered{o}.csv"));
        run_ok(
            cli()
                .args(["invert", "--key"])
                .arg(&saved[o])
                .arg("--input")
                .arg(block_csv(&released_text, o, "block"))
                .arg("--output")
                .arg(&recovered),
        );
        let back = rbt::data::csv::read_file(&recovered).unwrap();
        let part = rbt::data::csv::read_file(&parts[o]).unwrap();
        let err = back.matrix().max_abs_diff(part.matrix()).unwrap();
        assert!(err < 1e-9, "owner {o}'s block recovered off by {err}");
    }
}

/// `--owners` and `--owner` are `u16`s: a value past 65,535 is a usage
/// error naming the flag and the value, not a wrap to a small owner count
/// or index. The address is a closed localhost port, so a value that got
/// through would fail later, at the connect, with exit 4.
#[test]
fn owner_flags_out_of_range_are_usage_errors() {
    let closed = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    let addr = closed.to_string();
    let dir = temp_dir("owner-range");
    let input = dir.join("part.csv");
    std::fs::write(&input, SAMPLE).unwrap();

    let out = cli()
        .args(["federate", "coordinate", "--addr", &addr, "--session", "1"])
        .args(["--owners", "65538", "--cols", "3"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("--owners") && stderr.contains("65538"),
        "{stderr}"
    );

    let out = cli()
        .args(["federate", "join", "--addr", &addr, "--session", "1"])
        .args(["--owner", "65536", "--input"])
        .arg(&input)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("--owner") && stderr.contains("65536"),
        "{stderr}"
    );

    // The largest value still parses, and fails only at the connect.
    let out = cli()
        .args(["federate", "join", "--addr", &addr, "--session", "1"])
        .args(["--owner", "65535", "--input"])
        .arg(&input)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4));
}

/// A command whose stdout reader went away stops quietly with status 0
/// instead of panicking: the pipe's read end is closed before the command
/// starts, so its first report fails with a broken pipe.
#[test]
fn a_closed_stdout_stops_a_command_quietly() {
    let dir = temp_dir("closed-stdout");
    let input = dir.join("data.csv");
    std::fs::write(&input, SAMPLE).unwrap();
    let mut methods = cli();
    methods.arg("methods");
    // The audit compares the sample with itself.
    let mut audit = cli();
    audit.arg("audit").arg("--original").arg(&input);
    audit.arg("--released").arg(&input);
    for mut cmd in [methods, audit] {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = cmd.stdout(writer).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{cmd:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{cmd:?}: {stderr}");
    }
}
