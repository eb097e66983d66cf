//! Integration tests for the `rbt-cli` binary: the full
//! release → audit → recover workflow through the actual executable.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rbt-cli"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rbt-cli-test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const SAMPLE: &str = "id,age,weight,heart_rate\n\
1237,75,80,63\n\
3420,56,64,53\n\
2543,40,52,70\n\
4461,28,58,76\n\
2863,44,90,68\n";

#[test]
fn release_audit_recover_workflow() {
    let dir = temp_dir("workflow");
    let input = dir.join("data.csv");
    std::fs::write(&input, SAMPLE).unwrap();
    let released = dir.join("released.csv");
    let key = dir.join("key.txt");
    let params = dir.join("norm.txt");
    let recovered = dir.join("recovered.csv");

    let out = cli()
        .args(["release", "--input"])
        .arg(&input)
        .arg("--output")
        .arg(&released)
        .args(["--key"])
        .arg(&key)
        .args(["--params"])
        .arg(&params)
        .args(["--rho", "0.3", "--seed", "42"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("released 5 rows x 3 attributes"));

    // Released CSV has no id column and different values.
    let released_text = std::fs::read_to_string(&released).unwrap();
    assert!(released_text.starts_with("age,weight,heart_rate\n"));
    assert!(!released_text.contains("1237"));

    // Key and params files parse.
    assert!(std::fs::read_to_string(&key)
        .unwrap()
        .starts_with("rbt-key v1 n=3"));
    assert!(std::fs::read_to_string(&params)
        .unwrap()
        .starts_with("rbt-normalizer v1 cols=3"));

    // Audit reports isometry.
    let audit = cli()
        .args(["audit", "--original"])
        .arg(&input)
        .args(["--released"])
        .arg(&released)
        .output()
        .unwrap();
    assert!(audit.status.success());
    let audit_text = String::from_utf8_lossy(&audit.stdout);
    assert!(
        audit_text.contains("isometric (tolerance 1e-6): true"),
        "{audit_text}"
    );

    // Inspect-key lists the two rotations.
    let inspect = cli()
        .args(["inspect-key", "--key"])
        .arg(&key)
        .output()
        .unwrap();
    assert!(inspect.status.success());
    let inspect_text = String::from_utf8_lossy(&inspect.stdout);
    assert!(inspect_text.contains("2 rotation steps"));
    assert!(inspect_text.contains("composite rotation is orthogonal: true"));

    // Recover round-trips to the original integers.
    let rec = cli()
        .args(["recover", "--input"])
        .arg(&released)
        .args(["--key"])
        .arg(&key)
        .args(["--params"])
        .arg(&params)
        .args(["--output"])
        .arg(&recovered)
        .output()
        .unwrap();
    assert!(
        rec.status.success(),
        "{}",
        String::from_utf8_lossy(&rec.stderr)
    );
    let recovered_text = std::fs::read_to_string(&recovered).unwrap();
    for line in ["75,80,63", "44,90,68"] {
        assert!(recovered_text.contains(line), "{recovered_text}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn release_is_seed_deterministic() {
    let dir = temp_dir("determinism");
    let input = dir.join("data.csv");
    std::fs::write(&input, SAMPLE).unwrap();
    let mut outputs = Vec::new();
    for run in 0..2 {
        let released = dir.join(format!("released{run}.csv"));
        let status = cli()
            .args(["release", "--input"])
            .arg(&input)
            .args(["--output"])
            .arg(&released)
            .args(["--key"])
            .arg(dir.join(format!("key{run}.txt")))
            .args(["--params"])
            .arg(dir.join(format!("norm{run}.txt")))
            .args(["--seed", "7"])
            .status()
            .unwrap();
        assert!(status.success());
        outputs.push(std::fs::read_to_string(&released).unwrap());
    }
    assert_eq!(outputs[0], outputs[1]);
    std::fs::remove_dir_all(&dir).ok();
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

    std::fs::remove_dir_all(&dir).ok();
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

    std::fs::remove_dir_all(&dir).ok();
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

    std::fs::remove_dir_all(&dir).ok();
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

    std::fs::remove_dir_all(&dir).ok();
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
        .args(["release", "--input"])
        .arg(&bad_csv)
        .args(["--output"])
        .arg(dir.join("x.csv"))
        .args(["--key"])
        .arg(dir.join("k.txt"))
        .args(["--params"])
        .arg(dir.join("p.txt"))
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
        .args(["release", "--input"])
        .arg(&input)
        .args(["--output"])
        .arg(dir.join("x.csv"))
        .args(["--key"])
        .arg(dir.join("k.txt"))
        .args(["--params"])
        .arg(dir.join("p.txt"))
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

    // Corrupt params file on recover → 4 (secret artifact, not input data).
    let p_key = dir.join("pk.txt");
    let p_params = dir.join("pp.txt");
    let p_rel = dir.join("prel.csv");
    let out = cli()
        .args(["release", "--input"])
        .arg(&input)
        .args(["--output"])
        .arg(&p_rel)
        .args(["--key"])
        .arg(&p_key)
        .args(["--params"])
        .arg(&p_params)
        .args(["--seed", "2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    std::fs::write(&p_params, "rbt-normalizer v1 cols=3\ngarbage\n").unwrap();
    let out = cli()
        .args(["recover", "--input"])
        .arg(&p_rel)
        .args(["--key"])
        .arg(&p_key)
        .args(["--params"])
        .arg(&p_params)
        .args(["--output"])
        .arg(dir.join("x.csv"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4));
    assert!(String::from_utf8_lossy(&out.stderr).contains("params file"));

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

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_invocations_fail_cleanly() {
    // Unknown command.
    let out = cli().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing required flag.
    let out = cli()
        .args(["release", "--input", "x.csv"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing required flag"));

    // Nonexistent input file.
    let out = cli()
        .args([
            "release",
            "--input",
            "/nonexistent/data.csv",
            "--output",
            "/tmp/x.csv",
            "--key",
            "/tmp/k.txt",
            "--params",
            "/tmp/p.txt",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // Bad rho.
    let out = cli()
        .args([
            "release",
            "--input",
            "/tmp/whatever.csv",
            "--output",
            "/tmp/x.csv",
            "--key",
            "/tmp/k.txt",
            "--params",
            "/tmp/p.txt",
            "--rho",
            "banana",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --rho"));

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
