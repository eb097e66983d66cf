//! `rbt-cli` — command-line front end for the privacy-preserving release
//! workflow.
//!
//! ```text
//! rbt-cli methods
//! rbt-cli release --input data.csv --output released.csv \
//!         --key key.txt --params norm.txt [--rho 0.3] [--seed N]
//!         [--normalization zscore|minmax|decimal|robust] [--keep-ids]
//! rbt-cli recover --input released.csv --key key.txt --params norm.txt \
//!         --output recovered.csv
//! rbt-cli keygen --input data.csv --key session.rbt [--method rbt]
//! rbt-cli transform/invert --key session.rbt --input b.csv --output o.csv
//! rbt-cli inspect-key --key key.txt
//! rbt-cli audit --original data.csv --released released.csv
//! rbt-cli serve --keys <dir> [--addr host:port] [--capacity N] [--window W]
//!         [--max-conns N] [--read-timeout ms] [--drain-timeout ms]
//! rbt-cli federate coordinate --addr host:port --session N --owners N --cols C
//! rbt-cli federate join --addr host:port --session N --owner I --input b.csv
//! rbt-cli federate receive --addr host:port --session N [--output labels.csv]
//! ```
//!
//! `release` normalizes, rotates, and writes three artifacts: the shareable
//! CSV, the secret rotation key, and the secret normalization parameters.
//! `recover` is the owner-side inverse. `audit` verifies the isometry and
//! reports per-attribute security levels. `keygen` fits any registered
//! method (`rbt-cli methods` lists them) and persists the fitted state;
//! `transform`/`invert` apply/undo it batch by batch.
//!
//! Failures exit with a distinct code per family (see
//! [`RbtError::exit_code`]): 2 usage/config, 3 input data, 4 corrupt key
//! files, 5 shape mismatches, 6 infeasible thresholds, 7 method
//! capability.

use rand::SeedableRng;
use rbt::api::{decode_fitted, FittedRbt, FittedTransform, Method, RbtError};
use rbt::core::{Pipeline, RbtConfig, ReleaseSession, TransformationKey};
use rbt::data::{csv, FittedNormalizer, Normalization};
use rbt::prelude::Release;
use rbt::protocol::{FederationConfig, KeyPolicy, Message, Owner, Party, ProtocolError};
use rbt::server::{
    Client, ClientError, KeyStore, Server, ServerConfig, ServerError, SessionRegistry,
};
use rbt::{PairwiseSecurityThreshold, VarianceMode};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A CLI failure: what went wrong plus the exit code family it belongs to.
struct CliError {
    code: u8,
    message: String,
}

impl CliError {
    /// A usage/config error (exit code 2).
    fn usage(message: impl Into<String>) -> Self {
        CliError {
            code: 2,
            message: message.into(),
        }
    }

    /// A file-system error (exit code 3, same family as unreadable data).
    fn io(message: impl Into<String>) -> Self {
        CliError {
            code: 3,
            message: message.into(),
        }
    }
}

impl From<RbtError> for CliError {
    fn from(e: RbtError) -> Self {
        CliError {
            code: e.exit_code(),
            message: e.to_string(),
        }
    }
}

impl From<rbt::core::Error> for CliError {
    fn from(e: rbt::core::Error) -> Self {
        RbtError::from(e).into()
    }
}

impl From<rbt::data::Error> for CliError {
    fn from(e: rbt::data::Error) -> Self {
        RbtError::from(e).into()
    }
}

impl From<ServerError> for CliError {
    fn from(e: ServerError) -> Self {
        CliError {
            code: e.code(),
            message: e.to_string(),
        }
    }
}

type CliResult<T> = Result<T, CliError>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "methods" => cmd_methods(rest),
        "release" => cmd_release(rest),
        "recover" => cmd_recover(rest),
        "keygen" => cmd_keygen(rest),
        "transform" => cmd_transform(rest),
        "invert" => cmd_invert(rest),
        "inspect-key" => cmd_inspect_key(rest),
        "audit" => cmd_audit(rest),
        "serve" => cmd_serve(rest),
        "federate" => cmd_federate(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::usage(format!(
            "unknown command {other:?}\n{USAGE}"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message);
            ExitCode::from(e.code)
        }
    }
}

const USAGE: &str = "\
rbt-cli — privacy-preserving data release via Rotation-Based Transformation

USAGE — the method registry:
  rbt-cli methods                 list every registered release method

One-shot RBT release (Figure 1):
  rbt-cli release --input <csv> --output <csv> --key <file> --params <file>
          [--rho <f64, default 0.3>] [--seed <u64, default random>]
          [--normalization zscore|minmax|decimal|robust] [--keep-ids]
  rbt-cli recover --input <csv> --key <file> --params <file> --output <csv>

Fitted release sessions (any method; persisted secrets, batch after batch):
  rbt-cli keygen --input <csv> --key <file> [--method <name, default rbt>]
          [--released <csv>] [--rho <f64, default 0.3>]
          [--seed <u64, default random>]
          [--normalization zscore|minmax|decimal|robust] [--keep-ids]
          [--format text|binary, default text (rbt); binary only otherwise]
  rbt-cli transform --key <file> --input <csv> --output <csv>
  rbt-cli invert --key <file> --input <csv> --output <csv>

Inspection:
  rbt-cli inspect-key --key <file>
  rbt-cli audit --original <csv> --released <csv>

Serving (the multi-tenant release daemon; see ARCHITECTURE.md \"Serving layer\"):
  rbt-cli serve --keys <dir> [--addr <host:port, default 127.0.0.1:7533>]
          [--capacity <live sessions, default 64>]
          [--window <in-flight requests per connection, default 8>]
          [--max-conns <connection cap, default 256>]
          [--read-timeout <ms before an idle/stalled peer is reaped, default 60000>]
          [--drain-timeout <ms shutdown waits for in-flight work, default 5000>]

Federated release (N owners, one joint clustering; ARCHITECTURE.md
\"Federated release layer\"):
  rbt-cli federate coordinate --addr <host:port> --session <u64>
          --owners <N> --cols <C> [--rho <f64, default 0.3>] [--seed <u64>]
          [--normalization zscore|minmax|decimal|robust] [--k <clusters, default 3>]
          [--max-iters <default 128>] [--key-policy shared|per-owner]
  rbt-cli federate join --addr <host:port> --session <u64> --owner <idx>
          --input <csv> [--key <file to save the reconstructed key>]
          [--wait-ms <poll budget, default 60000>]
  rbt-cli federate receive --addr <host:port> --session <u64>
          [--output <labels csv>] [--wait-ms <poll budget, default 60000>]

Exit codes: 0 ok · 2 usage/config · 3 input data · 4 corrupt key file ·
5 shape mismatch · 6 infeasible threshold · 7 method capability · 1 other";

/// Minimal `--flag value` / `--switch` parser.
fn parse_flags(args: &[String], switches: &[&str]) -> CliResult<HashMap<String, String>> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(CliError::usage(format!("unexpected argument {arg:?}")));
        };
        if switches.contains(&name) {
            out.insert(name.to_string(), "true".to_string());
        } else {
            let value = it
                .next()
                .ok_or_else(|| CliError::usage(format!("--{name} requires a value")))?;
            out.insert(name.to_string(), value.clone());
        }
    }
    Ok(out)
}

fn required<'a>(flags: &'a HashMap<String, String>, name: &str) -> CliResult<&'a str> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| CliError::usage(format!("missing required flag --{name}")))
}

fn write_file(path: &Path, contents: &str) -> CliResult<()> {
    std::fs::write(path, contents)
        .map_err(|e| CliError::io(format!("writing {}: {e}", path.display())))
}

fn read_file(path: &Path) -> CliResult<String> {
    std::fs::read_to_string(path)
        .map_err(|e| CliError::io(format!("reading {}: {e}", path.display())))
}

fn parse_rho(flags: &HashMap<String, String>) -> CliResult<f64> {
    flags
        .get("rho")
        .map(|v| {
            v.parse()
                .map_err(|e| CliError::usage(format!("bad --rho: {e}")))
        })
        .transpose()
        .map(|v| v.unwrap_or(0.3))
}

fn parse_seed(flags: &HashMap<String, String>) -> CliResult<u64> {
    match flags.get("seed") {
        Some(v) => v
            .parse()
            .map_err(|e| CliError::usage(format!("bad --seed: {e}"))),
        None => {
            // No seed given: derive one from the OS entropy source.
            Ok(rand::rng().random())
        }
    }
}

fn parse_normalization(flags: &HashMap<String, String>) -> CliResult<Normalization> {
    match flags.get("normalization").map(String::as_str) {
        None | Some("zscore") => Ok(Normalization::zscore_paper()),
        Some("minmax") => Ok(Normalization::min_max_unit()),
        Some("decimal") => Ok(Normalization::DecimalScaling),
        Some("robust") => Ok(Normalization::RobustZScore),
        Some(other) => Err(CliError::usage(format!("unknown normalization {other:?}"))),
    }
}

fn read_csv(path: &Path) -> CliResult<rbt::Dataset> {
    Ok(csv::read_file(path)?)
}

fn write_csv(ds: &rbt::Dataset, path: &Path) -> CliResult<()> {
    Ok(csv::write_file(ds, path)?)
}

fn cmd_methods(args: &[String]) -> CliResult<()> {
    parse_flags(args, &[])?;
    println!("registered release methods:");
    for m in Method::ALL {
        let t = m.default_transform();
        let p = t.properties();
        println!("  {:<16} {}", m.name(), m.description());
        println!("  {:<16}   {p}", "");
    }
    println!("\nselect one with `rbt-cli keygen --method <name>`");
    Ok(())
}

fn cmd_release(args: &[String]) -> CliResult<()> {
    let flags = parse_flags(args, &["keep-ids"])?;
    let input = PathBuf::from(required(&flags, "input")?);
    let output = PathBuf::from(required(&flags, "output")?);
    let key_path = PathBuf::from(required(&flags, "key")?);
    let params_path = PathBuf::from(required(&flags, "params")?);
    let rho = parse_rho(&flags)?;
    let seed = parse_seed(&flags)?;
    let normalization = parse_normalization(&flags)?;

    let data = read_csv(&input)?;
    let pst = PairwiseSecurityThreshold::uniform(rho)
        .map_err(|e| CliError::usage(format!("bad --rho: {e}")))?;
    let pipeline = Pipeline::new(RbtConfig::uniform(pst))
        .with_normalization(normalization)
        .with_id_suppression(!flags.contains_key("keep-ids"));
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let out = pipeline.run(&data, &mut rng)?;

    write_csv(&out.released, &output)?;
    write_file(&key_path, &out.key.to_string())?;
    write_file(&params_path, &out.normalizer.to_text())?;

    println!(
        "released {} rows x {} attributes -> {}",
        out.released.n_rows(),
        out.released.n_cols(),
        output.display()
    );
    for step in out.key.steps() {
        println!(
            "  rotated pair ({}, {}) by {:.4}° (Var {:.4} / {:.4})",
            step.i, step.j, step.theta_degrees, step.achieved_var1, step.achieved_var2
        );
    }
    println!("secret key     -> {}", key_path.display());
    println!("secret params  -> {}", params_path.display());
    println!("seed (keep private): {seed}");
    Ok(())
}

fn cmd_recover(args: &[String]) -> CliResult<()> {
    let flags = parse_flags(args, &[])?;
    let input = PathBuf::from(required(&flags, "input")?);
    let key_path = PathBuf::from(required(&flags, "key")?);
    let params_path = PathBuf::from(required(&flags, "params")?);
    let output = PathBuf::from(required(&flags, "output")?);

    let released = read_csv(&input)?;
    let key = read_file(&key_path)?
        .parse::<TransformationKey>()
        .map_err(CliError::from)?;
    // A params file that fails to parse is a corrupt secret artifact —
    // the same failure family as a corrupt key file (exit 4), not bad
    // input data (which is what its rbt_data parse error would map to).
    let normalizer =
        FittedNormalizer::from_text(&read_file(&params_path)?).map_err(|e| CliError {
            code: 4,
            message: format!("params file {}: {e}", params_path.display()),
        })?;

    let normalized = key.invert(released.matrix())?;
    let raw = normalizer.inverse_transform(&normalized)?;

    let mut recovered = released.clone();
    recovered.replace_matrix(raw)?;
    write_csv(&recovered, &output)?;
    println!(
        "recovered {} rows x {} attributes -> {}",
        recovered.n_rows(),
        recovered.n_cols(),
        output.display()
    );
    Ok(())
}

fn cmd_keygen(args: &[String]) -> CliResult<()> {
    let flags = parse_flags(args, &["keep-ids"])?;
    let input = PathBuf::from(required(&flags, "input")?);
    let key_path = PathBuf::from(required(&flags, "key")?);
    let method = Method::from_name(flags.get("method").map_or("rbt", String::as_str))?;
    let rho = parse_rho(&flags)?;
    let seed = parse_seed(&flags)?;
    let normalization = parse_normalization(&flags)?;
    let suppress_ids = !flags.contains_key("keep-ids");
    let binary = match flags.get("format").map(String::as_str) {
        None | Some("text") => false,
        Some("binary") => true,
        Some(other) => return Err(CliError::usage(format!("unknown key format {other:?}"))),
    };

    let data = read_csv(&input)?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

    if method == Method::Rbt {
        // The RBT path keeps emitting the session record (text or binary),
        // byte-compatible with every existing key file.
        let pst = PairwiseSecurityThreshold::uniform(rho)
            .map_err(|e| CliError::usage(format!("bad --rho: {e}")))?;
        let config = RbtConfig::uniform(pst);
        let pipeline = Pipeline::new(config.clone())
            .with_normalization(normalization)
            .with_id_suppression(suppress_ids);
        let out = pipeline.run(&data, &mut rng)?;

        let session = ReleaseSession::from_pipeline_output(&out)?
            .with_config(config)
            .with_id_suppression(suppress_ids);
        if binary {
            std::fs::write(&key_path, session.to_bytes())
                .map_err(|e| CliError::io(format!("writing {}: {e}", key_path.display())))?;
        } else {
            write_file(&key_path, &session.to_text()?)?;
        }

        if let Some(released_path) = flags.get("released").map(PathBuf::from) {
            write_csv(&out.released, &released_path)?;
            println!(
                "initial release: {} rows -> {}",
                out.released.n_rows(),
                released_path.display()
            );
        }
        println!(
            "session key for {} attributes ({} rotation steps, {} key file) -> {}",
            out.key.n_attributes(),
            out.key.steps().len(),
            if binary { "binary" } else { "text" },
            key_path.display()
        );
    } else {
        if flags.contains_key("format") && !binary {
            return Err(CliError::usage(format!(
                "method {:?} has no text key-file form; use --format binary or omit --format",
                method.name()
            )));
        }
        let mut builder = Release::of(&data)
            .with_method(method)
            .with_id_suppression(suppress_ids);
        // Baselines take no thresholds/normalization; forward the flags
        // only where they mean something so the error message names the
        // actual mistake.
        if method == Method::HybridIsometry {
            let pst = PairwiseSecurityThreshold::uniform(rho)
                .map_err(|e| CliError::usage(format!("bad --rho: {e}")))?;
            builder = builder
                .with_thresholds(pst)
                .with_normalization(normalization);
        } else if flags.contains_key("rho") || flags.contains_key("normalization") {
            return Err(CliError::usage(format!(
                "method {:?} takes no --rho/--normalization (it perturbs raw values); \
                 see `rbt-cli methods`",
                method.name()
            )));
        }
        let fitted = builder.fit(&mut rng)?;
        std::fs::write(&key_path, fitted.to_bytes()?)
            .map_err(|e| CliError::io(format!("writing {}: {e}", key_path.display())))?;
        if let Some(released_path) = flags.get("released").map(PathBuf::from) {
            write_csv(fitted.released(), &released_path)?;
            println!(
                "initial release: {} rows -> {}",
                fitted.released().n_rows(),
                released_path.display()
            );
        }
        println!(
            "fitted {} state for {} attributes ({}) -> {}",
            fitted.method_name(),
            fitted.n_attributes(),
            fitted.properties(),
            key_path.display()
        );
    }
    println!(
        "fitted on {} records; keep the key file private",
        data.n_rows()
    );
    println!("seed (keep private): {seed}");
    Ok(())
}

fn load_fitted(key_path: &Path) -> CliResult<Box<dyn FittedTransform>> {
    let bytes = std::fs::read(key_path)
        .map_err(|e| CliError::io(format!("reading {}: {e}", key_path.display())))?;
    Ok(decode_fitted(&bytes)?)
}

fn cmd_transform(args: &[String]) -> CliResult<()> {
    let flags = parse_flags(args, &[])?;
    let key_path = PathBuf::from(required(&flags, "key")?);
    let input = PathBuf::from(required(&flags, "input")?);
    let output = PathBuf::from(required(&flags, "output")?);

    let mut fitted = load_fitted(&key_path)?;
    let data = read_csv(&input)?;

    // RBT sessions report drift; other methods transform generically.
    if let Some(session) = fitted
        .as_any()
        .downcast_ref::<FittedRbt>()
        .map(FittedRbt::session)
    {
        let mut session = session.clone();
        let batch = session.transform_batch(&data)?;
        write_csv(&batch.released, &output)?;
        println!(
            "transformed {} rows x {} attributes -> {}",
            batch.released.n_rows(),
            batch.released.n_cols(),
            output.display()
        );
        if batch.out_of_range_rows > 0 {
            println!(
                "warning: {} of {} records fall outside the fitted normalization \
                 range — consider re-fitting the session",
                batch.out_of_range_rows,
                data.n_rows()
            );
        } else {
            println!("drift: 0 records outside the fitted range");
        }
    } else {
        let released = fitted.transform_batch(&data)?;
        write_csv(&released, &output)?;
        println!(
            "transformed {} rows x {} attributes ({}) -> {}",
            released.n_rows(),
            released.n_cols(),
            fitted.method_name(),
            output.display()
        );
    }
    Ok(())
}

fn cmd_invert(args: &[String]) -> CliResult<()> {
    let flags = parse_flags(args, &[])?;
    let key_path = PathBuf::from(required(&flags, "key")?);
    let input = PathBuf::from(required(&flags, "input")?);
    let output = PathBuf::from(required(&flags, "output")?);

    let fitted = load_fitted(&key_path)?;
    let data = read_csv(&input)?;
    let recovered = fitted.invert_batch(&data)?;
    write_csv(&recovered, &output)?;
    println!(
        "recovered {} rows x {} attributes -> {}",
        recovered.n_rows(),
        recovered.n_cols(),
        output.display()
    );
    Ok(())
}

fn cmd_inspect_key(args: &[String]) -> CliResult<()> {
    let flags = parse_flags(args, &[])?;
    let key_path = PathBuf::from(required(&flags, "key")?);
    let bytes = std::fs::read(&key_path)
        .map_err(|e| CliError::io(format!("reading {}: {e}", key_path.display())))?;
    // Session key files (binary or text) carry more than the key. Only
    // files that do not *look like* sessions fall through to the legacy
    // bare-key text parser — a corrupted session file must surface its
    // decode error (e.g. a checksum mismatch), not a misleading legacy
    // parse failure.
    let looks_like_session = bytes.starts_with(&rbt::core::codec::MAGIC)
        || std::str::from_utf8(&bytes).is_ok_and(|t| t.trim_start().starts_with("rbt-session"));
    let key: TransformationKey = if looks_like_session {
        let fitted = decode_fitted(&bytes)?;
        let Some(session) = fitted
            .as_any()
            .downcast_ref::<FittedRbt>()
            .map(FittedRbt::session)
        else {
            // A fitted non-RBT method: report its descriptor and stop.
            println!(
                "fitted {} state for {} attributes: {}",
                fitted.method_name(),
                fitted.n_attributes(),
                fitted.properties()
            );
            return Ok(());
        };
        println!(
            "session key file: normalizer for {} columns, drift bounds {}, \
             config {}, id suppression {}",
            session.normalizer().n_cols(),
            if session.drift_bounds().is_some() {
                "attached"
            } else {
                "absent"
            },
            if session.config().is_some() {
                "attached"
            } else {
                "absent"
            },
            if session.suppresses_ids() {
                "on"
            } else {
                "off"
            }
        );
        session.key().clone()
    } else {
        String::from_utf8_lossy(&bytes)
            .parse::<TransformationKey>()
            .map_err(CliError::from)?
    };
    println!(
        "key for {} attributes, {} rotation steps:",
        key.n_attributes(),
        key.steps().len()
    );
    for (t, step) in key.steps().iter().enumerate() {
        println!(
            "  step {t}: pair ({}, {}), θ = {:.6}°, achieved Var = ({:.4}, {:.4})",
            step.i, step.j, step.theta_degrees, step.achieved_var1, step.achieved_var2
        );
    }
    let composite = key.composite_matrix()?;
    println!(
        "composite rotation is orthogonal: {}",
        rbt::linalg::rotation::is_orthogonal(&composite, 1e-9)
    );
    Ok(())
}

fn cmd_audit(args: &[String]) -> CliResult<()> {
    let flags = parse_flags(args, &[])?;
    let original_path = PathBuf::from(required(&flags, "original")?);
    let released_path = PathBuf::from(required(&flags, "released")?);
    let original = read_csv(&original_path)?;
    let released = read_csv(&released_path)?;
    if original.n_rows() != released.n_rows() {
        return Err(RbtError::DimensionMismatch(format!(
            "row count mismatch: {} vs {}",
            original.n_rows(),
            released.n_rows()
        ))
        .into());
    }

    // The release should be an isometric image of the *normalized* original.
    let (_, normalized) = Normalization::zscore_paper().fit_transform(original.matrix())?;
    let drift = rbt::core::isometry::dissimilarity_drift(&normalized, released.matrix());
    println!("distance drift vs z-scored original: {drift:.3e}");
    println!("isometric (tolerance 1e-6): {}", drift < 1e-6);

    println!("per-attribute security level Sec = Var(X - X') / Var(X):");
    for j in 0..original.n_cols().min(released.n_cols()) {
        let sec = rbt::core::security::security_level(
            &normalized.column(j),
            &released.matrix().column(j),
            VarianceMode::Sample,
        )?;
        println!("  {:<16} {sec:.4}", original.columns()[j]);
    }
    Ok(())
}

fn parse_flag_usize(
    flags: &HashMap<String, String>,
    name: &str,
    default: usize,
) -> CliResult<usize> {
    match flags.get(name) {
        Some(v) => v
            .parse()
            .map_err(|e| CliError::usage(format!("bad --{name}: {e}"))),
        None => Ok(default),
    }
}

fn parse_flag_ms(
    flags: &HashMap<String, String>,
    name: &str,
    default_ms: u64,
) -> CliResult<Duration> {
    match flags.get(name) {
        Some(v) => v
            .parse()
            .map(Duration::from_millis)
            .map_err(|e| CliError::usage(format!("bad --{name}: {e}"))),
        None => Ok(Duration::from_millis(default_ms)),
    }
}

fn cmd_serve(args: &[String]) -> CliResult<()> {
    let flags = parse_flags(args, &[])?;
    let keys_dir = PathBuf::from(required(&flags, "keys")?);
    let addr = flags
        .get("addr")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:7533");
    let capacity = parse_flag_usize(&flags, "capacity", 64)?;
    let window = parse_flag_usize(&flags, "window", 8)?;
    let max_conns = parse_flag_usize(&flags, "max-conns", 256)?;
    let read_timeout = parse_flag_ms(&flags, "read-timeout", 60_000)?;
    let drain_timeout = parse_flag_ms(&flags, "drain-timeout", 5_000)?;

    if !keys_dir.is_dir() {
        return Err(CliError::io(format!(
            "key directory {} does not exist",
            keys_dir.display()
        )));
    }

    // The crash-safe key store replays any interrupted writes, then
    // registers every key. A corrupt key file is quarantined (moved to
    // .quarantine/ and logged), never fatal — one torn key must not take
    // down every healthy tenant.
    let store = Arc::new(
        KeyStore::open(&keys_dir)
            .map_err(|e| CliError::io(format!("opening key store {}: {e}", keys_dir.display())))?,
    );
    let replay = store.replay_report();
    if replay.completed + replay.discarded > 0 {
        println!(
            "key store journal replay: {} interrupted writes completed, {} discarded",
            replay.completed, replay.discarded
        );
    }
    let registry = Arc::new(SessionRegistry::new(capacity));
    let report = store
        .load_into(&registry)
        .map_err(|e| CliError::io(format!("loading keys: {e}")))?;

    let config = ServerConfig {
        window,
        max_conns,
        idle_timeout: read_timeout,
        stall_budget: read_timeout,
        drain_deadline: drain_timeout,
        keystore: Some(Arc::clone(&store)),
        ..ServerConfig::default()
    };
    let server = Server::spawn_with(addr, registry, config)
        .map_err(|e| CliError::io(format!("binding {addr}: {e}")))?;
    println!(
        "serving {} tenants on {} ({} quarantined; capacity {capacity} live sessions, \
         window {window} in-flight per connection, max {max_conns} connections)",
        report.loaded,
        server.local_addr(),
        report.quarantined
    );
    // serve is often driven through a pipe (tests, supervisors); make the
    // banner visible before blocking in the accept loop.
    let _ = std::io::stdout().flush();
    server.wait();
    Ok(())
}

// ---------------------------------------------------------------------------
// Federated release: N owners, one joint clustering, over a running server.

impl From<ProtocolError> for CliError {
    fn from(e: ProtocolError) -> Self {
        let code = match &e {
            ProtocolError::Decode(_) => 4,
            ProtocolError::ShapeMismatch(_) => 5,
            ProtocolError::InvalidConfig(_)
            | ProtocolError::UnknownSession(_)
            | ProtocolError::SessionExists(_)
            | ProtocolError::OwnerOutOfRange { .. }
            | ProtocolError::SessionMismatch { .. } => 2,
            _ => 3,
        };
        CliError {
            code,
            message: format!("federation: {e}"),
        }
    }
}

/// A server call failure keeps its server-assigned code family; transport
/// failures land in the codec/wire family (4).
fn from_client_err(e: ClientError) -> CliError {
    let code = match &e {
        ClientError::Server { code, .. } => *code,
        _ => 4,
    };
    CliError {
        code,
        message: format!("server call: {e}"),
    }
}

fn required_u64(flags: &HashMap<String, String>, name: &str) -> CliResult<u64> {
    required(flags, name)?
        .parse()
        .map_err(|e| CliError::usage(format!("bad --{name}: {e}")))
}

/// Encodes a federation config for the `FedOpen` wire body.
fn encode_fed_config(cfg: &FederationConfig) -> Vec<u8> {
    let mut w = rbt::linalg::codec::ByteWriter::new();
    cfg.encode_into(&mut w);
    w.into_bytes()
}

fn cmd_federate(args: &[String]) -> CliResult<()> {
    let Some((verb, rest)) = args.split_first() else {
        return Err(CliError::usage(
            "federate requires a sub-command: coordinate | join | receive",
        ));
    };
    match verb.as_str() {
        "coordinate" => cmd_federate_coordinate(rest),
        "join" => cmd_federate_join(rest),
        "receive" => cmd_federate_receive(rest),
        other => Err(CliError::usage(format!(
            "unknown federate sub-command {other:?} (coordinate | join | receive)"
        ))),
    }
}

fn cmd_federate_coordinate(args: &[String]) -> CliResult<()> {
    let flags = parse_flags(args, &[])?;
    let addr = required(&flags, "addr")?.to_string();
    let session = required_u64(&flags, "session")?;
    let owners = required_u64(&flags, "owners")? as u16;
    let n_cols = required_u64(&flags, "cols")? as usize;
    let rho = parse_rho(&flags)?;
    let seed = parse_seed(&flags)?;
    let normalization = parse_normalization(&flags)?;
    let kmeans_k = parse_flag_usize(&flags, "k", 3)?;
    let kmeans_max_iters = parse_flag_usize(&flags, "max-iters", 128)?;
    let key_policy = match flags.get("key-policy").map(String::as_str) {
        None | Some("shared") => KeyPolicy::Shared,
        Some("per-owner") => KeyPolicy::PerOwner,
        Some(other) => {
            return Err(CliError::usage(format!(
                "unknown key policy {other:?} (shared | per-owner)"
            )))
        }
    };
    let cfg = FederationConfig {
        session,
        n_cols,
        owners,
        normalization,
        rbt: RbtConfig::uniform(PairwiseSecurityThreshold::uniform(rho)?),
        key_policy,
        seed,
        kmeans_k,
        kmeans_max_iters,
    };
    cfg.validate()?;
    let mut client = Client::connect(&addr).map_err(from_client_err)?;
    client
        .fed_open(encode_fed_config(&cfg))
        .map_err(from_client_err)?;
    println!(
        "federated session {session} open on {addr}: {owners} owners x {n_cols} attributes, \
         rho {rho}, seed {seed}"
    );
    println!(
        "each owner now runs: rbt-cli federate join --addr {addr} --session {session} \
         --owner <0..{owners}> --input <csv>"
    );
    println!("then: rbt-cli federate receive --addr {addr} --session {session}");
    Ok(())
}

fn cmd_federate_join(args: &[String]) -> CliResult<()> {
    let flags = parse_flags(args, &[])?;
    let addr = required(&flags, "addr")?.to_string();
    let session = required_u64(&flags, "session")?;
    let owner_id = required_u64(&flags, "owner")? as u16;
    let input = PathBuf::from(required(&flags, "input")?);
    let wait = parse_flag_ms(&flags, "wait-ms", 60_000)?;
    let key_path = flags.get("key").map(PathBuf::from);

    let block = read_csv(&input)?;
    let rows = block.n_rows();
    let mut owner = Owner::new(owner_id, session, block.matrix().clone())?;
    let mut client = Client::connect(&addr).map_err(from_client_err)?;

    // Round-trip polling: deliver whatever the owner produced last turn,
    // feed the drained mailbox back into the state machine, and idle
    // briefly when neither side had anything to say. The budget bounds a
    // session whose other owners never show up.
    let deadline = Instant::now() + wait;
    let mut outbox: Vec<Vec<u8>> = Vec::new();
    while !(owner.is_released() && outbox.is_empty()) {
        if Instant::now() > deadline {
            return Err(CliError::io(format!(
                "federation timed out after {:?} in owner state {} — are all owners joined?",
                wait,
                owner.state_name()
            )));
        }
        let inbound = client
            .fed_exchange(session, owner_id, std::mem::take(&mut outbox))
            .map_err(from_client_err)?;
        if inbound.is_empty() {
            std::thread::sleep(Duration::from_millis(20));
            continue;
        }
        for bytes in inbound {
            let msg = Message::decode(&bytes).map_err(ProtocolError::Decode)?;
            for out in owner.handle(&msg)? {
                debug_assert!(!matches!(out.to, Party::Owner(_)));
                outbox.push(out.msg.encode());
            }
        }
    }

    println!("owner {owner_id} released {rows} rows into session {session}");
    if let Some(key) = owner.key() {
        if let Some(path) = key_path {
            write_file(&path, &key.to_string())?;
            println!("reconstructed transformation key -> {}", path.display());
        } else {
            println!("reconstructed the session transformation key (pass --key to save it)");
        }
    } else if let Some(path) = key_path {
        return Err(CliError::usage(format!(
            "--key {} requested but this key policy keeps no shareable key",
            path.display()
        )));
    }
    Ok(())
}

fn cmd_federate_receive(args: &[String]) -> CliResult<()> {
    let flags = parse_flags(args, &[])?;
    let addr = required(&flags, "addr")?.to_string();
    let session = required_u64(&flags, "session")?;
    let wait = parse_flag_ms(&flags, "wait-ms", 60_000)?;
    let output = flags.get("output").map(PathBuf::from);

    let mut client = Client::connect(&addr).map_err(from_client_err)?;
    let deadline = Instant::now() + wait;
    let summary = loop {
        match client.fed_result(session).map_err(from_client_err)? {
            Some(bytes) => {
                let Message::JointDataset { summary, .. } =
                    Message::decode(&bytes).map_err(ProtocolError::Decode)?
                else {
                    return Err(CliError::io(
                        "server returned a non-JointDataset federation result",
                    ));
                };
                break summary;
            }
            None if Instant::now() > deadline => {
                return Err(CliError::io(format!(
                    "no joint result after {wait:?} — are all owners joined and released?"
                )));
            }
            None => std::thread::sleep(Duration::from_millis(25)),
        }
    };

    let k = summary
        .labels
        .iter()
        .copied()
        .max()
        .map_or(0, |m| m as usize + 1);
    let mut sizes = vec![0usize; k];
    for &l in &summary.labels {
        sizes[l as usize] += 1;
    }
    println!(
        "joint clustering of session {session}: {} rows x {} attributes, {} clusters",
        summary.rows, summary.cols, k
    );
    println!(
        "  inertia {:.6}, {} iterations, converged: {}",
        summary.inertia, summary.iterations, summary.converged
    );
    for (c, size) in sizes.iter().enumerate() {
        println!("  cluster {c}: {size} rows");
    }
    if let Some(path) = output {
        let mut csv_text = String::from("row,cluster\n");
        for (i, l) in summary.labels.iter().enumerate() {
            let _ = writeln!(csv_text, "{i},{l}");
        }
        write_file(&path, &csv_text)?;
        println!("labels -> {}", path.display());
    }
    Ok(())
}
