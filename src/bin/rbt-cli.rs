//! `rbt-cli` — command-line front end for the privacy-preserving release
//! workflow.
//!
//! ```text
//! rbt-cli methods
//! rbt-cli keygen --input data.csv --key session.rbt [--released r.csv]
//!         [--method rbt] [--rho 0.3] [--seed N]
//!         [--normalization zscore|minmax|decimal|robust] [--keep-ids]
//! rbt-cli transform/invert --key session.rbt --input b.csv --output o.csv
//! rbt-cli inspect-key --key session.rbt
//! rbt-cli audit --original data.csv --released released.csv
//! rbt-cli serve --keys <dir> [--addr host:port] [--capacity N] [--window W]
//!         [--max-conns N] [--read-timeout ms] [--drain-timeout ms]
//! rbt-cli federate coordinate --addr host:port --session N --owners N --cols C
//! rbt-cli federate join --addr host:port --session N --owner I --input b.csv
//!         [--key session.rbt]
//! rbt-cli federate receive --addr host:port --session N [--output labels.csv]
//! ```
//!
//! `keygen` fits any registered method (`rbt-cli methods` lists them) and
//! persists the fitted state as the owner's one secret key file; with
//! `--released` it also writes the shareable CSV, which makes `keygen
//! --released` then `invert` the one-shot Figure-1 workflow.
//! `transform`/`invert` apply/undo the key file batch by batch. `audit`
//! verifies the isometry and reports per-attribute security levels.
//!
//! Every command names the flags it reads: an unknown flag, or one given
//! twice, is a usage error. Failures exit with a distinct code per family
//! (see [`RbtError::exit_code`]): 2 usage/config, 3 input data, 4 corrupt
//! key files, 5 shape mismatches, 6 infeasible thresholds, 7 method
//! capability.

use rand::SeedableRng;
use rbt::api::{decode_fitted, FittedTransform, Method, RbtError};
use rbt::core::{RbtConfig, ReleaseSession};
use rbt::data::{csv, Normalization};
use rbt::linalg::codec::ByteWriter;
use rbt::prelude::Release;
use rbt::protocol::{FederationConfig, KeyPolicy, Message, Owner, Party, ProtocolError};
use rbt::server::{
    Client, ClientError, KeyStore, Server, ServerConfig, ServerError, SessionRegistry,
};
use rbt::{PairwiseSecurityThreshold, VarianceMode};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write;
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

    /// A report that could not be written to stdout. A reader that went
    /// away (a closed pipe, as `| head` leaves) is no failure of the
    /// command: it stops quietly with status 0 (code 0 here, see `main`).
    /// Any other write failure is exit 1.
    fn stdout(e: std::io::Error) -> Self {
        CliError {
            code: if e.kind() == std::io::ErrorKind::BrokenPipe {
                0
            } else {
                1
            },
            message: format!("writing to stdout: {e}"),
        }
    }
}

/// `writeln!` to a command's report stream, returning
/// [`CliError::stdout`] from the command when the write fails.
macro_rules! report {
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).map_err(CliError::stdout)?
    };
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
    // Every report goes through one locked stdout whose write errors
    // reach the command, instead of `println!`, which panics on them.
    let mut out = std::io::stdout().lock();
    let result = match command.as_str() {
        "methods" => cmd_methods(rest, &mut out),
        "keygen" => cmd_keygen(rest, &mut out),
        "transform" => cmd_transform(rest, &mut out),
        "invert" => cmd_invert(rest, &mut out),
        "inspect-key" => cmd_inspect_key(rest, &mut out),
        "audit" => cmd_audit(rest, &mut out),
        "serve" => cmd_serve(rest, &mut out),
        "federate" => cmd_federate(rest, &mut out),
        "help" | "--help" | "-h" => writeln!(out, "{USAGE}").map_err(CliError::stdout),
        other => Err(CliError::usage(format!(
            "unknown command {other:?}\n{USAGE}"
        ))),
    }
    .and_then(|()| out.flush().map_err(CliError::stdout));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // Stdout's reader went away: stop quietly.
        Err(e) if e.code == 0 => ExitCode::SUCCESS,
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

Fitted releases (any method; one secret key file, batch after batch;
keygen --released then invert is the one-shot Figure-1 workflow):
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
          --input <csv> [--key <file to save the owner's session key file>]
          [--wait-ms <poll budget, default 60000>]
  rbt-cli federate receive --addr <host:port> --session <u64>
          [--output <labels csv>] [--wait-ms <poll budget, default 60000>]

Exit codes: 0 ok · 2 usage/config · 3 input data · 4 corrupt key file ·
5 shape mismatch · 6 infeasible threshold · 7 method capability · 1 other.
A closed stdout (a reader that went away, as with `| head`) stops a
command quietly with status 0.";

/// Minimal `--flag value` / `--switch` parser over the value flags and
/// switches one command reads. Any other flag, and any flag given twice,
/// is a usage error: a mistyped option must not fall back to its default.
fn parse_flags(
    args: &[String],
    values: &[&str],
    switches: &[&str],
) -> CliResult<HashMap<String, String>> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(CliError::usage(format!("unexpected argument {arg:?}")));
        };
        let value = if switches.contains(&name) {
            "true".to_string()
        } else if values.contains(&name) {
            it.next()
                .ok_or_else(|| CliError::usage(format!("--{name} requires a value")))?
                .clone()
        } else {
            return Err(CliError::usage(format!("unknown flag --{name}")));
        };
        if out.insert(name.to_string(), value).is_some() {
            return Err(CliError::usage(format!("flag --{name} given twice")));
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

fn cmd_methods(args: &[String], out: &mut dyn Write) -> CliResult<()> {
    parse_flags(args, &[], &[])?;
    report!(out, "registered release methods:");
    for m in Method::ALL {
        let t = m.default_transform();
        let p = t.properties();
        report!(out, "  {:<16} {}", m.name(), m.description());
        report!(out, "  {:<16}   {p}", "");
    }
    report!(out, "\nselect one with `rbt-cli keygen --method <name>`");
    Ok(())
}

fn cmd_keygen(args: &[String], out: &mut dyn Write) -> CliResult<()> {
    let values = [
        "input",
        "key",
        "method",
        "released",
        "rho",
        "seed",
        "normalization",
        "format",
    ];
    let flags = parse_flags(args, &values, &["keep-ids"])?;
    let input = PathBuf::from(required(&flags, "input")?);
    let key_path = PathBuf::from(required(&flags, "key")?);
    let method = Method::from_name(flags.get("method").map_or("rbt", String::as_str))?;
    let seed = parse_seed(&flags)?;
    let format = flags.get("format").map(String::as_str);
    if let Some(other) = format.filter(|f| !matches!(*f, "text" | "binary")) {
        return Err(CliError::usage(format!("unknown key format {other:?}")));
    }

    let data = read_csv(&input)?;
    // Only the knobs given on the command line reach the builder, so a
    // method that cannot take one (a baseline's --rho) is refused by name.
    let mut builder = Release::of(&data)
        .with_method(method)
        .with_id_suppression(!flags.contains_key("keep-ids"));
    if flags.contains_key("rho") {
        let pst = PairwiseSecurityThreshold::uniform(parse_rho(&flags)?)
            .map_err(|e| CliError::usage(format!("bad --rho: {e}")))?;
        builder = builder.with_thresholds(pst);
    }
    if flags.contains_key("normalization") {
        builder = builder.with_normalization(parse_normalization(&flags)?);
    }
    let fitted = builder.fit(&mut rand::rngs::StdRng::seed_from_u64(seed))?;

    // RBT sessions default to the checksummed text form; every other
    // state has only the binary container.
    let (key_bytes, format) = match (format, fitted.session()) {
        (None | Some("text"), Some(session)) => (session.to_text().into_bytes(), "text"),
        (Some("text"), None) => {
            return Err(CliError::usage(format!(
                "method {:?} has no text key-file form; use --format binary or omit --format",
                method.name()
            )))
        }
        _ => (fitted.to_bytes()?, "binary"),
    };
    std::fs::write(&key_path, key_bytes)
        .map_err(|e| CliError::io(format!("writing {}: {e}", key_path.display())))?;
    if let Some(released_path) = flags.get("released").map(PathBuf::from) {
        write_csv(&fitted.released, &released_path)?;
        report!(
            out,
            "initial release: {} rows -> {}",
            fitted.released.n_rows(),
            released_path.display()
        );
    }
    report!(
        out,
        "session key for {} attributes ({}: {}; {format} key file) -> {}",
        fitted.n_attributes(),
        fitted.method_name(),
        fitted.properties(),
        key_path.display()
    );
    report!(
        out,
        "fitted on {} records; keep the key file private",
        data.n_rows()
    );
    report!(out, "seed (keep private): {seed}");
    Ok(())
}

fn load_fitted(key_path: &Path) -> CliResult<Box<dyn FittedTransform>> {
    let bytes = std::fs::read(key_path)
        .map_err(|e| CliError::io(format!("reading {}: {e}", key_path.display())))?;
    Ok(decode_fitted(&bytes)?)
}

/// The flags `transform` and `invert` read.
const BATCH_FLAGS: [&str; 3] = ["key", "input", "output"];

fn cmd_transform(args: &[String], out: &mut dyn Write) -> CliResult<()> {
    let flags = parse_flags(args, &BATCH_FLAGS, &[])?;
    let key_path = PathBuf::from(required(&flags, "key")?);
    let input = PathBuf::from(required(&flags, "input")?);
    let output = PathBuf::from(required(&flags, "output")?);

    let fitted = load_fitted(&key_path)?;
    let data = read_csv(&input)?;
    let batch = fitted.transform_batch(&data)?;
    write_csv(&batch.released, &output)?;
    report!(
        out,
        "transformed {} rows x {} attributes ({}) -> {}",
        batch.released.n_rows(),
        batch.released.n_cols(),
        fitted.method_name(),
        output.display()
    );
    if batch.out_of_range_rows > 0 {
        report!(
            out,
            "warning: {} of {} records fall outside the fitted normalization \
             range — consider re-fitting the session",
            batch.out_of_range_rows,
            data.n_rows()
        );
    } else {
        report!(out, "drift: 0 records outside the fitted range");
    }
    Ok(())
}

fn cmd_invert(args: &[String], out: &mut dyn Write) -> CliResult<()> {
    let flags = parse_flags(args, &BATCH_FLAGS, &[])?;
    let key_path = PathBuf::from(required(&flags, "key")?);
    let input = PathBuf::from(required(&flags, "input")?);
    let output = PathBuf::from(required(&flags, "output")?);

    let fitted = load_fitted(&key_path)?;
    let data = read_csv(&input)?;
    let recovered = fitted.invert_batch(&data)?;
    write_csv(&recovered, &output)?;
    report!(
        out,
        "recovered {} rows x {} attributes -> {}",
        recovered.n_rows(),
        recovered.n_cols(),
        output.display()
    );
    Ok(())
}

fn cmd_inspect_key(args: &[String], out: &mut dyn Write) -> CliResult<()> {
    let flags = parse_flags(args, &["key"], &[])?;
    let fitted = load_fitted(&PathBuf::from(required(&flags, "key")?))?;
    let Some(session) = fitted.session() else {
        // A fitted non-RBT method: report its descriptor and stop.
        report!(
            out,
            "fitted {} state for {} attributes: {}",
            fitted.method_name(),
            fitted.n_attributes(),
            fitted.properties()
        );
        return Ok(());
    };
    let attached = |present: bool| if present { "attached" } else { "absent" };
    report!(
        out,
        "session key file: normalizer for {} columns, drift bounds {}, \
         config {}, id suppression {}",
        session.normalizer().n_cols(),
        attached(session.drift_bounds().is_some()),
        attached(session.config().is_some()),
        if session.suppresses_ids() {
            "on"
        } else {
            "off"
        }
    );
    let key = session.key();
    report!(
        out,
        "key for {} attributes, {} rotation steps:",
        key.n_attributes(),
        key.steps().len()
    );
    for (t, step) in key.steps().iter().enumerate() {
        report!(
            out,
            "  step {t}: pair ({}, {}), θ = {:.6}°, achieved Var = ({:.4}, {:.4})",
            step.i,
            step.j,
            step.theta_degrees,
            step.achieved_var1,
            step.achieved_var2
        );
    }
    let composite = key.composite_matrix()?;
    report!(
        out,
        "composite rotation is orthogonal: {}",
        rbt::linalg::rotation::is_orthogonal(&composite, 1e-9)
    );
    Ok(())
}

fn cmd_audit(args: &[String], out: &mut dyn Write) -> CliResult<()> {
    let flags = parse_flags(args, &["original", "released"], &[])?;
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
    report!(out, "distance drift vs z-scored original: {drift:.3e}");
    report!(out, "isometric (tolerance 1e-6): {}", drift < 1e-6);

    report!(
        out,
        "per-attribute security level Sec = Var(X - X') / Var(X):"
    );
    for j in 0..original.n_cols().min(released.n_cols()) {
        let sec = rbt::core::security::security_level(
            &normalized.column(j),
            &released.matrix().column(j),
            VarianceMode::Sample,
        )?;
        report!(out, "  {:<16} {sec:.4}", original.columns()[j]);
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

fn cmd_serve(args: &[String], out: &mut dyn Write) -> CliResult<()> {
    let values = [
        "keys",
        "addr",
        "capacity",
        "window",
        "max-conns",
        "read-timeout",
        "drain-timeout",
    ];
    let flags = parse_flags(args, &values, &[])?;
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
        report!(
            out,
            "key store journal replay: {} interrupted writes completed, {} discarded",
            replay.completed,
            replay.discarded
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
    report!(
        out,
        "serving {} tenants on {} ({} quarantined; capacity {capacity} live sessions, \
         window {window} in-flight per connection, max {max_conns} connections)",
        report.loaded,
        server.local_addr(),
        report.quarantined
    );
    // serve is often driven through a pipe (tests, supervisors); make the
    // banner visible before blocking in the accept loop.
    out.flush().map_err(CliError::stdout)?;
    server.wait();
    Ok(())
}

// ---------------------------------------------------------------------------
// Federated release: N owners, one joint clustering, over a running server.

impl From<ProtocolError> for CliError {
    fn from(e: ProtocolError) -> Self {
        CliError {
            code: e.code(),
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

/// A required `u16` flag: a value out of range is a usage error naming the
/// flag and the value, not a silent wrap.
fn required_u16(flags: &HashMap<String, String>, name: &str) -> CliResult<u16> {
    let value = required(flags, name)?;
    value
        .parse()
        .map_err(|e| CliError::usage(format!("bad --{name} {value:?}: {e}")))
}

fn cmd_federate(args: &[String], out: &mut dyn Write) -> CliResult<()> {
    let Some((verb, rest)) = args.split_first() else {
        return Err(CliError::usage(
            "federate requires a sub-command: coordinate | join | receive",
        ));
    };
    match verb.as_str() {
        "coordinate" => cmd_federate_coordinate(rest, out),
        "join" => cmd_federate_join(rest, out),
        "receive" => cmd_federate_receive(rest, out),
        other => Err(CliError::usage(format!(
            "unknown federate sub-command {other:?} (coordinate | join | receive)"
        ))),
    }
}

fn cmd_federate_coordinate(args: &[String], out: &mut dyn Write) -> CliResult<()> {
    let values = [
        "addr",
        "session",
        "owners",
        "cols",
        "rho",
        "seed",
        "normalization",
        "k",
        "max-iters",
        "key-policy",
    ];
    let flags = parse_flags(args, &values, &[])?;
    let addr = required(&flags, "addr")?.to_string();
    let session = required_u64(&flags, "session")?;
    let owners = required_u16(&flags, "owners")?;
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
        .fed_open(ByteWriter::encode_with(|w| cfg.encode_into(w)))
        .map_err(from_client_err)?;
    report!(
        out,
        "federated session {session} open on {addr}: {owners} owners x {n_cols} attributes, \
         rho {rho}, seed {seed}"
    );
    report!(
        out,
        "each owner now runs: rbt-cli federate join --addr {addr} --session {session} \
         --owner <0..{owners}> --input <csv>"
    );
    report!(
        out,
        "then: rbt-cli federate receive --addr {addr} --session {session}"
    );
    Ok(())
}

fn cmd_federate_join(args: &[String], out: &mut dyn Write) -> CliResult<()> {
    let values = ["addr", "session", "owner", "input", "wait-ms", "key"];
    let flags = parse_flags(args, &values, &[])?;
    let addr = required(&flags, "addr")?.to_string();
    let session = required_u64(&flags, "session")?;
    let owner_id = required_u16(&flags, "owner")?;
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

    report!(
        out,
        "owner {owner_id} released {rows} rows into session {session}"
    );
    let Some(path) = key_path else {
        report!(
            out,
            "reconstructed this owner's key (pass --key to save its session key file)"
        );
        return Ok(());
    };
    let (Some(key), Some(normalizer)) = (owner.key(), owner.normalizer()) else {
        return Err(CliError::usage(format!(
            "--key {} requested but this owner holds no key",
            path.display()
        )));
    };
    // The owner's key and the shared normalizer, in keygen's text form. No
    // owner sees the pooled normalized rows, so there are no drift bounds;
    // a session needs no config to transform or invert.
    let session_key = ReleaseSession::new(key.clone(), normalizer.clone())?;
    write_file(&path, &session_key.to_text())?;
    report!(out, "session key file -> {}", path.display());
    Ok(())
}

fn cmd_federate_receive(args: &[String], out: &mut dyn Write) -> CliResult<()> {
    let flags = parse_flags(args, &["addr", "session", "wait-ms", "output"], &[])?;
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
    report!(
        out,
        "joint clustering of session {session}: {} rows x {} attributes, {} clusters",
        summary.rows,
        summary.cols,
        k
    );
    report!(
        out,
        "  inertia {:.6}, {} iterations, converged: {}",
        summary.inertia,
        summary.iterations,
        summary.converged
    );
    for (c, size) in sizes.iter().enumerate() {
        report!(out, "  cluster {c}: {size} rows");
    }
    if let Some(path) = output {
        let mut csv_text = String::from("row,cluster\n");
        for (i, l) in summary.labels.iter().enumerate() {
            let _ = writeln!(csv_text, "{i},{l}");
        }
        write_file(&path, &csv_text)?;
        report!(out, "labels -> {}", path.display());
    }
    Ok(())
}
