//! End-to-end benchmark of the `rbt-cli serve` daemon.
//!
//! Run through `perfbench/run.py`, which builds the daemon and this
//! program and then calls:
//!
//! ```text
//! rbt-perfbench --workload <serve-bulk|federate> --seed <n>
//!               --seconds <s> --trace <0|1> --cli <rbt-cli> --work-dir <dir>
//! ```
//!
//! Every run generates its inputs from the seed, launches the daemon on
//! generated key files, drives it over loopback from two connections (one
//! for `federate`), checks every answer bit for bit, and prints a report
//! followed by one JSON line. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` repeats the workload with spans around the benchmark's own
//! calls into each layer and reports the per-layer metrics.

mod daemon;
mod federate;
mod host;
mod replay;
mod serve;
mod stats;
mod trace;

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// End-to-end metrics (`--trace 0`), as declared in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rows_per_s", "rows/s"),
    ("latency_p50_us", "us"),
    ("session_p50_ms", "ms"),
    ("server_cpu_ns_per_row", "ns/row"),
    ("client_cpu_ns_per_row", "ns/row"),
    ("server_peak_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics (`--trace 1`), as declared in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("client.encode_us", "us"),
    ("client.decode_us", "us"),
    ("client.wait_us", "us"),
    ("client.wait_p99_us", "us"),
    ("client.wait_samples", "count"),
    ("client.queue_us", "us"),
    ("client.frame_bytes_per_row", "B/row"),
    ("client.retries", "count"),
    ("client.reconnects", "count"),
    ("wire.crc_us", "us"),
    ("wire.server_decode_us", "us"),
    ("wire.server_encode_us", "us"),
    ("wire.allocs_per_req", "count"),
    ("wire.alloc_bytes_per_req", "B"),
    ("registry.call_us", "us"),
    ("registry.miss_ratio", "ratio"),
    ("registry.miss_us", "us"),
    ("registry.cold_load_s", "s"),
    ("registry.evictions_per_kreq", "count"),
    ("registry.service_p50_us", "us"),
    ("session.transform_us", "us"),
    ("session.invert_us", "us"),
    ("socket.echo_us", "us"),
    ("reactor.residual_us", "us"),
    ("server.ctx_switches_per_req", "count"),
    ("server.threads", "count"),
    ("server.runtime_errors", "count"),
    ("owner.handle_ms", "ms"),
    ("protocol.codec_ms", "ms"),
    ("hub.exchange_ms", "ms"),
    ("hub.exchanges_per_session", "count"),
    ("hub.empty_poll_ratio", "ratio"),
    ("hub.replay_ms", "ms"),
    ("receiver.kmeans_ms", "ms"),
    ("protocol.inprocess_ms", "ms"),
    ("host.steal_ticks", "count"),
    ("trace.overhead_pct", "%"),
];

/// Counts heap allocations while [`count_allocs`] runs its closure.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn note_alloc(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        // SAFETY: `ptr`/`layout` came from `System`; the caller guarantees
        // `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the allocations (count, bytes)
/// made while it ran. Meant for single-threaded replay: allocations by
/// other threads during `f` are counted too.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    );
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (
        out,
        ALLOCS.load(Ordering::Relaxed) - a0,
        ALLOC_BYTES.load(Ordering::Relaxed) - b0,
    )
}

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 2 connections × 8 pipelined 8192×16 requests over 4 tenants.
    ServeBulk,
    /// Back-to-back 4-owner federated sessions over one connection.
    Federate,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve-bulk" => Some(Workload::ServeBulk),
            "federate" => Some(Workload::Federate),
            _ => None,
        }
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeBulk => "serve-bulk",
            Workload::Federate => "federate",
        }
    }
}

/// Parsed command line.
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// The `rbt-cli` executable to launch as the daemon.
    pub cli: PathBuf,
    /// Scratch directory for key files and the span dump.
    pub work_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name, value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let workload = get("workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = get("seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        cli: PathBuf::from(get("cli")?),
        work_dir: PathBuf::from(get("work-dir")?),
    })
}

/// What a run measured: operation counts, metric values by name, and the
/// report lines printed before the JSON result.
#[derive(Default)]
pub struct Outcome {
    /// Operations issued (every one is checked).
    pub attempted: u64,
    /// Operations that failed: typed error, disconnect, retry or wrong bit.
    pub failed: u64,
    /// Metric values by declared name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable report.
    pub report: String,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Appends a report line.
    pub fn line(&mut self, text: impl AsRef<str>) {
        self.report.push_str(text.as_ref());
        self.report.push('\n');
    }
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, with every metric of `declared` and nothing else.
fn result_json(outcome: &Outcome, declared: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, (name, unit)) in declared.iter().enumerate() {
        let value = outcome
            .values
            .get(name)
            .copied()
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rbt-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("rbt-perfbench: creating {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    let fp = host::fingerprint();
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: cpu {:?}, nproc {}, kernel {}, memcpy {:.2} GB/s",
        fp.cpu_model, fp.nproc, fp.kernel, fp.memcpy_gbps
    );
    let result = match args.workload {
        Workload::ServeBulk => serve::run(&args),
        Workload::Federate => federate::run(&args),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rbt-perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    print!("{}", outcome.report);
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    match result_json(&outcome, declared) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("rbt-perfbench: {e}");
            return ExitCode::from(1);
        }
    }
    if outcome.failed > 0 {
        eprintln!(
            "rbt-perfbench: {} of {} operations failed",
            outcome.failed, outcome.attempted
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_emitted_name_is_declared_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(seen.insert(*name), "metric {name} emitted twice");
            let declared = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                BENCHMARK_JSON.contains(&declared),
                "{name} ({unit}) is not declared in BENCHMARK.json"
            );
        }
        // Every workload the program runs is declared, and only those.
        for w in [Workload::ServeBulk, Workload::Federate] {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(BENCHMARK_JSON.contains(&format!("\"name\": \"{}\"", w.name())));
        }
        assert_eq!(BENCHMARK_JSON.matches("\"why\":").count(), 2);
        // And nothing is declared that the program does not emit.
        let declared = BENCHMARK_JSON.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        let line = result_json(&o, END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        // A missing or non-finite metric is an error, never a silent gap.
        o.values.remove("setup_s");
        assert!(result_json(&o, END_TO_END).is_err());
        o.set("setup_s", f64::NAN);
        assert!(result_json(&o, END_TO_END).is_err());
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&argv(
            "--workload federate --seed 7 --seconds 10 --trace 1 --cli x --work-dir w",
        ))
        .unwrap();
        assert_eq!(ok.workload, Workload::Federate);
        assert_eq!(ok.seed, 7);
        assert!(ok.trace);
        assert!(parse_args(&argv(
            "--workload nope --seed 7 --seconds 10 --trace 0 --cli x --work-dir w"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload federate --seed 7 --seconds 10 --trace 2 --cli x --work-dir w"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload federate --seed 7")).is_err());
    }

    #[test]
    fn counting_allocator_counts_only_inside_the_scope() {
        let (v, allocs, bytes) = count_allocs(|| vec![0u8; 4096]);
        assert_eq!(v.len(), 4096);
        assert!(allocs >= 1);
        assert!(bytes >= 4096);
        assert!(!COUNTING.load(Ordering::Relaxed));
    }
}
