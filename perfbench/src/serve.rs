//! The `serve-bulk` workload: 4 resident tenants, 1 MiB frames, mostly
//! `Transform` with a fixed share of `Invert` and `LoadKey` requests.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rbt::api::{decode_fitted, FittedRbt, PrivacyTransform, RbtMethod};
use rbt::core::{PairwiseSecurityThreshold, RbtConfig, ReleaseSession};
use rbt::data::Dataset;
use rbt::linalg::Matrix;
use rbt::server::wire::{self, Request, Response};
use rbt::server::{Client, KeyStore, SessionRegistry};

use crate::daemon::{Daemon, ScratchDir};
use crate::host::{mark, Mark};
use crate::replay::{us, with_replayer, Rungs};
use crate::stats::{mean, median, percentile, Ratio};
use crate::trace::{self, Span, Tracer};
use crate::{host, Args, Outcome};

/// Connections driving the daemon (at most `nproc` = 2 load threads).
pub const CONNS: usize = 2;
/// Requests each connection keeps in flight: the daemon's default window.
pub const DEPTH: usize = 8;
/// Daemon launches per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Untimed load before the window, so the host's wake-up latency settles.
pub const WARMUP_S: f64 = 2.0;
/// Answers per serving "session" (one client's job) for `session_p50_ms`.
pub const SESSION_REQUESTS: usize = 16;
/// The daemon's default live-session capacity (`serve --capacity`).
pub const CAPACITY: usize = 64;
/// Security threshold of every tenant key.
const RHO: f64 = 0.05;
/// Every `INVERT_EVERY`-th request of a connection inverts its tenant's
/// release (about 11%)…
const INVERT_EVERY: u64 = 9;
/// …and every `LOAD_EVERY`-th re-sends the tenant's key bytes (about 3%).
/// Both are odd, so each kind reaches both of a connection's tenants.
const LOAD_EVERY: u64 = 31;
/// Requests replayed in-process by the traced run.
const REPLAY_CAP: usize = 48;

/// Tenants and batch shape of a serving run.
struct Shape {
    tenants: usize,
    rows: usize,
    cols: usize,
    fit_rows: usize,
}

const BULK: Shape = Shape {
    tenants: 4,
    rows: 8192,
    cols: 16,
    fit_rows: 256,
};

/// A stable 64-bit mix of a seed and two indices.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn random_dataset(rng: &mut StdRng, rows: usize, cols: usize, spread: f64) -> Dataset {
    let data: Vec<f64> = (0..rows * cols)
        .map(|_| rng.random::<f64>() * spread - spread / 2.0)
        .collect();
    Dataset::new(
        Matrix::from_vec(rows, cols, data).expect("rows × cols values"),
        (0..cols).map(|j| format!("attr{j}")).collect(),
    )
    .expect("one name per column")
}

/// Request kinds of the serving mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Release a batch.
    Transform,
    /// Recover an earlier release.
    Invert,
    /// Re-send the tenant's own key bytes.
    LoadKey,
}

/// One tenant: its key, its prebuilt requests, and the answers the
/// daemon must return, computed from the same key bytes beforehand.
pub struct Case {
    tenant: String,
    key: Vec<u8>,
    transform: Request,
    invert: Request,
    load: Request,
    released: Dataset,
    drift: u64,
    recovered: Dataset,
    rows: u64,
}

fn session_of(key: &[u8]) -> Result<ReleaseSession, String> {
    let fitted = decode_fitted(key).map_err(|e| format!("decoding a generated key: {e}"))?;
    fitted
        .as_any()
        .downcast_ref::<FittedRbt>()
        .map(|f| f.session().clone())
        .ok_or_else(|| "generated key is not an RBT session".to_string())
}

fn bits_equal(a: &Dataset, b: &Dataset) -> bool {
    let (x, y) = (a.matrix().as_slice(), b.matrix().as_slice());
    a.n_rows() == b.n_rows()
        && a.columns() == b.columns()
        && a.ids() == b.ids()
        && x.len() == y.len()
        && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
}

impl Case {
    fn request(&self, kind: Kind) -> &Request {
        match kind {
            Kind::Transform => &self.transform,
            Kind::Invert => &self.invert,
            Kind::LoadKey => &self.load,
        }
    }

    /// Rows the answer carries (0 for a key reload).
    fn rows(&self, kind: Kind) -> u64 {
        match kind {
            Kind::LoadKey => 0,
            _ => self.rows,
        }
    }

    /// Whether `resp` is exactly the expected answer.
    fn verify(&self, kind: Kind, resp: &Response) -> bool {
        match (kind, resp) {
            (
                Kind::Transform,
                Response::Transformed {
                    released,
                    out_of_range_rows,
                },
            ) => *out_of_range_rows == self.drift && bits_equal(released, &self.released),
            (Kind::Invert, Response::Inverted { recovered }) => {
                bits_equal(recovered, &self.recovered)
            }
            (
                Kind::LoadKey,
                Response::Loaded {
                    method,
                    n_attributes,
                },
            ) => method == "rbt" && *n_attributes == self.released.n_cols() as u64,
            _ => false,
        }
    }
}

/// Fits one RBT key per tenant from the seed and precomputes every
/// expected answer with a `ReleaseSession` decoded from the key bytes.
fn build_cases(s: &Shape, seed: u64) -> Result<Vec<Case>, String> {
    let threshold = PairwiseSecurityThreshold::uniform(RHO).map_err(|e| e.to_string())?;
    let method = RbtMethod::new(RbtConfig::uniform(threshold));
    let mut cases = Vec::with_capacity(s.tenants);
    for t in 0..s.tenants {
        let tenant = format!("t{t:04}");
        let mut rng = StdRng::seed_from_u64(mix(seed, t as u64, 1));
        let fit_data = random_dataset(&mut rng, s.fit_rows, s.cols, 100.0);
        // A random draw can make a pairwise threshold infeasible; retry
        // with further seeds, still determined by the run's seed.
        let fitted = (0..20)
            .find_map(|attempt| {
                let mut key_rng = StdRng::seed_from_u64(mix(seed, t as u64, 100 + attempt));
                method.fit(&fit_data, &mut key_rng).ok()
            })
            .ok_or_else(|| format!("tenant {tenant}: no feasible key in 20 draws"))?;
        let key = fitted.fitted.to_bytes().map_err(|e| e.to_string())?;
        // Batches are drawn wider than the fitting data, so some rows
        // drift out of the fitted range and the drift count is checked.
        let batch = random_dataset(&mut rng, s.rows, s.cols, 130.0);
        let mut session = session_of(&key)?;
        let out = session.transform_batch(&batch).map_err(|e| e.to_string())?;
        let recovered = session
            .invert_batch(&out.released)
            .map_err(|e| e.to_string())?;
        cases.push(Case {
            transform: Request::Transform {
                tenant: tenant.clone(),
                batch,
            },
            invert: Request::Invert {
                tenant: tenant.clone(),
                batch: out.released.clone(),
            },
            load: Request::LoadKey {
                tenant: tenant.clone(),
                key_bytes: key.clone(),
            },
            tenant,
            key,
            released: out.released,
            drift: out.out_of_range_rows as u64,
            recovered,
            rows: s.rows as u64,
        });
    }
    Ok(cases)
}

/// The `i`-th request (from 0) of connection `c`: the connection's
/// tenants in round robin, every `LOAD_EVERY`-th a `LoadKey`, every
/// `INVERT_EVERY`-th an `Invert`, the rest `Transform`.
fn op(c: usize, i: u64, tenants: usize) -> (usize, Kind) {
    let tenant = (c + i as usize * CONNS) % tenants;
    let kind = if (i + 1).is_multiple_of(LOAD_EVERY) {
        Kind::LoadKey
    } else if (i + 1).is_multiple_of(INVERT_EVERY) {
        Kind::Invert
    } else {
        Kind::Transform
    };
    (tenant, kind)
}

/// One answered request, timestamps in ns since the run's epoch.
#[derive(Clone, Copy)]
struct Sample {
    sent_ns: u64,
    recv_ns: u64,
    rows: u64,
}

/// One answered request of the traced phase.
#[derive(Clone, Copy)]
struct Traced {
    tenant: usize,
    kind: Kind,
    written_ns: u64,
    read_ns: u64,
    encode_ns: u64,
    decode_ns: u64,
    req_bytes: u64,
    resp_bytes: u64,
    rows: u64,
}

/// Shared state of the load threads.
struct Ctx<'a> {
    cases: &'a [Case],
    epoch: Instant,
    stop: AtomicBool,
    abort: AtomicBool,
    tracing: AtomicBool,
}

impl Ctx<'_> {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn halted(&self) -> bool {
        self.stop.load(Ordering::Relaxed) || self.abort.load(Ordering::Relaxed)
    }
}

/// What one connection did.
#[derive(Default)]
struct ConnLog {
    samples: Vec<Sample>,
    traced: Vec<Traced>,
    spans: Vec<Span>,
    attempted: u64,
    failed: u64,
    error: Option<String>,
    retries: u64,
    reconnects: u64,
}

struct InFlight {
    id: u64,
    tenant: usize,
    kind: Kind,
    sent_ns: u64,
    /// Traced requests: root span, write-end time, encode time, bytes.
    traced: Option<(trace::Open, u64, u64, u64)>,
}

/// Reads one whole frame's bytes without decoding them.
pub fn read_raw_frame(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut buf = vec![0u8; wire::HEADER_LEN];
    stream.read_exact(&mut buf)?;
    let body = u32::from_le_bytes([buf[7], buf[8], buf[9], buf[10]]);
    if body > wire::MAX_BODY_LEN {
        return Err(std::io::Error::other(format!(
            "declared body {body} too long"
        )));
    }
    buf.resize(wire::HEADER_LEN + body as usize + wire::TRAILER_LEN, 0);
    stream.read_exact(&mut buf[wire::HEADER_LEN..])?;
    Ok(buf)
}

/// Drives one connection: keeps `DEPTH` requests in flight, checks every
/// answer against the precomputed one, and stops when `next` runs dry or
/// the run is halted. Requests sent while `ctx.tracing` is set take the
/// traced path, whose steps are timed one by one.
fn drive(
    addr: SocketAddr,
    lane: u64,
    ctx: &Ctx<'_>,
    next: &mut dyn FnMut() -> Option<(usize, Kind)>,
) -> ConnLog {
    let mut log = ConnLog::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.failed = 1;
            log.attempted = 1;
            log.error = Some(format!("connect: {e}"));
            ctx.abort.store(true, Ordering::Relaxed);
            return log;
        }
    };
    let mut tracer = Tracer::new(ctx.epoch, lane);
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(DEPTH);
    // `Client::send` numbers its requests 1, 2, …; traced requests carry
    // ids from a disjoint range.
    let mut client_ids = 0u64;
    let mut traced_ids = 1u64 << 40;
    let mut exhausted = false;
    let result: Result<(), String> = (|| loop {
        while !exhausted && inflight.len() < DEPTH && !ctx.halted() {
            let Some((tenant, kind)) = next() else {
                exhausted = true;
                break;
            };
            let req = ctx.cases[tenant].request(kind);
            let sent_ns = ctx.now_ns();
            log.attempted += 1;
            if ctx.tracing.load(Ordering::Relaxed) {
                traced_ids += 1;
                let id = traced_ids;
                let rid = (lane << 48) | id;
                let root = tracer.open_at("client.request", rid, 0, sent_ns);
                let bytes = wire::encode_frame(&req.to_frame().with_request_id(id));
                let encoded = tracer.now_ns();
                tracer.record("client.encode", rid, root.id(), sent_ns, encoded);
                client
                    .stream_mut()
                    .write_all(&bytes)
                    .map_err(|e| format!("write: {e}"))?;
                let written = tracer.now_ns();
                tracer.record("client.write", rid, root.id(), encoded, written);
                inflight.push_back(InFlight {
                    id,
                    tenant,
                    kind,
                    sent_ns,
                    traced: Some((root, written, encoded - sent_ns, bytes.len() as u64)),
                });
            } else {
                client_ids += 1;
                client.send(req).map_err(|e| format!("send: {e}"))?;
                inflight.push_back(InFlight {
                    id: client_ids,
                    tenant,
                    kind,
                    sent_ns,
                    traced: None,
                });
            }
        }
        let Some(f) = inflight.pop_front() else {
            return Ok(());
        };
        let case = &ctx.cases[f.tenant];
        let rows = case.rows(f.kind);
        match f.traced {
            None => {
                let frame = wire::read_frame(client.stream_mut())
                    .map_err(|e| format!("read: {e}"))?
                    .ok_or("daemon closed the connection")?;
                if frame.request_id != f.id {
                    return Err(format!(
                        "answer for id {} arrived for {}",
                        frame.request_id, f.id
                    ));
                }
                let resp = Response::from_frame(&frame).map_err(|e| format!("decode: {e}"))?;
                if !case.verify(f.kind, &resp) {
                    return Err(format!(
                        "wrong answer for {} {:?} (a {:?} response)",
                        case.tenant,
                        f.kind,
                        resp.opcode()
                    ));
                }
                log.samples.push(Sample {
                    sent_ns: f.sent_ns,
                    recv_ns: ctx.now_ns(),
                    rows,
                });
            }
            Some((root, written, encode_ns, req_bytes)) => {
                let rid = (lane << 48) | f.id;
                let raw = read_raw_frame(client.stream_mut()).map_err(|e| format!("read: {e}"))?;
                let read = tracer.now_ns();
                tracer.record("client.wait", rid, root.id(), written, read);
                let frame = wire::decode_frame(&raw).map_err(|e| format!("decode: {e}"))?;
                let resp = Response::from_frame(&frame).map_err(|e| format!("decode: {e}"))?;
                let decoded = tracer.now_ns();
                tracer.record("client.decode", rid, root.id(), read, decoded);
                if frame.request_id != f.id || !case.verify(f.kind, &resp) {
                    return Err(format!(
                        "wrong traced answer for {} {:?}",
                        case.tenant, f.kind
                    ));
                }
                let verified = tracer.now_ns();
                tracer.record("client.verify", rid, root.id(), decoded, verified);
                tracer.close_at(root, verified);
                log.samples.push(Sample {
                    sent_ns: f.sent_ns,
                    recv_ns: verified,
                    rows,
                });
                log.traced.push(Traced {
                    tenant: f.tenant,
                    kind: f.kind,
                    written_ns: written,
                    read_ns: read,
                    encode_ns,
                    decode_ns: decoded - read,
                    req_bytes,
                    resp_bytes: raw.len() as u64,
                    rows,
                });
            }
        }
    })();
    if let Err(e) = result {
        // The failed request and everything still in flight are lost.
        log.failed += 1 + inflight.len() as u64;
        log.error = Some(e);
        ctx.abort.store(true, Ordering::Relaxed);
    }
    let m = client.metrics();
    log.retries = m.retries;
    log.reconnects = m.reconnects.saturating_sub(1);
    if log.retries > 0 {
        log.failed += log.retries;
        log.error
            .get_or_insert_with(|| "the client retried".to_string());
    }
    log.spans = tracer.into_spans();
    log
}

/// Sleeps `secs`, waking early if the run aborted.
fn sleep_unless_aborted(ctx: &Ctx<'_>, secs: f64) {
    let until = Instant::now() + Duration::from_secs_f64(secs);
    while Instant::now() < until && !ctx.abort.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(20).min(until - Instant::now()));
    }
}

/// Sends every tenant one `Transform`, split across the connections: the
/// warm-up pass that ends set-up.
fn warm_pass(addr: SocketAddr, ctx: &Ctx<'_>) -> Vec<ConnLog> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                s.spawn(move || {
                    let mut t = c;
                    let n = ctx.cases.len();
                    drive(addr, c as u64 + 1, ctx, &mut || {
                        let op = (t < n).then_some((t, Kind::Transform));
                        t += CONNS;
                        op
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread panicked"))
            .collect()
    })
}

/// The loaded phase: warm-up, then the timed window (split in an untraced
/// and a traced half when tracing). Returns the connection logs and the
/// window edges.
fn load_phase(
    addr: SocketAddr,
    pid: u32,
    ctx: &Ctx<'_>,
    window_s: f64,
    traced: bool,
) -> (Vec<ConnLog>, Vec<Mark>) {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                s.spawn(move || {
                    let mut i = 0;
                    drive(addr, c as u64 + 1, ctx, &mut || {
                        i += 1;
                        Some(op(c, i - 1, ctx.cases.len()))
                    })
                })
            })
            .collect();
        sleep_unless_aborted(ctx, WARMUP_S);
        // One mark per sub-window; a traced run flips to the traced path
        // halfway through.
        let n = subwindows(window_s);
        let mut marks = vec![mark(ctx.epoch, pid)];
        for i in 0..n {
            if traced && i == n / 2 {
                ctx.tracing.store(true, Ordering::Relaxed);
            }
            sleep_unless_aborted(ctx, window_s / n as f64);
            marks.push(mark(ctx.epoch, pid));
        }
        ctx.stop.store(true, Ordering::Relaxed);
        let logs = handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect();
        (logs, marks)
    })
}

/// Sub-windows of about a second each (at least 2).
pub fn subwindows(window_s: f64) -> usize {
    (window_s.round() as usize).max(2)
}

/// Steal ticks and thousands of rows per second in each sub-window
/// `marks[i]..marks[i+1]`, for the host record.
fn per_subwindow(logs: &[ConnLog], marks: &[Mark]) -> String {
    marks
        .windows(2)
        .map(|w| {
            let (rows, _, _) = window_samples(logs, &w[0], &w[1]);
            let secs = (w[1].t_ns - w[0].t_ns) as f64 / 1e9;
            format!(
                "({}, {:.1})",
                w[1].steal - w[0].steal,
                rows as f64 / secs / 1e3
            )
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Rows, answers and round-trip latencies of the samples answered in
/// `[a, b]`.
fn window_samples(logs: &[ConnLog], a: &Mark, b: &Mark) -> (u64, u64, Vec<f64>) {
    let mut rows = 0;
    let mut answers = 0;
    let mut lat = Vec::new();
    for s in logs.iter().flat_map(|l| &l.samples) {
        if s.recv_ns >= a.t_ns && s.recv_ns <= b.t_ns {
            rows += s.rows;
            answers += 1;
            lat.push((s.recv_ns - s.sent_ns) as f64 / 1e3);
        }
    }
    (rows, answers, lat)
}

/// Consecutive runs of `SESSION_REQUESTS` answers per connection inside
/// `[a, b]`: (last answer in, ns; first request sent → last answer in,
/// ms).
fn session_times(logs: &[ConnLog], a: &Mark, b: &Mark) -> Vec<(u64, f64)> {
    let mut out = Vec::new();
    for log in logs {
        let inside: Vec<&Sample> = log
            .samples
            .iter()
            .filter(|s| s.recv_ns >= a.t_ns && s.recv_ns <= b.t_ns)
            .collect();
        for chunk in inside.chunks_exact(SESSION_REQUESTS) {
            let end = chunk[SESSION_REQUESTS - 1].recv_ns;
            out.push((end, (end - chunk[0].sent_ns) as f64 / 1e6));
        }
    }
    out
}

fn fold_logs(outcome: &mut Outcome, logs: &[ConnLog]) -> Result<(), String> {
    for l in logs {
        outcome.attempted += l.attempted;
        outcome.failed += l.failed;
    }
    match logs.iter().find_map(|l| l.error.clone()) {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Runs `serve-bulk`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let s = &BULK;
    let prep = Instant::now();
    let cases = build_cases(s, args.seed)?;
    let keys = ScratchDir::create(args.work_dir.join(format!(
        "keys-{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    )))?;
    for c in &cases {
        std::fs::write(keys.path().join(format!("{}.key", c.tenant)), &c.key)
            .map_err(|e| format!("writing key file: {e}"))?;
    }
    let mut outcome = Outcome::default();
    outcome.line(format!(
        "inputs: {} tenants, {} rows x {} cols per batch, 1 in {INVERT_EVERY} requests an \
         Invert and 1 in {LOAD_EVERY} a LoadKey, prepared in {:.2} s",
        s.tenants,
        s.rows,
        s.cols,
        prep.elapsed().as_secs_f64()
    ));

    let ctx = Ctx {
        cases: &cases,
        epoch: Instant::now(),
        stop: AtomicBool::new(false),
        abort: AtomicBool::new(false),
        tracing: AtomicBool::new(false),
    };
    // Set-up: launch → every tenant answered once. Repeated, median kept;
    // the last daemon stays up for the load.
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_times = Vec::with_capacity(setups);
    let mut daemon = None;
    for i in 0..setups {
        let t0 = Instant::now();
        let d = Daemon::launch(&args.cli, keys.path())?;
        let logs = warm_pass(d.addr(), &ctx);
        fold_logs(&mut outcome, &logs)?;
        setup_times.push(t0.elapsed().as_secs_f64());
        if i + 1 == setups {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one set-up");
    let (logs, marks) = load_phase(daemon.addr(), daemon.pid(), &ctx, args.seconds, args.trace);
    fold_logs(&mut outcome, &logs)?;
    let peak_rss = host::peak_rss_mib(daemon.pid()).unwrap_or(0.0);
    let first = marks[0];
    let last = *marks.last().expect("window edges");
    outcome.line(format!(
        "host record: steal {} ticks over the window, daemon {} context switches, {} threads",
        last.steal - first.steal,
        last.server_ctx - first.server_ctx,
        last.server_threads
    ));
    outcome.line(format!(
        "host record per sub-window (steal ticks, krows/s): {}",
        per_subwindow(&logs, &marks)
    ));
    if args.trace {
        let stats = Client::connect(daemon.addr())
            .and_then(|mut c| c.stats())
            .map_err(|e| format!("daemon stats: {e}"))?;
        drop(daemon);
        let epoch = ctx.epoch;
        traced_metrics(
            &mut outcome,
            &cases,
            keys.path(),
            (&logs, &marks, epoch),
            &stats,
            args,
        )?;
        return Ok(outcome);
    }
    drop(daemon);

    // Every metric is over the whole window: all its answers and sessions.
    let err = |e: crate::stats::EmptySamples| e.to_string();
    let (rows, answers, mut lat) = window_samples(&logs, &first, &last);
    let window_s = (last.t_ns - first.t_ns) as f64 / 1e9;
    let sessions = session_times(&logs, &first, &last);
    let setup = median(&setup_times).map_err(err)?;
    let server_cpu = Ratio::new(
        (last.server_cpu_s - first.server_cpu_s) * 1e9,
        rows as f64,
        "rows",
    );
    let client_cpu = Ratio::new(
        (last.client_cpu_s - first.client_cpu_s) * 1e9,
        rows as f64,
        "rows",
    );
    outcome.set("setup_s", setup);
    outcome.set("rows_per_s", rows as f64 / window_s);
    outcome.set("latency_p50_us", percentile(&mut lat, 50.0).map_err(err)?);
    outcome.set(
        "session_p50_ms",
        median(&sessions.iter().map(|&(_, ms)| ms).collect::<Vec<_>>()).map_err(err)?,
    );
    outcome.set("server_cpu_ns_per_row", server_cpu.value());
    outcome.set("client_cpu_ns_per_row", client_cpu.value());
    outcome.set("server_peak_rss_mb", peak_rss);
    outcome.set(
        "ok_ratio",
        (outcome.attempted - outcome.failed) as f64 / outcome.attempted.max(1) as f64,
    );
    outcome.line(format!(
        "setup_s median of {} launches: {:?}",
        setup_times.len(),
        setup_times
            .iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
    ));
    outcome.line(format!(
        "window {window_s:.3} s: {answers} answers, {rows} rows; latency_p50_us from {} \
         samples; session_p50_ms from {} sessions of {SESSION_REQUESTS} answers",
        lat.len(),
        sessions.len()
    ));
    outcome.line(format!("server_cpu_ns_per_row {server_cpu}"));
    outcome.line(format!("client_cpu_ns_per_row {client_cpu}"));
    outcome.line(format!(
        "error_ratio {} (= {} failed of {} attempted)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    ));
    Ok(outcome)
}

/// What the serving replay measured beyond the shared rungs.
struct Replay {
    rungs: Rungs,
    /// Registry calls (µs) that re-decoded a key after an LRU eviction.
    miss: Vec<f64>,
    /// `transform` + `invert` registry calls.
    data_calls: u64,
    transform: Vec<f64>,
    invert: Vec<f64>,
    cold_load_s: f64,
}

/// The daemon's registry step for a decoded serving request.
fn registry_call(registry: &SessionRegistry, request: Request) -> Result<Response, String> {
    match request {
        Request::Transform { tenant, batch } => {
            registry
                .transform(&tenant, &batch)
                .map(|(released, out_of_range_rows)| Response::Transformed {
                    released,
                    out_of_range_rows,
                })
        }
        Request::Invert { tenant, batch } => registry
            .invert(&tenant, &batch)
            .map(|recovered| Response::Inverted { recovered }),
        Request::LoadKey { tenant, key_bytes } => {
            registry
                .load_key(&tenant, key_bytes)
                .map(|(method, n)| Response::Loaded {
                    method,
                    n_attributes: n as u64,
                })
        }
        _ => unreachable!("the serving mix has no other requests"),
    }
    .map_err(|e| format!("replay registry: {e}"))
}

/// Whether `tenant` has a decoded session in `registry`; a data call on a
/// tenant that has none re-decodes its key (a miss).
fn resident(registry: &SessionRegistry, tenant: &str) -> bool {
    registry
        .stats()
        .tenants
        .iter()
        .any(|t| t.tenant == tenant && t.live)
}

/// Replays `ops` (the traced phase's access order) in-process, with the
/// registry at the daemon's capacity on the same key directory.
fn replay(
    cases: &[Case],
    keys: &std::path::Path,
    ops: &[(usize, Kind)],
    epoch: Instant,
) -> Result<Replay, String> {
    let cold = Instant::now();
    let store = KeyStore::open(keys).map_err(|e| format!("key store: {e}"))?;
    let registry = Arc::new(SessionRegistry::new(CAPACITY));
    let report = store
        .load_into(&registry)
        .map_err(|e| format!("loading keys: {e}"))?;
    let cold_load_s = cold.elapsed().as_secs_f64();
    if report.loaded != cases.len() as u64 {
        return Err(format!(
            "replay loaded {} of {} keys",
            report.loaded,
            cases.len()
        ));
    }
    // The set-up's warm-up pass, untimed: every tenant once.
    for c in cases {
        registry_call(&registry, c.transform.clone())?;
    }

    let mut sessions: HashMap<usize, ReleaseSession> = HashMap::new();
    let mut scratch = Matrix::zeros(0, 0);
    let (mut miss, mut data_calls, mut transform, mut invert) = (vec![], 0, vec![], vec![]);
    let ((), rungs) = with_replayer(epoch, |rp| {
        for (i, &(t, kind)) in ops.iter().take(REPLAY_CAP).enumerate() {
            let case = &cases[t];
            let hit = kind == Kind::LoadKey || resident(&registry, &case.tenant);
            let (response, call) =
                rp.replay(i as u64 + 1, case.request(kind), "registry.call", |req| {
                    registry_call(&registry, req)
                })?;
            if !case.verify(kind, &response) {
                return Err(format!("replayed answer for {} differs", case.tenant));
            }
            // What the opaque registry call contains, timed alone on an
            // identical bench-owned session: the session transform or
            // invert, or the key decode of a miss or reload.
            if kind != Kind::LoadKey {
                data_calls += 1;
                if !hit {
                    miss.push(call.us);
                }
                let session = match sessions.entry(t) {
                    std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(session_of(&case.key)?)
                    }
                };
                let Request::Transform { batch, .. } = &case.transform else {
                    unreachable!("transform requests are built as such")
                };
                let clock = Instant::now();
                session
                    .transform_batch_into(batch, &mut scratch)
                    .map_err(|e| e.to_string())?;
                let d_tf = clock.elapsed();
                let clock = Instant::now();
                session
                    .invert_batch_into(&case.released, &mut scratch)
                    .map_err(|e| e.to_string())?;
                let d_inv = clock.elapsed();
                transform.push(us(d_tf));
                invert.push(us(d_inv));
                if kind == Kind::Transform {
                    rp.lay_child(&call, "session.transform", d_tf);
                } else {
                    rp.lay_child(&call, "session.invert", d_inv);
                }
            }
            if !hit || kind == Kind::LoadKey {
                let clock = Instant::now();
                decode_fitted(&case.key).map_err(|e| e.to_string())?;
                rp.lay_child(&call, "registry.key_decode", clock.elapsed());
            }
        }
        Ok(())
    })?;
    Ok(Replay {
        rungs,
        miss,
        data_calls,
        transform,
        invert,
        cold_load_s,
    })
}

/// Computes and reports the per-layer metrics of a traced serving run.
fn traced_metrics(
    outcome: &mut Outcome,
    cases: &[Case],
    keys: &std::path::Path,
    (logs, marks, epoch): (&[ConnLog], &[Mark], Instant),
    stats: &rbt::server::ServerStats,
    args: &Args,
) -> Result<(), String> {
    // Untraced first half, traced second half (see `load_phase`).
    let n = marks.len() - 1;
    let (m0, m1, m2) = (marks[0], marks[n / 2], marks[n]);
    let (rows_a, _, _) = window_samples(logs, &m0, &m1);
    let (rows_b, answers_b, _) = window_samples(logs, &m1, &m2);
    let rps_a = rows_a as f64 / ((m1.t_ns - m0.t_ns) as f64 / 1e9);
    let rps_b = rows_b as f64 / ((m2.t_ns - m1.t_ns) as f64 / 1e9);

    // Client rungs, over every traced request.
    let traced: Vec<&Traced> = logs.iter().flat_map(|l| &l.traced).collect();
    if traced.is_empty() {
        return Err("the traced half answered nothing".to_string());
    }
    let mut wait: Vec<f64> = traced
        .iter()
        .map(|t| (t.read_ns - t.written_ns) as f64 / 1e3)
        .collect();
    let wait_mean = mean(&wait);
    let wait_p99 = percentile(&mut wait, 99.0).map_err(|e| e.to_string())?;
    // Queueing: the part of a wait spent before the connection's
    // previous answer arrived (pipelined requests wait their turn).
    let mut queue = Vec::new();
    for log in logs {
        let mut prev_read = 0;
        for t in &log.traced {
            queue.push((prev_read.max(t.written_ns) - t.written_ns) as f64 / 1e3);
            prev_read = t.read_ns;
        }
    }
    let rows: u64 = traced.iter().map(|t| t.rows).sum();
    let bytes: u64 = traced.iter().map(|t| t.req_bytes + t.resp_bytes).sum();

    // In-process replay in access order (answers in arrival order).
    let mut order: Vec<(u64, usize, Kind)> = logs
        .iter()
        .flat_map(|l| &l.traced)
        .map(|t| (t.read_ns, t.tenant, t.kind))
        .collect();
    order.sort_by_key(|o| o.0);
    let ops: Vec<(usize, Kind)> = order.into_iter().map(|(_, t, k)| (t, k)).collect();
    let r = replay(cases, keys, &ops, epoch)?;
    let n = r.rungs.decode.len().max(1) as f64;

    let decode = mean(&r.rungs.decode);
    let registry = mean(&r.rungs.call);
    let encode = mean(&r.rungs.encode);
    let echo = mean(&r.rungs.echo);
    let residual = wait_mean - (decode + registry + encode + echo);

    // The daemon's own counters.
    let requests: u64 = stats.tenants.iter().map(|t| t.requests).sum();
    let mut weighted: Vec<(u64, u64)> = stats
        .tenants
        .iter()
        .filter(|t| t.requests > 0)
        .map(|t| (t.p50_us, t.requests))
        .collect();
    weighted.sort_unstable();
    let mut acc = 0;
    let service_p50 = weighted
        .iter()
        .find(|(_, w)| {
            acc += w;
            acc * 2 >= requests
        })
        .map_or(0, |(p, _)| *p);
    let rt = stats.runtime;

    outcome.set(
        "client.encode_us",
        mean(
            &traced
                .iter()
                .map(|t| t.encode_ns as f64 / 1e3)
                .collect::<Vec<_>>(),
        ),
    );
    outcome.set(
        "client.decode_us",
        mean(
            &traced
                .iter()
                .map(|t| t.decode_ns as f64 / 1e3)
                .collect::<Vec<_>>(),
        ),
    );
    outcome.set("client.wait_us", wait_mean);
    outcome.set("client.wait_p99_us", wait_p99);
    outcome.set("client.wait_samples", wait.len() as f64);
    outcome.set("client.queue_us", mean(&queue));
    outcome.set(
        "client.frame_bytes_per_row",
        Ratio::new(bytes as f64, rows as f64, "rows").value(),
    );
    outcome.set(
        "client.retries",
        logs.iter().map(|l| l.retries).sum::<u64>() as f64,
    );
    outcome.set(
        "client.reconnects",
        logs.iter().map(|l| l.reconnects).sum::<u64>() as f64,
    );
    outcome.set("wire.crc_us", mean(&r.rungs.crc));
    outcome.set("wire.server_decode_us", decode);
    outcome.set("wire.server_encode_us", encode);
    outcome.set("wire.allocs_per_req", r.rungs.allocs as f64 / n);
    outcome.set("wire.alloc_bytes_per_req", r.rungs.alloc_bytes as f64 / n);
    outcome.set("registry.call_us", registry);
    let miss_ratio = Ratio::new(r.miss.len() as f64, r.data_calls as f64, "data calls");
    outcome.set("registry.miss_ratio", miss_ratio.value());
    outcome.set("registry.miss_us", mean(&r.miss));
    outcome.set("registry.cold_load_s", r.cold_load_s);
    let evictions = Ratio::new(
        stats.total_evictions as f64 * 1000.0,
        requests as f64,
        "requests",
    );
    outcome.set("registry.evictions_per_kreq", evictions.value());
    outcome.set("registry.service_p50_us", service_p50 as f64);
    outcome.set("session.transform_us", mean(&r.transform));
    outcome.set("session.invert_us", mean(&r.invert));
    outcome.set("socket.echo_us", echo);
    outcome.set("reactor.residual_us", residual);
    let ctx_per_req = Ratio::new(
        (m2.server_ctx - m1.server_ctx) as f64,
        answers_b as f64,
        "answers",
    );
    outcome.set("server.ctx_switches_per_req", ctx_per_req.value());
    outcome.set("server.threads", m2.server_threads as f64);
    outcome.set(
        "server.runtime_errors",
        (rt.malformed + rt.stalled + rt.deadlines_shed + rt.refused) as f64,
    );
    for name in [
        "owner.handle_ms",
        "protocol.codec_ms",
        "hub.exchange_ms",
        "hub.exchanges_per_session",
        "hub.empty_poll_ratio",
        "hub.replay_ms",
        "receiver.kmeans_ms",
        "protocol.inprocess_ms",
    ] {
        outcome.set(name, 0.0);
    }
    outcome.set("host.steal_ticks", (m2.steal - m1.steal) as f64);
    let overhead = if rps_a > 0.0 {
        (rps_a - rps_b) / rps_a * 100.0
    } else {
        0.0
    };
    outcome.set("trace.overhead_pct", overhead);

    let mut spans: Vec<Span> = logs.iter().flat_map(|l| l.spans.iter().cloned()).collect();
    spans.extend(r.rungs.spans);
    report_trace(outcome, &spans, args)?;
    outcome.line(format!(
        "serving ladder, mean us per request ({} traced answers, {} replayed):",
        traced.len(),
        r.rungs.decode.len()
    ));
    outcome.line(format!("  client.wait_us          {wait_mean:12.1}"));
    outcome.line(format!("  = wire.server_decode_us {decode:12.1}"));
    outcome.line(format!("  + registry.call_us      {registry:12.1}"));
    outcome.line(format!("  + wire.server_encode_us {encode:12.1}"));
    outcome.line(format!("  + socket.echo_us        {echo:12.1}"));
    outcome.line(format!(
        "  + reactor.residual_us   {residual:12.1}   (of which client.queue_us {:.1}: waiting behind earlier pipelined requests)",
        mean(&queue)
    ));
    outcome.line(format!(
        "  (wire.crc_us {:.1} is inside decode and encode; session.transform_us {:.1} inside the registry call)",
        mean(&r.rungs.crc),
        mean(&r.transform)
    ));
    outcome.line(format!(
        "client.wait_p99_us {wait_p99:.1} over {} samples; registry.miss_ratio {miss_ratio}; \
         registry.evictions_per_kreq {evictions}; server.ctx_switches_per_req {ctx_per_req}",
        wait.len()
    ));
    outcome.line(format!(
        "trace.overhead_pct {overhead:.2} (untraced half {rps_a:.0} rows/s, traced half {rps_b:.0} rows/s)"
    ));
    outcome.attempted += r.rungs.decode.len() as u64;
    Ok(())
}

/// Prints self time per layer and writes the spans once, at the end.
pub fn report_trace(outcome: &mut Outcome, spans: &[Span], args: &Args) -> Result<(), String> {
    let path = args.work_dir.join(format!(
        "trace-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, trace::to_jsonl(spans))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    outcome.line(format!(
        "self time per layer ({} spans written to {}):",
        spans.len(),
        path.display()
    ));
    outcome.line(format!(
        "  {:<22} {:>8} {:>14} {:>14}",
        "span", "count", "mean_us", "self_mean_us"
    ));
    for (name, t) in trace::self_times(spans) {
        outcome.line(format!(
            "  {:<22} {:>8} {:>14.1} {:>14.1}",
            name,
            t.count,
            t.total_ns as f64 / t.count as f64 / 1e3,
            t.self_ns as f64 / t.count as f64 / 1e3
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_request_mix_reaches_every_tenant_with_every_kind() {
        let tenants = BULK.tenants;
        let mut seen = std::collections::BTreeSet::new();
        let (mut inverts, mut loads) = (0, 0);
        for c in 0..CONNS {
            // One full cycle of both periods per connection.
            for i in 0..INVERT_EVERY * LOAD_EVERY {
                let (t, kind) = op(c, i, tenants);
                // A connection keeps to its own tenants.
                assert_eq!(t % CONNS, c);
                seen.insert((t, kind as u8));
                inverts += u64::from(kind == Kind::Invert);
                loads += u64::from(kind == Kind::LoadKey);
            }
        }
        assert_eq!(seen.len(), tenants * 3);
        // The last request of a cycle is due for both; the reload wins.
        assert_eq!(loads, CONNS as u64 * INVERT_EVERY);
        assert_eq!(inverts, CONNS as u64 * (LOAD_EVERY - 1));
    }

    #[test]
    fn a_miss_is_read_off_the_real_registry() {
        let s = Shape {
            tenants: 2,
            rows: 2,
            cols: 4,
            fit_rows: 16,
        };
        let cases = build_cases(&s, 5).unwrap();
        let registry = SessionRegistry::new(1);
        for c in &cases {
            registry.load_key(&c.tenant, c.key.clone()).unwrap();
        }
        // At capacity 1, loading the second key evicted the first.
        assert!(!resident(&registry, &cases[0].tenant));
        assert!(resident(&registry, &cases[1].tenant));
        registry_call(&registry, cases[0].transform.clone()).unwrap();
        assert!(resident(&registry, &cases[0].tenant));
        assert!(!resident(&registry, &cases[1].tenant));
    }

    #[test]
    fn expected_answers_are_checked_bit_for_bit() {
        let s = Shape {
            tenants: 1,
            rows: 3,
            cols: 4,
            fit_rows: 16,
        };
        let case = &build_cases(&s, 1).unwrap()[0];
        let good = Response::Transformed {
            released: case.released.clone(),
            out_of_range_rows: case.drift,
        };
        assert!(case.verify(Kind::Transform, &good));
        // One flipped low bit in one cell is a wrong answer.
        let mut m = case.released.matrix().clone();
        let v = m.as_slice()[0];
        m.as_mut_slice()[0] = f64::from_bits(v.to_bits() ^ 1);
        let bad = Response::Transformed {
            released: Dataset::new(m, case.released.columns().to_vec()).unwrap(),
            out_of_range_rows: case.drift,
        };
        assert!(!case.verify(Kind::Transform, &bad));
        // So is a wrong drift count, the wrong kind, or a typed error.
        let drift = Response::Transformed {
            released: case.released.clone(),
            out_of_range_rows: case.drift + 1,
        };
        assert!(!case.verify(Kind::Transform, &drift));
        assert!(!case.verify(Kind::Invert, &good));
        let error = Response::Error {
            code: 2,
            message: "unknown tenant".to_string(),
        };
        assert!(!case.verify(Kind::LoadKey, &error));
        assert!(case.verify(
            Kind::Invert,
            &Response::Inverted {
                recovered: case.recovered.clone()
            }
        ));
    }
}
