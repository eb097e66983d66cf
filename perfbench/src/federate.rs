//! The `federate` workload: back-to-back 4-owner federated sessions,
//! all driven over one connection through the daemon's hub.

use std::io::Write;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rbt::cluster::{KMeans, KMeansInit};
use rbt::core::{PairwiseSecurityThreshold, Pipeline, RbtConfig};
use rbt::data::synth::GaussianMixture;
use rbt::data::{Dataset, Normalization};
use rbt::linalg::codec::{ByteReader, ByteWriter};
use rbt::linalg::Matrix;
use rbt::protocol::{
    FederationConfig, FederationHub, InProcessFederation, KeyPolicy, Message, Owner,
};
use rbt::server::wire::{self, Request, Response};
use rbt::server::{Client, KeyStore, SessionRegistry};

use crate::daemon::{Daemon, ScratchDir};
use crate::host::{mark, Mark};
use crate::replay::with_replayer;
use crate::serve::{mix, read_raw_frame, report_trace, SETUPS, WARMUP_S};
use crate::stats::{mean, median, percentile, Ratio};
use crate::trace::{Span, Tracer};
use crate::{host, Args, Outcome};

const OWNERS: u16 = 4;
/// Rows per owner. The joint matrix (4 × 4,000 × 16 f64, 2 MiB) stays
/// within one core's L2: with 25,000 rows per owner, k-means' 64 passes
/// over a 12.8 MB matrix ran from the host's shared L3, and on a shared
/// 2-vCPU guest the median session time of ten runs moved 20–40% with
/// other tenants' load.
const ROWS_PER_OWNER: usize = 4_000;
const COLS: usize = 16;
const K: usize = 8;
const MAX_ITERS: usize = 64;
/// Polling rounds after which a session counts as stalled.
const MAX_ROUNDS: usize = 100_000;

/// The federation every session of a run repeats, and its expected
/// joint result from the pooled single-owner baseline.
struct Plan {
    cfg: FederationConfig,
    parts: Vec<Matrix>,
    labels: Vec<u32>,
    inertia_bits: u64,
    /// Lloyd iterations the joint k-means runs.
    iterations: usize,
}

impl Plan {
    fn rows(&self) -> u64 {
        self.parts.iter().map(|p| p.rows() as u64).sum()
    }

    fn config_for(&self, session: u64) -> Vec<u8> {
        let mut cfg = self.cfg.clone();
        cfg.session = session;
        let mut w = ByteWriter::new();
        cfg.encode_into(&mut w);
        w.into_bytes()
    }
}

/// The pooled baseline: `Pipeline` on the union, then first-k k-means
/// with the session's seed, k and cap (the `tests/federation_server.rs`
/// rule).
fn pooled_baseline(
    pooled: &Matrix,
    cfg: &FederationConfig,
) -> Result<(Vec<u32>, u64, usize), String> {
    let out = Pipeline::new(cfg.rbt.clone())
        .with_normalization(cfg.normalization)
        .run(
            &Dataset::from_matrix(pooled.clone()),
            &mut StdRng::seed_from_u64(cfg.seed),
        )
        .map_err(|e| e.to_string())?;
    let fit = kmeans(cfg)?
        .fit(out.released.matrix(), &mut StdRng::seed_from_u64(cfg.seed))
        .map_err(|e| e.to_string())?;
    Ok((
        fit.labels.iter().map(|&l| l as u32).collect(),
        fit.inertia.to_bits(),
        fit.iterations,
    ))
}

fn kmeans(cfg: &FederationConfig) -> Result<KMeans, String> {
    Ok(KMeans::new(cfg.kmeans_k)
        .map_err(|e| e.to_string())?
        .with_init(KMeansInit::FirstK)
        .with_max_iters(cfg.kmeans_max_iters))
}

fn build_plan(seed: u64) -> Result<Plan, String> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 21, 0));
    let gm = GaussianMixture::well_separated(K, COLS, 6.0, 1.5).map_err(|e| e.to_string())?;
    let pooled = gm.sample(ROWS_PER_OWNER * OWNERS as usize, &mut rng).matrix;
    let parts = (0..OWNERS as usize)
        .map(|i| {
            let rows: Vec<&[f64]> = (i * ROWS_PER_OWNER..(i + 1) * ROWS_PER_OWNER)
                .map(|r| pooled.row(r))
                .collect();
            Matrix::from_rows(&rows).map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let threshold = PairwiseSecurityThreshold::new(0.2, 0.2).map_err(|e| e.to_string())?;
    // A draw can leave a pair's security range empty; move to the next
    // seed derived from the run's seed until the pooled baseline fits.
    for attempt in 0..20 {
        let cfg = FederationConfig {
            session: 0,
            n_cols: COLS,
            owners: OWNERS,
            normalization: Normalization::zscore_paper(),
            rbt: RbtConfig::uniform(threshold),
            key_policy: KeyPolicy::Shared,
            seed: mix(seed, 22, attempt),
            kmeans_k: K,
            kmeans_max_iters: MAX_ITERS,
        };
        if let Ok((labels, inertia_bits, iterations)) = pooled_baseline(&pooled, &cfg) {
            return Ok(Plan {
                cfg,
                parts,
                labels,
                inertia_bits,
                iterations,
            });
        }
    }
    Err("no feasible federation in 20 seeds".to_string())
}

/// Per-session counts and times.
#[derive(Default, Clone)]
struct SessionLog {
    start_ns: u64,
    end_ns: u64,
    requests: u64,
    /// Round trip of every wire request, µs.
    latencies_us: Vec<f64>,
    exchanges: u64,
    empty_polls: u64,
    exchange_ns: u64,
    owner_ns: u64,
    codec_ns: u64,
}

/// What a traced session records for the report and the replay.
#[derive(Default)]
struct FedTrace {
    requests: Vec<Request>,
    wait_ns: Vec<u64>,
    encode_ns: Vec<u64>,
    decode_ns: Vec<u64>,
    bytes: u64,
}

/// One wire request. Untraced requests go through the `Client` methods;
/// traced ones are framed by hand so each step is timed.
struct Conn<'a> {
    client: Client,
    tracer: Tracer,
    traced: Option<&'a mut FedTrace>,
    next_traced_id: u64,
}

impl Conn<'_> {
    fn call(&mut self, req: Request, parent: u64, session: u64) -> Result<Response, String> {
        let Some(rec) = self.traced.as_deref_mut() else {
            let opcode = req.opcode();
            return match req {
                Request::FedOpen { config } => self
                    .client
                    .fed_open(config)
                    .map(|session| Response::FedOpened { session }),
                Request::FedMsg {
                    session,
                    owner,
                    messages,
                } => self
                    .client
                    .fed_exchange(session, owner, messages)
                    .map(|messages| Response::FedMsgs { messages }),
                Request::FedResult { session } => self
                    .client
                    .fed_result(session)
                    .map(|summary| Response::FedSummary { summary }),
                Request::FedClose { session } => self
                    .client
                    .fed_close(session)
                    .map(|existed| Response::FedClosed { existed }),
                _ => unreachable!("federate sends only Fed* requests"),
            }
            .map_err(|e| format!("{opcode:?}: {e}"));
        };
        self.next_traced_id += 1;
        let id = self.next_traced_id;
        let t = &mut self.tracer;
        let t0 = t.now_ns();
        let bytes = wire::encode_frame(&req.to_frame().with_request_id(id));
        let t1 = t.now_ns();
        t.record("client.encode", session, parent, t0, t1);
        let stream = self.client.stream_mut();
        stream.write_all(&bytes).map_err(|e| e.to_string())?;
        let t2 = t.now_ns();
        t.record("client.write", session, parent, t1, t2);
        let raw = read_raw_frame(stream).map_err(|e| e.to_string())?;
        let t3 = t.now_ns();
        t.record("client.wait", session, parent, t2, t3);
        let frame = wire::decode_frame(&raw).map_err(|e| e.to_string())?;
        let resp = Response::from_frame(&frame).map_err(|e| e.to_string())?;
        let t4 = t.now_ns();
        t.record("client.decode", session, parent, t3, t4);
        if frame.request_id != id {
            return Err(format!(
                "answer for id {} arrived for {id}",
                frame.request_id
            ));
        }
        rec.requests.push(req);
        rec.encode_ns.push(t1 - t0);
        rec.wait_ns.push(t3 - t2);
        rec.decode_ns.push(t4 - t3);
        rec.bytes += (bytes.len() + raw.len()) as u64;
        match resp {
            Response::Error { code, message } => Err(format!("server error {code}: {message}")),
            other => Ok(other),
        }
    }
}

/// Runs one federated session to a verified joint result.
fn run_session(conn: &mut Conn<'_>, plan: &Plan, session: u64) -> Result<SessionLog, String> {
    let mut log = SessionLog {
        start_ns: conn.tracer.now_ns(),
        ..SessionLog::default()
    };
    let root = conn.tracer.open("fed.session", session, 0);
    let timed = |conn: &mut Conn<'_>, log: &mut SessionLog, name, req| {
        let t0 = conn.tracer.now_ns();
        let span = conn.tracer.open_at(name, session, root.id(), t0);
        let out = conn.call(req, span.id(), session);
        let t1 = conn.tracer.now_ns();
        conn.tracer.close_at(span, t1);
        log.requests += 1;
        log.latencies_us.push((t1 - t0) as f64 / 1e3);
        out.map(|r| (r, t1 - t0))
    };
    let opened = timed(
        conn,
        &mut log,
        "fed.open",
        Request::FedOpen {
            config: plan.config_for(session),
        },
    )?;
    if !matches!(opened.0, Response::FedOpened { session: s } if s == session) {
        return Err(format!("FedOpen answered {:?}", opened.0));
    }
    let mut owners = plan
        .parts
        .iter()
        .enumerate()
        .map(|(i, m)| Owner::new(i as u16, session, m.clone()).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut outboxes: Vec<Vec<Vec<u8>>> = vec![Vec::new(); owners.len()];
    let mut summary = None;
    for _ in 0..MAX_ROUNDS {
        for (i, owner) in owners.iter_mut().enumerate() {
            let req = Request::FedMsg {
                session,
                owner: i as u16,
                messages: std::mem::take(&mut outboxes[i]),
            };
            let (resp, dt) = timed(conn, &mut log, "hub.exchange", req)?;
            let Response::FedMsgs { messages } = resp else {
                return Err(format!("FedMsg answered {resp:?}"));
            };
            log.exchanges += 1;
            log.exchange_ns += dt;
            if messages.is_empty() {
                log.empty_polls += 1;
            }
            for bytes in messages {
                let t0 = conn.tracer.now_ns();
                let msg = Message::decode(&bytes).map_err(|e| e.to_string())?;
                let t1 = conn.tracer.now_ns();
                let outs = owner.handle(&msg).map_err(|e| e.to_string())?;
                let t2 = conn.tracer.now_ns();
                for out in outs {
                    outboxes[i].push(out.msg.encode());
                }
                let t3 = conn.tracer.now_ns();
                conn.tracer
                    .record("protocol.codec", session, root.id(), t0, t1);
                conn.tracer
                    .record("owner.handle", session, root.id(), t1, t2);
                conn.tracer
                    .record("protocol.codec", session, root.id(), t2, t3);
                log.codec_ns += (t1 - t0) + (t3 - t2);
                log.owner_ns += t2 - t1;
            }
        }
        if outboxes.iter().all(Vec::is_empty) {
            let (resp, _) = timed(conn, &mut log, "fed.result", Request::FedResult { session })?;
            match resp {
                Response::FedSummary { summary: Some(s) } => {
                    summary = Some(s);
                    break;
                }
                Response::FedSummary { summary: None } => {}
                other => return Err(format!("FedResult answered {other:?}")),
            }
        }
    }
    let bytes = summary.ok_or("session stalled")?;
    let Message::JointDataset { summary, .. } =
        Message::decode(&bytes).map_err(|e| e.to_string())?
    else {
        return Err("FedResult did not carry a JointDataset".to_string());
    };
    if summary.rows != plan.rows()
        || summary.labels != plan.labels
        || summary.inertia.to_bits() != plan.inertia_bits
    {
        return Err(format!(
            "session {session}: joint result differs from the pooled baseline"
        ));
    }
    let closed = timed(conn, &mut log, "fed.close", Request::FedClose { session })?;
    if !matches!(closed.0, Response::FedClosed { existed: true }) {
        return Err(format!("FedClose answered {:?}", closed.0));
    }
    log.end_ns = conn.tracer.now_ns();
    conn.tracer.close_at(root, log.end_ns);
    Ok(log)
}

/// Runs sessions until `secs` have passed; the window ends with the last
/// session, so it always holds whole sessions.
fn sessions_for(
    conn: &mut Conn<'_>,
    plan: &Plan,
    next_session: &mut u64,
    secs: f64,
    outcome: &mut Outcome,
) -> Result<Vec<SessionLog>, String> {
    let until = Instant::now() + Duration::from_secs_f64(secs);
    let mut logs = Vec::new();
    while logs.is_empty() || Instant::now() < until {
        *next_session += 1;
        match run_session(conn, plan, *next_session) {
            Ok(log) => {
                outcome.attempted += log.requests;
                logs.push(log);
            }
            Err(e) => {
                outcome.attempted += 1;
                outcome.failed += 1;
                return Err(e);
            }
        }
    }
    Ok(logs)
}

/// Runs `federate`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let prep = Instant::now();
    let plan = build_plan(args.seed)?;
    let keys = ScratchDir::create(args.work_dir.join(format!(
        "keys-federate-{}-{}",
        args.seed,
        std::process::id()
    )))?;
    let mut outcome = Outcome::default();
    outcome.line(format!(
        "inputs: {OWNERS} owners x {ROWS_PER_OWNER} rows x {COLS} cols, k {K}, cap {MAX_ITERS} \
         ({} iterations run), \
         seed {}; baseline in {:.2} s",
        plan.iterations,
        plan.cfg.seed,
        prep.elapsed().as_secs_f64()
    ));
    let epoch = Instant::now();
    let base_session = mix(args.seed, 23, 0) >> 16;
    let mut next_session = base_session;

    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_times = Vec::with_capacity(setups);
    let mut kept = None;
    for i in 0..setups {
        let t0 = Instant::now();
        let daemon = Daemon::launch(&args.cli, keys.path())?;
        let client = Client::connect(daemon.addr()).map_err(|e| e.to_string())?;
        let mut tracer = Tracer::new(epoch, 1);
        tracer.set_enabled(false);
        let mut conn = Conn {
            client,
            tracer,
            traced: None,
            next_traced_id: 1 << 40,
        };
        next_session += 1;
        let log = run_session(&mut conn, &plan, next_session).inspect_err(|_| {
            outcome.attempted += 1;
            outcome.failed += 1;
        })?;
        outcome.attempted += log.requests;
        setup_times.push(t0.elapsed().as_secs_f64());
        if i + 1 == setups {
            kept = Some((daemon, conn));
        }
    }
    let (daemon, mut conn) = kept.expect("at least one set-up");
    let pid = daemon.pid();

    sessions_for(&mut conn, &plan, &mut next_session, WARMUP_S, &mut outcome)?;
    let m0 = mark(epoch, pid);
    if args.trace {
        let untraced = sessions_for(
            &mut conn,
            &plan,
            &mut next_session,
            args.seconds / 2.0,
            &mut outcome,
        )?;
        let m1 = mark(epoch, pid);
        let mut rec = FedTrace::default();
        conn.traced = Some(&mut rec);
        conn.tracer.set_enabled(true);
        let traced = sessions_for(
            &mut conn,
            &plan,
            &mut next_session,
            args.seconds / 2.0,
            &mut outcome,
        )?;
        let m2 = mark(epoch, pid);
        let stats = conn.client.stats().map_err(|e| e.to_string())?;
        let retries = conn.client.metrics().retries;
        let reconnects = conn.client.metrics().reconnects.saturating_sub(1);
        let mut spans = conn.tracer.into_spans();
        drop(daemon);
        let rate = |logs: &[SessionLog], a: &Mark, b: &Mark| {
            logs.len() as f64 * plan.rows() as f64 / ((b.t_ns - a.t_ns) as f64 / 1e9)
        };
        let rps_a = rate(&untraced, &m0, &m1);
        let rps_b = rate(&traced, &m1, &m2);
        traced_metrics(
            &mut outcome,
            &plan,
            keys.path(),
            &traced,
            &rec,
            (m1, m2),
            &stats,
            (retries, reconnects),
            (rps_a, rps_b),
            &mut spans,
            epoch,
        )?;
        report_trace(&mut outcome, &spans, args)?;
        return Ok(outcome);
    }
    let logs = sessions_for(
        &mut conn,
        &plan,
        &mut next_session,
        args.seconds,
        &mut outcome,
    )?;
    let m1 = mark(epoch, pid);
    let retries = conn.client.metrics().retries;
    if retries > 0 {
        outcome.failed += retries;
        return Err(format!("the client retried {retries} times"));
    }
    let peak_rss = host::peak_rss_mib(pid).unwrap_or(0.0);
    drop(conn);
    drop(daemon);

    // Every metric is over the whole window, which holds whole sessions
    // only: all its sessions and all their requests.
    let err = |e: crate::stats::EmptySamples| e.to_string();
    let rows = logs.len() as u64 * plan.rows();
    let window_s = (m1.t_ns - m0.t_ns) as f64 / 1e9;
    let session_ms: Vec<f64> = logs
        .iter()
        .map(|l| (l.end_ns - l.start_ns) as f64 / 1e6)
        .collect();
    let mut lat: Vec<f64> = logs.iter().flat_map(|l| l.latencies_us.clone()).collect();
    let server_cpu = Ratio::new(
        (m1.server_cpu_s - m0.server_cpu_s) * 1e9,
        rows as f64,
        "rows",
    );
    let client_cpu = Ratio::new(
        (m1.client_cpu_s - m0.client_cpu_s) * 1e9,
        rows as f64,
        "rows",
    );
    outcome.set("setup_s", median(&setup_times).map_err(err)?);
    outcome.set("rows_per_s", rows as f64 / window_s);
    outcome.set("latency_p50_us", percentile(&mut lat, 50.0).map_err(err)?);
    outcome.set("session_p50_ms", median(&session_ms).map_err(err)?);
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
        "window {window_s:.3} s: {} sessions, {rows} joint rows; latency_p50_us from {} \
         requests; session ms: {:?}",
        logs.len(),
        lat.len(),
        session_ms.iter().map(|ms| ms.round()).collect::<Vec<_>>()
    ));
    outcome.line(format!(
        "host record: steal {} ticks over the window, daemon {} context switches, {} threads",
        m1.steal - m0.steal,
        m1.server_ctx - m0.server_ctx,
        m1.server_threads
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

/// The daemon's hub step for a decoded federation request, as its
/// request engine makes it.
fn hub_call(hub: &mut FederationHub, request: Request) -> Result<Response, String> {
    let err = |e: rbt::protocol::ProtocolError| e.to_string();
    Ok(match request {
        Request::FedOpen { config } => {
            let mut r = ByteReader::new(&config);
            let cfg = FederationConfig::decode_from(&mut r).map_err(|e| e.to_string())?;
            let session = cfg.session;
            hub.open(cfg).map_err(err)?;
            Response::FedOpened { session }
        }
        Request::FedMsg {
            session,
            owner,
            messages,
        } => {
            let msgs = messages
                .iter()
                .map(|b| Message::decode(b))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            let out = hub.exchange(session, owner, msgs).map_err(err)?;
            Response::FedMsgs {
                messages: out.iter().map(Message::encode).collect(),
            }
        }
        Request::FedResult { session } => Response::FedSummary {
            summary: hub.result(session).map_err(err)?.map(|s| {
                Message::JointDataset {
                    session,
                    summary: s.clone(),
                }
                .encode()
            }),
        },
        Request::FedClose { session } => Response::FedClosed {
            existed: hub.close(session),
        },
        _ => unreachable!("federate sends only Fed* requests"),
    })
}

/// Replays one traced session's requests in-process through the daemon's
/// public steps (server decode, the hub call the daemon makes, server
/// encode, CRC alone, a loopback echo), then times the joint k-means and
/// the whole in-process federation on the same partitions.
#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    outcome: &mut Outcome,
    plan: &Plan,
    keys: &std::path::Path,
    traced: &[SessionLog],
    rec: &FedTrace,
    (m1, m2): (Mark, Mark),
    stats: &rbt::server::ServerStats,
    (retries, reconnects): (u64, u64),
    (rps_a, rps_b): (f64, f64),
    spans: &mut Vec<Span>,
    epoch: Instant,
) -> Result<(), String> {
    let n_sessions = traced.len().max(1) as f64;
    let ms = |ns: u64| ns as f64 / 1e6;

    // The registry is bypassed; its cold load is of the (empty) key dir.
    let cold = Instant::now();
    let store = KeyStore::open(keys).map_err(|e| e.to_string())?;
    store
        .load_into(&std::sync::Arc::new(SessionRegistry::new(64)))
        .map_err(|e| e.to_string())?;
    let cold_load_s = cold.elapsed().as_secs_f64();

    // Replay the last traced session's requests.
    let last_open = rec
        .requests
        .iter()
        .rposition(|r| matches!(r, Request::FedOpen { .. }))
        .ok_or("no traced session")?;
    let session_reqs = &rec.requests[last_open..];
    let mut hub = FederationHub::new(16);
    let mut kmeans_ms = 0.0;
    let ((), rungs) = with_replayer(epoch, |rp| {
        for (i, req) in session_reqs.iter().enumerate() {
            // Before the session closes, time the receiver's k-means on
            // the joint matrix the hub assembled.
            if let Request::FedClose { session } = req {
                if let Ok(Some(joint)) = hub.joint_result(*session) {
                    let t = Instant::now();
                    let fit = kmeans(&plan.cfg)?
                        .fit(&joint.matrix, &mut StdRng::seed_from_u64(plan.cfg.seed))
                        .map_err(|e| e.to_string())?;
                    kmeans_ms = t.elapsed().as_secs_f64() * 1e3;
                    if fit.inertia.to_bits() != plan.inertia_bits {
                        return Err("replayed k-means differs from the baseline".to_string());
                    }
                }
            }
            rp.replay(i as u64 + 1, req, "hub.replay", |request| {
                hub_call(&mut hub, request)
            })?;
        }
        Ok(())
    })?;
    spans.extend(rungs.spans);
    let (decode, hub_us, encode, crc, echo) = (
        rungs.decode,
        rungs.call,
        rungs.encode,
        rungs.crc,
        rungs.echo,
    );
    let (allocs, alloc_bytes) = (rungs.allocs, rungs.alloc_bytes);

    let t = Instant::now();
    let run = InProcessFederation::new(plan.cfg.clone(), plan.parts.clone())
        .and_then(InProcessFederation::run)
        .map_err(|e| e.to_string())?;
    let inprocess_ms = t.elapsed().as_secs_f64() * 1e3;
    if run.result.inertia.to_bits() != plan.inertia_bits {
        return Err("in-process federation differs from the baseline".to_string());
    }

    let n = decode.len().max(1) as f64;
    let mut wait: Vec<f64> = rec.wait_ns.iter().map(|&w| w as f64 / 1e3).collect();
    let wait_mean = mean(&wait);
    let wait_p99 = percentile(&mut wait, 99.0).map_err(|e| e.to_string())?;
    let per_req_hub = mean(&hub_us);
    let residual = wait_mean - (mean(&decode) + per_req_hub + mean(&encode) + mean(&echo));
    let exchanges: u64 = traced.iter().map(|l| l.exchanges).sum();
    let empty: u64 = traced.iter().map(|l| l.empty_polls).sum();
    let requests: u64 = traced.iter().map(|l| l.requests).sum();
    let rows = traced.len() as u64 * plan.rows();
    let rt = stats.runtime;
    let ctx_per_req = Ratio::new(
        (m2.server_ctx - m1.server_ctx) as f64,
        requests as f64,
        "requests",
    );
    let empty_ratio = Ratio::new(empty as f64, exchanges as f64, "exchanges");

    let to_us = |v: &[u64]| mean(&v.iter().map(|&x| x as f64 / 1e3).collect::<Vec<_>>());
    outcome.set("client.encode_us", to_us(&rec.encode_ns));
    outcome.set("client.decode_us", to_us(&rec.decode_ns));
    outcome.set("client.wait_us", wait_mean);
    outcome.set("client.wait_p99_us", wait_p99);
    outcome.set("client.wait_samples", wait.len() as f64);
    outcome.set("client.queue_us", 0.0);
    outcome.set(
        "client.frame_bytes_per_row",
        Ratio::new(rec.bytes as f64, rows as f64, "rows").value(),
    );
    outcome.set("client.retries", retries as f64);
    outcome.set("client.reconnects", reconnects as f64);
    outcome.set("wire.crc_us", mean(&crc));
    outcome.set("wire.server_decode_us", mean(&decode));
    outcome.set("wire.server_encode_us", mean(&encode));
    outcome.set("wire.allocs_per_req", allocs as f64 / n);
    outcome.set("wire.alloc_bytes_per_req", alloc_bytes as f64 / n);
    for name in [
        "registry.call_us",
        "registry.miss_ratio",
        "registry.miss_us",
        "registry.evictions_per_kreq",
        "registry.service_p50_us",
        "session.transform_us",
        "session.invert_us",
    ] {
        outcome.set(name, 0.0);
    }
    outcome.set("registry.cold_load_s", cold_load_s);
    outcome.set("socket.echo_us", mean(&echo));
    outcome.set("reactor.residual_us", residual);
    outcome.set("server.ctx_switches_per_req", ctx_per_req.value());
    outcome.set("server.threads", m2.server_threads as f64);
    outcome.set(
        "server.runtime_errors",
        (rt.malformed + rt.stalled + rt.deadlines_shed + rt.refused) as f64,
    );
    outcome.set(
        "owner.handle_ms",
        ms(traced.iter().map(|l| l.owner_ns).sum()) / n_sessions,
    );
    outcome.set(
        "protocol.codec_ms",
        ms(traced.iter().map(|l| l.codec_ns).sum()) / n_sessions,
    );
    outcome.set(
        "hub.exchange_ms",
        ms(traced.iter().map(|l| l.exchange_ns).sum()) / n_sessions,
    );
    outcome.set("hub.exchanges_per_session", exchanges as f64 / n_sessions);
    outcome.set("hub.empty_poll_ratio", empty_ratio.value());
    outcome.set("hub.replay_ms", hub_us.iter().sum::<f64>() / 1e3);
    outcome.set("receiver.kmeans_ms", kmeans_ms);
    outcome.set("protocol.inprocess_ms", inprocess_ms);
    outcome.set("host.steal_ticks", (m2.steal - m1.steal) as f64);
    let overhead = if rps_a > 0.0 {
        (rps_a - rps_b) / rps_a * 100.0
    } else {
        0.0
    };
    outcome.set("trace.overhead_pct", overhead);

    let session_ms = mean(
        &traced
            .iter()
            .map(|l| (l.end_ns - l.start_ns) as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    outcome.line(format!(
        "federation ladder, mean ms per session ({} traced sessions, {} requests replayed):",
        traced.len(),
        decode.len()
    ));
    outcome.line(format!("  session                {session_ms:10.2}"));
    outcome.line(format!(
        "  owner.handle_ms        {:10.2}",
        ms(traced.iter().map(|l| l.owner_ns).sum()) / n_sessions
    ));
    outcome.line(format!(
        "  protocol.codec_ms      {:10.2}",
        ms(traced.iter().map(|l| l.codec_ns).sum()) / n_sessions
    ));
    outcome.line(format!(
        "  hub.exchange_ms        {:10.2}   (of which hub.replay_ms {:.2}, receiver.kmeans_ms {:.2})",
        ms(traced.iter().map(|l| l.exchange_ns).sum()) / n_sessions,
        hub_us.iter().sum::<f64>() / 1e3,
        kmeans_ms
    ));
    outcome.line(format!(
        "  protocol.inprocess_ms  {inprocess_ms:10.2}   (the gap to the session time is transport)"
    ));
    outcome.line(format!(
        "per request, mean us: client.wait_us {wait_mean:.1} = wire.server_decode_us {:.1} + hub \
         call {per_req_hub:.1} + wire.server_encode_us {:.1} + socket.echo_us {:.1} + \
         reactor.residual_us {residual:.1}",
        mean(&decode),
        mean(&encode),
        mean(&echo)
    ));
    outcome.line(format!(
        "client.wait_p99_us {wait_p99:.1} over {} samples; hub.empty_poll_ratio {empty_ratio}; \
         server.ctx_switches_per_req {ctx_per_req}",
        wait.len()
    ));
    outcome.line(format!(
        "trace.overhead_pct {overhead:.2} (untraced half {rps_a:.0} rows/s, traced half {rps_b:.0} rows/s)"
    ));
    Ok(())
}
