//! The chaos battery: the serving core under injected transport faults,
//! restarts, and resource pressure.
//!
//! The contract it proves, from ISSUE acceptance criteria:
//!
//! * under seeded [`FaultPlan`]s (stalled reads, torn writes, mid-frame
//!   disconnects, delayed responses) every request that receives a
//!   *success* response is bitwise identical to the one-shot `Pipeline`
//!   release — faults may kill connections, never corrupt answers;
//! * graceful shutdown loses zero in-flight responses and leaks zero
//!   connection threads (`DrainReport.spawned == joined`);
//! * a server restarted mid-stream on a new port is transparent to a
//!   resilient client (`connect_via` + retry);
//! * a kill-and-restart of the key store replays the journal and every
//!   tenant re-serves bitwise;
//! * deadlines shed, idle connections reap, stalls sever, capacity
//!   refuses, and the circuit breaker opens/half-opens — all observable
//!   through typed frames and runtime counters.
//!
//! Everything runs under both threading modes: CI executes the suite once
//! with default threads and once with `RBT_THREADS=1`.

use std::io::{ErrorKind, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rbt::core::{Pipeline, PipelineOutput, RbtConfig, ReleaseSession};
use rbt::server::{
    wire, Client, ClientError, FaultPlan, KeyStore, RetryPolicy, Server, ServerConfig,
    SessionRegistry,
};
use rbt::{Dataset, Matrix, Method, PairwiseSecurityThreshold, Release};

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// Deterministic synthetic data, distinct per seed.
fn dataset(seed: u64, rows: usize, cols: usize, spread: f64) -> Dataset {
    let data: Vec<f64> = (0..rows * cols)
        .map(|i| {
            let x = (seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(i as u64 * 1442695041))
                >> 11;
            ((x % 100_000) as f64 / 100_000.0) * spread - spread / 2.0
        })
        .collect();
    Dataset::new(
        Matrix::from_vec(rows, cols, data).unwrap(),
        (0..cols).map(|j| format!("c{j}")).collect(),
    )
    .unwrap()
}

/// Fits one tenant: the one-shot pipeline output (the conformance
/// reference), the fitting data, and the sealed session key bytes.
fn fit_tenant(seed: u64) -> (PipelineOutput, Dataset, Vec<u8>) {
    let fit_data = dataset(seed, 24, 3, 90.0);
    let pipeline = Pipeline::new(RbtConfig::uniform(
        PairwiseSecurityThreshold::uniform(0.05).unwrap(),
    ));
    let out = (0..50)
        .find_map(|attempt| {
            pipeline
                .run(&fit_data, &mut rng(seed + 1000 * attempt))
                .ok()
        })
        .expect("a feasible key within 50 draws");
    let key_bytes = ReleaseSession::from_pipeline_output(&out)
        .unwrap()
        .to_bytes();
    (out, fit_data, key_bytes)
}

fn assert_bitwise(a: &Dataset, b: &Dataset, what: &str) {
    assert_eq!(a.n_rows(), b.n_rows(), "{what}: row count");
    assert_eq!(a.n_cols(), b.n_cols(), "{what}: col count");
    for (x, y) in a
        .matrix()
        .as_slice()
        .iter()
        .zip(b.matrix().as_slice().iter())
    {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: cell bits differ");
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rbt-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// (tentpole) Seeded fault plans on the client's transport: stalls, torn
/// writes, delayed writes, and mid-receive disconnects, at pseudo-random
/// byte offsets. Connections die freely; every exchange that still yields
/// a `Transformed` response must be bitwise identical to the one-shot
/// pipeline, and the server must come out of the storm serving cleanly.
#[test]
fn seeded_fault_plans_never_corrupt_a_successful_response() {
    let (out, fit_data, key_bytes) = fit_tenant(101);
    let server = Server::spawn("127.0.0.1:0", Arc::new(SessionRegistry::new(4)), 8).unwrap();
    let addr = server.local_addr();
    Client::connect(addr)
        .unwrap()
        .load_key("t", key_bytes)
        .unwrap();

    let request = wire::Request::Transform {
        tenant: "t".to_string(),
        batch: fit_data.clone(),
    };
    let request_bytes = wire::encode_frame(&request.to_frame());
    // One exchange moves roughly a request out and a same-sized response
    // back; schedule faults inside the span a few exchanges cover.
    let traffic_hint = request_bytes.len() as u64 * 3;

    let mut successes = 0u64;
    let mut severed_runs = 0u64;
    for seed in 0..24u64 {
        let plan = FaultPlan::seeded(seed, traffic_hint);
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut faulty = plan.wrap(stream);
        for _round in 0..3 {
            if faulty.write_all(&request_bytes).is_err() {
                break;
            }
            if faulty.flush().is_err() {
                break;
            }
            match wire::read_frame(&mut faulty) {
                Ok(Some(frame)) => match wire::Response::from_frame(&frame) {
                    Ok(wire::Response::Transformed {
                        released,
                        out_of_range_rows,
                    }) => {
                        assert_bitwise(&released, &out.released, "faulted-transport release");
                        assert_eq!(out_of_range_rows, 0);
                        successes += 1;
                    }
                    // A typed server error (e.g. after our own torn
                    // write) is a legal outcome; a corrupt success is not.
                    Ok(wire::Response::Error { .. }) => break,
                    Ok(other) => panic!("seed {seed}: unexpected response {other:?}"),
                    Err(_) => break,
                },
                // Severed or timed out mid-response: outcome unknown,
                // which is exactly what the resilient client retries.
                Ok(None) | Err(_) => break,
            }
        }
        if faulty.is_severed() {
            severed_runs += 1;
        }
    }
    assert!(
        successes > 0,
        "the storm must leave some exchanges intact to prove conformance"
    );
    assert!(
        severed_runs > 0,
        "the storm must actually sever some connections to prove fault handling"
    );

    // The server took the whole storm and still serves a clean client.
    let mut clean = Client::connect(addr).unwrap();
    let (released, _) = clean.transform("t", &fit_data).unwrap();
    assert_bitwise(&released, &out.released, "post-storm release");

    let report = server.shutdown();
    assert_eq!(
        report.spawned, report.joined,
        "every connection thread must be joined, report: {report:?}"
    );
}

/// (tentpole) Graceful drain: requests already written when `shutdown`
/// begins are answered (bitwise-correct), each surviving connection gets
/// a `GoingAway` farewell, and the drain joins every thread it spawned
/// without force-severing anyone.
#[test]
fn graceful_drain_loses_no_in_flight_responses_and_no_threads() {
    const CONNS: usize = 4;
    let (out, fit_data, key_bytes) = fit_tenant(111);
    let server = Server::spawn("127.0.0.1:0", Arc::new(SessionRegistry::new(4)), 8).unwrap();
    let addr = server.local_addr();
    Client::connect(addr)
        .unwrap()
        .load_key("t", key_bytes)
        .unwrap();

    let request_bytes = wire::encode_frame(
        &wire::Request::Transform {
            tenant: "t".to_string(),
            batch: fit_data.clone(),
        }
        .to_frame(),
    );

    // All connections write their request, then the barrier falls and the
    // main thread starts the drain while the responses are in flight.
    let barrier = Arc::new(Barrier::new(CONNS + 1));
    let handles: Vec<_> = (0..CONNS)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            let request_bytes = request_bytes.clone();
            let expected = out.released.clone();
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                stream.write_all(&request_bytes).unwrap();
                stream.flush().unwrap();
                barrier.wait();
                // The in-flight response must arrive despite the drain.
                let frame = wire::read_frame(&mut stream).unwrap().unwrap();
                match wire::Response::from_frame(&frame).unwrap() {
                    wire::Response::Transformed { released, .. } => {
                        assert_bitwise(&released, &expected, "drained in-flight response")
                    }
                    other => panic!("conn {i}: expected Transformed, got {other:?}"),
                }
                // Then the farewell (or a clean close if the farewell
                // raced the severance).
                match wire::read_frame(&mut stream) {
                    Ok(Some(frame)) => match wire::Response::from_frame(&frame).unwrap() {
                        wire::Response::GoingAway { .. } => true,
                        other => panic!("conn {i}: expected GoingAway, got {other:?}"),
                    },
                    Ok(None) | Err(_) => false,
                }
            })
        })
        .collect();

    barrier.wait();
    let report = server.shutdown();
    let farewells = handles
        .into_iter()
        .map(|h| h.join())
        .filter(|joined| matches!(joined, Ok(true)))
        .count();

    assert_eq!(
        report.spawned, report.joined,
        "drain must join every thread, report: {report:?}"
    );
    assert_eq!(report.forced, 0, "nothing should hit the drain deadline");
    assert!(
        farewells > 0,
        "at least one connection should see the GoingAway farewell"
    );
}

/// Drain regression: a connection whose request is already written, but
/// which still sits in the kernel's accept queue when `shutdown` begins,
/// is admitted and answered — not refused with `GoingAway`, and not reset
/// when the listener closes.
#[test]
fn drain_answers_requests_still_waiting_in_the_accept_queue() {
    const ROUNDS: usize = 25;
    const CONNS: usize = 8;
    let (out, fit_data, key_bytes) = fit_tenant(113);
    let request_bytes = wire::encode_frame(
        &wire::Request::Transform {
            tenant: "t".to_string(),
            batch: fit_data,
        }
        .to_frame(),
    );

    let mut lost = 0;
    for round in 0..ROUNDS {
        let registry = Arc::new(SessionRegistry::new(4));
        registry.load_key("t", key_bytes.clone()).unwrap();
        let server = Server::spawn("127.0.0.1:0", registry, 8).unwrap();
        let addr = server.local_addr();
        let mut streams: Vec<TcpStream> = (0..CONNS)
            .map(|_| {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                stream.write_all(&request_bytes).unwrap();
                stream
            })
            .collect();
        let report = server.shutdown();

        for stream in &mut streams {
            let reply = wire::read_frame(stream)
                .ok()
                .flatten()
                .and_then(|frame| wire::Response::from_frame(&frame).ok());
            match reply {
                Some(wire::Response::Transformed { released, .. }) => {
                    assert_bitwise(&released, &out.released, "drained queued request")
                }
                _ => lost += 1,
            }
        }
        assert_eq!(report.spawned, report.joined, "round {round}: {report:?}");
        assert_eq!(report.forced, 0, "round {round}: {report:?}");
    }
    assert_eq!(
        lost,
        0,
        "{lost} of {} requests written before the drain went unanswered",
        ROUNDS * CONNS
    );
}

/// (tentpole) Server restart mid-stream: a resilient client following an
/// address provider rides a full stop-the-world restart (new port, same
/// registry) without surfacing a single error, and every response before
/// and after the restart is bitwise identical.
#[test]
fn resilient_client_rides_a_mid_stream_server_restart() {
    let (out, fit_data, key_bytes) = fit_tenant(121);
    let registry = Arc::new(SessionRegistry::new(4));
    let first = Server::spawn("127.0.0.1:0", Arc::clone(&registry), 8).unwrap();
    let addr_slot = Arc::new(Mutex::new(first.local_addr()));

    Client::connect(first.local_addr())
        .unwrap()
        .load_key("t", key_bytes)
        .unwrap();

    let policy = RetryPolicy {
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(100),
        ..RetryPolicy::default()
    };
    let provider_slot = Arc::clone(&addr_slot);
    let mut client = Client::connect_via(move || *provider_slot.lock().unwrap(), policy).unwrap();

    for _ in 0..3 {
        let (released, _) = client.transform("t", &fit_data).unwrap();
        assert_bitwise(&released, &out.released, "pre-restart release");
    }

    // Restart: new server on a fresh ephemeral port over the same
    // registry, then drain the old one (which farewells our client).
    let second = Server::spawn("127.0.0.1:0", Arc::clone(&registry), 8).unwrap();
    *addr_slot.lock().unwrap() = second.local_addr();
    let report = first.shutdown();
    assert_eq!(report.spawned, report.joined);

    for _ in 0..3 {
        let (released, _) = client
            .transform("t", &fit_data)
            .expect("the retry layer must absorb the restart");
        assert_bitwise(&released, &out.released, "post-restart release");
    }
    assert!(
        client.metrics().reconnects >= 2,
        "the client must have reconnected through the provider: {:?}",
        client.metrics()
    );

    let report = second.shutdown();
    assert_eq!(report.spawned, report.joined);
}

/// (satellite c) Kill-and-restart over the key store: a crash that leaves
/// the journal mid-put is replayed on reopen — interrupted puts complete,
/// torn temps are discarded in favour of the old key — and after a full
/// server restart every tenant re-serves bitwise.
#[test]
fn keystore_journal_replay_after_a_kill_re_serves_every_tenant_bitwise() {
    let dir = temp_dir("replay");
    let tenants: Vec<_> = (0..3u64)
        .map(|i| (format!("tenant-{i}"), fit_tenant(131 + i)))
        .collect();

    // First life: durable puts for tenants 0 and 1.
    {
        let store = KeyStore::open(&dir).unwrap();
        for (name, (_, _, key_bytes)) in tenants.iter().take(2) {
            store.put(name, key_bytes).unwrap();
        }
    }

    // The kill: fabricate the journal state of a process that died
    // mid-put. Layouts match the documented intent format
    // (RBTJ | name-len | name | payload-len | crc32, little-endian).
    let intent = |tenant: &str, bytes: &[u8]| {
        let mut rec = Vec::new();
        rec.extend_from_slice(b"RBTJ");
        rec.extend_from_slice(&(tenant.len() as u32).to_le_bytes());
        rec.extend_from_slice(tenant.as_bytes());
        rec.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        rec.extend_from_slice(&rbt::linalg::codec::crc32(bytes).to_le_bytes());
        rec
    };
    let journal = dir.join(".journal");
    // tenant-2: died between intent and rename — the put must win.
    let fresh = &tenants[2].1 .2;
    std::fs::write(journal.join("tenant-2.tmp"), fresh).unwrap();
    std::fs::write(journal.join("tenant-2.intent"), intent("tenant-2", fresh)).unwrap();
    // tenant-0: died mid-tmp-write of an update — the torn temp must be
    // discarded and the original key must stay authoritative.
    let torn_update = &tenants[1].1 .2;
    std::fs::write(
        journal.join("tenant-0.tmp"),
        &torn_update[..torn_update.len() / 2],
    )
    .unwrap();
    std::fs::write(
        journal.join("tenant-0.intent"),
        intent("tenant-0", torn_update),
    )
    .unwrap();
    // An orphan temp from an even earlier crash.
    std::fs::write(journal.join("ghost.tmp"), b"never committed").unwrap();

    // Second life: replay, load, serve — every tenant bitwise.
    let store = Arc::new(KeyStore::open(&dir).unwrap());
    let replay = store.replay_report();
    assert_eq!(replay.completed, 1, "tenant-2's put must be completed");
    assert_eq!(replay.discarded, 2, "torn temp + orphan temp discarded");

    let registry = Arc::new(SessionRegistry::new(8));
    let report = store.load_into(&registry).unwrap();
    assert_eq!(report.loaded, 3);
    assert_eq!(report.quarantined, 0);

    let server = Server::spawn("127.0.0.1:0", registry, 8).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for (name, (out, fit_data, _)) in &tenants {
        let (released, _) = client.transform(name, fit_data).unwrap();
        assert_bitwise(&released, &out.released, name);
    }
    drop(client);
    let report = server.shutdown();
    assert_eq!(report.spawned, report.joined);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A data-plane deadline of zero sheds every transform with a typed
/// `Deadline` frame (the connection survives), while the control plane
/// keeps answering; the shed count lands in the runtime counters.
#[test]
fn exhausted_deadlines_shed_with_a_typed_frame_not_a_dead_connection() {
    let (_, fit_data, key_bytes) = fit_tenant(141);
    let registry = Arc::new(SessionRegistry::new(4));
    registry.load_key("t", key_bytes).unwrap();
    let config = ServerConfig {
        data_deadline: Duration::ZERO,
        ..ServerConfig::default()
    };
    let server = Server::spawn_with("127.0.0.1:0", registry, config).unwrap();

    // No retries: a shed is transport-class (retry elsewhere is the
    // production answer), but here we want to observe the typed error.
    let mut client = Client::connect_with(server.local_addr(), RetryPolicy::no_retries()).unwrap();
    match client.transform("t", &fit_data) {
        Err(ClientError::Deadline {
            waited_ms: _,
            budget_ms,
        }) => assert_eq!(budget_ms, 0),
        other => panic!("expected a Deadline shed, got {other:?}"),
    }
    // Same connection still serves the control plane.
    client
        .ping()
        .expect("shedding must not kill the connection");
    let stats = client.stats().unwrap();
    assert!(
        stats.runtime.deadlines_shed >= 1,
        "runtime counters must record the shed: {:?}",
        stats.runtime
    );

    let report = server.shutdown();
    assert_eq!(report.spawned, report.joined);
}

/// The idle reaper closes a silent connection after `idle_timeout`, and a
/// peer that goes quiet *mid-frame* is severed once `stall_budget` burns;
/// both outcomes are distinguishable in the runtime counters.
#[test]
fn idle_connections_reap_and_mid_frame_stalls_sever() {
    let registry = Arc::new(SessionRegistry::new(4));
    let config = ServerConfig {
        read_tick: Duration::from_millis(10),
        idle_timeout: Duration::from_millis(60),
        stall_budget: Duration::from_millis(60),
        ..ServerConfig::default()
    };
    let server = Server::spawn_with("127.0.0.1:0", registry, config).unwrap();
    let addr = server.local_addr();

    // Idle: connect, say nothing. The server must close within roughly
    // idle_timeout; the blocking read observes EOF.
    let mut idle = TcpStream::connect(addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    match wire::read_frame(&mut idle) {
        Ok(None) => {}
        other => panic!("expected a clean close from the reaper, got {other:?}"),
    }

    // Stall: send half a header, then go quiet. The stall detector must
    // sever and answer with a typed error (best-effort).
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stalled.write_all(&wire::MAGIC[..2]).unwrap();
    stalled.flush().unwrap();
    // The severance can win the race against the error frame, so a close
    // with no frame is also legal.
    if let Ok(Some(frame)) = wire::read_frame(&mut stalled) {
        match wire::Response::from_frame(&frame).unwrap() {
            wire::Response::Error { code, .. } => assert_eq!(code, 4),
            other => panic!("expected the stall rejection, got {other:?}"),
        }
    }

    // Both events must be visible in the runtime counters.
    let stats = Client::connect(addr).unwrap().stats().unwrap();
    assert!(stats.runtime.idle_reaped >= 1, "{:?}", stats.runtime);
    assert!(stats.runtime.stalled >= 1, "{:?}", stats.runtime);

    let report = server.shutdown();
    assert_eq!(report.spawned, report.joined);
}

/// Pipelining far past the in-flight window is not a stall: complete
/// frames waiting behind a full window mean the *server* paused reading,
/// so the stall detector must stay quiet even with a stall budget far
/// below the time the backlog takes to serve — every request answers, in
/// order, on one surviving connection.
///
/// The burst is thousands of tiny frames so the whole backlog lands in
/// the server's reassembly buffer within a few reads; from then on the
/// peer sends nothing (it owes nothing) while the serialized backlog
/// takes many ticks to serve — exactly the state a naive "bytes pending
/// means mid-frame" check misreads as a stalled peer.
#[test]
fn pipelining_past_the_window_is_backpressure_not_a_stall() {
    let registry = Arc::new(SessionRegistry::new(4));
    let config = ServerConfig {
        read_tick: Duration::from_millis(5),
        // Far below the time the backlog takes to serve: any tick that
        // mistakes unserved complete frames for peer silence severs.
        stall_budget: Duration::from_millis(1),
        ..ServerConfig::default()
    };
    let server = Server::spawn_with("127.0.0.1:0", registry, config).unwrap();
    let addr = server.local_addr();

    const PIPELINED: usize = 2000;
    let mut reader = TcpStream::connect(addr).unwrap();
    reader
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = reader.try_clone().unwrap();
    let bytes = wire::encode_frame(&wire::Request::Ping.to_frame());
    let burst: Vec<u8> = bytes.repeat(PIPELINED);
    writer.write_all(&burst).unwrap();
    writer.flush().unwrap();
    for i in 0..PIPELINED {
        let frame = wire::read_frame(&mut reader).unwrap().unwrap();
        match wire::Response::from_frame(&frame).unwrap() {
            wire::Response::Pong => {}
            other => panic!("response {i}: expected Pong, got {other:?}"),
        }
    }
    let stats = Client::connect(addr).unwrap().stats().unwrap();
    assert_eq!(
        stats.runtime.stalled, 0,
        "backpressure misread as a stall: {:?}",
        stats.runtime
    );
    let report = server.shutdown();
    assert_eq!(report.spawned, report.joined);
}

/// A peer that pipelines past the window and reads none of its answers
/// holds the window with them, not with work the daemon owes it: once it
/// has taken no answer and sent no byte for `idle_timeout` it is reaped
/// while it still holds the socket open — it cannot keep a connection
/// slot and `window` 1 MiB frames for as long as it likes. Everything it
/// reads afterwards is its own answers, bit for bit, until the daemon,
/// having flushed them, closes the connection, and the drain then has
/// nothing left to wait for.
#[test]
fn a_peer_that_reads_no_answers_is_reaped_as_idle() {
    const WINDOW: usize = 8;
    // More than the window and the kernel's buffers hold between them.
    const REQUESTS: usize = 4 * WINDOW;
    let fitted = Release::of(&dataset(161, 256, 16, 90.0))
        .with_method(Method::Rbt)
        .fit(&mut rng(162))
        .unwrap();
    let registry = Arc::new(SessionRegistry::new(4));
    registry.load_key("t", fitted.to_bytes().unwrap()).unwrap();
    let drain_deadline = Duration::from_secs(20);
    let config = ServerConfig {
        window: WINDOW,
        read_tick: Duration::from_millis(10),
        idle_timeout: Duration::from_millis(200),
        stall_budget: Duration::from_millis(50),
        drain_deadline,
        ..ServerConfig::default()
    };
    let server = Server::spawn_with("127.0.0.1:0", registry, config).unwrap();
    let addr = server.local_addr();

    let batch = dataset(163, 8192, 16, 90.0);
    let expected = fitted.transform_batch(&batch).unwrap().released;
    let frame = wire::encode_frame(
        &wire::Request::Transform {
            tenant: "t".to_string(),
            batch,
        }
        .to_frame(),
    );
    let mut reader = TcpStream::connect(addr).unwrap();
    reader
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = reader.try_clone().unwrap();
    // The writer blocks once the daemon stops reading; its last write
    // fails when the daemon closes the connection.
    let writing = std::thread::spawn(move || {
        for _ in 0..REQUESTS {
            if writer.write_all(&frame).is_err() {
                return;
            }
        }
    });

    let give_up = Instant::now() + Duration::from_secs(10);
    loop {
        let runtime = Client::connect(addr).unwrap().stats().unwrap().runtime;
        if runtime.idle_reaped >= 1 {
            assert_eq!(runtime.stalled, 0, "{runtime:?}");
            break;
        }
        assert!(
            Instant::now() < give_up,
            "a peer holding unread answers was never reaped: {runtime:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    loop {
        match wire::read_frame(&mut reader) {
            Ok(Some(frame)) => match wire::Response::from_frame(&frame).unwrap() {
                wire::Response::Transformed { released, .. } => {
                    assert_bitwise(&released, &expected, "answer after the reap")
                }
                other => panic!("expected Transformed, got {other:?}"),
            },
            Ok(None) => break,
            // The daemon's close resets the stream when requests it never
            // read are still in its buffers.
            Err(wire::WireError::Io {
                kind: ErrorKind::ConnectionReset | ErrorKind::UnexpectedEof,
                ..
            }) => break,
            Err(e) => panic!("expected the daemon to close the connection, got {e}"),
        }
    }
    writing.join().unwrap();

    let started = Instant::now();
    let report = server.shutdown();
    assert!(started.elapsed() < drain_deadline, "{report:?}");
    assert_eq!(report.forced, 0, "{report:?}");
    assert_eq!(report.spawned, report.joined, "{report:?}");
}

/// A client that pipelines past the window and then half-closes still
/// gets every buffered request answered before the connection ends — and
/// when the half-close cuts a frame in the middle, the buffered complete
/// requests are served *before* the one typed mid-frame error.
#[test]
fn half_close_after_deep_pipelining_serves_the_whole_backlog() {
    let (out, fit_data, key_bytes) = fit_tenant(152);
    let registry = Arc::new(SessionRegistry::new(4));
    registry.load_key("t", key_bytes).unwrap();
    let server = Server::spawn_with("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    const PIPELINED: usize = 24; // 3x the default window of 8
    let request = wire::Request::Transform {
        tenant: "t".to_string(),
        batch: fit_data.clone(),
    };
    let bytes = wire::encode_frame(&request.to_frame());

    // Clean half-close between frames: every buffered request answers,
    // then EOF — no bogus malformed-frame error.
    let mut reader = TcpStream::connect(addr).unwrap();
    reader
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = reader.try_clone().unwrap();
    for _ in 0..PIPELINED {
        writer.write_all(&bytes).unwrap();
    }
    writer.flush().unwrap();
    writer.shutdown(Shutdown::Write).unwrap();
    for i in 0..PIPELINED {
        let frame = wire::read_frame(&mut reader).unwrap().unwrap();
        match wire::Response::from_frame(&frame).unwrap() {
            wire::Response::Transformed { released, .. } => {
                assert_bitwise(&released, &out.released, "half-closed pipeline")
            }
            other => panic!("response {i}: expected Transformed, got {other:?}"),
        }
    }
    match wire::read_frame(&mut reader) {
        Ok(None) => {}
        other => panic!("expected a clean close after the backlog, got {other:?}"),
    }

    // Half-close mid-frame: the complete requests answer first, then the
    // one typed mid-frame error, then the close.
    let mut reader = TcpStream::connect(addr).unwrap();
    reader
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = reader.try_clone().unwrap();
    for _ in 0..PIPELINED {
        writer.write_all(&bytes).unwrap();
    }
    writer.write_all(&bytes[..bytes.len() / 2]).unwrap();
    writer.flush().unwrap();
    writer.shutdown(Shutdown::Write).unwrap();
    for i in 0..PIPELINED {
        let frame = wire::read_frame(&mut reader).unwrap().unwrap();
        match wire::Response::from_frame(&frame).unwrap() {
            wire::Response::Transformed { released, .. } => {
                assert_bitwise(&released, &out.released, "torn-tail pipeline")
            }
            other => panic!("response {i}: expected Transformed, got {other:?}"),
        }
    }
    // The torn trailing frame is answered with the typed error; the
    // severance can win the race against the final write, so a close
    // with no frame is also legal.
    if let Ok(Some(frame)) = wire::read_frame(&mut reader) {
        match wire::Response::from_frame(&frame).unwrap() {
            wire::Response::Error { code, .. } => assert_eq!(code, 4),
            other => panic!("expected the mid-frame rejection, got {other:?}"),
        }
    }

    let report = server.shutdown();
    assert_eq!(report.spawned, report.joined);
}

/// (satellite b) Arrivals past `max_conns` are refused with a typed
/// `Error` frame (code 8, the unavailable family), not a silent RST, and
/// the refusal is counted; capacity frees as connections close.
#[test]
fn connections_past_the_cap_are_refused_with_a_typed_frame() {
    let registry = Arc::new(SessionRegistry::new(4));
    let config = ServerConfig {
        max_conns: 2,
        ..ServerConfig::default()
    };
    let server = Server::spawn_with("127.0.0.1:0", registry, config).unwrap();
    let addr = server.local_addr();

    let mut first = Client::connect(addr).unwrap();
    let mut second = Client::connect(addr).unwrap();
    first.ping().unwrap();
    second.ping().unwrap();

    // Third arrival: refused with the unavailable code before any request
    // is sent.
    let mut refused = TcpStream::connect(addr).unwrap();
    refused
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let frame = wire::read_frame(&mut refused).unwrap().unwrap();
    match wire::Response::from_frame(&frame).unwrap() {
        wire::Response::Error { code, message } => {
            assert_eq!(code, wire::CODE_UNAVAILABLE, "{message}");
        }
        other => panic!("expected the capacity refusal, got {other:?}"),
    }

    // Closing one connection frees a slot.
    drop(first);
    let mut third = loop {
        match Client::connect(addr) {
            Ok(mut c) => match c.ping() {
                Ok(()) => break c,
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            },
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    let stats = third.stats().unwrap();
    assert!(stats.runtime.refused >= 1, "{:?}", stats.runtime);
    drop(second);
    drop(third);

    let report = server.shutdown();
    assert_eq!(report.spawned, report.joined);
}

/// The circuit breaker opens after consecutive transport failures, fails
/// fast without touching the network, and half-opens after the cooldown —
/// recovering as soon as a replacement server is reachable.
#[test]
fn circuit_breaker_opens_fails_fast_and_recovers_through_half_open() {
    let registry = Arc::new(SessionRegistry::new(4));
    let first = Server::spawn("127.0.0.1:0", Arc::clone(&registry), 8).unwrap();
    let addr_slot = Arc::new(Mutex::new(first.local_addr()));

    let policy = RetryPolicy {
        max_retries: 0,
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_millis(100),
        ..RetryPolicy::default()
    };
    let provider_slot = Arc::clone(&addr_slot);
    let mut client = Client::connect_via(move || *provider_slot.lock().unwrap(), policy).unwrap();
    client.ping().unwrap();

    // Kill the server: the next pings fail transport-class until the
    // breaker trips.
    let report = first.shutdown();
    assert_eq!(report.spawned, report.joined);
    for i in 0..2 {
        match client.ping() {
            Err(ClientError::CircuitOpen { .. }) => panic!("breaker tripped early, ping {i}"),
            Err(_) => {}
            Ok(()) => panic!("ping {i} cannot succeed against a dead server"),
        }
    }
    match client.ping() {
        Err(ClientError::CircuitOpen { failures }) => assert!(failures >= 2),
        other => panic!("expected the breaker to fail fast, got {other:?}"),
    }
    assert!(client.metrics().breaker_fast_fails >= 1);

    // Recovery: a replacement comes up, the cooldown passes, and the
    // half-open probe closes the breaker again.
    let second = Server::spawn("127.0.0.1:0", registry, 8).unwrap();
    *addr_slot.lock().unwrap() = second.local_addr();
    std::thread::sleep(Duration::from_millis(150));
    client
        .ping()
        .expect("the half-open probe must reach the replacement server");
    client.ping().expect("the breaker must be closed again");

    let report = second.shutdown();
    assert_eq!(report.spawned, report.joined);
}

/// SIGHUP-style hot reload: keys dropped into the directory while the
/// server runs are picked up by the `ReloadKeys` opcode, corrupt drops
/// are quarantined instead of breaking the reload, and the new tenant
/// serves bitwise.
#[test]
fn reload_keys_hot_loads_new_tenants_and_quarantines_corrupt_drops() {
    let dir = temp_dir("hot-reload");
    let (out_a, fit_a, key_a) = fit_tenant(151);
    let (out_b, fit_b, key_b) = fit_tenant(152);

    let store = Arc::new(KeyStore::open(&dir).unwrap());
    store.put("a", &key_a).unwrap();
    let registry = Arc::new(SessionRegistry::new(8));
    store.load_into(&registry).unwrap();
    let config = ServerConfig {
        keystore: Some(Arc::clone(&store)),
        ..ServerConfig::default()
    };
    let server = Server::spawn_with("127.0.0.1:0", registry, config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let (released, _) = client.transform("a", &fit_a).unwrap();
    assert_bitwise(&released, &out_a.released, "initial tenant");
    match client.transform("b", &fit_b) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, 2, "b is not loaded yet"),
        other => panic!("expected unknown-tenant, got {other:?}"),
    }

    // Operator drops a new key and one corrupt file, then reloads.
    store.put("b", &key_b).unwrap();
    let mut torn = key_a.clone();
    torn.truncate(torn.len() / 3);
    store.put("torn", &torn).unwrap();
    let (loaded, quarantined) = client.reload_keys().unwrap();
    assert_eq!(loaded, 2, "a and b decode");
    assert_eq!(quarantined, 1, "the torn drop is quarantined");

    let (released, _) = client.transform("b", &fit_b).unwrap();
    assert_bitwise(&released, &out_b.released, "hot-loaded tenant");
    let stats = client.stats().unwrap();
    assert!(stats.runtime.reloads >= 1, "{:?}", stats.runtime);

    drop(client);
    let report = server.shutdown();
    assert_eq!(report.spawned, report.joined);
    std::fs::remove_dir_all(&dir).unwrap();
}
