//! The connection-churn battery: a long-lived daemon must survive an
//! unbounded stream of short-lived connections without accumulating
//! state — the live-connection count bounded by what is actually open,
//! many concurrent connections served on a fixed thread count, and the
//! admission counters exact: every arrival lands in exactly one of
//! `accepted` or `refused`, and a refusal bumps nothing else.
//!
//! CI executes the battery under `RBT_THREADS=1` and the default pool
//! width; the pool reads the variable at call time, so no per-test
//! plumbing is needed.

use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use rbt::server::{wire, Client, Server, ServerConfig, SessionRegistry};

/// The herd test reads the process-wide thread count, which any other
/// test's server would disturb, so the battery's tests run one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static BATTERY: Mutex<()> = Mutex::new(());
    BATTERY.lock().unwrap_or_else(|e| e.into_inner())
}

fn spawn(max_conns: usize) -> Server {
    let config = ServerConfig {
        max_conns,
        ..ServerConfig::default()
    };
    Server::spawn_with("127.0.0.1:0", Arc::new(SessionRegistry::new(4)), config).unwrap()
}

/// The process's OS thread count, where `/proc` exposes it.
fn process_threads() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
}

/// Polls `cond` until it holds or `timeout` elapses; panics with `what`
/// on expiry so the failure names the invariant, not the sleep.
fn wait_until(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Sequential connect/request/disconnect cycles leak nothing: mid-run,
/// the live count (connections admitted but not yet retired) stays
/// bounded by a small constant, independent of how many connections have
/// churned through, and at the end every admitted connection is
/// accounted finished with exact counters.
#[test]
fn sequential_churn_keeps_live_and_backlog_bounded() {
    let _serial = serial();
    const CYCLES: u64 = 200;
    // The churn bound: how many connections may be awaiting retirement
    // at once under strictly sequential churn. Generous for slow CI, but
    // orders of magnitude below CYCLES — the point is that the count
    // does not grow with churn.
    const BOUND: u64 = 32;

    let server = spawn(64);
    let addr = server.local_addr();

    for cycle in 0..CYCLES {
        let mut client = Client::connect(addr).unwrap();
        client.ping().unwrap();
        drop(client);
        if cycle % 50 == 49 {
            let acct = server.accounting();
            assert!(
                acct.live <= BOUND,
                "cycle {cycle}: {} live connections (bound {BOUND})",
                acct.live
            );
        }
    }

    // Quiesce: the last disconnect is observed asynchronously.
    wait_until(
        "all churned connections retired",
        Duration::from_secs(10),
        || server.accounting().live == 0,
    );
    let acct = server.accounting();
    assert_eq!(acct.spawned, CYCLES, "admissions");
    assert_eq!(acct.finished, CYCLES, "retirements");

    // Counter exactness, read over the wire like an operator would:
    // every churned connection was accepted and ended as a clean peer
    // disconnect; nothing was refused, reaped, or severed.
    let mut probe = Client::connect(addr).unwrap();
    let stats = probe.stats().unwrap();
    assert_eq!(stats.runtime.accepted, CYCLES + 1, "accepted");
    assert_eq!(stats.runtime.refused, 0, "refused");
    assert_eq!(stats.runtime.disconnects, CYCLES, "disconnects");
    assert_eq!(stats.runtime.malformed, 0, "malformed");
    assert_eq!(stats.runtime.idle_reaped, 0, "idle_reaped");
    assert_eq!(stats.runtime.stalled, 0, "stalled");
    drop(probe);

    let report = server.shutdown();
    assert_eq!(report.spawned, CYCLES + 1, "report admissions");
    assert_eq!(report.joined, report.spawned, "spawned == joined");
    assert_eq!(report.forced, 0, "nothing force-severed");
}

/// The thousand-connection soak: the reactor absorbs ~10^3 short-lived
/// connections on its single event loop plus the fixed worker pool, and
/// every connection is retired by the end.
#[test]
fn thousand_connection_soak_on_the_reactor() {
    let _serial = serial();
    const CYCLES: u64 = 1000;
    let server = spawn(64);
    let addr = server.local_addr();

    for cycle in 0..CYCLES {
        let mut client = Client::connect(addr).unwrap();
        client.ping().unwrap();
        drop(client);
        if cycle % 100 == 99 {
            let acct = server.accounting();
            assert!(
                acct.live <= 32,
                "cycle {cycle}: {} live connections under sequential churn",
                acct.live
            );
        }
    }

    wait_until("soak connections retired", Duration::from_secs(20), || {
        server.accounting().live == 0
    });
    let acct = server.accounting();
    assert_eq!(acct.spawned, CYCLES);
    assert_eq!(acct.finished, CYCLES);

    let report = server.shutdown();
    assert_eq!(report.spawned, CYCLES);
    assert_eq!(report.joined, CYCLES);
    assert_eq!(report.forced, 0);
}

/// Many live connections ride a fixed thread count: a herd of 256
/// clients held open at once, each answering two `Ping`s, is admitted in
/// full without the process gaining threads, and the drain retires every
/// one of them without force-severing any.
#[test]
fn many_held_connections_ride_a_fixed_thread_count() {
    let _serial = serial();
    const HERD: u64 = 256;
    let server = spawn(2 * HERD as usize);
    let addr = server.local_addr();
    let threads_before = process_threads();

    let mut herd: Vec<Client> = (0..HERD).map(|_| Client::connect(addr).unwrap()).collect();
    for _ in 0..2 {
        for client in &mut herd {
            client.ping().unwrap();
        }
    }
    assert_eq!(server.accounting().live, HERD, "every herd member is live");
    // The slack of two covers the test harness starting the next test's
    // thread (which then waits on `serial`) while the herd connects.
    if let (Some(before), Some(after)) = (threads_before, process_threads()) {
        assert!(
            after <= before + 2,
            "{HERD} held connections grew the process from {before} to {after} threads"
        );
    }

    let report = server.shutdown();
    drop(herd);
    assert_eq!(report.spawned, HERD, "admissions");
    assert_eq!(report.joined, report.spawned, "spawned == joined");
    assert_eq!(report.forced, 0, "nothing force-severed");
}

/// A capacity refusal bumps `refused` and nothing else: the turned-away
/// arrival gets the typed unavailable frame, is never admitted (`spawned`
/// unchanged), and leaves the drain/disconnect/malformed counters
/// untouched.
#[test]
fn refusal_bumps_only_the_refused_counter() {
    let _serial = serial();
    let server = spawn(1);
    let addr = server.local_addr();

    let mut admitted = Client::connect(addr).unwrap();
    admitted.ping().unwrap();

    let mut turned_away = TcpStream::connect(addr).unwrap();
    turned_away
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let frame = wire::read_frame(&mut turned_away).unwrap().unwrap();
    match wire::Response::from_frame(&frame).unwrap() {
        wire::Response::Error { code, message } => {
            assert_eq!(code, wire::CODE_UNAVAILABLE, "{message}");
        }
        other => panic!("expected the capacity refusal, got {other:?}"),
    }
    drop(turned_away);

    // The refusal may land before or after our stats read; wait for the
    // counter rather than racing it.
    wait_until("refusal counted", Duration::from_secs(5), || {
        admitted
            .stats()
            .map(|s| s.runtime.refused == 1)
            .unwrap_or(false)
    });
    let stats = admitted.stats().unwrap();
    assert_eq!(stats.runtime.accepted, 1, "accepted");
    assert_eq!(stats.runtime.refused, 1, "refused");
    assert_eq!(stats.runtime.disconnects, 0, "disconnects");
    assert_eq!(stats.runtime.drained, 0, "drained");
    assert_eq!(stats.runtime.malformed, 0, "malformed");
    let acct = server.accounting();
    assert_eq!(acct.spawned, 1, "the refusal was never admitted");

    drop(admitted);
    wait_until(
        "admitted connection retired",
        Duration::from_secs(10),
        || server.accounting().live == 0,
    );
    let report = server.shutdown();
    assert_eq!(report.spawned, 1);
    assert_eq!(report.joined, 1);
}
