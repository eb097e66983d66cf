//! The federated serving battery: N owner *clients* drive a real TCP
//! server's `Fed*` opcode family end-to-end and the joint release must be
//! bit-identical to the pooled single-owner baseline — the same golden
//! pin the in-process harness enforces, now across the wire. Plus the
//! version-skew contract: a frame tagged with a future wire version (and
//! a valid checksum) earns a typed error on **both** sides while the
//! connection keeps serving.

use std::io::Write;
use std::net::TcpListener;
use std::sync::Arc;
use std::thread;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rbt::cluster::{KMeans, KMeansInit};
use rbt::core::{PairwiseSecurityThreshold, Pipeline, RbtConfig};
use rbt::data::synth::GaussianMixture;
use rbt::data::{Dataset, Normalization};
use rbt::linalg::codec::{crc32, ByteWriter};
use rbt::protocol::{FederationConfig, KeyPolicy, Message, Owner, Party};
use rbt::server::{wire, Client, ClientError, Server, SessionRegistry, WireError};
use rbt::Matrix;

fn spawn_server() -> Server {
    let registry = Arc::new(SessionRegistry::new(8));
    Server::spawn("127.0.0.1:0", registry, 8).unwrap()
}

fn fixture(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let gm = GaussianMixture::well_separated(3, cols, 10.0, 1.2).unwrap();
    gm.sample(rows, &mut rng).matrix
}

/// Splits `m` into `n` contiguous row blocks (deliberately uneven).
fn partition(m: &Matrix, n: usize) -> Vec<Matrix> {
    let rows = m.rows();
    let mut cuts = vec![0];
    for i in 1..n {
        cuts.push(rows * i * i / (n * n) + i);
    }
    cuts.push(rows);
    cuts.windows(2)
        .map(|w| {
            let rows_refs: Vec<&[f64]> = (w[0]..w[1]).map(|r| m.row(r)).collect();
            Matrix::from_rows(&rows_refs).unwrap()
        })
        .collect()
}

fn fed_config(session: u64, n_cols: usize, owners: u16, seed: u64) -> FederationConfig {
    FederationConfig {
        session,
        n_cols,
        owners,
        normalization: Normalization::zscore_paper(),
        rbt: RbtConfig::uniform(PairwiseSecurityThreshold::new(0.2, 0.2).unwrap()),
        key_policy: KeyPolicy::Shared,
        seed,
        kmeans_k: 3,
        kmeans_max_iters: 128,
    }
}

fn encode_config(cfg: &FederationConfig) -> Vec<u8> {
    let mut w = ByteWriter::new();
    cfg.encode_into(&mut w);
    w.into_bytes()
}

/// The pooled single-owner baseline: `Pipeline` then first-k k-means.
fn pooled_baseline(pooled: &Matrix, cfg: &FederationConfig) -> (Vec<usize>, f64) {
    let dataset = Dataset::from_matrix(pooled.clone());
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let out = Pipeline::new(cfg.rbt.clone())
        .with_normalization(cfg.normalization)
        .run(&dataset, &mut rng)
        .unwrap();
    let kmeans = KMeans::new(cfg.kmeans_k)
        .unwrap()
        .with_init(KMeansInit::FirstK)
        .with_max_iters(cfg.kmeans_max_iters);
    let mut krng = StdRng::seed_from_u64(cfg.seed);
    let fit = kmeans.fit(out.released.matrix(), &mut krng).unwrap();
    (fit.labels, fit.inertia)
}

/// Drives one owner's protocol turn over its own client connection:
/// sends `outbox`, decodes the drained mailbox, feeds it to the owner
/// state machine, and returns the newly produced outbound messages.
fn owner_turn(
    client: &mut Client,
    session: u64,
    id: u16,
    owner: &mut Owner,
    outbox: Vec<Vec<u8>>,
) -> Vec<Vec<u8>> {
    let inbound = client.fed_exchange(session, id, outbox).unwrap();
    let mut next = Vec::new();
    for bytes in inbound {
        let msg = Message::decode(&bytes).unwrap();
        for out in owner.handle(&msg).unwrap() {
            // Owner-originated messages all go to the hub, which routes
            // by kind; an owner never addresses another owner directly.
            assert!(!matches!(out.to, Party::Owner(_)));
            next.push(out.msg.encode());
        }
    }
    next
}

/// Golden pin over TCP: a 2-owner and a 3-owner federation, each owner a
/// separate client connection, reproduce the pooled baseline's joint
/// clustering bit-for-bit.
#[test]
fn federation_over_tcp_matches_pooled_baseline() {
    let server = spawn_server();
    let addr = server.local_addr();
    let pooled = fixture(180, 4, 11);

    for owners in [2u16, 3] {
        let session = 0xFED_0000 + u64::from(owners);
        let cfg = fed_config(session, 4, owners, 2026);
        let (baseline_labels, baseline_inertia) = pooled_baseline(&pooled, &cfg);

        let mut opener = Client::connect(addr).unwrap();
        assert_eq!(opener.fed_open(encode_config(&cfg)).unwrap(), session);
        // No owner has joined yet: the result poll must answer "in
        // flight", not an error.
        assert_eq!(opener.fed_result(session).unwrap(), None);

        let parts = partition(&pooled, owners as usize);
        let mut parties: Vec<(Client, Owner, Vec<Vec<u8>>)> = parts
            .into_iter()
            .enumerate()
            .map(|(i, block)| {
                (
                    Client::connect(addr).unwrap(),
                    Owner::new(i as u16, session, block).unwrap(),
                    Vec::new(),
                )
            })
            .collect();

        // Round-robin polling until the hub reports the joint result.
        let mut summary = None;
        'poll: for _ in 0..10_000 {
            for (i, (client, owner, outbox)) in parties.iter_mut().enumerate() {
                let pending = std::mem::take(outbox);
                *outbox = owner_turn(client, session, i as u16, owner, pending);
            }
            if parties.iter().all(|(_, _, outbox)| outbox.is_empty()) {
                if let Some(bytes) = opener.fed_result(session).unwrap() {
                    summary = Some(bytes);
                    break 'poll;
                }
            }
        }
        let summary = summary.expect("federation completed within the polling budget");
        let Message::JointDataset { summary, .. } = Message::decode(&summary).unwrap() else {
            panic!("fed_result must return an encoded JointDataset message");
        };

        assert_eq!(summary.rows as usize, pooled.rows(), "{owners}-owner rows");
        let labels: Vec<u32> = baseline_labels.iter().map(|&l| l as u32).collect();
        assert_eq!(summary.labels, labels, "{owners}-owner labels over TCP");
        assert_eq!(
            summary.inertia.to_bits(),
            baseline_inertia.to_bits(),
            "{owners}-owner inertia bits over TCP"
        );

        // Closing the session frees the hub slot; a second close reports
        // it gone, and further polls are typed usage errors.
        assert!(opener.fed_close(session).unwrap());
        assert!(!opener.fed_close(session).unwrap());
        match opener.fed_result(session) {
            Err(ClientError::Server { code: 2, message }) => {
                assert!(message.contains("federation"), "got: {message}")
            }
            other => panic!("expected a code-2 server error, got {other:?}"),
        }
    }
    server.shutdown();
}

/// Federation failures over the wire are typed `Error` frames in the
/// documented code families — and a corrupted protocol message is
/// rejected *before* delivery, so the session survives a client retry.
#[test]
fn federation_wire_errors_are_typed_and_nonfatal() {
    let server = spawn_server();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();

    // Unknown session: usage error (code 2).
    match client.fed_exchange(404, 0, Vec::new()) {
        Err(ClientError::Server { code: 2, .. }) => {}
        other => panic!("expected code-2, got {other:?}"),
    }

    // Undecodable session config: codec error (code 4).
    match client.fed_open(vec![1, 2, 3]) {
        Err(ClientError::Server { code: 4, .. }) => {}
        other => panic!("expected code-4, got {other:?}"),
    }

    let cfg = fed_config(9000, 4, 2, 77);
    assert_eq!(client.fed_open(encode_config(&cfg)).unwrap(), 9000);

    // Duplicate open: usage error, first session untouched.
    match client.fed_open(encode_config(&cfg)) {
        Err(ClientError::Server { code: 2, .. }) => {}
        other => panic!("expected code-2, got {other:?}"),
    }

    // A flipped byte in an encoded protocol message fails its CRC at
    // decode (code 4) without reaching the session's state machines...
    let parts = partition(&fixture(60, 4, 3), 2);
    let mut owner = Owner::new(0, 9000, parts[0].clone()).unwrap();
    let announce = client.fed_exchange(9000, 0, Vec::new()).unwrap();
    assert_eq!(announce.len(), 1);
    let join: Vec<Vec<u8>> = {
        let msg = Message::decode(&announce[0]).unwrap();
        owner
            .handle(&msg)
            .unwrap()
            .into_iter()
            .map(|o| o.msg.encode())
            .collect()
    };
    let mut corrupted = join.clone();
    corrupted[0][2] ^= 0x40;
    match client.fed_exchange(9000, 0, corrupted) {
        Err(ClientError::Server { code: 4, .. }) => {}
        other => panic!("expected code-4, got {other:?}"),
    }
    // ...so resending the intact message still succeeds.
    client.fed_exchange(9000, 0, join).unwrap();

    server.shutdown();
}

/// Re-tags an encoded frame with a foreign wire version and re-seals the
/// CRC trailer, producing exactly what a newer-protocol peer would send.
fn stomp_version(frame: &wire::Frame, version: u16) -> Vec<u8> {
    let mut bytes = wire::encode_frame(frame);
    bytes[4..6].copy_from_slice(&version.to_le_bytes());
    let crc_at = bytes.len() - wire::TRAILER_LEN;
    let crc = crc32(&bytes[..crc_at]);
    bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
    bytes
}

/// Server side of the version-skew contract: a v3- or v1-tagged frame
/// with a valid checksum earns a typed code-4 error naming the version —
/// and because the checksum is verified before the version, the frame is
/// fully consumed and the *same connection* keeps serving.
#[test]
fn version_skewed_frame_is_rejected_without_dropping_the_connection() {
    let server = spawn_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.ping().unwrap();

    // Two skewed frames back to back: the reader must survive both.
    for version in [3, 1] {
        let skewed = stomp_version(&wire::Request::Ping.to_frame().with_request_id(9), version);
        client.stream_mut().write_all(&skewed).unwrap();
        match client.receive() {
            Err(ClientError::Server { code: 4, message }) => {
                assert!(
                    message.contains(&format!("version {version}")),
                    "error should name the version skew, got: {message}"
                );
            }
            other => panic!("expected a typed code-4 error, got {other:?}"),
        }
    }

    // Still the same TCP connection — no reconnect has happened — and it
    // still serves requests.
    client.ping().unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.runtime.accepted, 1, "no reconnect happened");
    server.shutdown();
}

/// Client side of the same contract: a response tagged with a future
/// version surfaces as a typed [`WireError::UnsupportedVersion`] and the
/// client's connection stays usable for the next call.
#[test]
fn client_reports_version_skew_as_typed_error_and_keeps_the_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let mock = thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        // First request: answer with a version-3 frame (valid CRC).
        let frame = wire::read_frame(&mut stream).unwrap().unwrap();
        let skewed = stomp_version(
            &wire::Response::Pong
                .to_frame()
                .with_request_id(frame.request_id),
            3,
        );
        stream.write_all(&skewed).unwrap();
        // Second request: answer properly, proving the client reused the
        // connection.
        let frame = wire::read_frame(&mut stream).unwrap().unwrap();
        let pong = wire::Response::Pong
            .to_frame()
            .with_request_id(frame.request_id);
        wire::write_frame(&mut stream, &pong).unwrap();
        // Swallow the goodbye, if any.
        let _ = wire::read_frame(&mut stream);
    });

    let mut client = Client::connect(addr).unwrap();
    match client.ping() {
        Err(ClientError::Wire(WireError::UnsupportedVersion { found: 3 })) => {}
        other => panic!("expected a typed UnsupportedVersion, got {other:?}"),
    }
    client.ping().unwrap();
    assert_eq!(
        client.metrics().reconnects,
        1,
        "only the initial connect — version skew must not burn the connection"
    );
    drop(client);
    mock.join().unwrap();
}

/// A mock TcpStream-level check is not enough for the server's
/// frame-reassembly path: interleave a skewed frame *between* two
/// pipelined valid requests and both must still be answered.
#[test]
fn version_skew_between_pipelined_requests_loses_nothing() {
    let server = spawn_server();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let first = wire::Request::Ping.to_frame().with_request_id(21);
    let skewed = stomp_version(&wire::Request::Stats.to_frame().with_request_id(22), 7);
    let second = wire::Request::Ping.to_frame().with_request_id(23);
    let mut bytes = wire::encode_frame(&first);
    bytes.extend_from_slice(&skewed);
    bytes.extend_from_slice(&wire::encode_frame(&second));
    client.stream_mut().write_all(&bytes).unwrap();

    let mut pongs = 0;
    let mut version_errors = 0;
    for _ in 0..3 {
        match client.receive() {
            Ok(wire::Response::Pong) => pongs += 1,
            Err(ClientError::Server { code: 4, message }) if message.contains("version") => {
                version_errors += 1
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
    assert_eq!((pongs, version_errors), (2, 1));
    server.shutdown();
}
