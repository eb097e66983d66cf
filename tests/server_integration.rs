//! The serving-layer battery: the multi-tenant daemon must be
//! *conformant* (server responses bit-identical to the in-process
//! one-shot `Pipeline` / `ReleaseSession` path, per tenant, under
//! concurrency, before and after LRU eviction) and *fault-contained*
//! (every malformed frame and every disconnect is a typed rejection that
//! leaves the server serving everyone else).
//!
//! Everything here runs under both threading modes: CI executes the suite
//! once with default threads and once with `RBT_THREADS=1` (the pool reads
//! the variable at call time, so no per-test plumbing is needed).

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;

use rand::SeedableRng;
use rbt::api::decode_fitted;
use rbt::core::{Pipeline, PipelineOutput, RbtConfig, ReleaseSession};
use rbt::server::{wire, Client, ClientError, Server, SessionRegistry};
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
/// reference), the fitting data, and the sealed session key bytes the
/// server will decode. Retries seeds until the 0.05 threshold is feasible.
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

fn spawn_server(capacity: usize) -> Server {
    Server::spawn("127.0.0.1:0", Arc::new(SessionRegistry::new(capacity)), 8).unwrap()
}

/// (a) Concurrent multi-tenant transforms are bit-identical to the
/// one-shot `Pipeline` release per tenant, and the inverse path matches
/// the in-process session inverse, all while six tenants hammer the same
/// server from twelve connections, two per tenant at once.
#[test]
fn concurrent_tenants_match_one_shot_pipeline_bitwise() {
    const TENANTS: u64 = 6;
    const ROUNDS: usize = 5;
    const CLIENTS_PER_TENANT: usize = 2;

    let fitted: Vec<_> = (0..TENANTS).map(fit_tenant).collect();
    let server = spawn_server(TENANTS as usize);
    let addr = server.local_addr();

    let mut loader = Client::connect(addr).unwrap();
    for (t, (_, _, key_bytes)) in fitted.iter().enumerate() {
        let (method, n_attributes) = loader
            .load_key(&format!("tenant-{t}"), key_bytes.clone())
            .unwrap();
        assert_eq!(method, "rbt");
        assert_eq!(n_attributes, 3);
    }

    let handles: Vec<_> = fitted
        .into_iter()
        .enumerate()
        .flat_map(|(t, (out, fit_data, _))| {
            // Both clients of a tenant start together, so same-tenant
            // requests overlap in the server.
            let start = Arc::new(std::sync::Barrier::new(CLIENTS_PER_TENANT));
            (0..CLIENTS_PER_TENANT).map(move |_| {
                let (out, fit_data, start) = (out.clone(), fit_data.clone(), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    let tenant = format!("tenant-{t}");
                    let mut client = Client::connect(addr).unwrap();
                    // The in-process references: one-shot release of the
                    // fitting data, and the session path for an out-of-sample
                    // batch.
                    let reference = ReleaseSession::from_pipeline_output(&out).unwrap();
                    let oos = dataset(900 + t as u64, 17, 3, 120.0);
                    let expected_oos = reference.transform_batch(&oos).unwrap();

                    for _ in 0..ROUNDS {
                        let (released, drift) = client.transform(&tenant, &fit_data).unwrap();
                        assert_bitwise(&released, &out.released, "fit-data release");
                        assert_eq!(drift, 0, "fitting data never drifts out of range");

                        let (released_oos, drift_oos) = client.transform(&tenant, &oos).unwrap();
                        assert_bitwise(&released_oos, &expected_oos.released, "oos release");
                        assert_eq!(drift_oos, expected_oos.out_of_range_rows as u64);

                        let recovered = client.invert(&tenant, &released_oos).unwrap();
                        let expected_rec = reference.invert_batch(&released_oos).unwrap();
                        assert_bitwise(&recovered, &expected_rec, "inverse");
                    }
                })
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let stats = Client::connect(addr).unwrap().stats().unwrap();
    assert_eq!(stats.known_tenants, TENANTS);
    assert_eq!(stats.live_sessions, TENANTS);
    // 3 requests per round per client (2 transforms + 1 invert).
    let clients = CLIENTS_PER_TENANT as u64;
    for row in &stats.tenants {
        assert_eq!(row.requests, clients * 3 * ROUNDS as u64);
        assert_eq!(row.rows, clients * ROUNDS as u64 * (24 + 17));
    }
    server.shutdown();
}

/// Sends raw bytes on a fresh connection and returns the server's answer
/// frames (usually one `Error`) until the connection closes.
fn send_raw(addr: std::net::SocketAddr, bytes: &[u8]) -> Vec<wire::Response> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(bytes).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut responses = Vec::new();
    while let Ok(Some(frame)) = wire::read_frame(&mut stream) {
        responses.push(wire::Response::from_frame(&frame).unwrap());
    }
    responses
}

fn assert_wire_error(responses: &[wire::Response], what: &str) {
    assert_eq!(responses.len(), 1, "{what}: expected exactly one answer");
    match &responses[0] {
        wire::Response::Error { code, .. } => {
            assert_eq!(*code, 4, "{what}: wire corruption is the codec family")
        }
        other => panic!("{what}: expected an Error frame, got {other:?}"),
    }
}

/// (b) Every truncated / byte-flipped / oversized / wrong-version frame is
/// rejected with a typed error and the server keeps serving.
#[test]
fn malformed_frames_are_rejected_and_the_server_survives() {
    let (out, fit_data, key_bytes) = fit_tenant(77);
    let server = spawn_server(4);
    let addr = server.local_addr();
    Client::connect(addr)
        .unwrap()
        .load_key("t", key_bytes)
        .unwrap();

    let valid = wire::encode_frame(
        &wire::Request::Transform {
            tenant: "t".to_string(),
            batch: fit_data.clone(),
        }
        .to_frame(),
    );

    // Byte-flipped: CRC mismatch.
    let mut flipped = valid.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    assert_wire_error(&send_raw(addr, &flipped), "byte flip");

    // Truncated: the peer closes mid-frame.
    let truncated = send_raw(addr, &valid[..valid.len() - 3]);
    assert_wire_error(&truncated, "truncation");

    // Oversized declared length, rejected before allocation.
    let mut oversized = valid.clone();
    oversized[7..11].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_wire_error(&send_raw(addr, &oversized), "oversized");

    // Wrong version with a re-sealed (valid) checksum.
    let mut wrong_version = valid.clone();
    wrong_version[4..6].copy_from_slice(&9u16.to_le_bytes());
    let crc_at = wrong_version.len() - 4;
    let crc = rbt::linalg::codec::crc32(&wrong_version[..crc_at]);
    wrong_version[crc_at..].copy_from_slice(&crc.to_le_bytes());
    assert_wire_error(&send_raw(addr, &wrong_version), "wrong version");

    // Bad magic.
    let mut bad_magic = valid.clone();
    bad_magic[..4].copy_from_slice(b"HTTP");
    assert_wire_error(&send_raw(addr, &bad_magic), "bad magic");

    // A well-framed but undecodable body must NOT drop the connection:
    // framing is still synchronized.
    let mut client = Client::connect(addr).unwrap();
    let garbage_body = wire::Frame::new(wire::Opcode::Transform, vec![0xAB; 7]);
    wire::write_frame(client.stream_mut(), &garbage_body).unwrap();
    let answer = wire::read_frame(client.stream_mut()).unwrap().unwrap();
    match wire::Response::from_frame(&answer).unwrap() {
        wire::Response::Error { code, .. } => assert_eq!(code, 4),
        other => panic!("expected Error, got {other:?}"),
    }
    client
        .ping()
        .expect("connection must stay open after a body error");

    // After all injections the server still transforms correctly.
    let (released, _) = client.transform("t", &fit_data).unwrap();
    assert_bitwise(&released, &out.released, "post-fault release");
    server.shutdown();
}

/// (d, satellite) Client disconnects mid-frame and mid-response: the
/// connection dies, the registry is not poisoned, and a follow-up request
/// from *another tenant* succeeds.
#[test]
fn disconnects_do_not_poison_the_registry() {
    let (out_a, fit_a, key_a) = fit_tenant(31);
    let (_, fit_b, key_b) = fit_tenant(32);
    let server = spawn_server(4);
    let addr = server.local_addr();
    {
        let mut loader = Client::connect(addr).unwrap();
        loader.load_key("a", key_a).unwrap();
        loader.load_key("b", key_b).unwrap();
    }

    // Mid-frame disconnect: half a header, then drop the socket.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&wire::MAGIC[..2]).unwrap();
        drop(stream);
    }
    // Mid-response disconnect: send a full transform request, close both
    // directions without reading the answer.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let frame = wire::Request::Transform {
            tenant: "b".to_string(),
            batch: fit_b.clone(),
        }
        .to_frame();
        stream.write_all(&wire::encode_frame(&frame)).unwrap();
        stream.shutdown(Shutdown::Both).unwrap();
        drop(stream);
    }

    // Another tenant must be completely unaffected.
    let mut client = Client::connect(addr).unwrap();
    let (released, _) = client.transform("a", &fit_a).unwrap();
    assert_bitwise(&released, &out_a.released, "post-disconnect release");
    server.shutdown();
}

/// (c) LRU eviction + key reload round-trips exactly: with capacity 1,
/// alternating tenants evict each other every request, and every response
/// stays bit-identical to the one-shot reference.
#[test]
fn lru_eviction_and_reload_round_trip_bitwise() {
    let (out_a, fit_a, key_a) = fit_tenant(51);
    let (out_b, fit_b, key_b) = fit_tenant(52);
    let server = spawn_server(1);
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    client.load_key("a", key_a).unwrap();
    client.load_key("b", key_b).unwrap();

    for _ in 0..4 {
        let (ra, _) = client.transform("a", &fit_a).unwrap();
        assert_bitwise(&ra, &out_a.released, "tenant a after eviction");
        let (rb, _) = client.transform("b", &fit_b).unwrap();
        assert_bitwise(&rb, &out_b.released, "tenant b after eviction");
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.capacity, 1);
    assert_eq!(stats.known_tenants, 2);
    assert_eq!(stats.live_sessions, 1);
    // Each alternation evicts: load(b) evicts a, then every a-request
    // evicts b and vice versa → at least 8 evictions.
    assert!(
        stats.total_evictions >= 8,
        "expected churn, saw {} evictions",
        stats.total_evictions
    );
    for row in &stats.tenants {
        assert_eq!(row.requests, 4, "counters must survive eviction");
        assert!(row.evictions >= 4);
    }
    server.shutdown();
}

/// (satellite) Drift accounting across interleaved tenants: per-tenant
/// counters match a standalone `ReleaseSession` fed the same batches, with
/// no cross-tenant bleed.
#[test]
fn drift_counters_are_per_tenant_with_no_bleed() {
    let (out_a, _, key_a) = fit_tenant(61);
    let (out_b, _, key_b) = fit_tenant(62);
    // Batches drawn wider than the fitting spread so some rows drift.
    let batch_a = dataset(611, 19, 3, 200.0);
    let batch_b = dataset(622, 23, 3, 200.0);
    const ROUNDS: usize = 6;

    // The single-session reference: each batch's out-of-range rows,
    // summed over the rounds.
    let ref_a = ReleaseSession::from_pipeline_output(&out_a).unwrap();
    let ref_b = ReleaseSession::from_pipeline_output(&out_b).unwrap();
    let (mut expected_a, mut expected_b) = (0u64, 0u64);
    for _ in 0..ROUNDS {
        expected_a += ref_a.transform_batch(&batch_a).unwrap().out_of_range_rows as u64;
        expected_b += ref_b.transform_batch(&batch_b).unwrap().out_of_range_rows as u64;
    }
    assert_ne!(
        expected_a, expected_b,
        "test needs distinguishable drift counts to detect bleed"
    );

    let server = spawn_server(2);
    let addr = server.local_addr();
    {
        let mut loader = Client::connect(addr).unwrap();
        loader.load_key("a", key_a).unwrap();
        loader.load_key("b", key_b).unwrap();
    }
    // Interleave from two threads.
    let ha = std::thread::spawn({
        let batch = batch_a.clone();
        move || {
            let mut c = Client::connect(addr).unwrap();
            for _ in 0..ROUNDS {
                c.transform("a", &batch).unwrap();
            }
        }
    });
    let hb = std::thread::spawn({
        let batch = batch_b.clone();
        move || {
            let mut c = Client::connect(addr).unwrap();
            for _ in 0..ROUNDS {
                c.transform("b", &batch).unwrap();
            }
        }
    });
    ha.join().unwrap();
    hb.join().unwrap();

    let stats = Client::connect(addr).unwrap().stats().unwrap();
    let row = |name: &str| {
        stats
            .tenants
            .iter()
            .find(|t| t.tenant == name)
            .unwrap()
            .clone()
    };
    assert_eq!(row("a").drift_rows, expected_a);
    assert_eq!(row("b").drift_rows, expected_b);
    assert_eq!(row("a").rows, ROUNDS as u64 * 19);
    assert_eq!(row("b").rows, ROUNDS as u64 * 23);
    server.shutdown();
}

/// A session key with zero attributes and a batch that declares rows but
/// no columns are both refused as malformed (code 4), and the connection
/// keeps serving. Accepted together, they would have a session split 2^60
/// rows into 2^48 chunks, an allocation that aborts the process.
#[test]
fn zero_attribute_keys_and_batches_are_refused_and_the_connection_survives() {
    let server = spawn_server(2);
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();

    // The 99-byte text key: no rotation steps, no normalizer columns.
    let body =
        "rbt-session v1\nkey n=0 steps=0\nnormalizer method=zscore-sample\nsuppress-ids true";
    let key = format!(
        "{body}\nchecksum {:08x}\n",
        rbt::linalg::codec::crc32(body.as_bytes())
    );
    assert_eq!(key.len(), 99);
    match client.load_key("zero", key.into_bytes()) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, 4),
        other => panic!("expected the zero-attribute key to be refused, got {other:?}"),
    }

    // The 52-byte sealed swap record: a baseline state of 0 attributes.
    let mut w = rbt::linalg::codec::ByteWriter::new();
    w.put_str("swap");
    w.put_f64(0.2);
    w.put_u64(42);
    w.put_usize(0);
    w.put_bool(true);
    let key = rbt::core::codec::seal_envelope(rbt::core::codec::RecordKind::Method, w.as_bytes());
    assert_eq!(key.len(), 52);
    match client.load_key("zero-swap", key) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, 4),
        other => panic!("expected the zero-attribute swap key to be refused, got {other:?}"),
    }

    // The 45-byte Transform frame: 2^60 rows of 0 columns.
    let mut w = rbt::linalg::codec::ByteWriter::new();
    w.put_str("zero");
    w.put_usize(1 << 60);
    w.put_usize(0);
    w.put_bool(false);
    let frame = wire::Frame::new(wire::Opcode::Transform, w.into_bytes());
    wire::write_frame(client.stream_mut(), &frame).unwrap();
    let answer = wire::read_frame(client.stream_mut()).unwrap().unwrap();
    match wire::Response::from_frame(&answer).unwrap() {
        wire::Response::Error { code, message } => {
            assert_eq!(code, 4);
            assert!(message.contains("rows but no columns"), "{message}");
        }
        other => panic!("expected Error, got {other:?}"),
    }
    client
        .ping()
        .expect("connection must stay open after both refusals");
    server.shutdown();
}

/// Unknown tenants and non-invertible methods come back as typed server
/// errors with the right family codes, not dropped connections.
#[test]
fn server_errors_carry_the_family_codes() {
    let (_, fit_data, key_bytes) = fit_tenant(71);
    let server = spawn_server(2);
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();

    match client.transform("ghost", &fit_data) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, 2, "unknown tenant is usage"),
        other => panic!("expected a typed server error, got {other:?}"),
    }

    // Corrupt key upload: codec family, connection stays usable.
    let mut corrupt = key_bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0xFF;
    match client.load_key("t", corrupt) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, 4),
        other => panic!("expected a codec error, got {other:?}"),
    }

    client.load_key("t", key_bytes).unwrap();
    // A shape mismatch (wrong column count) is the shape family.
    let skinny = dataset(99, 4, 2, 10.0);
    match client.transform("t", &skinny) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, 5),
        other => panic!("expected a shape error, got {other:?}"),
    }

    assert!(client.evict("t").unwrap());
    assert!(!client.evict("t").unwrap());
    server.shutdown();
}

/// The per-connection in-flight window: a client that pipelines many
/// requests without reading still gets every answer, in order.
#[test]
fn pipelined_requests_drain_in_order_through_the_window() {
    let (out, fit_data, key_bytes) = fit_tenant(81);
    let server = spawn_server(2);
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    client.load_key("t", key_bytes).unwrap();

    const PIPELINED: usize = 24; // 3x the default window of 8
    let request = wire::Request::Transform {
        tenant: "t".to_string(),
        batch: fit_data.clone(),
    };
    let mut reader = TcpStream::connect(addr).unwrap();
    let mut writer = reader.try_clone().unwrap();
    let bytes = wire::encode_frame(&request.to_frame());
    for _ in 0..PIPELINED {
        writer.write_all(&bytes).unwrap();
    }
    writer.flush().unwrap();
    for i in 0..PIPELINED {
        let frame = wire::read_frame(&mut reader).unwrap().unwrap();
        match wire::Response::from_frame(&frame).unwrap() {
            wire::Response::Transformed { released, .. } => {
                assert_bitwise(&released, &out.released, "pipelined response")
            }
            other => panic!("response {i}: expected Transformed, got {other:?}"),
        }
    }
    server.shutdown();
}

/// Served ≡ library for every registry method, IDs and drift included.
/// Each method is fitted through the `Release` builder with ID suppression
/// on and off, and its key is loaded into the daemon. A batch that carries
/// IDs, half of it shifted far outside the fitted range, must come back
/// with the column names, IDs, cell bits and drift count of the key's own
/// `transform_batch`. Its inverse must match `invert_batch` where the
/// method has one, and be a typed capability refusal (code 7) where not.
#[test]
fn every_method_serves_what_the_library_releases() {
    let sample = rbt::data::datasets::arrhythmia_sample();
    let shifted = sample
        .matrix()
        .row_iter()
        .map(|row| row.iter().map(|v| v + 500.0).collect::<Vec<f64>>());
    let rows: Vec<Vec<f64>> = sample
        .matrix()
        .row_iter()
        .map(<[f64]>::to_vec)
        .chain(shifted)
        .collect();
    let n_rows = rows.len() as u64;
    let batch = Dataset::new(
        Matrix::from_row_iter(rows).unwrap(),
        sample.columns().to_vec(),
    )
    .unwrap()
    .with_ids((0..n_rows).map(|i| 7000 + i).collect())
    .unwrap();

    let assert_same = |served: &Dataset, library: &Dataset, what: &str| {
        assert_eq!(served.columns(), library.columns(), "{what}: column names");
        assert_eq!(served.ids(), library.ids(), "{what}: ids");
        assert_bitwise(served, library, what);
    };

    let server = spawn_server(2 * Method::ALL.len());
    let mut client = Client::connect(server.local_addr()).unwrap();
    for method in Method::ALL {
        for suppress in [true, false] {
            let what = format!("{} (suppress ids: {suppress})", method.name());
            let fitted = Release::of(&sample)
                .with_method(method)
                .with_id_suppression(suppress)
                .fit(&mut rng(2024))
                .unwrap();
            let key = fitted.to_bytes().unwrap();
            let tenant = format!("{}-{suppress}", method.name());
            let (name, n_attributes) = client.load_key(&tenant, key.clone()).unwrap();
            assert_eq!(name, method.name(), "{what}: method");
            assert_eq!(n_attributes, 3, "{what}: attributes");

            let library = decode_fitted(&key).unwrap();
            let expected = library.transform_batch(&batch).unwrap();
            let (released, drift) = client.transform(&tenant, &batch).unwrap();
            assert_same(&released, &expected.released, &what);
            assert_eq!(
                released.ids().is_some(),
                !suppress,
                "{what}: id suppression"
            );
            assert_eq!(drift, expected.out_of_range_rows as u64, "{what}: drift");
            if method == Method::Rbt {
                assert!(drift > 0, "{what}: the shifted rows drift");
            }

            let recovered = client.invert(&tenant, &released);
            if matches!(method, Method::Rbt | Method::HybridIsometry) {
                let expected = library.invert_batch(&released).unwrap();
                assert_same(&recovered.unwrap(), &expected, &format!("{what} inverse"));
            } else {
                match recovered {
                    Err(ClientError::Server { code: 7, .. }) => {}
                    other => panic!("{what}: expected a code-7 refusal, got {other:?}"),
                }
            }
        }
    }
    server.shutdown();
}

/// Served ≡ library for batches pipelined over one connection, at the two
/// frame sizes the daemon's reader tells apart. An 8192×16 batch with IDs
/// is a frame of more than 64 KiB, so its last read ends exactly at the
/// frame's end; a 37-row batch is a frame small enough to share one read
/// with the frame after it. RBT is fitted with ID suppression on and off,
/// and hybrid isometry is served too. Every `Transform` and `Invert`
/// answer must carry the column names, IDs, cell bits and drift count of
/// the key's own `transform_batch`/`invert_batch`.
#[test]
fn pipelined_large_and_small_batches_match_the_library() {
    let fit_data = dataset(4, 256, 16, 90.0);
    let with_ids = |ds: Dataset, first: u64| {
        let n = ds.n_rows() as u64;
        ds.with_ids((first..first + n).collect()).unwrap()
    };
    // Every third row is shifted far outside the fitted range, so RBT's
    // drift count is not zero.
    let shifted = |ds: Dataset| {
        let cols = ds.n_cols();
        let mut ds = ds;
        for (i, v) in ds.matrix_mut().as_mut_slice().iter_mut().enumerate() {
            if (i / cols).is_multiple_of(3) {
                *v += 400.0;
            }
        }
        ds
    };
    let large = with_ids(shifted(dataset(5, 8192, 16, 90.0)), 10_000);
    let small = with_ids(shifted(dataset(6, 37, 16, 90.0)), 90_000);

    let server = spawn_server(4);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let fits = [
        (Method::Rbt, true),
        (Method::Rbt, false),
        (Method::HybridIsometry, true),
    ];
    for (method, suppress) in fits {
        let what = format!("{} (suppress ids: {suppress})", method.name());
        let fitted = Release::of(&fit_data)
            .with_method(method)
            .with_id_suppression(suppress)
            .fit(&mut rng(77))
            .unwrap();
        let key = fitted.to_bytes().unwrap();
        let tenant = format!("{}-{suppress}", method.name());
        client.load_key(&tenant, key.clone()).unwrap();
        let library = decode_fitted(&key).unwrap();

        // Each batch and its library release go out as a Transform and an
        // Invert; the raw batch is inverted too, so an Invert that carries
        // IDs is served whatever the suppression.
        let mut requests = Vec::new();
        let mut expected = Vec::new();
        for batch in [&large, &small] {
            let release = library.transform_batch(batch).unwrap();
            requests.push(wire::Request::Transform {
                tenant: tenant.clone(),
                batch: batch.clone(),
            });
            let recovered = library.invert_batch(&release.released).unwrap();
            requests.push(wire::Request::Invert {
                tenant: tenant.clone(),
                batch: release.released.clone(),
            });
            let raw_inverse = library.invert_batch(batch).unwrap();
            requests.push(wire::Request::Invert {
                tenant: tenant.clone(),
                batch: batch.clone(),
            });
            expected.push((release.released, Some(release.out_of_range_rows as u64)));
            expected.push((recovered, None));
            expected.push((raw_inverse, None));
        }
        for request in &requests {
            client.send(request).unwrap();
        }
        for (i, (library_answer, library_drift)) in expected.iter().enumerate() {
            let what = format!("{what}, answer {i}");
            let (served, drift) = match client.receive().unwrap() {
                wire::Response::Transformed {
                    released,
                    out_of_range_rows,
                } => (released, Some(out_of_range_rows)),
                wire::Response::Inverted { recovered } => (recovered, None),
                other => panic!("{what}: expected a batch, got {other:?}"),
            };
            assert_eq!(served.columns(), library_answer.columns(), "{what}: names");
            assert_eq!(served.ids(), library_answer.ids(), "{what}: ids");
            assert_bitwise(&served, library_answer, &what);
            assert_eq!(drift, *library_drift, "{what}: drift");
        }
        if method == Method::Rbt {
            assert!(expected[0].1 > Some(0), "{what}: the shifted rows drift");
            assert_eq!(expected[0].0.ids().is_some(), !suppress, "{what}: ids");
        }
    }
    server.shutdown();
}

/// Batches, pings and federation bookkeeping pipelined over one
/// connection: an 8192×16 `Transform`, a `FedOpen`, a `FedMsg` that
/// delivers no message, a `Ping`, a `FedResult`, an `Invert`, another
/// `Ping` and a `FedClose` are written before any answer is read. The
/// answers must come back in request order, echo their requests' ids, and
/// equal what the library releases and what a local `FederationHub`
/// answers for the same session.
#[test]
fn pipelined_batches_pings_and_federation_bookkeeping_answer_in_order() {
    use rbt::linalg::codec::ByteWriter;
    use rbt::protocol::{FederationConfig, FederationHub, KeyPolicy, Message};

    let fitted = Release::of(&dataset(9, 256, 16, 90.0))
        .with_method(Method::Rbt)
        .fit(&mut rng(79))
        .unwrap();
    let key = fitted.to_bytes().unwrap();
    let library = decode_fitted(&key).unwrap();
    let batch = dataset(10, 8192, 16, 90.0);
    let release = library.transform_batch(&batch).unwrap();
    let recovered = library.invert_batch(&release.released).unwrap();

    const SESSION: u64 = 41;
    let config = FederationConfig {
        session: SESSION,
        n_cols: 4,
        owners: 2,
        normalization: rbt::data::Normalization::zscore_paper(),
        rbt: RbtConfig::uniform(PairwiseSecurityThreshold::new(0.2, 0.2).unwrap()),
        key_policy: KeyPolicy::Shared,
        seed: 5,
        kmeans_k: 3,
        kmeans_max_iters: 128,
    };
    let mut config_bytes = ByteWriter::new();
    config.encode_into(&mut config_bytes);
    let mut hub = FederationHub::new(16);
    hub.open(config).unwrap();
    let announce: Vec<Vec<u8>> = hub
        .exchange(SESSION, 0, Vec::new())
        .unwrap()
        .iter()
        .map(Message::encode)
        .collect();
    assert!(!announce.is_empty(), "an opened session announces itself");

    let server = spawn_server(4);
    let addr = server.local_addr();
    Client::connect(addr).unwrap().load_key("t", key).unwrap();
    let requests = [
        wire::Request::Transform {
            tenant: "t".to_string(),
            batch,
        },
        wire::Request::FedOpen {
            config: config_bytes.into_bytes(),
        },
        wire::Request::FedMsg {
            session: SESSION,
            owner: 0,
            messages: Vec::new(),
        },
        wire::Request::Ping,
        wire::Request::FedResult { session: SESSION },
        wire::Request::Invert {
            tenant: "t".to_string(),
            batch: release.released.clone(),
        },
        wire::Request::Ping,
        wire::Request::FedClose { session: SESSION },
    ];
    const FIRST_ID: u64 = 500;
    let mut burst = Vec::new();
    for (id, request) in (FIRST_ID..).zip(&requests) {
        burst.extend(wire::encode_frame(&request.to_frame().with_request_id(id)));
    }
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    stream.write_all(&burst).unwrap();

    for (id, request) in (FIRST_ID..).zip(&requests) {
        let what = format!("answer to {:?} (id {id})", request.opcode());
        let frame = wire::read_frame(&mut stream).unwrap().unwrap();
        assert_eq!(frame.request_id, id, "{what}: echoed id");
        let response = wire::Response::from_frame(&frame).unwrap();
        match (request, response) {
            (
                wire::Request::Transform { .. },
                wire::Response::Transformed {
                    released,
                    out_of_range_rows,
                },
            ) => {
                assert_bitwise(&released, &release.released, &what);
                assert_eq!(released.columns(), release.released.columns(), "{what}");
                assert_eq!(
                    out_of_range_rows, release.out_of_range_rows as u64,
                    "{what}"
                );
            }
            (wire::Request::Invert { .. }, wire::Response::Inverted { recovered: served }) => {
                assert_bitwise(&served, &recovered, &what);
                assert_eq!(served.columns(), recovered.columns(), "{what}");
            }
            (request, response) => {
                let expected = match request {
                    wire::Request::FedOpen { .. } => wire::Response::FedOpened { session: SESSION },
                    wire::Request::FedMsg { .. } => wire::Response::FedMsgs {
                        messages: announce.clone(),
                    },
                    wire::Request::Ping => wire::Response::Pong,
                    wire::Request::FedResult { .. } => wire::Response::FedSummary { summary: None },
                    wire::Request::FedClose { .. } => wire::Response::FedClosed { existed: true },
                    other => panic!("{what}: unexpected request {other:?}"),
                };
                assert_eq!(response, expected, "{what}");
            }
        }
    }
    server.shutdown();
}

/// Reads one whole frame off `stream` as the bytes that travelled: the
/// header, the body its length declares, and the CRC trailer.
fn read_frame_bytes(stream: &mut TcpStream) -> Vec<u8> {
    use std::io::Read;
    let mut bytes = vec![0u8; wire::HEADER_LEN];
    stream.read_exact(&mut bytes).unwrap();
    let body_len = u32::from_le_bytes(bytes[7..wire::HEADER_LEN].try_into().unwrap()) as usize;
    bytes.resize(wire::HEADER_LEN + body_len + wire::TRAILER_LEN, 0);
    stream.read_exact(&mut bytes[wire::HEADER_LEN..]).unwrap();
    bytes
}

/// Every other request kind pipelined over one raw connection: a small
/// `Transform`, `LoadKey`s of good keys and of a corrupt one,
/// `EvictTenant`, `ReloadKeys` without a key store, a `FedMsg` delivering
/// a message to an unknown session and a `FedMsg` poll of one, well-framed
/// bodies that do not decode, `Stats`, and a goodbye. Each answer must come
/// back in request order, echo its request's id and carry exactly the
/// bytes of the answer the library, a local registry and a local hub give
/// for the same requests; `Stats` is checked by its tenant list, since
/// its latency fields are timings. The goodbye gets no answer: the
/// connection ends.
#[test]
fn pipelined_requests_of_every_kind_answer_with_the_library_bytes() {
    use rbt::protocol::{FederationHub, Message};

    let fitted = Release::of(&dataset(11, 64, 8, 90.0))
        .with_method(Method::Rbt)
        .fit(&mut rng(81))
        .unwrap();
    let key = fitted.to_bytes().unwrap();
    let library = decode_fitted(&key).unwrap();
    let batch = dataset(12, 100, 8, 90.0);
    let release = library.transform_batch(&batch).unwrap();
    let mut corrupt = key.clone();
    let middle = corrupt.len() / 2;
    corrupt[middle] ^= 0x5A;

    const UNKNOWN_SESSION: u64 = 404;
    let delivery = Message::Join {
        session: UNKNOWN_SESSION,
        owner: 0,
        rows: 10,
    };
    let fed_msg = |messages: Vec<Vec<u8>>| wire::Request::FedMsg {
        session: UNKNOWN_SESSION,
        owner: 0,
        messages,
    };
    let raw = |opcode, body: Vec<u8>| wire::Frame::new(opcode, body);
    let requests = [
        wire::Request::LoadKey {
            tenant: "t".to_string(),
            key_bytes: key.clone(),
        }
        .to_frame(),
        wire::Request::Transform {
            tenant: "t".to_string(),
            batch: batch.clone(),
        }
        .to_frame(),
        wire::Request::LoadKey {
            tenant: "u".to_string(),
            key_bytes: key.clone(),
        }
        .to_frame(),
        wire::Request::LoadKey {
            tenant: "corrupt".to_string(),
            key_bytes: corrupt,
        }
        .to_frame(),
        wire::Request::EvictTenant {
            tenant: "u".to_string(),
        }
        .to_frame(),
        wire::Request::ReloadKeys.to_frame(),
        fed_msg(vec![delivery.encode()]).to_frame(),
        fed_msg(Vec::new()).to_frame(),
        raw(wire::Opcode::Ping, vec![1, 2, 3]),
        raw(wire::Opcode::LoadKey, vec![0xFF; 3]),
        raw(wire::Opcode::FedMsg, vec![0; 5]),
        // A poll's length with a message count, and a poll with a byte
        // after it.
        raw(
            wire::Opcode::FedMsg,
            [&[0u8; 10][..], &[1, 0, 0, 0]].concat(),
        ),
        raw(wire::Opcode::FedMsg, vec![0; 15]),
        raw(wire::Opcode::Transform, vec![0xAB; 7]),
        wire::Request::Stats.to_frame(),
        wire::Request::Goodbye.to_frame(),
    ];
    assert!(wire::encode_frame(&requests[1]).len() < 64 * 1024);

    // The answers of the library, a local registry and a local hub.
    let registry = SessionRegistry::new(4);
    let mut hub = FederationHub::new(16);
    let registry_error = |e: rbt::server::ServerError| wire::Response::Error {
        code: e.code(),
        message: e.to_string(),
    };
    let fed_error = |e: rbt::protocol::ProtocolError| wire::Response::Error {
        code: e.code(),
        message: format!("federation: {e}"),
    };
    let mut expected = Vec::new();
    for frame in &requests[..requests.len() - 2] {
        let response = match wire::Request::from_frame(frame) {
            Err(e) => wire::Response::Error {
                code: 4,
                message: format!("bad request body: {e}"),
            },
            Ok(wire::Request::LoadKey { tenant, key_bytes }) => {
                match registry.load_key(&tenant, key_bytes) {
                    Ok((method, n_attributes)) => wire::Response::Loaded {
                        method,
                        n_attributes: n_attributes as u64,
                    },
                    Err(e) => registry_error(e),
                }
            }
            Ok(wire::Request::Transform { .. }) => wire::Response::Transformed {
                released: release.released.clone(),
                out_of_range_rows: release.out_of_range_rows as u64,
            },
            Ok(wire::Request::EvictTenant { tenant }) => wire::Response::Evicted {
                existed: registry.evict(&tenant),
            },
            Ok(wire::Request::ReloadKeys) => wire::Response::Error {
                code: 7,
                message: "this server was not started with a key store".to_string(),
            },
            Ok(wire::Request::FedMsg {
                session,
                owner,
                messages,
            }) => {
                let inbound = messages
                    .iter()
                    .map(|bytes| Message::decode(bytes).unwrap())
                    .collect();
                match hub.exchange(session, owner, inbound) {
                    Ok(outbound) => wire::Response::FedMsgs {
                        messages: outbound.iter().map(Message::encode).collect(),
                    },
                    Err(e) => fed_error(e),
                }
            }
            Ok(other) => panic!("no expected answer for {other:?}"),
        };
        expected.push(response);
    }
    // Both good keys load, the corrupt one and everything after the
    // eviction is refused.
    let kinds: Vec<_> = expected.iter().map(wire::Response::opcode).collect();
    let mut refused = vec![wire::Opcode::Error; 9];
    refused.splice(
        0..0,
        [
            wire::Opcode::LoadKey,
            wire::Opcode::Transform,
            wire::Opcode::LoadKey,
            wire::Opcode::Error,
            wire::Opcode::EvictTenant,
        ],
    );
    assert_eq!(kinds, refused);
    assert_eq!(expected[4], wire::Response::Evicted { existed: true });
    let tenants: Vec<String> = registry
        .stats()
        .tenants
        .into_iter()
        .map(|t| t.tenant)
        .collect();
    assert_eq!(tenants, ["t"]);

    let server = spawn_server(4);
    const FIRST_ID: u64 = 900;
    let mut burst = Vec::new();
    for (id, frame) in (FIRST_ID..).zip(&requests) {
        burst.extend(wire::encode_frame(&frame.clone().with_request_id(id)));
    }
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    stream.write_all(&burst).unwrap();

    for ((id, frame), response) in (FIRST_ID..).zip(&requests).zip(&expected) {
        let what = format!("answer to {:?} (id {id})", frame.opcode);
        let served = read_frame_bytes(&mut stream);
        let want = wire::encode_frame(&response.to_frame().with_request_id(id));
        assert_eq!(served, want, "{what}: {response:?}");
    }
    let stats_id = FIRST_ID + requests.len() as u64 - 2;
    let stats = wire::decode_frame(&read_frame_bytes(&mut stream)).unwrap();
    assert_eq!(stats.opcode, wire::Opcode::Stats);
    assert_eq!(stats.request_id, stats_id);
    match wire::Response::from_frame(&stats).unwrap() {
        wire::Response::Stats(stats) => {
            let served: Vec<String> = stats.tenants.into_iter().map(|t| t.tenant).collect();
            assert_eq!(served, tenants, "the Stats tenant list");
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    assert_eq!(
        wire::read_frame(&mut stream).unwrap(),
        None,
        "a goodbye is not answered: the connection ends"
    );
    server.shutdown();
}

/// Served ≡ library for every normalizer kind and every width the served
/// release treats differently. RBT sessions are built from explicit keys
/// over normalizers fitted with min–max, z-score, robust z-score and
/// decimal scaling, each with and without drift bounds, sealed with
/// `ReleaseSession::to_bytes`; hybrid isometry is fitted through
/// `Release` with z-score and with min–max. Batches of 2, 3 and 17
/// columns at 0, 1, 5 and 8,192 rows, and of 4,100 columns (a row wider
/// than any block) at 5 rows, go out with and without IDs, and their cells
/// include NaN, ±∞, −0.0, a subnormal and values far outside the fitted
/// range. Every `Transform` answer must carry the column names, IDs, cell
/// bits (NaN compared as NaN) and drift count of the key's own
/// `transform_batch`, and every `Invert` answer those of `invert_batch`.
#[test]
fn served_batches_match_the_library_for_every_normalizer_and_width() {
    use rbt::core::{DriftBounds, RotationStep, TransformationKey};
    use rbt::data::Normalization;

    const SPECIALS: [f64; 8] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        5e-324,
        1e300,
        -1e300,
        4.0e6,
    ];
    /// `rows`×`cols` cells with a special value in about one cell of
    /// eleven and every fourth row shifted out of the fitted range.
    fn batch(seed: u64, rows: usize, cols: usize, ids: bool) -> Dataset {
        let mut ds = dataset(seed, rows, cols, 90.0);
        for (k, v) in ds.matrix_mut().as_mut_slice().iter_mut().enumerate() {
            if k % 11 == 3 {
                *v = SPECIALS[(k / 11) % SPECIALS.len()];
            } else if (k / cols).is_multiple_of(4) {
                *v += 200.0;
            }
        }
        if ids {
            ds = ds
                .with_ids((0..rows as u64).map(|i| 500 + i).collect())
                .unwrap();
        }
        ds
    }
    /// Sequential pairs, the last column paired back with the first when
    /// the width is odd, then one more step on a pair in reverse order.
    fn key(cols: usize) -> TransformationKey {
        let step = |t: usize, i: usize, j: usize| RotationStep {
            i,
            j,
            theta_degrees: 17.0 + 31.0 * t as f64,
            achieved_var1: 0.0,
            achieved_var2: 0.0,
        };
        let mut pairs: Vec<(usize, usize)> = (0..cols / 2).map(|t| (2 * t, 2 * t + 1)).collect();
        if cols % 2 == 1 {
            pairs.push((cols - 1, 0));
        }
        pairs.push((cols - 1, cols / 2 - 1));
        let steps = pairs
            .into_iter()
            .enumerate()
            .map(|(t, (i, j))| step(t, i, j))
            .collect();
        TransformationKey::new(steps, cols).unwrap()
    }
    let same_cell = |x: f64, y: f64| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());

    let kinds = [
        Normalization::min_max_unit(),
        Normalization::zscore_paper(),
        Normalization::RobustZScore,
        Normalization::DecimalScaling,
    ];
    let shapes: Vec<(usize, usize)> = [2, 3, 17]
        .into_iter()
        .flat_map(|cols| [0, 1, 5, 8192].map(|rows| (cols, rows)))
        .chain([(4100, 5)])
        .collect();
    let server = spawn_server(64);
    let mut client = Client::connect(server.local_addr()).unwrap();
    for cols in [2, 3, 17, 4100] {
        let fit_data = dataset(cols as u64, 12, cols, 90.0);
        let mut tenants: Vec<(String, Vec<u8>)> = Vec::new();
        for (k, kind) in kinds.iter().enumerate() {
            let normalizer = kind.fit(fit_data.matrix()).unwrap();
            for drift in [false, true] {
                let mut session = ReleaseSession::new(key(cols), normalizer.clone())
                    .unwrap()
                    .with_id_suppression((k + usize::from(drift)).is_multiple_of(2));
                if drift {
                    let normalized = normalizer.transform(fit_data.matrix()).unwrap();
                    let bounds = DriftBounds::from_normalized(&normalized).unwrap();
                    session = session.with_drift_bounds(bounds).unwrap();
                }
                let label = format!("rbt-{}-drift-{drift}-{cols}", kind.text_tag());
                tenants.push((label, session.to_bytes()));
            }
        }
        for (normalization, suppress) in [
            (Normalization::zscore_paper(), true),
            (Normalization::min_max_unit(), false),
        ] {
            let fitted = (0..50)
                .find_map(|attempt| {
                    Release::of(&fit_data)
                        .with_method(Method::HybridIsometry)
                        .with_normalization(normalization)
                        .with_id_suppression(suppress)
                        .fit(&mut rng(300 + attempt))
                        .ok()
                })
                .expect("a feasible hybrid key within 50 draws");
            let label = format!("hybrid-{}-{cols}", normalization.text_tag());
            tenants.push((label, fitted.to_bytes().unwrap()));
        }

        for (tenant, key_bytes) in tenants {
            client.load_key(&tenant, key_bytes.clone()).unwrap();
            let library = decode_fitted(&key_bytes).unwrap();
            for &(_, rows) in shapes.iter().filter(|(c, _)| *c == cols) {
                for ids in [false, true] {
                    let batch = batch(rows as u64 + 7, rows, cols, ids);
                    let release = library.transform_batch(&batch).unwrap();
                    let requests = [
                        wire::Request::Transform {
                            tenant: tenant.clone(),
                            batch: batch.clone(),
                        },
                        wire::Request::Invert {
                            tenant: tenant.clone(),
                            batch: release.released.clone(),
                        },
                        wire::Request::Invert {
                            tenant: tenant.clone(),
                            batch: batch.clone(),
                        },
                    ];
                    let expected = [
                        (
                            release.released.clone(),
                            Some(release.out_of_range_rows as u64),
                        ),
                        (library.invert_batch(&release.released).unwrap(), None),
                        (library.invert_batch(&batch).unwrap(), None),
                    ];
                    for request in &requests {
                        client.send(request).unwrap();
                    }
                    for (i, (want, want_drift)) in expected.iter().enumerate() {
                        let what = format!("{tenant}, {rows}x{cols}, ids {ids}, answer {i}");
                        let (served, drift) = match client.receive().unwrap() {
                            wire::Response::Transformed {
                                released,
                                out_of_range_rows,
                            } => (released, Some(out_of_range_rows)),
                            wire::Response::Inverted { recovered } => (recovered, None),
                            other => panic!("{what}: expected a batch, got {other:?}"),
                        };
                        assert_eq!(served.columns(), want.columns(), "{what}: names");
                        assert_eq!(served.ids(), want.ids(), "{what}: ids");
                        assert_eq!(served.matrix().shape(), want.matrix().shape(), "{what}");
                        let cells = served.matrix().as_slice().iter();
                        for (c, (&x, &y)) in cells.zip(want.matrix().as_slice()).enumerate() {
                            assert!(same_cell(x, y), "{what}: cell {c} is {x:e}, not {y:e}");
                        }
                        assert_eq!(drift, *want_drift, "{what}: drift");
                    }
                }
            }
        }
    }
    server.shutdown();
}
