//! The daemon's heap under a peer that writes and does not read.
//!
//! A connection is read only while its decoded requests, the request in a
//! worker and its answers not yet written number fewer than the in-flight
//! window. A peer that pipelines large requests and reads none of the
//! answers so stops being read once the window is full of them, and its
//! further requests wait in the kernel's TCP buffers, not on the daemon's
//! heap. Here a writer thread pipelines 96 8192×16 `Transform`s (1 MiB
//! frames) on one raw socket while nothing reads; reading starts when the
//! writer has finished or has not advanced for 200 ms. The daemon's peak
//! live heap must stay within a bound that does not grow with the number
//! of requests, and every answer must then arrive in order, bit for bit
//! the library's. This file is its own test binary holding one test, so
//! the counting allocator below sees only the in-process daemon and the
//! test's own client.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rbt::linalg::codec::crc32;
use rbt::server::wire::{self, Request, Response};
use rbt::server::{Client, Server, SessionRegistry};
use rbt::{Dataset, Matrix, Method, Release};

/// The system allocator, tracking the bytes live and their peak.
struct Counting;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain atomics and
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through as is.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` came from `System`; the caller guarantees
        // `new_size` is valid for `layout.align()`.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Starts a new peak at the bytes live now, and returns them.
fn reset_peak() -> u64 {
    let live = LIVE.load(Ordering::SeqCst);
    PEAK.store(live, Ordering::SeqCst);
    live
}

/// Deterministic `rows`×`cols` data in [-45, 45).
fn dataset(seed: u64, rows: usize, cols: usize) -> Dataset {
    let data: Vec<f64> = (0..rows * cols)
        .map(|i| {
            let x = (seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(i as u64 * 1442695041))
                >> 11;
            (x % 100_000) as f64 / 100_000.0 * 90.0 - 45.0
        })
        .collect();
    Dataset::new(
        Matrix::from_vec(rows, cols, data).unwrap(),
        (0..cols).map(|j| format!("c{j}")).collect(),
    )
    .unwrap()
}

/// Retags an encoded frame with request id `id`: the id follows the
/// header, and the CRC-32 trailer covers everything before it.
fn retag(frame: &mut [u8], id: u64) {
    let id_at = wire::HEADER_LEN;
    frame[id_at..id_at + wire::REQUEST_ID_LEN].copy_from_slice(&id.to_le_bytes());
    let trailer = frame.len() - wire::TRAILER_LEN;
    let crc = crc32(&frame[..trailer]);
    frame[trailer..].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn a_peer_that_does_not_read_cannot_grow_the_daemon_heap() {
    const WINDOW: usize = 8;
    const REQUESTS: u64 = 96;
    /// Reading starts once the writer has not advanced for this long.
    const STALLED: Duration = Duration::from_millis(200);
    const CHUNK: usize = 64 * 1024;
    const MIB: u64 = 1024 * 1024;

    let fitted = Release::of(&dataset(1, 256, 16))
        .with_method(Method::Rbt)
        .fit(&mut rand::rngs::StdRng::seed_from_u64(2024))
        .unwrap();
    let server = Server::spawn("127.0.0.1:0", Arc::new(SessionRegistry::new(4)), WINDOW).unwrap();
    Client::connect(server.local_addr())
        .unwrap()
        .load_key("t", fitted.to_bytes().unwrap())
        .unwrap();

    let batch = dataset(2, 8192, 16);
    let release = fitted.transform_batch(&batch).unwrap();
    let mut frame = wire::encode_frame(
        &Request::Transform {
            tenant: "t".to_string(),
            batch,
        }
        .to_frame(),
    );
    let frame_len = frame.len() as u64;
    let mut reader = TcpStream::connect(server.local_addr()).unwrap();
    reader
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = reader.try_clone().unwrap();
    writer
        .set_write_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let written = Arc::new(AtomicUsize::new(0));

    let baseline = reset_peak();
    let writing = {
        let written = Arc::clone(&written);
        thread::spawn(move || {
            for id in 1..=REQUESTS {
                retag(&mut frame, id);
                for chunk in frame.chunks(CHUNK) {
                    writer.write_all(chunk).unwrap();
                    written.fetch_add(chunk.len(), Ordering::SeqCst);
                }
            }
        })
    };
    let (mut seen, mut since) = (0, Instant::now());
    while !writing.is_finished() && since.elapsed() < STALLED {
        thread::sleep(Duration::from_millis(5));
        let now = written.load(Ordering::SeqCst);
        if now != seen {
            (seen, since) = (now, Instant::now());
        }
    }
    let unread_at_start = written.load(Ordering::SeqCst) as u64 / frame_len;

    for id in 1..=REQUESTS {
        let answer = wire::read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(answer.request_id, id, "answers arrive in request order");
        match Response::from_frame(&answer).unwrap() {
            Response::Transformed {
                released,
                out_of_range_rows,
            } => {
                assert_eq!(released.columns(), release.released.columns());
                assert_eq!(released.n_rows(), release.released.n_rows());
                assert_eq!(out_of_range_rows, release.out_of_range_rows as u64);
                let (served, library) = (released.matrix(), release.released.matrix());
                assert!(
                    (served.as_slice().iter().zip(library.as_slice()))
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "answer {id}: released bits differ from the library's"
                );
            }
            other => panic!("answer {id}: expected Transformed, got {other:?}"),
        }
    }
    writing.join().unwrap();
    let peak = PEAK.load(Ordering::SeqCst) - baseline;
    server.shutdown();

    // The daemon holds at most the window's frames, the free list's 8
    // flushed frame buffers and the one its assembler reads into; the
    // client holds the answer frame it reads and the release it decodes
    // from it. The slack covers the bookkeeping around them.
    let frames = (WINDOW as u64 + 8 + 1) + 2;
    let slack = 5 * MIB;
    let bound = frames * frame_len + slack;
    eprintln!(
        "{REQUESTS} requests of {frame_len} bytes, {unread_at_start} written before reading: \
         peak live heap {:.2} MiB (bound {:.2} MiB)",
        peak as f64 / MIB as f64,
        bound as f64 / MIB as f64,
    );
    assert!(
        peak <= bound,
        "peak live heap {peak} bytes past the bound of {bound}"
    );
}
