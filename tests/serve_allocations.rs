//! The allocation budget of a served round trip.
//!
//! A served `Transform` is released inside its own request frame: the
//! daemon's event loop hands the buffer it read the frame into to a
//! worker, which runs the session's row kernels over the frame's cells and
//! rewrites the same buffer into the answer; once written, that buffer
//! goes back to the frame assemblers. The client encodes into the one
//! buffer it keeps and decodes straight out of the frame it read. So an
//! 8192×16 round trip (1 MiB of rows each way), client and daemon
//! together, allocates two row-sized blocks, both the client's: the frame
//! it reads the answer into and the release it decodes from it. The
//! daemon allocates none. That holds for pipelined `send`/`receive` and
//! for `Client::transform`, which encodes straight from the caller's
//! borrowed batch, and for hybrid isometry's batches, which the daemon
//! releases in their frames through the same row kernels as RBT's. This
//! file is its own test binary holding one test, so the counting allocator
//! below sees only the round trips under test (and whatever the in-process
//! daemon's threads allocate meanwhile, which counts too).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::SeedableRng;
use rbt::server::wire::{Request, Response};
use rbt::server::{Client, Server, SessionRegistry};
use rbt::{Dataset, Matrix, Method, Release};

/// The system allocator, counting every allocation, its bytes, and the
/// ones of at least [`LARGE`] bytes.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// An allocation this size or larger is row-sized, not bookkeeping.
const LARGE: usize = 64 * 1024;

fn record(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    if size >= LARGE {
        LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain atomics and
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr`/`layout` came from `System`; the caller guarantees
        // `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// (allocations, bytes, large allocations) so far.
fn counters() -> [u64; 3] {
    [&ALLOCS, &BYTES, &LARGE_ALLOCS].map(|c| c.load(Ordering::SeqCst))
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

/// Runs `round_trip` `WARM_UP` times, then `MEASURED` times under the
/// counters, and checks the per-round-trip budget of `phase`.
fn measure(phase: &str, round_trip: &mut dyn FnMut()) {
    const WARM_UP: u64 = 16;
    const MEASURED: u64 = 32;
    // Two row-sized blocks of 1 MiB each, plus a little bookkeeping.
    const BYTES_PER_ROUND_TRIP: u64 = 2_306_867; // 2.2 MiB
    const LARGE_PER_ROUND_TRIP: u64 = 2;

    for _ in 0..WARM_UP {
        round_trip();
    }
    let before = counters();
    for _ in 0..MEASURED {
        round_trip();
    }
    let after = counters();
    let [allocs, bytes, large] = [0, 1, 2].map(|i| after[i] - before[i]);
    eprintln!(
        "{phase}, per round trip: {:.2} allocations, {:.3} MiB, {:.2} of at least 64 KiB",
        allocs as f64 / MEASURED as f64,
        bytes as f64 / MEASURED as f64 / (1024.0 * 1024.0),
        large as f64 / MEASURED as f64,
    );
    assert!(
        bytes <= BYTES_PER_ROUND_TRIP * MEASURED,
        "{phase}: {bytes} bytes over {MEASURED} round trips"
    );
    assert!(
        large <= LARGE_PER_ROUND_TRIP * MEASURED,
        "{phase}: {large} row-sized allocations over {MEASURED} round trips"
    );
}

#[test]
fn a_served_round_trip_allocates_rows_only_in_the_client() {
    let fitted = Release::of(&dataset(1, 256, 16))
        .with_method(Method::Rbt)
        .fit(&mut rand::rngs::StdRng::seed_from_u64(2024))
        .unwrap();
    let server = Server::spawn("127.0.0.1:0", Arc::new(SessionRegistry::new(4)), 8).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.load_key("t", fitted.to_bytes().unwrap()).unwrap();

    let batch = dataset(2, 8192, 16);
    let request = Request::Transform {
        tenant: "t".to_string(),
        batch: batch.clone(),
    };
    measure("send + receive", &mut || {
        client.send(&request).unwrap();
        match client.receive().unwrap() {
            Response::Transformed { released, .. } => assert_eq!(released.n_rows(), 8192),
            other => panic!("expected Transformed, got {other:?}"),
        }
    });
    measure("Client::transform", &mut || {
        let (released, _) = client.transform("t", &batch).unwrap();
        assert_eq!(released.n_rows(), 8192);
    });

    // Hybrid isometry's batches are released in their frames as RBT's are.
    let hybrid = Release::of(&dataset(1, 256, 16))
        .with_method(Method::HybridIsometry)
        .fit(&mut rand::rngs::StdRng::seed_from_u64(2024))
        .unwrap();
    client.load_key("h", hybrid.to_bytes().unwrap()).unwrap();
    let request = Request::Transform {
        tenant: "h".to_string(),
        batch: batch.clone(),
    };
    measure("hybrid isometry, send + receive", &mut || {
        client.send(&request).unwrap();
        match client.receive().unwrap() {
            Response::Transformed { released, .. } => assert_eq!(released.n_rows(), 8192),
            other => panic!("expected Transformed, got {other:?}"),
        }
    });
    server.shutdown();
}
