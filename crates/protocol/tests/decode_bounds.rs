//! Decoding a federation message never sizes an allocation from a declared
//! count before the bytes behind that count exist.
//!
//! The daemon decodes these messages from any client's `FedMsg` blobs, so a
//! short, CRC-valid message declaring a huge matrix or label count must come
//! back as a typed error without first asking the allocator for gigabytes
//! (which aborts the process wherever the kernel refuses the request). This
//! file is its own test binary holding one test, so the recording allocator
//! below sees only the decode under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rbt_linalg::codec::{crc32, DecodeError};
use rbt_linalg::Matrix;
use rbt_protocol::{JointSummary, Message};

/// The system allocator, recording the largest single layout requested.
struct LargestRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the recorder is a plain atomic and
// never allocates.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` came from `System`; the caller guarantees
        // `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LargestRequest = LargestRequest;

/// The largest allocation a hostile message may cause while it is rejected.
const ALLOC_LIMIT: usize = 64 * 1024;

/// Keeps the first `keep` bytes of an encoded message, lets `patch` rewrite
/// them, and appends a fresh CRC-32 trailer, so the only defect left is the
/// declared count.
fn reseal(encoded: &[u8], keep: usize, patch: impl FnOnce(&mut [u8])) -> Vec<u8> {
    let mut bytes = encoded[..keep].to_vec();
    patch(&mut bytes);
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

/// Decodes `bytes` and returns the error with the largest allocation the
/// decode requested.
fn decode_recording(bytes: &[u8]) -> (DecodeError, usize) {
    LARGEST.store(0, Ordering::SeqCst);
    let result = Message::decode(bytes);
    let largest = LARGEST.load(Ordering::SeqCst);
    (result.expect_err("a count the bytes cannot hold"), largest)
}

#[test]
fn declared_counts_are_checked_against_the_bytes_before_allocating() {
    // OwnerRelease: tag (1) · session (8) · owner (2) · rows (8) · cols (2)
    // · f64 cells · CRC. Cut the cells and declare 16384 × 16384 of them
    // (2 GiB of f64s, the largest shape the plausibility bound admits).
    let release = Message::OwnerRelease {
        session: 7,
        owner: 0,
        matrix: Matrix::from_vec(1, 1, vec![0.5]).unwrap(),
    }
    .encode();
    let release = reseal(&release, 21, |b| {
        b[11..19].copy_from_slice(&16_384u64.to_le_bytes());
        b[19..21].copy_from_slice(&16_384u16.to_le_bytes());
    });
    assert_eq!(release.len(), 25);
    let (err, largest) = decode_recording(&release);
    assert!(
        largest <= ALLOC_LIMIT,
        "OwnerRelease decode requested {largest} bytes"
    );
    assert!(matches!(err, DecodeError::Truncated { .. }), "{err:?}");

    // JointDataset: tag (1) · session (8) · rows (8) · cols (2) · label
    // count (8) · u32 labels · …. Cut after the count and declare 2^28
    // labels (1 GiB of u32s).
    let joint = Message::JointDataset {
        session: 7,
        summary: JointSummary {
            rows: 1,
            cols: 1,
            labels: vec![0],
            inertia: 0.0,
            iterations: 1,
            converged: true,
        },
    }
    .encode();
    let joint = reseal(&joint, 27, |b| {
        b[19..27].copy_from_slice(&(1u64 << 28).to_le_bytes());
    });
    assert_eq!(joint.len(), 31);
    let (err, largest) = decode_recording(&joint);
    assert!(
        largest <= ALLOC_LIMIT,
        "JointDataset decode requested {largest} bytes"
    );
    assert!(matches!(err, DecodeError::Malformed { .. }), "{err:?}");
}
