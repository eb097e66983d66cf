//! A small scoped fork–join pool shared by the library's O(m²) and
//! iterative hot paths: the dissimilarity build, k-means assignment and
//! DBSCAN region queries. Release sessions do not fork: a release costs
//! about a memcpy, so every batch runs on its caller's thread, and the
//! daemon's worker pool spreads requests over the cores.
//!
//! The workspace's parallelism needs are uniform: split a contiguous output
//! buffer (condensed distances, label arrays, neighbour lists) into disjoint
//! chunks and fill each chunk independently. [`Pool`] packages exactly that
//! on top of `std::thread::scope` — no queues, no locks, no long-lived
//! worker threads, and therefore nothing to shut down. Spawning a handful
//! of OS threads per call is noise next to the O(m²) work the callers do;
//! when a call has only one chunk (or the pool was built with one thread)
//! everything runs inline on the caller's thread, so the serial and
//! parallel paths share one code path and produce bit-identical output.
//!
//! The partition helpers are the other half of the story: [`even_chunks`]
//! splits `n` items into equal ranges, and [`pair_chunks`] splits the rows
//! of a condensed pairwise-distance build on **exact cumulative pair
//! counts**, so early rows (which own long condensed spans) do not overload
//! the first thread.

use std::num::NonZeroUsize;

/// The default thread budget: the `RBT_THREADS` environment variable when
/// it holds a positive integer, otherwise the machine's available
/// parallelism (`1` when it cannot be queried).
///
/// This is the default thread count every production call site uses; pass
/// an explicit count only to pin behaviour in tests or benches.
/// `RBT_THREADS=1` forces every pooled path onto the caller's thread — CI
/// runs the whole test suite a second time under it so the serial≡parallel
/// contracts are exercised on both sides.
pub fn default_threads() -> usize {
    match threads_from_env(std::env::var("RBT_THREADS").ok().as_deref()) {
        Some(n) => n,
        None => std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1),
    }
}

/// Parses an `RBT_THREADS`-style override: `Some(n)` for a positive
/// integer, `None` for an unset, empty, zero, or unparsable value.
fn threads_from_env(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// A scoped fork–join pool with a fixed thread budget.
///
/// # Example
///
/// ```
/// use rbt_linalg::pool::{even_chunks, Pool};
///
/// let mut out = vec![0usize; 10];
/// let bounds = even_chunks(out.len(), 4);
/// Pool::new(4).for_each_chunk_mut(&mut out, &bounds, |_, start, chunk| {
///     for (k, slot) in chunk.iter_mut().enumerate() {
///         *slot = (start + k) * 2;
///     }
/// });
/// assert_eq!(out[7], 14);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::auto()
    }
}

impl Pool {
    /// A pool that uses at most `threads` threads (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// A pool sized by [`default_threads`].
    pub fn auto() -> Self {
        Pool::new(default_threads())
    }

    /// The thread budget.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Splits `data` at the element offsets in `boundaries` (monotone,
    /// starting at `0` and ending at `data.len()`) and runs
    /// `f(chunk_index, start_offset, chunk)` on every non-empty chunk,
    /// spawning at most [`threads`](Self::threads) scoped threads — when the
    /// caller partitions finer than the budget, chunks are grouped into
    /// contiguous batches. With one thread or one chunk the calls run
    /// inline. Chunk count and grouping never change *what* is computed,
    /// only where, so output is bit-identical for every configuration.
    ///
    /// # Panics
    ///
    /// Panics if `boundaries` is not a monotone partition of `data`.
    pub fn for_each_chunk_mut<T, F>(&self, data: &mut [T], boundaries: &[usize], f: F)
    where
        T: Send,
        F: Fn(usize, usize, &mut [T]) + Sync,
    {
        assert!(
            boundaries.first() == Some(&0) && boundaries.last() == Some(&data.len()),
            "boundaries must start at 0 and end at data.len()"
        );
        assert!(
            boundaries.windows(2).all(|w| w[0] <= w[1]),
            "boundaries must be monotone"
        );
        // Materialise the non-empty chunks once, then hand them out.
        let mut chunks: Vec<(usize, usize, &mut [T])> = Vec::new();
        {
            let mut rest = data;
            let mut consumed = 0usize;
            for (idx, w) in boundaries.windows(2).enumerate() {
                let (chunk, tail) = rest.split_at_mut(w[1] - consumed);
                consumed = w[1];
                rest = tail;
                if !chunk.is_empty() {
                    chunks.push((idx, w[0], chunk));
                }
            }
        }
        if self.threads <= 1 || chunks.len() <= 1 {
            for (idx, start, chunk) in chunks {
                f(idx, start, chunk);
            }
            return;
        }
        // Honour the thread budget even when the caller partitioned finer
        // than `threads`: group the chunks into at most `threads` contiguous
        // batches, one scoped thread per batch.
        let groups = even_chunks(chunks.len(), self.threads);
        std::thread::scope(|scope| {
            let f = &f;
            let mut rest: &mut [(usize, usize, &mut [T])] = &mut chunks;
            let mut consumed = 0usize;
            for w in groups.windows(2) {
                let (group, tail) = rest.split_at_mut(w[1] - consumed);
                consumed = w[1];
                rest = tail;
                if !group.is_empty() {
                    scope.spawn(move || {
                        for (idx, start, chunk) in group.iter_mut() {
                            f(*idx, *start, chunk);
                        }
                    });
                }
            }
        });
    }
}

/// Boundaries that split `n` items into at most `parts` equal chunks.
///
/// Returns `parts.min(n).max(1) + 1` monotone offsets starting at `0` and
/// ending at `n`; no chunk is empty (unless `n == 0`).
pub fn even_chunks(n: usize, parts: usize) -> Vec<usize> {
    let parts = parts.clamp(1, n.max(1));
    (0..=parts).map(|t| n * t / parts).collect()
}

/// Row boundaries that split a condensed pairwise build over `n` objects
/// into `parts` chunks of (near-)equal **pair count**.
///
/// Row `i` of the strict upper triangle owns `n − i − 1` pairs, so equal
/// *row* ranges would be badly skewed. This splits on exact cumulative pair
/// counts: boundary `t` is placed at the first row where the cumulative
/// count reaches `total · t / parts` (computed in integer arithmetic, no
/// drift). The result always has `parts + 1` entries, starts at `0` and
/// ends at `n`; trailing chunks may be empty when `parts > total`.
pub fn pair_chunks(n: usize, parts: usize) -> Vec<usize> {
    let parts = parts.max(1);
    let total = (n.saturating_sub(1) * n / 2) as u128;
    let mut bounds = Vec::with_capacity(parts + 1);
    bounds.push(0usize);
    let mut acc: u128 = 0;
    let mut t: u128 = 1;
    for i in 0..n {
        acc += (n - i - 1) as u128;
        while t < parts as u128 && acc * parts as u128 >= total * t {
            bounds.push(i + 1);
            t += 1;
        }
    }
    while bounds.len() < parts + 1 {
        bounds.push(n);
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
        assert_eq!(Pool::auto().threads(), default_threads());
        assert_eq!(Pool::new(0).threads(), 1);
    }

    #[test]
    fn threads_env_override_parsing() {
        // Valid overrides win…
        assert_eq!(threads_from_env(Some("1")), Some(1));
        assert_eq!(threads_from_env(Some(" 8 ")), Some(8));
        // …while unset/empty/zero/garbage fall back to autodetection.
        assert_eq!(threads_from_env(None), None);
        assert_eq!(threads_from_env(Some("")), None);
        assert_eq!(threads_from_env(Some("0")), None);
        assert_eq!(threads_from_env(Some("lots")), None);
        assert_eq!(threads_from_env(Some("-2")), None);
    }

    #[test]
    fn even_chunks_cover_and_balance() {
        for (n, parts) in [(10, 3), (7, 7), (3, 8), (0, 4), (100, 1)] {
            let b = even_chunks(n, parts);
            assert_eq!(*b.first().unwrap(), 0);
            assert_eq!(*b.last().unwrap(), n);
            assert!(b.windows(2).all(|w| w[0] <= w[1]));
            if n > 0 {
                // No empty chunk, sizes within 1 of each other.
                let sizes: Vec<usize> = b.windows(2).map(|w| w[1] - w[0]).collect();
                assert!(sizes.iter().all(|&s| s >= 1));
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(hi - lo <= 1, "n={n} parts={parts} sizes={sizes:?}");
            }
        }
    }

    #[test]
    fn pair_chunks_exact_balance() {
        // Includes n where total % parts != 0 and skewed triangular loads.
        for (n, parts) in [(101usize, 4usize), (200, 3), (65, 8), (7, 2), (1000, 16)] {
            let b = pair_chunks(n, parts);
            assert_eq!(b.len(), parts + 1);
            assert_eq!(b[0], 0);
            assert_eq!(*b.last().unwrap(), n);
            assert!(b.windows(2).all(|w| w[0] <= w[1]));
            let total = n * (n - 1) / 2;
            let pairs_in =
                |lo: usize, hi: usize| -> usize { (lo..hi).map(|i| n - i - 1).sum::<usize>() };
            let sizes: Vec<usize> = b.windows(2).map(|w| pairs_in(w[0], w[1])).collect();
            assert_eq!(sizes.iter().sum::<usize>(), total);
            // Each chunk is within one row's worth of pairs of the ideal.
            let ideal = total / parts;
            for (t, &s) in sizes.iter().enumerate() {
                assert!(
                    s <= ideal + n,
                    "n={n} parts={parts} chunk {t} holds {s} pairs (ideal {ideal})"
                );
            }
        }
    }

    #[test]
    fn pair_chunks_degenerate_inputs() {
        assert_eq!(pair_chunks(0, 4), vec![0, 0, 0, 0, 0]);
        assert_eq!(pair_chunks(1, 2), vec![0, 1, 1]);
        let b = pair_chunks(3, 8); // more parts than pairs
        assert_eq!(b.len(), 9);
        assert_eq!(*b.last().unwrap(), 3);
    }

    #[test]
    fn for_each_chunk_mut_fills_disjointly() {
        for threads in [1usize, 2, 4, 7] {
            let mut out = vec![0usize; 23];
            let bounds = even_chunks(out.len(), threads);
            Pool::new(threads).for_each_chunk_mut(&mut out, &bounds, |_, start, chunk| {
                for (k, slot) in chunk.iter_mut().enumerate() {
                    *slot = start + k + 1;
                }
            });
            let expect: Vec<usize> = (1..=23).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn for_each_chunk_mut_honours_thread_budget() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        // 16 chunks on a 3-thread pool: correct output, and no more than 3
        // distinct worker threads observed.
        let mut out = vec![0usize; 64];
        let bounds = even_chunks(out.len(), 16);
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        Pool::new(3).for_each_chunk_mut(&mut out, &bounds, |_, start, chunk| {
            seen.lock().unwrap().insert(std::thread::current().id());
            for (k, slot) in chunk.iter_mut().enumerate() {
                *slot = start + k + 1;
            }
        });
        assert_eq!(out, (1..=64).collect::<Vec<usize>>());
        assert!(seen.lock().unwrap().len() <= 3);
    }

    #[test]
    fn for_each_chunk_mut_skips_empty_chunks() {
        let mut out = vec![0u8; 4];
        // Middle chunk is empty.
        Pool::new(3).for_each_chunk_mut(&mut out, &[0, 2, 2, 4], |_, _, chunk| {
            assert!(!chunk.is_empty());
            for v in chunk {
                *v = 1;
            }
        });
        assert_eq!(out, vec![1, 1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "boundaries")]
    fn for_each_chunk_mut_rejects_bad_boundaries() {
        let mut out = vec![0u8; 4];
        Pool::new(2).for_each_chunk_mut(&mut out, &[0, 3], |_, _, _| {});
    }
}
