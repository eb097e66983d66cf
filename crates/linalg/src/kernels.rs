//! Unrolled, auto-vectorizable distance kernels.
//!
//! [`Metric::distance`](crate::distance::Metric::distance) folds into a
//! single accumulator, which serialises the floating-point adds (IEEE
//! addition is not associative, so the compiler cannot reorder them). The
//! kernels here instead:
//!
//! * keep **eight** independent accumulators per row, breaking the add
//!   dependency chain so the CPU can overlap the adds,
//! * contract `d·d + acc` into a fused multiply-add **when the build
//!   target has the `fma` feature** (see `.cargo/config.toml`, which builds
//!   for the host CPU) — the cfg-gate matters because without hardware FMA
//!   `mul_add` falls back to a slow libm call,
//! * fuse "one query row against a block of rows" loops that interleave
//!   two target rows per pass, so the query stays in registers and the
//!   sixteen accumulator chains keep the FP units busy.
//!
//! Eight accumulators of one row are not eight SIMD lanes, though: in the
//! release build the paired kernel behind [`nearest_row_squared`] and
//! [`distances_to_block`] packs at most two lanes per instruction (lane
//! `l` of the two interleaved rows). The kernel that fills vector
//! registers is the k-means assignment kernel
//! [`nearest_rows_squared_blocked`], because its SIMD lanes are *rows*: it
//! reads a column-major copy of the data, so one column of a 16-row block
//! is 16 contiguous values, and each row still accumulates exactly as
//! [`squared_euclidean`] does.
//!
//! Reordering (and fusing) a sum changes the result in the last few ulps,
//! so kernel distances agree with the scalar [`Metric::distance`] reference
//! to ~1e-12 **relative** error, not bit-for-bit — the property tests in
//! `tests/properties.rs` pin exactly that contract. What *is* exact: every
//! kernel in this module computes a given (query, row) distance with the
//! same per-row accumulation structure, so the block kernels, the pairwise
//! kernels, the row-blocked assignment kernel and the parallel
//! dissimilarity builder all agree bit-for-bit with each other.

use crate::distance::Metric;

/// `a · b + c`, fused when the target has hardware FMA and an ordinary
/// multiply-add otherwise (the libm software fallback of `mul_add` is far
/// slower than two rounded operations).
#[inline(always)]
fn fmadd(a: f64, b: f64, c: f64) -> f64 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, c)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        a * b + c
    }
}

/// Squared Euclidean distance with eight independent accumulator chains.
#[inline]
pub fn squared_euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "distance between unequal-length points");
    let len = a.len().min(b.len());
    let (a, b) = (&a[..len], &b[..len]);
    let mut s = [0.0f64; 8];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (x, y) in (&mut ca).zip(&mut cb) {
        for l in 0..8 {
            let d = x[l] - y[l];
            s[l] = fmadd(d, d, s[l]);
        }
    }
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x - y;
        s[0] = fmadd(d, d, s[0]);
    }
    ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))
}

/// Euclidean distance via [`squared_euclidean`].
#[inline]
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    squared_euclidean(a, b).sqrt()
}

/// Manhattan (L1) distance with eight independent accumulator chains.
#[inline]
pub fn manhattan(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "distance between unequal-length points");
    let len = a.len().min(b.len());
    let (a, b) = (&a[..len], &b[..len]);
    let mut s = [0.0f64; 8];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (x, y) in (&mut ca).zip(&mut cb) {
        for l in 0..8 {
            s[l] += (x[l] - y[l]).abs();
        }
    }
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        s[0] += (x - y).abs();
    }
    ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))
}

/// Squared Euclidean distances from `q` to two rows at once. Each row's
/// accumulation has exactly the structure of [`squared_euclidean`], so the
/// results are bit-identical to two separate calls — the interleave only
/// buys instruction-level parallelism (sixteen independent FMA chains) and
/// one pass over `q`.
#[inline]
fn squared_two_rows(q: &[f64], ra: &[f64], rb: &[f64]) -> (f64, f64) {
    let mut sa = [0.0f64; 8];
    let mut sb = [0.0f64; 8];
    let mut cq = q.chunks_exact(8);
    let mut c1 = ra.chunks_exact(8);
    let mut c2 = rb.chunks_exact(8);
    while let (Some(x), Some(ya), Some(yb)) = (cq.next(), c1.next(), c2.next()) {
        for l in 0..8 {
            let d = x[l] - ya[l];
            sa[l] = fmadd(d, d, sa[l]);
        }
        for l in 0..8 {
            let e = x[l] - yb[l];
            sb[l] = fmadd(e, e, sb[l]);
        }
    }
    let rem = cq.remainder();
    let base = q.len() - rem.len();
    for (k, x) in rem.iter().enumerate() {
        let d = x - ra[base + k];
        sa[0] = fmadd(d, d, sa[0]);
        let e = x - rb[base + k];
        sb[0] = fmadd(e, e, sb[0]);
    }
    (
        ((sa[0] + sa[1]) + (sa[2] + sa[3])) + ((sa[4] + sa[5]) + (sa[6] + sa[7])),
        ((sb[0] + sb[1]) + (sb[2] + sb[3])) + ((sb[4] + sb[5]) + (sb[6] + sb[7])),
    )
}

/// Distance from `query` to a single row under `metric`, using the unrolled
/// kernels for the metrics that have one and the scalar
/// [`Metric::distance`] for the rest.
#[inline]
pub fn distance(metric: Metric, query: &[f64], row: &[f64]) -> f64 {
    match metric {
        Metric::Euclidean => euclidean(query, row),
        Metric::SquaredEuclidean => squared_euclidean(query, row),
        Metric::Manhattan => manhattan(query, row),
        other => other.distance(query, row),
    }
}

/// Fused kernel: distances from one `query` row to a contiguous block of
/// row-major rows.
///
/// `block` holds `out.len()` rows of `cols` values each (a sub-slice of a
/// [`Matrix`](crate::Matrix) buffer); `out[r]` receives
/// `metric(query, block_row_r)`. For the Euclidean metrics, pairs of
/// target rows are interleaved (sixteen independent accumulator chains) —
/// bit-identical to per-pair kernel calls, roughly 1.5× faster.
///
/// # Panics
///
/// Panics if `block` is shorter than `out.len() * cols`.
pub fn distances_to_block(
    metric: Metric,
    query: &[f64],
    block: &[f64],
    cols: usize,
    out: &mut [f64],
) {
    assert!(
        block.len() >= out.len() * cols,
        "block holds {} values, need {} rows of {cols}",
        block.len(),
        out.len()
    );
    if cols == 0 {
        // Zero-attribute rows are all coincident; every supported metric
        // reports distance 0 for them.
        out.fill(0.0);
        return;
    }
    match metric {
        Metric::Euclidean => {
            let rows = out.len();
            let mut row_pairs = block[..rows * cols].chunks_exact(2 * cols);
            let mut out_pairs = out.chunks_exact_mut(2);
            for (pair, slots) in (&mut row_pairs).zip(&mut out_pairs) {
                let (d2a, d2b) = squared_two_rows(query, &pair[..cols], &pair[cols..]);
                slots[0] = d2a.sqrt();
                slots[1] = d2b.sqrt();
            }
            if let [slot] = out_pairs.into_remainder() {
                *slot = squared_euclidean(query, row_pairs.remainder()).sqrt();
            }
        }
        Metric::SquaredEuclidean => {
            let rows = out.len();
            let mut row_pairs = block[..rows * cols].chunks_exact(2 * cols);
            let mut out_pairs = out.chunks_exact_mut(2);
            for (pair, slots) in (&mut row_pairs).zip(&mut out_pairs) {
                let (d2a, d2b) = squared_two_rows(query, &pair[..cols], &pair[cols..]);
                slots[0] = d2a;
                slots[1] = d2b;
            }
            if let [slot] = out_pairs.into_remainder() {
                *slot = squared_euclidean(query, row_pairs.remainder());
            }
        }
        Metric::Manhattan => {
            for (r, slot) in out.iter_mut().enumerate() {
                *slot = manhattan(query, &block[r * cols..(r + 1) * cols]);
            }
        }
        other => {
            for (r, slot) in out.iter_mut().enumerate() {
                *slot = other.distance(query, &block[r * cols..(r + 1) * cols]);
            }
        }
    }
}

/// Index and distance of the row of `block` nearest to `query` under the
/// squared-Euclidean metric (the k-means assignment kernel).
///
/// Rows are scanned in order and ties keep the earliest index; the
/// distances come from the same kernels as [`distances_to_block`], so the
/// argmin matches a scalar first-minimum loop over those values exactly —
/// which is what makes parallel k-means assignment bit-identical to the
/// serial path.
///
/// Returns `(0, f64::INFINITY)` for an empty block.
pub fn nearest_row_squared(query: &[f64], block: &[f64], cols: usize, rows: usize) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    let mut r = 0usize;
    while r + 2 <= rows {
        let (d2a, d2b) = squared_two_rows(
            query,
            &block[r * cols..(r + 1) * cols],
            &block[(r + 1) * cols..(r + 2) * cols],
        );
        if d2a < best.1 {
            best = (r, d2a);
        }
        if d2b < best.1 {
            best = (r + 1, d2b);
        }
        r += 2;
    }
    if r < rows {
        let d2 = squared_euclidean(query, &block[r * cols..(r + 1) * cols]);
        if d2 < best.1 {
            best = (r, d2);
        }
    }
    best
}

/// `lane[r] += (xs[r] − cv)²` for a block of rows: one accumulator lane of
/// [`squared_euclidean`] for each row, with its operand order.
#[inline(always)]
fn accumulate_squares(
    lane: &mut [f64; NEAREST_BLOCK_ROWS],
    xs: [f64; NEAREST_BLOCK_ROWS],
    cv: f64,
) {
    for (s, x) in lane.iter_mut().zip(&xs) {
        let d = x - cv;
        *s = fmadd(d, d, *s);
    }
}

/// Rows per block of [`nearest_rows_squared_blocked`]: its eight
/// accumulator lanes of sixteen rows are 128 f64, which fill the 32
/// four-wide vector registers of an AVX-512 host. On the `federate`
/// assignment shape (16,000 × 16, k = 8) blocks of 16 rows ran 2.5–2.8×
/// faster than the per-row kernel, blocks of 8 rows 1.6–1.7× and blocks of
/// 32 rows, which spill, 1.4–2.0× (2-vCPU AVX-512 Xeon,
/// `target-cpu=native`).
pub const NEAREST_BLOCK_ROWS: usize = 16;

/// Index and squared distance of the centroid nearest to each row of a run
/// of whole [`NEAREST_BLOCK_ROWS`]-row blocks — the k-means assignment
/// kernel, vectorized across rows.
///
/// `columns` is the data **transposed** (`cols × m`, one
/// [`Matrix::transpose`](crate::Matrix::transpose) of the `m × cols`
/// data), so each column of a block is sixteen contiguous values and the
/// row loop runs in SIMD lanes. `out[i]` receives the result for data row
/// `start + i`.
///
/// Every (row, centroid) distance takes exactly the arithmetic of
/// [`squared_euclidean`] — same lanes, same operand order, same final
/// reduction — and centroids are scanned in order with a strict `<` from
/// `(0, +∞)`, as in [`nearest_row_squared`]. So each `out[i]` is
/// bit-identical to `nearest_row_squared(row, centroids, cols, k)`: ties
/// keep the lowest index, a NaN distance never wins, and a row whose every
/// distance is NaN gets `(0, +∞)`.
///
/// # Panics
///
/// Panics if `out.len()` is not a multiple of [`NEAREST_BLOCK_ROWS`], if
/// the rows run past `columns.cols()`, or if `centroids` does not have
/// `columns.rows()` columns.
pub fn nearest_rows_squared_blocked(
    columns: &crate::Matrix,
    start: usize,
    centroids: &crate::Matrix,
    out: &mut [(usize, f64)],
) {
    const B: usize = NEAREST_BLOCK_ROWS;
    let (cols, m) = columns.shape();
    assert_eq!(
        centroids.cols(),
        cols,
        "centroids have {} columns, data {cols}",
        centroids.cols()
    );
    assert!(
        out.len().is_multiple_of(B) && start + out.len() <= m,
        "rows {start}..{} are not whole {B}-row blocks of {m} rows",
        start + out.len()
    );
    let x = columns.as_slice();
    for (b, slots) in out.chunks_exact_mut(B).enumerate() {
        let first = start + b * B;
        let mut best_index = [0usize; B];
        let mut best_d2 = [f64::INFINITY; B];
        for c in 0..centroids.rows() {
            // (the block's part of column `j`, centroid coordinate `j`) in
            // column order. The column part is copied by value: with every
            // load ahead of the accumulator updates, LLVM packs each lane
            // update into vector instructions, which it does not do for a
            // borrowed column.
            let mut terms =
                x.chunks_exact(m)
                    .zip(centroids.row(c))
                    .map(|(column, &cv)| -> ([f64; B], f64) {
                        let xs = column[first..first + B]
                            .try_into()
                            .expect("a block column holds B values");
                        (xs, cv)
                    });
            // `acc[l][r]` is lane `l` of row `r`'s `squared_euclidean`.
            let mut acc = [[0.0f64; B]; 8];
            for _ in 0..cols / 8 {
                for lane in &mut acc {
                    let (xs, cv) = terms.next().expect("a full chunk has eight columns");
                    accumulate_squares(lane, xs, cv);
                }
            }
            for (xs, cv) in terms {
                accumulate_squares(&mut acc[0], xs, cv);
            }
            for r in 0..B {
                let s = |l: usize| acc[l][r];
                let d2 = ((s(0) + s(1)) + (s(2) + s(3))) + ((s(4) + s(5)) + (s(6) + s(7)));
                if d2 < best_d2[r] {
                    best_d2[r] = d2;
                    best_index[r] = c;
                }
            }
        }
        for ((slot, index), d2) in slots.iter_mut().zip(best_index).zip(best_d2) {
            *slot = (index, d2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
    }

    fn sample(n: usize, seed: f64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as f64 + seed) * 0.7).sin() * 10.0)
            .collect()
    }

    #[test]
    fn kernels_match_scalar_reference() {
        // Lengths around the unroll width, including the remainder cases.
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 33] {
            let a = sample(n, 0.0);
            let b = sample(n, 3.0);
            assert!(close(
                squared_euclidean(&a, &b),
                Metric::SquaredEuclidean.distance(&a, &b)
            ));
            assert!(close(euclidean(&a, &b), Metric::Euclidean.distance(&a, &b)));
            assert!(close(manhattan(&a, &b), Metric::Manhattan.distance(&a, &b)));
        }
    }

    #[test]
    fn dispatch_covers_all_metrics() {
        let a = sample(9, 1.0);
        let b = sample(9, 2.0);
        for metric in [
            Metric::Euclidean,
            Metric::SquaredEuclidean,
            Metric::Manhattan,
            Metric::Chebyshev,
            Metric::Minkowski(3.0),
        ] {
            assert!(close(distance(metric, &a, &b), metric.distance(&a, &b)));
        }
    }

    #[test]
    fn block_kernel_bitwise_matches_pairwise() {
        // Odd row counts exercise the interleave tail; lengths around the
        // unroll width exercise the remainder loop.
        for cols in [3usize, 4, 6, 8, 11] {
            for rows in [0usize, 1, 2, 5, 11, 12] {
                let query = sample(cols, 0.5);
                let block: Vec<f64> = sample(rows * cols, 9.0);
                for metric in [
                    Metric::Euclidean,
                    Metric::SquaredEuclidean,
                    Metric::Manhattan,
                    Metric::Chebyshev,
                ] {
                    let mut out = vec![0.0; rows];
                    distances_to_block(metric, &query, &block, cols, &mut out);
                    for r in 0..rows {
                        let expect = distance(metric, &query, &block[r * cols..(r + 1) * cols]);
                        assert_eq!(
                            out[r].to_bits(),
                            expect.to_bits(),
                            "metric {metric} cols {cols} rows {rows} row {r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn block_kernel_zero_cols_is_all_zero() {
        let mut out = vec![1.0; 4];
        distances_to_block(Metric::Euclidean, &[], &[], 0, &mut out);
        assert_eq!(out, vec![0.0; 4]);
    }

    #[test]
    fn nearest_row_scans_in_order() {
        let cols = 3;
        // Rows 1 and 3 are both exact matches; the earliest must win.
        let query = [1.0, 2.0, 3.0];
        let block = [
            9.0, 9.0, 9.0, //
            1.0, 2.0, 3.0, //
            0.0, 0.0, 0.0, //
            1.0, 2.0, 3.0, //
        ];
        let (idx, d2) = nearest_row_squared(&query, &block, cols, 4);
        assert_eq!(idx, 1);
        assert_eq!(d2, 0.0);
        let (idx, d2) = nearest_row_squared(&query, &[], cols, 0);
        assert_eq!(idx, 0);
        assert_eq!(d2, f64::INFINITY);
    }

    #[test]
    fn nearest_row_matches_sequential_scan() {
        // Odd and even row counts (interleave tail) against a reference
        // first-minimum scan over the same kernel distances.
        for rows in [1usize, 2, 5, 8, 13] {
            let cols = 7;
            let query = sample(cols, 2.5);
            let block: Vec<f64> = sample(rows * cols, 4.0);
            let mut best = (0usize, f64::INFINITY);
            for r in 0..rows {
                let d2 = squared_euclidean(&query, &block[r * cols..(r + 1) * cols]);
                if d2 < best.1 {
                    best = (r, d2);
                }
            }
            assert_eq!(nearest_row_squared(&query, &block, cols, rows), best);
        }
    }

    /// A deterministic value stream. `special` mixes in the inputs that
    /// stress the argmin: ±0, NaN, ±∞ and magnitudes near 1e±300; the
    /// small integers make exact distance ties between distinct centroids.
    fn value(i: usize, special: bool) -> f64 {
        let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
        let plain = ((i as f64) * 0.7).sin() * 10.0;
        match (special, h % 16) {
            (_, 0) => (plain * 0.5).round(),
            (true, 1) => 0.0,
            (true, 2) => -0.0,
            (true, 3) => f64::NAN,
            (true, 4) => f64::INFINITY,
            (true, 5) => f64::NEG_INFINITY,
            (true, 6) => plain * 1e298,
            (true, 7) => plain * 1e-301,
            _ => plain,
        }
    }

    /// `rows × cols` data and `k × cols` centroids. Centroid 2 repeats
    /// centroid 1 (an exact tie), row 3 sits on centroid 0, and with
    /// `special` row 4 and centroid 0 are all NaN.
    fn tie_and_special_fixture(
        rows: usize,
        cols: usize,
        k: usize,
        special: bool,
    ) -> (Matrix, Matrix) {
        let mut data = Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|i| value(i, special)).collect(),
        )
        .unwrap();
        let mut centroids = Matrix::from_vec(
            k,
            cols,
            (0..k * cols).map(|i| value(i + 7919, special)).collect(),
        )
        .unwrap();
        if k > 2 {
            let one = centroids.row(1).to_vec();
            centroids.row_mut(2).copy_from_slice(&one);
        }
        let zero = centroids.row(0).to_vec();
        data.row_mut(3).copy_from_slice(&zero);
        if special {
            data.row_mut(4).fill(f64::NAN);
            centroids.row_mut(0).fill(f64::NAN);
        }
        (data, centroids)
    }

    /// Runs the blocked kernel over the whole blocks from `start` and checks
    /// every row against the per-row kernel, index and d² bits.
    fn assert_blocked_matches_per_row(data: &Matrix, centroids: &Matrix, start: usize) {
        let (rows, cols) = data.shape();
        let columns = data.transpose();
        let blocks = (rows - start) / NEAREST_BLOCK_ROWS;
        let mut out = vec![(usize::MAX, f64::NAN); blocks * NEAREST_BLOCK_ROWS];
        nearest_rows_squared_blocked(&columns, start, centroids, &mut out);
        for (t, &(index, d2)) in out.iter().enumerate() {
            let (want_index, want_d2) = nearest_row_squared(
                data.row(start + t),
                centroids.as_slice(),
                cols,
                centroids.rows(),
            );
            assert_eq!(
                (index, d2.to_bits()),
                (want_index, want_d2.to_bits()),
                "cols {cols} k {} start {start} row {}",
                centroids.rows(),
                start + t
            );
        }
    }

    #[test]
    fn blocked_nearest_bitwise_matches_per_row() {
        // 35 rows: two whole blocks plus a tail, so block starts at every
        // offset 0..16 leave one or two whole blocks. Column counts cover
        // no columns, the remainder-only case, and one to four full
        // eight-column chunks with every remainder length.
        for special in [false, true] {
            for cols in 0..=33 {
                for k in 1..=17 {
                    let (data, centroids) = tie_and_special_fixture(35, cols, k, special);
                    for start in 0..NEAREST_BLOCK_ROWS {
                        assert_blocked_matches_per_row(&data, &centroids, start);
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_nearest_keeps_per_row_edge_cases() {
        let cols = 3;
        let mut data = Matrix::zeros(NEAREST_BLOCK_ROWS, cols);
        data.row_mut(1).copy_from_slice(&[1.0, 2.0, 3.0]);
        data.row_mut(2).fill(f64::NAN);
        data.row_mut(3).copy_from_slice(&[-0.0, 0.0, -0.0]);
        let centroids = Matrix::from_rows(&[
            &[9.0, 9.0, 9.0],
            &[1.0, 2.0, 3.0],
            &[0.0, 0.0, 0.0],
            &[1.0, 2.0, 3.0],
        ])
        .unwrap();
        let mut out = vec![(usize::MAX, f64::NAN); NEAREST_BLOCK_ROWS];
        nearest_rows_squared_blocked(&data.transpose(), 0, &centroids, &mut out);
        // Exact duplicates: the lowest index wins the tie.
        assert_eq!(out[1], (1, 0.0));
        // An all-NaN row never beats the (0, +∞) start.
        assert_eq!(out[2].0, 0);
        assert_eq!(out[2].1, f64::INFINITY);
        // −0 − (+0) is −0, which squares to +0: an exact hit on centroid 2.
        assert_eq!((out[3].0, out[3].1.to_bits()), (2, 0));
        // Zero columns: every distance is 0, so centroid 0 wins.
        let mut out = vec![(usize::MAX, f64::NAN); NEAREST_BLOCK_ROWS];
        nearest_rows_squared_blocked(
            &Matrix::zeros(0, NEAREST_BLOCK_ROWS),
            0,
            &Matrix::zeros(2, 0),
            &mut out,
        );
        assert!(out.iter().all(|&(i, d2)| i == 0 && d2.to_bits() == 0));
        // No centroids: every row gets (0, +∞), as from the per-row kernel.
        let mut out = vec![(usize::MAX, f64::NAN); NEAREST_BLOCK_ROWS];
        nearest_rows_squared_blocked(&data.transpose(), 0, &Matrix::zeros(0, cols), &mut out);
        assert!(out.iter().all(|&(i, d2)| i == 0 && d2 == f64::INFINITY));
        // No rows at all.
        nearest_rows_squared_blocked(&Matrix::zeros(cols, 0), 0, &centroids, &mut []);
    }

    #[test]
    #[should_panic(expected = "whole 16-row blocks")]
    fn blocked_nearest_rejects_a_partial_block() {
        let data = Matrix::zeros(20, 2);
        let mut out = vec![(0, 0.0); 4];
        nearest_rows_squared_blocked(&data.transpose(), 16, &Matrix::zeros(1, 2), &mut out);
    }
}
