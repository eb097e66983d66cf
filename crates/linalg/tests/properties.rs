//! Property-based tests for the linear-algebra substrate.
//!
//! These check the invariants the RBT method's correctness rests on:
//! rotations are isometries, metrics satisfy the metric axioms, the
//! eigendecomposition reconstructs its input, and solvers actually solve.

use proptest::prelude::*;
use rbt_linalg::dissimilarity::DissimilarityMatrix;
use rbt_linalg::distance::Metric;
use rbt_linalg::eigen::symmetric_eigen;
use rbt_linalg::kernels;
use rbt_linalg::matrix::{apply_steps_in_rows, PairStep};
use rbt_linalg::rotation::{givens, is_orthogonal, Reflection2};
use rbt_linalg::solve::{invert, solve};
use rbt_linalg::stats::{covariance, mean, variance, variance_of_difference};
use rbt_linalg::{Matrix, Rotation2, VarianceMode};

fn vec_pair(len: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    len.prop_flat_map(|n| {
        (
            prop::collection::vec(-100.0..100.0f64, n),
            prop::collection::vec(-100.0..100.0f64, n),
        )
    })
}

fn small_matrix(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        prop::collection::vec(-50.0..50.0f64, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).unwrap())
    })
}

/// Mostly moderate values, with ±0, NaN, ±∞, magnitudes near 1e±300 and
/// small integers (exact distance ties) mixed in.
fn edge_value() -> impl Strategy<Value = f64> {
    (0u32..64, -100.0..100.0f64).prop_map(|(pick, v)| match pick {
        0 => 0.0,
        1 => -0.0,
        2 => f64::NAN,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        5 => v * 1e298,
        6 => v * 1e-302,
        7..=12 => v.round(),
        _ => v,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rotation_is_isometry(theta in -720.0..720.0f64, (xs, ys) in vec_pair(1..=32)) {
        let r = Rotation2::from_degrees(theta);
        let mut xr = xs.clone();
        let mut yr = ys.clone();
        r.apply_columns(&mut xr, &mut yr).unwrap();
        // Pairwise 2-D point norms are preserved.
        for i in 0..xs.len() {
            let before = xs[i].hypot(ys[i]);
            let after = xr[i].hypot(yr[i]);
            prop_assert!((before - after).abs() < 1e-8 * (1.0 + before));
        }
    }

    #[test]
    fn rotation_inverse_round_trips(theta in -360.0..360.0f64, (xs, ys) in vec_pair(1..=16)) {
        let r = Rotation2::from_degrees(theta);
        let mut xr = xs.clone();
        let mut yr = ys.clone();
        r.apply_columns(&mut xr, &mut yr).unwrap();
        r.inverse().apply_columns(&mut xr, &mut yr).unwrap();
        for (a, b) in xr.iter().zip(&xs) {
            prop_assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()));
        }
        for (a, b) in yr.iter().zip(&ys) {
            prop_assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn rotation_matrix_is_orthogonal(theta in -360.0..360.0f64) {
        prop_assert!(is_orthogonal(&Rotation2::from_degrees(theta).as_matrix(), 1e-10));
    }

    #[test]
    fn givens_matrix_is_orthogonal(theta in -360.0..360.0f64, n in 2usize..8, seed in 0usize..100) {
        let i = seed % n;
        let j = (seed / n + 1 + i) % n;
        prop_assume!(i != j);
        let g = givens(n, i, j, &Rotation2::from_degrees(theta)).unwrap();
        prop_assert!(is_orthogonal(&g, 1e-10));
    }

    #[test]
    fn metric_axioms((xs, ys) in vec_pair(1..=16)) {
        for metric in [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev, Metric::Minkowski(3.0)] {
            let d_xy = metric.distance(&xs, &ys);
            let d_yx = metric.distance(&ys, &xs);
            prop_assert!(d_xy >= 0.0);
            prop_assert!((d_xy - d_yx).abs() < 1e-9 * (1.0 + d_xy));
            prop_assert!(metric.distance(&xs, &xs) == 0.0);
        }
    }

    #[test]
    fn triangle_inequality((xs, ys) in vec_pair(2..=8), zs_seed in prop::collection::vec(-100.0..100.0f64, 8)) {
        let zs: Vec<f64> = xs.iter().enumerate().map(|(i, _)| zs_seed[i % zs_seed.len()]).collect();
        for metric in [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev] {
            let direct = metric.distance(&xs, &ys);
            let via = metric.distance(&xs, &zs) + metric.distance(&zs, &ys);
            prop_assert!(direct <= via + 1e-9 * (1.0 + via));
        }
    }

    #[test]
    fn variance_is_translation_invariant(xs in prop::collection::vec(-100.0..100.0f64, 2..32), shift in -1e3..1e3f64) {
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        for mode in [VarianceMode::Population, VarianceMode::Sample] {
            let v0 = variance(&xs, mode).unwrap();
            let v1 = variance(&shifted, mode).unwrap();
            prop_assert!((v0 - v1).abs() < 1e-6 * (1.0 + v0.abs()));
        }
    }

    #[test]
    fn variance_scales_quadratically(xs in prop::collection::vec(-100.0..100.0f64, 2..32), k in -10.0..10.0f64) {
        let scaled: Vec<f64> = xs.iter().map(|x| k * x).collect();
        let v0 = variance(&xs, VarianceMode::Sample).unwrap();
        let v1 = variance(&scaled, VarianceMode::Sample).unwrap();
        prop_assert!((v1 - k * k * v0).abs() < 1e-6 * (1.0 + v1.abs()));
    }

    #[test]
    fn var_of_difference_expansion((xs, ys) in vec_pair(2..=32)) {
        // Var(X−Y) = Var(X) + Var(Y) − 2 Cov(X,Y), any divisor.
        for mode in [VarianceMode::Population, VarianceMode::Sample] {
            let lhs = variance_of_difference(&xs, &ys, mode).unwrap();
            let rhs = variance(&xs, mode).unwrap() + variance(&ys, mode).unwrap()
                - 2.0 * covariance(&xs, &ys, mode).unwrap();
            prop_assert!((lhs - rhs).abs() < 1e-6 * (1.0 + lhs.abs()));
        }
    }

    #[test]
    fn mean_within_bounds(xs in prop::collection::vec(-100.0..100.0f64, 1..64)) {
        let m = mean(&xs).unwrap();
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    }

    #[test]
    fn dissimilarity_parallel_equals_serial(m in small_matrix(80, 5), threads in 2usize..6) {
        let serial = DissimilarityMatrix::from_matrix(&m, Metric::Euclidean);
        let parallel = DissimilarityMatrix::from_matrix_parallel(&m, Metric::Euclidean, threads);
        prop_assert_eq!(serial, parallel);
    }

    #[test]
    fn kernel_distances_match_scalar_metric((xs, ys) in vec_pair(1..=48)) {
        // The unrolled kernels reorder the accumulation (four independent
        // partial sums), so they agree with the scalar fold to relative
        // 1e-12, not bit-for-bit.
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0);
        prop_assert!(close(
            kernels::squared_euclidean(&xs, &ys),
            Metric::SquaredEuclidean.distance(&xs, &ys)
        ));
        prop_assert!(close(
            kernels::euclidean(&xs, &ys),
            Metric::Euclidean.distance(&xs, &ys)
        ));
        prop_assert!(close(
            kernels::manhattan(&xs, &ys),
            Metric::Manhattan.distance(&xs, &ys)
        ));
    }

    #[test]
    fn block_kernel_matches_per_pair_kernel(m in small_matrix(24, 9), q in 0usize..24) {
        // The fused row-to-block kernel preserves the per-pair summation
        // order, so it matches the pairwise kernel exactly.
        let q = q % m.rows();
        let query = m.row(q).to_vec();
        for metric in [Metric::Euclidean, Metric::SquaredEuclidean, Metric::Manhattan] {
            let mut out = vec![0.0; m.rows()];
            kernels::distances_to_block(metric, &query, m.as_slice(), m.cols(), &mut out);
            for (r, &d) in out.iter().enumerate() {
                prop_assert_eq!(d, kernels::distance(metric, &query, m.row(r)));
            }
        }
    }

    #[test]
    fn blocked_nearest_matches_per_row_kernel(
        ((rows, cols, k, start), data, centroids, dup) in (1usize..=4, 0usize..=20, 1usize..=10, 0usize..16)
            .prop_flat_map(|(blocks, cols, k, start)| {
                let rows = start + blocks * kernels::NEAREST_BLOCK_ROWS + start % 5;
                (
                    Just((rows, cols, k, start)),
                    prop::collection::vec(edge_value(), rows * cols),
                    prop::collection::vec(edge_value(), k * cols),
                    0usize..k,
                )
            })
    ) {
        // Whole blocks from an arbitrary start row, in a matrix with a
        // tail. Centroid `dup` repeats centroid 0, so exact ties are common.
        let data = Matrix::from_vec(rows, cols, data).unwrap();
        let mut centroids = Matrix::from_vec(k, cols, centroids).unwrap();
        let first = centroids.row(0).to_vec();
        centroids.row_mut(dup).copy_from_slice(&first);
        let blocks = (rows - start) / kernels::NEAREST_BLOCK_ROWS;
        let mut out = vec![(usize::MAX, f64::NAN); blocks * kernels::NEAREST_BLOCK_ROWS];
        kernels::nearest_rows_squared_blocked(&data.transpose(), start, &centroids, &mut out);
        for (t, &(index, d2)) in out.iter().enumerate() {
            let (want_index, want_d2) =
                kernels::nearest_row_squared(data.row(start + t), centroids.as_slice(), cols, k);
            prop_assert_eq!((index, d2.to_bits()), (want_index, want_d2.to_bits()));
        }
    }

    #[test]
    fn blocked_matmul_equals_naive(r in 1usize..10, c in 1usize..6, seed in 0u64..1000) {
        // k > 512 forces the tiled path (smaller shapes dispatch straight
        // to the naive loops). The blocked product visits k monotonically
        // per output element, so it is bit-for-bit the naive i-k-j product.
        let k = 513 + (seed as usize % 100);
        let a = Matrix::from_vec(
            r,
            k,
            (0..r * k).map(|t| ((t as f64) * 0.61).sin() * 10.0).collect(),
        ).unwrap();
        let b = Matrix::from_vec(
            k,
            c,
            (0..k * c).map(|t| ((t as f64) + seed as f64).sin() * 10.0).collect(),
        ).unwrap();
        prop_assert_eq!(a.matmul(&b).unwrap(), a.matmul_naive(&b).unwrap());
    }

    #[test]
    fn one_step_sweep_equals_extract_writeback(
        m in small_matrix(30, 6),
        theta in -360.0..360.0f64,
        pick in 0usize..30,
    ) {
        // A key fit rotates one pair at a time through the sweep: a
        // one-step sweep must match rotating the extracted columns.
        prop_assume!(m.cols() >= 2);
        let i = pick % m.cols();
        let j = (i + 1 + pick / m.cols()) % m.cols();
        prop_assume!(i != j);
        let rot = Rotation2::from_degrees(theta);
        let mut fused = m.clone();
        let n_cols = fused.cols();
        apply_steps_in_rows(fused.as_mut_slice(), n_cols, &[rot.step(i, j)]);
        let mut reference = m.clone();
        let mut xs = reference.column(i);
        let mut ys = reference.column(j);
        rot.apply_columns(&mut xs, &mut ys).unwrap();
        reference.set_column(i, &xs).unwrap();
        reference.set_column(j, &ys).unwrap();
        prop_assert_eq!(fused, reference); // bit-for-bit
    }

    #[test]
    fn dissimilarity_dense_round_trip(m in small_matrix(20, 4)) {
        let dm = DissimilarityMatrix::from_matrix(&m, Metric::Euclidean);
        let dense = dm.to_dense();
        for i in 0..m.rows() {
            for j in 0..m.rows() {
                prop_assert_eq!(dense[(i, j)], dm.get(i, j));
            }
        }
    }

    #[test]
    fn fused_sweep_is_bitwise_sequential(
        m in small_matrix(16, 8),
        raw_steps in prop::collection::vec(
            (0usize..64, 0usize..64, -360.0..360.0f64, any::<bool>()),
            0..12,
        ),
    ) {
        // One fused pass applying every 2×2 step per row must match
        // applying the steps one at a time to extracted columns, bit for
        // bit: rotations through `Rotation2::apply_columns`, reflections
        // through `Reflection2::apply_columns`. The steps are row-local
        // and the per-row step order is preserved.
        let n_cols = m.cols();
        let steps: Vec<(usize, usize, f64, bool)> = raw_steps
            .iter()
            .map(|&(a, b, angle, reflect)| (a % n_cols, b % n_cols, angle, reflect))
            .filter(|&(i, j, _, _)| i != j)
            .collect();
        let sweep: Vec<PairStep> = steps
            .iter()
            .map(|&(i, j, angle, reflect)| {
                if reflect {
                    Reflection2::from_degrees(angle).step(i, j)
                } else {
                    Rotation2::from_degrees(angle).step(i, j)
                }
            })
            .collect();
        let mut fused = m.as_slice().to_vec();
        apply_steps_in_rows(&mut fused, n_cols, &sweep);
        let mut seq = m.clone();
        for &(i, j, angle, reflect) in &steps {
            let (mut xs, mut ys) = (seq.column(i), seq.column(j));
            if reflect {
                Reflection2::from_degrees(angle).apply_columns(&mut xs, &mut ys).unwrap();
            } else {
                Rotation2::from_degrees(angle).apply_columns(&mut xs, &mut ys).unwrap();
            }
            seq.set_column(i, &xs).unwrap();
            seq.set_column(j, &ys).unwrap();
        }
        for (a, b) in fused.iter().zip(seq.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn transpose_preserves_frobenius(m in small_matrix(12, 12)) {
        prop_assert!((m.frobenius_norm() - m.transpose().frobenius_norm()).abs() < 1e-9);
    }

    #[test]
    fn matmul_associates_with_identity(m in small_matrix(10, 10)) {
        let id = Matrix::identity(m.cols());
        prop_assert!(m.matmul(&id).unwrap().approx_eq(&m, 1e-12));
    }

    #[test]
    fn eigen_reconstructs_symmetric(vals in prop::collection::vec(-10.0..10.0f64, 9)) {
        // Build a symmetric matrix A = B + Bᵀ from random B.
        let b = Matrix::from_vec(3, 3, vals).unwrap();
        let a = {
            let bt = b.transpose();
            let mut s = Matrix::zeros(3, 3);
            for i in 0..3 {
                for j in 0..3 {
                    s[(i, j)] = b[(i, j)] + bt[(i, j)];
                }
            }
            s
        };
        let e = symmetric_eigen(&a).unwrap();
        prop_assert!(is_orthogonal(&e.eigenvectors, 1e-8));
        let mut lam = Matrix::zeros(3, 3);
        for i in 0..3 {
            lam[(i, i)] = e.eigenvalues[i];
        }
        let rec = e.eigenvectors.matmul(&lam).unwrap().matmul(&e.eigenvectors.transpose()).unwrap();
        prop_assert!(rec.approx_eq(&a, 1e-7 * (1.0 + a.frobenius_norm())));
    }

    #[test]
    fn solve_then_multiply_recovers_rhs(vals in prop::collection::vec(-5.0..5.0f64, 9), rhs in prop::collection::vec(-5.0..5.0f64, 3)) {
        let mut a = Matrix::from_vec(3, 3, vals).unwrap();
        // Diagonal dominance ⇒ nonsingular.
        for i in 0..3 {
            a[(i, i)] += 20.0;
        }
        let x = solve(&a, &rhs).unwrap();
        let back = a.matvec(&x).unwrap();
        for (b, r) in back.iter().zip(&rhs) {
            prop_assert!((b - r).abs() < 1e-8 * (1.0 + r.abs()));
        }
    }

    #[test]
    fn invert_twice_is_identity_like(vals in prop::collection::vec(-5.0..5.0f64, 16)) {
        let mut a = Matrix::from_vec(4, 4, vals).unwrap();
        for i in 0..4 {
            a[(i, i)] += 25.0;
        }
        let inv = invert(&a).unwrap();
        let prod = a.matmul(&inv).unwrap();
        prop_assert!(prod.approx_eq(&Matrix::identity(4), 1e-8));
    }
}
