//! Lloyd's k-means with k-means++ or random initialisation.
//!
//! K-means is the algorithm the related privacy-preserving-clustering work
//! (\[13\] Vaidya & Clifton) targets, and the workhorse of the Corollary 1
//! experiments: because its assignments depend only on squared Euclidean
//! distances to centroids, an isometric transformation of the data leaves
//! the clustering trajectory identical (given the same initialisation
//! choices), so RBT preserves its output *exactly*.

use crate::{Error, Result};
use rand::Rng;
use rbt_linalg::distance::Metric;
use rbt_linalg::kernels;
use rbt_linalg::pool::{self, even_chunks, Pool};
use rbt_linalg::Matrix;

/// Initialisation strategy for k-means.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KMeansInit {
    /// k-means++ seeding (D² sampling) — the default.
    #[default]
    PlusPlus,
    /// Uniformly random distinct points.
    Random,
    /// The first `k` points of the dataset (fully deterministic; used by the
    /// isometry experiments so that runs on `D` and `D'` are comparable
    /// without sharing an RNG).
    FirstK,
}

/// Convergence tolerance: a fit stops once no centroid moves by more than
/// this in any coordinate.
const TOL: f64 = 1e-9;

/// Configuration for Lloyd's algorithm.
///
/// The assignment step (every row's nearest centroid, on every iteration)
/// is where the time goes. [`fit`](Self::fit) runs it through
/// [`kernels::nearest_rows_squared_blocked`] over one column-major copy of
/// the data (`m × n × 8` bytes, made once per fit), sixteen rows per SIMD
/// sweep; rows after the last whole 16-row block take the per-row
/// [`kernels::nearest_row_squared`]. Each row's distances keep the per-row
/// kernel's exact arithmetic, so the results are bit-for-bit those of a
/// plain per-row Lloyd loop. The update step stays serial in row order.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use rbt_cluster::{KMeans, KMeansInit};
/// use rbt_linalg::Matrix;
///
/// let data = Matrix::from_rows(&[
///     &[0.0, 0.0], &[0.2, 0.1], &[9.0, 9.0], &[9.1, 8.9],
/// ]).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let result = KMeans::new(2).unwrap()
///     .with_init(KMeansInit::FirstK)
///     .fit(&data, &mut rng).unwrap();
/// assert_eq!(result.labels[0], result.labels[1]);
/// assert_ne!(result.labels[0], result.labels[2]);
/// ```
#[derive(Debug, Clone)]
pub struct KMeans {
    k: usize,
    max_iters: usize,
    init: KMeansInit,
    threads: usize,
}

/// Outcome of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Cluster assignment per point, in `0..k`.
    pub labels: Vec<usize>,
    /// Final centroids (`k × n`).
    pub centroids: Matrix,
    /// Sum of squared distances of points to their centroid (inertia).
    pub inertia: f64,
    /// Lloyd iterations executed.
    pub iterations: usize,
    /// Whether the centroid movement fell below the tolerance.
    pub converged: bool,
}

impl KMeans {
    /// Creates a configuration for `k` clusters with defaults
    /// (`max_iters = 300`, `tol = 1e-9`, k-means++ init, and as many
    /// assignment threads as the machine offers).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for `k == 0`.
    pub fn new(k: usize) -> Result<Self> {
        if k == 0 {
            return Err(Error::InvalidParameter("k must be positive".into()));
        }
        Ok(KMeans {
            k,
            max_iters: 300,
            init: KMeansInit::default(),
            threads: pool::default_threads(),
        })
    }

    /// Sets the iteration budget.
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// Sets the initialisation strategy.
    pub fn with_init(mut self, init: KMeansInit) -> Self {
        self.init = init;
        self
    }

    /// Sets the number of threads the assignment step may use (clamped to
    /// ≥ 1); each thread takes a contiguous run of whole 16-row blocks, and
    /// below 512 rows the step runs on the caller's thread. Labels,
    /// centroids, inertia and iteration counts are **bit-for-bit
    /// identical** for every thread count: whether a row goes through the
    /// blocked or the per-row kernel depends only on its index (the two
    /// agree bit for bit anyway), and all cross-row reductions stay in
    /// serial row order.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Runs Lloyd's algorithm on the rows of `data`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooFewPoints`] if `data.rows() < k`.
    pub fn fit<R: Rng + ?Sized>(&self, data: &Matrix, rng: &mut R) -> Result<KMeansResult> {
        let m = data.rows();
        if m < self.k {
            return Err(Error::TooFewPoints {
                points: m,
                required: self.k,
            });
        }
        let n = data.cols();
        let mut centroids = self.initial_centroids(data, rng);
        let mut labels = vec![0usize; m];
        let mut counts = vec![0usize; self.k];
        let mut new_centroids = Matrix::zeros(self.k, n);
        let mut iterations = 0;
        let mut converged = false;
        let pool = Pool::new(self.threads);
        // The assignment kernel reads the data column-major, sixteen rows
        // per SIMD sweep: one copy per fit, reused by every pass.
        let columns = data.transpose();
        // (label, squared distance) per row — the parallel assignment
        // output buffer.
        let mut assignment = vec![(0usize, 0.0f64); m];

        for iter in 0..self.max_iters {
            iterations = iter + 1;
            // Assignment step: row-blocked kernel sweep, rows split across
            // the pool. Each row's result is independent, so the labels are
            // identical to the serial per-row loop.
            assign_rows(data, &columns, &centroids, &pool, &mut assignment);
            for (label, a) in labels.iter_mut().zip(&assignment) {
                *label = a.0;
            }
            // Update step.
            for v in new_centroids.as_mut_slice() {
                *v = 0.0;
            }
            counts.iter_mut().for_each(|c| *c = 0);
            for (point, &label) in data.row_iter().zip(&labels) {
                counts[label] += 1;
                let c = new_centroids.row_mut(label);
                for (cv, &pv) in c.iter_mut().zip(point) {
                    *cv += pv;
                }
            }
            for (j, &count) in counts.iter().enumerate() {
                if count == 0 {
                    // Empty cluster: re-seed to the point farthest from its
                    // centroid — deterministic and standard practice.
                    let far = farthest_point(data, &centroids, &labels);
                    new_centroids.row_mut(j).copy_from_slice(data.row(far));
                } else {
                    let inv = 1.0 / count as f64;
                    for v in new_centroids.row_mut(j) {
                        *v *= inv;
                    }
                }
            }
            // Convergence: max centroid movement.
            let shift = centroids
                .max_abs_diff(&new_centroids)
                .expect("same shape by construction");
            std::mem::swap(&mut centroids, &mut new_centroids);
            if shift <= TOL {
                converged = true;
                break;
            }
        }

        // Final assignment against the final centroids. The inertia
        // reduction stays in serial row order so it does not depend on the
        // thread count.
        assign_rows(data, &columns, &centroids, &pool, &mut assignment);
        let mut inertia = 0.0;
        for (label, &(nearest, d2)) in labels.iter_mut().zip(&assignment) {
            *label = nearest;
            inertia += d2;
        }

        Ok(KMeansResult {
            labels,
            centroids,
            inertia,
            iterations,
            converged,
        })
    }

    fn initial_centroids<R: Rng + ?Sized>(&self, data: &Matrix, rng: &mut R) -> Matrix {
        let m = data.rows();
        let n = data.cols();
        let mut centroids = Matrix::zeros(self.k, n);
        match self.init {
            KMeansInit::FirstK => {
                for j in 0..self.k {
                    centroids.row_mut(j).copy_from_slice(data.row(j));
                }
            }
            KMeansInit::Random => {
                let mut chosen = Vec::with_capacity(self.k);
                while chosen.len() < self.k {
                    let i = rng.random_range(0..m);
                    if !chosen.contains(&i) {
                        chosen.push(i);
                    }
                }
                for (j, &i) in chosen.iter().enumerate() {
                    centroids.row_mut(j).copy_from_slice(data.row(i));
                }
            }
            KMeansInit::PlusPlus => {
                // D² sampling.
                let first = rng.random_range(0..m);
                centroids.row_mut(0).copy_from_slice(data.row(first));
                let mut d2: Vec<f64> = data
                    .row_iter()
                    .map(|p| Metric::SquaredEuclidean.distance(p, data.row(first)))
                    .collect();
                for j in 1..self.k {
                    let total: f64 = d2.iter().sum();
                    let idx = if total <= 0.0 {
                        // All remaining points coincide with a centroid.
                        rng.random_range(0..m)
                    } else {
                        let mut target = rng.random_range(0.0..total);
                        let mut pick = m - 1;
                        for (i, &w) in d2.iter().enumerate() {
                            if target < w {
                                pick = i;
                                break;
                            }
                            target -= w;
                        }
                        pick
                    };
                    centroids.row_mut(j).copy_from_slice(data.row(idx));
                    for (i, point) in data.row_iter().enumerate() {
                        let nd = Metric::SquaredEuclidean.distance(point, data.row(idx));
                        if nd < d2[i] {
                            d2[i] = nd;
                        }
                    }
                }
            }
        }
        centroids
    }
}

/// Below this many rows the assignment sweep runs inline: spawning scoped
/// threads costs tens of microseconds per iteration, which dwarfs the
/// nanoseconds of work the paper-scale (tens of rows) workloads need.
const PARALLEL_ASSIGN_MIN_ROWS: usize = 512;

/// Fills `out[i]` with `(nearest centroid, squared distance)` for every row
/// of `data`, splitting rows across the pool (inline below
/// [`PARALLEL_ASSIGN_MIN_ROWS`]) in whole
/// [`NEAREST_BLOCK_ROWS`](kernels::NEAREST_BLOCK_ROWS)-row blocks.
///
/// Whole blocks go through [`kernels::nearest_rows_squared_blocked`] over
/// `columns` (the transposed data); the rows after the last whole block go
/// through [`kernels::nearest_row_squared`]. The two are bit-identical per
/// row, and which one a row takes depends only on its index, so output is
/// identical for any thread count.
fn assign_rows(
    data: &Matrix,
    columns: &Matrix,
    centroids: &Matrix,
    pool: &Pool,
    out: &mut [(usize, f64)],
) {
    const BLOCK: usize = kernels::NEAREST_BLOCK_ROWS;
    let rows = data.rows();
    let threads = if rows < PARALLEL_ASSIGN_MIN_ROWS {
        1
    } else {
        pool.threads()
    };
    // Chunk boundaries on whole blocks; the last chunk also takes the tail.
    let mut bounds: Vec<usize> = even_chunks(rows / BLOCK, threads)
        .into_iter()
        .map(|b| b * BLOCK)
        .collect();
    *bounds.last_mut().expect("even_chunks is never empty") = rows;
    let (k, cols) = centroids.shape();
    pool.for_each_chunk_mut(out, &bounds, |_, start, chunk| {
        let (blocks, tail) = chunk.split_at_mut(chunk.len() / BLOCK * BLOCK);
        kernels::nearest_rows_squared_blocked(columns, start, centroids, blocks);
        let first = start + blocks.len();
        for (t, slot) in tail.iter_mut().enumerate() {
            *slot =
                kernels::nearest_row_squared(data.row(first + t), centroids.as_slice(), cols, k);
        }
    });
}

fn farthest_point(data: &Matrix, centroids: &Matrix, labels: &[usize]) -> usize {
    let mut best = (0usize, -1.0f64);
    for (i, point) in data.row_iter().enumerate() {
        let d2 = kernels::squared_euclidean(point, centroids.row(labels[i]));
        if d2 > best.1 {
            best = (i, d2);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    /// Two tight, well-separated blobs around (0,0) and (10,10).
    fn two_blobs() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for i in 0..20 {
            let jitter = (i as f64) * 0.01;
            rows.push(vec![jitter, -jitter]);
            truth.push(0);
            rows.push(vec![10.0 + jitter, 10.0 - jitter]);
            truth.push(1);
        }
        (Matrix::from_row_iter(rows).unwrap(), truth)
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(KMeans::new(0).is_err());
        let km = KMeans::new(5).unwrap();
        let data = Matrix::zeros(3, 2);
        assert!(matches!(
            km.fit(&data, &mut rng(0)),
            Err(Error::TooFewPoints {
                points: 3,
                required: 5
            })
        ));
    }

    #[test]
    fn separates_two_blobs() {
        let (data, truth) = two_blobs();
        let result = KMeans::new(2).unwrap().fit(&data, &mut rng(42)).unwrap();
        assert!(result.converged);
        // Perfect separation up to label permutation.
        let mis = crate::metrics::misclassification_error(&truth, &result.labels).unwrap();
        assert_eq!(mis, 0.0);
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let (data, _) = two_blobs();
        let i1 = KMeans::new(1)
            .unwrap()
            .fit(&data, &mut rng(1))
            .unwrap()
            .inertia;
        let i2 = KMeans::new(2)
            .unwrap()
            .fit(&data, &mut rng(1))
            .unwrap()
            .inertia;
        let i4 = KMeans::new(4)
            .unwrap()
            .fit(&data, &mut rng(1))
            .unwrap()
            .inertia;
        assert!(i2 < i1);
        assert!(i4 <= i2 + 1e-9);
    }

    #[test]
    fn deterministic_with_first_k_init() {
        let (data, _) = two_blobs();
        let km = KMeans::new(2).unwrap().with_init(KMeansInit::FirstK);
        let a = km.fit(&data, &mut rng(1)).unwrap();
        let b = km.fit(&data, &mut rng(999)).unwrap();
        assert_eq!(a.labels, b.labels);
        assert!(a.centroids.approx_eq(&b.centroids, 0.0));
    }

    #[test]
    fn all_inits_work_on_blobs() {
        let (data, truth) = two_blobs();
        for init in [KMeansInit::PlusPlus, KMeansInit::Random, KMeansInit::FirstK] {
            let result = KMeans::new(2)
                .unwrap()
                .with_init(init)
                .fit(&data, &mut rng(7))
                .unwrap();
            let mis = crate::metrics::misclassification_error(&truth, &result.labels).unwrap();
            assert_eq!(mis, 0.0, "init {init:?} failed");
        }
    }

    #[test]
    fn k_equals_m_gives_zero_inertia() {
        let data = Matrix::from_rows(&[&[0.0, 0.0], &[5.0, 5.0], &[9.0, 1.0]]).unwrap();
        let result = KMeans::new(3)
            .unwrap()
            .with_init(KMeansInit::FirstK)
            .fit(&data, &mut rng(3))
            .unwrap();
        assert!(result.inertia < 1e-12);
        let mut sorted = result.labels.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn handles_duplicate_points() {
        let data = Matrix::from_row_iter(vec![vec![1.0, 1.0]; 10]).unwrap();
        let result = KMeans::new(2).unwrap().fit(&data, &mut rng(5)).unwrap();
        assert_eq!(result.labels.len(), 10);
        assert!(result.inertia < 1e-12);
    }

    #[test]
    fn labels_are_in_range() {
        let (data, _) = two_blobs();
        let result = KMeans::new(3).unwrap().fit(&data, &mut rng(11)).unwrap();
        assert!(result.labels.iter().all(|&l| l < 3));
        assert_eq!(result.centroids.shape(), (3, 2));
    }

    #[test]
    fn parallel_assignment_bitwise_matches_serial() {
        // An irregular seeded workload (not cleanly separable) so the
        // assignment actually iterates and ties are plausible. Larger than
        // PARALLEL_ASSIGN_MIN_ROWS so the pooled path really runs.
        let rows: Vec<Vec<f64>> = (0..600)
            .map(|i| {
                let x = (i as f64 * 0.7).sin() * 10.0;
                let y = (i as f64 * 1.3).cos() * 5.0;
                vec![x, y, x * y, x - y, x + 0.5 * y]
            })
            .collect();
        let data = Matrix::from_row_iter(rows).unwrap();
        for init in [KMeansInit::FirstK, KMeansInit::PlusPlus, KMeansInit::Random] {
            let serial = KMeans::new(5)
                .unwrap()
                .with_init(init)
                .with_threads(1)
                .fit(&data, &mut rng(9))
                .unwrap();
            for threads in [2usize, 3, 4, 8] {
                let par = KMeans::new(5)
                    .unwrap()
                    .with_init(init)
                    .with_threads(threads)
                    .fit(&data, &mut rng(9))
                    .unwrap();
                assert_eq!(serial.labels, par.labels, "{init:?} threads={threads}");
                assert!(
                    serial.centroids.approx_eq(&par.centroids, 0.0),
                    "{init:?} threads={threads}"
                );
                assert_eq!(
                    serial.inertia.to_bits(),
                    par.inertia.to_bits(),
                    "{init:?} threads={threads}"
                );
                assert_eq!(serial.iterations, par.iterations);
                assert_eq!(serial.converged, par.converged);
            }
        }
    }

    /// Lloyd's algorithm with a plain per-row [`kernels::nearest_row_squared`]
    /// assignment loop: the reference [`KMeans::fit`] must match bit for
    /// bit, whatever kernel and thread count its assignment uses.
    fn reference_fit(km: &KMeans, data: &Matrix, rng: &mut rand::rngs::StdRng) -> KMeansResult {
        let (m, n) = data.shape();
        let k = km.k;
        let assign = |centroids: &Matrix| -> Vec<(usize, f64)> {
            (0..m)
                .map(|i| kernels::nearest_row_squared(data.row(i), centroids.as_slice(), n, k))
                .collect()
        };
        let mut centroids = km.initial_centroids(data, rng);
        let mut labels = vec![0usize; m];
        let mut iterations = 0;
        let mut converged = false;
        for iter in 0..km.max_iters {
            iterations = iter + 1;
            for (label, (nearest, _)) in labels.iter_mut().zip(assign(&centroids)) {
                *label = nearest;
            }
            let mut next = Matrix::zeros(k, n);
            let mut counts = vec![0usize; k];
            for (i, &label) in labels.iter().enumerate() {
                counts[label] += 1;
                for (c, &p) in next.row_mut(label).iter_mut().zip(data.row(i)) {
                    *c += p;
                }
            }
            for (j, &count) in counts.iter().enumerate() {
                if count == 0 {
                    let far = farthest_point(data, &centroids, &labels);
                    next.row_mut(j).copy_from_slice(data.row(far));
                } else {
                    let inv = 1.0 / count as f64;
                    for v in next.row_mut(j) {
                        *v *= inv;
                    }
                }
            }
            let shift = centroids.max_abs_diff(&next).unwrap();
            centroids = next;
            if shift <= TOL {
                converged = true;
                break;
            }
        }
        let mut inertia = 0.0;
        for (label, (nearest, d2)) in labels.iter_mut().zip(assign(&centroids)) {
            *label = nearest;
            inertia += d2;
        }
        KMeansResult {
            labels,
            centroids,
            inertia,
            iterations,
            converged,
        }
    }

    fn assert_bitwise_eq(got: &KMeansResult, want: &KMeansResult, context: &str) {
        assert_eq!(got.labels, want.labels, "{context}: labels");
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(got.centroids.shape(), want.centroids.shape(), "{context}");
        assert_eq!(
            bits(&got.centroids),
            bits(&want.centroids),
            "{context}: centroids"
        );
        assert_eq!(
            got.inertia.to_bits(),
            want.inertia.to_bits(),
            "{context}: inertia"
        );
        assert_eq!(got.iterations, want.iterations, "{context}: iterations");
        assert_eq!(got.converged, want.converged, "{context}: converged");
    }

    fn mixture(k: usize, dim: usize, rows: usize, seed: u64) -> Matrix {
        rbt_data::synth::GaussianMixture::well_separated(k, dim, 6.0, 1.5)
            .unwrap()
            .sample(rows, &mut rng(seed))
            .matrix
    }

    #[test]
    fn fit_keeps_its_golden_inertia_bits() {
        // Read before the blocked assignment kernel existed; they hold with
        // and without hardware FMA, at every thread count.
        let cases = [
            (
                5usize,
                17usize,
                3001usize,
                11u64,
                300usize,
                0x40fb_f7c8_ec39_270a_u64,
                14usize,
            ),
            (8, 16, 16_000, 7, 64, 0x4121_2e87_0ddc_f7ce, 34),
        ];
        for (k, dim, rows, seed, max_iters, inertia_bits, iterations) in cases {
            let data = mixture(k, dim, rows, seed);
            for threads in 1..=3 {
                let fit = KMeans::new(k)
                    .unwrap()
                    .with_init(KMeansInit::FirstK)
                    .with_max_iters(max_iters)
                    .with_threads(threads)
                    .fit(&data, &mut rng(0))
                    .unwrap();
                let context = format!("{rows}x{dim} k={k} threads={threads}");
                assert_eq!(fit.inertia.to_bits(), inertia_bits, "{context}");
                assert_eq!(fit.iterations, iterations, "{context}");
                assert!(fit.converged, "{context}");
            }
        }
    }

    #[test]
    fn fit_bitwise_matches_reference_lloyd() {
        // Row counts above PARALLEL_ASSIGN_MIN_ROWS and off the block width,
        // so the pooled path, the blocked kernel and the per-row tail all run.
        for (rows, dim, k, seed) in [
            (515usize, 5usize, 4usize, 1u64),
            (1203, 16, 8, 2),
            (777, 33, 7, 3),
        ] {
            let data = mixture(k, dim, rows, seed);
            for init in [KMeansInit::FirstK, KMeansInit::PlusPlus] {
                let km = KMeans::new(k).unwrap().with_init(init).with_max_iters(40);
                let want = reference_fit(&km, &data, &mut rng(seed));
                for threads in 1..=4 {
                    let got = km
                        .clone()
                        .with_threads(threads)
                        .fit(&data, &mut rng(seed))
                        .unwrap();
                    assert_bitwise_eq(
                        &got,
                        &want,
                        &format!("{rows}x{dim} k={k} {init:?} threads={threads}"),
                    );
                }
            }
        }
    }

    #[test]
    fn fit_bitwise_matches_reference_lloyd_through_an_empty_cluster() {
        // The first two rows coincide, so first-k initialisation starts two
        // centroids on the same point: every row ties and keeps the lower
        // index, cluster 1 comes up empty and is re-seeded to the farthest
        // point.
        let mut data = mixture(3, 6, 601, 4);
        let first = data.row(0).to_vec();
        data.row_mut(1).copy_from_slice(&first);
        let km = KMeans::new(3).unwrap().with_init(KMeansInit::FirstK);
        let start = km.initial_centroids(&data, &mut rng(0));
        assert!(
            (0..data.rows()).all(|i| kernels::nearest_row_squared(
                data.row(i),
                start.as_slice(),
                6,
                3
            )
            .0 != 1),
            "cluster 1 must come up empty on the first pass"
        );
        let want = reference_fit(&km, &data, &mut rng(0));
        for threads in 1..=4 {
            let got = km
                .clone()
                .with_threads(threads)
                .fit(&data, &mut rng(0))
                .unwrap();
            assert_bitwise_eq(&got, &want, &format!("threads={threads}"));
        }
    }

    #[test]
    fn max_iters_respected() {
        let (data, _) = two_blobs();
        let result = KMeans::new(2)
            .unwrap()
            .with_max_iters(1)
            .fit(&data, &mut rng(1))
            .unwrap();
        assert_eq!(result.iterations, 1);
    }
}
