//! Agglomerative hierarchical clustering via the Lance–Williams recurrence.
//!
//! Hierarchical methods consume *only* the dissimilarity matrix, which makes
//! them the cleanest witnesses for Corollary 1: RBT leaves the dissimilarity
//! matrix bit-for-bit identical (up to float rounding), so the entire
//! dendrogram — not just one flat cut — is preserved.

use crate::{Error, Result};
use rbt_linalg::dissimilarity::DissimilarityMatrix;

/// Linkage criterion for merging clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Linkage {
    /// Minimum pairwise distance (chaining-prone, exact for rings).
    Single,
    /// Maximum pairwise distance (compact clusters).
    Complete,
    /// Unweighted average pairwise distance (UPGMA).
    #[default]
    Average,
    /// Ward's minimum-variance criterion (requires Euclidean input).
    Ward,
}

/// One merge step: clusters are numbered scipy-style — leaves `0..n`, the
/// cluster created by merge `t` gets id `n + t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Merge {
    /// Id of the first merged cluster.
    pub left: usize,
    /// Id of the second merged cluster.
    pub right: usize,
    /// Linkage distance at which the merge happened.
    pub distance: f64,
    /// Number of leaves in the merged cluster.
    pub size: usize,
}

/// The full merge history of an agglomerative run.
#[derive(Debug, Clone)]
pub struct Dendrogram {
    n: usize,
    merges: Vec<Merge>,
}

impl Dendrogram {
    /// The merges, in execution order.
    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// Flat clustering with exactly `k` clusters (undoes the last `k − 1`
    /// merges). Labels are compacted to `0..k` in order of first appearance.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] unless `1 <= k <= n`.
    pub fn cut(&self, k: usize) -> Result<Vec<usize>> {
        if k == 0 || k > self.n {
            return Err(Error::InvalidParameter(format!(
                "cannot cut {} leaves into {k} clusters",
                self.n
            )));
        }
        self.labels_after(self.n - k)
    }

    /// Flat clustering keeping only merges with `distance <= height`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for a NaN height.
    pub fn cut_at_height(&self, height: f64) -> Result<Vec<usize>> {
        if height.is_nan() {
            return Err(Error::InvalidParameter("height must not be NaN".into()));
        }
        let applied = self
            .merges
            .iter()
            .take_while(|m| m.distance <= height)
            .count();
        self.labels_after(applied)
    }

    fn labels_after(&self, n_merges: usize) -> Result<Vec<usize>> {
        // Union-find over leaf + internal ids.
        let mut parent: Vec<usize> = (0..self.n + n_merges).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (t, m) in self.merges.iter().take(n_merges).enumerate() {
            let new_id = self.n + t;
            let a = find(&mut parent, m.left);
            let b = find(&mut parent, m.right);
            parent[a] = new_id;
            parent[b] = new_id;
        }
        let mut labels = vec![0usize; self.n];
        let mut next = 0usize;
        let mut map: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        for (i, slot) in labels.iter_mut().enumerate() {
            let root = find(&mut parent, i);
            *slot = *map.entry(root).or_insert_with(|| {
                let l = next;
                next += 1;
                l
            });
        }
        Ok(labels)
    }
}

/// Agglomerative clustering configuration.
///
/// # Example
///
/// ```
/// use rbt_cluster::{Agglomerative, Linkage};
/// use rbt_linalg::{Matrix, distance::Metric, dissimilarity::DissimilarityMatrix};
///
/// let points = Matrix::from_rows(&[&[0.0], &[1.0], &[10.0], &[11.0]]).unwrap();
/// let dm = DissimilarityMatrix::from_matrix(&points, Metric::Euclidean);
/// let dendrogram = Agglomerative::new(Linkage::Average).fit(&dm).unwrap();
/// let labels = dendrogram.cut(2).unwrap();
/// assert_eq!(labels[0], labels[1]);
/// assert_ne!(labels[0], labels[2]);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Agglomerative {
    linkage: Linkage,
}

impl Agglomerative {
    /// Creates a configuration with the given linkage.
    pub fn new(linkage: Linkage) -> Self {
        Agglomerative { linkage }
    }

    /// The configured linkage.
    pub fn linkage(&self) -> Linkage {
        self.linkage
    }

    /// Builds the dissimilarity matrix from row vectors — in parallel, on
    /// the shared pool — and fits the dendrogram on it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`fit`](Self::fit).
    pub fn fit_matrix(
        &self,
        data: &rbt_linalg::Matrix,
        metric: rbt_linalg::distance::Metric,
    ) -> Result<Dendrogram> {
        let dm = DissimilarityMatrix::from_matrix_parallel(
            data,
            metric,
            rbt_linalg::pool::default_threads(),
        );
        self.fit(&dm)
    }

    /// Builds the full dendrogram from a dissimilarity matrix.
    ///
    /// Runs the naive `O(n³)` algorithm over a working copy of the dense
    /// distance matrix — simple, exact, and fast enough for the workloads in
    /// this suite (thousands of objects).
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooFewPoints`] for an empty input.
    #[allow(clippy::needless_range_loop)] // triangular index scans read clearer with indices
    pub fn fit(&self, dm: &DissimilarityMatrix) -> Result<Dendrogram> {
        let n = dm.len();
        if n == 0 {
            return Err(Error::TooFewPoints {
                points: 0,
                required: 1,
            });
        }
        // Working distances between *active* clusters, indexed by slot.
        // For Ward we work on squared distances internally.
        let square = self.linkage == Linkage::Ward;
        let mut dist = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            for j in 0..n {
                let d = dm.get(i, j);
                dist[i][j] = if square { d * d } else { d };
            }
        }
        let mut active: Vec<bool> = vec![true; n];
        let mut cluster_id: Vec<usize> = (0..n).collect();
        let mut sizes: Vec<usize> = vec![1; n];
        let mut merges = Vec::with_capacity(n.saturating_sub(1));

        for t in 0..n.saturating_sub(1) {
            // Find the closest active pair.
            let mut best = (usize::MAX, usize::MAX, f64::INFINITY);
            for i in 0..n {
                if !active[i] {
                    continue;
                }
                for j in (i + 1)..n {
                    if active[j] && dist[i][j] < best.2 {
                        best = (i, j, dist[i][j]);
                    }
                }
            }
            let (i, j, d) = best;
            debug_assert!(i != usize::MAX, "at least two active clusters remain");

            let (ni, nj) = (sizes[i] as f64, sizes[j] as f64);
            // Record the merge (report sqrt for Ward's squared space).
            merges.push(Merge {
                left: cluster_id[i],
                right: cluster_id[j],
                distance: if square { d.sqrt() } else { d },
                size: sizes[i] + sizes[j],
            });

            // Lance–Williams update of distances from the merged cluster
            // (kept in slot i) to every other active cluster k.
            for k in 0..n {
                if !active[k] || k == i || k == j {
                    continue;
                }
                let dik = dist[i][k];
                let djk = dist[j][k];
                let nk = sizes[k] as f64;
                let new = match self.linkage {
                    Linkage::Single => dik.min(djk),
                    Linkage::Complete => dik.max(djk),
                    Linkage::Average => (ni * dik + nj * djk) / (ni + nj),
                    Linkage::Ward => {
                        let total = ni + nj + nk;
                        ((ni + nk) * dik + (nj + nk) * djk - nk * d) / total
                    }
                };
                dist[i][k] = new;
                dist[k][i] = new;
            }
            active[j] = false;
            sizes[i] += sizes[j];
            cluster_id[i] = n + t;
        }

        Ok(Dendrogram { n, merges })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbt_linalg::distance::Metric;
    use rbt_linalg::Matrix;

    fn line_points() -> DissimilarityMatrix {
        // 1-D points 0, 1, 2, 10, 11, 12 — two obvious groups.
        let m = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[10.0], &[11.0], &[12.0]]).unwrap();
        DissimilarityMatrix::from_matrix(&m, Metric::Euclidean)
    }

    #[test]
    fn fit_matrix_matches_precomputed() {
        let m = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[10.0], &[11.0], &[12.0]]).unwrap();
        let via_dm = Agglomerative::new(Linkage::Average)
            .fit(&line_points())
            .unwrap();
        let via_matrix = Agglomerative::new(Linkage::Average)
            .fit_matrix(&m, Metric::Euclidean)
            .unwrap();
        assert_eq!(via_dm.merges(), via_matrix.merges());
    }

    #[test]
    fn two_group_cut_all_linkages() {
        let dm = line_points();
        for linkage in [
            Linkage::Single,
            Linkage::Complete,
            Linkage::Average,
            Linkage::Ward,
        ] {
            let dend = Agglomerative::new(linkage).fit(&dm).unwrap();
            assert_eq!(dend.merges().len(), 5);
            let labels = dend.cut(2).unwrap();
            assert_eq!(labels[0], labels[1]);
            assert_eq!(labels[1], labels[2]);
            assert_eq!(labels[3], labels[4]);
            assert_eq!(labels[4], labels[5]);
            assert_ne!(labels[0], labels[3], "linkage {linkage:?}");
        }
    }

    #[test]
    fn cut_extremes() {
        let dm = line_points();
        let dend = Agglomerative::default().fit(&dm).unwrap();
        let all_one = dend.cut(1).unwrap();
        assert!(all_one.iter().all(|&l| l == 0));
        let singletons = dend.cut(6).unwrap();
        let distinct: std::collections::HashSet<_> = singletons.iter().collect();
        assert_eq!(distinct.len(), 6);
        assert!(dend.cut(0).is_err());
        assert!(dend.cut(7).is_err());
    }

    #[test]
    fn cut_at_height_matches_cut() {
        let dm = line_points();
        let dend = Agglomerative::new(Linkage::Single).fit(&dm).unwrap();
        // Height between within-group spacing (1) and between-group gap (8).
        let labels = dend.cut_at_height(4.0).unwrap();
        assert_eq!(labels, dend.cut(2).unwrap());
        assert!(dend.cut_at_height(f64::NAN).is_err());
        // Below the smallest merge: all singletons.
        let s = dend.cut_at_height(0.5).unwrap();
        assert_eq!(s.len(), 6);
        assert_eq!(s.iter().collect::<std::collections::HashSet<_>>().len(), 6);
    }

    #[test]
    fn single_linkage_merge_heights() {
        let dm = line_points();
        let dend = Agglomerative::new(Linkage::Single).fit(&dm).unwrap();
        // First four merges at distance 1, final bridge at 8.
        let dists: Vec<f64> = dend.merges().iter().map(|m| m.distance).collect();
        assert!(dists[..4].iter().all(|&d| (d - 1.0).abs() < 1e-12));
        assert!((dists[4] - 8.0).abs() < 1e-12);
    }

    #[test]
    fn complete_linkage_final_height_is_diameter() {
        let dm = line_points();
        let dend = Agglomerative::new(Linkage::Complete).fit(&dm).unwrap();
        let last = dend.merges().last().unwrap();
        assert!((last.distance - 12.0).abs() < 1e-12);
        assert_eq!(last.size, 6);
    }

    #[test]
    fn average_linkage_is_between_single_and_complete() {
        let dm = line_points();
        let s = Agglomerative::new(Linkage::Single).fit(&dm).unwrap();
        let c = Agglomerative::new(Linkage::Complete).fit(&dm).unwrap();
        let a = Agglomerative::new(Linkage::Average).fit(&dm).unwrap();
        let last = |d: &Dendrogram| d.merges().last().unwrap().distance;
        assert!(last(&s) <= last(&a) + 1e-12);
        assert!(last(&a) <= last(&c) + 1e-12);
    }

    #[test]
    fn ward_prefers_balanced_merges() {
        // Ward on two tight pairs + one midpoint outlier.
        let m = Matrix::from_rows(&[&[0.0], &[0.1], &[5.0], &[9.9], &[10.0]]).unwrap();
        let dm = DissimilarityMatrix::from_matrix(&m, Metric::Euclidean);
        let dend = Agglomerative::new(Linkage::Ward).fit(&dm).unwrap();
        let labels = dend.cut(3).unwrap();
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[2], labels[0]);
        assert_ne!(labels[2], labels[3]);
    }

    #[test]
    fn empty_input_rejected_single_point_ok() {
        let empty = DissimilarityMatrix::from_condensed(0, vec![]).unwrap();
        assert!(Agglomerative::default().fit(&empty).is_err());
        let one = DissimilarityMatrix::from_condensed(1, vec![]).unwrap();
        let dend = Agglomerative::default().fit(&one).unwrap();
        assert!(dend.merges().is_empty());
        assert_eq!(dend.cut(1).unwrap(), vec![0]);
    }

    #[test]
    fn merge_ids_are_scipy_style() {
        let dm = line_points();
        let dend = Agglomerative::new(Linkage::Single).fit(&dm).unwrap();
        for (t, m) in dend.merges().iter().enumerate() {
            assert!(m.left < 6 + t);
            assert!(m.right < 6 + t);
            assert_ne!(m.left, m.right);
        }
    }
}
