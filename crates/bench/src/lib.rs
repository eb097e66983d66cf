//! Shared infrastructure for the experiment binaries and the `kernels` bench.
//!
//! Every table and figure of the paper has a regeneration target in
//! `src/bin/` (see DESIGN.md §3 for the experiment index); this library
//! holds the pieces they share: aligned-table printing, the seeded workload
//! registry, and the end-to-end "release" helper that produces an RBT
//! release for a given workload.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rbt_core::{PairwiseSecurityThreshold, RbtConfig, RbtTransformer};
use rbt_data::synth::GaussianMixture;
use rbt_data::Normalization;
use rbt_linalg::Matrix;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Renders an aligned text table (first row of `rows` may be a header the
/// caller styles itself).
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |out: &mut String, cells: &[String]| {
        for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let _ = write!(out, "{cell:>w$}", w = w);
        }
        out.push('\n');
    };
    fmt_row(
        &mut out,
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        fmt_row(&mut out, row);
    }
    out
}

/// Pretty-prints a matrix with row labels, paper-style (4 decimals).
pub fn format_matrix(m: &Matrix, row_labels: Option<&[String]>, col_labels: &[String]) -> String {
    let headers: Vec<&str> = std::iter::once("")
        .chain(col_labels.iter().map(|s| s.as_str()))
        .collect();
    let rows: Vec<Vec<String>> = (0..m.rows())
        .map(|i| {
            let label = row_labels
                .map(|l| l[i].clone())
                .unwrap_or_else(|| i.to_string());
            std::iter::once(label)
                .chain(m.row(i).iter().map(|v| format!("{v:.4}")))
                .collect()
        })
        .collect();
    format_table(&headers, &rows)
}

/// A seeded Gaussian-mixture workload: `m` rows, `n` attributes, `k`
/// clusters of unit spread separated by `separation`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadSpec {
    /// Number of objects.
    pub rows: usize,
    /// Number of attributes.
    pub cols: usize,
    /// Number of mixture components.
    pub k: usize,
    /// RNG seed.
    pub seed: u64,
}

/// A generated workload: data plus ground-truth labels.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The raw data matrix.
    pub matrix: Matrix,
    /// Ground-truth component of each row.
    pub labels: Vec<usize>,
}

/// Process-wide workload cache, so a caller that asks for the same spec
/// more than once pays its generation cost once.
static WORKLOAD_CACHE: Mutex<Option<HashMap<WorkloadSpec, Workload>>> = Mutex::new(None);

/// Generates (or fetches from cache) the standard mixture workload.
pub fn workload(spec: WorkloadSpec) -> Workload {
    let mut guard = WORKLOAD_CACHE.lock();
    let cache = guard.get_or_insert_with(HashMap::new);
    cache
        .entry(spec)
        .or_insert_with(|| {
            let mut rng = StdRng::seed_from_u64(spec.seed);
            let gm = GaussianMixture::well_separated(spec.k, spec.cols, 12.0, 1.0)
                .expect("spec is valid");
            let data = gm.sample(spec.rows, &mut rng);
            Workload {
                matrix: data.matrix,
                labels: data.labels,
            }
        })
        .clone()
}

/// Normalizes a matrix and runs RBT with a uniform threshold — the standard
/// release used across experiments. Returns (normalized, released).
pub fn rbt_release(matrix: &Matrix, rho: f64, seed: u64) -> (Matrix, Matrix) {
    let (_, normalized) = Normalization::zscore_paper()
        .fit_transform(matrix)
        .expect("workloads are non-degenerate");
    let mut rng = StdRng::seed_from_u64(seed);
    let out = RbtTransformer::new(RbtConfig::uniform(
        PairwiseSecurityThreshold::uniform(rho).expect("rho > 0"),
    ))
    .transform(&normalized, &mut rng)
    .expect("uniform rho is satisfiable on normalized data");
    (normalized, out.transformed)
}

/// Times a closure, returning (result, seconds).
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_formatting_aligns() {
        let s = format_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1.0".into()],
                vec!["long-name".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows are the same width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert!(lines[3].contains("long-name"));
    }

    #[test]
    fn workload_cache_returns_identical_data() {
        let spec = WorkloadSpec {
            rows: 50,
            cols: 3,
            k: 2,
            seed: 1,
        };
        let a = workload(spec);
        let b = workload(spec);
        assert_eq!(a.matrix, b.matrix);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn rbt_release_is_isometric() {
        let spec = WorkloadSpec {
            rows: 80,
            cols: 4,
            k: 3,
            seed: 2,
        };
        let w = workload(spec);
        let (normalized, released) = rbt_release(&w.matrix, 0.3, 7);
        assert!(rbt_core::isometry::dissimilarity_drift(&normalized, &released) < 1e-9);
    }

    #[test]
    fn format_matrix_includes_labels() {
        let m = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let s = format_matrix(&m, Some(&["row0".into()]), &["a".into(), "b".into()]);
        assert!(s.contains("row0"));
        assert!(s.contains("1.0000"));
    }
}
