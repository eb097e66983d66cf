//! Dense linear algebra, statistics, and distance substrate for the RBT
//! privacy-preserving clustering suite.
//!
//! This crate implements every numerical primitive the paper
//! *"Achieving Privacy Preservation When Sharing Data For Clustering"*
//! (Oliveira & Zaïane, 2004) relies on:
//!
//! * [`Matrix`] — the data matrix of §3.2 (row = object, column = attribute),
//! * [`stats`] — sample/population variance (Eq. 8), covariance, correlation,
//! * [`rotation`] — the 2-D clockwise rotation matrix of Eq. 1 and its n-D
//!   (Givens) generalisation,
//! * [`distance`] — Euclidean (Eq. 6), Manhattan (Eq. 7) and related metrics,
//! * [`dissimilarity`] — the condensed dissimilarity matrix of §3.3,
//! * [`eigen`] — cyclic-Jacobi symmetric eigendecomposition (used by the
//!   PCA-based attack in `rbt-attack`),
//! * [`solve`] — Gaussian elimination and least squares (used by the
//!   known-sample attack),
//! * [`kernels`] — unrolled distance kernels (the engine under
//!   dissimilarity construction) and the row-blocked, vectorized k-means
//!   assignment kernel,
//! * [`pool`] — the shared scoped thread pool and work-partition helpers
//!   every parallel hot path in the workspace runs on,
//! * [`codec`] — little-endian byte writer/reader and CRC-32, the
//!   persistence substrate under the release-session key files.
//!
//! The crate has no `unsafe` code and no dependencies: parallelism is
//! `std::thread::scope` via [`pool`].
//!
//! # Example
//!
//! ```
//! use rbt_linalg::{Matrix, distance::Metric};
//!
//! let d = Matrix::from_rows(&[&[0.0, 0.0], &[3.0, 4.0]]).unwrap();
//! let dm = rbt_linalg::dissimilarity::DissimilarityMatrix::from_matrix(&d, Metric::Euclidean);
//! assert_eq!(dm.get(0, 1), 5.0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod dissimilarity;
pub mod distance;
pub mod eigen;
pub mod kernels;
pub mod matrix;
pub mod ops;
pub mod pool;
pub mod rotation;
pub mod solve;
pub mod stats;

pub use matrix::Matrix;
pub use rotation::Rotation2;
pub use stats::VarianceMode;

use std::fmt;

/// Errors produced by the linear-algebra substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// Two operands had incompatible shapes.
    DimensionMismatch {
        /// Human-readable description of the expected shape.
        expected: String,
        /// Human-readable description of the shape that was found.
        found: String,
    },
    /// An operation that requires a square matrix received a rectangular one.
    NotSquare {
        /// Number of rows of the offending matrix.
        rows: usize,
        /// Number of columns of the offending matrix.
        cols: usize,
    },
    /// An operation that requires a symmetric matrix received an asymmetric one.
    NotSymmetric,
    /// A matrix was numerically singular (or the system had no unique solution).
    Singular,
    /// The input was empty where at least one element is required.
    Empty,
    /// An iterative routine failed to converge within its iteration budget.
    NoConvergence {
        /// The iteration budget that was exhausted.
        iterations: usize,
    },
    /// An index was out of bounds.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The exclusive upper bound.
        bound: usize,
    },
    /// A numeric argument was invalid (NaN, non-positive where positive is
    /// required, and so on).
    InvalidArgument(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            Error::NotSquare { rows, cols } => {
                write!(f, "matrix is not square: {rows}x{cols}")
            }
            Error::NotSymmetric => write!(f, "matrix is not symmetric"),
            Error::Singular => write!(f, "matrix is singular"),
            Error::Empty => write!(f, "input is empty"),
            Error::NoConvergence { iterations } => {
                write!(f, "no convergence after {iterations} iterations")
            }
            Error::IndexOutOfBounds { index, bound } => {
                write!(f, "index {index} out of bounds (len {bound})")
            }
            Error::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
