//! Datasets, normalization, and synthetic workload generators for the RBT
//! privacy-preserving clustering suite.
//!
//! Implements the data layer of the paper:
//!
//! * [`dataset`] — the labelled data-matrix container (Table 1's layout:
//!   object IDs + named numerical attributes), including the identifier
//!   suppression of §5.3 Step 2 (data anonymization),
//! * [`normalize`] — min–max (Eq. 3) and z-score (Eq. 4) normalization, the
//!   mandatory pre-processing step of §4.1 / Figure 1 Step 1,
//! * [`datasets`] — the Cardiac Arrhythmia sample the paper's running
//!   example uses (Table 1, embedded verbatim),
//! * [`synth`] — seeded synthetic generators (Gaussian mixtures, uniform
//!   cubes, rings) standing in for the full UCI database in scale
//!   experiments,
//! * [`csv`] — a small, dependency-free CSV codec for sharing transformed
//!   data,
//! * [`rng`] — seeded RNG helpers and a Box–Muller Gaussian sampler.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod csv;
pub mod dataset;
pub mod datasets;
pub mod normalize;
pub mod rng;
pub mod synth;

pub use dataset::Dataset;
pub use normalize::{Cell, FittedNormalizer, Normalization, PartialFit};

use std::fmt;

/// Errors produced by the data layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// An underlying linear-algebra error.
    Linalg(rbt_linalg::Error),
    /// A column name was not found in the dataset.
    UnknownColumn(String),
    /// Two parts of a dataset disagreed on length/shape.
    Shape(String),
    /// CSV input could not be parsed.
    Parse {
        /// 1-based line number of the offending record.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A normalization was applied to data it was not fitted for.
    NotFitted(String),
    /// A numeric argument was invalid.
    InvalidArgument(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Linalg(e) => write!(f, "linear algebra error: {e}"),
            Error::UnknownColumn(name) => write!(f, "unknown column: {name:?}"),
            Error::Shape(msg) => write!(f, "shape error: {msg}"),
            Error::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            Error::NotFitted(msg) => write!(f, "normalizer not fitted: {msg}"),
            Error::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<rbt_linalg::Error> for Error {
    fn from(e: rbt_linalg::Error) -> Self {
        Error::Linalg(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
