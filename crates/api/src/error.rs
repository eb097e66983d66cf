//! The workspace-wide error taxonomy.
//!
//! Every layer below this one has a typed, crate-local error
//! ([`rbt_linalg::Error`], [`rbt_data::Error`], [`rbt_core::Error`],
//! [`rbt_transform::Error`], [`rbt_core::codec::CodecError`]). [`RbtError`]
//! is the single type the *service boundary* speaks: it re-groups those
//! errors by **what the caller should do about them** — fix the
//! configuration, fix the data shape, lower the thresholds, replace the
//! corrupt key file — rather than by which crate noticed. The CLI maps each
//! group to a distinct process exit code via [`RbtError::exit_code`].

use rbt_core::codec::CodecError;
use std::fmt;

/// The unified error type of the release API.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RbtError {
    /// A requested pairwise-security threshold is unsatisfiable: no
    /// isometry angle achieves it for this attribute pair. The maximum
    /// achievable variances tell the administrator what *would* work.
    InfeasibleThreshold {
        /// First attribute index of the failing pair.
        i: usize,
        /// Second attribute index of the failing pair.
        j: usize,
        /// The requested `Var(Ai − Ai')` threshold.
        rho1: f64,
        /// The requested `Var(Aj − Aj')` threshold.
        rho2: f64,
        /// Maximum `Var(Ai − Ai')` achievable over all angles.
        max_var1: f64,
        /// Maximum `Var(Aj − Aj')` achievable over all angles.
        max_var2: f64,
    },
    /// Two parts of the system disagree on a shape: a batch with the wrong
    /// column count for its fitted key, a normalizer fitted for different
    /// data, mismatched drift bounds, …
    DimensionMismatch(String),
    /// A persisted artifact (key file, session, fitted method) could not be
    /// decoded: corruption, truncation, tampering, unsupported version.
    Codec(CodecError),
    /// The method cannot invert releases (the additive-noise / swapping /
    /// geometric baselines destroy information by design).
    NotInvertible {
        /// Registry name of the non-invertible method.
        method: String,
    },
    /// No registered method answers to this name (see
    /// [`Method::from_name`](crate::Method::from_name)).
    UnknownMethod {
        /// The name that failed to resolve.
        name: String,
    },
    /// A parameter or configuration was invalid for the chosen method
    /// (thresholds handed to a baseline, a non-positive noise level, an
    /// empty min–max target range, …).
    InvalidConfig(String),
    /// A data-layer failure: CSV parse errors, unknown columns, invalid
    /// numeric arguments.
    Data(rbt_data::Error),
    /// A linear-algebra failure (shape errors inside kernels).
    Linalg(rbt_linalg::Error),
    /// An RBT-core failure not covered by a more specific variant.
    Core(rbt_core::Error),
    /// A baseline-transform failure not covered by a more specific variant.
    Transform(rbt_transform::Error),
}

impl RbtError {
    /// The process exit code the CLI maps this error to. Distinct codes
    /// per failure family let scripts branch on *why* a release failed:
    ///
    /// | code | family |
    /// |------|--------|
    /// | 2    | usage: unknown method, invalid configuration |
    /// | 3    | input data: CSV parse failures, unknown columns |
    /// | 4    | key files: corruption, truncation, version mismatch |
    /// | 5    | shape: batch/key/normalizer dimension disagreements |
    /// | 6    | thresholds: requested security level unachievable |
    /// | 7    | method capability: inversion requested from a baseline |
    /// | 1    | anything else |
    pub fn exit_code(&self) -> u8 {
        match self {
            RbtError::UnknownMethod { .. } | RbtError::InvalidConfig(_) => 2,
            RbtError::Data(_) => 3,
            RbtError::Codec(_) => 4,
            RbtError::DimensionMismatch(_) => 5,
            RbtError::InfeasibleThreshold { .. } => 6,
            RbtError::NotInvertible { .. } => 7,
            _ => 1,
        }
    }
}

impl fmt::Display for RbtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RbtError::InfeasibleThreshold {
                i,
                j,
                rho1,
                rho2,
                max_var1,
                max_var2,
            } => write!(
                f,
                "security threshold ({rho1}, {rho2}) is unachievable for attribute pair \
                 ({i}, {j}); the maximum achievable variances are ({max_var1:.4}, {max_var2:.4}) \
                 — lower the thresholds to at most those values"
            ),
            RbtError::DimensionMismatch(msg) => write!(f, "dimension mismatch: {msg}"),
            RbtError::Codec(e) => write!(f, "key file error: {e}"),
            RbtError::NotInvertible { method } => write!(
                f,
                "method {method:?} is not invertible: it has no key that undoes the release"
            ),
            RbtError::UnknownMethod { name } => write!(
                f,
                "unknown method {name:?} (run `rbt-cli methods` for the registry)"
            ),
            RbtError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            RbtError::Data(e) => write!(f, "data error: {e}"),
            RbtError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            RbtError::Core(e) => write!(f, "rbt error: {e}"),
            RbtError::Transform(e) => write!(f, "transform error: {e}"),
        }
    }
}

impl std::error::Error for RbtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RbtError::Codec(e) => Some(e),
            RbtError::Data(e) => Some(e),
            RbtError::Linalg(e) => Some(e),
            RbtError::Core(e) => Some(e),
            RbtError::Transform(e) => Some(e),
            _ => None,
        }
    }
}

impl From<rbt_core::Error> for RbtError {
    fn from(e: rbt_core::Error) -> Self {
        match e {
            rbt_core::Error::EmptySecurityRange {
                i,
                j,
                rho1,
                rho2,
                max_var1,
                max_var2,
            } => RbtError::InfeasibleThreshold {
                i,
                j,
                rho1,
                rho2,
                max_var1,
                max_var2,
            },
            rbt_core::Error::KeyMismatch(msg) => RbtError::DimensionMismatch(msg),
            rbt_core::Error::InvalidParameter(msg) | rbt_core::Error::InvalidPairing(msg) => {
                RbtError::InvalidConfig(msg)
            }
            rbt_core::Error::Codec(e) => RbtError::Codec(e),
            rbt_core::Error::Linalg(e) => RbtError::Linalg(e),
            rbt_core::Error::Data(e) => RbtError::from(e),
            other => RbtError::Core(other),
        }
    }
}

impl From<rbt_data::Error> for RbtError {
    fn from(e: rbt_data::Error) -> Self {
        match e {
            rbt_data::Error::Shape(msg) => RbtError::DimensionMismatch(msg),
            rbt_data::Error::NotFitted(msg) => RbtError::DimensionMismatch(msg),
            rbt_data::Error::Linalg(e) => RbtError::Linalg(e),
            other => RbtError::Data(other),
        }
    }
}

impl From<rbt_transform::Error> for RbtError {
    fn from(e: rbt_transform::Error) -> Self {
        match e {
            rbt_transform::Error::InvalidParameter(msg) => RbtError::InvalidConfig(msg),
            // Same failure family as a normalizer refusing NaN input: the
            // *data* is at fault, so it must land in the same exit-code
            // group regardless of which method noticed.
            rbt_transform::Error::InvalidData(msg) => {
                RbtError::Data(rbt_data::Error::InvalidArgument(msg))
            }
            rbt_transform::Error::Linalg(e) => RbtError::Linalg(e),
            other => RbtError::Transform(other),
        }
    }
}

impl From<rbt_linalg::Error> for RbtError {
    fn from(e: rbt_linalg::Error) -> Self {
        RbtError::Linalg(e)
    }
}

impl From<CodecError> for RbtError {
    fn from(e: CodecError) -> Self {
        RbtError::Codec(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, RbtError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_errors_regroup_by_remedy() {
        let e: RbtError = rbt_core::Error::EmptySecurityRange {
            i: 0,
            j: 1,
            rho1: 9.0,
            rho2: 9.0,
            max_var1: 1.0,
            max_var2: 1.0,
        }
        .into();
        assert!(matches!(
            e,
            RbtError::InfeasibleThreshold { i: 0, j: 1, .. }
        ));
        assert_eq!(e.exit_code(), 6);

        let e: RbtError = rbt_core::Error::KeyMismatch("3 vs 5".into()).into();
        assert!(matches!(e, RbtError::DimensionMismatch(_)));
        assert_eq!(e.exit_code(), 5);

        let e: RbtError = rbt_core::Error::Codec(CodecError::ChecksumMismatch {
            stored: 1,
            computed: 2,
        })
        .into();
        assert_eq!(e.exit_code(), 4);
    }

    #[test]
    fn data_and_transform_errors_regroup() {
        let e: RbtError = rbt_data::Error::Parse {
            line: 3,
            message: "bad float".into(),
        }
        .into();
        assert!(matches!(e, RbtError::Data(_)));
        assert_eq!(e.exit_code(), 3);

        let e: RbtError = rbt_data::Error::NotFitted("2 vs 4 columns".into()).into();
        assert!(matches!(e, RbtError::DimensionMismatch(_)));

        let e: RbtError = rbt_transform::Error::InvalidParameter("level".into()).into();
        assert!(matches!(e, RbtError::InvalidConfig(_)));
        assert_eq!(e.exit_code(), 2);
    }

    #[test]
    fn exit_codes_are_distinct_per_family() {
        let samples = [
            RbtError::UnknownMethod { name: "x".into() }.exit_code(),
            RbtError::Data(rbt_data::Error::UnknownColumn("c".into())).exit_code(),
            RbtError::Codec(CodecError::UnsupportedVersion { found: 9 }).exit_code(),
            RbtError::DimensionMismatch("a".into()).exit_code(),
            RbtError::InfeasibleThreshold {
                i: 0,
                j: 1,
                rho1: 1.0,
                rho2: 1.0,
                max_var1: 0.1,
                max_var2: 0.1,
            }
            .exit_code(),
            RbtError::NotInvertible {
                method: "noise".into(),
            }
            .exit_code(),
        ];
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), samples.len(), "codes collide: {samples:?}");
    }
}
