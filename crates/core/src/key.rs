//! The transformation key — the data owner's secret.
//!
//! §5.2 frames RBT's computational security around what an attacker would
//! have to guess: the attribute pairs, their order, and the angle drawn for
//! each pair from a continuous interval. A [`TransformationKey`] records
//! exactly those choices, so the owner can (a) audit what was released,
//! (b) re-apply the identical transformation to new rows, and (c) invert
//! the release. A key persists only inside its release session's key file
//! ([`crate::session::ReleaseSession::to_text`] /
//! [`to_bytes`](crate::session::ReleaseSession::to_bytes)), next to the
//! normalizer it rotates the output of.

use crate::method::KeyStep;
use crate::{Error, Result};
use rbt_linalg::matrix::{apply_steps_in_rows, PairStep};
use rbt_linalg::{Matrix, Rotation2};

/// One recorded rotation step.
#[derive(Debug, Clone, PartialEq)]
pub struct RotationStep {
    /// Index of the first attribute of the pair (first rotated coordinate).
    pub i: usize,
    /// Index of the second attribute of the pair.
    pub j: usize,
    /// Clockwise rotation angle, degrees.
    pub theta_degrees: f64,
    /// `Var(Ai − Ai')` achieved at this angle (diagnostic; not required to
    /// invert the key).
    pub achieved_var1: f64,
    /// `Var(Aj − Aj')` achieved at this angle.
    pub achieved_var2: f64,
}

impl KeyStep for RotationStep {
    /// The rotation `[cos θ, sin θ, −sin θ, cos θ]` on the step's pair.
    fn forward(&self) -> PairStep {
        Rotation2::from_degrees(self.theta_degrees).step(self.i, self.j)
    }
}

/// The ordered list of rotations applied by one RBT run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TransformationKey {
    steps: Vec<RotationStep>,
    n_attributes: usize,
}

impl TransformationKey {
    /// Creates a key from explicit steps.
    ///
    /// # Errors
    ///
    /// Returns [`Error::KeyMismatch`] if a step references an attribute
    /// `>= n_attributes` or pairs an attribute with itself.
    pub fn new(steps: Vec<RotationStep>, n_attributes: usize) -> Result<Self> {
        for (t, s) in steps.iter().enumerate() {
            if s.i >= n_attributes || s.j >= n_attributes {
                return Err(Error::KeyMismatch(format!(
                    "step {t} references attribute out of range (n = {n_attributes})"
                )));
            }
            if s.i == s.j {
                return Err(Error::KeyMismatch(format!(
                    "step {t} pairs {} with itself",
                    s.i
                )));
            }
        }
        Ok(TransformationKey {
            steps,
            n_attributes,
        })
    }

    /// The recorded steps, in application order.
    pub fn steps(&self) -> &[RotationStep] {
        &self.steps
    }

    /// Number of attributes of the matrices this key applies to.
    pub fn n_attributes(&self) -> usize {
        self.n_attributes
    }

    /// Every step's rotation `[cos θ, sin θ, −sin θ, cos θ]`, in
    /// application order — the form the fused row sweep
    /// ([`apply_steps_in_rows`]) consumes. The release session precomputes
    /// this once per batch instead of re-deriving angles per step.
    pub fn forward_sweep(&self) -> Vec<PairStep> {
        self.steps.iter().map(KeyStep::forward).collect()
    }

    /// The *inverse* rotations in reverse order — the sweep that undoes
    /// [`apply`](Self::apply).
    pub fn inverse_sweep(&self) -> Vec<PairStep> {
        self.steps
            .iter()
            .rev()
            .map(|st| {
                Rotation2::from_degrees(st.theta_degrees)
                    .inverse()
                    .step(st.i, st.j)
            })
            .collect()
    }

    /// Applies the key's rotations, in order, to a matrix with the same
    /// attribute layout (e.g. fresh rows arriving after the initial
    /// release). The matrix must already be normalized with the same
    /// parameters as the original fit.
    ///
    /// All steps are applied per block of rows in one fused sweep
    /// ([`apply_steps_in_rows`]): a `p`-step key costs one trip through the
    /// matrix, not `p`. Each `(row, step)` update is row-local and keeps
    /// its per-row order, so the result is bit-identical to the key fit,
    /// which applies the same steps one sweep at a time — and to rotating
    /// extracted columns with [`Rotation2::apply_columns`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::KeyMismatch`] if the column count differs.
    pub fn apply(&self, normalized: &Matrix) -> Result<Matrix> {
        self.check(normalized)?;
        let mut out = normalized.clone();
        let steps = self.forward_sweep();
        if !steps.is_empty() {
            let n_cols = out.cols();
            apply_steps_in_rows(out.as_mut_slice(), n_cols, &steps);
        }
        Ok(out)
    }

    /// Undoes the transformation (owner-side): applies the inverse rotations
    /// in reverse order, as one fused sweep like [`apply`](Self::apply).
    ///
    /// # Errors
    ///
    /// Returns [`Error::KeyMismatch`] if the column count differs.
    pub fn invert(&self, transformed: &Matrix) -> Result<Matrix> {
        self.check(transformed)?;
        let mut out = transformed.clone();
        let steps = self.inverse_sweep();
        if !steps.is_empty() {
            let n_cols = out.cols();
            apply_steps_in_rows(out.as_mut_slice(), n_cols, &steps);
        }
        Ok(out)
    }

    /// The composite `n × n` orthogonal matrix the key is equivalent to
    /// (the product of its Givens rotations, in application order). Row
    /// vectors transform as `x' = x · Rᵀ`.
    ///
    /// Left-multiplying by a Givens matrix only touches two rows, so the
    /// product is accumulated with [`Matrix::rotate_row_pair`] — `O(p·n)`
    /// row updates instead of `p` full `n × n` matmuls (`O(p·n³)`), with
    /// the same per-element accumulation order as the matmul it replaces.
    ///
    /// # Errors
    ///
    /// Returns [`Error::KeyMismatch`] on an out-of-range step (cannot occur
    /// for a validated key).
    pub fn composite_matrix(&self) -> Result<Matrix> {
        let n = self.n_attributes;
        let mut acc = Matrix::identity(n);
        for step in &self.steps {
            let (s, c) = Rotation2::from_degrees(step.theta_degrees)
                .radians()
                .sin_cos();
            acc.rotate_row_pair(step.i, step.j, c, s)
                .map_err(|e| Error::KeyMismatch(e.to_string()))?;
        }
        Ok(acc)
    }

    fn check(&self, m: &Matrix) -> Result<()> {
        if m.cols() != self.n_attributes {
            return Err(Error::KeyMismatch(format!(
                "key fitted for {} attributes, matrix has {}",
                self.n_attributes,
                m.cols()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::approx_constant)] // 0.318 is the paper's printed value, not 1/pi
    fn paper_key() -> TransformationKey {
        TransformationKey::new(
            vec![
                RotationStep {
                    i: 0,
                    j: 2,
                    theta_degrees: 312.47,
                    achieved_var1: 0.318,
                    achieved_var2: 0.9805,
                },
                RotationStep {
                    i: 1,
                    j: 0,
                    theta_degrees: 147.29,
                    achieved_var1: 2.9714,
                    achieved_var2: 6.9274,
                },
            ],
            3,
        )
        .unwrap()
    }

    #[test]
    fn new_validates_steps() {
        let bad_range = TransformationKey::new(
            vec![RotationStep {
                i: 0,
                j: 9,
                theta_degrees: 1.0,
                achieved_var1: 0.0,
                achieved_var2: 0.0,
            }],
            3,
        );
        assert!(matches!(bad_range, Err(Error::KeyMismatch(_))));
        let self_pair = TransformationKey::new(
            vec![RotationStep {
                i: 1,
                j: 1,
                theta_degrees: 1.0,
                achieved_var1: 0.0,
                achieved_var2: 0.0,
            }],
            3,
        );
        assert!(matches!(self_pair, Err(Error::KeyMismatch(_))));
    }

    #[test]
    fn apply_then_invert_round_trips() {
        let key = paper_key();
        let data = Matrix::from_rows(&[
            &[1.4809, 0.7095, -0.3476],
            &[0.4151, -0.3041, -1.5061],
            &[-0.4824, -1.0642, 0.4634],
        ])
        .unwrap();
        let transformed = key.apply(&data).unwrap();
        assert!(transformed.max_abs_diff(&data).unwrap() > 0.1);
        let back = key.invert(&transformed).unwrap();
        assert!(back.approx_eq(&data, 1e-12));
    }

    #[test]
    fn apply_checks_shape() {
        let key = paper_key();
        assert!(matches!(
            key.apply(&Matrix::zeros(2, 2)),
            Err(Error::KeyMismatch(_))
        ));
        assert!(matches!(
            key.invert(&Matrix::zeros(2, 5)),
            Err(Error::KeyMismatch(_))
        ));
    }

    #[test]
    fn composite_matrix_matches_stepwise_application() {
        let key = paper_key();
        let data = Matrix::from_rows(&[&[1.0, -0.5, 0.25], &[0.1, 2.0, -1.0]]).unwrap();
        let stepwise = key.apply(&data).unwrap();
        let r = key.composite_matrix().unwrap();
        assert!(rbt_linalg::rotation::is_orthogonal(&r, 1e-12));
        let via_matrix = data.matmul(&r.transpose()).unwrap();
        assert!(stepwise.approx_eq(&via_matrix, 1e-10));
    }

    #[test]
    fn empty_key_is_identity() {
        let key = TransformationKey::new(vec![], 3).unwrap();
        let data = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]).unwrap();
        assert_eq!(key.apply(&data).unwrap(), data);
        assert!(key
            .composite_matrix()
            .unwrap()
            .approx_eq(&Matrix::identity(3), 0.0));
    }
}
