//! Plane rotations — the geometric core of the RBT method.
//!
//! The paper's Eq. (1) defines a **clockwise** rotation of a 2-D point by an
//! angle θ:
//!
//! ```text
//! R = [  cosθ  sinθ ]
//!     [ -sinθ  cosθ ]
//! ```
//!
//! [`Rotation2`] implements exactly this convention, working in degrees at
//! the API surface (the paper reports θ = 312.47°, 147.29°, …) and radians
//! internally. [`givens`] lifts a plane rotation into an `n × n` orthogonal
//! matrix acting on an arbitrary coordinate pair, which is how a sequence of
//! pairwise RBT steps composes into a single n-D isometry.

use crate::matrix::PairStep;
use crate::{Error, Matrix, Result};

/// A 2-D clockwise rotation (paper Eq. 1).
///
/// # Example
///
/// ```
/// use rbt_linalg::Rotation2;
///
/// let r = Rotation2::from_degrees(90.0);
/// let (x, y) = r.apply_point(1.0, 0.0);
/// // Clockwise 90°: the x-axis unit vector maps to (0, -1).
/// assert!((x - 0.0).abs() < 1e-12 && (y + 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rotation2 {
    /// Angle in radians, measured clockwise.
    theta: f64,
}

impl Rotation2 {
    /// Rotation by `degrees`, measured clockwise.
    pub fn from_degrees(degrees: f64) -> Self {
        Rotation2 {
            theta: degrees.to_radians(),
        }
    }

    /// Rotation by `radians`, measured clockwise.
    pub fn from_radians(radians: f64) -> Self {
        Rotation2 { theta: radians }
    }

    /// The angle in degrees (as constructed; not normalised).
    pub fn degrees(&self) -> f64 {
        self.theta.to_degrees()
    }

    /// The angle in radians (as constructed; not normalised).
    pub fn radians(&self) -> f64 {
        self.theta
    }

    /// `cos θ`.
    #[inline]
    pub fn cos(&self) -> f64 {
        self.theta.cos()
    }

    /// `sin θ`.
    #[inline]
    pub fn sin(&self) -> f64 {
        self.theta.sin()
    }

    /// Rotates a single point `(x, y)` clockwise by θ.
    #[inline]
    pub fn apply_point(&self, x: f64, y: f64) -> (f64, f64) {
        let (s, c) = self.theta.sin_cos();
        (x * c + y * s, -x * s + y * c)
    }

    /// Rotates two equal-length coordinate vectors in place.
    ///
    /// This is the paper's `V' = R × V` where `V = (Ai, Aj)` holds two
    /// attribute columns (§4.2, Pairwise-Attribute Distortion).
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if the slices differ in length.
    pub fn apply_columns(&self, xs: &mut [f64], ys: &mut [f64]) -> Result<()> {
        if xs.len() != ys.len() {
            return Err(Error::DimensionMismatch {
                expected: format!("columns of equal length {}", xs.len()),
                found: format!("second column of length {}", ys.len()),
            });
        }
        let (s, c) = self.theta.sin_cos();
        for (x, y) in xs.iter_mut().zip(ys.iter_mut()) {
            let nx = *x * c + *y * s;
            let ny = -*x * s + *y * c;
            *x = nx;
            *y = ny;
        }
        Ok(())
    }

    /// This rotation as the sweep step `[c, s, −s, c]` on columns `i` and
    /// `j`: the same `sin_cos` as [`apply_columns`](Self::apply_columns).
    pub fn step(&self, i: usize, j: usize) -> PairStep {
        let (s, c) = self.theta.sin_cos();
        PairStep {
            i,
            j,
            m: [c, s, -s, c],
        }
    }

    /// The inverse rotation (counter-clockwise by the same angle).
    pub fn inverse(&self) -> Rotation2 {
        Rotation2 { theta: -self.theta }
    }

    /// Composition: applying `self` after `other` (angles add).
    pub fn compose(&self, other: &Rotation2) -> Rotation2 {
        Rotation2 {
            theta: self.theta + other.theta,
        }
    }

    /// The 2×2 matrix of Eq. (1).
    pub fn as_matrix(&self) -> Matrix {
        let (s, c) = self.theta.sin_cos();
        Matrix::from_rows(&[&[c, s], &[-s, c]]).expect("2x2 literal is well-formed")
    }
}

/// A 2-D reflection across the line through the origin at angle φ
/// (measured counter-clockwise from the x-axis).
///
/// Reflections are the third isometry class the paper lists (§3.1,
/// alongside translations and rotations): they preserve distances but
/// reverse orientation (`det = −1`), and every reflection is an involution
/// (its own inverse). The matrix is
///
/// ```text
/// F(φ) = [ cos2φ   sin2φ ]
///        [ sin2φ  −cos2φ ]
/// ```
///
/// # Example
///
/// ```
/// use rbt_linalg::rotation::Reflection2;
///
/// // Reflection across the x-axis (φ = 0) negates y.
/// let f = Reflection2::from_degrees(0.0);
/// let (x, y) = f.apply_point(3.0, 4.0);
/// assert!((x - 3.0).abs() < 1e-12 && (y + 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reflection2 {
    /// Axis angle in radians (counter-clockwise from the x-axis).
    phi: f64,
}

impl Reflection2 {
    /// Reflection across the line at `degrees` from the x-axis.
    pub fn from_degrees(degrees: f64) -> Self {
        Reflection2 {
            phi: degrees.to_radians(),
        }
    }

    /// Reflection across the line at `radians` from the x-axis.
    pub fn from_radians(radians: f64) -> Self {
        Reflection2 { phi: radians }
    }

    /// The axis angle in degrees (as constructed; not normalised).
    pub fn degrees(&self) -> f64 {
        self.phi.to_degrees()
    }

    /// `cos 2φ`.
    #[inline]
    pub fn cos2(&self) -> f64 {
        (2.0 * self.phi).cos()
    }

    /// `sin 2φ`.
    #[inline]
    pub fn sin2(&self) -> f64 {
        (2.0 * self.phi).sin()
    }

    /// Reflects a single point.
    #[inline]
    pub fn apply_point(&self, x: f64, y: f64) -> (f64, f64) {
        let (s, c) = (2.0 * self.phi).sin_cos();
        (x * c + y * s, x * s - y * c)
    }

    /// Reflects two equal-length coordinate vectors in place.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if the slices differ in length.
    pub fn apply_columns(&self, xs: &mut [f64], ys: &mut [f64]) -> Result<()> {
        if xs.len() != ys.len() {
            return Err(Error::DimensionMismatch {
                expected: format!("columns of equal length {}", xs.len()),
                found: format!("second column of length {}", ys.len()),
            });
        }
        let (s, c) = (2.0 * self.phi).sin_cos();
        for (x, y) in xs.iter_mut().zip(ys.iter_mut()) {
            let nx = *x * c + *y * s;
            let ny = *x * s - *y * c;
            *x = nx;
            *y = ny;
        }
        Ok(())
    }

    /// This reflection as the sweep step `[c₂, s₂, s₂, −c₂]` on columns `i`
    /// and `j`: the same `sin_cos` as [`apply_columns`](Self::apply_columns).
    pub fn step(&self, i: usize, j: usize) -> PairStep {
        let (s, c) = (2.0 * self.phi).sin_cos();
        PairStep {
            i,
            j,
            m: [c, s, s, -c],
        }
    }

    /// The 2×2 reflection matrix.
    pub fn as_matrix(&self) -> Matrix {
        let (s, c) = (2.0 * self.phi).sin_cos();
        Matrix::from_rows(&[&[c, s], &[s, -c]]).expect("2x2 literal is well-formed")
    }
}

/// Builds the `n × n` Givens rotation acting clockwise by `rot` on the
/// coordinate pair `(i, j)` and as the identity elsewhere.
///
/// Composing the Givens matrices of each RBT step (in application order,
/// left-multiplied) yields the single orthogonal matrix the transformation
/// is equivalent to — which is what Theorem 2 (isometry) exploits and what
/// the PCA attack in `rbt-attack` tries to estimate.
///
/// # Errors
///
/// Returns [`Error::InvalidArgument`] if `i == j` and
/// [`Error::IndexOutOfBounds`] if either index is `>= n`.
pub fn givens(n: usize, i: usize, j: usize, rot: &Rotation2) -> Result<Matrix> {
    if i == j {
        return Err(Error::InvalidArgument(
            "Givens rotation requires two distinct coordinates".into(),
        ));
    }
    for &k in &[i, j] {
        if k >= n {
            return Err(Error::IndexOutOfBounds { index: k, bound: n });
        }
    }
    let mut g = Matrix::identity(n);
    let (s, c) = (rot.sin(), rot.cos());
    g[(i, i)] = c;
    g[(i, j)] = s;
    g[(j, i)] = -s;
    g[(j, j)] = c;
    Ok(g)
}

/// `true` if `m` is orthogonal within `tol` (`mᵀ m ≈ I`).
pub fn is_orthogonal(m: &Matrix, tol: f64) -> bool {
    if !m.is_square() {
        return false;
    }
    match m.transpose().matmul(m) {
        Ok(p) => p.approx_eq(&Matrix::identity(m.rows()), tol),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_matrix_layout() {
        let r = Rotation2::from_degrees(30.0);
        let m = r.as_matrix();
        assert!((m[(0, 0)] - 30f64.to_radians().cos()).abs() < 1e-12);
        assert!((m[(0, 1)] - 30f64.to_radians().sin()).abs() < 1e-12);
        assert!((m[(1, 0)] + 30f64.to_radians().sin()).abs() < 1e-12);
        assert!((m[(1, 1)] - 30f64.to_radians().cos()).abs() < 1e-12);
    }

    #[test]
    fn apply_point_matches_matrix() {
        let r = Rotation2::from_degrees(312.47);
        let (x, y) = r.apply_point(1.4809, -0.3476);
        let v = r.as_matrix().matvec(&[1.4809, -0.3476]).unwrap();
        assert!((x - v[0]).abs() < 1e-12);
        assert!((y - v[1]).abs() < 1e-12);
    }

    #[test]
    fn paper_first_rotation_heart_rate() {
        // Table 2 row 1237 rotated by θ=312.47° on (age, heart_rate):
        // heart_rate' = -sinθ·age + cosθ·hr ≈ 0.8577 (Table 3).
        let r = Rotation2::from_degrees(312.47);
        let (_, hr_prime) = r.apply_point(1.4809, -0.3476);
        assert!((hr_prime - 0.8577).abs() < 5e-4, "got {hr_prime}");
    }

    #[test]
    fn apply_columns_round_trip() {
        let r = Rotation2::from_degrees(123.4);
        let mut xs = vec![1.0, -2.0, 0.5];
        let mut ys = vec![0.0, 3.0, -1.5];
        let (ox, oy) = (xs.clone(), ys.clone());
        r.apply_columns(&mut xs, &mut ys).unwrap();
        r.inverse().apply_columns(&mut xs, &mut ys).unwrap();
        for (a, b) in xs.iter().zip(&ox) {
            assert!((a - b).abs() < 1e-12);
        }
        for (a, b) in ys.iter().zip(&oy) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn apply_columns_rejects_mismatch() {
        let r = Rotation2::from_degrees(10.0);
        let mut xs = vec![1.0, 2.0];
        let mut ys = vec![1.0];
        assert!(r.apply_columns(&mut xs, &mut ys).is_err());
    }

    #[test]
    fn rotation_preserves_norm() {
        let r = Rotation2::from_degrees(77.7);
        let (x, y) = r.apply_point(3.0, 4.0);
        assert!((x.hypot(y) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn compose_adds_angles() {
        let a = Rotation2::from_degrees(30.0);
        let b = Rotation2::from_degrees(12.0);
        let c = a.compose(&b);
        assert!((c.degrees() - 42.0).abs() < 1e-9);
        let p = a.as_matrix().matmul(&b.as_matrix()).unwrap();
        assert!(p.approx_eq(&c.as_matrix(), 1e-12));
    }

    #[test]
    fn givens_embeds_rotation() {
        let r = Rotation2::from_degrees(45.0);
        let g = givens(4, 1, 3, &r).unwrap();
        assert!(is_orthogonal(&g, 1e-12));
        assert_eq!(g[(0, 0)], 1.0);
        assert_eq!(g[(2, 2)], 1.0);
        assert!((g[(1, 1)] - r.cos()).abs() < 1e-12);
        assert!((g[(1, 3)] - r.sin()).abs() < 1e-12);
        assert!((g[(3, 1)] + r.sin()).abs() < 1e-12);
    }

    #[test]
    fn givens_validates_indices() {
        let r = Rotation2::from_degrees(1.0);
        assert!(givens(3, 1, 1, &r).is_err());
        assert!(givens(3, 0, 3, &r).is_err());
    }

    #[test]
    fn orthogonality_detection() {
        assert!(is_orthogonal(&Matrix::identity(5), 1e-12));
        assert!(is_orthogonal(
            &Rotation2::from_degrees(33.0).as_matrix(),
            1e-12
        ));
        let not = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]).unwrap();
        assert!(!is_orthogonal(&not, 1e-9));
        let rect = Matrix::zeros(2, 3);
        assert!(!is_orthogonal(&rect, 1e-9));
    }

    #[test]
    fn reflection_is_involution() {
        let f = Reflection2::from_degrees(37.3);
        let (x, y) = (1.7, -2.4);
        let (rx, ry) = f.apply_point(x, y);
        let (bx, by) = f.apply_point(rx, ry);
        assert!((bx - x).abs() < 1e-12 && (by - y).abs() < 1e-12);
    }

    #[test]
    fn reflection_preserves_norm_and_flips_orientation() {
        let f = Reflection2::from_degrees(61.2);
        let (x, y) = f.apply_point(3.0, 4.0);
        assert!((x.hypot(y) - 5.0).abs() < 1e-12);
        // det = −1.
        let m = f.as_matrix();
        let det = m[(0, 0)] * m[(1, 1)] - m[(0, 1)] * m[(1, 0)];
        assert!((det + 1.0).abs() < 1e-12);
        assert!(is_orthogonal(&m, 1e-12));
    }

    #[test]
    fn reflection_axis_is_fixed() {
        // Points on the axis are fixed by the reflection.
        let phi = 28.0f64;
        let f = Reflection2::from_degrees(phi);
        let (ax, ay) = (phi.to_radians().cos(), phi.to_radians().sin());
        let (rx, ry) = f.apply_point(3.0 * ax, 3.0 * ay);
        assert!((rx - 3.0 * ax).abs() < 1e-12);
        assert!((ry - 3.0 * ay).abs() < 1e-12);
    }

    #[test]
    fn reflection_columns_match_pointwise() {
        let f = Reflection2::from_degrees(123.4);
        let mut xs = vec![1.0, -2.0, 0.5];
        let mut ys = vec![0.0, 3.0, -1.5];
        let expected: Vec<(f64, f64)> = xs
            .iter()
            .zip(&ys)
            .map(|(&x, &y)| f.apply_point(x, y))
            .collect();
        f.apply_columns(&mut xs, &mut ys).unwrap();
        for (i, &(ex, ey)) in expected.iter().enumerate() {
            assert!((xs[i] - ex).abs() < 1e-12);
            assert!((ys[i] - ey).abs() < 1e-12);
        }
        let mut short = vec![1.0];
        assert!(f.apply_columns(&mut xs, &mut short).is_err());
    }

    #[test]
    fn degree_radian_round_trip() {
        let r = Rotation2::from_degrees(147.29);
        assert!((r.degrees() - 147.29).abs() < 1e-12);
        let r2 = Rotation2::from_radians(r.radians());
        assert_eq!(r, r2);
    }
}
