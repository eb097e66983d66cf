//! Extension: reflection-based distortion — the paper's third isometry
//! class (§3.1) as a drop-in enlargement of the RBT keyspace.
//!
//! §3.1 lists three isometry families: translations, rotations, and
//! **reflections** ("map all points to their mirror images"). The paper
//! only builds on rotations; this module completes the picture. For a pair
//! `(X, Y)` reflected across the line at angle φ:
//!
//! ```text
//! X' = X·cos2φ + Y·sin2φ        D1 = X − X' = (1−cos2φ)·X − sin2φ·Y
//! Y' = X·sin2φ − Y·cos2φ        D2 = Y − Y' = −sin2φ·X + (1+cos2φ)·Y
//!
//! Var(D1) = (1−cos2φ)²·Var(X) + sin²2φ·Var(Y) − 2(1−cos2φ)·sin2φ·Cov
//! Var(D2) = sin²2φ·Var(X) + (1+cos2φ)²·Var(Y) − 2·sin2φ·(1+cos2φ)·Cov
//! ```
//!
//! The same security-range machinery applies: [`reflection_security_range`]
//! is the rotation solver's arc scanner over a 180° period. So
//! [`HybridIsometry`] can flip a fair coin per pair between a rotation and a
//! reflection: each step stays an exact isometry, Corollary 1 still holds
//! verbatim, and an attacker enumerating the key must now also guess one
//! bit per pair (and cannot assume the composite map has determinant +1).
//! Only that draw is its own: the fit is RBT's pair loop, which applies
//! each step with the release sweep, and the [`IsometryKey`] it produces is
//! RBT's [`Key`] over [`IsometryStep`]s. It is persisted only inside a
//! fitted release's sealed `Method` record.

use crate::key::{Key, KeyStep};
use crate::method::{fit_pairs, KeyFit, RbtConfig};
use crate::security::{
    max_achievable, scan_arcs, security_range, PairVarianceProfile, PairwiseSecurityThreshold,
    SecurityRange,
};
use crate::{Error, Result};
use rand::Rng;
use rbt_linalg::matrix::PairStep;
use rbt_linalg::rotation::Reflection2;
use rbt_linalg::{Matrix, Rotation2};

/// `Var(X − X')` under reflection across the axis at `phi_degrees`.
pub fn reflection_var_diff_first(p: &PairVarianceProfile, phi_degrees: f64) -> f64 {
    let (s, c) = (2.0 * phi_degrees.to_radians()).sin_cos();
    let a = 1.0 - c;
    a * a * p.var_x + s * s * p.var_y - 2.0 * a * s * p.cov_xy
}

/// `Var(Y − Y')` under reflection across the axis at `phi_degrees`.
pub fn reflection_var_diff_second(p: &PairVarianceProfile, phi_degrees: f64) -> f64 {
    let (s, c) = (2.0 * phi_degrees.to_radians()).sin_cos();
    let b = 1.0 + c;
    s * s * p.var_x + b * b * p.var_y - 2.0 * s * b * p.cov_xy
}

/// `true` when the reflection axis angle satisfies the threshold on both
/// attributes.
pub fn reflection_satisfies(
    p: &PairVarianceProfile,
    phi_degrees: f64,
    pst: &PairwiseSecurityThreshold,
) -> bool {
    reflection_var_diff_first(p, phi_degrees) >= pst.rho1
        && reflection_var_diff_second(p, phi_degrees) >= pst.rho2
}

/// Security range for the reflection axis: the set of φ in `[0°, 180°)`
/// (reflections repeat with period 180°) meeting the threshold, found by
/// the same scan and bisection as the rotation angle's
/// ([`security_range`]).
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for `grid < 8`.
pub fn reflection_security_range(
    p: &PairVarianceProfile,
    pst: &PairwiseSecurityThreshold,
    grid: usize,
) -> Result<SecurityRange> {
    scan_arcs(
        |phi| reflection_satisfies(p, phi, pst),
        180.0,
        179.999_999_999,
        grid,
    )
}

/// One step of the hybrid isometry key: a rotation or a reflection.
#[derive(Debug, Clone, PartialEq)]
pub enum IsometryStep {
    /// Clockwise plane rotation of the pair by θ degrees.
    Rotate {
        /// First attribute index.
        i: usize,
        /// Second attribute index.
        j: usize,
        /// Clockwise angle, degrees.
        theta_degrees: f64,
    },
    /// Reflection of the pair across the axis at φ degrees.
    Reflect {
        /// First attribute index.
        i: usize,
        /// Second attribute index.
        j: usize,
        /// Axis angle, degrees.
        phi_degrees: f64,
    },
}

impl crate::key::sealed::Sealed for IsometryStep {}

impl KeyStep for IsometryStep {
    fn pair(&self) -> (usize, usize) {
        match *self {
            IsometryStep::Rotate { i, j, .. } | IsometryStep::Reflect { i, j, .. } => (i, j),
        }
    }

    /// A rotation `[c, s, −s, c]` or a reflection `[c₂, s₂, s₂, −c₂]` on
    /// the step's pair.
    fn forward(&self) -> PairStep {
        match *self {
            IsometryStep::Rotate {
                i,
                j,
                theta_degrees,
            } => Rotation2::from_degrees(theta_degrees).step(i, j),
            IsometryStep::Reflect { i, j, phi_degrees } => {
                Reflection2::from_degrees(phi_degrees).step(i, j)
            }
        }
    }

    /// The rotation by −θ, or the reflection itself: reflections are
    /// involutions.
    fn inverse(&self) -> PairStep {
        match *self {
            IsometryStep::Rotate {
                i,
                j,
                theta_degrees,
            } => Rotation2::from_degrees(theta_degrees).inverse().step(i, j),
            IsometryStep::Reflect { .. } => self.forward(),
        }
    }
}

/// Ordered list of hybrid isometry steps: the key of a hybrid release. It
/// is persisted only inside the sealed `Method` record of a fitted
/// release.
pub type IsometryKey = Key<IsometryStep>;

/// Output of a hybrid run: the released matrix and its [`IsometryKey`].
pub type HybridOutput = KeyFit<IsometryStep>;

/// The hybrid transformer: per pair, flips a fair coin between a rotation
/// and a reflection, then draws the angle from the corresponding security
/// range.
#[derive(Debug, Clone)]
pub struct HybridIsometry {
    config: RbtConfig,
}

impl HybridIsometry {
    /// Creates a hybrid transformer reusing the RBT configuration
    /// (pairing, thresholds, variance mode, solver grid).
    pub fn new(config: RbtConfig) -> Self {
        HybridIsometry { config }
    }

    /// Runs the hybrid algorithm on a normalized matrix: the pair loop of
    /// [`RbtTransformer::transform`](crate::method::RbtTransformer::transform),
    /// drawing per pair a fair coin, then the angle from the chosen
    /// family's security range.
    ///
    /// # Errors
    ///
    /// Same conditions as
    /// [`RbtTransformer::transform`](crate::method::RbtTransformer::transform);
    /// a pair whose *chosen* isometry family has an empty security range
    /// falls back to the other family before erroring.
    pub fn transform<R: Rng + ?Sized>(
        &self,
        normalized: &Matrix,
        rng: &mut R,
    ) -> Result<HybridOutput> {
        let grid = self.config.solver_grid;
        fit_pairs(&self.config, normalized, rng, |p, rng| {
            let (i, j) = (p.i, p.j);
            let prefer_reflection: bool = rng.random();
            let rotation_range = security_range(&p.profile, p.pst, grid)?;
            let reflection_range = reflection_security_range(&p.profile, p.pst, grid)?;
            // The coin's family, or the other one when its range is empty.
            if !reflection_range.is_empty() && (prefer_reflection || rotation_range.is_empty()) {
                let phi_degrees = reflection_range.sample(rng)?;
                Ok(IsometryStep::Reflect { i, j, phi_degrees })
            } else if !rotation_range.is_empty() {
                let theta_degrees = rotation_range.sample(rng)?;
                Ok(IsometryStep::Rotate {
                    i,
                    j,
                    theta_degrees,
                })
            } else {
                let (max_var1, max_var2) = max_achievable(&p.profile, grid);
                Err(Error::EmptySecurityRange {
                    i,
                    j,
                    rho1: p.pst.rho1,
                    rho2: p.pst.rho2,
                    max_var1,
                    max_var2,
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isometry::dissimilarity_drift;
    use rand::SeedableRng;
    use rbt_data::{datasets, Normalization};
    use rbt_linalg::stats;
    use rbt_linalg::stats::VarianceMode;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn normalized_sample() -> Matrix {
        Normalization::zscore_paper()
            .fit_transform(datasets::arrhythmia_sample().matrix())
            .unwrap()
            .1
    }

    #[test]
    fn reflection_closed_form_matches_empirical() {
        let x = [1.2, -0.7, 0.3, 2.2, -1.5];
        let y = [0.4, 1.1, -0.9, 0.0, 0.5];
        let mode = VarianceMode::Sample;
        let p = PairVarianceProfile::from_columns(&x, &y, mode).unwrap();
        for phi in [5.0, 33.3, 88.8, 120.0, 179.0] {
            let f = Reflection2::from_degrees(phi);
            let mut xr = x.to_vec();
            let mut yr = y.to_vec();
            f.apply_columns(&mut xr, &mut yr).unwrap();
            let v1 = stats::variance_of_difference(&x, &xr, mode).unwrap();
            let v2 = stats::variance_of_difference(&y, &yr, mode).unwrap();
            assert!(
                (v1 - reflection_var_diff_first(&p, phi)).abs() < 1e-10,
                "first at {phi}"
            );
            assert!(
                (v2 - reflection_var_diff_second(&p, phi)).abs() < 1e-10,
                "second at {phi}"
            );
        }
    }

    #[test]
    fn reflection_range_samples_satisfy() {
        let z = normalized_sample();
        let p = PairVarianceProfile::from_columns(&z.column(0), &z.column(2), VarianceMode::Sample)
            .unwrap();
        let pst = PairwiseSecurityThreshold::uniform(0.3).unwrap();
        let range = reflection_security_range(&p, &pst, 1440).unwrap();
        assert!(!range.is_empty());
        let mut r = rng(5);
        for _ in 0..200 {
            let phi = range.sample(&mut r).unwrap();
            assert!(reflection_satisfies(&p, phi, &pst), "phi = {phi}");
        }
    }

    #[test]
    fn reflection_range_respects_bounds() {
        let z = normalized_sample();
        let p = PairVarianceProfile::from_columns(&z.column(0), &z.column(1), VarianceMode::Sample)
            .unwrap();
        let pst = PairwiseSecurityThreshold::uniform(0.1).unwrap();
        let range = reflection_security_range(&p, &pst, 1440).unwrap();
        for &(lo, hi) in range.intervals() {
            assert!((0.0..=180.0).contains(&lo));
            assert!((0.0..=180.0).contains(&hi));
        }
        assert!(reflection_security_range(&p, &pst, 4).is_err());
    }

    #[test]
    fn hybrid_is_isometric_and_invertible() {
        let z = normalized_sample();
        let hybrid = HybridIsometry::new(RbtConfig::uniform(
            PairwiseSecurityThreshold::uniform(0.25).unwrap(),
        ));
        for seed in 0..8 {
            let out = hybrid.transform(&z, &mut rng(seed)).unwrap();
            assert!(
                dissimilarity_drift(&z, &out.transformed) < 1e-9,
                "seed {seed}"
            );
            let back = out.key.invert(&out.transformed).unwrap();
            assert!(back.approx_eq(&z, 1e-10), "seed {seed}");
        }
    }

    #[test]
    fn hybrid_actually_uses_both_families() {
        let z = normalized_sample();
        let hybrid = HybridIsometry::new(RbtConfig::uniform(
            PairwiseSecurityThreshold::uniform(0.25).unwrap(),
        ));
        let mut saw_rotate = false;
        let mut saw_reflect = false;
        for seed in 0..32 {
            let out = hybrid.transform(&z, &mut rng(seed)).unwrap();
            for step in out.key.steps() {
                match step {
                    IsometryStep::Rotate { .. } => saw_rotate = true,
                    IsometryStep::Reflect { .. } => saw_reflect = true,
                }
            }
        }
        assert!(saw_rotate && saw_reflect);
    }

    #[test]
    fn key_validation_rejects_bad_steps() {
        assert!(IsometryKey::new(
            vec![IsometryStep::Reflect {
                i: 1,
                j: 1,
                phi_degrees: 0.0
            }],
            3
        )
        .is_err());
        assert!(IsometryKey::new(
            vec![IsometryStep::Rotate {
                i: 0,
                j: 7,
                theta_degrees: 0.0
            }],
            3
        )
        .is_err());
    }

    #[test]
    fn reflection_step_is_involution_via_key() {
        let key = IsometryKey::new(
            vec![IsometryStep::Reflect {
                i: 0,
                j: 1,
                phi_degrees: 40.0,
            }],
            3,
        )
        .unwrap();
        let z = normalized_sample();
        let once = key.apply(&z).unwrap();
        let twice = key.apply(&once).unwrap();
        assert!(twice.approx_eq(&z, 1e-12));
    }
}
