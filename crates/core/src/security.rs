//! Pairwise-security thresholds, the closed-form variance curves of
//! Figures 2–3, and the security-range solver.
//!
//! For a pair of attributes `(X, Y)` rotated clockwise by θ (Eq. 1):
//!
//! ```text
//! X' =  X·cosθ + Y·sinθ        D1 = X − X' = (1−cosθ)·X − sinθ·Y
//! Y' = −X·sinθ + Y·cosθ        D2 = Y − Y' =  sinθ·X + (1−cosθ)·Y
//!
//! Var(D1) = (1−cosθ)²·Var(X) + sin²θ·Var(Y) − 2(1−cosθ)·sinθ·Cov(X,Y)
//! Var(D2) = sin²θ·Var(X) + (1−cosθ)²·Var(Y) + 2·sinθ·(1−cosθ)·Cov(X,Y)
//! ```
//!
//! Both curves depend on the data only through `Var(X)`, `Var(Y)` and
//! `Cov(X, Y)` — the [`PairVarianceProfile`]. The paper finds the feasible
//! angles graphically (its Figures 2 and 3); [`security_range`] computes the
//! same set exactly as a union of closed arcs via a dense scan plus
//! bisection refinement of every boundary, and [`draw_rotation`] draws each
//! pair's angle from it for both the pooled and the federated release. The
//! reflection extension's solver
//! ([`reflection_security_range`](crate::reflection::reflection_security_range))
//! runs the same scanner over its 180° period.

use crate::key::RotationStep;
use crate::{Error, Result};
use rand::Rng;
use rbt_linalg::stats::{self, VarianceMode};

/// The paper's *Pairwise-Security Threshold* `PST(ρ1, ρ2)` (Definition 2):
/// the distortion of a pair `(Ai, Aj)` must satisfy
/// `Var(Ai − Ai') ≥ ρ1` and `Var(Aj − Aj') ≥ ρ2`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairwiseSecurityThreshold {
    /// Minimum variance of the first attribute's perturbation.
    pub rho1: f64,
    /// Minimum variance of the second attribute's perturbation.
    pub rho2: f64,
}

impl PairwiseSecurityThreshold {
    /// Creates a threshold.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] unless both thresholds are
    /// positive and finite (the paper requires `ρ1, ρ2 > 0`).
    pub fn new(rho1: f64, rho2: f64) -> Result<Self> {
        for (name, v) in [("rho1", rho1), ("rho2", rho2)] {
            if v.is_nan() || v <= 0.0 || !v.is_finite() {
                return Err(Error::InvalidParameter(format!(
                    "{name} must be positive and finite, got {v}"
                )));
            }
        }
        Ok(PairwiseSecurityThreshold { rho1, rho2 })
    }

    /// The symmetric threshold `PST(ρ, ρ)`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`new`](Self::new).
    pub fn uniform(rho: f64) -> Result<Self> {
        Self::new(rho, rho)
    }
}

/// Second-moment summary of an attribute pair: everything the variance
/// curves depend on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairVarianceProfile {
    /// `Var(X)` of the first attribute.
    pub var_x: f64,
    /// `Var(Y)` of the second attribute.
    pub var_y: f64,
    /// `Cov(X, Y)`.
    pub cov_xy: f64,
}

impl PairVarianceProfile {
    /// Computes the profile from two attribute columns.
    ///
    /// # Errors
    ///
    /// Propagates [`rbt_linalg::Error`] for empty or mismatched columns.
    pub fn from_columns(x: &[f64], y: &[f64], mode: VarianceMode) -> Result<Self> {
        Ok(PairVarianceProfile {
            var_x: stats::variance(x, mode)?,
            var_y: stats::variance(y, mode)?,
            cov_xy: stats::covariance(x, y, mode)?,
        })
    }

    /// `Var(X − X')` as a function of the clockwise rotation angle, in
    /// degrees — the first curve of the paper's Figures 2–3.
    pub fn var_diff_first(&self, theta_degrees: f64) -> f64 {
        let (s, c) = theta_degrees.to_radians().sin_cos();
        let a = 1.0 - c;
        a * a * self.var_x + s * s * self.var_y - 2.0 * a * s * self.cov_xy
    }

    /// `Var(Y − Y')` as a function of the clockwise rotation angle, in
    /// degrees — the second curve of the paper's Figures 2–3.
    pub fn var_diff_second(&self, theta_degrees: f64) -> f64 {
        let (s, c) = theta_degrees.to_radians().sin_cos();
        let a = 1.0 - c;
        s * s * self.var_x + a * a * self.var_y + 2.0 * s * a * self.cov_xy
    }

    /// `true` when the angle satisfies the threshold on both attributes.
    pub fn satisfies(&self, theta_degrees: f64, pst: &PairwiseSecurityThreshold) -> bool {
        self.var_diff_first(theta_degrees) >= pst.rho1
            && self.var_diff_second(theta_degrees) >= pst.rho2
    }

    /// Samples both curves on a regular grid — the series plotted in the
    /// paper's Figures 2 and 3. Returns `(θ, Var(X−X'), Var(Y−Y'))` triples
    /// covering `[0°, 360°]` inclusive.
    pub fn variance_curves(&self, n_points: usize) -> Vec<(f64, f64, f64)> {
        let n = n_points.max(2);
        (0..n)
            .map(|k| {
                let theta = 360.0 * k as f64 / (n - 1) as f64;
                (
                    theta,
                    self.var_diff_first(theta),
                    self.var_diff_second(theta),
                )
            })
            .collect()
    }
}

/// Fold phase of a [`PairMoments`] accumulator.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PairPhase {
    /// Pass 1: running sums of both columns.
    Sums {
        /// Running `Σ x`.
        sum_x: f64,
        /// Running `Σ y`.
        sum_y: f64,
    },
    /// Pass 2: exact means plus running centred second moments.
    Centered {
        /// Exact pooled mean of the first column.
        mean_x: f64,
        /// Exact pooled mean of the second column.
        mean_y: f64,
        /// Running `Σ (x − mean_x)²`.
        ss_x: f64,
        /// Running `Σ (y − mean_y)²`.
        ss_y: f64,
        /// Running `Σ (x − mean_x)(y − mean_y)`.
        ss_xy: f64,
        /// Rows folded in this pass.
        count2: usize,
    },
}

/// Chained two-pass accumulator for a [`PairVarianceProfile`] over
/// horizontally partitioned columns.
///
/// The pooled profile ([`PairVarianceProfile::from_columns`]) is built from
/// plain sequential left folds (sum → mean, then centred sums of
/// squares/products), so carrying this accumulator across partition
/// boundaries — folding each partition's rows **in concatenation order**,
/// one pass for the sums and one for the centred moments — produces the
/// **bit-identical** profile without any party revealing its rows. This is
/// the statistic the federated release protocol chains through the data
/// owners to fit one joint rotation key that matches the pooled
/// single-owner fit exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairMoments {
    count: usize,
    phase: PairPhase,
}

impl Default for PairMoments {
    fn default() -> Self {
        Self::new()
    }
}

impl PairMoments {
    /// A fresh accumulator at the start of pass 1.
    pub fn new() -> Self {
        PairMoments {
            count: 0,
            phase: PairPhase::Sums {
                sum_x: 0.0,
                sum_y: 0.0,
            },
        }
    }

    /// Folds one partition's pair columns. Update expressions and row order
    /// match [`rbt_linalg::stats`]'s sequential folds exactly.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for mismatched column lengths or
    /// non-finite values.
    pub fn fold(&mut self, x: &[f64], y: &[f64]) -> Result<()> {
        if x.len() != y.len() {
            return Err(Error::InvalidParameter(format!(
                "pair columns of different lengths ({} vs {})",
                x.len(),
                y.len()
            )));
        }
        if x.iter().chain(y).any(|v| !v.is_finite()) {
            return Err(Error::InvalidParameter(
                "pair columns contain NaN or infinite values".into(),
            ));
        }
        match &mut self.phase {
            PairPhase::Sums { sum_x, sum_y } => {
                for &v in x {
                    *sum_x += v;
                }
                for &v in y {
                    *sum_y += v;
                }
                self.count += x.len();
            }
            PairPhase::Centered {
                mean_x,
                mean_y,
                ss_x,
                ss_y,
                ss_xy,
                count2,
            } => {
                for &v in x {
                    *ss_x += (v - *mean_x) * (v - *mean_x);
                }
                for &v in y {
                    *ss_y += (v - *mean_y) * (v - *mean_y);
                }
                for (&xv, &yv) in x.iter().zip(y) {
                    *ss_xy += (xv - *mean_x) * (yv - *mean_y);
                }
                *count2 += x.len();
            }
        }
        Ok(())
    }

    /// `true` while the centred pass is still ahead.
    pub fn needs_second_pass(&self) -> bool {
        matches!(self.phase, PairPhase::Sums { .. })
    }

    /// Fixes the exact pooled means (`sum / n`, the same expression
    /// [`rbt_linalg::stats::mean`] uses) and transitions to the centred
    /// pass; fold every partition again, in the same order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if the centred pass already
    /// started or no rows were folded.
    pub fn begin_second_pass(&mut self) -> Result<()> {
        let PairPhase::Sums { sum_x, sum_y } = self.phase else {
            return Err(Error::InvalidParameter(
                "centred pass already begun for this pair".into(),
            ));
        };
        if self.count == 0 {
            return Err(Error::InvalidParameter(
                "cannot compute pair means over zero rows".into(),
            ));
        }
        let n = self.count as f64;
        self.phase = PairPhase::Centered {
            mean_x: sum_x / n,
            mean_y: sum_y / n,
            ss_x: 0.0,
            ss_y: 0.0,
            ss_xy: 0.0,
            count2: 0,
        };
        Ok(())
    }

    /// Finalizes into the profile — bit-identical to
    /// [`PairVarianceProfile::from_columns`] on the pooled columns.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if the centred pass never ran or
    /// the two passes folded different row counts.
    pub fn finish(self, mode: VarianceMode) -> Result<PairVarianceProfile> {
        let PairPhase::Centered {
            ss_x,
            ss_y,
            ss_xy,
            count2,
            ..
        } = self.phase
        else {
            return Err(Error::InvalidParameter(
                "pair profile still needs its centred pass".into(),
            ));
        };
        if count2 != self.count {
            return Err(Error::InvalidParameter(format!(
                "centred pass folded {count2} rows, sum pass folded {}",
                self.count
            )));
        }
        let div = mode.divisor(self.count);
        Ok(PairVarianceProfile {
            var_x: ss_x / div,
            var_y: ss_y / div,
            cov_xy: ss_xy / div,
        })
    }

    /// Serializes the accumulator (pass, counts, every float bit-exact) so
    /// it can be carried between partition holders.
    pub fn encode_into(&self, w: &mut rbt_linalg::codec::ByteWriter) {
        w.put_usize(self.count);
        match self.phase {
            PairPhase::Sums { sum_x, sum_y } => {
                w.put_u8(0);
                w.put_f64(sum_x);
                w.put_f64(sum_y);
            }
            PairPhase::Centered {
                mean_x,
                mean_y,
                ss_x,
                ss_y,
                ss_xy,
                count2,
            } => {
                w.put_u8(1);
                w.put_f64(mean_x);
                w.put_f64(mean_y);
                w.put_f64(ss_x);
                w.put_f64(ss_y);
                w.put_f64(ss_xy);
                w.put_usize(count2);
            }
        }
    }

    /// Decodes the record written by [`encode_into`](Self::encode_into).
    ///
    /// # Errors
    ///
    /// Returns a typed [`rbt_linalg::codec::DecodeError`] for truncation or
    /// an unknown phase tag.
    pub fn decode_from(
        r: &mut rbt_linalg::codec::ByteReader<'_>,
    ) -> rbt_linalg::codec::DecodeResult<Self> {
        let count = r.take_usize()?;
        let tag_offset = r.position();
        let phase = match r.take_u8()? {
            0 => PairPhase::Sums {
                sum_x: r.take_f64()?,
                sum_y: r.take_f64()?,
            },
            1 => PairPhase::Centered {
                mean_x: r.take_f64()?,
                mean_y: r.take_f64()?,
                ss_x: r.take_f64()?,
                ss_y: r.take_f64()?,
                ss_xy: r.take_f64()?,
                count2: r.take_usize()?,
            },
            other => {
                return Err(rbt_linalg::codec::DecodeError::Malformed {
                    offset: tag_offset,
                    message: format!("unknown pair-moments phase tag {other}"),
                })
            }
        };
        Ok(PairMoments { count, phase })
    }
}

/// The *security range* (§4.3, step 2c): the set of rotation angles that
/// satisfy a pairwise-security threshold, as a union of disjoint closed
/// arcs within `[0°, 360°)` — or, for the reflection extension's axis
/// angle, within `[0°, 180°)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SecurityRange {
    /// Disjoint feasible arcs `(start, end)` in degrees, `start <= end`,
    /// sorted ascending. An arc across the seam (360°, or 180° for a
    /// reflection axis) is split into two entries.
    intervals: Vec<(f64, f64)>,
}

impl SecurityRange {
    /// The feasible arcs, in degrees.
    pub fn intervals(&self) -> &[(f64, f64)] {
        &self.intervals
    }

    /// `true` when no angle is feasible.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Total angular measure (degrees) of the feasible set.
    pub fn measure(&self) -> f64 {
        self.intervals.iter().map(|(a, b)| b - a).sum()
    }

    /// `true` when `theta` (degrees, any real value) lies in the range.
    pub fn contains(&self, theta_degrees: f64) -> bool {
        let t = theta_degrees.rem_euclid(360.0);
        self.intervals
            .iter()
            .any(|&(a, b)| t >= a - 1e-12 && t <= b + 1e-12)
    }

    /// Draws an angle uniformly at random from the feasible set (step 2c of
    /// the algorithm: "we randomly select a real number in this range").
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if the range is empty.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<f64> {
        let total = self.measure();
        if self.intervals.is_empty() || total <= 0.0 {
            return Err(Error::InvalidParameter(
                "cannot sample from an empty security range".into(),
            ));
        }
        let mut target = rng.random_range(0.0..total);
        for &(a, b) in &self.intervals {
            let w = b - a;
            if target < w {
                return Ok(a + target);
            }
            target -= w;
        }
        // Floating-point edge: return the end of the last arc.
        Ok(self.intervals.last().expect("non-empty").1)
    }
}

/// Default grid resolution for [`security_range`] (quarter-degree steps
/// before refinement).
pub const DEFAULT_GRID: usize = 1440;

/// Computes the security range of a pair under a threshold.
///
/// # Example
///
/// ```
/// use rbt_core::security::{security_range, PairVarianceProfile,
///                          PairwiseSecurityThreshold, DEFAULT_GRID};
///
/// // Unit-variance, uncorrelated pair: Var(A − A')(θ) = 2(1 − cos θ).
/// let profile = PairVarianceProfile { var_x: 1.0, var_y: 1.0, cov_xy: 0.0 };
/// let pst = PairwiseSecurityThreshold::uniform(2.0).unwrap();
/// let range = security_range(&profile, &pst, DEFAULT_GRID).unwrap();
/// // 2(1 − cos θ) ≥ 2  ⇔  θ ∈ [90°, 270°].
/// let (lo, hi) = range.intervals()[0];
/// assert!((lo - 90.0).abs() < 0.01 && (hi - 270.0).abs() < 0.01);
/// ```
///
/// The feasibility predicate is scanned on a `grid`-point uniform grid over
/// `[0°, 360°)` and every feasible/infeasible boundary is refined by
/// bisection to ~1e-9°. The curves are trigonometric polynomials of degree
/// 2 in θ, so any feasible arc wider than `360/grid` degrees is found; the
/// default grid (0.25°) is far finer than any structure the curves can
/// have.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for `grid < 8`.
pub fn security_range(
    profile: &PairVarianceProfile,
    pst: &PairwiseSecurityThreshold,
    grid: usize,
) -> Result<SecurityRange> {
    scan_arcs(|t| profile.satisfies(t, pst), 360.0, 359.999_999_999, grid)
}

/// The arc scanner of both security-range solvers: the set of angles in
/// `[0, period)` where `feasible` holds, as disjoint closed arcs.
///
/// `feasible` is probed on the `grid`-point uniform grid over the period,
/// the last point at `seam` (just below `period`, where a curve of that
/// period repeats its value at 0), and every flip between neighbouring
/// points is refined by 60 bisection steps. An arc still open at the end
/// closes at `period`.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for `grid < 8`.
pub(crate) fn scan_arcs(
    feasible: impl Fn(f64) -> bool,
    period: f64,
    seam: f64,
    grid: usize,
) -> Result<SecurityRange> {
    if grid < 8 {
        return Err(Error::InvalidParameter(format!(
            "grid must be at least 8, got {grid}"
        )));
    }
    let step = period / grid as f64;

    // Refine a boundary inside (lo, hi) where feasibility flips.
    let refine = |mut lo: f64, mut hi: f64| -> f64 {
        let lo_feasible = feasible(lo);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if feasible(mid) == lo_feasible {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    };

    let mut intervals: Vec<(f64, f64)> = Vec::new();
    let mut prev_t = 0.0;
    let mut prev_feasible = feasible(0.0);
    let mut current_start = prev_feasible.then_some(0.0);
    for k in 1..=grid {
        let t = if k == grid { period } else { k as f64 * step };
        let f = feasible(t.min(seam));
        if f != prev_feasible {
            let boundary = refine(prev_t, t);
            if f {
                current_start = Some(boundary);
            } else if let Some(start) = current_start.take() {
                intervals.push((start, boundary));
            }
        }
        prev_t = t;
        prev_feasible = f;
    }
    if let Some(start) = current_start.take() {
        intervals.push((start, period));
    }
    // An arc across the seam stays split in two: [0, x] and [y, period].
    Ok(SecurityRange { intervals })
}

/// Steps 2c–2d for the pair `(i, j)`: solves the security range, draws θ
/// uniformly from it, and returns the step with the variances θ achieves.
///
/// This is the one angle draw of the release: the pooled
/// [`crate::RbtTransformer`] and the federated coordinator both call it
/// once per pair, in pairing order, so the same profile and RNG state give
/// the same key bits on either path.
///
/// # Errors
///
/// * [`Error::EmptySecurityRange`] when no angle meets `pst` (it reports
///   the maximum achievable variances so the administrator can pick a
///   feasible threshold),
/// * [`Error::InvalidParameter`] for `grid < 8`.
pub fn draw_rotation<R: Rng + ?Sized>(
    (i, j): (usize, usize),
    profile: &PairVarianceProfile,
    pst: &PairwiseSecurityThreshold,
    grid: usize,
    rng: &mut R,
) -> Result<RotationStep> {
    let range = security_range(profile, pst, grid)?;
    if range.is_empty() {
        let (max_var1, max_var2) = max_achievable(profile, grid);
        return Err(Error::EmptySecurityRange {
            i,
            j,
            rho1: pst.rho1,
            rho2: pst.rho2,
            max_var1,
            max_var2,
        });
    }
    let theta = range.sample(rng)?;
    Ok(RotationStep {
        i,
        j,
        theta_degrees: theta,
        achieved_var1: profile.var_diff_first(theta),
        achieved_var2: profile.var_diff_second(theta),
    })
}

/// Maximum achievable `(Var(X−X'), Var(Y−Y'))` over all angles — used for
/// the diagnostics in [`Error::EmptySecurityRange`].
pub fn max_achievable(profile: &PairVarianceProfile, grid: usize) -> (f64, f64) {
    let grid = grid.max(8);
    let mut best = (0.0f64, 0.0f64);
    for k in 0..grid {
        let t = 360.0 * k as f64 / grid as f64;
        best.0 = best.0.max(profile.var_diff_first(t));
        best.1 = best.1.max(profile.var_diff_second(t));
    }
    best
}

/// Per-attribute **end-to-end** security levels
/// `Sec_j = Var(Xj − Xj') / Var(Xj)` between the normalized input and the
/// final release.
///
/// This exposes a subtlety the paper does not discuss: the PST is enforced
/// **per rotation step**, but an attribute that is re-rotated by a later
/// pair (the odd-`n` chaining rule, or any explicit re-use) can end up
/// with an end-to-end displacement *below* the per-step thresholds — the
/// second rotation may partially undo the first. Administrators should
/// audit releases with this function, not only with the per-step values
/// recorded in the key.
///
/// # Errors
///
/// Propagates [`rbt_linalg::Error`] for shape mismatches and
/// [`Error::InvalidParameter`] for constant attributes.
pub fn end_to_end_security(
    normalized: &rbt_linalg::Matrix,
    transformed: &rbt_linalg::Matrix,
    mode: VarianceMode,
) -> Result<Vec<f64>> {
    if normalized.shape() != transformed.shape() {
        return Err(Error::InvalidParameter(format!(
            "shape mismatch: {:?} vs {:?}",
            normalized.shape(),
            transformed.shape()
        )));
    }
    (0..normalized.cols())
        .map(|j| security_level(&normalized.column(j), &transformed.column(j), mode))
        .collect()
}

/// The traditional scale-invariant security level of the statistical-DB
/// literature the paper adopts (§4.2): `Sec = Var(X − Y) / Var(X)` where
/// `X` is the original attribute and `Y` its perturbed version.
///
/// # Errors
///
/// Propagates [`rbt_linalg::Error`] for empty/mismatched input, and returns
/// [`Error::InvalidParameter`] when `Var(X) = 0`.
pub fn security_level(original: &[f64], perturbed: &[f64], mode: VarianceMode) -> Result<f64> {
    let vx = stats::variance(original, mode)?;
    if vx == 0.0 {
        return Err(Error::InvalidParameter(
            "security level undefined for a constant attribute".into(),
        ));
    }
    let vd = stats::variance_of_difference(original, perturbed, mode)?;
    Ok(vd / vx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    /// Profile of the paper's first pair (age, heart_rate) from the exact
    /// z-scores (sample divisor) of Table 1.
    fn paper_pair1_profile() -> PairVarianceProfile {
        paper::pair1_profile()
    }

    #[test]
    fn pst_validation() {
        assert!(PairwiseSecurityThreshold::new(0.3, 0.55).is_ok());
        assert!(PairwiseSecurityThreshold::new(0.0, 1.0).is_err());
        assert!(PairwiseSecurityThreshold::new(1.0, -0.1).is_err());
        assert!(PairwiseSecurityThreshold::new(f64::NAN, 1.0).is_err());
        assert!(PairwiseSecurityThreshold::uniform(2.3).is_ok());
    }

    #[test]
    fn variance_curves_are_zero_at_zero_rotation() {
        let p = paper_pair1_profile();
        assert!(p.var_diff_first(0.0).abs() < 1e-12);
        assert!(p.var_diff_second(0.0).abs() < 1e-12);
        assert!(p.var_diff_first(360.0).abs() < 1e-10);
    }

    #[test]
    fn closed_form_matches_empirical_rotation() {
        // Validate the closed form against actually rotating the columns.
        let x = [1.2, -0.7, 0.3, 2.2, -1.5];
        let y = [0.4, 1.1, -0.9, 0.0, 0.5];
        let mode = VarianceMode::Sample;
        let p = PairVarianceProfile::from_columns(&x, &y, mode).unwrap();
        for theta in [10.0, 77.3, 147.29, 201.0, 312.47] {
            let rot = rbt_linalg::Rotation2::from_degrees(theta);
            let mut xr = x.to_vec();
            let mut yr = y.to_vec();
            rot.apply_columns(&mut xr, &mut yr).unwrap();
            let v1 = stats::variance_of_difference(&x, &xr, mode).unwrap();
            let v2 = stats::variance_of_difference(&y, &yr, mode).unwrap();
            assert!(
                (v1 - p.var_diff_first(theta)).abs() < 1e-10,
                "first curve at {theta}"
            );
            assert!(
                (v2 - p.var_diff_second(theta)).abs() < 1e-10,
                "second curve at {theta}"
            );
        }
    }

    #[test]
    fn paper_figure2_security_range_endpoints() {
        // Figure 2: the paper prints [48.03°, 314.97°] for PST1 = (0.30,
        // 0.55). The upper endpoint reproduces exactly (it is where
        // Var(age−age') = 0.30). The paper's lower endpoint is an erratum —
        // at 48.03° its own second constraint is violated
        // (Var(hr−hr') ≈ 0.32 < 0.55); the true joint boundary is 82.69°,
        // where Var(hr−hr') rises through 0.55. See paper::FIGURE2_RANGE.
        let p = paper_pair1_profile();
        let pst = PairwiseSecurityThreshold::new(0.30, 0.55).unwrap();
        let range = security_range(&p, &pst, DEFAULT_GRID).unwrap();
        assert_eq!(range.intervals().len(), 1, "{:?}", range.intervals());
        let (lo, hi) = range.intervals()[0];
        assert!((hi - paper::FIGURE2_RANGE.1).abs() < 0.05, "hi = {hi}");
        assert!(
            (lo - paper::FIGURE2_RANGE_MEASURED.0).abs() < 0.05,
            "lo = {lo}"
        );
        // Demonstrate the erratum: the paper's lower endpoint fails its own
        // threshold, while our boundary satisfies it.
        assert!(p.var_diff_second(paper::FIGURE2_RANGE.0) < 0.55);
        assert!(p.var_diff_second(lo + 1e-6) >= 0.55 - 1e-9);
        // The paper's chosen angle lies inside both versions of the range.
        assert!(range.contains(paper::THETA1_DEGREES));
    }

    #[test]
    #[allow(clippy::approx_constant)] // 0.318 is the paper's printed value, not 1/pi
    fn paper_achieved_variances_at_chosen_angle() {
        // §5.1: at θ = 312.47°, Var(age−age') = 0.318 and
        // Var(hr−hr') = 0.9805.
        // (The paper prints 0.318 — three decimals; the exact value is
        // 0.31872, so the comparison tolerance is 1e-3.)
        let p = paper_pair1_profile();
        assert!((p.var_diff_first(paper::THETA1_DEGREES) - 0.318).abs() < 1e-3);
        assert!((p.var_diff_second(paper::THETA1_DEGREES) - 0.9805).abs() < 5e-4);
    }

    #[test]
    fn paper_figure3_security_range_endpoints() {
        // Figure 3: feasible range [118.74°, 258.70°] for ρ1 = ρ2 = 2.30 on
        // the chained pair (weight, age').
        let p = paper::pair2_profile();
        let pst = PairwiseSecurityThreshold::uniform(2.30).unwrap();
        let range = security_range(&p, &pst, DEFAULT_GRID).unwrap();
        assert_eq!(range.intervals().len(), 1, "{:?}", range.intervals());
        let (lo, hi) = range.intervals()[0];
        assert!((lo - 118.74).abs() < 0.05, "lo = {lo}");
        assert!((hi - 258.70).abs() < 0.05, "hi = {hi}");
    }

    #[test]
    fn paper_pair2_achieved_variances() {
        // §5.1: at θ = 147.29°, Var(weight−weight') = 2.9714 and
        // Var(age−age') = 6.9274 (the already-rotated age column).
        let p = paper::pair2_profile();
        assert!((p.var_diff_first(paper::THETA2_DEGREES) - 2.9714).abs() < 1e-3);
        assert!((p.var_diff_second(paper::THETA2_DEGREES) - 6.9274).abs() < 1e-3);
    }

    #[test]
    fn sampled_angles_satisfy_threshold() {
        let p = paper_pair1_profile();
        let pst = PairwiseSecurityThreshold::new(0.30, 0.55).unwrap();
        let range = security_range(&p, &pst, DEFAULT_GRID).unwrap();
        let mut r = rng(17);
        for _ in 0..500 {
            let theta = range.sample(&mut r).unwrap();
            assert!(range.contains(theta));
            assert!(
                p.satisfies(theta, &pst),
                "sampled {theta} violates the threshold"
            );
        }
    }

    #[test]
    fn unsatisfiable_threshold_gives_empty_range() {
        let p = paper_pair1_profile();
        let pst = PairwiseSecurityThreshold::uniform(100.0).unwrap();
        let range = security_range(&p, &pst, DEFAULT_GRID).unwrap();
        assert!(range.is_empty());
        assert_eq!(range.measure(), 0.0);
        assert!(range.sample(&mut rng(0)).is_err());
        let (m1, m2) = max_achievable(&p, DEFAULT_GRID);
        assert!(m1 < 100.0 && m2 < 100.0);
    }

    #[test]
    fn tiny_threshold_gives_near_full_circle() {
        let p = paper_pair1_profile();
        let pst = PairwiseSecurityThreshold::uniform(1e-9).unwrap();
        let range = security_range(&p, &pst, DEFAULT_GRID).unwrap();
        // Everything except a sliver around 0°/360° is feasible.
        assert!(range.measure() > 359.0, "measure {}", range.measure());
    }

    #[test]
    fn lower_threshold_gives_broader_range() {
        // §5.2: "the lower the pairwise-security threshold … the broader the
        // security range".
        let p = paper_pair1_profile();
        let narrow = security_range(
            &p,
            &PairwiseSecurityThreshold::uniform(1.0).unwrap(),
            DEFAULT_GRID,
        )
        .unwrap();
        let broad = security_range(
            &p,
            &PairwiseSecurityThreshold::uniform(0.1).unwrap(),
            DEFAULT_GRID,
        )
        .unwrap();
        assert!(broad.measure() > narrow.measure());
    }

    #[test]
    fn contains_handles_wraparound_angles() {
        let p = paper_pair1_profile();
        let pst = PairwiseSecurityThreshold::new(0.30, 0.55).unwrap();
        let range = security_range(&p, &pst, DEFAULT_GRID).unwrap();
        assert!(range.contains(180.0));
        assert!(range.contains(180.0 + 360.0));
        assert!(range.contains(180.0 - 360.0));
        assert!(!range.contains(0.0));
    }

    #[test]
    fn solver_rejects_tiny_grid() {
        let p = paper_pair1_profile();
        let pst = PairwiseSecurityThreshold::uniform(0.1).unwrap();
        assert!(security_range(&p, &pst, 4).is_err());
    }

    #[test]
    fn curves_series_shape() {
        let p = paper_pair1_profile();
        let series = p.variance_curves(361);
        assert_eq!(series.len(), 361);
        assert_eq!(series[0].0, 0.0);
        assert_eq!(series[360].0, 360.0);
        // Peak of Var(X−X') for unit-variance anticorrelated data is > 2.
        let peak = series.iter().map(|s| s.1).fold(0.0, f64::max);
        assert!(peak > 2.0);
    }

    #[test]
    fn chained_rotations_can_undercut_per_step_thresholds() {
        // The phenomenon end_to_end_security exists to catch: rotate
        // (age, hr), then re-rotate age in pair (weight, age) with an angle
        // chosen so the composition nearly restores age. Each step meets a
        // healthy per-step variance, yet age's end-to-end Sec is tiny.
        use rbt_linalg::Rotation2;
        let z = crate::paper::normalized_exact();
        let mut m = z.clone();
        // Step 1: rotate (age, hr) by 187.5°.
        let mut xs = m.column(0);
        let mut ys = m.column(2);
        Rotation2::from_degrees(187.5)
            .apply_columns(&mut xs, &mut ys)
            .unwrap();
        m.set_column(0, &xs).unwrap();
        m.set_column(2, &ys).unwrap();
        // Step 2: rotate (weight, age) by ~189.2° — the CLI demo's actual
        // draw, which happens to move age back near its start.
        let mut ws = m.column(1);
        let mut age = m.column(0);
        Rotation2::from_degrees(189.17)
            .apply_columns(&mut ws, &mut age)
            .unwrap();
        m.set_column(1, &ws).unwrap();
        m.set_column(0, &age).unwrap();

        let secs = end_to_end_security(&z, &m, VarianceMode::Sample).unwrap();
        // weight and heart_rate keep strong end-to-end displacement…
        assert!(secs[1] > 1.0 && secs[2] > 1.0, "{secs:?}");
        // …but the doubly-rotated age collapses below any per-step rho.
        assert!(secs[0] < 0.15, "{secs:?}");
    }

    #[test]
    fn end_to_end_security_validates_shapes() {
        let z = crate::paper::normalized_exact();
        let fewer = z.select_columns(&[0, 1]).unwrap();
        assert!(end_to_end_security(&z, &fewer, VarianceMode::Sample).is_err());
        // Identity transform: all-zero security.
        let secs = end_to_end_security(&z, &z, VarianceMode::Sample).unwrap();
        assert!(secs.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn chained_pair_moments_bitwise_match_from_columns() {
        // Long irrational-ish columns so float addition order matters.
        let x: Vec<f64> = (0..97).map(|i| ((i * 3 + 1) as f64).sin() * 1.7).collect();
        let y: Vec<f64> = (0..97).map(|i| ((i * 5 + 2) as f64).cos() - 0.4).collect();
        for mode in [VarianceMode::Sample, VarianceMode::Population] {
            let pooled = PairVarianceProfile::from_columns(&x, &y, mode).unwrap();
            for cuts in [vec![], vec![1], vec![48], vec![13, 14, 96], vec![32, 64]] {
                let mut edges = vec![0usize];
                edges.extend(&cuts);
                edges.push(x.len());
                let mut acc = PairMoments::new();
                for w in edges.windows(2) {
                    acc.fold(&x[w[0]..w[1]], &y[w[0]..w[1]]).unwrap();
                }
                acc.begin_second_pass().unwrap();
                for w in edges.windows(2) {
                    acc.fold(&x[w[0]..w[1]], &y[w[0]..w[1]]).unwrap();
                }
                let merged = acc.finish(mode).unwrap();
                assert_eq!(merged.var_x.to_bits(), pooled.var_x.to_bits(), "{cuts:?}");
                assert_eq!(merged.var_y.to_bits(), pooled.var_y.to_bits(), "{cuts:?}");
                assert_eq!(merged.cov_xy.to_bits(), pooled.cov_xy.to_bits(), "{cuts:?}");
            }
        }
    }

    #[test]
    fn pair_moments_serialization_round_trips_mid_chain() {
        let x = [1.5, -0.3, 2.2, 0.9];
        let y = [0.1, 1.1, -2.0, 0.4];
        let mut acc = PairMoments::new();
        acc.fold(&x[..2], &y[..2]).unwrap();
        let mut w = rbt_linalg::codec::ByteWriter::new();
        acc.encode_into(&mut w);
        let mut r = rbt_linalg::codec::ByteReader::new(w.as_bytes());
        let mut acc2 = PairMoments::decode_from(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(acc, acc2);
        acc2.fold(&x[2..], &y[2..]).unwrap();
        acc2.begin_second_pass().unwrap();
        acc2.fold(&x, &y).unwrap();
        let merged = acc2.finish(VarianceMode::Sample).unwrap();
        let pooled = PairVarianceProfile::from_columns(&x, &y, VarianceMode::Sample).unwrap();
        assert_eq!(merged, pooled);
        // Unknown phase tag is a typed decode error.
        let mut bad = rbt_linalg::codec::ByteWriter::new();
        bad.put_usize(4);
        bad.put_u8(7);
        let mut r = rbt_linalg::codec::ByteReader::new(bad.as_bytes());
        assert!(PairMoments::decode_from(&mut r).is_err());
    }

    #[test]
    fn pair_moments_misuse_is_typed() {
        let mut acc = PairMoments::new();
        // Mismatched lengths and non-finite values are rejected.
        assert!(acc.fold(&[1.0, 2.0], &[1.0]).is_err());
        assert!(acc.fold(&[f64::NAN], &[1.0]).is_err());
        // Cannot finish or restart passes out of order.
        assert!(acc.finish(VarianceMode::Sample).is_err());
        assert!(PairMoments::new().begin_second_pass().is_err()); // zero rows
        acc.fold(&[1.0, 2.0], &[3.0, 4.0]).unwrap();
        acc.begin_second_pass().unwrap();
        assert!(acc.begin_second_pass().is_err());
        // Centred pass must re-fold exactly the pass-1 rows.
        acc.fold(&[1.0], &[3.0]).unwrap();
        assert!(acc.finish(VarianceMode::Sample).is_err());
    }

    #[test]
    fn security_level_known_values() {
        let x = [1.0, 2.0, 3.0, 4.0];
        // Unperturbed: Sec = 0.
        assert_eq!(security_level(&x, &x, VarianceMode::Sample).unwrap(), 0.0);
        // Perturbation = −X (difference 2X): Var(2X)/Var(X) = 4.
        let neg: Vec<f64> = x.iter().map(|v| -v).collect();
        assert!((security_level(&x, &neg, VarianceMode::Sample).unwrap() - 4.0).abs() < 1e-12);
        assert!(security_level(&[1.0, 1.0], &[1.0, 2.0], VarianceMode::Sample).is_err());
    }
}
