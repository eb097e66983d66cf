//! The benchmark's own arithmetic: nearest-rank percentiles, means, and
//! ratios that carry their base.

use std::fmt;

/// A percentile was asked of an empty sample set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptySamples;

impl fmt::Display for EmptySamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "percentile of an empty sample set")
    }
}

impl std::error::Error for EmptySamples {}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`: the smallest
/// value with at least `p`% of the samples at or below it. Sorts in place.
///
/// # Errors
///
/// [`EmptySamples`] when there is nothing to rank.
pub fn percentile(samples: &mut [f64], p: f64) -> Result<f64, EmptySamples> {
    if samples.is_empty() {
        return Err(EmptySamples);
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    // rank = ceil(p/100 · n), clamped to 1..=n; index = rank − 1.
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Ok(samples[rank.clamp(1, n) - 1])
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Errors
///
/// [`EmptySamples`] when `values` is empty.
pub fn median(values: &[f64]) -> Result<f64, EmptySamples> {
    if values.is_empty() {
        return Err(EmptySamples);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Ok(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Arithmetic mean; 0 for an empty set (used only for additive ladder
/// rungs, whose absence means the rung did no work).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A quotient that remembers what it was divided by, so a report can
/// state every ratio with its base.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// The numerator total.
    pub amount: f64,
    /// The denominator total (rows, requests, sessions, …).
    pub base: f64,
    /// What the base counts, for the report.
    pub base_unit: &'static str,
}

impl Ratio {
    /// `amount` per one `base_unit`, over `base` of them.
    pub fn new(amount: f64, base: f64, base_unit: &'static str) -> Ratio {
        Ratio {
            amount,
            base,
            base_unit,
        }
    }

    /// The quotient; 0 when the base is empty (nothing was measured).
    pub fn value(&self) -> f64 {
        if self.base > 0.0 {
            self.amount / self.base
        } else {
            0.0
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.4} (= {:.1} over {:.0} {})",
            self.value(),
            self.amount,
            self.base,
            self.base_unit
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_of_nothing_is_a_typed_error() {
        let mut none: [f64; 0] = [];
        assert_eq!(percentile(&mut none, 50.0), Err(EmptySamples));
        assert_eq!(percentile(&mut none, 99.0), Err(EmptySamples));
        assert_eq!(median(&[]), Err(EmptySamples));
    }

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        // Wikipedia's nearest-rank example: {15, 20, 35, 40, 50}.
        let mut v = [50.0, 15.0, 40.0, 20.0, 35.0];
        assert_eq!(percentile(&mut v, 5.0), Ok(15.0));
        assert_eq!(percentile(&mut v, 30.0), Ok(20.0));
        assert_eq!(percentile(&mut v, 40.0), Ok(20.0));
        assert_eq!(percentile(&mut v, 50.0), Ok(35.0));
        assert_eq!(percentile(&mut v, 100.0), Ok(50.0));
        // A single sample is every percentile, including tiny ones.
        let mut one = [7.0];
        assert_eq!(percentile(&mut one, 0.1), Ok(7.0));
        assert_eq!(percentile(&mut one, 99.0), Ok(7.0));
    }

    #[test]
    fn p99_needs_a_hundred_samples_to_leave_the_max() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 99.0), Ok(99.0));
        let mut w: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(percentile(&mut w, 99.0), Ok(50.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Ok(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Ok(2.5));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn ratios_carry_their_base() {
        let r = Ratio::new(1500.0, 3.0, "rows");
        assert_eq!(r.value(), 500.0);
        assert_eq!(r.to_string(), "500.0000 (= 1500.0 over 3 rows)");
        // An empty base is "nothing measured", not a division by zero.
        assert_eq!(Ratio::new(5.0, 0.0, "requests").value(), 0.0);
    }
}
