//! Attribute normalization — Step 1 of the RBT pipeline (Figure 1).
//!
//! The paper reviews two methods (§3.2): **min–max** (Eq. 3) and **z-score**
//! (Eq. 4), and *requires* normalization before distortion (§4.1): it gives
//! every attribute equal weight and, as §5.3 notes, already obscures the raw
//! scales ("in general public data are not normalized"). Decimal scaling is
//! included for completeness with the data-mining literature the paper cites
//! (Han & Kamber).
//!
//! Fitting and application are separated ([`Normalization::fit`] →
//! [`FittedNormalizer::transform`]) so that the *same* parameters can be
//! applied to held-out data and inverted by the legitimate data owner —
//! and so the attack suite can model an adversary who re-normalizes the
//! released data (§5.2, Table 5).

use crate::{Error, Result};
use rbt_linalg::codec::{ByteReader, ByteWriter, DecodeError, DecodeResult};
#[cfg(test)]
use rbt_linalg::stats;
use rbt_linalg::stats::VarianceMode;
use rbt_linalg::Matrix;

/// A normalization method (unfitted).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Normalization {
    /// Min–max normalization (Eq. 3): maps each attribute linearly onto
    /// `[new_min, new_max]`.
    MinMax {
        /// Lower bound of the target range.
        new_min: f64,
        /// Upper bound of the target range.
        new_max: f64,
    },
    /// Z-score normalization (Eq. 4): `(v − mean) / std`.
    ZScore {
        /// Divisor convention for the standard deviation. The paper's
        /// example numbers use [`VarianceMode::Sample`].
        mode: VarianceMode,
    },
    /// Decimal scaling: divide by the smallest power of ten that brings all
    /// values into `(−1, 1)`.
    DecimalScaling,
    /// Robust z-score: `(v − median) / (1.4826 · MAD)`.
    ///
    /// Extension beyond the paper: §3.2 notes that outliers "dominate the
    /// min-max normalization" and recommends z-scores — but heavy outliers
    /// also inflate the mean/standard deviation. The median/MAD variant
    /// (scaled by 1.4826 to be consistent with the standard deviation under
    /// normality) keeps the bulk of the data on the unit scale regardless
    /// of outliers.
    RobustZScore,
}

impl Normalization {
    /// Min–max onto `[0, 1]`, the range the paper suggests.
    pub fn min_max_unit() -> Self {
        Normalization::MinMax {
            new_min: 0.0,
            new_max: 1.0,
        }
    }

    /// The z-score convention that reproduces the paper's Table 2.
    pub fn zscore_paper() -> Self {
        Normalization::ZScore {
            mode: VarianceMode::Sample,
        }
    }

    /// The stable text tag identifying this method in persisted key files
    /// (`minmax`, `zscore-sample`, `zscore-population`, `decimal`,
    /// `robust`), or `None` for a method without one.
    ///
    /// Min–max target ranges are not part of the tag: the fitted per-column
    /// parameters already carry them.
    pub fn text_tag(&self) -> Option<&'static str> {
        Some(match self {
            Normalization::MinMax { .. } => "minmax",
            Normalization::ZScore {
                mode: VarianceMode::Sample,
            } => "zscore-sample",
            Normalization::ZScore {
                mode: VarianceMode::Population,
            } => "zscore-population",
            Normalization::DecimalScaling => "decimal",
            Normalization::RobustZScore => "robust",
            #[allow(unreachable_patterns)] // future #[non_exhaustive] variants
            _ => return None,
        })
    }

    /// Fits the normalization to the columns of `m`.
    ///
    /// # Errors
    ///
    /// * [`Error::Shape`] for an empty matrix,
    /// * [`Error::InvalidArgument`] for a min–max target with
    ///   `new_min >= new_max`, or for input containing NaN or infinite
    ///   values (no finite column statistics exist for such data).
    pub fn fit(&self, m: &Matrix) -> Result<FittedNormalizer> {
        if m.rows() == 0 || m.cols() == 0 {
            return Err(Error::Shape(
                "cannot fit a normalizer to an empty matrix".into(),
            ));
        }
        if m.has_non_finite() {
            return Err(Error::InvalidArgument(
                "cannot fit a normalizer to NaN or infinite values".into(),
            ));
        }
        if let Normalization::MinMax { new_min, new_max } = self {
            if new_min >= new_max {
                return Err(Error::InvalidArgument(format!(
                    "min-max target range [{new_min}, {new_max}] is empty"
                )));
            }
        }
        let params = match *self {
            Normalization::MinMax { new_min, new_max } => fit_min_max(m, new_min, new_max),
            Normalization::ZScore { mode } => fit_zscore(m, mode),
            Normalization::DecimalScaling => fit_decimal(m),
            Normalization::RobustZScore => fit_robust(m),
        };
        Ok(FittedNormalizer {
            method: *self,
            params,
        })
    }

    /// Fits and immediately transforms `m` (the common pipeline step).
    ///
    /// # Errors
    ///
    /// Same conditions as [`fit`](Self::fit).
    pub fn fit_transform(&self, m: &Matrix) -> Result<(FittedNormalizer, Matrix)> {
        let fitted = self.fit(m)?;
        let out = fitted.transform(m)?;
        Ok((fitted, out))
    }

    /// Begins a **chained partitioned fit**: an accumulator that several
    /// horizontally partitioned holders fold their row blocks into, one
    /// after another, producing a normalizer **bit-identical** to
    /// [`fit`](Self::fit) on the row-wise concatenation of all blocks.
    ///
    /// Every per-column statistic the fitters compute is a plain sequential
    /// left fold over rows (`min`/`max`, `sum`, centred sum of squares), so
    /// carrying the fold state across partition boundaries — in
    /// concatenation order — splits the pooled fold without changing a
    /// single intermediate. This is what lets multiple data owners agree on
    /// a shared normalization without pooling raw rows: only the aggregate
    /// state travels.
    ///
    /// Z-score fits are two-pass (exact means first, then centred sums);
    /// drive the accumulator with
    /// [`PartialFit::needs_second_pass`] / [`PartialFit::begin_second_pass`]
    /// and fold every block again, in the same order, before
    /// [`PartialFit::finish`].
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidArgument`] for [`Normalization::RobustZScore`]
    ///   (median/MAD need the full sorted column — there is no chainable
    ///   sufficient statistic), for a min–max target with
    ///   `new_min >= new_max`, or `n_cols == 0`.
    pub fn begin_partial_fit(&self, n_cols: usize) -> Result<PartialFit> {
        if n_cols == 0 {
            return Err(Error::InvalidArgument(
                "cannot fit a normalizer for zero columns".into(),
            ));
        }
        let state = match *self {
            Normalization::MinMax { new_min, new_max } => {
                if new_min >= new_max {
                    return Err(Error::InvalidArgument(format!(
                        "min-max target range [{new_min}, {new_max}] is empty"
                    )));
                }
                PartialState::MinMax {
                    lo: vec![f64::INFINITY; n_cols],
                    hi: vec![f64::NEG_INFINITY; n_cols],
                }
            }
            Normalization::ZScore { .. } => PartialState::ZScoreSums {
                sums: vec![0.0; n_cols],
            },
            Normalization::DecimalScaling => PartialState::Decimal {
                max_abs: vec![0.0; n_cols],
            },
            Normalization::RobustZScore => {
                return Err(Error::InvalidArgument(
                    "robust z-score needs full sorted columns and cannot be \
                     fitted from chained partition statistics"
                        .into(),
                ))
            }
        };
        Ok(PartialFit {
            method: *self,
            state,
            rows: 0,
            rows_pass2: 0,
        })
    }
}

/// Column-chunk width for the streaming fitters below: each pass keeps at
/// most this many per-column accumulators live (a few cache lines) while
/// the matrix itself is read contiguously, row-major — instead of one
/// strided [`Matrix::column_iter`] walk per column, which re-streams the
/// whole matrix `cols` times.
///
/// Each column's elements are still folded in ascending-row order with the
/// same expressions as [`rbt_linalg::stats`] (`mean_of` / `variance_of` /
/// `min_max_of`), so the fitted parameters are **bit-identical** to the
/// per-column scan this replaces.
const FIT_CHUNK_COLS: usize = 64;

fn fit_min_max(m: &Matrix, new_min: f64, new_max: f64) -> Vec<ColumnParams> {
    let mut params = Vec::with_capacity(m.cols());
    for chunk in m.column_chunks(FIT_CHUNK_COLS) {
        let mut lo = vec![f64::INFINITY; chunk.width()];
        let mut hi = vec![f64::NEG_INFINITY; chunk.width()];
        for seg in chunk.row_segments() {
            for ((l, h), &x) in lo.iter_mut().zip(hi.iter_mut()).zip(seg) {
                *l = l.min(x);
                *h = h.max(x);
            }
        }
        params.extend(lo.iter().zip(&hi).map(|(&min, &max)| ColumnParams::MinMax {
            min,
            max,
            new_min,
            new_max,
        }));
    }
    params
}

fn fit_zscore(m: &Matrix, mode: VarianceMode) -> Vec<ColumnParams> {
    let n = m.rows();
    let mut params = Vec::with_capacity(m.cols());
    for chunk in m.column_chunks(FIT_CHUNK_COLS) {
        // Two passes, like `stats::variance_of`: sums → means, then the
        // squared deviations against the exact means.
        let mut sums = vec![0.0f64; chunk.width()];
        for seg in chunk.row_segments() {
            for (s, &x) in sums.iter_mut().zip(seg) {
                *s += x;
            }
        }
        let means: Vec<f64> = sums.iter().map(|s| s / n as f64).collect();
        let mut ss = vec![0.0f64; chunk.width()];
        for seg in chunk.row_segments() {
            for ((q, &mean), &x) in ss.iter_mut().zip(&means).zip(seg) {
                *q += (x - mean) * (x - mean);
            }
        }
        params.extend(
            means
                .iter()
                .zip(&ss)
                .map(|(&mean, &q)| ColumnParams::ZScore {
                    mean,
                    std: (q / mode.divisor(n)).sqrt(),
                }),
        );
    }
    params
}

fn fit_decimal(m: &Matrix) -> Vec<ColumnParams> {
    let mut params = Vec::with_capacity(m.cols());
    for chunk in m.column_chunks(FIT_CHUNK_COLS) {
        let mut max_abs = vec![0.0f64; chunk.width()];
        for seg in chunk.row_segments() {
            for (a, &x) in max_abs.iter_mut().zip(seg) {
                *a = a.max(x.abs());
            }
        }
        params.extend(max_abs.iter().map(|&ma| {
            let mut factor = 1.0;
            while ma / factor >= 1.0 {
                factor *= 10.0;
            }
            ColumnParams::DecimalScaling { factor }
        }));
    }
    params
}

fn fit_robust(m: &Matrix) -> Vec<ColumnParams> {
    let mut params = Vec::with_capacity(m.cols());
    for chunk in m.column_chunks(FIT_CHUNK_COLS) {
        // The robust fit must sort per column; gather the chunk's columns
        // in one contiguous pass instead of one strided walk per column.
        let mut cols: Vec<Vec<f64>> = vec![Vec::with_capacity(m.rows()); chunk.width()];
        for seg in chunk.row_segments() {
            for (col, &x) in cols.iter_mut().zip(seg) {
                col.push(x);
            }
        }
        for col in &cols {
            let med = median(col);
            let deviations: Vec<f64> = col.iter().map(|x| (x - med).abs()).collect();
            // 1.4826 makes the MAD a consistent sigma estimator under
            // normality.
            let scale = 1.4826 * median(&deviations);
            params.push(ColumnParams::ZScore {
                mean: med,
                std: scale,
            });
        }
    }
    params
}

/// Median of a non-empty slice (average of the two middle order statistics
/// for even lengths).
fn median(xs: &[f64]) -> f64 {
    debug_assert!(!xs.is_empty());
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Per-column fitted parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ColumnParams {
    MinMax {
        min: f64,
        max: f64,
        new_min: f64,
        new_max: f64,
    },
    ZScore {
        mean: f64,
        std: f64,
    },
    DecimalScaling {
        factor: f64,
    },
}

impl ColumnParams {
    #[inline]
    fn apply(&self, v: f64) -> f64 {
        match *self {
            ColumnParams::MinMax {
                min,
                max,
                new_min,
                new_max,
            } => {
                if max == min {
                    // Constant column: map onto the middle of the target range.
                    (new_min + new_max) / 2.0
                } else {
                    (v - min) / (max - min) * (new_max - new_min) + new_min
                }
            }
            ColumnParams::ZScore { mean, std } => {
                if std == 0.0 {
                    0.0
                } else {
                    (v - mean) / std
                }
            }
            ColumnParams::DecimalScaling { factor } => v / factor,
        }
    }

    #[inline]
    fn invert(&self, v: f64) -> f64 {
        match *self {
            ColumnParams::MinMax {
                min,
                max,
                new_min,
                new_max,
            } => {
                if max == min {
                    min
                } else {
                    (v - new_min) / (new_max - new_min) * (max - min) + min
                }
            }
            ColumnParams::ZScore { mean, std } => v * std + mean,
            ColumnParams::DecimalScaling { factor } => v * factor,
        }
    }
}

/// A normalization fitted to a specific matrix's column statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct FittedNormalizer {
    method: Normalization,
    params: Vec<ColumnParams>,
}

impl FittedNormalizer {
    /// The method this normalizer was fitted with.
    pub fn method(&self) -> Normalization {
        self.method
    }

    /// Number of columns the normalizer was fitted to.
    pub fn n_cols(&self) -> usize {
        self.params.len()
    }

    /// Overrides the advisory [`method`](Self::method) tag without touching
    /// the fitted per-column parameters. Codecs that persist the method
    /// separately (the session key-file formats) use this to restore what
    /// [`from_text`](Self::from_text) cannot infer from z-score-shaped
    /// parameters alone (sample vs population vs robust fits).
    pub fn with_method(mut self, method: Normalization) -> Self {
        self.method = method;
        self
    }

    /// Applies the fitted normalization to a matrix with the same column
    /// layout.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFitted`] if the column count differs from the
    /// fitting matrix.
    pub fn transform(&self, m: &Matrix) -> Result<Matrix> {
        self.check_cols(m)?;
        let mut out = m.clone();
        self.transform_rows_in_place(out.as_mut_slice())?;
        Ok(out)
    }

    /// Inverts the normalization (legitimate-owner path).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFitted`] if the column count differs from the
    /// fitting matrix.
    pub fn inverse_transform(&self, m: &Matrix) -> Result<Matrix> {
        self.check_cols(m)?;
        let mut out = m.clone();
        self.invert_rows_in_place(out.as_mut_slice())?;
        Ok(out)
    }

    /// Applies the fitted normalization in place to a row-major slice of
    /// complete rows (`rows.len()` must be a multiple of
    /// [`n_cols`](Self::n_cols)).
    ///
    /// This is the primitive under [`transform`](Self::transform), exposed
    /// so batch processors can normalize disjoint row chunks independently
    /// (the release session fans chunks out over the shared thread pool);
    /// the arithmetic is elementwise per row, so any chunking produces
    /// bit-identical output to the whole-matrix call.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFitted`] if `rows.len()` is not a multiple of
    /// the fitted column count.
    pub fn transform_rows_in_place(&self, rows: &mut [f64]) -> Result<()> {
        self.check_row_slice(rows)?;
        for row in rows.chunks_exact_mut(self.params.len()) {
            for (v, p) in row.iter_mut().zip(&self.params) {
                *v = p.apply(*v);
            }
        }
        Ok(())
    }

    /// Inverts the fitted normalization in place on a row-major slice of
    /// complete rows — the chunked counterpart of
    /// [`inverse_transform`](Self::inverse_transform).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFitted`] if `rows.len()` is not a multiple of
    /// the fitted column count.
    pub fn invert_rows_in_place(&self, rows: &mut [f64]) -> Result<()> {
        self.check_row_slice(rows)?;
        for row in rows.chunks_exact_mut(self.params.len()) {
            for (v, p) in row.iter_mut().zip(&self.params) {
                *v = p.invert(*v);
            }
        }
        Ok(())
    }

    fn check_row_slice(&self, rows: &[f64]) -> Result<()> {
        if self.params.is_empty() || !rows.len().is_multiple_of(self.params.len()) {
            return Err(Error::NotFitted(format!(
                "slice of {} values is not whole rows of {} columns",
                rows.len(),
                self.params.len()
            )));
        }
        Ok(())
    }

    /// Serializes the fitted normalizer into `w` as a compact binary
    /// record: method tag, column count, then one tagged parameter entry
    /// per column with `f64` bit patterns. Unlike
    /// [`to_text`](Self::to_text)/[`from_text`](Self::from_text), this
    /// round-trips the struct **exactly** — including the advisory method
    /// tag and every float bit.
    ///
    /// The record carries no framing; the session key-file envelope adds
    /// magic, version, and checksum around it.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        match self.method {
            Normalization::MinMax { new_min, new_max } => {
                w.put_u8(0);
                w.put_f64(new_min);
                w.put_f64(new_max);
            }
            Normalization::ZScore {
                mode: VarianceMode::Sample,
            } => w.put_u8(1),
            Normalization::ZScore {
                mode: VarianceMode::Population,
            } => w.put_u8(2),
            Normalization::DecimalScaling => w.put_u8(3),
            Normalization::RobustZScore => w.put_u8(4),
        }
        w.put_usize(self.params.len());
        for p in &self.params {
            match *p {
                ColumnParams::MinMax {
                    min,
                    max,
                    new_min,
                    new_max,
                } => {
                    w.put_u8(0);
                    w.put_f64(min);
                    w.put_f64(max);
                    w.put_f64(new_min);
                    w.put_f64(new_max);
                }
                ColumnParams::ZScore { mean, std } => {
                    w.put_u8(1);
                    w.put_f64(mean);
                    w.put_f64(std);
                }
                ColumnParams::DecimalScaling { factor } => {
                    w.put_u8(2);
                    w.put_f64(factor);
                }
            }
        }
    }

    /// Decodes the record written by [`encode_into`](Self::encode_into),
    /// advancing `r` past it.
    ///
    /// # Errors
    ///
    /// Returns a typed [`DecodeError`] (never panics) for truncated input,
    /// unknown method/parameter tags, or a zero column count.
    pub fn decode_from(r: &mut ByteReader<'_>) -> DecodeResult<Self> {
        let tag_offset = r.position();
        let method = match r.take_u8()? {
            0 => Normalization::MinMax {
                new_min: r.take_f64()?,
                new_max: r.take_f64()?,
            },
            1 => Normalization::ZScore {
                mode: VarianceMode::Sample,
            },
            2 => Normalization::ZScore {
                mode: VarianceMode::Population,
            },
            3 => Normalization::DecimalScaling,
            4 => Normalization::RobustZScore,
            other => {
                return Err(DecodeError::Malformed {
                    offset: tag_offset,
                    message: format!("unknown normalization method tag {other}"),
                })
            }
        };
        let cols_offset = r.position();
        let cols = r.take_usize()?;
        if cols == 0 {
            return Err(DecodeError::Malformed {
                offset: cols_offset,
                message: "normalizer with zero columns".into(),
            });
        }
        let mut params = Vec::with_capacity(cols.min(1024));
        for _ in 0..cols {
            let tag_offset = r.position();
            let p = match r.take_u8()? {
                0 => ColumnParams::MinMax {
                    min: r.take_f64()?,
                    max: r.take_f64()?,
                    new_min: r.take_f64()?,
                    new_max: r.take_f64()?,
                },
                1 => ColumnParams::ZScore {
                    mean: r.take_f64()?,
                    std: r.take_f64()?,
                },
                2 => ColumnParams::DecimalScaling {
                    factor: r.take_f64()?,
                },
                other => {
                    return Err(DecodeError::Malformed {
                        offset: tag_offset,
                        message: format!("unknown column parameter tag {other}"),
                    })
                }
            };
            params.push(p);
        }
        Ok(FittedNormalizer { method, params })
    }

    fn check_cols(&self, m: &Matrix) -> Result<()> {
        if m.cols() != self.params.len() {
            return Err(Error::NotFitted(format!(
                "normalizer fitted for {} columns, input has {}",
                self.params.len(),
                m.cols()
            )));
        }
        Ok(())
    }

    /// Serializes the fitted parameters to a stable line-oriented text
    /// format (the owner-side companion of the transformation key):
    ///
    /// ```text
    /// rbt-normalizer v1 cols=3 method=zscore-sample
    /// zscore 4.8599999e1 1.7826945e1
    /// …
    /// ```
    ///
    /// The `method=` field carries the advisory [`method`](Self::method)
    /// tag that z-score-shaped parameters alone cannot distinguish (sample
    /// vs population vs robust fits), so the text form round-trips it just
    /// like the binary codec. Headers written before this field existed
    /// parse fine — see [`from_text`](Self::from_text).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("rbt-normalizer v1 cols={}", self.params.len());
        if let Some(tag) = self.method.text_tag() {
            let _ = write!(out, " method={tag}");
        }
        out.push('\n');
        for p in &self.params {
            match *p {
                ColumnParams::MinMax {
                    min,
                    max,
                    new_min,
                    new_max,
                } => {
                    let _ = writeln!(
                        out,
                        "minmax {min:.17e} {max:.17e} {new_min:.17e} {new_max:.17e}"
                    );
                }
                ColumnParams::ZScore { mean, std } => {
                    let _ = writeln!(out, "zscore {mean:.17e} {std:.17e}");
                }
                ColumnParams::DecimalScaling { factor } => {
                    let _ = writeln!(out, "decimal {factor:.17e}");
                }
            }
        }
        out
    }

    /// Parses the format produced by [`to_text`](Self::to_text).
    ///
    /// Headers carrying a `method=` field restore the advisory
    /// [`method`](Self::method) tag exactly. Headers written before that
    /// field existed (plain `rbt-normalizer v1 cols=N`) still parse; the
    /// reconstructed normalizer then reports
    /// [`Normalization::zscore_paper`] when the parameters are
    /// z-score-shaped (transform/inverse behaviour is fully determined by
    /// the per-column parameters either way).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] for malformed input, including an unknown
    /// `method=` tag.
    pub fn from_text(text: &str) -> Result<Self> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (_, header) = lines.next().ok_or(Error::Parse {
            line: 1,
            message: "empty normalizer".into(),
        })?;
        let bad_header = || Error::Parse {
            line: 1,
            message: format!("bad header {header:?}"),
        };
        let rest = header
            .trim()
            .strip_prefix("rbt-normalizer v1 cols=")
            .ok_or_else(bad_header)?;
        let mut fields = rest.split_whitespace();
        let cols = fields
            .next()
            .and_then(|f| f.parse::<usize>().ok())
            .ok_or_else(bad_header)?;
        let method_tag = match fields.next() {
            None => None,
            Some(f) => Some(f.strip_prefix("method=").ok_or_else(bad_header)?),
        };
        if fields.next().is_some() {
            return Err(bad_header());
        }
        // `cols` is untrusted until the lines are counted: cap the
        // up-front reservation, as `decode_from` does.
        let mut params = Vec::with_capacity(cols.min(1024));
        let mut method = Normalization::zscore_paper();
        for (idx, line) in lines {
            let line_no = idx + 1;
            let parts: Vec<&str> = line.split_whitespace().collect();
            let floats = |want: usize| -> Result<Vec<f64>> {
                if parts.len() != want + 1 {
                    return Err(Error::Parse {
                        line: line_no,
                        message: format!("expected {} fields, found {}", want + 1, parts.len()),
                    });
                }
                parts[1..]
                    .iter()
                    .map(|raw| {
                        raw.parse::<f64>().map_err(|e| Error::Parse {
                            line: line_no,
                            message: format!("bad number {raw:?}: {e}"),
                        })
                    })
                    .collect()
            };
            match parts.first().copied() {
                Some("zscore") => {
                    let f = floats(2)?;
                    params.push(ColumnParams::ZScore {
                        mean: f[0],
                        std: f[1],
                    });
                }
                Some("minmax") => {
                    let f = floats(4)?;
                    method = Normalization::MinMax {
                        new_min: f[2],
                        new_max: f[3],
                    };
                    params.push(ColumnParams::MinMax {
                        min: f[0],
                        max: f[1],
                        new_min: f[2],
                        new_max: f[3],
                    });
                }
                Some("decimal") => {
                    let f = floats(1)?;
                    method = Normalization::DecimalScaling;
                    params.push(ColumnParams::DecimalScaling { factor: f[0] });
                }
                other => {
                    return Err(Error::Parse {
                        line: line_no,
                        message: format!("unknown parameter kind {other:?}"),
                    })
                }
            }
        }
        if params.len() != cols {
            return Err(Error::Parse {
                line: 1,
                message: format!("header declares {cols} columns, found {}", params.len()),
            });
        }
        // An explicit header tag overrides the params-derived guess — this
        // is what distinguishes sample/population/robust z-score fits,
        // whose per-column parameters all look alike.
        let method = match method_tag {
            // minmax/decimal params fully determine the method already.
            None | Some("minmax") | Some("decimal") => method,
            Some("zscore-sample") => Normalization::zscore_paper(),
            Some("zscore-population") => Normalization::ZScore {
                mode: VarianceMode::Population,
            },
            Some("robust") => Normalization::RobustZScore,
            Some(other) => {
                return Err(Error::Parse {
                    line: 1,
                    message: format!("unknown method tag {other:?}"),
                })
            }
        };
        Ok(FittedNormalizer { method, params })
    }
}

/// Fold state of a chained partitioned fit — see
/// [`Normalization::begin_partial_fit`].
#[derive(Debug, Clone, PartialEq)]
enum PartialState {
    /// Running per-column minima/maxima (min–max fits, single pass).
    MinMax { lo: Vec<f64>, hi: Vec<f64> },
    /// Pass 1 of a z-score fit: running per-column sums.
    ZScoreSums { sums: Vec<f64> },
    /// Pass 2 of a z-score fit: exact means plus running centred sums of
    /// squares.
    ZScoreCentered { means: Vec<f64>, ss: Vec<f64> },
    /// Running per-column `max |x|` (decimal scaling, single pass).
    Decimal { max_abs: Vec<f64> },
}

/// A chained accumulator for fitting a normalizer over horizontally
/// partitioned data, created by [`Normalization::begin_partial_fit`].
///
/// Fold partitions **in concatenation order**; the finished normalizer is
/// bit-identical to [`Normalization::fit`] on the pooled matrix. The
/// accumulator serializes ([`encode_into`](Self::encode_into) /
/// [`decode_from`](Self::decode_from)) so it can travel between data
/// owners — only aggregate statistics are carried, never rows.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialFit {
    method: Normalization,
    state: PartialState,
    rows: usize,
    rows_pass2: usize,
}

impl PartialFit {
    /// The method this accumulator fits.
    pub fn method(&self) -> Normalization {
        self.method
    }

    /// Number of columns being fitted.
    pub fn n_cols(&self) -> usize {
        match &self.state {
            PartialState::MinMax { lo, .. } => lo.len(),
            PartialState::ZScoreSums { sums } => sums.len(),
            PartialState::ZScoreCentered { means, .. } => means.len(),
            PartialState::Decimal { max_abs } => max_abs.len(),
        }
    }

    /// Rows folded so far (current pass).
    pub fn rows_folded(&self) -> usize {
        if matches!(self.state, PartialState::ZScoreCentered { .. }) {
            self.rows_pass2
        } else {
            self.rows
        }
    }

    /// Folds one partition's rows into the accumulator. The per-column
    /// update expressions and row order match the pooled fitters exactly,
    /// so splitting the fold at any row boundary changes nothing.
    ///
    /// # Errors
    ///
    /// * [`Error::Shape`] if `m.cols()` differs from the fitted width,
    /// * [`Error::InvalidArgument`] for NaN or infinite values.
    pub fn fold(&mut self, m: &Matrix) -> Result<()> {
        if m.cols() != self.n_cols() {
            return Err(Error::Shape(format!(
                "partial fit expects {} columns, partition has {}",
                self.n_cols(),
                m.cols()
            )));
        }
        if m.has_non_finite() {
            return Err(Error::InvalidArgument(
                "cannot fit a normalizer to NaN or infinite values".into(),
            ));
        }
        match &mut self.state {
            PartialState::MinMax { lo, hi } => {
                for row in m.row_iter() {
                    for ((l, h), &x) in lo.iter_mut().zip(hi.iter_mut()).zip(row) {
                        *l = l.min(x);
                        *h = h.max(x);
                    }
                }
                self.rows += m.rows();
            }
            PartialState::ZScoreSums { sums } => {
                for row in m.row_iter() {
                    for (s, &x) in sums.iter_mut().zip(row) {
                        *s += x;
                    }
                }
                self.rows += m.rows();
            }
            PartialState::ZScoreCentered { means, ss } => {
                for row in m.row_iter() {
                    for ((q, &mean), &x) in ss.iter_mut().zip(means.iter()).zip(row) {
                        *q += (x - mean) * (x - mean);
                    }
                }
                self.rows_pass2 += m.rows();
            }
            PartialState::Decimal { max_abs } => {
                for row in m.row_iter() {
                    for (a, &x) in max_abs.iter_mut().zip(row) {
                        *a = a.max(x.abs());
                    }
                }
                self.rows += m.rows();
            }
        }
        Ok(())
    }

    /// `true` while the accumulator still needs another chained pass over
    /// every partition before it can [`finish`](Self::finish) (z-score
    /// fits: the centred pass against the exact pooled means).
    pub fn needs_second_pass(&self) -> bool {
        matches!(self.state, PartialState::ZScoreSums { .. })
    }

    /// Transitions a two-pass fit from the sum pass to the centred pass.
    /// The exact means are fixed here (`sum / n`, the pooled fitters'
    /// expression); fold every partition again, in the same order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] if no second pass is pending or
    /// no rows were folded.
    pub fn begin_second_pass(&mut self) -> Result<()> {
        let PartialState::ZScoreSums { sums } = &self.state else {
            return Err(Error::InvalidArgument(
                "no second pass pending for this accumulator".into(),
            ));
        };
        if self.rows == 0 {
            return Err(Error::InvalidArgument(
                "cannot compute means over zero rows".into(),
            ));
        }
        let n = self.rows as f64;
        let means: Vec<f64> = sums.iter().map(|s| s / n).collect();
        let ss = vec![0.0; means.len()];
        self.state = PartialState::ZScoreCentered { means, ss };
        Ok(())
    }

    /// Finalizes the accumulator into a [`FittedNormalizer`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] if no rows were folded, a second
    /// pass is still pending, or the two passes saw different row counts.
    pub fn finish(self) -> Result<FittedNormalizer> {
        if self.rows == 0 {
            return Err(Error::InvalidArgument(
                "cannot finish a partial fit over zero rows".into(),
            ));
        }
        let params = match self.state {
            PartialState::MinMax { lo, hi } => {
                let Normalization::MinMax { new_min, new_max } = self.method else {
                    return Err(Error::InvalidArgument(
                        "min-max state under a non-min-max method".into(),
                    ));
                };
                lo.iter()
                    .zip(&hi)
                    .map(|(&min, &max)| ColumnParams::MinMax {
                        min,
                        max,
                        new_min,
                        new_max,
                    })
                    .collect()
            }
            PartialState::ZScoreSums { .. } => {
                return Err(Error::InvalidArgument(
                    "z-score fit still needs its centred pass \
                     (begin_second_pass + fold every partition again)"
                        .into(),
                ))
            }
            PartialState::ZScoreCentered { means, ss } => {
                if self.rows_pass2 != self.rows {
                    return Err(Error::InvalidArgument(format!(
                        "centred pass folded {} rows, sum pass folded {}",
                        self.rows_pass2, self.rows
                    )));
                }
                let Normalization::ZScore { mode } = self.method else {
                    return Err(Error::InvalidArgument(
                        "z-score state under a non-z-score method".into(),
                    ));
                };
                means
                    .iter()
                    .zip(&ss)
                    .map(|(&mean, &q)| ColumnParams::ZScore {
                        mean,
                        std: (q / mode.divisor(self.rows)).sqrt(),
                    })
                    .collect()
            }
            PartialState::Decimal { max_abs } => max_abs
                .iter()
                .map(|&ma| {
                    let mut factor = 1.0;
                    while ma / factor >= 1.0 {
                        factor *= 10.0;
                    }
                    ColumnParams::DecimalScaling { factor }
                })
                .collect(),
        };
        Ok(FittedNormalizer {
            method: self.method,
            params,
        })
    }

    /// Serializes the accumulator (method, pass, fold state) so it can be
    /// carried between partition holders. Every float travels as its exact
    /// bit pattern.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        match self.method {
            Normalization::MinMax { new_min, new_max } => {
                w.put_u8(0);
                w.put_f64(new_min);
                w.put_f64(new_max);
            }
            Normalization::ZScore {
                mode: VarianceMode::Sample,
            } => w.put_u8(1),
            Normalization::ZScore {
                mode: VarianceMode::Population,
            } => w.put_u8(2),
            Normalization::DecimalScaling => w.put_u8(3),
            Normalization::RobustZScore => w.put_u8(4),
        }
        w.put_usize(self.rows);
        w.put_usize(self.rows_pass2);
        let put_vec = |w: &mut ByteWriter, v: &[f64]| {
            w.put_usize(v.len());
            for &x in v {
                w.put_f64(x);
            }
        };
        match &self.state {
            PartialState::MinMax { lo, hi } => {
                w.put_u8(0);
                put_vec(w, lo);
                put_vec(w, hi);
            }
            PartialState::ZScoreSums { sums } => {
                w.put_u8(1);
                put_vec(w, sums);
            }
            PartialState::ZScoreCentered { means, ss } => {
                w.put_u8(2);
                put_vec(w, means);
                put_vec(w, ss);
            }
            PartialState::Decimal { max_abs } => {
                w.put_u8(3);
                put_vec(w, max_abs);
            }
        }
    }

    /// Decodes the record written by [`encode_into`](Self::encode_into).
    ///
    /// # Errors
    ///
    /// Returns a typed [`DecodeError`] for truncated input, unknown tags,
    /// zero columns, or state/method disagreement.
    pub fn decode_from(r: &mut ByteReader<'_>) -> DecodeResult<Self> {
        let tag_offset = r.position();
        let method = match r.take_u8()? {
            0 => Normalization::MinMax {
                new_min: r.take_f64()?,
                new_max: r.take_f64()?,
            },
            1 => Normalization::ZScore {
                mode: VarianceMode::Sample,
            },
            2 => Normalization::ZScore {
                mode: VarianceMode::Population,
            },
            3 => Normalization::DecimalScaling,
            other => {
                return Err(DecodeError::Malformed {
                    offset: tag_offset,
                    message: format!("unknown partial-fit method tag {other}"),
                })
            }
        };
        let rows = r.take_usize()?;
        let rows_pass2 = r.take_usize()?;
        fn take_vec(r: &mut ByteReader<'_>) -> DecodeResult<Vec<f64>> {
            let offset = r.position();
            let len = r.take_usize()?;
            if len == 0 {
                return Err(DecodeError::Malformed {
                    offset,
                    message: "partial fit with zero columns".into(),
                });
            }
            let mut v = Vec::with_capacity(len.min(4096));
            for _ in 0..len {
                v.push(r.take_f64()?);
            }
            Ok(v)
        }
        let state_offset = r.position();
        let state = match r.take_u8()? {
            0 => {
                let lo = take_vec(r)?;
                let hi = take_vec(r)?;
                if lo.len() != hi.len() {
                    return Err(DecodeError::Malformed {
                        offset: state_offset,
                        message: "min-max bounds of different widths".into(),
                    });
                }
                PartialState::MinMax { lo, hi }
            }
            1 => PartialState::ZScoreSums { sums: take_vec(r)? },
            2 => {
                let means = take_vec(r)?;
                let ss = take_vec(r)?;
                if means.len() != ss.len() {
                    return Err(DecodeError::Malformed {
                        offset: state_offset,
                        message: "centred state of different widths".into(),
                    });
                }
                PartialState::ZScoreCentered { means, ss }
            }
            3 => PartialState::Decimal {
                max_abs: take_vec(r)?,
            },
            other => {
                return Err(DecodeError::Malformed {
                    offset: state_offset,
                    message: format!("unknown partial-fit state tag {other}"),
                })
            }
        };
        let consistent = matches!(
            (&method, &state),
            (Normalization::MinMax { .. }, PartialState::MinMax { .. })
                | (
                    Normalization::ZScore { .. },
                    PartialState::ZScoreSums { .. } | PartialState::ZScoreCentered { .. }
                )
                | (Normalization::DecimalScaling, PartialState::Decimal { .. })
        );
        if !consistent {
            return Err(DecodeError::Malformed {
                offset: state_offset,
                message: "partial-fit state disagrees with its method".into(),
            });
        }
        Ok(PartialFit {
            method,
            state,
            rows,
            rows_pass2,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;

    #[test]
    fn zscore_reproduces_paper_table2() {
        // Table 1 → Table 2 with the sample (1/(N−1)) divisor.
        let raw = datasets::arrhythmia_sample();
        let (_, z) = Normalization::zscore_paper()
            .fit_transform(raw.matrix())
            .unwrap();
        let expected = datasets::arrhythmia_normalized_table2();
        assert!(
            z.approx_eq(expected.matrix(), 5e-5),
            "max diff {:?}",
            z.max_abs_diff(expected.matrix())
        );
    }

    #[test]
    fn zscore_population_differs_from_sample() {
        let raw = datasets::arrhythmia_sample();
        let (_, zs) = Normalization::ZScore {
            mode: VarianceMode::Sample,
        }
        .fit_transform(raw.matrix())
        .unwrap();
        let (_, zp) = Normalization::ZScore {
            mode: VarianceMode::Population,
        }
        .fit_transform(raw.matrix())
        .unwrap();
        assert!(zs.max_abs_diff(&zp).unwrap() > 0.1);
    }

    #[test]
    fn zscore_gives_zero_mean_unit_variance() {
        let raw = datasets::arrhythmia_sample();
        let (_, z) = Normalization::zscore_paper()
            .fit_transform(raw.matrix())
            .unwrap();
        for j in 0..z.cols() {
            let col = z.column(j);
            assert!(stats::mean(&col).unwrap().abs() < 1e-12);
            assert!((stats::variance(&col, VarianceMode::Sample).unwrap() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn min_max_maps_onto_target_range() {
        let m = Matrix::from_columns(&[&[10.0, 20.0, 30.0], &[-1.0, 0.0, 3.0]]).unwrap();
        let (_, t) = Normalization::min_max_unit().fit_transform(&m).unwrap();
        for j in 0..2 {
            let col = t.column(j);
            let (lo, hi) = stats::min_max(&col).unwrap();
            assert!((lo - 0.0).abs() < 1e-12 && (hi - 1.0).abs() < 1e-12);
        }
        // Custom range.
        let (_, t2) = (Normalization::MinMax {
            new_min: -2.0,
            new_max: 2.0,
        })
        .fit_transform(&m)
        .unwrap();
        let (lo, hi) = stats::min_max(&t2.column(0)).unwrap();
        assert!((lo + 2.0).abs() < 1e-12 && (hi - 2.0).abs() < 1e-12);
    }

    #[test]
    fn min_max_rejects_empty_range() {
        let m = Matrix::zeros(2, 1);
        assert!(matches!(
            (Normalization::MinMax {
                new_min: 1.0,
                new_max: 1.0
            })
            .fit(&m),
            Err(Error::InvalidArgument(_))
        ));
    }

    #[test]
    fn decimal_scaling_bounds() {
        let m = Matrix::from_columns(&[&[987.0, -123.0, 4.0]]).unwrap();
        let (_, t) = Normalization::DecimalScaling.fit_transform(&m).unwrap();
        for &v in t.as_slice() {
            assert!(v.abs() < 1.0);
        }
        assert!((t[(0, 0)] - 0.987).abs() < 1e-12);
    }

    #[test]
    fn inverse_round_trips() {
        let raw = datasets::arrhythmia_sample();
        for method in [
            Normalization::zscore_paper(),
            Normalization::min_max_unit(),
            Normalization::DecimalScaling,
            Normalization::ZScore {
                mode: VarianceMode::Population,
            },
        ] {
            let (fitted, t) = method.fit_transform(raw.matrix()).unwrap();
            let back = fitted.inverse_transform(&t).unwrap();
            assert!(
                back.approx_eq(raw.matrix(), 1e-9),
                "round trip failed for {method:?}"
            );
        }
    }

    #[test]
    fn constant_column_handled() {
        let m = Matrix::from_columns(&[&[5.0, 5.0, 5.0], &[1.0, 2.0, 3.0]]).unwrap();
        let (_, z) = Normalization::zscore_paper().fit_transform(&m).unwrap();
        assert_eq!(z.column(0), vec![0.0, 0.0, 0.0]);
        let (_, mm) = Normalization::min_max_unit().fit_transform(&m).unwrap();
        assert_eq!(mm.column(0), vec![0.5, 0.5, 0.5]);
    }

    #[test]
    fn robust_zscore_shrugs_off_outliers() {
        // Identical bulk, one catastrophic outlier appended.
        let clean: Vec<f64> = (0..50).map(|i| 10.0 + 0.1 * i as f64).collect();
        let mut dirty = clean.clone();
        dirty.push(1e6);
        let mc = Matrix::from_columns(&[&clean]).unwrap();
        let md = Matrix::from_columns(&[&dirty]).unwrap();
        let (_, zc) = Normalization::RobustZScore.fit_transform(&mc).unwrap();
        let (_, zd) = Normalization::RobustZScore.fit_transform(&md).unwrap();
        // The bulk's normalized values barely move despite the outlier
        // (the small residual shift comes from the even→odd median change).
        for i in 0..50 {
            assert!((zc[(i, 0)] - zd[(i, 0)]).abs() < 0.1, "row {i}");
        }
        // … whereas the classic z-score collapses the bulk to ~one point.
        let (_, sc) = Normalization::zscore_paper().fit_transform(&mc).unwrap();
        let (_, sd) = Normalization::zscore_paper().fit_transform(&md).unwrap();
        let classic_shift = (0..50)
            .map(|i| (sc[(i, 0)] - sd[(i, 0)]).abs())
            .fold(0.0, f64::max);
        assert!(classic_shift > 0.5, "classic shift {classic_shift}");
    }

    #[test]
    fn robust_zscore_round_trips() {
        let m = Matrix::from_columns(&[&[3.0, 7.0, -2.0, 100.0, 5.0]]).unwrap();
        let (fitted, t) = Normalization::RobustZScore.fit_transform(&m).unwrap();
        let back = fitted.inverse_transform(&t).unwrap();
        assert!(back.approx_eq(&m, 1e-9));
        // Median maps to zero.
        assert!((t[(4, 0)] - 0.0).abs() < 1e-12); // 5.0 is the median
    }

    #[test]
    fn robust_zscore_constant_column() {
        let m = Matrix::from_columns(&[&[2.0, 2.0, 2.0]]).unwrap();
        let (_, t) = Normalization::RobustZScore.fit_transform(&m).unwrap();
        assert_eq!(t.column(0), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn transform_checks_column_count() {
        let m = Matrix::zeros(3, 2);
        let fitted = Normalization::min_max_unit()
            .fit(&Matrix::from_columns(&[&[1.0, 2.0, 3.0]]).unwrap())
            .unwrap();
        assert!(matches!(fitted.transform(&m), Err(Error::NotFitted(_))));
        assert!(matches!(
            fitted.inverse_transform(&m),
            Err(Error::NotFitted(_))
        ));
    }

    #[test]
    fn normalizer_text_round_trip() {
        let raw = crate::datasets::arrhythmia_sample();
        for method in [
            Normalization::zscore_paper(),
            Normalization::min_max_unit(),
            Normalization::DecimalScaling,
            Normalization::RobustZScore,
        ] {
            let (fitted, t) = method.fit_transform(raw.matrix()).unwrap();
            let text = fitted.to_text();
            assert!(text.starts_with("rbt-normalizer v1 cols=3"));
            let parsed = FittedNormalizer::from_text(&text).unwrap();
            // Parsed normalizer behaves identically.
            let t2 = parsed.transform(raw.matrix()).unwrap();
            assert!(t.approx_eq(&t2, 1e-12), "{method:?}");
            let back = parsed.inverse_transform(&t).unwrap();
            assert!(back.approx_eq(raw.matrix(), 1e-9), "{method:?}");
        }
    }

    #[test]
    fn text_round_trip_preserves_advisory_method_tag() {
        // The binary codec always round-tripped the advisory method; the
        // text form used to lose it for the z-score-shaped fits. The
        // method= header field closes that gap for every shipped method.
        let raw = crate::datasets::arrhythmia_sample();
        for method in [
            Normalization::zscore_paper(),
            Normalization::ZScore {
                mode: VarianceMode::Population,
            },
            Normalization::min_max_unit(),
            Normalization::MinMax {
                new_min: -1.5,
                new_max: 4.25,
            },
            Normalization::DecimalScaling,
            Normalization::RobustZScore,
        ] {
            let (fitted, _) = method.fit_transform(raw.matrix()).unwrap();
            let parsed = FittedNormalizer::from_text(&fitted.to_text()).unwrap();
            assert_eq!(parsed.method(), method, "tag lost in text round trip");
            assert_eq!(parsed, fitted, "params changed in text round trip");
        }
    }

    #[test]
    fn from_text_accepts_pre_method_tag_headers() {
        // Files written before the method= field existed (and the session
        // format's reconstructed headers) must keep parsing.
        let legacy = "rbt-normalizer v1 cols=2\nzscore 1.0 2.0\nzscore 0.5 1.5\n";
        let parsed = FittedNormalizer::from_text(legacy).unwrap();
        assert_eq!(parsed.n_cols(), 2);
        assert_eq!(parsed.method(), Normalization::zscore_paper());
        // Unknown tags and malformed trailing fields are rejected.
        assert!(FittedNormalizer::from_text(
            "rbt-normalizer v1 cols=1 method=wavelet\nzscore 1.0 2.0\n"
        )
        .is_err());
        assert!(FittedNormalizer::from_text(
            "rbt-normalizer v1 cols=1 method=robust junk\nzscore 1.0 2.0\n"
        )
        .is_err());
        assert!(
            FittedNormalizer::from_text("rbt-normalizer v1 cols=1 robust\nzscore 1.0 2.0\n")
                .is_err()
        );
    }

    #[test]
    fn columnar_fit_is_bitwise_identical_to_per_column_scan() {
        // The chunked, row-streaming fitters must reproduce the strided
        // per-column stats walk bit for bit — including across a chunk
        // boundary (cols > FIT_CHUNK_COLS).
        let rows = 7;
        let cols = FIT_CHUNK_COLS * 2 + 3;
        let mut data = Vec::with_capacity(rows * cols);
        let mut x = 0.5f64;
        for _ in 0..rows * cols {
            // Deterministic, well-spread values (logistic map).
            x = 3.99 * x * (1.0 - x);
            data.push(200.0 * x - 100.0);
        }
        let m = Matrix::from_vec(rows, cols, data).unwrap();

        for method in [
            Normalization::zscore_paper(),
            Normalization::ZScore {
                mode: VarianceMode::Population,
            },
            Normalization::MinMax {
                new_min: -1.0,
                new_max: 3.0,
            },
            Normalization::DecimalScaling,
            Normalization::RobustZScore,
        ] {
            let fitted = method.fit(&m).unwrap();
            for j in 0..cols {
                let expected = match method {
                    Normalization::MinMax { new_min, new_max } => {
                        let (min, max) = stats::min_max_of(m.column_iter(j)).unwrap();
                        ColumnParams::MinMax {
                            min,
                            max,
                            new_min,
                            new_max,
                        }
                    }
                    Normalization::ZScore { mode } => ColumnParams::ZScore {
                        mean: stats::mean_of(m.column_iter(j)).unwrap(),
                        std: stats::variance_of(m.column_iter(j), mode).unwrap().sqrt(),
                    },
                    Normalization::DecimalScaling => {
                        let max_abs = m.column_iter(j).fold(0.0f64, |a, v| a.max(v.abs()));
                        let mut factor = 1.0;
                        while max_abs / factor >= 1.0 {
                            factor *= 10.0;
                        }
                        ColumnParams::DecimalScaling { factor }
                    }
                    Normalization::RobustZScore => {
                        let col: Vec<f64> = m.column_iter(j).collect();
                        let med = median(&col);
                        let deviations: Vec<f64> = col.iter().map(|v| (v - med).abs()).collect();
                        ColumnParams::ZScore {
                            mean: med,
                            std: 1.4826 * median(&deviations),
                        }
                    }
                };
                assert_eq!(fitted.params[j], expected, "{method:?} column {j}");
            }
        }
    }

    #[test]
    fn fit_rejects_non_finite_values() {
        // Library error path: NaN/∞ must surface as a typed error, never a
        // panic (the robust fit used to panic in its median sort).
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let m = Matrix::from_columns(&[&[1.0, bad, 3.0]]).unwrap();
            for method in [
                Normalization::zscore_paper(),
                Normalization::min_max_unit(),
                Normalization::DecimalScaling,
                Normalization::RobustZScore,
            ] {
                assert!(
                    matches!(method.fit(&m), Err(Error::InvalidArgument(_))),
                    "{method:?} with {bad}"
                );
            }
        }
    }

    #[test]
    fn normalizer_text_rejects_malformed() {
        assert!(FittedNormalizer::from_text("").is_err());
        assert!(FittedNormalizer::from_text("wrong header").is_err());
        assert!(FittedNormalizer::from_text("rbt-normalizer v1 cols=1\nwiggle 1 2").is_err());
        assert!(FittedNormalizer::from_text("rbt-normalizer v1 cols=1\nzscore 1").is_err());
        assert!(FittedNormalizer::from_text("rbt-normalizer v1 cols=2\nzscore 1 2").is_err());
        assert!(FittedNormalizer::from_text("rbt-normalizer v1 cols=1\nzscore x 2").is_err());
    }

    #[test]
    fn from_text_does_not_trust_the_header_column_count() {
        // A huge declared count must not size an allocation before the
        // parameter lines are counted: both headers get the typed count
        // mismatch, not an allocation abort or a capacity-overflow panic.
        for cols in [4_000_000_000usize, usize::MAX] {
            let text = format!("rbt-normalizer v1 cols={cols}\nzscore 0 1\n");
            match FittedNormalizer::from_text(&text) {
                Err(Error::Parse { line: 1, message }) => {
                    assert_eq!(message, format!("header declares {cols} columns, found 1"))
                }
                other => panic!("cols={cols}: expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn binary_codec_round_trips_exactly() {
        let raw = crate::datasets::arrhythmia_sample();
        for method in [
            Normalization::zscore_paper(),
            Normalization::ZScore {
                mode: VarianceMode::Population,
            },
            Normalization::min_max_unit(),
            Normalization::MinMax {
                new_min: -3.5,
                new_max: 12.25,
            },
            Normalization::DecimalScaling,
            Normalization::RobustZScore,
        ] {
            let (fitted, _) = method.fit_transform(raw.matrix()).unwrap();
            let mut w = ByteWriter::new();
            fitted.encode_into(&mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            let back = FittedNormalizer::decode_from(&mut r).unwrap();
            r.expect_end().unwrap();
            // Struct-exact: the advisory method survives, unlike from_text.
            assert_eq!(back, fitted, "{method:?}");
            assert_eq!(back.method(), method, "{method:?}");
        }
    }

    #[test]
    fn binary_codec_rejects_corruption() {
        let raw = crate::datasets::arrhythmia_sample();
        let (fitted, _) = Normalization::zscore_paper()
            .fit_transform(raw.matrix())
            .unwrap();
        let mut w = ByteWriter::new();
        fitted.encode_into(&mut w);
        let bytes = w.into_bytes();
        // Every truncation point fails with a typed error, no panic.
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(FittedNormalizer::decode_from(&mut r).is_err(), "cut {cut}");
        }
        // Unknown method / parameter tags.
        let mut bad_method = bytes.clone();
        bad_method[0] = 99;
        assert!(matches!(
            FittedNormalizer::decode_from(&mut ByteReader::new(&bad_method)),
            Err(DecodeError::Malformed { offset: 0, .. })
        ));
        let mut bad_param = bytes.clone();
        bad_param[9] = 77; // first column's parameter tag (method u8 + cols u64)
        assert!(matches!(
            FittedNormalizer::decode_from(&mut ByteReader::new(&bad_param)),
            Err(DecodeError::Malformed { offset: 9, .. })
        ));
    }

    #[test]
    fn rows_in_place_matches_matrix_transform() {
        let raw = crate::datasets::arrhythmia_sample();
        let (fitted, t) = Normalization::zscore_paper()
            .fit_transform(raw.matrix())
            .unwrap();
        let mut rows = raw.matrix().as_slice().to_vec();
        fitted.transform_rows_in_place(&mut rows).unwrap();
        assert_eq!(rows, t.as_slice());
        fitted.invert_rows_in_place(&mut rows).unwrap();
        let back = Matrix::from_vec(raw.n_rows(), raw.n_cols(), rows).unwrap();
        assert!(back.approx_eq(raw.matrix(), 1e-9));
        // Ragged slices are rejected.
        let mut ragged = vec![0.0; 4];
        assert!(matches!(
            fitted.transform_rows_in_place(&mut ragged),
            Err(Error::NotFitted(_))
        ));
    }

    #[test]
    fn with_method_overrides_advisory_tag() {
        let m = Matrix::from_columns(&[&[3.0, 7.0, -2.0]]).unwrap();
        let (fitted, t) = Normalization::RobustZScore.fit_transform(&m).unwrap();
        let restored = FittedNormalizer::from_text(&fitted.to_text())
            .unwrap()
            .with_method(Normalization::RobustZScore);
        assert_eq!(restored.method(), Normalization::RobustZScore);
        assert!(restored.transform(&m).unwrap().approx_eq(&t, 0.0));
    }

    #[test]
    fn fit_rejects_empty() {
        assert!(Normalization::zscore_paper()
            .fit(&Matrix::zeros(0, 0))
            .is_err());
    }

    #[test]
    fn applying_to_new_data_uses_fitted_params() {
        let train = Matrix::from_columns(&[&[0.0, 10.0]]).unwrap();
        let fitted = Normalization::min_max_unit().fit(&train).unwrap();
        let test = Matrix::from_columns(&[&[5.0, 20.0]]).unwrap();
        let t = fitted.transform(&test).unwrap();
        // 5 → 0.5 within the fitted [0,10] range; 20 extrapolates to 2.0.
        assert!((t[(0, 0)] - 0.5).abs() < 1e-12);
        assert!((t[(1, 0)] - 2.0).abs() < 1e-12);
    }

    /// A deterministic 101 × 5 matrix with irrational-ish values, large
    /// enough that float addition order matters.
    fn chained_fit_fixture() -> Matrix {
        let mut vals = Vec::with_capacity(101 * 5);
        for i in 0..101 {
            for j in 0..5 {
                let base = (i * 7 + j * 3) % 13;
                vals.push((base as f64 - 6.0) * 0.37 + ((i * 5 + j) as f64).sin());
            }
        }
        Matrix::from_vec(101, 5, vals).unwrap()
    }

    fn row_block(m: &Matrix, lo: usize, hi: usize) -> Matrix {
        let rows: Vec<&[f64]> = (lo..hi).map(|i| m.row(i)).collect();
        Matrix::from_rows(&rows).unwrap()
    }

    /// Runs a chained partial fit over the given row splits and returns the
    /// finished normalizer.
    fn run_chain(method: Normalization, m: &Matrix, cuts: &[usize]) -> FittedNormalizer {
        let blocks: Vec<Matrix> = {
            let mut edges = vec![0];
            edges.extend_from_slice(cuts);
            edges.push(m.rows());
            edges.windows(2).map(|w| row_block(m, w[0], w[1])).collect()
        };
        let mut acc = method.begin_partial_fit(m.cols()).unwrap();
        for b in &blocks {
            acc.fold(b).unwrap();
        }
        if acc.needs_second_pass() {
            acc.begin_second_pass().unwrap();
            for b in &blocks {
                acc.fold(b).unwrap();
            }
        }
        acc.finish().unwrap()
    }

    #[test]
    fn chained_partial_fit_bitwise_matches_pooled_fit() {
        let m = chained_fit_fixture();
        let methods = [
            Normalization::min_max_unit(),
            Normalization::MinMax {
                new_min: -3.0,
                new_max: 2.0,
            },
            Normalization::zscore_paper(),
            Normalization::ZScore {
                mode: VarianceMode::Population,
            },
            Normalization::DecimalScaling,
        ];
        // Partition boundaries everywhere: singleton first block, uneven
        // splits, a split inside every fold position that could matter.
        let splits: &[&[usize]] = &[&[], &[1], &[50], &[1, 2], &[13, 14, 99], &[33, 66]];
        for method in methods {
            let pooled = method.fit(&m).unwrap();
            let mut pooled_bytes = ByteWriter::new();
            pooled.encode_into(&mut pooled_bytes);
            for cuts in splits {
                let chained = run_chain(method, &m, cuts);
                let mut chained_bytes = ByteWriter::new();
                chained.encode_into(&mut chained_bytes);
                // Byte-level equality pins every float bit pattern, not just
                // `==` (which would let -0.0 slip past 0.0).
                assert_eq!(
                    pooled_bytes.as_bytes(),
                    chained_bytes.as_bytes(),
                    "{method:?} with cuts {cuts:?}"
                );
            }
        }
    }

    #[test]
    fn partial_fit_serialization_round_trips_mid_chain() {
        let m = chained_fit_fixture();
        let a = row_block(&m, 0, 40);
        let b = row_block(&m, 40, 101);
        let method = Normalization::zscore_paper();

        let mut acc = method.begin_partial_fit(5).unwrap();
        acc.fold(&a).unwrap();
        // Ship the accumulator to the "next owner" and back, byte-exact.
        let mut w = ByteWriter::new();
        acc.encode_into(&mut w);
        let mut r = ByteReader::new(w.as_bytes());
        let mut acc2 = PartialFit::decode_from(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(acc, acc2);
        acc2.fold(&b).unwrap();
        acc2.begin_second_pass().unwrap();
        acc2.fold(&a).unwrap();
        acc2.fold(&b).unwrap();
        assert_eq!(acc2.finish().unwrap(), method.fit(&m).unwrap());
    }

    #[test]
    fn partial_fit_decode_rejects_malformed() {
        // Unknown method tag.
        let mut r = ByteReader::new(&[9]);
        assert!(PartialFit::decode_from(&mut r).is_err());
        // Method/state disagreement: z-score method with decimal state.
        let mut w = ByteWriter::new();
        w.put_u8(1); // zscore-sample
        w.put_usize(3);
        w.put_usize(0);
        w.put_u8(3); // decimal state
        w.put_usize(1);
        w.put_f64(1.0);
        let mut r = ByteReader::new(w.as_bytes());
        assert!(PartialFit::decode_from(&mut r).is_err());
        // Truncation.
        let mut w = ByteWriter::new();
        Normalization::min_max_unit()
            .begin_partial_fit(2)
            .unwrap()
            .encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..bytes.len() - 3]);
        assert!(PartialFit::decode_from(&mut r).is_err());
    }

    #[test]
    fn partial_fit_misuse_is_typed() {
        let m = chained_fit_fixture();
        // Robust fits have no chainable sufficient statistic.
        assert!(matches!(
            Normalization::RobustZScore.begin_partial_fit(5),
            Err(Error::InvalidArgument(_))
        ));
        assert!(Normalization::min_max_unit().begin_partial_fit(0).is_err());
        assert!(Normalization::MinMax {
            new_min: 1.0,
            new_max: 1.0
        }
        .begin_partial_fit(2)
        .is_err());
        // Width mismatch and non-finite values are rejected at fold time.
        let mut acc = Normalization::zscore_paper().begin_partial_fit(4).unwrap();
        assert!(matches!(acc.fold(&m), Err(Error::Shape(_))));
        let mut acc = Normalization::zscore_paper().begin_partial_fit(1).unwrap();
        let bad = Matrix::from_columns(&[&[1.0, f64::NAN]]).unwrap();
        assert!(matches!(acc.fold(&bad), Err(Error::InvalidArgument(_))));
        // Z-score cannot finish before the centred pass…
        let mut acc = Normalization::zscore_paper().begin_partial_fit(5).unwrap();
        acc.fold(&m).unwrap();
        assert!(acc.clone().finish().is_err());
        // …and the centred pass must re-fold exactly the pass-1 rows.
        acc.begin_second_pass().unwrap();
        acc.fold(&row_block(&m, 0, 50)).unwrap();
        assert!(matches!(acc.finish(), Err(Error::InvalidArgument(_))));
        // Single-pass fits reject a second pass; empty fits reject finish.
        let mut acc = Normalization::min_max_unit().begin_partial_fit(2).unwrap();
        assert!(!acc.needs_second_pass());
        assert!(acc.begin_second_pass().is_err());
        assert!(acc.finish().is_err());
    }
}
