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
//!
//! There is one fit path. Min–max, z-score and decimal scaling fit by
//! folding rows into a [`PartialFit`] ([`Normalization::begin_partial_fit`]):
//! [`Normalization::fit`] folds the whole matrix as one block, and the
//! federated protocol chains the same accumulator through the data owners'
//! partitions, so a pooled fit and a chained one agree bit for bit by
//! construction. Robust z-score has no chainable statistic and sorts each
//! column.
//!
//! A fitted normalizer holds **one parameter kind** in all its columns
//! (min–max, z-score or decimal scaling; the five methods map onto these
//! three), kept as one slice per constant. Every fit produces one kind,
//! and both decoders refuse a column of another kind than the method's
//! (or, for min–max, onto another target range), so
//! [`FittedNormalizer::method`] always describes the columns. One kind is
//! what lets the row kernels ([`FittedNormalizer::transform_and_sweep`],
//! [`FittedNormalizer::sweep_and_invert`] and the `f64` entry points over
//! them) run in SIMD lanes across a row's columns: each lane zips the row
//! with its column's constants, with no per-element branch on the kind.
//! Each kind keeps its per-element expression exactly, so the kernels are
//! bit-identical to it.
//!
//! The release runs through these kernels in one pass over its cells —
//! `f64`s, or a wire frame's little-endian bytes ([`Cell`]): each block of
//! rows is read once, normalized (and drift-checked) in lanes, swept by
//! the key's 2×2 pair steps while it sits in a 4 KiB block on the stack,
//! and written once; the inverse sweeps, then denormalizes. A run of steps
//! on adjacent pairs — a sequential pairing's sweep — is applied in lanes
//! across its pairs.

use crate::{Error, Result};
use rbt_linalg::codec::{ByteReader, ByteWriter, DecodeError, DecodeResult};
use rbt_linalg::matrix::{apply_steps_in_rows, PairStep};
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
    /// `robust`).
    ///
    /// Min–max target ranges are not part of the tag: the fitted per-column
    /// parameters already carry them.
    pub fn text_tag(&self) -> &'static str {
        match self {
            Normalization::MinMax { .. } => "minmax",
            Normalization::ZScore {
                mode: VarianceMode::Sample,
            } => "zscore-sample",
            Normalization::ZScore {
                mode: VarianceMode::Population,
            } => "zscore-population",
            Normalization::DecimalScaling => "decimal",
            Normalization::RobustZScore => "robust",
        }
    }

    /// Appends the method's binary tag: `0` min–max (followed by the
    /// target range as two `f64`s), `1` sample z-score, `2` population
    /// z-score, `3` decimal scaling, `4` robust z-score.
    ///
    /// This is the one encoding of a normalization method: fitted
    /// normalizer records, partial-fit accumulators and the federation's
    /// announced configuration all carry it.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        use VarianceMode::{Population, Sample};
        match *self {
            Normalization::MinMax { new_min, new_max } => {
                w.put_u8(0);
                w.put_f64s(&[new_min, new_max]);
            }
            Normalization::ZScore { mode: Sample } => w.put_u8(1),
            Normalization::ZScore { mode: Population } => w.put_u8(2),
            Normalization::DecimalScaling => w.put_u8(3),
            Normalization::RobustZScore => w.put_u8(4),
        }
    }

    /// Decodes a tag written by [`encode_into`](Self::encode_into),
    /// advancing `r` past it.
    ///
    /// # Errors
    ///
    /// Returns a typed [`DecodeError`] for truncated input or an unknown
    /// tag.
    pub fn decode_from(r: &mut ByteReader<'_>) -> DecodeResult<Self> {
        use VarianceMode::{Population, Sample};
        let tag_offset = r.position();
        Ok(match r.take_u8()? {
            0 => Normalization::MinMax {
                new_min: r.take_f64()?,
                new_max: r.take_f64()?,
            },
            1 => Normalization::ZScore { mode: Sample },
            2 => Normalization::ZScore { mode: Population },
            3 => Normalization::DecimalScaling,
            4 => Normalization::RobustZScore,
            other => {
                return Err(DecodeError::Malformed {
                    offset: tag_offset,
                    message: format!("unknown normalization method tag {other}"),
                })
            }
        })
    }

    /// Fits the normalization to the columns of `m`.
    ///
    /// Min–max, z-score and decimal scaling fold the whole matrix through
    /// the [`begin_partial_fit`](Self::begin_partial_fit) accumulator;
    /// robust z-score sorts each column.
    ///
    /// # Errors
    ///
    /// * [`Error::Shape`] for an empty matrix,
    /// * [`Error::InvalidArgument`] for a min–max target that is not a
    ///   finite range with `new_min < new_max`, or for input containing
    ///   NaN or infinite values (no finite column statistics exist for
    ///   such data).
    pub fn fit(&self, m: &Matrix) -> Result<FittedNormalizer> {
        if m.rows() == 0 || m.cols() == 0 {
            return Err(Error::Shape(
                "cannot fit a normalizer to an empty matrix".into(),
            ));
        }
        if let Normalization::RobustZScore = self {
            check_finite(m)?;
            return Ok(FittedNormalizer {
                method: *self,
                columns: fit_robust(m),
            });
        }
        let mut acc = self.begin_partial_fit(m.cols())?;
        acc.fold(m)?;
        if acc.needs_second_pass() {
            acc.begin_second_pass()?;
            acc.fold(m)?;
        }
        acc.finish()
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
    /// [`fit`](Self::fit) itself is this chain over one block. Every
    /// per-column statistic is a plain sequential left fold over rows
    /// (`min`/`max`, `sum`, centred sum of squares), so carrying the fold
    /// state across partition boundaries — in concatenation order — splits
    /// the pooled fold without changing a single intermediate. This is what
    /// lets multiple data owners agree on a shared normalization without
    /// pooling raw rows: only the aggregate state travels.
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
    ///   sufficient statistic), for a min–max target that is not a finite
    ///   range with `new_min < new_max`, or `n_cols == 0`.
    pub fn begin_partial_fit(&self, n_cols: usize) -> Result<PartialFit> {
        if n_cols == 0 {
            return Err(Error::InvalidArgument(
                "cannot fit a normalizer for zero columns".into(),
            ));
        }
        let state = match *self {
            Normalization::MinMax { new_min, new_max } => {
                // Written so that a NaN bound fails too.
                if !(new_min.is_finite() && new_max.is_finite() && new_min < new_max) {
                    return Err(Error::InvalidArgument(format!(
                        "min-max target range [{new_min}, {new_max}] is empty or not finite"
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

/// Rejects a matrix holding NaN or infinite values.
fn check_finite(m: &Matrix) -> Result<()> {
    if m.has_non_finite() {
        return Err(Error::InvalidArgument(
            "cannot fit a normalizer to NaN or infinite values".into(),
        ));
    }
    Ok(())
}

fn fit_robust(m: &Matrix) -> Columns {
    let mut col = Vec::with_capacity(m.rows());
    let (mean, std) = (0..m.cols())
        .map(|j| {
            m.column_into(j, &mut col);
            let med = median(&col);
            let deviations: Vec<f64> = col.iter().map(|x| (x - med).abs()).collect();
            // 1.4826 makes the MAD a consistent sigma estimator under
            // normality.
            (med, 1.4826 * median(&deviations))
        })
        .unzip();
    Columns::ZScore { mean, std }
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

/// The method a persisted text tag ([`Normalization::text_tag`]) names;
/// `minmax` reads as min–max onto `[0, 1]`, since the tag leaves the
/// target range to the parameter lines.
fn from_text_tag(tag: &str) -> Option<Normalization> {
    [
        Normalization::min_max_unit(),
        Normalization::zscore_paper(),
        Normalization::ZScore {
            mode: VarianceMode::Population,
        },
        Normalization::DecimalScaling,
        Normalization::RobustZScore,
    ]
    .into_iter()
    .find(|m| m.text_tag() == tag)
}

/// One column's fitted parameters: the unit of both codecs, and the
/// per-element reference the row kernels are tested against.
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
    /// The kind's tag in the binary record (`0` min–max, `1` z-score,
    /// `2` decimal scaling).
    fn tag(&self) -> u8 {
        match self {
            ColumnParams::MinMax { .. } => 0,
            ColumnParams::ZScore { .. } => 1,
            ColumnParams::DecimalScaling { .. } => 2,
        }
    }

    #[cfg(test)]
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

    #[cfg(test)]
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

/// Every column's fitted parameters, all of one kind, as one slice per
/// constant. The row kernels zip a row with these slices, so lane `j`
/// reads column `j`'s constants and no lane branches on the kind.
#[derive(Debug, Clone, PartialEq)]
enum Columns {
    MinMax(MinMaxColumns),
    ZScore { mean: Vec<f64>, std: Vec<f64> },
    DecimalScaling { factor: Vec<f64> },
}

/// Min–max columns: the fitted and target ranges, plus the per-column
/// terms of the per-element expressions, computed once here with the same
/// operations those expressions perform.
#[derive(Debug, Clone, PartialEq, Default)]
struct MinMaxColumns {
    min: Vec<f64>,
    max: Vec<f64>,
    new_min: Vec<f64>,
    new_max: Vec<f64>,
    /// `max − min`.
    span: Vec<f64>,
    /// `new_max − new_min`.
    new_span: Vec<f64>,
    /// `(new_min + new_max) / 2`, where a constant column maps.
    mid: Vec<f64>,
}

impl MinMaxColumns {
    fn push(&mut self, min: f64, max: f64, new_min: f64, new_max: f64) {
        self.min.push(min);
        self.max.push(max);
        self.new_min.push(new_min);
        self.new_max.push(new_max);
        self.span.push(max - min);
        self.new_span.push(new_max - new_min);
        self.mid.push((new_min + new_max) / 2.0);
    }
}

impl Columns {
    /// No columns yet, of `first`'s kind.
    fn of_kind(first: &ColumnParams, capacity: usize) -> Self {
        let v = || Vec::with_capacity(capacity);
        match first {
            ColumnParams::MinMax { .. } => Columns::MinMax(MinMaxColumns::default()),
            ColumnParams::ZScore { .. } => Columns::ZScore {
                mean: v(),
                std: v(),
            },
            ColumnParams::DecimalScaling { .. } => Columns::DecimalScaling { factor: v() },
        }
    }

    /// Appends one column of `method`'s normalizer; `false`, appending
    /// nothing, when `p` is not a column `method` fits — another kind than
    /// the columns held or than `method`'s, or a min–max target range other
    /// than `method`'s (compared bit for bit).
    fn push(&mut self, p: ColumnParams, method: &Normalization) -> bool {
        match (self, p, *method) {
            (
                Columns::MinMax(c),
                ColumnParams::MinMax {
                    min,
                    max,
                    new_min,
                    new_max,
                },
                Normalization::MinMax {
                    new_min: lo,
                    new_max: hi,
                },
            ) if (new_min.to_bits(), new_max.to_bits()) == (lo.to_bits(), hi.to_bits()) => {
                c.push(min, max, new_min, new_max)
            }
            (
                Columns::ZScore { mean, std },
                ColumnParams::ZScore { mean: m, std: s },
                Normalization::ZScore { .. } | Normalization::RobustZScore,
            ) => {
                mean.push(m);
                std.push(s);
            }
            (
                Columns::DecimalScaling { factor },
                ColumnParams::DecimalScaling { factor: f },
                Normalization::DecimalScaling,
            ) => factor.push(f),
            _ => return false,
        }
        true
    }

    fn len(&self) -> usize {
        match self {
            Columns::MinMax(c) => c.min.len(),
            Columns::ZScore { mean, .. } => mean.len(),
            Columns::DecimalScaling { factor } => factor.len(),
        }
    }

    /// Column `j`'s parameters.
    fn get(&self, j: usize) -> ColumnParams {
        match self {
            Columns::MinMax(c) => ColumnParams::MinMax {
                min: c.min[j],
                max: c.max[j],
                new_min: c.new_min[j],
                new_max: c.new_max[j],
            },
            Columns::ZScore { mean, std } => ColumnParams::ZScore {
                mean: mean[j],
                std: std[j],
            },
            Columns::DecimalScaling { factor } => {
                ColumnParams::DecimalScaling { factor: factor[j] }
            }
        }
    }

    /// The forward kernel: normalizes each whole row of `rows` in lanes
    /// across its columns, then applies `steps` to it. With `bounds`, also
    /// returns how many rows have a normalized value outside its column's
    /// `[min, max]`.
    #[inline(always)]
    fn forward_rows<C: Cell>(
        &self,
        rows: &mut [C],
        bounds: Option<(&[f64], &[f64])>,
        steps: &[PairStep],
    ) -> usize {
        let n = self.len();
        match self {
            Columns::MinMax(c) => forward_in_lanes(
                rows,
                n,
                bounds,
                steps,
                || {
                    c.min
                        .iter()
                        .zip(&c.max)
                        .zip(c.span.iter().zip(&c.new_span))
                        .zip(c.new_min.iter().zip(&c.mid))
                },
                |v, (((&min, &max), (&span, &new_span)), (&new_min, &mid))| {
                    if max == min {
                        mid
                    } else {
                        (v - min) / span * new_span + new_min
                    }
                },
            ),
            Columns::ZScore { mean, std } => forward_in_lanes(
                rows,
                n,
                bounds,
                steps,
                || mean.iter().zip(std),
                |v, (&mean, &std)| if std == 0.0 { 0.0 } else { (v - mean) / std },
            ),
            Columns::DecimalScaling { factor } => forward_in_lanes(
                rows,
                n,
                bounds,
                steps,
                || factor.iter(),
                |v, &factor| v / factor,
            ),
        }
    }

    /// The inverse kernel: applies `steps` to each whole row of `rows`,
    /// then denormalizes it in lanes across its columns.
    fn invert_rows<C: Cell>(&self, rows: &mut [C], steps: &[PairStep]) {
        let n = self.len();
        match self {
            Columns::MinMax(c) => inverse_in_lanes(
                rows,
                n,
                steps,
                || {
                    c.min
                        .iter()
                        .zip(&c.max)
                        .zip(c.span.iter().zip(&c.new_span))
                        .zip(&c.new_min)
                },
                |v, (((&min, &max), (&span, &new_span)), &new_min)| {
                    if max == min {
                        min
                    } else {
                        (v - new_min) / new_span * span + min
                    }
                },
            ),
            Columns::ZScore { mean, std } => inverse_in_lanes(
                rows,
                n,
                steps,
                || mean.iter().zip(std),
                |v, (&mean, &std)| v * std + mean,
            ),
            Columns::DecimalScaling { factor } => {
                inverse_in_lanes(rows, n, steps, || factor.iter(), |v, &factor| v * factor)
            }
        }
    }
}

/// One cell of a row-major batch the row kernels run over: an `f64`, or
/// the eight little-endian bytes of one, as a wire frame carries it (take
/// them from a byte slice with `as_chunks_mut::<8>`). Either way the
/// kernels read each cell once and write it once.
pub trait Cell: Copy {
    /// The value the cell holds.
    fn get(self) -> f64;
    /// The cell holding `v`.
    fn of(v: f64) -> Self;
}

impl Cell for f64 {
    #[inline(always)]
    fn get(self) -> f64 {
        self
    }

    #[inline(always)]
    fn of(v: f64) -> Self {
        v
    }
}

impl Cell for [u8; 8] {
    #[inline(always)]
    fn get(self) -> f64 {
        f64::from_le_bytes(self)
    }

    #[inline(always)]
    fn of(v: f64) -> Self {
        v.to_le_bytes()
    }
}

/// `f64` values of the stack block the row kernels stage rows in (4 KiB).
const BLOCK_VALUES: usize = 512;

/// Runs `pass` over `rows`, a block of whole `n`-value rows at a time,
/// with an `f64` block of the same length to stage them in: as many rows
/// as fit in a stack block of [`BLOCK_VALUES`], or one row in one heap
/// block per call when a row is wider than that. Returns the sum of what
/// `pass` returned.
#[inline(always)]
fn in_blocks<C: Cell>(
    rows: &mut [C],
    n: usize,
    mut pass: impl FnMut(&mut [C], &mut [f64]) -> usize,
) -> usize {
    let mut stack = [0.0; BLOCK_VALUES];
    let mut heap = Vec::new();
    let block: &mut [f64] = if n <= BLOCK_VALUES {
        &mut stack[..BLOCK_VALUES / n * n]
    } else {
        heap.resize(n, 0.0);
        &mut heap
    };
    rows.chunks_mut(block.len())
        .map(|cells| pass(cells, &mut block[..cells.len()]))
        .sum()
}

/// Pairs the adjacent-pair runs of one sweep apply in lanes at most, all
/// runs together; the steps past them are applied one at a time.
const RUN_PAIRS: usize = 64;

/// A key's sweep as the row kernels apply it to a block of rows.
/// Consecutive steps on adjacent pairs `(q, q+1), (q±2, q±2+1), …` — a
/// sequential pairing's whole sweep, forward or inverse — touch disjoint
/// pairs, so each such run is applied to a row in lanes across its pairs
/// at once, with [`apply_steps_in_rows`]'s expressions; any other step
/// goes through [`apply_steps_in_rows`] itself. Both keep every element's
/// operations and their per-row order. The runs' coefficients are laid out
/// once per call, in lane order.
struct Sweep<'s> {
    steps: &'s [PairStep],
    /// `a`, `b`, `c` and `d` of the runs' pairs, run after run, each run's
    /// in column order.
    coefs: [[f64; RUN_PAIRS]; 4],
}

impl<'s> Sweep<'s> {
    fn new(steps: &'s [PairStep]) -> Self {
        let mut sweep = Sweep {
            steps,
            coefs: [[0.0; RUN_PAIRS]; 4],
        };
        let mut at = 0;
        for (lo, run) in sweep.runs() {
            if let Some(lo) = lo.filter(|_| at + run.len() <= RUN_PAIRS) {
                for st in run {
                    for (coef, m) in sweep.coefs.iter_mut().zip(st.m) {
                        coef[at + (st.i - lo) / 2] = m;
                    }
                }
                at += run.len();
            }
        }
        sweep
    }

    /// The steps in order as runs: `(Some(lo), run)` for two or more
    /// steps on adjacent pairs whose first columns step by +2 or by −2,
    /// the lowest pair starting at column `lo`; `(None, [step])` for any
    /// other step.
    fn runs(&self) -> impl Iterator<Item = (Option<usize>, &'s [PairStep])> {
        let mut rest = self.steps;
        std::iter::from_fn(move || {
            if rest.is_empty() {
                return None;
            }
            let (run, tail) = rest.split_at(adjacent_run(rest));
            rest = tail;
            let lo = run.iter().map(|st| st.i).min().filter(|_| run.len() > 1);
            Some((lo, run))
        })
    }

    /// Applies the sweep to every whole `n`-value row of `block`.
    #[inline(always)]
    fn apply(&self, block: &mut [f64], n: usize) {
        let mut at = 0;
        for (lo, run) in self.runs() {
            let Some(lo) = lo.filter(|_| at + run.len() <= RUN_PAIRS) else {
                apply_steps_in_rows(block, n, run);
                continue;
            };
            let len = run.len();
            let [a, b, c, d] = self.coefs.each_ref().map(|coef| &coef[at..at + len]);
            at += len;
            let lanes = a.iter().zip(b).zip(c.iter().zip(d));
            for row in block.chunks_exact_mut(n) {
                let pairs = row[lo..lo + 2 * len].as_chunks_mut::<2>().0;
                for (pair, ((&a, &b), (&c, &d))) in pairs.iter_mut().zip(lanes.clone()) {
                    let [x, y] = *pair;
                    *pair = [x * a + y * b, x * c + y * d];
                }
            }
        }
    }
}

/// How many leading steps of non-empty `steps` form a run of adjacent
/// pairs whose first columns step by +2 or by −2; 1 when the first step
/// starts none.
fn adjacent_run(steps: &[PairStep]) -> usize {
    let adjacent = |st: &PairStep| st.j == st.i + 1;
    let [first, second, ..] = steps else {
        return steps.len();
    };
    let stride = second.i as isize - first.i as isize;
    if !adjacent(first) || !adjacent(second) || stride.abs() != 2 {
        return 1;
    }
    let mut len = 2;
    while len < steps.len()
        && adjacent(&steps[len])
        && steps[len].i as isize == first.i as isize + stride * len as isize
    {
        len += 1;
    }
    len
}

/// The forward lane loop: each whole `n`-value row of `rows` is read once
/// and zipped with its columns' constants (`columns()` yields column
/// `j`'s for lane `j`), every value becomes `lane(value, constants)` in a
/// block on the stack, with no branch on anything but what `lane` selects
/// per lane, the block's rows get `steps` in order ([`Sweep`]) while in
/// L1, and each row is written once. With `bounds = (mins, maxs)`, each
/// lane also ORs `!(x >= lo && x <= hi)` for its normalized value into the
/// row's drift flag in the same pass (NaN counts as outside, as
/// `DriftBounds::row_in_range` decides), and the count of flagged rows is
/// returned; without, 0.
#[inline(always)]
fn forward_in_lanes<C: Cell, K, I: Iterator<Item = K>>(
    rows: &mut [C],
    n: usize,
    bounds: Option<(&[f64], &[f64])>,
    steps: &[PairStep],
    columns: impl Fn() -> I,
    lane: impl Fn(f64, K) -> f64,
) -> usize {
    let sweep = Sweep::new(steps);
    in_blocks(rows, n, |cells, block| {
        let pairs = cells.chunks_exact(n).zip(block.chunks_exact_mut(n));
        let mut drifted = 0;
        match bounds {
            None => {
                for (src, dst) in pairs {
                    for ((x, v), k) in dst.iter_mut().zip(src).zip(columns()) {
                        *x = lane(v.get(), k);
                    }
                }
            }
            Some((mins, maxs)) => {
                for (src, dst) in pairs {
                    let mut outside = false;
                    let lanes = dst.iter_mut().zip(src).zip(columns());
                    for (((x, v), k), (&lo, &hi)) in lanes.zip(mins.iter().zip(maxs)) {
                        let y = lane(v.get(), k);
                        *x = y;
                        outside |= !(y >= lo && y <= hi);
                    }
                    drifted += usize::from(outside);
                }
            }
        }
        sweep.apply(block, n);
        for (v, &x) in cells.iter_mut().zip(&*block) {
            *v = C::of(x);
        }
        drifted
    })
}

/// The inverse lane loop: each whole `n`-value row of `rows` is read once
/// into a block on the stack, the block's rows get `steps` in order, and
/// each value is written once as `lane(value, constants)`, zipped with
/// its column's constants as in [`forward_in_lanes`].
#[inline(always)]
fn inverse_in_lanes<C: Cell, K, I: Iterator<Item = K>>(
    rows: &mut [C],
    n: usize,
    steps: &[PairStep],
    columns: impl Fn() -> I,
    lane: impl Fn(f64, K) -> f64,
) {
    let sweep = Sweep::new(steps);
    in_blocks(rows, n, |cells, block| {
        for (x, v) in block.iter_mut().zip(&*cells) {
            *x = v.get();
        }
        sweep.apply(block, n);
        for (src, dst) in block.chunks_exact(n).zip(cells.chunks_exact_mut(n)) {
            for ((v, &x), k) in dst.iter_mut().zip(src).zip(columns()) {
                *v = C::of(lane(x, k));
            }
        }
        0
    });
}

/// A normalization fitted to a specific matrix's column statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct FittedNormalizer {
    method: Normalization,
    columns: Columns,
}

impl FittedNormalizer {
    /// The method this normalizer was fitted with.
    pub fn method(&self) -> Normalization {
        self.method
    }

    /// Number of columns the normalizer was fitted to.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
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
        self.transform_and_sweep(out.as_mut_slice(), None, &[])?;
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
        self.sweep_and_invert(out.as_mut_slice(), &[])?;
        Ok(out)
    }

    /// The forward release of whole rows in place, one pass over their
    /// cells: each row of `rows` (row-major, `rows.len()` a multiple of
    /// [`n_cols`](Self::n_cols)) is read once, normalized in SIMD lanes
    /// across its columns, each lane reading its column's constants, with
    /// the per-element expression of the normalizer's one parameter kind:
    ///
    /// * z-score: `std == 0 ? 0 : (v − mean) / std`,
    /// * min–max: `max == min ? (new_min + new_max) / 2 :
    ///   (v − min) / (max − min) · (new_max − new_min) + new_min`,
    /// * decimal scaling: `v / factor`;
    ///
    /// then `steps` (a key's sweep of 2×2 pair steps) are applied to it in
    /// order with [`apply_steps_in_rows`]'s expressions while it sits in a
    /// small block on the stack, and it is written once. The cells are
    /// `f64`s or a frame's little-endian bytes ([`Cell`]); either way each
    /// element goes through the same IEEE operations, so the bits are the
    /// same as normalizing the whole slice and then sweeping it.
    ///
    /// With `bounds = Some((mins, maxs))`, every lane also ORs
    /// `!(x >= lo && x <= hi)` for its normalized value against its
    /// column's bounds into the row's drift flag, and the count of rows
    /// with a value outside its column's range is returned — NaN counting
    /// as outside, exactly as `DriftBounds::row_in_range` decides; without
    /// bounds, 0.
    ///
    /// Each row depends only on itself, so any chunking of a batch (a
    /// release session's batches, a federation owner's partition) produces
    /// bit-identical output to the whole-slice call. Rows of up to
    /// `BLOCK_VALUES` = 512 values are staged on the stack, as many whole
    /// rows at a time as fit in its 4 KiB; a wider row takes one heap block
    /// per call.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFitted`] if `rows.len()` is not a multiple of
    /// the fitted column count, the bounds cover another column count, or
    /// a step's columns are out of range or equal; `rows` is then left
    /// untouched.
    pub fn transform_and_sweep<C: Cell>(
        &self,
        rows: &mut [C],
        bounds: Option<(&[f64], &[f64])>,
        steps: &[PairStep],
    ) -> Result<usize> {
        self.check_kernel_args(rows.len(), steps)?;
        if let Some((mins, maxs)) = bounds {
            if mins.len() != self.n_cols() || maxs.len() != self.n_cols() {
                return Err(Error::NotFitted(format!(
                    "drift bounds cover {} and {} columns, normalizer {}",
                    mins.len(),
                    maxs.len(),
                    self.n_cols()
                )));
            }
        }
        Ok(self.columns.forward_rows(rows, bounds, steps))
    }

    /// The inverse of [`transform_and_sweep`](Self::transform_and_sweep)
    /// in place on whole rows, one pass over their cells: each row is read
    /// once, gets `steps` in order (an inverse sweep), and is denormalized
    /// in lanes as it is written: z-score `v · std + mean`, min–max
    /// `max == min ? min : (v − new_min) / (new_max − new_min) · (max − min)
    /// + min`, decimal scaling `v · factor`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFitted`] if `rows.len()` is not a multiple of
    /// the fitted column count or a step's columns are out of range or
    /// equal; `rows` is then left untouched.
    pub fn sweep_and_invert<C: Cell>(&self, rows: &mut [C], steps: &[PairStep]) -> Result<()> {
        self.check_kernel_args(rows.len(), steps)?;
        self.columns.invert_rows(rows, steps);
        Ok(())
    }

    /// Checks that `len` values are whole rows and every step pairs two
    /// distinct columns of the normalizer's width.
    fn check_kernel_args(&self, len: usize, steps: &[PairStep]) -> Result<()> {
        let n = self.n_cols();
        if n == 0 || !len.is_multiple_of(n) {
            return Err(Error::NotFitted(format!(
                "slice of {len} values is not whole rows of {n} columns",
            )));
        }
        if let Some(st) = steps
            .iter()
            .find(|st| st.i >= n || st.j >= n || st.i == st.j)
        {
            return Err(Error::NotFitted(format!(
                "step on columns {} and {} does not fit {n} columns",
                st.i, st.j
            )));
        }
        Ok(())
    }

    /// Column `j`'s parameters, in column order.
    fn params(&self) -> impl Iterator<Item = ColumnParams> + '_ {
        (0..self.n_cols()).map(|j| self.columns.get(j))
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
        self.method.encode_into(w);
        w.put_usize(self.n_cols());
        for p in self.params() {
            w.put_u8(p.tag());
            match p {
                ColumnParams::MinMax {
                    min,
                    max,
                    new_min,
                    new_max,
                } => w.put_f64s(&[min, max, new_min, new_max]),
                ColumnParams::ZScore { mean, std } => w.put_f64s(&[mean, std]),
                ColumnParams::DecimalScaling { factor } => w.put_f64(factor),
            }
        }
    }

    /// Decodes the record written by [`encode_into`](Self::encode_into),
    /// advancing `r` past it.
    ///
    /// # Errors
    ///
    /// Returns a typed [`DecodeError`] (never panics) for truncated input,
    /// unknown method/parameter tags, a zero column count, or a column the
    /// method tag does not fit: one of another parameter kind than the
    /// method's, or a min–max column onto another target range than the
    /// method's ([`DecodeError::Malformed`] at that column's tag).
    pub fn decode_from(r: &mut ByteReader<'_>) -> DecodeResult<Self> {
        let method = Normalization::decode_from(r)?;
        let cols_offset = r.position();
        let cols = r.take_usize()?;
        if cols == 0 {
            return Err(DecodeError::Malformed {
                offset: cols_offset,
                message: "normalizer with zero columns".into(),
            });
        }
        // The smallest entry is a tag plus one `f64` (decimal scaling).
        r.check_count(cols, 9)?;
        let mut columns: Option<Columns> = None;
        for j in 0..cols {
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
            let columns = columns.get_or_insert_with(|| Columns::of_kind(&p, cols));
            if !columns.push(p, &method) {
                return Err(DecodeError::Malformed {
                    offset: tag_offset,
                    message: format!(
                        "column {j} (parameter tag {}) is not a column of {method:?}: \
                         a normalizer holds one parameter kind, its method's",
                        p.tag()
                    ),
                });
            }
        }
        let columns = columns.expect("a normalizer has at least one column");
        Ok(FittedNormalizer { method, columns })
    }

    fn check_cols(&self, m: &Matrix) -> Result<()> {
        if m.cols() != self.n_cols() {
            return Err(Error::NotFitted(format!(
                "normalizer fitted for {} columns, input has {}",
                self.n_cols(),
                m.cols()
            )));
        }
        Ok(())
    }

    /// Serializes the fitted parameters to a stable line-oriented text
    /// format, the normalizer section of a release session's text key file
    /// (which carries the header's `method=` tag and every line after it):
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
    /// like the binary codec.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "rbt-normalizer v1 cols={} method={}\n",
            self.n_cols(),
            self.method.text_tag()
        );
        for p in self.params() {
            match p {
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
    /// The header's `method=` field restores the advisory
    /// [`method`](Self::method) tag exactly; a min–max method takes its
    /// target range from the first parameter line.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] for malformed input, including a header
    /// without a `method=` field or with an unknown tag (at line 1), and,
    /// at that line, a parameter line of another kind than the method's or
    /// a min–max line onto another target range than the first line's.
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
        let tag = fields
            .next()
            .and_then(|f| f.strip_prefix("method="))
            .ok_or_else(bad_header)?;
        let named = from_text_tag(tag).ok_or_else(|| Error::Parse {
            line: 1,
            message: format!("unknown method tag {tag:?}"),
        })?;
        if fields.next().is_some() {
            return Err(bad_header());
        }
        if cols == 0 {
            return Err(Error::Parse {
                line: 1,
                message: "a normalizer needs at least one column".into(),
            });
        }
        // `cols` is untrusted until the lines are counted: cap the
        // up-front reservation, as `decode_from` does.
        let mut columns: Option<Columns> = None;
        let mut method: Option<Normalization> = None;
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
            let p = match parts.first().copied() {
                Some("zscore") => {
                    let f = floats(2)?;
                    ColumnParams::ZScore {
                        mean: f[0],
                        std: f[1],
                    }
                }
                Some("minmax") => {
                    let f = floats(4)?;
                    ColumnParams::MinMax {
                        min: f[0],
                        max: f[1],
                        new_min: f[2],
                        new_max: f[3],
                    }
                }
                Some("decimal") => ColumnParams::DecimalScaling {
                    factor: floats(1)?[0],
                },
                other => {
                    return Err(Error::Parse {
                        line: line_no,
                        message: format!("unknown parameter kind {other:?}"),
                    })
                }
            };
            // The tag leaves a min–max target range to the first line.
            let method = method.get_or_insert(match (named, p) {
                (
                    Normalization::MinMax { .. },
                    ColumnParams::MinMax {
                        new_min, new_max, ..
                    },
                ) => Normalization::MinMax { new_min, new_max },
                (named, _) => named,
            });
            let columns = columns.get_or_insert_with(|| Columns::of_kind(&p, cols.min(1024)));
            if !columns.push(p, method) {
                return Err(Error::Parse {
                    line: line_no,
                    message: format!(
                        "{:?} line is not a column of {method:?}: a normalizer holds \
                         one parameter kind, its method's",
                        parts[0]
                    ),
                });
            }
        }
        match (columns, method) {
            (Some(columns), Some(method)) if columns.len() == cols => {
                Ok(FittedNormalizer { method, columns })
            }
            (columns, _) => Err(Error::Parse {
                line: 1,
                message: format!(
                    "header declares {cols} columns, found {}",
                    columns.as_ref().map_or(0, Columns::len)
                ),
            }),
        }
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

    /// Folds one partition's rows into the accumulator. Each column is a
    /// left fold in row order, so splitting the fold at any row boundary
    /// changes nothing.
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
        check_finite(m)?;
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
    /// The exact means are fixed here (`sum / n`); fold every partition
    /// again, in the same order.
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
        let columns = match self.state {
            PartialState::MinMax { lo, hi } => {
                let Normalization::MinMax { new_min, new_max } = self.method else {
                    return Err(Error::InvalidArgument(
                        "min-max state under a non-min-max method".into(),
                    ));
                };
                let mut columns = MinMaxColumns::default();
                for (&min, &max) in lo.iter().zip(&hi) {
                    columns.push(min, max, new_min, new_max);
                }
                Columns::MinMax(columns)
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
                let std = ss
                    .iter()
                    .map(|&q| (q / mode.divisor(self.rows)).sqrt())
                    .collect();
                Columns::ZScore { mean: means, std }
            }
            PartialState::Decimal { max_abs } => Columns::DecimalScaling {
                factor: max_abs
                    .iter()
                    .map(|&ma| {
                        let mut factor = 1.0;
                        while ma / factor >= 1.0 {
                            factor *= 10.0;
                        }
                        factor
                    })
                    .collect(),
            },
        };
        Ok(FittedNormalizer {
            method: self.method,
            columns,
        })
    }

    /// Serializes the accumulator (method, pass, fold state) so it can be
    /// carried between partition holders. Every float travels as its exact
    /// bit pattern.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        self.method.encode_into(w);
        w.put_usize(self.rows);
        w.put_usize(self.rows_pass2);
        let put_vec = |w: &mut ByteWriter, v: &[f64]| {
            w.put_usize(v.len());
            w.put_f64s(v);
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
        let method = Normalization::decode_from(r)?;
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
            r.take_f64s(len)
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
        for (new_min, new_max) in [
            (1.0, 1.0),
            (f64::NAN, 1.0),
            (0.0, f64::INFINITY),
            (f64::NEG_INFINITY, 0.0),
        ] {
            assert!(
                matches!(
                    (Normalization::MinMax { new_min, new_max }).fit(&m),
                    Err(Error::InvalidArgument(_))
                ),
                "[{new_min}, {new_max}]"
            );
        }
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
    fn from_text_refuses_headers_without_a_known_method_tag() {
        // Untagged headers, unknown tags and malformed trailing fields.
        assert!(FittedNormalizer::from_text(
            "rbt-normalizer v1 cols=2\nzscore 1.0 2.0\nzscore 0.5 1.5\n"
        )
        .is_err());
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
        // The row-streaming fitters must reproduce the strided per-column
        // stats walk bit for bit, on a matrix wider than a few cache lines.
        let rows = 7;
        let cols = 131;
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
                assert_eq!(fitted.columns.get(j), expected, "{method:?} column {j}");
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
        for text in [
            "rbt-normalizer v1 cols=1 method=zscore-sample\nwiggle 1 2",
            "rbt-normalizer v1 cols=1 method=zscore-sample\nzscore 1",
            "rbt-normalizer v1 cols=2 method=zscore-sample\nzscore 1 2",
            "rbt-normalizer v1 cols=1 method=zscore-sample\nzscore x 2",
        ] {
            assert!(FittedNormalizer::from_text(text).is_err(), "{text:?}");
        }
    }

    #[test]
    fn from_text_does_not_trust_the_header_column_count() {
        // A huge declared count must not size an allocation before the
        // parameter lines are counted: both headers get the typed count
        // mismatch, not an allocation abort or a capacity-overflow panic.
        for cols in [4_000_000_000usize, usize::MAX] {
            let text = format!("rbt-normalizer v1 cols={cols} method=zscore-sample\nzscore 0 1\n");
            match FittedNormalizer::from_text(&text) {
                Err(Error::Parse { line: 1, message }) => {
                    assert_eq!(message, format!("header declares {cols} columns, found 1"))
                }
                other => panic!("cols={cols}: expected a parse error, got {other:?}"),
            }
        }
        // Zero columns is refused as the binary decoder refuses it, with
        // or without parameter lines.
        for text in [
            "rbt-normalizer v1 cols=0 method=zscore-sample\n",
            "rbt-normalizer v1 cols=0 method=zscore-sample\nzscore 0 1\n",
        ] {
            assert!(matches!(
                FittedNormalizer::from_text(text),
                Err(Error::Parse { line: 1, message })
                    if message == "a normalizer needs at least one column"
            ));
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
        fitted.transform_and_sweep(&mut rows, None, &[]).unwrap();
        assert_eq!(rows, t.as_slice());
        fitted.sweep_and_invert(&mut rows, &[]).unwrap();
        let back = Matrix::from_vec(raw.n_rows(), raw.n_cols(), rows).unwrap();
        assert!(back.approx_eq(raw.matrix(), 1e-9));
        // Ragged slices are rejected.
        let mut ragged = vec![0.0; 4];
        assert!(matches!(
            fitted.transform_and_sweep(&mut ragged, None, &[]),
            Err(Error::NotFitted(_))
        ));
    }

    /// ±0, ±∞, 1e±300, subnormals and NaN.
    const SPECIALS: [f64; 11] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e300,
        -1e300,
        1e-300,
        -1e-300,
        f64::MIN_POSITIVE / 4.0,
        -5e-324,
        f64::NAN,
    ];

    /// `actual` equals `expected` bit for bit, except that where `expected`
    /// is NaN, `actual` need only be NaN: Rust leaves a NaN result's sign
    /// and payload unspecified.
    fn assert_same_bits(actual: &[f64], expected: &[f64], what: &str) {
        assert_eq!(actual.len(), expected.len(), "{what}");
        for (k, (a, e)) in actual.iter().zip(expected).enumerate() {
            if e.is_nan() {
                assert!(a.is_nan(), "{what}: element {k} is {a}, not NaN");
            } else {
                assert_eq!(a.to_bits(), e.to_bits(), "{what}: element {k}: {a} vs {e}");
            }
        }
    }

    #[test]
    fn row_kernels_match_the_per_element_reference_bit_for_bit() {
        // Every method × cols 1–33 (each lane tail) × rows 0–70, rows mixing
        // fitting rows (some lie exactly on a drift bound) with special
        // values, forward with and without drift bounds, and inverse.
        let methods = [
            Normalization::MinMax {
                new_min: -1.0,
                new_max: 2.0,
            },
            Normalization::zscore_paper(),
            Normalization::ZScore {
                mode: VarianceMode::Population,
            },
            Normalization::DecimalScaling,
            Normalization::RobustZScore,
        ];
        const FIT_ROWS: usize = 9;
        for cols in 1..=33usize {
            // Column 1 is constant, so every kind's constant-column case runs.
            let fit = Matrix::from_vec(
                FIT_ROWS,
                cols,
                (0..FIT_ROWS * cols)
                    .map(|t| {
                        let (r, j) = (t / cols, t % cols);
                        if j == 1 {
                            -2.5
                        } else {
                            ((r * 5 + j * 3) % 7) as f64 * (0.5 + j as f64)
                                - 40.0 * (t as f64).sin()
                        }
                    })
                    .collect(),
            )
            .unwrap();
            for method in methods {
                let fitted = method.fit(&fit).unwrap();
                let reference: Vec<ColumnParams> = fitted.params().collect();
                let forward = |rows: &[f64]| -> Vec<f64> {
                    rows.chunks_exact(cols)
                        .flat_map(|row| row.iter().zip(&reference).map(|(&v, p)| p.apply(v)))
                        .collect()
                };
                // Drift bounds as `DriftBounds::from_normalized` folds them.
                let mut mins = vec![f64::INFINITY; cols];
                let mut maxs = vec![f64::NEG_INFINITY; cols];
                for row in forward(fit.as_slice()).chunks_exact(cols) {
                    for ((lo, hi), &x) in mins.iter_mut().zip(maxs.iter_mut()).zip(row) {
                        *lo = lo.min(x);
                        *hi = hi.max(x);
                    }
                }
                for rows in 0..=70usize {
                    let input: Vec<f64> = (0..rows * cols)
                        .map(|t| {
                            let (r, j) = (t / cols, t % cols);
                            if (r * 7 + j * 3) % 11 == 0 {
                                SPECIALS[(r + j) % SPECIALS.len()]
                            } else {
                                fit[(r % FIT_ROWS, j)]
                            }
                        })
                        .collect();
                    let what = format!("{method:?}, {rows}x{cols}");
                    let expected = forward(&input);
                    let expected_drift = expected
                        .chunks_exact(cols)
                        .filter(|row| {
                            !row.iter()
                                .zip(mins.iter().zip(&maxs))
                                .all(|(v, (lo, hi))| *v >= *lo && *v <= *hi)
                        })
                        .count();

                    let mut plain = input.clone();
                    fitted.transform_and_sweep(&mut plain, None, &[]).unwrap();
                    assert_same_bits(&plain, &expected, &format!("forward {what}"));
                    let mut fused = input.clone();
                    let drifted = fitted
                        .transform_and_sweep(&mut fused, Some((&mins, &maxs)), &[])
                        .unwrap();
                    assert_same_bits(&fused, &expected, &format!("fused forward {what}"));
                    assert_eq!(drifted, expected_drift, "drift {what}");

                    // The inverse, of the forward's output and of the raw
                    // special-laden input alike.
                    for source in [&expected, &input] {
                        let want: Vec<f64> = source
                            .chunks_exact(cols)
                            .flat_map(|row| row.iter().zip(&reference).map(|(&v, p)| p.invert(v)))
                            .collect();
                        let mut back = source.clone();
                        fitted.sweep_and_invert(&mut back, &[]).unwrap();
                        assert_same_bits(&back, &want, &format!("inverse {what}"));
                    }
                }
            }
        }
    }

    #[test]
    fn fused_kernel_checks_its_bounds_width() {
        let fitted = Normalization::zscore_paper()
            .fit(&Matrix::from_columns(&[&[1.0, 2.0], &[3.0, 5.0]]).unwrap())
            .unwrap();
        let mut rows = vec![1.0, 3.0];
        for (mins, maxs) in [(&[0.0][..], &[1.0, 1.0][..]), (&[0.0, 0.0], &[1.0])] {
            assert!(matches!(
                fitted.transform_and_sweep(&mut rows, Some((mins, maxs)), &[]),
                Err(Error::NotFitted(_))
            ));
        }
        assert_eq!(rows, [1.0, 3.0], "a refused call leaves the rows alone");
    }

    #[test]
    fn binary_decoder_refuses_mixed_parameter_kinds() {
        // One tagged column entry.
        let column = |tag: u8, values: &[f64]| {
            ByteWriter::encode_with(|w| {
                w.put_u8(tag);
                w.put_f64s(values);
            })
        };
        let zscore = column(1, &[0.5, 2.0]);
        let decimal = column(2, &[10.0]);
        let unit = column(0, &[-1.0, 3.0, 0.0, 1.0]);
        let wide = column(0, &[-1.0, 3.0, 0.0, 2.0]);
        // A method tag and two columns, refused at a column's tag: column 0
        // sits after the method (u8, plus two f64s for min–max) and the
        // count (u64).
        for (method, columns, at) in [
            // Column 1 decimal scaling after a z-score column 0.
            (Normalization::zscore_paper(), [&zscore, &decimal], 9 + 17),
            // Z-score columns under a min–max tag.
            (Normalization::min_max_unit(), [&zscore, &zscore], 25),
            // Decimal-scaling columns under a robust z-score tag.
            (Normalization::RobustZScore, [&decimal, &decimal], 9),
            // Column 1 onto [0, 2] under a [0, 1] tag.
            (Normalization::min_max_unit(), [&unit, &wide], 25 + 33),
        ] {
            let mut w = ByteWriter::new();
            method.encode_into(&mut w);
            w.put_usize(2);
            for c in columns {
                w.put_bytes(c);
            }
            match FittedNormalizer::decode_from(&mut ByteReader::new(w.as_bytes())) {
                Err(DecodeError::Malformed { offset, message }) if offset == at => {
                    assert!(message.contains("one parameter kind"), "{message}")
                }
                other => panic!("{method:?}: expected a refusal at offset {at}, got {other:?}"),
            }
        }
    }

    #[test]
    fn text_decoder_refuses_mixed_parameter_kinds() {
        for (text, at) in [
            (
                "rbt-normalizer v1 cols=3 method=minmax\nminmax 0 1 0 1\nminmax 2 4 0 1\nzscore 0.5 2\n",
                4,
            ),
            // Z-score lines under a min–max tag: this read back as sample
            // z-score.
            (
                "rbt-normalizer v1 cols=2 method=minmax\nzscore 0 1\nzscore 2 3\n",
                2,
            ),
            // Min–max lines under a z-score tag.
            (
                "rbt-normalizer v1 cols=1 method=zscore-sample\nminmax 0 1 0 1\n",
                2,
            ),
            // A second min–max target range, after the tag's or another.
            (
                "rbt-normalizer v1 cols=2 method=minmax\nminmax 0 1 0 1\nminmax 0 1 0 2\n",
                3,
            ),
            (
                "rbt-normalizer v1 cols=2 method=minmax\nminmax 0 1 -1 1\nminmax 0 1 0 1\n",
                3,
            ),
        ] {
            match FittedNormalizer::from_text(text) {
                Err(Error::Parse { line, message }) if line == at => {
                    assert!(message.contains("one parameter kind"), "{message}")
                }
                other => panic!("{text:?}: expected a parse error at line {at}, got {other:?}"),
            }
        }
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
