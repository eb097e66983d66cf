//! Streaming release sessions — the same secrets applied to arriving data.
//!
//! The paper's Figure 1 pipeline is a one-shot release: fit a normalizer,
//! draw a [`TransformationKey`], rotate, publish. A production data owner
//! instead keeps releasing *new* records under the *same* secrets, the
//! session shape the outsourced-clustering literature assumes (multi-user
//! and multi-server k-means over a stable owner-side transformation). A
//! [`ReleaseSession`] packages exactly that:
//!
//! * it wraps the fitted secrets (key + normalizer) with
//!   [`transform_batch`](ReleaseSession::transform_batch) /
//!   [`invert_batch`](ReleaseSession::invert_batch) for out-of-sample
//!   records — and with the zero-copy
//!   [`transform_batch_into`](ReleaseSession::transform_batch_into) /
//!   [`invert_batch_into`](ReleaseSession::invert_batch_into) variants
//!   that fill a caller-reusable output matrix so a steady-state stream
//!   allocates nothing per batch,
//! * its [`RowKernels`] hold the one batch contract, shared with hybrid
//!   isometry's fitted state: a [`Dataset`] batch has its width checked,
//!   the §5.3 ID policy applied and its matrix copied once, then the row
//!   kernels [`forward_rows`](RowKernels::forward_rows) /
//!   [`inverse_rows`](RowKernels::inverse_rows) run over the whole copy
//!   on the calling thread. Callers holding rows outside a [`Matrix`] run
//!   those kernels themselves, in place, over `f64`s or over a wire
//!   frame's little-endian cells (the daemon's workers do, on batches
//!   they keep in their frames; so does
//!   [`ReleaseSession::forward_rows`]). Each is one pass over the cells
//!   ([`FittedNormalizer::transform_and_sweep`] /
//!   [`FittedNormalizer::sweep_and_invert`]): a block of rows is read
//!   once, normalized and drift-checked in SIMD lanes across its columns,
//!   rotated by the key's sweep while it sits in a small block on the
//!   stack, and written once; the inverse sweeps, then denormalizes.
//!   Normalization and every rotation step are row-local and keep their
//!   per-row order and their IEEE operations, so any batch split produces
//!   output **bit-identical** to running the one-shot [`crate::Pipeline`]
//!   on the concatenated data (pinned by the conformance battery). A
//!   release costs about a memcpy, so a fork per batch would cost more
//!   than it saves; callers that want parallelism spread batches over
//!   their own threads,
//! * it reports **drift** per batch: records whose normalized values fall
//!   outside the per-column min–max range observed on the fitting data,
//!   the first sign that the fitted normalization no longer represents
//!   the stream; it keeps no history, so it transforms through `&self`
//!   and one session serves many threads at once,
//! * it persists: [`to_bytes`](ReleaseSession::to_bytes) /
//!   [`to_text`](ReleaseSession::to_text) produce the checksummed key-file
//!   formats of [`crate::codec`], so the secrets can leave the process and
//!   come back for tomorrow's batch.

use crate::codec::{self, CodecError, RecordKind};
use crate::key::TransformationKey;
use crate::method::RbtConfig;
use crate::pipeline::PipelineOutput;
use crate::{Error, Result};
use rbt_data::{Cell, Dataset, FittedNormalizer};
use rbt_linalg::codec::{crc32, ByteReader, ByteWriter};
use rbt_linalg::matrix::PairStep;
use rbt_linalg::stats::VarianceMode;
use rbt_linalg::Matrix;
use std::fmt::Write as _;

/// Per-column `[min, max]` of the *normalized* fitting data — the
/// reference against which arriving batches are drift-checked.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftBounds {
    mins: Vec<f64>,
    maxs: Vec<f64>,
}

impl DriftBounds {
    /// Computes the bounds from a normalized fitting matrix, in a single
    /// row-major pass: every column's accumulator folds its elements in
    /// row order with the same `f64::min`/`f64::max` as
    /// [`rbt_linalg::stats::min_max_of`] over
    /// [`Matrix::column_iter`], so the bounds are bit-identical to the
    /// strided per-column scan this replaces — without re-streaming the
    /// matrix once per column.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Linalg`] for a matrix with no rows and
    /// [`Error::InvalidParameter`] for one with no columns.
    pub fn from_normalized(normalized: &Matrix) -> Result<Self> {
        if normalized.cols() == 0 {
            return Err(Error::InvalidParameter(
                "drift bounds need at least one column".into(),
            ));
        }
        if normalized.rows() == 0 {
            return Err(rbt_linalg::Error::Empty.into());
        }
        let mut mins = vec![f64::INFINITY; normalized.cols()];
        let mut maxs = vec![f64::NEG_INFINITY; normalized.cols()];
        for row in normalized.row_iter() {
            for ((lo, hi), &x) in mins.iter_mut().zip(maxs.iter_mut()).zip(row) {
                *lo = lo.min(x);
                *hi = hi.max(x);
            }
        }
        Ok(DriftBounds { mins, maxs })
    }

    /// Builds bounds from explicit per-column minima and maxima.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for empty or mismatched vectors
    /// or any `min > max`.
    pub fn new(mins: Vec<f64>, maxs: Vec<f64>) -> Result<Self> {
        if mins.is_empty() || mins.len() != maxs.len() {
            return Err(Error::InvalidParameter(format!(
                "drift bounds need matching non-empty columns ({} mins, {} maxs)",
                mins.len(),
                maxs.len()
            )));
        }
        // NaN bounds must be rejected too, hence the explicit partial_cmp
        // (plain `lo <= hi` would let them through when negated).
        let ordered = |lo: &f64, hi: &f64| {
            matches!(
                lo.partial_cmp(hi),
                Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
            )
        };
        if mins.iter().zip(&maxs).any(|(lo, hi)| !ordered(lo, hi)) {
            return Err(Error::InvalidParameter(
                "drift bounds need min <= max per column".into(),
            ));
        }
        Ok(DriftBounds { mins, maxs })
    }

    /// Number of columns covered.
    pub fn n_cols(&self) -> usize {
        self.mins.len()
    }

    /// Per-column minima.
    pub fn mins(&self) -> &[f64] {
        &self.mins
    }

    /// Per-column maxima.
    pub fn maxs(&self) -> &[f64] {
        &self.maxs
    }

    /// Whether every value of a normalized row lies inside its column's
    /// fitted `[min, max]`. NaNs count as out of range.
    pub fn row_in_range(&self, row: &[f64]) -> bool {
        row.len() == self.mins.len()
            && row
                .iter()
                .zip(self.mins.iter().zip(&self.maxs))
                .all(|(v, (lo, hi))| *v >= *lo && *v <= *hi)
    }
}

/// One transformed batch: the releasable dataset plus drift accounting.
#[derive(Debug, Clone)]
pub struct SessionBatch {
    /// The released data: normalized with the session's fitted parameters,
    /// rotated with its key, optionally ID-stripped.
    pub released: Dataset,
    /// How many of this batch's records had at least one normalized value
    /// outside the fitted min–max range (0 when the session carries no
    /// [`DriftBounds`]).
    pub out_of_range_rows: usize,
}

/// The row kernels of a release that normalizes each row and then applies
/// a sweep of 2×2 pair steps to it — an RBT session's rotations, or a
/// hybrid isometry key's rotations and reflections — borrowed from the
/// fitted state that holds them. Both directions run one pass over their
/// cells, `f64`s or a wire frame's little-endian bytes ([`Cell`]), with
/// [`FittedNormalizer::transform_and_sweep`] and
/// [`FittedNormalizer::sweep_and_invert`].
#[derive(Debug, Clone, Copy)]
pub struct RowKernels<'a> {
    normalizer: &'a FittedNormalizer,
    drift: Option<&'a DriftBounds>,
    forward: &'a [PairStep],
    inverse: &'a [PairStep],
    suppress_ids: bool,
}

impl<'a> RowKernels<'a> {
    /// Row kernels over `normalizer` and the sweeps `forward` (applied
    /// after normalizing) and `inverse` (applied before denormalizing),
    /// drift-checked against `drift` when given; `suppress_ids` is the
    /// release's §5.3 ID policy, which callers holding rows outside a
    /// [`Dataset`] apply themselves.
    pub fn new(
        normalizer: &'a FittedNormalizer,
        drift: Option<&'a DriftBounds>,
        forward: &'a [PairStep],
        inverse: &'a [PairStep],
        suppress_ids: bool,
    ) -> Self {
        RowKernels {
            normalizer,
            drift,
            forward,
            inverse,
            suppress_ids,
        }
    }

    /// The width of the rows the kernels release.
    pub fn n_cols(&self) -> usize {
        self.normalizer.n_cols()
    }

    /// Whether a released batch drops its IDs.
    pub fn suppresses_ids(&self) -> bool {
        self.suppress_ids
    }

    /// Releases whole rows in place: normalizes each row (counting the
    /// rows outside the drift bounds, when there are any), then applies
    /// the forward sweep. Returns the drift count.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Data`] when `rows` is not whole rows of the
    /// kernels' width or a sweep does not fit it; `rows` is then left
    /// untouched.
    pub fn forward_rows<C: Cell>(&self, rows: &mut [C]) -> Result<usize> {
        let bounds = self.drift.map(|b| (b.mins(), b.maxs()));
        self.normalizer
            .transform_and_sweep(rows, bounds, self.forward)
            .map_err(Error::Data)
    }

    /// Recovers whole rows in place: the inverse sweep, then the
    /// normalizer's inverse.
    ///
    /// # Errors
    ///
    /// As [`forward_rows`](Self::forward_rows).
    pub fn inverse_rows<C: Cell>(&self, rows: &mut [C]) -> Result<()> {
        self.normalizer
            .sweep_and_invert(rows, self.inverse)
            .map_err(Error::Data)
    }

    /// Releases a batch: checks its width, copies its matrix once and runs
    /// [`forward_rows`](Self::forward_rows) over the copy. The release
    /// keeps the batch's column names, and its IDs only when the §5.3 ID
    /// policy keeps them.
    ///
    /// # Errors
    ///
    /// Returns [`Error::KeyMismatch`] when the batch's column count
    /// disagrees with the kernels' width.
    pub fn transform_batch(&self, batch: &Dataset) -> Result<SessionBatch> {
        let mut matrix = Matrix::zeros(0, 0);
        let out_of_range_rows = self.transform_batch_into(batch, &mut matrix)?;
        let ids = if self.suppress_ids { None } else { batch.ids() };
        Ok(SessionBatch {
            released: dataset(matrix, batch, ids)?,
            out_of_range_rows,
        })
    }

    /// Recovers a released batch: checks its width, copies its matrix once
    /// and runs [`inverse_rows`](Self::inverse_rows) over the copy,
    /// keeping the batch's column names and whatever IDs it has.
    ///
    /// # Errors
    ///
    /// As [`transform_batch`](Self::transform_batch).
    pub fn invert_batch(&self, released: &Dataset) -> Result<Dataset> {
        let mut matrix = Matrix::zeros(0, 0);
        self.invert_batch_into(released, &mut matrix)?;
        dataset(matrix, released, released.ids())
    }

    /// [`transform_batch`](Self::transform_batch)'s matrix, written into
    /// `out` (its buffer reused when large enough); returns the drift
    /// count.
    fn transform_batch_into(&self, batch: &Dataset, out: &mut Matrix) -> Result<usize> {
        self.check_width(batch)?;
        out.copy_from(batch.matrix());
        self.forward_rows(out.as_mut_slice())
    }

    /// [`invert_batch`](Self::invert_batch)'s matrix, written into `out`.
    fn invert_batch_into(&self, released: &Dataset, out: &mut Matrix) -> Result<()> {
        self.check_width(released)?;
        out.copy_from(released.matrix());
        self.inverse_rows(out.as_mut_slice())
    }

    fn check_width(&self, batch: &Dataset) -> Result<()> {
        if batch.n_cols() != self.n_cols() {
            return Err(Error::KeyMismatch(format!(
                "session fitted for {} attributes, batch has {}",
                self.n_cols(),
                batch.n_cols()
            )));
        }
        Ok(())
    }
}

/// `matrix` under `source`'s column names, with `ids` when given. Built
/// around the new matrix directly: cloning `source` only to replace its
/// matrix would copy the batch a second time.
fn dataset(matrix: Matrix, source: &Dataset, ids: Option<&[u64]>) -> Result<Dataset> {
    let released = Dataset::new(matrix, source.columns().to_vec())?;
    match ids {
        Some(ids) => Ok(released.with_ids(ids.to_vec())?),
        None => Ok(released),
    }
}

/// A long-lived release session: fitted secrets plus batch machinery.
#[derive(Debug, Clone)]
pub struct ReleaseSession {
    key: TransformationKey,
    normalizer: FittedNormalizer,
    config: Option<RbtConfig>,
    drift: Option<DriftBounds>,
    suppress_ids: bool,
    /// The key's forward and inverse sweeps, drawn once in
    /// [`ReleaseSession::new`] rather than per row slice.
    forward: Vec<PairStep>,
    inverse: Vec<PairStep>,
}

impl ReleaseSession {
    /// Creates a session from a key and the normalizer it was fitted with.
    ///
    /// # Errors
    ///
    /// Returns [`Error::KeyMismatch`] when the two disagree on the number
    /// of attributes.
    pub fn new(key: TransformationKey, normalizer: FittedNormalizer) -> Result<Self> {
        if key.n_attributes() != normalizer.n_cols() {
            return Err(Error::KeyMismatch(format!(
                "key covers {} attributes, normalizer {} columns",
                key.n_attributes(),
                normalizer.n_cols()
            )));
        }
        Ok(ReleaseSession {
            forward: key.forward_sweep(),
            inverse: key.inverse_sweep(),
            key,
            normalizer,
            config: None,
            drift: None,
            suppress_ids: true,
        })
    }

    /// Builds a session straight from a [`crate::Pipeline::run`] output,
    /// deriving [`DriftBounds`] from the normalized fitting data.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches (cannot occur for a genuine pipeline
    /// output).
    pub fn from_pipeline_output(out: &PipelineOutput) -> Result<Self> {
        ReleaseSession::new(out.key.clone(), out.normalizer.clone())?
            .with_drift_bounds(DriftBounds::from_normalized(out.normalized.matrix())?)
    }

    /// Attaches the [`RbtConfig`] the key was drawn under (metadata for
    /// audits; not needed to transform).
    pub fn with_config(mut self, config: RbtConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Attaches drift bounds.
    ///
    /// # Errors
    ///
    /// Returns [`Error::KeyMismatch`] when the column count disagrees with
    /// the key.
    pub fn with_drift_bounds(mut self, bounds: DriftBounds) -> Result<Self> {
        if bounds.n_cols() != self.key.n_attributes() {
            return Err(Error::KeyMismatch(format!(
                "drift bounds cover {} columns, key {} attributes",
                bounds.n_cols(),
                self.key.n_attributes()
            )));
        }
        self.drift = Some(bounds);
        Ok(self)
    }

    /// Controls §5.3 Step 2 on released batches — whether object IDs are
    /// stripped (`true` by default).
    pub fn with_id_suppression(mut self, suppress: bool) -> Self {
        self.suppress_ids = suppress;
        self
    }

    /// The session's transformation key.
    pub fn key(&self) -> &TransformationKey {
        &self.key
    }

    /// The session's fitted normalizer.
    pub fn normalizer(&self) -> &FittedNormalizer {
        &self.normalizer
    }

    /// The config metadata, when attached.
    pub fn config(&self) -> Option<&RbtConfig> {
        self.config.as_ref()
    }

    /// The drift bounds, when attached.
    pub fn drift_bounds(&self) -> Option<&DriftBounds> {
        self.drift.as_ref()
    }

    /// Whether released batches are ID-stripped.
    pub fn suppresses_ids(&self) -> bool {
        self.suppress_ids
    }

    /// Transforms a batch of out-of-sample records: normalize with the
    /// *fitted* parameters, apply the key's rotations, optionally strip
    /// IDs ([`RowKernels::transform_batch`]). Output is bit-identical to
    /// the one-shot pipeline for every batch split.
    ///
    /// # Errors
    ///
    /// Returns [`Error::KeyMismatch`] when the batch's column count
    /// disagrees with the session.
    pub fn transform_batch(&self, batch: &Dataset) -> Result<SessionBatch> {
        self.kernels().transform_batch(batch)
    }

    /// Owner-side inverse of [`transform_batch`](Self::transform_batch):
    /// undoes the rotations and the normalization of a released batch,
    /// returning raw-scale values (IDs, if present, are kept).
    ///
    /// # Errors
    ///
    /// Returns [`Error::KeyMismatch`] when the batch's column count
    /// disagrees with the session.
    pub fn invert_batch(&self, released: &Dataset) -> Result<Dataset> {
        self.kernels().invert_batch(released)
    }

    /// Zero-copy variant of [`transform_batch`](Self::transform_batch):
    /// writes the released matrix into `out`, reusing its backing buffer
    /// when it is already large enough, and returns the batch's
    /// out-of-range row count. A steady-state stream that feeds the same
    /// `out` back in allocates **nothing** per batch. Values are
    /// bit-identical to `transform_batch(batch).released.matrix()`.
    ///
    /// Column metadata and IDs are the caller's concern here — this is
    /// the raw matrix path for high-throughput streaming.
    ///
    /// # Errors
    ///
    /// Returns [`Error::KeyMismatch`] when the batch's column count
    /// disagrees with the session.
    pub fn transform_batch_into(&self, batch: &Dataset, out: &mut Matrix) -> Result<usize> {
        self.kernels().transform_batch_into(batch, out)
    }

    /// Zero-copy variant of [`invert_batch`](Self::invert_batch): writes
    /// the recovered raw-scale matrix into `out`, reusing its backing
    /// buffer when it is already large enough. Values are bit-identical
    /// to `invert_batch(released)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::KeyMismatch`] when the batch's column count
    /// disagrees with the session.
    pub fn invert_batch_into(&self, released: &Dataset, out: &mut Matrix) -> Result<()> {
        self.kernels().invert_batch_into(released, out)
    }

    /// The forward release of whole rows in place, on the calling thread,
    /// one pass over their cells: each row is read once, normalized and
    /// drift-checked in lanes across its columns, rotated by the key's
    /// sweep while it sits in a small block on the stack, and written once
    /// ([`RowKernels::forward_rows`]). `rows` holds whole rows of the
    /// session's width, row-major, as `f64`s or as a wire frame's
    /// little-endian cells ([`Cell`]); IDs are the caller's concern.
    /// Returns how many of the rows drifted out of the fitted range (0
    /// without [`DriftBounds`]).
    ///
    /// Every batch entry point runs the same kernel over the whole batch,
    /// and rows are independent, so releasing a batch as any split into
    /// row slices yields the bits [`transform_batch`](Self::transform_batch)
    /// does.
    ///
    /// # Errors
    ///
    /// Returns [`Error::KeyMismatch`] when `rows` is not whole rows of the
    /// session's width; `rows` is then left untouched.
    pub fn forward_rows<C: Cell>(&self, rows: &mut [C]) -> Result<usize> {
        self.check_rows(rows.len())?;
        self.kernels().forward_rows(rows)
    }

    /// The inverse of [`forward_rows`](Self::forward_rows), in place on
    /// whole rows in one pass: the inverse sweep, then the normalizer's
    /// inverse, per row ([`RowKernels::inverse_rows`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::KeyMismatch`] when `rows` is not whole rows of the
    /// session's width; `rows` is then left untouched.
    pub fn inverse_rows<C: Cell>(&self, rows: &mut [C]) -> Result<()> {
        self.check_rows(rows.len())?;
        self.kernels().inverse_rows(rows)
    }

    /// The session's row kernels: its normalizer, drift bounds, the key's
    /// sweeps drawn once in [`ReleaseSession::new`], and its ID policy.
    pub fn kernels(&self) -> RowKernels<'_> {
        RowKernels::new(
            &self.normalizer,
            self.drift.as_ref(),
            &self.forward,
            &self.inverse,
            self.suppress_ids,
        )
    }

    fn check_rows(&self, len: usize) -> Result<()> {
        let n = self.key.n_attributes();
        if n == 0 || !len.is_multiple_of(n) {
            return Err(Error::KeyMismatch(format!(
                "{len} values are not whole rows of the session's {n} attributes"
            )));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Persistence
    // ------------------------------------------------------------------

    /// Serializes the session (secrets + metadata) into the sealed binary
    /// envelope of [`crate::codec`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        codec::write_key_record(&mut w, &self.key);
        self.normalizer.encode_into(&mut w);
        w.put_bool(self.config.is_some());
        if let Some(config) = &self.config {
            config.encode_into(&mut w);
        }
        w.put_bool(self.drift.is_some());
        if let Some(drift) = &self.drift {
            w.put_usize(drift.n_cols());
            for (lo, hi) in drift.mins.iter().zip(&drift.maxs) {
                w.put_f64(*lo);
                w.put_f64(*hi);
            }
        }
        w.put_bool(self.suppress_ids);
        codec::seal(RecordKind::Session, w.as_bytes())
    }

    /// Decodes the envelope written by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// [`Error::Codec`] for framing/corruption problems; key/normalizer
    /// validation errors for inconsistent (but checksummed) contents.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let payload = codec::open(bytes, RecordKind::Session)?;
        let mut r = ByteReader::new(payload);
        let key = codec::read_key_record(&mut r)?;
        let normalizer = FittedNormalizer::decode_from(&mut r)?;
        let config = if r.take_bool()? {
            Some(RbtConfig::decode_from(&mut r)?)
        } else {
            None
        };
        let drift = if r.take_bool()? {
            let cols = r.take_usize()?;
            // `(min, max)` per column, interleaved.
            let bounds = r.take_f64s(cols.saturating_mul(2))?;
            let (mins, maxs) = bounds.chunks_exact(2).map(|b| (b[0], b[1])).unzip();
            Some(DriftBounds::new(mins, maxs)?)
        } else {
            None
        };
        let suppress_ids = r.take_bool()?;
        r.expect_end()?;

        let mut session = ReleaseSession::new(key, normalizer)?;
        if let Some(config) = config {
            session = session.with_config(config);
        }
        if let Some(drift) = drift {
            session = session.with_drift_bounds(drift)?;
        }
        Ok(session.with_id_suppression(suppress_ids))
    }

    /// Serializes the session to the human-readable, checksummed text
    /// form:
    ///
    /// ```text
    /// rbt-session v1
    /// key n=3 steps=2
    /// rotate 0 2 3.12470000000000027e2 … …
    /// normalizer method=zscore-sample
    /// param zscore 4.85999999999999943e1 1.78269458778902041e1
    /// …
    /// config variance=sample grid=3600
    /// pairing explicit
    /// pair 0 2
    /// …
    /// thresholds per-pair
    /// pst 2.99999999999999989e-1 5.50000000000000044e-1
    /// …
    /// drift cols=3
    /// range -1.26620297443029371e0 1.46215096606798721e0
    /// …
    /// suppress-ids true
    /// checksum 9f1c2ab3
    /// ```
    ///
    /// Floats print with 17 fractional digits, which round-trips every
    /// finite `f64` exactly; the final line is the CRC-32 (hex) of all
    /// preceding non-empty lines joined with `\n`, so hand edits are
    /// detected just like bit flips in the binary form.
    pub fn to_text(&self) -> String {
        let mut body = String::from("rbt-session v1\n");
        let _ = writeln!(
            body,
            "key n={} steps={}",
            self.key.n_attributes(),
            self.key.steps().len()
        );
        for s in self.key.steps() {
            let _ = writeln!(
                body,
                "rotate {} {} {:.17e} {:.17e} {:.17e}",
                s.i, s.j, s.theta_degrees, s.achieved_var1, s.achieved_var2
            );
        }
        let _ = writeln!(
            body,
            "normalizer method={}",
            self.normalizer.method().text_tag()
        );
        for line in self.normalizer.to_text().lines().skip(1) {
            let _ = writeln!(body, "param {line}");
        }
        if let Some(config) = &self.config {
            let variance = match config.variance_mode {
                VarianceMode::Population => "population",
                VarianceMode::Sample => "sample",
            };
            let _ = writeln!(
                body,
                "config variance={variance} grid={}",
                config.solver_grid
            );
            match &config.pairing {
                crate::pairing::PairingStrategy::Sequential => {
                    let _ = writeln!(body, "pairing sequential");
                }
                crate::pairing::PairingStrategy::RandomShuffle => {
                    let _ = writeln!(body, "pairing random-shuffle");
                }
                crate::pairing::PairingStrategy::Explicit(pairs) => {
                    let _ = writeln!(body, "pairing explicit");
                    for &(i, j) in pairs {
                        let _ = writeln!(body, "pair {i} {j}");
                    }
                }
            }
            match &config.thresholds {
                crate::method::ThresholdPolicy::Uniform(pst) => {
                    let _ = writeln!(body, "thresholds uniform");
                    let _ = writeln!(body, "pst {:.17e} {:.17e}", pst.rho1, pst.rho2);
                }
                crate::method::ThresholdPolicy::PerPair(list) => {
                    let _ = writeln!(body, "thresholds per-pair");
                    for pst in list {
                        let _ = writeln!(body, "pst {:.17e} {:.17e}", pst.rho1, pst.rho2);
                    }
                }
            }
        }
        if let Some(drift) = &self.drift {
            let _ = writeln!(body, "drift cols={}", drift.n_cols());
            for (lo, hi) in drift.mins.iter().zip(&drift.maxs) {
                let _ = writeln!(body, "range {lo:.17e} {hi:.17e}");
            }
        }
        let _ = writeln!(body, "suppress-ids {}", self.suppress_ids);
        let checksum = crc32(text_checksum_content(&body).as_bytes());
        let _ = writeln!(body, "checksum {checksum:08x}");
        body
    }

    /// Parses the form produced by [`to_text`](Self::to_text), verifying
    /// the trailing checksum first.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] with [`CodecError::Text`] /
    /// [`CodecError::ChecksumMismatch`] / [`CodecError::UnsupportedVersion`]
    /// for malformed, tampered, or future-version input.
    pub fn from_text(text: &str) -> Result<Self> {
        let lines: Vec<&str> = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .collect();
        let text_err =
            |line: usize, message: String| -> Error { CodecError::Text { line, message }.into() };
        if lines.len() < 2 {
            return Err(text_err(1, "input too short for a session".into()));
        }
        // Checksum line first, so tampering reports as corruption rather
        // than a confusing downstream parse error.
        let last = lines.len() - 1;
        let stored = lines[last]
            .strip_prefix("checksum ")
            .and_then(|h| u32::from_str_radix(h.trim(), 16).ok())
            .ok_or_else(|| {
                text_err(
                    last + 1,
                    format!("expected checksum line, found {:?}", lines[last]),
                )
            })?;
        let computed = crc32(lines[..last].join("\n").as_bytes());
        if stored != computed {
            return Err(CodecError::ChecksumMismatch { stored, computed }.into());
        }

        let mut cursor = Cursor {
            lines: &lines[..last],
            pos: 0,
        };
        let header = cursor.next_line()?;
        if header != "rbt-session v1" {
            if let Some(v) = header
                .strip_prefix("rbt-session v")
                .and_then(|rest| rest.parse::<u16>().ok())
            {
                return Err(CodecError::UnsupportedVersion { found: v }.into());
            }
            return Err(text_err(1, format!("bad header {header:?}")));
        }

        // key n=<n> steps=<k>
        let (line_no, fields) = cursor.tagged_fields("key", 2)?;
        let n_attributes = parse_kv(&fields[0], "n", line_no)?;
        let n_steps: usize = parse_kv(&fields[1], "steps", line_no)?;
        let mut steps = Vec::with_capacity(n_steps.min(1024));
        for _ in 0..n_steps {
            let (line_no, f) = cursor.tagged_fields("rotate", 5)?;
            steps.push(crate::key::RotationStep {
                i: parse_field(&f[0], "i", line_no)?,
                j: parse_field(&f[1], "j", line_no)?,
                theta_degrees: parse_field(&f[2], "theta", line_no)?,
                achieved_var1: parse_field(&f[3], "var1", line_no)?,
                achieved_var2: parse_field(&f[4], "var2", line_no)?,
            });
        }
        let key = TransformationKey::new(steps, n_attributes)?;

        // normalizer method=<tag> + param lines
        let (line_no, fields) = cursor.tagged_fields("normalizer", 1)?;
        let tag: String = parse_kv(&fields[0], "method", line_no)?;
        let mut param_lines: Vec<&str> = Vec::new();
        while let Some(line) = cursor.peek() {
            match line.strip_prefix("param ") {
                Some(rest) => {
                    param_lines.push(rest);
                    cursor.pos += 1;
                }
                None => break,
            }
        }
        // Rebuild the normalizer's own text form, method tag included, so
        // its parser owns tag validation and method restoration.
        let normalizer_text = format!(
            "rbt-normalizer v1 cols={} method={tag}\n{}",
            param_lines.len(),
            param_lines.join("\n")
        );
        let normalizer = FittedNormalizer::from_text(&normalizer_text)
            .map_err(|e| text_err(line_no, format!("normalizer section: {e}")))?;

        // Optional config section.
        let mut config = None;
        if cursor.peek().is_some_and(|l| l.starts_with("config ")) {
            let (line_no, fields) = cursor.tagged_fields("config", 2)?;
            let variance = match parse_kv::<String>(&fields[0], "variance", line_no)?.as_str() {
                "population" => VarianceMode::Population,
                "sample" => VarianceMode::Sample,
                other => {
                    return Err(text_err(
                        line_no,
                        format!("unknown variance mode {other:?}"),
                    ))
                }
            };
            let grid: usize = parse_kv(&fields[1], "grid", line_no)?;
            let (line_no, fields) = cursor.tagged_fields("pairing", 1)?;
            let pairing = match fields[0].as_str() {
                "sequential" => crate::pairing::PairingStrategy::Sequential,
                "random-shuffle" => crate::pairing::PairingStrategy::RandomShuffle,
                "explicit" => {
                    let mut pairs = Vec::new();
                    while cursor.peek().is_some_and(|l| l.starts_with("pair ")) {
                        let (line_no, f) = cursor.tagged_fields("pair", 2)?;
                        pairs.push((
                            parse_field(&f[0], "i", line_no)?,
                            parse_field(&f[1], "j", line_no)?,
                        ));
                    }
                    crate::pairing::PairingStrategy::Explicit(pairs)
                }
                other => return Err(text_err(line_no, format!("unknown pairing {other:?}"))),
            };
            let (line_no, fields) = cursor.tagged_fields("thresholds", 1)?;
            let per_pair = match fields[0].as_str() {
                "uniform" => false,
                "per-pair" => true,
                other => return Err(text_err(line_no, format!("unknown thresholds {other:?}"))),
            };
            let mut psts = Vec::new();
            while cursor.peek().is_some_and(|l| l.starts_with("pst ")) {
                let (line_no, f) = cursor.tagged_fields("pst", 2)?;
                psts.push(crate::security::PairwiseSecurityThreshold::new(
                    parse_field(&f[0], "rho1", line_no)?,
                    parse_field(&f[1], "rho2", line_no)?,
                )?);
            }
            let thresholds = if per_pair {
                crate::method::ThresholdPolicy::PerPair(psts)
            } else {
                let [pst] = psts[..] else {
                    return Err(text_err(
                        line_no,
                        format!(
                            "uniform thresholds need exactly one pst line, found {}",
                            psts.len()
                        ),
                    ));
                };
                crate::method::ThresholdPolicy::Uniform(pst)
            };
            config = Some(RbtConfig {
                pairing,
                thresholds,
                variance_mode: variance,
                solver_grid: grid,
            });
        }

        // Optional drift section.
        let mut drift = None;
        if cursor.peek().is_some_and(|l| l.starts_with("drift ")) {
            let (line_no, fields) = cursor.tagged_fields("drift", 1)?;
            let cols: usize = parse_kv(&fields[0], "cols", line_no)?;
            let mut mins = Vec::with_capacity(cols.min(1024));
            let mut maxs = Vec::with_capacity(cols.min(1024));
            for _ in 0..cols {
                let (line_no, f) = cursor.tagged_fields("range", 2)?;
                mins.push(parse_field(&f[0], "min", line_no)?);
                maxs.push(parse_field(&f[1], "max", line_no)?);
            }
            drift = Some(DriftBounds::new(mins, maxs)?);
        }

        let (line_no, fields) = cursor.tagged_fields("suppress-ids", 1)?;
        let suppress_ids = match fields[0].as_str() {
            "true" => true,
            "false" => false,
            other => {
                return Err(text_err(
                    line_no,
                    format!("bad suppress-ids value {other:?}"),
                ))
            }
        };
        if let Some(extra) = cursor.peek() {
            return Err(text_err(
                cursor.pos + 1,
                format!("unexpected trailing line {extra:?}"),
            ));
        }

        let mut session = ReleaseSession::new(key, normalizer)?;
        if let Some(config) = config {
            session = session.with_config(config);
        }
        if let Some(drift) = drift {
            session = session.with_drift_bounds(drift)?;
        }
        Ok(session.with_id_suppression(suppress_ids))
    }

    /// Decodes a key file in either format: binary envelopes are sniffed
    /// by their `RBTS` magic, anything else is parsed as text.
    ///
    /// # Errors
    ///
    /// As [`from_bytes`](Self::from_bytes) / [`from_text`](Self::from_text);
    /// non-UTF-8 input without the magic reports [`CodecError::BadMagic`].
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        if bytes.starts_with(&codec::MAGIC) {
            return ReleaseSession::from_bytes(bytes);
        }
        match std::str::from_utf8(bytes) {
            Ok(text) => ReleaseSession::from_text(text),
            Err(_) => Err(CodecError::bad_magic(bytes).into()),
        }
    }
}

/// The exact byte content the text checksum covers: every non-empty
/// trimmed line so far, joined with `\n` (whitespace-only edits therefore
/// do not invalidate a file, semantic edits do).
fn text_checksum_content(body: &str) -> String {
    body.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Line cursor over the verified (pre-checksum) text lines.
struct Cursor<'a> {
    lines: &'a [&'a str],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<&'a str> {
        self.lines.get(self.pos).copied()
    }

    fn next_line(&mut self) -> Result<&'a str> {
        let line = self.peek().ok_or(CodecError::Text {
            line: self.pos + 1,
            message: "unexpected end of input".into(),
        })?;
        self.pos += 1;
        Ok(line)
    }

    /// Consumes a line expected to start with `tag` followed by exactly
    /// `n_fields` whitespace-separated fields; returns (1-based line
    /// number, fields).
    fn tagged_fields(&mut self, tag: &str, n_fields: usize) -> Result<(usize, Vec<String>)> {
        let line_no = self.pos + 1;
        let line = self.next_line()?;
        let mut parts = line.split_whitespace();
        if parts.next() != Some(tag) {
            return Err(CodecError::Text {
                line: line_no,
                message: format!("expected {tag:?} line, found {line:?}"),
            }
            .into());
        }
        let fields: Vec<String> = parts.map(str::to_string).collect();
        if fields.len() != n_fields {
            return Err(CodecError::Text {
                line: line_no,
                message: format!(
                    "{tag:?} line needs {n_fields} fields, found {}",
                    fields.len()
                ),
            }
            .into());
        }
        Ok((line_no, fields))
    }
}

/// Parses a `key=value` field.
fn parse_kv<T: std::str::FromStr>(field: &str, name: &str, line: usize) -> Result<T> {
    field
        .strip_prefix(name)
        .and_then(|rest| rest.strip_prefix('='))
        .and_then(|v| v.parse::<T>().ok())
        .ok_or_else(|| {
            CodecError::Text {
                line,
                message: format!("expected {name}=<value>, found {field:?}"),
            }
            .into()
        })
}

/// Parses a bare field.
fn parse_field<T: std::str::FromStr>(field: &str, name: &str, line: usize) -> Result<T> {
    field.parse::<T>().map_err(|_| {
        CodecError::Text {
            line,
            message: format!("bad {name}: {field:?}"),
        }
        .into()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::{RbtConfig, ThresholdPolicy};
    use crate::pairing::PairingStrategy;
    use crate::pipeline::Pipeline;
    use crate::security::PairwiseSecurityThreshold;
    use rand::SeedableRng;
    use rbt_data::{datasets, Normalization};

    /// The row block the large batches below are sized by.
    const CHUNK_ROWS: usize = 4096;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn pipeline() -> Pipeline {
        Pipeline::new(RbtConfig::uniform(
            PairwiseSecurityThreshold::uniform(0.25).unwrap(),
        ))
    }

    fn fitted_session() -> (ReleaseSession, crate::pipeline::PipelineOutput) {
        let raw = datasets::arrhythmia_sample();
        let out = pipeline().run(&raw, &mut rng(7)).unwrap();
        let session = ReleaseSession::from_pipeline_output(&out).unwrap();
        (session, out)
    }

    #[test]
    fn transform_batch_matches_one_shot_release_bitwise() {
        let (session, out) = fitted_session();
        let raw = datasets::arrhythmia_sample();
        let batch = session.transform_batch(&raw).unwrap();
        assert!(batch
            .released
            .matrix()
            .approx_eq(out.released.matrix(), 0.0));
        assert!(batch.released.ids().is_none());
        // And drift is zero on the fitting data itself.
        assert_eq!(batch.out_of_range_rows, 0);
    }

    #[test]
    fn invert_batch_recovers_raw_values() {
        let (session, _) = fitted_session();
        let raw = datasets::arrhythmia_sample();
        let batch = session.transform_batch(&raw).unwrap();
        let recovered = session.invert_batch(&batch.released).unwrap();
        assert!(recovered.matrix().approx_eq(raw.matrix(), 1e-9));
    }

    #[test]
    fn into_variants_match_allocating_paths_bitwise() {
        let (session, _) = fitted_session();
        let raw = datasets::arrhythmia_sample();
        let batch = session.transform_batch(&raw).unwrap();
        let mut out = Matrix::zeros(0, 0);
        let oor = session.transform_batch_into(&raw, &mut out).unwrap();
        assert!(out.approx_eq(batch.released.matrix(), 0.0));
        assert_eq!(oor, batch.out_of_range_rows);

        let recovered = session.invert_batch(&batch.released).unwrap();
        let mut inv = Matrix::zeros(0, 0);
        session
            .invert_batch_into(&batch.released, &mut inv)
            .unwrap();
        assert!(inv.approx_eq(recovered.matrix(), 0.0));
    }

    #[test]
    fn batches_keep_their_names_and_follow_the_id_policy() {
        let (session, _) = fitted_session();
        let raw = datasets::arrhythmia_sample();
        let n_rows = raw.n_rows() as u64;
        let raw = raw.with_ids((0..n_rows).collect()).unwrap();
        for suppress in [true, false] {
            let session = session.clone().with_id_suppression(suppress);
            let batch = session.transform_batch(&raw).unwrap();
            assert_eq!(batch.released.columns(), raw.columns());
            assert_eq!(batch.released.ids(), raw.ids().filter(|_| !suppress));
            let mut rows = raw.matrix().clone();
            let drifted = session.forward_rows(rows.as_mut_slice()).unwrap();
            assert_eq!(drifted, batch.out_of_range_rows);
            assert!(rows.approx_eq(batch.released.matrix(), 0.0));

            // Recovery keeps whatever IDs the released batch carries.
            let recovered = session.invert_batch(&batch.released).unwrap();
            assert_eq!(recovered.ids(), batch.released.ids());
            session.inverse_rows(rows.as_mut_slice()).unwrap();
            assert!(rows.approx_eq(recovered.matrix(), 0.0));
        }
    }

    #[test]
    fn row_kernels_match_the_batch_paths_on_any_row_split() {
        let (session, _) = fitted_session();
        let raw = datasets::arrhythmia_sample();
        // Half the rows shifted out of the fitted range, so drift counts.
        let mut shifted = raw.clone();
        for (i, v) in shifted.matrix_mut().as_mut_slice().iter_mut().enumerate() {
            if (i / 3).is_multiple_of(2) {
                *v += 500.0;
            }
        }
        let batch = session.transform_batch(&shifted).unwrap();
        assert!(batch.out_of_range_rows > 0);
        let recovered = session.invert_batch(&batch.released).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for rows_per_slice in [1, 2, 3, 7] {
            let mut values = shifted.matrix().as_slice().to_vec();
            let drifted: usize = values
                .chunks_mut(3 * rows_per_slice)
                .map(|rows| session.forward_rows(rows).unwrap())
                .sum();
            assert_eq!(drifted, batch.out_of_range_rows);
            assert_eq!(bits(&values), bits(batch.released.matrix().as_slice()));
            for rows in values.chunks_mut(3 * rows_per_slice) {
                session.inverse_rows(rows).unwrap();
            }
            assert_eq!(bits(&values), bits(recovered.matrix().as_slice()));
        }
        // A slice of partial rows is refused untouched.
        let mut partial = vec![1.0, 2.0, 3.0, 4.0];
        assert!(matches!(
            session.forward_rows(&mut partial),
            Err(Error::KeyMismatch(_))
        ));
        assert!(matches!(
            session.inverse_rows(&mut partial),
            Err(Error::KeyMismatch(_))
        ));
        assert_eq!(partial, [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn batches_crossing_chunk_boundaries_match_small_batches_bitwise() {
        // Two 4096-row blocks and 3 more rows, with outliers in each.
        let (session, _) = fitted_session();
        let raw = datasets::arrhythmia_sample();
        let rows = 2 * CHUNK_ROWS + 3;
        let outlier = |r: usize| r % 1000 == 999 || r == rows - 1;
        // All 125 combinations of the fitted column values stay in range;
        // the outliers, in every chunk, lie far outside it.
        let big = Matrix::from_row_iter((0..rows).map(|r| {
            let shift = if outlier(r) { 1e4 } else { 0.0 };
            (0..3)
                .map(|j| raw.matrix().row(r / 5usize.pow(j as u32) % 5)[j] + shift)
                .collect::<Vec<_>>()
        }))
        .unwrap();
        // (drift rows, output bits) of `m` sent in batches of `step` rows.
        let run = |m: &Matrix, step: usize, forward: bool| {
            let (mut drifted, mut bits, mut out) = (0, Vec::new(), Matrix::zeros(0, 0));
            for lo in (0..m.rows()).step_by(step) {
                let idx: Vec<usize> = (lo..(lo + step).min(m.rows())).collect();
                let part = Dataset::from_matrix(m.select_rows(&idx).unwrap());
                if forward {
                    drifted += session.transform_batch_into(&part, &mut out).unwrap();
                } else {
                    session.invert_batch_into(&part, &mut out).unwrap();
                }
                bits.extend(out.as_slice().iter().map(|v| v.to_bits()));
            }
            (drifted, bits)
        };
        let whole = run(&big, rows, true);
        assert_eq!(whole.0, (0..rows).filter(|&r| outlier(r)).count());
        // The row kernels release the same bits in place.
        let mut in_place = big.clone();
        let drifted = session.forward_rows(in_place.as_mut_slice()).unwrap();
        assert_eq!(drifted, whole.0);
        assert!(in_place
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .eq(whole.1.iter().copied()));
        assert!(run(&big, 97, true) == whole, "chunked release differs");
        let released = whole.1.into_iter().map(f64::from_bits).collect();
        let released = Matrix::from_vec(rows, 3, released).unwrap();
        assert!(
            run(&released, rows, false) == run(&released, 97, false),
            "chunked inverse differs"
        );
    }

    #[test]
    fn into_buffers_are_reused_across_batches() {
        let (session, _) = fitted_session();
        let raw = datasets::arrhythmia_sample();
        let mut out = Matrix::zeros(0, 0);
        session.transform_batch_into(&raw, &mut out).unwrap();
        let ptr = out.as_slice().as_ptr();
        for _ in 0..3 {
            session.transform_batch_into(&raw, &mut out).unwrap();
            assert_eq!(
                out.as_slice().as_ptr(),
                ptr,
                "same-shape batches must reuse the output allocation"
            );
        }
    }

    #[test]
    fn degenerate_columns_never_signal_drift() {
        // A constant column normalizes to a single value v, so the fitted
        // bounds collapse to [v, v]. Rows carrying exactly v must stay in
        // range — a degenerate column can never flag drift on its own.
        let normalized = Matrix::from_rows(&[&[0.0, -1.0], &[0.0, 0.5], &[0.0, 1.0]]).unwrap();
        let bounds = DriftBounds::from_normalized(&normalized).unwrap();
        for row in normalized.row_iter() {
            assert!(bounds.row_in_range(row));
        }
        // Drift in the non-degenerate column is still caught, and any
        // deviation in the degenerate one is too.
        assert!(!bounds.row_in_range(&[0.0, 2.0]));
        assert!(!bounds.row_in_range(&[1e-300, 0.0]));
    }

    #[test]
    fn out_of_sample_rows_are_flagged_as_drift() {
        let (session, _) = fitted_session();
        // A record far outside the fitted value ranges.
        let outlier = Dataset::new(
            Matrix::from_rows(&[&[1e4, 1e4, 1e4], &[75.0, 80.0, 63.0]]).unwrap(),
            datasets::ARRHYTHMIA_COLUMNS
                .iter()
                .map(|s| s.to_string())
                .collect(),
        )
        .unwrap();
        let batch = session.transform_batch(&outlier).unwrap();
        assert_eq!(batch.released.n_rows(), 2);
        assert_eq!(batch.out_of_range_rows, 1);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let (session, _) = fitted_session();
        let empty = Dataset::from_matrix(Matrix::zeros(0, 3));
        let batch = session.transform_batch(&empty).unwrap();
        assert_eq!(batch.released.n_rows(), 0);
        assert_eq!(batch.out_of_range_rows, 0);
    }

    #[test]
    fn shape_mismatch_is_typed() {
        let (session, _) = fitted_session();
        let wrong = Dataset::from_matrix(Matrix::zeros(2, 5));
        assert!(matches!(
            session.transform_batch(&wrong),
            Err(Error::KeyMismatch(_))
        ));
        assert!(matches!(
            session.invert_batch(&wrong),
            Err(Error::KeyMismatch(_))
        ));
    }

    #[test]
    fn new_rejects_mismatched_secrets() {
        let (_, out) = fitted_session();
        let other = Normalization::zscore_paper()
            .fit(&Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 5.0]]).unwrap())
            .unwrap();
        assert!(matches!(
            ReleaseSession::new(out.key.clone(), other),
            Err(Error::KeyMismatch(_))
        ));
    }

    fn assert_sessions_equal(a: &ReleaseSession, b: &ReleaseSession) {
        assert_eq!(a.key(), b.key());
        assert_eq!(a.normalizer(), b.normalizer());
        assert_eq!(a.config(), b.config());
        assert_eq!(a.drift_bounds(), b.drift_bounds());
        assert_eq!(a.suppresses_ids(), b.suppresses_ids());
    }

    #[test]
    fn binary_round_trip_preserves_everything() {
        let (session, _) = fitted_session();
        let session = session.with_config(
            RbtConfig::uniform(PairwiseSecurityThreshold::uniform(0.25).unwrap())
                .with_pairing(PairingStrategy::Explicit(vec![(0, 2), (1, 0)]))
                .with_thresholds(ThresholdPolicy::PerPair(vec![
                    crate::paper::pst1(),
                    crate::paper::pst2(),
                ])),
        );
        let bytes = session.to_bytes();
        let back = ReleaseSession::from_bytes(&bytes).unwrap();
        assert_sessions_equal(&back, &session);
        // decode() sniffs the magic.
        assert_sessions_equal(&ReleaseSession::decode(&bytes).unwrap(), &session);
    }

    #[test]
    fn text_round_trip_preserves_everything() {
        let (session, _) = fitted_session();
        let session = session
            .with_config(RbtConfig::uniform(
                PairwiseSecurityThreshold::uniform(0.25).unwrap(),
            ))
            .with_id_suppression(false);
        let text = session.to_text();
        assert!(text.starts_with("rbt-session v1\n"));
        let back = ReleaseSession::from_text(&text).unwrap();
        assert_sessions_equal(&back, &session);
        assert_sessions_equal(&ReleaseSession::decode(text.as_bytes()).unwrap(), &session);
        // The decoded session transforms bit-identically.
        let raw = datasets::arrhythmia_sample();
        assert!(session
            .transform_batch(&raw)
            .unwrap()
            .released
            .matrix()
            .approx_eq(back.transform_batch(&raw).unwrap().released.matrix(), 0.0));
    }

    #[test]
    fn text_round_trip_preserves_method_tag_for_every_normalization() {
        // The advisory normalization method must survive the text form for
        // every shipped method — population/robust fits produce z-score-
        // shaped parameters that the tag alone distinguishes.
        let raw = datasets::arrhythmia_sample();
        for method in [
            Normalization::zscore_paper(),
            Normalization::ZScore {
                mode: VarianceMode::Population,
            },
            Normalization::min_max_unit(),
            Normalization::DecimalScaling,
            Normalization::RobustZScore,
        ] {
            // A small threshold: min–max/decimal scaling shrink variances
            // well below the z-score tests' 0.25.
            let out = Pipeline::new(RbtConfig::uniform(
                PairwiseSecurityThreshold::uniform(1e-4).unwrap(),
            ))
            .with_normalization(method)
            .run(&raw, &mut rng(13))
            .unwrap();
            let session = ReleaseSession::from_pipeline_output(&out).unwrap();
            let text = session.to_text();
            let back = ReleaseSession::from_text(&text).unwrap();
            assert_eq!(
                back.normalizer().method(),
                method,
                "method tag lost through session text form"
            );
            assert_sessions_equal(&back, &session);
        }
    }

    #[test]
    fn text_tampering_is_detected() {
        let (session, _) = fitted_session();
        let text = session.to_text();
        // Flip one digit of the first rotation angle.
        let tampered = text.replacen("rotate 0", "rotate 1", 1);
        assert!(matches!(
            ReleaseSession::from_text(&tampered),
            Err(Error::Codec(CodecError::ChecksumMismatch { .. }))
        ));
        // Corrupt the checksum itself.
        let idx = text.rfind("checksum ").unwrap() + "checksum ".len();
        let mut broken = text.clone().into_bytes();
        broken[idx] = if broken[idx] == b'0' { b'1' } else { b'0' };
        assert!(ReleaseSession::from_text(std::str::from_utf8(&broken).unwrap()).is_err());
        // Dropped line.
        let dropped: String = text
            .lines()
            .filter(|l| !l.starts_with("suppress-ids"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(ReleaseSession::from_text(&dropped).is_err());
        // Future version (valid checksum, bumped header).
        let future = {
            let body: String = text
                .lines()
                .filter(|l| !l.starts_with("checksum"))
                .map(|l| format!("{l}\n"))
                .collect::<String>()
                .replacen("rbt-session v1", "rbt-session v9", 1);
            let sum = crc32(text_checksum_content(&body).as_bytes());
            format!("{body}checksum {sum:08x}\n")
        };
        assert!(matches!(
            ReleaseSession::from_text(&future),
            Err(Error::Codec(CodecError::UnsupportedVersion { found: 9 }))
        ));
    }

    #[test]
    fn whitespace_edits_do_not_break_the_checksum() {
        let (session, _) = fitted_session();
        let text = session.to_text();
        let padded: String = text.lines().flat_map(|l| ["  ", l, "  \n", "\n"]).collect();
        let back = ReleaseSession::from_text(&padded).unwrap();
        assert_eq!(back.key(), session.key());
    }

    #[test]
    fn drift_bounds_validation() {
        assert!(DriftBounds::new(vec![], vec![]).is_err());
        assert!(DriftBounds::new(vec![0.0], vec![1.0, 2.0]).is_err());
        assert!(DriftBounds::new(vec![2.0], vec![1.0]).is_err());
        let b = DriftBounds::new(vec![0.0, -1.0], vec![1.0, 1.0]).unwrap();
        assert!(b.row_in_range(&[0.5, 0.0]));
        assert!(!b.row_in_range(&[1.5, 0.0]));
        assert!(!b.row_in_range(&[f64::NAN, 0.0]));
        assert!(!b.row_in_range(&[0.5]));
    }
}
