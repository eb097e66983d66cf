//! Dense row-major matrix of `f64` values.
//!
//! This is the *data matrix* of §3.2 of the paper: `m` rows (objects) by `n`
//! columns (attributes). Storage is a single contiguous `Vec<f64>` in
//! row-major order, which keeps row access (the hot path for distance
//! computations) cache-friendly.
//!
//! RBT and hybrid isometry rotate or reflect attribute pairs with one
//! primitive, the row sweep [`apply_steps_in_rows`] of 2×2 [`PairStep`]s:
//! key fits (one step at a time), key application, release sessions and
//! federated owners all run it, so they agree bit for bit by construction.
//! The per-column `Rotation2::apply_columns` and
//! `Reflection2::apply_columns` are the tests' references for it.

use crate::{Error, Result};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `m × n` matrix of `f64`.
///
/// Rows represent objects and columns represent attributes, matching the
/// paper's data-matrix convention (Eq. 2).
///
/// # Example
///
/// ```
/// use rbt_linalg::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// assert_eq!(m.shape(), (2, 2));
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.column(1), vec![2.0, 4.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates an `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates an `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 0.0)
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(Error::DimensionMismatch {
                expected: format!("{rows}x{cols} = {} elements", rows * cols),
                found: format!("{} elements", data.len()),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Empty`] if `rows` is empty and
    /// [`Error::DimensionMismatch`] if the rows are ragged.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let first = rows.first().ok_or(Error::Empty)?;
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(Error::DimensionMismatch {
                    expected: format!("row of length {cols}"),
                    found: format!("row {i} of length {}", row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix from an iterator of owned rows.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Matrix::from_rows`].
    pub fn from_row_iter<I, R>(iter: I) -> Result<Self>
    where
        I: IntoIterator<Item = R>,
        R: AsRef<[f64]>,
    {
        let mut data = Vec::new();
        let mut cols = None;
        let mut rows = 0usize;
        for row in iter {
            let row = row.as_ref();
            match cols {
                None => cols = Some(row.len()),
                Some(c) if c != row.len() => {
                    return Err(Error::DimensionMismatch {
                        expected: format!("row of length {c}"),
                        found: format!("row {rows} of length {}", row.len()),
                    })
                }
                _ => {}
            }
            data.extend_from_slice(row);
            rows += 1;
        }
        let cols = cols.ok_or(Error::Empty)?;
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix from columns instead of rows.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Empty`] for no columns, [`Error::DimensionMismatch`]
    /// for ragged columns.
    pub fn from_columns(columns: &[&[f64]]) -> Result<Self> {
        let first = columns.first().ok_or(Error::Empty)?;
        let rows = first.len();
        for (j, col) in columns.iter().enumerate() {
            if col.len() != rows {
                return Err(Error::DimensionMismatch {
                    expected: format!("column of length {rows}"),
                    found: format!("column {j} of length {}", col.len()),
                });
            }
        }
        let cols = columns.len();
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for col in columns {
                data.push(col[i]);
            }
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows (objects).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (attributes).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` if the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of the flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow of row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a freshly allocated `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn column(&self, j: usize) -> Vec<f64> {
        assert!(
            j < self.cols,
            "column index {j} out of bounds ({})",
            self.cols
        );
        (0..self.rows)
            .map(|i| self.data[i * self.cols + j])
            .collect()
    }

    /// Allocation-free strided iterator over column `j`.
    ///
    /// The iterator is `Clone`, so two-pass statistics (mean, then centred
    /// moments) can re-walk the column without materialising it, unlike
    /// the `Vec`-allocating [`column`](Self::column).
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn column_iter(&self, j: usize) -> impl ExactSizeIterator<Item = f64> + Clone + '_ {
        assert!(
            j < self.cols,
            "column index {j} out of bounds ({})",
            self.cols
        );
        // `get` instead of slicing: a 0×n matrix has an empty buffer, and
        // `data[j..]` would panic for j > 0 there.
        self.data
            .get(j..)
            .unwrap_or(&[])
            .iter()
            .step_by(self.cols)
            .copied()
    }

    /// Copies column `j` into `out` (clearing it first), avoiding an
    /// allocation when a workhorse buffer is available.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn column_into(&self, j: usize, out: &mut Vec<f64>) {
        assert!(
            j < self.cols,
            "column index {j} out of bounds ({})",
            self.cols
        );
        out.clear();
        out.extend((0..self.rows).map(|i| self.data[i * self.cols + j]));
    }

    /// Overwrites column `j` with `values`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `values.len() != rows`;
    /// [`Error::IndexOutOfBounds`] if `j >= cols`.
    pub fn set_column(&mut self, j: usize, values: &[f64]) -> Result<()> {
        if j >= self.cols {
            return Err(Error::IndexOutOfBounds {
                index: j,
                bound: self.cols,
            });
        }
        if values.len() != self.rows {
            return Err(Error::DimensionMismatch {
                expected: format!("{} values", self.rows),
                found: format!("{} values", values.len()),
            });
        }
        for (i, &v) in values.iter().enumerate() {
            self.data[i * self.cols + j] = v;
        }
        Ok(())
    }

    /// Iterator over rows as slices.
    pub fn row_iter(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Rows of the left operand processed per outer panel of
    /// [`matmul`](Self::matmul); a 128-row × 512-col f64 panel is 512 KiB,
    /// comfortably L2-resident alongside the `rhs` column panel it is
    /// multiplied against.
    const MATMUL_ROW_PANEL: usize = 128;
    /// Register-tile height of the matmul micro-kernel (rows of output
    /// accumulated in locals per pass).
    const MATMUL_MR: usize = 4;
    /// Register-tile width of the matmul micro-kernel — 8 f64 is one full
    /// AVX-512 register (two AVX2 registers), so a 4×8 tile keeps the
    /// accumulators and the broadcast `a` values entirely in registers.
    const MATMUL_NR: usize = 8;

    /// Matrix product `self * rhs`.
    ///
    /// Register-blocked: the output is computed in 4×8 tiles, each held in
    /// local accumulators for the whole `k` loop, so every multiply-add
    /// hits registers instead of the output buffer and the 8-wide rows
    /// auto-vectorize. Each `rhs` column panel is packed into a contiguous
    /// scratch buffer before its tiles run — the panel's rows sit one full
    /// matrix row apart, and at power-of-two widths that stride aliases a
    /// handful of cache sets, which is exactly the size class this path
    /// exists for. An outer 128-row panel over `self` keeps the re-walked
    /// left operand L2-resident.
    ///
    /// For each output element `k` increases monotonically and the tile
    /// accumulator starts from the same `0.0` the zeroed output buffer
    /// provides, so the operation sequence per element is exactly that of
    /// [`matmul_naive`](Self::matmul_naive) — with one deliberate
    /// difference: the micro-kernel accumulates every term, including
    /// products with a zero left operand that the naive loop skips. For
    /// finite operands that cannot change a single bit: a `±0.0` product
    /// added to an accumulator leaves it unchanged, because a sum that
    /// starts at `+0.0` can never become `-0.0` (IEEE-754 round-to-nearest
    /// gives `x + (−x) = +0.0` and `+0.0 + −0.0 = +0.0`). The property
    /// suite pins blocked ≡ naive bit-for-bit on zero-laden inputs.
    /// Operands that fit in cache skip the tile bookkeeping and take the
    /// straight loops, which is safe precisely because the two paths agree
    /// bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `self.cols != rhs.rows`.
    // Indexed loops mirror the naive kernel; iterator chains here would
    // obscure the accumulation-order argument above.
    #[allow(clippy::needless_range_loop)]
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(Error::DimensionMismatch {
                expected: format!("rhs with {} rows", self.cols),
                found: format!("rhs with {} rows", rhs.rows),
            });
        }
        if self.rows.max(self.cols).max(rhs.cols) <= 512 {
            return self.matmul_naive(rhs);
        }
        let (n, rc) = (self.cols, rhs.cols);
        let mut out = Matrix::zeros(self.rows, rc);
        const MR: usize = Matrix::MATMUL_MR;
        const NR: usize = Matrix::MATMUL_NR;
        let mut packed = vec![0.0f64; n * NR];
        for ii0 in (0..self.rows).step_by(Self::MATMUL_ROW_PANEL) {
            let i_hi = (ii0 + Self::MATMUL_ROW_PANEL).min(self.rows);
            let mut jj = 0usize;
            while jj + NR <= rc {
                // Pack the column panel: bit-identical values, contiguous
                // layout (see the cache-aliasing note above).
                for k in 0..n {
                    packed[k * NR..k * NR + NR]
                        .copy_from_slice(&rhs.data[k * rc + jj..k * rc + jj + NR]);
                }
                let mut ii = ii0;
                while ii + MR <= i_hi {
                    let mut acc = [[0.0f64; NR]; MR];
                    for k in 0..n {
                        let brow = &packed[k * NR..k * NR + NR];
                        for (r, accr) in acc.iter_mut().enumerate() {
                            let a = self.data[(ii + r) * n + k];
                            for (o, &b) in accr.iter_mut().zip(brow) {
                                *o += a * b;
                            }
                        }
                    }
                    for (r, accr) in acc.iter().enumerate() {
                        let dst = (ii + r) * rc + jj;
                        out.data[dst..dst + NR].copy_from_slice(accr);
                    }
                    ii += MR;
                }
                // Panel rows left over below the MR tile height: 1×8 tiles.
                for i in ii..i_hi {
                    let mut acc = [0.0f64; NR];
                    for k in 0..n {
                        let a = self.data[i * n + k];
                        let brow = &packed[k * NR..k * NR + NR];
                        for (o, &b) in acc.iter_mut().zip(brow) {
                            *o += a * b;
                        }
                    }
                    let dst = i * rc + jj;
                    out.data[dst..dst + NR].copy_from_slice(&acc);
                }
                jj += NR;
            }
            // Columns left over below the NR tile width: straight i-k-j
            // accumulation into the (already zeroed) output — same per-
            // element operation sequence again.
            if jj < rc {
                for i in ii0..i_hi {
                    let a_row = &self.data[i * n..(i + 1) * n];
                    for k in 0..n {
                        let a = a_row[k];
                        let brow = &rhs.data[k * rc + jj..(k + 1) * rc];
                        let out_row = &mut out.data[i * rc + jj..(i + 1) * rc];
                        for (o, &b) in out_row.iter_mut().zip(brow) {
                            *o += a * b;
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Unblocked reference implementation of [`matmul`](Self::matmul)
    /// (straight `i-k-j` loops). Kept public so property tests and the
    /// kernel benches can compare the blocked product against it — the two
    /// share one accumulation order and agree bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `self.cols != rhs.rows`.
    pub fn matmul_naive(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(Error::DimensionMismatch {
                expected: format!("rhs with {} rows", self.cols),
                found: format!("rhs with {} rows", rhs.rows),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Applies the plane rotation `[c s; -s c]` to **rows** `i` and `j` in
    /// place: `(rowᵢ, rowⱼ) ← (c·rowᵢ + s·rowⱼ, −s·rowᵢ + c·rowⱼ)`.
    ///
    /// Left-multiplying by the Givens matrix `G(i, j, θ)` only changes rows
    /// `i` and `j`, so composing a sequence of plane rotations into one
    /// orthogonal matrix needs O(n) work per step with this sweep instead
    /// of an O(n³) (or zero-skipping O(n²)) full matmul — the accumulation
    /// order per element matches the `G.matmul(acc)` it replaces.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] if either row index is out of
    /// range and [`Error::InvalidArgument`] if `i == j`.
    pub fn rotate_row_pair(&mut self, i: usize, j: usize, c: f64, s: f64) -> Result<()> {
        if i == j {
            return Err(Error::InvalidArgument(
                "plane rotation requires two distinct rows".into(),
            ));
        }
        for &k in &[i, j] {
            if k >= self.rows {
                return Err(Error::IndexOutOfBounds {
                    index: k,
                    bound: self.rows,
                });
            }
        }
        let cols = self.cols;
        let (lo, hi) = (i.min(j), i.max(j));
        let (head, tail) = self.data.split_at_mut(hi * cols);
        let row_lo = &mut head[lo * cols..(lo + 1) * cols];
        let row_hi = &mut tail[..cols];
        // Orient so the arithmetic matches (rowᵢ, rowⱼ) regardless of which
        // index is smaller.
        let (row_i, row_j) = if i < j {
            (row_lo, row_hi)
        } else {
            (row_hi, row_lo)
        };
        for (x, y) in row_i.iter_mut().zip(row_j.iter_mut()) {
            let nx = *x * c + *y * s;
            let ny = -*x * s + *y * c;
            *x = nx;
            *y = ny;
        }
        Ok(())
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `v.len() != cols`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(Error::DimensionMismatch {
                expected: format!("vector of length {}", self.cols),
                found: format!("vector of length {}", v.len()),
            });
        }
        Ok(self
            .row_iter()
            .map(|row| row.iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise difference `self - rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] on shape mismatch.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(Error::DimensionMismatch {
                expected: format!("{}x{}", self.rows, self.cols),
                found: format!("{}x{}", rhs.rows, rhs.cols),
            });
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        })
    }

    /// Maximum absolute element-wise difference between two same-shape
    /// matrices; `None` on shape mismatch.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> Option<f64> {
        if self.shape() != rhs.shape() {
            return None;
        }
        Some(
            self.data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max),
        )
    }

    /// `true` if every element of the two matrices differs by at most `tol`.
    pub fn approx_eq(&self, rhs: &Matrix, tol: f64) -> bool {
        matches!(self.max_abs_diff(rhs), Some(d) if d <= tol)
    }

    /// `true` if the matrix is symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Returns a new matrix consisting of the selected columns, in order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] if any index is out of range and
    /// [`Error::Empty`] if `indices` is empty.
    pub fn select_columns(&self, indices: &[usize]) -> Result<Matrix> {
        if indices.is_empty() {
            return Err(Error::Empty);
        }
        for &j in indices {
            if j >= self.cols {
                return Err(Error::IndexOutOfBounds {
                    index: j,
                    bound: self.cols,
                });
            }
        }
        let mut data = Vec::with_capacity(self.rows * indices.len());
        for i in 0..self.rows {
            let row = self.row(i);
            data.extend(indices.iter().map(|&j| row[j]));
        }
        Ok(Matrix {
            rows: self.rows,
            cols: indices.len(),
            data,
        })
    }

    /// Returns a new matrix consisting of the selected rows, in order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] if any index is out of range and
    /// [`Error::Empty`] if `indices` is empty.
    pub fn select_rows(&self, indices: &[usize]) -> Result<Matrix> {
        if indices.is_empty() {
            return Err(Error::Empty);
        }
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            if i >= self.rows {
                return Err(Error::IndexOutOfBounds {
                    index: i,
                    bound: self.rows,
                });
            }
            data.extend_from_slice(self.row(i));
        }
        Ok(Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        })
    }

    /// Appends a row to the bottom of the matrix.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `row.len() != cols`.
    pub fn push_row(&mut self, row: &[f64]) -> Result<()> {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        if row.len() != self.cols {
            return Err(Error::DimensionMismatch {
                expected: format!("row of length {}", self.cols),
                found: format!("row of length {}", row.len()),
            });
        }
        self.data.extend_from_slice(row);
        self.rows += 1;
        Ok(())
    }

    /// Frobenius norm `sqrt(sum of squares)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// `true` when any element is NaN or infinite. Numerical algorithms in
    /// this workspace validate with this at their API boundary rather than
    /// silently propagating NaNs.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Overwrites `self` with the shape and contents of `src`, reusing the
    /// existing buffer when it has capacity.
    ///
    /// This is the allocation-free analogue of `*self = src.clone()`: after
    /// the first fill a caller-owned output matrix absorbs batch after
    /// batch without touching the allocator, which is what the
    /// release-session `*_into` streaming APIs lean on.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }
}

/// One step of a row sweep: the 2×2 map
/// `(xᵢ, xⱼ) ← (xᵢ·a + xⱼ·b, xᵢ·c + xⱼ·d)` on columns `i` and `j` of a row,
/// with `m = [a, b, c, d]`.
///
/// Both isometries the workspace releases with are such a step (build them
/// with [`Rotation2::step`](crate::Rotation2::step) and
/// [`Reflection2::step`](crate::rotation::Reflection2::step)): a rotation
/// is `[c, s, −s, c]` and a reflection `[c₂, s₂, s₂, −c₂]`. On every
/// non-NaN input the step reproduces
/// [`Rotation2::apply_columns`](crate::Rotation2::apply_columns) and
/// [`Reflection2::apply_columns`](crate::rotation::Reflection2::apply_columns)
/// on the extracted columns bit for bit, because IEEE negation is exact and
/// `p − q` equals `p + (−q)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairStep {
    /// First column of the pair.
    pub i: usize,
    /// Second column of the pair.
    pub j: usize,
    /// `[a, b, c, d]`, row-major.
    pub m: [f64; 4],
}

/// Applies a whole sequence of 2×2 [`PairStep`]s — a transformation key's
/// rotations, or a hybrid isometry key's rotations and reflections — to
/// every row of a row-major slice of complete rows.
///
/// Instead of one whole-slice pass per step (`steps.len()` trips through
/// memory), rows are processed in blocks of four and each block receives
/// *all* steps while it is hot in registers/L1: one trip through memory no
/// matter how many steps the key holds. Every `(row, step)` update touches
/// only that row's elements `i` and `j`, and the per-row step order is
/// unchanged, so any row split gives the same bits — the property suite
/// pins the sweep against applying each step to extracted columns with
/// `Rotation2::apply_columns` or `Reflection2::apply_columns`. This is the
/// transform hot path of the release session, of `rbt_core`'s
/// `Key::{apply, invert}` (RBT and hybrid isometry keys alike), and, one
/// step at a time, the rotation of every key fit and of a federated
/// owner's block.
///
/// Rows whose tail does not fill a complete `n_cols` stride are ignored;
/// callers are expected to pass `rows.len() % n_cols == 0` (debug-asserted).
///
/// # Panics
///
/// Debug-asserts every step's columns in range and distinct; release
/// builds index out of bounds (and panic) for invalid indices, so validate
/// upstream.
pub fn apply_steps_in_rows(rows: &mut [f64], n_cols: usize, steps: &[PairStep]) {
    debug_assert!(n_cols > 0 && rows.len().is_multiple_of(n_cols));
    debug_assert!(steps
        .iter()
        .all(|st| st.i < n_cols && st.j < n_cols && st.i != st.j));
    let mut quads = rows.chunks_exact_mut(4 * n_cols);
    for quad in &mut quads {
        let (r0, rest) = quad.split_at_mut(n_cols);
        let (r1, rest) = rest.split_at_mut(n_cols);
        let (r2, r3) = rest.split_at_mut(n_cols);
        for st in steps {
            step_in_row(r0, st);
            step_in_row(r1, st);
            step_in_row(r2, st);
            step_in_row(r3, st);
        }
    }
    for row in quads.into_remainder().chunks_exact_mut(n_cols) {
        for st in steps {
            step_in_row(row, st);
        }
    }
}

/// One row's [`PairStep`] update.
#[inline(always)]
fn step_in_row(row: &mut [f64], st: &PairStep) {
    let [a, b, c, d] = st.m;
    let x = row[st.i];
    let y = row[st.j];
    row[st.i] = x * a + y * b;
    row[st.j] = x * c + y * d;
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self[(i, j)])?;
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn from_rows_shape_and_index() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 2)], 6.0);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, Error::DimensionMismatch { .. }));
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert_eq!(Matrix::from_rows(&[]).unwrap_err(), Error::Empty);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn from_columns_round_trips() {
        let m = Matrix::from_columns(&[&[1.0, 4.0], &[2.0, 5.0], &[3.0, 6.0]]).unwrap();
        assert_eq!(m, sample());
    }

    #[test]
    fn from_row_iter_matches_from_rows() {
        let m = Matrix::from_row_iter(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m, sample());
    }

    #[test]
    fn column_extraction() {
        let m = sample();
        assert_eq!(m.column(0), vec![1.0, 4.0]);
        assert_eq!(m.column(2), vec![3.0, 6.0]);
        let mut buf = vec![0.0; 17];
        m.column_into(1, &mut buf);
        assert_eq!(buf, vec![2.0, 5.0]);
    }

    #[test]
    fn set_column_overwrites() {
        let mut m = sample();
        m.set_column(1, &[9.0, 8.0]).unwrap();
        assert_eq!(m.column(1), vec![9.0, 8.0]);
        assert!(m.set_column(9, &[1.0, 2.0]).is_err());
        assert!(m.set_column(0, &[1.0]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (3, 2));
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = sample();
        let id = Matrix::identity(3);
        assert_eq!(m.matmul(&id).unwrap(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = sample();
        assert!(a.matmul(&sample()).is_err());
    }

    #[test]
    fn matvec_known() {
        let m = sample();
        assert_eq!(m.matvec(&[1.0, 0.0, -1.0]).unwrap(), vec![-2.0, -2.0]);
        assert!(m.matvec(&[1.0]).is_err());
    }

    #[test]
    fn sub_and_max_abs_diff() {
        let a = sample();
        let b = a.map(|x| x + 0.5);
        let d = b.sub(&a).unwrap();
        assert!(d.as_slice().iter().all(|&x| (x - 0.5).abs() < 1e-12));
        assert!((a.max_abs_diff(&b).unwrap() - 0.5).abs() < 1e-12);
        assert!(a.approx_eq(&b, 0.5 + 1e-9));
        assert!(!a.approx_eq(&b, 0.4));
    }

    #[test]
    fn symmetric_check() {
        let s = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 3.0]]).unwrap();
        assert!(s.is_symmetric(0.0));
        let ns = Matrix::from_rows(&[&[1.0, 2.0], &[2.1, 3.0]]).unwrap();
        assert!(!ns.is_symmetric(1e-3));
        assert!(!sample().is_symmetric(1.0));
    }

    #[test]
    fn select_columns_and_rows() {
        let m = sample();
        let c = m.select_columns(&[2, 0]).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[3.0, 1.0], &[6.0, 4.0]]).unwrap());
        let r = m.select_rows(&[1]).unwrap();
        assert_eq!(r, Matrix::from_rows(&[&[4.0, 5.0, 6.0]]).unwrap());
        assert!(m.select_columns(&[5]).is_err());
        assert!(m.select_rows(&[5]).is_err());
        assert!(m.select_columns(&[]).is_err());
    }

    #[test]
    fn push_row_grows() {
        let mut m = Matrix::zeros(0, 0);
        m.push_row(&[1.0, 2.0]).unwrap();
        m.push_row(&[3.0, 4.0]).unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert!(m.push_row(&[1.0]).is_err());
    }

    #[test]
    fn frobenius_norm_known() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn row_iter_yields_rows() {
        let m = sample();
        let rows: Vec<&[f64]> = m.row_iter().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn non_finite_detection() {
        let mut m = sample();
        assert!(!m.has_non_finite());
        m[(0, 1)] = f64::NAN;
        assert!(m.has_non_finite());
        m[(0, 1)] = f64::INFINITY;
        assert!(m.has_non_finite());
        m[(0, 1)] = 2.0;
        assert!(!m.has_non_finite());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = sample();
        let _ = m[(2, 0)];
    }

    #[test]
    fn column_iter_matches_column() {
        let m = sample();
        for j in 0..m.cols() {
            let via_iter: Vec<f64> = m.column_iter(j).collect();
            assert_eq!(via_iter, m.column(j));
        }
        assert_eq!(m.column_iter(1).len(), 2);
        // Clone allows a second pass without re-borrowing.
        let it = m.column_iter(0);
        assert_eq!(it.clone().sum::<f64>(), it.sum::<f64>());
        // Degenerate 0×n matrix: empty iterator, no panic.
        let empty = Matrix::zeros(0, 3);
        assert_eq!(empty.column_iter(2).count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn column_iter_rejects_bad_index() {
        let _ = sample().column_iter(3);
    }

    #[test]
    fn blocked_matmul_bitwise_equals_naive() {
        // At least one dimension above the 512 dispatch threshold (so the
        // register-blocked path really runs), straddling the 4×8 tile and
        // 128-row panel boundaries in each position, plus zeros so naive's
        // zero-skip is exercised against the micro-kernel's explicit
        // accumulate. Small shapes cover the dispatch-to-naive case.
        for (r, k, c) in [
            (3, 5, 4),
            (65, 70, 67),
            (5, 520, 70),
            (600, 70, 3),
            (70, 65, 580),
            (1, 530, 3),
        ] {
            let a = Matrix::from_vec(
                r,
                k,
                (0..r * k)
                    .map(|t| {
                        if t % 7 == 0 {
                            0.0
                        } else {
                            ((t as f64) * 0.61).sin()
                        }
                    })
                    .collect(),
            )
            .unwrap();
            let b = Matrix::from_vec(
                k,
                c,
                (0..k * c).map(|t| ((t as f64) * 0.37).cos()).collect(),
            )
            .unwrap();
            let blocked = a.matmul(&b).unwrap();
            let naive = a.matmul_naive(&b).unwrap();
            assert_eq!(blocked, naive, "{r}x{k} * {k}x{c}");
        }
        assert!(sample().matmul_naive(&sample()).is_err());
    }

    #[test]
    fn copy_from_reuses_buffer_and_matches_clone() {
        let src = sample();
        let mut dst = Matrix::zeros(7, 5); // larger: capacity covers src
        dst.copy_from(&src);
        assert_eq!(dst, src);
        let ptr_before = dst.as_slice().as_ptr();
        let bigger = Matrix::from_vec(2, 2, vec![9.0; 4]).unwrap();
        dst.copy_from(&bigger);
        assert_eq!(dst, bigger);
        assert_eq!(ptr_before, dst.as_slice().as_ptr(), "refill reallocated");
        // Degenerate source shapes round-trip too.
        dst.copy_from(&Matrix::zeros(0, 3));
        assert_eq!(dst.shape(), (0, 3));
        assert!(dst.is_empty());
    }

    #[test]
    fn fused_steps_sweep_bitwise_equals_extract_rotate_writeback() {
        // Row counts around the 4-row block (remainder tail), multiple
        // steps re-using columns so later steps see earlier steps' output.
        use crate::Rotation2;
        let steps = [(0usize, 2usize, 323.13f64), (1, 3, 73.74), (2, 1, 126.87)];
        for rows in [0usize, 1, 3, 4, 5, 8, 11] {
            let data: Vec<f64> = (0..rows * 4).map(|t| ((t as f64) * 0.83).sin()).collect();
            let mut fused = data.clone();
            let sweep: Vec<PairStep> = steps
                .iter()
                .map(|&(i, j, theta)| Rotation2::from_degrees(theta).step(i, j))
                .collect();
            apply_steps_in_rows(&mut fused, 4, &sweep);
            let mut reference = Matrix::from_vec(rows, 4, data).unwrap();
            for &(i, j, theta) in &steps {
                let (mut xs, mut ys) = (reference.column(i), reference.column(j));
                Rotation2::from_degrees(theta)
                    .apply_columns(&mut xs, &mut ys)
                    .unwrap();
                reference.set_column(i, &xs).unwrap();
                reference.set_column(j, &ys).unwrap();
            }
            let fused_bits: Vec<u64> = fused.iter().map(|x| x.to_bits()).collect();
            let ref_bits: Vec<u64> = reference.as_slice().iter().map(|x| x.to_bits()).collect();
            assert_eq!(fused_bits, ref_bits, "rows {rows}");
        }
    }

    #[test]
    fn rotate_row_pair_matches_givens_matmul() {
        use crate::rotation::{givens, Rotation2};
        let rot = Rotation2::from_degrees(147.29);
        let (s, c) = rot.radians().sin_cos();
        let acc =
            Matrix::from_vec(4, 4, (0..16).map(|t| ((t as f64) * 1.1).sin()).collect()).unwrap();
        for (i, j) in [(0usize, 2usize), (3, 1)] {
            let mut fused = acc.clone();
            fused.rotate_row_pair(i, j, c, s).unwrap();
            let g = givens(4, i, j, &rot).unwrap();
            let reference = g.matmul(&acc).unwrap();
            assert_eq!(fused, reference, "pair ({i},{j})"); // bit-for-bit
        }
    }

    #[test]
    fn rotate_row_pair_validates() {
        let mut m = sample();
        assert!(m.rotate_row_pair(1, 1, 1.0, 0.0).is_err());
        assert!(m.rotate_row_pair(0, 5, 1.0, 0.0).is_err());
    }
}
