//! The labelled data-matrix container.
//!
//! A [`Dataset`] is the paper's data matrix (§3.2) plus the metadata the
//! running example carries: named attributes and optional object IDs
//! (Table 1's `ID` column). Suppressing the IDs is Step 2 of the paper's
//! privacy-preservation process (§5.3, *data anonymization*).

use crate::{Error, Result};
use rbt_linalg::Matrix;
use std::fmt;

/// A data matrix with named columns and optional per-row object IDs.
///
/// # Example
///
/// ```
/// use rbt_data::Dataset;
/// use rbt_linalg::Matrix;
///
/// let m = Matrix::from_rows(&[&[75.0, 63.0], &[56.0, 53.0]]).unwrap();
/// let ds = Dataset::new(m, vec!["age".into(), "heart_rate".into()]).unwrap()
///     .with_ids(vec![1237, 3420]).unwrap();
/// assert_eq!(ds.column_by_name("age").unwrap(), vec![75.0, 56.0]);
/// let anon = ds.anonymized();
/// assert!(anon.ids().is_none());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    matrix: Matrix,
    columns: Vec<String>,
    ids: Option<Vec<u64>>,
}

impl Dataset {
    /// Creates a dataset from a matrix and column names.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Shape`] if `columns.len() != matrix.cols()`.
    pub fn new(matrix: Matrix, columns: Vec<String>) -> Result<Self> {
        if columns.len() != matrix.cols() {
            return Err(Error::Shape(format!(
                "{} column names for a matrix with {} columns",
                columns.len(),
                matrix.cols()
            )));
        }
        Ok(Dataset {
            matrix,
            columns,
            ids: None,
        })
    }

    /// Creates a dataset with auto-generated column names `a0, a1, …`.
    pub fn from_matrix(matrix: Matrix) -> Self {
        let columns = (0..matrix.cols()).map(|j| format!("a{j}")).collect();
        Dataset {
            matrix,
            columns,
            ids: None,
        }
    }

    /// Attaches object IDs (consumes and returns the dataset).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Shape`] if `ids.len() != rows`.
    pub fn with_ids(mut self, ids: Vec<u64>) -> Result<Self> {
        if ids.len() != self.matrix.rows() {
            return Err(Error::Shape(format!(
                "{} ids for {} rows",
                ids.len(),
                self.matrix.rows()
            )));
        }
        self.ids = Some(ids);
        Ok(self)
    }

    /// The underlying data matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.matrix
    }

    /// Mutable access to the underlying data matrix.
    pub fn matrix_mut(&mut self) -> &mut Matrix {
        &mut self.matrix
    }

    /// Consumes the dataset, returning the matrix.
    pub fn into_matrix(self) -> Matrix {
        self.matrix
    }

    /// Replaces the matrix, keeping names/IDs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Shape`] if the new matrix's shape disagrees with the
    /// column names or IDs.
    pub fn replace_matrix(&mut self, matrix: Matrix) -> Result<()> {
        if matrix.cols() != self.columns.len() {
            return Err(Error::Shape(format!(
                "replacement has {} columns, dataset names {}",
                matrix.cols(),
                self.columns.len()
            )));
        }
        if let Some(ids) = &self.ids {
            if ids.len() != matrix.rows() {
                return Err(Error::Shape(format!(
                    "replacement has {} rows, dataset has {} ids",
                    matrix.rows(),
                    ids.len()
                )));
            }
        }
        self.matrix = matrix;
        Ok(())
    }

    /// Number of objects (rows).
    pub fn n_rows(&self) -> usize {
        self.matrix.rows()
    }

    /// Number of attributes (columns).
    pub fn n_cols(&self) -> usize {
        self.matrix.cols()
    }

    /// The column names, in order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The object IDs, if attached.
    pub fn ids(&self) -> Option<&[u64]> {
        self.ids.as_deref()
    }

    /// Index of a column by name.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownColumn`] if the name is absent.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| Error::UnknownColumn(name.to_string()))
    }

    /// Copies a column's values by name.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownColumn`] if the name is absent.
    pub fn column_by_name(&self, name: &str) -> Result<Vec<f64>> {
        Ok(self.matrix.column(self.column_index(name)?))
    }

    /// Returns a copy with the object IDs removed — §5.3 Step 2
    /// (*data anonymization*).
    pub fn anonymized(&self) -> Dataset {
        Dataset {
            matrix: self.matrix.clone(),
            columns: self.columns.clone(),
            ids: None,
        }
    }

    /// Projects onto the named columns, in the given order.
    ///
    /// This is §4.1's *suppressing identifiers* pre-processing: attributes
    /// not subjected to clustering are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownColumn`] for any missing name.
    pub fn select(&self, names: &[&str]) -> Result<Dataset> {
        let indices: Vec<usize> = names
            .iter()
            .map(|n| self.column_index(n))
            .collect::<Result<_>>()?;
        let matrix = self.matrix.select_columns(&indices)?;
        Ok(Dataset {
            matrix,
            columns: names.iter().map(|s| s.to_string()).collect(),
            ids: self.ids.clone(),
        })
    }
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ids.is_some() {
            write!(f, "{:>8}", "ID")?;
        }
        for c in &self.columns {
            write!(f, " {c:>12}")?;
        }
        writeln!(f)?;
        for i in 0..self.n_rows() {
            if let Some(ids) = &self.ids {
                write!(f, "{:>8}", ids[i])?;
            }
            for &v in self.matrix.row(i) {
                write!(f, " {v:>12.4}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let m = Matrix::from_rows(&[&[75.0, 80.0, 63.0], &[56.0, 64.0, 53.0]]).unwrap();
        Dataset::new(m, vec!["age".into(), "weight".into(), "heart_rate".into()])
            .unwrap()
            .with_ids(vec![1237, 3420])
            .unwrap()
    }

    #[test]
    fn construction_validates_shapes() {
        let m = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        assert!(Dataset::new(m.clone(), vec!["a".into()]).is_err());
        let ds = Dataset::new(m.clone(), vec!["a".into(), "b".into()]).unwrap();
        assert!(ds.clone().with_ids(vec![1, 2]).is_err());
        assert!(ds.with_ids(vec![1]).is_ok());
    }

    #[test]
    fn from_matrix_autonames() {
        let ds = Dataset::from_matrix(Matrix::zeros(2, 3));
        assert_eq!(ds.columns(), &["a0", "a1", "a2"]);
    }

    #[test]
    fn column_lookup() {
        let ds = sample();
        assert_eq!(ds.column_index("weight").unwrap(), 1);
        assert_eq!(ds.column_by_name("heart_rate").unwrap(), vec![63.0, 53.0]);
        assert!(matches!(
            ds.column_by_name("salary"),
            Err(Error::UnknownColumn(_))
        ));
    }

    #[test]
    fn anonymized_strips_ids_only() {
        let ds = sample();
        let anon = ds.anonymized();
        assert!(anon.ids().is_none());
        assert_eq!(anon.matrix(), ds.matrix());
        assert_eq!(anon.columns(), ds.columns());
    }

    #[test]
    fn select_projects_and_reorders() {
        let ds = sample();
        let proj = ds.select(&["heart_rate", "age"]).unwrap();
        assert_eq!(proj.columns(), &["heart_rate", "age"]);
        assert_eq!(proj.matrix().row(0), &[63.0, 75.0]);
        assert_eq!(proj.ids(), ds.ids());
        assert!(ds.select(&["nope"]).is_err());
    }

    #[test]
    fn replace_matrix_checks_shape() {
        let mut ds = sample();
        assert!(ds.replace_matrix(Matrix::zeros(2, 2)).is_err());
        assert!(ds.replace_matrix(Matrix::zeros(3, 3)).is_err()); // id mismatch
        assert!(ds.replace_matrix(Matrix::zeros(2, 3)).is_ok());
    }

    #[test]
    fn display_contains_headers_and_ids() {
        let s = sample().to_string();
        assert!(s.contains("ID"));
        assert!(s.contains("heart_rate"));
        assert!(s.contains("1237"));
    }
}
