//! Compressed sparse row matrices.

use crate::{NumericError, Result};

/// A compressed-sparse-row matrix of `f64`.
///
/// Built from coordinate triplets (duplicates are summed), supports
/// what the Markov chains need: row iteration, entry lookup and the
/// vector-matrix product `x^T · M`.
///
/// ```
/// use reliab_numeric::CsrMatrix;
/// # fn main() -> Result<(), reliab_numeric::NumericError> {
/// let m = CsrMatrix::from_triplets(2, 2, &[(0, 1, 3.0), (1, 0, 2.0)])?;
/// assert_eq!(m.vecmat(&[1.0, 1.0])?, vec![2.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from `(row, col, value)` triplets.
    ///
    /// Duplicate coordinates are summed in the order given; explicit
    /// zeros (including sums cancelling to zero) are kept, which is
    /// harmless for the solvers.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::Invalid`] if any coordinate is out of
    /// bounds or any value is non-finite.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self> {
        for &(r, c, v) in triplets {
            if r >= nrows || c >= ncols {
                return Err(NumericError::Invalid(format!(
                    "triplet ({r}, {c}) out of bounds for {nrows}x{ncols}"
                )));
            }
            if !v.is_finite() {
                return Err(NumericError::Invalid(format!(
                    "non-finite value {v} at ({r}, {c})"
                )));
            }
        }
        // Count entries per row, then bucket-sort triplets into rows.
        let mut counts = vec![0usize; nrows + 1];
        for &(r, _, _) in triplets {
            counts[r + 1] += 1;
        }
        for i in 0..nrows {
            counts[i + 1] += counts[i];
        }
        let mut cols = vec![0usize; triplets.len()];
        let mut vals = vec![0.0f64; triplets.len()];
        let mut next = counts.clone();
        for &(r, c, v) in triplets {
            let slot = next[r];
            cols[slot] = c;
            vals[slot] = v;
            next[r] += 1;
        }
        // Sort within each row and merge duplicates. One scratch
        // buffer serves every row — a fresh allocation per row is
        // measurable when generators arrive with 10^5+ rows (see the
        // `reach` bench suite).
        let mut row_ptr = vec![0usize; nrows + 1];
        let mut col_idx = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        let mut entries: Vec<(usize, f64)> = Vec::new();
        for r in 0..nrows {
            let (lo, hi) = (counts[r], counts[r + 1]);
            entries.clear();
            entries.extend(
                cols[lo..hi]
                    .iter()
                    .copied()
                    .zip(vals[lo..hi].iter().copied()),
            );
            // Stable, so duplicates sum in the order given.
            entries.sort_by_key(|e| e.0);
            let row_start = col_idx.len();
            for &(c, v) in &entries {
                if col_idx.len() > row_start && *col_idx.last().expect("nonempty") == c {
                    *values.last_mut().expect("nonempty") += v;
                } else {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr[r + 1] = col_idx.len();
        }
        Ok(CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates over the `(column, value)` pairs of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(i < self.nrows, "row index out of bounds");
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Fetches entry `(i, j)`, `0.0` if not stored.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.nrows && j < self.ncols, "index out of bounds");
        self.slot(i, j).map_or(0.0, |k| self.values[k])
    }

    /// Position of entry `(i, j)` in the stored values, if it is
    /// stored; see [`CsrMatrix::values_mut`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn slot(&self, i: usize, j: usize) -> Option<usize> {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        self.col_idx[lo..hi].binary_search(&j).ok().map(|k| lo + k)
    }

    /// The stored values, row by row, for refilling a matrix whose
    /// pattern stays fixed.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Computes `x^T * self`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::Invalid`] if `x.len() != nrows`.
    pub fn vecmat(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.nrows {
            return Err(NumericError::Invalid(format!(
                "vecmat dimension mismatch: {} rows vs vector of {}",
                self.nrows,
                x.len()
            )));
        }
        let mut y = vec![0.0; self.ncols];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            for (j, v) in self.row(i) {
                y[j] += xi * v;
            }
        }
        Ok(y)
    }

    /// Converts to a dense matrix (for tests and small direct solves).
    pub fn to_dense(&self) -> crate::DenseMatrix {
        let mut d = crate::DenseMatrix::zeros(self.nrows, self.ncols);
        for i in 0..self.nrows {
            for (j, v) in self.row(i) {
                d.add_to(i, j, v);
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplets_sorted_and_deduplicated() {
        let m =
            CsrMatrix::from_triplets(2, 3, &[(0, 2, 1.0), (0, 0, 2.0), (0, 2, 3.0), (1, 1, 5.0)])
                .unwrap();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 2), 4.0);
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(1, 1), 5.0);
    }

    #[test]
    fn out_of_bounds_and_nonfinite_rejected() {
        assert!(CsrMatrix::from_triplets(1, 1, &[(1, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(1, 1, &[(0, 0, f64::NAN)]).is_err());
    }

    #[test]
    fn vecmat_multiplies_from_the_left() {
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]).unwrap();
        assert_eq!(m.vecmat(&[1.0, 2.0]).unwrap(), vec![1.0, 6.0, 2.0]);
        assert!(m.vecmat(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn duplicates_sum_in_the_order_given() {
        // A row wider than the insertion-sort cutoff, with three
        // duplicates of column 0 placed where an unstable sort reorders
        // them: (a + b) + c and (c + a) + b differ in the last bit.
        let (a, b, c) = (0.2, 0.3, 0.1);
        assert_ne!((a + b) + c, (c + a) + b);
        let mut dup = [a, b, c].into_iter();
        let trips: Vec<(usize, usize, f64)> = [
            1, 2, 3, 4, 5, 6, 7, 0, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23,
            24, 0, 25, 26, 0, 27, 28, 29, 30,
        ]
        .into_iter()
        .map(|j| (0, j, if j == 0 { dup.next().unwrap() } else { 1.0 }))
        .collect();
        let m = CsrMatrix::from_triplets(1, 31, &trips).unwrap();
        assert_eq!(m.get(0, 0).to_bits(), ((a + b) + c).to_bits());
    }

    #[test]
    fn dense_round_trip() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.5), (1, 0, -2.0)]).unwrap();
        let d = m.to_dense();
        assert_eq!(d.get(0, 1), 1.5);
        assert_eq!(d.get(1, 0), -2.0);
        assert_eq!(d.get(0, 0), 0.0);
    }

    #[test]
    fn empty_matrix_works() {
        let m = CsrMatrix::from_triplets(3, 3, &[]).unwrap();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.vecmat(&[1.0, 1.0, 1.0]).unwrap(), vec![0.0, 0.0, 0.0]);
    }
}
