//! Grassmann–Taksar–Heyman (GTH) elimination for stationary vectors.

use crate::{DenseMatrix, NumericError, Result};

/// A stationary vector from [`gth_steady_state_rows`], with the work
/// the elimination took.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct GthSolution {
    /// The stationary probability vector.
    pub pi: Vec<f64>,
    /// Entries the elimination visited in its inner loops: the terms
    /// of each stage sum, the column entries scanned, the row entries
    /// updated and the terms of the back substitution. On a chain whose
    /// envelope is full (a complete chain) this is the count of the
    /// dense kernel, `Σ_{k<n} (k² + 2k)`; on a birth–death chain it is
    /// `3(n − 1)`.
    pub updates: u64,
    /// Off-diagonal entries the elimination stored: the chain's
    /// envelope, widened ahead of time for its fill-in. `2(n − 1)` on a
    /// birth–death chain, `n(n − 1)` on a complete one.
    pub envelope: usize,
}

/// Computes the stationary probability vector `π` of an irreducible CTMC
/// with infinitesimal generator `q` (`π Q = 0`, `Σ π = 1`) by GTH
/// elimination.
///
/// GTH is the method of choice for small-to-medium chains: it performs no
/// subtractions, so it is immune to the catastrophic cancellation that
/// plagues naive Gaussian elimination on singular generators, and it
/// needs no pivoting.
///
/// The input must be a square generator: off-diagonal entries
/// non-negative. The diagonal is ignored and treated as the negated
/// off-diagonal row sum, which both enforces the generator property and
/// lets callers pass matrices with sloppy diagonals. This is a thin
/// adapter over [`gth_steady_state_rows`].
///
/// # Errors
///
/// * [`NumericError::Invalid`] — non-square input or negative
///   off-diagonal rate.
/// * [`NumericError::Singular`] — the chain is reducible (some state has
///   no transitions to lower-numbered states at elimination time), so no
///   unique stationary vector exists.
/// * [`NumericError::TooLarge`] — the chain's envelope cannot be
///   allocated.
///
/// ```
/// use reliab_numeric::{gth_steady_state, DenseMatrix};
/// # fn main() -> Result<(), reliab_numeric::NumericError> {
/// // Two-state repairable component: fail rate 1, repair rate 9.
/// let q = DenseMatrix::from_rows(&[&[-1.0, 1.0], &[9.0, -9.0]])?;
/// let pi = gth_steady_state(&q)?;
/// assert!((pi[0] - 0.9).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn gth_steady_state(q: &DenseMatrix) -> Result<Vec<f64>> {
    let n = q.nrows();
    if n != q.ncols() {
        return Err(NumericError::Invalid(format!(
            "generator must be square, got {}x{}",
            n,
            q.ncols()
        )));
    }
    let row = |i: usize| q.row(i).iter().copied().enumerate();
    gth_steady_state_rows(n, row, &mut |_| {}).map(|s| s.pi)
}

/// GTH elimination of the `n`-state chain whose generator row `i` is
/// listed by `row(i)` as `(column, rate)` pairs, each column at most
/// once. Diagonal entries are ignored and unlisted entries are zero, so
/// a CSR generator or transition matrix can be passed row by row.
/// `observer(k)` is called after eliminating state `k` (states are
/// eliminated from `n - 1` down to `1`); it exists for progress and
/// tracing hooks and must not panic. `row` is called twice per state:
/// once to check the rates and find the envelope, once to store them.
///
/// The elimination stays within the chain's envelope: it tracks each
/// row's first nonzero column left of the diagonal and each column's
/// first nonzero row above it, widens both as fill-in arrives, and
/// loops only over those ranges. It stores that envelope alone, row by
/// row, widened ahead of time to hold every fill-in, so each row update
/// is a contiguous slice as in dense elimination. Entries outside the
/// envelope are exact zeros and each entry inside it takes the same
/// operations in the same order as a dense elimination, so `π` is the
/// dense kernel's to the bit for every input whose elimination does not
/// overflow. A birth–death chain costs `O(n)` work and memory; a chain
/// whose envelope fills costs `O(n³)` work and `O(n²)` memory, as dense
/// elimination does.
///
/// # Errors
///
/// * [`NumericError::Invalid`] — `n == 0`, a column outside `0..n`, or a
///   negative or non-finite off-diagonal rate (the first in row-major
///   order is named).
/// * [`NumericError::Singular`] — the chain is reducible (some state has
///   no transitions to lower-numbered states at elimination time).
/// * [`NumericError::TooLarge`] — the envelope cannot be allocated, or
///   `n` is so large that an `n × n` array could not be addressed.
pub fn gth_steady_state_rows<I>(
    n: usize,
    row: impl Fn(usize) -> I,
    observer: &mut dyn FnMut(usize),
) -> Result<GthSolution>
where
    I: IntoIterator<Item = (usize, f64)>,
{
    if n == 0 {
        return Err(NumericError::Invalid("empty generator".into()));
    }
    if n == 1 {
        return Ok(GthSolution {
            pi: vec![1.0],
            updates: 0,
            envelope: 0,
        });
    }

    // The envelope of the chain: row i's nonzeros left of the diagonal
    // lie in columns left[i]..i, column j's nonzeros above it in rows
    // top[j]..j. The first pass reads and checks the rates and finds
    // where the envelope starts.
    addressable(n)?;
    let mut left: Vec<usize> = (0..n).collect();
    let mut top: Vec<usize> = (0..n).collect();
    for (i, left_i) in left.iter_mut().enumerate() {
        for (j, v) in row(i) {
            if j == i {
                continue;
            }
            if j >= n {
                return Err(NumericError::Invalid(format!(
                    "row {i} lists column {j} of a {n}-state generator"
                )));
            }
            if !v.is_finite() || v < 0.0 {
                return Err(NumericError::Invalid(format!(
                    "off-diagonal rate q[{i}][{j}] = {v} must be finite and >= 0"
                )));
            }
            if v != 0.0 {
                if j < i {
                    *left_i = (*left_i).min(j);
                } else {
                    top[j] = top[j].min(i);
                }
            }
        }
    }

    // Eliminating state k adds row k, from column left[k], to every
    // row above it in column k's envelope, so the envelope only widens.
    // Widen it ahead of time for every row in that range (the
    // elimination itself widens only the rows it updates): row i then
    // spans columns row_from[i]..=row_to[i], row_to[i] being the last
    // column whose envelope reaches up to row i, and is stored alone,
    // diagonal slot included, at envelope[row_at[i]..row_at[i + 1]].
    let (mut row_from, mut col_from) = (left.clone(), top.clone());
    for k in (1..n).rev() {
        let (lo, first) = (row_from[k], col_from[k]);
        for r in &mut row_from[first..k] {
            *r = (*r).min(lo);
        }
        for c in &mut col_from[lo..k] {
            *c = (*c).min(first);
        }
    }
    let mut row_to: Vec<usize> = (0..n).collect();
    for k in 1..n {
        for r in &mut row_to[col_from[k]..k] {
            *r = k;
        }
    }
    let mut row_at = Vec::with_capacity(n + 1);
    row_at.push(0usize);
    for (&from, &to) in row_from.iter().zip(&row_to) {
        row_at.push(row_at[row_at.len() - 1] + to + 1 - from);
    }
    let at = |i: usize, j: usize| row_at[i] + j - row_from[i];
    let mut envelope = work_array(n, row_at[n])?;
    for i in 0..n {
        for (j, v) in row(i) {
            if j != i && (row_from[i]..=row_to[i]).contains(&j) {
                envelope[at(i, j)] = v;
            }
        }
    }

    // Eliminate states n-1 down to 1. After eliminating state k, the
    // entries (i, j) for i, j < k describe the chain censored (watched
    // only) on states {0, ..., k-1}. Entries (i, k) for i < k are left
    // untouched and reused during back substitution.
    let mut elim_sum = vec![0.0f64; n]; // s_k for k = 1..n
    let mut updates = 0u64;
    for k in (1..n).rev() {
        let (lo, first) = (left[k], top[k]);
        let (above, rest) = envelope.split_at_mut(row_at[k]);
        let row_k = &rest[lo - row_from[k]..k - row_from[k]];
        let s: f64 = row_k.iter().sum();
        updates += (k - lo) as u64;
        if s <= 0.0 {
            return Err(NumericError::Singular(format!(
                "state {k} cannot reach lower-numbered states: chain is reducible"
            )));
        }
        elim_sum[k] = s;
        // Rows i with (i, k) > 0 gain f * row k, except on the diagonal.
        updates += (k - first) as u64;
        let mut filled_from = k;
        for i in first..k {
            let row_i = &mut above[row_at[i]..at(i, k + 1)];
            let f = row_i[k - row_from[i]] / s;
            if f == 0.0 {
                continue;
            }
            let row_i = &mut row_i[lo - row_from[i]..];
            if i >= lo {
                add_scaled(&mut row_i[..i - lo], f, &row_k[..i - lo]);
                add_scaled(&mut row_i[i + 1 - lo..k - lo], f, &row_k[i + 1 - lo..]);
                updates += (k - lo - 1) as u64;
            } else {
                add_scaled(&mut row_i[..k - lo], f, row_k);
                updates += (k - lo) as u64;
            }
            left[i] = left[i].min(lo);
            filled_from = filled_from.min(i);
        }
        for t in &mut top[lo..k] {
            *t = (*t).min(filled_from);
        }
        observer(k);
    }

    // Back substitution (only additions and multiplications).
    let mut pi = vec![0.0f64; n];
    pi[0] = 1.0;
    for k in 1..n {
        let mut acc = 0.0;
        for i in top[k]..k {
            acc += pi[i] * envelope[at(i, k)];
        }
        updates += (k - top[k]) as u64;
        pi[k] = acc / elim_sum[k];
    }
    let total: f64 = pi.iter().sum();
    if !total.is_finite() || total <= 0.0 {
        return Err(NumericError::Singular(
            "stationary vector normalization failed".into(),
        ));
    }
    for p in &mut pi {
        *p /= total;
    }
    Ok(GthSolution {
        pi,
        updates,
        envelope: envelope.len() - n,
    })
}

/// `x += f * y`, entry by entry: a multiply, then an add (never fused).
fn add_scaled(x: &mut [f64], f: f64, y: &[f64]) {
    for (x, &y) in x.iter_mut().zip(y) {
        *x += f * y;
    }
}

/// Refuses, before anything is allocated, a chain whose envelope could
/// hold more rates than memory can address: it holds at most `n × n`.
fn addressable(n: usize) -> Result<()> {
    let bytes = (n as u128).pow(2) * std::mem::size_of::<f64>() as u128;
    if bytes > isize::MAX as u128 {
        return Err(NumericError::TooLarge(format!(
            "GTH on {n} states may need a {n} x {n} work array ({bytes} bytes), \
             which cannot be addressed"
        )));
    }
    Ok(())
}

/// The zeroed envelope of `len` entries, reserved fallibly so that a
/// chain too large for memory is an error and not an abort.
fn work_array(n: usize, len: usize) -> Result<Vec<f64>> {
    let mut a = Vec::new();
    a.try_reserve_exact(len).map_err(|_| {
        let bytes = len as u128 * std::mem::size_of::<f64>() as u128;
        NumericError::TooLarge(format!(
            "GTH on {n} states needs an envelope of {len} entries ({bytes} bytes), \
             which cannot be allocated"
        ))
    })?;
    a.resize(len, 0.0);
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrMatrix;

    /// The dense elimination this kernel replaced, kept as the bitwise
    /// reference: it scans whole rows and columns at every stage.
    fn dense_reference(q: &DenseMatrix) -> Result<Vec<f64>> {
        let n = q.nrows();
        if n != q.ncols() {
            return Err(NumericError::Invalid(format!(
                "generator must be square, got {}x{}",
                n,
                q.ncols()
            )));
        }
        if n == 0 {
            return Err(NumericError::Invalid("empty generator".into()));
        }
        if n == 1 {
            return Ok(vec![1.0]);
        }
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let v = q.get(i, j);
                if !v.is_finite() || v < 0.0 {
                    return Err(NumericError::Invalid(format!(
                        "off-diagonal rate q[{i}][{j}] = {v} must be finite and >= 0"
                    )));
                }
                a[i * n + j] = v;
            }
        }
        let mut elim_sum = vec![0.0f64; n];
        for k in (1..n).rev() {
            let s: f64 = (0..k).map(|j| a[k * n + j]).sum();
            if s <= 0.0 {
                return Err(NumericError::Singular(format!(
                    "state {k} cannot reach lower-numbered states: chain is reducible"
                )));
            }
            elim_sum[k] = s;
            for i in 0..k {
                let f = a[i * n + k] / s;
                if f == 0.0 {
                    continue;
                }
                for j in 0..k {
                    if i == j {
                        continue;
                    }
                    a[i * n + j] += f * a[k * n + j];
                }
            }
        }
        let mut pi = vec![0.0f64; n];
        pi[0] = 1.0;
        for k in 1..n {
            let mut acc = 0.0;
            for i in 0..k {
                acc += pi[i] * a[i * n + k];
            }
            pi[k] = acc / elim_sum[k];
        }
        let total: f64 = pi.iter().sum();
        if !total.is_finite() || total <= 0.0 {
            return Err(NumericError::Singular(
                "stationary vector normalization failed".into(),
            ));
        }
        for p in &mut pi {
            *p /= total;
        }
        Ok(pi)
    }

    fn residual(q: &DenseMatrix, pi: &[f64]) -> f64 {
        // ||pi Q||_inf using recomputed diagonals.
        let n = q.nrows();
        let mut worst = 0.0f64;
        for j in 0..n {
            let mut acc = 0.0;
            for (i, &pi_i) in pi.iter().enumerate().take(n) {
                let qij = if i == j {
                    -(0..n).filter(|&c| c != i).map(|c| q.get(i, c)).sum::<f64>()
                } else {
                    q.get(i, j)
                };
                acc += pi_i * qij;
            }
            worst = worst.max(acc.abs());
        }
        worst
    }

    fn csr_solve(m: &CsrMatrix) -> Result<GthSolution> {
        gth_steady_state_rows(m.nrows(), |i| m.row(i), &mut |_| {})
    }

    #[test]
    fn two_state_birth_death() {
        let q = DenseMatrix::from_rows(&[&[-1.0, 1.0], &[9.0, -9.0]]).unwrap();
        let pi = gth_steady_state(&q).unwrap();
        assert!((pi[0] - 0.9).abs() < 1e-14);
        assert!((pi[1] - 0.1).abs() < 1e-14);
    }

    #[test]
    fn mm1k_queue_matches_closed_form() {
        // M/M/1/4: lambda = 2, mu = 3 => pi_i ∝ rho^i, rho = 2/3.
        let (lambda, mu, k) = (2.0f64, 3.0f64, 4usize);
        let n = k + 1;
        let mut q = DenseMatrix::zeros(n, n);
        for i in 0..k {
            q.set(i, i + 1, lambda);
            q.set(i + 1, i, mu);
        }
        let pi = gth_steady_state(&q).unwrap();
        let rho: f64 = lambda / mu;
        let norm: f64 = (0..n).map(|i| rho.powi(i as i32)).sum();
        for (i, p) in pi.iter().enumerate() {
            assert!((p - rho.powi(i as i32) / norm).abs() < 1e-13, "state {i}");
        }
        assert!(residual(&q, &pi) < 1e-13);
    }

    #[test]
    fn sloppy_diagonal_is_ignored() {
        let q_clean = DenseMatrix::from_rows(&[&[-1.0, 1.0], &[4.0, -4.0]]).unwrap();
        let q_sloppy = DenseMatrix::from_rows(&[&[123.0, 1.0], &[4.0, f64::NAN]]).unwrap();
        // NaN on the diagonal must not matter.
        assert_eq!(
            gth_steady_state(&q_clean).unwrap(),
            gth_steady_state(&q_sloppy).unwrap()
        );
    }

    #[test]
    fn reducible_chain_detected() {
        // State 1 is absorbing: no stationary distribution over both states
        // reachable via GTH's lower-state requirement at k = 1.
        let q = DenseMatrix::from_rows(&[&[-1.0, 1.0], &[0.0, 0.0]]).unwrap();
        assert!(matches!(
            gth_steady_state(&q),
            Err(NumericError::Singular(_))
        ));
    }

    #[test]
    fn invalid_inputs_rejected() {
        let q = DenseMatrix::from_rows(&[&[-1.0, -1.0], &[1.0, -1.0]]).unwrap();
        assert!(gth_steady_state(&q).is_err());
        let rect = DenseMatrix::zeros(2, 3);
        assert!(gth_steady_state(&rect).is_err());
        assert!(gth_steady_state(&DenseMatrix::zeros(0, 0)).is_err());
        let outside = gth_steady_state_rows(2, |_| [(2, 1.0)], &mut |_| {});
        assert!(matches!(outside, Err(NumericError::Invalid(_))));
    }

    #[test]
    fn single_state_chain() {
        let q = DenseMatrix::zeros(1, 1);
        assert_eq!(gth_steady_state(&q).unwrap(), vec![1.0]);
    }

    #[test]
    fn random_generator_has_tiny_residual() {
        // Deterministic pseudo-random dense generator, 20 states.
        let n = 20;
        let mut q = DenseMatrix::zeros(n, n);
        let mut seed = 0x12345678u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / (u32::MAX as f64)
        };
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    q.set(i, j, 0.01 + next());
                }
            }
        }
        let pi = gth_steady_state(&q).unwrap();
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(pi.iter().all(|&p| p > 0.0));
        assert!(residual(&q, &pi) < 1e-12);
    }

    /// Birth–death chain of `n` states as CSR rows, diagonal included.
    fn birth_death(n: usize) -> CsrMatrix {
        let mut trips = Vec::new();
        for i in 0..n - 1 {
            trips.extend([(i, i + 1, 0.45), (i + 1, i, 0.5)]);
        }
        for i in 0..n {
            let out = [i.checked_sub(1).map(|_| 0.5), (i + 1 < n).then_some(0.45)];
            trips.push((i, i, -out.iter().flatten().sum::<f64>()));
        }
        CsrMatrix::from_triplets(n, n, &trips).unwrap()
    }

    #[test]
    fn birth_death_work_is_linear() {
        let n = 512;
        let solved = csr_solve(&birth_death(n)).unwrap();
        assert!(
            solved.updates <= 4 * n as u64,
            "{} updates on a {n}-state birth-death chain",
            solved.updates
        );
        assert_eq!(solved.updates, 3 * (n as u64 - 1));
        assert_eq!(solved.envelope, 2 * (n - 1));
    }

    #[test]
    fn long_birth_death_chain_stores_its_band_only() {
        // An n x n array would take 200 MB.
        let n = 5_000;
        let solved = csr_solve(&birth_death(n)).unwrap();
        assert_eq!(solved.envelope, 2 * (n - 1));
        // pi_i ∝ 0.9^i.
        let norm = (1.0 - 0.9f64.powi(n as i32)) / 0.1;
        for i in [0, 1, 10, 100] {
            let expected = 0.9f64.powi(i) / norm;
            let got = solved.pi[i as usize];
            assert!(
                (got - expected).abs() < 1e-12 * expected,
                "state {i}: {got}"
            );
        }
    }

    #[test]
    fn wrap_around_arc_fills_the_envelope() {
        // A birth-death chain whose last state also returns to the
        // first: eliminating it widens every row to column 0.
        let n = 50;
        let mut trips = Vec::new();
        for i in 0..n - 1 {
            trips.extend([(i, i + 1, 0.45), (i + 1, i, 0.5)]);
        }
        trips.push((n - 1, 0, 0.1));
        let m = CsrMatrix::from_triplets(n, n, &trips).unwrap();
        let solved = csr_solve(&m).unwrap();
        assert_eq!(solved.envelope, n * (n - 1) / 2 + (n - 1));
        let mut q = DenseMatrix::zeros(n, n);
        for &(i, j, v) in &trips {
            q.set(i, j, v);
        }
        let expected = dense_reference(&q).unwrap();
        assert!(same_bits(&Ok(solved.pi), &Ok(expected)));
    }

    #[test]
    fn complete_chain_takes_the_dense_count() {
        let n = 64;
        let mut q = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    q.set(i, j, 1.0 + (i * n + j) as f64 / 100.0);
                }
            }
        }
        let row = |i: usize| q.row(i).iter().copied().enumerate();
        let solved = gth_steady_state_rows(n, row, &mut |_| {}).unwrap();
        let dense: u64 = (1..n as u64).map(|k| k * k + 2 * k).sum();
        assert_eq!(solved.updates, dense);
        assert_eq!(solved.envelope, n * (n - 1));
    }

    #[test]
    fn work_array_overflow_is_a_typed_error() {
        let n = 1usize << 31;
        let err = gth_steady_state_rows(n, |_| std::iter::empty(), &mut |_| {}).unwrap_err();
        match err {
            NumericError::TooLarge(m) => {
                assert!(m.contains("2147483648 x 2147483648"), "{m}");
                assert!(m.contains("36893488147419103232 bytes"), "{m}");
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        if let Some(n) = 1usize.checked_shl(32) {
            assert!(matches!(
                gth_steady_state_rows(n, |_| std::iter::empty(), &mut |_| {}),
                Err(NumericError::TooLarge(_))
            ));
        }
    }

    #[test]
    fn observer_sees_every_stage_in_order() {
        let mut seen = Vec::new();
        let m = birth_death(5);
        gth_steady_state_rows(5, |i| m.row(i), &mut |k| seen.push(k)).unwrap();
        assert_eq!(seen, vec![4, 3, 2, 1]);
    }

    /// A small seeded generator (SplitMix64), so the oracle test needs
    /// no dependency.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
        /// A rate log-uniform on [1e-8, 1e8].
        fn rate(&mut self) -> f64 {
            10f64.powf(16.0 * self.unit() - 8.0)
        }
        fn permutation(&mut self, n: usize) -> Vec<usize> {
            let mut p: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                p.swap(i, self.below(i + 1));
            }
            p
        }
    }

    /// The off-diagonal entries of a random chain, each pair at most
    /// once. One chain in eight has 2 to 150 states, the rest 2 to 40,
    /// which keeps the dense reference affordable in a debug build.
    /// `case % 4` picks the shape: banded, permuted banded, random
    /// sparse (2–20% dense), or complete. Every chain but one sparse
    /// chain in five is irreducible: banded chains keep positive rates
    /// between neighbours, sparse ones a positive cycle through every
    /// state. The rest get an absorbing state. Entries off that backbone
    /// are explicit zeros one time in ten.
    fn random_chain(rng: &mut Rng, case: usize) -> (usize, Vec<(usize, usize, f64)>) {
        let span = if rng.below(8) == 0 { 149 } else { 39 };
        let n = 2 + rng.below(span);
        // (from, to, on the backbone)
        let mut pairs = Vec::new();
        match case % 4 {
            0 | 1 => {
                let band = 1 + rng.below(n.min(8));
                let perm = if case % 4 == 1 {
                    rng.permutation(n)
                } else {
                    (0..n).collect()
                };
                for i in 0..n {
                    for j in i.saturating_sub(band)..(i + band + 1).min(n) {
                        let backbone = j.abs_diff(i) == 1;
                        if i != j && (backbone || rng.unit() < 0.7) {
                            pairs.push((perm[i], perm[j], backbone));
                        }
                    }
                }
            }
            2 => {
                let density = 0.02 + 0.18 * rng.unit();
                for i in 0..n {
                    for j in 0..n {
                        if i != j && rng.unit() < density {
                            pairs.push((i, j, false));
                        }
                    }
                }
                if rng.below(5) == 0 {
                    let absorbing = 1 + rng.below(n - 1);
                    pairs.retain(|&(i, _, _)| i != absorbing);
                } else {
                    let cycle = rng.permutation(n);
                    for w in 0..n {
                        let (i, j) = (cycle[w], cycle[(w + 1) % n]);
                        pairs.retain(|&(a, b, _)| (a, b) != (i, j));
                        pairs.push((i, j, true));
                    }
                }
            }
            _ => {
                for i in 0..n {
                    for j in 0..n {
                        if i != j {
                            pairs.push((i, j, false));
                        }
                    }
                }
            }
        }
        let trips = pairs
            .into_iter()
            .map(|(i, j, backbone)| {
                let zero = !backbone && rng.below(10) == 0;
                (i, j, if zero { 0.0 } else { rng.rate() })
            })
            .collect();
        (n, trips)
    }

    fn same_bits(a: &Result<Vec<f64>>, b: &Result<Vec<f64>>) -> bool {
        match (a, b) {
            (Ok(a), Ok(b)) => a
                .iter()
                .map(|x| x.to_bits())
                .eq(b.iter().map(|x| x.to_bits())),
            (Err(a), Err(b)) => a == b,
            _ => false,
        }
    }

    /// Each random chain goes through the dense entry point and through
    /// the row kernel fed a CSR matrix built as a CTMC generator (the
    /// diagonal holding the negated exit rate) and as a uniformized DTMC
    /// transition matrix; every `π` must match the dense reference bit
    /// for bit, and every failure must match its kind and message.
    #[test]
    fn envelope_kernel_matches_the_dense_reference_bit_for_bit() {
        let mut rng = Rng(0x5eed_6748);
        let (mut solved, mut failed) = (0, 0);
        for case in 0..2400 {
            let (n, trips) = random_chain(&mut rng, case);
            let mut exit = vec![0.0f64; n];
            for &(i, _, v) in &trips {
                exit[i] += v;
            }
            let mut q = DenseMatrix::zeros(n, n);
            for &(i, j, v) in &trips {
                q.set(i, j, v);
            }
            let expected = dense_reference(&q);
            assert!(
                same_bits(&gth_steady_state(&q), &expected),
                "case {case}: dense entry point"
            );

            let mut generator = trips.clone();
            generator.extend((0..n).filter(|&i| exit[i] > 0.0).map(|i| (i, i, -exit[i])));
            let generator = CsrMatrix::from_triplets(n, n, &generator).unwrap();
            assert!(
                same_bits(&csr_solve(&generator).map(|s| s.pi), &expected),
                "case {case}: CTMC generator rows"
            );

            let unif = 1.25 * exit.iter().fold(f64::MIN_POSITIVE, |m, &e| m.max(e));
            let mut p_trips: Vec<_> = trips.iter().map(|&(i, j, v)| (i, j, v / unif)).collect();
            p_trips.extend((0..n).map(|i| (i, i, 1.0 - exit[i] / unif)));
            let p = CsrMatrix::from_triplets(n, n, &p_trips).unwrap();
            let mut p_dense = DenseMatrix::zeros(n, n);
            for &(i, j, v) in &p_trips {
                if i != j {
                    p_dense.set(i, j, v);
                }
            }
            assert!(
                same_bits(&csr_solve(&p).map(|s| s.pi), &dense_reference(&p_dense)),
                "case {case}: DTMC transition rows"
            );
            if expected.is_ok() {
                solved += 1;
            } else {
                failed += 1;
            }
        }
        // Both outcomes must be exercised in quantity.
        assert!(solved >= 2000, "{solved} chains solved");
        assert!(failed >= 50, "{failed} chains rejected");
    }

    #[test]
    fn failures_match_the_dense_reference() {
        let bad = |v: f64| {
            DenseMatrix::from_rows(&[&[0.0, 1.0, 2.0], &[3.0, 0.0, v], &[4.0, -1.0, 0.0]]).unwrap()
        };
        for v in [-2.0, f64::NAN, f64::INFINITY] {
            let q = bad(v);
            let got = gth_steady_state(&q).unwrap_err();
            assert_eq!(got, dense_reference(&q).unwrap_err());
            assert!(matches!(got, NumericError::Invalid(_)), "{got}");
        }
        // 0 -> 1 -> 2 with 2 absorbing: reducible at the last stage.
        let q = DenseMatrix::from_rows(&[&[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0], &[0.0, 0.0, 0.0]])
            .unwrap();
        let got = gth_steady_state(&q).unwrap_err();
        assert_eq!(got, dense_reference(&q).unwrap_err());
        assert_eq!(
            got.to_string(),
            "singular system: state 2 cannot reach lower-numbered states: chain is reducible"
        );
    }
}
