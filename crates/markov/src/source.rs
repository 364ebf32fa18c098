//! Row sources: the on-demand generator-row contract every iterative
//! and uniformization kernel reads, and the one pass that validates a
//! source and recovers its exit rates.

use crate::builder::{exit_rate_overflow, Ctmc};
use crate::dtmc::Dtmc;
use reliab_core::{ensure_finite_positive, Error, Result};

/// On-demand access to the rows of a CTMC generator.
///
/// The contract every kernel relies on:
///
/// * States are numbered `0..num_states()`.
/// * [`RowSource::row`] writes the **off-diagonal** arcs of row `i` —
///   `(target, rate)` in strictly ascending target order, so parallel
///   arcs to one target arrive already summed (in emission order), with
///   no target equal to `i` and every rate positive and finite.
/// * It returns the exit rate of state `i` (`-q_ii`): the state's arcs
///   summed in emission order *before* parallel arcs are merged. That
///   is the number a materialized builder stores, so two sources of one
///   chain — a [`Ctmc`] and a source that regenerates its rows — feed
///   the kernels identical bits.
/// * Repeated calls for the same `i` produce identical output; the
///   steady-state kernel's recompute-instead-of-cache policy and its
///   bitwise block-count independence both rest on this.
pub trait RowSource {
    /// Number of states of the chain.
    fn num_states(&self) -> usize;

    /// Replaces `out` with the off-diagonal arcs of row `i` and returns
    /// the state's exit rate.
    ///
    /// # Errors
    ///
    /// Implementation-specific: rate evaluation or row regeneration
    /// failures.
    fn row(&self, i: u32, out: &mut Vec<(u32, f64)>) -> Result<f64>;

    /// Bytes resident in the source's own backing store, as counted by
    /// the memory planner (excludes per-row scratch).
    fn resident_bytes(&self) -> usize;
}

/// A materialized chain streams its merged CSR off-diagonals and the
/// exit rates its builder summed in declaration order — the numbers the
/// in-core solvers have always read.
impl RowSource for Ctmc {
    fn num_states(&self) -> usize {
        Ctmc::num_states(self)
    }

    fn row(&self, i: u32, out: &mut Vec<(u32, f64)>) -> Result<f64> {
        let i = i as usize;
        out.clear();
        out.extend(
            self.generator
                .row(i)
                .filter(|&(j, _)| j != i)
                .map(|(j, r)| (j as u32, r)),
        );
        Ok(self.out_rate[i])
    }

    fn resident_bytes(&self) -> usize {
        // CSR generator (row_ptr + col_idx + values) plus the exit-rate
        // vector; state names are irrelevant to the solvers.
        let g = &self.generator;
        (g.nrows() + 1) * 8 + g.nnz() * 16 + self.out_rate.len() * 8
    }
}

/// A DTMC streams the generator `P − I`, whose stationary vector is
/// the chain's: the off-diagonal probabilities and their row sum.
impl RowSource for Dtmc {
    fn num_states(&self) -> usize {
        Dtmc::num_states(self)
    }

    fn row(&self, i: u32, out: &mut Vec<(u32, f64)>) -> Result<f64> {
        let i = i as usize;
        out.clear();
        let mut exit = 0.0;
        for (j, p) in self.transition_matrix().row(i) {
            if j != i && p > 0.0 {
                out.push((j as u32, p));
                exit += p;
            }
        }
        Ok(exit)
    }

    fn resident_bytes(&self) -> usize {
        let p = self.transition_matrix();
        (p.nrows() + 1) * 8 + p.nnz() * 16
    }
}

/// Generator rows kept in memory, in compressed-row form: row `i` is
/// `(dst[k], rate[k])` for `k` from `end[i - 1]` (0 for the first row)
/// to `end[i]`, 12 bytes an arc and 8 a row.
#[derive(Debug, Default)]
pub struct KeptRows {
    end: Vec<usize>,
    dst: Vec<u32>,
    rate: Vec<f64>,
}

impl KeptRows {
    /// Appends the next row.
    pub fn push(&mut self, row: &[(u32, f64)]) {
        self.dst.extend(row.iter().map(|a| a.0));
        self.rate.extend(row.iter().map(|a| a.1));
        self.end.push(self.dst.len());
    }

    /// The arcs of row `i` of those pushed, in the order pushed.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let (lo, hi) = (i.checked_sub(1).map_or(0, |k| self.end[k]), self.end[i]);
        self.dst[lo..hi]
            .iter()
            .copied()
            .zip(self.rate[lo..hi].iter().copied())
    }

    /// Bytes held by the rows.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.end.len() * 8 + self.dst.len() * 12
    }

    /// Checks the rows' rates as [`Ctmc::from_parts`] checks a chain's
    /// arcs, with its errors: every rate finite and positive, then
    /// every row's exit rate, summed in the order pushed, finite.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] for a bad rate, [`Error::Numerical`]
    /// for an exit rate that overflows.
    pub fn validate(&self) -> Result<()> {
        for &r in &self.rate {
            ensure_finite_positive(r, "transition rate")?;
        }
        for i in 0..self.end.len() {
            let mut exit = 0.0;
            for (_, r) in self.row(i) {
                exit += r;
            }
            if !exit.is_finite() {
                return Err(exit_rate_overflow(i, exit));
            }
        }
        Ok(())
    }
}

/// Exit rates and uniformization constant recovered by one full pass
/// over a [`RowSource`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct RateScan {
    /// Total outflow per state (`-q_ii`), as the source reports it.
    pub exit: Vec<f64>,
    /// Uniformization rate: `max(exit) · 1.02` plus a tiny floor. The
    /// slack keeps the uniformized DTMC aperiodic; the floor avoids
    /// dividing by zero on a chain without transitions.
    pub q: f64,
    /// Off-diagonal arcs, after parallel arcs are merged.
    pub arcs: u64,
    /// Widest row encountered.
    pub max_row: usize,
}

/// Reads every row once, validating the [`RowSource`] contract and
/// computing [`RateScan`].
///
/// # Errors
///
/// Returns [`Error::Model`] for an empty source or a contract violation
/// (self-loop, out-of-range or out-of-order target, non-positive or
/// non-finite rate, negative exit rate), [`Error::Numerical`] for a
/// non-finite exit rate, as a chain's builder reports it, and
/// propagates row-regeneration failures.
pub fn scan_rates(src: &dyn RowSource) -> Result<RateScan> {
    scan_rows(src, &mut |_| {})
}

/// One row's off-diagonal arcs, `(target, rate)`.
type Row = [(u32, f64)];

/// [`scan_rates`], handing each validated row to `keep` in state order.
pub(crate) fn scan_rows(src: &dyn RowSource, keep: &mut dyn FnMut(&Row)) -> Result<RateScan> {
    let n = src.num_states();
    if n == 0 {
        return Err(Error::model("row source has no states"));
    }
    let mut exit = vec![0.0f64; n];
    let mut arcs = 0u64;
    let mut max_row = 0usize;
    let mut row: Vec<(u32, f64)> = Vec::new();
    for (i, exit_i) in exit.iter_mut().enumerate() {
        *exit_i = src.row(i as u32, &mut row)?;
        if !exit_i.is_finite() {
            return Err(exit_rate_overflow(i, *exit_i));
        }
        if *exit_i < 0.0 {
            return Err(Error::model(format!(
                "exit rate {exit_i} of state {i} must be finite and >= 0"
            )));
        }
        let mut prev: Option<u32> = None;
        for &(j, r) in &row {
            if j as usize >= n {
                return Err(Error::model(format!(
                    "row {i} targets state {j}, but the source has only {n} states"
                )));
            }
            if j as usize == i {
                return Err(Error::model(format!(
                    "row {i} contains a self-loop; row sources must emit off-diagonal arcs only"
                )));
            }
            if prev.is_some_and(|p| p >= j) {
                return Err(Error::model(format!(
                    "row {i} lists target {j} out of ascending order"
                )));
            }
            if !(r > 0.0 && r.is_finite()) {
                return Err(Error::model(format!(
                    "rate {r} on arc {i} -> {j} must be positive and finite"
                )));
            }
            prev = Some(j);
        }
        arcs += row.len() as u64;
        max_row = max_row.max(row.len());
        keep(&row);
    }
    let q = exit.iter().fold(0.0f64, |a, &b| a.max(b)) * 1.02 + 1e-300;
    Ok(RateScan {
        exit,
        q,
        arcs,
        max_row,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CtmcBuilder;

    /// Kept rows fail validation exactly where `Ctmc::from_parts` fails
    /// on the same arcs, with its error: a bad rate, then an exit rate
    /// that overflows.
    #[test]
    fn kept_rows_validate_as_from_parts_does() {
        let cases: [&[&[(u32, f64)]]; 5] = [
            &[&[(1, 2.0)], &[(0, 3.0)]],
            &[&[(1, 1.0)], &[(0, 0.0)]],
            &[&[(1, f64::NAN)], &[]],
            &[&[(1, 1e308), (1, 1e308)], &[(0, 1.0)]],
            &[&[(1, 1e308), (1, 1e308)], &[(0, -1.0)]],
        ];
        for rows in cases {
            let mut kept = KeptRows::default();
            let mut arcs = Vec::new();
            for (i, row) in rows.iter().enumerate() {
                kept.push(row);
                arcs.extend(row.iter().map(|&(j, r)| (i, j as usize, r)));
            }
            let names = (0..rows.len()).map(|i| format!("s{i}")).collect();
            let expected = Ctmc::from_parts(names, arcs).err();
            assert_eq!(kept.validate().err(), expected, "{rows:?}");
        }
    }

    fn cyclic(n: usize) -> Ctmc {
        let mut b = CtmcBuilder::new();
        let ids: Vec<_> = (0..n).map(|i| b.state(&format!("s{i}"))).collect();
        for i in 0..n {
            b.transition(ids[i], ids[(i + 1) % n], 1.0 + i as f64)
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn ctmc_streams_offdiagonal_rows_and_stored_exit_rates() {
        // Three out-arcs declared out of column order: the exit rate is
        // the declaration-order sum, which the column-order sum is not.
        let mut b = CtmcBuilder::new();
        let s: Vec<_> = (0..5).map(|i| b.state(&format!("s{i}"))).collect();
        for (to, r) in [(4, 0.07), (0, 1.9), (3, 0.3), (2, 0.2)] {
            b.transition(s[1], s[to], r).unwrap();
        }
        b.transition(s[0], s[1], 1.0).unwrap();
        let c = b.build().unwrap();
        let mut row = Vec::new();
        let exit = c.row(1, &mut row).unwrap();
        assert_eq!(row, vec![(0, 1.9), (2, 0.2), (3, 0.3), (4, 0.07)]);
        assert_eq!(exit.to_bits(), (0.07f64 + 1.9 + 0.3 + 0.2).to_bits());
        assert_ne!(exit.to_bits(), (1.9f64 + 0.2 + 0.3 + 0.07).to_bits());
        assert!(RowSource::resident_bytes(&c) > 0);
    }

    #[test]
    fn scan_recovers_exit_rates_bitwise() {
        let c = cyclic(5);
        let scan = scan_rates(&c).unwrap();
        assert_eq!(scan.exit, c.exit_rates());
        assert_eq!(scan.arcs, 5);
        assert_eq!(scan.max_row, 1);
        let expected_q = c.exit_rates().iter().fold(0.0f64, |a, &b| a.max(b)) * 1.02 + 1e-300;
        assert_eq!(scan.q.to_bits(), expected_q.to_bits());
    }

    struct BadSource {
        row0: Vec<(u32, f64)>,
    }
    impl RowSource for BadSource {
        fn num_states(&self) -> usize {
            3
        }
        fn row(&self, i: u32, out: &mut Vec<(u32, f64)>) -> Result<f64> {
            out.clear();
            if i == 0 {
                out.extend_from_slice(&self.row0);
            } else {
                out.push((0, 1.0));
            }
            Ok(out.iter().map(|a| a.1).sum())
        }
        fn resident_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn scan_rejects_contract_violations() {
        for row0 in [
            vec![(0u32, 1.0f64)],
            vec![(5, 1.0)],
            vec![(1, 0.0)],
            vec![(1, -2.0)],
            vec![(1, f64::NAN)],
            vec![(2, 1.0), (1, 1.0)],
            vec![(1, 1.0), (1, 1.0)],
        ] {
            let bad = BadSource { row0: row0.clone() };
            assert!(scan_rates(&bad).is_err(), "row {row0:?}");
        }
        let ok = BadSource {
            row0: vec![(1, 2.5), (2, 0.5)],
        };
        let scan = scan_rates(&ok).unwrap();
        assert_eq!(scan.exit, vec![3.0, 1.0, 1.0]);
        assert_eq!(scan.arcs, 4);
        assert_eq!(scan.max_row, 2);
    }
}
