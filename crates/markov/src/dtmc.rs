//! Discrete-time Markov chains (used standalone and as embedded chains
//! of semi-Markov processes).

use crate::block::solve_in_core;
use crate::num_err;
use crate::plan::{SteadyMethod, SteadyOptions};
use crate::steady::gth;
use reliab_core::{Error, Result};
use reliab_numeric::{CsrMatrix, DenseMatrix};

/// A finite discrete-time Markov chain with row-stochastic transition
/// matrix `P`.
#[derive(Debug, Clone)]
pub struct Dtmc {
    p: CsrMatrix,
}

impl Dtmc {
    /// Creates a DTMC from `(from, to, probability)` triplets over `n`
    /// states. Each row must sum to 1 (within `1e-9`); missing mass is
    /// rejected rather than silently padded with self-loops.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on malformed rows or
    /// probabilities outside `[0, 1]`.
    pub fn from_triplets(n: usize, triplets: &[(usize, usize, f64)]) -> Result<Self> {
        if n == 0 {
            return Err(Error::invalid("DTMC needs at least one state"));
        }
        for &(f, t, p) in triplets {
            if f >= n || t >= n {
                return Err(Error::invalid(format!(
                    "transition ({f}, {t}) out of range for {n} states"
                )));
            }
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(Error::invalid(format!(
                    "transition probability {p} at ({f}, {t}) outside [0,1]"
                )));
            }
        }
        let p = CsrMatrix::from_triplets(n, n, triplets).map_err(num_err)?;
        for i in 0..n {
            let row_sum: f64 = p.row(i).map(|(_, v)| v).sum();
            if (row_sum - 1.0).abs() > 1e-9 {
                return Err(Error::invalid(format!(
                    "row {i} sums to {row_sum}, expected 1"
                )));
            }
        }
        Ok(Dtmc { p })
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.p.nrows()
    }

    /// The transition matrix.
    pub fn transition_matrix(&self) -> &CsrMatrix {
        &self.p
    }

    /// One step of the chain: `π' = π P`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on a length mismatch.
    pub fn step(&self, pi: &[f64]) -> Result<Vec<f64>> {
        self.p.vecmat(pi).map_err(num_err)
    }

    /// Distribution after `steps` transitions from `initial`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on a malformed initial
    /// distribution.
    pub fn transient(&self, initial: &[f64], steps: usize) -> Result<Vec<f64>> {
        let n = self.num_states();
        if initial.len() != n {
            return Err(Error::invalid(format!(
                "distribution length {} != number of states {n}",
                initial.len()
            )));
        }
        let total: f64 = initial.iter().sum();
        if initial.iter().any(|&p| !p.is_finite() || p < 0.0) || (total - 1.0).abs() > 1e-9 {
            return Err(Error::invalid("initial vector is not a distribution"));
        }
        let mut pi = initial.to_vec();
        for _ in 0..steps {
            pi = self.step(&pi)?;
        }
        Ok(pi)
    }

    /// Probability of eventual absorption in each state of `targets`
    /// (all made absorbing), starting from `initial`.
    ///
    /// Solves `(I - P_TT) x = P_T,a` per target on the transient block.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for empty/invalid targets
    /// and [`Error::Numerical`] when some transient class never
    /// reaches the targets.
    pub fn absorption_probabilities(&self, initial: &[f64], targets: &[usize]) -> Result<Vec<f64>> {
        let n = self.num_states();
        if targets.is_empty() {
            return Err(Error::invalid("target set is empty"));
        }
        let mut is_target = vec![false; n];
        for &t in targets {
            if t >= n {
                return Err(Error::invalid(format!("target {t} out of range")));
            }
            is_target[t] = true;
        }
        if initial.len() != n {
            return Err(Error::invalid(format!(
                "distribution length {} != number of states {n}",
                initial.len()
            )));
        }
        let transient: Vec<usize> = (0..n).filter(|&i| !is_target[i]).collect();
        let mut compact = vec![usize::MAX; n];
        for (c, &s) in transient.iter().enumerate() {
            compact[s] = c;
        }
        let m = transient.len();
        let mut out = Vec::with_capacity(targets.len());
        // (I - P_TT)
        let mut a = DenseMatrix::identity(m);
        for (ci, &i) in transient.iter().enumerate() {
            for (j, v) in self.p.row(i) {
                if !is_target[j] {
                    a.add_to(ci, compact[j], -v);
                }
            }
        }
        for &t in targets {
            let mut rhs = vec![0.0f64; m];
            for (ci, &i) in transient.iter().enumerate() {
                for (j, v) in self.p.row(i) {
                    if j == t {
                        rhs[ci] += v;
                    }
                }
            }
            let x = if m > 0 {
                a.lu_solve(&rhs)
                    .map_err(|e| Error::numerical(format!("absorption system singular: {e}")))?
            } else {
                Vec::new()
            };
            let mut p = initial[t];
            for (ci, &i) in transient.iter().enumerate() {
                p += initial[i] * x[ci];
            }
            out.push(p.clamp(0.0, 1.0));
        }
        Ok(out)
    }

    /// Stationary distribution of the generator `P − I`, which is the
    /// chain's and exists for periodic chains too: GTH for small
    /// chains, the block SOR kernel beyond.
    ///
    /// # Errors
    ///
    /// Returns solver errors for reducible chains or non-convergence.
    pub fn steady_state(&self) -> Result<Vec<f64>> {
        let report = match SteadyMethod::Auto.resolve(self.num_states()) {
            // GTH ignores the diagonal, so P's rows are those of P − I.
            SteadyMethod::Gth => gth(self.num_states(), |i| self.p.row(i)),
            _ => solve_in_core(self, &SteadyOptions::default()),
        };
        report.map(|r| r.pi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reliab_numeric::gth_steady_state;

    #[test]
    fn validation() {
        assert!(Dtmc::from_triplets(0, &[]).is_err());
        // Row sums must be 1.
        assert!(Dtmc::from_triplets(2, &[(0, 1, 0.5), (1, 0, 1.0)]).is_err());
        assert!(Dtmc::from_triplets(2, &[(0, 1, 1.5), (1, 0, 1.0)]).is_err());
        assert!(Dtmc::from_triplets(1, &[(0, 0, 1.0)]).is_ok());
    }

    #[test]
    fn two_state_stationary() {
        let d = Dtmc::from_triplets(2, &[(0, 0, 0.5), (0, 1, 0.5), (1, 0, 0.25), (1, 1, 0.75)])
            .unwrap();
        let pi = d.steady_state().unwrap();
        assert!((pi[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((pi[1] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn periodic_chain_solved_by_gth() {
        // Two-state swap is periodic; power iteration would oscillate,
        // GTH gives the stationary measure (1/2, 1/2).
        let d = Dtmc::from_triplets(2, &[(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        let pi = d.steady_state().unwrap();
        assert!((pi[0] - 0.5).abs() < 1e-13);
    }

    #[test]
    fn large_periodic_chain_matches_gth_on_p_minus_i() {
        // Period 2 over 600 states: each A_i (i < 200) moves to B_{2i}
        // or B_{2i+1}, which both move on to A_{i+1}. Power iteration
        // oscillates for ever on such a chain; SOR on P − I does not.
        let (a, b) = (|i: usize| i % 200, |k: usize| 200 + k);
        let mut trips = Vec::new();
        for i in 0..200 {
            trips.push((a(i), b(2 * i), 0.3));
            trips.push((a(i), b(2 * i + 1), 0.7));
            trips.push((b(2 * i), a(i + 1), 1.0));
            trips.push((b(2 * i + 1), a(i + 1), 1.0));
        }
        let d = Dtmc::from_triplets(600, &trips).unwrap();
        let pi = d.steady_state().unwrap();
        let mut q = DenseMatrix::zeros(600, 600);
        for &(i, j, p) in &trips {
            q.add_to(i, j, p);
        }
        let gth = gth_steady_state(&q).unwrap();
        for (i, (p, g)) in pi.iter().zip(&gth).enumerate() {
            assert!((p - g).abs() < 1e-15, "state {i}: {p} vs {g}");
        }
        assert!((pi[0] - 1.0 / 400.0).abs() < 1e-15);
        assert!((pi[b(1)] - 0.7 / 400.0).abs() < 1e-15);
    }

    #[test]
    fn step_evolves_distribution() {
        let d = Dtmc::from_triplets(2, &[(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        let pi = d.step(&[1.0, 0.0]).unwrap();
        assert_eq!(pi, vec![0.0, 1.0]);
        assert!(d.step(&[1.0]).is_err());
    }

    #[test]
    fn transient_n_steps() {
        let d = Dtmc::from_triplets(2, &[(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        assert_eq!(d.transient(&[1.0, 0.0], 0).unwrap(), vec![1.0, 0.0]);
        assert_eq!(d.transient(&[1.0, 0.0], 3).unwrap(), vec![0.0, 1.0]);
        assert_eq!(d.transient(&[1.0, 0.0], 4).unwrap(), vec![1.0, 0.0]);
        assert!(d.transient(&[0.5, 0.6], 1).is_err());
    }

    #[test]
    fn gamblers_ruin_absorption() {
        // States 0..=3; 0 and 3 absorbing; fair coin from 1 and 2.
        // P(reach 3 | start 1) = 1/3.
        let d = Dtmc::from_triplets(
            4,
            &[
                (0, 0, 1.0),
                (3, 3, 1.0),
                (1, 0, 0.5),
                (1, 2, 0.5),
                (2, 1, 0.5),
                (2, 3, 0.5),
            ],
        )
        .unwrap();
        let p = d
            .absorption_probabilities(&[0.0, 1.0, 0.0, 0.0], &[0, 3])
            .unwrap();
        assert!((p[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((p[1] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn absorption_validation() {
        let d = Dtmc::from_triplets(2, &[(0, 1, 1.0), (1, 1, 1.0)]).unwrap();
        assert!(d.absorption_probabilities(&[1.0, 0.0], &[]).is_err());
        assert!(d.absorption_probabilities(&[1.0, 0.0], &[5]).is_err());
        assert!(d.absorption_probabilities(&[1.0], &[1]).is_err());
        let p = d.absorption_probabilities(&[1.0, 0.0], &[1]).unwrap();
        assert!((p[0] - 1.0).abs() < 1e-12);
    }
}
