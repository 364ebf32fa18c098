//! Steady-state solution of irreducible CTMCs.

use crate::block::solve_in_core;
use crate::builder::Ctmc;
use crate::num_err;
use crate::plan::{MemoryPlan, SteadyMethod, SteadyOptions};
use reliab_core::Result;
use reliab_numeric::gth_steady_state_rows;
use reliab_obs as obs;

/// A solved stationary distribution plus solver telemetry.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SteadyReport {
    /// The stationary distribution.
    pub pi: Vec<f64>,
    /// The method that actually ran (`Auto` resolves before solving):
    /// `"gth"` from any entry, `"sor"` or `"power"` for a resident
    /// chain, `"stream-sor"` or `"stream-power"` for
    /// [`crate::steady_state`].
    pub method: &'static str,
    /// Sweeps performed (for GTH: the `n` elimination stages; its
    /// inner work is the `markov.gth.updates` counter).
    pub iterations: usize,
    /// Final convergence residual (0 for the direct GTH solve):
    /// relative `∞`-norm change for SOR, absolute for power.
    pub residual: f64,
    /// Final-sweep residual per column block, on the same scale as
    /// `residual` — the per-shard view of convergence (empty for GTH).
    pub block_residuals: Vec<f64>,
    /// The memory plan an iterative solve ran under (`None` for GTH).
    pub plan: Option<MemoryPlan>,
}

impl Ctmc {
    /// Stationary distribution with automatic method selection.
    ///
    /// # Errors
    ///
    /// * [`reliab_core::Error::Numerical`] — reducible chain (no unique
    ///   stationary vector).
    /// * [`reliab_core::Error::Convergence`] — SOR budget exhausted.
    pub fn steady_state(&self) -> Result<Vec<f64>> {
        self.steady_state_report(&SteadyOptions::default())
            .map(|r| r.pi)
    }

    /// Stationary distribution by the options' method, plus solver
    /// telemetry — which method ran, how many sweeps it took, and the
    /// final residual. GTH reads the generator's rows in place; SOR and
    /// power run the block kernel of [`crate::steady_state`] over this
    /// chain as one fully cached block.
    ///
    /// # Errors
    ///
    /// See [`Ctmc::steady_state`]; bad iterative options, a memory
    /// budget or a block count are
    /// [`reliab_core::Error::InvalidParameter`].
    pub fn steady_state_report(&self, opts: &SteadyOptions) -> Result<SteadyReport> {
        let _span = obs::span("markov.steady");
        opts.check_resident()?;
        let report = match opts.method.resolve(self.num_states()) {
            SteadyMethod::Gth => gth(self.num_states(), |i| self.generator.row(i)),
            _ => solve_in_core(self, opts),
        };
        if let Ok(r) = &report {
            obs::counter_add("markov.steady.solves", 1);
            obs::counter_add("markov.steady.iterations", r.iterations as u64);
        }
        report
    }

    /// Whether every state reaches every other, so that the chain has
    /// one stationary distribution and it puts mass on every state.
    pub fn is_irreducible(&self) -> bool {
        let n = self.num_states();
        let reaches_all = |arcs: &mut dyn Iterator<Item = (usize, usize)>| {
            let mut next = vec![Vec::new(); n];
            for (from, to) in arcs {
                next[from].push(to);
            }
            let mut seen = vec![false; n];
            seen[0] = true;
            let mut stack = vec![0];
            while let Some(s) = stack.pop() {
                for &t in &next[s] {
                    if !std::mem::replace(&mut seen[t], true) {
                        stack.push(t);
                    }
                }
            }
            seen.iter().all(|&s| s)
        };
        let arcs = || self.transitions.iter().map(|&(from, to, _)| (from, to));
        reaches_all(&mut arcs()) && reaches_all(&mut arcs().map(|(from, to)| (to, from)))
    }

    /// Long-run probability of being in any state of `up_states`
    /// (steady-state availability when those are the operational
    /// states).
    ///
    /// # Errors
    ///
    /// Propagates [`Ctmc::steady_state`] errors.
    pub fn steady_state_probability_of(&self, states: &[crate::StateId]) -> Result<f64> {
        let pi = self.steady_state()?;
        Ok(states.iter().map(|s| pi[s.index()]).sum())
    }
}

/// GTH over `n` rows read by `row`, emitting one `markov.iteration`
/// event per elimination stage — the one GTH body every entry runs.
pub(crate) fn gth<I>(n: usize, row: impl Fn(usize) -> I) -> Result<SteadyReport>
where
    I: IntoIterator<Item = (usize, f64)>,
{
    let solved = gth_steady_state_rows(n, row, &mut |k| {
        obs::event(
            "markov.iteration",
            &[
                ("method", "gth".into()),
                ("iter", k.into()),
                ("residual", 0.0.into()),
            ],
        );
    })
    .map_err(num_err)?;
    obs::counter_add("markov.gth.updates", solved.updates);
    Ok(SteadyReport {
        pi: solved.pi,
        method: "gth",
        iterations: n,
        residual: 0.0,
        block_residuals: Vec::new(),
        plan: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CtmcBuilder;

    fn by(method: SteadyMethod) -> SteadyOptions {
        SteadyOptions {
            method,
            ..Default::default()
        }
    }

    /// Classic two-component parallel system with a single shared
    /// repair facility (states = number of failed components).
    fn shared_repair_chain(lambda: f64, mu: f64) -> Ctmc {
        let mut b = CtmcBuilder::new();
        let s0 = b.state("0-failed");
        let s1 = b.state("1-failed");
        let s2 = b.state("2-failed");
        b.transition(s0, s1, 2.0 * lambda).unwrap();
        b.transition(s1, s2, lambda).unwrap();
        b.transition(s1, s0, mu).unwrap();
        b.transition(s2, s1, mu).unwrap(); // single crew: rate stays mu
        b.build().unwrap()
    }

    #[test]
    fn shared_repair_closed_form() {
        // Birth-death: pi1/pi0 = 2λ/μ, pi2/pi1 = λ/μ.
        let (l, m) = (0.01, 1.0);
        let c = shared_repair_chain(l, m);
        let pi = c.steady_state().unwrap();
        let r1 = 2.0 * l / m;
        let r2 = l / m;
        let norm = 1.0 + r1 + r1 * r2;
        assert!((pi[0] - 1.0 / norm).abs() < 1e-13);
        assert!((pi[1] - r1 / norm).abs() < 1e-13);
        assert!((pi[2] - r1 * r2 / norm).abs() < 1e-13);
    }

    #[test]
    fn methods_agree() {
        let c = shared_repair_chain(0.2, 1.5);
        let pi = |m: SteadyMethod| c.steady_state_report(&by(m)).unwrap().pi;
        let gth = pi(SteadyMethod::Gth);
        let sor = pi(SteadyMethod::Sor);
        let power = pi(SteadyMethod::Power);
        let auto = c.steady_state().unwrap();
        for i in 0..3 {
            assert!((gth[i] - sor[i]).abs() < 1e-9);
            assert!((gth[i] - power[i]).abs() < 1e-9);
            assert!((gth[i] - auto[i]).abs() < 1e-13);
        }
    }

    /// A resident chain is solved in memory as one block, so a memory
    /// budget or a block count, which plan a row source's reads, is
    /// refused rather than ignored.
    #[test]
    fn resident_chain_refuses_a_budget_and_a_block_count() {
        let c = shared_repair_chain(0.2, 1.5);
        for opts in [
            SteadyOptions {
                mem_budget: Some(1 << 30),
                ..Default::default()
            },
            SteadyOptions {
                blocks: Some(2),
                ..by(SteadyMethod::Sor)
            },
        ] {
            let err = c.steady_state_report(&opts).unwrap_err();
            assert!(
                matches!(err, reliab_core::Error::InvalidParameter(_)),
                "{err}"
            );
        }
    }

    #[test]
    fn reports_carry_method_and_iterations() {
        let c = shared_repair_chain(0.2, 1.5);
        let gth = c.steady_state_report(&by(SteadyMethod::Gth)).unwrap();
        assert_eq!(gth.method, "gth");
        assert_eq!(gth.iterations, 3);
        assert_eq!(gth.residual, 0.0);

        let sor = c.steady_state_report(&by(SteadyMethod::Sor)).unwrap();
        assert_eq!(sor.method, "sor");
        assert!(sor.iterations > 0);
        assert!(sor.residual < 1e-12);

        let power = c.steady_state_report(&by(SteadyMethod::Power)).unwrap();
        assert_eq!(power.method, "power");
        assert!(power.iterations > sor.iterations, "power converges slower");
    }

    #[test]
    fn availability_of_up_states() {
        let c = shared_repair_chain(0.01, 1.0);
        let up: Vec<_> = [
            c.find_state("0-failed").unwrap(),
            c.find_state("1-failed").unwrap(),
        ]
        .to_vec();
        let a = c.steady_state_probability_of(&up).unwrap();
        let pi = c.steady_state().unwrap();
        assert!((a - (pi[0] + pi[1])).abs() < 1e-15);
        assert!(a > 0.999);
    }

    #[test]
    fn reducible_chain_errors() {
        let mut b = CtmcBuilder::new();
        let a = b.state("a");
        let absorbing = b.state("b");
        b.transition(a, absorbing, 1.0).unwrap();
        let c = b.build().unwrap();
        assert!(c.steady_state().is_err());
        assert!(!c.is_irreducible());
        assert!(shared_repair_chain(0.2, 1.5).is_irreducible());
    }

    #[test]
    fn large_chain_uses_sor_and_matches_structure() {
        // 600-state birth-death chain exceeds the GTH threshold.
        let mut b = CtmcBuilder::new();
        let states: Vec<_> = (0..600).map(|i| b.state(&format!("s{i}"))).collect();
        for w in states.windows(2) {
            b.transition(w[0], w[1], 1.0).unwrap();
            b.transition(w[1], w[0], 2.0).unwrap();
        }
        let c = b.build().unwrap();
        let pi = c.steady_state().unwrap();
        // Geometric with ratio 1/2.
        assert!((pi[1] / pi[0] - 0.5).abs() < 1e-6);
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
