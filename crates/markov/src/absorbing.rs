//! Absorbing-chain analysis: MTTF and reliability.

use crate::builder::{Ctmc, StateId};
use crate::num_err;
use reliab_core::{Error, Result};
use reliab_numeric::DenseMatrix;

impl Ctmc {
    /// Mean time to absorption starting from `initial`, where
    /// `absorbing` lists the failure (absorbing) states.
    ///
    /// Solves `T τ = -1` on the transient sub-generator `T` and returns
    /// `Σ initial_i τ_i`. States listed as absorbing may still have
    /// outgoing transitions in the chain (e.g. repair transitions used
    /// by availability analyses); they are ignored here, which is
    /// exactly the standard "make failure states absorbing" surgery.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidParameter`] — bad distribution, empty or
    ///   all-covering absorbing set.
    /// * [`Error::Numerical`] — some transient state cannot reach
    ///   absorption (infinite MTTF).
    pub fn mttf(&self, initial: &[f64], absorbing: &[StateId]) -> Result<f64> {
        self.check_distribution(initial)?;
        let n = self.num_states();
        let absorbing_mask = self.absorbing_mask(absorbing)?;
        // Map transient states to compact indices.
        let transient: Vec<usize> = (0..n).filter(|&i| !absorbing_mask[i]).collect();
        if transient.is_empty() {
            return Err(Error::invalid("every state is absorbing"));
        }
        let mut compact = vec![usize::MAX; n];
        for (c, &s) in transient.iter().enumerate() {
            compact[s] = c;
        }
        let m = transient.len();
        // Build the transient sub-generator (dense; absorbing analyses
        // in this workspace are small after lumping).
        let mut t = DenseMatrix::zeros(m, m);
        for &(f, to, r) in &self.transitions {
            if absorbing_mask[f] {
                continue;
            }
            let fi = compact[f];
            t.add_to(fi, fi, -r);
            if !absorbing_mask[to] {
                t.add_to(fi, compact[to], r);
            }
        }
        // τ = -T^{-1} 1  =>  solve T τ = -1.
        let rhs = vec![-1.0f64; m];
        let tau = t.lu_solve(&rhs).map_err(|e| match e {
            reliab_numeric::NumericError::Singular(_) => self.mttf_failure(
                &absorbing_mask,
                "transient sub-generator is singular: some state never reaches absorption \
                 (MTTF diverges)"
                    .to_owned(),
            ),
            other => num_err(other),
        })?;
        let mut mttf = 0.0;
        for (c, &s) in transient.iter().enumerate() {
            mttf += initial[s] * tau[c];
        }
        if mttf < 0.0 || !mttf.is_finite() {
            return Err(self.mttf_failure(
                &absorbing_mask,
                format!("MTTF computation produced {mttf}; chain structure is inconsistent"),
            ));
        }
        Ok(mttf)
    }

    /// The error of a failed MTTF solve: `structural` when some
    /// transient state has no path into `absorbing`, otherwise an
    /// overflow of the solve, which then names the largest rate.
    fn mttf_failure(&self, absorbing: &[bool], structural: String) -> Error {
        let n = self.num_states();
        let mut into = vec![Vec::new(); n];
        for &(from, to, rate) in &self.transitions {
            if rate > 0.0 && !absorbing[from] {
                into[to].push(from);
            }
        }
        let mut reaches = absorbing.to_vec();
        let mut stack: Vec<usize> = (0..n).filter(|&i| absorbing[i]).collect();
        while let Some(s) = stack.pop() {
            for &from in &into[s] {
                if !std::mem::replace(&mut reaches[from], true) {
                    stack.push(from);
                }
            }
        }
        if !reaches.iter().all(|&r| r) {
            return Error::numerical(structural);
        }
        let largest = self.transitions.iter().fold(0.0, |m, &(_, _, r)| r.max(m));
        Error::numerical(format!(
            "MTTF solve overflowed (largest rate {largest:e}), although every transient \
             state reaches absorption"
        ))
    }

    /// Reliability at time `t`: the probability that, starting from
    /// `initial`, the chain has not yet entered any of the `absorbing`
    /// states, with those states made truly absorbing first.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Ctmc::mttf`] plus transient-solver errors.
    pub fn reliability_at(&self, initial: &[f64], absorbing: &[StateId], t: f64) -> Result<f64> {
        self.check_distribution(initial)?;
        let mask = self.absorbing_mask(absorbing)?;
        let chopped = self.make_absorbing(&mask)?;
        let pi = chopped.transient(initial, t)?;
        Ok(pi
            .iter()
            .enumerate()
            .filter(|(i, _)| !mask[*i])
            .map(|(_, p)| p)
            .sum())
    }

    /// Reliability at several time points, building the absorbing
    /// chain once and running one transient solve per point.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Ctmc::reliability_at`]; also rejects an
    /// unsorted or negative time grid.
    pub fn reliability_curve(
        &self,
        initial: &[f64],
        absorbing: &[StateId],
        times: &[f64],
    ) -> Result<Vec<f64>> {
        self.check_distribution(initial)?;
        let mut last = 0.0;
        for &t in times {
            if !(t.is_finite() && t >= last) {
                return Err(Error::invalid(format!(
                    "time grid must be sorted, non-negative, finite; saw {t} after {last}"
                )));
            }
            last = t;
        }
        let mask = self.absorbing_mask(absorbing)?;
        let chopped = self.make_absorbing(&mask)?;
        times
            .iter()
            .map(|&t| {
                let pi = chopped.transient(initial, t)?;
                Ok(pi
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !mask[*i])
                    .map(|(_, p)| p)
                    .sum())
            })
            .collect()
    }

    /// Probability of eventually being absorbed in each of the given
    /// absorbing states (with *all* of them made absorbing), starting
    /// from `initial`.
    ///
    /// Classic use: competing failure modes — "what fraction of
    /// failures are fail-safe vs fail-dangerous?" Solves one linear
    /// system per absorbing state on the shared LU-factored transient
    /// sub-generator.
    ///
    /// Returns one probability per entry of `absorbing`, summing to 1
    /// when absorption is certain.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Ctmc::mttf`]; a transient class that never
    /// reaches any absorbing state yields a singular-system error.
    pub fn absorption_probabilities(
        &self,
        initial: &[f64],
        absorbing: &[StateId],
    ) -> Result<Vec<f64>> {
        self.check_distribution(initial)?;
        let n = self.num_states();
        let mask = self.absorbing_mask(absorbing)?;
        let transient: Vec<usize> = (0..n).filter(|&i| !mask[i]).collect();
        if transient.is_empty() {
            // Initial mass sits directly on absorbing states.
            return Ok(absorbing.iter().map(|s| initial[s.index()]).collect());
        }
        let mut compact = vec![usize::MAX; n];
        for (c, &s) in transient.iter().enumerate() {
            compact[s] = c;
        }
        let m = transient.len();
        let mut t = DenseMatrix::zeros(m, m);
        // Rates from transient states into each absorbing target.
        let mut into: Vec<Vec<f64>> = vec![vec![0.0; m]; absorbing.len()];
        let target_index: std::collections::HashMap<usize, usize> = absorbing
            .iter()
            .enumerate()
            .map(|(k, s)| (s.index(), k))
            .collect();
        for &(f, to, r) in &self.transitions {
            if mask[f] {
                continue;
            }
            let fi = compact[f];
            t.add_to(fi, fi, -r);
            if mask[to] {
                if let Some(&k) = target_index.get(&to) {
                    into[k][fi] += r;
                }
            } else {
                t.add_to(fi, compact[to], r);
            }
        }
        // For each target a: solve T x = -into_a; absorption prob from
        // state i is x[i]; weight by the initial distribution.
        let mut out = Vec::with_capacity(absorbing.len());
        for (k, s) in absorbing.iter().enumerate() {
            let rhs: Vec<f64> = into[k].iter().map(|&v| -v).collect();
            let x = t.lu_solve(&rhs).map_err(|e| match e {
                reliab_numeric::NumericError::Singular(_) => Error::numerical(
                    "transient sub-generator is singular: some state never absorbs".to_owned(),
                ),
                other => num_err(other),
            })?;
            let mut p = initial[s.index()]; // mass starting on the target
            for (c, &st) in transient.iter().enumerate() {
                p += initial[st] * x[c];
            }
            out.push(p.clamp(0.0, 1.0));
        }
        Ok(out)
    }

    /// Validates the absorbing set and converts it into a mask.
    fn absorbing_mask(&self, absorbing: &[StateId]) -> Result<Vec<bool>> {
        if absorbing.is_empty() {
            return Err(Error::invalid("absorbing state set is empty"));
        }
        let n = self.num_states();
        let mut mask = vec![false; n];
        for s in absorbing {
            if s.index() >= n {
                return Err(Error::invalid(format!(
                    "absorbing state index {} out of range",
                    s.index()
                )));
            }
            mask[s.index()] = true;
        }
        Ok(mask)
    }

    /// Returns a copy of the chain with all transitions out of masked
    /// states removed.
    fn make_absorbing(&self, mask: &[bool]) -> Result<Ctmc> {
        let mut b = crate::CtmcBuilder::new();
        // Recreate all states (same order => same indices).
        let ids: Vec<StateId> = self.names.iter().map(|n| b.state(n)).collect();
        for &(f, to, r) in &self.transitions {
            if !mask[f] {
                b.transition(ids[f], ids[to], r)?;
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use crate::CtmcBuilder;

    #[test]
    fn single_component_mttf() {
        let mut b = CtmcBuilder::new();
        let up = b.state("up");
        let down = b.state("down");
        b.transition(up, down, 0.25).unwrap();
        let c = b.build().unwrap();
        let mttf = c.mttf(&c.point_mass(up), &[down]).unwrap();
        assert!((mttf - 4.0).abs() < 1e-12);
    }

    #[test]
    fn two_component_series_mttf() {
        // Both must work; either failing kills the system.
        // MTTF = 1/(l1+l2).
        let mut b = CtmcBuilder::new();
        let up = b.state("up");
        let down = b.state("down");
        b.transition(up, down, 0.1).unwrap();
        b.transition(up, down, 0.3).unwrap();
        let c = b.build().unwrap();
        let mttf = c.mttf(&c.point_mass(up), &[down]).unwrap();
        assert!((mttf - 2.5).abs() < 1e-12);
    }

    #[test]
    fn parallel_redundant_mttf_with_repair() {
        // Two identical units, one repair crew; system fails when both
        // are down. Known closed form:
        // MTTF = (3λ + μ) / (2λ²).
        let (l, m) = (0.01f64, 1.0f64);
        let mut b = CtmcBuilder::new();
        let s0 = b.state("both-up");
        let s1 = b.state("one-up");
        let s2 = b.state("none-up");
        b.transition(s0, s1, 2.0 * l).unwrap();
        b.transition(s1, s0, m).unwrap();
        b.transition(s1, s2, l).unwrap();
        let c = b.build().unwrap();
        let mttf = c.mttf(&c.point_mass(s0), &[s2]).unwrap();
        let expected = (3.0 * l + m) / (2.0 * l * l);
        assert!(
            (mttf - expected).abs() < 1e-6 * expected,
            "{mttf} vs {expected}"
        );
    }

    #[test]
    fn mttf_diverges_when_absorption_unreachable() {
        let mut b = CtmcBuilder::new();
        let a = b.state("a");
        let bb = b.state("b");
        let dead = b.state("dead");
        // a <-> b, dead unreachable.
        b.transition(a, bb, 1.0).unwrap();
        b.transition(bb, a, 1.0).unwrap();
        let c = b.build().unwrap();
        assert!(c.mttf(&c.point_mass(a), &[dead]).is_err());
    }

    /// A chain from which absorption is reachable but whose rates
    /// overflow the solve is not blamed for its structure: the error
    /// says the solve overflowed and names the largest rate. The two
    /// chains are `specs/two_component.json` with its first rate, and
    /// `specs/maintained_cluster.json` with its second, set to 1e308.
    /// A chain that cannot reach absorption keeps the structural
    /// message.
    #[test]
    fn overflowing_rates_are_not_blamed_on_the_structure() {
        let chain = |states: &[&str], arcs: &[(usize, usize, f64)]| {
            let mut b = CtmcBuilder::new();
            let ids: Vec<_> = states.iter().map(|s| b.state(s)).collect();
            for &(from, to, rate) in arcs {
                b.transition(ids[from], ids[to], rate).unwrap();
            }
            (b.build().unwrap(), ids)
        };
        let two_component = chain(
            &["both-up", "one-up", "none-up"],
            &[(0, 1, 1e308), (1, 0, 1.0), (1, 2, 0.01), (2, 1, 1.0)],
        );
        let maintained_cluster = chain(
            &["all-up", "degraded", "maintenance", "repair", "down"],
            &[
                (0, 1, 0.3),
                (0, 2, 1e308),
                (1, 4, 0.07),
                (1, 0, 1.9),
                (1, 3, 0.3),
                (1, 2, 0.2),
                (2, 0, 2.3),
                (3, 0, 0.9),
                (3, 4, 0.05),
                (4, 3, 0.4),
            ],
        );
        for (c, ids) in [two_component, maintained_cluster] {
            let down = *ids.last().unwrap();
            let err = c.mttf(&c.point_mass(ids[0]), &[down]).unwrap_err();
            assert!(matches!(err, reliab_core::Error::Numerical(_)), "{err}");
            let msg = err.to_string();
            assert!(
                msg.contains("MTTF solve overflowed (largest rate 1e308)"),
                "{msg}"
            );
        }
        // A closed pair that never reaches "dead", at a tame rate (the
        // LU meets a zero pivot) and at an overflowing one (it returns
        // inf): either way the structure is blamed.
        for (rate, structural) in [
            (1.0, "some state never reaches absorption"),
            (1e308, "produced inf; chain structure is inconsistent"),
        ] {
            let (c, ids) = chain(&["a", "b", "dead"], &[(0, 1, rate), (1, 0, 1.0)]);
            let msg = c
                .mttf(&c.point_mass(ids[0]), &[ids[2]])
                .unwrap_err()
                .to_string();
            assert!(msg.contains(structural), "{msg}");
        }
    }

    #[test]
    fn reliability_matches_exponential_for_single_component() {
        let mut b = CtmcBuilder::new();
        let up = b.state("up");
        let down = b.state("down");
        b.transition(up, down, 0.5).unwrap();
        // Add a repair arc: reliability analysis must cut it.
        b.transition(down, up, 10.0).unwrap();
        let c = b.build().unwrap();
        let p0 = c.point_mass(up);
        for &t in &[0.1, 1.0, 3.0] {
            let r = c.reliability_at(&p0, &[down], t).unwrap();
            assert!((r - (-0.5 * t).exp()).abs() < 1e-9, "t = {t}: r = {r}");
        }
    }

    #[test]
    fn reliability_is_monotone_decreasing() {
        let (l, m) = (0.3, 2.0);
        let mut b = CtmcBuilder::new();
        let s0 = b.state("2up");
        let s1 = b.state("1up");
        let s2 = b.state("0up");
        b.transition(s0, s1, 2.0 * l).unwrap();
        b.transition(s1, s0, m).unwrap();
        b.transition(s1, s2, l).unwrap();
        let c = b.build().unwrap();
        let p0 = c.point_mass(s0);
        let mut last = 1.0;
        for i in 1..20 {
            let r = c.reliability_at(&p0, &[s2], i as f64).unwrap();
            assert!(r <= last + 1e-12, "non-monotone at t = {i}");
            last = r;
        }
    }

    #[test]
    fn reliability_curve_matches_pointwise_calls() {
        let mut b = CtmcBuilder::new();
        let s0 = b.state("2up");
        let s1 = b.state("1up");
        let s2 = b.state("0up");
        b.transition(s0, s1, 0.4).unwrap();
        b.transition(s1, s0, 2.0).unwrap();
        b.transition(s1, s2, 0.2).unwrap();
        let c = b.build().unwrap();
        let p0 = c.point_mass(s0);
        let times = [0.5, 1.0, 5.0, 20.0];
        let curve = c.reliability_curve(&p0, &[s2], &times).unwrap();
        for (t, r) in times.iter().zip(&curve) {
            let single = c.reliability_at(&p0, &[s2], *t).unwrap();
            assert!((r - single).abs() < 1e-12);
        }
        // Grid validation.
        assert!(c.reliability_curve(&p0, &[s2], &[2.0, 1.0]).is_err());
        assert!(c.reliability_curve(&p0, &[s2], &[-1.0]).is_err());
    }

    #[test]
    fn validation_of_absorbing_sets() {
        let mut b = CtmcBuilder::new();
        let up = b.state("up");
        let down = b.state("down");
        b.transition(up, down, 1.0).unwrap();
        let c = b.build().unwrap();
        assert!(c.mttf(&c.point_mass(up), &[]).is_err());
        assert!(c.mttf(&c.point_mass(up), &[up, down]).is_err());
    }

    #[test]
    fn absorption_probabilities_split_by_coverage() {
        // 2up --2λc--> 1up --λ--> covered-fail
        // 2up --2λ(1-c)--> uncovered-fail
        let (l, c) = (0.001f64, 0.9f64);
        let mut b = CtmcBuilder::new();
        let s2 = b.state("2up");
        let s1 = b.state("1up");
        let fc = b.state("covered-fail");
        let fu = b.state("uncovered-fail");
        b.transition(s2, s1, 2.0 * l * c).unwrap();
        b.transition(s2, fu, 2.0 * l * (1.0 - c)).unwrap();
        b.transition(s1, fc, l).unwrap();
        let chain = b.build().unwrap();
        let p = chain
            .absorption_probabilities(&chain.point_mass(s2), &[fc, fu])
            .unwrap();
        // P(uncovered) = (1-c), P(covered path) = c.
        assert!((p[0] - c).abs() < 1e-12, "covered: {}", p[0]);
        assert!((p[1] - (1.0 - c)).abs() < 1e-12, "uncovered: {}", p[1]);
        assert!((p[0] + p[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn absorption_probabilities_with_repair_loops() {
        // Repair between transient states must not break the split.
        let mut b = CtmcBuilder::new();
        let a = b.state("a");
        let bb = b.state("b");
        let left = b.state("left");
        let right = b.state("right");
        b.transition(a, bb, 1.0).unwrap();
        b.transition(bb, a, 3.0).unwrap();
        b.transition(a, left, 2.0).unwrap();
        b.transition(bb, right, 1.0).unwrap();
        let chain = b.build().unwrap();
        let p = chain
            .absorption_probabilities(&chain.point_mass(a), &[left, right])
            .unwrap();
        assert!((p[0] + p[1] - 1.0).abs() < 1e-12);
        // First-step analysis: from a, P(left) = 2/3 + 1/3·P_b(left);
        // from b, P_b(left) = 3/4·P_a(left). => P_a = 2/3 + 1/4 P_a
        // => P_a(left) = 8/9.
        assert!((p[0] - 8.0 / 9.0).abs() < 1e-12, "{}", p[0]);
    }

    #[test]
    fn absorption_from_initial_mass_on_target() {
        let mut b = CtmcBuilder::new();
        let a = b.state("a");
        let dead = b.state("dead");
        b.transition(a, dead, 1.0).unwrap();
        let chain = b.build().unwrap();
        let p = chain
            .absorption_probabilities(&[0.25, 0.75], &[dead])
            .unwrap();
        assert!((p[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mttf_from_mixed_initial_distribution() {
        let mut b = CtmcBuilder::new();
        let a = b.state("a");
        let mid = b.state("mid");
        let dead = b.state("dead");
        b.transition(a, mid, 1.0).unwrap();
        b.transition(mid, dead, 1.0).unwrap();
        let c = b.build().unwrap();
        // From a: 2.0; from mid: 1.0; mixture 50/50: 1.5.
        let mttf = c.mttf(&[0.5, 0.5, 0.0], &[dead]).unwrap();
        assert!((mttf - 1.5).abs() < 1e-12);
    }
}
