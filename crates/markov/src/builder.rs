//! CTMC construction with named states and boundary validation.

use reliab_core::{ensure_finite_positive, Error, Result};
use reliab_numeric::{CsrMatrix, DenseMatrix, NumericError};
use std::collections::HashMap;

/// Opaque handle to a CTMC state, returned by [`CtmcBuilder::state`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(usize);

impl StateId {
    /// The state's index into solution vectors (`π`, reward vectors).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Incremental builder for a [`Ctmc`].
///
/// States are created by name; transitions carry positive rates.
/// Declaring the same transition twice accumulates the rates (useful
/// when several physical events map to the same state pair).
#[derive(Debug, Default)]
pub struct CtmcBuilder {
    names: Vec<String>,
    index: HashMap<String, usize>,
    transitions: Vec<(usize, usize, f64)>,
}

impl CtmcBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        CtmcBuilder::default()
    }

    /// Adds (or looks up) a state by name and returns its handle.
    pub fn state(&mut self, name: &str) -> StateId {
        if let Some(&i) = self.index.get(name) {
            return StateId(i);
        }
        let i = self.names.len();
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), i);
        StateId(i)
    }

    /// Number of states declared so far.
    pub fn num_states(&self) -> usize {
        self.names.len()
    }

    /// Adds a transition with the given positive rate.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if the rate is not finite
    /// and positive, or [`Error::Model`] for a self-loop (meaningless in
    /// a CTMC).
    pub fn transition(&mut self, from: StateId, to: StateId, rate: f64) -> Result<&mut Self> {
        ensure_finite_positive(rate, "transition rate")?;
        if from == to {
            return Err(Error::model(format!(
                "self-loop on state '{}' is not a CTMC transition",
                self.names[from.0]
            )));
        }
        if from.0 >= self.names.len() || to.0 >= self.names.len() {
            return Err(Error::model("state handle from another builder"));
        }
        self.transitions.push((from.0, to.0, rate));
        Ok(self)
    }

    /// Finalizes the chain.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Model`] if no states were declared.
    pub fn build(self) -> Result<Ctmc> {
        let n = self.names.len();
        if n == 0 {
            return Err(Error::model("CTMC has no states"));
        }
        let (out_rate, generator) = assemble(n, &self.transitions)?;
        Ok(Ctmc {
            names: self.names,
            transitions: self.transitions,
            out_rate,
            generator,
            slots: Vec::new(),
        })
    }
}

/// Sums each state's exit rate over `(from, rate)` arcs, in order.
fn sum_exit_rates(out_rate: &mut [f64], arcs: impl Iterator<Item = (usize, f64)>) {
    out_rate.fill(0.0);
    for (f, r) in arcs {
        out_rate[f] += r;
    }
}

/// The error of state `i`'s overflowed exit rate: the generator's
/// assembly rejects the diagonal entry it would become.
pub(crate) fn exit_rate_overflow(i: usize, exit: f64) -> Error {
    crate::num_err(NumericError::Invalid(format!(
        "non-finite value {} at ({i}, {i})",
        -exit
    )))
}

/// Rejects an exit rate that overflowed.
fn check_exit_rates(out_rate: &[f64]) -> Result<()> {
    match out_rate.iter().position(|r| !r.is_finite()) {
        Some(i) => Err(exit_rate_overflow(i, out_rate[i])),
        None => Ok(()),
    }
}

/// Exit rates, summed in declaration order, and the full generator
/// (diagonal included) of `n` states joined by validated transitions.
/// Duplicate `(from, to)` pairs accumulate in the generator.
fn assemble(n: usize, transitions: &[(usize, usize, f64)]) -> Result<(Vec<f64>, CsrMatrix)> {
    let mut out_rate = vec![0.0f64; n];
    sum_exit_rates(&mut out_rate, transitions.iter().map(|&(f, _, r)| (f, r)));
    check_exit_rates(&out_rate)?;
    let mut trips = transitions.to_vec();
    for (i, &r) in out_rate.iter().enumerate() {
        if r > 0.0 {
            trips.push((i, i, -r));
        }
    }
    let generator = CsrMatrix::from_triplets(n, n, &trips).map_err(crate::num_err)?;
    Ok((out_rate, generator))
}

impl Ctmc {
    /// Builds a chain directly from a state-name list and `(from, to,
    /// rate)` triplets, bypassing the name-interning builder — the
    /// streaming path used by reachability-graph generators that
    /// already hold a canonical state numbering. Duplicate `(from,
    /// to)` pairs accumulate, exactly like repeated
    /// [`CtmcBuilder::transition`] calls.
    ///
    /// Names are taken as-is; callers are responsible for uniqueness
    /// (a duplicated name only affects [`Ctmc::find_state`], which
    /// returns the first match).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Model`] for an empty state list, a self-loop,
    /// or an out-of-range state index, and
    /// [`Error::InvalidParameter`] for a rate that is not finite and
    /// positive.
    pub fn from_parts(names: Vec<String>, transitions: Vec<(usize, usize, f64)>) -> Result<Ctmc> {
        let n = names.len();
        if n == 0 {
            return Err(Error::model("CTMC has no states"));
        }
        for &(f, t, r) in &transitions {
            if f >= n || t >= n {
                return Err(Error::model(format!(
                    "transition ({f}, {t}) out of range for {n} states"
                )));
            }
            if f == t {
                return Err(Error::model(format!(
                    "self-loop on state '{}' is not a CTMC transition",
                    names[f]
                )));
            }
            ensure_finite_positive(r, "transition rate")?;
        }
        let (out_rate, generator) = assemble(n, &transitions)?;
        Ok(Ctmc {
            names,
            transitions,
            out_rate,
            generator,
            slots: Vec::new(),
        })
    }

    /// Replaces the rate of every transition, given in declaration
    /// order, keeping the states and arcs. The exit rates and the
    /// generator's values are refilled in place, summed in the order
    /// [`CtmcBuilder::build`] sums them, so the refilled chain is
    /// bitwise the one a builder given the same transitions would
    /// produce — which lets a model re-solved with new rates skip name
    /// interning, validation of its structure and the generator's
    /// assembly. The first refill records where each rate lands in the
    /// generator; later ones allocate nothing.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Model`] if `rates` does not hold one rate per
    /// transition, [`Error::InvalidParameter`] for the first rate (in
    /// declaration order) that is not finite and positive, and
    /// [`Error::Numerical`] if the exit rates overflow. The chain is
    /// unchanged on error.
    pub fn set_rates(&mut self, rates: &[f64]) -> Result<()> {
        let m = self.transitions.len();
        if rates.len() != m {
            return Err(Error::model(format!(
                "{} rates given for {m} transitions",
                rates.len()
            )));
        }
        for &r in rates {
            ensure_finite_positive(r, "transition rate")?;
        }
        sum_exit_rates(
            &mut self.out_rate,
            self.transitions.iter().zip(rates).map(|(t, &r)| (t.0, r)),
        );
        if let Err(e) = check_exit_rates(&self.out_rate) {
            sum_exit_rates(
                &mut self.out_rate,
                self.transitions.iter().map(|t| (t.0, t.2)),
            );
            return Err(e);
        }
        if self.slots.is_empty() {
            let g = &self.generator;
            self.slots = self
                .transitions
                .iter()
                .map(|&(f, t, _)| (f, t))
                .chain((0..self.names.len()).map(|i| (i, i)))
                .map(|(i, j)| g.slot(i, j).unwrap_or(usize::MAX))
                .collect();
        }
        let (arc_slots, diagonal_slots) = self.slots.split_at(m);
        let values = self.generator.values_mut();
        values.fill(0.0);
        for ((t, &r), &k) in self.transitions.iter_mut().zip(rates).zip(arc_slots) {
            t.2 = r;
            values[k] += r;
        }
        for (&r, &k) in self.out_rate.iter().zip(diagonal_slots) {
            if r > 0.0 {
                values[k] = -r;
            }
        }
        Ok(())
    }

    /// Handles of all states in index order — the counterpart of
    /// collecting [`CtmcBuilder::state`] return values when the chain
    /// was built via [`Ctmc::from_parts`].
    pub fn state_ids(&self) -> Vec<StateId> {
        (0..self.num_states()).map(StateId).collect()
    }
}

/// A finite continuous-time Markov chain.
///
/// Construct with [`CtmcBuilder`]. Solution methods live in the
/// `steady`, `transient`, `absorbing`, and `rewards` modules and are
/// inherent methods of this type.
#[derive(Debug, Clone)]
pub struct Ctmc {
    pub(crate) names: Vec<String>,
    pub(crate) transitions: Vec<(usize, usize, f64)>,
    pub(crate) out_rate: Vec<f64>,
    /// Full generator (including diagonal) in CSR form.
    pub(crate) generator: CsrMatrix,
    /// Position in the generator's values of each transition's rate,
    /// then of each state's diagonal (`usize::MAX` for a state without
    /// exits): recorded by the first [`Ctmc::set_rates`], empty before.
    slots: Vec<usize>,
}

impl Ctmc {
    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.names.len()
    }

    /// Name of a state.
    ///
    /// # Panics
    ///
    /// Panics if the handle is out of range (foreign handle).
    pub fn state_name(&self, s: StateId) -> &str {
        &self.names[s.0]
    }

    /// Looks a state up by name.
    pub fn find_state(&self, name: &str) -> Option<StateId> {
        self.names.iter().position(|n| n == name).map(StateId)
    }

    /// Number of transitions (as declared; parallel arcs counted
    /// separately).
    pub fn num_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// Total exit rate of each state.
    pub fn exit_rates(&self) -> &[f64] {
        &self.out_rate
    }

    /// The infinitesimal generator as a dense matrix (diagonal
    /// included). Intended for small chains and direct solvers.
    pub fn generator_dense(&self) -> DenseMatrix {
        self.generator.to_dense()
    }

    /// The generator in CSR form (diagonal included).
    pub fn generator(&self) -> &CsrMatrix {
        &self.generator
    }

    /// Validates an initial probability vector against this chain.
    pub(crate) fn check_distribution(&self, p: &[f64]) -> Result<()> {
        if p.len() != self.num_states() {
            return Err(Error::invalid(format!(
                "distribution length {} != number of states {}",
                p.len(),
                self.num_states()
            )));
        }
        let mut total = 0.0;
        for (i, &v) in p.iter().enumerate() {
            if !v.is_finite() || v < 0.0 {
                return Err(Error::invalid(format!("p[{i}] = {v} must be >= 0")));
            }
            total += v;
        }
        if (total - 1.0).abs() > 1e-9 {
            return Err(Error::invalid(format!(
                "distribution sums to {total}, expected 1"
            )));
        }
        Ok(())
    }

    /// A point-mass initial distribution on `s`.
    pub fn point_mass(&self, s: StateId) -> Vec<f64> {
        let mut p = vec![0.0; self.num_states()];
        p[s.0] = 1.0;
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn states_are_interned_by_name() {
        let mut b = CtmcBuilder::new();
        let a = b.state("up");
        let a2 = b.state("up");
        let c = b.state("down");
        assert_eq!(a, a2);
        assert_ne!(a, c);
        assert_eq!(b.num_states(), 2);
    }

    #[test]
    fn transition_validation() {
        let mut b = CtmcBuilder::new();
        let up = b.state("up");
        let down = b.state("down");
        assert!(b.transition(up, down, 0.0).is_err());
        assert!(b.transition(up, down, f64::NAN).is_err());
        assert!(b.transition(up, up, 1.0).is_err());
        assert!(b.transition(up, down, 1.0).is_ok());
    }

    #[test]
    fn parallel_arcs_accumulate() {
        let mut b = CtmcBuilder::new();
        let up = b.state("up");
        let down = b.state("down");
        b.transition(up, down, 1.0).unwrap();
        b.transition(up, down, 2.0).unwrap();
        b.transition(down, up, 5.0).unwrap();
        let c = b.build().unwrap();
        assert_eq!(c.exit_rates()[0], 3.0);
        assert_eq!(c.generator().get(0, 1), 3.0);
        assert_eq!(c.generator().get(0, 0), -3.0);
    }

    /// Exit rates and generator entries of `c`, as bits.
    fn chain_bits(c: &Ctmc) -> (Vec<u64>, Vec<(usize, usize, u64)>) {
        let g = c.generator();
        let entries = (0..g.nrows())
            .flat_map(|i| g.row(i).map(move |(j, v)| (i, j, v.to_bits())))
            .collect();
        (
            c.exit_rates().iter().map(|r| r.to_bits()).collect(),
            entries,
        )
    }

    /// A refilled chain equals a fresh build from the same transitions
    /// bit for bit, on a hand-made chain and on seeded random chains
    /// with repeated `(from, to)` arcs and states without exits, each
    /// refilled several times; a rejected rate or an overflowing exit
    /// rate fails as the build fails and leaves the chain as it was.
    #[test]
    fn set_rates_matches_a_fresh_build() {
        let chain = |rates: [f64; 4]| {
            let mut b = CtmcBuilder::new();
            let (up, deg, down) = (b.state("up"), b.state("degraded"), b.state("down"));
            b.transition(up, deg, rates[0]).unwrap();
            b.transition(deg, up, rates[1]).unwrap();
            b.transition(deg, down, rates[2]).unwrap();
            b.transition(up, deg, rates[3]).unwrap();
            b.build().unwrap()
        };
        let mut refilled = chain([1.0, 2.0, 3.0, 4.0]);
        let fresh = chain([0.1, 0.7, 1e-9, 0.3]);
        refilled.set_rates(&[0.1, 0.7, 1e-9, 0.3]).unwrap();
        assert_eq!(chain_bits(&refilled), chain_bits(&fresh));
        let err = refilled.set_rates(&[0.1, -1.0, 0.2, 0.3]).unwrap_err();
        let mut b = CtmcBuilder::new();
        let (up, down) = (b.state("up"), b.state("down"));
        assert_eq!(err, b.transition(up, down, -1.0).unwrap_err());
        assert_eq!(chain_bits(&refilled), chain_bits(&fresh));
        assert!(refilled.set_rates(&[1.0]).is_err());

        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let (mut refills, mut overflows) = (0, 0);
        for _ in 0..300 {
            let n = 1 + (next() % 12) as usize;
            // States at or past `sinks` have no exits.
            let sinks = n - (next() % 3) as usize % n;
            let names: Vec<String> = (0..n).map(|i| format!("s{i}")).collect();
            let mut arcs = Vec::new();
            for _ in 0..next() % 40 {
                let (f, t) = ((next() as usize) % sinks, (next() as usize) % n);
                if f != t {
                    arcs.push((f, t));
                    if next() % 4 == 0 {
                        arcs.push((f, t));
                    }
                }
            }
            if arcs.is_empty() {
                continue;
            }
            let build = |rates: &[f64]| {
                let trips = arcs.iter().zip(rates).map(|(&(f, t), &r)| (f, t, r));
                Ctmc::from_parts(names.clone(), trips.collect())
            };
            let mut draw = || -> Vec<f64> {
                arcs.iter()
                    .map(|_| {
                        let scale = [1e-9, 1e-3, 1.0, 7.0, 1e6][(next() % 5) as usize];
                        scale * (1 + next() % 1000) as f64 / 997.0
                    })
                    .collect()
            };
            let mut refilled = build(&draw()).unwrap();
            for _ in 0..3 {
                let rates = draw();
                refilled.set_rates(&rates).unwrap();
                assert_eq!(chain_bits(&refilled), chain_bits(&build(&rates).unwrap()));
                refills += 1;
            }
            let before = chain_bits(&refilled);
            let huge = vec![f64::MAX; arcs.len()];
            match (refilled.set_rates(&huge), build(&huge)) {
                (Ok(()), Ok(fresh)) => assert_eq!(chain_bits(&refilled), chain_bits(&fresh)),
                (Err(a), Err(b)) => {
                    assert_eq!(a, b);
                    assert_eq!(chain_bits(&refilled), before);
                    overflows += 1;
                }
                (a, b) => panic!("refill {a:?}, build {:?}", b.err()),
            }
        }
        assert!(refills > 600 && overflows > 50, "{refills} {overflows}");
    }

    #[test]
    fn empty_chain_rejected() {
        assert!(CtmcBuilder::new().build().is_err());
    }

    #[test]
    fn lookup_and_names() {
        let mut b = CtmcBuilder::new();
        let up = b.state("up");
        let c = {
            let down = b.state("down");
            b.transition(up, down, 1.0).unwrap();
            b.transition(down, up, 1.0).unwrap();
            b.build().unwrap()
        };
        assert_eq!(c.state_name(up), "up");
        assert_eq!(c.find_state("down").unwrap().index(), 1);
        assert!(c.find_state("nope").is_none());
    }

    #[test]
    fn distribution_validation() {
        let mut b = CtmcBuilder::new();
        let up = b.state("up");
        let down = b.state("down");
        b.transition(up, down, 1.0).unwrap();
        b.transition(down, up, 1.0).unwrap();
        let c = b.build().unwrap();
        assert!(c.check_distribution(&[1.0, 0.0]).is_ok());
        assert!(c.check_distribution(&[0.5]).is_err());
        assert!(c.check_distribution(&[0.7, 0.7]).is_err());
        assert!(c.check_distribution(&[-0.1, 1.1]).is_err());
        assert_eq!(c.point_mass(down), vec![0.0, 1.0]);
    }
}
