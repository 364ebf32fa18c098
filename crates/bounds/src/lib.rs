//! # reliab-bounds
//!
//! Bounding algorithms for systems too large for exact non-state-space
//! solution — the technique the tutorial highlights for a major Boeing
//! 787 subsystem, where full cut-set enumeration is infeasible and the
//! analyst instead brackets the answer between certified bounds.
//!
//! Provided bounds (all on *system reliability* `R = 1 - Q`):
//!
//! * [`ep_reliability_bounds`] — Esary–Proschan: for coherent systems
//!   with independent components,
//!   `Π_cuts (1 − Π q) ≤ R ≤ 1 − Π_paths (1 − Π p)`.
//! * [`union_probability`] — exact probability of a union of sets via a
//!   BDD (sum of disjoint products), used to turn *partial* cut-set
//!   lists into certified bounds.
//! * [`truncated_unreliability_bounds`] — with only the minimal cut
//!   sets of order `≤ m` enumerated: the union of the known cuts is a
//!   lower bound on unreliability, and a combinatorial cap on the
//!   number of unenumerated higher-order cuts gives a conservative
//!   upper bound.
//!
//! Sets are slices of component indices; adapt from fault-tree cut sets
//! or reliability-graph path sets by mapping handles to `usize`.

#![deny(missing_docs)]
#![deny(unsafe_code)]

use reliab_bdd::{Bdd, BddConfig, NodeId};
use reliab_core::{ensure_probability, Error, Result};

/// A two-sided bound on a probability measure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounds {
    /// Certified lower bound.
    pub lower: f64,
    /// Certified upper bound.
    pub upper: f64,
}

impl Bounds {
    /// Width of the bracket.
    pub fn gap(&self) -> f64 {
        self.upper - self.lower
    }

    /// Midpoint (the usual point estimate quoted with the gap).
    pub fn midpoint(&self) -> f64 {
        0.5 * (self.lower + self.upper)
    }

    /// Whether `x` lies inside the bracket (inclusive).
    pub fn contains(&self, x: f64) -> bool {
        self.lower <= x && x <= self.upper
    }

    /// The bracket on the complementary probability: bounds on
    /// reliability `R` become bounds on unreliability `Q = 1 − R` and
    /// vice versa.
    #[must_use]
    pub fn complement(&self) -> Bounds {
        Bounds {
            lower: 1.0 - self.upper,
            upper: 1.0 - self.lower,
        }
    }
}

fn check_probs(p: &[f64], what: &str) -> Result<()> {
    for (i, &v) in p.iter().enumerate() {
        ensure_probability(v, &format!("{what}[{i}]"))?;
    }
    Ok(())
}

fn check_sets(sets: &[Vec<usize>], n: usize, what: &str) -> Result<()> {
    for (k, s) in sets.iter().enumerate() {
        if s.is_empty() {
            return Err(Error::invalid(format!("{what} {k} is empty")));
        }
        for &i in s {
            if i >= n {
                return Err(Error::invalid(format!(
                    "{what} {k} references component {i}, but only {n} components exist"
                )));
            }
        }
    }
    Ok(())
}

/// Esary–Proschan bounds on system reliability for a coherent system
/// with independent components.
///
/// `min_paths` and `min_cuts` are minimal path/cut sets as component
/// index lists; `p_up[i]` is component `i`'s probability of being up.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for empty set lists, empty sets,
/// out-of-range indices, or bad probabilities.
///
/// ```
/// use reliab_bounds::ep_reliability_bounds;
/// // Series system of 2: single path {0,1}; cuts {0}, {1}.
/// let b = ep_reliability_bounds(
///     &[vec![0, 1]],
///     &[vec![0], vec![1]],
///     &[0.9, 0.8],
/// ).unwrap();
/// // Series-of-independent is exact for both EP bounds: R = 0.72.
/// assert!((b.lower - 0.72).abs() < 1e-12);
/// assert!((b.upper - 0.72).abs() < 1e-12);
/// ```
pub fn ep_reliability_bounds(
    min_paths: &[Vec<usize>],
    min_cuts: &[Vec<usize>],
    p_up: &[f64],
) -> Result<Bounds> {
    if min_paths.is_empty() || min_cuts.is_empty() {
        return Err(Error::invalid(
            "Esary–Proschan bounds need at least one path set and one cut set",
        ));
    }
    check_probs(p_up, "p_up")?;
    check_sets(min_paths, p_up.len(), "path set")?;
    check_sets(min_cuts, p_up.len(), "cut set")?;

    // Lower: Π over cuts of (1 − Π q_i).
    let mut lower = 1.0;
    for c in min_cuts {
        let q_prod: f64 = c.iter().map(|&i| 1.0 - p_up[i]).product();
        lower *= 1.0 - q_prod;
    }
    // Upper: 1 − Π over paths of (1 − Π p_i).
    let mut miss_all = 1.0;
    for path in min_paths {
        let p_prod: f64 = path.iter().map(|&i| p_up[i]).product();
        miss_all *= 1.0 - p_prod;
    }
    let upper = 1.0 - miss_all;
    // EP guarantees lower <= R <= upper; numerical round-off can cross
    // them for degenerate inputs, so clamp defensively.
    Ok(Bounds {
        lower: lower.min(upper),
        upper,
    })
}

/// Exact probability that at least one of `sets` has all its components
/// failed (for cut sets) or up (for path sets) — the caller chooses the
/// meaning by passing per-component probabilities of the *relevant*
/// event in `probs`.
///
/// Compiled to a BDD, so overlapping sets are handled exactly: this is
/// the sum-of-disjoint-products value.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] on malformed sets/probabilities,
/// and [`Error::Model`] for more components than the BDD kernel holds.
pub fn union_probability(sets: &[Vec<usize>], probs: &[f64], nvars: usize) -> Result<f64> {
    if probs.len() != nvars {
        return Err(Error::invalid(format!(
            "probability vector length {} != component count {nvars}",
            probs.len()
        )));
    }
    check_probs(probs, "probs")?;
    check_sets(sets, nvars, "set")?;
    let mut bdd =
        Bdd::new_with(nvars, BddConfig::new()).map_err(|e| Error::model(e.to_string()))?;
    let mut acc = NodeId::FALSE;
    for s in sets {
        let mut conj = NodeId::TRUE;
        for &i in s {
            let v = bdd.var(i as u32).map_err(|e| Error::model(e.to_string()))?;
            conj = bdd.and(conj, v);
        }
        acc = bdd.or(acc, conj);
    }
    bdd.probability(acc, probs)
        .map_err(|e| Error::model(e.to_string()))
}

/// Bounds on system **unreliability** when only the minimal cut sets of
/// order `≤ max_order` have been enumerated (the Boeing-787-style
/// truncation workflow).
///
/// * Lower: exact union probability of the known cut sets (any
///   additional cut set can only increase `Q`).
/// * Upper: lower + `Σ_{k = max_order+1}^{n} C(n, k) · q_max^k`, a
///   conservative cap on everything the enumeration missed (there are
///   at most `C(n, k)` order-`k` cut sets, each with probability at
///   most `q_max^k`).
///
/// The upper bound is useful when `q_max` is small (high-reliability
/// components) — exactly the regime of the 787 analysis. The returned
/// upper bound is clamped to 1.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] on malformed input or if any
/// known cut set exceeds `max_order` (that would make the "everything
/// above `max_order` is unknown" accounting wrong).
pub fn truncated_unreliability_bounds(
    known_cuts: &[Vec<usize>],
    q_fail: &[f64],
    max_order: usize,
) -> Result<Bounds> {
    check_probs(q_fail, "q_fail")?;
    check_sets(known_cuts, q_fail.len(), "cut set")?;
    if max_order == 0 {
        return Err(Error::invalid("max_order must be at least 1"));
    }
    for (k, c) in known_cuts.iter().enumerate() {
        if c.len() > max_order {
            return Err(Error::invalid(format!(
                "cut set {k} has order {} > max_order {max_order}",
                c.len()
            )));
        }
    }
    let n = q_fail.len();
    let lower = union_probability(known_cuts, q_fail, n)?;
    let q_max = q_fail.iter().copied().fold(0.0f64, f64::max);
    // Residual: sum over k in (max_order, n] of C(n, k) q_max^k,
    // computed in a numerically tame way (stop once terms vanish).
    let mut residual = 0.0f64;
    let mut binom = 1.0f64; // C(n, 0)
    for k in 1..=n {
        binom *= (n - k + 1) as f64 / k as f64;
        if k > max_order {
            let term = binom * q_max.powi(k as i32);
            residual += term;
            if term < 1e-18 * residual.max(1.0) {
                break;
            }
        }
    }
    Ok(Bounds {
        lower,
        upper: (lower + residual).min(1.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bridge network: paths/cuts from the relgraph tests.
    fn bridge_sets() -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
        let paths = vec![vec![0, 3], vec![1, 4], vec![0, 2, 4], vec![1, 2, 3]];
        let cuts = vec![vec![0, 1], vec![3, 4], vec![0, 2, 4], vec![1, 2, 3]];
        (paths, cuts)
    }

    /// Exact bridge reliability with common edge probability p.
    fn bridge_exact(p: f64) -> f64 {
        2.0 * p.powi(2) + 2.0 * p.powi(3) - 5.0 * p.powi(4) + 2.0 * p.powi(5)
    }

    #[test]
    fn ep_bounds_bracket_bridge_reliability() {
        let (paths, cuts) = bridge_sets();
        for &p in &[0.8, 0.9, 0.99, 0.999] {
            let b = ep_reliability_bounds(&paths, &cuts, &[p; 5]).unwrap();
            let exact = bridge_exact(p);
            assert!(
                b.contains(exact),
                "p = {p}: [{}, {}] should contain {exact}",
                b.lower,
                b.upper
            );
            // Bounds tighten as p -> 1.
            if p >= 0.99 {
                assert!(b.gap() < 1e-3);
            }
        }
    }

    #[test]
    fn ep_bounds_exact_for_series_and_parallel() {
        // Pure parallel of 2: one cut {0,1}; paths {0}, {1}.
        let b = ep_reliability_bounds(&[vec![0], vec![1]], &[vec![0, 1]], &[0.9, 0.8]).unwrap();
        let exact = 1.0 - 0.1 * 0.2;
        assert!((b.lower - exact).abs() < 1e-12);
        assert!((b.upper - exact).abs() < 1e-12);
    }

    #[test]
    fn ep_validation() {
        assert!(ep_reliability_bounds(&[], &[vec![0]], &[0.9]).is_err());
        assert!(ep_reliability_bounds(&[vec![0]], &[], &[0.9]).is_err());
        assert!(ep_reliability_bounds(&[vec![]], &[vec![0]], &[0.9]).is_err());
        assert!(ep_reliability_bounds(&[vec![5]], &[vec![0]], &[0.9]).is_err());
        assert!(ep_reliability_bounds(&[vec![0]], &[vec![0]], &[1.5]).is_err());
    }

    #[test]
    fn union_probability_handles_overlap() {
        // Sets {0,1} and {0,2} with p = 0.5 each: P = p0(p1 + p2 - p1 p2).
        let p = [0.5, 0.5, 0.5];
        let u = union_probability(&[vec![0, 1], vec![0, 2]], &p, 3).unwrap();
        assert!((u - 0.375).abs() < 1e-15);
        // Disjoint singletons.
        let u = union_probability(&[vec![0], vec![1]], &p, 3).unwrap();
        assert!((u - 0.75).abs() < 1e-15);
        // Empty set list: probability 0.
        let u = union_probability(&[], &p, 3).unwrap();
        assert_eq!(u, 0.0);
    }

    #[test]
    fn truncated_bounds_bracket_true_unreliability() {
        let (_, cuts) = bridge_sets();
        let q = 0.01f64;
        let q_vec = [q; 5];
        let exact_q = 1.0 - bridge_exact(1.0 - q);
        // Enumerate only order-2 cut sets.
        let known: Vec<Vec<usize>> = cuts.iter().filter(|c| c.len() <= 2).cloned().collect();
        let b = truncated_unreliability_bounds(&known, &q_vec, 2).unwrap();
        assert!(
            b.contains(exact_q),
            "[{}, {}] should contain {exact_q}",
            b.lower,
            b.upper
        );
        // With all cut sets (order <= 3), the bracket tightens.
        let b_full = truncated_unreliability_bounds(&cuts, &q_vec, 3).unwrap();
        assert!(b_full.gap() < b.gap());
        // With every minimal cut known, the lower bound IS the exact
        // value; allow round-off slack.
        assert!(exact_q >= b_full.lower - 1e-12 && exact_q <= b_full.upper + 1e-12);
    }

    #[test]
    fn truncated_bounds_validation() {
        let q = [0.1, 0.1];
        assert!(truncated_unreliability_bounds(&[vec![0]], &q, 0).is_err());
        // Known cut of order 2 with max_order 1 is inconsistent.
        assert!(truncated_unreliability_bounds(&[vec![0, 1]], &q, 1).is_err());
    }

    #[test]
    fn bounds_accessors() {
        let b = Bounds {
            lower: 0.2,
            upper: 0.6,
        };
        assert!((b.gap() - 0.4).abs() < 1e-15);
        assert!((b.midpoint() - 0.4).abs() < 1e-15);
        assert!(b.contains(0.2) && b.contains(0.6) && !b.contains(0.61));
    }

    #[test]
    fn truncation_residual_shrinks_with_order() {
        // 10 components, tiny q: residual term dominates the gap and
        // shrinks rapidly with max_order.
        let q = [1e-3; 10];
        let known: Vec<Vec<usize>> = vec![vec![0, 1]];
        let b2 = truncated_unreliability_bounds(&known, &q, 2).unwrap();
        let b3 = truncated_unreliability_bounds(&known, &q, 3).unwrap();
        assert!(b3.gap() < b2.gap());
        assert!(b2.gap() < 1e-4);
    }
}
