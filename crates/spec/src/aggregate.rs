//! Aggregation-based bounding: the last rung of the largeness-tolerance
//! ladder, for budgets that cannot even hold the iteration vectors.
//!
//! States are grouped into contiguous macro-states; the generator is
//! aggregated in one streaming pass under a uniform conditional
//! distribution per group, and the small macro-chain is solved exactly
//! by GTH. A steady-state reward is then bracketed by paying every
//! macro-state its worst-case and best-case per-state reward:
//! `Σ π̂_I · min_{i∈I} r(i) ≤ E[r] ≤ Σ π̂_I · max_{i∈I} r(i)`.
//!
//! The bracket is exact when the partition is ordinarily lumpable (the
//! aggregated chain is then the exact quotient); otherwise `π̂` is the
//! uniform-weighting approximation and the bracket is a structured
//! estimate, not a certificate — it is reported as [`Bounds`] so
//! downstream consumers carry the gap instead of a false point value.

use reliab_bounds::Bounds;
use reliab_core::{Error, Result};
use reliab_markov::RowSource;
use reliab_numeric::{gth_steady_state, DenseMatrix};
use reliab_obs as obs;

/// Largest macro-state count whose dense `M × M` aggregated generator
/// fits in `budget` bytes, clamped to `[2, 4096]`.
pub(crate) fn macro_states_for_budget(budget: usize) -> usize {
    let m = ((budget / 8) as f64).sqrt() as usize;
    m.clamp(2, 4096)
}

/// Brackets the steady-state expectation of the per-state reward
/// `reward(i)` using `macro_states` contiguous aggregation groups.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for a zero macro-state count or
/// a non-finite reward; numerical errors propagate from the macro-chain
/// GTH solve; row-source and reward errors propagate.
pub(crate) fn bounded_steady_reward(
    src: &dyn RowSource,
    macro_states: usize,
    reward: &mut dyn FnMut(u32) -> Result<f64>,
) -> Result<Bounds> {
    let _span = obs::span("stream.bounds");
    if macro_states == 0 {
        return Err(Error::invalid("macro-state count must be > 0"));
    }
    let n = src.num_states();
    if n == 0 {
        return Err(Error::model("row source has no states"));
    }
    let gs = n.div_ceil(macro_states.min(n));
    let m = n.div_ceil(gs);
    let group_size = |g: usize| -> f64 { (gs.min(n - g * gs)) as f64 };

    // Aggregate the generator in one streaming pass: uniform
    // conditional weight 1/|I| inside each group.
    let mut qhat = DenseMatrix::zeros(m, m);
    let mut row: Vec<(u32, f64)> = Vec::new();
    for i in 0..n {
        src.row(i as u32, &mut row)?;
        let gi = i / gs;
        let w = 1.0 / group_size(gi);
        for &(j, r) in &row {
            let gj = j as usize / gs;
            if gj != gi {
                qhat.set(gi, gj, qhat.get(gi, gj) + r * w);
            }
        }
    }
    for g in 0..m {
        let mut out = 0.0;
        for h in 0..m {
            if h != g {
                out += qhat.get(g, h);
            }
        }
        qhat.set(g, g, -out);
    }

    let pi_macro = if m == 1 {
        vec![1.0]
    } else {
        gth_steady_state(&qhat).map_err(|e| Error::numerical(e.to_string()))?
    };

    // Reward extremes per group: one pass over the states, no rows.
    let mut lower = 0.0;
    let mut upper = 0.0;
    for (g, &pi_g) in pi_macro.iter().enumerate() {
        let lo = g * gs;
        let hi = (lo + gs).min(n);
        let mut rmin = f64::INFINITY;
        let mut rmax = f64::NEG_INFINITY;
        for i in lo..hi {
            let r = reward(i as u32)?;
            if !r.is_finite() {
                return Err(Error::invalid(format!(
                    "reward of state {i} is {r}; rewards must be finite"
                )));
            }
            rmin = rmin.min(r);
            rmax = rmax.max(r);
        }
        lower += pi_g * rmin;
        upper += pi_g * rmax;
    }

    obs::event(
        "stream.bounds",
        &[
            ("states", n.into()),
            ("macro_states", m.into()),
            ("lower", lower.into()),
            ("upper", upper.into()),
        ],
    );
    Ok(Bounds { lower, upper })
}

#[cfg(test)]
mod tests {
    use super::*;
    use reliab_markov::{Ctmc, CtmcBuilder};

    fn birth_death(n: usize, lambda: f64, mu: f64) -> Ctmc {
        let mut b = CtmcBuilder::new();
        let ids: Vec<_> = (0..n).map(|i| b.state(&format!("s{i}"))).collect();
        for i in 0..n - 1 {
            b.transition(ids[i], ids[i + 1], lambda).unwrap();
            b.transition(ids[i + 1], ids[i], mu).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn full_resolution_bracket_is_tight_and_exact() {
        // One state per macro-state: the aggregation is trivially
        // lumpable, so the bracket collapses onto the exact value.
        let c = birth_death(10, 1.0, 2.0);
        let exact = c.steady_state().unwrap();
        let expected: f64 = exact.iter().enumerate().map(|(i, p)| i as f64 * p).sum();
        let b = bounded_steady_reward(&c, 10, &mut |i| Ok(f64::from(i))).unwrap();
        assert!(b.gap() < 1e-12);
        assert!((b.midpoint() - expected).abs() < 1e-9);
    }

    #[test]
    fn coarse_bracket_contains_the_lumped_answer_and_orders() {
        let c = birth_death(12, 1.0, 1.0);
        let b = bounded_steady_reward(&c, 3, &mut |i| Ok(f64::from(i))).unwrap();
        assert!(b.lower <= b.upper);
        assert!(b.gap() > 0.0);
        // Symmetric chain: reward bracket straddles the true mean 5.5.
        assert!(b.contains(5.5));
    }

    #[test]
    fn constant_reward_has_zero_gap() {
        let c = birth_death(9, 2.0, 3.0);
        let b = bounded_steady_reward(&c, 2, &mut |_| Ok(4.25)).unwrap();
        assert!((b.lower - 4.25).abs() < 1e-12);
        assert!((b.upper - 4.25).abs() < 1e-12);
    }

    #[test]
    fn inputs_validated() {
        let c = birth_death(4, 1.0, 1.0);
        assert!(bounded_steady_reward(&c, 0, &mut |_| Ok(1.0)).is_err());
        assert!(bounded_steady_reward(&c, 2, &mut |_| Ok(f64::NAN)).is_err());
    }

    #[test]
    fn macro_budget_helper_is_clamped() {
        assert_eq!(macro_states_for_budget(0), 2);
        assert_eq!(macro_states_for_budget(8 * 100 * 100), 100);
        assert_eq!(macro_states_for_budget(usize::MAX / 2), 4096);
    }
}
