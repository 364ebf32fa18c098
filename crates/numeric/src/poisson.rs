//! Truncated Poisson probabilities for uniformization.

use crate::special::ln_gamma;
use crate::{NumericError, Result};

/// Truncated, renormalized Poisson probabilities `w_k ≈ e^{-λ} λ^k / k!`
/// for `k` in `[left, right]`, with total tail mass below the requested
/// `epsilon` before renormalization.
///
/// Produced by [`poisson_weights`]; consumed by the uniformization
/// transient solver, where `λ = q·t` can reach 10⁵–10⁶ for stiff chains,
/// so weights are computed in log space around the mode (Fox–Glynn-style
/// tail control without the historical table constants).
#[derive(Debug, Clone, PartialEq)]
pub struct PoissonWeights {
    /// First retained term.
    pub left: usize,
    /// Last retained term.
    pub right: usize,
    /// Renormalized weights, `weights[i]` is for `k = left + i`.
    pub weights: Vec<f64>,
}

impl PoissonWeights {
    /// Total number of retained terms.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether no terms were retained (never true for valid inputs).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }
}

/// Computes [`PoissonWeights`] for rate `lambda` with truncation error
/// at most `epsilon`: the window spans O(√λ) terms, and the tails it
/// omits hold at most `epsilon` of the mass. The one exception is a
/// window closed by its summed mass reaching `1 − epsilon` while the
/// mode weight `exp(−λ + k ln λ − ln Γ(k+1))` is overestimated: there
/// the omitted tails may reach `epsilon` plus that overestimate, which
/// grows with λ (2.5e-9 at λ = 7.5e5).
///
/// # Errors
///
/// Returns [`NumericError::Invalid`] if `lambda < 0`, `lambda` is not
/// finite, or `epsilon` is not in `(0, 1)`.
pub fn poisson_weights(lambda: f64, epsilon: f64) -> Result<PoissonWeights> {
    if !lambda.is_finite() || lambda < 0.0 {
        return Err(NumericError::Invalid(format!(
            "lambda must be finite and >= 0, got {lambda}"
        )));
    }
    if !(epsilon > 0.0 && epsilon < 1.0) {
        return Err(NumericError::Invalid(format!(
            "epsilon must lie in (0, 1), got {epsilon}"
        )));
    }
    if lambda == 0.0 {
        return Ok(PoissonWeights {
            left: 0,
            right: 0,
            weights: vec![1.0],
        });
    }
    // From 2^53 on, term indices are no longer exact in f64 (and the
    // mode may not fit a usize); the window would hold over a billion
    // terms, far past the guard below.
    if lambda >= 9_007_199_254_740_992.0 {
        return Err(NumericError::Invalid(format!(
            "poisson truncation window exploded for lambda = {lambda}"
        )));
    }

    let mode = lambda.floor() as usize;
    let ln_pmf = |k: usize| -> f64 {
        let kf = k as f64;
        -lambda + kf * lambda.ln() - ln_gamma(kf + 1.0)
    };

    // March outward from the mode, always extending the side with the
    // larger next term, until one of two stops holds:
    //
    // * the mass summed so far reaches 1 − ε;
    // * geometric bounds on both omitted tails sum to at most ε times
    //   the mass summed so far.
    //
    // With exact weights the tail stop implies the mass stop. The mode
    // weight is not exact, though, and the mass stop alone never fires
    // once it is underestimated by more than ε: the window would grow
    // until both tails underflow, about 2λ terms. Every weight is the
    // mode weight times exact ratios, so the tail stop, being
    // relative, holds however wrong the mode weight is.
    let target = 1.0 - epsilon;
    let mode_w = ln_pmf(mode).exp();
    let mut left = mode;
    let mut right = mode;
    let mut lo_w = mode_w; // weight at current left
    let mut hi_w = mode_w; // weight at current right
    let mut mass = mode_w;
    while mass < target {
        let next_left = if left > 0 {
            lo_w * left as f64 / lambda
        } else {
            0.0
        };
        let next_right = hi_w * lambda / (right as f64 + 1.0);
        // Below `left` the ratio of successive terms is at most
        // (left − 1)/λ, beyond `right` at most λ/(right + 2); both are
        // below 1 because left ≤ mode ≤ λ < mode + 1 ≤ right + 1.
        let left_tail = next_left * lambda / (lambda - left as f64 + 1.0);
        let right_tail = next_right * (right as f64 + 2.0) / (right as f64 + 2.0 - lambda);
        if left_tail + right_tail <= epsilon * mass {
            break;
        }
        if next_left >= next_right && left > 0 {
            left -= 1;
            lo_w = next_left;
            mass += lo_w;
        } else {
            // next_right > 0 here: had both terms underflowed, both
            // tail bounds would be zero and the tail stop would hold.
            right += 1;
            hi_w = next_right;
            mass += hi_w;
        }
        if right - left > 20_000_000 {
            return Err(NumericError::Invalid(format!(
                "poisson truncation window exploded for lambda = {lambda}"
            )));
        }
    }

    // Fill weights by recurrence from the mode (stable: ratios only).
    let n = right - left + 1;
    let mut weights = vec![0.0f64; n];
    weights[mode - left] = mode_w;
    let mut w = mode_w;
    for k in (left..mode).rev() {
        w = w * (k as f64 + 1.0) / lambda;
        weights[k - left] = w;
    }
    w = mode_w;
    for k in (mode + 1)..=right {
        w = w * lambda / k as f64;
        weights[k - left] = w;
    }
    let total: f64 = weights.iter().sum();
    if total.is_nan() || total <= 0.0 {
        return Err(NumericError::Invalid(format!(
            "poisson weights underflowed for lambda = {lambda}"
        )));
    }
    for v in &mut weights {
        *v /= total;
    }
    Ok(PoissonWeights {
        left,
        right,
        weights,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::special::{reg_lower_gamma, reg_upper_gamma};

    #[test]
    fn zero_lambda_is_degenerate() {
        let w = poisson_weights(0.0, 1e-10).unwrap();
        assert_eq!(w.left, 0);
        assert_eq!(w.right, 0);
        assert_eq!(w.weights, vec![1.0]);
    }

    #[test]
    fn weights_sum_to_one_and_match_pmf() {
        for &lambda in &[0.5, 3.0, 25.0, 400.0] {
            let w = poisson_weights(lambda, 1e-12).unwrap();
            let sum: f64 = w.weights.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "lambda = {lambda}");
            // Spot-check against direct pmf at the mode.
            let mode = lambda.floor();
            let ln_pmf = -lambda + mode * lambda.ln() - ln_gamma(mode + 1.0);
            let idx = mode as usize - w.left;
            assert!(
                (w.weights[idx] - ln_pmf.exp()).abs() < 1e-10,
                "lambda = {lambda}"
            );
        }
    }

    #[test]
    fn window_scales_like_sqrt_lambda() {
        let small = poisson_weights(100.0, 1e-10).unwrap();
        let large = poisson_weights(10_000.0, 1e-10).unwrap();
        let w_small = (small.right - small.left) as f64;
        let w_large = (large.right - large.left) as f64;
        // sqrt(10000/100) = 10; allow generous slack.
        assert!(w_large / w_small < 15.0);
        assert!(w_large / w_small > 6.0);
    }

    /// `λ` from 1 to 1e9 on a log grid (eight points a decade), plus
    /// values that exploded the window when the mass stop was its only
    /// stop (4,000 to 32,000 at ε = 1e-12; 2.5194e7 is the
    /// `maintained_cluster` chain at t = 1e7).
    fn window_grid() -> Vec<f64> {
        let mut grid: Vec<f64> = (0..=72).map(|i| 10f64.powf(i as f64 / 8.0)).collect();
        grid.extend([
            4_000.0, 15_637.0, 16_000.0, 24_000.0, 32_000.0, 2.5e5, 2.5194e7,
        ]);
        grid
    }

    /// Relative error of the mode weight `poisson_weights` starts
    /// from, against `pmf(m; λ)` computed without `ln_gamma`: a product
    /// of `m` factors below m = 100, Stirling's series (to `m^-7`) in
    /// the saddle-point form `m ln(λ/m) − (λ − m)` above.
    fn mode_weight_error(lambda: f64) -> f64 {
        let m = lambda.floor();
        let exact = if m < 100.0 {
            let step = (-lambda / m.max(1.0)).exp();
            let mut p = if m == 0.0 { (-lambda).exp() } else { 1.0 };
            for k in 1..=m as u32 {
                p *= lambda / f64::from(k) * step;
            }
            p
        } else {
            let d = lambda - m;
            let series = 1.0 / (12.0 * m) - 1.0 / (360.0 * m.powi(3)) + 1.0 / (1260.0 * m.powi(5))
                - 1.0 / (1680.0 * m.powi(7));
            (m * (d / m).ln_1p() - d - 0.5 * (2.0 * std::f64::consts::PI * m).ln() - series).exp()
        };
        let ln_pmf = -lambda + m * lambda.ln() - ln_gamma(m + 1.0);
        ln_pmf.exp() / exact - 1.0
    }

    /// The window spans at most `16·√λ + 8` terms at every grid point
    /// (the widest measured is 14.9·√λ, at ε = 1e-13); before the tail
    /// stop, λ = 4,000 at ε = 1e-12 spanned about 2λ. Up to λ = 1e6 the
    /// omitted tails, from the incomplete gamma function, are at most
    /// `1.01·ε + δ⁺`: δ⁺ is the mode weight's overestimate, which lets
    /// the mass stop close a window early (at most 2.5e-9 on this grid,
    /// at λ = 7.5e5), and the 1% covers the oracles' rounding (the
    /// largest measured excess over `ε + δ⁺` is −0.2% of ε).
    #[test]
    fn window_width_is_bounded_by_sqrt_lambda_and_tails_by_epsilon() {
        for epsilon in [1e-10, 1e-12, 1e-13] {
            for lambda in window_grid() {
                let w = poisson_weights(lambda, epsilon).unwrap();
                let width = (w.right - w.left) as f64;
                assert!(
                    width <= 16.0 * lambda.sqrt() + 8.0,
                    "lambda = {lambda}, epsilon = {epsilon}: width {width}"
                );
                if lambda > 1e6 {
                    continue;
                }
                let below = if w.left > 0 {
                    reg_upper_gamma(w.left as f64, lambda).unwrap()
                } else {
                    0.0
                };
                let above = reg_lower_gamma(w.right as f64 + 1.0, lambda).unwrap();
                let overestimate = mode_weight_error(lambda).max(0.0);
                assert!(
                    below + above <= 1.01 * epsilon + overestimate,
                    "lambda = {lambda}, epsilon = {epsilon}: tails {below:e} + {above:e}, \
                     mode weight {overestimate:e} high"
                );
            }
        }
    }

    #[test]
    fn mean_is_recovered() {
        let lambda = 37.5;
        let w = poisson_weights(lambda, 1e-13).unwrap();
        let mean: f64 = w
            .weights
            .iter()
            .enumerate()
            .map(|(i, p)| (w.left + i) as f64 * p)
            .sum();
        assert!((mean - lambda).abs() < 1e-8);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(poisson_weights(-1.0, 1e-10).is_err());
        assert!(poisson_weights(f64::NAN, 1e-10).is_err());
        assert!(poisson_weights(1.0, 0.0).is_err());
        assert!(poisson_weights(1.0, 1.0).is_err());
        // The tail stop closes a window whose mode weight underflows at
        // once; a mode past usize::MAX must still be an error.
        for lambda in [9_007_199_254_740_992.0, 1e19, 1e300] {
            assert!(poisson_weights(lambda, 1e-10).is_err(), "lambda = {lambda}");
        }
    }
}
