//! Markov reward models: rate rewards attached to states.

use crate::builder::Ctmc;
use reliab_core::{Error, Result};

/// `Σ_i w_i r_i` for one finite reward `r_i` per each of `states`
/// states, summed in state order, where `weights` yields `w` (a
/// distribution, or expected sojourn times) once the rewards pass — the
/// reward measure of every chain view, so each validates and sums
/// alike.
///
/// # Errors
///
/// [`Error::InvalidParameter`] for a reward vector of the wrong length
/// or a non-finite reward, before `weights` runs; its errors propagate.
pub fn expected_reward(
    states: usize,
    rewards: &[f64],
    weights: impl FnOnce() -> Result<Vec<f64>>,
) -> Result<f64> {
    if rewards.len() != states {
        return Err(Error::invalid(format!(
            "reward vector length {} != number of states {states}",
            rewards.len()
        )));
    }
    if let Some(bad) = rewards.iter().find(|r| !r.is_finite()) {
        return Err(Error::invalid(format!("non-finite reward {bad}")));
    }
    let w = weights()?;
    Ok(w.iter().zip(rewards).map(|(w, r)| w * r).sum())
}

impl Ctmc {
    /// Expected steady-state reward rate `Σ_i π_i r_i`.
    ///
    /// With `r_i = 1` on up states this is steady-state availability;
    /// with `r_i` = performance levels it is the performability measure
    /// of the tutorial's composite models.
    ///
    /// # Errors
    ///
    /// Propagates steady-state solver errors; rejects malformed reward
    /// vectors.
    pub fn expected_steady_state_reward(&self, rewards: &[f64]) -> Result<f64> {
        expected_reward(self.num_states(), rewards, || self.steady_state())
    }

    /// Expected instantaneous reward rate at time `t`.
    ///
    /// # Errors
    ///
    /// Propagates transient-solver errors.
    pub fn expected_reward_at(&self, initial: &[f64], rewards: &[f64], t: f64) -> Result<f64> {
        expected_reward(self.num_states(), rewards, || self.transient(initial, t))
    }

    /// Expected reward accumulated over `[0, t]`:
    /// `E[∫₀ᵗ r(X_u) du]`.
    ///
    /// # Errors
    ///
    /// Propagates accumulated-solver errors.
    pub fn expected_accumulated_reward(
        &self,
        initial: &[f64],
        rewards: &[f64],
        t: f64,
    ) -> Result<f64> {
        expected_reward(self.num_states(), rewards, || {
            self.accumulated(initial, t, 1e-12)
        })
    }

    /// Interval (time-averaged) reward over `[0, t]`.
    ///
    /// # Errors
    ///
    /// Propagates accumulated-solver errors; rejects `t <= 0`.
    pub fn expected_interval_reward(
        &self,
        initial: &[f64],
        rewards: &[f64],
        t: f64,
    ) -> Result<f64> {
        if t.is_nan() || t <= 0.0 {
            return Err(Error::invalid(format!(
                "interval reward needs t > 0, got {t}"
            )));
        }
        Ok(self.expected_accumulated_reward(initial, rewards, t)? / t)
    }
}

#[cfg(test)]
mod tests {
    use crate::CtmcBuilder;

    #[test]
    fn availability_as_reward() {
        let mut b = CtmcBuilder::new();
        let up = b.state("up");
        let down = b.state("down");
        b.transition(up, down, 1.0).unwrap();
        b.transition(down, up, 9.0).unwrap();
        let c = b.build().unwrap();
        let a = c.expected_steady_state_reward(&[1.0, 0.0]).unwrap();
        assert!((a - 0.9).abs() < 1e-13);
    }

    #[test]
    fn performability_levels() {
        // Degradable 3-state system: full (2 units), degraded (1), down.
        let mut b = CtmcBuilder::new();
        let full = b.state("full");
        let deg = b.state("degraded");
        let down = b.state("down");
        b.transition(full, deg, 2.0).unwrap();
        b.transition(deg, down, 1.0).unwrap();
        b.transition(deg, full, 10.0).unwrap();
        b.transition(down, deg, 10.0).unwrap();
        let c = b.build().unwrap();
        let pi = c.steady_state().unwrap();
        let perf = c.expected_steady_state_reward(&[2.0, 1.0, 0.0]).unwrap();
        assert!((perf - (2.0 * pi[0] + pi[1])).abs() < 1e-14);
        assert!(perf > 0.0 && perf < 2.0);
    }

    #[test]
    fn interval_reward_approaches_steady_state() {
        let mut b = CtmcBuilder::new();
        let up = b.state("up");
        let down = b.state("down");
        b.transition(up, down, 0.5).unwrap();
        b.transition(down, up, 4.5).unwrap();
        let c = b.build().unwrap();
        let p0 = c.point_mass(up);
        let r = [1.0, 0.0];
        let long = c.expected_interval_reward(&p0, &r, 10_000.0).unwrap();
        assert!((long - 0.9).abs() < 1e-3);
        // Short horizon from "up" is close to 1.
        let short = c.expected_interval_reward(&p0, &r, 0.01).unwrap();
        assert!(short > 0.995);
    }

    #[test]
    fn reward_validation() {
        let mut b = CtmcBuilder::new();
        let up = b.state("up");
        let down = b.state("down");
        b.transition(up, down, 1.0).unwrap();
        b.transition(down, up, 1.0).unwrap();
        let c = b.build().unwrap();
        assert!(c.expected_steady_state_reward(&[1.0]).is_err());
        assert!(c.expected_steady_state_reward(&[1.0, f64::NAN]).is_err());
        let p0 = c.point_mass(up);
        assert!(c.expected_interval_reward(&p0, &[1.0, 0.0], 0.0).is_err());
    }

    #[test]
    fn accumulated_reward_at_time_zero_is_zero() {
        let mut b = CtmcBuilder::new();
        let up = b.state("up");
        let down = b.state("down");
        b.transition(up, down, 1.0).unwrap();
        b.transition(down, up, 1.0).unwrap();
        let c = b.build().unwrap();
        let p0 = c.point_mass(up);
        assert_eq!(
            c.expected_accumulated_reward(&p0, &[1.0, 0.0], 0.0)
                .unwrap(),
            0.0
        );
    }
}
