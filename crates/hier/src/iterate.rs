//! Damped fixed-point iteration for cyclic model compositions.

use reliab_core::{Error, Result};

/// Options for [`fixed_point`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedPointOptions {
    /// Convergence tolerance on the `∞`-norm of the relative change.
    pub tolerance: f64,
    /// Iteration budget.
    pub max_iterations: usize,
    /// Damping factor `α ∈ (0, 1]`:
    /// `x_{k+1} = α F(x_k) + (1 − α) x_k`. `1.0` is undamped; smaller
    /// values stabilize oscillating compositions at the cost of speed.
    pub damping: f64,
}

impl Default for FixedPointOptions {
    fn default() -> Self {
        FixedPointOptions {
            tolerance: 1e-10,
            max_iterations: 10_000,
            damping: 1.0,
        }
    }
}

impl FixedPointOptions {
    /// Sets the convergence tolerance.
    #[must_use]
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Sets the iteration budget.
    #[must_use]
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Sets the damping factor.
    #[must_use]
    pub fn with_damping(mut self, damping: f64) -> Self {
        self.damping = damping;
        self
    }
}

/// Result of a fixed-point solve.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedPointResult {
    /// The converged vector.
    pub values: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Residual (`∞`-norm relative change) per iteration — the
    /// convergence trace reported in the tutorial's tables.
    pub residuals: Vec<f64>,
}

/// Solves `x = F(x)` by damped successive substitution.
///
/// The tutorial's fixed-point compositions (e.g. the SIP availability
/// model) are monotone contractions on `[0,1]^n`, for which this
/// converges geometrically; the `residuals` trace lets callers verify
/// that in benches.
///
/// # Errors
///
/// * [`Error::InvalidParameter`] — bad options or empty start vector.
/// * [`Error::Convergence`] — iteration budget exhausted.
/// * [`Error::Numerical`] — `F` produced a non-finite value.
/// * Errors from `F` itself propagate unchanged.
pub fn fixed_point<F>(f: F, x0: Vec<f64>, opts: &FixedPointOptions) -> Result<FixedPointResult>
where
    F: FnMut(&[f64]) -> Result<Vec<f64>>,
{
    fixed_point_observed(f, x0, opts, &mut |_, _| {})
}

/// [`fixed_point`] with a per-iteration observer: `observe(iter,
/// residual)` fires after every sweep (1-based iteration, `∞`-norm
/// relative change). This is the telemetry hook used by front-ends to
/// stream fixed-point deltas into the obs flight recorder without
/// coupling this crate to the obs layer.
///
/// # Errors
///
/// Same contract as [`fixed_point`].
pub fn fixed_point_observed<F>(
    mut f: F,
    x0: Vec<f64>,
    opts: &FixedPointOptions,
    observe: &mut dyn FnMut(usize, f64),
) -> Result<FixedPointResult>
where
    F: FnMut(&[f64]) -> Result<Vec<f64>>,
{
    if x0.is_empty() {
        return Err(Error::invalid("fixed-point start vector is empty"));
    }
    if opts.tolerance.is_nan() || opts.tolerance <= 0.0 {
        return Err(Error::invalid(format!(
            "tolerance must be positive, got {}",
            opts.tolerance
        )));
    }
    if opts.max_iterations == 0 {
        return Err(Error::invalid("max_iterations must be > 0"));
    }
    if !(opts.damping > 0.0 && opts.damping <= 1.0) {
        return Err(Error::invalid(format!(
            "damping must lie in (0, 1], got {}",
            opts.damping
        )));
    }
    let mut x = x0;
    let mut residuals = Vec::new();
    for iter in 1..=opts.max_iterations {
        let fx = f(&x)?;
        if fx.len() != x.len() {
            return Err(Error::model(format!(
                "fixed-point map changed dimension: {} -> {}",
                x.len(),
                fx.len()
            )));
        }
        let mut worst = 0.0f64;
        for i in 0..x.len() {
            if !fx[i].is_finite() {
                return Err(Error::numerical(format!(
                    "fixed-point map produced non-finite component {i}: {}",
                    fx[i]
                )));
            }
            let new = opts.damping * fx[i] + (1.0 - opts.damping) * x[i];
            let scale = new.abs().max(x[i].abs()).max(1e-30);
            worst = worst.max((new - x[i]).abs() / scale);
            x[i] = new;
        }
        residuals.push(worst);
        observe(iter, worst);
        if worst < opts.tolerance {
            return Ok(FixedPointResult {
                values: x,
                iterations: iter,
                residuals,
            });
        }
    }
    Err(Error::Convergence {
        what: "fixed-point iteration".into(),
        iterations: opts.max_iterations,
        residual: *residuals.last().unwrap_or(&f64::NAN),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_contraction() {
        let r = fixed_point(
            |x| Ok(vec![0.5 * x[0] + 1.0]),
            vec![0.0],
            &FixedPointOptions::default(),
        )
        .unwrap();
        assert!((r.values[0] - 2.0).abs() < 1e-9);
        assert!(r.iterations < 100);
        assert_eq!(r.residuals.len(), r.iterations);
    }

    #[test]
    fn residuals_decrease_geometrically() {
        let r = fixed_point(
            |x| Ok(vec![0.5 * x[0] + 1.0]),
            vec![0.0],
            &FixedPointOptions::default(),
        )
        .unwrap();
        for w in r.residuals.windows(2).take(10) {
            assert!(w[1] < w[0]);
        }
    }

    #[test]
    fn coupled_two_dimensional_system() {
        // x = 0.3 y + 0.2 ; y = 0.4 x + 0.1
        // Solution: x = 0.2614..., y = 0.2045...
        let r = fixed_point(
            |v| Ok(vec![0.3 * v[1] + 0.2, 0.4 * v[0] + 0.1]),
            vec![0.0, 0.0],
            &FixedPointOptions::default(),
        )
        .unwrap();
        let x = 0.23 / 0.88;
        let y = 0.4 * x + 0.1;
        assert!((r.values[0] - x).abs() < 1e-9);
        assert!((r.values[1] - y).abs() < 1e-9);
    }

    #[test]
    fn damping_stabilizes_oscillation() {
        // x = 1 - x oscillates undamped from x0 = 0; damping 0.5 lands
        // on the fixed point 0.5 immediately.
        let oscillating = fixed_point(
            |x| Ok(vec![1.0 - x[0]]),
            vec![0.0],
            &FixedPointOptions {
                max_iterations: 50,
                ..Default::default()
            },
        );
        assert!(oscillating.is_err());
        let damped = fixed_point(
            |x| Ok(vec![1.0 - x[0]]),
            vec![0.0],
            &FixedPointOptions {
                damping: 0.5,
                ..Default::default()
            },
        )
        .unwrap();
        assert!((damped.values[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn error_propagation_and_validation() {
        let opts = FixedPointOptions::default();
        assert!(fixed_point(|x| Ok(x.to_vec()), vec![], &opts).is_err());
        assert!(fixed_point(
            |_| Err(Error::model("inner model failed")),
            vec![1.0],
            &opts
        )
        .is_err());
        assert!(fixed_point(|_| Ok(vec![f64::NAN]), vec![1.0], &opts).is_err());
        assert!(fixed_point(|_| Ok(vec![1.0, 2.0]), vec![1.0], &opts).is_err());
        let bad = FixedPointOptions {
            damping: 0.0,
            ..Default::default()
        };
        assert!(fixed_point(|x| Ok(x.to_vec()), vec![1.0], &bad).is_err());
    }

    #[test]
    fn observer_sees_every_residual() {
        let mut seen: Vec<(usize, f64)> = Vec::new();
        let r = fixed_point_observed(
            |x| Ok(vec![0.5 * x[0] + 1.0]),
            vec![0.0],
            &FixedPointOptions::default(),
            &mut |iter, res| seen.push((iter, res)),
        )
        .unwrap();
        assert_eq!(seen.len(), r.iterations);
        for (k, &(iter, res)) in seen.iter().enumerate() {
            assert_eq!(iter, k + 1, "observer iterations are 1-based");
            assert_eq!(res, r.residuals[k]);
        }
    }

    #[test]
    fn budget_exhaustion_reports_convergence_error() {
        let r = fixed_point(
            |x| Ok(vec![0.999999 * x[0] + 1e-7]),
            vec![0.0],
            &FixedPointOptions {
                max_iterations: 5,
                tolerance: 1e-14,
                damping: 1.0,
            },
        );
        assert!(matches!(r, Err(Error::Convergence { iterations: 5, .. })));
    }
}
