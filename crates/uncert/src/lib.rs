//! # reliab-uncert
//!
//! Parametric (epistemic) uncertainty propagation — the tutorial's
//! closing challenge: model inputs (failure rates, coverage factors)
//! are never known exactly, they are *estimated* from finite test data,
//! so any point availability number is incomplete without an interval.
//!
//! The workflow implemented here:
//!
//! 1. Describe each uncertain parameter as a distribution — e.g. the
//!    Bayesian posterior of an exponential failure rate given observed
//!    failures and cumulative test time ([`rate_posterior`], a gamma).
//! 2. [`propagate`] samples the parameter vector `B` times, re-solves
//!    the full model per sample (any closure: an RBD, a CTMC, a whole
//!    hierarchy), in parallel across threads.
//! 3. The result carries the sample mean/standard deviation and a
//!    percentile confidence interval for the output measure.
//!
//! ```
//! use reliab_uncert::{propagate, rate_posterior, PropagationOptions};
//!
//! # fn main() -> Result<(), reliab_core::Error> {
//! // Availability = mu/(lambda+mu), lambda uncertain (3 failures in
//! // 3000h of test), mu known exactly.
//! let lambda = rate_posterior(3, 3000.0)?;
//! let r = propagate(
//!     &[Box::new(lambda)],
//!     |p| Ok(0.1 / (p[0] + 0.1)),
//!     &PropagationOptions { samples: 2000, ..Default::default() },
//! )?;
//! assert!(r.interval.lower < r.mean && r.mean < r.interval.upper);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

use rand::RngCore;
use reliab_core::{ConfidenceInterval, Error, Result};
use reliab_dist::{Gamma, Lifetime};
use reliab_sim::StreamRng;
use std::sync::Mutex;

/// Stream index for per-sample parameter draws (replication = sample).
const STREAM_SAMPLE: u64 = 0;
/// Stream index for Latin-hypercube stratum permutations (replication =
/// parameter).
const STREAM_LHS_PERM: u64 = 1;

/// Locks a mutex, recovering the data from a poisoned lock (a worker
/// that panicked mid-push only leaves a shorter vector behind, which
/// the sample-count check below catches).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// How parameter vectors are drawn in [`propagate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplingScheme {
    /// Independent random draws from each parameter distribution.
    #[default]
    Random,
    /// Latin hypercube sampling: each parameter's unit interval is
    /// split into `samples` strata, each hit exactly once (in a random
    /// permutation per parameter). Same estimator, markedly lower
    /// variance for smooth models — the standard trick when each model
    /// re-solve is expensive.
    LatinHypercube,
}

/// Options for [`propagate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PropagationOptions {
    /// Number of Monte-Carlo samples of the parameter vector.
    pub samples: usize,
    /// Confidence level of the reported percentile interval.
    pub level: f64,
    /// RNG seed (sampling is deterministic given the seed and thread
    /// count-independent: streams are split per sample index).
    pub seed: u64,
    /// Number of worker threads (0 = available parallelism).
    pub threads: usize,
    /// Sampling scheme (random or Latin hypercube).
    pub sampling: SamplingScheme,
}

impl Default for PropagationOptions {
    fn default() -> Self {
        PropagationOptions {
            samples: 10_000,
            level: 0.95,
            seed: 0x5EED,
            threads: 0,
            sampling: SamplingScheme::Random,
        }
    }
}

/// Result of an uncertainty propagation.
#[derive(Debug, Clone, PartialEq)]
pub struct UncertaintyResult {
    /// Sample mean of the output measure.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Percentile confidence interval at the requested level.
    pub interval: ConfidenceInterval,
    /// The sorted output samples (for histograms / downstream use).
    pub samples: Vec<f64>,
}

/// Bayesian posterior for an exponential failure/repair **rate** after
/// observing `failures` events over `total_time` cumulative exposure,
/// under the conventional flat prior: `Gamma(failures + 1, total_time)`.
///
/// The posterior mean is `(failures + 1) / total_time`; for large
/// counts this approaches the MLE `failures / total_time`.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] unless `total_time > 0`.
pub fn rate_posterior(failures: u32, total_time: f64) -> Result<Gamma> {
    if !(total_time > 0.0 && total_time.is_finite()) {
        return Err(Error::invalid(format!(
            "total test time must be positive, got {total_time}"
        )));
    }
    Gamma::new(f64::from(failures) + 1.0, total_time)
}

/// Propagates parameter uncertainty through an arbitrary model.
///
/// `params[i]` is the distribution of the i-th uncertain parameter;
/// `model` maps a concrete parameter vector to the scalar output
/// measure (re-solving whatever models it wants internally).
///
/// Sampling is reproducible: sample `k` always uses an RNG seeded with
/// `(seed, k)`, regardless of thread count.
///
/// # Errors
///
/// * [`Error::InvalidParameter`] — zero samples, bad level, no
///   parameters.
/// * The first error returned by `model` on any sample propagates.
pub fn propagate<F>(
    params: &[Box<dyn Lifetime>],
    model: F,
    opts: &PropagationOptions,
) -> Result<UncertaintyResult>
where
    F: Fn(&[f64]) -> Result<f64> + Sync,
{
    propagate_with(params, || (), |(), p| model(p), opts)
}

/// [`propagate`] for a model that keeps per-worker state: each worker
/// thread calls `init` once and hands the state to every `model` call
/// it makes, so a model can re-solve one working copy of itself
/// instead of building a fresh one per sample, with nothing shared
/// between workers. Results depend only on the samples, never on which
/// worker drew them.
///
/// # Errors
///
/// Same contract as [`propagate`].
pub fn propagate_with<S, I, F>(
    params: &[Box<dyn Lifetime>],
    init: I,
    model: F,
    opts: &PropagationOptions,
) -> Result<UncertaintyResult>
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &[f64]) -> Result<f64> + Sync,
{
    if params.is_empty() {
        return Err(Error::invalid("no uncertain parameters supplied"));
    }
    if opts.samples < 2 {
        return Err(Error::invalid("need at least 2 samples"));
    }
    if !(opts.level > 0.0 && opts.level < 1.0) {
        return Err(Error::invalid(format!(
            "confidence level must lie in (0,1), got {}",
            opts.level
        )));
    }
    let threads = reliab_core::Split::new(opts.threads, opts.samples).workers;

    // For Latin hypercube sampling, precompute one stratum permutation
    // per parameter (deterministic in the seed, independent of thread
    // count).
    let lhs_perms: Option<Vec<Vec<u32>>> = match opts.sampling {
        SamplingScheme::Random => None,
        SamplingScheme::LatinHypercube => {
            let mut perms = Vec::with_capacity(params.len());
            for j in 0..params.len() {
                let mut rng = StreamRng::new(opts.seed, j as u64, STREAM_LHS_PERM);
                let mut p: Vec<u32> = (0..opts.samples as u32).collect();
                // Fisher–Yates.
                for i in (1..p.len()).rev() {
                    let r = (rng.next_u64() % (i as u64 + 1)) as usize;
                    p.swap(i, r);
                }
                perms.push(p);
            }
            Some(perms)
        }
    };

    let results: Mutex<Vec<(usize, f64)>> = Mutex::new(Vec::with_capacity(opts.samples));
    let first_error: Mutex<Option<Error>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for worker in 0..threads {
            let results = &results;
            let first_error = &first_error;
            let (init, model) = (&init, &model);
            let lhs_perms = &lhs_perms;
            scope.spawn(move || {
                let mut state = init();
                let mut point = vec![0.0f64; params.len()];
                let mut local = Vec::new();
                let fail = |e: Error| {
                    let mut guard = lock(first_error);
                    if guard.is_none() {
                        *guard = Some(e);
                    }
                };
                let mut k = worker;
                while k < opts.samples {
                    // Per-sample RNG: a counter-based stream keyed on
                    // (seed, sample index), so draws are bitwise
                    // identical at any worker count.
                    let mut rng = StreamRng::new(opts.seed, k as u64, STREAM_SAMPLE);
                    match lhs_perms {
                        None => {
                            for (slot, d) in point.iter_mut().zip(params.iter()) {
                                *slot = d.sample(&mut rng);
                            }
                        }
                        Some(perms) => {
                            for (j, (slot, d)) in point.iter_mut().zip(params.iter()).enumerate() {
                                let u01 =
                                    ((rng.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
                                let u = ((f64::from(perms[j][k]) + u01) / opts.samples as f64)
                                    .clamp(1e-12, 1.0 - 1e-12);
                                match d.quantile(u) {
                                    Ok(v) => *slot = v,
                                    Err(e) => {
                                        fail(e);
                                        return;
                                    }
                                }
                            }
                        }
                    }
                    match model(&mut state, &point) {
                        Ok(v) => local.push((k, v)),
                        Err(e) => {
                            fail(e);
                            return;
                        }
                    }
                    k += threads;
                }
                lock(results).extend(local);
            });
        }
    });

    if let Some(e) = first_error
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
    {
        return Err(e);
    }
    let mut pairs = results
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if pairs.len() != opts.samples {
        return Err(Error::numerical(format!(
            "expected {} samples, collected {}",
            opts.samples,
            pairs.len()
        )));
    }
    pairs.sort_by_key(|&(k, _)| k);
    let mut samples: Vec<f64> = pairs.into_iter().map(|(_, v)| v).collect();

    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
    samples.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN samples"));
    let alpha = 1.0 - opts.level;
    let lo_idx = ((alpha / 2.0) * (samples.len() - 1) as f64).round() as usize;
    let hi_idx = ((1.0 - alpha / 2.0) * (samples.len() - 1) as f64).round() as usize;
    let interval = ConfidenceInterval::new(
        mean.clamp(samples[lo_idx], samples[hi_idx]),
        samples[lo_idx],
        samples[hi_idx],
        opts.level,
    )?;
    Ok(UncertaintyResult {
        mean,
        std_dev: var.sqrt(),
        interval,
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use reliab_dist::Deterministic;

    #[test]
    fn rate_posterior_moments() {
        let g = rate_posterior(9, 1000.0).unwrap();
        assert!((g.mean() - 0.01).abs() < 1e-12); // (9+1)/1000
        assert!(rate_posterior(1, 0.0).is_err());
    }

    #[test]
    fn identity_model_recovers_parameter_distribution() {
        let lambda = rate_posterior(4, 100.0).unwrap();
        let analytic_mean = lambda.mean();
        let r = propagate(
            &[Box::new(lambda)],
            |p| Ok(p[0]),
            &PropagationOptions {
                samples: 20_000,
                ..Default::default()
            },
        )
        .unwrap();
        assert!((r.mean - analytic_mean).abs() < 0.05 * analytic_mean);
        assert!(r.interval.contains(analytic_mean));
        assert_eq!(r.samples.len(), 20_000);
    }

    #[test]
    fn deterministic_parameters_collapse_interval() {
        let r = propagate(
            &[Box::new(Deterministic::new(2.0).unwrap())],
            |p| Ok(3.0 * p[0]),
            &PropagationOptions {
                samples: 100,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.mean, 6.0);
        assert_eq!(r.std_dev, 0.0);
        assert_eq!(r.interval.lower, 6.0);
        assert_eq!(r.interval.upper, 6.0);
    }

    #[test]
    fn reproducible_across_thread_counts() {
        let mk = |threads| {
            propagate(
                &[Box::new(rate_posterior(2, 50.0).unwrap())],
                |p| Ok(1.0 / (1.0 + p[0])),
                &PropagationOptions {
                    samples: 500,
                    threads,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let one = mk(1);
        let four = mk(4);
        assert_eq!(one.samples, four.samples);
        assert_eq!(one.mean, four.mean);
    }

    #[test]
    fn model_errors_propagate() {
        let r = propagate(
            &[Box::new(Deterministic::new(1.0).unwrap())],
            |_| Err(Error::model("inner solve failed")),
            &PropagationOptions {
                samples: 10,
                ..Default::default()
            },
        );
        assert!(r.is_err());
    }

    #[test]
    fn option_validation() {
        let params: Vec<Box<dyn Lifetime>> = vec![Box::new(Deterministic::new(1.0).unwrap())];
        assert!(propagate(&[], |_| Ok(0.0), &PropagationOptions::default()).is_err());
        assert!(propagate(
            &params,
            |_| Ok(0.0),
            &PropagationOptions {
                samples: 1,
                ..Default::default()
            }
        )
        .is_err());
        assert!(propagate(
            &params,
            |_| Ok(0.0),
            &PropagationOptions {
                level: 1.0,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn latin_hypercube_recovers_moments_with_less_noise() {
        // Estimating E[lambda] of a gamma posterior: LHS should land
        // closer to the analytic mean than random sampling at the same
        // budget (stratification kills the between-stratum variance).
        let analytic = rate_posterior(4, 100.0).unwrap().mean();
        let run = |sampling| {
            propagate(
                &[Box::new(rate_posterior(4, 100.0).unwrap())],
                |p| Ok(p[0]),
                &PropagationOptions {
                    samples: 400,
                    sampling,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let lhs = run(SamplingScheme::LatinHypercube);
        let rnd = run(SamplingScheme::Random);
        assert!(
            (lhs.mean - analytic).abs() <= (rnd.mean - analytic).abs() + 1e-6,
            "LHS {} vs random {} (target {analytic})",
            lhs.mean,
            rnd.mean
        );
        // LHS covers every stratum: min/max samples near the
        // distribution's tails.
        let lo_tail = lhs.samples.first().unwrap();
        let hi_tail = lhs.samples.last().unwrap();
        assert!(*lo_tail < analytic * 0.3);
        assert!(*hi_tail > analytic * 2.0);
    }

    #[test]
    fn latin_hypercube_reproducible_across_thread_counts() {
        let mk = |threads| {
            propagate(
                &[Box::new(rate_posterior(2, 50.0).unwrap())],
                |p| Ok(p[0]),
                &PropagationOptions {
                    samples: 256,
                    threads,
                    sampling: SamplingScheme::LatinHypercube,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        assert_eq!(mk(1).samples, mk(3).samples);
    }

    #[test]
    fn interval_widens_with_less_data() {
        let scarce = propagate(
            &[Box::new(rate_posterior(1, 100.0).unwrap())],
            |p| Ok(p[0]),
            &PropagationOptions {
                samples: 5000,
                ..Default::default()
            },
        )
        .unwrap();
        let rich = propagate(
            &[Box::new(rate_posterior(100, 10_000.0).unwrap())],
            |p| Ok(p[0]),
            &PropagationOptions {
                samples: 5000,
                ..Default::default()
            },
        )
        .unwrap();
        // Same posterior-mean scale (~0.01-0.02); scarce data => wider
        // RELATIVE interval.
        let rel = |r: &UncertaintyResult| r.interval.half_width() / r.mean;
        assert!(rel(&scarce) > 2.0 * rel(&rich));
    }
}
