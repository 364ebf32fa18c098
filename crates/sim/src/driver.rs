//! The parallel replication driver: fans replications out over worker
//! threads, aggregates them in replication order, and stops when the
//! confidence interval is tight enough.
//!
//! ## Determinism contract
//!
//! The driver runs replications in fixed-size *rounds*. Within a
//! round, workers steal replication indices from a shared atomic
//! counter — classic work stealing — but every replication's result is
//! a pure function of `(seed, replication)` thanks to the counter-based
//! streams, and aggregation (estimate, CI, stopping decision) happens
//! only at round boundaries, over results sorted by replication index.
//! Both the set of replications run and the fold order are therefore
//! identical for any worker count: the output is bitwise-identical at
//! `jobs = 1, 2, 4, 8, …` — the same contract the SPN reachability
//! generator gives for state-space generation.
//!
//! ## Stopping rules
//!
//! After each round the driver computes the normal-theory CI for the
//! target measure and stops once its *relative half-width*
//! (half-width / |point|) drops to [`SimOptions::rel_precision`]
//! (having run at least [`SimOptions::min_replications`]), or when
//! [`SimOptions::max_replications`] is exhausted. Variance comes from
//! replication means for reliability/MTTF and from *batch means* for
//! steady-state availability: each trajectory discards a warmup prefix
//! and contributes one mean per post-warmup time window, which shrinks
//! the CI at the correct rate even though a single long trajectory is
//! serially correlated.

use reliab_core::{ConfidenceInterval, Error, Result};
use reliab_numeric::special::normal_quantile;
use reliab_obs as obs;

use crate::{kernel, SystemSimulator};

/// What a simulation run estimates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Measure {
    /// Steady-state availability: time-average up fraction over
    /// `[warmup, horizon]`, batch-means variance.
    Availability {
        /// Trajectory length per replication.
        horizon: f64,
    },
    /// Mission reliability `R(t)`: probability of no system failure in
    /// `[0, mission_time]` (component repairs before the first system
    /// failure are allowed).
    Reliability {
        /// Mission end time.
        mission_time: f64,
    },
    /// Mean time to first system failure. Replications that survive to
    /// `time_cap` abort the run with an error, since silently censoring
    /// them would bias the estimate low.
    Mttf {
        /// Abort guard for pathological (practically non-failing) runs.
        time_cap: f64,
    },
}

impl Measure {
    /// Short name used in telemetry and reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Measure::Availability { .. } => "availability",
            Measure::Reliability { .. } => "reliability",
            Measure::Mttf { .. } => "mttf",
        }
    }
}

/// Tuning knobs for [`SystemSimulator::simulate`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SimOptions {
    /// Master seed; every `(replication, component)` stream derives
    /// from it.
    pub seed: u64,
    /// Worker threads (`0` = all available cores). Never affects
    /// results, only wall time.
    pub jobs: usize,
    /// Confidence level of the reported interval.
    pub confidence: f64,
    /// Stop when half-width / |point| falls to this value (`0.0`
    /// disables adaptive stopping: exactly `max_replications` run).
    pub rel_precision: f64,
    /// Never stop before this many replications.
    pub min_replications: usize,
    /// Hard replication budget.
    pub max_replications: usize,
    /// Replications per round; the CI is checked only at round
    /// boundaries so the stopping decision is scheduling-independent.
    pub round_replications: usize,
    /// Fraction of the horizon discarded as warmup (availability only).
    pub warmup_fraction: f64,
    /// Batch windows per trajectory (availability only).
    pub batches: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            seed: 0x5EED_0D5E,
            jobs: 1,
            confidence: 0.99,
            rel_precision: 0.005,
            min_replications: 64,
            max_replications: 16_384,
            round_replications: 64,
            warmup_fraction: 0.2,
            batches: 8,
        }
    }
}

impl SimOptions {
    /// Sets the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker-thread count (`0` = all cores).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the relative-precision stopping target.
    #[must_use]
    pub fn with_rel_precision(mut self, rel_precision: f64) -> Self {
        self.rel_precision = rel_precision;
        self
    }

    /// Sets the replication budget.
    #[must_use]
    pub fn with_max_replications(mut self, max_replications: usize) -> Self {
        self.max_replications = max_replications;
        self
    }

    /// Sets the confidence level.
    #[must_use]
    pub fn with_confidence(mut self, confidence: f64) -> Self {
        self.confidence = confidence;
        self
    }

    fn validate(&self) -> Result<()> {
        if !(self.confidence > 0.0 && self.confidence < 1.0) {
            return Err(Error::invalid(format!(
                "confidence must be in (0, 1), got {}",
                self.confidence
            )));
        }
        if !(self.rel_precision >= 0.0 && self.rel_precision.is_finite()) {
            return Err(Error::invalid(format!(
                "rel_precision must be finite and non-negative, got {}",
                self.rel_precision
            )));
        }
        if self.min_replications < 2 {
            return Err(Error::invalid("min_replications must be at least 2"));
        }
        if self.max_replications < self.min_replications {
            return Err(Error::invalid(format!(
                "max_replications {} below min_replications {}",
                self.max_replications, self.min_replications
            )));
        }
        if self.round_replications == 0 {
            return Err(Error::invalid("round_replications must be positive"));
        }
        if !(0.0..1.0).contains(&self.warmup_fraction) {
            return Err(Error::invalid(format!(
                "warmup_fraction must be in [0, 1), got {}",
                self.warmup_fraction
            )));
        }
        if self.batches == 0 {
            return Err(Error::invalid("batches must be positive"));
        }
        Ok(())
    }
}

/// One point on the CI-vs-replications trajectory, recorded at each
/// round boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CiPoint {
    /// Replications completed when this point was taken.
    pub replications: usize,
    /// Absolute CI half-width at that moment.
    pub half_width: f64,
    /// Relative half-width (half-width / |point estimate|).
    pub rel_half_width: f64,
}

/// The result of an adaptive simulation run.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SimReport {
    /// Point estimate with its normal-theory confidence interval.
    pub interval: ConfidenceInterval,
    /// Final relative half-width.
    pub rel_half_width: f64,
    /// Replications actually run.
    pub replications: usize,
    /// Aggregated observations (replications × batches for
    /// availability, = replications otherwise).
    pub observations: usize,
    /// Total simulation events consumed across all replications.
    pub events: u64,
    /// Rounds executed (= CI trajectory length).
    pub rounds: usize,
    /// Whether the `rel_precision` target was met (always `true` when
    /// adaptive stopping is disabled).
    pub converged: bool,
    /// Worker threads used (does not affect any other field).
    pub workers: usize,
    /// CI half-width after each round, for convergence diagnostics.
    pub trajectory: Vec<CiPoint>,
}

/// Per-replication raw output: the observation values it contributes
/// (batch means or a single value) plus its event count.
struct RepOut {
    values: Vec<f64>,
    events: u64,
}

fn run_one(sim: &SystemSimulator, measure: Measure, opts: &SimOptions, k: usize) -> Result<RepOut> {
    let rep = k as u64;
    match measure {
        Measure::Availability { horizon } => {
            let warmup = horizon * opts.warmup_fraction;
            let (values, events) =
                kernel::run_availability(sim, opts.seed, rep, horizon, warmup, opts.batches);
            Ok(RepOut { values, events })
        }
        Measure::Reliability { mission_time } => {
            let (_, failed, events) = kernel::run_first_failure(sim, opts.seed, rep, mission_time);
            Ok(RepOut {
                values: vec![if failed { 0.0 } else { 1.0 }],
                events,
            })
        }
        Measure::Mttf { time_cap } => {
            let (t, failed, events) = kernel::run_first_failure(sim, opts.seed, rep, time_cap);
            if !failed {
                return Err(Error::numerical(format!(
                    "replication {k} did not fail within the time cap {time_cap}; \
                     raise the cap to avoid a censored (biased) MTTF"
                )));
            }
            Ok(RepOut {
                values: vec![t],
                events,
            })
        }
    }
}

/// Runs replications `start..end`, work-stealing across `workers`
/// threads, returning results ordered by replication index. Errors are
/// reported for the *lowest* failing replication index so the error
/// too is scheduling-independent.
fn run_round(
    sim: &SystemSimulator,
    measure: Measure,
    opts: &SimOptions,
    start: usize,
    end: usize,
    workers: usize,
) -> Result<Vec<RepOut>> {
    let mut indexed: Vec<(usize, Result<RepOut>)> = if workers <= 1 || end - start <= 1 {
        (start..end)
            .map(|k| (k, run_one(sim, measure, opts, k)))
            .collect()
    } else {
        let next = std::sync::atomic::AtomicUsize::new(start);
        let threads = workers.min(end - start);
        let trace = obs::current_trace_id();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let next = &next;
                    scope.spawn(move || {
                        let _trace = obs::set_trace_id(trace);
                        let mut local = Vec::new();
                        loop {
                            let k = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if k >= end {
                                break;
                            }
                            local.push((k, run_one(sim, measure, opts, k)));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("sim worker panicked"))
                .collect()
        })
    };
    indexed.sort_by_key(|(k, _)| *k);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Mean, CI half-width, and relative half-width of `values` at the
/// given confidence level.
fn estimate(values: &[f64], confidence: f64) -> Result<(f64, f64, f64)> {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if values.len() < 2 {
        return Ok((mean, f64::INFINITY, f64::INFINITY));
    }
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
    let z = normal_quantile(1.0 - (1.0 - confidence) / 2.0)
        .map_err(|e| Error::numerical(e.to_string()))?;
    let half = z * (var.max(0.0) / n).sqrt();
    let rel = if half == 0.0 {
        0.0
    } else if mean == 0.0 {
        f64::INFINITY
    } else {
        half / mean.abs()
    };
    Ok((mean, half, rel))
}

fn validate_measure(measure: Measure) -> Result<()> {
    let (name, t) = match measure {
        Measure::Availability { horizon } => ("horizon", horizon),
        Measure::Reliability { mission_time } => ("mission time", mission_time),
        Measure::Mttf { time_cap } => ("time cap", time_cap),
    };
    if !(t > 0.0 && t.is_finite()) {
        return Err(Error::invalid(format!(
            "{name} must be positive and finite, got {t}"
        )));
    }
    Ok(())
}

pub(crate) fn simulate(
    sim: &SystemSimulator,
    measure: Measure,
    opts: &SimOptions,
) -> Result<SimReport> {
    sim.check()?;
    validate_measure(measure)?;
    opts.validate()?;
    let _span = obs::span("sim.run");
    let workers = reliab_core::resolve_threads(opts.jobs);
    obs::event(
        "sim.start",
        &[
            ("measure", measure.name().into()),
            ("components", sim.num_components().into()),
            ("seed", opts.seed.into()),
            ("workers", workers.into()),
            ("max_replications", opts.max_replications.into()),
        ],
    );

    let mut values: Vec<f64> = Vec::new();
    let mut events: u64 = 0;
    let mut done = 0usize;
    let mut trajectory = Vec::new();
    let mut converged = false;
    let mut point = (0.0f64, 0.0f64, f64::INFINITY);
    while done < opts.max_replications {
        let end = (done + opts.round_replications).min(opts.max_replications);
        for out in run_round(sim, measure, opts, done, end, workers)? {
            values.extend_from_slice(&out.values);
            events += out.events;
        }
        done = end;
        point = estimate(&values, opts.confidence)?;
        let (_, half, rel) = point;
        trajectory.push(CiPoint {
            replications: done,
            half_width: half,
            rel_half_width: rel,
        });
        obs::event(
            "sim.round",
            &[
                ("round", trajectory.len().into()),
                ("replications", done.into()),
                ("half_width", half.into()),
                ("rel_half_width", rel.into()),
            ],
        );
        if done >= opts.min_replications && opts.rel_precision > 0.0 && rel <= opts.rel_precision {
            converged = true;
            break;
        }
    }
    if opts.rel_precision == 0.0 {
        // No adaptive target: the requested budget *is* the plan.
        converged = true;
    }

    obs::counter_add("sim.replications", done as u64);
    obs::counter_add("sim.events", events);
    obs::gauge_set("sim.rel_half_width", point.2);

    let (mean, half, rel) = point;
    Ok(SimReport {
        interval: ConfidenceInterval::new(mean, mean - half, mean + half, opts.confidence)?,
        rel_half_width: rel,
        replications: done,
        observations: values.len(),
        events,
        rounds: trajectory.len(),
        converged,
        workers,
        trajectory,
    })
}
