//! # reliab-markov
//!
//! Continuous- and discrete-time Markov chain modeling and solution —
//! the state-space half of the tutorial's toolbox, used whenever
//! component behaviors are *dependent* (shared repair crews, imperfect
//! coverage, failure propagation) and non-state-space models no longer
//! apply.
//!
//! * [`CtmcBuilder`] / [`Ctmc`] — named-state chain construction with
//!   validation at the boundary.
//! * Steady-state: GTH elimination, SOR or power, selected by size or
//!   explicitly through the one options type, [`SteadyOptions`].
//! * Transient: uniformization with Poisson tail control and optional
//!   steady-state detection ([`TransientOptions`]).
//! * [`RowSource`] — the row-on-demand contract every numerical kernel
//!   reads. A [`Ctmc`] is one; so are an SPN's kept or regenerated
//!   rows, which [`steady_state`] solves by GTH, or by block SOR/power
//!   with bitwise block-count independence under any memory budget.
//! * Absorbing analysis: MTTF, reliability as transient non-absorption
//!   probability.
//! * Markov reward models: steady-state, instantaneous and accumulated
//!   expected rewards.
//! * [`sensitivity`] — parametric derivatives of any scalar measure.
//!
//! ```
//! use reliab_markov::CtmcBuilder;
//!
//! # fn main() -> Result<(), reliab_core::Error> {
//! // Two-state repairable system, lambda = 0.001/h, mu = 0.1/h.
//! let mut b = CtmcBuilder::new();
//! let up = b.state("up");
//! let down = b.state("down");
//! b.transition(up, down, 0.001)?;
//! b.transition(down, up, 0.1)?;
//! let ctmc = b.build()?;
//! let pi = ctmc.steady_state()?;
//! let avail = pi[up.index()];
//! assert!((avail - 0.1 / 0.101).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod absorbing;
mod block;
mod builder;
mod dtmc;
mod plan;
mod rewards;
mod sensitivity;
mod source;
mod steady;
mod transient;

pub use block::steady_state;
pub use builder::{Ctmc, CtmcBuilder, StateId};
pub use dtmc::Dtmc;
pub use plan::{
    cached_solve_bytes, IterativeOptions, MemoryPlan, PlanOutcome, SteadyMethod, SteadyOptions,
};
pub use rewards::expected_reward;
pub use sensitivity::{sensitivity, Sensitivity};
pub use source::{scan_rates, KeptRows, RateScan, RowSource};
pub use steady::SteadyReport;
pub use transient::{TransientOptions, TransientReport};

use reliab_core::Error;

/// Converts numeric-layer failures into the workspace error type.
pub(crate) fn num_err(e: reliab_numeric::NumericError) -> Error {
    match e {
        reliab_numeric::NumericError::NoConvergence {
            what,
            iterations,
            residual,
        } => Error::Convergence {
            what,
            iterations,
            residual,
        },
        other => Error::numerical(other.to_string()),
    }
}
