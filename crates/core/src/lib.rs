//! # reliab-core
//!
//! Shared foundation for the `reliab` reliability/availability modeling
//! toolkit: validated numeric newtypes ([`Probability`]), the common
//! [`Error`] type, measure containers ([`Availability`],
//! [`ConfidenceInterval`], [`ImportanceMeasures`]), and the solver traits
//! ([`Reliability`], [`SteadyStateAvailability`], [`MeanTimeToFailure`])
//! implemented by every model class in the workspace.
//!
//! The crate is deliberately dependency-light so that every other crate in
//! the workspace can depend on it without pulling in numerics or RNGs.
//!
//! ```
//! use reliab_core::Probability;
//!
//! # fn main() -> Result<(), reliab_core::Error> {
//! let p = Probability::new(0.25)?;
//! assert_eq!(p.complement().value(), 0.75);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod error;
pub mod fxhash;
mod measures;
mod threads;
mod traits;
mod types;

pub use error::{Error, Result};
pub use measures::{
    downtime_minutes_per_year, Availability, ConfidenceInterval, ImportanceMeasures,
};
pub use threads::{resolve_threads, Split};
pub use traits::{MeanTimeToFailure, Reliability, SteadyStateAvailability};
pub use types::{ensure_finite_nonneg, ensure_finite_positive, ensure_probability, Probability};
