//! # reliab-numeric
//!
//! Self-contained numerical substrate for the `reliab` workspace. No
//! external linear-algebra dependency is used: the solvers here are
//! purpose-built for the shapes that arise in reliability models —
//! infinitesimal generator matrices (singular, diagonally dominant,
//! rows summing to zero), stochastic matrices, and the smooth special
//! functions behind lifetime distributions.
//!
//! Contents:
//!
//! * [`DenseMatrix`] — row-major dense matrix with LU solves.
//! * [`CsrMatrix`] — compressed sparse row matrix built from triplets.
//! * [`gth_steady_state_rows`] — Grassmann–Taksar–Heyman elimination:
//!   the subtraction-free, numerically stable direct method for
//!   stationary vectors of CTMC generators, read row by row and
//!   eliminated within the chain's envelope ([`gth_steady_state`] is its
//!   dense adapter).
//! * [`poisson_weights`] — truncated, normalized Poisson probabilities for
//!   uniformization (Fox–Glynn-style tail control).
//! * [`expm`] — dense matrix exponential (Padé-13 scaling and
//!   squaring), the oracle behind the differential transient tests.
//! * [`special`] — `ln Γ`, regularized incomplete gamma, `erf`, normal
//!   CDF/quantile.
//! * [`quadrature`] — adaptive Simpson integration.
//! * [`roots`] — Brent root bracketing and golden-section minimization.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod csr;
mod dense;
mod expm;
mod gth;
mod poisson;
pub mod quadrature;
pub mod roots;
pub mod special;

pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use expm::expm;
pub use gth::{gth_steady_state, gth_steady_state_rows, GthSolution};
pub use poisson::{poisson_weights, PoissonWeights};

/// Error type for the numeric layer.
///
/// The numeric crate defines its own minimal error to stay free of
/// workspace dependencies; higher layers convert it into
/// `reliab_core::Error`.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericError {
    /// Inputs of mismatched or invalid dimensions/values.
    Invalid(String),
    /// A direct solve broke down (singular matrix, zero pivot).
    Singular(String),
    /// The problem needs more memory than can be allocated.
    TooLarge(String),
    /// An iterative method exhausted its budget.
    NoConvergence {
        /// Description of the failing method.
        what: String,
        /// Iterations performed.
        iterations: usize,
        /// Final residual.
        residual: f64,
    },
}

impl std::fmt::Display for NumericError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NumericError::Invalid(m) => write!(f, "invalid numeric input: {m}"),
            NumericError::Singular(m) => write!(f, "singular system: {m}"),
            NumericError::TooLarge(m) => write!(f, "problem too large: {m}"),
            NumericError::NoConvergence {
                what,
                iterations,
                residual,
            } => write!(
                f,
                "{what} did not converge after {iterations} iterations (residual {residual:e})"
            ),
        }
    }
}

impl std::error::Error for NumericError {}

/// Result alias for the numeric layer.
pub type Result<T> = std::result::Result<T, NumericError>;
