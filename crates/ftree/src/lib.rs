//! # reliab-ftree
//!
//! Fault-tree analysis: the failure-space dual of block diagrams and
//! the workhorse of the tutorial's non-state-space section. Basic
//! events (component failures) combine through AND/OR/k-of-n gates up
//! to the *top event* (system failure). Repeated basic events are fully
//! supported: the tree compiles to a BDD, so the top-event probability
//! is exact, not a rare-event approximation.
//!
//! Provided analyses:
//!
//! * exact top-event probability and time-dependent unreliability,
//! * minimal cut and path sets (Rauzy's MinSol on a zero-suppressed
//!   BDD, counted exactly before they are listed),
//! * Birnbaum / criticality / Fussell–Vesely importance,
//! * rare-event and min-cut upper bounds for cross-checking the exact
//!   value (the quantities the `reliab-bounds` crate scales up),
//! * variable-ordering control for BDD-size ablations.
//!
//! ```
//! use reliab_ftree::{FaultTreeBuilder, FtNode};
//!
//! # fn main() -> Result<(), reliab_core::Error> {
//! let mut b = FaultTreeBuilder::new();
//! let power = b.basic_event("power-fails");
//! let cpu1 = b.basic_event("cpu1-fails");
//! let cpu2 = b.basic_event("cpu2-fails");
//! // System fails if power fails, or both CPUs fail.
//! let top = FtNode::or(vec![power.into(), FtNode::and(vec![cpu1.into(), cpu2.into()])]);
//! let ft = b.build(top)?;
//! let q = ft.top_event_probability(&[0.01, 0.1, 0.1])?;
//! assert!((q - (1.0 - 0.99 * (1.0 - 0.01f64))).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod ccf;
mod cutsets;
mod tree;

pub use ccf::CcfGroup;
pub use cutsets::CutSet;
pub use tree::{CompileOptions, EventId, FaultTree, FaultTreeBuilder, FtNode, VariableOrdering};

use reliab_core::Error;

/// Converts a BDD-layer error into the workspace error type.
pub(crate) fn bdd_err(e: reliab_bdd::BddError) -> Error {
    Error::model(e.to_string())
}
