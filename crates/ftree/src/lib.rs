//! # reliab-ftree
//!
//! Structure-function models: reliability block diagrams and fault
//! trees, the tutorial's first two non-state-space classes. Both are
//! one Boolean function of the component states, read in success space
//! (a block diagram: the system works) or in failure space (a fault
//! tree: the top event, system failure, has occurred). One kernel
//! compiles either view to a BDD and runs one probability pass and one
//! importance routine over it; [`Polarity`] names the view.
//!
//! * **Fault trees** ([`FaultTreeBuilder`], [`FtNode`]): basic events
//!   (component failures) combine through AND/OR/k-of-n gates up to
//!   the top event.
//! * **Block diagrams** ([`RbdBuilder`], [`Block`]): components compose
//!   by series (all must work), parallel (any must work) and k-of-n. A
//!   diagram lowers onto the kernel's [`FtNode`] (series = AND,
//!   parallel = OR of the components' "works" events) and compiles in
//!   declaration order.
//!
//! Repeated events and shared components are fully supported: the
//! function compiles to a BDD, so every probability is exact, not a
//! rare-event approximation or a product of branch probabilities.
//!
//! Provided analyses:
//!
//! * exact top-event probability / system availability, time-dependent
//!   unreliability and reliability, and (block diagrams) MTTF,
//! * minimal cut and path sets (Rauzy's MinSol on a zero-suppressed
//!   BDD, counted exactly before they are listed),
//! * Birnbaum / criticality / Fussell–Vesely importance,
//! * rare-event and min-cut upper bounds for cross-checking the exact
//!   value (the quantities the `reliab-bounds` crate scales up),
//! * variable-ordering control for BDD-size ablations (fault trees).
//!
//! ```
//! use reliab_ftree::{Block, FaultTreeBuilder, FtNode, RbdBuilder};
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
//!
//! // The same system as a block diagram: power in series with the
//! // two CPUs in parallel.
//! let mut b = RbdBuilder::new();
//! let power = b.component("power");
//! let cpus = b.components("cpu", 2);
//! let rbd = b.build(Block::series(vec![power.into(), Block::parallel_of(&cpus)]))?;
//! let a = rbd.availability(&[0.99, 0.9, 0.9])?;
//! assert!((a + q - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod ccf;
mod cutsets;
mod rbd;
mod structure;
mod tree;

pub use ccf::CcfGroup;
pub use cutsets::CutSet;
pub use rbd::{Block, ComponentId, Rbd, RbdBuilder};
pub use structure::Polarity;
pub use tree::{CompileOptions, EventId, FaultTree, FaultTreeBuilder, FtNode, VariableOrdering};

use reliab_core::Error;

/// Converts a BDD-layer error into the workspace error type.
pub(crate) fn bdd_err(e: reliab_bdd::BddError) -> Error {
    Error::model(e.to_string())
}
