//! # reliab-relgraph
//!
//! Reliability graphs (s-t connectivity networks): nodes are perfect,
//! edges are failure-prone components, and the system is up while at
//! least one source→sink path of working edges exists. This is the
//! third non-state-space formalism of the tutorial and the model class
//! behind the Boeing 787 current-return-network case study.
//!
//! Analyses:
//!
//! * exact two-terminal reliability by BDD over edge variables
//!   (simple paths → OR of ANDs, compiled into a shared BDD, so
//!   overlapping paths are handled exactly),
//! * exact reliability by recursive edge factoring (pivotal
//!   decomposition) for cross-validation and ablation,
//! * all-terminal and general k-terminal reliability (factoring with
//!   connectivity short-circuits),
//! * minimal path and cut sets (Rauzy's MinSol of that BDD and of its
//!   dual, on a zero-suppressed BDD),
//! * MTTF under edge lifetime distributions.
//!
//! ```
//! use reliab_relgraph::RelGraphBuilder;
//!
//! # fn main() -> Result<(), reliab_core::Error> {
//! // Two parallel links from source to sink.
//! let mut b = RelGraphBuilder::new();
//! let s = b.node("s");
//! let t = b.node("t");
//! b.edge(s, t, "link-a");
//! b.edge(s, t, "link-b");
//! let g = b.build(s, t)?;
//! let r = g.reliability(&[0.9, 0.9])?;
//! assert!((r - 0.99).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod graph;

pub use graph::{CompiledGraph, EdgeId, NodeIdx, RelGraph, RelGraphBuilder};

use reliab_core::Error;

/// Converts a BDD-layer error into the workspace error type.
pub(crate) fn bdd_err(e: reliab_bdd::BddError) -> Error {
    Error::model(e.to_string())
}
