//! # reliab-spn
//!
//! Generalized stochastic Petri nets (GSPNs) / stochastic reward nets
//! (SRNs): the tutorial's high-level front end for large Markov models.
//! Instead of enumerating states by hand, the analyst describes places,
//! tokens, timed transitions (exponential rates, possibly
//! marking-dependent), immediate transitions (weights/priorities),
//! inhibitor arcs, and guards; the tool generates the reachability
//! graph, eliminates vanishing markings, and hands the generator rows
//! (kept, or regenerated under a memory budget they do not fit) to the
//! `reliab-markov` solvers, with reward functions defined directly on
//! markings.
//!
//! ```
//! use reliab_spn::SpnBuilder;
//!
//! # fn main() -> Result<(), reliab_core::Error> {
//! // M/M/1/3 queue as an SPN.
//! let mut b = SpnBuilder::new();
//! let queue = b.place("queue", 0);
//! let arrive = b.timed("arrive", 1.0);
//! let serve = b.timed("serve", 2.0);
//! b.output_arc(arrive, queue, 1);
//! b.input_arc(serve, queue, 1);
//! b.inhibitor_arc(arrive, queue, 3); // capacity 3
//! let spn = b.build()?;
//! let reach = spn.solve()?;
//! let util = reach.steady_state_expected_reward(|m| {
//!     if m[queue.index()] > 0 { 1.0 } else { 0.0 }
//! })?;
//! assert!(util > 0.0 && util < 1.0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod model;
mod reach;
mod space;

pub use model::{PlaceId, Spn, SpnBuilder, TransitionId};
pub use reach::{ReachStats, ReachabilityOptions, SolvedSpn};
pub use space::{RowBuffer, SpaceRows, TangibleSpace};

/// A marking: token count per place, indexed by [`PlaceId::index`].
pub type Marking = Vec<u32>;
