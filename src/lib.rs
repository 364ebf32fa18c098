//! # reliab — Reliability and Availability Modeling in Practice
//!
//! A SHARPE-style analytic modeling toolkit in Rust, reproducing the
//! model classes and workflows of Trivedi's DSN 2016 tutorial
//! *Reliability and Availability Modeling in Practice*:
//!
//! * **Non-state-space models** — reliability block diagrams
//!   ([`rbd`]) and fault trees ([`ftree`]), one structure function read
//!   in success or failure space and compiled by one kernel, and
//!   reliability graphs ([`relgraph`]), all BDD-exact under shared
//!   components.
//! * **Bounding methods** ([`bounds`]) for systems too large to solve
//!   exactly.
//! * **State-space models** — Markov chains ([`markov`]), stochastic
//!   Petri nets / stochastic reward nets ([`spn`]), semi-Markov and
//!   regenerative processes ([`semimarkov`]). One steady-state entry
//!   and one uniformization kernel read any [`markov::RowSource`], so
//!   an SPN is solved from its generator rows ([`spn::SpaceRows`]),
//!   kept by its walk or, under a memory budget, regenerated.
//! * **Hierarchical & fixed-point composition** ([`hier`]).
//! * **Parametric uncertainty propagation** ([`uncert`]).
//! * **Discrete-event simulation** ([`sim`]) for cross-validation.
//! * **Lifetime distributions** ([`dist`]) including non-exponential
//!   laws and phase-type fitting.
//! * **Observability** ([`obs`]) — structured tracing (spans/events)
//!   and a metrics registry threaded through every solver hot path.
//! * **Case studies** ([`models`]) — the tutorial's worked examples
//!   (workstations & file server, multiprocessor, Boeing-787-class
//!   network bounds, router hierarchy, SIP fixed point, software
//!   rejuvenation).
//!
//! ## Quick start
//!
//! ```
//! use reliab::rbd::{Block, RbdBuilder};
//!
//! # fn main() -> Result<(), reliab::core::Error> {
//! let mut b = RbdBuilder::new();
//! let pump = b.component("pump-a");
//! let spare = b.component("pump-b");
//! let valve = b.component("valve");
//! let system = Block::series(vec![Block::parallel_of(&[pump, spare]), valve.into()]);
//! let rbd = b.build(system)?;
//! let availability = rbd.availability(&[0.99, 0.99, 0.999])?;
//! assert!(availability > 0.998);
//! # Ok(())
//! # }
//! ```
//!
//! See `EXPERIMENTS.md` in the repository for the full experiment
//! index (E1–E14) and `cargo run -p reliab-bench --bin repro` to
//! regenerate every table.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub use reliab_core as core;
pub use reliab_dist as dist;
pub use reliab_numeric as numeric;
pub use reliab_obs as obs;

pub use reliab_bdd as bdd;
pub use reliab_ftree as ftree;
pub use reliab_relgraph as relgraph;

pub use reliab_bounds as bounds;
pub use reliab_hier as hier;
pub use reliab_markov as markov;
pub use reliab_semimarkov as semimarkov;
pub use reliab_spn as spn;

pub use reliab_engine as engine;
pub use reliab_models as models;
pub use reliab_sim as sim;
pub use reliab_spec as spec;
pub use reliab_uncert as uncert;

/// Reliability block diagrams: the success-space view of the
/// structure-function kernel in [`ftree`].
pub mod rbd {
    pub use reliab_ftree::{Block, ComponentId, Rbd, RbdBuilder};
}
