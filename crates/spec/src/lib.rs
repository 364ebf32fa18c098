//! # reliab-spec
//!
//! Declarative model specifications: the workspace's answer to
//! SHARPE's input language. Models (RBDs, fault trees, CTMCs,
//! reliability graphs) are written as JSON documents, validated,
//! solved, and reported — enabling version-controlled model files and
//! the `reliab-cli` batch solver without writing Rust.
//!
//! The primary entry point is [`solve_with`] (or [`solve_str_with`]
//! straight from JSON text): it takes a [`SolveOptions`] and returns a
//! [`SolveReport`] carrying both the solved measures and solver
//! telemetry — wall time, iteration counts, convergence residuals, and
//! BDD table sizes.
//!
//! ```
//! use reliab_spec::{solve_str_with, SolveOptions, SolvedMeasures};
//!
//! # fn main() -> Result<(), reliab_core::Error> {
//! let spec = r#"{
//!   "rbd": {
//!     "components": [
//!       {"name": "pump-a", "availability": 0.99},
//!       {"name": "pump-b", "availability": 0.99},
//!       {"name": "valve",  "availability": 0.999}
//!     ],
//!     "structure": {"series": [{"parallel": ["pump-a", "pump-b"]}, "valve"]}
//!   }
//! }"#;
//! let report = solve_str_with(spec, &SolveOptions::default())?;
//! assert!(report.measures.availability().unwrap() > 0.998);
//! assert!(report.stats.iterations > 0);
//! match &report.measures {
//!     SolvedMeasures::Rbd { availability, .. } => assert!(*availability > 0.998),
//!     _ => unreachable!(),
//! }
//! # Ok(())
//! # }
//! ```
//!
//! [`SolveOptions`] selects how a document is solved: the CTMC
//! steady-state method ([`SteadySolver::Gth`] vs.
//! [`SteadySolver::Power`] vs. [`SteadySolver::Sor`]), the thread
//! budget, forced simulation and the SPN memory budget. The model's
//! own numbers (seeds, sample counts, tolerances, truncation order,
//! variable order) are keys of the document. For
//! solving many documents at once on a thread pool, see the
//! `reliab-engine` crate, which wraps this API in a batch front end
//! with memoization.
//!
//! The JSON grammar (one top-level key selects the model class):
//!
//! ```text
//! { "rbd": {
//!     "components": [ {"name": "...", "availability": 0.99}, ... ],
//!     "structure":  "name"
//!                 | {"series":   [structure, ...]}
//!                 | {"parallel": [structure, ...]}
//!                 | {"k_of_n": {"k": 2, "of": [structure, ...]}} } }
//!
//! { "fault_tree": {
//!     "events": [ {"name": "...", "probability": 0.01}, ... ],
//!     "top":    "name"
//!             | {"and": [gate, ...]}
//!             | {"or":  [gate, ...]}
//!             | {"k_of_n": {"k": 2, "of": [gate, ...]}} } }
//!
//! { "ctmc": {
//!     "states": ["up", "down", ...],
//!     "transitions": [ {"from": "up", "to": "down", "rate": 0.01}, ... ],
//!     "initial": "up",                  // optional, for mttf/transient
//!     "up_states": ["up"],              // optional, for availability
//!     "absorbing": ["down"],            // optional, for mttf
//!     "at_times": [100.0, 1000.0] } }   // optional, transient points
//!
//! { "rel_graph": {
//!     "nodes": ["s", "t", ...],
//!     "edges": [ {"name": "...", "from": "s", "to": "t",
//!                 "reliability": 0.99, "directed": false}, ... ],
//!     "source": "s", "sink": "t",
//!     "all_terminal": false } }
//!
//! { "spn": {
//!     "places": [ {"name": "queue", "tokens": 3}, ... ],
//!     "transitions": [
//!       {"name": "arrive", "rate": 1.5,            // timed, or:
//!        "inputs":     [{"place": "pool"}],         // count defaults to 1
//!        "outputs":    [{"place": "queue", "count": 1}],
//!        "inhibitors": [{"place": "queue", "count": 8}]},
//!       {"name": "route", "weight": 0.7, "priority": 1}, ... ],
//!     "max_markings": 1000000,          // optional, exploration cap
//!     "expected_tokens": ["queue"],     // optional, steady-state measure
//!     "throughput": ["arrive"] } }      // optional, steady-state measure
//!
//! { "hierarchy": {
//!     "submodels": [
//!       {"name": "disk", "model": { ...any model document... },
//!        "measure": "availability",     // availability|unreliability|mttf|primary
//!        "initial": 1.0,                // optional fixed-point start
//!        "imports": [                   // optional parameter bindings
//!          {"from": "net", "path": "ctmc.transitions.0.rate"} ]}, ... ],
//!     "output": "disk",                 // optional, default last submodel
//!     "tolerance": 1e-10,               // optional fixed-point knobs
//!     "max_iterations": 10000, "damping": 1.0 } }
//!
//! { "semi_markov": {
//!     "states": [ {"name": "up", "sojourn": {"weibull":
//!                   {"shape": 2.0, "scale": 1000.0}}}, ... ],
//!     "transitions": [ {"from": "up", "to": "down",
//!                       "probability": 1.0}, ... ],
//!     "initial": "up",                  // optional, for passage/interval
//!     "up_states": ["up"],              // optional, for availability
//!     "targets": ["down"],              // optional, mean first passage
//!     "interval_times": [100.0] } }     // optional, (1/t)∫A(u)du
//!
//! { "uncertainty": {
//!     "model": { ...any model document... },
//!     "parameters": [
//!       {"path": "ctmc.transitions.0.rate",
//!        "prior": {"rate_posterior": {"failures": 12, "total_time": 1e5}}
//!              // or any distribution: {"gamma": {"shape": ..., "rate": ...}}
//!       }, ... ],
//!     "measure": "availability",        // optional, default primary
//!     "samples": 1000, "level": 0.95,   // optional Monte-Carlo knobs
//!     "seed": 24301, "latin_hypercube": false } }
//!
//! { "bounds": {
//!     "events": [ {"name": "...", "probability": 0.01}, ... ],
//!     "cut_sets":  [["a", "b"], ...],
//!     "path_sets": [["a", "c"], ...],   // optional, enables EP bounds
//!     // or instead of the three above:
//!     "fault_tree": { ...fault_tree body... },
//!     "truncation_order": 2 } }         // optional
//! ```
//!
//! Worker threads are not part of a model: `SolveOptions::threads` sets
//! one budget for the whole solve. The `jobs` keys of the `sim`,
//! `hierarchy` and `uncertainty` blocks and the SPN `reach_jobs` and
//! `shard_bits` keys of older documents are type-checked and ignored.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod aggregate;
mod convert;
mod fingerprint;
pub mod json;
mod report;
mod scenario;
mod schema;
mod slot;
pub mod wire;

pub use convert::{solve_str_with, solve_with, ImportanceRow, SolvedMeasures, TransientRow};
pub use report::{SolveOptions, SolveReport, SolveStats, SteadySolver, VarOrder};
pub use schema::{
    ArcSpec, BoundsEventSpec, BoundsSpec, CtmcSpec, DistSpec, EdgeSpec, FaultTreeSpec,
    HierarchySpec, ImportSpec, ItemSpec, ModelSpec, PlaceSpec, PriorSpec, RbdSpec, RelGraphSpec,
    ScenarioMeasure, SemiMarkovSpec, SimSpec, SmpStateSpec, SmpTransitionSpec, SpnSpec,
    SpnTimingSpec, SpnTransitionSpec, StructureSpec, SubmodelSpec, TransitionSpec,
    UncertainParamSpec, UncertaintySpec,
};
