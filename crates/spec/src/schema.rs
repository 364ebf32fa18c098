//! Data model for specification documents, with hand-rolled JSON
//! binding (see [`crate::json`] for why no serde).
//!
//! Parsing is strict: unknown object keys are rejected everywhere, and
//! structure/gate nodes accept either a bare string (a leaf reference)
//! or a single-key object selecting the combinator — the same grammar
//! the original serde data model (externally tagged top level, untagged
//! recursive nodes, `deny_unknown_fields`) accepted.

use crate::json::{self, JsonValue};
use crate::slot::Slot;
use reliab_core::{Error, Result};
use reliab_ftree::Polarity;

/// A top-level model document: exactly one model class.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum ModelSpec {
    /// A reliability block diagram.
    Rbd(RbdSpec),
    /// A fault tree.
    FaultTree(FaultTreeSpec),
    /// A continuous-time Markov chain.
    Ctmc(CtmcSpec),
    /// An s-t reliability graph.
    RelGraph(RelGraphSpec),
    /// A stochastic Petri net.
    Spn(SpnSpec),
    /// A hierarchical composition of submodels with fixed-point import
    /// bindings.
    Hierarchy(HierarchySpec),
    /// A semi-Markov process with general sojourn distributions.
    SemiMarkov(SemiMarkovSpec),
    /// Parametric uncertainty propagated over an inner model.
    Uncertainty(UncertaintySpec),
    /// Esary–Proschan / truncated-SDP bounds from cut and path sets.
    Bounds(BoundsSpec),
}

/// Stochastic-Petri-net specification.
///
/// Timed transitions carry a `rate`; immediate transitions a `weight`
/// (and optional `priority`). The `reach_jobs` and `shard_bits` keys
/// of older documents are type-checked and ignored: the solve's thread
/// budget (`SolveOptions::threads`) sets the generator's workers. So is
/// their `solver` key (`"materialized"`, `"csr"` or `"stream"`): every
/// net is solved one way, and `SolveOptions::mem_budget` alone decides,
/// by whether they fit it, whether its generator rows are kept or
/// regenerated.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct SpnSpec {
    /// Place declarations.
    pub places: Vec<PlaceSpec>,
    /// Transition declarations.
    pub transitions: Vec<SpnTransitionSpec>,
    /// Cap on tangible markings (default 1 000 000).
    pub max_markings: Option<usize>,
    /// Places to report steady-state expected token counts for
    /// (default: none).
    pub expected_tokens: Option<Vec<String>>,
    /// Timed transitions to report steady-state throughput for
    /// (default: none).
    pub throughput: Option<Vec<String>>,
}

/// One SPN place.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct PlaceSpec {
    /// Place name.
    pub name: String,
    /// Initial token count.
    pub tokens: u32,
}

/// One SPN transition (timed or immediate).
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct SpnTransitionSpec {
    /// Transition name.
    pub name: String,
    /// Timed rate or immediate weight/priority.
    pub timing: SpnTimingSpec,
    /// Input arcs (tokens consumed; enablement condition).
    pub inputs: Vec<ArcSpec>,
    /// Output arcs (tokens produced).
    pub outputs: Vec<ArcSpec>,
    /// Inhibitor arcs (disabled at or above the threshold).
    pub inhibitors: Vec<ArcSpec>,
}

/// Timing of an SPN transition.
#[derive(Debug, Clone, PartialEq)]
pub enum SpnTimingSpec {
    /// Exponential transition with a constant rate.
    Timed {
        /// Firing rate (per time unit).
        rate: f64,
    },
    /// Immediate transition.
    Immediate {
        /// Branching weight among equal-priority immediates.
        weight: f64,
        /// Priority (higher fires first; default 0).
        priority: u32,
    },
}

/// One arc of an SPN transition.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct ArcSpec {
    /// Place name.
    pub place: String,
    /// Multiplicity / inhibitor threshold (default 1).
    pub count: u32,
}

/// Reliability-graph specification.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct RelGraphSpec {
    /// Node names.
    pub nodes: Vec<String>,
    /// Edge declarations.
    pub edges: Vec<EdgeSpec>,
    /// Source terminal.
    pub source: String,
    /// Sink terminal.
    pub sink: String,
    /// Also compute all-terminal reliability (undirected graphs only).
    pub all_terminal: bool,
}

/// One graph edge (a failure-prone component).
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeSpec {
    /// Edge name.
    pub name: String,
    /// Tail node.
    pub from: String,
    /// Head node.
    pub to: String,
    /// Probability the edge works.
    pub reliability: f64,
    /// Directed edge (default: undirected).
    pub directed: bool,
}

/// RBD specification.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct RbdSpec {
    /// Component declarations (key `components`; an item's value is its
    /// `availability`).
    pub components: Vec<ItemSpec>,
    /// The block structure (key `structure`): `series`, `parallel` and
    /// `k_of_n` groups of working components.
    pub structure: StructureSpec,
    /// Discrete-event simulation request: when present, the model is
    /// solved by simulation (components then need lifetime
    /// distributions) instead of the exact BDD evaluation.
    pub sim: Option<SimSpec>,
}

/// One RBD component or fault-tree basic event.
///
/// Either a point value or a `ttf_dist` (plus `ttr_dist` for repairable
/// items) must be given. Analytic solves use the value directly; when
/// it is absent they derive it from the distribution means: a
/// component's availability `E[ttf] / (E[ttf] + E[ttr])`, or a basic
/// event's unavailability `E[ttr] / (E[ttf] + E[ttr])`. Simulation
/// requires the distributions.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemSpec {
    /// Item name (referenced from the structure or the gates).
    pub name: String,
    /// The point value, under the class's key: a component's
    /// `availability` (any point probability of being up) or a basic
    /// event's failure `probability`.
    pub value: Option<f64>,
    /// Time-to-failure distribution (required for simulation).
    pub ttf_dist: Option<DistSpec>,
    /// Time-to-repair distribution; absent means the item is never
    /// repaired once failed.
    pub ttr_dist: Option<DistSpec>,
}

/// A lifetime/repair distribution: a single-key object selecting the
/// family, e.g. `{"exponential": {"rate": 0.001}}`.
///
/// Exponential also accepts `{"mean": m}` (normalized to `rate = 1/m`)
/// and lognormal accepts `{"mean": m, "cv2": c}` (normalized to
/// `mu`/`sigma`); [`DistSpec`] always stores — and `to_json` always
/// emits — the canonical parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum DistSpec {
    /// Exponential with the given rate.
    Exponential {
        /// Failure/repair rate (1 / mean).
        rate: f64,
    },
    /// Weibull.
    Weibull {
        /// Shape parameter (k > 1 = wear-out).
        shape: f64,
        /// Scale parameter (characteristic life).
        scale: f64,
    },
    /// Lognormal.
    LogNormal {
        /// Location of the underlying normal.
        mu: f64,
        /// Scale of the underlying normal.
        sigma: f64,
    },
    /// Pareto (Lomax): heavy-tailed, mean `scale/(shape-1)` for
    /// `shape > 1`.
    Pareto {
        /// Tail index.
        shape: f64,
        /// Scale parameter.
        scale: f64,
    },
    /// Gamma.
    Gamma {
        /// Shape parameter.
        shape: f64,
        /// Rate parameter (1 / scale).
        rate: f64,
    },
    /// Uniform on `[low, high]`.
    Uniform {
        /// Lower endpoint.
        low: f64,
        /// Upper endpoint.
        high: f64,
    },
    /// A deterministic (constant) duration.
    Deterministic {
        /// The constant value.
        value: f64,
    },
}

/// What a `sim` block estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimMeasure {
    /// Steady-state availability (requires `horizon`).
    Availability,
    /// Mission reliability (requires `mission_time`).
    Reliability,
    /// Mean time to first system failure (requires `time_cap`).
    Mttf,
}

impl SimMeasure {
    /// Parses the JSON spelling.
    #[must_use]
    pub fn parse(s: &str) -> Option<SimMeasure> {
        match s {
            "availability" => Some(SimMeasure::Availability),
            "reliability" => Some(SimMeasure::Reliability),
            "mttf" => Some(SimMeasure::Mttf),
            _ => None,
        }
    }

    /// The canonical spelling, as accepted by [`SimMeasure::parse`].
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SimMeasure::Availability => "availability",
            SimMeasure::Reliability => "reliability",
            SimMeasure::Mttf => "mttf",
        }
    }
}

/// Discrete-event simulation request attached to an RBD or fault tree.
///
/// Only `measure` and its matching time parameter are required; every
/// other knob inherits the `reliab-sim` driver default.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSpec {
    /// The estimated measure.
    pub measure: SimMeasure,
    /// Trajectory length per replication (availability).
    pub horizon: Option<f64>,
    /// Mission end time (reliability).
    pub mission_time: Option<f64>,
    /// Censoring guard for non-failing replications (mttf).
    pub time_cap: Option<f64>,
    /// Master RNG seed.
    pub seed: Option<u64>,
    /// Hard replication budget.
    pub max_replications: Option<usize>,
    /// Replications to run before adaptive stopping may trigger.
    pub min_replications: Option<usize>,
    /// Relative CI half-width stopping target (0 disables adaptive
    /// stopping: exactly `max_replications` run).
    pub rel_precision: Option<f64>,
    /// Confidence level of the reported interval.
    pub confidence: Option<f64>,
    /// Batch windows per trajectory (availability variance).
    pub batches: Option<usize>,
    /// Fraction of the horizon discarded as warmup (availability).
    pub warmup_fraction: Option<f64>,
}

/// A node of an RBD structure or a fault-tree gate tree.
///
/// Each combinator reads in its model's own space, under its class's
/// key: in an RBD the members are components that work (`series`,
/// `parallel`), in a fault tree events that occur (`and`, `or`).
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum StructureSpec {
    /// A component or basic event, by name.
    Item(String),
    /// Every member holds: a `series` group or an `and` gate.
    All(Vec<StructureSpec>),
    /// Some member holds: a `parallel` group or an `or` gate.
    Any(Vec<StructureSpec>),
    /// At least `k` members hold (`k_of_n`): work in an RBD, fail in a
    /// fault tree.
    KOfN {
        /// Members required to hold.
        k: usize,
        /// The members.
        of: Vec<StructureSpec>,
    },
}

/// The key names and schema terms of one structure-function class: an
/// RBD reads its structure in success space, a fault tree in failure
/// space.
#[derive(Debug)]
pub(crate) struct Terms {
    /// Which truth value of the structure function the class reads.
    pub(crate) polarity: Polarity,
    /// The model class key.
    pub(crate) class: &'static str,
    /// Keys of the item list and of the root node.
    pub(crate) items: &'static str,
    pub(crate) root: &'static str,
    /// An item, in messages.
    pub(crate) item: &'static str,
    /// The key of an item's point value, and its article.
    pub(crate) value: &'static str,
    value_article: &'static str,
    /// Keys of the [`StructureSpec::All`] and [`StructureSpec::Any`]
    /// combinators.
    pub(crate) all: &'static str,
    pub(crate) any: &'static str,
    /// A node, what a node may be, and a combinator key, in schema
    /// errors.
    node: &'static str,
    node_forms: &'static str,
    combinator: &'static str,
}

/// The terms of an RBD.
pub(crate) const RBD: Terms = Terms {
    polarity: Polarity::Success,
    class: "rbd",
    items: "components",
    root: "structure",
    item: "component",
    value: "availability",
    value_article: "an",
    all: "series",
    any: "parallel",
    node: "structure",
    node_forms: "a name or a combinator object",
    combinator: "structure combinator",
};

/// The terms of a fault tree.
pub(crate) const FAULT_TREE: Terms = Terms {
    polarity: Polarity::Failure,
    class: "fault_tree",
    items: "events",
    root: "top",
    item: "event",
    value: "probability",
    value_article: "a",
    all: "and",
    any: "or",
    node: "gate",
    node_forms: "an event name or a gate object",
    combinator: "gate type",
};

/// Fault-tree specification.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct FaultTreeSpec {
    /// Basic-event declarations (key `events`; an item's value is its
    /// failure `probability`).
    pub events: Vec<ItemSpec>,
    /// The top gate (key `top`): `and`, `or` and `k_of_n` gates of
    /// occurring events.
    pub top: StructureSpec,
    /// Cap on the listed minimal cut sets (default 100 000), checked
    /// against their exact count before any is listed; a larger family
    /// is a model error. The BDD probability has no such cap.
    pub max_cut_sets: Option<usize>,
    /// BDD variable ordering: `"auto"`, `"input"`, `"dfs"`,
    /// `"weighted"`, or `"sift"`; absent means `"auto"`, the
    /// depth-first heuristic.
    pub var_order: Option<crate::report::VarOrder>,
    /// Discrete-event simulation request: when present, the model is
    /// solved by simulating event lifetimes (which then need
    /// distributions) instead of the exact BDD evaluation.
    pub sim: Option<SimSpec>,
}

/// CTMC specification.
#[derive(Debug, Clone, PartialEq)]
pub struct CtmcSpec {
    /// State names.
    pub states: Vec<String>,
    /// Transition list.
    pub transitions: Vec<TransitionSpec>,
    /// Initial state (for MTTF / transient measures). Defaults to the
    /// first state.
    pub initial: Option<String>,
    /// Operational states (availability is their steady-state mass).
    pub up_states: Option<Vec<String>>,
    /// Failure states for MTTF.
    pub absorbing: Option<Vec<String>>,
    /// Time points for transient state probabilities.
    pub at_times: Option<Vec<f64>>,
}

/// One CTMC transition.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionSpec {
    /// Source state name.
    pub from: String,
    /// Destination state name.
    pub to: String,
    /// Transition rate (per time unit).
    pub rate: f64,
}

/// Which scalar a scenario layer extracts from a solved submodel (the
/// hierarchy import/export measure and the uncertainty output measure).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScenarioMeasure {
    /// System availability ([`crate::SolvedMeasures::availability`]).
    Availability,
    /// Failure probability ([`crate::SolvedMeasures::unreliability`]).
    Unreliability,
    /// Mean time to failure ([`crate::SolvedMeasures::mttf`]).
    Mttf,
    /// The model class's headline scalar
    /// ([`crate::SolvedMeasures::primary_value`]).
    #[default]
    Primary,
}

impl ScenarioMeasure {
    /// Parses the JSON spelling.
    #[must_use]
    pub fn parse(s: &str) -> Option<ScenarioMeasure> {
        match s {
            "availability" => Some(ScenarioMeasure::Availability),
            "unreliability" => Some(ScenarioMeasure::Unreliability),
            "mttf" => Some(ScenarioMeasure::Mttf),
            "primary" => Some(ScenarioMeasure::Primary),
            _ => None,
        }
    }

    /// The canonical spelling, as accepted by [`ScenarioMeasure::parse`].
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ScenarioMeasure::Availability => "availability",
            ScenarioMeasure::Unreliability => "unreliability",
            ScenarioMeasure::Mttf => "mttf",
            ScenarioMeasure::Primary => "primary",
        }
    }
}

/// Hierarchical-composition specification: a set of named submodels
/// (each a complete model document) exchanging scalar measures through
/// import bindings, closed by damped fixed-point iteration.
///
/// An acyclic composition converges in as many sweeps as its depth; a
/// cyclic one (the SIP/WebSphere pattern) iterates to the `tolerance`.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchySpec {
    /// The submodels, evaluated in declaration order each sweep.
    pub submodels: Vec<SubmodelSpec>,
    /// The submodel whose exported measure is the hierarchy's headline
    /// value. Defaults to the last submodel.
    pub output: Option<String>,
    /// Fixed-point convergence tolerance (default `1e-10`).
    pub tolerance: Option<f64>,
    /// Fixed-point sweep budget (default 10 000).
    pub max_iterations: Option<usize>,
    /// Damping factor in `(0, 1]` (default 1.0, undamped).
    pub damping: Option<f64>,
}

/// One hierarchy submodel: a complete inner model document plus the
/// measure it exports and the parameters it imports.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmodelSpec {
    /// Submodel name (referenced by imports and `output`).
    pub name: String,
    /// The inner model (any model class, including nested scenarios).
    pub model: Box<ModelSpec>,
    /// The scalar this submodel exports (default `primary`).
    pub measure: ScenarioMeasure,
    /// Starting value of the exported measure for the fixed-point
    /// iteration (default 1.0 — availability-like).
    pub initial: Option<f64>,
    /// Parameters bound from other submodels' exports before each
    /// solve.
    pub imports: Vec<ImportSpec>,
}

/// One hierarchy import binding: before each solve of the importing
/// submodel, the numeric field at `path` (a dotted JSON path into the
/// submodel's canonical document, e.g.
/// `"rbd.components.0.availability"`) is replaced by the current export
/// of submodel `from`.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct ImportSpec {
    /// Exporting submodel name.
    pub from: String,
    /// Dotted JSON path to the imported numeric field, relative to the
    /// importing submodel's document.
    pub path: String,
    /// The field `path` names, resolved when the document was parsed.
    pub(crate) slot: Slot,
}

/// Semi-Markov-process specification: states with general sojourn-time
/// distributions and an embedded transition-probability matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SemiMarkovSpec {
    /// State declarations.
    pub states: Vec<SmpStateSpec>,
    /// Embedded DTMC transitions (per-state probabilities sum to 1).
    pub transitions: Vec<SmpTransitionSpec>,
    /// Initial state for first-passage and interval measures. Defaults
    /// to the first state.
    pub initial: Option<String>,
    /// Operational states (steady availability is their long-run time
    /// fraction).
    pub up_states: Option<Vec<String>>,
    /// Target states for the mean first-passage time from `initial`.
    pub targets: Option<Vec<String>>,
    /// Time points for interval availability `(1/t)∫₀ᵗ A(u) du`,
    /// computed on the phase-type expansion (requires `up_states`).
    pub interval_times: Option<Vec<f64>>,
}

/// One semi-Markov state.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct SmpStateSpec {
    /// State name.
    pub name: String,
    /// Sojourn-time distribution (any [`DistSpec`] family).
    pub sojourn: DistSpec,
}

/// One embedded-chain transition.
#[derive(Debug, Clone, PartialEq)]
pub struct SmpTransitionSpec {
    /// Source state name.
    pub from: String,
    /// Destination state name (self-loops are rejected: fold them into
    /// the sojourn distribution).
    pub to: String,
    /// Embedded jump probability.
    pub probability: f64,
}

/// Parametric-uncertainty specification: a wrapper class that samples
/// priors over numeric fields of an inner model document and propagates
/// them through repeated solves (Monte Carlo over the parameter
/// vector).
#[derive(Debug, Clone, PartialEq)]
pub struct UncertaintySpec {
    /// The inner model (any model class).
    pub model: Box<ModelSpec>,
    /// The uncertain parameters.
    pub parameters: Vec<UncertainParamSpec>,
    /// The output measure extracted from each inner solve (default
    /// `primary`).
    pub measure: ScenarioMeasure,
    /// Monte-Carlo samples (default 1000).
    pub samples: Option<usize>,
    /// Confidence level of the percentile interval (default 0.95).
    pub level: Option<f64>,
    /// RNG seed (default `0x5EED`). Sampling is a pure function of
    /// `(seed, sample index)` — bitwise identical at any worker count.
    pub seed: Option<u64>,
    /// Use Latin-hypercube instead of independent random sampling.
    pub latin_hypercube: bool,
}

/// One uncertain parameter: a dotted JSON path into the inner model
/// document plus its prior distribution.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct UncertainParamSpec {
    /// Dotted JSON path to the numeric field, relative to the inner
    /// model document (e.g. `"ctmc.transitions.0.rate"`).
    pub path: String,
    /// The prior.
    pub prior: PriorSpec,
    /// The field `path` names, resolved when the document was parsed.
    pub(crate) slot: Slot,
}

/// A prior over an uncertain parameter: an explicit distribution, or
/// the Bayesian exponential-rate posterior `Gamma(failures + 1,
/// total_time)` from observed test data.
#[derive(Debug, Clone, PartialEq)]
pub enum PriorSpec {
    /// An explicit distribution (any [`DistSpec`] family).
    Dist(DistSpec),
    /// `rate_posterior`: the conjugate posterior of an exponential
    /// rate after `failures` events in `total_time` cumulative
    /// exposure.
    Posterior {
        /// Observed failure count.
        failures: u32,
        /// Cumulative exposure time.
        total_time: f64,
    },
}

/// Cut/path-set bounds specification: Esary–Proschan and
/// truncated-SDP bounds from explicit minimal cut sets (the Boeing-787
/// workflow) or from an inline fault tree.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct BoundsSpec {
    /// Basic-event declarations with failure probabilities. Required
    /// with explicit `cut_sets`; forbidden with `fault_tree`.
    pub events: Vec<BoundsEventSpec>,
    /// Minimal cut sets as lists of event names. Required unless
    /// `fault_tree` is given.
    pub cut_sets: Vec<Vec<String>>,
    /// Minimal path sets (enables the Esary–Proschan bounds; derived
    /// from the tree's dual when `fault_tree` is given).
    pub path_sets: Option<Vec<Vec<String>>>,
    /// An inline fault tree supplying events, exact probability, and
    /// minimal cut/path sets. Mutually exclusive with
    /// `events`/`cut_sets`/`path_sets`.
    pub fault_tree: Option<Box<FaultTreeSpec>>,
    /// Cut-set order above which enumeration is considered truncated
    /// (default 2; must be ≥ 1).
    pub truncation_order: Option<usize>,
}

/// One bounds basic event.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundsEventSpec {
    /// Event name (referenced from the cut/path sets).
    pub name: String,
    /// Failure probability.
    pub probability: f64,
}

// ---------------------------------------------------------------------
// Parsing

fn schema_err(msg: impl std::fmt::Display) -> Error {
    Error::invalid(format!("specification does not match schema: {msg}"))
}

fn as_obj<'a>(v: &'a JsonValue, what: &str) -> Result<&'a [(String, JsonValue)]> {
    v.as_object()
        .ok_or_else(|| schema_err(format!("{what} must be an object")))
}

fn check_keys(entries: &[(String, JsonValue)], allowed: &[&str], what: &str) -> Result<()> {
    for (k, _) in entries {
        if !allowed.contains(&k.as_str()) {
            return Err(schema_err(format!("unknown field '{k}' in {what}")));
        }
    }
    Ok(())
}

fn req<'a>(v: &'a JsonValue, key: &str, what: &str) -> Result<&'a JsonValue> {
    v.get(key)
        .ok_or_else(|| schema_err(format!("{what} is missing required field '{key}'")))
}

fn str_field(v: &JsonValue, key: &str, what: &str) -> Result<String> {
    req(v, key, what)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| schema_err(format!("field '{key}' of {what} must be a string")))
}

fn f64_field(v: &JsonValue, key: &str, what: &str) -> Result<f64> {
    req(v, key, what)?
        .as_f64()
        .ok_or_else(|| schema_err(format!("field '{key}' of {what} must be a number")))
}

fn string_list(v: &JsonValue, what: &str) -> Result<Vec<String>> {
    v.as_array()
        .ok_or_else(|| schema_err(format!("{what} must be an array")))?
        .iter()
        .map(|item| {
            item.as_str()
                .map(str::to_owned)
                .ok_or_else(|| schema_err(format!("{what} entries must be strings")))
        })
        .collect()
}

// ---------------------------------------------------------------------
// Checked numeric fields. `from_json` and slot writes (`crate::slot`)
// share these, so a value written into a parsed model is accepted, or
// rejected with the same message, exactly as in a document.

/// A non-negative integer (`JsonValue::as_usize`), or `msg`.
fn int_value(x: &JsonValue, msg: impl FnOnce() -> String) -> Result<usize> {
    x.as_usize().ok_or_else(|| schema_err(msg()))
}

/// `k` of a k-of-n structure or gate.
pub(crate) fn k_value(x: &JsonValue) -> Result<usize> {
    int_value(x, || "'k' must be a non-negative integer".into())
}

/// A fault tree's `max_cut_sets`.
pub(crate) fn max_cut_sets_value(x: &JsonValue) -> Result<usize> {
    int_value(x, || "'max_cut_sets' must be a non-negative integer".into())
}

/// An integer field of a `sim` block.
pub(crate) fn sim_int(x: &JsonValue, key: &str) -> Result<usize> {
    int_value(x, || format!("sim '{key}' must be a non-negative integer"))
}

/// An integer field of an SPN.
pub(crate) fn spn_int(x: &JsonValue, key: &str) -> Result<usize> {
    int_value(x, || format!("'{key}' must be a non-negative integer"))
}

/// An SPN's `shard_bits`.
pub(crate) fn shard_bits_value(x: &JsonValue) -> Result<u32> {
    match spn_int(x, "shard_bits")? {
        b if b <= 16 => Ok(b as u32),
        b => Err(schema_err(format!("'shard_bits' must be <= 16 (got {b})"))),
    }
}

/// A `u32` count of an SPN: place tokens, a priority, an arc count.
pub(crate) fn u32_value(x: &JsonValue, key: &str) -> Result<u32> {
    u32::try_from(spn_int(x, key)?).map_err(|_| schema_err(format!("'{key}' exceeds u32 range")))
}

/// An integer field of a hierarchy.
pub(crate) fn hierarchy_int(x: &JsonValue, key: &str) -> Result<usize> {
    int_value(x, || {
        format!("hierarchy '{key}' must be a non-negative integer")
    })
}

/// A hierarchy's `max_iterations`.
pub(crate) fn max_iterations_value(x: &JsonValue) -> Result<usize> {
    match hierarchy_int(x, "max_iterations")? {
        0 => Err(schema_err("hierarchy 'max_iterations' must be at least 1")),
        m => Ok(m),
    }
}

/// A hierarchy's `tolerance`.
pub(crate) fn tolerance_value(t: f64) -> Result<f64> {
    if t > 0.0 && t.is_finite() {
        Ok(t)
    } else {
        Err(schema_err(format!(
            "hierarchy 'tolerance' must be positive and finite, got {t}"
        )))
    }
}

/// A hierarchy's `damping`.
pub(crate) fn damping_value(d: f64) -> Result<f64> {
    if d > 0.0 && d <= 1.0 {
        Ok(d)
    } else {
        Err(schema_err(format!(
            "hierarchy 'damping' must be in (0, 1], got {d}"
        )))
    }
}

/// An entry of a semi-Markov process's `interval_times`.
pub(crate) fn interval_time_value(x: &JsonValue) -> Result<f64> {
    x.as_f64()
        .filter(|&t| t > 0.0 && t.is_finite())
        .ok_or_else(|| schema_err("'interval_times' entries must be positive numbers"))
}

/// An embedded-chain jump probability of a semi-Markov process.
pub(crate) fn jump_probability_value(p: f64) -> Result<f64> {
    if p > 0.0 && p <= 1.0 {
        Ok(p)
    } else {
        Err(schema_err(format!(
            "transition 'probability' must be in (0, 1], got {p}"
        )))
    }
}

/// An integer field of an uncertainty wrapper.
pub(crate) fn uncertainty_int(x: &JsonValue, key: &str) -> Result<usize> {
    int_value(x, || {
        format!("uncertainty '{key}' must be a non-negative integer")
    })
}

/// An uncertainty wrapper's `samples`.
pub(crate) fn samples_value(x: &JsonValue) -> Result<usize> {
    match uncertainty_int(x, "samples")? {
        0 => Err(schema_err("uncertainty 'samples' must be at least 1")),
        n => Ok(n),
    }
}

/// An uncertainty wrapper's `level`.
pub(crate) fn level_value(l: f64) -> Result<f64> {
    if l > 0.0 && l < 1.0 {
        Ok(l)
    } else {
        Err(schema_err(format!(
            "uncertainty 'level' must be in (0, 1), got {l}"
        )))
    }
}

/// `failures` of the rate posterior at JSON path `path`.
pub(crate) fn failures_value(x: &JsonValue, path: &str) -> Result<u32> {
    x.as_usize()
        .and_then(|f| u32::try_from(f).ok())
        .ok_or_else(|| {
            schema_err(format!(
                "{path}: rate_posterior 'failures' must be a non-negative integer"
            ))
        })
}

/// `total_time` of the rate posterior at JSON path `path`.
pub(crate) fn total_time_value(t: f64, path: &str) -> Result<f64> {
    if t > 0.0 && t.is_finite() {
        Ok(t)
    } else {
        Err(schema_err(format!(
            "{path}: rate_posterior 'total_time' must be positive and \
             finite, got {t}"
        )))
    }
}

/// The probability of a bounds event.
pub(crate) fn event_probability_value(p: f64) -> Result<f64> {
    if (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(schema_err(format!(
            "event 'probability' must be in [0, 1], got {p}"
        )))
    }
}

/// A bounds document's `truncation_order`.
pub(crate) fn truncation_order_value(x: &JsonValue) -> Result<usize> {
    match int_value(x, || {
        "bounds 'truncation_order' must be a non-negative integer".into()
    })? {
        0 => Err(schema_err("bounds 'truncation_order' must be at least 1")),
        o => Ok(o),
    }
}

impl ModelSpec {
    /// Parses a specification from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for malformed JSON or a
    /// document that does not match the schema.
    pub fn from_json_str(text: &str) -> Result<ModelSpec> {
        let v = json::parse(text).map_err(schema_err)?;
        ModelSpec::from_json(&v)
    }

    /// Parses a specification from an already-parsed JSON value.
    ///
    /// # Errors
    ///
    /// See [`ModelSpec::from_json_str`].
    pub fn from_json(v: &JsonValue) -> Result<ModelSpec> {
        let entries = as_obj(v, "model document")?;
        if entries.len() != 1 {
            return Err(schema_err(
                "model document must have exactly one top-level key \
                 (one of 'rbd', 'fault_tree', 'ctmc', 'rel_graph', 'spn', \
                 'hierarchy', 'semi_markov', 'uncertainty', 'bounds')",
            ));
        }
        let (key, payload) = &entries[0];
        match key.as_str() {
            "rbd" => Ok(ModelSpec::Rbd(RbdSpec::from_json(payload)?)),
            "fault_tree" => Ok(ModelSpec::FaultTree(FaultTreeSpec::from_json(payload)?)),
            "ctmc" => Ok(ModelSpec::Ctmc(CtmcSpec::from_json(payload)?)),
            "rel_graph" => Ok(ModelSpec::RelGraph(RelGraphSpec::from_json(payload)?)),
            "spn" => Ok(ModelSpec::Spn(SpnSpec::from_json(payload)?)),
            "hierarchy" => Ok(ModelSpec::Hierarchy(HierarchySpec::from_json(payload)?)),
            "semi_markov" => Ok(ModelSpec::SemiMarkov(SemiMarkovSpec::from_json(payload)?)),
            "uncertainty" => Ok(ModelSpec::Uncertainty(UncertaintySpec::from_json(payload)?)),
            "bounds" => Ok(ModelSpec::Bounds(BoundsSpec::from_json(payload)?)),
            other => Err(schema_err(format!("unknown model class '{other}'"))),
        }
    }

    /// Serializes back to the JSON data model (the inverse of
    /// [`ModelSpec::from_json`]).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        match self {
            ModelSpec::Rbd(r) => json::object(vec![("rbd", r.to_json())]),
            ModelSpec::FaultTree(f) => json::object(vec![("fault_tree", f.to_json())]),
            ModelSpec::Ctmc(c) => json::object(vec![("ctmc", c.to_json())]),
            ModelSpec::RelGraph(g) => json::object(vec![("rel_graph", g.to_json())]),
            ModelSpec::Spn(s) => json::object(vec![("spn", s.to_json())]),
            ModelSpec::Hierarchy(h) => json::object(vec![("hierarchy", h.to_json())]),
            ModelSpec::SemiMarkov(s) => json::object(vec![("semi_markov", s.to_json())]),
            ModelSpec::Uncertainty(u) => json::object(vec![("uncertainty", u.to_json())]),
            ModelSpec::Bounds(b) => json::object(vec![("bounds", b.to_json())]),
        }
    }

    /// Deterministic single-line serialization. Two structurally equal
    /// specs produce equal strings. The batch engine's memo does not
    /// build it: it keys on [`ModelSpec::fingerprint`], confirmed by a
    /// witness.
    #[must_use]
    pub fn canonical_string(&self) -> String {
        self.to_json().to_json()
    }
}

impl RbdSpec {
    fn from_json(v: &JsonValue) -> Result<RbdSpec> {
        check_keys(
            as_obj(v, "rbd")?,
            &["components", "structure", "sim"],
            "rbd",
        )?;
        Ok(RbdSpec {
            components: ItemSpec::list_from_json(v, &RBD)?,
            structure: StructureSpec::from_json(req(v, "structure", "rbd")?, &RBD)?,
            sim: SimSpec::from_json_opt(v.get("sim"))?,
        })
    }

    fn to_json(&self) -> JsonValue {
        let mut entries = vec![
            ("components", ItemSpec::list_to_json(&self.components, &RBD)),
            ("structure", self.structure.to_json(&RBD)),
        ];
        if let Some(sim) = &self.sim {
            entries.push(("sim", sim.to_json()));
        }
        json::object(entries)
    }
}

impl ItemSpec {
    /// The item list under the class's key of the model object `v`.
    fn list_from_json(v: &JsonValue, terms: &Terms) -> Result<Vec<ItemSpec>> {
        req(v, terms.items, terms.class)?
            .as_array()
            .ok_or_else(|| {
                schema_err(format!(
                    "{} '{}' must be an array",
                    terms.class, terms.items
                ))
            })?
            .iter()
            .map(|item| ItemSpec::from_json(item, terms))
            .collect()
    }

    fn from_json(v: &JsonValue, terms: &Terms) -> Result<ItemSpec> {
        let what = terms.item;
        check_keys(
            as_obj(v, what)?,
            &["name", terms.value, "ttf_dist", "ttr_dist"],
            what,
        )?;
        let name = str_field(v, "name", what)?;
        let value = match v.get(terms.value) {
            None | Some(JsonValue::Null) => None,
            Some(x) => Some(
                x.as_f64()
                    .ok_or_else(|| schema_err(format!("'{}' must be a number", terms.value)))?,
            ),
        };
        let ttf_dist = DistSpec::from_json_opt(v.get("ttf_dist"))?;
        let ttr_dist = DistSpec::from_json_opt(v.get("ttr_dist"))?;
        if value.is_none() && ttf_dist.is_none() {
            return Err(schema_err(format!(
                "{what} '{name}' needs {} '{}' or a 'ttf_dist'",
                terms.value_article, terms.value
            )));
        }
        if ttr_dist.is_some() && ttf_dist.is_none() {
            return Err(schema_err(format!(
                "{what} '{name}' has a 'ttr_dist' but no 'ttf_dist'"
            )));
        }
        Ok(ItemSpec {
            name,
            value,
            ttf_dist,
            ttr_dist,
        })
    }

    fn list_to_json(items: &[ItemSpec], terms: &Terms) -> JsonValue {
        JsonValue::Array(items.iter().map(|item| item.to_json(terms)).collect())
    }

    fn to_json(&self, terms: &Terms) -> JsonValue {
        let mut entries = vec![("name", JsonValue::from(self.name.as_str()))];
        if let Some(x) = self.value {
            entries.push((terms.value, x.into()));
        }
        if let Some(d) = &self.ttf_dist {
            entries.push(("ttf_dist", d.to_json()));
        }
        if let Some(d) = &self.ttr_dist {
            entries.push(("ttr_dist", d.to_json()));
        }
        json::object(entries)
    }
}

impl DistSpec {
    fn from_json_opt(v: Option<&JsonValue>) -> Result<Option<DistSpec>> {
        match v {
            None | Some(JsonValue::Null) => Ok(None),
            Some(d) => DistSpec::from_json(d).map(Some),
        }
    }

    fn from_json(v: &JsonValue) -> Result<DistSpec> {
        let entries = as_obj(v, "distribution")?;
        if entries.len() != 1 {
            return Err(schema_err(
                "distribution must be an object with exactly one key (the family, \
                 one of 'exponential', 'weibull', 'lognormal', 'pareto', 'gamma', \
                 'uniform', 'deterministic')",
            ));
        }
        let (key, p) = &entries[0];
        let what = key.as_str();
        match what {
            "exponential" => {
                check_keys(as_obj(p, what)?, &["rate", "mean"], what)?;
                let rate = match (p.get("rate"), p.get("mean")) {
                    (Some(r), None) => r
                        .as_f64()
                        .ok_or_else(|| schema_err("'rate' must be a number"))?,
                    (None, Some(m)) => {
                        let m = m
                            .as_f64()
                            .ok_or_else(|| schema_err("'mean' must be a number"))?;
                        if !(m > 0.0 && m.is_finite()) {
                            return Err(schema_err(format!(
                                "exponential 'mean' must be positive and finite, got {m}"
                            )));
                        }
                        1.0 / m
                    }
                    _ => {
                        return Err(schema_err(
                            "exponential needs exactly one of 'rate' or 'mean'",
                        ))
                    }
                };
                Ok(DistSpec::Exponential { rate })
            }
            "weibull" => {
                check_keys(as_obj(p, what)?, &["shape", "scale"], what)?;
                Ok(DistSpec::Weibull {
                    shape: f64_field(p, "shape", what)?,
                    scale: f64_field(p, "scale", what)?,
                })
            }
            "lognormal" => {
                check_keys(as_obj(p, what)?, &["mu", "sigma", "mean", "cv2"], what)?;
                match (p.get("mu"), p.get("sigma"), p.get("mean"), p.get("cv2")) {
                    (Some(_), Some(_), None, None) => Ok(DistSpec::LogNormal {
                        mu: f64_field(p, "mu", what)?,
                        sigma: f64_field(p, "sigma", what)?,
                    }),
                    (None, None, Some(_), Some(_)) => {
                        let mean = f64_field(p, "mean", what)?;
                        let cv2 = f64_field(p, "cv2", what)?;
                        if !(mean > 0.0 && mean.is_finite() && cv2 > 0.0 && cv2.is_finite()) {
                            return Err(schema_err(format!(
                                "lognormal 'mean' and 'cv2' must be positive and finite, \
                                 got mean {mean}, cv2 {cv2}"
                            )));
                        }
                        let sigma2 = (1.0 + cv2).ln();
                        Ok(DistSpec::LogNormal {
                            mu: mean.ln() - sigma2 / 2.0,
                            sigma: sigma2.sqrt(),
                        })
                    }
                    _ => Err(schema_err(
                        "lognormal needs either 'mu' and 'sigma' or 'mean' and 'cv2'",
                    )),
                }
            }
            "pareto" => {
                check_keys(as_obj(p, what)?, &["shape", "scale"], what)?;
                Ok(DistSpec::Pareto {
                    shape: f64_field(p, "shape", what)?,
                    scale: f64_field(p, "scale", what)?,
                })
            }
            "gamma" => {
                check_keys(as_obj(p, what)?, &["shape", "rate"], what)?;
                Ok(DistSpec::Gamma {
                    shape: f64_field(p, "shape", what)?,
                    rate: f64_field(p, "rate", what)?,
                })
            }
            "uniform" => {
                check_keys(as_obj(p, what)?, &["low", "high"], what)?;
                Ok(DistSpec::Uniform {
                    low: f64_field(p, "low", what)?,
                    high: f64_field(p, "high", what)?,
                })
            }
            "deterministic" => {
                check_keys(as_obj(p, what)?, &["value"], what)?;
                Ok(DistSpec::Deterministic {
                    value: f64_field(p, "value", what)?,
                })
            }
            other => Err(schema_err(format!("unknown distribution family '{other}'"))),
        }
    }

    /// Serializes back to the single-key JSON grammar (always the
    /// canonical parameters).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let (family, fields) = match self {
            DistSpec::Exponential { rate } => ("exponential", vec![("rate", (*rate).into())]),
            DistSpec::Weibull { shape, scale } => (
                "weibull",
                vec![("shape", (*shape).into()), ("scale", (*scale).into())],
            ),
            DistSpec::LogNormal { mu, sigma } => (
                "lognormal",
                vec![("mu", (*mu).into()), ("sigma", (*sigma).into())],
            ),
            DistSpec::Pareto { shape, scale } => (
                "pareto",
                vec![("shape", (*shape).into()), ("scale", (*scale).into())],
            ),
            DistSpec::Gamma { shape, rate } => (
                "gamma",
                vec![("shape", (*shape).into()), ("rate", (*rate).into())],
            ),
            DistSpec::Uniform { low, high } => (
                "uniform",
                vec![("low", (*low).into()), ("high", (*high).into())],
            ),
            DistSpec::Deterministic { value } => {
                ("deterministic", vec![("value", (*value).into())])
            }
        };
        json::object(vec![(family, json::object(fields))])
    }
}

impl SimSpec {
    fn from_json_opt(v: Option<&JsonValue>) -> Result<Option<SimSpec>> {
        match v {
            None | Some(JsonValue::Null) => Ok(None),
            Some(s) => SimSpec::from_json(s).map(Some),
        }
    }

    fn from_json(v: &JsonValue) -> Result<SimSpec> {
        check_keys(
            as_obj(v, "sim")?,
            &[
                "measure",
                "horizon",
                "mission_time",
                "time_cap",
                "seed",
                "jobs",
                "max_replications",
                "min_replications",
                "rel_precision",
                "confidence",
                "batches",
                "warmup_fraction",
            ],
            "sim",
        )?;
        let measure_str = str_field(v, "measure", "sim")?;
        let measure = SimMeasure::parse(&measure_str).ok_or_else(|| {
            schema_err(format!(
                "sim 'measure' must be one of availability, reliability, mttf \
                 (got '{measure_str}')"
            ))
        })?;
        let opt_f64 = |key: &str| -> Result<Option<f64>> {
            match v.get(key) {
                None | Some(JsonValue::Null) => Ok(None),
                Some(x) => {
                    Ok(Some(x.as_f64().ok_or_else(|| {
                        schema_err(format!("sim '{key}' must be a number"))
                    })?))
                }
            }
        };
        let opt_usize = |key: &str| -> Result<Option<usize>> {
            match v.get(key) {
                None | Some(JsonValue::Null) => Ok(None),
                Some(x) => Ok(Some(sim_int(x, key)?)),
            }
        };
        // `jobs` is accepted and ignored: the thread budget governs.
        opt_usize("jobs")?;
        let spec = SimSpec {
            measure,
            horizon: opt_f64("horizon")?,
            mission_time: opt_f64("mission_time")?,
            time_cap: opt_f64("time_cap")?,
            seed: opt_usize("seed")?.map(|s| s as u64),
            max_replications: opt_usize("max_replications")?,
            min_replications: opt_usize("min_replications")?,
            rel_precision: opt_f64("rel_precision")?,
            confidence: opt_f64("confidence")?,
            batches: opt_usize("batches")?,
            warmup_fraction: opt_f64("warmup_fraction")?,
        };
        let (required, present) = match spec.measure {
            SimMeasure::Availability => ("horizon", spec.horizon.is_some()),
            SimMeasure::Reliability => ("mission_time", spec.mission_time.is_some()),
            SimMeasure::Mttf => ("time_cap", spec.time_cap.is_some()),
        };
        if !present {
            return Err(schema_err(format!(
                "sim measure '{}' requires '{required}'",
                spec.measure.as_str()
            )));
        }
        Ok(spec)
    }

    fn to_json(&self) -> JsonValue {
        let mut entries = vec![("measure", JsonValue::from(self.measure.as_str()))];
        let mut num = |key: &'static str, x: Option<f64>| {
            if let Some(x) = x {
                entries.push((key, x.into()));
            }
        };
        num("horizon", self.horizon);
        num("mission_time", self.mission_time);
        num("time_cap", self.time_cap);
        num("seed", self.seed.map(|s| s as f64));
        num("max_replications", self.max_replications.map(|m| m as f64));
        num("min_replications", self.min_replications.map(|m| m as f64));
        num("rel_precision", self.rel_precision);
        num("confidence", self.confidence);
        num("batches", self.batches.map(|b| b as f64));
        num("warmup_fraction", self.warmup_fraction);
        json::object(entries)
    }
}

impl StructureSpec {
    fn from_json(v: &JsonValue, terms: &Terms) -> Result<StructureSpec> {
        if let Some(name) = v.as_str() {
            return Ok(StructureSpec::Item(name.to_owned()));
        }
        let entries = v
            .as_object()
            .ok_or_else(|| schema_err(format!("{} must be {}", terms.node, terms.node_forms)))?;
        if entries.len() != 1 {
            return Err(schema_err(format!(
                "{} object must have exactly one key ('{}', '{}', or 'k_of_n')",
                terms.node, terms.all, terms.any
            )));
        }
        let (key, payload) = &entries[0];
        let members = |p: &JsonValue, what: &str| -> Result<Vec<StructureSpec>> {
            p.as_array()
                .ok_or_else(|| schema_err(format!("'{what}' must be an array")))?
                .iter()
                .map(|m| StructureSpec::from_json(m, terms))
                .collect()
        };
        match key.as_str() {
            k if k == terms.all => Ok(StructureSpec::All(members(payload, k)?)),
            k if k == terms.any => Ok(StructureSpec::Any(members(payload, k)?)),
            "k_of_n" => {
                check_keys(as_obj(payload, "k_of_n")?, &["k", "of"], "k_of_n")?;
                let k = k_value(req(payload, "k", "k_of_n")?)?;
                Ok(StructureSpec::KOfN {
                    k,
                    of: members(req(payload, "of", "k_of_n")?, "of")?,
                })
            }
            other => Err(schema_err(format!(
                "unknown {} '{other}'",
                terms.combinator
            ))),
        }
    }

    fn to_json(&self, terms: &Terms) -> JsonValue {
        let members =
            |m: &[StructureSpec]| JsonValue::Array(m.iter().map(|x| x.to_json(terms)).collect());
        match self {
            StructureSpec::Item(name) => name.as_str().into(),
            StructureSpec::All(m) => json::object(vec![(terms.all, members(m))]),
            StructureSpec::Any(m) => json::object(vec![(terms.any, members(m))]),
            StructureSpec::KOfN { k, of } => json::object(vec![(
                "k_of_n",
                json::object(vec![
                    ("k", JsonValue::Number(*k as f64)),
                    ("of", members(of)),
                ]),
            )]),
        }
    }
}

impl FaultTreeSpec {
    fn from_json(v: &JsonValue) -> Result<FaultTreeSpec> {
        check_keys(
            as_obj(v, "fault_tree")?,
            &["events", "top", "max_cut_sets", "var_order", "sim"],
            "fault_tree",
        )?;
        let events = ItemSpec::list_from_json(v, &FAULT_TREE)?;
        let top = StructureSpec::from_json(req(v, "top", "fault_tree")?, &FAULT_TREE)?;
        let max_cut_sets = match v.get("max_cut_sets") {
            None | Some(JsonValue::Null) => None,
            Some(m) => Some(max_cut_sets_value(m)?),
        };
        let var_order = match v.get("var_order") {
            None | Some(JsonValue::Null) => None,
            Some(o) => {
                let s = o
                    .as_str()
                    .ok_or_else(|| schema_err("'var_order' must be a string"))?;
                Some(crate::report::VarOrder::parse(s).ok_or_else(|| {
                    schema_err(format!(
                        "'var_order' must be one of auto, input, dfs, weighted, sift (got '{s}')"
                    ))
                })?)
            }
        };
        Ok(FaultTreeSpec {
            events,
            top,
            max_cut_sets,
            var_order,
            sim: SimSpec::from_json_opt(v.get("sim"))?,
        })
    }

    fn to_json(&self) -> JsonValue {
        let mut entries = vec![
            ("events", ItemSpec::list_to_json(&self.events, &FAULT_TREE)),
            ("top", self.top.to_json(&FAULT_TREE)),
        ];
        if let Some(m) = self.max_cut_sets {
            entries.push(("max_cut_sets", JsonValue::Number(m as f64)));
        }
        if let Some(o) = self.var_order {
            entries.push(("var_order", JsonValue::from(o.as_str())));
        }
        if let Some(sim) = &self.sim {
            entries.push(("sim", sim.to_json()));
        }
        json::object(entries)
    }
}

impl CtmcSpec {
    fn from_json(v: &JsonValue) -> Result<CtmcSpec> {
        check_keys(
            as_obj(v, "ctmc")?,
            &[
                "states",
                "transitions",
                "initial",
                "up_states",
                "absorbing",
                "at_times",
            ],
            "ctmc",
        )?;
        let states = string_list(req(v, "states", "ctmc")?, "ctmc 'states'")?;
        let transitions = req(v, "transitions", "ctmc")?
            .as_array()
            .ok_or_else(|| schema_err("ctmc 'transitions' must be an array"))?
            .iter()
            .map(TransitionSpec::from_json)
            .collect::<Result<_>>()?;
        let initial = match v.get("initial") {
            None | Some(JsonValue::Null) => None,
            Some(i) => Some(
                i.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| schema_err("'initial' must be a state name"))?,
            ),
        };
        let optional_names = |key: &str| -> Result<Option<Vec<String>>> {
            match v.get(key) {
                None | Some(JsonValue::Null) => Ok(None),
                Some(list) => Ok(Some(string_list(list, key)?)),
            }
        };
        let at_times = match v.get("at_times") {
            None | Some(JsonValue::Null) => None,
            Some(list) => Some(
                list.as_array()
                    .ok_or_else(|| schema_err("'at_times' must be an array"))?
                    .iter()
                    .map(|t| {
                        t.as_f64()
                            .ok_or_else(|| schema_err("'at_times' entries must be numbers"))
                    })
                    .collect::<Result<Vec<f64>>>()?,
            ),
        };
        Ok(CtmcSpec {
            states,
            transitions,
            initial,
            up_states: optional_names("up_states")?,
            absorbing: optional_names("absorbing")?,
            at_times,
        })
    }

    fn to_json(&self) -> JsonValue {
        let mut entries = vec![
            ("states", json::string_array(&self.states)),
            (
                "transitions",
                JsonValue::Array(
                    self.transitions
                        .iter()
                        .map(TransitionSpec::to_json)
                        .collect(),
                ),
            ),
        ];
        if let Some(i) = &self.initial {
            entries.push(("initial", i.as_str().into()));
        }
        if let Some(up) = &self.up_states {
            entries.push(("up_states", json::string_array(up)));
        }
        if let Some(a) = &self.absorbing {
            entries.push(("absorbing", json::string_array(a)));
        }
        if let Some(times) = &self.at_times {
            entries.push((
                "at_times",
                JsonValue::Array(times.iter().map(|&t| t.into()).collect()),
            ));
        }
        json::object(entries)
    }
}

impl TransitionSpec {
    fn from_json(v: &JsonValue) -> Result<TransitionSpec> {
        check_keys(
            as_obj(v, "transition")?,
            &["from", "to", "rate"],
            "transition",
        )?;
        Ok(TransitionSpec {
            from: str_field(v, "from", "transition")?,
            to: str_field(v, "to", "transition")?,
            rate: f64_field(v, "rate", "transition")?,
        })
    }

    fn to_json(&self) -> JsonValue {
        json::object(vec![
            ("from", self.from.as_str().into()),
            ("to", self.to.as_str().into()),
            ("rate", self.rate.into()),
        ])
    }
}

impl RelGraphSpec {
    fn from_json(v: &JsonValue) -> Result<RelGraphSpec> {
        check_keys(
            as_obj(v, "rel_graph")?,
            &["nodes", "edges", "source", "sink", "all_terminal"],
            "rel_graph",
        )?;
        let edges = req(v, "edges", "rel_graph")?
            .as_array()
            .ok_or_else(|| schema_err("rel_graph 'edges' must be an array"))?
            .iter()
            .map(EdgeSpec::from_json)
            .collect::<Result<_>>()?;
        let all_terminal = match v.get("all_terminal") {
            None | Some(JsonValue::Null) => false,
            Some(b) => b
                .as_bool()
                .ok_or_else(|| schema_err("'all_terminal' must be a boolean"))?,
        };
        Ok(RelGraphSpec {
            nodes: string_list(req(v, "nodes", "rel_graph")?, "rel_graph 'nodes'")?,
            edges,
            source: str_field(v, "source", "rel_graph")?,
            sink: str_field(v, "sink", "rel_graph")?,
            all_terminal,
        })
    }

    fn to_json(&self) -> JsonValue {
        json::object(vec![
            ("nodes", json::string_array(&self.nodes)),
            (
                "edges",
                JsonValue::Array(self.edges.iter().map(EdgeSpec::to_json).collect()),
            ),
            ("source", self.source.as_str().into()),
            ("sink", self.sink.as_str().into()),
            ("all_terminal", self.all_terminal.into()),
        ])
    }
}

impl EdgeSpec {
    fn from_json(v: &JsonValue) -> Result<EdgeSpec> {
        check_keys(
            as_obj(v, "edge")?,
            &["name", "from", "to", "reliability", "directed"],
            "edge",
        )?;
        let directed = match v.get("directed") {
            None | Some(JsonValue::Null) => false,
            Some(b) => b
                .as_bool()
                .ok_or_else(|| schema_err("'directed' must be a boolean"))?,
        };
        Ok(EdgeSpec {
            name: str_field(v, "name", "edge")?,
            from: str_field(v, "from", "edge")?,
            to: str_field(v, "to", "edge")?,
            reliability: f64_field(v, "reliability", "edge")?,
            directed,
        })
    }

    fn to_json(&self) -> JsonValue {
        json::object(vec![
            ("name", self.name.as_str().into()),
            ("from", self.from.as_str().into()),
            ("to", self.to.as_str().into()),
            ("reliability", self.reliability.into()),
            ("directed", self.directed.into()),
        ])
    }
}

impl SpnSpec {
    fn from_json(v: &JsonValue) -> Result<SpnSpec> {
        check_keys(
            as_obj(v, "spn")?,
            &[
                "places",
                "transitions",
                "max_markings",
                "reach_jobs",
                "shard_bits",
                "expected_tokens",
                "throughput",
                "solver",
            ],
            "spn",
        )?;
        let places = req(v, "places", "spn")?
            .as_array()
            .ok_or_else(|| schema_err("spn 'places' must be an array"))?
            .iter()
            .map(PlaceSpec::from_json)
            .collect::<Result<_>>()?;
        let transitions = req(v, "transitions", "spn")?
            .as_array()
            .ok_or_else(|| schema_err("spn 'transitions' must be an array"))?
            .iter()
            .map(SpnTransitionSpec::from_json)
            .collect::<Result<_>>()?;
        let opt_usize = |key: &str| -> Result<Option<usize>> {
            match v.get(key) {
                None | Some(JsonValue::Null) => Ok(None),
                Some(m) => Ok(Some(spn_int(m, key)?)),
            }
        };
        // Thread keys of older documents: checked, then ignored.
        opt_usize("reach_jobs")?;
        if let Some(b) = v.get("shard_bits").filter(|b| **b != JsonValue::Null) {
            shard_bits_value(b)?;
        }
        let optional_names = |key: &str| -> Result<Option<Vec<String>>> {
            match v.get(key) {
                None | Some(JsonValue::Null) => Ok(None),
                Some(list) => Ok(Some(string_list(list, key)?)),
            }
        };
        // The solver-tier key of older documents: checked, then ignored.
        if let Some(s) = v.get("solver").filter(|s| **s != JsonValue::Null) {
            let s = s
                .as_str()
                .ok_or_else(|| schema_err("'solver' must be a string"))?;
            if !matches!(s, "materialized" | "csr" | "stream") {
                return Err(schema_err(format!(
                    "'solver' must be one of materialized, stream (got '{s}')"
                )));
            }
        }
        Ok(SpnSpec {
            places,
            transitions,
            max_markings: opt_usize("max_markings")?,
            expected_tokens: optional_names("expected_tokens")?,
            throughput: optional_names("throughput")?,
        })
    }

    fn to_json(&self) -> JsonValue {
        let mut entries = vec![
            (
                "places",
                JsonValue::Array(self.places.iter().map(PlaceSpec::to_json).collect()),
            ),
            (
                "transitions",
                JsonValue::Array(
                    self.transitions
                        .iter()
                        .map(SpnTransitionSpec::to_json)
                        .collect(),
                ),
            ),
        ];
        if let Some(m) = self.max_markings {
            entries.push(("max_markings", JsonValue::Number(m as f64)));
        }
        if let Some(p) = &self.expected_tokens {
            entries.push(("expected_tokens", json::string_array(p)));
        }
        if let Some(t) = &self.throughput {
            entries.push(("throughput", json::string_array(t)));
        }
        json::object(entries)
    }
}

impl PlaceSpec {
    fn from_json(v: &JsonValue) -> Result<PlaceSpec> {
        check_keys(as_obj(v, "place")?, &["name", "tokens"], "place")?;
        let tokens = match v.get("tokens") {
            None | Some(JsonValue::Null) => 0,
            Some(t) => u32_value(t, "tokens")?,
        };
        Ok(PlaceSpec {
            name: str_field(v, "name", "place")?,
            tokens,
        })
    }

    fn to_json(&self) -> JsonValue {
        json::object(vec![
            ("name", self.name.as_str().into()),
            ("tokens", JsonValue::Number(f64::from(self.tokens))),
        ])
    }
}

impl SpnTransitionSpec {
    fn from_json(v: &JsonValue) -> Result<SpnTransitionSpec> {
        check_keys(
            as_obj(v, "spn transition")?,
            &[
                "name",
                "rate",
                "weight",
                "priority",
                "inputs",
                "outputs",
                "inhibitors",
            ],
            "spn transition",
        )?;
        let name = str_field(v, "name", "spn transition")?;
        let timing = match (v.get("rate"), v.get("weight")) {
            (Some(r), None) => {
                if v.get("priority").is_some() {
                    return Err(schema_err(format!(
                        "timed transition '{name}' cannot have a 'priority'"
                    )));
                }
                SpnTimingSpec::Timed {
                    rate: r
                        .as_f64()
                        .ok_or_else(|| schema_err("'rate' must be a number"))?,
                }
            }
            (None, Some(w)) => {
                let priority = match v.get("priority") {
                    None | Some(JsonValue::Null) => 0,
                    Some(p) => u32_value(p, "priority")?,
                };
                SpnTimingSpec::Immediate {
                    weight: w
                        .as_f64()
                        .ok_or_else(|| schema_err("'weight' must be a number"))?,
                    priority,
                }
            }
            _ => {
                return Err(schema_err(format!(
                    "transition '{name}' must have exactly one of 'rate' (timed) or \
                     'weight' (immediate)"
                )));
            }
        };
        let arcs = |key: &str| -> Result<Vec<ArcSpec>> {
            match v.get(key) {
                None | Some(JsonValue::Null) => Ok(Vec::new()),
                Some(list) => list
                    .as_array()
                    .ok_or_else(|| schema_err(format!("'{key}' must be an array")))?
                    .iter()
                    .map(ArcSpec::from_json)
                    .collect(),
            }
        };
        Ok(SpnTransitionSpec {
            name,
            timing,
            inputs: arcs("inputs")?,
            outputs: arcs("outputs")?,
            inhibitors: arcs("inhibitors")?,
        })
    }

    fn to_json(&self) -> JsonValue {
        let mut entries = vec![("name", JsonValue::from(self.name.as_str()))];
        match &self.timing {
            SpnTimingSpec::Timed { rate } => entries.push(("rate", (*rate).into())),
            SpnTimingSpec::Immediate { weight, priority } => {
                entries.push(("weight", (*weight).into()));
                entries.push(("priority", JsonValue::Number(f64::from(*priority))));
            }
        }
        for (key, arcs) in [
            ("inputs", &self.inputs),
            ("outputs", &self.outputs),
            ("inhibitors", &self.inhibitors),
        ] {
            if !arcs.is_empty() {
                entries.push((
                    key,
                    JsonValue::Array(arcs.iter().map(ArcSpec::to_json).collect()),
                ));
            }
        }
        json::object(entries)
    }
}

impl ArcSpec {
    fn from_json(v: &JsonValue) -> Result<ArcSpec> {
        check_keys(as_obj(v, "arc")?, &["place", "count"], "arc")?;
        let count = match v.get("count") {
            None | Some(JsonValue::Null) => 1,
            Some(c) => u32_value(c, "count")?,
        };
        Ok(ArcSpec {
            place: str_field(v, "place", "arc")?,
            count,
        })
    }

    fn to_json(&self) -> JsonValue {
        json::object(vec![
            ("place", self.place.as_str().into()),
            ("count", JsonValue::Number(f64::from(self.count))),
        ])
    }
}

/// Parses a distribution nested inside a scenario document, qualifying
/// any schema error with the dotted JSON path of the offending field so
/// a bad sojourn or prior is locatable in a large document.
fn dist_at(v: &JsonValue, path: &str) -> Result<DistSpec> {
    DistSpec::from_json(v).map_err(|e| match e {
        Error::InvalidParameter(msg) => {
            let tail = msg
                .strip_prefix("specification does not match schema: ")
                .unwrap_or(&msg)
                .to_owned();
            schema_err(format!("{path}: {tail}"))
        }
        other => other,
    })
}

/// JSON path of the prior of uncertainty parameter `index`, which
/// qualifies that prior's errors.
pub(crate) fn prior_path(index: usize) -> String {
    format!("uncertainty.parameters.{index}.prior")
}

fn scenario_measure(v: &JsonValue, what: &str) -> Result<ScenarioMeasure> {
    match v.get("measure") {
        None | Some(JsonValue::Null) => Ok(ScenarioMeasure::Primary),
        Some(m) => {
            let s = m
                .as_str()
                .ok_or_else(|| schema_err(format!("{what} 'measure' must be a string")))?;
            ScenarioMeasure::parse(s).ok_or_else(|| {
                schema_err(format!(
                    "{what} 'measure' must be one of availability, unreliability, \
                     mttf, primary (got '{s}')"
                ))
            })
        }
    }
}

/// Resolves `path`, a dotted path into `model`'s canonical document, to
/// the slot of the number it names. Only a rejected path pays for the
/// canonical document, to tell the two errors apart.
fn resolve_slot(model: &ModelSpec, path: &str, what: &str) -> Result<Slot> {
    Slot::resolve(model, path).ok_or_else(|| match json::get_path(&model.to_json(), path) {
        Some(_) => schema_err(format!(
            "{what} path '{path}' does not resolve to a number \
             (note: paths are relative to the canonical document, \
             e.g. a normalized 'mean' becomes 'rate')"
        )),
        None => schema_err(format!(
            "{what} path '{path}' does not resolve in the model document"
        )),
    })
}

impl HierarchySpec {
    fn from_json(v: &JsonValue) -> Result<HierarchySpec> {
        check_keys(
            as_obj(v, "hierarchy")?,
            &[
                "submodels",
                "output",
                "tolerance",
                "max_iterations",
                "damping",
                "jobs",
            ],
            "hierarchy",
        )?;
        let parsed: Vec<(SubmodelSpec, Vec<(String, String)>)> = req(v, "submodels", "hierarchy")?
            .as_array()
            .ok_or_else(|| schema_err("hierarchy 'submodels' must be an array"))?
            .iter()
            .map(SubmodelSpec::from_json)
            .collect::<Result<_>>()?;
        if parsed.is_empty() {
            return Err(schema_err("hierarchy needs at least one submodel"));
        }
        let mut names: Vec<String> = Vec::with_capacity(parsed.len());
        for (sub, _) in &parsed {
            if names.contains(&sub.name) {
                return Err(schema_err(format!(
                    "duplicate submodel name '{}'",
                    sub.name
                )));
            }
            names.push(sub.name.clone());
        }
        let mut submodels = Vec::with_capacity(parsed.len());
        for (mut sub, imports) in parsed {
            for (from, path) in imports {
                if !names.contains(&from) {
                    return Err(schema_err(format!(
                        "submodel '{}' imports from unknown submodel '{from}'",
                        sub.name
                    )));
                }
                let slot = resolve_slot(
                    &sub.model,
                    &path,
                    &format!("submodel '{}' import", sub.name),
                )?;
                sub.imports.push(ImportSpec { from, path, slot });
            }
            submodels.push(sub);
        }
        let output = match v.get("output") {
            None | Some(JsonValue::Null) => None,
            Some(o) => {
                let o = o
                    .as_str()
                    .ok_or_else(|| schema_err("hierarchy 'output' must be a submodel name"))?;
                if !names.iter().any(|n| n == o) {
                    return Err(schema_err(format!(
                        "hierarchy 'output' references unknown submodel '{o}'"
                    )));
                }
                Some(o.to_owned())
            }
        };
        let opt_f64 = |key: &str| -> Result<Option<f64>> {
            match v.get(key) {
                None | Some(JsonValue::Null) => Ok(None),
                Some(x) => Ok(Some(x.as_f64().ok_or_else(|| {
                    schema_err(format!("hierarchy '{key}' must be a number"))
                })?)),
            }
        };
        let tolerance = opt_f64("tolerance")?.map(tolerance_value).transpose()?;
        let damping = opt_f64("damping")?.map(damping_value).transpose()?;
        let max_iterations = match v.get("max_iterations") {
            None | Some(JsonValue::Null) => None,
            Some(x) => Some(max_iterations_value(x)?),
        };
        // `jobs` is accepted and ignored: the thread budget governs.
        if let Some(x) = v.get("jobs").filter(|x| **x != JsonValue::Null) {
            hierarchy_int(x, "jobs")?;
        }
        Ok(HierarchySpec {
            submodels,
            output,
            tolerance,
            max_iterations,
            damping,
        })
    }

    fn to_json(&self) -> JsonValue {
        let mut entries = vec![(
            "submodels",
            JsonValue::Array(self.submodels.iter().map(SubmodelSpec::to_json).collect()),
        )];
        if let Some(o) = &self.output {
            entries.push(("output", o.as_str().into()));
        }
        if let Some(t) = self.tolerance {
            entries.push(("tolerance", t.into()));
        }
        if let Some(m) = self.max_iterations {
            entries.push(("max_iterations", (m as f64).into()));
        }
        if let Some(d) = self.damping {
            entries.push(("damping", d.into()));
        }
        json::object(entries)
    }
}

impl SubmodelSpec {
    /// Parses a submodel; its imports come back as `(from, path)` pairs,
    /// bound once every submodel is known.
    fn from_json(v: &JsonValue) -> Result<(SubmodelSpec, Vec<(String, String)>)> {
        check_keys(
            as_obj(v, "submodel")?,
            &["name", "model", "measure", "initial", "imports"],
            "submodel",
        )?;
        let name = str_field(v, "name", "submodel")?;
        let model = ModelSpec::from_json(req(v, "model", "submodel")?)?;
        let initial = match v.get("initial") {
            None | Some(JsonValue::Null) => None,
            Some(x) => Some(
                x.as_f64()
                    .ok_or_else(|| schema_err("submodel 'initial' must be a number"))?,
            ),
        };
        let imports = match v.get("imports") {
            None | Some(JsonValue::Null) => Vec::new(),
            Some(list) => list
                .as_array()
                .ok_or_else(|| schema_err("submodel 'imports' must be an array"))?
                .iter()
                .map(ImportSpec::from_json)
                .collect::<Result<_>>()?,
        };
        let sub = SubmodelSpec {
            name,
            model: Box::new(model),
            measure: scenario_measure(v, "submodel")?,
            initial,
            imports: Vec::with_capacity(imports.len()),
        };
        Ok((sub, imports))
    }

    fn to_json(&self) -> JsonValue {
        let mut entries = vec![
            ("name", self.name.as_str().into()),
            ("model", self.model.to_json()),
        ];
        if self.measure != ScenarioMeasure::Primary {
            entries.push(("measure", self.measure.as_str().into()));
        }
        if let Some(i) = self.initial {
            entries.push(("initial", i.into()));
        }
        if !self.imports.is_empty() {
            entries.push((
                "imports",
                JsonValue::Array(self.imports.iter().map(ImportSpec::to_json).collect()),
            ));
        }
        json::object(entries)
    }
}

impl ImportSpec {
    /// Parses an import's `(from, path)`.
    fn from_json(v: &JsonValue) -> Result<(String, String)> {
        check_keys(as_obj(v, "import")?, &["from", "path"], "import")?;
        Ok((
            str_field(v, "from", "import")?,
            str_field(v, "path", "import")?,
        ))
    }

    fn to_json(&self) -> JsonValue {
        json::object(vec![
            ("from", self.from.as_str().into()),
            ("path", self.path.as_str().into()),
        ])
    }
}

impl SemiMarkovSpec {
    fn from_json(v: &JsonValue) -> Result<SemiMarkovSpec> {
        check_keys(
            as_obj(v, "semi_markov")?,
            &[
                "states",
                "transitions",
                "initial",
                "up_states",
                "targets",
                "interval_times",
            ],
            "semi_markov",
        )?;
        let states: Vec<SmpStateSpec> = req(v, "states", "semi_markov")?
            .as_array()
            .ok_or_else(|| schema_err("semi_markov 'states' must be an array"))?
            .iter()
            .enumerate()
            .map(|(i, s)| SmpStateSpec::from_json(s, i))
            .collect::<Result<_>>()?;
        if states.is_empty() {
            return Err(schema_err("semi_markov needs at least one state"));
        }
        let mut names: Vec<String> = Vec::with_capacity(states.len());
        for s in &states {
            if names.contains(&s.name) {
                return Err(schema_err(format!(
                    "duplicate semi_markov state '{}'",
                    s.name
                )));
            }
            names.push(s.name.clone());
        }
        let known = |n: &str, what: &str| -> Result<()> {
            if names.iter().any(|x| x == n) {
                Ok(())
            } else {
                Err(schema_err(format!("{what} references unknown state '{n}'")))
            }
        };
        let transitions: Vec<SmpTransitionSpec> = req(v, "transitions", "semi_markov")?
            .as_array()
            .ok_or_else(|| schema_err("semi_markov 'transitions' must be an array"))?
            .iter()
            .map(SmpTransitionSpec::from_json)
            .collect::<Result<_>>()?;
        for t in &transitions {
            known(&t.from, "semi_markov transition")?;
            known(&t.to, "semi_markov transition")?;
            if t.from == t.to {
                return Err(schema_err(format!(
                    "semi_markov self-loop on '{}': fold it into the sojourn \
                     distribution instead",
                    t.from
                )));
            }
        }
        let initial = match v.get("initial") {
            None | Some(JsonValue::Null) => None,
            Some(i) => {
                let i = i
                    .as_str()
                    .ok_or_else(|| schema_err("semi_markov 'initial' must be a state name"))?;
                known(i, "semi_markov 'initial'")?;
                Some(i.to_owned())
            }
        };
        let optional_names = |key: &str| -> Result<Option<Vec<String>>> {
            match v.get(key) {
                None | Some(JsonValue::Null) => Ok(None),
                Some(list) => {
                    let list = string_list(list, key)?;
                    for n in &list {
                        known(n, &format!("semi_markov '{key}'"))?;
                    }
                    Ok(Some(list))
                }
            }
        };
        let interval_times = match v.get("interval_times") {
            None | Some(JsonValue::Null) => None,
            Some(list) => Some(
                list.as_array()
                    .ok_or_else(|| schema_err("'interval_times' must be an array"))?
                    .iter()
                    .map(interval_time_value)
                    .collect::<Result<Vec<f64>>>()?,
            ),
        };
        Ok(SemiMarkovSpec {
            states,
            transitions,
            initial,
            up_states: optional_names("up_states")?,
            targets: optional_names("targets")?,
            interval_times,
        })
    }

    fn to_json(&self) -> JsonValue {
        let mut entries = vec![
            (
                "states",
                JsonValue::Array(self.states.iter().map(SmpStateSpec::to_json).collect()),
            ),
            (
                "transitions",
                JsonValue::Array(
                    self.transitions
                        .iter()
                        .map(SmpTransitionSpec::to_json)
                        .collect(),
                ),
            ),
        ];
        if let Some(i) = &self.initial {
            entries.push(("initial", i.as_str().into()));
        }
        if let Some(up) = &self.up_states {
            entries.push(("up_states", json::string_array(up)));
        }
        if let Some(t) = &self.targets {
            entries.push(("targets", json::string_array(t)));
        }
        if let Some(times) = &self.interval_times {
            entries.push((
                "interval_times",
                JsonValue::Array(times.iter().map(|&t| t.into()).collect()),
            ));
        }
        json::object(entries)
    }
}

impl SmpStateSpec {
    fn from_json(v: &JsonValue, index: usize) -> Result<SmpStateSpec> {
        check_keys(as_obj(v, "state")?, &["name", "sojourn"], "state")?;
        Ok(SmpStateSpec {
            name: str_field(v, "name", "state")?,
            sojourn: dist_at(
                req(v, "sojourn", "state")?,
                &format!("semi_markov.states.{index}.sojourn"),
            )?,
        })
    }

    fn to_json(&self) -> JsonValue {
        json::object(vec![
            ("name", self.name.as_str().into()),
            ("sojourn", self.sojourn.to_json()),
        ])
    }
}

impl SmpTransitionSpec {
    fn from_json(v: &JsonValue) -> Result<SmpTransitionSpec> {
        check_keys(
            as_obj(v, "transition")?,
            &["from", "to", "probability"],
            "transition",
        )?;
        let probability = jump_probability_value(f64_field(v, "probability", "transition")?)?;
        Ok(SmpTransitionSpec {
            from: str_field(v, "from", "transition")?,
            to: str_field(v, "to", "transition")?,
            probability,
        })
    }

    fn to_json(&self) -> JsonValue {
        json::object(vec![
            ("from", self.from.as_str().into()),
            ("to", self.to.as_str().into()),
            ("probability", self.probability.into()),
        ])
    }
}

impl UncertaintySpec {
    fn from_json(v: &JsonValue) -> Result<UncertaintySpec> {
        check_keys(
            as_obj(v, "uncertainty")?,
            &[
                "model",
                "parameters",
                "measure",
                "samples",
                "level",
                "seed",
                "jobs",
                "latin_hypercube",
            ],
            "uncertainty",
        )?;
        let model = ModelSpec::from_json(req(v, "model", "uncertainty")?)?;
        let parsed: Vec<(String, PriorSpec)> = req(v, "parameters", "uncertainty")?
            .as_array()
            .ok_or_else(|| schema_err("uncertainty 'parameters' must be an array"))?
            .iter()
            .enumerate()
            .map(|(i, p)| UncertainParamSpec::from_json(p, i))
            .collect::<Result<_>>()?;
        if parsed.is_empty() {
            return Err(schema_err("uncertainty needs at least one parameter"));
        }
        let parameters = parsed
            .into_iter()
            .map(|(path, prior)| {
                let slot = resolve_slot(&model, &path, "uncertainty parameter")?;
                Ok(UncertainParamSpec { path, prior, slot })
            })
            .collect::<Result<Vec<_>>>()?;
        let opt_usize = |key: &str| -> Result<Option<usize>> {
            match v.get(key) {
                None | Some(JsonValue::Null) => Ok(None),
                Some(x) => Ok(Some(uncertainty_int(x, key)?)),
            }
        };
        let samples = match v.get("samples") {
            None | Some(JsonValue::Null) => None,
            Some(x) => Some(samples_value(x)?),
        };
        let level = match v.get("level") {
            None | Some(JsonValue::Null) => None,
            Some(x) => {
                Some(level_value(x.as_f64().ok_or_else(|| {
                    schema_err("uncertainty 'level' must be a number")
                })?)?)
            }
        };
        // `jobs` is accepted and ignored: the thread budget governs.
        opt_usize("jobs")?;
        let latin_hypercube = match v.get("latin_hypercube") {
            None | Some(JsonValue::Null) => false,
            Some(b) => b
                .as_bool()
                .ok_or_else(|| schema_err("uncertainty 'latin_hypercube' must be a boolean"))?,
        };
        Ok(UncertaintySpec {
            model: Box::new(model),
            parameters,
            measure: scenario_measure(v, "uncertainty")?,
            samples,
            level,
            seed: opt_usize("seed")?.map(|s| s as u64),
            latin_hypercube,
        })
    }

    fn to_json(&self) -> JsonValue {
        let mut entries = vec![
            ("model", self.model.to_json()),
            (
                "parameters",
                JsonValue::Array(
                    self.parameters
                        .iter()
                        .map(UncertainParamSpec::to_json)
                        .collect(),
                ),
            ),
        ];
        if self.measure != ScenarioMeasure::Primary {
            entries.push(("measure", self.measure.as_str().into()));
        }
        if let Some(s) = self.samples {
            entries.push(("samples", (s as f64).into()));
        }
        if let Some(l) = self.level {
            entries.push(("level", l.into()));
        }
        if let Some(s) = self.seed {
            entries.push(("seed", (s as f64).into()));
        }
        if self.latin_hypercube {
            entries.push(("latin_hypercube", true.into()));
        }
        json::object(entries)
    }
}

impl UncertainParamSpec {
    /// Parses a parameter's `(path, prior)`; the path is bound once the
    /// inner model is known.
    fn from_json(v: &JsonValue, index: usize) -> Result<(String, PriorSpec)> {
        check_keys(as_obj(v, "parameter")?, &["path", "prior"], "parameter")?;
        let path = str_field(v, "path", "parameter")?;
        let prior_json = req(v, "prior", "parameter")?;
        let prior = PriorSpec::from_json(prior_json, &prior_path(index))?;
        Ok((path, prior))
    }

    fn to_json(&self) -> JsonValue {
        json::object(vec![
            ("path", self.path.as_str().into()),
            ("prior", self.prior.to_json()),
        ])
    }
}

impl PriorSpec {
    fn from_json(v: &JsonValue, path: &str) -> Result<PriorSpec> {
        let entries = as_obj(v, "prior")?;
        if entries.len() == 1 && entries[0].0 == "rate_posterior" {
            let p = &entries[0].1;
            check_keys(
                as_obj(p, "rate_posterior")?,
                &["failures", "total_time"],
                "rate_posterior",
            )?;
            let failures = failures_value(req(p, "failures", "rate_posterior")?, path)?;
            let total_time = total_time_value(f64_field(p, "total_time", "rate_posterior")?, path)?;
            return Ok(PriorSpec::Posterior {
                failures,
                total_time,
            });
        }
        dist_at(v, path).map(PriorSpec::Dist)
    }

    fn to_json(&self) -> JsonValue {
        match self {
            PriorSpec::Dist(d) => d.to_json(),
            PriorSpec::Posterior {
                failures,
                total_time,
            } => json::object(vec![(
                "rate_posterior",
                json::object(vec![
                    ("failures", f64::from(*failures).into()),
                    ("total_time", (*total_time).into()),
                ]),
            )]),
        }
    }
}

impl BoundsSpec {
    fn from_json(v: &JsonValue) -> Result<BoundsSpec> {
        check_keys(
            as_obj(v, "bounds")?,
            &[
                "events",
                "cut_sets",
                "path_sets",
                "fault_tree",
                "truncation_order",
            ],
            "bounds",
        )?;
        let name_sets = |key: &str| -> Result<Option<Vec<Vec<String>>>> {
            match v.get(key) {
                None | Some(JsonValue::Null) => Ok(None),
                Some(list) => {
                    let sets = list
                        .as_array()
                        .ok_or_else(|| {
                            schema_err(format!("bounds '{key}' must be an array of arrays"))
                        })?
                        .iter()
                        .map(|set| string_list(set, &format!("bounds '{key}' entry")))
                        .collect::<Result<Vec<Vec<String>>>>()?;
                    for set in &sets {
                        if set.is_empty() {
                            return Err(schema_err(format!(
                                "bounds '{key}' entries must be non-empty"
                            )));
                        }
                    }
                    Ok(Some(sets))
                }
            }
        };
        let fault_tree = match v.get("fault_tree") {
            None | Some(JsonValue::Null) => None,
            Some(ft) => Some(Box::new(FaultTreeSpec::from_json(ft)?)),
        };
        let events: Vec<BoundsEventSpec> = match v.get("events") {
            None | Some(JsonValue::Null) => Vec::new(),
            Some(list) => list
                .as_array()
                .ok_or_else(|| schema_err("bounds 'events' must be an array"))?
                .iter()
                .map(BoundsEventSpec::from_json)
                .collect::<Result<_>>()?,
        };
        let cut_sets = name_sets("cut_sets")?.unwrap_or_default();
        let path_sets = name_sets("path_sets")?;
        if fault_tree.is_some() {
            if !events.is_empty() || !cut_sets.is_empty() || path_sets.is_some() {
                return Err(schema_err(
                    "bounds 'fault_tree' is mutually exclusive with \
                     'events'/'cut_sets'/'path_sets'",
                ));
            }
        } else {
            if events.is_empty() {
                return Err(schema_err(
                    "bounds needs 'events' and 'cut_sets' (or a 'fault_tree')",
                ));
            }
            if cut_sets.is_empty() {
                return Err(schema_err("bounds needs at least one cut set"));
            }
            let mut names: Vec<&str> = Vec::with_capacity(events.len());
            for e in &events {
                if names.contains(&e.name.as_str()) {
                    return Err(schema_err(format!("duplicate bounds event '{}'", e.name)));
                }
                names.push(&e.name);
            }
            let check_sets = |sets: &[Vec<String>], key: &str| -> Result<()> {
                for set in sets {
                    for n in set {
                        if !names.contains(&n.as_str()) {
                            return Err(schema_err(format!(
                                "bounds '{key}' references unknown event '{n}'"
                            )));
                        }
                    }
                }
                Ok(())
            };
            check_sets(&cut_sets, "cut_sets")?;
            if let Some(ps) = &path_sets {
                check_sets(ps, "path_sets")?;
            }
        }
        let truncation_order = match v.get("truncation_order") {
            None | Some(JsonValue::Null) => None,
            Some(x) => Some(truncation_order_value(x)?),
        };
        Ok(BoundsSpec {
            events,
            cut_sets,
            path_sets,
            fault_tree,
            truncation_order,
        })
    }

    fn to_json(&self) -> JsonValue {
        let sets_json = |sets: &[Vec<String>]| {
            JsonValue::Array(sets.iter().map(|s| json::string_array(s)).collect())
        };
        let mut entries = Vec::new();
        if !self.events.is_empty() {
            entries.push((
                "events",
                JsonValue::Array(self.events.iter().map(BoundsEventSpec::to_json).collect()),
            ));
        }
        if !self.cut_sets.is_empty() {
            entries.push(("cut_sets", sets_json(&self.cut_sets)));
        }
        if let Some(ps) = &self.path_sets {
            entries.push(("path_sets", sets_json(ps)));
        }
        if let Some(ft) = &self.fault_tree {
            entries.push(("fault_tree", ft.to_json()));
        }
        if let Some(o) = self.truncation_order {
            entries.push(("truncation_order", (o as f64).into()));
        }
        json::object(entries)
    }
}

impl BoundsEventSpec {
    fn from_json(v: &JsonValue) -> Result<BoundsEventSpec> {
        check_keys(as_obj(v, "event")?, &["name", "probability"], "event")?;
        let probability = event_probability_value(f64_field(v, "probability", "event")?)?;
        Ok(BoundsEventSpec {
            name: str_field(v, "name", "event")?,
            probability,
        })
    }

    fn to_json(&self) -> JsonValue {
        json::object(vec![
            ("name", self.name.as_str().into()),
            ("probability", self.probability.into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rbd_round_trip() {
        let json = r#"{
          "rbd": {
            "components": [{"name": "a", "availability": 0.9}],
            "structure": {"series": ["a", {"parallel": ["a", "a"]}]}
          }
        }"#;
        let spec = ModelSpec::from_json_str(json).unwrap();
        let back = spec.to_json().to_json();
        let again = ModelSpec::from_json_str(&back).unwrap();
        assert_eq!(spec, again);
    }

    #[test]
    fn fault_tree_round_trip() {
        let json = r#"{
          "fault_tree": {
            "events": [{"name": "e", "probability": 0.01}],
            "top": {"k_of_n": {"k": 2, "of": ["e", "e", "e"]}}
          }
        }"#;
        let spec = ModelSpec::from_json_str(json).unwrap();
        assert!(matches!(spec, ModelSpec::FaultTree(_)));
        let again = ModelSpec::from_json_str(&spec.to_json().to_json()).unwrap();
        assert_eq!(spec, again);
    }

    #[test]
    fn rbd_with_dists_and_sim_round_trips() {
        let json = r#"{
          "rbd": {
            "components": [
              {"name": "a",
               "ttf_dist": {"weibull": {"shape": 1.5, "scale": 1000.0}},
               "ttr_dist": {"lognormal": {"mu": 0.5, "sigma": 1.2}}},
              {"name": "b", "availability": 0.99},
              {"name": "c",
               "ttf_dist": {"exponential": {"rate": 0.001}},
               "ttr_dist": {"pareto": {"shape": 2.5, "scale": 3.0}}}
            ],
            "structure": {"series": [{"parallel": ["a", "c"]}, "b"]},
            "sim": {
              "measure": "availability",
              "horizon": 40000.0,
              "seed": 42,
              "jobs": 2,
              "max_replications": 256,
              "rel_precision": 0.001,
              "confidence": 0.99
            }
          }
        }"#;
        let spec = ModelSpec::from_json_str(json).unwrap();
        let again = ModelSpec::from_json_str(&spec.to_json().to_json()).unwrap();
        assert_eq!(spec, again);
        match &spec {
            ModelSpec::Rbd(r) => {
                let sim = r.sim.as_ref().unwrap();
                assert_eq!(sim.measure, SimMeasure::Availability);
                assert_eq!(sim.horizon, Some(40000.0));
                assert_eq!(sim.seed, Some(42));
                assert_eq!(sim.max_replications, Some(256));
                assert_eq!(r.components[0].value, None);
                assert!(matches!(
                    r.components[0].ttf_dist,
                    Some(DistSpec::Weibull { .. })
                ));
            }
            _ => panic!("expected RBD"),
        }
    }

    #[test]
    fn fault_tree_with_dists_and_sim_round_trips() {
        let json = r#"{
          "fault_tree": {
            "events": [
              {"name": "e",
               "ttf_dist": {"gamma": {"shape": 2.0, "rate": 0.01}},
               "ttr_dist": {"uniform": {"low": 1.0, "high": 9.0}}},
              {"name": "f", "probability": 0.05}
            ],
            "top": {"or": ["e", "f"]},
            "sim": {"measure": "reliability", "mission_time": 5000.0}
          }
        }"#;
        let spec = ModelSpec::from_json_str(json).unwrap();
        let again = ModelSpec::from_json_str(&spec.to_json().to_json()).unwrap();
        assert_eq!(spec, again);
    }

    #[test]
    fn dist_spec_mean_forms_normalize() {
        // {"mean": m} is sugar for rate = 1/m.
        let json = r#"{
          "rbd": {
            "components": [
              {"name": "a",
               "ttf_dist": {"exponential": {"mean": 500.0}},
               "ttr_dist": {"lognormal": {"mean": 4.0, "cv2": 4.0}}}
            ],
            "structure": "a",
            "sim": {"measure": "availability", "horizon": 1000.0}
          }
        }"#;
        let spec = ModelSpec::from_json_str(json).unwrap();
        let ModelSpec::Rbd(r) = &spec else {
            panic!("expected RBD");
        };
        match r.components[0].ttf_dist.as_ref().unwrap() {
            DistSpec::Exponential { rate } => assert!((rate - 1.0 / 500.0).abs() < 1e-15),
            other => panic!("expected exponential, got {other:?}"),
        }
        match r.components[0].ttr_dist.as_ref().unwrap() {
            DistSpec::LogNormal { mu, sigma } => {
                // mean = exp(mu + sigma^2/2), cv2 = exp(sigma^2) - 1.
                let mean = (mu + sigma * sigma / 2.0).exp();
                let cv2 = (sigma * sigma).exp() - 1.0;
                assert!((mean - 4.0).abs() < 1e-12, "mean {mean}");
                assert!((cv2 - 4.0).abs() < 1e-12, "cv2 {cv2}");
            }
            other => panic!("expected lognormal, got {other:?}"),
        }
        // Normalized parameters survive a serialization round trip.
        let again = ModelSpec::from_json_str(&spec.to_json().to_json()).unwrap();
        assert_eq!(spec, again);
    }

    #[test]
    fn sim_and_dist_specs_reject_malformed_input() {
        let base =
            |body: &str| format!(r#"{{"rbd": {{"components": [{body}], "structure": "a"}}}}"#);
        // Neither availability nor ttf_dist.
        assert!(ModelSpec::from_json_str(&base(r#"{"name": "a"}"#)).is_err());
        // ttr without ttf.
        assert!(ModelSpec::from_json_str(&base(
            r#"{"name": "a", "ttr_dist": {"exponential": {"rate": 1.0}}}"#
        ))
        .is_err());
        // Unknown distribution family.
        assert!(ModelSpec::from_json_str(&base(
            r#"{"name": "a", "ttf_dist": {"zipf": {"s": 1.0}}}"#
        ))
        .is_err());
        // Unknown key inside a family.
        assert!(ModelSpec::from_json_str(&base(
            r#"{"name": "a", "ttf_dist": {"exponential": {"rate": 1.0, "junk": 2}}}"#
        ))
        .is_err());
        // Both rate and mean.
        assert!(ModelSpec::from_json_str(&base(
            r#"{"name": "a", "ttf_dist": {"exponential": {"rate": 1.0, "mean": 1.0}}}"#
        ))
        .is_err());
        // Mixed lognormal parameterizations.
        assert!(ModelSpec::from_json_str(&base(
            r#"{"name": "a", "ttf_dist": {"lognormal": {"mu": 0.0, "cv2": 1.0}}}"#
        ))
        .is_err());

        let sim = |body: &str| {
            format!(
                r#"{{"rbd": {{"components": [{{"name": "a", "availability": 0.9}}],
                     "structure": "a", "sim": {body}}}}}"#
            )
        };
        // Unknown measure.
        assert!(
            ModelSpec::from_json_str(&sim(r#"{"measure": "throughput", "horizon": 1.0}"#)).is_err()
        );
        // Measure without its time field.
        assert!(ModelSpec::from_json_str(&sim(r#"{"measure": "availability"}"#)).is_err());
        assert!(ModelSpec::from_json_str(&sim(r#"{"measure": "reliability"}"#)).is_err());
        assert!(ModelSpec::from_json_str(&sim(r#"{"measure": "mttf"}"#)).is_err());
        // Unknown sim key.
        assert!(ModelSpec::from_json_str(&sim(
            r#"{"measure": "availability", "horizon": 1.0, "bogus": 3}"#
        ))
        .is_err());
    }

    #[test]
    fn spn_round_trip() {
        let json = r#"{
          "spn": {
            "places": [
              {"name": "idle", "tokens": 3},
              {"name": "busy", "tokens": 0}
            ],
            "transitions": [
              {"name": "start", "rate": 1.5,
               "inputs": [{"place": "idle"}],
               "outputs": [{"place": "busy", "count": 1}],
               "inhibitors": [{"place": "busy", "count": 2}]},
              {"name": "route", "weight": 0.7, "priority": 1,
               "inputs": [{"place": "busy"}],
               "outputs": [{"place": "idle"}]}
            ],
            "max_markings": 5000,
            "reach_jobs": 4,
            "shard_bits": 3,
            "expected_tokens": ["busy"],
            "throughput": ["start"]
          }
        }"#;
        let spec = ModelSpec::from_json_str(json).unwrap();
        match &spec {
            ModelSpec::Spn(s) => {
                assert_eq!(s.places.len(), 2);
                assert_eq!(s.places[0].tokens, 3);
                assert_eq!(s.transitions[0].inputs[0].count, 1); // default
                assert_eq!(s.transitions[0].inhibitors[0].count, 2);
                assert!(matches!(
                    s.transitions[1].timing,
                    SpnTimingSpec::Immediate { priority: 1, .. }
                ));
                assert_eq!(s.max_markings, Some(5000));
            }
            _ => panic!("expected SPN spec"),
        }
        // The thread keys are accepted but not kept: the canonical form
        // (the memo key) drops them.
        let canonical = spec.to_json().to_json();
        assert!(!canonical.contains("reach_jobs") && !canonical.contains("shard_bits"));
        let again = ModelSpec::from_json_str(&canonical).unwrap();
        assert_eq!(spec, again);
    }

    /// The solver-tier key of older documents is checked, then ignored:
    /// each of its three spellings parses to the model without it, which
    /// has the same canonical form and fingerprint, and any other value
    /// fails with the message it always had.
    #[test]
    fn spn_solver_key_is_checked_then_ignored() {
        let doc = |extra: &str| {
            format!(
                r#"{{"spn": {{"places": [{{"name": "p", "tokens": 1}}],
                     "transitions": [{{"name": "t", "rate": 1.0}}]{extra}}}}}"#
            )
        };
        let plain = ModelSpec::from_json_str(&doc("")).unwrap();
        for value in ["materialized", "csr", "stream"] {
            let spec =
                ModelSpec::from_json_str(&doc(&format!(r#", "solver": "{value}""#))).unwrap();
            assert_eq!(spec, plain, "{value}");
            assert_eq!(spec.fingerprint(), plain.fingerprint(), "{value}");
            let canonical = spec.to_json().to_json();
            assert_eq!(canonical, plain.to_json().to_json(), "{value}");
            assert!(!canonical.contains("solver"), "{value}");
        }
        for (value, message) in [
            (
                r#""dense""#,
                "'solver' must be one of materialized, stream (got 'dense')",
            ),
            ("4", "'solver' must be a string"),
            ("[]", "'solver' must be a string"),
        ] {
            let err =
                ModelSpec::from_json_str(&doc(&format!(r#", "solver": {value}"#))).unwrap_err();
            assert_eq!(err, schema_err(message), "{value}");
        }
    }

    #[test]
    fn spn_rejects_bad_transitions() {
        let base = |t: &str| {
            format!(
                r#"{{"spn": {{"places": [{{"name": "p", "tokens": 1}}],
                     "transitions": [{t}]}}}}"#
            )
        };
        // Both rate and weight.
        assert!(
            ModelSpec::from_json_str(&base(r#"{"name": "t", "rate": 1.0, "weight": 2.0}"#))
                .is_err()
        );
        // Neither.
        assert!(ModelSpec::from_json_str(&base(r#"{"name": "t"}"#)).is_err());
        // Priority on a timed transition.
        assert!(
            ModelSpec::from_json_str(&base(r#"{"name": "t", "rate": 1.0, "priority": 1}"#))
                .is_err()
        );
        // Unknown arc field.
        assert!(ModelSpec::from_json_str(&base(
            r#"{"name": "t", "rate": 1.0, "inputs": [{"place": "p", "weight": 2}]}"#
        ))
        .is_err());
        // Ignored thread keys still get their type checks.
        for bad in [
            r#""shard_bits": 40"#,
            r#""reach_jobs": -1"#,
            r#""reach_jobs": "4""#,
        ] {
            let doc = format!(
                r#"{{"spn": {{"places": [{{"name": "p", "tokens": 1}}],
                     "transitions": [{{"name": "t", "rate": 1.0}}], {bad}}}}}"#
            );
            assert!(ModelSpec::from_json_str(&doc).is_err(), "{bad}");
        }
    }

    #[test]
    fn ctmc_optional_fields_default() {
        let json = r#"{
          "ctmc": {
            "states": ["up", "down"],
            "transitions": [
              {"from": "up", "to": "down", "rate": 0.01},
              {"from": "down", "to": "up", "rate": 1.0}
            ]
          }
        }"#;
        let spec = ModelSpec::from_json_str(json).unwrap();
        if let ModelSpec::Ctmc(c) = spec {
            assert!(c.initial.is_none());
            assert!(c.up_states.is_none());
        } else {
            panic!("expected CTMC");
        }
    }

    #[test]
    fn ctmc_full_round_trip() {
        let json = r#"{
          "ctmc": {
            "states": ["up", "down"],
            "transitions": [{"from": "up", "to": "down", "rate": 0.5}],
            "initial": "up",
            "up_states": ["up"],
            "absorbing": ["down"],
            "at_times": [1.0, 10.0]
          }
        }"#;
        let spec = ModelSpec::from_json_str(json).unwrap();
        let again = ModelSpec::from_json_str(&spec.to_json().to_json()).unwrap();
        assert_eq!(spec, again);
    }

    #[test]
    fn unknown_fields_rejected() {
        let json = r#"{
          "rbd": {
            "components": [{"name": "a", "availability": 0.9, "mttf": 5}],
            "structure": "a"
          }
        }"#;
        assert!(ModelSpec::from_json_str(json).is_err());
        assert!(ModelSpec::from_json_str(
            r#"{"ctmc": {"states": [], "transitions": [], "bogus": 1}}"#
        )
        .is_err());
        assert!(ModelSpec::from_json_str(r#"{"spn": {}}"#).is_err());
        assert!(ModelSpec::from_json_str(r#"{"rbd": {}, "ctmc": {}}"#).is_err());
    }

    #[test]
    fn canonical_string_is_stable() {
        let a = ModelSpec::from_json_str(
            r#"{"rbd": {"components": [{"name": "a", "availability": 0.9}],
                 "structure": "a"}}"#,
        )
        .unwrap();
        let b = ModelSpec::from_json_str(
            r#"{
              "rbd": {
                "components": [{ "availability": 0.9, "name": "a" }],
                "structure": "a"
              }
            }"#,
        )
        .unwrap();
        // Formatting and object key order in the source are irrelevant.
        assert_eq!(a.canonical_string(), b.canonical_string());
    }

    #[test]
    fn rel_graph_round_trip() {
        let json = r#"{
          "rel_graph": {
            "nodes": ["s", "t"],
            "edges": [{"name": "e", "from": "s", "to": "t",
                       "reliability": 0.99, "directed": true}],
            "source": "s",
            "sink": "t"
          }
        }"#;
        let spec = ModelSpec::from_json_str(json).unwrap();
        let again = ModelSpec::from_json_str(&spec.to_json().to_json()).unwrap();
        assert_eq!(spec, again);
        if let ModelSpec::RelGraph(g) = &spec {
            assert!(!g.all_terminal);
            assert!(g.edges[0].directed);
        } else {
            panic!("expected rel_graph");
        }
    }

    #[test]
    fn hierarchy_round_trip() {
        let json = r#"{
          "hierarchy": {
            "submodels": [
              {"name": "disk",
               "model": {"rbd": {"components": [{"name": "d", "availability": 0.99}],
                                 "structure": "d"}},
               "measure": "availability"},
              {"name": "sys",
               "model": {"rbd": {"components": [{"name": "front", "availability": 0.9}],
                                 "structure": "front"}},
               "measure": "availability",
               "initial": 0.5,
               "imports": [{"from": "disk", "path": "rbd.components.0.availability"}]}
            ],
            "output": "sys",
            "tolerance": 1e-9,
            "max_iterations": 500,
            "damping": 0.8,
            "jobs": 2
          }
        }"#;
        let spec = ModelSpec::from_json_str(json).unwrap();
        let again = ModelSpec::from_json_str(&spec.to_json().to_json()).unwrap();
        assert_eq!(spec, again);
        let ModelSpec::Hierarchy(h) = &spec else {
            panic!("expected hierarchy");
        };
        assert_eq!(h.submodels[1].imports[0].from, "disk");
        assert_eq!(h.submodels[0].measure, ScenarioMeasure::Availability);
    }

    #[test]
    fn hierarchy_rejects_bad_references() {
        // Unknown import source.
        let err = ModelSpec::from_json_str(
            r#"{"hierarchy": {"submodels": [
                 {"name": "a",
                  "model": {"rbd": {"components": [{"name": "x", "availability": 0.9}],
                                    "structure": "x"}},
                  "imports": [{"from": "ghost", "path": "rbd.components.0.availability"}]}
               ]}}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("ghost"), "{err}");
        // Import path that does not resolve to a number.
        let err = ModelSpec::from_json_str(
            r#"{"hierarchy": {"submodels": [
                 {"name": "a",
                  "model": {"rbd": {"components": [{"name": "x", "availability": 0.9}],
                                    "structure": "x"}},
                  "imports": [{"from": "a", "path": "rbd.components.0.name"}]}
               ]}}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("rbd.components.0.name"), "{err}");
    }

    #[test]
    fn semi_markov_round_trip() {
        let json = r#"{
          "semi_markov": {
            "states": [
              {"name": "up", "sojourn": {"weibull": {"shape": 2.0, "scale": 1000.0}}},
              {"name": "down", "sojourn": {"lognormal": {"mean": 4.0, "cv2": 2.0}}}
            ],
            "transitions": [
              {"from": "up", "to": "down", "probability": 1.0},
              {"from": "down", "to": "up", "probability": 1.0}
            ],
            "initial": "up",
            "up_states": ["up"],
            "targets": ["down"],
            "interval_times": [100.0, 1000.0]
          }
        }"#;
        let spec = ModelSpec::from_json_str(json).unwrap();
        let again = ModelSpec::from_json_str(&spec.to_json().to_json()).unwrap();
        assert_eq!(spec, again);
        let ModelSpec::SemiMarkov(s) = &spec else {
            panic!("expected semi_markov");
        };
        // The mean/cv2 sugar normalized to (mu, sigma).
        assert!(matches!(s.states[1].sojourn, DistSpec::LogNormal { .. }));
    }

    #[test]
    fn semi_markov_rejections_are_path_qualified() {
        // Self-loops are rejected at parse time.
        let err = ModelSpec::from_json_str(
            r#"{"semi_markov": {
                 "states": [{"name": "up", "sojourn": {"exponential": {"rate": 1.0}}}],
                 "transitions": [{"from": "up", "to": "up", "probability": 1.0}]}}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("sojourn distribution"), "{err}");
        // Conflicting distribution forms name the offending JSON path.
        let err = ModelSpec::from_json_str(
            r#"{"semi_markov": {
                 "states": [
                   {"name": "up",
                    "sojourn": {"lognormal": {"mu": 1.0, "sigma": 0.5, "mean": 4.0}}}],
                 "transitions": []}}"#,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("semi_markov.states.0.sojourn"),
            "{err}"
        );
    }

    #[test]
    fn uncertainty_round_trip() {
        let json = r#"{
          "uncertainty": {
            "model": {"ctmc": {
              "states": ["up", "down"],
              "transitions": [
                {"from": "up", "to": "down", "rate": 0.001},
                {"from": "down", "to": "up", "rate": 0.1}
              ],
              "up_states": ["up"]
            }},
            "parameters": [
              {"path": "ctmc.transitions.0.rate",
               "prior": {"rate_posterior": {"failures": 12, "total_time": 100000.0}}},
              {"path": "ctmc.transitions.1.rate",
               "prior": {"gamma": {"shape": 4.0, "rate": 40.0}}}
            ],
            "measure": "availability",
            "samples": 200,
            "level": 0.9,
            "seed": 7,
            "jobs": 2,
            "latin_hypercube": true
          }
        }"#;
        let spec = ModelSpec::from_json_str(json).unwrap();
        let again = ModelSpec::from_json_str(&spec.to_json().to_json()).unwrap();
        assert_eq!(spec, again);
        let ModelSpec::Uncertainty(u) = &spec else {
            panic!("expected uncertainty");
        };
        assert!(matches!(
            u.parameters[0].prior,
            PriorSpec::Posterior { failures: 12, .. }
        ));
        assert!(u.latin_hypercube);
    }

    #[test]
    fn uncertainty_rejections_are_path_qualified() {
        // A parameter path that is not numeric in the inner document.
        let err = ModelSpec::from_json_str(
            r#"{"uncertainty": {
                 "model": {"rbd": {"components": [{"name": "a", "availability": 0.9}],
                                   "structure": "a"}},
                 "parameters": [
                   {"path": "rbd.components.0.name",
                    "prior": {"uniform": {"low": 0.0, "high": 1.0}}}]}}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("rbd.components.0.name"), "{err}");
        // A bad prior names the parameter's JSON path.
        let err = ModelSpec::from_json_str(
            r#"{"uncertainty": {
                 "model": {"rbd": {"components": [{"name": "a", "availability": 0.9}],
                                   "structure": "a"}},
                 "parameters": [
                   {"path": "rbd.components.0.availability",
                    "prior": {"lognormal": {"mu": 1.0, "mean": 4.0}}}]}}"#,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("uncertainty.parameters.0.prior"),
            "{err}"
        );
    }

    #[test]
    fn bounds_round_trips_both_forms() {
        let explicit = r#"{
          "bounds": {
            "events": [
              {"name": "a", "probability": 0.01},
              {"name": "b", "probability": 0.02},
              {"name": "c", "probability": 0.03}
            ],
            "cut_sets": [["a", "b"], ["c"]],
            "path_sets": [["a", "c"], ["b", "c"]],
            "truncation_order": 2
          }
        }"#;
        let spec = ModelSpec::from_json_str(explicit).unwrap();
        let again = ModelSpec::from_json_str(&spec.to_json().to_json()).unwrap();
        assert_eq!(spec, again);

        let via_tree = r#"{
          "bounds": {
            "fault_tree": {
              "events": [{"name": "e", "probability": 0.01},
                         {"name": "f", "probability": 0.02}],
              "top": {"and": ["e", "f"]}
            },
            "truncation_order": 3
          }
        }"#;
        let spec = ModelSpec::from_json_str(via_tree).unwrap();
        let again = ModelSpec::from_json_str(&spec.to_json().to_json()).unwrap();
        assert_eq!(spec, again);
        let ModelSpec::Bounds(b) = &spec else {
            panic!("expected bounds");
        };
        assert!(b.fault_tree.is_some());
        assert_eq!(b.truncation_order, Some(3));
    }

    #[test]
    fn bounds_rejects_mixed_and_dangling_forms() {
        // fault_tree is mutually exclusive with explicit sets.
        let err = ModelSpec::from_json_str(
            r#"{"bounds": {
                 "fault_tree": {"events": [{"name": "e", "probability": 0.1}],
                                "top": "e"},
                 "cut_sets": [["e"]]}}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"), "{err}");
        // Cut sets must reference declared events.
        let err = ModelSpec::from_json_str(
            r#"{"bounds": {
                 "events": [{"name": "a", "probability": 0.1}],
                 "cut_sets": [["a", "ghost"]]}}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("ghost"), "{err}");
    }
}
