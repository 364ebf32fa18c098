//! Specification → model conversion and solving.

use crate::json::{self, JsonValue};
use crate::report::{SolveOptions, SolveReport, SolveStats, VarOrder};
use crate::schema::*;
use reliab_core::fxhash::FxHashMap;
use reliab_core::{downtime_minutes_per_year, Error, ImportanceMeasures, Result};
use reliab_dist::{
    Deterministic, Exponential, Gamma, Lifetime, LogNormal, Pareto, Uniform, Weibull,
};
use reliab_ftree::{
    CompileOptions, EventId, FaultTree, FaultTreeBuilder, FtNode, Polarity, Rbd, RbdBuilder,
    VariableOrdering,
};
use reliab_markov::{Ctmc, CtmcBuilder, StateId, SteadyOptions, TransientOptions};
use reliab_obs as obs;
use reliab_relgraph::CompiledGraph;
use reliab_sim::{Measure as SimRunMeasure, SimOptions, SystemSimulator};
use std::time::{Duration, Instant};

/// Importance measures of one component/event, serialization-friendly.
#[derive(Debug, Clone, PartialEq)]
pub struct ImportanceRow {
    /// Component or basic-event name.
    pub name: String,
    /// Birnbaum importance.
    pub birnbaum: f64,
    /// Criticality importance.
    pub criticality: f64,
    /// Fussell–Vesely importance.
    pub fussell_vesely: f64,
}

impl ImportanceRow {
    fn to_json(&self) -> JsonValue {
        json::object(vec![
            ("name", self.name.as_str().into()),
            ("birnbaum", self.birnbaum.into()),
            ("criticality", self.criticality.into()),
            ("fussell_vesely", self.fussell_vesely.into()),
        ])
    }
}

/// Transient state probabilities at one time point.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientRow {
    /// The time point.
    pub time: f64,
    /// `(state, probability)` pairs in declaration order.
    pub probabilities: Vec<(String, f64)>,
}

impl TransientRow {
    fn to_json(&self) -> JsonValue {
        json::object(vec![
            ("time", self.time.into()),
            ("probabilities", named_pairs(&self.probabilities)),
        ])
    }
}

/// `(name, value)` pairs serialize as two-element arrays, matching the
/// historical output format.
fn named_pairs(pairs: &[(String, f64)]) -> JsonValue {
    JsonValue::Array(
        pairs
            .iter()
            .map(|(name, p)| JsonValue::Array(vec![name.as_str().into(), (*p).into()]))
            .collect(),
    )
}

fn name_lists(lists: &[Vec<String>]) -> JsonValue {
    JsonValue::Array(lists.iter().map(|l| json::string_array(l)).collect())
}

fn importance_json(rows: &Option<Vec<ImportanceRow>>) -> JsonValue {
    match rows {
        Some(rows) => JsonValue::Array(rows.iter().map(ImportanceRow::to_json).collect()),
        None => JsonValue::Null,
    }
}

/// Everything a specification solve produces, ready for JSON output.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SolvedMeasures {
    /// RBD results.
    Rbd {
        /// System availability.
        availability: f64,
        /// Downtime in minutes/year implied by the availability.
        downtime_minutes_per_year: f64,
        /// Per-component importance (absent when the system is perfect
        /// at the given inputs).
        importance: Option<Vec<ImportanceRow>>,
    },
    /// Fault-tree results.
    FaultTree {
        /// Exact top-event probability.
        top_event_probability: f64,
        /// Minimal cut sets (event-name lists, ascending order/size).
        minimal_cut_sets: Vec<Vec<String>>,
        /// Per-event importance (absent when the top event is
        /// impossible at the given inputs).
        importance: Option<Vec<ImportanceRow>>,
    },
    /// Reliability-graph results.
    RelGraph {
        /// s-t (two-terminal) reliability.
        reliability: f64,
        /// All-terminal reliability, when requested and defined.
        all_terminal_reliability: Option<f64>,
        /// Minimal s-t path sets (edge-name lists).
        minimal_path_sets: Vec<Vec<String>>,
        /// Minimal s-t cut sets (edge-name lists).
        minimal_cut_sets: Vec<Vec<String>>,
    },
    /// Stochastic Petri net results.
    Spn {
        /// Number of tangible markings (CTMC states) generated.
        num_markings: usize,
        /// Steady-state expected token counts for the requested places.
        expected_tokens: Vec<(String, f64)>,
        /// Steady-state throughput of the requested timed transitions.
        throughput: Vec<(String, f64)>,
    },
    /// Discrete-event simulation results (RBD or fault-tree models
    /// with a `sim` block, or any component model solved with
    /// `--method sim`).
    Sim {
        /// The estimated measure: `"availability"`, `"reliability"`,
        /// or `"mttf"`.
        measure: String,
        /// Point estimate.
        point: f64,
        /// Lower bound of the confidence interval.
        ci_lower: f64,
        /// Upper bound of the confidence interval.
        ci_upper: f64,
        /// Confidence level of the interval (e.g. `0.99`).
        confidence: f64,
        /// Final relative CI half-width (half-width / |point|).
        rel_half_width: f64,
        /// Replications actually run.
        replications: usize,
        /// Total simulated events across all replications.
        events: u64,
        /// Whether the stopping rule met its precision target before
        /// the replication cap.
        converged: bool,
        /// Downtime in minutes/year implied by the point estimate,
        /// when the measure is availability.
        downtime_minutes_per_year: Option<f64>,
    },
    /// CTMC results.
    Ctmc {
        /// Stationary distribution `(state, probability)` — absent for
        /// chains with absorbing structure where no stationary
        /// distribution exists.
        steady_state: Option<Vec<(String, f64)>>,
        /// Steady-state availability over `up_states` (if given).
        availability: Option<f64>,
        /// Downtime in minutes/year (when availability was computed).
        downtime_minutes_per_year: Option<f64>,
        /// MTTF into the `absorbing` set (if given).
        mttf: Option<f64>,
        /// Transient distributions at the requested times.
        transient: Option<Vec<TransientRow>>,
    },
    /// Hierarchical-composition results.
    Hierarchy {
        /// Converged submodel exports `(name, value)` in declaration
        /// order.
        submodels: Vec<(String, f64)>,
        /// The output submodel's name.
        output: String,
        /// The output submodel's export at the fixed point — the
        /// hierarchy's headline value.
        value: f64,
        /// Fixed-point sweeps performed.
        iterations: usize,
        /// Largest absolute export change in the final sweep.
        residual: f64,
    },
    /// Semi-Markov-process results.
    SemiMarkov {
        /// Long-run time fraction per state, in declaration order.
        steady_state: Vec<(String, f64)>,
        /// Steady availability over `up_states` (if given).
        availability: Option<f64>,
        /// Downtime in minutes/year (when availability was computed).
        downtime_minutes_per_year: Option<f64>,
        /// Mean first-passage time from `initial` into `targets` (if
        /// given).
        mean_first_passage: Option<f64>,
        /// Interval availability `(t, (1/t)∫₀ᵗ A(u) du)` rows at the
        /// requested times, via the phase-type expansion.
        interval_availability: Option<Vec<(f64, f64)>>,
    },
    /// Parametric-uncertainty results.
    Uncertainty {
        /// The propagated measure (a [`ScenarioMeasure`] spelling).
        measure: String,
        /// Sample mean of the output measure.
        mean: f64,
        /// Sample standard deviation.
        std_dev: f64,
        /// Lower percentile bound.
        ci_lower: f64,
        /// Upper percentile bound.
        ci_upper: f64,
        /// Confidence level of the percentile interval.
        level: f64,
        /// Monte-Carlo samples drawn.
        samples: usize,
    },
    /// Cut/path-set bounds results (on system unreliability).
    Bounds {
        /// Exact failure probability (SDP over the cut sets, or the
        /// fault tree's BDD probability).
        exact: Option<f64>,
        /// Esary–Proschan lower bound (needs path sets).
        ep_lower: Option<f64>,
        /// Esary–Proschan upper bound.
        ep_upper: Option<f64>,
        /// Truncated-enumeration lower bound (cut sets up to the
        /// truncation order only).
        truncated_lower: f64,
        /// Truncated-enumeration upper bound (worst case for the
        /// unenumerated tail).
        truncated_upper: f64,
        /// The truncation order the bounds were computed at.
        truncation_order: usize,
        /// Cut sets used.
        num_cut_sets: usize,
        /// Path sets used (0 when none were given or derivable).
        num_path_sets: usize,
    },
}

impl SolvedMeasures {
    /// The model class this result came from — the same string as the
    /// spec document's top-level key (plus `"sim"` for simulation
    /// results). This is the stable discriminant consumers should
    /// dispatch on instead of matching the `#[non_exhaustive]` enum;
    /// it is also emitted as the `"kind"` field of the JSON output.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            SolvedMeasures::Rbd { .. } => "rbd",
            SolvedMeasures::FaultTree { .. } => "fault_tree",
            SolvedMeasures::RelGraph { .. } => "rel_graph",
            SolvedMeasures::Spn { .. } => "spn",
            SolvedMeasures::Sim { .. } => "sim",
            SolvedMeasures::Ctmc { .. } => "ctmc",
            SolvedMeasures::Hierarchy { .. } => "hierarchy",
            SolvedMeasures::SemiMarkov { .. } => "semi_markov",
            SolvedMeasures::Uncertainty { .. } => "uncertainty",
            SolvedMeasures::Bounds { .. } => "bounds",
        }
    }

    /// The model class's headline scalar, if it has one: availability
    /// for RBD/CTMC/semi-Markov models, the top-event probability for
    /// fault trees, s-t reliability for graphs, the point estimate for
    /// simulations, the fixed-point output for hierarchies, the sample
    /// mean for uncertainty wrappers, and the exact (or truncated
    /// midpoint) probability for bounds.
    #[must_use]
    pub fn primary_value(&self) -> Option<f64> {
        match self {
            SolvedMeasures::Rbd { availability, .. } => Some(*availability),
            SolvedMeasures::FaultTree {
                top_event_probability,
                ..
            } => Some(*top_event_probability),
            SolvedMeasures::RelGraph { reliability, .. } => Some(*reliability),
            SolvedMeasures::Spn {
                expected_tokens,
                throughput,
                ..
            } => expected_tokens
                .first()
                .or_else(|| throughput.first())
                .map(|(_, x)| *x),
            SolvedMeasures::Sim { point, .. } => Some(*point),
            SolvedMeasures::Ctmc {
                availability, mttf, ..
            } => availability.or(*mttf),
            SolvedMeasures::Hierarchy { value, .. } => Some(*value),
            SolvedMeasures::SemiMarkov {
                availability,
                mean_first_passage,
                ..
            } => availability.or(*mean_first_passage),
            SolvedMeasures::Uncertainty { mean, .. } => Some(*mean),
            SolvedMeasures::Bounds {
                exact,
                truncated_lower,
                truncated_upper,
                ..
            } => Some(exact.unwrap_or((truncated_lower + truncated_upper) / 2.0)),
        }
    }

    /// The system availability this result carries, if any: the RBD
    /// availability, or the CTMC/semi-Markov steady-state availability
    /// over `up_states`.
    #[must_use]
    pub fn availability(&self) -> Option<f64> {
        match self {
            SolvedMeasures::Rbd { availability, .. } => Some(*availability),
            SolvedMeasures::Ctmc { availability, .. }
            | SolvedMeasures::SemiMarkov { availability, .. } => *availability,
            SolvedMeasures::Sim { measure, point, .. } if measure == "availability" => Some(*point),
            SolvedMeasures::Uncertainty { measure, mean, .. } if measure == "availability" => {
                Some(*mean)
            }
            _ => None,
        }
    }

    /// The failure probability this result carries, if any: the
    /// fault-tree top-event probability, one minus the graph's s-t
    /// reliability, or the bounds' exact/midpoint unreliability.
    #[must_use]
    pub fn unreliability(&self) -> Option<f64> {
        match self {
            SolvedMeasures::FaultTree {
                top_event_probability,
                ..
            } => Some(*top_event_probability),
            SolvedMeasures::RelGraph { reliability, .. } => Some(1.0 - reliability),
            SolvedMeasures::Sim { measure, point, .. } if measure == "reliability" => {
                Some(1.0 - point)
            }
            SolvedMeasures::Uncertainty { measure, mean, .. } if measure == "unreliability" => {
                Some(*mean)
            }
            SolvedMeasures::Bounds { .. } => self.primary_value(),
            _ => None,
        }
    }

    /// The mean time to failure this result carries (CTMC models with
    /// an `absorbing` set, semi-Markov models with `targets`), if any.
    #[must_use]
    pub fn mttf(&self) -> Option<f64> {
        match self {
            SolvedMeasures::Ctmc { mttf, .. } => *mttf,
            SolvedMeasures::SemiMarkov {
                mean_first_passage, ..
            } => *mean_first_passage,
            SolvedMeasures::Sim { measure, point, .. } if measure == "mttf" => Some(*point),
            SolvedMeasures::Uncertainty { measure, mean, .. } if measure == "mttf" => Some(*mean),
            _ => None,
        }
    }

    /// Serializes to the externally tagged JSON format the CLI emits,
    /// with a leading `"kind"` discriminant:
    /// `{"kind": "rbd", "rbd": {...}}`, `{"kind": "ctmc", "ctmc":
    /// {...}}`, ...
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let opt_num = |x: &Option<f64>| x.map_or(JsonValue::Null, JsonValue::Number);
        let body = match self {
            SolvedMeasures::Rbd {
                availability,
                downtime_minutes_per_year,
                importance,
            } => json::object(vec![
                ("availability", (*availability).into()),
                (
                    "downtime_minutes_per_year",
                    (*downtime_minutes_per_year).into(),
                ),
                ("importance", importance_json(importance)),
            ]),
            SolvedMeasures::FaultTree {
                top_event_probability,
                minimal_cut_sets,
                importance,
            } => json::object(vec![
                ("top_event_probability", (*top_event_probability).into()),
                ("minimal_cut_sets", name_lists(minimal_cut_sets)),
                ("importance", importance_json(importance)),
            ]),
            SolvedMeasures::RelGraph {
                reliability,
                all_terminal_reliability,
                minimal_path_sets,
                minimal_cut_sets,
            } => json::object(vec![
                ("reliability", (*reliability).into()),
                (
                    "all_terminal_reliability",
                    opt_num(all_terminal_reliability),
                ),
                ("minimal_path_sets", name_lists(minimal_path_sets)),
                ("minimal_cut_sets", name_lists(minimal_cut_sets)),
            ]),
            SolvedMeasures::Spn {
                num_markings,
                expected_tokens,
                throughput,
            } => json::object(vec![
                ("num_markings", JsonValue::Number(*num_markings as f64)),
                ("expected_tokens", named_pairs(expected_tokens)),
                ("throughput", named_pairs(throughput)),
            ]),
            SolvedMeasures::Sim {
                measure,
                point,
                ci_lower,
                ci_upper,
                confidence,
                rel_half_width,
                replications,
                events,
                converged,
                downtime_minutes_per_year,
            } => json::object(vec![
                ("measure", measure.as_str().into()),
                ("point", (*point).into()),
                ("ci_lower", (*ci_lower).into()),
                ("ci_upper", (*ci_upper).into()),
                ("confidence", (*confidence).into()),
                ("rel_half_width", (*rel_half_width).into()),
                ("replications", JsonValue::Number(*replications as f64)),
                ("events", JsonValue::Number(*events as f64)),
                ("converged", JsonValue::Bool(*converged)),
                (
                    "downtime_minutes_per_year",
                    opt_num(downtime_minutes_per_year),
                ),
            ]),
            SolvedMeasures::Ctmc {
                steady_state,
                availability,
                downtime_minutes_per_year,
                mttf,
                transient,
            } => json::object(vec![
                (
                    "steady_state",
                    steady_state
                        .as_ref()
                        .map_or(JsonValue::Null, |pi| named_pairs(pi)),
                ),
                ("availability", opt_num(availability)),
                (
                    "downtime_minutes_per_year",
                    opt_num(downtime_minutes_per_year),
                ),
                ("mttf", opt_num(mttf)),
                (
                    "transient",
                    transient.as_ref().map_or(JsonValue::Null, |rows| {
                        JsonValue::Array(rows.iter().map(TransientRow::to_json).collect())
                    }),
                ),
            ]),
            SolvedMeasures::Hierarchy {
                submodels,
                output,
                value,
                iterations,
                residual,
            } => json::object(vec![
                ("submodels", named_pairs(submodels)),
                ("output", output.as_str().into()),
                ("value", (*value).into()),
                ("iterations", JsonValue::Number(*iterations as f64)),
                ("residual", (*residual).into()),
            ]),
            SolvedMeasures::SemiMarkov {
                steady_state,
                availability,
                downtime_minutes_per_year,
                mean_first_passage,
                interval_availability,
            } => json::object(vec![
                ("steady_state", named_pairs(steady_state)),
                ("availability", opt_num(availability)),
                (
                    "downtime_minutes_per_year",
                    opt_num(downtime_minutes_per_year),
                ),
                ("mean_first_passage", opt_num(mean_first_passage)),
                (
                    "interval_availability",
                    interval_availability
                        .as_ref()
                        .map_or(JsonValue::Null, |rows| {
                            JsonValue::Array(
                                rows.iter()
                                    .map(|&(t, a)| {
                                        json::object(vec![
                                            ("time", t.into()),
                                            ("availability", a.into()),
                                        ])
                                    })
                                    .collect(),
                            )
                        }),
                ),
            ]),
            SolvedMeasures::Uncertainty {
                measure,
                mean,
                std_dev,
                ci_lower,
                ci_upper,
                level,
                samples,
            } => json::object(vec![
                ("measure", measure.as_str().into()),
                ("mean", (*mean).into()),
                ("std_dev", (*std_dev).into()),
                ("ci_lower", (*ci_lower).into()),
                ("ci_upper", (*ci_upper).into()),
                ("level", (*level).into()),
                ("samples", JsonValue::Number(*samples as f64)),
            ]),
            SolvedMeasures::Bounds {
                exact,
                ep_lower,
                ep_upper,
                truncated_lower,
                truncated_upper,
                truncation_order,
                num_cut_sets,
                num_path_sets,
            } => json::object(vec![
                ("exact", opt_num(exact)),
                ("ep_lower", opt_num(ep_lower)),
                ("ep_upper", opt_num(ep_upper)),
                ("truncated_lower", (*truncated_lower).into()),
                ("truncated_upper", (*truncated_upper).into()),
                (
                    "truncation_order",
                    JsonValue::Number(*truncation_order as f64),
                ),
                ("num_cut_sets", JsonValue::Number(*num_cut_sets as f64)),
                ("num_path_sets", JsonValue::Number(*num_path_sets as f64)),
            ]),
        };
        json::object(vec![("kind", self.kind().into()), (self.kind(), body)])
    }
}

/// Parses and solves a JSON specification with explicit options,
/// returning measures plus solver telemetry.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for JSON that does not match
/// the schema, [`Error::Model`] for semantic problems (unknown names,
/// duplicate components), and propagates solver errors.
pub fn solve_str_with(text: &str, opts: &SolveOptions) -> Result<SolveReport> {
    let spec = ModelSpec::from_json_str(text)?;
    solve_with(&spec, opts)
}

/// Solves an already-parsed specification with explicit options,
/// returning measures plus solver telemetry.
///
/// # Errors
///
/// See [`solve_str_with`].
pub fn solve_with(spec: &ModelSpec, opts: &SolveOptions) -> Result<SolveReport> {
    solve_model(spec, opts, None)
}

/// The body of every full solve; `parent` nests the `spec.solve` span
/// under a span of another thread.
pub(crate) fn solve_model(
    spec: &ModelSpec,
    opts: &SolveOptions,
    parent: Option<u64>,
) -> Result<SolveReport> {
    let ((measures, mut stats), wall_time) = counted(parent, || {
        let (measures, stats) = match spec {
            ModelSpec::Rbd(r) => solve_rbd(r, opts)?,
            ModelSpec::FaultTree(f) => solve_fault_tree(f, opts)?,
            ModelSpec::Ctmc(c) => solve_ctmc(c, opts)?,
            ModelSpec::RelGraph(g) => solve_relgraph(g)?,
            ModelSpec::Spn(s) => solve_spn(s, opts)?,
            ModelSpec::Hierarchy(h) => crate::scenario::solve_hierarchy(h, opts)?,
            ModelSpec::SemiMarkov(s) => crate::scenario::solve_semi_markov(s)?,
            ModelSpec::Uncertainty(u) => crate::scenario::solve_uncertainty(u, opts)?,
            ModelSpec::Bounds(b) => crate::scenario::solve_bounds(b)?,
        };
        let (kind, iterations) = (measures.kind(), stats.iterations);
        Ok(((measures, stats), kind, iterations))
    })?;
    stats.wall_time = wall_time;
    // A solve with no parallel layer ran on the calling thread.
    stats.workers = stats.workers.max(1);
    Ok(SolveReport { measures, stats })
}

/// Runs one model solve, full or demanded, under its telemetry: a
/// request-scoped trace id unless one is already ambient (nested
/// hierarchy/uncertainty sub-solves keep their parent's), a
/// `spec.solve` span (under `parent` when given), the `spec.solves`
/// count, the `spec.solve_ms` histograms and a `spec.solved` event.
/// `solve` returns its result with the model class and its iteration
/// count; the solve's wall time comes back with the result.
pub(crate) fn counted<T>(
    parent: Option<u64>,
    solve: impl FnOnce() -> Result<(T, &'static str, usize)>,
) -> Result<(T, Duration)> {
    let _trace = obs::ensure_trace_id();
    let _span = match parent {
        Some(id) => obs::span_with_parent("spec.solve", id),
        None => obs::span("spec.solve"),
    };
    let start = Instant::now();
    let (out, kind, iterations) = solve()?;
    let wall_time = start.elapsed();
    let wall_ms = wall_time.as_secs_f64() * 1e3;
    obs::counter_add("spec.solves", 1);
    obs::observe_ms("spec.solve_ms", wall_ms);
    if obs::metrics_enabled() {
        obs::observe_ms(&format!("spec.solve_ms.{kind}"), wall_ms);
    }
    obs::event(
        "spec.solved",
        &[
            ("kind", kind.into()),
            ("iterations", iterations.into()),
            (
                "wall_us",
                (wall_time.as_micros().min(u64::MAX as u128) as u64).into(),
            ),
        ],
    );
    Ok((out, wall_time))
}

fn bdd_stats_into(stats: &mut SolveStats, b: &reliab_bdd::BddStats) {
    stats.iterations = b.ite_cache_lookups as usize;
    stats.bdd_nodes = Some(b.arena_nodes);
    stats.bdd_cache_lookups = Some(b.ite_cache_lookups);
    stats.bdd_cache_hits = Some(b.ite_cache_hits);
    stats.bdd_cache_evictions = Some(b.ite_cache_evictions);
    stats.bdd_gc_runs = Some(b.gc_runs);
    stats.bdd_gc_reclaimed = Some(b.gc_reclaimed);
    stats.bdd_sift_swaps = Some(b.sift_swaps);
    stats.bdd_peak_live_nodes = Some(b.peak_live_nodes);
    stats.bdd_ite_hit_rate = Some(b.ite_hit_rate());
    stats.bdd_gc_moved = Some(b.gc_moved);
}

/// A reliability graph with its works function compiled, and each
/// edge's reliability.
fn compile_relgraph(spec: &RelGraphSpec) -> Result<(CompiledGraph, Vec<f64>)> {
    use reliab_relgraph::RelGraphBuilder;
    let mut b = RelGraphBuilder::new();
    let mut node_ids = FxHashMap::default();
    for n in &spec.nodes {
        if node_ids.contains_key(n) {
            return Err(Error::model(format!("duplicate node '{n}'")));
        }
        node_ids.insert(n.clone(), b.node(n));
    }
    let node = |name: &str, ids: &FxHashMap<String, reliab_relgraph::NodeIdx>| {
        ids.get(name)
            .copied()
            .ok_or_else(|| Error::model(format!("unknown node '{name}'")))
    };
    let mut probs = Vec::with_capacity(spec.edges.len());
    for e in &spec.edges {
        let u = node(&e.from, &node_ids)?;
        let v = node(&e.to, &node_ids)?;
        if e.directed {
            b.arc(u, v, &e.name);
        } else {
            b.edge(u, v, &e.name);
        }
        probs.push(e.reliability);
    }
    let source = node(&spec.source, &node_ids)?;
    let sink = node(&spec.sink, &node_ids)?;
    Ok((b.build(source, sink)?.compile(), probs))
}

fn solve_relgraph(spec: &RelGraphSpec) -> Result<(SolvedMeasures, SolveStats)> {
    // One compile serves the probability pass and both set families.
    let (compiled, probs) = compile_relgraph(spec)?;
    let g = compiled.graph();
    let reliability = compiled.reliability(&probs)?;
    let mut stats = SolveStats::default();
    bdd_stats_into(&mut stats, &compiled.bdd_stats());
    let all_terminal_reliability = if spec.all_terminal {
        Some(g.all_terminal_reliability(&probs)?)
    } else {
        None
    };
    let name_of = |es: Vec<reliab_relgraph::EdgeId>| -> Vec<String> {
        es.into_iter().map(|e| g.edge_name(e).to_owned()).collect()
    };
    let minimal_path_sets = compiled
        .minimal_path_sets()
        .into_iter()
        .map(&name_of)
        .collect();
    let minimal_cut_sets = compiled
        .minimal_cut_sets(DEFAULT_MAX_CUT_SETS)?
        .into_iter()
        .map(&name_of)
        .collect();
    Ok((
        SolvedMeasures::RelGraph {
            reliability,
            all_terminal_reliability,
            minimal_path_sets,
            minimal_cut_sets,
        },
        stats,
    ))
}

/// An RBD's structure function compiled, and each component's
/// availability.
fn compile_rbd(spec: &RbdSpec) -> Result<(Rbd, Vec<f64>)> {
    let mut b = RbdBuilder::new();
    let handles: Vec<EventId> = spec
        .components
        .iter()
        .map(|c| b.component(&c.name))
        .collect();
    let (root, values) = analytic_inputs(&RBD, &spec.components, &spec.structure, &handles)?;
    Ok((b.build(root)?, values))
}

fn solve_rbd(spec: &RbdSpec, opts: &SolveOptions) -> Result<(SolvedMeasures, SolveStats)> {
    if let Some(sim) = sim_block(&RBD, spec.sim.as_ref(), opts)? {
        return simulate(&RBD, &spec.components, &spec.structure, sim, opts);
    }
    let (mut rbd, values) = compile_rbd(spec)?;
    let availability = rbd.availability(&values)?;
    let importance = importance_rows(rbd.importance(&values));
    let mut stats = SolveStats::default();
    bdd_stats_into(&mut stats, &rbd.bdd_stats());
    Ok((
        SolvedMeasures::Rbd {
            availability,
            downtime_minutes_per_year: downtime_minutes_per_year(availability)?,
            importance,
        },
        stats,
    ))
}

/// Importance rows of an RBD or a fault tree; `None` when the system
/// cannot fail at the given inputs (importance undefined).
fn importance_rows(measures: Result<Vec<ImportanceMeasures>>) -> Option<Vec<ImportanceRow>> {
    let rows = measures.ok()?;
    Some(
        rows.into_iter()
            .map(|m| ImportanceRow {
                name: m.component,
                birnbaum: m.birnbaum,
                criticality: m.criticality,
                fussell_vesely: m.fussell_vesely,
            })
            .collect(),
    )
}

/// Indexes the items of an RBD or a fault tree by name, in declaration
/// order, calling `each` on every item as it is indexed; a repeated
/// name is a model error.
fn index_items<'a>(
    terms: &Terms,
    items: &'a [ItemSpec],
    mut each: impl FnMut(&ItemSpec) -> Result<()>,
) -> Result<FxHashMap<&'a str, usize>> {
    let mut idx = FxHashMap::default();
    for (i, item) in items.iter().enumerate() {
        if idx.insert(item.name.as_str(), i).is_some() {
            return Err(Error::model(format!(
                "duplicate {} '{}'",
                terms.item, item.name
            )));
        }
        each(item)?;
    }
    Ok(idx)
}

fn unknown_item(terms: &Terms, name: &str) -> Error {
    Error::model(format!("unknown {} '{name}'", terms.item))
}

/// The analytic inputs of an RBD or a fault tree: each item's value,
/// and the structure lowered onto the kernel's node over `handles`, the
/// builder's handles in declaration order.
fn analytic_inputs(
    terms: &Terms,
    items: &[ItemSpec],
    root: &StructureSpec,
    handles: &[EventId],
) -> Result<(FtNode, Vec<f64>)> {
    let mut values = Vec::with_capacity(items.len());
    let idx = index_items(terms, items, |item| {
        values.push(item_value(item, terms.polarity)?);
        Ok(())
    })?;
    Ok((kernel_node(terms, root, &idx, handles)?, values))
}

/// Lowers a structure onto the kernel's node: `All` is an AND, `Any` an
/// OR, in whichever space the class reads.
fn kernel_node(
    terms: &Terms,
    node: &StructureSpec,
    idx: &FxHashMap<&str, usize>,
    handles: &[EventId],
) -> Result<FtNode> {
    let members = |m: &[StructureSpec]| {
        m.iter()
            .map(|x| kernel_node(terms, x, idx, handles))
            .collect::<Result<_>>()
    };
    Ok(match node {
        StructureSpec::Item(name) => FtNode::Basic(
            handles[*idx
                .get(name.as_str())
                .ok_or_else(|| unknown_item(terms, name))?],
        ),
        StructureSpec::All(m) => FtNode::And(members(m)?),
        StructureSpec::Any(m) => FtNode::Or(members(m)?),
        StructureSpec::KOfN { k, of } => FtNode::KOfN {
            k: *k,
            inputs: members(of)?,
        },
    })
}

/// Instantiates a lifetime distribution from its spec.
pub(crate) fn lifetime_from(d: &DistSpec) -> Result<Box<dyn Lifetime>> {
    Ok(match d {
        DistSpec::Exponential { rate } => Box::new(Exponential::new(*rate)?),
        DistSpec::Weibull { shape, scale } => Box::new(Weibull::new(*shape, *scale)?),
        DistSpec::LogNormal { mu, sigma } => Box::new(LogNormal::new(*mu, *sigma)?),
        DistSpec::Pareto { shape, scale } => Box::new(Pareto::new(*shape, *scale)?),
        DistSpec::Gamma { shape, rate } => Box::new(Gamma::new(*shape, *rate)?),
        DistSpec::Uniform { low, high } => Box::new(Uniform::new(*low, *high)?),
        DistSpec::Deterministic { value } => Box::new(Deterministic::new(*value)?),
    })
}

/// Steady availability `E[TTF] / (E[TTF] + E[TTR])` implied by a
/// component's lifetime distributions — exact for *any* distribution
/// shapes, since a single repairable component is an alternating
/// renewal process whose up fraction depends only on the means.
fn derived_availability(name: &str, ttf: Option<&DistSpec>, ttr: Option<&DistSpec>) -> Result<f64> {
    let ttf = ttf.ok_or_else(|| Error::model(format!("'{name}' has no 'ttf_dist'")))?;
    let ttr = ttr.ok_or_else(|| {
        Error::model(format!(
            "'{name}' has a 'ttf_dist' but no 'ttr_dist': give it an explicit \
             probability or a repair distribution"
        ))
    })?;
    let mf = lifetime_from(ttf)?.mean();
    let mr = lifetime_from(ttr)?.mean();
    if !(mf.is_finite() && mr.is_finite() && mf > 0.0 && mr >= 0.0) {
        return Err(Error::model(format!(
            "'{name}': cannot derive a steady availability from distribution \
             means {mf} (ttf) and {mr} (ttr)"
        )));
    }
    Ok(mf / (mf + mr))
}

/// The value an item contributes to an analytic solve: the explicit
/// one, or the availability its lifetime distributions imply for a
/// component, one minus it for a basic event.
pub(crate) fn item_value(item: &ItemSpec, polarity: Polarity) -> Result<f64> {
    if let Some(value) = item.value {
        return Ok(value);
    }
    let a = derived_availability(&item.name, item.ttf_dist.as_ref(), item.ttr_dist.as_ref())?;
    Ok(match polarity {
        Polarity::Success => a,
        Polarity::Failure => 1.0 - a,
    })
}

/// A compiled structure over component indices, cheap to evaluate
/// inside the simulation's hot loop (no hashing, no names).
enum SimNode {
    Leaf(usize),
    All(Vec<SimNode>),
    Any(Vec<SimNode>),
    KOfN { k: usize, of: Vec<SimNode> },
}

impl SimNode {
    /// The working-state evaluator of an RBD's structure or a fault
    /// tree's gates. A fault tree is dualized here, once (De Morgan): an
    /// AND of failures is an `Any` of working inputs, an OR an `All`,
    /// and `k` failures of `n` are `n − k + 1` working, so
    /// [`SimNode::works`] tests no polarity.
    fn build(terms: &Terms, node: &StructureSpec, idx: &FxHashMap<&str, usize>) -> Result<SimNode> {
        let dual = terms.polarity == Polarity::Failure;
        let members = |m: &[StructureSpec]| {
            m.iter()
                .map(|x| SimNode::build(terms, x, idx))
                .collect::<Result<_>>()
        };
        Ok(match node {
            StructureSpec::Item(name) => SimNode::Leaf(
                *idx.get(name.as_str())
                    .ok_or_else(|| unknown_item(terms, name))?,
            ),
            StructureSpec::All(m) if dual => SimNode::Any(members(m)?),
            StructureSpec::Any(m) if dual => SimNode::All(members(m)?),
            StructureSpec::All(m) => SimNode::All(members(m)?),
            StructureSpec::Any(m) => SimNode::Any(members(m)?),
            StructureSpec::KOfN { k, of } => SimNode::KOfN {
                k: if dual {
                    (of.len() + 1).saturating_sub(*k)
                } else {
                    *k
                },
                of: members(of)?,
            },
        })
    }

    /// Does the system work, given component up flags?
    fn works(&self, up: &[bool]) -> bool {
        match self {
            SimNode::Leaf(i) => up[*i],
            SimNode::All(xs) => xs.iter().all(|x| x.works(up)),
            SimNode::Any(xs) => xs.iter().any(|x| x.works(up)),
            SimNode::KOfN { k, of } => of.iter().filter(|x| x.works(up)).count() >= *k,
        }
    }
}

/// The `sim` block a solve of an RBD or a fault tree runs: the
/// document's, when it has one; an error when only the options ask for
/// a simulation; `None` for an exact solve.
fn sim_block<'a>(
    terms: &Terms,
    sim: Option<&'a SimSpec>,
    opts: &SolveOptions,
) -> Result<Option<&'a SimSpec>> {
    if sim.is_none() && opts.simulate {
        return Err(Error::model(format!(
            "simulation requested but the {} spec has no 'sim' block",
            terms.class
        )));
    }
    Ok(sim)
}

/// Simulates an RBD or a fault tree: one simulated component per item,
/// in declaration order (so spec index == simulator index == stream
/// index), and the structure's working-state evaluator.
fn simulate(
    terms: &Terms,
    items: &[ItemSpec],
    root: &StructureSpec,
    sim: &SimSpec,
    opts: &SolveOptions,
) -> Result<(SolvedMeasures, SolveStats)> {
    let idx = index_items(terms, items, |_| Ok(()))?;
    let node = SimNode::build(terms, root, &idx)?;
    let mut simulator = SystemSimulator::new(move |up: &[bool]| node.works(up));
    for item in items {
        let ttf = item.ttf_dist.as_ref().ok_or_else(|| {
            Error::model(format!(
                "component '{}' needs a 'ttf_dist' to simulate",
                item.name
            ))
        })?;
        let ttf = lifetime_from(ttf)?;
        match &item.ttr_dist {
            Some(r) => {
                simulator.component(ttf, lifetime_from(r)?);
            }
            None => {
                simulator.component_without_repair(ttf);
            }
        }
    }
    run_simulation(&simulator, sim, opts)
}

/// The spec's sim knobs over the simulator's defaults; the replications
/// run on the solve's thread budget.
fn effective_sim_options(sim: &SimSpec, opts: &SolveOptions) -> SimOptions {
    let mut o = SimOptions::default().with_jobs(opts.threads);
    if let Some(s) = sim.seed {
        o.seed = s;
    }
    if let Some(m) = sim.max_replications {
        o.max_replications = m;
    }
    if let Some(m) = sim.min_replications {
        o.min_replications = m;
    }
    if let Some(p) = sim.rel_precision {
        o.rel_precision = p;
    }
    if let Some(c) = sim.confidence {
        o.confidence = c;
    }
    if let Some(b) = sim.batches {
        o.batches = b;
    }
    if let Some(w) = sim.warmup_fraction {
        o.warmup_fraction = w;
    }
    // Keep a tight replication cap self-consistent rather than
    // erroring on min > max.
    o.min_replications = o.min_replications.min(o.max_replications).max(2);
    o
}

fn run_simulation(
    sim: &SystemSimulator,
    spec: &SimSpec,
    opts: &SolveOptions,
) -> Result<(SolvedMeasures, SolveStats)> {
    let need = |x: Option<f64>, what: &str| {
        x.ok_or_else(|| {
            Error::model(format!(
                "sim measure '{}' requires '{what}'",
                spec.measure.as_str()
            ))
        })
    };
    let measure = match spec.measure {
        SimMeasure::Availability => SimRunMeasure::Availability {
            horizon: need(spec.horizon, "horizon")?,
        },
        SimMeasure::Reliability => SimRunMeasure::Reliability {
            mission_time: need(spec.mission_time, "mission_time")?,
        },
        SimMeasure::Mttf => SimRunMeasure::Mttf {
            time_cap: need(spec.time_cap, "time_cap")?,
        },
    };
    let sopts = effective_sim_options(spec, opts);
    let report = sim.simulate(measure, &sopts)?;
    let stats = SolveStats {
        workers: report.workers,
        iterations: usize::try_from(report.events).unwrap_or(usize::MAX),
        sim_replications: Some(report.replications),
        sim_events: Some(report.events),
        sim_rounds: Some(report.rounds),
        sim_rel_half_width: Some(report.rel_half_width),
        sim_converged: Some(report.converged),
        ..Default::default()
    };
    let point = report.interval.point;
    let downtime = match spec.measure {
        SimMeasure::Availability => Some(downtime_minutes_per_year(point)?),
        _ => None,
    };
    Ok((
        SolvedMeasures::Sim {
            measure: spec.measure.as_str().to_owned(),
            point,
            ci_lower: report.interval.lower,
            ci_upper: report.interval.upper,
            confidence: report.interval.level,
            rel_half_width: report.rel_half_width,
            replications: report.replications,
            events: report.events,
            converged: report.converged,
            downtime_minutes_per_year: downtime,
        },
        stats,
    ))
}

/// The variable ordering a fault-tree solve uses: the spec's
/// `var_order`, and the depth-first heuristic when it is absent.
fn effective_ordering(spec: &FaultTreeSpec) -> VariableOrdering {
    match spec.var_order.unwrap_or_default() {
        VarOrder::Auto | VarOrder::DepthFirst => VariableOrdering::DepthFirst,
        VarOrder::Input => VariableOrdering::Declaration,
        VarOrder::Weighted => VariableOrdering::Weighted,
        VarOrder::Sift => VariableOrdering::Sifted,
    }
}

/// Minimal cut (or path) sets a solve lists unless the spec sets
/// `max_cut_sets`.
pub(crate) const DEFAULT_MAX_CUT_SETS: usize = 100_000;

pub(crate) fn solve_fault_tree(
    spec: &FaultTreeSpec,
    opts: &SolveOptions,
) -> Result<(SolvedMeasures, SolveStats)> {
    if let Some(sim) = sim_block(&FAULT_TREE, spec.sim.as_ref(), opts)? {
        return simulate(&FAULT_TREE, &spec.events, &spec.top, sim, opts);
    }
    let (measures, stats, _) = solve_fault_tree_analytic(spec)?;
    Ok((measures, stats))
}

/// A fault tree compiled in its variable order at the kernel's cache
/// and GC defaults, and each basic event's failure probability.
fn compile_fault_tree(spec: &FaultTreeSpec) -> Result<(FaultTree, Vec<f64>)> {
    let mut b = FaultTreeBuilder::new();
    let handles: Vec<EventId> = spec.events.iter().map(|e| b.basic_event(&e.name)).collect();
    let (top, probs) = analytic_inputs(&FAULT_TREE, &spec.events, &spec.top, &handles)?;
    let compile = CompileOptions::new().with_ordering(effective_ordering(spec));
    Ok((b.build_with(top, &compile)?, probs))
}

/// The BDD solve of a fault tree: top-event probability, minimal cut
/// sets (at most `max_cut_sets` of them) and importance, plus the
/// compiled tree for callers that read more off it.
pub(crate) fn solve_fault_tree_analytic(
    spec: &FaultTreeSpec,
) -> Result<(SolvedMeasures, SolveStats, FaultTree)> {
    let (mut ft, probs) = compile_fault_tree(spec)?;
    let q = ft.top_event_probability(&probs)?;
    let cuts = ft.minimal_cut_sets(spec.max_cut_sets.unwrap_or(DEFAULT_MAX_CUT_SETS))?;
    let named_cuts: Vec<Vec<String>> = cuts
        .iter()
        .map(|c| {
            c.events()
                .iter()
                .map(|&e| ft.event_name(e).to_owned())
                .collect()
        })
        .collect();
    let importance = importance_rows(ft.importance(&probs));
    let mut stats = SolveStats::default();
    bdd_stats_into(&mut stats, &ft.bdd_stats());
    Ok((
        SolvedMeasures::FaultTree {
            top_event_probability: q,
            minimal_cut_sets: named_cuts,
            importance,
        },
        stats,
        ft,
    ))
}

/// The one SPN solve. Without a memory budget the walk keeps every
/// marking's generator row ([`reliab_spn::Spn::solve_with`]); with one
/// it keeps them while they fit the budget
/// ([`reliab_spn::Spn::tangible_space_within`]), and once they would
/// not, the solve regenerates them from the marking arena, cached as
/// the plan allows. Either way the one steady-state entry solves the
/// rows, and they are the same rows to the bit, so no measure depends
/// on the budget once it admits the method `Auto` picks by state count.
/// A budget below GTH's floor runs SOR, and one the exact solve cannot
/// meet escalates to aggregation bounds, whose bracket midpoints are
/// reported with `stream_bounded` telemetry so consumers see the gap
/// instead of a false point value.
fn solve_spn(spec: &SpnSpec, opts: &SolveOptions) -> Result<(SolvedMeasures, SolveStats)> {
    use crate::aggregate::{bounded_steady_reward, macro_states_for_budget};
    use reliab_markov::{steady_state, PlanOutcome, RowSource};
    use reliab_spn::{PlaceId, ReachabilityOptions, SpaceRows, SpnBuilder, TransitionId};
    let mut b = SpnBuilder::new();
    let mut place_ids: FxHashMap<String, PlaceId> = FxHashMap::default();
    for p in &spec.places {
        if place_ids.contains_key(&p.name) {
            return Err(Error::model(format!("duplicate place '{}'", p.name)));
        }
        place_ids.insert(p.name.clone(), b.place(&p.name, p.tokens));
    }
    let place = |name: &str, ids: &FxHashMap<String, PlaceId>| -> Result<PlaceId> {
        ids.get(name)
            .copied()
            .ok_or_else(|| Error::model(format!("unknown place '{name}'")))
    };
    let mut trans_ids: FxHashMap<String, TransitionId> = FxHashMap::default();
    for t in &spec.transitions {
        if trans_ids.contains_key(&t.name) {
            return Err(Error::model(format!("duplicate transition '{}'", t.name)));
        }
        let id = match t.timing {
            SpnTimingSpec::Timed { rate } => b.timed(&t.name, rate),
            SpnTimingSpec::Immediate { weight, priority } => b.immediate(&t.name, weight, priority),
        };
        for a in &t.inputs {
            b.input_arc(id, place(&a.place, &place_ids)?, a.count);
        }
        for a in &t.outputs {
            b.output_arc(id, place(&a.place, &place_ids)?, a.count);
        }
        for a in &t.inhibitors {
            b.inhibitor_arc(id, place(&a.place, &place_ids)?, a.count);
        }
        trans_ids.insert(t.name.clone(), id);
    }
    let spn = b.build()?;

    let mut ropts = ReachabilityOptions::default();
    if let Some(cap) = spec.max_markings {
        ropts.max_markings = cap;
    }

    let (solved, budgeted);
    let space = match opts.mem_budget {
        None => {
            solved = spn.solve_with(&ropts)?;
            solved.space()
        }
        Some(budget) => {
            budgeted = spn.tangible_space_within(&ropts, budget)?;
            &budgeted
        }
    };
    let mut stats = spn_stats(space.stats());

    let want_tokens = spec.expected_tokens.as_deref().unwrap_or(&[]);
    let want_throughput = spec.throughput.as_deref().unwrap_or(&[]);
    let (expected_tokens, throughput) = if want_tokens.is_empty() && want_throughput.is_empty() {
        (Vec::new(), Vec::new())
    } else {
        let src = SpaceRows::new(space);
        let sopts = SteadyOptions {
            mem_budget: opts.mem_budget,
            ..steady_options(opts)
        };
        let measures = match steady_state(&src, &sopts)? {
            PlanOutcome::Exact(report) => {
                stats.method = Some(report.method);
                stats.iterations += report.iterations;
                stats.residual = Some(report.residual);
                if let Some(plan) = report.plan {
                    stats.stream_blocks = Some(plan.blocks);
                    stats.stream_cached_blocks = Some(plan.cached_blocks);
                    stats.stream_peak_bytes = Some(plan.peak_bytes());
                }
                stats.stream_bounded = Some(false);
                spn_measures(spec, space, &report.pi, &place_ids, &trans_ids)?
            }
            PlanOutcome::NeedsBounds { budget, .. } => {
                let m = macro_states_for_budget(budget);
                stats.method = Some("stream-bounds");
                stats.stream_bounded = Some(true);
                let mut max_gap = 0.0f64;
                let expected_tokens = want_tokens
                    .iter()
                    .map(|name| {
                        let idx = place(name, &place_ids)?.index();
                        let b = bounded_steady_reward(&src, m, &mut |i| {
                            Ok(f64::from(space.marking(i)[idx]))
                        })?;
                        max_gap = max_gap.max(b.gap());
                        Ok((name.clone(), b.midpoint()))
                    })
                    .collect::<Result<Vec<_>>>()?;
                // Throughput as a per-state reward: the transition's
                // firing rate in each marking.
                let throughput = want_throughput
                    .iter()
                    .map(|name| {
                        let id = trans_ids
                            .get(name)
                            .copied()
                            .ok_or_else(|| Error::model(format!("unknown transition '{name}'")))?;
                        let b = bounded_steady_reward(&src, m, &mut space.firing_rate(id)?)?;
                        max_gap = max_gap.max(b.gap());
                        Ok((name.clone(), b.midpoint()))
                    })
                    .collect::<Result<Vec<_>>>()?;
                stats.stream_bound_gap = Some(max_gap);
                stats.stream_peak_bytes = Some(src.resident_bytes() as u64 + (m * m * 8) as u64);
                (expected_tokens, throughput)
            }
        };
        obs::counter_add("spn.rows.regenerated", src.regenerated());
        measures
    };

    Ok((
        SolvedMeasures::Spn {
            num_markings: space.num_markings(),
            expected_tokens,
            throughput,
        },
        stats,
    ))
}

/// The steady-state options a solve runs under: its method at the
/// library's iterative defaults. An SPN solve adds its memory budget.
fn steady_options(opts: &SolveOptions) -> SteadyOptions {
    SteadyOptions {
        method: opts.steady_solver,
        ..Default::default()
    }
}

/// The `spn_*` telemetry of a generated state space.
fn spn_stats(reach: &reliab_spn::ReachStats) -> SolveStats {
    SolveStats {
        spn_markings: Some(reach.markings),
        spn_arcs: Some(reach.arcs),
        spn_vanishing_eliminated: Some(reach.vanishing_eliminated),
        ..SolveStats::default()
    }
}

/// Named measure values, in the order the spec lists them.
type NamedValues = Vec<(String, f64)>;

/// The steady-state `expected_tokens` and `throughput` a spec asks for,
/// read off its marking space under `pi` — the measure pass of every
/// exact solve.
fn spn_measures(
    spec: &SpnSpec,
    space: &reliab_spn::TangibleSpace<'_>,
    pi: &[f64],
    place_ids: &FxHashMap<String, reliab_spn::PlaceId>,
    trans_ids: &FxHashMap<String, reliab_spn::TransitionId>,
) -> Result<(NamedValues, NamedValues)> {
    let expected_tokens = spec
        .expected_tokens
        .as_deref()
        .unwrap_or(&[])
        .iter()
        .map(|name| {
            let place = place_ids
                .get(name)
                .copied()
                .ok_or_else(|| Error::model(format!("unknown place '{name}'")))?;
            Ok((name.clone(), space.expected_tokens_given(pi, place)?))
        })
        .collect::<Result<Vec<_>>>()?;
    let throughput = spec
        .throughput
        .as_deref()
        .unwrap_or(&[])
        .iter()
        .map(|name| {
            let id = trans_ids
                .get(name)
                .copied()
                .ok_or_else(|| Error::model(format!("unknown transition '{name}'")))?;
            Ok((name.clone(), space.throughput_given(pi, id)?))
        })
        .collect::<Result<Vec<_>>>()?;
    Ok((expected_tokens, throughput))
}

/// Availability from the summed steady-state mass of `terms` up
/// states. Each addition rounds by at most one ulp of the sum, so a sum
/// no more than `terms`·ε above 1 is a full mass of 1 and reads as 1; a
/// larger one stays out of range for the caller to reject.
pub(crate) fn availability_from_sum(sum: f64, terms: usize) -> f64 {
    if sum > 1.0 && sum <= 1.0 + terms as f64 * f64::EPSILON {
        1.0
    } else {
        sum
    }
}

fn lookup(name: &str, ids: &FxHashMap<String, StateId>) -> Result<StateId> {
    ids.get(name)
        .copied()
        .ok_or_else(|| Error::model(format!("unknown state '{name}'")))
}

/// A CTMC spec compiled to its chain: states interned and transitions
/// checked and joined, with the map from state names to handles.
fn build_chain(spec: &CtmcSpec) -> Result<(Ctmc, FxHashMap<String, StateId>)> {
    let mut b = CtmcBuilder::new();
    let mut ids: FxHashMap<String, StateId> = FxHashMap::default();
    for s in &spec.states {
        if ids.contains_key(s) {
            return Err(Error::model(format!("duplicate state '{s}'")));
        }
        ids.insert(s.clone(), b.state(s));
    }
    for t in &spec.transitions {
        let from = lookup(&t.from, &ids)?;
        let to = lookup(&t.to, &ids)?;
        b.transition(from, to, t.rate)?;
    }
    Ok((b.build()?, ids))
}

/// The chain's stationary distribution, or `None` when it has none and
/// nothing needs one. A chain that is irreducible has one, so a failed
/// solve there (out of sweeps or of memory) is the solver's error; a
/// reducible chain, such as one read for its MTTF, has none, which is
/// an error only when `up_states` asks for availability.
fn stationary(
    ctmc: &Ctmc,
    spec: &CtmcSpec,
    opts: &SolveOptions,
) -> Result<Option<reliab_markov::SteadyReport>> {
    match ctmc.steady_state_report(&steady_options(opts)) {
        Ok(report) => Ok(Some(report)),
        Err(e) if ctmc.is_irreducible() => Err(e),
        Err(_) if spec.up_states.is_none() => Ok(None),
        Err(e) => Err(Error::model(format!(
            "up_states given but the chain has no stationary distribution: {e}"
        ))),
    }
}

/// Availability over the up states at `up` (indices into `pi`, summed
/// in order), and the downtime it implies.
fn availability_at(pi: &[f64], up: &[usize]) -> Result<(f64, f64)> {
    let mut a = 0.0;
    for &i in up {
        a += pi[i];
    }
    let a = availability_from_sum(a, up.len());
    Ok((a, downtime_minutes_per_year(a)?))
}

fn solve_ctmc(spec: &CtmcSpec, opts: &SolveOptions) -> Result<(SolvedMeasures, SolveStats)> {
    let (ctmc, ids) = build_chain(spec)?;
    let initial_state = match &spec.initial {
        Some(name) => lookup(name, &ids)?,
        None => lookup(&spec.states[0], &ids)?,
    };
    let initial = ctmc.point_mass(initial_state);

    let mut stats = SolveStats::default();
    let steady = stationary(&ctmc, spec, opts)?;
    if let Some(report) = &steady {
        stats.method = Some(report.method);
        stats.iterations += report.iterations;
        stats.residual = Some(report.residual);
    }
    let steady_pi = steady.map(|r| r.pi);
    // States are interned in declaration order with no duplicates, so a
    // state's index is its position in `spec.states`.
    let steady_named = steady_pi.as_ref().map(|pi| {
        spec.states
            .iter()
            .zip(pi)
            .map(|(s, &p)| (s.clone(), p))
            .collect::<Vec<_>>()
    });
    let (availability, downtime) = match (&spec.up_states, &steady_pi) {
        (Some(up), Some(pi)) => {
            let up: Vec<usize> = up
                .iter()
                .map(|name| lookup(name, &ids).map(StateId::index))
                .collect::<Result<_>>()?;
            let (a, downtime) = availability_at(pi, &up)?;
            (Some(a), Some(downtime))
        }
        _ => (None, None),
    };
    let mttf = match &spec.absorbing {
        Some(abs) => {
            let states: Vec<StateId> =
                abs.iter().map(|n| lookup(n, &ids)).collect::<Result<_>>()?;
            Some(ctmc.mttf(&initial, &states)?)
        }
        None => None,
    };
    let transient = match &spec.at_times {
        Some(times) => {
            let reports = times
                .iter()
                .map(|&t| ctmc.transient_report(&initial, t, &TransientOptions::default()))
                .collect::<Result<Vec<_>>>()?;
            stats.iterations += reports.iter().map(|r| r.matvecs).sum::<usize>();
            Some(
                times
                    .iter()
                    .zip(reports)
                    .map(|(&t, r)| TransientRow {
                        time: t,
                        probabilities: spec
                            .states
                            .iter()
                            .zip(&r.distribution)
                            .map(|(s, &p)| (s.clone(), p))
                            .collect(),
                    })
                    .collect(),
            )
        }
        None => None,
    };
    Ok((
        SolvedMeasures::Ctmc {
            steady_state: steady_named,
            availability,
            downtime_minutes_per_year: downtime,
            mttf,
            transient,
        },
        stats,
    ))
}

// ---------------------------------------------------------------------
// Demanded solves

/// The one measure a scenario reads of a model it re-solves, resolved
/// once from the model's shape: which states it sums or runs into, or
/// which side of a structure function it reads.
pub(crate) enum Demand {
    /// A CTMC's steady-state availability over these states, in
    /// `up_states` order.
    Availability(Vec<usize>),
    /// A CTMC's MTTF from its initial state into its absorbing states,
    /// by index.
    Mttf {
        initial: usize,
        absorbing: Vec<usize>,
    },
    /// The probability an RBD, a fault tree or a reliability graph
    /// solves to, or (`complement`) one minus it.
    Probability { complement: bool },
}

impl Demand {
    /// What reading `which` of `spec` computes, or `None` when `spec` is
    /// solved in full and `which` read off its measures: SPN,
    /// semi-Markov, nested scenario and bounds models, RBDs and fault
    /// trees with a `sim` block, a measure the model does not report,
    /// and a CTMC naming a state it does not declare (whose full solve
    /// says which).
    pub(crate) fn of(spec: &ModelSpec, which: ScenarioMeasure) -> Option<Demand> {
        use ScenarioMeasure::{Availability, Mttf, Primary, Unreliability};
        let structure = |complement| Some(Demand::Probability { complement });
        match (spec, which) {
            (ModelSpec::Rbd(r), Availability | Primary) if r.sim.is_none() => structure(false),
            (ModelSpec::FaultTree(f), Unreliability | Primary) if f.sim.is_none() => {
                structure(false)
            }
            (ModelSpec::RelGraph(_), Primary) => structure(false),
            (ModelSpec::RelGraph(_), Unreliability) => structure(true),
            (ModelSpec::Ctmc(c), _) => {
                // States are interned in declaration order, so a state's
                // index is its position in `states`.
                let mut positions = FxHashMap::default();
                for (i, s) in c.states.iter().enumerate() {
                    positions.entry(s.as_str()).or_insert(i);
                }
                let index = |name: &String| positions.get(name.as_str()).copied();
                let indices =
                    |names: &[String]| names.iter().map(index).collect::<Option<Vec<_>>>();
                match (which, &c.up_states, &c.absorbing) {
                    (Availability | Primary, Some(up), _) => {
                        Some(Demand::Availability(indices(up)?))
                    }
                    (Mttf, _, Some(abs)) | (Primary, None, Some(abs)) => Some(Demand::Mttf {
                        initial: index(c.initial.as_ref().unwrap_or(&c.states[0]))?,
                        absorbing: indices(abs)?,
                    }),
                    _ => None,
                }
            }
            _ => None,
        }
    }
}

/// A model compiled by its first demanded solve: the parts no slot
/// write changes, kept for the solves after it.
pub(crate) enum Compiled {
    /// A CTMC's chain, refilled in place with each solve's rates.
    Chain { ctmc: Ctmc, rates: Vec<f64> },
    /// An RBD's structure function.
    Rbd(Rbd),
    /// A fault tree's structure function.
    FaultTree(FaultTree),
    /// A reliability graph's works function.
    RelGraph(CompiledGraph),
}

/// Solves `spec` for the one measure `demand` reads, compiling it into
/// `compiled` on the first call and reusing that on later ones (the
/// caller clears it when a write changes the structure). The value
/// equals that measure of a full solve, bit for bit, or fails with the
/// full solve's error, unless only a measure it does not read fails
/// there: a CTMC's MTTF or transient rows when availability is read,
/// its steady state or availability when the MTTF is read, or a fault
/// tree's or graph's cut-set listing past its cap.
pub(crate) fn solve_demanded(
    spec: &ModelSpec,
    demand: &Demand,
    compiled: &mut Option<Compiled>,
    opts: &SolveOptions,
    parent: Option<u64>,
) -> Result<f64> {
    let (value, _) = counted(parent, || match (spec, demand) {
        (ModelSpec::Ctmc(c), _) => {
            let ctmc = refilled_chain(c, compiled)?;
            match demand {
                Demand::Availability(up) => {
                    let report = stationary(ctmc, c, opts)?.expect("up_states given");
                    let (a, _) = availability_at(&report.pi, up)?;
                    Ok((a, "ctmc", report.iterations))
                }
                Demand::Mttf { initial, absorbing } => {
                    let ids = ctmc.state_ids();
                    let absorbing: Vec<StateId> = absorbing.iter().map(|&i| ids[i]).collect();
                    let mttf = ctmc.mttf(&ctmc.point_mass(ids[*initial]), &absorbing)?;
                    Ok((mttf, "ctmc", 0))
                }
                Demand::Probability { .. } => unreachable!("a CTMC demand reads states"),
            }
        }
        (_, Demand::Probability { complement }) => {
            let (p, kind) = structure_probability(spec, compiled)?;
            Ok((if *complement { 1.0 - p } else { p }, kind, 0))
        }
        _ => unreachable!("a state demand is made of CTMCs only"),
    })?;
    Ok(value)
}

/// The chain of a CTMC spec: built on the first call, refilled with the
/// spec's rates in place on later ones, with the build's error for a
/// rejected rate.
fn refilled_chain<'a>(spec: &CtmcSpec, compiled: &'a mut Option<Compiled>) -> Result<&'a Ctmc> {
    match compiled {
        Some(Compiled::Chain { ctmc, rates }) => {
            rates.clear();
            rates.extend(spec.transitions.iter().map(|t| t.rate));
            ctmc.set_rates(rates)?;
        }
        _ => {
            let (ctmc, _) = build_chain(spec)?;
            *compiled = Some(Compiled::Chain {
                ctmc,
                rates: Vec::with_capacity(spec.transitions.len()),
            });
        }
    }
    match compiled {
        Some(Compiled::Chain { ctmc, .. }) => Ok(ctmc),
        _ => unreachable!("compiled above"),
    }
}

/// The probability an RBD (availability, checked as its full solve
/// checks it), a fault tree (top event) or a reliability graph (s-t
/// reliability) solves to, by the probability pass alone once the
/// structure is compiled, and the model's class.
fn structure_probability(
    spec: &ModelSpec,
    compiled: &mut Option<Compiled>,
) -> Result<(f64, &'static str)> {
    // Once compiled, the structure holds no repeated name, so the values
    // fail as the full solve's inputs would.
    let values = match compiled {
        Some(_) => match spec {
            ModelSpec::Rbd(r) => item_values(&r.components, Polarity::Success)?,
            ModelSpec::FaultTree(f) => item_values(&f.events, Polarity::Failure)?,
            ModelSpec::RelGraph(g) => g.edges.iter().map(|e| e.reliability).collect(),
            _ => unreachable!("a structure demand is made of structure functions"),
        },
        None => {
            let (c, values) = match spec {
                ModelSpec::Rbd(r) => compile_rbd(r).map(|(x, v)| (Compiled::Rbd(x), v))?,
                ModelSpec::FaultTree(f) => {
                    compile_fault_tree(f).map(|(x, v)| (Compiled::FaultTree(x), v))?
                }
                ModelSpec::RelGraph(g) => {
                    compile_relgraph(g).map(|(x, v)| (Compiled::RelGraph(x), v))?
                }
                _ => unreachable!("a structure demand is made of structure functions"),
            };
            *compiled = Some(c);
            values
        }
    };
    match compiled {
        Some(Compiled::Rbd(rbd)) => {
            let a = rbd.availability(&values)?;
            downtime_minutes_per_year(a)?;
            Ok((a, "rbd"))
        }
        Some(Compiled::FaultTree(ft)) => Ok((ft.top_event_probability(&values)?, "fault_tree")),
        Some(Compiled::RelGraph(g)) => Ok((g.reliability(&values)?, "rel_graph")),
        _ => unreachable!("compiled above"),
    }
}

/// Each item's analytic value, in declaration order.
fn item_values(items: &[ItemSpec], polarity: Polarity) -> Result<Vec<f64>> {
    items
        .iter()
        .map(|item| item_value(item, polarity))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SteadySolver;

    fn run(text: &str) -> Result<SolveReport> {
        solve_str_with(text, &SolveOptions::default())
    }

    #[test]
    fn rbd_spec_solves() {
        let out = run(r#"{
              "rbd": {
                "components": [
                  {"name": "a", "availability": 0.9},
                  {"name": "b", "availability": 0.9},
                  {"name": "c", "availability": 0.99}
                ],
                "structure": {"series": [{"parallel": ["a", "b"]}, "c"]}
              }
            }"#)
        .unwrap();
        assert!(out.stats.bdd_nodes.unwrap() > 0);
        assert!(out.stats.iterations > 0);
        match out.measures {
            SolvedMeasures::Rbd {
                availability,
                importance,
                ..
            } => {
                assert!((availability - 0.99 * 0.99).abs() < 1e-12);
                assert_eq!(importance.unwrap().len(), 3);
            }
            _ => panic!("expected RBD result"),
        }
    }

    #[test]
    fn fault_tree_spec_solves() {
        let out = run(r#"{
              "fault_tree": {
                "events": [
                  {"name": "p1", "probability": 0.01},
                  {"name": "p2", "probability": 0.01},
                  {"name": "bus", "probability": 0.001}
                ],
                "top": {"or": [{"and": ["p1", "p2"]}, "bus"]}
              }
            }"#)
        .unwrap();
        assert!(out.stats.bdd_cache_lookups.unwrap() > 0);
        match out.measures {
            SolvedMeasures::FaultTree {
                top_event_probability,
                minimal_cut_sets,
                ..
            } => {
                let expected = 1.0 - (1.0 - 1e-4) * (1.0 - 1e-3);
                assert!((top_event_probability - expected).abs() < 1e-12);
                assert_eq!(minimal_cut_sets.len(), 2);
                assert_eq!(minimal_cut_sets[0], vec!["bus"]);
            }
            _ => panic!("expected fault-tree result"),
        }
    }

    #[test]
    fn max_cut_sets_caps_the_exact_count() {
        // The multiprocessor tree has exactly five minimal cut sets.
        let spec = |cap: usize| {
            format!(
                r#"{{
                  "fault_tree": {{
                    "events": [
                      {{"name": "p0", "probability": 0.01}},
                      {{"name": "p1", "probability": 0.01}},
                      {{"name": "m0", "probability": 0.05}},
                      {{"name": "m1", "probability": 0.05}},
                      {{"name": "m2", "probability": 0.05}},
                      {{"name": "bus", "probability": 0.001}}
                    ],
                    "top": {{"or": [
                      {{"and": ["p0", "p1"]}},
                      {{"k_of_n": {{"k": 2, "of": ["m0", "m1", "m2"]}}}},
                      "bus"
                    ]}},
                    "max_cut_sets": {cap}
                  }}
                }}"#
            )
        };
        match run(&spec(5)).unwrap().measures {
            SolvedMeasures::FaultTree {
                minimal_cut_sets, ..
            } => assert_eq!(minimal_cut_sets.len(), 5),
            _ => panic!("expected fault-tree result"),
        }
        let err = run(&spec(4)).unwrap_err();
        assert!(matches!(err, Error::Model(_)), "{err:?}");
        let msg = err.to_string();
        assert!(
            msg.contains('5') && msg.contains("max_cut_sets = 4"),
            "{msg}"
        );
    }

    #[test]
    fn fault_tree_var_orders_agree_on_probability() {
        // Same tree, every ordering route: the BDD probability is exact
        // under any ordering, so all five must agree with the Input
        // (declaration-order) value to fp noise.
        let spec = |hint: &str| {
            format!(
                r#"{{
                  "fault_tree": {{
                    "events": [
                      {{"name": "p1", "probability": 0.01}},
                      {{"name": "p2", "probability": 0.01}},
                      {{"name": "bus", "probability": 0.001}}
                    ],
                    "top": {{"or": [{{"and": ["p1", "p2"]}}, "bus"]}},
                    "var_order": "{hint}"
                  }}
                }}"#
            )
        };
        let q_of = |report: SolveReport| match report.measures {
            SolvedMeasures::FaultTree {
                top_event_probability,
                ..
            } => top_event_probability,
            _ => panic!("expected fault-tree result"),
        };
        let expected = 1.0 - (1.0 - 1e-4) * (1.0 - 1e-3);
        for hint in ["auto", "input", "dfs", "weighted", "sift"] {
            let q = q_of(run(&spec(hint)).unwrap());
            assert!(
                (q - expected).abs() < 1e-12,
                "var_order {hint}: {q} vs {expected}"
            );
        }
    }

    #[test]
    fn fault_tree_bdd_knobs_surface_in_stats() {
        let json = r#"{
              "fault_tree": {
                "events": [
                  {"name": "a", "probability": 0.1},
                  {"name": "b", "probability": 0.2},
                  {"name": "c", "probability": 0.3}
                ],
                "top": {"k_of_n": {"k": 2, "of": ["a", "b", "c"]}}
              }
            }"#;
        let out = run(json).unwrap();
        assert!(out.stats.bdd_cache_evictions.is_some());
        assert!(out.stats.bdd_gc_runs.is_some());
        assert!(out.stats.bdd_gc_reclaimed.is_some());
        assert!(out.stats.bdd_sift_swaps.is_some());
        assert!(out.stats.bdd_peak_live_nodes.unwrap() > 0);
        let text = out.stats.to_json().to_json();
        assert!(text.contains("\"bdd_peak_live_nodes\":"));
    }

    #[test]
    fn fault_tree_var_order_hint_round_trips_and_rejects_junk() {
        let json = r#"{
              "fault_tree": {
                "events": [{"name": "a", "probability": 0.1}],
                "top": "a",
                "var_order": "weighted"
              }
            }"#;
        let spec = ModelSpec::from_json_str(json).unwrap();
        let again = ModelSpec::from_json_str(&spec.to_json().to_json()).unwrap();
        assert_eq!(spec, again);
        match &spec {
            ModelSpec::FaultTree(f) => assert_eq!(f.var_order, Some(VarOrder::Weighted)),
            _ => panic!("expected fault tree"),
        }
        let bad = json.replace("weighted", "random");
        assert!(ModelSpec::from_json_str(&bad).is_err());
    }

    #[test]
    fn ctmc_spec_all_measures() {
        let out = run(r#"{
              "ctmc": {
                "states": ["up", "down"],
                "transitions": [
                  {"from": "up", "to": "down", "rate": 1.0},
                  {"from": "down", "to": "up", "rate": 9.0}
                ],
                "up_states": ["up"],
                "absorbing": ["down"],
                "at_times": [0.1]
              }
            }"#)
        .unwrap();
        assert_eq!(out.stats.method, Some("gth"));
        assert!(out.stats.iterations > 0);
        match out.measures {
            SolvedMeasures::Ctmc {
                availability,
                mttf,
                transient,
                ..
            } => {
                assert!((availability.unwrap() - 0.9).abs() < 1e-12);
                assert!((mttf.unwrap() - 1.0).abs() < 1e-12);
                let rows = transient.unwrap();
                assert_eq!(rows.len(), 1);
                let total: f64 = rows[0].probabilities.iter().map(|(_, p)| p).sum();
                assert!((total - 1.0).abs() < 1e-9);
            }
            _ => panic!("expected CTMC result"),
        }
    }

    #[test]
    fn ctmc_methods_agree_and_report_identity() {
        let text = r#"{
          "ctmc": {
            "states": ["up", "down"],
            "transitions": [
              {"from": "up", "to": "down", "rate": 1.0},
              {"from": "down", "to": "up", "rate": 9.0}
            ],
            "up_states": ["up"]
          }
        }"#;
        let gth = solve_str_with(
            text,
            &SolveOptions::default().with_steady_solver(SteadySolver::Gth),
        )
        .unwrap();
        let sor = solve_str_with(
            text,
            &SolveOptions::default().with_steady_solver(SteadySolver::Sor),
        )
        .unwrap();
        let power = solve_str_with(
            text,
            &SolveOptions::default().with_steady_solver(SteadySolver::Power),
        )
        .unwrap();
        assert_eq!(gth.stats.method, Some("gth"));
        assert_eq!(sor.stats.method, Some("sor"));
        assert_eq!(power.stats.method, Some("power"));
        let a = gth.measures.availability().unwrap();
        assert!((sor.measures.availability().unwrap() - a).abs() < 1e-9);
        assert!((power.measures.availability().unwrap() - a).abs() < 1e-9);
    }

    /// A birth–death `ctmc` document: `n` states, failure 0.45 up the
    /// chain, repair 0.5 down it, the first ten states up.
    fn birth_death_spec(n: usize) -> String {
        let states: Vec<String> = (0..n).map(|i| format!("\"s{i}\"")).collect();
        let arcs: Vec<String> = (1..n)
            .map(|i| {
                format!(
                    r#"{{"from": "s{}", "to": "s{i}", "rate": 0.45}},
                       {{"from": "s{i}", "to": "s{}", "rate": 0.5}}"#,
                    i - 1,
                    i - 1
                )
            })
            .collect();
        format!(
            r#"{{"ctmc": {{"states": [{}], "transitions": [{}], "up_states": [{}]}}}}"#,
            states.join(","),
            arcs.join(","),
            states[..10].join(",")
        )
    }

    #[test]
    fn steady_state_failures_keep_their_kind() {
        // SOR runs out of its 20 000 sweeps on a long birth-death
        // chain: a convergence failure, not a chain without a stationary
        // vector.
        let text = birth_death_spec(2000);
        let sor = SolveOptions::default().with_steady_solver(SteadySolver::Sor);
        let err = solve_str_with(&text, &sor).unwrap_err();
        assert!(
            matches!(
                err,
                Error::Convergence {
                    iterations: 20_000,
                    ..
                }
            ),
            "{err:?}"
        );
        // GTH solves it exactly: pi_i ∝ 0.9^i.
        let gth = SolveOptions::default().with_steady_solver(SteadySolver::Gth);
        let a = solve_str_with(&text, &gth)
            .unwrap()
            .measures
            .availability()
            .unwrap();
        assert!((a - (1.0 - 0.9f64.powi(10))).abs() < 1e-12, "{a}");
        // A reducible chain is a model error carrying the solver's reason.
        let err = run(r#"{"ctmc": {"states": ["a", "b"],
                 "transitions": [{"from": "a", "to": "b", "rate": 1.0}],
                 "up_states": ["a"]}}"#)
        .unwrap_err();
        assert_eq!(
            err,
            Error::model(
                "up_states given but the chain has no stationary distribution: \
                 numerical failure: singular system: state 1 cannot reach \
                 lower-numbered states: chain is reducible"
            )
        );
    }

    #[test]
    fn irreducible_chain_without_up_states_reports_its_failed_steady_state() {
        // Nothing reads availability here, but the chain has a
        // stationary distribution, so SOR running out of sweeps is the
        // solve's error rather than a null steady state.
        let mut spec = ModelSpec::from_json_str(&birth_death_spec(2000)).unwrap();
        if let ModelSpec::Ctmc(c) = &mut spec {
            c.up_states = None;
        }
        let sor = SolveOptions::default().with_steady_solver(SteadySolver::Sor);
        let err = solve_with(&spec, &sor).unwrap_err();
        assert!(
            matches!(
                err,
                Error::Convergence {
                    iterations: 20_000,
                    ..
                }
            ),
            "{err:?}"
        );
        // A reducible chain has no stationary distribution to fail on.
        let out = run(r#"{"ctmc": {"states": ["a", "b"],
                 "transitions": [{"from": "a", "to": "b", "rate": 1.0}]}}"#)
        .unwrap();
        let SolvedMeasures::Ctmc { steady_state, .. } = out.measures else {
            panic!("expected CTMC measures");
        };
        assert!(steady_state.is_none());
    }

    /// A shipped CTMC with one rate set to 1e308 still reaches
    /// absorption from every state; its failed MTTF solve says the solve
    /// overflowed instead of blaming the chain's structure.
    #[test]
    fn overflowing_mttf_names_the_largest_rate() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
        for (name, path) in [
            ("two_component.json", "ctmc.transitions.0.rate"),
            ("maintained_cluster.json", "ctmc.transitions.1.rate"),
        ] {
            let text = std::fs::read_to_string(format!("{dir}/{name}")).unwrap();
            let mut doc = crate::json::parse(&text).unwrap();
            crate::json::set_number_at_path(&mut doc, path, 1e308).unwrap();
            let spec = ModelSpec::from_json(&doc).unwrap();
            let err = solve_with(&spec, &SolveOptions::default()).unwrap_err();
            assert!(matches!(err, Error::Numerical(_)), "{name}: {err:?}");
            let msg = err.to_string();
            assert!(
                msg.contains("MTTF solve overflowed (largest rate 1e308)"),
                "{name}: {msg}"
            );
        }
    }

    #[test]
    fn relgraph_spec_solves_bridge() {
        let out = run(r#"{
              "rel_graph": {
                "nodes": ["s", "a", "c", "t"],
                "edges": [
                  {"name": "e1", "from": "s", "to": "a", "reliability": 0.9},
                  {"name": "e2", "from": "s", "to": "c", "reliability": 0.9},
                  {"name": "e3", "from": "a", "to": "c", "reliability": 0.9},
                  {"name": "e4", "from": "a", "to": "t", "reliability": 0.9},
                  {"name": "e5", "from": "c", "to": "t", "reliability": 0.9}
                ],
                "source": "s",
                "sink": "t",
                "all_terminal": true
              }
            }"#)
        .unwrap();
        assert!(out.stats.bdd_nodes.unwrap() > 0);
        match out.measures {
            SolvedMeasures::RelGraph {
                reliability,
                all_terminal_reliability,
                minimal_path_sets,
                minimal_cut_sets,
            } => {
                let p: f64 = 0.9;
                let expected =
                    2.0 * p.powi(2) + 2.0 * p.powi(3) - 5.0 * p.powi(4) + 2.0 * p.powi(5);
                assert!((reliability - expected).abs() < 1e-12);
                assert!(all_terminal_reliability.unwrap() <= reliability);
                assert_eq!(minimal_path_sets.len(), 4);
                assert_eq!(minimal_cut_sets.len(), 4);
            }
            _ => panic!("expected rel-graph result"),
        }
    }

    #[test]
    fn spn_spec_solves_mm1k() {
        // M/M/1/3 queue: arrivals inhibited at 3 tokens. Closed-form
        // stationary distribution π_n ∝ ρ^n with ρ = λ/μ.
        let text = r#"{
          "spn": {
            "places": [{"name": "queue", "tokens": 0}],
            "transitions": [
              {"name": "arrive", "rate": 1.0,
               "outputs": [{"place": "queue"}],
               "inhibitors": [{"place": "queue", "count": 3}]},
              {"name": "serve", "rate": 2.0,
               "inputs": [{"place": "queue"}]}
            ],
            "expected_tokens": ["queue"],
            "throughput": ["serve"]
          }
        }"#;
        let out = run(text).unwrap();
        assert_eq!(out.stats.spn_markings, Some(4));
        assert_eq!(out.stats.workers, 1);
        assert!(out.stats.spn_arcs.unwrap() > 0);
        assert!(out.stats.method.is_some());
        match &out.measures {
            SolvedMeasures::Spn {
                num_markings,
                expected_tokens,
                throughput,
            } => {
                assert_eq!(*num_markings, 4);
                let rho: f64 = 0.5;
                let z: f64 = (0..4).map(|n| rho.powi(n)).sum();
                let mean: f64 = (0..4).map(|n| f64::from(n) * rho.powi(n) / z).sum();
                assert!((expected_tokens[0].1 - mean).abs() < 1e-9);
                // Served flow = arrival flow admitted: λ·(1 − π_3).
                let expect_tp = 1.0 * (1.0 - rho.powi(3) / z);
                assert!((throughput[0].1 - expect_tp).abs() < 1e-9);
            }
            _ => panic!("expected SPN result"),
        }
        // The thread budget never changes the measures, and state-space
        // generation runs on the calling thread.
        let par = solve_str_with(text, &SolveOptions::default().with_threads(4)).unwrap();
        assert_eq!(par.stats.workers, 1);
        assert_eq!(par.measures, out.measures);
        // Serialization carries the spn block.
        let rendered = out.to_json().to_json();
        assert!(rendered.contains("\"spn\":"));
        assert!(rendered.contains("\"spn_markings\":4"));
    }

    #[test]
    fn spn_without_expected_tokens_reports_none() {
        // An absent list asks for no place, as an empty one does.
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
        let text = std::fs::read_to_string(format!("{dir}/tandem_queue.json")).unwrap();
        let mut spec = ModelSpec::from_json_str(&text).unwrap();
        let ModelSpec::Spn(s) = &mut spec else {
            panic!("expected an SPN spec");
        };
        s.expected_tokens = None;
        let out = solve_with(&spec, &SolveOptions::default()).unwrap();
        let SolvedMeasures::Spn {
            expected_tokens,
            throughput,
            ..
        } = &out.measures
        else {
            panic!("expected SPN measures");
        };
        assert!(expected_tokens.is_empty());
        assert_eq!(throughput.len(), 1);
        assert!(out
            .measures
            .to_json()
            .to_json()
            .contains("\"expected_tokens\":[]"));
    }

    #[test]
    fn spn_spec_semantic_errors() {
        // Unknown place in an arc.
        assert!(run(r#"{"spn": {"places": [{"name": "p", "tokens": 1}],
             "transitions": [{"name": "t", "rate": 1.0,
               "inputs": [{"place": "ghost"}]}]}}"#)
        .is_err());
        // Unknown measure targets.
        assert!(run(r#"{"spn": {"places": [{"name": "p", "tokens": 1}],
             "transitions": [{"name": "t", "rate": 1.0, "inputs": [{"place": "p"}],
               "outputs": [{"place": "p"}]}],
             "expected_tokens": ["ghost"]}}"#)
        .is_err());
        // max_markings cap fires.
        assert!(run(r#"{"spn": {"places": [{"name": "p", "tokens": 0}],
             "transitions": [{"name": "grow", "rate": 1.0,
               "outputs": [{"place": "p"}]}],
             "max_markings": 10}}"#)
        .is_err());
    }

    #[test]
    fn semantic_errors_are_reported() {
        // Unknown component reference.
        assert!(run(
            r#"{"rbd": {"components": [{"name": "a", "availability": 0.9}],
                 "structure": "nope"}}"#
        )
        .is_err());
        // Duplicate names.
        assert!(run(r#"{"rbd": {"components": [
                 {"name": "a", "availability": 0.9},
                 {"name": "a", "availability": 0.8}],
                 "structure": "a"}}"#)
        .is_err());
        // Bad JSON.
        assert!(run("{").is_err());
        // Unknown state in transitions.
        assert!(run(r#"{"ctmc": {"states": ["up"],
                 "transitions": [{"from": "up", "to": "ghost", "rate": 1.0}]}}"#)
        .is_err());
    }

    #[test]
    fn k_of_n_structure_in_rbd_spec() {
        let out = run(r#"{
              "rbd": {
                "components": [
                  {"name": "a", "availability": 0.9},
                  {"name": "b", "availability": 0.9},
                  {"name": "c", "availability": 0.9}
                ],
                "structure": {"k_of_n": {"k": 2, "of": ["a", "b", "c"]}}
              }
            }"#)
        .unwrap();
        match out.measures {
            SolvedMeasures::Rbd { availability, .. } => {
                let p: f64 = 0.9;
                let expected = 3.0 * p * p * (1.0 - p) + p * p * p;
                assert!((availability - expected).abs() < 1e-12);
            }
            _ => panic!("expected RBD result"),
        }
    }

    #[test]
    fn ctmc_without_optional_measures() {
        let out = run(r#"{
              "ctmc": {
                "states": ["a", "b"],
                "transitions": [
                  {"from": "a", "to": "b", "rate": 2.0},
                  {"from": "b", "to": "a", "rate": 1.0}
                ]
              }
            }"#)
        .unwrap();
        match out.measures {
            SolvedMeasures::Ctmc {
                steady_state,
                availability,
                mttf,
                transient,
                ..
            } => {
                let pi = steady_state.unwrap();
                assert!((pi[0].1 - 1.0 / 3.0).abs() < 1e-12);
                assert!(availability.is_none());
                assert!(mttf.is_none());
                assert!(transient.is_none());
            }
            _ => panic!("expected CTMC result"),
        }
    }

    #[test]
    fn absorbing_ctmc_spec_has_no_steady_state_but_mttf_works() {
        let out = run(r#"{
              "ctmc": {
                "states": ["up", "dead"],
                "transitions": [{"from": "up", "to": "dead", "rate": 0.5}],
                "absorbing": ["dead"]
              }
            }"#)
        .unwrap();
        assert!(out.stats.method.is_none());
        match out.measures {
            SolvedMeasures::Ctmc {
                steady_state, mttf, ..
            } => {
                assert!(steady_state.is_none());
                assert!((mttf.unwrap() - 2.0).abs() < 1e-12);
            }
            _ => panic!("expected CTMC result"),
        }
    }

    #[test]
    fn accessors_pick_the_right_measure() {
        let rbd = run(
            r#"{"rbd": {"components": [{"name": "a", "availability": 0.5}],
                 "structure": "a"}}"#,
        )
        .unwrap();
        assert_eq!(rbd.measures.availability(), Some(0.5));
        assert_eq!(rbd.measures.unreliability(), None);
        assert_eq!(rbd.measures.mttf(), None);

        let ft = run(
            r#"{"fault_tree": {"events": [{"name": "e", "probability": 0.25}],
                 "top": "e"}}"#,
        )
        .unwrap();
        assert_eq!(ft.measures.unreliability(), Some(0.25));
        assert_eq!(ft.measures.availability(), None);

        let ctmc = run(r#"{"ctmc": {"states": ["up", "dead"],
                 "transitions": [{"from": "up", "to": "dead", "rate": 0.5}],
                 "absorbing": ["dead"]}}"#)
        .unwrap();
        assert_eq!(ctmc.measures.mttf(), Some(2.0));
    }

    // Two-of-three workstations behind a file server, all exponential:
    // small enough to simulate in milliseconds, rich enough to exercise
    // repair, parallel structure, and the derived-availability path.
    const SIM_RBD: &str = r#"{
      "rbd": {
        "components": [
          {"name": "ws1",
           "ttf_dist": {"exponential": {"mean": 500.0}},
           "ttr_dist": {"exponential": {"mean": 5.0}}},
          {"name": "ws2",
           "ttf_dist": {"exponential": {"mean": 500.0}},
           "ttr_dist": {"exponential": {"mean": 5.0}}},
          {"name": "fs",
           "ttf_dist": {"exponential": {"mean": 2000.0}},
           "ttr_dist": {"exponential": {"mean": 4.0}}}
        ],
        "structure": {"series": [{"parallel": ["ws1", "ws2"]}, "fs"]},
        "sim": {
          "measure": "availability",
          "horizon": 5000.0,
          "seed": 8,
          "max_replications": 128,
          "rel_precision": 0.0,
          "confidence": 0.99
        }
      }
    }"#;

    #[test]
    fn rbd_sim_spec_simulates_and_brackets_the_analytic_value() {
        let out = run(SIM_RBD).unwrap();
        assert_eq!(out.stats.sim_replications, Some(128));
        assert!(out.stats.sim_events.unwrap() > 0);
        assert_eq!(out.stats.workers, 1);
        match &out.measures {
            SolvedMeasures::Sim {
                measure,
                point,
                ci_lower,
                ci_upper,
                confidence,
                downtime_minutes_per_year,
                ..
            } => {
                assert_eq!(measure, "availability");
                assert_eq!(*confidence, 0.99);
                // Exponential case: availability is insensitive, so the
                // analytic RBD value is exact.
                let a_ws = 500.0 / 505.0;
                let a_fs = 2000.0 / 2004.0;
                let exact = (1.0 - (1.0 - a_ws) * (1.0 - a_ws)) * a_fs;
                assert!(
                    *ci_lower <= exact && exact <= *ci_upper,
                    "analytic {exact} outside [{ci_lower}, {ci_upper}]"
                );
                assert_eq!(out.measures.availability(), Some(*point));
                assert!(downtime_minutes_per_year.is_some());
            }
            other => panic!("expected sim result, got {other:?}"),
        }
        // The JSON output is tagged "sim" and carries the CI.
        let text = out.to_json().to_json();
        assert!(text.contains("\"sim\":"));
        assert!(text.contains("\"ci_lower\":"));
        assert!(text.contains("\"sim_converged\":"));
    }

    #[test]
    fn sim_results_are_identical_at_any_worker_count() {
        let base = run(SIM_RBD).unwrap();
        for threads in [2, 4, 8] {
            let par =
                solve_str_with(SIM_RBD, &SolveOptions::default().with_threads(threads)).unwrap();
            assert_eq!(par.measures, base.measures, "threads {threads}");
            assert_eq!(par.stats.workers, threads);
        }
    }

    #[test]
    fn sim_block_replications_and_seed_steer_the_run() {
        let capped = SIM_RBD.replace("\"max_replications\": 128", "\"max_replications\": 64");
        let out = run(&capped.replace("\"seed\": 8", "\"seed\": 1234")).unwrap();
        assert_eq!(out.stats.sim_replications, Some(64));
        // A different seed must change the estimate (vanishingly
        // unlikely to collide to the same 64 trajectories).
        let base = run(&capped).unwrap();
        assert_ne!(out.measures, base.measures);
    }

    #[test]
    fn simulate_option_without_sim_block_is_an_error() {
        let spec = r#"{"rbd": {"components": [{"name": "a", "availability": 0.5}],
             "structure": "a"}}"#;
        let err = solve_str_with(spec, &SolveOptions::default().with_simulate(true));
        assert!(err.is_err());
        // And the analytic path still works without the flag.
        assert!(solve_str_with(spec, &SolveOptions::default()).is_ok());
    }

    #[test]
    fn dist_components_without_sim_block_solve_analytically() {
        // No sim block: the solver derives each availability from the
        // distribution means (exact by insensitivity) and runs the BDD.
        let out = run(r#"{
          "rbd": {
            "components": [
              {"name": "a",
               "ttf_dist": {"exponential": {"mean": 900.0}},
               "ttr_dist": {"lognormal": {"mean": 100.0, "cv2": 4.0}}}
            ],
            "structure": "a"
          }
        }"#)
        .unwrap();
        match out.measures {
            SolvedMeasures::Rbd { availability, .. } => {
                assert!((availability - 0.9).abs() < 1e-12);
            }
            _ => panic!("expected analytic RBD result"),
        }
        // But a non-repairable component cannot be solved analytically.
        assert!(run(r#"{
          "rbd": {
            "components": [
              {"name": "a", "ttf_dist": {"exponential": {"mean": 900.0}}}
            ],
            "structure": "a"
          }
        }"#)
        .is_err());
    }

    #[test]
    fn fault_tree_sim_reliability_matches_analytic_series() {
        // Two independent exponential events, OR gate, no repair: the
        // analytic mission reliability is exp(-(l1+l2) t).
        let spec = r#"{
          "fault_tree": {
            "events": [
              {"name": "e1", "ttf_dist": {"exponential": {"rate": 0.002}}},
              {"name": "e2", "ttf_dist": {"exponential": {"rate": 0.001}}}
            ],
            "top": {"or": ["e1", "e2"]},
            "sim": {
              "measure": "reliability",
              "mission_time": 200.0,
              "seed": 11,
              "max_replications": 4096,
              "rel_precision": 0.0
            }
          }
        }"#;
        let out = run(spec).unwrap();
        match &out.measures {
            SolvedMeasures::Sim {
                measure,
                point,
                ci_lower,
                ci_upper,
                ..
            } => {
                assert_eq!(measure, "reliability");
                let exact = (-0.003f64 * 200.0).exp();
                assert!(
                    *ci_lower <= exact && exact <= *ci_upper,
                    "analytic {exact} outside [{ci_lower}, {ci_upper}]"
                );
                assert_eq!(out.measures.unreliability(), Some(1.0 - point));
            }
            other => panic!("expected sim result, got {other:?}"),
        }
    }

    #[test]
    fn sim_mttf_measure_reports_in_mttf_accessor() {
        let spec = r#"{
          "rbd": {
            "components": [
              {"name": "a", "ttf_dist": {"exponential": {"mean": 100.0}}}
            ],
            "structure": "a",
            "sim": {
              "measure": "mttf",
              "time_cap": 1e7,
              "seed": 3,
              "max_replications": 1024,
              "rel_precision": 0.0
            }
          }
        }"#;
        let out = run(spec).unwrap();
        let mttf = out.measures.mttf().unwrap();
        // 1024 replications of an exponential(100): well within 15%.
        assert!((mttf - 100.0).abs() < 15.0, "mttf {mttf}");
    }

    #[test]
    fn result_serializes_to_json() {
        let out = run(
            r#"{"rbd": {"components": [{"name": "a", "availability": 0.5}],
                 "structure": "a"}}"#,
        )
        .unwrap();
        let text = out.to_json().to_json_pretty();
        assert!(text.contains("availability"));
        assert!(text.contains("downtime_minutes_per_year"));
        assert!(text.contains("wall_time_ms"));
        // Output is valid JSON.
        assert!(crate::json::parse(&text).is_ok());
    }

    #[test]
    fn kind_discriminant_and_primary_value() {
        let out = run(
            r#"{"rbd": {"components": [{"name": "a", "availability": 0.5}],
                 "structure": "a"}}"#,
        )
        .unwrap();
        assert_eq!(out.measures.kind(), "rbd");
        assert_eq!(out.measures.primary_value(), Some(0.5));
        let doc = out.measures.to_json();
        let kind = crate::json::get_path(&doc, "kind").and_then(|v| v.as_str());
        assert_eq!(kind, Some("rbd"));
        assert!(crate::json::get_path(&doc, "rbd.availability").is_some());
    }

    /// A birth-death availability chain of `n` states: failure `lambda`
    /// forward, repair `mu` back, the lower half up.
    fn birth_death(n: usize, lambda: f64, mu: f64) -> String {
        let states: Vec<String> = (0..n).map(|i| format!("\"s{i}\"")).collect();
        let transitions: Vec<String> = (1..n)
            .map(|i| {
                format!(
                    r#"{{"from": "s{}", "to": "s{i}", "rate": {lambda}}},
                       {{"from": "s{i}", "to": "s{}", "rate": {mu}}}"#,
                    i - 1,
                    i - 1
                )
            })
            .collect();
        format!(
            r#"{{"ctmc": {{"states": [{}], "transitions": [{}], "up_states": [{}]}}}}"#,
            states.join(","),
            transitions.join(","),
            states[..n / 2].join(",")
        )
    }

    #[test]
    fn availability_rounded_past_one_reads_as_one() {
        // The up half holds all but ~1e-20 of the mass; its 12 terms sum
        // to 1.0000000000000002, which used to fail the solve.
        let chain = birth_death(24, 0.01, 0.5);
        let SolvedMeasures::Ctmc {
            availability,
            downtime_minutes_per_year: downtime,
            ..
        } = run(&chain).unwrap().measures
        else {
            panic!("expected CTMC measures");
        };
        assert_eq!(availability, Some(1.0));
        assert_eq!(downtime, Some(0.0));
        // One such sample used to fail a whole uncertainty solve.
        let wrapped = run(&format!(
            r#"{{"uncertainty": {{"model": {chain}, "measure": "availability", "samples": 8,
                 "parameters": [{{"path": "ctmc.transitions.1.rate",
                                  "prior": {{"uniform": {{"low": 0.49, "high": 0.51}}}}}}]}}}}"#
        ));
        let mean = wrapped.unwrap().measures.primary_value().unwrap();
        assert!(mean > 1.0 - 1e-15 && mean <= 1.0, "mean {mean}");
        // Only round-off is forgiven: n·ε above one, not more.
        let n = 12;
        let edge = 1.0 + n as f64 * f64::EPSILON;
        assert_eq!(availability_from_sum(edge, n), 1.0);
        let past = 1.0 + (n + 1) as f64 * f64::EPSILON;
        assert_eq!(availability_from_sum(past, n), past);
        assert!(downtime_minutes_per_year(availability_from_sum(past, n)).is_err());
        assert_eq!(availability_from_sum(0.75, n), 0.75);
    }
}
