//! Solve options and instrumented solve reports — the configuration
//! and telemetry halves of the `solve_with` API.

use crate::convert::SolvedMeasures;
use crate::json::{self, JsonValue};
use std::time::Duration;

/// How a specification is solved: the thread budget, the steady-state
/// method, whether to simulate, and the SPN memory budget. The model's
/// own numbers (simulation seed and replications, sample counts,
/// tolerances, truncation order, variable order) are keys of its
/// document.
///
/// `SolveOptions::default()` solves on the calling thread with
/// automatic steady-state method selection and no memory budget.
///
/// The struct is `#[non_exhaustive]`; construct it with
/// [`SolveOptions::default`] and adjust fields directly or through the
/// `with_*` builders:
///
/// ```
/// use reliab_spec::{SolveOptions, SteadySolver};
///
/// let opts = SolveOptions::default()
///     .with_steady_solver(SteadySolver::Power)
///     .with_threads(4);
/// assert_eq!(opts.steady_solver, SteadySolver::Power);
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SolveOptions {
    /// Steady-state method for CTMC and SPN models. An explicit SOR or
    /// power solve runs the library's tolerance (`1e-12`) and sweep
    /// budget (20 000).
    pub steady_solver: SteadySolver,
    /// The solve's thread budget: `1` (the default) solves on the
    /// calling thread, `0` means one thread per available CPU. The
    /// outermost layer with items to spread (uncertainty samples,
    /// hierarchy submodels) runs `min(threads, items)` workers and
    /// hands each item the whole budget when that is one worker, else
    /// a budget of one; simulation replications run the budget they
    /// are handed (see [`reliab_core::Split`]).
    /// Every measure is bitwise identical at any setting.
    pub threads: usize,
    /// Forces discrete-event simulation for component models (RBD and
    /// fault trees) that carry a `sim` block, even when an analytic
    /// solve would also be possible. Has no effect on models without a
    /// `sim` block other than producing an error, which keeps a typo'd
    /// `--method sim` from silently solving analytically.
    pub simulate: bool,
    /// Total byte budget of an SPN solve (row source, iteration vectors
    /// and slice cache combined). `None` means unlimited: the state-space
    /// walk keeps every generator row. With a budget the walk keeps them
    /// while they fit it, and once they would not the rows are
    /// regenerated from the marking arena, cached as the budget allows;
    /// the measures are the same to the bit. A budget below GTH's floor
    /// solves a small net by SOR, and one the exact solve cannot meet
    /// escalates to the aggregation bounds path.
    pub mem_budget: Option<usize>,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            steady_solver: SteadySolver::Auto,
            threads: 1,
            simulate: false,
            mem_budget: None,
        }
    }
}

impl SolveOptions {
    /// Selects the CTMC steady-state method.
    #[must_use]
    pub fn with_steady_solver(mut self, solver: SteadySolver) -> Self {
        self.steady_solver = solver;
        self
    }

    /// Sets the thread budget (`0` = one per CPU).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Forces discrete-event simulation for component models.
    #[must_use]
    pub fn with_simulate(mut self, simulate: bool) -> Self {
        self.simulate = simulate;
        self
    }

    /// Sets the SPN solve's total byte budget.
    #[must_use]
    pub fn with_mem_budget(mut self, bytes: usize) -> Self {
        self.mem_budget = Some(bytes);
        self
    }
}

/// BDD variable ordering of a fault-tree solve: the type of a fault
/// tree's `var_order` key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum VarOrder {
    /// The depth-first heuristic (the recommended default, and what an
    /// absent `var_order` key means).
    #[default]
    Auto,
    /// Declaration order of the `events` array — the pre-heuristic
    /// behavior, for reproducing historical results.
    Input,
    /// Depth-first traversal of the top gate: events near each other in
    /// the tree get adjacent BDD levels.
    DepthFirst,
    /// Top-down weight heuristic: events reachable through short,
    /// narrow gate paths order first.
    Weighted,
    /// Depth-first initial order refined by sifting (dynamic
    /// reordering). Smallest BDDs, highest compile cost.
    Sift,
}

impl VarOrder {
    /// Parses the JSON spelling (`"auto"`, `"input"`, `"dfs"`,
    /// `"weighted"`, `"sift"`).
    pub fn parse(s: &str) -> Option<VarOrder> {
        match s {
            "auto" => Some(VarOrder::Auto),
            "input" | "declaration" => Some(VarOrder::Input),
            "dfs" | "depth_first" => Some(VarOrder::DepthFirst),
            "weighted" => Some(VarOrder::Weighted),
            "sift" => Some(VarOrder::Sift),
            _ => None,
        }
    }

    /// The canonical spelling, as accepted by [`VarOrder::parse`].
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            VarOrder::Auto => "auto",
            VarOrder::Input => "input",
            VarOrder::DepthFirst => "dfs",
            VarOrder::Weighted => "weighted",
            VarOrder::Sift => "sift",
        }
    }
}

/// The steady-state method of CTMC and SPN solves: `reliab-markov`'s
/// one method type.
pub type SteadySolver = reliab_markov::SteadyMethod;

/// Telemetry recorded while solving one specification.
#[derive(Debug, Clone, PartialEq, Default)]
#[non_exhaustive]
pub struct SolveStats {
    /// Wall-clock time of the whole solve (parse excluded).
    pub wall_time: Duration,
    /// Worker threads the solve ran at once: the widest of its
    /// parallel layers (uncertainty samples, hierarchy sweep,
    /// simulation replications), 1 when none ran in parallel. Never
    /// more than [`SolveOptions::threads`].
    pub workers: usize,
    /// Solver work performed: sweeps plus matrix–vector products for
    /// Markov models, ITE operations for BDD-based combinatorial
    /// models.
    pub iterations: usize,
    /// Final convergence residual of the steady-state solve, when an
    /// iterative method ran (GTH is direct and reports `Some(0.0)`).
    pub residual: Option<f64>,
    /// The steady-state method that actually ran (`"gth"`, `"sor"`,
    /// `"power"`), for CTMC models.
    pub method: Option<&'static str>,
    /// BDD arena size after the solve, for BDD-based models.
    pub bdd_nodes: Option<usize>,
    /// ITE computed-cache lookups, for BDD-based models.
    pub bdd_cache_lookups: Option<u64>,
    /// ITE computed-cache hits, for BDD-based models.
    pub bdd_cache_hits: Option<u64>,
    /// ITE computed-cache evictions (bounded cache collisions), for
    /// BDD-based models.
    pub bdd_cache_evictions: Option<u64>,
    /// Garbage-collection passes run during the solve.
    pub bdd_gc_runs: Option<u64>,
    /// Nodes reclaimed by garbage collection during the solve.
    pub bdd_gc_reclaimed: Option<u64>,
    /// Adjacent-level swaps performed by sifting, when dynamic
    /// reordering ran.
    pub bdd_sift_swaps: Option<u64>,
    /// High-water mark of live BDD nodes during the solve.
    pub bdd_peak_live_nodes: Option<usize>,
    /// ITE computed-cache hit rate in `[0, 1]`, for BDD-based models.
    pub bdd_ite_hit_rate: Option<f64>,
    /// Live nodes relocated by compacting garbage collection (every GC
    /// pass compacts; `bdd_gc_runs` is the compaction count).
    pub bdd_gc_moved: Option<u64>,
    /// Tangible markings in the generated state space, for SPN models.
    pub spn_markings: Option<usize>,
    /// CTMC transitions in the generated state space, for SPN models.
    pub spn_arcs: Option<usize>,
    /// Vanishing (immediate) markings eliminated on the fly, for SPN
    /// models.
    pub spn_vanishing_eliminated: Option<u64>,
    /// Replications the simulation actually ran, for simulated models.
    pub sim_replications: Option<usize>,
    /// Total simulated events across all replications, for simulated
    /// models.
    pub sim_events: Option<u64>,
    /// Stopping-rule rounds the simulation evaluated, for simulated
    /// models.
    pub sim_rounds: Option<usize>,
    /// Final relative CI half-width, for simulated models.
    pub sim_rel_half_width: Option<f64>,
    /// Whether the stopping rule converged before the replication cap,
    /// for simulated models.
    pub sim_converged: Option<bool>,
    /// Fixed-point sweeps performed, for hierarchy models.
    pub hier_iterations: Option<usize>,
    /// Final fixed-point residual, for hierarchy models.
    pub hier_residual: Option<f64>,
    /// Phases in the CTMC expansion used for interval availability,
    /// for semi-Markov models.
    pub smp_expanded_states: Option<usize>,
    /// Monte-Carlo samples actually drawn, for uncertainty models.
    pub uncert_samples: Option<usize>,
    /// Cut sets used, for bounds models.
    pub bounds_cut_sets: Option<usize>,
    /// Truncation order the bounds were computed at, for bounds
    /// models.
    pub bounds_truncation_order: Option<usize>,
    /// Column blocks an SPN's steady-state sweep used, when SOR or
    /// power solved it.
    pub stream_blocks: Option<usize>,
    /// Blocks whose column slice stayed cached across sweeps (the rest
    /// were recomputed from the row source every sweep), when SOR or
    /// power solved an SPN.
    pub stream_cached_blocks: Option<usize>,
    /// Planner's peak-resident estimate in bytes (row source, vectors
    /// and slice cache) of an SPN's SOR or power sweep, or of its
    /// bounds.
    pub stream_peak_bytes: Option<u64>,
    /// Whether the memory budget forced an SPN solve from the exact
    /// steady state to the aggregation bounds path.
    pub stream_bounded: Option<bool>,
    /// Width of the reward bracket, when the bounds escalation ran.
    pub stream_bound_gap: Option<f64>,
}

impl SolveStats {
    /// Serializes to the JSON stats object emitted by the CLI.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let opt_num = |x: Option<f64>| x.map_or(JsonValue::Null, JsonValue::Number);
        json::object(vec![
            (
                "wall_time_ms",
                JsonValue::Number(self.wall_time.as_secs_f64() * 1e3),
            ),
            ("workers", JsonValue::Number(self.workers as f64)),
            ("iterations", JsonValue::Number(self.iterations as f64)),
            ("residual", opt_num(self.residual)),
            (
                "method",
                self.method.map_or(JsonValue::Null, JsonValue::from),
            ),
            ("bdd_nodes", opt_num(self.bdd_nodes.map(|n| n as f64))),
            (
                "bdd_cache_lookups",
                opt_num(self.bdd_cache_lookups.map(|n| n as f64)),
            ),
            (
                "bdd_cache_hits",
                opt_num(self.bdd_cache_hits.map(|n| n as f64)),
            ),
            (
                "bdd_cache_evictions",
                opt_num(self.bdd_cache_evictions.map(|n| n as f64)),
            ),
            ("bdd_gc_runs", opt_num(self.bdd_gc_runs.map(|n| n as f64))),
            (
                "bdd_gc_reclaimed",
                opt_num(self.bdd_gc_reclaimed.map(|n| n as f64)),
            ),
            (
                "bdd_sift_swaps",
                opt_num(self.bdd_sift_swaps.map(|n| n as f64)),
            ),
            (
                "bdd_peak_live_nodes",
                opt_num(self.bdd_peak_live_nodes.map(|n| n as f64)),
            ),
            ("bdd_ite_hit_rate", opt_num(self.bdd_ite_hit_rate)),
            ("bdd_gc_moved", opt_num(self.bdd_gc_moved.map(|n| n as f64))),
            ("spn_markings", opt_num(self.spn_markings.map(|n| n as f64))),
            ("spn_arcs", opt_num(self.spn_arcs.map(|n| n as f64))),
            (
                "spn_vanishing_eliminated",
                opt_num(self.spn_vanishing_eliminated.map(|n| n as f64)),
            ),
            (
                "sim_replications",
                opt_num(self.sim_replications.map(|n| n as f64)),
            ),
            ("sim_events", opt_num(self.sim_events.map(|n| n as f64))),
            ("sim_rounds", opt_num(self.sim_rounds.map(|n| n as f64))),
            ("sim_rel_half_width", opt_num(self.sim_rel_half_width)),
            (
                "sim_converged",
                self.sim_converged.map_or(JsonValue::Null, JsonValue::Bool),
            ),
            (
                "hier_iterations",
                opt_num(self.hier_iterations.map(|n| n as f64)),
            ),
            ("hier_residual", opt_num(self.hier_residual)),
            (
                "smp_expanded_states",
                opt_num(self.smp_expanded_states.map(|n| n as f64)),
            ),
            (
                "uncert_samples",
                opt_num(self.uncert_samples.map(|n| n as f64)),
            ),
            (
                "bounds_cut_sets",
                opt_num(self.bounds_cut_sets.map(|n| n as f64)),
            ),
            (
                "bounds_truncation_order",
                opt_num(self.bounds_truncation_order.map(|n| n as f64)),
            ),
            (
                "stream_blocks",
                opt_num(self.stream_blocks.map(|n| n as f64)),
            ),
            (
                "stream_cached_blocks",
                opt_num(self.stream_cached_blocks.map(|n| n as f64)),
            ),
            (
                "stream_peak_bytes",
                opt_num(self.stream_peak_bytes.map(|n| n as f64)),
            ),
            (
                "stream_bounded",
                self.stream_bounded.map_or(JsonValue::Null, JsonValue::Bool),
            ),
            ("stream_bound_gap", opt_num(self.stream_bound_gap)),
        ])
    }
}

/// The result of solving one specification: the measures plus the
/// telemetry gathered while producing them.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SolveReport {
    /// The solved measures.
    pub measures: SolvedMeasures,
    /// Solver telemetry.
    pub stats: SolveStats,
}

impl SolveReport {
    /// Serializes as `{"measures": ..., "stats": ...}`.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        json::object(vec![
            ("measures", self.measures.to_json()),
            ("stats", self.stats.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_match_historical_solver_settings() {
        let opts = SolveOptions::default();
        assert_eq!(opts.steady_solver, SteadySolver::Auto);
        assert_eq!(opts.threads, 1);
        assert!(!opts.simulate);
        assert_eq!(opts.mem_budget, None);
        assert_eq!(SolveOptions::default().with_threads(0).threads, 0);
    }

    #[test]
    fn builders_compose() {
        let opts = SolveOptions::default()
            .with_steady_solver(SteadySolver::Gth)
            .with_threads(4)
            .with_simulate(true)
            .with_mem_budget(1 << 20);
        assert_eq!(opts.steady_solver, SteadySolver::Gth);
        assert_eq!(opts.threads, 4);
        assert!(opts.simulate);
        assert_eq!(opts.mem_budget, Some(1 << 20));
    }

    #[test]
    fn stats_serialize_with_nulls_for_absent_fields() {
        let stats = SolveStats::default();
        let text = stats.to_json().to_json();
        assert!(text.contains("\"residual\":null"));
        assert!(text.contains("\"iterations\":0"));
        assert!(text.contains("\"bdd_gc_runs\":null"));
        assert!(text.contains("\"bdd_peak_live_nodes\":null"));
    }

    #[test]
    fn var_order_round_trips_through_parse() {
        for order in [
            VarOrder::Auto,
            VarOrder::Input,
            VarOrder::DepthFirst,
            VarOrder::Weighted,
            VarOrder::Sift,
        ] {
            assert_eq!(VarOrder::parse(order.as_str()), Some(order));
        }
        assert_eq!(VarOrder::parse("declaration"), Some(VarOrder::Input));
        assert_eq!(VarOrder::parse("depth_first"), Some(VarOrder::DepthFirst));
        assert_eq!(VarOrder::parse("bogus"), None);
    }

    #[test]
    fn sim_stats_serialize_with_nulls_when_absent() {
        let stats = SolveStats::default();
        let text = stats.to_json().to_json();
        assert!(text.contains("\"sim_replications\":null"));
        assert!(text.contains("\"sim_converged\":null"));

        let stats = SolveStats {
            sim_replications: Some(128),
            sim_converged: Some(true),
            ..SolveStats::default()
        };
        let text = stats.to_json().to_json();
        assert!(text.contains("\"sim_replications\":128"));
        assert!(text.contains("\"sim_converged\":true"));
    }
}
