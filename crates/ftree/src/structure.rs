//! The structure-function kernel both model views share: compiling a
//! gate tree to a BDD, and the probability and importance passes over
//! the compiled function.
//!
//! A block diagram and a fault tree are one Boolean function of the
//! component states, read in success space (true while the system
//! works) or in failure space (true once it has failed). [`Polarity`]
//! names the view; compilation, ordering, garbage collection and the
//! passes are common.

use crate::bdd_err;
use crate::tree::{CompileOptions, FtNode, VariableOrdering};
use reliab_bdd::{Bdd, BddConfig, BddRef, NodeId};
use reliab_core::{ensure_probability, Error, ImportanceMeasures, Result};
use reliab_obs as obs;

/// Which truth value of a structure function a model reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polarity {
    /// The function holds while the system works, and an item's value
    /// is its probability of working: a reliability block diagram.
    Success,
    /// The function holds once the system has failed, and an item's
    /// value is its probability of failing: a fault tree.
    Failure,
}

impl Polarity {
    /// Unreliability from a probability this view reads.
    fn unrel(self, x: f64) -> f64 {
        match self {
            Polarity::Success => 1.0 - x,
            Polarity::Failure => x,
        }
    }

    /// The item value that makes an item perfect: it always works, or
    /// it never fails.
    fn perfect(self) -> f64 {
        match self {
            Polarity::Success => 1.0,
            Polarity::Failure => 0.0,
        }
    }

    fn terms(self) -> &'static Terms {
        match self {
            Polarity::Success => &RBD,
            Polarity::Failure => &FAULT_TREE,
        }
    }
}

/// The names a view gives its compile telemetry and its errors.
struct Terms {
    compile_span: &'static str,
    compiles: &'static str,
    compiled: &'static str,
    /// An item, and items in the plural.
    item: &'static str,
    items: &'static str,
    /// What an item's value is, in a range error.
    value: &'static str,
    no_items: &'static str,
    /// The `And`, `Or` and k-of-n nodes, in an "empty ..." error.
    and: &'static str,
    or: &'static str,
    k_of_n: &'static str,
    /// The k-of-n node, in a `k` range error.
    k_range: &'static str,
    no_importance: &'static str,
}

const RBD: Terms = Terms {
    compile_span: "rbd.compile_bdd",
    compiles: "rbd.compiles",
    compiled: "rbd.compiled",
    item: "component",
    items: "components",
    value: "availability",
    no_items: "RBD has no components",
    and: "series group",
    or: "parallel group",
    k_of_n: "k-of-n group",
    k_range: "k-of-n",
    no_importance: "system unreliability is zero; importance measures are undefined",
};

const FAULT_TREE: Terms = Terms {
    compile_span: "ftree.compile_bdd",
    compiles: "ftree.compiles",
    compiled: "ftree.compiled",
    item: "event",
    items: "events",
    value: "failure probability",
    no_items: "fault tree has no basic events",
    and: "AND gate",
    or: "OR gate",
    k_of_n: "k-of-n gate",
    k_range: "k-of-n gate",
    no_importance: "top-event probability is zero; importance measures undefined",
};

/// A structure function compiled to a BDD over items in declaration
/// order.
#[derive(Debug)]
pub(crate) struct Structure {
    pub(crate) names: Vec<String>,
    pub(crate) bdd: Bdd,
    pub(crate) root: NodeId,
    /// `event_to_var[e]` = BDD variable of item `e`.
    pub(crate) event_to_var: Vec<u32>,
    polarity: Polarity,
    /// GC root pinning `root` for the life of the function.
    _root_guard: BddRef,
}

impl Structure {
    /// Compiles `top` over the items `names`, read in `polarity`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Model`] for no items, more items than the BDD
    /// kernel holds, empty nodes, k-of-n thresholds out of range, or
    /// foreign item handles.
    pub(crate) fn compile(
        names: Vec<String>,
        top: &FtNode,
        options: &CompileOptions,
        polarity: Polarity,
    ) -> Result<Structure> {
        let terms = polarity.terms();
        let n = names.len();
        if n == 0 {
            return Err(Error::model(terms.no_items));
        }
        // event_to_var[e] = initial BDD level of event e. (Sifting may
        // permute levels afterwards; variable identity is stable.)
        let event_to_var: Vec<u32> = match options.ordering {
            VariableOrdering::Declaration => (0..n as u32).collect(),
            VariableOrdering::DepthFirst | VariableOrdering::Sifted => {
                let mut order = Vec::new();
                let mut seen = vec![false; n];
                dfs_order(top, &mut order, &mut seen, terms)?;
                // Events never referenced go to the end, in declaration
                // order.
                order.extend((0..n).filter(|&e| !seen[e]));
                let mut map = vec![0u32; n];
                for (level, &e) in order.iter().enumerate() {
                    map[e] = level as u32;
                }
                map
            }
            VariableOrdering::Weighted => weight_order(top, n, terms)?,
        };
        let _span = obs::span(terms.compile_span);
        let mut config = BddConfig::new();
        config.ite_cache_capacity = options.ite_cache_capacity;
        config.gc_node_threshold = options.gc_node_threshold;
        let mut bdd = Bdd::new_with(n, config).map_err(bdd_err)?;
        let mut ctx = CompileCtx {
            event_to_var: &event_to_var,
            terms,
            // Sifted ordering also reorders *during* compilation, at
            // deterministic safe points, so pessimal intermediate
            // explosions are cut down before they peak.
            dynamic_sift: options.ordering == VariableOrdering::Sifted,
            safe_points: 0,
            sift_at: DYNAMIC_SIFT_TRIGGER,
        };
        let mut root = compile(&mut bdd, top, &mut ctx)?;
        if options.ordering == VariableOrdering::Sifted {
            let _sift_span = obs::span("ftree.sift");
            // Sifting garbage-collects (compacting), renumbering every
            // node — the returned run carries the root's live id.
            root = bdd.sift(root).root;
        }
        // Pin the function so manager-level GC (explicit or
        // threshold-triggered) can never reclaim it.
        let root_guard = bdd.protect(root);
        bdd.record_observability();
        obs::counter_add(terms.compiles, 1);
        if obs::trace_enabled() {
            let stats = bdd.stats();
            obs::event(
                terms.compiled,
                &[
                    ("live_nodes", (stats.live_nodes as u64).into()),
                    ("peak_live_nodes", (stats.peak_live_nodes as u64).into()),
                    ("gc_runs", stats.gc_runs.into()),
                    ("gc_reclaimed", stats.gc_reclaimed.into()),
                    ("ite_lookups", stats.ite_cache_lookups.into()),
                    ("ite_hits", stats.ite_cache_hits.into()),
                ],
            );
        }
        Ok(Structure {
            names,
            bdd,
            root,
            event_to_var,
            polarity,
            _root_guard: root_guard,
        })
    }

    /// Probability that the function holds, given each item's value.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on a length mismatch or
    /// values outside `[0, 1]`.
    pub(crate) fn probability(&self, values: &[f64]) -> Result<f64> {
        let p = self.permuted(values)?;
        self.bdd.probability(self.root, &p).map_err(bdd_err)
    }

    /// Importance measures for every item, in either view:
    ///
    /// * Birnbaum: the derivative of the function's probability in the
    ///   item's value (`∂A/∂a_i = ∂Q/∂q_i`).
    /// * Criticality: `Birnbaum_i · q_i / Q`.
    /// * Fussell–Vesely (fractional form): `1 − Q(item i perfect) / Q`.
    ///
    /// `Q` and `q_i` are the system's and the item's unreliability, read
    /// from the view's probabilities by [`Polarity::unrel`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on bad values and
    /// [`Error::Model`] if the system cannot fail (`Q = 0`).
    pub(crate) fn importance(&self, values: &[f64]) -> Result<Vec<ImportanceMeasures>> {
        let polarity = self.polarity;
        let p = self.permuted(values)?;
        let q_sys = polarity.unrel(self.bdd.probability(self.root, &p).map_err(bdd_err)?);
        if q_sys <= 0.0 {
            return Err(Error::model(polarity.terms().no_importance));
        }
        let birnbaum_by_var = self.bdd.birnbaum(self.root, &p).map_err(bdd_err)?;
        let mut out = Vec::with_capacity(self.names.len());
        for (e, name) in self.names.iter().enumerate() {
            let var = self.event_to_var[e] as usize;
            let mut perfect = p.clone();
            perfect[var] = polarity.perfect();
            let q_perfect =
                polarity.unrel(self.bdd.probability(self.root, &perfect).map_err(bdd_err)?);
            out.push(ImportanceMeasures {
                component: name.clone(),
                birnbaum: birnbaum_by_var[var],
                criticality: birnbaum_by_var[var] * polarity.unrel(values[e]) / q_sys,
                fussell_vesely: 1.0 - q_perfect / q_sys,
            });
        }
        Ok(out)
    }

    pub(crate) fn check_probs(&self, p: &[f64]) -> Result<()> {
        let terms = self.polarity.terms();
        if p.len() != self.names.len() {
            return Err(Error::invalid(format!(
                "{} probabilities supplied for {} {}",
                p.len(),
                self.names.len(),
                terms.items
            )));
        }
        for (i, &v) in p.iter().enumerate() {
            ensure_probability(v, &format!("{} of '{}'", terms.value, self.names[i]))?;
        }
        Ok(())
    }

    /// Reorders an item-indexed vector into BDD-variable order.
    fn permuted(&self, values: &[f64]) -> Result<Vec<f64>> {
        self.check_probs(values)?;
        let mut p = vec![0.0; values.len()];
        for (e, &v) in values.iter().enumerate() {
            p[self.event_to_var[e] as usize] = v;
        }
        Ok(p)
    }
}

fn handle_error(e: usize, n: usize, terms: &Terms) -> Error {
    Error::model(format!(
        "{} handle {e} out of range ({n} {} declared)",
        terms.item, terms.items
    ))
}

/// Top-down weight heuristic: unit weight at the top, divided evenly
/// among gate inputs; events sort by descending accumulated weight,
/// then by first DFS appearance, then declaration order. Unreferenced
/// events (weight 0) land at the bottom in declaration order.
fn weight_order(top: &FtNode, n: usize, terms: &Terms) -> Result<Vec<u32>> {
    fn rec(
        node: &FtNode,
        share: f64,
        w: &mut [f64],
        first: &mut [usize],
        counter: &mut usize,
        terms: &Terms,
    ) -> Result<()> {
        match node {
            FtNode::Basic(e) => {
                if e.0 >= w.len() {
                    return Err(handle_error(e.0, w.len(), terms));
                }
                w[e.0] += share;
                if first[e.0] == usize::MAX {
                    first[e.0] = *counter;
                    *counter += 1;
                }
                Ok(())
            }
            FtNode::Or(inputs) | FtNode::And(inputs) | FtNode::KOfN { inputs, .. } => {
                // Empty gates are rejected later by `compile`.
                if inputs.is_empty() {
                    return Ok(());
                }
                let child_share = share / inputs.len() as f64;
                for i in inputs {
                    rec(i, child_share, w, first, counter, terms)?;
                }
                Ok(())
            }
        }
    }
    let mut w = vec![0.0f64; n];
    let mut first = vec![usize::MAX; n];
    let mut counter = 0usize;
    rec(top, 1.0, &mut w, &mut first, &mut counter, terms)?;
    let mut events: Vec<usize> = (0..n).collect();
    events.sort_by(|&a, &b| {
        w[b].total_cmp(&w[a])
            .then(first[a].cmp(&first[b]))
            .then(a.cmp(&b))
    });
    let mut map = vec![0u32; n];
    for (level, &e) in events.iter().enumerate() {
        map[e] = level as u32;
    }
    Ok(map)
}

fn dfs_order(
    node: &FtNode,
    order: &mut Vec<usize>,
    seen: &mut [bool],
    terms: &Terms,
) -> Result<()> {
    match node {
        FtNode::Basic(e) => {
            if e.0 >= seen.len() {
                return Err(handle_error(e.0, seen.len(), terms));
            }
            if !seen[e.0] {
                seen[e.0] = true;
                order.push(e.0);
            }
            Ok(())
        }
        FtNode::Or(inputs) | FtNode::And(inputs) | FtNode::KOfN { inputs, .. } => {
            for i in inputs {
                dfs_order(i, order, seen, terms)?;
            }
            Ok(())
        }
    }
}

/// First size at which compile-time sifting considers firing, and the
/// spacing (in safe points) of the deterministic size checks.
const DYNAMIC_SIFT_TRIGGER: usize = 1 << 10;
const DYNAMIC_SIFT_CHECK_INTERVAL: usize = 64;

/// Per-compilation state threaded through the `compile` recursion.
struct CompileCtx<'a> {
    event_to_var: &'a [u32],
    terms: &'static Terms,
    /// Sift at safe points during compilation (Sifted ordering only).
    dynamic_sift: bool,
    /// Safe points passed so far — a *structural* counter (one per
    /// gate-input accumulation), which is what keeps dynamic sifting
    /// deterministic.
    safe_points: usize,
    /// Live size of the accumulator at which the next sift fires.
    sift_at: usize,
}

/// Compiles `child` while `live` (the caller's in-flight accumulator)
/// is protected, so a garbage collection triggered at a safe point
/// inside the child cannot reclaim it. Every recursion level guards
/// its own accumulator this way, so at any GC the whole stack of
/// partial results is rooted. Collections *compact* (renumbering every
/// node), so the accumulator is returned re-read from its guard
/// alongside the child's result.
fn compile_guarded(
    bdd: &mut Bdd,
    live: NodeId,
    child: &FtNode,
    ctx: &mut CompileCtx<'_>,
) -> Result<(NodeId, NodeId)> {
    let guard = bdd.protect(live);
    let r = compile(bdd, child, ctx);
    let live = bdd.current(&guard);
    bdd.unprotect(guard);
    Ok((live, r?))
}

/// A safe point between gate-input accumulations: `live` is the only
/// intermediate the caller still needs, so protect it, let the manager
/// collect if it has crossed its threshold, and (under the Sifted
/// ordering) periodically reorder when the accumulator has outgrown
/// the last sift.
///
/// Returns the accumulator's possibly renumbered id. The sift trigger
/// reads only canonical state — the structural safe-point counter and
/// the accumulator's reachable node count — never the raw arena
/// population, which depends on how much garbage earlier operations
/// left behind.
fn gc_safe_point(bdd: &mut Bdd, live: NodeId, ctx: &mut CompileCtx<'_>) -> NodeId {
    let guard = bdd.protect(live);
    bdd.maybe_gc();
    ctx.safe_points += 1;
    if ctx.dynamic_sift && ctx.safe_points.is_multiple_of(DYNAMIC_SIFT_CHECK_INTERVAL) {
        let root = bdd.current(&guard);
        if bdd.node_count(root) >= ctx.sift_at {
            let _sift_span = obs::span("ftree.sift.dynamic");
            let run = bdd.sift(root);
            // Back off: re-sift only after the tree outgrows the
            // reordered size by 2x (floored at the initial trigger).
            ctx.sift_at = (run.size * 2).max(DYNAMIC_SIFT_TRIGGER);
        }
    }
    let live = bdd.current(&guard);
    bdd.unprotect(guard);
    live
}

fn compile(bdd: &mut Bdd, node: &FtNode, ctx: &mut CompileCtx<'_>) -> Result<NodeId> {
    let terms = ctx.terms;
    match node {
        FtNode::Basic(e) => {
            if e.0 >= ctx.event_to_var.len() {
                return Err(handle_error(e.0, ctx.event_to_var.len(), terms));
            }
            bdd.var(ctx.event_to_var[e.0]).map_err(bdd_err)
        }
        FtNode::Or(inputs) => {
            if inputs.is_empty() {
                return Err(Error::model(format!("empty {}", terms.or)));
            }
            let mut acc = NodeId::FALSE;
            for i in inputs {
                let (acc_now, x) = compile_guarded(bdd, acc, i, ctx)?;
                acc = bdd.or(acc_now, x);
                acc = gc_safe_point(bdd, acc, ctx);
            }
            Ok(acc)
        }
        FtNode::And(inputs) => {
            if inputs.is_empty() {
                return Err(Error::model(format!("empty {}", terms.and)));
            }
            let mut acc = NodeId::TRUE;
            for i in inputs {
                let (acc_now, x) = compile_guarded(bdd, acc, i, ctx)?;
                acc = bdd.and(acc_now, x);
                acc = gc_safe_point(bdd, acc, ctx);
            }
            Ok(acc)
        }
        FtNode::KOfN { k, inputs } => {
            if inputs.is_empty() {
                return Err(Error::model(format!("empty {}", terms.k_of_n)));
            }
            if *k == 0 || *k > inputs.len() {
                return Err(Error::model(format!(
                    "{} with k = {k} outside 1..={}",
                    terms.k_range,
                    inputs.len()
                )));
            }
            // Every compiled input stays protected until the voting
            // network is built: `at_least_k` needs them all at once.
            // Later inputs may trigger compacting collections, so the
            // ids are read back from the guards at the end.
            let mut guards = Vec::with_capacity(inputs.len());
            let mut compile_all = || -> Result<()> {
                for i in inputs {
                    let x = compile(bdd, i, ctx)?;
                    guards.push(bdd.protect(x));
                }
                Ok(())
            };
            let compiled = compile_all();
            let r = compiled.map(|()| {
                let xs: Vec<NodeId> = guards.iter().map(|g| bdd.current(g)).collect();
                bdd.at_least_k(&xs, *k)
            });
            for g in guards {
                bdd.unprotect(g);
            }
            let r = r?;
            Ok(gc_safe_point(bdd, r, ctx))
        }
    }
}
