//! Fault trees: the failure-space view of a structure function, with
//! the kernel's node type and compile options.

use crate::cutsets::CutSet;
use crate::structure::{Polarity, Structure};
use reliab_core::{Error, ImportanceMeasures, Result};
use reliab_dist::Lifetime;
use reliab_obs as obs;

/// Handle to a basic event, returned by [`FaultTreeBuilder::basic_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub(crate) usize);

impl EventId {
    /// Index into probability/lifetime vectors.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A fault-tree gate/event expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FtNode {
    /// A basic event (component failure).
    Basic(EventId),
    /// OR gate: output fails if any input fails.
    Or(Vec<FtNode>),
    /// AND gate: output fails if all inputs fail.
    And(Vec<FtNode>),
    /// Voting gate: output fails if at least `k` inputs fail.
    KOfN {
        /// Failure threshold.
        k: usize,
        /// Gate inputs.
        inputs: Vec<FtNode>,
    },
}

impl FtNode {
    /// OR gate.
    pub fn or(inputs: Vec<FtNode>) -> FtNode {
        FtNode::Or(inputs)
    }

    /// AND gate.
    pub fn and(inputs: Vec<FtNode>) -> FtNode {
        FtNode::And(inputs)
    }

    /// k-of-n voting gate.
    pub fn k_of_n(k: usize, inputs: Vec<FtNode>) -> FtNode {
        FtNode::KOfN { k, inputs }
    }

    /// OR over bare events.
    pub fn or_of(events: &[EventId]) -> FtNode {
        FtNode::Or(events.iter().map(|&e| FtNode::Basic(e)).collect())
    }

    /// AND over bare events.
    pub fn and_of(events: &[EventId]) -> FtNode {
        FtNode::And(events.iter().map(|&e| FtNode::Basic(e)).collect())
    }
}

impl From<EventId> for FtNode {
    fn from(e: EventId) -> FtNode {
        FtNode::Basic(e)
    }
}

/// How basic events are mapped to BDD variable levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VariableOrdering {
    /// Events keep the order they were declared in.
    #[default]
    Declaration,
    /// Events are ordered by first appearance in a depth-first
    /// traversal of the tree — the classic structural heuristic, which
    /// keeps related events adjacent and typically shrinks the BDD.
    DepthFirst,
    /// Events are ordered by descending structural weight: a unit
    /// weight flows down from the top event, split evenly across gate
    /// inputs, so events close to the top and/or repeated across
    /// subtrees sort first (ties broken by first DFS appearance). The
    /// top-down weight heuristic from the fault-tree BDD literature.
    Weighted,
    /// Compile with the depth-first order, then run dynamic sifting
    /// reordering (Rudell) on the resulting BDD. Most expensive, best
    /// final size — use for large trees that will be queried many
    /// times.
    Sifted,
}

/// Compilation knobs for [`FaultTreeBuilder::build_with`]: variable
/// ordering plus the BDD manager's cache/GC tuning.
///
/// `0` means "kernel default" for the numeric fields, so
/// `CompileOptions::default()` matches [`FaultTreeBuilder::build`]
/// except for the ordering chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct CompileOptions {
    /// Variable-ordering strategy.
    pub ordering: VariableOrdering,
    /// Maximum ITE computed-table entries (`0` = kernel default).
    pub ite_cache_capacity: usize,
    /// Live-node threshold for automatic garbage collection
    /// (`0` = kernel default).
    pub gc_node_threshold: usize,
}

impl CompileOptions {
    /// All-defaults options (declaration ordering).
    pub fn new() -> Self {
        CompileOptions::default()
    }

    /// Sets the ordering strategy.
    #[must_use]
    pub fn with_ordering(mut self, ordering: VariableOrdering) -> Self {
        self.ordering = ordering;
        self
    }

    /// Sets the ITE cache capacity (`0` = kernel default).
    #[must_use]
    pub fn with_ite_cache_capacity(mut self, capacity: usize) -> Self {
        self.ite_cache_capacity = capacity;
        self
    }

    /// Sets the GC live-node threshold (`0` = kernel default).
    #[must_use]
    pub fn with_gc_node_threshold(mut self, threshold: usize) -> Self {
        self.gc_node_threshold = threshold;
        self
    }
}

/// Builder for [`FaultTree`] models.
#[derive(Debug, Default)]
pub struct FaultTreeBuilder {
    names: Vec<String>,
}

impl FaultTreeBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        FaultTreeBuilder::default()
    }

    /// Declares a basic event.
    pub fn basic_event(&mut self, name: &str) -> EventId {
        self.names.push(name.to_owned());
        EventId(self.names.len() - 1)
    }

    /// Declares `n` basic events named `prefix-0 .. prefix-(n-1)`.
    pub fn basic_events(&mut self, prefix: &str, n: usize) -> Vec<EventId> {
        (0..n)
            .map(|i| self.basic_event(&format!("{prefix}-{i}")))
            .collect()
    }

    /// Compiles the tree with the default (declaration) ordering.
    ///
    /// # Errors
    ///
    /// See [`FaultTreeBuilder::build_with_ordering`].
    pub fn build(self, top: FtNode) -> Result<FaultTree> {
        self.build_with_ordering(top, VariableOrdering::Declaration)
    }

    /// Compiles the tree into an evaluable [`FaultTree`] using the given
    /// BDD variable ordering.
    ///
    /// # Errors
    ///
    /// See [`FaultTreeBuilder::build_with`].
    pub fn build_with_ordering(self, top: FtNode, ordering: VariableOrdering) -> Result<FaultTree> {
        self.build_with(top, &CompileOptions::new().with_ordering(ordering))
    }

    /// Compiles the tree into an evaluable [`FaultTree`] with full
    /// control over ordering and BDD cache/GC tuning.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Model`] for an empty tree, more events than the
    /// BDD kernel holds, empty gates, k-of-n thresholds out of range, or
    /// foreign event handles.
    pub fn build_with(self, top: FtNode, options: &CompileOptions) -> Result<FaultTree> {
        Ok(FaultTree {
            sf: Structure::compile(self.names, &top, options, Polarity::Failure)?,
        })
    }
}

/// A compiled fault tree: the failure-space view of a structure
/// function.
#[derive(Debug)]
pub struct FaultTree {
    sf: Structure,
}

impl FaultTree {
    /// Number of basic events.
    pub fn num_events(&self) -> usize {
        self.sf.names.len()
    }

    /// Name of a basic event.
    pub fn event_name(&self, e: EventId) -> &str {
        &self.sf.names[e.0]
    }

    /// Size (node count) of the compiled BDD — compare across
    /// [`VariableOrdering`] choices.
    pub fn bdd_size(&self) -> usize {
        self.sf.bdd.node_count(self.sf.root)
    }

    /// Table sizes and cache counters of the underlying BDD manager.
    pub fn bdd_stats(&self) -> reliab_bdd::BddStats {
        self.sf.bdd.stats()
    }

    /// Exact top-event probability given each basic event's failure
    /// probability.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on a length mismatch or
    /// probabilities outside `[0, 1]`.
    pub fn top_event_probability(&self, event_probs: &[f64]) -> Result<f64> {
        let _span = obs::span("ftree.probability");
        let q = self.sf.probability(event_probs)?;
        self.sf.bdd.record_observability();
        Ok(q)
    }

    /// Time-dependent unreliability: top-event probability with
    /// `q_i = F_i(t)` from each event's lifetime distribution.
    ///
    /// # Errors
    ///
    /// Propagates distribution and evaluation errors.
    pub fn unreliability(&self, lifetimes: &[&dyn Lifetime], t: f64) -> Result<f64> {
        if lifetimes.len() != self.num_events() {
            return Err(Error::invalid(format!(
                "{} lifetimes supplied for {} events",
                lifetimes.len(),
                self.num_events()
            )));
        }
        let probs: Vec<f64> = lifetimes.iter().map(|d| d.cdf(t)).collect::<Result<_>>()?;
        self.top_event_probability(&probs)
    }

    /// Minimal cut sets of the tree, by order and then event ids.
    ///
    /// Rauzy's MinSol over the compiled BDD builds the family as a
    /// zero-suppressed BDD, which is counted before any set is listed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Model`] if the tree has more than `max_sets`
    /// minimal cut sets.
    pub fn minimal_cut_sets(&self, max_sets: usize) -> Result<Vec<CutSet>> {
        let _span = obs::span("ftree.cutsets.bdd");
        let cuts: Vec<CutSet> = self
            .listed(&self.sf.bdd.minimal_family(self.sf.root), max_sets, "cut")?
            .into_iter()
            .map(CutSet::from_events)
            .collect();
        obs::event(
            "ftree.cutsets",
            &[("algorithm", "zbdd".into()), ("count", cuts.len().into())],
        );
        obs::counter_add("ftree.cutsets.enumerations", 1);
        Ok(cuts)
    }

    /// Minimal path sets of the tree: the minimal sets of events whose
    /// joint non-occurrence keeps the top event from occurring, by
    /// length and then event ids. They are the minimal solutions of the
    /// failure function's dual, read off the same BDD.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Model`] if the tree has more than `max_sets`
    /// minimal path sets.
    pub fn minimal_path_sets(&self, max_sets: usize) -> Result<Vec<Vec<EventId>>> {
        self.listed(
            &self.sf.bdd.dual_minimal_family(self.sf.root),
            max_sets,
            "path",
        )
    }

    /// Lists `family` in event ids after checking its exact size
    /// against `max_sets`.
    fn listed(
        &self,
        family: &reliab_bdd::SetFamily,
        max_sets: usize,
        kind: &str,
    ) -> Result<Vec<Vec<EventId>>> {
        let count = family.count();
        if count > max_sets as u64 {
            return Err(Error::model(format!(
                "the fault tree has {count} minimal {kind} sets, more than \
                 max_cut_sets = {max_sets}"
            )));
        }
        let event_to_var = &self.sf.event_to_var;
        let mut var_to_event = vec![EventId(0); event_to_var.len()];
        for (e, &v) in event_to_var.iter().enumerate() {
            var_to_event[v as usize] = EventId(e);
        }
        Ok(family.sets(|v| var_to_event[v as usize]))
    }

    /// Importance measures for every basic event.
    ///
    /// * Birnbaum: `∂Q_top/∂q_i`.
    /// * Criticality: `Birnbaum_i · q_i / Q_top`.
    /// * Fussell–Vesely: `1 − Q_top(q_i := 0) / Q_top` (the exact
    ///   fractional-contribution form).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Model`] if the top event has probability zero.
    pub fn importance(&mut self, event_probs: &[f64]) -> Result<Vec<ImportanceMeasures>> {
        let _span = obs::span("ftree.importance");
        self.sf.importance(event_probs)
    }

    /// Rare-event upper bound `Σ_C Π_{i∈C} q_i` over the minimal cut
    /// sets, alongside the exact probability — the pair the tutorial
    /// uses to show when the approximation is safe.
    ///
    /// # Errors
    ///
    /// Propagates cut-set enumeration and evaluation errors.
    pub fn rare_event_bound(&self, event_probs: &[f64], max_sets: usize) -> Result<f64> {
        self.sf.check_probs(event_probs)?;
        let cuts = self.minimal_cut_sets(max_sets)?;
        Ok(cuts
            .iter()
            .map(|c| c.events().iter().map(|e| event_probs[e.0]).product::<f64>())
            .sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reliab_dist::{Exponential, Lifetime};

    fn multiproc() -> (FaultTreeBuilder, FtNode, Vec<EventId>) {
        // Tutorial multiprocessor: 2 processors, 3 memories, bus.
        // Fails if: both processors fail, OR >= 2 of 3 memories fail,
        // OR the bus fails.
        let mut b = FaultTreeBuilder::new();
        let p = b.basic_events("proc", 2);
        let m = b.basic_events("mem", 3);
        let bus = b.basic_event("bus");
        let top = FtNode::or(vec![
            FtNode::and_of(&p),
            FtNode::k_of_n(2, m.iter().map(|&e| e.into()).collect()),
            bus.into(),
        ]);
        let mut all = p;
        all.extend(m);
        all.push(bus);
        (b, top, all)
    }

    #[test]
    fn or_and_probabilities() {
        let mut b = FaultTreeBuilder::new();
        let e = b.basic_events("e", 2);
        let ft = b.build(FtNode::or_of(&e)).unwrap();
        assert!((ft.top_event_probability(&[0.1, 0.2]).unwrap() - 0.28).abs() < 1e-15);

        let mut b = FaultTreeBuilder::new();
        let e = b.basic_events("e", 2);
        let ft = b.build(FtNode::and_of(&e)).unwrap();
        assert!((ft.top_event_probability(&[0.1, 0.2]).unwrap() - 0.02).abs() < 1e-15);
    }

    #[test]
    fn multiprocessor_probability() {
        let (b, top, _) = multiproc();
        let ft = b.build(top).unwrap();
        let q = [0.01, 0.01, 0.05, 0.05, 0.05, 0.001];
        let p_proc = 0.01f64 * 0.01;
        let p_mem = 3.0 * 0.05f64 * 0.05 * 0.95 + 0.05f64.powi(3);
        let p_bus = 0.001;
        let expected = 1.0 - (1.0 - p_proc) * (1.0 - p_mem) * (1.0 - p_bus);
        assert!((ft.top_event_probability(&q).unwrap() - expected).abs() < 1e-12);
    }

    #[test]
    fn repeated_events_exact() {
        // top = (a AND b) OR (a AND c): shared event a.
        let mut b = FaultTreeBuilder::new();
        let a = b.basic_event("a");
        let b2 = b.basic_event("b");
        let c = b.basic_event("c");
        let top = FtNode::or(vec![FtNode::and_of(&[a, b2]), FtNode::and_of(&[a, c])]);
        let ft = b.build(top).unwrap();
        let q = ft.top_event_probability(&[0.5, 0.5, 0.5]).unwrap();
        assert!((q - 0.375).abs() < 1e-15);
    }

    #[test]
    fn cut_sets_of_multiprocessor() {
        let (b, top, _) = multiproc();
        let ft = b.build(top).unwrap();
        let cuts = ft.minimal_cut_sets(10_000).unwrap();
        // {p0,p1}, {m0,m1}, {m0,m2}, {m1,m2}, {bus}
        assert_eq!(cuts.len(), 5);
        let sizes: Vec<usize> = cuts.iter().map(|c| c.len()).collect();
        assert_eq!(sizes.iter().filter(|&&s| s == 1).count(), 1);
        assert_eq!(sizes.iter().filter(|&&s| s == 2).count(), 4);
    }

    #[test]
    fn rare_event_bound_is_upper_bound() {
        let (b, top, _) = multiproc();
        let ft = b.build(top).unwrap();
        let q = [0.01, 0.01, 0.05, 0.05, 0.05, 0.001];
        let exact = ft.top_event_probability(&q).unwrap();
        let bound = ft.rare_event_bound(&q, 10_000).unwrap();
        assert!(bound >= exact);
        assert!(
            bound - exact < 0.01,
            "bound should be tight for rare events"
        );
    }

    #[test]
    fn dfs_ordering_shrinks_or_matches_bdd() {
        // Interleaved structure where declaration order is bad:
        // declare a0 b0 a1 b1..., tree pairs (a_i AND b_i) OR ...
        let mut b1 = FaultTreeBuilder::new();
        let n = 6;
        let a: Vec<EventId> = (0..n).map(|i| b1.basic_event(&format!("a{i}"))).collect();
        let bb: Vec<EventId> = (0..n).map(|i| b1.basic_event(&format!("b{i}"))).collect();
        let top = FtNode::or(
            (0..n)
                .map(|i| FtNode::and_of(&[a[i], bb[i]]))
                .collect::<Vec<_>>(),
        );
        let decl = b1.build_with_ordering(top.clone(), VariableOrdering::Declaration);
        // Redeclare in the same way for the DFS build.
        let mut b2 = FaultTreeBuilder::new();
        let _a2: Vec<EventId> = (0..n).map(|i| b2.basic_event(&format!("a{i}"))).collect();
        let _b2: Vec<EventId> = (0..n).map(|i| b2.basic_event(&format!("b{i}"))).collect();
        let dfs = b2.build_with_ordering(top, VariableOrdering::DepthFirst);
        let (decl, dfs) = (decl.unwrap(), dfs.unwrap());
        assert!(dfs.bdd_size() <= decl.bdd_size());
        // And both give the same probability.
        let q = vec![0.1; 2 * n];
        assert!(
            (decl.top_event_probability(&q).unwrap() - dfs.top_event_probability(&q).unwrap())
                .abs()
                < 1e-14
        );
    }

    #[test]
    fn weighted_and_sifted_orderings_agree_on_probability() {
        let (b, top, _) = multiproc();
        let q = [0.01, 0.01, 0.05, 0.05, 0.05, 0.001];
        let reference = b.build(top.clone()).unwrap();
        let expect = reference.top_event_probability(&q).unwrap();
        for ordering in [
            VariableOrdering::DepthFirst,
            VariableOrdering::Weighted,
            VariableOrdering::Sifted,
        ] {
            let (b2, top2, _) = multiproc();
            let ft = b2.build_with_ordering(top2, ordering).unwrap();
            let got = ft.top_event_probability(&q).unwrap();
            assert!(
                (got - expect).abs() < 1e-14,
                "{ordering:?}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn weighted_ordering_puts_repeated_events_first() {
        // `shared` appears under both AND branches, so its accumulated
        // weight (1/2) beats each leaf-only event (1/4) and it gets the
        // topmost level despite being declared last.
        let mut b = FaultTreeBuilder::new();
        let x = b.basic_event("x");
        let y = b.basic_event("y");
        let shared = b.basic_event("shared");
        let top = FtNode::or(vec![
            FtNode::and_of(&[x, shared]),
            FtNode::and_of(&[y, shared]),
        ]);
        let ft = b
            .build_with_ordering(top, VariableOrdering::Weighted)
            .unwrap();
        assert_eq!(ft.sf.event_to_var[shared.index()], 0);
        let q = ft.top_event_probability(&[0.2, 0.3, 0.4]).unwrap();
        // P = P(shared) * P(x or y) = 0.4 * (0.2 + 0.3 - 0.06)
        assert!((q - 0.4 * 0.44).abs() < 1e-14);
    }

    #[test]
    fn sifted_ordering_shrinks_interleaved_tree() {
        let n = 6;
        let build = |ordering| {
            let mut b = FaultTreeBuilder::new();
            let mut pairs = Vec::new();
            // Declare a0..a5 then b0..b5; pair a_i with b_i — pessimal
            // for declaration order.
            let a: Vec<EventId> = (0..n).map(|i| b.basic_event(&format!("a{i}"))).collect();
            let bs: Vec<EventId> = (0..n).map(|i| b.basic_event(&format!("b{i}"))).collect();
            for i in 0..n {
                pairs.push(FtNode::and_of(&[a[i], bs[i]]));
            }
            b.build_with_ordering(FtNode::or(pairs), ordering).unwrap()
        };
        let decl = build(VariableOrdering::Declaration);
        let sifted = build(VariableOrdering::Sifted);
        assert!(
            sifted.bdd_size() < decl.bdd_size(),
            "sifted {} vs declaration {}",
            sifted.bdd_size(),
            decl.bdd_size()
        );
        assert!(sifted.bdd_stats().sift_runs >= 1);
        let q = vec![0.05; 2 * n];
        assert!(
            (decl.top_event_probability(&q).unwrap() - sifted.top_event_probability(&q).unwrap())
                .abs()
                < 1e-14
        );
    }

    #[test]
    fn compile_options_tune_cache_and_gc() {
        let (b, top, _) = multiproc();
        let opts = CompileOptions::new()
            .with_ordering(VariableOrdering::DepthFirst)
            .with_ite_cache_capacity(64)
            .with_gc_node_threshold(16);
        let ft = b.build_with(top, &opts).unwrap();
        let q = [0.01, 0.01, 0.05, 0.05, 0.05, 0.001];
        assert!(ft.top_event_probability(&q).is_ok());
        // The manager honors the configured bound.
        assert!(ft.bdd_stats().ite_cache_entries <= 64);
    }

    #[test]
    fn compile_time_gc_bounds_peak_live_nodes() {
        // An OR chain of AND pairs leaves each superseded accumulator
        // as garbage; with an aggressive threshold the compile-time
        // safe points must collect it, keeping the high-water mark
        // close to the final size instead of the sum of intermediates.
        let build = |gc_threshold: usize| {
            let mut b = FaultTreeBuilder::new();
            let n = 64;
            let a = b.basic_events("a", n);
            let c = b.basic_events("c", n);
            let top = FtNode::or((0..n).map(|i| FtNode::and_of(&[a[i], c[i]])).collect());
            let opts = CompileOptions::new()
                .with_ordering(VariableOrdering::DepthFirst)
                .with_gc_node_threshold(gc_threshold);
            b.build_with(top, &opts).unwrap()
        };
        let collected = build(8);
        let unbounded = build(usize::MAX);
        let stats = collected.bdd_stats();
        assert!(stats.gc_runs > 0, "tiny threshold must trigger GC");
        assert!(stats.gc_reclaimed > 0);
        assert!(
            stats.peak_live_nodes < unbounded.bdd_stats().peak_live_nodes,
            "GC'd peak {} vs unbounded peak {}",
            stats.peak_live_nodes,
            unbounded.bdd_stats().peak_live_nodes
        );
        // Same function either way.
        let q = vec![0.01; 128];
        assert!(
            (collected.top_event_probability(&q).unwrap()
                - unbounded.top_event_probability(&q).unwrap())
            .abs()
                < 1e-15
        );
    }

    #[test]
    fn cut_and_path_sets_agree_under_every_ordering() {
        // Events: proc 0-1, mem 2-4, bus 5.
        let cuts = vec![vec![5], vec![0, 1], vec![2, 3], vec![2, 4], vec![3, 4]];
        // Works iff a processor, two memories and the bus work.
        let paths: Vec<Vec<usize>> = (0..2)
            .flat_map(|p| [[2, 3], [2, 4], [3, 4]].map(|m| vec![p, m[0], m[1], 5]))
            .collect();
        let ids = |sets: Vec<Vec<EventId>>| -> Vec<Vec<usize>> {
            sets.into_iter()
                .map(|s| s.into_iter().map(EventId::index).collect())
                .collect()
        };
        for ordering in [
            VariableOrdering::Declaration,
            VariableOrdering::DepthFirst,
            VariableOrdering::Weighted,
            VariableOrdering::Sifted,
        ] {
            let (b, top, _) = multiproc();
            let ft = b.build_with_ordering(top, ordering).unwrap();
            let got: Vec<Vec<EventId>> = ft
                .minimal_cut_sets(5)
                .unwrap()
                .into_iter()
                .map(|c| c.events().to_vec())
                .collect();
            assert_eq!(ids(got), cuts, "{ordering:?}");
            assert_eq!(ids(ft.minimal_path_sets(6).unwrap()), paths, "{ordering:?}");
        }
    }

    #[test]
    fn absorption_and_voting_gates() {
        let absorbed = |top: fn(EventId, EventId) -> FtNode| {
            let mut b = FaultTreeBuilder::new();
            let a = b.basic_event("a");
            let c = b.basic_event("c");
            let cuts = b.build(top(a, c)).unwrap().minimal_cut_sets(10).unwrap();
            assert_eq!(cuts.len(), 1);
            assert_eq!(cuts[0].events(), &[a]);
        };
        // {a} absorbs {a, c}.
        absorbed(|a, c| FtNode::or(vec![a.into(), FtNode::and_of(&[a, c])]));
        // 2-of-(a, a, c): {a, a} = {a} absorbs {a, c}.
        absorbed(|a, c| FtNode::k_of_n(2, vec![a.into(), a.into(), c.into()]));

        let mut b = FaultTreeBuilder::new();
        let e = b.basic_events("e", 4);
        let top = FtNode::k_of_n(3, e.iter().map(|&x| x.into()).collect());
        let ft = b.build(top).unwrap();
        let cuts = ft.minimal_cut_sets(10).unwrap();
        assert_eq!(cuts.len(), 4); // C(4,3)
        assert!(cuts.iter().all(|c| c.len() == 3));
        // Any two of the four working keep the vote from failing.
        assert_eq!(ft.minimal_path_sets(10).unwrap().len(), 6);
    }

    #[test]
    fn cap_is_checked_against_the_exact_count() {
        // AND of 6 ORs of 4 events: 4^6 = 4096 minimal cut sets.
        let build = || {
            let mut b = FaultTreeBuilder::new();
            let groups: Vec<FtNode> = (0..6)
                .map(|g| FtNode::or_of(&b.basic_events(&format!("g{g}"), 4)))
                .collect();
            b.build(FtNode::and(groups)).unwrap()
        };
        let ft = build();
        let err = ft.minimal_cut_sets(4095).unwrap_err().to_string();
        assert!(
            err.contains("4096") && err.contains("max_cut_sets"),
            "{err}"
        );
        let cuts = ft.minimal_cut_sets(4096).unwrap();
        assert_eq!(cuts.len(), 4096);
        assert!(cuts.iter().all(|c| c.len() == 6));
        assert!(cuts.windows(2).all(|w| w[0] < w[1]));
        // The dual: each OR group is one path set.
        assert!(ft.minimal_path_sets(5).is_err());
        let paths = ft.minimal_path_sets(6).unwrap();
        assert_eq!(paths.len(), 6);
        assert!(paths.iter().all(|p| p.len() == 4));
    }

    /// `voters` units vote 2-of-n and two more units 2-of-2; a unit is
    /// the OR of five AND pairs and two simplex events.
    fn voting_units(voters: usize) -> FaultTree {
        let mut b = FaultTreeBuilder::new();
        let units: Vec<FtNode> = (0..voters + 2)
            .map(|u| {
                let mut inputs: Vec<FtNode> = (0..5)
                    .map(|i| FtNode::and_of(&b.basic_events(&format!("u{u}p{i}"), 2)))
                    .collect();
                inputs.extend(
                    b.basic_events(&format!("u{u}s"), 2)
                        .into_iter()
                        .map(FtNode::from),
                );
                FtNode::or(inputs)
            })
            .collect();
        let top = FtNode::or(vec![
            FtNode::k_of_n(2, units[..voters].to_vec()),
            FtNode::k_of_n(2, units[voters..].to_vec()),
        ]);
        b.build_with_ordering(top, VariableOrdering::DepthFirst)
            .unwrap()
    }

    #[test]
    fn voting_units_match_the_closed_form() {
        // Each failing unit pair gives 7 x 7 = 49 cut sets: 2 x 2 of
        // order 2, 2 x (2 x 5) of order 3 and 5 x 5 of order 4.
        for (voters, events, count) in [(10, 144, 2_254), (40, 504, 38_269)] {
            let ft = voting_units(voters);
            assert_eq!(ft.num_events(), events);
            let pairs = voters * (voters - 1) / 2 + 1;
            assert_eq!(count, 49 * pairs);
            let cuts = ft.minimal_cut_sets(count).unwrap();
            assert_eq!(cuts.len(), count);
            for (order, per_pair) in [(2, 4), (3, 20), (4, 25)] {
                let n = cuts.iter().filter(|c| c.len() == order).count();
                assert_eq!(n, per_pair * pairs, "order {order}, {voters} voters");
            }
            assert!(cuts
                .windows(2)
                .all(|w| (w[0].len(), w[0].events()) < (w[1].len(), w[1].events())));
            assert!(ft.minimal_cut_sets(count - 1).is_err());
        }
    }

    #[test]
    fn unreliability_with_lifetimes() {
        let mut b = FaultTreeBuilder::new();
        let e = b.basic_events("e", 2);
        let ft = b.build(FtNode::and_of(&e)).unwrap();
        let d = Exponential::new(1.0).unwrap();
        let lifetimes: Vec<&dyn Lifetime> = vec![&d, &d];
        let t = 1.0;
        let q = ft.unreliability(&lifetimes, t).unwrap();
        let f = 1.0 - (-1.0f64).exp();
        assert!((q - f * f).abs() < 1e-13);
    }

    #[test]
    fn importance_identifies_single_points_of_failure() {
        let (b, top, all) = multiproc();
        let mut ft = b.build(top).unwrap();
        let q = [0.01, 0.01, 0.05, 0.05, 0.05, 0.001];
        let imp = ft.importance(&q).unwrap();
        let bus = &imp[all[5].index()];
        // The bus is a single point of failure: highest Birnbaum.
        for other in imp.iter().take(5) {
            assert!(bus.birnbaum > other.birnbaum);
        }
        for m in &imp {
            assert!((0.0..=1.0).contains(&m.fussell_vesely), "{m:?}");
        }
    }

    #[test]
    fn validation_errors() {
        let b = FaultTreeBuilder::new();
        let mut b2 = FaultTreeBuilder::new();
        let e = b2.basic_event("e");
        assert!(b.build(FtNode::Basic(e)).is_err()); // no events declared
        let mut b3 = FaultTreeBuilder::new();
        b3.basic_event("x");
        assert!(b3.build(FtNode::Or(vec![])).is_err());
        let mut b4 = FaultTreeBuilder::new();
        let x = b4.basic_event("x");
        assert!(b4
            .build(FtNode::KOfN {
                k: 0,
                inputs: vec![x.into()]
            })
            .is_err());
    }

    #[test]
    fn probability_validation() {
        let mut b = FaultTreeBuilder::new();
        let e = b.basic_events("e", 2);
        let ft = b.build(FtNode::or_of(&e)).unwrap();
        assert!(ft.top_event_probability(&[0.1]).is_err());
        assert!(ft.top_event_probability(&[0.1, 1.0001]).is_err());
    }
}
