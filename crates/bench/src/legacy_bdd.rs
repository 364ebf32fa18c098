//! The pre-optimization BDD kernel, frozen for benchmarking.
//!
//! This is a copy of `reliab-bdd` as it stood before the
//! arena/unique-table/GC rework (SipHash `HashMap`s for hash consing
//! and the ITE computed-table, unbounded cache, no reclamation, no
//! reordering), kept so the `bdd_kernel` Criterion suite and the
//! `bench_bdd` binary can measure the new kernel against the exact
//! code it replaced on identical inputs. Do not improve it.
//!
//! ```
//! use reliab_bench::legacy_bdd::Bdd;
//!
//! # fn main() -> Result<(), reliab_bench::legacy_bdd::BddError> {
//! let mut bdd = Bdd::new(2);
//! let a = bdd.var(0)?;
//! let b = bdd.var(1)?;
//! let f = bdd.or(a, b);
//! let p = bdd.probability(f, &[0.1, 0.2])?;
//! assert!((p - 0.28).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::fmt;

/// Errors from the BDD layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BddError {
    /// A variable index at or beyond the declared variable count.
    VariableOutOfRange {
        /// Offending index.
        var: u32,
        /// Declared count.
        nvars: u32,
    },
    /// A probability vector whose length disagrees with the variable
    /// count, or entries outside `[0, 1]`.
    BadProbabilities(String),
}

impl fmt::Display for BddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BddError::VariableOutOfRange { var, nvars } => {
                write!(f, "variable {var} out of range (nvars = {nvars})")
            }
            BddError::BadProbabilities(m) => write!(f, "bad probability vector: {m}"),
        }
    }
}

impl std::error::Error for BddError {}

/// Handle to a BDD node inside a [`Bdd`] manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// The constant FALSE function.
    pub const FALSE: NodeId = NodeId(0);
    /// The constant TRUE function.
    pub const TRUE: NodeId = NodeId(1);

    fn is_terminal(self) -> bool {
        self.0 < 2
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    var: u32,
    low: NodeId,
    high: NodeId,
}

/// Operation counters and table sizes of a [`Bdd`] manager — the
/// observability surface consumed by `SolveReport` stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct BddStats {
    /// Nodes allocated in the arena, including the two terminals.
    pub arena_nodes: usize,
    /// Entries in the unique (hash-consing) table.
    pub unique_entries: usize,
    /// Entries in the ITE computed-table.
    pub ite_cache_entries: usize,
    /// ITE computed-table lookups since construction.
    pub ite_cache_lookups: u64,
    /// ITE computed-table hits since construction.
    pub ite_cache_hits: u64,
}

/// An ROBDD manager over a fixed set of ordered variables.
///
/// Variable `0` is the topmost in the ordering. Choosing a good order
/// is the caller's job (see `reliab-ftree`'s DFS heuristic); the
/// manager itself keeps the order fixed.
#[derive(Debug)]
pub struct Bdd {
    nodes: Vec<Node>,
    unique: HashMap<(u32, NodeId, NodeId), NodeId>,
    ite_cache: HashMap<(NodeId, NodeId, NodeId), NodeId>,
    nvars: u32,
    ite_lookups: u64,
    ite_hits: u64,
}

impl Bdd {
    /// Creates a manager for `nvars` Boolean variables.
    pub fn new(nvars: u32) -> Self {
        let sentinel = Node {
            var: u32::MAX,
            low: NodeId::FALSE,
            high: NodeId::FALSE,
        };
        Bdd {
            nodes: vec![sentinel, sentinel],
            unique: HashMap::new(),
            ite_cache: HashMap::new(),
            nvars,
            ite_lookups: 0,
            ite_hits: 0,
        }
    }

    /// Declared variable count.
    pub fn nvars(&self) -> u32 {
        self.nvars
    }

    /// Total nodes allocated in the arena (diagnostic; includes the two
    /// terminals).
    pub fn arena_size(&self) -> usize {
        self.nodes.len()
    }

    /// Emits a `bdd.ite` summary trace event and flushes the manager's
    /// operation counters into the global metrics registry (counters
    /// `bdd.ite.lookups` / `bdd.ite.hits`, histogram
    /// `bdd.arena_nodes`). Solver front-ends call this once per
    /// completed solve; near-free when observability is disabled.
    pub fn record_observability(&self) {
        if reliab_obs::trace_enabled() {
            reliab_obs::event(
                "bdd.ite",
                &[
                    ("lookups", self.ite_lookups.into()),
                    ("hits", self.ite_hits.into()),
                    ("nodes", self.nodes.len().into()),
                ],
            );
        }
        if reliab_obs::metrics_enabled() {
            reliab_obs::counter_add("bdd.ite.lookups", self.ite_lookups);
            reliab_obs::counter_add("bdd.ite.hits", self.ite_hits);
            reliab_obs::registry()
                .histogram_with_buckets(
                    "bdd.arena_nodes",
                    &[
                        16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0,
                    ],
                )
                .observe(self.nodes.len() as f64);
        }
    }

    /// Current table sizes and operation counters.
    pub fn stats(&self) -> BddStats {
        BddStats {
            arena_nodes: self.nodes.len(),
            unique_entries: self.unique.len(),
            ite_cache_entries: self.ite_cache.len(),
            ite_cache_lookups: self.ite_lookups,
            ite_cache_hits: self.ite_hits,
        }
    }

    /// Returns the node for a single variable.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::VariableOutOfRange`] if `var >= nvars`.
    pub fn var(&mut self, var: u32) -> Result<NodeId, BddError> {
        if var >= self.nvars {
            return Err(BddError::VariableOutOfRange {
                var,
                nvars: self.nvars,
            });
        }
        Ok(self.mk(var, NodeId::FALSE, NodeId::TRUE))
    }

    /// Returns the node for the negation of a single variable.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::VariableOutOfRange`] if `var >= nvars`.
    pub fn nvar(&mut self, var: u32) -> Result<NodeId, BddError> {
        if var >= self.nvars {
            return Err(BddError::VariableOutOfRange {
                var,
                nvars: self.nvars,
            });
        }
        Ok(self.mk(var, NodeId::TRUE, NodeId::FALSE))
    }

    fn topvar(&self, f: NodeId) -> u32 {
        self.nodes[f.0 as usize].var
    }

    fn cofactors(&self, f: NodeId, v: u32) -> (NodeId, NodeId) {
        if f.is_terminal() || self.topvar(f) != v {
            (f, f)
        } else {
            let n = self.nodes[f.0 as usize];
            (n.low, n.high)
        }
    }

    fn mk(&mut self, var: u32, low: NodeId, high: NodeId) -> NodeId {
        if low == high {
            return low;
        }
        if let Some(&id) = self.unique.get(&(var, low, high)) {
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { var, low, high });
        self.unique.insert((var, low, high), id);
        id
    }

    /// If-then-else: `(f ∧ g) ∨ (¬f ∧ h)` — the universal connective.
    pub fn ite(&mut self, f: NodeId, g: NodeId, h: NodeId) -> NodeId {
        // Terminal cases.
        if f == NodeId::TRUE {
            return g;
        }
        if f == NodeId::FALSE {
            return h;
        }
        if g == h {
            return g;
        }
        if g == NodeId::TRUE && h == NodeId::FALSE {
            return f;
        }
        self.ite_lookups += 1;
        // Progress event for long BDD compilations: one structured
        // event per 1024 ITE lookups (tracking node growth and cache
        // effectiveness over time), emitted only while tracing — the
        // hot path pays one mask-compare plus a relaxed atomic load.
        if self.ite_lookups & 0x3FF == 0 && reliab_obs::trace_enabled() {
            reliab_obs::event(
                "bdd.ite",
                &[
                    ("lookups", self.ite_lookups.into()),
                    ("hits", self.ite_hits.into()),
                    ("nodes", self.nodes.len().into()),
                ],
            );
        }
        if let Some(&r) = self.ite_cache.get(&(f, g, h)) {
            self.ite_hits += 1;
            return r;
        }
        let v = [f, g, h]
            .iter()
            .filter(|n| !n.is_terminal())
            .map(|n| self.topvar(*n))
            .min()
            .expect("at least f is non-terminal");
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let (h0, h1) = self.cofactors(h, v);
        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let r = self.mk(v, lo, hi);
        self.ite_cache.insert((f, g, h), r);
        r
    }

    /// Conjunction.
    pub fn and(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.ite(f, g, NodeId::FALSE)
    }

    /// Disjunction.
    pub fn or(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.ite(f, NodeId::TRUE, g)
    }

    /// Negation.
    pub fn not(&mut self, f: NodeId) -> NodeId {
        self.ite(f, NodeId::FALSE, NodeId::TRUE)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: NodeId, g: NodeId) -> NodeId {
        let ng = self.not(g);
        self.ite(f, ng, g)
    }

    /// Conjunction over an iterator (TRUE for empty input).
    pub fn and_all<I: IntoIterator<Item = NodeId>>(&mut self, items: I) -> NodeId {
        items
            .into_iter()
            .fold(NodeId::TRUE, |acc, x| self.and(acc, x))
    }

    /// Disjunction over an iterator (FALSE for empty input).
    pub fn or_all<I: IntoIterator<Item = NodeId>>(&mut self, items: I) -> NodeId {
        items
            .into_iter()
            .fold(NodeId::FALSE, |acc, x| self.or(acc, x))
    }

    /// At-least-`k`-of the given inputs true.
    ///
    /// Builds the standard threshold network with a dynamic-programming
    /// table over (index, still-needed) pairs.
    pub fn at_least_k(&mut self, inputs: &[NodeId], k: usize) -> NodeId {
        if k == 0 {
            return NodeId::TRUE;
        }
        if k > inputs.len() {
            return NodeId::FALSE;
        }
        // table[j] = "at least j of inputs[i..] are true", built backwards.
        let n = inputs.len();
        let mut table: Vec<NodeId> = (0..=k)
            .map(|j| if j == 0 { NodeId::TRUE } else { NodeId::FALSE })
            .collect();
        for i in (0..n).rev() {
            // new[j] = ite(inputs[i], old[j-1], old[j])  (for j >= 1)
            for j in (1..=k.min(n - i)).rev() {
                table[j] = self.ite(inputs[i], table[j - 1], table[j]);
            }
        }
        table[k]
    }

    /// Restricts `f` by fixing `var := val`.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::VariableOutOfRange`] if `var >= nvars`.
    pub fn restrict(&mut self, f: NodeId, var: u32, val: bool) -> Result<NodeId, BddError> {
        if var >= self.nvars {
            return Err(BddError::VariableOutOfRange {
                var,
                nvars: self.nvars,
            });
        }
        let mut memo = HashMap::new();
        Ok(self.restrict_rec(f, var, val, &mut memo))
    }

    fn restrict_rec(
        &mut self,
        f: NodeId,
        var: u32,
        val: bool,
        memo: &mut HashMap<NodeId, NodeId>,
    ) -> NodeId {
        if f.is_terminal() {
            return f;
        }
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let n = self.nodes[f.0 as usize];
        let r = if n.var == var {
            if val {
                n.high
            } else {
                n.low
            }
        } else if n.var > var {
            // var does not appear below f (ordering), nothing to do.
            f
        } else {
            let lo = self.restrict_rec(n.low, var, val, memo);
            let hi = self.restrict_rec(n.high, var, val, memo);
            self.mk(n.var, lo, hi)
        };
        memo.insert(f, r);
        r
    }

    /// Evaluates `f` under a complete truth assignment.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::BadProbabilities`] if the assignment length
    /// differs from the variable count.
    pub fn eval(&self, f: NodeId, assignment: &[bool]) -> Result<bool, BddError> {
        if assignment.len() != self.nvars as usize {
            return Err(BddError::BadProbabilities(format!(
                "assignment length {} != nvars {}",
                assignment.len(),
                self.nvars
            )));
        }
        let mut cur = f;
        while !cur.is_terminal() {
            let n = self.nodes[cur.0 as usize];
            cur = if assignment[n.var as usize] {
                n.high
            } else {
                n.low
            };
        }
        Ok(cur == NodeId::TRUE)
    }

    /// Exact probability that `f` is true, given independent per-variable
    /// probabilities `p[i] = P(x_i = true)`.
    ///
    /// Linear in the number of reachable nodes (memoized Shannon
    /// expansion) — the reason BDDs beat cut-set inclusion–exclusion on
    /// large trees.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::BadProbabilities`] on a length mismatch or an
    /// entry outside `[0, 1]`.
    pub fn probability(&self, f: NodeId, p: &[f64]) -> Result<f64, BddError> {
        if p.len() != self.nvars as usize {
            return Err(BddError::BadProbabilities(format!(
                "probability vector length {} != nvars {}",
                p.len(),
                self.nvars
            )));
        }
        for (i, &q) in p.iter().enumerate() {
            if !q.is_finite() || !(0.0..=1.0).contains(&q) {
                return Err(BddError::BadProbabilities(format!(
                    "p[{i}] = {q} outside [0,1]"
                )));
            }
        }
        let mut memo: HashMap<NodeId, f64> = HashMap::new();
        Ok(self.prob_rec(f, p, &mut memo))
    }

    fn prob_rec(&self, f: NodeId, p: &[f64], memo: &mut HashMap<NodeId, f64>) -> f64 {
        if f == NodeId::FALSE {
            return 0.0;
        }
        if f == NodeId::TRUE {
            return 1.0;
        }
        if let Some(&v) = memo.get(&f) {
            return v;
        }
        let n = self.nodes[f.0 as usize];
        let q = p[n.var as usize];
        let v = q * self.prob_rec(n.high, p, memo) + (1.0 - q) * self.prob_rec(n.low, p, memo);
        memo.insert(f, v);
        v
    }

    /// Birnbaum importance (partial derivative) of every variable:
    /// `∂P(f)/∂p_i = P(f | x_i = 1) - P(f | x_i = 0)`.
    ///
    /// # Errors
    ///
    /// Propagates [`Bdd::probability`] / [`Bdd::restrict`] errors.
    pub fn birnbaum(&mut self, f: NodeId, p: &[f64]) -> Result<Vec<f64>, BddError> {
        let mut out = Vec::with_capacity(self.nvars as usize);
        for v in 0..self.nvars {
            let f1 = self.restrict(f, v, true)?;
            let f0 = self.restrict(f, v, false)?;
            out.push(self.probability(f1, p)? - self.probability(f0, p)?);
        }
        Ok(out)
    }

    /// Number of BDD nodes reachable from `f` (excluding terminals) —
    /// the usual size metric for ordering-heuristic comparisons.
    pub fn node_count(&self, f: NodeId) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f];
        while let Some(n) = stack.pop() {
            if n.is_terminal() || !seen.insert(n) {
                continue;
            }
            let node = self.nodes[n.0 as usize];
            stack.push(node.low);
            stack.push(node.high);
        }
        seen.len()
    }

    /// Enumerates the satisfying paths of `f` as partial assignments
    /// `(var, value)` — used by the sum-of-disjoint-products bound
    /// machinery and for debugging small models.
    ///
    /// The paths are disjoint by construction (they follow distinct BDD
    /// branches), so their probabilities sum to `P(f)`.
    pub fn satisfying_paths(&self, f: NodeId) -> Vec<Vec<(u32, bool)>> {
        let mut out = Vec::new();
        let mut prefix = Vec::new();
        self.paths_rec(f, &mut prefix, &mut out);
        out
    }

    fn paths_rec(&self, f: NodeId, prefix: &mut Vec<(u32, bool)>, out: &mut Vec<Vec<(u32, bool)>>) {
        if f == NodeId::FALSE {
            return;
        }
        if f == NodeId::TRUE {
            out.push(prefix.clone());
            return;
        }
        let n = self.nodes[f.0 as usize];
        prefix.push((n.var, false));
        self.paths_rec(n.low, prefix, out);
        prefix.pop();
        prefix.push((n.var, true));
        self.paths_rec(n.high, prefix, out);
        prefix.pop();
    }
}
