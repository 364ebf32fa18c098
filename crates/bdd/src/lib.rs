//! # reliab-bdd
//!
//! A reduced ordered binary decision diagram (ROBDD) engine sized for
//! reliability analysis: Boolean structure functions of fault trees,
//! block diagrams and network graphs are compiled to BDDs, after which
//! exact failure probability and Birnbaum derivatives are linear in the
//! (shared) BDD size, and minimal cut and path sets take one memoized
//! pass over it.
//!
//! The kernel follows the Brace–Rudell–Bryant design, tuned for large
//! fault trees:
//!
//! - **Packed struct-of-arrays arena** — a node is 10 bytes split
//!   across three parallel vectors (`var: u16`, `low: u32`,
//!   `high: u32`), so a 64-byte cache line holds 32 variable tags or
//!   16 child pointers of *consecutive* nodes. Hash consing goes
//!   through a custom linear-probing table keyed by FxHash over
//!   `(var, low, high)` (see [`reliab_core::fxhash`]).
//! - **Bounded ITE cache + standard triples** — ITE calls are
//!   normalized to a canonical operand form (Brace–Rudell–Bryant
//!   "standard triples") before the computed-table lookup, so
//!   commuted AND/OR calls share entries. The table is direct-mapped,
//!   power-of-two sized, grows adaptively under eviction pressure up
//!   to a configurable cap, and is invalidated in O(1) by a
//!   generation tag.
//! - **Compacting mark-and-sweep GC** — callers pin roots with
//!   [`Bdd::protect`]; [`Bdd::gc`] copies the live cone into a fresh
//!   arena in **DFS preorder**, so the hot traversals (apply descent,
//!   probability evaluation, cut-set extraction) walk memory almost
//!   sequentially. Compaction renumbers every node: re-read roots
//!   through [`Bdd::current`] after a collection. [`Bdd::maybe_gc`]
//!   triggers on an allocation threshold so long batch runs stop
//!   leaking dead nodes.
//! - **Dynamic variable reordering** — [`Bdd::sift`] runs Rudell's
//!   sifting over adjacent-level swaps. A level indirection
//!   (`var ↔ level`) means per-variable probability vectors stay
//!   valid across reorders.
//! - **Set families as ZBDDs** — [`Bdd::minimal_family`] runs Rauzy's
//!   MinSol into a zero-suppressed BDD ([`SetFamily`]), and
//!   [`Bdd::dual_minimal_family`] does the same for the dual function,
//!   so minimal cut and path sets are counted exactly before any is
//!   listed.
//!
//! ```
//! use reliab_bdd::Bdd;
//!
//! # fn main() -> Result<(), reliab_bdd::BddError> {
//! let mut bdd = Bdd::new(2);
//! let a = bdd.var(0)?;
//! let b = bdd.var(1)?;
//! let f = bdd.or(a, b); // system fails if either component fails
//! let p = bdd.probability(f, &[0.1, 0.2])?;
//! assert!((p - 0.28).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod cache;
mod reorder;
mod table;
mod zdd;

use cache::IteCache;
use reliab_core::fxhash::FxHashMap;
use std::fmt;
use table::{Probe, UniqueTable};
pub use zdd::SetFamily;

/// Variable tag of the two terminal arena slots.
const TERMINAL_VAR: u16 = u16::MAX;
/// Sentinel for "no id" in protected-root slots.
const NONE: u32 = u32::MAX;

/// Maximum variable count a manager supports. Variables are packed
/// into `u16` arena tags with [`u16::MAX`] reserved for the terminal
/// marker, so indices `0..MAX_VARS` are representable.
pub const MAX_VARS: u32 = u16::MAX as u32;

/// The variable limit check: `nvars` as a `u32` if the packed node
/// format can tag that many variables. [`Bdd::new_with`] runs it; a
/// model builder that compiles later runs it up front.
///
/// # Errors
///
/// Returns [`BddError::TooManyVariables`] above [`MAX_VARS`].
pub fn check_nvars(nvars: usize) -> Result<u32, BddError> {
    u32::try_from(nvars)
        .ok()
        .filter(|&n| n <= MAX_VARS)
        .ok_or(BddError::TooManyVariables { nvars })
}

/// Default live-node threshold before [`Bdd::maybe_gc`] collects.
///
/// Deliberately small: collecting early keeps the arena, unique table,
/// and computed table resident in the CPU cache, which on large
/// fault-tree compiles is worth far more than the mark-and-sweep costs
/// (measured 2–3x end to end on a 10 800-event tree). The trigger
/// adapts to `max(threshold, 2 × live)` after each collection, so
/// models that genuinely need a large live set ramp up instead of
/// thrashing.
pub const DEFAULT_GC_THRESHOLD: usize = 1 << 15;

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
    /// More variables than the packed node format can tag
    /// ([`MAX_VARS`]).
    TooManyVariables {
        /// Requested variable count.
        nvars: usize,
    },
}

impl fmt::Display for BddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BddError::VariableOutOfRange { var, nvars } => {
                write!(f, "variable {var} out of range (nvars = {nvars})")
            }
            BddError::BadProbabilities(m) => write!(f, "bad probability vector: {m}"),
            BddError::TooManyVariables { nvars } => write!(
                f,
                "{nvars} variables exceed the packed-node limit of {MAX_VARS} variables"
            ),
        }
    }
}

impl std::error::Error for BddError {}

/// Handle to a BDD node inside a [`Bdd`] manager.
///
/// Node ids are dense `u32` indices into the arena. They are stable
/// under node construction but **renumbered by garbage collection**
/// (the collector compacts live nodes into DFS preorder) — hold a
/// [`BddRef`] across [`Bdd::gc`] and re-read with [`Bdd::current`].
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

/// Packed struct-of-arrays node store: 10 bytes per node across three
/// parallel vectors. Complement edges are not used (reliability
/// functions are overwhelmingly monotone, and complement-free ids keep
/// probability evaluation branch-free), so an id is a plain index.
#[derive(Debug)]
pub(crate) struct NodeArena {
    vars: Vec<u16>,
    lows: Vec<u32>,
    highs: Vec<u32>,
}

impl NodeArena {
    /// An arena holding only the two terminal sentinels.
    fn with_terminals() -> Self {
        NodeArena {
            vars: vec![TERMINAL_VAR; 2],
            lows: vec![0; 2],
            highs: vec![0; 2],
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.vars.len()
    }

    #[inline]
    pub(crate) fn var(&self, id: u32) -> u16 {
        self.vars[id as usize]
    }

    #[inline]
    pub(crate) fn low(&self, id: u32) -> u32 {
        self.lows[id as usize]
    }

    #[inline]
    pub(crate) fn high(&self, id: u32) -> u32 {
        self.highs[id as usize]
    }

    #[inline]
    fn push(&mut self, var: u16, low: u32, high: u32) -> u32 {
        let id = self.vars.len() as u32;
        self.vars.push(var);
        self.lows.push(low);
        self.highs.push(high);
        id
    }

    /// Rewrites a node in place (level swaps re-key nodes without
    /// changing their id).
    #[inline]
    pub(crate) fn set(&mut self, id: u32, var: u16, low: u32, high: u32) {
        self.vars[id as usize] = var;
        self.lows[id as usize] = low;
        self.highs[id as usize] = high;
    }
}

/// External reference handle returned by [`Bdd::protect`]: while held,
/// the referenced function (and everything it reaches) survives
/// [`Bdd::gc`]. Pass it back to [`Bdd::unprotect`] to release.
///
/// Garbage collection compacts the arena and renumbers nodes, so the
/// id captured at protect time goes stale after a collection — read
/// the live id back with [`Bdd::current`].
#[derive(Debug)]
#[must_use = "dropping a BddRef without unprotect() pins the root forever"]
pub struct BddRef {
    slot: usize,
    id: NodeId,
}

impl BddRef {
    /// The node id as of protect time. Stale after any [`Bdd::gc`] —
    /// prefer [`Bdd::current`] when collections may have run.
    pub fn id(&self) -> NodeId {
        self.id
    }
}

/// Outcome of one garbage-collection pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct GcRun {
    /// Dead nodes dropped by this pass.
    pub reclaimed: usize,
    /// Live decision nodes remaining after the pass.
    pub live: usize,
    /// Live nodes relocated to a new id by compaction.
    pub moved: usize,
}

/// Outcome of a [`Bdd::sift`] reordering pass.
///
/// Sifting garbage-collects between variables, and every collection
/// compacts — so the root the caller passed in has been renumbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct SiftRun {
    /// The sifted function under its post-compaction id.
    pub root: NodeId,
    /// Decision nodes reachable from `root` after reordering.
    pub size: usize,
}

/// Construction-time tuning knobs for a [`Bdd`] manager.
///
/// `0` means "use the built-in default" for every field, so
/// `BddConfig::default()` mirrors [`Bdd::new`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct BddConfig {
    /// Maximum ITE computed-table entries (rounded up to a power of
    /// two; `0` = default, currently 2^20).
    pub ite_cache_capacity: usize,
    /// Live-node count at which [`Bdd::maybe_gc`] starts collecting
    /// (`0` = default, currently 2^15; see [`DEFAULT_GC_THRESHOLD`]).
    pub gc_node_threshold: usize,
}

impl BddConfig {
    /// All-defaults configuration.
    pub fn new() -> Self {
        BddConfig::default()
    }
}

/// Operation counters and table sizes of a [`Bdd`] manager — the
/// observability surface consumed by `SolveReport` stats.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[non_exhaustive]
pub struct BddStats {
    /// Nodes allocated in the arena, including the two terminals.
    pub arena_nodes: usize,
    /// Entries in the unique (hash-consing) table.
    pub unique_entries: usize,
    /// Live entries in the ITE computed-table (current generation).
    pub ite_cache_entries: usize,
    /// ITE computed-table lookups since construction.
    pub ite_cache_lookups: u64,
    /// ITE computed-table hits since construction.
    pub ite_cache_hits: u64,
    /// ITE computed-table entries overwritten by colliding keys (the
    /// bounded-cache replacement cost).
    pub ite_cache_evictions: u64,
    /// Garbage-collection passes run. Every pass compacts, so this is
    /// also the compaction count.
    pub gc_runs: u64,
    /// Total nodes reclaimed across all GC passes.
    pub gc_reclaimed: u64,
    /// Total live nodes relocated by GC compaction (the preorder
    /// re-sort's data-movement cost).
    pub gc_moved: u64,
    /// Sifting reorder passes run.
    pub sift_runs: u64,
    /// Adjacent-level swaps performed across all sifting passes.
    pub sift_swaps: u64,
    /// Currently allocated decision nodes (dead nodes count until the
    /// next collection sweeps them).
    pub live_nodes: usize,
    /// High-water mark of allocated decision nodes.
    pub peak_live_nodes: usize,
}

impl BddStats {
    /// ITE computed-table hit rate in `[0, 1]` (`0` before any
    /// lookup).
    pub fn ite_hit_rate(&self) -> f64 {
        if self.ite_cache_lookups == 0 {
            0.0
        } else {
            self.ite_cache_hits as f64 / self.ite_cache_lookups as f64
        }
    }
}

/// An ROBDD manager over a fixed set of Boolean variables.
///
/// Variables are identified by their declaration index `0..nvars`,
/// which never changes; the *level* (position in the ordering) is an
/// internal indirection that starts as the identity and is permuted by
/// [`Bdd::sift`]. Callers index probability vectors by variable, so
/// reordering is transparent to them.
#[derive(Debug)]
pub struct Bdd {
    arena: NodeArena,
    unique: UniqueTable,
    cache: IteCache,
    nvars: u32,
    /// `var2level[var]` = current level of `var` (0 = topmost).
    var2level: Vec<u32>,
    /// `level2var[level]` = variable at that level.
    level2var: Vec<u32>,
    /// Protected roots; `NONE` marks a reusable slot. GC compaction
    /// rewrites these in place — the one id store that survives a
    /// collection.
    roots: Vec<u32>,
    peak_live: usize,
    gc_threshold: usize,
    next_gc_at: usize,
    gc_runs: u64,
    gc_reclaimed: u64,
    gc_moved: u64,
    pub(crate) sift_runs: u64,
    pub(crate) sift_swaps: u64,
}

impl Bdd {
    /// Creates a manager for `nvars` Boolean variables with default
    /// cache and GC settings.
    ///
    /// # Panics
    ///
    /// Panics if `nvars` exceeds [`MAX_VARS`] (the packed node format
    /// stores variables as `u16`); model builders, whose variable count
    /// comes from their input, call [`Bdd::new_with`] instead.
    pub fn new(nvars: u32) -> Self {
        Bdd::new_with(nvars as usize, BddConfig::default()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a manager with explicit cache/GC tuning.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::TooManyVariables`] if `nvars` exceeds
    /// [`MAX_VARS`].
    pub fn new_with(nvars: usize, config: BddConfig) -> Result<Self, BddError> {
        let nvars = check_nvars(nvars)?;
        let gc_threshold = if config.gc_node_threshold == 0 {
            DEFAULT_GC_THRESHOLD
        } else {
            config.gc_node_threshold
        };
        Ok(Bdd {
            arena: NodeArena::with_terminals(),
            unique: UniqueTable::new(),
            cache: IteCache::new(config.ite_cache_capacity),
            nvars,
            var2level: (0..nvars).collect(),
            level2var: (0..nvars).collect(),
            roots: Vec::new(),
            peak_live: 0,
            gc_threshold,
            next_gc_at: gc_threshold,
            gc_runs: 0,
            gc_reclaimed: 0,
            gc_moved: 0,
            sift_runs: 0,
            sift_swaps: 0,
        })
    }

    /// Declared variable count.
    pub fn nvars(&self) -> u32 {
        self.nvars
    }

    /// Total arena slots, including the two terminals (diagnostic).
    pub fn arena_size(&self) -> usize {
        self.arena.len()
    }

    /// Allocated decision nodes. With a compacting collector there is
    /// no free list: dead nodes count here until the next
    /// [`Bdd::gc`] drops them, which is exactly the population
    /// [`Bdd::maybe_gc`] triggers on.
    pub fn live_nodes(&self) -> usize {
        self.arena.len() - 2
    }

    /// Current variable order, topmost level first.
    pub fn current_order(&self) -> Vec<u32> {
        self.level2var.clone()
    }

    /// Level currently occupied by `var` (0 = topmost), or `None` if
    /// out of range.
    pub fn var_level(&self, var: u32) -> Option<u32> {
        self.var2level.get(var as usize).copied()
    }

    #[inline]
    pub(crate) fn level_of_var(&self, var: u32) -> u32 {
        self.var2level[var as usize]
    }

    /// Emits a `bdd.ite` summary trace event and flushes the manager's
    /// operation counters into the global metrics registry (counters
    /// `bdd.ite.lookups` / `bdd.ite.hits` / `bdd.ite.evictions`,
    /// `bdd.gc.runs` / `bdd.gc.reclaimed` / `bdd.gc.moved`,
    /// `bdd.sift.swaps`, gauge `bdd.ite.hit_rate`, histogram
    /// `bdd.arena_nodes`). Solver front-ends call this once per
    /// completed solve; near-free when observability is disabled.
    pub fn record_observability(&self) {
        if reliab_obs::trace_enabled() {
            reliab_obs::event(
                "bdd.ite",
                &[
                    ("lookups", self.cache.lookups().into()),
                    ("hits", self.cache.hits().into()),
                    ("nodes", self.arena.len().into()),
                ],
            );
        }
        if reliab_obs::metrics_enabled() {
            reliab_obs::counter_add("bdd.ite.lookups", self.cache.lookups());
            reliab_obs::counter_add("bdd.ite.hits", self.cache.hits());
            reliab_obs::counter_add("bdd.ite.evictions", self.cache.evictions());
            reliab_obs::gauge_set("bdd.ite.hit_rate", self.stats().ite_hit_rate());
            reliab_obs::counter_add("bdd.gc.runs", self.gc_runs);
            reliab_obs::counter_add("bdd.gc.reclaimed", self.gc_reclaimed);
            reliab_obs::counter_add("bdd.gc.moved", self.gc_moved);
            reliab_obs::counter_add("bdd.sift.swaps", self.sift_swaps);
            reliab_obs::registry()
                .histogram_with_buckets(
                    "bdd.arena_nodes",
                    &[
                        16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0,
                    ],
                )
                .observe(self.arena.len() as f64);
        }
    }

    /// Current table sizes and operation counters.
    pub fn stats(&self) -> BddStats {
        BddStats {
            arena_nodes: self.arena.len(),
            unique_entries: self.unique.len(),
            ite_cache_entries: self.cache.len(),
            ite_cache_lookups: self.cache.lookups(),
            ite_cache_hits: self.cache.hits(),
            ite_cache_evictions: self.cache.evictions(),
            gc_runs: self.gc_runs,
            gc_reclaimed: self.gc_reclaimed,
            gc_moved: self.gc_moved,
            sift_runs: self.sift_runs,
            sift_swaps: self.sift_swaps,
            live_nodes: self.live_nodes(),
            peak_live_nodes: self.peak_live,
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

    #[inline]
    pub(crate) fn topvar(&self, f: NodeId) -> u32 {
        self.arena.var(f.0) as u32
    }

    #[inline]
    pub(crate) fn cofactors(&self, f: NodeId, v: u32) -> (NodeId, NodeId) {
        if f.is_terminal() || self.topvar(f) != v {
            (f, f)
        } else {
            (NodeId(self.arena.low(f.0)), NodeId(self.arena.high(f.0)))
        }
    }

    /// Allocates an arena slot. Compaction means allocation is always
    /// a plain push — no free-list probe on the hot path.
    fn alloc(&mut self, var: u32, low: NodeId, high: NodeId) -> NodeId {
        debug_assert!(var < self.nvars);
        let id = self.arena.push(var as u16, low.0, high.0);
        let live = self.live_nodes();
        if live > self.peak_live {
            self.peak_live = live;
        }
        NodeId(id)
    }

    /// Hash-consed node constructor; the `bool` reports whether a fresh
    /// node was allocated (consumed by the reorder machinery).
    pub(crate) fn mk_tracked(&mut self, var: u32, low: NodeId, high: NodeId) -> (NodeId, bool) {
        if low == high {
            return (low, false);
        }
        match self.unique.probe(&self.arena, var as u16, low.0, high.0) {
            Probe::Found(id) => (NodeId(id), false),
            Probe::Insert(slot) => {
                let id = self.alloc(var, low, high);
                if self.unique.commit(slot, id.0) {
                    self.unique.rebuild(&self.arena);
                }
                (id, true)
            }
        }
    }

    pub(crate) fn mk(&mut self, var: u32, low: NodeId, high: NodeId) -> NodeId {
        self.mk_tracked(var, low, high).0
    }

    /// If-then-else: `(f ∧ g) ∨ (¬f ∧ h)` — the universal connective.
    pub fn ite(&mut self, f: NodeId, g: NodeId, h: NodeId) -> NodeId {
        if f == NodeId::TRUE {
            return g;
        }
        if f == NodeId::FALSE {
            return h;
        }
        if g == h {
            return g;
        }
        self.ite_rec(f, g, h)
    }

    /// Normalizes an ITE call to its standard triple (Brace–Rudell–
    /// Bryant): replaces operands equal to `f` by constants and
    /// canonically orders the commuting AND/OR forms, so equivalent
    /// calls share one computed-table entry. Returns `Err(result)`
    /// when the normalized call is a terminal case.
    #[inline]
    fn standard_triple(
        &self,
        f: NodeId,
        mut g: NodeId,
        mut h: NodeId,
    ) -> Result<(NodeId, NodeId, NodeId), NodeId> {
        // ite(f, f, h) = ite(f, 1, h);  ite(f, g, f) = ite(f, g, 0).
        if g == f {
            g = NodeId::TRUE;
        }
        if h == f {
            h = NodeId::FALSE;
        }
        if g == h {
            return Err(g);
        }
        if g == NodeId::TRUE && h == NodeId::FALSE {
            return Err(f);
        }
        // AND commutes: ite(f, g, 0) = ite(g, f, 0). OR commutes:
        // ite(f, 1, h) = ite(h, 1, f). Order the pair by topmost
        // level (tie-broken by id) so both spellings share a key.
        let rank = |n: NodeId| (self.level_of_var(self.topvar(n)), n.0);
        if h == NodeId::FALSE && !g.is_terminal() && rank(f) > rank(g) {
            return Ok((g, f, h));
        }
        if g == NodeId::TRUE && !h.is_terminal() && rank(f) > rank(h) {
            return Ok((h, g, f));
        }
        Ok((f, g, h))
    }

    /// Sequential ITE recursion over main-arena nodes.
    fn ite_rec(&mut self, f: NodeId, g: NodeId, h: NodeId) -> NodeId {
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
        let (f, g, h) = match self.standard_triple(f, g, h) {
            Ok(t) => t,
            Err(r) => return r,
        };
        // Progress event for long BDD compilations: one structured
        // event per 1024 ITE lookups (tracking node growth and cache
        // effectiveness over time), emitted only while tracing — the
        // hot path pays one mask-compare plus a relaxed atomic load.
        if self.cache.lookups() & 0x3FF == 0 && reliab_obs::trace_enabled() {
            reliab_obs::event(
                "bdd.ite",
                &[
                    ("lookups", self.cache.lookups().into()),
                    ("hits", self.cache.hits().into()),
                    ("nodes", self.arena.len().into()),
                ],
            );
        }
        if let Some(r) = self.cache.get(f, g, h) {
            return r;
        }
        // Split on the variable at the topmost *level* among the
        // operands (with reordering, variable index no longer implies
        // position).
        let top_level = [f, g, h]
            .iter()
            .filter(|n| !n.is_terminal())
            .map(|n| self.level_of_var(self.topvar(*n)))
            .min()
            .expect("at least f is non-terminal");
        let v = self.level2var[top_level as usize];
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let (h0, h1) = self.cofactors(h, v);
        let lo = self.ite_rec(f0, g0, h0);
        let hi = self.ite_rec(f1, g1, h1);
        let r = self.mk(v, lo, hi);
        self.cache.put(f, g, h, r);
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
        let mut memo = FxHashMap::default();
        Ok(self.restrict_rec(f, var, val, &mut memo))
    }

    fn restrict_rec(
        &mut self,
        f: NodeId,
        var: u32,
        val: bool,
        memo: &mut FxHashMap<NodeId, NodeId>,
    ) -> NodeId {
        if f.is_terminal() {
            return f;
        }
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let fvar = self.topvar(f);
        let (low, high) = (NodeId(self.arena.low(f.0)), NodeId(self.arena.high(f.0)));
        let r = if fvar == var {
            if val {
                high
            } else {
                low
            }
        } else if self.level_of_var(fvar) > self.level_of_var(var) {
            // var does not appear below f (ordering), nothing to do.
            f
        } else {
            let lo = self.restrict_rec(low, var, val, memo);
            let hi = self.restrict_rec(high, var, val, memo);
            self.mk(fvar, lo, hi)
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
            cur = if assignment[self.topvar(cur) as usize] {
                NodeId(self.arena.high(cur.0))
            } else {
                NodeId(self.arena.low(cur.0))
            };
        }
        Ok(cur == NodeId::TRUE)
    }

    fn validate_probabilities(&self, p: &[f64]) -> Result<(), BddError> {
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
        Ok(())
    }

    /// Exact probability that `f` is true, given independent per-variable
    /// probabilities `p[i] = P(x_i = true)`.
    ///
    /// Linear in the number of reachable nodes (memoized Shannon
    /// expansion) — the reason BDDs beat cut-set inclusion–exclusion on
    /// large trees. The memo is a dense per-id vector: after a
    /// compacting GC the live cone occupies a contiguous preorder
    /// prefix of the arena, so the pass is near-sequential in memory.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::BadProbabilities`] on a length mismatch or an
    /// entry outside `[0, 1]`.
    pub fn probability(&self, f: NodeId, p: &[f64]) -> Result<f64, BddError> {
        self.validate_probabilities(p)?;
        let mut memo = vec![f64::NAN; self.arena.len()];
        memo[0] = 0.0;
        memo[1] = 1.0;
        Ok(self.prob_rec(f, p, &mut memo))
    }

    fn prob_rec(&self, f: NodeId, p: &[f64], memo: &mut [f64]) -> f64 {
        let cached = memo[f.0 as usize];
        if !cached.is_nan() {
            return cached;
        }
        let q = p[self.topvar(f) as usize];
        let high = NodeId(self.arena.high(f.0));
        let low = NodeId(self.arena.low(f.0));
        let v = q * self.prob_rec(high, p, memo) + (1.0 - q) * self.prob_rec(low, p, memo);
        memo[f.0 as usize] = v;
        v
    }

    /// Birnbaum importance (partial derivative) of every variable:
    /// `∂P(f)/∂p_i = P(f | x_i = 1) - P(f | x_i = 0)`.
    ///
    /// Computed with the two-sweep algorithm — a bottom-up node
    /// probability pass and a top-down path-weight pass — so the whole
    /// importance vector costs O(|BDD|), not O(nvars · |BDD|), and
    /// allocates no BDD nodes.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::BadProbabilities`] on an invalid `p`.
    pub fn birnbaum(&self, f: NodeId, p: &[f64]) -> Result<Vec<f64>, BddError> {
        self.validate_probabilities(p)?;
        let mut out = vec![0.0; self.nvars as usize];
        if f.is_terminal() {
            return Ok(out);
        }
        // Reachable decision nodes in topological (level, id) order:
        // parents strictly precede children because child levels are
        // strictly greater.
        let mut order: Vec<u32> = Vec::new();
        {
            let mut seen = vec![false; self.arena.len()];
            let mut stack = vec![f.0];
            while let Some(id) = stack.pop() {
                if id < 2 || seen[id as usize] {
                    continue;
                }
                seen[id as usize] = true;
                order.push(id);
                stack.push(self.arena.low(id));
                stack.push(self.arena.high(id));
            }
        }
        order.sort_unstable_by_key(|&id| (self.level_of_var(self.arena.var(id) as u32), id));
        // Bottom-up: q[n] = P(n true). Dense per-id storage (NaN =
        // unreachable) keeps both sweeps allocation- and hash-free.
        let mut q = vec![f64::NAN; self.arena.len()];
        q[0] = 0.0;
        q[1] = 1.0;
        for &id in order.iter().rev() {
            let pv = p[self.arena.var(id) as usize];
            q[id as usize] =
                pv * q[self.arena.high(id) as usize] + (1.0 - pv) * q[self.arena.low(id) as usize];
        }
        // Top-down: w[n] = probability of reaching n from the root
        // without testing n's variable; the derivative contribution of
        // node n to its variable is w[n] · (q(high) − q(low)).
        let mut w = vec![0.0f64; self.arena.len()];
        w[f.0 as usize] = 1.0;
        for &id in order.iter() {
            let weight = w[id as usize];
            let var = self.arena.var(id) as usize;
            let pv = p[var];
            let (lo, hi) = (self.arena.low(id), self.arena.high(id));
            out[var] += weight * (q[hi as usize] - q[lo as usize]);
            if lo >= 2 {
                w[lo as usize] += weight * (1.0 - pv);
            }
            if hi >= 2 {
                w[hi as usize] += weight * pv;
            }
        }
        Ok(out)
    }

    /// Number of BDD nodes reachable from `f` (excluding terminals) —
    /// the usual size metric for ordering-heuristic comparisons.
    pub fn node_count(&self, f: NodeId) -> usize {
        let mut seen = vec![false; self.arena.len()];
        let mut count = 0usize;
        let mut stack = vec![f.0];
        while let Some(id) = stack.pop() {
            if id < 2 || seen[id as usize] {
                continue;
            }
            seen[id as usize] = true;
            count += 1;
            stack.push(self.arena.low(id));
            stack.push(self.arena.high(id));
        }
        count
    }

    // ---- garbage collection -------------------------------------------

    /// Pins `f` as a GC root. The returned handle keeps `f` and its
    /// whole cone alive across [`Bdd::gc`]; release with
    /// [`Bdd::unprotect`]. Because collections renumber nodes, read
    /// the root's live id back with [`Bdd::current`] after any call
    /// that may have collected.
    pub fn protect(&mut self, f: NodeId) -> BddRef {
        let slot = match self.roots.iter().position(|&r| r == NONE) {
            Some(s) => {
                self.roots[s] = f.0;
                s
            }
            None => {
                self.roots.push(f.0);
                self.roots.len() - 1
            }
        };
        BddRef { slot, id: f }
    }

    /// The protected function's id as of now. Differs from
    /// [`BddRef::id`] once a collection has compacted the arena.
    pub fn current(&self, r: &BddRef) -> NodeId {
        NodeId(self.roots[r.slot])
    }

    /// Releases a root handle obtained from [`Bdd::protect`].
    pub fn unprotect(&mut self, r: BddRef) {
        self.roots[r.slot] = NONE;
    }

    /// Number of currently protected roots.
    pub fn protected_roots(&self) -> usize {
        self.roots.iter().filter(|&&r| r != NONE).count()
    }

    /// Compacting mark-and-sweep garbage collection.
    ///
    /// The live cone of the protected roots is copied into a fresh
    /// arena in **DFS preorder** (high child first, matching the
    /// recursion order of apply and probability evaluation), dead
    /// nodes are dropped, the unique table is rebuilt over the new
    /// layout, and the ITE cache is invalidated by generation tag.
    ///
    /// **All outstanding [`NodeId`]s are renumbered.** Callers re-read
    /// every function they still need through [`Bdd::current`] on its
    /// [`BddRef`]; unprotected ids are simply gone. The manager only
    /// auto-collects via [`Bdd::maybe_gc`] at caller-chosen safe
    /// points, never inside `ite` recursion.
    pub fn gc(&mut self) -> GcRun {
        let _span = reliab_obs::span("bdd.gc.compact");
        let old_len = self.arena.len();
        // DFS preorder over the live cone. `remap[old] = new id`.
        let mut remap: Vec<u32> = vec![NONE; old_len];
        remap[0] = 0;
        remap[1] = 1;
        let mut order: Vec<u32> = Vec::with_capacity(old_len.min(1 << 20));
        let mut stack: Vec<u32> = Vec::new();
        // Reverse slot order so the lowest-numbered root's cone is
        // laid out first (deterministic layout regardless of when
        // roots were pinned).
        for &r in self.roots.iter().rev() {
            if r != NONE {
                stack.push(r);
            }
        }
        while let Some(id) = stack.pop() {
            if id < 2 || remap[id as usize] != NONE {
                continue;
            }
            remap[id as usize] = (2 + order.len()) as u32;
            order.push(id);
            // Push low first so the high child is visited (and laid
            // out) immediately after its parent — `prob_rec` and the
            // apply descent both recurse into `high` first.
            stack.push(self.arena.low(id));
            stack.push(self.arena.high(id));
        }
        let live = order.len();
        let mut moved = 0usize;
        let mut arena = NodeArena::with_terminals();
        arena.vars.reserve(live);
        arena.lows.reserve(live);
        arena.highs.reserve(live);
        for &old in &order {
            let new = arena.push(
                self.arena.var(old),
                remap[self.arena.low(old) as usize],
                remap[self.arena.high(old) as usize],
            );
            if new != old {
                moved += 1;
            }
        }
        self.arena = arena;
        for r in self.roots.iter_mut() {
            if *r != NONE {
                *r = remap[*r as usize];
            }
        }
        let reclaimed = old_len - 2 - live;
        self.unique.rebuild_from_arena(&self.arena);
        self.cache.invalidate_all();
        self.gc_runs += 1;
        self.gc_reclaimed += reclaimed as u64;
        self.gc_moved += moved as u64;
        self.next_gc_at = (live * 2).max(self.gc_threshold);
        if reliab_obs::trace_enabled() {
            reliab_obs::event(
                "bdd.gc",
                &[
                    ("run", self.gc_runs.into()),
                    ("reclaimed", reclaimed.into()),
                    ("live", live.into()),
                    ("moved", moved.into()),
                    ("next_gc_at", self.next_gc_at.into()),
                ],
            );
        }
        GcRun {
            reclaimed,
            live,
            moved,
        }
    }

    /// Runs [`Bdd::gc`] if the allocated-node count has crossed the
    /// current threshold *and* at least one root is protected
    /// (collecting with no roots would free everything). After a pass
    /// the threshold adapts to `max(configured, 2 × live)` so GC stays
    /// amortized.
    pub fn maybe_gc(&mut self) -> Option<GcRun> {
        if self.live_nodes() >= self.next_gc_at && self.roots.iter().any(|&r| r != NONE) {
            Some(self.gc())
        } else {
            None
        }
    }

    /// Replaces the live-node threshold used by [`Bdd::maybe_gc`]
    /// (`0` restores the default).
    pub fn set_gc_threshold(&mut self, threshold: usize) {
        self.gc_threshold = if threshold == 0 {
            DEFAULT_GC_THRESHOLD
        } else {
            threshold
        };
        self.next_gc_at = (self.live_nodes() * 2).max(self.gc_threshold);
    }

    // ---- paths ---------------------------------------------------------

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
        let var = self.topvar(f);
        let (low, high) = (NodeId(self.arena.low(f.0)), NodeId(self.arena.high(f.0)));
        prefix.push((var, false));
        self.paths_rec(low, prefix, out);
        prefix.pop();
        prefix.push((var, true));
        self.paths_rec(high, prefix, out);
        prefix.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_and_variables() {
        let mut b = Bdd::new(2);
        let x = b.var(0).unwrap();
        assert_ne!(x, NodeId::TRUE);
        assert_ne!(x, NodeId::FALSE);
        // Hash consing: same variable gives the same node.
        assert_eq!(x, b.var(0).unwrap());
        assert!(b.var(2).is_err());
        assert!(b.nvar(5).is_err());
    }

    #[test]
    fn boolean_identities() {
        let mut b = Bdd::new(3);
        let x = b.var(0).unwrap();
        let y = b.var(1).unwrap();
        let nx = b.not(x);
        assert_eq!(b.and(x, nx), NodeId::FALSE);
        assert_eq!(b.or(x, nx), NodeId::TRUE);
        assert_eq!(b.and(x, x), x);
        assert_eq!(b.or(x, NodeId::FALSE), x);
        assert_eq!(b.and(x, NodeId::TRUE), x);
        let xy = b.and(x, y);
        let yx = b.and(y, x);
        assert_eq!(xy, yx, "canonical form is order-independent");
        let double_neg = {
            let n = b.not(x);
            b.not(n)
        };
        assert_eq!(double_neg, x);
    }

    #[test]
    fn xor_truth_table() {
        let mut b = Bdd::new(2);
        let x = b.var(0).unwrap();
        let y = b.var(1).unwrap();
        let f = b.xor(x, y);
        assert!(!b.eval(f, &[false, false]).unwrap());
        assert!(b.eval(f, &[true, false]).unwrap());
        assert!(b.eval(f, &[false, true]).unwrap());
        assert!(!b.eval(f, &[true, true]).unwrap());
    }

    #[test]
    fn probability_series_parallel() {
        let mut b = Bdd::new(2);
        let x = b.var(0).unwrap();
        let y = b.var(1).unwrap();
        let and = b.and(x, y);
        let or = b.or(x, y);
        let p = [0.1, 0.2];
        assert!((b.probability(and, &p).unwrap() - 0.02).abs() < 1e-15);
        assert!((b.probability(or, &p).unwrap() - 0.28).abs() < 1e-15);
        assert_eq!(b.probability(NodeId::TRUE, &p).unwrap(), 1.0);
        assert_eq!(b.probability(NodeId::FALSE, &p).unwrap(), 0.0);
    }

    #[test]
    fn probability_validates_input() {
        let mut b = Bdd::new(2);
        let x = b.var(0).unwrap();
        assert!(b.probability(x, &[0.5]).is_err());
        assert!(b.probability(x, &[0.5, 1.5]).is_err());
        assert!(b.probability(x, &[0.5, f64::NAN]).is_err());
    }

    #[test]
    fn shared_variable_exactness() {
        // f = (x ∧ y) ∨ (x ∧ z): naive independence-of-terms would give
        // the wrong answer; the BDD accounts for the shared x.
        let mut b = Bdd::new(3);
        let x = b.var(0).unwrap();
        let y = b.var(1).unwrap();
        let z = b.var(2).unwrap();
        let t1 = b.and(x, y);
        let t2 = b.and(x, z);
        let f = b.or(t1, t2);
        let p = [0.5, 0.5, 0.5];
        // P = P(x) * P(y ∨ z) = 0.5 * 0.75
        assert!((b.probability(f, &p).unwrap() - 0.375).abs() < 1e-15);
    }

    #[test]
    fn at_least_k_of_n() {
        let mut b = Bdd::new(4);
        let vars: Vec<NodeId> = (0..4).map(|i| b.var(i).unwrap()).collect();
        let f = b.at_least_k(&vars, 2);
        // P(at least 2 of 4 with p = 0.5) = 11/16.
        let p = [0.5; 4];
        assert!((b.probability(f, &p).unwrap() - 11.0 / 16.0).abs() < 1e-15);
        assert_eq!(b.at_least_k(&vars, 0), NodeId::TRUE);
        assert_eq!(b.at_least_k(&vars, 5), NodeId::FALSE);
        // k = n is the AND, k = 1 is the OR.
        let all = b.and_all(vars.iter().copied());
        assert_eq!(b.at_least_k(&vars, 4), all);
        let any = b.or_all(vars.iter().copied());
        assert_eq!(b.at_least_k(&vars, 1), any);
    }

    #[test]
    fn restrict_cofactors() {
        let mut b = Bdd::new(2);
        let x = b.var(0).unwrap();
        let y = b.var(1).unwrap();
        let f = b.and(x, y);
        assert_eq!(b.restrict(f, 0, true).unwrap(), y);
        assert_eq!(b.restrict(f, 0, false).unwrap(), NodeId::FALSE);
        assert!(b.restrict(f, 9, true).is_err());
    }

    #[test]
    fn birnbaum_for_two_out_of_three() {
        let mut b = Bdd::new(3);
        let vars: Vec<NodeId> = (0..3).map(|i| b.var(i).unwrap()).collect();
        let f = b.at_least_k(&vars, 2);
        let p = [0.1, 0.2, 0.3];
        let imp = b.birnbaum(f, &p).unwrap();
        // dP/dp0 = P(at least 1 of {y,z}) - P(both of {y,z})
        //        = (0.2 + 0.3 - 0.06) - 0.06 = 0.38
        assert!((imp[0] - 0.38).abs() < 1e-12);
        // Analytic check for var 1: (0.1 + 0.3 - 0.03) - 0.03 = 0.34
        assert!((imp[1] - 0.34).abs() < 1e-12);
    }

    #[test]
    fn birnbaum_matches_restrict_definition() {
        // Cross-check the two-sweep implementation against the
        // defining formula P(f|x=1) − P(f|x=0) computed via restrict.
        let mut b = Bdd::new(5);
        let vars: Vec<NodeId> = (0..5).map(|i| b.var(i).unwrap()).collect();
        let t1 = b.and(vars[0], vars[1]);
        let t2 = b.and(vars[2], vars[3]);
        let t3 = b.or(t2, vars[4]);
        let f = b.or(t1, t3);
        let p = [0.1, 0.25, 0.3, 0.45, 0.05];
        let imp = b.birnbaum(f, &p).unwrap();
        for v in 0..5u32 {
            let f1 = b.restrict(f, v, true).unwrap();
            let f0 = b.restrict(f, v, false).unwrap();
            let expect = b.probability(f1, &p).unwrap() - b.probability(f0, &p).unwrap();
            assert!(
                (imp[v as usize] - expect).abs() < 1e-12,
                "var {v}: {} vs {expect}",
                imp[v as usize]
            );
        }
    }

    #[test]
    fn satisfying_paths_are_disjoint_and_complete() {
        let mut b = Bdd::new(3);
        let x = b.var(0).unwrap();
        let y = b.var(1).unwrap();
        let z = b.var(2).unwrap();
        let t1 = b.and(x, y);
        let f = b.or(t1, z);
        let p = [0.3, 0.4, 0.5];
        let paths = b.satisfying_paths(f);
        let total: f64 = paths
            .iter()
            .map(|path| {
                path.iter()
                    .map(|&(v, val)| {
                        if val {
                            p[v as usize]
                        } else {
                            1.0 - p[v as usize]
                        }
                    })
                    .product::<f64>()
            })
            .sum();
        assert!((total - b.probability(f, &p).unwrap()).abs() < 1e-14);
    }

    #[test]
    fn minimal_solutions_of_simple_functions() {
        let mut b = Bdd::new(3);
        let x = b.var(0).unwrap();
        let y = b.var(1).unwrap();
        let z = b.var(2).unwrap();
        // f = x OR (y AND z): minimal solutions {x}, {y,z}.
        let yz = b.and(y, z);
        let f = b.or(x, yz);
        let sols = b.minimal_solutions(f);
        assert_eq!(sols, vec![vec![0], vec![1, 2]]);
        // Constants.
        assert!(b.minimal_solutions(NodeId::FALSE).is_empty());
        assert_eq!(b.minimal_solutions(NodeId::TRUE), vec![Vec::<u32>::new()]);
    }

    #[test]
    fn minimal_solutions_absorb_supersets() {
        let mut b = Bdd::new(3);
        let x = b.var(0).unwrap();
        let y = b.var(1).unwrap();
        // f = x OR (x AND y) == x.
        let xy = b.and(x, y);
        let f = b.or(x, xy);
        assert_eq!(b.minimal_solutions(f), vec![vec![0]]);
    }

    #[test]
    fn minimal_solutions_of_threshold_functions() {
        let mut b = Bdd::new(5);
        let vars: Vec<NodeId> = (0..5).map(|i| b.var(i).unwrap()).collect();
        let f = b.at_least_k(&vars, 3);
        let sols = b.minimal_solutions(f);
        assert_eq!(sols.len(), 10); // C(5,3)
        assert!(sols.iter().all(|s| s.len() == 3));
    }

    #[test]
    fn node_count_reflects_sharing() {
        let mut b = Bdd::new(6);
        let vars: Vec<NodeId> = (0..6).map(|i| b.var(i).unwrap()).collect();
        let f = b.at_least_k(&vars, 3);
        // Threshold functions have quadratic-size BDDs; specifically
        // small here.
        let count = f;
        assert!(b.node_count(count) <= 6 * 3 + 2);
        assert_eq!(b.node_count(NodeId::TRUE), 0);
    }

    #[test]
    fn stats_track_tables_and_cache() {
        let mut b = Bdd::new(4);
        assert_eq!(b.stats().arena_nodes, 2);
        assert_eq!(b.stats().ite_cache_lookups, 0);
        assert_eq!(b.stats().ite_hit_rate(), 0.0);
        let vars: Vec<NodeId> = (0..4).map(|i| b.var(i).unwrap()).collect();
        let f = b.at_least_k(&vars, 2);
        let s = b.stats();
        assert!(s.arena_nodes > 2);
        assert_eq!(s.arena_nodes, b.arena_size());
        assert!(s.unique_entries > 0);
        assert!(s.ite_cache_lookups >= s.ite_cache_hits);
        assert!((0.0..=1.0).contains(&s.ite_hit_rate()));
        // Recomputing the same function hits the computed-table.
        let before = b.stats().ite_cache_hits;
        let f2 = b.at_least_k(&vars, 2);
        assert_eq!(f, f2);
        assert!(b.stats().ite_cache_hits >= before);
    }

    #[test]
    fn eval_length_mismatch() {
        let b = Bdd::new(3);
        assert!(b.eval(NodeId::TRUE, &[true]).is_err());
    }

    #[test]
    fn standard_triples_share_cache_entries() {
        // and(x, y) then and(y, x): the commuted call must be a cache
        // hit, not just a canonical-node hit.
        let mut b = Bdd::new(2);
        let x = b.var(0).unwrap();
        let y = b.var(1).unwrap();
        let xy = b.and(x, y);
        let hits_before = b.stats().ite_cache_hits;
        let yx = b.and(y, x);
        assert_eq!(xy, yx);
        assert!(
            b.stats().ite_cache_hits > hits_before,
            "commuted AND should hit the normalized computed-table entry"
        );
    }

    // ---- compacting-GC tests ------------------------------------------

    #[test]
    fn gc_reclaims_unreachable_nodes() {
        let mut b = Bdd::new(8);
        let vars: Vec<NodeId> = (0..8).map(|i| b.var(i).unwrap()).collect();
        let keep = b.at_least_k(&vars[..4], 2);
        let _dead = b.at_least_k(&vars, 5); // never protected
        let root = b.protect(keep);
        let live_before = b.live_nodes();
        let run = b.gc();
        assert!(run.reclaimed > 0, "threshold junk should be collected");
        assert!(run.live < live_before);
        assert_eq!(run.live, b.live_nodes());
        assert_eq!(b.stats().gc_runs, 1);
        assert_eq!(b.stats().gc_reclaimed, run.reclaimed as u64);
        // The protected function (under its compacted id) still
        // evaluates identically.
        let keep = b.current(&root);
        let p = [0.2; 8];
        let q = b.probability(keep, &p).unwrap();
        let expect = {
            let mut fresh = Bdd::new(8);
            let vs: Vec<NodeId> = (0..8).map(|i| fresh.var(i).unwrap()).collect();
            let f = fresh.at_least_k(&vs[..4], 2);
            fresh.probability(f, &p).unwrap()
        };
        assert_eq!(q, expect);
        b.unprotect(root);
    }

    #[test]
    fn gc_preserves_canonicity_through_rebuild() {
        let mut b = Bdd::new(6);
        let vars: Vec<NodeId> = (0..6).map(|i| b.var(i).unwrap()).collect();
        let f = b.at_least_k(&vars, 3);
        let _junk = b.at_least_k(&vars, 2);
        let root = b.protect(f);
        let live_before = b.live_nodes();
        b.gc();
        // Rebuilding the same function after GC must hash-cons onto the
        // surviving (renumbered) nodes, not duplicate them. The old
        // `vars` and `f` ids are dangling — re-read through the guard.
        let f = b.current(&root);
        let vars2: Vec<NodeId> = (0..6).map(|i| b.var(i).unwrap()).collect();
        let f2 = b.at_least_k(&vars2, 3);
        assert_eq!(f, f2, "canonicity lost across gc");
        // Only garbage intermediates get rebuilt — f's cone is shared,
        // so the arena never exceeds its pre-collection population.
        assert!(b.live_nodes() <= live_before);
        b.unprotect(root);
    }

    #[test]
    fn gc_compacts_live_cone_into_preorder_prefix() {
        let mut b = Bdd::new(10);
        let vars: Vec<NodeId> = (0..10).map(|i| b.var(i).unwrap()).collect();
        let keep = b.or(vars[0], vars[1]);
        let _dead = b.at_least_k(&vars, 4);
        let root = b.protect(keep);
        let arena_before = b.arena_size();
        let run = b.gc();
        assert!(run.reclaimed > 0);
        // Compaction shrinks the arena to exactly the live cone...
        assert_eq!(b.arena_size(), 2 + run.live);
        assert!(b.arena_size() < arena_before);
        // ...and relocated nodes are counted.
        assert_eq!(run.moved as u64, b.stats().gc_moved);
        // The compacted root sits at the start of the preorder prefix.
        assert_eq!(b.current(&root), NodeId(2));
        b.unprotect(root);
    }

    #[test]
    fn maybe_gc_respects_threshold_and_roots() {
        let mut b = Bdd::new(12);
        b.set_gc_threshold(8);
        let vars: Vec<NodeId> = (0..12).map(|i| b.var(i).unwrap()).collect();
        let f = b.at_least_k(&vars, 6);
        // No roots protected: must not collect (it would free f).
        assert!(b.maybe_gc().is_none());
        let root = b.protect(f);
        let run = b.maybe_gc();
        assert!(run.is_some(), "live {} >= threshold 8", b.live_nodes());
        // Immediately after a pass the adaptive threshold backs off.
        assert!(b.maybe_gc().is_none());
        let f = b.current(&root);
        let p = [0.3; 12];
        assert!(b.probability(f, &p).is_ok());
        b.unprotect(root);
    }

    #[test]
    fn bounded_cache_counts_evictions() {
        // A 64-entry cache under a workload with far more distinct ITE
        // calls must evict rather than grow without bound.
        let mut cfg = BddConfig::new();
        cfg.ite_cache_capacity = 64;
        let fresh = Bdd::new(24);
        assert_eq!(fresh.stats().ite_cache_evictions, 0);
        let mut b = Bdd::new_with(24, cfg).unwrap();
        let vars: Vec<NodeId> = (0..24).map(|i| b.var(i).unwrap()).collect();
        let _f = b.at_least_k(&vars, 12);
        let s = b.stats();
        assert!(s.ite_cache_evictions > 0, "expected evictions, got {s:?}");
        assert!(s.ite_cache_entries <= 64);
    }

    #[test]
    fn live_and_peak_counters() {
        let mut b = Bdd::new(8);
        assert_eq!(b.live_nodes(), 0);
        let vars: Vec<NodeId> = (0..8).map(|i| b.var(i).unwrap()).collect();
        let f = b.at_least_k(&vars, 4);
        let live = b.live_nodes();
        let peak = b.stats().peak_live_nodes;
        assert!(live > 0 && peak >= live);
        let root = b.protect(f);
        b.gc();
        assert!(b.live_nodes() <= live);
        // Peak is a high-water mark: GC must not lower it.
        assert_eq!(b.stats().peak_live_nodes, peak);
        b.unprotect(root);
    }

    #[test]
    fn protect_slots_are_reused() {
        let mut b = Bdd::new(4);
        let x = b.var(0).unwrap();
        let y = b.var(1).unwrap();
        let r1 = b.protect(x);
        let r2 = b.protect(y);
        assert_eq!(b.protected_roots(), 2);
        assert_eq!(b.current(&r1), x);
        b.unprotect(r1);
        let r3 = b.protect(y);
        assert_eq!(b.protected_roots(), 2, "freed slot should be reused");
        b.unprotect(r2);
        b.unprotect(r3);
        assert_eq!(b.protected_roots(), 0);
    }

    #[test]
    fn default_order_is_identity() {
        let b = Bdd::new(5);
        assert_eq!(b.current_order(), vec![0, 1, 2, 3, 4]);
        assert_eq!(b.var_level(3), Some(3));
        assert_eq!(b.var_level(5), None);
    }

    #[test]
    #[should_panic(expected = "packed-node limit")]
    fn too_many_variables_panics() {
        let _ = Bdd::new(MAX_VARS + 1);
    }

    #[test]
    fn new_with_returns_the_variable_limit_as_an_error() {
        let limit = MAX_VARS as usize;
        assert_eq!(
            Bdd::new_with(limit + 1, BddConfig::new()).unwrap_err(),
            BddError::TooManyVariables { nvars: limit + 1 }
        );
        assert!(Bdd::new_with(usize::MAX, BddConfig::new()).is_err());
        assert_eq!(
            Bdd::new_with(limit, BddConfig::new()).unwrap().nvars(),
            MAX_VARS
        );
    }
}
