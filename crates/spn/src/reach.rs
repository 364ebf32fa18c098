//! Reachability-graph generation, vanishing-marking elimination, and
//! CTMC-backed measures.
//!
//! The generator is built for state spaces in the 10^5–10^6 range:
//! markings live packed in a single `u32` arena behind an
//! open-addressing FxHash intern table (no `Marking` clones on the hot
//! path), the frontier can be explored by a work-stealing worker pool
//! (`ReachabilityOptions::jobs`), and the CTMC is emitted as a triplet
//! stream under a canonical state numbering — the BFS discovery order
//! of the sequential reference — so parallel and sequential runs
//! produce bitwise-identical generators. See `DESIGN.md` for the
//! determinism argument.

use crate::model::{Spn, Timing, TransitionId};
use crate::Marking;
use reliab_core::fxhash::FxHasher;
use reliab_core::{Error, Result};
use reliab_markov::{Ctmc, StateId};
use reliab_obs as obs;
use std::collections::VecDeque;
use std::hash::Hasher;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Options for reachability-graph generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReachabilityOptions {
    /// Hard cap on tangible markings (state-space explosion guard).
    pub max_markings: usize,
    /// Hard cap on vanishing-chain length while eliminating immediate
    /// transitions (catches immediate-transition loops).
    pub max_vanishing_depth: usize,
    /// Worker threads for frontier exploration: `1` (the default) runs
    /// the sequential reference generator in the calling thread, `0`
    /// uses one worker per available CPU, `n > 1` uses exactly `n`
    /// workers. Every setting yields the same canonical CTMC bit for
    /// bit; see `DESIGN.md`.
    pub jobs: usize,
    /// log2 of the number of intern-table shards used by the parallel
    /// generator (clamped to `[0, 16]`; the sequential path keeps a
    /// single unsharded table).
    pub shard_bits: u32,
}

impl Default for ReachabilityOptions {
    fn default() -> Self {
        ReachabilityOptions {
            max_markings: 1_000_000,
            max_vanishing_depth: 10_000,
            jobs: 1,
            shard_bits: 6,
        }
    }
}

/// Telemetry from one reachability-graph generation, exposed via
/// [`SolvedSpn::reach_stats`] and mirrored into the `reliab-obs`
/// metrics registry under `spn.reach.*`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ReachStats {
    /// Tangible markings (CTMC states).
    pub markings: usize,
    /// CTMC rate triplets emitted (parallel arcs still separate).
    pub arcs: usize,
    /// Vanishing markings expanded and eliminated on the way.
    pub vanishing_eliminated: u64,
    /// Worker threads used (1 = sequential reference path).
    pub workers: usize,
    /// Intern-table shards (1 for the sequential path).
    pub shards: usize,
    /// Markings held by the fullest shard.
    pub max_shard_occupancy: usize,
    /// Markings expanded by each worker (one entry per worker).
    pub per_worker_markings: Vec<u64>,
    /// Wall-clock nanoseconds spent on graph generation (excludes CTMC
    /// assembly).
    pub generation_ns: u128,
}

/// Hashes a packed marking with the vendored FxHash — the keys are
/// process-generated token vectors, so the non-cryptographic
/// multiply-rotate hash is the right trade (same reasoning as the BDD
/// unique table).
#[inline]
pub(crate) fn hash_marking(m: &[u32]) -> u64 {
    let mut h = FxHasher::default();
    for &w in m {
        h.write_u32(w);
    }
    h.finish()
}

/// Empty-slot sentinel in the intern table.
const EMPTY: u32 = u32::MAX;

/// Open-addressing intern table over packed markings.
///
/// Markings are rows of stride `width` in one shared `u32` arena;
/// table slots cache the full 64-bit hash so probes touch the arena
/// only on a hash match. Interning a marking copies `width` words into
/// the arena at most once — no `Marking` (i.e. `Vec<u32>`) clones, no
/// per-state allocation.
pub(crate) struct InternTable {
    width: usize,
    hashes: Vec<u64>,
    ids: Vec<u32>,
    arena: Vec<u32>,
    pub(crate) count: usize,
}

impl InternTable {
    pub(crate) fn new(width: usize) -> Self {
        let cap = 1024;
        InternTable {
            width,
            hashes: vec![0; cap],
            ids: vec![EMPTY; cap],
            arena: Vec::new(),
            count: 0,
        }
    }

    /// The packed marking with local id `id`.
    #[inline]
    pub(crate) fn get(&self, id: u32) -> &[u32] {
        let lo = id as usize * self.width;
        &self.arena[lo..lo + self.width]
    }

    /// Read-only probe: the local id of `m` if it is interned. Touches
    /// the arena only on a full-hash match, like [`InternTable::intern`],
    /// but never mutates — the row-regeneration hot path of the
    /// streaming solver tier, where every successor is already known to
    /// be interned.
    #[inline]
    pub(crate) fn find(&self, m: &[u32], hash: u64) -> Option<u32> {
        let mask = self.ids.len() - 1;
        let mut slot = (hash as usize) & mask;
        loop {
            let id = self.ids[slot];
            if id == EMPTY {
                return None;
            }
            if self.hashes[slot] == hash && self.get(id) == m {
                return Some(id);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Bytes resident in the table's backing stores (arena plus slot
    /// arrays) — the deterministic accounting the streaming tier's
    /// memory planner uses.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.arena.len() * 4 + self.hashes.len() * 8 + self.ids.len() * 4
    }

    /// Interns `m` (whose hash is `hash`), returning its local id and
    /// whether it was newly inserted.
    pub(crate) fn intern(&mut self, m: &[u32], hash: u64) -> (u32, bool) {
        debug_assert_eq!(m.len(), self.width);
        // Grow at 70% load so probe chains stay short.
        if self.count * 10 >= self.ids.len() * 7 {
            self.grow();
        }
        let mask = self.ids.len() - 1;
        let mut slot = (hash as usize) & mask;
        loop {
            let id = self.ids[slot];
            if id == EMPTY {
                let new_id = self.count as u32;
                self.ids[slot] = new_id;
                self.hashes[slot] = hash;
                self.arena.extend_from_slice(m);
                self.count += 1;
                return (new_id, true);
            }
            if self.hashes[slot] == hash && self.get(id) == m {
                return (id, false);
            }
            slot = (slot + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let new_cap = self.ids.len() * 2;
        let mut hashes = vec![0u64; new_cap];
        let mut ids = vec![EMPTY; new_cap];
        let mask = new_cap - 1;
        for old_slot in 0..self.ids.len() {
            let id = self.ids[old_slot];
            if id == EMPTY {
                continue;
            }
            let h = self.hashes[old_slot];
            let mut slot = (h as usize) & mask;
            while ids[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            ids[slot] = id;
            hashes[slot] = h;
        }
        self.hashes = hashes;
        self.ids = ids;
    }
}

/// Provisional-id encoding for the parallel path: shard index in the
/// high bits, local id within the shard's table below.
const PROV_SHARD_SHIFT: u32 = 40;
const PROV_LOCAL_MASK: u64 = (1 << PROV_SHARD_SHIFT) - 1;

#[inline]
fn prov_id(shard: usize, local: u32) -> u64 {
    ((shard as u64) << PROV_SHARD_SHIFT) | u64::from(local)
}

#[inline]
fn prov_parts(prov: u64) -> (usize, u32) {
    (
        (prov >> PROV_SHARD_SHIFT) as usize,
        (prov & PROV_LOCAL_MASK) as u32,
    )
}

/// The generator output before CTMC assembly: markings in canonical
/// (sequential-BFS) order, arcs in canonical emission order.
struct RawGraph {
    markings: Vec<Marking>,
    arcs: Vec<(u32, u32, f64)>,
    initial_pairs: Vec<(u32, f64)>,
    vanishing_eliminated: u64,
    per_worker: Vec<u64>,
    shards: usize,
    max_shard_occupancy: usize,
}

pub(crate) fn cap_error(opts: &ReachabilityOptions) -> Error {
    Error::model(format!(
        "reachability exceeded {} tangible markings",
        opts.max_markings
    ))
}

/// Per-worker accumulator for the parallel path.
#[derive(Default)]
struct WorkerOut {
    /// `(source provisional id, ordered successor arcs)` per expanded
    /// tangible marking.
    arcs: Vec<(u64, Vec<(u64, f64)>)>,
    processed: u64,
    vanishing_eliminated: u64,
}

/// State shared by the parallel worker pool.
struct ParShared {
    shards: Vec<Mutex<InternTable>>,
    shard_mask: usize,
    queues: Vec<Mutex<VecDeque<u64>>>,
    /// Total interned markings across shards (cap enforcement).
    total: AtomicUsize,
    /// Discovered-but-not-yet-expanded markings; generation terminates
    /// when this reaches zero.
    pending: AtomicUsize,
    failed: AtomicBool,
    error: Mutex<Option<Error>>,
}

impl ParShared {
    #[inline]
    fn shard_of(&self, hash: u64) -> usize {
        // High bits pick the shard; low bits index slots within it, so
        // the two selections stay independent.
        ((hash >> 48) as usize) & self.shard_mask
    }

    /// Interns `m` into its shard; returns the provisional id and
    /// whether it was new. Errors when the global cap is exceeded.
    fn intern(&self, m: &[u32], opts: &ReachabilityOptions) -> Result<(u64, bool)> {
        let hash = hash_marking(m);
        let s = self.shard_of(hash);
        let (local, is_new) = {
            let mut shard = self.shards[s].lock().expect("intern shard poisoned");
            shard.intern(m, hash)
        };
        if is_new && self.total.fetch_add(1, Ordering::Relaxed) >= opts.max_markings {
            return Err(cap_error(opts));
        }
        Ok((prov_id(s, local), is_new))
    }

    fn record_error(&self, e: Error) {
        let mut slot = self.error.lock().expect("error slot poisoned");
        if slot.is_none() {
            *slot = Some(e);
        }
        self.failed.store(true, Ordering::Release);
    }
}

impl Spn {
    /// Generates the reachability graph, eliminates vanishing markings,
    /// and builds the underlying CTMC, with default options.
    ///
    /// # Errors
    ///
    /// See [`Spn::solve_with`].
    pub fn solve(&self) -> Result<SolvedSpn<'_>> {
        self.solve_with(&ReachabilityOptions::default())
    }

    /// [`Spn::solve`] with explicit limits and worker configuration.
    ///
    /// # Errors
    ///
    /// * [`Error::Model`] — state-space cap exceeded, vanishing loop
    ///   detected, or a marking-dependent rate misbehaved.
    pub fn solve_with(&self, opts: &ReachabilityOptions) -> Result<SolvedSpn<'_>> {
        let _span = obs::span("spn.reach");
        let start = Instant::now();
        let workers = reliab_core::resolve_threads(opts.jobs);
        let raw = if workers <= 1 {
            self.generate_sequential(opts)?
        } else {
            self.generate_parallel(opts, workers)?
        };
        let generation_ns = start.elapsed().as_nanos();

        let stats = ReachStats {
            markings: raw.markings.len(),
            arcs: raw.arcs.len(),
            vanishing_eliminated: raw.vanishing_eliminated,
            workers,
            shards: raw.shards,
            max_shard_occupancy: raw.max_shard_occupancy,
            per_worker_markings: raw.per_worker.clone(),
            generation_ns,
        };
        obs::counter_add("spn.reach.markings", stats.markings as u64);
        obs::counter_add("spn.reach.arcs", stats.arcs as u64);
        obs::counter_add("spn.reach.vanishing_eliminated", stats.vanishing_eliminated);
        obs::gauge_set(
            "spn.reach.shard_max_occupancy",
            stats.max_shard_occupancy as f64,
        );
        let secs = generation_ns as f64 / 1e9;
        if secs > 0.0 {
            obs::gauge_set(
                "spn.reach.worker_throughput",
                stats.markings as f64 / secs / workers as f64,
            );
        }
        obs::event(
            "spn.reach.done",
            &[
                ("markings", (stats.markings as u64).into()),
                ("arcs", (stats.arcs as u64).into()),
                ("vanishing_eliminated", stats.vanishing_eliminated.into()),
                ("workers", (workers as u64).into()),
                ("shards", (stats.shards as u64).into()),
            ],
        );

        // Streaming CTMC assembly: the canonical triplets go straight
        // into the chain, bypassing the name-interning builder.
        let names: Vec<String> = raw.markings.iter().map(|m| format!("{m:?}")).collect();
        let triplets: Vec<(usize, usize, f64)> = raw
            .arcs
            .iter()
            .map(|&(f, t, r)| (f as usize, t as usize, r))
            .collect();
        let ctmc = Ctmc::from_parts(names, triplets)?;
        let state_ids = ctmc.state_ids();
        let mut initial = vec![0.0; raw.markings.len()];
        for &(i, p) in &raw.initial_pairs {
            initial[i as usize] += p;
        }
        Ok(SolvedSpn {
            spn: self,
            markings: raw.markings,
            state_ids,
            ctmc,
            initial,
            stats,
        })
    }

    /// Indices of the timed transitions, in declaration order — the
    /// outer loop of every state expansion.
    pub(crate) fn timed_indices(&self) -> Vec<usize> {
        (0..self.transitions.len())
            .filter(|&t| matches!(self.transitions[t].timing, Timing::Timed(_)))
            .collect()
    }

    /// The sequential reference generator: FIFO (BFS) frontier over the
    /// intern table, which *defines* the canonical state numbering the
    /// parallel path reproduces.
    fn generate_sequential(&self, opts: &ReachabilityOptions) -> Result<RawGraph> {
        let width = self.num_places();
        let timed = self.timed_indices();
        let has_imm = self.has_immediate();
        let mut table = InternTable::new(width);
        let mut arcs: Vec<(u32, u32, f64)> = Vec::new();
        let mut vanishing = 0u64;

        let intern = |table: &mut InternTable, m: &[u32]| -> Result<u32> {
            let (id, is_new) = table.intern(m, hash_marking(m));
            if is_new && table.count > opts.max_markings {
                return Err(cap_error(opts));
            }
            Ok(id)
        };

        // Resolve the initial marking (it may be vanishing).
        let mut initial_pairs: Vec<(u32, f64)> = Vec::new();
        for (m, p) in self.resolve_vanishing(self.initial.clone(), opts, &mut vanishing)? {
            let i = intern(&mut table, &m)?;
            initial_pairs.push((i, p));
        }

        // Newly interned markings get the next index, so walking the
        // arena front to back *is* the BFS — no explicit queue.
        let mut cur: Marking = Vec::with_capacity(width);
        let mut fired: Marking = Vec::with_capacity(width);
        let mut i = 0usize;
        // BFS levels are implicit in the arena walk: everything
        // interned while expanding level L is level L+1.
        let mut level = 0u64;
        let mut level_end = table.count;
        while i < table.count {
            if i == level_end {
                if obs::trace_enabled() {
                    obs::event(
                        "spn.reach.level",
                        &[
                            ("level", level.into()),
                            ("frontier", (table.count - level_end).into()),
                            ("states", table.count.into()),
                            ("arcs", arcs.len().into()),
                        ],
                    );
                }
                level += 1;
                level_end = table.count;
            }
            cur.clear();
            cur.extend_from_slice(table.get(i as u32));
            for &t in &timed {
                if !self.enabled(t, &cur) {
                    continue;
                }
                let rate = self.rate_of(t, &cur)?;
                self.fire_into(t, &cur, &mut fired);
                if has_imm && self.any_immediate_enabled(&fired) {
                    for (target, p) in
                        self.resolve_vanishing(fired.clone(), opts, &mut vanishing)?
                    {
                        let j = intern(&mut table, &target)?;
                        if j as usize != i {
                            arcs.push((i as u32, j, rate * p));
                        }
                    }
                } else {
                    let j = intern(&mut table, &fired)?;
                    if j as usize != i {
                        arcs.push((i as u32, j, rate));
                    }
                }
            }
            i += 1;
        }

        let count = table.count;
        let markings: Vec<Marking> = (0..count).map(|k| table.get(k as u32).to_vec()).collect();
        Ok(RawGraph {
            markings,
            arcs,
            initial_pairs,
            vanishing_eliminated: vanishing,
            per_worker: vec![count as u64],
            shards: 1,
            max_shard_occupancy: count,
        })
    }

    /// The parallel generator: sharded intern table, work-stealing
    /// frontier, then a canonical renumbering pass that replays the
    /// sequential BFS over the recorded per-state arc lists — so the
    /// emitted triplet stream is bitwise identical to
    /// [`Spn::generate_sequential`]'s regardless of worker count.
    fn generate_parallel(&self, opts: &ReachabilityOptions, workers: usize) -> Result<RawGraph> {
        let width = self.num_places();
        let timed = self.timed_indices();
        let has_imm = self.has_immediate();
        let num_shards = 1usize << opts.shard_bits.min(16);
        let shared = ParShared {
            shards: (0..num_shards)
                .map(|_| Mutex::new(InternTable::new(width)))
                .collect(),
            shard_mask: num_shards - 1,
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            total: AtomicUsize::new(0),
            pending: AtomicUsize::new(0),
            failed: AtomicBool::new(false),
            error: Mutex::new(None),
        };

        // Resolve and seed the initial distribution sequentially; the
        // resolved targets are distinct, so each is new.
        let mut vanishing0 = 0u64;
        let mut initial_provs: Vec<(u64, f64)> = Vec::new();
        for (rr, (m, p)) in self
            .resolve_vanishing(self.initial.clone(), opts, &mut vanishing0)?
            .into_iter()
            .enumerate()
        {
            let (prov, is_new) = shared.intern(&m, opts)?;
            initial_provs.push((prov, p));
            if is_new {
                shared.pending.fetch_add(1, Ordering::Release);
                shared.queues[rr % workers]
                    .lock()
                    .expect("frontier queue poisoned")
                    .push_back(prov);
            }
        }

        let mut outs: Vec<WorkerOut> = Vec::with_capacity(workers);
        let trace = obs::current_trace_id();
        std::thread::scope(|sc| {
            let handles: Vec<_> = (0..workers)
                .map(|me| {
                    let shared = &shared;
                    let timed = &timed;
                    sc.spawn(move || {
                        let _trace = obs::set_trace_id(trace);
                        let mut out = WorkerOut::default();
                        self.worker_loop(shared, opts, timed, has_imm, me, &mut out);
                        out
                    })
                })
                .collect();
            for h in handles {
                outs.push(h.join().expect("reachability worker panicked"));
            }
        });
        if shared.failed.load(Ordering::Acquire) {
            let e = shared
                .error
                .lock()
                .expect("error slot poisoned")
                .take()
                .unwrap_or_else(|| Error::model("parallel reachability generation failed"));
            return Err(e);
        }

        // --- Canonical renumbering -------------------------------------
        // Replay the sequential BFS over the recorded arc lists: states
        // are numbered in first-appearance order of the canonical arc
        // stream (initial distribution first), and arcs are re-emitted
        // in that order. Both streams coincide exactly with what the
        // sequential path produces.
        let tables: Vec<InternTable> = shared
            .shards
            .into_iter()
            .map(|m| m.into_inner().expect("intern shard poisoned"))
            .collect();
        let mut base = vec![0usize; tables.len() + 1];
        for (s, t) in tables.iter().enumerate() {
            base[s + 1] = base[s] + t.count;
        }
        let total = base[tables.len()];
        let dense = |prov: u64| {
            let (s, l) = prov_parts(prov);
            base[s] + l as usize
        };
        let mut succ: Vec<Vec<(u64, f64)>> = vec![Vec::new(); total];
        for out in &mut outs {
            for (src, list) in out.arcs.drain(..) {
                succ[dense(src)] = list;
            }
        }
        let mut canon: Vec<u32> = vec![u32::MAX; total];
        let mut order: Vec<u64> = Vec::with_capacity(total);
        let mut initial_pairs: Vec<(u32, f64)> = Vec::with_capacity(initial_provs.len());
        for &(prov, p) in &initial_provs {
            let d = dense(prov);
            if canon[d] == u32::MAX {
                canon[d] = order.len() as u32;
                order.push(prov);
            }
            initial_pairs.push((canon[d], p));
        }
        let mut arcs: Vec<(u32, u32, f64)> = Vec::new();
        let mut head = 0usize;
        // The replay is the sequential BFS, so it carries the same
        // implicit level structure — emit the identical level series.
        let mut level = 0u64;
        let mut level_end = order.len();
        while head < order.len() {
            if head == level_end {
                if obs::trace_enabled() {
                    obs::event(
                        "spn.reach.level",
                        &[
                            ("level", level.into()),
                            ("frontier", (order.len() - level_end).into()),
                            ("states", order.len().into()),
                            ("arcs", arcs.len().into()),
                        ],
                    );
                }
                level += 1;
                level_end = order.len();
            }
            let src = head as u32;
            // The successor list is moved out to appease the borrow on
            // `order`; it is dead after this pass anyway.
            let list = std::mem::take(&mut succ[dense(order[head])]);
            for &(dst, rate) in &list {
                let d = dense(dst);
                if canon[d] == u32::MAX {
                    canon[d] = order.len() as u32;
                    order.push(dst);
                }
                arcs.push((src, canon[d], rate));
            }
            head += 1;
        }
        if order.len() != total {
            return Err(Error::model(
                "internal error: interned markings unreachable from the initial distribution",
            ));
        }
        let markings: Vec<Marking> = order
            .iter()
            .map(|&prov| {
                let (s, l) = prov_parts(prov);
                tables[s].get(l).to_vec()
            })
            .collect();

        let vanishing_eliminated =
            vanishing0 + outs.iter().map(|o| o.vanishing_eliminated).sum::<u64>();
        Ok(RawGraph {
            markings,
            arcs,
            initial_pairs,
            vanishing_eliminated,
            per_worker: outs.iter().map(|o| o.processed).collect(),
            shards: tables.len(),
            max_shard_occupancy: tables.iter().map(|t| t.count).max().unwrap_or(0),
        })
    }

    /// One worker of the parallel pool: drain the own deque from the
    /// back (depth-first locally, for cache locality), steal from the
    /// front of a sibling's deque when empty, terminate when no
    /// marking anywhere is discovered-but-unexpanded.
    fn worker_loop(
        &self,
        shared: &ParShared,
        opts: &ReachabilityOptions,
        timed: &[usize],
        has_imm: bool,
        me: usize,
        out: &mut WorkerOut,
    ) {
        let width = self.num_places();
        let mut cur: Marking = Vec::with_capacity(width);
        let mut fired: Marking = Vec::with_capacity(width);
        let mut newly: Vec<u64> = Vec::new();
        loop {
            if shared.failed.load(Ordering::Acquire) {
                return;
            }
            let item = shared.queues[me]
                .lock()
                .expect("frontier queue poisoned")
                .pop_back();
            let Some(prov) = item else {
                let mut stole = false;
                for k in 1..shared.queues.len() {
                    let victim = (me + k) % shared.queues.len();
                    let stolen: Vec<u64> = {
                        let mut q = shared.queues[victim]
                            .lock()
                            .expect("frontier queue poisoned");
                        let take = q.len().div_ceil(2);
                        q.drain(..take).collect()
                    };
                    if !stolen.is_empty() {
                        shared.queues[me]
                            .lock()
                            .expect("frontier queue poisoned")
                            .extend(stolen);
                        stole = true;
                        break;
                    }
                }
                if !stole {
                    if shared.pending.load(Ordering::Acquire) == 0 {
                        return;
                    }
                    std::thread::yield_now();
                }
                continue;
            };

            let (s, l) = prov_parts(prov);
            {
                let shard = shared.shards[s].lock().expect("intern shard poisoned");
                cur.clear();
                cur.extend_from_slice(shard.get(l));
            }
            newly.clear();
            let mut list: Vec<(u64, f64)> = Vec::new();
            let result = (|| -> Result<()> {
                for &t in timed {
                    if !self.enabled(t, &cur) {
                        continue;
                    }
                    let rate = self.rate_of(t, &cur)?;
                    self.fire_into(t, &cur, &mut fired);
                    if has_imm && self.any_immediate_enabled(&fired) {
                        for (target, p) in self.resolve_vanishing(
                            fired.clone(),
                            opts,
                            &mut out.vanishing_eliminated,
                        )? {
                            let (dst, is_new) = shared.intern(&target, opts)?;
                            if is_new {
                                shared.pending.fetch_add(1, Ordering::Release);
                                newly.push(dst);
                            }
                            if dst != prov {
                                list.push((dst, rate * p));
                            }
                        }
                    } else {
                        let (dst, is_new) = shared.intern(&fired, opts)?;
                        if is_new {
                            shared.pending.fetch_add(1, Ordering::Release);
                            newly.push(dst);
                        }
                        if dst != prov {
                            list.push((dst, rate));
                        }
                    }
                }
                Ok(())
            })();
            match result {
                Ok(()) => {
                    out.arcs.push((prov, list));
                    if !newly.is_empty() {
                        shared.queues[me]
                            .lock()
                            .expect("frontier queue poisoned")
                            .extend(newly.iter().copied());
                    }
                    out.processed += 1;
                    shared.pending.fetch_sub(1, Ordering::Release);
                }
                Err(e) => {
                    shared.record_error(e);
                    return;
                }
            }
        }
    }

    /// Pushes a (possibly vanishing) marking through immediate
    /// transitions until only tangible markings remain, returning the
    /// tangible distribution in a canonical (lexicographic) order — the
    /// order must not depend on exploration interleaving, or parallel
    /// and sequential runs would emit different arc streams.
    pub(crate) fn resolve_vanishing(
        &self,
        m: Marking,
        opts: &ReachabilityOptions,
        eliminated: &mut u64,
    ) -> Result<Vec<(Marking, f64)>> {
        if !self.any_immediate_enabled(&m) {
            return Ok(vec![(m, 1.0)]);
        }
        let mut out: Vec<(Marking, f64)> = Vec::new();
        let mut stack: Vec<(Marking, f64, usize)> = vec![(m, 1.0, 0)];
        while let Some((m, p, depth)) = stack.pop() {
            if depth > opts.max_vanishing_depth {
                return Err(Error::model(
                    "vanishing-marking chain exceeded depth limit: immediate-transition loop?",
                ));
            }
            // Enabled immediate transitions of the highest priority.
            let mut best_priority = None;
            for (t, tr) in self.transitions.iter().enumerate() {
                if let Timing::Immediate { priority, .. } = tr.timing {
                    if self.enabled(t, &m) {
                        best_priority =
                            Some(best_priority.map_or(priority, |b: u32| b.max(priority)));
                    }
                }
            }
            let Some(best) = best_priority else {
                out.push((m, p));
                continue;
            };
            *eliminated += 1;
            let firing: Vec<(usize, f64)> = self
                .transitions
                .iter()
                .enumerate()
                .filter_map(|(t, tr)| match tr.timing {
                    Timing::Immediate { weight, priority }
                        if priority == best && self.enabled(t, &m) =>
                    {
                        Some((t, weight))
                    }
                    _ => None,
                })
                .collect();
            let total_weight: f64 = firing.iter().map(|(_, w)| w).sum();
            for (t, w) in firing {
                let next = self.fire(t, &m);
                stack.push((next, p * w / total_weight, depth + 1));
            }
        }
        // Deterministic merge: stable-sort the tangible targets
        // lexicographically, then sum duplicates in that order. The
        // DFS above is itself deterministic per input marking, so the
        // resulting distribution is a pure function of `m`.
        out.sort_by(|a, b| a.0.cmp(&b.0));
        let mut merged: Vec<(Marking, f64)> = Vec::with_capacity(out.len());
        for (m, p) in out {
            match merged.last_mut() {
                Some((last, q)) if *last == m => *q += p,
                _ => merged.push((m, p)),
            }
        }
        Ok(merged)
    }
}

/// The solved net: tangible markings plus the underlying CTMC.
///
/// Borrow of the [`Spn`] is kept for marking-dependent throughput
/// queries.
#[derive(Debug)]
pub struct SolvedSpn<'a> {
    spn: &'a Spn,
    markings: Vec<Marking>,
    state_ids: Vec<StateId>,
    ctmc: Ctmc,
    initial: Vec<f64>,
    stats: ReachStats,
}

impl SolvedSpn<'_> {
    /// Number of tangible markings (CTMC states).
    pub fn num_markings(&self) -> usize {
        self.markings.len()
    }

    /// The tangible markings, indexed like CTMC states.
    pub fn markings(&self) -> &[Marking] {
        &self.markings
    }

    /// The underlying CTMC.
    pub fn ctmc(&self) -> &Ctmc {
        &self.ctmc
    }

    /// Generation telemetry: markings, arcs, vanishing chains
    /// eliminated, worker/shard utilization.
    pub fn reach_stats(&self) -> &ReachStats {
        &self.stats
    }

    /// Initial distribution over tangible markings (a vanishing initial
    /// marking spreads over its tangible successors).
    pub fn initial_distribution(&self) -> &[f64] {
        &self.initial
    }

    /// Steady-state expected value of a marking reward function.
    ///
    /// # Errors
    ///
    /// Propagates CTMC steady-state errors (e.g. reducible nets).
    pub fn steady_state_expected_reward<F>(&self, reward: F) -> Result<f64>
    where
        F: Fn(&Marking) -> f64,
    {
        let rewards: Vec<f64> = self.markings.iter().map(reward).collect();
        self.ctmc.expected_steady_state_reward(&rewards)
    }

    /// Expected value of a marking reward function at time `t`,
    /// starting from the net's initial marking.
    ///
    /// # Errors
    ///
    /// Propagates transient-solver errors.
    pub fn transient_expected_reward<F>(&self, reward: F, t: f64) -> Result<f64>
    where
        F: Fn(&Marking) -> f64,
    {
        let rewards: Vec<f64> = self.markings.iter().map(reward).collect();
        self.ctmc.expected_reward_at(&self.initial, &rewards, t)
    }

    /// Expected reward accumulated over `[0, t]` from the initial
    /// marking: `E[∫₀ᵗ r(M_u) du]`.
    ///
    /// With an indicator reward this is the expected total time spent
    /// in the matching markings — e.g. cumulative downtime over a
    /// mission.
    ///
    /// # Errors
    ///
    /// Propagates accumulated-solver errors.
    pub fn accumulated_expected_reward<F>(&self, reward: F, t: f64) -> Result<f64>
    where
        F: Fn(&Marking) -> f64,
    {
        let rewards: Vec<f64> = self.markings.iter().map(reward).collect();
        self.ctmc
            .expected_accumulated_reward(&self.initial, &rewards, t)
    }

    /// Steady-state expected token count in a place.
    ///
    /// # Errors
    ///
    /// Propagates steady-state errors.
    pub fn expected_tokens(&self, place: crate::PlaceId) -> Result<f64> {
        self.steady_state_expected_reward(|m| f64::from(m[place.index()]))
    }

    /// Steady-state throughput of a **timed** transition:
    /// `Σ_m π_m · rate_t(m) · 1[t enabled in m]`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Model`] for immediate transitions and
    /// propagates solver errors.
    pub fn throughput(&self, t: TransitionId) -> Result<f64> {
        let pi = self.ctmc.steady_state()?;
        self.throughput_given(&pi, t)
    }

    /// [`SolvedSpn::throughput`] under a caller-supplied stationary
    /// distribution — avoids re-solving the chain when several measures
    /// share one `π`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Model`] for immediate transitions,
    /// [`Error::InvalidParameter`] for a `π` of the wrong length, and
    /// propagates rate-evaluation errors.
    pub fn throughput_given(&self, pi: &[f64], t: TransitionId) -> Result<f64> {
        let idx = t.index();
        if !matches!(self.spn.transitions[idx].timing, Timing::Timed(_)) {
            return Err(Error::model(format!(
                "throughput of immediate transition '{}' is not defined; attach the measure \
                 to a timed transition",
                self.spn.transitions[idx].name
            )));
        }
        if pi.len() != self.markings.len() {
            return Err(Error::invalid(format!(
                "distribution length {} != number of markings {}",
                pi.len(),
                self.markings.len()
            )));
        }
        let mut total = 0.0;
        for (i, m) in self.markings.iter().enumerate() {
            if self.spn.enabled(idx, m) {
                total += pi[i] * self.spn.rate_of(idx, m)?;
            }
        }
        Ok(total)
    }

    /// Mean time until the net first enters a marking satisfying
    /// `predicate`, from the initial marking.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Model`] if no reachable marking satisfies the
    /// predicate, and propagates MTTF solver errors.
    pub fn mean_time_to<F>(&self, predicate: F) -> Result<f64>
    where
        F: Fn(&Marking) -> bool,
    {
        let absorbing: Vec<StateId> = self
            .markings
            .iter()
            .zip(&self.state_ids)
            .filter(|(m, _)| predicate(m))
            .map(|(_, id)| *id)
            .collect();
        if absorbing.is_empty() {
            return Err(Error::model(
                "no reachable marking satisfies the target predicate",
            ));
        }
        self.ctmc.mttf(&self.initial, &absorbing)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Marking, ReachabilityOptions, SpnBuilder};

    /// M/M/1/K queue as an SPN; closed-form stationary distribution.
    fn mm1k(lambda: f64, mu: f64, k: u32) -> crate::Spn {
        let mut b = SpnBuilder::new();
        let queue = b.place("queue", 0);
        let arrive = b.timed("arrive", lambda);
        let serve = b.timed("serve", mu);
        b.output_arc(arrive, queue, 1);
        b.input_arc(serve, queue, 1);
        b.inhibitor_arc(arrive, queue, k);
        b.build().unwrap()
    }

    #[test]
    fn mm1k_state_space_and_distribution() {
        let (l, m, k) = (1.0, 2.0, 4u32);
        let spn = mm1k(l, m, k);
        let solved = spn.solve().unwrap();
        assert_eq!(solved.num_markings(), (k + 1) as usize);
        let rho: f64 = l / m;
        let norm: f64 = (0..=k).map(|i| rho.powi(i as i32)).sum();
        // P(queue nonempty):
        let p_busy = solved
            .steady_state_expected_reward(|mk: &Marking| if mk[0] > 0 { 1.0 } else { 0.0 })
            .unwrap();
        let expected = (1..=k).map(|i| rho.powi(i as i32)).sum::<f64>() / norm;
        assert!((p_busy - expected).abs() < 1e-12);
        // Expected tokens:
        let en = solved
            .expected_tokens(crate::PlaceId::index_test(0))
            .unwrap();
        let expected_n = (0..=k).map(|i| i as f64 * rho.powi(i as i32)).sum::<f64>() / norm;
        assert!((en - expected_n).abs() < 1e-12);
    }

    #[test]
    fn throughput_balance() {
        // In steady state, arrival throughput == service throughput.
        let spn = mm1k(1.0, 2.0, 3);
        let solved = spn.solve().unwrap();
        let arrive = crate::TransitionId::index_test(0);
        let serve = crate::TransitionId::index_test(1);
        let ta = solved.throughput(arrive).unwrap();
        let ts = solved.throughput(serve).unwrap();
        assert!((ta - ts).abs() < 1e-12);
        assert!(ta > 0.0 && ta < 1.0); // below offered load due to blocking
    }

    #[test]
    fn immediate_transitions_fork_probabilistically() {
        // Token arrives, then immediately routes 30/70 to two places.
        let mut b = SpnBuilder::new();
        let inbox = b.place("inbox", 0);
        let left = b.place("left", 0);
        let right = b.place("right", 0);
        let arrive = b.timed("arrive", 1.0);
        b.output_arc(arrive, inbox, 1);
        let go_left = b.immediate("go-left", 0.3, 0);
        b.input_arc(go_left, inbox, 1);
        b.output_arc(go_left, left, 1);
        let go_right = b.immediate("go-right", 0.7, 0);
        b.input_arc(go_right, inbox, 1);
        b.output_arc(go_right, right, 1);
        // Drain both sides so a steady state exists.
        let dl = b.timed("drain-left", 5.0);
        b.input_arc(dl, left, 1);
        let dr = b.timed("drain-right", 5.0);
        b.input_arc(dr, right, 1);
        // Caps to keep the space finite.
        b.inhibitor_arc(arrive, left, 3);
        b.inhibitor_arc(arrive, right, 3);
        let spn = b.build().unwrap();
        let solved = spn.solve().unwrap();
        // No tangible marking retains an inbox token.
        assert!(solved.markings().iter().all(|m| m[0] == 0));
        let tl = solved
            .throughput(crate::TransitionId::index_test(3))
            .unwrap();
        let tr = solved
            .throughput(crate::TransitionId::index_test(4))
            .unwrap();
        assert!(
            (tl / (tl + tr) - 0.3).abs() < 1e-9,
            "left share = {}",
            tl / (tl + tr)
        );
        // Vanishing markings were actually eliminated along the way.
        assert!(solved.reach_stats().vanishing_eliminated > 0);
    }

    #[test]
    fn priorities_preempt_lower_weights() {
        // Two immediates: priority 1 must always win over priority 0.
        let mut b = SpnBuilder::new();
        let inbox = b.place("inbox", 0);
        let hi = b.place("hi", 0);
        let lo = b.place("lo", 0);
        let arrive = b.timed("arrive", 1.0);
        b.output_arc(arrive, inbox, 1);
        let t_hi = b.immediate("hi-route", 1.0, 1);
        b.input_arc(t_hi, inbox, 1);
        b.output_arc(t_hi, hi, 1);
        let t_lo = b.immediate("lo-route", 100.0, 0);
        b.input_arc(t_lo, inbox, 1);
        b.output_arc(t_lo, lo, 1);
        let drain = b.timed("drain", 10.0);
        b.input_arc(drain, hi, 1);
        b.inhibitor_arc(arrive, hi, 2);
        let spn = b.build().unwrap();
        let solved = spn.solve().unwrap();
        // The low-priority route never fires: place "lo" stays empty.
        assert!(solved.markings().iter().all(|m| m[2] == 0));
    }

    #[test]
    fn vanishing_loop_detected() {
        // Two immediates shuffling a token between two places forever.
        let mut b = SpnBuilder::new();
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        let t1 = b.immediate("pq", 1.0, 0);
        b.input_arc(t1, p, 1);
        b.output_arc(t1, q, 1);
        let t2 = b.immediate("qp", 1.0, 0);
        b.input_arc(t2, q, 1);
        b.output_arc(t2, p, 1);
        let spn = b.build().unwrap();
        assert!(spn.solve().is_err());
    }

    #[test]
    fn state_space_cap() {
        // Unbounded net trips the cap.
        let mut b = SpnBuilder::new();
        let p = b.place("p", 0);
        let t = b.timed("grow", 1.0);
        b.output_arc(t, p, 1);
        let spn = b.build().unwrap();
        let opts = ReachabilityOptions {
            max_markings: 100,
            ..Default::default()
        };
        assert!(spn.solve_with(&opts).is_err());
        // The parallel path trips the same cap.
        let opts = ReachabilityOptions {
            max_markings: 100,
            jobs: 2,
            ..Default::default()
        };
        assert!(spn.solve_with(&opts).is_err());
    }

    #[test]
    fn mean_time_to_full_queue() {
        // M/M/1/2: time from empty until the queue first fills.
        let spn = mm1k(1.0, 1.0, 2);
        let solved = spn.solve().unwrap();
        let mtt = solved.mean_time_to(|m: &Marking| m[0] == 2).unwrap();
        // Birth-death first-passage 0 -> 2 with λ = μ = 1:
        // E[T_0->2] = 3 (standard result: sum over levels).
        assert!((mtt - 3.0).abs() < 1e-9, "{mtt}");
        // Predicate never satisfied:
        assert!(solved.mean_time_to(|m: &Marking| m[0] > 99).is_err());
    }

    #[test]
    fn accumulated_reward_long_run_matches_steady_state() {
        let spn = mm1k(1.0, 2.0, 3);
        let solved = spn.solve().unwrap();
        let busy = |m: &Marking| if m[0] > 0 { 1.0 } else { 0.0 };
        let p_busy = solved.steady_state_expected_reward(busy).unwrap();
        let t = 20_000.0;
        let acc = solved.accumulated_expected_reward(busy, t).unwrap();
        assert!(
            (acc / t - p_busy).abs() < 1e-3,
            "time-average {} vs steady-state {p_busy}",
            acc / t
        );
        // Zero-horizon accumulation is zero.
        assert_eq!(solved.accumulated_expected_reward(busy, 0.0).unwrap(), 0.0);
    }

    #[test]
    fn marking_dependent_service_rates() {
        // M/M/2/3: service rate = min(n, 2) * mu.
        let (l, mu) = (1.0, 1.0);
        let mut b = SpnBuilder::new();
        let q = b.place("q", 0);
        let arrive = b.timed("arrive", l);
        b.output_arc(arrive, q, 1);
        b.inhibitor_arc(arrive, q, 3);
        let serve = b.timed_fn("serve", move |m: &Marking| (m[0].min(2)) as f64 * mu);
        b.input_arc(serve, q, 1);
        let spn = b.build().unwrap();
        let solved = spn.solve().unwrap();
        // Closed-form M/M/2/3: pi ∝ [1, a, a²/2, a³/4] with a = l/mu = 1.
        let weights = [1.0, 1.0, 0.5, 0.25];
        let norm: f64 = weights.iter().sum();
        let p_empty = solved
            .steady_state_expected_reward(|m: &Marking| if m[0] == 0 { 1.0 } else { 0.0 })
            .unwrap();
        assert!((p_empty - weights[0] / norm).abs() < 1e-12);
    }

    #[test]
    fn parallel_generation_is_bitwise_identical() {
        // The canonical numbering makes worker count unobservable: the
        // generator matrices must be equal entry for entry, bit for
        // bit. (The full randomized version lives in tests/prop_reach.)
        let spn = mm1k(1.3, 2.1, 6);
        let seq = spn.solve().unwrap();
        for jobs in [2usize, 4] {
            let opts = ReachabilityOptions {
                jobs,
                shard_bits: 2,
                ..Default::default()
            };
            let par = spn.solve_with(&opts).unwrap();
            assert_eq!(seq.markings(), par.markings());
            assert_eq!(seq.ctmc().generator(), par.ctmc().generator());
            assert_eq!(seq.initial_distribution(), par.initial_distribution());
            assert_eq!(par.reach_stats().workers, jobs);
            assert_eq!(par.reach_stats().shards, 4);
            assert_eq!(
                par.reach_stats().per_worker_markings.iter().sum::<u64>(),
                par.reach_stats().markings as u64
            );
        }
    }

    #[test]
    fn reach_stats_populated() {
        let spn = mm1k(1.0, 2.0, 4);
        let solved = spn.solve().unwrap();
        let s = solved.reach_stats();
        assert_eq!(s.markings, 5);
        assert_eq!(s.arcs, 8); // birth-death chain on 5 states
        assert_eq!(s.workers, 1);
        assert_eq!(s.shards, 1);
        assert_eq!(s.max_shard_occupancy, 5);
        assert_eq!(s.per_worker_markings, vec![5]);
    }

    #[test]
    fn throughput_given_validates_pi_length() {
        let spn = mm1k(1.0, 2.0, 3);
        let solved = spn.solve().unwrap();
        let arrive = crate::TransitionId::index_test(0);
        assert!(solved.throughput_given(&[1.0], arrive).is_err());
        let pi = solved.ctmc().steady_state().unwrap();
        let a = solved.throughput_given(&pi, arrive).unwrap();
        let b = solved.throughput(arrive).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
