//! Reachability-graph generation, vanishing-marking elimination, and
//! CTMC-backed measures.
//!
//! One expansion routine (`Expansion::expand`) fires the enabled
//! timed transitions of a marking and resolves vanishing successors;
//! one breadth-first walk (`Spn::walk`, in `space.rs`) interns what it
//! yields in a packed `u32` arena behind an open-addressing FxHash
//! intern table (no `Marking` clones on the hot path). Every solve runs
//! that walk: [`Spn::solve_with`] also keeps each marking's arcs as its
//! generator row, [`Spn::tangible_space_within`] keeps them while they
//! fit a memory budget, and [`Spn::tangible_space`] keeps only the
//! markings. State `i` is the `i`-th marking the walk discovers either
//! way. See `DESIGN.md`.

use crate::model::{Spn, Timing};
use crate::{Marking, PlaceId, SpaceRows, TangibleSpace, TransitionId};
use reliab_core::fxhash::FxHasher;
use reliab_core::{Error, Result};
use reliab_markov::{expected_reward, steady_state, Ctmc, PlanOutcome, StateId, SteadyOptions};
use reliab_obs as obs;
use std::hash::Hasher;
use std::sync::OnceLock;

/// Options for reachability-graph generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReachabilityOptions {
    /// Hard cap on tangible markings (state-space explosion guard).
    pub max_markings: usize,
    /// Hard cap on vanishing-chain length while eliminating immediate
    /// transitions (catches immediate-transition loops).
    pub max_vanishing_depth: usize,
}

impl Default for ReachabilityOptions {
    fn default() -> Self {
        ReachabilityOptions {
            max_markings: 1_000_000,
            max_vanishing_depth: 10_000,
        }
    }
}

/// Telemetry from one state-space generation, exposed via
/// [`SolvedSpn::reach_stats`] and [`TangibleSpace::stats`] and mirrored
/// into the `reliab-obs` metrics registry under `spn.reach.*` or
/// `spn.space.*`.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct ReachStats {
    /// Tangible markings (CTMC states).
    pub markings: usize,
    /// Arcs the walk emitted (parallel arcs still separate), whether or
    /// not it kept them.
    pub arcs: usize,
    /// Vanishing markings expanded and eliminated on the way.
    pub vanishing_eliminated: u64,
    /// Wall-clock nanoseconds spent on the walk.
    pub generation_ns: u128,
}

impl ReachStats {
    /// Emits the walk's `*.done` event.
    pub(crate) fn emit_done(&self, name: &'static str) {
        obs::event(
            name,
            &[
                ("markings", (self.markings as u64).into()),
                ("arcs", (self.arcs as u64).into()),
                ("vanishing_eliminated", self.vanishing_eliminated.into()),
            ],
        );
    }
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
    /// but never mutates — the row-regeneration hot path of a budgeted
    /// solve, where every successor is already known to be interned.
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
    /// arrays) — the deterministic accounting the steady-state memory
    /// planner uses.
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

/// The fixed inputs of the one expansion routine: the net, its timed
/// transitions in declaration order, whether it has any immediate
/// transition at all, and the generation limits.
#[derive(Debug)]
pub(crate) struct Expansion<'a> {
    pub(crate) spn: &'a Spn,
    pub(crate) timed: Vec<usize>,
    has_imm: bool,
    opts: ReachabilityOptions,
}

impl<'a> Expansion<'a> {
    pub(crate) fn new(spn: &'a Spn, opts: &ReachabilityOptions) -> Self {
        Expansion {
            spn,
            timed: (0..spn.transitions.len())
                .filter(|&t| matches!(spn.transitions[t].timing, Timing::Timed(_)))
                .collect(),
            has_imm: spn.has_immediate(),
            opts: *opts,
        }
    }

    /// Expands the tangible marking `m`: fires its enabled timed
    /// transitions in declaration order into the buffer `fired`,
    /// resolves vanishing successors, and hands each `(tangible target,
    /// rate)` to `emit` in emission order — self-loops and parallel
    /// arcs included. The walk interns each target; row regeneration
    /// looks each one up.
    pub(crate) fn expand(
        &self,
        m: &Marking,
        fired: &mut Marking,
        vanishing: &mut u64,
        mut emit: impl FnMut(&[u32], f64) -> Result<()>,
    ) -> Result<()> {
        let spn = self.spn;
        for &t in &self.timed {
            if !spn.enabled(t, m) {
                continue;
            }
            let rate = spn.rate_of(t, m)?;
            spn.fire_into(t, m, fired);
            if self.has_imm && spn.any_immediate_enabled(fired) {
                for (target, p) in self.resolve_vanishing(fired.clone(), vanishing)? {
                    emit(&target, rate * p)?;
                }
            } else {
                emit(fired, rate)?;
            }
        }
        Ok(())
    }

    /// Pushes a (possibly vanishing) marking through immediate
    /// transitions until only tangible markings remain, returning the
    /// tangible distribution in lexicographic order. That order fixes
    /// the order in which `Expansion::expand` emits a vanishing
    /// successor's targets, so it fixes the state numbering and the arc
    /// stream.
    pub(crate) fn resolve_vanishing(
        &self,
        m: Marking,
        eliminated: &mut u64,
    ) -> Result<Vec<(Marking, f64)>> {
        let spn = self.spn;
        if !spn.any_immediate_enabled(&m) {
            return Ok(vec![(m, 1.0)]);
        }
        let mut out: Vec<(Marking, f64)> = Vec::new();
        let mut stack: Vec<(Marking, f64, usize)> = vec![(m, 1.0, 0)];
        while let Some((m, p, depth)) = stack.pop() {
            if depth > self.opts.max_vanishing_depth {
                return Err(Error::model(
                    "vanishing-marking chain exceeded depth limit: immediate-transition loop?",
                ));
            }
            // Enabled immediate transitions of the highest priority.
            let mut best_priority = None;
            for (t, tr) in spn.transitions.iter().enumerate() {
                if let Timing::Immediate { priority, .. } = tr.timing {
                    if spn.enabled(t, &m) {
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
            let firing: Vec<(usize, f64)> = spn
                .transitions
                .iter()
                .enumerate()
                .filter_map(|(t, tr)| match tr.timing {
                    Timing::Immediate { weight, priority }
                        if priority == best && spn.enabled(t, &m) =>
                    {
                        Some((t, weight))
                    }
                    _ => None,
                })
                .collect();
            let total_weight: f64 = firing.iter().map(|(_, w)| w).sum();
            for (t, w) in firing {
                let next = spn.fire(t, &m);
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

impl Spn {
    /// Generates the reachability graph, eliminates vanishing markings,
    /// and keeps the generator rows, with default options.
    ///
    /// # Errors
    ///
    /// See [`Spn::solve_with`].
    pub fn solve(&self) -> Result<SolvedSpn<'_>> {
        self.solve_with(&ReachabilityOptions::default())
    }

    /// [`Spn::solve`] with explicit limits.
    ///
    /// # Errors
    ///
    /// * [`Error::Model`] — state-space cap exceeded, vanishing loop
    ///   detected, or a marking-dependent rate misbehaved.
    /// * [`Error::InvalidParameter`] / [`Error::Numerical`] — an arc
    ///   rate [`Ctmc::from_parts`] rejects, or an exit rate that
    ///   overflows, with that constructor's error.
    pub fn solve_with(&self, opts: &ReachabilityOptions) -> Result<SolvedSpn<'_>> {
        let _span = obs::span("spn.reach");
        let space = self.walk(opts, usize::MAX)?;
        let stats = space.stats();
        obs::counter_add("spn.reach.markings", stats.markings as u64);
        obs::counter_add("spn.reach.arcs", stats.arcs as u64);
        obs::counter_add("spn.reach.vanishing_eliminated", stats.vanishing_eliminated);
        stats.emit_done("spn.reach.done");
        space.validate_rows()?;
        let mut initial = vec![0.0; space.num_markings()];
        for &(i, p) in space.initial_pairs() {
            initial[i as usize] += p;
        }
        Ok(SolvedSpn {
            space,
            initial,
            ctmc: OnceLock::new(),
        })
    }
}

/// The solved net: its tangible marking space with every marking's
/// generator row kept, and the CTMC built from them on first use.
#[derive(Debug)]
pub struct SolvedSpn<'a> {
    space: TangibleSpace<'a>,
    initial: Vec<f64>,
    ctmc: OnceLock<Ctmc>,
}

impl<'a> SolvedSpn<'a> {
    /// Number of tangible markings (CTMC states).
    pub fn num_markings(&self) -> usize {
        self.space.num_markings()
    }

    /// The tangible marking of CTMC state `i` (token count per place,
    /// indexed like [`PlaceId::index`]).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn marking(&self, i: u32) -> &[u32] {
        self.space.marking(i)
    }

    /// The tangible marking space, with its kept rows.
    pub fn space(&self) -> &TangibleSpace<'a> {
        &self.space
    }

    /// The underlying CTMC, built on first use from the kept rows: bit
    /// for bit the chain [`Ctmc::from_parts`] builds from the walk's
    /// arcs, each state named by its marking.
    pub fn ctmc(&self) -> &Ctmc {
        let build = || self.space.ctmc().expect("solve_with checked every rate");
        self.ctmc.get_or_init(build)
    }

    /// Generation telemetry: markings, arcs, vanishing chains
    /// eliminated.
    pub fn reach_stats(&self) -> &ReachStats {
        self.space.stats()
    }

    /// Initial distribution over tangible markings (a vanishing initial
    /// marking spreads over its tangible successors).
    pub fn initial_distribution(&self) -> &[f64] {
        &self.initial
    }

    /// The reward of every tangible marking, indexed like CTMC states.
    fn rewards(&self, reward: impl Fn(&[u32]) -> f64) -> Vec<f64> {
        (0..self.num_markings())
            .map(|i| reward(self.marking(i as u32)))
            .collect()
    }

    /// The stationary distribution of the kept rows.
    fn steady_state(&self) -> Result<Vec<f64>> {
        match steady_state(&SpaceRows::new(&self.space), &SteadyOptions::default())? {
            PlanOutcome::Exact(report) => Ok(report.pi),
            PlanOutcome::NeedsBounds { .. } => {
                unreachable!("no budget always plans an exact solve")
            }
        }
    }

    /// Steady-state expected value of a marking reward function.
    ///
    /// # Errors
    ///
    /// Rejects a non-finite reward and propagates steady-state errors
    /// (e.g. reducible nets).
    pub fn steady_state_expected_reward<F>(&self, reward: F) -> Result<f64>
    where
        F: Fn(&[u32]) -> f64,
    {
        expected_reward(self.num_markings(), &self.rewards(reward), || {
            self.steady_state()
        })
    }

    /// Expected value of a marking reward function at time `t`,
    /// starting from the net's initial marking.
    ///
    /// # Errors
    ///
    /// Propagates transient-solver errors.
    pub fn transient_expected_reward<F>(&self, reward: F, t: f64) -> Result<f64>
    where
        F: Fn(&[u32]) -> f64,
    {
        self.ctmc()
            .expected_reward_at(&self.initial, &self.rewards(reward), t)
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
        F: Fn(&[u32]) -> f64,
    {
        self.ctmc()
            .expected_accumulated_reward(&self.initial, &self.rewards(reward), t)
    }

    /// Steady-state expected token count in a place.
    ///
    /// # Errors
    ///
    /// Propagates steady-state errors.
    pub fn expected_tokens(&self, place: PlaceId) -> Result<f64> {
        let pi = self.steady_state()?;
        self.space.expected_tokens_given(&pi, place)
    }

    /// Steady-state throughput of a **timed** transition:
    /// `Σ_m π_m · rate_t(m) · 1[t enabled in m]`. Several measures
    /// sharing one `π` go through [`TangibleSpace::throughput_given`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Model`] for immediate transitions and
    /// propagates solver errors.
    pub fn throughput(&self, t: TransitionId) -> Result<f64> {
        let pi = self.steady_state()?;
        self.space.throughput_given(&pi, t)
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
        F: Fn(&[u32]) -> bool,
    {
        let ctmc = self.ctmc();
        let absorbing: Vec<StateId> = ctmc
            .state_ids()
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| predicate(self.marking(i as u32)))
            .map(|(_, id)| id)
            .collect();
        if absorbing.is_empty() {
            return Err(Error::model(
                "no reachable marking satisfies the target predicate",
            ));
        }
        ctmc.mttf(&self.initial, &absorbing)
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
            .steady_state_expected_reward(|mk: &[u32]| if mk[0] > 0 { 1.0 } else { 0.0 })
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
        assert!((0..solved.num_markings()).all(|i| solved.marking(i as u32)[0] == 0));
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
        assert!((0..solved.num_markings()).all(|i| solved.marking(i as u32)[2] == 0));
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
    fn overflowing_exit_rate_fails_with_the_chain_builders_error() {
        // Two arcs of rate 1e308 leave the empty marking: their sum, the
        // exit rate, overflows.
        let mut b = SpnBuilder::new();
        let p = b.place("p", 0);
        for name in ["up", "up-again"] {
            let t = b.timed(name, 1e308);
            b.output_arc(t, p, 1);
            b.inhibitor_arc(t, p, 1);
        }
        let down = b.timed("down", 1.0);
        b.input_arc(down, p, 1);
        let spn = b.build().unwrap();
        let err = spn.solve().unwrap_err();
        let names = vec!["[0]".to_owned(), "[1]".to_owned()];
        let arcs = vec![(0, 1, 1e308), (0, 1, 1e308), (1, 0, 1.0)];
        let expected = reliab_markov::Ctmc::from_parts(names, arcs).unwrap_err();
        assert!(matches!(err, reliab_core::Error::Numerical(_)), "{err}");
        assert_eq!(err, expected);
        // Rows regenerated under a budget fail with the same error.
        let space = spn.tangible_space(&ReachabilityOptions::default()).unwrap();
        let opts = reliab_markov::SteadyOptions {
            mem_budget: Some(1 << 30),
            ..Default::default()
        };
        let rows = crate::SpaceRows::new(&space);
        assert_eq!(
            reliab_markov::steady_state(&rows, &opts).unwrap_err(),
            expected
        );
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
    }

    #[test]
    fn mean_time_to_full_queue() {
        // M/M/1/2: time from empty until the queue first fills.
        let spn = mm1k(1.0, 1.0, 2);
        let solved = spn.solve().unwrap();
        let mtt = solved.mean_time_to(|m: &[u32]| m[0] == 2).unwrap();
        // Birth-death first-passage 0 -> 2 with λ = μ = 1:
        // E[T_0->2] = 3 (standard result: sum over levels).
        assert!((mtt - 3.0).abs() < 1e-9, "{mtt}");
        // Predicate never satisfied:
        assert!(solved.mean_time_to(|m: &[u32]| m[0] > 99).is_err());
    }

    #[test]
    fn accumulated_reward_long_run_matches_steady_state() {
        let spn = mm1k(1.0, 2.0, 3);
        let solved = spn.solve().unwrap();
        let busy = |m: &[u32]| if m[0] > 0 { 1.0 } else { 0.0 };
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
            .steady_state_expected_reward(|m: &[u32]| if m[0] == 0 { 1.0 } else { 0.0 })
            .unwrap();
        assert!((p_empty - weights[0] / norm).abs() < 1e-12);
    }

    #[test]
    fn reach_stats_populated() {
        let spn = mm1k(1.0, 2.0, 4);
        let solved = spn.solve().unwrap();
        let s = solved.reach_stats();
        assert_eq!(s.markings, 5);
        assert_eq!(s.arcs, 8); // birth-death chain on 5 states
        assert_eq!(s.vanishing_eliminated, 0);
    }

    #[test]
    fn throughput_given_validates_pi_length() {
        let spn = mm1k(1.0, 2.0, 3);
        let solved = spn.solve().unwrap();
        let arrive = crate::TransitionId::index_test(0);
        assert!(solved.space().throughput_given(&[1.0], arrive).is_err());
        let pi = solved.ctmc().steady_state().unwrap();
        let a = solved.space().throughput_given(&pi, arrive).unwrap();
        let b = solved.throughput(arrive).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
