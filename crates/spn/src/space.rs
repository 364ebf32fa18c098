//! The tangible marking space: the one breadth-first walk over an
//! SPN's markings, and the generator rows every solve reads.
//!
//! `Spn::walk` interns the initial distribution, then expands each
//! interned marking in discovery order with `Expansion::expand` —
//! walking the arena front to back is the BFS, so there is no explicit
//! queue. [`Spn::solve_with`] also keeps every marking's arcs in the
//! order they were emitted, and [`Spn::tangible_space_within`] keeps
//! them while they fit a memory budget. [`TangibleSpace::successors`]
//! regenerates a row by the same expansion, with read-only intern-table
//! probes, so it reproduces the walk's arcs exactly — same order, same
//! duplicates, same rates. [`SpaceRows`] reads kept or regenerated
//! rows and finishes each the one way, so both are bit for bit the
//! rows of the net's [`reliab_markov::Ctmc`].

use crate::model::Spn;
use crate::reach::{hash_marking, Expansion, InternTable, ReachStats};
use crate::{Marking, PlaceId, ReachabilityOptions, TransitionId};
use reliab_core::{Error, Result};
use reliab_markov::{cached_solve_bytes, Ctmc, KeptRows, RowSource};
use reliab_obs as obs;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Reusable per-row scratch for [`TangibleSpace::successors`] — holds
/// the marking buffers so row regeneration allocates only when a
/// vanishing chain must be resolved (exactly like the walk's hot path).
#[derive(Debug, Default)]
pub struct RowBuffer {
    /// The regenerated row: `(target id, rate)` arcs in canonical
    /// emission order, self-loops dropped, parallel arcs kept separate.
    pub arcs: Vec<(u32, f64)>,
    cur: Marking,
    fired: Marking,
    vanishing: u64,
}

impl RowBuffer {
    /// An empty buffer; capacity grows to the widest row encountered.
    #[must_use]
    pub fn new() -> Self {
        RowBuffer::default()
    }
}

/// Finishes one generator row the way the chain's builder assembles it:
/// returns the exit rate, summed in emission order, then stable-sorts
/// the arcs by target and merges parallel arcs in emission order.
fn finish_row(arcs: &mut Vec<(u32, f64)>) -> f64 {
    let mut exit = 0.0;
    for &(_, r) in arcs.iter() {
        exit += r;
    }
    arcs.sort_by_key(|a| a.0);
    arcs.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            kept.1 += later.1;
        }
        same
    });
    exit
}

/// The tangible marking space of an [`Spn`], numbered in the walk's
/// discovery order: built by [`Spn::tangible_space`] without arcs, by
/// [`Spn::tangible_space_within`] with them while they fit a budget, or
/// inside a [`crate::SolvedSpn`] with them. Read its rows through
/// [`SpaceRows`].
pub struct TangibleSpace<'a> {
    table: InternTable,
    expansion: Expansion<'a>,
    initial_pairs: Vec<(u32, f64)>,
    stats: ReachStats,
    kept: Option<KeptRows>,
}

impl std::fmt::Debug for TangibleSpace<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TangibleSpace")
            .field("markings", &self.stats.markings)
            .field("arcs", &self.stats.arcs)
            .finish_non_exhaustive()
    }
}

impl Spn {
    /// Generates the tangible marking space **without** keeping arcs,
    /// so every row a solve reads is regenerated from the arena. It
    /// runs the walk [`Spn::solve_with`] runs, so state `i` here is
    /// state `i` of that CTMC.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Spn::solve_with`]: state-space cap
    /// exceeded, vanishing loop detected, or a marking-dependent rate
    /// misbehaved.
    pub fn tangible_space(&self, opts: &ReachabilityOptions) -> Result<TangibleSpace<'_>> {
        self.tangible_space_within(opts, 0)
    }

    /// Generates the tangible marking space for a solve under a memory
    /// budget of `mem_budget` bytes. The walk keeps each marking's row
    /// while a solve over the kept rows fits the budget as one fully
    /// cached block ([`reliab_markov::cached_solve_bytes`] beside the
    /// space and its rows), and drops every row once it would not, so
    /// the budget goes to the solve's slice cache and the solve
    /// regenerates the rows from the arena. Kept or regenerated, they
    /// are the same rows.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Spn::tangible_space`].
    pub fn tangible_space_within(
        &self,
        opts: &ReachabilityOptions,
        mem_budget: usize,
    ) -> Result<TangibleSpace<'_>> {
        let _span = obs::span("spn.space");
        let space = self.walk(opts, mem_budget)?;
        obs::counter_add("spn.space.markings", space.stats.markings as u64);
        space.stats.emit_done("spn.space.done");
        Ok(space)
    }

    /// The one breadth-first walk: interns the resolved initial
    /// distribution, then expands every interned marking in discovery
    /// order, interning each target and keeping each arc other than a
    /// self-loop in its source's row while the space, its rows and a
    /// one-block solve over them fit `keep_within` bytes (`usize::MAX`
    /// keeps every row, 0 none).
    pub(crate) fn walk(
        &self,
        opts: &ReachabilityOptions,
        keep_within: usize,
    ) -> Result<TangibleSpace<'_>> {
        let start = Instant::now();
        let expansion = Expansion::new(self, opts);
        let width = self.num_places();
        let mut table = InternTable::new(width);
        let mut arcs = 0usize;
        let mut vanishing = 0u64;
        let mut kept = (keep_within > 0).then(KeptRows::default);
        let mut row: Vec<(u32, f64)> = Vec::new();

        let intern = |table: &mut InternTable, m: &[u32]| -> Result<u32> {
            let (id, is_new) = table.intern(m, hash_marking(m));
            if is_new && table.count > opts.max_markings {
                return Err(Error::model(format!(
                    "reachability exceeded {} tangible markings",
                    opts.max_markings
                )));
            }
            Ok(id)
        };

        // The initial marking may be vanishing.
        let mut initial_pairs: Vec<(u32, f64)> = Vec::new();
        for (m, p) in expansion.resolve_vanishing(self.initial.clone(), &mut vanishing)? {
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
                            ("arcs", arcs.into()),
                        ],
                    );
                }
                level += 1;
                level_end = table.count;
            }
            cur.clear();
            cur.extend_from_slice(table.get(i as u32));
            row.clear();
            expansion.expand(&cur, &mut fired, &mut vanishing, |target, rate| {
                let j = intern(&mut table, target)?;
                if j as usize != i {
                    row.push((j, rate));
                }
                Ok(())
            })?;
            arcs += row.len();
            if let Some(rows) = &mut kept {
                rows.push(&row);
                // The arcs emitted so far bound the merged arcs the
                // solve's slices will hold.
                let held = fixed_bytes(&table, &expansion, &initial_pairs)
                    + rows.resident_bytes()
                    + cached_solve_bytes(table.count, arcs);
                if held > keep_within {
                    kept = None;
                }
            }
            i += 1;
        }

        let stats = ReachStats {
            markings: table.count,
            arcs,
            vanishing_eliminated: vanishing,
            generation_ns: start.elapsed().as_nanos(),
        };
        Ok(TangibleSpace {
            table,
            expansion,
            initial_pairs,
            stats,
            kept,
        })
    }
}

/// Bytes of a space's stores besides its kept rows: the marking arena
/// and intern slots, the transition index and the initial pairs.
fn fixed_bytes(table: &InternTable, expansion: &Expansion<'_>, initial: &[(u32, f64)]) -> usize {
    table.resident_bytes() + expansion.timed.len() * 8 + initial.len() * 12
}

impl TangibleSpace<'_> {
    /// Number of tangible markings (CTMC states).
    #[must_use]
    pub fn num_markings(&self) -> usize {
        self.table.count
    }

    /// The packed marking with canonical id `id` (token count per
    /// place, indexed like [`PlaceId::index`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn marking(&self, id: u32) -> &[u32] {
        self.table.get(id)
    }

    /// Initial distribution as sparse `(state, probability)` pairs (a
    /// vanishing initial marking spreads over its tangible successors).
    #[must_use]
    pub fn initial_pairs(&self) -> &[(u32, f64)] {
        &self.initial_pairs
    }

    /// Generation telemetry.
    #[must_use]
    pub fn stats(&self) -> &ReachStats {
        &self.stats
    }

    /// Bytes resident in the space's backing stores (marking arena,
    /// intern slots, transition index, initial pairs, kept arcs) —
    /// deterministic accounting for the steady-state memory planner.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        fixed_bytes(&self.table, &self.expansion, &self.initial_pairs)
            + self.kept.as_ref().map_or(0, KeptRows::resident_bytes)
    }

    /// The net's CTMC, built by [`Ctmc::from_parts`] from the kept arcs
    /// in emission order, each state named by its marking.
    pub(crate) fn ctmc(&self) -> Result<Ctmc> {
        let n = self.num_markings();
        let names = (0..n).map(|i| format!("{:?}", self.marking(i as u32)));
        let mut triplets = Vec::with_capacity(self.stats.arcs);
        if let Some(kept) = &self.kept {
            for i in 0..n {
                triplets.extend(kept.row(i).map(|(j, r)| (i, j as usize, r)));
            }
        }
        Ctmc::from_parts(names.collect(), triplets)
    }

    /// Checks the kept rows as [`Ctmc::from_parts`] checks the chain's
    /// arcs, with its errors.
    pub(crate) fn validate_rows(&self) -> Result<()> {
        self.kept.as_ref().map_or(Ok(()), KeptRows::validate)
    }

    /// Regenerates generator row `id` into `row.arcs`: the off-diagonal
    /// `(target, rate)` arcs in the walk's emission order, self-loops
    /// dropped, parallel arcs kept separate — byte for byte the walk's
    /// arcs from `id`.
    ///
    /// # Errors
    ///
    /// Propagates marking-dependent-rate and vanishing-chain errors;
    /// an un-interned successor (impossible for a space built by the
    /// walk) reports an internal model error.
    pub fn successors(&self, id: u32, row: &mut RowBuffer) -> Result<()> {
        let RowBuffer {
            arcs,
            cur,
            fired,
            vanishing,
        } = row;
        arcs.clear();
        cur.clear();
        cur.extend_from_slice(self.table.get(id));
        self.expansion
            .expand(cur, fired, vanishing, |target, rate| {
                let j = self.find(target)?;
                if j != id {
                    arcs.push((j, rate));
                }
                Ok(())
            })
    }

    fn find(&self, m: &[u32]) -> Result<u32> {
        self.table.find(m, hash_marking(m)).ok_or_else(|| {
            Error::model(
                "internal error: regenerated successor marking is not in the tangible space",
            )
        })
    }

    /// Expected token count in `place` under the distribution `pi`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for a `pi` of the wrong
    /// length.
    pub fn expected_tokens_given(&self, pi: &[f64], place: PlaceId) -> Result<f64> {
        self.check_pi(pi)?;
        let idx = place.index();
        let mut total = 0.0;
        for (i, &p) in pi.iter().enumerate() {
            total += p * f64::from(self.table.get(i as u32)[idx]);
        }
        Ok(total)
    }

    /// Throughput of a **timed** transition under the distribution
    /// `pi`: `Σ_m π_m · rate_t(m) · 1[t enabled in m]`, the mean of its
    /// [`TangibleSpace::firing_rate`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Model`] for immediate transitions,
    /// [`Error::InvalidParameter`] for a `pi` of the wrong length, and
    /// propagates rate-evaluation errors.
    pub fn throughput_given(&self, pi: &[f64], t: TransitionId) -> Result<f64> {
        self.check_pi(pi)?;
        let mut rate = self.firing_rate(t)?;
        let mut total = 0.0;
        for (i, &p) in pi.iter().enumerate() {
            total += p * rate(i as u32)?;
        }
        Ok(total)
    }

    /// The firing rate of a **timed** transition in each marking, by
    /// canonical id: `rate_t(m)` where `t` is enabled in `m`, zero
    /// elsewhere. One marking buffer serves every call.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Model`] for immediate transitions; the function
    /// propagates rate-evaluation errors.
    pub fn firing_rate(&self, t: TransitionId) -> Result<impl FnMut(u32) -> Result<f64> + '_> {
        let spn = self.expansion.spn;
        let idx = t.index();
        if !self.expansion.timed.contains(&idx) {
            return Err(Error::model(format!(
                "throughput of immediate transition '{}' is not defined; attach the measure \
                 to a timed transition",
                spn.transitions[idx].name
            )));
        }
        let mut m: Marking = Vec::with_capacity(spn.num_places());
        Ok(move |id: u32| {
            m.clear();
            m.extend_from_slice(self.table.get(id));
            if spn.enabled(idx, &m) {
                spn.rate_of(idx, &m)
            } else {
                Ok(0.0)
            }
        })
    }

    fn check_pi(&self, pi: &[f64]) -> Result<()> {
        if pi.len() != self.table.count {
            return Err(Error::invalid(format!(
                "distribution length {} != number of markings {}",
                pi.len(),
                self.table.count
            )));
        }
        Ok(())
    }
}

/// The generator rows of a [`TangibleSpace`]: the rows its walk kept,
/// else rows regenerated from the marking arena on demand, finished
/// alike, so that rows and exit rates are bit for bit the net's
/// [`Ctmc`]'s either way.
#[derive(Debug)]
pub struct SpaceRows<'a, 'b> {
    space: &'a TangibleSpace<'b>,
    buf: RefCell<RowBuffer>,
    regenerated: Cell<u64>,
}

impl<'a, 'b> SpaceRows<'a, 'b> {
    /// Wraps a tangible marking space.
    #[must_use]
    pub fn new(space: &'a TangibleSpace<'b>) -> Self {
        SpaceRows {
            space,
            buf: RefCell::new(RowBuffer::new()),
            regenerated: Cell::new(0),
        }
    }

    /// How many rows were regenerated from the arena.
    #[must_use]
    pub fn regenerated(&self) -> u64 {
        self.regenerated.get()
    }
}

impl RowSource for SpaceRows<'_, '_> {
    fn num_states(&self) -> usize {
        self.space.num_markings()
    }

    fn row(&self, i: u32, out: &mut Vec<(u32, f64)>) -> Result<f64> {
        if let Some(kept) = &self.space.kept {
            out.clear();
            out.extend(kept.row(i as usize));
        } else {
            // Lend `out` to the regeneration buffer so the arcs land in
            // it without a copy.
            let mut buf = self.buf.borrow_mut();
            std::mem::swap(out, &mut buf.arcs);
            let regenerated = self.space.successors(i, &mut buf);
            std::mem::swap(out, &mut buf.arcs);
            regenerated?;
            self.regenerated.set(self.regenerated.get() + 1);
        }
        Ok(finish_row(out))
    }

    fn resident_bytes(&self) -> usize {
        self.space.resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpnBuilder;

    fn mm1k(lambda: f64, mu: f64, k: u32) -> Spn {
        let mut b = SpnBuilder::new();
        let queue = b.place("queue", 0);
        let arrive = b.timed("arrive", lambda);
        let serve = b.timed("serve", mu);
        b.output_arc(arrive, queue, 1);
        b.input_arc(serve, queue, 1);
        b.inhibitor_arc(arrive, queue, k);
        b.build().unwrap()
    }

    /// A net with immediate routing, so row regeneration exercises
    /// on-the-fly vanishing elimination.
    fn routed() -> Spn {
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
        let dl = b.timed("drain-left", 5.0);
        b.input_arc(dl, left, 1);
        let dr = b.timed("drain-right", 5.0);
        b.input_arc(dr, right, 1);
        b.inhibitor_arc(arrive, left, 3);
        b.inhibitor_arc(arrive, right, 3);
        b.build().unwrap()
    }

    /// Row regeneration must reproduce the materialized generator's
    /// per-row arc stream exactly — same targets, same rates, same
    /// order, bit for bit.
    fn assert_rows_match(spn: &Spn) {
        let opts = ReachabilityOptions::default();
        let solved = spn.solve_with(&opts).unwrap();
        let space = spn.tangible_space(&opts).unwrap();
        assert_eq!(space.num_markings(), solved.num_markings());
        for i in 0..space.num_markings() as u32 {
            assert_eq!(space.marking(i), solved.marking(i), "marking {i}");
        }
        assert_eq!(
            space.initial_pairs().len(),
            solved
                .initial_distribution()
                .iter()
                .filter(|&&p| p > 0.0)
                .count()
        );
        let gen = solved.ctmc().generator();
        let mut row = RowBuffer::new();
        let mut total_arcs = 0usize;
        for i in 0..space.num_markings() {
            space.successors(i as u32, &mut row).unwrap();
            total_arcs += row.arcs.len();
            // Merge parallel arcs like CSR does, then compare.
            let mut merged: std::collections::BTreeMap<u32, f64> = Default::default();
            for &(j, r) in &row.arcs {
                *merged.entry(j).or_insert(0.0) += r;
            }
            let csr: Vec<(usize, f64)> = gen.row(i).filter(|&(j, _)| j != i).collect();
            assert_eq!(csr.len(), merged.len(), "row {i} arc count");
            for (j, v) in csr {
                let got = merged[&(j as u32)];
                assert_eq!(got.to_bits(), v.to_bits(), "row {i} -> {j}");
            }
        }
        assert_eq!(total_arcs, space.stats().arcs);
        assert_eq!(total_arcs, solved.reach_stats().arcs);
    }

    #[test]
    fn rows_match_materialized_generator_without_immediates() {
        assert_rows_match(&mm1k(1.3, 2.1, 6));
    }

    #[test]
    fn rows_match_materialized_generator_with_vanishing_elimination() {
        let spn = routed();
        assert_rows_match(&spn);
        let space = spn.tangible_space(&ReachabilityOptions::default()).unwrap();
        assert!(space.stats().vanishing_eliminated > 0);
    }

    #[test]
    fn measures_match_solved_spn() {
        let spn = mm1k(1.0, 2.0, 4);
        let opts = ReachabilityOptions::default();
        let solved = spn.solve_with(&opts).unwrap();
        let space = spn.tangible_space(&opts).unwrap();
        let pi = solved.ctmc().steady_state().unwrap();
        let place = crate::PlaceId::index_test(0);
        let serve = crate::TransitionId::index_test(1);
        let en = space.expected_tokens_given(&pi, place).unwrap();
        let en_ref = solved.expected_tokens(place).unwrap();
        assert!((en - en_ref).abs() < 1e-12);
        let tp = space.throughput_given(&pi, serve).unwrap();
        let tp_ref = solved.throughput(serve).unwrap();
        assert_eq!(tp.to_bits(), tp_ref.to_bits());
        // Validation mirrors SolvedSpn.
        assert!(space.expected_tokens_given(&[1.0], place).is_err());
        assert!(space
            .throughput_given(&pi, crate::TransitionId::index_test(0))
            .is_ok());
    }

    /// Under a budget the walk keeps the rows while a one-block solve
    /// over them fits it, and none once it would not; a solve reads the
    /// same rows either way.
    #[test]
    fn budgeted_walk_keeps_rows_only_while_they_fit() {
        let spn = routed();
        let opts = ReachabilityOptions::default();
        let all = spn.solve_with(&opts).unwrap();
        let none = spn.tangible_space(&opts).unwrap();
        let n = none.num_markings();
        let fits = all.space().resident_bytes() + cached_solve_bytes(n, all.reach_stats().arcs);
        let reference = SpaceRows::new(all.space());
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (budget, kept) in [(usize::MAX, true), (fits, true), (fits - 1, false)] {
            let space = spn.tangible_space_within(&opts, budget).unwrap();
            let expected = if kept { all.space() } else { &none };
            assert_eq!(
                space.resident_bytes(),
                expected.resident_bytes(),
                "{budget}"
            );
            let rows = SpaceRows::new(&space);
            for i in 0..n as u32 {
                let exit = rows.row(i, &mut got).unwrap();
                let want_exit = reference.row(i, &mut want).unwrap();
                assert_eq!(exit.to_bits(), want_exit.to_bits(), "row {i}");
                let bits = |row: &[(u32, f64)]| {
                    row.iter()
                        .map(|&(j, r)| (j, r.to_bits()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits(&got), bits(&want), "row {i}");
            }
            assert_eq!(
                rows.regenerated(),
                if kept { 0 } else { n as u64 },
                "{budget}"
            );
        }
    }

    #[test]
    fn cap_is_enforced() {
        let mut b = SpnBuilder::new();
        let p = b.place("p", 0);
        let t = b.timed("grow", 1.0);
        b.output_arc(t, p, 1);
        let spn = b.build().unwrap();
        let opts = ReachabilityOptions {
            max_markings: 100,
            ..Default::default()
        };
        assert!(spn.tangible_space(&opts).is_err());
    }

    #[test]
    fn resident_bytes_is_far_below_materialized_footprint() {
        let spn = mm1k(1.0, 2.0, 200);
        let opts = ReachabilityOptions::default();
        let space = spn.tangible_space(&opts).unwrap();
        let n = space.num_markings();
        assert_eq!(n, 201);
        // Arena is one u32 per marking here; the whole space is a few KB.
        assert!(space.resident_bytes() < 64 * 1024);
        assert!(space.resident_bytes() >= n * 4);
    }
}
