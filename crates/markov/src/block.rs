//! The one iterative steady-state kernel: block-partitioned
//! Gauss–Seidel/SOR and power iteration over a [`RowSource`].
//!
//! The generator is consumed column-block by column-block: each block's
//! **column slice** — the arcs whose *target* lies in the block, in
//! compressed-column form (column pointers, source states, rates) — is
//! either cached across sweeps or recomputed from the row source every
//! sweep, whichever the memory plan allows. A slice is filled by a
//! stable counting sort: the planning scan counts every column's arcs,
//! and one pass over the rows drops each arc into the next free entry
//! of its column, so a column lists its arcs in row-scan order. The
//! sweep always walks states in global order and consumes each column's
//! entries in that order regardless of where block boundaries fall, so
//! the iterates — and therefore the result — are **bitwise identical**
//! at any block count and any admitting memory budget. Caching is
//! purely a wall-time decision.
//!
//! With no budget and no explicit block count the plan is one fully
//! cached block, known before the source is read: the planning scan
//! then keeps the rows it reads and the slice is built from them, so
//! the source is read once per solve. A materialized [`crate::Ctmc`]
//! runs this way; its column slice is the generator's transpose, read
//! in the order the CSR transpose would list it, so in-core SOR keeps
//! its bits. [`steady_state`] also runs GTH; a budget only decides
//! whether GTH's floor fits, and `Auto` runs SOR where it does not.

use crate::plan::{
    plan_steady, IterativeOptions, MemoryPlan, PlanOutcome, SteadyMethod, SteadyOptions,
};
use crate::source::{scan_rows, KeptRows, RateScan, RowSource};
use crate::steady::gth;
use crate::SteadyReport;
use reliab_core::{Error, Result};
use reliab_obs as obs;

/// The trace layer a solve reports under: a materialized chain's
/// `markov.*` names or the `stream.*` names of [`steady_state`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    Markov,
    Stream,
}

impl Layer {
    fn method(self, power: bool) -> &'static str {
        match (self, power) {
            (Layer::Markov, false) => "sor",
            (Layer::Markov, true) => "power",
            (Layer::Stream, false) => "stream-sor",
            (Layer::Stream, true) => "stream-power",
        }
    }

    fn iteration_event(self) -> &'static str {
        match self {
            Layer::Markov => "markov.iteration",
            Layer::Stream => "stream.iteration",
        }
    }
}

/// One block's column slice in compressed-column form: the arcs into
/// local column `jl` are `(src[k], rate[k])` for `k` in
/// `ptr[jl]..ptr[jl + 1]`, in the row-scan order of the source — the
/// invariant the bitwise block-independence guarantee rests on.
#[derive(Clone, Default)]
struct Slice {
    ptr: Vec<u32>,
    src: Vec<u32>,
    rate: Vec<f64>,
}

impl Slice {
    /// Empties the slice and shapes it for columns with these
    /// in-degrees. The pointers start shifted one place right:
    /// `ptr[jl + 1]` is the next free entry of column `jl` while the
    /// slice fills, and has moved to the column's end once it is full.
    fn shape(&mut self, indegree: &[u32]) -> Result<()> {
        self.ptr.clear();
        self.ptr.push(0);
        let mut end = 0u32;
        for &d in indegree {
            self.ptr.push(end);
            end = end.checked_add(d).ok_or_else(|| {
                Error::numerical(format!(
                    "a column block of the steady-state sweep holds more than {} arcs",
                    u32::MAX
                ))
            })?;
        }
        self.src.clear();
        self.src.resize(end as usize, 0);
        self.rate.clear();
        self.rate.resize(end as usize, 0.0);
        Ok(())
    }

    /// Files arc `i → lo + jl` at rate `r` after the arcs already in
    /// its column.
    fn push(&mut self, jl: usize, i: u32, r: f64) {
        let k = self.ptr[jl + 1] as usize;
        self.src[k] = i;
        self.rate[k] = r;
        self.ptr[jl + 1] += 1;
    }

    /// `Σ π_i r` over the arcs into local column `jl`, in row-scan
    /// order. Forced inline: left to the compiler, the in-core sweep
    /// ran about a fifth slower.
    #[inline(always)]
    fn column_sum(&self, jl: usize, pi: &[f64]) -> f64 {
        let (a, b) = (self.ptr[jl] as usize, self.ptr[jl + 1] as usize);
        let mut acc = 0.0;
        for (&i, &r) in self.src[a..b].iter().zip(&self.rate[a..b]) {
            acc += pi[i as usize] * r;
        }
        acc
    }

    /// One Gauss–Seidel/SOR pass over this block's states, the first of
    /// which is global state `lo`: relaxes each `π_j` in turn, raises
    /// `max_val` to the largest `|π_j|` and returns the largest change.
    /// Both maxima are kept by compare-and-set, which gives the bits of
    /// `f64::max` here (neither starts as NaN, and a NaN candidate is
    /// skipped by both) while leaving a shorter chain of dependent
    /// instructions from one state to the next.
    fn relax(&self, lo: usize, exit: &[f64], pi: &mut [f64], omega: f64, max_val: &mut f64) -> f64 {
        let (mut block_change, mut val) = (0.0f64, *max_val);
        for (jl, &exit_j) in exit[lo..lo + self.ptr.len() - 1].iter().enumerate() {
            let j = lo + jl;
            // pi_j_new = (sum_{i != j} pi_i q_ij) / (-q_jj), the partial
            // sum consuming column j's entries in the blocking-independent
            // row-scan order.
            let new = self.column_sum(jl, pi) / exit_j;
            // At ω = 1 relaxing is the identity bit for bit: 1·new = new,
            // (1 − 1)·π_j = +0 for the finite, non-negative π_j of a
            // Gauss–Seidel sweep, and new + 0 = new since new, a sum that
            // starts at +0 divided by a positive rate, is never −0.
            let relaxed = if omega == 1.0 {
                new
            } else {
                omega * new + (1.0 - omega) * pi[j]
            };
            let change = (relaxed - pi[j]).abs();
            if change > block_change {
                block_change = change;
            }
            pi[j] = relaxed;
            if relaxed.abs() > val {
                val = relaxed.abs();
            }
        }
        *max_val = val;
        block_change
    }
}

/// What the planning scan recovers: exit rates, every column's
/// in-degree and, when the plan is one fully cached block, the rows.
struct Gathered {
    scan: RateScan,
    indegree: Vec<u32>,
    rows: Option<KeptRows>,
}

impl Gathered {
    /// Reads every row once; keeps the rows when no budget and no
    /// explicit block count are set, which always plans one fully
    /// cached block.
    fn scan(src: &dyn RowSource, opts: &SteadyOptions) -> Result<Gathered> {
        let mut indegree = vec![0u32; src.num_states()];
        let mut rows = (opts.mem_budget.is_none() && opts.blocks.is_none()).then(KeptRows::default);
        let scan = scan_rows(src, &mut |row| {
            for &(j, _) in row {
                indegree[j as usize] += 1;
            }
            if let Some(rows) = &mut rows {
                rows.push(row);
            }
        })?;
        Ok(Gathered {
            scan,
            indegree,
            rows,
        })
    }
}

/// Solves `π Q = 0`, `Σ π = 1` over a row source under the options'
/// memory budget — the one steady-state entry for a chain known by its
/// rows. The source is read once. GTH (what [`SteadyMethod::Auto`]
/// picks at ≤ 512 states when the budget admits GTH's floor, SOR
/// otherwise) keeps the rows it reads and reports `markov.iteration`
/// events. SOR and power report under the `stream.*` trace names and
/// plan the solve from that read. A budget below the floor comes back
/// as [`PlanOutcome::NeedsBounds`], for the caller to escalate to
/// aggregation bounds: before any read for GTH, after the planning read
/// for SOR and power. With no budget and no explicit block count that
/// one read is the whole solve's.
///
/// # Errors
///
/// * [`Error::InvalidParameter`] — bad options or a non-ergodic
///   diagonal (SOR).
/// * [`Error::Convergence`] — iteration budget exhausted.
/// * [`Error::Numerical`] — a reducible chain (GTH).
/// * [`Error::Model`] — the source breaks the [`RowSource`] contract;
///   row-source errors propagate.
pub fn steady_state(
    src: &dyn RowSource,
    opts: &SteadyOptions,
) -> Result<PlanOutcome<SteadyReport>> {
    opts.validate()?;
    let _span = obs::span("stream.steady");
    let opts = &SteadyOptions {
        method: opts.method_for(src.num_states(), src.resident_bytes()),
        ..*opts
    };
    let outcome = if opts.method == SteadyMethod::Gth {
        gth_source(src, opts)?
    } else {
        sweep_source(src, opts)?
    };
    if let PlanOutcome::Exact(report) = &outcome {
        obs::counter_add("stream.steady.solves", 1);
        obs::counter_add("stream.steady.iterations", report.iterations as u64);
    }
    Ok(outcome)
}

/// GTH over the rows one scan keeps, once the budget admits its floor.
fn gth_source(src: &dyn RowSource, opts: &SteadyOptions) -> Result<PlanOutcome<SteadyReport>> {
    let n = src.num_states();
    if let PlanOutcome::NeedsBounds { required, budget } =
        plan_steady(n, 0, src.resident_bytes(), opts)
    {
        return Ok(PlanOutcome::NeedsBounds { required, budget });
    }
    let mut rows = KeptRows::default();
    scan_rows(src, &mut |row| rows.push(row))?;
    gth(n, |i| rows.row(i).map(|(j, r)| (j as usize, r))).map(PlanOutcome::Exact)
}

/// SOR or power over a row source: one planning scan, then the sweep.
fn sweep_source(src: &dyn RowSource, opts: &SteadyOptions) -> Result<PlanOutcome<SteadyReport>> {
    let gathered = {
        let _span = obs::span("stream.scan");
        Gathered::scan(src, opts)?
    };
    obs::event(
        "stream.scan.done",
        &[
            ("states", src.num_states().into()),
            ("arcs", gathered.scan.arcs.into()),
            ("max_row", gathered.scan.max_row.into()),
        ],
    );
    solve(src, gathered, opts, Layer::Stream)
}

/// Solves a resident chain by SOR or power as one fully cached block,
/// reporting under the `markov.*` trace names; its caller has rejected
/// a budget and a block count.
pub(crate) fn solve_in_core(src: &dyn RowSource, opts: &SteadyOptions) -> Result<SteadyReport> {
    opts.validate()?;
    match solve(src, Gathered::scan(src, opts)?, opts, Layer::Markov)? {
        PlanOutcome::Exact(report) => Ok(report),
        PlanOutcome::NeedsBounds { .. } => unreachable!("no budget always plans an exact solve"),
    }
}

/// Plans a solve from a finished scan and runs it.
fn solve(
    src: &dyn RowSource,
    gathered: Gathered,
    opts: &SteadyOptions,
    layer: Layer,
) -> Result<PlanOutcome<SteadyReport>> {
    let Gathered {
        scan,
        mut indegree,
        rows,
    } = gathered;
    let n = src.num_states();
    let mut plan = match plan_steady(n, scan.arcs, src.resident_bytes(), opts) {
        PlanOutcome::Exact(p) => p,
        PlanOutcome::NeedsBounds { required, budget } => {
            return Ok(PlanOutcome::NeedsBounds { required, budget })
        }
    };
    // Blocks are contiguous index ranges of equal width; the last may
    // be short. Re-derive the effective count from the width so the
    // reported plan matches what the sweep actually does.
    let bs = n.div_ceil(plan.blocks);
    plan.blocks = n.div_ceil(bs);
    let mut cached = vec![Slice::default(); cached_prefix(&plan)];
    for (b, slice) in cached.iter_mut().enumerate() {
        slice.shape(&indegree[b * bs..((b + 1) * bs).min(n)])?;
    }
    match rows {
        Some(rows) => {
            debug_assert!(plan.blocks == 1 && cached.len() == 1);
            for i in 0..n {
                for (j, r) in rows.row(i) {
                    cached[0].push(j as usize, i as u32, r);
                }
            }
        }
        None if !cached.is_empty() => build_slices(src, bs, 0, &mut cached, &mut Vec::new())?,
        None => {}
    }
    plan.cached_blocks = cached.len();
    // Recomputed blocks are shaped from the in-degrees of their columns.
    indegree = indegree.split_off((cached.len() * bs).min(n));
    if layer == Layer::Stream {
        obs::event(
            "stream.plan",
            &[
                ("states", n.into()),
                ("arcs", scan.arcs.into()),
                ("blocks", plan.blocks.into()),
                ("cached_blocks", plan.cached_blocks.into()),
                ("source_bytes", plan.source_bytes.into()),
                ("slice_bytes", plan.slice_bytes.into()),
            ],
        );
    }
    let sweep = Sweep {
        src,
        exit: &scan.exit,
        plan,
        bs,
        cached,
        indegree,
        layer,
    };
    let report = match opts.method {
        SteadyMethod::Power => sweep.power(&opts.iterative, scan.q),
        _ => sweep.sor(&opts.iterative),
    }?;
    Ok(PlanOutcome::Exact(report))
}

/// Fills, in one scan of the source, the column slices of the blocks
/// `first..first + out.len()`, each already shaped for its columns.
/// A slice built twice is byte-identical, so cached and recomputed
/// blocks sweep alike.
fn build_slices(
    src: &dyn RowSource,
    bs: usize,
    first: usize,
    out: &mut [Slice],
    row: &mut Vec<(u32, f64)>,
) -> Result<()> {
    for i in 0..src.num_states() {
        src.row(i as u32, row)?;
        for &(j, r) in row.iter() {
            let b = j as usize / bs;
            if let Some(slice) = b.checked_sub(first).and_then(|k| out.get_mut(k)) {
                slice.push(j as usize - b * bs, i as u32, r);
            }
        }
    }
    Ok(())
}

/// How many leading blocks the cache pool holds: all of them when the
/// whole slice store fits, else as many average-sized blocks as fit
/// beside one block of recompute scratch.
fn cached_prefix(plan: &MemoryPlan) -> usize {
    if plan.slice_bytes <= plan.cache_bytes {
        return plan.blocks;
    }
    let per_block = (plan.slice_bytes / plan.blocks as u64).max(1);
    let fit = plan.cache_bytes.saturating_sub(per_block) / per_block;
    usize::try_from(fit).unwrap_or(plan.blocks).min(plan.blocks)
}

/// One planned solve: the source, its exit rates, the slices of the
/// leading blocks the plan caches and the in-degrees of the columns
/// after them.
struct Sweep<'a> {
    src: &'a dyn RowSource,
    exit: &'a [f64],
    plan: MemoryPlan,
    bs: usize,
    cached: Vec<Slice>,
    indegree: Vec<u32>,
    layer: Layer,
}

impl Sweep<'_> {
    /// Calls `per_block(b, lo, hi, slice)` for every block in order,
    /// recomputing the slices the plan does not cache.
    fn for_each_block(
        &self,
        scratch: &mut Slice,
        row: &mut Vec<(u32, f64)>,
        per_block: &mut dyn FnMut(usize, usize, usize, &Slice),
    ) -> Result<()> {
        let uncached_from = self.cached.len() * self.bs;
        for b in 0..self.plan.blocks {
            let lo = b * self.bs;
            let hi = (lo + self.bs).min(self.plan.states);
            let slice = match self.cached.get(b) {
                Some(slice) => slice,
                None => {
                    scratch.shape(&self.indegree[lo - uncached_from..hi - uncached_from])?;
                    build_slices(self.src, self.bs, b, std::slice::from_mut(scratch), row)?;
                    &*scratch
                }
            };
            per_block(b, lo, hi, slice);
        }
        Ok(())
    }

    fn report(
        &self,
        pi: Vec<f64>,
        power: bool,
        iterations: usize,
        residual: f64,
        block_residuals: Vec<f64>,
    ) -> SteadyReport {
        SteadyReport {
            pi,
            method: self.layer.method(power),
            iterations,
            residual,
            block_residuals,
            plan: Some(self.plan),
        }
    }

    fn iteration_event(&self, power: bool, iter: usize, residual: f64) {
        obs::event(
            self.layer.iteration_event(),
            &[
                ("method", self.layer.method(power).into()),
                ("iter", iter.into()),
                ("residual", residual.into()),
            ],
        );
    }

    fn no_convergence(&self, power: bool, iterations: usize, residual: f64) -> Error {
        Error::Convergence {
            what: format!("{} steady state", self.layer.method(power)),
            iterations,
            residual,
        }
    }

    /// Gauss–Seidel / SOR sweeps on the generator columns.
    fn sor(&self, opts: &IterativeOptions) -> Result<SteadyReport> {
        let n = self.plan.states;
        // Gauss–Seidel divides by -q_jj = the exit rate; a zero exit
        // rate is an absorbing state, which an ergodic steady state
        // cannot have.
        if let Some(j) = self.exit.iter().position(|&e| e <= 0.0) {
            return Err(Error::invalid(format!(
                "generator diagonal q[{j}][{j}] = 0 must be negative"
            )));
        }
        let IterativeOptions {
            tolerance,
            max_iterations,
            relaxation: omega,
        } = *opts;
        let mut pi = vec![1.0 / n as f64; n];
        let mut block_res = vec![0.0f64; self.plan.blocks];
        let mut scratch = Slice::default();
        let mut row: Vec<(u32, f64)> = Vec::new();
        for iter in 0..max_iterations {
            let mut max_change = 0.0f64;
            let mut max_val = 0.0f64;
            self.for_each_block(&mut scratch, &mut row, &mut |b, lo, _, slice| {
                let block_change = slice.relax(lo, self.exit, &mut pi, omega, &mut max_val);
                max_change = max_change.max(block_change);
                block_res[b] = block_change;
                if self.layer == Layer::Stream && obs::trace_enabled() {
                    obs::event(
                        "stream.block",
                        &[
                            ("sweep", (iter + 1).into()),
                            ("block", b.into()),
                            ("residual", block_change.into()),
                        ],
                    );
                }
            })?;
            // Normalize each sweep to keep the iterate bounded.
            let total: f64 = pi.iter().sum();
            if !total.is_finite() || total <= 0.0 {
                return Err(Error::numerical(
                    "singular system: SOR iterate collapsed; chain may be reducible",
                ));
            }
            for p in &mut pi {
                *p /= total;
            }
            if max_val > 0.0 {
                let rel = max_change / max_val;
                self.iteration_event(false, iter + 1, rel);
                if rel < tolerance {
                    for r in &mut block_res {
                        *r /= max_val;
                    }
                    return Ok(self.report(pi, false, iter + 1, rel, block_res));
                }
            }
            if iter + 1 == max_iterations {
                return Err(self.no_convergence(
                    false,
                    max_iterations,
                    max_change / max_val.max(f64::MIN_POSITIVE),
                ));
            }
        }
        unreachable!("loop returns before exhausting")
    }

    /// Power iteration on the uniformized DTMC `P = I + Q/q`.
    fn power(&self, opts: &IterativeOptions, q: f64) -> Result<SteadyReport> {
        let n = self.plan.states;
        let IterativeOptions {
            tolerance,
            max_iterations,
            ..
        } = *opts;
        let mut pi = vec![1.0 / n as f64; n];
        let mut next = vec![0.0f64; n];
        let mut block_res = vec![0.0f64; self.plan.blocks];
        let mut scratch = Slice::default();
        let mut row: Vec<(u32, f64)> = Vec::new();
        for iter in 0..max_iterations {
            // next = pi · P, assembled per column block (column sums
            // are blocking-independent).
            self.for_each_block(&mut scratch, &mut row, &mut |_, lo, hi, slice| {
                for (j, nj) in next.iter_mut().enumerate().take(hi).skip(lo) {
                    *nj = pi[j] * (1.0 - self.exit[j] / q) + slice.column_sum(j - lo, &pi) / q;
                }
            })?;
            let total: f64 = next.iter().sum();
            if !total.is_finite() || total <= 0.0 {
                return Err(Error::numerical(
                    "singular system: power iterate collapsed; matrix may not be stochastic",
                ));
            }
            for v in &mut next {
                *v /= total;
            }
            let mut change = 0.0f64;
            for (b, res) in block_res.iter_mut().enumerate() {
                let lo = b * self.bs;
                let hi = (lo + self.bs).min(n);
                *res = (lo..hi)
                    .map(|j| (pi[j] - next[j]).abs())
                    .fold(0.0f64, f64::max);
                change = change.max(*res);
            }
            std::mem::swap(&mut pi, &mut next);
            self.iteration_event(true, iter + 1, change);
            if change < tolerance {
                return Ok(self.report(pi, true, iter + 1, change, block_res));
            }
            if iter + 1 == max_iterations {
                return Err(self.no_convergence(true, max_iterations, change));
            }
        }
        unreachable!("loop returns before exhausting")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::scan_rates;
    use crate::{Ctmc, CtmcBuilder};
    use reliab_numeric::gth_steady_state;
    use std::cell::Cell;

    /// The triplet-and-cursor kernel the column-pointer slices
    /// replaced, kept as the bitwise reference: a block's arcs are
    /// `(j_local, source, rate)` triplets in row-scan order, stably
    /// sorted by target, and the sweep finds each column's run of
    /// triplets with a cursor. Returns `π`, the sweep count, the
    /// residual and the block residuals.
    fn reference(
        src: &dyn RowSource,
        opts: &SteadyOptions,
    ) -> Result<(Vec<f64>, usize, f64, Vec<f64>)> {
        type Triplets = Vec<(u32, u32, f64)>;
        fn build(src: &dyn RowSource, bs: usize, first: usize, out: &mut [Triplets]) {
            for slice in out.iter_mut() {
                slice.clear();
            }
            let mut row = Vec::new();
            for i in 0..src.num_states() {
                src.row(i as u32, &mut row).unwrap();
                for &(j, r) in &row {
                    let b = j as usize / bs;
                    if let Some(slice) = b.checked_sub(first).and_then(|k| out.get_mut(k)) {
                        slice.push((j - (b * bs) as u32, i as u32, r));
                    }
                }
            }
            for slice in out.iter_mut() {
                slice.sort_by_key(|t| t.0);
            }
        }
        // Σ π_i r over the run of `slice` at `cursor` that targets `jl`.
        fn run(slice: &Triplets, cursor: &mut usize, jl: u32, pi: &[f64]) -> f64 {
            let mut acc = 0.0;
            while *cursor < slice.len() && slice[*cursor].0 == jl {
                let (_, i, r) = slice[*cursor];
                acc += pi[i as usize] * r;
                *cursor += 1;
            }
            acc
        }
        opts.validate()?;
        let scan = scan_rates(src)?;
        let n = src.num_states();
        let PlanOutcome::Exact(mut plan) = plan_steady(n, scan.arcs, src.resident_bytes(), opts)
        else {
            panic!("the reference runs admitting budgets only")
        };
        let bs = n.div_ceil(plan.blocks);
        plan.blocks = n.div_ceil(bs);
        let mut cached = vec![Vec::new(); cached_prefix(&plan)];
        build(src, bs, 0, &mut cached);
        let mut scratch = Vec::new();
        // Block `b`'s slice: cached, or rebuilt into the scratch.
        fn slice_of<'a>(
            src: &dyn RowSource,
            bs: usize,
            b: usize,
            cached: &'a [Triplets],
            scratch: &'a mut Triplets,
        ) -> &'a Triplets {
            if b >= cached.len() {
                build(src, bs, b, std::slice::from_mut(scratch));
            }
            cached.get(b).unwrap_or(scratch)
        }
        let IterativeOptions {
            tolerance,
            max_iterations,
            relaxation: omega,
        } = opts.iterative;
        let exit = &scan.exit;
        let mut pi = vec![1.0 / n as f64; n];
        let mut block_res = vec![0.0f64; plan.blocks];
        let collapsed = |what: &str| Error::numerical(format!("{what} collapsed"));
        if opts.method == SteadyMethod::Power {
            let q = scan.q;
            let mut next = vec![0.0f64; n];
            for iter in 0..max_iterations {
                for b in 0..plan.blocks {
                    let (lo, hi) = (b * bs, ((b + 1) * bs).min(n));
                    let slice = slice_of(src, bs, b, &cached, &mut scratch);
                    let mut cursor = 0;
                    for j in lo..hi {
                        let acc = run(slice, &mut cursor, (j - lo) as u32, &pi);
                        next[j] = pi[j] * (1.0 - exit[j] / q) + acc / q;
                    }
                }
                let total: f64 = next.iter().sum();
                if !total.is_finite() || total <= 0.0 {
                    return Err(collapsed("power"));
                }
                for v in &mut next {
                    *v /= total;
                }
                let mut change = 0.0f64;
                for (b, res) in block_res.iter_mut().enumerate() {
                    let (lo, hi) = (b * bs, ((b + 1) * bs).min(n));
                    *res = (lo..hi)
                        .map(|j| (pi[j] - next[j]).abs())
                        .fold(0.0f64, f64::max);
                    change = change.max(*res);
                }
                std::mem::swap(&mut pi, &mut next);
                if change < tolerance {
                    return Ok((pi, iter + 1, change, block_res));
                }
            }
            return Err(Error::numerical("power budget exhausted"));
        }
        for iter in 0..max_iterations {
            let (mut max_change, mut max_val) = (0.0f64, 0.0f64);
            for (b, res) in block_res.iter_mut().enumerate() {
                let (lo, hi) = (b * bs, ((b + 1) * bs).min(n));
                let slice = slice_of(src, bs, b, &cached, &mut scratch);
                let (mut cursor, mut block_change) = (0, 0.0f64);
                for j in lo..hi {
                    let new = run(slice, &mut cursor, (j - lo) as u32, &pi) / exit[j];
                    let relaxed = omega * new + (1.0 - omega) * pi[j];
                    let change = (relaxed - pi[j]).abs();
                    max_change = max_change.max(change);
                    block_change = block_change.max(change);
                    pi[j] = relaxed;
                    max_val = max_val.max(relaxed.abs());
                }
                *res = block_change;
            }
            let total: f64 = pi.iter().sum();
            if !total.is_finite() || total <= 0.0 {
                return Err(collapsed("SOR"));
            }
            for p in &mut pi {
                *p /= total;
            }
            if max_val > 0.0 && max_change / max_val < tolerance {
                for r in &mut block_res {
                    *r /= max_val;
                }
                return Ok((pi, iter + 1, max_change / max_val, block_res));
            }
        }
        Err(Error::numerical("SOR budget exhausted"))
    }

    /// A tiny splitmix64 stream for the seeded chains.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn rate(&mut self) -> f64 {
            0.05 + 10.0 * (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A random irreducible chain: a ring through every state plus a
    /// few random arcs per state, or with `band`, arcs to the states
    /// within `band` of each.
    fn random_chain(rng: &mut Rng, n: usize, band: Option<usize>) -> Ctmc {
        let mut b = CtmcBuilder::new();
        let ids: Vec<_> = (0..n).map(|i| b.state(&format!("s{i}"))).collect();
        for i in 0..n {
            b.transition(ids[i], ids[(i + 1) % n], rng.rate()).unwrap();
            match band {
                Some(w) => {
                    for j in i.saturating_sub(w)..(i + w + 1).min(n) {
                        if j != i && rng.below(3) > 0 {
                            b.transition(ids[i], ids[j], rng.rate()).unwrap();
                        }
                    }
                }
                None => {
                    for _ in 0..rng.below(4) {
                        let j = rng.below(n);
                        if j != i {
                            b.transition(ids[i], ids[j], rng.rate()).unwrap();
                        }
                    }
                }
            }
        }
        b.build().unwrap()
    }

    /// The chain of the three-stage tandem net (stages of capacity
    /// `cap`; arrivals at rate 1, services at 2, 3 and 4; 30% of stage
    /// two's output reworked), with its rows regenerated on every call
    /// as a streamed net's are.
    struct Tandem {
        cap: u32,
    }

    impl RowSource for Tandem {
        fn num_states(&self) -> usize {
            (self.cap as usize + 1).pow(3)
        }

        fn row(&self, i: u32, out: &mut Vec<(u32, f64)>) -> Result<f64> {
            let c = self.cap + 1;
            let (a, b, d) = (i / (c * c), i / c % c, i % c);
            let at = |a: u32, b: u32, d: u32| (a * c + b) * c + d;
            out.clear();
            if a < self.cap {
                out.push((at(a + 1, b, d), 1.0));
            }
            if a > 0 && b < self.cap {
                out.push((at(a - 1, b + 1, d), 2.0));
            }
            if b > 0 && d < self.cap {
                out.push((at(a, b - 1, d + 1), 3.0 * 0.7));
            }
            if d > 0 {
                out.push((at(a, b, d - 1), 4.0));
            }
            let exit = out.iter().map(|a| a.1).sum();
            out.sort_by_key(|a| a.0);
            Ok(exit)
        }

        fn resident_bytes(&self) -> usize {
            0
        }
    }

    /// Counts the rows a solve reads.
    struct Counting<'a> {
        inner: &'a dyn RowSource,
        rows: Cell<usize>,
    }

    impl RowSource for Counting<'_> {
        fn num_states(&self) -> usize {
            self.inner.num_states()
        }

        fn row(&self, i: u32, out: &mut Vec<(u32, f64)>) -> Result<f64> {
            self.rows.set(self.rows.get() + 1);
            self.inner.row(i, out)
        }

        fn resident_bytes(&self) -> usize {
            self.inner.resident_bytes()
        }
    }

    /// Every configuration of the column-pointer kernel against the
    /// triplet-and-cursor reference, bit for bit: seeded random sparse
    /// and banded chains and the tandem net's chain, by SOR at ω = 1
    /// and ω = 1.3 and by power, with no budget, at explicit block
    /// counts, and under budgets that cache nothing, a third of the
    /// slice store, or all of it.
    #[test]
    fn column_pointer_slices_match_the_triplet_reference_bit_for_bit() {
        let mut rng = Rng(0x5eed_b10c);
        let mut chains: Vec<Box<dyn RowSource>> = vec![Box::new(Tandem { cap: 3 })];
        for case in 0..12 {
            let n = 2 + rng.below(30);
            let band = (case % 2 == 1).then(|| 1 + rng.below(3));
            chains.push(Box::new(random_chain(&mut rng, n, band)));
        }
        let mut compared = 0;
        for src in &chains {
            let n = src.num_states();
            let scan = scan_rates(src.as_ref()).unwrap();
            for (method, relaxation) in [
                (SteadyMethod::Sor, 1.0),
                (SteadyMethod::Sor, 1.3),
                (SteadyMethod::Power, 1.0),
            ] {
                let base = SteadyOptions {
                    iterative: IterativeOptions {
                        tolerance: 1e-9,
                        max_iterations: 1_000,
                        relaxation,
                    },
                    method,
                    ..Default::default()
                };
                let vectors = if method == SteadyMethod::Power { 3 } else { 2 } * 8 * n;
                let floor = src.resident_bytes() + vectors;
                let slice_bytes = scan.arcs as usize * 16;
                let mut configs = vec![base];
                for blocks in [2, 3, 7, n] {
                    configs.push(SteadyOptions {
                        blocks: Some(blocks),
                        ..base
                    });
                }
                for spare in [0, slice_bytes / 3, 2 * slice_bytes] {
                    configs.push(SteadyOptions {
                        mem_budget: Some(floor + spare),
                        ..base
                    });
                }
                let mut first: Option<(Vec<f64>, usize)> = None;
                for opts in configs {
                    let expected = reference(src.as_ref(), &opts);
                    let got = match steady_state(src.as_ref(), &opts) {
                        Ok(PlanOutcome::Exact(r)) => Ok(r),
                        Ok(PlanOutcome::NeedsBounds { .. }) => panic!("admitting budget"),
                        Err(e) => Err(e),
                    };
                    let ctx = format!("n = {n}, {opts:?}");
                    match (got, expected) {
                        (Ok(r), Ok((pi, iterations, residual, block_res))) => {
                            let bits =
                                |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                            assert_eq!(bits(&r.pi), bits(&pi), "{ctx}");
                            assert_eq!(r.iterations, iterations, "{ctx}");
                            assert_eq!(r.residual.to_bits(), residual.to_bits(), "{ctx}");
                            assert_eq!(bits(&r.block_residuals), bits(&block_res), "{ctx}");
                            let first = first.get_or_insert_with(|| (pi.clone(), iterations));
                            assert_eq!(bits(&first.0), bits(&pi), "{ctx}: block-dependent");
                            assert_eq!(first.1, iterations, "{ctx}: block-dependent");
                            compared += 1;
                        }
                        (Err(got), Err(expected)) => {
                            let collapsed = expected.to_string().contains("collapsed");
                            assert_eq!(got.to_string().contains("collapsed"), collapsed, "{ctx}");
                        }
                        (got, expected) => {
                            panic!(
                                "{ctx}: kernel {got:?}, reference {:?}",
                                expected.map(|e| e.1)
                            )
                        }
                    }
                }
            }
        }
        // 264 of the 312 solves converge; the rest fail alike.
        assert!(compared >= 250, "only {compared} solves converged");
    }

    /// With no budget and no explicit block count a solve reads each
    /// row once, in core and streamed; with a budget it reads them
    /// twice, once to plan and once to fill the cached slices.
    #[test]
    fn one_fully_cached_block_reads_the_source_once() {
        let tandem = Tandem { cap: 3 };
        let chain = birth_death(20, 1.0, 1.5);
        for inner in [&tandem as &dyn RowSource, &chain] {
            let n = inner.num_states();
            for method in [SteadyMethod::Sor, SteadyMethod::Power] {
                let src = Counting {
                    inner,
                    rows: Cell::new(0),
                };
                let opts = with(method, 1.0);
                solve_in_core(&src, &opts).unwrap();
                assert_eq!(src.rows.replace(0), n, "in core, {method:?}");
                exact(&src, &opts).unwrap();
                assert_eq!(src.rows.replace(0), n, "streamed, {method:?}");
                let budgeted = SteadyOptions {
                    mem_budget: Some(1 << 30),
                    ..opts
                };
                let r = exact(&src, &budgeted).unwrap();
                assert_eq!(r.plan.unwrap().blocks, 1);
                assert_eq!(src.rows.replace(0), 2 * n, "budget, {method:?}");
            }
        }
    }

    fn birth_death(n: usize, lambda: f64, mu: f64) -> Ctmc {
        let mut b = CtmcBuilder::new();
        let ids: Vec<_> = (0..n).map(|i| b.state(&format!("s{i}"))).collect();
        for i in 0..n - 1 {
            b.transition(ids[i], ids[i + 1], lambda).unwrap();
            b.transition(ids[i + 1], ids[i], mu).unwrap();
        }
        b.build().unwrap()
    }

    fn exact(src: &dyn RowSource, opts: &SteadyOptions) -> Result<SteadyReport> {
        match steady_state(src, opts)? {
            PlanOutcome::Exact(report) => Ok(report),
            PlanOutcome::NeedsBounds { .. } => panic!("the budget admits the model"),
        }
    }

    fn with(method: SteadyMethod, relaxation: f64) -> SteadyOptions {
        SteadyOptions {
            iterative: IterativeOptions {
                relaxation,
                ..Default::default()
            },
            method,
            ..Default::default()
        }
    }

    #[test]
    fn sor_matches_gth_and_in_core_sor_bitwise() {
        let c = birth_death(40, 1.0, 2.5);
        let gth = gth_steady_state(&c.generator_dense()).unwrap();
        let streamed = exact(&c, &with(SteadyMethod::Sor, 1.0)).unwrap();
        assert_eq!(streamed.method, "stream-sor");
        for (i, (p, e)) in streamed.pi.iter().zip(&gth).enumerate() {
            assert!((p - e).abs() < 1e-10, "state {i}");
        }
        let in_core = c
            .steady_state_report(&with(SteadyMethod::Sor, 1.0))
            .unwrap();
        assert_eq!(in_core.method, "sor");
        assert_eq!(in_core.pi, streamed.pi);
        assert_eq!(in_core.iterations, streamed.iterations);
        assert_eq!(streamed.block_residuals.len(), 1);
        assert_eq!(streamed.plan.unwrap().cached_blocks, 1);
    }

    #[test]
    fn over_relaxation_converges_to_the_same_vector() {
        let c = birth_death(30, 3.0, 4.0);
        let plain = exact(&c, &with(SteadyMethod::Sor, 1.0)).unwrap();
        let over = exact(&c, &with(SteadyMethod::Sor, 1.2)).unwrap();
        assert!((over.pi.iter().sum::<f64>() - 1.0).abs() < 1e-10);
        for (a, b) in plain.pi.iter().zip(&over.pi) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn power_matches_sor() {
        let c = birth_death(12, 2.0, 3.0);
        let sor = exact(&c, &with(SteadyMethod::Sor, 1.0)).unwrap();
        let power = exact(&c, &with(SteadyMethod::Power, 1.0)).unwrap();
        assert_eq!(power.method, "stream-power");
        for i in 0..12 {
            assert!((sor.pi[i] - power.pi[i]).abs() < 1e-8, "state {i}");
        }
    }

    #[test]
    fn results_are_bitwise_identical_at_any_block_count_and_budget() {
        let c = birth_death(53, 1.7, 2.2);
        for method in [SteadyMethod::Sor, SteadyMethod::Power] {
            let reference = exact(&c, &with(method, 1.0)).unwrap();
            for blocks in [2, 3, 7, 16, 53, 200] {
                let r = exact(
                    &c,
                    &SteadyOptions {
                        blocks: Some(blocks),
                        ..with(method, 1.0)
                    },
                )
                .unwrap();
                assert_eq!(r.pi, reference.pi, "{method:?}, blocks = {blocks}");
                assert_eq!(r.iterations, reference.iterations);
            }
            let floor = RowSource::resident_bytes(&c) + 3 * 8 * 53;
            for extra in [0, 100, 1000, 1 << 20] {
                let r = exact(
                    &c,
                    &SteadyOptions {
                        mem_budget: Some(floor + extra),
                        ..with(method, 1.0)
                    },
                )
                .unwrap();
                assert_eq!(r.pi, reference.pi, "{method:?}, budget = floor + {extra}");
            }
        }
    }

    #[test]
    fn hopeless_budget_needs_bounds_after_one_read() {
        let c = birth_death(30, 1.0, 1.9);
        let opts = SteadyOptions {
            mem_budget: Some(16),
            ..with(SteadyMethod::Sor, 1.0)
        };
        match steady_state(&c, &opts).unwrap() {
            PlanOutcome::NeedsBounds { required, budget } => {
                assert_eq!(budget, 16);
                assert_eq!(required, RowSource::resident_bytes(&c) + 2 * 8 * 30);
            }
            PlanOutcome::Exact(_) => panic!("16 bytes cannot hold the vectors"),
        }
    }

    /// `Auto` picks GTH at ≤ 512 states and SOR above, by the state
    /// count; GTH over a row source is the resident chain's GTH bit for
    /// bit. A budget only decides whether GTH fits: its floor is the
    /// source plus `20(n² + n)` bytes. Below it `Auto` runs SOR, as an
    /// explicit `sor` under that budget does, while an explicit `gth`
    /// is planned the same way and needs bounds rather than being
    /// refused; below SOR's floor `Auto` needs bounds too.
    #[test]
    fn gth_runs_from_any_entry_and_a_budget_only_admits_it() {
        let mut rng = Rng(0x6774_6873);
        let mut chains = vec![birth_death(40, 1.0, 2.5), birth_death(512, 1.0, 1.5)];
        for case in 0..8 {
            let n = 2 + rng.below(60);
            chains.push(random_chain(&mut rng, n, (case % 2 == 1).then_some(2)));
        }
        for c in &chains {
            let n = c.num_states();
            let in_core = c.steady_state_report(&SteadyOptions::default()).unwrap();
            assert_eq!(in_core.method, "gth");
            let floor = RowSource::resident_bytes(c) + 20 * (n * n + n);
            for (method, budget) in [
                (SteadyMethod::Auto, None),
                (SteadyMethod::Gth, None),
                (SteadyMethod::Auto, Some(floor)),
                (SteadyMethod::Gth, Some(1 << 30)),
            ] {
                let opts = SteadyOptions {
                    method,
                    mem_budget: budget,
                    ..Default::default()
                };
                let r = exact(c, &opts).unwrap();
                assert_eq!(r.method, "gth", "n = {n}, {opts:?}");
                assert_eq!(r.iterations, n);
                assert!(r.plan.is_none());
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&r.pi), bits(&in_core.pi), "n = {n}, {opts:?}");
            }
            let within = |method, budget| SteadyOptions {
                method,
                mem_budget: Some(budget),
                ..Default::default()
            };
            let auto = exact(c, &within(SteadyMethod::Auto, floor - 1)).unwrap();
            assert_eq!(auto.method, "stream-sor", "n = {n}");
            let sor = exact(c, &within(SteadyMethod::Sor, floor - 1)).unwrap();
            assert_eq!(auto.pi, sor.pi, "n = {n}");
            assert_eq!(
                steady_state(c, &within(SteadyMethod::Gth, floor - 1)).unwrap(),
                PlanOutcome::NeedsBounds {
                    required: floor,
                    budget: floor - 1
                }
            );
            let sor_floor = RowSource::resident_bytes(c) + 16 * n;
            assert_eq!(
                steady_state(c, &within(SteadyMethod::Auto, sor_floor - 1)).unwrap(),
                PlanOutcome::NeedsBounds {
                    required: sor_floor,
                    budget: sor_floor - 1
                }
            );
        }
        let large = birth_death(513, 1.0, 2.0);
        let r = exact(&large, &SteadyOptions::default()).unwrap();
        assert_eq!(r.method, "stream-sor");
        let explicit = exact(&large, &with(SteadyMethod::Sor, 1.0)).unwrap();
        assert_eq!(r.pi, explicit.pi);
    }

    /// A row-source failure during GTH's reads is the solve's error.
    #[test]
    fn gth_returns_a_row_source_error() {
        struct Failing;
        impl RowSource for Failing {
            fn num_states(&self) -> usize {
                3
            }
            fn row(&self, i: u32, out: &mut Vec<(u32, f64)>) -> Result<f64> {
                if i == 2 {
                    return Err(Error::model("row 2 cannot be regenerated"));
                }
                *out = vec![((i + 1) % 3, 1.0)];
                Ok(1.0)
            }
            fn resident_bytes(&self) -> usize {
                0
            }
        }
        let err = steady_state(&Failing, &SteadyOptions::default()).unwrap_err();
        assert_eq!(err, Error::model("row 2 cannot be regenerated"));
    }

    #[test]
    fn bad_options_are_rejected() {
        let c = birth_death(3, 1.0, 1.0);
        for opts in [
            SteadyOptions {
                iterative: IterativeOptions {
                    tolerance: 0.0,
                    ..Default::default()
                },
                ..Default::default()
            },
            with(SteadyMethod::Sor, 2.0),
            SteadyOptions {
                blocks: Some(0),
                ..Default::default()
            },
        ] {
            assert!(steady_state(&c, &opts).is_err(), "{opts:?}");
        }
        let zero_budget = IterativeOptions {
            max_iterations: 0,
            ..Default::default()
        };
        for method in [SteadyMethod::Sor, SteadyMethod::Power] {
            let opts = SteadyOptions {
                iterative: zero_budget,
                ..with(method, 1.0)
            };
            assert!(c.steady_state_report(&opts).is_err());
        }
    }

    #[test]
    fn absorbing_state_is_a_non_negative_diagonal() {
        let mut b = CtmcBuilder::new();
        let a = b.state("a");
        let sink = b.state("sink");
        b.transition(a, sink, 1.0).unwrap();
        let c = b.build().unwrap();
        let err = exact(&c, &with(SteadyMethod::Sor, 1.0)).unwrap_err();
        assert!(err.to_string().contains("must be negative"), "{err}");
        assert!(c
            .steady_state_report(&with(SteadyMethod::Sor, 1.0))
            .is_err());
    }

    #[test]
    fn over_relaxation_can_collapse_the_iterate() {
        // ω near 2 on a lopsided chain drives the iterate negative.
        let mut b = CtmcBuilder::new();
        let (x, y) = (b.state("x"), b.state("y"));
        b.transition(x, y, 1.0).unwrap();
        b.transition(y, x, 0.01).unwrap();
        let c = b.build().unwrap();
        let err = exact(&c, &with(SteadyMethod::Sor, 1.99)).unwrap_err();
        assert!(err.to_string().contains("collapsed"), "{err}");
    }

    #[test]
    fn iteration_budget_exhaustion_reports_convergence_error() {
        let c = birth_death(40, 1.0, 1.01);
        for method in [SteadyMethod::Sor, SteadyMethod::Power] {
            let opts = SteadyOptions {
                iterative: IterativeOptions {
                    max_iterations: 2,
                    tolerance: 1e-15,
                    relaxation: 1.0,
                },
                method,
                ..Default::default()
            };
            let err = exact(&c, &opts).unwrap_err();
            assert!(
                matches!(err, Error::Convergence { iterations: 2, .. }),
                "{err}"
            );
        }
    }
}
