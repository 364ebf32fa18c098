//! The one iterative steady-state kernel: block-partitioned
//! Gauss–Seidel/SOR and power iteration over a [`RowSource`].
//!
//! The generator is consumed column-block by column-block: each block's
//! **column slice** — the arcs whose *target* lies in the block, listed
//! in row-scan order and stably sorted by target — is either cached
//! across sweeps or recomputed from the row source every sweep,
//! whichever the memory plan allows. The sweep itself always walks
//! states in global order and consumes each column's entries in the
//! same (row-scan) sequence regardless of where block boundaries fall,
//! so the iterates — and therefore the result — are **bitwise
//! identical** at any block count and any admitting memory budget.
//! Caching is purely a wall-time decision.
//!
//! A materialized [`crate::Ctmc`] runs here as one fully cached block:
//! its column slice is the generator's transpose, read in the order the
//! CSR transpose would list it, so in-core SOR keeps its bits.

use crate::plan::{
    plan_steady, IterativeOptions, MemoryPlan, PlanOutcome, StreamMethod, StreamOptions,
};
use crate::source::{scan_rates, RateScan, RowSource};
use crate::SteadyReport;
use reliab_core::{Error, Result};
use reliab_obs as obs;

/// The trace layer a solve reports under: a materialized chain's
/// `markov.*` names or the streamed tier's `stream.*` names.
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

/// One block's column slice: `(j_local, source_state, rate)` — the arcs
/// targeting the block, grouped by local target. Entries of one column
/// appear in the row-scan order of the source, which is the invariant
/// the bitwise block-independence guarantee rests on.
type Slice = Vec<(u32, u32, f64)>;

/// Solves `π Q = 0`, `Σ π = 1` over a row source under the options'
/// memory budget — the entry point of the streamed tier, reporting
/// under the `stream.*` trace names. The source is read once to plan
/// the solve; a budget below the exact floor comes back as
/// [`PlanOutcome::NeedsBounds`] without further reads, for the caller
/// to escalate to aggregation bounds.
///
/// # Errors
///
/// * [`Error::InvalidParameter`] — bad options or a non-ergodic
///   diagonal (SOR).
/// * [`Error::Convergence`] — iteration budget exhausted.
/// * [`Error::Model`] — the source breaks the [`RowSource`] contract;
///   row-source errors propagate.
pub fn steady_state(
    src: &dyn RowSource,
    opts: &StreamOptions,
) -> Result<PlanOutcome<SteadyReport>> {
    opts.validate()?;
    let _span = obs::span("stream.steady");
    let scan = {
        let _span = obs::span("stream.scan");
        scan_rates(src)?
    };
    obs::event(
        "stream.scan.done",
        &[
            ("states", src.num_states().into()),
            ("arcs", scan.arcs.into()),
            ("max_row", scan.max_row.into()),
        ],
    );
    let outcome = solve(src, &scan, opts, Layer::Stream)?;
    if let PlanOutcome::Exact(report) = &outcome {
        obs::counter_add("stream.steady.solves", 1);
        obs::counter_add("stream.steady.iterations", report.iterations as u64);
    }
    Ok(outcome)
}

/// Solves a materialized chain: no budget, so one fully cached block,
/// reporting under the `markov.*` trace names.
pub(crate) fn solve_in_core(src: &dyn RowSource, opts: &StreamOptions) -> Result<SteadyReport> {
    opts.validate()?;
    match solve(src, &scan_rates(src)?, opts, Layer::Markov)? {
        PlanOutcome::Exact(report) => Ok(report),
        PlanOutcome::NeedsBounds { .. } => unreachable!("no budget always plans an exact solve"),
    }
}

/// Plans a solve from a finished scan and runs it.
fn solve(
    src: &dyn RowSource,
    scan: &RateScan,
    opts: &StreamOptions,
    layer: Layer,
) -> Result<PlanOutcome<SteadyReport>> {
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
    let mut cached = vec![Vec::new(); cached_prefix(&plan)];
    if !cached.is_empty() {
        build_slices(src, bs, 0, &mut cached, &mut Vec::new())?;
    }
    plan.cached_blocks = cached.len();
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
        layer,
    };
    let report = match opts.method {
        StreamMethod::Auto | StreamMethod::Sor => sweep.sor(&opts.iterative),
        StreamMethod::Power => sweep.power(&opts.iterative, scan.q),
    }?;
    Ok(PlanOutcome::Exact(report))
}

/// Collects, in one scan of the source, the column slices of the
/// blocks `first..first + out.len()`: each block's arcs in row-scan
/// order, then stably sorted by local target. A slice built twice is
/// byte-identical, so cached and recomputed blocks sweep alike.
fn build_slices(
    src: &dyn RowSource,
    bs: usize,
    first: usize,
    out: &mut [Slice],
    row: &mut Vec<(u32, f64)>,
) -> Result<()> {
    for slice in out.iter_mut() {
        slice.clear();
    }
    for i in 0..src.num_states() {
        src.row(i as u32, row)?;
        for &(j, r) in row.iter() {
            let b = j as usize / bs;
            if let Some(slice) = b.checked_sub(first).and_then(|k| out.get_mut(k)) {
                slice.push((j - (b * bs) as u32, i as u32, r));
            }
        }
    }
    for slice in out.iter_mut() {
        slice.sort_by_key(|t| t.0);
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

/// One planned solve: the source, its exit rates and the slices of the
/// leading blocks the plan caches.
struct Sweep<'a> {
    src: &'a dyn RowSource,
    exit: &'a [f64],
    plan: MemoryPlan,
    bs: usize,
    cached: Vec<Slice>,
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
        for b in 0..self.plan.blocks {
            let lo = b * self.bs;
            let hi = (lo + self.bs).min(self.plan.states);
            let slice = match self.cached.get(b) {
                Some(slice) => slice,
                None => {
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
        let mut scratch: Slice = Vec::new();
        let mut row: Vec<(u32, f64)> = Vec::new();
        for iter in 0..max_iterations {
            let mut max_change = 0.0f64;
            let mut max_val = 0.0f64;
            self.for_each_block(&mut scratch, &mut row, &mut |b, lo, hi, slice| {
                let mut cursor = 0usize;
                let mut block_change = 0.0f64;
                for j in lo..hi {
                    let jl = (j - lo) as u32;
                    // pi_j_new = (sum_{i != j} pi_i q_ij) / (-q_jj), the
                    // partial sum consuming column j's entries in the
                    // blocking-independent row-scan order.
                    let mut acc = 0.0;
                    while cursor < slice.len() && slice[cursor].0 == jl {
                        let (_, i, r) = slice[cursor];
                        acc += pi[i as usize] * r;
                        cursor += 1;
                    }
                    let new = acc / self.exit[j];
                    let relaxed = omega * new + (1.0 - omega) * pi[j];
                    let change = (relaxed - pi[j]).abs();
                    max_change = max_change.max(change);
                    block_change = block_change.max(change);
                    pi[j] = relaxed;
                    max_val = max_val.max(relaxed.abs());
                }
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
        let mut scratch: Slice = Vec::new();
        let mut row: Vec<(u32, f64)> = Vec::new();
        for iter in 0..max_iterations {
            // next = pi · P, assembled per column block (column sums
            // are blocking-independent).
            self.for_each_block(&mut scratch, &mut row, &mut |_, lo, hi, slice| {
                let mut cursor = 0usize;
                for (j, nj) in next.iter_mut().enumerate().take(hi).skip(lo) {
                    let jl = (j - lo) as u32;
                    let mut acc = 0.0;
                    while cursor < slice.len() && slice[cursor].0 == jl {
                        let (_, i, r) = slice[cursor];
                        acc += pi[i as usize] * r;
                        cursor += 1;
                    }
                    *nj = pi[j] * (1.0 - self.exit[j] / q) + acc / q;
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
    use crate::{Ctmc, CtmcBuilder, SteadyStateMethod};
    use reliab_numeric::gth_steady_state;

    fn birth_death(n: usize, lambda: f64, mu: f64) -> Ctmc {
        let mut b = CtmcBuilder::new();
        let ids: Vec<_> = (0..n).map(|i| b.state(&format!("s{i}"))).collect();
        for i in 0..n - 1 {
            b.transition(ids[i], ids[i + 1], lambda).unwrap();
            b.transition(ids[i + 1], ids[i], mu).unwrap();
        }
        b.build().unwrap()
    }

    fn exact(src: &dyn RowSource, opts: &StreamOptions) -> Result<SteadyReport> {
        match steady_state(src, opts)? {
            PlanOutcome::Exact(report) => Ok(report),
            PlanOutcome::NeedsBounds { .. } => panic!("the budget admits the model"),
        }
    }

    fn with(method: StreamMethod, relaxation: f64) -> StreamOptions {
        StreamOptions {
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
        let streamed = exact(&c, &StreamOptions::default()).unwrap();
        assert_eq!(streamed.method, "stream-sor");
        for (i, (p, e)) in streamed.pi.iter().zip(&gth).enumerate() {
            assert!((p - e).abs() < 1e-10, "state {i}");
        }
        let in_core = c
            .steady_state_report(&SteadyStateMethod::Sor(Default::default()))
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
        let plain = exact(&c, &StreamOptions::default()).unwrap();
        let over = exact(&c, &with(StreamMethod::Sor, 1.2)).unwrap();
        assert!((over.pi.iter().sum::<f64>() - 1.0).abs() < 1e-10);
        for (a, b) in plain.pi.iter().zip(&over.pi) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn power_matches_sor() {
        let c = birth_death(12, 2.0, 3.0);
        let sor = exact(&c, &StreamOptions::default()).unwrap();
        let power = exact(&c, &with(StreamMethod::Power, 1.0)).unwrap();
        assert_eq!(power.method, "stream-power");
        for i in 0..12 {
            assert!((sor.pi[i] - power.pi[i]).abs() < 1e-8, "state {i}");
        }
    }

    #[test]
    fn results_are_bitwise_identical_at_any_block_count_and_budget() {
        let c = birth_death(53, 1.7, 2.2);
        for method in [StreamMethod::Sor, StreamMethod::Power] {
            let reference = exact(&c, &with(method, 1.0)).unwrap();
            for blocks in [2, 3, 7, 16, 53, 200] {
                let r = exact(
                    &c,
                    &StreamOptions {
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
                    &StreamOptions {
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
        let opts = StreamOptions {
            mem_budget: Some(16),
            ..Default::default()
        };
        match steady_state(&c, &opts).unwrap() {
            PlanOutcome::NeedsBounds { required, budget } => {
                assert_eq!(budget, 16);
                assert_eq!(required, RowSource::resident_bytes(&c) + 2 * 8 * 30);
            }
            PlanOutcome::Exact(_) => panic!("16 bytes cannot hold the vectors"),
        }
    }

    #[test]
    fn bad_options_are_rejected() {
        let c = birth_death(3, 1.0, 1.0);
        for opts in [
            StreamOptions {
                iterative: IterativeOptions {
                    tolerance: 0.0,
                    ..Default::default()
                },
                ..Default::default()
            },
            with(StreamMethod::Sor, 2.0),
            StreamOptions {
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
        for method in [
            SteadyStateMethod::Sor(zero_budget),
            SteadyStateMethod::Power(zero_budget),
        ] {
            assert!(c.steady_state_report(&method).is_err());
        }
    }

    #[test]
    fn absorbing_state_is_a_non_negative_diagonal() {
        let mut b = CtmcBuilder::new();
        let a = b.state("a");
        let sink = b.state("sink");
        b.transition(a, sink, 1.0).unwrap();
        let c = b.build().unwrap();
        let err = exact(&c, &StreamOptions::default()).unwrap_err();
        assert!(err.to_string().contains("must be negative"), "{err}");
        assert!(c
            .steady_state_report(&SteadyStateMethod::Sor(Default::default()))
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
        let err = exact(&c, &with(StreamMethod::Sor, 1.99)).unwrap_err();
        assert!(err.to_string().contains("collapsed"), "{err}");
    }

    #[test]
    fn iteration_budget_exhaustion_reports_convergence_error() {
        let c = birth_death(40, 1.0, 1.01);
        for method in [StreamMethod::Sor, StreamMethod::Power] {
            let opts = StreamOptions {
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
