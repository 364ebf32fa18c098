//! Options and memory planning for the steady-state entries.
//!
//! The planner decides, from the model size and the caller's byte
//! budget, how many column blocks the sweep uses and how much of the
//! slice store may stay cached (the rest is recomputed from the
//! [`crate::RowSource`] every sweep). Planning affects **wall time
//! only** — the sweep follows the global state order whatever the plan
//! says, so results are bitwise identical at any block count and any
//! admitting budget. Without a budget the plan is one fully cached
//! block, which is how a materialized [`crate::Ctmc`] is solved.

use reliab_core::{Error, Result};

/// Options shared by the iterative steady-state methods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterativeOptions {
    /// Convergence tolerance on the iterate change (`∞`-norm; relative
    /// to the iterate's largest entry for SOR, absolute for power).
    pub tolerance: f64,
    /// Sweep / iteration budget.
    pub max_iterations: usize,
    /// SOR relaxation factor in `(0, 2)`; `1.0` is plain Gauss–Seidel.
    pub relaxation: f64,
}

impl Default for IterativeOptions {
    fn default() -> Self {
        IterativeOptions {
            tolerance: 1e-12,
            max_iterations: 20_000,
            relaxation: 1.0,
        }
    }
}

impl IterativeOptions {
    pub(crate) fn validate(&self) -> Result<()> {
        if !(self.tolerance > 0.0 && self.tolerance.is_finite()) {
            return Err(Error::invalid(format!(
                "tolerance must be positive, got {}",
                self.tolerance
            )));
        }
        if self.max_iterations == 0 {
            return Err(Error::invalid("max_iterations must be > 0"));
        }
        if !(self.relaxation > 0.0 && self.relaxation < 2.0) {
            return Err(Error::invalid(format!(
                "SOR relaxation must lie in (0, 2), got {}",
                self.relaxation
            )));
        }
        Ok(())
    }
}

/// Chains at or below this size are solved by GTH under
/// [`SteadyMethod::Auto`]; larger chains use SOR.
pub(crate) const GTH_SIZE_THRESHOLD: usize = 512;

/// Steady-state method of [`SteadyOptions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SteadyMethod {
    /// GTH at or below 512 states, SOR above, by the state count. Under
    /// a memory budget too small for GTH's floor, [`crate::steady_state`]
    /// runs SOR instead, whose floor is far lower; a budget that admits
    /// GTH never moves the choice.
    #[default]
    Auto,
    /// Grassmann–Taksar–Heyman elimination within the chain's
    /// envelope: exact to round-off and subtraction-free.
    Gth,
    /// Gauss–Seidel / SOR sweeps on the generator columns.
    Sor,
    /// Power iteration on the uniformized DTMC `P = I + Q/q`.
    Power,
}

impl SteadyMethod {
    /// The method that runs on a chain of `states` states: `Auto`
    /// resolved, any other method as given.
    pub(crate) fn resolve(self, states: usize) -> SteadyMethod {
        match self {
            SteadyMethod::Auto if states <= GTH_SIZE_THRESHOLD => SteadyMethod::Gth,
            SteadyMethod::Auto => SteadyMethod::Sor,
            method => method,
        }
    }
}

/// Options of the steady-state entries: [`crate::Ctmc::steady_state_report`]
/// and [`crate::steady_state`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SteadyOptions {
    /// Tolerance, sweep budget and relaxation of SOR and power.
    pub iterative: IterativeOptions,
    /// Steady-state method.
    pub method: SteadyMethod,
    /// Total byte budget of [`crate::steady_state`]: row source,
    /// iteration vectors and cached column slices together. `None` means
    /// unlimited: one fully cached block. It plans the reads of a row
    /// source, so a resident chain's entry rejects it.
    pub mem_budget: Option<usize>,
    /// Explicit column-block count for the sweep of
    /// [`crate::steady_state`]; `None` lets the planner derive it from
    /// the budget. Exposed for the block-invariance property tests; a
    /// resident chain's entry rejects it.
    pub blocks: Option<usize>,
}

impl SteadyOptions {
    pub(crate) fn validate(&self) -> Result<()> {
        self.iterative.validate()?;
        if self.blocks == Some(0) {
            return Err(Error::invalid("block count must be > 0"));
        }
        Ok(())
    }

    /// Rejects a memory budget or block count given for a resident
    /// chain, which is solved in memory as one block.
    pub(crate) fn check_resident(&self) -> Result<()> {
        if self.mem_budget.is_some() || self.blocks.is_some() {
            return Err(Error::invalid(
                "a memory budget or block count plans the reads of a row source; \
                 a resident chain is solved in memory as one block",
            ));
        }
        Ok(())
    }

    /// The method that runs over a source of `states` states holding
    /// `source_bytes`: `Auto` resolved by the state count, except that a
    /// budget below GTH's floor turns it to SOR; any other method as
    /// given.
    pub(crate) fn method_for(&self, states: usize, source_bytes: usize) -> SteadyMethod {
        let method = self.method.resolve(states);
        let gth_floor = source_bytes.saturating_add(vector_bytes(SteadyMethod::Gth, states));
        match self.mem_budget {
            Some(budget) if self.method == SteadyMethod::Auto && budget < gth_floor => {
                SteadyMethod::Sor
            }
            _ => method,
        }
    }
}

/// Bytes a method holds besides its row source on a chain of `states`
/// states: `π` and the exit rates, plus one scratch vector for power
/// iteration. GTH holds `π`, its kept rows and its envelope, the last
/// two bounded by the `n²` rates of a full chain at 12 and 8 bytes a
/// rate.
fn vector_bytes(method: SteadyMethod, states: usize) -> usize {
    match method.resolve(states) {
        SteadyMethod::Power => 3 * 8 * states,
        SteadyMethod::Gth => states
            .saturating_mul(states)
            .saturating_add(states)
            .saturating_mul(20),
        SteadyMethod::Auto | SteadyMethod::Sor => 2 * 8 * states,
    }
}

/// Bytes per stored column-slice entry: `(j_local: u32, i: u32, rate: f64)`.
const SLICE_ENTRY_BYTES: u64 = 16;

/// Bytes an iterative solve of [`crate::steady_state`] holds besides its
/// row source when one block caches every column slice: `π`, the exit
/// rates and power iteration's scratch vector (24 bytes a state), and
/// the slices of `arcs` arcs. A budget of the source plus this plans
/// SOR or power as one fully cached block.
#[must_use]
pub fn cached_solve_bytes(states: usize, arcs: usize) -> usize {
    3 * 8 * states + SLICE_ENTRY_BYTES as usize * arcs
}

/// Hard ceiling on the auto-derived block count: beyond this the
/// per-sweep recompute overhead dwarfs any memory saving.
const MAX_AUTO_BLOCKS: usize = 4096;

/// The kernel's memory layout for one solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct MemoryPlan {
    /// Chain size.
    pub states: usize,
    /// Off-diagonal arcs.
    pub arcs: u64,
    /// Column blocks in the sweep.
    pub blocks: usize,
    /// Blocks whose column slice stays cached across sweeps; the
    /// remaining `blocks - cached_blocks` are recomputed from the row
    /// source every sweep. Filled in by the solver once actual slice
    /// sizes are known.
    pub cached_blocks: usize,
    /// Bytes resident in the row source itself.
    pub source_bytes: usize,
    /// Bytes of iteration vectors (`π`, exit rates, scratch).
    pub vector_bytes: usize,
    /// Estimated bytes of the full column-slice store (`arcs · 16`).
    pub slice_bytes: u64,
    /// Bytes available for cached slices after source + vectors.
    pub cache_bytes: u64,
    /// The caller's total budget, if any.
    pub budget: Option<usize>,
}

impl MemoryPlan {
    /// Conservative peak-resident estimate for this plan: source,
    /// vectors, cached slices, and (if any block is recomputed) one
    /// average block of scratch.
    #[must_use]
    pub fn peak_bytes(&self) -> u64 {
        let (cached, scratch) = if self.slice_bytes <= self.cache_bytes {
            (self.slice_bytes, 0)
        } else {
            // Mirror of the solver's prefix-caching policy: cache whole
            // average-sized blocks, keeping one block of headroom as
            // recompute scratch.
            let per_block = (self.slice_bytes / self.blocks.max(1) as u64).max(1);
            let fit = self.cache_bytes.saturating_sub(per_block) / per_block;
            (per_block * fit.min(self.blocks as u64), per_block)
        };
        self.source_bytes as u64 + self.vector_bytes as u64 + cached + scratch
    }
}

/// What a planned solve produced: the exact result, or word that the
/// budget cannot hold even the row source plus the iteration vectors,
/// so the caller should escalate to aggregation bounds.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOutcome<T> {
    /// The budget admits an exact solve.
    Exact(T),
    /// The budget is below the exact floor.
    NeedsBounds {
        /// Minimum bytes an exact solve would need.
        required: usize,
        /// The caller's budget.
        budget: usize,
    },
}

/// Plans a steady-state solve by the options' method, resolved by the
/// state count: the floor is the source plus the method's vectors.
pub(crate) fn plan_steady(
    states: usize,
    arcs: u64,
    source_bytes: usize,
    opts: &SteadyOptions,
) -> PlanOutcome<MemoryPlan> {
    let vector_bytes = vector_bytes(opts.method, states);
    let slice_bytes = arcs * SLICE_ENTRY_BYTES;
    let required = source_bytes.saturating_add(vector_bytes);
    let cache_bytes = match opts.mem_budget {
        None => u64::MAX,
        Some(budget) if budget < required => {
            return PlanOutcome::NeedsBounds { required, budget };
        }
        Some(budget) => (budget - required) as u64,
    };
    let blocks = if let Some(b) = opts.blocks {
        b.min(states.max(1))
    } else if slice_bytes <= cache_bytes {
        1
    } else {
        // Target an average block slice of at most half the spare
        // bytes, so one block can always be recomputed into scratch
        // while another stays cached.
        let target = (cache_bytes / 2).max(1);
        usize::try_from(slice_bytes.div_ceil(target))
            .unwrap_or(MAX_AUTO_BLOCKS)
            .clamp(2, MAX_AUTO_BLOCKS.min(states.max(2)))
    };
    PlanOutcome::Exact(MemoryPlan {
        states,
        arcs,
        blocks,
        cached_blocks: 0,
        source_bytes,
        vector_bytes,
        slice_bytes,
        cache_bytes,
        budget: opts.mem_budget,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(outcome: PlanOutcome<MemoryPlan>) -> MemoryPlan {
        match outcome {
            PlanOutcome::Exact(p) => p,
            PlanOutcome::NeedsBounds { .. } => panic!("expected an exact plan"),
        }
    }

    #[test]
    fn unlimited_budget_is_one_cached_block() {
        let p = exact(plan_steady(1000, 5000, 64_000, &SteadyOptions::default()));
        assert_eq!(p.blocks, 1);
        assert_eq!(p.slice_bytes, 5000 * 16);
        assert!(p.cache_bytes > p.slice_bytes);
    }

    #[test]
    fn tight_budget_partitions_into_blocks() {
        let opts = SteadyOptions {
            // source 0, vectors 2*8*1000 = 16k; slices 80k; budget
            // leaves 24k spare -> ~7 blocks.
            mem_budget: Some(40_000),
            ..Default::default()
        };
        let p = exact(plan_steady(1000, 5000, 0, &opts));
        assert!(p.blocks > 1, "blocks = {}", p.blocks);
        assert!(p.peak_bytes() <= 40_000, "peak = {}", p.peak_bytes());
    }

    #[test]
    fn hopeless_budget_escalates_to_bounds() {
        let opts = SteadyOptions {
            mem_budget: Some(10_000),
            ..Default::default()
        };
        assert_eq!(
            plan_steady(1000, 5000, 0, &opts),
            PlanOutcome::NeedsBounds {
                required: 16_000,
                budget: 10_000
            }
        );
    }

    /// Under a budget below GTH's floor `Auto` runs SOR; a budget that
    /// admits GTH, or an explicit method, keeps the choice.
    #[test]
    fn auto_turns_to_sor_below_the_gth_floor() {
        use SteadyMethod::{Auto, Gth, Power, Sor};
        let opts = |method, mem_budget| SteadyOptions {
            method,
            mem_budget,
            ..Default::default()
        };
        let gth_floor = 100 + 20 * (81 * 81 + 81);
        assert_eq!(opts(Auto, None).method_for(81, 100), Gth);
        assert_eq!(opts(Auto, Some(gth_floor)).method_for(81, 100), Gth);
        assert_eq!(opts(Auto, Some(gth_floor - 1)).method_for(81, 100), Sor);
        assert_eq!(opts(Gth, Some(gth_floor - 1)).method_for(81, 100), Gth);
        assert_eq!(opts(Power, Some(0)).method_for(81, 100), Power);
        assert_eq!(opts(Auto, None).method_for(513, 100), Sor);
    }

    #[test]
    fn explicit_block_count_is_respected_and_clamped() {
        let opts = |blocks| SteadyOptions {
            blocks: Some(blocks),
            ..Default::default()
        };
        assert_eq!(exact(plan_steady(1000, 5000, 0, &opts(7))).blocks, 7);
        assert_eq!(exact(plan_steady(3, 2, 0, &opts(50))).blocks, 3);
    }

    #[test]
    fn options_validate() {
        assert!(SteadyOptions::default().validate().is_ok());
        let iterative = |tolerance, max_iterations, relaxation| SteadyOptions {
            iterative: IterativeOptions {
                tolerance,
                max_iterations,
                relaxation,
            },
            ..Default::default()
        };
        for bad in [
            iterative(0.0, 10, 1.0),
            iterative(f64::NAN, 10, 1.0),
            iterative(1e-9, 0, 1.0),
            iterative(1e-9, 10, 2.0),
            iterative(1e-9, 10, 0.0),
            SteadyOptions {
                blocks: Some(0),
                ..Default::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }
}
