//! # reliab-bench
//!
//! Shared model constructors for the experiment-regeneration binary
//! (`repro`) and the Criterion benches. Every table and figure of the
//! tutorial reconstruction (E1–E14, see `EXPERIMENTS.md`) can be
//! regenerated with
//!
//! ```text
//! cargo run -p reliab-bench --bin repro            # all experiments
//! cargo run -p reliab-bench --bin repro -- e4 e9   # a subset
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod legacy_bdd;
pub mod legacy_reach;

use reliab_core::Result;
use reliab_ftree::{Block, FaultTree, FaultTreeBuilder, FtNode, Rbd, RbdBuilder, VariableOrdering};
use reliab_markov::{Ctmc, CtmcBuilder, StateId};
use reliab_spn::{Spn, SpnBuilder};

/// Builds a heterogeneous series-of-parallel-pairs RBD with `n` pairs
/// (`2n` components): the E14 scaling family. Component availabilities
/// vary per pair so the CTMC cannot be lumped.
///
/// # Errors
///
/// Propagates RBD construction errors.
pub fn scaling_rbd(n_pairs: usize) -> Result<(Rbd, Vec<f64>)> {
    let mut b = RbdBuilder::new();
    let mut blocks = Vec::with_capacity(n_pairs);
    let mut avail = Vec::with_capacity(2 * n_pairs);
    for i in 0..n_pairs {
        let c1 = b.component(&format!("pair{i}-a"));
        let c2 = b.component(&format!("pair{i}-b"));
        blocks.push(Block::parallel_of(&[c1, c2]));
        let a = 0.95 + 0.04 * (i as f64 / n_pairs.max(1) as f64);
        avail.push(a);
        avail.push(a - 0.01);
    }
    Ok((b.build(Block::series(blocks))?, avail))
}

/// The same system as a flat CTMC: each of the `2n` components fails
/// and repairs independently (rates derived from the availabilities
/// with a fixed repair rate), and the state is the full up/down
/// vector — `4^n` states, the state-space explosion of E14.
///
/// Returns the chain and its "system up" states.
///
/// # Errors
///
/// Propagates CTMC construction errors.
pub fn scaling_ctmc(n_pairs: usize) -> Result<(Ctmc, Vec<StateId>)> {
    let (_, avail) = scaling_rbd(n_pairs)?;
    let n_comp = 2 * n_pairs;
    let mu = 1.0f64;
    let lambdas: Vec<f64> = avail.iter().map(|a| mu * (1.0 - a) / a).collect();
    let mut b = CtmcBuilder::new();
    let n_states = 1usize << n_comp;
    let ids: Vec<StateId> = (0..n_states).map(|s| b.state(&format!("s{s:b}"))).collect();
    for s in 0..n_states {
        for (c, &lambda) in lambdas.iter().enumerate() {
            let bit = 1usize << c;
            if s & bit == 0 {
                // component c up: may fail
                b.transition(ids[s], ids[s | bit], lambda)?;
            } else {
                b.transition(ids[s], ids[s & !bit], mu)?;
            }
        }
    }
    // Up: every pair has at least one up component (bit clear = up).
    let up: Vec<StateId> = (0..n_states)
        .filter(|s| {
            (0..n_pairs).all(|p| {
                let a = 1usize << (2 * p);
                let bb = 1usize << (2 * p + 1);
                (s & a == 0) || (s & bb == 0)
            })
        })
        .map(|s| ids[s])
        .collect();
    Ok((b.build()?, up))
}

/// Builds the interleaved fault tree used for the BDD
/// variable-ordering ablation: OR of `n` AND pairs whose events are
/// declared in an ordering-hostile interleaved order.
///
/// # Errors
///
/// Propagates construction errors.
pub fn ordering_ablation_tree(n: usize, ordering: VariableOrdering) -> Result<FaultTree> {
    let mut b = FaultTreeBuilder::new();
    let a: Vec<_> = (0..n).map(|i| b.basic_event(&format!("a{i}"))).collect();
    let c: Vec<_> = (0..n).map(|i| b.basic_event(&format!("b{i}"))).collect();
    let top = FtNode::or((0..n).map(|i| FtNode::and_of(&[a[i], c[i]])).collect());
    b.build_with_ordering(top, ordering)
}

/// Builds the large synthetic "aircraft-class" fault tree used by the
/// BDD kernel benches: `units` line-replaceable units, each the OR of
/// five redundant component pairs (AND) and two simplex components
/// (12 basic events per unit); units group into 10-unit subsystems
/// tripped by 2-of-10 voting, and the top event is the OR of the
/// subsystems. At `units = 900` the tree has 10 800 basic events —
/// the scale at which kernel-level table/cache/GC behavior dominates.
///
/// Event probabilities are deterministic (a fixed multiplicative hash
/// of the event index spread over `[1e-4, 1.1e-3)`), so every build is
/// reproducible without a random-number dependency.
///
/// Returns the builder (events declared), the top gate, and the
/// per-event probability vector.
pub fn boeing_class_tree(units: usize) -> (FaultTreeBuilder, FtNode, Vec<f64>) {
    let mut b = FaultTreeBuilder::new();
    let mut probs = Vec::with_capacity(units * 12);
    let p_next = |probs: &mut Vec<f64>| {
        let j = probs.len() as u64;
        probs.push(1e-4 + 1e-3 * ((j.wrapping_mul(2654435761) % 997) as f64 / 997.0));
    };
    let mut unit_nodes = Vec::with_capacity(units);
    for u in 0..units {
        let mut inputs = Vec::with_capacity(7);
        for i in 0..5 {
            let a = b.basic_event(&format!("u{u}p{i}a"));
            let c = b.basic_event(&format!("u{u}p{i}b"));
            p_next(&mut probs);
            p_next(&mut probs);
            inputs.push(FtNode::and_of(&[a, c]));
        }
        for s in 0..2 {
            let e = b.basic_event(&format!("u{u}s{s}"));
            p_next(&mut probs);
            inputs.push(e.into());
        }
        unit_nodes.push(FtNode::or(inputs));
    }
    let subsystems: Vec<FtNode> = unit_nodes
        .chunks(10)
        .map(|chunk| {
            if chunk.len() >= 2 {
                FtNode::KOfN {
                    k: 2,
                    inputs: chunk.to_vec(),
                }
            } else {
                chunk[0].clone()
            }
        })
        .collect();
    let top = if subsystems.len() == 1 {
        subsystems.into_iter().next().expect("at least one unit")
    } else {
        FtNode::or(subsystems)
    };
    (b, top, probs)
}

/// Compiles a fault-tree gate expression on the frozen pre-rework
/// kernel, using declaration ordering (event index = BDD variable).
///
/// The accumulation order mirrors `reliab-ftree`'s compiler exactly, so
/// for a fixed ordering both kernels build the same canonical DAG and
/// produce bitwise-identical probabilities — the equivalence the
/// `bench_bdd` binary asserts before reporting a speedup.
pub fn compile_legacy(bdd: &mut legacy_bdd::Bdd, node: &FtNode) -> legacy_bdd::NodeId {
    match node {
        FtNode::Basic(e) => bdd.var(e.index() as u32).expect("event in range"),
        FtNode::Or(inputs) => {
            let mut acc = legacy_bdd::NodeId::FALSE;
            for i in inputs {
                let x = compile_legacy(bdd, i);
                acc = bdd.or(acc, x);
            }
            acc
        }
        FtNode::And(inputs) => {
            let mut acc = legacy_bdd::NodeId::TRUE;
            for i in inputs {
                let x = compile_legacy(bdd, i);
                acc = bdd.and(acc, x);
            }
            acc
        }
        FtNode::KOfN { k, inputs } => {
            let xs: Vec<legacy_bdd::NodeId> =
                inputs.iter().map(|i| compile_legacy(bdd, i)).collect();
            bdd.at_least_k(&xs, *k)
        }
    }
}

/// Builds the three-stage tandem queueing SPN used by the `reach`
/// benches: arrivals feed stage 1, stage-2 completions pass through an
/// immediate 0.7/0.3 forward/rework routing split, and every stage is
/// capacity-bounded at `capacity` via inhibitor arcs. The routing place
/// is vanishing, so the tangible state space is exactly
/// `(capacity + 1)³` markings — `capacity = 48` gives the ≥10⁵-marking
/// net behind `BENCH_reach.json`.
///
/// # Errors
///
/// Propagates SPN construction errors.
pub fn tandem_spn(capacity: u32) -> Result<Spn> {
    let mut b = SpnBuilder::new();
    let q1 = b.place("stage1", 0);
    let q2 = b.place("stage2", 0);
    let q3 = b.place("stage3", 0);
    let route = b.place("routing", 0);
    let arrive = b.timed("arrive", 1.0);
    b.output_arc(arrive, q1, 1)
        .inhibitor_arc(arrive, q1, capacity);
    let serve1 = b.timed("serve1", 2.0);
    b.input_arc(serve1, q1, 1)
        .output_arc(serve1, q2, 1)
        .inhibitor_arc(serve1, q2, capacity);
    let serve2 = b.timed("serve2", 3.0);
    b.input_arc(serve2, q2, 1).output_arc(serve2, route, 1);
    let forward = b.immediate("forward", 0.7, 0);
    b.input_arc(forward, route, 1)
        .output_arc(forward, q3, 1)
        .inhibitor_arc(forward, q3, capacity);
    let rework = b.immediate("rework", 0.3, 0);
    b.input_arc(rework, route, 1).output_arc(rework, q2, 1);
    let serve3 = b.timed("serve3", 4.0);
    b.input_arc(serve3, q3, 1);
    b.build()
}

/// The same tandem net in the frozen legacy generator's representation
/// (identical place order, so the two generators' marking sets are
/// directly comparable).
pub fn tandem_legacy(capacity: u32) -> legacy_reach::LegacySpn {
    use legacy_reach::{LegacySpn, LegacyTiming, LegacyTransition};
    let (q1, q2, q3, route) = (0usize, 1usize, 2usize, 3usize);
    let timed = |rate: f64,
                 inputs: Vec<(usize, u32)>,
                 outputs: Vec<(usize, u32)>,
                 inhibitors: Vec<(usize, u32)>| LegacyTransition {
        timing: LegacyTiming::Timed(rate),
        inputs,
        outputs,
        inhibitors,
    };
    let immediate = |weight: f64,
                     inputs: Vec<(usize, u32)>,
                     outputs: Vec<(usize, u32)>,
                     inhibitors: Vec<(usize, u32)>| LegacyTransition {
        timing: LegacyTiming::Immediate {
            weight,
            priority: 0,
        },
        inputs,
        outputs,
        inhibitors,
    };
    LegacySpn {
        num_places: 4,
        initial: vec![0, 0, 0, 0],
        transitions: vec![
            timed(1.0, vec![], vec![(q1, 1)], vec![(q1, capacity)]),
            timed(2.0, vec![(q1, 1)], vec![(q2, 1)], vec![(q2, capacity)]),
            timed(3.0, vec![(q2, 1)], vec![(route, 1)], vec![]),
            immediate(0.7, vec![(route, 1)], vec![(q3, 1)], vec![(q3, capacity)]),
            immediate(0.3, vec![(route, 1)], vec![(q2, 1)], vec![]),
            timed(4.0, vec![(q3, 1)], vec![], vec![]),
        ],
    }
}

/// Builds a wide workstation-farm simulator for the DES benches:
/// `n_ws` workstations of which `k` must be up, in series with one
/// file server. Exponential failures, lognormal repairs (cv² = 4) —
/// a non-Markovian system only simulation can solve, sized so each
/// replication generates thousands of events.
///
/// # Panics
///
/// Panics on degenerate parameters (`k > n_ws`); bench-only helper.
pub fn wide_wfs_simulator(n_ws: usize, k: usize) -> reliab_sim::SystemSimulator {
    use reliab_dist::{Exponential, LogNormal};
    assert!(k >= 1 && k <= n_ws, "need 1 <= k <= n_ws");
    let mut sim = reliab_sim::SystemSimulator::new(move |up: &[bool]| {
        up[n_ws] && up[..n_ws].iter().filter(|&&u| u).count() >= k
    });
    for i in 0..n_ws {
        // Spread the failure rates so component streams desynchronize.
        let mttf = 400.0 + 10.0 * i as f64;
        sim.component(
            Box::new(Exponential::new(1.0 / mttf).expect("positive rate")),
            Box::new(LogNormal::from_mean_cv2(5.0, 4.0).expect("valid lognormal")),
        );
    }
    sim.component(
        Box::new(Exponential::new(1.0 / 2000.0).expect("positive rate")),
        Box::new(LogNormal::from_mean_cv2(4.0, 4.0).expect("valid lognormal")),
    );
    sim
}

/// Builds a birth–death CTMC with `n` states (used by solver benches).
///
/// # Errors
///
/// Propagates construction errors.
pub fn birth_death(n: usize, lambda: f64, mu: f64) -> Result<Ctmc> {
    let mut b = CtmcBuilder::new();
    let states: Vec<_> = (0..n).map(|i| b.state(&format!("s{i}"))).collect();
    for w in states.windows(2) {
        b.transition(w[0], w[1], lambda)?;
        b.transition(w[1], w[0], mu)?;
    }
    b.build()
}

/// Detected logical core count, `1` when detection fails. Recorded in
/// every `BENCH_*.json` so readers (and `--check` gating) can tell a
/// real parallel speedup from single-CPU scheduling noise.
#[must_use]
pub fn detected_cpu_cores() -> usize {
    reliab_core::resolve_threads(0)
}

/// Minimum self-reported wall time over `reps` runs of `f` — minimum,
/// not mean, because scheduling noise only ever adds time. The closure
/// times its own measured region so per-rep setup stays off the clock.
pub fn time_min<T>(reps: usize, mut f: impl FnMut() -> (u128, T)) -> (u128, T) {
    let mut best: Option<(u128, T)> = None;
    for _ in 0..reps {
        let (ns, out) = f();
        if best.as_ref().is_none_or(|(b, _)| ns < *b) {
            best = Some((ns, out));
        }
    }
    best.expect("reps > 0")
}

/// Shortest wall time a timed parallel pass may last: below it, thread
/// start-up and scheduling noise swamp the speedup being measured.
const MIN_PASS_SECS: f64 = 0.3;

/// Sequential/parallel pairs a parallel comparison times, interleaved
/// so that slow phases of the host hit both sides alike.
const PARALLEL_REPS: usize = 5;

/// Median, minimum and maximum of repeated wall-time samples, in ns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Median sample (mean of the middle two for an even count).
    pub median: f64,
    /// Fastest sample.
    pub min: f64,
    /// Slowest sample.
    pub max: f64,
}

impl Spread {
    /// The spread of `samples` (at least one).
    ///
    /// # Panics
    ///
    /// Panics on an empty sample list.
    #[must_use]
    pub fn of(samples: &[u128]) -> Spread {
        let mut v: Vec<f64> = samples.iter().map(|&ns| ns as f64).collect();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        assert!(n > 0, "a spread needs samples");
        Spread {
            median: (v[(n - 1) / 2] + v[n / 2]) / 2.0,
            min: v[0],
            max: v[n - 1],
        }
    }

    /// `{"median_ns", "min_ns", "max_ns"}`.
    #[must_use]
    pub fn to_json(self) -> reliab_spec::json::JsonValue {
        use reliab_spec::json::{self, JsonValue};
        json::object(vec![
            ("median_ns", JsonValue::Number(self.median)),
            ("min_ns", JsonValue::Number(self.min)),
            ("max_ns", JsonValue::Number(self.max)),
        ])
    }
}

/// A sequential-versus-parallel timing of one workload: five
/// interleaved pairs of passes, each pass `runs` back-to-back runs, with
/// the parallel side at one worker per detected CPU. On one CPU there
/// is no parallel side to time, and the speedup reads `"unmeasured"`.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelTiming {
    /// Worker threads of the parallel side (the detected CPU count).
    pub workers: usize,
    /// Runs of the workload per timed pass.
    pub runs: usize,
    /// Sequential pass times.
    pub seq: Spread,
    /// Parallel pass times; `None` on one CPU.
    pub par: Option<Spread>,
}

impl ParallelTiming {
    /// Times `run(1)` against `run(workers)` with `workers` = detected
    /// CPUs. One untimed sequential run warms caches and sizes the pass
    /// so that the parallel pass lasts at least 0.3 s even
    /// at a perfect speedup.
    pub fn measure(mut run: impl FnMut(usize)) -> ParallelTiming {
        let workers = detected_cpu_cores();
        let t = std::time::Instant::now();
        run(1);
        let one = t.elapsed().as_secs_f64().max(1e-9);
        let runs = (MIN_PASS_SECS * workers as f64 / one).ceil().max(1.0) as usize;
        let mut pass = |jobs: usize| {
            let t = std::time::Instant::now();
            for _ in 0..runs {
                run(jobs);
            }
            t.elapsed().as_nanos()
        };
        let (mut seq, mut par) = (Vec::new(), Vec::new());
        for _ in 0..PARALLEL_REPS {
            seq.push(pass(1));
            if workers > 1 {
                par.push(pass(workers));
            }
        }
        ParallelTiming {
            workers,
            runs,
            seq: Spread::of(&seq),
            par: (workers > 1).then(|| Spread::of(&par)),
        }
    }

    /// Median sequential over median parallel pass time; `None` on one
    /// CPU.
    #[must_use]
    pub fn speedup(&self) -> Option<f64> {
        self.par.map(|p| self.seq.median / p.median)
    }

    /// One-line summary for a bench's progress output.
    #[must_use]
    pub fn summary(&self) -> String {
        let ms = |x: f64| x / 1e6;
        match (self.par, self.speedup()) {
            (Some(p), Some(s)) => format!(
                "{} runs/pass, seq median {:.1} ms [{:.1}, {:.1}], \
                 {} workers median {:.1} ms [{:.1}, {:.1}]: {s:.2}x",
                self.runs,
                ms(self.seq.median),
                ms(self.seq.min),
                ms(self.seq.max),
                self.workers,
                ms(p.median),
                ms(p.min),
                ms(p.max),
            ),
            _ => format!(
                "{} runs/pass, seq median {:.1} ms; 1 CPU, speedup unmeasured",
                self.runs,
                ms(self.seq.median)
            ),
        }
    }

    /// The record's `parallel` block.
    #[must_use]
    pub fn to_json(&self) -> reliab_spec::json::JsonValue {
        use reliab_spec::json::{self, JsonValue};
        json::object(vec![
            ("workers", JsonValue::Number(self.workers as f64)),
            ("runs_per_pass", JsonValue::Number(self.runs as f64)),
            ("reps", JsonValue::Number(PARALLEL_REPS as f64)),
            ("seq_pass", self.seq.to_json()),
            (
                "par_pass",
                self.par.map_or(JsonValue::Null, Spread::to_json),
            ),
            (
                "speedup",
                self.speedup()
                    .map_or_else(|| "unmeasured".into(), JsonValue::Number),
            ),
        ])
    }

    /// The `--check` gate of the parallel benches: the median
    /// parallel-to-sequential pass ratio must not exceed `factor` times
    /// the ratio in the baseline record at `path`. Machines differ, so
    /// the comparison is relative; a ratio blowing up means the
    /// parallel path stopped scaling. `Ok(None)` when either side ran
    /// on one CPU, where the ratio is not a measurement.
    ///
    /// # Errors
    ///
    /// A message naming the regression, or an unreadable baseline.
    pub fn check(&self, path: &str, factor: f64) -> std::result::Result<Option<String>, String> {
        use reliab_spec::json::{self, JsonValue};
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let v = json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
        let median = |side: &str| {
            json::get_path(&v, &format!("parallel.{side}.median_ns")).and_then(JsonValue::as_f64)
        };
        let (Some(par), Some(base_seq), Some(base_par)) =
            (self.par, median("seq_pass"), median("par_pass"))
        else {
            return Ok(None);
        };
        let base_ratio = base_par / base_seq;
        let ratio = par.median / self.seq.median;
        if ratio > factor * base_ratio {
            Err(format!(
                "par/seq ratio {ratio:.3} exceeds {factor}x baseline ratio {base_ratio:.3}"
            ))
        } else {
            Ok(Some(format!(
                "check ok: par/seq ratio {ratio:.3} within {factor}x of baseline {base_ratio:.3}"
            )))
        }
    }
}

/// Runs `f` once under a freshly installed
/// [`reliab_obs::ProfileSubscriber`] and returns the aggregated
/// per-phase breakdown (name, call count, total/self wall time) as a
/// JSON array for embedding in a `BENCH_*.json` record.
///
/// The pass is untimed: call it after all timed measurements so the
/// tracing overhead stays off the clock. Clears *all* installed
/// subscribers afterwards, so only use it from bench binaries that own
/// the process.
pub fn profiled_phases(f: impl FnOnce()) -> reliab_spec::json::JsonValue {
    use reliab_spec::json::{self, JsonValue};

    let profiler = std::sync::Arc::new(reliab_obs::ProfileSubscriber::new());
    reliab_obs::install_subscriber(profiler.clone());
    f();
    reliab_obs::clear_subscribers();
    let rows = profiler
        .profile()
        .rows
        .into_iter()
        .map(|row| {
            json::object(vec![
                ("phase", row.name.as_str().into()),
                ("count", JsonValue::Number(row.count as f64)),
                ("total_us", JsonValue::Number(row.total_us as f64)),
                ("self_us", JsonValue::Number(row.self_us as f64)),
            ])
        })
        .collect();
    JsonValue::Array(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_family_agrees_between_routes() {
        for n in 1..=4 {
            let (rbd, avail) = scaling_rbd(n).unwrap();
            let a_rbd = rbd.availability(&avail).unwrap();
            let (ctmc, up) = scaling_ctmc(n).unwrap();
            let a_ctmc = ctmc.steady_state_probability_of(&up).unwrap();
            assert!(
                (a_rbd - a_ctmc).abs() < 1e-9,
                "n = {n}: RBD {a_rbd} vs CTMC {a_ctmc}"
            );
        }
    }

    #[test]
    fn ctmc_state_count_explodes() {
        assert_eq!(scaling_ctmc(3).unwrap().0.num_states(), 64);
        assert_eq!(scaling_ctmc(5).unwrap().0.num_states(), 1024);
    }

    #[test]
    fn ordering_ablation_sizes_differ() {
        let decl = ordering_ablation_tree(8, VariableOrdering::Declaration).unwrap();
        let dfs = ordering_ablation_tree(8, VariableOrdering::DepthFirst).unwrap();
        assert!(dfs.bdd_size() < decl.bdd_size());
    }

    #[test]
    fn spread_reads_median_and_extremes() {
        let odd = Spread::of(&[30, 10, 20]);
        assert_eq!((odd.median, odd.min, odd.max), (20.0, 10.0, 30.0));
        assert_eq!(Spread::of(&[4, 1, 3, 2]).median, 2.5);
    }

    #[test]
    fn birth_death_builds() {
        let c = birth_death(50, 1.0, 2.0).unwrap();
        assert_eq!(c.num_states(), 50);
    }

    #[test]
    fn boeing_tree_has_expected_scale() {
        let (_, _, probs) = boeing_class_tree(25);
        assert_eq!(probs.len(), 25 * 12);
        assert!(probs.iter().all(|&p| (1e-4..2e-3).contains(&p)));
    }

    #[test]
    fn tandem_generators_agree() {
        // Both routes on the same net: identical tangible marking sets
        // and matching steady-state measures (state numbering differs,
        // so the comparison goes through sorted markings and a
        // numbering-independent reward).
        let capacity = 3;
        let new = tandem_spn(capacity).unwrap();
        let new_solved = new.solve().unwrap();
        let legacy = tandem_legacy(capacity);
        let legacy_solved = legacy
            .solve_with(&legacy_reach::LegacyReachOptions::default())
            .unwrap();
        let expect = (capacity as usize + 1).pow(3);
        assert_eq!(new_solved.num_markings(), expect);
        assert_eq!(legacy_solved.num_markings(), expect);
        let mut a: Vec<_> = (0..new_solved.num_markings() as u32)
            .map(|i| new_solved.marking(i).to_vec())
            .collect();
        let mut b: Vec<_> = legacy_solved.markings().to_vec();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        let mean_new = new_solved
            .steady_state_expected_reward(|m| f64::from(m[2]))
            .unwrap();
        let pi = legacy_solved.ctmc().steady_state().unwrap();
        let mean_legacy: f64 = legacy_solved
            .markings()
            .iter()
            .zip(&pi)
            .map(|(m, &p)| p * f64::from(m[2]))
            .sum();
        assert!(
            (mean_new - mean_legacy).abs() < 1e-9,
            "stage-3 mean: new {mean_new} vs legacy {mean_legacy}"
        );
        assert!(new_solved.reach_stats().vanishing_eliminated > 0);
    }

    #[test]
    fn legacy_and_new_kernels_agree_bitwise() {
        // Same tree, same declaration ordering: the two kernels build
        // the same canonical DAG, so the probability must be bitwise
        // identical — the equivalence underlying every speedup claim.
        let (b, top, probs) = boeing_class_tree(25);
        let mut legacy = legacy_bdd::Bdd::new(probs.len() as u32);
        let legacy_top = compile_legacy(&mut legacy, &top);
        let q_legacy = legacy.probability(legacy_top, &probs).unwrap();
        let ft = b
            .build_with_ordering(top, VariableOrdering::Declaration)
            .unwrap();
        let q_new = ft.top_event_probability(&probs).unwrap();
        assert_eq!(q_legacy.to_bits(), q_new.to_bits());
        assert!(q_legacy > 0.0 && q_legacy < 1.0);
    }
}
