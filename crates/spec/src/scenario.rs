//! Solvers for the scenario-layer model classes: hierarchical
//! compositions, semi-Markov processes, parametric uncertainty, and
//! cut/path-set bounds.
//!
//! These classes wrap or post-process the component solvers in
//! [`crate::convert`]: a hierarchy re-solves its submodels inside a
//! damped fixed-point sweep, an uncertainty wrapper re-solves its inner
//! model once per Monte-Carlo sample, and the bounds class reuses the
//! fault-tree solver for exact probabilities and reads the path sets
//! off the same BDD's dual. Both parallel sweeps (hierarchy submodels,
//! uncertainty samples) split the solve's thread budget by
//! [`Split`], and both are bitwise deterministic at any worker count:
//! hierarchy workers write disjoint result slots, and uncertainty
//! sampling is a pure function of `(seed, sample index)` via
//! counter-based RNG streams.

use crate::convert::{
    availability_from_sum, item_value, lifetime_from, solve_demanded, solve_fault_tree_analytic,
    solve_model, solve_with, Compiled, Demand, SolvedMeasures, DEFAULT_MAX_CUT_SETS,
};
use crate::report::{SolveOptions, SolveStats};
use crate::schema::{
    BoundsSpec, HierarchySpec, ModelSpec, PriorSpec, ScenarioMeasure, SemiMarkovSpec,
    UncertaintySpec,
};
use crate::slot::{write_all, Slot};
use reliab_core::{downtime_minutes_per_year, Error, Result, Split};
use reliab_dist::Lifetime;
use reliab_hier::{fixed_point_observed, FixedPointOptions};
use reliab_obs as obs;
use reliab_semimarkov::{SemiMarkov, SemiMarkovBuilder, SmpStateId};
use reliab_uncert::{propagate_with, rate_posterior, PropagationOptions, SamplingScheme};

/// Extracts the scalar a scenario layer consumes from a solved result.
fn extract_measure(m: &SolvedMeasures, which: ScenarioMeasure, ctx: &str) -> Result<f64> {
    let v = match which {
        ScenarioMeasure::Availability => m.availability(),
        ScenarioMeasure::Unreliability => m.unreliability(),
        ScenarioMeasure::Mttf => m.mttf(),
        ScenarioMeasure::Primary => m.primary_value(),
    };
    v.ok_or_else(|| {
        Error::model(format!(
            "{ctx}: solved '{}' measures carry no {}",
            m.kind(),
            which.as_str()
        ))
    })
}

// ---------------------------------------------------------------------
// Working copies

/// A model a scenario re-solves with new slot values, for the one
/// measure it reads: a working copy of the typed spec, the demand that
/// measure puts on it, and what its first demanded solve compiled. A
/// model without a demanded solve is solved in full each time and the
/// measure read off. Each worker owns its copies, so no solve clones a
/// model or shares one.
struct Working {
    model: ModelSpec,
    measure: ScenarioMeasure,
    demand: Option<Demand>,
    compiled: Option<Compiled>,
    /// Whether a write can change the compiled structure (a k-of-n
    /// `k`), so that each solve compiles again.
    recompile: bool,
    /// Most worker threads any of its solves ran.
    peak_workers: usize,
}

impl Working {
    fn new(model: &ModelSpec, slots: &[&Slot], measure: ScenarioMeasure) -> Working {
        Working {
            model: model.clone(),
            measure,
            demand: Demand::of(model, measure),
            compiled: None,
            recompile: slots.iter().any(|s| s.writes_structure()),
            peak_workers: 1,
        }
    }

    /// Writes `values` through `slots`, reporting a rejected value with
    /// `invalid`, and solves the written model for its measure, which
    /// `ctx` names in an error.
    fn eval(
        &mut self,
        slots: &[&Slot],
        values: &[f64],
        opts: &SolveOptions,
        parent: Option<u64>,
        ctx: &str,
        invalid: impl FnOnce(Error) -> Error,
    ) -> Result<f64> {
        if self.recompile {
            self.compiled = None;
        }
        write_all(&mut self.model, slots, values).map_err(invalid)?;
        match &self.demand {
            Some(demand) if !opts.simulate => {
                solve_demanded(&self.model, demand, &mut self.compiled, opts, parent)
            }
            _ => {
                let report = solve_model(&self.model, opts, parent)?;
                self.peak_workers = self.peak_workers.max(report.stats.workers);
                extract_measure(&report.measures, self.measure, ctx)
            }
        }
    }
}

// ---------------------------------------------------------------------
// Hierarchy

/// A submodel with imports, re-solved once per fixed-point sweep.
struct Dynamic<'a> {
    index: usize,
    ctx: String,
    slots: Vec<&'a Slot>,
    /// Export index each import reads.
    sources: Vec<usize>,
    values: Vec<f64>,
    working: Working,
}

impl Dynamic<'_> {
    /// Solves the submodel at the export vector `x`.
    fn eval(&mut self, x: &[f64], opts: &SolveOptions, parent: Option<u64>) -> Result<f64> {
        for (v, &from) in self.values.iter_mut().zip(&self.sources) {
            *v = x[from];
        }
        let ctx = &self.ctx;
        self.working
            .eval(&self.slots, &self.values, opts, parent, ctx, |e| {
                Error::model(format!("{ctx} became invalid after imports: {e}"))
            })
    }
}

/// Solves a hierarchical composition by damped fixed-point iteration
/// over the submodel export vector.
pub(crate) fn solve_hierarchy(
    spec: &HierarchySpec,
    opts: &SolveOptions,
) -> Result<(SolvedMeasures, SolveStats)> {
    let span = obs::span("spec.solve.hierarchy");
    let n = spec.submodels.len();
    let names: Vec<&str> = spec.submodels.iter().map(|s| s.name.as_str()).collect();
    let index_of = |name: &str| -> usize {
        names
            .iter()
            .position(|n| *n == name)
            .expect("import target validated at parse time")
    };

    let fp_opts = FixedPointOptions::default()
        .with_tolerance(spec.tolerance.unwrap_or(1e-10))
        .with_max_iterations(spec.max_iterations.unwrap_or(10_000))
        .with_damping(spec.damping.unwrap_or(1.0));
    // Import-free submodels export a constant: solve them once up
    // front, one at a time and each with the whole thread budget,
    // instead of once per sweep.
    let dynamic: Vec<usize> = (0..n)
        .filter(|&i| !spec.submodels[i].imports.is_empty())
        .collect();
    let split = Split::new(opts.threads, dynamic.len());
    let workers = split.workers;
    let sweep_opts = opts.clone().with_threads(split.per_item);

    let mut peak_workers = workers;
    let mut fixed: Vec<Option<f64>> = vec![None; n];
    for (slot, sub) in fixed.iter_mut().zip(&spec.submodels) {
        if sub.imports.is_empty() {
            let ctx = format!("hierarchy submodel '{}'", sub.name);
            let report = solve_with(&sub.model, opts)?;
            peak_workers = peak_workers.max(report.stats.workers);
            *slot = Some(extract_measure(&report.measures, sub.measure, &ctx)?);
        }
    }

    // Strided partition: worker w owns dynamic[w], dynamic[w + workers],
    // ... and the working copies of those submodels, for every sweep.
    let mut parts: Vec<Vec<Dynamic>> = (0..workers).map(|_| Vec::new()).collect();
    for (k, &i) in dynamic.iter().enumerate() {
        let sub = &spec.submodels[i];
        let slots: Vec<&Slot> = sub.imports.iter().map(|imp| &imp.slot).collect();
        parts[k % workers].push(Dynamic {
            index: i,
            ctx: format!("hierarchy submodel '{}'", sub.name),
            sources: sub.imports.iter().map(|imp| index_of(&imp.from)).collect(),
            values: vec![0.0; sub.imports.len()],
            working: Working::new(&sub.model, &slots, sub.measure),
            slots,
        });
    }

    let parent = span.id();
    let opts = &sweep_opts;
    let sweep = |x: &[f64]| -> Result<Vec<f64>> {
        let mut out: Vec<f64> = (0..n).map(|i| fixed[i].unwrap_or(0.0)).collect();
        if let [mine] = parts.as_mut_slice() {
            for sub in mine {
                out[sub.index] = sub.eval(x, opts, None)?;
            }
        } else {
            // Disjoint slots, so merge order — and thus the result — is
            // independent of scheduling.
            let trace = obs::current_trace_id();
            let partial: Vec<Result<Vec<(usize, f64)>>> = std::thread::scope(|scope| {
                let handles: Vec<_> = parts
                    .iter_mut()
                    .map(|mine| {
                        scope.spawn(move || {
                            let _trace = obs::set_trace_id(trace);
                            mine.iter_mut()
                                .map(|sub| Ok((sub.index, sub.eval(x, opts, Some(parent))?)))
                                .collect()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("hierarchy worker panicked"))
                    .collect()
            });
            let mut slots: Vec<Option<Result<f64>>> = (0..n).map(|_| None).collect();
            for r in partial {
                match r {
                    Ok(pairs) => {
                        for (i, v) in pairs {
                            slots[i] = Some(Ok(v));
                        }
                    }
                    Err(e) => {
                        // Attribute the error to the first unfilled
                        // dynamic slot so the failing index is
                        // deterministic.
                        for &i in &dynamic {
                            if slots[i].is_none() {
                                slots[i] = Some(Err(e));
                                break;
                            }
                        }
                    }
                }
            }
            for &i in &dynamic {
                match slots[i].take() {
                    Some(Ok(v)) => out[i] = v,
                    Some(Err(e)) => return Err(e),
                    None => return Err(Error::model("hierarchy sweep lost a submodel result")),
                }
            }
        }
        Ok(out)
    };

    let x0: Vec<f64> = spec
        .submodels
        .iter()
        .map(|s| s.initial.unwrap_or(1.0))
        .collect();
    let fp = fixed_point_observed(sweep, x0, &fp_opts, &mut |iter, residual| {
        if obs::trace_enabled() {
            obs::event(
                "hier.iteration",
                &[
                    ("iter", iter.into()),
                    ("residual", residual.into()),
                    ("submodels", n.into()),
                ],
            );
        }
    })?;

    let output = spec
        .output
        .clone()
        .unwrap_or_else(|| names[n - 1].to_owned());
    let out_idx = index_of(&output);
    let residual = fp.residuals.last().copied().unwrap_or(0.0);
    let measures = SolvedMeasures::Hierarchy {
        submodels: names
            .iter()
            .zip(&fp.values)
            .map(|(n, v)| ((*n).to_owned(), *v))
            .collect(),
        output,
        value: fp.values[out_idx],
        iterations: fp.iterations,
        residual,
    };
    let stats = SolveStats {
        workers: parts
            .iter()
            .flatten()
            .fold(peak_workers, |w, sub| w.max(sub.working.peak_workers)),
        iterations: fp.iterations,
        hier_iterations: Some(fp.iterations),
        hier_residual: Some(residual),
        ..SolveStats::default()
    };
    Ok((measures, stats))
}

// ---------------------------------------------------------------------
// Semi-Markov

/// The process a semi-Markov specification describes, and the handle
/// of each state by name.
fn build_smp(spec: &SemiMarkovSpec) -> Result<(SemiMarkov, impl Fn(&str) -> SmpStateId + '_)> {
    let mut builder = SemiMarkovBuilder::new();
    let mut ids: Vec<SmpStateId> = Vec::with_capacity(spec.states.len());
    for s in &spec.states {
        ids.push(builder.state(&s.name, lifetime_from(&s.sojourn)?));
    }
    let id_of = move |name: &str| -> SmpStateId {
        let i = spec
            .states
            .iter()
            .position(|s| s.name == name)
            .expect("state reference validated at parse time");
        ids[i]
    };
    for t in &spec.transitions {
        builder.transition(id_of(&t.from), id_of(&t.to), t.probability)?;
    }
    Ok((builder.build()?, id_of))
}

/// Truncation error of the uniformization behind a semi-Markov
/// interval availability.
const INTERVAL_EPSILON: f64 = 1e-12;

/// Solves a semi-Markov specification: steady state on the embedded
/// chain, first passage, and interval availability on the phase-type
/// expansion.
pub(crate) fn solve_semi_markov(spec: &SemiMarkovSpec) -> Result<(SolvedMeasures, SolveStats)> {
    let _span = obs::span("spec.solve.semi_markov");
    let (smp, id_of) = build_smp(spec)?;

    let pi = smp.steady_state()?;
    let steady_state: Vec<(String, f64)> = spec
        .states
        .iter()
        .zip(&pi)
        .map(|(s, p)| (s.name.clone(), *p))
        .collect();

    let (availability, downtime) = match &spec.up_states {
        Some(ups) => {
            let a =
                availability_from_sum(ups.iter().map(|u| pi[id_of(u).index()]).sum(), ups.len());
            (Some(a), Some(downtime_minutes_per_year(a)?))
        }
        None => (None, None),
    };

    let initial = id_of(spec.initial.as_deref().unwrap_or(&spec.states[0].name));
    let mean_first_passage = match &spec.targets {
        Some(ts) => {
            let targets: Vec<SmpStateId> = ts.iter().map(|t| id_of(t)).collect();
            Some(smp.mean_first_passage(initial, &targets)?)
        }
        None => None,
    };

    let mut stats = SolveStats::default();
    let interval_availability = match &spec.interval_times {
        Some(times) => {
            let Some(ups) = &spec.up_states else {
                return Err(Error::model(
                    "semi_markov 'interval_times' requires 'up_states'",
                ));
            };
            let up_ids: Vec<SmpStateId> = ups.iter().map(|u| id_of(u)).collect();
            let expanded = smp.expand_to_ctmc(initial)?;
            stats.smp_expanded_states = Some(expanded.ctmc.num_states());
            let mut rows = Vec::with_capacity(times.len());
            for &t in times {
                let a = expanded.interval_availability(initial, &up_ids, t, INTERVAL_EPSILON)?;
                rows.push((t, a));
            }
            Some(rows)
        }
        None => None,
    };

    let measures = SolvedMeasures::SemiMarkov {
        steady_state,
        availability,
        downtime_minutes_per_year: downtime,
        mean_first_passage,
        interval_availability,
    };
    Ok((measures, stats))
}

// ---------------------------------------------------------------------
// Uncertainty

/// Solves an uncertainty wrapper: samples the priors and propagates
/// each parameter vector through a full inner-model solve.
pub(crate) fn solve_uncertainty(
    spec: &UncertaintySpec,
    opts: &SolveOptions,
) -> Result<(SolvedMeasures, SolveStats)> {
    let span = obs::span("spec.solve.uncertainty");
    let mut params: Vec<Box<dyn Lifetime>> = Vec::with_capacity(spec.parameters.len());
    for p in &spec.parameters {
        params.push(match &p.prior {
            PriorSpec::Dist(d) => lifetime_from(d)?,
            PriorSpec::Posterior {
                failures,
                total_time,
            } => Box::new(rate_posterior(*failures, *total_time)?),
        });
    }
    let slots: Vec<&Slot> = spec.parameters.iter().map(|p| &p.slot).collect();
    let measure = spec.measure;
    // At least two samples are drawn, so a budget above one always
    // runs several sampler workers, each sample solved on one thread.
    let samples = spec.samples.unwrap_or(1000);
    let split = Split::new(opts.threads, samples);
    let inner = opts.clone().with_threads(split.per_item);

    // The closure runs on the sampler's worker threads, each with its
    // own working copy of the inner model; re-apply the ambient trace id
    // there and nest each sample's solve under this span.
    let trace = obs::current_trace_id();
    let parent = span.id();
    let model = |working: &mut Working, values: &[f64]| -> Result<f64> {
        let _trace = obs::set_trace_id(trace);
        let ctx = "uncertainty inner model";
        working.eval(&slots, values, &inner, Some(parent), ctx, |e| {
            Error::model(format!("{ctx} became invalid after sampling: {e}"))
        })
    };

    let prop_opts = PropagationOptions {
        samples,
        level: spec.level.unwrap_or(0.95),
        seed: spec.seed.unwrap_or(0x5EED),
        threads: split.workers,
        sampling: if spec.latin_hypercube {
            SamplingScheme::LatinHypercube
        } else {
            SamplingScheme::Random
        },
    };
    let r = propagate_with(
        &params,
        || Working::new(&spec.model, &slots, measure),
        model,
        &prop_opts,
    )?;

    let samples = r.samples.len();
    let measures = SolvedMeasures::Uncertainty {
        measure: spec.measure.as_str().to_owned(),
        mean: r.mean,
        std_dev: r.std_dev,
        ci_lower: r.interval.lower,
        ci_upper: r.interval.upper,
        level: r.interval.level,
        samples,
    };
    let stats = SolveStats {
        workers: split.workers,
        iterations: samples,
        uncert_samples: Some(samples),
        ..SolveStats::default()
    };
    Ok((measures, stats))
}

// ---------------------------------------------------------------------
// Bounds

/// Event names, failure probabilities, cut/path index sets, and the
/// exact top probability — the common currency of both bounds forms.
type ResolvedSets = (
    Vec<String>,
    Vec<f64>,
    Vec<Vec<usize>>,
    Vec<Vec<usize>>,
    Option<f64>,
);

/// Maps each named set onto event indices in `names`' order. Set
/// members are validated against the declared events at parse time
/// (explicit form) or emitted by the solver itself (fault-tree form).
fn set_indices(names: &[String], sets: &[Vec<String>]) -> Vec<Vec<usize>> {
    sets.iter()
        .map(|s| {
            s.iter()
                .map(|n| {
                    names
                        .iter()
                        .position(|x| x == n)
                        .expect("set members resolve to declared events")
                })
                .collect()
        })
        .collect()
}

/// Solves a bounds specification: exact SDP/BDD probability plus
/// Esary–Proschan and truncated-enumeration brackets.
pub(crate) fn solve_bounds(spec: &BoundsSpec) -> Result<(SolvedMeasures, SolveStats)> {
    let _span = obs::span("spec.solve.bounds");
    let order = spec.truncation_order.unwrap_or(2);

    // Resolve the event list, failure probabilities, cut/path sets
    // (as index sets), and the exact top probability, from either the
    // explicit form or the inline fault tree.
    let mut stats = SolveStats::default();
    let (names, q, cuts, paths, exact): ResolvedSets;
    match &spec.fault_tree {
        Some(ft) => {
            if ft.sim.is_some() {
                return Err(Error::model(
                    "bounds 'fault_tree' cannot carry a 'sim' block",
                ));
            }
            // The path sets are the dual minimal solutions of the tree
            // the cut sets came from.
            let (m, ft_stats, tree) = solve_fault_tree_analytic(ft)?;
            stats = ft_stats;
            let SolvedMeasures::FaultTree {
                top_event_probability,
                minimal_cut_sets,
                ..
            } = m
            else {
                return Err(Error::model(
                    "fault-tree solve returned unexpected measures",
                ));
            };
            paths = tree
                .minimal_path_sets(ft.max_cut_sets.unwrap_or(DEFAULT_MAX_CUT_SETS))?
                .into_iter()
                .map(|p| p.into_iter().map(reliab_ftree::EventId::index).collect())
                .collect();
            names = ft.events.iter().map(|e| e.name.clone()).collect();
            q = ft
                .events
                .iter()
                .map(|e| item_value(e, reliab_ftree::Polarity::Failure))
                .collect::<Result<_>>()?;
            cuts = set_indices(&names, &minimal_cut_sets);
            exact = Some(top_event_probability);
        }
        None => {
            names = spec.events.iter().map(|e| e.name.clone()).collect();
            q = spec.events.iter().map(|e| e.probability).collect();
            cuts = set_indices(&names, &spec.cut_sets);
            paths = spec
                .path_sets
                .as_deref()
                .map(|sets| set_indices(&names, sets))
                .unwrap_or_default();
            exact = Some(reliab_bounds::union_probability(&cuts, &q, names.len())?);
        }
    }

    // Esary–Proschan brackets system *reliability*; complement to the
    // unreliability this class reports.
    let (ep_lower, ep_upper) = if paths.is_empty() {
        (None, None)
    } else {
        let p_up: Vec<f64> = q.iter().map(|qi| 1.0 - qi).collect();
        let ep = reliab_bounds::ep_reliability_bounds(&paths, &cuts, &p_up)?.complement();
        (Some(ep.lower), Some(ep.upper))
    };

    // Truncated enumeration: pretend only cut sets up to `order` are
    // known and bound the unenumerated tail.
    let known: Vec<Vec<usize>> = cuts.iter().filter(|c| c.len() <= order).cloned().collect();
    let truncated = reliab_bounds::truncated_unreliability_bounds(&known, &q, order)?;

    let measures = SolvedMeasures::Bounds {
        exact,
        ep_lower,
        ep_upper,
        truncated_lower: truncated.lower,
        truncated_upper: truncated.upper,
        truncation_order: order,
        num_cut_sets: cuts.len(),
        num_path_sets: paths.len(),
    };
    stats.bounds_cut_sets = Some(cuts.len());
    stats.bounds_truncation_order = Some(order);
    Ok((measures, stats))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::{extract_measure, Working};
    use crate::convert::{solve_str_with, solve_with, SolvedMeasures};
    use crate::json::{self, JsonValue};
    use crate::report::SolveOptions;
    use crate::schema::{ModelSpec, ScenarioMeasure};
    use crate::slot::{write_all, Slot};
    use reliab_numeric::{expm, DenseMatrix};

    fn run(text: &str) -> crate::convert::SolvedMeasures {
        solve_str_with(text, &SolveOptions::default())
            .expect("spec solves")
            .measures
    }

    #[test]
    fn hierarchy_imports_reach_a_fixed_point() {
        // "disk" exports a constant availability; "sys" is a series RBD
        // whose second component's availability is imported from it.
        // Acyclic, so the fixed point is exact: 0.9 * 0.98.
        let m = run(r#"{"hierarchy": {"submodels": [
                 {"name": "disk",
                  "model": {"rbd": {"components": [{"name": "d", "availability": 0.98}],
                                    "structure": "d"}},
                  "measure": "availability"},
                 {"name": "sys",
                  "model": {"rbd": {"components": [
                              {"name": "front", "availability": 0.9},
                              {"name": "store", "availability": 1.0}],
                            "structure": {"series": ["front", "store"]}}},
                  "measure": "availability",
                  "imports": [{"from": "disk", "path": "rbd.components.1.availability"}]}
               ]}}"#);
        let SolvedMeasures::Hierarchy {
            value,
            output,
            iterations,
            ..
        } = &m
        else {
            panic!("expected hierarchy, got {}", m.kind());
        };
        assert_eq!(output, "sys");
        assert!((value - 0.9 * 0.98).abs() < 1e-12, "value = {value}");
        assert!(*iterations >= 1);
        assert_eq!(m.primary_value(), Some(*value));
    }

    /// Dotted paths and values of every number in a canonical document.
    pub(crate) fn numeric_leaves(v: &JsonValue, path: &str, out: &mut Vec<(String, f64)>) {
        let join = |seg: &str| {
            if path.is_empty() {
                seg.to_owned()
            } else {
                format!("{path}.{seg}")
            }
        };
        match v {
            JsonValue::Number(x) => out.push((path.to_owned(), *x)),
            JsonValue::Array(items) => {
                for (i, item) in items.iter().enumerate() {
                    numeric_leaves(item, &join(&i.to_string()), out);
                }
            }
            JsonValue::Object(entries) => {
                for (k, item) in entries {
                    numeric_leaves(item, &join(k), out);
                }
            }
            _ => {}
        }
    }

    /// Whether a solve of `model` can run for hours whatever it was
    /// given: a simulation runs to its horizon, which may be 1e308 h,
    /// and the phase-type expansion behind semi-Markov interval
    /// availability takes tens of seconds per solve in a debug build.
    fn unbounded(model: &ModelSpec) -> bool {
        match model {
            ModelSpec::Rbd(r) => r.sim.is_some(),
            ModelSpec::FaultTree(f) => f.sim.is_some(),
            ModelSpec::SemiMarkov(s) => s.interval_times.is_some(),
            _ => false,
        }
    }

    /// `model` and the models inside it: an uncertainty wrapper's inner
    /// model and a hierarchy's submodels, at any depth.
    pub(crate) fn models_within(model: &ModelSpec) -> Vec<&ModelSpec> {
        let mut out = vec![model];
        match model {
            ModelSpec::Uncertainty(u) => out.extend(models_within(&u.model)),
            ModelSpec::Hierarchy(h) => {
                for sub in &h.submodels {
                    out.extend(models_within(&sub.model));
                }
            }
            _ => {}
        }
        out
    }

    /// The writes, as `(spec, path prefix, values)`, whose demanded
    /// solve returns a value although the full solve of the same
    /// document fails, because only a measure the demand does not read
    /// fails there. Both specs are CTMCs that also report transient rows
    /// and an MTTF: a time of -1, NaN or 1e308 fails the transient rows,
    /// and a rate of 1e308 fails the MTTF, the transient rows, or (when
    /// the MTTF is read) the steady state.
    const UNREAD_FAILURES: [(&str, &str, &[f64]); 4] = [
        ("maintained_cluster.json", "ctmc.transitions.", &[1e308]),
        (
            "maintained_cluster.json",
            "ctmc.at_times.",
            &[-1.0, f64::NAN, 1e308],
        ),
        ("two_component.json", "ctmc.transitions.", &[1e308]),
        (
            "two_component.json",
            "ctmc.at_times.",
            &[-1.0, f64::NAN, 1e308],
        ),
    ];

    /// The entry of [`UNREAD_FAILURES`] a write falls under, if any.
    fn unread_failure(name: &str, path: &str, v: f64) -> Option<usize> {
        UNREAD_FAILURES.iter().position(|(spec, prefix, values)| {
            *spec == name
                && path.starts_with(prefix)
                && values.iter().any(|x| x.to_bits() == v.to_bits())
        })
    }

    /// `model` without the CTMC measures reading availability does not
    /// read: its transient rows and its MTTF.
    fn availability_only(model: &ModelSpec) -> ModelSpec {
        let mut model = model.clone();
        if let ModelSpec::Ctmc(c) = &mut model {
            c.at_times = None;
            c.absorbing = None;
        }
        model
    }

    /// Every number of every shipped spec but the 10^6-marking net, and
    /// of every model inside one, written through its slot at seven
    /// values in turn, gives what patching the canonical document,
    /// parsing it and solving it gives. The written model equals the
    /// parsed one (or the write fails with the parser's message). For
    /// each measure a scenario can read, one working copy per slot
    /// reads it at each value in turn, so each value after the first
    /// refills the chain or re-runs the probability pass its first
    /// solve compiled (or compiles again after a `k` write); its value
    /// equals that measure of the full solve bit for bit, or its error
    /// the full solve's. The exceptions are the writes in
    /// [`UNREAD_FAILURES`], where only a measure the demand does not
    /// read fails: there an availability still equals that of a full
    /// solve of the model without the measures it does not read. Models
    /// whose solve time the value can make unbounded (see
    /// [`unbounded`]) are compared as models only.
    #[test]
    fn slot_writes_match_patching_the_document() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("specs/ exists")
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".json") && n != "tandem_large.json")
            .collect();
        names.sort();
        let opts = SolveOptions::default();
        let measures = [
            ScenarioMeasure::Availability,
            ScenarioMeasure::Unreliability,
            ScenarioMeasure::Mttf,
            ScenarioMeasure::Primary,
        ];
        let (mut written, mut solved, mut demanded) = (0, 0, 0);
        let mut unread = [0; UNREAD_FAILURES.len()];
        for name in &names {
            let text = std::fs::read_to_string(format!("{dir}/{name}")).unwrap();
            let top = ModelSpec::from_json_str(&text).unwrap();
            for model in models_within(&top) {
                let doc = model.to_json();
                let mut leaves = Vec::new();
                numeric_leaves(&doc, "", &mut leaves);
                for (path, original) in leaves {
                    let slot = Slot::resolve(model, &path)
                        .unwrap_or_else(|| panic!("{name}: '{path}' names a number"));
                    let mut copy = model.clone();
                    let mut working: Vec<Working> = measures
                        .iter()
                        .map(|&m| Working::new(model, &[&slot], m))
                        .collect();
                    // The original value goes first, so that every later
                    // value re-solves what a first solve compiled.
                    for v in [original, original * 1.5, 0.0, -1.0, 2.5, f64::NAN, 1e308] {
                        let what = format!("{name}: {path} = {v:?}");
                        let mut patched = doc.clone();
                        json::set_number_at_path(&mut patched, &path, v).unwrap();
                        let parsed = ModelSpec::from_json(&patched);
                        let write = write_all(&mut copy, &[&slot], &[v]);
                        match (&write, &parsed) {
                            (Ok(()), Ok(m)) => {
                                assert_eq!(format!("{copy:?}"), format!("{m:?}"), "{what}")
                            }
                            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{what}"),
                            _ => panic!("{what}: write {write:?}, parse {:?}", parsed.err()),
                        }
                        written += 1;
                        if unbounded(model) {
                            continue;
                        }
                        let full = parsed
                            .as_ref()
                            .map_err(Clone::clone)
                            .and_then(|m| solve_with(m, &opts));
                        for (w, &measure) in working.iter_mut().zip(&measures) {
                            let what = format!("{what}: {}", measure.as_str());
                            let expected = full
                                .as_ref()
                                .map_err(Clone::clone)
                                .and_then(|r| extract_measure(&r.measures, measure, "model"));
                            let got = w.eval(&[&slot], &[v], &opts, None, "model", |e| e);
                            demanded += usize::from(w.demand.is_some());
                            match (got, expected) {
                                (Ok(a), Ok(b)) => assert_eq!(a.to_bits(), b.to_bits(), "{what}"),
                                (Err(a), Err(b)) => {
                                    assert_eq!(a.to_string(), b.to_string(), "{what}")
                                }
                                (Ok(a), Err(e)) => {
                                    let listed = unread_failure(name, &path, v);
                                    let listed = listed.unwrap_or_else(|| {
                                        panic!("{what}: {a} against the full solve's {e}")
                                    });
                                    unread[listed] += 1;
                                    if measure == ScenarioMeasure::Availability {
                                        let model = availability_only(parsed.as_ref().unwrap());
                                        let b = solve_with(&model, &opts).unwrap();
                                        let b = b.measures.availability().unwrap();
                                        assert_eq!(a.to_bits(), b.to_bits(), "{what}");
                                    }
                                }
                                (got, expected) => panic!("{what}: {got:?} against {expected:?}"),
                            }
                        }
                        solved += 1;
                    }
                }
            }
        }
        assert!(unread.iter().all(|&n| n > 0), "{unread:?}");
        assert!(
            written > 2000 && solved > 1800 && demanded > 2000,
            "{written} writes, {solved} solves, {demanded} demanded"
        );
    }

    #[test]
    fn hierarchy_is_bitwise_identical_across_worker_counts() {
        // One import-free submodel feeding eight importing ones, so the
        // sweep can spread over up to eight workers.
        let importers: Vec<String> = (0..8)
            .map(|i| {
                format!(
                    r#"{{"name": "b{i}",
                      "model": {{"rbd": {{"components": [{{"name": "y", "availability": 0.5}},
                                                        {{"name": "z", "availability": 0.{i}9}}],
                                        "structure": {{"parallel": ["y", "z"]}}}}}},
                      "measure": "availability",
                      "imports": [{{"from": "a", "path": "rbd.components.0.availability"}}]}}"#
                )
            })
            .collect();
        let spec = format!(
            r#"{{"hierarchy": {{"submodels": [
                 {{"name": "a",
                   "model": {{"rbd": {{"components": [{{"name": "x", "availability": 0.95}}],
                                     "structure": "x"}}}},
                   "measure": "availability"}},
                 {}]}}}}"#,
            importers.join(",")
        );
        let solve = |threads: usize| {
            let report = solve_str_with(&spec, &SolveOptions::default().with_threads(threads))
                .expect("hierarchy solves");
            (report.measures.to_json().to_json(), report.stats.workers)
        };
        let (base, workers) = solve(1);
        assert_eq!(workers, 1);
        for threads in [2, 4, 8] {
            let (other, workers) = solve(threads);
            assert_eq!(base, other, "threads = {threads}");
            assert_eq!(workers, threads, "threads = {threads}");
        }
    }

    #[test]
    fn semi_markov_alternating_renewal() {
        // Exponential up (mean 100) / down (mean 1): availability is
        // 100/101 and the first passage into "down" is the up sojourn.
        let m = run(r#"{"semi_markov": {
                 "states": [
                   {"name": "up", "sojourn": {"exponential": {"mean": 100.0}}},
                   {"name": "down", "sojourn": {"exponential": {"mean": 1.0}}}],
                 "transitions": [
                   {"from": "up", "to": "down", "probability": 1.0},
                   {"from": "down", "to": "up", "probability": 1.0}],
                 "initial": "up",
                 "up_states": ["up"],
                 "targets": ["down"],
                 "interval_times": [100000.0]}}"#);
        let SolvedMeasures::SemiMarkov {
            availability,
            mean_first_passage,
            interval_availability,
            ..
        } = &m
        else {
            panic!("expected semi_markov, got {}", m.kind());
        };
        let a = availability.unwrap();
        assert!((a - 100.0 / 101.0).abs() < 1e-12, "availability = {a}");
        assert!((mean_first_passage.unwrap() - 100.0).abs() < 1e-9);
        let (_, ia) = interval_availability.as_ref().unwrap()[0];
        // Over a long horizon interval availability approaches steady.
        assert!((ia - a).abs() < 1e-2, "interval = {ia}, steady = {a}");
    }

    /// `rejuvenation_smp.json`'s interval availabilities against Padé
    /// on its 70-state phase-type expansion: the top-right block of
    /// `exp([[Q, I], [0, 0]]·t)` is `∫₀ᵗ e^{Qu} du`. Uniformization
    /// sits 1.1e-12 (t = 1,000 h) and 2.8e-11 (t = 10,000 h) from the
    /// oracle, relative; the values before and after the integral's
    /// one division by q agree to 3.1e-14, so most of that gap is the
    /// oracle's scaling and squaring. The check allows 1e-10.
    #[test]
    fn rejuvenation_interval_availability_matches_pade() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../specs/rejuvenation_smp.json"
        );
        let text = std::fs::read_to_string(path).unwrap();
        let ModelSpec::SemiMarkov(spec) = ModelSpec::from_json_str(&text).unwrap() else {
            panic!("rejuvenation_smp.json is a semi_markov document");
        };
        let SolvedMeasures::SemiMarkov {
            interval_availability: Some(rows),
            ..
        } = run(&text)
        else {
            panic!("rejuvenation_smp.json asks for interval availability");
        };
        let (smp, id_of) = super::build_smp(&spec).unwrap();
        let initial = id_of(spec.initial.as_deref().unwrap());
        let expanded = smp.expand_to_ctmc(initial).unwrap();
        let q = expanded.ctmc.generator_dense();
        let n = q.nrows();
        assert_eq!(n, 70);
        let p0 = expanded.entry_distribution(initial);
        let up: Vec<usize> = spec
            .up_states
            .as_ref()
            .unwrap()
            .iter()
            .flat_map(|u| expanded.phases[id_of(u).index()].iter().map(|s| s.index()))
            .collect();
        assert_eq!(rows.len(), 2);
        for (t, availability) in rows {
            let mut augmented = DenseMatrix::zeros(2 * n, 2 * n);
            for i in 0..n {
                for j in 0..n {
                    augmented.set(i, j, q.get(i, j) * t);
                }
                augmented.set(i, n + i, t);
            }
            let e = expm(&augmented).unwrap();
            let oracle: f64 = (0..n)
                .map(|i| p0[i] * up.iter().map(|&j| e.get(i, n + j)).sum::<f64>())
                .sum::<f64>()
                / t;
            let relative = (availability - oracle).abs() / oracle;
            assert!(
                relative < 1e-10,
                "t = {t}: {availability} vs Padé {oracle} ({relative:e})"
            );
        }
    }

    #[test]
    fn uncertainty_with_degenerate_prior_recovers_the_point_solve() {
        // A deterministic prior pins the parameter, so every sample
        // solves the same model: mean = the point solve, std_dev = 0.
        let m = run(r#"{"uncertainty": {
                 "model": {"rbd": {"components": [{"name": "a", "availability": 0.5}],
                                   "structure": "a"}},
                 "parameters": [
                   {"path": "rbd.components.0.availability",
                    "prior": {"deterministic": {"value": 0.25}}}],
                 "measure": "availability",
                 "samples": 16}}"#);
        let SolvedMeasures::Uncertainty {
            mean,
            std_dev,
            samples,
            ..
        } = &m
        else {
            panic!("expected uncertainty, got {}", m.kind());
        };
        assert!((mean - 0.25).abs() < 1e-12, "mean = {mean}");
        assert_eq!(*std_dev, 0.0);
        assert_eq!(*samples, 16);
    }

    #[test]
    fn bounds_bracket_the_exact_probability_in_both_forms() {
        // Explicit cut/path sets for a 2-component series system
        // (fails when either fails): cuts {a},{b}; single path {a,b}.
        let m = run(r#"{"bounds": {
                 "events": [{"name": "a", "probability": 0.1},
                            {"name": "b", "probability": 0.2}],
                 "cut_sets": [["a"], ["b"]],
                 "path_sets": [["a", "b"]],
                 "truncation_order": 1}}"#);
        let SolvedMeasures::Bounds {
            exact,
            ep_lower,
            ep_upper,
            truncated_lower,
            truncated_upper,
            ..
        } = &m
        else {
            panic!("expected bounds, got {}", m.kind());
        };
        let q = exact.unwrap();
        assert!((q - (1.0 - 0.9 * 0.8)).abs() < 1e-12, "exact = {q}");
        assert!(ep_lower.unwrap() <= q + 1e-12 && q <= ep_upper.unwrap() + 1e-12);
        assert!(*truncated_lower <= q + 1e-12 && q <= truncated_upper + 1e-12);

        // Fault-tree form: the same system as an OR gate.
        let m = run(r#"{"bounds": {
                 "fault_tree": {
                   "events": [{"name": "a", "probability": 0.1},
                              {"name": "b", "probability": 0.2}],
                   "top": {"or": ["a", "b"]}}}}"#);
        let SolvedMeasures::Bounds {
            exact,
            ep_lower,
            ep_upper,
            num_cut_sets,
            num_path_sets,
            ..
        } = &m
        else {
            panic!("expected bounds, got {}", m.kind());
        };
        let q = exact.unwrap();
        assert!((q - (1.0 - 0.9 * 0.8)).abs() < 1e-12, "exact = {q}");
        assert_eq!(*num_cut_sets, 2);
        assert_eq!(*num_path_sets, 1);
        assert!(ep_lower.unwrap() <= q + 1e-12 && q <= ep_upper.unwrap() + 1e-12);
    }

    #[test]
    fn truncation_order_key_sets_the_enumerated_part() {
        // truncation_order 1 drops the order-2 cut set from the
        // enumerated part, loosening the upper bound.
        let spec = r#"{"bounds": {
             "events": [{"name": "a", "probability": 0.1},
                        {"name": "b", "probability": 0.2}],
             "cut_sets": [["a", "b"]],
             "truncation_order": 2}}"#;
        let tight = solve_str_with(spec, &SolveOptions::default()).unwrap();
        let loose = solve_str_with(
            &spec.replace("\"truncation_order\": 2", "\"truncation_order\": 1"),
            &SolveOptions::default(),
        )
        .unwrap();
        let SolvedMeasures::Bounds {
            truncated_lower: tl,
            ..
        } = tight.measures
        else {
            panic!("expected bounds");
        };
        let SolvedMeasures::Bounds {
            truncated_lower: ll,
            truncation_order,
            ..
        } = loose.measures
        else {
            panic!("expected bounds");
        };
        assert!(tl > 0.0);
        assert_eq!(ll, 0.0);
        assert_eq!(truncation_order, 1);
        assert_eq!(loose.stats.bounds_truncation_order, Some(1));
    }
}
