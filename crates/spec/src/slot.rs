//! Typed parameter slots.
//!
//! Hierarchy imports and uncertainty parameters name a numeric field of
//! an inner model by a dotted path into the model's canonical document
//! (`"ctmc.transitions.0.rate"`). When the document is parsed, each path
//! is resolved once to a [`Slot`] that addresses the typed field. An
//! evaluation writes its values through the slots into a working copy of
//! the model, checking each value with the check
//! [`ModelSpec::from_json`](crate::ModelSpec::from_json) applies to that
//! field. The written model is therefore the one the patched canonical
//! document would parse to, and a rejected value fails with the same
//! message, without a document being built, patched or parsed.

use crate::json::JsonValue;
use crate::schema::{
    damping_value, event_probability_value, failures_value, interval_time_value,
    jump_probability_value, k_value, level_value, max_cut_sets_value, max_iterations_value,
    prior_path, samples_value, sim_int, spn_int, tolerance_value, total_time_value,
    truncation_order_value, u32_value, uncertainty_int, BoundsSpec, DistSpec, FaultTreeSpec,
    ItemSpec, ModelSpec, PriorSpec, SimSpec, SpnSpec, SpnTimingSpec, SpnTransitionSpec,
    StructureSpec, Terms, FAULT_TREE, RBD,
};
use reliab_core::{Error, Result};

/// A numeric field of a model, resolved from its canonical path.
///
/// Variants and their fields are declared in the order
/// `ModelSpec::from_json` reads the fields they address, so when two
/// written values are rejected, the smaller slot holds the error the
/// document would have reported.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum Slot {
    Rbd(StructureSlot),
    FaultTree(StructureSlot),
    Ctmc(CtmcSlot),
    /// `rel_graph.edges.N.reliability`.
    RelGraph(usize),
    Spn(SpnSlot),
    Hierarchy(HierarchySlot),
    SemiMarkov(SemiMarkovSlot),
    Uncertainty(UncertaintySlot),
    Bounds(BoundsSlot),
}

/// A numeric field of an RBD or a fault tree (an RBD has no
/// `max_cut_sets`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum StructureSlot {
    Item(usize, ItemField),
    /// The `k` of the k-of-n node at this member path.
    K(Vec<usize>),
    MaxCutSets,
    /// A `sim` field, by its index in [`SIM_FIELDS`].
    Sim(usize),
}

/// A numeric field of an RBD component or a basic event: its point
/// value, or a parameter (by index) of one of its distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum ItemField {
    Value,
    Ttf(usize),
    Ttr(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum CtmcSlot {
    Rate(usize),
    AtTime(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum SpnSlot {
    Tokens(usize),
    Transition(usize, SpnField),
    MaxMarkings,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum SpnField {
    Rate,
    Priority,
    Weight,
    /// `count` of arc `.1` in list `.0` of [`ARC_LISTS`].
    Arc(usize, usize),
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum HierarchySlot {
    Submodel(usize, SubmodelField),
    Tolerance,
    Damping,
    MaxIterations,
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum SubmodelField {
    Model(Box<Slot>),
    Initial,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum SemiMarkovSlot {
    Sojourn(usize, usize),
    Probability(usize),
    IntervalTime(usize),
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum UncertaintySlot {
    Model(Box<Slot>),
    /// Parameter `.1` of prior `.0`: a distribution parameter, or 0
    /// (`failures`) and 1 (`total_time`) of a rate posterior.
    Prior(usize, usize),
    Samples,
    Level,
    Seed,
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum BoundsSlot {
    FaultTree(StructureSlot),
    Event(usize),
    TruncationOrder,
}

/// Numeric `sim` fields, in the order `SimSpec::from_json` reads them.
const SIM_FIELDS: [&str; 10] = [
    "horizon",
    "mission_time",
    "time_cap",
    "seed",
    "max_replications",
    "min_replications",
    "rel_precision",
    "confidence",
    "batches",
    "warmup_fraction",
];

/// Arc lists of an SPN transition, in the order they are read.
const ARC_LISTS: [&str; 3] = ["inputs", "outputs", "inhibitors"];

impl Slot {
    /// The slot of the number at `path` in `model`'s canonical document,
    /// or `None` when the path names no number there.
    pub(crate) fn resolve(model: &ModelSpec, path: &str) -> Option<Slot> {
        let segs: Vec<&str> = path.split('.').collect();
        resolve(model, &segs)
    }

    /// Writes `v` into the field this slot names, checked as the
    /// document parser checks that field.
    fn write(&self, model: &mut ModelSpec, v: f64) -> Result<()> {
        let x = JsonValue::Number(v);
        match (self, model) {
            (Slot::Rbd(slot), ModelSpec::Rbd(r)) => {
                write_structure(slot, &mut r.components, &mut r.structure, r.sim.as_mut(), v)
            }
            (Slot::FaultTree(slot), ModelSpec::FaultTree(f)) => write_fault_tree(slot, f, v),
            (Slot::Ctmc(slot), ModelSpec::Ctmc(c)) => {
                let field = match *slot {
                    CtmcSlot::Rate(i) => c.transitions.get_mut(i).map(|t| &mut t.rate),
                    CtmcSlot::AtTime(i) => c.at_times.as_mut().and_then(|t| t.get_mut(i)),
                };
                *field.ok_or_else(stale)? = v;
                Ok(())
            }
            (Slot::RelGraph(i), ModelSpec::RelGraph(g)) => {
                g.edges.get_mut(*i).ok_or_else(stale)?.reliability = v;
                Ok(())
            }
            (Slot::Spn(slot), ModelSpec::Spn(s)) => write_spn(*slot, s, v),
            (Slot::Hierarchy(slot), ModelSpec::Hierarchy(h)) => {
                match slot {
                    HierarchySlot::Submodel(i, field) => {
                        let sub = h.submodels.get_mut(*i).ok_or_else(stale)?;
                        match field {
                            SubmodelField::Model(inner) => return inner.write(&mut sub.model, v),
                            SubmodelField::Initial => sub.initial = Some(v),
                        }
                    }
                    HierarchySlot::Tolerance => h.tolerance = Some(tolerance_value(v)?),
                    HierarchySlot::Damping => h.damping = Some(damping_value(v)?),
                    HierarchySlot::MaxIterations => {
                        h.max_iterations = Some(max_iterations_value(&x)?);
                    }
                }
                Ok(())
            }
            (Slot::SemiMarkov(slot), ModelSpec::SemiMarkov(s)) => {
                let field = match *slot {
                    SemiMarkovSlot::Sojourn(i, p) => s
                        .states
                        .get_mut(i)
                        .and_then(|st| dist_param_mut(&mut st.sojourn, p)),
                    SemiMarkovSlot::Probability(i) => {
                        let p = jump_probability_value(v)?;
                        s.transitions.get_mut(i).ok_or_else(stale)?.probability = p;
                        return Ok(());
                    }
                    SemiMarkovSlot::IntervalTime(i) => {
                        let t = interval_time_value(&x)?;
                        let times = s.interval_times.as_mut().ok_or_else(stale)?;
                        *times.get_mut(i).ok_or_else(stale)? = t;
                        return Ok(());
                    }
                };
                *field.ok_or_else(stale)? = v;
                Ok(())
            }
            (Slot::Uncertainty(slot), ModelSpec::Uncertainty(u)) => {
                match slot {
                    UncertaintySlot::Model(inner) => return inner.write(&mut u.model, v),
                    UncertaintySlot::Prior(i, p) => {
                        let param = u.parameters.get_mut(*i).ok_or_else(stale)?;
                        match (&mut param.prior, *p) {
                            (PriorSpec::Dist(d), p) => {
                                *dist_param_mut(d, p).ok_or_else(stale)? = v;
                            }
                            (PriorSpec::Posterior { failures, .. }, 0) => {
                                *failures = failures_value(&x, &prior_path(*i))?;
                            }
                            (PriorSpec::Posterior { total_time, .. }, _) => {
                                *total_time = total_time_value(v, &prior_path(*i))?;
                            }
                        }
                    }
                    UncertaintySlot::Samples => u.samples = Some(samples_value(&x)?),
                    UncertaintySlot::Level => u.level = Some(level_value(v)?),
                    UncertaintySlot::Seed => {
                        u.seed = Some(uncertainty_int(&x, "seed")? as u64);
                    }
                }
                Ok(())
            }
            (Slot::Bounds(slot), ModelSpec::Bounds(b)) => write_bounds(slot, b, v),
            _ => Err(stale()),
        }
    }
}

impl Slot {
    /// Whether a write through this slot changes a structure function
    /// compiled from the model: the `k` of an RBD's or a fault tree's
    /// k-of-n node. Every other slot writes a value the structure is
    /// evaluated at, or a setting of the solve.
    pub(crate) fn writes_structure(&self) -> bool {
        matches!(
            self,
            Slot::Rbd(StructureSlot::K(_)) | Slot::FaultTree(StructureSlot::K(_))
        )
    }
}

/// Writes `values` through `slots` (pairwise) into `model`. As in a
/// document, the last value written to a field is the one it keeps; of
/// the fields whose value is rejected, the one the parser reads first
/// reports.
pub(crate) fn write_all(model: &mut ModelSpec, slots: &[&Slot], values: &[f64]) -> Result<()> {
    let mut first: Option<(&Slot, Error)> = None;
    for (k, (&slot, &v)) in slots.iter().zip(values).enumerate() {
        if slots[k + 1..].contains(&slot) {
            continue;
        }
        if let Err(e) = slot.write(model, v) {
            if first.as_ref().is_none_or(|(s, _)| slot < *s) {
                first = Some((slot, e));
            }
        }
    }
    first.map_or(Ok(()), |(_, e)| Err(e))
}

/// A slot no longer matches the model it is written into: the model was
/// edited in place after it was parsed.
fn stale() -> Error {
    Error::model("a parameter slot does not match its model (edited after parsing?)")
}

fn index(seg: &str, len: usize) -> Option<usize> {
    seg.parse::<usize>().ok().filter(|&i| i < len)
}

fn resolve(model: &ModelSpec, segs: &[&str]) -> Option<Slot> {
    Some(match (model, segs) {
        (ModelSpec::Rbd(r), ["rbd", rest @ ..]) => Slot::Rbd(structure_slot(
            &RBD,
            &r.components,
            &r.structure,
            r.sim.as_ref(),
            rest,
        )?),
        (ModelSpec::FaultTree(f), ["fault_tree", rest @ ..]) => {
            Slot::FaultTree(fault_tree_slot(f, rest)?)
        }
        (ModelSpec::Ctmc(c), ["ctmc", rest @ ..]) => Slot::Ctmc(match rest {
            ["transitions", i, "rate"] => CtmcSlot::Rate(index(i, c.transitions.len())?),
            ["at_times", i] => CtmcSlot::AtTime(index(i, c.at_times.as_ref()?.len())?),
            _ => return None,
        }),
        (ModelSpec::RelGraph(g), ["rel_graph", "edges", i, "reliability"]) => {
            Slot::RelGraph(index(i, g.edges.len())?)
        }
        (ModelSpec::Spn(s), ["spn", rest @ ..]) => Slot::Spn(spn_slot(s, rest)?),
        (ModelSpec::Hierarchy(h), ["hierarchy", rest @ ..]) => Slot::Hierarchy(match rest {
            ["submodels", i, field @ ..] => {
                let i = index(i, h.submodels.len())?;
                let sub = &h.submodels[i];
                HierarchySlot::Submodel(
                    i,
                    match field {
                        ["model", rest @ ..] => {
                            SubmodelField::Model(Box::new(resolve(&sub.model, rest)?))
                        }
                        ["initial"] if sub.initial.is_some() => SubmodelField::Initial,
                        _ => return None,
                    },
                )
            }
            ["tolerance"] if h.tolerance.is_some() => HierarchySlot::Tolerance,
            ["damping"] if h.damping.is_some() => HierarchySlot::Damping,
            ["max_iterations"] if h.max_iterations.is_some() => HierarchySlot::MaxIterations,
            _ => return None,
        }),
        (ModelSpec::SemiMarkov(s), ["semi_markov", rest @ ..]) => Slot::SemiMarkov(match rest {
            ["states", i, "sojourn", param @ ..] => {
                let i = index(i, s.states.len())?;
                SemiMarkovSlot::Sojourn(i, dist_param(&s.states[i].sojourn, param)?)
            }
            ["transitions", i, "probability"] => {
                SemiMarkovSlot::Probability(index(i, s.transitions.len())?)
            }
            ["interval_times", i] => {
                SemiMarkovSlot::IntervalTime(index(i, s.interval_times.as_ref()?.len())?)
            }
            _ => return None,
        }),
        (ModelSpec::Uncertainty(u), ["uncertainty", rest @ ..]) => Slot::Uncertainty(match rest {
            ["model", rest @ ..] => UncertaintySlot::Model(Box::new(resolve(&u.model, rest)?)),
            ["parameters", i, "prior", param @ ..] => {
                let i = index(i, u.parameters.len())?;
                let p = match (&u.parameters[i].prior, param) {
                    (PriorSpec::Dist(d), param) => dist_param(d, param)?,
                    (PriorSpec::Posterior { .. }, ["rate_posterior", "failures"]) => 0,
                    (PriorSpec::Posterior { .. }, ["rate_posterior", "total_time"]) => 1,
                    _ => return None,
                };
                UncertaintySlot::Prior(i, p)
            }
            ["samples"] if u.samples.is_some() => UncertaintySlot::Samples,
            ["level"] if u.level.is_some() => UncertaintySlot::Level,
            ["seed"] if u.seed.is_some() => UncertaintySlot::Seed,
            _ => return None,
        }),
        (ModelSpec::Bounds(b), ["bounds", rest @ ..]) => Slot::Bounds(match rest {
            ["events", i, "probability"] => BoundsSlot::Event(index(i, b.events.len())?),
            ["fault_tree", rest @ ..] => {
                BoundsSlot::FaultTree(fault_tree_slot(b.fault_tree.as_deref()?, rest)?)
            }
            ["truncation_order"] if b.truncation_order.is_some() => BoundsSlot::TruncationOrder,
            _ => return None,
        }),
        _ => return None,
    })
}

fn fault_tree_slot(f: &FaultTreeSpec, segs: &[&str]) -> Option<StructureSlot> {
    match segs {
        ["max_cut_sets"] if f.max_cut_sets.is_some() => Some(StructureSlot::MaxCutSets),
        _ => structure_slot(&FAULT_TREE, &f.events, &f.top, f.sim.as_ref(), segs),
    }
}

/// An item's field, a `k`, or a `sim` field of an RBD or a fault tree,
/// under the class's keys.
fn structure_slot(
    terms: &Terms,
    items: &[ItemSpec],
    root: &StructureSpec,
    sim: Option<&SimSpec>,
    segs: &[&str],
) -> Option<StructureSlot> {
    Some(match segs {
        [key, i, field @ ..] if *key == terms.items => {
            let i = index(i, items.len())?;
            let item = &items[i];
            StructureSlot::Item(
                i,
                match field {
                    [key] if *key == terms.value && item.value.is_some() => ItemField::Value,
                    ["ttf_dist", param @ ..] => {
                        ItemField::Ttf(dist_param(item.ttf_dist.as_ref()?, param)?)
                    }
                    ["ttr_dist", param @ ..] => {
                        ItemField::Ttr(dist_param(item.ttr_dist.as_ref()?, param)?)
                    }
                    _ => return None,
                },
            )
        }
        [key, rest @ ..] if *key == terms.root => StructureSlot::K(tree_slot(terms, root, rest)?),
        ["sim", rest @ ..] => StructureSlot::Sim(sim_slot(sim?, rest)?),
        _ => return None,
    })
}

fn write_fault_tree(slot: &StructureSlot, f: &mut FaultTreeSpec, v: f64) -> Result<()> {
    if *slot == StructureSlot::MaxCutSets {
        f.max_cut_sets = Some(max_cut_sets_value(&JsonValue::Number(v))?);
        return Ok(());
    }
    write_structure(slot, &mut f.events, &mut f.top, f.sim.as_mut(), v)
}

fn write_structure(
    slot: &StructureSlot,
    items: &mut [ItemSpec],
    root: &mut StructureSpec,
    sim: Option<&mut SimSpec>,
    v: f64,
) -> Result<()> {
    let target = match slot {
        StructureSlot::Item(i, field) => {
            let item = items.get_mut(*i).ok_or_else(stale)?;
            match *field {
                ItemField::Value => item.value.as_mut(),
                ItemField::Ttf(p) => item.ttf_dist.as_mut().and_then(|d| dist_param_mut(d, p)),
                ItemField::Ttr(p) => item.ttr_dist.as_mut().and_then(|d| dist_param_mut(d, p)),
            }
        }
        StructureSlot::K(path) => {
            let k = k_value(&JsonValue::Number(v))?;
            *tree_k_mut(root, path).ok_or_else(stale)? = k;
            return Ok(());
        }
        StructureSlot::MaxCutSets => None,
        StructureSlot::Sim(i) => return write_sim(sim.ok_or_else(stale)?, *i, v),
    };
    *target.ok_or_else(stale)? = v;
    Ok(())
}

fn write_bounds(slot: &BoundsSlot, b: &mut BoundsSpec, v: f64) -> Result<()> {
    match slot {
        BoundsSlot::FaultTree(slot) => {
            write_fault_tree(slot, b.fault_tree.as_deref_mut().ok_or_else(stale)?, v)
        }
        BoundsSlot::Event(i) => {
            let p = event_probability_value(v)?;
            b.events.get_mut(*i).ok_or_else(stale)?.probability = p;
            Ok(())
        }
        BoundsSlot::TruncationOrder => {
            b.truncation_order = Some(truncation_order_value(&JsonValue::Number(v))?);
            Ok(())
        }
    }
}

/// The family key and parameter names of a distribution's canonical
/// form, in the order `DistSpec::to_json` writes them.
fn dist_names(d: &DistSpec) -> (&'static str, &'static [&'static str]) {
    match d {
        DistSpec::Exponential { .. } => ("exponential", &["rate"]),
        DistSpec::Weibull { .. } => ("weibull", &["shape", "scale"]),
        DistSpec::LogNormal { .. } => ("lognormal", &["mu", "sigma"]),
        DistSpec::Pareto { .. } => ("pareto", &["shape", "scale"]),
        DistSpec::Gamma { .. } => ("gamma", &["shape", "rate"]),
        DistSpec::Uniform { .. } => ("uniform", &["low", "high"]),
        DistSpec::Deterministic { .. } => ("deterministic", &["value"]),
    }
}

fn dist_param(d: &DistSpec, segs: &[&str]) -> Option<usize> {
    let (family, names) = dist_names(d);
    match segs {
        [f, name] if *f == family => names.iter().position(|n| n == name),
        _ => None,
    }
}

fn dist_param_mut(d: &mut DistSpec, p: usize) -> Option<&mut f64> {
    match (d, p) {
        (DistSpec::Exponential { rate: a }, 0)
        | (DistSpec::Weibull { shape: a, .. }, 0)
        | (DistSpec::Weibull { scale: a, .. }, 1)
        | (DistSpec::LogNormal { mu: a, .. }, 0)
        | (DistSpec::LogNormal { sigma: a, .. }, 1)
        | (DistSpec::Pareto { shape: a, .. }, 0)
        | (DistSpec::Pareto { scale: a, .. }, 1)
        | (DistSpec::Gamma { shape: a, .. }, 0)
        | (DistSpec::Gamma { rate: a, .. }, 1)
        | (DistSpec::Uniform { low: a, .. }, 0)
        | (DistSpec::Uniform { high: a, .. }, 1)
        | (DistSpec::Deterministic { value: a }, 0) => Some(a),
        _ => None,
    }
}

fn sim_slot(s: &SimSpec, segs: &[&str]) -> Option<usize> {
    let present = [
        s.horizon.is_some(),
        s.mission_time.is_some(),
        s.time_cap.is_some(),
        s.seed.is_some(),
        s.max_replications.is_some(),
        s.min_replications.is_some(),
        s.rel_precision.is_some(),
        s.confidence.is_some(),
        s.batches.is_some(),
        s.warmup_fraction.is_some(),
    ];
    let [key] = segs else { return None };
    let i = SIM_FIELDS.iter().position(|k| k == key)?;
    present[i].then_some(i)
}

fn write_sim(s: &mut SimSpec, i: usize, v: f64) -> Result<()> {
    let x = &JsonValue::Number(v);
    let key = SIM_FIELDS[i];
    match key {
        "horizon" => s.horizon = Some(v),
        "mission_time" => s.mission_time = Some(v),
        "time_cap" => s.time_cap = Some(v),
        "seed" => s.seed = Some(sim_int(x, key)? as u64),
        "max_replications" => s.max_replications = Some(sim_int(x, key)?),
        "min_replications" => s.min_replications = Some(sim_int(x, key)?),
        "rel_precision" => s.rel_precision = Some(v),
        "confidence" => s.confidence = Some(v),
        "batches" => s.batches = Some(sim_int(x, key)?),
        _ => s.warmup_fraction = Some(v),
    }
    Ok(())
}

fn spn_slot(s: &SpnSpec, segs: &[&str]) -> Option<SpnSlot> {
    Some(match segs {
        ["places", i, "tokens"] => SpnSlot::Tokens(index(i, s.places.len())?),
        ["transitions", i, field @ ..] => {
            let i = index(i, s.transitions.len())?;
            let t = &s.transitions[i];
            let timed = matches!(t.timing, SpnTimingSpec::Timed { .. });
            SpnSlot::Transition(
                i,
                match field {
                    ["rate"] if timed => SpnField::Rate,
                    ["priority"] if !timed => SpnField::Priority,
                    ["weight"] if !timed => SpnField::Weight,
                    [list, j, "count"] => {
                        let list = ARC_LISTS.iter().position(|l| l == list)?;
                        SpnField::Arc(list, index(j, arcs(t, list).len())?)
                    }
                    _ => return None,
                },
            )
        }
        ["max_markings"] if s.max_markings.is_some() => SpnSlot::MaxMarkings,
        _ => return None,
    })
}

fn arcs(t: &SpnTransitionSpec, list: usize) -> &[crate::schema::ArcSpec] {
    [&t.inputs, &t.outputs, &t.inhibitors][list]
}

fn write_spn(slot: SpnSlot, s: &mut SpnSpec, v: f64) -> Result<()> {
    let x = &JsonValue::Number(v);
    match slot {
        SpnSlot::Tokens(i) => {
            let tokens = u32_value(x, "tokens")?;
            s.places.get_mut(i).ok_or_else(stale)?.tokens = tokens;
        }
        SpnSlot::Transition(i, field) => {
            let t = s.transitions.get_mut(i).ok_or_else(stale)?;
            match (field, &mut t.timing) {
                (SpnField::Rate, SpnTimingSpec::Timed { rate }) => *rate = v,
                (SpnField::Priority, SpnTimingSpec::Immediate { priority, .. }) => {
                    *priority = u32_value(x, "priority")?;
                }
                (SpnField::Weight, SpnTimingSpec::Immediate { weight, .. }) => *weight = v,
                (SpnField::Arc(list, j), _) => {
                    let count = u32_value(x, "count")?;
                    let arcs = [&mut t.inputs, &mut t.outputs, &mut t.inhibitors];
                    arcs.into_iter()
                        .nth(list)
                        .and_then(|a| a.get_mut(j))
                        .ok_or_else(stale)?
                        .count = count;
                }
                _ => return Err(stale()),
            }
        }
        SpnSlot::MaxMarkings => s.max_markings = Some(spn_int(x, "max_markings")?),
    }
    Ok(())
}

/// The member path to the k-of-n node whose `k` the canonical path
/// `segs` names: `{"series": [...]}` members sit under the key,
/// `{"k_of_n": {"k": .., "of": [...]}}` members under `of`.
fn tree_slot(terms: &Terms, mut node: &StructureSpec, mut segs: &[&str]) -> Option<Vec<usize>> {
    let mut path = Vec::new();
    loop {
        let (key, vote, members) = match node {
            StructureSpec::Item(_) => return None,
            StructureSpec::All(m) => (terms.all, false, m),
            StructureSpec::Any(m) => (terms.any, false, m),
            StructureSpec::KOfN { of, .. } => ("k_of_n", true, of),
        };
        let (i, rest) = match segs {
            [k, "k"] if *k == key && vote => return Some(path),
            [k, "of", i, rest @ ..] if *k == key && vote => (i, rest),
            [k, i, rest @ ..] if *k == key && !vote => (i, rest),
            _ => return None,
        };
        let i = index(i, members.len())?;
        path.push(i);
        node = &members[i];
        segs = rest;
    }
}

fn tree_k_mut<'a>(mut node: &'a mut StructureSpec, path: &[usize]) -> Option<&'a mut usize> {
    for &i in path {
        node = match node {
            StructureSpec::All(m) | StructureSpec::Any(m) | StructureSpec::KOfN { of: m, .. } => {
                m.get_mut(i)?
            }
            StructureSpec::Item(_) => return None,
        };
    }
    match node {
        StructureSpec::KOfN { k, .. } => Some(k),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// Documents that between them hold every numeric field of every
    /// model class, canonical or not.
    const DOCS: [&str; 6] = [
        r#"{"rbd": {"components": [
              {"name": "a", "availability": 0.9},
              {"name": "b", "ttf_dist": {"weibull": {"shape": 1.5, "scale": 100}},
               "ttr_dist": {"lognormal": {"mean": 4, "cv2": 2}}},
              {"name": "c", "ttf_dist": {"exponential": {"mean": 50}},
               "ttr_dist": {"gamma": {"shape": 2, "rate": 1}}}],
            "structure": {"series": ["a", {"k_of_n": {"k": 1, "of": ["b", {"parallel": ["a", "c"]}]}}]},
            "sim": {"measure": "availability", "horizon": 100, "mission_time": 5, "time_cap": 9,
                    "seed": 3, "jobs": 1, "max_replications": 8, "min_replications": 2,
                    "rel_precision": 0.1, "confidence": 0.9, "batches": 4, "warmup_fraction": 0.1}}}"#,
        r#"{"bounds": {"fault_tree": {
              "events": [{"name": "e", "probability": 0.1},
                         {"name": "f", "ttf_dist": {"pareto": {"shape": 3, "scale": 2}},
                          "ttr_dist": {"uniform": {"low": 1, "high": 2}}},
                         {"name": "g", "ttf_dist": {"deterministic": {"value": 7}}}],
              "top": {"or": ["e", {"k_of_n": {"k": 2, "of": ["e", "f", {"and": ["f", "g"]}]}}]},
              "max_cut_sets": 100,
              "sim": {"measure": "reliability", "mission_time": 10}},
            "truncation_order": 2}}"#,
        r#"{"spn": {"places": [{"name": "p", "tokens": 2}, {"name": "q"}],
            "transitions": [
              {"name": "t", "rate": 1.5, "inputs": [{"place": "p"}], "outputs": [{"place": "q", "count": 2}],
               "inhibitors": [{"place": "q", "count": 3}]},
              {"name": "u", "weight": 0.5, "priority": 1, "inputs": [{"place": "q"}]}],
            "max_markings": 1000, "reach_jobs": 1, "shard_bits": 2}}"#,
        r#"{"hierarchy": {"submodels": [
              {"name": "g", "model": {"rel_graph": {"nodes": ["s", "t"],
                 "edges": [{"name": "e", "from": "s", "to": "t", "reliability": 0.9}],
                 "source": "s", "sink": "t"}}, "initial": 0.5},
              {"name": "m", "model": {"ctmc": {"states": ["up", "down"],
                 "transitions": [{"from": "up", "to": "down", "rate": 0.1},
                                 {"from": "down", "to": "up", "rate": 1}],
                 "up_states": ["up"], "at_times": [1, 2]}},
               "imports": [{"from": "g", "path": "ctmc.transitions.1.rate"}]}],
            "tolerance": 1e-9, "max_iterations": 50, "damping": 0.9, "jobs": 1}}"#,
        r#"{"uncertainty": {"model": {"semi_markov": {
              "states": [{"name": "up", "sojourn": {"exponential": {"rate": 0.1}}},
                         {"name": "down", "sojourn": {"lognormal": {"mu": 0, "sigma": 1}}}],
              "transitions": [{"from": "up", "to": "down", "probability": 1},
                              {"from": "down", "to": "up", "probability": 1}],
              "up_states": ["up"], "interval_times": [10, 20]}},
            "parameters": [
              {"path": "semi_markov.states.0.sojourn.exponential.rate",
               "prior": {"rate_posterior": {"failures": 3, "total_time": 30}}},
              {"path": "semi_markov.interval_times.1", "prior": {"uniform": {"low": 5, "high": 6}}}],
            "samples": 10, "level": 0.9, "seed": 5, "jobs": 1}}"#,
        r#"{"bounds": {"events": [{"name": "a", "probability": 0.1}, {"name": "b", "probability": 0.2}],
            "cut_sets": [["a"], ["b"]], "path_sets": [["a", "b"]], "truncation_order": 1}}"#,
    ];

    /// Every path into `v`, to containers and leaves alike.
    fn paths(v: &JsonValue, path: &str, out: &mut Vec<String>) {
        let join = |seg: &str| match path {
            "" => seg.to_owned(),
            _ => format!("{path}.{seg}"),
        };
        match v {
            JsonValue::Array(items) => {
                for (i, item) in items.iter().enumerate() {
                    paths(item, &join(&i.to_string()), out);
                }
            }
            JsonValue::Object(entries) => {
                for (k, item) in entries {
                    paths(item, &join(k), out);
                }
            }
            _ => {}
        }
        if !path.is_empty() {
            out.push(path.to_owned());
        }
    }

    /// Writes `values` through slots and by patching the canonical
    /// document in order and parsing it; the two outcomes as text.
    fn both_ways(model: &ModelSpec, writes: &[(&str, f64)]) -> (String, String) {
        let slots: Vec<Slot> = writes
            .iter()
            .map(|(p, _)| Slot::resolve(model, p).unwrap_or_else(|| panic!("'{p}' resolves")))
            .collect();
        let refs: Vec<&Slot> = slots.iter().collect();
        let values: Vec<f64> = writes.iter().map(|w| w.1).collect();
        let mut written = model.clone();
        let new = write_all(&mut written, &refs, &values).map(|()| written);
        let mut doc = model.to_json();
        for (p, v) in writes {
            json::set_number_at_path(&mut doc, p, *v).unwrap();
        }
        let old = ModelSpec::from_json(&doc);
        let text = |r: Result<ModelSpec>| match r {
            Ok(m) => format!("{m:?}"),
            Err(e) => e.to_string(),
        };
        (text(new), text(old))
    }

    /// A path resolves exactly when it names a number of the canonical
    /// document, and a write through it lands where patching the
    /// document would, with the parser's verdict on the value.
    #[test]
    fn slots_name_exactly_the_numbers_of_the_canonical_document() {
        for text in DOCS {
            let model = ModelSpec::from_json_str(text).unwrap();
            let doc = model.to_json();
            let mut all = Vec::new();
            paths(&doc, "", &mut all);
            let first = all.first().cloned().unwrap_or_default();
            for bogus in [
                "",
                "rbd.nope",
                "ctmc.transitions.99.rate",
                "spn.places.-1.tokens",
            ] {
                all.push(bogus.to_owned());
            }
            all.push(format!("{first}.0"));
            let mut numbers = 0;
            for path in &all {
                let number = matches!(json::get_path(&doc, path), Some(JsonValue::Number(_)));
                assert_eq!(Slot::resolve(&model, path).is_some(), number, "{path}");
                if number {
                    numbers += 1;
                    for v in [0.5, 3.0, 17.0, -2.0, 1e300] {
                        let (new, old) = both_ways(&model, &[(path.as_str(), v)]);
                        assert_eq!(new, old, "{path} = {v}");
                    }
                }
            }
            assert!(numbers >= 3, "{text}");
        }
        // Leading zeros and a sign are array indices to both.
        let model = ModelSpec::from_json_str(DOCS[3]).unwrap();
        let (new, old) = both_ways(
            &model,
            &[("hierarchy.submodels.+1.model.ctmc.at_times.01", 4.0)],
        );
        assert_eq!(new, old);
    }

    /// Of two rejected fields the one the parser reads first reports,
    /// even where the document lists it second, and the last value
    /// written to a field is the one it keeps.
    #[test]
    fn the_field_read_first_reports_and_the_last_write_wins() {
        let hierarchy = ModelSpec::from_json_str(DOCS[3]).unwrap();
        let spn = ModelSpec::from_json_str(DOCS[2]).unwrap();
        let nested = ModelSpec::from_json_str(&format!(
            r#"{{"uncertainty": {{"model": {},
                 "parameters": [{{"path": "hierarchy.damping", "prior": {{"uniform": {{"low": 0.5, "high": 1}}}}}}],
                 "seed": 1}}}}"#,
            DOCS[3]
        ))
        .unwrap();
        let cases: [(&ModelSpec, &[(&str, f64)]); 7] = [
            (
                &hierarchy,
                &[
                    ("hierarchy.max_iterations", 2.5),
                    ("hierarchy.damping", 2.0),
                ],
            ),
            (
                &hierarchy,
                &[("hierarchy.damping", 2.0), ("hierarchy.tolerance", -1.0)],
            ),
            (
                &hierarchy,
                &[("hierarchy.tolerance", -1.0), ("hierarchy.tolerance", 0.5)],
            ),
            (
                &hierarchy,
                &[("hierarchy.tolerance", 0.5), ("hierarchy.tolerance", -1.0)],
            ),
            (
                &spn,
                &[
                    ("spn.max_markings", 2.5),
                    ("spn.transitions.0.inputs.0.count", -1.0),
                ],
            ),
            (
                &spn,
                &[
                    ("spn.transitions.1.priority", 1e10),
                    ("spn.places.0.tokens", -1.0),
                ],
            ),
            (
                &nested,
                &[
                    ("uncertainty.seed", 0.5),
                    (
                        "uncertainty.model.hierarchy.submodels.1.model.ctmc.transitions.0.rate",
                        2.0,
                    ),
                    ("uncertainty.parameters.0.prior.uniform.low", f64::NAN),
                    ("uncertainty.model.hierarchy.damping", 0.0),
                ],
            ),
        ];
        for (model, writes) in cases {
            let (new, old) = both_ways(model, writes);
            assert_eq!(new, old, "{writes:?}");
        }
    }
}
