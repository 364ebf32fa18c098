//! A 64-bit fingerprint of a parsed model, the batch engine's memo key.
//!
//! `Hash` is implemented for [`ModelSpec`] and every type it holds,
//! consistently with their derived `PartialEq`: equal models hash
//! equal, so two documents that parse to one model (whatever their
//! formatting, key order or number spelling) share a fingerprint.
//! Types that hold no float derive `Hash`; the impls below cover the
//! ones that do. A float is hashed by its bits with `-0.0` folded into
//! `0.0`, since the two compare equal; NaN equals nothing, so its bits
//! need no care. Each impl destructures its value without `..`, so a
//! field added to a type without a hash of its own fails to compile.
//!
//! A fingerprint match is a candidate, not an answer: distinct models
//! may collide, so the engine confirms each match against the entry's
//! witness before it reuses the entry.

use crate::schema::{
    BoundsEventSpec, CtmcSpec, DistSpec, EdgeSpec, HierarchySpec, ItemSpec, ModelSpec, PriorSpec,
    SemiMarkovSpec, SimSpec, SmpTransitionSpec, SpnTimingSpec, SubmodelSpec, TransitionSpec,
    UncertaintySpec,
};
use reliab_core::fxhash::FxHasher;
use std::hash::{Hash, Hasher};

impl ModelSpec {
    /// The model's 64-bit fingerprint: the `Hash` of the parsed model
    /// fed to [`FxHasher`]. Equal models (`==`) have equal
    /// fingerprints; unequal ones collide rarely, but may.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut hasher = FxHasher::default();
        self.hash(&mut hasher);
        hasher.finish()
    }
}

/// An `f64` hashed the way `==` compares it.
struct Float(f64);

impl Hash for Float {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let x = if self.0 == 0.0 { 0.0 } else { self.0 };
        state.write_u64(x.to_bits());
    }
}

fn opt(x: Option<f64>) -> Option<Float> {
    x.map(Float)
}

fn floats<H: Hasher>(xs: Option<&[f64]>, state: &mut H) {
    xs.map(<[f64]>::len).hash(state);
    for &x in xs.unwrap_or_default() {
        Float(x).hash(state);
    }
}

impl Hash for SpnTimingSpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match *self {
            SpnTimingSpec::Timed { rate } => Float(rate).hash(state),
            SpnTimingSpec::Immediate { weight, priority } => {
                Float(weight).hash(state);
                priority.hash(state);
            }
        }
    }
}

impl Hash for EdgeSpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let EdgeSpec {
            name,
            from,
            to,
            reliability,
            directed,
        } = self;
        (name, from, to, Float(*reliability), directed).hash(state);
    }
}

impl Hash for ItemSpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let ItemSpec {
            name,
            value,
            ttf_dist,
            ttr_dist,
        } = self;
        (name, opt(*value), ttf_dist, ttr_dist).hash(state);
    }
}

impl Hash for DistSpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match *self {
            DistSpec::Exponential { rate: x } | DistSpec::Deterministic { value: x } => {
                Float(x).hash(state);
            }
            DistSpec::Weibull { shape: a, scale: b }
            | DistSpec::LogNormal { mu: a, sigma: b }
            | DistSpec::Pareto { shape: a, scale: b }
            | DistSpec::Gamma { shape: a, rate: b }
            | DistSpec::Uniform { low: a, high: b } => (Float(a), Float(b)).hash(state),
        }
    }
}

impl Hash for SimSpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let SimSpec {
            measure,
            horizon,
            mission_time,
            time_cap,
            seed,
            max_replications,
            min_replications,
            rel_precision,
            confidence,
            batches,
            warmup_fraction,
        } = self;
        (measure, opt(*horizon), opt(*mission_time), opt(*time_cap)).hash(state);
        (
            seed,
            max_replications,
            min_replications,
            opt(*rel_precision),
        )
            .hash(state);
        (opt(*confidence), batches, opt(*warmup_fraction)).hash(state);
    }
}

impl Hash for CtmcSpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let CtmcSpec {
            states,
            transitions,
            initial,
            up_states,
            absorbing,
            at_times,
        } = self;
        (states, transitions, initial, up_states, absorbing).hash(state);
        floats(at_times.as_deref(), state);
    }
}

impl Hash for TransitionSpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let TransitionSpec { from, to, rate } = self;
        (from, to, Float(*rate)).hash(state);
    }
}

impl Hash for HierarchySpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let HierarchySpec {
            submodels,
            output,
            tolerance,
            max_iterations,
            damping,
        } = self;
        (
            submodels,
            output,
            opt(*tolerance),
            max_iterations,
            opt(*damping),
        )
            .hash(state);
    }
}

impl Hash for SubmodelSpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let SubmodelSpec {
            name,
            model,
            measure,
            initial,
            imports,
        } = self;
        (name, model, measure, opt(*initial), imports).hash(state);
    }
}

impl Hash for SemiMarkovSpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let SemiMarkovSpec {
            states,
            transitions,
            initial,
            up_states,
            targets,
            interval_times,
        } = self;
        (states, transitions, initial, up_states, targets).hash(state);
        floats(interval_times.as_deref(), state);
    }
}

impl Hash for SmpTransitionSpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let SmpTransitionSpec {
            from,
            to,
            probability,
        } = self;
        (from, to, Float(*probability)).hash(state);
    }
}

impl Hash for UncertaintySpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let UncertaintySpec {
            model,
            parameters,
            measure,
            samples,
            level,
            seed,
            latin_hypercube,
        } = self;
        (model, parameters, measure, samples).hash(state);
        (opt(*level), seed, latin_hypercube).hash(state);
    }
}

impl Hash for PriorSpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            PriorSpec::Dist(dist) => dist.hash(state),
            PriorSpec::Posterior {
                failures,
                total_time,
            } => (failures, Float(*total_time)).hash(state),
        }
    }
}

impl Hash for BoundsEventSpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let BoundsEventSpec { name, probability } = self;
        (name, Float(*probability)).hash(state);
    }
}

#[cfg(test)]
mod tests {
    use crate::json::{self, JsonValue};
    use crate::scenario::tests::{models_within, numeric_leaves};
    use crate::schema::ModelSpec;

    /// `v` with every object's keys in reverse order.
    fn reversed_keys(v: &JsonValue) -> JsonValue {
        match v {
            JsonValue::Object(entries) => JsonValue::Object(
                entries
                    .iter()
                    .rev()
                    .map(|(k, v)| (k.clone(), reversed_keys(v)))
                    .collect(),
            ),
            JsonValue::Array(items) => JsonValue::Array(items.iter().map(reversed_keys).collect()),
            other => other.clone(),
        }
    }

    /// The values a number is moved to: one last bit either way, and
    /// one either way if it is an integer (so integer fields move too).
    fn perturbed(x: f64) -> Vec<f64> {
        let mut out = vec![x.next_up(), x.next_down()];
        if x.fract() == 0.0 {
            out.extend([x + 1.0, x - 1.0]);
        }
        out
    }

    /// For every shipped spec and every model inside one, the canonical
    /// text, a pretty-printed copy and a copy with reversed keys parse
    /// to the same model and fingerprint; and moving any one number of
    /// the canonical document changes the fingerprint whenever the moved
    /// document still parses. A field a `Hash` impl leaves out fails
    /// here instead of sending every memo hit down the re-parse path.
    #[test]
    fn fingerprint_covers_every_number_of_every_shipped_model() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("specs/ exists")
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".json"))
            .collect();
        names.sort();
        let (mut models, mut leaves_moved, mut moves) = (0, 0, 0);
        for name in &names {
            let text = std::fs::read_to_string(format!("{dir}/{name}")).unwrap();
            let top = ModelSpec::from_json_str(&text).unwrap();
            for model in models_within(&top) {
                models += 1;
                let fingerprint = model.fingerprint();
                let doc = model.to_json();
                for copy in [
                    doc.to_json(),
                    doc.to_json_pretty(),
                    reversed_keys(&doc).to_json_pretty(),
                ] {
                    let again = ModelSpec::from_json_str(&copy).unwrap();
                    assert_eq!(again, *model, "{name}: {copy}");
                    assert_eq!(again.fingerprint(), fingerprint, "{name}: {copy}");
                }
                let mut leaves = Vec::new();
                numeric_leaves(&doc, "", &mut leaves);
                for (path, x) in leaves {
                    let mut moved = false;
                    for y in perturbed(x) {
                        let mut patched = doc.clone();
                        json::set_number_at_path(&mut patched, &path, y).unwrap();
                        let Ok(other) = ModelSpec::from_json(&patched) else {
                            continue;
                        };
                        assert_ne!(other.fingerprint(), fingerprint, "{name}: {path} = {y:?}");
                        moves += 1;
                        moved = true;
                    }
                    assert!(moved, "{name}: no move of {path} = {x:?} parses");
                    leaves_moved += 1;
                }
            }
        }
        assert!(
            models > 25 && leaves_moved > 300 && moves > 700,
            "{models} models, {leaves_moved} numbers moved, {moves} moves"
        );
    }
}
