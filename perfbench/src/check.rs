//! Output checks shared by the workloads.

use reliab_spec::{SolveReport, SolvedMeasures};

use crate::gen::Doc;
use crate::report::fnv1a;

/// Model solves behind one report: each uncertainty sample, each
/// hierarchy submodel evaluation, one for any other document.
pub fn inner_solves(doc: &Doc, report: &SolveReport) -> u64 {
    match (&report.measures, doc.hierarchy) {
        (SolvedMeasures::Uncertainty { samples, .. }, _) => *samples as u64,
        (SolvedMeasures::Hierarchy { iterations, .. }, Some((fixed, dynamic))) => {
            fixed + dynamic * *iterations as u64
        }
        _ => 1,
    }
}

/// Digest of the measures part of an encoded `SolveReport`
/// (`{"measures":...,"stats":...}`), so wall times in the stats do not
/// enter it.
pub fn measures_digest(encoded: &str) -> Result<u64, String> {
    let measures = encoded
        .strip_prefix("{\"measures\":")
        .and_then(|rest| rest.rfind(",\"stats\":").map(|end| &rest[..end]))
        .ok_or("encoded report has no measures/stats split")?;
    Ok(fnv1a(measures.as_bytes()))
}

/// Every probability and availability in the measures must lie in
/// `[0, 1]`.
pub fn probabilities_in_range(m: &SolvedMeasures) -> Result<(), String> {
    let mut values: Vec<(&str, f64)> = Vec::new();
    let mut importance = |rows: &Option<Vec<reliab_spec::ImportanceRow>>| {
        for r in rows.iter().flatten() {
            values.push(("birnbaum", r.birnbaum));
            values.push(("criticality", r.criticality));
            values.push(("fussell_vesely", r.fussell_vesely));
        }
    };
    match m {
        SolvedMeasures::Rbd {
            availability,
            importance: rows,
            ..
        } => {
            importance(rows);
            values.push(("availability", *availability));
        }
        SolvedMeasures::FaultTree {
            top_event_probability,
            importance: rows,
            ..
        } => {
            importance(rows);
            values.push(("top_event_probability", *top_event_probability));
        }
        SolvedMeasures::RelGraph {
            reliability,
            all_terminal_reliability,
            ..
        } => {
            values.push(("reliability", *reliability));
            values.extend(all_terminal_reliability.map(|r| ("all_terminal_reliability", r)));
        }
        SolvedMeasures::Sim {
            measure,
            point,
            ci_lower,
            ci_upper,
            ..
        } if measure == "availability" => {
            values.extend([
                ("point", *point),
                ("ci_lower", *ci_lower),
                ("ci_upper", *ci_upper),
            ]);
        }
        SolvedMeasures::Ctmc {
            steady_state,
            availability,
            transient,
            ..
        } => {
            values.extend(
                steady_state
                    .iter()
                    .flatten()
                    .map(|(_, p)| ("steady_state", *p)),
            );
            values.extend(availability.map(|a| ("availability", a)));
            for row in transient.iter().flatten() {
                values.extend(row.probabilities.iter().map(|(_, p)| ("transient", *p)));
            }
        }
        SolvedMeasures::Hierarchy {
            submodels, value, ..
        } => {
            values.extend(submodels.iter().map(|(_, v)| ("submodel", *v)));
            values.push(("value", *value));
        }
        SolvedMeasures::SemiMarkov {
            steady_state,
            availability,
            interval_availability,
            ..
        } => {
            values.extend(steady_state.iter().map(|(_, p)| ("steady_state", *p)));
            values.extend(availability.map(|a| ("availability", a)));
            values.extend(
                interval_availability
                    .iter()
                    .flatten()
                    .map(|(_, a)| ("interval_availability", *a)),
            );
        }
        SolvedMeasures::Uncertainty {
            measure,
            mean,
            ci_lower,
            ci_upper,
            ..
        } if measure == "availability" => {
            values.extend([
                ("mean", *mean),
                ("ci_lower", *ci_lower),
                ("ci_upper", *ci_upper),
            ]);
        }
        SolvedMeasures::Bounds {
            exact,
            ep_lower,
            ep_upper,
            truncated_lower,
            truncated_upper,
            ..
        } => {
            values.extend(exact.map(|p| ("exact", p)));
            values.extend(ep_lower.map(|p| ("ep_lower", p)));
            values.extend(ep_upper.map(|p| ("ep_upper", p)));
            values.extend([
                ("truncated_lower", *truncated_lower),
                ("truncated_upper", *truncated_upper),
            ]);
        }
        _ => {}
    }
    match values.iter().find(|(_, v)| !(0.0..=1.0).contains(v)) {
        Some((name, v)) => Err(format!("{} {name} = {v} lies outside [0, 1]", m.kind())),
        None => Ok(()),
    }
}

/// The materialized and streamed solves of one net agree to 1e-8.
pub fn spn_solves_agree(
    materialized: &SolvedMeasures,
    stream: &SolvedMeasures,
) -> Result<(), String> {
    let (
        SolvedMeasures::Spn {
            num_markings: n1,
            expected_tokens: e1,
            throughput: t1,
        },
        SolvedMeasures::Spn {
            num_markings: n2,
            expected_tokens: e2,
            throughput: t2,
        },
    ) = (materialized, stream)
    else {
        return Err("kernel_mix net did not solve as an spn".to_owned());
    };
    if n1 != n2 || e1.len() != e2.len() || t1.len() != t2.len() {
        return Err("materialized and stream solves differ in shape".to_owned());
    }
    for ((name, a), (_, b)) in e1.iter().chain(t1).zip(e2.iter().chain(t2)) {
        if (a - b).abs() > 1e-8 * a.abs().max(1.0) {
            return Err(format!("{name}: materialized {a} vs stream {b}"));
        }
    }
    Ok(())
}
