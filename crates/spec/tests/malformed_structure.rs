//! Malformed RBD and fault-tree documents: each fault, in either class,
//! fails with the same error kind and message, in the class's own
//! terms (series/parallel/component for block diagrams, AND/OR/event
//! for fault trees).

use reliab_core::Error;
use reliab_spec::{solve_str_with, SolveOptions};

/// `(case, error kind, message)`, one row per document of [`cases`].
const EXPECTED: [(&str, &str, &str); 48] = [
    ("rbd empty series", "model", "empty series group"),
    ("rbd empty parallel", "model", "empty parallel group"),
    ("rbd empty k_of_n", "model", "empty k-of-n group"),
    ("rbd k = 0", "model", "k-of-n with k = 0 outside 1..=2"),
    ("rbd k > n", "model", "k-of-n with k = 3 outside 1..=2"),
    ("rbd unknown name", "model", "unknown component 'zz'"),
    ("rbd duplicate name", "model", "duplicate component 'a'"),
    ("rbd unknown name, simulated", "model", "unknown component 'zz'"),
    ("rbd duplicate name, simulated", "model", "duplicate component 'a'"),
    ("rbd unknown combinator", "invalid_parameter", "specification does not match schema: unknown structure combinator 'xor'"),
    ("rbd two combinator keys", "invalid_parameter", "specification does not match schema: structure object must have exactly one key ('series', 'parallel', or 'k_of_n')"),
    ("rbd node neither name nor object", "invalid_parameter", "specification does not match schema: structure must be a name or a combinator object"),
    ("rbd item without value", "invalid_parameter", "specification does not match schema: component 'a' needs an 'availability' or a 'ttf_dist'"),
    ("rbd ttr_dist without ttf_dist", "invalid_parameter", "specification does not match schema: component 'a' has a 'ttr_dist' but no 'ttf_dist'"),
    ("rbd value not a number", "invalid_parameter", "specification does not match schema: 'availability' must be a number"),
    ("rbd unknown item key", "invalid_parameter", "specification does not match schema: unknown field 'mtbf' in component"),
    ("rbd no items", "model", "RBD has no components"),
    ("rbd k not an integer", "invalid_parameter", "specification does not match schema: 'k' must be a non-negative integer"),
    ("rbd k_of_n without of", "invalid_parameter", "specification does not match schema: k_of_n is missing required field 'of'"),
    ("rbd members not an array", "invalid_parameter", "specification does not match schema: 'parallel' must be an array"),
    ("rbd items not an array", "invalid_parameter", "specification does not match schema: rbd 'components' must be an array"),
    ("rbd other class's key", "invalid_parameter", "specification does not match schema: unknown field 'max_cut_sets' in rbd"),
    ("rbd item without name", "invalid_parameter", "specification does not match schema: component is missing required field 'name'"),
    ("rbd value out of range", "invalid_parameter", "availability of 'a' must lie in [0,1], got 1.5"),
    ("fault_tree empty and", "model", "empty AND gate"),
    ("fault_tree empty or", "model", "empty OR gate"),
    ("fault_tree empty k_of_n", "model", "empty k-of-n gate"),
    ("fault_tree k = 0", "model", "k-of-n gate with k = 0 outside 1..=2"),
    ("fault_tree k > n", "model", "k-of-n gate with k = 3 outside 1..=2"),
    ("fault_tree unknown name", "model", "unknown event 'zz'"),
    ("fault_tree duplicate name", "model", "duplicate event 'a'"),
    ("fault_tree unknown name, simulated", "model", "unknown event 'zz'"),
    ("fault_tree duplicate name, simulated", "model", "duplicate event 'a'"),
    ("fault_tree unknown combinator", "invalid_parameter", "specification does not match schema: unknown gate type 'xor'"),
    ("fault_tree two combinator keys", "invalid_parameter", "specification does not match schema: gate object must have exactly one key ('and', 'or', or 'k_of_n')"),
    ("fault_tree node neither name nor object", "invalid_parameter", "specification does not match schema: gate must be an event name or a gate object"),
    ("fault_tree item without value", "invalid_parameter", "specification does not match schema: event 'a' needs a 'probability' or a 'ttf_dist'"),
    ("fault_tree ttr_dist without ttf_dist", "invalid_parameter", "specification does not match schema: event 'a' has a 'ttr_dist' but no 'ttf_dist'"),
    ("fault_tree value not a number", "invalid_parameter", "specification does not match schema: 'probability' must be a number"),
    ("fault_tree unknown item key", "invalid_parameter", "specification does not match schema: unknown field 'mtbf' in event"),
    ("fault_tree no items", "model", "fault tree has no basic events"),
    ("fault_tree k not an integer", "invalid_parameter", "specification does not match schema: 'k' must be a non-negative integer"),
    ("fault_tree k_of_n without of", "invalid_parameter", "specification does not match schema: k_of_n is missing required field 'of'"),
    ("fault_tree members not an array", "invalid_parameter", "specification does not match schema: 'or' must be an array"),
    ("fault_tree items not an array", "invalid_parameter", "specification does not match schema: fault_tree 'events' must be an array"),
    ("fault_tree other class's key", "invalid_parameter", "specification does not match schema: unknown field 'structure' in fault_tree"),
    ("fault_tree item without name", "invalid_parameter", "specification does not match schema: event is missing required field 'name'"),
    ("fault_tree value out of range", "invalid_parameter", "failure probability of 'a' must lie in [0,1], got 1.5"),
];

#[test]
fn malformed_documents_fail_with_the_class_terms() {
    let cases = cases();
    assert_eq!(cases.len(), EXPECTED.len());
    for ((name, doc), (want_name, want_kind, want_message)) in cases.iter().zip(EXPECTED) {
        assert_eq!(name, want_name);
        let err = solve_str_with(doc, &SolveOptions::default())
            .expect_err(&format!("{name}: document solved"));
        let (kind, message) = match &err {
            Error::Model(m) => ("model", m),
            Error::InvalidParameter(m) => ("invalid_parameter", m),
            other => panic!("{name}: unexpected error {other:?}"),
        };
        assert_eq!(
            (kind, message.as_str()),
            (want_kind, want_message),
            "{name}"
        );
    }
}

/// An RBD document with an optional two-replication `sim` block.
fn rbd(components: &str, structure: &str, sim: bool) -> String {
    let sim = if sim {
        r#", "sim": {"measure": "availability", "horizon": 10, "max_replications": 2}"#
    } else {
        ""
    };
    format!(r#"{{"rbd": {{"components": [{components}], "structure": {structure}{sim}}}}}"#)
}
/// The fault-tree counterpart of [`rbd`].
fn ft(events: &str, top: &str, sim: bool) -> String {
    let sim = if sim {
        r#", "sim": {"measure": "availability", "horizon": 10, "max_replications": 2}"#
    } else {
        ""
    };
    format!(r#"{{"fault_tree": {{"events": [{events}], "top": {top}{sim}}}}}"#)
}

/// One document per fault and class, named for the table.
fn cases() -> Vec<(String, String)> {
    let ra = r#"{"name": "a", "availability": 0.9}, {"name": "b", "availability": 0.8}"#;
    let fa = r#"{"name": "a", "probability": 0.1}, {"name": "b", "probability": 0.2}"#;
    let rs = r#"{"name": "a", "ttf_dist": {"exponential": {"rate": 1}}, "ttr_dist": {"exponential": {"rate": 10}}}, {"name": "b", "ttf_dist": {"exponential": {"rate": 2}}, "ttr_dist": {"exponential": {"rate": 10}}}"#;
    let mut v = Vec::new();
    for (cls, items, sitems, all, any, value) in [
        ("rbd", ra, rs, "series", "parallel", "availability"),
        ("fault_tree", fa, rs, "and", "or", "probability"),
    ] {
        let mk = |items: &str, node: &str, sim: bool| {
            if cls == "rbd" {
                rbd(items, node, sim)
            } else {
                ft(items, node, sim)
            }
        };
        v.push((
            format!("{cls} empty {all}"),
            mk(items, &format!(r#"{{"{all}": []}}"#), false),
        ));
        v.push((
            format!("{cls} empty {any}"),
            mk(items, &format!(r#"{{"{any}": []}}"#), false),
        ));
        v.push((
            format!("{cls} empty k_of_n"),
            mk(items, r#"{"k_of_n": {"k": 1, "of": []}}"#, false),
        ));
        v.push((
            format!("{cls} k = 0"),
            mk(items, r#"{"k_of_n": {"k": 0, "of": ["a", "b"]}}"#, false),
        ));
        v.push((
            format!("{cls} k > n"),
            mk(items, r#"{"k_of_n": {"k": 3, "of": ["a", "b"]}}"#, false),
        ));
        v.push((
            format!("{cls} unknown name"),
            mk(items, &format!(r#"{{"{all}": ["a", "zz"]}}"#), false),
        ));
        v.push((
            format!("{cls} duplicate name"),
            mk(
                &format!(
                    "{items}, {}",
                    items.split("}, ").next().unwrap().to_owned() + "}"
                ),
                &format!(r#"{{"{all}": ["a", "b"]}}"#),
                false,
            ),
        ));
        v.push((
            format!("{cls} unknown name, simulated"),
            mk(sitems, &format!(r#"{{"{any}": ["a", "zz"]}}"#), true),
        ));
        v.push((
            format!("{cls} duplicate name, simulated"),
            mk(
                &format!(
                    "{sitems}, {}",
                    sitems.split("}}}, ").next().unwrap().to_owned() + "}}}"
                ),
                &format!(r#"{{"{any}": ["a", "b"]}}"#),
                true,
            ),
        ));
        v.push((
            format!("{cls} unknown combinator"),
            mk(items, r#"{"xor": ["a", "b"]}"#, false),
        ));
        v.push((
            format!("{cls} two combinator keys"),
            mk(
                items,
                &format!(r#"{{"{all}": ["a"], "{any}": ["b"]}}"#),
                false,
            ),
        ));
        v.push((
            format!("{cls} node neither name nor object"),
            mk(items, "7", false),
        ));
        v.push((
            format!("{cls} item without value"),
            mk(r#"{"name": "a"}"#, r#""a""#, false),
        ));
        v.push((format!("{cls} ttr_dist without ttf_dist"), mk(&format!(r#"{{"name": "a", "{value}": 0.5, "ttr_dist": {{"exponential": {{"rate": 1}}}}}}"#), r#""a""#, false)));
        v.push((
            format!("{cls} value not a number"),
            mk(
                &format!(r#"{{"name": "a", "{value}": "x"}}"#),
                r#""a""#,
                false,
            ),
        ));
        v.push((
            format!("{cls} unknown item key"),
            mk(
                &format!(r#"{{"name": "a", "{value}": 0.5, "mtbf": 3}}"#),
                r#""a""#,
                false,
            ),
        ));
        v.push((
            format!("{cls} no items"),
            mk("", &format!(r#"{{"{all}": []}}"#), false),
        ));
        v.push((
            format!("{cls} k not an integer"),
            mk(items, r#"{"k_of_n": {"k": 1.5, "of": ["a", "b"]}}"#, false),
        ));
        v.push((
            format!("{cls} k_of_n without of"),
            mk(items, r#"{"k_of_n": {"k": 1}}"#, false),
        ));
        v.push((
            format!("{cls} members not an array"),
            mk(items, &format!(r#"{{"{any}": "a"}}"#), false),
        ));
        v.push((
            format!("{cls} items not an array"),
            if cls == "rbd" {
                r#"{"rbd": {"components": {}, "structure": "a"}}"#.to_owned()
            } else {
                r#"{"fault_tree": {"events": {}, "top": "a"}}"#.to_owned()
            },
        ));
        v.push((
            format!("{cls} other class's key"),
            if cls == "rbd" {
                format!(
                    r#"{{"rbd": {{"components": [{items}], "structure": "a", "max_cut_sets": 5}}}}"#
                )
            } else {
                format!(r#"{{"fault_tree": {{"events": [{items}], "structure": "a"}}}}"#)
            },
        ));
        v.push((
            format!("{cls} item without name"),
            mk(&format!(r#"{{"{value}": 0.5}}"#), r#""a""#, false),
        ));
        v.push((
            format!("{cls} value out of range"),
            mk(
                &format!(r#"{{"name": "a", "{value}": 1.5}}"#),
                r#""a""#,
                false,
            ),
        ));
    }
    v
}
