//! Every model class that compiles a BDD reports a model with more
//! variables than the kernel's packed node format holds as a model
//! error, through the kernel's one limit check, instead of panicking.

use reliab_core::Error;
use reliab_spec::{solve_str_with, SolveOptions};

/// One more variable than `reliab_bdd::MAX_VARS`.
const N: usize = 65_536;

/// `N` comma-separated copies of `item(i)`.
fn items(item: impl Fn(usize) -> String) -> String {
    (0..N).map(item).collect::<Vec<_>>().join(",")
}

fn assert_limit_error(class: &str, doc: &str) {
    match solve_str_with(doc, &SolveOptions::default()) {
        Err(Error::Model(m)) => assert_eq!(
            m, "65536 variables exceed the packed-node limit of 65535 variables",
            "{class}"
        ),
        other => panic!("{class}: expected a model error, got {other:?}"),
    }
}

#[test]
fn rbd_over_the_variable_limit_is_a_model_error() {
    let components = items(|i| format!(r#"{{"name":"c{i}","availability":0.9}}"#));
    assert_limit_error(
        "rbd",
        &format!(r#"{{"rbd":{{"components":[{components}],"structure":"c0"}}}}"#),
    );
}

#[test]
fn fault_tree_over_the_variable_limit_is_a_model_error() {
    let events = items(|i| format!(r#"{{"name":"e{i}","probability":0.1}}"#));
    assert_limit_error(
        "fault_tree",
        &format!(r#"{{"fault_tree":{{"events":[{events}],"top":"e0"}}}}"#),
    );
}

#[test]
fn rel_graph_over_the_variable_limit_is_a_model_error() {
    let edges = items(|i| format!(r#"{{"name":"x{i}","from":"s","to":"t","reliability":0.9}}"#));
    assert_limit_error(
        "rel_graph",
        &format!(
            r#"{{"rel_graph":{{"nodes":["s","t"],"edges":[{edges}],"source":"s","sink":"t"}}}}"#
        ),
    );
}

#[test]
fn bounds_over_the_variable_limit_is_a_model_error() {
    let events = items(|i| format!(r#"{{"name":"e{i}","probability":0.1}}"#));
    assert_limit_error(
        "bounds",
        &format!(r#"{{"bounds":{{"events":[{events}],"cut_sets":[["e0"]]}}}}"#),
    );
}
