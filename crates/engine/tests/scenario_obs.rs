//! Scenario solves stay observable: every inner evaluation of an
//! uncertainty sweep or a hierarchy sweep counts as one solve, and every
//! span it opens, on whichever worker thread, nests under the batch that
//! caused it. One test in this binary, because subscribers and counters
//! are process-global.

use std::collections::HashMap;
use std::sync::Arc;

use reliab_core::resolve_threads;
use reliab_engine::BatchEngine;
use reliab_obs::{self as obs, ProfileSubscriber};
use reliab_spec::json::{self, JsonValue};
use reliab_spec::SolvedMeasures;

/// An uncertainty sweep of `samples` solves of a three-state CTMC.
fn uncertainty(samples: usize) -> String {
    format!(
        r#"{{"uncertainty": {{
             "model": {{"ctmc": {{
               "states": ["both", "one", "none"],
               "transitions": [
                 {{"from": "both", "to": "one", "rate": 0.02}},
                 {{"from": "one", "to": "both", "rate": 1.0}},
                 {{"from": "one", "to": "none", "rate": 0.01}},
                 {{"from": "none", "to": "one", "rate": 1.0}}],
               "up_states": ["both", "one"]}}}},
             "parameters": [
               {{"path": "ctmc.transitions.0.rate",
                 "prior": {{"rate_posterior": {{"failures": 12, "total_time": 600.0}}}}}},
               {{"path": "ctmc.transitions.1.rate",
                 "prior": {{"gamma": {{"shape": 4.0, "rate": 4.0}}}}}}],
             "measure": "availability",
             "samples": {samples}}}}}"#
    )
}

/// `(name, parent)` of every span the profile recorded, by span id.
fn spans(profile: &ProfileSubscriber) -> HashMap<u64, (String, u64)> {
    let trace = json::parse(&profile.to_chrome_trace()).expect("valid chrome trace");
    let events = trace.get("traceEvents").and_then(JsonValue::as_array);
    let arg = |e: &JsonValue, key: &str| {
        e.get("args")
            .and_then(|a| a.get(key))
            .and_then(JsonValue::as_f64)
            .expect("span ids in args") as u64
    };
    events
        .expect("traceEvents")
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("B"))
        .map(|e| {
            let name = e.get("name").and_then(JsonValue::as_str).unwrap_or("");
            (arg(e, "span"), (name.to_owned(), arg(e, "parent")))
        })
        .collect()
}

#[test]
fn scenario_solves_are_counted_and_nested_under_the_batch() {
    let profile = Arc::new(ProfileSubscriber::new());
    obs::install_subscriber(profile.clone());
    obs::set_metrics_enabled(true);
    let solves = || obs::registry().counter("spec.solves").get();

    // N samples: N inner solves plus the uncertainty solve itself, at
    // budgets of one thread, one per CPU, and three: a lone document
    // gets the engine's whole budget, and the sampler runs that many
    // workers.
    for jobs in [1, 0, 3] {
        let engine = BatchEngine::new().with_jobs(jobs);
        let before = solves();
        let report = engine
            .solve_texts(&[uncertainty(40)])
            .remove(0)
            .unwrap_or_else(|e| panic!("jobs {jobs}: {e}"));
        assert_eq!(solves() - before, 41, "jobs {jobs}");
        assert_eq!(report.stats.workers, resolve_threads(jobs), "jobs {jobs}");
    }

    // A cyclic hierarchy of four CTMCs swept on two workers: four
    // solves per sweep plus the hierarchy solve.
    let cyclic = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../specs/cyclic_hierarchy.json"
    ))
    .unwrap();
    let engine = BatchEngine::new().with_jobs(2);
    let before = solves();
    let report = engine.solve_texts(&[cyclic]).remove(0).expect("solves");
    assert_eq!(report.stats.workers, 2);
    let SolvedMeasures::Hierarchy { iterations, .. } = report.measures else {
        panic!("expected a hierarchy");
    };
    assert_eq!(solves() - before, 4 * iterations as u64 + 1);

    obs::clear_subscribers();
    obs::set_metrics_enabled(false);

    let spans = spans(&profile);
    let inner = spans.values().filter(|(n, _)| n == "spec.solve").count();
    assert_eq!(inner, 3 * 41 + 4 * iterations + 1);
    for (id, (name, _)) in &spans {
        let mut at = *id;
        while spans[&at].1 != 0 {
            at = spans[&at].1;
        }
        assert_eq!(
            spans[&at].0, "engine.batch",
            "span {id} ({name}) descends from '{}', not the batch",
            spans[&at].0
        );
    }
}
