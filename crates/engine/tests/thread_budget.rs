//! The thread budget is split once per parallel layer: a batch spreads
//! its inputs over `min(budget, inputs)` workers and solves each on one
//! thread; a lone input gets the whole budget, which the uncertainty
//! sampler, the hierarchy sweep and SPN reachability split the same
//! way. No solve runs more threads than its budget. One test in this
//! binary, because subscribers are process-global.

use std::sync::Arc;

use reliab_engine::BatchEngine;
use reliab_obs::{self as obs, MemorySubscriber, OwnedValue, TraceRecord};
use reliab_spec::SolveReport;

const BUDGET: usize = 4;

/// An M/M/1/3 queue as an SPN.
const SPN: &str = r#"{"spn": {
  "places": [{"name": "queue", "tokens": 0}],
  "transitions": [
    {"name": "arrive", "rate": 1.0, "outputs": [{"place": "queue"}],
     "inhibitors": [{"place": "queue", "count": 3}]},
    {"name": "serve", "rate": 2.0, "inputs": [{"place": "queue"}]}],
  "expected_tokens": ["queue"]}}"#;

fn rbd(availability: f64) -> String {
    format!(
        r#"{{"rbd": {{"components": [{{"name": "a", "availability": {availability}}}],
                     "structure": "a"}}}}"#
    )
}

/// Solves one batch at the test budget, memo off.
fn solve(docs: &[String]) -> Vec<SolveReport> {
    BatchEngine::new()
        .with_jobs(BUDGET)
        .with_memoization(false)
        .solve_texts(docs)
        .into_iter()
        .map(|r| r.expect("document solves"))
        .collect()
}

/// The `workers` field of every captured event named `name`.
fn event_workers(trace: &MemorySubscriber, name: &str) -> Vec<u64> {
    trace
        .records()
        .into_iter()
        .filter_map(|r| match r {
            TraceRecord::Event {
                name: n, fields, ..
            } if n == name => fields.into_iter().find_map(|(k, v)| match (k.as_str(), v) {
                ("workers", OwnedValue::U64(w)) => Some(w),
                _ => None,
            }),
            _ => None,
        })
        .collect()
}

#[test]
fn every_layer_splits_one_budget() {
    let trace = Arc::new(MemorySubscriber::default());
    obs::install_subscriber(trace.clone());

    // Three documents: three engine workers, each solve on one thread.
    let reports = solve(&[rbd(0.9), rbd(0.8), SPN.to_owned()]);
    assert_eq!(event_workers(&trace, "engine.batch"), vec![3]);
    for r in &reports {
        assert_eq!(r.stats.workers, 1, "{:?}", r.measures.kind());
    }
    assert_eq!(event_workers(&trace, "spn.reach.done"), vec![1]);

    // A lone SPN generates its state space on the whole budget.
    trace.clear();
    let lone = solve(&[SPN.to_owned()]).remove(0);
    assert_eq!(lone.stats.workers, BUDGET);
    assert_eq!(event_workers(&trace, "spn.reach.done"), vec![BUDGET as u64]);
    assert_eq!(lone.measures, reports[2].measures);

    // An uncertainty sweep over that SPN: four sampler workers, each
    // sample's reachability on one thread.
    trace.clear();
    let samples = 12;
    let uncertainty = format!(
        r#"{{"uncertainty": {{"model": {SPN},
             "parameters": [{{"path": "spn.transitions.1.rate",
                              "prior": {{"uniform": {{"low": 1.5, "high": 2.5}}}}}}],
             "samples": {samples}}}}}"#
    );
    let swept = solve(&[uncertainty]).remove(0);
    assert_eq!(swept.stats.workers, BUDGET);
    let reach = event_workers(&trace, "spn.reach.done");
    assert_eq!(reach, vec![1; samples]);

    // A hierarchy with two importing submodels: a two-worker sweep.
    let hierarchy = r#"{"hierarchy": {"submodels": [
        {"name": "a", "model": {"rbd": {"components": [{"name": "x", "availability": 0.9}],
                                       "structure": "x"}},
         "measure": "availability"},
        {"name": "b", "model": {"rbd": {"components": [{"name": "y", "availability": 0.5}],
                                       "structure": "y"}},
         "measure": "availability",
         "imports": [{"from": "a", "path": "rbd.components.0.availability"}]},
        {"name": "c", "model": {"rbd": {"components": [{"name": "z", "availability": 0.5}],
                                       "structure": "z"}},
         "measure": "availability",
         "imports": [{"from": "b", "path": "rbd.components.0.availability"}]}]}}"#;
    let swept = solve(&[hierarchy.to_owned()]).remove(0);
    assert_eq!(swept.stats.workers, 2);

    obs::clear_subscribers();
}
