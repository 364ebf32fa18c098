//! The thread budget is split once per parallel layer: a batch spreads
//! its inputs over `min(budget, inputs)` workers and solves each on one
//! thread; a lone input gets the whole budget, which the uncertainty
//! sampler, the hierarchy sweep and simulation replications split the
//! same way. SPN state-space generation always runs on the calling
//! thread. No solve runs more threads than its budget. One test in this
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

/// A two-workstation, one-file-server RBD solved by simulation.
const SIM: &str = r#"{"rbd": {
  "components": [
    {"name": "ws1", "ttf_dist": {"exponential": {"mean": 500.0}},
     "ttr_dist": {"exponential": {"mean": 5.0}}},
    {"name": "ws2", "ttf_dist": {"exponential": {"mean": 500.0}},
     "ttr_dist": {"exponential": {"mean": 5.0}}},
    {"name": "fs", "ttf_dist": {"exponential": {"mean": 2000.0}},
     "ttr_dist": {"exponential": {"mean": 4.0}}}],
  "structure": {"series": [{"parallel": ["ws1", "ws2"]}, "fs"]},
  "sim": {"measure": "availability", "horizon": 500.0, "seed": 8,
          "max_replications": 16, "rel_precision": 0.0}}}"#;

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

/// How many captured events are named `name`.
fn event_count(trace: &MemorySubscriber, name: &str) -> usize {
    trace
        .records()
        .into_iter()
        .filter(|r| matches!(r, TraceRecord::Event { name: n, .. } if n == name))
        .count()
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
    assert_eq!(event_count(&trace, "spn.reach.done"), 1);

    // A lone simulated model runs its replications on the whole budget.
    trace.clear();
    let lone = solve(&[SIM.to_owned()]).remove(0);
    assert_eq!(lone.stats.workers, BUDGET);
    assert_eq!(event_workers(&trace, "sim.start"), vec![BUDGET as u64]);
    let sequential = reliab_spec::solve_str_with(SIM, &Default::default()).unwrap();
    assert_eq!(lone.measures, sequential.measures);

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
    assert_eq!(event_count(&trace, "spn.reach.done"), samples);

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
