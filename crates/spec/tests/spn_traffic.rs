//! One walk per SPN solve, and each row read from where the budget
//! left it: without a budget the walk keeps every row and the solve
//! regenerates none; under a budget the rows fit, it keeps them too;
//! under one they do not fit, it keeps none and the solve regenerates
//! them from the marking arena. A test binary of its own, because trace
//! subscribers and the metrics registry are process-global.

use reliab_markov::{cached_solve_bytes, scan_rates};
use reliab_obs as obs;
use reliab_spec::{solve_str_with, ModelSpec, SolveOptions, SpnSpec, SpnTimingSpec};
use reliab_spn::{ReachabilityOptions, SpaceRows, Spn, SpnBuilder};
use std::sync::Arc;

/// The named counter's current value.
fn counter(name: &str) -> u64 {
    obs::registry()
        .snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// The net of an SPN spec, built directly with `reliab-spn`.
fn net(spec: &SpnSpec) -> Spn {
    let mut b = SpnBuilder::new();
    let places: Vec<_> = spec
        .places
        .iter()
        .map(|p| b.place(&p.name, p.tokens))
        .collect();
    let place = |name: &str| places[spec.places.iter().position(|p| p.name == name).unwrap()];
    for t in &spec.transitions {
        let id = match t.timing {
            SpnTimingSpec::Timed { rate } => b.timed(&t.name, rate),
            SpnTimingSpec::Immediate { weight, priority } => b.immediate(&t.name, weight, priority),
        };
        for a in &t.inputs {
            b.input_arc(id, place(&a.place), a.count);
        }
        for a in &t.outputs {
            b.output_arc(id, place(&a.place), a.count);
        }
        for a in &t.inhibitors {
            b.inhibitor_arc(id, place(&a.place), a.count);
        }
    }
    b.build().unwrap()
}

/// A budget that holds the marking space and a one-block solve's vectors
/// and column slices, but not the kept rows as well: the solve is one
/// fully cached block over regenerated rows.
fn regenerating_budget(text: &str) -> usize {
    let ModelSpec::Spn(spec) = ModelSpec::from_json_str(text).unwrap() else {
        panic!("an SPN spec");
    };
    let net = net(&spec);
    let ropts = ReachabilityOptions {
        max_markings: spec.max_markings.unwrap(),
        ..Default::default()
    };
    let space = net.tangible_space(&ropts).unwrap();
    let n = space.num_markings();
    let arcs = scan_rates(&SpaceRows::new(&space)).unwrap().arcs as usize;
    space.resident_bytes() + cached_solve_bytes(n, arcs)
}

#[test]
fn spn_solves_walk_once_and_keep_or_regenerate_rows_by_budget() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../specs/tandem_rework.json"
    ))
    .unwrap();
    let tight = regenerating_budget(&text);
    let mem = Arc::new(obs::MemorySubscriber::default());
    obs::install_subscriber(mem.clone());
    obs::set_metrics_enabled(true);
    let names = [
        "spn.reach.markings",
        "spn.reach.arcs",
        "spn.space.markings",
        "spn.rows.regenerated",
    ];
    let mut reports = Vec::new();
    for budget in [None, Some(1usize << 30), Some(tight)] {
        mem.clear();
        let before = names.map(counter);
        let mut opts = SolveOptions::default();
        opts.mem_budget = budget;
        let report = solve_str_with(&text, &opts).unwrap();
        let [kept_markings, kept_arcs, space_markings, regenerated] = {
            let after = names.map(counter);
            [0, 1, 2, 3].map(|k| after[k] - before[k])
        };
        let n = report.stats.spn_markings.unwrap() as u64;
        assert_eq!(n, 729);
        if budget.is_none() {
            assert_eq!(mem.count_spans("spn.reach"), 1);
            assert_eq!(mem.count_spans("spn.space"), 0);
            assert_eq!(kept_markings, n);
            assert_eq!(kept_arcs, report.stats.spn_arcs.unwrap() as u64);
            assert_eq!(space_markings, 0);
        } else {
            assert_eq!(mem.count_spans("spn.reach"), 0);
            assert_eq!(mem.count_spans("spn.space"), 1);
            assert_eq!((kept_markings, kept_arcs), (0, 0), "{budget:?}");
            assert_eq!(space_markings, n);
        }
        if budget == Some(tight) {
            // The planning scan, then the one cached slice's fill.
            assert_eq!(regenerated, 2 * n, "the rows did not fit {tight} bytes");
        } else {
            assert_eq!(
                regenerated, 0,
                "kept rows are never regenerated, {budget:?}"
            );
        }
        assert_eq!(mem.count_spans("stream.scan"), 1, "budget {budget:?}");
        assert_eq!(report.stats.method, Some("stream-sor"), "{budget:?}");
        reports.push(report.measures);
    }
    obs::clear_subscribers();
    assert!(reports.iter().all(|m| *m == reports[0]), "{reports:?}");
}
