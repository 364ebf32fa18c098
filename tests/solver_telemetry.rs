//! Every shipped spec file must come back with *populated* solver
//! telemetry — a `SolveReport` whose stats still carry their defaults
//! means an instrumentation path was silently dropped.

use reliab::obs;
use reliab::spec::{solve_str_with, SolveOptions, SolveReport, SteadySolver};
use std::sync::{Arc, Mutex, MutexGuard};

/// The trace subscriber is process-global, so a solve in one test
/// would land its spans in the other's snapshot: the tests of this
/// binary run one at a time under this lock.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

const SPEC_FILES: [&str; 4] = [
    "bridge_network.json",
    "database_node.json",
    "multiprocessor.json",
    "two_component.json",
];

const METHODS: [SteadySolver; 4] = [
    SteadySolver::Auto,
    SteadySolver::Gth,
    SteadySolver::Sor,
    SteadySolver::Power,
];

fn solve_file(name: &str, method: SteadySolver) -> SolveReport {
    let path = format!("{}/specs/{name}", env!("CARGO_MANIFEST_DIR"));
    let contents =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let opts = SolveOptions::default().with_steady_solver(method);
    solve_str_with(&contents, &opts).unwrap_or_else(|e| panic!("{name} failed to solve: {e}"))
}

fn kind_of(name: &str) -> &'static str {
    match name {
        "bridge_network.json" => "rel_graph",
        "database_node.json" => "rbd",
        "multiprocessor.json" => "fault_tree",
        "two_component.json" => "ctmc",
        other => panic!("unknown spec file {other}"),
    }
}

#[test]
fn every_spec_and_method_populates_stats() {
    let _serial = serial();
    for file in SPEC_FILES {
        for method in METHODS {
            let report = solve_file(file, method);
            let stats = &report.stats;
            let ctx = format!("{file} with {method:?}");

            assert!(
                stats.wall_time.as_nanos() > 0,
                "{ctx}: wall_time not recorded"
            );
            match kind_of(file) {
                "ctmc" => {
                    assert!(stats.iterations > 0, "{ctx}: no iteration count");
                    let m = stats.method.unwrap_or_else(|| panic!("{ctx}: no method"));
                    match method {
                        SteadySolver::Gth => assert_eq!(m, "gth", "{ctx}"),
                        SteadySolver::Sor => assert_eq!(m, "sor", "{ctx}"),
                        SteadySolver::Power => assert_eq!(m, "power", "{ctx}"),
                        // Auto resolves to a concrete method name.
                        _ => assert!(["gth", "sor", "power"].contains(&m), "{ctx}: {m}"),
                    }
                    let residual = stats
                        .residual
                        .unwrap_or_else(|| panic!("{ctx}: no residual"));
                    assert!(residual.is_finite() && residual >= 0.0, "{ctx}: {residual}");
                    if matches!(method, SteadySolver::Sor | SteadySolver::Power) {
                        assert!(residual > 0.0, "{ctx}: iterative residual should be > 0");
                    }
                }
                // BDD-backed models: table sizes and cache counters.
                _ => {
                    let nodes = stats
                        .bdd_nodes
                        .unwrap_or_else(|| panic!("{ctx}: no bdd_nodes"));
                    assert!(nodes > 0, "{ctx}: empty BDD arena");
                    let lookups = stats
                        .bdd_cache_lookups
                        .unwrap_or_else(|| panic!("{ctx}: no bdd_cache_lookups"));
                    assert!(lookups > 0, "{ctx}: BDD never consulted its cache");
                    assert!(
                        stats.bdd_cache_hits.is_some(),
                        "{ctx}: no bdd_cache_hits counter"
                    );
                    assert!(stats.iterations > 0, "{ctx}: iterations not set");
                }
            }
        }
    }
}

/// Single in-process trace test: subscribers are process-global, so
/// all assertions live in one `#[test]`, which holds [`SERIAL`] while
/// its subscriber is installed.
#[test]
fn trace_covers_solver_layers() {
    let _serial = serial();
    let mem = Arc::new(obs::MemorySubscriber::default());
    obs::install_subscriber(mem.clone());
    obs::set_metrics_enabled(true);

    for file in SPEC_FILES {
        solve_file(file, SteadySolver::Auto);
    }

    assert!(mem.count_spans("spec.solve") >= 4);
    assert!(mem.count_spans("markov.steady") >= 1);
    assert!(mem.count_spans("ftree.compile_bdd") >= 1);
    assert!(mem.count_spans("rbd.compile_bdd") >= 1);
    assert!(mem.count_events("markov.iteration") >= 1);
    assert!(mem.count_events("bdd.ite") >= 1);
    assert!(mem.count_events("spec.solved") >= 4);

    // Spans nest: every spec.solve span must have enclosed at least
    // one child span or event.
    let records = mem.records();
    let solve_ids: Vec<u64> = records
        .iter()
        .filter_map(|r| match r {
            obs::TraceRecord::SpanStart {
                id,
                name: "spec.solve",
                ..
            } => Some(*id),
            _ => None,
        })
        .collect();
    for id in solve_ids {
        let has_child = records.iter().any(|r| match r {
            obs::TraceRecord::SpanStart { parent, .. } => *parent == id,
            obs::TraceRecord::Event { span, .. } => *span == id,
            _ => false,
        });
        assert!(has_child, "span {id} (spec.solve) has no children");
    }

    // The metrics registry picked up series from several layers.
    let snapshot = obs::registry().snapshot();
    assert!(
        snapshot.series_count() >= 8,
        "expected >= 8 metric series, got {}",
        snapshot.series_count()
    );

    obs::clear_subscribers();
    obs::set_metrics_enabled(false);
}

/// A semi-Markov interval availability reports its uniformization
/// pass: one `markov.transient.interval` event with the horizon, the
/// matrix–vector products and the Poisson window, whose width stays
/// within `16·√λ + 8` terms. `rejuvenation_smp.json` at t = 100 h has
/// λ = q·t ≈ 13,056, whose window spanned [0, 26,111] before the
/// relative tail stop.
#[test]
fn interval_availability_reports_its_poisson_window() {
    let _serial = serial();
    let path = format!("{}/specs/rejuvenation_smp.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
        .replace("[1000.0, 10000.0]", "[100.0]");
    let mem = Arc::new(obs::MemorySubscriber::default());
    obs::install_subscriber(mem.clone());
    let solved = solve_str_with(&text, &SolveOptions::default());
    obs::clear_subscribers();
    solved.expect("rejuvenation_smp.json solves at t = 100 h");

    let events: Vec<_> = mem
        .records()
        .into_iter()
        .filter_map(|r| match r {
            obs::TraceRecord::Event { name, fields, .. } if name == "markov.transient.interval" => {
                Some(fields)
            }
            _ => None,
        })
        .collect();
    assert_eq!(events.len(), 1, "one interval, one event");
    let field = |name: &str| {
        events[0]
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("no field {name}"))
            .1
            .clone()
    };
    assert_eq!(field("t"), obs::OwnedValue::F64(100.0));
    let count = |name: &str| field(name).as_u64().unwrap_or_else(|| panic!("{name}"));
    let (left, right) = (count("poisson_left"), count("poisson_right"));
    // λ lies in the window, so √λ ≤ √(right + 1).
    let width = (right - left) as f64;
    assert!(
        left > 0 && width <= 16.0 * ((right + 1) as f64).sqrt() + 8.0,
        "[{left}, {right}]"
    );
    assert!(12_000 < left && right < 14_000, "[{left}, {right}]");
    // The recurrence steps through the window's last term.
    assert_eq!(count("matvecs"), right);
}
