//! Differential harness for the streaming large-model tier: on every
//! shipped CTMC-bearing specification the streamed solve must match
//! the materialized path to 1e-8 (bitwise where a golden locks both),
//! the streamed result must be identical at any thread budget and any
//! memory budget that admits the model, and the one uniformization
//! kernel must match the Padé matrix exponential.

use reliab_markov::{steady_state, Ctmc, CtmcBuilder, PlanOutcome, StreamOptions};
use reliab_numeric::{expm, DenseMatrix};
use reliab_spec::{solve_str_with, ModelSpec, SolveOptions, SolvedMeasures};
use std::fs;

/// Shipped spec documents, smallest-first, excluding specs whose
/// declared marking cap exceeds the harness size budget (the large-net
/// exemplar is exercised by `bench-stream`, not per-test).
fn shipped_specs() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> =
        fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs"))
            .expect("specs directory ships with the repo")
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .map(|p| {
                (
                    p.file_stem().unwrap().to_string_lossy().into_owned(),
                    fs::read_to_string(&p).unwrap(),
                )
            })
            .filter(|(_, text)| match ModelSpec::from_json_str(text).unwrap() {
                ModelSpec::Spn(s) => s.max_markings.unwrap_or(0) <= 200_000,
                _ => true,
            })
            .collect();
    out.sort();
    assert!(!out.is_empty(), "no shipped specs found");
    out
}

/// One measure family, in declaration order: `(name, value)` pairs.
type Measures = Vec<(String, f64)>;

fn spn_measures(m: &SolvedMeasures) -> (usize, Measures, Measures) {
    match m {
        SolvedMeasures::Spn {
            num_markings,
            expected_tokens,
            throughput,
        } => (*num_markings, expected_tokens.clone(), throughput.clone()),
        other => panic!("expected SPN measures, got {other:?}"),
    }
}

fn assert_close(name: &str, what: &str, a: &[(String, f64)], b: &[(String, f64)]) {
    assert_eq!(a.len(), b.len(), "{name}: {what} arity");
    for ((na, va), (nb, vb)) in a.iter().zip(b) {
        assert_eq!(na, nb, "{name}: {what} order");
        assert!(
            (va - vb).abs() <= 1e-8 * va.abs().max(1.0),
            "{name}: {what} '{na}': materialized {va} vs streamed {vb}"
        );
    }
}

/// Every shipped SPN spec: the `--stream` tier must reproduce the
/// materialized path's measures to 1e-8.
#[test]
fn streamed_spn_specs_match_materialized_path() {
    let mut checked = 0;
    for (name, text) in shipped_specs() {
        if !matches!(ModelSpec::from_json_str(&text).unwrap(), ModelSpec::Spn(_)) {
            continue;
        }
        let mat = solve_str_with(&text, &SolveOptions::default()).unwrap();
        let streamed = solve_str_with(&text, &SolveOptions::default().with_stream(true)).unwrap();
        let (nm, te_m, th_m) = spn_measures(&mat.measures);
        let (ns, te_s, th_s) = spn_measures(&streamed.measures);
        assert_eq!(nm, ns, "{name}: marking count");
        assert_close(&name, "expected_tokens", &te_m, &te_s);
        assert_close(&name, "throughput", &th_m, &th_s);
        let method = streamed.stats.method.unwrap();
        assert!(method.starts_with("stream"), "{name}: ran {method}");
        checked += 1;
    }
    assert!(checked >= 1, "no SPN specs in specs/");
}

/// Any memory budget that admits the model must leave the streamed
/// measures identical (cached vs recomputed column slices are built
/// from the same row stream), and neither tier's result may depend on
/// the thread budget.
#[test]
fn streamed_specs_are_invariant_to_budget_and_threads() {
    for (name, text) in shipped_specs() {
        if !matches!(ModelSpec::from_json_str(&text).unwrap(), ModelSpec::Spn(_)) {
            continue;
        }
        let base = solve_str_with(&text, &SolveOptions::default().with_stream(true)).unwrap();
        let (n0, te0, th0) = spn_measures(&base.measures);
        // A generous budget and a tight-but-admitting one; the tight
        // budget forces multi-block sweeps with partial caching.
        let generous = 1usize << 30;
        let tight = base
            .stats
            .stream_peak_bytes
            .map_or(generous, |p| p as usize + (n0 * 16));
        for budget in [generous, tight] {
            let r = solve_str_with(
                &text,
                &SolveOptions::default()
                    .with_stream(true)
                    .with_mem_budget(budget),
            )
            .unwrap();
            let (n, te, th) = spn_measures(&r.measures);
            assert_eq!((n, &te, &th), (n0, &te0, &th0), "{name}: budget {budget}");
            assert_eq!(
                r.stats.stream_bounded,
                Some(false),
                "{name}: budget {budget}"
            );
        }
        // The thread budget: both tiers generate their space on the
        // calling thread whatever the budget, and neither moves a bit.
        let default = solve_str_with(&text, &SolveOptions::default()).unwrap();
        for threads in [2usize, 4] {
            let opts = SolveOptions::default().with_threads(threads);
            let r = solve_str_with(&text, &opts.clone().with_stream(true)).unwrap();
            assert_eq!(r.stats.workers, 1, "{name}: threads {threads}");
            let (n, te, th) = spn_measures(&r.measures);
            assert_eq!((n, &te, &th), (n0, &te0, &th0), "{name}: threads {threads}");
            let r = solve_str_with(&text, &opts).unwrap();
            assert_eq!(r.stats.workers, 1, "{name}: threads {threads}");
            assert_eq!(r.measures, default.measures, "{name}: threads {threads}");
        }
    }
}

/// Builds the plain CTMC of a shipped `ctmc` spec for the row-source
/// differential (the spec solver reports availability/MTTF, not π, so
/// the chain-level comparison runs against the markov crate directly).
fn ctmc_of(text: &str) -> Option<Ctmc> {
    let ModelSpec::Ctmc(spec) = ModelSpec::from_json_str(text).unwrap() else {
        return None;
    };
    let mut b = CtmcBuilder::new();
    let ids: Vec<_> = spec.states.iter().map(|s| b.state(s)).collect();
    let idx = |name: &str| ids[spec.states.iter().position(|s| s == name).unwrap()];
    for t in &spec.transitions {
        b.transition(idx(&t.from), idx(&t.to), t.rate).unwrap();
    }
    Some(b.build().unwrap())
}

/// Every shipped `ctmc` spec: block SOR over the chain as a row source
/// must match the in-core GTH solve to 1e-8 (skipping absorbing
/// chains, where no steady state exists for either path).
#[test]
fn streamed_ctmc_specs_match_in_core_steady_state() {
    let mut checked = 0;
    for (name, text) in shipped_specs() {
        let Some(ctmc) = ctmc_of(&text) else { continue };
        let exact = match ctmc.steady_state() {
            Ok(pi) => pi,
            Err(_) => continue, // absorbing spec: nothing to compare
        };
        let PlanOutcome::Exact(streamed) = steady_state(&ctmc, &StreamOptions::default()).unwrap()
        else {
            panic!("{name}: an unlimited budget plans an exact solve");
        };
        for (i, (e, s)) in exact.iter().zip(&streamed.pi).enumerate() {
            assert!((e - s).abs() < 1e-8, "{name}, state {i}: {e} vs {s}");
        }
        checked += 1;
    }
    assert!(checked >= 1, "no non-absorbing ctmc specs in specs/");
}

/// Every shipped `ctmc` spec with time points: uniformization must
/// match the dense Padé matrix exponential `π(0)·exp(Qt)` to 1e-8 at
/// the spec's own `at_times`.
#[test]
fn ctmc_spec_transients_match_matrix_exponential() {
    let mut checked = 0;
    for (name, text) in shipped_specs() {
        let ModelSpec::Ctmc(spec) = ModelSpec::from_json_str(&text).unwrap() else {
            continue;
        };
        let Some(times) = spec.at_times.clone() else {
            continue;
        };
        let ctmc = ctmc_of(&text).unwrap();
        let n = ctmc.num_states();
        let initial = spec.initial.as_deref().unwrap_or(&spec.states[0]);
        let i0 = spec.states.iter().position(|s| s == initial).unwrap();
        let p0 = ctmc.point_mass(ctmc.state_ids()[i0]);
        let q = ctmc.generator_dense();
        for &t in &times {
            let mut qt = DenseMatrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    qt.set(i, j, q.get(i, j) * t);
                }
            }
            let e = expm(&qt).unwrap();
            let uniformized = ctmc.transient(&p0, t).unwrap();
            for (j, u) in uniformized.iter().enumerate() {
                let oracle = e.get(i0, j);
                assert!(
                    (u - oracle).abs() < 1e-8,
                    "{name}, t {t}, state {j}: {u} vs expm {oracle}"
                );
            }
        }
        checked += 1;
    }
    assert!(checked >= 1, "no transient ctmc specs in specs/");
}

/// A budget below the exact floor must escalate to the aggregation
/// bounds path and say so in the telemetry, still reporting every
/// requested measure (as bracket midpoints).
#[test]
fn hopeless_budget_escalates_to_bounds_with_telemetry() {
    let text = fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../specs/tandem_queue.json"
    ))
    .unwrap();
    let exact = solve_str_with(&text, &SolveOptions::default()).unwrap();
    let (n_exact, te_exact, th_exact) = spn_measures(&exact.measures);
    let bounded = solve_str_with(
        &text,
        // Far below the iteration vectors for ~700 markings.
        &SolveOptions::default()
            .with_stream(true)
            .with_mem_budget(4096),
    )
    .unwrap();
    assert_eq!(bounded.stats.stream_bounded, Some(true));
    assert_eq!(bounded.stats.method, Some("stream-bounds"));
    assert!(bounded.stats.stream_bound_gap.is_some());
    let (n, te, th) = spn_measures(&bounded.measures);
    assert_eq!(n, n_exact);
    assert_eq!(te.len(), te_exact.len());
    assert_eq!(th.len(), th_exact.len());
    // Midpoints are estimates, not certificates — but on this small
    // net the bracket is narrow enough to land near the exact values.
    for ((name, v), (_, e)) in te.iter().zip(&te_exact) {
        assert!(v.is_finite(), "{name}: {v}");
        assert!((v - e).abs() < 1.0, "{name}: midpoint {v} far from {e}");
    }
    for ((name, v), (_, e)) in th.iter().zip(&th_exact) {
        assert!((v - e).abs() < 1.0, "{name}: midpoint {v} far from {e}");
    }
}

/// The spec's `"solver": "stream"` hint routes the solve through the
/// streaming tier without any option set, and a declared marking cap
/// whose projected materialized footprint exceeds `mem_budget`
/// auto-escalates even without the hint.
#[test]
fn spec_hint_and_budget_escalation_select_the_stream_tier() {
    let text = fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../specs/tandem_queue.json"
    ))
    .unwrap();
    let hinted = text.replace(
        "\"max_markings\": 100000",
        "\"solver\": \"stream\", \"max_markings\": 100000",
    );
    let r = solve_str_with(&hinted, &SolveOptions::default()).unwrap();
    assert!(
        r.stats.method.unwrap().starts_with("stream"),
        "hint ignored"
    );

    // max_markings 100000 projects ~7 MB of materialized state; a 1 MB
    // budget (far above the model's actual needs) escalates to the
    // streaming tier, which then solves exactly within it.
    let r = solve_str_with(&text, &SolveOptions::default().with_mem_budget(1 << 20)).unwrap();
    assert!(
        r.stats.method.unwrap().starts_with("stream"),
        "no escalation: ran {:?}",
        r.stats.method
    );
    assert_eq!(r.stats.stream_bounded, Some(false));
    let (_, te, _) = spn_measures(&r.measures);
    let (_, te_exact, _) = spn_measures(
        &solve_str_with(&text, &SolveOptions::default())
            .unwrap()
            .measures,
    );
    assert_close("tandem_queue", "expected_tokens", &te_exact, &te);
}
