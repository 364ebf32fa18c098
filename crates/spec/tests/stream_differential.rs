//! Differential harness for the one SPN solve: on every shipped SPN
//! specification the unbudgeted solve (kept rows), a budgeted solve
//! (rows regenerated from the marking arena) and the net's CTMC view
//! must give the same measures bit for bit, at any thread budget and
//! any memory budget that admits the model; on every shipped CTMC the
//! block kernel must match GTH to 1e-8, and the one uniformization
//! kernel must match the Padé matrix exponential.

use reliab_markov::{
    cached_solve_bytes, scan_rates, steady_state, Ctmc, CtmcBuilder, PlanOutcome, SteadyMethod,
    SteadyOptions,
};
use reliab_numeric::{expm, DenseMatrix};
use reliab_spec::{
    solve_str_with, ModelSpec, SolveOptions, SolvedMeasures, SpnSpec, SpnTimingSpec,
};
use reliab_spn::{
    PlaceId, ReachabilityOptions, SpaceRows, Spn, SpnBuilder, TangibleSpace, TransitionId,
};
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

/// The net of an SPN spec, built directly with `reliab-spn`, with its
/// place and transition handles in declaration order and its marking
/// cap.
fn net(spec: &SpnSpec) -> (Spn, Vec<PlaceId>, Vec<TransitionId>, ReachabilityOptions) {
    let mut b = SpnBuilder::new();
    let places: Vec<_> = spec
        .places
        .iter()
        .map(|p| b.place(&p.name, p.tokens))
        .collect();
    let place = |name: &str| places[spec.places.iter().position(|p| p.name == name).unwrap()];
    let mut transitions = Vec::new();
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
        transitions.push(id);
    }
    let ropts = ReachabilityOptions {
        max_markings: spec.max_markings.unwrap_or(1_000_000),
        ..Default::default()
    };
    (b.build().unwrap(), places, transitions, ropts)
}

/// The measures a spec asks for, read off a marking space under `pi`.
fn measures_on(
    spec: &SpnSpec,
    places: &[PlaceId],
    transitions: &[TransitionId],
    space: &TangibleSpace<'_>,
    pi: &[f64],
) -> (usize, Measures, Measures) {
    let tokens = spec.expected_tokens.as_deref().unwrap_or(&[]);
    let tokens = tokens
        .iter()
        .map(|n| {
            let p = places[spec.places.iter().position(|p| &p.name == n).unwrap()];
            (n.clone(), space.expected_tokens_given(pi, p).unwrap())
        })
        .collect();
    let throughput = spec.throughput.as_deref().unwrap_or(&[]);
    let throughput = throughput
        .iter()
        .map(|n| {
            let t = transitions[spec.transitions.iter().position(|t| &t.name == n).unwrap()];
            (n.clone(), space.throughput_given(pi, t).unwrap())
        })
        .collect();
    (space.num_markings(), tokens, throughput)
}

/// The measures a spec asks for, read off `SolvedSpn::ctmc()`'s `Auto`
/// stationary distribution: the net is built from the spec directly,
/// without the spec layer's solve.
fn ctmc_view_measures(spec: &SpnSpec) -> (usize, Measures, Measures) {
    let (spn, places, transitions, ropts) = net(spec);
    let solved = spn.solve_with(&ropts).unwrap();
    let pi = solved.ctmc().steady_state().unwrap();
    measures_on(spec, &places, &transitions, solved.space(), &pi)
}

/// The measures a spec asks for, solved by the one steady-state entry
/// with no budget over rows regenerated from a marking space the walk
/// kept no rows for: GTH or SOR by the state count, as the spec layer.
fn regenerated_view_measures(spec: &SpnSpec) -> (usize, Measures, Measures) {
    let (spn, places, transitions, ropts) = net(spec);
    let space = spn.tangible_space(&ropts).unwrap();
    let rows = SpaceRows::new(&space);
    let PlanOutcome::Exact(report) = steady_state(&rows, &SteadyOptions::default()).unwrap() else {
        panic!("no budget plans an exact solve");
    };
    assert_eq!(rows.regenerated() as usize, space.num_markings());
    measures_on(spec, &places, &transitions, &space, &report.pi)
}

/// Floors of a spec's net: the bytes of its marking space with every
/// row kept and with none, and its states and merged arcs.
fn space_bytes(spec: &SpnSpec) -> (usize, usize, usize, usize) {
    let (spn, _, _, ropts) = net(spec);
    let kept = spn.solve_with(&ropts).unwrap().space().resident_bytes();
    let space = spn.tangible_space(&ropts).unwrap();
    let arcs = scan_rates(&SpaceRows::new(&space)).unwrap().arcs as usize;
    (kept, space.resident_bytes(), space.num_markings(), arcs)
}

/// The marking count and every measure, tokens then throughputs, with
/// its value as bits, for bitwise comparison.
fn bits(m: &(usize, Measures, Measures)) -> (usize, Vec<(&str, u64)>) {
    let values = m.1.iter().chain(&m.2);
    (
        m.0,
        values.map(|(n, x)| (n.as_str(), x.to_bits())).collect(),
    )
}

/// Every shipped SPN spec: the unbudgeted solve, which keeps the walk's
/// rows, a 1-GiB-budget solve, which keeps them within the budget, the
/// measures read off `SolvedSpn::ctmc()`'s `Auto` stationary
/// distribution and those of the steady-state entry over rows
/// regenerated from the marking arena are the same to the bit. A net
/// SOR solves (above 512 markings) is also solved under a budget that
/// holds its marking space and a one-block solve's vectors and slices
/// but not its rows as well, so the spec layer regenerates them, to the
/// same bits.
#[test]
fn streamed_spn_specs_match_materialized_path() {
    let (mut checked, mut regenerated) = (0, 0);
    for (name, text) in shipped_specs() {
        let ModelSpec::Spn(spec) = ModelSpec::from_json_str(&text).unwrap() else {
            continue;
        };
        let kept = solve_str_with(&text, &SolveOptions::default()).unwrap();
        let kept_measures = spn_measures(&kept.measures);
        let mut budgeted = vec![1usize << 30];
        let (_, arena_bytes, n, arcs) = space_bytes(&spec);
        if n > 512 {
            budgeted.push(arena_bytes + cached_solve_bytes(n, arcs));
            regenerated += 1;
        }
        for budget in budgeted {
            let r =
                solve_str_with(&text, &SolveOptions::default().with_mem_budget(budget)).unwrap();
            assert_eq!(
                bits(&kept_measures),
                bits(&spn_measures(&r.measures)),
                "{name}: budget {budget}"
            );
            assert_eq!(kept.stats.method, r.stats.method, "{name}: budget {budget}");
            assert_eq!(kept.stats.iterations, r.stats.iterations, "{name}");
        }
        assert_eq!(
            bits(&kept_measures),
            bits(&ctmc_view_measures(&spec)),
            "{name}: CTMC view"
        );
        assert_eq!(
            bits(&kept_measures),
            bits(&regenerated_view_measures(&spec)),
            "{name}: regenerated rows"
        );
        checked += 1;
    }
    assert!(checked >= 3, "only {checked} SPN specs in specs/");
    assert!(
        regenerated >= 1,
        "no SPN spec was solved over regenerated rows"
    );
}

/// A budget between SOR's floor and GTH's still solves exactly: on the
/// 81-marking tandem net `Auto` turns to SOR there, within SOR's
/// tolerance of GTH, rather than escalating to bounds — from the floor
/// of the regenerated rows up to one byte below GTH's floor.
#[test]
fn budget_below_the_gth_floor_runs_sor_not_bounds() {
    let text = fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../specs/tandem_queue.json"
    ))
    .unwrap();
    let ModelSpec::Spn(spec) = ModelSpec::from_json_str(&text).unwrap() else {
        panic!("an SPN spec");
    };
    let gth = solve_str_with(&text, &SolveOptions::default()).unwrap();
    assert_eq!(gth.stats.method, Some("gth"));
    let (_, te, th) = spn_measures(&gth.measures);
    let (kept_bytes, arena_bytes, n, _) = space_bytes(&spec);
    let sor_floor = arena_bytes + 16 * n;
    let gth_floor = kept_bytes + 20 * (n * n + n);
    assert!(sor_floor < 16 << 10 && 16 << 10 < gth_floor);
    for budget in [sor_floor, 16 << 10, gth_floor - 1] {
        let r = solve_str_with(&text, &SolveOptions::default().with_mem_budget(budget)).unwrap();
        assert_eq!(r.stats.method, Some("stream-sor"), "budget {budget}");
        assert_eq!(r.stats.stream_bounded, Some(false), "budget {budget}");
        let (_, te_r, th_r) = spn_measures(&r.measures);
        for ((name, v), (_, e)) in te_r.iter().chain(&th_r).zip(te.iter().chain(&th)) {
            assert!(
                (v - e).abs() <= 1e-9 * e.abs(),
                "{name}: {v} vs {e}, budget {budget}"
            );
        }
    }
    let r = solve_str_with(&text, &SolveOptions::default().with_mem_budget(gth_floor)).unwrap();
    assert_eq!(r.measures, gth.measures);
    assert_eq!(r.stats.method, Some("gth"));
    let r = solve_str_with(
        &text,
        &SolveOptions::default().with_mem_budget(sor_floor - 1),
    )
    .unwrap();
    assert_eq!(r.stats.method, Some("stream-bounds"));
}

/// Any memory budget that admits the method the state count picks must
/// leave the measures identical (cached vs recomputed column slices are
/// built from the same row stream, and a budget that admits GTH keeps
/// it), and no result may depend on the thread budget.
#[test]
fn streamed_specs_are_invariant_to_budget_and_threads() {
    let mut names = Vec::new();
    for (name, text) in shipped_specs() {
        if !matches!(ModelSpec::from_json_str(&text).unwrap(), ModelSpec::Spn(_)) {
            continue;
        }
        let generous = 1usize << 30;
        let base =
            solve_str_with(&text, &SolveOptions::default().with_mem_budget(generous)).unwrap();
        let (n0, te0, th0) = spn_measures(&base.measures);
        // A generous budget and a tight-but-admitting one; the tight
        // budget forces multi-block sweeps with partial caching.
        let tight = base
            .stats
            .stream_peak_bytes
            .map_or(generous, |p| p as usize + (n0 * 16));
        for budget in [generous, tight] {
            let r =
                solve_str_with(&text, &SolveOptions::default().with_mem_budget(budget)).unwrap();
            let (n, te, th) = spn_measures(&r.measures);
            assert_eq!((n, &te, &th), (n0, &te0, &th0), "{name}: budget {budget}");
            assert_eq!(
                r.stats.stream_bounded,
                Some(false),
                "{name}: budget {budget}"
            );
        }
        // The thread budget: the space is generated on the calling
        // thread whatever the budget, and no bit moves.
        let default = solve_str_with(&text, &SolveOptions::default()).unwrap();
        assert_eq!(default.measures, base.measures, "{name}: no budget");
        for threads in [2usize, 4] {
            let opts = SolveOptions::default().with_threads(threads);
            let r = solve_str_with(&text, &opts.clone().with_mem_budget(generous)).unwrap();
            assert_eq!(r.stats.workers, 1, "{name}: threads {threads}");
            let (n, te, th) = spn_measures(&r.measures);
            assert_eq!((n, &te, &th), (n0, &te0, &th0), "{name}: threads {threads}");
            let r = solve_str_with(&text, &opts).unwrap();
            assert_eq!(r.stats.workers, 1, "{name}: threads {threads}");
            assert_eq!(r.measures, default.measures, "{name}: threads {threads}");
        }
        names.push(name);
    }
    for name in ["tandem_queue", "tandem_rework", "tandem_rework_stream"] {
        assert!(names.iter().any(|n| n == name), "{name} not swept");
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
        let sor = SteadyOptions {
            method: SteadyMethod::Sor,
            ..Default::default()
        };
        let PlanOutcome::Exact(streamed) = steady_state(&ctmc, &sor).unwrap() else {
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
        &SolveOptions::default().with_mem_budget(4096),
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

/// The bounds path reads a throughput off the space's firing rate, as
/// the exact path does: an immediate transition's throughput fails
/// alike on both, and the shipped tandem nets' throughput midpoints at
/// a 4-KiB budget keep their bits.
#[test]
fn bounds_throughput_is_the_space_firing_rate() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
    let rework = fs::read_to_string(format!("{dir}/tandem_rework.json")).unwrap();
    let forward = rework.replace(
        "\"throughput\": [\"serve1\", \"serve3\"]",
        "\"throughput\": [\"forward\"]",
    );
    assert_ne!(forward, rework);
    let exact = solve_str_with(&forward, &SolveOptions::default()).unwrap_err();
    let bounded =
        solve_str_with(&forward, &SolveOptions::default().with_mem_budget(4096)).unwrap_err();
    assert_eq!(bounded, exact);
    assert_eq!(
        bounded.to_string(),
        "model error: throughput of immediate transition 'forward' is not defined; \
         attach the measure to a timed transition"
    );

    for (name, want) in [
        ("tandem_queue", vec![("serve2", 1.7053463416865209_f64)]),
        (
            "tandem_rework",
            vec![("serve1", 1.05), ("serve3", 1.706063911900357)],
        ),
    ] {
        let text = fs::read_to_string(format!("{dir}/{name}.json")).unwrap();
        let r = solve_str_with(&text, &SolveOptions::default().with_mem_budget(4096)).unwrap();
        assert_eq!(r.stats.method, Some("stream-bounds"), "{name}");
        let (_, _, throughput) = spn_measures(&r.measures);
        let got: Vec<(&str, u64)> = throughput
            .iter()
            .map(|(t, x)| (t.as_str(), x.to_bits()))
            .collect();
        let want: Vec<(&str, u64)> = want.iter().map(|&(t, x)| (t, x.to_bits())).collect();
        assert_eq!(got, want, "{name}");
    }
}

/// The spec's `"solver"` key is checked and then ignored: hinted and
/// unhinted documents solve alike, bit for bit and by the same method,
/// and a budget that admits the model moves no bit either — on the
/// 81-marking tandem net it still runs GTH.
#[test]
fn spec_hint_is_ignored_and_a_budget_moves_no_bit() {
    let text = fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../specs/tandem_queue.json"
    ))
    .unwrap();
    let plain = solve_str_with(&text, &SolveOptions::default()).unwrap();
    assert_eq!(plain.stats.method, Some("gth"));
    for hint in ["stream", "materialized", "csr"] {
        let hinted = text.replace(
            "\"max_markings\": 100000",
            &format!("\"solver\": \"{hint}\", \"max_markings\": 100000"),
        );
        assert_ne!(hinted, text);
        let r = solve_str_with(&hinted, &SolveOptions::default()).unwrap();
        assert_eq!(r.measures, plain.measures, "{hint}");
        assert_eq!(r.stats.method, plain.stats.method, "{hint}");
    }
    let r = solve_str_with(&text, &SolveOptions::default().with_mem_budget(1 << 20)).unwrap();
    assert_eq!(r.stats.method, Some("gth"));
    assert_eq!(r.stats.stream_bounded, Some(false));
    assert_eq!(
        bits(&spn_measures(&r.measures)),
        bits(&spn_measures(&plain.measures))
    );
}
