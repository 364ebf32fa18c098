//! The JSON specification files shipped in `specs/` must stay valid
//! and produce sensible results — they are the first thing a new user
//! runs.

use reliab::spec::{solve_str_with, solve_with, ModelSpec, SolveOptions, SolvedMeasures};

fn solve_file(name: &str) -> SolvedMeasures {
    let path = format!("{}/specs/{name}", env!("CARGO_MANIFEST_DIR"));
    let contents =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    solve_str_with(&contents, &SolveOptions::default())
        .unwrap_or_else(|e| panic!("{name} failed to solve: {e}"))
        .measures
}

#[test]
fn database_node_spec() {
    match solve_file("database_node.json") {
        SolvedMeasures::Rbd {
            availability,
            downtime_minutes_per_year,
            importance,
        } => {
            assert!(availability > 0.999 && availability < 1.0);
            assert!(downtime_minutes_per_year > 0.0);
            let imp = importance.expect("importance defined");
            assert_eq!(imp.len(), 3);
            // Storage is the single point of failure: highest Birnbaum.
            let storage = imp.iter().find(|r| r.name == "storage").unwrap();
            for row in &imp {
                assert!(storage.birnbaum >= row.birnbaum);
            }
        }
        other => panic!("expected RBD result, got {other:?}"),
    }
}

#[test]
fn multiprocessor_spec() {
    match solve_file("multiprocessor.json") {
        SolvedMeasures::FaultTree {
            top_event_probability,
            minimal_cut_sets,
            ..
        } => {
            assert!((top_event_probability - 8.341925725e-3).abs() < 1e-10);
            assert_eq!(minimal_cut_sets.len(), 5);
            assert_eq!(minimal_cut_sets[0], vec!["bus"]);
        }
        other => panic!("expected fault-tree result, got {other:?}"),
    }
}

#[test]
fn two_component_spec() {
    match solve_file("two_component.json") {
        SolvedMeasures::Ctmc {
            steady_state,
            availability,
            mttf,
            transient,
            ..
        } => {
            let pi = steady_state.expect("irreducible chain");
            assert!((pi.iter().map(|(_, p)| p).sum::<f64>() - 1.0).abs() < 1e-10);
            assert!(availability.expect("up_states given") > 0.99);
            assert!(mttf.expect("absorbing given") > 0.0);
            assert_eq!(transient.expect("at_times given").len(), 3);
        }
        other => panic!("expected CTMC result, got {other:?}"),
    }
}

#[test]
fn bridge_network_spec() {
    match solve_file("bridge_network.json") {
        SolvedMeasures::RelGraph {
            reliability,
            all_terminal_reliability,
            minimal_path_sets,
            minimal_cut_sets,
        } => {
            assert!(reliability > 0.999);
            assert!(all_terminal_reliability.expect("requested") <= reliability);
            assert_eq!(minimal_path_sets.len(), 4);
            assert_eq!(minimal_cut_sets.len(), 4);
        }
        other => panic!("expected rel-graph result, got {other:?}"),
    }
}

#[test]
fn tandem_queue_spec() {
    match solve_file("tandem_queue.json") {
        SolvedMeasures::Spn {
            num_markings,
            expected_tokens,
            throughput,
        } => {
            // Both stages are capped at 8 tokens and the routing place
            // is vanishing, so the tangible space is small but 2-D.
            assert!(num_markings > 9 && num_markings <= 81);
            assert_eq!(expected_tokens.len(), 2);
            for (name, mean) in &expected_tokens {
                assert!(
                    *mean > 0.0 && *mean < 8.0,
                    "{name} mean tokens out of range: {mean}"
                );
            }
            // Stage-2 departures cannot exceed the arrival rate.
            let (_, served) = &throughput[0];
            assert!(*served > 0.0 && *served < 2.0);
        }
        other => panic!("expected SPN result, got {other:?}"),
    }
}

#[test]
fn sip_hierarchy_spec() {
    match solve_file("sip_hierarchy.json") {
        SolvedMeasures::Hierarchy {
            submodels,
            output,
            value,
            iterations,
            residual,
        } => {
            assert_eq!(output, "sip-service");
            assert_eq!(submodels.len(), 3);
            // Series rollup of proxy x registrar x dns availabilities.
            assert!(value > 0.99 && value < 1.0, "value out of range: {value}");
            // Acyclic import graph: converges in depth + 1 sweeps.
            assert!(iterations <= 3, "too many sweeps: {iterations}");
            assert!(residual <= 1e-12);
        }
        other => panic!("expected hierarchy result, got {other:?}"),
    }
}

#[test]
fn cyclic_hierarchy_spec() {
    match solve_file("cyclic_hierarchy.json") {
        SolvedMeasures::Hierarchy {
            submodels,
            output,
            value,
            iterations,
            residual,
        } => {
            assert_eq!(output, "mgmt");
            assert_eq!(submodels.len(), 4);
            for (name, a) in &submodels {
                assert!(*a > 0.99 && *a < 1.0, "{name} availability {a}");
            }
            assert!(value > 0.99 && value < 1.0, "value out of range: {value}");
            // Every submodel imports its predecessor's availability, so
            // no sweep order settles the cycle at once.
            assert!(iterations > 2, "too few sweeps: {iterations}");
            assert!(residual <= 1e-12);
        }
        other => panic!("expected hierarchy result, got {other:?}"),
    }
}

#[test]
fn rejuvenation_smp_spec() {
    match solve_file("rejuvenation_smp.json") {
        SolvedMeasures::SemiMarkov {
            steady_state,
            availability,
            mean_first_passage,
            interval_availability,
            ..
        } => {
            assert_eq!(steady_state.len(), 4);
            let a = availability.expect("up_states given");
            assert!(a > 0.999 && a < 1.0, "availability out of range: {a}");
            assert!(mean_first_passage.expect("targets given") > 1000.0);
            let ia = interval_availability.expect("interval_times given");
            assert_eq!(ia.len(), 2);
            // Starting all-up, interval availability descends toward
            // the steady value as the window grows.
            assert!(ia[0].1 > ia[1].1 && ia[1].1 > a);
        }
        other => panic!("expected semi-Markov result, got {other:?}"),
    }
}

#[test]
fn two_component_uncert_spec() {
    match solve_file("two_component_uncert.json") {
        SolvedMeasures::Uncertainty {
            measure,
            mean,
            std_dev,
            ci_lower,
            ci_upper,
            level,
            samples,
        } => {
            assert_eq!(measure, "availability");
            assert_eq!(samples, 200);
            assert!((level - 0.95).abs() < 1e-12);
            assert!(std_dev > 0.0);
            assert!(ci_lower <= mean && mean <= ci_upper);
            assert!(mean > 0.99 && mean < 1.0, "mean out of range: {mean}");
        }
        other => panic!("expected uncertainty result, got {other:?}"),
    }
}

#[test]
fn b787_bounds_spec() {
    match solve_file("b787_bounds.json") {
        SolvedMeasures::Bounds {
            exact,
            ep_lower,
            ep_upper,
            truncated_lower,
            truncated_upper,
            truncation_order,
            num_cut_sets,
            num_path_sets,
        } => {
            assert_eq!(truncation_order, 2);
            assert_eq!(num_cut_sets, 3);
            assert_eq!(num_path_sets, 5);
            let q = exact.expect("explicit sets give an exact SDP value");
            assert!(q > 0.0 && q < 1e-4, "exact out of range: {q}");
            assert!(ep_lower.expect("path sets given") <= q);
            assert!(q <= ep_upper.expect("path sets given"));
            assert!(truncated_lower <= q && q <= truncated_upper);
        }
        other => panic!("expected bounds result, got {other:?}"),
    }
}

#[test]
fn shared_storage_rbd_spec() {
    match solve_file("shared_storage_rbd.json") {
        SolvedMeasures::Rbd {
            availability,
            importance,
            ..
        } => {
            // The SAN serves both web branches, so it enters once:
            // A = A_san · (1 − (1 − w1)(1 − w2)) · P(2 of 3 app servers).
            // Its availability is E[ttf] / (E[ttf] + E[ttr]).
            let san = 20_000.0 / (20_000.0 + 8.0);
            let web = 1.0 - (1.0 - 0.995) * (1.0 - 0.99);
            let (a1, a2, a3) = (0.98, 0.98, 0.97);
            let apps = a1 * a2 + a1 * a3 + a2 * a3 - 2.0 * a1 * a2 * a3;
            let expected = san * web * apps;
            assert!(
                (availability - expected).abs() < 1e-12,
                "{availability} vs closed form {expected}"
            );
            let rows = importance.expect("importance defined");
            let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
            assert_eq!(names, ["web-1", "web-2", "san", "app-1", "app-2", "app-3"]);
            // Birnbaum of the SAN: the rest of the system given it works.
            let san_row = &rows[2];
            assert!((san_row.birnbaum - web * apps).abs() < 1e-12);
        }
        other => panic!("expected RBD result, got {other:?}"),
    }
}

#[test]
fn pumping_station_sim_spec() {
    let (lower, upper) = match solve_file("pumping_station_sim.json") {
        SolvedMeasures::Sim {
            measure,
            ci_lower,
            ci_upper,
            replications,
            ..
        } => {
            assert_eq!(measure, "availability");
            assert_eq!(replications, 128);
            (ci_lower, ci_upper)
        }
        other => panic!("expected simulation result, got {other:?}"),
    };
    // The same document without its `sim` block, solved exactly.
    let path = format!(
        "{}/specs/pumping_station_sim.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let mut spec = ModelSpec::from_json_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let ModelSpec::FaultTree(tree) = &mut spec else {
        panic!("expected a fault tree");
    };
    assert!(tree.sim.take().is_some(), "spec has a sim block");
    let analytic = solve_with(&spec, &SolveOptions::default())
        .expect("analytic solve")
        .measures;
    let SolvedMeasures::FaultTree {
        top_event_probability,
        ..
    } = analytic
    else {
        panic!("expected fault-tree result, got {analytic:?}");
    };
    let exact = 1.0 - top_event_probability;
    assert!(
        lower <= exact && exact <= upper,
        "analytic availability {exact} outside the simulated CI [{lower}, {upper}]"
    );
}
