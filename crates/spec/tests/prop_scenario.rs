//! Property-based tests for the scenario-layer model classes:
//! uncertainty propagation must be bitwise identical at any worker
//! count, and the bounds class must always bracket the exact BDD
//! probability on random fault trees.

use proptest::prelude::*;
use reliab_spec::{solve_str_with, SolveOptions, SolvedMeasures};

/// An uncertainty wrapper over a one-component RBD. Sampling is a pure
/// function of `(seed, sample index)`, so the thread budget must never
/// change a digit of the output.
fn uncert_doc(samples: usize, seed: u64, lhs: bool) -> String {
    format!(
        r#"{{"uncertainty": {{
            "model": {{"rbd": {{"components": [{{"name": "a", "availability": 0.5}}],
                               "structure": "a"}}}},
            "parameters": [
              {{"path": "rbd.components.0.availability",
                "prior": {{"uniform": {{"low": 0.1, "high": 0.9}}}}}}],
            "measure": "availability",
            "samples": {samples},
            "seed": {seed},
            "latin_hypercube": {lhs}}}}}"#
    )
}

/// A random and/or gate over events `e0..e{n}` as a JSON fragment.
fn gate_strategy(n: usize) -> impl Strategy<Value = String> {
    let leaf = (0..n).prop_map(|i| format!("\"e{i}\""));
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4)
                .prop_map(|g| format!(r#"{{"and": [{}]}}"#, g.join(","))),
            proptest::collection::vec(inner, 2..4)
                .prop_map(|g| format!(r#"{{"or": [{}]}}"#, g.join(","))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Uncertainty propagation is bitwise identical at 1/2/4/8 workers.
    #[test]
    fn uncertainty_is_bitwise_identical_across_worker_counts(
        samples in 4usize..24,
        seed in 0usize..1_000_000,
        lhs_bit in 0usize..2,
    ) {
        let doc = uncert_doc(samples, seed as u64, lhs_bit == 1);
        let solve = |threads: usize| {
            let report =
                solve_str_with(&doc, &SolveOptions::default().with_threads(threads)).unwrap();
            (report.measures.to_json().to_json(), report.stats.workers)
        };
        let (base, workers) = solve(1);
        prop_assert_eq!(workers, 1);
        for threads in [2, 4, 8] {
            let (other, workers) = solve(threads);
            prop_assert_eq!(&base, &other, "threads = {} diverged", threads);
            // One sampler worker per thread of the budget, up to one
            // per sample.
            prop_assert_eq!(workers, threads.min(samples), "threads = {}", threads);
        }
    }

    /// On a random fault tree, the Esary–Proschan and truncated-SDP
    /// brackets always contain the exact BDD top-event probability.
    #[test]
    fn bounds_bracket_exact_bdd_probability_on_random_trees(
        probs in proptest::collection::vec(0.01f64..=0.5, 4),
        top in gate_strategy(4),
    ) {
        let events: Vec<String> = probs
            .iter()
            .enumerate()
            .map(|(i, p)| format!(r#"{{"name": "e{i}", "probability": {p}}}"#))
            .collect();
        let doc = format!(
            r#"{{"bounds": {{"fault_tree": {{"events": [{}], "top": {}}}}}}}"#,
            events.join(","),
            top
        );
        let report = solve_str_with(&doc, &SolveOptions::default()).unwrap();
        let SolvedMeasures::Bounds {
            exact,
            ep_lower,
            ep_upper,
            truncated_lower,
            truncated_upper,
            ..
        } = report.measures
        else {
            panic!("expected bounds measures");
        };
        let q = exact.unwrap();
        prop_assert!((0.0..=1.0).contains(&q), "exact out of range: {}", q);
        prop_assert!(
            truncated_lower <= q + 1e-12 && q <= truncated_upper + 1e-12,
            "truncated bounds [{}, {}] miss exact {}",
            truncated_lower, truncated_upper, q
        );
        let (lo, hi) = (ep_lower.unwrap(), ep_upper.unwrap());
        prop_assert!(
            lo <= q + 1e-12 && q <= hi + 1e-12,
            "EP bounds [{}, {}] miss exact {}",
            lo, hi, q
        );
    }
}
