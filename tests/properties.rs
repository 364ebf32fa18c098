//! Property-based tests on cross-crate invariants, using proptest.

use proptest::prelude::*;
use reliab::bounds::ep_reliability_bounds;
use reliab::dist::{fit_two_moments, Exponential, Lifetime, Weibull};
use reliab::markov::CtmcBuilder;
use reliab::rbd::{Block, RbdBuilder};
use reliab::relgraph::RelGraphBuilder;

proptest! {
    /// RBD availability is monotone in every component availability.
    #[test]
    fn rbd_availability_is_monotone(
        p in proptest::collection::vec(0.0f64..=1.0, 5),
        bump_idx in 0usize..5,
        bump in 0.0f64..0.3,
    ) {
        let mut b = RbdBuilder::new();
        let c = b.components("c", 5);
        // A fixed non-trivial structure: (c0 || c1) && 2-of-(c2, c3, c4).
        let rbd = b.build(Block::series(vec![
            Block::parallel_of(&c[0..2]),
            Block::k_of_n_components(2, &c[2..5]),
        ])).unwrap();
        let a0 = rbd.availability(&p).unwrap();
        let mut p2 = p.clone();
        p2[bump_idx] = (p2[bump_idx] + bump).min(1.0);
        let a1 = rbd.availability(&p2).unwrap();
        prop_assert!(a1 >= a0 - 1e-12, "monotonicity violated: {a0} -> {a1}");
        prop_assert!((0.0..=1.0 + 1e-12).contains(&a0));
    }

    /// Esary–Proschan bounds always bracket the exact bridge-network
    /// reliability, whatever the edge probabilities.
    #[test]
    fn ep_bounds_bracket_bridge(
        p in proptest::collection::vec(0.01f64..=0.99, 5),
    ) {
        let mut gb = RelGraphBuilder::new();
        let s = gb.node("s");
        let a = gb.node("a");
        let c = gb.node("c");
        let t = gb.node("t");
        gb.edge(s, a, "e0");
        gb.edge(s, c, "e1");
        gb.edge(a, c, "e2");
        gb.edge(a, t, "e3");
        gb.edge(c, t, "e4");
        let g = gb.build(s, t).unwrap();
        let exact = g.reliability(&p).unwrap();
        let paths: Vec<Vec<usize>> = g
            .minimal_path_sets()
            .into_iter()
            .map(|ps| ps.into_iter().map(|e| e.index()).collect())
            .collect();
        let cuts: Vec<Vec<usize>> = g
            .minimal_cut_sets(10_000)
            .unwrap()
            .into_iter()
            .map(|cs| cs.into_iter().map(|e| e.index()).collect())
            .collect();
        let b = ep_reliability_bounds(&paths, &cuts, &p).unwrap();
        prop_assert!(b.lower <= exact + 1e-9, "lower {} > exact {exact}", b.lower);
        prop_assert!(exact <= b.upper + 1e-9, "upper {} < exact {exact}", b.upper);
    }

    /// CTMC transient distributions are stochastic vectors at all times.
    #[test]
    fn transient_is_a_distribution(
        rates in proptest::collection::vec(0.01f64..10.0, 6),
        t in 0.0f64..50.0,
    ) {
        // 3-state chain with arbitrary positive rates everywhere.
        let mut b = CtmcBuilder::new();
        let s: Vec<_> = (0..3).map(|i| b.state(&format!("s{i}"))).collect();
        let mut it = rates.into_iter();
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    b.transition(s[i], s[j], it.next().unwrap()).unwrap();
                }
            }
        }
        let c = b.build().unwrap();
        let pi = c.transient(&c.point_mass(s[0]), t).unwrap();
        let total: f64 = pi.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "sum {total}");
        prop_assert!(pi.iter().all(|&x| (-1e-12..=1.0 + 1e-9).contains(&x)));
    }

    /// Two-moment fitting reproduces the target moments across the
    /// whole cv² range.
    #[test]
    fn two_moment_fit_is_exact(
        mean in 0.1f64..100.0,
        cv2 in 0.05f64..20.0,
    ) {
        let fit = fit_two_moments(mean, cv2).unwrap();
        let d = fit.as_lifetime();
        prop_assert!((d.mean() - mean).abs() < 1e-6 * mean);
        prop_assert!((d.cv_squared() - cv2).abs() < 1e-6 * cv2.max(1.0));
    }

    /// Distribution CDFs are monotone and bounded for arbitrary
    /// parameters.
    #[test]
    fn weibull_cdf_monotone(
        shape in 0.3f64..5.0,
        scale in 0.1f64..100.0,
        t1 in 0.0f64..200.0,
        dt in 0.0f64..50.0,
    ) {
        let d = Weibull::new(shape, scale).unwrap();
        let c1 = d.cdf(t1).unwrap();
        let c2 = d.cdf(t1 + dt).unwrap();
        prop_assert!((0.0..=1.0).contains(&c1));
        prop_assert!(c2 >= c1 - 1e-12);
    }

    /// Exponential quantile inverts the CDF for arbitrary rates.
    #[test]
    fn exponential_quantile_roundtrip(
        rate in 0.01f64..100.0,
        p in 0.01f64..0.99,
    ) {
        let d = Exponential::new(rate).unwrap();
        let x = d.quantile(p).unwrap();
        prop_assert!((d.cdf(x).unwrap() - p).abs() < 1e-9);
    }

    /// MTTF of a single absorbing chain equals mean of the lifetime:
    /// CTMC and distribution layers agree for arbitrary rates.
    #[test]
    fn absorbing_mttf_equals_distribution_mean(rate in 0.01f64..100.0) {
        let mut b = CtmcBuilder::new();
        let up = b.state("up");
        let down = b.state("down");
        b.transition(up, down, rate).unwrap();
        let c = b.build().unwrap();
        let mttf = c.mttf(&c.point_mass(up), &[down]).unwrap();
        let d = Exponential::new(rate).unwrap();
        prop_assert!((mttf - d.mean()).abs() < 1e-9 * d.mean());
    }

    /// Chapman–Kolmogorov: propagating to t1 and then t2 more equals
    /// propagating to t1 + t2 in one shot, for arbitrary chains.
    #[test]
    fn transient_satisfies_chapman_kolmogorov(
        rates in proptest::collection::vec(0.05f64..5.0, 6),
        t1 in 0.1f64..10.0,
        t2 in 0.1f64..10.0,
    ) {
        let mut b = CtmcBuilder::new();
        let s: Vec<_> = (0..3).map(|i| b.state(&format!("s{i}"))).collect();
        let mut it = rates.into_iter();
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    b.transition(s[i], s[j], it.next().unwrap()).unwrap();
                }
            }
        }
        let c = b.build().unwrap();
        let p0 = c.point_mass(s[0]);
        let two_hop = c.transient(&c.transient(&p0, t1).unwrap(), t2).unwrap();
        let one_hop = c.transient(&p0, t1 + t2).unwrap();
        for i in 0..3 {
            prop_assert!(
                (two_hop[i] - one_hop[i]).abs() < 1e-8,
                "state {i}: {} vs {}", two_hop[i], one_hop[i]
            );
        }
    }
}

/// The inclusion-minimal masks over `n` bits among those satisfying
/// `holds`, as sorted index lists ordered by length and then ids — the
/// brute-force oracle for minimal cut and path sets.
fn minimal_masks(n: usize, holds: impl Fn(u32) -> bool) -> Vec<Vec<usize>> {
    let masks: Vec<u32> = (0..1u32 << n).filter(|&m| holds(m)).collect();
    let mut out: Vec<Vec<usize>> = masks
        .iter()
        .filter(|&&m| !masks.iter().any(|&s| s != m && s & m == s))
        .map(|&m| (0..n).filter(|i| m >> i & 1 == 1).collect())
        .collect();
    out.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    out
}

/// Random coherent fault trees: the ZBDD cut sets must equal the
/// brute-force minimal sets of failed events that force the top event
/// over all 2^n assignments, the path sets the minimal sets of working
/// events that keep it from occurring, and the union probabilities of
/// both families must reproduce the BDD top-event probability.
mod random_tree_equivalence {
    use proptest::prelude::*;
    use reliab::bounds::union_probability;
    use reliab::ftree::{EventId, FaultTreeBuilder, FtNode, VariableOrdering};
    use reliab::rbd::{Block, ComponentId, RbdBuilder};
    use reliab::spec::{solve_str_with, SolveOptions};

    const EVENTS: usize = 6;

    /// Builder-independent tree shape generated by proptest; converted
    /// to [`FtNode`] once event handles exist.
    #[derive(Debug, Clone)]
    enum Shape {
        Leaf(usize),
        And(Vec<Shape>),
        Or(Vec<Shape>),
        KOfN(usize, Vec<Shape>),
    }

    fn to_node(s: &Shape, events: &[EventId]) -> FtNode {
        let all = |xs: &[Shape]| xs.iter().map(|x| to_node(x, events)).collect();
        match s {
            Shape::Leaf(i) => FtNode::Basic(events[*i]),
            Shape::And(xs) => FtNode::And(all(xs)),
            Shape::Or(xs) => FtNode::Or(all(xs)),
            Shape::KOfN(k, xs) => FtNode::k_of_n(*k, all(xs)),
        }
    }

    /// Whether the top event occurs when the events in `failed` (a bit
    /// mask) have occurred.
    fn occurs(s: &Shape, failed: u32) -> bool {
        match s {
            Shape::Leaf(i) => failed >> i & 1 == 1,
            Shape::And(xs) => xs.iter().all(|x| occurs(x, failed)),
            Shape::Or(xs) => xs.iter().any(|x| occurs(x, failed)),
            Shape::KOfN(k, xs) => xs.iter().filter(|x| occurs(x, failed)).count() >= *k,
        }
    }

    /// Strategy: random tree of depth <= 3 with AND/OR gates of width
    /// 2-3 and 2-of-n / (n-1)-of-n votes of width 3-4, leaves drawn
    /// from the event pool (repetition allowed => shared events).
    fn tree_strategy() -> impl Strategy<Value = Shape> {
        let leaf = (0..EVENTS).prop_map(Shape::Leaf);
        leaf.prop_recursive(3, 24, 3, |inner| {
            prop_oneof![
                inner.clone(),
                proptest::collection::vec(inner.clone(), 2..=3).prop_map(Shape::And),
                proptest::collection::vec(inner.clone(), 2..=3).prop_map(Shape::Or),
                proptest::collection::vec(inner.clone(), 3..=4).prop_map(|xs| Shape::KOfN(2, xs)),
                proptest::collection::vec(inner, 3..=4)
                    .prop_map(|xs| Shape::KOfN(xs.len() - 1, xs)),
            ]
        })
    }

    const ORDERINGS: [VariableOrdering; 4] = [
        VariableOrdering::Declaration,
        VariableOrdering::DepthFirst,
        VariableOrdering::Weighted,
        VariableOrdering::Sifted,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn zbdd_sets_match_brute_force_and_reproduce_probability(
            shape in tree_strategy(),
            ordering in 0usize..4,
            probs in proptest::collection::vec(0.01f64..0.6, EVENTS),
        ) {
            let mut b = FaultTreeBuilder::new();
            let events: Vec<EventId> =
                (0..EVENTS).map(|i| b.basic_event(&format!("e{i}"))).collect();
            let ft = b
                .build_with_ordering(to_node(&shape, &events), ORDERINGS[ordering])
                .unwrap();
            let index_sets = |sets: Vec<Vec<EventId>>| -> Vec<Vec<usize>> {
                sets.into_iter()
                    .map(|s| s.into_iter().map(EventId::index).collect())
                    .collect()
            };
            let cuts = index_sets(
                ft.minimal_cut_sets(1 << EVENTS)
                    .unwrap()
                    .iter()
                    .map(|c| c.events().to_vec())
                    .collect(),
            );
            prop_assert_eq!(&cuts, &super::minimal_masks(EVENTS, |failed| occurs(&shape, failed)));
            let all = (1u32 << EVENTS) - 1;
            let paths = index_sets(ft.minimal_path_sets(1 << EVENTS).unwrap());
            prop_assert_eq!(
                &paths,
                &super::minimal_masks(EVENTS, |working| !occurs(&shape, all & !working))
            );
            // Exact union probabilities of both families equal the BDD
            // top-event probability.
            let q_top = ft.top_event_probability(&probs).unwrap();
            let q_union = union_probability(&cuts, &probs, EVENTS).unwrap();
            prop_assert!((q_top - q_union).abs() < 1e-12, "{q_top} vs {q_union}");
            let up: Vec<f64> = probs.iter().map(|q| 1.0 - q).collect();
            let r_union = union_probability(&paths, &up, EVENTS).unwrap();
            prop_assert!((1.0 - q_top - r_union).abs() < 1e-12, "{q_top} vs 1 - {r_union}");
        }
    }

    /// The De Morgan dual of a tree as a block diagram: an AND of
    /// failures is a parallel group of working components, an OR a
    /// series group, and `k` failures of `n` are `n − k + 1` working.
    fn dual_block(s: &Shape, components: &[ComponentId]) -> Block {
        let all = |xs: &[Shape]| xs.iter().map(|x| dual_block(x, components)).collect();
        match s {
            Shape::Leaf(i) => Block::Component(components[*i]),
            Shape::And(xs) => Block::Parallel(all(xs)),
            Shape::Or(xs) => Block::Series(all(xs)),
            Shape::KOfN(k, xs) => Block::k_of_n(xs.len() + 1 - k, all(xs)),
        }
    }

    /// A tree's gates as a spec `top`, or its dual as an RBD
    /// `structure`.
    fn shape_json(s: &Shape, dual: bool) -> String {
        let list = |xs: &[Shape]| {
            let items: Vec<String> = xs.iter().map(|x| shape_json(x, dual)).collect();
            format!("[{}]", items.join(", "))
        };
        match (s, dual) {
            (Shape::Leaf(i), _) => format!("\"e{i}\""),
            (Shape::And(xs), false) => format!("{{\"and\": {}}}", list(xs)),
            (Shape::Or(xs), false) => format!("{{\"or\": {}}}", list(xs)),
            (Shape::And(xs), true) => format!("{{\"parallel\": {}}}", list(xs)),
            (Shape::Or(xs), true) => format!("{{\"series\": {}}}", list(xs)),
            (Shape::KOfN(k, xs), _) => {
                let k = if dual { xs.len() + 1 - k } else { *k };
                format!("{{\"k_of_n\": {{\"k\": {k}, \"of\": {}}}}}", list(xs))
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// A tree and its dual RBD at availabilities `1 − q` are one
        /// structure function: `A + Q = 1`, the same Birnbaum
        /// importance, and the same criticality and Fussell–Vesely
        /// importance, which are themselves equal (`Q` is multilinear in
        /// each `q_i`, so `Q − Q(q_i = 0) = q_i · B_i`).
        #[test]
        fn tree_and_its_dual_rbd_agree(
            shape in tree_strategy(),
            probs in proptest::collection::vec(0.01f64..0.6, EVENTS),
        ) {
            let mut b = FaultTreeBuilder::new();
            let events: Vec<EventId> =
                (0..EVENTS).map(|i| b.basic_event(&format!("e{i}"))).collect();
            let mut ft = b.build(to_node(&shape, &events)).unwrap();
            let mut rb = RbdBuilder::new();
            let components: Vec<ComponentId> =
                (0..EVENTS).map(|i| rb.component(&format!("e{i}"))).collect();
            let mut rbd = rb.build(dual_block(&shape, &components)).unwrap();
            let up: Vec<f64> = probs.iter().map(|q| 1.0 - q).collect();
            let q = ft.top_event_probability(&probs).unwrap();
            let a = rbd.availability(&up).unwrap();
            prop_assert!((a + q - 1.0).abs() < 1e-12, "A {a} + Q {q}");
            let tol = 1e-12 + 64.0 * f64::EPSILON / q;
            let tree_rows = ft.importance(&probs).unwrap();
            let rbd_rows = rbd.importance(&up).unwrap();
            for (t, r) in tree_rows.iter().zip(&rbd_rows) {
                prop_assert_eq!(&t.component, &r.component);
                prop_assert!((t.birnbaum - r.birnbaum).abs() < 1e-12, "{t:?} vs {r:?}");
                prop_assert!((t.criticality - r.criticality).abs() < tol, "{t:?} vs {r:?}");
                prop_assert!((t.fussell_vesely - r.fussell_vesely).abs() < tol, "{t:?} vs {r:?}");
                for m in [t, r] {
                    prop_assert!((m.fussell_vesely - m.criticality).abs() < tol, "{m:?}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Simulated through the spec layer with the same distributions
        /// and seed, a repairable tree and its dual RBD give
        /// byte-identical measures.
        #[test]
        fn simulated_tree_and_its_dual_rbd_are_byte_identical(
            shape in tree_strategy(),
            ttf_means in proptest::collection::vec(20.0f64..200.0, EVENTS),
            ttr_means in proptest::collection::vec(1.0f64..20.0, EVENTS),
            seed in 0usize..1_000_000,
            replications in 2usize..=16,
        ) {
            let items: Vec<String> = ttf_means
                .iter()
                .zip(&ttr_means)
                .enumerate()
                .map(|(i, (ttf, ttr))| {
                    format!(
                        "{{\"name\": \"e{i}\", \
                          \"ttf_dist\": {{\"exponential\": {{\"mean\": {ttf}}}}}, \
                          \"ttr_dist\": {{\"exponential\": {{\"mean\": {ttr}}}}}}}"
                    )
                })
                .collect();
            let sim = format!(
                "{{\"measure\": \"availability\", \"horizon\": 500, \"seed\": {seed}, \
                  \"max_replications\": {replications}, \"rel_precision\": 0}}"
            );
            let items = items.join(", ");
            let tree = format!(
                "{{\"fault_tree\": {{\"events\": [{items}], \"top\": {}, \"sim\": {sim}}}}}",
                shape_json(&shape, false)
            );
            let rbd = format!(
                "{{\"rbd\": {{\"components\": [{items}], \"structure\": {}, \"sim\": {sim}}}}}",
                shape_json(&shape, true)
            );
            let measures = |doc: &str| {
                solve_str_with(doc, &SolveOptions::default())
                    .unwrap()
                    .measures
                    .to_json()
                    .to_json()
            };
            prop_assert_eq!(measures(&tree), measures(&rbd));
        }
    }
}

/// Random reliability graphs of at most 8 edges: the path sets (from the
/// works BDD) and cut sets (from its dual) must equal the brute-force
/// minimal connecting and disconnecting edge sets over every edge
/// subset, and the reliability the brute-force sum.
mod random_graph_equivalence {
    use proptest::prelude::*;
    use reliab::relgraph::{EdgeId, RelGraphBuilder};

    const NODES: usize = 5;

    /// An edge drawn as one code: endpoints, then whether it is an arc.
    fn decode(code: usize) -> (usize, usize, bool) {
        (code % NODES, code / NODES % NODES, code >= NODES * NODES)
    }

    /// Whether node 0 reaches node 1 over the edges in `up`.
    fn connected(edges: &[(usize, usize, bool)], up: u32) -> bool {
        let mut seen = [false; NODES];
        seen[0] = true;
        let mut stack = vec![0];
        while let Some(n) = stack.pop() {
            if n == 1 {
                return true;
            }
            for (i, &(u, v, arc)) in edges.iter().enumerate() {
                if up >> i & 1 == 0 {
                    continue;
                }
                let next = if u == n {
                    v
                } else if v == n && !arc {
                    u
                } else {
                    continue;
                };
                if !seen[next] {
                    seen[next] = true;
                    stack.push(next);
                }
            }
        }
        false
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn path_and_cut_sets_match_brute_force_connectivity(
            codes in proptest::collection::vec(0usize..2 * NODES * NODES, 1..=8),
            p in proptest::collection::vec(0.05f64..0.95, 8),
        ) {
            let edges: Vec<(usize, usize, bool)> = codes.iter().map(|&c| decode(c)).collect();
            let n = edges.len();
            let mut gb = RelGraphBuilder::new();
            let nodes: Vec<_> = (0..NODES).map(|i| gb.node(&format!("n{i}"))).collect();
            for (i, &(u, v, arc)) in edges.iter().enumerate() {
                let name = format!("e{i}");
                if arc {
                    gb.arc(nodes[u], nodes[v], &name);
                } else {
                    gb.edge(nodes[u], nodes[v], &name);
                }
            }
            let all = (1u32 << n) - 1;
            let built = gb.build(nodes[0], nodes[1]);
            prop_assert_eq!(built.is_ok(), connected(&edges, all));
            if let Ok(g) = built {
                let ids = |sets: Vec<Vec<EdgeId>>| -> Vec<Vec<usize>> {
                    sets.into_iter()
                        .map(|s| s.into_iter().map(|e| e.index()).collect())
                        .collect()
                };
                prop_assert_eq!(
                    ids(g.minimal_path_sets()),
                    super::minimal_masks(n, |up| connected(&edges, up))
                );
                prop_assert_eq!(
                    ids(g.minimal_cut_sets(1 << n).unwrap()),
                    super::minimal_masks(n, |down| !connected(&edges, all & !down))
                );
                let p = &p[..n];
                let brute: f64 = (0..=all)
                    .filter(|&up| connected(&edges, up))
                    .map(|up| {
                        (0..n)
                            .map(|i| if up >> i & 1 == 1 { p[i] } else { 1.0 - p[i] })
                            .product::<f64>()
                    })
                    .sum();
                let r = g.reliability(p).unwrap();
                prop_assert!((r - brute).abs() < 1e-12, "{r} vs {brute}");
            }
        }
    }
}
