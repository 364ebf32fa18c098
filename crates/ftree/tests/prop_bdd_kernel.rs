//! Property test: the BDD kernel's compacting GC must be invisible to
//! every measure.
//!
//! Random fault trees (nested AND/OR/k-of-n gates over a shared event
//! pool) are compiled under aggressive GC (compacting every few nodes)
//! and with GC disabled: the reduced BDD is canonical, so the node
//! count and the top-event probability *bits* must match. A mismatch
//! means node relocation leaked into results.

use proptest::collection::vec;
use proptest::prelude::*;
use reliab_ftree::{CompileOptions, EventId, FaultTreeBuilder, FtNode, VariableOrdering};

/// Builder-independent gate structure over an event-pool index space.
#[derive(Debug, Clone)]
enum Shape {
    Leaf(usize),
    Or(Vec<Shape>),
    And(Vec<Shape>),
    KOfN(Vec<Shape>),
}

const POOL: usize = 24;

fn shape_strategy() -> BoxedStrategy<Shape> {
    (0usize..POOL)
        .prop_map(Shape::Leaf)
        .prop_recursive(3, 64, 4, |inner| {
            prop_oneof![
                vec(inner.clone(), 2..=4).prop_map(Shape::Or),
                vec(inner.clone(), 2..=4).prop_map(Shape::And),
                vec(inner, 3..=5).prop_map(Shape::KOfN),
            ]
        })
}

fn to_node(shape: &Shape, events: &[EventId]) -> FtNode {
    match shape {
        Shape::Leaf(i) => FtNode::Basic(events[*i % events.len()]),
        Shape::Or(xs) => FtNode::or(xs.iter().map(|s| to_node(s, events)).collect()),
        Shape::And(xs) => FtNode::and(xs.iter().map(|s| to_node(s, events)).collect()),
        Shape::KOfN(xs) => FtNode::k_of_n(2, xs.iter().map(|s| to_node(s, events)).collect()),
    }
}

/// Compiles `shape` at ftree level and returns (probability, bdd size).
fn compile_under(shape: &Shape, options: &CompileOptions, probs: &[f64]) -> (f64, usize) {
    let mut b = FaultTreeBuilder::new();
    let events = b.basic_events("e", POOL);
    let top = to_node(shape, &events);
    let ft = b.build_with(top, options).expect("random tree compiles");
    let q = ft
        .top_event_probability(probs)
        .expect("valid probabilities");
    (q, ft.bdd_size())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Compacting GC relocates every live node and rewrites the unique
    /// table, yet the canonical graph — and therefore the probability
    /// bits and node count — must be exactly what a GC-free build
    /// produces.
    #[test]
    fn compaction_is_invisible(
        shape in shape_strategy(),
        probs in vec(0.01f64..0.3, POOL..=POOL),
    ) {
        let never = CompileOptions::new()
            .with_ordering(VariableOrdering::Declaration)
            .with_gc_node_threshold(usize::MAX);
        let (q_ref, size_ref) = compile_under(&shape, &never, &probs);
        let aggressive = CompileOptions::new()
            .with_ordering(VariableOrdering::Declaration)
            .with_gc_node_threshold(16);
        let (q_gc, size_gc) = compile_under(&shape, &aggressive, &probs);
        prop_assert_eq!(
            q_ref.to_bits(), q_gc.to_bits(),
            "compaction changed probability: {:.17e} vs {:.17e}", q_ref, q_gc
        );
        prop_assert_eq!(size_ref, size_gc, "compaction changed the reduced node count");
    }
}
