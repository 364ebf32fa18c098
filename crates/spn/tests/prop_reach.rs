//! Property tests for the one state-space walk: on randomly generated
//! bounded SPNs, the walk that keeps rows (`Spn::solve_with`) and the
//! one that does not (`Spn::tangible_space`) must number the same markings
//! in the same order, start from the same initial pairs and count the
//! same arcs, and the generation guards (vanishing loops, marking caps)
//! must fail identically through both entry points.
//!
//! Net generation is seeded and self-contained so any failure
//! reproduces from the seed in the assertion message. Boundedness is
//! by construction: every output place carries an inhibitor cap, and
//! every immediate transition strictly decreases the token count, so
//! vanishing chains terminate.

use reliab_spn::{PlaceId, ReachabilityOptions, Spn, SpnBuilder, TransitionId};

/// splitmix64 — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn f64(&mut self) -> f64 {
        ((self.next() >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
    }
}

/// A random bounded SPN on 2–4 places, plus the id of its timed token
/// source (used as a throughput probe).
///
/// * Timed transitions: a token source (inhibitor-capped), plus
///   random movers with one input and an inhibitor-capped output.
/// * Immediate transitions: consume two tokens, emit at most one —
///   token count strictly decreases, so no vanishing chain can loop.
fn random_spn(seed: u64) -> (reliab_spn::Spn, TransitionId) {
    let mut rng = Rng(seed);
    let mut b = SpnBuilder::new();
    let num_places = 2 + rng.below(3) as usize;
    let cap = 3 + rng.below(3) as u32;
    let places: Vec<PlaceId> = (0..num_places)
        .map(|i| {
            let tokens = rng.below(3) as u32;
            b.place(&format!("p{i}"), tokens)
        })
        .collect();
    let pick = |rng: &mut Rng| places[rng.below(num_places as u64) as usize];

    // A capped source keeps the chain live (no all-deadlock nets).
    let source = b.timed("t_src", 0.5 + rng.f64());
    let src_place = pick(&mut rng);
    b.output_arc(source, src_place, 1);
    b.inhibitor_arc(source, src_place, cap);

    let num_timed = 2 + rng.below(3);
    for k in 0..num_timed {
        let t = b.timed(&format!("t{k}"), 0.2 + 2.0 * rng.f64());
        let from = pick(&mut rng);
        let to = pick(&mut rng);
        b.input_arc(t, from, 1);
        if to != from {
            b.output_arc(t, to, 1);
            b.inhibitor_arc(t, to, cap);
        }
    }

    let num_immediate = rng.below(3);
    for k in 0..num_immediate {
        let t = b.immediate(&format!("i{k}"), 0.1 + rng.f64(), rng.below(2) as u32);
        let a = pick(&mut rng);
        let bp = pick(&mut rng);
        if a == bp {
            b.input_arc(t, a, 2);
        } else {
            b.input_arc(t, a, 1);
            b.input_arc(t, bp, 1);
        }
        if rng.below(2) == 0 {
            let out = pick(&mut rng);
            b.output_arc(t, out, 1);
            b.inhibitor_arc(t, out, cap + 2);
        }
    }

    (b.build().expect("random net is well-formed"), source)
}

#[test]
fn both_tiers_walk_the_same_space_on_random_nets() {
    let opts = ReachabilityOptions::default();
    for seed in 0..40u64 {
        let (spn, source) = random_spn(seed);
        let solved = spn
            .solve_with(&opts)
            .unwrap_or_else(|e| panic!("seed {seed}: materialized solve failed: {e}"));
        let space = spn
            .tangible_space(&opts)
            .unwrap_or_else(|e| panic!("seed {seed}: tangible space failed: {e}"));
        assert_eq!(
            space.num_markings(),
            solved.num_markings(),
            "seed {seed}: marking counts differ"
        );
        for i in 0..space.num_markings() as u32 {
            assert_eq!(
                space.marking(i),
                solved.marking(i),
                "seed {seed}: marking {i} differs"
            );
        }
        assert_eq!(
            space.initial_pairs(),
            solved.space().initial_pairs(),
            "seed {seed}: initial pairs differ"
        );
        let mut initial = vec![0.0; space.num_markings()];
        for &(i, p) in space.initial_pairs() {
            initial[i as usize] += p;
        }
        assert_eq!(
            solved.initial_distribution(),
            &initial[..],
            "seed {seed}: initial distribution differs from its pairs"
        );
        let (a, b) = (space.stats(), solved.reach_stats());
        assert_eq!(a.markings, b.markings, "seed {seed}: stats markings");
        assert_eq!(a.arcs, b.arcs, "seed {seed}: stats arcs");
        assert_eq!(
            a.vanishing_eliminated, b.vanishing_eliminated,
            "seed {seed}: stats vanishing eliminated"
        );
        assert_eq!(b.markings, solved.num_markings(), "seed {seed}");

        // One π, the same measure from either tier's space.
        if let Ok(pi) = solved.ctmc().steady_state() {
            let st = space.throughput_given(&pi, source).expect("source exists");
            let mt = solved.throughput(source).expect("source exists");
            assert_eq!(
                st.to_bits(),
                mt.to_bits(),
                "seed {seed}: throughput differs"
            );
        }
    }
}

/// The error both entry points return for `spn`; they must agree.
fn same_error_from_both_tiers(spn: &Spn, opts: &ReachabilityOptions) -> String {
    let materialized = spn
        .solve_with(opts)
        .expect_err("materialized generation must fail");
    let streamed = spn
        .tangible_space(opts)
        .expect_err("streamed generation must fail");
    assert_eq!(materialized, streamed, "the tiers fail differently");
    materialized.to_string()
}

/// A vanishing loop behind a timed transition: the loop is not visible
/// at the initial marking, so it must be detected mid-exploration.
#[test]
fn vanishing_loop_is_detected_through_both_entry_points() {
    let mut b = SpnBuilder::new();
    let staging = b.place("staging", 0);
    let trap = b.place("trap", 0);
    let feed = b.timed("feed", 1.0);
    b.output_arc(feed, staging, 1);
    b.inhibitor_arc(feed, staging, 1);
    let arm = b.timed("arm", 2.0);
    b.input_arc(arm, staging, 1);
    b.output_arc(arm, trap, 1);
    // Immediate self-loop: fires forever once `trap` is marked.
    let spin = b.immediate("spin", 1.0, 0);
    b.input_arc(spin, trap, 1);
    b.output_arc(spin, trap, 1);
    let spn = b.build().unwrap();

    let msg = same_error_from_both_tiers(&spn, &ReachabilityOptions::default());
    assert!(msg.contains("vanishing"), "unexpected error: {msg}");
}

/// The marking cap aborts generation identically in both tiers.
#[test]
fn marking_cap_fires_through_both_entry_points() {
    let mut b = SpnBuilder::new();
    let p = b.place("p", 0);
    let grow = b.timed("grow", 1.0);
    b.output_arc(grow, p, 1);
    let spn = b.build().unwrap();

    let opts = ReachabilityOptions {
        max_markings: 64,
        ..Default::default()
    };
    let msg = same_error_from_both_tiers(&spn, &opts);
    assert!(msg.contains("64"), "unexpected error: {msg}");
}
