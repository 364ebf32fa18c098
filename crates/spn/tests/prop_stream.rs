//! Property tests for the one SPN solve: on randomly generated bounded
//! SPNs, the rows the walk keeps and the rows regenerated from the
//! arena must reproduce the chain's rows and exit rates bit for bit, so
//! the one steady-state kernel gives bitwise-equal π on any source at
//! any block count and any admitting memory budget; GTH and the Padé
//! matrix exponential remain the oracles.
//!
//! Net generation is seeded and self-contained so any failure
//! reproduces from the seed in the assertion message (same scheme as
//! the reachability property tests).

use reliab_markov::{
    scan_rates, steady_state, Ctmc, PlanOutcome, RowSource, SteadyMethod, SteadyOptions,
    SteadyReport,
};
use reliab_numeric::{expm, DenseMatrix};
use reliab_spn::{PlaceId, ReachabilityOptions, RowBuffer, SpaceRows, SpnBuilder, TangibleSpace};

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

/// A random bounded SPN on 2–4 places: a capped token source, random
/// timed movers, and immediate transitions that strictly decrease the
/// token count (so vanishing chains terminate).
fn random_spn(seed: u64) -> reliab_spn::Spn {
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

    b.build().expect("random net is well-formed")
}

/// The exact report; every budget here admits the model.
fn exact(src: &dyn RowSource, opts: &SteadyOptions) -> reliab_core::Result<SteadyReport> {
    match steady_state(src, opts)? {
        PlanOutcome::Exact(report) => Ok(report),
        PlanOutcome::NeedsBounds { .. } => panic!("the budget admits the model"),
    }
}

/// SOR with the default iterative settings.
fn sor() -> SteadyOptions {
    SteadyOptions {
        method: SteadyMethod::Sor,
        ..Default::default()
    }
}

/// The independent reference chain: [`Ctmc::from_parts`] over the arcs
/// regenerated from the arena, in emission order, each state named by
/// its marking.
fn reference_ctmc(space: &TangibleSpace<'_>) -> Ctmc {
    let n = space.num_markings();
    let names = (0..n)
        .map(|i| format!("{:?}", space.marking(i as u32)))
        .collect();
    let mut triplets = Vec::new();
    let mut row = RowBuffer::new();
    for i in 0..n {
        space.successors(i as u32, &mut row).unwrap();
        triplets.extend(row.arcs.iter().map(|&(j, r)| (i, j as usize, r)));
    }
    Ctmc::from_parts(names, triplets).unwrap()
}

#[test]
fn arena_rows_match_ctmc_rows_bitwise_on_random_nets() {
    let mut with_parallel_arcs = 0;
    for seed in 0..30u64 {
        let spn = random_spn(seed);
        let ropts = ReachabilityOptions::default();
        let solved = spn.solve_with(&ropts).expect("bounded net solves");
        let space = spn.tangible_space(&ropts).expect("space generates");
        let kept = SpaceRows::new(solved.space());
        let arena = SpaceRows::new(&space);
        let ctmc = solved.ctmc();
        // The chain built from the kept rows is the reference chain to
        // the bit: the Debug form prints every field, each rate in a
        // form that reads back to the same bits.
        let reference = reference_ctmc(&space);
        assert_eq!(format!("{ctmc:?}"), format!("{reference:?}"), "seed {seed}");
        assert_eq!(arena.num_states(), ctmc.num_states(), "seed {seed}");
        let (mut k, mut a, mut c) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..arena.num_states() as u32 {
            let ek = kept.row(i, &mut k).unwrap();
            let ea = arena.row(i, &mut a).unwrap();
            let ec = ctmc.row(i, &mut c).unwrap();
            assert_eq!(ek.to_bits(), ec.to_bits(), "seed {seed}, kept exit of {i}");
            assert_eq!(ea.to_bits(), ec.to_bits(), "seed {seed}, exit of {i}");
            assert_eq!(k, c, "seed {seed}, kept row {i}");
            assert_eq!(a, c, "seed {seed}, row {i}");
        }
        // The exit rates are the builder's declaration-order sums.
        let scan = scan_rates(&arena).unwrap();
        assert_eq!(scan.exit, ctmc.exit_rates(), "seed {seed}");
        assert_eq!(scan, scan_rates(ctmc).unwrap(), "seed {seed}");
        assert_eq!(scan, scan_rates(&kept).unwrap(), "seed {seed}");
        // Kept rows are read, never regenerated.
        assert_eq!(kept.regenerated(), 0, "seed {seed}");
        assert_eq!(arena.regenerated(), 2 * space.num_markings() as u64);
        with_parallel_arcs += usize::from(space.stats().arcs as u64 > scan.arcs);
    }
    assert!(with_parallel_arcs > 0, "no net merged a parallel arc");
}

#[test]
fn arena_and_ctmc_sources_give_bitwise_equal_pi_at_any_blocking() {
    let mut compared = 0usize;
    for seed in 0..30u64 {
        let spn = random_spn(seed);
        let ropts = ReachabilityOptions::default();
        let solved = spn.solve_with(&ropts).unwrap();
        let space = spn.tangible_space(&ropts).unwrap();
        let arena = SpaceRows::new(&space);
        let kept = SpaceRows::new(solved.space());
        let ctmc = solved.ctmc();
        let n = space.num_markings();

        let in_core = ctmc.steady_state_report(&sor());
        let streamed = exact(&arena, &sor());
        let reference = match (in_core, streamed) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.pi, b.pi, "seed {seed}: arena vs in-core SOR");
                assert_eq!(a.iterations, b.iterations, "seed {seed}");
                b
            }
            (Err(_), Err(_)) => continue, // absorbing / non-converging net
            (a, b) => panic!("seed {seed}: solvability differs ({a:?} vs {b:?})"),
        };
        compared += 1;
        // GTH is the oracle wherever the chain is irreducible (SOR
        // also settles on reducible chains with one closed class).
        if let Ok(gth) = ctmc.steady_state_report(&SteadyOptions::default()) {
            for (i, (g, p)) in gth.pi.iter().zip(&reference.pi).enumerate() {
                assert!((g - p).abs() < 1e-8, "seed {seed}, state {i}: {g} vs {p}");
            }
        }
        let floor = arena.resident_bytes() + 2 * 8 * n;
        let kept_floor = kept.resident_bytes() + 2 * 8 * n;
        let ctmc_floor = RowSource::resident_bytes(ctmc) + 2 * 8 * n;
        for blocks in [1usize, 2, 5, 32, 1000] {
            let opts = SteadyOptions {
                blocks: Some(blocks),
                ..sor()
            };
            for (what, pi) in [
                ("arena", exact(&arena, &opts).unwrap().pi),
                ("kept", exact(&kept, &opts).unwrap().pi),
                ("ctmc", exact(ctmc, &opts).unwrap().pi),
            ] {
                assert_eq!(pi, reference.pi, "seed {seed}, {what}, blocks {blocks}");
            }
        }
        for extra in [0usize, 64, 512, 4096, 1 << 22] {
            let budget = |floor: usize| SteadyOptions {
                mem_budget: Some(floor + extra),
                ..sor()
            };
            for (what, pi) in [
                ("arena", exact(&arena, &budget(floor)).unwrap().pi),
                ("kept", exact(&kept, &budget(kept_floor)).unwrap().pi),
                ("ctmc", exact(ctmc, &budget(ctmc_floor)).unwrap().pi),
            ] {
                assert_eq!(pi, reference.pi, "seed {seed}, {what}, floor+{extra}");
            }
        }
    }
    assert!(compared >= 10, "only {compared} nets were solvable");
}

#[test]
fn net_transients_match_matrix_exponential() {
    for seed in 0..20u64 {
        let spn = random_spn(seed);
        let solved = spn.solve_with(&ReachabilityOptions::default()).unwrap();
        let ctmc = solved.ctmc();
        let n = ctmc.num_states();
        let p0 = solved.initial_distribution();
        let q = ctmc.generator_dense();
        for &t in &[0.3, 2.0, 25.0] {
            let mut qt = DenseMatrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    qt.set(i, j, q.get(i, j) * t);
                }
            }
            let e = expm(&qt).unwrap();
            let pi = ctmc.transient(p0, t).unwrap();
            for (j, &p) in pi.iter().enumerate() {
                let oracle: f64 = (0..n).map(|i| p0[i] * e.get(i, j)).sum();
                assert!(
                    (p - oracle).abs() < 1e-8,
                    "seed {seed}, t {t}, state {j}: {p} vs expm {oracle}"
                );
            }
        }
    }
}

#[test]
fn stream_power_is_block_invariant_and_agrees_with_sor() {
    for seed in [1u64, 4, 9, 13, 22] {
        let spn = random_spn(seed);
        let ropts = ReachabilityOptions::default();
        let space = spn.tangible_space(&ropts).unwrap();
        let arena = SpaceRows::new(&space);
        let n = space.num_markings();

        let Ok(sor) = exact(&arena, &sor()) else {
            continue; // absorbing / non-converging net: skip
        };
        let power = |blocks| {
            let opts = SteadyOptions {
                blocks: Some(blocks),
                method: SteadyMethod::Power,
                ..Default::default()
            };
            exact(&arena, &opts).ok()
        };
        // Power may legitimately fail to converge where SOR succeeds;
        // when it converges it agrees loosely with SOR, and bitwise
        // with itself at any block count.
        let Some(reference) = power(1) else { continue };
        assert_eq!(reference.method, "stream-power");
        for i in 0..n {
            assert!(
                (reference.pi[i] - sor.pi[i]).abs() < 1e-6,
                "seed {seed}, state {i}"
            );
        }
        for blocks in [2usize, 5, 32, 1000] {
            let r = power(blocks).expect("converges like one block");
            assert_eq!(r.pi, reference.pi, "seed {seed}, blocks {blocks}");
        }
    }
}
