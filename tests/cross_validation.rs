//! Cross-crate validation: the same system solved through different
//! model classes (RBD, fault tree, reliability graph, CTMC, SPN, SMP,
//! simulation) must give the same answers.

use reliab::dist::{Exponential, Lifetime};
use reliab::ftree::{FaultTreeBuilder, FtNode};
use reliab::markov::CtmcBuilder;
use reliab::rbd::{Block, RbdBuilder};
use reliab::relgraph::RelGraphBuilder;
use reliab::semimarkov::SemiMarkovBuilder;
use reliab::sim::SystemSimulator;
use reliab::spn::SpnBuilder;

/// RBD and fault tree are duals: system works iff top event does not
/// fire.
#[test]
fn rbd_and_fault_tree_duality() {
    // System: (a || b) && c.
    let mut rb = RbdBuilder::new();
    let a = rb.component("a");
    let b = rb.component("b");
    let c = rb.component("c");
    let rbd = rb
        .build(Block::series(vec![Block::parallel_of(&[a, b]), c.into()]))
        .unwrap();

    let mut fb = FaultTreeBuilder::new();
    let fa = fb.basic_event("a");
    let fbv = fb.basic_event("b");
    let fc = fb.basic_event("c");
    // Fails if (a fails AND b fails) OR c fails.
    let ft = fb
        .build(FtNode::or(vec![FtNode::and_of(&[fa, fbv]), fc.into()]))
        .unwrap();

    for probs in [[0.9, 0.8, 0.95], [0.5, 0.5, 0.5], [0.99, 0.01, 0.7]] {
        let avail = rbd.availability(&probs).unwrap();
        let fail_probs: Vec<f64> = probs.iter().map(|p| 1.0 - p).collect();
        let q = ft.top_event_probability(&fail_probs).unwrap();
        assert!((avail + q - 1.0).abs() < 1e-12, "probs {probs:?}");
    }
}

/// A series-parallel reliability graph equals the corresponding RBD.
#[test]
fn relgraph_matches_rbd_on_series_parallel() {
    // Two parallel paths of two edges each.
    let mut gb = RelGraphBuilder::new();
    let s = gb.node("s");
    let m1 = gb.node("m1");
    let m2 = gb.node("m2");
    let t = gb.node("t");
    gb.edge(s, m1, "e0");
    gb.edge(m1, t, "e1");
    gb.edge(s, m2, "e2");
    gb.edge(m2, t, "e3");
    let g = gb.build(s, t).unwrap();

    let mut rb = RbdBuilder::new();
    let c = rb.components("e", 4);
    let rbd = rb
        .build(Block::parallel(vec![
            Block::series_of(&c[0..2]),
            Block::series_of(&c[2..4]),
        ]))
        .unwrap();

    let p = [0.95, 0.9, 0.85, 0.8];
    let r_graph = g.reliability(&p).unwrap();
    let r_rbd = rbd.availability(&p).unwrap();
    assert!((r_graph - r_rbd).abs() < 1e-12);
}

/// CTMC steady state equals SPN steady state for the same queueing
/// system, and both match the closed form.
#[test]
fn spn_reduces_to_same_ctmc() {
    let (lambda, mu, k) = (1.0f64, 3.0f64, 5usize);

    // Direct CTMC.
    let mut cb = CtmcBuilder::new();
    let states: Vec<_> = (0..=k).map(|i| cb.state(&format!("n{i}"))).collect();
    for i in 0..k {
        cb.transition(states[i], states[i + 1], lambda).unwrap();
        cb.transition(states[i + 1], states[i], mu).unwrap();
    }
    let ctmc = cb.build().unwrap();
    let pi = ctmc.steady_state().unwrap();

    // SPN of the same M/M/1/K queue.
    let mut sb = SpnBuilder::new();
    let q = sb.place("queue", 0);
    let arrive = sb.timed("arrive", lambda);
    sb.output_arc(arrive, q, 1);
    sb.inhibitor_arc(arrive, q, k as u32);
    let serve = sb.timed("serve", mu);
    sb.input_arc(serve, q, 1);
    let spn = sb.build().unwrap();
    let solved = spn.solve().unwrap();
    assert_eq!(solved.num_markings(), k + 1);

    for (n, &pi_n) in pi.iter().enumerate().take(k + 1) {
        let p_spn = solved
            .steady_state_expected_reward(|m| if m[0] as usize == n { 1.0 } else { 0.0 })
            .unwrap();
        assert!((p_spn - pi_n).abs() < 1e-12, "state {n}");
        // Closed form for M/M/1/K.
        let rho: f64 = lambda / mu;
        let norm: f64 = (0..=k).map(|i| rho.powi(i as i32)).sum();
        assert!((pi_n - rho.powi(n as i32) / norm).abs() < 1e-12);
    }
}

/// Semi-Markov with exponential sojourns equals the CTMC.
#[test]
fn smp_with_exponential_sojourns_equals_ctmc() {
    let (l, m) = (0.25f64, 2.0f64);
    let mut cb = CtmcBuilder::new();
    let up = cb.state("up");
    let down = cb.state("down");
    cb.transition(up, down, l).unwrap();
    cb.transition(down, up, m).unwrap();
    let pi_ctmc = cb.build().unwrap().steady_state().unwrap();

    let mut sb = SemiMarkovBuilder::new();
    let sup = sb.state("up", Box::new(Exponential::new(l).unwrap()));
    let sdown = sb.state("down", Box::new(Exponential::new(m).unwrap()));
    sb.transition(sup, sdown, 1.0).unwrap();
    sb.transition(sdown, sup, 1.0).unwrap();
    let pi_smp = sb.build().unwrap().steady_state().unwrap();

    assert!((pi_ctmc[0] - pi_smp[0]).abs() < 1e-12);
    assert!((pi_ctmc[1] - pi_smp[1]).abs() < 1e-12);
}

/// Simulation confirms the analytic availability of a 2-of-3 system.
#[test]
fn simulation_confirms_rbd_two_of_three() {
    let (l, m) = (0.02f64, 0.5f64);
    let a = m / (l + m);
    let mut rb = RbdBuilder::new();
    let c = rb.components("c", 3);
    let rbd = rb.build(Block::k_of_n_components(2, &c)).unwrap();
    let analytic = rbd.availability(&[a, a, a]).unwrap();

    let mut sim = SystemSimulator::new(|s: &[bool]| s.iter().filter(|&&b| b).count() >= 2);
    for _ in 0..3 {
        sim.component(
            Box::new(Exponential::new(l).unwrap()),
            Box::new(Exponential::new(m).unwrap()),
        );
    }
    let est = sim.availability(30_000.0, 32, 17).unwrap();
    assert!(
        est.interval.contains(analytic),
        "simulated [{}, {}] vs analytic {analytic}",
        est.interval.lower,
        est.interval.upper
    );
}

/// Uniformization agrees with a direct matrix exponential
/// (scaling-and-squaring Taylor series) on a dense random chain.
#[test]
fn uniformization_matches_matrix_exponential() {
    use reliab::numeric::DenseMatrix;
    // 4-state chain with deterministic pseudo-random rates.
    let n = 4;
    let mut b = CtmcBuilder::new();
    let s: Vec<_> = (0..n).map(|i| b.state(&format!("s{i}"))).collect();
    let mut seed = 0xABCDEFu64;
    let mut next = || {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        0.05 + ((seed >> 33) as f64) / (u32::MAX as f64) * 3.0
    };
    for i in 0..n {
        for j in 0..n {
            if i != j {
                b.transition(s[i], s[j], next()).unwrap();
            }
        }
    }
    let ctmc = b.build().unwrap();
    let q = ctmc.generator_dense();

    // expm(Q t) by scaling & squaring + Taylor series.
    let expm = |t: f64| -> DenseMatrix {
        let norm = q.max_abs() * t;
        let scalings = (norm.log2().ceil().max(0.0) as u32) + 4;
        let scale = f64::from(2u32.pow(scalings));
        // A = Q t / 2^s
        let mut a = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a.set(i, j, q.get(i, j) * t / scale);
            }
        }
        // e^A by Taylor to order 20.
        let mut result = DenseMatrix::identity(n);
        let mut term = DenseMatrix::identity(n);
        for k in 1..=20 {
            term = term.matmul(&a).unwrap();
            let mut scaled = DenseMatrix::zeros(n, n);
            let fact: f64 = (1..=k).map(f64::from).product();
            for i in 0..n {
                for j in 0..n {
                    scaled.set(i, j, term.get(i, j) / fact);
                }
            }
            for i in 0..n {
                for j in 0..n {
                    result.add_to(i, j, scaled.get(i, j));
                }
            }
        }
        for _ in 0..scalings {
            result = result.matmul(&result).unwrap();
        }
        result
    };

    let p0 = ctmc.point_mass(s[0]);
    for &t in &[0.1, 0.5, 2.0, 10.0] {
        let via_uniformization = ctmc.transient(&p0, t).unwrap();
        let e = expm(t);
        let via_expm = e.vecmat(&p0).unwrap();
        for i in 0..n {
            assert!(
                (via_uniformization[i] - via_expm[i]).abs() < 1e-8,
                "t = {t}, state {i}: {} vs {}",
                via_uniformization[i],
                via_expm[i]
            );
        }
    }
}

/// Field-data pipeline: empirical sample -> two-moment phase-type fit
/// -> simulator, recovering the alternating-renewal availability that
/// only depends on the means.
#[test]
fn empirical_fit_simulation_pipeline() {
    use reliab::dist::Empirical;
    // Synthetic "field data": deterministic grid with mean 20, cv² < 1.
    let ttf_data: Vec<f64> = (0..400)
        .map(|i| 10.0 + 20.0 * (i as f64 + 0.5) / 400.0)
        .collect();
    let ttr_data: Vec<f64> = (0..400)
        .map(|i| 0.5 + 1.0 * (i as f64 + 0.5) / 400.0)
        .collect();
    let ttf_emp = Empirical::from_samples(&ttf_data).unwrap();
    let ttr_emp = Empirical::from_samples(&ttr_data).unwrap();
    let expected = ttf_emp.mean() / (ttf_emp.mean() + ttr_emp.mean());

    let ttf_fit = ttf_emp.fit().unwrap().into_lifetime();
    let ttr_fit = ttr_emp.fit().unwrap().into_lifetime();
    assert!((ttf_fit.mean() - ttf_emp.mean()).abs() < 1e-9);

    let mut sim = SystemSimulator::new(|s: &[bool]| s[0]);
    sim.component(ttf_fit, ttr_fit);
    let est = sim.availability(50_000.0, 24, 5).unwrap();
    assert!(
        est.interval.contains(expected),
        "[{}, {}] vs {expected}",
        est.interval.lower,
        est.interval.upper
    );
}

/// BDD-extracted minimal cut sets of a fault tree representing the
/// bridge network equal the graph-theoretic cut sets.
#[test]
fn bdd_cut_sets_match_graph_cut_sets() {
    use reliab::relgraph::RelGraphBuilder;
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
    let graph_cuts: Vec<Vec<usize>> = g
        .minimal_cut_sets(1000)
        .unwrap()
        .into_iter()
        .map(|cs| cs.into_iter().map(|e| e.index()).collect())
        .collect();

    // Same system as a fault tree: fails if all edges of some cut
    // fail... build instead from the works-side: the failure function
    // is the complement, and its minimal solutions over failure
    // variables are exactly the graph's minimal cut sets. Encode with
    // the path sets: system works if some path works.
    let mut fb = FaultTreeBuilder::new();
    let ev = fb.basic_events("edge", 5);
    // Failure = for every path, at least one edge failed. Paths:
    // {0,3}, {1,4}, {0,2,4}, {1,2,3}.
    let paths: Vec<Vec<usize>> = vec![vec![0, 3], vec![1, 4], vec![0, 2, 4], vec![1, 2, 3]];
    let top = FtNode::and(
        paths
            .iter()
            .map(|p| FtNode::or_of(&p.iter().map(|&i| ev[i]).collect::<Vec<_>>()))
            .collect(),
    );
    let ft = fb.build(top).unwrap();
    let ft_cuts: Vec<Vec<usize>> = ft
        .minimal_cut_sets(1000)
        .unwrap()
        .into_iter()
        .map(|cs| cs.events().iter().map(|e| e.index()).collect())
        .collect();
    assert_eq!(graph_cuts, ft_cuts);
}

/// Absorbing-CTMC reliability equals the RBD reliability with
/// exponential lifetimes and no repair.
#[test]
fn absorbing_ctmc_matches_rbd_reliability() {
    // Parallel pair, rates 1 and 2, no repair.
    let mut cb = CtmcBuilder::new();
    let both = cb.state("both");
    let only1 = cb.state("only-1");
    let only2 = cb.state("only-2");
    let dead = cb.state("dead");
    cb.transition(both, only2, 1.0).unwrap(); // comp 1 (rate 1) fails
    cb.transition(both, only1, 2.0).unwrap(); // comp 2 (rate 2) fails
    cb.transition(only1, dead, 1.0).unwrap();
    cb.transition(only2, dead, 2.0).unwrap();
    let ctmc = cb.build().unwrap();
    let p0 = ctmc.point_mass(both);

    let mut rb = RbdBuilder::new();
    let c = rb.components("c", 2);
    let rbd = rb.build(Block::parallel_of(&c)).unwrap();
    let d1 = Exponential::new(1.0).unwrap();
    let d2 = Exponential::new(2.0).unwrap();
    let lifetimes: Vec<&dyn Lifetime> = vec![&d1, &d2];

    for &t in &[0.1, 0.5, 1.0, 2.0] {
        let r_ctmc = ctmc.reliability_at(&p0, &[dead], t).unwrap();
        let r_rbd = rbd.reliability(&lifetimes, t).unwrap();
        assert!(
            (r_ctmc - r_rbd).abs() < 1e-9,
            "t = {t}: {r_ctmc} vs {r_rbd}"
        );
    }

    // And the MTTFs agree too: 1/1 + 1/2 - 1/3.
    let mttf_ctmc = ctmc.mttf(&p0, &[dead]).unwrap();
    let mttf_rbd = rbd.mttf(&lifetimes).unwrap();
    let exact = 1.0 + 0.5 - 1.0 / 3.0;
    assert!((mttf_ctmc - exact).abs() < 1e-10);
    assert!((mttf_rbd - exact).abs() < 1e-7);
}
