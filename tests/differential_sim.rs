//! Differential testing of the discrete-event simulation subsystem
//! against analytic oracles (EXPERIMENTS.md E6 and E19).
//!
//! * **E6 — transient reliability.** A repairable multiprocessor
//!   (2 processors 1-of-2, 3 memories 2-of-3, one bus, all
//!   exponential) is solved two ways that share no code: as a CTMC
//!   over component-failure bitmasks with an absorbing system-failure
//!   state (uniformization transient), and by simulating mission
//!   reliability. The analytic `R(t)` must fall inside the simulated
//!   99% confidence interval at every checked time point.
//! * **E19 — insensitivity.** Steady-state availability of the
//!   workstations-and-file-server system depends only on the *means*
//!   of the repair distributions (single-component alternating renewal
//!   insensitivity), so the exponential closed form must sit inside
//!   the simulated CI even when repairs are lognormal (cv² = 4) or
//!   heavy-tailed Pareto — distributions no Markov model can express.
//!
//! Every simulation here is a pure function of its seed, so failures
//! reproduce exactly.

use reliab::dist::{Exponential, Lifetime, LogNormal, Pareto};
use reliab::markov::Ctmc;
use reliab::models::wfs::{wfs_availability, WfsParams};
use reliab::sim::{Measure, SimOptions, SystemSimulator};
use reliab::spec::{solve_str_with, SolveOptions, SolvedMeasures};

/// Component layout of the E6 multiprocessor: indices 0–1 processors,
/// 2–4 memories, 5 bus.
const N_COMP: usize = 6;
const PROC_RATE: f64 = 1.0 / 8000.0;
const MEM_RATE: f64 = 1.0 / 5000.0;
const BUS_RATE: f64 = 1.0 / 20000.0;
const REPAIR_RATE: f64 = 1.0 / 4.0; // 4 h mean repair, every component

fn comp_fail_rate(i: usize) -> f64 {
    match i {
        0 | 1 => PROC_RATE,
        2..=4 => MEM_RATE,
        _ => BUS_RATE,
    }
}

/// Structure function: up iff ≥1 processor, ≥2 memories, and the bus.
fn multiproc_works(up: &[bool]) -> bool {
    let procs = up[..2].iter().filter(|&&u| u).count();
    let mems = up[2..5].iter().filter(|&&u| u).count();
    procs >= 1 && mems >= 2 && up[5]
}

/// Analytic mission reliability: CTMC over failed-component bitmasks
/// with repairs, plus one absorbing state entered at the first system
/// failure. `R(t) = 1 − P(absorbed by t)` via uniformization.
fn multiproc_reliability_ctmc(times: &[f64]) -> Vec<f64> {
    let n_states = 1usize << N_COMP; // bitmask of failed components
    let fail_state = n_states; // absorbing "system failed"
    let up_of = |mask: usize| -> Vec<bool> { (0..N_COMP).map(|i| mask & (1 << i) == 0).collect() };
    let mut transitions: Vec<(usize, usize, f64)> = Vec::new();
    for mask in 0..n_states {
        if !multiproc_works(&up_of(mask)) {
            continue; // unreachable before absorption
        }
        for i in 0..N_COMP {
            let bit = 1 << i;
            if mask & bit == 0 {
                let next = mask | bit;
                let to = if multiproc_works(&up_of(next)) {
                    next
                } else {
                    fail_state
                };
                transitions.push((mask, to, comp_fail_rate(i)));
            } else {
                transitions.push((mask, mask & !bit, REPAIR_RATE));
            }
        }
    }
    let names = (0..=n_states).map(|m| format!("m{m}")).collect();
    let ctmc = Ctmc::from_parts(names, transitions).expect("valid multiprocessor chain");
    let mut initial = vec![0.0; n_states + 1];
    initial[0] = 1.0;
    times
        .iter()
        .map(|&t| {
            let pi = ctmc
                .transient(&initial, t)
                .expect("uniformization transient");
            1.0 - pi[fail_state]
        })
        .collect()
}

fn multiproc_simulator() -> SystemSimulator {
    let mut sim = SystemSimulator::new(multiproc_works);
    for i in 0..N_COMP {
        sim.component(
            Box::new(Exponential::new(comp_fail_rate(i)).unwrap()),
            Box::new(Exponential::new(REPAIR_RATE).unwrap()),
        );
    }
    sim
}

#[test]
fn e6_simulated_transient_reliability_brackets_uniformization() {
    let times = [1000.0, 5000.0, 20000.0];
    let analytic = multiproc_reliability_ctmc(&times);
    let sim = multiproc_simulator();
    for (k, (&t, &exact)) in times.iter().zip(&analytic).enumerate() {
        let opts = SimOptions::default()
            .with_seed(0xE6_0001 + k as u64)
            .with_rel_precision(0.0)
            .with_max_replications(4096)
            .with_confidence(0.99);
        let report = sim
            .simulate(Measure::Reliability { mission_time: t }, &opts)
            .unwrap();
        assert!(
            report.interval.contains(exact),
            "t = {t}: analytic R(t) = {exact} outside simulated CI \
             [{}, {}] (point {})",
            report.interval.lower,
            report.interval.upper,
            report.interval.point,
        );
        // The estimate itself should also be close in absolute terms.
        assert!(
            (report.interval.point - exact).abs() < 0.05,
            "t = {t}: point {} vs analytic {exact}",
            report.interval.point
        );
    }
}

#[test]
fn e6_reliability_decreases_with_mission_time() {
    let times = [1000.0, 5000.0, 20000.0];
    let analytic = multiproc_reliability_ctmc(&times);
    assert!(analytic[0] > analytic[1] && analytic[1] > analytic[2]);
    assert!(analytic[0] < 1.0 && analytic[2] > 0.0);
}

/// E19 harness: the WFS system with exponential failures and the given
/// repair distributions, simulated to steady state.
fn wfs_simulated_availability(
    ws_repair: impl Fn() -> Box<dyn Lifetime>,
    fs_repair: Box<dyn Lifetime>,
    seed: u64,
) -> reliab::sim::SimReport {
    // 1-of-2 workstations in series with the file server.
    let mut sim = SystemSimulator::new(|up: &[bool]| (up[0] || up[1]) && up[2]);
    let p = WfsParams::default();
    for _ in 0..2 {
        sim.component(
            Box::new(Exponential::new(1.0 / p.ws_mttf).unwrap()),
            ws_repair(),
        );
    }
    sim.component(
        Box::new(Exponential::new(1.0 / p.fs_mttf).unwrap()),
        fs_repair,
    );
    let opts = SimOptions::default()
        .with_seed(seed)
        .with_rel_precision(0.0)
        .with_max_replications(192)
        .with_confidence(0.99);
    sim.simulate(Measure::Availability { horizon: 60_000.0 }, &opts)
        .unwrap()
}

#[test]
fn e19_wfs_availability_is_insensitive_to_repair_distribution() {
    let p = WfsParams::default();
    let analytic = wfs_availability(&p).unwrap();

    // Exponential repairs: the baseline the closed form describes.
    let exp = wfs_simulated_availability(
        || Box::new(Exponential::new(1.0 / WfsParams::default().ws_mttr).unwrap()),
        Box::new(Exponential::new(1.0 / p.fs_mttr).unwrap()),
        0xE19_0001,
    );
    // Lognormal repairs, cv² = 4, same means.
    let logn = wfs_simulated_availability(
        || Box::new(LogNormal::from_mean_cv2(WfsParams::default().ws_mttr, 4.0).unwrap()),
        Box::new(LogNormal::from_mean_cv2(p.fs_mttr, 4.0).unwrap()),
        0xE19_0002,
    );
    // Heavy-tailed Lomax repairs, shape 2.5, mean-matched:
    // mean = scale / (shape − 1) so scale = 1.5 × mean.
    let pareto = wfs_simulated_availability(
        || Box::new(Pareto::new(2.5, 1.5 * WfsParams::default().ws_mttr).unwrap()),
        Box::new(Pareto::new(2.5, 1.5 * p.fs_mttr).unwrap()),
        0xE19_0003,
    );

    for (label, report) in [
        ("exponential", &exp),
        ("lognormal", &logn),
        ("pareto", &pareto),
    ] {
        assert!(
            report.interval.contains(analytic),
            "{label}: analytic A = {analytic} outside simulated CI [{}, {}]",
            report.interval.lower,
            report.interval.upper,
        );
    }
}

/// The spec-level sim pipeline must be bitwise deterministic at any
/// worker count — the PR's headline reproducibility guarantee, checked
/// through the public `solve_str_with` API end to end.
#[test]
fn spec_sim_results_are_bitwise_identical_across_worker_counts() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/specs/wfs_lognormal.json"
    ))
    .expect("shipped spec");
    let base = solve_str_with(&text, &SolveOptions::default()).unwrap();
    let SolvedMeasures::Sim { point, .. } = base.measures else {
        panic!("expected sim measures");
    };
    assert!((0.99..=1.0).contains(&point));
    assert_eq!(base.stats.workers, 1);
    for threads in [2, 4, 8] {
        let par = solve_str_with(&text, &SolveOptions::default().with_threads(threads)).unwrap();
        assert_eq!(par.measures, base.measures, "threads = {threads}");
        assert_eq!(par.stats.workers, threads, "threads = {threads}");
    }
}
