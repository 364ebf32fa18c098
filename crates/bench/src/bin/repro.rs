//! Regenerates every table/figure of the tutorial reconstruction
//! (experiments E1–E17 in `EXPERIMENTS.md`).
//!
//! ```text
//! cargo run -p reliab-bench --bin repro            # everything
//! cargo run -p reliab-bench --bin repro -- e5 e9   # a subset
//! ```

use std::time::Instant;

use reliab_bench::{scaling_ctmc, scaling_rbd};
use reliab_core::{downtime_minutes_per_year, Result};
use reliab_dist::{Exponential, Lifetime, Weibull};
use reliab_ftree::{Block, RbdBuilder};
use reliab_hier::FixedPointOptions;
use reliab_markov::TransientOptions;
use reliab_models::crn::{crn_bounds_sweep, crn_exact_unreliability, crn_mesh};
use reliab_models::multiproc::{
    coverage_ctmc, coverage_mttf_closed_form, multiproc_fault_tree, multiproc_probs,
    MultiprocParams,
};
use reliab_models::rejuv::{optimal_rejuvenation, rejuvenation_measures, RejuvParams};
use reliab_models::router::{router_availability, RouterParams};
use reliab_models::sip::{sip_availability, SipParams};
use reliab_models::two_comp::{two_component_availability, RepairPolicy};
use reliab_models::wfs::{wfs_availability, wfs_ctmc, WfsParams};
use reliab_semimarkov::renewal::{optimal_policy_age, policy_measures, PolicyCosts};
use reliab_sim::SystemSimulator;
use reliab_spn::SpnBuilder;
use reliab_uncert::{propagate, rate_posterior, PropagationOptions};

type Experiment = (&'static str, fn() -> Result<()>);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let all: Vec<Experiment> = vec![
        ("e1", e1),
        ("e2", e2),
        ("e3", e3),
        ("e4", e4),
        ("e5", e5),
        ("e6", e6),
        ("e7", e7),
        ("e8", e8),
        ("e9", e9),
        ("e10", e10),
        ("e11", e11),
        ("e12", e12),
        ("e13", e13),
        ("e14", e14),
        ("e15", e15),
        ("e16", e16),
        ("e17", e17),
        ("e18", e18),
        ("e19", e19),
    ];
    let selected: Vec<_> = if args.is_empty() {
        all
    } else {
        all.into_iter()
            .filter(|(n, _)| args.contains(&n.to_string()))
            .collect()
    };
    if selected.is_empty() {
        eprintln!("no matching experiments; expected ids e1..e19");
        std::process::exit(2);
    }
    for (name, f) in selected {
        println!(
            "\n================ {} ================",
            name.to_uppercase()
        );
        if let Err(e) = f() {
            eprintln!("{name} FAILED: {e}");
            std::process::exit(1);
        }
    }
}

/// E1 — WFS availability table (RBD vs CTMC).
fn e1() -> Result<()> {
    println!("workstations & file server: steady-state availability");
    println!(
        "{:>8} {:>8} {:>8} {:>8} {:>12} {:>12} {:>12}",
        "ws_mttf", "ws_mttr", "fs_mttf", "fs_mttr", "A (RBD)", "A (CTMC)", "min/yr"
    );
    for (ws_mttr, fs_mttr) in [(4.0, 2.0), (12.0, 2.0), (4.0, 8.0), (24.0, 24.0)] {
        let p = WfsParams {
            ws_mttr,
            fs_mttr,
            ..Default::default()
        };
        let a_rbd = wfs_availability(&p)?;
        let (ctmc, up) = wfs_ctmc(&p)?;
        let a_ctmc = ctmc.steady_state_probability_of(&up)?;
        println!(
            "{:>8.0} {:>8.0} {:>8.0} {:>8.0} {:>12.8} {:>12.8} {:>12.2}",
            p.ws_mttf,
            ws_mttr,
            p.fs_mttf,
            fs_mttr,
            a_rbd,
            a_ctmc,
            downtime_minutes_per_year(a_rbd)?
        );
    }
    Ok(())
}

/// E2 — k-of-n reliability curves.
fn e2() -> Result<()> {
    println!("R(t) of k-of-n systems, exponential components (lambda = 1e-3/h)");
    let d = Exponential::new(1e-3)?;
    let configs = [(1usize, 2usize), (2, 3), (3, 5), (2, 4)];
    print!("{:>8}", "t (h)");
    for (k, n) in configs {
        print!(" {:>10}", format!("{k}-of-{n}"));
    }
    println!();
    for t in (0..=10).map(|i| i as f64 * 200.0) {
        print!("{t:>8.0}");
        for (k, n) in configs {
            let mut b = RbdBuilder::new();
            let c = b.components("c", n);
            let rbd = b.build(Block::k_of_n_components(k, &c))?;
            let lifetimes: Vec<&dyn Lifetime> = vec![&d; n];
            print!(" {:>10.6}", rbd.reliability(&lifetimes, t)?);
        }
        println!();
    }
    Ok(())
}

/// E3 — multiprocessor fault tree: cut sets, probability, importance.
fn e3() -> Result<()> {
    let p = MultiprocParams::default();
    let (mut ft, _) = multiproc_fault_tree(&p)?;
    let probs = multiproc_probs(&p);
    let q = ft.top_event_probability(&probs)?;
    let bound = ft.rare_event_bound(&probs, 10_000)?;
    println!("fault-tolerant multiprocessor (2 CPUs, 2-of-3 memories, bus)");
    println!("  exact top-event probability: {q:.6e}");
    println!("  rare-event upper bound:      {bound:.6e}");
    println!("  minimal cut sets:");
    for cut in ft.minimal_cut_sets(10_000)? {
        let names: Vec<&str> = cut.events().iter().map(|&e| ft.event_name(e)).collect();
        println!("    {{{}}}", names.join(", "));
    }
    println!(
        "  {:<8} {:>10} {:>12} {:>16}",
        "event", "birnbaum", "criticality", "fussell-vesely"
    );
    for m in ft.importance(&probs)? {
        println!(
            "  {:<8} {:>10.5} {:>12.5} {:>16.5}",
            m.component, m.birnbaum, m.criticality, m.fussell_vesely
        );
    }
    Ok(())
}

/// E4 — CRN bounding sweep.
fn e4() -> Result<()> {
    let g = crn_mesh(3, 4)?;
    let q = 1e-3;
    println!(
        "mesh CRN ({} nodes, {} edges), q = {q}: truncation sweep",
        g.num_nodes(),
        g.num_edges()
    );
    let exact = crn_exact_unreliability(&g, q)?;
    println!("  exact unreliability: {exact:.6e}");
    println!(
        "  {:>6} {:>9} {:>13} {:>13} {:>11}",
        "order", "cuts", "lower", "upper", "gap"
    );
    for row in crn_bounds_sweep(&g, q, &[2, 3, 4, 5, 6])? {
        println!(
            "  {:>6} {:>9} {:>13.6e} {:>13.6e} {:>11.2e}",
            row.max_order,
            row.cut_sets_used,
            row.bounds.lower,
            row.bounds.upper,
            row.bounds.gap()
        );
    }
    Ok(())
}

/// E5 — two-component availability: shared vs independent repair.
fn e5() -> Result<()> {
    println!("two-component parallel system: repair-dependence penalty");
    println!(
        "{:>8} {:>8} {:>13} {:>13} {:>11} {:>11}",
        "lambda", "mu", "A (indep)", "A (shared)", "m/y indep", "m/y shared"
    );
    for (l, m) in [(0.001, 1.0), (0.01, 1.0), (0.1, 1.0), (0.1, 0.5)] {
        let ind = two_component_availability(l, m, RepairPolicy::Independent)?;
        let sh = two_component_availability(l, m, RepairPolicy::SharedCrew)?;
        println!(
            "{l:>8} {m:>8} {:>13.9} {:>13.9} {:>11.3} {:>11.3}",
            ind.parallel_availability,
            sh.parallel_availability,
            ind.parallel_downtime_min_per_year,
            sh.parallel_downtime_min_per_year
        );
    }
    Ok(())
}

/// E6 — transient reliability: uniformization vs simulation.
fn e6() -> Result<()> {
    // 1-of-2 parallel system with independent repair; system dies when
    // both components are simultaneously down.
    let (lambda, mu) = (2e-3, 0.1);
    println!("1-of-2 repairable system: R(t) by uniformization vs simulation");
    let mut b = reliab_markov::CtmcBuilder::new();
    let s0 = b.state("2up");
    let s1 = b.state("1up");
    let s2 = b.state("0up");
    b.transition(s0, s1, 2.0 * lambda)?;
    b.transition(s1, s0, mu)?;
    b.transition(s1, s2, lambda)?;
    let ctmc = b.build()?;
    let p0 = ctmc.point_mass(s0);

    let mut sim = SystemSimulator::new(|s: &[bool]| s[0] || s[1]);
    for _ in 0..2 {
        sim.component(
            Box::new(Exponential::new(lambda)?),
            Box::new(Exponential::new(mu)?),
        );
    }
    println!(
        "{:>9} {:>14} {:>12} {:>24}",
        "t (h)", "R(t) analytic", "R(t) sim", "sim 95% CI"
    );
    for &t in &[100.0, 500.0, 1000.0, 2500.0, 5000.0, 10_000.0] {
        let r = ctmc.reliability_at(&p0, &[s2], t)?;
        let est = sim.reliability(t, 3000, 42)?;
        println!(
            "{t:>9.0} {r:>14.8} {:>12.4} [{:>9.4}, {:>9.4}]",
            est.interval.point, est.interval.lower, est.interval.upper
        );
    }
    // Ablation: steady-state detection on stiff transient solve.
    let stiff = reliab_bench::birth_death(40, 1.0, 50.0)?;
    let init = {
        let mut v = vec![0.0; 40];
        v[0] = 1.0;
        v
    };
    let run = |steady_state_detection| {
        let opts = TransientOptions {
            epsilon: 1e-10,
            steady_state_detection,
        };
        stiff
            .transient_report(&init, 10_000.0, &opts)
            .map(|r| r.distribution)
    };
    let (with, without) = (run(Some(1e-12))?, run(None)?);
    let diff = with
        .iter()
        .zip(&without)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("steady-state-detection ablation on a stiff chain: max |Δπ| = {diff:.2e}");
    Ok(())
}

/// E7 — MTTF vs coverage.
fn e7() -> Result<()> {
    let lambda = 1e-3;
    println!("2-CPU MTTF vs failover coverage (lambda = {lambda}/h, no repair)");
    println!(
        "{:>9} {:>12} {:>14} {:>10}",
        "coverage", "MTTF (CTMC)", "closed form", "rel err"
    );
    for &c in &[0.0, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
        let (ctmc, s2, _, sf) = coverage_ctmc(lambda, c, None)?;
        let mttf = ctmc.mttf(&ctmc.point_mass(s2), &[sf])?;
        let cf = coverage_mttf_closed_form(lambda, c);
        println!(
            "{c:>9.3} {mttf:>12.2} {cf:>14.2} {:>10.1e}",
            (mttf - cf).abs() / cf
        );
    }
    Ok(())
}

/// E8 — SRN/GSPN: state-space sizes and queueing measures.
fn e8() -> Result<()> {
    println!("M/M/2/K as an SRN: tangible markings and measures vs K");
    println!(
        "{:>4} {:>10} {:>12} {:>12} {:>12}",
        "K", "markings", "throughput", "E[tokens]", "P(full)"
    );
    for k in [2u32, 4, 8, 16, 32] {
        let mut b = SpnBuilder::new();
        let q = b.place("queue", 0);
        let arrive = b.timed("arrive", 1.5);
        b.output_arc(arrive, q, 1);
        b.inhibitor_arc(arrive, q, k);
        let serve = b.timed_fn("serve", |m: &Vec<u32>| f64::from(m[0].min(2)));
        b.input_arc(serve, q, 1);
        let spn = b.build()?;
        let solved = spn.solve()?;
        let tput = solved.throughput(serve)?;
        let en = solved.expected_tokens(q)?;
        let pfull = solved.steady_state_expected_reward(|m| if m[0] == k { 1.0 } else { 0.0 })?;
        println!(
            "{k:>4} {:>10} {tput:>12.6} {en:>12.4} {pfull:>12.6}",
            solved.num_markings()
        );
    }
    Ok(())
}

/// E9 — software rejuvenation: downtime vs interval + optimum.
fn e9() -> Result<()> {
    let p = RejuvParams::default();
    println!("software rejuvenation (renewal-reward MRGP)");
    println!(
        "{:>10} {:>14} {:>16} {:>10}",
        "delta (h)", "availability", "downtime (m/y)", "P(crash)"
    );
    for &d in &[24.0, 48.0, 96.0, 168.0, 336.0, 720.0, 8760.0] {
        let m = rejuvenation_measures(&p, d)?;
        println!(
            "{d:>10.0} {:>14.7} {:>16.1} {:>10.4}",
            m.availability,
            downtime_minutes_per_year(m.availability)?,
            m.failure_probability
        );
    }
    let (d_opt, m_opt) = optimal_rejuvenation(&p, 4.0, 8760.0)?;
    println!(
        "optimum: delta* = {d_opt:.1} h, availability {:.7}, downtime {:.1} m/y",
        m_opt.availability,
        downtime_minutes_per_year(m_opt.availability)?
    );
    Ok(())
}

/// E10 — router hierarchical downtime budget.
fn e10() -> Result<()> {
    let r = router_availability(&RouterParams::default())?;
    println!("carrier-router downtime budget (hierarchical RBD-over-CTMC)");
    println!(
        "  {:<18} {:>13} {:>14}",
        "subsystem", "availability", "min/yr"
    );
    for s in &r.subsystems {
        println!(
            "  {:<18} {:>13.8} {:>14.3}",
            s.name, s.availability, s.downtime_min_per_year
        );
    }
    println!(
        "  {:<18} {:>13.8} {:>14.3}",
        "TOTAL", r.system_availability, r.system_downtime_min_per_year
    );
    Ok(())
}

/// E11 — SIP fixed point: convergence behaviour.
fn e11() -> Result<()> {
    println!("load-coupled cluster (fixed point): convergence vs damping & tolerance");
    println!(
        "{:>9} {:>10} {:>12} {:>14} {:>12}",
        "damping", "tol", "iterations", "A (server)", "A (system)"
    );
    for &(damping, tol) in &[
        (1.0, 1e-6),
        (1.0, 1e-10),
        (1.0, 1e-12),
        (0.5, 1e-10),
        (0.25, 1e-10),
    ] {
        let r = sip_availability(
            &SipParams::default(),
            &FixedPointOptions {
                damping,
                tolerance: tol,
                ..Default::default()
            },
        )?;
        println!(
            "{damping:>9.2} {tol:>10.0e} {:>12} {:>14.9} {:>12.8}",
            r.iterations, r.server_availability, r.system_availability
        );
    }
    let r = sip_availability(&SipParams::default(), &FixedPointOptions::default())?;
    println!(
        "fixed point: load/server = {:.2} req/s, effective lambda = {:.6}/h",
        r.load_per_server, r.effective_lambda
    );
    Ok(())
}

/// E12 — parametric uncertainty: availability CIs vs test-data volume.
fn e12() -> Result<()> {
    println!("uncertainty propagation: two-component availability, gamma posterior on lambda");
    println!(
        "{:>10} {:>12} {:>12} {:>22} {:>10}",
        "failures", "test hours", "mean A", "95% CI", "width"
    );
    for &(fails, hours) in &[(1u32, 2_000.0), (5u32, 10_000.0), (50u32, 100_000.0)] {
        let posterior = rate_posterior(fails, hours)?;
        let r = propagate(
            &[Box::new(posterior)],
            |p| {
                Ok(
                    two_component_availability(p[0], 1.0, RepairPolicy::SharedCrew)?
                        .parallel_availability,
                )
            },
            &PropagationOptions {
                samples: 4000,
                ..Default::default()
            },
        )?;
        println!(
            "{fails:>10} {hours:>12.0} {:>12.8} [{:>9.7}, {:>9.7}] {:>10.2e}",
            r.mean,
            r.interval.lower,
            r.interval.upper,
            r.interval.upper - r.interval.lower
        );
    }
    Ok(())
}

/// E13 — preventive maintenance under Weibull wear-out.
fn e13() -> Result<()> {
    println!("age-replacement policy: Weibull(shape, scale 1000h) TTF, repair 48h, PM 4h");
    println!(
        "{:>7} {:>12} {:>14} {:>12}",
        "shape", "delta* (h)", "availability", "A(no PM)"
    );
    for &shape in &[1.0f64, 1.5, 2.0, 3.0, 4.0] {
        let ttf = Weibull::new(shape, 1000.0)?;
        let (d_opt, m) = optimal_policy_age(&ttf, 48.0, 4.0, 10.0, 50_000.0)?;
        let no_pm = policy_measures(&ttf, 48.0, 4.0, 49_999.0, &PolicyCosts::default())?;
        let d_show = if d_opt > 40_000.0 {
            "none".to_owned()
        } else {
            format!("{d_opt:.0}")
        };
        println!(
            "{shape:>7.1} {d_show:>12} {:>14.7} {:>12.7}",
            m.availability, no_pm.availability
        );
    }
    Ok(())
}

/// E14 — the largeness wall: RBD vs flat CTMC on the same system.
fn e14() -> Result<()> {
    println!("state-space explosion: series-of-parallel-pairs system, both routes");
    println!(
        "{:>6} {:>11} {:>12} {:>12} {:>12} {:>12}",
        "pairs", "components", "BDD nodes", "RBD (µs)", "CTMC states", "CTMC (µs)"
    );
    for n in [2usize, 3, 4, 5, 6, 7] {
        let (rbd, avail) = scaling_rbd(n)?;
        let t0 = Instant::now();
        let a_rbd = rbd.availability(&avail)?;
        let t_rbd = t0.elapsed().as_micros();

        let (ctmc, up) = scaling_ctmc(n)?;
        let t0 = Instant::now();
        let a_ctmc = ctmc.steady_state_probability_of(&up)?;
        let t_ctmc = t0.elapsed().as_micros();
        assert!((a_rbd - a_ctmc).abs() < 1e-8);
        println!(
            "{n:>6} {:>11} {:>12} {t_rbd:>12} {:>12} {t_ctmc:>12}",
            2 * n,
            rbd.bdd_size(),
            ctmc.num_states()
        );
    }
    println!("(availabilities agree to 1e-8 on every row)");
    Ok(())
}

/// E15 — common-cause failures: the redundancy floor.
fn e15() -> Result<()> {
    use reliab_ftree::{CcfGroup, FaultTreeBuilder, FtNode};
    println!("beta-factor CCF: n-parallel group, q = 0.01 per unit");
    println!(
        "{:>4} {:>14} {:>14} {:>14} {:>14}",
        "n", "beta = 0", "beta = 0.01", "beta = 0.05", "beta = 0.10"
    );
    for n in [2usize, 3, 4, 6, 8] {
        print!("{n:>4}");
        for beta in [0.0, 0.01, 0.05, 0.10] {
            let mut b = FaultTreeBuilder::new();
            let g = CcfGroup::new(&mut b, "unit", n)?;
            let ft = b.build(FtNode::and(g.members()))?;
            let mut probs = vec![0.0; ft.num_events()];
            g.assign_probabilities(&mut probs, 0.01, beta)?;
            print!(" {:>14.3e}", ft.top_event_probability(&probs)?);
        }
        println!();
    }
    println!("(columns with beta > 0 floor at ~beta*q no matter how large n grows)");
    Ok(())
}

/// E16 — RAID MTTDL table.
fn e16() -> Result<()> {
    use reliab_models::raid::{raid5_mttdl_approx, raid_mttdl, RaidParams};
    println!("RAID MTTDL (disk MTTF 100k h, rebuild 10 h)");
    println!(
        "{:>6} {:>10} {:>16} {:>16} {:>16}",
        "disks", "tolerance", "MTTDL (h)", "MTTDL (yr)", "approx (h)"
    );
    for &(n, tol) in &[(4usize, 1usize), (8, 1), (16, 1), (8, 2), (16, 2)] {
        let p = RaidParams {
            n_disks: n,
            tolerance: tol,
            lambda: 1e-5,
            mu: 0.1,
        };
        let mttdl = raid_mttdl(&p)?;
        let approx = if tol == 1 {
            format!("{:>16.3e}", raid5_mttdl_approx(n, 1e-5, 0.1))
        } else {
            format!("{:>16}", "-")
        };
        println!(
            "{n:>6} {tol:>10} {mttdl:>16.3e} {:>16.1} {approx}",
            mttdl / 8760.0
        );
    }
    Ok(())
}

/// E17 — two-node HA cluster: coverage and failover-speed sweeps.
fn e17() -> Result<()> {
    use reliab_models::cluster::{cluster_availability, ClusterParams};
    println!("two-node HA cluster: downtime vs coverage (failover 30 s)");
    println!(
        "{:>9} {:>13} {:>12} {:>10} {:>10} {:>10}",
        "coverage", "availability", "min/yr", "%failover", "%manual", "%double"
    );
    for &c in &[0.5, 0.8, 0.9, 0.95, 0.99, 1.0] {
        let r = cluster_availability(&ClusterParams {
            coverage: c,
            ..Default::default()
        })?;
        println!(
            "{c:>9.2} {:>13.8} {:>12.2} {:>10.3} {:>10.3} {:>10.3}",
            r.availability,
            r.downtime_min_per_year,
            r.downtime_share_failover,
            r.downtime_share_uncovered,
            r.downtime_share_double
        );
    }
    println!("\ndowntime vs failover speed (coverage 0.95)");
    println!(
        "{:>16} {:>13} {:>12}",
        "switchover", "availability", "min/yr"
    );
    for &(label, rate) in &[
        ("10 min", 6.0),
        ("1 min", 60.0),
        ("30 s", 120.0),
        ("1 s", 3600.0),
    ] {
        let r = cluster_availability(&ClusterParams {
            failover_rate: rate,
            ..Default::default()
        })?;
        println!(
            "{label:>16} {:>13.8} {:>12.2}",
            r.availability, r.downtime_min_per_year
        );
    }
    Ok(())
}

/// E18 — latent failures and periodic inspection (safety systems).
fn e18() -> Result<()> {
    use reliab_semimarkov::renewal::{inspection_measures, optimal_inspection_interval};
    let ttf = Weibull::new(2.0, 2000.0)?;
    println!("standby safety unit, Weibull(2, 2000h) TTF, 1h inspections, 24h repair");
    println!(
        "{:>10} {:>14} {:>18} {:>14}",
        "tau (h)", "availability", "detect delay (h)", "cycle (h)"
    );
    for &tau in &[10.0, 50.0, 150.0, 500.0, 1500.0, 5000.0] {
        let m = inspection_measures(&ttf, tau, 1.0, 24.0)?;
        println!(
            "{tau:>10.0} {:>14.6} {:>18.1} {:>14.0}",
            m.availability, m.mean_detection_delay, m.cycle_length
        );
    }
    let (tau_opt, m) = optimal_inspection_interval(&ttf, 1.0, 24.0, 1.0, 20_000.0)?;
    println!(
        "optimal inspection interval: {tau_opt:.0} h -> availability {:.6}",
        m.availability
    );
    Ok(())
}

/// E19 — insensitivity: steady-state availability of independently
/// repaired components depends on repair distributions only through
/// their means.
fn e19() -> Result<()> {
    use reliab_dist::{LogNormal, Pareto};
    use reliab_models::wfs::{wfs_availability, WfsParams};
    let p = WfsParams::default();
    let analytic = wfs_availability(&p)?;
    println!("WFS availability with non-exponential repair, same means (insensitivity)");
    println!("  analytic (means only): {analytic:.6}");
    println!("{:>22} {:>12} {:>26}", "repair law", "simulated", "95% CI");

    let make_sim = |ws_ttr: Box<dyn Lifetime>, fs_ttr: Box<dyn Lifetime>| -> Result<_> {
        let mut sim = SystemSimulator::new(|s: &[bool]| (s[0] || s[1]) && s[2]);
        for _ in 0..2 {
            sim.component(
                Box::new(Exponential::from_mean(p.ws_mttf)?),
                dyn_clone_ttr(&*ws_ttr)?,
            );
        }
        sim.component(Box::new(Exponential::from_mean(p.fs_mttf)?), fs_ttr);
        sim.availability(400_000.0, 24, 7)
    };
    // Helper clones a repair law per workstation by re-fitting its
    // mean/cv² (all our laws are cheap to reconstruct).
    fn dyn_clone_ttr(d: &dyn Lifetime) -> Result<Box<dyn Lifetime>> {
        Ok(
            reliab_dist::fit_two_moments(d.mean(), d.cv_squared().clamp(0.02, 50.0))?
                .into_lifetime(),
        )
    }

    for (label, ws_ttr, fs_ttr) in [
        (
            "exponential",
            Box::new(Exponential::from_mean(p.ws_mttr)?) as Box<dyn Lifetime>,
            Box::new(Exponential::from_mean(p.fs_mttr)?) as Box<dyn Lifetime>,
        ),
        (
            "lognormal cv2 = 4",
            Box::new(LogNormal::from_mean_cv2(p.ws_mttr, 4.0)?),
            Box::new(LogNormal::from_mean_cv2(p.fs_mttr, 4.0)?),
        ),
        (
            "pareto shape 2.5",
            Box::new(Pareto::new(2.5, p.ws_mttr * 1.5)?),
            Box::new(Pareto::new(2.5, p.fs_mttr * 1.5)?),
        ),
    ] {
        let est = make_sim(ws_ttr, fs_ttr)?;
        println!(
            "{label:>22} {:>12.6} [{:>11.6}, {:>11.6}]",
            est.interval.point, est.interval.lower, est.interval.upper
        );
    }
    println!("(all CIs cover the analytic value: availability is mean-only)");
    Ok(())
}
