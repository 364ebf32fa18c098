//! One Criterion bench per tutorial experiment (E1–E14): measures the
//! cost of regenerating each table/figure of `EXPERIMENTS.md`. The
//! `repro` binary prints the tables themselves; these benches track
//! how expensive each reconstruction is.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use reliab_bench::{scaling_ctmc, scaling_rbd};
use reliab_dist::{Exponential, Lifetime, Weibull};
use reliab_ftree::{Block, RbdBuilder};
use reliab_hier::FixedPointOptions;
use reliab_models::crn::{crn_bounds_sweep, crn_mesh};
use reliab_models::multiproc::{
    coverage_ctmc, multiproc_fault_tree, multiproc_probs, MultiprocParams,
};
use reliab_models::rejuv::{optimal_rejuvenation, RejuvParams};
use reliab_models::router::{router_availability, RouterParams};
use reliab_models::sip::{sip_availability, SipParams};
use reliab_models::two_comp::{two_component_availability, RepairPolicy};
use reliab_models::wfs::{wfs_availability, WfsParams};
use reliab_semimarkov::renewal::optimal_policy_age;
use reliab_sim::SystemSimulator;
use reliab_spn::SpnBuilder;
use reliab_uncert::{propagate, rate_posterior, PropagationOptions};

fn experiments(c: &mut Criterion) {
    let mut g = c.benchmark_group("experiments");
    g.sample_size(10);

    g.bench_function("e1_wfs_availability", |b| {
        b.iter(|| wfs_availability(&WfsParams::default()).expect("solve"))
    });

    g.bench_function("e2_k_of_n_reliability", |b| {
        let d = Exponential::new(1e-3).expect("dist");
        b.iter(|| {
            let mut bld = RbdBuilder::new();
            let comps = bld.components("c", 5);
            let rbd = bld
                .build(Block::k_of_n_components(3, &comps))
                .expect("build");
            let lifetimes: Vec<&dyn Lifetime> = vec![&d; 5];
            rbd.reliability(&lifetimes, 1000.0).expect("eval")
        })
    });

    g.bench_function("e3_multiproc_fault_tree", |b| {
        let p = MultiprocParams::default();
        b.iter(|| {
            let (mut ft, _) = multiproc_fault_tree(&p).expect("build");
            let probs = multiproc_probs(&p);
            let q = ft.top_event_probability(&probs).expect("prob");
            let imp = ft.importance(&probs).expect("importance");
            (q, imp.len())
        })
    });

    g.bench_function("e4_crn_bounds", |b| {
        let mesh = crn_mesh(3, 4).expect("mesh");
        b.iter(|| crn_bounds_sweep(&mesh, 1e-3, &[2, 3, 4]).expect("sweep"))
    });

    g.bench_function("e5_two_component", |b| {
        b.iter(|| {
            (
                two_component_availability(0.01, 1.0, RepairPolicy::Independent).expect("solve"),
                two_component_availability(0.01, 1.0, RepairPolicy::SharedCrew).expect("solve"),
            )
        })
    });

    g.bench_function("e6_transient_reliability", |b| {
        let (ctmc, s2, _, sf) = coverage_ctmc(1e-3, 0.95, Some(0.2)).expect("build");
        let p0 = ctmc.point_mass(s2);
        b.iter(|| ctmc.reliability_at(&p0, &[sf], 5000.0).expect("solve"))
    });

    g.bench_function("e6_simulation_counterpart", |b| {
        let mut sim = SystemSimulator::new(|s: &[bool]| s[0] || s[1]);
        for _ in 0..2 {
            sim.component(
                Box::new(Exponential::new(2e-3).expect("dist")),
                Box::new(Exponential::new(0.1).expect("dist")),
            );
        }
        b.iter(|| sim.reliability(1000.0, 200, 7).expect("simulate"))
    });

    g.bench_function("e7_mttf_coverage_sweep", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &c in &[0.9, 0.95, 0.99, 1.0] {
                let (ctmc, s2, _, sf) = coverage_ctmc(1e-3, c, None).expect("build");
                acc += ctmc.mttf(&ctmc.point_mass(s2), &[sf]).expect("mttf");
            }
            acc
        })
    });

    g.bench_function("e8_spn_mm2k", |b| {
        b.iter(|| {
            let mut bld = SpnBuilder::new();
            let q = bld.place("queue", 0);
            let arrive = bld.timed("arrive", 1.5);
            bld.output_arc(arrive, q, 1);
            bld.inhibitor_arc(arrive, q, 16);
            let serve = bld.timed_fn("serve", |m: &Vec<u32>| f64::from(m[0].min(2)));
            bld.input_arc(serve, q, 1);
            let spn = bld.build().expect("build");
            let solved = spn.solve().expect("reach");
            solved.throughput(serve).expect("throughput")
        })
    });

    g.bench_function("e9_rejuvenation_optimum", |b| {
        let p = RejuvParams::default();
        b.iter(|| optimal_rejuvenation(&p, 4.0, 8760.0).expect("optimize"))
    });

    g.bench_function("e10_router_hierarchy", |b| {
        b.iter(|| router_availability(&RouterParams::default()).expect("solve"))
    });

    g.bench_function("e11_sip_fixed_point", |b| {
        b.iter(|| {
            sip_availability(&SipParams::default(), &FixedPointOptions::default()).expect("solve")
        })
    });

    g.bench_function("e12_uncertainty_propagation", |b| {
        b.iter(|| {
            let posterior = rate_posterior(5, 10_000.0).expect("posterior");
            propagate(
                &[Box::new(posterior)],
                |p| {
                    Ok(
                        two_component_availability(p[0], 1.0, RepairPolicy::SharedCrew)?
                            .parallel_availability,
                    )
                },
                &PropagationOptions {
                    samples: 500,
                    ..Default::default()
                },
            )
            .expect("propagate")
        })
    });

    g.bench_function("e13_preventive_maintenance", |b| {
        let ttf = Weibull::new(2.0, 1000.0).expect("dist");
        b.iter(|| optimal_policy_age(&ttf, 48.0, 4.0, 10.0, 50_000.0).expect("optimize"))
    });

    g.bench_function("e15_ccf_beta_factor", |b| {
        use reliab_ftree::{CcfGroup, FaultTreeBuilder, FtNode};
        b.iter(|| {
            let mut bld = FaultTreeBuilder::new();
            let grp = CcfGroup::new(&mut bld, "unit", 6).expect("group");
            let ft = bld.build(FtNode::and(grp.members())).expect("build");
            let mut probs = vec![0.0; ft.num_events()];
            grp.assign_probabilities(&mut probs, 0.01, 0.05)
                .expect("assign");
            ft.top_event_probability(&probs).expect("prob")
        })
    });

    g.bench_function("e16_raid_mttdl", |b| {
        use reliab_models::raid::{raid_mttdl, RaidParams};
        b.iter(|| {
            raid_mttdl(&RaidParams {
                n_disks: 16,
                tolerance: 2,
                lambda: 1e-5,
                mu: 0.1,
            })
            .expect("solve")
        })
    });

    g.bench_function("e17_ha_cluster", |b| {
        use reliab_models::cluster::{cluster_availability, ClusterParams};
        b.iter(|| cluster_availability(&ClusterParams::default()).expect("solve"))
    });

    for n in [3usize, 5] {
        g.bench_with_input(BenchmarkId::new("e14_rbd_route", n), &n, |b, &n| {
            b.iter(|| {
                let (rbd, avail) = scaling_rbd(n).expect("build");
                rbd.availability(&avail).expect("solve")
            })
        });
        g.bench_with_input(BenchmarkId::new("e14_ctmc_route", n), &n, |b, &n| {
            b.iter(|| {
                let (ctmc, up) = scaling_ctmc(n).expect("build");
                ctmc.steady_state_probability_of(&up).expect("solve")
            })
        });
    }

    g.finish();
}

criterion_group!(benches, experiments);
criterion_main!(benches);
