//! Ablation benches for the solver-level design choices called out in
//! DESIGN.md: steady-state method (GTH vs SOR), uniformization
//! steady-state detection and Poisson truncation, BDD variable
//! ordering, and fixed-point damping.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use reliab_bench::{birth_death, ordering_ablation_tree};
use reliab_ftree::VariableOrdering;
use reliab_hier::FixedPointOptions;
use reliab_markov::{Ctmc, SteadyMethod, SteadyOptions, TransientOptions};
use reliab_models::sip::{sip_availability, SipParams};
use reliab_numeric::poisson_weights;

/// A seeded random chain that no state order makes banded: a cycle
/// through every state keeps it irreducible, and each other ordered
/// pair is joined with probability `density`.
fn random_sparse(n: usize, density: f64) -> Ctmc {
    let mut seed = 0x5eed_u64;
    let mut unit = || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (seed >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut arcs: Vec<_> = (0..n).map(|i| (i, (i + 1) % n, 0.5 + unit())).collect();
    for i in 0..n {
        for j in 0..n {
            if i != j && j != (i + 1) % n && unit() < density {
                arcs.push((i, j, 0.5 + unit()));
            }
        }
    }
    Ctmc::from_parts((0..n).map(|i| format!("s{i}")).collect(), arcs).expect("valid chain")
}

fn bench_steady_state_methods(c: &mut Criterion) {
    let mut group = c.benchmark_group("steady_state_method");
    for n in [50usize, 200, 400] {
        // GTH works within the envelope: linear on the banded chain,
        // about cubic on the random one, whose envelope fills.
        for (shape, chain) in [
            ("", birth_death(n, 1.0, 2.0).expect("valid chain")),
            ("-sparse", random_sparse(n, 0.05)),
        ] {
            for (name, method) in [("gth", SteadyMethod::Gth), ("sor", SteadyMethod::Sor)] {
                let id = BenchmarkId::new(format!("{name}{shape}"), n);
                let opts = SteadyOptions {
                    method,
                    ..Default::default()
                };
                group.bench_with_input(id, &chain, |b, ch| {
                    b.iter(|| ch.steady_state_report(&opts).expect("solve"))
                });
            }
        }
    }
    group.finish();
}

fn bench_uniformization_ssd(c: &mut Criterion) {
    let mut group = c.benchmark_group("uniformization_steady_state_detection");
    // Stiff chain + long horizon: SSD should shortcut most of the sum.
    let chain = birth_death(40, 1.0, 50.0).expect("valid chain");
    let mut init = vec![0.0; 40];
    init[0] = 1.0;
    let horizon = 5_000.0;
    group.bench_function("with_detection", |b| {
        b.iter(|| {
            chain
                .transient_report(
                    &init,
                    horizon,
                    &TransientOptions {
                        epsilon: 1e-10,
                        steady_state_detection: Some(1e-12),
                    },
                )
                .expect("solve")
        })
    });
    group.bench_function("without_detection", |b| {
        b.iter(|| {
            chain
                .transient_report(
                    &init,
                    horizon,
                    &TransientOptions {
                        epsilon: 1e-10,
                        steady_state_detection: None,
                    },
                )
                .expect("solve")
        })
    });
    group.finish();
}

/// Truncated Poisson windows at rates uniformization meets: 15,637 in
/// kernel_mix's semi-Markov range, 2.5e5, and 2.5194e7, the
/// `maintained_cluster` chain at t = 1e7. A window closed only by its
/// summed mass grew to about 2λ terms at all three, past the 20M-term
/// guard into an error at the last; the result is black-boxed either
/// way.
fn bench_poisson_window(c: &mut Criterion) {
    let mut group = c.benchmark_group("poisson_weights");
    group.sample_size(5);
    for lambda in [15_637.0, 2.5e5, 2.5194e7] {
        group.bench_with_input(BenchmarkId::from_parameter(lambda), &lambda, |b, &l| {
            b.iter(|| poisson_weights(l, 1e-12).map(|w| w.len()))
        });
    }
    group.finish();
}

fn bench_bdd_ordering(c: &mut Criterion) {
    let mut group = c.benchmark_group("bdd_variable_ordering");
    let n = 10usize;
    let q = vec![0.02; 2 * n];
    for (name, ordering) in [
        ("declaration", VariableOrdering::Declaration),
        ("depth_first", VariableOrdering::DepthFirst),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let ft = ordering_ablation_tree(n, ordering).expect("build");
                ft.top_event_probability(&q).expect("probability")
            })
        });
    }
    group.finish();
}

fn bench_fixed_point_damping(c: &mut Criterion) {
    let mut group = c.benchmark_group("fixed_point_damping");
    for damping in [1.0f64, 0.5, 0.25] {
        group.bench_with_input(BenchmarkId::from_parameter(damping), &damping, |b, &d| {
            b.iter(|| {
                sip_availability(
                    &SipParams::default(),
                    &FixedPointOptions {
                        damping: d,
                        ..Default::default()
                    },
                )
                .expect("solve")
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_steady_state_methods,
    bench_uniformization_ssd,
    bench_poisson_window,
    bench_bdd_ordering,
    bench_fixed_point_damping
);
criterion_main!(benches);
