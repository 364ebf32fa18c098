//! Differential testing of the CTMC solvers on randomly generated
//! chains.
//!
//! Two independent oracles cross-check each other:
//!
//! * **Transient**: uniformization (Jensen's method, the production
//!   path) against the dense matrix exponential
//!   `π(t) = π(0)·exp(Qt)` computed by `reliab::numeric::expm`
//!   (Padé-13 scaling and squaring) — a completely different
//!   algorithm sharing no code with the Poisson-sum path.
//! * **Steady state**: GTH elimination (direct, subtraction-free),
//!   SOR sweeps, and power iteration on the uniformized DTMC must all
//!   land on the same stationary vector.
//!
//! All randomness flows through a seeded [`SmallRng`], so every case
//! is reproducible from the seed printed in the assertion message.

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use reliab::markov::{Ctmc, IterativeOptions, SteadyMethod, SteadyOptions};
use reliab::numeric::{expm, DenseMatrix};

fn u01(rng: &mut SmallRng) -> f64 {
    ((rng.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
}

/// A random irreducible generator on `n` states: a Hamiltonian cycle
/// guarantees irreducibility, then each remaining ordered pair gets an
/// arc with probability `density`. Rates are drawn log-uniformly from
/// `[1, stiffness]`, so `stiffness` is the spread between the fastest
/// and slowest transition.
fn random_transitions(
    rng: &mut SmallRng,
    n: usize,
    density: f64,
    stiffness: f64,
) -> Vec<(usize, usize, f64)> {
    let rate = |rng: &mut SmallRng| stiffness.powf(u01(rng)) * (0.5 + u01(rng));
    let mut transitions = Vec::new();
    for i in 0..n {
        transitions.push((i, (i + 1) % n, rate(rng)));
    }
    for i in 0..n {
        for j in 0..n {
            if i != j && j != (i + 1) % n && u01(rng) < density {
                transitions.push((i, j, rate(rng)));
            }
        }
    }
    transitions
}

fn ctmc_from(n: usize, transitions: &[(usize, usize, f64)]) -> Ctmc {
    let names = (0..n).map(|i| format!("s{i}")).collect();
    Ctmc::from_parts(names, transitions.to_vec()).expect("valid random chain")
}

/// The generator as a dense matrix scaled by `t`, ready for `expm`.
fn q_times_t(n: usize, transitions: &[(usize, usize, f64)], t: f64) -> DenseMatrix {
    let mut q = DenseMatrix::zeros(n, n);
    for &(i, j, r) in transitions {
        q.add_to(i, j, r * t);
        q.add_to(i, i, -r * t);
    }
    q
}

/// A random point on the probability simplex, occasionally degenerate
/// (a point mass) to exercise sparse initial vectors.
fn random_initial(rng: &mut SmallRng, n: usize) -> Vec<f64> {
    if u01(rng) < 0.3 {
        let mut pi0 = vec![0.0; n];
        pi0[(rng.next_u64() as usize) % n] = 1.0;
        return pi0;
    }
    let raw: Vec<f64> = (0..n).map(|_| u01(rng) + 1e-3).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|x| x / total).collect()
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Uniformization vs `π(0)·exp(Qt)` on one random chain.
fn check_transient_vs_expm(seed: u64, n: usize, density: f64, stiffness: f64, t: f64, tol: f64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let transitions = random_transitions(&mut rng, n, density, stiffness);
    let ctmc = ctmc_from(n, &transitions);
    let pi0 = random_initial(&mut rng, n);

    let via_uniformization = ctmc.transient(&pi0, t).expect("uniformization solves");
    let p = expm(&q_times_t(n, &transitions, t)).expect("expm solves");
    let via_expm = p.vecmat(&pi0).expect("dimensions match");

    let mass: f64 = via_expm.iter().sum();
    assert!(
        (mass - 1.0).abs() < 1e-9,
        "seed {seed}: expm oracle lost probability mass: {mass}"
    );
    let diff = max_abs_diff(&via_uniformization, &via_expm);
    assert!(
        diff < tol,
        "seed {seed} (n={n}, density={density}, stiffness={stiffness:.0e}, t={t}): \
         uniformization vs expm differ by {diff:.3e} (tol {tol:.0e})"
    );
}

#[test]
fn transient_matches_expm_on_dense_chains() {
    for seed in 0..8 {
        for t in [0.05, 0.7, 3.0] {
            check_transient_vs_expm(1000 + seed, 4 + (seed as usize) * 3, 0.8, 10.0, t, 1e-8);
        }
    }
}

#[test]
fn transient_matches_expm_on_sparse_chains() {
    for seed in 0..6 {
        let n = 20 + (seed as usize) * 8;
        // ~3 off-cycle arcs per state regardless of n.
        check_transient_vs_expm(2000 + seed, n, 3.0 / n as f64, 50.0, 1.2, 1e-8);
    }
}

/// Stiff chains: rates span six orders of magnitude. The horizon is
/// scaled so `q·t` stays moderate — this probes accuracy under
/// stiffness, not the truncation economics of huge `q·t` (which
/// steady-state detection handles and other suites cover).
#[test]
fn transient_matches_expm_on_stiff_chains() {
    for (seed, stiffness) in [(3001u64, 1e3), (3002, 1e4), (3003, 1e6), (3004, 1e6)] {
        for t_scale in [0.1, 2.0] {
            check_transient_vs_expm(seed, 8, 0.5, stiffness, t_scale / stiffness, 1e-8);
        }
    }
}

/// GTH, SOR, and power iteration must agree on the stationary vector.
fn check_steady_three_way(seed: u64, n: usize, density: f64, stiffness: f64, with_power: bool) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let transitions = random_transitions(&mut rng, n, density, stiffness);
    let ctmc = ctmc_from(n, &transitions);

    let tight = IterativeOptions {
        tolerance: 1e-14,
        max_iterations: 2_000_000,
        relaxation: 1.0,
    };
    let solve = |method| {
        let opts = SteadyOptions {
            iterative: tight,
            method,
            ..Default::default()
        };
        ctmc.steady_state_report(&opts).map(|r| r.pi)
    };
    let gth = solve(SteadyMethod::Gth).expect("GTH solves");
    let sor = solve(SteadyMethod::Sor).expect("SOR converges");

    let mass: f64 = gth.iter().sum();
    assert!((mass - 1.0).abs() < 1e-12, "seed {seed}: GTH mass {mass}");
    let d_sor = max_abs_diff(&gth, &sor);
    assert!(
        d_sor < 1e-10,
        "seed {seed} (n={n}, stiffness={stiffness:.0e}): GTH vs SOR differ by {d_sor:.3e}"
    );

    if with_power {
        let power = solve(SteadyMethod::Power).expect("power iteration converges");
        let d_pow = max_abs_diff(&gth, &power);
        assert!(
            d_pow < 1e-10,
            "seed {seed} (n={n}, stiffness={stiffness:.0e}): GTH vs power differ by {d_pow:.3e}"
        );
    }
}

#[test]
fn steady_state_methods_agree_three_ways() {
    for seed in 0..6 {
        check_steady_three_way(4000 + seed, 5 + (seed as usize) * 2, 0.6, 1e3, true);
    }
}

/// At stiffness 10⁶ power iteration's uniformized DTMC mixes too
/// slowly to be practical, so the stiff sweep checks the direct method
/// against SOR only.
#[test]
fn steady_state_gth_and_sor_agree_on_stiff_chains() {
    for seed in 0..4 {
        check_steady_three_way(5000 + seed, 8 + (seed as usize) * 4, 0.4, 1e6, false);
    }
}
