//! The chain types reach GTH through its row kernel, reading their CSR
//! matrices. Each must return exactly what the dense entry point
//! returns for the same chain: `π` bit for bit, or the same error. The
//! dense entry point is itself pinned to the old dense elimination by
//! the numeric crate's oracle test.

use reliab_core::Error;
use reliab_markov::{Ctmc, Dtmc, SteadyMethod, SteadyOptions};
use reliab_numeric::{gth_steady_state, DenseMatrix, NumericError};

/// SplitMix64: a small seeded generator, so the test needs no
/// dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// The arcs of a random chain, each pair at most once. `case % 4`
/// picks the shape: banded (neighbours always joined), permuted banded,
/// random sparse at 2–20% density with a cycle through every state (or,
/// one time in five, an absorbing state instead), or complete. One
/// chain in eight has 2 to 150 states, the rest 2 to 40.
fn random_arcs(rng: &mut Rng, case: usize) -> (usize, Vec<(usize, usize)>) {
    let span = if rng.below(8) == 0 { 149 } else { 39 };
    let n = 2 + rng.below(span);
    let mut arcs = Vec::new();
    match case % 4 {
        0 | 1 => {
            let band = 1 + rng.below(n.min(8));
            let perm = if case % 4 == 1 {
                rng.permutation(n)
            } else {
                (0..n).collect()
            };
            for i in 0..n {
                for j in i.saturating_sub(band)..(i + band + 1).min(n) {
                    if i != j && (j.abs_diff(i) == 1 || rng.unit() < 0.7) {
                        arcs.push((perm[i], perm[j]));
                    }
                }
            }
        }
        2 => {
            let density = 0.02 + 0.18 * rng.unit();
            for i in 0..n {
                for j in 0..n {
                    if i != j && rng.unit() < density {
                        arcs.push((i, j));
                    }
                }
            }
            if rng.below(5) == 0 {
                let absorbing = 1 + rng.below(n - 1);
                arcs.retain(|&(i, _)| i != absorbing);
            } else {
                let cycle = rng.permutation(n);
                for w in 0..n {
                    let arc = (cycle[w], cycle[(w + 1) % n]);
                    if !arcs.contains(&arc) {
                        arcs.push(arc);
                    }
                }
            }
        }
        _ => {
            for i in 0..n {
                arcs.extend((0..n).filter(|&j| j != i).map(|j| (i, j)));
            }
        }
    }
    (n, arcs)
}

/// `π` bit for bit, or the error the dense entry point's failure maps
/// to in the chain types.
fn same(got: &reliab_core::Result<Vec<f64>>, dense: &Result<Vec<f64>, NumericError>) -> bool {
    match (got, dense) {
        (Ok(a), Ok(b)) => a
            .iter()
            .map(|x| x.to_bits())
            .eq(b.iter().map(|x| x.to_bits())),
        (Err(a), Err(b)) => *a == Error::numerical(b.to_string()),
        _ => false,
    }
}

#[test]
fn ctmc_and_dtmc_match_the_dense_entry_point_bit_for_bit() {
    let mut rng = Rng(0x6748_5eed);
    let (mut solved, mut failed) = (0, 0);
    for case in 0..2000 {
        let (n, arcs) = random_arcs(&mut rng, case);
        // Rates log-uniform on [1e-8, 1e8].
        let trips: Vec<_> = arcs
            .iter()
            .map(|&(i, j)| (i, j, 10f64.powf(16.0 * rng.unit() - 8.0)))
            .collect();
        let names = (0..n).map(|i| format!("s{i}")).collect();
        let ctmc = Ctmc::from_parts(names, trips.clone()).unwrap();
        let dense = gth_steady_state(&ctmc.generator_dense());
        let got = ctmc
            .steady_state_report(&SteadyOptions {
                method: SteadyMethod::Gth,
                ..Default::default()
            })
            .map(|r| r.pi);
        assert!(same(&got, &dense), "case {case}: CTMC, {n} states");
        if dense.is_ok() {
            solved += 1;
        } else {
            failed += 1;
        }

        // The uniformized chain P = I + Q/q as a DTMC, with an explicit
        // zero for one state pair in ten that has no arc.
        let exit = ctmc.exit_rates();
        let unif = 1.25 * exit.iter().fold(f64::MIN_POSITIVE, |m, &e| m.max(e));
        let mut p: Vec<_> = trips.iter().map(|&(i, j, r)| (i, j, r / unif)).collect();
        p.extend((0..n).map(|i| (i, i, 1.0 - exit[i] / unif)));
        for _ in 0..n / 10 {
            let (i, j) = (rng.below(n), rng.below(n));
            if i != j && !arcs.contains(&(i, j)) {
                p.push((i, j, 0.0));
            }
        }
        let dtmc = Dtmc::from_triplets(n, &p).unwrap();
        let mut p_dense = DenseMatrix::zeros(n, n);
        for &(i, j, v) in &p {
            if i != j {
                p_dense.add_to(i, j, v);
            }
        }
        let dense = gth_steady_state(&p_dense);
        assert!(
            same(&dtmc.steady_state(), &dense),
            "case {case}: DTMC, {n} states"
        );
    }
    assert!(solved >= 1800, "{solved} chains solved");
    assert!(failed >= 50, "{failed} chains rejected");
}
