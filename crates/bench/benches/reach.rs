//! SPN state-space generation benchmarks: the compact-store generator
//! against the frozen pre-rework generator (`legacy_reach`) on the
//! tandem queueing family, plus the `CsrMatrix::from_triplets` assembly
//! path that consumes the emitted triplet stream.
//!
//! `cargo bench -p reliab-bench --bench reach` for the full run; the
//! committed perf numbers in `BENCH_reach.json` come from the
//! `bench-reach` binary, which times the ≥10⁵-marking net end to end.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use reliab_bench::legacy_reach::LegacyReachOptions;
use reliab_bench::{tandem_legacy, tandem_spn};
use reliab_numeric::CsrMatrix;

/// End-to-end generation (reachability + vanishing elimination + CTMC
/// assembly) on the tandem net, both generators.
fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("reach_generation");
    group.sample_size(10);
    for capacity in [8u32, 16] {
        let markings = (capacity as usize + 1).pow(3);
        let legacy_net = tandem_legacy(capacity);
        group.bench_with_input(BenchmarkId::new("legacy", markings), &capacity, |b, _| {
            b.iter(|| {
                let solved = legacy_net
                    .solve_with(&LegacyReachOptions::default())
                    .expect("bounded net");
                assert_eq!(solved.num_markings(), markings);
                solved.num_markings()
            })
        });
        let new_net = tandem_spn(capacity).expect("net builds");
        group.bench_with_input(BenchmarkId::new("new", markings), &capacity, |b, _| {
            b.iter(|| {
                let solved = new_net.solve().expect("bounded net");
                assert_eq!(solved.num_markings(), markings);
                solved.num_markings()
            })
        });
    }
    group.finish();
}

/// CSR assembly from an SPN-shaped triplet stream — the consumer of the
/// generator's output and the target of the shared-scratch-buffer fix
/// in `CsrMatrix::from_triplets` (one sort buffer for all rows instead
/// of a fresh `Vec` per row). The assertion pins the assembled shape so
/// a regression in the dedup/merge logic fails the bench rather than
/// silently timing wrong work.
fn bench_csr_from_triplets(c: &mut Criterion) {
    let mut group = c.benchmark_group("reach_csr_assembly");
    group.sample_size(10);
    let n = 50_000usize;
    // Birth–death-with-self-rate shape: ~3 entries per row, plus
    // duplicates that must merge.
    let mut triplets: Vec<(usize, usize, f64)> = Vec::with_capacity(4 * n);
    for i in 0..n {
        if i > 0 {
            triplets.push((i, i - 1, 2.0));
        }
        if i + 1 < n {
            triplets.push((i, i + 1, 1.0));
        }
        triplets.push((i, i, -3.0));
        triplets.push((i, i, 0.5)); // duplicate: merges into the diagonal
    }
    let expected_nnz = 3 * n - 2;
    group.bench_function(BenchmarkId::new("from_triplets", n), |b| {
        b.iter(|| {
            let m = CsrMatrix::from_triplets(n, n, &triplets).expect("valid triplets");
            assert_eq!(m.nnz(), expected_nnz);
            m.nnz()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_generation, bench_csr_from_triplets);
criterion_main!(benches);
