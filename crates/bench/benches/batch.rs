//! Batch-engine benches: thread-pool scaling on a 32-spec batch and
//! the effect of memoization.
//!
//! The workload is 32 distinct birth–death CTMC documents (so
//! memoization cannot shortcut the scaling runs), each large enough
//! that a solve does real numerical work: a 120-state chain with a
//! steady-state solve and three uniformization transient points.
//!
//! Scaling is only visible with real cores: on a single-CPU host the
//! jobs > 1 rows just measure thread-pool overhead. On >= 4 cores the
//! jobs/4 row is expected to run well under the jobs/1 time (the
//! specs are solved fully independently, so speedup is near-linear
//! until memory bandwidth interferes).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use reliab_engine::BatchEngine;

fn birth_death_doc(states: usize, lambda: f64, mu: f64, at_times: &[f64]) -> String {
    let names: Vec<String> = (0..states).map(|i| format!("\"s{i}\"")).collect();
    let mut transitions = Vec::with_capacity(2 * states);
    for i in 0..states - 1 {
        transitions.push(format!(
            "{{\"from\": \"s{i}\", \"to\": \"s{}\", \"rate\": {lambda}}}",
            i + 1
        ));
        transitions.push(format!(
            "{{\"from\": \"s{}\", \"to\": \"s{i}\", \"rate\": {mu}}}",
            i + 1
        ));
    }
    let times: Vec<String> = at_times.iter().map(f64::to_string).collect();
    let up: Vec<String> = (0..states / 2).map(|i| format!("\"s{i}\"")).collect();
    format!(
        "{{\"ctmc\": {{\"states\": [{}], \"transitions\": [{}], \
         \"up_states\": [{}], \"at_times\": [{}]}}}}",
        names.join(", "),
        transitions.join(", "),
        up.join(", "),
        times.join(", ")
    )
}

/// 32 structurally distinct documents: rates vary per index.
fn distinct_batch() -> Vec<String> {
    (0..32)
        .map(|i| {
            birth_death_doc(
                120,
                1.0 + 0.01 * i as f64,
                2.0 + 0.02 * i as f64,
                &[1.0, 10.0, 50.0],
            )
        })
        .collect()
}

fn bench_batch_scaling(c: &mut Criterion) {
    let docs = distinct_batch();
    let mut group = c.benchmark_group("batch_engine_32_specs");
    group.sample_size(10);
    for jobs in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("jobs", jobs), &jobs, |b, &jobs| {
            b.iter(|| {
                let engine = BatchEngine::new().with_jobs(jobs).with_memoization(false);
                black_box(engine.solve_texts(&docs))
            })
        });
    }
    group.finish();
}

fn bench_memoization(c: &mut Criterion) {
    // 32 copies of one document: the memo cache should collapse the
    // batch to a single solve. `memo_distinct` keeps the memo on over
    // the 32 distinct documents, so nothing hits: it measures what the
    // memo key costs when it cannot pay off.
    let doc = birth_death_doc(120, 1.0, 2.0, &[1.0, 10.0, 50.0]);
    let copies: Vec<String> = (0..32).map(|_| doc.clone()).collect();
    let distinct = distinct_batch();
    let mut group = c.benchmark_group("batch_engine_memoization");
    group.sample_size(10);
    for (label, memoize, docs) in [
        ("memo", true, &copies),
        ("no_memo", false, &copies),
        ("memo_distinct", true, &distinct),
    ] {
        group.bench_with_input(BenchmarkId::new(label, 32usize), &memoize, |b, &memoize| {
            b.iter(|| {
                let engine = BatchEngine::new().with_jobs(1).with_memoization(memoize);
                black_box(engine.solve_texts(docs))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batch_scaling, bench_memoization);
criterion_main!(benches);
