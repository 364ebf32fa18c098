//! `bench-uncert` — end-to-end uncertainty-propagation benchmark
//! producing the committed `BENCH_uncert.json` performance record.
//!
//! Solves an `"uncertainty"` spec wrapping a birth–death CTMC: every
//! Monte-Carlo sample re-solves the inner chain with rates drawn from
//! gamma priors. A second spec wraps a 144-event fault tree (twelve
//! units of five redundant pairs and two simplex parts, ten voting
//! 2-of-n and two 2-of-2) with uniform priors on four event
//! probabilities, so each sample re-runs the tree's probability pass;
//! its cost per sample is timed sequentially, median and min/max of
//! five passes. Before any speedup is reported the run asserts the
//! scenario layer's reproducibility guarantee: the solved measures JSON
//! — mean, standard deviation, percentile interval — is bitwise
//! identical at thread budgets 1, 2 and 4, and each solve reports that
//! many sampler workers, because sampling is a pure function of
//! `(seed, sample index)`. The timing then interleaves five sequential
//! and parallel passes (one worker per detected CPU), each pass
//! repeating the solve until it lasts at least 0.3 s; the record
//! carries the median and min/max of both sides, and `"unmeasured"` as
//! the speedup on one CPU.
//!
//! ```text
//! cargo run --release -p reliab-bench --bin bench-uncert              # full run, writes BENCH_uncert.json
//! cargo run --release -p reliab-bench --bin bench-uncert -- --quick   # CI-sized budget, no file written
//! cargo run --release -p reliab-bench --bin bench-uncert -- --quick --check BENCH_uncert.json
//! ```
//!
//! Options:
//!
//! * `--quick` — smaller chain and sample budget; skips writing the
//!   output file unless `--out` is given.
//! * `--out FILE` — where to write the JSON record (default
//!   `BENCH_uncert.json`; full mode only unless given explicitly).
//! * `--check FILE` — compare against a committed baseline: exit 1 if
//!   the median parallel pass time relative to the median sequential
//!   one regressed by more than 2x the baseline's par-to-seq ratio.
//!   The ratio gate is skipped (with a note) when this run or the
//!   baseline saw one CPU: a par/seq ratio measured without real
//!   parallelism is scheduling noise, not signal.
//!
//! Exit status: 0 on success, 1 on a `--check` regression or an
//! equivalence failure, 2 on usage errors.

use std::time::Instant;

use reliab_bench::{detected_cpu_cores, profiled_phases, ParallelTiming, Spread};
use reliab_spec::json::{self, JsonValue};
use reliab_spec::{solve_str_with, SolveOptions, SolveReport};

struct Args {
    quick: bool,
    out: Option<String>,
    check: Option<String>,
}

fn usage(code: i32) -> ! {
    eprintln!("usage: bench-uncert [--quick] [--out FILE] [--check FILE]");
    std::process::exit(code);
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        out: None,
        check: None,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--out" => match it.next() {
                Some(p) => args.out = Some(p.clone()),
                None => usage(2),
            },
            "--check" => match it.next() {
                Some(p) => args.check = Some(p.clone()),
                None => usage(2),
            },
            "-h" | "--help" => usage(0),
            _ => usage(2),
        }
    }
    args
}

/// An `"uncertainty"` spec over an `n`-state birth–death availability
/// chain (the lower half of the states up, the rest degraded), with
/// gamma priors on the first failure and repair rates.
fn uncert_doc(n: usize, samples: usize) -> String {
    let states: Vec<String> = (0..n).map(|i| format!("\"s{i}\"")).collect();
    let up: Vec<String> = (0..n / 2).map(|i| format!("\"s{i}\"")).collect();
    // Load factor 0.9: the stationary mass decays slowly, so the
    // availability stays comfortably inside [0, 1] at any chain size.
    let mut transitions = Vec::with_capacity(2 * (n - 1));
    for i in 0..n - 1 {
        transitions.push(format!(
            r#"{{"from": "s{i}", "to": "s{}", "rate": 0.45}}"#,
            i + 1
        ));
        transitions.push(format!(
            r#"{{"from": "s{}", "to": "s{i}", "rate": 0.5}}"#,
            i + 1
        ));
    }
    format!(
        r#"{{"uncertainty": {{
            "model": {{"ctmc": {{"states": [{states}],
                               "transitions": [{transitions}],
                               "up_states": [{up}]}}}},
            "parameters": [
              {{"path": "ctmc.transitions.0.rate",
                "prior": {{"gamma": {{"shape": 9.0, "rate": 20.0}}}}}},
              {{"path": "ctmc.transitions.1.rate",
                "prior": {{"gamma": {{"shape": 10.0, "rate": 20.0}}}}}}],
            "measure": "availability",
            "samples": {samples},
            "seed": 48879,
            "latin_hypercube": true}}}}"#,
        states = states.join(","),
        transitions = transitions.join(","),
        up = up.join(","),
    )
}

/// An `"uncertainty"` spec over a fault tree of `voters + 2` units:
/// each unit fails when one of five redundant pairs or one of two
/// simplex parts fails, the first `voters` units vote 2-of-n and the
/// last two 2-of-2, and the top event is either subsystem failing. The
/// first four events' probabilities carry uniform priors.
fn fault_tree_uncert_doc(voters: usize, samples: usize) -> String {
    let mut events = Vec::new();
    let mut units = Vec::new();
    for u in 0..voters + 2 {
        let mut inputs = Vec::new();
        for i in 0..5 {
            let (a, b) = (format!("u{u}p{i}a"), format!("u{u}p{i}b"));
            inputs.push(format!(r#"{{"and": ["{a}", "{b}"]}}"#));
            events.push(a);
            events.push(b);
        }
        for i in 0..2 {
            let e = format!("u{u}s{i}");
            inputs.push(format!("\"{e}\""));
            events.push(e);
        }
        units.push(format!(r#"{{"or": [{}]}}"#, inputs.join(", ")));
    }
    let events: Vec<String> = events
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let p = 1e-4 * (1 + i % 10) as f64;
            format!(r#"{{"name": "{e}", "probability": {p}}}"#)
        })
        .collect();
    let parameters: Vec<String> = (0..4)
        .map(|i| {
            format!(
                r#"{{"path": "fault_tree.events.{i}.probability",
                    "prior": {{"uniform": {{"low": 1e-4, "high": 1.1e-3}}}}}}"#
            )
        })
        .collect();
    format!(
        r#"{{"uncertainty": {{
            "model": {{"fault_tree": {{"events": [{events}],
                "top": {{"or": [{{"k_of_n": {{"k": 2, "of": [{voting}]}}}},
                                {{"k_of_n": {{"k": 2, "of": [{pair}]}}}}]}}}}}},
            "parameters": [{parameters}],
            "measure": "unreliability",
            "samples": {samples},
            "seed": 48879,
            "latin_hypercube": true}}}}"#,
        events = events.join(","),
        voting = units[..voters].join(","),
        pair = units[voters..].join(","),
        parameters = parameters.join(","),
    )
}

/// Wall time per sample of sequential solves of `doc`: one untimed
/// solve, then five passes of back-to-back solves, each lasting at
/// least 0.3 s.
fn per_sample(doc: &str, samples: usize) -> Spread {
    let solve = || solve_str_with(doc, &SolveOptions::default().with_threads(1));
    let t = Instant::now();
    solve().expect("valid spec");
    let runs = (0.3 / t.elapsed().as_secs_f64().max(1e-9)).ceil() as usize;
    let passes: Vec<u128> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..runs {
                solve().expect("valid spec");
            }
            t.elapsed().as_nanos() / (runs * samples) as u128
        })
        .collect();
    Spread::of(&passes)
}

/// Canonical measures JSON — the whole solved record except stats
/// (which carry wall time and the worker count, the fields allowed to
/// differ between runs).
fn measures_json(report: &SolveReport) -> String {
    report.measures.to_json().to_json()
}

fn main() {
    let args = parse_args();
    let (n_states, samples) = if args.quick {
        (48usize, 96usize)
    } else {
        (96usize, 384usize)
    };
    eprintln!(
        "bench-uncert: {n_states}-state birth-death chain, 2 gamma priors, \
         {samples} Latin-hypercube samples"
    );

    let doc = uncert_doc(n_states, samples);
    let solve = |threads: usize| {
        solve_str_with(&doc, &SolveOptions::default().with_threads(threads)).expect("valid spec")
    };

    // Sequential reference: a budget of one thread.
    let t = Instant::now();
    let seq_report = solve(1);
    let seq_ns = t.elapsed().as_nanos();
    let seq_measures = measures_json(&seq_report);
    eprintln!("  1 worker:  {:.3} ms", seq_ns as f64 / 1e6);

    // Equivalence gate: the threaded sampler must reproduce the
    // one-worker measures bitwise at every probed budget, and run as
    // many sampler workers as the budget allows.
    for threads in [1usize, 2, 4] {
        let par = solve(threads);
        if measures_json(&par) != seq_measures || par.stats.workers != threads {
            eprintln!(
                "EQUIVALENCE FAILURE: budget {threads} ran {} workers; measures equal: {}",
                par.stats.workers,
                measures_json(&par) == seq_measures
            );
            std::process::exit(1);
        }
    }

    let timing = ParallelTiming::measure(|threads| {
        solve(threads);
    });
    let samples_per_sec = samples as f64 * timing.runs as f64 / (timing.seq.median / 1e9);
    let mean = json::get_path(&seq_report.measures.to_json(), "uncertainty.mean")
        .and_then(JsonValue::as_f64)
        .expect("uncertainty measures carry a mean");
    let cpu_cores = detected_cpu_cores();
    eprintln!("  parallel:  bitwise identical at budgets 1, 2 and 4");
    eprintln!("  rate:      {samples_per_sec:.0} model solves/s sequential");
    eprintln!("  timing:    {}", timing.summary());

    // The fault-tree inner model: the same bitwise gate, then its cost
    // per sample.
    let (voters, ft_samples) = (10, if args.quick { 64 } else { 256 });
    let ft_doc = fault_tree_uncert_doc(voters, ft_samples);
    let ft_solve = |threads: usize| {
        solve_str_with(&ft_doc, &SolveOptions::default().with_threads(threads)).expect("valid spec")
    };
    let ft_report = ft_solve(1);
    for threads in [2usize, 4] {
        if measures_json(&ft_solve(threads)) != measures_json(&ft_report) {
            eprintln!("EQUIVALENCE FAILURE: fault tree at budget {threads}");
            std::process::exit(1);
        }
    }
    let ft_sample = per_sample(&ft_doc, ft_samples);
    let ft_mean = ft_report.measures.primary_value().expect("a sample mean");
    let ft_events = (voters + 2) * 12;
    eprintln!(
        "  fault tree: {ft_events} events, {ft_samples} samples, {:.1} us per sample \
         [{:.1}, {:.1}]",
        ft_sample.median / 1e3,
        ft_sample.min / 1e3,
        ft_sample.max / 1e3
    );

    // Untimed instrumented pass: per-phase wall-time breakdown of one
    // sequential solve, after every timed measurement is in.
    let phases = profiled_phases(|| {
        let _ = solve(1);
    });

    let record = json::object(vec![
        ("bench", "uncert".into()),
        ("mode", if args.quick { "quick" } else { "full" }.into()),
        ("cpu_cores", JsonValue::Number(cpu_cores as f64)),
        ("states", JsonValue::Number(n_states as f64)),
        ("samples", JsonValue::Number(samples as f64)),
        ("parallel", timing.to_json()),
        (
            "samples_per_sec_sequential",
            JsonValue::Number(samples_per_sec),
        ),
        ("mean_availability", JsonValue::Number(mean)),
        ("parallel_bitwise_equal", JsonValue::Bool(true)),
        ("phases", phases),
        (
            "fault_tree",
            json::object(vec![
                ("events", JsonValue::Number(ft_events as f64)),
                ("samples", JsonValue::Number(ft_samples as f64)),
                ("per_sample", ft_sample.to_json()),
                (
                    "samples_per_sec_sequential",
                    JsonValue::Number(1e9 / ft_sample.median),
                ),
                ("mean_unreliability", JsonValue::Number(ft_mean)),
                ("parallel_bitwise_equal", JsonValue::Bool(true)),
            ]),
        ),
    ]);

    if let Some(baseline_path) = &args.check {
        match timing.check(baseline_path, 2.0) {
            Ok(Some(msg)) => eprintln!("  {msg}"),
            Ok(None) => eprintln!("  check skipped: one CPU here or in the baseline"),
            Err(msg) => {
                eprintln!("REGRESSION: {msg}");
                std::process::exit(1);
            }
        }
    }

    let out_path = match (&args.out, args.quick) {
        (Some(p), _) => Some(p.clone()),
        (None, false) => Some("BENCH_uncert.json".to_owned()),
        (None, true) => None,
    };
    if let Some(path) = out_path {
        let text = record.to_json_pretty();
        if let Err(e) = std::fs::write(&path, format!("{text}\n")) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("  wrote {path}");
    } else {
        println!("{}", record.to_json_pretty());
    }
}
