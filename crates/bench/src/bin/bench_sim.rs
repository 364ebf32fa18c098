//! `bench-sim` — end-to-end discrete-event simulation benchmark
//! producing the committed `BENCH_sim.json` performance record.
//!
//! Runs a fixed replication budget of the wide workstation-farm model
//! (see [`reliab_bench::wide_wfs_simulator`]; 100 components, 50-of-99
//! workstations in series with a file server, lognormal repairs) on the
//! sequential driver and on the work-stealing driver at one worker per
//! detected CPU. Before any speedup is reported the run asserts the
//! driver's reproducibility guarantee: the full `SimReport` — point
//! estimate, CI, event count, trajectory — is bitwise identical at 1,
//! 2, and 4 workers. The timing interleaves five sequential and
//! parallel passes, each repeating the run until it lasts at least
//! 0.3 s; the record carries the median and min/max of both sides, and
//! `"unmeasured"` as the speedup on one CPU.
//!
//! ```text
//! cargo run --release -p reliab-bench --bin bench-sim              # full run, writes BENCH_sim.json
//! cargo run --release -p reliab-bench --bin bench-sim -- --quick   # CI-sized budget, no file written
//! cargo run --release -p reliab-bench --bin bench-sim -- --quick --check BENCH_sim.json
//! ```
//!
//! Options:
//!
//! * `--quick` — 64 replications; skips writing the output file unless
//!   `--out` is given.
//! * `--out FILE` — where to write the JSON record (default
//!   `BENCH_sim.json`; full mode only unless given explicitly).
//! * `--check FILE` — compare against a committed baseline: exit 1 if
//!   the parallel driver's median pass time relative to the sequential
//!   driver's regressed by more than 2x the baseline's par-to-seq
//!   ratio. The ratio gate is skipped (with a note) when this run or
//!   the baseline saw one CPU: a par/seq ratio measured without real
//!   parallelism is scheduling noise, not signal.
//!
//! Exit status: 0 on success, 1 on a `--check` regression or an
//! equivalence failure, 2 on usage errors.

use std::time::Instant;

use reliab_bench::{detected_cpu_cores, profiled_phases, wide_wfs_simulator, ParallelTiming};
use reliab_sim::{Measure, SimOptions, SimReport};
use reliab_spec::json::{self, JsonValue};

struct Args {
    quick: bool,
    out: Option<String>,
    check: Option<String>,
}

fn usage(code: i32) -> ! {
    eprintln!("usage: bench-sim [--quick] [--out FILE] [--check FILE]");
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

/// Everything in a `SimReport` except `workers` — which records the
/// thread count and is the one field allowed to differ between runs.
fn results_equal(a: &SimReport, b: &SimReport) -> bool {
    let mut a = a.clone();
    let mut b = b.clone();
    a.workers = 0;
    b.workers = 0;
    a == b
}

fn main() {
    let args = parse_args();
    let replications = if args.quick { 64usize } else { 512usize };
    const N_WS: usize = 99;
    const K: usize = 50;
    const HORIZON: f64 = 2_000.0;
    eprintln!(
        "bench-sim: {}-component farm ({K}-of-{N_WS} + file server), \
         availability to t = {HORIZON}, {replications} replications",
        N_WS + 1
    );

    // Simulator construction is identical for both routes and stays off
    // the clock. The budget is fixed (adaptive stopping off, one round)
    // so every timed run does exactly the same event-level work.
    let sim = wide_wfs_simulator(N_WS, K);
    let measure = Measure::Availability { horizon: HORIZON };
    let mut base_opts = SimOptions::default()
        .with_seed(0xBE9C_0002)
        .with_rel_precision(0.0)
        .with_max_replications(replications);
    base_opts.min_replications = replications;
    base_opts.round_replications = replications;
    let run = |jobs: usize| {
        sim.simulate(measure, &base_opts.clone().with_jobs(jobs))
            .expect("valid simulation")
    };

    // Sequential reference driver.
    let t = Instant::now();
    let seq_report = run(1);
    let seq_ns = t.elapsed().as_nanos();
    eprintln!(
        "  sequential: {:.3} ms ({} events, point {:.6})",
        seq_ns as f64 / 1e6,
        seq_report.events,
        seq_report.interval.point
    );

    // Equivalence gate: the parallel driver must reproduce the
    // sequential report bitwise at every probed worker count.
    for jobs in [2usize, 4] {
        if !results_equal(&run(jobs), &seq_report) {
            eprintln!("EQUIVALENCE FAILURE: {jobs}-worker simulation differs from sequential");
            std::process::exit(1);
        }
    }

    let timing = ParallelTiming::measure(|jobs| {
        run(jobs);
    });
    let events_per_sec = seq_report.events as f64 * timing.runs as f64 / (timing.seq.median / 1e9);
    let cpu_cores = detected_cpu_cores();
    eprintln!("  parallel:   bitwise identical at 2 and 4 workers");
    eprintln!("  throughput: {events_per_sec:.0} events/s sequential");
    eprintln!("  timing:     {}", timing.summary());

    // Untimed instrumented pass: per-phase wall-time breakdown of one
    // sequential solve, after every timed measurement is in.
    let phases = profiled_phases(|| {
        let _ = run(1);
    });

    let record = json::object(vec![
        ("bench", "sim".into()),
        ("mode", if args.quick { "quick" } else { "full" }.into()),
        ("cpu_cores", JsonValue::Number(cpu_cores as f64)),
        ("components", JsonValue::Number((N_WS + 1) as f64)),
        ("replications", JsonValue::Number(replications as f64)),
        ("parallel", timing.to_json()),
        ("events", JsonValue::Number(seq_report.events as f64)),
        (
            "events_per_sec_sequential",
            JsonValue::Number(events_per_sec),
        ),
        ("point", JsonValue::Number(seq_report.interval.point)),
        (
            "ci_half_width",
            JsonValue::Number(seq_report.interval.upper - seq_report.interval.point),
        ),
        ("parallel_bitwise_equal", JsonValue::Bool(true)),
        ("phases", phases),
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
        (None, false) => Some("BENCH_sim.json".to_owned()),
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
