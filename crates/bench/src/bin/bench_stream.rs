//! `bench-stream` — streaming large-model solver benchmark producing
//! the committed `BENCH_stream.json` performance record.
//!
//! Solves the steady state of the three-stage tandem queueing net (see
//! [`reliab_bench::tandem_spn`]) at a scale the materialized CSR path
//! cannot fit into the run's memory budget: only the packed marking
//! arena is generated, and the streaming tier regenerates generator
//! rows on demand. Before any number is reported the run asserts
//! equivalence on a reference net: the streamed steady state must match
//! the materialized chain's SOR — the same kernel over the CSR
//! generator — to 1e-8, and a tight budget that forces partial slice
//! caching must reproduce the full-cache result bitwise.
//!
//! ```text
//! cargo run --release -p reliab-bench --bin bench-stream             # full run, writes BENCH_stream.json
//! cargo run --release -p reliab-bench --bin bench-stream -- --quick  # CI-sized net, no file written
//! cargo run --release -p reliab-bench --bin bench-stream -- --quick --check BENCH_stream.json
//! ```
//!
//! Options:
//!
//! * `--quick` — capacity-16 net (4 913 markings) with a scaled-down
//!   budget; skips writing the output file unless `--out` is given.
//! * `--out FILE` — where to write the JSON record (default
//!   `BENCH_stream.json`; full mode only unless given explicitly).
//! * `--check FILE` — compare against a committed baseline: exit 1 if
//!   the stream-to-materialized time ratio on the reference net
//!   regressed by more than 2x relative to the baseline's ratio (the
//!   timing gate is skipped on a single-CPU machine; the memory-ceiling
//!   assertion always runs).
//!
//! Exit status: 0 on success, 1 on a `--check` regression, an
//! equivalence failure or a memory-ceiling violation, 2 on usage
//! errors.

use std::time::Instant;

use reliab_bench::{detected_cpu_cores, profiled_phases, tandem_spn};
use reliab_markov::{
    steady_state, IterativeOptions, MemoryPlan, PlanOutcome, RowSource, SteadyMethod,
    SteadyOptions, SteadyReport,
};
use reliab_spec::json::{self, JsonValue};
use reliab_spn::{ReachabilityOptions, SpaceRows};

struct Args {
    quick: bool,
    out: Option<String>,
    check: Option<String>,
}

fn usage(code: i32) -> ! {
    eprintln!("usage: bench-stream [--quick] [--out FILE] [--check FILE]");
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

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), `None` where the proc filesystem is absent.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// What materializing the same chain would keep resident at its peak:
/// the CSR build holds the triplet buffer and the finished CSR arrays
/// simultaneously, on top of the marking store and the exit-rate
/// vector. Computed from the *measured* arc count, so this is a floor
/// on the real footprint, not a guess.
fn materialized_peak_estimate(states: usize, arcs: u64, source_bytes: usize) -> u64 {
    let triplets = arcs * 16;
    let csr = arcs * 16 + (states as u64 + 1) * 8;
    triplets + csr + source_bytes as u64 + states as u64 * 8
}

/// An exact streamed solve and its memory plan; the budgets here are
/// all chosen to admit one.
fn solve(src: &dyn RowSource, opts: &SteadyOptions) -> (SteadyReport, MemoryPlan) {
    match steady_state(src, opts).expect("stream solve converges") {
        PlanOutcome::Exact(report) => {
            let plan = report.plan.expect("iterative solves report their plan");
            (report, plan)
        }
        PlanOutcome::NeedsBounds { required, budget } => {
            panic!("budget {budget} is below the exact floor {required}")
        }
    }
}

fn main() {
    let args = parse_args();
    // Large net: 10^6 tangible markings in full mode. Reference net:
    // the BENCH_reach scale, where the materialized path still fits
    // comfortably and the 1e-8 differential can run.
    let (capacity, ref_capacity) = if args.quick { (16u32, 10u32) } else { (99, 48) };
    let markings = (capacity as usize + 1).pow(3);
    let ref_markings = (ref_capacity as usize + 1).pow(3);
    eprintln!(
        "bench-stream: tandem net, capacity {capacity}, {markings} markings (reference capacity \
         {ref_capacity}, {ref_markings} markings)"
    );

    let sopts = SteadyOptions {
        iterative: IterativeOptions {
            tolerance: 1e-10,
            max_iterations: 100_000,
            relaxation: 1.0,
        },
        method: SteadyMethod::Sor,
        ..Default::default()
    };

    // ---- Large net under a budget the materialized path cannot meet.
    let net = tandem_spn(capacity).expect("net builds");
    let ropts = ReachabilityOptions {
        max_markings: markings + 1,
        ..Default::default()
    };
    let t = Instant::now();
    let space = net.tangible_space(&ropts).expect("bounded net");
    let space_ns = t.elapsed().as_nanos();
    assert_eq!(space.num_markings(), markings);
    let arcs = space.stats().arcs as u64;
    let source_bytes = space.resident_bytes();
    let estimate = materialized_peak_estimate(markings, arcs, source_bytes);
    // Budget: stream requirement (source + vectors + slice cache) plus
    // headroom, well below the materialized peak. The arithmetic is
    // asserted, not assumed.
    let stream_floor = source_bytes as u64 + 2 * 8 * markings as u64 + arcs * 16;
    let mem_budget = stream_floor + stream_floor / 8;
    eprintln!(
        "  space: {:.3} ms, {arcs} arcs, source {:.1} MiB; budget {:.1} MiB vs materialized \
         estimate {:.1} MiB",
        space_ns as f64 / 1e6,
        source_bytes as f64 / (1 << 20) as f64,
        mem_budget as f64 / (1 << 20) as f64,
        estimate as f64 / (1 << 20) as f64
    );
    if estimate <= mem_budget {
        eprintln!("SETUP FAILURE: the budget does not exclude the materialized path");
        std::process::exit(1);
    }

    let budget_opts = SteadyOptions {
        mem_budget: Some(mem_budget as usize),
        ..sopts
    };
    let src = SpaceRows::new(&space);
    let t = Instant::now();
    let (report, plan) = solve(&src, &budget_opts);
    let solve_ns = t.elapsed().as_nanos();
    let plan_peak = plan.peak_bytes();
    // Headline measure: steady-state mean stage-3 queue length (place
    // index 2 in `tandem_spn`'s declaration order).
    let stage3: f64 = report
        .pi
        .iter()
        .enumerate()
        .map(|(i, &p)| p * f64::from(space.marking(i as u32)[2]))
        .sum();
    eprintln!(
        "  stream solve: {:.3} ms, {} sweeps, residual {:.3e}, {} block(s) ({} cached), plan \
         peak {:.1} MiB, stage3 mean {stage3:.9}",
        solve_ns as f64 / 1e6,
        report.iterations,
        report.residual,
        plan.blocks,
        plan.cached_blocks,
        plan_peak as f64 / (1 << 20) as f64
    );
    if plan_peak > mem_budget {
        eprintln!("MEMORY FAILURE: plan peak {plan_peak} exceeds budget {mem_budget}");
        std::process::exit(1);
    }
    // Process-level ceiling: the streaming solve must not drag the
    // whole process past budget + fixed overhead (binary, allocator
    // slack, arena-growth transients). Snapshot before the reference
    // gates allocate anything.
    let rss_ceiling = mem_budget + (128 << 20);
    let peak_rss = peak_rss_bytes();
    if let Some(rss) = peak_rss {
        eprintln!(
            "  peak RSS: {:.1} MiB (ceiling {:.1} MiB)",
            rss as f64 / (1 << 20) as f64,
            rss_ceiling as f64 / (1 << 20) as f64
        );
        if rss > rss_ceiling {
            eprintln!("MEMORY FAILURE: peak RSS {rss} exceeds ceiling {rss_ceiling}");
            std::process::exit(1);
        }
    }
    drop(src);
    drop(space);

    // ---- Equivalence gate 1: streamed vs materialized on the
    // reference net, 1e-8.
    let ref_net = tandem_spn(ref_capacity).expect("net builds");
    let ref_ropts = ReachabilityOptions::default();
    let (mat_ns, pi_mat) = {
        let t = Instant::now();
        let solved = ref_net.solve_with(&ref_ropts).expect("bounded net");
        let report = solved
            .ctmc()
            .steady_state_report(&sopts)
            .expect("materialized solve converges");
        (t.elapsed().as_nanos(), report.pi)
    };
    let ref_space = ref_net.tangible_space(&ref_ropts).expect("bounded net");
    let ref_src = SpaceRows::new(&ref_space);
    let t = Instant::now();
    let (ref_report, ref_plan) = solve(&ref_src, &sopts);
    let stream_ns = t.elapsed().as_nanos();
    let mut max_diff = 0.0f64;
    for (mat, streamed) in pi_mat.iter().zip(&ref_report.pi) {
        max_diff = max_diff.max((mat - streamed).abs());
    }
    eprintln!(
        "  reference: materialized {:.3} ms, streamed {:.3} ms, max |Δπ| {max_diff:.3e}",
        mat_ns as f64 / 1e6,
        stream_ns as f64 / 1e6
    );
    if max_diff > 1e-8 {
        eprintln!("EQUIVALENCE FAILURE: streamed π deviates by {max_diff:.3e} > 1e-8");
        std::process::exit(1);
    }

    // ---- Equivalence gate 2: a budget that forces partial slice
    // caching must reproduce the full-cache result bitwise.
    let ref_floor = ref_src.resident_bytes() as u64 + 2 * 8 * ref_markings as u64;
    let tight = SteadyOptions {
        // Roughly a third of the slice store fits: multiple blocks,
        // some cached, the rest recomputed every sweep.
        mem_budget: Some((ref_floor + ref_plan.slice_bytes / 3) as usize),
        ..sopts
    };
    let (tight_report, tight_plan) = solve(&ref_src, &tight);
    if tight_report.pi != ref_report.pi || tight_report.iterations != ref_report.iterations {
        eprintln!("EQUIVALENCE FAILURE: partial-cache sweep is not bitwise equal to full-cache");
        std::process::exit(1);
    }
    eprintln!(
        "  partial cache: {} blocks ({} cached), bitwise equal",
        tight_plan.blocks, tight_plan.cached_blocks
    );

    let cpu_cores = detected_cpu_cores();
    let ratio = stream_ns as f64 / mat_ns as f64;
    eprintln!("  stream/materialized solve-time ratio: {ratio:.3} ({cpu_cores} CPU detected)");

    // Untimed instrumented pass over the reference streamed solve.
    let phases = profiled_phases(|| {
        let _ = steady_state(&SpaceRows::new(&ref_space), &sopts);
    });

    let record = json::object(vec![
        ("bench", "stream".into()),
        ("mode", if args.quick { "quick" } else { "full" }.into()),
        ("cpu_cores", JsonValue::Number(cpu_cores as f64)),
        ("capacity", JsonValue::Number(f64::from(capacity))),
        ("markings", JsonValue::Number(markings as f64)),
        ("arcs", JsonValue::Number(arcs as f64)),
        ("mem_budget_bytes", JsonValue::Number(mem_budget as f64)),
        (
            "materialized_estimate_bytes",
            JsonValue::Number(estimate as f64),
        ),
        ("space_ns", JsonValue::Number(space_ns as f64)),
        ("solve_ns", JsonValue::Number(solve_ns as f64)),
        ("iterations", JsonValue::Number(report.iterations as f64)),
        ("residual", JsonValue::Number(report.residual)),
        ("method", report.method.into()),
        ("blocks", JsonValue::Number(plan.blocks as f64)),
        (
            "cached_blocks",
            JsonValue::Number(plan.cached_blocks as f64),
        ),
        ("plan_peak_bytes", JsonValue::Number(plan_peak as f64)),
        (
            "peak_rss_bytes",
            peak_rss.map_or(JsonValue::Null, |r| JsonValue::Number(r as f64)),
        ),
        ("rss_ceiling_bytes", JsonValue::Number(rss_ceiling as f64)),
        ("stage3_mean_tokens", JsonValue::Number(stage3)),
        ("ref_capacity", JsonValue::Number(f64::from(ref_capacity))),
        ("ref_markings", JsonValue::Number(ref_markings as f64)),
        ("ref_materialized_ns", JsonValue::Number(mat_ns as f64)),
        ("ref_stream_ns", JsonValue::Number(stream_ns as f64)),
        ("ref_max_abs_diff", JsonValue::Number(max_diff)),
        ("partial_cache_bitwise_equal", JsonValue::Bool(true)),
        ("phases", phases),
    ]);

    if let Some(baseline_path) = &args.check {
        match check_regression(baseline_path, mat_ns as f64, stream_ns as f64, cpu_cores) {
            Ok(msg) => eprintln!("  {msg}"),
            Err(msg) => {
                eprintln!("REGRESSION: {msg}");
                std::process::exit(1);
            }
        }
    }

    let out_path = match (&args.out, args.quick) {
        (Some(p), _) => Some(p.clone()),
        (None, false) => Some("BENCH_stream.json".to_owned()),
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

/// Compares this run against a committed baseline record. Machines
/// differ, so the comparison is relative: the ratio of streamed to
/// materialized solve time on the reference net must not exceed 2x the
/// baseline's ratio. On a single-CPU runner scheduling noise swamps
/// the signal, so — as with the other bench gates — the timing check
/// is skipped there (the equivalence and memory assertions above have
/// already run unconditionally).
fn check_regression(
    path: &str,
    mat_ns: f64,
    stream_ns: f64,
    cpu_cores: usize,
) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    let field = |key: &str| -> Result<f64, String> {
        v.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{path} is missing numeric field '{key}'"))
    };
    let base_ratio = field("ref_stream_ns")? / field("ref_materialized_ns")?;
    if cpu_cores == 1 {
        return Ok(format!(
            "check skipped: single CPU (baseline ratio {base_ratio:.3} not compared)"
        ));
    }
    let ratio = stream_ns / mat_ns;
    if ratio > 2.0 * base_ratio {
        Err(format!(
            "stream/materialized ratio {ratio:.3} exceeds 2x baseline ratio {base_ratio:.3}"
        ))
    } else {
        Ok(format!(
            "check ok: stream/materialized ratio {ratio:.3} within 2x of baseline {base_ratio:.3}"
        ))
    }
}
