//! `bench-reach` — end-to-end SPN state-space generation benchmark
//! producing the committed `BENCH_reach.json` performance record.
//!
//! Generates the tangible reachability graph of the three-stage tandem
//! queueing net (see [`reliab_bench::tandem_spn`]; `(capacity + 1)³`
//! markings, immediate routing exercising vanishing elimination) with
//! both the frozen pre-rework generator and the current compact-store
//! generator, each timed through its CTMC (the current one builds it on
//! first use). Before any speedup is reported the run asserts
//! equivalence: identical tangible marking sets and matching total
//! transition outflow.
//!
//! ```text
//! cargo run --release -p reliab-bench --bin bench-reach              # full run, writes BENCH_reach.json
//! cargo run --release -p reliab-bench --bin bench-reach -- --quick   # CI-sized net, no file written
//! cargo run --release -p reliab-bench --bin bench-reach -- --quick --check BENCH_reach.json
//! ```
//!
//! Options:
//!
//! * `--quick` — capacity-16 net (4 913 markings) with fewer
//!   repetitions; skips writing the output file unless `--out` is
//!   given.
//! * `--out FILE` — where to write the JSON record (default
//!   `BENCH_reach.json`; full mode only unless given explicitly).
//! * `--check FILE` — compare against a committed baseline: exit 1 if
//!   the new generator's wall time regressed by more than 2x relative
//!   to the baseline's ratio of new-generator to legacy-generator time.
//!
//! Exit status: 0 on success, 1 on a `--check` regression or an
//! equivalence failure, 2 on usage errors.

use std::time::Instant;

use reliab_bench::legacy_reach::LegacyReachOptions;
use reliab_bench::{detected_cpu_cores, profiled_phases, tandem_legacy, tandem_spn, time_min};
use reliab_spec::json::{self, JsonValue};

struct Args {
    quick: bool,
    out: Option<String>,
    check: Option<String>,
}

fn usage(code: i32) -> ! {
    eprintln!("usage: bench-reach [--quick] [--out FILE] [--check FILE]");
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

/// Sum of all off-diagonal generator rates — a state-numbering-
/// independent fingerprint of the transition structure.
fn total_outflow(ctmc: &reliab_markov::Ctmc) -> f64 {
    let g = ctmc.generator();
    let mut total = 0.0;
    for i in 0..g.nrows() {
        for (j, v) in g.row(i) {
            if j != i {
                total += v;
            }
        }
    }
    total
}

fn main() {
    let args = parse_args();
    let (capacity, reps) = if args.quick { (16u32, 3) } else { (48u32, 3) };
    let expected_markings = (capacity as usize + 1).pow(3);
    eprintln!(
        "bench-reach: tandem net, capacity {capacity}, {expected_markings} markings, {reps} reps"
    );

    // Legacy generator. Net construction is identical for both routes
    // and stays off the clock.
    let legacy_net = tandem_legacy(capacity);
    let legacy_opts = LegacyReachOptions::default();
    let (legacy_ns, legacy_solved) = time_min(reps, || {
        let t = Instant::now();
        let solved = legacy_net.solve_with(&legacy_opts).expect("bounded net");
        (t.elapsed().as_nanos(), solved)
    });
    eprintln!("  legacy generator: {:.3} ms", legacy_ns as f64 / 1e6);

    // New generator, timed through its CTMC like the legacy one.
    let new_net = tandem_spn(capacity).expect("net builds");
    let (new_ns, new_solved) = time_min(reps, || {
        let t = Instant::now();
        let solved = new_net.solve().expect("bounded net");
        solved.ctmc();
        (t.elapsed().as_nanos(), solved)
    });
    let stats = new_solved.reach_stats().clone();
    eprintln!(
        "  new generator:    {:.3} ms ({} markings, {} arcs, {} vanishing eliminated)",
        new_ns as f64 / 1e6,
        stats.markings,
        stats.arcs,
        stats.vanishing_eliminated
    );

    // Equivalence gate 1: identical tangible marking sets (numbering
    // differs between the routes, so compare sorted).
    if new_solved.num_markings() != expected_markings
        || legacy_solved.num_markings() != expected_markings
    {
        eprintln!(
            "EQUIVALENCE FAILURE: marking counts new {} / legacy {} / expected {expected_markings}",
            new_solved.num_markings(),
            legacy_solved.num_markings()
        );
        std::process::exit(1);
    }
    let mut new_markings: Vec<Vec<u32>> = (0..new_solved.num_markings() as u32)
        .map(|i| new_solved.marking(i).to_vec())
        .collect();
    let mut legacy_markings = legacy_solved.markings().to_vec();
    new_markings.sort();
    legacy_markings.sort();
    if new_markings != legacy_markings {
        eprintln!("EQUIVALENCE FAILURE: tangible marking sets differ");
        std::process::exit(1);
    }

    // Equivalence gate 2: matching total outflow (summation order
    // differs, so compare to relative fp tolerance).
    let flow_new = total_outflow(new_solved.ctmc());
    let flow_legacy = total_outflow(legacy_solved.ctmc());
    if ((flow_new - flow_legacy) / flow_legacy).abs() > 1e-9 {
        eprintln!("EQUIVALENCE FAILURE: outflow new {flow_new:.17e} != legacy {flow_legacy:.17e}");
        std::process::exit(1);
    }

    let speedup = legacy_ns as f64 / new_ns as f64;
    let cpu_cores = detected_cpu_cores();
    eprintln!("  outflow:          {flow_new:.12e} (matches legacy)");
    eprintln!("  speedup:          {speedup:.2}x ({cpu_cores} CPU detected)");

    // Untimed instrumented pass: per-phase wall-time breakdown of one
    // generation, after every timed measurement is in.
    let phases = profiled_phases(|| {
        let _ = new_net.solve();
    });

    let record = json::object(vec![
        ("bench", "reach".into()),
        ("mode", if args.quick { "quick" } else { "full" }.into()),
        ("cpu_cores", JsonValue::Number(cpu_cores as f64)),
        ("capacity", JsonValue::Number(f64::from(capacity))),
        ("markings", JsonValue::Number(expected_markings as f64)),
        ("reps", JsonValue::Number(reps as f64)),
        ("legacy_ns", JsonValue::Number(legacy_ns as f64)),
        ("new_ns", JsonValue::Number(new_ns as f64)),
        ("speedup", JsonValue::Number(speedup)),
        ("total_outflow", JsonValue::Number(flow_new)),
        (
            "new_stats",
            json::object(vec![
                ("arcs", JsonValue::Number(stats.arcs as f64)),
                (
                    "vanishing_eliminated",
                    JsonValue::Number(stats.vanishing_eliminated as f64),
                ),
            ]),
        ),
        ("phases", phases),
    ]);

    if let Some(baseline_path) = &args.check {
        match check_regression(baseline_path, legacy_ns as f64, new_ns as f64) {
            Ok(msg) => eprintln!("  {msg}"),
            Err(msg) => {
                eprintln!("REGRESSION: {msg}");
                std::process::exit(1);
            }
        }
    }

    let out_path = match (&args.out, args.quick) {
        (Some(p), _) => Some(p.clone()),
        (None, false) => Some("BENCH_reach.json".to_owned()),
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
/// differ, so the comparison is relative: the ratio of new-generator
/// to legacy-generator time on *this* machine must not exceed 2x the
/// same ratio in the baseline. Both routes are sequential, so unlike
/// the par/seq gates in `bench-sim` / `bench-uncert` this one stays
/// meaningful on a single-CPU machine.
fn check_regression(path: &str, legacy_ns: f64, new_ns: f64) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    let field = |key: &str| -> Result<f64, String> {
        v.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{path} is missing numeric field '{key}'"))
    };
    let base_ratio = field("new_ns")? / field("legacy_ns")?;
    let ratio = new_ns / legacy_ns;
    if ratio > 2.0 * base_ratio {
        Err(format!(
            "new/legacy ratio {ratio:.3} exceeds 2x baseline ratio {base_ratio:.3}"
        ))
    } else {
        Ok(format!(
            "check ok: new/legacy ratio {ratio:.3} within 2x of baseline {base_ratio:.3}"
        ))
    }
}
