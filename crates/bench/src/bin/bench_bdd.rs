//! `bench-bdd` — end-to-end BDD kernel benchmark producing the
//! committed `BENCH_bdd.json` performance record.
//!
//! Compiles the 10 800-event aircraft-class fault tree (see
//! [`reliab_bench::boeing_class_tree`]) and computes its exact top-event
//! probability on both the frozen pre-rework kernel and the current
//! one, with identical (declaration) variable ordering so both build
//! the same canonical DAG. The run aborts unless the two probabilities
//! are bitwise equal; only then is the speedup reported. The minimal
//! cut sets of the same tree are then listed by the ZBDD kernel
//! and timed; the run aborts unless their count equals the closed form
//! (each 2-of-10 vote has C(10, 2) failing unit pairs of 7 x 7 cut
//! sets, so 2 205 per ten units) and the list is strictly sorted by
//! order, then event ids. A final, untimed pass with GC disabled
//! records how far the default kernel's collection bounds the peak
//! live-node count.
//!
//! ```text
//! cargo run --release -p reliab-bench --bin bench-bdd              # full run, writes BENCH_bdd.json
//! cargo run --release -p reliab-bench --bin bench-bdd -- --quick   # CI-sized tree, no file written
//! cargo run --release -p reliab-bench --bin bench-bdd -- --quick --check BENCH_bdd.json
//! ```
//!
//! Options:
//!
//! * `--quick` — 150-unit (1 800-event) tree with fewer repetitions;
//!   skips writing the output file unless `--out` is given.
//! * `--out FILE` — where to write the JSON record (default
//!   `BENCH_bdd.json`; full mode only unless given explicitly).
//! * `--check FILE` — compare against a committed baseline: exit 1 if
//!   the new kernel's wall time regressed by more than 3x relative to
//!   the baseline's ratio of new-kernel to legacy-kernel time.
//!
//! Exit status: 0 on success, 1 on a `--check` regression, an
//! equivalence failure or a cut-set failure, 2 on usage errors.

use std::time::Instant;

use reliab_bench::{
    boeing_class_tree, compile_legacy, detected_cpu_cores, legacy_bdd, profiled_phases, time_min,
};
use reliab_ftree::{CompileOptions, VariableOrdering};
use reliab_spec::json::{self, JsonValue};

struct Args {
    quick: bool,
    out: Option<String>,
    check: Option<String>,
}

fn usage(code: i32) -> ! {
    eprintln!("usage: bench-bdd [--quick] [--out FILE] [--check FILE]");
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

fn main() {
    let args = parse_args();
    let (units, reps) = if args.quick { (150, 3) } else { (900, 5) };
    let (_, _, probs) = boeing_class_tree(units);
    let nvars = probs.len();
    eprintln!("bench-bdd: {units} units, {nvars} basic events, {reps} reps");

    // Legacy kernel: BDD compile + exact probability. The fault-tree
    // construction itself (string formatting, gate allocation) is
    // identical for both kernels and happens outside the timer.
    let (legacy_ns, (legacy_compile_ns, q_legacy)) = time_min(reps, || {
        let (_, top, probs) = boeing_class_tree(units);
        let t = Instant::now();
        let mut bdd = legacy_bdd::Bdd::new(probs.len() as u32);
        let f = compile_legacy(&mut bdd, &top);
        let compile_ns = t.elapsed().as_nanos();
        let q = bdd.probability(f, &probs).expect("valid probabilities");
        (t.elapsed().as_nanos(), (compile_ns, q))
    });
    eprintln!(
        "  legacy kernel: {:.3} ms ({:.3} compile)",
        legacy_ns as f64 / 1e6,
        legacy_compile_ns as f64 / 1e6
    );

    // New kernel, same ordering, same scope.
    let (new_ns, (new_compile_ns, q_new, new_size, stats)) = time_min(reps, || {
        let (builder, top, probs) = boeing_class_tree(units);
        let t = Instant::now();
        let ft = builder
            .build_with_ordering(top, VariableOrdering::Declaration)
            .expect("tree compiles");
        let compile_ns = t.elapsed().as_nanos();
        let q = ft
            .top_event_probability(&probs)
            .expect("valid probabilities");
        (
            t.elapsed().as_nanos(),
            (compile_ns, q, ft.bdd_size(), ft.bdd_stats()),
        )
    });
    eprintln!(
        "  new kernel:    {:.3} ms ({:.3} compile)",
        new_ns as f64 / 1e6,
        new_compile_ns as f64 / 1e6
    );

    if q_legacy.to_bits() != q_new.to_bits() {
        eprintln!("EQUIVALENCE FAILURE: legacy {q_legacy:.17e} != new {q_new:.17e}");
        std::process::exit(1);
    }
    let speedup = legacy_ns as f64 / new_ns as f64;
    let cpu_cores = detected_cpu_cores();
    eprintln!("  probability:   {q_new:.12e} (bitwise equal)");
    eprintln!("  speedup:       {speedup:.2}x ({cpu_cores} CPU detected)");

    // Minimal cut sets of the same tree. Both modes use a multiple of
    // ten units, so every vote is a full 2-of-10.
    let (builder, top, _) = boeing_class_tree(units);
    let ft = builder
        .build_with_ordering(top, VariableOrdering::Declaration)
        .expect("tree compiles");
    let (cutsets_ns, cuts) = time_min(reps, || {
        let t = Instant::now();
        let cuts = ft.minimal_cut_sets(usize::MAX).expect("no cap");
        (t.elapsed().as_nanos(), cuts)
    });
    let closed_form = 2_205 * units.div_ceil(10);
    let sorted = cuts
        .windows(2)
        .all(|w| (w[0].len(), w[0].events()) < (w[1].len(), w[1].events()));
    if cuts.len() != closed_form || !sorted {
        eprintln!(
            "CUT-SET FAILURE: {} minimal cut sets (closed form {closed_form}), \
             strictly sorted: {sorted}",
            cuts.len()
        );
        std::process::exit(1);
    }
    eprintln!(
        "  cut sets:      {} in {:.3} ms (closed form, strictly sorted)",
        cuts.len(),
        cutsets_ns as f64 / 1e6
    );

    // Untimed instrumented pass: per-phase wall-time breakdown of one
    // compile + evaluation, after every timed measurement is in.
    let phases = profiled_phases(|| {
        let (builder, top, probs) = boeing_class_tree(units);
        let ft = builder
            .build_with_ordering(top, VariableOrdering::Declaration)
            .expect("tree compiles");
        let _ = ft.top_event_probability(&probs);
    });

    // GC pass: same tree with collection disabled, to show how far the
    // default kernel's GC bounds the peak live-node count. (The timed
    // run above uses the default threshold, so `stats` is the GC'd
    // side of the comparison.)
    let (builder, top, _) = boeing_class_tree(units);
    let nogc_opts = CompileOptions::new()
        .with_ordering(VariableOrdering::Declaration)
        .with_gc_node_threshold(usize::MAX);
    let nogc_ft = builder.build_with(top, &nogc_opts).expect("tree compiles");
    let nogc_stats = nogc_ft.bdd_stats();
    eprintln!(
        "  gc(default): peak live {} vs unbounded peak {} ({} runs, {} reclaimed)",
        stats.peak_live_nodes, nogc_stats.peak_live_nodes, stats.gc_runs, stats.gc_reclaimed
    );

    let record = json::object(vec![
        ("bench", "bdd_kernel".into()),
        ("mode", if args.quick { "quick" } else { "full" }.into()),
        ("cpu_cores", JsonValue::Number(cpu_cores as f64)),
        ("units", JsonValue::Number(units as f64)),
        ("events", JsonValue::Number(nvars as f64)),
        ("reps", JsonValue::Number(reps as f64)),
        ("legacy_ns", JsonValue::Number(legacy_ns as f64)),
        ("new_ns", JsonValue::Number(new_ns as f64)),
        ("speedup", JsonValue::Number(speedup)),
        ("probability", JsonValue::Number(q_new)),
        ("bitwise_equal", JsonValue::Bool(true)),
        ("cut_sets", JsonValue::Number(closed_form as f64)),
        ("cutsets_ns", JsonValue::Number(cutsets_ns as f64)),
        (
            "new_stats",
            json::object(vec![
                ("bdd_nodes", JsonValue::Number(stats.arena_nodes as f64)),
                ("bdd_size", JsonValue::Number(new_size as f64)),
                (
                    "peak_live_nodes",
                    JsonValue::Number(stats.peak_live_nodes as f64),
                ),
                (
                    "ite_cache_lookups",
                    JsonValue::Number(stats.ite_cache_lookups as f64),
                ),
                (
                    "ite_cache_hits",
                    JsonValue::Number(stats.ite_cache_hits as f64),
                ),
                ("ite_hit_rate", JsonValue::Number(stats.ite_hit_rate())),
            ]),
        ),
        (
            "gc",
            json::object(vec![
                (
                    "peak_live_nodes",
                    JsonValue::Number(stats.peak_live_nodes as f64),
                ),
                (
                    "unbounded_peak_live_nodes",
                    JsonValue::Number(nogc_stats.peak_live_nodes as f64),
                ),
                ("gc_runs", JsonValue::Number(stats.gc_runs as f64)),
                ("gc_reclaimed", JsonValue::Number(stats.gc_reclaimed as f64)),
                ("gc_moved", JsonValue::Number(stats.gc_moved as f64)),
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
        (None, false) => Some("BENCH_bdd.json".to_owned()),
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
/// differ, so the comparison is relative: the ratio of new-kernel to
/// legacy-kernel time on *this* machine must not exceed 3x the same
/// ratio in the baseline. Both kernels are single-threaded, so unlike
/// the par/seq gates in `bench-sim` / `bench-uncert` this one stays
/// meaningful on a single-CPU machine. The factor is 3x rather than
/// 2x because the committed baseline is a full-mode (900-unit) run
/// while CI checks quick mode (150 units), and the compact kernel's
/// locality/GC advantage grows with tree size: the quick-mode
/// new/legacy ratio sits near 2x the full-mode ratio even with no
/// regression at all.
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
    if ratio > 3.0 * base_ratio {
        Err(format!(
            "new/legacy ratio {ratio:.3} exceeds 3x baseline ratio {base_ratio:.3}"
        ))
    } else {
        Ok(format!(
            "check ok: new/legacy ratio {ratio:.3} within 3x of baseline {base_ratio:.3}"
        ))
    }
}
