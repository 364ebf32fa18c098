//! scenario_sweep and kernel_mix: the library path, in this process,
//! on one solver thread that moves over the allowed CPUs (see
//! `cpus`).

use std::time::Instant;

use reliab_engine::BatchEngine;
use reliab_obs as obs;
use reliab_spec::json::{self, JsonValue};
use reliab_spec::{ModelSpec, SolveReport, SolvedMeasures};

use crate::check;
use crate::cpus::Cpus;
use crate::gen::{self, Doc, KernelSizes, SweepSizes, WARMUP_OP};
use crate::report::{self, latency_metrics, median, metric, Outcome};
use crate::trace::{layer_metrics, trace_path, Tracer};
use crate::{Args, Workload};

/// Set-ups per run; `setup_s` is their median. The first precedes the
/// timed ops and warms the process; the others are spread evenly over
/// the run, so the median samples the host the way the ops do.
const SETUP_REPS: usize = 9;
/// Plain ops a run measures at least, so that ten lie beyond p90; a run
/// on a slow host may take up to four times `--seconds` to reach them.
const MIN_OPS: u64 = 100;

/// One op's reports and their encodings, with its latency.
pub struct Op {
    pub latency_s: f64,
    pub reports: Vec<Result<SolveReport, String>>,
    pub encoded: Vec<String>,
}

fn encode(reports: &[Result<SolveReport, String>]) -> Vec<String> {
    reports
        .iter()
        .map(|r| {
            r.as_ref()
                .map(|r| r.to_json().to_json())
                .unwrap_or_default()
        })
        .collect()
}

/// The op as `reliab-cli` runs it, without process start: a fresh
/// engine solves the texts, then the reports are encoded.
fn plain_op(docs: &[Doc]) -> Op {
    let texts: Vec<&str> = docs.iter().map(|d| d.text.as_str()).collect();
    let t0 = Instant::now();
    let solved = BatchEngine::new().with_jobs(1).solve_texts(&texts);
    let reports: Vec<Result<SolveReport, String>> = solved
        .into_iter()
        .map(|r| r.map_err(|e| e.to_string()))
        .collect();
    let encoded = encode(&reports);
    Op {
        latency_s: t0.elapsed().as_secs_f64(),
        reports,
        encoded,
    }
}

/// The same op split at the public calls, each under its own span:
/// parse, schema, canonical form, engine solve, encode. Every span of
/// the op carries `op_id` as its trace id.
pub fn layered_op(engine: &BatchEngine, docs: &[Doc], op_id: u64) -> Op {
    let _trace = obs::set_trace_id(op_id);
    let t0 = Instant::now();
    let op_span = obs::span("bench.op");
    let values: Vec<Result<JsonValue, String>> = {
        let _s = obs::span("spec.json.parse");
        docs.iter().map(|d| json::parse(&d.text)).collect()
    };
    let specs: Result<Vec<ModelSpec>, String> = {
        let _s = obs::span("spec.schema.from_json");
        values
            .into_iter()
            .map(|v| v.and_then(|v| ModelSpec::from_json(&v).map_err(|e| e.to_string())))
            .collect()
    };
    let reports: Vec<Result<SolveReport, String>> = match &specs {
        Ok(specs) => {
            {
                let _s = obs::span("engine.canonical");
                for spec in specs {
                    std::hint::black_box(spec.canonical_string());
                }
            }
            engine
                .solve(specs)
                .into_iter()
                .map(|r| r.map_err(|e| e.to_string()))
                .collect()
        }
        Err(e) => docs.iter().map(|_| Err(e.clone())).collect(),
    };
    let encoded = {
        let _s = obs::span("spec.report.encode");
        encode(&reports)
    };
    drop(op_span);
    Op {
        latency_s: t0.elapsed().as_secs_f64(),
        reports,
        encoded,
    }
}

fn op_docs(args: &Args, index: u64) -> Vec<Doc> {
    match args.workload {
        Workload::ScenarioSweep => gen::sweep_op(args.seed, index),
        _ => gen::kernel_op(args.seed, index),
    }
}

/// What the checks of one op found.
struct Facts {
    digest: u64,
    inner: u64,
}

/// Every report solved, every probability in `[0, 1]`, the
/// materialized and streamed net agree; returns the measures digest.
fn check_op(workload: Workload, docs: &[Doc], op: &Op) -> Result<Facts, String> {
    let mut facts = Facts {
        digest: 0,
        inner: 0,
    };
    let mut measures = Vec::with_capacity(docs.len());
    for ((doc, report), encoded) in docs.iter().zip(&op.reports).zip(&op.encoded) {
        let report = report.as_ref().map_err(Clone::clone)?;
        check::probabilities_in_range(&report.measures)?;
        facts.digest = facts.digest.rotate_left(17) ^ check::measures_digest(encoded)?;
        facts.inner += check::inner_solves(doc, report);
        measures.push(&report.measures);
    }
    if workload == Workload::KernelMix {
        check::spn_solves_agree(measures[1], measures[2])?;
    }
    Ok(facts)
}

/// Per-op counts the traced window reports as layer metrics.
#[derive(Default)]
pub struct OpCounts {
    pub bytes_out: u64,
    pub cut_sets: u64,
    pub bdd_nodes: u64,
}

impl OpCounts {
    pub fn add(&mut self, op: &Op) {
        self.bytes_out += op.encoded.iter().map(|e| e.len() as u64).sum::<u64>();
        for report in op.reports.iter().flatten() {
            if let SolvedMeasures::FaultTree {
                minimal_cut_sets, ..
            } = &report.measures
            {
                self.cut_sets += minimal_cut_sets.len() as u64;
                self.bdd_nodes += report.stats.bdd_nodes.unwrap_or(0) as u64;
            }
        }
    }
}

#[derive(Default)]
struct Window {
    ops: u64,
    failed: u64,
    inner: u64,
    latencies_s: Vec<f64>,
    /// Wall time of this window's op slots: generate, run, check.
    wall_s: f64,
    /// `(op index, measures digest)` of the first and last checked op.
    digests: Vec<(u64, u64)>,
    counts: OpCounts,
}

impl Window {
    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }

    fn record(&mut self, index: u64, op: &Op, checked: Result<Facts, String>) {
        self.ops += 1;
        self.latencies_s.push(op.latency_s);
        self.counts.add(op);
        match checked {
            Ok(facts) => {
                self.inner += facts.inner;
                if self.digests.len() < 2 {
                    self.digests.push((index, facts.digest));
                } else {
                    self.digests[1] = (index, facts.digest);
                }
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: op {index} failed: {e}");
            }
        }
    }
}

/// Set-up: engine construction plus the warm-up op, whose measures
/// must not change between repetitions.
struct Setup {
    docs: Vec<Doc>,
    times_s: Vec<f64>,
    digest: Option<u64>,
    markings: usize,
}

impl Setup {
    fn run_once(&mut self, workload: Workload) -> Result<(), String> {
        let op = plain_op(&self.docs);
        self.times_s.push(op.latency_s);
        let facts = check_op(workload, &self.docs, &op).map_err(|e| format!("warm-up op: {e}"))?;
        if *self.digest.get_or_insert(facts.digest) != facts.digest {
            return Err("warm-up op gave different measures on repetition".to_owned());
        }
        for report in op.reports.iter().flatten() {
            if let SolvedMeasures::Spn { num_markings, .. } = &report.measures {
                self.markings = *num_markings;
            }
        }
        Ok(())
    }
}

/// Runs ops back to back for `seconds`, with the remaining set-ups
/// spread over the run. With a tracer, every other op runs split at
/// the public calls under the tracer, so the plain and traced ops
/// share the host's conditions; returns the plain and the traced
/// window. Each pair of ops, and the set-ups between them, run on the
/// next allowed CPU in turn.
fn window(
    args: &Args,
    setup: &mut Setup,
    tracer: Option<&Tracer>,
    cpus: &Cpus,
) -> Result<(Window, Window), String> {
    let (mut plain, mut traced) = (Window::default(), Window::default());
    let seconds = args.seconds;
    let start = Instant::now();
    let mut index = 0;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= seconds && (plain.ops >= MIN_OPS || elapsed >= 4.0 * seconds) {
            break;
        }
        cpus.pin(index / 2);
        let done = setup.times_s.len();
        if done < SETUP_REPS && elapsed >= seconds * done as f64 / SETUP_REPS as f64 {
            setup.run_once(args.workload)?;
            continue;
        }
        let t0 = Instant::now();
        let docs = op_docs(args, index);
        let (w, op) = match tracer {
            Some(tracer) if index % 2 == 1 => {
                let engine = BatchEngine::new().with_jobs(1);
                (
                    &mut traced,
                    tracer.record(|| layered_op(&engine, &docs, index + 1)),
                )
            }
            _ => (&mut plain, plain_op(&docs)),
        };
        w.record(index, &op, check_op(args.workload, &docs, &op));
        w.wall_s += t0.elapsed().as_secs_f64();
        index += 1;
    }
    while setup.times_s.len() < SETUP_REPS {
        setup.run_once(args.workload)?;
    }
    Ok((plain, traced))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setup = Setup {
        docs: op_docs(args, WARMUP_OP),
        times_s: Vec::with_capacity(SETUP_REPS),
        digest: None,
        markings: 0,
    };
    setup.run_once(args.workload)?;
    let tracer = args.trace.then(Tracer::new);
    let cpus = Cpus::allowed();
    let (measured, traced) = window(args, &mut setup, tracer.as_ref(), &cpus)?;
    let peak_rss_mb = report::peak_rss_mb(None)?;

    // Repetition: the first and last checked ops, solved again, must
    // give the same measures digest.
    let mut repeated = true;
    for &(index, digest) in &measured.digests {
        let docs = op_docs(args, index);
        let again = check_op(args.workload, &docs, &plain_op(&docs))?;
        if again.digest != digest {
            eprintln!("perfbench: op {index} gave different measures on repetition");
            repeated = false;
        }
    }

    let mut outcome = Outcome {
        describe: describe(
            args,
            setup.markings,
            setup.digest.unwrap_or(0),
            cpus.count(),
        ),
        attempted: measured.ops,
        failed: measured.failed,
        checks_passed: repeated,
        metrics: Vec::new(),
    };
    match tracer {
        None => {
            let [p50, p90] = latency_metrics(&measured.latencies_s);
            outcome.metrics = vec![
                metric("setup_s", median(&setup.times_s), "s"),
                metric("ops_per_s", measured.ops_per_s(), "1/s"),
                metric(
                    "inner_solves_per_s",
                    measured.inner as f64 / measured.wall_s,
                    "1/s",
                ),
                p50,
                p90,
                metric("peak_rss_mb", peak_rss_mb, "MiB"),
            ];
        }
        Some(tracer) => {
            let trace = tracer.finish()?;
            outcome.attempted += traced.ops;
            outcome.failed += traced.failed;
            let overhead = 100.0 * (1.0 - traced.ops_per_s() / measured.ops_per_s());
            outcome.metrics = layer_metrics(&trace, traced.ops, &traced.counts, None, overhead)?;
            trace.write(&trace_path(args))?;
        }
    }
    Ok(outcome)
}

fn describe(
    args: &Args,
    markings: usize,
    warm_digest: u64,
    cpus: usize,
) -> Vec<(&'static str, JsonValue)> {
    let n = |x: f64| JsonValue::Number(x);
    // Each size at the smallest, the unit and the largest size factor.
    let (lo, hi) = gen::SIZE_RANGE;
    let range = |f: &dyn Fn(f64) -> f64| JsonValue::Array(vec![n(f(lo)), n(f(1.0)), n(f(hi))]);
    let sizes = match args.workload {
        Workload::ScenarioSweep => json::object(vec![
            ("uncertainty_states", n(gen::SWEEP_STATES as f64)),
            (
                "uncertainty_samples",
                range(&|s| SweepSizes::at(s).samples as f64),
            ),
            (
                "hierarchy_submodels",
                range(&|s| SweepSizes::at(s).submodels as f64),
            ),
            ("hierarchy_submodel_states", n(gen::RING_STATES as f64)),
        ]),
        _ => json::object(vec![
            (
                "fault_tree_events",
                range(&|s| KernelSizes::at(s).fault_tree_events() as f64),
            ),
            (
                "spn_markings",
                range(&|s| (KernelSizes::at(s).spn_capacity as f64 + 1.0).powi(3)),
            ),
            ("spn_markings_warmup", n(markings as f64)),
            (
                "semi_markov_horizon_h",
                range(&|s| KernelSizes::at(s).smp_horizon),
            ),
            (
                "sim_replications",
                range(&|s| KernelSizes::at(s).sim_replications as f64),
            ),
            ("sim_horizon_h", n(gen::SIM_HORIZON)),
        ]),
    };
    let docs = op_docs(args, 0);
    vec![
        ("docs_per_op", n(docs.len() as f64)),
        ("size_factor", JsonValue::Array(vec![n(lo), n(hi)])),
        ("sizes", sizes),
        ("solver_threads", n(1.0)),
        ("cpus_rotated", n(cpus as f64)),
        ("client_threads", n(1.0)),
        ("connections", n(0.0)),
        (
            "memo_capacity",
            n(reliab_engine::DEFAULT_CACHE_CAPACITY as f64),
        ),
        ("repeat_share", n(0.0)),
        (
            "structural_repeat_share",
            n(if args.workload == Workload::ScenarioSweep {
                1.0
            } else {
                0.0
            }),
        ),
        (
            "warmup_digest",
            JsonValue::from(format!("{warm_digest:016x}")),
        ),
    ]
}
