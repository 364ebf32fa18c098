//! `reliab-cli` — solve declarative model specifications from the
//! command line, in parallel.
//!
//! ```text
//! reliab-cli model.json [more.json ...]       # solve files, print results
//! reliab-cli --jobs 4 'specs/*.json'          # parallel batch over a glob
//! reliab-cli --stats model.json               # include solver telemetry
//! reliab-cli --json specs/*.json              # one machine-readable document
//! cat model.json | reliab-cli -               # read a spec from stdin
//! ```
//!
//! Options:
//!
//! * `--jobs N` — the thread budget (0 = one per CPU; default 0). A
//!   batch runs `min(N, inputs)` workers and solves each input on one
//!   thread; a lone worker hands its solves the whole budget, which the
//!   uncertainty sampler, the hierarchy sweep and simulation
//!   replications split the same way. Results are bitwise identical at
//!   any setting.
//! * `--json` — emit a single JSON array covering every input (errors
//!   included per entry) instead of pretty text per file.
//! * `--stats` — include solver telemetry (wall time, iterations,
//!   residuals, BDD table sizes) with each result.
//! * `--method auto|gth|sor|power|sim` — CTMC steady-state method, or
//!   `sim` to force discrete-event simulation for component models
//!   carrying a `sim` block.
//! * `--mem-budget BYTES` — total byte budget of an SPN solve (`K`/`M`/
//!   `G` suffixes accepted). Without one, the state-space walk keeps
//!   every generator row; with one, it keeps them while they fit the
//!   budget, and once they would not the solve regenerates them from
//!   the marking arena, with the same measures to the bit. A budget
//!   below GTH's floor solves a small net by SOR instead, and one too
//!   small for an exact solve escalates to aggregation bounds.
//! * `--trace FILE` — stream the structured trace (spans + events) to
//!   `FILE` as JSON Lines.
//! * `--profile FILE` — write an aggregated phase profile of the solve
//!   as Chrome-trace JSON (loadable in `chrome://tracing` / Perfetto).
//! * `--record FILE` — write per-iteration convergence telemetry
//!   (solver residuals, CI trajectories, frontier growth, ...) as JSON
//!   Lines, bounded per series by the flight recorder's ring capacity.
//! * `--metrics FILE` — dump the metrics registry to `FILE` on exit
//!   (`-` = stderr).
//! * `--metrics-format prometheus|json` — exposition format for
//!   `--metrics` (default `prometheus`).
//! * `--progress` — print per-spec completion to stderr as the batch
//!   runs.
//! * `--connect HOST:PORT` — submit each input to a running
//!   `reliab-serve` daemon instead of solving in-process. Output and
//!   exit codes match local solving. The daemon solves with default
//!   options, so `--method` or `--mem-budget` with it is a usage error.
//!
//! A model's own numbers (simulation seed and replications, sample
//! counts, tolerances, truncation order, variable order) are keys of
//! its document, not flags.
//!
//! Artifact paths (`--trace` / `--profile` / `--record` / `--metrics`)
//! may contain the literal `{trace}` placeholder, replaced by this
//! invocation's trace id — concurrent invocations sharing a template
//! then never clobber each other's files.
//!
//! Exit status: 0 on success, 2 on usage errors, and otherwise the
//! most severe per-input failure as classified by
//! [`reliab_spec::wire::WireError::exit_code`] (in practice 1).

use reliab_engine::serve::{http_request, keyed_artifact_path};
use reliab_engine::BatchEngine;
use reliab_obs as obs;
use reliab_spec::json::JsonValue;
use reliab_spec::wire::{ErrorKind, SolveResponse, WireError};
use reliab_spec::{json, SolveOptions, SolveReport, SteadySolver};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Stdout writer that goes quiet — without losing the computed exit
/// status — once the consumer (e.g. `head`) closes the pipe.
#[derive(Default)]
struct Emitter {
    closed: bool,
}

impl Emitter {
    fn emit(&mut self, line: &str) {
        if self.closed {
            return;
        }
        if writeln!(std::io::stdout(), "{line}").is_err() {
            self.closed = true;
        }
    }
}

fn usage(code: i32) -> ! {
    eprintln!(
        "usage: reliab-cli [--jobs N] [--json] [--stats] [--method M] \
         [--mem-budget BYTES] [--trace FILE] [--profile FILE] \
         [--record FILE] [--metrics FILE] \
         [--metrics-format F] [--progress] [--connect HOST:PORT] \
         <spec.json|glob|-> ..."
    );
    eprintln!("solves reliab model specifications (rbd / fault_tree / ctmc / rel_graph / spn /");
    eprintln!("  hierarchy / semi_markov / uncertainty / bounds)");
    eprintln!("  --jobs N            thread budget (0 = one per CPU; default 0): min(N, inputs)");
    eprintln!("                      batch workers; a lone input gets the whole budget");
    eprintln!("  --json              one machine-readable JSON array for the whole batch");
    eprintln!("  --stats             include solver telemetry with each result");
    eprintln!("  --method M          steady-state method auto|gth|sor|power, or sim to");
    eprintln!("                      force discrete-event simulation (component models)");
    eprintln!("  --mem-budget BYTES  SPN byte budget (K/M/G suffixes): rows it cannot hold");
    eprintln!("                      are regenerated from the marking arena, same measures");
    eprintln!("  --trace FILE        write a JSONL trace of spans/events to FILE");
    eprintln!("  --profile FILE      write a Chrome-trace phase profile to FILE");
    eprintln!("  --record FILE       write per-iteration convergence telemetry (JSONL)");
    eprintln!("  --metrics FILE      dump solver metrics to FILE on exit (- = stderr)");
    eprintln!("  --metrics-format F  metrics exposition: prometheus (default) or json");
    eprintln!("  --progress          report per-spec completion on stderr");
    eprintln!("  --connect HOST:PORT submit inputs to a running reliab-serve daemon, which");
    eprintln!("                      solves with default options (no --method, --mem-budget)");
    eprintln!("  artifact FILE paths may embed {{trace}}, replaced by this run's trace id");
    std::process::exit(code);
}

/// Parses a byte count with an optional `K`/`M`/`G` (or `KiB`-style)
/// suffix: `"268435456"`, `"256M"` and `"256MiB"` all mean the same
/// thing. Binary multiples, matching how the budget is spent.
fn parse_bytes(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, multiplier) = match s
        .char_indices()
        .find(|&(_, c)| !c.is_ascii_digit())
        .map(|(i, _)| i)
    {
        None => (s, 1usize),
        Some(split) => {
            let m = match s[split..].trim().to_ascii_uppercase().as_str() {
                "K" | "KB" | "KIB" => 1usize << 10,
                "M" | "MB" | "MIB" => 1 << 20,
                "G" | "GB" | "GIB" => 1 << 30,
                _ => return None,
            };
            (&s[..split], m)
        }
    };
    if digits.is_empty() {
        return None;
    }
    digits
        .parse::<usize>()
        .ok()
        .and_then(|n| n.checked_mul(multiplier))
}

struct Cli {
    jobs: usize,
    json: bool,
    stats: bool,
    options: SolveOptions,
    /// The last flag given that sets `options`, which a daemon cannot
    /// honour.
    options_flag: Option<&'static str>,
    trace: Option<String>,
    profile: Option<String>,
    record: Option<String>,
    metrics: Option<String>,
    metrics_format: obs::ExpositionFormat,
    progress: bool,
    connect: Option<String>,
    inputs: Vec<String>,
}

fn parse_args(args: &[String]) -> Cli {
    let mut cli = Cli {
        jobs: 0,
        json: false,
        stats: false,
        options: SolveOptions::default(),
        options_flag: None,
        trace: None,
        profile: None,
        record: None,
        metrics: None,
        metrics_format: obs::ExpositionFormat::Prometheus,
        progress: false,
        connect: None,
        inputs: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => usage(0),
            "--json" => cli.json = true,
            "--stats" => cli.stats = true,
            "--progress" => cli.progress = true,
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => cli.jobs = n,
                None => {
                    eprintln!("--jobs requires a non-negative integer");
                    usage(2);
                }
            },
            "--method" => {
                cli.options.steady_solver = match it.next().map(String::as_str) {
                    Some("auto") => SteadySolver::Auto,
                    Some("gth") => SteadySolver::Gth,
                    Some("sor") => SteadySolver::Sor,
                    Some("power") => SteadySolver::Power,
                    Some("sim") => {
                        cli.options.simulate = true;
                        SteadySolver::Auto
                    }
                    other => {
                        eprintln!(
                            "--method must be auto|gth|sor|power|sim, got {:?}",
                            other.unwrap_or("<missing>")
                        );
                        usage(2);
                    }
                };
                cli.options_flag = Some("--method");
            }
            "--mem-budget" => match it.next().and_then(|v| parse_bytes(v)) {
                Some(n) => {
                    cli.options.mem_budget = Some(n);
                    cli.options_flag = Some("--mem-budget");
                }
                None => {
                    eprintln!("--mem-budget requires a byte count (K/M/G suffixes accepted)");
                    usage(2);
                }
            },
            "--trace" => match it.next() {
                Some(path) => cli.trace = Some(path.clone()),
                None => {
                    eprintln!("--trace requires a file path");
                    usage(2);
                }
            },
            "--profile" => match it.next() {
                Some(path) => cli.profile = Some(path.clone()),
                None => {
                    eprintln!("--profile requires a file path");
                    usage(2);
                }
            },
            "--record" => match it.next() {
                Some(path) => cli.record = Some(path.clone()),
                None => {
                    eprintln!("--record requires a file path");
                    usage(2);
                }
            },
            "--metrics" => match it.next() {
                Some(path) => cli.metrics = Some(path.clone()),
                None => {
                    eprintln!("--metrics requires a file path (or - for stderr)");
                    usage(2);
                }
            },
            "--metrics-format" => {
                cli.metrics_format = match it.next().and_then(|v| obs::ExpositionFormat::parse(v)) {
                    Some(format) => format,
                    None => {
                        eprintln!("--metrics-format must be prometheus|json");
                        usage(2);
                    }
                }
            }
            "--connect" => match it.next() {
                Some(addr) => cli.connect = Some(addr.clone()),
                None => {
                    eprintln!("--connect requires a HOST:PORT address");
                    usage(2);
                }
            },
            other if other.starts_with("--") => {
                eprintln!("unknown option {other}");
                usage(2);
            }
            other => cli.inputs.push(other.to_owned()),
        }
    }
    if cli.inputs.is_empty() {
        usage(2);
    }
    if let (Some(flag), Some(_)) = (cli.options_flag, &cli.connect) {
        eprintln!("{flag} cannot be used with --connect: the daemon solves with default options");
        usage(2);
    }
    cli
}

/// Reports per-spec completion (`[done/total] label`) on stderr by
/// listening for the engine's `engine.lifecycle` trace events. Index
/// fields refer to the batch of *readable* inputs, so labels here must
/// come pre-filtered to those slots.
struct ProgressSubscriber {
    labels: Vec<String>,
    done: AtomicUsize,
}

impl ProgressSubscriber {
    fn new(labels: Vec<String>) -> Self {
        ProgressSubscriber {
            labels,
            done: AtomicUsize::new(0),
        }
    }
}

impl obs::Subscriber for ProgressSubscriber {
    fn on_span_start(&self, _span: &obs::SpanInfo) {}
    fn on_span_end(&self, _span: &obs::SpanInfo, _duration: std::time::Duration) {}

    fn on_event(&self, event: &obs::EventInfo<'_>) {
        if event.name != "engine.lifecycle" {
            return;
        }
        let mut index = None;
        let mut stage = None;
        let mut outcome = "";
        for (key, value) in event.fields {
            match (*key, value) {
                ("index", obs::Value::U64(i)) => index = Some(*i as usize),
                ("stage", obs::Value::Str(s)) => stage = Some(*s),
                ("outcome", obs::Value::Str(s)) => outcome = s,
                _ => {}
            }
        }
        if stage != Some("done") {
            return;
        }
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let label = index
            .and_then(|i| self.labels.get(i))
            .map_or("?", String::as_str);
        eprintln!("[{done}/{}] {label} ({outcome})", self.labels.len());
    }
}

/// Expands `*`/`?` wildcards in the final path component against the
/// directory listing, for shells that pass patterns through verbatim.
/// Non-patterns and patterns with no matches pass through unchanged
/// (the latter surface as file-not-found errors downstream).
fn expand_glob(pattern: &str) -> Vec<String> {
    if !pattern.contains('*') && !pattern.contains('?') {
        return vec![pattern.to_owned()];
    }
    let (dir, name_pat) = match pattern.rsplit_once('/') {
        Some((d, f)) => (d.to_owned(), f),
        None => (".".to_owned(), pattern),
    };
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return vec![pattern.to_owned()];
    };
    let mut matches: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|name| wildcard_match(name_pat.as_bytes(), name.as_bytes()))
        .map(|name| {
            if dir == "." && !pattern.starts_with("./") {
                name
            } else {
                format!("{dir}/{name}")
            }
        })
        .collect();
    if matches.is_empty() {
        return vec![pattern.to_owned()];
    }
    matches.sort();
    matches
}

fn wildcard_match(pat: &[u8], text: &[u8]) -> bool {
    match (pat.first(), text.first()) {
        (None, None) => true,
        (Some(b'*'), _) => {
            wildcard_match(&pat[1..], text) || (!text.is_empty() && wildcard_match(pat, &text[1..]))
        }
        (Some(b'?'), Some(_)) => wildcard_match(&pat[1..], &text[1..]),
        (Some(&p), Some(&t)) if p == t => wildcard_match(&pat[1..], &text[1..]),
        _ => false,
    }
}

/// The per-input outcome: a locally solved report, a daemon response,
/// or the structured error shared by both front ends.
enum Outcome {
    Local(Box<SolveReport>),
    Remote {
        measures: JsonValue,
        stats: Option<JsonValue>,
    },
    Failed(WireError),
}

/// Submits one input to a `reliab-serve` daemon. Documents that parse
/// locally travel in a `{"kind":"solve"}` envelope (so the stats flag
/// rides along); unparsable text is sent verbatim so the *daemon*
/// produces the error — keeping error kind and message identical to a
/// local solve.
fn solve_remote(addr: &str, label: &str, text: &str, stats: bool) -> Outcome {
    let body = match json::parse(text) {
        Ok(doc) => json::object(vec![
            ("kind", JsonValue::from("solve")),
            ("model", doc),
            ("stats", JsonValue::from(stats)),
        ])
        .to_json(),
        Err(_) => text.to_owned(),
    };
    let response = match http_request(
        addr,
        "POST",
        "/solve",
        &[("Content-Type", "application/json")],
        &body,
    ) {
        Ok(r) => r,
        Err(e) => {
            return Outcome::Failed(WireError::new(
                ErrorKind::Io,
                format!("cannot reach daemon at {addr}: {e}"),
            ))
        }
    };
    match SolveResponse::parse(&response.body) {
        Ok(SolveResponse::Result {
            measures, stats, ..
        }) => Outcome::Remote { measures, stats },
        // A daemon error names the request field it is about, if any;
        // fill in the input label otherwise, as a local solve would.
        Ok(SolveResponse::Error(err)) | Err(err) => Outcome::Failed(if err.path.is_none() {
            err.with_path(label)
        } else {
            err
        }),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_args(&args);

    // One trace id spans the whole invocation: the engine propagates it
    // to workers, and `{trace}` templates in artifact paths key on it.
    let trace_id = obs::mint_trace_id();
    let _trace_guard = obs::set_trace_id(trace_id);
    let keyed = |path: &String| keyed_artifact_path(path, trace_id);

    let files: Vec<String> = cli.inputs.iter().flat_map(|i| expand_glob(i)).collect();
    // One slot per input, in input order: the text read from it, or
    // the read error that replaces its result downstream.
    let mut labels = Vec::with_capacity(files.len());
    let mut sources: Vec<std::result::Result<String, String>> = Vec::with_capacity(files.len());
    for f in &files {
        if f == "-" {
            let mut buf = String::new();
            labels.push("<stdin>".to_owned());
            sources.push(match std::io::stdin().read_to_string(&mut buf) {
                Ok(_) => Ok(buf),
                Err(e) => Err(e.to_string()),
            });
        } else {
            labels.push(f.clone());
            sources.push(std::fs::read_to_string(f).map_err(|e| e.to_string()));
        }
    }

    if let Some(path) = &cli.trace {
        let path = keyed(path);
        match obs::JsonlSubscriber::create(&path) {
            Ok(sub) => obs::install_subscriber(Arc::new(sub)),
            Err(e) => {
                eprintln!("cannot open trace file {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    let profiler = cli.profile.as_ref().map(|_| {
        let p = Arc::new(obs::ProfileSubscriber::new());
        obs::install_subscriber(p.clone());
        p
    });
    let recorder = cli.record.as_ref().map(|_| {
        let r = Arc::new(obs::FlightRecorder::new());
        obs::install_subscriber(r.clone());
        r
    });
    if cli.progress {
        // Lifecycle indices refer to the readable-input batch.
        let readable_labels: Vec<String> = labels
            .iter()
            .zip(&sources)
            .filter(|(_, s)| s.is_ok())
            .map(|(l, _)| l.clone())
            .collect();
        obs::install_subscriber(Arc::new(ProgressSubscriber::new(readable_labels)));
    }
    if cli.metrics.is_some() {
        obs::set_metrics_enabled(true);
    }

    // Per input slot, in input order: the solved outcome, the daemon's
    // response, or the structured error that replaces it.
    let slots: Vec<(&String, Outcome)> = if let Some(addr) = &cli.connect {
        labels
            .iter()
            .zip(&sources)
            .map(|(label, source)| {
                let outcome = match source {
                    Err(read_err) => Outcome::Failed(
                        WireError::new(ErrorKind::Io, read_err.clone()).with_path(label.clone()),
                    ),
                    Ok(text) => solve_remote(addr, label, text, cli.stats),
                };
                (label, outcome)
            })
            .collect()
    } else {
        let engine = BatchEngine::new()
            .with_jobs(cli.jobs)
            .with_options(cli.options);
        let texts: Vec<&String> = sources.iter().filter_map(|s| s.as_ref().ok()).collect();
        let mut reports = engine.solve_texts(&texts).into_iter();
        // solve_texts preserves the order of the readable inputs.
        labels
            .iter()
            .zip(&sources)
            .map(|(label, source)| {
                let outcome = match source {
                    Err(read_err) => Outcome::Failed(
                        WireError::new(ErrorKind::Io, read_err.clone()).with_path(label.clone()),
                    ),
                    Ok(_) => match reports.next().expect("one report per readable input") {
                        Ok(r) => Outcome::Local(Box::new(r)),
                        Err(e) => {
                            Outcome::Failed(WireError::from_error(&e).with_path(label.clone()))
                        }
                    },
                };
                (label, outcome)
            })
            .collect()
    };

    // The exit status depends only on the outcomes — graded by the
    // shared wire-error severity table, never on whether stdout stayed
    // open long enough to print them.
    let exit_code = slots
        .iter()
        .filter_map(|(_, outcome)| match outcome {
            Outcome::Failed(err) => Some(err.exit_code()),
            _ => None,
        })
        .max()
        .unwrap_or(0);

    let mut out = Emitter::default();
    if cli.json {
        let mut entries: Vec<JsonValue> = Vec::new();
        for (label, outcome) in &slots {
            entries.push(match outcome {
                Outcome::Local(r) => {
                    let mut fields = vec![
                        ("file", JsonValue::from(label.as_str())),
                        ("measures", r.measures.to_json()),
                    ];
                    if cli.stats {
                        fields.push(("stats", r.stats.to_json()));
                    }
                    json::object(fields)
                }
                Outcome::Remote { measures, stats } => {
                    let mut fields = vec![
                        ("file", JsonValue::from(label.as_str())),
                        ("measures", measures.clone()),
                    ];
                    if let Some(stats) = stats {
                        fields.push(("stats", stats.clone()));
                    }
                    json::object(fields)
                }
                Outcome::Failed(err) => json::object(vec![
                    ("file", label.as_str().into()),
                    ("error", err.to_json()),
                ]),
            });
        }
        out.emit(&JsonValue::Array(entries).to_json_pretty());
    } else {
        let many = slots.len() > 1;
        for (label, outcome) in &slots {
            match outcome {
                Outcome::Local(r) => {
                    if many {
                        out.emit(&format!("// {label}"));
                    }
                    // Headline via the unified measures API: every
                    // model class reports its kind and, when it has
                    // one, its primary scalar.
                    match r.measures.primary_value() {
                        Some(v) => out.emit(&format!("// {}: {v}", r.measures.kind())),
                        None => out.emit(&format!("// {}", r.measures.kind())),
                    }
                    out.emit(&r.measures.to_json().to_json_pretty());
                    if cli.stats {
                        out.emit(&format!("// stats: {}", r.stats.to_json().to_json()));
                    }
                }
                Outcome::Remote { measures, stats } => {
                    if many {
                        out.emit(&format!("// {label}"));
                    }
                    // The daemon ships measures as JSON; the kind
                    // discriminant is a field of the document.
                    match measures.get("kind").and_then(JsonValue::as_str) {
                        Some(kind) => out.emit(&format!("// {kind}")),
                        None => out.emit("// result"),
                    }
                    out.emit(&measures.to_json_pretty());
                    if let Some(stats) = stats {
                        out.emit(&format!("// stats: {}", stats.to_json()));
                    }
                }
                Outcome::Failed(err) => {
                    eprintln!("{label}: [{}] {}", err.kind.as_str(), err.message);
                }
            }
        }
    }

    if let (Some(path), Some(profiler)) = (&cli.profile, &profiler) {
        let path = keyed(path);
        if let Err(e) = std::fs::write(&path, profiler.to_chrome_trace()) {
            eprintln!("cannot write profile file {path}: {e}");
        }
    }
    if let (Some(path), Some(recorder)) = (&cli.record, &recorder) {
        let path = keyed(path);
        if let Err(e) = std::fs::write(&path, recorder.to_jsonl()) {
            eprintln!("cannot write record file {path}: {e}");
        }
    }
    if let Some(target) = &cli.metrics {
        let dump = obs::registry().exposition(cli.metrics_format);
        if target == "-" {
            eprint!("{dump}");
        } else {
            let target = keyed(target);
            if let Err(e) = std::fs::write(&target, &dump) {
                eprintln!("cannot write metrics file {target}: {e}");
            }
        }
    }
    // `process::exit` skips destructors: push buffered trace records
    // out explicitly.
    obs::flush_subscribers();
    std::process::exit(exit_code);
}
