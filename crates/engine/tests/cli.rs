//! End-to-end tests of the `reliab-cli` binary: exit codes under
//! per-file error isolation, and the observability flags (`--trace`,
//! `--profile`, `--record`, `--metrics`).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_reliab-cli"))
}

fn specs_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs")
}

fn spec(name: &str) -> String {
    specs_dir().join(name).to_string_lossy().into_owned()
}

fn run(cmd: &mut Command) -> Output {
    cmd.output().expect("failed to launch reliab-cli")
}

#[test]
fn good_specs_exit_zero() {
    let out = run(cli().arg(spec("two_component.json")));
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    assert!(!out.stdout.is_empty());
}

#[test]
fn unreadable_file_exits_nonzero() {
    let out = run(cli().arg("/nonexistent/never-there.json"));
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn one_bad_input_fails_batch_but_solves_the_rest() {
    let dir = std::env::temp_dir().join("reliab-cli-test-mixed");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "this is not json").unwrap();

    let out = run(cli()
        .arg(spec("two_component.json"))
        .arg(bad.to_string_lossy().as_ref()));
    // The good file still produced output...
    assert!(String::from_utf8_lossy(&out.stdout).contains("availability"));
    // ...but the batch as a whole reports failure.
    assert_eq!(out.status.code(), Some(1));

    // Same isolation + exit code under --json.
    let out = run(cli()
        .arg("--json")
        .arg(spec("two_component.json"))
        .arg(bad.to_string_lossy().as_ref()));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("availability"));
    assert!(stdout.contains("error"));
    assert_eq!(out.status.code(), Some(1));
}

/// A document nested far past the JSON depth cap is a parse error like
/// any other malformed input — same error kind, same exit code — not a
/// stack overflow that aborts the process.
#[test]
fn deeply_nested_input_is_a_parse_error() {
    use reliab_spec::json;

    let dir = std::env::temp_dir().join("reliab-cli-test-deep");
    std::fs::create_dir_all(&dir).unwrap();
    let deep = dir.join("deep.json");
    std::fs::write(&deep, "[".repeat(50_000)).unwrap();
    let malformed = dir.join("malformed.json");
    std::fs::write(&malformed, "[1,").unwrap();
    let outcome = |path: &std::path::Path| {
        let out = run(cli().arg("--json").arg(path));
        let doc =
            json::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("--json output parses");
        let kind = doc
            .as_array()
            .and_then(|entries| entries[0].get("error"))
            .and_then(|e| e.get("kind"))
            .and_then(|k| k.as_str().map(str::to_owned))
            .expect("entry carries an error kind");
        (out.status.code(), kind)
    };
    let (code, kind) = outcome(&deep);
    assert_eq!(code, Some(1), "deep nesting must not abort the process");
    assert_eq!((code, kind), outcome(&malformed));
}

/// A model with more components than the BDD kernel holds is a model
/// error in the `--json` output and exit code 1, not a panic.
#[test]
fn oversized_model_is_a_model_error_not_a_panic() {
    use reliab_spec::json::{self, JsonValue};

    let dir = std::env::temp_dir().join("reliab-cli-test-oversized");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("oversized_rbd.json");
    let components: Vec<String> = (0..65_536)
        .map(|i| format!(r#"{{"name":"c{i}","availability":0.9}}"#))
        .collect();
    std::fs::write(
        &path,
        format!(
            r#"{{"rbd":{{"components":[{}],"structure":"c0"}}}}"#,
            components.join(",")
        ),
    )
    .unwrap();
    let out = run(cli().arg("--json").arg(&path));
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = json::parse(stdout.trim()).expect("--json output parses");
    let error = doc
        .as_array()
        .and_then(|entries| entries[0].get("error"))
        .expect("entry carries an error");
    assert_eq!(error.get("kind").and_then(JsonValue::as_str), Some("model"));
}

#[test]
fn usage_errors_exit_two() {
    assert_eq!(run(&mut cli()).status.code(), Some(2));
    assert_eq!(run(cli().arg("--bogus-flag")).status.code(), Some(2));
}

/// A model's own numbers are keys of its document: the flags that
/// restated them are unknown options, and the help names none of them.
#[test]
fn model_number_flags_are_unknown_options() {
    let help = run(cli().arg("--help"));
    assert_eq!(help.status.code(), Some(0));
    let help = String::from_utf8_lossy(&help.stderr);
    assert!(help.contains("--mem-budget"), "{help}");
    for flag in [
        "--sim-reps",
        "--sim-precision",
        "--sim-seed",
        "--var-order",
        "--ite-cache",
        "--gc-threshold",
        "--uncert-samples",
        "--fixed-point-tol",
        "--truncation-order",
    ] {
        let out = run(cli().args([flag, "1", &spec("two_component.json")]));
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown option {flag}")),
            "{flag}: {stderr}"
        );
        assert!(!help.contains(flag), "help still names {flag}");
    }
}

/// A daemon solves with default options, so a flag that sets them is a
/// usage error next to `--connect` instead of being dropped; the check
/// runs before any connection is made.
#[test]
fn connect_refuses_solve_option_flags() {
    let file = spec("two_component.json");
    for (args, flag) in [
        (["--method", "gth", "--connect", "127.0.0.1:9"], "--method"),
        (
            ["--connect", "127.0.0.1:9", "--mem-budget", "4K"],
            "--mem-budget",
        ),
    ] {
        let out = run(cli().args(args).arg(&file));
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{flag} cannot be used with --connect")),
            "{args:?}: {stderr}"
        );
    }
}

/// Every `--json` failure entry is the shared wire-error document —
/// `kind` / `message` / `path` — and the process exit code is exactly
/// what `WireError::exit_code` assigns to that kind. The daemon serves
/// the same document over HTTP, so this locks CLI/daemon parity from
/// the CLI side (tests/serve.rs locks it from the daemon side).
#[test]
fn structured_errors_carry_kind_message_path_with_exit_parity() {
    use reliab_spec::json::{self, JsonValue};
    use reliab_spec::wire::{ErrorKind, WireError};

    let dir = std::env::temp_dir().join("reliab-cli-test-wire-errors");
    std::fs::create_dir_all(&dir).unwrap();
    let bad_param = dir.join("bad_param.json");
    std::fs::write(
        &bad_param,
        r#"{"rbd": {"components": [{"name": "a", "availability": 1.5}],
                    "structure": "a"}}"#,
    )
    .unwrap();

    let cases = [
        (
            bad_param.to_string_lossy().into_owned(),
            ErrorKind::InvalidParameter,
        ),
        ("/nonexistent/never-there.json".to_owned(), ErrorKind::Io),
    ];
    for (path, kind) in cases {
        let out = run(cli().arg("--json").arg(&path));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let doc = json::parse(stdout.trim()).expect("--json output parses");
        let JsonValue::Array(entries) = &doc else {
            panic!("--json output is not an array: {stdout}");
        };
        let error = entries[0].get("error").expect("entry carries an error");
        assert_eq!(
            error.get("kind").and_then(JsonValue::as_str),
            Some(kind.as_str()),
            "wrong kind for {path}"
        );
        let message = error
            .get("message")
            .and_then(JsonValue::as_str)
            .expect("error carries a message");
        assert!(!message.is_empty());
        assert_eq!(
            error.get("path").and_then(JsonValue::as_str),
            Some(path.as_str()),
            "error must name the failing input"
        );
        // A WireError round-tripped from the printed document must
        // classify to the very exit code the process used.
        let wire = WireError::from_json(error).expect("error document round-trips");
        assert_eq!(wire.kind, kind);
        assert_eq!(out.status.code(), Some(wire.exit_code()), "for {path}");
    }
}

/// `--record`/`--profile` templates containing `{trace}` expand to the
/// run's trace id, so two runs pointed at the same template never
/// clobber each other's artifacts.
#[test]
fn trace_keyed_artifacts_do_not_clobber_across_runs() {
    let dir = std::env::temp_dir().join("reliab-cli-test-trace-keyed");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let template = dir.join("rec-{trace}.jsonl");

    for _ in 0..2 {
        let out = run(cli()
            .arg("--record")
            .arg(template.to_string_lossy().as_ref())
            .arg(spec("two_component.json")));
        assert!(out.status.success(), "stderr: {:?}", out.stderr);
    }

    let files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        files.len(),
        2,
        "expected two trace-keyed artifacts, got {files:?}"
    );
    for name in &files {
        assert!(
            name.starts_with("rec-") && name.ends_with(".jsonl") && !name.contains("{trace}"),
            "unexpanded template in {name}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_flag_writes_parseable_jsonl_with_nested_spans() {
    let dir = std::env::temp_dir().join("reliab-cli-test-trace");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.jsonl");

    let out = run(cli()
        .arg("--trace")
        .arg(trace.to_string_lossy().as_ref())
        .args(
            [
                "two_component.json",
                "multiprocessor.json",
                "bridge_network.json",
                "database_node.json",
            ]
            .map(spec),
        ));
    assert!(out.status.success(), "stderr: {:?}", out.stderr);

    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(!text.is_empty(), "trace file is empty");
    let mut saw_markov_iteration = false;
    let mut saw_bdd_ite = false;
    let mut saw_lifecycle = false;
    let mut saw_nested_span = false;
    let mut saw_duration = false;
    for line in text.lines() {
        // Minimal JSONL well-formedness: each line is one balanced object.
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "bad line: {line}"
        );
        assert_eq!(line.matches('{').count(), line.matches('}').count());
        saw_markov_iteration |= line.contains("\"markov.iteration\"");
        saw_bdd_ite |= line.contains("\"bdd.ite\"");
        saw_lifecycle |= line.contains("\"engine.lifecycle\"");
        saw_nested_span |=
            line.contains("\"type\":\"span_start\"") && !line.contains("\"parent\":0");
        saw_duration |= line.contains("\"dur_us\":");
    }
    assert!(saw_markov_iteration, "no markov.iteration events in trace");
    assert!(saw_bdd_ite, "no bdd.ite events in trace");
    assert!(saw_lifecycle, "no engine.lifecycle events in trace");
    assert!(saw_nested_span, "no nested spans in trace");
    assert!(saw_duration, "no span durations in trace");
}

/// Pulls every `"ph":"B"` / `"ph":"E"` event from a Chrome-trace
/// export in document order, returning `(ph, span_id)` pairs.
fn chrome_events(text: &str) -> Vec<(char, u64)> {
    let mut out = Vec::new();
    for chunk in text.split("\"ph\":\"").skip(1) {
        let ph = chunk.chars().next().unwrap();
        let span = chunk
            .split("\"span\":")
            .nth(1)
            .and_then(|rest| {
                rest.chars()
                    .take_while(char::is_ascii_digit)
                    .collect::<String>()
                    .parse()
                    .ok()
            })
            .expect("every trace event carries args.span");
        out.push((ph, span));
    }
    out
}

#[test]
fn profile_flag_writes_balanced_chrome_trace() {
    let dir = std::env::temp_dir().join("reliab-cli-test-profile");
    std::fs::create_dir_all(&dir).unwrap();
    let prof = dir.join("profile.json");

    let out = run(cli()
        .arg("--profile")
        .arg(prof.to_string_lossy().as_ref())
        .arg(spec("tandem_queue.json")));
    assert!(out.status.success(), "stderr: {:?}", out.stderr);

    let text = std::fs::read_to_string(&prof).unwrap();
    let trimmed = text.trim();
    assert!(trimmed.starts_with('{') && trimmed.ends_with('}'));
    assert_eq!(trimmed.matches('{').count(), trimmed.matches('}').count());
    assert_eq!(trimmed.matches('[').count(), trimmed.matches(']').count());
    assert!(trimmed.contains("\"traceEvents\":["));

    // Every B has a matching E for the same span, stack-nested: walk
    // the events as a stack per (implicit single) pid and require each
    // E to close the most recent open B on its thread lane.
    let events = chrome_events(trimmed);
    assert!(!events.is_empty(), "no trace events emitted");
    let mut open: Vec<u64> = Vec::new();
    for (ph, span) in &events {
        match ph {
            'B' => open.push(*span),
            'E' => {
                let top = open.pop().expect("E without a matching open B");
                assert_eq!(top, *span, "E closes a span that is not on top");
            }
            other => panic!("unexpected phase {other}"),
        }
    }
    assert!(open.is_empty(), "unclosed B events: {open:?}");

    // Timestamps are monotone in document order (ties allowed).
    let ts: Vec<u64> = trimmed
        .split("\"ts\":")
        .skip(1)
        .map(|rest| {
            rest.chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .unwrap()
        })
        .collect();
    assert!(ts.windows(2).all(|w| w[0] <= w[1]), "timestamps not sorted");

    // The solve's phases show up by name, stamped with a trace id.
    for needle in ["engine.solve", "spec.solve", "spn.reach", "\"trace\":"] {
        assert!(trimmed.contains(needle), "profile missing {needle}");
    }
}

#[test]
fn record_flag_emits_per_iteration_residuals() {
    let dir = std::env::temp_dir().join("reliab-cli-test-record");
    std::fs::create_dir_all(&dir).unwrap();

    // markov + spn levels from the tandem queue; hier from the SIP
    // model; sim from the lognormal spec forced through --method sim.
    let rec = dir.join("record.jsonl");
    let out = run(cli()
        .arg("--record")
        .arg(rec.to_string_lossy().as_ref())
        .args(["tandem_queue.json", "sip_hierarchy.json"].map(spec)));
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    let text = std::fs::read_to_string(&rec).unwrap();
    for line in text.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "bad line: {line}"
        );
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }
    for series in ["markov.iteration", "hier.iteration", "spn.reach.level"] {
        assert!(
            text.contains(&format!("\"series\":\"{series}\"")),
            "record missing series {series}"
        );
    }
    // Residual series really are per-iteration: the hier solve takes
    // several sweeps, each with its own residual field.
    let hier_records = text
        .lines()
        .filter(|l| l.contains("\"series\":\"hier.iteration\"") && l.contains("\"residual\":"))
        .count();
    assert!(
        hier_records >= 2,
        "expected >= 2 hier iterations, got {hier_records}"
    );
    assert!(text.contains("\"series_meta\""));

    let rec_sim = dir.join("record_sim.jsonl");
    let out = run(cli()
        .arg("--method")
        .arg("sim")
        .arg("--record")
        .arg(rec_sim.to_string_lossy().as_ref())
        .arg(spec("wfs_lognormal.json")));
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    let text = std::fs::read_to_string(&rec_sim).unwrap();
    assert!(
        text.contains("\"series\":\"sim.round\""),
        "no sim.round series"
    );
    assert!(
        text.contains("\"half_width\":"),
        "sim rounds missing CI trajectory"
    );
}

#[test]
fn metrics_flag_dumps_prometheus_and_json() {
    let dir = std::env::temp_dir().join("reliab-cli-test-metrics");
    std::fs::create_dir_all(&dir).unwrap();
    let prom = dir.join("metrics.prom");

    let out = run(cli()
        .arg("--metrics")
        .arg(prom.to_string_lossy().as_ref())
        .args(
            [
                "two_component.json",
                "multiprocessor.json",
                "bridge_network.json",
                "database_node.json",
            ]
            .map(spec),
        ));
    assert!(out.status.success(), "stderr: {:?}", out.stderr);

    let text = std::fs::read_to_string(&prom).unwrap();
    let series: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
    assert!(
        series.len() >= 8,
        "expected >= 8 metric series, got {}: {series:?}",
        series.len()
    );
    for needle in [
        "engine_specs_solved",
        "spec_solves",
        "markov_steady_solves",
        "markov_gth_updates",
        "bdd_ite_lookups",
    ] {
        assert!(text.contains(needle), "metrics dump missing {needle}");
    }

    // JSON format parses shallowly: one object, balanced braces.
    let json_path = dir.join("metrics.json");
    let out = run(cli()
        .arg("--metrics")
        .arg(json_path.to_string_lossy().as_ref())
        .arg("--metrics-format")
        .arg("json")
        .arg(spec("two_component.json")));
    assert!(out.status.success());
    let text = std::fs::read_to_string(&json_path).unwrap();
    let trimmed = text.trim();
    assert!(trimmed.starts_with('{') && trimmed.ends_with('}'));
    assert_eq!(trimmed.matches('{').count(), trimmed.matches('}').count());
    assert!(trimmed.contains("\"counters\""));
}

#[test]
fn progress_flag_reports_each_input() {
    let out = run(cli()
        .arg("--progress")
        .args(["two_component.json", "database_node.json"].map(spec)));
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("[1/2]"), "stderr: {stderr}");
    assert!(stderr.contains("[2/2]"), "stderr: {stderr}");
    assert!(stderr.contains("two_component.json"));
}
