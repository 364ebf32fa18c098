//! Golden snapshot tests: `reliab-cli --json` output for every shipped
//! spec in `specs/` is locked against the files in `tests/golden/` at
//! the repository root.
//!
//! When a change legitimately alters solver output (new measures, a
//! numeric method change), regenerate the snapshots and review the
//! diff like any other code change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p reliab-engine --test golden_cli
//! git diff tests/golden/
//! ```
//!
//! The CLI runs with the repository root as its working directory and
//! is handed the relative `specs/<name>.json` path, so the `"file"`
//! field in the locked output is machine-independent. `--stats` is
//! deliberately not used: it reports wall-clock times.

use std::path::{Path, PathBuf};
use std::process::Command;

use reliab_spec::json::JsonValue;
use reliab_spec::{json, ModelSpec};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves")
}

/// Size cap for the per-test spec sweeps: specs whose declared marking
/// cap exceeds this (the ≥10⁶-marking streaming exemplar) take minutes
/// in a debug build, so they are covered by `bench-stream` and the
/// env-gated [`large_spec_headline_golden`] instead.
const SWEEP_MAX_MARKINGS: usize = 200_000;

fn is_large_spec(text: &str) -> bool {
    matches!(
        ModelSpec::from_json_str(text),
        Ok(ModelSpec::Spn(s)) if s.max_markings.unwrap_or(0) > SWEEP_MAX_MARKINGS
    )
}

#[test]
fn cli_json_output_matches_golden_snapshots() {
    let root = repo_root();
    let golden_dir = root.join("tests/golden");
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    if update {
        std::fs::create_dir_all(&golden_dir).unwrap();
    }

    let mut spec_names: Vec<String> = std::fs::read_dir(root.join("specs"))
        .expect("specs/ exists")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".json"))
        .collect();
    spec_names.sort();
    assert!(!spec_names.is_empty(), "specs/ is empty");

    let mut failures = Vec::new();
    for name in &spec_names {
        let text = std::fs::read_to_string(root.join("specs").join(name)).unwrap();
        if is_large_spec(&text) {
            continue;
        }
        let out = Command::new(env!("CARGO_BIN_EXE_reliab-cli"))
            .current_dir(&root)
            .arg("--json")
            .arg(format!("specs/{name}"))
            .output()
            .expect("failed to launch reliab-cli");
        assert!(
            out.status.success(),
            "specs/{name} failed to solve: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let actual = String::from_utf8(out.stdout).expect("utf-8 output");
        assert!(
            !actual.contains("\"error\""),
            "specs/{name} produced an error record:\n{actual}"
        );

        let golden_path = golden_dir.join(name);
        if update {
            std::fs::write(&golden_path, &actual).unwrap();
            continue;
        }
        match std::fs::read_to_string(&golden_path) {
            Ok(expected) if expected == actual => {}
            Ok(expected) => failures.push(format!(
                "specs/{name}: output differs from tests/golden/{name}\n\
                 --- expected ---\n{expected}\n--- actual ---\n{actual}"
            )),
            Err(_) => failures.push(format!(
                "specs/{name}: no golden snapshot at tests/golden/{name} \
                 (run with UPDATE_GOLDEN=1 to create it)"
            )),
        }
    }

    assert!(
        failures.is_empty(),
        "{} golden mismatch(es); regenerate with \
         `UPDATE_GOLDEN=1 cargo test -p reliab-engine --test golden_cli` \
         and review the diff\n\n{}",
        failures.len(),
        failures.join("\n\n")
    );
}

/// Pulls the SPN measures block out of a `--json` batch record.
fn spn_measures(text: &str, what: &str) -> JsonValue {
    let batch = json::parse(text).unwrap_or_else(|e| panic!("{what}: bad JSON: {e}"));
    let JsonValue::Array(records) = &batch else {
        panic!("{what}: expected a batch array");
    };
    records[0]
        .get("measures")
        .and_then(|m| m.get("spn"))
        .unwrap_or_else(|| panic!("{what}: no spn measures in {text}"))
        .clone()
}

/// Walks the `[[name, value], ...]` measure pairs of one family.
fn measure_pairs(measures: &JsonValue, family: &str) -> Vec<(String, f64)> {
    let Some(JsonValue::Array(pairs)) = measures.get(family) else {
        panic!("missing measure family '{family}'");
    };
    pairs
        .iter()
        .map(|p| {
            let JsonValue::Array(kv) = p else {
                panic!("measure pair is not an array");
            };
            (
                kv[0].as_str().expect("measure name").to_owned(),
                kv[1].as_f64().expect("measure value"),
            )
        })
        .collect()
}

/// Every SPN spec solved under a memory budget prints its golden byte
/// for byte. At 1 GiB the walk keeps its rows within the budget. A net
/// SOR solves is solved again under a budget that holds its marking
/// space, SOR's vectors and every column slice but not its rows as
/// well, so the solve regenerates them from the marking arena, as the
/// metrics confirm.
#[test]
fn stream_tier_matches_golden_spn_measures() {
    let root = repo_root();
    let (mut checked, mut regenerated) = (0, 0);
    for entry in std::fs::read_dir(root.join("specs")).expect("specs/ exists") {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        if !name.ends_with(".json") {
            continue;
        }
        let text = std::fs::read_to_string(root.join("specs").join(&name)).unwrap();
        if is_large_spec(&text) || !matches!(ModelSpec::from_json_str(&text), Ok(ModelSpec::Spn(_)))
        {
            continue;
        }
        let golden_path = root.join("tests/golden").join(&name);
        let Ok(golden_text) = std::fs::read_to_string(&golden_path) else {
            continue; // snapshot not created yet; the byte-lock test reports it
        };
        let run = |args: &[&str]| -> String {
            let out = Command::new(env!("CARGO_BIN_EXE_reliab-cli"))
                .current_dir(&root)
                .args(args)
                .arg(format!("specs/{name}"))
                .output()
                .expect("failed to launch reliab-cli");
            assert!(
                out.status.success(),
                "specs/{name} {args:?} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            String::from_utf8(out.stdout).unwrap()
        };
        let mut budgets = vec!["1G".to_owned()];
        // At 1 GiB every row is kept and every column slice cached: the
        // plan's peak less the kept rows (8 bytes a row, 12 an arc) is
        // the marking space, SOR's vectors and the slices.
        let batch = json::parse(&run(&["--json", "--stats", "--mem-budget", "1G"])).unwrap();
        let JsonValue::Array(records) = &batch else {
            panic!("{name}: expected a batch array");
        };
        let stats = records[0].get("stats").expect("stats");
        let stat = |key: &str| stats.get(key).and_then(JsonValue::as_f64).unwrap() as usize;
        if stats.get("method").and_then(JsonValue::as_str) == Some("stream-sor") {
            let rows = 8 * stat("spn_markings") + 12 * stat("spn_arcs");
            budgets.push((stat("stream_peak_bytes") - rows).to_string());
        }
        for budget in budgets {
            let metrics = std::env::temp_dir().join(format!(
                "golden-spn-{}-{budget}-{name}.prom",
                std::process::id()
            ));
            let actual = run(&[
                "--json",
                "--mem-budget",
                &budget,
                "--metrics",
                metrics.to_str().unwrap(),
            ]);
            assert_eq!(
                spn_measures(&actual, &name).to_json(),
                spn_measures(&golden_text, &name).to_json(),
                "{name}: measures under budget {budget} differ from the golden"
            );
            assert_eq!(actual, golden_text, "{name}: budget {budget}");
            let prom = std::fs::read_to_string(&metrics).unwrap();
            std::fs::remove_file(&metrics).unwrap();
            let rows = prom
                .lines()
                .find_map(|l| l.strip_prefix("spn_rows_regenerated "))
                .map_or(0, |v| v.parse::<u64>().unwrap());
            if budget == "1G" {
                assert_eq!(rows, 0, "{name}: rows that fit 1 GiB are kept");
            } else {
                assert!(rows > 0, "{name}: the rows fit budget {budget}");
                regenerated += 1;
            }
        }
        checked += 1;
    }
    assert!(checked >= 3, "only {checked} SPN specs swept");
    assert!(
        regenerated >= 1,
        "no SPN spec was solved over regenerated rows"
    );
}

/// Headline golden for the ≥10⁶-marking streaming exemplar
/// (`specs/tandem_large.json`). The full solve takes minutes, so this
/// only runs when `RUN_LARGE_GOLDEN=1` (release builds recommended);
/// regenerate with `UPDATE_GOLDEN=1 RUN_LARGE_GOLDEN=1`. The committed
/// snapshot holds headline measures only — marking count and the two
/// requested steady-state measures — compared at 1e-6 relative, not
/// byte-locked, so tolerance-level drift in a 10⁶-state iteration does
/// not churn the file.
#[test]
fn large_spec_headline_golden() {
    if std::env::var_os("RUN_LARGE_GOLDEN").is_none() {
        eprintln!("skipped: set RUN_LARGE_GOLDEN=1 to solve specs/tandem_large.json");
        return;
    }
    let root = repo_root();
    let out = Command::new(env!("CARGO_BIN_EXE_reliab-cli"))
        .current_dir(&root)
        .arg("--json")
        .arg("specs/tandem_large.json")
        .output()
        .expect("failed to launch reliab-cli");
    assert!(
        out.status.success(),
        "tandem_large failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let measures = spn_measures(&String::from_utf8(out.stdout).unwrap(), "tandem_large");
    let golden_path = root.join("tests/golden/tandem_large.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, format!("{}\n", measures.to_json_pretty())).unwrap();
        return;
    }
    let golden = json::parse(&std::fs::read_to_string(&golden_path).expect("golden exists"))
        .expect("golden parses");
    assert_eq!(
        measures.get("num_markings").and_then(JsonValue::as_f64),
        golden.get("num_markings").and_then(JsonValue::as_f64),
        "marking count"
    );
    for family in ["expected_tokens", "throughput"] {
        for ((an, av), (gn, gv)) in measure_pairs(&measures, family)
            .iter()
            .zip(&measure_pairs(&golden, family))
        {
            assert_eq!(an, gn, "{family} order");
            assert!(
                (av - gv).abs() <= 1e-6 * gv.abs().max(1.0),
                "{family} '{an}': {av} vs golden {gv}"
            );
        }
    }
}

/// Every golden snapshot corresponds to a shipped spec — catches
/// stale snapshots left behind by a renamed or deleted spec.
#[test]
fn no_orphaned_golden_snapshots() {
    let root = repo_root();
    let golden_dir = root.join("tests/golden");
    let Ok(entries) = std::fs::read_dir(&golden_dir) else {
        return; // no snapshots yet
    };
    for entry in entries {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(
            root.join("specs").join(&name).exists(),
            "tests/golden/{name} has no matching specs/{name}; delete the stale snapshot"
        );
    }
}
