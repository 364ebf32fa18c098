//! Concurrency harness for the `reliab-serve` daemon: every shipped
//! spec is fired at an in-process server from many client threads at
//! once, and each response's measures must be **byte-for-byte**
//! identical to the committed CLI golden snapshot in `tests/golden/`
//! — on the memo-miss path (first solve) and the memo-hit path (every
//! repeat) alike. A separate test locks the CLI's `--connect` client
//! mode to its local-solve output, bytes and exit code both.

use reliab_engine::serve::{http_request, HttpResponse, KeepAliveClient, ServeConfig, Server};
use reliab_spec::json::{self, JsonValue};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;
use std::time::{Duration, Instant};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves")
}

fn boot(mutate: impl FnOnce(&mut ServeConfig)) -> Server {
    let mut config = ServeConfig::default();
    mutate(&mut config);
    Server::bind(config).expect("ephemeral bind succeeds")
}

fn post(addr: &str, path: &str, body: &str) -> HttpResponse {
    http_request(
        addr,
        "POST",
        path,
        &[("Content-Type", "application/json")],
        body,
    )
    .expect("request reaches the daemon")
}

fn get(addr: &str, path: &str) -> HttpResponse {
    http_request(addr, "GET", path, &[], "").expect("request reaches the daemon")
}

/// Waits for the daemon to report an empty queue and no in-flight
/// solves — the "no leaked queue slots" invariant.
fn assert_drains(server: &Server) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let (queued, in_flight) = server.queue_stats();
        if queued == 0 && in_flight == 0 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "queue never drained: {queued} queued, {in_flight} in flight"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Spec names shipped in `specs/`, sorted. The ≥10⁶-marking streaming
/// exemplar is excluded: solving it takes minutes in a debug build and
/// its headline golden is not in the batch snapshot format (it is
/// covered by `bench-stream` and the env-gated golden_cli test).
fn spec_names(root: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(root.join("specs"))
        .expect("specs/ exists")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".json"))
        .map(|n| n.trim_end_matches(".json").to_owned())
        .filter(|n| {
            let text = std::fs::read_to_string(root.join("specs").join(format!("{n}.json")))
                .expect("spec readable");
            !matches!(
                reliab_spec::ModelSpec::from_json_str(&text),
                Ok(reliab_spec::ModelSpec::Spn(s)) if s.max_markings.unwrap_or(0) > 200_000
            )
        })
        .collect();
    names.sort();
    names
}

/// The compact serialization of the measures subtree locked in the
/// golden snapshot for `specs/<name>.json`. The daemon and the CLI
/// share one JSON serializer, so comparing these strings compares the
/// wire bytes.
fn golden_measures(root: &Path, name: &str) -> String {
    let text = std::fs::read_to_string(root.join("tests/golden").join(format!("{name}.json")))
        .unwrap_or_else(|e| panic!("golden snapshot for {name} unreadable: {e}"));
    let doc = json::parse(&text).expect("golden snapshot is JSON");
    let entries = doc.as_array().expect("golden snapshot is an array");
    assert_eq!(entries.len(), 1, "one entry per golden snapshot");
    entries[0]
        .get("measures")
        .expect("golden entry has measures")
        .to_json()
}

fn response_measures(response: &HttpResponse) -> String {
    assert_eq!(
        response.status,
        200,
        "solve failed: {}",
        response.body.trim_end()
    );
    let doc = json::parse(&response.body).expect("response is JSON");
    assert_eq!(
        doc.get("kind").and_then(JsonValue::as_str),
        Some("result"),
        "not a result: {}",
        response.body.trim_end()
    );
    doc.get("measures").expect("result has measures").to_json()
}

/// The tentpole differential: 4 client threads each submit **all**
/// shipped specs twice — once as a library reference and once inline —
/// fully concurrently, against a server with 4 solver workers. Every
/// one of the 160 responses must match its golden snapshot bytes.
/// Round one exercises the memo-miss path; every structurally repeated
/// request (same spec from another thread or round) exercises the
/// shared-cache hit path, which must be indistinguishable on the wire.
#[test]
fn concurrent_solves_match_golden_snapshots_byte_for_byte() {
    let root = repo_root();
    let names = spec_names(&root);
    assert!(names.len() >= 10, "expected the 10 shipped specs");
    let golden: Vec<(String, String, String)> = names
        .iter()
        .map(|name| {
            let text = std::fs::read_to_string(root.join("specs").join(format!("{name}.json")))
                .expect("spec readable");
            (name.clone(), text, golden_measures(&root, name))
        })
        .collect();

    let server = boot(|c| {
        c.workers = 4;
        c.spec_dir = Some(root.join("specs"));
        c.queue_depth = 256;
        // Heavy debug-mode solves time-sharing few cores can exceed any
        // fixed deadline; correctness, not latency, is under test here.
        c.default_deadline_ms = 0;
    });
    let addr = server.local_addr().to_string();

    const CLIENTS: usize = 4;
    let traces: Mutex<Vec<String>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let addr = &addr;
            let golden = &golden;
            let traces = &traces;
            scope.spawn(move || {
                for round in 0..2 {
                    // Stagger per-client to vary the interleaving.
                    for (name, text, expected) in
                        golden.iter().cycle().skip(client).take(golden.len())
                    {
                        let body = if round == 0 {
                            format!("{{\"kind\":\"solve\",\"spec\":\"{name}\"}}")
                        } else {
                            text.clone()
                        };
                        let response = post(addr, "/solve", &body);
                        let measures = response_measures(&response);
                        assert_eq!(
                            &measures, expected,
                            "{name} (round {round}, client {client}) diverged from golden bytes"
                        );
                        let trace = response
                            .header("x-trace-id")
                            .expect("solve responses carry a trace id")
                            .to_owned();
                        traces.lock().unwrap().push(trace);
                    }
                }
            });
        }
    });

    let traces = traces.into_inner().unwrap();
    assert_eq!(traces.len(), CLIENTS * 2 * golden.len());
    let distinct: BTreeSet<&String> = traces.iter().collect();
    assert_eq!(
        distinct.len(),
        traces.len(),
        "every request gets its own trace id"
    );

    assert_drains(&server);
    let health = get(&addr, "/healthz");
    let doc = json::parse(&health.body).unwrap();
    assert_eq!(doc.get("status").and_then(JsonValue::as_str), Some("ok"));
    assert_eq!(doc.get("shed").and_then(JsonValue::as_f64), Some(0.0));
    server.shutdown();
}

/// One socket, the whole spec library, twice: an HTTP/1.1 keep-alive
/// connection drives every shipped spec through `/solve` sequentially
/// (round one memo-miss, round two memo-hit) without reconnecting, and
/// each response must match the golden snapshot bytes just as the
/// one-shot path does. A final `Connection: close` request must be
/// honored — the response says close and the socket then yields EOF.
#[test]
fn keep_alive_connection_serves_sequential_solves() {
    let root = repo_root();
    let names = spec_names(&root);
    let server = boot(|c| {
        c.workers = 2;
        c.spec_dir = Some(root.join("specs"));
        c.default_deadline_ms = 0;
    });
    let addr = server.local_addr().to_string();

    let mut client = KeepAliveClient::connect(&addr).expect("daemon accepts the connection");
    let mut served = 0u64;
    for round in 0..2 {
        for name in &names {
            let body = format!("{{\"kind\":\"solve\",\"spec\":\"{name}\"}}");
            let response = client
                .request(
                    "POST",
                    "/solve",
                    &[("Content-Type", "application/json")],
                    &body,
                )
                .unwrap_or_else(|e| panic!("{name} (round {round}): keep-alive request: {e}"));
            assert_eq!(
                response.header("connection"),
                Some("keep-alive"),
                "{name}: daemon must hold the connection open"
            );
            assert_eq!(
                response_measures(&response),
                golden_measures(&root, name),
                "{name} (round {round}) diverged from golden bytes over keep-alive"
            );
            served += 1;
        }
    }

    // Non-solve routes ride the same socket; the request counter proves
    // every solve above arrived through it.
    let health = client.request("GET", "/healthz", &[], "").expect("health");
    assert_eq!(health.status, 200);
    let doc = json::parse(&health.body).unwrap();
    assert!(
        doc.get("requests")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
            >= served as f64,
        "daemon lost track of keep-alive solves"
    );

    let last = client
        .request(
            "POST",
            "/solve",
            &[
                ("Content-Type", "application/json"),
                ("Connection", "close"),
            ],
            &format!("{{\"kind\":\"solve\",\"spec\":\"{}\"}}", names[0]),
        )
        .expect("final request");
    assert_eq!(last.status, 200);
    assert_eq!(
        last.header("connection"),
        Some("close"),
        "Connection: close must be honored"
    );
    assert!(
        client.request("GET", "/healthz", &[], "").is_err(),
        "daemon must close the socket after Connection: close"
    );

    assert_drains(&server);
    server.shutdown();
}

/// Keep-alive round trips carry no transport stall. When a request or
/// a response was sent in two writes, each memo-hit round trip waited
/// about 44 ms for a delayed ACK; sent in one write on `TCP_NODELAY`
/// sockets, it costs well under a millisecond. The 10-ms bound sits
/// far from both, so scheduling noise cannot flip it.
#[test]
fn keep_alive_memo_hits_do_not_stall() {
    let root = repo_root();
    let server = boot(|c| {
        c.workers = 1;
        c.spec_dir = Some(root.join("specs"));
        c.default_deadline_ms = 0;
    });
    let addr = server.local_addr().to_string();
    let body = "{\"kind\":\"solve\",\"spec\":\"two_component\"}";
    let mut client = KeepAliveClient::connect(&addr).expect("daemon accepts the connection");
    let mut solve = || {
        let response = client
            .request(
                "POST",
                "/solve",
                &[("Content-Type", "application/json")],
                body,
            )
            .expect("keep-alive request");
        assert_eq!(response.status, 200, "{}", response.body.trim_end());
        response.body
    };
    let first = solve(); // the miss that fills the memo

    let mut round_trips: Vec<Duration> = (0..100)
        .map(|_| {
            let t0 = Instant::now();
            assert_eq!(solve(), first, "a memo hit changed the response");
            t0.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median keep-alive memo-hit round trip {median:?}"
    );

    assert_drains(&server);
    server.shutdown();
}

/// The CLI's `--connect` client mode is output- and exit-code-parity
/// locked against local solving: the whole shipped batch and an
/// unreadable-input error case produce identical stdout bytes.
#[test]
fn cli_connect_mode_matches_local_cli_byte_for_byte() {
    let root = repo_root();
    let server = boot(|c| {
        c.workers = 2;
        c.default_deadline_ms = 0;
    });
    let addr = server.local_addr().to_string();

    let run = |extra: &[&str], inputs: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_reliab-cli"))
            .current_dir(&root)
            .args(extra)
            .arg("--json")
            .args(inputs)
            .output()
            .expect("reliab-cli launches");
        (
            out.status.code().expect("exit code"),
            String::from_utf8(out.stdout).expect("utf-8 stdout"),
        )
    };

    let inputs: Vec<String> = spec_names(&root)
        .iter()
        .map(|n| format!("specs/{n}.json"))
        .collect();
    let input_refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
    let (local_code, local_out) = run(&[], &input_refs);
    let (remote_code, remote_out) = run(&["--connect", &addr], &input_refs);
    assert_eq!(local_code, 0);
    assert_eq!(remote_code, 0);
    assert_eq!(
        local_out, remote_out,
        "--connect output differs from local solving"
    );

    // Error parity: a malformed document fails with the same structured
    // error JSON and the same exit code through both front ends.
    let bad_path = std::env::temp_dir().join(format!(
        "reliab-serve-test-bad-input-{}.json",
        std::process::id()
    ));
    std::fs::write(&bad_path, "this is not a model\n").unwrap();
    let bad = bad_path.to_string_lossy().into_owned();
    let (local_code, local_out) = run(&[], &[&bad]);
    let (remote_code, remote_out) = run(&["--connect", &addr], &[&bad]);
    std::fs::remove_file(&bad_path).unwrap();
    assert_eq!(local_code, 1);
    assert_eq!(remote_code, local_code, "exit-code parity broke");
    assert_eq!(local_out, remote_out, "error-document parity broke");
    assert!(local_out.contains("\"invalid_parameter\""));

    assert_drains(&server);
    server.shutdown();
}

/// Library solves (`{"spec": name}`) and inline solves of the same
/// document are the same solve: identical measures, and the library
/// response is additionally stamped with the spec name.
#[test]
fn library_and_inline_solves_agree() {
    let root = repo_root();
    let server = boot(|c| {
        c.workers = 1;
        c.spec_dir = Some(root.join("specs"));
        c.default_deadline_ms = 0;
    });
    let addr = server.local_addr().to_string();

    let text = std::fs::read_to_string(root.join("specs/database_node.json")).unwrap();
    let by_name = post(
        &addr,
        "/solve",
        "{\"kind\":\"solve\",\"spec\":\"database_node\"}",
    );
    let inline = post(&addr, "/solve", &text);
    assert_eq!(response_measures(&by_name), response_measures(&inline));
    let doc = json::parse(&by_name.body).unwrap();
    assert_eq!(
        doc.get("spec").and_then(JsonValue::as_str),
        Some("database_node")
    );

    // Stats ride along only when asked for.
    let with_stats = post(
        &addr,
        "/solve",
        "{\"kind\":\"solve\",\"spec\":\"database_node\",\"stats\":true}",
    );
    let doc = json::parse(&with_stats.body).unwrap();
    assert!(doc.get("stats").is_some(), "stats requested but absent");
    assert!(json::parse(&inline.body).unwrap().get("stats").is_none());

    assert_drains(&server);
    server.shutdown();
}

/// `/batch` solves a JSONL body line-by-line, in order, sharing one
/// admission slot; results match per-line `/solve` answers.
#[test]
fn jsonl_batch_matches_individual_solves() {
    let root = repo_root();
    let server = boot(|c| {
        c.workers = 1;
        c.default_deadline_ms = 0;
    });
    let addr = server.local_addr().to_string();

    let a = std::fs::read_to_string(root.join("specs/database_node.json")).unwrap();
    let b = std::fs::read_to_string(root.join("specs/bridge_network.json")).unwrap();
    let a = json::parse(&a).unwrap().to_json();
    let b = json::parse(&b).unwrap().to_json();
    let batch = post(&addr, "/batch", &format!("{a}\n{b}\nnot a document\n"));
    assert_eq!(batch.status, 200);
    let lines: Vec<&str> = batch.body.lines().collect();
    assert_eq!(lines.len(), 3, "one response line per input line");
    assert_eq!(
        json::parse(lines[0])
            .unwrap()
            .get("measures")
            .unwrap()
            .to_json(),
        response_measures(&post(&addr, "/solve", &a))
    );
    assert_eq!(
        json::parse(lines[1])
            .unwrap()
            .get("measures")
            .unwrap()
            .to_json(),
        response_measures(&post(&addr, "/solve", &b))
    );
    let err = json::parse(lines[2]).unwrap();
    assert_eq!(err.get("kind").and_then(JsonValue::as_str), Some("error"));

    assert_drains(&server);
    server.shutdown();
}

/// `/specs` lists the library with model kinds; `/specs/<name>` serves
/// the exact document text; unknown names are structured 404s.
#[test]
fn spec_library_endpoints() {
    let root = repo_root();
    let server = boot(|c| {
        c.workers = 1;
        c.spec_dir = Some(root.join("specs"));
    });
    let addr = server.local_addr().to_string();

    let listing = get(&addr, "/specs");
    assert_eq!(listing.status, 200);
    let doc = json::parse(&listing.body).unwrap();
    let entries = doc.get("specs").and_then(JsonValue::as_array).unwrap();
    assert!(entries.len() >= 10);
    assert!(entries.iter().any(|e| {
        e.get("name").and_then(JsonValue::as_str) == Some("two_component")
            && e.get("kind").and_then(JsonValue::as_str) == Some("ctmc")
    }));

    let fetched = get(&addr, "/specs/two_component");
    assert_eq!(fetched.status, 200);
    assert_eq!(
        fetched.body,
        std::fs::read_to_string(root.join("specs/two_component.json")).unwrap()
    );

    let missing = get(&addr, "/specs/no_such_model");
    assert_eq!(missing.status, 404);
    let doc = json::parse(&missing.body).unwrap();
    assert_eq!(
        doc.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(JsonValue::as_str),
        Some("not_found")
    );

    server.shutdown();
}

/// `/healthz` and `/metrics` respond in both exposition formats, and
/// unknown routes / wrong methods get structured errors.
#[test]
fn observability_and_routing_surface() {
    let server = boot(|c| c.workers = 1);
    let addr = server.local_addr().to_string();

    let health = get(&addr, "/healthz");
    assert_eq!(health.status, 200);
    let doc = json::parse(&health.body).unwrap();
    for field in ["status", "uptime_ms", "queue_depth", "in_flight", "workers"] {
        assert!(doc.get(field).is_some(), "healthz lacks {field}");
    }

    // Generate at least one request metric, then scrape both formats.
    let _ = post(&addr, "/solve", "{\"kind\":\"solve\",\"spec\":\"nope\"}");
    let prom = get(&addr, "/metrics");
    assert_eq!(prom.status, 200);
    assert!(prom
        .header("content-type")
        .is_some_and(|ct| ct.starts_with("text/plain")));
    assert!(prom.body.contains("serve_http_requests"));
    let as_json = get(&addr, "/metrics?format=json");
    assert_eq!(as_json.status, 200);
    assert!(json::parse(&as_json.body).is_ok(), "JSON exposition parses");
    let bogus = get(&addr, "/metrics?format=xml");
    assert_eq!(bogus.status, 400);

    let missing = get(&addr, "/no/such/route");
    assert_eq!(missing.status, 404);
    let wrong_method = get(&addr, "/solve");
    assert_eq!(wrong_method.status, 400);

    server.shutdown();
}

/// Draining: after `/shutdown` the daemon refuses new work with 503
/// `shutting_down` but still answers health checks as `draining`.
#[test]
fn shutdown_drains_and_sheds_new_work() {
    let root = repo_root();
    let server = boot(|c| {
        c.workers = 1;
        c.spec_dir = Some(root.join("specs"));
    });
    let addr = server.local_addr().to_string();

    assert_eq!(
        post(
            &addr,
            "/solve",
            "{\"kind\":\"solve\",\"spec\":\"two_component\"}"
        )
        .status,
        200
    );
    let draining = post(&addr, "/shutdown", "");
    assert_eq!(draining.status, 200);
    let refused = post(
        &addr,
        "/solve",
        "{\"kind\":\"solve\",\"spec\":\"two_component\"}",
    );
    assert_eq!(refused.status, 503);
    let doc = json::parse(&refused.body).unwrap();
    assert_eq!(
        doc.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(JsonValue::as_str),
        Some("shutting_down")
    );
    let health = get(&addr, "/healthz");
    assert_eq!(
        json::parse(&health.body)
            .unwrap()
            .get("status")
            .and_then(JsonValue::as_str),
        Some("draining")
    );
    server.shutdown();
}
