//! serve_keepalive: `reliab-serve --workers 2` driven over TCP by two
//! client threads, each on one HTTP/1.1 keep-alive connection.
//!
//! The client behaves like an ordinary HTTP/1.1 client: each request
//! goes out in one write on a `TCP_NODELAY` socket, and ACKs are left
//! to the kernel's defaults. Every response body must equal, byte for
//! byte, the `wire::result_response` of the same document solved in
//! this process.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use reliab_engine::BatchEngine;
use reliab_obs as obs;
use reliab_spec::json::{self, JsonValue};
use reliab_spec::wire::result_response;

use crate::check;
use crate::gen::{self, Doc};
use crate::library::{layered_op, OpCounts};
use crate::report::{self, latency_metrics, median, metric, Outcome};
use crate::trace::{layer_metrics, trace_path, ServeSplit, Tracer};
use crate::Args;

/// Daemon start-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Client threads, one keep-alive connection each; also the daemon's
/// solver worker count.
const CLIENTS: usize = 2;

/// A `reliab-serve` child process; killed if dropped while running.
struct Daemon {
    child: Child,
    addr: String,
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(bin: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", &CLIENTS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("{}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            _stdout: stdout,
        };
        read.map_err(|e| format!("daemon stdout: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("listening on http://")
            .ok_or_else(|| format!("daemon did not report its address: {line:?}"))?
            .to_owned();
        Ok(daemon)
    }

    /// Asks the daemon to drain and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        request_once(&self.addr, "POST", "/shutdown")?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err("daemon did not exit after /shutdown".to_owned()),
                Err(e) => return Err(format!("waiting for the daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

struct Response {
    status: u16,
    body: Vec<u8>,
}

/// One HTTP/1.1 client connection.
struct Conn {
    addr: String,
    stream: Option<TcpStream>,
    /// Bytes read past the previous response.
    pending: Vec<u8>,
}

impl Conn {
    fn connect(addr: &str) -> std::io::Result<Conn> {
        let mut conn = Conn {
            addr: addr.to_owned(),
            stream: None,
            pending: Vec::new(),
        };
        conn.reopen()?;
        Ok(conn)
    }

    fn reopen(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        self.stream = Some(stream);
        self.pending.clear();
        Ok(())
    }

    /// Sends one request in a single write and reads the whole
    /// response. A connection the server closed (or that failed) is
    /// reopened before the next request, as any HTTP/1.1 client does.
    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        close: bool,
    ) -> std::io::Result<Response> {
        if self.stream.is_none() {
            self.reopen()?;
        }
        let result = self.exchange(method, path, body, close);
        if !matches!(result, Ok((_, true))) {
            self.stream = None;
        }
        result.map(|(response, _)| response)
    }

    /// Returns the response and whether the connection stays open.
    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        close: bool,
    ) -> std::io::Result<(Response, bool)> {
        let stream = self.stream.as_mut().expect("connection is open");
        let mut message = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{}\r\n",
            self.addr,
            body.len(),
            if close { "Connection: close\r\n" } else { "" }
        )
        .into_bytes();
        message.extend_from_slice(body);
        stream.write_all(&message)?;

        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(end) = self.pending.windows(4).position(|w| w == b"\r\n\r\n") {
                break end;
            }
            match stream.read(&mut chunk)? {
                0 => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                n => self.pending.extend_from_slice(&chunk[..n]),
            }
        };
        let head = String::from_utf8_lossy(&self.pending[..head_end]).into_owned();
        let invalid =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned());
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| invalid("malformed status line"))?;
        let mut length = None;
        let mut keep_open = true;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                keep_open = !value.eq_ignore_ascii_case("close");
            }
        }
        let length = length.ok_or_else(|| invalid("response has no Content-Length"))?;
        let end = head_end + 4 + length;
        while self.pending.len() < end {
            match stream.read(&mut chunk)? {
                0 => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                n => self.pending.extend_from_slice(&chunk[..n]),
            }
        }
        let body = self.pending[head_end + 4..end].to_vec();
        self.pending.drain(..end);
        Ok((Response { status, body }, keep_open && !close))
    }
}

/// One request on its own connection.
fn request_once(addr: &str, method: &str, path: &str) -> Result<Response, String> {
    Conn::connect(addr)
        .and_then(|mut c| c.request(method, path, b"", true))
        .map_err(|e| format!("{method} {path}: {e}"))
}

/// The response the daemon must send for `doc`, and the model solves
/// behind it.
fn expected_response(engine: &BatchEngine, doc: &Doc) -> Result<(Vec<u8>, u64), String> {
    let report = engine
        .solve_texts(&[doc.text.as_str()])
        .pop()
        .expect("one report per document")
        .map_err(|e| e.to_string())?;
    check::probabilities_in_range(&report.measures)?;
    let mut text = result_response(None, report.measures.to_json(), None).to_json();
    text.push('\n');
    Ok((text.into_bytes(), check::inner_solves(doc, &report)))
}

/// A request as sent and answered.
struct Sent {
    client: u64,
    j: u64,
    latency_s: f64,
    response: Result<Response, String>,
}

fn op_id(client: u64, j: u64) -> u64 {
    1 + j * CLIENTS as u64 + client
}

/// Closed loop on one connection until `deadline`.
fn client_loop(
    conn: &mut Conn,
    seed: u64,
    client: u64,
    first: u64,
    deadline: Instant,
) -> (Vec<Sent>, Instant) {
    let mut sent = Vec::new();
    let mut j = first;
    while Instant::now() < deadline {
        let (doc, _) = gen::serve_request(seed, client, j);
        let _trace = obs::set_trace_id(op_id(client, j));
        let t0 = Instant::now();
        let span = obs::span("serve.request");
        let response = conn.request("POST", "/solve", doc.text.as_bytes(), false);
        drop(span);
        sent.push(Sent {
            client,
            j,
            latency_s: t0.elapsed().as_secs_f64(),
            response: response.map_err(|e| e.to_string()),
        });
        j += 1;
    }
    (sent, Instant::now())
}

struct Window {
    sent: Vec<Sent>,
    wall_s: f64,
    next: [u64; CLIENTS],
}

impl Window {
    fn ops_per_s(&self) -> f64 {
        self.sent.len() as f64 / self.wall_s
    }
}

fn window(conns: &mut [Conn], seed: u64, first: [u64; CLIENTS], seconds: f64) -> Window {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_client: Vec<(Vec<Sent>, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(first)
            .enumerate()
            .map(|(c, (conn, j0))| s.spawn(move || client_loop(conn, seed, c as u64, j0, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let end = per_client
        .iter()
        .map(|(_, end)| *end)
        .max()
        .unwrap_or(start);
    let mut next = first;
    let mut sent = Vec::new();
    for (c, (client_sent, _)) in per_client.into_iter().enumerate() {
        next[c] += client_sent.len() as u64;
        sent.extend(client_sent);
    }
    Window {
        sent,
        wall_s: (end - start).as_secs_f64(),
        next,
    }
}

/// Documents that fill a memo cache to capacity, the pool last so that
/// it is the most recently used.
fn cache_fill(seed: u64, pool: &Pool) -> Vec<String> {
    let fillers = reliab_engine::DEFAULT_CACHE_CAPACITY as u64 - gen::SERVE_POOL;
    (0..fillers)
        .map(|k| gen::serve_filler_doc(seed, k).text)
        .chain(pool.docs.iter().map(|d| d.text.clone()))
        .collect()
}

/// Expected answers for the pool documents.
struct Pool {
    docs: Vec<Doc>,
    expected: Vec<Vec<u8>>,
}

/// Checks every response against the in-process solve; returns failed
/// ops and the model solves of the answered ones (memo hits on pool
/// documents count none).
fn verify(w: &Window, seed: u64, pool: &Pool, engine: &BatchEngine) -> (u64, u64) {
    let mut failed = 0;
    let mut inner = 0;
    for s in &w.sent {
        let (doc, pooled) = gen::serve_request(seed, s.client, s.j);
        let checked = match pooled {
            Some(p) => Ok((pool.expected[p as usize].clone(), 0)),
            None => expected_response(engine, &doc).map_err(|e| format!("in-process solve: {e}")),
        }
        .and_then(|(body, solves)| match &s.response {
            Err(e) => Err(e.clone()),
            Ok(r) if r.status != 200 => Err(format!("status {}", r.status)),
            Ok(r) if r.body != body => Err("body differs from the in-process solve".to_owned()),
            Ok(_) => Ok(solves),
        });
        match checked {
            Ok(solves) => inner += solves,
            Err(problem) => {
                failed += 1;
                eprintln!(
                    "perfbench: client {} request {} failed: {problem}",
                    s.client, s.j
                );
            }
        }
    }
    (failed, inner)
}

/// The counters and histogram sums `/metrics?format=json` reports.
struct ServerMetrics {
    memo_hits: f64,
    memo_misses: f64,
    queue_wait: (f64, f64),
    solve: (f64, f64),
}

fn server_metrics(addr: &str) -> Result<ServerMetrics, String> {
    let response = request_once(addr, "GET", "/metrics?format=json")?;
    let doc = json::parse(&String::from_utf8_lossy(&response.body))
        .map_err(|e| format!("/metrics: {e}"))?;
    let counter = |name: &str| {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    };
    let histogram = |name: &str| {
        let h = doc.get("histograms").and_then(|h| h.get(name));
        let field = |k: &str| {
            h.and_then(|h| h.get(k))
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0)
        };
        (field("sum"), field("count"))
    };
    Ok(ServerMetrics {
        memo_hits: counter("engine.memo.hits"),
        memo_misses: counter("engine.memo.misses"),
        queue_wait: histogram("serve.queue_wait_ms"),
        solve: histogram("serve.solve_ms"),
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let bin = args
        .serve_bin
        .as_deref()
        .ok_or("--serve-bin is required for serve_keepalive")?;
    let solver = BatchEngine::new().with_jobs(1).with_memoization(false);
    let docs: Vec<Doc> = (0..gen::SERVE_POOL)
        .map(|p| gen::serve_pool_doc(args.seed, p))
        .collect();
    let expected = docs
        .iter()
        .map(|d| expected_response(&solver, d).map(|(body, _)| body))
        .collect::<Result<_, _>>()?;
    let pool = Pool { docs, expected };

    // Set-up: spawn to the first 200 from /healthz with both connections
    // open, several times; the last daemon serves the run.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut running: Option<(Daemon, Vec<Conn>)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((daemon, conns)) = running.take() {
            drop(conns);
            daemon.stop()?;
        }
        let t0 = Instant::now();
        let daemon = Daemon::spawn(bin)?;
        let mut conns = (0..CLIENTS)
            .map(|_| Conn::connect(&daemon.addr))
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(|e| format!("connect: {e}"))?;
        let health = conns[0]
            .request("GET", "/healthz", b"", false)
            .map_err(|e| format!("/healthz: {e}"))?;
        if health.status != 200 {
            return Err(format!("/healthz answered {}", health.status));
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        running = Some((daemon, conns));
    }
    let (daemon, mut conns) = running.expect("at least one set-up");

    // Fill the daemon's memo cache, pool last, with one batch.
    let cache_fill = cache_fill(args.seed, &pool);
    let batch: String = cache_fill.iter().map(|d| format!("{d}\n")).collect();
    let warm = Conn::connect(&daemon.addr)
        .and_then(|mut c| c.request("POST", "/batch", batch.as_bytes(), true))
        .map_err(|e| format!("/batch: {e}"))?;
    if warm.status != 200 {
        return Err(format!("pool /batch answered {}", warm.status));
    }

    let first = [0; CLIENTS];
    let (measured, traced) = if args.trace {
        let untraced = window(&mut conns, args.seed, first, args.seconds / 2.0);
        // The traced requests are replayed in this process, split at
        // the public calls, on an engine whose memo holds the pool.
        let replay = BatchEngine::new().with_jobs(1);
        replay.solve_texts(&cache_fill);
        let before = server_metrics(&daemon.addr)?;
        let tracer = Tracer::new();
        let traced =
            tracer.record(|| window(&mut conns, args.seed, untraced.next, args.seconds / 2.0));
        let after = server_metrics(&daemon.addr)?;
        let mut counts = OpCounts::default();
        for (n, s) in traced.sent.iter().enumerate() {
            let (doc, _) = gen::serve_request(args.seed, s.client, s.j);
            counts.add(&tracer.record(|| layered_op(&replay, &[doc], 1 << 40 | n as u64)));
        }
        let trace = tracer.finish()?;
        (untraced, Some((traced, before, after, counts, trace)))
    } else {
        (window(&mut conns, args.seed, first, args.seconds), None)
    };
    let peak_rss_mb = report::peak_rss_mb(Some(daemon.child.id()))?;
    drop(conns);
    daemon.stop()?;

    let (failed, inner) = verify(&measured, args.seed, &pool, &solver);
    let mut outcome = Outcome {
        describe: describe(),
        attempted: measured.sent.len() as u64,
        failed,
        checks_passed: true,
        metrics: Vec::new(),
    };
    match traced {
        None => {
            let latencies: Vec<f64> = measured.sent.iter().map(|s| s.latency_s).collect();
            let [p50, p90] = latency_metrics(&latencies);
            outcome.metrics = vec![
                metric("setup_s", median(&setup_s), "s"),
                metric("ops_per_s", measured.ops_per_s(), "1/s"),
                metric("inner_solves_per_s", inner as f64 / measured.wall_s, "1/s"),
                p50,
                p90,
                metric("peak_rss_mb", peak_rss_mb, "MiB"),
            ];
        }
        Some((w, before, after, counts, trace)) => {
            let (failed, _) = verify(&w, args.seed, &pool, &solver);
            outcome.attempted += w.sent.len() as u64;
            outcome.failed += failed;
            let requests = (after.solve.1 - before.solve.1).max(1.0);
            let queue_wait_ms = (after.queue_wait.0 - before.queue_wait.0) / requests;
            let solve_ms = (after.solve.0 - before.solve.0) / requests;
            let hits = after.memo_hits - before.memo_hits;
            let misses = after.memo_misses - before.memo_misses;
            let ops = w.sent.len() as u64;
            let split = ServeSplit {
                roundtrip_ms: trace.total_ms("serve.request") / ops as f64,
                server_ms: queue_wait_ms + solve_ms,
                queue_wait_ms,
                memo_hit_ratio: hits / (hits + misses).max(1.0),
            };
            let overhead = 100.0 * (1.0 - w.ops_per_s() / measured.ops_per_s());
            outcome.metrics = layer_metrics(&trace, ops, &counts, Some(&split), overhead)?;
            trace.write(&trace_path(args))?;
        }
    }
    Ok(outcome)
}

fn describe() -> Vec<(&'static str, JsonValue)> {
    let n = |x: f64| JsonValue::Number(x);
    vec![
        ("docs_per_op", n(1.0)),
        (
            "sizes",
            json::object(vec![("classes", json::string_array(&gen::SERVE_CLASSES))]),
        ),
        ("solver_threads", n(CLIENTS as f64)),
        ("client_threads", n(CLIENTS as f64)),
        ("connections", n(CLIENTS as f64)),
        (
            "memo_capacity",
            n(reliab_engine::DEFAULT_CACHE_CAPACITY as f64),
        ),
        ("pool_docs", n(gen::SERVE_POOL as f64)),
        ("repeat_share", n(0.5)),
        ("structural_repeat_share", n(1.0)),
    ]
}
