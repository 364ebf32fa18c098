//! `reliab-serve`: a persistent solver daemon over the batch engine.
//!
//! The server owns one [`BatchEngine`] for its whole lifetime, so the
//! LRU memo cache (a model's fingerprint confirmed by a witness, the
//! text it was solved from) — and the warmed-up worker threads behind
//! it — are shared across every request: a spec document solved once is
//! answered from cache for every later client that submits the same
//! model, however it is formatted. Admission is a bounded FIFO queue;
//! when it is full new work is shed immediately with HTTP 429 rather
//! than queued into unbounded latency, and every request carries a
//! deadline that is enforced while it waits (a request whose deadline
//! elapses in the queue is answered 504 without ever occupying a
//! solver).
//!
//! ## Endpoints
//!
//! | Route | Method | Purpose |
//! |---|---|---|
//! | `/solve` | POST | solve one spec (inline document or library name) |
//! | `/batch` | POST | solve a JSONL batch, one document per line |
//! | `/specs` | GET | list the hot-reloadable spec library |
//! | `/specs/<name>` | GET | fetch one library document |
//! | `/reload` | POST | re-scan the spec library directory |
//! | `/healthz` | GET | liveness + queue/drain status |
//! | `/metrics` | GET | Prometheus exposition (`?format=json` for JSON) |
//! | `/shutdown` | POST | begin a graceful drain (see [`Server::wait`]) |
//!
//! Solve requests and responses use the `"kind"`-discriminated wire
//! schema in [`reliab_spec::wire`]; errors are structured
//! ([`WireError`]) and map onto HTTP statuses through
//! [`WireError::http_status`], the same table the CLI maps onto exit
//! codes — so a spec that fails the same way fails with the same
//! `kind` on both front ends.
//!
//! Every admitted request is stamped with a fresh trace id, returned
//! in the `X-Trace-Id` response header, applied to the solving worker
//! thread (so spans, events, and metrics series stay correlated), and
//! used to key any per-request artifacts — concurrent requests can
//! never interleave writes into one file.

use reliab_obs as obs;
use reliab_spec::wire::{
    error_response, result_response, ErrorKind, RequestSource, SolveRequest, WireError,
};
use reliab_spec::{json, ModelSpec, SolveReport};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use crate::BatchEngine;

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Substitutes the literal `{trace}` placeholder in an artifact path
/// template with a trace id, so every request (or CLI invocation)
/// writing telemetry artifacts gets its own file instead of clobbering
/// a shared one. Templates without the placeholder pass through
/// unchanged.
#[must_use]
pub fn keyed_artifact_path(template: &str, trace: u64) -> String {
    template.replace("{trace}", &trace.to_string())
}

/// Configuration for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; port `0` binds an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Solver worker threads (`0` = one per available CPU).
    pub workers: usize,
    /// Admission queue capacity: requests beyond this many waiting
    /// jobs are shed with HTTP 429.
    pub queue_depth: usize,
    /// Default per-request deadline in milliseconds, applied when a
    /// request does not carry its own (`0` = no default deadline).
    pub default_deadline_ms: u64,
    /// Maximum accepted request body, in bytes (HTTP 413 beyond).
    pub max_body_bytes: usize,
    /// Socket read budget for receiving a request, in milliseconds;
    /// clients that stall longer (slow-loris) are answered HTTP 408
    /// and disconnected.
    pub read_timeout_ms: u64,
    /// Maximum concurrently open connections (HTTP 503 beyond).
    pub max_connections: usize,
    /// Directory of `.json` model documents served as the named spec
    /// library (`/specs`, `{"spec": "<name>"}` requests) and
    /// re-scanned by `/reload`.
    pub spec_dir: Option<PathBuf>,
    /// When set, each request's convergence telemetry is exported to
    /// `record-<trace>.jsonl` in this directory.
    pub artifact_dir: Option<PathBuf>,
    /// Memo-cache capacity handed to [`BatchEngine::with_cache_capacity`].
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 0,
            queue_depth: 64,
            default_deadline_ms: 30_000,
            max_body_bytes: 1 << 20,
            read_timeout_ms: 5_000,
            max_connections: 256,
            spec_dir: None,
            artifact_dir: None,
            cache_capacity: crate::DEFAULT_CACHE_CAPACITY,
        }
    }
}

/// One entry in the hot-reloadable spec library.
#[derive(Debug, Clone)]
struct LibEntry {
    /// Raw document text, handed to the solver verbatim.
    text: String,
    /// Model class (the document's top-level key).
    kind: String,
}

/// One admitted unit of work: a single `/solve` document or a `/batch`
/// of JSONL lines, solved together so the batch shares the engine's
/// memoization fast path.
struct Job {
    texts: Vec<String>,
    /// Library spec name, for single library solves.
    label: Option<String>,
    deadline: Option<Instant>,
    enqueued: Instant,
    trace: u64,
    reply: mpsc::SyncSender<Vec<Result<SolveReport, WireError>>>,
}

struct Shared {
    config: ServeConfig,
    engine: BatchEngine,
    library: RwLock<BTreeMap<String, LibEntry>>,
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
    in_flight: AtomicUsize,
    active_conns: AtomicUsize,
    /// Draining: stop admitting solves (503) but keep serving health
    /// checks and queued work.
    shutting_down: AtomicBool,
    /// Final stop: the acceptor exits and workers exit once the queue
    /// is empty. Set only by [`Server::shutdown`].
    stopped: AtomicBool,
    /// Set by `POST /shutdown`; [`Server::wait`] watches it.
    remote_shutdown: AtomicBool,
    recorder: Option<Arc<obs::FlightRecorder>>,
    epoch: Instant,
    requests: AtomicU64,
    shed: AtomicU64,
    worker_count: usize,
}

impl Shared {
    fn queue_len(&self) -> usize {
        lock(&self.queue).len()
    }
}

/// A running solver daemon. Dropping the handle without calling
/// [`Server::shutdown`] aborts the background threads unceremoniously;
/// call `shutdown` for a clean drain.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the listen socket, loads the spec library, and spawns the
    /// acceptor and solver workers.
    ///
    /// # Errors
    ///
    /// Returns the socket error when the address cannot be bound.
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        obs::set_metrics_enabled(true);
        let recorder = config.artifact_dir.as_ref().map(|dir| {
            let _ = std::fs::create_dir_all(dir);
            let rec = Arc::new(obs::FlightRecorder::new());
            obs::install_subscriber(rec.clone());
            rec
        });
        let worker_count = reliab_core::resolve_threads(config.workers);
        let library = config
            .spec_dir
            .as_ref()
            .map(|dir| load_library(dir))
            .unwrap_or_default();
        let engine = BatchEngine::new()
            .with_jobs(1)
            .with_cache_capacity(config.cache_capacity);
        let shared = Arc::new(Shared {
            config,
            engine,
            library: RwLock::new(library),
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            in_flight: AtomicUsize::new(0),
            active_conns: AtomicUsize::new(0),
            shutting_down: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            remote_shutdown: AtomicBool::new(false),
            recorder,
            epoch: Instant::now(),
            requests: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            worker_count,
        });
        let workers = (0..worker_count)
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let acceptor = {
            let shared = shared.clone();
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(Server {
            shared,
            addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound listen address (resolves the actual port when the
    /// config asked for an ephemeral one).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// `(queued, in_flight)` — both must drain to zero when the daemon
    /// is idle; a nonzero steady state means a leaked queue slot.
    #[must_use]
    pub fn queue_stats(&self) -> (usize, usize) {
        (
            self.shared.queue_len(),
            self.shared.in_flight.load(Ordering::SeqCst),
        )
    }

    /// Blocks until a client asks the daemon to stop via
    /// `POST /shutdown` (the `reliab-serve` binary then runs
    /// [`Server::shutdown`] to drain).
    pub fn wait(&self) {
        while !self.shared.remote_shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Gracefully drains and stops the daemon: new admissions are
    /// answered 503, queued and in-flight solves complete and are
    /// delivered, then the threads are joined.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        // Unblock the acceptor with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Drain: workers keep popping until the queue is empty, and
        // open connections finish writing their responses.
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            let idle = self.shared.queue_len() == 0
                && self.shared.in_flight.load(Ordering::SeqCst) == 0
                && self.shared.active_conns.load(Ordering::SeqCst) == 0;
            if idle {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.shared.ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    fn begin_shutdown(&self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.shared.stopped.store(true, Ordering::SeqCst);
        self.shared.ready.notify_all();
    }
}

impl Drop for Server {
    /// A dropped handle (e.g. a panicking test) must not leave a live
    /// daemon behind: signal every thread to stop and unblock the
    /// acceptor, but don't wait — `shutdown` is the graceful path.
    fn drop(&mut self) {
        self.begin_shutdown();
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

/// Scans `dir` for `.json` documents that parse as model specs; files
/// that do not parse are skipped (the daemon must come up even when
/// the library has a broken file in it).
fn load_library(dir: &std::path::Path) -> BTreeMap<String, LibEntry> {
    let mut lib = BTreeMap::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return lib;
    };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let Some(name) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let Ok(spec) = ModelSpec::from_json_str(&text) else {
            continue;
        };
        let kind = match spec.to_json() {
            json::JsonValue::Object(entries) => {
                entries.first().map_or_else(String::new, |(k, _)| k.clone())
            }
            _ => String::new(),
        };
        lib.insert(name.to_owned(), LibEntry { text, kind });
    }
    lib
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if shared.stopped.load(Ordering::SeqCst) {
                    return;
                }
                q = shared
                    .ready
                    .wait(q)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        obs::gauge_set("serve.queue_depth", shared.queue_len() as f64);
        let _trace = obs::set_trace_id(job.trace);
        let wait_ms = job.enqueued.elapsed().as_secs_f64() * 1e3;
        obs::observe_ms("serve.queue_wait_ms", wait_ms);
        let results = if job.deadline.is_some_and(|d| Instant::now() >= d) {
            obs::counter_add("serve.deadline_exceeded", 1);
            let err = WireError::new(
                ErrorKind::DeadlineExceeded,
                format!("deadline elapsed after {wait_ms:.1} ms in the admission queue"),
            );
            let err = match &job.label {
                Some(label) => err.with_path(label.clone()),
                None => err,
            };
            job.texts.iter().map(|_| Err(err.clone())).collect()
        } else {
            let t0 = Instant::now();
            let texts = job.texts.clone();
            let label = job.label.clone();
            let solved = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                shared.engine.solve_texts(&texts)
            }));
            obs::observe_ms("serve.solve_ms", t0.elapsed().as_secs_f64() * 1e3);
            match solved {
                Ok(reports) => reports
                    .into_iter()
                    .map(|r| {
                        r.map_err(|e| {
                            let err = WireError::from_error(&e);
                            match &label {
                                Some(l) => err.with_path(l.clone()),
                                None => err,
                            }
                        })
                    })
                    .collect(),
                Err(_) => {
                    obs::counter_add("serve.panics", 1);
                    job.texts
                        .iter()
                        .map(|_| {
                            Err(WireError::new(
                                ErrorKind::Internal,
                                "solver panicked; see server logs",
                            ))
                        })
                        .collect()
                }
            }
        };
        if let (Some(dir), Some(rec)) = (&shared.config.artifact_dir, &shared.recorder) {
            let path = dir.join(keyed_artifact_path("record-{trace}.jsonl", job.trace));
            let _ = std::fs::write(path, rec.to_jsonl_for_trace(job.trace));
        }
        // Release the slot *before* handing the results over: a client
        // that sees its response must never observe its own job still
        // counted in flight. The client may also have hung up; a failed
        // send is not an error and must not leak the slot either.
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        let _ = job.reply.send(results);
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stopped.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        // Each response leaves in one write (see `write_response`), so
        // Nagle's algorithm has nothing to coalesce; it could only hold
        // a segment back until the peer's delayed ACK, about 40 ms.
        let _ = stream.set_nodelay(true);
        if shared.active_conns.load(Ordering::SeqCst) >= shared.config.max_connections {
            let mut stream = stream;
            respond_error(
                &mut stream,
                &WireError::new(ErrorKind::Overloaded, "connection limit reached"),
                None,
                false,
            );
            continue;
        }
        shared.active_conns.fetch_add(1, Ordering::SeqCst);
        let shared = shared.clone();
        std::thread::spawn(move || {
            let mut stream = stream;
            handle_connection(&mut stream, &shared);
            shared.active_conns.fetch_sub(1, Ordering::SeqCst);
        });
    }
}

/// A parsed inbound HTTP request.
struct Request {
    method: String,
    /// Path without the query string.
    path: String,
    query: Vec<(String, String)>,
    headers: Vec<(String, String)>,
    body: String,
    /// Whether the connection may serve another request after this one:
    /// HTTP/1.1 defaults to keep-alive unless the client sends
    /// `Connection: close`; HTTP/1.0 is one-shot unless it opts in with
    /// `Connection: keep-alive`.
    keep_alive: bool,
}

impl Request {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads one HTTP/1.1 request under the configured read-timeout and
/// body-size budgets. Returns `Ok(None)` when the client closes (or
/// goes idle past the budget, with `idle_ok`) without sending any
/// bytes — the clean end of a keep-alive connection, not an error.
fn read_request(
    stream: &mut TcpStream,
    config: &ServeConfig,
    idle_ok: bool,
) -> Result<Option<Request>, WireError> {
    let budget = Duration::from_millis(config.read_timeout_ms.max(1));
    let _ = stream.set_read_timeout(Some(budget.min(Duration::from_millis(250))));
    let started = Instant::now();
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        if buf.len() > 16 * 1024 {
            return Err(WireError::new(
                ErrorKind::BadRequest,
                "request headers too large",
            ));
        }
        if started.elapsed() > budget {
            if buf.is_empty() && idle_ok {
                return Ok(None);
            }
            return Err(WireError::new(
                ErrorKind::SlowClient,
                format!("request not received within {} ms", config.read_timeout_ms),
            ));
        }
        match stream.read(&mut chunk) {
            Ok(0) if buf.is_empty() => return Ok(None),
            Ok(0) => {
                return Err(WireError::new(
                    ErrorKind::BadRequest,
                    "connection closed before a full request arrived",
                ))
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Loop; the total-budget check above decides slow-loris.
            }
            Err(_) => {
                return Err(WireError::new(
                    ErrorKind::BadRequest,
                    "error reading the request",
                ))
            }
        }
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or_default().to_owned();
    let target = parts.next().unwrap_or_default();
    let version = parts.next().unwrap_or("HTTP/1.1");
    if method.is_empty() || target.is_empty() {
        return Err(WireError::new(
            ErrorKind::BadRequest,
            "malformed request line",
        ));
    }
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q),
        None => (target.to_owned(), ""),
    };
    let query = query_str
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_owned(), v.to_owned()),
            None => (kv.to_owned(), String::new()),
        })
        .collect();
    let headers: Vec<(String, String)> = lines
        .filter_map(|line| {
            line.split_once(':')
                .map(|(k, v)| (k.trim().to_owned(), v.trim().to_owned()))
        })
        .collect();
    let content_length = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > config.max_body_bytes {
        return Err(WireError::new(
            ErrorKind::TooLarge,
            format!(
                "request body of {content_length} bytes exceeds the {} byte limit",
                config.max_body_bytes
            ),
        ));
    }
    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        if started.elapsed() > budget {
            return Err(WireError::new(
                ErrorKind::SlowClient,
                format!(
                    "request body not received within {} ms",
                    config.read_timeout_ms
                ),
            ));
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(WireError::new(
                    ErrorKind::BadRequest,
                    "connection closed mid-body",
                ))
            }
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => {
                return Err(WireError::new(
                    ErrorKind::BadRequest,
                    "error reading the request body",
                ))
            }
        }
    }
    body.truncate(content_length);
    let body = String::from_utf8(body)
        .map_err(|_| WireError::new(ErrorKind::BadRequest, "request body is not UTF-8"))?;
    let connection = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("connection"))
        .map(|(_, v)| v.to_ascii_lowercase());
    let keep_alive = if version.eq_ignore_ascii_case("HTTP/1.0") {
        connection.as_deref() == Some("keep-alive")
    } else {
        connection.as_deref() != Some("close")
    };
    Ok(Some(Request {
        method,
        path,
        query,
        headers,
        body,
        keep_alive,
    }))
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Sends one HTTP response. Head and body go to the socket in one
/// write: with two, the body of a kept-alive reply waited for the
/// peer's delayed ACK of the head (about 40 ms per request).
fn write_response<W: std::io::Write>(
    stream: &mut W,
    status: u16,
    content_type: &str,
    trace: Option<u64>,
    keep_alive: bool,
    body: &str,
) {
    let mut message = String::with_capacity(192 + body.len());
    let _ = write!(
        message,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status_reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    );
    if let Some(trace) = trace {
        let _ = write!(message, "X-Trace-Id: {trace}\r\n");
    }
    if status == 429 || status == 503 {
        message.push_str("Retry-After: 1\r\n");
    }
    message.push_str("\r\n");
    message.push_str(body);
    // The peer may already be gone (mid-solve disconnects are one of
    // the tested degraded modes); a failed write is not our problem.
    let _ = stream.write_all(message.as_bytes());
    let _ = stream.flush();
}

fn respond_error(stream: &mut TcpStream, err: &WireError, trace: Option<u64>, keep_alive: bool) {
    let mut body = error_response(err).to_json();
    body.push('\n');
    write_response(
        stream,
        err.http_status(),
        "application/json",
        trace,
        keep_alive,
        &body,
    );
}

/// Hard cap on requests served over one keep-alive connection, so a
/// single client cannot pin a connection-handler thread forever.
const MAX_REQUESTS_PER_CONNECTION: usize = 1024;

/// Serves HTTP/1.1 requests sequentially over one connection until the
/// client closes or opts out (`Connection: close`, HTTP/1.0), an error
/// breaks request framing, the per-connection request cap is reached,
/// or the daemon stops.
fn handle_connection(stream: &mut TcpStream, shared: &Arc<Shared>) {
    for served in 0..MAX_REQUESTS_PER_CONNECTION {
        let t0 = Instant::now();
        let request = match read_request(stream, &shared.config, served > 0) {
            Ok(Some(r)) => r,
            Ok(None) => return, // clean close between requests
            Err(err) => {
                if err.kind == ErrorKind::SlowClient {
                    obs::counter_add("serve.slow_clients", 1);
                }
                respond_error(stream, &err, None, false);
                // The request was rejected before being fully read (e.g.
                // an oversized body): closing now would RST the connection
                // and destroy the in-flight error response. Read and
                // discard what the client is still sending, briefly and
                // boundedly.
                let _ = stream.shutdown(std::net::Shutdown::Write);
                let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                let mut scratch = [0u8; 4096];
                let mut drained = 0usize;
                while drained < 4 << 20 {
                    match stream.read(&mut scratch) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => drained += n,
                    }
                }
                return;
            }
        };
        let keep_alive = request.keep_alive
            && served + 1 < MAX_REQUESTS_PER_CONNECTION
            && !shared.stopped.load(Ordering::SeqCst);
        obs::counter_add("serve.http_requests", 1);
        let persist = route(stream, shared, &request, keep_alive);
        obs::observe_ms("serve.request_ms", t0.elapsed().as_secs_f64() * 1e3);
        if !persist {
            return;
        }
    }
}

/// Dispatches one request. Returns whether the connection should be
/// kept open for another request (`keep_alive`, except for
/// `/shutdown`, which always closes after answering).
fn route(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    request: &Request,
    keep_alive: bool,
) -> bool {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => handle_healthz(stream, shared, keep_alive),
        ("GET", "/metrics") => handle_metrics(stream, request, keep_alive),
        ("GET", "/specs") => handle_specs(stream, shared, keep_alive),
        ("GET", path) if path.starts_with("/specs/") => {
            handle_spec_get(stream, shared, &path["/specs/".len()..], keep_alive);
        }
        ("POST", "/reload") => handle_reload(stream, shared, keep_alive),
        ("POST", "/solve") => handle_solve(stream, shared, request, keep_alive),
        ("POST", "/batch") => handle_batch(stream, shared, request, keep_alive),
        ("POST", "/shutdown") => {
            write_response(
                stream,
                200,
                "application/json",
                None,
                false,
                "{\"kind\":\"draining\"}\n",
            );
            shared.shutting_down.store(true, Ordering::SeqCst);
            shared.remote_shutdown.store(true, Ordering::SeqCst);
            shared.ready.notify_all();
            return false;
        }
        (_, "/healthz" | "/metrics" | "/specs" | "/reload" | "/solve" | "/batch" | "/shutdown") => {
            respond_error(
                stream,
                &WireError::new(
                    ErrorKind::BadRequest,
                    format!("method {} not allowed here", request.method),
                ),
                None,
                keep_alive,
            );
        }
        (_, path) => {
            respond_error(
                stream,
                &WireError::new(ErrorKind::NotFound, format!("no route {path}")).with_path(path),
                None,
                keep_alive,
            );
        }
    }
    keep_alive
}

fn handle_healthz(stream: &mut TcpStream, shared: &Arc<Shared>, keep_alive: bool) {
    let draining = shared.shutting_down.load(Ordering::SeqCst);
    let body = json::object(vec![
        (
            "status",
            json::JsonValue::from(if draining { "draining" } else { "ok" }),
        ),
        (
            "uptime_ms",
            json::JsonValue::Number(shared.epoch.elapsed().as_millis() as f64),
        ),
        (
            "queue_depth",
            json::JsonValue::Number(shared.queue_len() as f64),
        ),
        (
            "in_flight",
            json::JsonValue::Number(shared.in_flight.load(Ordering::SeqCst) as f64),
        ),
        (
            "workers",
            json::JsonValue::Number(shared.worker_count as f64),
        ),
        (
            "specs",
            json::JsonValue::Number(
                shared
                    .library
                    .read()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .len() as f64,
            ),
        ),
        (
            "requests",
            json::JsonValue::Number(shared.requests.load(Ordering::SeqCst) as f64),
        ),
        (
            "shed",
            json::JsonValue::Number(shared.shed.load(Ordering::SeqCst) as f64),
        ),
    ]);
    let mut text = body.to_json();
    text.push('\n');
    write_response(stream, 200, "application/json", None, keep_alive, &text);
}

fn handle_metrics(stream: &mut TcpStream, request: &Request, keep_alive: bool) {
    let format = match request.query_param("format") {
        None => obs::ExpositionFormat::Prometheus,
        Some(f) => match obs::ExpositionFormat::parse(f) {
            Some(format) => format,
            None => {
                respond_error(
                    stream,
                    &WireError::new(
                        ErrorKind::BadRequest,
                        format!("unknown metrics format '{f}' (prometheus|json)"),
                    )
                    .with_path("format"),
                    None,
                    keep_alive,
                );
                return;
            }
        },
    };
    let body = obs::registry().exposition(format);
    write_response(stream, 200, format.content_type(), None, keep_alive, &body);
}

fn handle_specs(stream: &mut TcpStream, shared: &Arc<Shared>, keep_alive: bool) {
    let lib = shared
        .library
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let entries: Vec<json::JsonValue> = lib
        .iter()
        .map(|(name, entry)| {
            json::object(vec![
                ("name", json::JsonValue::from(name.as_str())),
                ("kind", json::JsonValue::from(entry.kind.as_str())),
            ])
        })
        .collect();
    let mut body = json::object(vec![
        ("kind", json::JsonValue::from("specs")),
        ("specs", json::JsonValue::Array(entries)),
    ])
    .to_json();
    body.push('\n');
    write_response(stream, 200, "application/json", None, keep_alive, &body);
}

fn handle_spec_get(stream: &mut TcpStream, shared: &Arc<Shared>, name: &str, keep_alive: bool) {
    let lib = shared
        .library
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    match lib.get(name) {
        Some(entry) => {
            let body = entry.text.clone();
            write_response(stream, 200, "application/json", None, keep_alive, &body);
        }
        None => respond_error(
            stream,
            &WireError::new(ErrorKind::NotFound, format!("no library spec '{name}'"))
                .with_path(name),
            None,
            keep_alive,
        ),
    }
}

fn handle_reload(stream: &mut TcpStream, shared: &Arc<Shared>, keep_alive: bool) {
    let Some(dir) = shared.config.spec_dir.clone() else {
        respond_error(
            stream,
            &WireError::new(
                ErrorKind::BadRequest,
                "this daemon was started without a spec library directory",
            ),
            None,
            keep_alive,
        );
        return;
    };
    let fresh = load_library(&dir);
    let count = fresh.len();
    // In-flight solves cloned their document text at admission, so the
    // swap never races a running solve.
    *shared
        .library
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = fresh;
    obs::counter_add("serve.reloads", 1);
    let mut body = json::object(vec![
        ("kind", json::JsonValue::from("reloaded")),
        ("specs", json::JsonValue::Number(count as f64)),
    ])
    .to_json();
    body.push('\n');
    write_response(stream, 200, "application/json", None, keep_alive, &body);
}

/// The channel a worker answers an admitted job on: one result or
/// wire error per input text, in input order.
type ReplyReceiver = mpsc::Receiver<Vec<Result<SolveReport, WireError>>>;

/// Admission: places a job in the bounded queue, or explains why not.
/// Returns the receiver to await, the minted trace id, and the
/// request's deadline.
fn admit(
    shared: &Arc<Shared>,
    texts: Vec<String>,
    label: Option<String>,
    deadline_ms: Option<u64>,
) -> Result<(ReplyReceiver, u64, Option<Instant>), WireError> {
    if shared.shutting_down.load(Ordering::SeqCst) {
        return Err(WireError::new(
            ErrorKind::ShuttingDown,
            "daemon is draining; not admitting new work",
        ));
    }
    let deadline_ms = deadline_ms.unwrap_or(shared.config.default_deadline_ms);
    let deadline = (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(deadline_ms));
    let trace = obs::mint_trace_id();
    let (tx, rx) = mpsc::sync_channel(1);
    {
        let mut q = lock(&shared.queue);
        if q.len() >= shared.config.queue_depth {
            shared.shed.fetch_add(1, Ordering::SeqCst);
            obs::counter_add("serve.shed", 1);
            return Err(WireError::new(
                ErrorKind::Overloaded,
                format!(
                    "admission queue full ({} waiting); retry later",
                    shared.config.queue_depth
                ),
            ));
        }
        q.push_back(Job {
            texts,
            label,
            deadline,
            enqueued: Instant::now(),
            trace,
            reply: tx,
        });
        obs::gauge_set("serve.queue_depth", q.len() as f64);
    }
    shared.ready.notify_one();
    shared.requests.fetch_add(1, Ordering::SeqCst);
    obs::counter_add("serve.requests", 1);
    Ok((rx, trace, deadline))
}

/// Awaits a worker's reply, falling back to a deadline-exceeded error
/// if the solver blows well past the request deadline mid-solve (the
/// solve itself cannot be cancelled; the client is released anyway).
fn await_reply(
    rx: &mpsc::Receiver<Vec<Result<SolveReport, WireError>>>,
    deadline: Option<Instant>,
) -> Vec<Result<SolveReport, WireError>> {
    let grace = Duration::from_millis(250);
    let outcome = match deadline {
        Some(d) => rx.recv_timeout(d.saturating_duration_since(Instant::now()) + grace),
        None => rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected),
    };
    match outcome {
        Ok(results) => results,
        Err(_) => vec![Err(WireError::new(
            ErrorKind::DeadlineExceeded,
            "deadline elapsed while the solve was running",
        ))],
    }
}

fn report_to_response(
    result: Result<SolveReport, WireError>,
    label: Option<&str>,
    stats: bool,
) -> (u16, json::JsonValue) {
    match result {
        Ok(report) => (
            200,
            result_response(
                label,
                report.measures.to_json(),
                stats.then(|| report.stats.to_json()),
            ),
        ),
        Err(err) => (err.http_status(), error_response(&err)),
    }
}

fn handle_solve(stream: &mut TcpStream, shared: &Arc<Shared>, request: &Request, keep_alive: bool) {
    let parsed = match SolveRequest::parse(&request.body) {
        Ok(r) => r,
        Err(err) => {
            respond_error(stream, &err, None, keep_alive);
            return;
        }
    };
    let header_deadline = request
        .header("x-deadline-ms")
        .and_then(|v| v.parse::<u64>().ok());
    let deadline_ms = parsed.deadline_ms.or(header_deadline);
    let (label, text) = match &parsed.source {
        RequestSource::Inline(text) => (None, text.clone()),
        RequestSource::Library(name) => {
            let lib = shared
                .library
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            match lib.get(name) {
                Some(entry) => (Some(name.clone()), entry.text.clone()),
                None => {
                    respond_error(
                        stream,
                        &WireError::new(ErrorKind::NotFound, format!("no library spec '{name}'"))
                            .with_path(name.clone()),
                        None,
                        keep_alive,
                    );
                    return;
                }
            }
        }
    };
    let (rx, trace, deadline) = match admit(shared, vec![text], label.clone(), deadline_ms) {
        Ok(admitted) => admitted,
        Err(err) => {
            respond_error(stream, &err, None, keep_alive);
            return;
        }
    };
    let mut results = await_reply(&rx, deadline);
    let result = results.pop().unwrap_or_else(|| {
        Err(WireError::new(
            ErrorKind::Internal,
            "worker returned no result",
        ))
    });
    let (status, body) = report_to_response(result, label.as_deref(), parsed.stats);
    let mut text = body.to_json();
    text.push('\n');
    write_response(
        stream,
        status,
        "application/json",
        Some(trace),
        keep_alive,
        &text,
    );
}

fn handle_batch(stream: &mut TcpStream, shared: &Arc<Shared>, request: &Request, keep_alive: bool) {
    let texts: Vec<String> = request
        .body
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(str::to_owned)
        .collect();
    if texts.is_empty() {
        respond_error(
            stream,
            &WireError::new(
                ErrorKind::BadRequest,
                "batch body has no documents (one JSON document per line)",
            ),
            None,
            keep_alive,
        );
        return;
    }
    let stats = request.query_param("stats").is_some_and(|v| v != "false");
    let header_deadline = request
        .header("x-deadline-ms")
        .and_then(|v| v.parse::<u64>().ok());
    let (rx, trace, deadline) = match admit(shared, texts, None, header_deadline) {
        Ok(admitted) => admitted,
        Err(err) => {
            respond_error(stream, &err, None, keep_alive);
            return;
        }
    };
    let results = await_reply(&rx, deadline);
    let mut body = String::new();
    for result in results {
        let (_, doc) = report_to_response(result, None, stats);
        body.push_str(&doc.to_json());
        body.push('\n');
    }
    write_response(
        stream,
        200,
        "application/x-ndjson",
        Some(trace),
        keep_alive,
        &body,
    );
}

/// A response from [`http_request`] — the minimal HTTP client shared
/// by the CLI's `--connect` mode and the test harnesses.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Response headers, in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl HttpResponse {
    /// Case-insensitive header lookup.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Performs one HTTP/1.1 request against `addr` (e.g. `"127.0.0.1:7171"`)
/// and reads the full response. The connection is one-shot
/// (`Connection: close`); use [`KeepAliveClient`] to reuse a socket
/// across sequential requests.
///
/// # Errors
///
/// Propagates socket errors; a malformed response status line is
/// reported as [`std::io::ErrorKind::InvalidData`].
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> std::io::Result<HttpResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    let req = encode_request(
        method,
        path,
        addr,
        &[&[("Connection", "close")], headers].concat(),
        body,
    );
    // The server may reject mid-upload (e.g. 413 on an oversized body)
    // and close its read side; the write then fails with a broken pipe
    // but the response is still there to be read — so write errors are
    // tolerated and only an unreadable response is fatal.
    let sent = stream
        .write_all(req.as_bytes())
        .and_then(|()| stream.flush());
    let mut raw = Vec::new();
    match (stream.read_to_end(&mut raw), sent) {
        (Ok(_), _) => {}
        // A connection reset can race an already-delivered response
        // (read_to_end appends what arrived before erroring); salvage
        // the bytes if they hold a complete header section.
        (Err(_), _) if find_header_end(&raw).is_some() => {}
        (Err(read_err), Ok(())) => return Err(read_err),
        (Err(_), Err(write_err)) => return Err(write_err),
    }
    let header_end = find_header_end(&raw).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "response has no header end",
        )
    })?;
    let (status, headers) = parse_response_head(&raw[..header_end])?;
    let body = String::from_utf8_lossy(&raw[header_end + 4..]).into_owned();
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

/// Encodes one HTTP/1.1 request, head and body in one buffer. The
/// clients send it in one write on a `TCP_NODELAY` socket: a body
/// written after its head waited for the daemon's delayed ACK.
fn encode_request(
    method: &str,
    path: &str,
    host: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> String {
    let mut req = String::with_capacity(128 + body.len());
    let _ = write!(
        req,
        "{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (k, v) in headers {
        let _ = write!(req, "{k}: {v}\r\n");
    }
    req.push_str("\r\n");
    req.push_str(body);
    req
}

/// Parses an HTTP response status line and headers (names lowercased).
fn parse_response_head(head: &[u8]) -> std::io::Result<(u16, Vec<(String, String)>)> {
    let head = String::from_utf8_lossy(head).into_owned();
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed status line {status_line:?}"),
            )
        })?;
    let headers = lines
        .filter_map(|line| {
            line.split_once(':')
                .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_owned()))
        })
        .collect();
    Ok((status, headers))
}

/// A persistent HTTP/1.1 client connection: one socket reused across
/// sequential requests, each response framed by its `Content-Length`
/// (reading to end-of-stream would block forever on a kept-alive
/// socket). The daemon answers `Connection: keep-alive` until the
/// client sends `Connection: close` or its per-connection request cap
/// is reached.
pub struct KeepAliveClient {
    stream: TcpStream,
    addr: String,
    /// Bytes read past the previous response's body, carried into the
    /// next response's parse so framing survives any read overshoot.
    residue: Vec<u8>,
}

impl KeepAliveClient {
    /// Connects to `addr` (e.g. `"127.0.0.1:7171"`).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: &str) -> std::io::Result<KeepAliveClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(KeepAliveClient {
            stream,
            addr: addr.to_owned(),
            residue: Vec::new(),
        })
    }

    /// Performs one request on the persistent connection and reads the
    /// complete response. Pass `("Connection", "close")` in `headers`
    /// to make this the connection's final request.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; an EOF before a complete response is
    /// reported as [`std::io::ErrorKind::UnexpectedEof`].
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> std::io::Result<HttpResponse> {
        let req = encode_request(method, path, &self.addr, headers, body);
        self.stream.write_all(req.as_bytes())?;
        self.stream.flush()?;

        let mut raw = std::mem::take(&mut self.residue);
        let mut chunk = [0u8; 4096];
        let header_end = loop {
            if let Some(pos) = find_header_end(&raw) {
                break pos;
            }
            match self.stream.read(&mut chunk)? {
                0 => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed before a full response header arrived",
                    ))
                }
                n => raw.extend_from_slice(&chunk[..n]),
            }
        };
        let (status, headers) = parse_response_head(&raw[..header_end])?;
        let content_length = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse::<usize>().ok())
            .unwrap_or(0);
        let body_start = header_end + 4;
        while raw.len() < body_start + content_length {
            match self.stream.read(&mut chunk)? {
                0 => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed mid response body",
                    ))
                }
                n => raw.extend_from_slice(&chunk[..n]),
            }
        }
        self.residue = raw.split_off(body_start + content_length);
        let body = String::from_utf8_lossy(&raw[body_start..]).into_owned();
        Ok(HttpResponse {
            status,
            headers,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_paths_key_by_trace() {
        assert_eq!(
            keyed_artifact_path("out/record-{trace}.jsonl", 42),
            "out/record-42.jsonl"
        );
        assert_eq!(keyed_artifact_path("plain.jsonl", 42), "plain.jsonl");
    }

    #[test]
    fn header_end_detection() {
        // Returns the index where the blank line starts; the body
        // begins 4 bytes later.
        let raw = b"GET / HTTP/1.1\r\n\r\nbody";
        assert_eq!(find_header_end(raw), Some(14));
        assert_eq!(&raw[14 + 4..], b"body");
        assert_eq!(find_header_end(b"partial\r\n"), None);
    }

    /// Records what reaches the "socket" and in how many calls.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl std::io::Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A response that reaches the socket in two writes waits for the
    /// peer's delayed ACK between them, so every response, head and
    /// body, must leave in exactly one write.
    #[test]
    fn responses_leave_in_one_write() {
        let cases = [
            (200, Some(7), true, "{\"kind\":\"result\"}\n"),
            (429, None, false, "{\"kind\":\"overloaded\"}\n"),
            (200, None, true, ""),
        ];
        for (status, trace, keep_alive, body) in cases {
            let mut socket = CountingWriter::default();
            write_response(
                &mut socket,
                status,
                "application/json",
                trace,
                keep_alive,
                body,
            );
            assert_eq!(socket.writes, 1, "status {status}: head and body split");
            let end = find_header_end(&socket.bytes).expect("complete head");
            let head = std::str::from_utf8(&socket.bytes[..end]).unwrap();
            assert!(head.starts_with(&format!("HTTP/1.1 {status} ")), "{head}");
            assert!(head.contains(&format!("Content-Length: {}\r\n", body.len())));
            assert_eq!(&socket.bytes[end + 4..], body.as_bytes());
        }
    }

    #[test]
    fn default_config_is_sane() {
        let c = ServeConfig::default();
        assert!(c.queue_depth > 0);
        assert!(c.max_body_bytes >= 64 * 1024);
        assert!(c.addr.ends_with(":0"));
    }
}
