//! `reliab-serve` — the persistent solver daemon.
//!
//! Boots a [`reliab_engine::serve::Server`] and runs until a client
//! posts `/shutdown`, then drains gracefully (queued and in-flight
//! solves complete before exit). See the crate docs and the repository
//! README for the endpoint table.
//!
//! ```text
//! reliab-serve --addr 127.0.0.1:7171 --spec-dir specs --workers 4
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

use reliab_engine::serve::{ServeConfig, Server};
use std::path::PathBuf;

const USAGE: &str = "\
reliab-serve: persistent reliability-model solver daemon

USAGE:
    reliab-serve [OPTIONS]

OPTIONS:
    --addr HOST:PORT       Listen address (default 127.0.0.1:7171; port 0 = ephemeral)
    --workers N            Solver worker threads (default: one per CPU)
    --queue-depth N        Admission queue capacity; beyond it requests are shed 429 (default 64)
    --deadline-ms MS       Default per-request deadline; 0 disables (default 30000)
    --max-body BYTES       Largest accepted request body (default 1048576)
    --read-timeout-ms MS   Socket read budget before a slow client is dropped 408 (default 5000)
    --max-connections N    Concurrently open connections (default 256)
    --spec-dir DIR         Serve *.json in DIR as the named spec library (hot-reloadable)
    --artifact-dir DIR     Write per-request telemetry to DIR/record-<trace>.jsonl
    --cache-capacity N     Memo cache entries, each a fingerprint confirmed by a
                           witness (default 1024)
    -h, --help             Show this help

ENDPOINTS:
    POST /solve      solve one document: {\"kind\":\"solve\",\"model\":{...}} or a bare document
    POST /batch      solve a JSONL batch, one document per line
    GET  /specs      list the spec library        GET /specs/<name>  fetch one
    POST /reload     re-scan the spec library
    GET  /healthz    liveness and drain status
    GET  /metrics    Prometheus exposition (?format=json for JSON quantiles)
    POST /shutdown   drain and exit
";

fn usage(code: i32) -> ! {
    if code == 0 {
        print!("{USAGE}");
    } else {
        eprint!("{USAGE}");
    }
    std::process::exit(code);
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let Some(value) = value else {
        eprintln!("error: {flag} requires a value");
        usage(2);
    };
    match value.parse() {
        Ok(v) => v,
        Err(_) => {
            eprintln!("error: invalid value '{value}' for {flag}");
            usage(2);
        }
    }
}

fn main() {
    let mut config = ServeConfig {
        addr: "127.0.0.1:7171".to_owned(),
        ..ServeConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => config.addr = parse_value::<String>("--addr", args.next()),
            "--workers" => config.workers = parse_value("--workers", args.next()),
            "--queue-depth" => {
                config.queue_depth = parse_value("--queue-depth", args.next());
                if config.queue_depth == 0 {
                    eprintln!("error: --queue-depth must be at least 1");
                    usage(2);
                }
            }
            "--deadline-ms" => {
                config.default_deadline_ms = parse_value("--deadline-ms", args.next())
            }
            "--max-body" => config.max_body_bytes = parse_value("--max-body", args.next()),
            "--read-timeout-ms" => {
                config.read_timeout_ms = parse_value("--read-timeout-ms", args.next());
            }
            "--max-connections" => {
                config.max_connections = parse_value("--max-connections", args.next());
            }
            "--spec-dir" => {
                config.spec_dir = Some(parse_value::<PathBuf>("--spec-dir", args.next()));
            }
            "--artifact-dir" => {
                config.artifact_dir = Some(parse_value::<PathBuf>("--artifact-dir", args.next()));
            }
            "--cache-capacity" => {
                config.cache_capacity = parse_value("--cache-capacity", args.next());
            }
            "-h" | "--help" => usage(0),
            other => {
                eprintln!("error: unknown flag '{other}'");
                usage(2);
            }
        }
    }
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: failed to bind: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on http://{}", server.local_addr());
    server.wait();
    eprintln!("draining...");
    server.shutdown();
}
