//! `perfbench`: the end-to-end and per-layer benchmark of reliab.
//!
//! It drives the shipped program from outside: `reliab-serve` over TCP
//! (serve_keepalive), and the public library path that `reliab-cli`
//! runs, `BatchEngine::solve_texts` then `SolveReport::to_json`, in
//! this process (scenario_sweep, kernel_mix). Each workload is a seeded
//! closed loop; every op has the same shape, and every output is
//! checked. Library ops scale their models by a factor drawn evenly
//! from a fixed range (`gen::SIZE_RANGE`), so op costs form one broad
//! band rather than the host's two.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--serve-bin PATH] [--out-dir DIR]
//! ```
//!
//! With `--trace 0` the last line of standard output holds the
//! end-to-end metrics; with `--trace 1` it holds the per-layer split,
//! and the spans of the traced window are written to
//! `DIR/trace-<workload>-<seed>.json`. `perfbench/run.py` builds
//! everything and calls this binary.

mod check;
mod cpus;
mod gen;
mod library;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;

use reliab_spec::json::JsonValue;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeKeepalive,
    ScenarioSweep,
    KernelMix,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve_keepalive" => Some(Workload::ServeKeepalive),
            "scenario_sweep" => Some(Workload::ScenarioSweep),
            "kernel_mix" => Some(Workload::KernelMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeKeepalive => "serve_keepalive",
            Workload::ScenarioSweep => "scenario_sweep",
            Workload::KernelMix => "kernel_mix",
        }
    }

    /// The one-line reason the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ServeKeepalive => {
                "the only workload where transport, parse, memo and encode do the work"
            }
            Workload::ScenarioSweep => {
                "each sample rebuilds its inner model, so compile-once re-evaluation shows here"
            }
            Workload::KernelMix => {
                "the numerical kernels do the work; scenario, parse and transport do almost none"
            }
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: Option<PathBuf>,
    pub out_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload serve_keepalive|scenario_sweep|kernel_mix \
--seed N --seconds S --trace 0|1 [--serve-bin PATH] [--out-dir DIR]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut out_dir = PathBuf::from(".bench_build/perfbench");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("invalid value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        serve_bin,
        out_dir,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload {
        Workload::ServeKeepalive => serve::run(&args),
        Workload::ScenarioSweep | Workload::KernelMix => library::run(&args),
    };
    match outcome {
        Ok(mut outcome) => {
            let mut describe = vec![
                ("workload", JsonValue::from(args.workload.name())),
                ("why", JsonValue::from(args.workload.why())),
                ("seed", JsonValue::Number(args.seed as f64)),
                ("seconds", JsonValue::Number(args.seconds)),
                ("loop", JsonValue::from("closed")),
            ];
            describe.append(&mut outcome.describe);
            outcome.describe = describe;
            println!("{}", outcome.describe_line());
            println!("{}", outcome.result_line());
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            std::process::exit(1);
        }
    }
}
