//! The traced run: spans and counters kept in memory while a window
//! runs, written out when it ends, and folded into per-layer metrics.
//!
//! Spans come from two places. The program already emits phase spans
//! (`engine.*`, `spec.solve*`, `markov.*`, `spn.*`, `stream.*`,
//! `ftree.*`, `bdd.*`, `sim.*`); the benchmark opens its own spans
//! around the public calls it makes (`bench.op`, `serve.request`,
//! `spec.json.parse`, `spec.schema.from_json`, `engine.canonical`,
//! `spec.report.encode`). One installed `ProfileSubscriber` records
//! both, so program spans nest under the benchmark span that caused
//! them. Each op sets its own trace id, which every span of the op
//! carries.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;

use reliab_obs::{self as obs, MetricsSnapshot, ProfileSubscriber};
use reliab_spec::json::{self, JsonValue};

use crate::library::OpCounts;
use crate::report::{metric, Metric};
use crate::Args;

/// Root spans the benchmark opens, one per op.
const OP_SPANS: [&str; 2] = ["bench.op", "serve.request"];

/// A recording in progress.
pub struct Tracer {
    profile: Arc<ProfileSubscriber>,
    before: MetricsSnapshot,
}

/// One completed span, as written to the trace file.
struct SpanRecord {
    name: String,
    id: u64,
    parent: u64,
    trace: u64,
    thread: u64,
    start_us: u64,
    end_us: u64,
}

/// A finished recording.
pub struct Trace {
    counters: BTreeMap<String, u64>,
    spans: Vec<SpanRecord>,
    /// `(count, total µs, self µs)` per span name.
    phases: HashMap<String, (u64, u64, u64)>,
    chrome: String,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            profile: Arc::new(ProfileSubscriber::new()),
            before: obs::registry().snapshot(),
        }
    }

    /// Runs `f` with the profiler installed and the program's counters
    /// on.
    pub fn record<R>(&self, f: impl FnOnce() -> R) -> R {
        obs::set_metrics_enabled(true);
        obs::install_subscriber(self.profile.clone());
        let r = f();
        obs::clear_subscribers();
        obs::set_metrics_enabled(false);
        r
    }

    /// Collects what the profiler recorded.
    pub fn finish(self) -> Result<Trace, String> {
        let after = obs::registry().snapshot();
        let counters = after
            .counters
            .iter()
            .map(|(k, v)| {
                let was = self.before.counters.get(k).copied().unwrap_or(0);
                (k.clone(), v - was)
            })
            .collect();
        let chrome = self.profile.to_chrome_trace();
        let mut spans = spans_of(&chrome)?;
        adopt_detached(&mut spans);
        let phases = phases_of(&spans);
        Ok(Trace {
            counters,
            spans,
            phases,
            chrome,
        })
    }
}

/// Pairs the begin and end events of a Chrome trace into spans.
fn spans_of(chrome: &str) -> Result<Vec<SpanRecord>, String> {
    let doc = json::parse(chrome).map_err(|e| format!("trace export: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("trace export has no traceEvents")?;
    let field = |e: &JsonValue, k: &str| {
        e.get("args")
            .and_then(|a| a.get(k))
            .and_then(JsonValue::as_f64)
            .map_or(0, |x| x as u64)
    };
    let mut open: HashMap<u64, SpanRecord> = HashMap::new();
    let mut spans = Vec::with_capacity(events.len() / 2);
    for e in events {
        let id = field(e, "span");
        let ts = e.get("ts").and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
        match e.get("ph").and_then(JsonValue::as_str) {
            Some("B") => {
                let name = e.get("name").and_then(JsonValue::as_str).unwrap_or("");
                open.insert(
                    id,
                    SpanRecord {
                        name: name.to_owned(),
                        id,
                        parent: field(e, "parent"),
                        trace: field(e, "trace"),
                        thread: e.get("tid").and_then(JsonValue::as_f64).unwrap_or(0.0) as u64,
                        start_us: ts,
                        end_us: ts,
                    },
                );
            }
            Some("E") => {
                let mut span = open
                    .remove(&id)
                    .ok_or_else(|| format!("trace export: span {id} ends before it begins"))?;
                span.end_us = ts;
                spans.push(span);
            }
            _ => return Err("trace export: unknown event phase".to_owned()),
        }
    }
    if !open.is_empty() {
        return Err(format!("trace export: {} spans never end", open.len()));
    }
    Ok(spans)
}

/// Spans the program opens on a worker thread it spawned (uncertainty
/// samples) start with no parent, though they keep the op's trace id.
/// Each such span is adopted by the innermost span of the same op on
/// another thread that encloses it in time, the span that waited for
/// it, so its time leaves that span's self time.
fn adopt_detached(spans: &mut [SpanRecord]) {
    let mut by_trace: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_trace.entry(s.trace).or_default().push(i);
    }
    for members in by_trace.values() {
        for &d in members {
            let orphan = &spans[d];
            if orphan.parent != 0 || OP_SPANS.contains(&orphan.name.as_str()) {
                continue;
            }
            let adopter = members
                .iter()
                .map(|&i| &spans[i])
                .filter(|p| {
                    p.thread != orphan.thread
                        && p.start_us <= orphan.start_us
                        && orphan.end_us <= p.end_us
                })
                .max_by_key(|p| (p.start_us, std::cmp::Reverse(p.end_us)))
                .map(|p| p.id);
            if let Some(id) = adopter {
                spans[d].parent = id;
            }
        }
    }
}

/// `(count, total µs, self µs)` per span name; self time is a span's
/// duration minus its children's.
fn phases_of(spans: &[SpanRecord]) -> HashMap<String, (u64, u64, u64)> {
    let mut child_us: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        *child_us.entry(s.parent).or_insert(0) += s.end_us - s.start_us;
    }
    let mut phases: HashMap<String, (u64, u64, u64)> = HashMap::new();
    for s in spans {
        let dur = s.end_us - s.start_us;
        let own = dur.saturating_sub(child_us.get(&s.id).copied().unwrap_or(0));
        let p = phases.entry(s.name.clone()).or_insert((0, 0, 0));
        *p = (p.0 + 1, p.1 + dur, p.2 + own);
    }
    phases
}

/// The layer a span's self time belongs to, named after the crate.
fn layer_of(span: &str) -> &str {
    match span {
        "bench.op" | "serve.request" => "bench",
        "spec.json.parse" => "spec.json",
        "spec.schema.from_json" => "spec.schema",
        "spec.report.encode" => "spec.report",
        "spec.solve.uncertainty" | "spec.solve.hierarchy" => "spec.scenario",
        "spec.solve.semi_markov" => "semimarkov",
        "spec.solve.bounds" => "bounds",
        s if s.starts_with("spec.") => "spec",
        s => s.split('.').next().unwrap_or(s),
    }
}

/// Layers whose self time every traced run reports.
const LAYERS: [&str; 16] = [
    "bench",
    "engine",
    "spec",
    "spec.json",
    "spec.schema",
    "spec.scenario",
    "spec.report",
    "markov",
    "semimarkov",
    "bounds",
    "spn",
    "stream",
    "ftree",
    "bdd",
    "rbd",
    "sim",
];

impl Trace {
    /// Summed wall time of every span named `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.phases.get(name).map_or(0.0, |p| p.1 as f64 / 1e3)
    }

    /// Change of a program counter over the recording.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Self time per layer, in ms, for every name in [`LAYERS`].
    pub fn layer_self_ms(&self) -> Result<Vec<(&'static str, f64)>, String> {
        let mut by_layer: HashMap<&str, f64> = HashMap::new();
        for (name, p) in &self.phases {
            *by_layer.entry(layer_of(name)).or_insert(0.0) += p.2 as f64 / 1e3;
        }
        if let Some(unknown) = by_layer.keys().find(|l| !LAYERS.contains(l)) {
            return Err(format!("span layer '{unknown}' is not reported"));
        }
        Ok(LAYERS
            .iter()
            .map(|l| (*l, by_layer.get(l).copied().unwrap_or(0.0)))
            .collect())
    }

    /// Checks that every span descends from one op span and carries
    /// that op's trace id, and returns the number of op spans.
    pub fn check_op_ids(&self) -> Result<usize, String> {
        let by_id: HashMap<u64, &SpanRecord> = self.spans.iter().map(|s| (s.id, s)).collect();
        let mut roots = 0;
        for span in &self.spans {
            let mut root = span;
            while root.parent != 0 {
                root = by_id
                    .get(&root.parent)
                    .ok_or_else(|| format!("span '{}' has a parent that never ended", span.name))?;
            }
            if !OP_SPANS.contains(&root.name.as_str()) {
                return Err(format!("span '{}' ran outside an op", span.name));
            }
            if span.trace != root.trace || span.trace == 0 {
                return Err(format!("span '{}' lost its op's trace id", span.name));
            }
            roots += usize::from(span.parent == 0);
        }
        Ok(roots)
    }

    /// Wall time of fault-tree solves: `spec.solve` spans with a direct
    /// `ftree.*` child, in ms.
    pub fn fault_tree_solve_ms(&self) -> f64 {
        let ftree_parents: std::collections::HashSet<u64> = self
            .spans
            .iter()
            .filter(|s| s.name.starts_with("ftree."))
            .map(|s| s.parent)
            .collect();
        self.spans
            .iter()
            .filter(|s| s.name == "spec.solve" && ftree_parents.contains(&s.id))
            .map(|s| (s.end_us - s.start_us) as f64 / 1e3)
            .sum()
    }

    /// Writes the spans as a Chrome trace (`chrome://tracing`,
    /// Perfetto): name, start, end, span id, parent and trace id.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, &self.chrome).map_err(|e| format!("{}: {e}", path.display()))
    }
}

pub fn trace_path(args: &Args) -> std::path::PathBuf {
    args.out_dir
        .join(format!("trace-{}-{}.json", args.workload.name(), args.seed))
}

/// The daemon-side split of a traced serve window, per request.
pub struct ServeSplit {
    pub roundtrip_ms: f64,
    pub server_ms: f64,
    pub queue_wait_ms: f64,
    pub memo_hit_ratio: f64,
}

/// The per-layer metrics every traced run prints. `serve` carries the
/// daemon-side split of serve_keepalive; other workloads run no
/// transport and report it as zero.
pub fn layer_metrics(
    trace: &Trace,
    ops: u64,
    counts: &OpCounts,
    serve: Option<&ServeSplit>,
    overhead_pct: f64,
) -> Result<Vec<Metric>, String> {
    let roots = trace.check_op_ids()?;
    if roots == 0 {
        return Err("traced window recorded no op".to_owned());
    }
    let per_op = |x: f64| x / ops as f64;
    let ms = |name: &str| per_op(trace.total_ms(name));
    let count = |name: &str| per_op(trace.counter(name));
    let hits = trace.counter("engine.memo.hits");
    let misses = trace.counter("engine.memo.misses");
    let default_split = ServeSplit {
        roundtrip_ms: 0.0,
        server_ms: 0.0,
        queue_wait_ms: 0.0,
        memo_hit_ratio: hits / (hits + misses).max(1.0),
    };
    let split = serve.unwrap_or(&default_split);
    let mut metrics = vec![
        metric("serve.roundtrip_ms", split.roundtrip_ms, "ms"),
        metric("serve.server_ms", split.server_ms, "ms"),
        metric("serve.queue_wait_ms", split.queue_wait_ms, "ms"),
        metric(
            "serve.transport_ms",
            split.roundtrip_ms - split.server_ms,
            "ms",
        ),
        metric("engine.memo_hit_ratio", split.memo_hit_ratio, "ratio"),
        metric("engine.canonical_ms", ms("engine.canonical"), "ms"),
        metric("spec.json.parse_ms", ms("spec.json.parse"), "ms"),
        metric(
            "spec.schema.from_json_ms",
            ms("spec.schema.from_json"),
            "ms",
        ),
        metric("spec.report.encode_ms", ms("spec.report.encode"), "ms"),
        metric(
            "spec.report.bytes_out",
            per_op(counts.bytes_out as f64),
            "bytes",
        ),
        metric(
            "spec.scenario.inner_solves",
            count("spec.solves") - count("engine.memo.misses"),
            "count",
        ),
        metric("markov.steady_ms", ms("markov.steady"), "ms"),
        metric(
            "markov.iterations",
            count("markov.steady.iterations"),
            "count",
        ),
        metric("semimarkov.solve_ms", ms("spec.solve.semi_markov"), "ms"),
        metric("spn.reach_ms", ms("spn.reach") + ms("spn.space"), "ms"),
        metric(
            "spn.markings",
            count("spn.reach.markings") + count("spn.space.markings"),
            "count",
        ),
        metric("stream.steady_ms", ms("stream.steady"), "ms"),
        metric("stream.scan_ms", ms("stream.scan"), "ms"),
        metric(
            "stream.iterations",
            count("stream.steady.iterations"),
            "count",
        ),
        metric("ftree.solve_ms", per_op(trace.fault_tree_solve_ms()), "ms"),
        metric(
            "ftree.cutsets_ms",
            ms("ftree.cutsets.mocus") + ms("ftree.cutsets.bdd"),
            "ms",
        ),
        metric("ftree.cut_sets", per_op(counts.cut_sets as f64), "count"),
        metric("ftree.compile_bdd_ms", ms("ftree.compile_bdd"), "ms"),
        metric("ftree.importance_ms", ms("ftree.importance"), "ms"),
        metric("bdd.nodes", per_op(counts.bdd_nodes as f64), "count"),
        metric("sim.run_ms", ms("sim.run"), "ms"),
        metric("sim.events", count("sim.events"), "count"),
        metric("trace.overhead_pct", overhead_pct, "%"),
    ];
    for (layer, self_ms) in trace.layer_self_ms()? {
        if !matches!(layer, "spec.json" | "spec.schema" | "spec.report") {
            metrics.push(metric(format!("{layer}.self_ms"), per_op(self_ms), "ms"));
        }
    }
    Ok(metrics)
}
