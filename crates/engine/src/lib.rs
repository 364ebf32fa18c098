//! # reliab-engine
//!
//! Parallel batch solver engine: accepts a batch of model
//! specifications, fans them out across a thread pool, and returns one
//! instrumented [`SolveReport`] per input — in input order, with
//! results bitwise identical to solving sequentially.
//!
//! Every model is solved independently from its spec, so parallelism
//! changes wall time only, never values. The engine's worker count is
//! the batch's thread budget, split by [`Split`]: `min(budget, inputs)`
//! workers, each input solved on one thread, or a lone worker whose
//! solves get the whole budget. A shared memo cache, keyed on each
//! model's fingerprint ([`ModelSpec::fingerprint`]) confirmed by a
//! witness, lets structurally identical documents in one batch — common
//! when sweeping a parameter grid that leaves some models unchanged, or
//! when many files share boilerplate sub-models — reuse the solve
//! instead of repeating it. The witness is the document text an entry
//! was solved from (or, for [`BatchEngine::solve`], a shared copy of
//! the model): a match is a hit when the texts are byte-equal or the
//! witness parses to a model equal to the new one, so formatting, key
//! order, number spelling and ignored keys still hit, and a fingerprint
//! collision costs a miss, never another document's answer.
//!
//! ```
//! use reliab_engine::BatchEngine;
//! use reliab_spec::ModelSpec;
//!
//! # fn main() -> Result<(), reliab_core::Error> {
//! let doc = r#"{"rbd": {
//!     "components": [{"name": "a", "availability": 0.99},
//!                    {"name": "b", "availability": 0.99}],
//!     "structure": {"parallel": ["a", "b"]}}}"#;
//! let specs: Vec<ModelSpec> =
//!     (0..8).map(|_| ModelSpec::from_json_str(doc)).collect::<Result<_, _>>()?;
//! let reports = BatchEngine::new().with_jobs(4).solve(&specs);
//! assert_eq!(reports.len(), 8);
//! for r in &reports {
//!     let report = r.as_ref().unwrap();
//!     assert!(report.measures.availability().unwrap() > 0.999);
//! }
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod serve;

use reliab_core::fxhash::FxHashMap;
use reliab_core::{Error, Result, Split};
use reliab_obs as obs;
use reliab_spec::{ModelSpec, SolveOptions, SolveReport};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Counters describing what a batch run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct BatchStats {
    /// Number of specs solved from scratch.
    pub solved: usize,
    /// Number of specs answered from the memo cache.
    pub memo_hits: usize,
    /// Number of specs that failed.
    pub errors: usize,
    /// Memo-cache entries evicted (ever, on this engine) to respect
    /// [`BatchEngine::with_cache_capacity`].
    pub evictions: usize,
}

/// Memo cache entries are evicted beyond this many by default; see
/// [`BatchEngine::with_cache_capacity`].
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// What a memo entry was solved from: the document text
/// ([`BatchEngine::solve_texts`]) or a shared copy of the model
/// ([`BatchEngine::solve`]). A fingerprint match reuses the entry only
/// once its witness confirms the match.
#[derive(Debug, Clone)]
enum Witness {
    Text(Arc<str>),
    Model(Arc<ModelSpec>),
}

impl Witness {
    /// Whether the witness is the same model as `spec`, parsed from
    /// `text` if it came as one: a byte-equal text confirms at once,
    /// another text is parsed again. Call this outside the cache lock.
    fn confirms(&self, spec: &ModelSpec, text: Option<&str>) -> bool {
        match self {
            Witness::Text(witness) => {
                text == Some(&**witness)
                    || ModelSpec::from_json_str(witness).is_ok_and(|m| m == *spec)
            }
            Witness::Model(model) => **model == *spec,
        }
    }

    fn same(&self, other: &Witness) -> bool {
        match (self, other) {
            (Witness::Text(a), Witness::Text(b)) => Arc::ptr_eq(a, b),
            (Witness::Model(a), Witness::Model(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// One memo entry: the report, the witness that confirms a fingerprint
/// match, and the tick of its last use.
#[derive(Debug)]
struct Entry {
    witness: Witness,
    report: Box<SolveReport>,
    stamp: u64,
}

/// Bounded memo cache: an `FxHashMap` from model fingerprints
/// ([`ModelSpec::fingerprint`]) to entries, plus a logical clock. A
/// fingerprint is a 64-bit hash, so two models can share one; each
/// match is therefore confirmed by the entry's witness, and a collision
/// costs a miss, never another model's report. That also makes the
/// fast non-DoS-resistant hash safe here: a crafted collision only
/// keeps its document out of the cache. Each hit or insert stamps the
/// entry with the current tick; when an insert would exceed
/// `capacity`, the entry with the oldest stamp is dropped (LRU by
/// linear scan — capacities are small enough that the scan is noise
/// next to a solve). One fingerprint holds one entry: a second model
/// under it is solved every time it is asked for.
///
/// Reports sit behind a `Box`. A `SolveReport` is about 600 bytes, so
/// inline reports made each bucket 640 bytes, and every empty bucket
/// cost as much: the full table was 1.25 MiB, and 2.5 MiB once a
/// daemon's eviction churn had left enough tombstones to make it grow.
/// Boxed, a bucket is 40 bytes.
#[derive(Debug, Default)]
struct MemoCache {
    map: FxHashMap<u64, Entry>,
    tick: u64,
    evictions: usize,
}

impl MemoCache {
    fn witness(&self, fingerprint: u64) -> Option<Witness> {
        self.map
            .get(&fingerprint)
            .map(|entry| entry.witness.clone())
    }

    /// The report under `fingerprint` if `witness` still guards it.
    fn hit(&mut self, fingerprint: u64, witness: &Witness) -> Option<SolveReport> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.map.get_mut(&fingerprint)?;
        if !entry.witness.same(witness) {
            return None;
        }
        entry.stamp = tick;
        Some(SolveReport::clone(&entry.report))
    }

    fn insert(
        &mut self,
        fingerprint: u64,
        witness: Witness,
        report: &SolveReport,
        capacity: usize,
    ) {
        self.tick += 1;
        if self.map.contains_key(&fingerprint) {
            return;
        }
        if capacity > 0 && self.map.len() >= capacity {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, entry)| entry.stamp)
                .map(|(k, _)| *k)
            {
                self.map.remove(&oldest);
                self.evictions += 1;
                obs::counter_add("engine.memo.evictions", 1);
            }
        }
        let entry = Entry {
            witness,
            report: Box::new(report.clone()),
            stamp: self.tick,
        };
        self.map.insert(fingerprint, entry);
    }
}

/// One batch slot: the parsed model and, from
/// [`BatchEngine::solve_texts`], the text it was parsed from.
#[derive(Clone, Copy)]
struct Input<'a> {
    spec: &'a ModelSpec,
    text: Option<&'a str>,
}

/// A batch solver: configuration plus a memo cache that persists across
/// [`BatchEngine::solve`] calls on the same engine.
#[derive(Debug)]
pub struct BatchEngine {
    jobs: usize,
    options: SolveOptions,
    memoize: bool,
    cache_capacity: usize,
    cache: Mutex<MemoCache>,
    last_stats: Mutex<BatchStats>,
    kind_counts: Mutex<FxHashMap<&'static str, usize>>,
}

impl Default for BatchEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchEngine {
    /// An engine with default [`SolveOptions`], memoization on, and a
    /// thread budget of one per available CPU.
    #[must_use]
    pub fn new() -> Self {
        BatchEngine {
            jobs: 0,
            options: SolveOptions::default(),
            memoize: true,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            cache: Mutex::new(MemoCache::default()),
            last_stats: Mutex::new(BatchStats::default()),
            kind_counts: Mutex::new(FxHashMap::default()),
        }
    }

    /// Sets the thread budget: `0` means one per available CPU, `1`
    /// solves sequentially on the calling thread. A batch runs
    /// `min(jobs, inputs)` workers; each solve's
    /// [`SolveOptions::threads`] is derived from the budget by
    /// [`Split`], whatever [`BatchEngine::with_options`] set.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the per-solve options applied to every spec in the batch.
    /// Their `threads` is ignored: the engine's budget
    /// ([`BatchEngine::with_jobs`]) sets it.
    #[must_use]
    pub fn with_options(mut self, options: SolveOptions) -> Self {
        self.options = options;
        self
    }

    /// Enables or disables the memo cache (entries keyed on a model's
    /// fingerprint confirmed by a witness; see [`crate`]).
    #[must_use]
    pub fn with_memoization(mut self, memoize: bool) -> Self {
        self.memoize = memoize;
        self
    }

    /// Caps the memo cache at `capacity` entries (`0` = unbounded).
    /// When full, the least-recently-used entry is evicted; evictions
    /// are counted in [`BatchStats::evictions`] and in the
    /// `engine.memo.evictions` metric. Defaults to
    /// [`DEFAULT_CACHE_CAPACITY`].
    #[must_use]
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Counters from the most recent [`BatchEngine::solve`] /
    /// [`BatchEngine::solve_texts`] call.
    #[must_use]
    pub fn last_stats(&self) -> BatchStats {
        let mut stats = *lock(&self.last_stats);
        stats.evictions = lock(&self.cache).evictions;
        stats
    }

    /// Successful solves from the most recent batch, broken down by
    /// model class ([`reliab_spec::SolvedMeasures::kind`]), sorted by
    /// kind. Memo hits count toward the kind they resolved to.
    #[must_use]
    pub fn last_kind_counts(&self) -> Vec<(&'static str, usize)> {
        let mut counts: Vec<(&'static str, usize)> = lock(&self.kind_counts)
            .iter()
            .map(|(k, c)| (*k, *c))
            .collect();
        counts.sort_unstable();
        counts
    }

    /// Solves every spec, returning reports in input order. Per-spec
    /// failures occupy their slot as `Err` without disturbing the rest
    /// of the batch.
    pub fn solve(&self, specs: &[ModelSpec]) -> Vec<Result<SolveReport>> {
        let inputs = specs
            .iter()
            .map(|spec| Ok(Input { spec, text: None }))
            .collect();
        self.run(inputs)
    }

    /// Parses and solves a batch of JSON documents. Parse failures
    /// occupy their slot as `Err`; the remaining documents still solve.
    pub fn solve_texts<S: AsRef<str>>(&self, texts: &[S]) -> Vec<Result<SolveReport>> {
        let parsed: Vec<Result<ModelSpec>> = texts
            .iter()
            .map(|t| ModelSpec::from_json_str(t.as_ref()))
            .collect();
        let inputs = parsed
            .iter()
            .zip(texts)
            .map(|(parsed, text)| match parsed {
                Ok(spec) => Ok(Input {
                    spec,
                    text: Some(text.as_ref()),
                }),
                Err(e) => Err(clone_err(e)),
            })
            .collect();
        self.run(inputs)
    }

    fn run(&self, inputs: Vec<Result<Input<'_>>>) -> Vec<Result<SolveReport>> {
        *lock(&self.last_stats) = BatchStats::default();
        lock(&self.kind_counts).clear();
        let split = Split::new(self.jobs, inputs.len());
        let workers = split.workers;
        let options = self.options.clone().with_threads(split.per_item);
        let options = &options;
        // One batch = one request: every span and event below shares
        // the trace id minted here (unless the caller set one already).
        let _trace = obs::ensure_trace_id();
        let batch_span = obs::span("engine.batch");
        let batch_id = batch_span.id();
        obs::event(
            "engine.batch",
            &[("inputs", inputs.len().into()), ("workers", workers.into())],
        );
        obs::gauge_set("engine.workers", workers as f64);
        if obs::trace_enabled() {
            for idx in 0..inputs.len() {
                obs::event(
                    "engine.lifecycle",
                    &[("index", idx.into()), ("stage", "queued".into())],
                );
            }
        }
        let mut results: Vec<(usize, Result<SolveReport>)> = if workers <= 1 {
            inputs
                .into_iter()
                .enumerate()
                .map(|(i, input)| (i, self.solve_one(i, input, options)))
                .collect()
        } else {
            let inputs = &inputs;
            let next = AtomicUsize::new(0);
            let trace = obs::current_trace_id();
            let mut collected = Vec::with_capacity(inputs.len());
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let next = &next;
                        scope.spawn(move || {
                            // Workers are fresh threads: re-parent their
                            // spans under the batch span explicitly and
                            // re-apply the dispatching trace id.
                            let _trace = obs::set_trace_id(trace);
                            let _worker = obs::span_with_parent("engine.worker", batch_id);
                            let busy_start = obs::metrics_enabled().then(Instant::now);
                            let mut local = Vec::new();
                            loop {
                                let idx = next.fetch_add(1, Ordering::Relaxed);
                                if idx >= inputs.len() {
                                    if let Some(t0) = busy_start {
                                        obs::observe_ms(
                                            "engine.worker_busy_ms",
                                            t0.elapsed().as_secs_f64() * 1e3,
                                        );
                                    }
                                    return local;
                                }
                                let input = inputs[idx].as_ref().copied().map_err(clone_err);
                                local.push((idx, self.solve_one(idx, input, options)));
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    collected.extend(h.join().expect("batch worker panicked"));
                }
            });
            collected
        };
        obs::counter_add("engine.batches", 1);
        results.sort_by_key(|(idx, _)| *idx);
        results.into_iter().map(|(_, r)| r).collect()
    }

    fn solve_one(
        &self,
        idx: usize,
        input: Result<Input<'_>>,
        options: &SolveOptions,
    ) -> Result<SolveReport> {
        let _span = obs::span("engine.solve");
        lifecycle(idx, "start", None);
        let Input { spec, text } = match input {
            Ok(input) => input,
            Err(e) => {
                lock(&self.last_stats).errors += 1;
                obs::counter_add("engine.errors", 1);
                lifecycle(idx, "done", Some("err"));
                return Err(e);
            }
        };
        let fingerprint = if self.memoize {
            let fingerprint = spec.fingerprint();
            if let Some(hit) = self.lookup(fingerprint, spec, text) {
                lock(&self.last_stats).memo_hits += 1;
                *lock(&self.kind_counts)
                    .entry(hit.measures.kind())
                    .or_insert(0) += 1;
                obs::counter_add("engine.memo.hits", 1);
                lifecycle(idx, "done", Some("memo"));
                return Ok(hit);
            }
            obs::counter_add("engine.memo.misses", 1);
            Some(fingerprint)
        } else {
            None
        };
        let result = reliab_spec::solve_with(spec, options);
        match &result {
            Ok(report) => {
                let kind = report.measures.kind();
                lock(&self.last_stats).solved += 1;
                *lock(&self.kind_counts).entry(kind).or_insert(0) += 1;
                obs::counter_add("engine.specs.solved", 1);
                obs::counter_add(&format!("engine.specs.solved.{kind}"), 1);
                if let Some(fingerprint) = fingerprint {
                    let witness = match text {
                        Some(text) => Witness::Text(text.into()),
                        None => Witness::Model(Arc::new(spec.clone())),
                    };
                    lock(&self.cache).insert(fingerprint, witness, report, self.cache_capacity);
                }
                lifecycle(idx, "done", Some("ok"));
            }
            Err(_) => {
                lock(&self.last_stats).errors += 1;
                obs::counter_add("engine.errors", 1);
                lifecycle(idx, "done", Some("err"));
            }
        }
        result
    }

    /// The memo's report for `spec`, if the entry under `fingerprint`
    /// holds the same model: its witness is `text` byte for byte, or
    /// is (or parses to) a model equal to `spec`.
    fn lookup(
        &self,
        fingerprint: u64,
        spec: &ModelSpec,
        text: Option<&str>,
    ) -> Option<SolveReport> {
        let witness = lock(&self.cache).witness(fingerprint)?;
        if !witness.confirms(spec, text) {
            return None;
        }
        lock(&self.cache).hit(fingerprint, &witness)
    }
}

/// Emits one `engine.lifecycle` trace event. Spec slots move through
/// `queued` → `start` → `done`; `done` carries an `outcome` of `ok`,
/// `err`, or `memo`.
fn lifecycle(idx: usize, stage: &'static str, outcome: Option<&'static str>) {
    if !obs::trace_enabled() {
        return;
    }
    match outcome {
        Some(o) => obs::event(
            "engine.lifecycle",
            &[
                ("index", idx.into()),
                ("stage", stage.into()),
                ("outcome", o.into()),
            ],
        ),
        None => obs::event(
            "engine.lifecycle",
            &[("index", idx.into()), ("stage", stage.into())],
        ),
    }
}

/// `reliab_core::Error` is not `Clone`; rebuild an equivalent error for
/// slots that share one parse failure. `Error::invalid` prefixes its
/// message on display, so strip an existing prefix instead of stacking
/// a second one.
fn clone_err(e: &Error) -> Error {
    let msg = e.to_string();
    Error::invalid(
        msg.strip_prefix("invalid parameter: ")
            .unwrap_or(&msg)
            .to_owned(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rbd_doc(availability: f64) -> String {
        format!(
            r#"{{"rbd": {{
                "components": [{{"name": "a", "availability": {availability}}},
                               {{"name": "b", "availability": {availability}}}],
                "structure": {{"parallel": ["a", "b"]}}}}}}"#
        )
    }

    #[test]
    fn batch_results_keep_input_order() {
        let docs: Vec<String> = (1..=9).map(|i| rbd_doc(i as f64 / 10.0)).collect();
        let engine = BatchEngine::new().with_jobs(4);
        let reports = engine.solve_texts(&docs);
        assert_eq!(reports.len(), 9);
        for (i, r) in reports.iter().enumerate() {
            let p = (i + 1) as f64 / 10.0;
            let expected = 1.0 - (1.0 - p) * (1.0 - p);
            let got = r.as_ref().unwrap().measures.availability().unwrap();
            assert!((got - expected).abs() < 1e-12, "slot {i}");
        }
    }

    #[test]
    fn parallel_matches_sequential_measures() {
        let docs: Vec<String> = (1..=16).map(|i| rbd_doc(i as f64 / 20.0)).collect();
        let sequential = BatchEngine::new().with_jobs(1).solve_texts(&docs);
        let parallel = BatchEngine::new().with_jobs(8).solve_texts(&docs);
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(s.as_ref().unwrap().measures, p.as_ref().unwrap().measures);
        }
    }

    #[test]
    fn memoization_dedupes_identical_specs() {
        let docs = vec![rbd_doc(0.9), rbd_doc(0.9), rbd_doc(0.9), rbd_doc(0.8)];
        let engine = BatchEngine::new().with_jobs(1);
        let reports = engine.solve_texts(&docs);
        assert!(reports.iter().all(Result::is_ok));
        let stats = engine.last_stats();
        assert_eq!(stats.solved, 2);
        assert_eq!(stats.memo_hits, 2);
        // The cache persists: a second batch of the same docs is all hits.
        engine.solve_texts(&docs);
        assert_eq!(engine.last_stats().memo_hits, 4);
    }

    #[test]
    fn memoization_can_be_disabled() {
        let docs = vec![rbd_doc(0.9), rbd_doc(0.9)];
        let engine = BatchEngine::new().with_jobs(1).with_memoization(false);
        engine.solve_texts(&docs);
        let stats = engine.last_stats();
        assert_eq!(stats.solved, 2);
        assert_eq!(stats.memo_hits, 0);
    }

    #[test]
    fn per_spec_failures_do_not_poison_the_batch() {
        let docs = vec![rbd_doc(0.9), "not json".to_owned(), rbd_doc(0.8)];
        let engine = BatchEngine::new().with_jobs(2);
        let reports = engine.solve_texts(&docs);
        assert!(reports[0].is_ok());
        assert!(reports[1].is_err());
        assert!(reports[2].is_ok());
        assert_eq!(engine.last_stats().errors, 1);
    }

    #[test]
    fn cache_capacity_evicts_least_recently_used() {
        // Capacity 2, three distinct docs: the third insert evicts the
        // oldest entry.
        let docs = vec![rbd_doc(0.7), rbd_doc(0.8), rbd_doc(0.9)];
        let engine = BatchEngine::new().with_jobs(1).with_cache_capacity(2);
        engine.solve_texts(&docs);
        let stats = engine.last_stats();
        assert_eq!(stats.solved, 3);
        assert_eq!(stats.evictions, 1);
        // 0.7 was evicted; re-solving it misses, while 0.9 still hits.
        engine.solve_texts(&[rbd_doc(0.9)]);
        assert_eq!(engine.last_stats().memo_hits, 1);
        engine.solve_texts(&[rbd_doc(0.7)]);
        let stats = engine.last_stats();
        assert_eq!(stats.memo_hits, 0);
        assert_eq!(stats.solved, 1);
    }

    #[test]
    fn cache_hit_refreshes_recency() {
        let engine = BatchEngine::new().with_jobs(1).with_cache_capacity(2);
        engine.solve_texts(&[rbd_doc(0.7), rbd_doc(0.8)]);
        // Touch 0.7 so 0.8 becomes the LRU entry, then insert a third.
        engine.solve_texts(&[rbd_doc(0.7)]);
        assert_eq!(engine.last_stats().memo_hits, 1);
        engine.solve_texts(&[rbd_doc(0.9)]);
        // 0.7 must have survived the eviction.
        engine.solve_texts(&[rbd_doc(0.7)]);
        assert_eq!(engine.last_stats().memo_hits, 1);
    }

    /// A daemon pushes far more distinct documents through the memo
    /// than it holds. After 25 times its capacity in distinct misses the
    /// cache holds exactly `capacity` entries, the newest, still in LRU
    /// order, and a hit returns the measures bytes of the miss.
    #[test]
    fn churn_keeps_capacity_lru_order_and_hit_bytes() {
        const CAPACITY: usize = 8;
        let docs: Vec<String> = (0..25 * CAPACITY)
            .map(|i| rbd_doc(0.5 + i as f64 / 1000.0))
            .collect();
        let key = |doc: &str| ModelSpec::from_json_str(doc).unwrap().fingerprint();
        let engine = BatchEngine::new()
            .with_jobs(1)
            .with_cache_capacity(CAPACITY);
        let missed: Vec<String> = engine
            .solve_texts(&docs)
            .iter()
            .map(|r| r.as_ref().unwrap().measures.to_json().to_json())
            .collect();
        let stats = engine.last_stats();
        assert_eq!(stats.solved, docs.len());
        assert_eq!(stats.evictions, docs.len() - CAPACITY);
        let newest = &docs[docs.len() - CAPACITY..];
        {
            let cache = lock(&engine.cache);
            assert_eq!(cache.map.len(), CAPACITY);
            assert!(newest.iter().all(|d| cache.map.contains_key(&key(d))));
        }

        // Touch the oldest survivor; the next miss must evict the one
        // after it instead.
        engine.solve_texts(&newest[..1]);
        assert_eq!(engine.last_stats().memo_hits, 1);
        engine.solve_texts(&[rbd_doc(0.25)]);
        {
            let cache = lock(&engine.cache);
            assert_eq!(cache.map.len(), CAPACITY);
            assert!(cache.map.contains_key(&key(&newest[0])));
            assert!(!cache.map.contains_key(&key(&newest[1])));
        }
        assert_eq!(engine.last_stats().evictions, docs.len() - CAPACITY + 1);

        let last = docs.len() - 1;
        let hit = engine.solve_texts(&docs[last..]);
        assert_eq!(engine.last_stats().memo_hits, 1);
        assert_eq!(
            hit[0].as_ref().unwrap().measures.to_json().to_json(),
            missed[last]
        );
    }

    const HIERARCHY: &str = r#"{"hierarchy": {"submodels": [
        {"name": "disk",
         "model": {"rbd": {"components": [{"name": "d", "availability": 0.98}],
                           "structure": "d"}},
         "measure": "availability"},
        {"name": "sys",
         "model": {"rbd": {"components": [{"name": "front", "availability": 0.9},
                                          {"name": "store", "availability": 1.0}],
                           "structure": {"series": ["front", "store"]}}},
         "measure": "availability",
         "imports": [{"from": "disk", "path": "rbd.components.1.availability"}]}],
        "tolerance": 1e-10}}"#;

    /// [`HIERARCHY`] with the keys of every object in another order.
    const HIERARCHY_REORDERED: &str = r#"{"hierarchy": {"tolerance": 1e-10, "submodels": [
        {"measure": "availability", "name": "disk",
         "model": {"rbd": {"structure": "d", "components": [{"availability": 0.98, "name": "d"}]}}},
        {"imports": [{"path": "rbd.components.1.availability", "from": "disk"}],
         "measure": "availability", "name": "sys",
         "model": {"rbd": {"structure": {"series": ["front", "store"]},
                           "components": [{"availability": 0.9, "name": "front"},
                                          {"availability": 1.0, "name": "store"}]}}}]}}"#;

    /// Solves `base` on a fresh engine, then each of `variants`: every
    /// variant is a memo hit whose report is the base's byte for byte.
    fn assert_variants_hit(base: &str, variants: &[String]) {
        let engine = BatchEngine::new().with_jobs(1);
        let first = engine.solve_texts(&[base]).remove(0).unwrap();
        let first = first.to_json().to_json();
        for variant in variants {
            let again = engine.solve_texts(&[variant]).remove(0).unwrap();
            let stats = engine.last_stats();
            assert_eq!((stats.solved, stats.memo_hits), (0, 1), "{variant}");
            assert_eq!(again.to_json().to_json(), first, "{variant}");
        }
    }

    /// Documents that parse to one model share an entry, whatever their
    /// formatting, key order, number spelling or ignored keys.
    #[test]
    fn equal_models_in_other_spellings_hit() {
        let doc = reliab_spec::json::parse(HIERARCHY).unwrap();
        assert_variants_hit(
            HIERARCHY,
            &[
                doc.to_json(),
                doc.to_json_pretty(),
                HIERARCHY_REORDERED.to_owned(),
                HIERARCHY.replace(r#""tolerance""#, r#""jobs": 4, "tolerance""#),
                HIERARCHY
                    .replace("0.98", "9.8e-1")
                    .replace("1e-10", "0.0000000001"),
            ],
        );
        let base = rbd_doc(0.9);
        assert_variants_hit(
            &base,
            &[base.replace("0.9", "0.90"), base.replace("0.9", "9e-1")],
        );
        let zero = rbd_doc(0.0).replace(r#""availability": 0}"#, r#""availability": 0.0}"#);
        assert_variants_hit(&zero, &[zero.replacen("0.0", "-0", 1)]);
    }

    /// The SPN `"solver"` key is ignored, so the two shipped tandem
    /// documents that differ only by it are one model: one batch solves
    /// the first and answers the second from the memo, byte for byte.
    #[test]
    fn spn_documents_differing_only_by_solver_share_an_entry() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
        let texts: Vec<String> = ["tandem_rework.json", "tandem_rework_stream.json"]
            .iter()
            .map(|name| std::fs::read_to_string(format!("{dir}/{name}")).unwrap())
            .collect();
        assert_ne!(texts[0], texts[1]);
        let engine = BatchEngine::new().with_jobs(1);
        let reports: Vec<String> = engine
            .solve_texts(&texts)
            .into_iter()
            .map(|r| r.unwrap().to_json().to_json())
            .collect();
        let stats = engine.last_stats();
        assert_eq!((stats.solved, stats.memo_hits), (1, 1));
        assert_eq!(reports[0], reports[1]);
    }

    /// A last-bit change of one number or a renamed component is
    /// another model and solves afresh.
    #[test]
    fn unequal_models_miss() {
        let engine = BatchEngine::new().with_jobs(1);
        let base = rbd_doc(0.9);
        engine.solve_texts(&[&base]);
        let last_bit = base.replacen("0.9", &f64::next_up(0.9).to_string(), 1);
        let renamed = base.replace(r#""b""#, r#""c""#);
        for other in [last_bit, renamed] {
            assert_ne!(other, base);
            engine.solve_texts(&[&other]);
            let stats = engine.last_stats();
            assert_eq!((stats.solved, stats.memo_hits), (1, 0), "{other}");
        }
    }

    /// Texts and parsed models share entries: a model hits the entry a
    /// text filled, and a text the entry a model filled.
    #[test]
    fn texts_and_models_share_entries() {
        for (fill_text, doc) in [(true, rbd_doc(0.9)), (false, rbd_doc(0.8))] {
            let engine = BatchEngine::new().with_jobs(1);
            let spec = ModelSpec::from_json_str(&doc).unwrap();
            let pretty = reliab_spec::json::parse(&doc).unwrap().to_json_pretty();
            let first = if fill_text {
                engine.solve_texts(&[&doc])
            } else {
                engine.solve(std::slice::from_ref(&spec))
            };
            let again = if fill_text {
                engine.solve(&[spec])
            } else {
                engine.solve_texts(&[pretty])
            };
            assert_eq!(engine.last_stats().memo_hits, 1);
            let bytes = |r: &[Result<SolveReport>]| r[0].as_ref().unwrap().to_json().to_json();
            assert_eq!(bytes(&again), bytes(&first));
        }
    }

    /// Two unequal models forced under one fingerprint: the second is
    /// never answered with the first's report, through either witness,
    /// and cannot displace the first's entry.
    #[test]
    fn a_fingerprint_collision_is_a_miss() {
        const SHARED: u64 = 7;
        let engine = BatchEngine::new();
        let (a, b) = (rbd_doc(0.9), rbd_doc(0.8));
        let spec_a = ModelSpec::from_json_str(&a).unwrap();
        let spec_b = ModelSpec::from_json_str(&b).unwrap();
        let options = SolveOptions::default();
        let report_a = reliab_spec::solve_with(&spec_a, &options).unwrap();
        let report_b = reliab_spec::solve_with(&spec_b, &options).unwrap();
        let witnesses = [
            Witness::Text(a.as_str().into()),
            Witness::Model(Arc::new(spec_a.clone())),
        ];
        for witness in witnesses {
            let mut cache = MemoCache::default();
            cache.insert(SHARED, witness, &report_a, 0);
            cache.insert(SHARED, Witness::Text(b.as_str().into()), &report_b, 0);
            *lock(&engine.cache) = cache;
            assert!(engine.lookup(SHARED, &spec_b, Some(&b)).is_none());
            assert!(engine.lookup(SHARED, &spec_b, None).is_none());
            for text in [Some(a.as_str()), None] {
                let hit = engine.lookup(SHARED, &spec_a, text).unwrap();
                assert_eq!(hit.to_json().to_json(), report_a.to_json().to_json());
            }
        }
    }

    /// Memo reports live behind a pointer: a `SolveReport` is hundreds
    /// of bytes, and the table's empty slots and tombstone-driven growth
    /// would each cost that much if buckets held reports inline.
    #[test]
    fn memo_bucket_stays_small() {
        fn bucket_size<K, V, S>(_: &std::collections::HashMap<K, V, S>) -> usize {
            std::mem::size_of::<(K, V)>()
        }
        let size = bucket_size(&MemoCache::default().map);
        assert!(size <= 64, "memo bucket is {size} bytes");
    }

    #[test]
    fn zero_capacity_means_unbounded() {
        let docs: Vec<String> = (1..=9).map(|i| rbd_doc(i as f64 / 10.0)).collect();
        let engine = BatchEngine::new().with_jobs(1).with_cache_capacity(0);
        engine.solve_texts(&docs);
        assert_eq!(engine.last_stats().evictions, 0);
        engine.solve_texts(&docs);
        assert_eq!(engine.last_stats().memo_hits, 9);
    }

    #[test]
    fn empty_batch_is_fine() {
        let engine = BatchEngine::new();
        assert!(engine.solve(&[]).is_empty());
        assert_eq!(engine.last_stats(), BatchStats::default());
    }

    #[test]
    fn kind_counts_aggregate_by_model_class() {
        let ctmc = r#"{"ctmc": {
            "states": ["up", "down"],
            "transitions": [{"from": "up", "to": "down", "rate": 0.01},
                            {"from": "down", "to": "up", "rate": 1.0}],
            "up_states": ["up"]}}"#
            .to_owned();
        let docs = vec![rbd_doc(0.9), ctmc, rbd_doc(0.9), rbd_doc(0.8)];
        let engine = BatchEngine::new().with_jobs(1);
        engine.solve_texts(&docs);
        // Memo hits count toward their kind: 3 rbd + 1 ctmc.
        assert_eq!(engine.last_kind_counts(), vec![("ctmc", 1), ("rbd", 3)]);
        // Counts reset per batch.
        engine.solve_texts(&[rbd_doc(0.7)]);
        assert_eq!(engine.last_kind_counts(), vec![("rbd", 1)]);
    }
}
