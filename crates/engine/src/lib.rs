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
//! solves get the whole budget. A shared memo cache keyed on
//! the canonical form of each spec ([`ModelSpec::canonical_string`])
//! lets structurally identical documents in one batch — common when
//! sweeping a parameter grid that leaves some models unchanged, or
//! when many files share boilerplate sub-models — reuse the solve
//! instead of repeating it.
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
use std::sync::Mutex;
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

/// Bounded memo cache: an `FxHashMap` (keys are canonical spec JSON the
/// process produced itself, so the fast non-DoS-resistant hash is safe)
/// plus a logical clock. Each hit or insert stamps the entry with the
/// current tick; when an insert would exceed `capacity`, the entry with
/// the oldest stamp is dropped (LRU by linear scan — capacities are
/// small enough that the scan is noise next to a solve).
///
/// Reports sit behind a `Box`. A `SolveReport` is about 600 bytes, so
/// inline reports made each bucket 640 bytes, and every empty bucket
/// cost as much: the full table was 1.25 MiB, and 2.5 MiB once a
/// daemon's eviction churn had left enough tombstones to make it grow.
/// Boxed, a bucket is 40 bytes.
#[derive(Debug, Default)]
struct MemoCache {
    map: FxHashMap<String, (Box<SolveReport>, u64)>,
    tick: u64,
    evictions: usize,
}

impl MemoCache {
    fn get(&mut self, key: &str) -> Option<SolveReport> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(report, stamp)| {
            *stamp = tick;
            SolveReport::clone(report)
        })
    }

    fn insert(&mut self, key: String, report: &SolveReport, capacity: usize) {
        self.tick += 1;
        if self.map.contains_key(&key) {
            return;
        }
        if capacity > 0 && self.map.len() >= capacity {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
                self.evictions += 1;
                obs::counter_add("engine.memo.evictions", 1);
            }
        }
        self.map.insert(key, (Box::new(report.clone()), self.tick));
    }
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

    /// Enables or disables the canonical-spec memo cache.
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
        let inputs: Vec<Result<&ModelSpec>> = specs.iter().map(Ok).collect();
        self.run(inputs)
    }

    /// Parses and solves a batch of JSON documents. Parse failures
    /// occupy their slot as `Err`; the remaining documents still solve.
    pub fn solve_texts<S: AsRef<str>>(&self, texts: &[S]) -> Vec<Result<SolveReport>> {
        let parsed: Vec<Result<ModelSpec>> = texts
            .iter()
            .map(|t| ModelSpec::from_json_str(t.as_ref()))
            .collect();
        let inputs: Vec<Result<&ModelSpec>> = parsed
            .iter()
            .map(|p| p.as_ref().map_err(clone_err))
            .collect();
        self.run(inputs)
    }

    fn run(&self, inputs: Vec<Result<&ModelSpec>>) -> Vec<Result<SolveReport>> {
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
        input: Result<&ModelSpec>,
        options: &SolveOptions,
    ) -> Result<SolveReport> {
        let _span = obs::span("engine.solve");
        lifecycle(idx, "start", None);
        let spec = match input {
            Ok(spec) => spec,
            Err(e) => {
                lock(&self.last_stats).errors += 1;
                obs::counter_add("engine.errors", 1);
                lifecycle(idx, "done", Some("err"));
                return Err(e);
            }
        };
        let key = if self.memoize {
            let key = spec.canonical_string();
            if let Some(hit) = lock(&self.cache).get(&key) {
                lock(&self.last_stats).memo_hits += 1;
                *lock(&self.kind_counts)
                    .entry(hit.measures.kind())
                    .or_insert(0) += 1;
                obs::counter_add("engine.memo.hits", 1);
                lifecycle(idx, "done", Some("memo"));
                return Ok(hit);
            }
            obs::counter_add("engine.memo.misses", 1);
            Some(key)
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
                if let Some(key) = key {
                    lock(&self.cache).insert(key, report, self.cache_capacity);
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
        let key = |doc: &str| ModelSpec::from_json_str(doc).unwrap().canonical_string();
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
