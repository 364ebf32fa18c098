//! Bounded, direct-mapped ITE computed-table.
//!
//! One slot per hash bucket, overwrite on collision: the classic BDD
//! computed-table design (Brace–Rudell–Bryant). Unlike the previous
//! unbounded `HashMap`, memory is capped — an eviction costs at most a
//! recomputation, never an out-of-memory on long batch runs.
//!
//! Invalidation is generation-tagged: bumping a 32-bit generation
//! counter retires every entry in O(1), which is how garbage collection
//! guards against node-id reuse without touching each slot.
//!
//! The table starts small and doubles under sustained eviction pressure
//! (evictions since the last resize exceeding the table length) up to
//! the configured capacity, so small models never pay for a large
//! cache. Growth is deliberately reluctant and invalidation shrinks the
//! table back to its initial size: useful hits are temporally local, so
//! a compact, cache-resident table wins over a large one.

use crate::NodeId;
use reliab_core::fxhash::hash_u32x3;

/// Default maximum number of cache entries (power of two). At 20 bytes
/// an entry this bounds the cache at ~20 MiB.
pub(crate) const DEFAULT_ITE_CACHE_CAPACITY: usize = 1 << 20;

const INITIAL_ENTRIES: usize = 1 << 12;
const MIN_CAPACITY: usize = 1 << 6;

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    f: u32,
    g: u32,
    h: u32,
    r: u32,
    generation: u32,
}

#[derive(Debug)]
pub(crate) struct IteCache {
    entries: Vec<Entry>,
    /// Entries tagged with a different generation are logically absent.
    /// Starts at 1 so that zero-initialized slots never match.
    generation: u32,
    capacity: usize,
    occupied: usize,
    lookups: u64,
    hits: u64,
    evictions: u64,
    /// Evictions since the last resize; drives adaptive growth.
    pressure: usize,
}

impl IteCache {
    /// `capacity` is the maximum entry count; `0` selects the default.
    /// Values are clamped to a power of two in `[64, 2^30]`.
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = if capacity == 0 {
            DEFAULT_ITE_CACHE_CAPACITY
        } else {
            capacity.clamp(MIN_CAPACITY, 1 << 30).next_power_of_two()
        };
        IteCache {
            entries: Vec::new(),
            generation: 1,
            capacity,
            occupied: 0,
            lookups: 0,
            hits: 0,
            evictions: 0,
            pressure: 0,
        }
    }

    pub(crate) fn lookups(&self) -> u64 {
        self.lookups
    }

    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Live entries in the current generation.
    pub(crate) fn len(&self) -> usize {
        self.occupied
    }

    #[inline]
    pub(crate) fn get(&mut self, f: NodeId, g: NodeId, h: NodeId) -> Option<NodeId> {
        self.lookups += 1;
        if self.entries.is_empty() {
            return None;
        }
        let idx = (hash_u32x3(f.0, g.0, h.0) & (self.entries.len() - 1) as u64) as usize;
        let e = self.entries[idx];
        if e.generation == self.generation && e.f == f.0 && e.g == g.0 && e.h == h.0 {
            self.hits += 1;
            Some(NodeId(e.r))
        } else {
            None
        }
    }

    #[inline]
    pub(crate) fn put(&mut self, f: NodeId, g: NodeId, h: NodeId, r: NodeId) {
        if self.entries.is_empty() {
            self.entries = vec![Entry::default(); INITIAL_ENTRIES.min(self.capacity)];
        }
        let idx = (hash_u32x3(f.0, g.0, h.0) & (self.entries.len() - 1) as u64) as usize;
        let e = &mut self.entries[idx];
        if e.generation != self.generation {
            self.occupied += 1;
        } else if e.f != f.0 || e.g != g.0 || e.h != h.0 {
            self.evictions += 1;
            self.pressure += 1;
        }
        *e = Entry {
            f: f.0,
            g: g.0,
            h: h.0,
            r: r.0,
            generation: self.generation,
        };
        if self.pressure >= self.entries.len() && self.entries.len() < self.capacity {
            self.grow();
        }
    }

    /// Doubles the table, rehashing the current generation's entries
    /// into it. Keeping the contents matters: every dropped entry is a
    /// future recomputation, and the table doubles ~10 times while a
    /// large compile ramps up to the configured capacity.
    fn grow(&mut self) {
        let target = (self.entries.len() * 2).min(self.capacity);
        let old = std::mem::replace(&mut self.entries, vec![Entry::default(); target]);
        let mask = (target - 1) as u64;
        let mut kept = 0;
        for e in old {
            if e.generation == self.generation {
                let slot = &mut self.entries[(hash_u32x3(e.f, e.g, e.h) & mask) as usize];
                if slot.generation != self.generation {
                    kept += 1;
                }
                *slot = e;
            }
        }
        self.occupied = kept;
        self.pressure = 0;
    }

    /// Retires every entry by bumping the generation tag. Called by
    /// GC: freed node ids may be re-allocated to different functions,
    /// so stale results must never be served.
    ///
    /// Also releases the table storage: every entry is dead after the
    /// bump, and restarting small restores cache locality for the next
    /// burst of operations (the table regrows under eviction pressure).
    /// Measured on large compiles, useful ITE hits are overwhelmingly
    /// temporally local, so a compact table hits almost as often as a
    /// huge one and probes far faster.
    pub(crate) fn invalidate_all(&mut self) {
        self.occupied = 0;
        self.pressure = 0;
        self.entries = Vec::new();
        if self.generation == u32::MAX {
            self.generation = 1;
        } else {
            self.generation += 1;
        }
    }
}
