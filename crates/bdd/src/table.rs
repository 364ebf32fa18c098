//! Open-addressing unique table: the hash-consing index of the node
//! arena.
//!
//! The table stores bare node indices; keys `(var, low, high)` live in
//! the arena itself, so a probe costs one cache line for the slot plus
//! one arena read for the candidate — no tuple keys, no per-entry
//! allocation, and FxHash instead of SipHash. Deletion (needed by
//! level swaps during sifting) uses tombstones; tombstone build-up
//! triggers a same-size rehash, growth a doubling rehash, both bounded
//! by a 3/4 load factor. Garbage collection compacts the arena and
//! re-indexes from scratch via [`UniqueTable::rebuild_from_arena`].

use crate::NodeArena;
use reliab_core::fxhash::hash_u32x3;

const EMPTY: u32 = u32::MAX;
const DELETED: u32 = u32::MAX - 1;
const MIN_CAPACITY: usize = 256;

/// Result of probing for a key: the node that holds it, or the slot
/// where it should be inserted.
pub(crate) enum Probe {
    /// Key present: the canonical node.
    Found(u32),
    /// Key absent: insert position for [`UniqueTable::commit`].
    Insert(usize),
}

#[derive(Debug)]
pub(crate) struct UniqueTable {
    slots: Box<[u32]>,
    len: usize,
    tombstones: usize,
}

impl UniqueTable {
    pub(crate) fn new() -> Self {
        UniqueTable {
            slots: vec![EMPTY; MIN_CAPACITY].into_boxed_slice(),
            len: 0,
            tombstones: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn mask(&self) -> u64 {
        (self.slots.len() - 1) as u64
    }

    /// Looks up `(var, low, high)`, returning the canonical node or the
    /// slot to insert into (reusing the first tombstone on the probe
    /// path, keeping chains short).
    #[inline]
    pub(crate) fn probe(&self, arena: &NodeArena, var: u16, low: u32, high: u32) -> Probe {
        let mask = self.mask();
        let mut idx = (hash_u32x3(var as u32, low, high) & mask) as usize;
        let mut first_tombstone: Option<usize> = None;
        loop {
            let slot = self.slots[idx];
            if slot == EMPTY {
                return Probe::Insert(first_tombstone.unwrap_or(idx));
            }
            if slot == DELETED {
                if first_tombstone.is_none() {
                    first_tombstone = Some(idx);
                }
            } else if arena.var(slot) == var && arena.low(slot) == low && arena.high(slot) == high {
                return Probe::Found(slot);
            }
            idx = (idx + 1) & mask as usize;
        }
    }

    /// Fills the slot returned by [`UniqueTable::probe`] with `id`.
    /// Returns `true` if the caller must follow up with
    /// [`UniqueTable::rebuild`] (load factor exceeded).
    #[inline]
    pub(crate) fn commit(&mut self, slot: usize, id: u32) -> bool {
        if self.slots[slot] == DELETED {
            self.tombstones -= 1;
        }
        self.slots[slot] = id;
        self.len += 1;
        (self.len + self.tombstones) * 4 >= self.slots.len() * 3
    }

    /// Inserts `id` under its current arena key (no duplicate check
    /// beyond the probe). Used by level swaps, which re-key nodes in
    /// place, and by the post-GC re-index.
    pub(crate) fn insert(&mut self, arena: &NodeArena, id: u32) -> bool {
        match self.probe(arena, arena.var(id), arena.low(id), arena.high(id)) {
            Probe::Found(existing) => {
                debug_assert_eq!(existing, id, "duplicate unique-table key");
                false
            }
            Probe::Insert(slot) => self.commit(slot, id),
        }
    }

    /// Removes `id`, which must still carry the key it was inserted
    /// under (callers remove *before* rewriting a node in place).
    pub(crate) fn remove(&mut self, arena: &NodeArena, id: u32) {
        let mask = self.mask();
        let mut idx =
            (hash_u32x3(arena.var(id) as u32, arena.low(id), arena.high(id)) & mask) as usize;
        loop {
            let slot = self.slots[idx];
            if slot == id {
                self.slots[idx] = DELETED;
                self.len -= 1;
                self.tombstones += 1;
                return;
            }
            debug_assert!(
                slot != EMPTY,
                "removing a node absent from the unique table"
            );
            if slot == EMPTY {
                return;
            }
            idx = (idx + 1) & mask as usize;
        }
    }

    /// Rehashes into a table sized for the current population: doubles
    /// when genuinely full, otherwise just purges tombstones.
    pub(crate) fn rebuild(&mut self, arena: &NodeArena) {
        let target = (self.len * 2).max(MIN_CAPACITY).next_power_of_two();
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; target].into_boxed_slice());
        self.len = 0;
        self.tombstones = 0;
        for &slot in old.iter() {
            if slot != EMPTY && slot != DELETED {
                self.insert(arena, slot);
            }
        }
    }

    /// Drops every entry and re-indexes a freshly compacted arena,
    /// whose slots `2..len` are exactly the live decision nodes. The
    /// insertion order (ascending id) is fixed, so the table layout is
    /// deterministic after every collection.
    pub(crate) fn rebuild_from_arena(&mut self, arena: &NodeArena) {
        for s in self.slots.iter_mut() {
            *s = EMPTY;
        }
        self.len = 0;
        self.tombstones = 0;
        // Size up front: rebuild_from_arena runs right after
        // compaction, when the live population is known exactly.
        let target = (arena.len() * 2).max(MIN_CAPACITY).next_power_of_two();
        if target != self.slots.len() {
            self.slots = vec![EMPTY; target].into_boxed_slice();
        }
        for id in 2..arena.len() as u32 {
            self.insert(arena, id);
        }
    }
}
