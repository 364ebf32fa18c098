//! Set families as zero-suppressed BDDs (ZBDDs), and Rauzy's minimal
//! solutions.
//!
//! A ZBDD node `(level, lo, hi)` stands for the family
//! `lo ∪ {s ∪ {x} : s ∈ hi}`, where `x` is the variable at `level`; a
//! node whose `hi` child is the empty family is never built (Minato's
//! zero-suppression rule). Sets that share structure share nodes, so a
//! family of 10^5 cut sets takes a few thousand nodes.
//!
//! [`Bdd::minimal_family`] runs Rauzy's MinSol over a monotone BDD. For
//! `f = ite(x, f1, f0)` with `f0 ≤ f1`:
//!
//! ```text
//! MinSol(f) = (x, MinSol(f0), MinSol(f1) without MinSol(f0))
//! ```
//!
//! where `P without Q` keeps the sets of `P` that contain no set of
//! `Q`. One memoized pass visits each BDD node once, in the BDD's
//! current level order, so a sifted BDD needs nothing special.
//! [`Bdd::dual_minimal_family`] does the same for the dual function
//! `f^d(x) = ¬f(¬x)` without building a BDD node: the traversal swaps
//! each node's children and the two terminals. For a failure function
//! the two families are the minimal cut sets and minimal path sets; for
//! a works function the roles swap.
//!
//! The family has its own packed arena, FxHash unique table and
//! direct-mapped `without` table (the BDD's types, separate instances),
//! so building it leaves the BDD and its statistics untouched.

use crate::cache::IteCache;
use crate::table::{Probe, UniqueTable};
use crate::{Bdd, NodeArena, NodeId, NONE};

/// The empty family.
const EMPTY: u32 = 0;
/// The family holding only the empty set.
const BASE: u32 = 1;

/// A family of sets of BDD variables, held as a ZBDD.
///
/// Built by [`Bdd::minimal_family`] or [`Bdd::dual_minimal_family`];
/// count it with [`SetFamily::count`] before listing it with
/// [`SetFamily::sets`], which allocates one vector per set.
#[derive(Debug)]
pub struct SetFamily {
    /// ZBDD nodes; a node's `var` tag holds its level.
    arena: NodeArena,
    unique: UniqueTable,
    without: IteCache,
    root: u32,
    /// The BDD's variable order when the family was built.
    level2var: Vec<u32>,
}

impl Bdd {
    /// Minimal solutions of a **monotone** (coherent) `f` as a ZBDD
    /// family: the inclusion-minimal sets of variables whose joint
    /// truth forces `f` true — the minimal cut sets when `f` is a
    /// failure function over component-failure variables.
    ///
    /// The result is only meaningful for monotone `f`; fault trees and
    /// block diagrams without NOT gates are monotone by construction.
    pub fn minimal_family(&self, f: NodeId) -> SetFamily {
        SetFamily::min_sol(self, f, false)
    }

    /// Minimal solutions of the dual `f^d(x) = ¬f(¬x)` of a monotone
    /// `f`: the minimal sets of variables whose joint falsity forces
    /// `f` false — the minimal path sets of a failure function, or the
    /// minimal cut sets of a works function.
    pub fn dual_minimal_family(&self, f: NodeId) -> SetFamily {
        SetFamily::min_sol(self, f, true)
    }

    /// [`Bdd::minimal_family`] listed as sorted variable lists, by
    /// length and then lexicographically.
    pub fn minimal_solutions(&self, f: NodeId) -> Vec<Vec<u32>> {
        self.minimal_family(f).sets(|v| v)
    }
}

impl SetFamily {
    fn min_sol(bdd: &Bdd, f: NodeId, dual: bool) -> SetFamily {
        let mut family = SetFamily {
            arena: NodeArena::with_terminals(),
            unique: UniqueTable::new(),
            without: IteCache::new(0),
            root: EMPTY,
            level2var: bdd.level2var.clone(),
        };
        let mut memo = vec![NONE; bdd.arena.len()];
        family.root = family.min_sol_at(bdd, f.0, dual, &mut memo);
        family
    }

    fn min_sol_at(&mut self, bdd: &Bdd, f: u32, dual: bool, memo: &mut [u32]) -> u32 {
        if f < 2 {
            // TRUE is solved by the empty set; the dual swaps terminals.
            return if (f == NodeId::TRUE.0) != dual {
                BASE
            } else {
                EMPTY
            };
        }
        if memo[f as usize] != NONE {
            return memo[f as usize];
        }
        let (mut f0, mut f1) = (bdd.arena.low(f), bdd.arena.high(f));
        if dual {
            std::mem::swap(&mut f0, &mut f1);
        }
        let z0 = self.min_sol_at(bdd, f0, dual, memo);
        let z1 = self.min_sol_at(bdd, f1, dual, memo);
        let hi = self.without(z1, z0);
        let level = bdd.level_of_var(bdd.arena.var(f) as u32);
        let r = self.mk(level, z0, hi);
        memo[f as usize] = r;
        r
    }

    /// Hash-consed, zero-suppressed node constructor. Nodes are only
    /// ever appended after their children, so ids are topologically
    /// ordered — [`SetFamily::count`] relies on it.
    fn mk(&mut self, level: u32, lo: u32, hi: u32) -> u32 {
        if hi == EMPTY {
            return lo;
        }
        match self.unique.probe(&self.arena, level as u16, lo, hi) {
            Probe::Found(id) => id,
            Probe::Insert(slot) => {
                let id = self.arena.push(level as u16, lo, hi);
                if self.unique.commit(slot, id) {
                    self.unique.rebuild(&self.arena);
                }
                id
            }
        }
    }

    /// The sets of `p` that contain no set of `q`, for antichains `p`
    /// and `q` (no set contains another). Every family built here is
    /// one: minimal solutions are, and so are the children of an
    /// antichain's nodes and any subfamily of it.
    fn without(&mut self, p: u32, q: u32) -> u32 {
        if p == EMPTY || q == EMPTY {
            return p;
        }
        if p == q || q == BASE {
            return EMPTY;
        }
        if p == BASE {
            // An antichain holding the empty set holds nothing else, so
            // `q`, not BASE, lacks it.
            return BASE;
        }
        let key = (NodeId(p), NodeId(q), NodeId::FALSE);
        if let Some(r) = self.without.get(key.0, key.1, key.2) {
            return r.0;
        }
        let (lp, lq) = (self.arena.var(p), self.arena.var(q));
        let r = if lp > lq {
            // `q`'s top variable is in no set of `p`: only `q`'s sets
            // without it can be subsets.
            self.without(p, self.arena.low(q))
        } else {
            let (q0, q1) = if lp == lq {
                (self.arena.low(q), self.arena.high(q))
            } else {
                (q, EMPTY)
            };
            let lo = self.without(self.arena.low(p), q0);
            let hi = self.without(self.arena.high(p), q0);
            let hi = self.without(hi, q1);
            self.mk(lp as u32, lo, hi)
        };
        self.without.put(key.0, key.1, key.2, NodeId(r));
        r
    }

    /// Number of sets in the family, saturating at `u64::MAX`. Costs
    /// one pass over the family's nodes; lists nothing.
    pub fn count(&self) -> u64 {
        let mut counts = vec![0u64; self.arena.len()];
        counts[BASE as usize] = 1;
        for z in 2..self.arena.len() {
            let (lo, hi) = (self.arena.low(z as u32), self.arena.high(z as u32));
            counts[z] = counts[lo as usize].saturating_add(counts[hi as usize]);
        }
        counts[self.root as usize]
    }

    /// The family's sets with each variable mapped through `label`,
    /// every set sorted ascending, listed by length and then
    /// lexicographically — a total order, so the list is unique.
    pub fn sets<T: Ord + Copy>(&self, label: impl Fn(u32) -> T) -> Vec<Vec<T>> {
        let labels: Vec<T> = self.level2var.iter().map(|&v| label(v)).collect();
        let mut out = Vec::new();
        self.list_rec(self.root, &mut Vec::new(), &labels, &mut out);
        // The walk takes `hi` before `lo`, so with labels rising by
        // level it lists lexicographically: the stable sort by length
        // then leaves a run that the full sort only has to scan.
        out.sort_by_key(Vec::len);
        out.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        out
    }

    /// Walks `lo` chains in a loop and recurses only into `hi`
    /// children, so the depth is bounded by the largest set.
    fn list_rec<T: Ord + Copy>(
        &self,
        mut z: u32,
        prefix: &mut Vec<T>,
        labels: &[T],
        out: &mut Vec<Vec<T>>,
    ) {
        while z >= 2 {
            prefix.push(labels[self.arena.var(z) as usize]);
            self.list_rec(self.arena.high(z), prefix, labels, out);
            prefix.pop();
            z = self.arena.low(z);
        }
        if z == BASE {
            let mut set = prefix.clone();
            set.sort_unstable();
            out.push(set);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The inclusion-minimal masks over `n` variables on which `holds`
    /// is true, listed like [`SetFamily::sets`].
    fn brute_minimal(n: u32, holds: impl Fn(u32) -> bool) -> Vec<Vec<u32>> {
        let sols: Vec<u32> = (0..1u32 << n).filter(|&m| holds(m)).collect();
        let mut out: Vec<Vec<u32>> = sols
            .iter()
            .filter(|&&m| !sols.iter().any(|&s| s != m && s & m == s))
            .map(|&m| (0..n).filter(|i| m >> i & 1 == 1).collect())
            .collect();
        out.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        out
    }

    fn bridge_works(b: &mut Bdd) -> NodeId {
        let e: Vec<NodeId> = (0..5).map(|i| b.var(i).unwrap()).collect();
        let paths = [[0, 3].as_slice(), &[1, 4], &[0, 2, 4], &[1, 2, 3]];
        let terms: Vec<NodeId> = paths
            .iter()
            .map(|p| {
                let xs: Vec<NodeId> = p.iter().map(|&i| e[i]).collect();
                b.and_all(xs)
            })
            .collect();
        b.or_all(terms)
    }

    #[test]
    fn dual_family_is_the_minimal_transversal() {
        let mut b = Bdd::new(5);
        let works = bridge_works(&mut b);
        let eval = |b: &Bdd, m: u32| {
            let a: Vec<bool> = (0..5).map(|i| m >> i & 1 == 1).collect();
            b.eval(works, &a).unwrap()
        };
        let paths = b.minimal_family(works);
        assert_eq!(paths.count(), 4);
        assert_eq!(paths.sets(|v| v), brute_minimal(5, |m| eval(&b, m)));
        // Cut sets: edges whose failure alone disconnects.
        let cuts = b.dual_minimal_family(works);
        assert_eq!(cuts.sets(|v| v), brute_minimal(5, |m| !eval(&b, !m & 31)));
        assert_eq!(
            cuts.sets(|v| v),
            vec![vec![0, 1], vec![3, 4], vec![0, 2, 4], vec![1, 2, 3]]
        );
    }

    #[test]
    fn labels_reorder_sets_and_list() {
        let mut b = Bdd::new(3);
        let x = b.var(0).unwrap();
        let y = b.var(1).unwrap();
        let z = b.var(2).unwrap();
        let yz = b.and(y, z);
        let f = b.or(x, yz);
        // Relabelling moves ids within sets, never ahead of length.
        let sets = b.minimal_family(f).sets(|v| if v == 0 { 9 } else { v });
        assert_eq!(sets, vec![vec![9], vec![1, 2]]);
        let sets = b.minimal_family(f).sets(|v| 2 - v);
        assert_eq!(sets, vec![vec![2], vec![0, 1]]);
    }

    #[test]
    fn constants_and_their_duals() {
        let b = Bdd::new(1);
        assert_eq!(b.minimal_family(NodeId::FALSE).count(), 0);
        assert_eq!(b.minimal_family(NodeId::TRUE).count(), 1);
        assert_eq!(b.dual_minimal_family(NodeId::TRUE).count(), 0);
        assert_eq!(
            b.dual_minimal_family(NodeId::FALSE).sets(|v| v),
            vec![Vec::<u32>::new()]
        );
    }

    #[test]
    fn sifted_order_gives_the_same_family() {
        let mut b = Bdd::new(8);
        let v: Vec<NodeId> = (0..8).map(|i| b.var(i).unwrap()).collect();
        // Pairs (i, i+4): pessimal for the identity order.
        let terms: Vec<NodeId> = (0..4).map(|i| b.and(v[i], v[i + 4])).collect();
        let f = b.or_all(terms);
        let before = b.minimal_solutions(f);
        let root = b.sift(f).root;
        assert_ne!(b.current_order(), (0..8).collect::<Vec<u32>>());
        assert_eq!(b.minimal_solutions(root), before);
        assert_eq!(before, vec![vec![0, 4], vec![1, 5], vec![2, 6], vec![3, 7]]);
    }

    #[test]
    fn count_saturates_instead_of_wrapping() {
        // AND of 64 two-way ORs: 2^64 minimal solutions, one past u64.
        let mut b = Bdd::new(128);
        let mut f = NodeId::TRUE;
        for i in (0..128).step_by(2) {
            let x = b.var(i).unwrap();
            let y = b.var(i + 1).unwrap();
            let xy = b.or(x, y);
            f = b.and(f, xy);
        }
        assert_eq!(b.minimal_family(f).count(), u64::MAX);
        // Its dual is the 64 pairs.
        assert_eq!(b.dual_minimal_family(f).count(), 64);
    }
}
