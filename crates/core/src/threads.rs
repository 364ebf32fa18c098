//! The thread budget: how many worker threads a solve may run, and how
//! a layer that spreads items over threads splits it.
//!
//! A solve gets one budget. The outermost layer with several items to
//! spread (batch inputs, uncertainty samples, hierarchy submodels)
//! runs `min(budget, items)` workers. When that is one worker, each
//! item is solved with the whole budget, so the layer below may spread
//! its own items; otherwise each item gets a budget of one. The leaf
//! layer, simulation replications, runs the budget it is handed, so no
//! solve runs more threads than its budget.

use std::num::NonZeroUsize;

/// Resolves a thread budget: `0` means one thread per available CPU
/// (one when the count cannot be read); any other value is itself.
#[must_use]
pub fn resolve_threads(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
        n => n,
    }
}

/// A thread budget split over the items of one parallel layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Split {
    /// Worker threads the layer runs: `min(budget, items)`, at least
    /// one.
    pub workers: usize,
    /// Budget each item is solved with: the whole budget when one
    /// worker runs, otherwise one.
    pub per_item: usize,
}

impl Split {
    /// Splits the budget `threads` (`0` = one per CPU) over `items`.
    #[must_use]
    pub fn new(threads: usize, items: usize) -> Split {
        let budget = resolve_threads(threads);
        let workers = budget.min(items).max(1);
        Split {
            workers,
            per_item: if workers == 1 { budget } else { 1 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_means_every_cpu() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn one_worker_hands_down_the_whole_budget() {
        assert_eq!(
            Split::new(4, 1),
            Split {
                workers: 1,
                per_item: 4
            }
        );
        assert_eq!(
            Split::new(1, 9),
            Split {
                workers: 1,
                per_item: 1
            }
        );
        assert_eq!(Split::new(4, 0).workers, 1);
    }

    #[test]
    fn several_workers_solve_each_item_on_one_thread() {
        assert_eq!(
            Split::new(4, 3),
            Split {
                workers: 3,
                per_item: 1
            }
        );
        assert_eq!(
            Split::new(4, 100),
            Split {
                workers: 4,
                per_item: 1
            }
        );
    }
}
