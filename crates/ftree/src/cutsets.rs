//! The minimal cut-set type.

use crate::tree::EventId;

/// A minimal cut set: a minimal set of basic events whose joint failure
/// causes the top event.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CutSet {
    events: Vec<EventId>,
}

impl CutSet {
    /// Wraps a sorted event list.
    pub(crate) fn from_events(events: Vec<EventId>) -> CutSet {
        CutSet { events }
    }

    /// The events in this cut set, sorted by id.
    pub fn events(&self) -> &[EventId] {
        &self.events
    }

    /// Cut-set order (cardinality).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the cut set is empty (never true for valid trees).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether this cut set contains the event.
    pub fn contains(&self, e: EventId) -> bool {
        self.events.binary_search(&e).is_ok()
    }
}
