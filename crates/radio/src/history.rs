//! Bounded channel history — the adversary's knowledge base.
//!
//! The paper's adversary "knows the entire history of the channel and the
//! protocol executed by honest stations" and decides whether to jam a slot
//! *before* seeing the stations' actions in it. [`ChannelHistory`] records
//! everything slot by slot; to keep memory bounded for multi-million-slot
//! runs, per-slot records older than the retention window are dropped while
//! *cumulative counts* are kept exactly. All strategies shipped in
//! `jle-adversary` only consult recent slots and totals, so truncation is
//! observationally irrelevant to them.

use crate::slot::{ChannelState, SlotTruth};
use crate::trace::PackedSlot;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Exact cumulative statistics over the entire run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateCounts {
    /// Slots observed as Null.
    pub nulls: u64,
    /// Slots observed as Single (necessarily unjammed).
    pub singles: u64,
    /// Slots observed as Collision (true collisions and jammed slots).
    pub collisions: u64,
    /// Jammed slots (subset of `collisions`).
    pub jammed: u64,
}

impl StateCounts {
    /// Total number of recorded slots.
    #[inline]
    pub fn total(&self) -> u64 {
        self.nulls + self.singles + self.collisions
    }

    fn record(&mut self, truth: &SlotTruth) {
        match truth.observed() {
            ChannelState::Null => self.nulls += 1,
            ChannelState::Single => self.singles += 1,
            ChannelState::Collision => self.collisions += 1,
        }
        if truth.jammed {
            self.jammed += 1;
        }
    }
}

/// Read-only view of the channel history, as exposed to adversaries.
pub trait HistoryView {
    /// Index of the next slot to be played (= number of completed slots).
    fn now(&self) -> u64;
    /// Packed record of a past slot, if still retained.
    fn slot(&self, slot: u64) -> Option<PackedSlot>;
    /// Observed state of a past slot, if still retained.
    fn observed(&self, slot: u64) -> Option<ChannelState> {
        self.slot(slot).map(|p| p.state())
    }
    /// The most recent completed slot, if any is retained.
    fn last(&self) -> Option<PackedSlot> {
        self.now().checked_sub(1).and_then(|s| self.slot(s))
    }
    /// Exact cumulative counts over the whole run.
    fn counts(&self) -> StateCounts;
    /// Oldest retained slot index.
    fn retained_from(&self) -> u64;
}

/// Growable channel record with bounded per-slot retention.
#[derive(Debug, Clone)]
pub struct ChannelHistory {
    ring: VecDeque<PackedSlot>,
    retention: usize,
    first_retained: u64,
    counts: StateCounts,
}

impl ChannelHistory {
    /// Create a history retaining at least `retention` most-recent slots
    /// (minimum 1).
    pub fn new(retention: usize) -> Self {
        let retention = retention.max(1);
        ChannelHistory {
            ring: VecDeque::with_capacity(retention.min(1 << 20)),
            retention,
            first_retained: 0,
            counts: StateCounts::default(),
        }
    }

    /// Record the outcome of the next slot.
    pub fn push(&mut self, truth: &SlotTruth) {
        self.counts.record(truth);
        self.ring.push_back(PackedSlot::new(truth));
        if self.ring.len() > self.retention {
            self.ring.pop_front();
            self.first_retained += 1;
        }
    }

    /// Iterate over the `k` most recent retained slots, oldest first.
    pub fn recent(&self, k: usize) -> impl Iterator<Item = PackedSlot> + '_ {
        let skip = self.ring.len().saturating_sub(k);
        self.ring.iter().skip(skip).copied()
    }

    /// Number of jammed slots among the last `k` retained slots.
    pub fn jammed_in_recent(&self, k: usize) -> u64 {
        self.recent(k).filter(|p| p.jammed()).count() as u64
    }
}

impl HistoryView for ChannelHistory {
    #[inline]
    fn now(&self) -> u64 {
        self.first_retained + self.ring.len() as u64
    }

    #[inline]
    fn slot(&self, slot: u64) -> Option<PackedSlot> {
        if slot < self.first_retained {
            return None;
        }
        self.ring.get((slot - self.first_retained) as usize).copied()
    }

    #[inline]
    fn counts(&self) -> StateCounts {
        self.counts
    }

    #[inline]
    fn retained_from(&self) -> u64 {
        self.first_retained
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_exact_under_truncation() {
        let mut h = ChannelHistory::new(4);
        for i in 0..100u64 {
            let truth = match i % 4 {
                0 => SlotTruth::new(0, false),
                1 => SlotTruth::new(1, false),
                2 => SlotTruth::new(5, false),
                _ => SlotTruth::new(0, true),
            };
            h.push(&truth);
        }
        let c = h.counts();
        assert_eq!(c.total(), 100);
        assert_eq!(c.nulls, 25);
        assert_eq!(c.singles, 25);
        assert_eq!(c.collisions, 50);
        assert_eq!(c.jammed, 25);
    }

    #[test]
    fn retention_window_moves() {
        let mut h = ChannelHistory::new(3);
        for _ in 0..10 {
            h.push(&SlotTruth::new(0, false));
        }
        assert_eq!(h.now(), 10);
        assert_eq!(h.retained_from(), 7);
        assert!(h.slot(6).is_none());
        assert!(h.slot(7).is_some());
        assert!(h.slot(9).is_some());
        assert!(h.slot(10).is_none());
    }

    #[test]
    fn last_and_observed() {
        let mut h = ChannelHistory::new(8);
        assert!(h.last().is_none());
        h.push(&SlotTruth::new(1, false));
        assert_eq!(h.last().unwrap().state(), ChannelState::Single);
        assert_eq!(h.observed(0), Some(ChannelState::Single));
        h.push(&SlotTruth::new(0, true));
        assert_eq!(h.last().unwrap().state(), ChannelState::Collision);
        assert!(h.last().unwrap().jammed());
    }

    #[test]
    fn recent_iterates_oldest_first() {
        let mut h = ChannelHistory::new(16);
        h.push(&SlotTruth::new(0, false)); // Null
        h.push(&SlotTruth::new(1, false)); // Single
        h.push(&SlotTruth::new(3, false)); // Collision
        let states: Vec<ChannelState> = h.recent(2).map(|p| p.state()).collect();
        assert_eq!(states, vec![ChannelState::Single, ChannelState::Collision]);
        let all: Vec<ChannelState> = h.recent(99).map(|p| p.state()).collect();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0], ChannelState::Null);
    }

    #[test]
    fn jammed_in_recent_counts() {
        let mut h = ChannelHistory::new(8);
        for jam in [true, false, true, true] {
            h.push(&SlotTruth::new(0, jam));
        }
        // slots, oldest first: [jam, clear, jam, jam]
        assert_eq!(h.jammed_in_recent(1), 1);
        assert_eq!(h.jammed_in_recent(2), 2);
        assert_eq!(h.jammed_in_recent(3), 2);
        assert_eq!(h.jammed_in_recent(4), 3);
        assert_eq!(h.jammed_in_recent(100), 3);
    }
}
