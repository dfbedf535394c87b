//! Compact per-slot traces.
//!
//! Experiments with very large `T` run for millions of slots; a trace entry
//! is packed into a single byte (2 bits of observed state, 1 bit of jam
//! flag, 1 bit "clean single", 1 bit "any transmitter") so full traces stay
//! cheap to keep around for post-hoc slot classification (experiment E11).

use crate::slot::{ChannelState, SlotTruth};
use serde::{Deserialize, Serialize};

/// One slot of a [`Trace`], packed into a byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackedSlot(u8);

impl PackedSlot {
    const JAM: u8 = 0b0000_0100;
    const CLEAN_SINGLE: u8 = 0b0000_1000;
    const ANY_TX: u8 = 0b0001_0000;

    /// Pack a slot ground truth.
    #[inline]
    pub fn new(truth: &SlotTruth) -> Self {
        let mut b = truth.observed().code();
        if truth.jammed {
            b |= Self::JAM;
        }
        if truth.is_clean_single() {
            b |= Self::CLEAN_SINGLE;
        }
        if truth.transmitters > 0 {
            b |= Self::ANY_TX;
        }
        PackedSlot(b)
    }

    /// The observed channel state of the slot.
    #[inline]
    pub fn state(&self) -> ChannelState {
        ChannelState::from_code(self.0 & 0b11)
    }

    /// Whether the adversary jammed the slot.
    #[inline]
    pub fn jammed(&self) -> bool {
        self.0 & Self::JAM != 0
    }

    /// Whether the slot was an unjammed Single.
    #[inline]
    pub fn clean_single(&self) -> bool {
        self.0 & Self::CLEAN_SINGLE != 0
    }

    /// Whether at least one station transmitted.
    #[inline]
    pub fn any_transmitter(&self) -> bool {
        self.0 & Self::ANY_TX != 0
    }
}

/// A whole-run channel trace: one [`PackedSlot`] per slot, plus an optional
/// parallel series of protocol-internal estimates (e.g. LESK's `u`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    slots: Vec<PackedSlot>,
    /// Optional per-slot scalar recorded by the protocol under test (LESK's
    /// estimate `u` in the reproduction experiments). Empty if disabled.
    pub estimates: Vec<f64>,
}

impl Trace {
    /// New empty trace with capacity for `cap` slots.
    pub fn with_capacity(cap: usize) -> Self {
        Trace { slots: Vec::with_capacity(cap), estimates: Vec::new() }
    }

    /// Append one slot.
    #[inline]
    pub fn push(&mut self, truth: &SlotTruth) {
        self.slots.push(PackedSlot::new(truth));
    }

    /// Append one slot together with a protocol estimate.
    #[inline]
    pub fn push_with_estimate(&mut self, truth: &SlotTruth, estimate: f64) {
        self.push(truth);
        self.estimates.push(estimate);
    }

    /// Number of recorded slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the trace is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Slot at index `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Option<PackedSlot> {
        self.slots.get(i).copied()
    }

    /// Iterator over packed slots.
    pub fn iter(&self) -> impl Iterator<Item = PackedSlot> + '_ {
        self.slots.iter().copied()
    }

    /// Count slots with the given observed state.
    pub fn count_state(&self, state: ChannelState) -> usize {
        self.iter().filter(|s| s.state() == state).count()
    }

    /// Count jammed slots.
    pub fn count_jammed(&self) -> usize {
        self.iter().filter(|s| s.jammed()).count()
    }

    /// Index of the first unjammed Single, if any.
    pub fn first_clean_single(&self) -> Option<usize> {
        self.iter().position(|s| s.clean_single())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_roundtrip() {
        for k in [0u64, 1, 2, 3, 17] {
            for jam in [false, true] {
                let t = SlotTruth::new(k, jam);
                let p = PackedSlot::new(&t);
                assert_eq!(p.state(), t.observed());
                assert_eq!(p.jammed(), jam);
                assert_eq!(p.clean_single(), t.is_clean_single());
                assert_eq!(p.any_transmitter(), k > 0);
            }
        }
    }

    #[test]
    fn trace_counting() {
        let mut tr = Trace::with_capacity(8);
        tr.push(&SlotTruth::new(0, false)); // Null
        tr.push(&SlotTruth::new(2, false)); // Collision
        tr.push(&SlotTruth::new(0, true)); // jammed Collision
        tr.push(&SlotTruth::new(1, false)); // Single
        assert_eq!(tr.len(), 4);
        assert_eq!(tr.count_state(ChannelState::Null), 1);
        assert_eq!(tr.count_state(ChannelState::Collision), 2);
        assert_eq!(tr.count_state(ChannelState::Single), 1);
        assert_eq!(tr.count_jammed(), 1);
        assert_eq!(tr.first_clean_single(), Some(3));
    }

    #[test]
    fn estimates_series() {
        let mut tr = Trace::default();
        tr.push_with_estimate(&SlotTruth::new(0, false), 0.0);
        tr.push_with_estimate(&SlotTruth::new(2, false), 0.5);
        assert_eq!(tr.estimates, vec![0.0, 0.5]);
    }

    #[test]
    fn no_single_no_position() {
        let mut tr = Trace::default();
        tr.push(&SlotTruth::new(0, false));
        tr.push(&SlotTruth::new(1, true)); // jammed single is not clean
        assert_eq!(tr.first_clean_single(), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// PackedSlot is a faithful 1-byte projection of SlotTruth.
        #[test]
        fn packed_slot_roundtrip(k in 0u64..10_000, jam: bool) {
            let t = SlotTruth::new(k, jam);
            let p = PackedSlot::new(&t);
            prop_assert_eq!(p.state(), t.observed());
            prop_assert_eq!(p.jammed(), jam);
            prop_assert_eq!(p.clean_single(), t.is_clean_single());
            prop_assert_eq!(p.any_transmitter(), k > 0);
        }

        /// Trace counters agree with a naive recount.
        #[test]
        fn trace_counts_agree(entries in proptest::collection::vec((0u64..5, any::<bool>()), 0..200)) {
            let mut tr = Trace::default();
            for &(k, jam) in &entries {
                tr.push(&SlotTruth::new(k, jam));
            }
            prop_assert_eq!(tr.len(), entries.len());
            let nulls = entries.iter().filter(|&&(k, j)| k == 0 && !j).count();
            let singles = entries.iter().filter(|&&(k, j)| k == 1 && !j).count();
            prop_assert_eq!(tr.count_state(ChannelState::Null), nulls);
            prop_assert_eq!(tr.count_state(ChannelState::Single), singles);
            prop_assert_eq!(tr.count_jammed(), entries.iter().filter(|e| e.1).count());
            let first = entries.iter().position(|&(k, j)| k == 1 && !j);
            prop_assert_eq!(tr.first_clean_single(), first);
        }
    }
}
