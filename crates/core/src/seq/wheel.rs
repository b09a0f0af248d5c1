//! A bounded circular bucket wheel (Dial's trick) for
//! [`crate::seq::delta_stepping`].
//!
//! The classic implementations index an array by bucket id, which is
//! fine for the workspace's usual weights (≤ 1000) but allocates
//! billions of slots when distances approach `u32::MAX` and Δ is tiny
//! (with Δ = 1 the bucket id *is* the distance). The wheel caps the
//! resident window at [`WHEEL_SLOTS`] slots covering bucket ids
//! `[base, base + W)`; anything pushed beyond the window waits in an
//! overflow list. Because at most one bucket id of the window maps to
//! each slot, there are no modular collisions. When the window drains,
//! the wheel *jumps* `base` to the smallest pending bucket (recomputed
//! from current distances, which also discards stale overflow entries)
//! instead of stepping through empty slots one by one — so sparse
//! distance ranges cost time proportional to pending work, not to the
//! numeric range of the distances.
//!
//! Memory is `O(n + WHEEL_SLOTS)` regardless of Δ or the weight range.

use crate::VertexId;

/// Resident window width, in buckets. Pending bucket spans are at most
/// `⌈w_max/Δ⌉ + 1` wide, so for the common weight ranges the whole
/// span fits and the overflow list stays empty; the cap only engages
/// for near-`u32::MAX` weights.
pub(crate) const WHEEL_SLOTS: usize = 4096;

/// A circular bucket queue over `u64` bucket ids.
pub(crate) struct BucketWheel {
    slots: Vec<Vec<VertexId>>,
    /// Bucket id currently mapped to slot `base % slots.len()`.
    base: u64,
    /// Entries resident in `slots`.
    in_wheel: usize,
    /// Entries pushed past the window, reclassified on refill.
    overflow: Vec<VertexId>,
}

impl BucketWheel {
    /// `span` is the widest possible pending-bucket span (e.g.
    /// `w_max/Δ + 2`); the wheel allocates `min(span, WHEEL_SLOTS)`
    /// slots.
    pub fn new(span: u64) -> Self {
        let width = span.clamp(1, WHEEL_SLOTS as u64) as usize;
        Self { slots: vec![Vec::new(); width], base: 0, in_wheel: 0, overflow: Vec::new() }
    }

    /// Number of resident slots — the allocation bound under test.
    #[cfg(test)]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Queue `v` for bucket `b`. Pushes are never below the current
    /// bucket (non-negative weights guarantee it); a defensive clamp
    /// keeps an out-of-range entry processable rather than lost.
    pub fn push(&mut self, v: VertexId, b: u64) {
        let b = b.max(self.base);
        let width = self.slots.len() as u64;
        if b - self.base < width {
            self.slots[(b % width) as usize].push(v);
            self.in_wheel += 1;
        } else {
            self.overflow.push(v);
        }
    }

    /// Whether the current bucket's slot still has entries.
    pub fn current_is_empty(&self) -> bool {
        self.slots[(self.base % self.slots.len() as u64) as usize].is_empty()
    }

    /// Drain the current bucket's slot (phase-1 layers re-push into it).
    pub fn take_current(&mut self) -> Vec<VertexId> {
        let slot = (self.base % self.slots.len() as u64) as usize;
        let taken = std::mem::take(&mut self.slots[slot]);
        self.in_wheel -= taken.len();
        taken
    }

    /// Advance to the next non-empty bucket and return its id, or
    /// `None` when nothing is pending anywhere. `bucket_of` maps a
    /// vertex to its *current* bucket (`None` to discard the entry) —
    /// used to reclassify overflow entries on refill, so stale
    /// overflow copies land wherever their improved distance says.
    pub fn advance(&mut self, bucket_of: impl Fn(VertexId) -> Option<u64>) -> Option<u64> {
        let width = self.slots.len() as u64;
        loop {
            if self.in_wheel > 0 {
                for step in 1..=width {
                    let b = self.base + step;
                    if !self.slots[(b % width) as usize].is_empty() {
                        self.base = b;
                        return Some(b);
                    }
                }
                unreachable!("in_wheel > 0 but every slot is empty");
            }
            if self.overflow.is_empty() {
                return None;
            }
            // Jump straight to the smallest pending bucket and re-push
            // the overflow against the new window.
            let pending = std::mem::take(&mut self.overflow);
            let min_b = pending.iter().filter_map(|&v| bucket_of(v)).min();
            let Some(min_b) = min_b else { continue };
            self.base = min_b;
            for v in pending {
                if let Some(b) = bucket_of(v) {
                    self.push(v, b);
                }
            }
            if !self.current_is_empty() {
                return Some(self.base);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_is_capped() {
        assert_eq!(BucketWheel::new(10).slot_count(), 10);
        assert_eq!(BucketWheel::new(u32::MAX as u64 + 2).slot_count(), WHEEL_SLOTS);
        assert_eq!(BucketWheel::new(0).slot_count(), 1);
    }

    #[test]
    fn drains_in_bucket_order_within_the_window() {
        let mut w = BucketWheel::new(8);
        w.push(3, 3);
        w.push(1, 1);
        w.push(5, 5);
        w.push(0, 0);
        let ids = |w: &mut BucketWheel| {
            let mut seen = vec![];
            if !w.current_is_empty() {
                seen.extend(w.take_current());
            }
            while let Some(_b) = w.advance(|_| None) {
                seen.extend(w.take_current());
            }
            seen
        };
        assert_eq!(ids(&mut w), vec![0, 1, 3, 5]);
    }

    #[test]
    fn far_pushes_overflow_and_jump_refill_finds_them() {
        let mut w = BucketWheel::new(4);
        w.push(9, 1_000_000); // far beyond the 4-slot window
        w.push(7, 2);
        assert_eq!(w.take_current(), Vec::<VertexId>::new());
        assert_eq!(w.advance(|_| Some(1_000_000)), Some(2));
        assert_eq!(w.take_current(), vec![7]);
        // Wheel empty → the jump lands directly on the far bucket.
        assert_eq!(w.advance(|_| Some(1_000_000)), Some(1_000_000));
        assert_eq!(w.take_current(), vec![9]);
        assert_eq!(w.advance(|_| None), None);
    }

    #[test]
    fn refill_reclassifies_by_current_bucket() {
        let mut w = BucketWheel::new(2);
        w.push(4, 100);
        w.push(5, 200);
        // By refill time vertex 4 improved to bucket 50; 5 is stale.
        let b = w.advance(|v| if v == 4 { Some(50) } else { None });
        assert_eq!(b, Some(50));
        assert_eq!(w.take_current(), vec![4]);
        assert_eq!(w.advance(|_| None), None);
    }
}
