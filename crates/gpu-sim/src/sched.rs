//! Seeded schedule fuzzing: deterministic lane-interleaving permutation.
//!
//! The simulator normally executes the lanes of a wave in ascending
//! lane order. That is *one* legal interleaving of a real GPU's
//! undefined intra-wave scheduling — a program whose result depends on
//! it is racy even if the fixed order happens to produce the right
//! answer. A [`SchedPlan`] armed on a [`crate::Device`] (via
//! [`crate::Device::arm_schedule_fuzz`]) replaces the ascending order
//! with a seeded Fisher–Yates permutation, freshly drawn per wave from
//! one splitmix64 stream: the same seed replays the same interleavings
//! byte-for-byte, and different seeds explore different legal orders.
//!
//! Only the *functional* execution order is permuted. Each lane keeps
//! its original `tid`/`gang_rank`, and the timing replay still groups
//! lanes into their original warps, so a schedule-insensitive kernel
//! produces bit-identical results and costs under any seed — which is
//! exactly the property the fuzzing harness asserts, with the
//! memory-model sanitizer armed to catch the schedule-sensitive ones.

use crate::splitmix64;

/// A seeded, deterministic per-wave lane-order permuter.
#[derive(Clone, Debug)]
pub struct SchedPlan {
    /// splitmix64 state; the orders drawn are a pure function of the
    /// seed and the sequence of waves executed.
    state: u64,
}

impl SchedPlan {
    /// A plan drawing permutations from `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Draw a fresh permutation of `0..n` (Fisher–Yates off the plan
    /// stream). Called once per executed wave.
    pub(crate) fn permutation(&mut self, n: u64) -> Vec<u64> {
        let mut order: Vec<u64> = (0..n).collect();
        for i in (1..order.len()).rev() {
            let j = (splitmix64(&mut self.state) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutations_are_seeded_and_complete() {
        let mut a = SchedPlan::new(7);
        let mut b = SchedPlan::new(7);
        for n in [0u64, 1, 2, 32, 100] {
            let pa = a.permutation(n);
            let pb = b.permutation(n);
            assert_eq!(pa, pb, "same seed, same order");
            let mut sorted = pa.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "a permutation, nothing lost");
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let pa = SchedPlan::new(1).permutation(64);
        let pb = SchedPlan::new(2).permutation(64);
        assert_ne!(pa, pb);
    }
}
