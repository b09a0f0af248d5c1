//! Workload classification for adaptive load balancing (paper §4.2).
//!
//! Active vertices are classified by their number of *light* edges:
//!
//! * `< β = 32` → **small** list, processed by the parent thread (a
//!   list too short to fill the device widens it into a work-sized
//!   gang — see `gpu::rdbs`);
//! * `β ..= α-1` (`α = 256`) → **medium** list, processed by one Warp
//!   (32 lanes);
//! * `>= α` → **large** list, processed via dynamic parallelism with
//!   Block-granularity child kernels (256 threads; vertices above 4096
//!   light edges get `⌈n/4096⌉` blocks — in the simulator, a child
//!   kernel with one thread per edge).
//!
//! Deviation from the paper: §4.2's text reads `⌊n/4096⌋` blocks, but a
//! floor leaves the remainder edges (up to 4095 of them) uncovered —
//! the simulator's child kernel relaxes one thread per edge, so the
//! cost model must charge for every edge. We use ceiling division; the
//! paper's floor is assumed to be shorthand for the usual grid-size
//! round-up.

/// Warp-granularity threshold β (number of light edges).
pub const BETA: u32 = 32;
/// Block-granularity threshold α.
pub const ALPHA: u32 = 256;
/// Edges per block above which multiple blocks are assigned.
pub const BLOCK_EDGE_LIMIT: u32 = 4096;

/// Which workload list an active vertex belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Parent thread handles the edges itself.
    Small,
    /// One warp (32 lanes) cooperates.
    Medium,
    /// One or more blocks via a dynamic child kernel.
    Large,
}

/// Classify by light-edge count (§4.2's α/β rules).
#[inline]
pub fn classify(light_edges: u32) -> WorkloadClass {
    if light_edges >= ALPHA {
        WorkloadClass::Large
    } else if light_edges >= BETA {
        WorkloadClass::Medium
    } else {
        WorkloadClass::Small
    }
}

/// Number of 256-thread blocks assigned to a large vertex: one per
/// 4096 light edges, rounded *up* so remainder edges are still owned
/// by a block (ceiling division; see the module doc for why this
/// deviates from the paper's `⌊n/4096⌋` wording).
#[inline]
pub fn blocks_for(light_edges: u32) -> u32 {
    if light_edges <= BLOCK_EDGE_LIMIT {
        1
    } else {
        light_edges.div_ceil(BLOCK_EDGE_LIMIT)
    }
}

/// List index used for the three device-side queues.
impl WorkloadClass {
    pub const COUNT: usize = 3;

    #[inline]
    pub fn index(self) -> usize {
        match self {
            WorkloadClass::Small => 0,
            WorkloadClass::Medium => 1,
            WorkloadClass::Large => 2,
        }
    }

    /// Gang width used when the wave engine processes this list.
    #[inline]
    pub fn gang_width(self) -> u32 {
        match self {
            WorkloadClass::Small => 1,
            WorkloadClass::Medium => 32,
            WorkloadClass::Large => 256,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_boundaries() {
        assert_eq!(classify(0), WorkloadClass::Small);
        assert_eq!(classify(6), WorkloadClass::Small); // paper's example
        assert_eq!(classify(31), WorkloadClass::Small);
        assert_eq!(classify(32), WorkloadClass::Medium);
        assert_eq!(classify(224), WorkloadClass::Medium); // paper's example
        assert_eq!(classify(255), WorkloadClass::Medium);
        assert_eq!(classify(256), WorkloadClass::Large);
        assert_eq!(classify(4000), WorkloadClass::Large); // paper's example
    }

    #[test]
    fn block_assignment() {
        assert_eq!(blocks_for(300), 1);
        assert_eq!(blocks_for(4096), 1);
        assert_eq!(blocks_for(8192), 2);
        // A remainder demands one extra block: 8193 edges do not fit in
        // two 4096-edge blocks.
        assert_eq!(blocks_for(8193), 3);
        assert_eq!(blocks_for(10_000), 3); // ⌈10000/4096⌉
    }

    #[test]
    fn list_indices_distinct() {
        let idx: Vec<_> = [WorkloadClass::Small, WorkloadClass::Medium, WorkloadClass::Large]
            .iter()
            .map(|c| c.index())
            .collect();
        assert_eq!(idx, vec![0, 1, 2]);
        assert_eq!(WorkloadClass::Small.gang_width(), 1);
        assert_eq!(WorkloadClass::Medium.gang_width(), 32);
        assert_eq!(WorkloadClass::Large.gang_width(), 256);
    }
}
