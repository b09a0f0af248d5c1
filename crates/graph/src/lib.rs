//! Graph substrate for the RDBS reproduction.
//!
//! This crate provides everything the SSSP algorithms need from the
//! graph side:
//!
//! * [`Csr`] — the Compressed Sparse Row representation used by every
//!   kernel, optionally carrying the *heavy-edge offsets* introduced by
//!   the paper's property-driven reordering (§4.1, Fig. 4).
//! * [`builder`] — edge-list ([`EdgeList`]) to CSR conversion with
//!   symmetrization, dedup and self-loop handling.
//! * [`generate`] — seeded, reproducible generators: Graph500-style
//!   Kronecker, R-MAT, 2D grids with deletions (road-like), preferential
//!   attachment power-law, Erdős–Rényi, plus uniform weight assignment
//!   (the paper draws weights uniformly from 1..=1000, §5.1.2).
//! * [`reorder`] — vertex permutations, descending-degree relabeling,
//!   per-vertex ascending-weight edge sorting, heavy-edge offsets and
//!   the combined [`reorder::pro`] pipeline (built in one sweep over the
//!   rows, which any other numbering can reuse).
//! * [`io`] — plain edge-list, DIMACS `.gr`, MatrixMarket and a compact
//!   binary format.
//! * [`datasets`] — deterministic stand-ins for the paper's Table 1
//!   real-world graphs and the `k-nXX-YY` Kronecker inputs.
//! * [`stats`] — degree distributions, pseudo-diameter, component
//!   counts; used to validate the stand-ins against Table 1.

pub mod builder;
pub mod csr;
pub mod datasets;
pub mod generate;
pub mod io;
mod par;
pub mod reorder;
pub mod stats;
pub mod transform;

pub use builder::EdgeList;
pub use csr::Csr;
pub use reorder::Permutation;

/// Vertex identifier. Graphs in this workspace are bounded by `u32`
/// vertex ids (the paper's largest graph, soc-twitter-2010, has 21.3 M
/// vertices — comfortably within range).
pub type VertexId = u32;

/// Edge weight. The paper assigns uniform random integer weights in
/// `1..=1000` to the (unweighted) input graphs.
pub type Weight = u32;

/// Tentative/final shortest-path distance. `u32` suffices for every
/// workload here: the deepest graphs (road networks) have pseudo
/// diameters around a thousand hops and weights at most 1000, so the
/// longest shortest path stays far below `u32::MAX / 2`.
pub type Dist = u32;

/// Sentinel distance for "unreached".
pub const INF: Dist = u32::MAX;
