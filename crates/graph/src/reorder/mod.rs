//! Property-driven reordering (paper §4.1, Fig. 4).
//!
//! The PRO preprocessing has three steps, each available on its own:
//!
//! 1. [`degree::degree_descending`] — relabel vertices by descending
//!    degree so frequently-touched hubs share cache lines;
//! 2. [`weight_sort::sort_edges_by_weight`] — per vertex, sort the
//!    adjacency/value lists by ascending weight so light edges form a
//!    prefix (no per-edge light/heavy branch → no warp divergence);
//! 3. [`heavy_offset::attach_heavy_offsets`] — record, per vertex, the
//!    first heavy-edge index for a given Δ in the row list.
//!
//! [`pro`] runs all three and returns the permutation used, so results
//! can be mapped back to original vertex ids. It computes the
//! permutation, then builds the relabelled, weight-sorted CSR and its
//! heavy offsets in one sweep over the rows
//! ([`relabel::relabel_sorted`]); the output is that of the three steps
//! run one after another. [`pro_with_ties`] is the same pipeline with
//! the order among equal-degree vertices as an argument.

pub mod alternatives;
pub mod degree;
pub mod heavy_offset;
pub mod permutation;
pub mod relabel;
pub mod weight_sort;

pub use alternatives::{bfs_order, bfs_visit, degree_ascending, random_order};
pub use degree::{degree_descending, degree_descending_ties};
pub use heavy_offset::attach_heavy_offsets;
pub use permutation::Permutation;
pub use relabel::relabel_sorted;
pub use weight_sort::sort_edges_by_weight;

use crate::{Csr, VertexId, Weight};

/// The full property-driven reordering pipeline of §4.1: relabel by
/// descending degree (ties by original id), sort each adjacency by
/// ascending weight, attach heavy offsets for `delta`.
///
/// Returns the reordered CSR and the [`Permutation`] mapping
/// **old vertex id → new vertex id**.
///
/// ```
/// use rdbs_graph::builder::{build_undirected, EdgeList};
/// use rdbs_graph::reorder::pro;
///
/// let el = EdgeList::from_edges(4, vec![(0, 1, 900), (1, 2, 30), (1, 3, 700)]);
/// let g = build_undirected(&el);
/// let (reordered, perm) = pro(&g, 100);
/// // Vertex 1 has the highest degree, so it becomes vertex 0...
/// assert_eq!(perm.new_id(1), 0);
/// // ...its edges are weight-sorted, and the heavy offset marks the
/// // first edge with weight >= 100.
/// assert_eq!(reordered.edge_weights(0), &[30, 700, 900]);
/// assert_eq!(reordered.light_range(0, 100), Some(0..1));
/// ```
pub fn pro(graph: &Csr, delta: Weight) -> (Csr, Permutation) {
    pro_with_ties(graph, delta, 0..graph.num_vertices() as VertexId)
}

/// [`pro`] with vertices of equal degree numbered in the order `ties`
/// lists them ([`degree_descending_ties`]): degrees still descend, and
/// a locality order such as [`bfs_visit`] places the equal-degree
/// neighbours of a mesh side by side.
///
/// # Panics
/// Panics unless `ties` lists every vertex exactly once.
pub fn pro_with_ties(
    graph: &Csr,
    delta: Weight,
    ties: impl IntoIterator<Item = VertexId>,
) -> (Csr, Permutation) {
    let perm = degree_descending_ties(graph, ties);
    (relabel_sorted(graph, &perm, delta), perm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_undirected, EdgeList};

    /// The exact graph of the paper's Fig. 4 (a): 5 vertices.
    /// Edges (undirected, weighted):
    /// 0-1 (10? no — see figure): the figure shows vertices 0..4 with
    /// degrees 2, 4, 2, 3, 3. We reconstruct a graph with those degrees
    /// and check the reordering properties the figure illustrates.
    fn fig4_like() -> crate::Csr {
        let el = EdgeList::from_edges(
            5,
            vec![(0, 1, 15), (0, 3, 2), (1, 2, 9), (1, 3, 1), (1, 4, 4), (3, 4, 2), (2, 4, 9)],
        );
        build_undirected(&el)
    }

    #[test]
    fn pro_pipeline_properties() {
        let g = fig4_like();
        let delta = 3;
        let (rg, perm) = pro(&g, delta);
        // Topology preserved.
        assert_eq!(rg.num_edges(), g.num_edges());
        assert_eq!(rg.num_vertices(), g.num_vertices());
        // Degrees descending in new id order.
        let degs: Vec<u32> = (0..rg.num_vertices() as VertexId).map(|v| rg.degree(v)).collect();
        assert!(degs.windows(2).all(|p| p[0] >= p[1]), "degrees {degs:?}");
        // Weights sorted per vertex; heavy offsets valid.
        assert!(rg.is_fully_weight_sorted());
        assert!(rg.validate().is_ok());
        assert_eq!(rg.heavy_delta(), Some(delta));
        // Permutation is a bijection consistent with degree order:
        // vertex 1 (degree 4) must become vertex 0.
        assert_eq!(perm.new_id(1), 0);
    }

    #[test]
    fn pro_preserves_edge_multiset() {
        let g = fig4_like();
        let (rg, perm) = pro(&g, 5);
        let mut orig: Vec<(VertexId, VertexId, Weight)> =
            g.all_edges().map(|(u, v, w)| (perm.new_id(u), perm.new_id(v), w)).collect();
        let mut reord: Vec<_> = rg.all_edges().collect();
        orig.sort_unstable();
        reord.sort_unstable();
        assert_eq!(orig, reord);
    }
}
