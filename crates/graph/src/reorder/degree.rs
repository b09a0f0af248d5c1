//! Descending-degree vertex relabeling (PRO step 1).
//!
//! §4.1: *"vertices with high degrees are frequently used ... we reorder
//! the vertices in descending order by degree and reassign the index for
//! them. In this way, vertices with high degrees are assigned low vertex
//! id and stored together."* The paper leaves the order among vertices
//! of equal degree open. [`degree_descending`] numbers them by original
//! id, making the permutation deterministic; [`degree_descending_ties`]
//! numbers them in any given order (the resident service passes BFS
//! discovery order, DESIGN.md modelling decision 12).

use super::permutation::Permutation;
use crate::{Csr, VertexId};

/// Compute the descending-degree permutation (old → new id), ties by
/// original id.
pub fn degree_descending(g: &Csr) -> Permutation {
    degree_descending_ties(g, 0..g.num_vertices() as VertexId)
}

/// The descending-degree permutation (old → new id) with vertices of
/// equal degree numbered in the order `ties` lists them.
///
/// # Panics
/// Panics unless `ties` lists every vertex exactly once.
pub fn degree_descending_ties(g: &Csr, ties: impl IntoIterator<Item = VertexId>) -> Permutation {
    let n = g.num_vertices();
    // Sort vertex ids by (degree desc, tie rank asc) — a counting sort
    // over degrees keeps this O(n + m) even for huge graphs.
    let max_deg = (0..n as VertexId).map(|v| g.degree(v)).max().unwrap_or(0) as usize;
    let mut buckets = vec![0u32; max_deg + 2];
    for v in 0..n as VertexId {
        buckets[g.degree(v) as usize + 1] += 1;
    }
    // Prefix sums over descending degree: position of first vertex with
    // degree d = count of vertices with degree > d.
    let mut start = vec![0u32; max_deg + 1];
    let mut acc = 0u32;
    for d in (0..=max_deg).rev() {
        start[d] = acc;
        acc += buckets[d + 1];
    }
    // A vertex `ties` leaves out keeps the out-of-range sentinel, which
    // `from_old_to_new` rejects, as it rejects the repeat that took its
    // slot.
    let mut old_to_new = vec![VertexId::MAX; n];
    for v in ties {
        let d = g.degree(v) as usize;
        old_to_new[v as usize] = start[d];
        start[d] += 1;
    }
    Permutation::from_old_to_new(old_to_new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_undirected, EdgeList};

    #[test]
    fn orders_by_degree_with_stable_ties() {
        // degrees: v0=1, v1=3, v2=1, v3=2, v4=1
        let el = EdgeList::from_edges(5, vec![(1, 0, 1), (1, 2, 1), (1, 3, 1), (3, 4, 1)]);
        let g = build_undirected(&el);
        let p = degree_descending(&g);
        assert_eq!(p.new_id(1), 0); // highest degree first
        assert_eq!(p.new_id(3), 1);
        // Ties (v0, v2, v4 with degree 1) keep original relative order.
        assert_eq!(p.new_id(0), 2);
        assert_eq!(p.new_id(2), 3);
        assert_eq!(p.new_id(4), 4);
    }

    #[test]
    fn ties_follow_the_given_order() {
        // Same graph: v1 (3) and v3 (2) lead; v4, v0, v2 tie at 1.
        let el = EdgeList::from_edges(5, vec![(1, 0, 1), (1, 2, 1), (1, 3, 1), (3, 4, 1)]);
        let g = build_undirected(&el);
        let p = degree_descending_ties(&g, [4, 3, 0, 1, 2]);
        assert_eq!((p.new_id(1), p.new_id(3)), (0, 1));
        assert_eq!((p.new_id(4), p.new_id(0), p.new_id(2)), (2, 3, 4));
        assert_eq!(degree_descending_ties(&g, 0..5), degree_descending(&g));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ties_must_list_every_vertex() {
        let g = Csr::empty(3);
        let _ = degree_descending_ties(&g, [0, 0, 1]);
    }

    #[test]
    fn relabeled_graph_has_monotone_degrees() {
        let el = crate::generate::preferential_attachment(300, 3, 4);
        let g = build_undirected(&el);
        let p = degree_descending(&g);
        let rg = p.apply_to_graph(&g);
        let degs: Vec<u32> = (0..rg.num_vertices() as VertexId).map(|v| rg.degree(v)).collect();
        assert!(degs.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn empty_and_isolated_vertices() {
        let g = Csr::empty(3);
        let p = degree_descending(&g);
        assert_eq!(p, Permutation::identity(3));
    }
}
