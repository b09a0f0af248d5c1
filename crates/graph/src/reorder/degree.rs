//! Descending-degree vertex relabeling (PRO step 1).
//!
//! §4.1: *"vertices with high degrees are frequently used ... we reorder
//! the vertices in descending order by degree and reassign the index for
//! them. In this way, vertices with high degrees are assigned low vertex
//! id and stored together."* The paper leaves the order among vertices
//! of equal degree open. [`degree_descending`] numbers them by original
//! id, making the permutation deterministic. It is one call of the
//! counting sort [`descending_ties`], which takes the sort key and the
//! tie order as arguments (the resident service sorts by ADWL class
//! with ties in BFS discovery order, DESIGN.md modelling decision 12).

use super::permutation::Permutation;
use crate::{Csr, VertexId};

/// Compute the descending-degree permutation (old → new id), ties by
/// original id.
pub fn degree_descending(g: &Csr) -> Permutation {
    let n = g.num_vertices();
    descending_ties(n, |v| g.degree(v), 0..n as VertexId)
}

/// The permutation (old → new id) that numbers the `n` vertices by
/// descending `key`, vertices of equal key in the order `ties` lists
/// them. A counting sort over the key values keeps this O(n + max
/// key), so `key` should be small: a degree, a class index. `key` is
/// called twice per vertex.
///
/// # Panics
/// Panics unless `ties` lists every vertex exactly once.
pub fn descending_ties(
    n: usize,
    key: impl Fn(VertexId) -> u32,
    ties: impl IntoIterator<Item = VertexId>,
) -> Permutation {
    // One counting pass, the histogram growing to the largest key seen.
    let mut start: Vec<u32> = Vec::new();
    for v in 0..n as VertexId {
        let k = key(v) as usize;
        if k >= start.len() {
            start.resize(k + 1, 0);
        }
        start[k] += 1;
    }
    // Prefix sums over descending key, in place: position of the first
    // vertex with key k = count of vertices with key > k.
    let mut acc = 0u32;
    for slot in start.iter_mut().rev() {
        let count = *slot;
        *slot = acc;
        acc += count;
    }
    // A vertex `ties` leaves out keeps the out-of-range sentinel, which
    // `from_old_to_new` rejects, as it rejects the repeat that took its
    // slot.
    let mut old_to_new = vec![VertexId::MAX; n];
    for v in ties {
        let k = key(v) as usize;
        old_to_new[v as usize] = start[k];
        start[k] += 1;
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
        let degree = |v| g.degree(v);
        let p = descending_ties(5, degree, [4, 3, 0, 1, 2]);
        assert_eq!((p.new_id(1), p.new_id(3)), (0, 1));
        assert_eq!((p.new_id(4), p.new_id(0), p.new_id(2)), (2, 3, 4));
        assert_eq!(descending_ties(5, degree, 0..5), degree_descending(&g));
        // A coarser key merges degrees: 2 or more (v1, v3) leads, then
        // every degree-1 vertex, each group in the tie order.
        let p = descending_ties(5, |v| u32::from(g.degree(v) >= 2), [4, 3, 0, 1, 2]);
        assert_eq!((p.new_id(3), p.new_id(1)), (0, 1));
        assert_eq!((p.new_id(4), p.new_id(0), p.new_id(2)), (2, 3, 4));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ties_must_list_every_vertex() {
        let _ = descending_ties(3, |_| 0, [0, 0, 1]);
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
