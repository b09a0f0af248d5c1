//! Alternative vertex orderings, for ablating PRO's degree-descending
//! choice (§4.1 justifies it with "vertices with high degrees are
//! frequently used"; these alternatives test that justification).
//!
//! * [`random_order`] — a seeded shuffle: the locality *floor* (any
//!   structure in the input labelling is destroyed);
//! * [`bfs_order`] — breadth-first discovery order from a seed vertex:
//!   the classic locality-oriented relabeling (neighbours end up close
//!   in memory), degree-agnostic. Its visit, [`bfs_visit`], is also
//!   the order in which the resident service numbers PRO's
//!   equal-degree vertices;
//! * [`degree_ascending`] — the deliberate inverse of PRO's step 1.

use super::permutation::Permutation;
use crate::{Csr, VertexId};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A seeded random relabeling.
pub fn random_order(g: &Csr, seed: u64) -> Permutation {
    let n = g.num_vertices();
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    order.shuffle(&mut ChaCha8Rng::seed_from_u64(seed ^ 0x04D3_04D3));
    // `order[new] = old`: its inverse maps old → new.
    Permutation::from_old_to_new(order).inverse()
}

/// Every vertex in breadth-first discovery order: a BFS along
/// out-edges from `first`, then one from the lowest unvisited id for
/// each further component, so unreached components are BFS-ordered
/// too. The visit list doubles as the BFS queue.
pub fn bfs_visit(g: &Csr, first: VertexId) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut seen = vec![false; n];
    // One slot of slack: every neighbour is written at `len` and kept
    // only if it was unseen, which spares the scan a mispredicted
    // branch per edge.
    let mut visit = vec![0; n + 1];
    let (mut len, mut head) = (0, 0);
    for root in std::iter::once(first).filter(|&v| (v as usize) < n).chain(0..n as VertexId) {
        if seen[root as usize] {
            continue;
        }
        seen[root as usize] = true;
        visit[len] = root;
        len += 1;
        while head < len {
            let u = visit[head];
            head += 1;
            for &v in g.neighbors(u) {
                let fresh = !seen[v as usize];
                seen[v as usize] = true;
                visit[len] = v;
                len += usize::from(fresh);
            }
        }
    }
    visit.truncate(n);
    visit
}

/// BFS discovery order from `seed_vertex`: the inverse of
/// [`bfs_visit`], so each component left unreached is numbered in BFS
/// order from its lowest id, after the seed's.
pub fn bfs_order(g: &Csr, seed_vertex: VertexId) -> Permutation {
    Permutation::from_old_to_new(bfs_visit(g, seed_vertex)).inverse()
}

/// Ascending-degree relabeling (PRO's inverse).
pub fn degree_ascending(g: &Csr) -> Permutation {
    let n = g.num_vertices();
    let mut ids: Vec<VertexId> = (0..n as VertexId).collect();
    ids.sort_by_key(|&v| (g.degree(v), v));
    Permutation::from_old_to_new(ids).inverse()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_undirected, EdgeList};
    use crate::generate::preferential_attachment;

    fn graph() -> Csr {
        build_undirected(&preferential_attachment(200, 3, 7))
    }

    #[test]
    fn random_is_a_seeded_bijection() {
        let g = graph();
        let p = random_order(&g, 3);
        assert_eq!(p, random_order(&g, 3));
        assert_ne!(p, random_order(&g, 4));
        assert_eq!(p.compose(&p.inverse()), Permutation::identity(g.num_vertices()));
    }

    #[test]
    fn bfs_order_places_neighbours_nearby() {
        let el = EdgeList::from_edges(6, vec![(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 4, 1)]);
        let g = build_undirected(&el);
        let p = bfs_order(&g, 0);
        assert_eq!(p.new_id(0), 0);
        // Direct neighbours get the next ids.
        assert!(p.new_id(1) <= 2 && p.new_id(2) <= 2);
        // Unreached vertex 5 goes last.
        assert_eq!(p.new_id(5), 5);
    }

    #[test]
    fn bfs_visit_restarts_at_the_lowest_unvisited_id() {
        // Components {3, 4, 0} (path 3 - 4 - 0) and {1, 2}, seed 1.
        let el = EdgeList::from_edges(5, vec![(3, 4, 1), (4, 0, 1), (1, 2, 1)]);
        let g = build_undirected(&el);
        assert_eq!(bfs_visit(&g, 1), vec![1, 2, 0, 4, 3]);
        assert_eq!(bfs_order(&g, 1), Permutation::from_old_to_new(vec![2, 0, 1, 4, 3]));
        // A seed out of range starts at vertex 0.
        assert_eq!(bfs_visit(&g, 9), vec![0, 4, 3, 1, 2]);
    }

    #[test]
    fn ascending_is_descending_reversed() {
        let g = graph();
        let asc = degree_ascending(&g);
        let rg = asc.apply_to_graph(&g);
        let degs: Vec<u32> = (0..rg.num_vertices() as u32).map(|v| rg.degree(v)).collect();
        assert!(degs.windows(2).all(|w| w[0] <= w[1]));
    }
}
