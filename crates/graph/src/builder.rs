//! Edge-list representation and CSR construction.
//!
//! Generators and file loaders produce an [`EdgeList`]; the builder
//! turns it into a [`Csr`], optionally symmetrizing (the paper treats
//! every input as undirected), deduplicating parallel edges (keeping the
//! minimum weight, which is the only one that can matter for shortest
//! paths) and dropping self-loops (which never improve any distance).

use crate::{par, Csr, VertexId, Weight};

/// A list of weighted directed edges plus a vertex count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeList {
    /// Number of vertices; every endpoint must be `< num_vertices`.
    pub num_vertices: usize,
    /// `(src, dst, weight)` triples.
    pub edges: Vec<(VertexId, VertexId, Weight)>,
}

impl EdgeList {
    /// New empty edge list over `n` vertices.
    pub fn new(num_vertices: usize) -> Self {
        Self { num_vertices, edges: Vec::new() }
    }

    /// Construct from parts, panicking on out-of-range endpoints.
    pub fn from_edges(num_vertices: usize, edges: Vec<(VertexId, VertexId, Weight)>) -> Self {
        let n = num_vertices as VertexId;
        for &(u, v, _) in &edges {
            assert!(u < n && v < n, "edge ({u},{v}) out of range for n={num_vertices}");
        }
        Self { num_vertices, edges }
    }

    /// Append an edge.
    #[inline]
    pub fn push(&mut self, u: VertexId, v: VertexId, w: Weight) {
        debug_assert!((u as usize) < self.num_vertices && (v as usize) < self.num_vertices);
        self.edges.push((u, v, w));
    }

    /// Number of (directed) edges currently stored.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no edges are stored.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Add the reverse of every edge (same weight). Does not dedup.
    pub fn symmetrize(&mut self) {
        let fwd = self.edges.len();
        self.edges.reserve(fwd);
        for i in 0..fwd {
            let (u, v, w) = self.edges[i];
            if u != v {
                self.edges.push((v, u, w));
            }
        }
    }
}

/// Configurable EdgeList → CSR conversion.
#[derive(Clone, Copy, Debug)]
pub struct CsrBuilder {
    /// Add the reverse of every edge first (undirected semantics).
    pub symmetrize: bool,
    /// Collapse parallel `(u, v)` edges, keeping the minimum weight.
    pub dedup: bool,
    /// Drop `(u, u)` self-loops.
    pub drop_self_loops: bool,
}

impl Default for CsrBuilder {
    /// The paper's preprocessing: undirected, deduplicated, loop-free.
    fn default() -> Self {
        Self { symmetrize: true, dedup: true, drop_self_loops: true }
    }
}

impl CsrBuilder {
    /// A builder that keeps the edge list exactly as given (directed,
    /// multi-edges and loops preserved).
    pub fn directed_raw() -> Self {
        Self { symmetrize: false, dedup: false, drop_self_loops: false }
    }

    /// Build the CSR by counting sort: count each source's out-degree,
    /// scatter the `(dst, weight)` pairs into their rows, then sort each
    /// row by `(dst, weight)` and, with `dedup`, keep the lightest copy
    /// of each destination. Rows come out exactly as a global sort of
    /// every `(src, dst, weight)` triple would leave them, but each sort
    /// only spans one row, and the row sorts split over the cores.
    pub fn build(&self, list: &EdgeList) -> Csr {
        self.build_sorting_in(list, par::ranges_for)
    }

    /// [`CsrBuilder::build`] with its row sorts split into
    /// `ranges(pairs)` contiguous row ranges, each starting at the first
    /// row at or past its share of the pairs, so the ranges sort about
    /// as many pairs each and no row is split.
    fn build_sorting_in(&self, list: &EdgeList, ranges: fn(usize) -> usize) -> Csr {
        let n = list.num_vertices;
        let edges = || list.edges.iter().filter(|&&(u, v, _)| !(self.drop_self_loops && u == v));
        let mut starts = vec![0u32; n + 1];
        for &(u, v, _) in edges() {
            starts[u as usize + 1] += 1;
            if self.symmetrize && u != v {
                starts[v as usize + 1] += 1;
            }
        }
        for i in 0..n {
            starts[i + 1] += starts[i];
        }
        let mut cursor = starts.clone();
        let mut pairs = vec![(0, 0); starts[n] as usize];
        let mut place = |u: VertexId, v: VertexId, w: Weight| {
            let slot = &mut cursor[u as usize];
            pairs[*slot as usize] = (v, w);
            *slot += 1;
        };
        for &(u, v, w) in edges() {
            place(u, v, w);
            if self.symmetrize && u != v {
                place(v, u, w);
            }
        }

        let total = pairs.len();
        let k = ranges(total);
        let first_row_past = |c: usize| starts.partition_point(|&s| (s as usize) < c * total / k);
        let mut rest = pairs.as_mut_slice();
        let mut tasks = Vec::with_capacity(k);
        for c in 0..k {
            let bounds = &starts[first_row_past(c)..=first_row_past(c + 1)];
            let len = (bounds[bounds.len() - 1] - bounds[0]) as usize;
            let (range, tail) = std::mem::take(&mut rest).split_at_mut(len);
            tasks.push((range, bounds));
            rest = tail;
        }
        par::run_each(tasks, |(range, bounds)| {
            let base = bounds[0];
            for row in bounds.windows(2) {
                range[(row[0] - base) as usize..(row[1] - base) as usize].sort_unstable();
            }
        });

        let mut row_offsets = vec![0u32; n + 1];
        let mut adjacency = Vec::with_capacity(pairs.len());
        let mut weights = Vec::with_capacity(pairs.len());
        for u in 0..n {
            let mut last = None;
            for &(v, w) in &pairs[starts[u] as usize..starts[u + 1] as usize] {
                if self.dedup && last == Some(v) {
                    continue;
                }
                last = Some(v);
                adjacency.push(v);
                weights.push(w);
            }
            row_offsets[u + 1] = adjacency.len() as u32;
        }
        Csr::from_raw(row_offsets, adjacency, weights)
    }

    /// Reference build for the property test: sort every
    /// `(src, dst, weight)` triple globally, then dedup by `(src, dst)`.
    #[cfg(test)]
    fn build_by_global_sort(&self, list: &EdgeList) -> Csr {
        let n = list.num_vertices;
        let mut edges: Vec<(VertexId, VertexId, Weight)> =
            Vec::with_capacity(list.edges.len() * if self.symmetrize { 2 } else { 1 });
        for &(u, v, w) in &list.edges {
            if self.drop_self_loops && u == v {
                continue;
            }
            edges.push((u, v, w));
            if self.symmetrize && u != v {
                edges.push((v, u, w));
            }
        }

        // Sort by (src, dst, weight) so dedup keeps the lightest copy.
        edges.sort_unstable();
        if self.dedup {
            edges.dedup_by_key(|e| (e.0, e.1));
        }

        let mut row_offsets = vec![0u32; n + 1];
        for &(u, _, _) in &edges {
            row_offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            row_offsets[i + 1] += row_offsets[i];
        }
        let mut adjacency = Vec::with_capacity(edges.len());
        let mut weights = Vec::with_capacity(edges.len());
        for &(_, v, w) in &edges {
            adjacency.push(v);
            weights.push(w);
        }
        Csr::from_raw(row_offsets, adjacency, weights)
    }
}

/// Shorthand: undirected, deduplicated, loop-free CSR (the paper's
/// standard preprocessing).
pub fn build_undirected(list: &EdgeList) -> Csr {
    CsrBuilder::default().build(list)
}

/// Shorthand: directed CSR preserving the list verbatim.
pub fn build_directed(list: &EdgeList) -> Csr {
    CsrBuilder::directed_raw().build(list)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_undirected() {
        let mut el = EdgeList::new(3);
        el.push(2, 0, 7);
        el.push(0, 1, 3);
        let g = build_undirected(&el);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.edge_weights(0), &[3, 7]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(2), &[0]);
    }

    #[test]
    fn dedup_keeps_min_weight() {
        let el = EdgeList::from_edges(2, vec![(0, 1, 9), (0, 1, 4), (0, 1, 6)]);
        let g = build_undirected(&el);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weights(0), &[4]);
        assert_eq!(g.edge_weights(1), &[4]);
    }

    #[test]
    fn self_loops_dropped_by_default() {
        let el = EdgeList::from_edges(2, vec![(0, 0, 1), (0, 1, 2)]);
        let g = build_undirected(&el);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn directed_raw_preserves_everything() {
        let el = EdgeList::from_edges(2, vec![(0, 0, 1), (0, 1, 2), (0, 1, 3)]);
        let g = build_directed(&el);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[0, 1, 1]);
        assert_eq!(g.degree(1), 0);
    }

    #[test]
    fn symmetrize_method_doubles_non_loops() {
        let mut el = EdgeList::from_edges(3, vec![(0, 1, 2), (1, 1, 5)]);
        el.symmetrize();
        assert_eq!(el.len(), 3); // loop not doubled
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let _ = EdgeList::from_edges(2, vec![(0, 5, 1)]);
    }

    #[test]
    fn counting_sort_build_matches_the_global_sort() {
        use rand::{Rng, SeedableRng};
        // Random lists with self-loops, parallel edges of different
        // weights in both directions and isolated vertices, under every
        // combination of the three flags, with the row sorts on one to
        // five ranges.
        let random_list = |rng: &mut rand_chacha::ChaCha8Rng, n: u32, edges: u32| {
            let mut el = EdgeList::new(n as usize);
            for _ in 0..edges {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let w = rng.gen_range(0..20);
                el.push(u, v, w);
                match rng.gen_range(0..4) {
                    0 => el.push(u, v, rng.gen_range(0..20)),
                    1 => el.push(v, u, rng.gen_range(0..20)),
                    2 => el.push(u, u, w),
                    _ => {}
                }
            }
            el
        };
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xC5A);
        for case in 0..64 {
            let n = rng.gen_range(1..40u32);
            let edges = rng.gen_range(0..6 * n);
            let el = random_list(&mut rng, n, edges);
            for flags in 0..8 {
                let builder = CsrBuilder {
                    symmetrize: flags & 1 != 0,
                    dedup: flags & 2 != 0,
                    drop_self_loops: flags & 4 != 0,
                };
                let reference = builder.build_by_global_sort(&el);
                assert_eq!(builder.build(&el), reference, "case {case}, {builder:?}");
                let forced: [fn(usize) -> usize; 4] = [|_| 2, |_| 3, |_| 4, |_| 5];
                for (k, ranges) in forced.into_iter().enumerate() {
                    let got = builder.build_sorting_in(&el, ranges);
                    assert_eq!(got, reference, "case {case}, {} ranges, {builder:?}", k + 2);
                }
            }
        }
        // Past twice the split size: the sorts take one range per core.
        let el = random_list(&mut rng, 4096, par::MIN_UNITS_PER_RANGE as u32 * 2);
        assert!(el.len() >= 2 * par::MIN_UNITS_PER_RANGE);
        let builder = CsrBuilder::default();
        assert_eq!(builder.build(&el), builder.build_by_global_sort(&el));
    }

    #[test]
    fn empty_list_builds_empty_graph() {
        let g = build_undirected(&EdgeList::new(4));
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 0);
    }
}
