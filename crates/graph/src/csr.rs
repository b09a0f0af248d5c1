//! Compressed Sparse Row graph representation.
//!
//! The layout mirrors Fig. 1 (c) of the paper: a `row list` of offsets,
//! an `adjacency list` of destination vertices and a `value list` of
//! edge weights. After property-driven reordering (Fig. 4 (c)) a fourth
//! array is attached: per-vertex *heavy-edge offsets*, pointing at the
//! first adjacent edge whose weight is `>= delta` (edges are then sorted
//! by ascending weight, so light edges form a prefix).

use crate::{Dist, VertexId, Weight, INF};

/// A directed weighted graph in CSR form.
///
/// Invariants (checked by [`Csr::validate`] and enforced by the
/// constructors):
/// * `row_offsets.len() == num_vertices() + 1`, non-decreasing,
///   `row_offsets[0] == 0`, `row_offsets[n] == num_edges()`;
/// * `adjacency.len() == weights.len() == num_edges()`;
/// * every adjacency entry is `< num_vertices()`;
/// * if present, `heavy_offsets[v]` lies within `v`'s edge range and all
///   edges before it are light (`w < delta`) and all at/after are heavy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr {
    row_offsets: Vec<u32>,
    adjacency: Vec<VertexId>,
    weights: Vec<Weight>,
    /// Absolute edge index where vertex `v`'s heavy edges start, for the
    /// delta the offsets were computed with. `None` until
    /// [`crate::reorder::heavy_offset::attach_heavy_offsets`] runs.
    heavy_offsets: Option<Vec<u32>>,
    /// The delta value the heavy offsets were computed against.
    heavy_delta: Option<Weight>,
}

impl Csr {
    /// Build a CSR directly from its raw arrays.
    ///
    /// ```
    /// use rdbs_graph::Csr;
    /// // 0 -> 1 (w 2), 0 -> 2 (w 5), 1 -> 2 (w 1)
    /// let g = Csr::from_raw(vec![0, 2, 3, 3], vec![1, 2, 2], vec![2, 5, 1]);
    /// assert_eq!(g.num_vertices(), 3);
    /// assert_eq!(g.neighbors(0), &[1, 2]);
    /// assert_eq!(g.edges(1).collect::<Vec<_>>(), vec![(2, 1)]);
    /// ```
    ///
    /// # Panics
    /// Panics if the arrays violate the CSR invariants.
    pub fn from_raw(row_offsets: Vec<u32>, adjacency: Vec<VertexId>, weights: Vec<Weight>) -> Self {
        Self::try_from_raw(row_offsets, adjacency, weights).expect("invalid CSR arrays")
    }

    /// Like [`Csr::from_raw`] but returns the first invariant
    /// violation instead of panicking — for loaders that handle
    /// untrusted input (e.g. [`crate::io::binary`]).
    pub fn try_from_raw(
        row_offsets: Vec<u32>,
        adjacency: Vec<VertexId>,
        weights: Vec<Weight>,
    ) -> Result<Self, String> {
        let csr = Self { row_offsets, adjacency, weights, heavy_offsets: None, heavy_delta: None };
        csr.validate()?;
        Ok(csr)
    }

    /// An empty graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        Self {
            row_offsets: vec![0; n + 1],
            adjacency: Vec::new(),
            weights: Vec::new(),
            heavy_offsets: None,
            heavy_delta: None,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adjacency.len()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u32 {
        self.row_offsets[v as usize + 1] - self.row_offsets[v as usize]
    }

    /// Edge index range `[start, end)` of `v`'s adjacency.
    #[inline]
    pub fn edge_range(&self, v: VertexId) -> std::ops::Range<usize> {
        self.row_offsets[v as usize] as usize..self.row_offsets[v as usize + 1] as usize
    }

    /// The neighbours of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.adjacency[self.edge_range(v)]
    }

    /// The weights of `v`'s out-edges, parallel to [`Csr::neighbors`].
    #[inline]
    pub fn edge_weights(&self, v: VertexId) -> &[Weight] {
        &self.weights[self.edge_range(v)]
    }

    /// Iterate `(destination, weight)` pairs of `v`'s out-edges.
    #[inline]
    pub fn edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let r = self.edge_range(v);
        self.adjacency[r.clone()].iter().copied().zip(self.weights[r].iter().copied())
    }

    /// Iterate every directed edge as `(src, dst, weight)`.
    pub fn all_edges(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        (0..self.num_vertices() as VertexId)
            .flat_map(move |u| self.edges(u).map(move |(v, w)| (u, v, w)))
    }

    /// Raw row-offset array (length `n + 1`).
    #[inline]
    pub fn row_offsets(&self) -> &[u32] {
        &self.row_offsets
    }

    /// Raw adjacency array.
    #[inline]
    pub fn adjacency(&self) -> &[VertexId] {
        &self.adjacency
    }

    /// Raw weight array.
    #[inline]
    pub fn weights(&self) -> &[Weight] {
        &self.weights
    }

    /// The heavy-edge offset array, if attached.
    #[inline]
    pub fn heavy_offsets(&self) -> Option<&[u32]> {
        self.heavy_offsets.as_deref()
    }

    /// The delta the heavy offsets were computed for.
    #[inline]
    pub fn heavy_delta(&self) -> Option<Weight> {
        self.heavy_delta
    }

    /// Attach a heavy-offset array (see [`crate::reorder::heavy_offset`]).
    pub(crate) fn set_heavy_offsets(&mut self, offsets: Vec<u32>, delta: Weight) {
        debug_assert_eq!(offsets.len(), self.num_vertices());
        self.heavy_offsets = Some(offsets);
        self.heavy_delta = Some(delta);
    }

    /// Mutable access to the adjacency/weight arrays for in-place
    /// per-vertex reordering. Clears heavy offsets since they may no
    /// longer be valid.
    pub(crate) fn edges_mut(&mut self) -> (&[u32], &mut [VertexId], &mut [Weight]) {
        self.heavy_offsets = None;
        self.heavy_delta = None;
        (&self.row_offsets, &mut self.adjacency, &mut self.weights)
    }

    /// `v`'s light-edge range `[start, heavy_start)` for weight
    /// threshold `delta`.
    ///
    /// If heavy offsets for exactly this delta are attached this is an
    /// O(1) lookup; otherwise, if the adjacency is weight-sorted, a
    /// binary search; otherwise `None` (the caller must scan).
    pub fn light_range(&self, v: VertexId, delta: Weight) -> Option<std::ops::Range<usize>> {
        let r = self.edge_range(v);
        if let (Some(offsets), Some(hd)) = (&self.heavy_offsets, self.heavy_delta) {
            if hd == delta {
                return Some(r.start..offsets[v as usize] as usize);
            }
        }
        if self.is_weight_sorted(v) {
            let ws = &self.weights[r.clone()];
            let split = ws.partition_point(|&w| w < delta);
            return Some(r.start..r.start + split);
        }
        None
    }

    /// Number of light edges (`w < delta`) of `v`, scanning if needed.
    pub fn light_degree(&self, v: VertexId, delta: Weight) -> u32 {
        match self.light_range(v, delta) {
            Some(r) => r.len() as u32,
            None => self.edge_weights(v).iter().filter(|&&w| w < delta).count() as u32,
        }
    }

    /// Whether `v`'s edges are sorted by ascending weight.
    pub fn is_weight_sorted(&self, v: VertexId) -> bool {
        self.edge_weights(v).windows(2).all(|p| p[0] <= p[1])
    }

    /// Whether every vertex's edges are sorted by ascending weight.
    pub fn is_fully_weight_sorted(&self) -> bool {
        (0..self.num_vertices() as VertexId).all(|v| self.is_weight_sorted(v))
    }

    /// Maximum edge weight, or 0 for an edgeless graph.
    pub fn max_weight(&self) -> Weight {
        self.weights.iter().copied().max().unwrap_or(0)
    }

    /// Mean edge weight, or 0.0 for an edgeless graph.
    pub fn mean_weight(&self) -> f64 {
        if self.weights.is_empty() {
            return 0.0;
        }
        self.weights.iter().map(|&w| w as f64).sum::<f64>() / self.weights.len() as f64
    }

    /// An upper bound on any finite shortest-path distance:
    /// `(n - 1) * max_weight`, saturating. Useful as a guard against
    /// distance overflow in debug assertions.
    pub fn distance_bound(&self) -> Dist {
        (self.num_vertices() as u64)
            .saturating_sub(1)
            .saturating_mul(self.max_weight() as u64)
            .min(INF as u64 - 1) as Dist
    }

    /// Verify all CSR invariants, returning a description of the first
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.row_offsets.is_empty() {
            return Err("row_offsets must have at least one entry".into());
        }
        if self.row_offsets[0] != 0 {
            return Err("row_offsets[0] must be 0".into());
        }
        if !self.row_offsets.windows(2).all(|p| p[0] <= p[1]) {
            return Err("row_offsets must be non-decreasing".into());
        }
        let m = *self.row_offsets.last().unwrap() as usize;
        if m != self.adjacency.len() {
            return Err(format!(
                "row_offsets end ({m}) != adjacency len ({})",
                self.adjacency.len()
            ));
        }
        if self.adjacency.len() != self.weights.len() {
            return Err(format!(
                "adjacency len ({}) != weights len ({})",
                self.adjacency.len(),
                self.weights.len()
            ));
        }
        let n = self.num_vertices() as VertexId;
        if let Some(&bad) = self.adjacency.iter().find(|&&d| d >= n) {
            return Err(format!("adjacency entry {bad} out of range (n = {n})"));
        }
        if let (Some(offsets), Some(delta)) = (&self.heavy_offsets, self.heavy_delta) {
            if offsets.len() != self.num_vertices() {
                return Err("heavy_offsets length mismatch".into());
            }
            for v in 0..n {
                let r = self.edge_range(v);
                let h = offsets[v as usize] as usize;
                if h < r.start || h > r.end {
                    return Err(format!("heavy offset of {v} outside edge range"));
                }
                if self.weights[r.start..h].iter().any(|&w| w >= delta) {
                    return Err(format!("light prefix of {v} contains heavy edge"));
                }
                if self.weights[h..r.end].iter().any(|&w| w < delta) {
                    return Err(format!("heavy suffix of {v} contains light edge"));
                }
            }
        }
        Ok(())
    }

    /// Total bytes of the raw arrays (for memory accounting in the
    /// experiment harness).
    pub fn memory_bytes(&self) -> usize {
        self.row_offsets.len() * 4
            + self.adjacency.len() * 4
            + self.weights.len() * 4
            + self.heavy_offsets.as_ref().map_or(0, |h| h.len() * 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Csr {
        // 0 -> 1 (w 2), 0 -> 2 (w 5), 1 -> 3 (w 1), 2 -> 3 (w 1)
        Csr::from_raw(vec![0, 2, 3, 4, 4], vec![1, 2, 3, 3], vec![2, 5, 1, 1])
    }

    #[test]
    fn basic_accessors() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.edge_weights(0), &[2, 5]);
        assert_eq!(g.edges(1).collect::<Vec<_>>(), vec![(3, 1)]);
    }

    #[test]
    fn all_edges_enumerates_in_csr_order() {
        let g = diamond();
        let edges: Vec<_> = g.all_edges().collect();
        assert_eq!(edges, vec![(0, 1, 2), (0, 2, 5), (1, 3, 1), (2, 3, 1)]);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(3);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.max_weight(), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn light_degree_by_scan_and_sorted() {
        let g = diamond();
        // vertex 0 weights [2, 5]; sorted, so light_range applies.
        assert_eq!(g.light_degree(0, 3), 1);
        assert_eq!(g.light_degree(0, 6), 2);
        assert_eq!(g.light_degree(0, 1), 0);
        assert_eq!(g.light_range(0, 3), Some(0..1));
    }

    #[test]
    fn light_range_unsorted_returns_none() {
        // weights [5, 2] unsorted
        let g = Csr::from_raw(vec![0, 2, 2], vec![1, 1], vec![5, 2]);
        assert!(g.light_range(0, 3).is_none());
        assert_eq!(g.light_degree(0, 3), 1);
    }

    #[test]
    #[should_panic(expected = "invalid CSR")]
    fn out_of_range_adjacency_panics() {
        let _ = Csr::from_raw(vec![0, 1], vec![7], vec![1]);
    }

    #[test]
    #[should_panic(expected = "invalid CSR")]
    fn decreasing_offsets_panic() {
        let _ = Csr::from_raw(vec![0, 2, 1], vec![0, 0], vec![1, 1]);
    }

    #[test]
    fn distance_bound_saturates() {
        let g = diamond();
        assert_eq!(g.distance_bound(), 3 * 5);
    }

    #[test]
    fn validate_catches_weight_len_mismatch() {
        let g = Csr {
            row_offsets: vec![0, 1],
            adjacency: vec![0],
            weights: vec![],
            heavy_offsets: None,
            heavy_delta: None,
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn mean_weight() {
        let g = diamond();
        assert!((g.mean_weight() - 2.25).abs() < 1e-12);
        assert_eq!(Csr::empty(1).mean_weight(), 0.0);
    }
}
