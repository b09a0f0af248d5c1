//! PRO's three steps in one sweep over the rows.
//!
//! The reference pipeline relabels ([`Permutation::apply_to_graph`]),
//! then sorts every row ([`super::sort_edges_by_weight`]), then scans
//! every row again for its heavy offset
//! ([`super::attach_heavy_offsets`]): three passes over the edges, a
//! validation of the intermediate CSR and a per-row weight-order check.
//! [`relabel_sorted`] builds the same CSR, bit for bit, in one pass
//! (and validates only the result): each new row is copied with its
//! destinations renamed, sorted by `(weight, new destination)` and
//! split at `delta` before the next row starts.

use super::permutation::Permutation;
use crate::{Csr, VertexId, Weight};

/// Rows of one to this many edges are padded to it, sorted by a
/// branch-free sorting network and written whole; longer ones are
/// sorted by `sort_unstable`. Both sort the same packed keys, so the
/// limit moves time, never the output. Most rows of a road mesh are
/// this short: the network spares them the mispredicted branches of a
/// comparison sort, and the fixed width those of a per-length dispatch
/// where consecutive rows differ in length (the resident service's
/// BFS-ordered classes).
pub const SHORT_ROW: usize = 4;

/// Relabel `g` by `perm` (old id → new id), sort every row by
/// ascending weight (ties by new destination id) and attach the heavy
/// offsets for `delta`, in one sweep over the new rows.
///
/// The result equals `perm.apply_to_graph(g)` followed by
/// [`super::sort_edges_by_weight`] and [`super::attach_heavy_offsets`].
///
/// # Panics
/// Panics if `perm` does not cover `g`'s vertices.
pub fn relabel_sorted(g: &Csr, perm: &Permutation, delta: Weight) -> Csr {
    let n = g.num_vertices();
    let m = g.num_edges();
    assert_eq!(n, perm.len(), "permutation length != vertex count");
    let new_to_old = perm.inverse();
    let mut rows = Vec::with_capacity(n + 1);
    let mut heavy = Vec::with_capacity(n);
    // A short row is written whole, padding included: `SHORT_ROW` slots
    // of slack, cut off at the end.
    let mut adjacency = vec![0; m + SHORT_ROW];
    let mut weights = vec![0; m + SHORT_ROW];
    let mut long: Vec<u64> = Vec::new();
    let mut end = 0;
    rows.push(0);
    for new_v in 0..n as VertexId {
        let edges = g.edge_range(new_to_old.new_id(new_v));
        let (adj, wt) = (&g.adjacency()[edges.clone()], &g.weights()[edges]);
        let len = adj.len();
        // An edge as `weight << 32 | new destination`: the packed order
        // is the reference's `(weight, destination)` tuple order.
        let key = |j: usize| u64::from(wt[j]) << 32 | u64::from(perm.new_id(adj[j]));
        let light = if (1..=SHORT_ROW).contains(&len) {
            // `u64::MAX` pads: no destination is `VertexId::MAX`, so it
            // sorts after every edge, and its weight is never light.
            let mut row = [u64::MAX; SHORT_ROW];
            for (i, slot) in row.iter_mut().enumerate() {
                let k = key(i.min(len - 1));
                *slot = if i < len { k } else { u64::MAX };
            }
            sort_short(&mut row);
            let span = end..end + SHORT_ROW;
            emit(&row, &mut adjacency[span.clone()], &mut weights[span], delta)
        } else {
            long.clear();
            long.extend((0..len).map(key));
            long.sort_unstable();
            emit(&long, &mut adjacency[end..end + len], &mut weights[end..end + len], delta)
        };
        end += len;
        heavy.push(rows[new_v as usize] + light);
        rows.push(end as u32);
    }
    adjacency.truncate(m);
    weights.truncate(m);
    let mut out = Csr::from_raw(rows, adjacency, weights);
    out.set_heavy_offsets(heavy, delta);
    out
}

/// Unpack sorted keys into a row's destinations and weights; returns
/// how many weigh less than `delta`.
#[inline]
fn emit(keys: &[u64], adjacency: &mut [VertexId], weights: &mut [Weight], delta: Weight) -> u32 {
    let mut light = 0;
    for ((a, w), &k) in adjacency.iter_mut().zip(weights.iter_mut()).zip(keys) {
        *w = (k >> 32) as Weight;
        *a = k as VertexId;
        light += u32::from(*w < delta);
    }
    light
}

/// Sort [`SHORT_ROW`] keys by a sorting network.
fn sort_short(k: &mut [u64; SHORT_ROW]) {
    // Compare-exchange: min and max compile to conditional moves.
    fn cx(k: &mut [u64; SHORT_ROW], i: usize, j: usize) {
        let (a, b) = (k[i], k[j]);
        k[i] = a.min(b);
        k[j] = a.max(b);
    }
    cx(k, 0, 1);
    cx(k, 2, 3);
    cx(k, 0, 2);
    cx(k, 1, 3);
    cx(k, 1, 2);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every row of one to `SHORT_ROW` keys drawn from four values
    /// (repeats included), padded with `u64::MAX`, sorts as
    /// `sort_unstable` sorts it, the padding last.
    #[test]
    fn networks_sort_every_short_row() {
        for len in 1..=SHORT_ROW {
            for code in 0..4usize.pow(len as u32) {
                let mut row = [u64::MAX; SHORT_ROW];
                for (i, slot) in row.iter_mut().take(len).enumerate() {
                    *slot = (code / 4usize.pow(i as u32) % 4) as u64;
                }
                let mut expect = row;
                expect.sort_unstable();
                sort_short(&mut row);
                assert_eq!(row, expect);
            }
        }
    }

    #[test]
    fn sweep_relabels_sorts_and_splits() {
        // 0 -> 1 (w 9), 0 -> 2 (w 3), 1 -> 0 (w 5); reverse the ids.
        let g = Csr::from_raw(vec![0, 2, 3, 3], vec![1, 2, 0], vec![9, 3, 5]);
        let perm = Permutation::from_old_to_new(vec![2, 1, 0]);
        let rg = relabel_sorted(&g, &perm, 4);
        assert_eq!(rg.neighbors(2), &[0, 1]);
        assert_eq!(rg.edge_weights(2), &[3, 9]);
        assert_eq!(rg.neighbors(1), &[2]);
        assert_eq!(rg.heavy_offsets(), Some(&[0, 0, 2][..]));
        assert_eq!(rg.heavy_delta(), Some(4));
    }
}
