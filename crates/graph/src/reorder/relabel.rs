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

/// Rows up to this many edges are sorted by a branch-free sorting
/// network; longer ones by `sort_unstable`. Both sort the same packed
/// keys, so the limit moves time, never the output. Most rows of a road
/// mesh are this short, and a network spares them the mispredicted
/// branches of a comparison sort.
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
    assert_eq!(n, perm.len(), "permutation length != vertex count");
    let new_to_old = perm.inverse();
    let mut rows = Vec::with_capacity(n + 1);
    let mut heavy = Vec::with_capacity(n);
    let mut adjacency = Vec::with_capacity(g.num_edges());
    let mut weights = Vec::with_capacity(g.num_edges());
    // One row's edges as `weight << 32 | new destination`: the packed
    // order is the reference's `(weight, destination)` tuple order.
    let mut keys: Vec<u64> = Vec::new();
    rows.push(0);
    for new_v in 0..n as VertexId {
        let old = new_to_old.new_id(new_v);
        keys.clear();
        keys.extend(g.edges(old).map(|(d, w)| u64::from(w) << 32 | u64::from(perm.new_id(d))));
        sort_row(&mut keys);
        let mut light = 0;
        for &k in &keys {
            let w = (k >> 32) as Weight;
            light += u32::from(w < delta);
            weights.push(w);
            adjacency.push(k as VertexId);
        }
        heavy.push(rows[new_v as usize] + light);
        rows.push(adjacency.len() as u32);
    }
    let mut out = Csr::from_raw(rows, adjacency, weights);
    out.set_heavy_offsets(heavy, delta);
    out
}

/// Sort one row's packed keys: a sorting network up to [`SHORT_ROW`]
/// keys, `sort_unstable` above.
fn sort_row(keys: &mut [u64]) {
    // Compare-exchange: min and max compile to conditional moves.
    fn cx(k: &mut [u64], i: usize, j: usize) {
        let (a, b) = (k[i], k[j]);
        k[i] = a.min(b);
        k[j] = a.max(b);
    }
    match keys.len() {
        0 | 1 => {}
        2 => cx(keys, 0, 1),
        3 => {
            cx(keys, 0, 2);
            cx(keys, 0, 1);
            cx(keys, 1, 2);
        }
        4 => {
            cx(keys, 0, 1);
            cx(keys, 2, 3);
            cx(keys, 0, 2);
            cx(keys, 1, 3);
            cx(keys, 1, 2);
        }
        _ => keys.sort_unstable(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every row of up to `SHORT_ROW + 1` keys drawn from four values
    /// (repeats included) sorts as `sort_unstable` sorts it.
    #[test]
    fn networks_sort_every_short_row() {
        for len in 0..=SHORT_ROW + 1 {
            for code in 0..4usize.pow(len as u32) {
                let row: Vec<u64> =
                    (0..len).map(|i| (code / 4usize.pow(i as u32) % 4) as u64).collect();
                let mut expect = row.clone();
                expect.sort_unstable();
                let mut got = row;
                sort_row(&mut got);
                assert_eq!(got, expect);
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
