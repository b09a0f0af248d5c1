//! Delta-debugging failure minimization.
//!
//! Given a failing (graph, source, Δ₀) instance for one
//! implementation, greedily remove edges (ddmin-style chunked
//! removal), drop vertices, and reduce weights while the mismatch
//! persists, converging on a minimal witness — typically a handful of
//! vertices — plus the exact CLI command that replays it.

use crate::registry::Entry;
use crate::runner::{run_case, FailureKind};
use rdbs_core::seq::dijkstra;
use rdbs_core::{VertexId, Weight};
use rdbs_graph::builder::{build_directed, build_undirected, EdgeList};
use rdbs_graph::io::witness::Witness;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Shrinking budget: maximum number of predicate evaluations (each is
/// one full implementation run on a candidate graph). The instances
/// the matrix sweeps are small, so the greedy passes converge far
/// below this.
const MAX_EVALS: usize = 4000;

/// A minimized failing instance.
#[derive(Debug)]
pub struct ShrunkWitness {
    /// The minimal graph + source (the serializable part).
    pub witness: Witness,
    /// How the minimal instance still fails.
    pub failure: FailureKind,
    /// Δ₀ the failure was reproduced under (None → per-impl default).
    pub delta0: Option<Weight>,
    /// Implementation id the witness indicts.
    pub impl_id: &'static str,
    /// Predicate evaluations spent.
    pub evals: usize,
}

impl ShrunkWitness {
    /// The copy-pasteable replay command for `path`, the file the
    /// witness was (or will be) serialized to.
    pub fn repro_command(&self, path: &str) -> String {
        let delta = match self.delta0 {
            Some(d) => format!(" --delta0 {d}"),
            None => String::new(),
        };
        format!("rdbs-cli verify --impl {} --witness {path}{delta}", self.impl_id)
    }
}

/// Does `imp` still fail on this instance? Panics count as failures;
/// an instance whose *oracle* panics is rejected (never shrink toward
/// inputs the reference itself cannot handle). `directed` controls how
/// the candidate edge list becomes a CSR — a directed failure must be
/// minimized against directed rebuilds, or symmetrization would mask
/// (or manufacture) the divergence.
fn fails(
    imp: &Entry,
    el: &EdgeList,
    source: VertexId,
    delta0: Option<Weight>,
    directed: bool,
) -> Option<FailureKind> {
    if (source as usize) >= el.num_vertices {
        return None;
    }
    let graph = if directed { build_directed(el) } else { build_undirected(el) };
    let oracle = catch_unwind(AssertUnwindSafe(|| dijkstra(&graph, source))).ok()?;
    run_case(imp, &graph, &oracle.dist, source, delta0).err()
}

/// Minimize a failing instance. The caller must have established that
/// `imp` fails on `(el, source, delta0)` (with the same `directed`
/// build mode); panics otherwise.
pub fn shrink(
    imp: &Entry,
    el: &EdgeList,
    source: VertexId,
    delta0: Option<Weight>,
) -> ShrunkWitness {
    shrink_built(imp, el, source, delta0, false)
}

/// [`shrink`] for an explicit CSR build mode; `directed = true`
/// minimizes a directed-CSR failure and marks the witness so replay
/// rebuilds the same shape.
pub fn shrink_built(
    imp: &Entry,
    el: &EdgeList,
    source: VertexId,
    delta0: Option<Weight>,
    directed: bool,
) -> ShrunkWitness {
    let evals = std::cell::Cell::new(0usize);
    let check = |candidate: &EdgeList, src: VertexId| -> Option<FailureKind> {
        if evals.get() >= MAX_EVALS {
            return None;
        }
        evals.set(evals.get() + 1);
        fails(imp, candidate, src, delta0, directed)
    };

    let mut failure = check(el, source).expect("shrink() requires a failing instance");
    let mut cur = el.clone();
    let mut src = source;

    loop {
        let before = (cur.edges.len(), cur.num_vertices, weight_sum(&cur));

        // Pass 1: ddmin over edges — remove chunks, halving the chunk
        // size when no chunk can go.
        let mut chunk = cur.edges.len().div_ceil(2).max(1);
        while chunk >= 1 {
            let mut i = 0;
            let mut removed_any = false;
            while i < cur.edges.len() {
                let hi = (i + chunk).min(cur.edges.len());
                let mut candidate = cur.clone();
                candidate.edges.drain(i..hi);
                if let Some(f) = check(&candidate, src) {
                    cur = candidate;
                    failure = f;
                    removed_any = true;
                    // Re-test the same index: the next chunk slid down.
                } else {
                    i = hi;
                }
            }
            if chunk == 1 && !removed_any {
                break;
            }
            chunk = if removed_any { chunk } else { chunk / 2 };
        }

        // Pass 2: drop unused vertices, compacting ids (source
        // included in the remap).
        if let Some((candidate, new_src)) = compact_vertices(&cur, src) {
            if candidate.num_vertices < cur.num_vertices {
                if let Some(f) = check(&candidate, new_src) {
                    cur = candidate;
                    src = new_src;
                    failure = f;
                }
            }
        }

        // Pass 3: weight reduction — each edge to 1, else halved
        // repeatedly.
        for e in 0..cur.edges.len() {
            while cur.edges[e].2 > 1 {
                let mut candidate = cur.clone();
                let w = candidate.edges[e].2;
                candidate.edges[e].2 = if w > 2 { w / 2 } else { 1 };
                match check(&candidate, src) {
                    Some(f) => {
                        cur = candidate;
                        failure = f;
                    }
                    None => break,
                }
            }
        }

        let after = (cur.edges.len(), cur.num_vertices, weight_sum(&cur));
        if after == before || evals.get() >= MAX_EVALS {
            break;
        }
    }

    ShrunkWitness {
        witness: Witness { edges: cur, source: src, directed },
        failure,
        delta0,
        impl_id: imp.id,
        evals: evals.get(),
    }
}

fn weight_sum(el: &EdgeList) -> u64 {
    el.edges.iter().map(|&(_, _, w)| w as u64).sum()
}

/// Remove vertices no edge touches (keeping the source) and relabel
/// the rest densely. Returns `None` when nothing can be dropped.
fn compact_vertices(el: &EdgeList, source: VertexId) -> Option<(EdgeList, VertexId)> {
    let n = el.num_vertices;
    let mut used = vec![false; n];
    used[source as usize] = true;
    for &(u, v, _) in &el.edges {
        used[u as usize] = true;
        used[v as usize] = true;
    }
    if used.iter().all(|&u| u) {
        return None;
    }
    let mut remap = vec![0 as VertexId; n];
    let mut next = 0 as VertexId;
    for (old, &keep) in used.iter().enumerate() {
        if keep {
            remap[old] = next;
            next += 1;
        }
    }
    let edges =
        el.edges.iter().map(|&(u, v, w)| (remap[u as usize], remap[v as usize], w)).collect();
    Some((EdgeList { num_vertices: next as usize, edges }, remap[source as usize]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{by_id, FAULT_OFF_BY_ONE};
    use rdbs_graph::generate::{erdos_renyi, uniform_weights};

    #[test]
    fn compact_drops_isolated_vertices() {
        let el = EdgeList::from_edges(10, vec![(2, 5, 3)]);
        let (small, src) = compact_vertices(&el, 5).unwrap();
        assert_eq!(small.num_vertices, 2);
        assert_eq!(small.edges, vec![(0, 1, 3)]);
        assert_eq!(src, 1);
    }

    #[test]
    fn off_by_one_fault_shrinks_to_tiny_witness() {
        // The acceptance scenario: the injected fault on a real matrix
        // instance must minimize to a witness of at most 20 vertices.
        let imp = by_id(FAULT_OFF_BY_ONE).unwrap();
        let mut el = erdos_renyi(300, 1500, 1);
        uniform_weights(&mut el, 11);
        let shrunk = shrink(&imp, &el, 0, None);
        assert!(
            shrunk.witness.edges.num_vertices <= 20,
            "witness too large: {} vertices",
            shrunk.witness.edges.num_vertices
        );
        // The minimal instance still fails.
        assert!(fails(&imp, &shrunk.witness.edges, shrunk.witness.source, shrunk.delta0, false)
            .is_some());
        assert!(!shrunk.witness.directed);
        let cmd = shrunk.repro_command("witness.txt");
        assert!(cmd.contains("--impl fault/off-by-one"));
        assert!(cmd.contains("--witness witness.txt"));
    }

    #[test]
    fn directed_failure_shrinks_with_directed_rebuilds() {
        // The fault specimen also diverges on directed CSRs; the
        // shrinker must minimize against directed rebuilds and mark
        // the witness, so replay reconstructs the same graph shape.
        let imp = by_id(FAULT_OFF_BY_ONE).unwrap();
        let mut el = erdos_renyi(200, 1200, 4);
        uniform_weights(&mut el, 13);
        assert!(fails(&imp, &el, 0, None, true).is_some(), "specimen passes directed? pick a seed");
        let shrunk = shrink_built(&imp, &el, 0, None, true);
        assert!(shrunk.witness.directed);
        assert!(shrunk.witness.edges.num_vertices <= 20);
        // Still fails under directed rebuild — and the witness marks it.
        assert!(fails(&imp, &shrunk.witness.edges, shrunk.witness.source, None, true).is_some());
    }
}
