//! Oracle validation: compare any SSSP output against Dijkstra.

use crate::seq::dijkstra;
use crate::{Csr, Dist, VertexId, INF};

/// The first disagreement between a result and the oracle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mismatch {
    pub vertex: VertexId,
    pub expected: Dist,
    pub actual: Dist,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "vertex {}: expected {}, got {}",
            self.vertex,
            fmt_dist(self.expected),
            fmt_dist(self.actual)
        )
    }
}

fn fmt_dist(d: Dist) -> String {
    if d == INF {
        "INF".into()
    } else {
        d.to_string()
    }
}

/// Compare `dist` against a fresh Dijkstra run from `source`.
pub fn check_against_dijkstra(
    graph: &Csr,
    source: VertexId,
    dist: &[Dist],
) -> Result<(), Mismatch> {
    let oracle = dijkstra(graph, source);
    check_against(&oracle.dist, dist)
}

/// Compare two distance arrays directly.
pub fn check_against(expected: &[Dist], actual: &[Dist]) -> Result<(), Mismatch> {
    assert_eq!(expected.len(), actual.len(), "length mismatch");
    for (v, (&e, &a)) in expected.iter().zip(actual).enumerate() {
        if e != a {
            return Err(Mismatch { vertex: v as VertexId, expected: e, actual: a });
        }
    }
    Ok(())
}

/// Everything the oracle-free audit found wrong with a distance array.
#[derive(Clone, Debug, Default)]
pub struct SsspAudit {
    /// Vertices whose distances are suspect, sorted and deduplicated —
    /// the seed set for a repair sweep.
    pub flagged: Vec<VertexId>,
    /// Human-readable findings (capped).
    pub notes: Vec<String>,
}

const NOTE_CAP: usize = 16;

impl SsspAudit {
    pub fn is_clean(&self) -> bool {
        self.flagged.is_empty() && self.notes.is_empty()
    }

    fn note(&mut self, msg: String) {
        if self.notes.len() < NOTE_CAP {
            self.notes.push(msg);
        }
    }
}

/// Oracle-free audit of an SSSP output, O(V+E): `dist[source] == 0`,
/// no edge is left relaxable, and every reached vertex is reachable
/// from the source along tight edges (`dist[v] == dist[u] + w`). With
/// non-negative weights that certifies the answer exactly: no
/// relaxable edge bounds every distance from above by the true one,
/// and a tight path from the source bounds it from below. The
/// tight-path walk is what rejects a consistent-looking island of
/// too-low distances, which a per-vertex tight-predecessor test lets
/// certify itself (a zero-weight cycle at a wrong value, say).
///
/// Collects *all* suspect vertices, so a recovery layer can seed a
/// bounded repair from them.
pub fn audit_sssp(graph: &Csr, source: VertexId, dist: &[Dist]) -> SsspAudit {
    let mut audit = SsspAudit::default();
    if dist[source as usize] != 0 {
        audit.note(format!("dist[source] = {}, expected 0", dist[source as usize]));
        audit.flagged.push(source);
    }
    // Too-high side: any still-relaxable edge flags its head.
    for u in 0..dist.len() as VertexId {
        let du = dist[u as usize];
        if du == INF {
            continue;
        }
        for (v, w) in graph.edges(u) {
            let dv = dist[v as usize];
            if dv == INF || dv as u64 > du as u64 + w as u64 {
                audit.note(format!(
                    "edge ({u} -> {v}, w {w}) still relaxable: dist[{u}]={}, dist[{v}]={}",
                    fmt_dist(du),
                    fmt_dist(dv)
                ));
                audit.flagged.push(v);
            }
        }
    }
    // Too-low side: certify reached vertices by a walk over tight
    // edges from the source, read straight off each popped vertex's
    // CSR row; anything reached but uncertified is corrupt (or
    // downstream of a corrupt value).
    let mut certified = vec![false; dist.len()];
    if dist[source as usize] == 0 {
        certified[source as usize] = true;
        let mut stack = vec![source];
        while let Some(u) = stack.pop() {
            // Certified vertices have finite distances.
            let du = dist[u as usize] as u64;
            for (v, w) in graph.edges(u) {
                let dv = dist[v as usize];
                if !certified[v as usize] && dv != INF && du + w as u64 == dv as u64 {
                    certified[v as usize] = true;
                    stack.push(v);
                }
            }
        }
    }
    for (v, (&d, &c)) in dist.iter().zip(&certified).enumerate() {
        if d != INF && !c {
            audit.note(format!("vertex {v} at distance {d} has no tight path from the source"));
            audit.flagged.push(v as VertexId);
        }
    }
    audit.flagged.sort_unstable();
    audit.flagged.dedup();
    audit
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdbs_graph::builder::{build_undirected, EdgeList};

    fn line() -> Csr {
        build_undirected(&EdgeList::from_edges(3, vec![(0, 1, 2), (1, 2, 3)]))
    }

    #[test]
    fn accepts_correct_result() {
        let g = line();
        assert!(check_against_dijkstra(&g, 0, &[0, 2, 5]).is_ok());
        assert!(audit_sssp(&g, 0, &[0, 2, 5]).is_clean());
    }

    #[test]
    fn rejects_wrong_distance() {
        let g = line();
        let err = check_against_dijkstra(&g, 0, &[0, 2, 6]).unwrap_err();
        assert_eq!(err.vertex, 2);
        assert_eq!(err.expected, 5);
        assert!(!audit_sssp(&g, 0, &[0, 2, 6]).is_clean());
    }

    #[test]
    fn audit_flags_both_directions() {
        let g = line();
        assert!(audit_sssp(&g, 0, &[0, 2, 5]).is_clean());
        // Too high at vertex 2: the (1,2) edge is relaxable.
        let high = audit_sssp(&g, 0, &[0, 2, 6]);
        assert!(high.flagged.contains(&2));
        // Too low at vertex 2: no tight path reaches it.
        let low = audit_sssp(&g, 0, &[0, 2, 4]);
        assert!(low.flagged.contains(&2));
        // Unreached-but-reachable is the INF-side of "too high".
        let unreached = audit_sssp(&g, 0, &[0, 2, INF]);
        assert!(unreached.flagged.contains(&2));
    }

    #[test]
    fn audit_rejects_self_certifying_zero_cycle() {
        // a <-> b with weight 0, true distance 5 via the source edge;
        // both claiming 3 leaves no edge relaxable and gives each a
        // tight predecessor (the other), but no tight path from the
        // source reaches them.
        let g = build_undirected(&EdgeList::from_edges(3, vec![(0, 1, 5), (1, 2, 0)]));
        let audit = audit_sssp(&g, 0, &[0, 3, 3]);
        assert_eq!(audit.flagged, vec![1, 2]);
    }

    #[test]
    fn display_formats() {
        let m = Mismatch { vertex: 3, expected: INF, actual: 7 };
        assert_eq!(m.to_string(), "vertex 3: expected INF, got 7");
    }
}
