//! First-divergence localization.
//!
//! Replays a failing implementation with the relaxation trace sink in
//! `rdbs_core::stats::trace` armed and pinpoints where its settled
//! distances first depart from the Dijkstra oracle: either the first
//! *impossible* relaxation (a write below the true shortest distance —
//! an over-eager fault) or, when the implementation under-relaxes, the
//! earliest-settled mismatched vertex together with the oracle edge it
//! failed to apply.

use crate::registry::Entry;
use crate::registry::{panic_message, TRACED};
use rdbs_core::seq::dijkstra;
use rdbs_core::stats::trace::{self, RelaxEvent};
use rdbs_core::{saturating_relax, Csr, Dist, VertexId, Weight, INF};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Event-buffer capacity for a localization replay. Matrix instances
/// perform a few thousand relaxations; anything past the cap is
/// counted, not stored.
const TRACE_CAP: usize = 1 << 20;

/// Where a failing implementation first departs from the oracle.
#[derive(Debug)]
pub struct Divergence {
    pub impl_id: &'static str,
    /// The earliest-settled vertex with a wrong distance.
    pub vertex: VertexId,
    pub expected: Dist,
    pub actual: Dist,
    /// First relaxation that wrote a distance *below* the oracle's
    /// shortest (impossible in a correct run).
    pub first_bad_event: Option<RelaxEvent>,
    /// Last traced relaxation that wrote the mismatched vertex.
    pub last_write: Option<RelaxEvent>,
    /// An oracle-tight in-edge `(parent, weight)` of the mismatched
    /// vertex the implementation failed to relax (under-relaxation).
    pub missing_edge: Option<(VertexId, Weight)>,
    /// Events captured (0 for uninstrumented implementations).
    pub events: usize,
    /// Events past the buffer cap.
    pub dropped: u64,
    /// Whether the implementation has trace instrumentation at all.
    pub traced: bool,
    /// Panic message, when the replay died instead of mismatching.
    pub panic: Option<String>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(p) = &self.panic {
            return write!(f, "{}: replay panicked: {p}", self.impl_id);
        }
        writeln!(
            f,
            "{}: first divergence at vertex {}: expected {}, got {}",
            self.impl_id,
            self.vertex,
            fmt_dist(self.expected),
            fmt_dist(self.actual)
        )?;
        if let Some(e) = &self.first_bad_event {
            writeln!(
                f,
                "  first impossible relaxation: bucket {} {} layer {}: edge {} -> {} wrote {} (oracle {})",
                e.bucket, e.phase, e.layer, e.src, e.dst, e.new, fmt_dist(self.expected)
            )?;
        }
        if let Some(e) = &self.last_write {
            writeln!(
                f,
                "  last write to vertex {}: bucket {} {} layer {}: edge {} -> {} lowered {} to {}",
                self.vertex,
                e.bucket,
                e.phase,
                e.layer,
                e.src,
                e.dst,
                fmt_dist(e.old),
                e.new
            )?;
        }
        if let Some((p, w)) = self.missing_edge {
            writeln!(
                f,
                "  never relaxed the oracle-tight edge {} -> {} (weight {})",
                p, self.vertex, w
            )?;
        }
        if self.traced {
            write!(f, "  ({} relaxations traced, {} dropped)", self.events, self.dropped)
        } else {
            write!(f, "  (implementation is not trace-instrumented; oracle-side localization only)")
        }
    }
}

fn fmt_dist(d: Dist) -> String {
    if d == INF {
        "INF".into()
    } else {
        d.to_string()
    }
}

/// Replay `imp` on the instance with tracing armed. Returns `None`
/// when the run matches the oracle (nothing to localize).
pub fn localize(
    imp: &Entry,
    graph: &Csr,
    source: VertexId,
    delta0: Option<Weight>,
) -> Option<Divergence> {
    let oracle = dijkstra(graph, source);
    trace::start(TRACE_CAP);
    let outcome = catch_unwind(AssertUnwindSafe(|| imp.run(graph, source, delta0)));
    let (events, dropped) = trace::take();

    let dist = match outcome {
        Ok(r) => r.dist,
        Err(payload) => {
            return Some(Divergence {
                impl_id: imp.id,
                vertex: source,
                expected: 0,
                actual: 0,
                first_bad_event: None,
                last_write: None,
                missing_edge: None,
                events: events.len(),
                dropped,
                traced: imp.has(TRACED),
                panic: Some(panic_message(payload.as_ref())),
            })
        }
    };

    // Earliest divergence in oracle settling order: the mismatched
    // vertex with the smallest true distance (ties by id).
    let (vertex, &expected) = oracle
        .dist
        .iter()
        .enumerate()
        .filter(|&(v, &e)| dist.get(v).is_some_and(|&a| a != e))
        .min_by_key(|&(v, &e)| (e, v))?;
    let vertex = vertex as VertexId;
    let actual = dist.get(vertex as usize).copied().unwrap_or(INF);

    let first_bad_event = events
        .iter()
        .find(|e| (e.dst as usize) < oracle.dist.len() && e.new < oracle.dist[e.dst as usize])
        .cloned();
    let last_write = events.iter().rev().find(|e| e.dst == vertex).cloned();
    // An in-edge that realizes the oracle distance (rows are symmetric
    // in this workspace's undirected CSRs, so out-edges suffice).
    let missing_edge = (actual > expected)
        .then(|| {
            graph
                .edges(vertex)
                .find(|&(p, w)| saturating_relax(oracle.dist[p as usize], w) == expected)
        })
        .flatten();

    Some(Divergence {
        impl_id: imp.id,
        vertex,
        expected,
        actual,
        first_bad_event,
        last_write,
        missing_edge,
        events: events.len(),
        dropped,
        traced: imp.has(TRACED),
        panic: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{by_id, FAULT_OFF_BY_ONE};
    use rdbs_graph::builder::{build_undirected, EdgeList};
    use rdbs_graph::generate::{erdos_renyi, uniform_weights};

    fn matrix_graph() -> Csr {
        let mut el = erdos_renyi(300, 1500, 1);
        uniform_weights(&mut el, 11);
        build_undirected(&el)
    }

    #[test]
    fn correct_impl_has_no_divergence() {
        let g = matrix_graph();
        let imp = by_id("seq/delta-stepping").unwrap();
        assert!(localize(&imp, &g, 0, None).is_none());
    }

    #[test]
    fn traced_impl_records_events() {
        // delta-stepping is instrumented: a correct run leaves no
        // divergence, but the sink must capture real events during an
        // armed replay (checked via the trace module directly).
        let g = matrix_graph();
        trace::start(1 << 20);
        let _ = rdbs_core::seq::delta_stepping(&g, 0, 100);
        let (events, _) = trace::take();
        assert!(!events.is_empty());
    }

    #[test]
    fn gpu_rdbs_full_records_events_in_caller_ids() {
        let g = matrix_graph();
        let oracle = dijkstra(&g, 0);
        trace::start(1 << 20);
        let imp = by_id("gpu/full").unwrap();
        let r = imp.run(&g, 0, None);
        let (events, _) = trace::take();
        assert!(!events.is_empty());
        assert_eq!(r.dist, oracle.dist);
        // Events were remapped out of the PRO labelling: every final
        // write matches the oracle in *caller* ids.
        for e in &events {
            assert!(e.new >= oracle.dist[e.dst as usize], "write below oracle: {e:?}");
        }
    }

    #[test]
    fn cpu_kernels_record_events_through_worker_shards() {
        // The multi-threaded CPU kernels run their relaxations on
        // worker threads; the sharded sink must still capture them on
        // the armed host thread, so the localizer no longer falls back
        // to oracle-side analysis for these implementations.
        let g = matrix_graph();
        let oracle = dijkstra(&g, 0);
        for id in ["cpu/parallel-delta", "cpu/async-bucket"] {
            let imp = by_id(id).unwrap();
            assert!(imp.has(TRACED), "{id} must be marked traced");
            trace::start(1 << 20);
            let r = imp.run(&g, 0, None);
            let (events, _) = trace::take();
            assert!(!events.is_empty(), "{id} recorded no events");
            assert_eq!(r.dist, oracle.dist, "{id}");
            // Merged stream is in (bucket, phase, layer) order.
            let key =
                |e: &RelaxEvent| (e.bucket, matches!(e.phase, trace::Phase::Heavy) as u8, e.layer);
            assert!(events.windows(2).all(|w| key(&w[0]) <= key(&w[1])), "{id} out of order");
            // No correct run writes below the oracle distance.
            for e in &events {
                assert!(e.new >= oracle.dist[e.dst as usize], "{id} write below oracle: {e:?}");
            }
        }
    }

    #[test]
    fn under_relaxation_reports_missing_edge() {
        // Star graph: the fault drops vertex 0's last out-edge, so one
        // leaf is unreachable; the localizer should name the edge.
        let el = EdgeList::from_edges(4, vec![(0, 1, 1), (0, 2, 2), (0, 3, 3)]);
        let g = build_undirected(&el);
        let imp = by_id(FAULT_OFF_BY_ONE).unwrap();
        let d = localize(&imp, &g, 0, None).expect("fault must diverge");
        assert_eq!(d.actual, INF);
        let (p, _) = d.missing_edge.expect("missing oracle edge identified");
        assert_eq!(p, 0);
        assert!(d.panic.is_none());
    }
}
