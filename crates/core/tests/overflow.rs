//! Regression tests for distance-arithmetic overflow: with weights
//! near `u32::MAX`, the unchecked `du + w` the sequential kernels used
//! to perform wraps around in release builds (and panics in debug),
//! turning far vertices into spuriously *near* ones. All relaxations
//! now go through `rdbs_core::saturating_relax`, which clamps to
//! `INF` — an overflowing path degrades to "unreachable" instead of
//! corrupting finite distances.

use rdbs_core::seq::{bellman_ford, delta_stepping, dijkstra};
use rdbs_core::{saturating_relax, INF};
use rdbs_graph::builder::{build_undirected, EdgeList};

const NEAR_MAX: u32 = u32::MAX - 10;

/// A path 0—1—2 whose two hops each weigh almost `u32::MAX` (their sum
/// overflows), plus a direct heavy edge 0—2 that fits. The correct
/// saturating answer: vertex 1 via the first hop, vertex 2 via the
/// direct edge, vertex 3 unreachable within `u32` arithmetic.
fn overflow_graph() -> rdbs_core::Csr {
    let el = EdgeList::from_edges(
        4,
        vec![(0, 1, NEAR_MAX), (1, 2, NEAR_MAX), (0, 2, u32::MAX - 5), (2, 3, NEAR_MAX)],
    );
    build_undirected(&el)
}

#[test]
fn helper_saturates_at_inf() {
    assert_eq!(saturating_relax(0, 7), 7);
    assert_eq!(saturating_relax(NEAR_MAX, NEAR_MAX), INF);
    assert_eq!(saturating_relax(INF, 1), INF);
    assert_eq!(saturating_relax(u32::MAX - 1, 1), u32::MAX);
}

#[test]
fn dijkstra_survives_near_max_weights() {
    let g = overflow_graph();
    let r = dijkstra(&g, 0);
    assert_eq!(r.dist[0], 0);
    assert_eq!(r.dist[1], NEAR_MAX);
    assert_eq!(r.dist[2], u32::MAX - 5);
    // dist[2] + NEAR_MAX overflows → 3 stays unreachable.
    assert_eq!(r.dist[3], INF);
}

#[test]
fn bellman_ford_survives_near_max_weights() {
    let g = overflow_graph();
    let oracle = dijkstra(&g, 0);
    assert_eq!(bellman_ford(&g, 0).dist, oracle.dist);
}

#[test]
fn delta_stepping_survives_near_max_weights() {
    let g = overflow_graph();
    let oracle = dijkstra(&g, 0);
    for delta in [1 << 28, u32::MAX] {
        assert_eq!(delta_stepping(&g, 0, delta).dist, oracle.dist, "delta {delta}");
    }
}

#[test]
fn delta_stepping_narrow_delta_allocation_is_bounded() {
    // Bucket ids reach ~u32::MAX/Δ here. The old dist/Δ-indexed bucket
    // array allocated one Vec per id — billions for Δ = 1 — where the
    // circular wheel keeps a fixed window and jumps across the empty
    // ranges; this completing at all (quickly, in bounded memory) is
    // the regression under test.
    let g = overflow_graph();
    let oracle = dijkstra(&g, 0);
    for delta in [1, 7, 1000] {
        assert_eq!(delta_stepping(&g, 0, delta).dist, oracle.dist, "delta {delta}");
    }
}

#[test]
fn all_sources_agree_near_max() {
    // From every source, frontier Bellman-Ford must agree with the
    // heap oracle even when some relaxations saturate.
    let g = overflow_graph();
    for s in 0..4 {
        let a = dijkstra(&g, s);
        let b = bellman_ford(&g, s);
        assert_eq!(a.dist, b.dist, "source {s}");
    }
}
