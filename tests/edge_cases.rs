//! Degenerate-input edge cases every implementation must survive:
//! zero-weight edges, the widest possible bucket (Δ₀ = u32::MAX), a
//! source sitting alone in a disconnected component, and a graph with
//! no edges at all. Each case runs across the sequential Δ-stepping and
//! GPU-RDBS paths and is checked against the Dijkstra oracle.

use rdbs::graph::builder::{build_undirected, EdgeList};
use rdbs::graph::generate::{erdos_renyi, uniform_weights};
use rdbs::graph::{Csr, VertexId, INF};
use rdbs::sim::DeviceConfig;
use rdbs::sssp::gpu::{run_gpu, RdbsConfig, Variant};
use rdbs::sssp::seq::{delta_stepping, dijkstra};
use rdbs::sssp::validate::check_against;

/// Run seq Δ-stepping and GPU RDBS-full on `g` and compare each
/// against the Dijkstra oracle.
fn assert_all_impls_agree(g: &Csr, source: VertexId, delta: u32, label: &str) {
    let oracle = dijkstra(g, source);
    let check = |impl_name: &str, dist: &[u32]| {
        check_against(&oracle.dist, dist)
            .unwrap_or_else(|m| panic!("{label}/{impl_name} source {source}: {m}"));
    };
    check("seq/delta-stepping", &delta_stepping(g, source, delta).dist);
    let cfg = RdbsConfig { delta0: Some(delta), ..RdbsConfig::full() };
    let run = run_gpu(g, source, Variant::Rdbs(cfg), DeviceConfig::test_tiny());
    check("gpu/full", &run.result.dist);
    oracle_sanity(&oracle.dist, source);
}

fn oracle_sanity(dist: &[u32], source: VertexId) {
    assert_eq!(dist[source as usize], 0, "source distance must be 0");
}

#[test]
fn zero_weight_edges() {
    // A zero-weight cluster {0,1,2} hanging off a weighted spine: all
    // cluster members collapse to the same distance, and zero-weight
    // relaxations must neither loop forever nor be skipped.
    let el = EdgeList::from_edges(
        6,
        vec![
            (0, 1, 0),
            (1, 2, 0),
            (2, 0, 0), // zero-weight cycle
            (2, 3, 7),
            (3, 4, 0),
            (4, 5, 9),
        ],
    );
    let g = build_undirected(&el);
    let oracle = dijkstra(&g, 0);
    assert_eq!(oracle.dist, vec![0, 0, 0, 7, 7, 16]);
    for delta in [1, 8, 1000] {
        assert_all_impls_agree(&g, 0, delta, "zero-weight");
    }
}

#[test]
fn zero_weight_edges_on_random_graph() {
    // Random instance where every third edge weighs zero.
    let mut el = erdos_renyi(120, 600, 21);
    uniform_weights(&mut el, 22);
    for (i, e) in el.edges.iter_mut().enumerate() {
        if i % 3 == 0 {
            e.2 = 0;
        }
    }
    let g = build_undirected(&el);
    for source in [0, 17] {
        assert_all_impls_agree(&g, source, 64, "zero-weight-random");
    }
}

#[test]
fn delta0_u32_max_is_one_giant_bucket() {
    // Δ₀ = u32::MAX puts every reachable vertex in bucket 0: the
    // algorithm degenerates to Bellman-Ford-within-a-bucket and any
    // adaptive width-doubling must not overflow.
    let mut el = erdos_renyi(150, 700, 31);
    uniform_weights(&mut el, 32);
    let g = build_undirected(&el);
    assert_all_impls_agree(&g, 0, u32::MAX, "delta-max");
}

#[test]
fn source_in_singleton_component() {
    // Vertex 250 is isolated in the disconnected family: searching
    // *from* it must return 0 for itself and INF everywhere else.
    let mut el = erdos_renyi(200, 400, 5);
    el.num_vertices = 260;
    uniform_weights(&mut el, 15);
    let g = build_undirected(&el);
    let isolated = (0..260).find(|&v| g.degree(v) == 0).expect("family has isolated vertices");
    let oracle = dijkstra(&g, isolated);
    assert_eq!(oracle.dist[isolated as usize], 0);
    assert_eq!(oracle.dist.iter().filter(|&&d| d == INF).count(), 259);
    assert_all_impls_agree(&g, isolated, 64, "singleton-source");
}

#[test]
fn empty_edge_list() {
    // No edges at all: every implementation must terminate immediately
    // with dist = [INF.., 0 at source, INF..].
    let g = build_undirected(&EdgeList::from_edges(5, vec![]));
    assert_eq!(g.num_edges(), 0);
    let oracle = dijkstra(&g, 2);
    assert_eq!(oracle.dist, vec![INF, INF, 0, INF, INF]);
    for delta in [1, u32::MAX] {
        assert_all_impls_agree(&g, 2, delta, "empty");
    }
}
