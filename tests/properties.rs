//! Property-based tests over the whole stack (proptest).

use proptest::prelude::*;
use rdbs::graph::builder::{build_undirected, EdgeList};
use rdbs::graph::reorder::{self, Permutation};
use rdbs::graph::{Csr, VertexId, Weight};
use rdbs::sim::DeviceConfig;
use rdbs::sssp::gpu::{run_gpu, RdbsConfig, Variant};
use rdbs::sssp::seq::{delta_stepping, dijkstra};
use rdbs::sssp::validate::{audit_sssp, check_against};

/// Strategy: a random weighted undirected graph of up to `n` vertices.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = Csr> {
    (2..max_n).prop_flat_map(move |n| {
        let edge = (0..n as VertexId, 0..n as VertexId, 1..1000 as Weight);
        proptest::collection::vec(edge, 0..max_m)
            .prop_map(move |edges| build_undirected(&EdgeList::from_edges(n, edges)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn delta_stepping_matches_dijkstra(g in arb_graph(60, 200), delta in 1u32..2000, src in 0u32..60) {
        let src = src % g.num_vertices() as u32;
        let oracle = dijkstra(&g, src);
        let r = delta_stepping(&g, src, delta);
        prop_assert_eq!(&r.dist, &oracle.dist);
        prop_assert!(audit_sssp(&g, src, &r.dist).is_clean());
    }

    #[test]
    fn gpu_rdbs_matches_dijkstra(g in arb_graph(50, 160), src in 0u32..50) {
        let src = src % g.num_vertices() as u32;
        let oracle = dijkstra(&g, src);
        let run = run_gpu(&g, src, Variant::Rdbs(RdbsConfig::full()), DeviceConfig::test_tiny());
        prop_assert!(check_against(&oracle.dist, &run.result.dist).is_ok());
    }

    #[test]
    fn pro_preserves_shortest_paths(g in arb_graph(40, 120), delta in 1u32..1500, src in 0u32..40) {
        let src = src % g.num_vertices() as u32;
        let (pg, perm) = reorder::pro(&g, delta);
        // Distances on the reordered graph, mapped back, must equal
        // distances on the original graph.
        let orig = dijkstra(&g, src);
        let re = dijkstra(&pg, perm.new_id(src));
        let mapped = perm.unapply_to_array(&re.dist);
        prop_assert_eq!(&mapped, &orig.dist);
        // PRO structural invariants.
        prop_assert!(pg.is_fully_weight_sorted());
        prop_assert!(pg.validate().is_ok());
    }

    #[test]
    fn permutation_roundtrip(n in 1usize..80, seed in any::<u64>()) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut ids: Vec<VertexId> = (0..n as VertexId).collect();
        ids.shuffle(&mut rand_chacha::ChaCha8Rng::seed_from_u64(seed));
        let p = Permutation::from_old_to_new(ids);
        let vals: Vec<u32> = (0..n as u32).map(|x| x * 7 + 1).collect();
        let there = p.apply_to_array(&vals);
        let back = p.unapply_to_array(&there);
        prop_assert_eq!(back, vals);
        prop_assert_eq!(p.inverse().inverse(), p);
    }

    #[test]
    fn work_stats_invariants(g in arb_graph(50, 200), src in 0u32..50) {
        let src = src % g.num_vertices() as u32;
        let r = dijkstra(&g, src);
        // Checks >= updates; updates >= reached - 1 (every reached
        // non-source vertex was updated at least once).
        prop_assert!(r.stats.checks >= r.stats.total_updates);
        prop_assert!(r.stats.total_updates >= r.reached() as u64 - 1);
    }

    #[test]
    fn simulator_is_deterministic(g in arb_graph(40, 120), src in 0u32..40) {
        let src = src % g.num_vertices() as u32;
        let a = run_gpu(&g, src, Variant::Rdbs(RdbsConfig::full()), DeviceConfig::test_tiny());
        let b = run_gpu(&g, src, Variant::Rdbs(RdbsConfig::full()), DeviceConfig::test_tiny());
        prop_assert_eq!(a.result.dist, b.result.dist);
        prop_assert_eq!(a.counters, b.counters);
        prop_assert!((a.elapsed_ms - b.elapsed_ms).abs() < 1e-12);
    }
}
