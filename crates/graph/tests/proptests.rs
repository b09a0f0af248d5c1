//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use rdbs_graph::builder::{build_directed, build_undirected, CsrBuilder, EdgeList};
use rdbs_graph::io;
use rdbs_graph::reorder;
use rdbs_graph::{VertexId, Weight};
use std::io::Cursor;

fn arb_edges(max_n: usize, max_m: usize) -> impl Strategy<Value = EdgeList> {
    (2..max_n).prop_flat_map(move |n| {
        let edge = (0..n as VertexId, 0..n as VertexId, 1..1000 as Weight);
        proptest::collection::vec(edge, 0..max_m)
            .prop_map(move |edges| EdgeList::from_edges(n, edges))
    })
}

/// A graph with one hub row longer than the fused PRO sweep's
/// short-row sort limit, short rows among the random edges, and a
/// reserved triangle whose rows hold two edges each. Hub weights come
/// from a small range, so equal weights fall back on the destination
/// tie-break; built directed, the random edges also repeat
/// `(weight, destination)` pairs.
fn arb_hub_graph() -> impl Strategy<Value = EdgeList> {
    let short = reorder::relabel::SHORT_ROW;
    ((short + 6)..64usize).prop_flat_map(move |n| {
        let (a, b, c) = (n as VertexId - 3, n as VertexId - 2, n as VertexId - 1);
        let edge = (0..a, 0..a, 1..1000 as Weight);
        let hub = proptest::collection::vec(1..12 as Weight, (short + 1)..(n - 3));
        (proptest::collection::vec(edge, 0..64), hub).prop_map(move |(mut edges, hub)| {
            edges.extend(hub.iter().enumerate().map(|(i, &w)| (0, i as VertexId + 1, w)));
            edges.extend([(a, b, 7), (a, c, 3), (b, c, 7)]);
            EdgeList::from_edges(n, edges)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// `bfs_visit` (one slack slot, no branch per edge) visits in the
    /// order of a plain queue BFS that restarts at the lowest unvisited
    /// id, directed and undirected, from any first vertex.
    #[test]
    fn bfs_visit_matches_a_queue_bfs(el in arb_edges(48, 160), first in 0u32..60) {
        for g in [build_undirected(&el), build_directed(&el)] {
            let n = g.num_vertices();
            let mut seen = vec![false; n];
            let mut expect = Vec::new();
            let roots = std::iter::once(first).filter(|&v| (v as usize) < n);
            for root in roots.chain(0..n as VertexId) {
                if std::mem::replace(&mut seen[root as usize], true) {
                    continue;
                }
                let mut queue = std::collections::VecDeque::from([root]);
                while let Some(u) = queue.pop_front() {
                    expect.push(u);
                    for &v in g.neighbors(u) {
                        if !std::mem::replace(&mut seen[v as usize], true) {
                            queue.push_back(v);
                        }
                    }
                }
            }
            prop_assert_eq!(reorder::bfs_visit(&g, first), expect);
        }
    }

    /// `pro`'s one-sweep build is bit-identical to the three-step
    /// reference: relabel, sort every row, attach the heavy offsets.
    #[test]
    fn fused_pro_matches_the_three_step_reference(el in arb_hub_graph(), delta in 1u32..1000) {
        let short = reorder::relabel::SHORT_ROW;
        for g in [build_undirected(&el), build_directed(&el)] {
            let degrees: Vec<usize> =
                (0..g.num_vertices() as VertexId).map(|v| g.degree(v) as usize).collect();
            prop_assert!(degrees.iter().any(|&d| d > short));
            prop_assert!(degrees.iter().any(|&d| (2..=short).contains(&d)));
            let perm = reorder::degree_descending(&g);
            let mut reference = perm.apply_to_graph(&g);
            reorder::sort_edges_by_weight(&mut reference);
            reorder::attach_heavy_offsets(&mut reference, delta);
            let (fused, fused_perm) = reorder::pro(&g, delta);
            prop_assert_eq!(&fused_perm, &perm);
            prop_assert_eq!(&fused, &reference);
        }
    }

    /// The sweep under any numbering, rows of every length in any
    /// order (as the resident service's BFS-ordered classes give it), is
    /// bit-identical to the three-step reference.
    #[test]
    fn relabel_sweep_matches_the_reference_in_any_order(
        el in arb_hub_graph(),
        delta in 1u32..1000,
        seed in any::<u64>(),
    ) {
        for g in [build_undirected(&el), build_directed(&el)] {
            let perm = reorder::random_order(&g, seed);
            let mut reference = perm.apply_to_graph(&g);
            reorder::sort_edges_by_weight(&mut reference);
            reorder::attach_heavy_offsets(&mut reference, delta);
            prop_assert_eq!(&reorder::relabel_sorted(&g, &perm, delta), &reference);
        }
    }

    #[test]
    fn builder_invariants(el in arb_edges(64, 256)) {
        let g = build_undirected(&el);
        prop_assert!(g.validate().is_ok());
        // Undirected: every edge has its reverse with the same weight.
        for (u, v, w) in g.all_edges() {
            prop_assert!(g.edges(v).any(|(x, wx)| x == u && wx == w));
        }
        // No self loops, no duplicate (u, v) pairs.
        for u in 0..g.num_vertices() as VertexId {
            let mut seen = std::collections::HashSet::new();
            for (v, _) in g.edges(u) {
                prop_assert_ne!(u, v);
                prop_assert!(seen.insert(v), "duplicate edge ({}, {})", u, v);
            }
        }
    }

    #[test]
    fn directed_raw_preserves_count(el in arb_edges(64, 256)) {
        let g = build_directed(&el);
        prop_assert_eq!(g.num_edges(), el.len());
    }

    #[test]
    fn dedup_keeps_minimum(el in arb_edges(24, 128)) {
        let g = CsrBuilder { symmetrize: false, dedup: true, drop_self_loops: true }.build(&el);
        for (u, v, w) in g.all_edges() {
            let min = el.edges.iter()
                .filter(|&&(a, b, _)| a == u && b == v)
                .map(|&(_, _, w)| w)
                .min()
                .unwrap();
            prop_assert_eq!(w, min);
        }
    }

    #[test]
    fn edge_list_io_roundtrip(el in arb_edges(64, 128)) {
        let mut buf = Vec::new();
        io::write_edge_list(&el, &mut buf).unwrap();
        let back = io::parse_edge_list(Cursor::new(buf)).unwrap();
        prop_assert_eq!(back.edges, el.edges);
    }

    #[test]
    fn dimacs_io_roundtrip(el in arb_edges(64, 128)) {
        let mut buf = Vec::new();
        io::write_dimacs(&el, &mut buf).unwrap();
        let back = io::parse_dimacs(Cursor::new(buf)).unwrap();
        prop_assert_eq!(back.num_vertices, el.num_vertices);
        prop_assert_eq!(back.edges, el.edges);
    }

    #[test]
    fn binary_io_roundtrip(el in arb_edges(64, 128)) {
        let g = build_undirected(&el);
        let mut buf = Vec::new();
        io::write_binary_csr(&g, &mut buf).unwrap();
        let back = io::read_binary_csr(&buf[..]).unwrap();
        prop_assert_eq!(back, g);
    }

    #[test]
    fn binary_io_roundtrip_with_pro(el in arb_edges(48, 96), delta in 1u32..1500) {
        let (g, _) = reorder::pro(&build_undirected(&el), delta);
        let mut buf = Vec::new();
        io::write_binary_csr(&g, &mut buf).unwrap();
        let back = io::read_binary_csr(&buf[..]).unwrap();
        prop_assert_eq!(back.heavy_offsets(), g.heavy_offsets());
        prop_assert_eq!(back, g);
    }

    #[test]
    fn degree_reorder_is_monotone(el in arb_edges(64, 256)) {
        let g = build_undirected(&el);
        let p = reorder::degree_descending(&g);
        let rg = p.apply_to_graph(&g);
        let degs: Vec<u32> = (0..rg.num_vertices() as VertexId).map(|v| rg.degree(v)).collect();
        prop_assert!(degs.windows(2).all(|w| w[0] >= w[1]));
        // Degree multiset preserved.
        let mut a: Vec<u32> = (0..g.num_vertices() as VertexId).map(|v| g.degree(v)).collect();
        let mut b = degs;
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn heavy_offsets_partition_edges(el in arb_edges(48, 192), delta in 1u32..1500) {
        let g = build_undirected(&el);
        let mut sorted = g.clone();
        reorder::sort_edges_by_weight(&mut sorted);
        reorder::attach_heavy_offsets(&mut sorted, delta);
        let offsets = sorted.heavy_offsets().unwrap();
        for v in 0..sorted.num_vertices() as VertexId {
            let r = sorted.edge_range(v);
            let h = offsets[v as usize] as usize;
            let light = sorted.weights()[r.start..h].iter().filter(|&&w| w < delta).count();
            prop_assert_eq!(light, h - r.start);
            prop_assert!(sorted.weights()[h..r.end].iter().all(|&w| w >= delta));
            prop_assert_eq!(
                sorted.light_degree(v, delta),
                g.edge_weights(v).iter().filter(|&&w| w < delta).count() as u32
            );
        }
    }

    #[test]
    fn matrix_market_parse_synthesized(el in arb_edges(32, 64)) {
        // Write a MatrixMarket file by hand, parse it back.
        let mut text = format!(
            "%%MatrixMarket matrix coordinate integer general\n{} {} {}\n",
            el.num_vertices, el.num_vertices, el.len()
        );
        for &(u, v, w) in &el.edges {
            text.push_str(&format!("{} {} {}\n", u + 1, v + 1, w));
        }
        let back = io::parse_matrix_market(Cursor::new(text)).unwrap();
        prop_assert_eq!(back.edges, el.edges);
    }
}
