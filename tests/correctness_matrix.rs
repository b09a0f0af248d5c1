//! Cross-crate correctness matrix: every SSSP implementation in the
//! workspace × every graph family × several seeded sources must agree
//! with the Dijkstra oracle exactly.
//!
//! The sweep itself lives in `rdbs::conformance` (shared with
//! `rdbs-cli verify`); these tests drive the same harness so the
//! in-tree matrix and the CLI can never drift apart.

use rdbs::conformance::registry::DIFFERENTIAL;
use rdbs::conformance::{
    all, by_id, run_matrix, shrink, with_faults, SweepOptions, FAULT_OFF_BY_ONE,
};
use rdbs::graph::builder::{build_undirected, EdgeList};
use rdbs::graph::generate::{erdos_renyi, uniform_weights};
use rdbs::sim::DeviceConfig;
use rdbs::sssp::gpu::{run_gpu, RdbsConfig, Variant};
use rdbs::sssp::seq::dijkstra;
use rdbs::sssp::validate::check_against;

#[test]
fn every_implementation_matches_dijkstra() {
    let report = run_matrix(&SweepOptions::default(), |_, _, _, _| {});
    let differential = all().iter().filter(|e| e.has(DIFFERENTIAL)).count();
    assert!(report.impls_run >= differential, "registry shrank");
    assert!(report.graphs_run >= 5, "family list shrank");
    assert!(
        report.is_green(),
        "{} conformance failures:\n{}",
        report.failures.len(),
        report
            .failures
            .iter()
            .map(|f| format!("  {} on {} from {}: {}", f.impl_id, f.graph, f.source, f.kind))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn injected_fault_is_caught_and_minimized() {
    // End-to-end acceptance: the deliberate off-by-one specimen must be
    // flagged by the matrix and then shrink to a replayable witness of
    // at most 20 vertices.
    let opts = SweepOptions {
        quick: true,
        entry_filter: Some("fault/".into()),
        include_faults: true,
        ..SweepOptions::default()
    };
    let report = run_matrix(&opts, |_, _, _, _| {});
    assert!(!report.is_green(), "fault specimen went undetected");

    let imp = by_id(FAULT_OFF_BY_ONE).unwrap();
    assert!(with_faults().iter().any(|i| i.id == FAULT_OFF_BY_ONE));
    let mut el = erdos_renyi(300, 1500, 1);
    uniform_weights(&mut el, 11);
    let shrunk = shrink(&imp, &el, 0, None);
    assert!(
        shrunk.witness.edges.num_vertices <= 20,
        "witness not minimal: {} vertices",
        shrunk.witness.edges.num_vertices
    );
    let cmd = shrunk.repro_command("witness.txt");
    assert!(cmd.starts_with("rdbs-cli verify --impl fault/off-by-one"));
}

#[test]
fn delta_extremes_are_correct_on_gpu() {
    let mut el = erdos_renyi(150, 800, 8);
    uniform_weights(&mut el, 9);
    let g = build_undirected(&el);
    let oracle = dijkstra(&g, 3);
    for delta0 in [1u32, 7, 999, 1000, 100_000] {
        let cfg = RdbsConfig { delta0: Some(delta0), ..RdbsConfig::full() };
        let run = run_gpu(&g, 3, Variant::Rdbs(cfg), DeviceConfig::test_tiny());
        check_against(&oracle.dist, &run.result.dist)
            .unwrap_or_else(|m| panic!("delta0 {delta0}: {m}"));
    }
}

#[test]
fn single_vertex_and_self_loop_edge_cases() {
    // Self-loops are dropped by the builder; a singleton graph works
    // in every registered implementation.
    let g = build_undirected(&EdgeList::from_edges(1, vec![(0, 0, 5)]));
    let oracle = dijkstra(&g, 0);
    assert_eq!(oracle.dist, vec![0]);
    for imp in all() {
        let r = imp.run(&g, 0, None);
        check_against(&oracle.dist, &r.dist)
            .unwrap_or_else(|m| panic!("{} on singleton: {m}", imp.id));
    }
}
