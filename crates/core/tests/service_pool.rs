//! Integration tests for the resident SSSP service, driven purely
//! through the public `rdbs_core::service` API: the buffer pool and
//! the warm-started `DeltaController` are invisible implementation
//! details, so every distance the service returns must be
//! bit-identical to the one-shot entry points, and the device-side
//! upload counters must prove the graph went up exactly once per
//! generation no matter how many sources a batch answers.

use proptest::prelude::*;
use rdbs_core::gpu::{run_gpu, RdbsConfig, Variant};
use rdbs_core::seq::dijkstra;
use rdbs_core::service::{ServiceConfig, SsspService};
use rdbs_core::validate::check_against;
use rdbs_core::{Csr, VertexId};
use rdbs_gpu_sim::DeviceConfig;
use rdbs_graph::builder::{build_undirected, EdgeList};
use rdbs_graph::generate::{
    erdos_renyi, grid_road, preferential_attachment, rmat, uniform_weights, GridConfig, RmatConfig,
};

fn graph(n: usize, m: usize, seed: u64) -> Csr {
    let mut el = erdos_renyi(n, m, seed);
    uniform_weights(&mut el, seed.wrapping_mul(31) + 7);
    build_undirected(&el)
}

fn tiny() -> DeviceConfig {
    DeviceConfig::test_tiny()
}

fn arb_graph() -> impl Strategy<Value = Csr> {
    (8usize..96, 1u64..1_000).prop_map(|(n, seed)| graph(n, n * 4, seed))
}

/// A graph drawn from any of the generator families the suite knows —
/// uniform random, scale-free (R-MAT and preferential attachment), and
/// near-planar road grids — so family-specific frontier shapes
/// (hub-dominated, long-diameter, …) all hit the concurrent scheduler.
fn arb_family_graph() -> impl Strategy<Value = Csr> {
    let finish = |mut el: EdgeList, seed: u64| {
        uniform_weights(&mut el, seed.wrapping_mul(31) + 7);
        build_undirected(&el)
    };
    prop_oneof![
        (16usize..96, 1u64..500).prop_map(move |(n, s)| finish(erdos_renyi(n, n * 4, s), s)),
        (5u32..7, 1u64..500)
            .prop_map(move |(sc, s)| finish(rmat(RmatConfig::graph500(sc, 8), s), s)),
        (4usize..9, 4usize..9, 1u64..500)
            .prop_map(move |(r, c, s)| finish(grid_road(GridConfig::road(r, c), s), s)),
        (16usize..80, 1u64..500)
            .prop_map(move |(n, s)| finish(preferential_attachment(n, 3, s), s)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The headline exactness property: a pooled batch over recycled
    /// buffers and a warm Δ-controller returns exactly the distances
    /// the one-shot entry point computes on a fresh device.
    #[test]
    fn pooled_batch_is_bit_identical_to_one_shot(g in arb_graph(), salt in 0u64..1_000) {
        let n = g.num_vertices();
        let sources: Vec<VertexId> =
            (0..6u64).map(|i| ((i.wrapping_mul(2_654_435_761) ^ salt) % n as u64) as VertexId).collect();
        let variant = Variant::Rdbs(RdbsConfig::full());
        let mut svc = SsspService::new(&g, ServiceConfig::rdbs(tiny()));
        let batched = svc.batch(&sources);
        prop_assert_eq!(svc.stats().fallbacks, 0);
        for (i, &s) in sources.iter().enumerate() {
            let one_shot = run_gpu(&g, s, variant, tiny());
            prop_assert_eq!(&batched[i].dist, &one_shot.result.dist, "source {}", s);
        }
    }

    /// The concurrent scheduler is an exactness-preserving throughput
    /// optimization: for the same sources, a batch spread across four
    /// command streams (per-query buffer leases, interleaved bucket
    /// execution, on-device overflow escalation) returns distances
    /// bit-identical to the sequential batch — on every generator
    /// family — and actually overlaps queries while doing so.
    #[test]
    fn concurrent_batch_is_bit_identical_to_sequential(
        g in arb_family_graph(),
        salt in 0u64..1_000,
    ) {
        let n = g.num_vertices();
        let sources: Vec<VertexId> = (0..8u64)
            .map(|i| ((i.wrapping_mul(2_654_435_761) ^ salt) % n as u64) as VertexId)
            .collect();
        let mut seq = SsspService::new(&g, ServiceConfig::rdbs(tiny()));
        let sequential = seq.batch(&sources);
        let mut con = SsspService::new(&g, ServiceConfig::rdbs(tiny()).with_streams(4));
        let concurrent = con.batch(&sources);
        prop_assert_eq!(con.stats().fallbacks, 0, "concurrent batch fell back to the host");
        prop_assert!(
            con.stats().inflight_peak > 1,
            "scheduler never overlapped queries (peak {})",
            con.stats().inflight_peak
        );
        for (i, (s, c)) in sequential.iter().zip(&concurrent).enumerate() {
            prop_assert_eq!(&s.dist, &c.dist, "source {}", sources[i]);
        }
    }

    /// Re-querying the same source keeps returning the same answer:
    /// the adaptive Δ schedule drifts as the controller warms up, but
    /// Δ-stepping is exact under any schedule.
    #[test]
    fn repeated_queries_are_stable(g in arb_graph(), s in 0u32..8) {
        let source = s % g.num_vertices() as VertexId;
        let mut svc = SsspService::new(&g, ServiceConfig::rdbs(tiny()));
        let first = svc.query(source);
        for _ in 0..3 {
            prop_assert_eq!(&svc.query(source).dist, &first.dist);
        }
    }
}

/// The amortization claim, asserted on the simulator's nvprof-style
/// counters: full RDBS uploads row+adj+wt+light ranges exactly once,
/// an ablation without PRO row+adj+wt, and the count is independent of
/// how many sources the batch answers.
#[test]
fn upload_count_is_independent_of_batch_size() {
    let g = graph(150, 700, 11);
    let no_pro = ServiceConfig { rdbs: RdbsConfig::basyn_adwl(), ..ServiceConfig::rdbs(tiny()) };
    for (config, uploads) in [(ServiceConfig::rdbs(tiny()), 4), (no_pro, 3)] {
        for batch_size in [1usize, 4, 16] {
            let mut svc = SsspService::new(&g, config.clone());
            let sources: Vec<VertexId> = (0..batch_size as VertexId).collect();
            assert_eq!(svc.batch(&sources).len(), batch_size);
            assert_eq!(
                svc.device_uploads(),
                uploads,
                "{batch_size} sources must not change the {uploads}-array upload"
            );
            let stats = svc.stats();
            assert_eq!(stats.queries, batch_size as u64);
            assert_eq!(stats.uploads_avoided, (batch_size as u64 - 1) * uploads);
        }
    }
}

/// Swapping graphs recycles every device buffer: after the first
/// generation warms the pool, later same-sized generations allocate
/// nothing new, and queries on each generation stay oracle-correct.
#[test]
fn generations_recycle_and_stay_correct() {
    let graphs: Vec<Csr> = (0..4).map(|i| graph(100, 480, 40 + i)).collect();
    let mut svc = SsspService::new(&graphs[0], ServiceConfig::rdbs(tiny()));
    svc.batch(&[0, 31, 62]);
    let allocs_after_gen1 = svc.stats().pool_allocs;
    for g in &graphs[1..] {
        svc.load_graph(g);
        for r in svc.batch(&[0, 31, 62]) {
            let oracle = dijkstra(g, r.source);
            assert!(check_against(&oracle.dist, &r.dist).is_ok(), "source {}", r.source);
        }
    }
    let stats = svc.stats();
    assert_eq!(stats.pool_allocs, allocs_after_gen1, "later generations allocate nothing new");
    assert!(stats.pool_reuses >= 3 * 8, "each generation swap recycles the working set");
    assert!(stats.bytes_recycled > 0);
    assert_eq!(stats.graph_uploads, 4 * 4, "four generations x four graph arrays");
}

/// A graph with a single vertex and no edges is the degenerate corner
/// every pool size-class computation has to survive.
#[test]
fn degenerate_single_vertex_graph() {
    let g = build_undirected(&EdgeList::from_edges(1, vec![]));
    let mut svc = SsspService::new(&g, ServiceConfig::rdbs(tiny()));
    let r = svc.query(0);
    assert_eq!(r.dist, vec![0]);
}
