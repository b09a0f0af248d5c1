//! Cross-family properties of the pluggable frontier. The MLMQ reorders
//! relaxations far more aggressively than the single workload-queue
//! layout (lane-hashed sub-queues, spill to the deferred level), so the
//! property worth pinning is end-to-end: on every graph family, driven
//! through the concurrent service with real stream overlap, its final
//! distances are exactly Dijkstra's.

use proptest::prelude::*;
use rdbs_conformance::families;
use rdbs_core::gpu::FrontierKind;
use rdbs_core::seq::dijkstra;
use rdbs_core::service::{ServiceConfig, SsspService};
use rdbs_core::VertexId;
use rdbs_gpu_sim::DeviceConfig;

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// MLMQ ≡ Dijkstra on every family, through a 4-stream service
    /// batch (queries genuinely overlap), with the queues either amply
    /// provisioned or under-provisioned so the spill path carries real
    /// traffic. Spill must absorb the pressure on-device: zero host
    /// fallbacks in every configuration.
    #[test]
    fn mlmq_matches_dijkstra_across_families(
        family_idx in 0usize..5,
        source_salt in 0u32..1000,
        under_provision in any::<bool>(),
    ) {
        let fams = families();
        let family = &fams[family_idx % fams.len()];
        let graph = family.build();
        let n = graph.num_vertices() as u32;

        let mut config = ServiceConfig::rdbs(DeviceConfig::test_tiny())
            .with_streams(4)
            .with_frontier(FrontierKind::Mlmq);
        if under_provision {
            // 4 × (n/3) total MLMQ slots still exceed the n distinct
            // pending vertices, so spills defer work instead of
            // dropping it.
            config = config.with_queue_capacity((n / 3).max(8));
        }

        let mut sources: Vec<VertexId> = family.sources(n as usize);
        sources.push(source_salt % n);
        let mut service = SsspService::new(&graph, config);
        let results = service.batch(&sources);

        for (source, result) in sources.iter().zip(&results) {
            let oracle = dijkstra(&graph, *source);
            prop_assert_eq!(
                &oracle.dist, &result.dist,
                "MLMQ diverged from Dijkstra on {} source {}", family.name, source
            );
        }
        let stats = service.stats();
        prop_assert!(
            stats.inflight_peak > 1,
            "4-stream batch must overlap, peak {}", stats.inflight_peak
        );
        prop_assert_eq!(stats.fallbacks, 0, "spill must absorb pressure on-device");
    }
}
