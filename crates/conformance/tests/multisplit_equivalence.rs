//! The multisplit conformance property: the warp-aggregated scatter is
//! a pure *issue-width* optimization. For every graph family, every
//! frontier layout, both provisioning regimes and a 4-stream service
//! batch, the aggregated publish path must reproduce the per-push
//! scalar path bit for bit — the same distance vectors, the same
//! escalation/fallback ladder, and the same per-queue drain accounting
//! (logical pushes, drops and high-water marks read back from the
//! retained access IR). One leader `atomicAdd` reserving a slot range
//! for a warp must account exactly like the per-element `atomicAdd`s it
//! replaced.
//!
//! A second property re-runs both paths under seeded lane-permutation
//! fuzzing ([`SsspService::arm_schedule_fuzz`]): with the interleaving
//! shuffled, the aggregated path must still answer every query with
//! the oracle distances the scalar path produces.

use proptest::prelude::*;
use rdbs_conformance::families;
use rdbs_core::gpu::{FrontierKind, ScatterMode};
use rdbs_core::service::{ServiceConfig, SsspService};
use rdbs_core::{Dist, VertexId};
use rdbs_gpu_sim::DeviceConfig;
use std::collections::BTreeMap;

/// Everything the equivalence gate compares between the two scatter
/// modes of one configuration.
#[derive(Debug, PartialEq)]
struct Observed {
    dists: Vec<Vec<Dist>>,
    escalations: u64,
    fallbacks: u64,
    /// Per-queue (pushes, drops, high_water) from the static analysis
    /// of the retained access IR — the drain accounting.
    queues: BTreeMap<&'static str, (u64, u64, u64)>,
}

fn run(
    graph: &rdbs_core::Csr,
    sources: &[VertexId],
    kind: FrontierKind,
    scatter: ScatterMode,
    capacity: Option<u32>,
    fuzz_seed: Option<u64>,
) -> Observed {
    let mut config = ServiceConfig::rdbs(DeviceConfig::test_tiny())
        .with_streams(4)
        .with_frontier(kind)
        .with_scatter(scatter);
    if let Some(cap) = capacity {
        config = config.with_queue_capacity(cap);
    }
    let mut svc = SsspService::new(graph, config);
    svc.arm_ir();
    if let Some(seed) = fuzz_seed {
        svc.arm_schedule_fuzz(seed);
    }
    let results = svc.batch(sources);
    let stats = svc.stats();
    let mut analysis = rdbs_statan::Analysis::default();
    for ir in svc.take_irs() {
        analysis.merge(rdbs_statan::verify(&ir));
    }
    Observed {
        dists: results.into_iter().map(|r| r.dist).collect(),
        escalations: stats.escalations,
        fallbacks: stats.fallbacks,
        queues: analysis
            .queues
            .iter()
            .map(|(&label, q)| (label, (q.pushes, q.drops, q.high_water)))
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Canonical schedule: the aggregated path is indistinguishable
    /// from the scalar oracle in every observable the drain sees.
    #[test]
    fn multisplit_matches_scalar_bit_for_bit(
        family_idx in 0usize..5,
        frontier_idx in 0..FrontierKind::ALL.len(),
        source_salt in 0u32..1000,
        under_provision in any::<bool>(),
    ) {
        let fams = families();
        let family = &fams[family_idx % fams.len()];
        let graph = family.build();
        let n = graph.num_vertices() as u32;
        let kind = FrontierKind::ALL[frontier_idx];
        let capacity = under_provision.then(|| (n / 3).max(8));

        let mut sources: Vec<VertexId> = family.sources(graph.num_vertices());
        sources.push(source_salt % n);
        let scalar = run(&graph, &sources, kind, ScatterMode::Scalar, capacity, None);
        let multi = run(&graph, &sources, kind, ScatterMode::Multisplit, capacity, None);

        prop_assert_eq!(
            &scalar.dists, &multi.dists,
            "{}/{}: multisplit distances diverge from scalar", family.name, kind.name()
        );
        prop_assert_eq!(
            (scalar.escalations, scalar.fallbacks),
            (multi.escalations, multi.fallbacks),
            "{}/{}: multisplit changed the overflow ladder", family.name, kind.name()
        );
        prop_assert_eq!(
            &scalar.queues, &multi.queues,
            "{}/{}: multisplit changed the per-queue push/drop/high-water accounting",
            family.name, kind.name()
        );
    }

    /// Fuzzed schedules: lane-permutation fuzzing reorders the scalar
    /// path's pushes (they land in execution order) while the
    /// aggregated flush always places a warp's payloads in canonical
    /// lane order — so drained work may legitimately be *ordered*
    /// differently between the modes mid-query. The fixed point must
    /// not move: both modes still answer with identical distance
    /// vectors and neither degrades to a host fallback.
    #[test]
    fn multisplit_matches_scalar_under_lane_permutations(
        family_idx in 0usize..5,
        frontier_idx in 0..FrontierKind::ALL.len(),
        fuzz_seed in 1u64..1_000_000,
    ) {
        let fams = families();
        let family = &fams[family_idx % fams.len()];
        let graph = family.build();
        let kind = FrontierKind::ALL[frontier_idx];

        let sources: Vec<VertexId> = family.sources(graph.num_vertices());
        let scalar =
            run(&graph, &sources, kind, ScatterMode::Scalar, None, Some(fuzz_seed));
        let multi =
            run(&graph, &sources, kind, ScatterMode::Multisplit, None, Some(fuzz_seed));

        prop_assert_eq!(
            &scalar.dists, &multi.dists,
            "{}/{} seed {}: permuted multisplit distances diverge from permuted scalar",
            family.name, kind.name(), fuzz_seed
        );
        prop_assert_eq!(scalar.fallbacks, 0, "scalar degraded under permutation");
        prop_assert_eq!(multi.fallbacks, 0, "multisplit degraded under permutation");
    }
}
