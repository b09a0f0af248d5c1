//! The implementation registry: every public SSSP entry point in the
//! workspace, addressable by a stable string id and runnable through
//! one uniform signature `(graph, source, Δ₀) → SsspResult`.
//!
//! The differential runner enumerates [`all()`]; the CLI and the
//! shrinker look entries up with [`by_id()`]. A deliberately broken
//! implementation ([`FAULT_OFF_BY_ONE`]) is kept out of [`all()`] and
//! exists to demonstrate (and regression-test) the shrinker and
//! localizer end to end.

use rdbs_core::gpu::{multi_gpu_sssp, run_gpu, FrontierKind, MultiGpuConfig, RdbsConfig, Variant};
use rdbs_core::service::{ServiceConfig, SsspService};
use rdbs_core::stats::{SsspResult, UpdateStats};
use rdbs_core::{cpu, default_delta, saturating_relax, seq, Csr, VertexId, Weight, INF};
use rdbs_gpu_sim::{Device, DeviceConfig};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Worker count for the CPU-parallel implementations (kept small so
/// the full matrix stays fast and deterministic to schedule).
const THREADS: usize = 2;

/// Id of the deliberately broken implementation (an off-by-one loop
/// bound that skips the last out-edge of every vertex).
pub const FAULT_OFF_BY_ONE: &str = "fault/off-by-one";

/// Which layer of the workspace an implementation lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Sequential references (`rdbs-core::seq`).
    Seq,
    /// Native-thread CPU implementations (`rdbs-core::cpu`).
    Cpu,
    /// Simulated-GPU RDBS and its ablations (`rdbs-core::gpu`).
    Gpu,
    /// The multi-GPU port.
    MultiGpu,
    /// The resident batched service (`rdbs-core::service`).
    Service,
    /// Comparators (`rdbs-baselines`).
    Baseline,
    /// The graph-framework integration (`rdbs-framework`).
    Framework,
    /// Deliberately broken (shrinker/localizer self-test only).
    Fault,
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    Dijkstra,
    BellmanFord,
    Dial,
    DeltaStepping,
    CpuParallel,
    CpuAsync,
    Gpu(Variant),
    MultiGpu(usize),
    Service,
    ServiceConcurrent,
    ServiceTraffic,
    Adds,
    NearFar,
    FrontierBf,
    PqDelta,
    RhoStepping,
    SepGraph,
    Framework,
    FaultOffByOne,
}

/// One runnable SSSP entry point.
#[derive(Clone, Copy, Debug)]
pub struct Implementation {
    /// Stable id, `family/name` (e.g. `gpu/basyn-pro`).
    pub id: &'static str,
    pub family: Family,
    kind: Kind,
    /// Frontier-layout override (`--frontier`): applied to the RDBS
    /// config of GPU and service entries; `None` keeps each entry's
    /// own layout. Non-RDBS entries ignore it.
    frontier: Option<FrontierKind>,
}

impl Implementation {
    /// Run this entry on the given frontier layout (where it has one).
    #[must_use]
    pub fn with_frontier(mut self, frontier: FrontierKind) -> Self {
        self.frontier = Some(frontier);
        self
    }

    /// Apply the frontier override to an RDBS config.
    fn apply_frontier(&self, cfg: &mut RdbsConfig) {
        if let Some(f) = self.frontier {
            cfg.frontier = f;
        }
    }
    /// Run this implementation. `delta0` overrides the bucket width
    /// where the algorithm has one (ignored otherwise); `None` uses
    /// each implementation's own default.
    pub fn run(&self, graph: &Csr, source: VertexId, delta0: Option<Weight>) -> SsspResult {
        let delta = || delta0.unwrap_or_else(|| default_delta(graph)).max(1);
        match self.kind {
            Kind::Dijkstra => seq::dijkstra(graph, source),
            Kind::BellmanFord => seq::bellman_ford(graph, source),
            Kind::Dial => seq::dial(graph, source),
            Kind::DeltaStepping => seq::delta_stepping(graph, source, delta()),
            Kind::CpuParallel => cpu::parallel_delta_stepping(graph, source, delta(), THREADS),
            Kind::CpuAsync => cpu::async_bucket_sssp(graph, source, delta(), THREADS),
            Kind::Gpu(variant) => {
                let variant = match variant {
                    Variant::Rdbs(mut cfg) => {
                        cfg.delta0 = delta0.or(cfg.delta0);
                        self.apply_frontier(&mut cfg);
                        Variant::Rdbs(cfg)
                    }
                    v => v,
                };
                run_gpu(graph, source, variant, DeviceConfig::test_tiny()).result
            }
            Kind::MultiGpu(k) => {
                let config = MultiGpuConfig {
                    num_devices: k,
                    device: DeviceConfig::test_tiny(),
                    interconnect_gbps: 50.0,
                    exchange_latency_us: 5.0,
                    delta0,
                };
                multi_gpu_sssp(graph, source, &config).result
            }
            Kind::Service | Kind::ServiceConcurrent => {
                let mut cfg = RdbsConfig::full();
                cfg.delta0 = delta0;
                self.apply_frontier(&mut cfg);
                // The concurrent entry spreads the batch across four
                // command streams (clamped to the batch size), so the
                // matrix differentials the scheduler's lane isolation
                // against every one-shot entry.
                let streams = if matches!(self.kind, Kind::ServiceConcurrent) { 4 } else { 1 };
                let mut svc = SsspService::new(
                    graph,
                    ServiceConfig {
                        backend: rdbs_core::service::Backend::Gpu(Variant::Rdbs(cfg)),
                        device: DeviceConfig::test_tiny(),
                        delta0,
                        streams,
                        queue_capacity: None,
                    },
                );
                // Warm-up on a different source first, so the scored
                // query runs on recycled pooled buffers — the matrix
                // differentials pooled-reuse against every one-shot
                // entry, not just a fresh service.
                let n = graph.num_vertices() as u32;
                let warm = if n > 1 { (source + 1) % n } else { source };
                svc.batch(&[warm, source]).pop().expect("batch of two returns two results")
            }
            Kind::ServiceTraffic => {
                use rdbs_core::service::cache::CacheConfig;
                use rdbs_core::service::traffic::{
                    ArrivalProcess, Outcome, Query, SourceMix, TrafficConfig,
                };
                let mut cfg = RdbsConfig::full();
                cfg.delta0 = delta0;
                self.apply_frontier(&mut cfg);
                let mut svc = SsspService::new(
                    graph,
                    ServiceConfig {
                        backend: rdbs_core::service::Backend::Gpu(Variant::Rdbs(cfg)),
                        device: DeviceConfig::test_tiny(),
                        delta0,
                        streams: 2,
                        queue_capacity: None,
                    },
                );
                // The scored query arrives first (an empty admission
                // predictor always admits it); a late repeat replays it
                // from the answer cache, so the matrix differentials
                // the cache path — the returned bits ARE the cached
                // bits — against every one-shot entry.
                let n = graph.num_vertices() as u32;
                let warm = if n > 1 { (source + 1) % n } else { source };
                let generous = 1e12;
                let queries = [
                    Query { source, arrival_ms: 0.0, deadline_ms: generous },
                    Query { source: warm, arrival_ms: 0.0, deadline_ms: generous },
                    Query { source, arrival_ms: 1e6, deadline_ms: generous },
                ];
                let tcfg = TrafficConfig {
                    arrivals: ArrivalProcess::Poisson { qps: 1.0 }, // unused: explicit queries
                    offered: queries.len(),
                    seed: 0,
                    slo_ms: generous,
                    tight_slo_ms: None,
                    tight_every: 0,
                    sources: SourceMix::Uniform,
                    shed_margin: 1.0,
                    cache: Some(CacheConfig::default()),
                    approx_on_shed: false,
                };
                let report = svc.serve_queries(&queries, &tcfg);
                match report.outcomes.into_iter().nth(2).expect("three outcomes") {
                    Outcome::Exact { result, .. } => result,
                    other => panic!("the cached repeat must be exact, got {other:?}"),
                }
            }
            Kind::Adds => {
                let mut device = Device::new(DeviceConfig::test_tiny());
                rdbs_baselines::adds(&mut device, graph, source, delta())
            }
            Kind::NearFar => {
                let mut device = Device::new(DeviceConfig::test_tiny());
                rdbs_baselines::near_far(&mut device, graph, source, delta())
            }
            Kind::FrontierBf => {
                let mut device = Device::new(DeviceConfig::test_tiny());
                rdbs_baselines::frontier_bf(&mut device, graph, source)
            }
            Kind::PqDelta => rdbs_baselines::pq_delta_stepping(graph, source, THREADS, None),
            Kind::RhoStepping => rdbs_baselines::rho_stepping(graph, source, THREADS, 0.3),
            Kind::SepGraph => {
                let mut device = Device::new(DeviceConfig::test_tiny());
                rdbs_baselines::sep_graph(&mut device, graph, source).0
            }
            Kind::Framework => {
                rdbs_framework::algorithms::sssp(DeviceConfig::test_tiny(), graph, source).0
            }
            Kind::FaultOffByOne => faulty_dijkstra_off_by_one(graph, source),
        }
    }

    /// Whether the localizer's relaxation tracing covers this
    /// implementation (the instrumented kernels live in
    /// `seq::delta_stepping`, `gpu::rdbs`, and — via the sharded
    /// sink's worker handles — `cpu::parallel_delta` and
    /// `cpu::async_bucket`).
    pub fn traced(&self) -> bool {
        matches!(
            self.kind,
            Kind::DeltaStepping | Kind::Gpu(Variant::Rdbs(_)) | Kind::CpuParallel | Kind::CpuAsync
        )
    }
}

/// Every conforming entry point, in registry order. The Dijkstra
/// oracle itself is included as a self-check of the harness.
pub fn all() -> Vec<Implementation> {
    use Family::*;
    let imp = |id, family, kind| Implementation { id, family, kind, frontier: None };
    vec![
        imp("seq/dijkstra", Seq, Kind::Dijkstra),
        imp("seq/bellman-ford", Seq, Kind::BellmanFord),
        imp("seq/dial", Seq, Kind::Dial),
        imp("seq/delta-stepping", Seq, Kind::DeltaStepping),
        imp("cpu/parallel-delta", Cpu, Kind::CpuParallel),
        imp("cpu/async-bucket", Cpu, Kind::CpuAsync),
        imp("gpu/bl", Gpu, Kind::Gpu(Variant::Baseline)),
        imp("gpu/sync-delta", Gpu, Kind::Gpu(Variant::Rdbs(RdbsConfig::sync_delta()))),
        imp("gpu/basyn", Gpu, Kind::Gpu(Variant::Rdbs(RdbsConfig::basyn_only()))),
        imp("gpu/basyn-pro", Gpu, Kind::Gpu(Variant::Rdbs(RdbsConfig::basyn_pro()))),
        imp("gpu/basyn-adwl", Gpu, Kind::Gpu(Variant::Rdbs(RdbsConfig::basyn_adwl()))),
        imp("gpu/full", Gpu, Kind::Gpu(Variant::Rdbs(RdbsConfig::full()))),
        imp(
            "gpu/full-mlmq",
            Gpu,
            Kind::Gpu(Variant::Rdbs(RdbsConfig::full().with_frontier(FrontierKind::Mlmq))),
        ),
        imp("multi-gpu/k1", MultiGpu, Kind::MultiGpu(1)),
        imp("multi-gpu/k2", MultiGpu, Kind::MultiGpu(2)),
        imp("multi-gpu/k4", MultiGpu, Kind::MultiGpu(4)),
        imp("service/pooled", Service, Kind::Service),
        imp("service/concurrent", Service, Kind::ServiceConcurrent),
        imp("service/traffic", Service, Kind::ServiceTraffic),
        imp("baseline/adds", Baseline, Kind::Adds),
        imp("baseline/near-far", Baseline, Kind::NearFar),
        imp("baseline/frontier-bf", Baseline, Kind::FrontierBf),
        imp("baseline/pq-delta", Baseline, Kind::PqDelta),
        imp("baseline/rho-stepping", Baseline, Kind::RhoStepping),
        imp("baseline/sep-graph", Baseline, Kind::SepGraph),
        imp("framework/sssp", Framework, Kind::Framework),
    ]
}

/// [`all()`] plus the deliberately broken implementation.
pub fn with_faults() -> Vec<Implementation> {
    let mut v = all();
    v.push(Implementation {
        id: FAULT_OFF_BY_ONE,
        family: Family::Fault,
        kind: Kind::FaultOffByOne,
        frontier: None,
    });
    v
}

/// Look an implementation up by its exact id (including faults).
pub fn by_id(id: &str) -> Option<Implementation> {
    with_faults().into_iter().find(|i| i.id == id)
}

/// Dijkstra with a classic off-by-one loop bound: the last out-edge of
/// every vertex with two or more neighbours is never relaxed. Kept as
/// a live fault specimen so the shrinker and localizer are exercised
/// against a real wrong answer, not a mock.
fn faulty_dijkstra_off_by_one(graph: &Csr, source: VertexId) -> SsspResult {
    let n = graph.num_vertices();
    assert!((source as usize) < n, "source out of range");
    let mut dist = vec![INF; n];
    let mut stats = UpdateStats::default();
    let mut heap: BinaryHeap<Reverse<(u32, VertexId)>> = BinaryHeap::new();
    dist[source as usize] = 0;
    heap.push(Reverse((0, source)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        let degree = graph.degree(u) as usize;
        // BUG (intentional): `degree - 1` drops the final edge.
        for (v, w) in graph.edges(u).take(degree.saturating_sub(1)) {
            let nd = saturating_relax(d, w);
            stats.checks += 1;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                stats.total_updates += 1;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    SsspResult { source, dist, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdbs_graph::builder::{build_undirected, EdgeList};

    #[test]
    fn ids_are_unique_and_resolvable() {
        let impls = with_faults();
        for (i, a) in impls.iter().enumerate() {
            for b in &impls[i + 1..] {
                assert_ne!(a.id, b.id, "duplicate id");
            }
            assert_eq!(by_id(a.id).unwrap().id, a.id);
        }
        assert!(by_id("no/such-impl").is_none());
    }

    #[test]
    fn every_registered_impl_solves_a_path() {
        let el = EdgeList::from_edges(4, (0..3).map(|i| (i, i + 1, 2)).collect());
        let g = build_undirected(&el);
        for imp in all() {
            let r = imp.run(&g, 0, None);
            assert_eq!(r.dist, vec![0, 2, 4, 6], "{}", imp.id);
        }
    }

    #[test]
    fn fault_specimen_is_actually_wrong() {
        // A star: vertex 0 connects to 1, 2, 3. The faulty Dijkstra
        // drops 0's last edge, so one leaf stays unreachable.
        let el = EdgeList::from_edges(4, vec![(0, 1, 1), (0, 2, 1), (0, 3, 1)]);
        let g = build_undirected(&el);
        let r = by_id(FAULT_OFF_BY_ONE).unwrap().run(&g, 0, None);
        let oracle = seq::dijkstra(&g, 0);
        assert_ne!(r.dist, oracle.dist);
    }
}
