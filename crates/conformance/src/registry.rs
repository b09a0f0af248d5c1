//! The conformance registry: every public SSSP entry point in the
//! workspace, in one table, addressable by a stable string id.
//!
//! Each [`Entry`] names one `Scenario` — host code, a one-shot device
//! run, the resident multi-GPU state, or one shape of the resident
//! service — the kernel variant that scenario runs, and capability
//! flags that decide which sweeps select it. A cell is entry ×
//! frontier × family × source × seed. The `Instruments` (fault plan,
//! sanitizer, IR recorder, lane permuter) are armed on whichever
//! backend the scenario builds, and `Entry::observe` hands back what
//! they saw; the sweeps (`runner`, `chaos`, `sanitize`, `analyze`,
//! `adversary`) differ only in what they arm and how they grade.
//!
//! A deliberately broken implementation ([`FAULT_OFF_BY_ONE`]) is kept
//! out of [`all()`] and exists to demonstrate (and regression-test) the
//! shrinker and localizer end to end.

use crate::graphs::{self, GraphCase};
use rdbs_core::gpu::{
    run_gpu_on, FrontierKind, MultiGpuConfig, MultiGpuState, RdbsConfig, Variant,
};
use rdbs_core::recover::Attempt;
use rdbs_core::service::cache::CacheConfig;
use rdbs_core::service::traffic::{ArrivalProcess, Outcome, Query, SourceMix, TrafficConfig};
use rdbs_core::service::{Backend, ServiceConfig, SsspService};
use rdbs_core::stats::{SsspResult, UpdateStats};
use rdbs_core::{cpu, default_delta, saturating_relax, seq, Csr, VertexId, Weight, INF};
use rdbs_gpu_sim::{AccessIr, Device, DeviceConfig, FaultPlan, FaultSpec, SanConfig, SanViolation};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Worker count for the CPU-parallel implementations (kept small so
/// the full matrix stays fast and deterministic to schedule).
const THREADS: usize = 2;

/// Id of the deliberately broken implementation (an off-by-one loop
/// bound that skips the last out-edge of every vertex).
pub const FAULT_OFF_BY_ONE: &str = "fault/off-by-one";

/// Capability: compared against the oracle by `verify`.
pub const DIFFERENTIAL: u16 = 1;
/// Capability: swept under fault plans + the recovery ladder (`chaos`,
/// `chaos --adversarial`).
pub const FAULTS: u16 = 1 << 1;
/// Capability: swept with the sanitizer (`sanitize`) and the IR
/// recorder (`analyze`).
pub const SANITIZE: u16 = 1 << 2;
/// Capability: re-run under the lane permuter (`fuzz-schedules`).
pub const FUZZ: u16 = 1 << 3;
/// Capability: accepts a forced `--frontier` layout. Entries without it
/// keep their own layout (none, or the one their id names).
pub const FRONTIER: u16 = 1 << 4;
/// Capability: the localizer's relaxation trace covers it.
pub const TRACED: u16 = 1 << 5;
/// Capability: in the reduced (`--quick`) entry set of the
/// instrumented sweeps. The differential sweep keeps every entry; its
/// `--quick` only narrows families and sources.
pub const QUICK: u16 = 1 << 6;

/// How an entry runs a query.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Scenario {
    /// Host code, or a comparator that builds its own device: oracle
    /// differential only. Takes the resolved Δ₀.
    Host(fn(&Csr, VertexId, Weight) -> SsspResult),
    /// One run of the entry's variant on a fresh device. With
    /// `refault`, the recovery ladder's rerun runs under the same fault
    /// plan (persistent faults), so recovery itself is under fire.
    Device { refault: bool },
    /// The resident multi-GPU state over `k` shards.
    MultiGpu(usize),
    /// The resident service running the entry's variant.
    Service(Shape),
}

/// The resident service's conformance shapes. Each first answers a
/// warm-up query on another source, so the scored query runs on
/// recycled pooled buffers; the fault plan is armed after the warm-up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Shape {
    /// The scored query alone, on one stream.
    Pooled,
    /// The scored query in the middle of a three-source batch across
    /// four command streams, so it runs while siblings are in flight.
    Concurrent,
    /// The open-loop traffic tier on two streams: the scored query
    /// arrives first with a sibling, a past-deadline arrival is shed
    /// (typed), and a late repeat is answered from the answer cache —
    /// the graded answer is the cached one.
    Traffic,
    /// The concurrent batch on two streams over an under-provisioned
    /// MLMQ frontier (a third of the vertex count in slots per lane),
    /// so hot levels spill into the deferred level; a fault-free run
    /// never drops work, and real loss under fire must surface as a
    /// counted host fallback.
    Spill,
}

impl Shape {
    pub(crate) fn config(
        self,
        graph: &Csr,
        variant: Variant,
        delta0: Option<Weight>,
    ) -> ServiceConfig {
        let streams = match self {
            Shape::Pooled => 1,
            Shape::Concurrent => 4,
            Shape::Traffic | Shape::Spill => 2,
        };
        let capacity = (graph.num_vertices() as u32 / 3).max(8);
        ServiceConfig {
            backend: Backend::Gpu(variant),
            device: DeviceConfig::test_tiny(),
            delta0,
            streams,
            queue_capacity: (self == Shape::Spill).then_some(capacity),
        }
    }

    /// The scored part of the shape (after the warm-up).
    fn serve(self, svc: &mut SsspService, source: VertexId) -> Result<SsspResult, String> {
        let n = svc.num_vertices();
        let at = |k| offset(source, k, n);
        match self {
            Shape::Pooled => svc.try_query(source).map_err(|e| e.to_string()),
            Shape::Concurrent | Shape::Spill => {
                Ok(svc.batch(&[at(2), source, at(3)]).swap_remove(1))
            }
            Shape::Traffic => {
                let generous = 1e12;
                let queries = [
                    Query { source, arrival_ms: 0.0, deadline_ms: generous },
                    Query { source: at(2), arrival_ms: 0.0, deadline_ms: generous },
                    // Deadline already blown at arrival: shed (typed),
                    // never silently answered late.
                    Query { source: at(3), arrival_ms: 0.01, deadline_ms: 0.0 },
                    // Long after the scored answer: served from the
                    // cache, bit-identical to the scored attempt.
                    Query { source, arrival_ms: 1e6, deadline_ms: generous },
                ];
                let cfg = TrafficConfig {
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
                match svc.serve_queries(&queries, &cfg).outcomes.into_iter().nth(3).expect("four") {
                    Outcome::Exact { result, .. } => Ok(result),
                    other => {
                        Err(format!("the late repeat must be answered exactly, got {other:?}"))
                    }
                }
            }
        }
    }
}

/// A fresh device of the size every conformance cell runs on.
fn tiny() -> Device {
    Device::new(DeviceConfig::test_tiny())
}

/// `source + k`, wrapped into an `n`-vertex graph.
fn offset(source: VertexId, k: u32, n: usize) -> VertexId {
    ((source as usize + k as usize) % n.max(1)) as VertexId
}

/// The multi-GPU configuration every `multi-gpu/k*` entry runs.
fn multi_config(k: usize, delta0: Option<Weight>) -> MultiGpuConfig {
    MultiGpuConfig {
        num_devices: k,
        device: DeviceConfig::test_tiny(),
        interconnect_gbps: 50.0,
        exchange_latency_us: 5.0,
        delta0,
    }
}

/// What to arm on the backend a scenario builds.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Instruments {
    /// Fault plan, armed right before the scored attempt.
    pub fault: Option<FaultSpec>,
    /// Memory-model sanitizer, armed before the first query.
    pub sanitizer: bool,
    /// Access-IR recorder, armed before the first query.
    pub ir: bool,
    /// Lane-permutation seed (single-device backends).
    pub permute: Option<u64>,
}

impl Instruments {
    /// Arm the sanitizer, IR recorder and lane permuter on a device.
    pub(crate) fn on_device(&self, device: &mut Device) {
        if self.sanitizer {
            device.arm_sanitizer(SanConfig::default());
        }
        if self.ir {
            device.arm_ir();
        }
        if let Some(seed) = self.permute {
            device.arm_schedule_fuzz(seed);
        }
    }
}

/// What one scenario run produced and what the instruments saw.
pub(crate) struct Observation {
    /// The scored attempt, ready for the recovery ladder.
    pub attempt: Attempt,
    /// Sanitizer violations (capped; `san_total` has the true count).
    pub violations: Vec<SanViolation>,
    pub san_total: u64,
    /// Retained access IR, one per device.
    pub irs: Vec<AccessIr>,
}

/// Run `f`, turning a panic into its message.
fn attempt<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| panic_message(p.as_ref()))
}

/// Extract a printable message from a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(std::string::ToString::to_string)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".into())
}

/// One runnable SSSP entry point.
#[derive(Clone, Copy, Debug)]
pub struct Entry {
    /// Stable id, `family/name` (e.g. `gpu/basyn-pro`).
    pub id: &'static str,
    pub(crate) scenario: Scenario,
    /// The kernel variant the device or service scenario runs — what
    /// the adversary's scout profiles. `None` for host code and the
    /// multi-GPU state.
    pub(crate) variant: Option<Variant>,
    caps: u16,
}

impl Entry {
    /// Whether the entry has every capability in `caps`.
    pub fn has(&self, caps: u16) -> bool {
        self.caps & caps == caps
    }

    /// Whether message-channel fault models have injection sites here.
    pub(crate) fn carries_messages(&self) -> bool {
        matches!(self.scenario, Scenario::MultiGpu(k) if k > 1)
    }

    /// The frontier layout the entry runs on (`single` when it has
    /// none).
    pub(crate) fn frontier(&self) -> FrontierKind {
        match self.variant {
            Some(Variant::Rdbs(cfg)) => cfg.frontier,
            _ => FrontierKind::Single,
        }
    }

    /// Run on `kind`'s frontier layout if the entry accepts a forced
    /// layout ([`FRONTIER`]); otherwise unchanged.
    #[must_use]
    pub fn with_frontier(mut self, kind: FrontierKind) -> Self {
        if let (true, Some(Variant::Rdbs(cfg))) = (self.has(FRONTIER), &mut self.variant) {
            cfg.frontier = kind;
        }
        self
    }

    /// Run the scenario with `arm`ed instruments. `delta0` overrides
    /// the bucket width where the entry has one; `None` keeps each
    /// entry's own default. A panic in the scored attempt is caught
    /// into [`Attempt::outcome`]; the instruments are read either way.
    pub(crate) fn observe(
        &self,
        graph: &Csr,
        source: VertexId,
        delta0: Option<Weight>,
        arm: &Instruments,
    ) -> Observation {
        let variant = self.variant.map(|v| match v {
            Variant::Rdbs(cfg) => {
                Variant::Rdbs(RdbsConfig { delta0: delta0.or(cfg.delta0), ..cfg })
            }
            v => v,
        });
        let (outcome, injections, fault_events, violations, san_total, irs) = match self.scenario {
            Scenario::Host(run) => {
                let delta = delta0.unwrap_or_else(|| default_delta(graph)).max(1);
                (Ok((run(graph, source, delta), 0)), 0, Vec::new(), Vec::new(), 0, Vec::new())
            }
            Scenario::Device { .. } => {
                let mut device = tiny();
                arm.on_device(&mut device);
                if let Some(spec) = arm.fault {
                    device.arm_faults(FaultPlan::new(spec));
                }
                let variant = variant.expect("device entries carry a variant");
                let outcome = attempt(|| {
                    let run = run_gpu_on(&mut device, graph, source, variant);
                    (run.result, run.audit.len())
                });
                let plan = device.disarm_faults();
                (
                    outcome,
                    plan.as_ref().map_or(0, FaultPlan::injections),
                    plan.map(|p| p.log().to_vec()).unwrap_or_default(),
                    device.san_violations().to_vec(),
                    device.san_total(),
                    device.take_ir().into_iter().collect(),
                )
            }
            Scenario::MultiGpu(k) => {
                let mut state = MultiGpuState::new(graph, &multi_config(k, delta0));
                if arm.sanitizer {
                    state.arm_sanitizer(SanConfig::default());
                }
                if arm.ir {
                    state.arm_ir();
                }
                if let Some(spec) = arm.fault {
                    state.arm_faults(spec);
                }
                // The injection log travels with the run; a panicked
                // attempt reports none.
                let (outcome, injections, fault_events) = match attempt(|| state.run(source)) {
                    Ok(run) => (Ok((run.result, 0)), run.fault_injections, run.fault_events),
                    Err(msg) => (Err(msg), 0, Vec::new()),
                };
                let violations = state.san_violations().into_iter().map(|(_, v)| v).collect();
                (outcome, injections, fault_events, violations, state.san_total(), state.take_irs())
            }
            Scenario::Service(shape) => {
                let variant = variant.expect("service entries carry a variant");
                let mut svc = SsspService::new(graph, shape.config(graph, variant, delta0));
                if arm.sanitizer {
                    svc.arm_sanitizer(SanConfig::default());
                }
                if arm.ir {
                    svc.arm_ir();
                }
                if let Some(seed) = arm.permute {
                    svc.arm_schedule_fuzz(seed);
                }
                if graph.num_vertices() > 1 {
                    let _ = svc.query(offset(source, 1, graph.num_vertices()));
                }
                if let Some(spec) = arm.fault {
                    svc.arm_faults(spec);
                }
                let outcome = attempt(|| shape.serve(&mut svc, source))
                    .and_then(|served| served)
                    .map(|result| (result, svc.last_audit_hits()));
                let (injections, fault_events) = svc.disarm_faults().unwrap_or_default();
                (
                    outcome,
                    injections,
                    fault_events,
                    svc.san_violations(),
                    svc.san_total(),
                    svc.take_irs(),
                )
            }
        };
        Observation {
            attempt: Attempt { fault: arm.fault, injections, fault_events, outcome },
            violations,
            san_total,
            irs,
        }
    }

    /// Run uninstrumented and return the answer; a panic in the run
    /// propagates.
    pub fn run(&self, graph: &Csr, source: VertexId, delta0: Option<Weight>) -> SsspResult {
        match self.observe(graph, source, delta0, &Instruments::default()).attempt.outcome {
            Ok((result, _)) => result,
            Err(msg) => panic!("{msg}"),
        }
    }

    /// The recovery ladder's rung-2 rerun for a faulted attempt of this
    /// entry: a fault-free multi-GPU rerun, or the synchronous variant
    /// on a fresh device — under the same `fault` for a refaulting
    /// entry.
    pub(crate) fn rerun(
        &self,
        graph: &Csr,
        source: VertexId,
        fault: Option<FaultSpec>,
    ) -> SsspResult {
        if let Scenario::MultiGpu(k) = self.scenario {
            return MultiGpuState::new(graph, &multi_config(k, None)).run(source).result;
        }
        let mut device = tiny();
        if let (Scenario::Device { refault: true }, Some(spec)) = (self.scenario, fault) {
            device.arm_faults(FaultPlan::new(spec));
        }
        run_gpu_on(&mut device, graph, source, Variant::Rdbs(RdbsConfig::sync_delta())).result
    }
}

/// Every entry point, in registry order. The Dijkstra oracle itself is
/// included as a self-check of the harness.
pub fn all() -> Vec<Entry> {
    use Scenario::{Device as Dev, Host, MultiGpu, Service};
    let rdbs = |cfg: RdbsConfig| Some(Variant::Rdbs(cfg));
    let mlmq = || rdbs(RdbsConfig::full().with_frontier(FrontierKind::Mlmq));
    let dev = Dev { refault: false };
    let host = |id, run| Entry { id, scenario: Host(run), variant: None, caps: DIFFERENTIAL };
    let entry = |id, scenario, variant, caps| Entry { id, scenario, variant, caps };
    // The capability sets the RDBS ablations share.
    let swept = DIFFERENTIAL | FAULTS | SANITIZE | FUZZ | FRONTIER | TRACED;
    let ablation = DIFFERENTIAL | SANITIZE | FRONTIER | TRACED;
    let service = DIFFERENTIAL | FAULTS | FUZZ | FRONTIER | QUICK;
    vec![
        host("seq/dijkstra", |g, s, _| seq::dijkstra(g, s)),
        host("seq/bellman-ford", |g, s, _| seq::bellman_ford(g, s)),
        host("seq/dial", |g, s, _| seq::dial(g, s)),
        Entry { caps: DIFFERENTIAL | TRACED, ..host("seq/delta-stepping", seq::delta_stepping) },
        Entry {
            caps: DIFFERENTIAL | TRACED,
            ..host("cpu/parallel-delta", |g, s, d| cpu::parallel_delta_stepping(g, s, d, THREADS))
        },
        Entry {
            caps: DIFFERENTIAL | TRACED,
            ..host("cpu/async-bucket", |g, s, d| cpu::async_bucket_sssp(g, s, d, THREADS))
        },
        entry("gpu/bl", dev, Some(Variant::Baseline), DIFFERENTIAL | SANITIZE | QUICK),
        entry("gpu/sync-delta", dev, rdbs(RdbsConfig::sync_delta()), swept),
        entry("gpu/basyn", dev, rdbs(RdbsConfig::basyn_only()), swept),
        entry("gpu/basyn-pro", dev, rdbs(RdbsConfig::basyn_pro()), ablation),
        entry("gpu/basyn-adwl", dev, rdbs(RdbsConfig::basyn_adwl()), ablation),
        entry("gpu/full", dev, rdbs(RdbsConfig::full()), swept | QUICK),
        entry("gpu/full-mlmq", dev, mlmq(), DIFFERENTIAL | TRACED),
        entry(
            "gpu/refault",
            Dev { refault: true },
            rdbs(RdbsConfig::full()),
            FAULTS | FUZZ | FRONTIER | QUICK,
        ),
        entry("multi-gpu/k1", MultiGpu(1), None, DIFFERENTIAL | SANITIZE),
        entry("multi-gpu/k2", MultiGpu(2), None, DIFFERENTIAL | FAULTS | SANITIZE | QUICK),
        entry("multi-gpu/k4", MultiGpu(4), None, DIFFERENTIAL | SANITIZE),
        entry(
            "service/pooled",
            Service(Shape::Pooled),
            rdbs(RdbsConfig::full()),
            service | SANITIZE,
        ),
        entry(
            "service/concurrent",
            Service(Shape::Concurrent),
            rdbs(RdbsConfig::full()),
            service | SANITIZE,
        ),
        entry("service/traffic", Service(Shape::Traffic), rdbs(RdbsConfig::full()), service),
        entry("service/mlmq-spill", Service(Shape::Spill), mlmq(), FAULTS | FUZZ | QUICK),
        host("baseline/adds", |g, s, d| rdbs_baselines::adds(&mut tiny(), g, s, d)),
        host("baseline/near-far", |g, s, d| rdbs_baselines::near_far(&mut tiny(), g, s, d)),
        host("baseline/frontier-bf", |g, s, _| rdbs_baselines::frontier_bf(&mut tiny(), g, s)),
        host("baseline/pq-delta", |g, s, _| rdbs_baselines::pq_delta_stepping(g, s, THREADS, None)),
        host("baseline/rho-stepping", |g, s, _| rdbs_baselines::rho_stepping(g, s, THREADS, 0.3)),
        host("baseline/sep-graph", |g, s, _| rdbs_baselines::sep_graph(&mut tiny(), g, s).0),
        host("framework/sssp", |g, s, _| {
            rdbs_framework::algorithms::sssp(DeviceConfig::test_tiny(), g, s).0
        }),
    ]
}

/// [`all()`] plus the deliberately broken implementation.
pub fn with_faults() -> Vec<Entry> {
    let mut v = all();
    v.push(Entry {
        id: FAULT_OFF_BY_ONE,
        scenario: Scenario::Host(|g, s, _| faulty_dijkstra_off_by_one(g, s)),
        variant: None,
        caps: DIFFERENTIAL,
    });
    v
}

/// Look an entry up by its exact id (including faults).
pub fn by_id(id: &str) -> Option<Entry> {
    with_faults().into_iter().find(|i| i.id == id)
}

/// Whether `s` passes an optional substring filter.
fn matches(filter: &Option<String>, s: &str) -> bool {
    filter.as_ref().is_none_or(|f| s.contains(f.as_str()))
}

/// What a sweep covers and how hard it searches — one set of options
/// for `verify`, `chaos`, `chaos --adversarial`, `fuzz-schedules`,
/// `sanitize` and `analyze`. A sweep ignores the fields it has no axis
/// for.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Reduced sweep: the quick families, one source, and (for the
    /// instrumented sweeps) the [`QUICK`] entries.
    pub quick: bool,
    /// Only entries whose id contains this substring.
    pub entry_filter: Option<String>,
    /// Only families whose name contains this substring.
    pub graph_filter: Option<String>,
    /// Force this frontier layout on every entry that accepts one;
    /// `None` keeps each entry's own.
    pub frontier: Option<FrontierKind>,
    /// Chaos sweeps every seed (default `[1]` quick, `[1, 2]` full);
    /// the adversary and the fuzzer derive their streams from the last
    /// one (default 1), so each is a pure function of its options.
    pub seeds: Vec<u64>,
    /// Chaos: only fault models whose name contains this substring.
    pub model_filter: Option<String>,
    /// Chaos: override every model's default injection rate.
    pub rate: Option<f64>,
    /// Verify: also run the deliberately broken registry entry.
    pub include_faults: bool,
    /// Verify: Δ₀ override for every width-parameterized entry.
    pub delta0: Option<Weight>,
    /// Adversary: injection budget per `(entry, graph)` per arm — the
    /// faults either arm (targeted search / uniform baseline) may
    /// inject, enforced device-side via [`FaultSpec::with_cap`]. At
    /// equal injections, where they land is all that differs.
    pub budget: u64,
    /// Adversary: candidate evaluations per arm (bounds wall-clock when
    /// plans inject little).
    pub max_evals: u32,
    /// Adversary: corpus entries kept per `(entry, graph)`.
    pub corpus_keep: usize,
    /// Fuzzer: lane-permutation seeds per `(entry, graph)`.
    pub perms: u32,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            quick: false,
            entry_filter: None,
            graph_filter: None,
            frontier: None,
            seeds: Vec::new(),
            model_filter: None,
            rate: None,
            include_faults: false,
            delta0: None,
            budget: 64,
            max_evals: 12,
            corpus_keep: 4,
            perms: 32,
        }
    }
}

impl SweepOptions {
    /// The entries with capability `cap` this sweep covers, in registry
    /// order, with the forced frontier applied.
    pub(crate) fn entries(&self, cap: u16) -> Vec<Entry> {
        let pool = if self.include_faults { with_faults() } else { all() };
        pool.into_iter()
            .filter(|e| e.has(cap) && (!self.quick || cap == DIFFERENTIAL || e.has(QUICK)))
            .filter(|e| matches(&self.entry_filter, e.id))
            .map(|e| self.frontier.map_or(e, |kind| e.with_frontier(kind)))
            .collect()
    }

    /// The graph families this sweep covers.
    pub(crate) fn families(&self) -> Vec<GraphCase> {
        if self.quick { graphs::quick_families() } else { graphs::families() }
            .into_iter()
            .filter(|g| matches(&self.graph_filter, g.name))
            .collect()
    }

    /// The search / permutation base seed.
    pub(crate) fn seed(&self) -> u64 {
        self.seeds.last().copied().unwrap_or(1)
    }

    /// Whether a fault model passes the `model_filter`.
    pub(crate) fn model_selected(&self, name: &str) -> bool {
        matches(&self.model_filter, name)
    }
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
