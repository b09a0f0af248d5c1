//! Resident SSSP service: upload the graph once, answer many sources.
//!
//! The one-shot entry points ([`crate::gpu::rdbs::rdbs`],
//! [`crate::gpu::bl()`](fn@crate::gpu::bl), [`crate::gpu::multi_gpu_sssp`]) pay the full
//! setup price per query: graph H2D upload, buffer allocation, Δ
//! controller warm-up, and (with PRO) the host-side reorder. A
//! workload that asks many sources of the same graph — betweenness
//! sampling, reachability sweeps, all-pairs seeds — re-pays all of it
//! for no reason. [`SsspService`] keeps everything that is a function
//! of the *graph* resident on the device and recycles everything that
//! is a function of the *query* through a size-class
//! [`pool::BufferPool`]:
//!
//! * the CSR arrays ([`GraphArrays`]) are uploaded once per
//!   [`SsspService::load_graph`] generation;
//! * distance vector, workload lists, bucket membership queue,
//!   pending marks and scan cells are acquired from the pool and
//!   **reset** (an explicit, cheap cursor/fill step) per query —
//!   never reallocated;
//! * the [`DeltaController`] is reused across queries, so a batch
//!   warm-starts each query's Δ₀ from the previous query's converged
//!   width (Δ-stepping with `atomicMin` relaxations is exact under
//!   any Δ schedule, so distances stay bit-identical to one-shot);
//! * with PRO, the heavy-edge offsets are refreshed on-device at
//!   query start — a finished run leaves them at per-vertex widths.
//!
//! [`SsspService::batch`] answers a slice of sources and accounts the
//! amortization in [`BatchStats`]. The single-GPU backend has one
//! scheduler, the traffic tier's ([`traffic`]): it spreads queries
//! across [`ServiceConfig::streams`] simulated command streams
//! ([`rdbs_gpu_sim::StreamSet`]), where every in-flight query owns a
//! pool-leased *lane* (distance vector, queue set, Δ controller, and
//! its own heavy-offset copy under PRO) while sharing the single
//! resident graph upload, and steps whichever stream is furthest behind
//! on the shared wall clock — at bucket granularity for RDBS variants —
//! so answers stay bit-identical to a one-stream run. A closed-loop
//! batch is the degenerate open-loop workload: every query arrives at
//! t = 0 with an infinite deadline and the answer cache off, so the
//! earliest-wall pick is the least-busy stream and earliest-deadline
//! dispatch is first-come. [`SsspService::try_query`] is the same run
//! on one query. The multi-GPU backend has no shared stream clock and
//! answers queries one at a time.
//!
//! A query whose device attempt reports a [`QueueOverflow`] is
//! replayed **on the device** with its queue set re-acquired from the
//! pool one size class larger ([`BatchStats::escalations`]); only past
//! the escalation ceiling — one class above the vertex count, which no
//! fault-free frontier exceeds — is it re-answered by host Dijkstra
//! and counted in [`BatchStats::fallbacks`]. The service never returns
//! a silently truncated answer.

pub mod cache;
pub mod pool;
pub mod traffic;

use crate::adaptive_delta::DeltaController;
use crate::gpu::bl::BlScratch;
use crate::gpu::buffers::{DeviceQueue, GraphArrays, GraphBuffers, QueueOverflow};
use crate::gpu::frontier::{AnyFrontier, FrontierKind, MlmqFrontier, ScatterMode, WorkloadQueues};
use crate::gpu::multi::{MultiGpuConfig, MultiGpuState};
use crate::gpu::rdbs::{self, RdbsDriver, RdbsScratch};
use crate::gpu::{RdbsConfig, Variant};
use crate::seq::dijkstra;
use crate::stats::{BatchStats, SsspResult};
use crate::{default_delta, Csr, VertexId, Weight, INF};
use pool::BufferPool;
use rdbs_gpu_sim::{
    Buf, Device, DeviceConfig, FaultEvent, FaultPlan, FaultSpec, SanConfig, SanViolation,
};
use rdbs_graph::reorder::Permutation;
use std::time::Instant;

/// Which execution engine answers the service's queries.
#[derive(Clone, Copy, Debug)]
pub enum Backend {
    /// One simulated device running `Variant` (BL or any RDBS
    /// ablation).
    Gpu(Variant),
    /// `k` simulated devices running the bulk-synchronous multi-GPU
    /// port.
    MultiGpu(usize),
}

/// Service construction parameters.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    pub backend: Backend,
    /// Per-device hardware model.
    pub device: DeviceConfig,
    /// Δ₀ override for the multi-GPU backend (single-GPU variants
    /// carry their own in [`crate::gpu::RdbsConfig`]).
    pub delta0: Option<Weight>,
    /// Command streams queries may be spread across on the single-GPU
    /// backend (1 = sequential; clamped to the number of queries at
    /// dispatch). Each extra stream leases its own lane of per-query
    /// buffers from the pool; the graph upload stays shared.
    pub streams: usize,
    /// Logical capacity of each lane's frontier queues (`None` → the
    /// vertex count, which no fault-free frontier outgrows). Smaller
    /// values under-provision the frontier deliberately — the
    /// overflow-stress knob: the single layout escalates through the
    /// pool ladder, the MLMQ absorbs the pressure by spilling.
    pub queue_capacity: Option<u32>,
}

impl ServiceConfig {
    /// Full RDBS (BASYN+PRO+ADWL) on one device.
    pub fn rdbs(device: DeviceConfig) -> Self {
        Self {
            backend: Backend::Gpu(Variant::Rdbs(crate::gpu::RdbsConfig::full())),
            device,
            delta0: None,
            streams: 1,
            queue_capacity: None,
        }
    }

    /// The synchronous push baseline on one device.
    pub fn baseline(device: DeviceConfig) -> Self {
        Self {
            backend: Backend::Gpu(Variant::Baseline),
            device,
            delta0: None,
            streams: 1,
            queue_capacity: None,
        }
    }

    /// The multi-GPU port over `devices` shards (NVLink-class
    /// interconnect defaults).
    pub fn multi(devices: usize, device: DeviceConfig) -> Self {
        Self {
            backend: Backend::MultiGpu(devices),
            device,
            delta0: None,
            streams: 1,
            queue_capacity: None,
        }
    }

    /// Spread batches across `streams` command streams.
    pub fn with_streams(mut self, streams: usize) -> Self {
        assert!(streams >= 1, "a service needs at least one stream");
        self.streams = streams;
        self
    }

    /// Run the RDBS backend on the given frontier layout (no effect on
    /// the baseline and multi-GPU backends, which have no frontier).
    pub fn with_frontier(mut self, frontier: FrontierKind) -> Self {
        if let Backend::Gpu(Variant::Rdbs(cfg)) = &mut self.backend {
            cfg.frontier = frontier;
        }
        self
    }

    /// Run the RDBS backend with the given frontier scatter mode (no
    /// effect on the baseline and multi-GPU backends).
    pub fn with_scatter(mut self, scatter: ScatterMode) -> Self {
        if let Backend::Gpu(Variant::Rdbs(cfg)) = &mut self.backend {
            cfg.scatter = scatter;
        }
        self
    }

    /// Under- (or over-) provision each lane's frontier queues at
    /// `capacity` logical slots instead of the vertex count.
    pub fn with_queue_capacity(mut self, capacity: u32) -> Self {
        assert!(capacity >= 1, "a frontier needs at least one slot");
        self.queue_capacity = Some(capacity);
        self
    }
}

/// Why a query could not be answered by the device path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// A device queue's sticky overflow cell was raised — the device
    /// attempt may have dropped work and its output is untrusted.
    /// Surfaced only once queue-set escalation has hit its ceiling.
    Overflow(QueueOverflow),
    /// The source is not a vertex of the resident graph.
    SourceOutOfRange { source: VertexId, n: u32 },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overflow(e) => write!(f, "{e}"),
            ServiceError::SourceOutOfRange { source, n } => {
                write!(f, "source {source} out of range for a {n}-vertex graph")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<QueueOverflow> for ServiceError {
    fn from(e: QueueOverflow) -> Self {
        ServiceError::Overflow(e)
    }
}

/// Per-query device scratch, shaped by the variant.
// The RDBS variant is a few hundred bytes of queue handles (the MLMQ
// frontier holds eight sub-queues); it lives in a per-lane slot, not a
// hot collection, so the size skew is harmless.
#[allow(clippy::large_enum_variant)]
enum Scratch {
    Rdbs(RdbsScratch),
    Bl(BlScratch),
}

/// One query's exclusive device lease: everything the scheduler must
/// keep disjoint between in-flight queries. Lane 0 always exists and
/// serves one-stream runs; extra lanes are created on demand by runs
/// spread across more streams and recycled with the graph generation.
struct QueryLane {
    dist: Buf,
    scratch: Scratch,
    controller: DeltaController,
    /// Private heavy-offset buffer (PRO variants, lanes ≥ 1 only).
    /// The uploaded [`GraphArrays::heavy`] is per-query *mutable*
    /// state — runs re-split it as buckets settle — so concurrent
    /// lanes each own a copy; lane 0 keeps the uploaded buffer.
    heavy: Option<Buf>,
    /// Whether the lane's heavy offsets must be recomputed on-device
    /// before its next run (fresh lanes, and every lane after a run
    /// has re-split them).
    heavy_dirty: bool,
}

/// Resident single-device state.
struct GpuState {
    device: Device,
    variant: Variant,
    /// PRO relabelling of the current graph, when the variant
    /// preprocesses.
    perm: Option<Permutation>,
    arrays: GraphArrays,
    lanes: Vec<QueryLane>,
}

enum State {
    Gpu(Box<GpuState>),
    Multi(Box<MultiGpuState>),
}

/// A resident, batched SSSP service — see the module docs.
pub struct SsspService {
    config: ServiceConfig,
    state: State,
    /// The graph queries actually run on (PRO-relabelled when the
    /// variant preprocesses; the original otherwise).
    graph: Csr,
    pool: BufferPool,
    stats: BatchStats,
    /// H2D uploads one graph generation costs (charged once; avoided
    /// by every follow-up query).
    uploads_per_graph: u64,
    /// Queries answered against the current graph generation.
    queries_on_graph: u64,
    /// Graph generation: 0 for the construction graph, +1 per
    /// [`SsspService::load_graph`]. The traffic tier's answer cache is
    /// keyed by `(generation, source)`, so stale answers can never
    /// survive a graph swap.
    generation: u64,
    /// Monotonicity-audit hits of the most recent device attempt
    /// (only populated while faults are armed).
    last_audit_hits: usize,
    /// The traffic tier's answer cache, lazily created on the first
    /// [`SsspService::serve_queries`] call that enables caching.
    traffic_cache: Option<cache::AnswerCache>,
}

impl SsspService {
    /// Build the backend, upload `graph` once, and pre-acquire the
    /// per-query buffers from the pool.
    pub fn new(graph: &Csr, config: ServiceConfig) -> Self {
        let mut pool = BufferPool::new();
        let (state, run_graph, uploads) = match config.backend {
            Backend::Gpu(variant) => {
                let mut device = Device::new(config.device.clone());
                let (run_graph, perm) = prepare(graph, variant);
                let n = run_graph.num_vertices() as u32;
                let arrays = GraphArrays::upload(&mut device, &run_graph);
                let uploads = device.counters().h2d_uploads;
                let dist = pool.acquire(&mut device, "dist", n as usize);
                let scratch =
                    build_scratch(&mut pool, &mut device, n, variant, config.queue_capacity);
                let controller = fresh_controller(&device, &run_graph, variant);
                let lane0 =
                    QueryLane { dist, scratch, controller, heavy: None, heavy_dirty: false };
                let st = GpuState { device, variant, perm, arrays, lanes: vec![lane0] };
                (State::Gpu(Box::new(st)), run_graph, uploads)
            }
            Backend::MultiGpu(k) => {
                let st = MultiGpuState::new(graph, &multi_config(&config, k));
                let uploads = st.graph_uploads();
                (State::Multi(Box::new(st)), graph.clone(), uploads)
            }
        };
        let stats = BatchStats { graph_uploads: uploads, ..Default::default() };
        Self {
            config,
            state,
            graph: run_graph,
            pool,
            stats,
            uploads_per_graph: uploads,
            queries_on_graph: 0,
            generation: 0,
            last_audit_hits: 0,
            traffic_cache: None,
        }
    }

    /// Swap in a new graph generation: the old generation's buffers go
    /// back to the pool (per-query buffers of the new generation are
    /// recycled from them when the size classes match), the new CSR is
    /// uploaded once, and the Δ controller starts fresh.
    pub fn load_graph(&mut self, graph: &Csr) {
        match &mut self.state {
            State::Gpu(st) => {
                release_gpu_buffers(&self.pool, st);
                let (run_graph, perm) = prepare(graph, st.variant);
                let n = run_graph.num_vertices() as u32;
                let before = st.device.counters().h2d_uploads;
                st.arrays = GraphArrays::upload(&mut st.device, &run_graph);
                self.uploads_per_graph = st.device.counters().h2d_uploads - before;
                let dist = self.pool.acquire(&mut st.device, "dist", n as usize);
                let scratch = build_scratch(
                    &mut self.pool,
                    &mut st.device,
                    n,
                    st.variant,
                    self.config.queue_capacity,
                );
                let controller = fresh_controller(&st.device, &run_graph, st.variant);
                st.lanes.push(QueryLane {
                    dist,
                    scratch,
                    controller,
                    heavy: None,
                    heavy_dirty: false,
                });
                st.perm = perm;
                self.graph = run_graph;
            }
            State::Multi(_) => {
                let Backend::MultiGpu(k) = self.config.backend else { unreachable!() };
                let st = MultiGpuState::new(graph, &multi_config(&self.config, k));
                self.uploads_per_graph = st.graph_uploads();
                self.state = State::Multi(Box::new(st));
                self.graph = graph.clone();
            }
        }
        self.stats.graph_uploads += self.uploads_per_graph;
        self.queries_on_graph = 0;
        self.generation += 1;
    }

    /// The current graph generation (0 for the construction graph,
    /// +1 per [`SsspService::load_graph`]).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Answer one query against the resident graph; `Err` on an
    /// out-of-range source or a device-queue overflow that escalation
    /// could not recover. On the single-GPU backend this is the
    /// scheduler's run on one query, with the ceiling overflow handed
    /// back instead of answered by the host oracle — the recovery
    /// ladder ([`crate::recover`]) counts it as a detection.
    pub fn try_query(&mut self, source: VertexId) -> Result<SsspResult, ServiceError> {
        let n = self.graph.num_vertices() as u32;
        if source >= n {
            return Err(ServiceError::SourceOutOfRange { source, n });
        }
        if let State::Multi(st) = &mut self.state {
            // No shared stream clock to schedule on, and no escalation
            // ladder: one straight device attempt.
            let started = Instant::now();
            self.last_audit_hits = 0;
            let result = st.try_run(source)?.result;
            self.note_query(started);
            return Ok(result);
        }
        let (queries, cfg) = traffic::closed_loop(&[source]);
        let mut run = self.schedule(&queries, &cfg);
        match run.ceiling.pop() {
            Some((_, _, overflow)) => Err(overflow.into()),
            None => {
                Ok(run.outcomes.pop().flatten().expect("a live query is answered").into_exact())
            }
        }
    }

    /// Like [`SsspService::try_query`] but panicking on error — the
    /// recovery ladder ([`crate::recover`]) treats the panic as a
    /// detection.
    pub fn query(&mut self, source: VertexId) -> SsspResult {
        self.try_query(source).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Answer many sources against one upload. On the single-GPU
    /// backend this is a closed-loop [`SsspService::serve_queries`]
    /// run — every query arrives at t = 0 — spread across
    /// [`ServiceConfig::streams`] command streams, one leased lane per
    /// in-flight query. A query whose device attempt overflows is
    /// replayed with an escalated queue set; only past the escalation
    /// ceiling is it re-answered by host Dijkstra (counted in
    /// [`BatchStats::fallbacks`]). An out-of-range source panics — the
    /// batch's shape is the caller's contract.
    pub fn batch(&mut self, sources: &[VertexId]) -> Vec<SsspResult> {
        let Some(before) = self.device_elapsed_ns() else {
            // Multi-GPU: no shared stream clock to schedule on.
            return sources
                .iter()
                .map(|&source| match self.try_query(source) {
                    Ok(result) => result,
                    Err(ServiceError::Overflow(_)) => self.host_fallback(source),
                    Err(e) => panic!("{e}"),
                })
                .collect();
        };
        let (queries, cfg) = traffic::closed_loop(sources);
        let report = self.serve_queries(&queries, &cfg);
        let after = self.device_elapsed_ns().expect("backend unchanged");
        self.stats.sim_batch_ms += (after - before) / 1e6;
        report.outcomes.into_iter().map(traffic::Outcome::into_exact).collect()
    }

    /// Amortization accounting since construction (pool counters are
    /// folded in at read time).
    pub fn stats(&self) -> BatchStats {
        let mut stats = self.stats.clone();
        stats.pool_allocs = self.pool.allocs();
        stats.pool_reuses = self.pool.reuses();
        stats.bytes_recycled = self.pool.words_recycled() * 4;
        stats
    }

    /// H2D uploads performed so far, read off the live device
    /// counters — the batched-amortization assertion: constant across
    /// queries of one graph generation.
    pub fn device_uploads(&self) -> u64 {
        match &self.state {
            State::Gpu(st) => st.device.counters().h2d_uploads,
            State::Multi(st) => st.graph_uploads(),
        }
    }

    /// nvprof-style counters accumulated by the resident device since
    /// construction (`None` for the multi-GPU backend, whose shards
    /// keep per-device counters).
    pub fn device_counters(&self) -> Option<&rdbs_gpu_sim::Counters> {
        match &self.state {
            State::Gpu(st) => Some(st.device.counters()),
            State::Multi(_) => None,
        }
    }

    /// Per-buffer `(label, loads, stores, atomics)` operation totals
    /// from the resident device, heaviest-atomics first (`None` for
    /// the multi-GPU backend). The scatter-mode benches use this to
    /// attribute the global-atomic reduction to the publish buffers.
    pub fn buffer_traffic(&self) -> Option<Vec<(&'static str, u64, u64, u64)>> {
        match &self.state {
            State::Gpu(st) => {
                let mut rows = st.device.buffer_traffic();
                rows.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(b.0)));
                Some(rows)
            }
            State::Multi(_) => None,
        }
    }

    /// Per-launch kernel reports from the resident device (`None` for
    /// the multi-GPU backend) — attribution of time and atomic
    /// instructions to individual kernels.
    pub fn kernel_reports(&self) -> Option<&[rdbs_gpu_sim::KernelReport]> {
        match &self.state {
            State::Gpu(st) => Some(st.device.reports()),
            State::Multi(_) => None,
        }
    }

    /// The graph the service currently answers queries for, in the
    /// service's internal labelling.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Arm a fault plan on the resident device (shard 0 for the
    /// multi-GPU backend) — the chaos matrix drives the pooled entry
    /// point through this.
    pub fn arm_faults(&mut self, spec: FaultSpec) {
        match &mut self.state {
            State::Gpu(st) => st.device.arm_faults(FaultPlan::new(spec)),
            State::Multi(st) => st.arm_faults(spec),
        }
    }

    /// Disarm any armed fault plan, returning its injection count and
    /// event log for the recovery report.
    pub fn disarm_faults(&mut self) -> Option<(u64, Vec<FaultEvent>)> {
        let plan = match &mut self.state {
            State::Gpu(st) => st.device.disarm_faults(),
            State::Multi(st) => st.disarm_faults(),
        };
        plan.map(|p| (p.injections(), p.log().to_vec()))
    }

    /// Arm the memory-model sanitizer on the resident device (every
    /// shard for the multi-GPU backend) — the sanitized conformance
    /// matrix drives the pooled entry point through this.
    pub fn arm_sanitizer(&mut self, config: SanConfig) {
        match &mut self.state {
            State::Gpu(st) => st.device.arm_sanitizer(config),
            State::Multi(st) => st.arm_sanitizer(config),
        }
    }

    /// Sanitizer violations recorded so far across the backend.
    pub fn san_violations(&self) -> Vec<SanViolation> {
        match &self.state {
            State::Gpu(st) => st.device.san_violations().to_vec(),
            State::Multi(st) => st.san_violations().into_iter().map(|(_, v)| v).collect(),
        }
    }

    /// Total sanitizer violations including any beyond the report cap.
    pub fn san_total(&self) -> u64 {
        match &self.state {
            State::Gpu(st) => st.device.san_total(),
            State::Multi(st) => st.san_total(),
        }
    }

    /// Arm the access-IR recorder on the resident device (every shard
    /// for the multi-GPU backend) — the static verification matrix
    /// drives the pooled entry point through this.
    pub fn arm_ir(&mut self) {
        match &mut self.state {
            State::Gpu(st) => st.device.arm_ir(),
            State::Multi(st) => st.arm_ir(),
        }
    }

    /// Take the retained access IR from every device of the backend
    /// (one entry for the single-GPU backend), disarming the recorder.
    /// Empty when [`SsspService::arm_ir`] was never called.
    pub fn take_irs(&mut self) -> Vec<rdbs_gpu_sim::AccessIr> {
        match &mut self.state {
            State::Gpu(st) => st.device.take_ir().into_iter().collect(),
            State::Multi(st) => st.take_irs(),
        }
    }

    /// Arm seeded schedule fuzzing on the resident device: every
    /// subsequent kernel wave executes its lanes in a seeded
    /// permutation (single-GPU backend only — the multi-GPU exchange
    /// already permutes work across shards).
    pub fn arm_schedule_fuzz(&mut self, seed: u64) {
        if let State::Gpu(st) = &mut self.state {
            st.device.arm_schedule_fuzz(seed);
        }
    }

    /// Monotonicity-audit hits of the most recent device attempt
    /// (non-zero only while faults are armed).
    pub fn last_audit_hits(&self) -> usize {
        self.last_audit_hits
    }

    /// Simulated device clock, ns (single-GPU backend only).
    fn device_elapsed_ns(&self) -> Option<f64> {
        match &self.state {
            State::Gpu(st) => Some(st.device.elapsed_ns()),
            State::Multi(_) => None,
        }
    }

    /// Grow the lane set to `count` leases. Extra lanes (runs on more
    /// than one stream) pull their buffers from the pool, so a later
    /// generation recycles them like any per-query buffer.
    fn ensure_lanes(&mut self, count: usize) {
        let State::Gpu(st) = &mut self.state else { return };
        let st = &mut **st;
        let n = self.graph.num_vertices() as u32;
        while st.lanes.len() < count {
            let dist = self.pool.acquire(&mut st.device, "dist", n as usize);
            // The lane's first heavy-offset refresh reads dist before
            // the query resets it — clear recycled (or poison-armed)
            // contents up front.
            st.device.fill(dist, INF);
            let scratch = build_scratch(
                &mut self.pool,
                &mut st.device,
                n,
                st.variant,
                self.config.queue_capacity,
            );
            let controller = fresh_controller(&st.device, &self.graph, st.variant);
            let heavy = st
                .arrays
                .heavy
                .map(|_| self.pool.acquire(&mut st.device, "heavy_offsets", n as usize));
            st.lanes.push(QueryLane { dist, scratch, controller, heavy, heavy_dirty: true });
        }
    }

    /// Answer from the host oracle after a detected device error —
    /// never a silently truncated device answer.
    fn host_fallback(&mut self, source: VertexId) -> SsspResult {
        let started = Instant::now();
        self.stats.fallbacks += 1;
        let mapped = self.perm().map_or(source, |p| p.new_id(source));
        let mut result = dijkstra(&self.graph, mapped);
        if let Some(perm) = self.perm() {
            result.dist = perm.unapply_to_array(&result.dist);
            result.source = source;
        }
        self.note_query(started);
        result
    }

    fn perm(&self) -> Option<&Permutation> {
        match &self.state {
            State::Gpu(st) => st.perm.as_ref(),
            State::Multi(_) => None,
        }
    }

    fn note_query(&mut self, started: Instant) {
        note_query_parts(
            &mut self.stats,
            &mut self.queries_on_graph,
            self.uploads_per_graph,
            started,
        );
    }
}

/// Per-query bookkeeping, split out so the scheduler can call it
/// while the service's state is mutably borrowed.
fn note_query_parts(
    stats: &mut BatchStats,
    queries_on_graph: &mut u64,
    uploads_per_graph: u64,
    started: Instant,
) {
    stats.queries += 1;
    stats.per_query_ms.push(started.elapsed().as_secs_f64() * 1e3);
    stats.inflight_peak = stats.inflight_peak.max(1);
    if *queries_on_graph > 0 {
        stats.uploads_avoided += uploads_per_graph;
    }
    *queries_on_graph += 1;
}

/// Pair the resident arrays with a lane's distance buffer — and its
/// private heavy-offset buffer when the lane owns one.
fn lane_buffers(mut arrays: GraphArrays, lane: &QueryLane) -> GraphBuffers {
    if let Some(heavy) = lane.heavy {
        arrays.heavy = Some(heavy);
    }
    arrays.with_dist(lane.dist)
}

/// Dispatch one RDBS query on a lane: refresh its heavy offsets when
/// stale, then seed a resumable driver. Runs inside the lane's stream.
fn start_rdbs_driver(
    device: &mut Device,
    lane: &mut QueryLane,
    arrays: GraphArrays,
    graph: &Csr,
    mapped: VertexId,
    cfg: RdbsConfig,
) -> RdbsDriver {
    let gb = lane_buffers(arrays, lane);
    if cfg.pro && lane.heavy_dirty {
        lane.controller.start_run();
        rdbs::refresh_heavy_offsets(device, gb, lane.controller.delta());
    }
    if cfg.pro {
        lane.heavy_dirty = true; // the run re-splits the offsets
    }
    let Scratch::Rdbs(scratch) = &lane.scratch else {
        unreachable!("scratch kind always matches the variant")
    };
    RdbsDriver::start(device, gb, scratch, graph, mapped, cfg, &mut lane.controller)
}

/// Escalate a lane's queue set one size class: release the four
/// queues to the pool and re-acquire them — all at the same class, so
/// the set stays in one size class by construction — at the next
/// class above the largest current capacity. Returns `false` once the
/// next class would exceed the ceiling — one class above the vertex
/// count (`2 * size_class(n)`), which no fault-free frontier outgrows
/// (pending marks deduplicate enqueues) — leaving the caller to the
/// existing recovery ladder.
///
/// "Next class" is exact, not `2 * size_class(cap)`: a capacity
/// sitting below its class boundary (e.g. `n = 120`, class 128) first
/// steps *to* that class, never over it. The old doubling skipped a
/// class there and, worse, compared the skipped-ahead value against
/// the ceiling — refusing escalations from any mid-class capacity
/// (say 200 with ceiling 256) that the documented "replay up to one
/// class above `size_class(n)`" semantics still allows. A step that
/// lands exactly on the ceiling escalates; one past it returns
/// `false`.
fn escalate_queues(
    pool: &mut BufferPool,
    device: &mut Device,
    scratch: &mut Scratch,
    n: usize,
) -> bool {
    // Only the single layout grows. The BL scratch has no queues, and
    // the MLMQ never escalates: a full sub-queue spills to the deferred
    // level by design, so a raised overflow there is genuine loss the
    // host oracle answers.
    let Scratch::Rdbs(RdbsScratch { frontier: AnyFrontier::Single(wq), .. }) = scratch else {
        return false;
    };
    let old_cap =
        wq.queues().map(|q| q.capacity as usize).max().expect("a workload set holds four queues");
    let class = pool::size_class(old_cap);
    let new_cap = if old_cap < class { class } else { 2 * class };
    if new_cap > 2 * pool::size_class(n) {
        return false;
    }
    for q in wq.queues() {
        pool.release(device, q.data);
        pool.release(device, q.tail);
        pool.release(device, q.overflow);
    }
    // pooled_queue resets the recycled cursor cells, clearing the
    // sticky overflow flag before the replay.
    *wq = pooled_workload(pool, device, new_cap as u32, wq.pending, wq.adwl, wq.scatter);
    true
}

/// Maximum number of intervals alive at once — the batch's in-flight
/// peak. Interval ends sort before coincident starts, so back-to-back
/// queries on one stream do not count as overlapping.
fn peak_overlap(intervals: &[(f64, f64)]) -> u64 {
    let mut events: Vec<(f64, i32)> = Vec::with_capacity(intervals.len() * 2);
    for &(start, end) in intervals {
        events.push((start, 1));
        events.push((end, -1));
    }
    events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times").then(a.1.cmp(&b.1)));
    let mut alive = 0i64;
    let mut peak = 0i64;
    for (_, delta) in events {
        alive += i64::from(delta);
        peak = peak.max(alive);
    }
    peak.max(0) as u64
}

/// PRO-preprocess when the variant asks for it.
fn prepare(graph: &Csr, variant: Variant) -> (Csr, Option<Permutation>) {
    match variant {
        Variant::Rdbs(cfg) if cfg.pro => {
            let delta0 = cfg.delta0.unwrap_or_else(|| default_delta(graph));
            let (pg, perm) = rdbs_graph::reorder::pro(graph, delta0);
            (pg, Some(perm))
        }
        _ => (graph.clone(), None),
    }
}

/// Fresh Δ controller matching the one-shot entry point's seeding.
fn fresh_controller(device: &Device, graph: &Csr, variant: Variant) -> DeltaController {
    let width0 = match variant {
        Variant::Rdbs(cfg) => cfg.delta0.unwrap_or_else(|| default_delta(graph)),
        Variant::Baseline => default_delta(graph),
    };
    let lanes = device.config().num_sms as u64 * 32 * 2;
    DeltaController::new(width0).with_target_parallelism(lanes)
}

fn multi_config(config: &ServiceConfig, devices: usize) -> MultiGpuConfig {
    MultiGpuConfig {
        num_devices: devices,
        device: config.device.clone(),
        interconnect_gbps: 50.0,
        exchange_latency_us: 5.0,
        delta0: config.delta0,
    }
}

/// Acquire the per-query scratch from the pool, shaped by the
/// variant's frontier layout. The pending-marks buffer is always
/// vertex-indexed (capacity under-provisioning shrinks the queues,
/// never the dedup marks).
fn build_scratch(
    pool: &mut BufferPool,
    device: &mut Device,
    n: u32,
    variant: Variant,
    queue_capacity: Option<u32>,
) -> Scratch {
    match variant {
        Variant::Baseline => {
            let mask = pool.acquire(device, "bl_mask", n as usize);
            let progress = pool.acquire(device, "bl_progress", 1);
            Scratch::Bl(BlScratch::from_parts(mask, progress))
        }
        Variant::Rdbs(cfg) => {
            let cap = queue_capacity.unwrap_or(n);
            // One vertex-indexed pending buffer per lane, shared by
            // every level of the frontier.
            let pending = pool.acquire(device, "pending", n as usize);
            let frontier = match cfg.frontier {
                FrontierKind::Single => AnyFrontier::Single(pooled_workload(
                    pool,
                    device,
                    cap,
                    pending,
                    cfg.adwl,
                    cfg.scatter,
                )),
                FrontierKind::Mlmq => {
                    let sub = MlmqFrontier::sub_capacity(cap);
                    let levels = std::array::from_fn(|_| {
                        std::array::from_fn(|_| {
                            let q = pooled_queue(pool, device, "mlmq_lane", sub);
                            q.declare_spill(device); // spill-class, like one-shot MLMQ queues
                            q
                        })
                    });
                    AnyFrontier::Mlmq(MlmqFrontier {
                        levels,
                        pending,
                        adwl: cfg.adwl,
                        scatter: cfg.scatter,
                        active: 0,
                    })
                }
            };
            let scan_out = pool.acquire(device, "scan_out", 2);
            Scratch::Rdbs(RdbsScratch::from_parts(frontier, scan_out))
        }
    }
}

/// One pooled workload-queue set around a caller-owned pending buffer
/// (escalation keeps the lane's).
fn pooled_workload(
    pool: &mut BufferPool,
    device: &mut Device,
    cap: u32,
    pending: Buf,
    adwl: bool,
    scatter: ScatterMode,
) -> WorkloadQueues {
    let q = [
        pooled_queue(pool, device, "workload_small", cap),
        pooled_queue(pool, device, "workload_medium", cap),
        pooled_queue(pool, device, "workload_large", cap),
    ];
    let members = pooled_queue(pool, device, "bucket_members", cap);
    WorkloadQueues { q, members, pending, adwl, scatter }
}

/// Assemble a queue from pooled parts. The logical capacity stays the
/// requested one even when the pooled data buffer is size-class
/// rounded past it, so overflow semantics match a one-shot queue
/// exactly.
fn pooled_queue(
    pool: &mut BufferPool,
    device: &mut Device,
    label: &'static str,
    capacity: u32,
) -> DeviceQueue {
    let data = pool.acquire(device, label, capacity as usize);
    let tail = pool.acquire(device, "queue_tail", 1);
    let overflow = pool.acquire(device, "queue_overflow", crate::gpu::buffers::OVERFLOW_WORDS);
    let queue = DeviceQueue { data, tail, overflow, capacity, label };
    // Pooled assembly bypasses DeviceQueue::new, so declare the queue
    // for the static push-bound certifier here (re-declaring a
    // recycled tail cell replaces any stale declaration).
    device.declare_queue(label, tail, overflow, capacity, false);
    queue.reset(device); // recycled cursor/overflow cells hold stale words
    queue
}

/// Return one generation's per-query and graph buffers to the pool.
fn release_gpu_buffers(pool: &BufferPool, st: &mut GpuState) {
    let device = &mut st.device;
    for lane in st.lanes.drain(..) {
        pool.release(device, lane.dist);
        if let Some(heavy) = lane.heavy {
            pool.release(device, heavy);
        }
        match &lane.scratch {
            Scratch::Bl(s) => {
                pool.release(device, s.mask);
                pool.release(device, s.progress);
            }
            Scratch::Rdbs(s) => {
                for q in s.frontier.device_queues() {
                    pool.release(device, q.data);
                    pool.release(device, q.tail);
                    pool.release(device, q.overflow);
                }
                pool.release(device, s.frontier.pending());
                pool.release(device, s.scan_out);
            }
        }
    }
    pool.release(device, st.arrays.row);
    pool.release(device, st.arrays.adj);
    pool.release(device, st.arrays.wt);
    if let Some(heavy) = st.arrays.heavy {
        pool.release(device, heavy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::{run_gpu, RdbsConfig};
    use crate::validate::check_against_dijkstra;
    use rdbs_graph::builder::{build_undirected, EdgeList};
    use rdbs_graph::generate::{erdos_renyi, uniform_weights};

    fn graph(seed: u64) -> Csr {
        let mut el = erdos_renyi(120, 600, seed);
        uniform_weights(&mut el, seed + 9);
        build_undirected(&el)
    }

    fn tiny() -> DeviceConfig {
        DeviceConfig::test_tiny()
    }

    /// Star: hub 0 with `leaves` unit-weight spokes — one bucket, one
    /// frontier whose queue pressure is exactly the spoke count.
    fn star(leaves: usize) -> Csr {
        let edges: Vec<(u32, u32, Weight)> = (0..leaves).map(|i| (0u32, i as u32 + 1, 1)).collect();
        build_undirected(&EdgeList::from_edges(leaves + 1, edges))
    }

    /// Lane 0's single-layout workload set, for capacity rigs.
    fn lane0_workload(svc: &mut SsspService) -> &mut WorkloadQueues {
        let State::Gpu(st) = &mut svc.state else { unreachable!() };
        let Scratch::Rdbs(s) = &mut st.lanes[0].scratch else { unreachable!() };
        let AnyFrontier::Single(wq) = &mut s.frontier else { unreachable!() };
        wq
    }

    /// Pin every queue of lane 0 at `cap` slots.
    fn set_queue_caps(svc: &mut SsspService, cap: u32) {
        let wq = lane0_workload(svc);
        for q in wq.q.iter_mut().chain(std::iter::once(&mut wq.members)) {
            q.capacity = cap;
        }
    }

    #[test]
    fn batched_matches_one_shot_bit_identical() {
        let g = graph(1);
        let variant = Variant::Rdbs(RdbsConfig::full());
        let mut svc = SsspService::new(&g, ServiceConfig::rdbs(tiny()));
        let sources: Vec<VertexId> = (0..8).map(|i| i * 13 % 120).collect();
        let batched = svc.batch(&sources);
        for (i, &s) in sources.iter().enumerate() {
            let one_shot = run_gpu(&g, s, variant, tiny());
            assert_eq!(batched[i].dist, one_shot.result.dist, "source {s}");
            assert_eq!(batched[i].source, s);
        }
        assert_eq!(svc.stats().fallbacks, 0);
    }

    #[test]
    fn one_upload_serves_a_whole_batch() {
        let g = graph(2);
        let mut svc = SsspService::new(&g, ServiceConfig::rdbs(tiny()));
        let after_build = svc.device_uploads();
        assert_eq!(after_build, 4, "row+adj+wt+heavy, exactly once");
        let sources: Vec<VertexId> = (0..16).collect();
        let results = svc.batch(&sources);
        assert_eq!(results.len(), 16);
        assert_eq!(svc.device_uploads(), after_build, "no re-upload per query");
        let stats = svc.stats();
        assert_eq!(stats.queries, 16);
        assert_eq!(stats.uploads_avoided, 15 * 4);
        assert_eq!(stats.per_query_ms.len(), 16);
        assert!(stats.mean_query_ms().unwrap() >= 0.0);
        assert_eq!(stats.per_query_sim_ms.len(), 16);
        assert!(stats.sim_batch_ms > 0.0);
        assert_eq!(stats.inflight_peak, 1, "sequential batches never overlap");
        // Sojourns run from batch start: one per query, completing in
        // order, the last one landing exactly on the batch makespan.
        assert_eq!(stats.per_query_sojourn_ms.len(), 16);
        let sj = &stats.per_query_sojourn_ms;
        assert!(sj.windows(2).all(|w| w[0] <= w[1]), "closed-loop sojourns complete in order");
        assert!((sj.last().unwrap() - stats.sim_batch_ms).abs() < 1e-9);
    }

    #[test]
    fn load_graph_recycles_buffers() {
        let g1 = graph(3);
        let g2 = graph(4);
        let mut svc = SsspService::new(&g1, ServiceConfig::rdbs(tiny()));
        svc.query(5);
        let allocs_before = svc.stats().pool_allocs;
        svc.load_graph(&g2);
        svc.query(5);
        let stats = svc.stats();
        assert_eq!(stats.pool_allocs, allocs_before, "generation 2 allocates nothing new");
        assert!(stats.pool_reuses >= 8, "dist + queues + pending + scan recycled");
        assert!(stats.bytes_recycled > 0);
        assert_eq!(stats.graph_uploads, 8, "two generations, four uploads each");
        check_against_dijkstra(&g2, 5, &svc.query(5).dist).unwrap();
    }

    #[test]
    fn poisoned_recycled_buffers_do_not_leak() {
        // Fill every per-query buffer with garbage between queries —
        // the explicit reset path must erase all of the previous
        // query's state the kernels can observe.
        let g = graph(5);
        let mut svc = SsspService::new(&g, ServiceConfig::rdbs(tiny()));
        let clean = svc.query(7).dist;
        if let State::Gpu(st) = &mut svc.state {
            let st = &mut **st;
            let lane = &st.lanes[0];
            st.device.fill(lane.dist, 0xDEAD_BEEF);
            if let Scratch::Rdbs(s) = &lane.scratch {
                for q in s.frontier.device_queues() {
                    st.device.fill(q.data, 0xDEAD_BEEF);
                    st.device.fill(q.tail, 0);
                    st.device.fill(q.overflow, 0);
                }
                st.device.fill(s.frontier.pending(), 0xDEAD_BEEF);
                st.device.fill(s.scan_out, 0xDEAD_BEEF);
            }
        }
        assert_eq!(svc.query(7).dist, clean);
        check_against_dijkstra(&g, 7, &clean).unwrap();
    }

    #[test]
    fn overflow_escalates_on_device_instead_of_falling_back() {
        // Shrink the workload lists' logical capacity under the data
        // buffers: the push storm must overflow, escalate the queue
        // set to a larger size class, and replay GPU-side — correct
        // answers, zero host fallbacks.
        let g = graph(6);
        let mut svc = SsspService::new(&g, ServiceConfig::rdbs(tiny()));
        for q in &mut lane0_workload(&mut svc).q {
            q.capacity = 1;
        }
        let results = svc.batch(&[0, 1]);
        let stats = svc.stats();
        assert!(stats.escalations >= 1, "capacity-1 queues must escalate");
        assert_eq!(stats.fallbacks, 0, "recoverable overflow never reaches the host oracle");
        for (i, &s) in [0u32, 1].iter().enumerate() {
            check_against_dijkstra(&g, s, &results[i].dist).unwrap();
        }
    }

    #[test]
    fn escalation_ladder_stops_one_class_above_n() {
        let g = graph(6);
        let mut svc = SsspService::new(&g, ServiceConfig::rdbs(tiny()));
        let n = svc.num_vertices();
        let State::Gpu(st) = &mut svc.state else { unreachable!() };
        let mut steps = 0;
        while escalate_queues(&mut svc.pool, &mut st.device, &mut st.lanes[0].scratch, n) {
            steps += 1;
            assert!(steps < 16, "the ladder must terminate");
        }
        let Scratch::Rdbs(s) = &st.lanes[0].scratch else { unreachable!() };
        let AnyFrontier::Single(wq) = &s.frontier else { unreachable!() };
        assert_eq!(wq.q[0].capacity as usize, 2 * pool::size_class(n));
        assert_eq!(wq.members.capacity as usize, 2 * pool::size_class(n));
        assert_eq!(
            steps, 2,
            "n=120 queues start mid-class at capacity 120: one step to class 128, one to the \
             256 ceiling — never skipping a class"
        );
    }

    #[test]
    fn escalation_ceiling_is_inclusive_and_one_past_refuses() {
        // The pinned boundary semantics: a step landing exactly on the
        // ceiling (2 * size_class(n)) escalates; the step past it
        // returns false. And after any escalation the four queues sit
        // in one size class regardless of how unequal they were rigged.
        let g = graph(6);
        let mut svc = SsspService::new(&g, ServiceConfig::rdbs(tiny()));
        let n = svc.num_vertices();
        let ceiling = 2 * pool::size_class(n);

        // Rig the set unequal, max exactly one class below the ceiling.
        {
            let wq = lane0_workload(&mut svc);
            wq.members.capacity = pool::size_class(n) as u32;
            for q in &mut wq.q {
                q.capacity = 1;
            }
        }
        let State::Gpu(st) = &mut svc.state else { unreachable!() };
        assert!(
            escalate_queues(&mut svc.pool, &mut st.device, &mut st.lanes[0].scratch, n),
            "a step landing exactly on the ceiling must escalate"
        );
        {
            let Scratch::Rdbs(s) = &st.lanes[0].scratch else { unreachable!() };
            let AnyFrontier::Single(wq) = &s.frontier else { unreachable!() };
            for q in wq.queues() {
                assert_eq!(q.capacity as usize, ceiling, "all four queues in one size class");
            }
        }
        assert!(
            !escalate_queues(&mut svc.pool, &mut st.device, &mut st.lanes[0].scratch, n),
            "one past the ceiling must refuse"
        );
        // A mid-class capacity below the ceiling (the old doubling
        // refused here) steps to the ceiling, not past it.
        {
            let Scratch::Rdbs(s) = &mut st.lanes[0].scratch else { unreachable!() };
            let AnyFrontier::Single(wq) = &mut s.frontier else { unreachable!() };
            for q in wq.q.iter_mut().chain(std::iter::once(&mut wq.members)) {
                q.capacity = (ceiling - 1) as u32;
            }
        }
        assert!(
            escalate_queues(&mut svc.pool, &mut st.device, &mut st.lanes[0].scratch, n),
            "a mid-class capacity below the ceiling may still take its last step"
        );
        let Scratch::Rdbs(s) = &st.lanes[0].scratch else { unreachable!() };
        let AnyFrontier::Single(wq) = &s.frontier else { unreachable!() };
        assert_eq!(wq.q[0].capacity as usize, ceiling);
    }

    #[test]
    fn escalation_boundary_is_exact_at_queue_capacity() {
        // Self-calibrating boundary probe: find the exact queue
        // high-water mark of a star query, then check that capacity
        // passes clean while capacity-1 escalates exactly one size
        // class — a strictly larger queue set from the pool, sticky
        // overflow cleared before the replay — and stays correct.
        let leaves = 9;
        let g = star(leaves);
        let mut exact = None;
        for cap in 2..=(leaves as u32 + 1) {
            let mut svc = SsspService::new(&g, ServiceConfig::rdbs(tiny()));
            set_queue_caps(&mut svc, cap);
            svc.query(0);
            if svc.stats().escalations == 0 {
                exact = Some(cap);
                break;
            }
        }
        let exact = exact.expect("some capacity fits the star frontier");

        // At capacity: clean pass, no escalation, no fallback.
        let mut svc = SsspService::new(&g, ServiceConfig::rdbs(tiny()));
        set_queue_caps(&mut svc, exact);
        check_against_dijkstra(&g, 0, &svc.query(0).dist).unwrap();
        let stats = svc.stats();
        assert_eq!(stats.escalations, 0);
        assert_eq!(stats.fallbacks, 0);

        // One slot short: the frontier trips the sticky overflow cell,
        // escalation replaces all four queues one class up, and the
        // replay succeeds without ever reaching the host oracle.
        let mut svc = SsspService::new(&g, ServiceConfig::rdbs(tiny()));
        set_queue_caps(&mut svc, exact - 1);
        check_against_dijkstra(&g, 0, &svc.query(0).dist).unwrap();
        let stats = svc.stats();
        assert!(stats.escalations >= 1, "capacity-1 below the mark must escalate");
        assert_eq!(stats.fallbacks, 0);
        let State::Gpu(st) = &svc.state else { unreachable!() };
        let Scratch::Rdbs(s) = &st.lanes[0].scratch else { unreachable!() };
        let AnyFrontier::Single(wq) = &s.frontier else { unreachable!() };
        assert!(
            wq.q[0].capacity > exact - 1,
            "the ladder must hand back a strictly larger queue set"
        );
    }

    #[test]
    fn four_streams_overlap_and_match_sequential_bit_identical() {
        let g = graph(9);
        let sources: Vec<VertexId> = (0..16).map(|i| i * 7 % 120).collect();
        let mut seq = SsspService::new(&g, ServiceConfig::rdbs(tiny()));
        let seq_results = seq.batch(&sources);
        let mut conc = SsspService::new(&g, ServiceConfig::rdbs(tiny()).with_streams(4));
        let conc_results = conc.batch(&sources);
        for (a, b) in seq_results.iter().zip(&conc_results) {
            assert_eq!(a.source, b.source);
            assert_eq!(a.dist, b.dist, "source {}", a.source);
        }
        let s = seq.stats();
        let c = conc.stats();
        assert_eq!(c.fallbacks, 0);
        assert_eq!(c.per_query_sim_ms.len(), 16);
        assert!(c.inflight_peak > 1, "streams must actually overlap, peak {}", c.inflight_peak);
        assert_eq!(s.inflight_peak, 1);
        assert!(
            s.sim_batch_ms >= 1.5 * c.sim_batch_ms,
            "sequential {} ms vs 4-stream {} ms",
            s.sim_batch_ms,
            c.sim_batch_ms
        );
        let p50 = c.sim_latency_percentile_ms(50.0).unwrap();
        let p99 = c.sim_latency_percentile_ms(99.0).unwrap();
        assert!(p50 <= p99 && p50 > 0.0);
        // The wall series covers the same queries; a sojourn includes
        // queueing, so it is never below its query's service latency.
        assert_eq!(c.per_query_sojourn_ms.len(), 16);
        for (sj, sim) in c.per_query_sojourn_ms.iter().zip(&c.per_query_sim_ms) {
            assert!(sj + 1e-9 >= *sim, "sojourn {sj} ms below service {sim} ms");
        }
    }

    #[test]
    fn inflight_peak_is_exact_with_unbalanced_queries() {
        // More queries than streams and a deliberately unbalanced mix:
        // the star component makes hub/leaf queries expensive while
        // the 3-chain's queries are nearly free, so one stream churns
        // through cheap work and keeps dispatching while its sibling
        // is mid-query. Intervals are recorded on the shared wall
        // timeline, so the sweep must pin the peak at exactly the
        // stream count — per-stream busy coordinates would let a
        // late-dispatching stream appear to start "in the past" and
        // overcount.
        let leaves = 64u32;
        let mut edges: Vec<(u32, u32, Weight)> = (0..leaves).map(|i| (0, i + 1, 1)).collect();
        let chain0 = leaves + 1;
        edges.push((chain0, chain0 + 1, 2));
        edges.push((chain0 + 1, chain0 + 2, 2));
        let g = build_undirected(&EdgeList::from_edges(chain0 as usize + 3, edges));
        let sources: Vec<VertexId> = vec![0, chain0 + 1, chain0, chain0 + 2, 1];
        let mut svc = SsspService::new(&g, ServiceConfig::rdbs(tiny()).with_streams(2));
        let results = svc.batch(&sources);
        for (i, &s) in sources.iter().enumerate() {
            check_against_dijkstra(&g, s, &results[i].dist).unwrap();
        }
        let stats = svc.stats();
        assert_eq!(stats.fallbacks, 0);
        assert_eq!(stats.inflight_peak, 2, "exactly the stream count, never more");
        assert_eq!(stats.per_query_sim_ms.len(), 5);
        assert_eq!(stats.per_query_sojourn_ms.len(), 5);
    }

    #[test]
    fn percentiles_cover_forced_fallbacks() {
        // Rig lane 1 so its queries overflow with the queue set already
        // at the escalation ceiling: escalation refuses, the queries
        // die on the device and are re-answered by the host oracle.
        // The service-latency series drops them by design — the
        // sojourn series (and its percentiles) must not.
        let g = graph(12);
        let n = g.num_vertices();
        let mut svc = SsspService::new(&g, ServiceConfig::rdbs(tiny()).with_streams(2));
        svc.ensure_lanes(2);
        {
            let State::Gpu(st) = &mut svc.state else { unreachable!() };
            let Scratch::Rdbs(s) = &mut st.lanes[1].scratch else { unreachable!() };
            let AnyFrontier::Single(wq) = &mut s.frontier else { unreachable!() };
            // The members queue pins the set's max capacity at the
            // ceiling (so escalation refuses to grow it further) while
            // the workload queues still overflow on the first push
            // storm. The graph's frontier never outgrows the members
            // buffer itself, so the logical cap is safe.
            wq.members.capacity = (2 * pool::size_class(n)) as u32;
            for q in &mut wq.q {
                q.capacity = 1;
            }
        }
        let sources: Vec<VertexId> = vec![5, 17, 33, 70];
        let results = svc.batch(&sources);
        for (i, &s) in sources.iter().enumerate() {
            check_against_dijkstra(&g, s, &results[i].dist).unwrap();
        }
        let stats = svc.stats();
        assert!(stats.fallbacks >= 1, "the rigged lane must force at least one fallback");
        // A query that dies on lane 1 was in flight alongside lane 0's
        // until its death: the peak counts it.
        assert_eq!(stats.inflight_peak, 2);
        assert_eq!(
            stats.per_query_sim_ms.len() as u64,
            stats.queries - stats.fallbacks,
            "service latencies cover device-answered queries only"
        );
        assert_eq!(
            stats.per_query_sojourn_ms.len() as u64,
            stats.queries,
            "sojourns cover every query, fallbacks included"
        );
        assert!(stats.sojourn_percentile_ms(99.0).is_some());
        assert!(
            stats.sojourn_percentile_ms(99.0).unwrap()
                >= stats.sojourn_percentile_ms(50.0).unwrap()
        );
    }

    #[test]
    fn concurrent_baseline_matches_sequential() {
        let g = graph(10);
        let sources: Vec<VertexId> = (0..8).map(|i| i * 11 % 120).collect();
        let mut seq = SsspService::new(&g, ServiceConfig::baseline(tiny()));
        let seq_results = seq.batch(&sources);
        let mut conc = SsspService::new(&g, ServiceConfig::baseline(tiny()).with_streams(2));
        let conc_results = conc.batch(&sources);
        for (a, b) in seq_results.iter().zip(&conc_results) {
            assert_eq!(a.dist, b.dist, "source {}", a.source);
        }
        assert!(conc.stats().inflight_peak > 1);
        assert!(seq.stats().sim_batch_ms > conc.stats().sim_batch_ms);
    }

    #[test]
    fn baseline_and_multi_backends_answer_correctly() {
        let g = graph(7);
        for config in [ServiceConfig::baseline(tiny()), ServiceConfig::multi(2, tiny())] {
            let mut svc = SsspService::new(&g, config);
            let uploads = svc.device_uploads();
            for s in [0u32, 40, 119] {
                check_against_dijkstra(&g, s, &svc.query(s).dist).unwrap();
            }
            assert_eq!(svc.device_uploads(), uploads);
        }
    }

    #[test]
    fn every_frontier_answers_batches_correctly() {
        let g = graph(14);
        let sources: Vec<VertexId> = (0..8).map(|i| i * 11 % 120).collect();
        for kind in FrontierKind::ALL {
            for streams in [1usize, 4] {
                let config = ServiceConfig::rdbs(tiny()).with_frontier(kind).with_streams(streams);
                let mut svc = SsspService::new(&g, config);
                let results = svc.batch(&sources);
                for (i, &s) in sources.iter().enumerate() {
                    check_against_dijkstra(&g, s, &results[i].dist)
                        .unwrap_or_else(|m| panic!("{kind} streams={streams} source {s}: {m}"));
                }
                let stats = svc.stats();
                assert_eq!(stats.fallbacks, 0, "{kind} streams={streams}");
                if streams > 1 {
                    assert!(stats.inflight_peak > 1, "{kind} must overlap across streams");
                }
            }
        }
    }

    #[test]
    fn mlmq_spills_where_single_escalates() {
        // Under-provision the frontier below a star's one-bucket push
        // storm. The single layout must climb the escalation ladder;
        // the MLMQ absorbs the same storm by spilling into its
        // deferred level — zero escalations, zero fallbacks, and the
        // answers stay exact either way.
        let g = star(64);
        let rigged = || ServiceConfig::rdbs(tiny()).with_queue_capacity(24);

        let mut single = SsspService::new(&g, rigged());
        check_against_dijkstra(&g, 0, &single.query(0).dist).unwrap();
        let s = single.stats();
        assert!(s.escalations >= 1, "a 24-slot queue cannot hold a 64-leaf frontier");
        assert_eq!(s.fallbacks, 0);

        let mut mlmq = SsspService::new(&g, rigged().with_frontier(FrontierKind::Mlmq));
        check_against_dijkstra(&g, 0, &mlmq.query(0).dist).unwrap();
        let m = mlmq.stats();
        assert_eq!(m.escalations, 0, "the MLMQ spills instead of escalating");
        assert_eq!(m.fallbacks, 0, "a spill is not a loss");
    }

    #[test]
    fn mlmq_real_loss_still_reaches_the_host_oracle() {
        // Starve the MLMQ so far that even the spill level drops
        // pushes: escalation is not available to it, so the detected
        // loss must fall back to host Dijkstra — never a silently
        // truncated answer.
        let g = star(64);
        let config =
            ServiceConfig::rdbs(tiny()).with_frontier(FrontierKind::Mlmq).with_queue_capacity(2);
        let mut svc = SsspService::new(&g, config.clone());
        let results = svc.batch(&[0]);
        check_against_dijkstra(&g, 0, &results[0].dist).unwrap();
        let stats = svc.stats();
        assert_eq!(stats.escalations, 0);
        assert!(stats.fallbacks >= 1, "spill-of-spill loss must be detected and re-answered");

        // A single query hands the same loss back as a typed error
        // instead of falling back — on any stream count.
        let mut svc = SsspService::new(&g, config.with_streams(4));
        let err = svc.try_query(0).unwrap_err();
        assert!(matches!(err, ServiceError::Overflow(_)), "{err:?}");
        let stats = svc.stats();
        assert_eq!(stats.fallbacks, 0);
        assert_eq!(stats.queries, 0);
    }

    #[test]
    fn single_query_leases_one_lane() {
        // A lone query runs on lane 0 however many streams the service
        // may spread a batch across: no extra lanes are leased.
        let g = graph(13);
        let mut one = SsspService::new(&g, ServiceConfig::rdbs(tiny()));
        let mut four = SsspService::new(&g, ServiceConfig::rdbs(tiny()).with_streams(4));
        assert_eq!(one.query(5).dist, four.query(5).dist);
        assert_eq!(four.stats().pool_allocs, one.stats().pool_allocs);
    }

    #[test]
    fn out_of_range_source_is_typed() {
        let g = graph(8);
        let mut svc = SsspService::new(&g, ServiceConfig::rdbs(tiny()));
        let err = svc.try_query(10_000).unwrap_err();
        assert_eq!(err, ServiceError::SourceOutOfRange { source: 10_000, n: 120 });
        assert!(err.to_string().contains("out of range"));
    }
}
