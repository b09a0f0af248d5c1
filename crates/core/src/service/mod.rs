//! Resident SSSP service: upload the graph once, answer many sources.
//!
//! The one-shot entry point ([`crate::gpu::rdbs::rdbs`]) pays the full
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
//!   [`SsspService::load_graph`] generation; with PRO they are
//!   numbered by ADWL class ([`class_order`]: degree ≥ α, ≥ β, the
//!   rest), each class in BFS discovery order, so a mesh's neighbours
//!   share `dist` sectors and a publish files every vertex of the
//!   small class by its id alone (distances map back through the one
//!   permutation);
//! * distance vector, workload lists, bucket membership queue,
//!   pending marks and scan cells are acquired from the pool and
//!   **reset** (an explicit, cheap cursor/fill step) per query —
//!   never reallocated;
//! * the [`DeltaController`] is reused across queries, so a batch
//!   warm-starts each query's Δ₀ from the previous query's converged
//!   width (Δ-stepping with `atomicMin` relaxations is exact under
//!   any Δ schedule, so distances stay bit-identical to one-shot);
//! * with PRO, the light ranges (row and heavy-edge offset pairs) are
//!   refreshed on-device at query start — a finished run leaves them
//!   at per-vertex widths.
//!
//! [`SsspService::batch`] answers a slice of sources and accounts the
//! amortization in [`BatchStats`]. The service has one scheduler, the
//! traffic tier's ([`traffic`]): it spreads queries
//! across [`ServiceConfig::streams`] simulated command streams
//! ([`rdbs_gpu_sim::StreamSet`]), where every in-flight query owns a
//! pool-leased *lane* (distance vector, queue set, Δ controller, and
//! its own light-range copy under PRO) while sharing the single
//! resident graph upload, and steps whichever stream is furthest behind
//! on the shared wall clock, one bucket at a time, so answers stay
//! bit-identical to a one-stream run. A closed-loop
//! batch is the degenerate open-loop workload: every query arrives at
//! t = 0 with an infinite deadline and the answer cache off, so the
//! earliest-wall pick is the least-busy stream and earliest-deadline
//! dispatch is first-come. [`SsspService::try_query`] is the same run
//! on one query.
//!
//! A query whose device attempt reports a
//! [`QueueOverflow`](crate::gpu::QueueOverflow) is
//! replayed **on the device** with its queue set re-acquired from the
//! pool one size class larger ([`BatchStats::escalations`]). Every
//! answer is then certified by the one recovery ladder,
//! [`crate::recover`], before the service returns or caches it: the
//! host audits the device answer, and one that fails climbs from the
//! repair sweep to a rerun on the query's own lane and then to host
//! Dijkstra; a query that overflows past the escalation ceiling — one
//! class above the vertex count, which no fault-free frontier exceeds —
//! goes straight to host Dijkstra. Each answer records the rung that
//! certified it ([`traffic::AnswerSource`]), and [`BatchStats`] counts
//! the rungs ([`BatchStats::fallbacks`] is the host rung) and the
//! answers whose audit failed. The service never returns a silently
//! wrong or truncated answer.

pub mod cache;
pub mod pool;
pub mod traffic;

use crate::adaptive_delta::DeltaController;
use crate::gpu::buffers::{DeviceQueue, GraphArrays, GraphBuffers};
use crate::gpu::frontier::{AnyFrontier, FrontierKind, MlmqFrontier, ScatterMode, WorkloadQueues};
use crate::gpu::rdbs::{self, RdbsDriver, RdbsScratch};
use crate::gpu::RdbsConfig;
use crate::stats::{BatchStats, SsspResult};
use crate::workload::{classify, BETA};
use crate::{default_delta, Csr, VertexId, INF};
use pool::BufferPool;
use rdbs_gpu_sim::{Buf, Device, DeviceConfig, FaultPlan, FaultSpec, SanConfig, SanViolation};
use rdbs_graph::reorder::{self, Permutation};
use std::time::Instant;

/// Service construction parameters.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// The kernel every query runs: full RDBS or one of its ablations,
    /// with its own Δ₀ override, frontier layout and scatter mode.
    pub rdbs: RdbsConfig,
    /// The simulated device's hardware model.
    pub device: DeviceConfig,
    /// Command streams queries may be spread across (1 = sequential;
    /// clamped to the number of queries at dispatch). Each extra stream
    /// leases its own lane of per-query buffers from the pool; the
    /// graph upload stays shared.
    pub streams: usize,
    /// Logical capacity of each lane's frontier queues (`None` → the
    /// vertex count, which no fault-free frontier outgrows). Smaller
    /// values under-provision the frontier deliberately — the
    /// overflow-stress knob: the single layout escalates through the
    /// pool ladder, the MLMQ absorbs the pressure by spilling.
    pub queue_capacity: Option<u32>,
}

impl ServiceConfig {
    /// Full RDBS (BASYN+PRO+ADWL) on one device and one stream, queues
    /// sized to the vertex count.
    pub fn rdbs(device: DeviceConfig) -> Self {
        Self { rdbs: RdbsConfig::full(), device, streams: 1, queue_capacity: None }
    }

    /// Spread batches across `streams` command streams.
    pub fn with_streams(mut self, streams: usize) -> Self {
        assert!(streams >= 1, "a service needs at least one stream");
        self.streams = streams;
        self
    }

    /// Run on the given frontier layout.
    pub fn with_frontier(mut self, frontier: FrontierKind) -> Self {
        self.rdbs.frontier = frontier;
        self
    }

    /// Run with the given frontier scatter mode.
    pub fn with_scatter(mut self, scatter: ScatterMode) -> Self {
        self.rdbs.scatter = scatter;
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

/// Why a query was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The source is not a vertex of the resident graph.
    SourceOutOfRange { source: VertexId, n: u32 },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::SourceOutOfRange { source, n } => {
                write!(f, "source {source} out of range for a {n}-vertex graph")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// One query's exclusive device lease: everything the scheduler must
/// keep disjoint between in-flight queries. Lane 0 always exists and
/// serves one-stream runs; extra lanes are created on demand by runs
/// spread across more streams and recycled with the graph generation.
struct QueryLane {
    dist: Buf,
    scratch: RdbsScratch,
    controller: DeltaController,
    /// Private light-range buffer (PRO variants, lanes ≥ 1 only).
    /// The uploaded [`GraphArrays::light_ranges`] are per-query
    /// *mutable* state — runs re-split them as buckets settle — so
    /// concurrent lanes each own a copy; lane 0 keeps the uploaded
    /// buffer.
    light_ranges: Option<Buf>,
    /// Whether the lane's light ranges must be recomputed on-device
    /// before its next run (fresh lanes, and every lane after a run
    /// has re-split them).
    heavy_dirty: bool,
}

/// A resident, batched SSSP service — see the module docs.
pub struct SsspService {
    config: ServiceConfig,
    device: Device,
    /// PRO relabelling of the current graph, when the kernel
    /// preprocesses.
    perm: Option<Permutation>,
    arrays: GraphArrays,
    lanes: Vec<QueryLane>,
    /// The graph queries actually run on (PRO-relabelled when the
    /// kernel preprocesses; the original otherwise).
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
    /// The traffic tier's answer cache, lazily created on the first
    /// [`SsspService::serve_queries`] call that enables caching.
    traffic_cache: Option<cache::AnswerCache>,
}

/// One graph generation made resident: the graph queries run on, its
/// PRO relabelling, the uploaded arrays, the H2D uploads they cost,
/// and lane 0's lease.
struct Generation {
    graph: Csr,
    perm: Option<Permutation>,
    arrays: GraphArrays,
    uploads: u64,
    lane0: QueryLane,
}

impl Generation {
    /// Preprocess and upload `graph` once, then lease lane 0 from the
    /// pool.
    fn upload(
        pool: &mut BufferPool,
        device: &mut Device,
        graph: &Csr,
        config: &ServiceConfig,
    ) -> Self {
        let cfg = config.rdbs;
        let (graph, relabel) = prepare(graph, cfg);
        let n = graph.num_vertices() as u32;
        let (perm, small_from) = relabel.map_or((None, n), |(perm, b)| (Some(perm), b));
        let before = device.counters().h2d_uploads;
        let arrays = GraphArrays::upload(device, &graph, small_from);
        let uploads = device.counters().h2d_uploads - before;
        let dist = pool.acquire(device, "dist", n as usize);
        let scratch = build_scratch(pool, device, n, cfg, config.queue_capacity);
        let controller = fresh_controller(device, &graph, cfg);
        let lane0 = QueryLane { dist, scratch, controller, light_ranges: None, heavy_dirty: false };
        Self { graph, perm, arrays, uploads, lane0 }
    }
}

impl SsspService {
    /// Build the device, upload `graph` once, and pre-acquire the
    /// per-query buffers from the pool.
    pub fn new(graph: &Csr, config: ServiceConfig) -> Self {
        let mut pool = BufferPool::new();
        let mut device = Device::new(config.device.clone());
        let g = Generation::upload(&mut pool, &mut device, graph, &config);
        Self {
            config,
            device,
            perm: g.perm,
            arrays: g.arrays,
            lanes: vec![g.lane0],
            graph: g.graph,
            pool,
            stats: BatchStats { graph_uploads: g.uploads, ..Default::default() },
            uploads_per_graph: g.uploads,
            queries_on_graph: 0,
            generation: 0,
            traffic_cache: None,
        }
    }

    /// Swap in a new graph generation: the old generation's buffers go
    /// back to the pool (per-query buffers of the new generation are
    /// recycled from them when the size classes match), the new CSR is
    /// uploaded once, and the Δ controller starts fresh.
    pub fn load_graph(&mut self, graph: &Csr) {
        self.release_buffers();
        let g = Generation::upload(&mut self.pool, &mut self.device, graph, &self.config);
        self.lanes.push(g.lane0);
        self.perm = g.perm;
        self.arrays = g.arrays;
        self.graph = g.graph;
        self.uploads_per_graph = g.uploads;
        self.stats.graph_uploads += self.uploads_per_graph;
        self.queries_on_graph = 0;
        self.generation += 1;
    }

    /// Answer one query against the resident graph — the scheduler's
    /// run on one query, certified like every answer; `Err` on an
    /// out-of-range source.
    pub fn try_query(&mut self, source: VertexId) -> Result<SsspResult, ServiceError> {
        let n = self.graph.num_vertices() as u32;
        if source >= n {
            return Err(ServiceError::SourceOutOfRange { source, n });
        }
        let (queries, cfg) = traffic::closed_loop(&[source]);
        let mut report = self.serve_queries(&queries, &cfg);
        Ok(report.outcomes.pop().expect("one query, one outcome").into_exact())
    }

    /// Like [`SsspService::try_query`] but panicking on an
    /// out-of-range source.
    pub fn query(&mut self, source: VertexId) -> SsspResult {
        self.try_query(source).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Answer many sources against one upload: a closed-loop
    /// [`SsspService::serve_queries`] run — every query arrives at
    /// t = 0 — spread across [`ServiceConfig::streams`] command
    /// streams, one leased lane per in-flight query, every answer
    /// certified by the recovery ladder. An out-of-range source panics
    /// — the batch's shape is the caller's contract.
    pub fn batch(&mut self, sources: &[VertexId]) -> Vec<SsspResult> {
        let before = self.device.elapsed_ns();
        let (queries, cfg) = traffic::closed_loop(sources);
        let report = self.serve_queries(&queries, &cfg);
        self.stats.sim_batch_ms += (self.device.elapsed_ns() - before) / 1e6;
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
        self.device.counters().h2d_uploads
    }

    /// nvprof-style counters accumulated by the resident device since
    /// construction (always `Some`).
    pub fn device_counters(&self) -> Option<&rdbs_gpu_sim::Counters> {
        Some(self.device.counters())
    }

    /// Per-buffer `(label, loads, stores, atomics)` operation totals
    /// from the resident device, heaviest-atomics first (always
    /// `Some`). The scatter-mode bench uses this to attribute the
    /// global-atomic reduction to the publish buffers.
    pub fn buffer_traffic(&self) -> Option<Vec<(&'static str, u64, u64, u64)>> {
        let mut rows = self.device.buffer_traffic();
        rows.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(b.0)));
        Some(rows)
    }

    /// Per-launch kernel reports from the resident device (always
    /// `Some`) — attribution of time and atomic instructions to
    /// individual kernels.
    pub fn kernel_reports(&self) -> Option<&[rdbs_gpu_sim::KernelReport]> {
        Some(self.device.reports())
    }

    /// The graph the service currently answers queries for, in the
    /// service's internal labelling.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Arm a fault plan on the resident device — the chaos matrix
    /// drives the service entry points through this.
    pub fn arm_faults(&mut self, spec: FaultSpec) {
        self.device.arm_faults(FaultPlan::new(spec));
    }

    /// Disarm any armed fault plan, returning how many faults it
    /// injected.
    pub fn disarm_faults(&mut self) -> u64 {
        self.device.disarm_faults().map_or(0, |p| p.injections())
    }

    /// Arm the memory-model sanitizer on the resident device — the
    /// sanitized conformance matrix drives the service entry points
    /// through this.
    pub fn arm_sanitizer(&mut self, config: SanConfig) {
        self.device.arm_sanitizer(config);
    }

    /// Sanitizer violations recorded so far.
    pub fn san_violations(&self) -> Vec<SanViolation> {
        self.device.san_violations().to_vec()
    }

    /// Total sanitizer violations including any beyond the report cap.
    pub fn san_total(&self) -> u64 {
        self.device.san_total()
    }

    /// Arm the access-IR recorder on the resident device — the static
    /// verification matrix drives the service entry points through
    /// this.
    pub fn arm_ir(&mut self) {
        self.device.arm_ir();
    }

    /// Take the retained access IR (at most one), disarming the
    /// recorder. Empty when [`SsspService::arm_ir`] was never called.
    pub fn take_irs(&mut self) -> Vec<rdbs_gpu_sim::AccessIr> {
        self.device.take_ir().into_iter().collect()
    }

    /// Arm seeded schedule fuzzing on the resident device: every
    /// subsequent kernel wave executes its lanes in a seeded
    /// permutation.
    pub fn arm_schedule_fuzz(&mut self, seed: u64) {
        self.device.arm_schedule_fuzz(seed);
    }

    /// Grow the lane set to `count` leases. Extra lanes (runs on more
    /// than one stream) pull their buffers from the pool, so a later
    /// generation recycles them like any per-query buffer.
    fn ensure_lanes(&mut self, count: usize) {
        let n = self.graph.num_vertices() as u32;
        let cfg = self.config.rdbs;
        let device = &mut self.device;
        while self.lanes.len() < count {
            let dist = self.pool.acquire(device, "dist", n as usize);
            // The lane's first light-range refresh reads dist before
            // the query resets it — clear recycled (or poison-armed)
            // contents up front.
            device.fill(dist, INF);
            let scratch = build_scratch(&mut self.pool, device, n, cfg, self.config.queue_capacity);
            let controller = fresh_controller(device, &self.graph, cfg);
            // Stale until that refresh writes both words of every pair.
            let light_ranges = self
                .arrays
                .light_ranges
                .map(|_| self.pool.acquire(device, "light_ranges", self.arrays.light_ranges_len()));
            self.lanes.push(QueryLane {
                dist,
                scratch,
                controller,
                light_ranges,
                heavy_dirty: true,
            });
        }
    }

    /// Return one generation's per-query and graph buffers to the pool.
    fn release_buffers(&mut self) {
        let (pool, device) = (&self.pool, &mut self.device);
        for lane in self.lanes.drain(..) {
            pool.release(device, lane.dist);
            if let Some(pairs) = lane.light_ranges {
                pool.release(device, pairs);
            }
            let s = &lane.scratch;
            for q in s.frontier.device_queues() {
                pool.release(device, q.data);
                pool.release(device, q.tail);
                pool.release(device, q.overflow);
            }
            pool.release(device, s.frontier.pending());
            pool.release(device, s.scan_out);
            if let Some(prefix) = s.prefix.get() {
                pool.release(device, prefix);
            }
        }
        pool.release(device, self.arrays.row);
        pool.release(device, self.arrays.adj);
        pool.release(device, self.arrays.wt);
        if let Some(pairs) = self.arrays.light_ranges {
            pool.release(device, pairs);
        }
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
/// private light-range buffer when the lane owns one.
fn lane_buffers(mut arrays: GraphArrays, lane: &QueryLane) -> GraphBuffers {
    if let Some(pairs) = lane.light_ranges {
        arrays.light_ranges = Some(pairs);
    }
    arrays.with_dist(lane.dist)
}

/// Dispatch one RDBS query on a lane: refresh its light ranges when
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
    RdbsDriver::start(device, gb, &lane.scratch, graph, mapped, cfg, &mut lane.controller)
}

/// Run a whole query on a lane without yielding: the recovery ladder's
/// rerun rung. `Err` on a queue overflow.
fn run_on_lane(
    device: &mut Device,
    lane: &mut QueryLane,
    arrays: GraphArrays,
    graph: &Csr,
    mapped: VertexId,
    cfg: RdbsConfig,
) -> Result<SsspResult, String> {
    let mut driver = start_rdbs_driver(device, lane, arrays, graph, mapped, cfg);
    while !driver.step(device, graph, &mut lane.controller).map_err(|e| e.to_string())? {}
    Ok(driver.finish(device).result)
}

/// Escalate a lane's queue set one size class: release the four
/// queues to the pool and re-acquire them — all at the same class, so
/// the set stays in one size class by construction — at the next
/// class above the largest current capacity. Returns `false` once the
/// next class would exceed the ceiling — one class above the vertex
/// count (`2 * size_class(n)`), which no fault-free frontier outgrows
/// (pending marks deduplicate enqueues) — leaving the query to the
/// recovery ladder's host rung.
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
    scratch: &mut RdbsScratch,
    n: usize,
) -> bool {
    // Only the single layout grows. The MLMQ never escalates: a full
    // sub-queue spills to the deferred level by design, so a raised
    // overflow there is genuine loss the host oracle answers.
    let AnyFrontier::Single(wq) = &mut scratch.frontier else {
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

/// PRO-preprocess when the kernel asks for it: number the graph in
/// [`class_order`], then weight-sort and split it in PRO's one sweep.
/// Returns the graph queries run on and, with PRO, the permutation and
/// the first small-class id the upload records
/// ([`GraphArrays::small_from`]). The one-shot path keeps `pro`'s
/// degree order and classifies every vertex by its light range
/// (DESIGN.md modelling decision 12).
fn prepare(graph: &Csr, cfg: RdbsConfig) -> (Csr, Option<(Permutation, VertexId)>) {
    if !cfg.pro {
        return (graph.clone(), None);
    }
    let delta0 = cfg.delta0.unwrap_or_else(|| default_delta(graph));
    let perm = class_order(graph);
    let pg = reorder::relabel_sorted(graph, &perm, delta0);
    // The small class comes last: count the classes before it.
    let n = pg.num_vertices() as VertexId;
    let small_from = (0..n).take_while(|&v| pg.degree(v) >= BETA).count() as VertexId;
    (pg, Some((perm, small_from)))
}

/// The resident service's numbering (old → new id): vertices by the
/// ADWL class of their degree — at least α, at least β, the rest —
/// each class in [`reorder::bfs_visit`] discovery order from vertex 0
/// (each further component from its lowest unvisited id). A vertex's
/// light degree never exceeds its degree, so every vertex of the last
/// class is small at every bucket width.
pub fn class_order(graph: &Csr) -> Permutation {
    let class = |v| classify(graph.degree(v)).index() as u32;
    reorder::descending_ties(graph.num_vertices(), class, reorder::bfs_visit(graph, 0))
}

/// Fresh Δ controller matching the one-shot entry point's seeding.
fn fresh_controller(device: &Device, graph: &Csr, cfg: RdbsConfig) -> DeltaController {
    let width0 = cfg.delta0.unwrap_or_else(|| default_delta(graph));
    let lanes = device.config().num_sms as u64 * 32 * 2;
    DeltaController::new(width0).with_target_parallelism(lanes)
}

/// Acquire the per-query scratch from the pool, shaped by the
/// kernel's frontier layout. The pending-marks buffer is always
/// vertex-indexed (capacity under-provisioning shrinks the queues,
/// never the dedup marks).
fn build_scratch(
    pool: &mut BufferPool,
    device: &mut Device,
    n: u32,
    cfg: RdbsConfig,
    queue_capacity: Option<u32>,
) -> RdbsScratch {
    let cap = queue_capacity.unwrap_or(n);
    // One vertex-indexed pending buffer per lane, shared by every level
    // of the frontier.
    let pending = pool.acquire(device, "pending", n as usize);
    let frontier = match cfg.frontier {
        FrontierKind::Single => {
            AnyFrontier::Single(pooled_workload(pool, device, cap, pending, cfg.adwl, cfg.scatter))
        }
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
    RdbsScratch::from_parts(frontier, scan_out)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::{run_gpu, RdbsConfig, Variant};
    use crate::validate::check_against_dijkstra;
    use crate::workload::WorkloadClass;
    use crate::Weight;
    use proptest::collection::vec;
    use proptest::prelude::*;
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

    /// The resident upload numbers vertices by ADWL class of degree —
    /// hub 4 (261 ≥ α), then vertex 3 (42 ≥ β), then every small vertex
    /// — each class in BFS discovery order: from vertex 0 through
    /// component {0, 5, 4, hub leaves}, from the lowest unvisited id
    /// through {1, 3, 6, 3's leaves}, then the isolated vertex 2. The
    /// one-shot `pro` orders by degree, ties by id.
    #[test]
    fn prepare_numbers_adwl_classes_in_bfs_order() {
        let mut edges = vec![(0, 5), (5, 4), (1, 3), (3, 6), (6, 1)];
        edges.extend((7..267).map(|leaf| (4, leaf)));
        edges.extend((267..307).map(|leaf| (3, leaf)));
        let el = EdgeList::from_edges(307, edges.iter().map(|&(u, v)| (u, v, 1)).collect());
        let g = build_undirected(&el);
        assert_eq!((g.degree(4), g.degree(3), g.degree(2)), (261, 42, 0));
        let visit: Vec<VertexId> = [0, 5, 4]
            .into_iter()
            .chain(7..267)
            .chain([1, 3, 6])
            .chain(267..307)
            .chain([2])
            .collect();
        assert_eq!(reorder::bfs_visit(&g, 0), visit);
        // Old ids in new-id order.
        let order = |p: &Permutation| {
            let inv = p.inverse();
            (0..307).map(|v| inv.new_id(v)).collect::<Vec<VertexId>>()
        };
        let (pg, relabel) = prepare(&g, RdbsConfig::full());
        let (perm, small_from) = relabel.expect("full RDBS runs PRO");
        let small = visit.iter().copied().filter(|&v| g.degree(v) < BETA);
        let expect: Vec<VertexId> = [4, 3].into_iter().chain(small).collect();
        assert_eq!(order(&perm), expect);
        assert_eq!(small_from, 2);
        assert_eq!((pg.degree(0), pg.degree(1), pg.degree(2)), (261, 42, 1));
        let (_, degree_order) = reorder::pro(&g, default_delta(&g));
        assert_eq!(order(&degree_order)[..5], [4, 3, 1, 5, 6]);
    }

    /// Random graphs whose rows straddle β (a few centres joined to
    /// β − 2 ..= β + 2 others, plus random edges), some with a hub of
    /// degree ≥ α.
    fn arb_class_graph() -> impl Strategy<Value = EdgeList> {
        (40usize..300).prop_flat_map(|n| {
            let edge = (0..n as VertexId, 0..n as VertexId, 1..1000 as Weight);
            let centre = (0..n as VertexId, (BETA - 2)..(BETA + 3), 0..n as VertexId);
            let parts = (vec(edge, 0..2 * n), vec(centre, 1..6), any::<bool>());
            parts.prop_map(move |(mut edges, centres, hub)| {
                for (c, degree, first) in centres {
                    let others = (first..).map(|u| u % n as VertexId).filter(|&u| u != c);
                    edges.extend(others.take(degree as usize).map(|u| (c, u, 1 + u % 900)));
                }
                if hub {
                    edges.extend((1..n as VertexId).map(|u| (0, u, 1 + u % 700)));
                }
                EdgeList::from_edges(n, edges)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// The recorded boundary splits the resident graph exactly at
        /// β: every vertex before it has degree ≥ β, every vertex from
        /// it on is small at every bucket width, so a publish may file
        /// it without reading its light range. Each class keeps BFS
        /// discovery order.
        #[test]
        fn small_class_boundary_is_exact(el in arb_class_graph()) {
            let g = build_undirected(&el);
            let n = g.num_vertices() as VertexId;
            let (pg, relabel) = prepare(&g, RdbsConfig::full());
            let (perm, small_from) = relabel.expect("full RDBS runs PRO");
            prop_assert_eq!(small_from as usize, (0..n).filter(|&v| g.degree(v) >= BETA).count());
            let widths = [1, 2, 500, pg.max_weight(), pg.max_weight() + 1, Weight::MAX];
            for v in 0..n {
                if v < small_from {
                    prop_assert!(pg.degree(v) >= BETA, "vertex {} before the boundary", v);
                } else {
                    prop_assert!(pg.degree(v) < BETA, "vertex {} past the boundary", v);
                    for w in widths {
                        let light = pg.light_degree(v, w);
                        prop_assert_eq!(classify(light), WorkloadClass::Small);
                    }
                }
            }
            let mut rank = vec![0; n as usize];
            for (i, v) in reorder::bfs_visit(&g, 0).into_iter().enumerate() {
                rank[v as usize] = i;
            }
            let inv = perm.inverse();
            let class = |v: VertexId| classify(pg.degree(v));
            for v in 1..n {
                let (a, b) = (inv.new_id(v - 1), inv.new_id(v));
                if class(v - 1) == class(v) {
                    prop_assert!(rank[a as usize] < rank[b as usize], "BFS order at {}", v);
                } else {
                    prop_assert!(class(v - 1).index() > class(v).index(), "class order at {}", v);
                }
            }
        }
    }

    /// Classifying the small class by id moves no relaxation: on the
    /// service's own layout, a batch with the recorded boundary and one
    /// with it at `n` (every vertex classified by its light range) give
    /// identical distances, checks, updates, bucket traces and queue
    /// atomics, and the boundary saves global load instructions.
    #[test]
    fn small_class_by_id_moves_no_relaxation() {
        let road = rdbs_graph::datasets::by_name("road-TX").unwrap().generate(10, 7);
        let kron = rdbs_graph::datasets::kronecker_spec(21, 16).generate(12, 7);
        for (name, g) in [("road", road), ("kron", kron)] {
            let n = g.num_vertices() as VertexId;
            let sources: Vec<VertexId> = (0..n).filter(|&v| g.degree(v) > 0).step_by(97).collect();
            let run = |by_id: bool| {
                let mut svc = SsspService::new(&g, ServiceConfig::rdbs(tiny()).with_streams(2));
                let small_from = svc.arrays.small_from;
                if !by_id {
                    svc.arrays.small_from = n;
                }
                let answers = svc.batch(&sources);
                let queue_atomics: u64 = svc
                    .device
                    .buffer_traffic()
                    .into_iter()
                    .filter(|r| {
                        let label = r.0;
                        label.starts_with("workload_")
                            || label.starts_with("queue_")
                            || label == "bucket_members"
                    })
                    .map(|r| r.3)
                    .sum();
                let loads = svc.device.counters().inst_executed_global_loads;
                let traces: Vec<_> = answers.into_iter().map(|a| (a.dist, a.stats)).collect();
                (traces, queue_atomics, loads, small_from)
            };
            let (by_id, by_load) = (run(true), run(false));
            assert_eq!(by_id.0, by_load.0, "{name}: distances, checks, updates, bucket traces");
            assert_eq!(by_id.1, by_load.1, "{name}: queue atomics");
            assert!(by_id.2 < by_load.2, "{name}: loads {} vs {}", by_id.2, by_load.2);
            // Road degrees are all below β; kron has hubs on both sides.
            assert_eq!((by_id.3 > 0, by_id.3 < n), (name == "kron", true), "{name}: {}", by_id.3);
        }
    }

    /// The mechanism of the service's tie order, as a count: the road-TX
    /// stand-in's ids are shuffled, so `pro`'s id ties scatter a mesh's
    /// equal-degree neighbours, and BFS ties put at least 10× as many
    /// edges inside one 8-vertex block (one 32-byte `dist` sector).
    #[test]
    fn bfs_ties_put_road_neighbours_in_one_dist_sector() {
        let g = rdbs_graph::datasets::by_name("road-TX").unwrap().generate(7, 7);
        let in_block = |g: &Csr| {
            let inside = g.all_edges().filter(|&(u, v, _)| u / 8 == v / 8).count();
            inside as f64 / g.num_edges() as f64
        };
        let (one_shot, _) = reorder::pro(&g, default_delta(&g));
        let (resident, _) = prepare(&g, RdbsConfig::full());
        let (ids, bfs) = (in_block(&one_shot), in_block(&resident));
        assert!(in_block(&g) < 0.01, "the stand-in's ids are shuffled");
        assert!(bfs >= 10.0 * ids, "BFS ties {bfs:.4} vs id ties {ids:.4}");
    }

    /// Lane 0's single-layout workload set, for capacity rigs.
    fn lane0_workload(svc: &mut SsspService) -> &mut WorkloadQueues {
        let AnyFrontier::Single(wq) = &mut svc.lanes[0].scratch.frontier else { unreachable!() };
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
        assert_eq!(after_build, 4, "row+adj+wt+light ranges, exactly once");
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
        let lane = &svc.lanes[0];
        svc.device.fill(lane.dist, 0xDEAD_BEEF);
        let s = &lane.scratch;
        for q in s.frontier.device_queues() {
            svc.device.fill(q.data, 0xDEAD_BEEF);
            svc.device.fill(q.tail, 0);
            svc.device.fill(q.overflow, 0);
        }
        svc.device.fill(s.frontier.pending(), 0xDEAD_BEEF);
        svc.device.fill(s.scan_out, 0xDEAD_BEEF);
        if let Some(prefix) = s.prefix.get() {
            svc.device.fill(prefix, 0xDEAD_BEEF);
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
        let mut steps = 0;
        while escalate_queues(&mut svc.pool, &mut svc.device, &mut svc.lanes[0].scratch, n) {
            steps += 1;
            assert!(steps < 16, "the ladder must terminate");
        }
        let AnyFrontier::Single(wq) = &svc.lanes[0].scratch.frontier else { unreachable!() };
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
        assert!(
            escalate_queues(&mut svc.pool, &mut svc.device, &mut svc.lanes[0].scratch, n),
            "a step landing exactly on the ceiling must escalate"
        );
        {
            let AnyFrontier::Single(wq) = &svc.lanes[0].scratch.frontier else { unreachable!() };
            for q in wq.queues() {
                assert_eq!(q.capacity as usize, ceiling, "all four queues in one size class");
            }
        }
        assert!(
            !escalate_queues(&mut svc.pool, &mut svc.device, &mut svc.lanes[0].scratch, n),
            "one past the ceiling must refuse"
        );
        // A mid-class capacity below the ceiling (the old doubling
        // refused here) steps to the ceiling, not past it.
        {
            let AnyFrontier::Single(wq) = &mut svc.lanes[0].scratch.frontier else {
                unreachable!()
            };
            for q in wq.q.iter_mut().chain(std::iter::once(&mut wq.members)) {
                q.capacity = (ceiling - 1) as u32;
            }
        }
        assert!(
            escalate_queues(&mut svc.pool, &mut svc.device, &mut svc.lanes[0].scratch, n),
            "a mid-class capacity below the ceiling may still take its last step"
        );
        let AnyFrontier::Single(wq) = &svc.lanes[0].scratch.frontier else { unreachable!() };
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
        let AnyFrontier::Single(wq) = &svc.lanes[0].scratch.frontier else { unreachable!() };
        assert!(
            wq.q[0].capacity > exact - 1,
            "the ladder must hand back a strictly larger queue set"
        );
    }

    /// Arming the memory-model recorder — no view, the sanitizer, the
    /// IR, or both — changes no number of a 12-source batch on 4
    /// streams: not its distances, device counters, kernel reports or
    /// simulated times. The gpu-sim kernel tests pin the same for a
    /// raw kernel.
    #[test]
    fn arming_the_recorder_changes_no_number() {
        use rdbs_graph::generate::{kronecker, KroneckerConfig};
        let mut el = kronecker(KroneckerConfig::new(8, 8), 7);
        uniform_weights(&mut el, 8);
        let g = build_undirected(&el);
        let sources: Vec<VertexId> = (0..12).map(|i| i * 19 % 256).collect();
        let batch = |(san, ir): (bool, bool)| {
            let mut svc = SsspService::new(&g, ServiceConfig::rdbs(tiny()).with_streams(4));
            if san {
                svc.arm_sanitizer(SanConfig::default());
            }
            if ir {
                svc.arm_ir();
            }
            let dist: Vec<Vec<u32>> = svc.batch(&sources).into_iter().map(|r| r.dist).collect();
            let stats = svc.stats();
            let sim: Vec<u64> = stats.per_query_sim_ms.iter().map(|t| t.to_bits()).collect();
            (
                dist,
                svc.device_counters().cloned(),
                format!("{:?}", svc.kernel_reports()),
                sim,
                stats.sim_batch_ms.to_bits(),
            )
        };
        let bare = batch((false, false));
        for arms in [(true, false), (false, true), (true, true)] {
            assert_eq!(batch(arms), bare, "armed {arms:?}");
        }
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
            let AnyFrontier::Single(wq) = &mut svc.lanes[1].scratch.frontier else {
                unreachable!()
            };
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

        // A single query climbs the same ladder to the host rung — on
        // any stream count. The overflow is not an audit failure.
        let mut svc = SsspService::new(&g, config.with_streams(4));
        check_against_dijkstra(&g, 0, &svc.try_query(0).unwrap().dist).unwrap();
        let stats = svc.stats();
        assert_eq!((stats.queries, stats.fallbacks, stats.audit_failures), (1, 1, 0));
        assert!(stats.per_query_sim_ms.is_empty(), "a host answer has no device service time");
    }

    #[test]
    fn faulted_queries_are_certified_by_the_service_itself() {
        // Dropped atomic-min updates on the pooled shape (a fault-free
        // warm-up, then the faulted query on recycled buffers): the
        // service audits its own answer and climbs the ladder past the
        // device rung — no caller-side recovery wraps it.
        use super::traffic::{AnswerSource, Outcome};
        let g = graph(7);
        let mut climbed = 0;
        for seed in 0..4 {
            let mut svc = SsspService::new(&g, ServiceConfig::rdbs(tiny()));
            svc.query(1);
            svc.arm_faults(FaultSpec::new(rdbs_gpu_sim::FaultModel::DroppedAtomicMin, 0.3, seed));
            let (queries, cfg) = traffic::closed_loop(&[0]);
            let outcome = svc.serve_queries(&queries, &cfg).outcomes.remove(0);
            let Outcome::Exact { result, via, detection, .. } = outcome else {
                panic!("a closed-loop query is answered exactly")
            };
            check_against_dijkstra(&g, 0, &result.dist)
                .unwrap_or_else(|m| panic!("seed {seed}: {m} (via {via}, {detection})"));
            assert_eq!(via > AnswerSource::Device, detection.any(), "seed {seed}: {detection}");
            climbed += usize::from(via > AnswerSource::Device);
            let stats = svc.stats();
            assert_eq!(stats.audit_failures, u64::from(detection.audit_failed()));
        }
        assert!(climbed > 0, "no seed's dropped updates reached the ladder");
    }

    #[test]
    fn the_rerun_rung_runs_on_the_querys_own_lane() {
        // A directed path against CSR order under dropped atomic-min
        // updates: the repair sweep gains one vertex per round, so a
        // path this long defeats it. Capped at one drop, the plan is
        // spent by the rerun on the query's own lane, which certifies;
        // uncapped, the rerun is as corrupt as the attempt and the host
        // rung answers.
        use super::traffic::{AnswerSource, Outcome};
        let n = 200u32;
        let edges = (0..n - 1).map(|i| (i + 1, i, 1)).collect();
        let g = rdbs_graph::builder::build_directed(&EdgeList::from_edges(n as usize, edges));
        let drop = FaultSpec::new(rdbs_gpu_sim::FaultModel::DroppedAtomicMin, 1.0, 0);
        for (spec, rung) in [(drop.with_cap(1), AnswerSource::Rerun), (drop, AnswerSource::Host)] {
            let mut svc = SsspService::new(&g, ServiceConfig::rdbs(tiny()));
            svc.arm_faults(spec);
            let (queries, cfg) = traffic::closed_loop(&[n - 1]);
            let Outcome::Exact { result, via, detection, .. } =
                svc.serve_queries(&queries, &cfg).outcomes.remove(0)
            else {
                panic!("a closed-loop query is answered exactly")
            };
            check_against_dijkstra(&g, n - 1, &result.dist).unwrap();
            assert_eq!(via, rung, "{detection}");
            assert!(detection.audit_failed(), "{detection}");
            let stats = svc.stats();
            assert_eq!(
                (stats.reruns, stats.fallbacks, stats.audit_failures),
                match rung {
                    AnswerSource::Rerun => (1, 0, 1),
                    _ => (0, 1, 1),
                }
            );
        }
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
