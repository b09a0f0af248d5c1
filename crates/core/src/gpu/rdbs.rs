//! RDBS — the paper's bucket-aware asynchronous Δ-stepping (Alg. 2),
//! with every optimization individually toggleable for the Fig. 8
//! ablation study.
//!
//! Per bucket:
//!
//! * **Phase 1** processes light edges of active vertices from the
//!   small/medium/large workload lists. With BASYN it runs inside one
//!   persistent-kernel session — no per-layer launch, no barrier,
//!   updates immediately visible (§4.3); without, every layer is a
//!   fresh kernel launch plus a grid barrier. With ADWL, small
//!   vertices are handled by their parent thread, medium ones by a
//!   32-lane warp gang, large ones by dynamic-parallelism child
//!   kernels with one thread per light edge (§4.2, Fig. 5). A small
//!   list too short to fill the device widens its parent thread into
//!   a gang sized to the list's longest walk (`small_gang`).
//! * **Phases 2 & 3** are fused into one synchronous pass (kernel
//!   fusion, §4.2): relax heavy edges of every vertex settled in the
//!   current bucket, then collect the next bucket's active vertices
//!   into the workload lists — jumping over empty distance windows via
//!   an `atomicMin` reduction.
//! * Between buckets the width Δᵢ is readjusted by Eq. 1–2
//!   ([`crate::adaptive_delta`]), and the heavy-edge offsets are
//!   recomputed on-device when the width changed (§4.1: "the offset of
//!   heavy edges can be changed immediately").
//!
//! The worklists themselves live behind the pluggable [`Frontier`]
//! seam ([`super::frontier`]): the classic single queue set, or the
//! multi-level multi-queue whose full sub-queues *spill*
//! into a deferred level instead of overflowing. A spilling frontier
//! changes two driver invariants: the phase-1/phase-2 staleness check
//! only rejects `dist >= hi` (a deferred activation arrives with a
//! distance below the current window and is re-relaxed idempotently),
//! and a bucket that looks finished re-runs while any deferred level
//! still holds entries.

use super::buffers::{DeviceQueue, GraphBuffers, QueueOverflow};
use super::frontier::{AnyFrontier, Frontier, FrontierKind, FrontierView, ScatterMode};
use crate::adaptive_delta::DeltaController;
use crate::stats::{trace as relax_trace, SsspResult, UpdateStats};
use crate::{default_delta, Csr, Dist, VertexId, Weight, INF};
use rdbs_gpu_sim::{Buf, Device, Lane};
use std::cell::Cell;
use std::rc::Rc;

/// Which of the paper's optimizations are active.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RdbsConfig {
    /// Property-driven reordering: the input graph was preprocessed
    /// with `rdbs_graph::reorder::pro` (weight-sorted rows + heavy
    /// offsets). The kernels then iterate light prefixes branch-free.
    pub pro: bool,
    /// Adaptive load balancing: three workload lists with warp/block
    /// gangs and dynamic parallelism.
    pub adwl: bool,
    /// Bucket-aware asynchronous phase 1 + adaptive Δ.
    pub basyn: bool,
    /// Initial bucket width Δ₀ (`None` → [`default_delta`]).
    pub delta0: Option<Weight>,
    /// Device frontier layout ([`FrontierKind::Single`] reproduces
    /// the original queue set bit-for-bit).
    pub frontier: FrontierKind,
    /// How kernels publish into the frontier queues
    /// ([`ScatterMode::Scalar`] reproduces the per-element atomic
    /// path; the default aggregates per warp).
    pub scatter: ScatterMode,
}

impl RdbsConfig {
    /// The full RDBS: BASYN + PRO + ADWL (the paper's headline).
    pub fn full() -> Self {
        Self {
            pro: true,
            adwl: true,
            basyn: true,
            delta0: None,
            frontier: FrontierKind::Single,
            scatter: ScatterMode::Multisplit,
        }
    }

    /// Fig. 8's `BASYN+PRO` ablation.
    pub fn basyn_pro() -> Self {
        Self {
            pro: true,
            adwl: false,
            basyn: true,
            delta0: None,
            frontier: FrontierKind::Single,
            scatter: ScatterMode::Multisplit,
        }
    }

    /// Fig. 8's `BASYN+ADWL` ablation.
    pub fn basyn_adwl() -> Self {
        Self {
            pro: false,
            adwl: true,
            basyn: true,
            delta0: None,
            frontier: FrontierKind::Single,
            scatter: ScatterMode::Multisplit,
        }
    }

    /// BASYN alone (not plotted in Fig. 8 but useful for ablations).
    pub fn basyn_only() -> Self {
        Self {
            pro: false,
            adwl: false,
            basyn: true,
            delta0: None,
            frontier: FrontierKind::Single,
            scatter: ScatterMode::Multisplit,
        }
    }

    /// Plain synchronous Δ-stepping on GPU (no paper optimization).
    pub fn sync_delta() -> Self {
        Self {
            pro: false,
            adwl: false,
            basyn: false,
            delta0: None,
            frontier: FrontierKind::Single,
            scatter: ScatterMode::Multisplit,
        }
    }

    /// Run on the given frontier layout.
    pub fn with_frontier(mut self, frontier: FrontierKind) -> Self {
        self.frontier = frontier;
        self
    }

    /// Publish into the frontier with the given scatter mode.
    pub fn with_scatter(mut self, scatter: ScatterMode) -> Self {
        self.scatter = scatter;
        self
    }

    /// Human-readable variant label matching the paper's legends,
    /// suffixed with the frontier layout when it is not the default.
    pub fn label(&self) -> String {
        let mut label = if !self.basyn && !self.pro && !self.adwl {
            "SYNC-Δ".to_string()
        } else {
            let mut parts: Vec<&str> = Vec::new();
            if self.basyn {
                parts.push("BASYN");
            }
            if self.pro {
                parts.push("PRO");
            }
            if self.adwl {
                parts.push("ADWL");
            }
            parts.join("+")
        };
        label.push_str(self.frontier.label_suffix());
        label
    }
}

/// Work-counter cells shared between host and kernel closures
/// (instrumentation only — adds no simulated instructions).
#[derive(Default)]
struct Inst {
    checks: Cell<u64>,
    updates: Cell<u64>,
    active: Cell<u64>,
}

/// Per-bucket trace of a GPU run (coarser than the sequential
/// [`crate::seq::delta_stepping::BucketTrace`]).
#[derive(Clone, Debug, Default)]
pub struct GpuBucketTrace {
    /// Low edge of the bucket's distance window.
    pub lo: u64,
    /// Width used for this bucket (also the light/heavy threshold).
    pub width: u32,
    /// Phase-1 scheduling rounds.
    pub layers: u32,
    /// Active (non-stale) vertices processed in phase 1.
    pub active: u64,
    /// Converged vertices (C_i of Eq. 1).
    pub converged: u64,
    /// The paper's lane count T_i of Eq. 1: one lane per small vertex,
    /// a warp per medium one, a lane per light edge (plus the parent)
    /// of a large one. Not the lanes that ran: a short small list runs
    /// wider gangs without changing T_i.
    pub threads: u64,
}

/// A per-bucket monotonicity audit hit: a distance that *increased*,
/// or a settled vertex (below the bucket's window) that changed at
/// all. Correct Δ-stepping can do neither — every write is an
/// `atomicMin` of a candidate ≥ the window floor — so any hit is
/// evidence of device-level corruption.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MonotonicityViolation {
    pub vertex: VertexId,
    /// Low edge of the bucket window after which the hit was observed.
    pub bucket_lo: u64,
    pub before: Dist,
    pub after: Dist,
}

/// Keep the audit list bounded on heavily-faulted runs.
const AUDIT_CAP: usize = 256;

/// Result of an RDBS run plus the per-bucket trace.
pub struct RdbsRun {
    pub result: SsspResult,
    pub buckets: Vec<GpuBucketTrace>,
    /// Per-bucket monotonicity audit hits. Only populated when the
    /// device has a fault plan armed — fault-free runs skip the audit
    /// entirely (no extra reads, bit-identical results).
    pub audit: Vec<MonotonicityViolation>,
}

/// Per-query device scratch for [`rdbs_on`]: the frontier (workload
/// lists, membership, pending marks — whatever the layout needs) and
/// the phase-3 scan cells. Allocated once and recycled across queries
/// of the same graph by the resident service ([`crate::service`]) via
/// [`RdbsScratch::reset`].
pub struct RdbsScratch {
    pub(crate) frontier: AnyFrontier,
    /// `scan_out[0]` = next-bucket active count, `scan_out[1]` = min
    /// unsettled distance beyond the window.
    pub(crate) scan_out: Buf,
}

impl RdbsScratch {
    /// Allocate fresh scratch for an `n`-vertex graph.
    pub fn new(device: &mut Device, n: u32, config: RdbsConfig) -> Self {
        let frontier = AnyFrontier::new(device, n, config.adwl, config.frontier, config.scatter);
        let scan_out = device.alloc("scan_out", 2);
        Self { frontier, scan_out }
    }

    /// Assemble scratch from caller-provided (e.g. pooled) parts.
    pub(crate) fn from_parts(frontier: AnyFrontier, scan_out: Buf) -> Self {
        Self { frontier, scan_out }
    }

    /// Reset for a fresh query: empty non-overflowed queues, cleared
    /// pending marks. Queue *contents* are not zeroed — the cursors
    /// define what is live.
    pub fn reset(&self, device: &mut Device) {
        self.frontier.reset(device);
    }
}

/// Run RDBS (or any ablation) on `device`.
///
/// The one-shot entry point: uploads the graph, allocates fresh
/// scratch and a fresh Δ controller, and delegates to [`rdbs_on`].
///
/// If `config.pro` the graph must already be preprocessed (weight
/// sorted, heavy offsets attached — see `rdbs_graph::reorder::pro`);
/// the distances returned are in the graph's labelling
/// ([`super::run_gpu`] maps them back to original ids).
pub fn rdbs(device: &mut Device, graph: &Csr, source: VertexId, config: RdbsConfig) -> RdbsRun {
    let n = graph.num_vertices() as u32;
    let width0 = config.delta0.unwrap_or_else(|| default_delta(graph));
    // Utilization floor: a bucket that cannot fill a quarter of the
    // device's lanes doubles Δ (§4.3's utilization driver).
    let lanes = device.config().num_sms as u64 * 32 * 2;
    let mut controller = DeltaController::new(width0).with_target_parallelism(lanes);
    let gb = GraphBuffers::upload(device, graph);
    let scratch = RdbsScratch::new(device, n, config);
    match rdbs_on(device, gb, &scratch, graph, source, config, &mut controller) {
        Ok(run) => run,
        // Fault-free runs cannot overflow (capacity-n lists with
        // pending dedup; the MLMQ spills instead); under an armed
        // fault plan the panic is a *detection* the recovery ladder
        // ([`crate::recover`]) catches.
        Err(e) => panic!("{e}"),
    }
}

/// Run RDBS against caller-resident device state: graph arrays +
/// distance buffer (`gb`), recyclable scratch, and a Δ controller
/// whose current width seeds Δ₀ (warm-started across queries by the
/// resident service). Resets `scratch` and the distance vector
/// itself; `Err` on a detected device-queue overflow (the queues'
/// sticky cells are checked every bucket).
#[allow(clippy::too_many_arguments)]
pub fn rdbs_on(
    device: &mut Device,
    gb: GraphBuffers,
    scratch: &RdbsScratch,
    graph: &Csr,
    source: VertexId,
    config: RdbsConfig,
    controller: &mut DeltaController,
) -> Result<RdbsRun, QueueOverflow> {
    let mut driver = RdbsDriver::start(device, gb, scratch, graph, source, config, controller);
    while !driver.step(device, graph, controller)? {}
    Ok(driver.finish(device))
}

/// A resumable RDBS run: the loop of [`rdbs_on`] reified as a state
/// machine so a concurrent scheduler can interleave many queries on
/// one device at bucket granularity. `start` seeds the query,
/// [`RdbsDriver::step`] processes one bucket (phase 1 → fused phases
/// 2&3 → Δ readjust), and [`RdbsDriver::finish`] downloads the result.
/// Driving `start → step* → finish` back-to-back is bit-identical to
/// [`rdbs_on`] — the scheduler only changes *whose* buckets run
/// between a query's own.
pub(crate) struct RdbsDriver {
    gb: GraphBuffers,
    /// The driver's own copy of the scratch frontier (its rotation
    /// cursor advances per bucket; the scratch copy stays at level 0).
    frontier: AnyFrontier,
    scan_out: Buf,
    config: RdbsConfig,
    source: VertexId,
    n: u32,
    lo: u64,
    width: Weight,
    width0: Weight,
    settled_before: u64,
    /// Distance snapshot for the per-bucket monotonicity audit; only
    /// taken when faults are armed, so the fault-free path reads
    /// nothing extra and stays bit-identical.
    audit_prev: Option<Vec<Dist>>,
    inst: Rc<Inst>,
    traces: Vec<GpuBucketTrace>,
    audit: Vec<MonotonicityViolation>,
}

impl RdbsDriver {
    /// Validate, reset the scratch + distance buffer, and seed the
    /// source — everything [`rdbs_on`] does before its bucket loop.
    pub(crate) fn start(
        device: &mut Device,
        gb: GraphBuffers,
        scratch: &RdbsScratch,
        graph: &Csr,
        source: VertexId,
        config: RdbsConfig,
        controller: &mut DeltaController,
    ) -> Self {
        let n = graph.num_vertices() as u32;
        assert!(source < n, "source out of range");
        if config.pro {
            assert!(
                graph.heavy_offsets().is_some(),
                "PRO requires a graph preprocessed with rdbs_graph::reorder::pro"
            );
        }
        let width0 = controller.delta();
        controller.start_run();

        scratch.reset(device);
        gb.reset_dist(device, source);
        let frontier = scratch.frontier;
        let scan_out = scratch.scan_out;

        // Seed the source.
        frontier.seed(device, graph, source);

        let audit_prev: Option<Vec<Dist>> =
            device.faults_armed().then(|| device.read(gb.dist)[..n as usize].to_vec());

        // BASYN: one persistent manager/worker kernel serves phase 1
        // for the whole run — a single host launch (§4.3).
        if config.basyn {
            device.charge_kernel_launch();
        }

        Self {
            gb,
            frontier,
            scan_out,
            config,
            source,
            n,
            lo: 0,
            width: width0,
            width0,
            settled_before: 0,
            audit_prev,
            inst: Rc::new(Inst::default()),
            traces: Vec::new(),
            audit: Vec::new(),
        }
    }

    /// Process one bucket. Returns `Ok(true)` when the run is
    /// complete (call [`RdbsDriver::finish`]), `Ok(false)` when more
    /// buckets remain, `Err` on a detected device-queue overflow (the
    /// queues' sticky cells are checked every bucket).
    pub(crate) fn step(
        &mut self,
        device: &mut Device,
        graph: &Csr,
        controller: &mut DeltaController,
    ) -> Result<bool, QueueOverflow> {
        let (gb, frontier, scan_out, config) = (self.gb, self.frontier, self.scan_out, self.config);
        // A spilling frontier hands phase 1 activations whose
        // distances settled below the window one bucket ago; accept
        // them (re-relaxation is idempotent) instead of calling them
        // stale.
        let accept_below = frontier.can_spill();
        let lo = self.lo;
        let width = self.width;
        let hi = lo + width as u64;
        let inst = &self.inst;
        let mut trace = GpuBucketTrace { lo, width, ..Default::default() };

        // ---------------- Phase 1: light edges ----------------
        let active_before = inst.active.get();
        let mut bucket_members: Vec<VertexId> = Vec::new();
        loop {
            let layer = frontier.drain_layer(device, graph);
            bucket_members.extend(layer.new_members);
            let mut any = false;
            if relax_trace::armed() {
                relax_trace::set_context(lo, relax_trace::Phase::Light, trace.layers);
            }
            for (c, items) in layer.lists.iter().enumerate() {
                if items.is_empty() {
                    continue;
                }
                any = true;
                trace.threads += phase1_wave_threads(graph, c, items, width, config.pro);
                let gang = phase1_gang(graph, c, items, width, config, device.config().num_sms);
                run_phase1_list(
                    device,
                    config.basyn,
                    c,
                    gang,
                    items,
                    gb,
                    frontier.relax_view(),
                    lo,
                    hi,
                    width,
                    accept_below,
                    inst,
                );
            }
            if !any {
                break;
            }
            trace.layers += 1;
            if !config.basyn {
                device.charge_barrier(); // synchronous iteration barrier
            }
        }
        trace.active = inst.active.get() - active_before;

        // C_i: vertices settled by this bucket (host instrumentation).
        let settled_now = device.read(gb.dist)[..self.n as usize]
            .iter()
            .filter(|&&d| (d as u64) < hi && d != INF)
            .count() as u64;
        trace.converged = settled_now.saturating_sub(self.settled_before);
        self.settled_before = settled_now;

        // Readjust Δ (Update_Delta_Epsilon of Alg. 2).
        let new_width = if config.basyn {
            controller.finish_bucket(trace.converged, trace.threads.max(1))
        } else {
            self.width0
        };

        // ---------------- Phases 2 & 3: fused sync kernel ----------------
        // One launch per bucket (kernel fusion, §4.2); its internal
        // sub-phases are waves separated by a grid barrier.
        device.charge_kernel_launch();
        // Dedup re-activations: the membership *set* is what phase 2
        // relaxes (a vertex improved twice in phase 1 is one member).
        bucket_members.sort_unstable();
        bucket_members.dedup();
        if relax_trace::armed() {
            relax_trace::set_context(lo, relax_trace::Phase::Heavy, 0);
        }
        heavy_relax_wave(
            device,
            gb,
            frontier.membership_backing(),
            &bucket_members,
            graph,
            lo,
            hi,
            width,
            config.pro,
            accept_below,
            config.scatter,
            inst,
        );
        device.charge_barrier();

        let mut next_lo = hi;
        let mut next_hi = next_lo + new_width as u64;
        let mut done = false;
        loop {
            device.write_word(scan_out, 0, 0);
            device.write_word(scan_out, 1, INF);
            collect_wave(device, gb, frontier.collect_view(), scan_out, next_lo, next_hi, inst);
            let active = device.read_word(scan_out, 0);
            let min_beyond = device.read_word(scan_out, 1);
            if active > 0 {
                break;
            }
            if min_beyond == INF {
                done = true;
                break;
            }
            // Jump the empty distance window.
            next_lo = min_beyond as u64;
            next_hi = next_lo + new_width as u64;
        }
        // A spilling frontier may still hold deferred entries even
        // though the distance scan looks converged: run another
        // bucket so they drain (their relaxations are idempotent;
        // convergence re-checks afterwards).
        if done && frontier.has_deferred(device) {
            done = false;
        }
        // Re-split light/heavy for the adjusted Δ (§4.1: the offset
        // "can be changed immediately"). Settled vertices are skipped —
        // their edge ranges are never consulted again.
        if config.pro && new_width != width && !done {
            // Sub-phase grid barrier of the fused kernel: phase 3's
            // enqueue-side classification reads the heavy offsets this
            // wave is about to overwrite.
            device.charge_barrier();
            update_heavy_offsets_wave(device, gb, new_width, next_lo);
        }
        if config.basyn && !done {
            // The fused kernel retires with a grid barrier before the
            // persistent kernel's next-bucket waves are released: the
            // paper drops the barrier between phase-1 *layers* (§4.3),
            // not between buckets — phase 3's collected worklists and
            // the re-split heavy offsets must be visible to phase 1.
            device.charge_barrier();
        }
        if let Some(prev) = self.audit_prev.as_mut() {
            audit_bucket(device, gb, prev, lo, &mut self.audit);
        }
        // Surface any queue overflow this bucket produced (the sticky
        // cells survive the drains above) before trusting its output.
        frontier.check(device)?;
        self.traces.push(trace);
        if !done {
            self.lo = next_lo;
            self.width = new_width;
            // Rotate: the level/slot phase 3 collected into becomes
            // the next bucket's active one.
            self.frontier.advance();
        }
        Ok(done)
    }

    /// Assemble the run stats and download the distances.
    pub(crate) fn finish(self, device: &mut Device) -> RdbsRun {
        let mut stats = UpdateStats {
            checks: self.inst.checks.get(),
            total_updates: self.inst.updates.get(),
            ..Default::default()
        };
        stats.phase1_layers = self.traces.iter().map(|t| t.layers).collect();
        stats.bucket_active = self.traces.iter().map(|t| t.active).collect();
        // The result download synchronizes the device, retiring the
        // persistent kernel — without this, a resident service's next
        // query would share a race window with this run's final waves.
        device.charge_barrier();
        let dist = self.gb.download_dist(device);
        RdbsRun {
            result: SsspResult { source: self.source, dist, stats },
            buckets: self.traces,
            audit: self.audit,
        }
    }
}

/// Compare the live distances with the previous bucket's snapshot:
/// distances must never increase, and vertices settled below the
/// current window must not change at all. O(V) host-side, run only
/// between buckets of a fault-armed device.
fn audit_bucket(
    device: &Device,
    gb: GraphBuffers,
    prev: &mut [Dist],
    bucket_lo: u64,
    audit: &mut Vec<MonotonicityViolation>,
) {
    let cur = device.read(gb.dist);
    for (v, (&after, before)) in cur.iter().zip(prev.iter_mut()).enumerate() {
        let increased = after > *before;
        let settled_moved = (*before as u64) < bucket_lo && after != *before;
        if (increased || settled_moved) && audit.len() < AUDIT_CAP {
            audit.push(MonotonicityViolation {
                vertex: v as VertexId,
                bucket_lo,
                before: *before,
                after,
            });
        }
        *before = after;
    }
}

/// Edges a phase-1 lane walks for `v`: its light prefix under PRO,
/// its whole row (weight-checked per edge) without.
fn phase1_walk(graph: &Csr, v: VertexId, width: Weight, pro: bool) -> u32 {
    if pro {
        graph.light_degree(v, width)
    } else {
        graph.degree(v)
    }
}

/// Lanes a phase-1 wave is charged for: the paper's T_i of Eq. 1, one
/// lane per small vertex whatever gang the wave actually runs with.
fn phase1_wave_threads(
    graph: &Csr,
    class: usize,
    items: &[VertexId],
    width: Weight,
    pro: bool,
) -> u64 {
    match class {
        0 => items.len() as u64,
        1 => items.len() as u64 * 32,
        _ => items.iter().map(|&v| 1 + phase1_walk(graph, v, width, pro) as u64).sum(),
    }
}

/// Lanes per vertex of a phase-1 wave: a warp per medium vertex, one
/// parent thread per large vertex (it spawns children), and for the
/// small list the work-sized gang of [`small_gang`], picked by the
/// manager from the drained list and the resident CSR.
fn phase1_gang(
    graph: &Csr,
    class: usize,
    items: &[VertexId],
    width: Weight,
    config: RdbsConfig,
    num_sms: u32,
) -> u32 {
    match class {
        0 => {
            let longest =
                items.iter().map(|&v| phase1_walk(graph, v, width, config.pro)).max().unwrap_or(0);
            small_gang(items.len(), longest, config.adwl, num_sms)
        }
        1 => 32,
        _ => 1,
    }
}

/// Gang size for a small-list wave under ADWL (DESIGN "Modeling
/// decisions" item 10): the smallest power of two covering the
/// longest walk, capped at a warp, then halved until the wave fits one
/// warp per SM. Without ADWL every vertex keeps its single lane.
fn small_gang(items: usize, longest_walk: u32, adwl: bool, num_sms: u32) -> u32 {
    if !adwl {
        return 1;
    }
    let budget = 32 * num_sms as u64;
    let mut gang = longest_walk.min(32).next_power_of_two();
    while gang > 1 && items as u64 * gang as u64 > budget {
        gang /= 2;
    }
    gang
}

#[allow(clippy::too_many_arguments)]
fn run_phase1_list(
    device: &mut Device,
    basyn: bool,
    class: usize,
    gang: u32,
    items: &[VertexId],
    gb: GraphBuffers,
    view: FrontierView,
    lo: u64,
    hi: u64,
    width: Weight,
    accept_below: bool,
    inst: &Rc<Inst>,
) {
    let large = class == 2;
    let inst_outer = Rc::clone(inst);
    let body = move |lane: &mut Lane<'_>| {
        let i = lane.tid() as usize;
        let rank = lane.gang_rank();
        let stride = lane.gang_size();
        // Fetch the work item (charged against the queue buffer).
        view.charge_slot(lane, class, i as u32);
        let v = items[i];
        // EVERY lane of the gang test-and-clears the pending mark
        // before its own dist read — not just rank 0. The dequeue
        // handshake is only sound if clearing the mark happens before
        // any lane of this activation samples `dist[v]`: an improver
        // that lands between a sibling's (stale) read and a
        // rank-0-only clear would see pending == 1, skip its re-push,
        // and the improvement would never reach that sibling's edges
        // (schedule fuzzing found exactly this lost update — rank 0
        // runs first only in ascending lane order). The load-gated
        // exchange keeps the canonical atomic count at one exchange
        // per activation: whichever lane runs first clears, the rest
        // see 0 and skip.
        view.clear_pending(lane, v);
        // Volatile: this read races with another lane's atomicMin +
        // pending handshake; a snapshot read there would lose the
        // update (the improver saw pending == 1 and skipped the
        // re-enqueue).
        let dv = lane.ld_volatile(gb.dist, v);
        lane.alu(2);
        let dvu = dv as u64;
        if dvu >= hi || (!accept_below && dvu < lo) {
            return; // stale activation (deferred spills are accepted)
        }
        if rank == 0 {
            inst_outer.active.set(inst_outer.active.get() + 1);
        }
        let start = lane.ld(gb.row, v);
        let light_end = match gb.heavy {
            Some(h) => lane.ld(h, v),
            None => lane.ld(gb.row, v + 1),
        };
        if large {
            // Dynamic parallelism: one thread per light edge.
            let count = light_end.saturating_sub(start) as u64;
            if count == 0 {
                return;
            }
            let inst_child = Rc::clone(&inst_outer);
            let check_light = gb.heavy.is_none();
            lane.launch_child("phase1_child", count, move |cl| {
                let e = start + cl.tid() as u32;
                relax_light_edge(cl, gb, view, v, e, dv, hi, width, check_light, &inst_child);
            });
            return;
        }
        let check_light = gb.heavy.is_none();
        let mut e = start + rank;
        while e < light_end {
            relax_light_edge(lane, gb, view, v, e, dv, hi, width, check_light, &inst_outer);
            e += stride;
        }
    };
    let name = match class {
        0 => "phase1_small",
        1 => "phase1_medium",
        _ => "phase1_large",
    };
    if basyn {
        // Work dispatched inside the persistent phase-1 kernel.
        device.wave(name, items.len() as u64, gang, body);
    } else {
        // Synchronous mode: a fresh launch per layer and list.
        device.launch_gangs(name, items.len() as u64, gang, body);
    }
}

/// Relax one light-candidate edge `e` from a vertex at distance `dv`
/// (Alg. 1). When `check_light` (no PRO), the weight branch is taken
/// per edge — the divergence the paper's reordering removes.
#[allow(clippy::too_many_arguments)]
#[inline]
fn relax_light_edge(
    lane: &mut Lane<'_>,
    gb: GraphBuffers,
    view: FrontierView,
    src: VertexId,
    e: u32,
    dv: u32,
    hi: u64,
    width: Weight,
    check_light: bool,
    inst: &Inst,
) {
    // Multisplit compiles the relax loops warp-synchronously: the
    // aggregated enqueue ballots under `__activemask`, which pins a
    // reconvergence point at every iteration — so the relaxation's
    // atomics issue aligned across the warp instead of fragmenting
    // into per-lane instructions after earlier divergence. The scalar
    // baseline keeps the original divergent loop.
    if view.scatter() == ScatterMode::Multisplit {
        lane.converge();
    }
    let w = lane.ld(gb.wt, e);
    if check_light {
        lane.alu(1); // the light/heavy conditional branch
        if w >= width {
            return;
        }
    }
    let v2 = lane.ld(gb.adj, e);
    lane.alu(1);
    let nd = dv.saturating_add(w);
    inst.checks.set(inst.checks.get() + 1);
    // Volatile pre-check: concurrent lanes atomicMin this word; the
    // filter must see their progress or it re-attempts settled work.
    let dv2 = lane.ld_volatile(gb.dist, v2);
    if nd < dv2 {
        let old = lane.atomic_min(gb.dist, v2, nd);
        if nd < old {
            if relax_trace::armed() {
                relax_trace::record(src, v2, old, nd);
            }
            inst.updates.set(inst.updates.get() + 1);
            if (nd as u64) < hi {
                view.enqueue(lane, gb, v2);
            }
        }
    }
}

/// Phase 2: relax heavy edges of every vertex settled in the current
/// bucket, warp-cooperatively over the membership worklist the
/// enqueues accumulated (the paper's static balancing: "we coarsely
/// assign the same number of heavy edges to guarantee load
/// balancing"). The list may contain duplicates from within-bucket
/// re-activations and stale entries whose distance left the window —
/// both are filtered by the distance check, and heavy relaxation is
/// idempotent anyway.
#[allow(clippy::too_many_arguments)]
fn heavy_relax_wave(
    device: &mut Device,
    gb: GraphBuffers,
    members: DeviceQueue,
    items: &[VertexId],
    graph: &Csr,
    lo: u64,
    hi: u64,
    width: Weight,
    pro: bool,
    accept_below: bool,
    scatter: ScatterMode,
    inst: &Rc<Inst>,
) {
    if items.is_empty() {
        return;
    }
    // Static balancing (§4.2): pick the cooperative width from the
    // average work per vertex — a warp per vertex only pays off when
    // vertices carry warp-sized edge lists; sparse buckets use one
    // thread per vertex.
    let total_deg: u64 = items.iter().map(|&v| graph.degree(v) as u64).sum();
    let gang = if total_deg / items.len() as u64 >= 32 { 32 } else { 1 };
    let inst = Rc::clone(inst);
    let cap = members.capacity;
    // Republish the deduplicated membership list so the wave reads
    // live worklist slots — the per-layer drains above reset the tail,
    // and the compacted list can be longer than any single layer's
    // high-water mark (reading those slots would be uninitialized).
    for (i, &v) in items.iter().enumerate() {
        device.write_word(members.data, i % cap as usize, v);
    }
    device.wave("phase2_heavy", items.len() as u64, gang, move |lane| {
        let i = lane.tid() as usize;
        let rank = lane.gang_rank();
        let stride = lane.gang_size();
        let _ = members.read_slot(lane, i as u32 % cap);
        let v = items[i];
        // Volatile: in BASYN mode no barrier separates this fused
        // kernel from the persistent phase-1 waves still in flight.
        let dv = lane.ld_volatile(gb.dist, v);
        lane.alu(1);
        let dvu = dv as u64;
        if dvu >= hi || (!accept_below && dvu < lo) {
            return; // stale membership entry
        }
        let end = lane.ld(gb.row, v + 1);
        let hstart = match gb.heavy {
            Some(h) => lane.ld(h, v),
            None => lane.ld(gb.row, v),
        };
        let mut e = hstart + rank;
        while e < end {
            // Warp-synchronous discipline in multisplit mode: see
            // `relax_light_edge` — realigns the heavy-relax atomics.
            if scatter == ScatterMode::Multisplit {
                lane.converge();
            }
            let w = lane.ld(gb.wt, e);
            if !pro {
                lane.alu(1);
                if w < width {
                    e += stride;
                    continue; // light edge: phase 1 handled it
                }
            }
            let v2 = lane.ld(gb.adj, e);
            lane.alu(1);
            let nd = dv.saturating_add(w);
            inst.checks.set(inst.checks.get() + 1);
            let dv2 = lane.ld_volatile(gb.dist, v2);
            if nd < dv2 {
                let old = lane.atomic_min(gb.dist, v2, nd);
                if nd < old {
                    if relax_trace::armed() {
                        relax_trace::record(v, v2, old, nd);
                    }
                    inst.updates.set(inst.updates.get() + 1);
                }
            }
            e += stride;
        }
    });
}

/// Phase 3: collect the next bucket's active vertices into the
/// frontier; track the minimum unsettled distance beyond the window
/// so empty windows can be skipped.
fn collect_wave(
    device: &mut Device,
    gb: GraphBuffers,
    view: FrontierView,
    scan_out: Buf,
    next_lo: u64,
    next_hi: u64,
    inst: &Rc<Inst>,
) {
    let n = gb.n;
    let _ = inst;
    let multisplit = view.scatter() == ScatterMode::Multisplit;
    device.wave("phase3_collect", n as u64, 1, move |lane| {
        let v = lane.tid() as u32;
        let dv = lane.ld(gb.dist, v);
        lane.alu(2);
        if dv == INF {
            return;
        }
        let dvu = dv as u64;
        if dvu < next_lo {
            return; // settled
        }
        if dvu < next_hi {
            // The collected count and min-beyond scans discard their
            // results, so the multisplit build warp-reduces them into
            // one leader atomic each; and each lane owns its vertex,
            // so the enqueue dedup needs no exchange (`_distinct`).
            if multisplit {
                lane.gang_add(scan_out, 0, 1);
                view.enqueue_distinct(lane, gb, v);
            } else {
                lane.atomic_add(scan_out, 0, 1);
                view.enqueue(lane, gb, v);
            }
        } else if multisplit {
            lane.gang_min(scan_out, 1, dv);
        } else {
            lane.atomic_min(scan_out, 1, dv);
        }
    });
}

/// Recompute heavy offsets on-device for a new Δ (binary search over
/// the weight-sorted row — §4.1's "changed immediately"). Vertices
/// already settled (`dist < settled_below`, reached) are skipped:
/// their edge ranges are never consulted again.
fn update_heavy_offsets_wave(
    device: &mut Device,
    gb: GraphBuffers,
    new_width: Weight,
    settled_below: u64,
) {
    let heavy = gb.heavy.expect("PRO graphs carry heavy offsets");
    device.wave("update_heavy_offsets", gb.n as u64, 1, move |lane| {
        let v = lane.tid() as u32;
        let dv = lane.ld(gb.dist, v);
        lane.alu(1);
        if dv != INF && (dv as u64) < settled_below {
            return;
        }
        let mut lo = lane.ld(gb.row, v);
        let mut hi = lane.ld(gb.row, v + 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let w = lane.ld(gb.wt, mid);
            lane.alu(2);
            if w < new_width {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lane.st(heavy, v, lo);
    });
}

/// Recompute every vertex's heavy offset for `width` — the resident
/// service's query-reset path. A finished query leaves per-vertex
/// offsets split at whatever width each vertex last saw before it
/// settled; a fresh query must start from a uniform split matching
/// its Δ₀, recomputed on-device with no H2D re-upload.
pub(crate) fn refresh_heavy_offsets(device: &mut Device, gb: GraphBuffers, width: Weight) {
    update_heavy_offsets_wave(device, gb, width, 0);
    // The next query's kernels are only launched after this wave
    // retires (stream order + the query's own launch): order the
    // refreshed offsets before their readers.
    device.charge_barrier();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::dijkstra;
    use crate::validate::check_against;
    use rdbs_gpu_sim::DeviceConfig;
    use rdbs_graph::builder::{build_undirected, EdgeList};
    use rdbs_graph::generate::{erdos_renyi, preferential_attachment, uniform_weights};
    use rdbs_graph::reorder;

    fn random_graph(seed: u64, n: usize, m: usize) -> Csr {
        let mut el = erdos_renyi(n, m, seed);
        uniform_weights(&mut el, seed + 1);
        build_undirected(&el)
    }

    fn run_config(g: &Csr, cfg: RdbsConfig) -> (RdbsRun, Device) {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let run = if cfg.pro {
            let delta0 = cfg.delta0.unwrap_or_else(|| default_delta(g));
            let (pg, perm) = reorder::pro(g, delta0);
            let src = perm.new_id(0);
            let mut run = rdbs(&mut d, &pg, src, cfg);
            run.result.dist = perm.unapply_to_array(&run.result.dist);
            run.result.source = 0;
            run
        } else {
            rdbs(&mut d, g, 0, cfg)
        };
        (run, d)
    }

    #[test]
    fn all_variants_match_dijkstra() {
        for seed in 0..3 {
            let g = random_graph(seed, 80, 400);
            let oracle = dijkstra(&g, 0);
            for cfg in [
                RdbsConfig::full(),
                RdbsConfig::basyn_pro(),
                RdbsConfig::basyn_adwl(),
                RdbsConfig::basyn_only(),
                RdbsConfig::sync_delta(),
            ] {
                let (run, _) = run_config(&g, cfg);
                check_against(&oracle.dist, &run.result.dist)
                    .unwrap_or_else(|m| panic!("seed {seed} {}: {m}", cfg.label()));
            }
        }
    }

    #[test]
    fn all_frontiers_match_dijkstra_on_every_ablation() {
        for seed in 0..2 {
            let g = random_graph(seed + 20, 80, 400);
            let oracle = dijkstra(&g, 0);
            for base in [RdbsConfig::full(), RdbsConfig::basyn_only(), RdbsConfig::sync_delta()] {
                for kind in FrontierKind::ALL {
                    let cfg = base.with_frontier(kind);
                    let (run, _) = run_config(&g, cfg);
                    check_against(&oracle.dist, &run.result.dist)
                        .unwrap_or_else(|m| panic!("seed {seed} {}: {m}", cfg.label()));
                }
            }
        }
    }

    #[test]
    fn single_frontier_is_bit_identical_to_the_pre_seam_layout() {
        // The refactor contract: running with the explicit Single
        // frontier is the *same computation* — same distances, same
        // instruction counts — as the layout the seam replaced.
        let g = random_graph(31, 100, 500);
        let (a, da) = run_config(&g, RdbsConfig::full());
        let (b, db) = run_config(&g, RdbsConfig::full().with_frontier(FrontierKind::Single));
        assert_eq!(a.result.dist, b.result.dist);
        assert_eq!(da.counters().inst_executed, db.counters().inst_executed);
        assert_eq!(
            da.counters().inst_executed_global_atomics,
            db.counters().inst_executed_global_atomics
        );
    }

    #[test]
    fn mlmq_spreads_publish_atomics() {
        // The headline claim at device level: on a frontier-heavy
        // graph the MLMQ publish path executes fewer global-memory
        // atomic instructions than the double-push single layout and
        // serializes less on shared tail counters. A per-element
        // claim, so it is graded on the scalar publish path — the
        // warp-aggregated scatter collapses both layouts' tail bumps
        // to one leader atomic per (warp × bucket) and mostly
        // equalizes them (the multisplit bench grades that regime).
        let g = random_graph(40, 400, 3200);
        let base = RdbsConfig::basyn_only().with_scatter(ScatterMode::Scalar);
        let (run_s, d_s) = run_config(&g, base);
        let (run_m, d_m) = run_config(&g, base.with_frontier(FrontierKind::Mlmq));
        assert_eq!(run_s.result.dist, run_m.result.dist);
        let a_s = d_s.counters().inst_executed_global_atomics;
        let a_m = d_m.counters().inst_executed_global_atomics;
        assert!(a_m < a_s, "mlmq atomics {a_m} vs single {a_s}");
    }

    #[test]
    fn mlmq_drains_deferred_spills_to_completion() {
        // Rig a one-shot scratch whose active level is tiny: phase-1
        // publish storms must spill to the deferred level, and the
        // driver's has_deferred guard must keep stepping until every
        // spilled entry is drained — correct distances, no overflow.
        let g = random_graph(41, 120, 700);
        let oracle = dijkstra(&g, 0);
        let mut d = Device::new(DeviceConfig::test_tiny());
        let cfg = RdbsConfig::basyn_only().with_frontier(FrontierKind::Mlmq);
        let n = g.num_vertices() as u32;
        let width0 = default_delta(&g);
        let lanes = d.config().num_sms as u64 * 32 * 2;
        let mut controller = DeltaController::new(width0).with_target_parallelism(lanes);
        let gb = GraphBuffers::upload(&mut d, &g);
        let mut scratch = RdbsScratch::new(&mut d, n, cfg);
        let AnyFrontier::Mlmq(m) = &mut scratch.frontier else { unreachable!() };
        // Starve one active-level lane: every push hashed onto it
        // beyond two entries must take the spill path into the (fully
        // provisioned) deferred level.
        m.levels[0][0].capacity = 2;
        let run = rdbs_on(&mut d, gb, &scratch, &g, 0, cfg, &mut controller)
            .expect("spills are not overflow");
        check_against(&oracle.dist, &run.result.dist).unwrap();
    }

    #[test]
    fn powerlaw_graph_uses_gangs() {
        // A hub-heavy graph must exercise the medium (warp-gang) path.
        let mut el = preferential_attachment(600, 5, 3);
        uniform_weights(&mut el, 4);
        let g = build_undirected(&el);
        let oracle = dijkstra(&g, 0);
        let (run, d) = run_config(&g, RdbsConfig::full());
        check_against(&oracle.dist, &run.result.dist).unwrap();
        assert!(d.counters().warps > 0);
    }

    #[test]
    fn hub_vertex_takes_dynamic_parallelism_path() {
        // A star whose hub has > α = 256 light edges must be classified
        // Large and processed via a child kernel.
        let mut edges: Vec<(u32, u32, u32)> = (1..400u32).map(|v| (0, v, 0)).collect();
        edges.push((1, 399, 0)); // keep some non-hub structure
        let mut el = EdgeList::from_edges(400, edges);
        uniform_weights(&mut el, 6);
        let g = build_undirected(&el);
        let oracle = dijkstra(&g, 1);
        // Δ larger than any weight → all 399 hub edges are light.
        let cfg = RdbsConfig { delta0: Some(5000), ..RdbsConfig::full() };
        let mut d = Device::new(DeviceConfig::test_tiny());
        let (pg, perm) = reorder::pro(&g, 5000);
        let mut run = rdbs(&mut d, &pg, perm.new_id(1), cfg);
        run.result.dist = perm.unapply_to_array(&run.result.dist);
        check_against(&oracle.dist, &run.result.dist).unwrap();
        assert!(
            d.counters().child_kernel_launches > 0,
            "expected dynamic parallelism on the hub vertex"
        );
    }

    #[test]
    fn small_gang_covers_the_longest_walk_within_one_warp_per_sm() {
        // test_tiny has 2 SMs: a 64-lane budget per wave.
        let sms = DeviceConfig::test_tiny().num_sms;
        assert_eq!(small_gang(16, 3, true, sms), 4, "exactly 64 lanes");
        assert_eq!(small_gang(17, 3, true, sms), 2);
        assert_eq!(small_gang(65, 3, true, sms), 1);
        for items in [1, 16, 65, 1000] {
            assert_eq!(small_gang(items, 0, true, sms), 1);
            assert_eq!(small_gang(items, 1, true, sms), 1);
        }
        assert_eq!(small_gang(2, 31, true, sms), 32);
        for (items, walk) in [(1, 0), (2, 31), (16, 3), (65, 3), (1000, 1000)] {
            assert_eq!(small_gang(items, walk, false, sms), 1, "no gangs without ADWL");
        }
    }

    #[test]
    fn small_list_gangs_shorten_road_waves_and_change_nothing_else() {
        // The Table 2 road-crossover graph and device of the shape
        // tests, from original vertex 0. Every road vertex is small, so
        // full() and basyn_pro() differ only in the small list's gang
        // width: same answers, buckets, T_i and relaxations, but more
        // lanes and less simulated time.
        let g = rdbs_graph::datasets::by_name("road-TX").unwrap().generate(9, 42);
        let (pg, perm) = reorder::pro(&g, default_delta(&g));
        let run = |cfg: RdbsConfig| {
            let mut d = Device::new(
                DeviceConfig::v100().with_overhead_scale(1.0 / 128.0).with_cache_scale(1.0 / 128.0),
            );
            let run = rdbs(&mut d, &pg, perm.new_id(0), cfg);
            let small_lanes: u64 =
                d.reports().iter().filter(|r| r.name == "phase1_small").map(|r| r.threads).sum();
            (run, small_lanes, d.elapsed_ms())
        };
        let (full, full_lanes, full_ms) = run(RdbsConfig::full());
        let (pro, pro_lanes, pro_ms) = run(RdbsConfig::basyn_pro());
        assert_eq!(full.result.dist, pro.result.dist);
        let key = |t: &GpuBucketTrace| (t.lo, t.width, t.layers, t.active, t.converged, t.threads);
        assert_eq!(
            full.buckets.iter().map(key).collect::<Vec<_>>(),
            pro.buckets.iter().map(key).collect::<Vec<_>>()
        );
        assert_eq!(full.result.stats.checks, pro.result.stats.checks);
        assert_eq!(full.result.stats.total_updates, pro.result.stats.total_updates);
        assert!(full_lanes > pro_lanes, "phase1_small lanes: full {full_lanes} vs pro {pro_lanes}");
        assert!(full_ms < pro_ms, "full {full_ms} ms vs pro {pro_ms} ms");
    }

    #[test]
    fn basyn_avoids_per_layer_launches() {
        // Force one big multi-layer bucket (Δ beyond every weight) so
        // the per-layer launch/barrier cost of synchronous mode shows.
        let g = random_graph(5, 120, 700);
        let cfg_async = RdbsConfig { delta0: Some(100_000), ..RdbsConfig::basyn_only() };
        let cfg_sync = RdbsConfig { delta0: Some(100_000), ..RdbsConfig::sync_delta() };
        let (_, d_async) = run_config(&g, cfg_async);
        let (_, d_sync) = run_config(&g, cfg_sync);
        assert!(
            d_async.counters().kernel_launches < d_sync.counters().kernel_launches,
            "async {} vs sync {}",
            d_async.counters().kernel_launches,
            d_sync.counters().kernel_launches
        );
        assert!(d_async.counters().barriers < d_sync.counters().barriers);
    }

    #[test]
    fn pro_reduces_load_instructions() {
        // Branch-free light prefixes must execute fewer warp-level
        // instructions than per-edge weight checks.
        let g = random_graph(8, 150, 1200);
        let (_, d_pro) = run_config(&g, RdbsConfig::basyn_pro());
        let (_, d_raw) = run_config(&g, RdbsConfig::basyn_only());
        let i_pro = d_pro.counters().inst_executed;
        let i_raw = d_raw.counters().inst_executed;
        assert!(i_pro < i_raw, "pro {i_pro} vs raw {i_raw}");
    }

    #[test]
    fn trace_is_consistent() {
        let g = random_graph(11, 100, 500);
        let (run, _) = run_config(&g, RdbsConfig::full());
        assert!(!run.buckets.is_empty());
        // Every processed bucket lies at increasing lo.
        for w in run.buckets.windows(2) {
            assert!(w[0].lo < w[1].lo);
        }
        // Stats mirror the trace.
        assert_eq!(run.result.stats.bucket_active.len(), run.buckets.len());
        let reached = run.result.reached() as u64;
        let converged: u64 = run.buckets.iter().map(|t| t.converged).sum();
        assert_eq!(converged, reached);
    }

    #[test]
    fn disconnected_component_terminates() {
        let el = EdgeList::from_edges(5, vec![(0, 1, 3), (2, 3, 4)]);
        let g = build_undirected(&el);
        let (run, _) = run_config(&g, RdbsConfig::full());
        assert_eq!(run.result.dist[0], 0);
        assert_eq!(run.result.dist[1], 3);
        assert_eq!(run.result.dist[2], INF);
        assert_eq!(run.result.dist[4], INF);
    }

    #[test]
    fn empty_window_jumping() {
        // A path with weight-1000 edges and Δ₀ = 100 creates many
        // empty windows; the min-reduction must jump them.
        let el = EdgeList::from_edges(4, (0..3).map(|i| (i, i + 1, 1000)).collect());
        let g = build_undirected(&el);
        let mut d = Device::new(DeviceConfig::test_tiny());
        let cfg = RdbsConfig { delta0: Some(100), ..RdbsConfig::basyn_only() };
        let run = rdbs(&mut d, &g, 0, cfg);
        assert_eq!(run.result.dist, vec![0, 1000, 2000, 3000]);
        // Without jumping this would take 30 windows; with it, ~4.
        assert!(run.buckets.len() <= 6, "buckets {}", run.buckets.len());
    }

    #[test]
    fn labels() {
        assert_eq!(RdbsConfig::full().label(), "BASYN+PRO+ADWL");
        assert_eq!(RdbsConfig::basyn_pro().label(), "BASYN+PRO");
        assert_eq!(RdbsConfig::basyn_adwl().label(), "BASYN+ADWL");
        assert_eq!(RdbsConfig::sync_delta().label(), "SYNC-Δ");
        assert_eq!(
            RdbsConfig::full().with_frontier(FrontierKind::Mlmq).label(),
            "BASYN+PRO+ADWL+MLMQ"
        );
    }
}
