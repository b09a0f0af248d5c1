//! RDBS — the paper's bucket-aware asynchronous Δ-stepping (Alg. 2),
//! with every optimization individually toggleable for the Fig. 8
//! ablation study.
//!
//! Per bucket:
//!
//! * **Phase 1** processes light edges of active vertices from the
//!   small/medium/large workload lists, one wave per layer that serves
//!   all three lists (`phase1_layer`). With BASYN the wave runs inside
//!   one persistent-kernel session — no per-layer launch, no barrier,
//!   updates immediately visible (§4.3); without, every layer is a
//!   fresh kernel launch plus a grid barrier. With ADWL, small
//!   vertices are handled by their parent thread, medium ones by a
//!   32-lane warp gang, large ones by dynamic-parallelism child
//!   kernels with one thread per light edge (§4.2, Fig. 5). A small
//!   list too short to fill the device widens its parent thread into
//!   a gang sized to the list's longest walk (`small_gang`).
//! * **Phases 2 & 3** are fused into one synchronous pass (kernel
//!   fusion, §4.2): relax heavy edges of every vertex settled in the
//!   current bucket — under ADWL spread evenly over warps by heavy
//!   edge, not by vertex (`heavy_relax_balanced`) — then collect the
//!   next bucket's active vertices into the workload lists, jumping
//!   over empty distance windows via an `atomicMin` reduction. A bucket
//!   wider than the graph's heaviest edge has no heavy edge: it skips
//!   phase 2 and records no membership for it.
//! * Between buckets the width Δᵢ is readjusted by Eq. 1–2
//!   ([`crate::adaptive_delta`]), and the heavy-edge offsets, stored
//!   beside their row offsets as each vertex's light range
//!   ([`GraphBuffers::light_range`]), are recomputed on-device when the
//!   width changed (§4.1: "the offset of heavy edges can be changed
//!   immediately").
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
use crate::workload::WorkloadClass;
use crate::{default_delta, Csr, Dist, VertexId, Weight, INF};
use rdbs_gpu_sim::{Buf, Device, Lane, Segment, WARP_SIZE};
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
/// lists, membership, pending marks — whatever the layout needs), the
/// phase-3 scan cells and phase 2's heavy-edge offsets. Allocated once
/// and recycled across queries of the same graph by the resident
/// service ([`crate::service`]) via [`RdbsScratch::reset`].
pub struct RdbsScratch {
    pub(crate) frontier: AnyFrontier,
    /// `scan_out[0]` = next-bucket active count, `scan_out[1]` = min
    /// unsettled distance beyond the window.
    pub(crate) scan_out: Buf,
    /// Phase 2's heavy-edge start offsets under ADWL, `n + 1` words
    /// (see [`heavy_relax_balanced`]). Allocated by the first bucket
    /// that has a heavy edge, so a run that never has one (every road
    /// bucket) allocates nothing and shifts no other buffer's address.
    /// Shared with the run's driver, which makes that allocation; the
    /// owner releases it with the rest of the scratch.
    pub(crate) prefix: Rc<Cell<Option<Buf>>>,
}

impl RdbsScratch {
    /// Allocate fresh scratch for an `n`-vertex graph.
    pub fn new(device: &mut Device, n: u32, config: RdbsConfig) -> Self {
        let frontier = AnyFrontier::new(device, n, config.adwl, config.frontier, config.scatter);
        let scan_out = device.alloc("scan_out", 2);
        Self::from_parts(frontier, scan_out)
    }

    /// Assemble scratch from caller-provided (e.g. pooled) parts.
    pub(crate) fn from_parts(frontier: AnyFrontier, scan_out: Buf) -> Self {
        Self { frontier, scan_out, prefix: Rc::default() }
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
/// sorted, heavy offsets attached — see `rdbs_graph::reorder::pro`) at
/// a Δ that files every edge as the run's Δ₀ does: the first bucket
/// reads the uploaded split, and a Δ change between two widths that
/// leave no edge heavy re-splits nothing. The distances returned are in
/// the graph's labelling ([`super::run_gpu`] maps them back to original
/// ids).
///
/// # Panics
/// Panics if the graph's PRO split files an edge differently from Δ₀.
pub fn rdbs(device: &mut Device, graph: &Csr, source: VertexId, config: RdbsConfig) -> RdbsRun {
    let n = graph.num_vertices() as u32;
    let width0 = config.delta0.unwrap_or_else(|| default_delta(graph));
    if let (true, Some(split)) = (config.pro, graph.heavy_delta()) {
        let (lo, hi) = (split.min(width0), split.max(width0));
        assert!(
            graph.weights().iter().all(|&w| w < lo || w >= hi),
            "graph split light/heavy at Δ {split}, but the run starts at Δ₀ {width0}"
        );
    }
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
    prefix: Rc<Cell<Option<Buf>>>,
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
            prefix: Rc::clone(&scratch.prefix),
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
        self.step_with(device, graph, controller, phase1_layer)
    }

    /// [`RdbsDriver::step`] with each phase-1 layer laid out as waves
    /// by `layout`.
    fn step_with(
        &mut self,
        device: &mut Device,
        graph: &Csr,
        controller: &mut DeltaController,
        layout: Phase1Layout,
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

        // A bucket wider than the heaviest edge has no heavy edge: its
        // phase 2 would relax nothing, so it neither runs nor needs the
        // bucket's membership. A spilling frontier keeps phase 2: under
        // PRO a deferred vertex arrives with the light/heavy split of
        // the last width its offsets were updated at (the update skips
        // vertices settled below the window), so its heavy range may
        // hold edges phase 1 did not walk.
        let heavy = accept_below || gb.has_heavy(width);

        // ---------------- Phase 1: light edges ----------------
        let active_before = inst.active.get();
        let mut bucket_members: Vec<VertexId> = Vec::new();
        loop {
            let layer = frontier.drain_layer(device, graph);
            bucket_members.extend(layer.new_members);
            if relax_trace::armed() {
                relax_trace::set_context(lo, relax_trace::Phase::Light, trace.layers);
            }
            if layer.lists.iter().all(Vec::is_empty) {
                break;
            }
            for (c, items) in layer.lists.iter().enumerate() {
                trace.threads += phase1_wave_threads(graph, c, items, width, config.pro);
            }
            let num_sms = device.config().num_sms;
            for wave in layout(graph, &layer.lists, width, config, num_sms) {
                run_phase1_wave(
                    device,
                    config.basyn,
                    &wave,
                    gb,
                    frontier.relax_view(heavy),
                    lo,
                    hi,
                    width,
                    accept_below,
                    inst,
                );
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
        // Phase 3 collects the next bucket, whose phase 2 reads the
        // membership only if its width leaves an edge heavy.
        let collect = frontier.collect_view(gb.has_heavy(new_width));
        if heavy {
            // Dedup re-activations: the membership *set* is what phase 2
            // relaxes (a vertex improved twice in phase 1 is one member).
            bucket_members.sort_unstable();
            bucket_members.dedup();
            if relax_trace::armed() {
                relax_trace::set_context(lo, relax_trace::Phase::Heavy, 0);
            }
            let pass = HeavyPass {
                gb,
                members: frontier.membership_backing(),
                items: &bucket_members,
                lo,
                hi,
                width,
                pro: config.pro,
                accept_below,
                scatter: config.scatter,
                defer: collect,
            };
            if config.adwl {
                heavy_relax_balanced(device, &pass, &self.prefix, inst);
            } else {
                heavy_relax_per_member(device, &pass, graph, inst);
            }
        }
        device.charge_barrier();

        let mut next_lo = hi;
        let mut next_hi = next_lo + new_width as u64;
        let mut done = false;
        loop {
            device.write_word(scan_out, 0, 0);
            device.write_word(scan_out, 1, INF);
            collect_wave(device, gb, collect, scan_out, next_lo, next_hi, inst);
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
        // their edge ranges are never consulted again. Between two
        // widths that leave no edge heavy (every road bucket) the wave
        // would rewrite each unsettled pair with the whole row it
        // already reads, so it does not run.
        let moves_pairs = gb.has_heavy(width) || gb.has_heavy(new_width);
        #[cfg(test)]
        let moves_pairs = moves_pairs || FORCE_RESPLIT.with(Cell::get);
        if config.pro && new_width != width && !done && moves_pairs {
            // Sub-phase grid barrier of the fused kernel: phase 3's
            // enqueue-side classification reads the heavy offsets this
            // wave is about to overwrite.
            device.charge_barrier();
            update_heavy_offsets_wave(device, gb, new_width, next_lo, false);
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

/// Lanes per vertex of a phase-1 list: a warp per medium vertex, one
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
        1 => WARP_SIZE,
        _ => 1,
    }
}

/// Gang size for the small list under ADWL (DESIGN "Modeling
/// decisions" item 10): the smallest power of two covering the
/// longest walk, capped at a warp, then halved until the list fits one
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

/// One vertex of a phase-1 wave: its list and its slot there (the lane
/// charges the fetch against that slot).
#[derive(Clone, Copy)]
struct Phase1Item {
    v: VertexId,
    class: u8,
    slot: u32,
}

/// A phase-1 wave as the manager lays it out: its vertices in lane
/// order and the gang segments that cover them.
struct Phase1Wave {
    segments: Vec<Segment>,
    items: Vec<Phase1Item>,
}

/// How a bucket's phase 1 lays out each layer's drained lists as waves.
type Phase1Layout =
    fn(&Csr, &[Vec<VertexId>; WorkloadClass::COUNT], Weight, RdbsConfig, u32) -> Vec<Phase1Wave>;

/// One phase-1 layer as one wave (DESIGN "Modeling decisions" item
/// 10): the drained lists in order, each one segment of its
/// [`phase1_gang`]. The persistent kernel's workers serve the three
/// lists with no barrier between them (§4.2–4.3).
fn phase1_layer(
    graph: &Csr,
    lists: &[Vec<VertexId>; WorkloadClass::COUNT],
    width: Weight,
    config: RdbsConfig,
    num_sms: u32,
) -> Vec<Phase1Wave> {
    let mut wave = Phase1Wave { segments: Vec::new(), items: Vec::new() };
    for (class, list) in lists.iter().enumerate().filter(|(_, l)| !l.is_empty()) {
        let gang = phase1_gang(graph, class, list, width, config, num_sms);
        wave.segments.push(Segment { items: list.len() as u64, gang });
        wave.items.extend(list.iter().enumerate().map(|(slot, &v)| Phase1Item {
            v,
            class: class as u8,
            slot: slot as u32,
        }));
    }
    vec![wave]
}

/// Run one phase-1 wave, `phase1_layer`: a wave of the persistent
/// kernel under BASYN, a kernel launch without.
#[allow(clippy::too_many_arguments)]
fn run_phase1_wave(
    device: &mut Device,
    basyn: bool,
    wave: &Phase1Wave,
    gb: GraphBuffers,
    view: FrontierView,
    lo: u64,
    hi: u64,
    width: Weight,
    accept_below: bool,
    inst: &Rc<Inst>,
) {
    let items = &wave.items;
    let inst_outer = Rc::clone(inst);
    let body = move |lane: &mut Lane<'_>| {
        let item = items[lane.tid() as usize];
        let rank = lane.gang_rank();
        let stride = lane.gang_size();
        // Fetch the work item (charged against the queue buffer).
        view.charge_slot(lane, item.class as usize, item.slot);
        let v = item.v;
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
        let (start, light_end) = gb.light_range(lane, v);
        let check_light = gb.light_ranges.is_none();
        if item.class as usize == WorkloadClass::Large.index() {
            // Dynamic parallelism: one thread per light edge.
            let count = light_end.saturating_sub(start) as u64;
            if count == 0 {
                return;
            }
            let inst_child = Rc::clone(&inst_outer);
            lane.launch_child("phase1_child", count, move |cl| {
                let e = start + cl.tid() as u32;
                relax_light_edge(cl, gb, view, v, e, dv, hi, width, check_light, &inst_child);
            });
            return;
        }
        let mut e = start + rank;
        while e < light_end {
            relax_light_edge(lane, gb, view, v, e, dv, hi, width, check_light, &inst_outer);
            e += stride;
        }
    };
    if basyn {
        // Work dispatched inside the persistent phase-1 kernel.
        device.wave_segments("phase1_layer", &wave.segments, body);
    } else {
        // Synchronous mode: a fresh launch per layer.
        device.launch_segments("phase1_layer", &wave.segments, body);
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

/// Warps per SM the balanced phase 2 spreads a bucket's heavy edges
/// over (DESIGN "Modeling decisions" item 9): enough that every SM's
/// cycle sum is a few short warps, few enough that each warp's binary
/// search and member entries stay a small share of its walk.
const HEAVY_WARPS_PER_SM: u64 = 4;

/// ALU instructions each member's lane spends in phase 2's device scan:
/// a five-step warp shuffle scan (shuffle and add per step) plus the add
/// of the warp's carry-in.
const SCAN_ALU: u32 = 12;

/// One bucket's phase 2: the deduplicated members, their window and
/// the kernels' build flags.
struct HeavyPass<'a> {
    gb: GraphBuffers,
    members: DeviceQueue,
    items: &'a [VertexId],
    lo: u64,
    hi: u64,
    width: Weight,
    pro: bool,
    accept_below: bool,
    scatter: ScatterMode,
    /// Where a vertex lowered below `hi` goes: the next bucket's
    /// frontier (see [`HeavyPass::relax`]).
    defer: FrontierView,
}

impl HeavyPass<'_> {
    /// Republish the deduplicated membership list so the waves read
    /// live worklist slots — the per-layer drains reset the tail, and
    /// the compacted list can be longer than any single layer's
    /// high-water mark (reading those slots would be uninitialized).
    fn publish(&self, device: &mut Device) {
        let cap = self.members.capacity as usize;
        for (i, &v) in self.items.iter().enumerate() {
            device.write_word(self.members.data, i % cap, v);
        }
    }

    /// Member `i`'s prologue: its slot, its volatile distance and the
    /// stale filter, then its heavy range. Returns `(dv, hstart, end)`,
    /// or `None` for a stale entry.
    #[inline]
    fn prologue(&self, lane: &mut Lane<'_>, i: usize) -> Option<(Dist, u32, u32)> {
        let gb = self.gb;
        let _ = self.members.read_slot(lane, i as u32 % self.members.capacity);
        let v = self.items[i];
        // Volatile: in BASYN mode no barrier separates this fused
        // kernel from the persistent phase-1 waves still in flight.
        let dv = lane.ld_volatile(gb.dist, v);
        lane.alu(1);
        let dvu = dv as u64;
        if dvu >= self.hi || (!self.accept_below && dvu < self.lo) {
            return None; // stale membership entry
        }
        // Two loads: `(heavy[v], row[v + 1])` straddles two pairs.
        let end = lane.ld(gb.row, v + 1);
        let hstart = gb.heavy_start(lane, v);
        Some((dv, hstart, end))
    }

    /// Relax edge `e` of member `v` at distance `dv` if it is heavy
    /// (without PRO the row is unsorted and each edge's weight is
    /// checked; phase 1 handled the light ones).
    #[inline]
    fn relax(&self, lane: &mut Lane<'_>, v: VertexId, dv: Dist, e: u32, inst: &Inst) {
        let gb = self.gb;
        // Warp-synchronous discipline in multisplit mode: see
        // `relax_light_edge` — realigns the heavy-relax atomics.
        if self.scatter == ScatterMode::Multisplit {
            lane.converge();
        }
        let w = lane.ld(gb.wt, e);
        if !self.pro {
            lane.alu(1);
            if w < self.width {
                return; // light edge: phase 1 handled it
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
                // Only a below-window member (an accepted spill) can
                // land `v2` below `hi`, where phase 3, which collects
                // from `hi` up, would never reach it: defer `v2` to the
                // next bucket, whose phase 1 accepts it below its
                // window (a heavy edge of an in-window member lands at
                // `hi` or above).
                if self.accept_below && (nd as u64) < self.hi {
                    self.defer.enqueue(lane, gb, v2);
                }
            }
        }
    }
}

/// Phase 2 without ADWL: relax heavy edges of every vertex settled in
/// the current bucket with one lane per member, or one warp per member
/// when the average degree reaches a warp. A lane walks its member's
/// whole heavy range, so a wave costs as much as its longest range.
/// The list may contain stale entries whose distance left the window —
/// filtered by the distance check; heavy relaxation is idempotent.
fn heavy_relax_per_member(device: &mut Device, pass: &HeavyPass<'_>, graph: &Csr, inst: &Inst) {
    let items = pass.items;
    if items.is_empty() {
        return;
    }
    let total_deg: u64 = items.iter().map(|&v| graph.degree(v) as u64).sum();
    let gang = if total_deg / items.len() as u64 >= 32 { 32 } else { 1 };
    pass.publish(device);
    device.wave("phase2_heavy", items.len() as u64, gang, |lane| {
        let i = lane.tid() as usize;
        let Some((dv, hstart, end)) = pass.prologue(lane, i) else { return };
        let mut e = hstart + lane.gang_rank();
        while e < end {
            pass.relax(lane, items[i], dv, e, inst);
            e += lane.gang_size();
        }
    });
}

/// Phase 2 under ADWL, the paper's static balancing (§4.2: "coarsely
/// assign the same number of heavy edges"), as three sub-phases of the
/// fused kernel, all reported as `phase2_heavy`:
///
/// 1. **count** — one lane per member runs the per-member prologue and
///    keeps its heavy-edge count in a register; it stores nothing;
/// 2. **scan** — the members' lanes exclusive-scan the counts into
///    `prefix[0..=m]` (start offsets, then the total H), charged as a
///    warp shuffle scan plus one coalesced store each; skipped with the
///    relax sub-phase when H = 0, so such a bucket costs exactly the
///    member-per-lane wave;
/// 3. **relax** — after a grid barrier, up to min(⌈H/32⌉, 4·SMs) warps
///    take equal contiguous blocks of the H heavy edges, each a whole
///    number of warp steps. Lane k of a warp walks
///    its block's edges k, k+32, …: it binary-searches the prefix for
///    its first edge's member once, steps to later members along the
///    prefix, and reads each member's slot, distance and heavy start
///    when it enters it.
///
/// The relaxed (member, heavy edge) pairs are those of the
/// member-per-lane mapping, so `checks` and the resulting distances are
/// the same whenever phase 2 moves no member's distance or staleness,
/// which holds unless below-window spills are accepted.
fn heavy_relax_balanced(
    device: &mut Device,
    pass: &HeavyPass<'_>,
    prefix: &Cell<Option<Buf>>,
    inst: &Inst,
) {
    let items = pass.items;
    let m = items.len();
    if m == 0 {
        return;
    }
    pass.publish(device);
    // The count lanes' registers.
    let counts = vec![Cell::new(0u32); m];
    device.wave("phase2_heavy", m as u64, 1, |lane| {
        let i = lane.tid() as usize;
        if let Some((_, hstart, end)) = pass.prologue(lane, i) {
            counts[i].set(end.saturating_sub(hstart));
        }
    });
    // The scan's result, computed from the count lanes' registers. A
    // device scan wraps like this one if faulted counts overflow it.
    let mut offsets = Vec::with_capacity(m + 1);
    let mut total = 0u32;
    for c in &counts {
        offsets.push(total);
        total = total.wrapping_add(c.get());
    }
    offsets.push(total);
    if total == 0 {
        return;
    }
    let buf = prefix.get().unwrap_or_else(|| {
        let buf = device.alloc_pooled("phase2_prefix", pass.gb.n as usize + 1).0;
        prefix.set(Some(buf));
        buf
    });
    device.wave("phase2_heavy", m as u64 + 1, 1, |lane| {
        let i = lane.tid() as u32;
        lane.alu(SCAN_ALU);
        lane.st(buf, i, offsets[i as usize]);
    });
    // The relax sub-phase reads offsets other lanes stored.
    device.charge_barrier();

    let h = total as u64;
    let warp = 32u64;
    let warps = h.div_ceil(warp).min(HEAVY_WARPS_PER_SM * device.config().num_sms as u64);
    let block = h.div_ceil(warp * warps) * warp;
    let gb = pass.gb;
    // Member `j`'s slot, volatile distance and heavy start.
    let enter = |lane: &mut Lane<'_>, j: usize| {
        let _ = pass.members.read_slot(lane, j as u32 % pass.members.capacity);
        let v = items[j];
        let dv = lane.ld_volatile(gb.dist, v);
        (v, dv, gb.heavy_start(lane, v))
    };
    device.wave("phase2_heavy", h.div_ceil(block), warp as u32, |lane| {
        let h = lane.ld(buf, m as u32) as u64;
        lane.alu(2);
        let first = lane.tid() * block + lane.gang_rank() as u64;
        let last = ((lane.tid() + 1) * block).min(h);
        if first >= last {
            return;
        }
        // Invariant: prefix[a] <= first < prefix[b].
        let (mut a, mut b) = (0usize, m);
        let (mut start, mut end) = (0u32, h as u32);
        while b - a > 1 {
            let mid = (a + b) / 2;
            let p = lane.ld(buf, mid as u32);
            lane.alu(2);
            if p as u64 <= first {
                (a, start) = (mid, p);
            } else {
                (b, end) = (mid, p);
            }
        }
        let mut j = a;
        let (mut v, mut dv, mut hstart) = enter(lane, j);
        let mut idx = first;
        loop {
            let e = hstart.wrapping_add((idx as u32).wrapping_sub(start));
            pass.relax(lane, v, dv, e, inst);
            idx += warp;
            if idx >= last {
                return;
            }
            if idx >= end as u64 {
                while idx >= end as u64 {
                    j += 1;
                    if j >= m {
                        return; // only a faulted prefix ends here
                    }
                    start = end;
                    end = lane.ld(buf, j as u32 + 1);
                    lane.alu(1);
                }
                (v, dv, hstart) = enter(lane, j);
            }
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

#[cfg(test)]
thread_local! {
    /// Test seam: run every Δ re-split, even one that moves no pair.
    static FORCE_RESPLIT: Cell<bool> = const { Cell::new(false) };
}

/// Recompute heavy offsets on-device for a new Δ (binary search over
/// the weight-sorted row — §4.1's "changed immediately") into the
/// light-range pairs; with `rows`, store each pair's row word too.
/// Vertices already settled (`dist < settled_below`, reached) are
/// skipped: their edge ranges are never consulted again.
fn update_heavy_offsets_wave(
    device: &mut Device,
    gb: GraphBuffers,
    new_width: Weight,
    settled_below: u64,
    rows: bool,
) {
    device.wave("update_heavy_offsets", gb.n as u64, 1, move |lane| {
        let v = lane.tid() as u32;
        let dv = lane.ld(gb.dist, v);
        lane.alu(1);
        if dv != INF && (dv as u64) < settled_below {
            return;
        }
        let start = lane.ld(gb.row, v);
        let mut lo = start;
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
        gb.store_light_range(lane, v, rows.then_some(start), lo);
    });
}

/// Recompute every vertex's light-range pair for `width` — the
/// resident service's query-reset path. A finished query leaves
/// per-vertex offsets split at whatever width each vertex last saw
/// before it settled; a fresh query must start from a uniform split
/// matching its Δ₀, recomputed on-device with no H2D re-upload. The
/// row words are stored too: a service lane's pooled buffer holds
/// stale words until its first refresh, and no run writes them.
pub(crate) fn refresh_heavy_offsets(device: &mut Device, gb: GraphBuffers, width: Weight) {
    update_heavy_offsets_wave(device, gb, width, 0, true);
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
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
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

    /// Run `cfg` from original vertex 0 on the tiny device with each
    /// phase-1 layer laid out by `layout`, for an MLMQ variant the
    /// active level's sub-queues capped at `caps`, and PRO's light
    /// ranges read by the two-load reference when `two_loads`. Returns
    /// the run, its distances in the original labelling, and the
    /// device.
    fn run_from_0(
        g: &Csr,
        cfg: RdbsConfig,
        layout: Phase1Layout,
        caps: Option<[u32; 4]>,
        two_loads: bool,
    ) -> Result<(RdbsRun, Device), QueueOverflow> {
        let width0 = cfg.delta0.unwrap_or_else(|| default_delta(g));
        let (graph, perm) = match cfg.pro {
            true => {
                let (pg, perm) = reorder::pro(g, width0);
                (pg, Some(perm))
            }
            false => (g.clone(), None),
        };
        let mut d = Device::new(DeviceConfig::test_tiny());
        let lanes = d.config().num_sms as u64 * 32 * 2;
        let mut controller = DeltaController::new(width0).with_target_parallelism(lanes);
        let gb = GraphBuffers { two_loads, ..GraphBuffers::upload(&mut d, &graph) };
        let mut scratch = RdbsScratch::new(&mut d, graph.num_vertices() as u32, cfg);
        if let (AnyFrontier::Mlmq(m), Some(caps)) = (&mut scratch.frontier, caps) {
            for (lane, cap) in m.levels[0].iter_mut().zip(caps) {
                lane.capacity = cap;
            }
        }
        let source = perm.as_ref().map_or(0, |p| p.new_id(0));
        let mut driver =
            RdbsDriver::start(&mut d, gb, &scratch, &graph, source, cfg, &mut controller);
        while !driver.step_with(&mut d, &graph, &mut controller, layout)? {}
        let mut run = driver.finish(&mut d);
        if let Some(p) = perm {
            run.result.dist = p.unapply_to_array(&run.result.dist);
        }
        Ok((run, d))
    }

    #[test]
    fn mlmq_with_starved_active_lanes_matches_dijkstra() {
        // Every active-level lane capped at 1–3 entries: publish storms
        // spill into the deferred level, so phase 2 relaxes the heavy
        // edges of members that arrive below their bucket's window,
        // and those can land a vertex below the window too. Each such
        // vertex must still have its edges relaxed at the new distance.
        let mut rng = ChaCha8Rng::seed_from_u64(0x0922);
        let (mut ok, mut wrong) = (0, Vec::new());
        for seed in 0..60u64 {
            let n = rng.gen_range(60..220usize);
            let g = random_graph(seed + 500, n, rng.gen_range(2 * n..6 * n));
            let delta0 = rng.gen_range(50..500);
            let caps = std::array::from_fn(|_| rng.gen_range(1..=3));
            let oracle = dijkstra(&g, 0);
            for base in [RdbsConfig::basyn_only(), RdbsConfig::basyn_pro(), RdbsConfig::full()] {
                let cfg =
                    RdbsConfig { delta0: Some(delta0), ..base }.with_frontier(FrontierKind::Mlmq);
                // A spill level that overflows too is reported, not wrong.
                if let Ok((run, _)) = run_from_0(&g, cfg, phase1_layer, Some(caps), false) {
                    ok += 1;
                    if check_against(&oracle.dist, &run.result.dist).is_err() {
                        wrong.push((seed, cfg.label()));
                    }
                }
            }
        }
        assert!(wrong.is_empty(), "{} of {ok} runs wrong: {wrong:?}", wrong.len());
        assert!(ok >= 150, "only {ok} of 180 runs completed");
    }

    /// The five variants the paper's ablation and its baseline run.
    fn variants() -> [RdbsConfig; 5] {
        [
            RdbsConfig::full(),
            RdbsConfig::basyn_pro(),
            RdbsConfig::basyn_adwl(),
            RdbsConfig::basyn_only(),
            RdbsConfig::sync_delta(),
        ]
    }

    #[test]
    fn deltas_around_the_heaviest_edge_match_dijkstra() {
        // Δ₀ just below, at, just above and far above the heaviest edge:
        // buckets that have heavy edges, buckets that have none (which
        // skip phase 2 and the membership pushes), and runs whose
        // controller widens Δ past the heaviest edge between the two.
        let (mut with_heavy, mut without, mut widened) = (0, 0, 0);
        for seed in 0..2 {
            let g = random_graph(seed + 60, 90, 360);
            let oracle = dijkstra(&g, 0);
            let max_w = g.max_weight();
            for delta0 in [max_w - 1, max_w, max_w + 1, 4 * max_w] {
                for base in variants() {
                    for kind in FrontierKind::ALL {
                        let cfg = RdbsConfig { delta0: Some(delta0), ..base }.with_frontier(kind);
                        let (run, _) =
                            run_from_0(&g, cfg, phase1_layer, None, false).expect("no overflow");
                        check_against(&oracle.dist, &run.result.dist)
                            .unwrap_or_else(|m| panic!("Δ₀ {delta0} {}: {m}", cfg.label()));
                        let heavy: Vec<bool> =
                            run.buckets.iter().map(|t| t.width <= max_w).collect();
                        with_heavy += heavy.iter().filter(|&&h| h).count();
                        without += heavy.iter().filter(|&&h| !h).count();
                        widened += usize::from(heavy.windows(2).any(|p| p[0] && !p[1]));
                    }
                }
            }
        }
        assert!(
            with_heavy > 0 && without > 0 && widened > 0,
            "{with_heavy} buckets with heavy edges, {without} without, {widened} runs widened"
        );
    }

    #[test]
    fn road_buckets_wider_than_every_edge_skip_membership_and_phase_2() {
        // Δ₀ = 4·max_w on the road strip (DESIGN item 6): no bucket has a
        // heavy edge, so no publish touches the membership queue and no
        // phase-2 wave runs, on either publish path.
        let g = rdbs_graph::datasets::by_name("road-TX").unwrap().generate(10, 42);
        let (pg, perm) = reorder::pro(&g, default_delta(&g));
        let oracle = dijkstra(&g, 0);
        for scatter in ScatterMode::ALL {
            let mut d = Device::new(DeviceConfig::test_tiny());
            let cfg = RdbsConfig::full().with_scatter(scatter);
            let mut run = rdbs(&mut d, &pg, perm.new_id(0), cfg);
            run.result.dist = perm.unapply_to_array(&run.result.dist);
            check_against(&oracle.dist, &run.result.dist).unwrap();
            assert!(run.buckets.iter().all(|t| t.width > g.max_weight()), "{scatter}");
            let members: Vec<_> =
                d.buffer_traffic().into_iter().filter(|r| r.0 == "bucket_members").collect();
            assert_eq!(members, [("bucket_members", 0, 0, 0)], "{scatter}");
            assert!(d.reports().iter().all(|r| r.name != "phase2_heavy"), "{scatter}");
            assert!(d.reports().iter().any(|r| r.name == "phase3_collect"));
        }
    }

    #[test]
    fn resplits_that_move_no_pair_are_skipped() {
        // Every road width leaves no edge heavy, so a Δ change rewrites
        // each unsettled pair with the whole row it already reads: the
        // forced wave and the skip give the same answers, relaxations
        // and bucket traces, and the skipping run (one-shot or resident)
        // issues no re-split beyond the service's query-start refresh.
        let g = rdbs_graph::datasets::by_name("road-TX").unwrap().generate(10, 42);
        let (pg, perm) = reorder::pro(&g, default_delta(&g));
        let run = |force: bool| {
            FORCE_RESPLIT.with(|f| f.set(force));
            let mut d = Device::new(DeviceConfig::test_tiny());
            let run = rdbs(&mut d, &pg, perm.new_id(0), RdbsConfig::full());
            FORCE_RESPLIT.with(|f| f.set(false));
            let resplits = d.reports().iter().filter(|r| r.name == "update_heavy_offsets").count();
            (run, resplits)
        };
        let ((forced, forced_resplits), (skipped, skipped_resplits)) = (run(true), run(false));
        assert_eq!(forced.result.dist, skipped.result.dist);
        assert_eq!(forced.result.stats, skipped.result.stats);
        let key = |t: &GpuBucketTrace| (t.lo, t.width, t.layers, t.active, t.converged, t.threads);
        assert_eq!(
            forced.buckets.iter().map(key).collect::<Vec<_>>(),
            skipped.buckets.iter().map(key).collect::<Vec<_>>()
        );
        assert!(forced_resplits > 0, "the road run changes Δ");
        assert_eq!(skipped_resplits, 0);

        // The resident service refreshes each lane's pairs at a
        // query's start, except on the lane's first query (the upload
        // split them at Δ₀), and re-splits nothing after.
        let sources = [0, 500, 900];
        let serve = |force: bool| {
            FORCE_RESPLIT.with(|f| f.set(force));
            let config = crate::service::ServiceConfig::rdbs(DeviceConfig::test_tiny());
            let mut svc = crate::service::SsspService::new(&g, config.with_streams(1));
            let answers: Vec<_> =
                svc.batch(&sources).into_iter().map(|a| (a.dist, a.stats)).collect();
            FORCE_RESPLIT.with(|f| f.set(false));
            let reports = svc.kernel_reports().unwrap();
            (answers, reports.iter().filter(|r| r.name == "update_heavy_offsets").count())
        };
        let ((forced, forced_resplits), (skipped, skipped_resplits)) = (serve(true), serve(false));
        assert_eq!(forced, skipped);
        for (answer, &s) in skipped.iter().zip(&sources) {
            check_against(&dijkstra(&g, s).dist, &answer.0).unwrap();
        }
        assert!(forced_resplits > sources.len());
        assert_eq!(skipped_resplits, sources.len() - 1);
    }

    #[test]
    #[should_panic(expected = "split light/heavy at Δ 100, but the run starts at Δ₀ 4000")]
    fn a_split_unlike_the_runs_delta0_is_refused() {
        // Run at Δ₀ = 4000 on road-TX pairs split at 100, the one bucket
        // would relax only the edges below 100 (1,500 of 1,512 distances
        // came out wrong).
        let g = rdbs_graph::datasets::by_name("road-TX").unwrap().generate(10, 42);
        let (pg, perm) = reorder::pro(&g, 100);
        let cfg = RdbsConfig { delta0: Some(4000), ..RdbsConfig::full() };
        rdbs(&mut Device::new(DeviceConfig::test_tiny()), &pg, perm.new_id(0), cfg);
    }

    #[test]
    fn light_range_pairs_relax_like_the_two_load_reference() {
        // One 8-byte load of PRO's (row[v], heavy[v]) pair in place of the
        // two loads it replaces: every variant on both frontiers relaxes
        // the same edges in the same order, so distances, checks, updates
        // and bucket traces are identical, and PRO variants issue fewer
        // global-load warp instructions (the others never read a pair).
        let road = rdbs_graph::datasets::by_name("road-TX").unwrap().generate(10, 42);
        let mut el = preferential_attachment(500, 5, 7);
        for k in 1..320 {
            el.push(0, k, 0); // a hub past α light edges: a large vertex
        }
        uniform_weights(&mut el, 8);
        let powerlaw = build_undirected(&el);
        let graphs = [road, powerlaw, random_graph(70, 120, 700), random_graph(71, 200, 500)];
        for (i, g) in graphs.iter().enumerate() {
            for base in variants() {
                for kind in FrontierKind::ALL {
                    let cfg = base.with_frontier(kind);
                    let label = format!("graph {i} {}", cfg.label());
                    let (one, d1) = run_from_0(g, cfg, phase1_layer, None, false).expect("fits");
                    let (two, d2) = run_from_0(g, cfg, phase1_layer, None, true).expect("fits");
                    assert_eq!(one.result.dist, two.result.dist, "{label}");
                    let stats = |r: &RdbsRun| (r.result.stats.checks, r.result.stats.total_updates);
                    assert_eq!(stats(&one), stats(&two), "{label}");
                    let key = |t: &GpuBucketTrace| {
                        (t.lo, t.width, t.layers, t.active, t.converged, t.threads)
                    };
                    assert_eq!(
                        one.buckets.iter().map(key).collect::<Vec<_>>(),
                        two.buckets.iter().map(key).collect::<Vec<_>>(),
                        "{label}"
                    );
                    check_against(&dijkstra(g, 0).dist, &one.result.dist).unwrap();
                    let loads = |d: &Device| d.counters().inst_executed_global_loads;
                    if cfg.pro {
                        assert!(
                            loads(&d1) < loads(&d2),
                            "{label}: {} vs {}",
                            loads(&d1),
                            loads(&d2)
                        );
                    } else {
                        assert_eq!(loads(&d1), loads(&d2), "{label}");
                    }
                }
            }
        }
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

    thread_local! {
        /// Vertices per list the per-list layout saw.
        static LISTED: Cell<[u64; 3]> = const { Cell::new([0; 3]) };
    }

    /// [`phase1_layer`]'s segments as one wave each: the three per-list
    /// waves phase 1 ran before the fused wave.
    fn list_waves(
        graph: &Csr,
        lists: &[Vec<VertexId>; WorkloadClass::COUNT],
        width: Weight,
        config: RdbsConfig,
        num_sms: u32,
    ) -> Vec<Phase1Wave> {
        let fused = phase1_layer(graph, lists, width, config, num_sms).remove(0);
        let mut items = fused.items.into_iter();
        let waves = fused.segments.into_iter().map(|seg| Phase1Wave {
            segments: vec![seg],
            items: items.by_ref().take(seg.items as usize).collect(),
        });
        let waves: Vec<Phase1Wave> = waves.collect();
        LISTED.with(|c| {
            let mut seen = c.get();
            for w in &waves {
                seen[w.items[0].class as usize] += w.items.len() as u64;
            }
            c.set(seen);
        });
        waves
    }

    #[test]
    fn fused_list_order_wave_reproduces_the_per_list_waves() {
        // One wave per layer whose segments are the lists in order,
        // each with its list's gang, runs the lanes in the order the
        // three per-list waves ran them: the same relaxations, so the
        // same distances, checks, buckets, layers and T_i. (On the single
        // frontier: the MLMQ picks a sub-queue by hashing the physical
        // lane, which the fused wave numbers on from the small list's
        // warps, so its queue order, and with it the relaxation order,
        // may differ.)
        LISTED.with(|c| c.set([0; 3]));
        for seed in 0..4 {
            let mut el = preferential_attachment(700, 6, seed);
            for k in 1..400 {
                el.push(0, k, 0); // a hub past α light edges: a large vertex
            }
            uniform_weights(&mut el, seed + 1);
            let g = build_undirected(&el);
            for base in [RdbsConfig::full(), RdbsConfig::basyn_adwl()] {
                let cfg = RdbsConfig { delta0: Some(2000 + 600 * seed as u32), ..base };
                let (fused, _) =
                    run_from_0(&g, cfg, phase1_layer, None, false).expect("no overflow");
                let (waves, _) = run_from_0(&g, cfg, list_waves, None, false).expect("no overflow");
                let label = cfg.label();
                assert_eq!(fused.result.dist, waves.result.dist, "{label} seed {seed}");
                assert_eq!(fused.result.stats.checks, waves.result.stats.checks, "{label}");
                assert_eq!(fused.result.stats.total_updates, waves.result.stats.total_updates);
                let key = |t: &GpuBucketTrace| {
                    (t.lo, t.width, t.layers, t.active, t.converged, t.threads)
                };
                assert_eq!(
                    fused.buckets.iter().map(key).collect::<Vec<_>>(),
                    waves.buckets.iter().map(key).collect::<Vec<_>>(),
                    "{label} seed {seed}"
                );
                check_against(&dijkstra(&g, 0).dist, &fused.result.dist).unwrap();
            }
        }
        let [small, medium, large] = LISTED.with(Cell::get);
        assert!(small > 0 && medium > 0 && large > 0, "{small} {medium} {large}");
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
                d.reports().iter().filter(|r| r.name == "phase1_layer").map(|r| r.threads).sum();
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
        assert!(full_lanes > pro_lanes, "phase1_layer lanes: full {full_lanes} vs pro {pro_lanes}");
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

    /// One bucket's phase-2 input: distances, deduplicated members and
    /// the window `[lo, lo + width)`.
    struct Phase2Case {
        dist: Vec<Dist>,
        items: Vec<VertexId>,
        lo: u64,
        width: Weight,
        accept_below: bool,
    }

    /// Run one bucket's phase 2 on a fresh device through the balanced
    /// (ADWL) or the member-per-lane mapping. Returns the distances it
    /// leaves, the checks it counts, its simulated nanoseconds and
    /// whether it allocated the prefix buffer.
    fn phase2_once(
        config: DeviceConfig,
        g: &Csr,
        case: &Phase2Case,
        balanced: bool,
    ) -> (Vec<Dist>, u64, f64, bool) {
        let mut d = Device::new(config);
        let n = g.num_vertices() as u32;
        let gb = GraphBuffers::upload(&mut d, g);
        d.write(gb.dist, &case.dist);
        let scratch = RdbsScratch::new(&mut d, n, RdbsConfig::full());
        let inst = Rc::new(Inst::default());
        let pass = HeavyPass {
            gb,
            members: scratch.frontier.membership_backing(),
            items: &case.items,
            lo: case.lo,
            hi: case.lo + case.width as u64,
            width: case.width,
            pro: g.heavy_offsets().is_some(),
            accept_below: case.accept_below,
            scatter: ScatterMode::Multisplit,
            defer: scratch.frontier.collect_view(true),
        };
        let before = d.elapsed_ns();
        if balanced {
            heavy_relax_balanced(&mut d, &pass, &scratch.prefix, &inst);
        } else {
            heavy_relax_per_member(&mut d, &pass, g, &inst);
        }
        let ns = d.elapsed_ns() - before;
        (
            d.read(gb.dist)[..n as usize].to_vec(),
            inst.checks.get(),
            ns,
            scratch.prefix.get().is_some(),
        )
    }

    #[test]
    fn balanced_phase2_relaxes_what_the_member_mapping_relaxes() {
        // Random graphs with a hub, windows and member lists mixing
        // in-window, stale (above the window, and below it without
        // spills), below-window spill, zero-heavy and isolated members,
        // with and without PRO. Without accepted spills every candidate
        // lands at or above the window, so no member's prologue (its
        // distance, or stale) moves and the two mappings must agree
        // exactly. A below-window spill may
        // lower another member mid-phase; the mappings then run two
        // legal interleavings, and both must stay between the
        // phase's relaxation fixpoint and its input.
        let mut rng = ChaCha8Rng::seed_from_u64(0x0921);
        let (mut exact_spill, mut moved) = (0, 0);
        for seed in 0..40u64 {
            let n = rng.gen_range(16..96usize);
            let mut el = erdos_renyi(n, rng.gen_range(n..4 * n), seed);
            for k in 1..rng.gen_range(2..n as u32) {
                el.push(0, k, 0); // the hub
            }
            uniform_weights(&mut el, seed + 1);
            let g = build_undirected(&el);
            let width = rng.gen_range(1..1000);
            let g = if rng.gen_bool(0.5) { reorder::pro(&g, width).0 } else { g };
            let lo = rng.gen_range(0..3000u64);
            let hi = lo + width as u64;
            let dist: Vec<Dist> = (0..n)
                .map(|_| match rng.gen_range(0..5) {
                    0 => INF,
                    1 => rng.gen_range(hi..hi + 2000) as Dist,
                    2 => rng.gen_range(0..lo.max(1)) as Dist,
                    _ => rng.gen_range(lo..hi) as Dist,
                })
                .collect();
            let mut items: Vec<VertexId> =
                (0..n as VertexId).filter(|_| rng.gen_bool(0.6)).collect();
            items.push(0);
            items.sort_unstable();
            items.dedup();
            for accept_below in [false, true] {
                let case = Phase2Case {
                    dist: dist.clone(),
                    items: items.clone(),
                    lo,
                    width,
                    accept_below,
                };
                let config = DeviceConfig::test_tiny();
                let (per_member, checks_a, ..) = phase2_once(config.clone(), &g, &case, false);
                let (balanced, checks_b, ..) = phase2_once(config, &g, &case, true);
                // What a member's prologue sees: its distance, or stale.
                let seen = |d: Dist| {
                    let du = d as u64;
                    (du < hi && (accept_below || du >= lo)).then_some(d)
                };
                let still =
                    items.iter().all(|&v| seen(per_member[v as usize]) == seen(dist[v as usize]));
                if still || !accept_below {
                    assert!(still, "seed {seed}: a member's prologue moved without spills");
                    assert_eq!(per_member, balanced, "seed {seed} accept_below {accept_below}");
                    assert_eq!(checks_a, checks_b, "seed {seed} accept_below {accept_below}");
                    exact_spill += usize::from(
                        accept_below
                            && items
                                .iter()
                                .any(|&v| (dist[v as usize] as u64) < lo && g.degree(v) > 0),
                    );
                } else {
                    moved += 1;
                    let floor = heavy_fixpoint(&g, &case);
                    for (out, name) in [(&per_member, "per-member"), (&balanced, "balanced")] {
                        for v in 0..n {
                            assert!(
                                floor[v] <= out[v] && out[v] <= dist[v],
                                "seed {seed} {name}: vertex {v} at {} outside [{}, {}]",
                                out[v],
                                floor[v],
                                dist[v]
                            );
                        }
                    }
                }
            }
        }
        assert!(exact_spill > 0 && moved > 0, "exact spill cases {exact_spill}, moved {moved}");
    }

    /// The least distances phase 2 could reach from `case` in any
    /// order: relax every non-stale member's heavy edges until nothing
    /// improves, re-reading members' distances and staleness.
    fn heavy_fixpoint(g: &Csr, case: &Phase2Case) -> Vec<Dist> {
        let mut dist = case.dist.clone();
        let hi = case.lo + case.width as u64;
        loop {
            let mut changed = false;
            for &v in &case.items {
                let dv = dist[v as usize] as u64;
                if dv >= hi || (!case.accept_below && dv < case.lo) {
                    continue;
                }
                for (x, w) in g.edges(v).filter(|&(_, w)| w >= case.width) {
                    let nd = dist[v as usize].saturating_add(w);
                    if nd < dist[x as usize] {
                        dist[x as usize] = nd;
                        changed = true;
                    }
                }
            }
            if !changed {
                return dist;
            }
        }
    }

    #[test]
    fn balanced_phase2_splits_a_hub_across_warps() {
        // One member with 2,000 heavy edges and 1,000 members with one
        // each: the member-per-lane wave waits for the hub's lane to
        // walk its 2,000 edges; the balanced one spreads all 3,000
        // over 94 warps. The benchmark's V100 (overheads and caches
        // scaled by 1/256 for a harness-sized graph, DESIGN item 3),
        // so the count-to-relax grid barrier weighs what it does there.
        let width = 10;
        let mut edges: Vec<(u32, u32, u32)> = (1..=2000).map(|k| (0, k, 100)).collect();
        edges.extend((0..1000).map(|k| (2001 + 2 * k, 2002 + 2 * k, 100)));
        let g = build_undirected(&EdgeList::from_edges(4001, edges));
        let (pg, perm) = reorder::pro(&g, width);
        let mut dist = vec![INF; 4001];
        let mut items = vec![perm.new_id(0)];
        dist[0] = 3;
        for k in 0..1000 {
            dist[2001 + 2 * k] = 5;
            items.push(perm.new_id(2001 + 2 * k as u32));
        }
        items.sort_unstable();
        let case = Phase2Case {
            dist: perm.apply_to_array(&dist),
            items,
            lo: 0,
            width,
            accept_below: false,
        };
        let v100 =
            DeviceConfig::v100().with_overhead_scale(1.0 / 256.0).with_cache_scale(1.0 / 256.0);
        let (dist_a, checks_a, per_member_ns, _) = phase2_once(v100.clone(), &pg, &case, false);
        let (dist_b, checks_b, balanced_ns, _) = phase2_once(v100, &pg, &case, true);
        assert_eq!(dist_a, dist_b);
        assert_eq!((checks_a, checks_b), (3000, 3000));
        assert!(
            balanced_ns * 4.0 <= per_member_ns,
            "balanced {balanced_ns} ns vs member-per-lane {per_member_ns} ns"
        );
    }

    #[test]
    fn balanced_phase2_without_heavy_edges_is_the_member_wave() {
        // Δ above every weight under PRO: no member has a heavy edge, so
        // the balanced phase 2 runs only its count wave — the
        // member-per-lane wave's exact instruction stream — and never
        // allocates the prefix buffer (no other buffer's address moves).
        let g = random_graph(12, 200, 800);
        let (pg, _) = reorder::pro(&g, 1001);
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let dist: Vec<Dist> = (0..200).map(|_| rng.gen_range(0..3000)).collect();
        let items: Vec<VertexId> = (0..200).filter(|_| rng.gen_bool(0.5)).collect();
        let case = Phase2Case { dist, items, lo: 1000, width: 1001, accept_below: false };
        let config = DeviceConfig::test_tiny();
        let per_member = phase2_once(config.clone(), &pg, &case, false);
        let balanced = phase2_once(config, &pg, &case, true);
        assert_eq!(per_member, (balanced.0.clone(), 0, balanced.2, false));
        assert!(!balanced.3, "no heavy edge, no prefix buffer");
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
