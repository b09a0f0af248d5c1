//! Pluggable device frontiers behind the RDBS driver.
//!
//! The driver ([`super::rdbs::RdbsDriver`]) is generic over how the
//! per-bucket worklists live on the device. Two implementations:
//!
//! * [`WorkloadQueues`] (`--frontier single`) — the original layout:
//!   one queue per ADWL workload class plus a bucket-membership queue,
//!   all capacity-`n`. Overflow is impossible fault-free (pending
//!   marks deduplicate enqueues); a detected overflow goes to the
//!   service's escalation ladder.
//! * [`MlmqFrontier`] (`--frontier mlmq`) — a multi-level multi-queue:
//!   [`MLMQ_LEVELS`] priority levels (current bucket, deferred) each
//!   fanned out into [`MLMQ_FANOUT`] sub-queues. A device push picks
//!   its sub-queue by a lane hash — spreading the tail-counter
//!   `atomicAdd`s that make a single hot queue serialize
//!   (`atomic_conflicts`) — and a full sub-queue **spills** the push
//!   into the next level instead of raising overflow: the entry is
//!   simply processed one bucket later. Because a spilled activation
//!   arrives with a distance *below* the then-current window, the
//!   driver relaxes its staleness check for spilling frontiers
//!   (processing a settled vertex re-relaxes idempotently) and will
//!   not finish while a deferred level still holds entries. Membership
//!   tracking needs no second queue — the drained entries of a level
//!   *are* the bucket's membership — so a publish costs one
//!   tail-bump + one store against `single`'s two-queue double push.
//!   MLMQ never escalates: only a genuine loss (a spill level
//!   overflowing too, or a faulted cursor) raises [`QueueOverflow`],
//!   and the service answers from the host oracle.

use super::buffers::{DeviceQueue, GraphBuffers, QueueOverflow};
use crate::workload::{classify, WorkloadClass};
use crate::{Csr, VertexId};
use rdbs_gpu_sim::{Buf, Device, GangScatter, Lane};

/// Priority levels of the MLMQ: the active bucket and one deferred
/// (spill) level. Two suffice — `advance` rotates, so a deferred
/// entry is drained at most two buckets after it spilled.
pub const MLMQ_LEVELS: usize = 2;
/// Sub-queues per MLMQ level (the per-stream fan-out the tail
/// counters are spread across).
pub const MLMQ_FANOUT: usize = 4;

/// Which frontier layout the RDBS driver runs on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum FrontierKind {
    /// One workload-queue set (the original layout).
    #[default]
    Single,
    /// Multi-level multi-queue with overflow spilling.
    Mlmq,
}

impl FrontierKind {
    /// Every frontier implementation, in matrix order.
    pub const ALL: [FrontierKind; 2] = [FrontierKind::Single, FrontierKind::Mlmq];

    /// CLI name (`--frontier <name>`).
    pub fn name(self) -> &'static str {
        match self {
            FrontierKind::Single => "single",
            FrontierKind::Mlmq => "mlmq",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Suffix appended to variant legend labels (empty for the
    /// default layout, so existing labels are unchanged).
    pub fn label_suffix(self) -> &'static str {
        match self {
            FrontierKind::Single => "",
            FrontierKind::Mlmq => "+MLMQ",
        }
    }
}

impl std::fmt::Display for FrontierKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How device-side publishes reach the frontier queues.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ScatterMode {
    /// Warp-aggregated multisplit scatter ([`Lane::gang_push`]): the
    /// lanes of a warp publishing to one queue reserve a contiguous
    /// slot range with a single leader `atomicAdd` and land their
    /// payloads with coalesced reserved stores — one tail atomic per
    /// (warp × bucket) instead of two atomics per element.
    #[default]
    Multisplit,
    /// The pre-multisplit per-element path: every publish pays its own
    /// tail `atomicAdd` plus an `atomicExch` into the slot. Kept as
    /// the conformance oracle the aggregated path must match
    /// bit-for-bit.
    Scalar,
}

impl ScatterMode {
    /// Both modes, oracle-comparison order.
    pub const ALL: [ScatterMode; 2] = [ScatterMode::Multisplit, ScatterMode::Scalar];

    /// CLI name (`--scatter <name>`).
    pub fn name(self) -> &'static str {
        match self {
            ScatterMode::Multisplit => "multisplit",
            ScatterMode::Scalar => "scalar",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.name() == s)
    }
}

impl std::fmt::Display for ScatterMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One phase-1 layer's host-side drain: per-class worklists plus the
/// vertices to add to the bucket's membership set.
pub(crate) struct DrainedLayer {
    pub(crate) lists: [Vec<VertexId>; WorkloadClass::COUNT],
    pub(crate) new_members: Vec<VertexId>,
}

/// Pending-mark dedup at the head of every device-side enqueue:
/// `true` means `v` is already queued and the publish must be
/// skipped. Scalar mode is the original unconditional
/// `atomicExch(pending[v], 1)`. Multisplit mode test-and-test-and-sets
/// — a volatile read first, the exchange only when the mark looks
/// clear. The decision is identical either way: the mark only goes
/// 0→1 between an enqueue and the host drain that clears it, so a
/// read of 1 is exactly the case where the exchange would have
/// returned 1, and a stale-looking 0 is re-checked by the exchange.
/// Most enqueue attempts hit an already-marked vertex, so the gate
/// converts the bulk of the dedup atomics into loads.
#[inline]
fn pending_is_set(lane: &mut Lane<'_>, scatter: ScatterMode, pending: Buf, v: VertexId) -> bool {
    if scatter == ScatterMode::Multisplit && lane.ld_volatile(pending, v) != 0 {
        return true;
    }
    lane.atomic_exch(pending, v, 1) != 0
}

/// Host-side light-degree (seeding, drain-time classification and
/// T_i accounting).
pub(crate) fn host_light_degree(graph: &Csr, v: VertexId) -> u32 {
    match graph.heavy_delta() {
        Some(d) => graph.light_degree(v, d),
        None => graph.degree(v),
    }
}

/// The host seam the RDBS driver drives a frontier through. Every
/// implementation is a `Copy` bundle of buffer handles so the driver
/// (and the kernel closures, via [`FrontierView`]) capture it by
/// value.
pub(crate) trait Frontier {
    fn kind(&self) -> FrontierKind;

    /// Whether a full queue routes pushes to a deferred level instead
    /// of raising overflow. Spilling frontiers get the relaxed
    /// staleness check and never enter the escalation ladder.
    fn can_spill(&self) -> bool {
        self.kind() == FrontierKind::Mlmq
    }

    /// Enqueue the source vertex (host-side, query start).
    fn seed(&self, device: &mut Device, graph: &Csr, source: VertexId);

    /// Drain one phase-1 layer of the active bucket.
    fn drain_layer(&self, device: &mut Device, graph: &Csr) -> DrainedLayer;

    /// Kernel-side view for phase-1/phase-2 enqueues (current bucket).
    fn relax_view(&self) -> FrontierView;

    /// Kernel-side view for phase-3 collection (next bucket).
    fn collect_view(&self) -> FrontierView;

    /// Queue whose data buffer backs phase 2's republished membership
    /// list (read charges and live-slot stores).
    fn membership_backing(&self) -> DeviceQueue;

    /// Whether entries deferred to a later bucket are still queued —
    /// the driver must not finish while this holds.
    fn has_deferred(&self, device: &Device) -> bool;

    /// Surface any sticky overflow raised since the last reset.
    fn check(&self, device: &Device) -> Result<(), QueueOverflow>;

    /// Rotate to the next bucket (no-op for the single layout).
    fn advance(&mut self);

    /// Reset every queue and the pending marks for a fresh query.
    fn reset(&self, device: &mut Device);
}

/// The original frontier: three ADWL workload lists plus the
/// bucket-membership queue and the pending dedup marks.
#[derive(Clone, Copy)]
pub(crate) struct WorkloadQueues {
    pub(crate) q: [DeviceQueue; WorkloadClass::COUNT],
    /// Every enqueued vertex is also recorded here: the union over a
    /// bucket is exactly the bucket's membership, which phase 2 needs
    /// — tracking it at enqueue time replaces a full vertex scan.
    pub(crate) members: DeviceQueue,
    pub(crate) pending: Buf,
    pub(crate) adwl: bool,
    pub(crate) scatter: ScatterMode,
}

impl WorkloadQueues {
    pub(crate) fn new(device: &mut Device, n: u32, adwl: bool, scatter: ScatterMode) -> Self {
        let pending = device.alloc("pending", n as usize);
        let q = [
            DeviceQueue::new(device, "workload_small", n),
            DeviceQueue::new(device, "workload_medium", n),
            DeviceQueue::new(device, "workload_large", n),
        ];
        let members = DeviceQueue::new(device, "bucket_members", n);
        Self { q, members, pending, adwl, scatter }
    }

    /// The set's queues (workload lists then members), for overflow
    /// checks and pool release.
    pub(crate) fn queues(&self) -> impl Iterator<Item = &DeviceQueue> {
        self.q.iter().chain(std::iter::once(&self.members))
    }

    /// Device-side light-degree probe used for classification. Under
    /// PRO this is two row loads (the paper: "with property-driven
    /// reordering, we can quickly calculate the number of light
    /// edges"); without it the total degree serves as the proxy.
    #[inline]
    fn light_degree(lane: &mut Lane<'_>, gb: GraphBuffers, v: VertexId) -> u32 {
        let s = lane.ld(gb.row, v);
        let e = match gb.heavy {
            Some(h) => lane.ld(h, v),
            None => lane.ld(gb.row, v + 1),
        };
        e - s
    }

    /// Device-side enqueue with pending dedup and ADWL classification.
    #[inline]
    pub(crate) fn enqueue(&self, lane: &mut Lane<'_>, gb: GraphBuffers, v: VertexId) {
        if pending_is_set(lane, self.scatter, self.pending, v) {
            return; // already queued
        }
        self.publish(lane, gb, v);
    }

    /// Enqueue for callers that guarantee at most one attempt per
    /// vertex per wave (phase 3's per-vertex collect): the multisplit
    /// path then reads the pending mark instead of exchanging it and
    /// defers the set to a reserved store in the flush — the
    /// exchange's only job is arbitrating same-wave duplicates, and
    /// there are none. Decision-identical to [`Self::enqueue`]: the
    /// mark only transitions 0→1 between enqueue and host drain, and
    /// no other lane of this wave touches `v`.
    #[inline]
    pub(crate) fn enqueue_distinct(&self, lane: &mut Lane<'_>, gb: GraphBuffers, v: VertexId) {
        match self.scatter {
            ScatterMode::Scalar => self.enqueue(lane, gb, v),
            ScatterMode::Multisplit => {
                if lane.ld_volatile(self.pending, v) != 0 {
                    return; // deferred from an earlier wave
                }
                lane.gang_flag(self.pending, v, 1);
                self.publish(lane, gb, v);
            }
        }
    }

    /// The post-dedup publish: ADWL classification, then the scalar
    /// per-push or gang-aggregated scatter.
    #[inline]
    fn publish(&self, lane: &mut Lane<'_>, gb: GraphBuffers, v: VertexId) {
        let class = if self.adwl {
            classify(Self::light_degree(lane, gb, v))
        } else {
            WorkloadClass::Small
        };
        match self.scatter {
            ScatterMode::Scalar => {
                self.q[class.index()].push(lane, v);
                self.members.push(lane, v);
            }
            ScatterMode::Multisplit => {
                // The warp's publishers split by workload class (the
                // multisplit bucket key) and reserve one slot range
                // per (warp × class queue); the membership push
                // aggregates across every publisher of the warp.
                let class_q =
                    GangScatter { target: self.q[class.index()].scatter_target(), spill: None };
                lane.gang_push(&class_q, v);
                let members = GangScatter { target: self.members.scatter_target(), spill: None };
                lane.gang_push(&members, v);
            }
        }
    }
}

impl Frontier for WorkloadQueues {
    fn kind(&self) -> FrontierKind {
        FrontierKind::Single
    }

    fn seed(&self, device: &mut Device, graph: &Csr, source: VertexId) {
        device.write_word(self.pending, source as usize, 1);
        let src_class = if self.adwl {
            classify(host_light_degree(graph, source))
        } else {
            WorkloadClass::Small
        };
        self.q[src_class.index()].host_push(device, source);
        self.members.host_push(device, source);
    }

    fn drain_layer(&self, device: &mut Device, _graph: &Csr) -> DrainedLayer {
        let new_members = self.members.drain(device);
        let lists = std::array::from_fn(|c| self.q[c].drain(device));
        DrainedLayer { lists, new_members }
    }

    fn relax_view(&self) -> FrontierView {
        FrontierView::Workload(*self)
    }

    fn collect_view(&self) -> FrontierView {
        // Phase 3 collects into the same set phase 1 will drain next
        // bucket — the single layout has nowhere else to put it.
        FrontierView::Workload(*self)
    }

    fn membership_backing(&self) -> DeviceQueue {
        self.members
    }

    fn has_deferred(&self, _device: &Device) -> bool {
        false // a full queue raises overflow instead of deferring
    }

    fn check(&self, device: &Device) -> Result<(), QueueOverflow> {
        for q in self.queues() {
            q.check(device)?;
        }
        Ok(())
    }

    fn advance(&mut self) {}

    fn reset(&self, device: &mut Device) {
        for q in self.queues() {
            q.reset(device);
        }
        device.fill(self.pending, 0);
    }
}

/// The multi-level multi-queue — see the module docs for the push
/// routing and spill semantics.
#[derive(Clone, Copy)]
pub(crate) struct MlmqFrontier {
    /// `levels[l][s]`: sub-queue `s` of priority level `l`.
    pub(crate) levels: [[DeviceQueue; MLMQ_FANOUT]; MLMQ_LEVELS],
    pub(crate) pending: Buf,
    pub(crate) adwl: bool,
    pub(crate) scatter: ScatterMode,
    /// Level holding the active bucket's entries (rotates per bucket).
    pub(crate) active: usize,
}

impl MlmqFrontier {
    /// Per-sub-queue capacity for a frontier provisioned at `cap`
    /// total slots: 2×-overprovisioned against a perfectly uniform
    /// hash so moderate skew stays in-level, while a genuinely hot
    /// sub-queue spills instead of erroring.
    pub(crate) fn sub_capacity(cap: u32) -> u32 {
        ((cap as usize * 2).div_ceil(MLMQ_FANOUT)).max(1) as u32
    }

    pub(crate) fn new(device: &mut Device, n: u32, adwl: bool, scatter: ScatterMode) -> Self {
        let pending = device.alloc("pending", n as usize);
        let sub = Self::sub_capacity(n);
        let levels = std::array::from_fn(|_| {
            std::array::from_fn(|_| {
                // Every sub-queue can be a `try_push` target whose
                // overshoot spills to the next level, so all of them
                // are spill-class for the static push-bound certifier.
                let q = DeviceQueue::new(device, "mlmq_lane", sub);
                q.declare_spill(device);
                q
            })
        });
        Self { levels, pending, adwl, scatter, active: 0 }
    }

    /// Every sub-queue of every level, for checks and pool release.
    pub(crate) fn queues(&self) -> impl Iterator<Item = &DeviceQueue> {
        self.levels.iter().flatten()
    }

    /// Device-side enqueue: pending dedup, lane-hashed sub-queue
    /// pick, `try_push` into `target`'s level — and on a full
    /// sub-queue, a plain `push` into the *next* level (the spill).
    /// Only the spill level's drop path can raise overflow: that is
    /// real loss, reported by [`MlmqFrontier::check`].
    #[inline]
    fn enqueue(&self, lane: &mut Lane<'_>, target: usize, v: VertexId) {
        if pending_is_set(lane, self.scatter, self.pending, v) {
            return; // already queued
        }
        self.publish(lane, target, v);
    }

    /// Enqueue for at-most-once-per-vertex waves (phase 3 collect):
    /// see [`WorkloadQueues::enqueue_distinct`]. The load-only gate
    /// still skips vertices deferred in a spill level from an earlier
    /// wave — their mark is already 1.
    #[inline]
    fn enqueue_distinct(&self, lane: &mut Lane<'_>, target: usize, v: VertexId) {
        match self.scatter {
            ScatterMode::Scalar => self.enqueue(lane, target, v),
            ScatterMode::Multisplit => {
                if lane.ld_volatile(self.pending, v) != 0 {
                    return; // deferred from an earlier wave
                }
                lane.gang_flag(self.pending, v, 1);
                self.publish(lane, target, v);
            }
        }
    }

    /// The post-dedup publish: sub-queue pick, then the scalar
    /// try-push/spill pair or one aggregated reservation.
    #[inline]
    fn publish(&self, lane: &mut Lane<'_>, target: usize, v: VertexId) {
        // Fibonacci-hash the *physical* lane id (`tid` alone is the
        // work-item index, shared by every rank of a gang) so dense
        // lanes spread across the fan-out — the whole point:
        // concurrent publishers hit *different* tail counters instead
        // of serializing on one.
        lane.alu(2);
        let lane_id = lane.phys_id() as u32;
        let sub = (lane_id.wrapping_mul(0x9E37_79B9) >> 16) as usize % MLMQ_FANOUT;
        match self.scatter {
            ScatterMode::Scalar => {
                if !self.levels[target][sub].try_push(lane, v) {
                    self.levels[(target + 1) % MLMQ_LEVELS][sub].push(lane, v);
                }
            }
            ScatterMode::Multisplit => {
                // Aggregated equivalent of the try_push/push pair: the
                // warp's publishers to this sub-queue reserve one slot
                // range, and any overshoot re-reserves a single range
                // on the next level's sub-queue — the spill no longer
                // pays one atomic per spilled element.
                let gs = GangScatter {
                    target: self.levels[target][sub].scatter_target(),
                    spill: Some(self.levels[(target + 1) % MLMQ_LEVELS][sub].scatter_target()),
                };
                lane.gang_push(&gs, v);
            }
        }
    }
}

impl Frontier for MlmqFrontier {
    fn kind(&self) -> FrontierKind {
        FrontierKind::Mlmq
    }

    fn seed(&self, device: &mut Device, _graph: &Csr, source: VertexId) {
        device.write_word(self.pending, source as usize, 1);
        self.levels[self.active][0].host_push(device, source);
    }

    /// Drain the active level's sub-queues and classify host-side:
    /// the MLMQ routes pushes by lane, not by workload class, so the
    /// ADWL split happens at drain time (the manager thread already
    /// walks the entries). Tail overshoot on a sub-queue is the spill
    /// signal, not corruption — those pushes landed one level over.
    fn drain_layer(&self, device: &mut Device, graph: &Csr) -> DrainedLayer {
        let mut new_members = Vec::new();
        for sub in &self.levels[self.active] {
            let (items, _spilled) = sub.drain_lossy(device);
            new_members.extend(items);
        }
        let mut lists: [Vec<VertexId>; WorkloadClass::COUNT] = Default::default();
        for &v in &new_members {
            let class = if self.adwl {
                classify(host_light_degree(graph, v))
            } else {
                WorkloadClass::Small
            };
            lists[class.index()].push(v);
        }
        DrainedLayer { lists, new_members }
    }

    fn relax_view(&self) -> FrontierView {
        FrontierView::Mlmq { frontier: *self, target: self.active }
    }

    fn collect_view(&self) -> FrontierView {
        FrontierView::Mlmq { frontier: *self, target: (self.active + 1) % MLMQ_LEVELS }
    }

    fn membership_backing(&self) -> DeviceQueue {
        // Phase 2 republishes the deduplicated membership into this
        // data buffer (modulo its capacity) after the level's drains
        // emptied it, and before phase 3 pushes anything new.
        self.levels[self.active][0]
    }

    fn has_deferred(&self, device: &Device) -> bool {
        self.queues().any(|q| !q.is_empty(device))
    }

    fn check(&self, device: &Device) -> Result<(), QueueOverflow> {
        for q in self.queues() {
            q.check(device)?;
        }
        Ok(())
    }

    fn advance(&mut self) {
        self.active = (self.active + 1) % MLMQ_LEVELS;
    }

    fn reset(&self, device: &mut Device) {
        // The phase kernels charge the lane buffers as rings
        // (`slot % capacity`), so every word must be defined before
        // the first charge — the worklist-allocation memset.
        for q in self.queues() {
            q.reset(device);
            device.fill(q.data, 0);
        }
        device.fill(self.pending, 0);
    }
}

/// Static dispatch over the frontier implementations — the driver and
/// the service scratch hold this by value (`Copy`, like the buffer
/// bundles kernels capture).
#[derive(Clone, Copy)]
pub(crate) enum AnyFrontier {
    Single(WorkloadQueues),
    Mlmq(MlmqFrontier),
}

impl AnyFrontier {
    /// Allocate a fresh frontier of `kind` (the one-shot entry path;
    /// the service assembles pooled frontiers field by field).
    pub(crate) fn new(
        device: &mut Device,
        n: u32,
        adwl: bool,
        kind: FrontierKind,
        scatter: ScatterMode,
    ) -> Self {
        match kind {
            FrontierKind::Single => {
                AnyFrontier::Single(WorkloadQueues::new(device, n, adwl, scatter))
            }
            FrontierKind::Mlmq => AnyFrontier::Mlmq(MlmqFrontier::new(device, n, adwl, scatter)),
        }
    }

    /// Every device queue of the frontier (pool release, poisoning
    /// tests).
    pub(crate) fn device_queues(&self) -> Vec<DeviceQueue> {
        match self {
            AnyFrontier::Single(wq) => wq.queues().copied().collect(),
            AnyFrontier::Mlmq(m) => m.queues().copied().collect(),
        }
    }

    /// The (single, possibly shared) pending-marks buffer.
    pub(crate) fn pending(&self) -> Buf {
        match self {
            AnyFrontier::Single(wq) => wq.pending,
            AnyFrontier::Mlmq(m) => m.pending,
        }
    }
}

macro_rules! dispatch {
    ($self:expr, $f:ident $(, $arg:expr)*) => {
        match $self {
            AnyFrontier::Single(x) => x.$f($($arg),*),
            AnyFrontier::Mlmq(x) => x.$f($($arg),*),
        }
    };
}

impl Frontier for AnyFrontier {
    fn kind(&self) -> FrontierKind {
        dispatch!(self, kind)
    }

    fn can_spill(&self) -> bool {
        dispatch!(self, can_spill)
    }

    fn seed(&self, device: &mut Device, graph: &Csr, source: VertexId) {
        dispatch!(self, seed, device, graph, source);
    }

    fn drain_layer(&self, device: &mut Device, graph: &Csr) -> DrainedLayer {
        dispatch!(self, drain_layer, device, graph)
    }

    fn relax_view(&self) -> FrontierView {
        dispatch!(self, relax_view)
    }

    fn collect_view(&self) -> FrontierView {
        dispatch!(self, collect_view)
    }

    fn membership_backing(&self) -> DeviceQueue {
        dispatch!(self, membership_backing)
    }

    fn has_deferred(&self, device: &Device) -> bool {
        dispatch!(self, has_deferred, device)
    }

    fn check(&self, device: &Device) -> Result<(), QueueOverflow> {
        dispatch!(self, check, device)
    }

    fn advance(&mut self) {
        dispatch!(self, advance);
    }

    fn reset(&self, device: &mut Device) {
        dispatch!(self, reset, device);
    }
}

/// The kernel-side face of a frontier: a `Copy` capture for wave and
/// child-kernel closures, resolved by the host to a concrete enqueue
/// target (the MLMQ's level) before launch.
#[derive(Clone, Copy)]
pub(crate) enum FrontierView {
    /// The single layout's workload-queue set.
    Workload(WorkloadQueues),
    /// The MLMQ with the level this wave's enqueues land in.
    Mlmq { frontier: MlmqFrontier, target: usize },
}

impl FrontierView {
    /// The scatter mode the backing frontier was built with — the
    /// kernels branch on this to pick the scalar or warp-synchronous
    /// publish sequence.
    #[inline]
    pub(crate) fn scatter(&self) -> ScatterMode {
        match *self {
            FrontierView::Workload(wq) => wq.scatter,
            FrontierView::Mlmq { frontier, .. } => frontier.scatter,
        }
    }

    /// Device-side publish of an improved in-window vertex.
    #[inline]
    pub(crate) fn enqueue(&self, lane: &mut Lane<'_>, gb: GraphBuffers, v: VertexId) {
        match *self {
            FrontierView::Workload(wq) => wq.enqueue(lane, gb, v),
            FrontierView::Mlmq { frontier, target } => frontier.enqueue(lane, target, v),
        }
    }

    /// Publish from a wave that attempts each vertex at most once
    /// (phase 3's per-vertex collect): the multisplit dedup then
    /// needs no exchange — a volatile read gates, and the mark is set
    /// by a reserved store in the flush.
    #[inline]
    pub(crate) fn enqueue_distinct(&self, lane: &mut Lane<'_>, gb: GraphBuffers, v: VertexId) {
        match *self {
            FrontierView::Workload(wq) => wq.enqueue_distinct(lane, gb, v),
            FrontierView::Mlmq { frontier, target } => frontier.enqueue_distinct(lane, target, v),
        }
    }

    /// Device-side test-and-clear of a dequeued vertex's pending
    /// mark. Atomic: races the enqueue-side `atomic_exch(pending, 1)`
    /// of concurrent improvers — a plain store could be lost and
    /// strand a re-activation. The volatile load gates the exchange
    /// so that when every lane of a gang issues the clear (the
    /// schedule-universal dequeue protocol, see `run_phase1_list`),
    /// only the first lane to run pays an atomic — the canonical
    /// count stays one exchange per activation.
    #[inline]
    pub(crate) fn clear_pending(&self, lane: &mut Lane<'_>, v: VertexId) {
        let pending = match *self {
            FrontierView::Workload(wq) => wq.pending,
            FrontierView::Mlmq { frontier, .. } => frontier.pending,
        };
        if lane.ld_volatile(pending, v) != 0 {
            lane.atomic_exch(pending, v, 0);
        }
    }

    /// Charge the fetch of work item `i` of `class` against the queue
    /// buffer that held it.
    #[inline]
    pub(crate) fn charge_slot(&self, lane: &mut Lane<'_>, class: usize, i: u32) {
        match *self {
            FrontierView::Workload(wq) => {
                let _ = wq.q[class].read_slot(lane, i);
            }
            FrontierView::Mlmq { frontier, target } => {
                // Host-side classing concatenated the sub-queues; the
                // modulo keeps the charge inside one sub-queue buffer.
                let q = frontier.levels[target][class % MLMQ_FANOUT];
                let _ = q.read_slot(lane, i % q.capacity);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdbs_gpu_sim::DeviceConfig;

    #[test]
    fn kind_names_round_trip() {
        for kind in FrontierKind::ALL {
            assert_eq!(FrontierKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(FrontierKind::parse("bogus"), None);
        assert_eq!(FrontierKind::default(), FrontierKind::Single);
        assert_eq!(FrontierKind::Single.label_suffix(), "");
    }

    #[test]
    fn mlmq_spills_to_the_next_level_instead_of_overflowing() {
        // Push far more distinct vertices than one level holds: the
        // overflow must land in the deferred level, check() stays Ok,
        // and has_deferred reports the spill until it is drained.
        let mut d = Device::new(DeviceConfig::test_tiny());
        let n = 64u32;
        let mut f = MlmqFrontier::new(&mut d, n, false, ScatterMode::Multisplit);
        // Shrink the active level so the storm must spill.
        for q in &mut f.levels[0] {
            q.capacity = 2;
        }
        let view = FrontierView::Mlmq { frontier: f, target: 0 };
        d.launch("storm", n as u64, move |lane| {
            let v = lane.tid() as u32;
            // Exercise the enqueue path directly (no graph reads —
            // adwl is off, so classification never touches gb).
            match view {
                FrontierView::Mlmq { frontier, target } => frontier.enqueue(lane, target, v),
                FrontierView::Workload(_) => unreachable!(),
            }
        });
        assert!(f.check(&d).is_ok(), "spilled pushes are not overflow");
        assert!(f.has_deferred(&d));
        let g = crate::Csr::from_raw(vec![0; n as usize + 1], vec![], vec![]);
        let active: usize = f.drain_layer(&mut d, &g).new_members.len();
        f.advance();
        let deferred: usize = f.drain_layer(&mut d, &g).new_members.len();
        assert_eq!(active + deferred, n as usize, "no push lost");
        assert!(active <= 2 * MLMQ_FANOUT, "active level was capacity-capped");
        assert!(deferred >= n as usize - 2 * MLMQ_FANOUT);
        assert!(!f.has_deferred(&d));
    }

    #[test]
    fn mlmq_spill_of_spill_is_real_loss() {
        // Both levels rigged tiny: the spill level's drop path must
        // raise the sticky overflow so the host never trusts the run.
        let mut d = Device::new(DeviceConfig::test_tiny());
        let n = 64u32;
        let mut f = MlmqFrontier::new(&mut d, n, false, ScatterMode::Multisplit);
        for level in &mut f.levels {
            for q in level {
                q.capacity = 1;
            }
        }
        d.launch("storm", n as u64, move |lane| {
            let v = lane.tid() as u32;
            f.enqueue(lane, 0, v);
        });
        assert!(f.check(&d).is_err(), "a full spill level is a detected loss");
    }

    #[test]
    fn mlmq_pending_dedup_spans_levels() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let f = MlmqFrontier::new(&mut d, 16, false, ScatterMode::Multisplit);
        d.launch("dupes", 32, move |lane| {
            f.enqueue(lane, 0, 7); // every lane publishes the same vertex
        });
        let g = crate::Csr::from_raw(vec![0; 17], vec![], vec![]);
        let layer = f.drain_layer(&mut d, &g);
        assert_eq!(layer.new_members, vec![7], "pending marks deduplicate across the fan-out");
    }

    /// Empty graph buffers for enqueue-path tests (adwl off, so the
    /// classification never reads them).
    fn empty_gb(d: &mut Device, n: u32) -> GraphBuffers {
        let g = crate::Csr::from_raw(vec![0; n as usize + 1], vec![], vec![]);
        GraphBuffers::upload(d, &g)
    }

    use super::super::buffers::GraphBuffers;

    #[test]
    fn gang_reservation_landing_exactly_at_capacity_stays_clean() {
        // A full warp publishing exactly `capacity` distinct vertices:
        // the aggregated reservation's base+k must land *on* the
        // boundary without tripping the overflow bump, exactly like 32
        // scalar pushes — and drain the same membership.
        for scatter in ScatterMode::ALL {
            let mut d = Device::new(DeviceConfig::test_tiny());
            let f = WorkloadQueues::new(&mut d, 32, false, scatter);
            let gb = empty_gb(&mut d, 32);
            d.launch("fill", 32, move |lane| {
                let v = lane.tid() as u32;
                f.enqueue(lane, gb, v);
            });
            assert!(f.check(&d).is_ok(), "{scatter}: at-capacity fill must stay clean");
            assert_eq!(f.members.len(&d), 32, "{scatter}: tail must land exactly on capacity");
            let g = crate::Csr::from_raw(vec![0; 33], vec![], vec![]);
            let layer = f.drain_layer(&mut d, &g);
            assert_eq!(layer.new_members, (0..32).collect::<Vec<_>>(), "{scatter}");
        }
    }

    #[test]
    fn gang_reservation_one_short_of_capacity_overflows_like_scalar() {
        // Capacity 31, a full warp of 32 publishers: the warp's single
        // reservation overshoots by one. The sticky overflow must
        // carry the same (queue, capacity, attempted) evidence the
        // scalar path's 32nd push records.
        let mut errors = Vec::new();
        for scatter in ScatterMode::ALL {
            let mut d = Device::new(DeviceConfig::test_tiny());
            let mut f = WorkloadQueues::new(&mut d, 32, false, scatter);
            f.q[0].capacity = 31;
            f.members.capacity = 31;
            let gb = empty_gb(&mut d, 32);
            d.launch("storm", 32, move |lane| {
                let v = lane.tid() as u32;
                f.enqueue(lane, gb, v);
            });
            let err = f.check(&d).expect_err("one push past capacity must raise overflow");
            errors.push((err.queue, err.capacity, err.attempted));
        }
        assert_eq!(errors[0], errors[1], "multisplit and scalar overflow evidence must agree");
    }

    #[test]
    fn mlmq_gang_reservation_boundary_spills_like_scalar() {
        // Sub-queues sized so the warp's aggregated reservations
        // straddle the boundary: the overshoot must spill to the next
        // level in exactly the scalar try_push/push split — same
        // active-level membership, same deferred membership, no
        // sticky overflow in either mode.
        let mut observed = Vec::new();
        for scatter in ScatterMode::ALL {
            let mut d = Device::new(DeviceConfig::test_tiny());
            let mut f = MlmqFrontier::new(&mut d, 64, false, scatter);
            for q in &mut f.levels[0] {
                q.capacity = 3;
            }
            d.launch("storm", 64, move |lane| {
                let v = lane.tid() as u32;
                f.enqueue(lane, 0, v);
            });
            assert!(f.check(&d).is_ok(), "{scatter}: a spilled boundary is not overflow");
            assert!(f.has_deferred(&d), "{scatter}: the overshoot must be deferred");
            let g = crate::Csr::from_raw(vec![0; 65], vec![], vec![]);
            let mut active = f.drain_layer(&mut d, &g).new_members;
            f.advance();
            let mut deferred = f.drain_layer(&mut d, &g).new_members;
            active.sort_unstable();
            deferred.sort_unstable();
            assert_eq!(active.len() + deferred.len(), 64, "{scatter}: no push lost");
            observed.push((active, deferred));
        }
        assert_eq!(observed[0], observed[1], "multisplit and scalar must split identically");
    }
}
