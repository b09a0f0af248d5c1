//! Device-resident graph state shared by every GPU kernel.

use crate::{Csr, Dist, VertexId, Weight, INF};
use rdbs_gpu_sim::{Buf, Device, Lane, ScatterTarget};

/// The immutable CSR arrays on the device — everything that is a
/// function of the *graph*, not of any one query. A resident service
/// uploads these once per graph generation and reuses them across
/// queries; pair with a per-query distance buffer via
/// [`GraphArrays::with_dist`].
///
/// `Copy` so kernel closures — including `'static` dynamic-parallelism
/// children — can capture it by value.
#[derive(Clone, Copy)]
pub struct GraphArrays {
    pub n: u32,
    pub m: u32,
    /// Row offsets, `n + 1` words.
    pub row: Buf,
    /// Adjacency list, `m` words.
    pub adj: Buf,
    /// Edge weights, `m` words.
    pub wt: Buf,
    /// Under property-driven reordering, each vertex's light range as
    /// the pair `(row[v], heavy[v])` at words `2v` and `2v + 1`: PRO
    /// appends the heavy-edge offset to the CSR row list, so a kernel
    /// reads both ends with one aligned 8-byte load (see
    /// [`GraphBuffers::light_range`]).
    pub light_ranges: Option<Buf>,
    /// The heaviest edge weight (0 without edges): a bucket wider than
    /// it has no heavy edge, so its phase 2 has nothing to relax.
    pub max_weight: Weight,
    /// The first small-class id: every vertex at or past it has degree
    /// below β, so ADWL files it as small without reading its light
    /// range. `n` when the labelling carries no class order.
    pub small_from: VertexId,
}

impl GraphArrays {
    /// Upload the CSR arrays (3 uploads, plus the light ranges with
    /// PRO), recording `small_from` ([`GraphArrays::small_from`]; the
    /// caller vouches that every vertex from it on has degree < β).
    pub fn upload(device: &mut Device, graph: &Csr, small_from: VertexId) -> Self {
        let n = graph.num_vertices() as u32;
        let m = graph.num_edges() as u32;
        let row = device.alloc_upload("row_offsets", graph.row_offsets());
        let adj = device.alloc_upload("adjacency", graph.adjacency());
        let wt = device.alloc_upload("weights", graph.weights());
        let light_ranges = graph.heavy_offsets().map(|heavy| {
            let pairs: Vec<u32> =
                graph.row_offsets().iter().zip(heavy).flat_map(|(&r, &h)| [r, h]).collect();
            device.alloc_upload("light_ranges", &pairs)
        });
        let max_weight = graph.max_weight();
        Self { n, m, row, adj, wt, light_ranges, max_weight, small_from }
    }

    /// Words of the light-range buffer: a pair per vertex.
    pub(crate) fn light_ranges_len(&self) -> usize {
        2 * self.n as usize
    }

    /// Pair the resident arrays with a per-query distance buffer (at
    /// least `n` words; a pooled buffer may be larger).
    pub fn with_dist(self, dist: Buf) -> GraphBuffers {
        GraphBuffers {
            n: self.n,
            m: self.m,
            row: self.row,
            adj: self.adj,
            wt: self.wt,
            light_ranges: self.light_ranges,
            max_weight: self.max_weight,
            small_from: self.small_from,
            dist,
            #[cfg(test)]
            two_loads: false,
        }
    }
}

/// The CSR arrays plus the distance vector on the device.
///
/// `Copy` so kernel closures — including `'static` dynamic-parallelism
/// children — can capture it by value.
#[derive(Clone, Copy)]
pub struct GraphBuffers {
    pub n: u32,
    pub m: u32,
    /// Row offsets, `n + 1` words.
    pub row: Buf,
    /// Adjacency list, `m` words.
    pub adj: Buf,
    /// Edge weights, `m` words.
    pub wt: Buf,
    /// PRO's `(row[v], heavy[v])` pairs, `2n` words (see
    /// [`GraphArrays::light_ranges`]). Kernels read them only through
    /// [`GraphBuffers::light_range`] and [`GraphBuffers::heavy_start`].
    pub light_ranges: Option<Buf>,
    /// The heaviest edge weight ([`GraphArrays::max_weight`]).
    pub max_weight: Weight,
    /// The first small-class id ([`GraphArrays::small_from`]).
    pub small_from: VertexId,
    /// Tentative distances, `n` words (pooled buffers may hold more;
    /// only the first `n` are meaningful).
    pub dist: Buf,
    /// Read a PRO light range with the two loads the layout replaced,
    /// `row[v]` then the heavy word: the reference the one-load
    /// accessor must relax exactly like.
    #[cfg(test)]
    pub(crate) two_loads: bool,
}

impl GraphBuffers {
    /// Upload a graph and an all-`INF` distance vector. The one-shot
    /// upload knows no class order: `small_from` is `n`, so ADWL
    /// classifies every vertex by its light range (§4.2).
    pub fn upload(device: &mut Device, graph: &Csr) -> Self {
        let arrays = GraphArrays::upload(device, graph, graph.num_vertices() as VertexId);
        let dist = device.alloc("dist", arrays.n as usize);
        device.fill(dist, INF);
        arrays.with_dist(dist)
    }

    /// `v`'s light range `[start, end)` (kernel context). Under PRO its
    /// first light and first heavy edge: one aligned 8-byte load of its
    /// pair. Without PRO its whole row, whose edges the caller
    /// weight-checks: two loads, since `(row[v], row[v + 1])` is not
    /// 8-byte aligned for odd `v`.
    #[inline]
    pub(crate) fn light_range(&self, lane: &mut Lane<'_>, v: VertexId) -> (u32, u32) {
        match self.light_ranges {
            #[cfg(test)]
            Some(pairs) if self.two_loads => (lane.ld(self.row, v), lane.ld(pairs, 2 * v + 1)),
            Some(pairs) => lane.ld2(pairs, 2 * v),
            None => (lane.ld(self.row, v), lane.ld(self.row, v + 1)),
        }
    }

    /// `v`'s first heavy edge (kernel context): the second word of its
    /// pair under PRO, its row start without (phase 2 then
    /// weight-checks the whole row).
    #[inline]
    pub(crate) fn heavy_start(&self, lane: &mut Lane<'_>, v: VertexId) -> u32 {
        match self.light_ranges {
            Some(pairs) => lane.ld(pairs, 2 * v + 1),
            None => lane.ld(self.row, v),
        }
    }

    /// Store `v`'s first heavy edge `heavy` into its pair (kernel
    /// context, PRO only), and with `row` its first edge too.
    #[inline]
    pub(crate) fn store_light_range(
        &self,
        lane: &mut Lane<'_>,
        v: VertexId,
        row: Option<u32>,
        heavy: u32,
    ) {
        let pairs = self.light_ranges.expect("PRO graphs carry light ranges");
        if let Some(start) = row {
            lane.st(pairs, 2 * v, start);
        }
        lane.st(pairs, 2 * v + 1, heavy);
    }

    /// Whether an edge can be heavy in a bucket of `width` (an edge is
    /// heavy at `w >= width`).
    #[inline]
    pub(crate) fn has_heavy(&self, width: Weight) -> bool {
        self.max_weight >= width
    }

    /// Reset the distance vector for a fresh query: all `INF`, source
    /// at zero (host-side, the resident-service `reset` path).
    pub fn reset_dist(&self, device: &mut Device, source: VertexId) {
        device.fill(self.dist, INF);
        self.init_source(device, source);
    }

    /// Set the source distance to zero (host-side init).
    pub fn init_source(&self, device: &mut Device, source: VertexId) {
        device.write_word(self.dist, source as usize, 0);
    }

    /// Copy the distance vector back to the host (first `n` words —
    /// a pooled buffer may be larger than the graph).
    pub fn download_dist(&self, device: &Device) -> Vec<Dist> {
        device.read(self.dist)[..self.n as usize].to_vec()
    }
}

/// A device queue's cursor ran past its capacity: kernel-side pushes
/// were dropped (and counted), or a faulted cursor overshot. Surfaced
/// as a typed host error so release builds fail loudly instead of
/// silently losing work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueOverflow {
    /// Allocation label of the overflowed queue.
    pub queue: &'static str,
    /// Slots the queue actually holds.
    pub capacity: u32,
    /// Push slots demanded (capacity + dropped pushes), best effort.
    pub attempted: u32,
}

impl std::fmt::Display for QueueOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "device queue '{}' overflow: {} pushes against capacity {}",
            self.queue, self.attempted, self.capacity
        )
    }
}

impl std::error::Error for QueueOverflow {}

/// A device-side vertex queue: data buffer, a tail cursor cell, and a
/// sticky two-word overflow record. Kernels push with `atomicAdd` on
/// the cursor; the host "manager thread" drains and resets it between
/// waves.
///
/// ## Overflow semantics
///
/// A push that lands past `capacity` is **dropped** and counted in
/// overflow word 0 — never stored out of bounds. Independently, every
/// drain that observes the cursor past `capacity` records the worst
/// overshoot in overflow word 1, whether or not drops were already
/// counted — a clamped faulted cursor after real drops (or drops after
/// a faulted cursor) must not be discarded. Both words are sticky:
/// they survive [`DeviceQueue::drain`] and are only cleared by
/// [`DeviceQueue::reset`], so the host can detect an overflow that
/// happened any time since the last reset and surface a typed
/// [`QueueOverflow`] (or hand it to the recovery ladder) instead of
/// returning a silently truncated frontier.
#[derive(Clone, Copy)]
pub struct DeviceQueue {
    pub data: Buf,
    pub tail: Buf,
    /// Sticky overflow record, 2 words: `[dropped pushes, worst
    /// drain-observed cursor overshoot]`. Only word 0 is touched from
    /// device code.
    pub overflow: Buf,
    pub capacity: u32,
    /// Allocation label, for overflow reports.
    pub label: &'static str,
}

/// Allocation length of the [`DeviceQueue::overflow`] record.
pub const OVERFLOW_WORDS: usize = 2;

impl DeviceQueue {
    pub fn new(device: &mut Device, label: &'static str, capacity: u32) -> Self {
        let data = device.alloc(label, capacity as usize);
        let tail = device.alloc("queue_tail", 1);
        let overflow = device.alloc("queue_overflow", OVERFLOW_WORDS);
        // Declare the queue to the device so the static push-bound
        // certifier can recognize its tail/overflow traffic. Owners
        // whose overshoot spills elsewhere (MLMQ) re-declare with
        // `spill = true`.
        device.declare_queue(label, tail, overflow, capacity, false);
        Self { data, tail, overflow, capacity, label }
    }

    /// Re-declare this queue as spill-capable: tail overshoot past
    /// `capacity` is routed to another queue level by the owner
    /// ([`DeviceQueue::try_push`] returning `false`), not dropped, so
    /// the static certifier classes it `Spilling`, not `Overflowing`.
    pub fn declare_spill(&self, device: &mut Device) {
        device.declare_queue(self.label, self.tail, self.overflow, self.capacity, true);
    }

    /// Device-side push (kernel context): bump the tail, store `v`.
    /// Returns the slot. On overflow the push is dropped and the
    /// sticky overflow cell incremented — checked in release builds
    /// too, so a full queue can never corrupt adjacent buffers or
    /// silently truncate.
    ///
    /// The slot store is atomic: after a host drain resets the tail,
    /// the same slot is refilled by a *different* thread of a later
    /// wave, and the only ordering between the two writers is the
    /// tail-counter handshake. Real implementations protect the slot
    /// with `st.volatile` + a threadfence; the atomic store is the
    /// simulator's sanctioned equivalent (same immediate effect).
    #[inline]
    pub fn push(&self, lane: &mut Lane<'_>, v: VertexId) -> u32 {
        let slot = lane.atomic_add(self.tail, 0, 1);
        if slot >= self.capacity {
            lane.atomic_add(self.overflow, 0, 1);
            return slot;
        }
        lane.atomic_exch(self.data, slot, v);
        slot
    }

    /// Device-side push that reports a full queue to the *caller*
    /// instead of raising the sticky overflow record: `false` means
    /// the push did not land and the caller is responsible for routing
    /// `v` somewhere else (the MLMQ spill path). The tail still
    /// overshoots — drain the queue with [`DeviceQueue::drain_lossy`],
    /// which treats the overshoot as expected.
    #[inline]
    pub fn try_push(&self, lane: &mut Lane<'_>, v: VertexId) -> bool {
        let slot = lane.atomic_add(self.tail, 0, 1);
        if slot >= self.capacity {
            return false;
        }
        lane.atomic_exch(self.data, slot, v);
        true
    }

    /// The queue as a warp-aggregated scatter target for
    /// [`Lane::gang_push`]: same tail/data/overflow cells the scalar
    /// [`DeviceQueue::push`] uses, so the two publish paths share one
    /// accounting discipline.
    #[inline]
    pub fn scatter_target(&self) -> ScatterTarget {
        ScatterTarget {
            tail: self.tail,
            data: self.data,
            capacity: self.capacity,
            overflow: self.overflow,
        }
    }

    /// Device-side read of slot `i` (kernel context). Volatile: the
    /// slot may have been written by a lane of an earlier wave of the
    /// same persistent kernel, with no grid barrier in between — a
    /// plain (snapshot-semantics) load could legitimately miss it.
    #[inline]
    pub fn read_slot(&self, lane: &mut Lane<'_>, i: u32) -> u32 {
        lane.ld_volatile(self.data, i)
    }

    /// Host-side drain: copy out the current entries and reset the
    /// tail (the manager-thread step of §4.3). The length is clamped
    /// to `capacity` — a faulted or overflowed cursor raises the
    /// sticky overflow record instead of panicking the manager thread.
    ///
    /// The overshoot is recorded *unconditionally* (word 1 keeps the
    /// worst one seen), never gated on whether drops were already
    /// counted: a clamp after a real dropped push is evidence too, and
    /// discarding it undercounts mixed drop-then-corrupt episodes.
    pub fn drain(&self, device: &mut Device) -> Vec<VertexId> {
        let tail = device.read_word(self.tail, 0);
        if tail > self.capacity {
            let overshoot = tail - self.capacity;
            let worst = device.read_word(self.overflow, 1);
            if overshoot > worst {
                device.write_word(self.overflow, 1, overshoot);
            }
        }
        let len = tail.min(self.capacity) as usize;
        let items = device.read(self.data)[..len].to_vec();
        device.write_word(self.tail, 0, 0);
        items
    }

    /// Host-side drain for queues where tail overshoot is *expected*
    /// and handled by the caller (MLMQ sub-queues route the pushes
    /// that did not land into the next level): clamp and reset without
    /// raising the overflow record. Returns the entries and the
    /// overshoot (how many pushes did not land here).
    pub fn drain_lossy(&self, device: &mut Device) -> (Vec<VertexId>, u32) {
        let tail = device.read_word(self.tail, 0);
        let spilled = tail.saturating_sub(self.capacity);
        let len = tail.min(self.capacity) as usize;
        let items = device.read(self.data)[..len].to_vec();
        device.write_word(self.tail, 0, 0);
        (items, spilled)
    }

    /// Like [`DeviceQueue::drain`], surfacing any overflow recorded
    /// since the last reset as a typed error.
    pub fn drain_checked(&self, device: &mut Device) -> Result<Vec<VertexId>, QueueOverflow> {
        let items = self.drain(device);
        self.check(device)?;
        Ok(items)
    }

    /// `Err(QueueOverflow)` if the sticky overflow record is raised.
    ///
    /// `attempted` is `capacity + max(drops, worst overshoot)`: every
    /// dropped push also bumped the tail, so a drain-observed
    /// overshoot subsumes the drops it witnessed (taking the max never
    /// double-counts a mixed corrupt-then-drop episode), while the
    /// drop count alone survives a cursor faulted back *down*.
    pub fn check(&self, device: &Device) -> Result<(), QueueOverflow> {
        let dropped = device.read_word(self.overflow, 0);
        let overshoot = device.read_word(self.overflow, 1);
        let excess = dropped.max(overshoot);
        if excess == 0 {
            return Ok(());
        }
        Err(QueueOverflow {
            queue: self.label,
            capacity: self.capacity,
            attempted: self.capacity.saturating_add(excess),
        })
    }

    /// Whether the sticky overflow record is raised.
    pub fn overflowed(&self, device: &Device) -> bool {
        device.read_word(self.overflow, 0) != 0 || device.read_word(self.overflow, 1) != 0
    }

    /// Reset to an empty, non-overflowed queue (the pooled-reuse
    /// `reset` path; contents are not cleared — the cursor defines
    /// what is live).
    pub fn reset(&self, device: &mut Device) {
        device.write_word(self.tail, 0, 0);
        device.write_word(self.overflow, 0, 0);
        device.write_word(self.overflow, 1, 0);
    }

    /// Host-side length peek (clamped to capacity; the raw cursor may
    /// overshoot after an overflow).
    pub fn len(&self, device: &Device) -> u32 {
        device.read_word(self.tail, 0).min(self.capacity)
    }

    /// Host-side emptiness peek.
    pub fn is_empty(&self, device: &Device) -> bool {
        self.len(device) == 0
    }

    /// Host-side push (seeding the source).
    pub fn host_push(&self, device: &mut Device, v: VertexId) {
        let tail = device.read_word(self.tail, 0);
        assert!(tail < self.capacity, "device queue overflow");
        device.write_word(self.data, tail as usize, v);
        device.write_word(self.tail, 0, tail + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdbs_gpu_sim::DeviceConfig;
    use rdbs_graph::builder::{build_undirected, EdgeList};

    #[test]
    fn upload_roundtrip() {
        let g = build_undirected(&EdgeList::from_edges(3, vec![(0, 1, 4), (1, 2, 6)]));
        let mut d = Device::new(DeviceConfig::test_tiny());
        let gb = GraphBuffers::upload(&mut d, &g);
        assert_eq!(gb.n, 3);
        assert_eq!(gb.m, 4);
        assert_eq!(d.read(gb.row), g.row_offsets());
        assert_eq!(d.read(gb.adj), g.adjacency());
        gb.init_source(&mut d, 1);
        let dist = gb.download_dist(&d);
        assert_eq!(dist, vec![INF, 0, INF]);
        assert!(gb.light_ranges.is_none());
        assert_eq!(gb.max_weight, 6);
    }

    /// PRO's heavy offsets go up beside their row offsets, as the
    /// light-range pairs the accessors read.
    #[test]
    fn heavy_offsets_uploaded_when_present() {
        let el = EdgeList::from_edges(3, vec![(0, 1, 4), (0, 2, 9), (1, 2, 6)]);
        let (g, _) = rdbs_graph::reorder::pro(&build_undirected(&el), 5);
        let mut d = Device::new(DeviceConfig::test_tiny());
        let gb = GraphBuffers::upload(&mut d, &g);
        let (row, heavy) = (g.row_offsets(), g.heavy_offsets().unwrap());
        let pairs: Vec<u32> = (0..3).flat_map(|v| [row[v], heavy[v]]).collect();
        assert_eq!(d.read(gb.light_ranges.unwrap()), pairs);
        // One 8-byte load per vertex reads what the two loads read.
        let seen = std::cell::RefCell::new(Vec::new());
        d.launch("ranges", 3, |lane| {
            let v = lane.tid() as u32;
            let range = gb.light_range(lane, v);
            seen.borrow_mut().push((range, gb.heavy_start(lane, v)));
        });
        let expect: Vec<_> = (0..3).map(|v| ((row[v], heavy[v]), heavy[v])).collect();
        assert_eq!(seen.into_inner(), expect);
        assert_eq!(d.counters().inst_executed_global_loads, 2);
        assert!(gb.has_heavy(9) && !gb.has_heavy(10));
    }

    #[test]
    fn overflow_storm_errors_instead_of_corrupting() {
        // The headline release-build bug: a capacity-1 queue under a
        // 32-lane push storm must drop the excess pushes, leave the
        // neighbouring allocations untouched, and surface a typed
        // error — never store past the queue.
        let mut d = Device::new(DeviceConfig::test_tiny());
        let before = d.alloc("sentinel_before", 4);
        let q = DeviceQueue::new(&mut d, "storm_q", 1);
        let after = d.alloc("sentinel_after", 4);
        d.fill(before, 0xDEAD_BEEF);
        d.fill(after, 0xDEAD_BEEF);
        d.launch("storm", 32, |lane| {
            q.push(lane, 100 + lane.tid() as u32);
        });
        assert!(q.overflowed(&d));
        assert_eq!(d.read(before), &[0xDEAD_BEEF; 4]);
        assert_eq!(d.read(after), &[0xDEAD_BEEF; 4]);
        assert_eq!(q.len(&d), 1);
        let err = q.drain_checked(&mut d).unwrap_err();
        assert_eq!(err.queue, "storm_q");
        assert_eq!(err.capacity, 1);
        assert_eq!(err.attempted, 32);
        assert!(err.to_string().contains("overflow"));
        // Sticky across the drain; cleared only by reset.
        assert!(q.overflowed(&d));
        q.reset(&mut d);
        assert!(!q.overflowed(&d));
        assert!(q.check(&d).is_ok());
    }

    #[test]
    fn drain_clamps_faulted_cursor() {
        // A fault-corrupted tail (no recorded drops) must not panic
        // the host mid-recovery: drain clamps and raises the flag.
        let mut d = Device::new(DeviceConfig::test_tiny());
        let q = DeviceQueue::new(&mut d, "q", 4);
        q.host_push(&mut d, 9);
        d.write_word(q.tail, 0, 1000);
        let items = q.drain(&mut d);
        assert_eq!(items.len(), 4);
        assert_eq!(items[0], 9);
        assert!(q.overflowed(&d));
        assert_eq!(q.check(&d).unwrap_err().attempted, 1000);
    }

    #[test]
    fn drop_then_corrupt_keeps_the_clamp_evidence() {
        // Real dropped pushes first, then a fault overshoots the tail
        // further. The old drain gated the clamp on an untouched
        // overflow cell, so the 1000-slot overshoot was silently
        // discarded and `attempted` reported only the drops.
        let mut d = Device::new(DeviceConfig::test_tiny());
        let q = DeviceQueue::new(&mut d, "q", 1);
        d.launch("storm", 32, |lane| {
            q.push(lane, lane.tid() as u32);
        });
        d.write_word(q.tail, 0, 1000);
        let items = q.drain(&mut d);
        assert_eq!(items.len(), 1);
        // overshoot 999 subsumes the 31 drops it witnessed: the queue
        // saw 1000 slots demanded against capacity 1.
        assert_eq!(q.check(&d).unwrap_err().attempted, 1000);
    }

    #[test]
    fn corrupt_then_drop_counts_both() {
        // A faulted cursor first, then a real push that drops off the
        // corrupted tail. The old accounting reported capacity + 1
        // (just the drop); the overshoot recorded at drain must win.
        let mut d = Device::new(DeviceConfig::test_tiny());
        let q = DeviceQueue::new(&mut d, "q", 4);
        q.host_push(&mut d, 9);
        d.write_word(q.tail, 0, 1000);
        d.launch("late_push", 1, |lane| {
            q.push(lane, 7);
        });
        let items = q.drain(&mut d);
        assert_eq!(items.len(), 4);
        assert_eq!(items[0], 9);
        // tail reached 1001: the faulted 1000 plus the dropped push.
        assert_eq!(q.check(&d).unwrap_err().attempted, 1001);
        // Sticky across the drain, cleared only by reset.
        assert!(q.overflowed(&d));
        q.reset(&mut d);
        assert!(q.check(&d).is_ok());
    }

    #[test]
    fn try_push_and_lossy_drain_do_not_raise_overflow() {
        // The spill-path primitives: a failed try_push reports to the
        // caller, and drain_lossy returns the overshoot instead of
        // recording it — the queue stays clean for `check`.
        let mut d = Device::new(DeviceConfig::test_tiny());
        let q = DeviceQueue::new(&mut d, "q", 2);
        let landed = d.alloc("landed", 8);
        d.fill(landed, 0);
        d.launch("spillers", 8, |lane| {
            let ok = q.try_push(lane, 100 + lane.tid() as u32);
            lane.st(landed, lane.tid() as u32, ok as u32);
        });
        let landed_count: u32 = d.read(landed).iter().sum();
        assert_eq!(landed_count, 2);
        let (items, spilled) = q.drain_lossy(&mut d);
        assert_eq!(items.len(), 2);
        assert_eq!(spilled, 6);
        assert!(q.check(&d).is_ok());
        assert!(!q.overflowed(&d));
    }

    #[test]
    fn arrays_split_pairs_with_pooled_dist() {
        // GraphArrays (upload-once) + an oversized pooled dist buffer:
        // download must slice to n.
        let g = build_undirected(&EdgeList::from_edges(3, vec![(0, 1, 4), (1, 2, 6)]));
        let mut d = Device::new(DeviceConfig::test_tiny());
        let arrays = GraphArrays::upload(&mut d, &g, 3);
        let dist = d.alloc("dist_pooled", 8); // size-class rounded past n=3
        let gb = arrays.with_dist(dist);
        gb.reset_dist(&mut d, 1);
        assert_eq!(gb.download_dist(&d), vec![INF, 0, INF]);
    }

    #[test]
    fn queue_device_and_host_sides() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let q = DeviceQueue::new(&mut d, "q", 16);
        q.host_push(&mut d, 7);
        assert_eq!(q.len(&d), 1);
        // Device-side pushes from a kernel.
        d.launch("pushers", 4, |lane| {
            q.push(lane, lane.tid() as u32);
        });
        assert_eq!(q.len(&d), 5);
        let mut items = q.drain(&mut d);
        items.sort_unstable();
        assert_eq!(items, vec![0, 1, 2, 3, 7]);
        assert!(q.is_empty(&d));
    }

    /// Every seeding path host-pushes one source, so only a test pushes
    /// one queue twice: each push must land in its own slot, in order.
    #[test]
    fn host_pushes_append_in_order() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let q = DeviceQueue::new(&mut d, "q", 4);
        for v in [3, 5, 7] {
            q.host_push(&mut d, v);
        }
        assert_eq!(q.drain_checked(&mut d), Ok(vec![3, 5, 7]));
    }
}
