//! Retained access IR for schedule-universal static verification.
//!
//! The dynamic sanitizer ([`crate::san`]) checks the *observed*
//! interleaving and the schedule fuzzer checks N *sampled* lane
//! permutations; a race that no sampled schedule exercises ships
//! silently. This module retains a **bounded per-race-window access
//! summary** — per touched buffer word: which access classes hit it
//! and the first two *distinct threads* per class — and the
//! happens-before structure that orders windows (barriers, snapshot
//! kernel boundaries). Within a window every pair of lanes is treated
//! as concurrent, so any verdict computed over this IR quantifies over
//! **all** interleavings, not one.
//!
//! Memory stays O(touched words per window), not O(ops): the recorder
//! keeps two accessors per (word, class) it saw — enough to witness
//! every pairwise hazard — in the dense window table it shares with the
//! sanitizer ([`crate::shadow`]), plus lifetime contention tables
//! (vectors by label id, lane or word index) folded into the label-keyed
//! [`AccessIr`] maps at [`IrState`] finish. Full traces are never
//! retained (the warp-local [`crate::trace::LaneTrace`] replay still
//! discards them per warp).
//!
//! The IR is consumed by the `rdbs-statan` crate, which runs the
//! hazard matrix over it and emits typed per-kernel certificates.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};

use crate::shadow::{narrow, slot, Labels, Names, Thread, Window, Word};

/// Identity of one access. `(wave, lane)` is the *thread key*: two
/// accesses sharing it are program-ordered; any two accesses in the
/// same window with different keys are concurrent under some schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IrAccessor {
    /// Wave counter at access time (monotonic across the device).
    pub wave: u64,
    /// Physical lane id ([`crate::Lane::phys_id`]).
    pub lane: u64,
    /// Gang/item id (`tid`; equals the lane for plain launches).
    pub gang: u64,
    /// Kernel name the access ran under.
    pub kernel: &'static str,
}

impl IrAccessor {
    /// Same simulated thread — program order applies.
    #[inline]
    pub fn same_thread(&self, other: &Self) -> bool {
        self.wave == other.wave && self.lane == other.lane
    }
}

/// The five access classes the hazard matrix distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AccessClass {
    /// Plain global load (snapshot semantics in synchronous kernels).
    PlainLoad = 0,
    /// Volatile/L2-coherent load (live memory, the sanctioned racy read).
    VolatileLoad = 1,
    /// Plain global store.
    Store = 2,
    /// Atomic read-modify-write.
    Atomic = 3,
    /// Plain store into a slot range reserved by a gang-collective
    /// tail bump ([`crate::Lane::gang_push`]): atomic-strength publish
    /// discipline at plain-store cost, sanctioned against atomics and
    /// volatile readers.
    ReservedStore = 4,
}

/// Bounded summary of one access class on one word within a window:
/// the first accessor, and the first from a *different thread*
/// (`second` equals `first` until one arrives). Two witnesses suffice
/// to decide every pairwise hazard, so retention is O(1) per (word,
/// class) no matter how many lanes pile on.
#[derive(Clone, Copy, Debug)]
struct Witnesses {
    first: Thread,
    second: Thread,
}

impl Witnesses {
    fn new(a: Thread) -> Self {
        Self { first: a, second: a }
    }

    #[inline]
    fn note(&mut self, a: Thread) {
        if self.second.same_thread(self.first) && !self.first.same_thread(a) {
            self.second = a;
        }
    }

    /// The first accessor from a different thread than `first`.
    #[inline]
    fn second(&self) -> Option<Thread> {
        (!self.second.same_thread(self.first)).then_some(self.second)
    }

    /// A pair of distinct-thread accessors within this class, if two
    /// different threads used it.
    #[inline]
    fn self_pair(&self) -> Option<(Thread, Thread)> {
        Some((self.first, self.second()?))
    }

    /// A pair of distinct-thread accessors, one from `self`, one from
    /// `other` (cross-class hazard witness).
    #[inline]
    fn cross_pair(&self, other: &Witnesses) -> Option<(Thread, Thread)> {
        let (a, b) = (self.first, other.first);
        if !a.same_thread(b) {
            return Some((a, b));
        }
        if let Some(b2) = other.second() {
            return Some((a, b2));
        }
        Some((self.second()?, b))
    }
}

/// [`Witnesses::self_pair`] of a class the word may not have seen.
fn self_pair(c: Option<Witnesses>) -> Option<(Thread, Thread)> {
    c?.self_pair()
}

/// [`Witnesses::cross_pair`] of two classes the word may not have seen.
fn cross_pair(a: Option<Witnesses>, b: Option<Witnesses>) -> Option<(Thread, Thread)> {
    a?.cross_pair(&b?)
}

/// Hazard classes the closure derives from a window. The first four
/// are red (unsanctioned); the last three are the memory-model idioms
/// the kernel discipline explicitly sanctions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HazardKind {
    /// Two plain stores to one word from distinct threads: the final
    /// value is schedule-chosen.
    WriteWrite,
    /// Plain store and atomic RMW on one word: the store is unordered
    /// against the atomic and can be lost or torn across it.
    MixedAtomic,
    /// Plain load of a word another thread writes in the same *live*
    /// window: plain loads have no coherence guarantee there.
    SnapshotRead,
    /// Plain store observed by a live volatile read: the consumer side
    /// is sanctioned but the publish side lacks atomic discipline, so
    /// the reader can observe a half-published state.
    UnsanctionedPublish,
    /// Only atomics touch the shared word (sanctioned idiom).
    AtomicShared,
    /// Volatile read of an atomically-published word (sanctioned idiom).
    VolatileRead,
    /// Reserved stores sharing a word with other reserved stores,
    /// atomics, or volatile readers: each slot is owned by exactly one
    /// lane via a gang-collective tail reservation, so the publish
    /// carries atomic-exchange discipline (sanctioned idiom).
    ReservedPublish,
}

impl HazardKind {
    /// Sanctioned idioms are reported for certificate provenance but
    /// do not make a kernel `Racy`.
    #[inline]
    pub fn sanctioned(&self) -> bool {
        matches!(
            self,
            HazardKind::AtomicShared | HazardKind::VolatileRead | HazardKind::ReservedPublish
        )
    }

    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            HazardKind::WriteWrite => "write-write",
            HazardKind::MixedAtomic => "mixed-atomic",
            HazardKind::SnapshotRead => "snapshot-read",
            HazardKind::UnsanctionedPublish => "unsanctioned-publish",
            HazardKind::AtomicShared => "atomic-shared",
            HazardKind::VolatileRead => "volatile-read",
            HazardKind::ReservedPublish => "reserved-publish",
        }
    }
}

/// One deduplicated hazard: a kind, the buffer it lives in, the kernel
/// pair it spans, a representative word and accessor pair, and how
/// many distinct words exhibited it.
#[derive(Clone, Debug)]
pub struct Hazard {
    /// Hazard class.
    pub kind: HazardKind,
    /// Buffer label.
    pub buffer: &'static str,
    /// Representative word index (first word that exhibited it).
    pub index: u32,
    /// Representative byte address.
    pub addr: u64,
    /// Representative accessor pair witnessing the hazard.
    pub accessors: [IrAccessor; 2],
    /// Whether the window was a snapshot (synchronous kernel) window.
    pub snapshot_window: bool,
    /// Number of distinct words that exhibited this (kind, buffer,
    /// kernel-pair) hazard across all windows.
    pub words: u64,
}

impl std::fmt::Display for Hazard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} at {}[{}] (addr {:#x}) {} x {} lanes {}/{} waves {}/{} ({} word(s))",
            self.kind.name(),
            self.buffer,
            self.index,
            self.addr,
            self.accessors[0].kernel,
            self.accessors[1].kernel,
            self.accessors[0].lane,
            self.accessors[1].lane,
            self.accessors[0].wave,
            self.accessors[1].wave,
            self.words,
        )
    }
}

/// Static declaration of a device queue (tail cursor + overflow cell +
/// capacity), registered by queue constructors so the push-bound
/// certifier can recognize tail bumps and drops in the access stream.
#[derive(Clone, Copy, Debug)]
pub struct QueueDecl {
    /// Queue label (its data buffer's label).
    pub label: &'static str,
    /// Byte address of the tail cursor word.
    pub tail_addr: u64,
    /// Byte address of the overflow counter word.
    pub overflow_addr: u64,
    /// Slot capacity of the data buffer.
    pub capacity: u32,
    /// Whether the owner drains overshoot into another queue level
    /// instead of dropping (MLMQ spill path).
    pub spill: bool,
}

/// Observed push behaviour of one declared queue.
#[derive(Clone, Debug)]
pub struct QueueUsage {
    /// The declaration this usage was recorded against.
    pub decl: QueueDecl,
    /// Total device-side tail bumps (pushes) observed.
    pub pushes: u64,
    /// Highest tail value ever reached (device bumps mirrored against
    /// host drain resets).
    pub high_water: u64,
    /// Most pushes observed inside a single race window.
    pub max_window_pushes: u64,
    /// Device-side increments of the overflow counter (dropped pushes).
    pub drops: u64,
}

/// Per-kernel aggregates retained for gang lints and wave accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelStats {
    /// Waves this kernel name executed.
    pub waves: u64,
    /// Largest wave (in lanes).
    pub max_lanes: u64,
    /// Multi-lane gangs whose members were compared.
    pub gangs_checked: u64,
    /// Gangs whose members disagreed on the op-kind sequence.
    pub gangs_divergent: u64,
    /// Gangs whose members disagreed on child-launch counts.
    pub child_divergent: u64,
    /// Whether any wave of this kernel ran with snapshot semantics.
    pub snapshot: bool,
    /// Whether any wave of this kernel ran live (persistent session).
    pub live: bool,
}

/// Lifetime traffic + coalescing shape of one buffer label.
#[derive(Clone, Copy, Debug, Default)]
pub struct BufferTraffic {
    /// Plain + volatile loads.
    pub loads: u64,
    /// Plain stores.
    pub stores: u64,
    /// Atomic RMWs.
    pub atomics: u64,
    /// Adjacent-lane pairs that hit the *same* word (broadcast).
    pub same_word: u64,
    /// Adjacent-lane pairs at unit stride (perfectly coalesced).
    pub unit_stride: u64,
    /// Adjacent-lane pairs at small stride (2..=32 words).
    pub strided: u64,
    /// Adjacent-lane pairs with no spatial relation.
    pub scatter: u64,
}

/// The finished, retained access IR for one device. Everything a
/// static verifier needs; nothing proportional to instruction count.
#[derive(Clone, Debug, Default)]
pub struct AccessIr {
    /// Per-kernel wave/gang aggregates.
    pub kernels: BTreeMap<&'static str, KernelStats>,
    /// Deduplicated hazards across all closed windows.
    pub hazards: Vec<Hazard>,
    /// Push-bound observations for every declared queue, keyed by
    /// queue label then tail address (stable across runs).
    pub queues: Vec<QueueUsage>,
    /// Lifetime per-buffer traffic and coalescing shape.
    pub traffic: BTreeMap<&'static str, BufferTraffic>,
    /// Per-word atomic counts — the hotspot table for the multisplit
    /// scoping report. Keyed (buffer label, word index).
    pub atomic_sites: BTreeMap<(&'static str, u32), u64>,
    /// Race windows closed (barriers + snapshot kernels + final flush).
    pub windows: u64,
    /// Peak number of word summaries retained in any single window —
    /// the recorder's actual memory bound.
    pub peak_window_words: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct LaneSig {
    present: bool,
    gang: u32,
    sig: u64,
    children: u64,
}

#[derive(Clone, Debug)]
struct QueueTrack {
    decl: QueueDecl,
    epoch: u64,
    high_water: u64,
    pushes: u64,
    window_pushes: u64,
    max_window_pushes: u64,
    drops: u64,
}

/// The queues whose tail cursor / overflow counter sit at one address.
#[derive(Clone, Copy, Debug, Default)]
struct QueueCell {
    tail_of: Option<u32>,
    overflow_of: Option<u32>,
}

/// Armed IR recorder, owned by the device (see [`crate::Device::arm_ir`]).
/// Purely observational: arming must not perturb results, timing, or
/// counters.
pub struct IrState {
    /// The current race window: per touched word, its `(label id,
    /// index)` and the witnesses of every class it saw.
    window: Window<(u32, u32), Witnesses>,
    window_snapshot: bool,
    wave: u32,
    kernel: u32,
    kernel_names: Names,
    labels: Labels,
    stream: u32,
    /// Dedup index: (kind, label id, kernel-id pair) → index into
    /// `hazards`. Consulted per hazard at window close, not per access.
    seen: HashMap<(HazardKind, u32, u32, u32), usize>,
    hazards: Vec<Hazard>,
    /// Per kernel id; `None` until the kernel is first seen.
    kernels: Vec<Option<KernelStats>>,
    /// Current wave's per-lane op-kind signature (FNV) + child counts,
    /// by lane.
    wave_lanes: Vec<LaneSig>,
    wave_lane_count: u64,
    queues: Vec<QueueTrack>,
    /// Arena word → 1 + index into `cells`; 0 = no declared queue cell
    /// (4 bytes per arena word up to the highest declared cell).
    cell_index: Vec<u32>,
    cells: Vec<QueueCell>,
    /// Per label id.
    traffic: Vec<BufferTraffic>,
    /// Per label id: the wave's last `(lane, index)` for adjacent-lane
    /// stride pairing; cleared each wave.
    last_touch: Vec<Option<(u32, u32)>>,
    /// Per label id, per word index: atomics.
    atomic_sites: Vec<Vec<u64>>,
    windows: u64,
    peak_window_words: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl IrState {
    /// Fresh recorder.
    pub fn new() -> Self {
        let mut kernel_names = Names::default();
        // Accesses before the first wave run under the empty name.
        let kernel = kernel_names.intern("");
        Self {
            window: Window::default(),
            window_snapshot: false,
            wave: 0,
            kernel,
            kernel_names,
            labels: Labels::default(),
            stream: 0,
            seen: HashMap::new(),
            hazards: Vec::new(),
            kernels: Vec::new(),
            wave_lanes: Vec::new(),
            wave_lane_count: 0,
            queues: Vec::new(),
            cell_index: Vec::new(),
            cells: Vec::new(),
            traffic: Vec::new(),
            last_touch: Vec::new(),
            atomic_sites: Vec::new(),
            windows: 0,
            peak_window_words: 0,
        }
    }

    /// The queue roles of the word at `addr`.
    #[inline]
    fn cell(&self, addr: u64) -> QueueCell {
        match self.cell_index.get((addr / 4) as usize) {
            Some(&c) if c != 0 => self.cells[c as usize - 1],
            _ => QueueCell::default(),
        }
    }

    fn cell_mut(&mut self, addr: u64) -> &mut QueueCell {
        assert!(addr.is_multiple_of(4), "unaligned queue cell {addr:#x}");
        let c = slot(&mut self.cell_index, narrow(addr / 4, "arena word"));
        if *c == 0 {
            self.cells.push(QueueCell::default());
            *c = narrow(self.cells.len() as u64, "queue cell");
        }
        &mut self.cells[*c as usize - 1]
    }

    /// Register a device queue so tail/overflow traffic is certified
    /// against its capacity class. Re-declaring the same tail address
    /// replaces the declaration (pooled queues get re-assembled).
    pub fn declare_queue(&mut self, decl: QueueDecl) {
        if let Some(i) = self.cell(decl.tail_addr).tail_of {
            let old = self.queues[i as usize].decl.overflow_addr;
            self.cell_mut(old).overflow_of = None;
            self.queues[i as usize].decl = decl;
            self.cell_mut(decl.overflow_addr).overflow_of = Some(i);
            return;
        }
        let i = narrow(self.queues.len() as u64, "queue");
        self.queues.push(QueueTrack {
            decl,
            epoch: 0,
            high_water: 0,
            pushes: 0,
            window_pushes: 0,
            max_window_pushes: 0,
            drops: 0,
        });
        self.cell_mut(decl.tail_addr).tail_of = Some(i);
        self.cell_mut(decl.overflow_addr).overflow_of = Some(i);
    }

    pub(crate) fn set_stream(&mut self, stream: u32) {
        self.stream = stream;
    }

    /// This kernel's stats, created on first sight.
    fn kernel_stats(&mut self) -> &mut KernelStats {
        slot(&mut self.kernels, self.kernel).get_or_insert_with(KernelStats::default)
    }

    pub(crate) fn begin_wave(&mut self, kernel: &'static str, snapshot: bool) {
        if snapshot {
            // A synchronous kernel launch orders memory on its stream:
            // whatever live window was accumulating closes here, and
            // the kernel becomes its own window.
            self.close_window();
        }
        self.wave = narrow(u64::from(self.wave) + 1, "wave");
        self.kernel = self.kernel_names.intern(kernel);
        self.window_snapshot = snapshot;
        let st = self.kernel_stats();
        st.waves += 1;
        if snapshot {
            st.snapshot = true;
        } else {
            st.live = true;
        }
        self.wave_lanes.clear();
        self.wave_lane_count = 0;
        self.last_touch.clear();
    }

    pub(crate) fn end_wave(&mut self) {
        self.check_gangs();
        let lanes = self.wave_lane_count;
        let st = self.kernel_stats();
        st.max_lanes = st.max_lanes.max(lanes);
        if self.window_snapshot {
            self.close_window();
            self.window_snapshot = false;
        }
    }

    /// Grid-wide barrier: orders every pre-barrier access before every
    /// post-barrier one — the live window closes.
    pub(crate) fn on_barrier(&mut self) {
        self.close_window();
    }

    fn note_lane(&mut self, lane: u32, gang: u32, kind_tag: u8) -> &mut LaneSig {
        let e = slot(&mut self.wave_lanes, lane);
        if !e.present {
            *e = LaneSig { present: true, gang, sig: FNV_OFFSET, children: 0 };
            self.wave_lane_count += 1;
        }
        e.sig = (e.sig ^ kind_tag as u64).wrapping_mul(FNV_PRIME);
        e
    }

    /// The bookkeeping every memory hook shares: the window witness,
    /// the lane signature and the stride pairing. Returns the label id
    /// for the hook's traffic counter.
    #[inline]
    fn access(&mut self, w: Word, lane: u64, gang: u64, class: AccessClass, kind_tag: u8) -> u32 {
        let a = Thread::new(self.wave, lane, gang, self.kernel);
        let label = self.labels.id(w.buf, w.label);
        let pos = self.window.word(w.addr, || (label, w.index));
        match self.window.class_mut(pos, class as u8) {
            Some(c) => c.note(a),
            None => self.window.insert(pos, class as u8, Witnesses::new(a)),
        }
        self.peak_window_words = self.peak_window_words.max(self.window.len() as u64);
        self.note_lane(a.lane, a.gang, kind_tag);
        let last = slot(&mut self.last_touch, label);
        if let Some((ll, li)) = *last {
            if u64::from(a.lane) == u64::from(ll) + 1 {
                let t = slot(&mut self.traffic, label);
                match (i64::from(w.index) - i64::from(li)).unsigned_abs() {
                    0 => t.same_word += 1,
                    1 => t.unit_stride += 1,
                    2..=32 => t.strided += 1,
                    _ => t.scatter += 1,
                }
            }
        }
        *last = Some((a.lane, w.index));
        label
    }

    /// Plain or volatile load hook.
    pub(crate) fn on_load(&mut self, w: Word, lane: u64, gang: u64, volatile: bool) {
        let class = if volatile { AccessClass::VolatileLoad } else { AccessClass::PlainLoad };
        let label = self.access(w, lane, gang, class, 1);
        slot(&mut self.traffic, label).loads += 1;
    }

    /// Plain store hook.
    pub(crate) fn on_store(&mut self, w: Word, lane: u64, gang: u64) {
        let label = self.access(w, lane, gang, AccessClass::Store, 2);
        slot(&mut self.traffic, label).stores += 1;
    }

    /// Atomic RMW hook (all four flavours).
    pub(crate) fn on_atomic(&mut self, w: Word, lane: u64, gang: u64) {
        self.on_atomic_bulk(w, lane, gang, 1);
    }

    /// Atomic RMW hook for a gang-aggregated bump: one instruction
    /// whose operand covers `n` logical pushes (or drops). Queue
    /// accounting stays per-element-exact under aggregation; the
    /// contention tables count the single instruction that ran.
    pub(crate) fn on_atomic_bulk(&mut self, w: Word, lane: u64, gang: u64, n: u64) {
        let label = self.access(w, lane, gang, AccessClass::Atomic, 3);
        slot(&mut self.traffic, label).atomics += 1;
        *slot(slot(&mut self.atomic_sites, label), w.index) += 1;
        let cell = self.cell(w.addr);
        if let Some(i) = cell.tail_of {
            let q = &mut self.queues[i as usize];
            q.epoch += n;
            q.pushes += n;
            q.window_pushes += n;
            q.high_water = q.high_water.max(q.epoch);
        } else if let Some(i) = cell.overflow_of {
            self.queues[i as usize].drops += n;
        }
    }

    /// Reserved-store hook: a plain store into a slot the storing lane
    /// owns via a gang-collective tail reservation. Counted as store
    /// traffic (it is one at the ISA level), classed separately so the
    /// hazard matrix can sanction it like the atomic-exchange publish
    /// it replaces.
    pub(crate) fn on_reserved_store(&mut self, w: Word, lane: u64, gang: u64) {
        let label = self.access(w, lane, gang, AccessClass::ReservedStore, 5);
        slot(&mut self.traffic, label).stores += 1;
    }

    /// Dynamic-parallelism child launch hook.
    pub(crate) fn on_child_launch(&mut self, lane: u64, gang: u64) {
        self.note_lane(narrow(lane, "lane"), narrow(gang, "gang"), 4).children += 1;
    }

    /// Host-side word write (e.g. a drain resetting a queue tail):
    /// host writes happen between waves and re-anchor the mirrored
    /// tail epoch.
    pub(crate) fn on_host_write(&mut self, addr: u64, val: u32) {
        if let Some(i) = self.cell(addr).tail_of {
            self.queues[i as usize].epoch = val as u64;
        }
    }

    fn check_gangs(&mut self) {
        // Group the wave's lanes by gang: gangs own consecutive phys
        // lanes, so one lane-ordered scan groups them.
        let mut checked = 0u64;
        let mut divergent = 0u64;
        let mut child_div = 0u64;
        let mut first: Option<LaneSig> = None;
        let mut members = 0u64;
        let mut sig_mismatch = false;
        let mut child_mismatch = false;
        let mut flush = |members: u64, sig_mismatch: bool, child_mismatch: bool| {
            if members >= 2 {
                checked += 1;
                divergent += u64::from(sig_mismatch);
                child_div += u64::from(child_mismatch);
            }
        };
        for sig in self.wave_lanes.iter().filter(|s| s.present) {
            match first {
                Some(f) if f.gang == sig.gang => {
                    members += 1;
                    sig_mismatch |= sig.sig != f.sig;
                    child_mismatch |= sig.children != f.children;
                }
                _ => {
                    flush(members, sig_mismatch, child_mismatch);
                    first = Some(*sig);
                    members = 1;
                    sig_mismatch = false;
                    child_mismatch = false;
                }
            }
        }
        flush(members, sig_mismatch, child_mismatch);
        let st = self.kernel_stats();
        st.gangs_checked += checked;
        st.gangs_divergent += divergent;
        st.child_divergent += child_div;
    }

    fn accessor(&self, t: Thread) -> IrAccessor {
        IrAccessor {
            wave: u64::from(t.wave),
            lane: u64::from(t.lane),
            gang: u64::from(t.gang),
            kernel: self.kernel_names.name(t.kernel),
        }
    }

    fn record_hazard(
        &mut self,
        kind: HazardKind,
        (label, index): (u32, u32),
        addr: u64,
        pair: Option<(Thread, Thread)>,
    ) {
        let Some((a, b)) = pair else { return };
        // Symmetric kernel pair: order the ids for dedup.
        let key = (kind, label, a.kernel.min(b.kernel), a.kernel.max(b.kernel));
        match self.seen.entry(key) {
            Entry::Occupied(e) => self.hazards[*e.get()].words += 1,
            Entry::Vacant(e) => {
                e.insert(self.hazards.len());
                let accessors = [self.accessor(a), self.accessor(b)];
                self.hazards.push(Hazard {
                    kind,
                    buffer: self.labels.names.name(label),
                    index,
                    addr,
                    accessors,
                    snapshot_window: self.window_snapshot,
                    words: 1,
                });
            }
        }
    }

    /// Run the hazard matrix over the closing window and drop it.
    /// Every surviving fact is O(1)-sized; unshared words vanish here.
    fn close_window(&mut self) {
        if self.window.len() > 0 {
            self.windows += 1;
        }
        let snapshot = self.window_snapshot;
        let mut window = std::mem::take(&mut self.window);
        // Deterministic order: ascending address.
        window.close(|addr, at, classes| {
            let [pl, vl, st, atomic, rs] = classes;
            use HazardKind::*;
            // Red hazards first, then sanctioned idioms; every
            // applicable kind is recorded (dedup bounds the volume).
            self.record_hazard(WriteWrite, at, addr, self_pair(st));
            self.record_hazard(MixedAtomic, at, addr, cross_pair(st, atomic));
            // A plain store against a reserved store is still a plain
            // store against concurrent traffic: the reserved side owns
            // its slot, the plain side owns nothing.
            self.record_hazard(WriteWrite, at, addr, cross_pair(st, rs));
            if !snapshot {
                // Plain loads read the kernel-entry snapshot inside a
                // synchronous kernel, so they only race in live windows.
                self.record_hazard(SnapshotRead, at, addr, cross_pair(pl, st));
                self.record_hazard(SnapshotRead, at, addr, cross_pair(pl, atomic));
                self.record_hazard(SnapshotRead, at, addr, cross_pair(pl, rs));
            }
            self.record_hazard(UnsanctionedPublish, at, addr, cross_pair(st, vl));
            self.record_hazard(AtomicShared, at, addr, self_pair(atomic));
            self.record_hazard(VolatileRead, at, addr, cross_pair(vl, atomic));
            // Reserved publishes: slot ownership gives them atomic-
            // exchange discipline against each other, against genuine
            // atomics (a recycled slot raced by a scalar exchange), and
            // against live volatile readers (the drain side).
            self.record_hazard(ReservedPublish, at, addr, self_pair(rs));
            self.record_hazard(ReservedPublish, at, addr, cross_pair(rs, atomic));
            self.record_hazard(ReservedPublish, at, addr, cross_pair(vl, rs));
        });
        self.window = window;
        for q in &mut self.queues {
            q.max_window_pushes = q.max_window_pushes.max(q.window_pushes);
            q.window_pushes = 0;
        }
    }

    /// Close the trailing window and hand back the retained IR, folding
    /// the dense lifetime tables into its label-keyed maps.
    pub(crate) fn finish(mut self) -> AccessIr {
        self.close_window();
        let mut queues: Vec<QueueUsage> = self
            .queues
            .into_iter()
            .map(|q| QueueUsage {
                decl: q.decl,
                pushes: q.pushes,
                high_water: q.high_water,
                max_window_pushes: q.max_window_pushes,
                drops: q.drops,
            })
            .collect();
        queues.sort_by(|a, b| {
            (a.decl.label, a.decl.tail_addr).cmp(&(b.decl.label, b.decl.tail_addr))
        });
        let kernel_names = &self.kernel_names;
        let labels = &self.labels.names;
        AccessIr {
            kernels: (self.kernels.iter().enumerate())
                .filter_map(|(id, st)| st.map(|st| (kernel_names.name(id as u32), st)))
                .collect(),
            hazards: self.hazards,
            queues,
            traffic: (self.traffic.iter().enumerate())
                .filter(|(_, t)| t.loads + t.stores + t.atomics > 0)
                .map(|(id, &t)| (labels.name(id as u32), t))
                .collect(),
            atomic_sites: (self.atomic_sites.iter().enumerate())
                .flat_map(|(id, sites)| {
                    (sites.iter().enumerate())
                        .filter(|(_, &n)| n > 0)
                        .map(move |(i, &n)| ((labels.name(id as u32), i as u32), n))
                })
                .collect(),
            windows: self.windows,
            peak_window_words: self.peak_window_words,
        }
    }
}

impl Default for IrState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn th(wave: u32, lane: u64) -> Thread {
        Thread::new(wave, lane, lane, 0)
    }

    fn at(addr: u64, label: &'static str, index: u32) -> Word {
        Word { addr, buf: 0, label, index }
    }

    #[test]
    fn class_summary_keeps_two_distinct_threads() {
        let mut c = Witnesses::new(th(1, 0));
        c.note(th(1, 0)); // same thread — not a second witness
        assert!(c.self_pair().is_none());
        c.note(th(1, 3));
        c.note(th(1, 7)); // third thread — bounded retention ignores it
        let (a, b) = c.self_pair().expect("two distinct threads seen");
        assert_eq!((a.lane, b.lane), (0, 3));
    }

    #[test]
    fn cross_pair_skips_shared_thread() {
        let a = Witnesses::new(th(1, 5));
        let mut b = Witnesses::new(th(1, 5)); // same thread in both classes: no pair yet
        assert!(a.cross_pair(&b).is_none());
        b.note(th(1, 6));
        let (x, y) = a.cross_pair(&b).expect("distinct pair via second");
        assert_eq!((x.lane, y.lane), (5, 6));
    }

    #[test]
    fn wave_counter_panics_past_u32_instead_of_wrapping() {
        let mut ir = IrState::new();
        ir.wave = u32::MAX;
        let wrapped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ir.begin_wave("k", false);
        }));
        assert!(wrapped.is_err(), "wave u32::MAX + 1 must not alias wave 0");
    }

    #[test]
    fn window_hazards_and_barrier_ordering() {
        let mut ir = IrState::new();
        ir.begin_wave("w", false);
        ir.on_store(at(0x1000, "buf", 0), 0, 0);
        ir.on_store(at(0x1000, "buf", 0), 1, 1);
        ir.end_wave();
        ir.on_barrier();
        // Post-barrier store to the same word: ordered, no new hazard.
        ir.begin_wave("w", false);
        ir.on_store(at(0x1000, "buf", 0), 2, 2);
        ir.end_wave();
        let out = ir.finish();
        let ww: Vec<_> = out.hazards.iter().filter(|h| h.kind == HazardKind::WriteWrite).collect();
        assert_eq!(ww.len(), 1, "{:?}", out.hazards);
        assert_eq!(ww[0].words, 1);
    }

    #[test]
    fn snapshot_window_sanctions_plain_loads() {
        let mut ir = IrState::new();
        ir.begin_wave("sync", true);
        ir.on_load(at(0x1000, "dist", 0), 0, 0, false);
        ir.on_atomic(at(0x1000, "dist", 0), 1, 1);
        ir.end_wave();
        let out = ir.finish();
        assert!(
            out.hazards.iter().all(|h| h.kind != HazardKind::SnapshotRead),
            "{:?}",
            out.hazards
        );
        // The same shape in a live wave is a snapshot-read hazard.
        let mut ir = IrState::new();
        ir.begin_wave("live", false);
        ir.on_load(at(0x1000, "dist", 0), 0, 0, false);
        ir.on_atomic(at(0x1000, "dist", 0), 1, 1);
        ir.end_wave();
        let out = ir.finish();
        assert!(out.hazards.iter().any(|h| h.kind == HazardKind::SnapshotRead));
    }

    #[test]
    fn queue_epochs_follow_device_and_host() {
        let mut ir = IrState::new();
        ir.declare_queue(QueueDecl {
            label: "q",
            tail_addr: 0x2000,
            overflow_addr: 0x3000,
            capacity: 4,
            spill: false,
        });
        ir.begin_wave("push", false);
        for lane in 0..6 {
            ir.on_atomic(at(0x2000, "queue_tail", 0), lane, lane);
        }
        ir.end_wave();
        ir.on_host_write(0x2000, 0); // drain
        ir.begin_wave("push", false);
        ir.on_atomic(at(0x2000, "queue_tail", 0), 0, 0);
        ir.on_atomic(at(0x3000, "queue_overflow", 0), 1, 1);
        ir.end_wave();
        let out = ir.finish();
        assert_eq!(out.queues.len(), 1);
        let q = &out.queues[0];
        assert_eq!(q.pushes, 7);
        assert_eq!(q.high_water, 6);
        assert_eq!(q.drops, 1);
        assert_eq!(q.max_window_pushes, 7, "no window boundary between the waves");
    }

    #[test]
    fn gang_signature_divergence_counted() {
        let mut ir = IrState::new();
        ir.begin_wave("gang", true);
        // Gang 0 (lanes 0,1): same op sequence. Gang 1 (lanes 2,3):
        // lane 3 does an extra atomic.
        ir.on_load(at(0x10, "a", 0), 0, 0, false);
        ir.on_load(at(0x14, "a", 1), 1, 0, false);
        ir.on_load(at(0x18, "a", 2), 2, 1, false);
        ir.on_load(at(0x1c, "a", 3), 3, 1, false);
        ir.on_atomic(at(0x20, "acc", 0), 3, 1);
        ir.end_wave();
        let out = ir.finish();
        let st = out.kernels["gang"];
        assert_eq!(st.gangs_checked, 2);
        assert_eq!(st.gangs_divergent, 1);
    }
}
