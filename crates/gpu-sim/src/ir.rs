//! Retained access IR for schedule-universal static verification — the
//! second view of the device's memory-model recorder
//! ([`crate::shadow`]).
//!
//! The dynamic sanitizer ([`crate::san`]) checks the *observed*
//! interleaving and the schedule fuzzer checks N *sampled* lane
//! permutations; a race that no sampled schedule exercises ships
//! silently. This view retains a **bounded per-race-window access
//! summary** — per touched buffer word: which access classes hit it and
//! the first two *distinct threads* per class — and the happens-before
//! structure that orders windows (barriers, snapshot kernel
//! boundaries). Within a window every pair of lanes is treated as
//! concurrent, so any verdict computed over this IR quantifies over
//! **all** interleavings, not one.
//!
//! Memory stays O(touched words per window), not O(ops): the summary is
//! the recorder's window table, and the view adds its lifetime table
//! (per word: loads, stores, atomics, first thread, shared flag), the
//! per-label coalescing shape and the queue and kernel tables. At
//! [`crate::Device::take_ir`] they fold into an [`AccessIr`], whose
//! per-label counts, atomic sites and [`AccessProfile`] are views of the
//! lifetime table. Full traces are never retained: the executor's trace
//! arena ([`crate::trace`]) holds a wave's op traces only until their
//! warps are replayed — one warp at a time until a lane records a gang
//! collective, the rest of the wave (all of a schedule-fuzzed one) until
//! its flush — and reuses the space for the next wave.
//!
//! The IR is consumed by the `rdbs-statan` crate, which runs the
//! hazard matrix over it and emits typed per-kernel certificates.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};

use crate::shadow::{narrow, slot, LaneSig, Names, Thread, Window, Witnesses, Word};

/// Identity of one access. `(wave, lane)` is the *thread key*: two
/// accesses sharing it are program-ordered; any two accesses in the
/// same window with different keys are concurrent under some schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IrAccessor {
    /// Wave counter at access time, counted from `arm_ir`.
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

/// Hazard classes the closure derives from a window. The first four
/// are red (unsanctioned); the last three are the memory-model idioms
/// the kernel discipline explicitly sanctions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HazardKind {
    /// Two stores to one word from distinct threads, at least one of
    /// them plain: the final value is schedule-chosen.
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

/// The rule table both views classify races by: the hazard of two
/// accesses of classes `a` and `b` (either order) from distinct threads
/// on one word in one window; `live` is false inside a synchronous
/// kernel, whose plain loads read its entry snapshot and race nothing.
pub(crate) fn race_kind(a: AccessClass, b: AccessClass, live: bool) -> Option<HazardKind> {
    use AccessClass::*;
    use HazardKind::*;
    Some(match (a.min(b), a.max(b)) {
        // A plain store against a reserved store is still a plain store
        // against concurrent traffic: the reserved side owns its slot,
        // the plain side owns nothing.
        (Store, Store | ReservedStore) => WriteWrite,
        (Store, Atomic) => MixedAtomic,
        (PlainLoad, Store | Atomic | ReservedStore) if live => SnapshotRead,
        (VolatileLoad, Store) => UnsanctionedPublish,
        (Atomic, Atomic) => AtomicShared,
        (VolatileLoad, Atomic) => VolatileRead,
        // Slot ownership gives reserved publishes atomic-exchange
        // discipline against each other, against genuine atomics (a
        // recycled slot raced by a scalar exchange), and against live
        // volatile readers (the drain side).
        (VolatileLoad | Atomic | ReservedStore, ReservedStore) => ReservedPublish,
        _ => return None,
    })
}

/// The class pairs a closing window is checked for, in recording order
/// (red hazards first, then sanctioned idioms; every applicable kind is
/// recorded, dedup bounds the volume). A pair's witnesses come first
/// from its first class.
const PAIRS: [(AccessClass, AccessClass); 12] = {
    use AccessClass::*;
    [
        (Store, Store),
        (Store, Atomic),
        (Store, ReservedStore),
        (PlainLoad, Store),
        (PlainLoad, Atomic),
        (PlainLoad, ReservedStore),
        (Store, VolatileLoad),
        (Atomic, Atomic),
        (VolatileLoad, Atomic),
        (ReservedStore, ReservedStore),
        (ReservedStore, Atomic),
        (VolatileLoad, ReservedStore),
    ]
};

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
    /// Plain and reserved stores.
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
    /// The lifetime table and every kernel's wave window.
    pub profile: AccessProfile,
}

/// One declared queue's usage, its mirrored tail and this window's
/// pushes.
#[derive(Clone, Debug)]
struct QueueTrack {
    usage: QueueUsage,
    epoch: u64,
    window_pushes: u64,
}

/// The queues whose tail cursor / overflow counter sit at one address.
#[derive(Clone, Copy, Debug, Default)]
struct QueueCell {
    tail_of: Option<u32>,
    overflow_of: Option<u32>,
}

/// One kernel's stats and its `(first, last)` wave.
#[derive(Clone, Copy, Debug, Default)]
struct KernelRec {
    stats: KernelStats,
    first: u64,
    last: u64,
}

/// The armed IR view (see [`crate::Device::arm_ir`]): everything the
/// IR keeps besides the recorder's window table.
#[derive(Default)]
pub(crate) struct IrView {
    /// The recorder's wave counter at `arm_ir`.
    base: u32,
    /// Dedup index: (kind, label id, kernel-id pair) → index into
    /// `hazards`. Consulted per hazard at window close, not per access.
    seen: HashMap<(HazardKind, u32, u32, u32), usize>,
    hazards: Vec<Hazard>,
    /// Per kernel id; `None` until the kernel is first seen.
    kernels: Vec<Option<KernelRec>>,
    queues: Vec<QueueTrack>,
    /// Arena word → 1 + index into `cells`; 0 = no declared queue cell
    /// (4 bytes per arena word up to the highest declared cell).
    cell_index: Vec<u32>,
    cells: Vec<QueueCell>,
    /// Per label id: the coalescing shape (counts come from `words`).
    shape: Vec<BufferTraffic>,
    /// Per label id: the wave's last `(lane, index)` for adjacent-lane
    /// stride pairing; cleared each wave.
    last_touch: Vec<Option<(u32, u32)>>,
    /// The lifetime table: per label id, per word index.
    words: Vec<Vec<WordRec>>,
    windows: u64,
    pub(crate) peak_window_words: u64,
}

impl IrView {
    pub(crate) fn new(base: u32) -> Self {
        Self { base, ..Self::default() }
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
    pub(crate) fn declare_queue(&mut self, decl: QueueDecl) {
        if let Some(i) = self.cell(decl.tail_addr).tail_of {
            let old = self.queues[i as usize].usage.decl.overflow_addr;
            self.cell_mut(old).overflow_of = None;
            self.queues[i as usize].usage.decl = decl;
            self.cell_mut(decl.overflow_addr).overflow_of = Some(i);
            return;
        }
        let i = narrow(self.queues.len() as u64, "queue");
        let usage = QueueUsage { decl, pushes: 0, high_water: 0, max_window_pushes: 0, drops: 0 };
        self.queues.push(QueueTrack { usage, epoch: 0, window_pushes: 0 });
        self.cell_mut(decl.tail_addr).tail_of = Some(i);
        self.cell_mut(decl.overflow_addr).overflow_of = Some(i);
    }

    pub(crate) fn begin_wave(&mut self, kernel: u32, wave: u32, snapshot: bool) {
        let wave = u64::from(wave - self.base);
        let k = slot(&mut self.kernels, kernel)
            .get_or_insert(KernelRec { first: wave, ..KernelRec::default() });
        k.last = wave;
        k.stats.waves += 1;
        if snapshot {
            k.stats.snapshot = true;
        } else {
            k.stats.live = true;
        }
        self.last_touch.clear();
    }

    /// Gang agreement over the finished wave's lanes (`present`, in
    /// lane order; a gang owns consecutive lanes).
    pub(crate) fn end_wave(&mut self, present: &[(u32, LaneSig)], kernel: u32) {
        let st = &mut slot(&mut self.kernels, kernel).get_or_insert_with(KernelRec::default).stats;
        for run in present.chunk_by(|a, b| a.1.gang == b.1.gang).filter(|r| r.len() >= 2) {
            let first = run[0].1;
            st.gangs_checked += 1;
            st.gangs_divergent += u64::from(run.iter().any(|(_, s)| s.sig != first.sig));
            st.child_divergent += u64::from(run.iter().any(|(_, s)| s.children != first.children));
        }
        st.max_lanes = st.max_lanes.max(present.len() as u64);
    }

    /// One `class` access by `who` to `w` (label id `label`): the
    /// lifetime table, the stride pairing and the queue accounting. A
    /// gang-aggregated atomic covers `n` logical pushes (or drops):
    /// queue accounting stays per-element-exact under aggregation; the
    /// lifetime table counts the single instruction that ran.
    #[inline]
    pub(crate) fn access(&mut self, w: Word, label: u32, who: Thread, class: AccessClass, n: u64) {
        slot(slot(&mut self.words, label), w.index).note((who.wave - self.base, who.lane), class);
        let last = slot(&mut self.last_touch, label);
        if let Some((ll, li)) = *last {
            if u64::from(who.lane) == u64::from(ll) + 1 {
                let t = slot(&mut self.shape, label);
                match (i64::from(w.index) - i64::from(li)).unsigned_abs() {
                    0 => t.same_word += 1,
                    1 => t.unit_stride += 1,
                    2..=32 => t.strided += 1,
                    _ => t.scatter += 1,
                }
            }
        }
        *last = Some((who.lane, w.index));
        if class != AccessClass::Atomic {
            return;
        }
        let cell = self.cell(w.addr);
        if let Some(i) = cell.tail_of {
            let q = &mut self.queues[i as usize];
            q.epoch += n;
            q.usage.pushes += n;
            q.window_pushes += n;
            q.usage.high_water = q.usage.high_water.max(q.epoch);
        } else if let Some(i) = cell.overflow_of {
            self.queues[i as usize].usage.drops += n;
        }
    }

    /// Host-side word write: host writes happen between waves and
    /// re-anchor the mirrored tail epoch.
    pub(crate) fn on_host_write(&mut self, addr: u64, val: u32) {
        if let Some(i) = self.cell(addr).tail_of {
            self.queues[i as usize].epoch = u64::from(val);
        }
    }

    fn accessor(&self, t: Thread, kernels: &Names) -> IrAccessor {
        IrAccessor {
            wave: u64::from(t.wave - self.base),
            lane: u64::from(t.lane),
            gang: u64::from(t.gang),
            kernel: kernels.name(t.kernel),
        }
    }

    /// Record `kind` at `(label id, index, addr)` if `pair` witnessed
    /// it; `names` are the recorder's kernel and label names.
    fn record_hazard(
        &mut self,
        kind: HazardKind,
        (label, index, addr): (u32, u32, u64),
        pair: Option<(Thread, Thread)>,
        snapshot_window: bool,
        (kernels, labels): (&Names, &Names),
    ) {
        let Some((a, b)) = pair else { return };
        // Symmetric kernel pair: order the ids for dedup.
        let key = (kind, label, a.kernel.min(b.kernel), a.kernel.max(b.kernel));
        match self.seen.entry(key) {
            Entry::Occupied(e) => self.hazards[*e.get()].words += 1,
            Entry::Vacant(e) => {
                e.insert(self.hazards.len());
                let accessors = [self.accessor(a, kernels), self.accessor(b, kernels)];
                self.hazards.push(Hazard {
                    kind,
                    buffer: labels.name(label),
                    index,
                    addr,
                    accessors,
                    snapshot_window,
                    words: 1,
                });
            }
        }
    }

    /// Run the hazard matrix over this view's closing window, in
    /// ascending address order. Every surviving fact is O(1)-sized;
    /// unshared words vanish here.
    pub(crate) fn close(&mut self, window: &mut Window, snapshot: bool, names: (&Names, &Names)) {
        if window.len() > 0 {
            self.windows += 1;
        }
        window.visit_sorted(|addr, (label, index), classes| {
            for (a, b) in PAIRS {
                let Some(kind) = race_kind(a, b, !snapshot) else { continue };
                let (x, y) = (classes[a as usize], classes[b as usize]);
                let pair = if a == b { x.and_then(|c| c.self_pair()) } else { cross_pair(x, y) };
                self.record_hazard(kind, (label, index, addr), pair, snapshot, names);
            }
        });
        for q in &mut self.queues {
            q.usage.max_window_pushes = q.usage.max_window_pushes.max(q.window_pushes);
            q.window_pushes = 0;
        }
    }

    /// Hand back the retained IR, folding the dense tables into its
    /// label-keyed maps; the lifetime table moves into the profile.
    pub(crate) fn finish(self, kernels: &Names, labels: &Names) -> AccessIr {
        let mut queues: Vec<QueueUsage> = self.queues.into_iter().map(|q| q.usage).collect();
        queues.sort_by(|a, b| {
            (a.decl.label, a.decl.tail_addr).cmp(&(b.decl.label, b.decl.tail_addr))
        });
        let mut traffic = BTreeMap::new();
        let mut atomic_sites = BTreeMap::new();
        for (id, words) in self.words.iter().enumerate() {
            // Past the last label the dense table holds only growth slack.
            let name = || labels.name(id as u32);
            let mut t = self.shape.get(id).copied().unwrap_or_default();
            for (i, r) in words.iter().enumerate() {
                t.loads += u64::from(r.loads);
                t.stores += u64::from(r.stores);
                t.atomics += u64::from(r.atomics);
                if r.atomics > 0 {
                    atomic_sites.insert((name(), i as u32), r.atomics.into());
                }
            }
            if t.loads + t.stores + t.atomics > 0 {
                traffic.insert(name(), t);
            }
        }
        let named = (self.kernels.iter().enumerate())
            .filter_map(|(id, k)| k.map(|k| (kernels.name(id as u32), k)))
            .collect::<BTreeMap<_, _>>();
        AccessIr {
            kernels: named.iter().map(|(&name, k)| (name, k.stats)).collect(),
            hazards: self.hazards,
            queues,
            traffic,
            atomic_sites,
            windows: self.windows,
            peak_window_words: self.peak_window_words,
            profile: AccessProfile {
                labels: labels.names.clone(),
                words: self.words,
                kernels: named.iter().map(|(&name, k)| (name, k.first, k.last)).collect(),
            },
        }
    }
}

/// Lifetime access statistics for one word, accumulated from `arm_ir`
/// to `take_ir` (unlike the race window, never cleared at window
/// close).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WordStats {
    /// Plain + volatile loads of the word.
    pub loads: u64,
    /// Plain and reserved stores of the word.
    pub stores: u64,
    /// Atomic RMWs of the word.
    pub atomics: u64,
    /// First `(wave, lane)` to touch the word, for shared detection.
    pub(crate) first: Option<(u64, u64)>,
    pub(crate) shared: bool,
}

impl WordStats {
    /// Whether more than one logical thread (distinct `(wave, lane)`)
    /// touched the word.
    pub fn shared(&self) -> bool {
        self.shared
    }

    /// All accesses to the word.
    pub fn total(&self) -> u64 {
        self.loads + self.stores + self.atomics
    }
}

/// One word's record in the IR's lifetime table. A count past
/// `u32::MAX` within one IR lifetime panics rather than wraps, like the
/// wave counter ([`crate::shadow::narrow`]).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct WordRec {
    pub(crate) loads: u32,
    pub(crate) stores: u32,
    pub(crate) atomics: u32,
    /// First `(wave, lane)` to touch the word.
    first: (u32, u32),
    touched: bool,
    shared: bool,
}

impl WordRec {
    /// Count one `class` access by thread `key` (`(wave, lane)`).
    #[inline]
    pub(crate) fn note(&mut self, key: (u32, u32), class: AccessClass) {
        if !self.touched {
            self.touched = true;
            self.first = key;
        } else if self.first != key {
            self.shared = true;
        }
        let count = match class {
            AccessClass::PlainLoad | AccessClass::VolatileLoad => &mut self.loads,
            AccessClass::Store | AccessClass::ReservedStore => &mut self.stores,
            AccessClass::Atomic => &mut self.atomics,
        };
        *count = count.checked_add(1).expect("a word's access count passed u32::MAX");
    }

    fn stats(&self) -> WordStats {
        WordStats {
            loads: self.loads.into(),
            stores: self.stores.into(),
            atomics: self.atomics.into(),
            first: Some((u64::from(self.first.0), u64::from(self.first.1))),
            shared: self.shared,
        }
    }
}

/// What a run taught about its memory behaviour: per-word access counts
/// and sharing, plus per-kernel wave windows — a view of the IR's
/// lifetime table, read from a taken [`crate::AccessIr`]. This is the
/// evidence the adversarial placement search scouts for — the hottest
/// contended words are where a mistimed fault is most likely to slip
/// past detection. Words are keyed by `(buffer label, word index)`:
/// equal labels share their words, and every query answers in
/// label-then-index order, so everything derived from it is
/// deterministic. The records stay in the dense table (per label id,
/// per word index) and fold into these shapes only when queried.
#[derive(Clone, Debug, Default)]
pub struct AccessProfile {
    /// Label names, by label id.
    pub(crate) labels: Vec<&'static str>,
    /// Per label id, per word index.
    pub(crate) words: Vec<Vec<WordRec>>,
    /// Every kernel's `(name, first wave, last wave)`, in name order.
    pub(crate) kernels: Vec<(&'static str, u64, u64)>,
}

impl AccessProfile {
    /// Every touched word as `(label, index, stats)`, unordered.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (&'static str, u32, WordStats)> + '_ {
        self.words.iter().enumerate().flat_map(move |(label, recs)| {
            (recs.iter().enumerate())
                .filter(|(_, r)| r.touched)
                .map(move |(i, r)| (self.labels[label], i as u32, r.stats()))
        })
    }

    /// Total waves observed.
    pub fn waves(&self) -> u64 {
        self.kernels.iter().map(|k| k.2).max().unwrap_or(0)
    }

    /// Every kernel's wave window, in kernel-name order.
    pub fn kernel_windows(&self) -> Vec<(&'static str, u64, u64)> {
        self.kernels.clone()
    }

    /// `rows` ranked by `key` descending, ties broken by label then
    /// index, cut to `k`.
    fn ranked(
        rows: impl Iterator<Item = (&'static str, u32, WordStats)>,
        k: usize,
        key: impl Fn(&WordStats) -> (u64, u64),
    ) -> Vec<(&'static str, u32, WordStats)> {
        let mut rows: Vec<(&'static str, u32, WordStats)> = rows.collect();
        rows.sort_by(|a, b| key(&b.2).cmp(&key(&a.2)).then(a.0.cmp(b.0)).then(a.1.cmp(&b.1)));
        rows.truncate(k);
        rows
    }

    /// The top `k` *contended* words — touched by multiple logical
    /// threads with at least one atomic — ranked by atomic count, then
    /// total traffic (ties broken by key, so the ranking is
    /// deterministic). These are the shared-queue / distance hot words
    /// where the paper's async hot path concentrates.
    pub fn hottest_contended(&self, k: usize) -> Vec<(&'static str, u32, WordStats)> {
        Self::ranked(self.rows().filter(|(_, _, s)| s.shared && s.atomics > 0), k, |s| {
            (s.atomics, s.total())
        })
    }

    /// Words that mix atomic and plain traffic — the atomic-vs-plain
    /// overlap sites where dropped or duplicated atomics interact with
    /// snapshot visibility. Ranked like
    /// [`AccessProfile::hottest_contended`].
    pub fn overlap_sites(&self, k: usize) -> Vec<(&'static str, u32, WordStats)> {
        Self::ranked(
            self.rows().filter(|(_, _, s)| s.atomics > 0 && s.loads + s.stores > 0),
            k,
            |s| (s.atomics, s.total()),
        )
    }

    /// The top `k` most-*loaded* buffers, load counts summed across
    /// all their words — the read-hot data (e.g. CSR topology arrays)
    /// whose corruption hits every consumer downstream. Per-word
    /// rankings drown wide read-mostly arrays behind a few hot
    /// contended words; aggregating by buffer surfaces them.
    pub fn hottest_buffers(&self, k: usize) -> Vec<(&'static str, u64)> {
        let mut by_buf: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (b, _, s) in self.rows() {
            if s.loads > 0 {
                *by_buf.entry(b).or_insert(0) += s.loads;
            }
        }
        let mut rows: Vec<(&'static str, u64)> = by_buf.into_iter().collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        rows.truncate(k);
        rows
    }
}

/// [`Witnesses::cross_pair`] of two classes the word may not have seen.
fn cross_pair(a: Option<Witnesses>, b: Option<Witnesses>) -> Option<(Thread, Thread)> {
    a?.cross_pair(&b?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shadow::Recorder;
    use AccessClass::*;

    fn th(wave: u32, lane: u64) -> Thread {
        Thread::new(wave, lane, lane, 0)
    }

    fn at(addr: u64, label: &'static str, index: u32) -> Word {
        Word { addr, buf: 0, label, index }
    }

    fn recorder() -> Recorder {
        let mut r = Recorder::default();
        r.arm_ir(&[]);
        r
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
    fn rule_table_is_symmetric_and_names_store_vs_reserved_write_write() {
        let classes = [PlainLoad, VolatileLoad, Store, Atomic, ReservedStore];
        for a in classes {
            for b in classes {
                for live in [false, true] {
                    assert_eq!(race_kind(a, b, live), race_kind(b, a, live), "{a:?} {b:?}");
                }
            }
        }
        assert_eq!(race_kind(ReservedStore, Store, true), Some(HazardKind::WriteWrite));
        assert_eq!(race_kind(PlainLoad, Atomic, false), None, "snapshot loads race nothing");
        assert!(PAIRS.iter().all(|&(a, b)| race_kind(a, b, true).is_some()));
    }

    #[test]
    fn wave_counter_panics_past_u32_instead_of_wrapping() {
        let mut ir = recorder();
        ir.wave = u32::MAX;
        let wrapped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ir.begin_wave("k", false, 0);
        }));
        assert!(wrapped.is_err(), "wave u32::MAX + 1 must not alias wave 0");
    }

    #[test]
    fn window_hazards_and_barrier_ordering() {
        let mut ir = recorder();
        ir.begin_wave("w", false, 0);
        ir.access(at(0x1000, "buf", 0), 0, 0, Store, false, 1);
        ir.access(at(0x1000, "buf", 0), 1, 1, Store, false, 1);
        ir.end_wave();
        ir.on_barrier();
        // Post-barrier store to the same word: ordered, no new hazard.
        ir.begin_wave("w", false, 0);
        ir.access(at(0x1000, "buf", 0), 2, 2, Store, false, 1);
        ir.end_wave();
        let out = ir.take_ir().unwrap();
        let ww: Vec<_> = out.hazards.iter().filter(|h| h.kind == HazardKind::WriteWrite).collect();
        assert_eq!(ww.len(), 1, "{:?}", out.hazards);
        assert_eq!(ww[0].words, 1);
    }

    #[test]
    fn snapshot_window_sanctions_plain_loads() {
        let mut ir = recorder();
        ir.begin_wave("sync", true, 0);
        ir.access(at(0x1000, "dist", 0), 0, 0, PlainLoad, false, 1);
        ir.access(at(0x1000, "dist", 0), 1, 1, Atomic, false, 1);
        ir.end_wave();
        let out = ir.take_ir().unwrap();
        assert!(
            out.hazards.iter().all(|h| h.kind != HazardKind::SnapshotRead),
            "{:?}",
            out.hazards
        );
        // The same shape in a live wave is a snapshot-read hazard.
        let mut ir = recorder();
        ir.begin_wave("live", false, 0);
        ir.access(at(0x1000, "dist", 0), 0, 0, PlainLoad, false, 1);
        ir.access(at(0x1000, "dist", 0), 1, 1, Atomic, false, 1);
        ir.end_wave();
        let out = ir.take_ir().unwrap();
        assert!(out.hazards.iter().any(|h| h.kind == HazardKind::SnapshotRead));
    }

    #[test]
    fn queue_epochs_follow_device_and_host() {
        let mut ir = Recorder::default();
        ir.arm_ir(&[QueueDecl {
            label: "q",
            tail_addr: 0x2000,
            overflow_addr: 0x3000,
            capacity: 4,
            spill: false,
        }]);
        ir.begin_wave("push", false, 0);
        for lane in 0..6 {
            ir.access(at(0x2000, "queue_tail", 0), lane, lane, Atomic, false, 1);
        }
        ir.end_wave();
        ir.on_host_write(0x2000, 0); // drain
        ir.begin_wave("push", false, 0);
        ir.access(at(0x2000, "queue_tail", 0), 0, 0, Atomic, false, 1);
        ir.access(at(0x3000, "queue_overflow", 0), 1, 1, Atomic, false, 1);
        ir.end_wave();
        let out = ir.take_ir().unwrap();
        assert_eq!(out.queues.len(), 1);
        let q = &out.queues[0];
        assert_eq!(q.pushes, 7);
        assert_eq!(q.high_water, 6);
        assert_eq!(q.drops, 1);
        assert_eq!(q.max_window_pushes, 7, "no window boundary between the waves");
    }

    #[test]
    fn gang_signature_divergence_counted() {
        let mut ir = recorder();
        ir.begin_wave("gang", true, 0);
        // Gang 0 (lanes 0,1): same op sequence. Gang 1 (lanes 2,3):
        // lane 3 does an extra atomic.
        ir.access(at(0x10, "a", 0), 0, 0, PlainLoad, false, 1);
        ir.access(at(0x14, "a", 1), 1, 0, PlainLoad, false, 1);
        ir.access(at(0x18, "a", 2), 2, 1, PlainLoad, false, 1);
        ir.access(at(0x1c, "a", 3), 3, 1, PlainLoad, false, 1);
        ir.access(at(0x20, "acc", 0), 3, 1, Atomic, false, 1);
        ir.end_wave();
        let out = ir.take_ir().unwrap();
        let st = out.kernels["gang"];
        assert_eq!(st.gangs_checked, 2);
        assert_eq!(st.gangs_divergent, 1);
    }
}
