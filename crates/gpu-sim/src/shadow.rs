//! The one memory-model recorder and its dense shadow tables.
//!
//! Two views read what the [`Recorder`] records: the sanitizer
//! ([`crate::san`]), which reports violations of the observed
//! interleaving at access time, and the access IR ([`crate::ir`]), whose
//! hazard matrix quantifies over every interleaving when a race window
//! closes. Each lane access, wave boundary, scatter-flush access, child
//! launch, barrier and host write calls the recorder once; it keeps
//!
//! * **one window table** ([`Window`]): per word an access touched in
//!   the current race window, the first two distinct threads
//!   ([`Witnesses`]) of each of the IR's five access classes the word
//!   saw. The sanitizer reads the first witness of each class at access
//!   time; the IR runs its hazard matrix over the records when the
//!   window closes (grid barrier, synchronous-kernel boundary,
//!   `take_ir`);
//! * **one lifetime table** (the IR view's per-word loads, stores,
//!   atomics, first thread and shared flag), living from `arm_ir` to
//!   `take_ir`: the IR's per-label counts and atomic sites and the
//!   adversary's [`crate::AccessProfile`] are views of it;
//! * **one lane table**: each lane's op-kind signature and child
//!   launches in the current wave, read by both views' gang checks.
//!
//! Each view costs only while armed: with the sanitizer alone the window
//! records no volatile loads and no synchronous kernel's plain loads
//! (the sanitizer never reads them), and no lifetime table exists.
//!
//! Everything lives in flat vectors, never in hashed or ordered maps: a
//! [`Thread`] is one 16-byte id, labels and kernel names are interned
//! once ([`Names`], [`Labels`]), and the window resets in O(touched
//! words). Its dense index costs 4 bytes per arena word up to the
//! highest word it ever touched, bounded by the device's own allocation
//! (arena addresses are never reused). Each touched word adds a 16-byte
//! header (arena word, record list, label id, word index) and each class
//! it saw a 40-byte record (two 16-byte threads, link and class); each
//! word in the lifetime table costs 24 bytes (three `u32` counts, the
//! first thread's wave and lane, two flags).
//!
//! The two views share the window. Arming a view while the other is
//! armed closes it for both, as a grid barrier would, so neither view
//! sees the other's earlier records; `take_ir` closes only the IR's
//! window, and the sanitizer's runs on. Each view numbers waves from its
//! own arming.

use std::collections::HashMap;

use crate::ir::{AccessClass, AccessIr, IrView, QueueDecl};
use crate::san::{SanView, SanViolation};

/// Compact identity of one simulated thread. `(wave, lane)` is the
/// thread key: two accesses sharing it are program-ordered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Thread {
    /// The recorder's wave counter at access time.
    pub(crate) wave: u32,
    /// Physical lane id ([`crate::Lane::phys_id`]).
    pub(crate) lane: u32,
    /// Gang/item id (`tid`; equals the lane for plain launches).
    pub(crate) gang: u32,
    /// Interned kernel name.
    pub(crate) kernel: u32,
}

impl Thread {
    /// A thread id from the hooks' wide coordinates; see [`narrow`].
    #[inline]
    pub(crate) fn new(wave: u32, lane: u64, gang: u64, kernel: u32) -> Self {
        Self { wave, lane: narrow(lane, "lane"), gang: narrow(gang, "gang"), kernel }
    }

    /// Same simulated thread — program order applies.
    #[inline]
    pub(crate) fn same_thread(self, other: Thread) -> bool {
        self.wave == other.wave && self.lane == other.lane
    }
}

/// `v` as a 32-bit thread coordinate. Lane and gang ids stay below
/// [`crate::kernel::MAX_LAUNCH_LANES`] (2^25); a wave counter past
/// `u32::MAX` panics (a catchable panic, like any refused launch)
/// instead of wrapping, because a wrapped wave would make two different
/// threads compare [`Thread::same_thread`] and hide their race.
#[inline]
pub(crate) fn narrow(v: u64, what: &str) -> u32 {
    match u32::try_from(v) {
        Ok(x) => x,
        Err(_) => panic!("{what} {v} does not fit the shadow tables' 32-bit ids"),
    }
}

/// `&'static str` names (kernel names, buffer labels) interned by
/// content, in first-seen order. Interning hashes the name, so it runs
/// once per wave (kernels) or once per buffer relabel ([`Labels`]),
/// never per access.
#[derive(Clone, Debug, Default)]
pub(crate) struct Names {
    pub(crate) names: Vec<&'static str>,
    ids: HashMap<&'static str, u32>,
}

impl Names {
    /// The id of `name`, interning it on first sight.
    pub(crate) fn intern(&mut self, name: &'static str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = narrow(self.names.len() as u64, "name id");
        self.names.push(name);
        self.ids.insert(name, id);
        id
    }

    /// The name behind an id.
    #[inline]
    pub(crate) fn name(&self, id: u32) -> &'static str {
        self.names[id as usize]
    }
}

/// Buffer-label ids, cached per buffer id. A buffer is relabelled only
/// when the pool recycles it, so the cached `&'static str` is almost
/// always the very pointer the hook passes; only a miss interns by
/// content (two buffers with equal labels share one id, like the
/// label-keyed maps the tables fold into).
#[derive(Clone, Debug, Default)]
pub(crate) struct Labels {
    pub(crate) names: Names,
    by_buf: Vec<Option<(&'static str, u32)>>,
}

impl Labels {
    /// The label id of buffer `buf`, currently labelled `label`.
    #[inline]
    pub(crate) fn id(&mut self, buf: u32, label: &'static str) -> u32 {
        if let Some(Some((cached, id))) = self.by_buf.get(buf as usize) {
            if std::ptr::eq(*cached, label) {
                return *id;
            }
        }
        self.miss(buf, label)
    }

    #[cold]
    fn miss(&mut self, buf: u32, label: &'static str) -> u32 {
        let id = self.names.intern(label);
        if self.by_buf.len() <= buf as usize {
            self.by_buf.resize(buf as usize + 1, None);
        }
        self.by_buf[buf as usize] = Some((label, id));
        id
    }
}

/// The slot of `key` in a dense table (per label, kernel, lane or
/// word index), growing it with defaults when `key` is past its end —
/// by an eighth past the need: amortized, without the doubling slack a
/// plain `resize` would reserve.
#[inline]
pub(crate) fn slot<T: Clone + Default>(table: &mut Vec<T>, key: u32) -> &mut T {
    let k = key as usize;
    if k >= table.len() {
        let want = k + 1 + k / 8;
        table.reserve_exact(want - table.len());
        table.resize(want, T::default());
    }
    &mut table[k]
}

/// One accessed word as the hooks see it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Word {
    /// Flat device byte address (word-aligned).
    pub(crate) addr: u64,
    /// Id of the buffer containing the word.
    pub(crate) buf: u32,
    /// The buffer's current label.
    pub(crate) label: &'static str,
    /// Word index within the buffer.
    pub(crate) index: u32,
}

/// Bounded summary of one access class on one word within a window:
/// the first accessor, and the first from a *different thread*
/// (`second` equals `first` until one arrives). Two witnesses suffice
/// to decide every pairwise hazard, so retention is O(1) per (word,
/// class) no matter how many lanes pile on.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Witnesses {
    pub(crate) first: Thread,
    second: Thread,
}

impl Witnesses {
    pub(crate) fn new(a: Thread) -> Self {
        Self { first: a, second: a }
    }

    /// Another access of the class, by `a`.
    #[inline]
    pub(crate) fn note(&mut self, a: Thread) {
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
    pub(crate) fn self_pair(&self) -> Option<(Thread, Thread)> {
        Some((self.first, self.second()?))
    }

    /// A pair of distinct-thread accessors, one from `self`, one from
    /// `other` (cross-class hazard witness).
    #[inline]
    pub(crate) fn cross_pair(&self, other: &Witnesses) -> Option<(Thread, Thread)> {
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

/// A touched word of the window: its arena word, the head of its
/// class-record list, and its label id and word index (the IR reports
/// hazards by them).
#[derive(Clone, Copy, Debug)]
struct Touched {
    word: u32,
    head: u32,
    label: u32,
    index: u32,
}

/// One access-class record of a touched word (list-linked per word).
#[derive(Clone, Copy, Debug)]
struct Rec {
    seen: Witnesses,
    next: u32,
    class: u8,
}

/// End of a word's class-record list; the record index of a class the
/// word has not seen.
pub(crate) const NIL: u32 = u32::MAX;

/// Access classes a window record can carry (the IR's five).
pub(crate) const CLASSES: usize = 5;

/// One race window's per-word access records, indexed by arena word.
/// Records are numbered in the order they were made, so of two records
/// of one word the lower index is the earlier.
#[derive(Clone, Debug, Default)]
pub(crate) struct Window {
    /// Arena word → 1 + position in `touched`; 0 = untouched.
    index: Vec<u32>,
    /// Touched words in first-touch order.
    touched: Vec<Touched>,
    recs: Vec<Rec>,
}

impl Window {
    /// The position of the word at `addr`, and whether this call
    /// inserted it (with its label id and word index).
    #[inline]
    pub(crate) fn word(&mut self, addr: u64, label: u32, index: u32) -> (usize, bool) {
        assert!(addr.is_multiple_of(4), "unaligned word address {addr:#x}");
        let word = narrow(addr / 4, "arena word");
        match *slot(&mut self.index, word) {
            0 => {
                self.touched.push(Touched { word, head: NIL, label, index });
                self.index[word as usize] = narrow(self.touched.len() as u64, "window word");
                (self.touched.len() - 1, true)
            }
            p => (p as usize - 1, false),
        }
    }

    /// The record index of every class word `pos` saw, by class;
    /// [`NIL`] for a class it did not see.
    #[inline]
    pub(crate) fn recs(&self, pos: usize) -> [u32; CLASSES] {
        let mut out = [NIL; CLASSES];
        let mut r = self.touched[pos].head;
        while r != NIL {
            let rec = &self.recs[r as usize];
            out[rec.class as usize] = r;
            r = rec.next;
        }
        out
    }

    /// The witnesses of record `r` (`None` for [`NIL`]).
    #[inline]
    fn get(&self, r: u32) -> Option<Witnesses> {
        (r != NIL).then(|| self.recs[r as usize].seen)
    }

    /// What the sanitizer reads of a word whose records are `r`: the
    /// first plain store, the first atomic *or* reserved store (which
    /// carries atomic publish discipline), and the first plain load,
    /// each with its class.
    #[inline]
    pub(crate) fn firsts(&self, r: &[u32; CLASSES]) -> [Option<(AccessClass, Thread)>; 3] {
        use AccessClass::*;
        let first = |c: AccessClass| {
            let r = r[c as usize];
            (r != NIL).then(|| (c, self.recs[r as usize].seen.first))
        };
        let atomic =
            if r[Atomic as usize] < r[ReservedStore as usize] { Atomic } else { ReservedStore };
        [first(Store), first(atomic), first(PlainLoad)]
    }

    /// Note `who` as a `class` access of word `pos`, whose record of
    /// that class is `r` ([`NIL`] inserts one).
    #[inline]
    pub(crate) fn note(&mut self, pos: usize, class: AccessClass, r: u32, who: Thread) {
        if r != NIL {
            self.recs[r as usize].seen.note(who);
            return;
        }
        let next = self.touched[pos].head;
        self.touched[pos].head = narrow(self.recs.len() as u64, "window record");
        self.recs.push(Rec { seen: Witnesses::new(who), next, class: class as u8 });
    }

    /// Words touched in this window.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.touched.len()
    }

    /// Visit every touched word in ascending address order — `(addr,
    /// (label id, index), class records)`. The window keeps its records.
    pub(crate) fn visit_sorted(
        &mut self,
        mut visit: impl FnMut(u64, (u32, u32), [Option<Witnesses>; CLASSES]),
    ) {
        self.touched.sort_unstable_by_key(|t| t.word);
        for (p, t) in self.touched.iter().enumerate() {
            self.index[t.word as usize] = p as u32 + 1;
        }
        for pos in 0..self.touched.len() {
            let t = self.touched[pos];
            visit(u64::from(t.word) * 4, (t.label, t.index), self.recs(pos).map(|r| self.get(r)));
        }
    }

    /// Forget every record: O(touched words), the index keeps its size.
    pub(crate) fn reset(&mut self) {
        for t in &self.touched {
            self.index[t.word as usize] = 0;
        }
        self.touched.clear();
        self.recs.clear();
    }
}

/// One lane's entry in the current wave's lane table.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct LaneSig {
    present: bool,
    pub(crate) gang: u32,
    /// FNV-1a over the lane's op kinds (filled while the IR is armed).
    pub(crate) sig: u64,
    /// Child kernels the lane launched.
    pub(crate) children: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The lane-signature tag of an access class (child launches are 4).
fn tag(class: AccessClass) -> u8 {
    match class {
        AccessClass::PlainLoad | AccessClass::VolatileLoad => 1,
        AccessClass::Store => 2,
        AccessClass::Atomic => 3,
        AccessClass::ReservedStore => 5,
    }
}

/// The armed memory-model recorder, owned by the device while the
/// sanitizer or the IR view is armed. Purely observational: arming must
/// not perturb results, timing, or counters.
pub(crate) struct Recorder {
    window: Window,
    /// Waves begun since the recorder was made; each view numbers its
    /// waves from its arming.
    pub(crate) wave: u32,
    kernel: u32,
    snapshot: bool,
    kernels: Names,
    labels: Labels,
    /// The current wave's lanes, by physical lane id.
    lanes: Vec<LaneSig>,
    /// The current wave's present lanes, in lane order (wave-end scratch).
    present: Vec<(u32, LaneSig)>,
    san: Option<SanView>,
    ir: Option<IrView>,
}

impl Default for Recorder {
    fn default() -> Self {
        let mut kernels = Names::default();
        // Accesses before the first wave run under the empty name.
        let kernel = kernels.intern("");
        Self {
            window: Window::default(),
            wave: 0,
            kernel,
            snapshot: false,
            kernels,
            labels: Labels::default(),
            lanes: Vec::new(),
            present: Vec::new(),
            san: None,
            ir: None,
        }
    }
}

impl Recorder {
    /// A view is armed now (`ir`: the IR view). With the other view
    /// disarmed the recorder starts afresh; with it armed, the window
    /// closes for both views.
    fn open(&mut self, ir: bool) {
        let other_armed = if ir { self.san.is_some() } else { self.ir.is_some() };
        if other_armed {
            self.close_window();
        } else {
            *self = Self::default();
        }
    }

    /// Arm (or re-arm, with an empty log) the sanitizer view.
    pub(crate) fn arm_sanitizer(&mut self) {
        self.open(false);
        self.san = Some(SanView::new(self.wave));
    }

    /// Arm (or re-arm, dropping what it recorded) the IR view, with the
    /// queues declared so far.
    pub(crate) fn arm_ir(&mut self, decls: &[QueueDecl]) {
        self.open(true);
        let mut ir = IrView::new(self.wave);
        for &d in decls {
            ir.declare_queue(d);
        }
        self.ir = Some(ir);
    }

    /// Whether the sanitizer view is armed.
    pub(crate) fn san_armed(&self) -> bool {
        self.san.is_some()
    }

    /// Whether the IR view is armed.
    pub(crate) fn ir_armed(&self) -> bool {
        self.ir.is_some()
    }

    /// Sanitizer violations recorded so far (capped).
    pub(crate) fn violations(&self) -> &[SanViolation] {
        self.san.as_ref().map_or(&[], SanView::violations)
    }

    /// Sanitizer violations so far, including any beyond the cap.
    pub(crate) fn total(&self) -> u64 {
        self.san.as_ref().map_or(0, SanView::total)
    }

    /// Declare a device queue to the armed IR view (if any).
    pub(crate) fn declare_queue(&mut self, decl: QueueDecl) {
        if let Some(ir) = self.ir.as_mut() {
            ir.declare_queue(decl);
        }
    }

    /// Disarm the IR view, closing its window, and hand back the
    /// retained IR. The sanitizer, if armed, keeps its window.
    pub(crate) fn take_ir(&mut self) -> Option<AccessIr> {
        self.close_ir();
        let ir = self.ir.take()?;
        Some(ir.finish(&self.kernels, &self.labels.names))
    }

    /// Run the IR's hazard matrix over the window (if armed).
    fn close_ir(&mut self) {
        if let Some(ir) = self.ir.as_mut() {
            ir.close(&mut self.window, self.snapshot, (&self.kernels, &self.labels.names));
        }
    }

    /// The race window closes for both views.
    fn close_window(&mut self) {
        self.close_ir();
        self.window.reset();
    }

    /// A wave (one `execute` call) of `kernel` begins on `stream`.
    /// Synchronous (snapshot) kernels are their own race window.
    pub(crate) fn begin_wave(&mut self, kernel: &'static str, snapshot: bool, stream: u32) {
        if snapshot {
            // A synchronous kernel launch orders memory on its stream:
            // whatever live window was accumulating closes here.
            self.close_window();
        }
        self.wave = narrow(u64::from(self.wave) + 1, "wave");
        self.kernel = self.kernels.intern(kernel);
        self.snapshot = snapshot;
        self.lanes.clear();
        if let Some(san) = self.san.as_mut() {
            san.begin_wave(self.kernels.name(self.kernel), stream);
        }
        if let Some(ir) = self.ir.as_mut() {
            ir.begin_wave(self.kernel, self.wave, snapshot);
        }
    }

    /// The wave finished: run both views' gang checks over the lane
    /// table, and close the window if it was a synchronous kernel.
    pub(crate) fn end_wave(&mut self) {
        self.present.clear();
        let lanes = self.lanes.iter().enumerate().filter(|(_, s)| s.present);
        self.present.extend(lanes.map(|(lane, s)| (lane as u32, *s)));
        if let Some(san) = self.san.as_mut() {
            san.end_wave(&self.present, self.wave, self.kernel);
        }
        if let Some(ir) = self.ir.as_mut() {
            ir.end_wave(&self.present, self.kernel);
        }
        if self.snapshot {
            self.close_window();
            self.snapshot = false;
        }
    }

    /// A grid-wide barrier: every pre-barrier access is ordered before
    /// every post-barrier one, so the window closes.
    pub(crate) fn on_barrier(&mut self) {
        self.close_window();
    }

    fn note_lane(&mut self, lane: u32, gang: u32, tag: u8) -> &mut LaneSig {
        let e = slot(&mut self.lanes, lane);
        if !e.present {
            *e = LaneSig { present: true, gang, sig: FNV_OFFSET, children: 0 };
        }
        e.sig = (e.sig ^ u64::from(tag)).wrapping_mul(FNV_PRIME);
        e
    }

    /// Hook: one lane access of `class` to `w`. `poisoned`: the word
    /// reads as never written (the sanitizer's uninit check); `n`: the
    /// logical pushes or drops a gang-aggregated atomic covers.
    pub(crate) fn access(
        &mut self,
        w: Word,
        lane: u64,
        gang: u64,
        class: AccessClass,
        poisoned: bool,
        n: u64,
    ) {
        let who = Thread::new(self.wave, lane, gang, self.kernel);
        // Only the IR reads label ids, and only from records it made.
        let mut label = 0;
        if let Some(ir) = self.ir.as_mut() {
            label = self.labels.id(w.buf, w.label);
            ir.access(w, label, who, class, n);
            self.note_lane(who.lane, who.gang, tag(class));
        }
        if let (Some(san), true) = (self.san.as_mut(), poisoned) {
            san.uninit(w, who, class);
        }
        // The sanitizer never reads volatile loads, nor plain loads of a
        // synchronous kernel (they read its entry snapshot).
        let san_reads = self.san.is_some()
            && class != AccessClass::VolatileLoad
            && !(class == AccessClass::PlainLoad && self.snapshot);
        if !san_reads && self.ir.is_none() {
            return;
        }
        let (pos, inserted) = self.window.word(w.addr, label, w.index);
        let recs = self.window.recs(pos);
        if san_reads {
            let priors = self.window.firsts(&recs);
            // Only another thread's access can race this one.
            if priors.iter().flatten().any(|(_, t)| !t.same_thread(who)) {
                if let Some(san) = self.san.as_mut() {
                    san.check(w, who, class, priors, self.snapshot);
                }
            }
        }
        // Second witnesses serve only the IR.
        if self.ir.is_some() || recs[class as usize] == NIL {
            self.window.note(pos, class, recs[class as usize], who);
        }
        if let (Some(ir), true) = (self.ir.as_mut(), inserted) {
            ir.peak_window_words = ir.peak_window_words.max(self.window.len() as u64);
        }
    }

    /// Hook: one child-kernel launch by `lane` of gang item `gang`.
    pub(crate) fn on_child_launch(&mut self, lane: u64, gang: u64) {
        self.note_lane(narrow(lane, "lane"), narrow(gang, "gang"), 4).children += 1;
    }

    /// Hook: host-side word write (e.g. a drain resetting a queue tail).
    pub(crate) fn on_host_write(&mut self, addr: u64, val: u32) {
        if let Some(ir) = self.ir.as_mut() {
            ir.on_host_write(addr, val);
        }
    }
}

#[cfg(test)]
mod model;

#[cfg(test)]
mod tests {
    use super::*;

    fn th(wave: u32, lane: u64) -> Thread {
        Thread::new(wave, lane, lane, 0)
    }

    #[test]
    fn narrow_keeps_u32_max_and_panics_past_it() {
        assert_eq!(narrow(u64::from(u32::MAX), "wave"), u32::MAX);
        let past = std::panic::catch_unwind(|| narrow(u64::from(u32::MAX) + 1, "wave"));
        assert!(past.is_err(), "a wave past u32::MAX must panic, never wrap to 0");
    }

    #[test]
    fn window_keeps_only_seen_classes_and_resets_touched_words() {
        use AccessClass::*;
        let mut w = Window::default();
        let (a, fresh) = w.word(0x1000, 7, 0);
        assert!(fresh);
        w.note(a, Atomic, NIL, th(1, 3));
        let (b, _) = w.word(0x0ff0, 8, 1);
        w.note(b, PlainLoad, NIL, th(1, 1));
        w.note(b, ReservedStore, NIL, th(1, 5));
        assert_eq!(w.word(0x1000, 99, 9), (a, false), "a touched word keeps its slot and header");
        let seen = |w: &Window, pos| w.recs(pos).map(|r| w.get(r).map(|s| s.first.lane));
        assert_eq!(seen(&w, a), [None, None, None, Some(3), None]);
        let r = w.recs(b)[ReservedStore as usize];
        w.note(b, ReservedStore, r, th(1, 6));
        assert_eq!(seen(&w, b), [Some(1), None, None, None, Some(5)]);
        assert_eq!(w.len(), 2);
        let mut visited = Vec::new();
        w.visit_sorted(|addr, h, c| visited.push((addr, h, c.iter().flatten().count())));
        assert_eq!(visited, vec![(0x0ff0, (8, 1), 2), (0x1000, (7, 0), 1)], "address order");
        assert_eq!(w.word(0x1000, 7, 0), (1, false), "sorting re-indexes the words");
        w.reset();
        assert_eq!(w.len(), 0);
        let (again, _) = w.word(0x1000, 9, 0);
        assert_eq!(w.recs(again), [NIL; CLASSES], "the reset forgot the old records");
    }

    #[test]
    fn record_sizes_match_the_documented_bytes() {
        use std::mem::size_of;
        assert_eq!(size_of::<Thread>(), 16);
        assert_eq!(size_of::<Touched>(), 16);
        assert_eq!(size_of::<Rec>(), 40);
        assert_eq!(size_of::<crate::ir::WordRec>(), 24);
    }

    #[test]
    fn labels_intern_by_content_and_follow_relabels() {
        let mut l = Labels::default();
        let dist = l.id(0, "dist");
        assert_eq!(l.id(0, "dist"), dist);
        let other = String::from("dist").leak();
        assert_eq!(l.id(3, other), dist, "equal labels share an id");
        let q = l.id(0, "queue");
        assert_ne!(q, dist, "a recycled buffer picks up its new label");
        assert_eq!(l.names.name(q), "queue");
        assert_eq!(l.names.name(dist), "dist");
    }

    #[test]
    fn arming_a_view_mid_window_closes_the_window_for_both() {
        let at = Word { addr: 0x40, buf: 0, label: "buf", index: 0 };
        let store = |r: &mut Recorder, lane| r.access(at, lane, lane, AccessClass::Store, false, 1);
        // The IR taken inside the sanitizer's live window: the
        // sanitizer's window runs on and sees the store before the take.
        let mut r = Recorder::default();
        r.arm_sanitizer();
        r.arm_ir(&[]);
        r.begin_wave("w1", false, 0);
        store(&mut r, 0);
        r.end_wave();
        assert!(r.take_ir().unwrap().hazards.is_empty());
        r.begin_wave("w2", false, 0);
        store(&mut r, 1);
        r.end_wave();
        assert_eq!(r.total(), 1, "{:?}", r.violations());
        assert_eq!(r.violations()[0].waves, [1, 2]);
        // The IR armed inside the sanitizer's live window: the window
        // closes for both, and neither sees the store before the arming.
        r.arm_ir(&[]);
        r.begin_wave("w3", false, 0);
        store(&mut r, 2);
        r.end_wave();
        let ir = r.take_ir().unwrap();
        assert_eq!(r.total(), 1, "{:?}", r.violations());
        assert!(ir.hazards.is_empty(), "{:?}", ir.hazards);
        assert_eq!((ir.kernels["w3"].waves, ir.windows), (1, 1));
        // The sanitizer armed inside the IR's live window: the IR's
        // window closes there, and the sanitizer starts afresh.
        let mut r = Recorder::default();
        r.arm_ir(&[]);
        r.begin_wave("w1", false, 0);
        store(&mut r, 0);
        r.end_wave();
        r.arm_sanitizer();
        r.begin_wave("w2", false, 0);
        store(&mut r, 1);
        r.end_wave();
        assert_eq!(r.total(), 0, "{:?}", r.violations());
        let ir = r.take_ir().unwrap();
        assert!(ir.hazards.is_empty(), "{:?}", ir.hazards);
        assert_eq!((ir.windows, ir.peak_window_words), (2, 1));
    }
}
