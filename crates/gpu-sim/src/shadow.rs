//! Dense shadow tables shared by the sanitizer ([`crate::san`]) and
//! the access-IR recorder ([`crate::ir`]).
//!
//! Both instruments watch every lane access of an armed device, so
//! their per-access state is the hot path of every armed run. It lives
//! in flat vectors, never in hashed or ordered maps:
//!
//! * a [`Thread`] is one compact 16-byte thread id — wave, physical
//!   lane, gang and an interned kernel name;
//! * buffer labels and kernel names are interned once ([`Names`]); a
//!   hook resolves its buffer's label id through a per-buffer cache
//!   ([`Labels`]) with one index and one pointer compare;
//! * a [`Window`] is the race-window table, indexed by arena word
//!   (`addr / 4`). It keeps a record only for the access classes a word
//!   actually saw, and resets in O(touched words) when the window
//!   closes (grid barrier, synchronous-kernel boundary, `take_ir`).
//!
//! The window's dense index costs 4 bytes per arena word up to the
//! highest word the window ever touched, bounded by the device's own
//! allocation (arena addresses are never reused, so by every word the
//! device ever allocated). Each touched word adds a header (8 bytes in
//! the sanitizer, 16 with the IR's label and index) and one record per
//! class it saw (24 bytes in the sanitizer, 40 in the IR recorder).

use std::collections::HashMap;

/// Compact identity of one simulated thread. `(wave, lane)` is the
/// thread key: two accesses sharing it are program-ordered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Thread {
    /// Wave counter of the armed instrument at access time.
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
    names: Vec<&'static str>,
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

    /// The id of `name`, if it was interned (query time).
    pub(crate) fn get(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
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

/// A touched word of the current window: its arena word, the head of
/// its class-record list, and the instrument's per-word header.
#[derive(Clone, Copy, Debug)]
struct Touched<H> {
    word: u32,
    head: u32,
    header: H,
}

/// One access-class record of a touched word (list-linked per word).
#[derive(Clone, Copy, Debug)]
struct Rec<K> {
    val: K,
    next: u32,
    class: u8,
}

/// End of a word's class-record list.
const NIL: u32 = u32::MAX;

/// Access classes a window record can carry (the IR's five).
pub(crate) const CLASSES: usize = 5;

/// One race window's per-word access records, indexed by arena word.
/// `H` is the instrument's per-word header, `K` its per-class record.
#[derive(Clone, Debug)]
pub(crate) struct Window<H, K> {
    /// Arena word → 1 + position in `touched`; 0 = untouched.
    index: Vec<u32>,
    /// Touched words in first-touch order.
    touched: Vec<Touched<H>>,
    recs: Vec<Rec<K>>,
}

impl<H, K> Default for Window<H, K> {
    fn default() -> Self {
        Self { index: Vec::new(), touched: Vec::new(), recs: Vec::new() }
    }
}

impl<H: Copy, K: Copy> Window<H, K> {
    /// The position of the word at `addr`, inserting it with `header()`
    /// if this window has not touched it yet.
    #[inline]
    pub(crate) fn word(&mut self, addr: u64, header: impl FnOnce() -> H) -> usize {
        assert!(addr.is_multiple_of(4), "unaligned word address {addr:#x}");
        let word = narrow(addr / 4, "arena word");
        match *slot(&mut self.index, word) {
            0 => {
                self.touched.push(Touched { word, head: NIL, header: header() });
                self.index[word as usize] = narrow(self.touched.len() as u64, "window word");
                self.touched.len() - 1
            }
            p => p as usize - 1,
        }
    }

    /// Every class record of word `pos`, by class.
    #[inline]
    pub(crate) fn classes(&self, pos: usize) -> [Option<K>; CLASSES] {
        let mut out = [None; CLASSES];
        let mut r = self.touched[pos].head;
        while r != NIL {
            let rec = &self.recs[r as usize];
            out[rec.class as usize] = Some(rec.val);
            r = rec.next;
        }
        out
    }

    /// The record of `class` on word `pos`, if the word saw the class.
    #[inline]
    pub(crate) fn class_mut(&mut self, pos: usize, class: u8) -> Option<&mut K> {
        let mut r = self.touched[pos].head;
        while r != NIL {
            if self.recs[r as usize].class == class {
                return Some(&mut self.recs[r as usize].val);
            }
            r = self.recs[r as usize].next;
        }
        None
    }

    /// Record that word `pos` saw `class` (which it had not seen yet).
    #[inline]
    pub(crate) fn insert(&mut self, pos: usize, class: u8, val: K) {
        let next = self.touched[pos].head;
        self.touched[pos].head = narrow(self.recs.len() as u64, "window record");
        self.recs.push(Rec { val, next, class });
    }

    /// Words touched in this window.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.touched.len()
    }

    /// Visit every touched word in ascending address order — `(addr,
    /// header, class records)` — then reset the window.
    pub(crate) fn close(&mut self, mut visit: impl FnMut(u64, H, [Option<K>; CLASSES])) {
        self.touched.sort_unstable_by_key(|t| t.word);
        for pos in 0..self.touched.len() {
            let t = self.touched[pos];
            visit(u64::from(t.word) * 4, t.header, self.classes(pos));
        }
        self.reset();
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

#[cfg(test)]
mod model;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrow_keeps_u32_max_and_panics_past_it() {
        assert_eq!(narrow(u64::from(u32::MAX), "wave"), u32::MAX);
        let past = std::panic::catch_unwind(|| narrow(u64::from(u32::MAX) + 1, "wave"));
        assert!(past.is_err(), "a wave past u32::MAX must panic, never wrap to 0");
    }

    #[test]
    fn window_keeps_only_seen_classes_and_resets_touched_words() {
        let mut w: Window<u32, u32> = Window::default();
        let a = w.word(0x1000, || 7);
        w.insert(a, 3, 30);
        let b = w.word(0x0ff0, || 8);
        w.insert(b, 0, 1);
        w.insert(b, 4, 5);
        assert_eq!(w.word(0x1000, || 99), a, "a touched word keeps its slot and header");
        assert_eq!(w.classes(a), [None, None, None, Some(30), None]);
        *w.class_mut(b, 4).unwrap() += 1;
        assert_eq!(w.classes(b), [Some(1), None, None, None, Some(6)]);
        assert_eq!(w.len(), 2);
        let mut seen = Vec::new();
        w.close(|addr, h, c| seen.push((addr, h, c.iter().flatten().count())));
        assert_eq!(seen, vec![(0x0ff0, 8, 2), (0x1000, 7, 1)], "ascending address order");
        assert_eq!(w.len(), 0);
        let again = w.word(0x1000, || 9);
        assert_eq!(w.classes(again), [None; CLASSES], "the reset forgot the old records");
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
        assert_eq!(l.names.get("dist"), Some(dist));
    }

    #[test]
    fn record_sizes_match_the_documented_bytes() {
        use std::mem::size_of;
        assert_eq!(size_of::<Thread>(), 16);
        // Sanitizer: no header, one thread per class.
        assert_eq!(size_of::<Touched<()>>(), 8);
        assert_eq!(size_of::<Rec<Thread>>(), 24);
        // IR: (label id, index) header, two threads per class.
        assert_eq!(size_of::<Touched<(u32, u32)>>(), 16);
        assert_eq!(size_of::<Rec<[Thread; 2]>>(), 40);
    }
}
