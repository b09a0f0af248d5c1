//! Device memory: a word-addressed buffer arena.
//!
//! Device memory is modelled as typed buffers of 32-bit words — every
//! array the SSSP kernels touch (row offsets, adjacency, weights,
//! distances, frontiers, queue cursors) is `u32`. Each buffer gets a
//! disjoint byte-address range so the cache/coalescing models see a
//! realistic flat address space.

/// Handle to a device buffer. Cheap to copy; valid only for the
/// [`crate::Device`] that allocated it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Buf {
    pub(crate) id: u32,
}

pub(crate) struct Buffer {
    pub label: &'static str,
    pub base_addr: u64,
    pub words: Vec<u32>,
    /// Kernel-entry snapshot, created lazily on first write while the
    /// arena is in snapshot mode (synchronous-kernel semantics).
    pub shadow: Option<Vec<u32>>,
    /// Per-word uninitialized-read poison, tracked only while the
    /// sanitizer has poison mode on ([`Arena::set_poison_mode`]).
    /// `true` = never written since alloc/recycle.
    pub poison: Option<Vec<bool>>,
    /// Kernel-entry copy of `poison`, captured together with `shadow`:
    /// a plain load that observes the snapshot must also see the
    /// snapshot's initialization state, not the live one.
    pub shadow_poison: Option<Vec<bool>>,
}

/// The allocation arena inside a device.
///
/// ## Synchronous-kernel snapshot semantics
///
/// Real GPUs give plain global loads no coherence guarantee within a
/// kernel: a thread typically observes the values present at kernel
/// launch, not a concurrent thread's in-flight store — only atomics
/// are globally coherent. A trace simulator that executes threads
/// sequentially would otherwise leak perfect forward visibility into
/// *synchronous* kernels, granting them the fast convergence that only
/// asynchronous execution (persistent kernels, §4.3 of the paper) has.
///
/// In snapshot mode ([`Arena::begin_snapshot`]): plain loads read the
/// kernel-entry value of any buffer that has since been written;
/// stores and atomics operate on (and return) live memory.
pub(crate) struct Arena {
    buffers: Vec<Buffer>,
    next_addr: u64,
    snapshot_mode: bool,
    /// When on (sanitizer armed with the uninit check), fresh and
    /// recycled buffers are poisoned word-by-word until written.
    poison_mode: bool,
    /// Buffer ids released for reuse, keyed by exact word length.
    /// Contents persist across release/acquire — the next owner resets
    /// explicitly (the buffer pool's poisoned-fill tests rely on it).
    free: std::collections::HashMap<usize, Vec<u32>>,
}

/// Buffers are aligned to this many bytes so distinct buffers never
/// share a cache line.
const ALIGN: u64 = 256;

impl Arena {
    pub fn new() -> Self {
        // Start away from address zero, like a real virtual space.
        Self {
            buffers: Vec::new(),
            next_addr: 0x1000,
            snapshot_mode: false,
            poison_mode: false,
            free: std::collections::HashMap::new(),
        }
    }

    /// Turn uninitialized-read poison tracking on or off. Turning it
    /// off drops all poison state (everything counts as initialized).
    pub fn set_poison_mode(&mut self, on: bool) {
        self.poison_mode = on;
        if !on {
            for b in &mut self.buffers {
                b.poison = None;
                b.shadow_poison = None;
            }
        }
    }

    /// Whether a plain load of `buf[idx]` observes an uninitialized
    /// word, honouring snapshot semantics: if the buffer was written
    /// during this snapshot kernel, visibility (and therefore poison)
    /// is that of the kernel entry.
    #[inline]
    pub fn poisoned_visible(&self, buf: Buf, idx: u32) -> bool {
        let b = &self.buffers[buf.id as usize];
        if self.snapshot_mode && b.shadow.is_some() {
            return b.shadow_poison.as_ref().is_some_and(|p| p[idx as usize]);
        }
        b.poison.as_ref().is_some_and(|p| p[idx as usize])
    }

    /// Whether the live word `buf[idx]` is uninitialized (what a
    /// volatile load or an atomic read-modify-write observes).
    #[inline]
    pub fn poisoned_live(&self, buf: Buf, idx: u32) -> bool {
        self.buffers[buf.id as usize].poison.as_ref().is_some_and(|p| p[idx as usize])
    }

    /// Mark a whole buffer initialized (host-side write/fill/upload).
    #[inline]
    pub fn clear_poison(&mut self, buf: Buf) {
        self.buffers[buf.id as usize].poison = None;
    }

    /// Mark one word initialized (host-side single-word write).
    #[inline]
    pub fn clear_poison_at(&mut self, buf: Buf, idx: u32) {
        if let Some(p) = self.buffers[buf.id as usize].poison.as_mut() {
            p[idx as usize] = false;
        }
    }

    /// Return `buf` to the free list for a later same-length
    /// [`Arena::acquire`]. The handle must not be used afterwards; the
    /// words keep their values until the next owner resets them.
    pub fn release(&mut self, buf: Buf) {
        let len = self.buffers[buf.id as usize].words.len();
        let ids = self.free.entry(len).or_default();
        debug_assert!(!ids.contains(&buf.id), "double release of '{}'", self.label(buf));
        ids.push(buf.id);
    }

    /// Re-acquire a released buffer of exactly `len` words, relabelling
    /// it. `None` when the free list has no buffer of that length.
    pub fn acquire(&mut self, label: &'static str, len: usize) -> Option<Buf> {
        let id = self.free.get_mut(&len)?.pop()?;
        let b = &mut self.buffers[id as usize];
        b.label = label;
        // A recycled buffer's contents are stale: reading a word the
        // new owner never reset is exactly the bug the uninit check
        // exists for, so re-poison the whole range.
        b.poison = self.poison_mode.then(|| vec![true; len]);
        Some(Buf { id })
    }

    pub fn alloc(&mut self, label: &'static str, len: usize) -> Buf {
        let id = self.buffers.len() as u32;
        let bytes = (len as u64) * 4;
        let base = self.next_addr;
        // Trace ops record 32-bit word addresses (`trace::Op`).
        assert!(
            (base + bytes) / 4 <= u32::MAX as u64,
            "device arena exhausted: buffer '{label}' of {len} words would end past word \
             address u32::MAX, the limit of the simulator's 32-bit word addresses"
        );
        self.next_addr = (base + bytes).div_ceil(ALIGN) * ALIGN;
        self.buffers.push(Buffer {
            label,
            base_addr: base,
            words: vec![0; len],
            shadow: None,
            poison: self.poison_mode.then(|| vec![true; len]),
            shadow_poison: None,
        });
        Buf { id }
    }

    /// Enter synchronous-kernel snapshot mode (see type docs).
    pub fn begin_snapshot(&mut self) {
        debug_assert!(!self.snapshot_mode, "nested snapshot");
        self.snapshot_mode = true;
    }

    /// Leave snapshot mode and drop all shadows.
    pub fn end_snapshot(&mut self) {
        self.snapshot_mode = false;
        for b in &mut self.buffers {
            b.shadow = None;
            b.shadow_poison = None;
        }
    }

    #[inline]
    fn ensure_shadow(&mut self, buf: Buf) {
        if self.snapshot_mode {
            let b = &mut self.buffers[buf.id as usize];
            if b.shadow.is_none() {
                b.shadow = Some(b.words.clone());
                b.shadow_poison = b.poison.clone();
            }
        }
    }

    /// Value a plain (non-atomic) load observes: the kernel-entry
    /// snapshot if this buffer was written during a snapshot-mode
    /// kernel, the live value otherwise.
    #[inline]
    pub fn load_visible(&self, buf: Buf, idx: u32) -> u32 {
        let b = &self.buffers[buf.id as usize];
        match (&b.shadow, self.snapshot_mode) {
            (Some(shadow), true) => shadow[idx as usize],
            _ => b.words[idx as usize],
        }
    }

    #[inline]
    pub fn slice(&self, buf: Buf) -> &[u32] {
        &self.buffers[buf.id as usize].words
    }

    #[inline]
    pub fn slice_mut(&mut self, buf: Buf) -> &mut [u32] {
        &mut self.buffers[buf.id as usize].words
    }

    /// Byte address of `buf[idx]`.
    #[inline]
    pub fn addr(&self, buf: Buf, idx: u32) -> u64 {
        let b = &self.buffers[buf.id as usize];
        debug_assert!(
            (idx as usize) < b.words.len(),
            "index {idx} out of bounds for buffer '{}' (len {})",
            b.label,
            b.words.len()
        );
        b.base_addr + (idx as u64) * 4
    }

    #[inline]
    pub fn load(&self, buf: Buf, idx: u32) -> u32 {
        self.buffers[buf.id as usize].words[idx as usize]
    }

    #[inline]
    pub fn store(&mut self, buf: Buf, idx: u32, val: u32) {
        self.ensure_shadow(buf);
        let b = &mut self.buffers[buf.id as usize];
        if let Some(p) = b.poison.as_mut() {
            p[idx as usize] = false;
        }
        b.words[idx as usize] = val;
    }

    pub fn label(&self, buf: Buf) -> &'static str {
        self.buffers[buf.id as usize].label
    }

    /// Total allocated words (for memory accounting).
    #[cfg(test)]
    pub fn total_words(&self) -> usize {
        self.buffers.iter().map(|b| b.words.len()).sum()
    }

    /// Copy of every buffer's live words, indexed by buffer id (the
    /// stale-read fault model's snapshot source).
    pub fn clone_words(&self) -> Vec<Vec<u32>> {
        self.buffers.iter().map(|b| b.words.clone()).collect()
    }

    /// Set a buffer's poison to the complement of a host-staging write
    /// map: words the host never wrote stay poisoned (only while
    /// poison mode is on — a no-op clear otherwise). This is how
    /// shadow poison crosses the host→device copy instead of being
    /// wholesale-cleared by the upload.
    pub fn set_poison_from_unwritten(&mut self, buf: Buf, written: &[bool]) {
        let b = &mut self.buffers[buf.id as usize];
        assert_eq!(b.words.len(), written.len(), "staging length mismatch for '{}'", b.label);
        b.poison = (self.poison_mode && written.contains(&false))
            .then(|| written.iter().map(|&w| !w).collect());
    }
}

/// A host-side staging buffer with per-word shadow-poison tracking.
///
/// Host code that assembles an upload incrementally (CSR arrays…)
/// historically lost the sanitizer's
/// uninitialized-read check at the host→device seam: `alloc_upload`
/// cleared poison wholesale, so a word the host *never actually wrote*
/// arrived on device looking initialized (as a silent zero). Staging
/// through [`HostStaging`] and uploading with
/// [`crate::Device::upload_staged`] carries the "never written" state
/// across the copy, so a kernel reading such a word trips `UninitRead`.
#[derive(Clone, Debug)]
pub struct HostStaging {
    label: &'static str,
    words: Vec<u32>,
    written: Vec<bool>,
}

impl HostStaging {
    /// A zero-filled staging buffer with every word *unwritten*.
    pub fn new(label: &'static str, len: usize) -> Self {
        Self { label, words: vec![0; len], written: vec![false; len] }
    }

    /// A staging buffer pre-filled from host data (fully written).
    pub fn from_slice(label: &'static str, data: &[u32]) -> Self {
        Self { label, words: data.to_vec(), written: vec![true; data.len()] }
    }

    /// The label the device buffer will carry.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Length in 32-bit words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when the staging buffer holds no words.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Write one word (marks it initialized).
    pub fn write(&mut self, idx: usize, val: u32) {
        self.words[idx] = val;
        self.written[idx] = true;
    }

    /// Write a contiguous run starting at `offset`.
    pub fn write_slice(&mut self, offset: usize, data: &[u32]) {
        self.words[offset..offset + data.len()].copy_from_slice(data);
        self.written[offset..offset + data.len()].fill(true);
    }

    /// Fill the whole buffer (marks everything initialized).
    pub fn fill(&mut self, val: u32) {
        self.words.fill(val);
        self.written.fill(true);
    }

    /// Words never written since construction.
    pub fn unwritten_words(&self) -> usize {
        self.written.iter().filter(|&&w| !w).count()
    }

    pub(crate) fn words(&self) -> &[u32] {
        &self.words
    }

    pub(crate) fn written(&self) -> &[bool] {
        &self.written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The check runs before the words are allocated: this request
    /// would need 16 GiB.
    #[test]
    #[should_panic(expected = "past word address u32::MAX")]
    fn alloc_past_the_word_address_range_is_refused() {
        Arena::new().alloc("huge", u32::MAX as usize);
    }

    #[test]
    fn disjoint_aligned_addresses() {
        let mut a = Arena::new();
        let x = a.alloc("x", 3);
        let y = a.alloc("y", 100);
        let xa = a.addr(x, 0);
        let ya = a.addr(y, 0);
        assert_eq!(xa % ALIGN, 0x1000 % ALIGN);
        assert!(ya >= xa + 12);
        assert_eq!(ya % ALIGN, 0);
        assert_eq!(a.addr(y, 5), ya + 20);
    }

    #[test]
    fn load_store() {
        let mut a = Arena::new();
        let x = a.alloc("x", 4);
        a.store(x, 2, 42);
        assert_eq!(a.load(x, 2), 42);
        assert_eq!(a.load(x, 0), 0);
        assert_eq!(a.label(x), "x");
        assert_eq!(a.total_words(), 4);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_load_panics() {
        let mut a = Arena::new();
        let x = a.alloc("x", 2);
        let _ = a.load(x, 5);
    }

    #[test]
    fn poison_set_on_alloc_cleared_by_store() {
        let mut a = Arena::new();
        a.set_poison_mode(true);
        let x = a.alloc("x", 2);
        assert!(a.poisoned_live(x, 0) && a.poisoned_visible(x, 1));
        a.store(x, 0, 7);
        assert!(!a.poisoned_live(x, 0));
        assert!(a.poisoned_live(x, 1));
        a.clear_poison(x);
        assert!(!a.poisoned_live(x, 1));
    }

    #[test]
    fn poison_reapplied_on_recycle_and_snapshot_aware() {
        let mut a = Arena::new();
        a.set_poison_mode(true);
        let x = a.alloc("x", 1);
        a.store(x, 0, 1);
        a.release(x);
        let y = a.acquire("y", 1).unwrap();
        assert!(a.poisoned_live(y, 0), "recycled contents are stale");
        // In a snapshot kernel, a store clears live poison but a plain
        // load still observes the kernel-entry (poisoned) state.
        a.begin_snapshot();
        a.store(y, 0, 5);
        assert!(!a.poisoned_live(y, 0));
        assert!(a.poisoned_visible(y, 0));
        a.end_snapshot();
        assert!(!a.poisoned_visible(y, 0));
    }

    #[test]
    fn poison_mode_off_tracks_nothing() {
        let mut a = Arena::new();
        let x = a.alloc("x", 4);
        assert!(!a.poisoned_live(x, 0) && !a.poisoned_visible(x, 0));
    }

    #[test]
    fn staging_poison_survives_the_upload_seam() {
        let mut a = Arena::new();
        a.set_poison_mode(true);
        let mut st = HostStaging::new("csr", 4);
        st.write(0, 7);
        st.write_slice(2, &[8, 9]);
        assert_eq!(st.unwritten_words(), 1);
        let b = a.alloc("csr", 4);
        a.slice_mut(b).copy_from_slice(st.words());
        a.set_poison_from_unwritten(b, st.written());
        assert!(!a.poisoned_live(b, 0));
        assert!(a.poisoned_live(b, 1), "the never-written word stays poisoned");
        assert!(!a.poisoned_live(b, 2) && !a.poisoned_live(b, 3));
        // A fully written staging buffer clears poison entirely.
        st.fill(1);
        a.set_poison_from_unwritten(b, st.written());
        assert!(!a.poisoned_live(b, 1));
    }
}
