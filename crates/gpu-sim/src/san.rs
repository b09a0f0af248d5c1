//! Opt-in memory-model sanitizer: wave-level race detection, shadow
//! poison for uninitialized reads, and gang-divergence checks — one
//! view of the device's memory-model recorder ([`crate::shadow`]).
//!
//! The simulator executes lanes sequentially, so a kernel that races
//! on real hardware still produces one deterministic answer here —
//! correct by luck. The sanitizer closes that gap: it reads every lane
//! access the recorder sees while the kernel runs functionally and
//! reports typed [`SanViolation`]s wherever the program leaves the
//! memory-model discipline the kernels document:
//!
//! * plain loads ([`crate::Lane::ld`]) have snapshot semantics inside
//!   synchronous kernels and **no** guarantee at all inside live
//!   (wave/persistent-kernel) execution;
//! * volatile loads ([`crate::Lane::ld_volatile`]) may observe
//!   concurrent writes — the sanctioned racy-read idiom (the modelled
//!   accesses are aligned 32-bit words, which cannot tear), so the
//!   sanitizer never reads them;
//! * only atomics may write a location that another lane touches in
//!   the same race window.
//!
//! A *race window* is one synchronous kernel launch, or — for task
//! waves of a persistent kernel — everything since the last grid-wide
//! barrier ([`crate::Device::charge_barrier`]): §4.3's asynchronous
//! phase 1 runs many waves with no barrier, so conflicts across those
//! waves are real on hardware and are flagged here. The race kind of
//! each pair of access classes comes from the IR's rule table
//! ([`crate::ir::race_kind`]), so both views name a race alike.
//!
//! Armed via [`crate::Device::arm_sanitizer`]; when nothing is armed
//! (the default) every hook is a single `Option` branch and the device
//! behaves bit-identically to an uninstrumented build.

use std::collections::HashSet;
use std::fmt;

use crate::ir::{race_kind, AccessClass, HazardKind};
use crate::shadow::{LaneSig, Thread, Word};

/// Sanitizer options. It has none: every check always runs; the type
/// stays for [`crate::Device::arm_sanitizer`]'s signature.
#[derive(Clone, Copy, Debug, Default)]
pub struct SanConfig {}

/// The sanitizer keeps at most this many violations; further ones only
/// count ([`crate::Device::san_total`]).
pub const MAX_VIOLATIONS: usize = 10_000;

/// The typed violation classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SanCheck {
    /// Two different lanes store the same word in one window with
    /// plain stores, or one plain and one reserved store.
    WriteWriteRace,
    /// A plain store and an atomic from different lanes hit the same
    /// word in one window — the plain side can be lost or torn.
    MixedAtomicRace,
    /// A plain load can observe (or miss) a same-window write by
    /// another lane under live-memory execution — the exact hazard
    /// `ld_volatile` exists for.
    SnapshotVisibility,
    /// A read of a word never written since alloc or pool recycle.
    UninitRead,
    /// Lanes of one gang launched differing child-kernel counts.
    GangChildDivergence,
    /// Two lanes of the *same* gang plain-stored the same word: the
    /// gang's rank-partitioned private region overlaps.
    GangOverlap,
}

impl SanCheck {
    /// Short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            SanCheck::WriteWriteRace => "write-write-race",
            SanCheck::MixedAtomicRace => "mixed-atomic-race",
            SanCheck::SnapshotVisibility => "snapshot-visibility",
            SanCheck::UninitRead => "uninit-read",
            SanCheck::GangChildDivergence => "gang-child-divergence",
            SanCheck::GangOverlap => "gang-overlap",
        }
    }
}

/// One reported violation. Lane ids are the lanes' [`Lane::phys_id`]s:
/// physical lane indexes within their wave, the lanes that pad a
/// segment's last warp counted; for unary checks both entries name the
/// same lane.
///
/// [`Lane::phys_id`]: crate::kernel::Lane::phys_id
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SanViolation {
    /// The violated discipline rule.
    pub check: SanCheck,
    /// Kernel (site) whose lane performed the *second* access.
    pub kernel: &'static str,
    /// Label of the buffer containing the word.
    pub buffer: &'static str,
    /// Word index within the buffer.
    pub index: u32,
    /// Flat device byte address of the word.
    pub addr: u64,
    /// The two conflicting lanes: `[earlier, later]`.
    pub lanes: [u64; 2],
    /// Wave sequence numbers of the two accesses (equal when the
    /// conflict is within one wave), counted from the arming.
    pub waves: [u64; 2],
    /// Command stream the violating (second) access ran on.
    pub stream: u32,
    /// Human-readable explanation of the specific conflict.
    pub detail: String,
}

impl fmt::Display for SanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} at {}[{}] (addr {:#x}) lanes {}/{} waves {}/{} stream {}: {}",
            self.check.name(),
            self.kernel,
            self.buffer,
            self.index,
            self.addr,
            self.lanes[0],
            self.lanes[1],
            self.waves[0],
            self.waves[1],
            self.stream,
            self.detail
        )
    }
}

/// What an access class is called in a violation's detail.
fn what(class: AccessClass) -> &'static str {
    match class {
        AccessClass::PlainLoad => "plain load",
        AccessClass::VolatileLoad => "volatile load",
        AccessClass::Store => "plain store",
        AccessClass::Atomic => "atomic",
        AccessClass::ReservedStore => "reserved store",
    }
}

/// The sanitizer view: its violation log, read from the recorder's
/// window table at access time.
#[derive(Default)]
pub(crate) struct SanView {
    /// The recorder's wave counter when the view was armed.
    base: u32,
    violations: Vec<SanViolation>,
    total: u64,
    /// Reported `(check, kernel id, address)` sites.
    seen: HashSet<(SanCheck, u32, u64)>,
    /// The current wave's kernel and command stream (attribution).
    kernel: &'static str,
    stream: u32,
}

impl SanView {
    pub(crate) fn new(base: u32) -> Self {
        Self { base, ..Self::default() }
    }

    /// Violations recorded so far (capped at [`MAX_VIOLATIONS`]).
    pub(crate) fn violations(&self) -> &[SanViolation] {
        &self.violations
    }

    /// Total violations including any beyond the cap.
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    pub(crate) fn begin_wave(&mut self, kernel: &'static str, stream: u32) {
        self.kernel = kernel;
        self.stream = stream;
    }

    fn record(
        &mut self,
        check: SanCheck,
        w: Word,
        first: Thread,
        second: Thread,
        detail: impl FnOnce() -> String,
    ) {
        // One report per (check, site, address): kernels revisit the
        // same conflict every wave and would otherwise flood the log.
        // The second access always belongs to the current wave.
        if !self.seen.insert((check, second.kernel, w.addr)) {
            return;
        }
        self.total += 1;
        if self.violations.len() < MAX_VIOLATIONS {
            let wave = |t: Thread| u64::from(t.wave - self.base);
            self.violations.push(SanViolation {
                check,
                kernel: self.kernel,
                buffer: w.label,
                index: w.index,
                addr: w.addr,
                lanes: [u64::from(first.lane), u64::from(second.lane)],
                waves: [wave(first), wave(second)],
                stream: self.stream,
                detail: detail(),
            });
        }
    }

    /// A `class` access read a word never written since alloc/recycle.
    pub(crate) fn uninit(&mut self, w: Word, who: Thread, class: AccessClass) {
        let how = match class {
            AccessClass::PlainLoad | AccessClass::VolatileLoad => what(class),
            _ => "atomic read-modify-write",
        };
        self.record(SanCheck::UninitRead, w, who, who, || {
            format!("{how} of a word never written since alloc/recycle")
        });
    }

    /// Check a `class` access by `who` against the window's first plain
    /// store, first atomic or reserved store, and first plain load
    /// (`priors`): the first prior from another thread whose pair with
    /// the access is a red race kind is reported.
    pub(crate) fn check(
        &mut self,
        w: Word,
        who: Thread,
        class: AccessClass,
        priors: [Option<(AccessClass, Thread)>; 3],
        snapshot: bool,
    ) {
        use AccessClass::*;
        for (prior, other) in priors.into_iter().flatten() {
            if other.same_thread(who) {
                continue;
            }
            let same_gang = || {
                (class, prior) == (Store, Store)
                    && (other.wave, other.gang, other.kernel) == (who.wave, who.gang, who.kernel)
            };
            let check = match race_kind(class, prior, !snapshot) {
                Some(HazardKind::WriteWrite) if same_gang() => SanCheck::GangOverlap,
                Some(HazardKind::WriteWrite) => SanCheck::WriteWriteRace,
                Some(HazardKind::MixedAtomic) => SanCheck::MixedAtomicRace,
                Some(HazardKind::SnapshotRead) => SanCheck::SnapshotVisibility,
                _ => continue,
            };
            let (o, me) = (other.lane, who.lane);
            self.record(check, w, other, who, || match (class, prior) {
                (PlainLoad, _) => format!(
                    "plain load may or may not observe lane {o}'s same-window write \
                     (use ld_volatile or order with a barrier)"
                ),
                (_, PlainLoad) => format!(
                    "lane {o}'s earlier plain load may or may not observe this {} \
                     (use ld_volatile or order with a barrier)",
                    match class {
                        Store => "store",
                        Atomic => "atomic's result",
                        _ => "reserved store",
                    }
                ),
                _ if check == SanCheck::GangOverlap => format!(
                    "lanes {o} and {me} of gang {} both plain-stored this word — \
                     rank-partitioned regions overlap",
                    who.gang
                ),
                (Store, Store) => format!(
                    "plain stores from lanes {o} and {me} — last writer is \
                     schedule-dependent on hardware"
                ),
                _ => format!(
                    "{} by lane {me} races lane {o}'s {} on the same word",
                    what(class),
                    what(prior)
                ),
            });
            return;
        }
    }

    /// Gang agreement over the finished wave's lanes (`present`, in lane
    /// order; a gang owns consecutive lanes): a single launching lane
    /// (the gang-leader pattern) and uniform counts across launching
    /// lanes are both fine; differing nonzero counts mean the gang
    /// diverged on the launch decision.
    pub(crate) fn end_wave(&mut self, present: &[(u32, LaneSig)], wave: u32, kernel: u32) {
        for run in present.chunk_by(|a, b| a.1.gang == b.1.gang) {
            let mut launching = run.iter().filter(|(_, s)| s.children > 0);
            let Some(&(lane0, first)) = launching.next() else { continue };
            let Some(&(lane, s)) = launching.find(|(_, s)| s.children != first.children) else {
                continue;
            };
            let gang = first.gang;
            let at = Word { addr: u64::from(gang), buf: 0, label: "(child launches)", index: 0 };
            let a = Thread { wave, lane: lane0, gang, kernel };
            self.record(SanCheck::GangChildDivergence, at, a, Thread { lane, ..a }, || {
                format!(
                    "gang {gang}: lane {lane0} launched {} child kernel(s), \
                     lane {lane} launched {}",
                    first.children, s.children
                )
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shadow::Recorder;
    use AccessClass::*;

    fn state() -> Recorder {
        let mut s = Recorder::default();
        s.arm_sanitizer();
        s
    }

    fn at(addr: u64, label: &'static str, index: u32) -> Word {
        Word { addr, buf: 0, label, index }
    }

    /// One access by `lane`, its own gang, on `buf[addr / 4 - 16]`.
    fn hit(s: &mut Recorder, class: AccessClass, addr: u64, lane: u64) {
        s.access(at(addr, "buf", (addr / 4 - 16) as u32), lane, lane, class, false, 1);
    }

    #[test]
    fn write_write_race_between_lanes() {
        let mut s = state();
        s.begin_wave("k", false, 0);
        hit(&mut s, Store, 64, 0);
        hit(&mut s, Store, 64, 5);
        s.end_wave();
        assert_eq!(s.total(), 1);
        let v = &s.violations()[0];
        assert_eq!(v.check, SanCheck::WriteWriteRace);
        assert_eq!(v.lanes, [0, 5]);
        assert_eq!(v.buffer, "buf");
    }

    #[test]
    fn same_lane_never_conflicts_with_itself() {
        let mut s = state();
        s.begin_wave("k", false, 0);
        hit(&mut s, Store, 64, 3);
        hit(&mut s, Store, 64, 3);
        hit(&mut s, PlainLoad, 64, 3);
        s.end_wave();
        assert_eq!(s.total(), 0);
    }

    #[test]
    fn atomics_on_both_sides_are_clean() {
        let mut s = state();
        s.begin_wave("k", false, 0);
        hit(&mut s, Atomic, 64, 0);
        hit(&mut s, Atomic, 64, 1);
        hit(&mut s, ReservedStore, 64, 2);
        s.end_wave();
        assert_eq!(s.total(), 0);
    }

    #[test]
    fn volatile_load_may_race_with_atomic() {
        let mut s = state();
        s.begin_wave("k", false, 0);
        hit(&mut s, Atomic, 64, 0);
        hit(&mut s, VolatileLoad, 64, 1);
        s.end_wave();
        assert_eq!(s.total(), 0);
    }

    #[test]
    fn plain_load_vs_atomic_is_snapshot_visibility_in_live_window() {
        let mut s = state();
        s.begin_wave("k", false, 0);
        hit(&mut s, PlainLoad, 64, 1);
        hit(&mut s, Atomic, 64, 0);
        s.end_wave();
        assert_eq!(s.total(), 1);
        assert_eq!(s.violations()[0].check, SanCheck::SnapshotVisibility);
    }

    #[test]
    fn plain_load_in_snapshot_kernel_is_safe() {
        let mut s = state();
        s.begin_wave("k", true, 0);
        hit(&mut s, PlainLoad, 64, 1);
        hit(&mut s, Atomic, 64, 0);
        s.end_wave();
        assert_eq!(s.total(), 0);
    }

    #[test]
    fn window_spans_waves_until_barrier() {
        let mut s = state();
        s.begin_wave("w1", false, 0);
        hit(&mut s, Store, 64, 0);
        s.end_wave();
        s.begin_wave("w2", false, 0);
        // Same lane index, later wave: a different logical thread.
        hit(&mut s, Store, 64, 0);
        s.end_wave();
        assert_eq!(s.total(), 1);
        assert_eq!(s.violations()[0].waves, [1, 2]);

        let mut s = state();
        s.begin_wave("w1", false, 0);
        hit(&mut s, Store, 64, 0);
        s.end_wave();
        s.on_barrier();
        s.begin_wave("w2", false, 0);
        hit(&mut s, Store, 64, 0);
        s.end_wave();
        assert_eq!(s.total(), 0, "barrier closes the window");
    }

    #[test]
    fn uninit_read_reported_once_per_site() {
        let mut s = state();
        s.begin_wave("k", false, 0);
        s.access(at(64, "scratch", 3), 0, 0, PlainLoad, true, 1);
        s.access(at(64, "scratch", 3), 1, 1, PlainLoad, true, 1);
        s.end_wave();
        assert_eq!(s.total(), 1);
        assert_eq!(s.violations()[0].check, SanCheck::UninitRead);
        assert_eq!(s.violations()[0].index, 3);
    }

    #[test]
    fn gang_divergent_child_launches_flagged() {
        let mut s = state();
        s.begin_wave("k", false, 0);
        s.on_child_launch(0, 7); // gang 7, lane 0: one launch
        s.on_child_launch(1, 7); // gang 7, lane 1: two launches
        s.on_child_launch(1, 7);
        s.on_child_launch(8, 9); // gang 9: single leader — fine
        s.end_wave();
        assert_eq!(s.total(), 1);
        assert_eq!(s.violations()[0].check, SanCheck::GangChildDivergence);
    }

    #[test]
    fn gang_overlap_classified() {
        let mut s = state();
        s.begin_wave("k", false, 0);
        s.access(at(64, "out", 0), 4, 2, Store, false, 1); // gang 2, lane 4
        s.access(at(64, "out", 0), 5, 2, Store, false, 1); // gang 2, lane 5 — same gang
        s.end_wave();
        assert_eq!(s.violations()[0].check, SanCheck::GangOverlap);
    }

    #[test]
    fn cap_counts_but_stops_storing() {
        let mut s = state();
        s.begin_wave("k", false, 0);
        let races = MAX_VIOLATIONS as u64 + 2;
        for word in 16..16 + races {
            hit(&mut s, Store, 4 * word, 0);
            hit(&mut s, Store, 4 * word, 1);
        }
        s.end_wave();
        assert_eq!(s.total(), races);
        assert_eq!(s.violations().len(), MAX_VIOLATIONS);
    }

    /// A recorder with the IR armed, for the profile view.
    fn profiled() -> Recorder {
        let mut s = Recorder::default();
        s.arm_ir(&[]);
        s
    }

    #[test]
    fn profile_accumulates_across_windows() {
        let mut s = profiled();
        s.begin_wave("relax", false, 0);
        s.access(at(64, "dist", 0), 0, 0, Atomic, false, 1);
        s.access(at(64, "dist", 0), 1, 1, Atomic, false, 1);
        s.access(at(68, "dist", 1), 0, 0, PlainLoad, false, 1);
        s.end_wave();
        s.on_barrier(); // closes the race window, NOT the profile
        s.begin_wave("relax", false, 0);
        s.access(at(64, "dist", 0), 2, 2, Atomic, false, 1);
        s.access(at(128, "pending", 0), 0, 0, Store, false, 1);
        s.end_wave();
        let p = s.take_ir().unwrap().profile;
        assert_eq!(p.waves(), 2);
        assert_eq!(p.kernel_windows(), vec![("relax", 1, 2)]);
        let word = |b, i| p.rows().find(|r| (r.0, r.1) == (b, i)).unwrap().2;
        let hot = word("dist", 0);
        assert_eq!(hot.atomics, 3);
        assert!(hot.shared());
        let solo = word("pending", 0);
        assert_eq!(solo.stores, 1);
        assert!(!solo.shared(), "one logical thread only");
    }

    #[test]
    fn profile_ranks_contended_and_overlap_sites() {
        let mut s = profiled();
        s.begin_wave("k", false, 0);
        // dist[0]: 3 atomics from distinct lanes (hot + contended).
        for lane in 0..3 {
            s.access(at(64, "dist", 0), lane, lane, Atomic, false, 1);
        }
        // dist[1]: 1 atomic + 1 plain load (overlap, less hot).
        s.access(at(68, "dist", 1), 0, 0, Atomic, false, 1);
        s.access(at(68, "dist", 1), 1, 1, PlainLoad, false, 1);
        // pending[0]: plain traffic only — in neither ranking.
        s.access(at(128, "pending", 0), 0, 0, Store, false, 1);
        s.end_wave();
        let p = s.take_ir().unwrap().profile;
        let contended = p.hottest_contended(10);
        assert_eq!(contended[0].0, "dist");
        assert_eq!(contended[0].1, 0);
        assert!(contended.iter().all(|&(b, i, _)| !(b == "pending" && i == 0)));
        let overlap = p.overlap_sites(10);
        assert!(overlap.iter().any(|&(b, i, _)| b == "dist" && i == 1));
        assert!(overlap.iter().all(|&(b, _, _)| b != "pending"));
    }

    #[test]
    fn profile_ranking_is_deterministic() {
        let build = || {
            let mut s = profiled();
            s.begin_wave("k", false, 0);
            for w in 0..8u32 {
                s.access(at(64 + u64::from(w) * 4, "dist", w), 0, 0, Atomic, false, 1);
                s.access(at(64 + u64::from(w) * 4, "dist", w), 1, 1, Atomic, false, 1);
            }
            s.end_wave();
            s.take_ir().unwrap().profile.hottest_contended(8)
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn wave_counter_panics_past_u32_instead_of_wrapping() {
        let mut s = state();
        s.wave = u32::MAX;
        let wrapped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.begin_wave("k", false, 0);
        }));
        assert!(wrapped.is_err(), "wave u32::MAX + 1 must not alias wave 0");
    }

    #[test]
    fn display_carries_site_lane_and_address() {
        let mut s = state();
        s.begin_wave("kern", false, 0);
        s.access(at(0x2040, "dist", 16), 3, 3, Store, false, 1);
        s.access(at(0x2040, "dist", 16), 9, 9, Store, false, 1);
        s.end_wave();
        let msg = s.violations()[0].to_string();
        assert!(msg.contains("kern") && msg.contains("dist[16]"), "{msg}");
        assert!(msg.contains("0x2040") && msg.contains("3/9"), "{msg}");
    }
}
