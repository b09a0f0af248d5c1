//! Opt-in memory-model sanitizer: wave-level race detection, shadow
//! poison for uninitialized reads, and gang-divergence checks.
//!
//! The simulator executes lanes sequentially, so a kernel that races
//! on real hardware still produces one deterministic answer here —
//! correct by luck. The sanitizer closes that gap: it watches every
//! lane access while the kernel runs functionally and reports typed
//! [`SanViolation`]s wherever the program leaves the memory-model
//! discipline the kernels document:
//!
//! * plain loads ([`crate::Lane::ld`]) have snapshot semantics inside
//!   synchronous kernels and **no** guarantee at all inside live
//!   (wave/persistent-kernel) execution;
//! * volatile loads ([`crate::Lane::ld_volatile`]) may observe
//!   concurrent writes — the sanctioned racy-read idiom (the modelled
//!   accesses are aligned 32-bit words, which cannot tear);
//! * only atomics may write a location that another lane touches in
//!   the same race window.
//!
//! A *race window* is one synchronous kernel launch, or — for task
//! waves of a persistent kernel — everything since the last grid-wide
//! barrier ([`crate::Device::charge_barrier`]): §4.3's asynchronous
//! phase 1 runs many waves with no barrier, so conflicts across those
//! waves are real on hardware and are flagged here.
//!
//! Armed via [`crate::Device::arm_sanitizer`]; when disarmed (the
//! default) every hook is a single `Option` branch and the device
//! behaves bit-identically to an uninstrumented build.

use std::collections::{BTreeMap, HashSet};
use std::fmt;

use crate::shadow::{narrow, slot, Labels, Names, Thread, Window, Word};

/// Which checks run. All on by default.
#[derive(Clone, Copy, Debug)]
pub struct SanConfig {
    /// Same-address conflict detection between lanes.
    pub races: bool,
    /// Poison-shadow uninitialized-read detection.
    pub uninit: bool,
    /// Gang child-launch agreement and intra-gang overlap checks.
    pub gangs: bool,
    /// Keep at most this many violations; further ones only count.
    pub max_violations: usize,
}

impl Default for SanConfig {
    fn default() -> Self {
        Self { races: true, uninit: true, gangs: true, max_violations: 10_000 }
    }
}

/// The typed violation classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SanCheck {
    /// Two different lanes plain-store the same word in one window.
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
    /// conflict is within one wave).
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

/// Window record classes: the first plain store, the first atomic (or
/// reserved store, which carries atomic publish discipline), and the
/// first plain load under live-memory execution (snapshot-kernel plain
/// loads are safe by construction and not recorded).
const STORE: u8 = 0;
const ATOMIC: u8 = 1;
const LIVE_LOAD: u8 = 2;

/// Lifetime access statistics for one word, accumulated across the
/// whole armed session (unlike the race window, never cleared at
/// window close).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WordStats {
    /// Plain + volatile loads of the word.
    pub loads: u64,
    /// Plain stores of the word.
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

/// One word's slot in the dense profile table.
#[derive(Clone, Copy, Debug, Default)]
struct WordRec {
    loads: u64,
    stores: u64,
    atomics: u64,
    /// First `(wave, lane)` to touch the word.
    first: (u32, u32),
    touched: bool,
    shared: bool,
}

impl WordRec {
    fn stats(&self) -> WordStats {
        WordStats {
            loads: self.loads,
            stores: self.stores,
            atomics: self.atomics,
            first: Some((u64::from(self.first.0), u64::from(self.first.1))),
            shared: self.shared,
        }
    }
}

/// What the sanitizer learned about a run's memory behaviour: per-word
/// access counts and sharing, plus per-kernel wave windows. This is
/// the evidence the adversarial placement search scouts for — the
/// hottest contended words are where a mistimed fault is most likely
/// to slip past detection. Words are keyed by `(buffer label, word
/// index)`: equal labels share their words, and every query answers in
/// label-then-index order, so everything derived from it is
/// deterministic. The records live in dense tables (per label id, per
/// word index) and fold into these shapes only when queried.
#[derive(Clone, Debug, Default)]
pub struct AccessProfile {
    labels: Labels,
    /// Per label id, per word index.
    words: Vec<Vec<WordRec>>,
    words_touched: usize,
    kernel_names: Names,
    /// Per kernel id: `(first wave, last wave)`, `None` until it runs.
    kernels: Vec<Option<(u64, u64)>>,
    waves: u64,
}

impl AccessProfile {
    /// A wave of `kernel` begins; returns the kernel's id.
    fn begin_wave(&mut self, kernel: &'static str, wave: u64) -> u32 {
        self.waves = self.waves.max(wave);
        let id = self.kernel_names.intern(kernel);
        let w = slot(&mut self.kernels, id);
        *w = Some(w.map_or((wave, wave), |(first, _)| (first, wave)));
        id
    }

    #[inline]
    fn stats(&mut self, w: Word, who: Thread) -> &mut WordRec {
        let label = self.labels.id(w.buf, w.label);
        let s = slot(slot(&mut self.words, label), w.index);
        let key = (who.wave, who.lane);
        if !s.touched {
            s.touched = true;
            s.first = key;
            self.words_touched += 1;
        } else if s.first != key {
            s.shared = true;
        }
        s
    }

    /// Every touched word as `(label, index, stats)`, unordered.
    fn rows(&self) -> impl Iterator<Item = (&'static str, u32, WordStats)> + '_ {
        self.words.iter().enumerate().flat_map(move |(label, recs)| {
            (recs.iter().enumerate())
                .filter(|(_, r)| r.touched)
                .map(move |(i, r)| (self.labels.names.name(label as u32), i as u32, r.stats()))
        })
    }

    /// Total waves observed.
    pub fn waves(&self) -> u64 {
        self.waves
    }

    /// Distinct words touched.
    pub fn words_touched(&self) -> usize {
        self.words_touched
    }

    /// The `(first wave, last wave)` window of a kernel, if it ran.
    pub fn kernel_window(&self, kernel: &str) -> Option<(u64, u64)> {
        let id = self.kernel_names.get(kernel)?;
        self.kernels.get(id as usize).copied().flatten()
    }

    /// Every kernel's wave window, in kernel-name order.
    pub fn kernel_windows(&self) -> Vec<(&'static str, u64, u64)> {
        let mut rows: Vec<(&'static str, u64, u64)> = self
            .kernels
            .iter()
            .enumerate()
            .filter_map(|(id, w)| w.map(|(a, b)| (self.kernel_names.name(id as u32), a, b)))
            .collect();
        rows.sort_unstable_by(|a, b| a.0.cmp(b.0));
        rows
    }

    /// Stats for one word, if touched.
    pub fn word(&self, buffer: &'static str, index: u32) -> Option<WordStats> {
        let label = self.labels.names.get(buffer)?;
        let r = self.words.get(label as usize)?.get(index as usize)?;
        r.touched.then(|| r.stats())
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

    /// The top `k` most-*loaded* words regardless of sharing — the
    /// read-hot data (e.g. CSR topology arrays) whose corruption hits
    /// every consumer downstream. Ranked by load count, then total
    /// traffic, ties broken by key.
    pub fn hottest_loaded(&self, k: usize) -> Vec<(&'static str, u32, WordStats)> {
        Self::ranked(self.rows().filter(|(_, _, s)| s.loads > 0), k, |s| (s.loads, s.total()))
    }
}

/// Armed sanitizer state, owned by the device.
pub struct SanState {
    config: SanConfig,
    violations: Vec<SanViolation>,
    total: u64,
    /// Reported `(check, kernel id, address)` sites.
    seen: HashSet<(SanCheck, u32, u64)>,
    /// The current race window (see [`STORE`], [`ATOMIC`], [`LIVE_LOAD`]).
    window: Window<(), Thread>,
    /// Child launches of the current wave, one `(gang item, lane)`
    /// entry per launch; sorted and counted at wave end.
    gang_launches: Vec<(u64, u64)>,
    wave: u32,
    kernel: u32,
    snapshot: bool,
    /// Command stream the current wave was issued on (attribution).
    stream: u32,
    /// Lifetime access profile (never window-cleared).
    profile: AccessProfile,
}

impl SanState {
    /// Fresh sanitizer state for a configuration.
    pub fn new(config: SanConfig) -> Self {
        let mut profile = AccessProfile::default();
        // Accesses before the first wave run under the empty name.
        let kernel = profile.kernel_names.intern("");
        Self {
            config,
            violations: Vec::new(),
            total: 0,
            seen: HashSet::new(),
            window: Window::default(),
            gang_launches: Vec::new(),
            wave: 0,
            kernel,
            snapshot: false,
            stream: 0,
            profile,
        }
    }

    /// Tag subsequent waves with the command stream they run on.
    pub(crate) fn set_stream(&mut self, stream: u32) {
        self.stream = stream;
    }

    /// The configuration this state was armed with.
    pub fn config(&self) -> &SanConfig {
        &self.config
    }

    /// Violations recorded so far (capped at `max_violations`).
    pub fn violations(&self) -> &[SanViolation] {
        &self.violations
    }

    /// Total violations including any beyond the cap.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The lifetime access profile accumulated while armed.
    pub fn profile(&self) -> &AccessProfile {
        &self.profile
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        check: SanCheck,
        buffer: &'static str,
        index: u32,
        addr: u64,
        first: Thread,
        second: Thread,
        detail: String,
    ) {
        // One report per (check, site, address): kernels revisit the
        // same conflict every wave and would otherwise flood the log.
        // The second access always belongs to the current wave.
        if !self.seen.insert((check, self.kernel, addr)) {
            return;
        }
        let kernel = self.profile.kernel_names.name(self.kernel);
        self.total += 1;
        if self.violations.len() < self.config.max_violations {
            self.violations.push(SanViolation {
                check,
                kernel,
                buffer,
                index,
                addr,
                lanes: [u64::from(first.lane), u64::from(second.lane)],
                waves: [u64::from(first.wave), u64::from(second.wave)],
                stream: self.stream,
                detail,
            });
        }
    }

    /// A new wave (one `execute` call) begins. Synchronous (snapshot)
    /// kernels are their own race window.
    pub(crate) fn begin_wave(&mut self, kernel: &'static str, snapshot: bool) {
        self.wave = narrow(u64::from(self.wave) + 1, "wave");
        self.kernel = self.profile.begin_wave(kernel, u64::from(self.wave));
        self.snapshot = snapshot;
        if snapshot {
            self.window.reset();
        }
        self.gang_launches.clear();
    }

    /// The wave finished: run gang agreement checks and close the
    /// window if it was a synchronous kernel.
    pub(crate) fn end_wave(&mut self) {
        if self.config.gangs {
            self.check_gang_launches();
        }
        if self.snapshot {
            self.window.reset();
        }
    }

    /// A grid-wide barrier: every pre-barrier access is ordered before
    /// every post-barrier one, so the window closes.
    pub(crate) fn on_barrier(&mut self) {
        self.window.reset();
    }

    fn check_gang_launches(&mut self) {
        self.gang_launches.sort_unstable();
        // Per gang, each launching lane with its launch count, in
        // (gang, lane) order.
        let mut per_gang: Vec<(u64, Vec<(u64, u64)>)> = Vec::new();
        for &(gang, lane) in &self.gang_launches {
            match per_gang.last_mut() {
                Some((g, lanes)) if *g == gang => match lanes.last_mut() {
                    Some((l, count)) if *l == lane => *count += 1,
                    _ => lanes.push((lane, 1)),
                },
                _ => per_gang.push((gang, vec![(lane, 1)])),
            }
        }
        for (gang, lanes) in per_gang {
            // A single launching lane (gang-leader pattern) and
            // uniform counts across launching lanes are both fine;
            // differing nonzero counts mean the gang diverged on the
            // launch decision.
            if lanes.len() < 2 {
                continue;
            }
            let first_count = lanes[0].1;
            if let Some(&(lane, count)) = lanes.iter().find(|&&(_, c)| c != first_count) {
                let a = Thread::new(self.wave, lanes[0].0, gang, self.kernel);
                let b = Thread::new(self.wave, lane, gang, self.kernel);
                self.record(
                    SanCheck::GangChildDivergence,
                    "(child launches)",
                    0,
                    gang,
                    a,
                    b,
                    format!(
                        "gang {gang}: lane {} launched {first_count} child kernel(s), \
                         lane {lane} launched {count}",
                        lanes[0].0
                    ),
                );
            }
        }
    }

    #[inline]
    fn here(&self, lane: u64, gang: u64) -> Thread {
        Thread::new(self.wave, lane, gang, self.kernel)
    }

    fn uninit(&mut self, w: Word, who: Thread, how: &str) {
        self.record(
            SanCheck::UninitRead,
            w.label,
            w.index,
            w.addr,
            who,
            who,
            format!("{how} of a word never written since alloc/recycle"),
        );
    }

    /// The current window's first plain store, first atomic and first
    /// live plain load on `w` from threads other than `who`, plus the
    /// word's window position and which of the three it already holds.
    #[inline]
    fn priors(&mut self, w: Word, who: Thread) -> (usize, [Option<Thread>; 3], [bool; 3]) {
        let pos = self.window.word(w.addr, || ());
        let c = self.window.classes(pos);
        let held = [c[0].is_some(), c[1].is_some(), c[2].is_some()];
        let other = |t: Option<Thread>| t.filter(|t| !t.same_thread(who));
        (pos, [other(c[0]), other(c[1]), other(c[2])], held)
    }

    /// Hook: plain (snapshot-semantics) load.
    pub(crate) fn on_plain_load(&mut self, w: Word, lane: u64, gang: u64, poisoned: bool) {
        let who = self.here(lane, gang);
        self.profile.stats(w, who).loads += 1;
        if self.config.uninit && poisoned {
            self.uninit(w, who, "plain load");
        }
        if !self.config.races || self.snapshot {
            // In a synchronous kernel a plain load reads the kernel-
            // entry snapshot: deterministic regardless of what other
            // lanes write, so it participates in no race.
            return;
        }
        let (pos, [store, atomic, _], held) = self.priors(w, who);
        if let Some(writer) = store.or(atomic) {
            self.record(
                SanCheck::SnapshotVisibility,
                w.label,
                w.index,
                w.addr,
                writer,
                who,
                format!(
                    "plain load may or may not observe lane {}'s same-window write \
                     (use ld_volatile or order with a barrier)",
                    writer.lane
                ),
            );
        }
        if !held[LIVE_LOAD as usize] {
            self.window.insert(pos, LIVE_LOAD, who);
        }
    }

    /// Hook: volatile load. Sanctioned to race with writes (aligned
    /// words cannot tear), so only the uninit check applies.
    pub(crate) fn on_volatile_load(&mut self, w: Word, lane: u64, gang: u64, poisoned: bool) {
        let who = self.here(lane, gang);
        self.profile.stats(w, who).loads += 1;
        if self.config.uninit && poisoned {
            self.uninit(w, who, "volatile load");
        }
    }

    /// Hook: plain store.
    pub(crate) fn on_store(&mut self, w: Word, lane: u64, gang: u64) {
        let who = self.here(lane, gang);
        self.profile.stats(w, who).stores += 1;
        if !self.config.races {
            return;
        }
        let (pos, [prior_store, prior_atomic, prior_load], held) = self.priors(w, who);
        if !held[STORE as usize] {
            self.window.insert(pos, STORE, who);
        }
        if let Some(other) = prior_store {
            let same_gang = self.config.gangs
                && other.wave == who.wave
                && other.gang == who.gang
                && other.kernel == who.kernel;
            let (check, detail) = if same_gang {
                (
                    SanCheck::GangOverlap,
                    format!(
                        "lanes {} and {} of gang {} both plain-stored this word — \
                         rank-partitioned regions overlap",
                        other.lane, who.lane, who.gang
                    ),
                )
            } else {
                (
                    SanCheck::WriteWriteRace,
                    format!(
                        "plain stores from lanes {} and {} — last writer is \
                         schedule-dependent on hardware",
                        other.lane, who.lane
                    ),
                )
            };
            self.record(check, w.label, w.index, w.addr, other, who, detail);
        } else if let Some(other) = prior_atomic {
            self.record(
                SanCheck::MixedAtomicRace,
                w.label,
                w.index,
                w.addr,
                other,
                who,
                format!(
                    "plain store by lane {} races lane {}'s atomic on the same word",
                    who.lane, other.lane
                ),
            );
        } else if let Some(other) = prior_load {
            self.record(
                SanCheck::SnapshotVisibility,
                w.label,
                w.index,
                w.addr,
                other,
                who,
                format!(
                    "lane {}'s earlier plain load may or may not observe this store \
                     (use ld_volatile or order with a barrier)",
                    other.lane
                ),
            );
        }
    }

    /// Hook: atomic read-modify-write.
    pub(crate) fn on_atomic(&mut self, w: Word, lane: u64, gang: u64, poisoned: bool) {
        let who = self.here(lane, gang);
        self.profile.stats(w, who).atomics += 1;
        if self.config.uninit && poisoned {
            self.uninit(w, who, "atomic read-modify-write");
        }
        if !self.config.races {
            return;
        }
        let (pos, [prior_store, _, prior_load], held) = self.priors(w, who);
        if !held[ATOMIC as usize] {
            self.window.insert(pos, ATOMIC, who);
        }
        if let Some(other) = prior_store {
            self.record(
                SanCheck::MixedAtomicRace,
                w.label,
                w.index,
                w.addr,
                other,
                who,
                format!(
                    "atomic by lane {} races lane {}'s plain store on the same word",
                    who.lane, other.lane
                ),
            );
        } else if let Some(other) = prior_load {
            self.record(
                SanCheck::SnapshotVisibility,
                w.label,
                w.index,
                w.addr,
                other,
                who,
                format!(
                    "lane {}'s earlier plain load may or may not observe this atomic's \
                     result (use ld_volatile or order with a barrier)",
                    other.lane
                ),
            );
        }
    }

    /// Hook: reserved store — a plain store into a slot this lane owns
    /// via a gang-collective tail reservation ([`crate::Lane::gang_push`]).
    /// The reservation hands each lane a distinct slot, so the store
    /// carries the same publish discipline as the `atomicExch` it
    /// replaces: it registers in the atomic slot of the access record
    /// (clean against other reserved stores and against atomics, red
    /// against plain stores and live plain loads), and like an
    /// exchange it never reads, so no uninit check applies.
    pub(crate) fn on_reserved_store(&mut self, w: Word, lane: u64, gang: u64) {
        let who = self.here(lane, gang);
        self.profile.stats(w, who).stores += 1;
        if !self.config.races {
            return;
        }
        let (pos, [prior_store, _, prior_load], held) = self.priors(w, who);
        if !held[ATOMIC as usize] {
            self.window.insert(pos, ATOMIC, who);
        }
        if let Some(other) = prior_store {
            self.record(
                SanCheck::MixedAtomicRace,
                w.label,
                w.index,
                w.addr,
                other,
                who,
                format!(
                    "reserved store by lane {} races lane {}'s plain store on the same word",
                    who.lane, other.lane
                ),
            );
        } else if let Some(other) = prior_load {
            self.record(
                SanCheck::SnapshotVisibility,
                w.label,
                w.index,
                w.addr,
                other,
                who,
                format!(
                    "lane {}'s earlier plain load may or may not observe this reserved \
                     store (use ld_volatile or order with a barrier)",
                    other.lane
                ),
            );
        }
    }

    /// Hook: one child-kernel launch by `lane` of gang item `gang`.
    pub(crate) fn on_child_launch(&mut self, lane: u64, gang: u64) {
        if self.config.gangs {
            self.gang_launches.push((gang, lane));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> SanState {
        SanState::new(SanConfig::default())
    }

    fn at(addr: u64, label: &'static str, index: u32) -> Word {
        Word { addr, buf: 0, label, index }
    }

    #[test]
    fn write_write_race_between_lanes() {
        let mut s = state();
        s.begin_wave("k", false);
        s.on_store(at(64, "buf", 0), 0, 0);
        s.on_store(at(64, "buf", 0), 5, 5);
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
        s.begin_wave("k", false);
        s.on_store(at(64, "buf", 0), 3, 3);
        s.on_store(at(64, "buf", 0), 3, 3);
        s.on_plain_load(at(64, "buf", 0), 3, 3, false);
        s.end_wave();
        assert_eq!(s.total(), 0);
    }

    #[test]
    fn atomics_on_both_sides_are_clean() {
        let mut s = state();
        s.begin_wave("k", false);
        s.on_atomic(at(64, "buf", 0), 0, 0, false);
        s.on_atomic(at(64, "buf", 0), 1, 1, false);
        s.end_wave();
        assert_eq!(s.total(), 0);
    }

    #[test]
    fn volatile_load_may_race_with_atomic() {
        let mut s = state();
        s.begin_wave("k", false);
        s.on_atomic(at(64, "buf", 0), 0, 0, false);
        s.on_volatile_load(at(64, "buf", 0), 1, 1, false);
        s.end_wave();
        assert_eq!(s.total(), 0);
    }

    #[test]
    fn plain_load_vs_atomic_is_snapshot_visibility_in_live_window() {
        let mut s = state();
        s.begin_wave("k", false);
        s.on_plain_load(at(64, "buf", 0), 1, 1, false);
        s.on_atomic(at(64, "buf", 0), 0, 0, false);
        s.end_wave();
        assert_eq!(s.total(), 1);
        assert_eq!(s.violations()[0].check, SanCheck::SnapshotVisibility);
    }

    #[test]
    fn plain_load_in_snapshot_kernel_is_safe() {
        let mut s = state();
        s.begin_wave("k", true);
        s.on_plain_load(at(64, "buf", 0), 1, 1, false);
        s.on_atomic(at(64, "buf", 0), 0, 0, false);
        s.end_wave();
        assert_eq!(s.total(), 0);
    }

    #[test]
    fn window_spans_waves_until_barrier() {
        let mut s = state();
        s.begin_wave("w1", false);
        s.on_store(at(64, "buf", 0), 0, 0);
        s.end_wave();
        s.begin_wave("w2", false);
        // Same lane index, later wave: a different logical thread.
        s.on_store(at(64, "buf", 0), 0, 0);
        s.end_wave();
        assert_eq!(s.total(), 1);
        assert_eq!(s.violations()[0].waves, [1, 2]);

        let mut s = state();
        s.begin_wave("w1", false);
        s.on_store(at(64, "buf", 0), 0, 0);
        s.end_wave();
        s.on_barrier();
        s.begin_wave("w2", false);
        s.on_store(at(64, "buf", 0), 0, 0);
        s.end_wave();
        assert_eq!(s.total(), 0, "barrier closes the window");
    }

    #[test]
    fn uninit_read_reported_once_per_site() {
        let mut s = state();
        s.begin_wave("k", false);
        s.on_plain_load(at(64, "scratch", 3), 0, 0, true);
        s.on_plain_load(at(64, "scratch", 3), 1, 1, true);
        s.end_wave();
        assert_eq!(s.total(), 1);
        assert_eq!(s.violations()[0].check, SanCheck::UninitRead);
        assert_eq!(s.violations()[0].index, 3);
    }

    #[test]
    fn gang_divergent_child_launches_flagged() {
        let mut s = state();
        s.begin_wave("k", false);
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
        s.begin_wave("k", false);
        s.on_store(at(64, "out", 0), 4, 2); // gang 2, lane 4
        s.on_store(at(64, "out", 0), 5, 2); // gang 2, lane 5 — same gang
        s.end_wave();
        assert_eq!(s.violations()[0].check, SanCheck::GangOverlap);
    }

    #[test]
    fn disabled_checks_stay_silent() {
        let mut s = SanState::new(SanConfig {
            races: false,
            uninit: false,
            gangs: false,
            max_violations: 10,
        });
        s.begin_wave("k", false);
        s.on_store(at(64, "buf", 0), 0, 0);
        s.on_store(at(64, "buf", 0), 1, 1);
        s.on_plain_load(at(64, "buf", 0), 2, 2, true);
        s.end_wave();
        assert_eq!(s.total(), 0);
    }

    #[test]
    fn cap_counts_but_stops_storing() {
        let mut s = SanState::new(SanConfig { max_violations: 1, ..SanConfig::default() });
        s.begin_wave("k", false);
        s.on_store(at(64, "buf", 0), 0, 0);
        s.on_store(at(64, "buf", 0), 1, 1);
        s.on_store(at(128, "buf", 1), 0, 0);
        s.on_store(at(128, "buf", 1), 1, 1);
        s.end_wave();
        assert_eq!(s.total(), 2);
        assert_eq!(s.violations().len(), 1);
    }

    #[test]
    fn profile_accumulates_across_windows() {
        let mut s = state();
        s.begin_wave("relax", false);
        s.on_atomic(at(64, "dist", 0), 0, 0, false);
        s.on_atomic(at(64, "dist", 0), 1, 1, false);
        s.on_plain_load(at(68, "dist", 1), 0, 0, false);
        s.end_wave();
        s.on_barrier(); // closes the race window, NOT the profile
        s.begin_wave("relax", false);
        s.on_atomic(at(64, "dist", 0), 2, 2, false);
        s.on_store(at(128, "pending", 0), 0, 0);
        s.end_wave();
        let p = s.profile();
        assert_eq!(p.waves(), 2);
        assert_eq!(p.kernel_window("relax"), Some((1, 2)));
        let hot = p.word("dist", 0).unwrap();
        assert_eq!(hot.atomics, 3);
        assert!(hot.shared());
        let solo = p.word("pending", 0).unwrap();
        assert_eq!(solo.stores, 1);
        assert!(!solo.shared(), "one logical thread only");
    }

    #[test]
    fn profile_ranks_contended_and_overlap_sites() {
        let mut s = state();
        s.begin_wave("k", false);
        // dist[0]: 3 atomics from distinct lanes (hot + contended).
        for lane in 0..3 {
            s.on_atomic(at(64, "dist", 0), lane, lane, false);
        }
        // dist[1]: 1 atomic + 1 plain load (overlap, less hot).
        s.on_atomic(at(68, "dist", 1), 0, 0, false);
        s.on_plain_load(at(68, "dist", 1), 1, 1, false);
        // pending[0]: plain traffic only — in neither ranking.
        s.on_store(at(128, "pending", 0), 0, 0);
        s.end_wave();
        let p = s.profile();
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
            let mut s = state();
            s.begin_wave("k", false);
            for w in 0..8u32 {
                s.on_atomic(at(64 + u64::from(w) * 4, "dist", w), 0, 0, false);
                s.on_atomic(at(64 + u64::from(w) * 4, "dist", w), 1, 1, false);
            }
            s.end_wave();
            s.profile().hottest_contended(8)
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn wave_counter_panics_past_u32_instead_of_wrapping() {
        let mut s = state();
        s.wave = u32::MAX;
        let wrapped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.begin_wave("k", false);
        }));
        assert!(wrapped.is_err(), "wave u32::MAX + 1 must not alias wave 0");
    }

    #[test]
    fn display_carries_site_lane_and_address() {
        let mut s = state();
        s.begin_wave("kern", false);
        s.on_store(at(0x2040, "dist", 16), 3, 3);
        s.on_store(at(0x2040, "dist", 16), 9, 9);
        s.end_wave();
        let msg = s.violations()[0].to_string();
        assert!(msg.contains("kern") && msg.contains("dist[16]"), "{msg}");
        assert!(msg.contains("0x2040") && msg.contains("3/9"), "{msg}");
    }
}
