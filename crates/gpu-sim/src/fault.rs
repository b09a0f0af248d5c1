//! Deterministic device-level fault injection.
//!
//! A [`FaultPlan`] is armed on a [`crate::Device`] and hooks the memory
//! and launch paths the SSSP kernels exercise:
//!
//! * **BitFlip** — a plain global load flips one random bit of the word
//!   *in device memory* (persistent corruption, like an uncorrected
//!   DRAM upset), so later readers observe it too;
//! * **DroppedAtomicMin** — an `atomicMin` reports success (returns the
//!   old value) but never writes, modelling a lost read-modify-write;
//! * **DuplicatedAtomicMin** — an `atomicMin` is applied twice
//!   (idempotent for min — deliberately a benign fault class);
//! * **FailedChildLaunch** — a dynamic-parallelism child kernel is
//!   silently discarded, as when the device launch pool is exhausted;
//! * **StaleRead** — a plain load is served from a snapshot of device
//!   memory several kernels old, widening the asynchronous visibility
//!   window far beyond what [`crate::buffer::Arena`] snapshots model.
//!
//! Everything is driven by one splitmix64 stream seeded from
//! [`FaultSpec::seed`]: the same spec replays the same faults
//! byte-for-byte on the same kernel sequence. Every injection is
//! recorded in the plan's [`FaultEvent`] log (capped) so a recovery
//! layer can report exactly what happened. With no plan armed the
//! device takes a single `Option` check per hook and is bit-identical
//! to a fault-free build.

use crate::buffer::Arena;
use crate::splitmix64;

/// Fault classes the plan can inject. See the module docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultModel {
    /// A loaded word comes back with one bit flipped (and the upset
    /// persists in device memory).
    BitFlip,
    /// An `atomicMin` is silently lost.
    DroppedAtomicMin,
    /// An `atomicMin` is applied (and charged) twice.
    DuplicatedAtomicMin,
    /// A dynamic-parallelism child launch silently fails.
    FailedChildLaunch,
    /// A load observes a stale snapshot of the word.
    StaleRead,
}

impl FaultModel {
    /// Every fault model, for matrix-style sweeps.
    pub const ALL: [FaultModel; 5] = [
        FaultModel::BitFlip,
        FaultModel::DroppedAtomicMin,
        FaultModel::DuplicatedAtomicMin,
        FaultModel::FailedChildLaunch,
        FaultModel::StaleRead,
    ];

    /// Stable CLI-friendly name.
    pub fn name(&self) -> &'static str {
        match self {
            FaultModel::BitFlip => "bit-flip",
            FaultModel::DroppedAtomicMin => "dropped-atomic",
            FaultModel::DuplicatedAtomicMin => "duplicated-atomic",
            FaultModel::FailedChildLaunch => "failed-child-launch",
            FaultModel::StaleRead => "stale-read",
        }
    }

    /// Inverse of [`FaultModel::name`].
    pub fn from_name(name: &str) -> Option<FaultModel> {
        FaultModel::ALL.iter().copied().find(|m| m.name() == name)
    }
}

impl std::fmt::Display for FaultModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What to inject: a model, a per-opportunity probability, and the
/// seed that makes the run replayable.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultSpec {
    /// Which fault class to inject.
    pub model: FaultModel,
    /// Probability in `[0, 1]` that each opportunity (load, atomic,
    /// child launch) fires.
    pub rate: f64,
    /// PRNG seed making the injection sequence replayable.
    pub seed: u64,
    /// Optional placement constraint: the plan only considers
    /// opportunities inside the target window (and spends no PRNG
    /// draws outside it, concentrating the injection budget there).
    /// `None` is the classic uniform spray.
    pub target: Option<FaultTarget>,
    /// Optional hard cap on total injections: once the plan has
    /// injected this many faults it goes quiet for the rest of the
    /// run. This is how the adversarial search enforces an *equal
    /// injection budget* across competing plans. `None` is unlimited
    /// (historical behaviour).
    pub cap: Option<u64>,
}

impl FaultSpec {
    /// An unconstrained spec: uniform spray at `rate`, no cap.
    pub fn new(model: FaultModel, rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate must be in [0,1], got {rate}");
        Self { model, rate, seed, target: None, cap: None }
    }

    /// Pin this spec to a placement target (builder-style).
    #[must_use]
    pub fn with_target(mut self, target: FaultTarget) -> Self {
        self.target = Some(target);
        self
    }

    /// Cap this spec's total injections (builder-style).
    #[must_use]
    pub fn with_cap(mut self, cap: u64) -> Self {
        self.cap = Some(cap);
        self
    }
}

/// A placement constraint for targeted fault injection: every field is
/// an optional pin, and an opportunity is eligible only when all set
/// pins match. Ranges are inclusive. Built by the adversarial search
/// from sanitizer access profiles; `FaultSpec::target == None` keeps
/// the historical uniform behaviour bit-for-bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultTarget {
    /// Buffer label or kernel name the fault must hit.
    pub site: Option<&'static str>,
    /// Inclusive word-index window. Ignored at
    /// opportunities that carry no index (e.g. child launches).
    pub index: Option<(u32, u32)>,
    /// Inclusive wave-number window (waves count from 1, across the
    /// whole run in launch order).
    pub wave: Option<(u64, u64)>,
    /// Command stream the fault must land on.
    pub stream: Option<u32>,
}

impl FaultTarget {
    /// The unconstrained target (matches everything, like `None`).
    pub const ANY: FaultTarget = FaultTarget { site: None, index: None, wave: None, stream: None };

    /// Whether an opportunity at `site`/`index` during `wave` on
    /// `stream` is inside this target window. `index == None` means
    /// the opportunity carries no word index, and the index pin is
    /// ignored for it.
    pub fn matches(&self, site: &str, index: Option<u32>, wave: u64, stream: u32) -> bool {
        if let Some(want) = self.site {
            if want != site {
                return false;
            }
        }
        if let (Some((lo, hi)), Some(i)) = (self.index, index) {
            if i < lo || i > hi {
                return false;
            }
        }
        if let Some((lo, hi)) = self.wave {
            if wave < lo || wave > hi {
                return false;
            }
        }
        if let Some(want) = self.stream {
            if want != stream {
                return false;
            }
        }
        true
    }
}

impl std::fmt::Display for FaultTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let site = self.site.unwrap_or("*");
        write!(f, "site={site}")?;
        match self.index {
            Some((lo, hi)) => write!(f, " idx={lo}..={hi}")?,
            None => write!(f, " idx=*")?,
        }
        match self.wave {
            Some((lo, hi)) => write!(f, " wave={lo}..={hi}")?,
            None => write!(f, " wave=*")?,
        }
        match self.stream {
            Some(s) => write!(f, " stream={s}"),
            None => write!(f, " stream=*"),
        }
    }
}

/// One injected fault, as recorded in the plan's log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// The fault class that fired.
    pub model: FaultModel,
    /// Buffer label or kernel name.
    pub site: &'static str,
    /// Word index, or 0 when not meaningful.
    pub index: u32,
    /// Model-specific detail: flipped bit, stale age in kernels,
    /// duplicated value… 0 when not meaningful.
    pub detail: u32,
}

impl std::fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at {}[{}] (detail {})", self.model, self.site, self.index, self.detail)
    }
}

/// Keep the log bounded even at high rates on big runs.
const LOG_CAP: usize = 10_000;

/// Refresh the stale-read snapshot every this many kernels, so faulted
/// loads observe values up to `STALE_WINDOW` kernels old.
const STALE_WINDOW: u64 = 4;

/// A seeded, deterministic, replayable per-run fault plan.
///
/// Arm one on a device with [`crate::Device::arm_faults`]; read the
/// injection log back with [`crate::Device::fault_log`].
#[derive(Clone, Debug)]
pub struct FaultPlan {
    spec: FaultSpec,
    /// splitmix64 state; the whole plan's behaviour is a pure function
    /// of the seed and the sequence of hook calls.
    state: u64,
    /// `rate` mapped onto the top 53 bits of the PRNG output, so the
    /// fire/no-fire decision is integer-exact and platform-independent.
    threshold: u64,
    log: Vec<FaultEvent>,
    /// Injections not recorded because the log hit [`LOG_CAP`].
    dropped_log: u64,
    /// Stale per-buffer memory image (StaleRead only).
    stale: Vec<Vec<u32>>,
    /// Waves (kernel launches) observed so far; hooks during a kernel
    /// see the wave number of that kernel (first kernel = wave 1).
    waves_seen: u64,
    waves_at_refresh: u64,
    /// Stream the current kernel runs on (set at each kernel start).
    stream: u32,
}

impl FaultPlan {
    /// Build the runtime plan for a spec.
    pub fn new(spec: FaultSpec) -> Self {
        assert!((0.0..=1.0).contains(&spec.rate), "fault rate must be in [0,1]");
        let threshold = (spec.rate * (1u64 << 53) as f64) as u64;
        Self {
            spec,
            state: spec.seed,
            threshold,
            log: Vec::new(),
            dropped_log: 0,
            stale: Vec::new(),
            waves_seen: 0,
            waves_at_refresh: 0,
            stream: 0,
        }
    }

    /// The spec this plan was built from.
    pub fn spec(&self) -> FaultSpec {
        self.spec
    }

    /// Injections recorded so far, in order.
    pub fn log(&self) -> &[FaultEvent] {
        &self.log
    }

    /// Total injections, including any beyond the log cap.
    pub fn injections(&self) -> u64 {
        self.log.len() as u64 + self.dropped_log
    }

    /// One Bernoulli draw at the plan's rate.
    fn fires(&mut self) -> bool {
        (splitmix64(&mut self.state) >> 11) < self.threshold
    }

    fn record(&mut self, site: &'static str, index: u32, detail: u32) {
        if self.log.len() < LOG_CAP {
            self.log.push(FaultEvent { model: self.spec.model, site, index, detail });
        } else {
            self.dropped_log += 1;
        }
    }

    /// Kernel-start hook: counts waves, tracks the stream, and
    /// maintains the stale-read snapshot cadence.
    pub(crate) fn on_kernel_start(&mut self, arena: &Arena, stream: u32) {
        self.stream = stream;
        if self.spec.model == FaultModel::StaleRead && self.waves_seen.is_multiple_of(STALE_WINDOW)
        {
            self.stale = arena.clone_words();
            self.waves_at_refresh = self.waves_seen;
        }
        self.waves_seen += 1;
    }

    /// Whether the plan has spent its injection cap and must go quiet.
    /// Checked before any targeting or PRNG draw, so a capped-out plan
    /// consumes no further stream state.
    fn capped_out(&self) -> bool {
        self.spec.cap.is_some_and(|c| self.injections() >= c)
    }

    /// Whether an opportunity at `site`/`index` is inside the spec's
    /// target window (always true for untargeted specs). A capped-out
    /// plan matches nothing.
    fn targeted(&self, site: &'static str, index: Option<u32>) -> bool {
        if self.capped_out() {
            return false;
        }
        match self.spec.target {
            None => true,
            Some(t) => t.matches(site, index, self.waves_seen, self.stream),
        }
    }

    /// Plain-load hook. Returns `Some(observed)` when a fault fires:
    /// for BitFlip the corrupted word (already written back by the
    /// caller), for StaleRead the old snapshot value.
    pub(crate) fn on_load(
        &mut self,
        site: &'static str,
        buf_id: u32,
        idx: u32,
        val: u32,
    ) -> Option<u32> {
        match self.spec.model {
            FaultModel::BitFlip => {
                if !self.targeted(site, Some(idx)) || !self.fires() {
                    return None;
                }
                let bit = (splitmix64(&mut self.state) % 32) as u32;
                self.record(site, idx, bit);
                Some(val ^ (1 << bit))
            }
            FaultModel::StaleRead => {
                if !self.targeted(site, Some(idx)) || !self.fires() {
                    return None;
                }
                let old = *self.stale.get(buf_id as usize)?.get(idx as usize)?;
                if old == val {
                    return None; // indistinguishable, don't log
                }
                let age = (self.waves_seen - self.waves_at_refresh) as u32;
                self.record(site, idx, age);
                Some(old)
            }
            _ => None,
        }
    }

    /// `atomicMin` hook. `Drop` means skip the store (but still return
    /// the old value to the caller); `Duplicate` means apply it twice.
    pub(crate) fn on_atomic_min(&mut self, site: &'static str, idx: u32) -> AtomicMinFault {
        match self.spec.model {
            FaultModel::DroppedAtomicMin => {
                if !self.targeted(site, Some(idx)) || !self.fires() {
                    return AtomicMinFault::None;
                }
                self.record(site, idx, 0);
                AtomicMinFault::Drop
            }
            FaultModel::DuplicatedAtomicMin => {
                if !self.targeted(site, Some(idx)) || !self.fires() {
                    return AtomicMinFault::None;
                }
                self.record(site, idx, 2);
                AtomicMinFault::Duplicate
            }
            _ => AtomicMinFault::None,
        }
    }

    /// Child-launch hook: `true` means the launch is silently dropped.
    /// A child launch carries no word index, so only the site, wave and
    /// stream pins of a target apply here.
    pub(crate) fn on_child_launch(&mut self, name: &'static str, threads: u64) -> bool {
        if self.spec.model == FaultModel::FailedChildLaunch
            && self.targeted(name, None)
            && self.fires()
        {
            self.record(name, threads.min(u32::MAX as u64) as u32, 0);
            return true;
        }
        false
    }
}

/// Outcome of the `atomicMin` hook.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AtomicMinFault {
    None,
    Drop,
    Duplicate,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(model: FaultModel, rate: f64, seed: u64) -> FaultPlan {
        FaultPlan::new(FaultSpec::new(model, rate, seed))
    }

    #[test]
    fn names_roundtrip() {
        for m in FaultModel::ALL {
            assert_eq!(FaultModel::from_name(m.name()), Some(m));
        }
        assert_eq!(FaultModel::from_name("nope"), None);
    }

    #[test]
    fn zero_rate_never_fires() {
        let mut p = plan(FaultModel::BitFlip, 0.0, 7);
        for i in 0..1000 {
            assert_eq!(p.on_load("dist", 0, i, 42), None);
        }
        assert_eq!(p.injections(), 0);
    }

    #[test]
    fn unit_rate_always_fires() {
        let mut p = plan(FaultModel::DroppedAtomicMin, 1.0, 7);
        for i in 0..100 {
            assert_eq!(p.on_atomic_min("dist", i), AtomicMinFault::Drop);
        }
        assert_eq!(p.injections(), 100);
    }

    #[test]
    fn bit_flip_flips_exactly_one_bit() {
        let mut p = plan(FaultModel::BitFlip, 1.0, 3);
        let corrupted = p.on_load("dist", 0, 5, 0xDEAD_BEEF).unwrap();
        assert_eq!((corrupted ^ 0xDEAD_BEEF).count_ones(), 1);
    }

    #[test]
    fn same_seed_same_decisions() {
        let run = |seed| {
            let mut p = plan(FaultModel::BitFlip, 0.3, seed);
            let vals: Vec<Option<u32>> = (0..200).map(|i| p.on_load("d", 0, i, i * 3)).collect();
            (vals, p.log().to_vec())
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0, run(12).0);
    }

    #[test]
    fn target_pins_site_and_index() {
        let t = FaultTarget { site: Some("dist"), index: Some((10, 20)), ..FaultTarget::ANY };
        let mut p = FaultPlan::new(FaultSpec::new(FaultModel::BitFlip, 1.0, 5).with_target(t));
        assert_eq!(p.on_load("pending", 0, 15, 1), None, "wrong site must not fire");
        assert_eq!(p.on_load("dist", 0, 9, 1), None, "below the index window");
        assert!(p.on_load("dist", 0, 10, 1).is_some());
        assert!(p.on_load("dist", 0, 20, 1).is_some());
        assert_eq!(p.on_load("dist", 0, 21, 1), None, "above the index window");
        for e in p.log() {
            assert_eq!(e.site, "dist");
            assert!((10..=20).contains(&e.index));
        }
    }

    #[test]
    fn target_wave_window_gates_fires() {
        let arena = Arena::new();
        let t = FaultTarget { wave: Some((2, 2)), ..FaultTarget::ANY };
        let mut p =
            FaultPlan::new(FaultSpec::new(FaultModel::DroppedAtomicMin, 1.0, 5).with_target(t));
        p.on_kernel_start(&arena, 0); // wave 1
        assert_eq!(p.on_atomic_min("dist", 0), AtomicMinFault::None);
        p.on_kernel_start(&arena, 0); // wave 2
        assert_eq!(p.on_atomic_min("dist", 0), AtomicMinFault::Drop);
        p.on_kernel_start(&arena, 0); // wave 3
        assert_eq!(p.on_atomic_min("dist", 0), AtomicMinFault::None);
        assert_eq!(p.injections(), 1);
    }

    #[test]
    fn target_stream_pin_gates_fires() {
        let arena = Arena::new();
        let t = FaultTarget { stream: Some(1), ..FaultTarget::ANY };
        let mut p =
            FaultPlan::new(FaultSpec::new(FaultModel::DroppedAtomicMin, 1.0, 5).with_target(t));
        p.on_kernel_start(&arena, 0);
        assert_eq!(p.on_atomic_min("dist", 0), AtomicMinFault::None);
        p.on_kernel_start(&arena, 1);
        assert_eq!(p.on_atomic_min("dist", 0), AtomicMinFault::Drop);
    }

    #[test]
    fn child_launch_ignores_index_pin() {
        // A target with an index window still lets child launches fire
        // (launches have no word index), but a site pin applies.
        let t = FaultTarget { site: Some("relax"), index: Some((0, 0)), ..FaultTarget::ANY };
        let mut p =
            FaultPlan::new(FaultSpec::new(FaultModel::FailedChildLaunch, 1.0, 5).with_target(t));
        assert!(!p.on_child_launch("other", 32));
        assert!(p.on_child_launch("relax", 32));
    }

    #[test]
    fn injection_cap_silences_the_plan() {
        let mut p = FaultPlan::new(FaultSpec::new(FaultModel::BitFlip, 1.0, 3).with_cap(5));
        let mut fired = 0;
        for i in 0..1000 {
            if p.on_load("dist", 0, i, 42).is_some() {
                fired += 1;
            }
        }
        assert_eq!(fired, 5);
        assert_eq!(p.injections(), 5);
        // Uncapped, the same spec fires on every opportunity.
        let mut q = FaultPlan::new(FaultSpec::new(FaultModel::BitFlip, 1.0, 3));
        let all = (0..1000).filter(|&i| q.on_load("dist", 0, i, 42).is_some()).count();
        assert_eq!(all, 1000);
    }

    #[test]
    fn any_target_is_equivalent_to_none() {
        let run = |target: Option<FaultTarget>| {
            let mut spec = FaultSpec::new(FaultModel::BitFlip, 0.3, 11);
            spec.target = target;
            let mut p = FaultPlan::new(spec);
            let vals: Vec<Option<u32>> = (0..200).map(|i| p.on_load("d", 0, i, i * 3)).collect();
            (vals, p.log().to_vec())
        };
        assert_eq!(run(None), run(Some(FaultTarget::ANY)));
    }

    #[test]
    fn target_display_formats() {
        let t =
            FaultTarget { site: Some("dist"), index: Some((3, 9)), wave: None, stream: Some(2) };
        assert_eq!(t.to_string(), "site=dist idx=3..=9 wave=* stream=2");
        assert_eq!(FaultTarget::ANY.to_string(), "site=* idx=* wave=* stream=*");
    }

    #[test]
    fn log_caps_but_keeps_counting() {
        let mut p = plan(FaultModel::DroppedAtomicMin, 1.0, 9);
        for i in 0..(LOG_CAP + 50) {
            p.on_atomic_min("dist", i as u32);
        }
        assert_eq!(p.log().len(), LOG_CAP);
        assert_eq!(p.injections(), (LOG_CAP + 50) as u64);
    }
}
