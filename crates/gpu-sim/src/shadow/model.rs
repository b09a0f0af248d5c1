//! Test-only reference model of the recorder's two views, kept in
//! hashed and ordered maps: a race window keyed by byte address,
//! lifetime tables keyed by label strings. Random hook scripts run
//! through the model and through the real [`Recorder`], armed with
//! either view alone and with both; every violation, hazard witness, IR
//! table and profile ranking must come out equal.
//! The model is the oracle the dense tables are checked against, not a
//! second production path.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::ir::{
    AccessClass, AccessIr, AccessProfile, BufferTraffic, Hazard, HazardKind, IrAccessor,
    KernelStats, QueueDecl, QueueUsage, WordStats,
};
use crate::san::{SanCheck, SanViolation, MAX_VIOLATIONS};
use crate::shadow::{Recorder, Word};

fn acc(wave: u64, lane: u64, gang: u64, kernel: &'static str) -> IrAccessor {
    IrAccessor { wave, lane, gang, kernel }
}

/// Per-address sanitizer state: the first plain store, the first
/// atomic or reserved store (`true` for a reserved store) and the first
/// live plain load.
#[derive(Clone, Copy, Default)]
struct SanRec {
    store: Option<IrAccessor>,
    atomic: Option<(IrAccessor, bool)>,
    load: Option<IrAccessor>,
}

struct SanModel {
    violations: Vec<SanViolation>,
    total: u64,
    seen: HashSet<(SanCheck, &'static str, u64)>,
    access: HashMap<u64, SanRec>,
    gang_launches: BTreeMap<(u64, u64), u64>,
    wave: u64,
    kernel: &'static str,
    snapshot: bool,
    stream: u32,
}

impl SanModel {
    fn new() -> Self {
        Self {
            violations: Vec::new(),
            total: 0,
            seen: HashSet::new(),
            access: HashMap::new(),
            gang_launches: BTreeMap::new(),
            wave: 0,
            kernel: "",
            snapshot: false,
            stream: 0,
        }
    }

    fn record(&mut self, check: SanCheck, w: Word, a: IrAccessor, b: IrAccessor, detail: String) {
        if !self.seen.insert((check, b.kernel, w.addr)) {
            return;
        }
        self.total += 1;
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(SanViolation {
                check,
                kernel: b.kernel,
                buffer: w.label,
                index: w.index,
                addr: w.addr,
                lanes: [a.lane, b.lane],
                waves: [a.wave, b.wave],
                stream: self.stream,
                detail,
            });
        }
    }

    fn begin_wave(&mut self, kernel: &'static str, snapshot: bool) {
        self.wave += 1;
        self.kernel = kernel;
        self.snapshot = snapshot;
        if snapshot {
            self.access.clear();
        }
        self.gang_launches.clear();
    }

    fn end_wave(&mut self) {
        let mut per_gang: Vec<(u64, Vec<(u64, u64)>)> = Vec::new();
        for (&(gang, lane), &count) in &self.gang_launches {
            match per_gang.last_mut() {
                Some((g, lanes)) if *g == gang => lanes.push((lane, count)),
                _ => per_gang.push((gang, vec![(lane, count)])),
            }
        }
        for (gang, lanes) in per_gang {
            let first_count = lanes[0].1;
            let Some(&(lane, count)) = lanes.iter().find(|&&(_, c)| c != first_count) else {
                continue;
            };
            let a = acc(self.wave, lanes[0].0, gang, self.kernel);
            let b = acc(self.wave, lane, gang, self.kernel);
            let w = Word { addr: gang, buf: 0, label: "(child launches)", index: 0 };
            let detail = format!(
                "gang {gang}: lane {} launched {first_count} child kernel(s), \
                 lane {lane} launched {count}",
                lanes[0].0
            );
            self.record(SanCheck::GangChildDivergence, w, a, b, detail);
        }
        if self.snapshot {
            self.access.clear();
        }
    }

    fn uninit(&mut self, w: Word, who: IrAccessor, how: &str) {
        let detail = format!("{how} of a word never written since alloc/recycle");
        self.record(SanCheck::UninitRead, w, who, who, detail);
    }

    fn plain_load(&mut self, w: Word, lane: u64, gang: u64, poisoned: bool) {
        let who = acc(self.wave, lane, gang, self.kernel);
        if poisoned {
            self.uninit(w, who, "plain load");
        }
        if self.snapshot {
            return;
        }
        let rec = self.access.entry(w.addr).or_default();
        let other = |a: Option<IrAccessor>| a.filter(|a| !a.same_thread(&who));
        let conflict = other(rec.store).or_else(|| other(rec.atomic.map(|(a, _)| a)));
        if rec.load.is_none() {
            rec.load = Some(who);
        }
        if let Some(writer) = conflict {
            let detail = format!(
                "plain load may or may not observe lane {}'s same-window write \
                 (use ld_volatile or order with a barrier)",
                writer.lane
            );
            self.record(SanCheck::SnapshotVisibility, w, writer, who, detail);
        }
    }

    fn volatile_load(&mut self, w: Word, lane: u64, gang: u64, poisoned: bool) {
        if poisoned {
            self.uninit(w, acc(self.wave, lane, gang, self.kernel), "volatile load");
        }
    }

    fn store(&mut self, w: Word, lane: u64, gang: u64) {
        let who = acc(self.wave, lane, gang, self.kernel);
        let rec = self.access.entry(w.addr).or_default();
        let other = |a: Option<IrAccessor>| a.filter(|a| !a.same_thread(&who));
        let (store, load) = (other(rec.store), other(rec.load));
        let atomic = rec.atomic.filter(|(a, _)| !a.same_thread(&who));
        if rec.store.is_none() {
            rec.store = Some(who);
        }
        if let Some(o) = store {
            let same_gang = o.wave == who.wave && o.gang == who.gang && o.kernel == who.kernel;
            let (check, detail) = if same_gang {
                (
                    SanCheck::GangOverlap,
                    format!(
                        "lanes {} and {} of gang {} both plain-stored this word — \
                         rank-partitioned regions overlap",
                        o.lane, who.lane, who.gang
                    ),
                )
            } else {
                (
                    SanCheck::WriteWriteRace,
                    format!(
                        "plain stores from lanes {} and {} — last writer is \
                         schedule-dependent on hardware",
                        o.lane, who.lane
                    ),
                )
            };
            self.record(check, w, o, who, detail);
        } else if let Some((o, reserved)) = atomic {
            // A plain store against a reserved store is a write-write
            // race; against an atomic, a mixed-atomic one.
            let (check, what) = if reserved {
                (SanCheck::WriteWriteRace, "reserved store")
            } else {
                (SanCheck::MixedAtomicRace, "atomic")
            };
            let detail = format!(
                "plain store by lane {} races lane {}'s {what} on the same word",
                who.lane, o.lane
            );
            self.record(check, w, o, who, detail);
        } else if let Some(o) = load {
            let detail = format!(
                "lane {}'s earlier plain load may or may not observe this store \
                 (use ld_volatile or order with a barrier)",
                o.lane
            );
            self.record(SanCheck::SnapshotVisibility, w, o, who, detail);
        }
    }

    /// An atomic (`reserved: false`) or a reserved store: both register
    /// in the atomic slot and conflict with plain stores and loads.
    fn atomic_slot(&mut self, w: Word, lane: u64, gang: u64, poisoned: bool, reserved: bool) {
        let who = acc(self.wave, lane, gang, self.kernel);
        if !reserved && poisoned {
            self.uninit(w, who, "atomic read-modify-write");
        }
        let rec = self.access.entry(w.addr).or_default();
        let other = |a: Option<IrAccessor>| a.filter(|a| !a.same_thread(&who));
        let (store, load) = (other(rec.store), other(rec.load));
        if rec.atomic.is_none() {
            rec.atomic = Some((who, reserved));
        }
        let (check, what) = if reserved {
            (SanCheck::WriteWriteRace, "reserved store")
        } else {
            (SanCheck::MixedAtomicRace, "atomic")
        };
        if let Some(o) = store {
            let detail = format!(
                "{what} by lane {} races lane {}'s plain store on the same word",
                who.lane, o.lane
            );
            self.record(check, w, o, who, detail);
        } else if let Some(o) = load {
            let detail = if reserved {
                format!(
                    "lane {}'s earlier plain load may or may not observe this reserved \
                     store (use ld_volatile or order with a barrier)",
                    o.lane
                )
            } else {
                format!(
                    "lane {}'s earlier plain load may or may not observe this atomic's \
                     result (use ld_volatile or order with a barrier)",
                    o.lane
                )
            };
            self.record(SanCheck::SnapshotVisibility, w, o, who, detail);
        }
    }

    fn child_launch(&mut self, lane: u64, gang: u64) {
        *self.gang_launches.entry((gang, lane)).or_insert(0) += 1;
    }
}

type Rows = Vec<(&'static str, u32, WordStats)>;

/// The profile queries the adversary uses, plus every word's stats, as
/// one comparable value.
#[derive(Debug, PartialEq)]
struct Rankings {
    waves: u64,
    kernel_windows: Vec<(&'static str, u64, u64)>,
    words: Rows,
    contended: Rows,
    overlap: Rows,
    buffers: Vec<(&'static str, u64)>,
}

impl Rankings {
    /// The real profile's answers.
    fn of(p: &AccessProfile, k: usize) -> Self {
        let mut words: Rows = p.rows().collect();
        words.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        Rankings {
            waves: p.waves(),
            kernel_windows: p.kernel_windows(),
            words,
            contended: p.hottest_contended(k),
            overlap: p.overlap_sites(k),
            buffers: p.hottest_buffers(k),
        }
    }
}

/// Per-class window summary with the parent's first / first-other-
/// thread semantics.
#[derive(Clone, Copy, Default)]
struct Class {
    first: Option<IrAccessor>,
    second: Option<IrAccessor>,
}

impl Class {
    fn note(&mut self, a: IrAccessor) {
        match self.first {
            None => self.first = Some(a),
            Some(f) if self.second.is_none() && !f.same_thread(&a) => self.second = Some(a),
            _ => {}
        }
    }

    fn self_pair(&self) -> Option<(IrAccessor, IrAccessor)> {
        Some((self.first?, self.second?))
    }

    fn cross_pair(&self, other: &Class) -> Option<(IrAccessor, IrAccessor)> {
        let (a, b) = (self.first?, other.first?);
        if !a.same_thread(&b) {
            return Some((a, b));
        }
        if let Some(b2) = other.second {
            return Some((a, b2));
        }
        Some((self.second?, b))
    }
}

#[derive(Clone, Copy)]
struct LaneSig {
    gang: u64,
    sig: u64,
    children: u64,
}

struct IrModel {
    window: HashMap<u64, (&'static str, u32, [Class; 5])>,
    snapshot: bool,
    wave: u64,
    kernel: &'static str,
    seen: HashMap<(HazardKind, &'static str, &'static str, &'static str), usize>,
    hazards: Vec<Hazard>,
    kernels: BTreeMap<&'static str, KernelStats>,
    lanes: BTreeMap<u64, LaneSig>,
    queues: Vec<QueueUsage>,
    epochs: Vec<u64>,
    window_pushes: Vec<u64>,
    tail_index: HashMap<u64, usize>,
    overflow_index: HashMap<u64, usize>,
    traffic: BTreeMap<&'static str, BufferTraffic>,
    last_touch: HashMap<&'static str, (u64, u32)>,
    atomic_sites: BTreeMap<(&'static str, u32), u64>,
    windows: u64,
    peak_window_words: u64,
    /// The lifetime profile: per word, and each kernel's wave window.
    words: BTreeMap<(&'static str, u32), WordStats>,
    kernel_windows: BTreeMap<&'static str, (u64, u64)>,
}

impl IrModel {
    fn new() -> Self {
        Self {
            window: HashMap::new(),
            snapshot: false,
            wave: 0,
            kernel: "",
            seen: HashMap::new(),
            hazards: Vec::new(),
            kernels: BTreeMap::new(),
            lanes: BTreeMap::new(),
            queues: Vec::new(),
            epochs: Vec::new(),
            window_pushes: Vec::new(),
            tail_index: HashMap::new(),
            overflow_index: HashMap::new(),
            traffic: BTreeMap::new(),
            last_touch: HashMap::new(),
            atomic_sites: BTreeMap::new(),
            windows: 0,
            peak_window_words: 0,
            words: BTreeMap::new(),
            kernel_windows: BTreeMap::new(),
        }
    }

    fn profile(&mut self, w: Word, lane: u64) -> &mut WordStats {
        let s = self.words.entry((w.label, w.index)).or_default();
        match s.first {
            None => s.first = Some((self.wave, lane)),
            Some(f) if f != (self.wave, lane) => s.shared = true,
            Some(_) => {}
        }
        s
    }

    /// The profile queries every caller uses, as one comparable value.
    fn rankings(&self, k: usize) -> Rankings {
        let rank = |keep: &dyn Fn(&WordStats) -> bool, key: &dyn Fn(&WordStats) -> (u64, u64)| {
            let mut rows: Vec<(&'static str, u32, WordStats)> = (self.words.iter())
                .filter(|(_, s)| keep(s))
                .map(|(&(b, i), &s)| (b, i, s))
                .collect();
            rows.sort_by(|a, b| key(&b.2).cmp(&key(&a.2)).then(a.0.cmp(b.0)).then(a.1.cmp(&b.1)));
            rows.truncate(k);
            rows
        };
        let mut by_buf: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (&(b, _), s) in &self.words {
            if s.loads > 0 {
                *by_buf.entry(b).or_insert(0) += s.loads;
            }
        }
        let mut buffers: Vec<(&'static str, u64)> = by_buf.into_iter().collect();
        buffers.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        buffers.truncate(k);
        Rankings {
            waves: self.wave,
            kernel_windows: self.kernel_windows.iter().map(|(&k, &(a, b))| (k, a, b)).collect(),
            words: self.words.iter().map(|(&(b, i), &s)| (b, i, s)).collect(),
            contended: rank(&|s| s.shared && s.atomics > 0, &|s| (s.atomics, s.total())),
            overlap: rank(&|s| s.atomics > 0 && s.loads + s.stores > 0, &|s| {
                (s.atomics, s.total())
            }),
            buffers,
        }
    }

    fn declare_queue(&mut self, decl: QueueDecl) {
        if let Some(&i) = self.tail_index.get(&decl.tail_addr) {
            self.overflow_index.remove(&self.queues[i].decl.overflow_addr);
            self.queues[i].decl = decl;
            self.overflow_index.insert(decl.overflow_addr, i);
            return;
        }
        let i = self.queues.len();
        self.queues.push(QueueUsage {
            decl,
            pushes: 0,
            high_water: 0,
            max_window_pushes: 0,
            drops: 0,
        });
        self.epochs.push(0);
        self.window_pushes.push(0);
        self.tail_index.insert(decl.tail_addr, i);
        self.overflow_index.insert(decl.overflow_addr, i);
    }

    fn begin_wave(&mut self, kernel: &'static str, snapshot: bool) {
        if snapshot {
            self.close_window();
        }
        self.wave += 1;
        self.kernel = kernel;
        self.snapshot = snapshot;
        let wave = self.wave;
        (self.kernel_windows.entry(kernel))
            .and_modify(|(_, last)| *last = wave)
            .or_insert((wave, wave));
        let st = self.kernels.entry(kernel).or_default();
        st.waves += 1;
        if snapshot {
            st.snapshot = true;
        } else {
            st.live = true;
        }
        self.lanes.clear();
        self.last_touch.clear();
    }

    fn end_wave(&mut self) {
        let (mut checked, mut divergent, mut child_div) = (0, 0, 0);
        let mut groups: Vec<Vec<LaneSig>> = Vec::new();
        for sig in self.lanes.values() {
            match groups.last_mut() {
                Some(g) if g[0].gang == sig.gang => g.push(*sig),
                _ => groups.push(vec![*sig]),
            }
        }
        for g in groups.iter().filter(|g| g.len() >= 2) {
            checked += 1;
            divergent += u64::from(g.iter().any(|s| s.sig != g[0].sig));
            child_div += u64::from(g.iter().any(|s| s.children != g[0].children));
        }
        let lanes = self.lanes.len() as u64;
        let st = self.kernels.entry(self.kernel).or_default();
        st.gangs_checked += checked;
        st.gangs_divergent += divergent;
        st.child_divergent += child_div;
        st.max_lanes = st.max_lanes.max(lanes);
        if self.snapshot {
            self.close_window();
            self.snapshot = false;
        }
    }

    fn note_lane(&mut self, lane: u64, gang: u64, tag: u8) -> &mut LaneSig {
        let e = self.lanes.entry(lane).or_insert(LaneSig {
            gang,
            sig: 0xcbf2_9ce4_8422_2325,
            children: 0,
        });
        e.sig = (e.sig ^ tag as u64).wrapping_mul(0x0000_0100_0000_01b3);
        e
    }

    fn access(
        &mut self,
        w: Word,
        lane: u64,
        gang: u64,
        class: usize,
        tag: u8,
    ) -> &mut BufferTraffic {
        let a = acc(self.wave, lane, gang, self.kernel);
        let entry = self.window.entry(w.addr).or_insert((w.label, w.index, [Class::default(); 5]));
        entry.2[class].note(a);
        self.peak_window_words = self.peak_window_words.max(self.window.len() as u64);
        self.note_lane(lane, gang, tag);
        let t = self.traffic.entry(w.label).or_default();
        if let Some(&(ll, li)) = self.last_touch.get(w.label) {
            if lane == ll + 1 {
                match (w.index as i64 - li as i64).unsigned_abs() {
                    0 => t.same_word += 1,
                    1 => t.unit_stride += 1,
                    2..=32 => t.strided += 1,
                    _ => t.scatter += 1,
                }
            }
        }
        self.last_touch.insert(w.label, (lane, w.index));
        t
    }

    fn atomic(&mut self, w: Word, lane: u64, gang: u64, n: u64) {
        self.access(w, lane, gang, 3, 3).atomics += 1;
        self.profile(w, lane).atomics += 1;
        *self.atomic_sites.entry((w.label, w.index)).or_default() += 1;
        if let Some(&i) = self.tail_index.get(&w.addr) {
            self.epochs[i] += n;
            self.queues[i].pushes += n;
            self.window_pushes[i] += n;
            self.queues[i].high_water = self.queues[i].high_water.max(self.epochs[i]);
        } else if let Some(&i) = self.overflow_index.get(&w.addr) {
            self.queues[i].drops += n;
        }
    }

    fn child_launch(&mut self, lane: u64, gang: u64) {
        self.note_lane(lane, gang, 4).children += 1;
    }

    fn host_write(&mut self, addr: u64, val: u32) {
        if let Some(&i) = self.tail_index.get(&addr) {
            self.epochs[i] = u64::from(val);
        }
    }

    fn hazard(
        &mut self,
        kind: HazardKind,
        at: (&'static str, u32, u64),
        pair: Option<(IrAccessor, IrAccessor)>,
    ) {
        let Some((a, b)) = pair else { return };
        let (buffer, index, addr) = at;
        let (k1, k2) =
            if a.kernel <= b.kernel { (a.kernel, b.kernel) } else { (b.kernel, a.kernel) };
        match self.seen.get(&(kind, buffer, k1, k2)) {
            Some(&i) => self.hazards[i].words += 1,
            None => {
                self.seen.insert((kind, buffer, k1, k2), self.hazards.len());
                let snapshot_window = self.snapshot;
                self.hazards.push(Hazard {
                    kind,
                    buffer,
                    index,
                    addr,
                    accessors: [a, b],
                    snapshot_window,
                    words: 1,
                });
            }
        }
    }

    fn close_window(&mut self) {
        if !self.window.is_empty() {
            self.windows += 1;
        }
        let mut addrs: Vec<u64> = self.window.keys().copied().collect();
        addrs.sort_unstable();
        for addr in addrs {
            let (buffer, index, [pl, vl, st, at, rs]) = self.window[&addr];
            let w = (buffer, index, addr);
            use HazardKind::*;
            self.hazard(WriteWrite, w, st.self_pair());
            self.hazard(MixedAtomic, w, st.cross_pair(&at));
            self.hazard(WriteWrite, w, st.cross_pair(&rs));
            if !self.snapshot {
                self.hazard(SnapshotRead, w, pl.cross_pair(&st));
                self.hazard(SnapshotRead, w, pl.cross_pair(&at));
                self.hazard(SnapshotRead, w, pl.cross_pair(&rs));
            }
            self.hazard(UnsanctionedPublish, w, st.cross_pair(&vl));
            self.hazard(AtomicShared, w, at.self_pair());
            self.hazard(VolatileRead, w, vl.cross_pair(&at));
            self.hazard(ReservedPublish, w, rs.self_pair());
            self.hazard(ReservedPublish, w, rs.cross_pair(&at));
            self.hazard(ReservedPublish, w, vl.cross_pair(&rs));
        }
        self.window.clear();
        for (q, p) in self.queues.iter_mut().zip(&mut self.window_pushes) {
            q.max_window_pushes = q.max_window_pushes.max(*p);
            *p = 0;
        }
    }

    fn finish(mut self) -> AccessIr {
        self.close_window();
        let mut queues = self.queues;
        queues.sort_by(|a, b| {
            (a.decl.label, a.decl.tail_addr).cmp(&(b.decl.label, b.decl.tail_addr))
        });
        AccessIr {
            kernels: self.kernels,
            hazards: self.hazards,
            queues,
            traffic: self.traffic,
            atomic_sites: self.atomic_sites,
            windows: self.windows,
            peak_window_words: self.peak_window_words,
            profile: AccessProfile::default(),
        }
    }
}

/// One hook call of a script.
#[derive(Clone, Copy, Debug)]
enum Op {
    Begin { kernel: usize, snapshot: bool, stream: u32 },
    End,
    Barrier,
    PlainLoad { w: Word, lane: u64, gang: u64, poisoned: bool },
    VolatileLoad { w: Word, lane: u64, gang: u64, poisoned: bool },
    Store { w: Word, lane: u64, gang: u64 },
    Atomic { w: Word, lane: u64, gang: u64, poisoned: bool, n: u64 },
    Reserved { w: Word, lane: u64, gang: u64 },
    Child { lane: u64, gang: u64 },
    HostWrite { addr: u64, val: u32 },
    Declare(QueueDecl),
    TakeIr,
}

/// Kernel names; the second "relax" is equal by content but not by
/// address, like a name spelled in two crates.
fn kernels() -> [&'static str; NAMES] {
    let relax = String::from("relax").leak();
    ["relax", "drain", "push", relax, "k4", "k5", "k6", "k7", "k8", "k9", "k10", "k11"]
}

/// Buffer labels, with a second "dist" that is equal by content only.
fn labels() -> [&'static str; NAMES] {
    let dist = String::from("dist").leak();
    ["dist", "queue", "flags", dist, "b4", "b5", "b6", "b7", "b8", "b9", "b10", "b11"]
}

/// Names in each pool: enough that ids pass the dense tables' growth
/// steps.
const NAMES: usize = 12;
const BUFS: u64 = 6;
const WORDS: u32 = 6;

fn base(buf: u64) -> u64 {
    0x1000 + buf * 256
}

/// A random script over 6 buffers of 6 words (buffers are relabelled
/// as the pool would recycle them), 10 lanes in gangs of 1, 2 or 3,
/// live and snapshot waves, barriers, child launches, queue
/// declarations over the buffers' first words, host writes and
/// mid-script `take_ir`s.
fn script(rng: &mut ChaCha8Rng) -> Vec<Op> {
    let labels = labels();
    let mut bufs: Vec<&'static str> = labels[..BUFS as usize].to_vec();
    let mut ops = Vec::new();
    let mut gang_size = 1;
    let mut in_wave = false;
    for _ in 0..rng.gen_range(1..160usize) {
        if !in_wave {
            match rng.gen_range(0..10u32) {
                0 => ops.push(Op::Barrier),
                1 => ops.push(Op::TakeIr),
                2 => {
                    let (tail, overflow) = (rng.gen_range(0..BUFS), rng.gen_range(0..BUFS));
                    let word = |rng: &mut ChaCha8Rng| 4 * u64::from(rng.gen_range(0..2u32));
                    ops.push(Op::Declare(QueueDecl {
                        label: bufs[tail as usize],
                        tail_addr: base(tail) + word(rng),
                        overflow_addr: base(overflow) + word(rng),
                        capacity: rng.gen_range(1..8u32),
                        spill: rng.gen_bool(0.5),
                    }));
                }
                3 => {
                    let buf = rng.gen_range(0..BUFS);
                    let addr = base(buf) + 4 * u64::from(rng.gen_range(0..2u32));
                    ops.push(Op::HostWrite { addr, val: rng.gen_range(0..4u32) });
                }
                4 | 5 => bufs[rng.gen_range(0..BUFS as usize)] = labels[rng.gen_range(0..NAMES)],
                _ => {
                    gang_size = rng.gen_range(1..4u64);
                    ops.push(Op::Begin {
                        kernel: rng.gen_range(0..NAMES),
                        snapshot: rng.gen_bool(0.3),
                        stream: rng.gen_range(0..2u32),
                    });
                    in_wave = true;
                }
            }
            continue;
        }
        let lane = rng.gen_range(0..10u64);
        let gang = lane / gang_size;
        let buf = rng.gen_range(0..BUFS);
        // Low words collide often: that is where races and queues live.
        let index =
            if rng.gen_bool(0.6) { rng.gen_range(0..2u32) } else { rng.gen_range(0..WORDS) };
        let w = Word {
            addr: base(buf) + 4 * u64::from(index),
            buf: buf as u32,
            label: bufs[buf as usize],
            index,
        };
        let poisoned = rng.gen_bool(0.1);
        ops.push(match rng.gen_range(0..16u32) {
            0..=2 => Op::PlainLoad { w, lane, gang, poisoned },
            3..=4 => Op::VolatileLoad { w, lane, gang, poisoned },
            5..=7 => Op::Store { w, lane, gang },
            8..=10 => Op::Atomic { w, lane, gang, poisoned, n: rng.gen_range(1..4u64) },
            11..=12 => Op::Reserved { w, lane, gang },
            13 => Op::Child { lane, gang },
            _ => {
                in_wave = false;
                Op::End
            }
        });
    }
    if in_wave {
        ops.push(Op::End);
    }
    ops
}

/// Each seed's stream opens with the draws that once picked per-script
/// sanitizer options (the sanitizer has none now); skipping them keeps
/// every seed naming the same script.
fn skip_option_draws(rng: &mut ChaCha8Rng) {
    if !rng.gen_bool(0.7) {
        let _ = (rng.gen_bool(0.8), rng.gen_bool(0.8), rng.gen_bool(0.8), rng.gen_range(0..6usize));
    }
}

/// What the scripts exercised, so the test can show it is not vacuous.
#[derive(Default)]
struct Coverage {
    checks: BTreeSet<SanCheck>,
    hazards: BTreeSet<HazardKind>,
    pushes: u64,
    drops: u64,
}

/// The views a run arms.
#[derive(Clone, Copy, Debug)]
struct Arming {
    san: bool,
    ir: bool,
}

/// Every script runs with the sanitizer alone, the IR alone and both:
/// each arming takes its own path through the recorder.
const ARMINGS: [Arming; 3] = [
    Arming { san: true, ir: false },
    Arming { san: false, ir: true },
    Arming { san: true, ir: true },
];

/// Drive one script through the real recorder and the model under each
/// arming; panics on the first difference.
fn check(seed: u64, seen: &mut Coverage) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    skip_option_draws(&mut rng);
    let ops = script(&mut rng);
    for arm in ARMINGS {
        run(seed, &ops, arm, seen);
    }
}

/// One script under one arming. Both models see every hook; only the
/// armed views are compared.
fn run(seed: u64, ops: &[Op], arm: Arming, seen: &mut Coverage) {
    let kernels = kernels();
    let mut rec = Recorder::default();
    if arm.san {
        rec.arm_sanitizer();
    }
    if arm.ir {
        rec.arm_ir(&[]);
    }
    let (mut san_model, mut ir_model) = (SanModel::new(), IrModel::new());
    let mut decls: Vec<QueueDecl> = Vec::new();
    let mut irs = 0;
    for &op in ops {
        match op {
            Op::Begin { kernel, snapshot, stream } => {
                rec.begin_wave(kernels[kernel], snapshot, stream);
                san_model.stream = stream;
                san_model.begin_wave(kernels[kernel], snapshot);
                ir_model.begin_wave(kernels[kernel], snapshot);
            }
            Op::End => {
                rec.end_wave();
                san_model.end_wave();
                ir_model.end_wave();
            }
            Op::Barrier => {
                rec.on_barrier();
                san_model.access.clear();
                ir_model.close_window();
            }
            Op::PlainLoad { w, lane, gang, poisoned } => {
                rec.access(w, lane, gang, AccessClass::PlainLoad, poisoned, 1);
                san_model.plain_load(w, lane, gang, poisoned);
                ir_model.access(w, lane, gang, 0, 1).loads += 1;
                ir_model.profile(w, lane).loads += 1;
            }
            Op::VolatileLoad { w, lane, gang, poisoned } => {
                rec.access(w, lane, gang, AccessClass::VolatileLoad, poisoned, 1);
                san_model.volatile_load(w, lane, gang, poisoned);
                ir_model.access(w, lane, gang, 1, 1).loads += 1;
                ir_model.profile(w, lane).loads += 1;
            }
            Op::Store { w, lane, gang } => {
                rec.access(w, lane, gang, AccessClass::Store, false, 1);
                san_model.store(w, lane, gang);
                ir_model.access(w, lane, gang, 2, 2).stores += 1;
                ir_model.profile(w, lane).stores += 1;
            }
            Op::Atomic { w, lane, gang, poisoned, n } => {
                rec.access(w, lane, gang, AccessClass::Atomic, poisoned, n);
                san_model.atomic_slot(w, lane, gang, poisoned, false);
                ir_model.atomic(w, lane, gang, n);
            }
            Op::Reserved { w, lane, gang } => {
                rec.access(w, lane, gang, AccessClass::ReservedStore, false, 1);
                san_model.atomic_slot(w, lane, gang, false, true);
                ir_model.access(w, lane, gang, 4, 5).stores += 1;
                ir_model.profile(w, lane).stores += 1;
            }
            Op::Child { lane, gang } => {
                rec.on_child_launch(lane, gang);
                san_model.child_launch(lane, gang);
                ir_model.child_launch(lane, gang);
            }
            Op::HostWrite { addr, val } => {
                rec.on_host_write(addr, val);
                ir_model.host_write(addr, val);
            }
            Op::Declare(decl) => {
                decls.retain(|d| d.tail_addr != decl.tail_addr);
                decls.push(decl);
                rec.declare_queue(decl);
                ir_model.declare_queue(decl);
            }
            Op::TakeIr => {
                // With the sanitizer alone there is nothing to take, and
                // its window runs on.
                let Some(got) = rec.take_ir() else {
                    assert!(!arm.ir, "seed {seed}: the IR is armed");
                    continue;
                };
                let old_model = std::mem::replace(&mut ir_model, IrModel::new());
                compare_irs(seed, got, old_model, &mut irs, seen);
                // The device re-arms the IR with the declared queues;
                // arming it beside the sanitizer closes the window for
                // both views.
                decls.sort_by_key(|d| d.tail_addr);
                rec.arm_ir(&decls);
                for &d in &decls {
                    ir_model.declare_queue(d);
                }
                san_model.access.clear();
            }
        }
    }
    if arm.san {
        assert_eq!(rec.violations(), &san_model.violations[..], "seed {seed}: violations");
        assert_eq!(rec.total(), san_model.total, "seed {seed}: violation total");
        seen.checks.extend(rec.violations().iter().map(|v| v.check));
    } else {
        assert_eq!(rec.total(), 0, "seed {seed}: the sanitizer is disarmed");
    }
    match rec.take_ir() {
        Some(got) => compare_irs(seed, got, ir_model, &mut irs, seen),
        None => assert!(!arm.ir, "seed {seed}: the IR is armed"),
    }
}

/// The IR's tables (everything but the profile), as comparable text.
fn tables(ir: &AccessIr) -> String {
    let AccessIr { kernels, hazards, queues, traffic, atomic_sites, windows, .. } = ir;
    format!(
        "{:?}",
        (kernels, hazards, queues, traffic, atomic_sites, windows, ir.peak_window_words)
    )
}

fn compare_irs(seed: u64, got: AccessIr, model: IrModel, irs: &mut usize, seen: &mut Coverage) {
    for k in [2, usize::MAX] {
        let want = model.rankings(k);
        assert_eq!(Rankings::of(&got.profile, k), want, "seed {seed}: profile #{irs}");
    }
    let want = model.finish();
    assert_eq!(tables(&got), tables(&want), "seed {seed}: AccessIr #{irs}");
    *irs += 1;
    seen.hazards.extend(got.hazards.iter().map(|h| h.kind));
    seen.pushes += got.queues.iter().map(|q| q.pushes).sum::<u64>();
    seen.drops += got.queues.iter().map(|q| q.drops).sum::<u64>();
}

#[test]
fn dense_tables_match_the_map_model_on_random_hook_scripts() {
    let mut seen = Coverage::default();
    for seed in 0..600 {
        check(seed, &mut seen);
    }
    assert_eq!(seen.checks.len(), 6, "every violation class fires: {:?}", seen.checks);
    assert_eq!(seen.hazards.len(), 7, "every hazard kind fires: {:?}", seen.hazards);
    assert!(seen.pushes > 0 && seen.drops > 0, "queue accounting is exercised");
}
