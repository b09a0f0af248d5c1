//! The whole-wave executor the streamed one must match, kept as a test
//! oracle: every lane's trace goes into its own vector, the flush lays
//! the epilogues out per lane, phase by phase, and each warp replays
//! with the four-pass (one pass per op kind) lockstep replay. A seeded
//! property test runs random kernels through both executors and
//! compares everything a caller can observe.

use super::{Lane, Layout, PHASES, PH_LEADER, PH_OVERFLOW, PH_SPILL_OVERFLOW};
use crate::cache::{CacheHierarchy, CacheLevel};
use crate::counters::Counters;
use crate::device::{Device, DeviceConfig};
use crate::trace::{Op, OpKind};
use crate::{SECTOR_BYTES, WARP_SIZE};

impl Device {
    /// Run every lane body (ascending, or permuted under schedule
    /// fuzzing), flush the gang collectives, then replay every warp's
    /// body and epilogue in warp order.
    pub(super) fn run_whole_wave(&mut self, layout: &Layout, body: &dyn Fn(&mut Lane<'_>)) {
        let order: Vec<u64> = match self.sched.as_mut().map(|s| s.permutation(layout.lanes)) {
            Some(order) => order,
            None => (0..layout.lanes).collect(),
        };
        let mut all_traces: Vec<Vec<Op>> = vec![Vec::new(); layout.lanes as usize];
        for &r in &order {
            self.traces.clear();
            let (seg, off) = layout.locate_run(r);
            let span = self.run_lane(seg, off, body);
            all_traces[r as usize] = self.traces.lane(span).to_vec();
        }
        self.traces.clear();
        let placed = self.flush_scatter();
        let epilogue = (!placed.is_empty()).then(|| lay_out_per_lane(&placed, layout));
        for slot in layout.warps() {
            let base = slot.run as usize;
            let end = base + slot.width;
            let sm = slot.sm(self.config.num_sms);
            let cycles = replay_four_pass(
                &self.config,
                &mut self.caches,
                &mut self.counters,
                sm,
                &all_traces[base..end],
                true,
            );
            self.sm_cycles[sm] += cycles;
            if let Some(epi) = &epilogue {
                if epi[base..end].iter().any(|t| !t.is_empty()) {
                    let cycles = replay_four_pass(
                        &self.config,
                        &mut self.caches,
                        &mut self.counters,
                        sm,
                        &epi[base..end],
                        false,
                    );
                    self.sm_cycles[sm] += cycles;
                }
            }
        }
    }
}

/// The flush's placed ops as one epilogue trace per running lane of
/// the wave: per warp, phase by phase, a Conv on every lane between
/// non-empty phases, packed phases dealt round-robin over the warp's
/// running lanes.
fn lay_out_per_lane(placed: &[(u8, u64, Op)], layout: &Layout) -> Vec<Vec<Op>> {
    let mut epi: Vec<Vec<Op>> = vec![Vec::new(); layout.lanes as usize];
    let warp_size = WARP_SIZE as u64;
    for ops in placed.chunk_by(|a, b| a.1 / warp_size == b.1 / warp_size) {
        let warp = layout.warp_of(ops[0].1);
        let (base, width) = (warp.run as usize, warp.width);
        let phys_base = warp.w * warp_size;
        let mut first = true;
        for phase in 0..PHASES {
            if !ops.iter().any(|&(p, _, _)| p == phase) {
                continue;
            }
            if !first {
                for t in &mut epi[base..base + width] {
                    t.push(Op::Conv);
                }
            }
            first = false;
            if matches!(phase, PH_LEADER | PH_OVERFLOW | PH_SPILL_OVERFLOW) {
                let mut slot = 0usize;
                for &(p, _, op) in ops {
                    if p == phase {
                        epi[base + slot % width].push(op);
                        slot += 1;
                    }
                }
            } else {
                for &(p, lane, op) in ops {
                    if p == phase {
                        epi[base + (lane - phys_base) as usize].push(op);
                    }
                }
            }
        }
    }
    epi
}

/// Lockstep replay that scans the warp once per op kind per step,
/// collecting each group's addresses in a vector.
fn replay_four_pass(
    config: &DeviceConfig,
    caches: &mut CacheHierarchy,
    counters: &mut Counters,
    sm: usize,
    traces: &[Vec<Op>],
    register: bool,
) -> u64 {
    let mut cycles = 0u64;
    if register {
        counters.warps += 1;
        counters.threads += traces.iter().filter(|t| !t.is_empty()).count().max(1) as u64;
    }
    let mut sectors: Vec<u64> = Vec::new();
    let mut addrs: Vec<u64> = Vec::new();
    let mut cur = [0usize; WARP_SIZE as usize];
    let mut seg_end = [0usize; WARP_SIZE as usize];
    loop {
        let mut seg_max = 0usize;
        let mut alive = false;
        for (i, t) in traces.iter().enumerate() {
            alive |= cur[i] < t.len();
            let mut e = cur[i];
            while e < t.len() && t[e] != Op::Conv {
                e += 1;
            }
            seg_end[i] = e;
            seg_max = seg_max.max(e - cur[i]);
        }
        if !alive {
            break;
        }
        for step in 0..seg_max {
            for kind in [OpKind::Alu, OpKind::Load, OpKind::Store, OpKind::Atomic] {
                let mut active = 0u64;
                let mut alu_max = 0u32;
                addrs.clear();
                for (i, t) in traces.iter().enumerate() {
                    let pos = cur[i] + step;
                    if pos >= seg_end[i] || t[pos].kind() != kind {
                        continue;
                    }
                    active += 1;
                    match t[pos] {
                        Op::Alu(n) => alu_max = alu_max.max(n),
                        op => addrs.push(op.addr().expect("memory op")),
                    }
                }
                if active == 0 {
                    continue;
                }
                counters.inst_executed += 1;
                counters.active_lane_sum += active;
                counters.lane_slot_sum += WARP_SIZE as u64;
                cycles += 1;
                if kind == OpKind::Alu {
                    cycles += alu_max.saturating_sub(1) as u64;
                    continue;
                }
                sectors.clear();
                sectors.extend(addrs.iter().map(|a| a / SECTOR_BYTES));
                sectors.sort_unstable();
                sectors.dedup();
                let txns = sectors.len() as u64;
                match kind {
                    OpKind::Load => {
                        counters.inst_executed_global_loads += 1;
                        counters.gld_transactions += txns;
                    }
                    OpKind::Store => {
                        counters.inst_executed_global_stores += 1;
                        counters.gst_transactions += txns;
                    }
                    _ => {
                        counters.inst_executed_atomics += 1;
                        counters.inst_executed_global_atomics += 1;
                        counters.atom_transactions += txns;
                    }
                }
                let mut deepest = 0u64;
                for &sector in &sectors {
                    counters.l1_accesses += 1;
                    let level = caches.access(sm, sector * SECTOR_BYTES);
                    if level != CacheLevel::L1 {
                        counters.l2_accesses += 1;
                    }
                    let latency = match level {
                        CacheLevel::L1 => {
                            counters.l1_hits += 1;
                            config.l1_hit_cycles
                        }
                        CacheLevel::L2 => {
                            counters.l2_hits += 1;
                            config.l2_hit_cycles
                        }
                        CacheLevel::Dram => {
                            counters.dram_transactions += 1;
                            config.dram_cycles
                        }
                    };
                    deepest = deepest.max(latency as u64);
                }
                cycles += deepest + txns.saturating_sub(1) * config.port_cycles as u64;
                if kind == OpKind::Atomic {
                    addrs.sort_unstable();
                    let mut distinct = addrs.clone();
                    distinct.dedup();
                    let conflicts = (addrs.len() - distinct.len()) as u64;
                    counters.atomic_conflicts += conflicts;
                    cycles += conflicts * config.atomic_conflict_cycles as u64;
                }
            }
        }
        for (i, t) in traces.iter().enumerate() {
            cur[i] = (seg_end[i] + 1).min(t.len());
        }
    }
    cycles
}

mod tests {
    use crate::buffer::Buf;
    use crate::device::{Device, DeviceConfig};
    use crate::fault::{FaultModel, FaultPlan, FaultSpec};
    use crate::kernel::{GangScatter, Lane, ScatterTarget, Segment};
    use crate::san::SanConfig;
    use crate::{splitmix64, WARP_SIZE};

    /// How a case's kernels are issued.
    #[derive(Clone, Copy, Debug)]
    enum Issue {
        /// `launch` (gang 1), `launch_gangs` or `launch_segments`:
        /// snapshot coherence.
        Launch,
        /// `wave` or `wave_segments`: live coherence, no launch charge.
        Wave,
        /// Two waves of one `wave_session`.
        Session,
    }

    /// One random case: the shape of its kernels and what is armed.
    #[derive(Clone, Debug)]
    struct Case {
        seed: u64,
        /// The kernels' gang segments (1–4).
        segments: Vec<Segment>,
        issue: Issue,
        /// First physical lane that may record gang collectives
        /// (`u64::MAX`: none does). That lane, a running one, always
        /// records one.
        collectives_from: u64,
        fuzz: Option<u64>,
        sanitize: bool,
        ir: bool,
        fault: Option<FaultModel>,
    }

    /// The buffers every kernel of a case touches.
    #[derive(Clone, Copy)]
    struct Bufs {
        data: Buf,
        counter: Buf,
        flags: Buf,
        plain: GangScatter,
        spilling: GangScatter,
    }

    const DATA_WORDS: u32 = 600;

    fn draw(r: &mut u64, n: u64) -> u64 {
        splitmix64(r) % n
    }

    impl Case {
        fn draw(seed: u64) -> Case {
            let mut r = seed;
            let warp = WARP_SIZE as u64;
            // Half the cases run one segment, the rest two to four.
            let count = if draw(&mut r, 2) == 0 { 1 } else { 2 + draw(&mut r, 3) };
            let segments: Vec<Segment> = (0..count)
                .map(|_| {
                    let gang = [1, 2, 3, 4, 8, 32, 64, 128, 256][draw(&mut r, 9) as usize];
                    // Lane counts around warp boundaries, partial last
                    // warps (padding, when a segment follows) included,
                    // up to a few warps.
                    let lanes = match draw(&mut r, 4) {
                        0 => [1, 31, 32, 33, 63, 64, 65, 96][draw(&mut r, 8) as usize],
                        _ => 1 + draw(&mut r, 200),
                    };
                    Segment { items: lanes.div_ceil(gang as u64), gang }
                })
                .collect();
            // One segment's physical lanes: its first, and its lanes.
            let mut first = 0;
            let placed: Vec<(u64, u64)> = segments
                .iter()
                .map(|s| {
                    let lanes = s.items * s.gang as u64;
                    first += lanes.div_ceil(warp) * warp;
                    (first - lanes.div_ceil(warp) * warp, lanes)
                })
                .collect();
            let (base, lanes) = placed[draw(&mut r, count) as usize];
            let last_warp = (lanes - 1) / warp * warp;
            let collectives_from = match draw(&mut r, 4) {
                0 => u64::MAX,
                1 => base + draw(&mut r, lanes.min(warp)),
                2 => base + (last_warp / 2 + draw(&mut r, warp)).min(lanes - 1),
                _ => base + last_warp + draw(&mut r, lanes - last_warp),
            };
            let issue = [Issue::Launch, Issue::Wave, Issue::Session][draw(&mut r, 3) as usize];
            let fault = match draw(&mut r, 8) {
                0 => Some(FaultModel::BitFlip),
                1 => Some(FaultModel::DroppedAtomicMin),
                2 => Some(FaultModel::DuplicatedAtomicMin),
                3 => Some(FaultModel::FailedChildLaunch),
                4 => Some(FaultModel::StaleRead),
                _ => None,
            };
            Case {
                seed,
                segments,
                issue,
                collectives_from,
                fuzz: (draw(&mut r, 3) == 0).then(|| splitmix64(&mut r)),
                sanitize: draw(&mut r, 2) == 0,
                ir: draw(&mut r, 2) == 0,
                fault,
            }
        }
    }

    /// A random lane program: loads and aligned pair loads (whose
    /// values steer divergence), stores, the four atomics, ALU runs,
    /// reconvergence points, every gang collective from
    /// `collectives_from` on, and child launches (only while `depth`
    /// allows) that run programs of their own.
    fn program(lane: &mut Lane<'_>, b: Bufs, seed: u64, collectives_from: u64, depth: u32) {
        let me = lane.phys_id();
        let mut r = seed ^ me.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let collectives = me >= collectives_from;
        if me == collectives_from {
            lane.gang_add(b.counter, 0, 1);
        }
        for _ in 0..draw(&mut r, 12) {
            let idx = draw(&mut r, DATA_WORDS as u64) as u32;
            let val = draw(&mut r, 1000) as u32;
            match draw(&mut r, 17) {
                0 => {
                    if lane.ld(b.data, idx).is_multiple_of(3) {
                        lane.alu(2);
                    }
                }
                1 => {
                    if lane.ld_volatile(b.data, idx).is_multiple_of(2) {
                        lane.ld(b.data, (idx + 1) % DATA_WORDS);
                    }
                }
                2 => lane.st(b.data, idx, val),
                3 => {
                    lane.atomic_min(b.data, idx, val);
                }
                4 => {
                    lane.atomic_add(b.data, idx, 1);
                }
                5 => {
                    lane.atomic_cas(b.data, idx, val, val + 1);
                }
                6 => {
                    lane.atomic_exch(b.data, idx, val);
                }
                7 => lane.alu(draw(&mut r, 4) as u32),
                8 => lane.converge(),
                9 if collectives => lane.gang_push(&b.plain, val),
                10 if collectives => lane.gang_push(&b.spilling, val),
                11 if collectives => lane.gang_add(b.counter, (idx % 2) + 1, val % 3),
                12 if collectives => lane.gang_min(b.data, idx % 8, val),
                13 if collectives => lane.gang_flag(b.flags, idx % 4, val % 2),
                14 if collectives => lane.gang_flag_once(b.flags, idx % 4 + 4, val),
                15 if depth > 0 && draw(&mut r, 3) == 0 => {
                    let threads = 1 + draw(&mut r, 70);
                    let child_seed = splitmix64(&mut r);
                    let from = [0, u64::MAX, 40][draw(&mut r, 3) as usize];
                    lane.launch_child("child", threads, move |cl| {
                        program(cl, b, child_seed, from, depth - 1);
                    });
                }
                16 => {
                    let (x, y) = lane.ld2(b.data, idx & !1);
                    if (x ^ y).is_multiple_of(3) {
                        lane.alu(1);
                    }
                }
                _ => lane.alu(1),
            }
        }
    }

    fn queue(d: &mut Device, label: &'static str, capacity: u32, spill: bool) -> ScatterTarget {
        let tail = d.alloc_upload("queue_tail", &[0]);
        let overflow = d.alloc_upload("queue_overflow", &[0, 0]);
        let data = d.alloc("queue_data", capacity as usize);
        d.fill(data, 0);
        d.declare_queue(label, tail, overflow, capacity, spill);
        ScatterTarget { tail, data, capacity, overflow }
    }

    /// Everything a caller can observe after a case ran.
    #[derive(Debug, PartialEq)]
    struct Observed {
        counters: crate::Counters,
        elapsed_bits: u64,
        reports: String,
        words: Vec<Vec<u32>>,
        traffic: Vec<(&'static str, u64, u64, u64)>,
        violations: Vec<crate::SanViolation>,
        violations_total: u64,
        fault_log: String,
        ir: String,
    }

    fn run(case: &Case, whole_wave: bool) -> Observed {
        let mut d = Device::new(DeviceConfig::test_tiny());
        d.whole_wave = whole_wave;
        if case.sanitize {
            d.arm_sanitizer(SanConfig::default());
        }
        if case.ir {
            d.arm_ir();
        }
        if let Some(model) = case.fault {
            d.arm_faults(FaultPlan::new(FaultSpec::new(model, 0.05, case.seed)));
        }
        if let Some(seed) = case.fuzz {
            d.arm_schedule_fuzz(seed);
        }
        let init: Vec<u32> = (0..DATA_WORDS).map(|i| i * 7 % 1000).collect();
        let data = d.alloc_upload("data", &init);
        let counter = d.alloc_upload("counter", &[0; 3]);
        let flags = d.alloc_upload("flags", &[0; 8]);
        let plain = GangScatter { target: queue(&mut d, "plain", 24, false), spill: None };
        let spilling = GangScatter {
            target: queue(&mut d, "primary", 12, true),
            spill: Some(queue(&mut d, "spill", 20, false)),
        };
        let b = Bufs { data, counter, flags, plain, spilling };
        let all = [data, counter, flags];
        for k in 0..3u64 {
            let seed = case.seed ^ k.wrapping_mul(0xD1B5_4A32_D192_ED03);
            let from = case.collectives_from;
            let body = move |lane: &mut Lane<'_>| program(lane, b, seed, from, 1);
            match (case.issue, &case.segments[..]) {
                (Issue::Launch, &[s]) if s.gang == 1 => d.launch("kernel", s.items, body),
                (Issue::Launch, &[s]) => d.launch_gangs("kernel", s.items, s.gang, body),
                (Issue::Launch, segments) => d.launch_segments("kernel", segments, body),
                (Issue::Wave, &[s]) => d.wave("kernel", s.items, s.gang, body),
                (Issue::Wave, segments) => d.wave_segments("kernel", segments, body),
                (Issue::Session, &[s]) => {
                    let mut session = d.wave_session("session");
                    session.wave(s.items, s.gang, body);
                    session.device().charge_barrier();
                    session.wave(s.items, s.gang, body);
                }
                (Issue::Session, segments) => {
                    let mut session = d.wave_session("session");
                    session.device().wave_segments("session", segments, body);
                    session.device().charge_barrier();
                    session.device().wave_segments("session", segments, body);
                }
            }
        }
        let mut words: Vec<Vec<u32>> = all.iter().map(|&buf| d.read(buf).to_vec()).collect();
        for q in [plain.target, spilling.target, spilling.spill.expect("spill queue")] {
            for buf in [q.tail, q.data, q.overflow] {
                words.push(d.read(buf).to_vec());
            }
        }
        Observed {
            counters: d.counters().clone(),
            elapsed_bits: d.elapsed_ns().to_bits(),
            reports: format!("{:?}", d.reports()),
            words,
            traffic: d.buffer_traffic(),
            violations: d.san_violations().to_vec(),
            violations_total: d.san_total(),
            fault_log: format!("{:?}", d.fault_log()),
            ir: format!("{:?}", d.take_ir()),
        }
    }

    /// The streamed executor is observationally the whole-wave one:
    /// counters, the clock's bits, kernel reports, memory, traffic,
    /// sanitizer verdicts, fault log and the retained IR all match.
    #[test]
    fn streamed_waves_match_the_whole_wave_reference() {
        let mut seeds = 0x5EED_u64;
        let (mut held, mut fuzzed, mut dropped, mut spill_dropped) = (0, 0, 0, 0);
        let (mut multi, mut padded, mut held_late, mut wide) = (0, 0, 0, 0);
        for _ in 0..300 {
            let case = Case::draw(splitmix64(&mut seeds));
            let streamed = run(&case, false);
            assert!(streamed.counters.inst_executed > 0, "{case:?} ran nothing");
            held += usize::from(case.collectives_from != u64::MAX);
            fuzzed += usize::from(case.fuzz.is_some());
            // Overflow cells: the plain queue's, then the spill queue's.
            dropped += usize::from(streamed.words[5][0] > 0);
            spill_dropped += usize::from(streamed.words[11][0] > 0);
            let segs = &case.segments;
            let lanes = |s: &Segment| s.items * s.gang as u64;
            multi += usize::from(segs.len() > 1);
            padded += usize::from(segs[..segs.len() - 1].iter().any(|s| lanes(s) % 32 != 0));
            held_late += usize::from(
                segs.len() > 1
                    && case.collectives_from != u64::MAX
                    && case.collectives_from >= lanes(&segs[0]).div_ceil(32) * 32,
            );
            wide += usize::from(segs.iter().any(|s| s.gang > WARP_SIZE));
            assert_eq!(streamed, run(&case, true), "{case:?}");
        }
        // The draw covers held and fuzzed waves, both overshoot paths
        // of the aggregated push, and multi-segment waves with padding,
        // gangs wider than a warp and a first collective after the
        // first segment.
        assert!(held > 150 && fuzzed > 60, "held {held}, fuzzed {fuzzed}");
        assert!(dropped > 15 && spill_dropped > 15, "{dropped} {spill_dropped}");
        assert!(multi > 100 && padded > 60, "multi {multi}, padded {padded}");
        assert!(held_late > 30 && wide > 60, "held late {held_late}, wide {wide}");
    }

    /// A wide launch without collectives holds one warp's ops at a time.
    #[test]
    fn wide_launch_without_collectives_holds_one_warp() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let a = d.alloc("a", 100_000);
        d.launch("wide", 100_000, |lane| {
            let i = lane.tid() as u32;
            lane.ld(a, i);
            lane.alu(1);
            lane.st(a, i, i);
        });
        assert_eq!(d.counters().warps, 3_125);
        assert_eq!(d.traces.high_water, 3 * WARP_SIZE as usize);
    }
}
