//! Warp-lockstep trace replay: divergence, coalescing, caches, atomics.
//!
//! After a warp's lanes run functionally, [`replay_warp`] walks the 32
//! traces step by step:
//!
//! * traces split into *segments* at [`Op::Conv`] reconvergence
//!   points (`__syncwarp`): every lane advances to the boundary
//!   before the next segment begins, so step counters re-align there
//!   — the warp-synchronous multisplit kernels place one per
//!   aggregation point, while scalar traces have none and replay as
//!   one segment exactly as before;
//! * at step `s` of a segment, every lane whose segment is at least
//!   `s + 1` ops long is *active*; active lanes are grouped by
//!   [`OpKind`] in one pass over the warp — each group is one
//!   warp-level instruction (divergent kinds serialize, like SIMT
//!   branches taking both paths), issued in the fixed order ALU, load,
//!   store, atomic;
//! * memory groups coalesce their addresses into 32-byte sectors; each
//!   sector is one transaction probing the SM's cache hierarchy, in
//!   ascending sector order;
//! * atomic groups additionally count same-address conflicts, which
//!   serialize within the warp;
//! * ALU ops carry a repeat count: the group's cost is the maximum
//!   count among its lanes (lockstep execution).
//!
//! The result is the warp's cycle cost plus counter deltas. Replay
//! keeps its per-step groups in stack arrays and allocates nothing.

use crate::cache::{CacheHierarchy, CacheLevel};
use crate::counters::Counters;
use crate::device::DeviceConfig;
use crate::trace::{Op, OpKind};
use crate::{SECTOR_BYTES, WARP_SIZE};

const WARP: usize = WARP_SIZE as usize;

/// Cost and counter outcome of one warp replay.
#[derive(Clone, Debug, Default)]
pub struct WarpOutcome {
    /// Cycles this warp occupies its SM.
    pub cycles: u64,
}

/// The addresses one step's lanes issue for one memory kind, in lane
/// order.
struct Group {
    addrs: [u64; WARP],
    len: usize,
}

impl Group {
    const EMPTY: Group = Group { addrs: [0; WARP], len: 0 };

    #[inline]
    fn push(&mut self, addr: u64) {
        self.addrs[self.len] = addr;
        self.len += 1;
    }
}

/// Replay one warp's traces (one op slice per lane, at most 32) on SM
/// `sm`, updating `counters` and the cache hierarchy, returning the
/// warp's cycle cost. `register` counts the warp and its threads; pass
/// `false` when replaying a continuation of an already-counted warp
/// (the gang-collective flush epilogue).
pub fn replay_warp<L: AsRef<[Op]>>(
    config: &DeviceConfig,
    caches: &mut CacheHierarchy,
    counters: &mut Counters,
    sm: usize,
    lanes: &[L],
    register: bool,
) -> WarpOutcome {
    assert!(lanes.len() <= WARP, "a warp has at most {WARP} lanes");
    let mut traces: [&[Op]; WARP] = [&[]; WARP];
    for (slot, lane) in traces.iter_mut().zip(lanes) {
        *slot = lane.as_ref();
    }
    let traces = &traces[..lanes.len()];
    let mut cycles = 0u64;
    if register {
        counters.warps += 1;
        counters.threads += traces.iter().filter(|t| !t.is_empty()).count().max(1) as u64;
    }

    // Per-lane cursor and current-segment end (exclusive, at the next
    // `Op::Conv` or the trace end).
    let mut cur = [0usize; WARP];
    let mut seg_end = [0usize; WARP];
    // One step's groups, refilled every step.
    let mut loads = Group::EMPTY;
    let mut stores = Group::EMPTY;
    let mut atomics = Group::EMPTY;

    loop {
        // Delimit each lane's next segment; stop when all exhausted.
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
            // Group the step's ops by kind in one pass over the lanes.
            let mut alu_active = 0u64;
            let mut alu_max = 0u32;
            loads.len = 0;
            stores.len = 0;
            atomics.len = 0;
            for (i, t) in traces.iter().enumerate() {
                let pos = cur[i] + step;
                if pos >= seg_end[i] {
                    continue;
                }
                match t[pos] {
                    Op::Alu(n) => {
                        alu_active += 1;
                        alu_max = alu_max.max(n);
                    }
                    Op::Load(a) | Op::LoadVolatile(a) => loads.push(a),
                    Op::Store(a) => stores.push(a),
                    Op::Atomic(a) => atomics.push(a),
                    Op::Conv => unreachable!("segment boundaries exclude Conv"),
                }
            }
            if alu_active > 0 {
                issue(counters, alu_active);
                cycles += 1 + alu_max.saturating_sub(1) as u64;
            }
            for (kind, group) in [
                (OpKind::Load, &mut loads),
                (OpKind::Store, &mut stores),
                (OpKind::Atomic, &mut atomics),
            ] {
                if group.len > 0 {
                    cycles += replay_memory(config, caches, counters, sm, kind, group);
                }
            }
        }
        // Step past each lane's segment and its Conv delimiter.
        for (i, t) in traces.iter().enumerate() {
            cur[i] = (seg_end[i] + 1).min(t.len());
        }
    }
    WarpOutcome { cycles }
}

/// Count one warp instruction with `active` lanes.
#[inline]
fn issue(counters: &mut Counters, active: u64) {
    counters.inst_executed += 1;
    counters.active_lane_sum += active;
    counters.lane_slot_sum += WARP_SIZE as u64;
}

/// Issue one memory group as a warp instruction and return its cycles.
fn replay_memory(
    config: &DeviceConfig,
    caches: &mut CacheHierarchy,
    counters: &mut Counters,
    sm: usize,
    kind: OpKind,
    group: &mut Group,
) -> u64 {
    let addrs = &mut group.addrs[..group.len];
    issue(counters, addrs.len() as u64);
    match kind {
        OpKind::Load => counters.inst_executed_global_loads += 1,
        OpKind::Store => counters.inst_executed_global_stores += 1,
        OpKind::Atomic => {
            counters.inst_executed_atomics += 1;
            // All simulated atomics target global memory (there is no
            // shared-memory tier).
            counters.inst_executed_global_atomics += 1;
        }
        OpKind::Alu | OpKind::Conv => unreachable!("not a memory kind"),
    }
    // Coalesce into sectors.
    let mut sectors = [0u64; WARP];
    for (s, a) in sectors.iter_mut().zip(addrs.iter()) {
        *s = a / SECTOR_BYTES;
    }
    let sectors = &mut sectors[..addrs.len()];
    sectors.sort_unstable();
    let txns = dedup(sectors);
    let sectors = &sectors[..txns];
    let txns = txns as u64;
    match kind {
        OpKind::Load => counters.gld_transactions += txns,
        OpKind::Store => counters.gst_transactions += txns,
        _ => counters.atom_transactions += txns,
    }
    // A warp memory instruction pays the latency of its deepest-level
    // transaction once (the sectors are serviced in parallel —
    // memory-level parallelism) plus a port-throughput cost per extra
    // sector, which is the serialization uncoalesced access causes and
    // coalescing removes.
    let mut deepest = 0u64;
    for &sector in sectors {
        let level = caches.access(sm, sector * SECTOR_BYTES);
        counters.l1_accesses += 1;
        match level {
            CacheLevel::L1 => {
                counters.l1_hits += 1;
                deepest = deepest.max(config.l1_hit_cycles as u64);
            }
            CacheLevel::L2 => {
                counters.l2_accesses += 1;
                counters.l2_hits += 1;
                deepest = deepest.max(config.l2_hit_cycles as u64);
            }
            CacheLevel::Dram => {
                counters.l2_accesses += 1;
                counters.dram_transactions += 1;
                deepest = deepest.max(config.dram_cycles as u64);
            }
        }
    }
    let mut cycles = 1 + deepest + txns.saturating_sub(1) * config.port_cycles as u64;
    if kind == OpKind::Atomic {
        // Same-address atomics serialize lane by lane.
        addrs.sort_unstable();
        let conflicts = (addrs.len() - dedup(addrs)) as u64;
        counters.atomic_conflicts += conflicts;
        cycles += conflicts * config.atomic_conflict_cycles as u64;
    }
    cycles
}

/// Move the distinct values of sorted `xs` to its front; return their
/// count.
fn dedup(xs: &mut [u64]) -> usize {
    let mut n = 0;
    for i in 0..xs.len() {
        if n == 0 || xs[i] != xs[n - 1] {
            xs[n] = xs[i];
            n += 1;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheHierarchy;

    fn setup() -> (DeviceConfig, CacheHierarchy, Counters) {
        let cfg = DeviceConfig::test_tiny();
        let caches = CacheHierarchy::new(&cfg);
        (cfg, caches, Counters::default())
    }

    fn warp_of(ops_per_lane: Vec<Vec<Op>>) -> Vec<Vec<Op>> {
        ops_per_lane
    }

    #[test]
    fn coalesced_load_is_few_transactions() {
        let (cfg, mut caches, mut ctr) = setup();
        // 32 lanes load consecutive words: 128 bytes = 4 sectors.
        let traces = warp_of((0..32).map(|i| vec![Op::Load(i * 4)]).collect());
        replay_warp(&cfg, &mut caches, &mut ctr, 0, &traces, true);
        assert_eq!(ctr.inst_executed_global_loads, 1);
        assert_eq!(ctr.gld_transactions, 4);
        assert_eq!(ctr.warp_execution_efficiency(), 100.0);
    }

    #[test]
    fn scattered_load_is_many_transactions() {
        let (cfg, mut caches, mut ctr) = setup();
        // 32 lanes load words 1 KiB apart: 32 sectors.
        let traces = warp_of((0..32).map(|i| vec![Op::Load(i * 1024)]).collect());
        replay_warp(&cfg, &mut caches, &mut ctr, 0, &traces, true);
        assert_eq!(ctr.inst_executed_global_loads, 1);
        assert_eq!(ctr.gld_transactions, 32);
    }

    #[test]
    fn divergent_kinds_serialize() {
        let (cfg, mut caches, mut ctr) = setup();
        // Half the warp loads, half stores at step 0 → 2 instructions.
        let traces = warp_of(
            (0..32u64)
                .map(|i| vec![if i % 2 == 0 { Op::Load(i * 4) } else { Op::Store(i * 4) }])
                .collect(),
        );
        replay_warp(&cfg, &mut caches, &mut ctr, 0, &traces, true);
        assert_eq!(ctr.inst_executed, 2);
        assert_eq!(ctr.inst_executed_global_loads, 1);
        assert_eq!(ctr.inst_executed_global_stores, 1);
        assert!(ctr.warp_execution_efficiency() < 100.0);
    }

    #[test]
    fn unbalanced_lane_lengths_cost_max() {
        let (cfg, mut caches, mut ctr) = setup();
        // Lane 0 does 10 loads, others do 1: warp executes 10 load
        // instructions (the paper's load-imbalance pathology).
        let mut lanes: Vec<Vec<Op>> = vec![vec![Op::Load(0)]; 32];
        lanes[0] = (0..10).map(|i| Op::Load(i * 4096)).collect();
        let traces = warp_of(lanes);
        replay_warp(&cfg, &mut caches, &mut ctr, 0, &traces, true);
        assert_eq!(ctr.inst_executed_global_loads, 10);
        assert!(ctr.warp_execution_efficiency() < 20.0);
    }

    #[test]
    fn atomic_conflicts_counted() {
        let (cfg, mut caches, mut ctr) = setup();
        // All 32 lanes atomically hit the same address.
        let traces = warp_of((0..32).map(|_| vec![Op::Atomic(64)]).collect());
        let out = replay_warp(&cfg, &mut caches, &mut ctr, 0, &traces, true);
        assert_eq!(ctr.inst_executed_atomics, 1);
        assert_eq!(ctr.atomic_conflicts, 31);
        assert_eq!(ctr.atom_transactions, 1);
        assert!(out.cycles > 31);
    }

    #[test]
    fn distinct_atomics_do_not_conflict() {
        let (cfg, mut caches, mut ctr) = setup();
        let traces = warp_of((0..32).map(|i| vec![Op::Atomic(i * 256)]).collect());
        replay_warp(&cfg, &mut caches, &mut ctr, 0, &traces, true);
        assert_eq!(ctr.atomic_conflicts, 0);
    }

    #[test]
    fn repeat_access_hits_l1() {
        let (cfg, mut caches, mut ctr) = setup();
        let t1 = warp_of(vec![vec![Op::Load(0)]]);
        replay_warp(&cfg, &mut caches, &mut ctr, 0, &t1, true);
        let before = ctr.l1_hits;
        replay_warp(&cfg, &mut caches, &mut ctr, 0, &t1, true);
        assert_eq!(ctr.l1_hits, before + 1);
        assert!(ctr.global_hit_rate() > 0.0);
    }

    #[test]
    fn alu_cost_is_lane_maximum() {
        let (cfg, mut caches, mut ctr) = setup();
        let traces = warp_of(vec![vec![Op::Alu(10)], vec![Op::Alu(2)]]);
        let out = replay_warp(&cfg, &mut caches, &mut ctr, 0, &traces, true);
        assert_eq!(out.cycles, 10);
        assert_eq!(ctr.inst_executed, 1);
    }

    #[test]
    fn empty_warp() {
        let (cfg, mut caches, mut ctr) = setup();
        let out = replay_warp(&cfg, &mut caches, &mut ctr, 0, &warp_of(vec![]), true);
        assert_eq!(out.cycles, 0);
        assert_eq!(ctr.inst_executed, 0);
    }

    #[test]
    fn reconvergence_realigns_divergent_atomics() {
        // Lane 0 ran one more load than lane 1 before both reached the
        // same atomic. Without a convergence point the step counters
        // stay skewed and the two atomics replay as two instructions.
        let (cfg, mut caches, mut ctr) = setup();
        let divergent = warp_of(vec![
            vec![Op::Load(0), Op::Load(64), Op::Atomic(128)],
            vec![Op::Load(0), Op::Atomic(128)],
        ]);
        replay_warp(&cfg, &mut caches, &mut ctr, 0, &divergent, true);
        assert_eq!(ctr.inst_executed_atomics, 2, "skewed steps must not merge");

        // A Conv (__syncwarp) before the atomic re-aligns the lanes:
        // the same program point now issues one warp instruction, and
        // the barrier itself retires nothing.
        let (_, mut caches, mut ctr) = setup();
        let converged = warp_of(vec![
            vec![Op::Load(0), Op::Load(64), Op::Conv, Op::Atomic(128)],
            vec![Op::Load(0), Op::Conv, Op::Atomic(128)],
        ]);
        replay_warp(&cfg, &mut caches, &mut ctr, 0, &converged, true);
        assert_eq!(ctr.inst_executed_atomics, 1, "converged atomics are one instruction");
        assert_eq!(ctr.inst_executed_global_loads, 2);
        assert_eq!(ctr.inst_executed, 3, "the Conv itself is free");
    }

    #[test]
    fn conv_counts_differ_across_lanes() {
        // Different loop trip counts leave the lanes with different
        // numbers of convergence points: replay must run out each
        // lane's segments without mixing a shorter lane's later ops
        // into an earlier segment.
        let (cfg, mut caches, mut ctr) = setup();
        let traces = warp_of(vec![
            vec![Op::Conv, Op::Atomic(0), Op::Conv, Op::Atomic(0), Op::Conv, Op::Atomic(0)],
            vec![Op::Conv, Op::Atomic(4)],
        ]);
        replay_warp(&cfg, &mut caches, &mut ctr, 0, &traces, true);
        // Segment 1 merges both lanes' atomics; lane 0's remaining two
        // segments each issue one more.
        assert_eq!(ctr.inst_executed_atomics, 3);
    }

    #[test]
    fn unregistered_replay_skips_launch_accounting() {
        // The converged flush epilogue replays as a continuation of an
        // already-counted warp: instructions and cycles accrue, but the
        // launch's warp/thread occupancy must not double.
        let (cfg, mut caches, mut ctr) = setup();
        let traces = warp_of(vec![vec![Op::Atomic(0)], vec![Op::Atomic(4)]]);
        replay_warp(&cfg, &mut caches, &mut ctr, 0, &traces, true);
        assert_eq!((ctr.warps, ctr.threads), (1, 2));
        replay_warp(&cfg, &mut caches, &mut ctr, 0, &traces, false);
        assert_eq!((ctr.warps, ctr.threads), (1, 2), "epilogue must not re-register");
        assert_eq!(ctr.inst_executed_atomics, 2, "epilogue instructions still count");
    }
}
