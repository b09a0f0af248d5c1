//! Kernel launch API: lanes, gangs, dynamic parallelism, wave sessions.
//!
//! * [`Device::launch`] — a host-side kernel: `threads` lanes, each
//!   running `body`; consecutive lanes share warps, so lane `tid` maps
//!   to CUDA's global thread id.
//! * [`Device::launch_gangs`] — cooperative mapping: each *item* is
//!   processed by `gang_size` lanes in consecutive positions (gang of
//!   32 = the paper's Warp-granularity processing, 256 = Block
//!   granularity, §4.2).
//! * [`Device::launch_segments`] / [`Device::wave_segments`] — one
//!   kernel or wave whose items come in [`Segment`]s, each with its own
//!   gang size and starting on a warp boundary. Every other entry point
//!   is a one-segment call of the same executor.
//! * [`Lane::launch_child`] — dynamic parallelism: enqueue a child
//!   kernel that runs after the current wave at device-launch cost.
//! * [`Device::wave_session`] — a persistent kernel: pay one launch,
//!   then run arbitrarily many task waves (the asynchronous phase-1
//!   engine of §4.3 builds on this).

use crate::buffer::{Arena, Buf};
use crate::cost::kernel_time;
use crate::counters::KernelReport;
use crate::device::Device;
use crate::fault::{AtomicMinFault, FaultModel, FaultPlan};
use crate::ir::IrState;
use crate::replay::replay_warp;
use crate::san::SanState;
use crate::shadow::Word;
use crate::trace::{word_addr, Op, Span, TraceArena};
use crate::{SECTOR_BYTES, WARP_SIZE};

/// The widest launch the simulator executes, in physical lanes (a
/// segment's padding lanes count). A wave without gang collectives
/// streams its warps through one reusable trace arena and allocates
/// nothing per lane; only a schedule-fuzzed wave (an
/// order slot and a span per lane) and the warps held for the wave-end
/// flush (a span per lane plus their ops) take per-lane memory. A
/// corrupted launch width — a bit-flipped light-edge count makes ADWL
/// queue a child of about 2^31 lanes — would abort the process on that
/// allocation, or, streaming, run for hours. Such a launch is refused
/// with a catchable panic instead, which the recovery ladder grades as
/// a detection; on hardware it would fault on its first out-of-bounds
/// lane. The cap is over 300x the widest launch measured in the test
/// suite (100,000 lanes, a gpu-sim unit kernel; the widest SSSP wave is
/// 42,080 lanes, `phase1_layer`) and over 2,000x the widest in the
/// benchmark workloads (16,320 lanes, `phase1_layer` on
/// `kron-traffic`), and above the
/// one-lane-per-vertex waves of the largest paper-scale stand-in
/// (soc-TW, 21.3M vertices).
pub const MAX_LAUNCH_LANES: u64 = 1 << 25;

/// The word `buf[idx]` at `addr` as the sanitizer and IR hooks see it.
#[inline]
fn word(arena: &Arena, buf: Buf, idx: u32, addr: u64) -> Word {
    Word { addr, buf: buf.id, label: arena.label(buf), index: idx }
}

/// One gang segment of a wave: `items` work items, each run by `gang`
/// consecutive lanes. A wave is a list of segments laid out in order;
/// each starts on a warp boundary, and the lanes that pad a segment's
/// last warp do not run. [`Lane::tid`] numbers the items across all
/// segments, [`Lane::phys_id`] the physical lanes, padding included.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Work items in the segment.
    pub items: u64,
    /// Lanes per item, 1 to the device's `max_block`.
    pub gang: u32,
}

/// Where one non-empty segment sits in its wave.
#[derive(Clone, Copy, Debug)]
struct Placed {
    /// Wave-wide index of the segment's first item.
    item: u64,
    /// The segment's first physical lane, a warp multiple.
    lane: u64,
    /// Index of the segment's first lane among the wave's running lanes.
    run: u64,
    /// Running lanes: `items * gang`.
    lanes: u64,
    gang: u32,
    /// Index of the segment's first block in the wave (see
    /// [`WarpSlot::sm`]).
    block: u64,
}

/// One physical warp of a wave and the running lanes it holds.
#[derive(Clone, Copy, Debug)]
struct WarpSlot {
    /// Physical warp index.
    w: u64,
    /// The warp's segment.
    seg: Placed,
    /// Offset of the warp's first lane in its segment.
    off: u64,
    /// Index of the warp's first lane among the wave's running lanes.
    run: u64,
    /// Running lanes in the warp (1 to 32).
    width: usize,
}

impl WarpSlot {
    /// The SM the warp runs on. The wave's blocks go round-robin over
    /// the SMs: a gang wider than a warp is one block, whose warps
    /// share its SM as a CUDA block's do, and any other warp is a block
    /// of its own (so a wave of gangs up to a warp wide puts warp `w`
    /// on SM `w % num_sms`). A wide gang's warps thus add their cycles
    /// to one SM instead of spreading them.
    fn sm(&self, num_sms: u32) -> usize {
        let gang = self.seg.gang as u64;
        let per_block = if gang > WARP_SIZE as u64 { gang } else { WARP_SIZE as u64 };
        ((self.seg.block + self.off / per_block) % num_sms as u64) as usize
    }
}

/// A wave's segment table: the one description of its lanes that the
/// executor, the schedule fuzzer, the flush layout and the whole-wave
/// reference all read. Traces and spans are indexed by running lane;
/// warps, SMs and the instruments' lane ids by physical lane.
struct Layout {
    segs: Vec<Placed>,
    /// Lanes that run.
    lanes: u64,
    /// Physical lanes, each segment padded to whole warps.
    phys: u64,
}

impl Layout {
    fn new(segments: &[Segment]) -> Self {
        let warp = WARP_SIZE as u64;
        let (mut item, mut lane, mut run, mut block) = (0u64, 0u64, 0u64, 0u64);
        let mut segs = Vec::with_capacity(segments.len());
        for s in segments {
            let lanes = s.items.saturating_mul(s.gang as u64);
            if lanes > 0 {
                segs.push(Placed { item, lane, run, lanes, gang: s.gang, block });
            }
            item += s.items;
            lane = lane.saturating_add(lanes.div_ceil(warp) * warp);
            run = run.saturating_add(lanes);
            block = block.saturating_add(if s.gang > WARP_SIZE {
                s.items
            } else {
                lanes.div_ceil(warp)
            });
        }
        Self { segs, lanes: run, phys: lane }
    }

    /// The segment holding running lane `r`, and `r`'s offset in it.
    fn locate_run(&self, r: u64) -> (&Placed, u64) {
        let seg = &self.segs[self.segs.partition_point(|s| s.run <= r) - 1];
        (seg, r - seg.run)
    }

    /// The wave's warps in ascending physical order.
    fn warps(&self) -> impl Iterator<Item = WarpSlot> + '_ {
        let warp = WARP_SIZE as u64;
        self.segs.iter().flat_map(move |&seg| {
            (0..seg.lanes.div_ceil(warp)).map(move |k| WarpSlot {
                w: seg.lane / warp + k,
                seg,
                off: k * warp,
                run: seg.run + k * warp,
                width: (seg.lanes - k * warp).min(warp) as usize,
            })
        })
    }

    /// The warp holding physical lane `lane` (a running one).
    fn warp_of(&self, lane: u64) -> WarpSlot {
        let warp = WARP_SIZE as u64;
        let seg = self.segs[self.segs.partition_point(|s| s.lane <= lane) - 1];
        let off = (lane - seg.lane) / warp * warp;
        WarpSlot {
            w: lane / warp,
            seg,
            off,
            run: seg.run + off,
            width: (seg.lanes - off).min(warp) as usize,
        }
    }
}

/// A queued dynamic-parallelism child kernel.
pub struct ChildLaunch {
    pub(crate) name: &'static str,
    pub(crate) threads: u64,
    pub(crate) body: Box<dyn Fn(&mut Lane<'_>)>,
}

/// Destination of a warp-aggregated multisplit scatter: one device
/// queue's cursor cells and slot buffer, as its owner declared them
/// via [`Device::declare_queue`]. Word 0 of `tail` is the cursor;
/// word 0 of `overflow` is the sticky drop counter.
#[derive(Clone, Copy, Debug)]
pub struct ScatterTarget {
    /// Tail cursor buffer (word 0 holds the cursor).
    pub tail: Buf,
    /// Slot data buffer the reserved range lands in.
    pub data: Buf,
    /// Slot capacity of `data`; reservations at or past it overshoot.
    pub capacity: u32,
    /// Overflow counter buffer (word 0 counts dropped pushes).
    pub overflow: Buf,
}

/// A gang-collective push descriptor: where aggregated pushes land,
/// and what happens to overshoot. `spill: None` counts overshooting
/// elements on the target's sticky overflow cell (one aggregated bump
/// covering all of them); `spill: Some(next)` re-routes them into the
/// next-level queue with a second aggregated reservation — the MLMQ
/// spill path — whose own overshoot then drops on *its* overflow cell.
#[derive(Clone, Copy, Debug)]
pub struct GangScatter {
    /// The queue aggregated pushes are reserved into.
    pub target: ScatterTarget,
    /// Overshoot routing: drop-count (`None`) or next-level spill.
    pub spill: Option<ScatterTarget>,
}

/// What one lane asked the wave-end gang-collective flush to do.
pub(crate) enum ScatterOp {
    /// Aggregated queue push of one value.
    Push { scatter: GangScatter, value: u32 },
    /// Warp-reduced counter bump: the warp sums the participating
    /// lanes' deltas and the leader performs one `atomicAdd`.
    Count { buf: Buf, idx: u32, delta: u32 },
    /// Warp-reduced minimum: the warp min-reduces the participating
    /// lanes' proposals and the leader performs one `atomicMin`.
    Min { buf: Buf, idx: u32, value: u32 },
    /// Deferred reserved store of `value` at a fixed word (flag set);
    /// identical requests from one warp collapse to a single store.
    Flag { buf: Buf, idx: u32, value: u32 },
    /// Leader-only `atomicExch` of `value` at a fixed word: the warp
    /// ballots, one lane performs the exchange.
    FlagOnce { buf: Buf, idx: u32, value: u32 },
}

/// Epilogue phase indices: the flush lays each warp's materialized
/// ops out as converged segments in this fixed order (see
/// [`Device::flush_scatter`]).
const PH_LEADER: u8 = 0;
const PH_STORE: u8 = 1;
const PH_OVERFLOW: u8 = 2;
const PH_SPILL_STORE: u8 = 3;
const PH_SPILL_OVERFLOW: u8 = 4;
const PHASES: u8 = 5;

/// One recorded gang-collective request, keyed for the canonical
/// flush order (physical warp, op kind, target word, lane).
pub(crate) struct ScatterReq {
    pub(crate) warp: u64,
    pub(crate) lane: u64,
    pub(crate) gang: u64,
    pub(crate) op: ScatterOp,
}

impl ScatterReq {
    /// The canonical flush order: physical warp, op kind, target word,
    /// lane. A group is one (warp, kind, word); the stable sort keeps a
    /// lane's own requests to one word in program order.
    fn flush_key(&self, arena: &Arena) -> [u64; 4] {
        let (kind, addr) = match self.op {
            ScatterOp::Push { scatter, .. } => (0, arena.addr(scatter.target.tail, 0)),
            ScatterOp::Count { buf, idx, .. } => (1, arena.addr(buf, idx)),
            ScatterOp::Min { buf, idx, .. } => (2, arena.addr(buf, idx)),
            ScatterOp::Flag { buf, idx, .. } => (3, arena.addr(buf, idx)),
            ScatterOp::FlagOnce { buf, idx, .. } => (4, arena.addr(buf, idx)),
        };
        [self.warp, kind, addr, self.lane]
    }
}

/// Handle a kernel body uses to touch device state. Every method
/// records the instructions a real GPU thread would execute.
pub struct Lane<'a> {
    arena: &'a mut Arena,
    children: &'a mut Vec<ChildLaunch>,
    traffic: &'a mut Vec<[u64; 3]>,
    scatter: &'a mut Vec<ScatterReq>,
    fault: Option<&'a mut FaultPlan>,
    san: Option<&'a mut SanState>,
    ir: Option<&'a mut IrState>,
    trace: &'a mut TraceArena,
    tid: u64,
    phys: u64,
    gang_rank: u32,
    gang_size: u32,
}

impl<'a> Lane<'a> {
    /// Item/thread id: for [`Device::launch`] the global thread id;
    /// for gang launches the *item index*, numbered across all of the
    /// wave's segments.
    #[inline]
    pub fn tid(&self) -> u64 {
        self.tid
    }

    /// This lane's position within its gang (0 for plain launches).
    #[inline]
    pub fn gang_rank(&self) -> u32 {
        self.gang_rank
    }

    /// Lanes cooperating on this item (1 for plain launches).
    #[inline]
    pub fn gang_size(&self) -> u32 {
        self.gang_size
    }

    /// Physical lane id: the flattened SIMT lane index — the
    /// segment's first lane, plus `gang_size` per earlier item of the
    /// segment, plus `gang_rank` (`tid * gang_size + gang_rank` in a
    /// one-segment wave). `phys_id / 32` is the lane's warp. This is
    /// the identity the sanitizer and the IR recorder key races on —
    /// two accesses with the same `(wave, phys_id)` are program-ordered.
    #[inline]
    pub fn phys_id(&self) -> u64 {
        self.phys
    }

    /// Global load of one word. Inside a synchronous kernel this
    /// observes the kernel-entry snapshot of any buffer written since
    /// launch (plain global loads have no intra-kernel coherence on
    /// real GPUs); atomics always observe live memory.
    #[inline]
    pub fn ld(&mut self, buf: Buf, idx: u32) -> u32 {
        let addr = self.arena.addr(buf, idx);
        self.trace.push(Op::Load(word_addr(addr)));
        self.load_word(buf, idx, addr)
    }

    /// Aligned 8-byte global load of the pair `buf[idx]`, `buf[idx + 1]`
    /// (CUDA's `ld.global.v2.u32`); `idx` must be even. One warp
    /// instruction, recorded as one [`Op::Load`] at the first word:
    /// buffers start on 256-byte boundaries, so an aligned pair never
    /// leaves its 32-byte sector and replay's coalescing and cache
    /// probes stay exact. The sanitizer, the IR recorder, the fault
    /// plan and the per-buffer traffic see each of the two words
    /// exactly as two [`Lane::ld`] calls would show it.
    #[inline]
    pub fn ld2(&mut self, buf: Buf, idx: u32) -> (u32, u32) {
        assert!(
            idx.is_multiple_of(2),
            "8-byte load of '{}' at odd word {idx}: a pair must be aligned",
            self.arena.label(buf)
        );
        let addr = self.arena.addr(buf, idx);
        self.trace.push(Op::Load(word_addr(addr)));
        let first = self.load_word(buf, idx, addr);
        (first, self.load_word(buf, idx + 1, addr + 4))
    }

    /// One word of a plain load, past its trace op: traffic, the
    /// sanitizer and IR hooks, the snapshot-visible value and the
    /// fault plan.
    #[inline]
    fn load_word(&mut self, buf: Buf, idx: u32, addr: u64) -> u32 {
        self.traffic[buf.id as usize][0] += 1;
        let (lane, gang) = (self.phys_id(), self.tid);
        if let Some(san) = self.san.as_deref_mut() {
            let poisoned = self.arena.poisoned_visible(buf, idx);
            san.on_plain_load(word(self.arena, buf, idx, addr), lane, gang, poisoned);
        }
        if let Some(ir) = self.ir.as_deref_mut() {
            ir.on_load(word(self.arena, buf, idx, addr), lane, gang, false);
        }
        let val = self.arena.load_visible(buf, idx);
        self.fault_load(buf, idx, val)
    }

    /// Apply the armed fault plan (if any) to a plain load's value.
    #[inline]
    fn fault_load(&mut self, buf: Buf, idx: u32, val: u32) -> u32 {
        let Some(plan) = self.fault.as_deref_mut() else { return val };
        match plan.on_load(self.arena.label(buf), buf.id, idx, val) {
            Some(observed) => {
                if plan.spec().model == FaultModel::BitFlip {
                    // The upset lands in device memory, not just this
                    // lane's register: later readers see it too. Going
                    // through `Arena::store` (not a raw `slice_mut`
                    // poke) keeps shadow state exact — the word's
                    // poison clears (it now holds a defined, if
                    // corrupted, value) and the kernel-entry snapshot
                    // is captured first, so same-kernel plain loads
                    // still observe the pre-flip value. Static and
                    // dynamic verdicts both treat the flip as
                    // environmental, not a program store.
                    self.arena.store(buf, idx, observed);
                }
                observed
            }
            None => val,
        }
    }

    /// Volatile/L2-coherent load: observes live memory even inside a
    /// synchronous kernel (CUDA's `volatile`/`ld.cg`). Frontier codes
    /// need it for the pop-side distance read, which races with the
    /// improver's `atomicMin` + pending-flag handshake — a plain load
    /// there loses updates.
    #[inline]
    pub fn ld_volatile(&mut self, buf: Buf, idx: u32) -> u32 {
        let addr = self.arena.addr(buf, idx);
        self.trace.push(Op::LoadVolatile(word_addr(addr)));
        self.traffic[buf.id as usize][0] += 1;
        let (lane, gang) = (self.phys_id(), self.tid);
        if let Some(san) = self.san.as_deref_mut() {
            let poisoned = self.arena.poisoned_live(buf, idx);
            san.on_volatile_load(word(self.arena, buf, idx, addr), lane, gang, poisoned);
        }
        if let Some(ir) = self.ir.as_deref_mut() {
            ir.on_load(word(self.arena, buf, idx, addr), lane, gang, true);
        }
        let val = self.arena.load(buf, idx);
        self.fault_load(buf, idx, val)
    }

    /// Global store of one word.
    #[inline]
    pub fn st(&mut self, buf: Buf, idx: u32, val: u32) {
        let addr = self.arena.addr(buf, idx);
        self.trace.push(Op::Store(word_addr(addr)));
        self.traffic[buf.id as usize][1] += 1;
        let (lane, gang) = (self.phys_id(), self.tid);
        if let Some(san) = self.san.as_deref_mut() {
            san.on_store(word(self.arena, buf, idx, addr), lane, gang);
        }
        if let Some(ir) = self.ir.as_deref_mut() {
            ir.on_store(word(self.arena, buf, idx, addr), lane, gang);
        }
        self.arena.store(buf, idx, val);
    }

    /// Sanitizer + IR entry shared by all four atomic flavours.
    /// `reads` is false for `atomicExch` — the only atomic whose
    /// effect does not depend on the old value, so exchanging into a
    /// never-written word is an initialization, not an uninit read.
    #[inline]
    fn san_atomic(&mut self, buf: Buf, idx: u32, addr: u64, reads: bool) {
        let (lane, gang) = (self.phys_id(), self.tid);
        if let Some(san) = self.san.as_deref_mut() {
            let poisoned = reads && self.arena.poisoned_live(buf, idx);
            san.on_atomic(word(self.arena, buf, idx, addr), lane, gang, poisoned);
        }
        if let Some(ir) = self.ir.as_deref_mut() {
            ir.on_atomic(word(self.arena, buf, idx, addr), lane, gang);
        }
    }

    /// `atomicMin`: returns the previous value (Alg. 1's relaxation
    /// update).
    #[inline]
    pub fn atomic_min(&mut self, buf: Buf, idx: u32, val: u32) -> u32 {
        let addr = self.arena.addr(buf, idx);
        self.trace.push(Op::Atomic(word_addr(addr)));
        self.traffic[buf.id as usize][2] += 1;
        self.san_atomic(buf, idx, addr, true);
        let old = self.arena.load(buf, idx);
        if let Some(plan) = self.fault.as_deref_mut() {
            match plan.on_atomic_min(self.arena.label(buf), idx) {
                // Lost read-modify-write: the caller is told `old` (and
                // so believes its improvement landed) but nothing did.
                AtomicMinFault::Drop => return old,
                AtomicMinFault::Duplicate => {
                    // min is idempotent — apply twice, pay twice.
                    if val < old {
                        self.arena.store(buf, idx, val);
                        self.arena.store(buf, idx, val);
                    }
                    self.traffic[buf.id as usize][2] += 1;
                    return old;
                }
                AtomicMinFault::None => {}
            }
        }
        if val < old {
            self.arena.store(buf, idx, val);
        }
        old
    }

    /// `atomicAdd`: returns the previous value (queue-tail bumps).
    #[inline]
    pub fn atomic_add(&mut self, buf: Buf, idx: u32, val: u32) -> u32 {
        let addr = self.arena.addr(buf, idx);
        self.trace.push(Op::Atomic(word_addr(addr)));
        self.traffic[buf.id as usize][2] += 1;
        self.san_atomic(buf, idx, addr, true);
        let old = self.arena.load(buf, idx);
        self.arena.store(buf, idx, old.wrapping_add(val));
        old
    }

    /// `atomicCAS`: returns the previous value.
    #[inline]
    pub fn atomic_cas(&mut self, buf: Buf, idx: u32, expected: u32, val: u32) -> u32 {
        let addr = self.arena.addr(buf, idx);
        self.trace.push(Op::Atomic(word_addr(addr)));
        self.traffic[buf.id as usize][2] += 1;
        self.san_atomic(buf, idx, addr, true);
        let old = self.arena.load(buf, idx);
        if old == expected {
            self.arena.store(buf, idx, val);
        }
        old
    }

    /// `atomicExch`: returns the previous value.
    #[inline]
    pub fn atomic_exch(&mut self, buf: Buf, idx: u32, val: u32) -> u32 {
        let addr = self.arena.addr(buf, idx);
        self.trace.push(Op::Atomic(word_addr(addr)));
        self.traffic[buf.id as usize][2] += 1;
        self.san_atomic(buf, idx, addr, false);
        let old = self.arena.load(buf, idx);
        self.arena.store(buf, idx, val);
        old
    }

    /// Warp-aggregated multisplit push (GPU Multisplit's scatter
    /// step): the lanes of one physical warp pushing to the same
    /// target ballot their membership, exclusive-scan the mask for
    /// per-lane ranks, elect the lowest participating lane to reserve
    /// the whole slot range with **one** `atomicAdd`, shuffle the base
    /// back, and publish each payload with a coalesced plain store
    /// into its owned slot. The simulator executes lanes sequentially,
    /// so the cooperative protocol is modelled as a deferred request:
    /// the ballot/scan/broadcast ALU work is charged here, and the
    /// reservation + reserved stores are materialized at wave end by
    /// the flush — after every lane body ran, before the host can
    /// observe the wave — in a canonical order that no lane schedule
    /// perturbs. Overshoot keeps the scalar path's exact accounting:
    /// the tail still advances by the full aggregate (so drains see
    /// the same overshoot), and drops either count on the sticky
    /// overflow cell or spill per [`GangScatter::spill`].
    #[inline]
    pub fn gang_push(&mut self, scatter: &GangScatter, value: u32) {
        // Ballot + popc rank + leader broadcast.
        self.alu(3);
        let lane = self.phys_id();
        self.scatter.push(ScatterReq {
            warp: lane / WARP_SIZE as u64,
            lane,
            gang: self.tid,
            op: ScatterOp::Push { scatter: *scatter, value },
        });
    }

    /// Warp-reduced counter bump (`__reduce_add_sync` + leader
    /// `atomicAdd`): lanes of one warp incrementing the same word sum
    /// their deltas and one elected lane adds the total at wave end.
    /// The caller must not need the old value — reductions whose
    /// result is consumed stay on [`Lane::atomic_add`].
    #[inline]
    pub fn gang_add(&mut self, buf: Buf, idx: u32, delta: u32) {
        // Ballot + tree reduction + leader elect.
        self.alu(2);
        let lane = self.phys_id();
        self.scatter.push(ScatterReq {
            warp: lane / WARP_SIZE as u64,
            lane,
            gang: self.tid,
            op: ScatterOp::Count { buf, idx, delta },
        });
    }

    /// Warp-reduced minimum (shuffle min-reduction + leader
    /// `atomicMin`): lanes of one warp proposing minima for the same
    /// word reduce locally and one elected lane publishes the warp's
    /// minimum at wave end. min is associative/commutative and the
    /// result is discarded, so this is observation-equivalent to the
    /// per-lane scalar exchanges under any schedule.
    #[inline]
    pub fn gang_min(&mut self, buf: Buf, idx: u32, value: u32) {
        // Ballot + tree reduction + leader elect.
        self.alu(2);
        let lane = self.phys_id();
        self.scatter.push(ScatterReq {
            warp: lane / WARP_SIZE as u64,
            lane,
            gang: self.tid,
            op: ScatterOp::Min { buf, idx, value },
        });
    }

    /// Explicit warp reconvergence point (`__syncwarp` /
    /// `__activemask` convergence): free at replay time, but step
    /// counters re-align here, so ops at the same post-sync program
    /// point group into one warp instruction even when the lanes
    /// diverged earlier in the segment. The warp-synchronous
    /// multisplit kernels mark each aggregation loop iteration; the
    /// scalar baseline kernels never call this and replay exactly as
    /// before.
    #[inline]
    pub fn converge(&mut self) {
        self.trace.push(Op::Conv);
    }

    /// Warp-aggregated flag set: a deferred reserved store of `val` at
    /// `buf[idx]`. Lanes of one warp flagging the same word with the
    /// same value ballot and elect one storer, so k redundant
    /// `atomicExch(flag, v)` calls collapse into one plain store at
    /// wave end. Distinct values to one word all land, lowest
    /// requesting lane first — deterministic under any schedule.
    #[inline]
    pub fn gang_flag(&mut self, buf: Buf, idx: u32, val: u32) {
        // Ballot + leader elect.
        self.alu(2);
        let lane = self.phys_id();
        self.scatter.push(ScatterReq {
            warp: lane / WARP_SIZE as u64,
            lane,
            gang: self.tid,
            op: ScatterOp::Flag { buf, idx, value: val },
        });
    }

    /// Warp-aggregated once-per-warp `atomicExch`: lanes requesting
    /// the same word ballot, and only the elected leader performs the
    /// exchange at wave end (progress-flag publication).
    #[inline]
    pub fn gang_flag_once(&mut self, buf: Buf, idx: u32, val: u32) {
        // Ballot + leader elect.
        self.alu(2);
        let lane = self.phys_id();
        self.scatter.push(ScatterReq {
            warp: lane / WARP_SIZE as u64,
            lane,
            gang: self.tid,
            op: ScatterOp::FlagOnce { buf, idx, value: val },
        });
    }

    /// Record `n` arithmetic/control instructions.
    #[inline]
    pub fn alu(&mut self, n: u32) {
        if n > 0 {
            self.trace.push(Op::Alu(n));
        }
    }

    /// Dynamic parallelism: queue a child kernel of `threads` lanes
    /// (gang size 1). Runs after the current wave, charged the
    /// device-side launch overhead.
    pub fn launch_child(
        &mut self,
        name: &'static str,
        threads: u64,
        body: impl Fn(&mut Lane<'_>) + 'static,
    ) {
        // The launch itself costs a few instructions on the parent.
        self.alu(4);
        let lane = self.phys_id();
        if let Some(san) = self.san.as_deref_mut() {
            san.on_child_launch(lane, self.tid);
        }
        if let Some(ir) = self.ir.as_deref_mut() {
            ir.on_child_launch(lane, self.tid);
        }
        if let Some(plan) = self.fault.as_deref_mut() {
            if plan.on_child_launch(name, threads) {
                return;
            }
        }
        self.children.push(ChildLaunch { name, threads, body: Box::new(body) });
    }
}

impl Device {
    /// Launch a kernel of `threads` lanes. `body` receives each lane;
    /// memory effects are immediate; timing/counters follow the SIMT
    /// replay model. Queued children run afterwards.
    pub fn launch(&mut self, name: &'static str, threads: u64, body: impl Fn(&mut Lane<'_>)) {
        self.launch_segments(name, &[Segment { items: threads, gang: 1 }], body);
    }

    /// Launch with cooperative gangs: `items * gang_size` lanes;
    /// `lane.tid()` is the item index, `lane.gang_rank()` the position.
    pub fn launch_gangs(
        &mut self,
        name: &'static str,
        items: u64,
        gang_size: u32,
        body: impl Fn(&mut Lane<'_>),
    ) {
        self.launch_segments(name, &[Segment { items, gang: gang_size }], body);
    }

    /// Launch a kernel whose lanes are `segments` laid out in order
    /// (see [`Segment`]); `lane.tid()` is the item index across them.
    pub fn launch_segments(
        &mut self,
        name: &'static str,
        segments: &[Segment],
        body: impl Fn(&mut Lane<'_>),
    ) {
        self.execute(name, segments, false, true, true, &body);
        self.drain_children(true);
    }

    /// Begin a persistent-kernel session: one launch overhead now,
    /// then any number of free-of-launch task waves.
    pub fn wave_session(&mut self, name: &'static str) -> WaveSession<'_> {
        self.charge_kernel_launch();
        WaveSession { device: self, name, waves: 0 }
    }

    /// Charge one host-side kernel-launch overhead without running
    /// anything (used by persistent-kernel structures that manage
    /// their own waves).
    pub fn charge_kernel_launch(&mut self) {
        self.counters.kernel_launches += 1;
        self.elapsed_ns += self.config.kernel_launch_us * 1e3;
    }

    /// Run a task wave with **no** launch overhead: the execution model
    /// of work dispatched inside an already-running persistent kernel.
    /// Children queued by the wave run before this returns.
    pub fn wave(
        &mut self,
        name: &'static str,
        items: u64,
        gang_size: u32,
        body: impl Fn(&mut Lane<'_>),
    ) {
        self.wave_segments(name, &[Segment { items, gang: gang_size }], body);
    }

    /// [`Device::wave`] over `segments` laid out in order (see
    /// [`Segment`]).
    pub fn wave_segments(
        &mut self,
        name: &'static str,
        segments: &[Segment],
        body: impl Fn(&mut Lane<'_>),
    ) {
        self.execute(name, segments, false, false, false, &body);
        self.drain_children(false);
    }

    pub(crate) fn drain_children(&mut self, snapshot: bool) {
        // Children may enqueue grandchildren; loop until quiescent.
        // Each child is its own kernel: it inherits the parent's
        // coherence mode but snapshots at its own start.
        while !self.pending_children.is_empty() {
            let batch = std::mem::take(&mut self.pending_children);
            for child in batch {
                let lanes = [Segment { items: child.threads, gang: 1 }];
                self.execute(child.name, &lanes, true, false, snapshot, &*child.body);
            }
        }
    }

    fn execute(
        &mut self,
        name: &'static str,
        segments: &[Segment],
        child: bool,
        charge_launch: bool,
        snapshot: bool,
        body: &dyn Fn(&mut Lane<'_>),
    ) {
        for s in segments {
            assert!(
                s.gang >= 1 && s.gang <= self.config.max_block,
                "kernel {name}: gang of {} lanes outside 1..={}",
                s.gang,
                self.config.max_block
            );
        }
        let layout = Layout::new(segments);
        assert!(
            layout.phys <= MAX_LAUNCH_LANES,
            "kernel {name} launched with {} lanes, above the simulator's cap of {MAX_LAUNCH_LANES}",
            layout.phys
        );
        if charge_launch {
            self.counters.kernel_launches += 1;
            self.elapsed_ns += self.config.kernel_launch_us * 1e3;
        }
        if child {
            self.counters.child_kernel_launches += 1;
            self.elapsed_ns += self.config.child_launch_us * 1e3;
        }
        if layout.lanes == 0 {
            return;
        }
        if let Some(plan) = self.fault.as_mut() {
            plan.on_kernel_start(&self.arena, self.current_stream);
        }
        if let Some(san) = self.san.as_deref_mut() {
            san.set_stream(self.current_stream);
            san.begin_wave(name, snapshot);
        }
        if let Some(ir) = self.ir.as_deref_mut() {
            ir.set_stream(self.current_stream);
            ir.begin_wave(name, snapshot);
        }
        if snapshot {
            self.arena.begin_snapshot();
        }
        let dram_before = self.counters.dram_transactions;
        let inst_before = self.counters.inst_executed;
        let atomics_before = self.counters.inst_executed_global_atomics;
        self.sm_cycles.clear();
        self.sm_cycles.resize(self.config.num_sms as usize, 0);
        #[cfg(test)]
        if self.whole_wave {
            self.run_whole_wave(&layout, body);
        } else {
            self.run_wave(&layout, body);
        }
        #[cfg(not(test))]
        self.run_wave(&layout, body);
        if snapshot {
            self.arena.end_snapshot();
        }
        if let Some(san) = self.san.as_deref_mut() {
            san.end_wave();
        }
        if let Some(ir) = self.ir.as_deref_mut() {
            ir.end_wave();
        }
        let dram_bytes = (self.counters.dram_transactions - dram_before) * SECTOR_BYTES;
        let max_cycles = self.sm_cycles.iter().copied().max().unwrap_or(0);
        let time = kernel_time(&self.config, max_cycles, dram_bytes);
        self.elapsed_ns += time.busy_ns();
        self.reports.push(KernelReport {
            name,
            threads: layout.lanes,
            warp_instructions: self.counters.inst_executed - inst_before,
            atomics: self.counters.inst_executed_global_atomics - atomics_before,
            compute_ns: time.compute_ns,
            memory_ns: time.memory_ns,
            total_ns: time.busy_ns(),
            child,
            stream: self.current_stream,
        });
    }

    /// Run a wave's lane bodies, flush its gang collectives and replay
    /// its warps, accumulating per-SM cycles into `sm_cycles`.
    ///
    /// Lane bodies touch only device memory and the instruments, the
    /// replay only the caches and counters, so the two interleave
    /// freely as long as the cache model sees each warp's body, then
    /// its flush epilogue, warp by warp in ascending order. Lanes run
    /// in ascending order, one warp at a time, and a warp *streams* —
    /// it is replayed at once and its traces dropped — while no lane
    /// of the wave has recorded a gang-collective request: the flush
    /// gives an epilogue only to warps that recorded one. From the
    /// first warp that records one, the warps are *held*: the flush
    /// that decides their epilogues (leader reservations read tail
    /// cursors later lanes may still move) runs after the last lane,
    /// and then each held warp replays its body, then its epilogue.
    /// Under schedule fuzzing the running lanes of all segments run in
    /// one seeded permutation (each keeps its tid/gang_rank/phys_id, so
    /// only the interleaving of memory effects changes) and every warp
    /// is held.
    fn run_wave(&mut self, layout: &Layout, body: &dyn Fn(&mut Lane<'_>)) {
        self.traces.clear();
        // The first held lane, as a running-lane index.
        let held_from =
            if let Some(order) = self.sched.as_mut().map(|s| s.permutation(layout.lanes)) {
                self.traces.body.resize(layout.lanes as usize, Span::default());
                for r in order {
                    let (seg, off) = layout.locate_run(r);
                    self.traces.body[r as usize] = self.run_lane(seg, off, body);
                }
                Some(0)
            } else {
                let mut held_from = None;
                for slot in layout.warps() {
                    for i in 0..slot.width as u64 {
                        let span = self.run_lane(&slot.seg, slot.off + i, body);
                        self.traces.body.push(span);
                    }
                    if held_from.is_none() {
                        if self.pending_scatter.is_empty() {
                            self.replay_arena_warp(slot, slot.run);
                            self.traces.clear();
                        } else {
                            held_from = Some(slot.run);
                        }
                    }
                }
                held_from
            };
        if let Some(first) = held_from {
            let placed = self.flush_scatter();
            lay_out_epilogues(&mut self.traces, &placed, layout, first);
            for slot in layout.warps().filter(|s| s.run >= first) {
                self.replay_arena_warp(slot, first);
            }
        }
    }

    /// Run the lane at offset `off` of segment `seg`, recording its
    /// trace into the arena.
    #[inline]
    fn run_lane(&mut self, seg: &Placed, off: u64, body: &dyn Fn(&mut Lane<'_>)) -> Span {
        self.traces.open_lane();
        let gang = seg.gang as u64;
        let mut lane = Lane {
            arena: &mut self.arena,
            children: &mut self.pending_children,
            traffic: &mut self.buffer_traffic,
            scatter: &mut self.pending_scatter,
            fault: self.fault.as_mut(),
            san: self.san.as_deref_mut(),
            ir: self.ir.as_deref_mut(),
            trace: &mut self.traces,
            tid: seg.item + off / gang,
            phys: seg.lane + off,
            gang_rank: (off % gang) as u32,
            gang_size: seg.gang,
        };
        body(&mut lane);
        self.traces.close_lane()
    }

    /// Replay warp `slot` from the arena, whose spans start at running
    /// lane `first`: its body, then its flush epilogue if the flush
    /// gave it one.
    fn replay_arena_warp(&mut self, slot: WarpSlot, first: u64) {
        let Self { config, caches, counters, traces, sm_cycles, .. } = self;
        let start = (slot.run - first) as usize;
        let width = slot.width;
        let sm = slot.sm(config.num_sms);
        let mut ops: [&[Op]; WARP_SIZE as usize] = [&[]; WARP_SIZE as usize];
        traces.warp(&traces.body[start..start + width], &mut ops);
        sm_cycles[sm] += replay_warp(config, caches, counters, sm, &ops[..width], true).cycles;
        // The gang-collective epilogue replays as a continuation of the
        // same warp (`register: false` — no second warp/thread count),
        // converged per flush phase.
        if let Some(epilogue) = traces.epilogue.get(start..start + width) {
            if epilogue.iter().any(|s| !s.is_empty()) {
                traces.warp(epilogue, &mut ops);
                sm_cycles[sm] +=
                    replay_warp(config, caches, counters, sm, &ops[..width], false).cycles;
            }
        }
    }

    /// Materialize the wave's gang-collective requests: group them by
    /// (physical warp, op kind, target word) in a canonical order that
    /// no lane schedule perturbs (stable sort keeps each lane's own
    /// requests in program order), then issue the leader reservations,
    /// reduced atomics, reserved stores, overflow bumps and spills.
    /// Returns every op issued as `(phase, lane, op)`, warp by warp in
    /// ascending order, for [`lay_out_epilogues`] to turn into each
    /// warp's *epilogue* traces, replayed after its body traces.
    ///
    /// The epilogue replays **converged**: real warp-aggregated
    /// multisplit runs its ballot/scan/reserve/store sequence in
    /// uniform control flow, so all leader atomics of a warp issue as
    /// one warp instruction, all reserved stores as a coalesced
    /// store instruction — not one instruction per queue as the old
    /// append-at-divergent-tails emission priced it. Each warp's
    /// epilogue is laid out in fixed phases (leader atomics →
    /// reserved stores → overflow/spill reservations → spill stores →
    /// spill-overflow bumps), separated by [`Op::Conv`] reconvergence
    /// points so the replay aligns same-phase ops across lanes.
    fn flush_scatter(&mut self) -> Vec<(u8, u64, Op)> {
        let mut placed: Vec<(u8, u64, Op)> = Vec::new();
        if self.pending_scatter.is_empty() {
            return placed;
        }
        let mut reqs = std::mem::take(&mut self.pending_scatter);
        let arena = &self.arena;
        reqs.sort_by_key(|r| r.flush_key(arena));
        let mut i = 0;
        while i < reqs.len() {
            let group_key = reqs[i].flush_key(&self.arena);
            let mut j = i + 1;
            while j < reqs.len() && reqs[j].flush_key(&self.arena)[..3] == group_key[..3] {
                j += 1;
            }
            let group = &reqs[i..j];
            let r0 = &group[0];
            match r0.op {
                ScatterOp::Push { scatter, .. } => {
                    let members: Vec<(u64, u64, u32)> = group
                        .iter()
                        .map(|r| {
                            let ScatterOp::Push { value, .. } = r.op else { unreachable!() };
                            (r.lane, r.gang, value)
                        })
                        .collect();
                    self.flush_push_group(&mut placed, scatter, &members);
                }
                ScatterOp::Count { buf, idx, .. } => {
                    // Warp reduction: one leader add of the summed
                    // deltas.
                    let total: u32 = group
                        .iter()
                        .map(|r| {
                            let ScatterOp::Count { delta, .. } = r.op else { unreachable!() };
                            delta
                        })
                        .sum();
                    self.emit_atomic_add(
                        &mut placed,
                        PH_LEADER,
                        r0.lane,
                        r0.gang,
                        buf,
                        idx,
                        total,
                        total as u64,
                    );
                }
                ScatterOp::Min { buf, idx, .. } => {
                    // Warp reduction: one leader min of the local
                    // minimum.
                    let m = group
                        .iter()
                        .map(|r| {
                            let ScatterOp::Min { value, .. } = r.op else { unreachable!() };
                            value
                        })
                        .min()
                        .expect("non-empty group");
                    self.emit_atomic_min(&mut placed, r0.lane, r0.gang, buf, idx, m);
                }
                ScatterOp::Flag { buf, idx, .. } => {
                    // The warp ballots: one store per distinct value,
                    // charged to the lowest lane that requested it.
                    let mut done: Vec<u32> = Vec::new();
                    for r in group {
                        let ScatterOp::Flag { value, .. } = r.op else { unreachable!() };
                        if !done.contains(&value) {
                            done.push(value);
                            self.emit_reserved_store(
                                &mut placed,
                                PH_STORE,
                                r.lane,
                                r.gang,
                                buf,
                                idx,
                                value,
                            );
                        }
                    }
                }
                ScatterOp::FlagOnce { buf, idx, value } => {
                    // Leader-only exchange: the lowest requesting lane
                    // performs it for the whole warp.
                    self.emit_atomic_exch(&mut placed, r0.lane, r0.gang, buf, idx, value);
                }
            }
            i = j;
        }
        placed
    }

    /// One (warp, queue) push group: a single leader `atomicAdd`
    /// reserves the whole range (the tail overshoots by exactly as
    /// much as the scalar per-push bumps would have, so drain-side
    /// overshoot accounting is unchanged), in-capacity members publish
    /// with reserved stores, and overshoot either counts once on the
    /// sticky overflow cell or spills into the next-level queue.
    fn flush_push_group(
        &mut self,
        placed: &mut Vec<(u8, u64, Op)>,
        scatter: GangScatter,
        members: &[(u64, u64, u32)],
    ) {
        let t = scatter.target;
        let (leader_lane, leader_gang, _) = members[0];
        let k = members.len() as u32;
        let old = self.emit_atomic_add(
            placed,
            PH_LEADER,
            leader_lane,
            leader_gang,
            t.tail,
            0,
            k,
            k as u64,
        );
        let mut overshoot: Vec<(u64, u64, u32)> = Vec::new();
        for (i, &(lane, gang, value)) in members.iter().enumerate() {
            let slot = old.wrapping_add(i as u32);
            if slot < t.capacity {
                self.emit_reserved_store(placed, PH_STORE, lane, gang, t.data, slot, value);
            } else {
                overshoot.push((lane, gang, value));
            }
        }
        if overshoot.is_empty() {
            return;
        }
        match scatter.spill {
            None => {
                let (lane, gang, _) = overshoot[0];
                let n = overshoot.len() as u32;
                self.emit_atomic_add(placed, PH_OVERFLOW, lane, gang, t.overflow, 0, n, n as u64);
            }
            Some(sp) => {
                let (lane, gang, _) = overshoot[0];
                let k2 = overshoot.len() as u32;
                let old2 = self.emit_atomic_add(
                    placed,
                    PH_OVERFLOW,
                    lane,
                    gang,
                    sp.tail,
                    0,
                    k2,
                    k2 as u64,
                );
                let mut dropped: Vec<(u64, u64)> = Vec::new();
                for (i, &(lane, gang, value)) in overshoot.iter().enumerate() {
                    let slot = old2.wrapping_add(i as u32);
                    if slot < sp.capacity {
                        self.emit_reserved_store(
                            placed,
                            PH_SPILL_STORE,
                            lane,
                            gang,
                            sp.data,
                            slot,
                            value,
                        );
                    } else {
                        dropped.push((lane, gang));
                    }
                }
                // Spill-of-spill is genuine loss: count it on the
                // spill queue's own sticky overflow cell, like the
                // scalar next-level push did.
                if let Some(&(lane, gang)) = dropped.first() {
                    let n = dropped.len() as u32;
                    self.emit_atomic_add(
                        placed,
                        PH_SPILL_OVERFLOW,
                        lane,
                        gang,
                        sp.overflow,
                        0,
                        n,
                        n as u64,
                    );
                }
            }
        }
    }

    /// Flush-time `atomicAdd` placed in epilogue phase `phase`; `n` is
    /// the number of logical pushes (or drops) the one instruction
    /// covers, kept per-element-exact in the IR's queue accounting.
    #[allow(clippy::too_many_arguments)]
    fn emit_atomic_add(
        &mut self,
        placed: &mut Vec<(u8, u64, Op)>,
        phase: u8,
        lane: u64,
        gang: u64,
        buf: Buf,
        idx: u32,
        val: u32,
        n: u64,
    ) -> u32 {
        let addr = self.arena.addr(buf, idx);
        placed.push((phase, lane, Op::Atomic(word_addr(addr))));
        self.buffer_traffic[buf.id as usize][2] += 1;
        if let Some(san) = self.san.as_deref_mut() {
            let poisoned = self.arena.poisoned_live(buf, idx);
            san.on_atomic(word(&self.arena, buf, idx, addr), lane, gang, poisoned);
        }
        if let Some(ir) = self.ir.as_deref_mut() {
            ir.on_atomic_bulk(word(&self.arena, buf, idx, addr), lane, gang, n);
        }
        let old = self.arena.load(buf, idx);
        self.arena.store(buf, idx, old.wrapping_add(val));
        old
    }

    /// Flush-time reserved store placed in epilogue phase `phase`: a
    /// plain store at the ISA level, classed separately so the
    /// sanitizer and IR sanction it like the atomic-exchange publish
    /// it replaces.
    #[allow(clippy::too_many_arguments)]
    fn emit_reserved_store(
        &mut self,
        placed: &mut Vec<(u8, u64, Op)>,
        phase: u8,
        lane: u64,
        gang: u64,
        buf: Buf,
        idx: u32,
        val: u32,
    ) {
        let addr = self.arena.addr(buf, idx);
        placed.push((phase, lane, Op::Store(word_addr(addr))));
        self.buffer_traffic[buf.id as usize][1] += 1;
        if let Some(san) = self.san.as_deref_mut() {
            san.on_reserved_store(word(&self.arena, buf, idx, addr), lane, gang);
        }
        if let Some(ir) = self.ir.as_deref_mut() {
            ir.on_reserved_store(word(&self.arena, buf, idx, addr), lane, gang);
        }
        self.arena.store(buf, idx, val);
    }

    /// Flush-time `atomicExch` in the leader phase (leader-only flag
    /// publication). Like the scalar exchange it never reads.
    fn emit_atomic_exch(
        &mut self,
        placed: &mut Vec<(u8, u64, Op)>,
        lane: u64,
        gang: u64,
        buf: Buf,
        idx: u32,
        val: u32,
    ) {
        let addr = self.arena.addr(buf, idx);
        placed.push((PH_LEADER, lane, Op::Atomic(word_addr(addr))));
        self.buffer_traffic[buf.id as usize][2] += 1;
        if let Some(san) = self.san.as_deref_mut() {
            san.on_atomic(word(&self.arena, buf, idx, addr), lane, gang, false);
        }
        if let Some(ir) = self.ir.as_deref_mut() {
            ir.on_atomic(word(&self.arena, buf, idx, addr), lane, gang);
        }
        self.arena.store(buf, idx, val);
    }

    /// Flush-time `atomicMin` in the leader phase: the warp's reduced
    /// minimum, published once. Reads the old value (an uninitialized
    /// word would corrupt the min), so it carries the poison check of
    /// the scalar `atomicMin` it replaces.
    fn emit_atomic_min(
        &mut self,
        placed: &mut Vec<(u8, u64, Op)>,
        lane: u64,
        gang: u64,
        buf: Buf,
        idx: u32,
        val: u32,
    ) {
        let addr = self.arena.addr(buf, idx);
        placed.push((PH_LEADER, lane, Op::Atomic(word_addr(addr))));
        self.buffer_traffic[buf.id as usize][2] += 1;
        if let Some(san) = self.san.as_deref_mut() {
            let poisoned = self.arena.poisoned_live(buf, idx);
            san.on_atomic(word(&self.arena, buf, idx, addr), lane, gang, poisoned);
        }
        if let Some(ir) = self.ir.as_deref_mut() {
            ir.on_atomic(word(&self.arena, buf, idx, addr), lane, gang);
        }
        let old = self.arena.load(buf, idx);
        if val < old {
            self.arena.store(buf, idx, val);
        }
    }
}

/// Lay the flush's placed ops (`(phase, lane, op)`, warp by warp) out
/// as the held lanes' epilogue traces in `traces`, whose spans start at
/// running lane `first` of the wave `layout` describes. Each warp's
/// epilogue goes phase by phase; a Conv between consecutive non-empty
/// phases re-aligns the lanes, so each phase's ops group into the few
/// warp instructions the converged sequence actually issues.
///
/// Leader-elected atomics (reservations, reduced counters, overflow
/// bumps) are *packed* across the warp's running lanes: multi-counter
/// leader election hands each of the k counters to a distinct lane
/// (values broadcast by shuffle), so k ≤ 32 of them retire as one warp
/// instruction — not k instructions serialized on whichever lane
/// happened to lead every group. Reserved stores keep their owning
/// lane: each lane publishes its own payload (that is what makes them
/// coalesce). Lanes are written one after another, so each lane's
/// epilogue is contiguous in the arena.
fn lay_out_epilogues(
    traces: &mut TraceArena,
    placed: &[(u8, u64, Op)],
    layout: &Layout,
    first: u64,
) {
    if placed.is_empty() {
        return;
    }
    let warp_size = WARP_SIZE as u64;
    traces.epilogue.resize((layout.lanes - first) as usize, Span::default());
    let mut routed: Vec<(usize, u8, Op)> = Vec::new();
    for ops in placed.chunk_by(|a, b| a.1 / warp_size == b.1 / warp_size) {
        let warp = layout.warp_of(ops[0].1);
        let base = warp.w * warp_size;
        let width = warp.width;
        let mut present = [false; PHASES as usize];
        let mut dealt = [0usize; PHASES as usize];
        routed.clear();
        for &(phase, lane, op) in ops {
            let p = phase as usize;
            present[p] = true;
            let slot = if matches!(phase, PH_LEADER | PH_OVERFLOW | PH_SPILL_OVERFLOW) {
                dealt[p] += 1;
                (dealt[p] - 1) % width
            } else {
                (lane - base) as usize
            };
            routed.push((slot, phase, op));
        }
        // Stable: a lane's ops of one phase keep their placed order.
        routed.sort_by_key(|&(slot, phase, _)| (slot, phase));
        let mut next = routed.iter().peekable();
        for slot in 0..width {
            traces.open_lane();
            let mut first_phase = true;
            for phase in (0..PHASES).filter(|&p| present[p as usize]) {
                if !first_phase {
                    traces.push(Op::Conv);
                }
                first_phase = false;
                while let Some(&(_, _, op)) = next.next_if(|r| (r.0, r.1) == (slot, phase)) {
                    traces.push(op);
                }
            }
            traces.epilogue[(warp.run - first) as usize + slot] = traces.close_lane();
        }
    }
}

/// A persistent-kernel session (see [`Device::wave_session`]).
pub struct WaveSession<'d> {
    device: &'d mut Device,
    name: &'static str,
    waves: u64,
}

impl<'d> WaveSession<'d> {
    /// Run one task wave: `items * gang_size` lanes, no launch
    /// overhead. Children queued by the wave run before this returns.
    pub fn wave(&mut self, items: u64, gang_size: u32, body: impl Fn(&mut Lane<'_>)) {
        self.waves += 1;
        self.device.wave(self.name, items, gang_size, body);
    }

    /// Number of waves run so far.
    pub fn waves(&self) -> u64 {
        self.waves
    }

    /// Access the underlying device (e.g. to read queue cursors
    /// between waves — manager-thread behaviour).
    pub fn device(&mut self) -> &mut Device {
        self.device
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;

    fn tiny() -> Device {
        Device::new(DeviceConfig::test_tiny())
    }

    /// A runaway launch width is refused before any per-lane state is
    /// allocated — a panic the caller can catch, not an abort.
    #[test]
    #[should_panic(expected = "above the simulator's")]
    fn launch_wider_than_the_cap_is_refused() {
        tiny().launch("runaway", MAX_LAUNCH_LANES + 1, |_| {});
    }

    #[test]
    fn vector_add() {
        let mut d = tiny();
        let a = d.alloc_upload("a", &[1, 2, 3, 4]);
        let b = d.alloc_upload("b", &[10, 20, 30, 40]);
        let c = d.alloc("c", 4);
        d.launch("add", 4, |lane| {
            let i = lane.tid() as u32;
            let x = lane.ld(a, i);
            let y = lane.ld(b, i);
            lane.alu(1);
            lane.st(c, i, x + y);
        });
        assert_eq!(d.read(c), &[11, 22, 33, 44]);
        let ctr = d.counters();
        assert_eq!(ctr.kernel_launches, 1);
        assert_eq!(ctr.inst_executed_global_loads, 2);
        assert_eq!(ctr.inst_executed_global_stores, 1);
        assert!(d.elapsed_ms() > 0.0);
    }

    #[test]
    fn atomics_behave() {
        let mut d = tiny();
        let x = d.alloc_upload("x", &[100, 0]);
        d.launch("atomics", 8, |lane| {
            lane.atomic_min(x, 0, 90 + lane.tid() as u32);
            lane.atomic_add(x, 1, 1);
        });
        assert_eq!(d.read_word(x, 0), 90);
        assert_eq!(d.read_word(x, 1), 8);
        assert!(d.counters().atomic_conflicts > 0);
    }

    #[test]
    fn cas_and_exch() {
        let mut d = tiny();
        let x = d.alloc_upload("x", &[5, 7]);
        d.launch("cas", 1, |lane| {
            assert_eq!(lane.atomic_cas(x, 0, 5, 9), 5);
            assert_eq!(lane.atomic_cas(x, 0, 5, 11), 9);
            assert_eq!(lane.atomic_exch(x, 1, 42), 7);
        });
        assert_eq!(d.read(x), &[9, 42]);
    }

    #[test]
    fn contiguous_pair_loads_are_one_instruction_of_eight_sectors() {
        let mut d = tiny();
        let words: Vec<u32> = (0..64).collect();
        let a = d.alloc_upload("pairs", &words);
        d.launch("pairs", 32, |lane| {
            let i = lane.tid() as u32;
            assert_eq!(lane.ld2(a, 2 * i), (2 * i, 2 * i + 1));
        });
        let ctr = d.counters();
        assert_eq!(ctr.inst_executed_global_loads, 1);
        assert_eq!(ctr.gld_transactions, 8, "32 lanes x 8 bytes = 256 bytes");
        assert_eq!(d.buffer_traffic()[0], ("pairs", 64, 0, 0), "each word counts as a load");
    }

    #[test]
    fn scattered_pair_loads_are_one_instruction_of_one_sector_each() {
        let mut d = tiny();
        let a = d.alloc("pairs", 8 * 64);
        d.fill(a, 3);
        d.launch("pairs", 8, |lane| {
            lane.ld2(a, lane.tid() as u32 * 64);
        });
        assert_eq!(d.counters().inst_executed_global_loads, 1);
        assert_eq!(d.counters().gld_transactions, 8);
    }

    #[test]
    #[should_panic(expected = "at odd word 3")]
    fn an_odd_pair_load_is_refused() {
        let mut d = tiny();
        let a = d.alloc("pairs", 8);
        d.launch("odd", 1, |lane| {
            lane.ld2(a, 3);
        });
    }

    #[test]
    fn sanitizer_sees_the_second_word_of_a_pair_load() {
        // Lane 0 loads the pair (0, 1) while lane 1 atomically improves
        // word 1 in the same live window: the race is on the second word
        // alone.
        let mut d = tiny();
        d.arm_sanitizer(crate::san::SanConfig::default());
        let x = d.alloc_upload("pairs", &[100, 100]);
        let mut s = d.wave_session("async");
        s.wave(2, 1, |lane| {
            if lane.tid() == 0 {
                lane.ld2(x, 0);
            } else {
                lane.atomic_min(x, 1, 5);
            }
        });
        let v = d.san_violations();
        assert!(!v.is_empty());
        assert!(v.iter().all(|v| v.check == crate::san::SanCheck::SnapshotVisibility
            && v.buffer == "pairs"
            && v.index == 1));
    }

    #[test]
    fn a_bit_flip_pinned_to_the_second_word_reaches_the_lane() {
        use crate::fault::{FaultPlan, FaultSpec, FaultTarget};
        let mut d = tiny();
        let b = d.alloc_upload("pairs", &[10, 20]);
        let target =
            FaultTarget { site: Some("pairs"), index: Some((1, 1)), wave: None, stream: None };
        d.arm_faults(FaultPlan::new(
            FaultSpec::new(FaultModel::BitFlip, 1.0, 5).with_target(target).with_cap(1),
        ));
        let seen = std::cell::Cell::new((0, 0));
        d.launch("reader", 1, |lane| seen.set(lane.ld2(b, 0)));
        let (first, second) = seen.get();
        assert_eq!(first, 10, "the first word is not targeted");
        assert_eq!((second ^ 20).count_ones(), 1);
        assert_eq!(d.fault_log().len(), 1);
    }

    #[test]
    fn gang_mapping() {
        let mut d = tiny();
        let out = d.alloc("out", 8);
        // 2 items, gang of 4: lane.tid() is the item, rank 0..4.
        d.launch_gangs("gang", 2, 4, |lane| {
            let slot = (lane.tid() * 4 + lane.gang_rank() as u64) as u32;
            assert_eq!(lane.gang_size(), 4);
            lane.st(out, slot, lane.tid() as u32 * 100 + lane.gang_rank());
        });
        assert_eq!(d.read(out), &[0, 1, 2, 3, 100, 101, 102, 103]);
    }

    #[test]
    fn segments_start_on_warp_boundaries_and_padding_does_not_run() {
        let mut d = tiny();
        let out = d.alloc("out", 160);
        let segments = [Segment { items: 3, gang: 4 }, Segment { items: 2, gang: 64 }];
        let seen = std::cell::RefCell::new(Vec::new());
        d.wave_segments("seg", &segments, |lane| {
            seen.borrow_mut().push((
                lane.tid(),
                lane.gang_rank(),
                lane.gang_size(),
                lane.phys_id(),
            ));
            lane.st(out, lane.phys_id() as u32, 1);
        });
        let seen = seen.into_inner();
        assert_eq!(seen.len(), 12 + 128, "padding lanes 12..32 do not run");
        assert_eq!(seen[0], (0, 0, 4, 0));
        assert_eq!(seen[11], (2, 3, 4, 11));
        // The second segment starts on the next warp boundary.
        assert_eq!(seen[12], (3, 0, 64, 32));
        assert_eq!(seen[139], (4, 63, 64, 159));
        assert_eq!(d.counters().warps, 1 + 4);
        assert_eq!(d.counters().threads, 12 + 128);
        assert_eq!(d.reports()[0].threads, 12 + 128);
        assert_eq!(d.read(out).iter().sum::<u32>(), 12 + 128);
        assert!(d.read(out)[12..32].iter().all(|&w| w == 0));
    }

    #[test]
    fn a_gang_wider_than_a_warp_runs_its_warps_on_one_sm() {
        let seg = |items, gang| Segment { items, gang };
        // Two 64-lane gangs are two blocks of two warps each, one SM
        // per block; the warps after them continue the round-robin from
        // the next block, and a 48-lane gang's straddling warp stays
        // with the gang its first lane belongs to.
        let layout = Layout::new(&[seg(2, 64), seg(40, 1), seg(1, 48)]);
        let sms: Vec<usize> = layout.warps().map(|w| w.sm(2)).collect();
        assert_eq!(sms, [0, 0, 1, 1, 0, 1, 0, 0]);
        // Without a gang wider than a warp, warp w runs on SM w % SMs.
        let layout = Layout::new(&[seg(3, 4), seg(70, 1), seg(5, 32)]);
        for slot in layout.warps() {
            assert_eq!(slot.sm(3), (slot.w % 3) as usize);
        }
        // On the device: a lone 64-lane gang charges one SM only.
        let mut d = tiny();
        d.launch_gangs("wide", 1, 64, |lane| lane.alu(10));
        assert!(d.sm_cycles[0] > 0);
        assert_eq!(d.sm_cycles[1], 0);
    }

    #[test]
    #[should_panic(expected = "outside 1..=")]
    fn a_gang_wider_than_a_block_is_refused() {
        let mut d = tiny();
        let block = d.config().max_block;
        d.wave_segments(
            "wide",
            &[Segment { items: 1, gang: 1 }, Segment { items: 1, gang: block * 2 }],
            |_| {},
        );
    }

    #[test]
    fn child_kernels_run_and_charge() {
        let mut d = tiny();
        let out = d.alloc("out", 64);
        d.launch("parent", 1, move |lane| {
            lane.launch_child("child", 64, move |cl| {
                let i = cl.tid() as u32;
                cl.st(out, i, i + 1);
            });
        });
        assert_eq!(d.read_word(out, 63), 64);
        assert_eq!(d.counters().child_kernel_launches, 1);
        assert_eq!(d.counters().kernel_launches, 1);
        // Reports: parent + child.
        assert_eq!(d.reports().len(), 2);
        assert!(d.reports()[1].child);
    }

    #[test]
    fn grandchildren_drain() {
        let mut d = tiny();
        let out = d.alloc("out", 1);
        d.launch("p", 1, move |lane| {
            lane.launch_child("c", 1, move |cl| {
                cl.launch_child("g", 1, move |gl| {
                    gl.atomic_add(out, 0, 1);
                });
            });
        });
        assert_eq!(d.read_word(out, 0), 1);
        assert_eq!(d.counters().child_kernel_launches, 2);
    }

    #[test]
    fn wave_session_single_launch() {
        let mut d = tiny();
        let x = d.alloc("x", 1);
        let mut s = d.wave_session("async");
        for _ in 0..10 {
            s.wave(4, 1, |lane| {
                lane.atomic_add(x, 0, 1);
            });
        }
        assert_eq!(s.waves(), 10);
        assert_eq!(d.read_word(x, 0), 40);
        assert_eq!(d.counters().kernel_launches, 1, "one launch for all waves");
    }

    #[test]
    fn deterministic_counters() {
        let run = || {
            let mut d = tiny();
            let a = d.alloc("a", 256);
            d.launch("k", 256, |lane| {
                let i = lane.tid() as u32;
                let v = lane.ld(a, (i * 7) % 256);
                lane.st(a, i, v + 1);
            });
            (d.counters().clone(), d.elapsed_ms())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sanitizer_flags_planted_write_write_race() {
        let mut d = tiny();
        d.arm_sanitizer(crate::san::SanConfig::default());
        let out = d.alloc("victim", 1);
        d.launch("racy", 8, |lane| {
            lane.st(out, 0, lane.tid() as u32);
        });
        assert_eq!(d.san_total(), 1);
        let v = &d.san_violations()[0];
        assert_eq!(v.check, crate::san::SanCheck::WriteWriteRace);
        assert_eq!(v.buffer, "victim");
        assert_eq!(v.lanes, [0, 1]);
    }

    #[test]
    fn sanitizer_clean_on_disjoint_and_atomic_kernels() {
        let mut d = tiny();
        d.arm_sanitizer(crate::san::SanConfig::default());
        let a = d.alloc_upload("a", &[1, 2, 3, 4]);
        let out = d.alloc("out", 4);
        let acc = d.alloc_upload("acc", &[0]);
        d.launch("map", 4, |lane| {
            let i = lane.tid() as u32;
            let x = lane.ld(a, i);
            lane.st(out, i, x + 1);
            lane.atomic_add(acc, 0, x);
        });
        assert_eq!(d.san_total(), 0, "{:?}", d.san_violations());
    }

    #[test]
    fn sanitizer_flags_plain_load_in_live_wave() {
        let mut d = tiny();
        d.arm_sanitizer(crate::san::SanConfig::default());
        let x = d.alloc_upload("dist", &[100, 100]);
        let mut s = d.wave_session("async");
        s.wave(2, 1, |lane| {
            // Plain load of a word another lane atomically improves in
            // the same (barrier-free) window: snapshot-visibility bug.
            let other = 1 - lane.tid() as u32;
            let _ = lane.ld(x, other);
            lane.atomic_min(x, lane.tid() as u32, 5);
        });
        assert!(d
            .san_violations()
            .iter()
            .any(|v| v.check == crate::san::SanCheck::SnapshotVisibility && v.buffer == "dist"));

        // The same pattern with a volatile load is sanctioned.
        let mut d2 = tiny();
        d2.arm_sanitizer(crate::san::SanConfig::default());
        let y = d2.alloc_upload("dist", &[100, 100]);
        let mut s2 = d2.wave_session("async");
        s2.wave(2, 1, |lane| {
            let other = 1 - lane.tid() as u32;
            let _ = lane.ld_volatile(y, other);
            lane.atomic_min(y, lane.tid() as u32, 5);
        });
        assert_eq!(d2.san_total(), 0, "{:?}", d2.san_violations());
    }

    #[test]
    fn sanitizer_plain_load_safe_in_snapshot_kernel() {
        let mut d = tiny();
        d.arm_sanitizer(crate::san::SanConfig::default());
        let x = d.alloc_upload("dist", &[100, 100]);
        d.launch("sync", 2, |lane| {
            let other = 1 - lane.tid() as u32;
            let _ = lane.ld(x, other);
            lane.atomic_min(x, lane.tid() as u32, 5);
        });
        assert_eq!(d.san_total(), 0, "{:?}", d.san_violations());
    }

    #[test]
    fn sanitizer_flags_uninit_read_after_recycle() {
        let mut d = tiny();
        d.arm_sanitizer(crate::san::SanConfig::default());
        let b = d.alloc("scratch", 4);
        d.fill(b, 7);
        d.release(b);
        let (b2, recycled) = d.alloc_pooled("scratch2", 4);
        assert!(recycled);
        d.write_word(b2, 0, 1); // words 1..4 stay stale
        let out = d.alloc("out", 4);
        d.fill(out, 0);
        d.launch("reader", 4, |lane| {
            let i = lane.tid() as u32;
            let v = lane.ld(b2, i);
            lane.st(out, i, v);
        });
        let hits: Vec<_> = d
            .san_violations()
            .iter()
            .filter(|v| v.check == crate::san::SanCheck::UninitRead)
            .collect();
        assert_eq!(hits.len(), 3, "{hits:?}");
        assert!(hits.iter().all(|v| v.buffer == "scratch2"));
    }

    #[test]
    fn sanitizer_barrier_closes_window() {
        let mut d = tiny();
        d.arm_sanitizer(crate::san::SanConfig::default());
        let x = d.alloc_upload("x", &[0]);
        let mut s = d.wave_session("p");
        s.wave(1, 1, |lane| lane.st(x, 0, 1));
        s.device().charge_barrier();
        s.wave(1, 1, |lane| {
            let _ = lane.ld(x, 0);
            lane.st(x, 0, 2);
        });
        assert_eq!(d.san_total(), 0, "{:?}", d.san_violations());
    }

    #[test]
    fn sanitizer_flags_gang_divergent_child_launches() {
        let mut d = tiny();
        d.arm_sanitizer(crate::san::SanConfig::default());
        let out = d.alloc("out", 1);
        d.fill(out, 0);
        d.launch_gangs("diverge", 1, 4, |lane| {
            // Each rank launches a different number of children.
            for _ in 0..lane.gang_rank() {
                lane.launch_child("c", 1, move |cl| {
                    cl.atomic_add(out, 0, 1);
                });
            }
        });
        assert!(d
            .san_violations()
            .iter()
            .any(|v| v.check == crate::san::SanCheck::GangChildDivergence));
    }

    #[test]
    fn sanitizer_disarmed_device_is_bit_identical() {
        let run = |armed: bool| {
            let mut d = tiny();
            if armed {
                d.arm_sanitizer(crate::san::SanConfig::default());
            }
            let a = d.alloc_upload("a", &[5; 64]);
            let out = d.alloc("out", 64);
            d.launch("k", 64, |lane| {
                let i = lane.tid() as u32;
                let v = lane.ld(a, i);
                lane.st(out, i, v * 2);
            });
            (d.counters().clone(), d.elapsed_ms(), d.read(out).to_vec())
        };
        assert_eq!(run(false), run(true), "arming must not perturb timing or results");
    }

    #[test]
    fn schedule_fuzz_is_invisible_to_order_insensitive_kernels() {
        // Atomics commute, and each lane's plain store hits its own
        // word: any lane interleaving yields the same memory state and
        // the same replayed timing (warp grouping is preserved).
        let run = |seed: Option<u64>| {
            let mut d = tiny();
            if let Some(seed) = seed {
                d.arm_schedule_fuzz(seed);
            }
            let x = d.alloc_upload("x", &[u32::MAX, 0]);
            let out = d.alloc("out", 64);
            d.launch("k", 64, |lane| {
                let i = lane.tid() as u32;
                lane.atomic_min(x, 0, 1000 - i);
                lane.atomic_add(x, 1, 1);
                lane.st(out, i, i * 2);
            });
            (d.counters().clone(), d.elapsed_ms(), d.read(x).to_vec(), d.read(out).to_vec())
        };
        let base = run(None);
        assert_eq!(base, run(Some(7)));
        assert_eq!(base, run(Some(8)));
    }

    #[test]
    fn schedule_fuzz_exposes_order_dependent_results() {
        // Last-writer-wins on one shared word: the fixed ascending
        // order always ends on lane 63, but that answer is a schedule
        // artifact — permuted orders surface different winners, and
        // the sanitizer flags the underlying write-write race.
        let winner = |seed: Option<u64>| {
            let mut d = tiny();
            d.arm_sanitizer(crate::san::SanConfig::default());
            if let Some(seed) = seed {
                d.arm_schedule_fuzz(seed);
            }
            let x = d.alloc_upload("x", &[0]);
            d.launch("racy", 64, |lane| {
                lane.st(x, 0, lane.tid() as u32 + 1);
            });
            let caught =
                d.san_violations().iter().any(|v| v.check == crate::san::SanCheck::WriteWriteRace);
            (d.read_word(x, 0), caught)
        };
        let (base, base_caught) = winner(None);
        assert_eq!(base, 64, "ascending order: lane 63 writes last");
        assert!(base_caught);
        let mut diverged = false;
        for seed in 1..=8 {
            let (w, caught) = winner(Some(seed));
            assert!(caught, "sanitizer must keep catching the race under permutation");
            assert_eq!(winner(Some(seed)).0, w, "same seed, same interleaving");
            diverged |= w != base;
        }
        assert!(diverged, "some permutation must pick a different last writer");
    }

    #[test]
    fn upload_staged_carries_host_poison_to_device() {
        use crate::buffer::HostStaging;
        let mut d = tiny();
        d.arm_sanitizer(crate::san::SanConfig::default());
        let mut st = HostStaging::new("staged", 4);
        st.write(0, 10);
        st.write(1, 11);
        st.write(3, 13); // word 2 never written host-side
        let b = d.upload_staged(&st);
        let out = d.alloc("out", 4);
        d.launch("copy", 4, |lane| {
            let i = lane.tid() as u32;
            let v = lane.ld(b, i);
            lane.st(out, i, v);
        });
        let v = d.san_violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].check, crate::san::SanCheck::UninitRead);
        assert_eq!(v[0].buffer, "staged");
        assert_eq!(v[0].index, 2);
        // A fully written staging buffer uploads clean.
        let full = d.upload_staged(&HostStaging::from_slice("full", &[1, 2]));
        d.launch("read", 2, |lane| {
            let i = lane.tid() as u32;
            lane.ld(full, i);
        });
        assert_eq!(d.san_total(), 1);
    }

    #[test]
    fn bitflip_write_through_keeps_shadow_exact() {
        // A BitFlip upset persists in device memory; the write-through
        // must go through the arena's store path so the poison shadow
        // stays exact. Regression: it used to poke `slice_mut`
        // directly, leaving the word poisoned after the flip wrote a
        // (defined, if corrupted) value into it — so the dynamic
        // sanitizer kept reporting uninit reads of a word the static
        // IR saw as written-through, and the two verdicts disagreed.
        use crate::fault::{FaultPlan, FaultSpec, FaultTarget};
        let mut d = tiny();
        d.arm_sanitizer(crate::san::SanConfig::default());
        let b = d.alloc("scratch", 2);
        d.fill(b, 7);
        d.release(b);
        let (victim, recycled) = d.alloc_pooled("flip-victim", 2);
        assert!(recycled, "pooled buffer must recycle to carry poison");
        let spec = FaultSpec::new(FaultModel::BitFlip, 1.0, 1)
            .with_target(FaultTarget {
                site: Some("flip-victim"),
                index: Some((0, 0)),
                wave: None,
                stream: None,
            })
            .with_cap(1);
        d.arm_faults(FaultPlan::new(spec));
        let out = d.alloc("out", 2);
        d.fill(out, 0);
        d.launch("reader", 1, |lane| {
            let v = lane.ld(victim, 0);
            lane.st(out, 0, v);
        });
        assert_eq!(d.fault_log().len(), 1);
        // The flip landed on the stale value 7 and persisted.
        assert_eq!((d.read_word(victim, 0) ^ 7).count_ones(), 1);
        // The word now holds a defined value: a later kernel's read
        // must NOT be another uninit read. (Dedup keys on the kernel
        // name, so the old slice_mut path reported a second one here.)
        d.launch("reader-after-flip", 1, |lane| {
            let v = lane.ld(victim, 0);
            lane.st(out, 1, v);
        });
        let uninit = d
            .san_violations()
            .iter()
            .filter(|v| v.check == crate::san::SanCheck::UninitRead)
            .count();
        assert_eq!(uninit, 1, "only the pre-flip read is uninit: {:?}", d.san_violations());
        assert_eq!(d.read_word(out, 1), d.read_word(victim, 0));
    }

    #[test]
    fn ir_armed_device_is_bit_identical() {
        let run = |armed: bool| {
            let mut d = tiny();
            if armed {
                d.arm_ir();
            }
            let a = d.alloc_upload("a", &[5; 64]);
            let out = d.alloc("out", 64);
            d.launch("k", 64, |lane| {
                let i = lane.tid() as u32;
                let v = lane.ld(a, i);
                lane.st(out, i, v * 2);
            });
            (d.counters().clone(), d.elapsed_ms(), d.read(out).to_vec())
        };
        assert_eq!(run(false), run(true), "arming the IR must not perturb timing or results");
    }

    #[test]
    fn ir_records_hazards_and_queue_traffic() {
        let mut d = tiny();
        let tail = d.alloc("queue_tail", 1);
        let overflow = d.alloc("queue_overflow", 2);
        d.declare_queue("jobs", tail, overflow, 4, false);
        d.arm_ir(); // declared before arming: must be carried over
        let x = d.alloc("victim", 1);
        d.launch("racy", 8, |lane| {
            lane.st(x, 0, lane.tid() as u32);
            lane.atomic_add(tail, 0, 1);
        });
        let ir = d.take_ir().expect("armed");
        assert!(ir
            .hazards
            .iter()
            .any(|h| h.kind == crate::ir::HazardKind::WriteWrite && h.buffer == "victim"));
        assert_eq!(ir.queues.len(), 1);
        assert_eq!(ir.queues[0].pushes, 8);
        assert_eq!(ir.queues[0].high_water, 8);
        assert!(!d.ir_armed(), "take_ir disarms");
    }

    #[test]
    fn zero_thread_launch_is_safe() {
        let mut d = tiny();
        d.launch("empty", 0, |_| panic!("body must not run"));
        assert_eq!(d.counters().kernel_launches, 1);
        assert_eq!(d.reports().len(), 0);
    }

    #[test]
    fn warps_spread_over_sms() {
        let mut d = tiny();
        let a = d.alloc("a", 64);
        d.launch("k", 64, |lane| {
            let i = lane.tid() as u32;
            lane.st(a, i, i);
        });
        // 2 warps on 2 SMs; per-SM accumulation means time is that of
        // one warp, not two. Just sanity-check counters here.
        assert_eq!(d.counters().warps, 2);
        assert_eq!(d.counters().threads, 64);
    }
}
