//! Device configuration and the top-level [`Device`] object.

use crate::buffer::{Arena, Buf, HostStaging};
use crate::cache::CacheHierarchy;
use crate::counters::{Counters, KernelReport};
use crate::fault::{FaultEvent, FaultPlan};
use crate::ir::{AccessIr, QueueDecl};
use crate::kernel::{ChildLaunch, ScatterReq};
use crate::san::{SanConfig, SanViolation};
use crate::sched::SchedPlan;
use crate::shadow::Recorder;
use crate::trace::TraceArena;
use std::collections::HashMap;

/// Hardware parameters of a simulated GPU.
///
/// The throughput constants (`*_cycles`) are tunable model inputs, not
/// datasheet values; the presets were chosen so that kernel times land
/// in the regime the paper reports (GTEPS in the tens on V100-scale
/// inputs) while preserving the V100 : T4 compute and bandwidth ratios.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceConfig {
    /// Marketing name, for reports.
    pub name: &'static str,
    /// Streaming multiprocessors.
    pub num_sms: u32,
    /// Warp instructions issued per SM per cycle (all schedulers).
    pub issue_width: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// DRAM bandwidth in GB/s.
    pub mem_bandwidth_gbps: f64,
    /// L1 cache per SM, bytes.
    pub l1_bytes: u64,
    /// Shared L2, bytes.
    pub l2_bytes: u64,
    /// Cache line size, bytes.
    pub line_bytes: u64,
    /// Cache associativity (ways), both levels.
    pub ways: u32,
    /// Cycles charged for a memory instruction whose deepest
    /// transaction hits L1.
    pub l1_hit_cycles: u32,
    /// ... whose deepest transaction hits L2.
    pub l2_hit_cycles: u32,
    /// ... whose deepest transaction goes to DRAM. Charged once per
    /// warp-level memory instruction: a warp's transactions overlap
    /// (memory-level parallelism), so latency is not paid per sector.
    pub dram_cycles: u32,
    /// Port-throughput cycles for each transaction beyond the first of
    /// a warp memory instruction — the serialization cost of
    /// uncoalesced access that coalescing removes.
    pub port_cycles: u32,
    /// Extra serialization cycles for each conflicting atomic lane
    /// (same-address atomics within a warp).
    pub atomic_conflict_cycles: u32,
    /// Host-side kernel launch overhead, microseconds.
    pub kernel_launch_us: f64,
    /// Device-side (dynamic parallelism) child launch overhead, µs.
    pub child_launch_us: f64,
    /// Grid-wide synchronization barrier overhead, µs.
    pub barrier_us: f64,
    /// Maximum threads per block.
    pub max_block: u32,
}

impl DeviceConfig {
    /// Tesla V100: 80 SMs, 5120 CUDA cores, 900 GB/s HBM2 (§5.1.1).
    pub fn v100() -> Self {
        Self {
            name: "V100",
            num_sms: 80,
            issue_width: 4,
            clock_ghz: 1.38,
            mem_bandwidth_gbps: 900.0,
            l1_bytes: 128 * 1024,
            l2_bytes: 6 * 1024 * 1024,
            line_bytes: 128,
            ways: 4,
            l1_hit_cycles: 2,
            l2_hit_cycles: 8,
            dram_cycles: 24,
            port_cycles: 4,
            atomic_conflict_cycles: 4,
            kernel_launch_us: 3.5,
            child_launch_us: 0.6,
            barrier_us: 1.2,
            max_block: 1024,
        }
    }

    /// Tesla T4: 40 SMs, 2560 CUDA cores, 320 GB/s GDDR6 (§5.4.2).
    pub fn t4() -> Self {
        Self {
            name: "T4",
            num_sms: 40,
            issue_width: 4,
            clock_ghz: 1.59,
            mem_bandwidth_gbps: 320.0,
            l1_bytes: 64 * 1024,
            l2_bytes: 4 * 1024 * 1024,
            line_bytes: 128,
            ways: 4,
            l1_hit_cycles: 2,
            l2_hit_cycles: 8,
            dram_cycles: 24,
            port_cycles: 4,
            atomic_conflict_cycles: 4,
            kernel_launch_us: 3.5,
            child_launch_us: 0.6,
            barrier_us: 1.2,
            max_block: 1024,
        }
    }

    /// Scale the fixed overheads (kernel launch, child launch,
    /// barrier) by `factor`.
    ///
    /// The experiment harness shrinks the paper's datasets by `2^k`;
    /// kernels get `2^k` shorter while real launch overheads stay
    /// constant, which would let overheads dominate and invert every
    /// runtime ratio. Scaling the overheads by the same `2^-k` is the
    /// time-scale-preserving shrink: per-kernel time *ratios* match
    /// what the full-size system would show.
    pub fn with_overhead_scale(mut self, factor: f64) -> Self {
        assert!(factor > 0.0);
        self.kernel_launch_us *= factor;
        self.child_launch_us *= factor;
        self.barrier_us *= factor;
        self
    }

    /// Scale the cache capacities by `factor` (floored at one line per
    /// way). The companion of [`DeviceConfig::with_overhead_scale`]:
    /// when a dataset shrinks by `2^k`, fixed cache capacities would
    /// otherwise swallow the whole working set and erase every
    /// locality difference the paper measures (Fig. 10 (d)).
    pub fn with_cache_scale(mut self, factor: f64) -> Self {
        assert!(factor > 0.0);
        let min = (self.line_bytes * self.ways as u64).max(1);
        self.l1_bytes = ((self.l1_bytes as f64 * factor) as u64).max(min);
        self.l2_bytes = ((self.l2_bytes as f64 * factor) as u64).max(min * 4);
        self
    }

    /// The config a CLI names, in any case: `V100`, `T4` or `TINY`
    /// ([`DeviceConfig::test_tiny`]).
    pub fn by_name(name: &str) -> Option<Self> {
        [Self::v100(), Self::t4(), Self::test_tiny()]
            .into_iter()
            .find(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// A tiny config for unit tests: 2 SMs, minuscule caches, so cache
    /// evictions and SM imbalance are observable on small inputs.
    pub fn test_tiny() -> Self {
        Self {
            name: "tiny",
            num_sms: 2,
            issue_width: 1,
            clock_ghz: 1.0,
            mem_bandwidth_gbps: 64.0,
            l1_bytes: 1024,
            l2_bytes: 4096,
            line_bytes: 128,
            ways: 2,
            l1_hit_cycles: 2,
            l2_hit_cycles: 8,
            dram_cycles: 24,
            port_cycles: 4,
            atomic_conflict_cycles: 4,
            kernel_launch_us: 3.5,
            child_launch_us: 0.6,
            barrier_us: 1.2,
            max_block: 1024,
        }
    }
}

/// A simulated GPU: memory arena, cache hierarchy, counters, clock.
pub struct Device {
    pub(crate) config: DeviceConfig,
    pub(crate) arena: Arena,
    pub(crate) caches: CacheHierarchy,
    pub(crate) counters: Counters,
    /// Accumulated simulated time, nanoseconds.
    pub(crate) elapsed_ns: f64,
    /// Per-kernel reports, in launch order.
    pub(crate) reports: Vec<KernelReport>,
    /// Children queued by dynamic parallelism during the current wave.
    pub(crate) pending_children: Vec<ChildLaunch>,
    /// Gang-collective scatter requests recorded by the current wave's
    /// lane bodies, materialized by the wave-end flush.
    pub(crate) pending_scatter: Vec<ScatterReq>,
    /// Per-buffer (load, store, atomic) op counts, indexed by buffer id.
    pub(crate) buffer_traffic: Vec<[u64; 3]>,
    /// Lane traces of the running wave's streamed or held warps,
    /// reused across waves.
    pub(crate) traces: TraceArena,
    /// Cycles per SM of the running wave, reused across waves.
    pub(crate) sm_cycles: Vec<u64>,
    /// Run waves through the whole-wave reference executor instead of
    /// streaming them (the streamed executor's test oracle).
    #[cfg(test)]
    pub(crate) whole_wave: bool,
    /// Armed fault-injection plan, if any. `None` (the default) keeps
    /// every hook a single branch and the device bit-identical to a
    /// fault-free build.
    pub(crate) fault: Option<FaultPlan>,
    /// The memory-model recorder while the sanitizer or the IR view is
    /// armed. Like `fault`, `None` (the default) keeps every hook a
    /// single branch.
    pub(crate) rec: Option<Box<Recorder>>,
    /// Device queues declared so far, keyed by tail-cursor address.
    /// Always recorded (declaration is cheap and queues are created
    /// before arming); seeded into the IR view at arm time.
    pub(crate) queue_decls: HashMap<u64, QueueDecl>,
    /// Armed schedule-fuzzing plan, if any: waves execute their lanes
    /// in a seeded permuted order instead of ascending lane order.
    pub(crate) sched: Option<SchedPlan>,
    /// Command stream subsequent kernels are issued on. Purely an
    /// attribution tag: kernel reports and sanitizer violations carry
    /// it so concurrent schedulers can tell interleaved work apart.
    pub(crate) current_stream: u32,
}

impl Device {
    /// Create a device with the given configuration.
    pub fn new(config: DeviceConfig) -> Self {
        let caches = CacheHierarchy::new(&config);
        Self {
            config,
            arena: Arena::new(),
            caches,
            counters: Counters::default(),
            elapsed_ns: 0.0,
            reports: Vec::new(),
            pending_children: Vec::new(),
            pending_scatter: Vec::new(),
            buffer_traffic: Vec::new(),
            traces: TraceArena::default(),
            sm_cycles: Vec::new(),
            #[cfg(test)]
            whole_wave: false,
            fault: None,
            rec: None,
            queue_decls: HashMap::new(),
            sched: None,
            current_stream: 0,
        }
    }

    /// Select the command stream subsequent kernels are attributed to.
    /// Stream 0 is the default stream every device starts on.
    pub fn set_stream(&mut self, stream: u32) {
        self.current_stream = stream;
    }

    /// The currently selected command stream.
    pub fn stream(&self) -> u32 {
        self.current_stream
    }

    /// Simulated elapsed time in nanoseconds (see
    /// [`Device::elapsed_ms`] for the reporting unit).
    pub fn elapsed_ns(&self) -> f64 {
        self.elapsed_ns
    }

    /// Arm (or re-arm, with an empty log) the memory-model sanitizer
    /// (the [`crate::san`] view of the recorder). Subsequent kernels run
    /// under it for the device's life; buffers allocated (or recycled
    /// from the pool) from now on carry uninitialized-read poison. With
    /// the IR armed, the race window closes here for both views.
    pub fn arm_sanitizer(&mut self, _config: SanConfig) {
        self.arena.set_poison_mode(true);
        self.rec.get_or_insert_default().arm_sanitizer();
    }

    /// Violations recorded so far (empty when nothing is armed).
    pub fn san_violations(&self) -> &[SanViolation] {
        self.rec.as_ref().map_or(&[], |r| r.violations())
    }

    /// Total violations so far, including any beyond the report cap.
    pub fn san_total(&self) -> u64 {
        self.rec.as_ref().map_or(0, |r| r.total())
    }

    /// Arm the access-IR view of the recorder: subsequent kernels
    /// contribute to a bounded per-race-window access summary (see
    /// [`crate::ir`]) that the static verifier consumes. Purely
    /// observational — results, timing and counters are bit-identical
    /// to an unarmed run. Queues declared before arming are carried
    /// over. With the sanitizer armed, the race window closes here for
    /// both views.
    pub fn arm_ir(&mut self) {
        let mut decls: Vec<QueueDecl> = self.queue_decls.values().copied().collect();
        decls.sort_by_key(|d| d.tail_addr);
        self.rec.get_or_insert_default().arm_ir(&decls);
    }

    /// Whether the IR view is currently armed.
    pub fn ir_armed(&self) -> bool {
        self.rec.as_ref().is_some_and(|r| r.ir_armed())
    }

    /// Disarm the IR view (if armed), closing its trailing race window
    /// and returning the retained IR — with its access profile, the
    /// adversarial placement search's evidence source.
    pub fn take_ir(&mut self) -> Option<AccessIr> {
        let rec = self.rec.as_mut()?;
        let ir = rec.take_ir();
        if !rec.san_armed() {
            self.rec = None;
        }
        ir
    }

    /// Declare a device queue (tail cursor, overflow cell, capacity,
    /// spill capability) so the static push-bound certifier can
    /// recognize its traffic. Safe to call whether or not the IR
    /// recorder is armed; re-declaring a tail address replaces the
    /// previous declaration (pooled queues get re-assembled).
    pub fn declare_queue(
        &mut self,
        label: &'static str,
        tail: Buf,
        overflow: Buf,
        capacity: u32,
        spill: bool,
    ) {
        let decl = QueueDecl {
            label,
            tail_addr: self.arena.addr(tail, 0),
            overflow_addr: self.arena.addr(overflow, 0),
            capacity,
            spill,
        };
        self.queue_decls.insert(decl.tail_addr, decl);
        if let Some(rec) = self.rec.as_deref_mut() {
            rec.declare_queue(decl);
        }
    }

    /// Arm seeded schedule fuzzing: subsequent waves execute their
    /// lanes in a deterministic permuted order drawn from `seed` (one
    /// fresh permutation per wave). Disarm with
    /// [`Device::disarm_schedule_fuzz`].
    pub fn arm_schedule_fuzz(&mut self, seed: u64) {
        self.sched = Some(SchedPlan::new(seed));
    }

    /// Remove the armed schedule-fuzz plan (if any), returning it with
    /// its wave count. Execution reverts to ascending lane order.
    pub fn disarm_schedule_fuzz(&mut self) -> Option<SchedPlan> {
        self.sched.take()
    }

    /// Arm a fault-injection plan. Subsequent kernels run under it;
    /// the injection log accumulates until [`Device::disarm_faults`].
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// Whether a fault plan is currently armed.
    pub fn faults_armed(&self) -> bool {
        self.fault.is_some()
    }

    /// Remove the armed plan (if any), returning it with its log.
    pub fn disarm_faults(&mut self) -> Option<FaultPlan> {
        self.fault.take()
    }

    /// Injections recorded so far (empty when no plan is armed).
    pub fn fault_log(&self) -> &[FaultEvent] {
        self.fault.as_ref().map_or(&[], super::fault::FaultPlan::log)
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Allocate a zero-initialized buffer of `len` 32-bit words.
    pub fn alloc(&mut self, label: &'static str, len: usize) -> Buf {
        self.counters.buffer_allocs += 1;
        self.buffer_traffic.push([0; 3]);
        self.arena.alloc(label, len)
    }

    /// Allocate and upload host data (host→device copies are free in
    /// the model, matching the paper's convention of reporting kernel
    /// time only). Counted in [`Counters::h2d_uploads`] /
    /// [`Counters::h2d_words`] so resident-buffer services can assert
    /// upload amortization.
    pub fn alloc_upload(&mut self, label: &'static str, data: &[u32]) -> Buf {
        self.counters.h2d_uploads += 1;
        self.counters.h2d_words += data.len() as u64;
        let buf = self.alloc(label, data.len());
        self.arena.slice_mut(buf).copy_from_slice(data);
        self.arena.clear_poison(buf);
        buf
    }

    /// Upload a host staging buffer, carrying its per-word shadow
    /// poison across the copy: words the host never wrote into the
    /// staging buffer stay poisoned on device (while the sanitizer's
    /// poison mode is on), so a kernel reading one trips `UninitRead`
    /// instead of silently observing the zero fill. Counted like
    /// [`Device::alloc_upload`].
    pub fn upload_staged(&mut self, staging: &HostStaging) -> Buf {
        self.counters.h2d_uploads += 1;
        self.counters.h2d_words += staging.len() as u64;
        let buf = self.alloc(staging.label(), staging.len());
        self.arena.slice_mut(buf).copy_from_slice(staging.words());
        self.arena.set_poison_from_unwritten(buf, staging.written());
        buf
    }

    /// Pool-aware allocation: reuse a same-length buffer previously
    /// returned with [`Device::release`], allocating fresh otherwise.
    /// Returns the buffer and whether it was recycled. A recycled
    /// buffer keeps its previous contents — callers reset explicitly.
    pub fn alloc_pooled(&mut self, label: &'static str, len: usize) -> (Buf, bool) {
        match self.arena.acquire(label, len) {
            Some(buf) => {
                self.counters.buffer_reuses += 1;
                (buf, true)
            }
            None => (self.alloc(label, len), false),
        }
    }

    /// Return a buffer to the arena free list for later reuse by
    /// [`Device::alloc_pooled`]. The handle must not be used again
    /// until re-acquired.
    pub fn release(&mut self, buf: Buf) {
        self.arena.release(buf);
    }

    /// Host-side read of a whole buffer (no counters charged).
    pub fn read(&self, buf: Buf) -> &[u32] {
        self.arena.slice(buf)
    }

    /// Host-side read of one word.
    pub fn read_word(&self, buf: Buf, idx: usize) -> u32 {
        self.arena.slice(buf)[idx]
    }

    /// Host-side write of a whole buffer (no counters charged).
    pub fn write(&mut self, buf: Buf, data: &[u32]) {
        self.arena.slice_mut(buf).copy_from_slice(data);
        self.arena.clear_poison(buf);
    }

    /// Host-side write of one word.
    pub fn write_word(&mut self, buf: Buf, idx: usize, val: u32) {
        self.arena.slice_mut(buf)[idx] = val;
        self.arena.clear_poison_at(buf, idx as u32);
        if let Some(rec) = self.rec.as_deref_mut() {
            rec.on_host_write(self.arena.addr(buf, idx as u32), val);
        }
    }

    /// Host-side fill.
    pub fn fill(&mut self, buf: Buf, val: u32) {
        self.arena.slice_mut(buf).fill(val);
        self.arena.clear_poison(buf);
    }

    /// Per-buffer lane-level traffic: `(label, loads, stores, atomics)`
    /// rows sorted by total descending — answers "which array
    /// dominates memory traffic" for kernel tuning.
    pub fn buffer_traffic(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut rows: Vec<(&'static str, u64, u64, u64)> = self
            .buffer_traffic
            .iter()
            .enumerate()
            .map(|(id, t)| (self.arena.label(Buf { id: id as u32 }), t[0], t[1], t[2]))
            .collect();
        rows.sort_by_key(|&(_, l, s, a)| std::cmp::Reverse(l + s + a));
        rows
    }

    /// Simulated elapsed time in milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed_ns / 1.0e6
    }

    /// Aggregate counters since construction or the last reset.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Per-kernel reports since the last reset.
    pub fn reports(&self) -> &[KernelReport] {
        &self.reports
    }

    /// Reset counters, reports and the clock (memory contents and
    /// cache state are preserved).
    pub fn reset_stats(&mut self) {
        self.counters = Counters::default();
        self.reports.clear();
        self.elapsed_ns = 0.0;
    }

    /// Charge a grid-wide synchronization barrier (the sync-mode
    /// iteration barrier the paper's §4.3 eliminates in phase 1).
    /// Also closes the recorder's race window: accesses before the
    /// barrier are ordered before everything after it.
    pub fn charge_barrier(&mut self) {
        self.counters.barriers += 1;
        self.elapsed_ns += self.config.barrier_us * 1e3;
        if let Some(rec) = self.rec.as_deref_mut() {
            rec.on_barrier();
        }
    }

    /// Words currently idle on the pool free list.
    pub fn pooled_free_words(&self) -> usize {
        self.arena.free_words()
    }

    /// Evict idle pooled buffers, largest first, until at most
    /// `max_bytes` of free-list memory remains. Returns bytes evicted.
    /// Evicted buffers are gone for good: a later
    /// [`Device::alloc_pooled`] of that size allocates fresh.
    pub fn trim_pool_to(&mut self, max_bytes: usize) -> usize {
        self.arena.trim_free_to(max_bytes / 4) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_hardware() {
        let v = DeviceConfig::v100();
        assert_eq!(v.num_sms, 80);
        assert_eq!(v.mem_bandwidth_gbps, 900.0);
        let t = DeviceConfig::t4();
        assert_eq!(t.num_sms, 40);
        assert_eq!(t.mem_bandwidth_gbps, 320.0);
        // The paper's theoretical analysis: V100 should be 2–3× T4.
        assert!(v.mem_bandwidth_gbps / t.mem_bandwidth_gbps > 2.0);
    }

    #[test]
    fn host_io_roundtrip() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let b = d.alloc_upload("x", &[1, 2, 3]);
        assert_eq!(d.read(b), &[1, 2, 3]);
        d.write_word(b, 1, 9);
        assert_eq!(d.read_word(b, 1), 9);
        d.fill(b, 7);
        assert_eq!(d.read(b), &[7, 7, 7]);
    }

    #[test]
    fn barrier_charges_time() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        assert_eq!(d.elapsed_ms(), 0.0);
        d.charge_barrier();
        assert!(d.elapsed_ms() > 0.0);
        assert_eq!(d.counters().barriers, 1);
        d.reset_stats();
        assert_eq!(d.elapsed_ms(), 0.0);
    }
}
