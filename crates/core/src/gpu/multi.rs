//! Multi-GPU bucketed SSSP — the paper's stated future work ("we will
//! further explore a high-performance graph processing framework for
//! large-scale graphs on the multi-GPUs platform", §7).
//!
//! A bulk-synchronous 1-D partitioning over `k` simulated devices:
//!
//! * vertices are range-partitioned; each device holds the adjacency
//!   of its own vertices plus a full replicated distance vector;
//! * per bucket, devices relax the light edges of their local active
//!   vertices; improvements are collected in a device-side update
//!   queue, exchanged through a modelled interconnect (bytes over
//!   `interconnect_gbps` + a per-superstep latency), and merged with
//!   `min` on every replica; the inner loop repeats until no device
//!   has in-bucket work;
//! * phase 2 (heavy edges) runs per device over its settled range,
//!   followed by one more exchange and a synchronized window advance
//!   with empty-window jumping.
//!
//! Wall time is `Σ supersteps max_d(device-step time) + transfer
//! time` — the devices run concurrently, the exchange is the barrier.

use super::buffers::{DeviceQueue, GraphBuffers, QueueOverflow};
use crate::stats::{SsspResult, UpdateStats};
use crate::{default_delta, Csr, Dist, VertexId, Weight, INF};
use rdbs_gpu_sim::{
    Device, DeviceConfig, FaultEvent, FaultPlan, FaultSpec, SanConfig, SanViolation,
};
use std::cell::Cell;

/// Multi-GPU run configuration.
#[derive(Clone, Debug)]
pub struct MultiGpuConfig {
    /// Devices in the system (1 degenerates to single-GPU).
    pub num_devices: usize,
    /// Per-device hardware model.
    pub device: DeviceConfig,
    /// Inter-GPU bandwidth in GB/s (NVLink-class default).
    pub interconnect_gbps: f64,
    /// Per-exchange latency in microseconds.
    pub exchange_latency_us: f64,
    /// Bucket width Δ (fixed across buckets in the multi-GPU port).
    pub delta0: Option<Weight>,
}

impl MultiGpuConfig {
    /// `k` V100s over NVLink.
    pub fn v100s(k: usize) -> Self {
        Self {
            num_devices: k,
            device: DeviceConfig::v100(),
            interconnect_gbps: 50.0,
            exchange_latency_us: 5.0,
            delta0: None,
        }
    }
}

/// Outcome of a multi-GPU run.
pub struct MultiGpuRun {
    pub result: SsspResult,
    /// Modelled wall time: max-over-devices compute per superstep plus
    /// exchange time.
    pub elapsed_ms: f64,
    /// Milliseconds spent in the interconnect.
    pub exchange_ms: f64,
    /// Bytes moved between devices.
    pub exchanged_bytes: u64,
    /// Bulk-synchronous supersteps executed.
    pub supersteps: u32,
    /// Buckets processed.
    pub buckets: u32,
    /// Injection log of the faulted device (empty on fault-free runs).
    pub fault_events: Vec<FaultEvent>,
    /// Total injections, including any beyond the log cap.
    pub fault_injections: u64,
}

struct Shard {
    device: Device,
    gb: GraphBuffers,
    frontier: DeviceQueue,
    updates: DeviceQueue,
    /// Dedup flag for the update queue (a vertex improved several
    /// times per superstep is reported once).
    dirty: Box_,
    pending: Box_,
    /// Owned vertex range.
    lo: u32,
    hi: u32,
    /// elapsed_ms at the start of the current superstep.
    mark: f64,
}

type Box_ = rdbs_gpu_sim::Buf;

impl Shard {
    fn step_time(&mut self) -> f64 {
        let now = self.device.elapsed_ms();
        let dt = now - self.mark;
        self.mark = now;
        dt
    }
}

/// Resident multi-GPU state: `k` simulated devices with the graph
/// arrays uploaded once at construction (the replicated-CSR layout
/// common in 1-D multi-GPU SSSP), re-runnable for many sources via
/// [`MultiGpuState::run`] — the batched service's multi-device
/// backend. Per-query state (distances, frontiers, update queues,
/// dedup marks) is reset in place; nothing is re-uploaded.
pub struct MultiGpuState {
    shards: Vec<Shard>,
    config: MultiGpuConfig,
    n: u32,
    chunk: u32,
    delta: Weight,
}

impl MultiGpuState {
    /// Build the shards and upload the graph to each device once.
    pub fn new(graph: &Csr, config: &MultiGpuConfig) -> Self {
        let n = graph.num_vertices() as u32;
        assert!(config.num_devices >= 1);
        let k = config.num_devices as u32;
        let delta = config.delta0.unwrap_or_else(|| default_delta(graph));
        // Δ = 0 would pin the next-window search at the current window.
        assert!(delta >= 1, "delta must be at least 1");
        let chunk = n.div_ceil(k);
        let shards: Vec<Shard> = (0..k)
            .map(|d| {
                let mut device = Device::new(config.device.clone());
                // One command stream per shard device: kernel reports
                // and sanitizer violations carry the shard id.
                device.set_stream(d);
                let gb = GraphBuffers::upload(&mut device, graph);
                let frontier = DeviceQueue::new(&mut device, "mg_frontier", n);
                let updates = DeviceQueue::new(&mut device, "mg_updates", n);
                let dirty = device.alloc("mg_dirty", n as usize);
                let pending = device.alloc("mg_pending", n as usize);
                Shard {
                    device,
                    gb,
                    frontier,
                    updates,
                    dirty,
                    pending,
                    lo: d * chunk,
                    hi: ((d + 1) * chunk).min(n),
                    mark: 0.0,
                }
            })
            .collect();
        Self { shards, config: config.clone(), n, chunk, delta }
    }

    /// Arm a fault plan on shard 0 (device-level models corrupt that
    /// shard's kernels; message models mutate every exchange batch).
    pub fn arm_faults(&mut self, spec: FaultSpec) {
        self.shards[0].device.arm_faults(FaultPlan::new(spec));
    }

    /// Disarm shard 0's fault plan, returning it (for recovery
    /// reports).
    pub fn disarm_faults(&mut self) -> Option<FaultPlan> {
        self.shards[0].device.disarm_faults()
    }

    /// Arm the memory-model sanitizer on every shard (races span the
    /// per-shard persistent kernels, so all devices watch).
    pub fn arm_sanitizer(&mut self, config: SanConfig) {
        for s in &mut self.shards {
            s.device.arm_sanitizer(config);
        }
    }

    /// Sanitizer violations across all shards as `(shard, violation)`
    /// rows, in shard order.
    pub fn san_violations(&self) -> Vec<(usize, SanViolation)> {
        let mut rows = Vec::new();
        for (i, s) in self.shards.iter().enumerate() {
            rows.extend(s.device.san_violations().iter().map(|v| (i, v.clone())));
        }
        rows
    }

    /// Total sanitizer violations across all shards.
    pub fn san_total(&self) -> u64 {
        self.shards.iter().map(|s| s.device.san_total()).sum()
    }

    /// Arm the access-IR recorder on every shard (the static verifier
    /// merges the per-device IRs into one analysis).
    pub fn arm_ir(&mut self) {
        for s in &mut self.shards {
            s.device.arm_ir();
        }
    }

    /// Take the retained access IR from every shard, in shard order,
    /// disarming the recorders. Empty when never armed.
    pub fn take_irs(&mut self) -> Vec<rdbs_gpu_sim::AccessIr> {
        self.shards.iter_mut().filter_map(|s| s.device.take_ir()).collect()
    }

    /// Total host→device uploads across all shards so far (the
    /// amortization counter: constant across [`MultiGpuState::run`]s).
    pub fn graph_uploads(&self) -> u64 {
        self.shards.iter().map(|s| s.device.counters().h2d_uploads).sum()
    }

    /// Reset per-query state in place and seed `source`'s owner.
    fn reset(&mut self, source: VertexId) {
        for s in &mut self.shards {
            s.gb.reset_dist(&mut s.device, source);
            s.frontier.reset(&mut s.device);
            s.updates.reset(&mut s.device);
            s.device.fill(s.dirty, 0);
            s.device.fill(s.pending, 0);
            s.device.charge_kernel_launch(); // persistent phase-1 kernel
            s.mark = s.device.elapsed_ms();
        }
        let owner = (source / self.chunk) as usize;
        let s = &mut self.shards[owner];
        let frontier = s.frontier;
        let pending = s.pending;
        frontier.host_push(&mut s.device, source);
        s.device.write_word(pending, source as usize, 1);
    }

    /// Answer one query against the resident shards. Panics on a
    /// detected device-queue overflow (which the recovery ladder,
    /// [`crate::recover`], treats as a detection) — use
    /// [`MultiGpuState::try_run`] for the typed error.
    pub fn run(&mut self, source: VertexId) -> MultiGpuRun {
        self.try_run(source).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Answer one query; `Err` on a detected device-queue overflow.
    pub fn try_run(&mut self, source: VertexId) -> Result<MultiGpuRun, QueueOverflow> {
        let n = self.n;
        assert!(source < n, "source out of range");
        self.reset(source);
        let (config, chunk, delta) = (self.config.clone(), self.chunk, self.delta);
        let shards = &mut self.shards;
        let checks = Cell::new(0u64);
        let total_updates = Cell::new(0u64);
        let mut elapsed_ms = 0.0f64;
        let mut exchange_ms = 0.0f64;
        let mut exchanged_bytes = 0u64;
        let mut supersteps = 0u32;
        let mut buckets = 0u32;

        let mut win_lo: u64 = 0;
        loop {
            let win_hi = win_lo + delta as u64;
            buckets += 1;

            // ---- Phase 1: light edges, inner exchange loop ----
            loop {
                let mut any = false;
                let mut step_max = 0.0f64;
                let mut all_improved: Vec<(VertexId, Dist)> = Vec::new();
                for s in shards.iter_mut() {
                    let items = s.frontier.drain(&mut s.device);
                    if items.is_empty() {
                        s.step_time();
                        continue;
                    }
                    any = true;
                    relax_wave(s, &items, win_lo, win_hi, delta, true, &checks, &total_updates);
                    step_max = step_max.max(s.step_time());
                    collect_updates(s, &mut all_improved);
                }
                if !any {
                    break;
                }
                supersteps += 1;
                elapsed_ms += step_max;
                exchange(
                    shards,
                    &mut all_improved,
                    &config,
                    &mut exchange_ms,
                    &mut exchanged_bytes,
                );
                // Owners enqueue in-window improved vertices.
                seed_owners(shards, &all_improved, win_lo, win_hi, chunk);
            }

            // ---- Phase 2: heavy edges over owned settled ranges ----
            let mut step_max = 0.0f64;
            let mut all_improved: Vec<(VertexId, Dist)> = Vec::new();
            for s in shards.iter_mut() {
                let owned: Vec<VertexId> = (s.lo..s.hi)
                    .filter(|&v| {
                        let d = s.device.read_word(s.gb.dist, v as usize) as u64;
                        d >= win_lo && d < win_hi
                    })
                    .collect();
                if !owned.is_empty() {
                    relax_wave(s, &owned, win_lo, win_hi, delta, false, &checks, &total_updates);
                    collect_updates(s, &mut all_improved);
                }
                step_max = step_max.max(s.step_time());
            }
            supersteps += 1;
            elapsed_ms += step_max;
            exchange(shards, &mut all_improved, &config, &mut exchange_ms, &mut exchanged_bytes);

            // Surface queue overflows (sticky cells survive the drains)
            // before trusting this bucket's output.
            check_shard_queues(shards)?;

            // ---- Phase 3: next window (host-coordinated jump) ----
            let dist0 = &shards[0].device.read(shards[0].gb.dist)[..n as usize];
            let mut next_active = false;
            let mut min_beyond = INF as u64;
            for &d in dist0 {
                let du = d as u64;
                if d != INF && du >= win_hi {
                    if du < win_hi + delta as u64 {
                        next_active = true;
                    } else {
                        min_beyond = min_beyond.min(du);
                    }
                }
            }
            let next_lo = if next_active {
                win_hi
            } else if min_beyond != INF as u64 {
                min_beyond
            } else {
                break; // converged everywhere
            };
            let next_hi = next_lo + delta as u64;
            // Seed owners with the next window's active vertices.
            let seeds: Vec<(VertexId, Dist)> = dist0
                .iter()
                .enumerate()
                .filter(|&(_, &d)| d != INF && (d as u64) >= next_lo && (d as u64) < next_hi)
                .map(|(v, &d)| (v as VertexId, d))
                .collect();
            seed_owners(shards, &seeds, next_lo, next_hi, chunk);
            win_lo = next_lo;
        }

        let dist = shards[0].device.read(shards[0].gb.dist)[..n as usize].to_vec();
        let stats = UpdateStats {
            checks: checks.get(),
            total_updates: total_updates.get(),
            ..Default::default()
        };
        // Snapshot the armed plan's log (cumulative while armed — the
        // one-shot wrappers arm per run, so this matches their run).
        let dev0 = &shards[0].device;
        let fault_events = dev0.fault_log().to_vec();
        let fault_injections = dev0.fault_injections();
        Ok(MultiGpuRun {
            result: SsspResult { source, dist, stats },
            elapsed_ms: elapsed_ms + exchange_ms,
            exchange_ms,
            exchanged_bytes,
            supersteps,
            buckets,
            fault_events,
            fault_injections,
        })
    }
}

/// Run the multi-GPU bucketed SSSP (one-shot: builds a fresh
/// [`MultiGpuState`], runs one query).
pub fn multi_gpu_sssp(graph: &Csr, source: VertexId, config: &MultiGpuConfig) -> MultiGpuRun {
    multi_gpu_sssp_faulted(graph, source, config, None)
}

/// [`multi_gpu_sssp`] with an optional fault plan armed on device 0:
/// device-level models corrupt that shard's kernels, and the message
/// models (lost/duplicated/reordered) mutate every boundary-exchange
/// batch before it is applied to the replicas.
pub fn multi_gpu_sssp_faulted(
    graph: &Csr,
    source: VertexId,
    config: &MultiGpuConfig,
    fault: Option<FaultSpec>,
) -> MultiGpuRun {
    let n = graph.num_vertices() as u32;
    assert!(source < n, "source out of range");
    let mut state = MultiGpuState::new(graph, config);
    if let Some(spec) = fault {
        state.arm_faults(spec);
    }
    state.run(source)
}

/// `Err` if any shard's frontier or update queue overflowed.
fn check_shard_queues(shards: &[Shard]) -> Result<(), QueueOverflow> {
    for s in shards {
        s.frontier.check(&s.device)?;
        s.updates.check(&s.device)?;
    }
    Ok(())
}

/// One relaxation wave on a shard: light (`w < delta`) or heavy
/// (`w >= delta`) edges of `items`, recording improvements.
#[allow(clippy::too_many_arguments)]
fn relax_wave(
    s: &mut Shard,
    items: &[VertexId],
    win_lo: u64,
    win_hi: u64,
    delta: Weight,
    light: bool,
    checks: &Cell<u64>,
    total_updates: &Cell<u64>,
) {
    let gb = s.gb;
    let updates = s.updates;
    let dirty = s.dirty;
    let pending = s.pending;
    let frontier = s.frontier;
    let name = if light { "mg_light" } else { "mg_heavy" };
    s.device.wave(name, items.len() as u64, 1, |lane| {
        let i = lane.tid() as usize;
        let _ = frontier.read_slot(lane, i as u32 % frontier.capacity);
        let v = items[i];
        if light {
            // Atomic: races the owner-seeding `atomic_exch(pending, 1)`
            // handshake, same as the single-device phase 1.
            lane.atomic_exch(pending, v, 0);
        }
        let dv = lane.ld_volatile(gb.dist, v);
        lane.alu(2);
        let dvu = dv as u64;
        if dvu < win_lo || dvu >= win_hi {
            return;
        }
        let start = lane.ld(gb.row, v);
        let end = lane.ld(gb.row, v + 1);
        for e in start..end {
            let w = lane.ld(gb.wt, e);
            lane.alu(1);
            if (w < delta) != light {
                continue;
            }
            let v2 = lane.ld(gb.adj, e);
            lane.alu(1);
            let nd = dv.saturating_add(w);
            checks.set(checks.get() + 1);
            let dv2 = lane.ld_volatile(gb.dist, v2);
            if nd < dv2 {
                let old = lane.atomic_min(gb.dist, v2, nd);
                if nd < old {
                    total_updates.set(total_updates.get() + 1);
                    if lane.atomic_exch(dirty, v2, 1) == 0 {
                        updates.push(lane, v2);
                    }
                }
            }
        }
    });
    // Superstep boundary: the exchange's D2H drain synchronizes the
    // device — this port is bulk-synchronous (only the single-device
    // BASYN phase 1 is barrier-free), so charge the grid barrier.
    s.device.charge_barrier();
}

/// Drain a shard's update queue into `(vertex, local distance)` pairs.
fn collect_updates(s: &mut Shard, out: &mut Vec<(VertexId, Dist)>) {
    let vs = s.updates.drain(&mut s.device);
    for v in vs {
        s.device.write_word(s.dirty, v as usize, 0);
        out.push((v, s.device.read_word(s.gb.dist, v as usize)));
    }
}

/// Broadcast improvements to every replica; charge the interconnect.
///
/// The batch is passed mutably so an armed fault plan can lose,
/// duplicate or reorder messages *before* they are applied — the
/// caller's subsequent owner-seeding then sees the same faulted batch,
/// exactly as if the interconnect had dropped the packets.
fn exchange(
    shards: &mut [Shard],
    improved: &mut Vec<(VertexId, Dist)>,
    config: &MultiGpuConfig,
    exchange_ms: &mut f64,
    exchanged_bytes: &mut u64,
) {
    if shards.len() <= 1 {
        return;
    }
    shards[0].device.fault_filter_messages(improved);
    // 8 bytes per (vertex, dist) pair, to every other device.
    let bytes = improved.len() as u64 * 8 * (shards.len() as u64 - 1);
    *exchanged_bytes += bytes;
    *exchange_ms +=
        config.exchange_latency_us / 1e3 + bytes as f64 / (config.interconnect_gbps * 1e6);
    for s in shards.iter_mut() {
        for &(v, d) in improved.iter() {
            let cur = s.device.read_word(s.gb.dist, v as usize);
            if d < cur {
                s.device.write_word(s.gb.dist, v as usize, d);
            }
        }
    }
}

/// Enqueue in-window improved vertices on their owning shard.
fn seed_owners(
    shards: &mut [Shard],
    improved: &[(VertexId, Dist)],
    win_lo: u64,
    win_hi: u64,
    chunk: u32,
) {
    for &(v, d) in improved {
        let du = d as u64;
        if du < win_lo || du >= win_hi {
            continue;
        }
        let owner = (v / chunk) as usize;
        let s = &mut shards[owner];
        // Re-read the replica value (a later exchange may have
        // improved it further) and dedup via the pending flag.
        if s.device.read_word(s.pending, v as usize) == 0 {
            s.device.write_word(s.pending, v as usize, 1);
            s.frontier.host_push(&mut s.device, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::dijkstra;
    use crate::validate::check_against;
    use rdbs_graph::builder::{build_undirected, EdgeList};
    use rdbs_graph::generate::{erdos_renyi, preferential_attachment, uniform_weights};

    fn cfg(k: usize) -> MultiGpuConfig {
        MultiGpuConfig {
            num_devices: k,
            device: DeviceConfig::test_tiny(),
            interconnect_gbps: 50.0,
            exchange_latency_us: 5.0,
            delta0: None,
        }
    }

    fn graph(seed: u64) -> Csr {
        let mut el = erdos_renyi(150, 800, seed);
        uniform_weights(&mut el, seed + 31);
        build_undirected(&el)
    }

    #[test]
    fn matches_dijkstra_for_any_device_count() {
        for seed in 0..3 {
            let g = graph(seed);
            let oracle = dijkstra(&g, 0);
            for k in [1, 2, 3, 4] {
                let run = multi_gpu_sssp(&g, 0, &cfg(k));
                check_against(&oracle.dist, &run.result.dist)
                    .unwrap_or_else(|m| panic!("seed {seed} devices {k}: {m}"));
            }
        }
    }

    #[test]
    fn powerlaw_and_cross_partition_sources() {
        let mut el = preferential_attachment(300, 4, 4);
        uniform_weights(&mut el, 5);
        let g = build_undirected(&el);
        for source in [0u32, 150, 299] {
            let oracle = dijkstra(&g, source);
            let run = multi_gpu_sssp(&g, source, &cfg(3));
            check_against(&oracle.dist, &run.result.dist)
                .unwrap_or_else(|m| panic!("source {source}: {m}"));
        }
    }

    #[test]
    #[should_panic(expected = "delta must be at least 1")]
    fn zero_delta_is_rejected_up_front() {
        MultiGpuState::new(&graph(0), &MultiGpuConfig { delta0: Some(0), ..cfg(2) });
    }

    #[test]
    fn exchange_accounting() {
        let g = graph(7);
        let single = multi_gpu_sssp(&g, 0, &cfg(1));
        assert_eq!(single.exchanged_bytes, 0, "single device moves nothing");
        assert_eq!(single.exchange_ms, 0.0);
        let dual = multi_gpu_sssp(&g, 0, &cfg(2));
        assert!(dual.exchanged_bytes > 0);
        assert!(dual.exchange_ms > 0.0);
        assert!(dual.supersteps >= dual.buckets);
        // Same answer regardless.
        assert_eq!(single.result.dist, dual.result.dist);
    }

    #[test]
    fn disconnected_graph_terminates() {
        let el = EdgeList::from_edges(6, vec![(0, 1, 3), (4, 5, 2)]);
        let g = build_undirected(&el);
        let run = multi_gpu_sssp(&g, 0, &cfg(2));
        assert_eq!(run.result.dist[1], 3);
        assert_eq!(run.result.dist[4], INF);
    }
}
