//! BL — the paper's baseline: synchronous push-mode SSSP with static
//! load balancing (§5.2.1).
//!
//! This is the topology-driven style of Harish & Narayanan (HiPC'07),
//! which the paper cites as the original GPU SSSP and whose execution
//! model matches the description "synchronous push mode with the
//! static load balancing strategy": every iteration launches one
//! thread per vertex of the *whole* graph; threads whose mask bit is
//! set relax all their out-edges (no buckets, no light/heavy split)
//! and set the mask of improved neighbours; a kernel launch and a grid
//! barrier separate iterations, which repeat until no mask bit is set.
//! Work-inefficient, divergence-heavy and iteration-bound — exactly
//! the bottlenecks the paper's three optimizations attack.

use super::buffers::GraphBuffers;
use crate::stats::{SsspResult, UpdateStats};
use crate::{Csr, VertexId};
use rdbs_gpu_sim::Device;
use std::cell::Cell;

/// Run the baseline on an already-constructed device: upload the
/// graph, allocate the frontier mask and the progress flag, and iterate
/// to a fixed point. Returns the result; simulated time/counters
/// accumulate on `device`.
pub fn bl(device: &mut Device, graph: &Csr, source: VertexId) -> SsspResult {
    let n = graph.num_vertices() as u32;
    assert!(source < n, "source out of range");
    let gb = GraphBuffers::upload(device, graph);
    let mask = device.alloc("bl_mask", n as usize);
    // `progress[0] != 0` ⇔ some vertex was improved this iteration.
    let progress = device.alloc("bl_progress", 1);
    device.fill(mask, 0);
    device.write_word(progress, 0, 0);
    gb.reset_dist(device, source);

    let mut stats = UpdateStats::default();
    let total_updates = Cell::new(0u64);
    let checks = Cell::new(0u64);
    let active = Cell::new(0u64);

    device.write_word(mask, source as usize, 1);
    let mut rounds = 0u32;
    loop {
        rounds += 1;
        device.write_word(progress, 0, 0);
        let active_before = active.get();
        device.launch("bl_relax", n as u64, |lane| {
            let v = lane.tid() as u32;
            if lane.ld(mask, v) == 0 {
                return;
            }
            active.set(active.get() + 1);
            // Atomic: a concurrent improver may set this same mask
            // word — clear and set must both be schedule-independent.
            lane.atomic_exch(mask, v, 0);
            // Volatile: the mask/dist handshake with concurrent
            // improvers needs a coherent read.
            let dv = lane.ld_volatile(gb.dist, v);
            let start = lane.ld(gb.row, v);
            let end = lane.ld(gb.row, v + 1);
            for e in start..end {
                let v2 = lane.ld(gb.adj, e);
                let w = lane.ld(gb.wt, e);
                lane.alu(2);
                let nd = dv.saturating_add(w);
                checks.set(checks.get() + 1);
                let dv2 = lane.ld(gb.dist, v2);
                if nd < dv2 {
                    let old = lane.atomic_min(gb.dist, v2, nd);
                    if nd < old {
                        total_updates.set(total_updates.get() + 1);
                        // Warp-aggregated publishes: the warp's
                        // improvers of one mask word collapse to a
                        // single store, and only the warp leader pays
                        // the progress[0] atomic — many improvers hit
                        // both words, so scalar exchanges serialized
                        // here.
                        lane.gang_flag(mask, v2, 1);
                        lane.gang_flag_once(progress, 0, 1);
                    }
                }
            }
        });
        device.charge_barrier();
        stats.peak_bucket_layer_active.push(active.get() - active_before);
        if device.read_word(progress, 0) == 0 {
            break;
        }
    }

    stats.phase1_layers.push(rounds);
    stats.total_updates = total_updates.get();
    stats.checks = checks.get();
    let dist = gb.download_dist(device);
    SsspResult { source, dist, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::dijkstra;
    use crate::validate::check_against;
    use crate::INF;
    use rdbs_gpu_sim::DeviceConfig;
    use rdbs_graph::builder::{build_undirected, EdgeList};
    use rdbs_graph::generate::{erdos_renyi, uniform_weights};

    fn random_graph(seed: u64, n: usize, m: usize) -> Csr {
        let mut el = erdos_renyi(n, m, seed);
        uniform_weights(&mut el, seed + 1);
        build_undirected(&el)
    }

    #[test]
    fn matches_dijkstra() {
        for seed in 0..4 {
            let g = random_graph(seed, 60, 240);
            let mut d = Device::new(DeviceConfig::test_tiny());
            let r = bl(&mut d, &g, 0);
            let oracle = dijkstra(&g, 0);
            check_against(&oracle.dist, &r.dist).unwrap();
        }
    }

    #[test]
    fn charges_launch_and_barrier_per_round() {
        let el = EdgeList::from_edges(4, (0..3).map(|i| (i, i + 1, 5)).collect());
        let g = build_undirected(&el);
        let mut d = Device::new(DeviceConfig::test_tiny());
        let r = bl(&mut d, &g, 0);
        assert_eq!(r.dist, vec![0, 5, 10, 15]);
        // A path propagates one hop per synchronous iteration (the
        // final iteration makes no progress and terminates the loop).
        assert_eq!(r.stats.phase1_layers, vec![4]);
        assert_eq!(d.counters().barriers, 4);
        assert_eq!(d.counters().kernel_launches, 4);
        assert!(d.elapsed_ms() > 0.0);
    }

    #[test]
    fn topology_driven_launches_whole_graph() {
        let g = random_graph(3, 64, 200);
        let mut d = Device::new(DeviceConfig::test_tiny());
        let r = bl(&mut d, &g, 0);
        let rounds = r.stats.phase1_layers[0] as u64;
        // Static load balancing: every iteration runs n threads.
        assert_eq!(d.counters().threads, rounds * 64);
    }

    #[test]
    fn work_counters_populated() {
        let g = random_graph(7, 100, 600);
        let mut d = Device::new(DeviceConfig::test_tiny());
        let r = bl(&mut d, &g, 0);
        assert!(r.stats.total_updates > 0);
        assert!(r.stats.checks >= r.stats.total_updates);
        assert!(r.work_ratio().unwrap() >= 1.0);
        assert!(d.counters().inst_executed_atomics > 0);
    }

    #[test]
    fn unreachable_stays_inf() {
        let el = EdgeList::from_edges(3, vec![(0, 1, 2)]);
        let g = build_undirected(&el);
        let mut d = Device::new(DeviceConfig::test_tiny());
        let r = bl(&mut d, &g, 0);
        assert_eq!(r.dist, vec![0, 2, INF]);
    }
}
