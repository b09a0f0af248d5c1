//! The data-centric engine: frontiers plus advance/filter/compute.

use rdbs_core::gpu::buffers::{DeviceQueue, GraphBuffers};
use rdbs_core::{Csr, VertexId};
use rdbs_gpu_sim::{Buf, Device, DeviceConfig, Lane};

/// What an advance functor tells the engine about one edge visit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdvanceOutcome {
    /// Nothing changed.
    Skip,
    /// The destination's state changed: put it in the output frontier
    /// (deduplicated by the engine's pending flags).
    Activate,
}

/// A Gunrock-style engine bound to one graph on one simulated device.
///
/// The frontier lives in device queues; `advance` maps a functor over
/// the out-edges of the current frontier, `filter` compacts the
/// frontier with a predicate, `compute` maps over all vertices.
/// Every operator is one synchronous kernel launch plus a barrier —
/// the framework generality the paper's dedicated kernels avoid.
pub struct Engine {
    device: Device,
    gb: GraphBuffers,
    cur: DeviceQueue,
    next: DeviceQueue,
    pending: Buf,
    frontier: Vec<VertexId>,
    iterations: u32,
}

impl Engine {
    /// Upload `graph` to a fresh device.
    pub fn new(config: DeviceConfig, graph: &Csr) -> Self {
        let mut device = Device::new(config);
        let gb = GraphBuffers::upload(&mut device, graph);
        let n = graph.num_vertices() as u32;
        let cur = DeviceQueue::new(&mut device, "fw_frontier", n);
        let next = DeviceQueue::new(&mut device, "fw_next", n);
        let pending = device.alloc("fw_pending", n as usize);
        Self { device, gb, cur, next, pending, frontier: Vec::new(), iterations: 0 }
    }

    /// The device (for buffer allocation and result readback).
    pub fn device(&mut self) -> &mut Device {
        &mut self.device
    }

    /// Graph buffers (row/adj/wt/dist) for functors that need them.
    pub fn graph_buffers(&self) -> GraphBuffers {
        self.gb
    }

    /// Vertices in the graph.
    pub fn num_vertices(&self) -> u32 {
        self.gb.n
    }

    /// Reset and seed the frontier.
    pub fn init_frontier(&mut self, vertices: &[VertexId]) {
        self.device.fill(self.pending, 0);
        self.device.write_word(self.cur.tail, 0, 0);
        self.device.write_word(self.next.tail, 0, 0);
        for &v in vertices {
            self.device.write_word(self.pending, v as usize, 1);
            self.cur.host_push(&mut self.device, v);
        }
        self.frontier = vertices.to_vec();
        self.iterations = 0;
    }

    /// Current frontier size.
    pub fn frontier_len(&self) -> usize {
        self.frontier.len()
    }

    /// Operator iterations executed so far.
    pub fn iterations(&self) -> u32 {
        self.iterations
    }

    /// Simulated milliseconds so far.
    pub fn elapsed_ms(&self) -> f64 {
        self.device.elapsed_ms()
    }

    /// **Advance**: apply `functor(lane, src, dst, weight)` to every
    /// out-edge of the current frontier; destinations reported
    /// [`AdvanceOutcome::Activate`] form the next frontier. Returns
    /// the new frontier size.
    pub fn advance(
        &mut self,
        name: &'static str,
        functor: impl Fn(&mut Lane<'_>, VertexId, VertexId, u32) -> AdvanceOutcome,
    ) -> usize {
        if self.frontier.is_empty() {
            return 0;
        }
        self.iterations += 1;
        let gb = self.gb;
        let cur = self.cur;
        let next = self.next;
        let pending = self.pending;
        let frontier = std::mem::take(&mut self.frontier);
        let frontier_ref = &frontier;
        self.device.launch(name, frontier.len() as u64, move |lane| {
            let i = lane.tid() as usize;
            let _ = lane.ld(cur.data, i as u32);
            let u = frontier_ref[i];
            lane.st(pending, u, 0);
            let start = lane.ld(gb.row, u);
            let end = lane.ld(gb.row, u + 1);
            for e in start..end {
                let v = lane.ld(gb.adj, e);
                let w = lane.ld(gb.wt, e);
                lane.alu(2);
                if functor(lane, u, v, w) == AdvanceOutcome::Activate
                    && lane.atomic_exch(pending, v, 1) == 0
                {
                    next.push(lane, v);
                }
            }
        });
        self.device.charge_barrier();
        // Manager step: swap frontiers.
        self.frontier = self.next.drain(&mut self.device);
        self.device.write_word(self.cur.tail, 0, 0);
        std::mem::swap(&mut self.cur, &mut self.next);
        self.frontier.len()
    }

    /// **Filter**: keep only frontier vertices satisfying `pred`.
    /// Returns the surviving count.
    pub fn filter(
        &mut self,
        name: &'static str,
        pred: impl Fn(&mut Lane<'_>, VertexId) -> bool,
    ) -> usize {
        if self.frontier.is_empty() {
            return 0;
        }
        self.iterations += 1;
        let cur = self.cur;
        let next = self.next;
        let frontier = std::mem::take(&mut self.frontier);
        let frontier_ref = &frontier;
        self.device.launch(name, frontier.len() as u64, move |lane| {
            let i = lane.tid() as usize;
            let _ = lane.ld(cur.data, i as u32);
            let v = frontier_ref[i];
            if pred(lane, v) {
                next.push(lane, v);
            }
        });
        self.device.charge_barrier();
        self.frontier = self.next.drain(&mut self.device);
        self.device.write_word(self.cur.tail, 0, 0);
        std::mem::swap(&mut self.cur, &mut self.next);
        self.frontier.len()
    }

    /// **Compute**: map `f(lane, v)` over every vertex of the graph
    /// (topology-driven, one thread per vertex).
    pub fn compute(&mut self, name: &'static str, f: impl Fn(&mut Lane<'_>, VertexId)) {
        self.iterations += 1;
        let n = self.gb.n;
        self.device.launch(name, n as u64, move |lane| {
            let v = lane.tid() as u32;
            f(lane, v);
        });
        self.device.charge_barrier();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdbs_graph::builder::{build_undirected, EdgeList};

    fn path() -> Csr {
        build_undirected(&EdgeList::from_edges(4, vec![(0, 1, 1), (1, 2, 1), (2, 3, 1)]))
    }

    #[test]
    fn advance_expands_frontier() {
        let g = path();
        let mut e = Engine::new(DeviceConfig::test_tiny(), &g);
        e.init_frontier(&[0]);
        assert_eq!(e.frontier_len(), 1);
        let n = e.advance("expand", |_, _, _, _| AdvanceOutcome::Activate);
        assert_eq!(n, 1); // vertex 1
        let n = e.advance("expand", |_, _, _, _| AdvanceOutcome::Activate);
        assert_eq!(n, 2); // 0 and 2 (both neighbours of 1)
    }

    #[test]
    fn filter_compacts() {
        let g = path();
        let mut e = Engine::new(DeviceConfig::test_tiny(), &g);
        e.init_frontier(&[0, 1, 2, 3]);
        let n = e.filter("evens", |_, v| v % 2 == 0);
        assert_eq!(n, 2);
    }

    #[test]
    fn compute_touches_all_vertices() {
        let g = path();
        let mut e = Engine::new(DeviceConfig::test_tiny(), &g);
        let out = e.device().alloc("out", 4);
        e.compute("mark", move |lane, v| lane.st(out, v, v + 10));
        assert_eq!(e.device().read(out), &[10, 11, 12, 13]);
    }

    #[test]
    fn operators_charge_kernels_and_barriers() {
        let g = path();
        let mut e = Engine::new(DeviceConfig::test_tiny(), &g);
        e.init_frontier(&[0]);
        e.advance("a", |_, _, _, _| AdvanceOutcome::Skip);
        e.compute("c", |_, _| {});
        assert_eq!(e.device().counters().kernel_launches, 2);
        assert_eq!(e.device().counters().barriers, 2);
        assert!(e.elapsed_ms() > 0.0);
    }
}
