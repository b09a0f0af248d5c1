//! PQ-Δ*-style stepping on the CPU (Dong, Gu, Sun & Zhang, SPAA'21).
//!
//! The paper's CPU comparator uses a **lazy-batched priority queue**
//! (LAB-PQ): instead of maintaining an exact priority order, threads
//! repeatedly extract a *batch* of the approximately-smallest tentative
//! distances and relax them in parallel; decrease-key is "lazy" — a
//! vertex is simply re-inserted and stale entries are skipped on
//! extraction. With batch size 1 this degenerates to Dijkstra; with
//! huge batches, to Bellman-Ford — the Δ*-stepping sweet spot lies
//! between, and the batch bound plays the role of Δ*.
//!
//! Wall-clock time of this implementation (on native threads via
//! crossbeam) is what Table 2's CPU column reports.

use parking_lot::Mutex;
use rdbs_core::stats::{SsspResult, UpdateStats};
use rdbs_core::{Csr, VertexId, INF};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Default worker count: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Lock-free `fetch_min` on an atomic distance; returns the previous
/// value (like CUDA's `atomicMin`).
#[inline]
fn fetch_min(cell: &AtomicU32, val: u32) -> u32 {
    let mut cur = cell.load(Ordering::Relaxed);
    while val < cur {
        match cell.compare_exchange_weak(cur, val, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(prev) => return prev,
            Err(next) => cur = next,
        }
    }
    cur
}

/// Lazy-batched priority-queue stepping with `threads` workers.
///
/// `batch_hint` bounds how many (approximately smallest) entries are
/// extracted per step; `None` picks `max(64, n / 64)`, which behaves
/// like a well-tuned Δ*.
pub fn pq_delta_stepping(
    graph: &Csr,
    source: VertexId,
    threads: usize,
    batch_hint: Option<usize>,
) -> SsspResult {
    let n = graph.num_vertices();
    assert!((source as usize) < n, "source out of range");
    assert!(threads >= 1);
    let batch = batch_hint.unwrap_or_else(|| (n / 64).max(64));
    let dist: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(INF)).collect();
    dist[source as usize].store(0, Ordering::Relaxed);
    let updates = AtomicU64::new(0);
    let checks = AtomicU64::new(0);

    // The lazy queue: stale entries tolerated, skipped at extraction.
    let mut heap: BinaryHeap<Reverse<(u32, VertexId)>> = BinaryHeap::new();
    heap.push(Reverse((0, source)));
    let mut stats = UpdateStats::default();
    let mut steps = 0u32;

    while !heap.is_empty() {
        // Lazy batch extraction: up to `batch` non-stale entries that
        // share the smallest key region.
        let mut frontier: Vec<VertexId> = Vec::with_capacity(batch);
        while frontier.len() < batch {
            let Some(Reverse((d, v))) = heap.pop() else { break };
            if dist[v as usize].load(Ordering::Relaxed) != d {
                continue; // stale (lazy decrease-key)
            }
            frontier.push(v);
        }
        if frontier.is_empty() {
            break;
        }
        steps += 1;
        stats.bucket_active.push(frontier.len() as u64);

        // Parallel relaxation of the batch.
        let chunk = frontier.len().div_ceil(threads);
        let outputs = Mutex::new(Vec::<(VertexId, u32)>::new());
        crossbeam::scope(|scope| {
            for part in frontier.chunks(chunk) {
                let outputs = &outputs;
                let dist = &dist;
                let updates = &updates;
                let checks = &checks;
                scope.spawn(move |_| {
                    let mut local: Vec<(VertexId, u32)> = Vec::new();
                    let mut lu = 0u64;
                    let mut lc = 0u64;
                    for &v in part {
                        let dv = dist[v as usize].load(Ordering::Relaxed);
                        for (u, w) in graph.edges(v) {
                            lc += 1;
                            let nd = dv.saturating_add(w);
                            if nd < dist[u as usize].load(Ordering::Relaxed) {
                                let old = fetch_min(&dist[u as usize], nd);
                                if nd < old {
                                    lu += 1;
                                    local.push((u, nd));
                                }
                            }
                        }
                    }
                    updates.fetch_add(lu, Ordering::Relaxed);
                    checks.fetch_add(lc, Ordering::Relaxed);
                    if !local.is_empty() {
                        outputs.lock().extend(local);
                    }
                });
            }
        })
        .expect("pq-delta scope failed");

        for (v, d) in outputs.into_inner() {
            // Lazy insert: the entry may already be stale; fine.
            if dist[v as usize].load(Ordering::Relaxed) == d {
                heap.push(Reverse((d, v)));
            }
        }
    }

    stats.phase1_layers.push(steps);
    stats.total_updates = updates.load(Ordering::Relaxed);
    stats.checks = checks.load(Ordering::Relaxed);
    let dist = dist.into_iter().map(std::sync::atomic::AtomicU32::into_inner).collect();
    SsspResult { source, dist, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdbs_core::seq::dijkstra;
    use rdbs_graph::builder::build_undirected;
    use rdbs_graph::generate::{erdos_renyi, uniform_weights};

    fn graph(seed: u64) -> Csr {
        let mut el = erdos_renyi(150, 900, seed);
        uniform_weights(&mut el, seed + 6);
        build_undirected(&el)
    }

    #[test]
    fn fetch_min_returns_previous() {
        let a = AtomicU32::new(10);
        assert_eq!(fetch_min(&a, 7), 10);
        assert_eq!(a.load(Ordering::Relaxed), 7);
        assert_eq!(fetch_min(&a, 9), 7);
        assert_eq!(a.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn matches_dijkstra() {
        for seed in 0..3 {
            let g = graph(seed);
            let oracle = dijkstra(&g, 0);
            for threads in [1, 2, 4] {
                let r = pq_delta_stepping(&g, 0, threads, None);
                assert_eq!(r.dist, oracle.dist, "seed {seed} threads {threads}");
            }
        }
    }

    #[test]
    fn batch_of_one_is_dijkstra() {
        let g = graph(5);
        let oracle = dijkstra(&g, 0);
        let r = pq_delta_stepping(&g, 0, 1, Some(1));
        assert_eq!(r.dist, oracle.dist);
        // Batch-1 extraction settles in near-priority order, so work
        // stays close to Dijkstra's.
        assert!(r.stats.total_updates <= oracle.stats.total_updates * 2);
    }

    #[test]
    fn huge_batch_still_correct() {
        let g = graph(6);
        let oracle = dijkstra(&g, 0);
        let r = pq_delta_stepping(&g, 0, 2, Some(1_000_000));
        assert_eq!(r.dist, oracle.dist);
    }
}
