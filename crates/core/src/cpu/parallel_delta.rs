//! Layer-synchronous parallel Δ-stepping on native threads.
//!
//! The conventional shared-memory implementation (Graph500 reference
//! style): each phase-1 layer splits the current bucket across
//! `threads` crossbeam scoped threads; relaxations use an atomic
//! `fetch_min`; newly activated vertices are collected per-thread and
//! merged. The realistic CPU counterpart to the GPU kernels (`rdbs-cli
//! --algo cpu-parallel`).

use super::fetch_min;
use crate::stats::trace::{self, Phase, TraceShard};
use crate::stats::{SsspResult, UpdateStats};
use crate::{Csr, VertexId, Weight, INF};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Parallel Δ-stepping with `threads` workers.
pub fn parallel_delta_stepping(
    graph: &Csr,
    source: VertexId,
    delta: Weight,
    threads: usize,
) -> SsspResult {
    let n = graph.num_vertices();
    assert!((source as usize) < n, "source out of range");
    assert!(delta >= 1 && threads >= 1);
    let dist: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(INF)).collect();
    dist[source as usize].store(0, Ordering::Relaxed);
    let updates = AtomicU64::new(0);
    let checks = AtomicU64::new(0);

    let bucket_of = |d: u32| (d / delta) as usize;
    let mut buckets: Vec<Vec<VertexId>> = vec![vec![source]];
    let mut stats = UpdateStats::default();

    let mut i = 0usize;
    while i < buckets.len() {
        if buckets[i].is_empty() {
            i += 1;
            continue;
        }
        let mut settled: Vec<VertexId> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut layers = 0u32;
        let mut bucket_active = 0u64;
        // Phase 1: light edges, layer by layer.
        while !buckets[i].is_empty() {
            let layer = std::mem::take(&mut buckets[i]);
            layers += 1;
            let fresh: Vec<VertexId> = layer
                .into_iter()
                .filter(|&v| {
                    let d = dist[v as usize].load(Ordering::Relaxed);
                    d != INF && bucket_of(d) == i
                })
                .collect();
            bucket_active += fresh.len() as u64;
            for &v in &fresh {
                if seen.insert(v) {
                    settled.push(v);
                }
            }
            trace::set_context(i as u64, Phase::Light, layers - 1);
            let outs = relax_parallel(
                graph,
                &dist,
                &fresh,
                threads,
                &updates,
                &checks,
                trace::shard(),
                |w| w < delta,
            );
            for (v, d) in outs {
                let b = bucket_of(d);
                if buckets.len() <= b {
                    buckets.resize_with(b + 1, Vec::new);
                }
                buckets[b].push(v);
            }
        }
        // Phase 2: heavy edges of everything settled.
        trace::set_context(i as u64, Phase::Heavy, 0);
        let outs = relax_parallel(
            graph,
            &dist,
            &settled,
            threads,
            &updates,
            &checks,
            trace::shard(),
            |w| w >= delta,
        );
        for (v, d) in outs {
            let b = bucket_of(d);
            if buckets.len() <= b {
                buckets.resize_with(b + 1, Vec::new);
            }
            buckets[b].push(v);
        }
        stats.phase1_layers.push(layers);
        stats.bucket_active.push(bucket_active);
        i += 1;
    }

    stats.total_updates = updates.load(Ordering::Relaxed);
    stats.checks = checks.load(Ordering::Relaxed);
    let dist = dist.into_iter().map(std::sync::atomic::AtomicU32::into_inner).collect();
    SsspResult { source, dist, stats }
}

/// Relax the selected edges of `frontier` in parallel; returns the
/// `(vertex, new_dist)` pairs that improved. `shard` is the trace
/// handle the host captured for this wave (None when tracing is off).
#[allow(clippy::too_many_arguments)]
fn relax_parallel(
    graph: &Csr,
    dist: &[AtomicU32],
    frontier: &[VertexId],
    threads: usize,
    updates: &AtomicU64,
    checks: &AtomicU64,
    shard: Option<TraceShard>,
    edge_filter: impl Fn(Weight) -> bool + Sync,
) -> Vec<(VertexId, u32)> {
    if frontier.is_empty() {
        return Vec::new();
    }
    let chunk = frontier.len().div_ceil(threads);
    let mut outputs: Vec<Vec<(VertexId, u32)>> = Vec::new();
    crossbeam::scope(|scope| {
        let handles: Vec<_> = frontier
            .chunks(chunk)
            .map(|part| {
                let filter = &edge_filter;
                let shard = &shard;
                scope.spawn(move |_| {
                    let mut out: Vec<(VertexId, u32)> = Vec::new();
                    let mut local_updates = 0u64;
                    let mut local_checks = 0u64;
                    for &v in part {
                        let dv = dist[v as usize].load(Ordering::Relaxed);
                        for (u, w) in graph.edges(v) {
                            if !filter(w) {
                                continue;
                            }
                            local_checks += 1;
                            let nd = dv.saturating_add(w);
                            if nd < dist[u as usize].load(Ordering::Relaxed) {
                                let old = fetch_min(&dist[u as usize], nd);
                                if nd < old {
                                    local_updates += 1;
                                    out.push((u, nd));
                                    if let Some(sh) = shard {
                                        sh.record(v, u, old, nd);
                                    }
                                }
                            }
                        }
                    }
                    updates.fetch_add(local_updates, Ordering::Relaxed);
                    checks.fetch_add(local_checks, Ordering::Relaxed);
                    out
                })
            })
            .collect();
        for h in handles {
            outputs.push(h.join().expect("worker panicked"));
        }
    })
    .expect("crossbeam scope failed");
    outputs.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::dijkstra;
    use rdbs_graph::builder::build_undirected;
    use rdbs_graph::generate::{erdos_renyi, uniform_weights};

    fn graph(seed: u64, n: usize, m: usize) -> Csr {
        let mut el = erdos_renyi(n, m, seed);
        uniform_weights(&mut el, seed + 2);
        build_undirected(&el)
    }

    #[test]
    fn matches_dijkstra_multithreaded() {
        for seed in 0..3 {
            let g = graph(seed, 150, 900);
            let oracle = dijkstra(&g, 0);
            for threads in [1, 2, 4] {
                let r = parallel_delta_stepping(&g, 0, 150, threads);
                assert_eq!(r.dist, oracle.dist, "seed {seed} threads {threads}");
            }
        }
    }

    #[test]
    fn stats_populated() {
        let g = graph(9, 100, 600);
        let r = parallel_delta_stepping(&g, 0, 100, 2);
        assert!(r.stats.total_updates > 0);
        assert!(r.stats.checks >= r.stats.total_updates);
        assert!(!r.stats.phase1_layers.is_empty());
    }

    #[test]
    fn single_vertex_graph() {
        let g = Csr::empty(1);
        let r = parallel_delta_stepping(&g, 0, 10, 2);
        assert_eq!(r.dist, vec![0]);
    }
}
