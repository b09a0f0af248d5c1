//! Distance-vector answer cache for the traffic tier.
//!
//! The cache stores full distance vectors keyed by `(generation,
//! source)`: a graph swap ([`crate::service::SsspService::load_graph`])
//! bumps the generation and invalidates everything, so a cached answer
//! can never silently outlive the graph it was computed on. Exact hits
//! return the stored vector unchanged — bit-identical to the device
//! answer that produced it, because every backend is deterministic.
//!
//! The first few distinct answered sources are additionally pinned as
//! **landmarks**. For a source `s` with no exact entry, the triangle
//! inequality gives a per-vertex *upper bound*
//! `dist(s, v) ≤ dist(l, s) + dist(l, v)` from any landmark `l` —
//! valid when the graph is symmetric (every service entry point built
//! with `build_undirected` qualifies), which is why the traffic tier
//! only serves bounds behind an explicit opt-in
//! ([`crate::service::traffic::TrafficConfig::approx_on_shed`]) and
//! always flags them approximate, never as exact answers.
//!
//! Lookups are stamped with the device's *absolute* simulated clock
//! (which is monotonic across serve calls): an entry is visible only
//! at or after the moment its producing query completed, so a cache
//! hit can never use an answer "from the future" of the open-loop
//! timeline, while answers from earlier serve calls stay visible.

use crate::{Dist, VertexId, INF};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Sizing knobs for [`AnswerCache`].
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Maximum number of cached distance vectors (FIFO eviction).
    pub capacity: usize,
    /// Maximum number of landmark vectors pinned for triangle-bound
    /// service (landmarks survive entry eviction).
    pub landmarks: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self { capacity: 64, landmarks: 4 }
    }
}

/// One cached answer: the distance vector and the absolute simulated
/// wall time (ms) it became available at.
struct Entry {
    dist: Arc<Vec<Dist>>,
    available_ms: f64,
}

/// A `(generation, source)`-keyed distance-vector cache with landmark
/// upper bounds — see the module docs.
pub struct AnswerCache {
    config: CacheConfig,
    generation: u64,
    entries: HashMap<VertexId, Entry>,
    /// Insertion order of non-landmark entries, for FIFO eviction.
    order: VecDeque<VertexId>,
    /// Pinned landmark answers: `(source, available_ms, dist)`.
    landmarks: Vec<(VertexId, f64, Arc<Vec<Dist>>)>,
}

impl AnswerCache {
    pub fn new(config: CacheConfig) -> Self {
        Self {
            config,
            generation: 0,
            entries: HashMap::new(),
            order: VecDeque::new(),
            landmarks: Vec::new(),
        }
    }

    /// Adopt `generation`, dropping every entry and landmark when it
    /// differs from the current one — the stale answers of the old
    /// graph must never be served.
    pub fn set_generation(&mut self, generation: u64) {
        if generation != self.generation {
            self.entries.clear();
            self.order.clear();
            self.landmarks.clear();
            self.generation = generation;
        }
    }

    /// Exact lookup at simulated wall time `now_ms`: the stored vector
    /// for `(generation, source)`, if its producing query completed by
    /// `now_ms`.
    pub fn lookup(&self, generation: u64, source: VertexId, now_ms: f64) -> Option<Arc<Vec<Dist>>> {
        if generation != self.generation {
            return None;
        }
        self.entries.get(&source).filter(|e| e.available_ms <= now_ms).map(|e| Arc::clone(&e.dist))
    }

    /// Landmark triangle-inequality upper bound for `source` at wall
    /// time `now_ms`: `ub[v] = min over landmarks l of
    /// dist(l, source) + dist(l, v)` (saturating at [`INF`]), with
    /// `ub[source] = 0`. `None` unless some already-available landmark
    /// reaches `source` — an all-[`INF`] bound claims nothing.
    pub fn upper_bound(&self, generation: u64, source: VertexId, now_ms: f64) -> Option<Vec<Dist>> {
        if generation != self.generation {
            return None;
        }
        let mut best: Option<Vec<Dist>> = None;
        for (_, available_ms, dist) in &self.landmarks {
            if *available_ms > now_ms {
                continue;
            }
            let to_source = dist[source as usize];
            if to_source == INF {
                continue;
            }
            let ub = best.get_or_insert_with(|| vec![INF; dist.len()]);
            for (u, &d) in ub.iter_mut().zip(dist.iter()) {
                *u = (*u).min(to_source.saturating_add(d));
            }
        }
        let mut ub = best?;
        ub[source as usize] = 0;
        Some(ub)
    }

    /// Insert an exact answer that completed at wall time `now_ms`.
    /// First answer for a source wins (re-computations are
    /// bit-identical anyway); the first
    /// [`CacheConfig::landmarks`] distinct sources are pinned as
    /// landmarks; past [`CacheConfig::capacity`] the oldest
    /// non-landmark entry is evicted.
    pub fn insert(&mut self, generation: u64, source: VertexId, dist: Arc<Vec<Dist>>, now_ms: f64) {
        if generation != self.generation {
            return;
        }
        if self.entries.contains_key(&source) {
            return;
        }
        if self.landmarks.len() < self.config.landmarks {
            self.landmarks.push((source, now_ms, Arc::clone(&dist)));
        } else {
            self.order.push_back(source);
        }
        self.entries.insert(source, Entry { dist, available_ms: now_ms });
        while self.entries.len() > self.config.capacity {
            let Some(old) = self.order.pop_front() else { break };
            self.entries.remove(&old);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(d: &[Dist]) -> Arc<Vec<Dist>> {
        Arc::new(d.to_vec())
    }

    #[test]
    fn generation_swap_invalidates_everything() {
        let mut c = AnswerCache::new(CacheConfig::default());
        c.insert(0, 3, v(&[5, 0, 7]), 1.0);
        assert_eq!(c.lookup(0, 3, 2.0).as_deref(), Some(&vec![5, 0, 7]));
        c.set_generation(1);
        assert!(c.lookup(1, 3, 2.0).is_none(), "new generation starts cold");
        assert!(c.upper_bound(1, 0, 2.0).is_none(), "landmarks drop with the generation");
        // A stale-generation insert is refused outright.
        c.insert(0, 3, v(&[5, 0, 7]), 1.0);
        assert!(c.lookup(1, 3, 2.0).is_none());
    }

    #[test]
    fn entries_are_invisible_before_their_completion_time() {
        let mut c = AnswerCache::new(CacheConfig::default());
        assert!(c.lookup(0, 1, 0.0).is_none(), "cold cache misses");
        c.insert(0, 1, v(&[0, 1]), 10.0);
        assert!(c.lookup(0, 1, 5.0).is_none(), "the producing query has not completed yet");
        assert!(c.lookup(0, 1, 10.0).is_some());
    }

    #[test]
    fn upper_bound_is_triangle_inequality_over_landmarks() {
        let mut c = AnswerCache::new(CacheConfig { capacity: 8, landmarks: 2 });
        // Landmark 0: dist = [0, 2, 9, INF]; landmark 1: [2, 0, 3, INF].
        c.insert(0, 0, v(&[0, 2, 9, INF]), 0.0);
        c.insert(0, 1, v(&[2, 0, 3, INF]), 0.0);
        let ub = c.upper_bound(0, 2, 0.0).expect("both landmarks reach source 2");
        // Via l0: 9 + [0,2,9,INF]; via l1: 3 + [2,0,3,INF]; min, and
        // ub[source] clamps to 0.
        assert_eq!(ub, vec![5, 3, 0, INF]);
        // A source no landmark reaches gets no bound.
        assert!(c.upper_bound(0, 3, 0.0).is_none());
    }

    #[test]
    fn fifo_eviction_spares_landmarks() {
        let mut c = AnswerCache::new(CacheConfig { capacity: 2, landmarks: 1 });
        c.insert(0, 0, v(&[0]), 0.0); // landmark, pinned
        c.insert(0, 1, v(&[1]), 0.0);
        c.insert(0, 2, v(&[2]), 0.0); // over capacity: evicts source 1
        assert!(c.lookup(0, 0, 0.0).is_some(), "landmark survives");
        assert!(c.lookup(0, 1, 0.0).is_none(), "oldest non-landmark evicted");
        assert!(c.lookup(0, 2, 0.0).is_some());
    }
}
