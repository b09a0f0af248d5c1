//! Work-efficiency accounting (paper §3.3, Fig. 3, Fig. 9).
//!
//! * a **check** is a relaxation attempt (Alg. 1 line 2);
//! * an **update** is a successful improvement (the `atomicMin`
//!   actually lowered `dist[v]`);
//! * an update is **valid** if it wrote the vertex's *final* shortest
//!   distance. Because improvements strictly decrease the distance,
//!   exactly one update per reached vertex is valid — the last one —
//!   so `valid_updates == reached vertices - 1` (the source is never
//!   updated). The paper's Fig. 9 metric is `total / valid`.

use crate::{Dist, VertexId, INF};

/// Counters accumulated during one SSSP run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Relaxation attempts (checks).
    pub checks: u64,
    /// Successful improvements.
    pub total_updates: u64,
    /// Phase-1 scheduling layers/waves per bucket, in bucket order
    /// (Fig. 3's iteration counts).
    pub phase1_layers: Vec<u32>,
    /// Active vertices handled per bucket (Fig. 2's occupancy).
    pub bucket_active: Vec<u64>,
    /// Per-layer active-vertex counts for the bucket with peak
    /// occupancy (Fig. 3's series).
    pub peak_bucket_layer_active: Vec<u64>,
}

impl UpdateStats {
    /// Valid updates given the final distances: reached vertices
    /// excluding the source.
    pub fn valid_updates(dist: &[Dist]) -> u64 {
        dist.iter().filter(|&&d| d != INF).count().saturating_sub(1) as u64
    }

    /// Fig. 9's work-efficiency ratio (`total updates / valid
    /// updates`); `None` if nothing was reached.
    pub fn work_ratio(&self, dist: &[Dist]) -> Option<f64> {
        let valid = Self::valid_updates(dist);
        if valid == 0 {
            None
        } else {
            Some(self.total_updates as f64 / valid as f64)
        }
    }

    /// Number of buckets processed.
    pub fn buckets(&self) -> usize {
        self.bucket_active.len()
    }
}

/// The outcome of one SSSP run.
#[derive(Clone, Debug)]
pub struct SsspResult {
    /// Source vertex the search started from.
    pub source: VertexId,
    /// Final distances, indexed by vertex id **in the caller's
    /// labelling** (implementations that reorder internally map back).
    pub dist: Vec<Dist>,
    /// Work-efficiency counters.
    pub stats: UpdateStats,
}

impl SsspResult {
    /// Vertices with a finite distance.
    pub fn reached(&self) -> usize {
        self.dist.iter().filter(|&&d| d != INF).count()
    }

    /// Fig. 9 ratio for this run.
    pub fn work_ratio(&self) -> Option<f64> {
        self.stats.work_ratio(&self.dist)
    }
}

/// Amortization accounting for a resident SSSP service
/// ([`crate::service`]): what the batch saved relative to one-shot
/// clients that re-upload and re-allocate per query.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BatchStats {
    /// Queries answered since service construction.
    pub queries: u64,
    /// Host→device uploads actually performed (once per graph
    /// generation; constant across queries).
    pub graph_uploads: u64,
    /// Uploads a one-shot client would have performed on top of ours
    /// (uploads-per-graph × follow-up queries on a resident graph).
    pub uploads_avoided: u64,
    /// Bytes served from the buffer pool's free lists instead of
    /// freshly allocated.
    pub bytes_recycled: u64,
    /// Fresh pool allocations.
    pub pool_allocs: u64,
    /// Pool acquisitions recycled from the free lists.
    pub pool_reuses: u64,
    /// Per-query host wall-clock times, milliseconds, in query order.
    pub per_query_ms: Vec<f64>,
    /// Queries answered by the recovery ladder's host rung: Dijkstra
    /// after a queue overflow past the escalation ceiling, or after a
    /// failed audit that neither the repair sweep nor a device rerun
    /// could fix ([`crate::recover`]).
    pub fallbacks: u64,
    /// Queries whose device answer failed its audit and was fixed by
    /// the ladder's repair sweep.
    pub repairs: u64,
    /// Queries certified by the ladder's device rerun on their own
    /// lane.
    pub reruns: u64,
    /// Device answers that failed their audit, whichever rung then
    /// certified them. With no fault armed every one is a protocol bug.
    pub audit_failures: u64,
    /// Queue overflows recovered **on the device** by re-acquiring the
    /// query's queue set one size class larger and replaying — each
    /// size-class step counts once. Only overflows past the escalation
    /// ceiling reach [`BatchStats::fallbacks`].
    pub escalations: u64,
    /// Peak number of queries simultaneously in flight across the
    /// device's command streams (1 for purely sequential batches, 0
    /// before any query).
    pub inflight_peak: u64,
    /// Per-query *simulated device service* latencies, milliseconds,
    /// in completion order: dispatch → completion on the query's
    /// stream. Covers device-answered queries (host fallbacks
    /// contribute nothing); includes escalation replays. When
    /// [`BatchStats::fallbacks`] > 0, `per_query_sim_ms.len()` is
    /// *smaller* than [`BatchStats::queries`] — the slowest queries
    /// are exactly the missing ones, so tail claims must use
    /// [`BatchStats::per_query_sojourn_ms`], which covers every query.
    pub per_query_sim_ms: Vec<f64>,
    /// Per-query *sojourn* latencies on the shared simulated wall
    /// timeline, milliseconds, in completion order: batch start (the
    /// query's arrival, for closed-loop batches) → completion,
    /// including time spent queued behind other queries. Unlike
    /// [`BatchStats::per_query_sim_ms`] this series also records
    /// queries answered by the host rung (their sojourn ends where the
    /// device attempt did; the host recompute runs off the simulated
    /// timeline), so `per_query_sojourn_ms.len() == queries`.
    pub per_query_sojourn_ms: Vec<f64>,
    /// Queries refused by the traffic tier's admission control with a
    /// typed rejection ([`crate::service::traffic`]) — never counted
    /// in [`BatchStats::queries`], never answered.
    pub shed: u64,
    /// Traffic-tier queries answered bit-identically from the
    /// `(generation, source)` answer cache without touching the device.
    pub cache_exact_hits: u64,
    /// Traffic-tier queries answered with a landmark triangle-inequality
    /// *upper bound*, explicitly flagged approximate.
    pub cache_approx_hits: u64,
    /// Simulated device time batches occupied, milliseconds,
    /// accumulated across [`crate::service::SsspService::batch`]
    /// calls. For a concurrent batch this is the stream *makespan* —
    /// the throughput number to compare against a sequential batch's
    /// sum.
    pub sim_batch_ms: f64,
}

impl BatchStats {
    /// Mean per-query wall time, ms; `None` before the first query.
    pub fn mean_query_ms(&self) -> Option<f64> {
        if self.per_query_ms.is_empty() {
            None
        } else {
            Some(self.per_query_ms.iter().sum::<f64>() / self.per_query_ms.len() as f64)
        }
    }

    /// Nearest-rank percentile (`p` in 0..=100) of the simulated
    /// per-query *service* latencies, ms; `None` before the first
    /// device-answered query. Host-fallback queries are absent from
    /// this series — see [`BatchStats::per_query_sim_ms`] — so tail
    /// percentiles here understate a batch containing fallbacks; use
    /// [`BatchStats::sojourn_percentile_ms`] for an honest tail.
    pub fn sim_latency_percentile_ms(&self, p: f64) -> Option<f64> {
        percentile(&self.per_query_sim_ms, p)
    }

    /// Nearest-rank percentile (`p` in 0..=100) of the per-query
    /// *sojourn* latencies, ms; `None` before the first query on a
    /// simulated-clock backend. Covers every query, including
    /// host-fallback recoveries.
    pub fn sojourn_percentile_ms(&self, p: f64) -> Option<f64> {
        percentile(&self.per_query_sojourn_ms, p)
    }
}

/// Nearest-rank percentile of an unsorted sample, `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Relaxation tracing for the conformance localizer.
///
/// A thread-local event buffer that instrumented kernels
/// ([`crate::seq::delta_stepping`] and the simulated-GPU
/// [`crate::gpu::rdbs()`](fn@crate::gpu::rdbs)) record successful
/// relaxations into. Disabled (zero-cost beyond one thread-local flag
/// check) unless [`trace::start`] was called on the current thread, so
/// production runs never pay for it. Every instrumented kernel records
/// on the thread that armed the buffer, bucket by bucket and layer by
/// layer, so the events come back in (bucket, phase, layer) order as
/// recorded. The conformance crate's first-divergence localizer
/// replays a failing implementation with the buffer armed and reports
/// the first bucket/phase/edge whose settled distance departs from the
/// Dijkstra oracle.
pub mod trace {
    use crate::{Dist, VertexId};
    use std::cell::{Cell, RefCell};

    /// Which relaxation site recorded the event.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Phase {
        /// Phase-1 light-edge relaxation.
        Light,
        /// Phase-2 heavy-edge relaxation.
        Heavy,
    }

    impl std::fmt::Display for Phase {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                Phase::Light => write!(f, "phase 1 (light)"),
                Phase::Heavy => write!(f, "phase 2 (heavy)"),
            }
        }
    }

    /// One successful relaxation (`dist[dst]` lowered to `new`).
    #[derive(Clone, Debug)]
    pub struct RelaxEvent {
        /// Low edge of the active bucket's distance window (the
        /// sequential kernel stores the bucket index here).
        pub bucket: u64,
        /// Relaxation site.
        pub phase: Phase,
        /// Phase-1 layer (0 during phase 2).
        pub layer: u32,
        /// Edge tail.
        pub src: VertexId,
        /// Edge head — the improved vertex.
        pub dst: VertexId,
        /// Distance before the write.
        pub old: Dist,
        /// Distance written.
        pub new: Dist,
    }

    /// The armed thread's buffer and the context its events carry.
    struct Sink {
        bucket: u64,
        phase: Phase,
        layer: u32,
        events: Vec<RelaxEvent>,
        cap: usize,
        dropped: u64,
    }

    thread_local! {
        static ARMED: Cell<bool> = const { Cell::new(false) };
        static SINK: RefCell<Option<Sink>> = const { RefCell::new(None) };
    }

    /// Run `f` on this thread's buffer when it is armed.
    fn with_sink(f: impl FnOnce(&mut Sink)) {
        if armed() {
            SINK.with(|s| {
                if let Some(sink) = s.borrow_mut().as_mut() {
                    f(sink);
                }
            });
        }
    }

    /// Arm the buffer on this thread, keeping at most `cap` events.
    pub fn start(cap: usize) {
        let sink =
            Sink { bucket: 0, phase: Phase::Light, layer: 0, events: Vec::new(), cap, dropped: 0 };
        SINK.with(|s| *s.borrow_mut() = Some(sink));
        ARMED.with(|a| a.set(true));
    }

    /// Is the buffer armed on this thread? Kernels use this as the
    /// fast-path guard before assembling an event.
    #[inline(always)]
    pub fn armed() -> bool {
        ARMED.with(std::cell::Cell::get)
    }

    /// Label subsequent events with the current bucket/phase/layer
    /// (host-side code calls this once per wave, not per edge).
    pub fn set_context(bucket: u64, phase: Phase, layer: u32) {
        with_sink(|sink| (sink.bucket, sink.phase, sink.layer) = (bucket, phase, layer));
    }

    /// Record one successful relaxation under the current context;
    /// past the cap it is counted, not stored.
    pub fn record(src: VertexId, dst: VertexId, old: Dist, new: Dist) {
        with_sink(|sink| {
            if sink.events.len() >= sink.cap {
                sink.dropped += 1;
            } else {
                let (bucket, phase, layer) = (sink.bucket, sink.phase, sink.layer);
                sink.events.push(RelaxEvent { bucket, phase, layer, src, dst, old, new });
            }
        });
    }

    /// Rewrite the `src`/`dst` ids of every buffered event (used by
    /// runners that execute on a relabelled graph to map events back
    /// to the caller's vertex ids before the buffer is drained).
    pub fn remap_ids(f: impl Fn(VertexId) -> VertexId) {
        with_sink(|sink| {
            for ev in &mut sink.events {
                ev.src = f(ev.src);
                ev.dst = f(ev.dst);
            }
        });
    }

    /// Disarm and return the recorded events, in recording order, plus
    /// the overflow count.
    pub fn take() -> (Vec<RelaxEvent>, u64) {
        ARMED.with(|a| a.set(false));
        SINK.with(|s| s.borrow_mut().take().map(|sink| (sink.events, sink.dropped)))
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_sink_records_in_context() {
        trace::start(2);
        assert!(trace::armed());
        trace::set_context(3, trace::Phase::Heavy, 0);
        trace::record(1, 2, INF, 10);
        trace::record(2, 4, 20, 15);
        trace::record(4, 5, 30, 25); // over cap → dropped
        let (events, dropped) = trace::take();
        assert!(!trace::armed());
        assert_eq!(events.len(), 2);
        assert_eq!(dropped, 1);
        assert_eq!(events[0].bucket, 3);
        assert_eq!(events[0].phase, trace::Phase::Heavy);
        assert_eq!(events[1].new, 15);
        // Disarmed: records are no-ops.
        trace::record(0, 1, 2, 1);
        assert_eq!(trace::take().0.len(), 0);
    }

    #[test]
    fn valid_updates_excludes_source_and_unreached() {
        let dist = vec![0, 5, INF, 7];
        assert_eq!(UpdateStats::valid_updates(&dist), 2);
    }

    #[test]
    fn work_ratio() {
        let stats = UpdateStats { total_updates: 6, ..Default::default() };
        let dist = vec![0, 1, 2, INF];
        assert_eq!(stats.work_ratio(&dist), Some(3.0));
        let lonely = vec![0, INF];
        assert_eq!(stats.work_ratio(&lonely), None);
    }

    #[test]
    fn reached_counts_source() {
        let r = SsspResult { source: 0, dist: vec![0, 3, INF], stats: UpdateStats::default() };
        assert_eq!(r.reached(), 2);
    }
}
