//! # RDBS SSSP algorithms
//!
//! The paper's contribution (§4): a Δ-stepping SSSP for GPU combining
//!
//! * **PRO** — property-driven reordering (preprocessing, lives in
//!   `rdbs-graph::reorder`; toggled via [`gpu::RdbsConfig`]),
//! * **ADWL** — adaptive load balancing (small/medium/large workload
//!   lists, Warp/Block gangs, dynamic parallelism — [`workload`]),
//! * **BASYN** — bucket-aware asynchronous execution with the adaptive
//!   bucket width of Eq. 1–2 ([`adaptive_delta`]).
//!
//! [`gpu::rdbs`] implements the full algorithm and every ablation the
//! paper evaluates in Fig. 8; [`gpu::bl()`](fn@gpu::bl) is the paper's synchronous
//! push-mode baseline. [`service`] keeps one graph resident and answers
//! many sources with RDBS. [`seq`] holds the sequential references
//! (Dijkstra is the correctness oracle for everything else), [`stats`]
//! the valid/total update accounting of §3.3/Fig. 9 and the
//! localizer's relaxation trace, and [`validate`] the oracle comparison
//! helpers. The comparators of Table 2 (ADDS, PQ-Δ*) live in
//! `rdbs-baselines`.

pub mod adaptive_delta;
pub mod gpu;
pub mod recover;
pub mod seq;
pub mod service;
pub mod stats;
pub mod validate;
pub mod workload;

pub use rdbs_graph::{Csr, Dist, VertexId, Weight, INF};
pub use stats::{SsspResult, UpdateStats};

/// Saturating tentative distance `du + w`.
///
/// Distances saturate at [`INF`]: a sum that would overflow (or pass
/// through an unreachable `du == INF`) clamps to `INF`, which every
/// relaxation rejects (`INF < dist[v]` is never true), so overflowing
/// paths degrade to "unreachable" instead of wrapping around and
/// corrupting finite distances. All sequential kernels relax through
/// this helper; the GPU kernels apply the same `saturating_add`.
#[inline(always)]
pub fn saturating_relax(du: Dist, w: Weight) -> Dist {
    du.saturating_add(w)
}

/// Pick the default bucket width Δ₀ for a graph.
///
/// Dense/skewed graphs use the paper's empirical `Δ = 0.1` of §3.2
/// scaled to the weight range (the Graph500 reference draws weights in
/// `[0, 1)`; ours are `1..=1000`). Sparse high-diameter graphs (road
/// networks, average degree < 4) get a much wider Δ₀: with almost no
/// alternative routes, a wide bucket costs little extra work but
/// avoids thousands of near-empty buckets — the standard per-graph Δ
/// tuning every Δ-stepping implementation performs, and consistent
/// with the paper's own road-TX numbers (work ratio 6.83, its highest,
/// yet runtime comparable to ADDS).
pub fn default_delta(graph: &Csr) -> Weight {
    let n = graph.num_vertices().max(1);
    let avg_degree = graph.num_edges() as f64 / n as f64;
    let maxw = graph.max_weight().max(1);
    if avg_degree < 4.0 {
        maxw.saturating_mul(4)
    } else if avg_degree < 9.0 {
        (maxw / 2).max(1)
    } else {
        (maxw / 10).max(1)
    }
}
