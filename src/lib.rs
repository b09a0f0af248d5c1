//! # RDBS — bucket-aware asynchronous SSSP on a simulated GPU
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`graph`] — CSR graphs, generators (Kronecker/R-MAT, grids,
//!   power-law), IO and the property-driven reordering preprocessing.
//! * [`sim`] — the SIMT GPU simulator substrate (warps, blocks, caches,
//!   dynamic parallelism, nvprof-style counters, V100/T4 presets).
//! * [`sssp`] — the SSSP algorithms: the paper's RDBS plus the ablations
//!   (BL, BASYN, +PRO, +ADWL), the resident service and the sequential
//!   references.
//! * [`baselines`] — comparators: ADDS (GPU, async Δ-stepping) and PQ-Δ*
//!   (CPU, lazy-batched priority queue).
//! * [`conformance`] — the differential correctness harness: every
//!   implementation vs the Dijkstra oracle, with delta-debugging
//!   witness minimization and first-divergence localization
//!   (`rdbs-cli verify`).
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use rdbs_baselines as baselines;
pub use rdbs_conformance as conformance;
pub use rdbs_core as sssp;
pub use rdbs_gpu_sim as sim;
pub use rdbs_graph as graph;
