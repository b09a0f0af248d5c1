//! Comparator SSSP implementations the paper evaluates against.
//!
//! * [`adds()`] — an ADDS-style asynchronous Δ-stepping on the simulated
//!   GPU (Wang, Fussell & Lin, PPoPP'21): the paper's state-of-the-art
//!   GPU comparator in Table 2 / Figs. 9–11.
//! * [`pq_delta_stepping`] — a PQ-Δ*-style lazy-batched priority-queue stepping
//!   algorithm on native CPU threads (Dong et al., SPAA'21): the
//!   paper's CPU comparator in Table 2.
//!
//! Both are validated against the Dijkstra oracle in `rdbs-core`, and
//! ADDS runs on the same simulator as RDBS so counter comparisons
//! (Fig. 10) are apples-to-apples.

pub mod adds;
pub mod pq_delta;

pub use adds::{adds, run_adds};
pub use pq_delta::{default_threads, pq_delta_stepping};
