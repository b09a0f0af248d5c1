//! Sequential reference implementations.
//!
//! * [`dijkstra()`] — the work-optimal oracle every other implementation
//!   is validated against (§2.1);
//! * [`bellman_ford()`] — round-synchronous push relaxation (§2.1), the
//!   conceptual model of the paper's BL baseline;
//! * [`delta_stepping()`] — the classic three-phase Δ-stepping of §2.2,
//!   fully instrumented to regenerate the paper's motivation figures
//!   (bucket occupancy — Fig. 2; phase-1 layers and valid/total
//!   updates — Fig. 3), over a bounded bucket wheel (`wheel`).

pub mod bellman_ford;
pub mod delta_stepping;
pub mod dijkstra;
pub(crate) mod wheel;

pub use bellman_ford::bellman_ford;
pub use delta_stepping::{delta_stepping, delta_stepping_traced, BucketTrace, DeltaSteppingRun};
pub use dijkstra::dijkstra;
