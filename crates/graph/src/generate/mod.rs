//! Seeded, reproducible graph generators.
//!
//! Every generator takes an explicit `seed` and uses `ChaCha8Rng`, so
//! the same call yields the same graph on any platform — the whole
//! experiment harness is bit-reproducible.

pub mod erdos_renyi;
pub mod grid;
pub mod kronecker;
pub mod powerlaw;
pub mod rmat;
pub mod weights;

pub use erdos_renyi::erdos_renyi;
pub use grid::{grid_road, GridConfig};
pub use kronecker::{kronecker, KroneckerConfig};
pub use powerlaw::preferential_attachment;
pub use rmat::{rmat, RmatConfig};
pub use weights::{
    assign_distributed_weights, assign_uniform_weights, uniform_weights, WeightDistribution,
};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The workspace-standard seeded RNG.
pub(crate) fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}
