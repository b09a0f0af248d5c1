//! Native multithreaded CPU implementations (crossbeam-based).
//!
//! These serve two roles: they are real, wall-clock-measurable SSSP
//! implementations (the `cpu-parallel` and `cpu-async` engines of
//! `rdbs-cli`), and they are the "CPU port" of the paper's ideas — [`async_bucket`] runs phase 1
//! asynchronously over a shared work pool exactly like §4.3's
//! manager/worker scheme, while [`parallel_delta`] is the conventional
//! layer-synchronous Δ-stepping.

pub mod async_bucket;
pub mod parallel_delta;

pub use async_bucket::async_bucket_sssp;
pub use parallel_delta::parallel_delta_stepping;

use std::sync::atomic::{AtomicU32, Ordering};

/// Lock-free `fetch_min` on an atomic distance; returns the previous
/// value (like CUDA's `atomicMin`). Public so the baseline crate's
/// CPU comparators share the exact same primitive.
#[inline]
pub fn fetch_min(cell: &AtomicU32, val: u32) -> u32 {
    let mut cur = cell.load(Ordering::Relaxed);
    while val < cur {
        match cell.compare_exchange_weak(cur, val, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(prev) => return prev,
            Err(next) => cur = next,
        }
    }
    cur
}

/// Default worker count: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
