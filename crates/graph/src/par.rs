//! Set-up work split over the host's cores.
//!
//! Graph generation and CSR construction run before any query, and
//! every test, sweep and benchmark set-up pays for them. Their two hot
//! loops, R-MAT sampling and the builder's row sorts, split into
//! contiguous ranges over scoped threads, one per core
//! (`available_parallelism`). Each range writes only its own disjoint
//! slice of one output, so the result is the sequential loop's, bit for
//! bit, whatever the range count.

use std::num::NonZero;
use std::sync::OnceLock;
use std::thread;

/// Work units (keystream words drawn, row pairs sorted) below which a
/// range does not pay for its thread. Measured on a 2-vCPU x86-64 Xeon
/// host. In a loop of one stage (median of 201 runs, totals from 2^10
/// to 2^18 units, forced onto one and onto two ranges), a scoped
/// thread's start and join costs 20-25 µs, an R-MAT word about 5 ns
/// and a pair of the whole build about 20 ns, and two ranges win from
/// 2^15 units in all (R-MAT 221 → 127 µs, build 1,137 → 580 µs). End
/// to end they cost more: perfbench's `road-batch` set-up, whose build
/// sorts about 2^15 pairs in rows of three, took 1.98 ms at the median
/// of 15 interleaved runs with the sorts on two ranges against 1.67 ms
/// on one (the parent 1.63 ms), as the other core's sorted rows travel
/// back through the cache for the dedup pass. The kron graphs'
/// 2^18 pairs and 2^21 words gain. So a range holds at least 2^16
/// units, twice the road build's, and the tests' graphs stay on the
/// calling thread.
pub(crate) const MIN_UNITS_PER_RANGE: usize = 1 << 16;

/// How many ranges to split `units` of work into: one per core, but
/// none smaller than [`MIN_UNITS_PER_RANGE`], and at least one.
pub(crate) fn ranges_for(units: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| thread::available_parallelism().map_or(1, NonZero::get));
    cores.min(units / MIN_UNITS_PER_RANGE).max(1)
}

/// Run `f` on every task: the first on the calling thread, each other
/// on a scoped thread of its own. Returns once all are done.
pub(crate) fn run_each<T: Send>(tasks: impl IntoIterator<Item = T>, f: impl Fn(T) + Sync) {
    let mut tasks = tasks.into_iter().peekable();
    let Some(first) = tasks.next() else { return };
    if tasks.peek().is_none() {
        return f(first);
    }
    let f = &f;
    thread::scope(|s| {
        for task in tasks {
            s.spawn(move || f(task));
        }
        f(first);
    });
}
