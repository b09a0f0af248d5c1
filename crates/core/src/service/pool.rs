//! Size-class buffer pool over the device arena's free lists.
//!
//! The pool never copies or zeroes: a released buffer keeps its words
//! until the next owner resets them, which is exactly what the
//! resident service wants — `reset` is an explicit, accounted step,
//! and the poisoned-fill tests in [`crate::service`] rely on stale
//! contents being observable when a reset is skipped.

use rdbs_gpu_sim::{Buf, Device};

/// Round a requested length up to its power-of-two size class.
///
/// Free lists are keyed by exact buffer length ([`rdbs_gpu_sim`]'s
/// arena), so requests of nearby sizes — distance vectors of two graph
/// generations, say — must be rounded to a common class to actually
/// recycle each other's memory.
pub fn size_class(len: usize) -> usize {
    len.max(1).next_power_of_two()
}

/// Recycling allocator for per-query device buffers.
///
/// [`BufferPool::acquire`] first tries the device's free lists (at
/// size-class granularity) and only falls back to a fresh allocation
/// on a miss; [`BufferPool::release`] returns a buffer to the lists.
/// The pool is pure bookkeeping — buffers live in the device arena —
/// so one pool instance serves any number of graph generations.
#[derive(Debug, Default)]
pub struct BufferPool {
    allocs: u64,
    reuses: u64,
    words_recycled: u64,
}

impl BufferPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquire at least `len` words, recycling a free buffer of the
    /// same size class when one exists. Contents are whatever the
    /// previous owner left — callers must reset what they read.
    pub fn acquire(&mut self, device: &mut Device, label: &'static str, len: usize) -> Buf {
        let class = size_class(len);
        let (buf, reused) = device.alloc_pooled(label, class);
        if reused {
            self.reuses += 1;
            self.words_recycled += class as u64;
        } else {
            self.allocs += 1;
        }
        buf
    }

    /// Return `buf` to the free lists for a later
    /// [`BufferPool::acquire`] of the same length.
    pub fn release(&self, device: &mut Device, buf: Buf) {
        device.release(buf);
    }

    /// Fresh allocations performed (free-list misses).
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// Acquisitions served from the free lists.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// 32-bit words recycled instead of freshly allocated.
    pub fn words_recycled(&self) -> u64 {
        self.words_recycled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdbs_gpu_sim::DeviceConfig;

    #[test]
    fn size_classes_are_powers_of_two() {
        assert_eq!(size_class(0), 1);
        assert_eq!(size_class(1), 1);
        assert_eq!(size_class(3), 4);
        assert_eq!(size_class(4), 4);
        assert_eq!(size_class(1000), 1024);
    }

    #[test]
    fn release_then_acquire_recycles_across_classes() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let mut pool = BufferPool::new();
        let a = pool.acquire(&mut d, "a", 100); // class 128
        assert_eq!((pool.allocs(), pool.reuses()), (1, 0));
        pool.release(&mut d, a);
        // A different length in the same class reuses the buffer.
        let b = pool.acquire(&mut d, "b", 70);
        assert_eq!((pool.allocs(), pool.reuses()), (1, 1));
        assert_eq!(pool.words_recycled(), 128);
        // A different class misses.
        let c = pool.acquire(&mut d, "c", 300);
        assert_eq!((pool.allocs(), pool.reuses()), (2, 1));
        assert_eq!(d.counters().buffer_reuses, 1);
        pool.release(&mut d, b);
        pool.release(&mut d, c);
    }

    #[test]
    fn recycled_contents_persist_until_reset() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let mut pool = BufferPool::new();
        let a = pool.acquire(&mut d, "a", 8);
        d.fill(a, 0xDEAD_BEEF);
        pool.release(&mut d, a);
        let b = pool.acquire(&mut d, "b", 8);
        assert_eq!(d.read(b), &[0xDEAD_BEEF; 8]);
    }
}
