//! Thread-local buffer pool backing [`crate::RnsPoly`] storage.
//!
//! Every `RnsPoly` owns one flat `Vec<u64>` (limb-major residues).
//! Acquisition goes through this pool: dropping a poly returns its
//! buffer to the current thread's free list, and the next acquisition
//! reuses it instead of hitting the allocator. After a warm-up
//! iteration, steady-state ciphertext pipelines (`mul` → `relinearize`
//! → `rescale`, rotations, plaintext ops) run with **zero** per-op
//! heap allocations — asserted by `pool_stats` tests.
//!
//! # Contract
//!
//! `acquire` returns a buffer of the requested length with
//! **unspecified contents** — callers must overwrite every word (or
//! use `acquire_zeroed`). In debug builds, recycled buffers are
//! poisoned with a sentinel pattern so any path that forgets this
//! shows up as a deterministic mismatch in the pooled-vs-fresh
//! proptests rather than flaky garbage.
//!
//! The pool is strictly thread-local: no locks, and buffers released
//! on one thread serve later acquisitions on that same thread (worker
//! threads in `BatchRunner` each warm their own pool). At most
//! [`MAX_POOLED`] buffers are retained per thread; excess buffers are
//! simply dropped.
//!
//! The key switch's scratch — raised digits and accumulators, several
//! polys wide — is a size class of its own (`acquire_scratch`, at most
//! [`MAX_SCRATCH`] retained): in the poly list a 2.6 MB digit buffer
//! ends up backing a 0.4 MB poly, the next decomposition allocates
//! another, and resident memory creeps up by capacity nobody reads.

use std::cell::RefCell;

/// Maximum free buffers retained per thread; beyond this, released
/// buffers are dropped. Steady-state pipelines keep well under this.
pub const MAX_POOLED: usize = 32;

/// Maximum free key-switch scratch buffers retained per thread: one
/// decomposition and one accumulator are live at a time, at two sizes
/// when a relinearisation level interleaves with a rotation level.
pub const MAX_SCRATCH: usize = 4;

/// Debug-build poison word written into recycled buffers so code that
/// reads pooled memory before initializing it fails deterministically.
const POISON: u64 = 0xDEAD_BEEF_DEAD_BEEF;

/// Counters describing pool traffic on the current thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers created fresh from the allocator (pool empty or
    /// disabled, or no pooled buffer had enough capacity).
    pub fresh_allocs: u64,
    /// Acquisitions served from the free list without allocating.
    pub reuses: u64,
    /// Buffers returned to the free list on release.
    pub released: u64,
    /// Buffers dropped on release because the free list was full or
    /// the pool was disabled.
    pub dropped: u64,
}

struct PoolInner {
    /// Free poly-sized buffers.
    buffers: Vec<Vec<u64>>,
    /// Free key-switch scratch buffers.
    scratch: Vec<Vec<u64>>,
    stats: PoolStats,
    enabled: bool,
}

impl PoolInner {
    /// Best-fit acquisition from one free list: the smallest buffer
    /// with enough capacity, else a fresh allocation.
    fn acquire(&mut self, scratch: bool, len: usize) -> Vec<u64> {
        if !self.enabled {
            self.stats.fresh_allocs += 1;
            return vec![0u64; len];
        }
        let list = if scratch {
            &mut self.scratch
        } else {
            &mut self.buffers
        };
        let best = (0..list.len())
            .filter(|&i| list[i].capacity() >= len)
            .min_by_key(|&i| list[i].capacity());
        match best {
            Some(i) => {
                let mut b = list.swap_remove(i);
                self.stats.reuses += 1;
                // Capacity suffices, so neither branch reallocates;
                // resize only zero-fills the extension region.
                if b.len() >= len {
                    b.truncate(len);
                } else {
                    b.resize(len, 0);
                }
                b
            }
            None => {
                self.stats.fresh_allocs += 1;
                vec![0u64; len]
            }
        }
    }

    /// Returns `buf` to one free list, or drops it if that list is
    /// full or the pool is disabled.
    fn release(&mut self, scratch: bool, mut buf: Vec<u64>) {
        let (list, cap) = if scratch {
            (&mut self.scratch, MAX_SCRATCH)
        } else {
            (&mut self.buffers, MAX_POOLED)
        };
        if !self.enabled || list.len() >= cap {
            self.stats.dropped += 1;
            return;
        }
        if cfg!(debug_assertions) {
            buf.fill(POISON);
        }
        self.stats.released += 1;
        list.push(buf);
    }
}

thread_local! {
    static POOL: RefCell<PoolInner> = RefCell::new(PoolInner {
        buffers: Vec::new(),
        scratch: Vec::new(),
        stats: PoolStats::default(),
        enabled: true,
    });
}

/// Acquires a buffer of exactly `len` words with unspecified contents.
/// Callers must overwrite every word before reading.
pub(crate) fn acquire(len: usize) -> Vec<u64> {
    POOL.with(|p| p.borrow_mut().acquire(false, len))
}

/// [`acquire`] from the key-switch scratch class; pair with
/// [`release_scratch`].
pub(crate) fn acquire_scratch(len: usize) -> Vec<u64> {
    POOL.with(|p| p.borrow_mut().acquire(true, len))
}

/// Acquires a buffer of `len` words, zero-filled.
pub(crate) fn acquire_zeroed(len: usize) -> Vec<u64> {
    let mut b = acquire(len);
    b.fill(0);
    b
}

/// Returns a buffer to the current thread's free list (or drops it if
/// the list is full or the pool is disabled).
pub(crate) fn release(buf: Vec<u64>) {
    if buf.capacity() != 0 {
        POOL.with(|p| p.borrow_mut().release(false, buf));
    }
}

/// [`release`] into the key-switch scratch class.
pub(crate) fn release_scratch(buf: Vec<u64>) {
    if buf.capacity() != 0 {
        POOL.with(|p| p.borrow_mut().release(true, buf));
    }
}

/// Snapshot of the current thread's pool counters.
pub fn stats() -> PoolStats {
    POOL.with(|p| p.borrow().stats)
}

/// Resets the current thread's pool counters to zero (the free list
/// is left intact).
pub fn reset_stats() {
    POOL.with(|p| p.borrow_mut().stats = PoolStats::default());
}

/// Drops every pooled buffer on the current thread, returning memory
/// to the allocator.
pub fn trim() {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        p.buffers.clear();
        p.scratch.clear();
    });
}

/// Runs `f` with pooling disabled on the current thread: every
/// acquisition allocates fresh zeroed memory and every release drops.
/// Used by tests to pin pooled execution bit-identical to fresh
/// allocation.
pub fn with_pool_disabled<T>(f: impl FnOnce() -> T) -> T {
    struct Guard(bool);
    impl Drop for Guard {
        fn drop(&mut self) {
            POOL.with(|p| p.borrow_mut().enabled = self.0);
        }
    }
    let prev = POOL.with(|p| {
        let mut p = p.borrow_mut();
        let prev = p.enabled;
        p.enabled = false;
        prev
    });
    let _guard = Guard(prev);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_reuses_capacity() {
        trim();
        reset_stats();
        let b = acquire(64);
        assert_eq!(b.len(), 64);
        let ptr = b.as_ptr();
        release(b);
        let b2 = acquire(64);
        assert_eq!(b2.as_ptr(), ptr, "expected buffer reuse");
        let s = stats();
        assert_eq!(s.reuses, 1);
        assert_eq!(s.fresh_allocs, 1);
        release(b2);
    }

    #[test]
    fn acquire_shrinks_and_grows_within_capacity() {
        trim();
        let b = acquire(128);
        release(b);
        let small = acquire(16);
        assert_eq!(small.len(), 16);
        release(small);
        let grown = acquire(100);
        assert_eq!(grown.len(), 100);
        release(grown);
    }

    #[test]
    fn scratch_is_a_size_class_of_its_own() {
        // A poly request never takes a scratch buffer (nor the other
        // way round), so the large buffer is still there for the next
        // large request.
        trim();
        reset_stats();
        let large = acquire_scratch(1024);
        let ptr = large.as_ptr();
        release_scratch(large);
        let poly = acquire(64);
        assert_ne!(poly.as_ptr(), ptr);
        release(poly);
        let smaller = acquire_scratch(512);
        assert_eq!(smaller.as_ptr(), ptr, "scratch reused across levels");
        release_scratch(smaller);
        assert_eq!(stats().fresh_allocs, 2);
        assert_eq!(stats().reuses, 1);
        // Bounded like the poly list.
        let bufs: Vec<_> = (0..MAX_SCRATCH + 1).map(|_| acquire_scratch(8)).collect();
        bufs.into_iter().for_each(release_scratch);
        assert_eq!(stats().dropped, 1);
        trim();
    }

    #[test]
    fn disabled_pool_always_allocates_zeroed() {
        trim();
        with_pool_disabled(|| {
            reset_stats();
            let b = acquire(32);
            assert!(b.iter().all(|&x| x == 0));
            release(b);
            let b2 = acquire(32);
            assert!(b2.iter().all(|&x| x == 0));
            assert_eq!(stats().fresh_allocs, 2);
            assert_eq!(stats().reuses, 0);
        });
    }

    #[test]
    fn zeroed_acquire_is_zeroed_even_after_reuse() {
        trim();
        let mut b = acquire(32);
        b.fill(7);
        release(b);
        let z = acquire_zeroed(32);
        assert!(z.iter().all(|&x| x == 0));
        release(z);
    }

    #[test]
    fn free_list_is_bounded() {
        trim();
        reset_stats();
        let bufs: Vec<_> = (0..MAX_POOLED + 4).map(|_| acquire(8)).collect();
        for b in bufs {
            release(b);
        }
        assert_eq!(stats().dropped, 4);
        assert_eq!(stats().released, MAX_POOLED as u64);
        trim();
    }
}
