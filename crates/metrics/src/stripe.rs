//! Thread stripes: which per-thread cell a recording thread writes.
//!
//! A metric that every operation bumps is written by every thread that
//! serves operations. One shared atomic makes each bump a cache-line
//! transfer between cores; [`Counter`](crate::Counter) and
//! [`AtomicHistogram`](crate::AtomicHistogram) instead hold one cell
//! per **stripe** and let a thread write only its own. Readers sum
//! the stripes, so counts stay exact once writers quiesce.
//!
//! A thread claims the lowest free bit of a process-wide ownership mask
//! on its first record and gives the bit back when it exits (the
//! `Drop` of a `thread_local!` guard). Up to [`STRIPES`] live threads
//! therefore never share a stripe. A thread that finds every bit taken
//! shares a stripe round-robin, which stays correct: every stripe cell
//! is an atomic updated by read-modify-writes, so ownership decides
//! only which lines move between cores, never which updates survive.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Cells per striped metric: the number of live threads that can
/// record without sharing a cache line.
pub const STRIPES: usize = 8;

const ALL: u64 = (1 << STRIPES) - 1;

/// Bit `i` set: stripe `i` belongs to a live thread. Relaxed
/// throughout: the mask publishes no data (see the module docs).
static OWNED: AtomicU64 = AtomicU64::new(0);

/// Where threads beyond [`STRIPES`] land, round-robin.
static OVERFLOW: AtomicUsize = AtomicUsize::new(0);

struct Slot {
    index: usize,
    owned: bool,
}

impl Slot {
    fn claim() -> Slot {
        let mut mask = OWNED.load(Ordering::Relaxed);
        loop {
            let free = !mask & ALL;
            if free == 0 {
                let index = OVERFLOW.fetch_add(1, Ordering::Relaxed) % STRIPES;
                return Slot { index, owned: false };
            }
            let bit = free & free.wrapping_neg();
            match OWNED.compare_exchange_weak(
                mask,
                mask | bit,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Slot { index: bit.trailing_zeros() as usize, owned: true },
                Err(now) => mask = now,
            }
        }
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        if self.owned {
            OWNED.fetch_and(!(1 << self.index), Ordering::Relaxed);
        }
    }
}

thread_local! {
    static SLOT: Slot = Slot::claim();
}

/// The calling thread's stripe, claimed on first use. A thread that
/// records while its thread-locals are being torn down writes stripe 0.
#[inline]
pub(crate) fn index() -> usize {
    SLOT.try_with(|s| s.index).unwrap_or(0)
}

/// A value alone on its cache lines. 128 bytes, not 64: x86's spatial
/// prefetcher pulls lines in pairs, so a neighbour on the adjacent line
/// still contends.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct Padded<T>(pub T);

impl<T> std::ops::Deref for Padded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_threads_that_own_a_stripe_own_different_ones() {
        // Four threads alive at once. How many of them own a bit
        // depends on the harness's other test threads, but no two
        // owners may hold the same stripe.
        let barrier = std::sync::Barrier::new(4);
        let slots: Vec<(usize, bool)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let slot = SLOT.with(|slot| (slot.index, slot.owned));
                        barrier.wait();
                        slot
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut owned: Vec<usize> = slots.iter().filter(|s| s.1).map(|s| s.0).collect();
        owned.sort_unstable();
        owned.dedup();
        assert_eq!(owned.len(), slots.iter().filter(|s| s.1).count(), "{slots:?}");
        assert!(slots.iter().all(|s| s.0 < STRIPES));
    }
}
