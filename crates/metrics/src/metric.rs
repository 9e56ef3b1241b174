//! The lock-free scalar metric: [`Counter`].

use std::sync::atomic::{AtomicU64, Ordering};

use crate::stripe::{self, Padded, STRIPES};

/// A monotonically increasing event counter, striped by thread: a bump
/// is one relaxed `fetch_add` on a cache line only the calling thread
/// writes (see [`STRIPES`]), and [`Counter::value`] sums the stripes.
/// The sum is exact once writers quiesce; read while they run, it is
/// some interleaving of their bumps.
///
/// # Examples
///
/// ```
/// use blobseer_metrics::Counter;
///
/// let c = Counter::new();
/// c.increment();
/// c.add(2);
/// assert_eq!(c.value(), 3);
/// ```
#[derive(Default)]
pub struct Counter {
    cells: [Padded<AtomicU64>; STRIPES],
}

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Counter {
        Counter { cells: [const { Padded(AtomicU64::new(0)) }; STRIPES] }
    }

    /// Add one.
    #[inline]
    pub fn increment(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cells[stripe::index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Current reading: the sum over every stripe.
    pub fn value(&self) -> u64 {
        self.cells.iter().fold(0, |sum, c| sum.wrapping_add(c.load(Ordering::Relaxed)))
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Counter").field("value", &self.value()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_counts_across_threads() {
        let c = Arc::new(Counter::new());
        std::thread::scope(|s| {
            for _ in 0..STRIPES + 4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.increment();
                    }
                });
            }
        });
        assert_eq!(c.value(), (STRIPES as u64 + 4) * 10_000);
    }
}
