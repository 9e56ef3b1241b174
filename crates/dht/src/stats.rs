//! Per-bucket access statistics.
//!
//! The paper's Figure 2(b) shows read throughput degrading mildly under
//! reader concurrency; part of that cost is contention on metadata
//! providers that hold "hot" tree nodes (every reader traverses the same
//! root). These counters let tests and benches observe that skew on the
//! real engine — without adding contention of their own: each is a
//! [`Counter`] striped by thread, so a `get` bumps a cache line only its
//! own thread writes, never the line of a reader on another core.

use blobseer_metrics::Counter;

/// Per-bucket counters. A [`Counter`]'s stripes sit on cache lines of
/// their own, so the constant counter traffic from hot `get`s never
/// dirties the line holding the bucket's lock state (and vice versa).
#[derive(Default)]
pub(crate) struct BucketCounters {
    pub gets: Counter,
    pub puts: Counter,
    pub waits: Counter,
    /// Slab slots filled and tombstoned: a slab store's entries are the
    /// difference.
    pub filled: Counter,
    pub swept: Counter,
}

impl BucketCounters {
    /// Slab slots live: filled and not yet tombstoned.
    pub(crate) fn live_slots(&self) -> usize {
        // Sweeps first: every swept slot was filled before it was swept.
        let swept = self.swept.value();
        self.filled.value().saturating_sub(swept) as usize
    }

    pub(crate) fn snapshot(&self, entries: usize) -> BucketStats {
        BucketStats {
            entries,
            gets: self.gets.value(),
            puts: self.puts.value(),
            waits: self.waits.value(),
        }
    }
}

/// Access counters for a single bucket (metadata provider).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BucketStats {
    /// Entries currently stored.
    pub entries: usize,
    /// Lifetime gets routed here.
    pub gets: u64,
    /// Lifetime `put_new` calls routed here (inserted or not).
    pub puts: u64,
    /// Times a reader had to block waiting for a key in this bucket.
    pub waits: u64,
}

/// Aggregated DHT statistics.
#[derive(Clone, Debug, Default)]
pub struct DhtStats {
    /// Per-bucket counters, indexed by bucket id.
    pub buckets: Vec<BucketStats>,
    /// Sum of entries over all buckets.
    pub total_entries: usize,
    /// Sum of gets over all buckets.
    pub total_gets: u64,
    /// Sum of puts over all buckets.
    pub total_puts: u64,
    /// Sum of blocking waits over all buckets.
    pub total_waits: u64,
    /// Cells allocated over all buckets (64 bytes each): entries of a
    /// [`crate::Dht`], slab headers of a [`crate::Slabs`].
    pub capacity: usize,
    /// Slab slots allocated (32 bytes each): the runs carved out of a
    /// [`crate::Slabs`] arena, reused ones counted once. Zero for a
    /// [`crate::Dht`].
    pub slots: usize,
    /// Rebuilds that grew a bucket by appending a segment.
    pub growths: u64,
    /// Rebuilds that compacted a bucket's tombstones at the same size.
    pub compactions: u64,
}

impl DhtStats {
    pub(crate) fn collect(buckets: impl Iterator<Item = BucketStats>) -> Self {
        let buckets: Vec<BucketStats> = buckets.collect();
        DhtStats {
            total_entries: buckets.iter().map(|b| b.entries).sum(),
            total_gets: buckets.iter().map(|b| b.gets).sum(),
            total_puts: buckets.iter().map(|b| b.puts).sum(),
            total_waits: buckets.iter().map(|b| b.waits).sum(),
            buckets,
            ..DhtStats::default()
        }
    }

    /// Ratio of the busiest bucket's gets to the mean — 1.0 is perfectly
    /// even, large values indicate a hotspot (e.g. the tree root).
    pub fn get_skew(&self) -> f64 {
        if self.buckets.is_empty() || self.total_gets == 0 {
            return 1.0;
        }
        let mean = self.total_gets as f64 / self.buckets.len() as f64;
        let max = self.buckets.iter().map(|b| b.gets).max().unwrap_or(0);
        max as f64 / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_sums() {
        let s = DhtStats::collect(
            vec![
                BucketStats { entries: 2, gets: 10, puts: 3, waits: 1 },
                BucketStats { entries: 1, gets: 30, puts: 2, waits: 0 },
            ]
            .into_iter(),
        );
        assert_eq!(s.total_entries, 3);
        assert_eq!(s.total_gets, 40);
        assert_eq!(s.total_puts, 5);
        assert_eq!(s.total_waits, 1);
    }

    #[test]
    fn skew_of_even_load_is_one() {
        let s = DhtStats::collect((0..4).map(|_| BucketStats {
            entries: 0,
            gets: 25,
            puts: 0,
            waits: 0,
        }));
        assert!((s.get_skew() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn skew_detects_hotspot() {
        let s = DhtStats::collect(
            vec![
                BucketStats { entries: 0, gets: 97, puts: 0, waits: 0 },
                BucketStats { entries: 0, gets: 1, puts: 0, waits: 0 },
                BucketStats { entries: 0, gets: 1, puts: 0, waits: 0 },
                BucketStats { entries: 0, gets: 1, puts: 0, waits: 0 },
            ]
            .into_iter(),
        );
        assert!(s.get_skew() > 3.5);
    }

    #[test]
    fn skew_of_empty_stats_is_one() {
        let s = DhtStats::default();
        assert_eq!(s.get_skew(), 1.0);
    }
}
