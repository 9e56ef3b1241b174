//! Base-2 sub-bucketed atomic histograms.
//!
//! The bucket layout is the classic "h2" scheme (as used by pelikan's
//! rustcommon and hdrhistogram-family designs) at grouping power
//! `p = `[`GROUPING_POWER`]:
//!
//! * values below `2^(p+1)` get one bucket each (exact);
//! * every power-of-two range `[2^h, 2^(h+1))` above that is split into
//!   `2^p` equal sub-buckets of width `2^(h-p)`.
//!
//! A bucket's width is therefore never more than `2^-p` of the values
//! it holds, so any percentile read off the bucket edges carries a
//! bounded **relative error ≤ 2^-7 = 1/128 ≈ 0.8%**. Recording is one
//! index computation plus two relaxed `fetch_add`s (the bucket and the
//! sum) — no locks, no floating point.
//!
//! **Striped by thread.** Every bucket and the sum exist once per
//! [stripe](crate::STRIPES), each stripe's cells on cache lines of their
//! own, and a record writes only its thread's stripe. Snapshots add the
//! stripes up, so counts and sums are exact once writers quiesce.
//!
//! **Buckets follow the recorded range.** The buckets come in groups:
//! the exact region, then one group of `2^p` per power of two. Each
//! group — all stripes' cells of it, in one allocation — is allocated
//! by the first record that lands in it, so a latency histogram whose
//! samples span a few powers of two holds a few groups, not the whole
//! `u64` range, and a later thread recording the same range allocates
//! nothing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::stripe::{self, Padded, STRIPES};

/// The grouping power: 128 sub-buckets per power of two, bounding
/// relative error at 1/128 (≈ 0.8%).
pub const GROUPING_POWER: u32 = 7;

/// Buckets needed for grouping power `p` over the full `u64` range.
fn bucket_count(p: u32) -> usize {
    (1usize << (p + 1)) + (63 - p as usize) * (1usize << p)
}

/// Bucket groups for grouping power `p`: the exact region, then one per
/// power of two above it.
fn group_count(p: u32) -> usize {
    1 + (63 - p as usize)
}

/// Buckets in group `g`.
fn group_len(p: u32, g: usize) -> usize {
    if g == 0 {
        1usize << (p + 1)
    } else {
        1usize << p
    }
}

/// The flat index of group `g`'s first bucket.
fn group_start(p: u32, g: usize) -> usize {
    if g == 0 {
        0
    } else {
        (1usize << (p + 1)) + ((g - 1) << p)
    }
}

/// The group of `value` under grouping power `p`, and its bucket within
/// that group.
#[inline]
fn locate(p: u32, value: u64) -> (usize, usize) {
    let h = 63 - (value | 1).leading_zeros();
    if h <= p {
        (0, value as usize)
    } else {
        let g = h - p; // sub-bucket width within [2^h, 2^(h+1)) is 2^g
        (g as usize, (value >> g) as usize - (1usize << p))
    }
}

/// The flat bucket index of `value` under grouping power `p`.
#[cfg(test)]
fn index_of(p: u32, value: u64) -> usize {
    let (g, b) = locate(p, value);
    group_start(p, g) + b
}

/// The largest value mapping to bucket `i` under grouping power `p`.
fn bucket_high(p: u32, i: usize) -> u64 {
    let exact = 1usize << (p + 1);
    if i < exact {
        i as u64
    } else {
        let rel = i - exact;
        let g = (rel >> p) as u32 + 1;
        let b = (rel & ((1usize << p) - 1)) as u64;
        let low = (1u64 << (p + g)) + (b << g);
        low + ((1u64 << g) - 1)
    }
}

/// Buckets per cache-line pair.
const LINE: usize = 16;

/// 16 buckets of one stripe, alone on their lines.
type Line = Padded<[AtomicU64; LINE]>;

/// Lines one stripe needs for group `g`.
fn lines_per_run(g: usize) -> usize {
    group_len(GROUPING_POWER, g).div_ceil(LINE)
}

/// A lock-free histogram over the full `u64` value range.
///
/// Values below `2^(p+1)` get exact buckets and every power of two
/// above them `2^p` equal ones, at `p =` [`GROUPING_POWER`], so a
/// percentile read off a bucket edge errs by at most 1/128. All
/// recording is relaxed atomics on the calling thread's
/// [stripe](crate::STRIPES); snapshots add the stripes up, and taken
/// while writers are recording they are approximate (a concurrent
/// record may be split between `sum` and its bucket). Each bucket
/// group (the exact region, then one per power of two) is allocated,
/// for every stripe at once, by the first record landing in it, so
/// memory follows the recorded range and an idle histogram holds no
/// bucket at all.
///
/// # Examples
///
/// ```
/// use blobseer_metrics::AtomicHistogram;
///
/// let h = AtomicHistogram::new();
/// for v in 1..=100u64 {
///     h.record(v);
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.count(), 100);
/// // Values below 2^(p+1) = 256 sit in exact buckets.
/// assert_eq!(snap.percentile(50.0), Some(50));
/// assert_eq!(snap.percentile(99.0), Some(99));
/// ```
#[derive(Debug)]
pub struct AtomicHistogram {
    /// Indexed by group (see [`locate`]); empty until recorded into.
    /// Stripe `s`'s buckets are run `s` of each group's lines.
    groups: Box<[OnceLock<Box<[Line]>>]>,
    sums: [Padded<AtomicU64>; STRIPES],
}

impl AtomicHistogram {
    /// An empty histogram; no bucket is allocated until a record lands.
    pub fn new() -> AtomicHistogram {
        AtomicHistogram {
            groups: (0..group_count(GROUPING_POWER)).map(|_| OnceLock::new()).collect(),
            sums: [const { Padded(AtomicU64::new(0)) }; STRIPES],
        }
    }

    /// Record one observation of `value`.
    #[inline]
    pub fn record(&self, value: u64) {
        let (g, b) = locate(GROUPING_POWER, value);
        let per = lines_per_run(g);
        let lines = self.groups[g].get_or_init(|| {
            (0..STRIPES * per).map(|_| Padded([const { AtomicU64::new(0) }; LINE])).collect()
        });
        let s = stripe::index();
        lines[s * per + b / LINE][b % LINE].fetch_add(1, Ordering::Relaxed);
        self.sums[s].fetch_add(value, Ordering::Relaxed);
    }

    /// The groups recorded into so far, with their indexes.
    fn allocated(&self) -> impl Iterator<Item = (usize, &[Line])> {
        self.groups.iter().enumerate().filter_map(|(g, group)| Some((g, &**group.get()?)))
    }

    /// A point-in-time copy of the bucket counts, every stripe added up.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let p = GROUPING_POWER;
        let mut buckets = vec![0; bucket_count(p)];
        let mut count = 0;
        for (g, lines) in self.allocated() {
            let dst = &mut buckets[group_start(p, g)..][..group_len(p, g)];
            for run in lines.chunks(lines_per_run(g)) {
                for (dst, src) in dst.iter_mut().zip(run.iter().flat_map(|line| line.iter())) {
                    let n = src.load(Ordering::Relaxed);
                    *dst += n;
                    count += n;
                }
            }
        }
        let sum = self.sums.iter().fold(0u64, |sum, s| sum.wrapping_add(s.load(Ordering::Relaxed)));
        HistogramSnapshot { count, sum, buckets }
    }
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A non-atomic copy of a histogram's state, with percentile readout.
///
/// Percentiles are read off bucket **upper edges**: the reported value
/// is ≥ the true percentile and within one bucket width of it, i.e.
/// within a relative error of `2^-p` for values above the exact region
/// (and exact below it).
///
/// # Examples
///
/// ```
/// use blobseer_metrics::AtomicHistogram;
///
/// let h = AtomicHistogram::new();
/// for _ in 0..99 {
///     h.record(1_000);
/// }
/// h.record(1_000_000); // one slow outlier
/// let snap = h.snapshot();
/// let p50 = snap.percentile(50.0).unwrap();
/// let p999 = snap.percentile(99.9).unwrap();
/// assert!((p50 as f64 - 1_000.0).abs() / 1_000.0 < 0.01);
/// assert!((p999 as f64 - 1_000_000.0).abs() / 1_000_000.0 < 0.01);
/// assert_eq!(snap.count(), 100);
/// ```
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// The bucket counts' total, added up once by `snapshot`.
    count: u64,
    sum: u64,
    buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (wrapping).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean recorded value, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The value at percentile `pct` (0–100), or `None` when empty.
    /// Reported as the upper edge of the bucket holding that rank; see
    /// the type docs for the error bound.
    pub fn percentile(&self, pct: f64) -> Option<u64> {
        let total = self.count;
        if total == 0 || !pct.is_finite() {
            return None;
        }
        let pct = pct.clamp(0.0, 100.0);
        let rank = ((pct / 100.0 * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_high(GROUPING_POWER, i));
            }
        }
        None // unreachable: ranks are clamped to the total
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0).unwrap_or(0)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(90.0).unwrap_or(0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0).unwrap_or(0)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.percentile(99.9).unwrap_or(0)
    }

    /// Upper edge of the highest occupied bucket (≈ the maximum
    /// recorded value, within the bucket error bound); 0 when empty.
    pub fn max(&self) -> u64 {
        self.buckets.iter().rposition(|&c| c > 0).map_or(0, |i| bucket_high(GROUPING_POWER, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_region_is_exact() {
        let p = GROUPING_POWER;
        for v in 0..(1u64 << (p + 1)) {
            let i = index_of(p, v);
            assert_eq!(bucket_high(p, i), v, "value {v} must map to its own bucket");
        }
    }

    #[test]
    fn indexes_are_monotone_and_dense() {
        // Walking the bucket high edges must visit every bucket once,
        // in order, ending at u64::MAX.
        let p = 3;
        let n = bucket_count(p);
        let mut prev = None;
        for i in 0..n {
            let high = bucket_high(p, i);
            assert_eq!(index_of(p, high), i, "high edge of bucket {i} must map back");
            if let Some(prev) = prev {
                assert!(high > prev);
                assert_eq!(index_of(p, prev + 1), i, "buckets must tile without gaps");
            }
            prev = Some(high);
        }
        assert_eq!(prev, Some(u64::MAX));
    }

    #[test]
    fn relative_error_is_bounded() {
        let p = GROUPING_POWER;
        let bound = 1.0 / (1u64 << p) as f64;
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            let high = bucket_high(p, index_of(p, v));
            assert!(high >= v);
            let err = (high - v) as f64 / v as f64;
            assert!(err <= bound, "value {v}: bucket edge {high} errs by {err}");
            v = v.wrapping_mul(3).wrapping_add(7);
        }
    }

    #[test]
    fn extremes_record() {
        let h = AtomicHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 2);
        assert_eq!(snap.percentile(0.0), Some(0));
        assert_eq!(snap.max(), u64::MAX);
    }

    #[test]
    fn empty_snapshot_has_no_percentiles() {
        let snap = AtomicHistogram::new().snapshot();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.percentile(50.0), None);
        assert_eq!(snap.mean(), 0);
        assert_eq!(snap.max(), 0);
    }

    #[test]
    fn count_is_the_bucket_total_across_groups() {
        // Values in four powers of two, from two threads: the total
        // `snapshot` keeps is the sum of every bucket it copied.
        let h = AtomicHistogram::new();
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..500u64 {
                        h.record((3 + t * 7 + i) << (i % 4 * 9));
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert!(groups(&h).len() >= 4);
        assert_eq!(snap.count(), snap.buckets.iter().sum::<u64>());
        assert_eq!(snap.count(), 1_000);
    }

    /// The groups a histogram allocated, by index.
    fn groups(h: &AtomicHistogram) -> Vec<usize> {
        h.allocated().map(|(g, _)| g).collect()
    }

    #[test]
    fn lazy_allocation_defers_buckets() {
        let h = AtomicHistogram::new();
        assert_eq!(groups(&h), Vec::<usize>::new(), "no record yet: no buckets");
        assert_eq!(h.snapshot().count(), 0);
        assert_eq!(groups(&h), Vec::<usize>::new(), "snapshots allocate nothing");
        h.record(5);
        // One group — the exact region value 5 falls in — for every
        // stripe; nothing else.
        assert_eq!(groups(&h), vec![0]);
        // The same value again, and another power of two: one more group.
        h.record(5);
        assert_eq!(groups(&h), vec![0]);
        h.record(1 << 20);
        assert_eq!(groups(&h), vec![0, 20 - GROUPING_POWER as usize]);
        assert_eq!(h.snapshot().count(), 3);
    }

    #[test]
    fn one_power_of_two_allocates_one_group_whatever_the_stripes() {
        // Every value in [2^12, 2^13), from four threads: exactly one
        // group is allocated, holding every stripe's cells, and each
        // thread's records land in runs of its own stripe.
        let h = AtomicHistogram::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        h.record(4096 + (t * 1_000 + i) % 4096);
                    }
                });
            }
        });
        let g = 12 - GROUPING_POWER as usize;
        assert_eq!(groups(&h), vec![g]);
        let (_, lines) = h.allocated().next().unwrap();
        // The footprint: 128 buckets are 8 lines of 128 bytes per
        // stripe, so the group is 8 KiB whatever the number of threads.
        assert_eq!(lines.len(), STRIPES * 8);
        assert_eq!(std::mem::size_of_val(lines), STRIPES * 8 * 128);
        let written = lines
            .chunks(lines_per_run(g))
            .filter(|run| run.iter().flat_map(|l| l.iter()).any(|c| c.load(Ordering::Relaxed) > 0))
            .count();
        assert!((1..=4).contains(&written), "{written} stripes written by 4 threads");
        assert_eq!(h.snapshot().count(), 4_000);
    }

    #[test]
    fn groups_tile_the_bucket_range() {
        for p in 1..=15 {
            let last = group_count(p) - 1;
            assert_eq!(group_start(p, last) + group_len(p, last), bucket_count(p), "p = {p}");
        }
        assert_eq!(AtomicHistogram::new().snapshot().buckets.len(), bucket_count(GROUPING_POWER));
    }
}
