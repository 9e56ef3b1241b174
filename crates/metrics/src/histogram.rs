//! Base-2 sub-bucketed atomic histograms with sliding windows.
//!
//! The bucket layout is the classic "h2" scheme (as used by pelikan's
//! rustcommon and hdrhistogram-family designs), parameterised by a
//! **grouping power** `p`:
//!
//! * values below `2^(p+1)` get one bucket each (exact);
//! * every power-of-two range `[2^h, 2^(h+1))` above that is split into
//!   `2^p` equal sub-buckets of width `2^(h-p)`.
//!
//! A bucket's width is therefore never more than `2^-p` of the values
//! it holds, so any percentile read off the bucket edges carries a
//! bounded **relative error ≤ 2^-p** (default `p = 7`: ≤ 1/128 ≈
//! 0.8%). Recording is one index computation plus two relaxed
//! `fetch_add`s (the bucket and the sum) — no locks, no floating point.
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
//!
//! [`WindowedHistogram`] layers a sliding window on top: an all-time
//! histogram plus a ring of interval slices rotated by the coarse
//! clock. Lifetime percentiles come from the all-time histogram
//! ([`WindowedHistogram::snapshot`]); recent-traffic percentiles merge
//! the live slices ([`WindowedHistogram::window_snapshot`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use crate::clock;
use crate::stripe::{self, Padded, STRIPES};

/// Default grouping power: 128 sub-buckets per power of two, bounding
/// relative error at 1/128 (≈ 0.8%).
pub const DEFAULT_GROUPING_POWER: u32 = 7;

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

/// 16 buckets of one stripe of one histogram, alone on their lines.
type Line = Padded<[AtomicU64; LINE]>;

/// Lines one stripe of one histogram needs for group `g`.
fn lines_per_run(p: u32, g: usize) -> usize {
    group_len(p, g).div_ceil(LINE)
}

/// The cells of `hists` histograms over one bucket layout, striped by
/// thread: histogram `h`'s stripe `s` is run `h × STRIPES + s` of every
/// group and of the sums. A group is allocated, for every histogram and
/// stripe at once, by the first record landing in it, so recording a
/// range that is already allocated never allocates, whichever thread or
/// window slice records it.
#[derive(Debug)]
struct Cells {
    grouping_power: u32,
    hists: usize,
    /// Indexed by group (see [`locate`]); empty until recorded into.
    groups: Box<[OnceLock<Box<[Line]>>]>,
    sums: Box<[Padded<AtomicU64>]>,
}

impl Cells {
    fn new(grouping_power: u32, hists: usize) -> Cells {
        assert!(
            (1..=15).contains(&grouping_power),
            "grouping power {grouping_power} outside 1..=15"
        );
        Cells {
            grouping_power,
            hists,
            groups: (0..group_count(grouping_power)).map(|_| OnceLock::new()).collect(),
            sums: (0..hists * STRIPES).map(|_| Padded(AtomicU64::new(0))).collect(),
        }
    }

    /// Record `value` into histogram `h` on stripe `s`.
    #[inline]
    fn record(&self, h: usize, s: usize, value: u64) {
        let p = self.grouping_power;
        let (g, b) = locate(p, value);
        let per = lines_per_run(p, g);
        let lines = self.groups[g].get_or_init(|| {
            let n = self.hists * STRIPES * per;
            (0..n).map(|_| Padded([const { AtomicU64::new(0) }; LINE])).collect()
        });
        let run = h * STRIPES + s;
        lines[run * per + b / LINE][b % LINE].fetch_add(1, Ordering::Relaxed);
        self.sums[run].fetch_add(value, Ordering::Relaxed);
    }

    /// The groups recorded into so far, with their indexes.
    fn allocated(&self) -> impl Iterator<Item = (usize, &[Line])> {
        self.groups.iter().enumerate().filter_map(|(g, group)| Some((g, &**group.get()?)))
    }

    /// Histogram `h`'s runs (one per stripe) of group `g`'s `lines`.
    fn runs<'a>(&self, h: usize, g: usize, lines: &'a [Line]) -> impl Iterator<Item = &'a [Line]> {
        let per = lines_per_run(self.grouping_power, g);
        lines[h * STRIPES * per..][..STRIPES * per].chunks(per)
    }

    /// Zero histogram `h` on every stripe (used by window rotation);
    /// allocated groups stay allocated. Not atomic as a whole:
    /// concurrent records may land before or after individual bucket
    /// clears — bounded slop at slice boundaries, by design.
    fn reset(&self, h: usize) {
        for sum in &self.sums[h * STRIPES..][..STRIPES] {
            sum.store(0, Ordering::Relaxed);
        }
        for (g, lines) in self.allocated() {
            for b in self.runs(h, g, lines).flatten().flat_map(|line| line.iter()) {
                b.store(0, Ordering::Relaxed);
            }
        }
    }

    /// Add histogram `h`'s counts, over every stripe, into `snap`.
    fn merge_into(&self, h: usize, snap: &mut HistogramSnapshot) {
        let p = self.grouping_power;
        assert_eq!(p, snap.grouping_power, "grouping powers must match");
        for sum in &self.sums[h * STRIPES..][..STRIPES] {
            snap.sum = snap.sum.wrapping_add(sum.load(Ordering::Relaxed));
        }
        for (g, lines) in self.allocated() {
            let dst = &mut snap.buckets[group_start(p, g)..][..group_len(p, g)];
            for run in self.runs(h, g, lines) {
                for (dst, src) in dst.iter_mut().zip(run.iter().flat_map(|line| line.iter())) {
                    *dst += src.load(Ordering::Relaxed);
                }
            }
        }
    }
}

/// A lock-free histogram over the full `u64` value range.
///
/// See the [crate docs](crate) for the bucket scheme and error bound.
/// All recording is relaxed atomics on the calling thread's
/// [stripe](crate::STRIPES); snapshots add the stripes up, and taken
/// while writers are recording they are approximate (a concurrent
/// record may be split between `sum` and its bucket). Each bucket
/// group (the exact region, then one per power of two) is allocated,
/// for every stripe at once, by the first record landing in it, so
/// memory follows the recorded range.
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
    cells: Cells,
}

impl AtomicHistogram {
    /// A histogram with the default grouping power
    /// ([`DEFAULT_GROUPING_POWER`]).
    pub fn new() -> AtomicHistogram {
        Self::with_grouping_power(DEFAULT_GROUPING_POWER)
    }

    /// A histogram with `2^p` sub-buckets per power of two (relative
    /// error ≤ `2^-p`). Panics unless `1 ≤ p ≤ 15`.
    pub fn with_grouping_power(p: u32) -> AtomicHistogram {
        AtomicHistogram { cells: Cells::new(p, 1) }
    }

    /// The configured grouping power.
    pub fn grouping_power(&self) -> u32 {
        self.cells.grouping_power
    }

    /// Record one observation of `value`.
    #[inline]
    pub fn record(&self, value: u64) {
        self.cells.record(0, stripe::index(), value);
    }

    /// A point-in-time copy of the bucket counts, every stripe added up.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::empty(self.grouping_power());
        self.cells.merge_into(0, &mut snap);
        snap
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
    grouping_power: u32,
    sum: u64,
    buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// An empty snapshot (used for histograms that never recorded).
    pub(crate) fn empty(grouping_power: u32) -> HistogramSnapshot {
        HistogramSnapshot { grouping_power, sum: 0, buckets: vec![0; bucket_count(grouping_power)] }
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of all recorded values (wrapping).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean recorded value, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count()).unwrap_or(0)
    }

    /// The value at percentile `pct` (0–100), or `None` when empty.
    /// Reported as the upper edge of the bucket holding that rank; see
    /// the type docs for the error bound.
    pub fn percentile(&self, pct: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 || !pct.is_finite() {
            return None;
        }
        let pct = pct.clamp(0.0, 100.0);
        let rank = ((pct / 100.0 * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_high(self.grouping_power, i));
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
        self.buckets.iter().rposition(|&c| c > 0).map_or(0, |i| bucket_high(self.grouping_power, i))
    }
}

/// An all-time histogram plus a sliding window of interval slices.
///
/// Recording goes to both the lifetime histogram and the slice for the
/// sample's time period; slices are recycled in a ring, so
/// [`WindowedHistogram::window_snapshot`] always covers roughly the
/// last `slices × slice_duration` of traffic. Rotation is driven by
/// the timestamps recorders pass in (normally the [coarse
/// clock](crate::clock)) — there is no background thread. The
/// all-time histogram and every slice are striped by thread like an
/// [`AtomicHistogram`], so a record writes only its own thread's lines;
/// the ring's rotation period is read on every record but written once
/// per slice, by the one recorder that wins its CAS and clears the
/// expired slices on every stripe.
///
/// The window is approximate at slice boundaries: a recorder holding a
/// stale timestamp may record into a slice that a concurrent rotation
/// is clearing. The all-time histogram is never rotated and never
/// loses a sample.
///
/// Storage is **lazily allocated**: the ring on the first record, a
/// bucket group — for the all-time histogram and every slice and
/// stripe at once — on the first record that lands in it. Registering
/// many windowed histograms costs a few words each until a hot path
/// actually records into one, and a slice rotating into use, or a
/// thread recording for the first time, allocates nothing.
///
/// # Examples
///
/// ```
/// use blobseer_metrics::WindowedHistogram;
///
/// // 4 slices of 1 ms: a ~4 ms sliding window.
/// let h = WindowedHistogram::with_config(7, std::time::Duration::from_millis(1), 4);
/// h.record_at(0, 100);
/// // 10 ms later the old slice has rotated out of the window...
/// h.record_at(10_000_000, 900);
/// assert_eq!(h.window_snapshot_at(10_000_000).count(), 1);
/// // ...but the all-time histogram keeps everything.
/// assert_eq!(h.snapshot().count(), 2);
/// ```
#[derive(Debug)]
pub struct WindowedHistogram {
    grouping_power: u32,
    slice_ns: u64,
    num_slices: usize,
    inner: OnceLock<Windows>,
}

/// Histogram 0 of `cells` is the all-time one; histogram `1 + i` is
/// slice `i` of the ring.
#[derive(Debug)]
struct Windows {
    cells: Cells,
    /// The slice period the ring has been rotated up to.
    period: AtomicU64,
}

impl WindowedHistogram {
    /// Default configuration: grouping power 7, four 1-second slices
    /// (a ~4 s sliding window).
    pub fn new() -> WindowedHistogram {
        Self::with_config(DEFAULT_GROUPING_POWER, Duration::from_secs(1), 4)
    }

    /// A window of `num_slices` slices of `slice` each, at the given
    /// grouping power. Panics when `slice` is zero, `num_slices < 2`,
    /// or the grouping power is outside `1..=15`.
    pub fn with_config(
        grouping_power: u32,
        slice: Duration,
        num_slices: usize,
    ) -> WindowedHistogram {
        let slice_ns = slice.as_nanos() as u64;
        assert!(slice_ns > 0, "slice duration must be non-zero");
        assert!(num_slices >= 2, "a window needs at least 2 slices");
        assert!((1..=15).contains(&grouping_power), "grouping power outside 1..=15");
        WindowedHistogram { grouping_power, slice_ns, num_slices, inner: OnceLock::new() }
    }

    /// The configured grouping power.
    pub fn grouping_power(&self) -> u32 {
        self.grouping_power
    }

    /// The total window span (`slices × slice_duration`).
    pub fn window(&self) -> Duration {
        Duration::from_nanos(self.slice_ns.saturating_mul(self.num_slices as u64))
    }

    fn windows(&self) -> &Windows {
        self.inner.get_or_init(|| Windows {
            cells: Cells::new(self.grouping_power, 1 + self.num_slices),
            period: AtomicU64::new(0),
        })
    }

    /// The cells histogram holding slice period `period`.
    fn slice_of(&self, period: u64) -> usize {
        1 + (period % self.num_slices as u64) as usize
    }

    /// Advance the ring to `now`, clearing every slice whose period
    /// expired. Exactly one racing recorder wins the CAS and clears.
    fn rotate(&self, w: &Windows, now_ns: u64) {
        let period = now_ns / self.slice_ns;
        let cur = w.period.load(Ordering::Acquire);
        if period > cur
            && w.period.compare_exchange(cur, period, Ordering::AcqRel, Ordering::Acquire).is_ok()
        {
            let first = (cur + 1).max(period.saturating_sub(self.num_slices as u64 - 1));
            for q in first..=period {
                w.cells.reset(self.slice_of(q));
            }
        }
    }

    /// Record `value` stamped with the current [coarse
    /// clock](crate::clock::coarse_now) reading.
    #[inline]
    pub fn record(&self, value: u64) {
        self.record_at(clock::coarse_now(), value);
    }

    /// Record `value` stamped with an explicit timestamp (nanoseconds
    /// since the process epoch). Tests drive this directly to make
    /// window rotation deterministic.
    pub fn record_at(&self, now_ns: u64, value: u64) {
        let w = self.windows();
        self.rotate(w, now_ns);
        let s = stripe::index();
        w.cells.record(0, s, value);
        w.cells.record(self.slice_of(now_ns / self.slice_ns), s, value);
    }

    /// All-time snapshot: every sample ever recorded.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::empty(self.grouping_power);
        if let Some(w) = self.inner.get() {
            w.cells.merge_into(0, &mut snap);
        }
        snap
    }

    /// Sliding-window snapshot as of the coarse clock: roughly the
    /// last [`WindowedHistogram::window`] of traffic.
    pub fn window_snapshot(&self) -> HistogramSnapshot {
        self.window_snapshot_at(clock::coarse_now())
    }

    /// [`WindowedHistogram::window_snapshot`] with an explicit
    /// timestamp (nanoseconds since the process epoch).
    pub fn window_snapshot_at(&self, now_ns: u64) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::empty(self.grouping_power);
        let Some(w) = self.inner.get() else { return snap };
        self.rotate(w, now_ns);
        for slice in 1..=self.num_slices {
            w.cells.merge_into(slice, &mut snap);
        }
        snap
    }
}

impl Default for WindowedHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_region_is_exact() {
        let p = DEFAULT_GROUPING_POWER;
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
        let p = DEFAULT_GROUPING_POWER;
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
    fn window_rotation_expires_old_slices() {
        let ms = 1_000_000u64;
        let h = WindowedHistogram::with_config(7, Duration::from_millis(1), 4);
        h.record_at(0, 10);
        h.record_at(2 * ms, 20);
        // Both still inside the 4 ms window (periods 0..=2).
        assert_eq!(h.window_snapshot_at(2 * ms).count(), 2);
        // 5 ms: the window covers periods 2..=5, so the slice holding
        // `10` (period 0) has been recycled and `20` (period 2) kept.
        let snap = h.window_snapshot_at(5 * ms);
        assert_eq!(snap.count(), 1);
        assert_eq!(snap.percentile(50.0), Some(20));
        // Far future: everything expired, all-time unaffected.
        assert_eq!(h.window_snapshot_at(100 * ms).count(), 0);
        assert_eq!(h.snapshot().count(), 2);
    }

    #[test]
    fn window_handles_large_time_jumps() {
        let h = WindowedHistogram::with_config(7, Duration::from_millis(1), 4);
        h.record_at(0, 1);
        // A jump of many periods must clear at most num_slices slices
        // (and not wrap or panic).
        h.record_at(u64::MAX / 2, 2);
        assert_eq!(h.window_snapshot_at(u64::MAX / 2).count(), 1);
        assert_eq!(h.snapshot().count(), 2);
    }

    /// The groups a histogram's cells allocated, by index.
    fn groups(cells: &Cells) -> Vec<usize> {
        cells.allocated().map(|(g, _)| g).collect()
    }

    #[test]
    fn lazy_allocation_defers_buckets() {
        let h = WindowedHistogram::new();
        assert!(h.inner.get().is_none(), "no record yet: no buckets");
        assert_eq!(h.snapshot().count(), 0);
        assert_eq!(h.window_snapshot_at(0).count(), 0);
        assert!(h.inner.get().is_none(), "snapshots allocate nothing");
        h.record_at(0, 5);
        // One group — the exact region value 5 falls in — for the
        // all-time histogram and every slice; nothing else.
        let w = h.inner.get().expect("a record allocates the ring");
        assert_eq!(groups(&w.cells), vec![0]);
        // A later slice and another power of two: one more group.
        h.record_at(2_000_000_000, 5);
        assert_eq!(groups(&w.cells), vec![0]);
        h.record_at(2_000_000_000, 1 << 20);
        assert_eq!(groups(&w.cells), vec![0, 20 - DEFAULT_GROUPING_POWER as usize]);
        assert_eq!(h.snapshot().count(), 3);
    }

    #[test]
    fn one_power_of_two_allocates_one_group_whatever_the_stripes() {
        // Every value in [2^12, 2^13), from four threads at one
        // timestamp: exactly one group is allocated, holding every
        // histogram's and every stripe's cells, and each thread's
        // records land in runs of its own stripe.
        let h = WindowedHistogram::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        h.record_at(0, 4096 + (t * 1_000 + i) % 4096);
                    }
                });
            }
        });
        let w = h.inner.get().unwrap();
        let g = 12 - DEFAULT_GROUPING_POWER as usize;
        assert_eq!(groups(&w.cells), vec![g]);
        let (_, lines) = w.cells.allocated().next().unwrap();
        let written = |h| {
            w.cells
                .runs(h, g, lines)
                .filter(|run| {
                    run.iter().flat_map(|l| l.iter()).any(|c| c.load(Ordering::Relaxed) > 0)
                })
                .count()
        };
        assert!((1..=4).contains(&written(0)), "{} stripes written by 4 threads", written(0));
        assert_eq!(written(1), written(0), "the current slice sees the same stripes");
        assert_eq!(written(2), 0);
        assert_eq!(h.snapshot().count(), 4_000);
        assert_eq!(h.window_snapshot_at(0).count(), 4_000);
    }

    #[test]
    fn groups_tile_the_bucket_range() {
        for p in 1..=15 {
            let last = group_count(p) - 1;
            assert_eq!(group_start(p, last) + group_len(p, last), bucket_count(p), "p = {p}");
            assert_eq!(
                AtomicHistogram::with_grouping_power(p).snapshot().buckets.len(),
                bucket_count(p)
            );
        }
    }
}
