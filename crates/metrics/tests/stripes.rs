//! Exact counts across thread stripes.
//!
//! A [`Counter`] and an [`AtomicHistogram`] keep one cell per thread
//! stripe and merge them on read. Once the recording threads are
//! joined, every reading must equal what one thread recording the same
//! values serially would read — with more live threads than
//! [`STRIPES`] (so some share a stripe) and with many short-lived
//! threads that each hand their stripe back on exit.
//!
//! `PROPTEST_SEED` moves every recorded value and the thread count (see
//! [`mix`]), so each seed of CI's stress job records other values from
//! another number of threads.

use std::sync::{Barrier, OnceLock};

use blobseer_metrics::{AtomicHistogram, Counter, HistogramSnapshot, STRIPES};

/// 0 by default, a mix of `PROPTEST_SEED` when it is set.
fn mix() -> u64 {
    static MIX: OnceLock<u64> = OnceLock::new();
    *MIX.get_or_init(|| {
        let seed = std::env::var("PROPTEST_SEED").ok().and_then(|v| v.parse::<u64>().ok());
        seed.map_or(0, |seed| seed.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    })
}

/// SplitMix64: the `i`-th draw of stream `stream`.
fn draw(stream: u64, i: u64) -> u64 {
    let mut z = mix()
        .wrapping_add(stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
        .wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Thread `t`'s values: a seed-derived count of latency-like values
/// spread over several powers of two.
fn values(t: u64) -> Vec<u64> {
    let n = 2_000 + draw(t, u64::MAX) % 3_000;
    (0..n).map(|i| 1 + draw(t, i) % (1 << (8 + (i % 16)))).collect()
}

/// Every reading the exposition and the stats take.
fn assert_same(got: &HistogramSnapshot, want: &HistogramSnapshot, what: &str) {
    assert_eq!(got.count(), want.count(), "{what}: count");
    assert_eq!(got.sum(), want.sum(), "{what}: sum");
    assert_eq!(got.max(), want.max(), "{what}: max");
    for pct in [0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 99.99, 100.0] {
        assert_eq!(got.percentile(pct), want.percentile(pct), "{what}: p{pct}");
    }
}

#[test]
fn more_live_threads_than_stripes_count_exactly() {
    let threads = STRIPES as u64 + 4 + mix() % 5;
    let counter = Counter::new();
    let hist = AtomicHistogram::new();
    // Every thread lives until all have recorded, so more than STRIPES
    // threads hold a stripe at once and some must share.
    let barrier = Barrier::new(threads as usize);
    std::thread::scope(|s| {
        for t in 0..threads {
            let (counter, hist, barrier) = (&counter, &hist, &barrier);
            s.spawn(move || {
                for v in values(t) {
                    counter.add(v % 7 + 1);
                    hist.record(v);
                }
                barrier.wait();
            });
        }
    });
    let oracle = AtomicHistogram::new();
    let mut total = 0u64;
    for t in 0..threads {
        for v in values(t) {
            total += v % 7 + 1;
            oracle.record(v);
        }
    }
    let want = oracle.snapshot();
    assert_eq!(counter.value(), total);
    assert_same(&hist.snapshot(), &want, "all-time");
}

#[test]
fn short_lived_threads_one_after_another_count_exactly() {
    // Each thread claims a stripe, records once and exits, handing the
    // stripe back: 64 owners come and go over STRIPES cells.
    let counter = Counter::new();
    let hist = AtomicHistogram::new();
    let oracle = AtomicHistogram::new();
    let mut total = 0u64;
    for t in 0..64u64 {
        let v = 1 + draw(t, 0) % (1 << 20);
        std::thread::scope(|s| {
            s.spawn(|| {
                counter.add(v);
                hist.record(v);
            });
        });
        total += v;
        oracle.record(v);
        assert_eq!(counter.value(), total, "after thread {t}");
        assert_eq!(hist.snapshot().count(), t + 1, "after thread {t}");
    }
    assert_same(&hist.snapshot(), &oracle.snapshot(), "all-time");
}
