//! Property and accuracy tests of the h2 histogram.
//!
//! The contract under test: percentile readouts carry a relative error
//! of at most `2^-p` (the grouping power bound), counts are exact under
//! full concurrency, and a snapshot's merge of the thread stripes
//! reads the same as one thread recording everything.

use std::sync::Arc;

use blobseer_metrics::{AtomicHistogram, GROUPING_POWER};
use proptest::prelude::*;

/// Exact percentile of a sorted sample using the same nearest-rank
/// definition the histogram implements.
fn exact_percentile(sorted: &[u64], pct: f64) -> u64 {
    let rank = ((pct / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn assert_within_bound(value: u64, exact: u64, pct: f64) {
    let bound = 1.0 / (1u64 << GROUPING_POWER) as f64;
    assert!(value >= exact, "p{pct}: histogram {value} below exact {exact}");
    let err = (value - exact) as f64 / exact.max(1) as f64;
    assert!(err <= bound, "p{pct}: histogram {value} vs exact {exact}, err {err} > {bound}");
}

#[test]
fn percentiles_of_a_uniform_distribution() {
    let h = AtomicHistogram::new();
    let mut values: Vec<u64> = (1..=10_000u64).map(|i| i * 37).collect();
    for &v in &values {
        h.record(v);
    }
    values.sort_unstable();
    let snap = h.snapshot();
    assert_eq!(snap.count(), values.len() as u64);
    for pct in [1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
        assert_within_bound(snap.percentile(pct).unwrap(), exact_percentile(&values, pct), pct);
    }
}

#[test]
fn percentiles_of_a_bimodal_distribution() {
    // 99% fast ops around 20µs, 1% slow ops around 8ms: the shape the
    // tail metrics exist to expose.
    let h = AtomicHistogram::new();
    let mut values = Vec::new();
    for i in 0..9_900u64 {
        values.push(20_000 + (i % 997) * 3);
    }
    for i in 0..100u64 {
        values.push(8_000_000 + i * 10_007);
    }
    for &v in &values {
        h.record(v);
    }
    values.sort_unstable();
    let snap = h.snapshot();
    let p50 = snap.percentile(50.0).unwrap();
    let p999 = snap.percentile(99.9).unwrap();
    assert_within_bound(p50, exact_percentile(&values, 50.0), 50.0);
    assert_within_bound(p999, exact_percentile(&values, 99.9), 99.9);
    assert!(p50 < 30_000, "median must sit in the fast mode, got {p50}");
    assert!(p999 > 8_000_000, "p999 must sit in the slow mode, got {p999}");
}

#[test]
fn concurrent_recording_loses_nothing() {
    let h = Arc::new(AtomicHistogram::new());
    let threads = 8;
    let per_thread = 50_000u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let h = Arc::clone(&h);
            s.spawn(move || {
                for i in 0..per_thread {
                    h.record(t * 1_000_003 + i);
                }
            });
        }
    });
    let snap = h.snapshot();
    assert_eq!(snap.count(), threads * per_thread);
    let expected_sum: u64 = (0..threads)
        .map(|t| per_thread * (t * 1_000_003) + per_thread * (per_thread - 1) / 2)
        .sum();
    assert_eq!(snap.sum(), expected_sum);
}

proptest! {
    #[test]
    fn percentile_error_is_bounded_on_arbitrary_samples(
        mut values in proptest::collection::vec(1u64..1_000_000_000_000, 1..500),
        pct_milli in 0u64..100_000,
    ) {
        let pct = pct_milli as f64 / 1_000.0;
        let h = AtomicHistogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let snap = h.snapshot();
        prop_assert_eq!(snap.count(), values.len() as u64);
        let exact = exact_percentile(&values, pct);
        let got = snap.percentile(pct).unwrap();
        let bound = 1.0 / (1u64 << GROUPING_POWER) as f64;
        prop_assert!(got >= exact);
        prop_assert!((got - exact) as f64 / exact.max(1) as f64 <= bound,
            "p{}: {} vs exact {}", pct, got, exact);
    }

    #[test]
    fn merge_equals_recording_into_one(
        a in proptest::collection::vec(0u64..1_000_000, 0..100),
        b in proptest::collection::vec(0u64..1_000_000, 0..100),
    ) {
        // Recording the union from one thread must equal recording the
        // halves from two live threads and merging — the snapshot is a
        // merge over the thread stripes internally.
        let combined = AtomicHistogram::new();
        for &v in a.iter().chain(b.iter()) {
            combined.record(v);
        }
        let striped = AtomicHistogram::new();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for half in [&a, &b] {
                let (striped, barrier) = (&striped, &barrier);
                s.spawn(move || {
                    for &v in half {
                        striped.record(v);
                    }
                    barrier.wait();
                });
            }
        });
        let lhs = combined.snapshot();
        let rhs = striped.snapshot();
        prop_assert_eq!(lhs.count(), rhs.count());
        prop_assert_eq!(lhs.sum(), rhs.sum());
        for pct in [50.0, 90.0, 99.0, 99.9] {
            prop_assert_eq!(lhs.percentile(pct), rhs.percentile(pct));
        }
    }
}
