//! Property: the orphan scrubber is safe and complete. For any random
//! mix of surviving appends, crashed writers (every `CrashPoint`),
//! explicit aborts and GC retires:
//!
//! (a) **safety** — no live page is ever reclaimed: every readable
//!     snapshot is byte-identical before and after `scrub_orphans`;
//! (b) **completeness** — all leaked pages are reclaimed: once the
//!     deployment is quiescent a second scrub finds every scanned page
//!     marked live and deletes nothing (the leak counter is zero);
//! (c) **accounting** — physical storage drops by exactly the bytes
//!     the report claims.

use blobseer::{BlobError, BlobSeer, ByteRange, Bytes, CrashPoint, Version};
use proptest::prelude::*;

const PSIZE: u64 = 32;

#[derive(Clone, Copy, Debug)]
enum Op {
    /// A healthy append that publishes.
    Append { len: usize, fill: u8 },
    /// A writer that dies at the given pipeline prefix; recovery (lease
    /// expiry + sweep + repair) runs before the next op.
    Crash { len: usize, fill: u8, point: CrashPoint },
    /// A pipelined append cancelled right away (explicit abort; racing
    /// completion is allowed to win).
    Abort { len: usize, fill: u8 },
    /// Retire all history below the newest readable version.
    Retire,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let point = prop_oneof![
        Just(CrashPoint::AfterPrepare),
        Just(CrashPoint::AfterBoundaryPages),
        Just(CrashPoint::AfterPartialMetadata),
        Just(CrashPoint::BeforeNotify),
    ];
    prop_oneof![
        3 => (1usize..200, any::<u8>()).prop_map(|(len, fill)| Op::Append { len, fill }),
        2 => (1usize..200, any::<u8>(), point)
            .prop_map(|(len, fill, point)| Op::Crash { len, fill, point }),
        1 => (1usize..100, any::<u8>()).prop_map(|(len, fill)| Op::Abort { len, fill }),
        1 => Just(Op::Retire),
    ]
}

fn fill_bytes(len: usize, fill: u8) -> Bytes {
    Bytes::from(
        (0..len).map(|i| fill.wrapping_add(i as u8).wrapping_mul(7) | 1).collect::<Vec<_>>(),
    )
}

/// Every still-readable snapshot's bytes, oldest first.
fn readable_snapshots(blob: &blobseer::Blob, upto: Version) -> Vec<(Version, Bytes)> {
    (1..=upto.raw())
        .map(Version)
        .filter_map(|v| match blob.snapshot(v) {
            Ok(snap) => {
                let bytes = snap.read(ByteRange::new(0, snap.len())).unwrap();
                Some((v, bytes))
            }
            Err(BlobError::VersionAborted { .. }) | Err(BlobError::VersionRetired { .. }) => None,
            Err(other) => panic!("unexpected read error on {v}: {other}"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10,
        .. ProptestConfig::default()
    })]

    #[test]
    fn scrub_never_reclaims_live_pages_and_reclaims_all_leaks(
        ops in proptest::collection::vec(op_strategy(), 1..25)
    ) {
        let store = BlobSeer::builder()
            .page_size(PSIZE)
            .data_providers(3)
            .metadata_providers(2)
            .io_threads(2)
            .pipeline_threads(2)
            .lease_ttl_ticks(64)
            .build()
            .unwrap();
        let blob = store.create();
        let ttl = store.config().lease_ttl_ticks;
        let mut last_assigned = Version(0);

        for op in &ops {
            match *op {
                Op::Append { len, fill } => {
                    let v = blob.append_bytes(fill_bytes(len, fill)).unwrap();
                    blob.sync(v).unwrap();
                    last_assigned = v;
                }
                Op::Crash { len, fill, point } => {
                    let v = blob.crash_append(fill_bytes(len, fill), point).unwrap();
                    store.advance_lease_clock(ttl + 1);
                    let report = store.sweep_expired_leases();
                    prop_assert!(report.aborted.contains(&(blob.id(), v)) || matches!(blob.snapshot(v), Err(BlobError::VersionAborted { .. })));
                    last_assigned = v;
                }
                Op::Abort { len, fill } => {
                    let pending = blob.append_pipelined(fill_bytes(len, fill)).unwrap();
                    last_assigned = pending.version();
                    match blob.abort(pending.version()) {
                        Ok(()) | Err(BlobError::AbortConflict(_)) => {}
                        Err(other) => panic!("abort failed: {other}"),
                    }
                    // The cancelled stage may still be queued, holding
                    // its epoch pin; a scrub before it runs would exempt
                    // (or later reclaim) its pages. The stage drops the
                    // pin before it resolves, so waiting suffices.
                    let _ = pending.wait();
                }
                Op::Retire => {
                    let keep = blob.recent_version().unwrap();
                    if keep > Version(0) {
                        match blob.retire_versions(keep) {
                            // An Abort op whose explicit abort lost the
                            // race leaves a published version; a
                            // pending abort can also still be in
                            // flight. Both surface as GcConflict —
                            // retirement is simply skipped this round.
                            Ok(_) | Err(BlobError::GcConflict(_)) => {}
                            Err(other) => panic!("retire failed: {other}"),
                        }
                    }
                }
            }
        }
        // Quiesce: any abort-raced completion publishes, stuck repairs
        // retry, and the in-flight table drains.
        if last_assigned > Version(0) {
            match blob.sync(last_assigned) {
                Ok(()) | Err(BlobError::VersionAborted { .. }) => {}
                Err(other) => panic!("final sync failed: {other}"),
            }
        }
        store.advance_lease_clock(ttl + 1);
        store.sweep_expired_leases();

        // (a) safety: readable snapshots are byte-identical across the
        // scrub.
        let before = readable_snapshots(&blob, last_assigned);
        let physical_before = store.stats().physical_bytes;
        let report = store.scrub_orphans().unwrap();
        let after = readable_snapshots(&blob, last_assigned);
        prop_assert_eq!(before, after, "a live page was reclaimed");

        // (c) accounting: the report's bytes match the stores'.
        prop_assert_eq!(
            store.stats().physical_bytes,
            physical_before - report.bytes_reclaimed
        );

        // (b) completeness: at quiescence the leak counter is zero —
        // everything still stored is marked live, and a second pass
        // reclaims nothing.
        let again = store.scrub_orphans().unwrap();
        prop_assert_eq!(again.pages_reclaimed, 0, "first scrub left a leak behind");
        prop_assert_eq!(again.pages_exempt, 0);
        prop_assert_eq!(again.pages_scanned as usize, again.pages_marked);
        prop_assert_eq!(again.pages_scanned, store.stats().physical_pages as u64);
    }
}
