//! Property: elastic membership is invisible to readers. For any
//! random interleaving of healthy appends, crashed writers, GC
//! retires, provider joins (`add_provider`), provider drains
//! (`drain_provider`) and orphan scrubs:
//!
//! (a) **oracle equivalence** — every snapshot of the elastic
//!     deployment is byte-identical to the same snapshot of an oracle
//!     deployment that ran the same ingest ops on a static cluster
//!     (joins/drains/scrubs elided): membership churn never changes
//!     what readers see, only where the bytes live;
//! (b) **drain completeness** — a successfully drained provider holds
//!     **zero** pages (its backing store is literally empty), and it
//!     stays empty: retirement refuses all later stores;
//! (c) **convergence** — once quiescent, a follow-up
//!     `repair_replicas` copies nothing and a second `scrub_orphans`
//!     reclaims nothing: the drain left a clean, fully replicated
//!     deployment.
//!
//! Crashed writers use the deterministic lease path (crash, advance
//! the clock, sweep) so the elastic and oracle runs cannot diverge on
//! which versions abort — that keeps the oracle comparison exact
//! rather than modulo races.

use std::sync::Arc;

use blobseer::{
    BlobError, BlobSeer, ByteRange, Bytes, CrashPoint, MemoryPageStore, PageStore, ProviderId,
    Version,
};
use proptest::prelude::*;

const PSIZE: u64 = 32;

#[derive(Clone, Copy, Debug)]
enum Op {
    /// A healthy append that publishes (runs on both deployments).
    Append { len: usize, fill: u8 },
    /// A writer that dies at the given pipeline prefix; recovery (lease
    /// expiry + sweep) runs before the next op (both deployments).
    Crash { len: usize, fill: u8, point: CrashPoint },
    /// Retire all history below the newest readable version (both).
    Retire,
    /// Join a fresh provider (elastic deployment only).
    AddProvider,
    /// Drain the `pick`-th registered provider (elastic only). A
    /// refusal ([`BlobError::DrainConflict`] — already retired, or too
    /// few survivors) is a legal outcome; anything else must succeed.
    Drain { pick: usize },
    /// Reclaim leaked pages mid-run (elastic only).
    Scrub,
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
        1 => Just(Op::Retire),
        1 => Just(Op::AddProvider),
        2 => (0usize..8).prop_map(|pick| Op::Drain { pick }),
        1 => Just(Op::Scrub),
    ]
}

fn fill_bytes(len: usize, fill: u8) -> Bytes {
    Bytes::from(
        (0..len).map(|i| fill.wrapping_add(i as u8).wrapping_mul(7) | 1).collect::<Vec<_>>(),
    )
}

fn elastic_store(stores: &[Arc<MemoryPageStore>]) -> BlobSeer {
    BlobSeer::builder()
        .page_size(PSIZE)
        .data_providers(stores.len())
        .metadata_providers(2)
        .io_threads(2)
        .lease_ttl_ticks(64)
        .replication(2)
        .page_stores(stores.iter().map(|s| s.clone() as Arc<dyn PageStore>).collect())
        .build()
        .unwrap()
}

fn oracle_store() -> BlobSeer {
    BlobSeer::builder()
        .page_size(PSIZE)
        .data_providers(3)
        .metadata_providers(2)
        .io_threads(2)
        .lease_ttl_ticks(64)
        .replication(2)
        .build()
        .unwrap()
}

/// The reader's view of every version up to `upto`: `Some(bytes)` if
/// readable, `None` if aborted or retired. Any other error panics.
fn reader_view(blob: &blobseer::Blob, upto: Version) -> Vec<Option<Bytes>> {
    (1..=upto.raw())
        .map(Version)
        .map(|v| match blob.snapshot(v) {
            Ok(snap) => Some(snap.read(ByteRange::new(0, snap.len())).unwrap()),
            Err(BlobError::VersionAborted { .. }) | Err(BlobError::VersionRetired { .. }) => None,
            Err(other) => panic!("unexpected read error on {v}: {other}"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        .. ProptestConfig::default()
    })]

    #[test]
    fn membership_churn_is_invisible_to_readers(
        ops in proptest::collection::vec(op_strategy(), 1..20)
    ) {
        // Elastic deployment: shared page-store handles, one per
        // provider, indexed by provider id — invariant (b) inspects
        // them directly.
        let mut page_stores: Vec<Arc<MemoryPageStore>> =
            (0..3).map(|_| Arc::new(MemoryPageStore::new())).collect();
        let store = elastic_store(&page_stores);
        let oracle = oracle_store();
        let blob = store.create();
        let oracle_blob = oracle.create();
        let ttl = store.config().lease_ttl_ticks;

        let mut last_assigned = Version(0);
        let mut drained: Vec<ProviderId> = Vec::new();

        for op in &ops {
            match *op {
                Op::Append { len, fill } => {
                    let data = fill_bytes(len, fill);
                    let v = blob.append_bytes(data.clone()).unwrap();
                    blob.sync(v).unwrap();
                    let ov = oracle_blob.append_bytes(data).unwrap();
                    oracle_blob.sync(ov).unwrap();
                    prop_assert_eq!(v, ov, "deployments diverged on version assignment");
                    last_assigned = v;
                }
                Op::Crash { len, fill, point } => {
                    let data = fill_bytes(len, fill);
                    let v = blob.crash_append(data.clone(), point).unwrap();
                    store.advance_lease_clock(ttl + 1);
                    let report = store.sweep_expired_leases();
                    prop_assert!(report.aborted.contains(&(blob.id(), v)));
                    let ov = oracle_blob.crash_append(data, point).unwrap();
                    oracle.advance_lease_clock(ttl + 1);
                    let oreport = oracle.sweep_expired_leases();
                    prop_assert!(oreport.aborted.contains(&(oracle_blob.id(), ov)));
                    prop_assert_eq!(v, ov);
                    last_assigned = v;
                }
                Op::Retire => {
                    let keep = blob.recent_version().unwrap();
                    prop_assert_eq!(keep, oracle_blob.recent_version().unwrap());
                    if keep > Version(0) {
                        // All ingest is quiescent between ops, so the
                        // two deployments must agree on the outcome.
                        let res = blob.retire_versions(keep);
                        let ores = oracle_blob.retire_versions(keep);
                        match (res, ores) {
                            (Ok(_), Ok(_)) => {}
                            (Err(BlobError::GcConflict(_)), Err(BlobError::GcConflict(_))) => {}
                            (res, ores) => panic!(
                                "retire outcomes diverged: elastic {res:?}, oracle {ores:?}"
                            ),
                        }
                    }
                }
                Op::AddProvider => {
                    let backing = Arc::new(MemoryPageStore::new());
                    let id = store.add_provider_store(backing.clone() as Arc<dyn PageStore>);
                    // Ids are assigned sequentially and never reused,
                    // so the handle vec stays indexable by raw id.
                    prop_assert_eq!(id, ProviderId(page_stores.len() as u32));
                    page_stores.push(backing);
                }
                Op::Drain { pick } => {
                    let victim = ProviderId((pick % page_stores.len()) as u32);
                    match store.drain_provider(victim) {
                        Ok(report) => {
                            prop_assert_eq!(report.provider, victim);
                            // (b) drain completeness: the victim's
                            // backing store is literally empty.
                            prop_assert_eq!(
                                page_stores[victim.raw() as usize].page_count(),
                                0,
                                "drained provider still holds pages"
                            );
                            drained.push(victim);
                        }
                        // Already retired / being re-picked, or too few
                        // survivors: a legal refusal, nothing moved.
                        Err(BlobError::DrainConflict(_)) => {}
                        Err(other) => panic!("drain of {victim} failed: {other}"),
                    }
                }
                Op::Scrub => {
                    store.scrub_orphans().unwrap();
                }
            }
        }

        // Quiesce both deployments.
        if last_assigned > Version(0) {
            match blob.sync(last_assigned) {
                Ok(()) | Err(BlobError::VersionAborted { .. }) => {}
                Err(other) => panic!("final sync failed: {other}"),
            }
            match oracle_blob.sync(last_assigned) {
                Ok(()) | Err(BlobError::VersionAborted { .. }) => {}
                Err(other) => panic!("final oracle sync failed: {other}"),
            }
        }
        store.advance_lease_clock(ttl + 1);
        store.sweep_expired_leases();
        oracle.advance_lease_clock(ttl + 1);
        oracle.sweep_expired_leases();

        // (a) oracle equivalence: the reader's view of every version is
        // identical on the elastic and static deployments — including
        // *which* versions are readable at all.
        let elastic_view = reader_view(&blob, last_assigned);
        let oracle_view = reader_view(&oracle_blob, last_assigned);
        prop_assert_eq!(
            elastic_view, oracle_view,
            "membership churn changed what readers see"
        );

        // (c) convergence: scrub to reclaim crash leaks, then one
        // repair pass converges the copy placement to the post-churn
        // chains — a *join* legitimately re-routes successor chains,
        // so this pass may move copies (that is the rebalance). After
        // it, the deployment is a fixed point: a second repair copies
        // and trims nothing, a second scrub reclaims nothing, and the
        // reader's view never wavered.
        store.scrub_orphans().unwrap();
        let view_before = reader_view(&blob, last_assigned);
        let rebalance = store.repair_replicas().unwrap();
        prop_assert_eq!(rebalance.copies_failed, 0);
        prop_assert_eq!(
            rebalance.pages_unrepairable, 0,
            "membership churn lost the last copy of a page"
        );
        let repair = store.repair_replicas().unwrap();
        prop_assert_eq!(repair.copies_repaired, 0, "rebalance left a chain slot unfilled");
        prop_assert_eq!(repair.copies_failed, 0);
        prop_assert_eq!(repair.pages_unrepairable, 0);
        prop_assert_eq!(repair.strays_trimmed, 0, "rebalance left a stray copy behind");
        let scrub = store.scrub_orphans().unwrap();
        prop_assert_eq!(scrub.pages_reclaimed, 0, "the rebalance or first scrub left a leak");
        prop_assert_eq!(reader_view(&blob, last_assigned), view_before);

        // (b) again, end-state: retirement is forever — every drained
        // provider is still empty after all subsequent ingest, repair
        // and scrubbing.
        for victim in drained {
            prop_assert_eq!(page_stores[victim.raw() as usize].page_count(), 0);
        }
        let members = store.membership();
        prop_assert_eq!(members.registered, page_stores.len());
    }
}
