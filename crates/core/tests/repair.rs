//! Provider fault tolerance end-to-end: the in-place store retry,
//! write-path failover, corrupt copies treated as misses, the replica
//! repairer, and the sliced-wait self-help hook. Deterministic
//! companions to the randomized `tests/prop_provider_crash.rs`.

use std::sync::Arc;
use std::time::Duration;

use blobseer::{
    Blob, BlobError, BlobSeer, ByteRange, Bytes, CrashPoint, FaultPlan, MemoryPageStore, PageStore,
};

const PSIZE: u64 = 64;

/// A deployment whose every data provider sits behind a caller-held
/// [`FaultPlan`].
fn faulty_store(providers: usize, replication: usize) -> (BlobSeer, Vec<Arc<FaultPlan>>) {
    let plans: Vec<Arc<FaultPlan>> = (0..providers)
        .map(|i| Arc::new(FaultPlan::with_seed(Arc::new(MemoryPageStore::new()), 0x70 + i as u64)))
        .collect();
    let store = BlobSeer::builder()
        .page_size(PSIZE)
        .metadata_providers(2)
        .io_threads(2)
        .replication(replication)
        .page_stores(plans.iter().map(|p| Arc::clone(p) as Arc<dyn PageStore>).collect())
        .build()
        .unwrap();
    (store, plans)
}

fn read_all(blob: &Blob) -> Vec<u8> {
    let snap = blob.latest().unwrap();
    snap.read(ByteRange::new(0, snap.len())).unwrap().to_vec()
}

#[test]
fn offline_provider_fails_over_and_counts() {
    let (store, plans) = faulty_store(4, 2);
    let blob = store.create();
    let data: Vec<u8> = (0..8 * PSIZE).map(|i| i as u8).collect();

    // A healthy deployment never fails over.
    let v = blob.append(&data).unwrap();
    blob.sync(v).unwrap();
    assert_eq!(store.stats_snapshot().failovers_total, 0, "healthy stores must not fail over");

    // Kill one provider, then write enough pages that round-robin
    // placement is guaranteed to pick it as primary or replica.
    plans[1].set_offline(true);
    let v = blob.append(&data).unwrap(); // (a) the update must succeed
    blob.sync(v).unwrap();

    let snap = store.stats_snapshot();
    assert!(snap.failovers_total > 0, "a dead chain member must force failovers");
    // Failover *fills* the copy count from fallbacks: with 4 providers
    // and one dead there is always a live fallback, so no store
    // publishes under-replicated.
    assert_eq!(snap.under_replicated_stores, 0);
    assert_eq!(read_all(&blob), data.repeat(2));

    // With fewer live providers than the replication factor, failover
    // runs out of fallbacks: the update still succeeds (one copy
    // landed) and the shortfall is counted.
    plans[2].set_offline(true);
    plans[3].set_offline(true);
    let v = blob.append(&data).unwrap();
    blob.sync(v).unwrap();
    assert!(store.stats_snapshot().under_replicated_stores > 0);
    // Once the deployment recovers, nothing was lost.
    for plan in &plans {
        plan.set_offline(false);
    }
    assert_eq!(read_all(&blob), data.repeat(3));
}

#[test]
fn a_failed_store_is_retried_once_before_failing_over() {
    // Two providers, no replication: round-robin puts the first page
    // on provider 0 and the second on provider 1, and the other
    // provider is each copy's failover target.
    let (store, plans) = faulty_store(2, 1);
    let blob = store.create();
    let page = |b: u8| vec![b; PSIZE as usize];

    // One transient error: the retry lands the copy where it belongs.
    plans[0].fail_next_stores(1);
    let v = blob.append(&page(1)).unwrap();
    blob.sync(v).unwrap();
    assert_eq!(plans[0].injected_errors(), 1, "the fault must hit the page's primary");
    assert_eq!(store.stats_snapshot().failovers_total, 0, "a retried store does not fail over");
    assert_eq!(plans[0].scan().unwrap().len(), 1);

    // Two errors in a row exhaust the retry: the copy fails over.
    plans[1].fail_next_stores(2);
    let v = blob.append(&page(2)).unwrap();
    blob.sync(v).unwrap();
    assert_eq!(plans[1].injected_errors(), 2, "first attempt and retry both hit the primary");
    assert_eq!(store.stats_snapshot().failovers_total, 1);
    assert_eq!(plans[0].scan().unwrap().len(), 2, "the copy landed on the fallback");
    assert_eq!(read_all(&blob), [page(1), page(2)].concat());
}

#[test]
fn no_live_provider_fails_the_update_typed() {
    let (store, plans) = faulty_store(2, 2);
    let blob = store.create();
    for plan in &plans {
        plan.set_offline(true);
    }
    let err = blob.append(&[1u8; 64]).unwrap_err();
    assert!(matches!(err, BlobError::Storage(_)), "got {err:?}");
}

#[test]
fn repair_refills_chains_and_trims_strays_after_failover() {
    let (store, plans) = faulty_store(4, 2);
    let blob = store.create();

    plans[0].set_offline(true);
    let data: Vec<u8> = (0..8 * PSIZE).map(|i| (i * 7) as u8).collect();
    let v = blob.append(&data).unwrap();
    blob.sync(v).unwrap();
    let failovers = store.stats_snapshot().failovers_total;
    assert!(failovers > 0);

    // Recover and repair: every failed-over copy moves back onto its
    // chain slot, and the redundant fallback copy is trimmed.
    plans[0].set_offline(false);
    let report = store.repair_replicas().unwrap();
    assert_eq!(report.providers_skipped, 0);
    assert_eq!(report.pages_unrepairable, 0);
    assert_eq!(report.copies_repaired, failovers, "one refill per failover");
    assert_eq!(report.strays_trimmed, failovers, "one trim per failover");
    assert!(report.bytes_copied > 0);

    // Latency timers recorded (success-only rule): both repair phases.
    let snap = store.stats_snapshot();
    assert_eq!(snap.repair_mark.count, 1);
    assert_eq!(snap.repair_copy.count, 1);

    // Full replication restored: ANY single provider may now die
    // without losing a byte.
    for plan in &plans {
        plan.set_offline(true);
        assert_eq!(read_all(&blob), data);
        plan.set_offline(false);
    }

    // A healthy deployment repairs to a no-op.
    let second = store.repair_replicas().unwrap();
    assert_eq!(second.copies_repaired, 0);
    assert_eq!(second.strays_trimmed, 0);
    assert_eq!(second.copies_failed, 0);
    assert!(second.copies_verified >= 2, "chain copies re-verified");
}

#[test]
fn corrupt_copy_reads_as_miss_and_repair_replaces_it() {
    let (store, plans) = faulty_store(3, 2);
    let blob = store.create();
    let data: Vec<u8> = (0..2 * PSIZE).map(|i| (i * 3) as u8).collect();
    let v = blob.append(&data).unwrap();
    blob.sync(v).unwrap();

    // Rot every copy on one provider at rest.
    let mut flipped = 0;
    for (pid, _) in plans[0].scan().unwrap() {
        assert!(plans[0].corrupt_stored_page(pid).unwrap());
        flipped += 1;
    }
    assert!(flipped > 0, "round-robin must have placed copies on prov#0");

    // Reads fall back to a verifying replica — bytes are pristine —
    // and the engine counts each corrupt copy it stepped over.
    assert_eq!(read_all(&blob), data);
    let snap = store.stats_snapshot();
    assert!(snap.corrupt_pages_detected > 0);

    // Repair replaces exactly the rotted copies (the one legitimate
    // overwrite), and a follow-up pass is clean.
    let report = store.repair_replicas().unwrap();
    assert_eq!(report.copies_repaired, flipped);
    assert_eq!(report.pages_unrepairable, 0);
    let second = store.repair_replicas().unwrap();
    assert_eq!(second.copies_repaired, 0);

    // Per-provider split: the rotted provider detected the corruption
    // and received the repairs.
    let stats = store.stats();
    let p0 = stats.providers.iter().find(|p| p.id == blobseer::ProviderId(0)).unwrap();
    assert!(p0.corrupt_detected >= flipped);
    assert_eq!(p0.pages_repaired, flipped);
}

#[test]
fn page_corrupt_surfaces_only_when_every_copy_rots() {
    let (store, plans) = faulty_store(2, 2);
    let blob = store.create();
    let v = blob.append(&vec![9u8; PSIZE as usize]).unwrap();
    blob.sync(v).unwrap();

    // Both copies of the single page rot: nothing verifies anywhere.
    for plan in &plans {
        for (pid, _) in plan.scan().unwrap() {
            plan.corrupt_stored_page(pid).unwrap();
        }
    }
    let snap = blob.latest().unwrap();
    let err = snap.read(ByteRange::new(0, PSIZE)).unwrap_err();
    assert!(matches!(err, BlobError::PageCorrupt { .. }), "got {err:?}");

    // The repairer has no verified source either: it reports the page
    // and touches nothing.
    let report = store.repair_replicas().unwrap();
    assert_eq!(report.pages_unrepairable, 1);
    assert_eq!(report.copies_repaired, 0);
}

#[test]
fn new_metrics_appear_in_the_prometheus_exposition() {
    let (store, plans) = faulty_store(3, 2);
    let blob = store.create();
    plans[2].set_offline(true);
    let v = blob.append(&vec![5u8; 4 * PSIZE as usize]).unwrap();
    blob.sync(v).unwrap();
    plans[2].set_offline(false);
    store.repair_replicas().unwrap();

    let text = store.metrics_text();
    for metric in [
        "blobseer_failovers_total",
        "blobseer_corrupt_pages_detected_total",
        "blobseer_under_replicated_stores_total",
        "blobseer_repair_mark_latency_seconds",
        "blobseer_repair_copy_latency_seconds",
    ] {
        assert!(text.contains(metric), "{metric} missing from exposition:\n{text}");
    }
}

#[test]
fn sliced_wait_self_help_recovers_a_blocked_writer() {
    // A writer dies wedged; a second writer blocks on the dead
    // version's never-coming metadata. The lease expires only *after*
    // the second writer is already parked — the upfront self-help
    // check missed it — so recovery rides entirely on the sliced-wait
    // hook: wait a bit, sweep, retry.
    let store = BlobSeer::builder()
        .page_size(PSIZE)
        .data_providers(2)
        .metadata_providers(2)
        .io_threads(1)
        .lease_ttl_ticks(5)
        .metadata_wait(Duration::from_secs(30))
        .build()
        .unwrap();
    let blob = store.create();
    // Unaligned sizes force v2 to boundary-merge bytes of snapshot v1.
    let v1 = blob.crash_append(Bytes::from(vec![1u8; 10]), CrashPoint::AfterPrepare).unwrap();

    let started = std::time::Instant::now();
    let writer = {
        let blob = blob.clone();
        std::thread::spawn(move || blob.append(&[2u8; 10]))
    };
    // Let the writer park, then lapse the dead writer's lease.
    std::thread::sleep(Duration::from_millis(100));
    store.advance_lease_clock(6);

    let v2 = writer.join().unwrap().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "writer must recover via self-help slices, not the full timeout"
    );
    assert!(matches!(blob.snapshot(v1), Err(BlobError::VersionAborted { .. })));
    blob.sync(v2).unwrap();
    // The hole reads as zeros (v1 stored no leaves), the survivor's
    // bytes follow.
    let snap = blob.snapshot(v2).unwrap();
    let bytes = snap.read(ByteRange::new(0, 20)).unwrap();
    assert_eq!(&bytes[..10], &[0u8; 10]);
    assert_eq!(&bytes[10..], &[2u8; 10]);
}
