//! Provider fault tolerance end-to-end: the in-place store retry,
//! write-path failover, corrupt copies treated as misses, the replica
//! repairer, and the sliced-wait self-help hook. Deterministic
//! companions to the provider faults of `tests/small_scope.rs`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use blobseer::{
    Blob, BlobError, BlobSeer, ByteRange, Bytes, CrashPoint, FaultPlan, MemoryPageStore, PageId,
    PageStore, ProviderId,
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

/// 0 by default, a mix of `PROPTEST_SEED` when it is set: moves the
/// outage, its victim and which copies rot, so each seed of CI's stress
/// job damages other pages.
fn seed_offset() -> u64 {
    std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(0, |seed| seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33)
}

/// Which providers hold a copy of each page, by page id.
fn holders(plans: &[Arc<FaultPlan>]) -> BTreeMap<PageId, Vec<usize>> {
    let mut held = BTreeMap::<PageId, Vec<usize>>::new();
    for (i, plan) in plans.iter().enumerate() {
        for (pid, _) in plan.scan().unwrap() {
            held.entry(pid).or_default().push(i);
        }
    }
    held
}

/// Enough pages for the copy phase to run in several fork-join slices
/// (it cuts 64 live pages per slice), with three kinds of damage spread
/// over the whole page range, and so over the slices: failovers and
/// their strays from an outage during the ingest, single rotted chain
/// copies (some on failed-over pages, whose stray is then the only
/// verified copy left besides the chain's), and one page whose every
/// copy rots. The counts are exact: one refill per failover and per
/// rotted copy, one trim per failover, one unrepairable page.
#[test]
fn repair_across_many_slices_counts_every_kind_of_damage_exactly() {
    const PAGES: u64 = 320;
    const PER_APPEND: u64 = 8;
    let off = seed_offset();
    let (store, plans) = faulty_store(4, 2);
    let blob = store.create();
    let data: Vec<u8> =
        (0..PAGES * PSIZE).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();

    // One provider is down for 15 of the 40 appends. Placement skips it,
    // so a page's copies land on its chain {p, p + 1} except where the
    // chain's second slot is the dead provider: that copy fails over to
    // the next live provider and becomes a stray.
    let dead = (off % 4) as usize;
    let outage = 5 + off % 10..20 + off % 10;
    for (i, chunk) in data.chunks((PER_APPEND * PSIZE) as usize).enumerate() {
        let down = outage.contains(&(i as u64));
        if down {
            store.fail_provider(ProviderId(dead as u32)).unwrap();
        }
        let v = blob.append(chunk).unwrap();
        blob.sync(v).unwrap();
        if down {
            store.recover_provider(ProviderId(dead as u32)).unwrap();
        }
    }
    let failovers = store.stats_snapshot().failovers_total;
    assert!(failovers > 0, "the outage must force failovers");

    // Rot chain copies: every 5th failed-over page loses its one chain
    // copy, every 7th other page one of its two, and one other page
    // both of its copies.
    let before_provider = (dead + 3) % 4;
    let (mut rotted, mut stray_only, mut doomed) = (0u64, 0u64, None);
    let (mut failed_over, mut whole) = (0u64, 0u64);
    for (pid, held) in holders(&plans) {
        assert_eq!(held.len(), 2, "{pid:?} must have two copies before the damage");
        let chain_pair = (held[0] + 1) % 4 == held[1] || (held[1] + 1) % 4 == held[0];
        let rot = |i: usize| assert!(plans[i].corrupt_stored_page(pid).unwrap());
        if !chain_pair {
            // Held on the provider before the dead one and its fallback.
            assert!(held.contains(&before_provider));
            if (failed_over + off).is_multiple_of(5) {
                rot(before_provider);
                rotted += 1;
                stray_only += 1;
            }
            failed_over += 1;
            continue;
        }
        match (whole + off) % 7 {
            0 => {
                rot(held[((whole + off) / 7 % 2) as usize]);
                rotted += 1;
            }
            3 if doomed.is_none() => {
                rot(held[0]);
                rot(held[1]);
                doomed = Some(pid);
            }
            _ => {}
        }
        whole += 1;
    }
    assert_eq!(failed_over, failovers, "one stray per failover");
    assert!(stray_only > 0 && rotted > stray_only && doomed.is_some());

    let report = store.repair_replicas().unwrap();
    assert_eq!(report.pages_examined, PAGES as usize);
    assert!(report.pages_examined >= 4 * 64, "at least four slices");
    assert_eq!(report.providers_skipped, 0);
    assert_eq!(report.copies_repaired, failovers + rotted);
    assert_eq!(report.strays_trimmed, failovers);
    assert_eq!(report.pages_unrepairable, 1);
    assert_eq!(report.copies_failed, 0);

    // Converged: a second pass fixes and trims nothing, and still
    // reports the lost page.
    let second = store.repair_replicas().unwrap();
    assert_eq!(second.copies_repaired, 0);
    assert_eq!(second.strays_trimmed, 0);
    assert_eq!(second.copies_failed, 0);
    assert_eq!(second.pages_unrepairable, 1);
    assert_eq!(second.copies_verified, 2 * (PAGES - 1));

    // Every page but the lost one reads back byte-exact with any one
    // provider offline; the lost one fails typed.
    let snap = blob.latest().unwrap();
    let mut lost = 0;
    for page in 0..PAGES {
        let range = ByteRange::new(page * PSIZE, PSIZE);
        let expected = &data[(page * PSIZE) as usize..((page + 1) * PSIZE) as usize];
        match snap.read(range) {
            Err(BlobError::PageCorrupt { .. }) => lost += 1,
            other => {
                assert_eq!(&other.unwrap()[..], expected, "page {page}");
                for plan in &plans {
                    plan.set_offline(true);
                    assert_eq!(&snap.read(range).unwrap()[..], expected, "page {page}");
                    plan.set_offline(false);
                }
            }
        }
    }
    assert_eq!(lost, 1);
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
