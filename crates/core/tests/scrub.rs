//! The orphan scrubber end to end — the PR's acceptance scenario: kill
//! writers mid-update at every `CrashPoint`, let leases expire and
//! repair run, then `scrub_orphans` reclaims every leaked page
//! (provider storage returns to exactly the live-set size) while a
//! concurrent writer's in-flight, not-yet-referenced pages survive.

use blobseer::{BlobError, BlobSeer, ByteRange, Bytes, CrashPoint, Version};

const PSIZE: u64 = 1024;

fn store(lease_ttl: u64) -> BlobSeer {
    BlobSeer::builder()
        .page_size(PSIZE)
        .data_providers(4)
        .metadata_providers(2)
        .io_threads(2)
        .lease_ttl_ticks(lease_ttl)
        .build()
        .unwrap()
}

fn filled(len: u64, fill: u8) -> Bytes {
    Bytes::from(vec![fill; len as usize])
}

/// Crash a writer, recover through the production path (lease expiry +
/// sweep → abort + repair), and return the aborted version.
fn crash_and_repair(
    s: &BlobSeer,
    blob: &blobseer::Blob,
    data: Bytes,
    point: CrashPoint,
) -> Version {
    let v = blob.crash_append(data, point).unwrap();
    s.advance_lease_clock(s.config().lease_ttl_ticks + 1);
    let report = s.sweep_expired_leases();
    assert!(report.aborted.contains(&(blob.id(), v)), "sweep must abort {v}");
    v
}

#[test]
fn scrub_reclaims_every_crash_point_leak_exactly() {
    let s = store(50);
    let blob = s.create();

    // Healthy ingest: three 2-page appends.
    let mut last = Version(0);
    for fill in 1..=3u8 {
        last = blob.append(&vec![fill; 2 * PSIZE as usize]).unwrap();
    }
    blob.sync(last).unwrap();
    let live_bytes_before_crashes = s.stats().physical_bytes;
    assert_eq!(live_bytes_before_crashes, 6 * PSIZE);

    // Kill four writers, one per crash point, recovering in between.
    // Leak accounting per point (2-page aligned appends, so
    // AfterBoundaryPages stores the same state as AfterPrepare):
    //   AfterPrepare / AfterBoundaryPages / AfterPartialMetadata —
    //     the writer's 2 pages never get leaves; repair's fresh pages
    //     take their place in the tree → 2 leaked pages each;
    //   BeforeNotify — the writer's leaves are durable and win the
    //     `put_new` race, so the *repair's* 2 pages are the leak.
    for (i, point) in [
        CrashPoint::AfterPrepare,
        CrashPoint::AfterBoundaryPages,
        CrashPoint::AfterPartialMetadata,
        CrashPoint::BeforeNotify,
    ]
    .into_iter()
    .enumerate()
    {
        crash_and_repair(&s, &blob, filled(2 * PSIZE, 0xB0 + i as u8), point);
    }
    // A post-hole survivor proves the blob stayed healthy.
    let survivor = blob.append(&vec![9u8; 2 * PSIZE as usize]).unwrap();
    blob.sync(survivor).unwrap();

    // 4 crashed writers + 4 repairs stored 2 pages each; half of those
    // 16 pages are referenced by no leaf.
    let leaked = 8 * PSIZE;
    let live = live_bytes_before_crashes + 8 * PSIZE + 2 * PSIZE; // repairs/winners + survivor
    assert_eq!(s.stats().physical_bytes, live + leaked);

    // Snapshot every published version's bytes before the scrub.
    let before: Vec<(Version, Bytes)> = (1..=survivor.raw())
        .map(Version)
        .filter(|&v| !matches!(blob.snapshot(v), Err(BlobError::VersionAborted { .. })))
        .map(|v| {
            let snap = blob.snapshot(v).unwrap();
            (v, snap.read(ByteRange::new(0, snap.len())).unwrap())
        })
        .collect();
    assert_eq!(before.len(), 4, "v1..v3 + survivor");

    // The tentpole moment.
    let report = s.scrub_orphans().unwrap();
    assert_eq!(report.pages_reclaimed, 8);
    assert_eq!(report.bytes_reclaimed, leaked);
    assert_eq!(report.providers_scrubbed, 4);
    assert_eq!(report.providers_skipped, 0);
    assert_eq!(report.pages_exempt, 0, "deployment was quiescent");

    // Storage is back to exactly the live-set size...
    assert_eq!(s.stats().physical_bytes, live);
    // ...every published snapshot is byte-identical...
    for (v, bytes) in &before {
        let snap = blob.snapshot(*v).unwrap();
        assert_eq!(snap.read(ByteRange::new(0, snap.len())).unwrap(), *bytes, "{v} changed");
    }
    // ...and a second pass proves the fixpoint: everything scanned is
    // marked live, nothing reclaimed.
    let again = s.scrub_orphans().unwrap();
    assert_eq!(again.pages_reclaimed, 0);
    assert_eq!(again.pages_scanned as usize, again.pages_marked);
}

#[test]
fn concurrent_writers_inflight_pages_survive_the_scrub() {
    let s = store(1_000);
    let blob = s.create();
    let v1 = blob.append(&vec![1u8; PSIZE as usize]).unwrap();
    blob.sync(v1).unwrap();

    // v2's writer dies after storing its interior page (1.5-page
    // unaligned append: interior page stored, tail boundary never
    // written, no metadata at all). Its lease is still live.
    let dead = blob.crash_append(filled(PSIZE + PSIZE / 2, 2), CrashPoint::AfterPrepare).unwrap();

    // v3 pipelines in behind it. Its interior page is stored by the
    // caller thread right here; its completion stage then blocks on
    // v2's missing boundary metadata — an in-flight writer with a
    // stored page no leaf references yet.
    let p3 = blob.append_pipelined(filled(PSIZE + PSIZE / 2, 3)).unwrap();
    assert!(!p3.is_done());

    // Scrub *now*, mid-flight. v2's page is judged (writer dead, no
    // leaf → reclaimed); v3's page is exempted by the epoch cut.
    let report = s.scrub_orphans().unwrap();
    assert_eq!(report.pages_reclaimed, 1, "the dead writer's interior page");
    assert_eq!(report.bytes_reclaimed, PSIZE);
    assert!(report.pages_exempt >= 1, "the live writer's in-flight page");

    // Recovery: abort the dead version explicitly (advancing the clock
    // past the TTL would expire the *blocked* v3's lease too — its
    // stage cannot renew while parked on v2's metadata). The repair
    // path is identical; v3 wakes on the repair's `put_new`.
    blob.abort(dead).unwrap();
    assert_eq!(p3.wait().unwrap(), Version(3));
    blob.sync(Version(3)).unwrap();
    assert!(matches!(blob.snapshot(dead), Err(BlobError::VersionAborted { .. })));

    // v3's content survived the scrub byte for byte: v1's page, the
    // hole's zeros, then v3's own 1.5 pages.
    let snap = blob.snapshot(Version(3)).unwrap();
    assert_eq!(snap.len(), 4 * PSIZE);
    let bytes = snap.read(ByteRange::new(0, snap.len())).unwrap();
    assert!(bytes[..PSIZE as usize].iter().all(|&b| b == 1));
    assert!(bytes[PSIZE as usize..(2 * PSIZE + PSIZE / 2) as usize].iter().all(|&b| b == 0));
    assert!(bytes[(2 * PSIZE + PSIZE / 2) as usize..].iter().all(|&b| b == 3));

    // Our explicit abort may have raced the background sweeper's retry
    // of the same version; the race's loser leaks one repair pass —
    // the documented `put_new`-race leak — which a later scrub
    // reclaims once that repair retires its pin. Drain to quiescence
    // (bounded; the stray repair finishes promptly), then assert the
    // fixpoint.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let r = s.scrub_orphans().unwrap();
        if r.pages_reclaimed == 0 && r.pages_exempt == 0 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "scrub never reached quiescence");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let again = s.scrub_orphans().unwrap();
    assert_eq!(again.pages_reclaimed, 0);
    assert_eq!(again.pages_scanned as usize, again.pages_marked);
}

#[test]
fn scrub_reclaims_every_replica_of_an_orphan() {
    let s = BlobSeer::builder()
        .page_size(PSIZE)
        .data_providers(4)
        .metadata_providers(2)
        .io_threads(2)
        .replication(2)
        .lease_ttl_ticks(10)
        .build()
        .unwrap();
    let blob = s.create();
    let v1 = blob.append(&vec![1u8; PSIZE as usize]).unwrap();
    blob.sync(v1).unwrap();
    crash_and_repair(&s, &blob, filled(PSIZE, 2), CrashPoint::AfterPrepare);

    // Leak = the dead writer's page on its primary *and* its replica;
    // both copies carry the same pid and both are reclaimed.
    let report = s.scrub_orphans().unwrap();
    assert_eq!(report.pages_reclaimed, 2);
    assert_eq!(report.bytes_reclaimed, 2 * PSIZE);
    // Live set: v1's page + the repair's page, 2 copies each.
    assert_eq!(s.stats().physical_bytes, 4 * PSIZE);
    assert_eq!(&blob.snapshot(v1).unwrap().read(ByteRange::new(0, PSIZE)).unwrap()[..4], [1u8; 4]);
}

#[test]
fn offline_providers_are_skipped_and_reswept_after_recovery() {
    let s = store(10);
    let blob = s.create();
    let v1 = blob.append(&vec![1u8; 4 * PSIZE as usize]).unwrap();
    blob.sync(v1).unwrap();
    // Round-robin over 4 providers: the dead writer's 4 pages land one
    // per provider.
    crash_and_repair(&s, &blob, filled(4 * PSIZE, 2), CrashPoint::AfterPrepare);

    s.fail_provider(blobseer::ProviderId(0)).unwrap();
    let report = s.scrub_orphans().unwrap();
    assert_eq!(report.providers_skipped, 1);
    assert_eq!(report.providers_scrubbed, 3);
    assert_eq!(report.pages_reclaimed, 3, "the offline provider keeps its orphan");

    s.recover_provider(blobseer::ProviderId(0)).unwrap();
    let report = s.scrub_orphans().unwrap();
    assert_eq!(report.providers_skipped, 0);
    assert_eq!(report.pages_reclaimed, 1, "the recovered provider's orphan goes now");
    assert_eq!(s.stats().physical_bytes, 8 * PSIZE, "v1 + repair");
}

#[test]
fn scrub_composes_with_retire_versions() {
    let s = store(10);
    let blob = s.create();
    for fill in 1..=4u8 {
        let v = blob.write(&vec![fill; 2 * PSIZE as usize], 0).unwrap();
        blob.sync(v).unwrap();
    }
    crash_and_repair(&s, &blob, filled(2 * PSIZE, 9), CrashPoint::AfterPrepare);

    // GC retires old overwritten history, the scrubber takes the leak;
    // neither touches the other's reclaim.
    let gc = blob.retire_versions(Version(4)).unwrap();
    assert!(gc.pages_removed > 0, "overwritten history reclaimed");
    let report = s.scrub_orphans().unwrap();
    assert_eq!(report.pages_reclaimed, 2, "the crashed writer's pages");

    // v4 still reads, and the deployment is at its live fixpoint.
    let snap = blob.snapshot(Version(4)).unwrap();
    assert!(snap.read(ByteRange::new(0, 2 * PSIZE)).unwrap().iter().all(|&b| b == 4));
    let again = s.scrub_orphans().unwrap();
    assert_eq!(again.pages_reclaimed, 0);
    assert_eq!(again.pages_scanned as usize, again.pages_marked);
}

#[test]
fn branches_pin_shared_history_through_a_scrub() {
    let s = store(10);
    let parent = s.create();
    let v1 = parent.append(&vec![1u8; 2 * PSIZE as usize]).unwrap();
    parent.sync(v1).unwrap();
    let fork = parent.branch(v1).unwrap();
    let f2 = fork.append(&vec![2u8; PSIZE as usize]).unwrap();
    fork.sync(f2).unwrap();
    crash_and_repair(&s, &parent, filled(PSIZE, 3), CrashPoint::AfterPrepare);

    let report = s.scrub_orphans().unwrap();
    assert_eq!(report.pages_reclaimed, 1, "only the dead writer's page");
    // Both lineages still read their shared and private bytes.
    assert!(parent
        .snapshot(v1)
        .unwrap()
        .read(ByteRange::new(0, 2 * PSIZE))
        .unwrap()
        .iter()
        .all(|&b| b == 1));
    let fsnap = fork.snapshot(f2).unwrap();
    let bytes = fsnap.read(ByteRange::new(0, 3 * PSIZE)).unwrap();
    assert!(bytes[..2 * PSIZE as usize].iter().all(|&b| b == 1));
    assert!(bytes[2 * PSIZE as usize..].iter().all(|&b| b == 2));
}
