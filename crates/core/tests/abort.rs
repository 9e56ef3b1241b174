//! Writer fault tolerance end to end: version leases, abort/skip, and
//! the repair path. The acceptance scenario of the PR: kill a writer
//! mid-pipelined-update and watch every later version publish after
//! lease expiry, with the aborted version skipped in every snapshot
//! lineage and surfaced as `VersionAborted` to racing readers.

use std::sync::Arc;
use std::time::Duration;

use blobseer::{
    BlobError, BlobSeer, ByteRange, Bytes, CrashPoint, FaultPlan, MemoryPageStore, PageStore,
    Version,
};

const PSIZE: u64 = 4096;

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

fn filled(len: usize, fill: u8) -> Bytes {
    Bytes::from(vec![fill; len])
}

#[test]
fn dead_writer_is_swept_and_later_versions_publish() {
    let s = store(20);
    let blob = s.create();
    let v1 = blob.append(&vec![1u8; PSIZE as usize]).unwrap();
    blob.sync(v1).unwrap();

    // The writer of v2 dies right after version assignment.
    let dead = blob.crash_append(filled(PSIZE as usize, 2), CrashPoint::AfterPrepare).unwrap();
    assert_eq!(dead, Version(2));

    // Two later pipelined writers complete; they cannot publish yet.
    let p3 = blob.append_pipelined(filled(PSIZE as usize, 3)).unwrap();
    let p4 = blob.append_pipelined(filled(PSIZE as usize, 4)).unwrap();
    assert_eq!(p3.wait().unwrap(), Version(3));
    assert_eq!(p4.wait().unwrap(), Version(4));
    assert_eq!(blob.recent_version().unwrap(), v1, "publication wedged behind the hole");

    // A racing reader parks on the dead version.
    let reader = {
        let blob = blob.clone();
        std::thread::spawn(move || blob.sync(dead))
    };
    std::thread::sleep(Duration::from_millis(20));

    // Lease expiry + sweep recovers the blob.
    s.advance_lease_clock(21);
    let report = s.sweep_expired_leases();
    assert_eq!(report.aborted, vec![(blob.id(), dead)]);
    assert!(report.pending.is_empty());

    // (a) every later version published,
    blob.sync(Version(4)).unwrap();
    assert_eq!(blob.recent_version().unwrap(), Version(4));
    // (b) the racing reader got the typed error,
    assert!(
        matches!(reader.join().unwrap(), Err(BlobError::VersionAborted { version, .. }) if version == dead)
    );
    // (c) the hole is skipped in every snapshot lineage,
    assert!(matches!(blob.snapshot(dead), Err(BlobError::VersionAborted { .. })));
    assert!(matches!(blob.size(dead), Err(BlobError::VersionAborted { .. })));
    assert!(matches!(blob.branch(dead), Err(BlobError::VersionAborted { .. })));
    // (d) later snapshots read the hole as zeros and survivors intact.
    let snap = blob.snapshot(Version(4)).unwrap();
    assert_eq!(snap.len(), 4 * PSIZE, "aborted appends keep their assigned offsets");
    let bytes = snap.read(ByteRange::new(0, snap.len())).unwrap();
    let page = PSIZE as usize;
    assert!(bytes[..page].iter().all(|&b| b == 1));
    assert!(bytes[page..2 * page].iter().all(|&b| b == 0), "the hole reads as zeros");
    assert!(bytes[2 * page..3 * page].iter().all(|&b| b == 3));
    assert!(bytes[3 * page..].iter().all(|&b| b == 4));
    // Earlier snapshots are untouched.
    assert_eq!(blob.snapshot(v1).unwrap().len(), PSIZE);
    assert_eq!(s.stats().vm.aborted, 1);
}

#[test]
fn every_crash_point_recovers() {
    for point in [
        CrashPoint::AfterPrepare,
        CrashPoint::AfterBoundaryPages,
        CrashPoint::AfterPartialMetadata,
        CrashPoint::BeforeNotify,
    ] {
        let s = store(10);
        let blob = s.create();
        let base: Vec<u8> = (0..2 * PSIZE as usize).map(|i| (i % 251) as u8).collect();
        let v1 = blob.append(&base).unwrap();
        blob.sync(v1).unwrap();

        // Unaligned crash-write overlapping live data: the repair must
        // reconstruct the predecessor's bytes over the hole.
        let _dead = blob.crash_write(filled(PSIZE as usize, 0xEE), PSIZE / 2, point).unwrap();
        let v3 = blob.append(&[7u8; 16]).unwrap();
        s.advance_lease_clock(11);
        let report = s.sweep_expired_leases();
        assert_eq!(report.aborted.len(), 1, "{point:?}");
        blob.sync(v3).unwrap();

        // The dead overwrite's trace is deterministic per crash point:
        // nothing unless every leaf node was durable (BeforeNotify),
        // in which case repair keeps the durable nodes and the hole
        // carries the dead writer's bytes.
        let snap = blob.snapshot(v3).unwrap();
        assert_eq!(snap.len(), 2 * PSIZE + 16);
        let bytes = snap.read(ByteRange::new(0, snap.len())).unwrap();
        let mut want = base.clone();
        if point == CrashPoint::BeforeNotify {
            let (from, to) = (PSIZE as usize / 2, PSIZE as usize / 2 + PSIZE as usize);
            want[from..to].fill(0xEE);
        }
        assert_eq!(&bytes[..base.len()], &want[..], "{point:?}: wrong hole content");
        assert!(bytes[base.len()..].iter().all(|&b| b == 7));
    }
}

#[test]
fn background_sweeper_recovers_without_manual_sweep() {
    let s = store(5);
    let blob = s.create();
    let v1 = blob.append(&vec![1u8; PSIZE as usize]).unwrap();
    blob.sync(v1).unwrap();
    let dead = blob.crash_append(filled(PSIZE as usize, 2), CrashPoint::AfterPrepare).unwrap();

    // Later pipelined traffic advances the logical clock past the TTL;
    // its completion stages run the sweeper themselves (self-help at
    // stage start, background job at stage end) — no manual sweep.
    // Page-aligned appends: their stages never block on the dead
    // version's metadata (no boundary merge), so the deployment keeps
    // making the progress that drives its own recovery.
    let mut last = Version(0);
    for i in 0..6u8 {
        last = blob.append_pipelined(filled(PSIZE as usize, 3 + i)).unwrap().wait().unwrap();
    }
    blob.sync(last).unwrap();
    assert_eq!(blob.recent_version().unwrap(), last);
    assert!(matches!(blob.snapshot(dead), Err(BlobError::VersionAborted { .. })));
    assert_eq!(s.stats().vm.aborted, 1);
}

#[test]
fn explicit_abort_cancels_a_pending_write() {
    let s = store(1 << 20);
    let blob = s.create();
    let v1 = blob.append(&[9u8; 32]).unwrap();
    blob.sync(v1).unwrap();

    // Cancel a wedged update explicitly — no lease expiry involved.
    let dead = blob.crash_append(filled(32, 1), CrashPoint::AfterPrepare).unwrap();
    blob.abort(dead).unwrap();
    let v3 = blob.append(&[8u8; 32]).unwrap();
    blob.sync(v3).unwrap();
    let snap = blob.latest().unwrap();
    assert_eq!(snap.version(), v3);
    let bytes = snap.read(ByteRange::new(0, snap.len())).unwrap();
    assert_eq!(&bytes[..32], &[9u8; 32][..]);
    assert_eq!(&bytes[32..64], &[0u8; 32][..]);
    assert_eq!(&bytes[64..], &[8u8; 32][..]);

    // Aborting a published version is a typed conflict.
    assert!(matches!(blob.abort(v1), Err(BlobError::AbortConflict(_))));
    // Double abort likewise.
    assert!(matches!(blob.abort(dead), Err(BlobError::AbortConflict(_))));
}

#[test]
fn pending_write_abort_entry_point() {
    let s = store(1 << 20);
    let blob = s.create();
    let v1 = blob.append(&[1u8; 32]).unwrap();
    blob.sync(v1).unwrap();

    let pending = blob.append_pipelined(filled(32, 2)).unwrap();
    let v = pending.version();
    match pending.abort() {
        // Raced the abort in before the stage completed: the version is
        // a hole now and later writers publish over it.
        Ok(()) => {
            assert!(matches!(blob.snapshot(v), Err(BlobError::VersionAborted { .. })));
        }
        // The stage won the race and completed first — equally valid.
        Err(BlobError::AbortConflict(_)) => {
            blob.sync(v).unwrap();
        }
        other => panic!("unexpected: {other:?}"),
    }
    let v3 = blob.append(&[3u8; 32]).unwrap();
    blob.sync(v3).unwrap();
    assert_eq!(blob.recent_version().unwrap(), v3);
}

#[test]
fn failed_update_aborts_itself_instead_of_wedging() {
    // All providers down mid-sequence: the failing append must retire
    // its version so the next (post-recovery) append publishes.
    let s = store(1 << 20);
    let blob = s.create();
    let v1 = blob.append(&vec![1u8; PSIZE as usize]).unwrap();
    blob.sync(v1).unwrap();

    for p in 0..4 {
        s.fail_provider(blobseer::ProviderId(p)).unwrap();
    }
    let err = blob.append(&vec![2u8; PSIZE as usize]);
    assert!(err.is_err(), "append with every provider down must fail");
    for p in 0..4 {
        s.recover_provider(blobseer::ProviderId(p)).unwrap();
    }

    // The failed version may need a sweep retry (its repair also needs
    // providers); run one now that they are back.
    s.sweep_expired_leases();
    let v3 = blob.append(&vec![3u8; PSIZE as usize]).unwrap();
    blob.sync(v3).unwrap();
    assert_eq!(blob.recent_version().unwrap(), v3);
    let snap = blob.snapshot(v3).unwrap();
    let bytes = snap.read(ByteRange::new(0, snap.len())).unwrap();
    assert!(bytes[..PSIZE as usize].iter().all(|&b| b == 1));
    assert!(bytes[2 * PSIZE as usize..].iter().all(|&b| b == 3));
}

#[test]
fn snapshots_pinned_before_an_abort_stay_valid() {
    let s = store(10);
    let blob = s.create();
    let v1 = blob.append(&[5u8; 100]).unwrap();
    blob.sync(v1).unwrap();
    let pinned = blob.snapshot(v1).unwrap();

    let dead = blob.crash_append(filled(100, 6), CrashPoint::BeforeNotify).unwrap();
    s.advance_lease_clock(11);
    s.sweep_expired_leases();
    assert!(matches!(blob.snapshot(dead), Err(BlobError::VersionAborted { .. })));

    // The pinned (published, lower) snapshot is unaffected by the abort.
    let bytes = pinned.read(ByteRange::new(0, pinned.len())).unwrap();
    assert!(bytes.iter().all(|&b| b == 5));
}

#[test]
fn gc_and_abort_compose() {
    let s = store(10);
    let blob = s.create();
    let mut versions = Vec::new();
    for i in 0..3u8 {
        versions.push(blob.append(&vec![i + 1; PSIZE as usize]).unwrap());
    }
    blob.sync(versions[2]).unwrap();
    let dead = blob.crash_append(filled(PSIZE as usize, 9), CrashPoint::AfterPrepare).unwrap();

    // GC requires quiescence: a wedged (not yet aborted) version blocks it.
    assert!(matches!(blob.retire_versions(versions[2]), Err(BlobError::GcConflict(_))));
    s.advance_lease_clock(11);
    s.sweep_expired_leases();
    let v5 = blob.append(&vec![10u8; PSIZE as usize]).unwrap();
    blob.sync(v5).unwrap();

    // Retire everything below the aborted hole; the repair tree of the
    // hole survives as part of retained history.
    let report = blob.retire_versions(dead).unwrap();
    assert!(report.nodes_removed > 0);
    assert!(matches!(blob.snapshot(versions[0]), Err(BlobError::VersionRetired { .. })));
    let snap = blob.snapshot(v5).unwrap();
    let bytes = snap.read(ByteRange::new(0, snap.len())).unwrap();
    let page = PSIZE as usize;
    assert!(bytes[3 * page..4 * page].iter().all(|&b| b == 0), "hole still zeros");
    assert!(bytes[4 * page..].iter().all(|&b| b == 10));
}

#[test]
fn repair_pages_keep_the_dead_writers_valid_lengths() {
    // v1 ends mid-page; the dead writer's two-page append then covers
    // pages 1..=3: a head merged onto v1's tail, one interior page
    // (stored before it died) and a 2 KiB tail. The repair re-stores
    // all three with vw − 1's bytes, each at the length the writer
    // would have stored — the tail stays 2 KiB.
    let s = store(10);
    let blob = s.create();
    let page = PSIZE as usize;
    let v1 = blob.append(&vec![1u8; page + page / 2]).unwrap();
    blob.sync(v1).unwrap();
    blob.crash_append(filled(2 * page, 2), CrashPoint::AfterPrepare).unwrap();
    s.advance_lease_clock(11);
    assert_eq!(s.sweep_expired_leases().aborted.len(), 1);
    let v3 = blob.append(&[3u8; 16]).unwrap();
    blob.sync(v3).unwrap();

    let snap = blob.snapshot(v3).unwrap();
    assert_eq!(snap.len(), 3 * PSIZE + PSIZE / 2 + 16);
    let bytes = snap.read(ByteRange::new(0, snap.len())).unwrap();
    let hole = page + page / 2..3 * page + page / 2;
    assert!(bytes[..hole.start].iter().all(|&b| b == 1));
    assert!(bytes[hole.clone()].iter().all(|&b| b == 0), "the hole reads as zeros");
    assert!(bytes[hole.end..].iter().all(|&b| b == 3));

    // Only the dead writer's interior page is orphaned.
    let report = s.scrub_orphans().unwrap();
    assert_eq!((report.pages_reclaimed, report.bytes_reclaimed), (1, PSIZE));
    // v1: 4096 + 2048; repair: 4096 + 4096 + 2048; v3's merged tail:
    // 2048 + 16.
    assert_eq!(s.stats().physical_bytes, 4096 + 2048 + 4096 + 4096 + 2048 + 2064);
}

#[test]
fn no_sweep_repeats_an_abort_that_is_still_repairing() {
    // Every page request sleeps, so the explicit abort's repair
    // (seventeen pages) long outlasts the cancelled stage, which
    // fails at its lease renewal or its completion and queues a lease
    // sweep while the version is still mid-abort. That abort is not
    // expired work: no sweep may start a second, pinned repair of it.
    let plans: Vec<_> =
        (0..4).map(|_| Arc::new(FaultPlan::new(Arc::new(MemoryPageStore::new())))).collect();
    let s = BlobSeer::builder()
        .page_size(PSIZE)
        .metadata_providers(2)
        .io_threads(2)
        .page_stores(plans.iter().map(|p| Arc::clone(p) as Arc<dyn PageStore>).collect())
        .build()
        .unwrap();
    let blob = s.create();
    blob.append(&[1u8; 100]).unwrap();
    plans.iter().for_each(|p| p.set_latency(Duration::from_millis(10)));
    let pending = blob.append_pipelined(filled(16 * PSIZE as usize, 2)).unwrap();
    // Let the stage renew its lease and start its boundary merge, so
    // it fails behind the abort rather than beside it.
    std::thread::sleep(Duration::from_millis(5));
    blob.abort(pending.version()).unwrap();
    assert!(matches!(pending.wait(), Err(BlobError::VersionAborted { .. })));
    plans.iter().for_each(|p| p.set_latency(Duration::ZERO));

    // Nothing is storing pages once the abort returned.
    let first = s.repair_replicas().unwrap();
    assert_eq!(first.pages_exempt, 0, "a repair still runs: {first:?}");
    assert_eq!(first.copies_repaired + first.copies_failed + first.strays_trimmed, 0);
    assert_eq!(s.repair_replicas().unwrap(), first, "a second pass does nothing new");
}
