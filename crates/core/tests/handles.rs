//! The handle API: `Blob`, `Snapshot` (cached, VM-free reads, zero-copy
//! scatter), `PendingWrite` (pipelined updates), and their error paths.

use blobseer::{BlobError, BlobSeer, ByteRange, Bytes, Version};

const PSIZE: u64 = 4096;

fn store() -> BlobSeer {
    BlobSeer::builder()
        .page_size(PSIZE)
        .data_providers(6)
        .metadata_providers(4)
        .io_threads(4)
        .build()
        .unwrap()
}

fn patterned(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(7)).collect()
}

// ---------------------------------------------------------------- Blob

#[test]
fn blob_handle_roundtrip() {
    let s = store();
    let blob = s.create();
    let data = patterned(3 * PSIZE as usize + 100);
    let v1 = blob.append(&data).unwrap();
    blob.sync(v1).unwrap();
    assert_eq!(blob.size(v1).unwrap(), data.len() as u64);
    assert_eq!(blob.recent_version().unwrap(), v1);

    // Handles and ids interoperate: flat facade reads what the handle
    // wrote, and handles are constructible from ids.
    assert_eq!(s.read(&blob, v1, 0, 64).unwrap(), &data[..64]);
    assert_eq!(s.read(blob.id(), v1, 0, 64).unwrap(), &data[..64]);
    let same = s.blob(blob.id());
    assert_eq!(same, blob);
    assert_eq!(same.latest().unwrap().len(), data.len() as u64);

    // Branching through the handle.
    let fork = blob.branch(v1).unwrap();
    assert_ne!(fork.id(), blob.id());
    let vf = fork.append(b"tail").unwrap();
    fork.sync(vf).unwrap();
    assert_eq!(fork.latest().unwrap().len(), data.len() as u64 + 4);
    assert_eq!(blob.latest().unwrap().len(), data.len() as u64, "parent unaffected");
}

// ------------------------------------------------------------ Snapshot

#[test]
fn snapshot_reads_do_zero_vm_lookups_after_construction() {
    let s = store();
    let blob = s.create();
    let data = patterned(8 * PSIZE as usize);
    let v = blob.append(&data).unwrap();
    blob.sync(v).unwrap();

    let snap = blob.snapshot(v).unwrap();
    let before = s.stats().vm.read_views;
    let mut buf = vec![0u8; PSIZE as usize];
    for i in 0..16u64 {
        let offset = (i * 517) % (7 * PSIZE);
        assert_eq!(
            &snap.read(ByteRange::new(offset, PSIZE)).unwrap()[..],
            &data[offset as usize..(offset + PSIZE) as usize]
        );
        snap.read_into(offset, &mut buf).unwrap();
        snap.read_scatter(ByteRange::new(offset, PSIZE)).unwrap();
        snap.readv(&[ByteRange::new(0, 10), ByteRange::new(offset, 100)]).unwrap();
    }
    assert_eq!(
        s.stats().vm.read_views,
        before,
        "snapshot reads must not consult the version manager"
    );
    // The flat facade, by contrast, resolves the view on every call.
    s.read(&blob, v, 0, 10).unwrap();
    assert_eq!(s.stats().vm.read_views, before + 1);
}

#[test]
fn snapshot_error_paths() {
    let s = store();
    let blob = s.create();
    let v1 = blob.append(&patterned(100)).unwrap();

    // Snapshot of an unpublished (but assigned) version.
    let unpublished = Version(v1.raw() + 1);
    assert!(matches!(
        blob.snapshot(unpublished),
        Err(BlobError::VersionNotPublished { version, .. }) if version == unpublished
    ));
    blob.sync(v1).unwrap();

    // Reads past len() fail with the pinned version in the error.
    let snap = blob.snapshot(v1).unwrap();
    assert_eq!(snap.len(), 100);
    for result in [
        snap.read(ByteRange::new(0, 101)).map(|_| ()),
        snap.read_into(64, &mut [0u8; 64]),
        snap.read_scatter(ByteRange::new(100, 1)).map(|_| ()),
        snap.readv(&[ByteRange::new(0, 10), ByteRange::new(90, 11)]).map(|_| ()),
    ] {
        assert!(
            matches!(
                result,
                Err(BlobError::ReadBeyondEnd { version, snapshot_size: 100, .. }) if version == v1
            ),
            "{result:?}"
        );
    }

    // The empty snapshot reads nothing, successfully.
    let v0 = blob.snapshot(Version(0)).unwrap();
    assert!(v0.is_empty());
    assert_eq!(v0.read(ByteRange::new(0, 0)).unwrap().len(), 0);
    assert!(v0.read_scatter(ByteRange::new(0, 0)).unwrap().is_empty());

    // A snapshot of an unknown blob is a typed error.
    assert!(matches!(
        s.snapshot(blobseer::BlobId(9999), Version(0)),
        Err(BlobError::BlobNotFound(_))
    ));
}

#[test]
fn snapshot_is_immune_to_later_writes() {
    let s = store();
    let blob = s.create();
    let v1 = blob.append(&vec![b'a'; 2 * PSIZE as usize]).unwrap();
    blob.sync(v1).unwrap();
    let snap = blob.snapshot(v1).unwrap();

    let v2 = blob.write(&vec![b'X'; PSIZE as usize], 0).unwrap();
    blob.sync(v2).unwrap();
    assert!(snap.read(ByteRange::new(0, PSIZE)).unwrap().iter().all(|&b| b == b'a'));
    assert!(blob
        .snapshot(v2)
        .unwrap()
        .read(ByteRange::new(0, PSIZE))
        .unwrap()
        .iter()
        .all(|&b| b == b'X'));
}

// --------------------------------------------------------- ScatterRead

#[test]
fn scatter_read_windows_alias_stored_pages() {
    // The zero-copy acceptance check, mirroring the write-side test:
    // for a page-aligned range, every returned window must be
    // pointer-identical to the page as stored on the provider.
    let s = store();
    let blob = s.create();
    let payload = Bytes::from(patterned(4 * PSIZE as usize));
    let v = blob.append_bytes(payload.clone()).unwrap();
    blob.sync(v).unwrap();

    // With the zero-copy write path, stored pages alias `payload`, so
    // scatter windows must point straight back into it.
    let src = payload.as_ptr() as usize..payload.as_ptr() as usize + payload.len();
    let scatter = blob.snapshot(v).unwrap().read_scatter(ByteRange::new(0, 4 * PSIZE)).unwrap();
    assert_eq!(scatter.segments().len(), 4);
    assert_eq!(scatter.len(), 4 * PSIZE);
    for (i, seg) in scatter.segments().iter().enumerate() {
        assert_eq!(seg.offset, i as u64 * PSIZE);
        assert_eq!(seg.data.len(), PSIZE as usize);
        let ptr = seg.data.as_ptr() as usize;
        assert_eq!(
            ptr,
            src.start + i * PSIZE as usize,
            "segment {i} must alias the stored page (zero-copy read), not a copy"
        );
        assert!(src.contains(&ptr));
    }

    // Gathering a single-page read stays zero-copy too.
    let one = blob.snapshot(v).unwrap().read(ByteRange::new(PSIZE, PSIZE)).unwrap();
    assert_eq!(one.as_ptr() as usize, src.start + PSIZE as usize);

    // Unaligned scatter reads still tile the request exactly.
    let ragged =
        blob.snapshot(v).unwrap().read_scatter(ByteRange::new(PSIZE / 2, 2 * PSIZE + 100)).unwrap();
    let mut expected_offset = PSIZE / 2;
    let mut gathered = Vec::new();
    for seg in ragged.segments() {
        assert_eq!(seg.offset, expected_offset);
        expected_offset += seg.data.len() as u64;
        gathered.extend_from_slice(&seg.data);
    }
    assert_eq!(expected_offset, PSIZE / 2 + 2 * PSIZE + 100);
    assert_eq!(
        &gathered[..],
        &patterned(4 * PSIZE as usize)
            [(PSIZE / 2) as usize..(PSIZE / 2 + 2 * PSIZE + 100) as usize]
    );
}

#[test]
fn readv_matches_individual_reads_and_shares_planning() {
    let s = store();
    let blob = s.create();
    let data = patterned(16 * PSIZE as usize);
    let v = blob.append(&data).unwrap();
    blob.sync(v).unwrap();
    let snap = blob.snapshot(v).unwrap();

    let ranges = [
        ByteRange::new(0, 100),
        ByteRange::new(3 * PSIZE - 50, PSIZE),
        ByteRange::new(15 * PSIZE, PSIZE), // last page
        ByteRange::new(7 * PSIZE, 0),      // empty
        ByteRange::new(100, 300),          // overlaps the first
    ];
    let gets_before = s.stats().metadata.total_gets;
    let reads = snap.readv(&ranges).unwrap();
    let vectored_gets = s.stats().metadata.total_gets - gets_before;
    assert_eq!(reads.len(), ranges.len());
    for (range, read) in ranges.iter().zip(&reads) {
        assert_eq!(read.range(), *range);
        let expected = &data[range.offset as usize..range.end() as usize];
        assert_eq!(&read.clone().into_bytes()[..], expected, "{range:?}");
    }

    // The vectored plan walks the tree once: strictly fewer node
    // fetches than the same ranges planned one by one.
    let gets_before = s.stats().metadata.total_gets;
    for range in &ranges {
        snap.read_scatter(*range).unwrap();
    }
    let individual_gets = s.stats().metadata.total_gets - gets_before;
    assert!(
        vectored_gets < individual_gets,
        "one-pass planning must fetch fewer nodes ({vectored_gets} vs {individual_gets})"
    );
}

// -------------------------------------------------------- PendingWrite

#[test]
fn pipelined_writes_assign_versions_in_call_order() {
    let s = store();
    let blob = s.create();
    let mut pending = Vec::new();
    for i in 0..8u8 {
        let data = Bytes::from(vec![i; PSIZE as usize]);
        pending.push(blob.append_pipelined(data).unwrap());
    }
    for (i, p) in pending.iter().enumerate() {
        assert_eq!(p.version(), Version(i as u64 + 1), "call order fixes version order");
        assert_eq!(p.blob_id(), blob.id());
    }
    let last = pending.pop().unwrap();
    for p in pending {
        p.wait().unwrap();
    }
    let v = last.wait().unwrap();
    blob.sync(v).unwrap();
    let snap = blob.snapshot(v).unwrap();
    assert_eq!(snap.len(), 8 * PSIZE);
    for i in 0..8u64 {
        let page = snap.read(ByteRange::new(i * PSIZE, PSIZE)).unwrap();
        assert!(page.iter().all(|&b| b == i as u8), "append {i} landed in order");
    }
}

#[test]
fn pipelined_try_wait_polls() {
    let s = store();
    let blob = s.create();
    let p = blob.append_pipelined(Bytes::from(vec![1u8; PSIZE as usize])).unwrap();
    // Poll until done; must terminate well within the metadata timeout.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        if let Some(result) = p.try_wait() {
            assert_eq!(result.unwrap(), Version(1));
            break;
        }
        assert!(std::time::Instant::now() < deadline, "completion never surfaced");
        std::thread::yield_now();
    }
    assert!(p.is_done());
    assert_eq!(p.wait().unwrap(), Version(1));
}

#[test]
fn dropped_pending_write_still_publishes() {
    let s = store();
    let blob = s.create();
    // Drop the handle immediately: the completion stage already queued,
    // so the version must neither leak nor wedge a later sync.
    let v1 = blob.append_pipelined(Bytes::from(vec![7u8; PSIZE as usize])).unwrap().version();
    drop(blob.append_pipelined(Bytes::from(vec![8u8; PSIZE as usize])).unwrap());
    let p3 = blob.append_pipelined(Bytes::from(vec![9u8; PSIZE as usize])).unwrap();
    let v3 = p3.wait().unwrap();
    assert_eq!(v3, Version(3));
    blob.sync(v3).unwrap();
    assert_eq!(blob.recent_version().unwrap(), v3);
    let snap = blob.snapshot(Version(2)).unwrap();
    assert!(snap.read(ByteRange::new(PSIZE, PSIZE)).unwrap().iter().all(|&b| b == 8));
    let _ = v1;
}

#[test]
fn pipelined_unaligned_writes_merge_against_inflight_predecessors() {
    // Unaligned pipelined updates force boundary merges that may wait
    // on the (still in-flight) predecessor's metadata — the §4.2 wait
    // is on strictly lower versions, so this must converge.
    let s = store();
    let blob = s.create();
    let mut pending = Vec::new();
    for i in 0..6u8 {
        pending.push(blob.append_pipelined(Bytes::from(vec![b'a' + i; 1000])).unwrap());
    }
    let mut last = Version(0);
    for p in pending {
        last = p.wait().unwrap();
    }
    blob.sync(last).unwrap();
    let snap = blob.latest().unwrap();
    assert_eq!(snap.len(), 6000);
    let all = snap.read(ByteRange::new(0, 6000)).unwrap();
    for i in 0..6usize {
        assert!(all[i * 1000..(i + 1) * 1000].iter().all(|&b| b == b'a' + i as u8));
    }
}

#[test]
fn pipelined_and_blocking_writes_interleave() {
    let s = store();
    let blob = s.create();
    let p1 = blob.append_pipelined(Bytes::from(vec![1u8; PSIZE as usize])).unwrap();
    let v2 = blob.append(&vec![2u8; PSIZE as usize]).unwrap();
    let p3 = blob.write_pipelined(Bytes::from(vec![3u8; PSIZE as usize]), 0).unwrap();
    assert_eq!(p1.version(), Version(1));
    assert_eq!(v2, Version(2));
    assert_eq!(p3.version(), Version(3));
    let v3 = p3.wait().unwrap();
    p1.wait().unwrap();
    blob.sync(v3).unwrap();
    let snap = blob.snapshot(v3).unwrap();
    assert!(snap.read(ByteRange::new(0, PSIZE)).unwrap().iter().all(|&b| b == 3));
    assert!(snap.read(ByteRange::new(PSIZE, PSIZE)).unwrap().iter().all(|&b| b == 2));
}

#[test]
fn pipelined_rejects_bad_updates_synchronously() {
    let s = store();
    let blob = s.create();
    assert!(matches!(blob.append_pipelined(Bytes::new()), Err(BlobError::EmptyUpdate)));
    assert!(matches!(
        blob.write_pipelined(Bytes::from(vec![1u8; 10]), 999),
        Err(BlobError::WriteBeyondEnd { .. })
    ));
    // The failures above must not have consumed a version.
    let p = blob.append_pipelined(Bytes::from(vec![1u8; 10])).unwrap();
    assert_eq!(p.wait().unwrap(), Version(1));
}

#[test]
fn retired_snapshot_read_surfaces_typed_error() {
    // A live Snapshot does not pin its version against GC; once the
    // version is retired, reads must surface VersionRetired (after the
    // metadata wait — deleted nodes look like in-flight writers until
    // the error path re-checks the VM).
    let s = BlobSeer::builder()
        .page_size(PSIZE)
        .data_providers(4)
        .metadata_providers(2)
        .metadata_wait(std::time::Duration::from_millis(100))
        .build()
        .unwrap();
    let blob = s.create();
    let v1 = blob.append(&patterned(2 * PSIZE as usize)).unwrap();
    // v2 fully overwrites v1, so none of v1's pages or tree nodes are
    // shared forward — GC will actually delete them.
    let v2 = blob.write(&patterned(2 * PSIZE as usize), 0).unwrap();
    blob.sync(v2).unwrap();
    let snap = blob.snapshot(v1).unwrap();
    blob.retire_versions(v2).unwrap();

    for result in [
        snap.read(ByteRange::new(0, PSIZE)).map(|_| ()),
        snap.read_scatter(ByteRange::new(0, PSIZE)).map(|_| ()),
        snap.readv(&[ByteRange::new(0, PSIZE)]).map(|_| ()),
        snap.read_into(0, &mut [0u8; 16]),
    ] {
        assert!(
            matches!(result, Err(BlobError::VersionRetired { version, .. }) if version == v1),
            "{result:?}"
        );
    }
    // The retained snapshot still reads fine through its own handle.
    let keep = blob.snapshot(v2).unwrap();
    keep.read(ByteRange::new(0, keep.len())).unwrap();
}

#[test]
fn readv_shares_fetches_of_identical_page_windows() {
    // ROADMAP item: overlapping vectored ranges hitting the same page
    // window must share one provider fetch. Pointer identity across
    // the returned segments proves both requests alias the single
    // fetched buffer.
    let s = store();
    let blob = s.create();
    let v = blob.append(&patterned(4 * PSIZE as usize)).unwrap();
    blob.sync(v).unwrap();
    let snap = blob.snapshot(v).unwrap();

    // Both requests cover page 1 in full; the second also needs page 2.
    let fetches_before: u64 = s.stats().providers.iter().map(|p| p.reads).sum();
    let reads =
        snap.readv(&[ByteRange::new(PSIZE, PSIZE), ByteRange::new(PSIZE, 2 * PSIZE)]).unwrap();
    let fetches_after: u64 = s.stats().providers.iter().map(|p| p.reads).sum();
    assert_eq!(fetches_after - fetches_before, 2, "page 1 read once, page 2 once");

    let a = &reads[0].segments()[0].data;
    let b = &reads[1].segments()[0].data;
    assert_eq!(a.as_ptr(), b.as_ptr(), "identical windows must alias one fetch");
    assert_eq!(a, b);
    // Content is still exactly right for both requests.
    let data = patterned(4 * PSIZE as usize);
    assert_eq!(&reads[0].clone().into_bytes()[..], &data[PSIZE as usize..2 * PSIZE as usize]);
    assert_eq!(&reads[1].clone().into_bytes()[..], &data[PSIZE as usize..3 * PSIZE as usize]);
}

#[test]
fn readv_dedups_only_identical_windows() {
    // Different sub-ranges of the same page stay separate fetches (the
    // windows differ), and both come back correct.
    let s = store();
    let blob = s.create();
    let v = blob.append(&patterned(2 * PSIZE as usize)).unwrap();
    blob.sync(v).unwrap();
    let snap = blob.snapshot(v).unwrap();
    let data = patterned(2 * PSIZE as usize);
    let reads = snap
        .readv(&[ByteRange::new(8, 100), ByteRange::new(16, 100), ByteRange::new(8, 100)])
        .unwrap();
    assert_eq!(&reads[0].clone().into_bytes()[..], &data[8..108]);
    assert_eq!(&reads[1].clone().into_bytes()[..], &data[16..116]);
    // Identical requests 0 and 2 alias one fetch.
    assert_eq!(reads[0].segments()[0].data.as_ptr(), reads[2].segments()[0].data.as_ptr());
}

// ------------------------------------------- Lock-free hot read path

#[test]
fn hot_reads_are_served_lock_free() {
    // The acceptance check for wait-free snapshot publication: the hot
    // read paths must be *asserted* lock-free via the VmStats counter,
    // not just claimed by a bench. Every latest()/recent_version()/
    // snapshot(latest) must be served from the seqlock cell.
    let s = store();
    let blob = s.create();
    let v = blob.append(&patterned(PSIZE as usize)).unwrap();
    blob.sync(v).unwrap();

    let before = s.stats().vm;
    const OPS: u64 = 32;
    for _ in 0..OPS {
        let snap = blob.latest().unwrap();
        assert_eq!(snap.version(), v);
        assert_eq!(snap.len(), PSIZE);
    }
    let after = s.stats().vm;
    assert_eq!(
        after.lockfree_reads - before.lockfree_reads,
        OPS,
        "every latest() must be served from the seqlock cell, not the blob mutex"
    );
    assert_eq!(after.read_views - before.read_views, OPS, "latest() is one view resolution");

    // recent_version is a hot read too (and not a view resolution).
    let before = s.stats().vm;
    blob.recent_version().unwrap();
    let after = s.stats().vm;
    assert_eq!(after.lockfree_reads - before.lockfree_reads, 1);
    assert_eq!(after.read_views, before.read_views);

    // A version-pinned snapshot of the *latest* version rides the cell;
    // a pinned older version takes the (still correct) locked path.
    let v2 = blob.append(&patterned(PSIZE as usize)).unwrap();
    blob.sync(v2).unwrap();
    let before = s.stats().vm;
    blob.snapshot(v2).unwrap();
    let mid = s.stats().vm;
    assert_eq!(mid.lockfree_reads - before.lockfree_reads, 1);
    let old = blob.snapshot(v).unwrap();
    let after = s.stats().vm;
    assert_eq!(after.lockfree_reads, mid.lockfree_reads, "old versions resolve under the lock");
    assert_eq!(old.len(), PSIZE);
}

#[test]
fn facade_wrappers_survive_concurrent_abort_retire_churn() {
    // ISSUE 10 satellite: latest()/snapshot()/branch under concurrent
    // abort + retire churn return a published version or a typed error
    // — never a panic, and never a stale root (size must always match
    // the returned version: appends are PSIZE each, and aborted holes
    // record the same size via their zero-extending repair).
    use std::sync::atomic::{AtomicBool, Ordering};
    let s = store();
    let blob = s.create();
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Mutator: appends, with periodic crash-abort holes and
        // retire attempts.
        scope.spawn(|| {
            for i in 0..30u32 {
                if i % 5 == 3 {
                    let dead = blob
                        .crash_append(
                            Bytes::from(vec![0u8; PSIZE as usize]),
                            blobseer::CrashPoint::AfterPrepare,
                        )
                        .unwrap();
                    blob.abort(dead).unwrap();
                } else {
                    let v = blob.append(&patterned(PSIZE as usize)).unwrap();
                    blob.sync(v).unwrap();
                }
                if i % 7 == 6 {
                    match blob.retire_versions(blob.recent_version().unwrap()) {
                        Ok(_) => {}
                        // Branch pins and in-flight updates conflict,
                        // typed; a hole at the head can make the
                        // readable frontier unpublishable to retire to.
                        Err(BlobError::GcConflict(_))
                        | Err(BlobError::VersionNotPublished { .. }) => {}
                        Err(e) => panic!("retire: unexpected {e:?}"),
                    }
                }
            }
            stop.store(true, Ordering::Relaxed);
        });

        // Brancher: forks at whatever is recent; races with abort and
        // retire must stay typed.
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                let v = blob.recent_version().unwrap();
                match blob.branch(v) {
                    Ok(fork) => {
                        let snap = fork.latest().unwrap();
                        assert_eq!(snap.len(), snap.version().raw() * PSIZE);
                    }
                    Err(BlobError::VersionRetired { .. })
                    | Err(BlobError::VersionAborted { .. })
                    | Err(BlobError::VersionNotPublished { .. }) => {}
                    Err(e) => panic!("branch: unexpected {e:?}"),
                }
                std::thread::yield_now();
            }
        });

        // Readers: open-latest storm against the churn.
        for _ in 0..2 {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let snap = blob.latest().unwrap();
                    let v = snap.version();
                    // Size always matches the returned version — a
                    // torn (version, size) pair would break this.
                    assert_eq!(
                        snap.len(),
                        v.raw() * PSIZE,
                        "stale or torn (version, size) from latest()"
                    );
                    if !snap.is_empty() {
                        match snap.read(ByteRange::new(snap.len() - 1, 1)) {
                            Ok(_) => {}
                            // GC may sweep the version under a live
                            // handle; must surface typed, not panic.
                            Err(BlobError::VersionRetired { .. }) => {}
                            Err(e) => panic!("read: unexpected {e:?}"),
                        }
                    }
                    match blob.snapshot(v) {
                        Ok(again) => assert_eq!(again.len(), snap.len()),
                        Err(BlobError::VersionRetired { .. }) => {}
                        Err(e) => panic!("snapshot: unexpected {e:?}"),
                    }
                    std::thread::yield_now();
                }
            });
        }
    });

    // The storm above must actually have exercised the seqlock path.
    assert!(s.stats().vm.lockfree_reads > 0, "churn readers never hit the hot path");
}
