//! Failure injection: what happens when a writer stalls mid-protocol.
//!
//! The paper defers node volatility/failures to future work (§6), but
//! the *protocol-level* consequences of a stalled writer are well
//! defined and testable: later versions cannot publish (total order),
//! readers of *published* versions are never affected, dependent
//! waiters time out rather than hang, and everything resumes when the
//! stalled writer finishes. We provoke these situations by driving the
//! substrate crates directly, bypassing the engine's write pipeline.

use std::sync::Arc;
use std::time::Duration;

use blobseer_meta::{
    build_meta, read_meta, Lineage, MetaStore, NodeKey, RootRef, TreeNode, TreeReader,
    UpdateContext,
};
use blobseer_types::{
    BlobError, ByteRange, NodePos, PageDescriptor, PageId, PageRange, ProviderId, Version,
};
use blobseer_version::{ConcurrencyMode, ReadView, UpdateKind, VersionManager};

const PSIZE: u64 = 4;

fn pd(page_index: u64, pid: u128) -> PageDescriptor {
    PageDescriptor {
        pid: PageId(pid),
        page_index,
        provider: ProviderId(0),
        valid_len: PSIZE as u32,
    }
}

fn commit(store: &MetaStore, nodes: Vec<(NodeKey, TreeNode)>) {
    for (k, n) in nodes {
        store.put_new(k, n);
    }
}

/// A version manager plus metadata store with version 1 (4 pages)
/// published.
fn seeded() -> (VersionManager, MetaStore, blobseer_types::BlobId, Lineage) {
    let vm = VersionManager::new(PSIZE, ConcurrencyMode::Concurrent, Duration::from_secs(5));
    let meta = MetaStore::new(4, Duration::from_millis(100));
    let blob = vm.create();
    let lineage = vm.lineage(blob).unwrap();
    let a = vm.assign(blob, UpdateKind::Append { size: 4 * PSIZE }).unwrap();
    let ctx = UpdateContext {
        vw: a.vw,
        range: a.range,
        new_root: a.new_root,
        overrides: a.overrides.clone(),
        ref_root: a.ref_root,
    };
    let leaves: Vec<_> = (0..4).map(|i| pd(i, 100 + i as u128)).collect();
    let reader = TreeReader::new(&meta, &lineage);
    commit(&meta, build_meta(&reader, &ctx, &leaves).unwrap());
    vm.complete(blob, a.vw).unwrap();
    (vm, meta, blob, lineage)
}

#[test]
fn stalled_writer_blocks_publication_not_assignment() {
    let (vm, meta, blob, lineage) = seeded();
    // Writer A (v2) is assigned but never completes (crash).
    let a2 = vm.assign(blob, UpdateKind::Append { size: PSIZE }).unwrap();
    // Writer B (v3) still gets a version, builds and completes fine.
    let a3 = vm.assign(blob, UpdateKind::Append { size: PSIZE }).unwrap();
    assert_eq!(a3.vw, Version(3));
    let ctx = UpdateContext {
        vw: a3.vw,
        range: a3.range,
        new_root: a3.new_root,
        overrides: a3.overrides.clone(),
        ref_root: a3.ref_root,
    };
    let reader = TreeReader::new(&meta, &lineage);
    let leaves = vec![pd(5, 305)];
    commit(&meta, build_meta(&reader, &ctx, &leaves).unwrap());
    vm.complete(blob, a3.vw).unwrap();

    // Total order holds: nothing past v1 is published while v2 stalls.
    assert_eq!(vm.get_recent(blob).unwrap(), Version(1));
    assert!(matches!(vm.get_size(blob, Version(3)), Err(BlobError::VersionNotPublished { .. })));
    // SYNC on the stalled chain times out instead of hanging.
    assert_eq!(
        vm.sync(blob, Version(3), Duration::from_millis(30)),
        Err(BlobError::Timeout("snapshot publication"))
    );

    // The "crashed" writer revives and completes: everything publishes.
    let ctx2 = UpdateContext {
        vw: a2.vw,
        range: a2.range,
        new_root: a2.new_root,
        overrides: a2.overrides.clone(),
        ref_root: a2.ref_root,
    };
    commit(&meta, build_meta(&reader, &ctx2, &[pd(4, 204)]).unwrap());
    vm.complete(blob, a2.vw).unwrap();
    assert_eq!(vm.get_recent(blob).unwrap(), Version(3));
}

#[test]
fn published_readers_never_wait_on_inflight_writers() {
    let (vm, meta, blob, lineage) = seeded();
    // An in-flight writer that will never store its nodes.
    let _stalled = vm.assign(blob, UpdateKind::Append { size: PSIZE }).unwrap();
    // Reading published v1 touches only complete metadata: it must
    // succeed immediately (well under the 100 ms DHT timeout).
    let ReadView { size, root, .. } = vm.snapshot_view(blob, Version(1)).unwrap();
    assert_eq!(size, 4 * PSIZE);
    let reader = TreeReader::new(&meta, &lineage);
    let t0 = std::time::Instant::now();
    let pds = read_meta(&reader, root.unwrap(), ByteRange::new(0, size), PSIZE).unwrap();
    assert_eq!(pds.len(), 4);
    assert!(t0.elapsed() < Duration::from_millis(50), "no blocking on published reads");
}

#[test]
fn dependent_reader_times_out_on_missing_inflight_metadata() {
    let (vm, meta, blob, lineage) = seeded();
    // v2 assigned, never built. A read *at v2's root* (as the unaligned
    // merge path of a v3 writer would attempt) must block and then time
    // out — not hang, not return stale data.
    let a2 = vm.assign(blob, UpdateKind::Append { size: PSIZE }).unwrap();
    let root2 = RootRef { version: a2.vw, pos: a2.new_root };
    let reader = TreeReader::new(&meta, &lineage);
    let t0 = std::time::Instant::now();
    let err = read_meta(&reader, root2, ByteRange::new(0, PSIZE), PSIZE).unwrap_err();
    assert_eq!(err, BlobError::Timeout("metadata tree node"));
    assert!(t0.elapsed() >= Duration::from_millis(100), "the wait was real");
}

#[test]
fn late_metadata_release_unblocks_waiters() {
    // A reader blocked on an in-flight node proceeds the moment the
    // writer stores it — the §4.2 handoff, under an induced delay.
    let meta = Arc::new(MetaStore::new(2, Duration::from_secs(5)));
    let lineage = Lineage::root(blobseer_types::BlobId(1));
    let key = NodeKey { blob: lineage.blob(), version: Version(2), pos: NodePos::new(0, 1) };
    let m2 = Arc::clone(&meta);
    let k2 = key;
    let waiter = std::thread::spawn(move || {
        let t0 = std::time::Instant::now();
        let node = m2.get_wait(&k2).unwrap();
        (node, t0.elapsed())
    });
    std::thread::sleep(Duration::from_millis(50));
    let leaf = TreeNode::Leaf { pid: PageId(9), provider: ProviderId(0), valid_len: 4 };
    meta.reserve(key.blob, key.version, PageRange::new(0, 1), key.pos);
    meta.put_new(key, leaf);
    let (node, waited) = waiter.join().unwrap();
    assert_eq!(node, leaf);
    assert!(waited >= Duration::from_millis(45));
    assert!(waited < Duration::from_secs(1), "released promptly, not at timeout");
}

#[test]
fn engine_write_beyond_end_leaves_orphan_pages_only() {
    // A failed WRITE may have pre-stored interior pages (Algorithm 2
    // stores data before version assignment); those orphans must not
    // corrupt any published snapshot.
    let store = blobseer::BlobSeer::builder()
        .page_size(64)
        .data_providers(3)
        .metadata_providers(3)
        .build()
        .unwrap();
    let blob = store.create().id();
    let v1 = store.append(blob, &[9u8; 64]).unwrap();
    store.sync(blob, v1).unwrap();
    // Offset 1000 > size 64: rejected at the version manager, after the
    // interior page was already shipped.
    assert!(matches!(store.write(blob, &[1u8; 128], 1000), Err(BlobError::WriteBeyondEnd { .. })));
    // Snapshot v1 is intact; no new version exists.
    assert_eq!(store.get_recent(blob).unwrap(), v1);
    assert_eq!(store.read(blob, v1, 0, 64).unwrap(), vec![9u8; 64]);
    // The orphan pages exist physically (documented behaviour, same as
    // the paper's prototype) but are unreachable from any snapshot.
    let stats = store.stats();
    assert!(stats.physical_pages >= 1);
}
