//! Acceptance tests for elastic provider membership: live joins
//! (`add_provider`), safe drains (`drain_provider`), and the
//! interaction of both with writers, failover, GC and the scrubber.

use std::sync::Arc;

use blobseer::{
    Blob, BlobError, BlobSeer, ByteRange, Bytes, FaultPlan, MemoryPageStore, PageStore, ProviderId,
    Version,
};

const PSIZE: u64 = 64;

/// A deployment over `n` fault-plan-wrapped in-memory page stores
/// (returned so tests can inspect or corrupt the physical copies
/// underneath the providers), replication 2.
fn store_with_handles(n: usize) -> (BlobSeer, Vec<Arc<FaultPlan>>) {
    let handles: Vec<Arc<FaultPlan>> =
        (0..n).map(|_| Arc::new(FaultPlan::new(Arc::new(MemoryPageStore::new())))).collect();
    let store = BlobSeer::builder()
        .page_size(PSIZE)
        .data_providers(n)
        .metadata_providers(2)
        .io_threads(2)
        .replication(2)
        .page_stores(handles.iter().map(|h| h.clone() as Arc<dyn PageStore>).collect())
        .build()
        .unwrap();
    (store, handles)
}

fn fill(len: usize, seed: u8) -> Bytes {
    Bytes::from(
        (0..len).map(|i| seed.wrapping_add(i as u8).wrapping_mul(13) | 1).collect::<Vec<_>>(),
    )
}

fn read_all(blob: &Blob, v: Version) -> Bytes {
    let snap = blob.snapshot(v).unwrap();
    snap.read(ByteRange::new(0, snap.len())).unwrap()
}

/// Drain while pipelined writers are appending: the drain must
/// terminate, the victim must end empty, and every append — before,
/// during and after the drain — must read back byte-identical.
#[test]
fn drain_under_live_pipelined_writers() {
    let (store, handles) = store_with_handles(4);
    let blob = store.create();

    // A little pre-drain history so the victim holds pages.
    for i in 0..4 {
        let v = blob.append_bytes(fill(150, i)).unwrap();
        blob.sync(v).unwrap();
    }

    let writers: Vec<_> = (0..2u8)
        .map(|w| {
            let blob = blob.clone();
            std::thread::spawn(move || {
                let mut written = Vec::new();
                for i in 0..12u8 {
                    let data = fill(90 + w as usize, w.wrapping_mul(31).wrapping_add(i));
                    let v = blob.append_bytes(data.clone()).unwrap();
                    blob.sync(v).unwrap();
                    written.push((v, data));
                }
                written
            })
        })
        .collect();

    let victim = ProviderId(0);
    let report = store.drain_provider(victim).unwrap();
    assert_eq!(report.provider, victim);

    let mut written: Vec<(Version, Bytes)> = Vec::new();
    for w in writers {
        written.extend(w.join().unwrap());
    }

    // The victim is physically empty and stays write-refusing.
    assert_eq!(handles[0].page_count(), 0, "drained provider still holds pages");
    let members = store.membership();
    assert_eq!((members.active, members.retired), (3, 1));

    // Every concurrent append reads back byte-identical.
    for (v, data) in &written {
        let snap = blob.snapshot(*v).unwrap();
        let got =
            snap.read(ByteRange::new(snap.len() - data.len() as u64, data.len() as u64)).unwrap();
        assert_eq!(&got, data, "append at {v} corrupted by the drain");
    }
    // And the pre-drain history too.
    let _ = read_all(&blob, blob.recent_version().unwrap());

    // The drain shows up in the operator metrics.
    let text = store.metrics_text();
    assert!(text.contains("blobseer_providers_retired 1"), "missing retired gauge:\n{text}");
    assert!(text.contains("blobseer_drain_pages_migrated_total"), "missing migration counter");
}

/// The victim's own copy of a page is corrupt: migration must source
/// the bytes from a surviving replica. With that replica offline the
/// drain fails typed; after recovery it succeeds.
#[test]
fn drain_sources_from_replica_when_victim_copy_is_dead() {
    let (store, handles) = store_with_handles(3);
    let blob = store.create();
    let v = blob.append_bytes(fill(300, 7)).unwrap();
    blob.sync(v).unwrap();
    let before = read_all(&blob, v);

    // Corrupt every copy provider 0 holds, underneath the provider.
    let victim_pages = handles[0].scan().unwrap();
    assert!(!victim_pages.is_empty(), "test needs pages on the victim");
    for (pid, _) in &victim_pages {
        assert!(handles[0].corrupt_stored_page(*pid).unwrap());
    }

    // With both survivors offline, no verifying source exists: the
    // drain must refuse — typed — and retire nothing.
    store.fail_provider(ProviderId(1)).unwrap();
    store.fail_provider(ProviderId(2)).unwrap();
    match store.drain_provider(ProviderId(0)) {
        Err(BlobError::DrainConflict(_)) => {}
        other => panic!("expected DrainConflict with survivors offline, got {other:?}"),
    }
    assert_eq!(store.membership().retired, 0);

    // Survivors back: every corrupt victim copy is re-sourced from a
    // verifying replica and the drain completes.
    store.recover_provider(ProviderId(1)).unwrap();
    store.recover_provider(ProviderId(2)).unwrap();
    let report = store.drain_provider(ProviderId(0)).unwrap();
    assert!(report.pages_evacuated > 0);
    assert_eq!(handles[0].page_count(), 0);
    assert_eq!(read_all(&blob, v), before, "drain through a dead copy corrupted data");

    // Convergence: repair after the drain has nothing to do.
    let repair = store.repair_replicas().unwrap();
    assert_eq!(repair.pages_unrepairable, 0);
    assert_eq!(repair.copies_repaired + repair.copies_failed, 0);
}

/// A freshly joined provider is immediately eligible: the very next
/// writes place copies on it.
#[test]
fn added_provider_receives_placement_immediately() {
    let (store, _handles) = store_with_handles(2);
    let blob = store.create();
    let v = blob.append_bytes(fill(200, 3)).unwrap();
    blob.sync(v).unwrap();

    let backing = Arc::new(MemoryPageStore::new());
    let id = store.add_provider_store(backing.clone() as Arc<dyn PageStore>);
    assert_eq!(id, ProviderId(2));
    let members = store.membership();
    assert_eq!((members.registered, members.active), (3, 3));

    // Round-robin over three candidates with replication 2: a handful
    // of pages is guaranteed to route a primary or replica to the
    // newcomer.
    for i in 0..4 {
        let v = blob.append_bytes(fill(260, 50 + i)).unwrap();
        blob.sync(v).unwrap();
    }
    assert!(backing.page_count() > 0, "joined provider never saw a page");

    // Everything reads back.
    let last = blob.recent_version().unwrap();
    let _ = read_all(&blob, last);
}

/// After a drain, read-path failover over the *new* membership is
/// still deterministic and complete: kill a survivor and every byte is
/// still served from the remaining replicas.
#[test]
fn failover_still_deterministic_after_membership_change() {
    let (store, handles) = store_with_handles(4);
    let blob = store.create();
    for i in 0..6 {
        let v = blob.append_bytes(fill(180, 100 + i)).unwrap();
        blob.sync(v).unwrap();
    }
    let last = blob.recent_version().unwrap();
    let before = read_all(&blob, last);

    store.drain_provider(ProviderId(1)).unwrap();
    assert_eq!(handles[1].page_count(), 0);
    assert_eq!(read_all(&blob, last), before);

    // Kill a survivor: replication 2 on the post-retirement chains must
    // still cover every page.
    store.fail_provider(ProviderId(2)).unwrap();
    assert_eq!(read_all(&blob, last), before, "failover after drain lost data");

    // Writes keep working too (failover re-places copies), and recovery
    // plus repair converges back to clean chains.
    let v = blob.append_bytes(fill(90, 200)).unwrap();
    blob.sync(v).unwrap();
    store.recover_provider(ProviderId(2)).unwrap();
    store.repair_replicas().unwrap();
    let repair = store.repair_replicas().unwrap();
    assert_eq!(repair.copies_repaired, 0);
    assert_eq!(read_all(&blob, blob.recent_version().unwrap()).len(), before.len() + 90);
}

/// Drain racing `retire_versions`: whatever the interleaving, the
/// outcome is a typed refusal or a successful drain — never a hung
/// drain, never data loss, and the retained snapshot stays
/// byte-identical.
#[test]
fn drain_racing_retire_is_typed_and_safe() {
    for round in 0..4u64 {
        let (store, handles) = store_with_handles(3);
        let blob = store.create();
        for i in 0..8 {
            let v = blob.append_bytes(fill(120, i)).unwrap();
            blob.sync(v).unwrap();
        }
        let keep = blob.recent_version().unwrap();
        let expect = read_all(&blob, keep);

        let retire_blob = blob.clone();
        let retirer = std::thread::spawn(move || {
            // Stagger the race differently each round.
            std::thread::sleep(std::time::Duration::from_micros(200 * round));
            retire_blob.retire_versions(keep)
        });
        let drain = store.drain_provider(ProviderId(0));
        let retire = retirer.join().unwrap();

        match &retire {
            Ok(_) | Err(BlobError::GcConflict(_)) => {}
            Err(other) => panic!("round {round}: retire failed untyped: {other}"),
        }
        match &drain {
            Ok(report) => {
                assert_eq!(handles[0].page_count(), 0, "round {round}");
                assert_eq!(report.provider, ProviderId(0));
                assert_eq!(store.membership().retired, 1);
            }
            Err(BlobError::DrainConflict(_)) => {
                // Refused: nothing retired, the provider serves again.
                assert_eq!(store.membership().retired, 0);
                assert_eq!(store.membership().draining, 0);
            }
            Err(other) => panic!("round {round}: drain failed untyped: {other}"),
        }
        // Either way the retained snapshot is intact.
        assert_eq!(read_all(&blob, keep), expect, "round {round}: snapshot changed");
        // And the system is drainable/scrubbable afterwards.
        store.scrub_orphans().unwrap();
        if drain.is_err() {
            store.drain_provider(ProviderId(0)).unwrap();
            assert_eq!(handles[0].page_count(), 0);
        }
    }
}

/// An offline provider cannot be drained — migration needs its page
/// scan — and the refusal is typed and actionable.
#[test]
fn offline_provider_blocks_drain_typed() {
    let (store, handles) = store_with_handles(3);
    let blob = store.create();
    let v = blob.append_bytes(fill(140, 9)).unwrap();
    blob.sync(v).unwrap();

    store.fail_provider(ProviderId(2)).unwrap();
    match store.drain_provider(ProviderId(2)) {
        Err(BlobError::DrainConflict(why)) => {
            assert!(why.contains("offline"), "unhelpful refusal: {why}");
        }
        other => panic!("expected DrainConflict, got {other:?}"),
    }
    assert_eq!(store.membership().retired, 0);

    // Recover, drain, done.
    store.recover_provider(ProviderId(2)).unwrap();
    store.drain_provider(ProviderId(2)).unwrap();
    assert_eq!(handles[2].page_count(), 0);
}

/// Draining must leave at least one active survivor, and a retired
/// provider cannot be drained again; both refusals are typed.
#[test]
fn drain_refuses_last_survivor_and_double_drain() {
    let (store, _handles) = store_with_handles(3);
    let blob = store.create();
    let v = blob.append_bytes(fill(100, 5)).unwrap();
    blob.sync(v).unwrap();

    store.drain_provider(ProviderId(0)).unwrap();
    match store.drain_provider(ProviderId(0)) {
        Err(BlobError::DrainConflict(why)) => {
            assert!(why.contains("retired"), "unhelpful refusal: {why}")
        }
        other => panic!("expected DrainConflict on double drain, got {other:?}"),
    }

    store.drain_provider(ProviderId(1)).unwrap();
    // One active provider left: draining it would strand the data.
    match store.drain_provider(ProviderId(2)) {
        Err(BlobError::DrainConflict(why)) => {
            assert!(why.contains("survivor"), "unhelpful refusal: {why}")
        }
        other => panic!("expected DrainConflict on last survivor, got {other:?}"),
    }
    let members = store.membership();
    assert_eq!((members.registered, members.active, members.retired), (3, 1, 2));

    // The survivor still serves everything.
    assert_eq!(read_all(&blob, v).len(), 100);
}

/// A drain scans its victim before it marks, so the round whose scan
/// proves the victim empty pays no mark: a quiescent drain records one
/// mark per round that found pages, `rounds − 1` in all — none for a
/// victim that held nothing.
#[test]
fn the_round_that_finds_the_victim_empty_does_not_mark() {
    let (store, _handles) = store_with_handles(3);
    let marks = |store: &BlobSeer| {
        let text = store.metrics_text();
        let line = text
            .lines()
            .find_map(|line| line.strip_prefix("blobseer_drain_mark_latency_seconds_count "))
            .expect("the drain mark count is exported");
        line.parse::<usize>().unwrap()
    };

    let empty = store.drain_provider(ProviderId(1)).unwrap();
    assert_eq!(empty.rounds, 1);
    assert_eq!(marks(&store), 0, "an empty victim needs no mark");

    let blob = store.create();
    let v = blob.append_bytes(fill(600, 3)).unwrap();
    blob.sync(v).unwrap();
    let report = store.drain_provider(ProviderId(0)).unwrap();
    assert!(report.pages_evacuated > 0);
    assert!(report.rounds >= 2);
    assert_eq!(marks(&store), report.rounds - 1);
}

/// A join after drains reuses no retired id, and the newcomer takes
/// its share of the pages written after it joined.
#[test]
fn join_after_drain_takes_its_share_of_new_pages() {
    let (store, _handles) = store_with_handles(3);
    store.drain_provider(ProviderId(1)).unwrap();

    let id = store.add_provider();
    assert_eq!(id, ProviderId(3), "retired ids must never be reused");
    let members = store.membership();
    assert_eq!((members.registered, members.active, members.retired), (4, 3, 1));

    let blob = store.create();
    for i in 0..3 {
        let v = blob.append_bytes(fill(150, 60 + i)).unwrap();
        blob.sync(v).unwrap();
    }
    let last = blob.recent_version().unwrap();
    assert_eq!(read_all(&blob, last).len(), 450);
    let joined = store.stats().providers.into_iter().find(|p| p.id == id).unwrap();
    assert!(joined.pages > 0, "the joined provider holds no page: {joined:?}");
    let repair = store.repair_replicas().unwrap();
    assert_eq!(repair.pages_unrepairable, 0);
}

/// A page's chain is never longer than the providers that serve: a
/// deployment drained below its replication factor stores every page
/// on each survivor and does not count the stores as under-replicated.
#[test]
fn a_chain_shorter_than_the_replication_factor_is_not_under_replicated() {
    let store = BlobSeer::builder()
        .page_size(PSIZE)
        .data_providers(3)
        .metadata_providers(2)
        .io_threads(2)
        .replication(3)
        .build()
        .unwrap();
    store.drain_provider(ProviderId(2)).unwrap();

    let blob = store.create();
    let v = blob.append_bytes(fill(4 * PSIZE as usize, 9)).unwrap();
    blob.sync(v).unwrap();

    assert_eq!(store.stats_snapshot().under_replicated_stores, 0);
    assert_eq!(store.stats().physical_pages, 8);
}
