//! Page integrity accounting — who hashes what, as counts that repeat
//! exactly: a page is sealed once by the client however many copies are
//! stored, a sub-page read verifies only the blocks it returns bytes
//! from, repair re-places sealed pages without hashing them again, and
//! it verifies healthy chain copies where they live, reading nothing.

use std::sync::Arc;

use blobseer::{BlobSeer, Bytes, FaultPlan, MemoryPageStore, PageStore, ProviderId, SUM_BLOCK};

const PAGE: u64 = 64 << 10;
const MIB: u64 = 1 << 20;

fn store(replication: usize) -> BlobSeer {
    BlobSeer::builder()
        .page_size(PAGE)
        .data_providers(4)
        .metadata_providers(2)
        .io_threads(2)
        .replication(replication)
        .build()
        .unwrap()
}

fn payload(len: u64) -> Bytes {
    Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
}

#[test]
fn a_page_is_sealed_once_whatever_the_replication() {
    let s = store(2);
    let blob = s.create();
    let v = blob.append_bytes(payload(MIB)).unwrap();
    blob.sync(v).unwrap();

    let snap = s.stats_snapshot();
    assert_eq!(s.stats().physical_bytes, 2 * MIB, "both copies of every page landed");
    assert_eq!(snap.checksum_sealed_bytes, MIB, "1 MiB sealed, not one per copy");
    assert_eq!(snap.checksum_verified_bytes, 0, "stores verify nothing");
    let text = s.metrics_text();
    assert!(text.contains("blobseer_checksum_sealed_bytes_total 1048576"), "{text}");
    assert!(text.contains("blobseer_checksum_verified_bytes_total 0"), "{text}");
}

#[test]
fn a_sub_page_read_verifies_only_the_blocks_it_returns() {
    let s = store(1);
    let blob = s.create();
    let data = payload(PAGE);
    let v = blob.append_bytes(data.clone()).unwrap();
    let snap = blob.snapshot(v).unwrap();
    let block = SUM_BLOCK as u64;
    let verified = || s.stats_snapshot().checksum_verified_bytes;

    // One aligned 4 KiB read of the 64 KiB page hashes 4 KiB.
    let mut buf = vec![0u8; SUM_BLOCK];
    snap.read_into(5 * block, &mut buf).unwrap();
    assert_eq!(&buf[..], &data[5 * SUM_BLOCK..6 * SUM_BLOCK]);
    assert_eq!(verified(), block);
    // The same size straddling a block boundary costs both blocks …
    snap.read_into(block / 2, &mut buf).unwrap();
    assert_eq!(verified(), 3 * block);
    // … and a whole-page read costs the page.
    let mut whole = vec![0u8; PAGE as usize];
    snap.read_into(0, &mut whole).unwrap();
    assert_eq!(&whole[..], &data[..]);
    assert_eq!(verified(), 3 * block + PAGE);
    assert_eq!(s.stats().providers.iter().map(|p| p.bytes_verified).sum::<u64>(), verified());
}

#[test]
fn a_repair_fill_seals_nothing() {
    let s = store(2);
    let blob = s.create();
    // Provider 0 is down for the write: every chain through it fails
    // over, leaving slots for the repairer to fill.
    s.fail_provider(ProviderId(0)).unwrap();
    let v = blob.append_bytes(payload(MIB)).unwrap();
    blob.sync(v).unwrap();
    s.recover_provider(ProviderId(0)).unwrap();
    let before = s.stats_snapshot();
    assert_eq!(before.checksum_sealed_bytes, MIB);

    let report = s.repair_replicas().unwrap();
    assert!(report.copies_repaired > 0, "the scenario must exercise a fill: {report:?}");
    assert_eq!(report.bytes_copied, report.copies_repaired * PAGE);
    let after = s.stats_snapshot();
    assert_eq!(after.checksum_sealed_bytes, MIB, "a fill re-places a page that is already sealed");
    // Repair is where whole pages are verified: one pass over every
    // chain copy it found, and nothing for the copies it wrote.
    assert_eq!(
        after.checksum_verified_bytes - before.checksum_verified_bytes,
        report.copies_verified * PAGE
    );
    // The filled copies carry the client's sums: they verify.
    let second = s.repair_replicas().unwrap();
    assert_eq!((second.copies_repaired, second.pages_unrepairable), (0, 0));
    assert_eq!(second.copies_verified, 2 * (MIB / PAGE));
}

#[test]
fn a_healthy_copy_is_verified_in_place_and_only_a_fill_reads() {
    const PAGES: u64 = MIB / PAGE;
    let plans: Vec<Arc<FaultPlan>> =
        (0..4).map(|_| Arc::new(FaultPlan::new(Arc::new(MemoryPageStore::new())))).collect();
    let s = BlobSeer::builder()
        .page_size(PAGE)
        .metadata_providers(2)
        .io_threads(2)
        .replication(2)
        .page_stores(plans.iter().map(|p| Arc::clone(p) as Arc<dyn PageStore>).collect())
        .build()
        .unwrap();
    let blob = s.create();
    let v = blob.append_bytes(payload(MIB)).unwrap();
    blob.sync(v).unwrap();
    let verified = || s.stats_snapshot().checksum_verified_bytes;
    let sum = |field: fn(&blobseer::ProviderStats) -> u64| {
        s.stats().providers.iter().map(field).sum::<u64>()
    };
    let bytes_read = || sum(|p| p.bytes_read);
    let corrupt = || sum(|p| p.corrupt_detected);

    // A clean ingest: every chain copy is hashed once, where it lives.
    let (before, read) = (verified(), bytes_read());
    let clean = s.repair_replicas().unwrap();
    assert_eq!((clean.copies_verified, clean.copies_repaired), (2 * PAGES, 0));
    assert_eq!(verified() - before, clean.copies_verified * PAGE);
    assert_eq!(bytes_read(), read, "a healthy page costs no fetch");

    // One chain copy rots. Its verify fails once; the fill fetches the
    // sibling, hashing it a second time, and re-places the copy.
    let (pid, _) = plans[0].scan().unwrap()[0];
    assert!(plans[0].corrupt_stored_page(pid).unwrap());
    let (before, read) = (verified(), bytes_read());
    let healed = s.repair_replicas().unwrap();
    assert_eq!((healed.copies_repaired, healed.bytes_copied), (1, PAGE));
    assert_eq!(healed.copies_verified, 2 * PAGES - 1, "the rotted copy is not counted");
    assert_eq!(corrupt(), 1);
    assert_eq!(verified() - before, (healed.copies_verified + 1) * PAGE);
    assert_eq!(bytes_read() - read, PAGE, "the fill's one fetch");

    // Converged: the next pass is a no-op.
    let (before, read) = (verified(), bytes_read());
    let again = s.repair_replicas().unwrap();
    assert_eq!((again.copies_verified, again.copies_repaired), (2 * PAGES, 0));
    assert_eq!(verified() - before, 2 * PAGES * PAGE);
    assert_eq!((corrupt(), bytes_read()), (1, read));
}
