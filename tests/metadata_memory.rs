//! Metadata memory follows the peak of live tree nodes, not the churn:
//! each update's nodes take one slab of slots, and a slab whose nodes
//! `retire_versions` has all swept gives its run back for the next
//! update of that length.

use blobseer::BlobSeer;

const PSIZE: u64 = 64;
const PAGES: u64 = 256;
const WRITES: u64 = 20_000;
/// Writes between two retirements of every version but the latest.
const RETIRE_EVERY: u64 = 64;

#[test]
fn slab_slots_follow_the_peak_not_the_churn() {
    let s = BlobSeer::builder()
        .page_size(PSIZE)
        .data_providers(2)
        .metadata_providers(4)
        .build()
        .unwrap();
    let blob = s.create();
    let mut v = blob.append(&vec![0u8; (PAGES * PSIZE) as usize]).unwrap();
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut at_half = 0;
    for i in 1..=WRITES {
        // xorshift64: a random page to overwrite.
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        v = blob.write(&[i as u8; PSIZE as usize], rng % PAGES * PSIZE).unwrap();
        if i % RETIRE_EVERY == 0 {
            blob.sync(v).unwrap();
            blob.retire_versions(v).unwrap();
        }
        if i == WRITES / 2 {
            at_half = s.stats().metadata.slots;
        }
    }
    let stats = s.stats();
    assert!(
        stats.metadata.slots * 10 <= at_half * 11,
        "{} slots after {WRITES} writes, {at_half} after half as many",
        stats.metadata.slots
    );
    // What stays live is one tree over the pages plus the nodes written
    // since the last retirement, and the slots it takes are a few slabs
    // per live node, not one per write ever made.
    assert!(stats.metadata_nodes < 2 * PAGES as usize + 9 * RETIRE_EVERY as usize);
    assert!(stats.metadata.slots < 9 * 2 * PAGES as usize + 2048, "{} slots", stats.metadata.slots);
    assert_eq!(s.read(blob.id(), v, 0, PAGES * PSIZE).unwrap().len() as u64, PAGES * PSIZE);
}
