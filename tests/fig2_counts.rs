//! Count twins of the paper's Figure 2 on the real engine.
//!
//! Figure 2(a)'s append throughput steps down each time the blob's page
//! count crosses a power of two: the paper's binary tree grows a level,
//! so every later append builds one more node. The engine's tree has
//! four children per node, so its steps fall at powers of four.
//! Figure 2(b)'s read cost is the nodes `READ_META` visits. The
//! simulator prices both from the tree planners in `blobseer_meta::plan`
//! (at the paper's arity); these tests check that the engine does
//! exactly the metadata work those planners predict at its own, counted
//! in `StoreStats` deltas — exact, and independent of the host.

use blobseer::{BlobSeer, ByteRange, Bytes};
use blobseer_meta::update_plan;
use blobseer_types::{NodePos, PageRange, LEVEL_BITS};

const PAGE: u64 = 64 * 1024;
/// Pages per append: the paper's 1 MiB append of 64 KiB pages.
const CHUNK: u64 = 16;
const MAX_PAGES: u64 = 1280;

fn store() -> BlobSeer {
    BlobSeer::builder().page_size(PAGE).data_providers(4).metadata_providers(4).build().unwrap()
}

fn dht_counts(s: &BlobSeer) -> (u64, u64) {
    let m = s.stats().metadata;
    (m.total_puts, m.total_gets)
}

#[test]
fn appends_store_exactly_the_planned_nodes_and_step_at_powers_of_two() {
    let s = store();
    let blob = s.create();
    // One shared buffer: the pages alias it, so 80 MiB of appends hold
    // 1 MiB of memory.
    let chunk = Bytes::from(vec![7u8; (CHUNK * PAGE) as usize]);
    let mut previous: Option<u64> = None;
    let mut steps = 0;
    for before in (0..MAX_PAGES).step_by(CHUNK as usize) {
        let (puts_before, _) = dht_counts(&s);
        blob.append_bytes(chunk.clone()).unwrap();
        let puts = dht_counts(&s).0 - puts_before;
        let after = before + CHUNK;
        let plan = update_plan(PageRange::new(before, CHUNK), NodePos::root_for(after), LEVEL_BITS);
        assert_eq!(puts, plan.node_count(), "append of pages {before}..{after}");
        if let Some(previous) = previous {
            // The tree grows a level exactly when the append leaves a
            // page count behind that is a power of the fanout.
            let step =
                u64::from(before.is_power_of_two() && before.trailing_zeros() % LEVEL_BITS == 0);
            assert_eq!(puts, previous + step, "append of pages {before}..{after}");
            steps += step;
        }
        previous = Some(puts);
    }
    // 16 → 32, 64 → 80, 256 → 272, 1024 → 1040: four levels grown.
    assert_eq!(steps, 4);
    assert_eq!(blob.latest().unwrap().len(), MAX_PAGES * PAGE);
}

#[test]
fn reads_fetch_exactly_the_planned_nodes() {
    let s = store();
    let blob = s.create();
    let pages = 80;
    blob.append_bytes(Bytes::from(vec![3u8; (pages * PAGE) as usize])).unwrap();
    let snap = blob.latest().unwrap();
    let root = NodePos::root_for(pages);
    // 1 MiB reads at page-aligned and unaligned offsets, one page, and
    // the whole blob.
    let reads = [
        (0, CHUNK * PAGE),
        (5 * PAGE, CHUNK * PAGE),
        (7 * PAGE + 100, CHUNK * PAGE),
        (64 * PAGE, CHUNK * PAGE),
        (33 * PAGE + 1, 1),
        (0, pages * PAGE),
    ];
    for (offset, len) in reads {
        let (_, gets_before) = dht_counts(&s);
        let bytes = snap.read(ByteRange::new(offset, len)).unwrap();
        let gets = dht_counts(&s).1 - gets_before;
        assert_eq!(bytes.len() as u64, len);
        let first = offset / PAGE;
        let range = PageRange::new(first, (offset + len).div_ceil(PAGE) - first);
        let planned = update_plan(range, root, LEVEL_BITS).node_count();
        assert_eq!(gets, planned, "read of {len} B at {offset}");
    }
}
