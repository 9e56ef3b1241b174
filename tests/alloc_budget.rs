//! Allocation budgets of the hot paths, as tests: a counting global
//! allocator around single calls on a warmed store.
//!
//! The counters are process-wide, so allocations on the store's pool
//! threads count too. Every check runs in the one test of this binary,
//! so no other test allocates beside it, and a store's pool is idle
//! between calls (each call returns once its work is done): a count
//! taken around one call is that call's. A budget holds for the median
//! of 16 calls: a latency histogram allocates a bucket group the first
//! time a sample lands in a new power-of-two range, which any one call
//! may do.
//!
//! A change that lowers a count lowers its ceiling here; one that raises
//! a count says why.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::time::Duration;

use blobseer::{BlobSeer, Bytes};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters are plain atomics beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const PSIZE: u64 = 4096;
/// Pages in the blob: a tree of six levels at four children per node.
const PAGES: u64 = 1024;
/// Calls per measured operation.
const REPEATS: u64 = 16;

/// Ceilings, in allocations per call: the medians measured when the
/// tree went to four children per node.
const WRITE_ONE_PAGE: u64 = 11;
const APPEND_16_PAGES: u64 = 15;
const READ_16_PAGES: u64 = 12;

/// The median of the allocations `REPEATS` calls of `op(i)` made.
fn median_allocs(mut op: impl FnMut(u64)) -> u64 {
    let mut counts: Vec<u64> = (0..REPEATS)
        .map(|i| {
            let before = ALLOCS.load(Relaxed);
            op(i);
            ALLOCS.load(Relaxed) - before
        })
        .collect();
    counts.sort_unstable();
    counts[counts.len() / 2]
}

/// Live bytes once they stop changing: a store's last reference may
/// drop on one of its pool threads just after the caller's.
fn settled_live_bytes() -> i64 {
    let mut last = LIVE_BYTES.load(Relaxed);
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let now = LIVE_BYTES.load(Relaxed);
        if now == last {
            return now;
        }
        last = now;
    }
}

fn store() -> BlobSeer {
    BlobSeer::builder()
        .page_size(PSIZE)
        .data_providers(2)
        .metadata_providers(2)
        .io_threads(2)
        .build()
        .unwrap()
}

/// Each operation's allocations on a warmed store: a one-page read, a
/// 16-page read, a one-page write and a 16-page append.
fn exercise(s: &BlobSeer) -> [u64; 4] {
    let blob = s.create();
    blob.append_bytes(Bytes::from(vec![1u8; (PAGES * PSIZE) as usize])).unwrap();
    let page = Bytes::from(vec![2u8; PSIZE as usize]);
    let chunk = Bytes::from(vec![3u8; 16 * PSIZE as usize]);
    let mut buf = vec![0u8; PSIZE as usize];
    let mut chunk_buf = vec![0u8; 16 * PSIZE as usize];
    // Warm every path (lazy tables, per-thread metric stripes) first.
    for i in 0..REPEATS {
        blob.write_bytes(page.clone(), i * 61 % PAGES * PSIZE).unwrap();
        blob.append_bytes(chunk.clone()).unwrap();
        let snap = blob.latest().unwrap();
        snap.read_into(i * 37 % PAGES * PSIZE, &mut buf).unwrap();
        snap.read_into(i * 16 * PSIZE, &mut chunk_buf).unwrap();
    }

    let snap = blob.latest().unwrap();
    let read_one = median_allocs(|i| snap.read_into(i * 53 % PAGES * PSIZE, &mut buf).unwrap());
    let read_16 = median_allocs(|i| snap.read_into(i * 5 * 16 * PSIZE, &mut chunk_buf).unwrap());
    let write_one = median_allocs(|i| {
        blob.write_bytes(page.clone(), i * 29 % PAGES * PSIZE).unwrap();
    });
    let append_16 = median_allocs(|_| {
        blob.append_bytes(chunk.clone()).unwrap();
    });
    [read_one, read_16, write_one, append_16]
}

#[test]
fn hot_paths_stay_within_their_allocation_budgets() {
    // A first store warms what lives as long as the process (lazy
    // globals); live bytes after the second one drops must be back at
    // the level before it was built.
    exercise(&store());
    let baseline = settled_live_bytes();

    let s = store();
    let [read_one, read_16, write_one, append_16] = exercise(&s);
    drop(s);
    let leaked = settled_live_bytes() - baseline;

    assert_eq!(read_one, 0, "a one-page Snapshot::read_into allocates nothing");
    assert!(write_one <= WRITE_ONE_PAGE, "one-page write_bytes: {write_one} allocations");
    assert!(append_16 <= APPEND_16_PAGES, "16-page append_bytes: {append_16} allocations");
    assert!(read_16 <= READ_16_PAGES, "16-page read_into: {read_16} allocations");
    assert_eq!(leaked, 0, "live bytes after the store dropped, against before it was built");
}
