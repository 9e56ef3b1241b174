//! Quickstart: the full BlobSeer primitive set in one sitting, through
//! the handle API — `Blob` to mutate, `Snapshot` to read,
//! `PendingWrite` to pipeline.
//!
//! Run with: `cargo run --example quickstart`

use blobseer::{BlobSeer, ByteRange, Bytes, Version};

fn main() {
    // An in-process deployment: 8 data providers, 8 metadata providers,
    // 4 KiB pages (small, so this demo exercises multi-page paths).
    let store = BlobSeer::builder()
        .page_size(4096)
        .data_providers(8)
        .metadata_providers(8)
        .build()
        .expect("valid configuration");

    // CREATE: a new blob starts as the empty snapshot, version 0.
    let blob = store.create();
    println!("created {}", blob.id());

    // APPEND twice; each append produces a new snapshot version.
    let v1 = blob.append(&[b'a'; 10_000]).unwrap();
    let v2 = blob.append(&[b'b'; 10_000]).unwrap();
    println!("appended 10 KB twice -> versions {v1}, {v2}");

    // SYNC = read-your-writes; a Snapshot then pins one version and
    // caches the version-manager resolution, so every read below is
    // VM-free.
    blob.sync(v2).unwrap();
    let snap = blob.snapshot(v2).unwrap();
    assert_eq!(snap.len(), 20_000);

    // WRITE overwrites a range (unaligned offsets are fine), creating v3.
    let v3 = blob.write(&[b'X'; 5_000], 7_500).unwrap();
    blob.sync(v3).unwrap();

    // Every version remains readable — versioning is the whole point.
    let before = snap.read(ByteRange::new(7_500, 5_000)).unwrap();
    let after = blob.snapshot(v3).unwrap().read(ByteRange::new(7_500, 5_000)).unwrap();
    assert!(before.iter().all(|&b| b == b'a' || b == b'b'));
    assert!(after.iter().all(|&b| b == b'X'));
    println!("v2 keeps the old bytes, v3 sees the overwrite");

    // Zero-copy scatter read: page-backed windows instead of a gather.
    let scatter = snap.read_scatter(ByteRange::new(0, 12_288)).unwrap();
    println!(
        "scatter read of 12 KiB: {} refcounted page windows, no contiguous buffer",
        scatter.segments().len()
    );

    // Pipelined appends: versions are assigned in call order while the
    // metadata work overlaps on the engine's thread pool.
    let pending: Vec<_> = (0..4u8)
        .map(|i| blob.append_pipelined(Bytes::from(vec![b'p' + i; 4096])).unwrap())
        .collect();
    let last = pending.into_iter().map(|p| p.wait().unwrap()).max().unwrap();
    blob.sync(last).unwrap();
    println!("4 pipelined appends in flight -> published up to {last}");

    // GET_RECENT names a published version for polling readers.
    let recent = blob.recent_version().unwrap();
    assert_eq!(recent, Version(7));

    // BRANCH forks cheaply: no data or metadata is copied.
    let fork = blob.branch(v2).unwrap();
    let f3 = fork.append(&[b'z'; 1_000]).unwrap();
    fork.sync(f3).unwrap();
    println!(
        "branched at {v2}: fork grew to {} bytes while {} stayed at {} bytes",
        fork.latest().unwrap().len(),
        blob.id(),
        blob.latest().unwrap().len(),
    );

    // The storage bill shows the sharing: all those versions of a 20 KB
    // blob cost nowhere near a full copy each.
    let stats = store.stats();
    println!(
        "physical: {} pages / {} bytes; metadata nodes: {}",
        stats.physical_pages, stats.physical_bytes, stats.metadata_nodes
    );
}
