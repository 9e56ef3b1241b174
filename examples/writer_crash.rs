//! Writer fault tolerance, end to end: a writer dies mid-update, the
//! blob wedges, the lease sweeper aborts the hole, ingest recovers.
//!
//! ```sh
//! cargo run --release --example writer_crash
//! ```

use blobseer::{BlobError, BlobSeer, ByteRange, Bytes, CrashPoint};
use blobseer_workloads::{AppendStream, CrashyIngest};

fn main() {
    let store = BlobSeer::builder()
        .page_size(64 * 1024)
        .data_providers(8)
        .metadata_providers(4)
        .lease_ttl_ticks(256)
        .build()
        .expect("valid config");
    let blob = store.create();

    // A healthy prefix.
    let v1 = blob.append(&vec![0xAB; 128 * 1024]).expect("append");
    blob.sync(v1).expect("publish");
    println!("healthy: v1 published, {} bytes", blob.size(v1).unwrap());

    // The writer of v2 dies right after its version is assigned...
    let dead = blob
        .crash_append(Bytes::from(vec![0xEE; 128 * 1024]), CrashPoint::AfterPrepare)
        .expect("crash injection");
    // ...and two later writers finish their work but cannot publish.
    let p3 = blob.append_pipelined(Bytes::from(vec![3u8; 128 * 1024])).expect("append");
    let p4 = blob.append_pipelined(Bytes::from(vec![4u8; 128 * 1024])).expect("append");
    let (v3, v4) = (p3.wait().expect("complete"), p4.wait().expect("complete"));
    println!(
        "wedged: {dead:?} holds the order; v3/v4 complete but GET_RECENT = {:?}",
        blob.recent_version().unwrap()
    );

    // Production recovery: the lease lapses, the sweeper aborts.
    store.advance_lease_clock(store.config().lease_ttl_ticks + 1);
    let swept = store.sweep_expired_leases();
    println!("sweep: aborted {:?}", swept.aborted);
    blob.sync(v4).expect("later versions publish over the hole");
    println!(
        "recovered: GET_RECENT = {:?} ({v3:?}, {v4:?} published)",
        blob.recent_version().unwrap()
    );

    // The hole is typed, and later snapshots read it as zeros.
    match blob.snapshot(dead) {
        Err(BlobError::VersionAborted { version, .. }) => {
            println!("the hole: snapshot({version:?}) -> VersionAborted (as designed)")
        }
        other => panic!("expected a typed hole, got {other:?}"),
    }
    let snap = blob.snapshot(v4).expect("published");
    let hole = snap.read(ByteRange::new(128 * 1024, 128 * 1024)).expect("read");
    assert!(hole.iter().all(|&b| b == 0), "the hole reads as zeros");
    println!("v4 spans {} bytes; the dead writer's region reads as zeros", snap.len());

    // The same story at scale, via the crash-injecting ingest driver:
    // every 6th writer dies, content stays verifiable throughout.
    let blob2 = store.create();
    let mut stream = AppendStream::new(7, 32 * 1024, 96 * 1024);
    let report = CrashyIngest::new(4, 6).run(&store, &blob2, &mut stream, 30).expect("ingest");
    let snap = blob2.snapshot(report.last).expect("published");
    CrashyIngest::verify(&snap, 7, &report).expect("verified");
    println!(
        "crashy ingest: {} appends, {} writers died, {} bytes verified, {} versions aborted total",
        report.appends,
        report.crashed,
        report.bytes,
        store.stats().vm.aborted
    );

    // Every one of those deaths leaked pages no tree references (the
    // dead writers' pre-leaf stores). The orphan scrubber takes them
    // back — and a second pass proves nothing live was touched.
    let before = store.stats().physical_bytes;
    let scrub = store.scrub_orphans().expect("scrub");
    println!(
        "scrub: reclaimed {} orphaned pages / {} bytes (storage {before} -> {} bytes)",
        scrub.pages_reclaimed,
        scrub.bytes_reclaimed,
        store.stats().physical_bytes
    );
    assert!(scrub.pages_reclaimed > 0, "writer deaths must have leaked");
    assert_eq!(store.scrub_orphans().expect("rescrub").pages_reclaimed, 0, "fixpoint");
    CrashyIngest::verify(&blob2.snapshot(report.last).expect("published"), 7, &report)
        .expect("content intact after the scrub");
    println!("all surviving content re-verified after the scrub");
}
