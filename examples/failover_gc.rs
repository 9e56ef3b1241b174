//! Operating a BlobSeer deployment: replication, provider failure and
//! recovery, and version garbage collection.
//!
//! The paper defers "volatility and failures" to future work (§6) and
//! mentions replication as an open question (§3.2); this example shows
//! the extensions this reproduction builds on top of the core protocol.
//!
//! Run with: `cargo run --example failover_gc`

use blobseer::{BlobError, BlobSeer, ProviderId, Version};

const PAGE: u64 = 4096;

fn main() {
    // 8 providers, every page stored twice.
    let store = BlobSeer::builder()
        .page_size(PAGE)
        .data_providers(8)
        .metadata_providers(8)
        .replication(2)
        .build()
        .unwrap();
    // This example drives the flat, id-keyed facade (the wrappers over
    // the handle API) — ids are what an ops tool would hold.
    let blob = store.create().id();

    // A day of "log" traffic: 20 appends + 10 compacting overwrites.
    let mut last = Version(0);
    for i in 0..20u8 {
        last = store.append(blob, &vec![i; PAGE as usize * 2]).unwrap();
    }
    for i in 0..10u8 {
        last = store.write(blob, &vec![100 + i; PAGE as usize], u64::from(i) * 2 * PAGE).unwrap();
    }
    store.sync(blob, last).unwrap();
    let size = store.get_size(blob, last).unwrap();
    println!(
        "ingested: {} versions, {} bytes, {} physical pages (x2 replication)",
        last,
        size,
        store.stats().physical_pages
    );

    // --- Failure: take a provider down mid-flight. ---
    store.fail_provider(ProviderId(3)).unwrap();
    let all = store.read(blob, last, 0, size).unwrap();
    println!("provider 3 down: full {}-byte read still served from replicas", all.len());
    // Writes keep working too (allocation skips the failed node).
    let during = store.append(blob, b"written during the outage").unwrap();
    store.sync(blob, during).unwrap();
    store.recover_provider(ProviderId(3)).unwrap();
    println!("provider 3 recovered; {} now at {}", blob, during);

    // --- Garbage collection: retire everything before v25. ---
    let keep_from = Version(25);
    let before = store.stats();
    let report = store.retire_versions(blob, keep_from).unwrap();
    let after = store.stats();
    println!(
        "gc: retired v1..v24 -> {} nodes and {} pages reclaimed ({} bytes with replicas)",
        report.nodes_removed, report.pages_removed, report.bytes_reclaimed
    );
    println!(
        "    physical pages {} -> {}, metadata nodes {} -> {}",
        before.physical_pages, after.physical_pages, before.metadata_nodes, after.metadata_nodes
    );

    // Retired versions answer with a clean, typed error...
    match store.read(blob, Version(5), 0, 1) {
        Err(BlobError::VersionRetired { version, .. }) => {
            println!("reading retired {version}: VersionRetired (as designed)");
        }
        other => panic!("expected VersionRetired, got {other:?}"),
    }
    // ...while every retained snapshot is fully intact.
    for v in keep_from.raw()..=during.raw() {
        let v = Version(v);
        let sz = store.get_size(blob, v).unwrap();
        store.read(blob, v, 0, sz).unwrap();
    }
    println!("all retained snapshots verified readable");

    let meta = store.stats().metadata;
    println!("metadata DHT saw {} gets / {} puts", meta.total_gets, meta.total_puts);
}
