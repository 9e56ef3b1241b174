//! Observability end to end: the PR's acceptance scenario. Drive a
//! mixed workload — appends, snapshot reads, a deliberately wedged
//! version that blocks a boundary merge in the metadata DHT, a lease
//! sweep and an orphan scrub — then check that `stats_snapshot()`
//! reports populated tail percentiles for every exercised operation
//! and that the Prometheus exposition carries the same story.

use blobseer::{BlobSeer, ByteRange, Bytes, CrashPoint};

const PSIZE: u64 = 4096;

fn store(lease_ttl: u64) -> BlobSeer {
    BlobSeer::builder()
        .page_size(PSIZE)
        .data_providers(4)
        .metadata_providers(2)
        .io_threads(2)
        .pipeline_threads(2)
        .lease_ttl_ticks(lease_ttl)
        .build()
        .unwrap()
}

fn assert_populated(lat: blobseer::OpLatency, want_count: u64, what: &str) {
    assert_eq!(lat.count, want_count, "{what}: sample count");
    assert!(lat.p50_ns > 0, "{what}: p50 populated");
    assert!(lat.p50_ns <= lat.p90_ns, "{what}: p50 <= p90");
    assert!(lat.p90_ns <= lat.p99_ns, "{what}: p90 <= p99");
    assert!(lat.p99_ns <= lat.p999_ns, "{what}: p99 <= p999");
    assert!(lat.p999_ns <= lat.max_ns, "{what}: p999 <= max");
    assert!(lat.mean_ns > 0 && lat.mean_ns <= lat.max_ns, "{what}: mean within range");
}

#[test]
fn stats_snapshot_reports_tail_percentiles_for_a_mixed_workload() {
    let s = store(20);
    let blob = s.create();

    let mut last = blobseer::Version(0);
    for i in 0..10u8 {
        last = blob.append(&vec![i; PSIZE as usize]).unwrap();
    }
    blob.sync(last).unwrap();
    let snap = blob.snapshot(last).unwrap();
    for i in 0..10u64 {
        snap.read(ByteRange::new(i * PSIZE, PSIZE)).unwrap();
    }
    snap.read_scatter(ByteRange::new(0, 4 * PSIZE)).unwrap();
    snap.readv(&[ByteRange::new(0, PSIZE), ByteRange::new(5 * PSIZE, PSIZE)]).unwrap();

    let stats = s.stats_snapshot();
    assert_populated(stats.append, 10, "append");
    assert_populated(stats.read, 10, "read");
    assert_populated(stats.read_scatter, 1, "read_scatter");
    assert_populated(stats.readv, 1, "readv");
    // Every update runs a prepare half (10 appends).
    assert_populated(stats.write_prepare, 10, "write_prepare");
    // Nothing blocked and nothing was swept in this quiet workload.
    assert_eq!(stats.dht_get_wait.count, 0);
    assert_eq!(stats.write.count, 0);
}

#[test]
fn dht_get_wait_tail_is_recorded_when_a_merge_blocks() {
    let s = store(8);
    let blob = s.create();

    // Unaligned v1 so the next append needs a boundary merge.
    let v1 = blob.append(&[1u8; 100]).unwrap();
    blob.sync(v1).unwrap();
    // v2's writer dies after version assignment: its metadata never
    // lands, so v3's boundary merge parks in the DHT on v2's leaf.
    blob.crash_append(Bytes::from(vec![2u8; 100]), CrashPoint::AfterPrepare).unwrap();
    let p3 = blob.append_pipelined(Bytes::from(vec![3u8; 100])).unwrap();

    // Give the merge time to park, then abort the dead writer
    // explicitly (a lease sweep here would also expire the parked
    // v3); the repair tree materialises v2's leaf and unblocks v3.
    std::thread::sleep(std::time::Duration::from_millis(30));
    s.abort(&blob, blobseer::Version(2)).unwrap();
    let v3 = p3.wait().unwrap();
    blob.sync(v3).unwrap();

    let stats = s.stats_snapshot();
    assert!(stats.dht_get_wait.count >= 1, "the parked merge must be recorded");
    // The block spanned the sleep before the abort, so the tail is
    // tens of milliseconds — far above timer noise.
    assert!(
        stats.dht_get_wait.p999_ns >= 10_000_000,
        "blocked wait of ~30ms, got p999 = {}ns",
        stats.dht_get_wait.p999_ns
    );
}

#[test]
fn scrub_phases_are_timed_separately() {
    let s = store(8);
    let blob = s.create();
    blob.append(&[7u8; PSIZE as usize]).unwrap();
    // Leak a page: dead after storing pages, before any metadata.
    blob.crash_append(Bytes::from(vec![9u8; PSIZE as usize]), CrashPoint::AfterPrepare).unwrap();
    s.advance_lease_clock(9);
    s.sweep_expired_leases();
    let report = s.scrub_orphans().unwrap();
    assert_eq!(report.pages_reclaimed, 1);

    let stats = s.stats_snapshot();
    assert_populated(stats.scrub_mark, 1, "scrub_mark");
    assert_populated(stats.scrub_sweep, 1, "scrub_sweep");
    // The one explicit sweep is timed too (no pipelined traffic here,
    // so no opportunistic background sweeps muddy the count).
    assert_populated(stats.lease_sweep, 1, "lease_sweep");
}

#[test]
fn metrics_text_is_scrape_ready() {
    let s = store(20);
    let blob = s.create();
    let v = blob.append(&[1u8; PSIZE as usize]).unwrap();
    blob.sync(v).unwrap();
    blob.snapshot(v).unwrap().read(ByteRange::new(0, PSIZE)).unwrap();

    let text = s.metrics_text();
    // Counters.
    assert!(text.contains("# TYPE blobseer_append_ops_total counter"));
    assert!(text.contains("blobseer_append_ops_total 1\n"));
    assert!(text.contains("blobseer_read_ops_total 1\n"));
    assert!(text.contains("blobseer_write_ops_total 0\n"));
    // Latency summaries with quantile lines for exercised ops.
    assert!(text.contains("# TYPE blobseer_append_latency_seconds summary"));
    assert!(text.contains("blobseer_append_latency_seconds{quantile=\"0.999\"}"));
    assert!(text.contains("blobseer_append_latency_seconds_count 1\n"));
    assert!(text.contains("blobseer_read_latency_seconds{quantile=\"0.5\"}"));
    // Unexercised histograms render without quantile lines.
    assert!(text.contains("# TYPE blobseer_scrub_mark_latency_seconds summary"));
    assert!(!text.contains("blobseer_scrub_mark_latency_seconds{quantile"));
    assert!(text.contains("blobseer_scrub_mark_latency_seconds_count 0\n"));
    // The DHT's shared block-time histogram is registered.
    assert!(text.contains("# TYPE blobseer_dht_get_wait_seconds summary"));
    // Deployment gauges appended from StoreStats.
    assert!(text.contains("# TYPE blobseer_physical_bytes gauge"));
    assert!(text.contains(&format!("blobseer_physical_bytes {PSIZE}\n")));
    assert!(text.contains("blobseer_physical_pages 1\n"));
    // Every line is either a comment or `name[{labels}] value`.
    for line in text.lines() {
        assert!(
            line.starts_with('#')
                || line
                    .split_once(' ')
                    .is_some_and(|(name, value)| !name.is_empty() && !value.is_empty()),
            "malformed exposition line: {line:?}"
        );
    }
}

#[test]
fn pipelined_updates_record_latency_on_completion() {
    let s = store(20);
    let blob = s.create();
    let pending: Vec<_> = (0..4u8)
        .map(|i| blob.append_pipelined(Bytes::from(vec![i; PSIZE as usize])).unwrap())
        .collect();
    for p in pending {
        p.wait().unwrap();
    }
    let stats = s.stats_snapshot();
    assert_populated(stats.append, 4, "pipelined append");
}
