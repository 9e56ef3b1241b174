//! The shape of `BlobSeer::metrics_text()`, pinned from outside: the
//! ordered `# HELP`/`# TYPE` lines of a fully exercised store, each
//! operation's `_ops_total` against its latency summary's `_count`, and
//! a row in `docs/OBSERVABILITY.md` for every exposed metric — so a
//! metric added without its documentation fails here, not in review.

use blobseer::{BlobSeer, ByteRange, QosConfig, TenantId, TenantQuota};

/// A store with QoS on and two providers that has run one operation
/// of each kind: append, write, read, scatter read, vectored read.
fn exercised() -> String {
    let quota = TenantQuota { bytes_per_sec: 1 << 30, ..TenantQuota::unlimited() };
    let store = BlobSeer::builder()
        .page_size(4096)
        .data_providers(2)
        .metadata_providers(2)
        .io_threads(1)
        .qos(QosConfig::default().with_tenant(1, quota))
        .build()
        .unwrap();
    let blob = store.create().for_tenant(TenantId(1));
    blob.append(&[1u8; 8192]).unwrap();
    let v = blob.write(&[2u8; 4096], 0).unwrap();
    let snap = blob.snapshot(v).unwrap();
    snap.read(ByteRange::new(0, 4096)).unwrap();
    snap.read_scatter(ByteRange::new(0, 8192)).unwrap();
    snap.readv(&[ByteRange::new(0, 100), ByteRange::new(4096, 100)]).unwrap();
    store.metrics_text()
}

/// The value of the unlabeled sample `name`.
fn sample(text: &str, name: &str) -> u64 {
    let line = text.lines().find_map(|l| l.strip_prefix(name)?.strip_prefix(' '));
    line.unwrap_or_else(|| panic!("no sample {name}")).parse().unwrap()
}

#[test]
fn help_and_type_lines_keep_their_names_help_and_order() {
    let text = exercised();
    let headers: Vec<&str> = text.lines().filter(|l| l.starts_with("# ")).collect();
    assert_eq!(headers.join("\n"), HEADERS.trim_end());
}

#[test]
fn every_ops_total_equals_its_latency_count() {
    let text = exercised();
    for op in ["append", "write", "read", "read_scatter", "readv"] {
        let ops = sample(&text, &format!("blobseer_{op}_ops_total"));
        assert_eq!(ops, 1, "{op}");
        assert_eq!(ops, sample(&text, &format!("blobseer_{op}_latency_seconds_count")), "{op}");
    }
}

#[test]
fn every_exposed_metric_has_a_row_in_the_observability_book() {
    let book = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/OBSERVABILITY.md"),
    )
    .unwrap();
    let text = exercised();
    let missing: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE ")?.split(' ').next())
        .filter(|name| !book.lines().any(|row| row.starts_with(&format!("| `{name}` |"))))
        .collect();
    assert!(missing.is_empty(), "metrics without a row in docs/OBSERVABILITY.md: {missing:?}");
}

/// The `# HELP`/`# TYPE` lines of [`exercised`], in exposition order.
const HEADERS: &str = "\
# HELP blobseer_append_ops_total appends published
# TYPE blobseer_append_ops_total counter
# HELP blobseer_write_ops_total writes published
# TYPE blobseer_write_ops_total counter
# HELP blobseer_read_ops_total contiguous snapshot reads served
# TYPE blobseer_read_ops_total counter
# HELP blobseer_read_scatter_ops_total zero-copy scatter reads served
# TYPE blobseer_read_scatter_ops_total counter
# HELP blobseer_readv_ops_total vectored snapshot reads served
# TYPE blobseer_readv_ops_total counter
# HELP blobseer_append_latency_seconds append: version assignment to publication
# TYPE blobseer_append_latency_seconds summary
# HELP blobseer_write_latency_seconds write: version assignment to publication
# TYPE blobseer_write_latency_seconds summary
# HELP blobseer_read_latency_seconds contiguous snapshot read
# TYPE blobseer_read_latency_seconds summary
# HELP blobseer_read_scatter_latency_seconds zero-copy scatter snapshot read
# TYPE blobseer_read_scatter_latency_seconds summary
# HELP blobseer_readv_latency_seconds vectored snapshot read
# TYPE blobseer_readv_latency_seconds summary
# HELP blobseer_write_prepare_latency_seconds update prepare: interior page store + version assignment
# TYPE blobseer_write_prepare_latency_seconds summary
# HELP blobseer_dht_get_wait_seconds time blocked waiting for in-flight metadata to materialise
# TYPE blobseer_dht_get_wait_seconds summary
# HELP blobseer_lease_sweep_latency_seconds expired-lease sweep: scan plus repairs
# TYPE blobseer_lease_sweep_latency_seconds summary
# HELP blobseer_scrub_mark_latency_seconds orphan scrub mark phase: epoch cut + live-page walk
# TYPE blobseer_scrub_mark_latency_seconds summary
# HELP blobseer_scrub_sweep_latency_seconds orphan scrub sweep phase: provider-side deletion
# TYPE blobseer_scrub_sweep_latency_seconds summary
# HELP blobseer_repair_mark_latency_seconds replica repair mark phase: epoch cut + live-page walk + provider scans
# TYPE blobseer_repair_mark_latency_seconds summary
# HELP blobseer_repair_copy_latency_seconds replica repair copy phase: verify chains, re-copy missing/corrupt replicas
# TYPE blobseer_repair_copy_latency_seconds summary
# HELP blobseer_drain_mark_latency_seconds provider drain mark phase: epoch cut + live-page walk + victim scan
# TYPE blobseer_drain_mark_latency_seconds summary
# HELP blobseer_drain_copy_latency_seconds provider drain copy phase: re-place one round of victim pages on survivors
# TYPE blobseer_drain_copy_latency_seconds summary
# HELP blobseer_drain_pages_migrated_total page copies written onto survivors by provider drains
# TYPE blobseer_drain_pages_migrated_total counter
# HELP blobseer_drain_bytes_migrated_total payload bytes those drain migrations carried
# TYPE blobseer_drain_bytes_migrated_total counter
# HELP blobseer_failovers_total page stores re-placed onto a fallback provider
# TYPE blobseer_failovers_total counter
# HELP blobseer_corrupt_pages_detected_total page copies that failed checksum verification
# TYPE blobseer_corrupt_pages_detected_total counter
# HELP blobseer_under_replicated_stores_total page stores that published fewer copies than the replication factor
# TYPE blobseer_under_replicated_stores_total counter
# HELP blobseer_checksum_sealed_bytes_total payload bytes checksummed by the client when sealing pages (once per page)
# TYPE blobseer_checksum_sealed_bytes_total counter
# HELP blobseer_physical_bytes payload bytes physically stored across all providers
# TYPE blobseer_physical_bytes gauge
# HELP blobseer_physical_pages pages physically stored across all providers
# TYPE blobseer_physical_pages gauge
# HELP blobseer_metadata_nodes metadata tree nodes stored in the DHT
# TYPE blobseer_metadata_nodes gauge
# HELP blobseer_metadata_slots metadata slab slots allocated (32 bytes each, reused once released)
# TYPE blobseer_metadata_slots gauge
# HELP blobseer_providers_registered data providers ever registered (retired tombstones included)
# TYPE blobseer_providers_registered gauge
# HELP blobseer_providers_active data providers eligible for new page placement
# TYPE blobseer_providers_active gauge
# HELP blobseer_providers_draining data providers currently draining (read-only)
# TYPE blobseer_providers_draining gauge
# HELP blobseer_providers_retired data providers retired by completed drains
# TYPE blobseer_providers_retired gauge
# HELP blobseer_vm_read_views_total read-view resolutions served by the version manager
# TYPE blobseer_vm_read_views_total gauge
# HELP blobseer_vm_lockfree_reads_total hot VM reads served wait-free from a blob's seqlock cell (no blob mutex)
# TYPE blobseer_vm_lockfree_reads_total gauge
# HELP blobseer_checksum_verified_bytes_total payload bytes providers re-hashed to verify fetches (only the blocks returned)
# TYPE blobseer_checksum_verified_bytes_total counter
# HELP blobseer_provider_store_latency_seconds single page store on one provider (successful attempt)
# TYPE blobseer_provider_store_latency_seconds summary
# HELP blobseer_provider_fetch_latency_seconds single page fetch from one provider (successful attempt)
# TYPE blobseer_provider_fetch_latency_seconds summary
# HELP blobseer_qos_admitted_total updates admitted by QoS admission control
# TYPE blobseer_qos_admitted_total counter
# HELP blobseer_qos_throttled_total updates refused with QuotaExceeded
# TYPE blobseer_qos_throttled_total counter
# HELP blobseer_qos_wait_seconds time blocked in admission waiting for tokens
# TYPE blobseer_qos_wait_seconds summary
# HELP blobseer_qos_tokens_bytes byte tokens currently available (limited tenants)
# TYPE blobseer_qos_tokens_bytes gauge
# HELP blobseer_qos_tokens_ops op tokens currently available (limited tenants)
# TYPE blobseer_qos_tokens_ops gauge
";
