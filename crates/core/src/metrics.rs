//! Per-engine metrics as plain data, and the one writer of their
//! exposition.
//!
//! One `EngineMetrics` per [`Engine`] — not process-global — so a test
//! spinning up many stores gets independent metrics. Latency *timers*
//! always time: call sites start a [`Timer`](blobseer_metrics::Timer)
//! (one clock read) and stop it into the histogram on success (one
//! more). Counters and histograms are striped by thread, so a counter
//! bump is one relaxed `fetch_add` and a record two, all on cache lines
//! only the recording thread writes: two readers serving `read_into`
//! side by side never move a metric line between their cores.
//!
//! [`render`] writes every series of [`crate::BlobSeer::metrics_text`]
//! in one pass, in a fixed order: an operation's `_ops_total` is its
//! latency histogram's count, and the gauges, the DHT's block-time
//! histogram, the per-provider latency splits and the per-tenant QoS
//! families are read straight from the components that own them.
//! Adding a metric is a field here and a line in [`render`]. Metric
//! names and semantics are documented in `docs/OBSERVABILITY.md`.

use std::sync::Arc;

use blobseer_metrics::{
    clock, write_counter, write_gauge, write_header, write_sample, write_summary_seconds,
    write_summary_seconds_labeled, AtomicHistogram, Counter,
};
use blobseer_types::ProviderId;

use crate::engine::Engine;

#[derive(Default)]
pub(crate) struct EngineMetrics {
    pub append_latency: AtomicHistogram,
    pub write_latency: AtomicHistogram,
    pub read_latency: AtomicHistogram,
    pub read_scatter_latency: AtomicHistogram,
    pub readv_latency: AtomicHistogram,
    pub write_prepare_latency: AtomicHistogram,
    pub lease_sweep_latency: AtomicHistogram,
    pub scrub_mark_latency: AtomicHistogram,
    pub scrub_sweep_latency: AtomicHistogram,
    pub repair_mark_latency: AtomicHistogram,
    pub repair_copy_latency: AtomicHistogram,
    pub drain_mark_latency: AtomicHistogram,
    pub drain_copy_latency: AtomicHistogram,
    pub pages_migrated: Counter,
    pub bytes_migrated: Counter,
    pub failovers: Counter,
    pub corrupt_pages: Counter,
    pub under_replicated_stores: Counter,
    /// Payload bytes the client checksummed while sealing pages — once
    /// per page, whatever the replication factor.
    pub sealed_bytes: Counter,
}

/// The Prometheus-style text exposition of `engine`: every series of
/// [`crate::BlobSeer::metrics_text`], in its fixed order.
pub(crate) fn render(engine: &Engine) -> String {
    let (m, mut out) = (&engine.metrics, String::new());
    let o = &mut out;
    let ops = [
        ("append", "appends published", &m.append_latency),
        ("write", "writes published", &m.write_latency),
        ("read", "contiguous snapshot reads served", &m.read_latency),
        ("read_scatter", "zero-copy scatter reads served", &m.read_scatter_latency),
        ("readv", "vectored snapshot reads served", &m.readv_latency),
    ];
    for (op, help, latency) in ops {
        write_counter(o, &format!("blobseer_{op}_ops_total"), help, latency.snapshot().count());
    }
    let summaries = [
        ("append_latency", "append: version assignment to publication", &m.append_latency),
        ("write_latency", "write: version assignment to publication", &m.write_latency),
        ("read_latency", "contiguous snapshot read", &m.read_latency),
        ("read_scatter_latency", "zero-copy scatter snapshot read", &m.read_scatter_latency),
        ("readv_latency", "vectored snapshot read", &m.readv_latency),
        (
            "write_prepare_latency",
            "update prepare: interior page store + version assignment",
            &m.write_prepare_latency,
        ),
        (
            "dht_get_wait",
            "time blocked waiting for in-flight metadata to materialise",
            engine.meta.wait_latency(),
        ),
        ("lease_sweep_latency", "expired-lease sweep: scan plus repairs", &m.lease_sweep_latency),
        (
            "scrub_mark_latency",
            "orphan scrub mark phase: epoch cut + live-page walk",
            &m.scrub_mark_latency,
        ),
        (
            "scrub_sweep_latency",
            "orphan scrub sweep phase: provider-side deletion",
            &m.scrub_sweep_latency,
        ),
        (
            "repair_mark_latency",
            "replica repair mark phase: epoch cut + live-page walk + provider scans",
            &m.repair_mark_latency,
        ),
        (
            "repair_copy_latency",
            "replica repair copy phase: verify chains, re-copy missing/corrupt replicas",
            &m.repair_copy_latency,
        ),
        (
            "drain_mark_latency",
            "provider drain mark phase: epoch cut + live-page walk + victim scan",
            &m.drain_mark_latency,
        ),
        (
            "drain_copy_latency",
            "provider drain copy phase: re-place one round of victim pages on survivors",
            &m.drain_copy_latency,
        ),
    ];
    for (name, help, latency) in summaries {
        write_summary_seconds(o, &format!("blobseer_{name}_seconds"), help, &latency.snapshot());
    }
    let counters = [
        (
            "drain_pages_migrated",
            "page copies written onto survivors by provider drains",
            &m.pages_migrated,
        ),
        ("drain_bytes_migrated", "payload bytes those drain migrations carried", &m.bytes_migrated),
        ("failovers", "page stores re-placed onto a fallback provider", &m.failovers),
        (
            "corrupt_pages_detected",
            "page copies that failed checksum verification",
            &m.corrupt_pages,
        ),
        (
            "under_replicated_stores",
            "page stores that published fewer copies than the replication factor",
            &m.under_replicated_stores,
        ),
        (
            "checksum_sealed_bytes",
            "payload bytes checksummed by the client when sealing pages (once per page)",
            &m.sealed_bytes,
        ),
    ];
    for (name, help, counter) in counters {
        write_counter(o, &format!("blobseer_{name}_total"), help, counter.value());
    }
    let (providers, members, vm) =
        (&engine.providers, engine.providers.membership(), engine.vm.stats());
    let gauges = [
        (
            "physical_bytes",
            "payload bytes physically stored across all providers",
            providers.total_stored_bytes(),
        ),
        (
            "physical_pages",
            "pages physically stored across all providers",
            providers.total_pages() as u64,
        ),
        (
            "metadata_nodes",
            "metadata tree nodes stored in the DHT",
            engine.meta.node_count() as u64,
        ),
        (
            "metadata_slots",
            "metadata slab slots allocated (32 bytes each, reused once released)",
            engine.meta.slots() as u64,
        ),
        (
            "providers_registered",
            "data providers ever registered (retired tombstones included)",
            members.registered as u64,
        ),
        (
            "providers_active",
            "data providers eligible for new page placement",
            members.active as u64,
        ),
        (
            "providers_draining",
            "data providers currently draining (read-only)",
            members.draining as u64,
        ),
        ("providers_retired", "data providers retired by completed drains", members.retired as u64),
        (
            "vm_read_views_total",
            "read-view resolutions served by the version manager",
            vm.read_views,
        ),
        (
            "vm_lockfree_reads_total",
            "hot VM reads served wait-free from a blob's seqlock cell (no blob mutex)",
            vm.lockfree_reads,
        ),
    ];
    for (name, help, value) in gauges {
        write_gauge(o, &format!("blobseer_{name}"), help, value as i64);
    }
    write_counter(
        o,
        "blobseer_checksum_verified_bytes_total",
        "payload bytes providers re-hashed to verify fetches (only the blocks returned)",
        providers.total_bytes_verified(),
    );

    // Per-provider store/fetch latency splits: every registered
    // provider, joined and retired ones included, idle ones too, so
    // the set of series is stable across scrapes.
    let registered: Vec<_> = (0..providers.provider_count() as u32)
        .filter_map(|i| providers.provider(ProviderId(i)).ok())
        .collect();
    for (name, help, stores) in [
        (
            "blobseer_provider_store_latency_seconds",
            "single page store on one provider (successful attempt)",
            true,
        ),
        (
            "blobseer_provider_fetch_latency_seconds",
            "single page fetch from one provider (successful attempt)",
            false,
        ),
    ] {
        write_header(o, name, help, "summary");
        for p in &registered {
            let latency = if stores { p.store_latency() } else { p.fetch_latency() };
            let labels = format!("provider=\"{}\"", p.id().raw());
            write_summary_seconds_labeled(o, name, &labels, &latency.snapshot());
        }
    }

    // Per-tenant QoS families, in tenant-id order; token gauges only
    // for the limited axes (an unlimited one has no bucket).
    let Some(qos) = &engine.qos else { return out };
    let mut tenants: Vec<_> = qos.tenants.lock().iter().map(|(&t, m)| (t, Arc::clone(m))).collect();
    tenants.sort_by_key(|(t, _)| *t);
    let label = |t: &dyn std::fmt::Display| format!("tenant=\"{t}\"");
    for (name, help, admitted) in [
        ("blobseer_qos_admitted_total", "updates admitted by QoS admission control", true),
        ("blobseer_qos_throttled_total", "updates refused with QuotaExceeded", false),
    ] {
        write_header(o, name, help, "counter");
        for (t, m) in &tenants {
            let value = if admitted { m.admitted.value() } else { m.throttled.value() };
            write_sample(o, name, &label(t), value);
        }
    }
    let wait = "blobseer_qos_wait_seconds";
    write_header(o, wait, "time blocked in admission waiting for tokens", "summary");
    for (t, m) in &tenants {
        write_summary_seconds_labeled(o, wait, &label(t), &m.wait.snapshot());
    }
    let now = clock::precise_now();
    let tokens: Vec<_> =
        qos.registry.all().into_iter().map(|(t, state)| (t, state.tokens_at(now))).collect();
    for (name, help, bytes) in [
        ("blobseer_qos_tokens_bytes", "byte tokens currently available (limited tenants)", true),
        ("blobseer_qos_tokens_ops", "op tokens currently available (limited tenants)", false),
    ] {
        write_header(o, name, help, "gauge");
        for (t, (b, ops)) in &tokens {
            if let Some(value) = if bytes { b } else { ops } {
                write_sample(o, name, &label(t), value);
            }
        }
    }
    out
}
