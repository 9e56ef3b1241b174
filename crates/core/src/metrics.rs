//! Per-engine metric registry: every hot-path latency histogram and
//! operation counter, wired once at build time.
//!
//! One `EngineMetrics` per [`Engine`](crate::engine::Engine) — not
//! process-global — so a test spinning up many stores gets independent
//! registries. Operation *counters* always count (one relaxed
//! `fetch_add`) and latency *timers* always time: call sites start a
//! [`Timer`](blobseer_metrics::Timer) and stop it into the histogram
//! on success. The DHT's own block-time histogram is created by the
//! DHT and merely registered here for exposition.
//!
//! Metric names and semantics are documented in `docs/OBSERVABILITY.md`.

use std::sync::Arc;

use blobseer_metrics::{Counter, Registry, WindowedHistogram};

pub(crate) struct EngineMetrics {
    registry: Registry,
    pub append_ops: Arc<Counter>,
    pub write_ops: Arc<Counter>,
    pub read_ops: Arc<Counter>,
    pub read_scatter_ops: Arc<Counter>,
    pub readv_ops: Arc<Counter>,
    pub append_latency: Arc<WindowedHistogram>,
    pub write_latency: Arc<WindowedHistogram>,
    pub read_latency: Arc<WindowedHistogram>,
    pub read_scatter_latency: Arc<WindowedHistogram>,
    pub readv_latency: Arc<WindowedHistogram>,
    pub write_prepare_latency: Arc<WindowedHistogram>,
    pub dht_get_wait_latency: Arc<WindowedHistogram>,
    pub lease_sweep_latency: Arc<WindowedHistogram>,
    pub scrub_mark_latency: Arc<WindowedHistogram>,
    pub scrub_sweep_latency: Arc<WindowedHistogram>,
    pub repair_mark_latency: Arc<WindowedHistogram>,
    pub repair_copy_latency: Arc<WindowedHistogram>,
    pub drain_mark_latency: Arc<WindowedHistogram>,
    pub drain_copy_latency: Arc<WindowedHistogram>,
    pub pages_migrated: Arc<Counter>,
    pub bytes_migrated: Arc<Counter>,
    pub failovers: Arc<Counter>,
    pub corrupt_pages: Arc<Counter>,
    pub under_replicated_stores: Arc<Counter>,
    /// Payload bytes the client checksummed while sealing pages — once
    /// per page, whatever the replication factor.
    pub sealed_bytes: Arc<Counter>,
    /// Per-provider page-store latency, indexed by provider id. Kept
    /// out of the [`Registry`] — labeled series (`{provider="N"}`)
    /// need one shared `# TYPE` header, so exposition goes through
    /// [`EngineMetrics::render_provider_latency`] instead. Buckets
    /// allocate lazily, so idle providers cost a pointer each.
    pub provider_store_latency: Vec<Arc<WindowedHistogram>>,
    /// Per-provider page-fetch latency (successful fetches only),
    /// indexed by provider id; same exposition path as stores.
    pub provider_fetch_latency: Vec<Arc<WindowedHistogram>>,
}

impl EngineMetrics {
    /// Build and register the full metric set. `dht_wait` is the
    /// metadata DHT's shared block-time histogram; `providers` sizes
    /// the per-provider latency vectors.
    pub fn new(dht_wait: Arc<WindowedHistogram>, providers: usize) -> EngineMetrics {
        let r = Registry::new();
        let append_ops = r.counter("blobseer_append_ops_total", "appends published");
        let write_ops = r.counter("blobseer_write_ops_total", "writes published");
        let read_ops = r.counter("blobseer_read_ops_total", "contiguous snapshot reads served");
        let read_scatter_ops =
            r.counter("blobseer_read_scatter_ops_total", "zero-copy scatter reads served");
        let readv_ops = r.counter("blobseer_readv_ops_total", "vectored snapshot reads served");
        let append_latency = r.histogram_seconds(
            "blobseer_append_latency_seconds",
            "append: version assignment to publication",
        );
        let write_latency = r.histogram_seconds(
            "blobseer_write_latency_seconds",
            "write: version assignment to publication",
        );
        let read_latency =
            r.histogram_seconds("blobseer_read_latency_seconds", "contiguous snapshot read");
        let read_scatter_latency = r.histogram_seconds(
            "blobseer_read_scatter_latency_seconds",
            "zero-copy scatter snapshot read",
        );
        let readv_latency =
            r.histogram_seconds("blobseer_readv_latency_seconds", "vectored snapshot read");
        let write_prepare_latency = r.histogram_seconds(
            "blobseer_write_prepare_latency_seconds",
            "update prepare: interior page store + version assignment",
        );
        r.register_histogram_seconds(
            "blobseer_dht_get_wait_seconds",
            "time blocked waiting for in-flight metadata to materialise",
            Arc::clone(&dht_wait),
        );
        let lease_sweep_latency = r.histogram_seconds(
            "blobseer_lease_sweep_latency_seconds",
            "expired-lease sweep: scan plus repairs",
        );
        let scrub_mark_latency = r.histogram_seconds(
            "blobseer_scrub_mark_latency_seconds",
            "orphan scrub mark phase: epoch cut + live-page walk",
        );
        let scrub_sweep_latency = r.histogram_seconds(
            "blobseer_scrub_sweep_latency_seconds",
            "orphan scrub sweep phase: provider-side deletion",
        );
        let repair_mark_latency = r.histogram_seconds(
            "blobseer_repair_mark_latency_seconds",
            "replica repair mark phase: epoch cut + live-page walk + provider scans",
        );
        let repair_copy_latency = r.histogram_seconds(
            "blobseer_repair_copy_latency_seconds",
            "replica repair copy phase: verify chains, re-copy missing/corrupt replicas",
        );
        let drain_mark_latency = r.histogram_seconds(
            "blobseer_drain_mark_latency_seconds",
            "provider drain mark phase: epoch cut + live-page walk + victim scan",
        );
        let drain_copy_latency = r.histogram_seconds(
            "blobseer_drain_copy_latency_seconds",
            "provider drain copy phase: re-place one round of victim pages on survivors",
        );
        let pages_migrated = r.counter(
            "blobseer_drain_pages_migrated_total",
            "page copies written onto survivors by provider drains",
        );
        let bytes_migrated = r.counter(
            "blobseer_drain_bytes_migrated_total",
            "payload bytes those drain migrations carried",
        );
        let failovers =
            r.counter("blobseer_failovers_total", "page stores re-placed onto a fallback provider");
        let corrupt_pages = r.counter(
            "blobseer_corrupt_pages_detected_total",
            "page copies that failed checksum verification",
        );
        let under_replicated_stores = r.counter(
            "blobseer_under_replicated_stores_total",
            "page stores that published fewer copies than the replication factor",
        );
        let sealed_bytes = r.counter(
            "blobseer_checksum_sealed_bytes_total",
            "payload bytes checksummed by the client when sealing pages (once per page)",
        );
        EngineMetrics {
            registry: r,
            append_ops,
            write_ops,
            read_ops,
            read_scatter_ops,
            readv_ops,
            append_latency,
            write_latency,
            read_latency,
            read_scatter_latency,
            readv_latency,
            write_prepare_latency,
            dht_get_wait_latency: dht_wait,
            lease_sweep_latency,
            scrub_mark_latency,
            scrub_sweep_latency,
            repair_mark_latency,
            repair_copy_latency,
            drain_mark_latency,
            drain_copy_latency,
            pages_migrated,
            bytes_migrated,
            failovers,
            corrupt_pages,
            under_replicated_stores,
            sealed_bytes,
            provider_store_latency: (0..providers)
                .map(|_| Arc::new(WindowedHistogram::new()))
                .collect(),
            provider_fetch_latency: (0..providers)
                .map(|_| Arc::new(WindowedHistogram::new()))
                .collect(),
        }
    }

    /// Prometheus-style text exposition of every registered metric.
    pub fn render(&self) -> String {
        self.registry.render()
    }

    /// Append the per-provider store/fetch latency splits: one
    /// `# HELP`/`# TYPE` header per metric, then `{provider="N"}`
    /// labeled summary rows for every provider (including idle ones,
    /// so the set of series is stable across scrapes).
    pub fn render_provider_latency(&self, out: &mut String) {
        use std::fmt::Write;
        for (name, help, hists) in [
            (
                "blobseer_provider_store_latency_seconds",
                "single page store on one provider (successful attempt)",
                &self.provider_store_latency,
            ),
            (
                "blobseer_provider_fetch_latency_seconds",
                "single page fetch from one provider (successful attempt)",
                &self.provider_fetch_latency,
            ),
        ] {
            let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} summary");
            for (id, hist) in hists.iter().enumerate() {
                blobseer_metrics::write_summary_seconds_labeled(
                    out,
                    name,
                    &format!("provider=\"{id}\""),
                    &hist.snapshot(),
                );
            }
        }
    }
}
