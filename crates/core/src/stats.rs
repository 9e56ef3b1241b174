//! Deployment-wide statistics.
//!
//! Two views live here: [`StoreStats`] — footprint and component
//! counters (bytes, pages, tree nodes) — and [`StatsSnapshot`] — the
//! tail-latency view built from the engine's metric registry
//! (`crate::metrics`). The first answers "how much", the second
//! "how slow"; `docs/OBSERVABILITY.md` is the reference for both.

use blobseer_dht::DhtStats;
use blobseer_metrics::HistogramSnapshot;
use blobseer_provider::ProviderStats;
use blobseer_version::VmStats;

use crate::engine::Engine;

/// A point-in-time view of the whole deployment, backing the paper's
/// §4.3 efficiency claims:
///
/// * *storage efficiency* (E3): [`StoreStats::physical_bytes`] vs. the
///   logical bytes addressable across all published snapshots;
/// * *metadata sharing* (E4): [`StoreStats::metadata_nodes`] vs. the
///   node count a full per-version rebuild would need;
/// * *hotspots*: per-provider and per-bucket counters.
#[derive(Clone, Debug)]
pub struct StoreStats {
    /// Per-data-provider counters.
    pub providers: Vec<ProviderStats>,
    /// Metadata DHT counters (per bucket + totals).
    pub metadata: DhtStats,
    /// Version-manager counters.
    pub vm: VmStats,
    /// Total payload bytes physically stored across all providers.
    pub physical_bytes: u64,
    /// Total pages physically stored.
    pub physical_pages: usize,
    /// Total metadata tree nodes stored.
    pub metadata_nodes: usize,
    /// Lifetime boxed helpers submitted to the client I/O pool — the
    /// fork-join's dispatch-overhead gauge (a batch costs at most one
    /// helper per worker, not one per page; the caller works too).
    pub io_jobs_dispatched: u64,
}

pub(crate) fn collect(engine: &Engine) -> StoreStats {
    StoreStats {
        providers: engine.providers.stats(),
        metadata: engine.meta.stats(),
        vm: engine.vm.stats(),
        physical_bytes: engine.providers.total_stored_bytes(),
        physical_pages: engine.providers.total_pages(),
        metadata_nodes: engine.meta.node_count(),
        io_jobs_dispatched: engine.pool.jobs_dispatched(),
    }
}

/// Latency digest of one instrumented operation: sample count, mean
/// and nearest-rank percentiles, in nanoseconds. Percentiles are upper
/// bucket edges of a base-2 log-linear histogram — within 1/128
/// (≈ 0.8 %) above the true sample (see `blobseer_metrics`). All
/// fields are zero when the operation never ran.
///
/// # Examples
///
/// ```
/// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
/// #     .metadata_providers(2).io_threads(1).pipeline_threads(1).build()?;
/// # let blob = store.create();
/// blob.append(&[1u8; 4096])?;
/// let lat = store.stats_snapshot().append;
/// assert_eq!(lat.count, 1);
/// assert!(lat.p50_ns > 0 && lat.p50_ns <= lat.p999_ns);
/// assert!(lat.max_ns >= lat.p999_ns);
/// # Ok::<(), blobseer::BlobError>(())
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpLatency {
    /// Samples recorded since the store was built.
    pub count: u64,
    /// Mean latency in nanoseconds (0 when `count == 0`).
    pub mean_ns: u64,
    /// Median, nanoseconds.
    pub p50_ns: u64,
    /// 90th percentile, nanoseconds.
    pub p90_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th percentile — the tail the paper's "heavy access
    /// concurrency" claims live or die on.
    pub p999_ns: u64,
    /// Largest recorded sample's bucket edge, nanoseconds.
    pub max_ns: u64,
}

impl OpLatency {
    pub(crate) fn from_snapshot(s: &HistogramSnapshot) -> OpLatency {
        OpLatency {
            count: s.count(),
            mean_ns: s.mean(),
            p50_ns: s.p50(),
            p90_ns: s.p90(),
            p99_ns: s.p99(),
            p999_ns: s.p999(),
            max_ns: s.max(),
        }
    }
}

/// Latency-and-rate digest of one operation over the histogram's
/// **recent window** (the ring of interval slices behind
/// [`blobseer_metrics::WindowedHistogram`]), as opposed to the
/// lifetime [`OpLatency`] view. This is what a dashboard's "now" panel
/// wants: a burst ten minutes ago no longer dominates the percentile.
///
/// # Examples
///
/// ```
/// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
/// #     .metadata_providers(2).io_threads(1).pipeline_threads(1).build()?;
/// # let blob = store.create();
/// blob.append(&[1u8; 4096])?;
/// let w = store.stats_snapshot().append_window;
/// assert_eq!(w.count, 1);
/// assert!(w.window_ns > 0);
/// assert!(w.ops_per_sec() <= 1_000_000_000, "1 op over a >=1ns window");
/// # Ok::<(), blobseer::BlobError>(())
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpWindow {
    /// Samples recorded within the window.
    pub count: u64,
    /// Mean latency over the window, nanoseconds.
    pub mean_ns: u64,
    /// 99th percentile over the window, nanoseconds.
    pub p99_ns: u64,
    /// The window's span in nanoseconds (the denominator of
    /// [`OpWindow::ops_per_sec`]).
    pub window_ns: u64,
}

impl OpWindow {
    /// The operation's recent rate: `count` over the window span,
    /// rounded down to whole operations per second (0 when the window
    /// span is zero).
    pub fn ops_per_sec(&self) -> u64 {
        if self.window_ns == 0 {
            return 0;
        }
        ((self.count as u128 * 1_000_000_000) / self.window_ns as u128) as u64
    }

    fn from_hist(h: &blobseer_metrics::WindowedHistogram, now_ns: u64) -> OpWindow {
        let s = h.window_snapshot_at(now_ns);
        OpWindow {
            count: s.count(),
            mean_ns: s.mean(),
            p99_ns: s.p99(),
            window_ns: h.window().as_nanos() as u64,
        }
    }
}

/// Point-in-time latency digests for every instrumented operation,
/// from [`crate::BlobSeer::stats_snapshot`]. Lifetime view: every
/// sample since the store was built (the Prometheus exposition,
/// [`crate::BlobSeer::metrics_text`], carries the same data plus
/// operation counters); the `*_window` fields add the recent-window
/// rate/latency view ([`OpWindow`]) for the hot-path operations.
/// Field-by-field semantics — and how to read a rising tail — are in
/// `docs/OBSERVABILITY.md`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// `APPEND`: version assignment to publication (blocking) or
    /// submission to completion (pipelined).
    pub append: OpLatency,
    /// `WRITE`: same spans as `append`.
    pub write: OpLatency,
    /// Contiguous snapshot reads (`Snapshot::read` / `read_into` and
    /// the flat facade).
    pub read: OpLatency,
    /// Zero-copy scatter reads ([`crate::Snapshot::read_scatter`]).
    pub read_scatter: OpLatency,
    /// Vectored reads ([`crate::Snapshot::readv`]).
    pub readv: OpLatency,
    /// Update prepare half: interior page store + version assignment.
    pub write_prepare: OpLatency,
    /// Time blocked in the metadata DHT waiting for in-flight nodes —
    /// the paper's concurrency seam.
    pub dht_get_wait: OpLatency,
    /// Expired-lease sweep (scan + repairs, gate wait excluded).
    pub lease_sweep: OpLatency,
    /// Orphan-scrub mark phase (metadata-bound).
    pub scrub_mark: OpLatency,
    /// Orphan-scrub sweep phase (provider-bound).
    pub scrub_sweep: OpLatency,
    /// Replica-repair mark phase (epoch cut + live-page walk +
    /// provider scans; metadata- and scan-bound).
    pub repair_mark: OpLatency,
    /// Replica-repair copy phase (chain verification + re-copies;
    /// provider-bound).
    pub repair_copy: OpLatency,
    /// Lifetime page stores re-placed onto a fallback provider because
    /// a replica-chain member was offline or erroring.
    pub failovers_total: u64,
    /// Lifetime page copies that failed checksum verification
    /// (engine-observed; per-provider splits are in
    /// [`StoreStats::providers`]).
    pub corrupt_pages_detected: u64,
    /// Lifetime page stores that published fewer copies than the
    /// replication factor — run [`crate::BlobSeer::repair_replicas`]
    /// when this moves; see `docs/OPERATIONS.md` ("degraded mode").
    pub under_replicated_stores: u64,
    /// Lifetime payload bytes the client checksummed while sealing
    /// pages: once per page stored, whatever the replication factor,
    /// and never for a repair or drain copy (those re-place a page
    /// that is already sealed).
    pub checksum_sealed_bytes: u64,
    /// Lifetime payload bytes providers re-hashed to verify fetches —
    /// whole pages for repair and drain, only the blocks a read
    /// returns bytes from otherwise (per-provider splits are in
    /// [`StoreStats::providers`]).
    pub checksum_verified_bytes: u64,
    /// `APPEND` over the recent window (rate + latency).
    pub append_window: OpWindow,
    /// `WRITE` over the recent window.
    pub write_window: OpWindow,
    /// Contiguous reads over the recent window.
    pub read_window: OpWindow,
    /// Scatter reads over the recent window.
    pub read_scatter_window: OpWindow,
    /// Vectored reads over the recent window.
    pub readv_window: OpWindow,
    /// DHT block time over the recent window — the first place a
    /// concurrency regression shows up.
    pub dht_get_wait_window: OpWindow,
}

pub(crate) fn snapshot(engine: &Engine) -> StatsSnapshot {
    let m = &engine.metrics;
    let op = |h: &blobseer_metrics::WindowedHistogram| OpLatency::from_snapshot(&h.snapshot());
    // One real clock read for every window: the coarse cached reading
    // may be stale on a quiet deployment, which would inflate windows.
    let now = blobseer_metrics::clock::refresh();
    let win = |h: &blobseer_metrics::WindowedHistogram| OpWindow::from_hist(h, now);
    StatsSnapshot {
        append: op(&m.append_latency),
        write: op(&m.write_latency),
        read: op(&m.read_latency),
        read_scatter: op(&m.read_scatter_latency),
        readv: op(&m.readv_latency),
        write_prepare: op(&m.write_prepare_latency),
        dht_get_wait: op(&m.dht_get_wait_latency),
        lease_sweep: op(&m.lease_sweep_latency),
        scrub_mark: op(&m.scrub_mark_latency),
        scrub_sweep: op(&m.scrub_sweep_latency),
        repair_mark: op(&m.repair_mark_latency),
        repair_copy: op(&m.repair_copy_latency),
        failovers_total: m.failovers.value(),
        corrupt_pages_detected: m.corrupt_pages.value(),
        under_replicated_stores: m.under_replicated_stores.value(),
        checksum_sealed_bytes: m.sealed_bytes.value(),
        checksum_verified_bytes: engine.providers.total_bytes_verified(),
        append_window: win(&m.append_latency),
        write_window: win(&m.write_latency),
        read_window: win(&m.read_latency),
        read_scatter_window: win(&m.read_scatter_latency),
        readv_window: win(&m.readv_latency),
        dht_get_wait_window: win(&m.dht_get_wait_latency),
    }
}
