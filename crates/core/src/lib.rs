//! # BlobSeer
//!
//! A reproduction of *BlobSeer: How to Enable Efficient Versioning for
//! Large Object Storage under Heavy Access Concurrency* (Nicolae,
//! Antoniu, Bougé — EDBT/DAMAP 2009).
//!
//! BlobSeer stores huge binary large objects (blobs) striped into
//! fixed-size pages over many data providers. Every update (`WRITE` /
//! `APPEND`) produces a **new snapshot version** instead of mutating
//! data in place: new pages are stored, and a new metadata segment tree
//! is "weaved" with the trees of older versions so that unmodified
//! pages (and whole metadata subtrees) are physically shared. A
//! centralized version manager assigns versions and publishes them in
//! total order, giving atomic semantics, while writers build data *and*
//! metadata fully in parallel thanks to the partial-border-set protocol
//! of the paper's §4.2.
//!
//! ## Quickstart
//!
//! The API is organised around three typed handles — [`Blob`] (the
//! mutation surface), [`Snapshot`] (a version-pinned read view) and
//! [`PendingWrite`] (a pipelined, in-flight update):
//!
//! ```
//! use blobseer::{BlobSeer, Bytes, ByteRange};
//!
//! let store = BlobSeer::builder()
//!     .page_size(4096)
//!     .data_providers(8)
//!     .build()
//!     .expect("valid configuration");
//!
//! // CREATE — a new blob starts as the empty snapshot, version 0.
//! let blob = store.create();
//!
//! // APPEND returns the assigned snapshot version; SYNC gives
//! // read-your-writes.
//! let v1 = blob.append(b"hello, ").unwrap();
//! let v2 = blob.append(b"world").unwrap();
//! blob.sync(v2).unwrap();
//!
//! // A Snapshot pins one published version: the version manager is
//! // consulted once, at construction — every read after that is
//! // VM-free, however many threads share the handle.
//! let snap = blob.snapshot(v2).unwrap();
//! assert_eq!(snap.len(), 12);
//! assert_eq!(&snap.read(ByteRange::new(0, 12)).unwrap()[..], b"hello, world");
//!
//! // Zero-copy scatter reads return refcounted windows of the stored
//! // pages instead of assembling a contiguous buffer.
//! let scatter = snap.read_scatter(ByteRange::new(0, 12)).unwrap();
//! assert_eq!(scatter.iter().map(|b| b.len()).sum::<usize>(), 12);
//!
//! // WRITE overwrites a range, producing a third version; older
//! // snapshots remain readable forever.
//! let v3 = blob.write(b"HELLO", 0).unwrap();
//! blob.sync(v3).unwrap();
//! assert_eq!(&blob.snapshot(v3).unwrap().read(ByteRange::new(0, 5)).unwrap()[..], b"HELLO");
//! assert_eq!(&snap.read(ByteRange::new(0, 5)).unwrap()[..], b"hello");
//!
//! // Pipelined appends keep several updates in flight from one thread:
//! // the version is assigned (and order fixed) before the call returns,
//! // while completion runs on the engine's pipeline pool.
//! let p1 = blob.append_pipelined(Bytes::from(vec![b'!'; 4096])).unwrap();
//! let p2 = blob.append_pipelined(Bytes::from(vec![b'?'; 4096])).unwrap();
//! assert!(p1.version() < p2.version());
//! let v5 = p2.wait().unwrap();
//! blob.sync(v5).unwrap();
//!
//! // BRANCH forks cheaply from any published version.
//! let fork = blob.branch(v2).unwrap();
//! let f = fork.append(b"!!!").unwrap();
//! fork.sync(f).unwrap();
//! assert_eq!(fork.latest().unwrap().len(), 15);
//! ```
//!
//! The flat, id-keyed methods on [`BlobSeer`] (`store.read(id, v, ..)`,
//! `store.append(id, ..)`, ...) remain available as thin wrappers over
//! the same engine — convenient when blob ids travel through
//! serialization boundaries. Every flat method accepts anything that
//! names a blob ([`BlobRef`]): a [`BlobId`], `&Blob` or `&Snapshot`.
//!
//! The public entry point is [`BlobSeer`]; construct one with
//! [`BlobSeer::builder`]. All handles are cheaply cloneable and fully
//! thread-safe — the whole point of the system is heavy concurrent use.
//!
//! ## Writer fault tolerance
//!
//! Beyond the paper (which defers client failures to future work),
//! every update holds a **lease** on its assigned version: a writer
//! that dies mid-update is detected by lease expiry and **aborted** —
//! its version becomes a typed hole ([`BlobError::VersionAborted`])
//! that the total order skips, so every later version still
//! publishes. Failed or panicked updates abort themselves; explicit
//! cancellation is [`Blob::abort`] / [`PendingWrite::abort`]; crash
//! injection for tests is [`Blob::crash_write`] /
//! [`Blob::crash_append`] with [`CrashPoint`]. The storage dead
//! writers leak — pages stored before their leaf nodes landed — is
//! reclaimed by the **orphan scrubber**, [`BlobSeer::scrub_orphans`],
//! a provider-side mark-and-sweep that is safe to run against live
//! traffic. See `docs/ARCHITECTURE.md` for the failure model and the
//! lease state machine, `docs/OPERATIONS.md` for the maintenance
//! runbook, and `docs/FAILURES.md` for the error cookbook.

mod abort;
mod blob;
mod builder;
mod engine;
mod gc;
mod maintenance;
mod membership;
mod metrics;
mod pending;
mod qos;
mod read;
mod repair;
mod scrub;
mod snapshot;
mod stats;
mod write;

pub use abort::SweepReport;
pub use blob::{Blob, BlobRef};
pub use builder::Builder;
pub use gc::GcReport;
pub use membership::DrainReport;
pub use pending::PendingWrite;
pub use qos::TenantQosStats;
pub use repair::RepairReport;
pub use scrub::ScrubReport;
pub use snapshot::{ScatterRead, ScatterSegment, Snapshot};
pub use stats::{OpLatency, OpWindow, StatsSnapshot, StoreStats};
pub use write::CrashPoint;

// Re-export the vocabulary a user needs to drive the API — including
// the fault-injection seam ([`Builder::page_stores`] + [`FaultPlan`]).
pub use blobseer_provider::{
    AllocationStrategy, FaultPlan, FilePageStore, MembershipCounts, MemoryPageStore, PageStore,
    PlacementCandidate, PlacementPolicy, ProviderStats, SealedPage, SUM_BLOCK,
};
pub use blobseer_types::{
    BlobError, BlobId, ByteRange, PageId, ProviderId, QosConfig, Result, StoreConfig, TenantId,
    TenantQuota, TenantQuotaEntry, Version,
};
pub use blobseer_version::ConcurrencyMode;
// Re-exported so callers of the zero-copy entry points need no direct
// `bytes` dependency.
pub use bytes::Bytes;

use std::sync::Arc;

use engine::Engine;

/// A handle to a BlobSeer deployment: the paper's client interface
/// (§2.1) over an in-process cluster of data providers, metadata
/// providers (DHT), a provider manager and a version manager.
///
/// Clone handles freely; all clones share the same deployment.
#[derive(Clone)]
pub struct BlobSeer {
    engine: Arc<Engine>,
}

impl BlobSeer {
    /// Start configuring a deployment.
    pub fn builder() -> Builder {
        Builder::new()
    }

    /// A deployment with [`StoreConfig::default`] settings.
    pub fn new_default() -> Self {
        Self::builder().build().expect("default config is valid")
    }

    /// `CREATE`: register a new blob and return its [`Blob`] handle.
    /// The blob starts as the empty snapshot, version 0.
    pub fn create(&self) -> Blob {
        let id = self.engine.vm.create();
        Blob::new(Arc::clone(&self.engine), id)
    }

    /// A [`Blob`] handle for an id obtained elsewhere (a previous
    /// [`Blob::id`], a serialized reference, ...). Unvalidated:
    /// operations on a handle to an unknown id fail with
    /// [`BlobError::BlobNotFound`].
    pub fn blob(&self, id: BlobId) -> Blob {
        Blob::new(Arc::clone(&self.engine), id)
    }

    /// A version-pinned [`Snapshot`] of `blob` at published version
    /// `v`; see [`Blob::snapshot`].
    pub fn snapshot(&self, blob: impl BlobRef, v: Version) -> Result<Snapshot> {
        Snapshot::open(&self.engine, blob.blob_id(), v)
    }

    /// `WRITE(id, buffer, offset, size)`: replace `data.len()` bytes at
    /// `offset`, producing a new snapshot. Returns the assigned version
    /// `vw`; the snapshot becomes visible to readers when *published*
    /// (use [`BlobSeer::sync`] to wait). Fails if `offset` exceeds the
    /// size of snapshot `vw − 1`, or if `data` is empty.
    ///
    /// Copies `data` exactly once, at this boundary; use
    /// [`BlobSeer::write_bytes`] to skip that copy too.
    pub fn write(&self, blob: impl BlobRef, data: &[u8], offset: u64) -> Result<Version> {
        self.write_bytes(blob, Bytes::copy_from_slice(data), offset)
    }

    /// Zero-copy `WRITE`: like [`BlobSeer::write`], but takes ownership
    /// of a refcounted [`Bytes`] buffer. Fully-covered pages are stored
    /// as O(1) slices of `data` — no payload byte is copied anywhere on
    /// the store path, regardless of the replication factor.
    pub fn write_bytes(&self, blob: impl BlobRef, data: Bytes, offset: u64) -> Result<Version> {
        write::update(
            &self.engine,
            blob.blob_id(),
            data,
            write::Target::Write { offset },
            TenantId::DEFAULT,
        )
    }

    /// `APPEND(id, buffer, size)`: append `data` at the end of the
    /// previous snapshot. Returns the assigned version.
    ///
    /// Copies `data` exactly once, at this boundary; use
    /// [`BlobSeer::append_bytes`] to skip that copy too.
    pub fn append(&self, blob: impl BlobRef, data: &[u8]) -> Result<Version> {
        self.append_bytes(blob, Bytes::copy_from_slice(data))
    }

    /// Zero-copy `APPEND`: like [`BlobSeer::append`], but takes
    /// ownership of a refcounted [`Bytes`] buffer (see
    /// [`BlobSeer::write_bytes`]).
    pub fn append_bytes(&self, blob: impl BlobRef, data: Bytes) -> Result<Version> {
        write::update(&self.engine, blob.blob_id(), data, write::Target::Append, TenantId::DEFAULT)
    }

    /// `READ(id, v, buffer, offset, size)`: read `size` bytes at
    /// `offset` from *published* snapshot `v`. Fails when `v` is not
    /// yet published or the range exceeds the snapshot size.
    ///
    /// Allocates a fresh buffer per call; reuse one via
    /// [`BlobSeer::read_into`], or pin the version with
    /// [`BlobSeer::snapshot`] to also skip the per-call version-manager
    /// lookup.
    pub fn read(&self, blob: impl BlobRef, v: Version, offset: u64, size: u64) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; size as usize];
        self.read_into(blob, v, offset, &mut buf)?;
        Ok(buf)
    }

    /// [`BlobSeer::read`] into a caller-supplied buffer (the paper's
    /// actual signature); reads exactly `buf.len()` bytes.
    pub fn read_into(
        &self,
        blob: impl BlobRef,
        v: Version,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<()> {
        read::read(&self.engine, blob.blob_id(), v, offset, buf)
    }

    /// `GET_RECENT(id)`: a recently published version — guaranteed ≥
    /// every version published before this call.
    pub fn get_recent(&self, blob: impl BlobRef) -> Result<Version> {
        self.engine.vm.get_recent(blob.blob_id())
    }

    /// `GET_SIZE(id, v)`: the size of published snapshot `v`.
    pub fn get_size(&self, blob: impl BlobRef, v: Version) -> Result<u64> {
        self.engine.vm.get_size(blob.blob_id(), v)
    }

    /// `SYNC(id, v)`: block until snapshot `v` is published ("read your
    /// writes", §2.1). Bounded by the configured metadata wait timeout.
    pub fn sync(&self, blob: impl BlobRef, v: Version) -> Result<()> {
        self.engine.vm.sync(blob.blob_id(), v, self.engine.wait_timeout())
    }

    /// `BRANCH(id, v)`: fork the blob at published version `v`. The new
    /// blob shares every snapshot up to and including `v` with the
    /// original — no data or metadata is copied — and evolves
    /// independently afterwards.
    pub fn branch(&self, blob: impl BlobRef, v: Version) -> Result<Blob> {
        let id = self.engine.vm.branch(blob.blob_id(), v)?;
        Ok(Blob::new(Arc::clone(&self.engine), id))
    }

    /// Retire (garbage-collect) every version of `blob` below
    /// `keep_from`: the versions become unreadable and their
    /// non-shared pages and tree nodes are reclaimed. Fails — without
    /// side effects — when `keep_from` is unpublished, updates are in
    /// flight, or a live branch pins older history. Extension beyond
    /// the paper; see `crates/core/src/gc.rs`.
    pub fn retire_versions(&self, blob: impl BlobRef, keep_from: Version) -> Result<GcReport> {
        gc::retire_versions(&self.engine, blob.blob_id(), keep_from)
    }

    /// Abort an assigned-but-unpublished version of `blob`; see
    /// [`Blob::abort`].
    pub fn abort(&self, blob: impl BlobRef, v: Version) -> Result<()> {
        abort::abort_version(&self.engine, blob.blob_id(), v)
    }

    /// Reclaim **orphaned pages**: a provider-side mark-and-sweep that
    /// deletes every stored page referenced by no metadata leaf —
    /// storage leaked by writers that died before their leaf nodes
    /// landed, and by repair pages that lost the `put_new` leaf race.
    /// Safe under full concurrency (no quiescence required): pages of
    /// in-flight operations are exempted by a page-id **epoch cut**,
    /// and the mark covers every retained version of every blob and
    /// branch, committed-abort repair trees and durable in-flight
    /// leaves included. Fails typed ([`BlobError::ScrubConflict`]) —
    /// with nothing deleted — if the mark races a `retire_versions`
    /// sweep; just rerun. Compose with
    /// [`BlobSeer::sweep_expired_leases`] (run it first so dead
    /// writers' versions are repaired and their leaks judged) and
    /// [`BlobSeer::retire_versions`] (which reclaims *retired* history;
    /// the scrubber reclaims what no history ever referenced). See
    /// `docs/OPERATIONS.md` for the runbook and the safety argument.
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::{Bytes, CrashPoint};
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).pipeline_threads(1)
    /// #     .lease_ttl_ticks(8).build()?;
    /// # let blob = store.create();
    /// let v1 = blob.append(&[7u8; 4096])?;
    /// // A writer dies after storing its pages but before any
    /// // metadata: the pages are leaked.
    /// blob.crash_append(Bytes::from(vec![9u8; 4096]), CrashPoint::AfterPrepare)?;
    /// store.advance_lease_clock(9);
    /// store.sweep_expired_leases(); // abort + repair the dead version
    /// let report = store.scrub_orphans()?;
    /// assert_eq!(report.pages_reclaimed, 1);
    /// assert_eq!(report.bytes_reclaimed, 4096);
    /// // Live data is untouched, and a second pass finds nothing.
    /// assert_eq!(&blob.snapshot(v1)?.read(blobseer::ByteRange::new(0, 4096))?[..4], [7u8; 4]);
    /// assert_eq!(store.scrub_orphans()?.pages_reclaimed, 0);
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn scrub_orphans(&self) -> Result<ScrubReport> {
        scrub::scrub_orphans(&self.engine)
    }

    /// Restore every live page to **full replication**: mark live
    /// pages against metadata (the scrubber's machinery and epoch-cut
    /// safety argument), scan every provider's physical copy set, and
    /// diff each page against its expected replica chain — re-copying
    /// missing or checksum-failed chain copies from any copy that
    /// verifies (chain first, then the write-path failover fallbacks),
    /// and trimming redundant failover strays once a chain fully
    /// verifies. Repair **fills, never overwrites**: a copy that
    /// verifies is never rewritten (replacing a corrupt copy is the
    /// one exception — its bytes were provably not the page). A second
    /// pass over a healthy deployment is a no-op. Run it after
    /// provider failures, whenever `under_replicated_stores` moves, or
    /// on a schedule; see `docs/OPERATIONS.md` ("degraded mode").
    ///
    /// # Examples
    ///
    /// ```
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(3)
    /// #     .metadata_providers(2).io_threads(1).pipeline_threads(1)
    /// #     .replication(2).build()?;
    /// # let blob = store.create();
    /// let v = blob.append(&[7u8; 4096])?;
    /// blob.sync(v)?;
    /// // Lose one provider's copies wholesale: reads still succeed
    /// // (replica fallback), and repair restores full replication.
    /// # let victim = store.stats().providers.iter()
    /// #     .find(|p| p.pages > 0).map(|p| p.id).unwrap();
    /// store.fail_provider(victim)?;
    /// let report = store.repair_replicas()?;
    /// assert_eq!(report.providers_skipped, 1);
    /// store.recover_provider(victim)?;
    /// // A healthy deployment repairs to a no-op.
    /// let report = store.repair_replicas()?;
    /// assert_eq!(report.copies_repaired, 0);
    /// assert_eq!(report.pages_unrepairable, 0);
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn repair_replicas(&self) -> Result<RepairReport> {
        repair::repair_replicas(&self.engine)
    }

    /// Run a lease sweep *now*, synchronously: abort every in-flight
    /// update whose writer lease lapsed (and retry any abort stuck on
    /// a still-wedged lower version). The same sweep runs
    /// opportunistically in the background — on the engine's pipeline
    /// pool after completion stages — so deployments with pipelined
    /// traffic rarely need to call this; tests call it (after
    /// [`BlobSeer::advance_lease_clock`]) for deterministic recovery.
    pub fn sweep_expired_leases(&self) -> SweepReport {
        abort::sweep_expired(&self.engine, None)
    }

    /// Advance the version manager's logical lease clock by `ticks`
    /// and return the new reading. The clock also advances implicitly
    /// with VM write operations (assign / renew / complete / abort);
    /// wall time never moves it, so lease expiry is deterministic.
    pub fn advance_lease_clock(&self, ticks: u64) -> u64 {
        self.engine.vm.advance_clock(ticks)
    }

    /// Failure injection: take a data provider offline. Pending pages
    /// stay on disk; requests fail until [`BlobSeer::recover_provider`].
    pub fn fail_provider(&self, id: ProviderId) -> Result<()> {
        self.engine.providers.provider(id)?.fail();
        Ok(())
    }

    /// Bring a failed data provider back online.
    pub fn recover_provider(&self, id: ProviderId) -> Result<()> {
        self.engine.providers.provider(id)?.recover();
        Ok(())
    }

    /// Register a brand-new in-memory data provider and return its id.
    /// The newcomer is **immediately** eligible: the next allocation
    /// may place primaries on it, and replica chains that wrap past the
    /// former last registry position continue onto it. Use
    /// [`BlobSeer::add_provider_store`] to bring your own backing
    /// store (e.g. a [`FilePageStore`]).
    ///
    /// # Examples
    ///
    /// ```
    /// # let store = blobseer::BlobSeer::builder().page_size(64).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).pipeline_threads(1).build()?;
    /// let id = store.add_provider();
    /// assert_eq!(id, blobseer::ProviderId(2));
    /// assert_eq!(store.membership().active, 3);
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn add_provider(&self) -> ProviderId {
        self.add_provider_store(Arc::new(MemoryPageStore::new()))
    }

    /// [`BlobSeer::add_provider`] over a caller-supplied page store.
    pub fn add_provider_store(&self, store: Arc<dyn PageStore>) -> ProviderId {
        self.engine.providers.add_provider(store)
    }

    /// Evacuate data provider `id` and retire it from the deployment.
    ///
    /// The provider first turns read-only (new stores fail over to the
    /// survivors), then its live pages are migrated to the
    /// post-retirement replica chains under the orphan scrubber's
    /// epoch-cut judgment — safe under concurrent writers, scrubs and
    /// GC — and once a scan proves it empty it becomes a registry
    /// tombstone: point lookups still resolve it (readers probing a
    /// stale chain take a clean miss) but placement, chains and
    /// maintenance sweeps skip it for good.
    ///
    /// Fails typed ([`BlobError::DrainConflict`]) — with the provider
    /// returned to service and **nothing** migrated-then-lost — when
    /// the provider is offline, already retired, the last active
    /// member, kept non-empty by in-flight updates past the engine's
    /// wait budget, or raced by a `retire_versions` that would make
    /// liveness a guess. See `docs/OPERATIONS.md` §6 for the runbook.
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::ProviderId;
    /// # let store = blobseer::BlobSeer::builder().page_size(64).data_providers(3)
    /// #     .metadata_providers(2).io_threads(1).pipeline_threads(1).replication(2).build()?;
    /// # let blob = store.create();
    /// blob.append(&[7u8; 256])?;
    /// let before = store.read(&blob, blob.recent_version()?, 0, 256)?;
    /// let report = store.drain_provider(ProviderId(0))?;
    /// assert!(report.pages_evacuated > 0);
    /// // Every snapshot reads byte-identical over the survivors.
    /// assert_eq!(store.read(&blob, blob.recent_version()?, 0, 256)?, before);
    /// assert_eq!(store.membership().retired, 1);
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn drain_provider(&self, id: ProviderId) -> Result<DrainReport> {
        membership::drain_provider(&self.engine, id)
    }

    /// Census of the provider membership states (registered / active /
    /// draining / retired) — the same numbers exported as
    /// `blobseer_providers_*` gauges by [`BlobSeer::metrics_text`].
    pub fn membership(&self) -> MembershipCounts {
        self.engine.providers.membership()
    }

    /// Hot-swap the page-placement policy to a built-in strategy. Only
    /// new allocations are affected: every stored page keeps its
    /// location, and replica chains are a function of registry order,
    /// not of placement — so the swap never invalidates a leaf.
    ///
    /// # Examples
    ///
    /// ```
    /// # let store = blobseer::BlobSeer::builder().page_size(64).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).pipeline_threads(1).build()?;
    /// store.set_placement(blobseer::AllocationStrategy::LeastLoaded);
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn set_placement(&self, strategy: AllocationStrategy) {
        self.engine.providers.set_placement(strategy);
    }

    /// [`BlobSeer::set_placement`] with a caller-implemented
    /// [`PlacementPolicy`] trait object.
    pub fn set_placement_policy(&self, policy: Arc<dyn PlacementPolicy>) {
        self.engine.providers.set_placement_policy(policy);
    }

    /// The deployment's configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.engine.config
    }

    /// Replace `tenant`'s QoS quota at runtime: fresh, full buckets
    /// under the new rates; in-flight admissions settle against the
    /// old ones. Fails typed when the deployment was built without
    /// [`Builder::qos`]. See `docs/OPERATIONS.md` ("tenant quotas").
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::{QosConfig, TenantId, TenantQuota};
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).pipeline_threads(1)
    /// #     .qos(QosConfig::default()).build()?;
    /// let quota = TenantQuota { bytes_per_sec: 1 << 20, ..TenantQuota::unlimited() };
    /// store.set_tenant_quota(TenantId(3), quota)?;
    /// assert_eq!(store.tenant_quota(TenantId(3))?.bytes_per_sec, 1 << 20);
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn set_tenant_quota(&self, tenant: TenantId, quota: TenantQuota) -> Result<()> {
        let qos = self.qos_state()?;
        qos.set_quota(tenant, &quota);
        Ok(())
    }

    /// The QoS quota `tenant` currently runs under (the configured
    /// default for tenants never adjusted explicitly). Fails typed
    /// when QoS is off.
    pub fn tenant_quota(&self, tenant: TenantId) -> Result<TenantQuota> {
        Ok(self.qos_state()?.quota(tenant))
    }

    /// Per-tenant QoS statistics: admitted / throttled counts and the
    /// admission-wait digest. Fails typed when QoS is off.
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::{QosConfig, TenantId};
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).pipeline_threads(1)
    /// #     .qos(QosConfig::default()).build()?;
    /// let blob = store.create().for_tenant(TenantId(1));
    /// blob.append(b"counted")?;
    /// let stats = store.tenant_qos_stats(TenantId(1))?;
    /// assert_eq!(stats.admitted, 1);
    /// assert_eq!(stats.throttled, 0);
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn tenant_qos_stats(&self, tenant: TenantId) -> Result<TenantQosStats> {
        Ok(self.qos_state()?.stats_of(tenant))
    }

    fn qos_state(&self) -> Result<&qos::EngineQos> {
        self.engine.qos.as_ref().ok_or_else(|| {
            BlobError::Storage("QoS is not enabled; configure Builder::qos(...)".into())
        })
    }

    /// Deployment-wide statistics: physical storage, metadata footprint
    /// and per-component counters (used by the E3/E5/E6 experiments).
    pub fn stats(&self) -> StoreStats {
        stats::collect(&self.engine)
    }

    /// Tail-latency digests for every instrumented operation — append,
    /// write, snapshot reads, DHT block time, lease sweeps, scrub
    /// phases — as nearest-rank percentiles over the store's lifetime.
    /// Percentiles are histogram bucket edges, within 1/128 above the
    /// true sample; recording is always on and costs two clock reads
    /// and one relaxed atomic increment per operation. See
    /// `docs/OBSERVABILITY.md` for how to read the tails.
    ///
    /// # Examples
    ///
    /// ```
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).pipeline_threads(1).build()?;
    /// # let blob = store.create();
    /// let v = blob.append(&[0u8; 8192])?;
    /// blob.snapshot(v)?.read(blobseer::ByteRange::new(0, 8192))?;
    ///
    /// let snap = store.stats_snapshot();
    /// assert_eq!(snap.append.count, 1);
    /// assert_eq!(snap.read.count, 1);
    /// assert!(snap.append.p50_ns > 0);
    /// assert!(snap.append.p999_ns >= snap.append.p50_ns);
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        stats::snapshot(&self.engine)
    }

    /// Prometheus-style text exposition of every registered metric:
    /// operation counters (`blobseer_*_ops_total`) and latency
    /// summaries (`blobseer_*_seconds{quantile="..."}` in seconds),
    /// plus deployment gauges (physical bytes/pages, metadata nodes),
    /// per-provider store/fetch latency splits
    /// (`blobseer_provider_*_latency_seconds{provider="N"}`), and —
    /// when QoS is configured — per-tenant admission counters, wait
    /// summaries and token gauges (`blobseer_qos_*{tenant="N"}`).
    /// Scrape-ready: serve the returned string verbatim. The metric
    /// reference is `docs/OBSERVABILITY.md`.
    ///
    /// # Examples
    ///
    /// ```
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).pipeline_threads(1).build()?;
    /// # let blob = store.create();
    /// blob.append(&[0u8; 4096])?;
    /// let text = store.metrics_text();
    /// assert!(text.contains("blobseer_append_ops_total 1"));
    /// assert!(text.contains("# TYPE blobseer_append_latency_seconds summary"));
    /// assert!(text.contains("blobseer_physical_bytes 4096"));
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn metrics_text(&self) -> String {
        let mut out = self.engine.metrics.render();
        let stats = stats::collect(&self.engine);
        blobseer_metrics::write_gauge(
            &mut out,
            "blobseer_physical_bytes",
            "payload bytes physically stored across all providers",
            stats.physical_bytes as i64,
        );
        blobseer_metrics::write_gauge(
            &mut out,
            "blobseer_physical_pages",
            "pages physically stored across all providers",
            stats.physical_pages as i64,
        );
        blobseer_metrics::write_gauge(
            &mut out,
            "blobseer_metadata_nodes",
            "metadata tree nodes stored in the DHT",
            stats.metadata_nodes as i64,
        );
        let members = self.engine.providers.membership();
        blobseer_metrics::write_gauge(
            &mut out,
            "blobseer_providers_registered",
            "data providers ever registered (retired tombstones included)",
            members.registered as i64,
        );
        blobseer_metrics::write_gauge(
            &mut out,
            "blobseer_providers_active",
            "data providers eligible for new page placement",
            members.active as i64,
        );
        blobseer_metrics::write_gauge(
            &mut out,
            "blobseer_providers_draining",
            "data providers currently draining (read-only)",
            members.draining as i64,
        );
        blobseer_metrics::write_gauge(
            &mut out,
            "blobseer_providers_retired",
            "data providers retired by completed drains",
            members.retired as i64,
        );
        blobseer_metrics::write_gauge(
            &mut out,
            "blobseer_vm_read_views_total",
            "read-view resolutions served by the version manager",
            stats.vm.read_views as i64,
        );
        blobseer_metrics::write_gauge(
            &mut out,
            "blobseer_vm_lockfree_reads_total",
            "hot VM reads served wait-free from a blob's seqlock cell (no blob mutex)",
            stats.vm.lockfree_reads as i64,
        );
        blobseer_metrics::write_counter(
            &mut out,
            "blobseer_checksum_verified_bytes_total",
            "payload bytes providers re-hashed to verify fetches (only the blocks returned)",
            self.engine.providers.total_bytes_verified(),
        );
        self.engine.metrics.render_provider_latency(&mut out);
        if let Some(qos) = &self.engine.qos {
            qos.render_into(&mut out);
        }
        out
    }
}

impl std::fmt::Debug for BlobSeer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlobSeer").field("config", &self.engine.config).finish()
    }
}
