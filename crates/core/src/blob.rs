//! The [`Blob`] handle: the mutation surface of one blob.

use std::sync::Arc;

use blobseer_types::{BlobId, Result, TenantId, Version};
use bytes::Bytes;

use crate::engine::Engine;
use crate::pending::PendingWrite;
use crate::snapshot::Snapshot;
use crate::write::{self, CrashPoint, Target};
use crate::GcReport;

// A tiny deployment shared by the doctests below (hidden in each
// example): 4 KiB pages, 2 data + 2 metadata providers, 1 I/O thread.

/// A handle to one blob within a deployment: owns the [`BlobId`],
/// shares the engine, and hosts every mutating primitive plus snapshot
/// construction.
///
/// Returned by [`crate::BlobSeer::create`] and [`Blob::branch`].
/// Cheaply cloneable and fully thread-safe: clone it into as many
/// writer threads as you like — the engine's versioning is what
/// serializes them, not the handle.
#[derive(Clone)]
pub struct Blob {
    engine: Arc<Engine>,
    id: BlobId,
    /// The tenant this handle's updates are accounted to (QoS).
    /// [`TenantId::DEFAULT`] unless re-tagged via [`Blob::for_tenant`];
    /// inert when QoS is off.
    tenant: TenantId,
}

impl Blob {
    pub(crate) fn new(engine: Arc<Engine>, id: BlobId) -> Blob {
        Blob { engine, id, tenant: TenantId::DEFAULT }
    }

    /// A clone of this handle whose updates are accounted to `tenant`
    /// for QoS admission and scheduling. With QoS off
    /// ([`crate::Builder::qos`] never called) the tag is inert. Prefer
    /// one tenant per blob for pipelined traffic — see `crate::qos` on
    /// why cross-tenant pipelining to one blob wastes pool workers.
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::TenantId;
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).build()?;
    /// let blob = store.create().for_tenant(TenantId(7));
    /// assert_eq!(blob.tenant(), TenantId(7));
    /// blob.append(b"accounted to tenant#7")?;
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn for_tenant(&self, tenant: TenantId) -> Blob {
        Blob { engine: Arc::clone(&self.engine), id: self.id, tenant }
    }

    /// The tenant this handle's updates are accounted to.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The blob's globally-unique id (usable with the flat
    /// [`crate::BlobSeer`] facade).
    ///
    /// # Examples
    ///
    /// ```
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).build()?;
    /// let blob = store.create();
    /// // Ids round-trip through the flat facade.
    /// let same = store.blob(blob.id());
    /// assert_eq!(same.id(), blob.id());
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn id(&self) -> BlobId {
        self.id
    }

    /// `WRITE`: replace `data.len()` bytes at `offset`, producing a new
    /// snapshot; blocks until the update's metadata is durable. Returns
    /// the assigned version (use [`Blob::sync`] to await publication).
    ///
    /// Copies `data` exactly once, at this boundary; use
    /// [`Blob::write_bytes`] to skip that copy too.
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::ByteRange;
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).build()?;
    /// let blob = store.create();
    /// let v1 = blob.append(b"hello, world")?;
    /// let v2 = blob.write(b"HELLO", 0)?;
    /// blob.sync(v2)?;
    /// // Both snapshots exist: updates never mutate in place.
    /// assert_eq!(&blob.snapshot(v2)?.read(ByteRange::new(0, 5))?[..], b"HELLO");
    /// assert_eq!(&blob.snapshot(v1)?.read(ByteRange::new(0, 5))?[..], b"hello");
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn write(&self, data: &[u8], offset: u64) -> Result<Version> {
        self.write_bytes(Bytes::copy_from_slice(data), offset)
    }

    /// Zero-copy `WRITE` from a refcounted buffer (see
    /// [`crate::BlobSeer::write_bytes`]).
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::Bytes;
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).build()?;
    /// let blob = store.create();
    /// blob.append_bytes(Bytes::from(vec![0u8; 8192]))?;
    /// // Fully-covered pages of the overwrite are stored as O(1)
    /// // slices of this buffer — no payload byte is copied.
    /// let v = blob.write_bytes(Bytes::from(vec![7u8; 4096]), 0)?;
    /// blob.sync(v)?;
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn write_bytes(&self, data: Bytes, offset: u64) -> Result<Version> {
        write::update(&self.engine, self.id, data, Target::Write { offset }, self.tenant)
    }

    /// `APPEND` at the end of the previous snapshot; blocks until the
    /// update's metadata is durable. Returns the assigned version.
    ///
    /// Copies `data` exactly once, at this boundary; use
    /// [`Blob::append_bytes`] to skip that copy too.
    ///
    /// # Examples
    ///
    /// ```
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).build()?;
    /// let blob = store.create();
    /// let v1 = blob.append(b"log line 1\n")?;
    /// let v2 = blob.append(b"log line 2\n")?;
    /// assert!(v2 > v1, "appends are versioned in call order");
    /// blob.sync(v2)?;
    /// assert_eq!(blob.size(v2)?, 22);
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn append(&self, data: &[u8]) -> Result<Version> {
        self.append_bytes(Bytes::copy_from_slice(data))
    }

    /// Zero-copy `APPEND` from a refcounted buffer.
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::Bytes;
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).build()?;
    /// let blob = store.create();
    /// let payload = Bytes::from(vec![42u8; 2 * 4096]);
    /// let v = blob.append_bytes(payload.clone())?; // clone is refcounted, O(1)
    /// blob.sync(v)?;
    /// assert_eq!(blob.size(v)?, payload.len() as u64);
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn append_bytes(&self, data: Bytes) -> Result<Version> {
        write::update(&self.engine, self.id, data, Target::Append, self.tenant)
    }

    /// Non-blocking `WRITE`: returns as soon as the version is assigned
    /// and the fully-covered pages are stored; boundary completion,
    /// metadata weaving and publication hand-off continue on the
    /// engine's thread pool. Call order fixes version order, so a
    /// client can keep several updates in flight and still get
    /// sequential semantics.
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::Bytes;
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).build()?;
    /// let blob = store.create();
    /// blob.append(&vec![0u8; 8192])?;
    /// let p = blob.write_pipelined(Bytes::from(vec![1u8; 4096]), 0)?;
    /// // The version is known immediately; completion runs elsewhere.
    /// let v = p.version();
    /// assert_eq!(p.wait()?, v);
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn write_pipelined(&self, data: Bytes, offset: u64) -> Result<PendingWrite> {
        PendingWrite::spawn(&self.engine, self.id, data, Target::Write { offset }, self.tenant)
    }

    /// Non-blocking `APPEND`; see [`Blob::write_pipelined`].
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::Bytes;
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).build()?;
    /// let blob = store.create();
    /// // Two appends in flight from one thread; order is guaranteed.
    /// let p1 = blob.append_pipelined(Bytes::from(vec![1u8; 4096]))?;
    /// let p2 = blob.append_pipelined(Bytes::from(vec![2u8; 4096]))?;
    /// assert!(p1.version() < p2.version());
    /// let newest = p2.wait()?;
    /// blob.sync(newest)?;
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn append_pipelined(&self, data: Bytes) -> Result<PendingWrite> {
        PendingWrite::spawn(&self.engine, self.id, data, Target::Append, self.tenant)
    }

    /// `SYNC`: block until version `v` is published ("read your
    /// writes"). Bounded by the configured metadata wait timeout.
    ///
    /// # Examples
    ///
    /// ```
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).build()?;
    /// let blob = store.create();
    /// let v = blob.append(b"data")?;
    /// blob.sync(v)?; // returns once v is published
    /// assert!(blob.recent_version()? >= v);
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn sync(&self, v: Version) -> Result<()> {
        self.engine.vm.sync(self.id, v, self.engine.wait_timeout())
    }

    /// A version-pinned read view of published version `v`. Resolves
    /// size, root and lineage from the version manager **once**;
    /// subsequent reads through the [`Snapshot`] are VM-free.
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::ByteRange;
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).build()?;
    /// let blob = store.create();
    /// let v = blob.append(b"pin me")?;
    /// blob.sync(v)?;
    /// let snap = blob.snapshot(v)?;
    /// assert_eq!(&snap.read(ByteRange::new(0, 6))?[..], b"pin me");
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn snapshot(&self, v: Version) -> Result<Snapshot> {
        Snapshot::open(&self.engine, self.id, v)
    }

    /// A snapshot of the most recently published version. One fused,
    /// wait-free version-manager read: the version and its view come
    /// from the blob's seqlock-published hot triple — no blob mutex,
    /// and no race window between resolving "latest" and resolving its
    /// view.
    ///
    /// # Examples
    ///
    /// ```
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).build()?;
    /// let blob = store.create();
    /// let v = blob.append(b"newest")?;
    /// blob.sync(v)?;
    /// assert_eq!(blob.latest()?.version(), v);
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn latest(&self) -> Result<Snapshot> {
        Snapshot::open_latest(&self.engine, self.id)
    }

    /// `GET_RECENT`: a recently published version — guaranteed ≥ every
    /// version published before this call, and always readable (holes
    /// left by aborted writers are skipped).
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::Version;
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).build()?;
    /// let blob = store.create();
    /// assert_eq!(blob.recent_version()?, Version(0), "every blob starts at v0");
    /// let v = blob.append(b"x")?;
    /// blob.sync(v)?;
    /// assert_eq!(blob.recent_version()?, v);
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn recent_version(&self) -> Result<Version> {
        self.engine.vm.get_recent(self.id)
    }

    /// `GET_SIZE`: the size of published snapshot `v`.
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::Version;
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).build()?;
    /// let blob = store.create();
    /// assert_eq!(blob.size(Version(0))?, 0);
    /// let v = blob.append(&[0u8; 100])?;
    /// blob.sync(v)?;
    /// assert_eq!(blob.size(v)?, 100);
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn size(&self, v: Version) -> Result<u64> {
        self.engine.vm.get_size(self.id, v)
    }

    /// `BRANCH`: fork this blob at published version `v`. The new blob
    /// shares every snapshot up to and including `v` — no data or
    /// metadata is copied — and evolves independently afterwards.
    ///
    /// # Examples
    ///
    /// ```
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).build()?;
    /// let blob = store.create();
    /// let v = blob.append(b"shared")?;
    /// blob.sync(v)?;
    /// let fork = blob.branch(v)?;
    /// let f = fork.append(b"!")?;
    /// fork.sync(f)?;
    /// assert_eq!(fork.latest()?.len(), 7);
    /// assert_eq!(blob.latest()?.len(), 6, "the original is unaffected");
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn branch(&self, v: Version) -> Result<Blob> {
        let id = self.engine.vm.branch(self.id, v)?;
        Ok(Blob::new(Arc::clone(&self.engine), id))
    }

    /// Retire (garbage-collect) every version below `keep_from`; see
    /// [`crate::BlobSeer::retire_versions`].
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::BlobError;
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).build()?;
    /// let blob = store.create();
    /// let v1 = blob.append(&[1u8; 4096])?;
    /// let v2 = blob.write(&[2u8; 4096], 0)?;
    /// blob.sync(v2)?;
    /// let report = blob.retire_versions(v2)?;
    /// assert!(report.nodes_removed > 0);
    /// assert!(matches!(blob.snapshot(v1), Err(BlobError::VersionRetired { .. })));
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn retire_versions(&self, keep_from: Version) -> Result<GcReport> {
        crate::gc::retire_versions(&self.engine, self.id, keep_from)
    }

    /// Abort an assigned-but-unpublished version: retire it as a no-op
    /// so the total order skips the hole and every later version
    /// publishes. This is the manual entry point to the recovery the
    /// engine performs automatically — failed/panicked updates abort
    /// themselves, and the lease sweeper aborts writers presumed dead.
    /// The aborted version is never readable (reads and `sync` get
    /// [`crate::BlobError::VersionAborted`]); later snapshots read the
    /// hole as snapshot `v − 1`'s bytes, zero-extended — except pages
    /// whose leaf nodes the dead writer already made durable, which
    /// keep its bytes (see `crates/core/src/abort.rs`). Fails typed
    /// ([`crate::BlobError::AbortConflict`]) once the version
    /// completed, published or already aborted.
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::{BlobError, Bytes, CrashPoint};
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).build()?;
    /// let blob = store.create();
    /// // A writer dies mid-update, wedging the version order...
    /// let dead = blob.crash_append(Bytes::from(vec![1u8; 4096]), CrashPoint::AfterPrepare)?;
    /// // ...until the hole is aborted; later writers then publish.
    /// blob.abort(dead)?;
    /// let v = blob.append(b"alive")?;
    /// blob.sync(v)?;
    /// assert!(matches!(blob.snapshot(dead), Err(BlobError::VersionAborted { .. })));
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn abort(&self, v: Version) -> Result<()> {
        crate::abort::abort_version(&self.engine, self.id, v)
    }

    /// Failure injection: run a `WRITE` only up to `point`, then
    /// "crash" — the assigned version is left wedged exactly as if the
    /// client process died there, and is returned so tests can watch
    /// the lease sweeper recover the blob. See [`crate::CrashPoint`].
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::{Bytes, CrashPoint};
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1)
    /// #     .lease_ttl_ticks(10).build()?;
    /// let blob = store.create();
    /// blob.append(&[9u8; 8192])?;
    /// let dead = blob.crash_write(Bytes::from(vec![0u8; 4096]), 0, CrashPoint::BeforeNotify)?;
    /// // Production recovery: the lease lapses, the sweeper aborts.
    /// store.advance_lease_clock(11);
    /// let swept = store.sweep_expired_leases();
    /// assert_eq!(swept.aborted, vec![(blob.id(), dead)]);
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn crash_write(&self, data: Bytes, offset: u64, point: CrashPoint) -> Result<Version> {
        write::update_crashing(&self.engine, self.id, data, Target::Write { offset }, point)
    }

    /// Failure injection: the `APPEND` form of [`Blob::crash_write`].
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::{BlobError, Bytes, CrashPoint};
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1)
    /// #     .lease_ttl_ticks(10).build()?;
    /// let blob = store.create();
    /// let dead = blob.crash_append(Bytes::from(vec![1u8; 4096]), CrashPoint::AfterPrepare)?;
    /// // Readers racing the wedged version see it typed once aborted.
    /// store.advance_lease_clock(11);
    /// store.sweep_expired_leases();
    /// assert!(matches!(blob.sync(dead), Err(BlobError::VersionAborted { .. })));
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn crash_append(&self, data: Bytes, point: CrashPoint) -> Result<Version> {
        write::update_crashing(&self.engine, self.id, data, Target::Append, point)
    }
}

impl std::fmt::Debug for Blob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Blob").field("id", &self.id).finish()
    }
}

impl PartialEq for Blob {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id && Arc::ptr_eq(&self.engine, &other.engine)
    }
}

impl Eq for Blob {}

/// Anything that names a blob: a raw [`BlobId`], a [`Blob`] handle, or
/// a [`Snapshot`] — accepted by every flat [`crate::BlobSeer`] method,
/// so id-keyed code and handle-first code mix freely.
pub trait BlobRef {
    /// The named blob's id.
    fn blob_id(&self) -> BlobId;
}

impl BlobRef for BlobId {
    fn blob_id(&self) -> BlobId {
        *self
    }
}

impl BlobRef for &BlobId {
    fn blob_id(&self) -> BlobId {
        **self
    }
}

impl BlobRef for &Blob {
    fn blob_id(&self) -> BlobId {
        self.id
    }
}

impl BlobRef for &Snapshot {
    fn blob_id(&self) -> BlobId {
        Snapshot::blob_id(self)
    }
}
