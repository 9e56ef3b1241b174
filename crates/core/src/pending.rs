//! Pipelined (non-blocking) updates: the [`PendingWrite`] handle.
//!
//! `Blob::write_pipelined` / `Blob::append_pipelined` split the update
//! pipeline at the version-assignment boundary. The caller's thread runs
//! the order-sensitive half — interior page pre-store and version
//! registration — and gets a `PendingWrite` back immediately; boundary
//! completion, metadata weaving and version-manager notification run on
//! the engine's thread pool. A single client can therefore keep N
//! updates in flight (the paper's Figure 4/5 overlap scenario) without
//! spawning threads, while the version manager's total order still
//! reflects call order.
//!
//! Dropping a `PendingWrite` without waiting does not abandon the
//! update: the completion stage was already queued and runs regardless,
//! so a successful completion publishes exactly as if the caller had
//! waited. Completion *errors*, however, surface only through
//! [`PendingWrite::wait`]/[`PendingWrite::try_wait`] — a dropped handle
//! discards them. A stage that fails or panics **aborts its version**
//! (see [`crate::abort`]): the version is retired as a no-op, the
//! total order skips it, and every later version still publishes — a
//! failed update never wedges the blob. The only way to leave a
//! genuine hole is a real client crash (process death between version
//! assignment and completion), which the version manager's writer
//! leases catch: the sweeper aborts the dead writer once its lease
//! lapses.

use std::sync::Arc;

use blobseer_metrics::Timer;
use blobseer_types::{BlobError, BlobId, Result, Version};
use parking_lot::{Condvar, Mutex};

use crate::engine::Engine;
use crate::write::{self, Prepared, Target};

/// Completion cell shared between a [`PendingWrite`] and its queued
/// completion stage.
struct Cell {
    done: Mutex<Option<Result<Version>>>,
    cv: Condvar,
}

/// An update whose version is assigned but whose completion (boundary
/// merge, metadata weave, publication hand-off) is still running on the
/// engine's thread pool.
///
/// [`PendingWrite::version`] is available immediately — it is the
/// version the snapshot *will* publish as. [`PendingWrite::wait`] joins
/// the completion stage; [`PendingWrite::try_wait`] polls it. Note that
/// completion is *not* publication: a completed update still publishes
/// only once all lower versions have (use `sync` for read-your-writes).
#[must_use = "the update completes in the background either way, but errors surface only via wait()/try_wait()"]
pub struct PendingWrite {
    engine: Arc<Engine>,
    blob: BlobId,
    version: Version,
    cell: Arc<Cell>,
}

impl PendingWrite {
    /// Run the caller-side half of `target` and queue the rest.
    pub(crate) fn spawn(
        engine: &Arc<Engine>,
        blob: BlobId,
        data: bytes::Bytes,
        target: Target,
        tenant: blobseer_types::TenantId,
    ) -> Result<PendingWrite> {
        // QoS admission first (when configured), one-shot: a pipelined
        // API must not block its caller, so an over-quota submission
        // fails typed immediately — before the order lock, before any
        // page store, before a version exists. Zero side effects.
        crate::qos::admit_nonblocking(engine, tenant, data.len() as u64)?;
        let cost = data.len() as u64;
        // Serialize (assign, enqueue) per blob so the pool's queue
        // holds this blob's stages in version order — a stage may block
        // on a lower version's metadata, which must never sit *behind*
        // it in the queue (see `Engine::order_locks`). Concurrent
        // submitters to the same blob serialize their caller-side
        // halves here; different blobs are unaffected, and completion
        // stages still weave metadata concurrently (§4.2). With QoS
        // on, the DRR queue keeps this FIFO guarantee per tenant lane —
        // see `crate::qos` for the cross-tenant same-blob caveat.
        let order = engine.order_lock(blob);
        let _ordered = order.lock();
        // Latency of a pipelined update spans submission to completion
        // (not publication): the same span `wait()` would cover.
        let op_timer = Timer::start();
        let is_append = matches!(target, Target::Append);
        let prepared: Prepared = write::prepare(engine, blob, data, target)?;
        let version = prepared.assigned.vw;
        let cell = Arc::new(Cell { done: Mutex::new(None), cv: Condvar::new() });
        let (eng, c) = (Arc::clone(engine), Arc::clone(&cell));
        crate::qos::dispatch(
            engine,
            tenant,
            cost,
            Box::new(move || {
                // A panicking stage must still resolve the cell, or a
                // wait() would hang until its timeout.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    write::finish(&eng, blob, prepared)
                }))
                .unwrap_or_else(|_| {
                    Err(BlobError::Internal("pipelined completion stage panicked".into()))
                });
                // A failed (or panicked) stage retires its version as a
                // no-op instead of wedging the blob.
                let result = write::settle(&eng, blob, version, result);
                if result.is_ok() {
                    write::record_update(&eng, is_append, op_timer);
                }
                *c.done.lock() = Some(result);
                c.cv.notify_all();
                // Completion stages double as the lease sweeper's heartbeat.
                crate::abort::maybe_sweep(&eng);
            }),
        );
        Ok(PendingWrite { engine: Arc::clone(engine), blob, version, cell })
    }

    /// The version assigned to this update. Known immediately; the
    /// snapshot publishes under this number once completion (and every
    /// lower version) finishes.
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::Bytes;
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).build()?;
    /// # let blob = store.create();
    /// let p = blob.append_pipelined(Bytes::from(vec![1u8; 4096]))?;
    /// // Known before completion: the order is already fixed.
    /// assert_eq!(p.version(), blobseer::Version(1));
    /// p.wait()?;
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn version(&self) -> Version {
        self.version
    }

    /// The blob being updated.
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::Bytes;
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).build()?;
    /// # let blob = store.create();
    /// let p = blob.append_pipelined(Bytes::from(vec![1u8; 4096]))?;
    /// assert_eq!(p.blob_id(), blob.id());
    /// p.wait()?;
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn blob_id(&self) -> BlobId {
        self.blob
    }

    /// `true` once the completion stage has finished (successfully or
    /// not). Non-blocking.
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::Bytes;
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).build()?;
    /// # let blob = store.create();
    /// let p = blob.append_pipelined(Bytes::from(vec![1u8; 4096]))?;
    /// while !p.is_done() {
    ///     std::thread::yield_now(); // overlap useful work here
    /// }
    /// p.wait()?;
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn is_done(&self) -> bool {
        self.cell.done.lock().is_some()
    }

    /// Poll for completion: `None` while the stage is still running,
    /// `Some(result)` once it finished. Non-blocking; can be called
    /// repeatedly (the result is `Clone`).
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::Bytes;
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).build()?;
    /// # let blob = store.create();
    /// let p = blob.append_pipelined(Bytes::from(vec![1u8; 4096]))?;
    /// let v = loop {
    ///     if let Some(result) = p.try_wait() {
    ///         break result?;
    ///     }
    /// };
    /// assert_eq!(v, p.version());
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn try_wait(&self) -> Option<Result<Version>> {
        self.cell.done.lock().clone()
    }

    /// Cancel this in-flight update: abort its version so the total
    /// order skips it (see [`crate::Blob::abort`]). The queued
    /// completion stage is fenced — its next lease renewal fails with
    /// [`BlobError::VersionAborted`] and it stops storing state. Fails
    /// with [`BlobError::AbortConflict`] when the stage already
    /// completed (the update will publish; too late to cancel).
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::Bytes;
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).build()?;
    /// # let blob = store.create();
    /// # use blobseer::BlobError;
    /// let p = blob.append_pipelined(Bytes::from(vec![1u8; 4096]))?;
    /// let v = p.version();
    /// match p.abort() {
    ///     // Cancelled: the version is a skipped hole now.
    ///     Ok(()) => assert!(matches!(
    ///         blob.snapshot(v),
    ///         Err(BlobError::VersionAborted { .. })
    ///     )),
    ///     // The stage finished first; the update will publish.
    ///     Err(BlobError::AbortConflict(_)) => blob.sync(v)?,
    ///     Err(other) => return Err(other),
    /// }
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn abort(self) -> Result<()> {
        crate::abort::abort_version(&self.engine, self.blob, self.version)
    }

    /// Block until the completion stage finishes and return the
    /// published-to-be version. Bounded by the deployment's metadata
    /// wait timeout (a crashed stage surfaces as [`BlobError::Timeout`]
    /// rather than a hang).
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::Bytes;
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).build()?;
    /// # let blob = store.create();
    /// let p = blob.append_pipelined(Bytes::from(vec![1u8; 4096]))?;
    /// let v = p.wait()?; // completion, not yet publication
    /// blob.sync(v)?;    // read-your-writes
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn wait(self) -> Result<Version> {
        let deadline = std::time::Instant::now() + self.engine.wait_timeout();
        let mut done = self.cell.done.lock();
        loop {
            if let Some(result) = done.clone() {
                return result;
            }
            if self.cell.cv.wait_until(&mut done, deadline).timed_out() {
                return match done.clone() {
                    Some(result) => result,
                    None => Err(BlobError::Timeout("pipelined update completion")),
                };
            }
        }
    }
}

impl std::fmt::Debug for PendingWrite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingWrite")
            .field("blob", &self.blob)
            .field("version", &self.version)
            .field("done", &self.is_done())
            .finish()
    }
}
