//! Aborting wedged versions: the repair path behind writer fault
//! tolerance.
//!
//! A writer that dies between version assignment and version-manager
//! notification leaves a **hole** in the total order: every later
//! version is complete but cannot publish, and later writers' border
//! sets already point at tree nodes the dead writer will never store.
//! The paper defers client failures to future work; this module closes
//! the gap in three steps:
//!
//! 1. [`blobseer_version::VersionManager::begin_abort`] marks the
//!    version aborted (racing readers and the zombie writer's own
//!    `complete`/`renew_lease` now fail with the typed
//!    `BlobError::VersionAborted`) and hands back the dead writer's
//!    [`blobseer_version::AssignedUpdate`], widened to whole pages;
//! 2. [`repair`] re-runs that update with snapshot `vw − 1`'s bytes as
//!    its data, through the write path's own page and tree steps
//!    (`crate::write`): the exact node skeleton the writer was
//!    expected to create, so later versions weave correctly and later
//!    appends keep their assigned offsets. An abort *is* an update.
//!    Repair **fills gaps, never overwrites**
//!    (`put_new`): nodes the dead writer made durable before dying
//!    stay authoritative — later versions may already have read them —
//!    while every missing leaf is replaced by snapshot `vw − 1`'s
//!    bytes zero-extended to the assigned size. The hole's content is
//!    therefore deterministic given what the writer persisted: its own
//!    bytes where its leaves landed, predecessor bytes + zeros
//!    everywhere else (a writer that died before storing any metadata
//!    contributes nothing at all);
//! 3. `commit_abort` lets publication drain over the hole.
//!
//! Repair leaves reference **freshly stored pages** (copies of the
//! predecessor's bytes), never the predecessor's page ids: garbage
//! collection relies on the 1:1 leaf↔page property, which aliased pids
//! would break.
//!
//! ### Who aborts
//!
//! * a failing update aborts **itself** (blocking writers in
//!   `write::update`, pipeline stages in `pending`) — errors and
//!   panics retire the version instead of wedging the blob;
//! * [`crate::Blob::abort`] / [`crate::PendingWrite::abort`] abort
//!   explicitly (cancellation);
//! * [`sweep_expired`] — the lease sweeper — aborts writers whose
//!   lease lapsed, presumed dead. It runs opportunistically on the
//!   engine's thread pool after each completion stage
//!   ([`maybe_sweep`]), inline as self-help when a stage is about to
//!   block behind an expired lower version, and on demand via
//!   [`crate::BlobSeer::sweep_expired_leases`].
//!
//! ### Limits (documented, not hidden)
//!
//! A writer presumed dead that is actually alive is fenced three ways:
//! its `renew_lease`/`complete` fail typed, and both its node stores
//! and the repair's use insert-if-absent — whichever side stores a
//! position first wins and the tree never mixes *after* a reader saw
//! it. What insert-if-absent cannot fix: pages (data, not metadata)
//! the dead writer stored without their leaves ever landing are
//! leaked, and repair pages that lost the leaf race leak the same
//! way — reclaiming both is the orphan scrubber's job
//! ([`crate::BlobSeer::scrub_orphans`], `crate::scrub`). Size
//! `lease_ttl_ticks` generously — aborting a live writer is safe but
//! costs its update.

use std::cell::Cell;
use std::sync::Arc;

use blobseer_meta::{build_meta, TreeReader};
use blobseer_types::{BlobError, BlobId, ByteRange, Result, Version};
use blobseer_version::AssignedUpdate;
use bytes::Bytes;

use crate::engine::Engine;
use crate::write::{read_old, store_boundary_pages, store_interior_pages};

/// What a lease sweep did: versions it aborted, and versions it could
/// not abort *yet* (their repair needs a still-wedged lower version;
/// retried on the next sweep).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Versions aborted by this sweep (ascending per blob).
    pub aborted: Vec<(BlobId, Version)>,
    /// Expired versions whose abort did not complete this sweep.
    pub pending: Vec<(BlobId, Version)>,
}

impl SweepReport {
    /// `true` when the sweep found nothing to do.
    pub fn is_empty(&self) -> bool {
        self.aborted.is_empty() && self.pending.is_empty()
    }
}

thread_local! {
    /// The update-completion stage running on this thread, if any:
    /// `(blob, vw)` set by [`wait_scope`] for the duration of
    /// [`crate::write::finish_until`]. The DHT self-help hook reads it
    /// to scope its sweep strictly below the stage's own version.
    static WAIT_CONTEXT: Cell<Option<(BlobId, Version)>> = const { Cell::new(None) };
    /// `true` while this thread is inside repair machinery (a sweep or
    /// a single abort). The self-help hook no-ops under it: a repair's
    /// own metadata reads may block and fire the hook, and sweeping
    /// from there would either recurse or self-deadlock on the sweep
    /// gate this thread already holds.
    static IN_REPAIR: Cell<bool> = const { Cell::new(false) };
}

/// RAII marker: this thread is a completion stage for `blob` at `vw`.
/// While held, the DHT self-help hook ([`self_help_on_wait`]) sweeps
/// only versions strictly below `vw` — never at or above, whose repair
/// would wait on the very metadata this stage has yet to write.
pub(crate) struct WaitScope {
    prev: Option<(BlobId, Version)>,
}

pub(crate) fn wait_scope(blob: BlobId, vw: Version) -> WaitScope {
    WaitScope { prev: WAIT_CONTEXT.replace(Some((blob, vw))) }
}

impl Drop for WaitScope {
    fn drop(&mut self) {
        WAIT_CONTEXT.set(self.prev);
    }
}

/// RAII marker for [`IN_REPAIR`]; nesting-safe (restores the previous
/// value, so a sweep calling [`abort_version`] stays marked).
struct RepairGuard(bool);

fn enter_repair() -> RepairGuard {
    RepairGuard(IN_REPAIR.replace(true))
}

impl Drop for RepairGuard {
    fn drop(&mut self) {
        IN_REPAIR.set(self.0);
    }
}

/// The metadata DHT's **self-help hook**, run between wait slices while
/// a thread is blocked on an in-flight tree node (see
/// `blobseer_meta::MetaStore::set_self_help`). The blocker may be a
/// writer whose lease has lapsed — in which case nobody else is coming
/// to publish that node — so instead of sleeping out the full timeout,
/// the blocked thread periodically checks for expired leases and runs
/// the sweep itself: wait a bit, self-help, retry.
///
/// Inside a completion stage the sweep is scoped strictly below the
/// stage's own version ([`WaitScope`]); elsewhere (plain readers,
/// boundary merges of blocking updates) it is the ordinary global
/// sweep. Re-entrant firing from a repair's own blocked reads is
/// suppressed ([`IN_REPAIR`]).
pub(crate) fn self_help_on_wait(engine: &Arc<Engine>) {
    if IN_REPAIR.get() {
        return;
    }
    let scope = WAIT_CONTEXT.get();
    if !engine.vm.expired_leases(scope).is_empty() {
        let _ = sweep_expired(engine, scope);
    }
}

/// Abort an assigned-but-unpublished version: mark it at the version
/// manager, store the repair tree, commit. Typed errors
/// ([`BlobError::AbortConflict`]) when the version already completed,
/// published or aborted; on a repair failure the version stays marked
/// (readers already see `VersionAborted`) and the sweeper retries —
/// but not while this repair runs.
pub(crate) fn abort_version(engine: &Arc<Engine>, blob: BlobId, v: Version) -> Result<()> {
    let _guard = enter_repair();
    // The repair stores pages before their leaves land; pin it with
    // the scrubber's epoch cut (like any writer) so a concurrent
    // `scrub_orphans` never reclaims repair pages mid-flight.
    let _pin = engine.pin_update();
    let update = engine.vm.begin_abort(blob, v)?;
    let _repairing = Repairing(engine, blob, v);
    repair(engine, blob, update)?;
    match engine.vm.commit_abort(blob, v) {
        // A concurrent aborter (the sweeper retries stuck `Aborting` versions)
        // committed between our repair and our commit: the abort we
        // were asked for happened — repairs are idempotent (`put_new`),
        // so whose nodes landed is immaterial.
        Err(BlobError::AbortConflict(_)) if engine.vm.is_aborted(blob, v).unwrap_or(false) => {
            Ok(())
        }
        other => other,
    }
}

/// One repair begun by `begin_abort`, ended on drop: after its commit
/// that is a no-op, and after a failure or panic it hands the version
/// back to the sweeper. While it runs no sweep repeats it.
struct Repairing<'a>(&'a Engine, BlobId, Version);

impl Drop for Repairing<'_> {
    fn drop(&mut self) {
        self.0.vm.end_repair(self.1, self.2);
    }
}

/// Store the dead version's no-op update: snapshot `vw − 1`'s bytes
/// over the assigned pages, zero-extended to the assigned size, stored
/// by the write path's page steps (interior pages fork-joined as
/// zero-copy slices, the partial tail page merged) and woven by its
/// tree step; see the module docs. Reads of snapshot `vw − 1` may wait
/// on strictly lower in-flight versions (the same rule as boundary
/// merges), so repairs processed in ascending version order cannot
/// deadlock.
fn repair(engine: &Arc<Engine>, blob: BlobId, update: AssignedUpdate) -> Result<()> {
    let lineage = engine.vm.lineage(blob)?;
    let old_end = update.prev_size.min(update.offset + update.size);
    let mut data = if old_end > update.offset {
        let old = ByteRange::new(update.offset, old_end - update.offset);
        read_old(engine, &lineage, &update, old)?
    } else {
        Vec::new()
    };
    data.resize(update.size as usize, 0);
    let data = Bytes::from(data);
    let mut leaves = store_interior_pages(engine, &data, update.offset)?;
    leaves.extend(store_boundary_pages(engine, &lineage, &update, &data)?);

    // Same skeleton, same border resolution the dead writer was
    // handed. Insert-if-absent: any node the dead writer durably
    // stored stays authoritative — later versions may already have
    // woven content from it (boundary merges, border links), and nodes
    // must stay immutable once visible. Repair only fills the gaps; a
    // zombie's late stores lose to already-placed repair nodes the
    // same way.
    let reader = TreeReader::new(&engine.meta, &lineage);
    engine.meta.put_all(&build_meta(&reader, &update.context(), &leaves)?);
    Ok(())
}

/// Abort every expired lease (and retry stuck aborts), lowest version
/// first per blob. `below`, when set, restricts the sweep to the given
/// blob's versions strictly below the given one — the **self-help**
/// form used by a pipeline stage, which must never abort a version at
/// or above its own (that repair would wait on the stage's
/// still-unwritten metadata).
///
/// Locking discipline, chosen deliberately:
///
/// * **Global sweeps** (`below == None`) serialize on the sweep gate
///   and **wait** for it. Skipping instead would drop recovery
///   triggers — a lease that expires while a sweep is mid-flight (its
///   expired list already collected) would lose what may be its only
///   abort attempt. The wait is bounded (a sweep's repairs block at
///   most one metadata timeout each) and a waiting caller re-scans
///   fresh.
/// * **Self-help sweeps** run gate-free. Taking the gate from inside a
///   stage can deadlock-until-timeout: a gate-holding sweep may be
///   repairing a version whose predecessor metadata is owed by the
///   very stage now parked on the gate. Gate-free is safe because
///   aborts are individually race-proof — `begin_abort` retries
///   `Aborting` states, repairs are idempotent (`put_new`), and a
///   commit lost to a concurrent aborter is detected and absorbed.
pub(crate) fn sweep_expired(engine: &Arc<Engine>, below: Option<(BlobId, Version)>) -> SweepReport {
    let _guard = enter_repair();
    // Global sweeps only: the gate, and a `lease_sweep` sample timed
    // from gate acquisition (scan + repairs, not the wait for a
    // concurrent sweeper) — the duration operators can act on when its
    // tail grows; see docs/OBSERVABILITY.md.
    let _gate = below.is_none().then(|| engine.sweep_gate.lock());
    let sweep_timer = blobseer_metrics::Timer::start();
    let mut report = SweepReport::default();
    for (blob, v) in engine.vm.expired_leases(below) {
        match abort_version(engine, blob, v) {
            Ok(()) => report.aborted.push((blob, v)),
            // Conflicts mean someone else resolved the version between
            // the scan and the abort — not pending work.
            Err(BlobError::AbortConflict(_)) => {}
            Err(_) => report.pending.push((blob, v)),
        }
    }
    if below.is_none() {
        sweep_timer.stop(&engine.metrics.lease_sweep_latency);
    }
    report
}

/// Queue a background sweep on the engine's pool if any lease looks
/// expired and no sweep is already queued. Called from completion
/// stages, so a deployment with pipelined traffic detects dead writers
/// without any dedicated timer thread.
pub(crate) fn maybe_sweep(engine: &Arc<Engine>) {
    use std::sync::atomic::Ordering;
    if engine.vm.expired_leases(None).is_empty() {
        return;
    }
    if engine.sweep_queued.swap(true, Ordering::SeqCst) {
        return;
    }
    let eng = Arc::clone(engine);
    engine.pool.execute(move || {
        eng.sweep_queued.store(false, Ordering::SeqCst);
        let _ = sweep_expired(&eng, None);
    });
}
