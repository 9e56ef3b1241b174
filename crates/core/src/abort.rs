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
//!    `BlobError::VersionAborted`) and hands back an
//!    [`blobseer_version::AbortTicket`];
//! 2. [`repair`] completes the dead version's tree under its own keys:
//!    the exact node skeleton the writer was expected to create, so
//!    later versions weave correctly and later appends keep their
//!    assigned offsets. Repair **fills gaps, never overwrites**
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
//!   engine's pipeline pool after each completion stage
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

use blobseer_meta::{build_meta, TreeReader, UpdateContext};
use blobseer_types::{BlobError, BlobId, ByteRange, PageDescriptor, Result, Version};
use blobseer_version::AbortTicket;
use bytes::Bytes;

use crate::engine::Engine;
use crate::read::read_at_root;
use crate::write::store_one_replicated;

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
    match WAIT_CONTEXT.get() {
        Some((blob, vw)) => {
            if engine.vm.has_expired_below(blob, vw).unwrap_or(false) {
                let _ = sweep_expired(engine, Some((blob, vw)));
            }
        }
        None => {
            if engine.vm.has_expired_leases() {
                let _ = sweep_expired(engine, None);
            }
        }
    }
}

/// Abort an assigned-but-unpublished version: mark it at the version
/// manager, store the repair tree, commit. Typed errors
/// ([`BlobError::AbortConflict`]) when the version already completed,
/// published or aborted; on a repair failure the version stays marked
/// (readers already see `VersionAborted`) and the sweeper retries.
pub(crate) fn abort_version(engine: &Arc<Engine>, blob: BlobId, v: Version) -> Result<()> {
    let _guard = enter_repair();
    // The repair stores pages before their leaves land; pin it with
    // the scrubber's epoch cut (like any writer) so a concurrent
    // `scrub_orphans` never reclaims repair pages mid-flight.
    let _pin = engine.pin_update();
    let ticket = engine.vm.begin_abort(blob, v)?;
    repair(engine, blob, ticket)?;
    match engine.vm.commit_abort(blob, v) {
        // A concurrent aborter (the sweeper retries `Aborting` versions)
        // committed between our repair and our commit: the abort we
        // were asked for happened — repairs are idempotent (`put_new`),
        // so whose nodes landed is immaterial.
        Err(BlobError::AbortConflict(_)) if engine.vm.is_aborted(blob, v).unwrap_or(false) => {
            Ok(())
        }
        other => other,
    }
}

/// Build and store the dead version's no-op tree; see the module docs.
/// Reads of snapshot `vw − 1` may wait on strictly lower in-flight
/// versions (the same rule as boundary merges), so repairs processed in
/// ascending version order cannot deadlock.
fn repair(engine: &Arc<Engine>, blob: BlobId, t: AbortTicket) -> Result<()> {
    let psize = engine.psize();
    let lineage = engine.vm.lineage(blob)?;

    // Predecessor bytes overlapping the assigned page range, fetched in
    // one read; everything past `prev_size` reads as zeros.
    let start = t.range.first * psize;
    let pages_end = (t.range.first + t.range.count) * psize;
    let valid_end = pages_end.min(t.new_size);
    let prev_overlap_end = valid_end.min(t.prev_size);
    let old = if prev_overlap_end > start {
        let root = t.prev_root.ok_or_else(|| {
            BlobError::Internal("repair needs predecessor bytes but vw-1 is empty".into())
        })?;
        read_at_root(engine, &lineage, root, ByteRange::new(start, prev_overlap_end - start))?
    } else {
        Vec::new()
    };

    let providers = engine.providers.allocate(t.range.count as usize)?;
    let mut leaves = Vec::with_capacity(t.range.count as usize);
    for (slot, page) in t.range.iter().enumerate() {
        let page_start = page * psize;
        let page_valid_end = (page_start + psize).min(t.new_size);
        let mut payload = vec![0u8; (page_valid_end - page_start) as usize];
        if page_start < prev_overlap_end {
            let upto = prev_overlap_end.min(page_valid_end);
            let src = (page_start - start) as usize;
            let len = (upto - page_start) as usize;
            payload[..len].copy_from_slice(&old[src..src + len]);
        }
        let pid = engine.pidgen.next_id();
        store_one_replicated(engine, pid, providers[slot], Bytes::from(payload))?;
        leaves.push(PageDescriptor {
            pid,
            page_index: page,
            provider: providers[slot],
            valid_len: (page_valid_end - page_start) as u32,
        });
    }

    // Same skeleton, same border resolution the dead writer was
    // handed. Insert-if-absent: any node the dead writer durably
    // stored stays authoritative — later versions may already have
    // woven content from it (boundary merges, border links), and nodes
    // must stay immutable once visible. Repair only fills the gaps; a
    // zombie's late stores lose to already-placed repair nodes the
    // same way.
    let reader = TreeReader::new(&engine.meta, &lineage);
    let ctx = UpdateContext {
        vw: t.vw,
        range: t.range,
        new_root: t.new_root,
        overrides: t.overrides,
        ref_root: t.ref_root,
    };
    for (key, node) in build_meta(&reader, &ctx, &leaves)? {
        engine.meta.put_new(key, node);
    }
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
    let mut report = SweepReport::default();
    let run = |blob: BlobId, v: Version, report: &mut SweepReport| {
        match abort_version(engine, blob, v) {
            Ok(()) => report.aborted.push((blob, v)),
            // Conflicts mean someone else resolved the version between
            // the scan and the abort — not pending work.
            Err(BlobError::AbortConflict(_)) => {}
            Err(_) => report.pending.push((blob, v)),
        }
    };
    if let Some((blob, limit)) = below {
        for v in engine.vm.expired_leases_below(blob, limit).unwrap_or_default() {
            run(blob, v, &mut report);
        }
        return report;
    }
    let _gate = engine.sweep_gate.lock();
    // Timed from gate acquisition (scan + repairs, not the wait for a
    // concurrent sweeper): the duration operators can act on when the
    // `lease_sweep` tail grows — see docs/OBSERVABILITY.md.
    let sweep_timer = blobseer_metrics::Timer::start();
    for (blob, v) in engine.vm.expired_leases() {
        run(blob, v, &mut report);
    }
    sweep_timer.stop(&engine.metrics.lease_sweep_latency);
    report
}

/// Queue a background sweep on the pipeline pool if any lease looks
/// expired and no sweep is already queued. Called from completion
/// stages, so a deployment with pipelined traffic detects dead writers
/// without any dedicated timer thread.
pub(crate) fn maybe_sweep(engine: &Arc<Engine>) {
    use std::sync::atomic::Ordering;
    if !engine.vm.has_expired_leases() {
        return;
    }
    if engine.sweep_queued.swap(true, Ordering::SeqCst) {
        return;
    }
    let eng = Arc::clone(engine);
    engine.pipeline.execute(move || {
        eng.sweep_queued.store(false, Ordering::SeqCst);
        let _ = sweep_expired(&eng, None);
    });
}
