//! The orphan scrubber: reclaim page copies no metadata references.
//!
//! Writer fault tolerance deliberately leaks storage: pages stored by a
//! writer that died before its leaf nodes landed — and repair pages
//! that lose the `put_new` leaf race — sit in providers referenced by
//! no tree. [`scrub_orphans`] reclaims them without quiescence: it marks
//! the live set ([`LiveSet::mark`]), then sweeps every provider in
//! parallel ([`blobseer_provider::DataProvider::scrub`]), deleting each
//! copy below the epoch cut that the mark did not reach. Replicas carry
//! their primary's page id, so each provider judges its own copies. An
//! offline provider is skipped and reported; it keeps its copies until
//! a scrub after recovery, like GC's best-effort deletes. Why this
//! never deletes a live page is `docs/OPERATIONS.md`, "Marking the live
//! set".

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use blobseer_metrics::Timer;
use blobseer_provider::ScrubPass;
use blobseer_rt::parallel_map;
use blobseer_types::{PageId, Result};

use crate::engine::Engine;
use crate::maintenance::LiveSet;

/// What a [`crate::BlobSeer::scrub_orphans`] pass found and reclaimed.
///
/// Page *copies* (replicas included) are counted on the sweep side
/// (`pages_scanned` / `pages_exempt` / `pages_reclaimed`); distinct
/// live pages are counted on the mark side (`pages_marked`). On a
/// quiescent deployment `pages_scanned == live copies + reclaimed`,
/// and a second scrub reclaims nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Distinct pages the mark phase proved live from metadata.
    pub pages_marked: usize,
    /// Page copies inspected across all swept providers.
    pub pages_scanned: u64,
    /// Copies spared by the epoch cut (stored by in-flight or
    /// post-mark operations; judged by a later scrub).
    pub pages_exempt: u64,
    /// Orphaned copies deleted.
    pub pages_reclaimed: u64,
    /// Payload bytes those deletions freed.
    pub bytes_reclaimed: u64,
    /// Condemned copies whose delete errored at the store (kept,
    /// retried next pass); `bytes_reclaimed` stays exact regardless.
    pub pages_failed: u64,
    /// Providers swept.
    pub providers_scrubbed: usize,
    /// Offline (or mid-sweep unreadable) providers whose pass did not
    /// complete; re-scrub after recovery.
    pub providers_skipped: usize,
    /// Per-blob mark restarts absorbed: a concurrent `retire_versions`
    /// moved a blob's retire generation mid-mark, so that blob's mark
    /// was re-cut and re-walked in place instead of failing the whole
    /// pass with [`blobseer_types::BlobError::ScrubConflict`].
    pub mark_restarts: u64,
}

pub(crate) fn scrub_orphans(engine: &Arc<Engine>) -> Result<ScrubReport> {
    // Mark and sweep are timed apart (metadata- vs provider-bound); see
    // docs/OBSERVABILITY.md.
    let live = Arc::new(LiveSet::mark(engine, &engine.metrics.scrub_mark_latency)?);
    let sweep_timer = Timer::start();

    let providers = engine.providers.all_providers();
    let n = providers.len();
    let exempt = Arc::new(AtomicU64::new(0));
    let (jobs_live, jobs_exempt) = (Arc::clone(&live), Arc::clone(&exempt));
    let passes: Vec<ScrubPass> = parallel_map(&engine.pool, n, move |i| {
        let condemned = |pid: PageId| {
            if jobs_live.pages.contains_key(&pid) {
                return false;
            }
            if pid >= jobs_live.epoch {
                jobs_exempt.fetch_add(1, Ordering::Relaxed);
                return false; // unjudgeable yet: in-flight or post-mark
            }
            true
        };
        // An offline (or mid-sweep failing) provider keeps its copies.
        providers[i].scrub(&condemned).ok()
    })
    .into_iter()
    .flatten()
    .collect();

    let mut report = ScrubReport {
        pages_marked: live.pages.len(),
        pages_exempt: exempt.load(Ordering::Relaxed),
        providers_scrubbed: passes.len(),
        providers_skipped: n - passes.len(),
        mark_restarts: live.restarts,
        ..ScrubReport::default()
    };
    for pass in passes {
        report.pages_scanned += pass.pages_scanned;
        report.pages_reclaimed += pass.pages_reclaimed;
        report.bytes_reclaimed += pass.bytes_reclaimed;
        report.pages_failed += pass.pages_failed;
    }
    sweep_timer.stop(&engine.metrics.scrub_sweep_latency);
    Ok(report)
}
