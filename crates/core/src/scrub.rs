//! The orphan scrubber: provider-side mark-and-sweep by page liveness.
//!
//! PR 4's writer fault tolerance deliberately leaks storage: pages
//! stored by a writer that died before its leaf nodes landed — and
//! repair pages that lose the `put_new` leaf race — sit in providers
//! forever, referenced by no tree. [`scrub_orphans`] reclaims them
//! with a **global** mark-and-sweep that must stay correct under full
//! concurrency (ingest, pipelined updates, aborts, GC, reads):
//!
//! 1. **Epoch cut** ([`Engine::scrub_pid_epoch`]): page ids are handed
//!    out monotonically, and every page-storing operation (update
//!    pipeline, abort repair) registers its birth watermark *before*
//!    allocating its first id ([`Engine::pin_update`]). The cut is the
//!    minimum of all live floors and the current watermark, so every
//!    page an in-flight or future operation will ever store lies **at
//!    or above** the cut — exempt. Pages *below* the cut belong to
//!    operations that already finished (their leaves are durable →
//!    marked) or died (their unreferenced pages are the garbage).
//!    Taking the epoch *before* the metadata cut makes the race window
//!    one-sided: an operation starting in between is exempt by id.
//! 2. **Mark** ([`VersionManager::scrub_cut`] +
//!    [`blobseer_meta::collect_tree_pages`]): walk every retained root
//!    of every blob and branch — published versions and
//!    committed-abort repair trees alike, all complete by construction
//!    — collecting live page ids; shared subtrees are walked once
//!    across all roots and branches. In-flight versions (wedged,
//!    completed-but-unpublished, mid-abort) get their **leaf positions
//!    probed directly**: a durable leaf's page is referenced forever
//!    (repair fills gaps, never overwrites), so it is marked even
//!    though no root reaches it yet. A missing node in a retained tree
//!    aborts the scrub with [`BlobError::ScrubConflict`] before
//!    anything is deleted — under-marking must never sweep.
//! 3. **Sweep** ([`blobseer_provider::DataProvider::scrub`], one job
//!    per provider on the engine's I/O pool): delete every stored page
//!    below the cut that is not marked. Replicas carry their primary's
//!    page id, so each provider judges its own copies independently —
//!    partial-replica leaks are reclaimed the same way. Offline
//!    providers are skipped (and reported): their copies stay until a
//!    scrub after recovery, exactly like GC's best-effort deletes.
//!
//! What the scrubber deliberately does **not** require: quiescence. A
//! concurrent writer's pages survive via its pin (or its post-epoch
//! ids); a concurrent reader only reaches marked pages; a concurrent
//! `retire_versions` can at worst make the mark fail typed (retry).
//! See `docs/OPERATIONS.md` for the full safety argument and when to
//! run this vs. [`crate::BlobSeer::retire_versions`] and
//! [`crate::BlobSeer::sweep_expired_leases`].

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use blobseer_meta::{collect_tree_pages, NodeKey, TreeNode, TreeReader};
use blobseer_provider::ScrubPass;
use blobseer_rt::parallel_map;
use blobseer_types::{BlobError, NodePos, PageId, Result};

use crate::engine::Engine;

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
    /// pass with [`BlobError::ScrubConflict`].
    pub mark_restarts: u64,
}

/// Shared, `'static` state for the per-provider sweep jobs.
struct SweepShared {
    live: HashSet<PageId>,
    epoch: PageId,
    exempt: AtomicU64,
}

pub(crate) fn scrub_orphans(engine: &Arc<Engine>) -> Result<ScrubReport> {
    // Phases are timed separately (mark = metadata-bound, sweep =
    // provider-bound): which tail grows tells an operator *where* a
    // slow scrub spends its time — see docs/OBSERVABILITY.md.
    let mark_timer = engine.metrics.timer();
    // 1. Epoch cut strictly before the metadata cut (module docs).
    let epoch = engine.scrub_pid_epoch();
    let cuts = engine.vm.scrub_cut();

    // 2. Mark. `visited` spans blobs: branches resolve shared versions
    // to their owning ancestor's keys, so shared history is walked once
    // no matter how many branches retain it.
    let mut visited: HashSet<NodeKey> = HashSet::new();
    let mut live: HashSet<PageId> = HashSet::new();
    let mut mark_restarts = 0u64;
    for mut cut in cuts {
        loop {
            // Transactional scratch: a failed walk leaves the visited
            // set poisoned — keys inserted before their subtrees were
            // enumerated — and retrying over it would skip-and-under-
            // mark. The walk therefore commits into the shared set only
            // when the whole blob marked cleanly. (Spurious `live`
            // entries from a failed attempt merely spare pages for a
            // later pass — over-marking is always safe.)
            let mut scratch = visited.clone();
            let mut on_leaf = |pid: PageId, _| {
                live.insert(pid);
            };
            match mark_one_blob(engine, &cut, &mut scratch, &mut on_leaf) {
                Ok(()) => {
                    visited = scratch;
                    break;
                }
                Err(conflict) => {
                    // A concurrent `retire_versions` on *this* blob is
                    // the benign cause, and it moves the blob's retire
                    // generation with every real boundary advance. If
                    // the generation moved, re-cut just this blob and
                    // restart its mark — every other blob's work
                    // stands. A conflict with an unmoved generation is
                    // genuinely incomplete metadata: fail the pass.
                    let gen = engine.vm.retire_generation(cut.blob).unwrap_or(cut.retire_gen);
                    if gen == cut.retire_gen {
                        return Err(conflict);
                    }
                    // Each retry consumes one observed generation
                    // advance, so this loop cannot spin without a
                    // matching stream of real retires.
                    mark_restarts += 1;
                    cut = engine.vm.scrub_cut_for(cut.blob)?;
                }
            }
        }
    }
    let pages_marked = live.len();
    crate::metrics::EngineMetrics::record(mark_timer, &engine.metrics.scrub_mark_latency);
    let sweep_timer = engine.metrics.timer();

    // 3. Sweep, one job per provider on the I/O pool.
    let providers = engine.providers.all_providers();
    let n = providers.len();
    let shared = Arc::new(SweepShared { live, epoch, exempt: AtomicU64::new(0) });
    let jobs_shared = Arc::clone(&shared);
    let outcomes: Vec<Option<ScrubPass>> = parallel_map(&engine.pool, n, move |i| {
        let provider = &providers[i];
        let s = Arc::clone(&jobs_shared);
        let condemned = move |pid: PageId| {
            if s.live.contains(&pid) {
                return false; // marked live — not the cut's doing
            }
            if pid >= s.epoch {
                s.exempt.fetch_add(1, Ordering::Relaxed);
                return false; // unjudgeable yet: in-flight or post-mark
            }
            true
        };
        // An offline (or mid-sweep-failing) provider keeps its
        // copies; it is re-swept after recovery, like GC.
        provider.scrub(&condemned).ok()
    });

    let mut report = ScrubReport {
        pages_marked,
        mark_restarts,
        pages_exempt: shared.exempt.load(Ordering::Relaxed),
        ..ScrubReport::default()
    };
    for outcome in outcomes {
        match outcome {
            Some(pass) => {
                report.providers_scrubbed += 1;
                report.pages_scanned += pass.pages_scanned;
                report.pages_reclaimed += pass.pages_reclaimed;
                report.bytes_reclaimed += pass.bytes_reclaimed;
                report.pages_failed += pass.pages_failed;
            }
            None => report.providers_skipped += 1,
        }
    }
    crate::metrics::EngineMetrics::record(sweep_timer, &engine.metrics.scrub_sweep_latency);
    Ok(report)
}

/// One blob's share of the mark phase: walk every retained root, then
/// probe the in-flight leaf positions, reporting every live leaf to
/// `on_leaf`. Fails typed ([`BlobError::ScrubConflict`]) without
/// sweeping anything when a retained tree is incomplete — the caller
/// decides whether that is a benign retire race (restart this blob) or
/// a real fault. Shared with the replica repairer (`crate::repair`),
/// which wants the leaf's primary provider as well as its page.
pub(crate) fn mark_one_blob(
    engine: &Arc<Engine>,
    cut: &blobseer_version::BlobScrubCut,
    visited: &mut HashSet<NodeKey>,
    on_leaf: &mut dyn FnMut(PageId, blobseer_types::ProviderId),
) -> Result<()> {
    let reader = TreeReader::new(&engine.meta, &cut.lineage);
    for &root in &cut.roots {
        collect_tree_pages(&reader, root, visited, on_leaf).map_err(|e| {
            BlobError::ScrubConflict(format!(
                "mark of {} {} hit incomplete metadata ({e}); \
                 likely racing retire_versions — nothing was swept",
                cut.blob, root.version
            ))
        })?;
    }
    // In-flight versions: probe the leaf positions the update was
    // assigned (non-blocking; key resolution through the reader, like
    // every other walk). Anything durable is marked; anything absent is
    // the writer's still-unstored (pinned/exempt) or leaked state.
    for &(version, range) in &cut.inflight {
        for page in range.iter() {
            if let Ok(TreeNode::Leaf { pid, provider, .. }) =
                reader.fetch(version, NodePos::new(page, 1), false)
            {
                on_leaf(pid, provider);
            }
        }
    }
    Ok(())
}
