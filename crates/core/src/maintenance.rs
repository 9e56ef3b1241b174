//! The machinery scrub, repair and drain share: one mark, one fill.
//!
//! Pages and tree nodes are immutable and shared across versions
//! (paper §3, §4.3), so "is this page live?" has one answer, computed
//! by [`LiveSet::mark`] — the only mark loop in the engine. The epoch
//! cut it takes first, and why marking is safe under live writers and
//! concurrent `retire_versions`, is argued once in `docs/OPERATIONS.md`
//! ("Marking the live set"). [`fill_chain`] is the only place a page
//! copy is re-placed: repair fills the expected chain, drain the chain
//! as it will read once the victim retires. What each caller does with
//! the answer — reclaim, fill or evacuate — is its own module's policy.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use blobseer_meta::{collect_tree_pages, NodeKey, TreeNode, TreeReader};
use blobseer_metrics::{Timer, WindowedHistogram};
use blobseer_provider::SealedPage;
use blobseer_types::{BlobError, NodePos, PageId, ProviderId, Result};
use blobseer_version::BlobScrubCut;

use crate::engine::Engine;

/// Every page the metadata proves live, with the primary its leaf
/// names.
pub(crate) struct LiveSet {
    /// The page-id epoch cut: pages at or above it are unjudged.
    pub epoch: PageId,
    pub pages: HashMap<PageId, ProviderId>,
    /// Per-blob re-cuts absorbed (a concurrent retire moved the blob's
    /// retire generation mid-mark).
    pub restarts: u64,
}

impl LiveSet {
    /// Take the page-id epoch strictly before the metadata cut, then
    /// mark every blob; a successful mark is timed into `latency` (the
    /// caller's metadata-bound phase). Fails with
    /// [`BlobError::ScrubConflict`] when a tree is incomplete and no
    /// retire explains it.
    pub(crate) fn mark(engine: &Arc<Engine>, latency: &WindowedHistogram) -> Result<LiveSet> {
        let timer = Timer::start();
        let epoch = engine.scrub_pid_epoch();
        let live = Self::mark_cuts(engine, epoch, engine.vm.scrub_cut())?;
        timer.stop(latency);
        Ok(live)
    }

    fn mark_cuts(engine: &Arc<Engine>, epoch: PageId, cuts: Vec<BlobScrubCut>) -> Result<LiveSet> {
        let mut live = LiveSet { epoch, pages: HashMap::new(), restarts: 0 };
        // Spans blobs: branches resolve shared versions to their owner's
        // keys, so shared history is walked once.
        let mut visited = HashSet::new();
        // Sized up front (the node table bounds one attempt's inserts):
        // growing it by doubling re-copies and re-faults the log, ~10 %
        // of a 10⁵-node mark.
        let mut undo = Vec::with_capacity(engine.meta.node_count());
        let mut leaves = Vec::new();
        for mut cut in cuts {
            loop {
                undo.clear();
                leaves.clear();
                let mut on_leaf = |pid, provider| leaves.push((pid, provider));
                let marked = mark_blob(engine, &cut, &mut visited, &mut undo, &mut on_leaf);
                let Err(conflict) = marked else {
                    live.pages.extend(leaves.drain(..));
                    break;
                };
                // Roll the attempt back: its keys leave `visited` and its
                // leaves (possibly of a retired tree) are dropped.
                for key in &undo {
                    visited.remove(key);
                }
                let gen = engine.vm.retire_generation(cut.blob).unwrap_or(cut.retire_gen);
                if gen == cut.retire_gen {
                    return Err(conflict);
                }
                // Each restart consumes one observed generation advance.
                live.restarts += 1;
                cut = engine.vm.scrub_cut_for(cut.blob)?;
            }
        }
        Ok(live)
    }
}

/// One blob's share of the mark: walk every retained root, then probe
/// the leaf positions of its in-flight versions (a durable leaf names
/// its page forever, even before a root reaches it).
fn mark_blob(
    engine: &Arc<Engine>,
    cut: &BlobScrubCut,
    visited: &mut HashSet<NodeKey>,
    undo: &mut Vec<NodeKey>,
    on_leaf: &mut dyn FnMut(PageId, ProviderId),
) -> Result<()> {
    let reader = TreeReader::new(&engine.meta, &cut.lineage);
    for &root in &cut.roots {
        collect_tree_pages(&reader, root, visited, undo, on_leaf).map_err(|e| {
            BlobError::ScrubConflict(format!(
                "mark of {} {} hit incomplete metadata ({e}); \
                 likely racing retire_versions — nothing was swept",
                cut.blob, root.version
            ))
        })?;
    }
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

/// What [`fill_chain`] did for one page.
#[derive(Default)]
pub(crate) struct Fill {
    /// Targets whose copy verified whole and was left untouched.
    pub verified: u64,
    /// Empty or corrupt targets written from the verified source.
    pub filled: u64,
    /// Payload bytes those fills carried.
    pub bytes: u64,
    /// Fills refused at their target (offline or erroring provider).
    pub failed: u64,
}

/// Bring every `targets` slot of `pid` to a verifying copy. Each
/// target that `listed` admits is fetched and verified whole; the
/// others, and those that fail, are filled from the first verified
/// copy — targets first, then the `sources` that are not targets —
/// re-placing the fetched [`SealedPage`] with the client's sums, never
/// re-hashed. Replacing a checksum-failed copy is the one legitimate
/// overwrite. A provider `listed` rejects is never fetched from. `None`
/// when no copy verifies anywhere: nothing was written.
pub(crate) fn fill_chain(
    engine: &Engine,
    pid: PageId,
    targets: &[ProviderId],
    sources: &[ProviderId],
    listed: &dyn Fn(ProviderId) -> bool,
) -> Option<Fill> {
    let fetch = |id| listed(id).then(|| engine.providers.provider(id)?.fetch_page(pid));
    let mut fill = Fill::default();
    let mut degraded = Vec::new();
    let mut source: Option<SealedPage> = None;
    for &id in targets {
        match fetch(id) {
            Some(Ok(page)) => {
                fill.verified += 1;
                source.get_or_insert(page);
            }
            _ => degraded.push(id),
        }
    }
    let mut extra = sources.iter().filter(|id| !targets.contains(id));
    let page = source.or_else(|| extra.find_map(|&id| fetch(id)?.ok()))?;
    for id in degraded {
        match engine.providers.provider(id).and_then(|p| p.store_repaired_page(pid, page.clone())) {
            Ok(()) => {
                fill.filled += 1;
                fill.bytes += page.len() as u64;
            }
            Err(_) => fill.failed += 1,
        }
    }
    Some(fill)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Blob, BlobSeer, Builder};

    /// One blob of four 4-page appends, retired down to its last
    /// version, and the mark cut taken just before the retire. Every
    /// later root keeps an earlier one as its left subtree, so a walk
    /// of the stale cut inserts retained keys before it reaches the
    /// root the retire swept.
    fn retired_under_a_stale_cut() -> (BlobSeer, Blob, Vec<BlobScrubCut>) {
        let s = Builder::new().page_size(16).data_providers(3).replication(2).build().unwrap();
        let blob = s.create();
        for i in 0..4u8 {
            blob.append(&[i; 64]).unwrap();
        }
        let stale = s.engine.vm.scrub_cut();
        s.retire_versions(blob.id(), blob.recent_version().unwrap()).unwrap();
        (s, blob, stale)
    }

    fn mark(s: &BlobSeer, cuts: Vec<BlobScrubCut>) -> Result<LiveSet> {
        LiveSet::mark_cuts(&s.engine, s.engine.scrub_pid_epoch(), cuts)
    }

    /// A retire between the cut and the walk costs exactly one restart,
    /// and the restarted mark equals a fresh one.
    #[test]
    fn one_retire_is_one_restart_and_marks_like_a_fresh_cut() {
        let (s, _, stale) = retired_under_a_stale_cut();
        let restarted = mark(&s, stale).unwrap();
        let fresh = mark(&s, s.engine.vm.scrub_cut()).unwrap();
        assert_eq!((restarted.restarts, fresh.restarts), (1, 0));
        assert_eq!(restarted.pages, fresh.pages);
        assert_eq!(fresh.pages.len(), 16);
    }

    /// The undo log: a branch's failed attempt walks its retained trees
    /// (subtrees shared with its parent, marked just before) and only
    /// then hits a swept root. Its rollback must leave `visited` as it
    /// was, or the retry skips the branch's own live subtrees and
    /// under-marks.
    #[test]
    fn a_failed_attempt_on_a_branch_rolls_back_exactly() {
        let (s, parent, _) = retired_under_a_stale_cut();
        let branch = parent.branch(parent.recent_version().unwrap()).unwrap();
        for i in 0..3u8 {
            branch.write(&[0xB0 | i; 16], 16 * u64::from(i)).unwrap();
        }
        let stale = s.engine.vm.scrub_cut_for(branch.id()).unwrap();
        s.retire_versions(branch.id(), branch.recent_version().unwrap()).unwrap();

        // The parent's cut as it is, then the branch's fresh cut with a
        // swept root of its own history appended last, under the
        // generation it had before the retire.
        let mut cuts = s.engine.vm.scrub_cut();
        let doctored = cuts.iter_mut().find(|c| c.blob == branch.id()).unwrap();
        doctored.roots.push(*stale.roots.iter().rev().nth(1).unwrap());
        doctored.retire_gen = stale.retire_gen;
        let restarted = mark(&s, cuts).unwrap();
        assert_eq!(restarted.restarts, 1);
        assert_eq!(restarted.pages, mark(&s, s.engine.vm.scrub_cut()).unwrap().pages);
    }

    /// A conflict the blob's generation does not explain is typed.
    #[test]
    fn an_unmoved_generation_is_a_typed_conflict() {
        let (s, _, mut stale) = retired_under_a_stale_cut();
        for cut in &mut stale {
            cut.retire_gen = s.engine.vm.retire_generation(cut.blob).unwrap();
        }
        let err = mark(&s, stale).err().unwrap();
        assert!(matches!(err, BlobError::ScrubConflict(_)), "got {err:?}");
    }
}
