//! Version garbage collection: reclaiming pages and metadata of retired
//! snapshots.
//!
//! The paper's versioning never deletes anything — space efficiency
//! comes from sharing (§4.3) — but any long-running deployment
//! eventually wants to drop ancient history. Because snapshots share
//! pages and subtrees, deletion must be **reachability-based**:
//!
//! 1. the version manager retires versions `< keep_from` (validating
//!    quiescence and branch pins, and making the versions unreadable);
//! 2. **mark**: walk the trees of every retained snapshot, collecting
//!    reachable node keys — shared subtrees created by retired versions
//!    are reachable and survive;
//! 3. **sweep**: delete this blob's nodes from retired versions that
//!    were not marked; the pages named by swept leaves are — by the
//!    1:1 leaf↔page property of immutable trees — unreferenced, and
//!    are deleted from their providers (replica chains included).

use std::collections::HashSet;
use std::sync::Arc;

use blobseer_meta::{collect_tree_pages, NodeKey, TreeReader};
use blobseer_types::{BlobId, Result, Version};

use crate::engine::Engine;

/// What a [`crate::BlobSeer::retire_versions`] call reclaimed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Tree nodes deleted from the metadata DHT.
    pub nodes_removed: usize,
    /// Distinct pages deleted (each may have had several replicas).
    pub pages_removed: usize,
    /// Page payload bytes reclaimed, replicas included.
    pub bytes_reclaimed: u64,
}

pub(crate) fn retire_versions(
    engine: &Arc<Engine>,
    blob: BlobId,
    keep_from: Version,
) -> Result<GcReport> {
    // 1. Retire at the version manager (all validation lives there).
    let roots = engine.vm.begin_retire(blob, keep_from)?;
    if roots.is_empty() {
        return Ok(GcReport::default());
    }
    let lineage = engine.vm.lineage(blob)?;
    let reader = TreeReader::new(&engine.meta, &lineage);

    // 2. Mark: every node reachable from a retained root. Published
    // trees are complete, so non-blocking fetches suffice. The walk
    // fills `reachable` as its visited set; the leaves themselves are
    // not needed here — the sweep derives orphaned pages from the
    // removed leaf *nodes*.
    let mut reachable: HashSet<NodeKey> = HashSet::new();
    for root in &roots {
        collect_tree_pages(&reader, *root, &mut reachable, &mut |_, _| {})?;
    }

    // 3. Sweep nodes, then delete the orphaned pages on every replica.
    let (nodes_removed, orphaned) = engine.meta.sweep_retired(blob, keep_from, &reachable);
    let mut bytes_reclaimed = 0u64;
    let mut pages_removed = 0usize;
    for (pid, primary) in orphaned {
        // Retired-aware: the copies live on the current chain (which
        // skips drained-and-retired members), not necessarily on the
        // leaf's literal primary.
        let mut targets: Vec<_> =
            engine.providers.chain(primary, None)?.take(engine.config.replication).collect();
        // Plus the literal primary if it differs (pre-drain copies a
        // failed drain left behind are still best-effort deleted).
        if !targets.contains(&primary) {
            targets.push(primary);
        }
        let mut any = false;
        for target in targets {
            // Best effort: a failed provider keeps its (orphaned) copy;
            // it can be re-swept after recovery.
            if let Ok(provider) = engine.providers.provider(target) {
                if provider.is_available() {
                    if let Ok(Some(bytes)) = provider.delete_page(pid) {
                        bytes_reclaimed += bytes;
                        any = true;
                    }
                }
            }
        }
        if any {
            pages_removed += 1;
        }
    }
    Ok(GcReport { nodes_removed, pages_removed, bytes_reclaimed })
}
