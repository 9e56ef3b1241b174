//! The replica repairer: restore every live page to full replication.
//!
//! Write-path failover (PR 7) keeps updates succeeding while providers
//! are down, at the price of *degraded* pages: copies re-placed on
//! fallback providers, chain slots left empty, or copies that rotted
//! at rest (checksum failures). [`repair_replicas`] walks the same
//! metadata the orphan scrubber trusts and converges the physical
//! copy set of every live page back to its expected replica chain:
//!
//! 1. **Mark** (shared with `crate::scrub`, same epoch-cut safety
//!    argument): take the page-id epoch, cut the retained roots of
//!    every blob, and walk them — collecting each live page *with the
//!    primary provider its leaf names*. A blob whose mark races a
//!    concurrent `retire_versions` is re-cut and re-walked alone
//!    (retire-generation token), like the scrubber. Pages at or above
//!    the epoch belong to in-flight operations and are exempt — their
//!    writers are still storing copies.
//! 2. **Scan**: enumerate every provider's stored pages (one parallel
//!    job per provider). An offline provider is skipped: its copies
//!    can neither be verified nor counted, so its chain slots are
//!    treated as unrepairable-for-now rather than guessed at.
//! 3. **Diff + copy**: for each live page, the expected chain is the
//!    deterministic function writers use
//!    ([`blobseer_provider::ProviderManager::replicas_of`]). Every
//!    chain copy present is fetched and verified **whole** (every
//!    block — the one place rot in a block no reader happened to touch
//!    is found); every slot that is empty or holds a corrupt copy is
//!    re-filled from the first copy that verifies anywhere — chain
//!    first, then the failover fallbacks. The fill re-places the
//!    fetched [`blobseer_provider::SealedPage`] as it is: the client's
//!    sums travel with it and nothing is hashed a second time.
//!    **Repair fills, never overwrites**: a copy
//!    that verifies is never rewritten (the one exception is replacing
//!    a checksum-failed copy, whose bytes were provably not the page).
//!    Once a page's chain is fully verified, redundant failover copies
//!    outside the chain are trimmed so a later scrub/scan sees a clean
//!    deployment.
//!
//! A second pass over a healthy deployment is a no-op: every chain
//! copy verifies, nothing is copied, nothing is trimmed. Pages with
//! **no** verified copy anywhere are reported
//! ([`RepairReport::pages_unrepairable`]) and left untouched — that is
//! data loss beyond replication's budget, an operator problem (see
//! `docs/OPERATIONS.md`, "degraded mode").

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use blobseer_meta::NodeKey;
use blobseer_provider::SealedPage;
use blobseer_rt::parallel_map;
use blobseer_types::{PageId, ProviderId, Result};

use crate::engine::Engine;
use crate::scrub::mark_one_blob;

/// What a [`crate::BlobSeer::repair_replicas`] pass found and fixed.
/// On a fully healthy deployment everything but `pages_examined`,
/// `copies_verified` and `providers_scanned` is zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Distinct live pages below the epoch cut whose copy set was
    /// diffed against the expected chain.
    pub pages_examined: usize,
    /// Live pages at or above the epoch cut, exempt (their writer is
    /// still storing copies; a later pass judges them).
    pub pages_exempt: u64,
    /// Expected-chain copies that were present and verified — left
    /// untouched.
    pub copies_verified: u64,
    /// Chain copies re-filled: slots that were empty plus corrupt
    /// copies replaced from a verified source.
    pub copies_repaired: u64,
    /// Payload bytes written by those repairs.
    pub bytes_copied: u64,
    /// Repair stores that failed at the target (offline or erroring
    /// provider); the slot stays degraded until a later pass.
    pub copies_failed: u64,
    /// Live pages with **no** verified copy on any provider: nothing
    /// was touched, the data needs an operator (backup, provider
    /// recovery). Reads of these pages fail typed
    /// ([`blobseer_types::BlobError::PageCorrupt`] or missing).
    pub pages_unrepairable: u64,
    /// Redundant failover copies outside a fully-verified chain that
    /// were trimmed.
    pub strays_trimmed: u64,
    /// Providers whose scan completed.
    pub providers_scanned: usize,
    /// Offline providers skipped (scan failed); their copies were
    /// neither counted nor trimmed — re-run after recovery.
    pub providers_skipped: usize,
    /// Per-blob mark restarts absorbed (concurrent `retire_versions`);
    /// same mechanism as [`crate::ScrubReport::mark_restarts`].
    pub mark_restarts: u64,
}

pub(crate) fn repair_replicas(engine: &Arc<Engine>) -> Result<RepairReport> {
    // ── Mark: live pages with their leaf-named primary. Same epoch-cut
    // discipline as the scrubber: epoch strictly before the metadata
    // cut, per-blob restart on a retire race, transactional visited
    // scratch (see crate::scrub for the full argument).
    let mark_timer = engine.metrics.timer();
    let epoch = engine.scrub_pid_epoch();
    let cuts = engine.vm.scrub_cut();

    let mut visited: HashSet<NodeKey> = HashSet::new();
    let mut expected: HashMap<PageId, ProviderId> = HashMap::new();
    let mut mark_restarts = 0u64;
    for mut cut in cuts {
        loop {
            let mut scratch_visited = visited.clone();
            // Leaves land in a per-attempt scratch too: unlike the
            // scrubber (where over-marking only spares pages), stale
            // entries from a failed walk could make the repairer
            // re-replicate pages of a retired tree.
            let mut scratch_pages: HashMap<PageId, ProviderId> = HashMap::new();
            let mut on_leaf = |pid: PageId, provider: ProviderId| {
                scratch_pages.insert(pid, provider);
            };
            match mark_one_blob(engine, &cut, &mut scratch_visited, &mut on_leaf) {
                Ok(()) => {
                    visited = scratch_visited;
                    expected.extend(scratch_pages);
                    break;
                }
                Err(conflict) => {
                    let gen = engine.vm.retire_generation(cut.blob).unwrap_or(cut.retire_gen);
                    if gen == cut.retire_gen {
                        return Err(conflict);
                    }
                    mark_restarts += 1;
                    cut = engine.vm.scrub_cut_for(cut.blob)?;
                }
            }
        }
    }

    // ── Scan: who physically holds what, one parallel job per
    // provider. `None` = offline (scan refused), recorded and excluded
    // from both sourcing and trimming.
    let providers = engine.providers.all_providers();
    let n = providers.len();
    let scan_providers = providers.clone();
    let scans: Vec<Option<HashSet<PageId>>> = parallel_map(&engine.pool, n, move |i| {
        scan_providers[i]
            .scan_pages()
            .ok()
            .map(|pages| pages.into_iter().map(|(pid, _)| pid).collect())
    });
    let mut holders: HashMap<ProviderId, HashSet<PageId>> = HashMap::new();
    let mut report = RepairReport { mark_restarts, ..RepairReport::default() };
    for (provider, scan) in providers.iter().zip(scans) {
        match scan {
            Some(pages) => {
                report.providers_scanned += 1;
                holders.insert(provider.id(), pages);
            }
            None => report.providers_skipped += 1,
        }
    }
    crate::metrics::EngineMetrics::record(mark_timer, &engine.metrics.repair_mark_latency);

    // ── Diff + copy.
    let copy_timer = engine.metrics.timer();
    let replication = engine.config.replication;
    for (&pid, &primary) in &expected {
        if pid >= epoch {
            report.pages_exempt += 1;
            continue;
        }
        report.pages_examined += 1;

        // The retired-aware expected chain: once a drain retired a
        // member, the chain re-derives over the survivors and this
        // pass converges the copies to it (a post-drain repair is a
        // no-op because the drain already filled exactly this chain).
        let chain = engine.providers.chain_of(primary, replication)?;
        // Everything live beyond the chain, in failover order. With a
        // retired primary the chain starts one position later, so
        // filter against the chain rather than slicing by count.
        let fallbacks: Vec<ProviderId> = engine
            .providers
            .fallbacks_of(primary, 1)?
            .into_iter()
            .filter(|id| !chain.contains(id))
            .collect();

        // Verify what the chain holds; classify each slot.
        let mut degraded: Vec<ProviderId> = Vec::new(); // empty or corrupt slot
        let mut source: Option<SealedPage> = None;
        for &id in &chain {
            let holds = holders.get(&id).is_some_and(|pages| pages.contains(&pid));
            if !holds {
                // Not listed by the scan — either truly absent or the
                // provider is offline; a store to an offline target
                // fails and is counted, never guessed.
                degraded.push(id);
                continue;
            }
            match engine.providers.provider(id).and_then(|p| p.fetch_page(pid)) {
                Ok(data) => {
                    report.copies_verified += 1;
                    source.get_or_insert(data);
                }
                // Corrupt (counted by the provider) or unreadable: the
                // slot needs a re-copy either way. Replacing a
                // checksum-failed copy is the one legitimate overwrite
                // — its bytes were provably not the page.
                Err(_) => degraded.push(id),
            }
        }

        // No verified source in the chain: try the failover fallbacks
        // (where write-path failover put copies), best one wins.
        if source.is_none() {
            for &id in &fallbacks {
                let holds = holders.get(&id).is_some_and(|pages| pages.contains(&pid));
                if !holds {
                    continue;
                }
                if let Ok(data) = engine.providers.provider(id).and_then(|p| p.fetch_page(pid)) {
                    source = Some(data);
                    break;
                }
            }
        }

        let Some(data) = source else {
            // Every copy of a live page is gone or corrupt. Touch
            // nothing — a later pass (after provider recovery) may
            // still find a copy on a currently-offline provider.
            report.pages_unrepairable += 1;
            continue;
        };

        // Fill every degraded chain slot from the verified source.
        let mut chain_complete = true;
        for &id in &degraded {
            match engine
                .providers
                .provider(id)
                .and_then(|p| p.store_repaired_page(pid, data.clone()))
            {
                Ok(()) => {
                    report.copies_repaired += 1;
                    report.bytes_copied += data.len() as u64;
                }
                Err(_) => {
                    report.copies_failed += 1;
                    chain_complete = false;
                }
            }
        }

        // Trim redundant failover copies — only once the chain fully
        // verifies, so a stray is never the last good copy removed.
        if chain_complete {
            for &id in &fallbacks {
                let holds = holders.get(&id).is_some_and(|pages| pages.contains(&pid));
                if !holds {
                    continue;
                }
                if let Ok(Some(_)) = engine.providers.provider(id).and_then(|p| p.delete_page(pid))
                {
                    report.strays_trimmed += 1;
                }
            }
        }
    }
    crate::metrics::EngineMetrics::record(copy_timer, &engine.metrics.repair_copy_latency);
    Ok(report)
}
