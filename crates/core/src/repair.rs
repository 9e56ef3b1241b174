//! The replica repairer: restore every live page to full replication.
//!
//! Write-path failover keeps updates succeeding while providers are
//! down, at the price of *degraded* pages: copies re-placed on fallback
//! providers, chain slots left empty, or copies that rotted at rest.
//! [`repair_replicas`] marks the live set ([`LiveSet::mark`]), scans
//! every provider, and for each live page below the epoch fills its
//! expected chain ([`blobseer_provider::ProviderManager::chain_of`])
//! from a verified copy ([`fill_chain`]: chain first, then the failover
//! fallbacks). Once the chain holds a verified copy in every slot,
//! redundant copies on the fallbacks are trimmed, so a second pass over
//! a healthy deployment is a no-op. A page with no verified copy
//! anywhere is reported ([`RepairReport::pages_unrepairable`]) and left
//! untouched — data loss beyond replication's budget, an operator
//! problem (`docs/OPERATIONS.md`, "degraded mode").

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use blobseer_metrics::Timer;
use blobseer_rt::parallel_map;
use blobseer_types::{PageId, ProviderId, Result};

use crate::engine::Engine;
use crate::maintenance::{fill_chain, LiveSet};

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
    let live = LiveSet::mark(engine, &engine.metrics.repair_mark_latency)?;
    let copy_timer = Timer::start();

    // Who physically holds what, one parallel job per provider. An
    // offline provider's scan fails: its copies are neither sourced nor
    // trimmed, and its slots count as degraded.
    let providers = engine.providers.all_providers();
    let n = providers.len();
    let holders: HashMap<ProviderId, HashSet<PageId>> = parallel_map(&engine.pool, n, move |i| {
        let pages = providers[i].scan_pages().ok()?;
        Some((providers[i].id(), pages.into_iter().map(|(pid, _)| pid).collect()))
    })
    .into_iter()
    .flatten()
    .collect();
    let mut report = RepairReport {
        providers_scanned: holders.len(),
        providers_skipped: n - holders.len(),
        mark_restarts: live.restarts,
        ..RepairReport::default()
    };

    for (&pid, &primary) in &live.pages {
        if pid >= live.epoch {
            report.pages_exempt += 1;
            continue;
        }
        report.pages_examined += 1;
        // The retired-aware chain: after a drain it re-derives over the
        // survivors, so a post-drain repair is a no-op. Strays are told
        // apart by membership, not position — a retired primary shifts
        // the chain.
        let chain = engine.providers.chain_of(primary, engine.config.replication)?;
        let fallbacks = engine.providers.fallbacks_of(primary, 1)?;
        // Only copies the scan listed are fetched: an extra fetch would
        // count as a read and consume injected one-shot faults.
        let listed = |id| holders.get(&id).is_some_and(|pages| pages.contains(&pid));
        let Some(fill) = fill_chain(engine, pid, &chain, &fallbacks, &listed) else {
            // A later pass, after provider recovery, may still find a copy.
            report.pages_unrepairable += 1;
            continue;
        };
        report.copies_verified += fill.verified;
        report.copies_repaired += fill.filled;
        report.bytes_copied += fill.bytes;
        report.copies_failed += fill.failed;
        // Trim strays only once the chain is whole, so a stray is never
        // the last good copy removed.
        if fill.failed > 0 {
            continue;
        }
        for &id in fallbacks.iter().filter(|&&id| !chain.contains(&id) && listed(id)) {
            if let Ok(Some(_)) = engine.providers.provider(id).and_then(|p| p.delete_page(pid)) {
                report.strays_trimmed += 1;
            }
        }
    }
    copy_timer.stop(&engine.metrics.repair_copy_latency);
    Ok(report)
}
