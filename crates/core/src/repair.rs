//! The replica repairer: restore every live page to full replication.
//!
//! Write-path failover keeps updates succeeding while providers are
//! down, at the price of *degraded* pages: copies re-placed on fallback
//! providers, chain slots left empty, or copies that rotted at rest.
//! [`repair_replicas`] marks the live set ([`LiveSet::mark`]) and
//! derives, once per distinct primary, the expected chain and the
//! failover fallbacks ([`blobseer_provider::ProviderManager::chain`])
//! as resolved provider handles ([`Route`]). One parallel job
//! per provider then lists what it holds and flags the copies that sit
//! on a fallback of their page's route — the strays. The copy phase is
//! per-page work with no order between pages (pages are immutable,
//! their copies independent), so it fork-joins on the store's pool in
//! fixed slices of live pages below the epoch, each returning its share
//! of the [`RepairReport`]. A page whose chain copies the scans all
//! listed is judged where the copies live: each target verifies its own
//! copy ([`DataProvider::verify_page`]) and hands out no bytes, so a
//! healthy page costs no fetch. Any other page — a copy missing, or one
//! that just failed its verify and is not asked again — fills the chain
//! from a verified copy ([`fill_chain`]: chain first, then the
//! fallbacks), which fetches. Once every chain slot holds a verified
//! copy the page's flagged strays are trimmed, so a second pass over a
//! healthy deployment is a no-op. The pass's page sets and maps are
//! keyed by [`PageIdHash`]. A
//! page with no verified copy anywhere is reported
//! ([`RepairReport::pages_unrepairable`]) and left untouched — data
//! loss beyond replication's budget, an operator problem
//! (`docs/OPERATIONS.md`, "degraded mode"). Chains are read once per
//! pass, so a membership change during a pass is reconciled by the
//! next one.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;

use blobseer_metrics::Timer;
use blobseer_provider::DataProvider;
use blobseer_rt::parallel_map;
use blobseer_types::{PageId, PageIdHash, ProviderId, Result};

use crate::engine::Engine;
use crate::maintenance::{fill_chain, Fill, LiveSet, Route};

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
    /// Always 0; see [`crate::ScrubReport::mark_restarts`].
    pub mark_restarts: u64,
}

/// Live pages per fork-join item of the copy phase: enough work per
/// item (tens of microseconds) to amortize the dispatch, few enough
/// pages that a small live set still spreads over every worker.
const SLICE_PAGES: usize = 64;

/// What the copy phase's slices share, read-only.
struct Pass {
    /// The live pages below the epoch, with their primaries.
    pages: Vec<(PageId, ProviderId)>,
    /// One route per distinct primary of `pages`.
    routes: Arc<HashMap<ProviderId, Route>>,
    /// What each provider whose scan completed physically holds.
    holders: HashMap<ProviderId, HashSet<PageId, PageIdHash>>,
    /// Copies the scans found on a route's sources (outside the chain),
    /// by page: the strays to trim once the chain is whole.
    strays: HashMap<PageId, Vec<Arc<DataProvider>>, PageIdHash>,
}

impl Pass {
    /// Judge, fill, then trim, `pages[range]`: the slice's share of the
    /// report's per-page counts.
    fn repair(&self, range: Range<usize>) -> RepairReport {
        let mut report = RepairReport::default();
        for &(pid, primary) in &self.pages[range] {
            report.pages_examined += 1;
            let route = &self.routes[&primary];
            // Only copies the scan listed are asked about: an extra
            // request would count and consume injected one-shot faults.
            let held = |id| self.holders.get(&id).is_some_and(|pages| pages.contains(&pid));
            // Every chain copy listed: each target verifies its own copy
            // in place, and a page whose copies all pass costs no fetch.
            let whole = route.targets.iter().all(|target| held(target.id()));
            let rejected: Vec<ProviderId> = if whole {
                let failed = route.targets.iter().filter(|target| target.verify_page(pid).is_err());
                failed.map(|target| target.id()).collect()
            } else {
                Vec::new()
            };
            let fill = if whole && rejected.is_empty() {
                Fill { verified: route.targets.len() as u64, ..Fill::default() }
            } else {
                // A missing copy, or one just rejected (never asked
                // again): fill the chain from a verified copy.
                let listed = |id| held(id) && !rejected.contains(&id);
                let Some(fill) = fill_chain(pid, route, &listed) else {
                    // A later pass, after provider recovery, may still
                    // find a copy.
                    report.pages_unrepairable += 1;
                    continue;
                };
                fill
            };
            report.copies_verified += fill.verified;
            report.copies_repaired += fill.filled;
            report.bytes_copied += fill.bytes;
            report.copies_failed += fill.failed;
            // Trim strays only once the chain is whole, so a stray is
            // never the last good copy removed.
            if fill.failed > 0 {
                continue;
            }
            for provider in self.strays.get(&pid).into_iter().flatten() {
                if let Ok(Some(_)) = provider.delete_page(pid) {
                    report.strays_trimmed += 1;
                }
            }
        }
        report
    }
}

pub(crate) fn repair_replicas(engine: &Arc<Engine>) -> Result<RepairReport> {
    let live = LiveSet::mark(engine, &engine.metrics.repair_mark_latency);
    let copy_timer = Timer::start();

    // The retired-aware chain of each distinct primary, derived once:
    // after a drain it re-derives over the survivors, so a post-drain
    // repair is a no-op. Strays are told apart by membership, not
    // position — a retired primary shifts the chain.
    let mut report = RepairReport::default();
    let mut pages = Vec::with_capacity(live.pages.len());
    let mut routes = HashMap::new();
    for (&pid, &primary) in &live.pages {
        if pid >= live.epoch {
            report.pages_exempt += 1;
            continue;
        }
        pages.push((pid, primary));
        if let Entry::Vacant(slot) = routes.entry(primary) {
            slot.insert(Route::of(engine, primary, None)?);
        }
    }

    // Who physically holds what, one parallel job per provider; each job
    // also flags the copies it holds of a page whose route lists it as a
    // source, not a target. An offline provider's scan fails: its
    // copies are neither sourced nor trimmed, and its slots count as
    // degraded.
    let providers = engine.providers.all_providers();
    let n = providers.len();
    let routes = Arc::new(routes);
    let scans = {
        let routes = Arc::clone(&routes);
        parallel_map(&engine.pool, n, move |i| {
            let provider = &providers[i];
            let listed = provider.scan_pages().ok()?;
            let id = provider.id();
            let is_stray = |pid: &PageId| {
                *pid < live.epoch
                    && live.pages.get(pid).is_some_and(|primary| {
                        routes[primary].sources.iter().any(|source| source.id() == id)
                    })
            };
            let strays = listed.iter().map(|&(pid, _)| pid).filter(is_stray).collect::<Vec<_>>();
            let pages: HashSet<PageId, PageIdHash> =
                listed.into_iter().map(|(pid, _)| pid).collect();
            Some((Arc::clone(provider), pages, strays))
        })
    };
    let mut holders = HashMap::new();
    let mut strays: HashMap<PageId, Vec<Arc<DataProvider>>, PageIdHash> = HashMap::default();
    for (provider, pages, flagged) in scans.into_iter().flatten() {
        for pid in flagged {
            strays.entry(pid).or_default().push(Arc::clone(&provider));
        }
        holders.insert(provider.id(), pages);
    }
    report.providers_scanned = holders.len();
    report.providers_skipped = n - holders.len();

    // Pages are immutable and their copies independent: fill and trim
    // in fixed slices on the store's pool, then sum the slices.
    let slices = pages.len().div_ceil(SLICE_PAGES);
    let pass = Pass { pages, routes, holders, strays };
    let parts = parallel_map(&engine.pool, slices, move |i| {
        let start = i * SLICE_PAGES;
        pass.repair(start..pass.pages.len().min(start + SLICE_PAGES))
    });
    for part in parts {
        report.pages_examined += part.pages_examined;
        report.copies_verified += part.copies_verified;
        report.copies_repaired += part.copies_repaired;
        report.bytes_copied += part.bytes_copied;
        report.copies_failed += part.copies_failed;
        report.pages_unrepairable += part.pages_unrepairable;
        report.strays_trimmed += part.strays_trimmed;
    }
    copy_timer.stop(&engine.metrics.repair_copy_latency);
    Ok(report)
}
