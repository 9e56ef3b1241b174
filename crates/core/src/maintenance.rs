//! The machinery scrub, repair and drain share: one mark, one fill.
//!
//! Pages and tree nodes are immutable and shared across versions
//! (paper §3, §4.3). A node enters the metadata store only as a fill of
//! an empty write-once slot, so it is never replaced, and leaves it
//! only through `retire_versions`, which deletes exactly the nodes no
//! retained root reaches. So every stored leaf names a live page, and
//! every live page below the epoch cut is named by a leaf:
//! [`LiveSet::mark`] — the only mark in the engine — is one pass over
//! the slabs' leaf runs, with
//! no roots, lineage, visited set or per-blob restart. The epoch cut it
//! takes first, and why the scan is safe under live writers and
//! concurrent `retire_versions`, is argued once in `docs/OPERATIONS.md`
//! ("Marking the live set"). [`fill_chain`] is the only place a page
//! copy is re-placed: repair fills the expected chain, drain the chain
//! as it will read once the victim retires. Both derive a [`Route`] —
//! the chain and its other sources as provider handles — once per
//! distinct primary, not per page, and share it across that primary's
//! pages; repair runs the fills in parallel slices on the store's pool,
//! drain one by one. Maintenance asks a provider for a verdict
//! ([`DataProvider::verify_page`]) unless it moves bytes: only a fill
//! fetches. The live set is keyed by [`PageIdHash`], a multiply-fold of
//! engine-minted ids, not SipHash, so scrub, repair and drain all probe
//! it cheaply. What each caller does with the answer — reclaim, fill or
//! evacuate — is its own module's policy.

use std::collections::HashMap;
use std::sync::Arc;

use blobseer_metrics::{AtomicHistogram, Timer};
use blobseer_provider::{DataProvider, SealedPage};
use blobseer_types::{PageId, PageIdHash, ProviderId, Result};

use crate::engine::Engine;

/// Every page the metadata references, with the primary its leaf
/// names.
pub(crate) struct LiveSet {
    /// The page-id epoch cut: pages at or above it are unjudged.
    pub epoch: PageId,
    pub pages: HashMap<PageId, ProviderId, PageIdHash>,
}

impl LiveSet {
    /// Take the page-id epoch strictly before the scan, then collect
    /// every stored leaf; timed into `latency` (the caller's
    /// metadata-bound phase).
    pub(crate) fn mark(engine: &Engine, latency: &AtomicHistogram) -> LiveSet {
        let timer = Timer::start();
        let epoch = engine.scrub_pid_epoch();
        let mut pages = HashMap::default();
        engine.meta.for_each_leaf(|pid, provider| {
            pages.insert(pid, provider);
        });
        timer.stop(latency);
        LiveSet { epoch, pages }
    }
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

/// The providers one primary's pages are filled over, resolved once
/// per pass (or drain round) and shared by every page that names that
/// primary: deriving a chain is a walk of the registry, and resolving
/// a handle a reference count the parallel jobs need.
pub(crate) struct Route {
    /// Where the copies belong, in chain order.
    pub targets: Vec<Arc<DataProvider>>,
    /// Where else a verified copy may be read from, in order; never a
    /// target.
    pub sources: Vec<Arc<DataProvider>>,
}

impl Route {
    /// The route of `primary`'s pages: the first `replication` entries
    /// of its [`chain`](blobseer_provider::ProviderManager::chain) as
    /// targets, the rest as sources. Repair passes no `retiring`; a
    /// drain passes its victim, so the targets are the chain as it
    /// will read once the victim retires and the victim is the first
    /// source.
    pub(crate) fn of(
        engine: &Engine,
        primary: ProviderId,
        retiring: Option<ProviderId>,
    ) -> Result<Route> {
        let resolve = |id| engine.providers.provider(id).cloned();
        let mut chain = engine.providers.chain(primary, retiring)?;
        Ok(Route {
            targets: chain
                .by_ref()
                .take(engine.config.replication)
                .map(resolve)
                .collect::<Result<_>>()?,
            sources: retiring.into_iter().chain(chain).map(resolve).collect::<Result<_>>()?,
        })
    }
}

/// Bring every target slot of `pid` to a verifying copy. Each target
/// that `listed` admits is fetched and verified whole; the others, and
/// those that fail, are filled from the first verified copy — targets
/// first, then the route's sources — re-placing the fetched
/// [`SealedPage`] with the client's sums, never re-hashed. Replacing a
/// checksum-failed copy is the one legitimate overwrite. A provider
/// `listed` rejects is never fetched from. `None` when no copy
/// verifies anywhere: nothing was written.
pub(crate) fn fill_chain(
    pid: PageId,
    route: &Route,
    listed: &dyn Fn(ProviderId) -> bool,
) -> Option<Fill> {
    let fetch = |p: &DataProvider| listed(p.id()).then(|| p.fetch_page(pid));
    let mut fill = Fill::default();
    let mut degraded = Vec::new();
    let mut source: Option<SealedPage> = None;
    for target in &route.targets {
        match fetch(target) {
            Some(Ok(page)) => {
                fill.verified += 1;
                source.get_or_insert(page);
            }
            _ => degraded.push(target),
        }
    }
    let page = source.or_else(|| route.sources.iter().find_map(|p| fetch(p)?.ok()))?;
    for target in degraded {
        match target.store_repaired_page(pid, page.clone()) {
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
    use std::collections::HashSet;

    use blobseer_meta::{collect_tree_pages, TreeNode, TreeReader};
    use blobseer_types::{BlobId, NodePos};
    use bytes::Bytes;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::{Blob, BlobSeer, Builder, CrashPoint};

    /// The reference mark the scan replaced: walk every retained root
    /// of every blob (shared subtrees once), then probe the leaf
    /// positions of every in-flight update — a wedged writer's durable
    /// leaves name pages its eventual repair keeps.
    fn tree_mark(engine: &Engine) -> HashMap<PageId, ProviderId, PageIdHash> {
        let mut pages = HashMap::default();
        let mut visited = HashSet::new();
        for cut in engine.vm.scrub_cut() {
            let reader = TreeReader::new(&engine.meta, &cut.lineage);
            let mut on_leaf = |pid, provider| {
                pages.insert(pid, provider);
            };
            for &root in &cut.roots {
                collect_tree_pages(&reader, root, &mut visited, &mut on_leaf).unwrap();
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
        }
        pages
    }

    fn scan(s: &BlobSeer) -> LiveSet {
        LiveSet::mark(&s.engine, &AtomicHistogram::new())
    }

    const CRASHES: [CrashPoint; 4] = [
        CrashPoint::AfterPrepare,
        CrashPoint::AfterBoundaryPages,
        CrashPoint::AfterPartialMetadata,
        CrashPoint::BeforeNotify,
    ];

    /// A random history over up to four blobs (the first created, the
    /// rest branches): appends and overwrites at unaligned offsets,
    /// writers dying at every [`CrashPoint`] and left wedged until a
    /// later sweep, branches, and retires of blobs no branch pins.
    struct History {
        rng: StdRng,
        blobs: Vec<Blob>,
        wedged: HashSet<BlobId>,
        forked: HashSet<BlobId>,
    }

    impl History {
        fn step(&mut self, s: &BlobSeer) {
            let blob = self.blobs[self.rng.gen_range(0..self.blobs.len())].clone();
            let len = self.rng.gen_range(1..48usize);
            let data = Bytes::from(vec![self.rng.gen_range(1..=255u8); len]);
            let size = blob.latest().unwrap().len();
            let offset = self.rng.gen_range(0..=size);
            let free = !self.wedged.contains(&blob.id());
            match self.rng.gen_range(0..10u32) {
                0..=2 if free => drop(blob.append_bytes(data).unwrap()),
                3..=4 if free => drop(blob.write_bytes(data, offset).unwrap()),
                5..=6 if free => {
                    let point = CRASHES[self.rng.gen_range(0..CRASHES.len())];
                    if self.rng.gen_bool(0.5) {
                        blob.crash_append(data, point).unwrap();
                    } else {
                        blob.crash_write(data, offset, point).unwrap();
                    }
                    self.wedged.insert(blob.id());
                }
                7 if self.blobs.len() < 4 => {
                    let branch = blob.branch(blob.recent_version().unwrap()).unwrap();
                    self.forked.insert(blob.id());
                    self.blobs.push(branch);
                }
                8 if free && !self.forked.contains(&blob.id()) => {
                    blob.retire_versions(blob.recent_version().unwrap()).unwrap();
                }
                _ => {
                    s.advance_lease_clock(s.config().lease_ttl_ticks + 1);
                    assert!(s.sweep_expired_leases().pending.is_empty());
                    self.wedged.clear();
                }
            }
        }
    }

    /// Scan ≡ walk: after every step of every history, the table's
    /// leaves are exactly the pages the trees and the in-flight probes
    /// reach — nothing over-marked (a leak the scrubber would keep) and
    /// nothing under-marked (a live page it would delete).
    #[test]
    fn the_leaf_scan_marks_exactly_what_the_tree_walk_reaches() {
        for seed in 0..24 {
            let s = Builder::new().page_size(16).data_providers(3).replication(2).build().unwrap();
            let mut history = History {
                rng: StdRng::seed_from_u64(seed),
                blobs: vec![s.create()],
                wedged: HashSet::new(),
                forked: HashSet::new(),
            };
            for step in 0..40 {
                history.step(&s);
                let marked = scan(&s);
                assert_eq!(marked.pages, tree_mark(&s.engine), "seed {seed}, step {step}");
                assert!(marked.pages.keys().all(|&pid| pid < marked.epoch));
            }
        }
    }

    /// A retire that sweeps history a branch still resolves to (the
    /// branch's inherited v1 and v2 go with the parent's) leaves trees
    /// no walk can finish. The scan has no trees to finish: every
    /// maintenance pass still succeeds, and converges.
    #[test]
    fn a_retire_under_a_branch_does_not_wedge_maintenance() {
        let s = Builder::new().page_size(16).data_providers(3).replication(2).build().unwrap();
        let parent = s.create();
        parent.append(&[1; 64]).unwrap();
        for fill in 2..5u8 {
            parent.write(&[fill; 16], 0).unwrap();
        }
        let v4 = parent.recent_version().unwrap();
        let _branch = parent.branch(v4).unwrap();
        assert!(parent.retire_versions(crate::Version(3)).unwrap().nodes_removed > 0);

        s.scrub_orphans().unwrap();
        s.repair_replicas().unwrap();
        s.drain_provider(ProviderId(0)).unwrap();
        assert_eq!(s.scrub_orphans().unwrap().pages_reclaimed, 0);
        assert_eq!(s.repair_replicas().unwrap().copies_repaired, 0);
        assert_eq!(scan(&s).pages.len(), 2 + 3, "page 0 of v3 and v4, and v1's other three");
    }
}
