//! The provider manager: the registry and round-robin page placement.
//!
//! The registry is an append-only table indexed by provider id (id
//! equals position; providers are never removed, retirement is a
//! flag). A lookup takes no lock and hands out a borrowed handle, so a
//! read's provider resolution touches no refcount and writes no shared
//! line; chain and placement walks read the published prefix, and only
//! joins serialize, on a mutex. Placement is one rotation cursor over
//! the eligible providers, advanced atomically.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use blobseer_types::{BlobError, ProviderId, Result};
use parking_lot::Mutex;

use crate::provider::{DataProvider, ProviderStats};
use crate::store::{MemoryPageStore, PageStore};

/// Point-in-time membership census of the deployment; see
/// [`ProviderManager::membership`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MembershipCounts {
    /// Providers ever registered, including retired tombstones.
    pub registered: usize,
    /// Providers eligible for new page placement (online, not
    /// draining, not retired).
    pub active: usize,
    /// Providers currently draining (read-only, being evacuated).
    pub draining: usize,
    /// Providers retired by a completed drain (empty tombstones that
    /// only anchor replica-chain positions).
    pub retired: usize,
}

/// Slots in the registry's first segment; segment `s` holds
/// `FIRST << s`.
const FIRST: usize = 16;

/// Registry segments: room for about 2^32 providers.
const SEGMENTS: usize = 28;

/// The segment holding registry position `i`, and the slot within it.
fn segment_of(i: usize) -> (usize, usize) {
    let s = (i / FIRST + 1).ilog2() as usize;
    (s, i - FIRST * ((1 << s) - 1))
}

/// One registry segment: slots filled once, in position order.
type Segment = Box<[OnceLock<Arc<DataProvider>>]>;

/// The registry: an append-only table of providers, position = id.
/// Segments double in size and are never moved or freed, and a filled
/// slot never changes, so a reader needs no lock: it loads the
/// published length (Acquire, pairing with the appender's Release
/// store, which follows the slot's fill) and indexes. Appends serialize
/// on `append`.
struct Members {
    segments: [OnceLock<Segment>; SEGMENTS],
    len: AtomicUsize,
    append: Mutex<()>,
}

impl Members {
    fn new() -> Members {
        Members {
            segments: [const { OnceLock::new() }; SEGMENTS],
            len: AtomicUsize::new(0),
            append: Mutex::new(()),
        }
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// A filled slot at a position below a loaded length.
    fn at(&self, i: usize) -> &Arc<DataProvider> {
        let (s, slot) = segment_of(i);
        self.segments[s]
            .get()
            .and_then(|seg| seg[slot].get())
            .expect("a published position is filled before the length covers it")
    }

    fn get(&self, i: usize) -> Option<&Arc<DataProvider>> {
        (i < self.len()).then(|| self.at(i))
    }

    /// The published prefix, in registry order.
    fn iter(&self) -> impl Iterator<Item = &Arc<DataProvider>> {
        (0..self.len()).map(|i| self.at(i))
    }

    /// Append a provider over `store` with the next id.
    fn push(&self, store: Arc<dyn PageStore>) -> ProviderId {
        let _append = self.append.lock();
        let i = self.len.load(Ordering::Relaxed);
        let id = ProviderId(u32::try_from(i).expect("provider ids fit in u32"));
        let (s, slot) = segment_of(i);
        assert!(s < SEGMENTS, "provider registry full");
        let seg =
            self.segments[s].get_or_init(|| (0..FIRST << s).map(|_| OnceLock::new()).collect());
        let provider = Arc::new(DataProvider::new(id, store));
        assert!(seg[slot].set(provider).is_ok(), "position {i} appended twice");
        self.len.store(i + 1, Ordering::Release);
        id
    }
}

/// The provider manager: registry of data providers plus round-robin
/// placement. Providers may join dynamically ([`ProviderManager::add_provider`])
/// and leave via drain-then-retire, mirroring the paper's "new data
/// providers may dynamically join and leave the system".
///
/// **Retired providers stay in the registry as tombstones.** Every
/// replica chain and failover sequence is a pure function of registry
/// *positions* ([`Self::chain`]), so removing an entry would silently
/// remap every page's copies. Instead, retirement flags the provider
/// and the chain skips it; the position — and with it the determinism
/// of every chain — survives arbitrarily many membership changes.
/// Because nothing is ever removed, a provider's id is its position,
/// and [`Self::provider`] is an index into an append-only table: no
/// lock, no refcount.
pub struct ProviderManager {
    providers: Members,
    /// Rotation cursor of [`Self::allocate`]: the running count of
    /// pages placed. Relaxed is enough: it publishes no other data.
    next: AtomicUsize,
}

impl ProviderManager {
    /// Manager over `n` fresh in-memory providers.
    pub fn with_memory_providers(n: usize) -> Self {
        let stores = (0..n).map(|_| Arc::new(MemoryPageStore::new()) as Arc<dyn PageStore>);
        Self::new(stores.collect())
    }

    /// Manager over `stores`, joined in order: `stores[i]` becomes
    /// provider `i`.
    pub fn new(stores: Vec<Arc<dyn PageStore>>) -> Self {
        assert!(!stores.is_empty(), "at least one data provider required");
        let mgr = ProviderManager { providers: Members::new(), next: AtomicUsize::new(0) };
        for store in stores {
            mgr.add_provider(store);
        }
        mgr
    }

    /// Number of registered providers (tombstones included).
    pub fn provider_count(&self) -> usize {
        self.providers.len()
    }

    /// Census of the membership states; the source of the
    /// `blobseer_providers_*` gauges.
    pub fn membership(&self) -> MembershipCounts {
        let mut counts = MembershipCounts::default();
        for p in self.providers.iter() {
            counts.registered += 1;
            if p.is_retired() {
                counts.retired += 1;
            } else if p.is_draining() {
                counts.draining += 1;
            } else if p.is_available() {
                counts.active += 1;
            }
        }
        counts
    }

    /// Register a brand-new provider over `store`, at the end of the
    /// registry with the next id, so every existing replica chain is
    /// unchanged except where it wraps past the former last position —
    /// exactly the chains the repairer already reconciles. Returns the
    /// new member's id; it is immediately eligible for placement and
    /// failover.
    pub fn add_provider(&self, store: Arc<dyn PageStore>) -> ProviderId {
        self.providers.push(store)
    }

    /// Every registered provider still in service (retired tombstones
    /// excluded), in registry order — the sweep list of the orphan
    /// scrubber and repairer (which must visit *all* serving providers,
    /// available or not, and report the offline ones as skipped).
    pub fn all_providers(&self) -> Vec<Arc<DataProvider>> {
        self.providers.iter().filter(|p| !p.is_retired()).cloned().collect()
    }

    /// Look up a provider by id: an index into the append-only
    /// registry, taking no lock and no reference count. Resolves
    /// retired tombstones too — readers probe a retired primary (and
    /// take the miss) rather than failing the chain walk.
    pub fn provider(&self, id: ProviderId) -> Result<&Arc<DataProvider>> {
        self.providers.get(id.raw() as usize).ok_or(BlobError::ProviderNotFound(id))
    }

    /// Choose `n` providers to receive `n` new pages (paper Algorithm 2
    /// line 2: "PP ← the list of n page providers"), round robin over
    /// the eligible providers in registry order — the paper's "even
    /// distribution of pages among providers" (§3.1). Providers repeat
    /// when `n` exceeds the deployment size. Failed, draining and
    /// retired providers are skipped; errors when no provider is
    /// eligible. Concurrent allocations each reserve their `n` slots of
    /// the rotation with one `fetch_add`, so none is lost or dealt
    /// twice.
    pub fn allocate(&self, n: usize) -> Result<Vec<ProviderId>> {
        let eligible: Vec<&Arc<DataProvider>> = self
            .providers
            .iter()
            .filter(|p| p.is_available() && !p.is_draining() && !p.is_retired())
            .collect();
        let count = eligible.len();
        if count == 0 {
            return Err(BlobError::NoAvailableProvider);
        }
        let start = self.next.fetch_add(n, Ordering::Relaxed);
        Ok((0..n).map(|i| eligible[start.wrapping_add(i) % count].id()).collect())
    }

    /// Every provider that may hold a copy of a page whose leaf names
    /// `primary`, in the order copies are placed and looked for: the
    /// primary if it still serves, then every serving successor in
    /// registry order (wrapping), with `retiring` skipped as if it had
    /// already retired. The first `replication` entries are the page's
    /// **chain** — where its copies belong — and the rest its
    /// **fallbacks**, where write-path failover re-places a copy a
    /// chain member refused. Writers, readers, the repairer, the drain
    /// and GC all derive the same sequence from the leaf's primary
    /// alone, so neither replicas nor failover need extra metadata.
    ///
    /// The walk ignores availability, so chains are stable across
    /// failures and recoveries; only **retirement** (a completed drain)
    /// re-derives them, identically for every caller. A retired primary
    /// still anchors its position: its chain starts at the first
    /// serving successor. Passing the drain's victim as `retiring`
    /// yields the chain as it will read once the victim retires, so the
    /// drain can fill copies before readers see that chain.
    ///
    /// The walk is lazy: a caller that takes one entry visits one slot.
    pub fn chain(
        &self,
        primary: ProviderId,
        retiring: Option<ProviderId>,
    ) -> Result<impl Iterator<Item = ProviderId> + '_> {
        let n = self.providers.len();
        let start = primary.raw() as usize;
        if start >= n {
            return Err(BlobError::ProviderNotFound(primary));
        }
        Ok((start..start + n)
            .map(move |i| self.providers.at(i % n))
            .filter(move |p| !p.is_retired() && Some(p.id()) != retiring)
            .map(|p| p.id()))
    }

    /// Stats snapshot for every serving provider.
    pub fn stats(&self) -> Vec<ProviderStats> {
        self.providers.iter().filter(|p| !p.is_retired()).map(|p| p.stats()).collect()
    }

    /// Total payload bytes stored across all providers — the physical
    /// footprint used by the storage-efficiency experiment (E3).
    pub fn total_stored_bytes(&self) -> u64 {
        self.providers.iter().map(|p| p.stored_bytes()).sum()
    }

    /// Lifetime payload bytes re-hashed by verifying fetches, summed
    /// over every provider ever registered (retired tombstones keep
    /// their counts, so the total never steps backwards).
    pub fn total_bytes_verified(&self) -> u64 {
        self.providers.iter().map(|p| p.bytes_verified()).sum()
    }

    /// Total pages stored across all providers.
    pub fn total_pages(&self) -> usize {
        self.providers.iter().map(|p| p.page_count()).sum()
    }
}

impl std::fmt::Debug for ProviderManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProviderManager").field("providers", &self.provider_count()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sealed::SealedPage;
    use blobseer_types::PageId;
    use bytes::Bytes;

    fn chain(mgr: &ProviderManager, primary: u32, retiring: Option<u32>) -> Vec<ProviderId> {
        mgr.chain(ProviderId(primary), retiring.map(ProviderId)).unwrap().collect()
    }

    fn replica_chain(mgr: &ProviderManager, primary: u32, replication: usize) -> Vec<ProviderId> {
        chain(mgr, primary, None).into_iter().take(replication).collect()
    }

    fn ids(ids: &[u32]) -> Vec<ProviderId> {
        ids.iter().map(|&i| ProviderId(i)).collect()
    }

    fn fill(mgr: &ProviderManager, pages: usize, page_bytes: usize) {
        let ids = mgr.allocate(pages).unwrap();
        for (i, id) in ids.iter().enumerate() {
            mgr.provider(*id)
                .unwrap()
                .store_page(PageId(i as u128), SealedPage::seal(Bytes::from(vec![0u8; page_bytes])))
                .unwrap();
        }
    }

    #[test]
    fn round_robin_is_perfectly_even() {
        let mgr = ProviderManager::with_memory_providers(7);
        let ids = mgr.allocate(70).unwrap();
        let mut counts = vec![0usize; 7];
        for id in ids {
            counts[id.raw() as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 10), "{counts:?}");
    }

    #[test]
    fn round_robin_continues_across_allocations() {
        let mgr = ProviderManager::with_memory_providers(4);
        let a = mgr.allocate(3).unwrap();
        let b = mgr.allocate(3).unwrap();
        assert_eq!(a, vec![ProviderId(0), ProviderId(1), ProviderId(2)]);
        assert_eq!(b, vec![ProviderId(3), ProviderId(0), ProviderId(1)]);
    }

    #[test]
    fn concurrent_allocations_lose_no_reservation() {
        // 4 threads × 250 allocations × 3 pages = 3000 picks over 5
        // providers: an exact rotation gives each one 600.
        let mgr = ProviderManager::with_memory_providers(5);
        let start = std::sync::Barrier::new(4);
        let counts: Vec<usize> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        let mut counts = vec![0usize; 5];
                        for _ in 0..250 {
                            for id in mgr.allocate(3).unwrap() {
                                counts[id.raw() as usize] += 1;
                            }
                        }
                        counts
                    })
                })
                .collect();
            let per_thread: Vec<Vec<usize>> =
                workers.into_iter().map(|w| w.join().unwrap()).collect();
            (0..5).map(|p| per_thread.iter().map(|c| c[p]).sum()).collect()
        });
        assert_eq!(counts, vec![600; 5]);
    }

    #[test]
    fn allocate_more_than_providers_repeats() {
        let mgr = ProviderManager::with_memory_providers(3);
        let ids = mgr.allocate(10).unwrap();
        assert_eq!(ids.len(), 10);
    }

    #[test]
    fn register_grows_deployment() {
        let mgr = ProviderManager::with_memory_providers(2);
        assert_eq!(mgr.provider_count(), 2);
        assert_eq!(mgr.add_provider(Arc::new(MemoryPageStore::new())), ProviderId(2));
        assert_eq!(mgr.provider_count(), 3);
        assert!(mgr.provider(ProviderId(2)).is_ok());
    }

    #[test]
    fn registry_grows_past_its_first_segments() {
        let mgr = ProviderManager::with_memory_providers(3);
        for i in 3..200u32 {
            assert_eq!(mgr.add_provider(Arc::new(MemoryPageStore::new())), ProviderId(i));
        }
        for i in 0..200u32 {
            assert_eq!(mgr.provider(ProviderId(i)).unwrap().id(), ProviderId(i));
        }
        assert!(mgr.provider(ProviderId(200)).is_err());
        assert_eq!(replica_chain(&mgr, 199, 3), ids(&[199, 0, 1]));
        assert_eq!(mgr.membership().registered, 200);
    }

    #[test]
    fn add_provider_assigns_next_free_id_and_is_eligible() {
        let mgr = ProviderManager::with_memory_providers(2);
        let id = mgr.add_provider(Arc::new(MemoryPageStore::new()));
        assert_eq!(id, ProviderId(2));
        assert_eq!(mgr.membership().active, 3);
        // Immediately eligible: a full rotation includes the newcomer.
        assert!(mgr.allocate(3).unwrap().contains(&id));
        // Ids are never reused, even past a retirement.
        mgr.provider(ProviderId(2)).unwrap().retire();
        assert_eq!(mgr.add_provider(Arc::new(MemoryPageStore::new())), ProviderId(3));
    }

    #[test]
    fn unknown_provider_is_error() {
        let mgr = ProviderManager::with_memory_providers(2);
        assert!(matches!(
            mgr.provider(ProviderId(9)),
            Err(BlobError::ProviderNotFound(ProviderId(9)))
        ));
    }

    #[test]
    fn allocate_skips_failed_providers() {
        let mgr = ProviderManager::with_memory_providers(4);
        mgr.provider(ProviderId(1)).unwrap().fail();
        let ids = mgr.allocate(30).unwrap();
        assert!(!ids.contains(&ProviderId(1)), "{ids:?}");
        assert!(ids.contains(&ProviderId(0)));
        mgr.provider(ProviderId(1)).unwrap().recover();
        assert!(mgr.allocate(30).unwrap().contains(&ProviderId(1)));
    }

    #[test]
    fn allocate_skips_draining_and_retired_providers() {
        let mgr = ProviderManager::with_memory_providers(3);
        mgr.provider(ProviderId(0)).unwrap().begin_drain();
        mgr.provider(ProviderId(2)).unwrap().retire();
        let ids = mgr.allocate(10).unwrap();
        assert!(ids.iter().all(|&id| id == ProviderId(1)), "{ids:?}");
        let counts = mgr.membership();
        assert_eq!(
            (counts.registered, counts.active, counts.draining, counts.retired),
            (3, 1, 1, 1)
        );
    }

    #[test]
    fn allocate_fails_when_all_providers_down() {
        let mgr = ProviderManager::with_memory_providers(2);
        mgr.provider(ProviderId(0)).unwrap().fail();
        mgr.provider(ProviderId(1)).unwrap().fail();
        assert!(matches!(mgr.allocate(1), Err(BlobError::NoAvailableProvider)));
    }

    #[test]
    fn replica_chain_is_successors_in_registry_order() {
        let mgr = ProviderManager::with_memory_providers(5);
        assert_eq!(replica_chain(&mgr, 3, 3), ids(&[3, 4, 0]));
        assert_eq!(replica_chain(&mgr, 0, 1), ids(&[0]));
        assert!(mgr.chain(ProviderId(9), None).is_err());
        // Stable across failures: the chain ignores availability.
        mgr.provider(ProviderId(4)).unwrap().fail();
        assert_eq!(replica_chain(&mgr, 3, 2), ids(&[3, 4]));
    }

    #[test]
    fn fallback_sequence_continues_past_the_chain() {
        let mgr = ProviderManager::with_memory_providers(5);
        // Chain of prov#3 at replication 2 is [3, 4]; fallbacks are
        // the remaining providers in registry order.
        let fallbacks: Vec<_> = mgr.chain(ProviderId(3), None).unwrap().skip(2).collect();
        assert_eq!(fallbacks, ids(&[0, 1, 2]));
        // Chain + fallbacks partition the deployment.
        assert_eq!(chain(&mgr, 0, None), ids(&[0, 1, 2, 3, 4]));
        assert!(mgr.chain(ProviderId(9), None).is_err());
    }

    #[test]
    fn retirement_rederives_chains_deterministically() {
        let mgr = ProviderManager::with_memory_providers(5);
        // Before: chain of prov#3 at r=2 is [3, 4].
        assert_eq!(replica_chain(&mgr, 3, 2), ids(&[3, 4]));
        // The drain previews the post-retirement chain …
        assert_eq!(chain(&mgr, 3, Some(4)), ids(&[3, 0, 1, 2]));
        assert_eq!(chain(&mgr, 4, Some(4)), ids(&[0, 1, 2, 3]));
        // … and after retiring #4, every derivation agrees with it.
        mgr.provider(ProviderId(4)).unwrap().retire();
        assert_eq!(chain(&mgr, 3, None), ids(&[3, 0, 1, 2]));
        // A retired *primary* still anchors its position: the chain
        // starts at the first live successor.
        assert_eq!(replica_chain(&mgr, 4, 2), ids(&[0, 1]));
        // Tombstones resolve for point lookups but leave the sweep list.
        assert!(mgr.provider(ProviderId(4)).is_ok());
        assert_eq!(mgr.all_providers().len(), 4);
        assert_eq!(mgr.stats().len(), 4);
    }

    #[test]
    fn totals_aggregate() {
        let mgr = ProviderManager::with_memory_providers(4);
        fill(&mgr, 8, 128);
        assert_eq!(mgr.total_pages(), 8);
        assert_eq!(mgr.total_stored_bytes(), 8 * 128);
    }
}
