//! The provider manager and its page-to-provider allocation strategies.
//!
//! The registry is an append-only table indexed by provider id (id
//! equals position; providers are never removed, retirement is a
//! flag). A lookup takes no lock and hands out a borrowed handle, so a
//! read's provider resolution touches no refcount and writes no shared
//! line; chain and placement walks read the published prefix, and only
//! joins serialize, on a mutex.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use blobseer_types::{BlobError, ProviderId, Result};
use parking_lot::{Mutex, RwLock};

use crate::placement::{
    LeastLoadedPolicy, PlacementCandidate, PlacementPolicy, PowerOfTwoPolicy, RandomPolicy,
    RoundRobinPolicy,
};
use crate::provider::{DataProvider, ProviderStats};
use crate::store::{MemoryPageStore, PageStore};

/// Page-to-provider placement policy (paper §3.1: "a strategy aiming at
/// ensuring an even distribution of pages among providers"; §4.3 calls
/// the strategy "central" to minimising serialization conflicts).
///
/// The enum names the built-in policies; at runtime the manager holds
/// the policy as a swappable trait object ([`PlacementPolicy`]), so a
/// deployment can switch strategies live via
/// [`ProviderManager::set_placement`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocationStrategy {
    /// Deterministic rotation — the baseline "even distribution". Also
    /// what the figure simulations assume, so placement there matches
    /// the real engine exactly.
    RoundRobin,
    /// Uniform random placement (seeded for reproducibility).
    Random,
    /// Always pick the providers currently storing the fewest bytes.
    LeastLoaded,
    /// Two random candidates, keep the less loaded (the classic
    /// power-of-two-choices load balancer).
    PowerOfTwoChoices,
}

impl AllocationStrategy {
    /// Instantiate the built-in [`PlacementPolicy`] this name stands
    /// for. Each call returns a fresh policy object with fresh state
    /// (rotation cursor at zero, RNG at the deployment's fixed seed).
    pub fn policy(self) -> Arc<dyn PlacementPolicy> {
        match self {
            AllocationStrategy::RoundRobin => Arc::new(RoundRobinPolicy::default()),
            AllocationStrategy::Random => Arc::new(RandomPolicy::new()),
            AllocationStrategy::LeastLoaded => Arc::new(LeastLoadedPolicy),
            AllocationStrategy::PowerOfTwoChoices => Arc::new(PowerOfTwoPolicy::new()),
        }
    }
}

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

    /// Append the provider `make` builds for the next id.
    fn push(&self, make: impl FnOnce(ProviderId) -> Arc<DataProvider>) -> ProviderId {
        let _append = self.append.lock();
        let i = self.len.load(Ordering::Relaxed);
        let id = ProviderId(u32::try_from(i).expect("provider ids fit in u32"));
        let (s, slot) = segment_of(i);
        assert!(s < SEGMENTS, "provider registry full");
        let seg =
            self.segments[s].get_or_init(|| (0..FIRST << s).map(|_| OnceLock::new()).collect());
        assert!(seg[slot].set(make(id)).is_ok(), "position {i} appended twice");
        self.len.store(i + 1, Ordering::Release);
        id
    }
}

/// The provider manager: registry of data providers plus the placement
/// policy. Providers may join dynamically ([`ProviderManager::add_provider`])
/// and leave via drain-then-retire, mirroring the paper's "new data
/// providers may dynamically join and leave the system".
///
/// **Retired providers stay in the registry as tombstones.** Every
/// replica chain and failover sequence is a pure function of registry
/// *positions*, so removing an entry would silently remap every page's
/// copies. Instead, retirement flags the provider and every walk skips
/// it; the position — and with it the determinism of
/// [`Self::replicas_of`]/[`Self::fallbacks_of`] — survives arbitrarily
/// many membership changes. Because nothing is ever removed, a
/// provider's id is its position, and [`Self::provider`] is an index
/// into an append-only table: no lock, no refcount.
pub struct ProviderManager {
    providers: Members,
    policy: RwLock<Arc<dyn PlacementPolicy>>,
}

impl ProviderManager {
    /// Manager over `n` fresh in-memory providers.
    pub fn with_memory_providers(n: usize, strategy: AllocationStrategy) -> Self {
        let providers = (0..n)
            .map(|i| {
                Arc::new(DataProvider::new(ProviderId(i as u32), Arc::new(MemoryPageStore::new())))
            })
            .collect();
        Self::new(providers, strategy)
    }

    /// Manager over pre-built providers. Panics unless
    /// `providers[i].id()` is `ProviderId(i)` for every `i`: ids are
    /// registry positions.
    pub fn new(providers: Vec<Arc<DataProvider>>, strategy: AllocationStrategy) -> Self {
        assert!(!providers.is_empty(), "at least one data provider required");
        let members = Members::new();
        for (i, provider) in providers.into_iter().enumerate() {
            assert_eq!(provider.id(), ProviderId(i as u32), "providers[{i}] has the wrong id");
            members.push(|_| provider);
        }
        ProviderManager { providers: members, policy: RwLock::new(strategy.policy()) }
    }

    /// The active placement policy's name.
    pub fn placement_name(&self) -> &'static str {
        self.policy.read().name()
    }

    /// Hot-swap the placement policy to a built-in strategy. Only new
    /// allocations are affected; every already-stored page keeps its
    /// location and its registry-order replica chain.
    pub fn set_placement(&self, strategy: AllocationStrategy) {
        self.set_placement_policy(strategy.policy());
    }

    /// Hot-swap to an arbitrary [`PlacementPolicy`] implementation.
    pub fn set_placement_policy(&self, policy: Arc<dyn PlacementPolicy>) {
        *self.policy.write() = policy;
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
        self.providers.push(|id| Arc::new(DataProvider::new(id, store)))
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
    /// line 2: "PP ← the list of n page providers"). Providers repeat
    /// when `n` exceeds the deployment size. Failed, draining and
    /// retired providers are skipped; errors when no provider is
    /// eligible.
    pub fn allocate(&self, n: usize) -> Result<Vec<ProviderId>> {
        let candidates: Vec<PlacementCandidate> = self
            .providers
            .iter()
            .filter(|p| p.is_available() && !p.is_draining() && !p.is_retired())
            .map(|p| PlacementCandidate { id: p.id(), stored_bytes: p.stored_bytes() })
            .collect();
        if candidates.is_empty() {
            return Err(BlobError::NoAvailableProvider);
        }
        let policy = Arc::clone(&self.policy.read());
        let picks = policy.place(&candidates, n);
        if picks.len() != n {
            return Err(BlobError::Internal(format!(
                "placement policy '{}' returned {} placements for {} pages",
                policy.name(),
                picks.len(),
                n
            )));
        }
        Ok(picks.into_iter().map(|i| candidates[i % candidates.len()].id).collect())
    }

    /// The live successors of `primary` in registry order (wrapping,
    /// retired tombstones skipped, `exclude` treated as already
    /// retired), plus whether the primary itself still serves. The one
    /// walk every chain derivation shares.
    fn walk(
        &self,
        primary: ProviderId,
        exclude: Option<ProviderId>,
    ) -> Result<(bool, Vec<ProviderId>)> {
        let n = self.providers.len();
        let idx = primary.raw() as usize;
        if idx >= n {
            return Err(BlobError::ProviderNotFound(primary));
        }
        let serving = |p: &Arc<DataProvider>| !p.is_retired() && Some(p.id()) != exclude;
        let primary_serving = serving(self.providers.at(idx));
        let succ = (1..n)
            .map(|i| self.providers.at((idx + i) % n))
            .filter(|p| serving(p))
            .map(|p| p.id())
            .collect();
        Ok((primary_serving, succ))
    }

    /// The deterministic replica chain of a page whose primary copy is
    /// on `primary`: the `replicas − 1` serving providers that follow
    /// it in registry order. Deriving replica locations from the
    /// primary keeps the metadata tree unchanged (leaves name one
    /// provider) — readers recompute the same chain when the primary is
    /// down.
    ///
    /// The chain is computed over all serving providers, available or
    /// not, so it is stable across failures and recoveries; only
    /// **retirement** (a completed drain) re-derives it, identically
    /// for every reader, writer and repairer. Without replication
    /// (`replicas == 1`) the answer is empty whatever the registry
    /// holds, and no walk is made — this sits on every page store.
    pub fn replicas_of(&self, primary: ProviderId, replicas: usize) -> Result<Vec<ProviderId>> {
        assert!(replicas >= 1);
        if replicas == 1 {
            return Ok(Vec::new());
        }
        let (_, mut succ) = self.walk(primary, None)?;
        succ.truncate(replicas - 1);
        Ok(succ)
    }

    /// The deterministic **failover sequence** of a page: every serving
    /// provider *beyond* the replica chain, in registry order. When a
    /// chain member rejects a store (or a read misses on the whole
    /// chain), the next copy lives on the first of these that is alive
    /// — writers and readers recompute the identical sequence from the
    /// leaf's primary alone, so failover placement needs no extra
    /// metadata, exactly like the chain itself.
    pub fn fallbacks_of(&self, primary: ProviderId, replicas: usize) -> Result<Vec<ProviderId>> {
        assert!(replicas >= 1);
        let (_, succ) = self.walk(primary, None)?;
        Ok(succ.into_iter().skip(replicas - 1).collect())
    }

    /// Where a page's copies are **expected to live**: the first
    /// `replicas` serving providers at-or-after `primary` in registry
    /// order. With the primary still serving this is `primary` plus
    /// [`Self::replicas_of`]; once the primary retired, its position
    /// still anchors the walk but the chain starts at the first live
    /// successor. The repairer's and GC's notion of the full chain.
    pub fn chain_of(&self, primary: ProviderId, replicas: usize) -> Result<Vec<ProviderId>> {
        assert!(replicas >= 1);
        let (primary_serving, succ) = self.walk(primary, None)?;
        let mut chain = Vec::with_capacity(replicas);
        if primary_serving {
            chain.push(primary);
        }
        chain.extend(succ.into_iter().take(replicas - chain.len()));
        Ok(chain)
    }

    /// [`Self::chain_of`] as it will read **after** `victim` retires:
    /// the migration targets of a drain. Computing the post-retirement
    /// chain while the victim still serves is what lets the drain fill
    /// copies first and only then retire — readers never observe a
    /// chain whose copies have not been placed yet.
    pub fn chain_after_retire(
        &self,
        primary: ProviderId,
        replicas: usize,
        victim: ProviderId,
    ) -> Result<Vec<ProviderId>> {
        assert!(replicas >= 1);
        let (primary_serving, succ) = self.walk(primary, Some(victim))?;
        let mut chain = Vec::with_capacity(replicas);
        if primary_serving {
            chain.push(primary);
        }
        chain.extend(succ.into_iter().take(replicas - chain.len()));
        Ok(chain)
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
        f.debug_struct("ProviderManager")
            .field("providers", &self.provider_count())
            .field("placement", &self.placement_name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sealed::SealedPage;
    use blobseer_types::PageId;
    use bytes::Bytes;

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
        let mgr = ProviderManager::with_memory_providers(7, AllocationStrategy::RoundRobin);
        let ids = mgr.allocate(70).unwrap();
        let mut counts = vec![0usize; 7];
        for id in ids {
            counts[id.raw() as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 10), "{counts:?}");
    }

    #[test]
    fn round_robin_continues_across_allocations() {
        let mgr = ProviderManager::with_memory_providers(4, AllocationStrategy::RoundRobin);
        let a = mgr.allocate(3).unwrap();
        let b = mgr.allocate(3).unwrap();
        assert_eq!(a, vec![ProviderId(0), ProviderId(1), ProviderId(2)]);
        assert_eq!(b, vec![ProviderId(3), ProviderId(0), ProviderId(1)]);
    }

    #[test]
    fn random_covers_all_providers_eventually() {
        let mgr = ProviderManager::with_memory_providers(8, AllocationStrategy::Random);
        let ids = mgr.allocate(1000).unwrap();
        let mut seen = [false; 8];
        for id in &ids {
            seen[id.raw() as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn least_loaded_prefers_empty_providers() {
        let mgr = ProviderManager::with_memory_providers(3, AllocationStrategy::LeastLoaded);
        // Pre-load provider 0 heavily.
        mgr.provider(ProviderId(0))
            .unwrap()
            .store_page(PageId(999), SealedPage::seal(Bytes::from(vec![0u8; 10_000])))
            .unwrap();
        let ids = mgr.allocate(2).unwrap();
        assert!(!ids.contains(&ProviderId(0)), "{ids:?}");
    }

    #[test]
    fn power_of_two_choices_balances() {
        let mgr = ProviderManager::with_memory_providers(10, AllocationStrategy::PowerOfTwoChoices);
        for round in 0..100 {
            let ids = mgr.allocate(10).unwrap();
            for (i, id) in ids.iter().enumerate() {
                mgr.provider(*id)
                    .unwrap()
                    .store_page(
                        PageId((round * 100 + i) as u128),
                        SealedPage::seal(Bytes::from(vec![0u8; 100])),
                    )
                    .unwrap();
            }
        }
        let stats = mgr.stats();
        let max = stats.iter().map(|s| s.pages).max().unwrap();
        let min = stats.iter().map(|s| s.pages).min().unwrap();
        // p2c keeps the gap tight: no provider more than ~2x any other.
        assert!(max <= min * 2 + 10, "max={max} min={min}");
    }

    #[test]
    fn allocate_more_than_providers_repeats() {
        let mgr = ProviderManager::with_memory_providers(3, AllocationStrategy::RoundRobin);
        let ids = mgr.allocate(10).unwrap();
        assert_eq!(ids.len(), 10);
    }

    #[test]
    fn register_grows_deployment() {
        let mgr = ProviderManager::with_memory_providers(2, AllocationStrategy::RoundRobin);
        assert_eq!(mgr.provider_count(), 2);
        assert_eq!(mgr.add_provider(Arc::new(MemoryPageStore::new())), ProviderId(2));
        assert_eq!(mgr.provider_count(), 3);
        assert!(mgr.provider(ProviderId(2)).is_ok());
    }

    #[test]
    fn registry_grows_past_its_first_segments() {
        let mgr = ProviderManager::with_memory_providers(3, AllocationStrategy::RoundRobin);
        for i in 3..200u32 {
            assert_eq!(mgr.add_provider(Arc::new(MemoryPageStore::new())), ProviderId(i));
        }
        for i in 0..200u32 {
            assert_eq!(mgr.provider(ProviderId(i)).unwrap().id(), ProviderId(i));
        }
        assert!(mgr.provider(ProviderId(200)).is_err());
        assert_eq!(
            mgr.replicas_of(ProviderId(199), 3).unwrap(),
            vec![ProviderId(0), ProviderId(1)]
        );
        assert_eq!(mgr.membership().registered, 200);
    }

    #[test]
    #[should_panic(expected = "providers[1] has the wrong id")]
    fn ids_must_be_registry_positions() {
        let provider =
            |i| Arc::new(DataProvider::new(ProviderId(i), Arc::new(MemoryPageStore::new())));
        ProviderManager::new(vec![provider(0), provider(2)], AllocationStrategy::RoundRobin);
    }

    #[test]
    fn add_provider_assigns_next_free_id_and_is_eligible() {
        let mgr = ProviderManager::with_memory_providers(2, AllocationStrategy::RoundRobin);
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
        let mgr = ProviderManager::with_memory_providers(2, AllocationStrategy::RoundRobin);
        assert!(matches!(
            mgr.provider(ProviderId(9)),
            Err(BlobError::ProviderNotFound(ProviderId(9)))
        ));
    }

    #[test]
    fn allocate_skips_failed_providers() {
        let mgr = ProviderManager::with_memory_providers(4, AllocationStrategy::RoundRobin);
        mgr.provider(ProviderId(1)).unwrap().fail();
        let ids = mgr.allocate(30).unwrap();
        assert!(!ids.contains(&ProviderId(1)), "{ids:?}");
        assert!(ids.contains(&ProviderId(0)));
        mgr.provider(ProviderId(1)).unwrap().recover();
        assert!(mgr.allocate(30).unwrap().contains(&ProviderId(1)));
    }

    #[test]
    fn allocate_skips_draining_and_retired_providers() {
        let mgr = ProviderManager::with_memory_providers(3, AllocationStrategy::RoundRobin);
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
        let mgr = ProviderManager::with_memory_providers(2, AllocationStrategy::Random);
        mgr.provider(ProviderId(0)).unwrap().fail();
        mgr.provider(ProviderId(1)).unwrap().fail();
        assert!(matches!(mgr.allocate(1), Err(BlobError::NoAvailableProvider)));
    }

    #[test]
    fn set_placement_swaps_live() {
        let mgr = ProviderManager::with_memory_providers(3, AllocationStrategy::RoundRobin);
        assert_eq!(mgr.placement_name(), "round_robin");
        // Load provider 0; least-loaded must now avoid it.
        mgr.provider(ProviderId(0))
            .unwrap()
            .store_page(PageId(1), SealedPage::seal(Bytes::from(vec![0u8; 4096])))
            .unwrap();
        mgr.set_placement(AllocationStrategy::LeastLoaded);
        assert_eq!(mgr.placement_name(), "least_loaded");
        assert!(!mgr.allocate(2).unwrap().contains(&ProviderId(0)));
    }

    #[test]
    fn replica_chain_is_successors_in_registry_order() {
        let mgr = ProviderManager::with_memory_providers(5, AllocationStrategy::RoundRobin);
        assert_eq!(mgr.replicas_of(ProviderId(3), 3).unwrap(), vec![ProviderId(4), ProviderId(0)]);
        assert!(mgr.replicas_of(ProviderId(0), 1).unwrap().is_empty());
        assert!(mgr.replicas_of(ProviderId(9), 2).is_err());
        // Stable across failures: the chain ignores availability.
        mgr.provider(ProviderId(4)).unwrap().fail();
        assert_eq!(mgr.replicas_of(ProviderId(3), 2).unwrap(), vec![ProviderId(4)]);
    }

    #[test]
    fn fallback_sequence_continues_past_the_chain() {
        let mgr = ProviderManager::with_memory_providers(5, AllocationStrategy::RoundRobin);
        // Chain of prov#3 at replication 2 is [prov#4]; fallbacks are
        // the remaining providers in registry order.
        assert_eq!(
            mgr.fallbacks_of(ProviderId(3), 2).unwrap(),
            vec![ProviderId(0), ProviderId(1), ProviderId(2)]
        );
        // Chain + fallbacks partition the deployment.
        assert!(mgr.fallbacks_of(ProviderId(0), 5).unwrap().is_empty());
        assert!(mgr.fallbacks_of(ProviderId(9), 2).is_err());
    }

    #[test]
    fn retirement_rederives_chains_deterministically() {
        let mgr = ProviderManager::with_memory_providers(5, AllocationStrategy::RoundRobin);
        // Before: chain of prov#3 at r=2 is [3, 4].
        assert_eq!(mgr.chain_of(ProviderId(3), 2).unwrap(), vec![ProviderId(3), ProviderId(4)]);
        // The drain previews the post-retirement chain …
        assert_eq!(
            mgr.chain_after_retire(ProviderId(3), 2, ProviderId(4)).unwrap(),
            vec![ProviderId(3), ProviderId(0)]
        );
        // … and after retiring #4, every derivation agrees with it.
        mgr.provider(ProviderId(4)).unwrap().retire();
        assert_eq!(mgr.chain_of(ProviderId(3), 2).unwrap(), vec![ProviderId(3), ProviderId(0)]);
        assert_eq!(mgr.replicas_of(ProviderId(3), 2).unwrap(), vec![ProviderId(0)]);
        assert_eq!(mgr.fallbacks_of(ProviderId(3), 2).unwrap(), vec![ProviderId(1), ProviderId(2)]);
        // A retired *primary* still anchors its position: the chain
        // starts at the first live successor.
        assert_eq!(mgr.chain_of(ProviderId(4), 2).unwrap(), vec![ProviderId(0), ProviderId(1)]);
        assert_eq!(mgr.replicas_of(ProviderId(4), 2).unwrap(), vec![ProviderId(0)]);
        // Tombstones resolve for point lookups but leave the sweep list.
        assert!(mgr.provider(ProviderId(4)).is_ok());
        assert_eq!(mgr.all_providers().len(), 4);
        assert_eq!(mgr.stats().len(), 4);
    }

    #[test]
    fn totals_aggregate() {
        let mgr = ProviderManager::with_memory_providers(4, AllocationStrategy::RoundRobin);
        fill(&mgr, 8, 128);
        assert_eq!(mgr.total_pages(), 8);
        assert_eq!(mgr.total_stored_bytes(), 8 * 128);
    }
}
