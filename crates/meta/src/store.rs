//! Typed facade over the DHT for tree nodes: one slab per update.
//!
//! ## Locking
//!
//! An update's nodes live in one slab of `blobseer_dht::Slabs`: a run
//! of write-once slots in [`SlabLayout`] order behind one header cell
//! per (blob, version). `build_meta` reserves the slab; a store is one
//! header probe, the slot fills (each a CAS from empty) and one fence
//! and waiter check; a fetch is a header probe — or a hit in the
//! descent's one-entry header memo ([`crate::TreeReader`]) — the rank
//! arithmetic and a validated slot read. None of them takes a lock.
//! Reservations and the whole-store visits (`for_each_leaf`,
//! `sweep_retired`) take the header's bucket mutex; a blocked
//! `get_wait` parks under the bucket's wait mutex.

use std::cell::Cell;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use blobseer_dht::{CellKey, DhtError, DhtStats, Slab, Slabs};
use blobseer_types::{BlobError, BlobId, NodePos, PageId, PageRange, ProviderId, Result, Version};
use parking_lot::RwLock;

use crate::node::{NodeKey, TreeNode};
use crate::plan::SlabLayout;

/// The between-slices callback of a sliced blocking wait; see
/// [`MetaStore::set_self_help`].
pub type SelfHelpHook = Arc<dyn Fn() + Send + Sync>;

/// A descent's one-entry memo: the header of the version it fetched
/// from last, which the next node on the path often shares.
pub(crate) type Memo = Cell<Option<((u64, u64), Slab<SlabLayout>)>>;

/// Slice size of a blocking wait: the self-help hook runs after every
/// slice that expires without the node appearing, so a reader parked on
/// a dead writer's node recovers in about this long.
const WAIT_SLICE: Duration = Duration::from_millis(250);

/// The slab key of a node: its blob and version.
fn slab_key(key: &NodeKey) -> (u64, u64) {
    (key.blob.0, key.version.0)
}

/// The metadata provider: tree nodes distributed over DHT buckets, one
/// slab per update.
///
/// `get` is non-blocking and suits reads of *published* versions (whose
/// trees are complete by definition); since the read path is lock-free
/// (a validated read of a write-once slot), concurrent readers of the
/// same hot node (every reader of a snapshot fetches the same root) do
/// not serialize on the metadata provider. `get_wait` blocks until the
/// node appears — the mechanism by which an operation depending on a
/// lower, still-in-flight version waits for its writer (paper §4.2).
/// The wait is bounded by the configured timeout so a crashed writer
/// surfaces as a [`BlobError::Timeout`] instead of a hang.
pub struct MetaStore {
    slabs: Slabs<SlabLayout, TreeNode>,
    wait_timeout: Duration,
    /// Runs between wait slices with no DHT locks held; installed
    /// after construction because the engine it calls into owns this
    /// store (see [`MetaStore::set_self_help`]).
    self_help: RwLock<Option<SelfHelpHook>>,
}

impl MetaStore {
    /// Fresh store over `metadata_providers` DHT buckets.
    pub fn new(metadata_providers: usize, wait_timeout: Duration) -> Self {
        MetaStore {
            slabs: Slabs::new(metadata_providers),
            wait_timeout,
            self_help: RwLock::new(None),
        }
    }

    /// Install the self-help hook that runs between wait slices (every
    /// 250 ms of a blocked `get_wait`; see [`Slabs::wait`]).
    /// The engine hangs its lease sweeper here: a `get_wait` blocked on
    /// a dead writer's missing node then recovers in about one slice
    /// (sweep → abort → repair fills the node) instead of timing out.
    /// Installed post-construction — the hook closes over the engine,
    /// and the engine owns this store.
    pub fn set_self_help(&self, hook: SelfHelpHook) {
        *self.self_help.write() = Some(hook);
    }

    /// Reserve the slab of `blob`'s update `version` of pages `range`
    /// under the tree rooted at `root` ([`crate::update_plan`]'s
    /// arguments). Idempotent: the writer, its abort repair and a
    /// zombie all ask for the same layout and share the one slab.
    pub fn reserve(&self, blob: BlobId, version: Version, range: PageRange, root: NodePos) {
        self.slabs.reserve((blob.0, version.0), SlabLayout::new(range, root));
    }

    /// Store a tree node only if its slot is empty; returns `true` when
    /// this call filled it. [`MetaStore::put_all`] for one node.
    pub fn put_new(&self, key: NodeKey, node: TreeNode) -> bool {
        self.put_all(&[(key, node)]) == 1
    }

    /// Store the nodes of one update — `build_meta`'s output, whose
    /// slab it reserved — each only if its slot is empty: one header
    /// probe, the fills, then one fence and one waiter check. Returns
    /// the nodes this call filled. This is the only way a node enters
    /// the store, so a stored node is never replaced — what
    /// [`MetaStore::for_each_leaf`] relies on. Version-abort repair
    /// uses it to fill in the nodes a dead writer never stored
    /// **without** replacing the ones it did: nodes stay immutable once
    /// visible, so readers that already wove content from a dead
    /// writer's node remain consistent with the final tree, and a
    /// zombie's late fills lose. Parked `get_wait`ers wake only on a
    /// real fill.
    ///
    /// A node of a version with no reserved slab, or at a position its
    /// layout does not plan, is not stored (a debug assertion fails).
    pub fn put_all(&self, nodes: &[(NodeKey, TreeNode)]) -> usize {
        let Some((first, _)) = nodes.first() else { return 0 };
        let key = slab_key(first);
        let Some(slab) = self.slabs.slab(key) else {
            debug_assert!(false, "{first:?}: no slab reserved");
            return 0;
        };
        let ranked = nodes.iter().filter_map(|(k, node)| {
            debug_assert_eq!(slab_key(k), key, "one update, one slab");
            let rank = slab.layout.rank(k.pos);
            debug_assert!(rank.is_some(), "{k:?} outside {:?}", slab.layout);
            Some((rank?, *node))
        });
        self.slabs.store(key, &slab, ranked)
    }

    /// Fetch a node without blocking.
    pub fn get(&self, key: &NodeKey) -> Result<TreeNode> {
        self.fetch(key, &Memo::default(), false)
    }

    /// Fetch a node, waiting up to the configured timeout for an
    /// in-flight writer to store it; the self-help hook runs after
    /// every 250 ms spent waiting.
    pub fn get_wait(&self, key: &NodeKey) -> Result<TreeNode> {
        self.fetch(key, &Memo::default(), true)
    }

    /// The one fetch: the version's header from `memo` if it holds it,
    /// else a probe (remembered in `memo`), then the node's slot; on a
    /// miss, a `wait`ing fetch parks until the node is stored.
    pub(crate) fn fetch(&self, key: &NodeKey, memo: &Memo, wait: bool) -> Result<TreeNode> {
        let sk = slab_key(key);
        let slab = match memo.get() {
            Some((k, slab)) if k == sk => Some(slab),
            _ => {
                let slab = self.slabs.slab(sk);
                if let Some(slab) = slab {
                    memo.set(Some((sk, slab)));
                }
                slab
            }
        };
        let at = slab.as_ref().and_then(|s| Some((s, s.layout.rank(key.pos)?)));
        if let Some(node) = self.slabs.get(sk, at) {
            return Ok(node);
        }
        if !wait {
            return Err(BlobError::MetadataMissing { blob: key.blob, version: key.version });
        }
        self.slabs
            .wait(
                sk,
                key.encode(),
                |layout| layout.rank(key.pos),
                self.wait_timeout,
                WAIT_SLICE,
                || {
                    let hook = self.self_help.read().clone();
                    if let Some(hook) = hook {
                        hook();
                    }
                },
            )
            .map_err(|e| match e {
                DhtError::WaitTimeout => BlobError::Timeout("metadata tree node"),
            })
    }

    /// Garbage-collection sweep: delete every node of `blob` created by
    /// a version `< before` that is not in `reachable`. A version's slab
    /// goes once none of its nodes is left, and its slots are reused.
    /// Returns the removed count and the `(pid, provider)` pairs of the
    /// swept leaves, whose pages are now unreferenced.
    pub fn sweep_retired(
        &self,
        blob: BlobId,
        before: Version,
        reachable: &HashSet<NodeKey>,
    ) -> (usize, Vec<(PageId, ProviderId)>) {
        let mut orphaned_pages = Vec::new();
        let removed = self.slabs.sweep(
            |(b, v)| b == blob.0 && v < before.0,
            |(_, v), layout, rank, node| {
                let pos = layout.position(rank).expect("a slot of the layout");
                let keep = reachable.contains(&NodeKey { blob, version: Version(v), pos });
                if let (false, TreeNode::Leaf { pid, provider, .. }) = (keep, node) {
                    orphaned_pages.push((*pid, *provider));
                }
                keep
            },
        );
        (removed, orphaned_pages)
    }

    /// Report every stored leaf's `(pid, provider)`: one pass over each
    /// slab's leaf run, one bucket's headers at a time under that
    /// bucket's mutex, no tree walk. Nodes are write-once and garbage
    /// collection deletes exactly the nodes no retained root reaches,
    /// so this is the set of pages the metadata references — up to
    /// concurrent stores and sweeps (see `docs/OPERATIONS.md`, "Marking
    /// the live set").
    pub fn for_each_leaf(&self, mut f: impl FnMut(PageId, ProviderId)) {
        self.slabs.for_each_live(SlabLayout::leaves, |node| {
            if let TreeNode::Leaf { pid, provider, .. } = node {
                f(pid, provider);
            }
        });
    }

    /// `true` when the node is currently stored (a counted get).
    pub fn contains(&self, key: &NodeKey) -> bool {
        self.get(key).is_ok()
    }

    /// Total nodes stored — the metadata footprint measured by the
    /// storage-efficiency experiment (E3).
    pub fn node_count(&self) -> usize {
        self.slabs.live()
    }

    /// Per-bucket access statistics (hotspot analysis): gets, puts and
    /// waits per node, header cells as `capacity`, slots allocated as
    /// `slots`.
    pub fn stats(&self) -> DhtStats {
        self.slabs.stats()
    }

    /// Slab slots allocated (32 bytes each, reused ones counted once):
    /// the metadata's memory, read without building per-bucket stats.
    pub fn slots(&self) -> usize {
        self.slabs.slots()
    }

    /// The DHT's block-time histogram (nanoseconds per blocking
    /// `get_wait`).
    pub fn wait_latency(&self) -> &blobseer_metrics::AtomicHistogram {
        self.slabs.wait_latency()
    }
}

impl std::fmt::Debug for MetaStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetaStore").field("nodes", &self.node_count()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer_types::{BlobId, NodePos, Version};

    fn key(v: u64, off: u64, size: u64) -> NodeKey {
        NodeKey { blob: BlobId(1), version: Version(v), pos: NodePos::new(off, size) }
    }

    /// Reserve version `v`'s slab for an update of `pages` pages from
    /// page 0 under a root of `root` pages.
    fn reserve(store: &MetaStore, v: u64, pages: u64, root: u64) {
        store.reserve(BlobId(1), Version(v), PageRange::new(0, pages), NodePos::new(0, root));
    }

    #[test]
    fn put_get_roundtrip() {
        let store = MetaStore::new(4, Duration::from_millis(50));
        let n = TreeNode::Leaf { pid: PageId(1), provider: ProviderId(0), valid_len: 10 };
        reserve(&store, 1, 1, 1);
        store.put_new(key(1, 0, 1), n);
        assert_eq!(store.get(&key(1, 0, 1)).unwrap(), n);
        assert!(store.contains(&key(1, 0, 1)));
        assert_eq!(store.node_count(), 1);
    }

    #[test]
    fn put_new_preserves_the_first_store() {
        // The abort-repair invariant: nodes are immutable once visible,
        // so a repair (or a zombie writer) can only fill gaps.
        let store = MetaStore::new(4, Duration::from_millis(50));
        let real = TreeNode::Leaf { pid: PageId(1), provider: ProviderId(0), valid_len: 4 };
        let repair = TreeNode::Leaf { pid: PageId(2), provider: ProviderId(1), valid_len: 4 };
        reserve(&store, 1, 2, 4);
        assert!(store.put_new(key(1, 0, 1), real));
        assert!(!store.put_new(key(1, 0, 1), repair), "dead writer's node stays");
        assert_eq!(store.get(&key(1, 0, 1)).unwrap(), real);
        // And a genuine gap is fillable.
        assert!(store.put_new(key(1, 1, 1), repair));
        assert_eq!(store.get(&key(1, 1, 1)).unwrap(), repair);
    }

    #[test]
    fn missing_node_is_typed() {
        let store = MetaStore::new(4, Duration::from_millis(20));
        assert!(matches!(store.get(&key(1, 0, 1)), Err(BlobError::MetadataMissing { .. })));
        assert_eq!(store.get_wait(&key(1, 0, 1)), Err(BlobError::Timeout("metadata tree node")));
    }

    #[test]
    fn sweep_removes_unreachable_and_reports_pages() {
        let store = MetaStore::new(4, Duration::from_millis(50));
        let leaf =
            |pid: u128| TreeNode::Leaf { pid: PageId(pid), provider: ProviderId(1), valid_len: 4 };
        reserve(&store, 1, 1, 1);
        reserve(&store, 2, 2, 4);
        store.put_new(key(1, 0, 1), leaf(10)); // v1 leaf, unreachable
        store.put_new(key(2, 0, 1), leaf(20)); // v2 leaf, reachable
        store.put_new(key(2, 1, 1), leaf(21)); // v2 leaf, unreachable
        let reachable: std::collections::HashSet<NodeKey> = [key(2, 0, 1)].into_iter().collect();
        let (removed, pages) = store.sweep_retired(BlobId(1), Version(3), &reachable);
        assert_eq!(removed, 2);
        let mut pids: Vec<u128> = pages.iter().map(|(p, _)| p.raw()).collect();
        pids.sort_unstable();
        assert_eq!(pids, vec![10, 21]);
        assert!(store.get(&key(2, 0, 1)).is_ok());
        assert!(store.get(&key(1, 0, 1)).is_err());
    }

    #[test]
    fn leaf_scan_reports_leaves_only() {
        let store = MetaStore::new(4, Duration::from_millis(50));
        let leaf =
            |pid: u128| TreeNode::Leaf { pid: PageId(pid), provider: ProviderId(2), valid_len: 4 };
        reserve(&store, 1, 2, 4);
        store.put_new(key(1, 0, 1), leaf(10));
        store.put_new(key(1, 1, 1), leaf(11));
        let root = TreeNode::Inner { children: [Some(Version(1)), Some(Version(1)), None, None] };
        store.put_new(key(1, 0, 4), root);
        let mut seen = Vec::new();
        store.for_each_leaf(|pid, provider| seen.push((pid.raw(), provider)));
        seen.sort_unstable();
        assert_eq!(seen, vec![(10, ProviderId(2)), (11, ProviderId(2))]);
    }

    #[test]
    fn sliced_wait_runs_the_self_help_hook() {
        // The hook supplies the missing node itself — the engine's
        // self-help sweep in miniature.
        let store = Arc::new(MetaStore::new(2, Duration::from_secs(5)));
        let n = TreeNode::Leaf { pid: PageId(5), provider: ProviderId(0), valid_len: 2 };
        reserve(&store, 4, 1, 1);
        let s2 = Arc::downgrade(&store);
        store.set_self_help(Arc::new(move || {
            s2.upgrade().expect("the store outlives its waits").put_new(key(4, 0, 1), n);
        }));
        let t0 = std::time::Instant::now();
        assert_eq!(store.get_wait(&key(4, 0, 1)).unwrap(), n);
        assert!(t0.elapsed() < Duration::from_secs(4), "recovered well before the timeout");
    }

    #[test]
    fn sliced_wait_without_hook_still_times_out_typed() {
        let store = MetaStore::new(2, Duration::from_millis(300));
        assert_eq!(store.get_wait(&key(9, 0, 1)), Err(BlobError::Timeout("metadata tree node")));
    }

    #[test]
    fn get_wait_sees_delayed_writer() {
        let store = Arc::new(MetaStore::new(4, Duration::from_secs(5)));
        let s2 = Arc::clone(&store);
        let waiter = std::thread::spawn(move || s2.get_wait(&key(2, 0, 4)));
        std::thread::sleep(Duration::from_millis(20));
        let n = TreeNode::Inner { children: [Some(Version(1)), None, None, None] };
        // The waiter parked before the slab existed.
        reserve(&store, 2, 1, 4);
        store.put_new(key(2, 0, 4), n);
        assert_eq!(waiter.join().unwrap().unwrap(), n);
    }
}
