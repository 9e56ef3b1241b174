//! Typed facade over the DHT for tree nodes.

use std::sync::Arc;
use std::time::Duration;

use blobseer_dht::{Dht, DhtError, DhtStats};
use blobseer_types::{BlobError, PageId, ProviderId, Result};
use parking_lot::RwLock;

use crate::node::{NodeKey, TreeNode};

/// The between-slices callback of a sliced blocking wait; see
/// [`MetaStore::set_self_help`].
pub type SelfHelpHook = Arc<dyn Fn() + Send + Sync>;

/// Slice size of a blocking wait: the self-help hook runs after every
/// slice that expires without the node appearing, so a reader parked on
/// a dead writer's node recovers in about this long.
const WAIT_SLICE: Duration = Duration::from_millis(250);

/// The metadata provider: tree nodes distributed over DHT buckets.
///
/// `get` is non-blocking and suits reads of *published* versions (whose
/// trees are complete by definition); since the DHT's read path is
/// lock-free (a validated read of a write-once cell), concurrent
/// readers of the same hot node (every reader of a snapshot fetches
/// the same root) do not serialize on the metadata provider.
/// `get_wait` blocks until the node appears —
/// the mechanism by which an operation depending on a lower,
/// still-in-flight version waits for its writer (paper §4.2). The wait
/// is bounded by the configured timeout so a crashed writer surfaces as
/// a [`BlobError::Timeout`] instead of a hang.
pub struct MetaStore {
    dht: Arc<Dht<NodeKey, TreeNode>>,
    wait_timeout: Duration,
    /// Runs between wait slices with no DHT locks held; installed
    /// after construction because the engine it calls into owns this
    /// store (see [`MetaStore::set_self_help`]).
    self_help: RwLock<Option<SelfHelpHook>>,
}

impl MetaStore {
    /// Fresh store over `metadata_providers` DHT buckets.
    pub fn new(metadata_providers: usize, wait_timeout: Duration) -> Self {
        Self::with_dht(Arc::new(Dht::new(metadata_providers)), wait_timeout)
    }

    /// Wrap an existing DHT (lets tests share one DHT across stores).
    pub fn with_dht(dht: Arc<Dht<NodeKey, TreeNode>>, wait_timeout: Duration) -> Self {
        MetaStore { dht, wait_timeout, self_help: RwLock::new(None) }
    }

    /// Install the self-help hook that runs between wait slices (every
    /// 250 ms of a blocked `get_wait`; see
    /// [`blobseer_dht::Dht::get_wait_sliced`]). The engine hangs its
    /// lease sweeper here: a `get_wait` blocked on a dead writer's
    /// missing node then recovers in about one slice (sweep → abort →
    /// repair fills the node) instead of timing out.
    /// Installed post-construction — the hook closes over the engine,
    /// and the engine owns this store.
    pub fn set_self_help(&self, hook: SelfHelpHook) {
        *self.self_help.write() = Some(hook);
    }

    /// The configured blocking-get timeout.
    pub fn wait_timeout(&self) -> Duration {
        self.wait_timeout
    }

    /// Store a tree node only if the key is absent; returns `true`
    /// when this call inserted. This is the only way a node enters the
    /// table, so a stored node is never replaced — what
    /// [`MetaStore::for_each_leaf`] relies on. Version-abort repair
    /// uses it to fill in the nodes a dead writer never stored
    /// **without** replacing the ones it did: nodes stay immutable once
    /// visible, so readers that already wove content from a dead
    /// writer's node remain consistent with the final tree. Parked
    /// `get_wait`ers wake only on a real insert.
    pub fn put_new(&self, key: NodeKey, node: TreeNode) -> bool {
        self.dht.put_new(key, node)
    }

    /// Fetch a node without blocking.
    pub fn get(&self, key: &NodeKey) -> Result<TreeNode> {
        self.dht.get(key).ok_or(BlobError::MetadataMissing { blob: key.blob, version: key.version })
    }

    /// Fetch a node, waiting up to the configured timeout for an
    /// in-flight writer to store it; the self-help hook runs after
    /// every 250 ms spent waiting.
    pub fn get_wait(&self, key: &NodeKey) -> Result<TreeNode> {
        self.dht
            .get_wait_sliced(key, self.wait_timeout, WAIT_SLICE, || {
                let hook = self.self_help.read().clone();
                if let Some(hook) = hook {
                    hook();
                }
            })
            .map_err(|e| match e {
                DhtError::WaitTimeout => BlobError::Timeout("metadata tree node"),
            })
    }

    /// Garbage-collection sweep: delete every node of `blob` created by
    /// a version `< before` that is not in `reachable`. Returns the
    /// removed count and the `(pid, provider)` pairs of the swept
    /// leaves, whose pages are now unreferenced.
    pub fn sweep_retired(
        &self,
        blob: blobseer_types::BlobId,
        before: blobseer_types::Version,
        reachable: &std::collections::HashSet<NodeKey>,
    ) -> (usize, Vec<(PageId, ProviderId)>) {
        let mut orphaned_pages = Vec::new();
        let removed = self.dht.retain(|key, node| {
            let sweep = key.blob == blob && key.version < before && !reachable.contains(key);
            if sweep {
                if let TreeNode::Leaf { pid, provider, .. } = node {
                    orphaned_pages.push((*pid, *provider));
                }
            }
            !sweep
        });
        (removed, orphaned_pages)
    }

    /// Report every stored leaf's `(pid, provider)`: one pass over the
    /// table, each bucket under its mutex ([`Dht::for_each`]), no tree
    /// walk. Nodes are write-once and garbage collection deletes exactly
    /// the nodes no retained root reaches, so this is the set of pages
    /// the metadata references — up to concurrent stores and sweeps
    /// (see `docs/OPERATIONS.md`, "Marking the live set").
    pub fn for_each_leaf(&self, mut f: impl FnMut(PageId, ProviderId)) {
        self.dht.for_each(|_, node| {
            if let TreeNode::Leaf { pid, provider, .. } = *node {
                f(pid, provider);
            }
        });
    }

    /// `true` when the node is currently stored.
    pub fn contains(&self, key: &NodeKey) -> bool {
        self.dht.contains(key)
    }

    /// Total nodes stored — the metadata footprint measured by the
    /// storage-efficiency experiment (E3).
    pub fn node_count(&self) -> usize {
        self.dht.len()
    }

    /// Per-bucket access statistics (hotspot analysis).
    pub fn stats(&self) -> DhtStats {
        self.dht.stats()
    }

    /// Number of metadata providers (buckets).
    pub fn provider_count(&self) -> usize {
        self.dht.bucket_count()
    }

    /// The DHT's block-time histogram (nanoseconds per blocking
    /// `get_wait`), for registration in a store-level metrics registry.
    pub fn wait_latency(&self) -> Arc<blobseer_metrics::WindowedHistogram> {
        self.dht.wait_latency()
    }
}

impl std::fmt::Debug for MetaStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetaStore")
            .field("providers", &self.provider_count())
            .field("nodes", &self.node_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer_types::{BlobId, NodePos, Version};

    fn key(v: u64, off: u64, size: u64) -> NodeKey {
        NodeKey { blob: BlobId(1), version: Version(v), pos: NodePos::new(off, size) }
    }

    #[test]
    fn put_get_roundtrip() {
        let store = MetaStore::new(4, Duration::from_millis(50));
        let n = TreeNode::Leaf { pid: PageId(1), provider: ProviderId(0), valid_len: 10 };
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
        store.put_new(key(1, 0, 1), leaf(10));
        store.put_new(key(1, 1, 1), leaf(11));
        store.put_new(key(1, 0, 2), TreeNode::Inner { left: Some(Version(1)), right: None });
        let mut seen = Vec::new();
        store.for_each_leaf(|pid, provider| seen.push((pid.raw(), provider)));
        seen.sort_unstable();
        assert_eq!(seen, vec![(10, ProviderId(2)), (11, ProviderId(2))]);
    }

    #[test]
    fn sliced_wait_runs_the_self_help_hook() {
        // The hook supplies the missing node itself — the engine's
        // self-help sweep in miniature.
        let dht = Arc::new(blobseer_dht::Dht::new(2));
        let store = Arc::new(MetaStore::with_dht(Arc::clone(&dht), Duration::from_secs(5)));
        let n = TreeNode::Leaf { pid: PageId(5), provider: ProviderId(0), valid_len: 2 };
        let d2 = Arc::clone(&dht);
        store.set_self_help(Arc::new(move || {
            d2.put_new(key(4, 0, 1), n);
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
        let waiter = std::thread::spawn(move || s2.get_wait(&key(2, 0, 2)));
        std::thread::sleep(Duration::from_millis(20));
        let n = TreeNode::Inner { left: Some(Version(1)), right: None };
        store.put_new(key(2, 0, 2), n);
        assert_eq!(waiter.join().unwrap().unwrap(), n);
    }
}
