//! Tree traversal: `READ_META` (paper Algorithm 3), point lookups, and
//! whole-tree page enumeration (the GC/scrub mark phase).

use std::collections::HashSet;

use blobseer_types::{
    BlobError, ByteRange, NodePos, PageDescriptor, PageId, ProviderId, Result, Version, FANOUT,
    LEVEL_BITS,
};

use crate::lineage::Lineage;
use crate::node::{NodeKey, RootRef, TreeNode};
use crate::store::{Memo, MetaStore};

/// A read-side view of one blob's metadata: the store plus the blob's
/// lineage (so shared branch versions resolve to their owning ancestor).
///
/// A reader carries the slab header of the version it fetched from last
/// down the tree, so consecutive nodes of one version skip the header
/// probe. That memo makes a reader `!Sync`: each thread makes its own.
pub struct TreeReader<'a> {
    pub(crate) store: &'a MetaStore,
    lineage: &'a Lineage,
    memo: Memo,
}

impl<'a> TreeReader<'a> {
    /// View `lineage`'s blob through `store`.
    pub fn new(store: &'a MetaStore, lineage: &'a Lineage) -> Self {
        TreeReader { store, lineage, memo: Memo::default() }
    }

    /// The blob's lineage.
    pub fn lineage(&self) -> &Lineage {
        self.lineage
    }

    /// DHT key of the node created by `version` at `pos`.
    pub fn key_for(&self, version: Version, pos: NodePos) -> NodeKey {
        NodeKey { blob: self.lineage.owner_of(version), version, pos }
    }

    /// Fetch a node; `wait` selects blocking vs. immediate semantics.
    pub fn fetch(&self, version: Version, pos: NodePos, wait: bool) -> Result<TreeNode> {
        self.store.fetch(&self.key_for(version, pos), &self.memo, wait)
    }

    /// The version of the node occupying `pos` within the tree rooted at
    /// `root`, or `None` when the tree has no node there (position beyond
    /// the snapshot's content). Descends parent→child following the
    /// child-version pointers, exactly like a point query of Algorithm 3.
    ///
    /// The reference semantics of border resolution: `build_meta`
    /// resolves a whole border set in one descent and must agree with
    /// this, position by position (`tests/prop_border_walk.rs`).
    pub fn version_at(&self, root: RootRef, pos: NodePos, wait: bool) -> Result<Option<Version>> {
        if root.pos == pos {
            return Ok(Some(root.version));
        }
        if !root.pos.contains(pos) {
            return Ok(None);
        }
        let mut cur_version = root.version;
        let mut cur_pos = root.pos;
        while cur_pos != pos {
            let TreeNode::Inner { children } = self.fetch(cur_version, cur_pos, wait)? else {
                return Err(BlobError::Internal(format!(
                    "tree {root:?}: leaf stored at {cur_pos:?}"
                )));
            };
            let slot = cur_pos.slot_toward(pos.offset);
            match children[slot] {
                Some(v) => {
                    cur_version = v;
                    cur_pos = cur_pos.child(slot);
                }
                None => return Ok(None),
            }
        }
        Ok(Some(cur_version))
    }
}

/// `READ_META` (paper Algorithm 3) for one range: [`read_meta_multi`]
/// of `request` alone.
pub fn read_meta(
    reader: &TreeReader<'_>,
    root: RootRef,
    request: ByteRange,
    psize: u64,
) -> Result<Vec<PageDescriptor>> {
    read_meta_multi(reader, root, std::slice::from_ref(&request), psize)
}

/// `READ_META` for a request inside one page: the descriptor of `page`
/// in the snapshot rooted at `root`, by one root-to-leaf descent in a
/// loop — no stack, no allocation. [`read_meta_multi`] takes this path
/// when the requests cover one page; the caller's validation contract
/// is the same.
pub fn read_meta_page(reader: &TreeReader<'_>, root: RootRef, page: u64) -> Result<PageDescriptor> {
    if !root.pos.contains_page(page) {
        return Err(BlobError::Internal(format!("tree {root:?} does not cover page {page}")));
    }
    let (mut version, mut pos) = (root.version, root.pos);
    loop {
        match reader.fetch(version, pos, true)? {
            TreeNode::Leaf { pid, provider, valid_len } if pos.is_leaf() => {
                return Ok(PageDescriptor { pid, page_index: pos.offset, provider, valid_len });
            }
            TreeNode::Inner { children } if !pos.is_leaf() => {
                let slot = pos.slot_toward(page);
                match children[slot] {
                    Some(v) => (version, pos) = (v, pos.child(slot)),
                    None => {
                        return Err(BlobError::Internal(format!(
                            "tree {root:?}: missing child {slot} of {pos:?} above page {page}"
                        )))
                    }
                }
            }
            node => {
                return Err(BlobError::Internal(format!(
                    "tree {root:?}: {node:?} stored at {pos:?}"
                )))
            }
        }
    }
}

/// `READ_META` (paper Algorithm 3), vectored: the page descriptors
/// covering *any* of `requests` in the snapshot rooted at `root`,
/// assembled in **one** tree traversal and sorted by page index.
///
/// Each tree node on the way — in particular the upper levels, which
/// every range visits — is fetched once, and a page touched by several
/// requests appears once. Empty requests are ignored; a union of one
/// page takes [`read_meta_page`]'s descent.
///
/// The caller must have validated every range against the snapshot
/// size (the version manager's `GET_SIZE`); a `None` child encountered
/// within a requested range therefore indicates corrupt metadata and is
/// surfaced as [`BlobError::Internal`].
pub fn read_meta_multi(
    reader: &TreeReader<'_>,
    root: RootRef,
    requests: &[ByteRange],
    psize: u64,
) -> Result<Vec<PageDescriptor>> {
    let ranges = || requests.iter().map(|r| r.pages(psize)).filter(|p| !p.is_empty());
    // The union's page count, swept run by run without a sorted copy:
    // take the lowest page not yet counted, then extend its run while
    // some range continues it.
    let (mut union, mut counted) = (0u64, 0u64);
    while let Some(start) =
        ranges().filter(|r| r.end() > counted).map(|r| r.first.max(counted)).min()
    {
        counted = start;
        while let Some(end) =
            ranges().filter(|r| r.first <= counted && r.end() > counted).map(|r| r.end()).max()
        {
            counted = end;
        }
        union += counted - start;
    }
    match union {
        0 => return Ok(Vec::new()),
        1 => return read_meta_page(reader, root, counted - 1).map(|pd| vec![pd]),
        _ => {}
    }
    let mut out = Vec::with_capacity(union as usize);
    // Up to `FANOUT - 1` pending later siblings per level above the node
    // being expanded, plus its children: never a regrow.
    let levels = (root.pos.level() / LEVEL_BITS) as usize;
    let mut stack = Vec::with_capacity((FANOUT as usize - 1) * levels + 1);
    stack.push((root.version, root.pos));
    while let Some((version, pos)) = stack.pop() {
        match reader.fetch(version, pos, true)? {
            TreeNode::Leaf { pid, provider, valid_len } => {
                debug_assert!(pos.is_leaf());
                out.push(PageDescriptor { pid, page_index: pos.offset, provider, valid_len });
            }
            TreeNode::Inner { children } => {
                // Last slot first, so slot 0's subtree pops first and
                // leaves arrive in page order.
                for (slot, child_version) in children.into_iter().enumerate().rev() {
                    let child = pos.child(slot);
                    let bytes = child.page_range().bytes(psize);
                    if !requests.iter().any(|r| r.intersects(bytes)) {
                        continue;
                    }
                    match child_version {
                        Some(v) => stack.push((v, child)),
                        None => {
                            return Err(BlobError::Internal(format!(
                                "tree {root:?}: missing child {child:?} inside {requests:?}"
                            )))
                        }
                    }
                }
            }
        }
    }
    debug_assert!(out.windows(2).all(|w| w[0].page_index < w[1].page_index));
    // Exactly one leaf per requested page.
    if out.len() as u64 != union {
        return Err(BlobError::Internal(format!(
            "read_meta assembled {} descriptors for {union} pages",
            out.len()
        )));
    }
    Ok(out)
}

/// Whole-tree enumeration for the mark phase of garbage collection:
/// visit every node reachable from `root` (non-blocking fetches — the
/// caller guarantees the tree is complete, which holds for every
/// published or committed-abort version) and report each leaf's page to
/// `on_leaf`.
///
/// `visited` carries the node keys already walked: subtrees shared with
/// previously enumerated roots are skipped, so marking all retained
/// roots of a lineage costs each physical node exactly once — the same
/// sharing that makes versioning cheap makes marking cheap. The set is
/// GC's reachability answer.
///
/// A missing node surfaces as an error ([`BlobError::MetadataMissing`])
/// rather than being skipped: under-marking would let a sweep delete
/// live nodes, so the caller must abort its pass instead.
pub fn collect_tree_pages(
    reader: &TreeReader<'_>,
    root: RootRef,
    visited: &mut HashSet<NodeKey>,
    on_leaf: &mut dyn FnMut(PageId, ProviderId),
) -> Result<()> {
    let mut stack = vec![(root.version, root.pos)];
    while let Some((version, pos)) = stack.pop() {
        let key = reader.key_for(version, pos);
        if !visited.insert(key) {
            continue; // shared subtree already enumerated
        }
        match reader.fetch(version, pos, false)? {
            TreeNode::Leaf { pid, provider, .. } => on_leaf(pid, provider),
            TreeNode::Inner { children } => {
                for (child, v) in pos.children().zip(children) {
                    if let Some(v) = v {
                        stack.push((v, child));
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::TreeNode;
    use blobseer_types::{BlobId, PageId, PageRange, ProviderId};
    use std::time::Duration;

    /// Hand-build the Figure 1(a) tree at four children: version 1
    /// covering 4 pages, one root over four leaves.
    fn fig1a_store() -> (MetaStore, Lineage) {
        let store = MetaStore::new(4, Duration::from_millis(100));
        let lineage = Lineage::root(BlobId(1));
        let leaf = |i: u64| TreeNode::Leaf {
            pid: PageId(100 + i as u128),
            provider: ProviderId(i as u32),
            valid_len: 4,
        };
        let k = |v: u64, o: u64, s: u64| NodeKey {
            blob: BlobId(1),
            version: Version(v),
            pos: NodePos::new(o, s),
        };
        store.reserve(BlobId(1), Version(1), PageRange::new(0, 4), NodePos::new(0, 4));
        for i in 0..4 {
            store.put_new(k(1, i, 1), leaf(i));
        }
        store.put_new(k(1, 0, 4), TreeNode::Inner { children: [Some(Version(1)); 4] });
        (store, lineage)
    }

    #[test]
    fn read_meta_full_range() {
        let (store, lineage) = fig1a_store();
        let reader = TreeReader::new(&store, &lineage);
        let root = RootRef { version: Version(1), pos: NodePos::new(0, 4) };
        let pds = read_meta(&reader, root, ByteRange::new(0, 16), 4).unwrap();
        assert_eq!(pds.len(), 4);
        for (i, pd) in pds.iter().enumerate() {
            assert_eq!(pd.page_index, i as u64);
            assert_eq!(pd.pid, PageId(100 + i as u128));
        }
    }

    #[test]
    fn read_meta_partial_and_unaligned() {
        let (store, lineage) = fig1a_store();
        let reader = TreeReader::new(&store, &lineage);
        let root = RootRef { version: Version(1), pos: NodePos::new(0, 4) };
        // Bytes [5, 11) touch pages 1 and 2 only.
        let pds = read_meta(&reader, root, ByteRange::new(5, 6), 4).unwrap();
        assert_eq!(pds.len(), 2);
        assert_eq!(pds[0].page_index, 1);
        assert_eq!(pds[1].page_index, 2);
    }

    #[test]
    fn one_page_reads_descend_to_their_leaf() {
        let (store, lineage) = fig1a_store();
        let reader = TreeReader::new(&store, &lineage);
        let root = RootRef { version: Version(1), pos: NodePos::new(0, 4) };
        for page in 0..4 {
            let pd = read_meta_page(&reader, root, page).unwrap();
            assert_eq!((pd.page_index, pd.pid), (page, PageId(100 + page as u128)));
            // Any sub-range of the page takes the same descent.
            let one = read_meta(&reader, root, ByteRange::new(page * 4 + 1, 2), 4).unwrap();
            assert_eq!(one, vec![pd]);
        }
        assert!(matches!(read_meta_page(&reader, root, 4), Err(BlobError::Internal(_))));
        // A missing child inside the tree is corrupt metadata.
        let partial = RootRef { version: Version(2), pos: NodePos::new(0, 4) };
        store.reserve(BlobId(1), Version(2), PageRange::new(0, 1), partial.pos);
        store.put_new(
            NodeKey { blob: BlobId(1), version: Version(2), pos: NodePos::new(0, 4) },
            TreeNode::Inner { children: [Some(Version(1)), None, None, None] },
        );
        assert!(read_meta_page(&reader, partial, 0).is_ok());
        assert!(matches!(read_meta_page(&reader, partial, 1), Err(BlobError::Internal(_))));
    }

    #[test]
    fn read_meta_empty_request() {
        let (store, lineage) = fig1a_store();
        let reader = TreeReader::new(&store, &lineage);
        let root = RootRef { version: Version(1), pos: NodePos::new(0, 4) };
        assert!(read_meta(&reader, root, ByteRange::new(4, 0), 4).unwrap().is_empty());
    }

    #[test]
    fn read_meta_multi_unions_ranges_in_one_pass() {
        let (store, lineage) = fig1a_store();
        let reader = TreeReader::new(&store, &lineage);
        let root = RootRef { version: Version(1), pos: NodePos::new(0, 4) };
        // Bytes [0,4) and [13,16): pages 0 and 3 only.
        let pds = read_meta_multi(&reader, root, &[ByteRange::new(0, 4), ByteRange::new(13, 3)], 4)
            .unwrap();
        assert_eq!(pds.len(), 2);
        assert_eq!(pds[0].page_index, 0);
        assert_eq!(pds[1].page_index, 3);
        // Overlapping ranges dedup to one descriptor per page.
        let pds =
            read_meta_multi(&reader, root, &[ByteRange::new(0, 10), ByteRange::new(5, 11)], 4)
                .unwrap();
        assert_eq!(pds.len(), 4);
        // Empty requests contribute nothing.
        assert!(read_meta_multi(&reader, root, &[ByteRange::new(8, 0)], 4).unwrap().is_empty());
        // Matches per-range read_meta unions.
        let single = read_meta(&reader, root, ByteRange::new(5, 6), 4).unwrap();
        let multi = read_meta_multi(&reader, root, &[ByteRange::new(5, 6)], 4).unwrap();
        assert_eq!(single, multi);
    }

    #[test]
    fn collect_tree_pages_enumerates_leaves_once_across_shared_roots() {
        let (store, lineage) = fig1a_store();
        // A v2 tree overwriting page 0 only, sharing v1's other leaves.
        let k = |v: u64, o: u64, s: u64| NodeKey {
            blob: BlobId(1),
            version: Version(v),
            pos: NodePos::new(o, s),
        };
        store.reserve(BlobId(1), Version(2), PageRange::new(0, 1), NodePos::new(0, 4));
        store.put_new(
            k(2, 0, 1),
            TreeNode::Leaf { pid: PageId(200), provider: ProviderId(0), valid_len: 4 },
        );
        store.put_new(
            k(2, 0, 4),
            TreeNode::Inner {
                children: [Some(Version(2)), Some(Version(1)), Some(Version(1)), Some(Version(1))],
            },
        );
        let reader = TreeReader::new(&store, &lineage);

        let mut visited = HashSet::new();
        let mut pids = Vec::new();
        let mut on_leaf = |pid: PageId, _prov: ProviderId| pids.push(pid.raw());
        let root1 = RootRef { version: Version(1), pos: NodePos::new(0, 4) };
        let root2 = RootRef { version: Version(2), pos: NodePos::new(0, 4) };
        collect_tree_pages(&reader, root1, &mut visited, &mut on_leaf).unwrap();
        collect_tree_pages(&reader, root2, &mut visited, &mut on_leaf).unwrap();
        pids.sort_unstable();
        // v1's four leaves plus v2's one new leaf — the shared leaves
        // are walked exactly once.
        assert_eq!(pids, vec![100, 101, 102, 103, 200]);
        assert_eq!(visited.len(), 5 + 2, "v1's 5 nodes + v2's 2 new ones");
    }

    #[test]
    fn collect_tree_pages_surfaces_missing_nodes() {
        let store = MetaStore::new(2, Duration::from_millis(10));
        let lineage = Lineage::root(BlobId(3));
        let reader = TreeReader::new(&store, &lineage);
        let root = RootRef { version: Version(1), pos: NodePos::new(0, 4) };
        let err =
            collect_tree_pages(&reader, root, &mut HashSet::new(), &mut |_, _| {}).unwrap_err();
        assert!(matches!(err, BlobError::MetadataMissing { .. }));
    }

    #[test]
    fn version_at_walks_pointers() {
        let (store, lineage) = fig1a_store();
        let reader = TreeReader::new(&store, &lineage);
        let root = RootRef { version: Version(1), pos: NodePos::new(0, 4) };
        assert_eq!(reader.version_at(root, NodePos::new(0, 4), false).unwrap(), Some(Version(1)));
        assert_eq!(reader.version_at(root, NodePos::new(2, 1), false).unwrap(), Some(Version(1)));
        assert_eq!(reader.version_at(root, NodePos::new(3, 1), false).unwrap(), Some(Version(1)));
        // Outside the root span.
        assert_eq!(reader.version_at(root, NodePos::new(4, 4), false).unwrap(), None);
    }

    #[test]
    fn missing_node_surfaces_as_timeout_when_waiting() {
        let store = MetaStore::new(2, Duration::from_millis(10));
        let lineage = Lineage::root(BlobId(9));
        let reader = TreeReader::new(&store, &lineage);
        let root = RootRef { version: Version(1), pos: NodePos::new(0, 4) };
        let err = read_meta(&reader, root, ByteRange::new(0, 8), 4).unwrap_err();
        assert_eq!(err, BlobError::Timeout("metadata tree node"));
    }
}
