//! `BUILD_META` (paper Algorithm 4): constructing a new snapshot's tree
//! and weaving it with the trees of earlier versions.

use blobseer_types::{
    BlobError, NodePos, PageDescriptor, PageRange, Result, Version, FANOUT, LEVEL_BITS,
};

use crate::node::{NodeKey, RootRef, TreeNode};
use crate::plan::{borders_at_level, creates_position, levels_below, update_plan};
use crate::read::TreeReader;

/// The resolved border set `B_vw`: for every border position of the
/// update, the version of the existing node there (or `None` when the
/// position lies beyond the blob's content — the dangling children of
/// an incomplete tree, cf. paper Fig. 1(c)).
///
/// Indexed, not searched: at one tree level the borders on one side
/// all hang off the same boundary-path parent, so (level, side, slot)
/// names each one, and a build looks a border up in O(1).
#[derive(Clone, Debug)]
pub(crate) struct BorderSet {
    /// First updated page: borders below it are before the update.
    first: u64,
    /// `FANOUT` entries per (level, side), lowest level first; `None`
    /// where no border was resolved.
    versions: Vec<Option<Option<Version>>>,
}

impl BorderSet {
    /// An empty set for an update from page `first` under a root of
    /// tree level `top`.
    fn new(first: u64, top: u32) -> Self {
        BorderSet { first, versions: vec![None; (top / LEVEL_BITS) as usize * 2 * FANOUT as usize] }
    }

    /// Where border `pos` is kept: by its tree level, its side of the
    /// update and its slot.
    fn index(&self, pos: NodePos) -> usize {
        let side = usize::from(pos.offset > self.first);
        ((pos.level() / LEVEL_BITS) as usize * 2 + side) * FANOUT as usize + pos.slot()
    }

    fn insert(&mut self, pos: NodePos, version: Option<Version>) {
        let i = self.index(pos);
        self.versions[i] = Some(version);
    }

    /// Resolved version at a border position.
    ///
    /// Errors when `pos` was never resolved — that would mean the build
    /// walked a child position the planner did not classify, i.e. a bug.
    pub(crate) fn lookup(&self, pos: NodePos) -> Result<Option<Version>> {
        self.versions
            .get(self.index(pos))
            .copied()
            .flatten()
            .ok_or_else(|| BlobError::Internal(format!("border position {pos:?} was not resolved")))
    }
}

/// Everything a writer needs to build the metadata of its update, as
/// assembled from the version manager's assignment reply (paper §4.2:
/// "the version manager will build the partial set of border nodes and
/// provide it to the writer ... also suppl\[ying\] a recently published
/// snapshot version").
#[derive(Clone, Debug)]
pub struct UpdateContext {
    /// The assigned snapshot version `vw`.
    pub vw: Version,
    /// Updated page range.
    pub range: PageRange,
    /// Root position of the new tree (covers the post-update size).
    pub new_root: NodePos,
    /// Partial border set: positions that *in-flight* lower-versioned
    /// updates will create, mapped to those versions.
    pub overrides: Vec<(NodePos, Version)>,
    /// Root of the latest published snapshot, used to resolve the
    /// remaining border positions. `None` when nothing is published yet
    /// (the blob was empty at the last publication).
    pub ref_root: Option<RootRef>,
}

/// Where a walk down one path of the reference tree stands.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// The next node on the path, not fetched yet.
    Next(Version, NodePos),
    /// The deepest node fetched so far: its position and its children's
    /// versions, by slot.
    At(NodePos, [Option<Version>; FANOUT as usize]),
    /// A `None` child ended the path: the tree has no node below.
    Ended,
}

/// A top-down walk of the reference tree toward page `page`, fetching
/// each node on the path once and only as deep as it is asked to go.
#[derive(Clone, Copy, Debug)]
struct Walk {
    page: u64,
    step: Step,
}

impl Walk {
    /// The children of the path's node at `level` (≥ 1, at or below the
    /// deepest level reached so far), or `None` when the path ended
    /// above it.
    fn children_at(
        &mut self,
        reader: &TreeReader<'_>,
        level: u32,
    ) -> Result<Option<[Option<Version>; FANOUT as usize]>> {
        loop {
            self.step = match self.step {
                Step::Ended => return Ok(None),
                Step::At(pos, children) if pos.level() <= level => {
                    debug_assert_eq!(pos.level(), level, "walks only descend");
                    return Ok(Some(children));
                }
                Step::At(pos, children) => {
                    let slot = pos.slot_toward(self.page);
                    match children[slot] {
                        Some(v) => Step::Next(v, pos.child(slot)),
                        None => Step::Ended,
                    }
                }
                Step::Next(version, pos) => match reader.fetch(version, pos, true)? {
                    TreeNode::Inner { children } => Step::At(pos, children),
                    TreeNode::Leaf { .. } => {
                        return Err(BlobError::Internal(format!(
                            "node {pos:?} of {version} is a leaf above the leaf level"
                        )))
                    }
                },
            };
        }
    }
}

/// The descent of the reference tree along an update's two boundary
/// paths: to its first page (the parents of the borders before it) and
/// to its last page (the parents of the borders after it). One walk
/// covers the prefix the paths share and forks into one walk per side
/// where they part, so every path node is fetched at most once.
struct Descent {
    reference: RootRef,
    /// Pages the two side walks lead to: first, last.
    pages: [u64; 2],
    /// Lowest level of the shared prefix: the paths' lowest common
    /// ancestor, or the reference root when only the first page lies
    /// under it.
    fork: u32,
    shared: Walk,
    sides: [Option<Walk>; 2],
}

impl Descent {
    fn new(reference: RootRef, first: u64, last: u64) -> Self {
        // The paths part below the highest bit in which the pages
        // differ, at the tree level that holds that bit.
        let lca = (u64::BITS - (first ^ last).leading_zeros()).next_multiple_of(LEVEL_BITS);
        Descent {
            reference,
            pages: [first, last],
            fork: reference.pos.level().min(lca),
            shared: Walk { page: first, step: Step::Next(reference.version, reference.pos) },
            sides: [None, None],
        }
    }

    /// [`TreeReader::version_at`] of border `pos` on `side` (0 = before
    /// the update), read out of its parent in that border's slot.
    /// Borders must be asked for top-down.
    fn version_of(
        &mut self,
        reader: &TreeReader<'_>,
        side: usize,
        pos: NodePos,
    ) -> Result<Option<Version>> {
        if pos == self.reference.pos {
            return Ok(Some(self.reference.version));
        }
        if !self.reference.pos.contains(pos) {
            return Ok(None);
        }
        // Strictly inside the reference root, so is the parent — and
        // it lies on this side's path.
        let parent = pos.level() + LEVEL_BITS;
        let walk = if parent >= self.fork {
            &mut self.shared
        } else {
            match &mut self.sides[side] {
                Some(walk) => walk,
                slot @ None => {
                    self.shared.children_at(reader, self.fork)?;
                    slot.insert(Walk { page: self.pages[side], ..self.shared })
                }
            }
        };
        let children = walk.children_at(reader, parent)?;
        Ok(children.and_then(|c| c[pos.slot()]))
    }
}

/// Resolve the full border set for an update: overrides first (nodes
/// being created by concurrent, lower-versioned writers), then the
/// latest *published* tree, then `None` for positions beyond the blob's
/// content. Equivalent to [`TreeReader::version_at`] per position, in
/// one [`Descent`] (paper §4.2): the gets are the distinct nodes those
/// per-position descents would visit, each once — O(depth) per update.
///
/// Descending the published tree never blocks (its nodes are complete);
/// `wait` is still threaded through for the unaligned-write path where
/// the reference may be an in-flight predecessor.
pub(crate) fn resolve_borders(reader: &TreeReader<'_>, ctx: &UpdateContext) -> Result<BorderSet> {
    let first = ctx.range.first;
    let last = ctx
        .range
        .last()
        .ok_or_else(|| BlobError::Internal(format!("update {:?} covers no page", ctx.range)))?;
    let mut descent = ctx.ref_root.map(|r| Descent::new(r, first, last));
    let mut borders = BorderSet::new(first, ctx.new_root.level());
    for level in levels_below(ctx.new_root, LEVEL_BITS) {
        for (side, pos) in borders_at_level(first, last, level, LEVEL_BITS) {
            // The last override wins, as a map built from the list would.
            let version = match (ctx.overrides.iter().rfind(|(p, _)| *p == pos), &mut descent) {
                (Some(&(_, v)), _) => Some(v),
                (None, Some(descent)) => descent.version_of(reader, side, pos)?,
                (None, None) => None,
            };
            borders.insert(pos, version);
        }
    }
    Ok(borders)
}

/// `BUILD_META` (paper Algorithm 4): produce every tree node of snapshot
/// `vw`, leaves first, weaving border children in via the resolved
/// border set, and reserve the slab they go into. Returns the
/// `(key, node)` pairs; the caller stores them (Algorithm 4 line 34's
/// parallel store is one [`crate::MetaStore::put_all`] in-process) and
/// then notifies the version manager.
pub fn build_meta(
    reader: &TreeReader<'_>,
    ctx: &UpdateContext,
    leaves: &[PageDescriptor],
) -> Result<Vec<(NodeKey, TreeNode)>> {
    // The leaves must cover exactly the updated range, in order.
    if leaves.len() as u64 != ctx.range.count {
        return Err(BlobError::Internal(format!(
            "update of {:?} got {} leaves",
            ctx.range,
            leaves.len()
        )));
    }
    for (i, pd) in leaves.iter().enumerate() {
        if pd.page_index != ctx.range.first + i as u64 {
            return Err(BlobError::Internal(format!(
                "leaf {} covers page {}, expected {}",
                i,
                pd.page_index,
                ctx.range.first + i as u64
            )));
        }
    }

    let borders = resolve_borders(reader, ctx)?;
    let plan = update_plan(ctx.range, ctx.new_root, LEVEL_BITS);
    let owner = reader.lineage().owner_of(ctx.vw);
    debug_assert_eq!(
        owner,
        reader.lineage().blob(),
        "new versions are always owned by the blob being written"
    );
    reader.store.reserve(owner, ctx.vw, ctx.range, ctx.new_root);
    let key = |pos: NodePos| NodeKey { blob: owner, version: ctx.vw, pos };

    let mut out: Vec<(NodeKey, TreeNode)> = Vec::with_capacity(plan.node_count() as usize);
    for pd in leaves {
        out.push((
            key(NodePos::new(pd.page_index, 1)),
            TreeNode::Leaf { pid: pd.pid, provider: pd.provider, valid_len: pd.valid_len },
        ));
    }
    let child_version = |child: NodePos| -> Result<Option<Version>> {
        if creates_position(ctx.range, ctx.new_root, child) {
            Ok(Some(ctx.vw))
        } else {
            borders.lookup(child)
        }
    };
    for span in plan.levels.iter().skip(1) {
        for pos in span.positions() {
            let mut children = [None; FANOUT as usize];
            for (version, child) in children.iter_mut().zip(pos.children()) {
                *version = child_version(child)?;
            }
            out.push((key(pos), TreeNode::Inner { children }));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::Lineage;
    use crate::read::read_meta;
    use crate::store::MetaStore;
    use blobseer_types::{BlobId, ByteRange, PageId, ProviderId};
    use std::time::Duration;

    const PSIZE: u64 = 4;

    fn pd(page_index: u64, pid: u128) -> PageDescriptor {
        PageDescriptor {
            pid: PageId(pid),
            page_index,
            provider: ProviderId((pid % 7) as u32),
            valid_len: PSIZE as u32,
        }
    }

    fn store() -> MetaStore {
        MetaStore::new(4, Duration::from_millis(200))
    }

    fn commit(store: &MetaStore, nodes: Vec<(NodeKey, TreeNode)>) {
        for (k, n) in nodes {
            store.put_new(k, n);
        }
    }

    fn inner(children: [u64; FANOUT as usize]) -> TreeNode {
        TreeNode::Inner { children: children.map(|v| (v != 0).then_some(Version(v))) }
    }

    /// Replays the Figure 1 scenario at four children per node and
    /// checks the exact weaving.
    #[test]
    fn figure_1_weaving_end_to_end() {
        let store = store();
        let lineage = Lineage::root(BlobId(1));
        let reader = TreeReader::new(&store, &lineage);

        // (a) v1: write 4 pages to the empty blob: four leaves, a root.
        let ctx1 = UpdateContext {
            vw: Version(1),
            range: PageRange::new(0, 4),
            new_root: NodePos::new(0, 4),
            overrides: vec![],
            ref_root: None,
        };
        let leaves1: Vec<_> = (0..4).map(|i| pd(i, 100 + i as u128)).collect();
        let nodes1 = build_meta(&reader, &ctx1, &leaves1).unwrap();
        assert_eq!(nodes1.len(), 5);
        commit(&store, nodes1);

        // (b) v2: overwrite pages 1..3.
        let root1 = RootRef { version: Version(1), pos: NodePos::new(0, 4) };
        let ctx2 = UpdateContext {
            vw: Version(2),
            range: PageRange::new(1, 2),
            new_root: NodePos::new(0, 4),
            overrides: vec![],
            ref_root: Some(root1),
        };
        let leaves2 = vec![pd(1, 201), pd(2, 202)];
        let nodes2 = build_meta(&reader, &ctx2, &leaves2).unwrap();
        // The new leaves and the root.
        let positions: Vec<NodePos> = nodes2.iter().map(|(k, _)| k.pos).collect();
        assert_eq!(positions, vec![NodePos::new(1, 1), NodePos::new(2, 1), NodePos::new(0, 4)]);
        // Weaving: the root's first and last children are v1's leaves.
        assert_eq!(nodes2[2].1, inner([1, 2, 2, 1]));
        commit(&store, nodes2);

        // (c) v3: append one page — root grows to (0,16).
        let root2 = RootRef { version: Version(2), pos: NodePos::new(0, 4) };
        let ctx3 = UpdateContext {
            vw: Version(3),
            range: PageRange::new(4, 1),
            new_root: NodePos::new(0, 16),
            overrides: vec![],
            ref_root: Some(root2),
        };
        let nodes3 = build_meta(&reader, &ctx3, &[pd(4, 304)]).unwrap();
        let by_pos: HashMap<NodePos, TreeNode> = nodes3.iter().map(|(k, n)| (k.pos, *n)).collect();
        // New root: first child = old root (v2), then its own subtree,
        // and nothing beyond the content.
        assert_eq!(by_pos[&NodePos::new(0, 16)], inner([2, 3, 0, 0]));
        // Incomplete spine: dangling children are None.
        assert_eq!(by_pos[&NodePos::new(4, 4)], inner([3, 0, 0, 0]));
        commit(&store, nodes3);

        // Every snapshot remains readable with the right pages.
        let read =
            |root: RootRef, bytes: ByteRange| read_meta(&reader, root, bytes, PSIZE).unwrap();
        let v1 = read(root1, ByteRange::new(0, 16));
        assert_eq!(
            v1.iter().map(|p| p.pid.raw()).collect::<Vec<_>>(),
            vec![100, 101, 102, 103],
            "v1 unchanged by later updates"
        );
        let v2 = read(root2, ByteRange::new(0, 16));
        assert_eq!(
            v2.iter().map(|p| p.pid.raw()).collect::<Vec<_>>(),
            vec![100, 201, 202, 103],
            "v2 shares untouched pages with v1"
        );
        let root3 = RootRef { version: Version(3), pos: NodePos::new(0, 16) };
        let v3 = read(root3, ByteRange::new(0, 20));
        assert_eq!(
            v3.iter().map(|p| p.pid.raw()).collect::<Vec<_>>(),
            vec![100, 201, 202, 103, 304],
            "v3 = v2 + appended page"
        );
    }

    /// Paper §4.2: two concurrent writers weave correctly using the
    /// version manager's partial border set, with the *later* writer
    /// building its metadata before the earlier one has stored its own.
    #[test]
    fn concurrent_writers_with_overrides() {
        let store = store();
        let lineage = Lineage::root(BlobId(1));
        let reader = TreeReader::new(&store, &lineage);

        // v1 (published): 4 pages.
        let ctx1 = UpdateContext {
            vw: Version(1),
            range: PageRange::new(0, 4),
            new_root: NodePos::new(0, 4),
            overrides: vec![],
            ref_root: None,
        };
        let leaves1: Vec<_> = (0..4).map(|i| pd(i, 100 + i as u128)).collect();
        commit(&store, build_meta(&reader, &ctx1, &leaves1).unwrap());
        let root1 = RootRef { version: Version(1), pos: NodePos::new(0, 4) };

        // C1 gets v2 appending pages [4,8); C2 gets v3 appending [8,12).
        // C2's border (4,4) will be created by C1 → the VM supplies the
        // override (4,4) → v2. C2 builds FIRST (C1 hasn't stored yet).
        let ctx3 = UpdateContext {
            vw: Version(3),
            range: PageRange::new(8, 4),
            new_root: NodePos::new(0, 16),
            overrides: vec![(NodePos::new(4, 4), Version(2))],
            ref_root: Some(root1),
        };
        let leaves3: Vec<_> = (8..12).map(|i| pd(i, 300 + i as u128)).collect();
        let nodes3 = build_meta(&reader, &ctx3, &leaves3).unwrap();
        let by_pos: HashMap<NodePos, TreeNode> = nodes3.iter().map(|(k, n)| (k.pos, *n)).collect();
        assert_eq!(
            by_pos[&NodePos::new(0, 16)],
            inner([1, 2, 3, 0]),
            "C2 links to C1's yet-unwritten node via the override"
        );
        commit(&store, nodes3);

        // Now C1 builds and stores.
        let ctx2 = UpdateContext {
            vw: Version(2),
            range: PageRange::new(4, 4),
            new_root: NodePos::new(0, 16),
            overrides: vec![],
            ref_root: Some(root1),
        };
        let leaves2: Vec<_> = (4..8).map(|i| pd(i, 200 + i as u128)).collect();
        commit(&store, build_meta(&reader, &ctx2, &leaves2).unwrap());

        // Snapshot v3 = v1 pages + C1's pages + C2's pages.
        let root3 = RootRef { version: Version(3), pos: NodePos::new(0, 16) };
        let v3 = read_meta(&reader, root3, ByteRange::new(0, 48), PSIZE).unwrap();
        assert_eq!(
            v3.iter().map(|p| p.pid.raw()).collect::<Vec<_>>(),
            vec![100, 101, 102, 103, 204, 205, 206, 207, 308, 309, 310, 311]
        );
        // And v2 alone sees only C1's append.
        let root2 = RootRef { version: Version(2), pos: NodePos::new(0, 16) };
        let v2 = read_meta(&reader, root2, ByteRange::new(0, 32), PSIZE).unwrap();
        assert_eq!(
            v2.iter().map(|p| p.pid.raw()).collect::<Vec<_>>(),
            vec![100, 101, 102, 103, 204, 205, 206, 207]
        );
    }

    #[test]
    fn branch_shares_metadata_with_parent() {
        let store = store();
        let parent_lineage = Lineage::root(BlobId(1));
        let reader = TreeReader::new(&store, &parent_lineage);
        let ctx1 = UpdateContext {
            vw: Version(1),
            range: PageRange::new(0, 2),
            new_root: NodePos::new(0, 4),
            overrides: vec![],
            ref_root: None,
        };
        commit(&store, build_meta(&reader, &ctx1, &[pd(0, 100), pd(1, 101)]).unwrap());
        let root1 = RootRef { version: Version(1), pos: NodePos::new(0, 4) };

        // Branch at v1; the branch overwrites page 0 as its v2.
        let branch_lineage = Lineage::branch(&parent_lineage, Version(1), BlobId(2));
        let breader = TreeReader::new(&store, &branch_lineage);
        let ctx2 = UpdateContext {
            vw: Version(2),
            range: PageRange::new(0, 1),
            new_root: NodePos::new(0, 4),
            overrides: vec![],
            ref_root: Some(root1),
        };
        let nodes = build_meta(&breader, &ctx2, &[pd(0, 900)]).unwrap();
        // New nodes are keyed under the branch blob.
        assert!(nodes.iter().all(|(k, _)| k.blob == BlobId(2)));
        commit(&store, nodes);

        // Branch v2 reads its new page plus the parent's shared page.
        let root2 = RootRef { version: Version(2), pos: NodePos::new(0, 4) };
        let v2 = read_meta(&breader, root2, ByteRange::new(0, 8), PSIZE).unwrap();
        assert_eq!(v2.iter().map(|p| p.pid.raw()).collect::<Vec<_>>(), vec![900, 101]);
        // Parent v1 reads through the *parent* lineage, untouched.
        let v1 = read_meta(&reader, root1, ByteRange::new(0, 8), PSIZE).unwrap();
        assert_eq!(v1.iter().map(|p| p.pid.raw()).collect::<Vec<_>>(), vec![100, 101]);
        // And the same root read through the *branch* lineage also works
        // (shared versions resolve to the parent's keys).
        let v1b = read_meta(&breader, root1, ByteRange::new(0, 8), PSIZE).unwrap();
        assert_eq!(v1b.iter().map(|p| p.pid.raw()).collect::<Vec<_>>(), vec![100, 101]);
    }

    #[test]
    fn build_rejects_mismatched_leaves() {
        let store = store();
        let lineage = Lineage::root(BlobId(1));
        let reader = TreeReader::new(&store, &lineage);
        let ctx = UpdateContext {
            vw: Version(1),
            range: PageRange::new(0, 2),
            new_root: NodePos::new(0, 4),
            overrides: vec![],
            ref_root: None,
        };
        assert!(build_meta(&reader, &ctx, &[pd(0, 1)]).is_err(), "wrong count");
        assert!(build_meta(&reader, &ctx, &[pd(1, 1), pd(2, 2)]).is_err(), "wrong indices");
    }

    #[test]
    fn border_set_lookup_errors_on_unknown() {
        // An update of page 1 under root (0,4): borders (0,1), (2,1), (3,1).
        let mut b = BorderSet::new(1, 2);
        b.insert(NodePos::new(0, 1), Some(Version(1)));
        b.insert(NodePos::new(3, 1), None);
        assert_eq!(b.lookup(NodePos::new(0, 1)).unwrap(), Some(Version(1)));
        assert_eq!(b.lookup(NodePos::new(3, 1)).unwrap(), None);
        assert!(b.lookup(NodePos::new(2, 1)).is_err(), "not resolved");
        assert!(b.lookup(NodePos::new(0, 4)).is_err(), "above the borders' levels");
    }

    /// A node store that answers with a leaf where the descent expects
    /// an inner node: a typed error, not a panic.
    #[test]
    fn leaf_on_a_boundary_path_is_a_typed_error() {
        let store = store();
        let lineage = Lineage::root(BlobId(1));
        let reader = TreeReader::new(&store, &lineage);
        let root = RootRef { version: Version(1), pos: NodePos::new(0, 4) };
        let leaf = TreeNode::Leaf { pid: PageId(1), provider: ProviderId(0), valid_len: 4 };
        store.reserve(BlobId(1), Version(1), PageRange::new(0, 1), root.pos);
        store.put_new(NodeKey { blob: BlobId(1), version: Version(1), pos: root.pos }, leaf);
        let ctx = UpdateContext {
            vw: Version(2),
            range: PageRange::new(1, 1),
            new_root: root.pos,
            overrides: vec![],
            ref_root: Some(root),
        };
        let err = build_meta(&reader, &ctx, &[pd(1, 2)]).unwrap_err();
        assert!(matches!(err, BlobError::Internal(_)), "{err:?}");
    }

    /// Counting node fetches: a border is read out of its parent, and
    /// each path node is fetched once — also where the two boundary
    /// paths part between two tree levels.
    #[test]
    fn borders_cost_one_get_per_distinct_path_node() {
        let store = store();
        let lineage = Lineage::root(BlobId(1));
        let reader = TreeReader::new(&store, &lineage);
        let ctx1 = UpdateContext {
            vw: Version(1),
            range: PageRange::new(0, 16),
            new_root: NodePos::new(0, 16),
            overrides: vec![],
            ref_root: None,
        };
        let leaves1: Vec<_> = (0..16).map(|i| pd(i, 100 + i as u128)).collect();
        commit(&store, build_meta(&reader, &ctx1, &leaves1).unwrap());
        let root1 = RootRef { version: Version(1), pos: NodePos::new(0, 16) };
        // Each build is its own version: one version, one slab layout.
        let next = std::cell::Cell::new(2);
        let gets = |range: PageRange, new_root: NodePos, overrides: Vec<(NodePos, Version)>| {
            let vw = Version(next.replace(next.get() + 1));
            let ctx = UpdateContext { vw, range, new_root, overrides, ref_root: Some(root1) };
            let leaves: Vec<_> = range.iter().map(|i| pd(i, 200 + i as u128)).collect();
            let before = store.stats().total_gets;
            build_meta(&reader, &ctx, &leaves).unwrap();
            store.stats().total_gets - before
        };
        let root = NodePos::new(0, 16);
        // One page: the root and (0,4) — not the six borders.
        assert_eq!(gets(PageRange::new(3, 1), root, vec![]), 2);
        // Pages 3..5 differ in bit 2, so their paths part at the root
        // (level 4): root + (0,4) + (4,4).
        assert_eq!(gets(PageRange::new(3, 2), root, vec![]), 3);
        // Overrides for one side's deepest borders spare its walk.
        let spared = (5..8).map(|p| (NodePos::new(p, 1), Version(9))).collect();
        assert_eq!(gets(PageRange::new(3, 2), root, spared), 2);
        // A grown root: the old root is a border resolved without a get,
        // and everything right of it lies beyond the content.
        assert_eq!(gets(PageRange::new(16, 1), NodePos::new(0, 64), vec![]), 0);
    }

    use std::collections::HashMap;
}
