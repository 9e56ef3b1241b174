//! Property: `build_meta` resolves an update's border set in one descent
//! of the reference tree, and that descent agrees with the per-position
//! definition.
//!
//! For random update sequences — unaligned starts, sizes that are not
//! powers of two, root growth (paper Fig. 1(c)), an empty reference
//! (`ref_root: None`), references older than the latest version, random
//! version-manager overrides, and a branch lineage (`Lineage::branch`)
//! whose references cross into the parent blob — every child pointer of
//! every built inner node must be
//!
//! * the update's own version where the update creates the child, else
//! * the override for that position, else
//! * [`TreeReader::version_at`] of the reference root (`None` without one),
//!
//! and the build must fetch exactly the distinct nodes those
//! per-position descents visit — each once, never a border node itself.
//! A second property pins `border_positions` to its definition: the
//! children of created inner nodes that the update does not create.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::time::Duration;

use blobseer_meta::plan::{border_positions, creates_position, update_plan};
use blobseer_meta::{
    build_meta, Lineage, MetaStore, NodeKey, RootRef, TreeNode, TreeReader, UpdateContext,
};
use blobseer_types::{
    BlobId, NodePos, PageDescriptor, PageId, PageRange, ProviderId, Version, LEVEL_BITS,
};
use proptest::prelude::*;

/// One update: (start scale into [0, pages], page count, pick of the
/// trial's reference version, override mask over its borders).
type Step = (u16, u64, u16, u16);

fn steps(max: usize) -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0u16..=1000, 1u64..12, any::<u16>(), any::<u16>()), 1..max)
}

/// One blob's history as the tests replay it: snapshot `v`'s root
/// (`None` for the empty snapshot 0) and page count.
type History = Vec<(Option<RootRef>, u64)>;

/// Every node a per-position [`TreeReader::version_at`] fetches on its
/// way to `pos` (the same descent, recording instead of answering).
fn descent_nodes(
    reader: &TreeReader<'_>,
    root: RootRef,
    pos: NodePos,
    out: &mut HashSet<(Version, NodePos)>,
) {
    if root.pos == pos || !root.pos.contains(pos) {
        return;
    }
    let (mut version, mut at) = (root.version, root.pos);
    while at != pos {
        out.insert((version, at));
        let TreeNode::Inner { children } = reader.fetch(version, at, false).unwrap() else {
            panic!("leaf at inner position {at:?}");
        };
        let slot = at.slot_toward(pos.offset);
        match children[slot] {
            Some(v) => (version, at) = (v, at.child(slot)),
            None => return,
        }
    }
}

/// Build `ctx`'s tree, check every child pointer and the get count
/// against the per-position definition, and return the nodes.
fn checked_build(
    store: &MetaStore,
    reader: &TreeReader<'_>,
    ctx: &UpdateContext,
) -> Vec<(NodeKey, TreeNode)> {
    let leaves: Vec<PageDescriptor> = ctx
        .range
        .iter()
        .map(|p| PageDescriptor {
            pid: PageId(u128::from(ctx.vw.raw()) << 64 | u128::from(p)),
            page_index: p,
            provider: ProviderId(0),
            valid_len: 4,
        })
        .collect();
    let overrides: HashMap<NodePos, Version> = ctx.overrides.iter().copied().collect();
    let mut expected = HashMap::new();
    let mut visited = HashSet::new();
    for pos in border_positions(ctx.range, ctx.new_root, LEVEL_BITS) {
        let version = match (overrides.get(&pos), ctx.ref_root) {
            (Some(&v), _) => Some(v),
            (None, Some(root)) => {
                descent_nodes(reader, root, pos, &mut visited);
                reader.version_at(root, pos, false).unwrap()
            }
            (None, None) => None,
        };
        expected.insert(pos, version);
    }

    let gets_before = store.stats().total_gets;
    let nodes = build_meta(reader, ctx, &leaves).unwrap();
    let gets = store.stats().total_gets - gets_before;
    assert_eq!(gets, visited.len() as u64, "{ctx:?}: one get per distinct path node");

    let plan = update_plan(ctx.range, ctx.new_root, LEVEL_BITS);
    assert_eq!(nodes.len() as u64, plan.node_count());
    let child = |pos: NodePos| {
        if creates_position(ctx.range, ctx.new_root, pos) {
            Some(ctx.vw)
        } else {
            expected[&pos]
        }
    };
    for (key, node) in &nodes {
        assert_eq!(key.version, ctx.vw);
        if let TreeNode::Inner { children } = *node {
            let pos = key.pos;
            let expected: Vec<_> = pos.children().map(child).collect();
            assert_eq!(children.to_vec(), expected, "{ctx:?} at {pos:?}");
        }
    }
    nodes
}

/// Apply `steps` to `history` through `lineage`: each step first builds
/// a trial tree (random reference, random overrides, not stored), then
/// the real one (latest reference, no overrides, stored) — both checked.
fn replay(store: &MetaStore, lineage: &Lineage, history: &mut History, steps: &[Step]) {
    let reader = TreeReader::new(store, lineage);
    for &(scale, len, pick, mask) in steps {
        let vw = Version(history.len() as u64);
        let (latest, prev_pages) = *history.last().expect("snapshot 0 is always there");
        let range = PageRange::new(prev_pages * u64::from(scale) / 1000, len);
        let pages = prev_pages.max(range.end());
        let new_root = NodePos::root_for(pages);

        let reference = history[usize::from(pick) % history.len()].0;
        let overrides = border_positions(range, new_root, LEVEL_BITS)
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| i < 16 && mask >> i & 1 == 1)
            .map(|(i, pos)| (pos, Version(1000 + i as u64)))
            .collect();
        let trial = UpdateContext { vw, range, new_root, overrides, ref_root: reference };
        checked_build(store, &reader, &trial);

        let ctx = UpdateContext { vw, range, new_root, overrides: vec![], ref_root: latest };
        for (key, node) in checked_build(store, &reader, &ctx) {
            store.put_new(key, node);
        }
        history.push((Some(RootRef { version: vw, pos: new_root }), pages));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn one_descent_matches_per_position_version_at(
        base in steps(14),
        branch_pick in any::<u16>(),
        branched in steps(8),
    ) {
        let store = MetaStore::new(4, Duration::from_millis(100));
        let parent = Lineage::root(BlobId(1));
        let mut history: History = vec![(None, 0)];
        replay(&store, &parent, &mut history, &base);

        // Branch at any version, the empty snapshot 0 included: the
        // branch's references below the fork are the parent's nodes.
        let at = usize::from(branch_pick) % history.len();
        let child = Lineage::branch(&parent, Version(at as u64), BlobId(2));
        history.truncate(at + 1);
        replay(&store, &child, &mut history, &branched);
    }

    #[test]
    fn border_positions_are_the_uncreated_children(
        first in 0u64..(1 << 40),
        count in 1u64..64,
        grow in 0u64..(1 << 40),
    ) {
        let range = PageRange::new(first, count);
        let root = NodePos::root_for(range.end() + grow);
        let created: HashSet<NodePos> =
            update_plan(range, root, LEVEL_BITS).positions().collect();
        let by_definition: BTreeSet<(std::cmp::Reverse<u32>, u64)> = created
            .iter()
            .filter(|p| !p.is_leaf())
            .flat_map(|p| p.children())
            .filter(|c| !created.contains(c))
            .map(|c| (std::cmp::Reverse(c.level()), c.offset))
            .collect();
        let got: Vec<(std::cmp::Reverse<u32>, u64)> = border_positions(range, root, LEVEL_BITS)
            .into_iter()
            .map(|c| (std::cmp::Reverse(c.level()), c.offset))
            .collect();
        prop_assert_eq!(got, by_definition.into_iter().collect::<Vec<_>>());
    }
}
