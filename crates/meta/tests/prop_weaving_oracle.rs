//! Oracle-based property tests of the segment-tree weaving math.
//!
//! The defining invariant of BlobSeer's metadata (paper §4.1): after
//! applying updates `1..=k` sequentially, the node occupying position
//! `pos` in snapshot `k`'s tree was created by **the highest version
//! `u ≤ k` whose update range intersects `pos`** (and `pos` must fit
//! under `u`'s root). The paper states this for single pages ("the
//! highest snapshot version generated by an update whose range
//! intersects the page", §3); it extends to every dyadic position. We
//! check the real tree against that brute-force oracle for random
//! update sequences.

use std::time::Duration;

use blobseer_meta::plan::{creates_position, update_plan};
use blobseer_meta::{
    build_meta, read_meta, read_meta_multi, Lineage, MetaStore, RootRef, TreeReader, UpdateContext,
};
use blobseer_types::{
    BlobId, ByteRange, NodePos, PageDescriptor, PageId, PageRange, ProviderId, Version, FANOUT,
    LEVEL_BITS,
};
use proptest::prelude::*;

const PSIZE: u64 = 4;

/// (start scale, pages) pairs; start is scaled into [0, current_size].
fn updates() -> impl Strategy<Value = Vec<(u16, u64)>> {
    proptest::collection::vec((0u16..=1000, 1u64..7), 1..14)
}

/// A vectored read of the final snapshot: (start scale, bytes) pairs,
/// start scaled into [0, size] and the length clipped to the end. Sets
/// come unsorted and may overlap; zero lengths and one-page ranges are
/// common.
fn requests() -> impl Strategy<Value = Vec<(u16, u64)>> {
    proptest::collection::vec((0u16..=1000, 0u64..4 * PSIZE), 0..6)
}

/// The root of a snapshot of `pages` pages, computed independently of
/// `NodePos::root_for`: offset 0 and the smallest power of `FANOUT`
/// that is at least `max(1, pages)`.
fn least_covering_root(pages: u64) -> NodePos {
    let mut size = 1;
    while size < pages.max(1) {
        size *= FANOUT;
    }
    NodePos::new(0, size)
}

struct Applied {
    range: PageRange,
    root: NodePos,
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn node_versions_match_bruteforce_oracle(upds in updates(), reqs in requests()) {
        let store = MetaStore::new(4, Duration::from_millis(100));
        let lineage = Lineage::root(BlobId(1));
        let reader = TreeReader::new(&store, &lineage);

        let mut applied: Vec<Applied> = Vec::new();
        let mut pages = 0u64;
        for (i, &(scale, len)) in upds.iter().enumerate() {
            let vw = Version(i as u64 + 1);
            // Contiguity: start within [0, pages].
            let start = pages * u64::from(scale) / 1000;
            let range = PageRange::new(start, len);
            pages = pages.max(range.end());
            let root = NodePos::root_for(pages);
            let prev_root = applied.last().map(|a| RootRef {
                version: Version(applied.len() as u64),
                pos: a.root,
            });
            let ctx = UpdateContext {
                vw,
                range,
                new_root: root,
                overrides: vec![],
                ref_root: prev_root,
            };
            let leaves: Vec<PageDescriptor> = range
                .iter()
                .map(|p| PageDescriptor {
                    pid: PageId((vw.raw() as u128) << 32 | p as u128),
                    page_index: p,
                    provider: ProviderId(0),
                    valid_len: PSIZE as u32,
                })
                .collect();
            for (k, n) in build_meta(&reader, &ctx, &leaves).unwrap() {
                store.put_new(k, n);
            }
            applied.push(Applied { range, root });
        }

        // Oracle check: for every snapshot k and tree position under
        // its root (every level's), the occupying node's version is the
        // highest u ≤ k creating that position.
        for (k_idx, snap) in applied.iter().enumerate() {
            let k = Version(k_idx as u64 + 1);
            let root = RootRef { version: k, pos: snap.root };
            for level in (0..=snap.root.level()).step_by(LEVEL_BITS as usize) {
                let size = 1u64 << level;
                for idx in 0..(snap.root.size >> level) {
                    let pos = NodePos::new(idx * size, size);
                    let oracle = (0..=k_idx)
                        .rev()
                        .map(|u| (Version(u as u64 + 1), &applied[u]))
                        .find(|(_, a)| {
                            a.root.contains(pos)
                                && creates_position(a.range, a.root, pos)
                        })
                        .map(|(v, _)| v);
                    // Positions above an old root never host old nodes;
                    // the oracle handles that via `contains`.
                    let got = reader.version_at(root, pos, false).unwrap();
                    prop_assert_eq!(
                        got, oracle,
                        "snapshot {:?}, position {:?}", k, pos
                    );
                }
            }
        }

        // And the flat view: every page of the final snapshot belongs
        // to the latest update touching it (paper §3) ...
        let last = applied.last().unwrap();
        let newest = Version(applied.len() as u64);
        let root = RootRef { version: newest, pos: last.root };
        let owner = |page: u64| {
            (0..applied.len())
                .rev()
                .find(|&u| applied[u].range.contains_page(page))
                .expect("every page written by someone") as u128
                + 1
        };
        let pds = read_meta(&reader, root, ByteRange::new(0, pages * PSIZE), PSIZE).unwrap();
        prop_assert_eq!(pds.len() as u64, pages);
        for d in pds {
            prop_assert_eq!(d.pid.raw() >> 32, owner(d.page_index), "page {}", d.page_index);
        }

        // ... also through one vectored descent: each page of the
        // requests' union exactly once, sorted, from its latest writer.
        let size = pages * PSIZE;
        let ranges: Vec<ByteRange> = reqs
            .iter()
            .map(|&(scale, len)| {
                let offset = size * u64::from(scale) / 1000;
                ByteRange::new(offset, len.min(size - offset))
            })
            .collect();
        let union: Vec<u64> = ranges
            .iter()
            .flat_map(|r| r.pages(PSIZE).iter())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let pds = read_meta_multi(&reader, root, &ranges, PSIZE).unwrap();
        prop_assert_eq!(
            pds.iter().map(|d| d.page_index).collect::<Vec<_>>(),
            union,
            "requests {:?}", ranges
        );
        for d in pds {
            prop_assert_eq!(d.pid.raw() >> 32, owner(d.page_index), "page {}", d.page_index);
        }

        // Structural sanity rides along: every root sits at offset 0 and
        // is the least power of the fanout covering the size so far,
        // found by multiplying rather than by `root_for`, which built
        // the roots.
        let mut max_end = 0;
        for a in &applied {
            max_end = max_end.max(a.range.end());
            prop_assert_eq!(a.root, least_covering_root(max_end), "size {}", max_end);
        }
    }

    #[test]
    fn update_plan_partitions_children(
        first in 0u64..200,
        count in 1u64..64,
        grow in 0u64..64,
    ) {
        // For every created inner node, its children are partitioned
        // between "created" and "border"; borders never intersect the
        // update; created leaves are exactly the update's pages.
        let range = PageRange::new(first, count);
        let root = NodePos::root_for(range.end() + grow);
        let plan = update_plan(range, root, LEVEL_BITS);
        let created: std::collections::HashSet<NodePos> = plan.positions().collect();
        let borders: std::collections::HashSet<NodePos> =
            blobseer_meta::plan::border_positions(range, root, LEVEL_BITS).into_iter().collect();
        prop_assert!(created.is_disjoint(&borders));
        for pos in &created {
            prop_assert!(pos.intersects(range));
            if !pos.is_leaf() {
                for child in pos.children() {
                    prop_assert!(
                        created.contains(&child) ^ borders.contains(&child),
                        "child {child:?} of {pos:?}"
                    );
                }
            }
        }
        let leaves: Vec<NodePos> =
            plan.levels[0].positions().collect();
        prop_assert_eq!(leaves.len() as u64, count);
        prop_assert!(leaves.iter().all(|l| l.is_leaf() && range.contains_page(l.offset)));
    }
}
