//! Property: a node's slot in its version's slab is rank arithmetic
//! over the update's plan, with no search and no stored key.
//!
//! For random ranges and roots — unaligned starts, sizes that are not
//! powers of two, and grown roots far above the range — the rank of
//! every planned position is its index in `update_plan(..).positions()`
//! and in `build_meta`'s output, the inverse map gives the position
//! back, every position the update does not create (beside the planned
//! spans, at every level, between the tree's levels, and above the
//! root) has no rank, and the closed form of the shifted sum behind the
//! ranks equals its loop over the tree's levels.

use std::time::Duration;

use blobseer_dht::Layout;
use blobseer_meta::plan::{creates_position, shifted_sum, update_plan};
use blobseer_meta::{build_meta, Lineage, MetaStore, SlabLayout, TreeReader, UpdateContext};
use blobseer_types::{
    BlobId, NodePos, PageDescriptor, PageId, PageRange, ProviderId, Version, LEVEL_BITS,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn ranks_are_plan_indices_and_invert(
        first in 0u64..(1 << 40),
        count in 1u64..200,
        grow in prop_oneof![0u64..4, 0u64..(1 << 20), 0u64..(1 << 44)],
    ) {
        let range = PageRange::new(first, count);
        let root = NodePos::root_for(range.end() + grow);
        let layout = SlabLayout::new(range, root);
        prop_assert_eq!(SlabLayout::decode(layout.encode()), layout);

        let plan = update_plan(range, root, LEVEL_BITS);
        prop_assert_eq!(layout.slots() as u64, plan.node_count());
        prop_assert_eq!(layout.leaves() as u64, count);
        for (index, pos) in plan.positions().enumerate() {
            prop_assert_eq!(layout.rank(pos), Some(index), "{:?}", pos);
            prop_assert_eq!(layout.position(index), Some(pos));
        }
        prop_assert_eq!(layout.position(layout.slots()), None);

        // `build_meta` emits the nodes in slot order.
        let store = MetaStore::new(2, Duration::from_millis(10));
        let lineage = Lineage::root(BlobId(1));
        let reader = TreeReader::new(&store, &lineage);
        let ctx = UpdateContext { vw: Version(1), range, new_root: root, overrides: vec![], ref_root: None };
        let leaves: Vec<PageDescriptor> = range
            .iter()
            .map(|page_index| PageDescriptor {
                pid: PageId(u128::from(page_index)),
                page_index,
                provider: ProviderId(0),
                valid_len: 1,
            })
            .collect();
        let nodes = build_meta(&reader, &ctx, &leaves).unwrap();
        for (index, (key, _)) in nodes.iter().enumerate() {
            prop_assert_eq!(layout.rank(key.pos), Some(index));
        }
        prop_assert_eq!(nodes.len(), layout.slots());

        // Positions beside every level's span, and above the root.
        let last = range.last().unwrap();
        for level in 0..=root.level() + 1 {
            let size = 1u64 << level.min(63);
            let lo = first >> level;
            let hi = last >> level;
            for index in [lo.wrapping_sub(1), lo, hi, hi + 1, lo / 2, hi.saturating_mul(2)] {
                let Some(offset) = index.checked_mul(size) else { continue };
                if level > 63 || offset.checked_add(size).is_none() {
                    continue;
                }
                let pos = NodePos::new(offset, size);
                // Only the tree's levels hold positions.
                let planned = level <= root.level()
                    && level % LEVEL_BITS == 0
                    && creates_position(range, root, pos);
                prop_assert_eq!(layout.rank(pos).is_some(), planned, "{:?}", pos);
            }
        }
    }

    #[test]
    fn the_closed_form_equals_the_loop(
        x in prop_oneof![0u64..1024, 0u64..(1 << 63)],
        k in (0u32..=64 / LEVEL_BITS).prop_map(|i| i * LEVEL_BITS),
    ) {
        let looped: u64 = (0..k).step_by(LEVEL_BITS as usize).map(|j| x >> j).sum();
        prop_assert_eq!(shifted_sum(x, k), looped);
    }
}
