//! Property tests for the range/dyadic-position algebra.
//!
//! These invariants underpin the correctness of the segment-tree
//! planners: if dyadic positions ever overlapped without nesting, the
//! metadata "weaving" of the paper would be ill-defined.

use blobseer_types::{ByteRange, NodePos, PageRange, FANOUT, LEVEL_BITS};
use proptest::prelude::*;

/// Strategy producing a valid tree position within a bounded universe:
/// its size is a power of `FANOUT`.
fn node_pos() -> impl Strategy<Value = NodePos> {
    (0u32..8, 0u64..4096).prop_map(|(depth, slot)| {
        let size = 1u64 << (depth * LEVEL_BITS);
        NodePos::new(slot * size, size)
    })
}

proptest! {
    #[test]
    fn dyadic_positions_disjoint_or_nested(a in node_pos(), b in node_pos()) {
        let ar = a.page_range();
        let br = b.page_range();
        if ar.intersects(br) {
            prop_assert!(a.contains(b) || b.contains(a),
                "{a:?} and {b:?} overlap without nesting");
        }
    }

    #[test]
    fn parent_child_roundtrip(p in node_pos()) {
        if !p.is_leaf() {
            let mut end = p.offset;
            for i in 0..FANOUT as usize {
                let c = p.child(i);
                prop_assert_eq!(c.parent(), p);
                prop_assert_eq!(c.slot(), i);
                // The children tile the parent exactly, in slot order.
                prop_assert_eq!(c.offset, end);
                prop_assert_eq!(c.size, p.size / FANOUT);
                end = c.end();
            }
            prop_assert_eq!(end, p.end());
            prop_assert!(p.children().eq((0..FANOUT as usize).map(|i| p.child(i))));
        }
    }

    #[test]
    fn parents_contain_their_descendants(p in node_pos(), up in 0u32..8) {
        let mut a = p;
        for _ in 0..up {
            a = a.parent();
        }
        prop_assert!(a.contains(p));
        prop_assert_eq!(a.level(), p.level() + up * LEVEL_BITS);
    }

    #[test]
    fn slot_toward_reaches_leaf(p in node_pos(), seed in any::<u64>()) {
        let page = p.offset + seed % p.size;
        let mut cur = p;
        while !cur.is_leaf() {
            let slot = cur.slot_toward(page);
            // The slot names the one child that holds the page.
            for i in 0..FANOUT as usize {
                prop_assert_eq!(cur.child(i).contains_page(page), i == slot);
            }
            cur = cur.child(slot);
        }
        prop_assert_eq!(cur.offset, page);
    }

    #[test]
    fn byte_page_roundtrip(offset in 0u64..1_000_000, size in 1u64..100_000, pshift in 2u32..20) {
        let psize = 1u64 << pshift;
        let br = ByteRange::new(offset, size);
        let pr = br.pages(psize);
        // Covering pages do cover the byte range...
        prop_assert!(pr.bytes(psize).contains(br));
        // ...and no page is superfluous: first and last pages intersect it.
        prop_assert!(ByteRange::new(pr.first * psize, psize).intersects(br));
        let last = pr.last().unwrap();
        prop_assert!(ByteRange::new(last * psize, psize).intersects(br));
    }

    #[test]
    fn intersect_is_commutative_and_sound(
        a_off in 0u64..10_000, a_len in 0u64..5000,
        b_off in 0u64..10_000, b_len in 0u64..5000,
    ) {
        let a = ByteRange::new(a_off, a_len);
        let b = ByteRange::new(b_off, b_len);
        prop_assert_eq!(a.intersect(b), b.intersect(a));
        prop_assert_eq!(a.intersects(b), a.intersect(b).is_some());
        if let Some(i) = a.intersect(b) {
            prop_assert!(a.contains(i));
            prop_assert!(b.contains(i));
            prop_assert!(i.size <= a.size && i.size <= b.size);
        }
    }

    #[test]
    fn page_range_intersect_sound(
        a_first in 0u64..1000, a_count in 0u64..500,
        b_first in 0u64..1000, b_count in 0u64..500,
    ) {
        let a = PageRange::new(a_first, a_count);
        let b = PageRange::new(b_first, b_count);
        prop_assert_eq!(a.intersect(b), b.intersect(a));
        prop_assert_eq!(a.intersects(b), a.intersect(b).is_some());
        if let Some(i) = a.intersect(b) {
            for p in i.iter() {
                prop_assert!(a.contains_page(p) && b.contains_page(p));
            }
        }
    }

    #[test]
    fn root_for_is_the_least_power_of_fanout(n in 0u64..(1 << 40)) {
        let size = NodePos::root_for(n).size;
        let mut power = 1;
        while power < n {
            power *= FANOUT;
        }
        prop_assert_eq!(size, power);
    }

    #[test]
    fn root_for_covers_all_pages(pages in 0u64..(1 << 30)) {
        let root = NodePos::root_for(pages);
        prop_assert_eq!(root.offset, 0);
        prop_assert!(root.size >= pages.max(1));
        if pages > 0 {
            prop_assert!(root.contains_page(pages - 1));
        }
    }
}
