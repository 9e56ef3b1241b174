//! Pure tree planners: which positions an update creates and which
//! positions border it. A read of a page range visits exactly the
//! positions an update of that range would create (Algorithm 3 explores
//! a node iff its range intersects the request), so [`update_plan`]'s
//! spans, taken root first, are a read's plan too.
//!
//! Positions are [`NodePos`]es and children are named by slot. The
//! planners take the tree's level step as a parameter, `bits`: a tree
//! level is `bits` bits of page index, so a node has `2^bits` children
//! and a plan's levels are the multiples of `bits` up to its root's.
//! The engine's tree steps [`LEVEL_BITS`] (four children per node); the
//! simulator prices the paper's binary tree with a step of 1. The slab
//! arithmetic ([`SlabLayout`], [`shifted_sum`]) serves only the
//! engine's store and is fixed to `LEVEL_BITS`.
//!
//! These functions are arithmetic only — no storage, no locking — and
//! are shared by three consumers:
//!
//! * [`crate::build`] materialises exactly the positions planned here;
//! * the version manager computes **partial border sets** for concurrent
//!   writers by asking, for each border position ([`borders_at_level`]),
//!   which in-flight update creates it ([`creates_position`]) — the
//!   paper's §4.2 protocol;
//! * the network simulator (`blobseer-sim`) prices operations by the
//!   *planned* node counts of the paper's binary tree, so simulated
//!   metadata overhead (including the power-of-two step-downs visible
//!   in the paper's Figure 2(a)) follows the real tree math.

use blobseer_types::{NodePos, PageRange, LEVEL_BITS};

/// The contiguous run of tree positions an update creates at one level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelSpan {
    /// Tree level: `log2` of the positions' size (0 = leaves).
    pub level: u32,
    /// First position index at this level (position offset = index << level).
    pub first_index: u64,
    /// Last position index at this level (inclusive).
    pub last_index: u64,
}

impl LevelSpan {
    /// Number of positions in the span.
    pub fn count(&self) -> u64 {
        self.last_index - self.first_index + 1
    }

    /// Iterate the positions in the span.
    pub fn positions(&self) -> impl Iterator<Item = NodePos> + '_ {
        let level = self.level;
        (self.first_index..=self.last_index).map(move |i| NodePos::new(i << level, 1u64 << level))
    }
}

/// Everything an update of `range` in a tree rooted at `root` creates.
///
/// Paper §4.2: the new tree "is the smallest (possibly incomplete)
/// binary tree such that its leaves are exactly the leaves covering the
/// pages of \[the\] range that is written", built "bottom-up ... up to
/// (and including) the root" — here with `2^bits` children per node.
/// Because the updated page range is contiguous, the created positions
/// at each level form one contiguous index interval — which is why the
/// whole plan is a `Vec<LevelSpan>`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdatePlan {
    /// Updated page range.
    pub range: PageRange,
    /// Root position of the new tree.
    pub root: NodePos,
    /// Created positions, one span per tree level, leaves first.
    pub levels: Vec<LevelSpan>,
}

impl UpdatePlan {
    /// Total tree nodes created by the update.
    pub fn node_count(&self) -> u64 {
        self.levels.iter().map(LevelSpan::count).sum()
    }

    /// Tree depth (number of levels, root included).
    pub fn depth(&self) -> u32 {
        self.levels.len() as u32
    }

    /// Iterate all created positions, leaves first.
    pub fn positions(&self) -> impl Iterator<Item = NodePos> + '_ {
        self.levels.iter().flat_map(LevelSpan::positions)
    }
}

/// The tree levels below `root`, top-down, in a tree of step `bits`:
/// `root.level() − bits, …, bits, 0`.
pub fn levels_below(root: NodePos, bits: u32) -> impl Iterator<Item = u32> {
    (0..root.level() / bits).rev().map(move |i| i * bits)
}

/// Plan the positions created by updating `range` in a tree of level
/// step `bits` rooted at `root` (the root position *after* the update).
pub fn update_plan(range: PageRange, root: NodePos, bits: u32) -> UpdatePlan {
    assert!(!range.is_empty(), "updates cover at least one page");
    assert!(
        root.contains_page(range.last().expect("non-empty")),
        "root {root:?} does not cover update {range:?}"
    );
    debug_assert!(root.level().is_multiple_of(bits), "root {root:?} is not a level of step {bits}");
    let last = range.last().expect("non-empty");
    let levels = (0..=root.level() / bits)
        .map(|i| {
            let level = i * bits;
            LevelSpan { level, first_index: range.first >> level, last_index: last >> level }
        })
        .collect();
    UpdatePlan { range, root, levels }
}

/// Where an update's nodes sit in its slab (`blobseer_dht::Slabs`): in
/// [`UpdatePlan::positions`] order — leaves first, then level by level —
/// by rank arithmetic, with no search and no stored key. The slab
/// header keeps it as two words: the first page, and the last page's
/// distance from it beside the root level. The engine's tree only: its
/// levels are the multiples of [`LEVEL_BITS`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlabLayout {
    /// First updated page.
    pub first: u64,
    /// Last updated page.
    pub last: u64,
    /// Level of the new tree's root.
    pub root_level: u32,
}

/// Bits of the second header word that hold the last page's distance
/// from the first; the root level sits above them.
const SPAN_BITS: u32 = 58;

/// `Σ (x >> j)` over the tree levels `j < k` (the multiples of
/// [`LEVEL_BITS`]; `k` is one too), in closed form. Over every level,
/// `Σᵢ x >> 2i = x + (x − s₄(x)) / 3` (Legendre), with `s₄` the sum of
/// `x`'s base-4 digits; the terms from `k` on are that sum for `x >> k`.
/// Exact whenever the result fits a word, as it does for any page index
/// (below `2^63`).
pub fn shifted_sum(x: u64, k: u32) -> u64 {
    const LOW: u64 = 0x5555_5555_5555_5555;
    let digits = |x: u64| u64::from((x & LOW).count_ones() + 2 * (x & !LOW).count_ones());
    let all = |x: u64| x.wrapping_add((x - digits(x)) / 3);
    debug_assert!(k.is_multiple_of(LEVEL_BITS), "level {k} is not a tree level");
    all(x).wrapping_sub(all(x.checked_shr(k).unwrap_or(0)))
}

impl SlabLayout {
    /// The layout of [`update_plan`]`(range, root, LEVEL_BITS)`.
    pub fn new(range: PageRange, root: NodePos) -> Self {
        let last = range.last().expect("updates cover at least one page");
        debug_assert!(root.contains_page(last), "root {root:?} does not cover update {range:?}");
        SlabLayout { first: range.first, last, root_level: root.level() }
    }

    /// Slots before tree level `k`: `Σ_{j<k} ((last>>j) − (first>>j) +
    /// 1)` over the tree levels `j`.
    fn before(&self, k: u32) -> u64 {
        shifted_sum(self.last, k) - shifted_sum(self.first, k) + u64::from(k / LEVEL_BITS)
    }

    /// The leaf run: the slab's first `last − first + 1` slots.
    pub fn leaves(&self) -> usize {
        (self.last - self.first + 1) as usize
    }

    /// The slot of `pos`: its index in the plan's positions, or `None`
    /// when the update does not create it.
    #[inline]
    pub fn rank(&self, pos: NodePos) -> Option<usize> {
        let k = pos.level();
        let i = pos.offset >> k;
        let (lo, hi) = (self.first >> k, self.last >> k);
        (k <= self.root_level && k.is_multiple_of(LEVEL_BITS) && (lo..=hi).contains(&i))
            .then(|| (self.before(k) + i - lo) as usize)
    }

    /// The position in slot `rank`: the inverse of [`SlabLayout::rank`].
    pub fn position(&self, rank: usize) -> Option<NodePos> {
        let rank = rank as u64;
        let k = (0..=self.root_level / LEVEL_BITS)
            .rev()
            .map(|i| i * LEVEL_BITS)
            .find(|&k| self.before(k) <= rank)?;
        let i = (self.first >> k) + rank - self.before(k);
        (i <= self.last >> k).then(|| NodePos::new(i << k, 1 << k))
    }
}

impl blobseer_dht::Layout for SlabLayout {
    fn encode(&self) -> [u64; 2] {
        assert!(self.last - self.first < 1 << SPAN_BITS, "{self:?} spans too many pages");
        [self.first, (self.last - self.first) | u64::from(self.root_level) << SPAN_BITS]
    }

    fn decode(w: [u64; 2]) -> Self {
        SlabLayout {
            first: w[0],
            last: w[0] + (w[1] & ((1 << SPAN_BITS) - 1)),
            root_level: (w[1] >> SPAN_BITS) as u32,
        }
    }

    fn slots(&self) -> usize {
        self.before(self.root_level + LEVEL_BITS) as usize
    }
}

/// `true` when an update of `range` under `root` creates a node at
/// `pos`, a position of the tree's levels. Used by the version manager
/// to decide whether an *in-flight* update will supply a border node
/// for a newer writer (paper §4.2).
pub fn creates_position(range: PageRange, root: NodePos, pos: NodePos) -> bool {
    root.contains(pos) && pos.intersects(range)
}

/// The border positions of an update of pages `first..=last` at one
/// tree `level` below the root, in a tree of level step `bits`, as
/// `(side, position)` pairs: side 0 before the update, side 1 after it,
/// by offset.
///
/// The created nodes at `level` are indices `first >> level ..= last >>
/// level`; their parents' other children are the borders. So the
/// borders before the update are the siblings in the slots below
/// `first`'s ancestor's (none when it sits in slot 0), and the borders
/// after it the siblings in the slots above `last`'s ancestor's (none
/// when it sits in the last slot): up to `2^bits − 1` per side. Every
/// border before hangs off the root-to-`first` path and every border
/// after off the root-to-`last` path, which is what lets the writer
/// resolve them all in one descent.
pub fn borders_at_level(
    first: u64,
    last: u64,
    level: u32,
    bits: u32,
) -> impl Iterator<Item = (usize, NodePos)> {
    let (size, last_slot) = (1u64 << level, (1u64 << bits) - 1);
    let (lo, hi) = (first >> level, last >> level);
    let before = (lo & !last_slot..lo).map(|i| (0, i));
    let after = (hi + 1..=hi | last_slot).map(|i| (1, i));
    before.chain(after).map(move |(side, i)| (side, NodePos::new(i << level, size)))
}

/// The border positions of an update in a tree of level step `bits`:
/// children of created inner nodes that the update itself does not
/// create (paper §4.2's set `B_vw`). Ordered top-down, then by offset.
/// Positions may lie beyond the blob's content; the resolver decides
/// whether they map to an existing node or to a `None` child.
pub fn border_positions(range: PageRange, root: NodePos, bits: u32) -> Vec<NodePos> {
    let last = range.last().expect("updates cover at least one page");
    levels_below(root, bits)
        .flat_map(|level| borders_at_level(range.first, last, level, bits).map(|(_, pos)| pos))
        .collect()
}

/// The original stack walk behind [`border_positions`], kept as its
/// test oracle: visit every created node of the engine's tree, collect
/// its uncreated children, then sort.
#[cfg(test)]
fn border_positions_by_walk(range: PageRange, root: NodePos) -> Vec<NodePos> {
    assert!(!range.is_empty());
    let mut out = Vec::new();
    let mut stack = vec![root];
    while let Some(pos) = stack.pop() {
        if pos.is_leaf() {
            continue;
        }
        for child in pos.children() {
            if child.intersects(range) {
                stack.push(child);
            } else {
                out.push(child);
            }
        }
    }
    out.sort_by(|a, b| b.level().cmp(&a.level()).then(a.offset.cmp(&b.offset)));
    out
}

/// Nodes in a *complete* (from-scratch) tree of level step `bits` over
/// `pages` pages — the cost of the naive rebuild the paper rejects
/// (§4.1: "rebuilding a full tree for subsequent updates would be
/// space- and time-inefficient").
pub fn full_tree_node_count(pages: u64, bits: u32) -> u64 {
    if pages == 0 {
        return 0;
    }
    update_plan(PageRange::new(0, pages), NodePos::root_for_step(pages, bits), bits).node_count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer_types::FANOUT;
    use std::collections::HashSet;

    fn pos(offset: u64, size: u64) -> NodePos {
        NodePos::new(offset, size)
    }

    fn plan(range: PageRange, root: NodePos) -> UpdatePlan {
        update_plan(range, root, LEVEL_BITS)
    }

    fn borders(range: PageRange, root: NodePos) -> Vec<NodePos> {
        border_positions(range, root, LEVEL_BITS)
    }

    #[test]
    fn figure_1a_initial_write() {
        // Fig 1(a): write of 4 pages to an empty blob — a full 4-page
        // tree, at four children one root over four leaves.
        let plan = plan(PageRange::new(0, 4), pos(0, 4));
        assert_eq!(plan.node_count(), 5);
        assert_eq!(plan.depth(), 2);
        let all: Vec<NodePos> = plan.positions().collect();
        assert_eq!(all, vec![pos(0, 1), pos(1, 1), pos(2, 1), pos(3, 1), pos(0, 4)]);
        assert!(borders(PageRange::new(0, 4), pos(0, 4)).is_empty());
    }

    #[test]
    fn figure_1b_overwrite_two_middle_pages() {
        // Fig 1(b): overwrite pages 1..3 of the 4-page blob: the two
        // leaves and the root are new.
        let range = PageRange::new(1, 2);
        let all: Vec<NodePos> = plan(range, pos(0, 4)).positions().collect();
        assert_eq!(all, vec![pos(1, 1), pos(2, 1), pos(0, 4)]);
        // Borders: the untouched leaves (0,1) and (3,1) get weaved in.
        assert_eq!(borders(range, pos(0, 4)), vec![pos(0, 1), pos(3, 1)]);
    }

    #[test]
    fn figure_1c_append_grows_root() {
        // Fig 1(c): append one page (index 4) — the root grows to
        // (0,16); the old root (0,4) becomes the new root's first child.
        let range = PageRange::new(4, 1);
        let all: Vec<NodePos> = plan(range, pos(0, 16)).positions().collect();
        assert_eq!(all, vec![pos(4, 1), pos(4, 4), pos(0, 16)]);
        // Borders: the old root, then the empty later siblings.
        assert_eq!(
            borders(range, pos(0, 16)),
            vec![pos(0, 4), pos(8, 4), pos(12, 4), pos(5, 1), pos(6, 1), pos(7, 1)]
        );
    }

    #[test]
    fn the_paper_binary_tree_is_a_step_of_one() {
        // Figure 1 at two children: the grey nodes of Fig 1(b) and the
        // borders of Fig 1(c), as the simulator plans them.
        let all: Vec<NodePos> =
            update_plan(PageRange::new(1, 2), pos(0, 4), 1).positions().collect();
        assert_eq!(all, vec![pos(1, 1), pos(2, 1), pos(0, 2), pos(2, 2), pos(0, 4)]);
        assert_eq!(
            border_positions(PageRange::new(4, 1), pos(0, 8), 1),
            vec![pos(0, 4), pos(6, 2), pos(5, 1)]
        );
        assert_eq!(NodePos::root_for_step(5, 1), pos(0, 8));
        assert_eq!(full_tree_node_count(8, 1), 15);
    }

    #[test]
    fn creates_position_matches_plan() {
        for (range, root) in [
            (PageRange::new(1, 2), pos(0, 4)),
            (PageRange::new(4, 1), pos(0, 16)),
            (PageRange::new(3, 9), pos(0, 16)),
            (PageRange::new(13, 40), pos(0, 64)),
        ] {
            let created: HashSet<NodePos> = plan(range, root).positions().collect();
            // Every position of the tree's levels is classified correctly.
            for level in (0..=root.level()).step_by(LEVEL_BITS as usize) {
                let size = 1u64 << level;
                for idx in 0..(root.size >> level) {
                    let p = pos(idx * size, size);
                    assert_eq!(
                        creates_position(range, root, p),
                        created.contains(&p),
                        "range {range:?} root {root:?} pos {p:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn borders_disjoint_from_created_and_adjacent() {
        let range = PageRange::new(3, 9);
        let root = pos(0, 16);
        let created: HashSet<NodePos> = plan(range, root).positions().collect();
        for b in borders(range, root) {
            assert!(!b.intersects(range), "border {b:?} intersects update");
            assert!(!created.contains(&b));
            // A border's parent is always a created node.
            assert!(created.contains(&b.parent()), "border {b:?} parent not created");
        }
    }

    #[test]
    fn created_plus_borders_cover_consistently() {
        // For every created inner node, each child is either created or
        // a border — never unaccounted for.
        let range = PageRange::new(5, 6);
        let root = pos(0, 16);
        let plan = plan(range, root);
        let created: HashSet<NodePos> = plan.positions().collect();
        let borders: HashSet<NodePos> = borders(range, root).into_iter().collect();
        for p in plan.positions().filter(|p| !p.is_leaf()) {
            for child in p.children() {
                assert!(
                    created.contains(&child) ^ borders.contains(&child),
                    "child {child:?} of {p:?} must be exactly one of created/border"
                );
            }
        }
    }

    #[test]
    fn border_positions_match_the_stack_walk() {
        // Every range under every root up to 256 pages, grown roots
        // (range far left of the root's middle) included.
        for depth in 0..=4 {
            let root = pos(0, FANOUT.pow(depth));
            for first in 0..root.size {
                for count in 1..=root.size - first {
                    let range = PageRange::new(first, count);
                    assert_eq!(
                        borders(range, root),
                        border_positions_by_walk(range, root),
                        "{range:?} under {root:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn update_spans_match_algorithm3_read_counts() {
        // Reading 1024 pages out of a 2^20-page blob visits what an
        // update of them creates: 1 node at each of the top 6 levels,
        // then 4, 16, 64, 256, 1024.
        let root = pos(0, 1 << 20);
        let plan = plan(PageRange::new(0, 1024), root);
        assert_eq!(plan.depth(), 11);
        assert_eq!(plan.levels[10].count(), 1, "root");
        assert_eq!(plan.levels[5].count(), 1, "level 10 spans exactly the request");
        assert_eq!(plan.levels[4].count(), 4);
        assert_eq!(plan.levels[0].count(), 1024, "leaves");
        assert_eq!(plan.node_count(), 6 + (1024 + 256 + 64 + 16 + 4));
    }

    #[test]
    fn update_spans_of_an_unaligned_chunk() {
        // A chunk straddling a big subtree boundary visits two nodes per
        // upper level instead of one.
        let plan = plan(PageRange::new(15, 2), pos(0, 64));
        let counts: Vec<u64> = plan.levels.iter().rev().map(LevelSpan::count).collect();
        assert_eq!(counts, vec![1, 2, 2, 2]);
    }

    #[test]
    fn full_tree_counts() {
        assert_eq!(full_tree_node_count(0, LEVEL_BITS), 0);
        assert_eq!(full_tree_node_count(1, LEVEL_BITS), 1);
        assert_eq!(full_tree_node_count(2, LEVEL_BITS), 3);
        assert_eq!(full_tree_node_count(4, LEVEL_BITS), 5);
        assert_eq!(full_tree_node_count(5, LEVEL_BITS), 5 + 2 + 1); // incomplete 16-span tree
        assert_eq!(full_tree_node_count(16, LEVEL_BITS), 21);
    }

    #[test]
    fn update_count_shows_power_of_fanout_step() {
        // The depth term grows by one exactly when the blob's page count
        // crosses a power of the fanout — at two children, the cause of
        // the small bandwidth dips in the paper's Figure 2(a).
        let append_pages = 16u64;
        let mut total = 0u64;
        let mut depths = Vec::new();
        for _ in 0..64 {
            let range = PageRange::new(total, append_pages);
            total += append_pages;
            depths.push(plan(range, NodePos::root_for(total)).depth());
        }
        // Depth is non-decreasing and steps up at powers of four.
        assert!(depths.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(depths[0], 3); // 16 pages
        assert_eq!(depths[1], 4); // 32 pages
        assert_eq!(depths[3], 4); // 64 pages
        assert_eq!(depths[4], 5); // 80 pages
        assert_eq!(depths[63], 6); // 1024 pages
    }

    #[test]
    #[should_panic]
    fn empty_update_rejected() {
        plan(PageRange::new(0, 0), pos(0, 4));
    }

    #[test]
    #[should_panic]
    fn root_must_cover_update() {
        plan(PageRange::new(3, 4), pos(0, 4));
    }
}
