//! Pure tree planners: which positions an update creates and which
//! positions border it. A read of a page range visits exactly the
//! positions an update of that range would create (Algorithm 3 explores
//! a node iff its range intersects the request), so [`update_plan`]'s
//! spans, taken root first, are a read's plan too.
//!
//! Positions are [`NodePos`]es and children are named by slot
//! (`0..FANOUT`); a level is one bit of page index. The formulas that
//! hold only for two children — one level per bit in [`update_plan`],
//! the popcount in [`shifted_sum`], one border per side in
//! [`borders_at_level`] — each assert `FANOUT == 2`.
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
//!   *planned* node counts, so simulated metadata overhead (including
//!   the power-of-two step-downs visible in the paper's Figure 2(a))
//!   follows the real tree math.

use blobseer_types::{NodePos, PageRange, FANOUT};

/// The contiguous run of tree positions an update creates at one level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelSpan {
    /// Tree level (0 = leaves).
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
/// (and including) the root". Because the updated page range is
/// contiguous, the created positions at each level form one contiguous
/// index interval — which is why the whole plan is a `Vec<LevelSpan>`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdatePlan {
    /// Updated page range.
    pub range: PageRange,
    /// Root position of the new tree.
    pub root: NodePos,
    /// Created positions, one span per level, leaves first.
    pub levels: Vec<LevelSpan>,
}

impl UpdatePlan {
    /// Total tree nodes created by the update.
    pub fn node_count(&self) -> u64 {
        self.levels.iter().map(LevelSpan::count).sum()
    }

    /// Tree depth (number of levels, root included).
    pub fn depth(&self) -> u32 {
        self.root.level() + 1
    }

    /// Iterate all created positions, leaves first.
    pub fn positions(&self) -> impl Iterator<Item = NodePos> + '_ {
        self.levels.iter().flat_map(LevelSpan::positions)
    }
}

/// Plan the positions created by updating `range` in a tree rooted at
/// `root` (the root position *after* the update).
pub fn update_plan(range: PageRange, root: NodePos) -> UpdatePlan {
    // One span per level, and a level is one bit of page index.
    const _: () = assert!(FANOUT == 2);
    assert!(!range.is_empty(), "updates cover at least one page");
    assert!(
        root.contains_page(range.last().expect("non-empty")),
        "root {root:?} does not cover update {range:?}"
    );
    let last = range.last().expect("non-empty");
    let levels = (0..=root.level())
        .map(|level| LevelSpan {
            level,
            first_index: range.first >> level,
            last_index: last >> level,
        })
        .collect();
    UpdatePlan { range, root, levels }
}

/// Where an update's nodes sit in its slab (`blobseer_dht::Slabs`): in
/// [`UpdatePlan::positions`] order — leaves first, then level by level —
/// by rank arithmetic, with no search and no stored key. The slab
/// header keeps it as two words: the first page, and the last page's
/// distance from it beside the root level.
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

/// `Σ_{j<k} (x >> j)`, in closed form: the sum over every `j ≥ 0` is
/// `2x − popcount(x)`, and the terms from `k` on are that sum for
/// `x >> k`. Exact whenever the result fits a word, as it does for any
/// page index (below `2^63`).
pub fn shifted_sum(x: u64, k: u32) -> u64 {
    const _: () = assert!(FANOUT == 2);
    let all = |x: u64| x.wrapping_mul(2).wrapping_sub(u64::from(x.count_ones()));
    all(x).wrapping_sub(all(x.checked_shr(k).unwrap_or(0)))
}

impl SlabLayout {
    /// The layout of [`update_plan`]`(range, root)`.
    pub fn new(range: PageRange, root: NodePos) -> Self {
        let last = range.last().expect("updates cover at least one page");
        debug_assert!(root.contains_page(last), "root {root:?} does not cover update {range:?}");
        SlabLayout { first: range.first, last, root_level: root.level() }
    }

    /// Slots before level `k`: `Σ_{j<k} ((last>>j) − (first>>j) + 1)`.
    fn before(&self, k: u32) -> u64 {
        shifted_sum(self.last, k) - shifted_sum(self.first, k) + u64::from(k)
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
        (k <= self.root_level && (lo..=hi).contains(&i)).then(|| (self.before(k) + i - lo) as usize)
    }

    /// The position in slot `rank`: the inverse of [`SlabLayout::rank`].
    pub fn position(&self, rank: usize) -> Option<NodePos> {
        let rank = rank as u64;
        let k = (0..=self.root_level).rev().find(|&k| self.before(k) <= rank)?;
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
        self.before(self.root_level + 1) as usize
    }
}

/// `true` when an update of `range` under `root` creates a node at
/// `pos`. Used by the version manager to decide whether an *in-flight*
/// update will supply a border node for a newer writer (paper §4.2).
pub fn creates_position(range: PageRange, root: NodePos, pos: NodePos) -> bool {
    root.contains(pos) && pos.intersects(range)
}

/// The border positions of an update of pages `first..=last` at one
/// `level` below the root, as `[before, after]`.
///
/// The created nodes at `level` are indices `first >> level ..= last >>
/// level`; their parents' other children are the borders. So there is a
/// border before the update, in slot 0 beside `first`'s ancestor, iff
/// that ancestor sits in slot 1 (bit `level` of `first` is 1), and one
/// after it, in slot 1 beside `last`'s ancestor, iff that ancestor sits
/// in slot 0 (bit `level` of `last` is 0). Every border before hangs
/// off the root-to-`first` path and every border after off the
/// root-to-`last` path, which is what lets the writer resolve them all
/// in one descent.
pub fn borders_at_level(first: u64, last: u64, level: u32) -> [Option<NodePos>; 2] {
    const _: () = assert!(FANOUT == 2);
    let size = 1u64 << level;
    let (lo, hi) = (first >> level, last >> level);
    [
        (lo & 1 == 1).then(|| NodePos::new((lo - 1) << level, size)),
        (hi & 1 == 0).then(|| NodePos::new((hi + 1) << level, size)),
    ]
}

/// The border positions of an update: children of created inner nodes
/// that the update itself does not create (paper §4.2's set `B_vw`).
/// Ordered top-down, then by offset. Positions may lie beyond the
/// blob's content; the resolver decides whether they map to an existing
/// node or to a `None` child.
pub fn border_positions(range: PageRange, root: NodePos) -> Vec<NodePos> {
    let last = range.last().expect("updates cover at least one page");
    let mut out = Vec::with_capacity(2 * root.level() as usize);
    for level in (0..root.level()).rev() {
        out.extend(borders_at_level(range.first, last, level).into_iter().flatten());
    }
    out
}

/// The original stack walk behind [`border_positions`], kept as its
/// test oracle: visit every created node, collect its uncreated
/// children, then sort.
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

/// Nodes in a *complete* (from-scratch) tree over `pages` pages — the
/// cost of the naive rebuild the paper rejects (§4.1: "rebuilding a full
/// tree for subsequent updates would be space- and time-inefficient").
pub fn full_tree_node_count(pages: u64) -> u64 {
    if pages == 0 {
        return 0;
    }
    update_plan(PageRange::new(0, pages), NodePos::root_for(pages)).node_count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pos(offset: u64, size: u64) -> NodePos {
        NodePos::new(offset, size)
    }

    #[test]
    fn figure_1a_initial_write() {
        // Fig 1(a): write of 4 pages to an empty blob — full 4-page tree.
        let plan = update_plan(PageRange::new(0, 4), pos(0, 4));
        assert_eq!(plan.node_count(), 7);
        assert_eq!(plan.depth(), 3);
        let all: Vec<NodePos> = plan.positions().collect();
        assert_eq!(
            all,
            vec![pos(0, 1), pos(1, 1), pos(2, 1), pos(3, 1), pos(0, 2), pos(2, 2), pos(0, 4),]
        );
        assert!(border_positions(PageRange::new(0, 4), pos(0, 4)).is_empty());
    }

    #[test]
    fn figure_1b_overwrite_two_middle_pages() {
        // Fig 1(b): overwrite pages 1..3 of the 4-page blob. Grey nodes:
        // (1,1), (2,1), (0,2), (2,2), (0,4).
        let range = PageRange::new(1, 2);
        let plan = update_plan(range, pos(0, 4));
        let all: Vec<NodePos> = plan.positions().collect();
        assert_eq!(all, vec![pos(1, 1), pos(2, 1), pos(0, 2), pos(2, 2), pos(0, 4)]);
        // Borders: the white leaves (0,1) and (3,1) get weaved in.
        assert_eq!(border_positions(range, pos(0, 4)), vec![pos(0, 1), pos(3, 1)]);
    }

    #[test]
    fn figure_1c_append_grows_root() {
        // Fig 1(c): append one page (index 4) — root grows to (0,8); the
        // old root (0,4) becomes the left child of the new root.
        let range = PageRange::new(4, 1);
        let plan = update_plan(range, pos(0, 8));
        let all: Vec<NodePos> = plan.positions().collect();
        assert_eq!(all, vec![pos(4, 1), pos(4, 2), pos(4, 4), pos(0, 8)]);
        // Borders: old root (0,4), then the empty right siblings.
        assert_eq!(border_positions(range, pos(0, 8)), vec![pos(0, 4), pos(6, 2), pos(5, 1)]);
    }

    #[test]
    fn creates_position_matches_plan() {
        for (range, root) in [
            (PageRange::new(1, 2), pos(0, 4)),
            (PageRange::new(4, 1), pos(0, 8)),
            (PageRange::new(3, 9), pos(0, 16)),
        ] {
            let plan = update_plan(range, root);
            let created: std::collections::HashSet<NodePos> = plan.positions().collect();
            // Every dyadic position under the root is classified correctly.
            for level in 0..=root.level() {
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
        let plan = update_plan(range, root);
        let created: std::collections::HashSet<NodePos> = plan.positions().collect();
        for b in border_positions(range, root) {
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
        let plan = update_plan(range, root);
        let created: std::collections::HashSet<NodePos> = plan.positions().collect();
        let borders: std::collections::HashSet<NodePos> =
            border_positions(range, root).into_iter().collect();
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
        // Every range under every root up to 128 pages, grown roots
        // (range far left of the root's middle) included.
        for level in 0..=7 {
            let root = pos(0, 1 << level);
            for first in 0..root.size {
                for count in 1..=root.size - first {
                    let range = PageRange::new(first, count);
                    assert_eq!(
                        border_positions(range, root),
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
        // update of them creates: 1 node at each of the top 11 levels,
        // then 2, 4, ..., 1024.
        let root = pos(0, 1 << 20);
        let plan = update_plan(PageRange::new(0, 1024), root);
        assert_eq!(plan.depth(), 21);
        assert_eq!(plan.levels[20].count(), 1, "root");
        assert_eq!(plan.levels[10].count(), 1, "level 10 spans exactly the request");
        assert_eq!(plan.levels[9].count(), 2);
        assert_eq!(plan.levels[0].count(), 1024, "leaves");
        assert_eq!(plan.node_count(), 11 + (2048 - 2));
    }

    #[test]
    fn update_spans_of_an_unaligned_chunk() {
        // A chunk straddling a big subtree boundary visits two nodes per
        // upper level instead of one.
        let root = pos(0, 16);
        let plan = update_plan(PageRange::new(7, 2), root);
        let counts: Vec<u64> = plan.levels.iter().rev().map(LevelSpan::count).collect();
        assert_eq!(counts, vec![1, 2, 2, 2, 2]);
    }

    #[test]
    fn full_tree_counts() {
        assert_eq!(full_tree_node_count(0), 0);
        assert_eq!(full_tree_node_count(1), 1);
        assert_eq!(full_tree_node_count(2), 3);
        assert_eq!(full_tree_node_count(4), 7);
        assert_eq!(full_tree_node_count(5), 5 + 3 + 2 + 1); // incomplete 8-span tree
        assert_eq!(full_tree_node_count(8), 15);
    }

    #[test]
    fn update_count_shows_power_of_two_step() {
        // The depth term grows by one exactly when the blob's page count
        // crosses a power of two — the cause of the small bandwidth dips
        // in the paper's Figure 2(a).
        let append_pages = 16u64;
        let mut total = 0u64;
        let mut depths = Vec::new();
        for _ in 0..64 {
            let range = PageRange::new(total, append_pages);
            total += append_pages;
            let root = NodePos::root_for(total);
            let plan = update_plan(range, root);
            depths.push(plan.depth());
        }
        // Depth is non-decreasing and steps up at powers of two.
        assert!(depths.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(depths[0], 5); // 16 pages
        assert_eq!(depths[1], 6); // 32 pages
        assert_eq!(depths[3], 7); // 64 pages
        assert_eq!(depths[63], 11); // 1024 pages
    }

    #[test]
    #[should_panic]
    fn empty_update_rejected() {
        update_plan(PageRange::new(0, 0), pos(0, 4));
    }

    #[test]
    #[should_panic]
    fn root_must_cover_update() {
        update_plan(PageRange::new(3, 4), pos(0, 4));
    }
}
