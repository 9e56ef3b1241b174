//! Range arithmetic: byte ranges, page ranges and dyadic tree positions.
//!
//! BlobSeer addresses blob content in three coordinate systems:
//!
//! 1. **bytes** — the client API works on `(offset, size)` byte ranges
//!    ([`ByteRange`]);
//! 2. **pages** — data is striped into fixed-size pages; a byte range
//!    maps to the half-open page-index interval that covers it
//!    ([`PageRange`]);
//! 3. **dyadic positions** — segment-tree nodes cover power-of-two-sized,
//!    self-aligned page ranges ([`NodePos`]); the tree of snapshot `v`
//!    is rooted at [`NodePos::root_for`]`(pages(v))`.
//!
//! The engine's tree has one arity, [`FANOUT`] = 4: a tree level is
//! [`LEVEL_BITS`] = 2 bits of page index, so node sizes are powers of
//! four and a position's [`NodePos::level`] (`log2(size)`) is always a
//! multiple of `LEVEL_BITS`. An inner node's range splits into `FANOUT`
//! equal children, named by their **slot** `0..FANOUT` in page order,
//! and every walk goes through the slot helpers ([`NodePos::child`],
//! [`NodePos::children`], [`NodePos::slot`], [`NodePos::slot_toward`]).
//! The paper draws a binary tree (§4.1); its simulator twin keeps one by
//! planning with a level step of 1 bit (`blobseer_meta::plan`).
//!
//! Keeping the tree coordinates in *pages* (not bytes) makes every
//! alignment argument in the paper's Algorithms 3 & 4 an exact integer
//! statement, with no overflow for blobs up to 2^63 pages.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A byte range `[offset, offset + size)` within a blob snapshot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ByteRange {
    /// First byte covered.
    pub offset: u64,
    /// Number of bytes covered (may be 0: the empty range).
    pub size: u64,
}

impl ByteRange {
    /// Construct a byte range.
    #[inline]
    pub fn new(offset: u64, size: u64) -> Self {
        ByteRange { offset, size }
    }

    /// One past the last byte covered.
    #[inline]
    pub fn end(self) -> u64 {
        self.offset + self.size
    }

    /// `true` when the range covers no bytes.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.size == 0
    }

    /// `true` when the two ranges share at least one byte.
    #[inline]
    pub fn intersects(self, other: ByteRange) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.offset < other.end()
            && other.offset < self.end()
    }

    /// The common sub-range, or `None` when disjoint.
    #[inline]
    pub fn intersect(self, other: ByteRange) -> Option<ByteRange> {
        let lo = self.offset.max(other.offset);
        let hi = self.end().min(other.end());
        (lo < hi).then(|| ByteRange::new(lo, hi - lo))
    }

    /// `true` when `other` lies entirely within `self`.
    #[inline]
    pub fn contains(self, other: ByteRange) -> bool {
        other.is_empty() || (other.offset >= self.offset && other.end() <= self.end())
    }

    /// The half-open page-index interval covering this byte range.
    ///
    /// `psize` is the page size in bytes. The empty range maps to an
    /// empty page range at the containing page index.
    #[inline]
    pub fn pages(self, psize: u64) -> PageRange {
        debug_assert!(psize > 0);
        if self.is_empty() {
            return PageRange::new(self.offset / psize, 0);
        }
        let first = self.offset / psize;
        let last = (self.end() - 1) / psize;
        PageRange::new(first, last - first + 1)
    }

    /// `true` when both ends fall on page boundaries.
    #[inline]
    pub fn is_page_aligned(self, psize: u64) -> bool {
        self.offset.is_multiple_of(psize) && self.end().is_multiple_of(psize)
    }
}

impl fmt::Debug for ByteRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})B", self.offset, self.end())
    }
}

/// A half-open interval of page indices `[first, first + count)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PageRange {
    /// Index of the first page covered.
    pub first: u64,
    /// Number of pages covered (may be 0).
    pub count: u64,
}

impl PageRange {
    /// Construct a page range.
    #[inline]
    pub fn new(first: u64, count: u64) -> Self {
        PageRange { first, count }
    }

    /// One past the last page index covered.
    #[inline]
    pub fn end(self) -> u64 {
        self.first + self.count
    }

    /// `true` when the range covers no pages.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.count == 0
    }

    /// Index of the last page covered; `None` when empty.
    #[inline]
    pub fn last(self) -> Option<u64> {
        (!self.is_empty()).then(|| self.end() - 1)
    }

    /// `true` when the two ranges share at least one page.
    #[inline]
    pub fn intersects(self, other: PageRange) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.first < other.end()
            && other.first < self.end()
    }

    /// The common sub-range, or `None` when disjoint.
    #[inline]
    pub fn intersect(self, other: PageRange) -> Option<PageRange> {
        let lo = self.first.max(other.first);
        let hi = self.end().min(other.end());
        (lo < hi).then(|| PageRange::new(lo, hi - lo))
    }

    /// `true` when page index `p` falls within the range.
    #[inline]
    pub fn contains_page(self, p: u64) -> bool {
        p >= self.first && p < self.end()
    }

    /// Iterate over covered page indices.
    #[inline]
    pub fn iter(self) -> impl Iterator<Item = u64> {
        self.first..self.end()
    }

    /// The byte range spanned by these pages.
    #[inline]
    pub fn bytes(self, psize: u64) -> ByteRange {
        ByteRange::new(self.first * psize, self.count * psize)
    }
}

impl fmt::Debug for PageRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})P", self.first, self.end())
    }
}

/// Bits of page index per tree level: `log2(FANOUT)`.
pub const LEVEL_BITS: u32 = 2;

/// Children per inner node of the segment tree.
pub const FANOUT: u64 = 1 << LEVEL_BITS;

/// A segment-tree node position: a *dyadic* page range.
///
/// Positions satisfy two invariants, checked in debug builds:
/// `size` is a power of two (of four, in the engine's tree), and
/// `offset` is a multiple of `size`
/// (self-alignment). Under these invariants any two positions are either
/// disjoint or nested — the property that makes the paper's tree-weaving
/// well defined: a tree position is occupied by exactly one node per
/// version, and sharing a subtree is sharing all positions below it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodePos {
    /// First page covered (multiple of `size`).
    pub offset: u64,
    /// Number of pages covered (power of two, ≥ 1).
    pub size: u64,
}

impl NodePos {
    /// Construct a position, checking the dyadic invariants in debug builds.
    #[inline]
    pub fn new(offset: u64, size: u64) -> Self {
        debug_assert!(size.is_power_of_two(), "node size {size} not a power of two");
        debug_assert!(offset.is_multiple_of(size), "node offset {offset} not aligned to {size}");
        NodePos { offset, size }
    }

    /// The root position for a snapshot holding `pages` pages: the least
    /// power of [`FANOUT`] that is at least `pages` (1 for none).
    #[inline]
    pub fn root_for(pages: u64) -> Self {
        NodePos::root_for_step(pages, LEVEL_BITS)
    }

    /// The root position over `pages` pages in a tree whose levels are
    /// `bits` bits of page index apart: the least power of `2^bits`
    /// that is at least `pages` (1 for none). The engine's tree is
    /// [`NodePos::root_for`]; the simulator's binary one takes 1.
    #[inline]
    pub fn root_for_step(pages: u64, bits: u32) -> Self {
        let level = pages.max(1).next_power_of_two().trailing_zeros().next_multiple_of(bits);
        NodePos::new(0, 1 << level)
    }

    /// `true` when this position covers a single page.
    #[inline]
    pub fn is_leaf(self) -> bool {
        self.size == 1
    }

    /// Tree level: 0 for leaves, `log2(size)` in general, so a level
    /// step down is [`LEVEL_BITS`].
    #[inline]
    pub fn level(self) -> u32 {
        self.size.trailing_zeros()
    }

    /// The child position in `slot` (`< FANOUT`): the `slot`-th of this
    /// range's `FANOUT` equal parts, in page order.
    ///
    /// Panics in debug builds when called on a leaf.
    #[inline]
    pub fn child(self, slot: usize) -> NodePos {
        debug_assert!(!self.is_leaf() && (slot as u64) < FANOUT);
        let size = self.size / FANOUT;
        NodePos::new(self.offset + slot as u64 * size, size)
    }

    /// The child positions, slot 0 first.
    #[inline]
    pub fn children(self) -> impl Iterator<Item = NodePos> {
        (0..FANOUT as usize).map(move |slot| self.child(slot))
    }

    /// The slot this position occupies under its parent: `offset /
    /// size` modulo `FANOUT` (paper, binary: left iff `offset % (2 ×
    /// size) == 0`).
    #[inline]
    pub fn slot(self) -> usize {
        ((self.offset >> self.level()) % FANOUT) as usize
    }

    /// The slot of the child (of this inner node) under which page `p`
    /// lies.
    #[inline]
    pub fn slot_toward(self, p: u64) -> usize {
        debug_assert!(!self.is_leaf() && self.contains_page(p));
        ((p - self.offset) >> (self.size / FANOUT).trailing_zeros()) as usize
    }

    /// Parent position (Algorithm 4, lines 13-18).
    #[inline]
    pub fn parent(self) -> NodePos {
        NodePos::new(self.offset - self.slot() as u64 * self.size, self.size * FANOUT)
    }

    /// The page range covered.
    #[inline]
    pub fn page_range(self) -> PageRange {
        PageRange::new(self.offset, self.size)
    }

    /// One past the last page covered.
    #[inline]
    pub fn end(self) -> u64 {
        self.offset + self.size
    }

    /// `true` when the covered range shares a page with `r`.
    #[inline]
    pub fn intersects(self, r: PageRange) -> bool {
        self.page_range().intersects(r)
    }

    /// `true` when `other`'s range nests inside this position's range.
    #[inline]
    pub fn contains(self, other: NodePos) -> bool {
        other.offset >= self.offset && other.end() <= self.end()
    }

    /// `true` when page `p` falls under this position.
    #[inline]
    pub fn contains_page(self, p: u64) -> bool {
        p >= self.offset && p < self.end()
    }
}

impl fmt::Debug for NodePos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.offset, self.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_range_basics() {
        let r = ByteRange::new(10, 20);
        assert_eq!(r.end(), 30);
        assert!(!r.is_empty());
        assert!(ByteRange::new(5, 0).is_empty());
        assert!(r.intersects(ByteRange::new(29, 1)));
        assert!(!r.intersects(ByteRange::new(30, 1)));
        assert!(!r.intersects(ByteRange::new(0, 10)));
        assert!(!r.intersects(ByteRange::new(15, 0)), "empty never intersects");
        assert_eq!(r.intersect(ByteRange::new(25, 100)), Some(ByteRange::new(25, 5)));
        assert_eq!(r.intersect(ByteRange::new(30, 5)), None);
        assert!(r.contains(ByteRange::new(10, 20)));
        assert!(r.contains(ByteRange::new(15, 5)));
        assert!(!r.contains(ByteRange::new(5, 10)));
        assert!(r.contains(ByteRange::new(999, 0)), "empty contained anywhere");
    }

    #[test]
    fn byte_to_page_mapping() {
        let psize = 4;
        assert_eq!(ByteRange::new(0, 4).pages(psize), PageRange::new(0, 1));
        assert_eq!(ByteRange::new(0, 5).pages(psize), PageRange::new(0, 2));
        assert_eq!(ByteRange::new(3, 2).pages(psize), PageRange::new(0, 2));
        assert_eq!(ByteRange::new(4, 4).pages(psize), PageRange::new(1, 1));
        assert_eq!(ByteRange::new(7, 1).pages(psize), PageRange::new(1, 1));
        assert_eq!(ByteRange::new(8, 0).pages(psize).count, 0);
    }

    #[test]
    fn page_alignment() {
        assert!(ByteRange::new(0, 8).is_page_aligned(4));
        assert!(ByteRange::new(4, 8).is_page_aligned(4));
        assert!(!ByteRange::new(1, 8).is_page_aligned(4));
        assert!(!ByteRange::new(0, 7).is_page_aligned(4));
    }

    #[test]
    fn page_range_basics() {
        let r = PageRange::new(2, 3);
        assert_eq!(r.end(), 5);
        assert_eq!(r.last(), Some(4));
        assert_eq!(PageRange::new(9, 0).last(), None);
        assert!(r.contains_page(2));
        assert!(r.contains_page(4));
        assert!(!r.contains_page(5));
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(r.intersect(PageRange::new(4, 10)), Some(PageRange::new(4, 1)));
        assert_eq!(r.bytes(4), ByteRange::new(8, 12));
    }

    #[test]
    fn node_pos_navigation() {
        // A 16-page tree: the root's children cover 4 pages each.
        let root = NodePos::root_for(16);
        assert_eq!(root, NodePos::new(0, 16));
        assert_eq!(root.child(0), NodePos::new(0, 4));
        assert_eq!(root.child(3), NodePos::new(12, 4));
        assert_eq!(root.child(1).child(2), NodePos::new(6, 1));
        assert_eq!(root.child(3).child(3), NodePos::new(15, 1));
        assert_eq!(
            root.children().collect::<Vec<_>>(),
            (0..FANOUT).map(|i| NodePos::new(4 * i, 4)).collect::<Vec<_>>()
        );
        assert!(root.child(0).child(0).is_leaf());
        assert_eq!(root.level(), 2 * LEVEL_BITS);
        assert_eq!(NodePos::new(3, 1).level(), 0);
    }

    #[test]
    fn node_pos_parent_inverts_children() {
        let root = NodePos::new(0, 64);
        for pos in root.children().chain(root.children().flat_map(NodePos::children)) {
            assert_eq!(pos.parent().child(pos.slot()), pos);
        }
    }

    #[test]
    fn node_pos_slot_detection() {
        for (offset, slot) in [(0, 0), (4, 1), (8, 2), (12, 3), (16, 0), (28, 3)] {
            assert_eq!(NodePos::new(offset, 4).slot(), slot, "({offset}, 4)");
        }
        assert_eq!(NodePos::new(0, 1).slot(), 0);
        assert_eq!(NodePos::new(6, 1).slot(), 2);
        assert_eq!(NodePos::new(7, 1).slot(), 3);
    }

    #[test]
    fn node_pos_root_growth_matches_figure_1c() {
        // Fig 1(c), at four children: appending a 5th page to a 4-page
        // blob grows the root from (0,4) to (0,16), whose first child is
        // the old root.
        assert_eq!(NodePos::root_for(4), NodePos::new(0, 4));
        let grown = NodePos::root_for(5);
        assert_eq!(grown, NodePos::new(0, 16));
        assert_eq!(grown.child(0), NodePos::new(0, 4));
        for (pages, size) in [
            (0, 1),
            (1, 1),
            (2, 4),
            (3, 4),
            (5, 16),
            (17, 64),
            (1023, 1024),
            (1024, 1024),
            (1025, 4096),
        ] {
            assert_eq!(NodePos::root_for(pages), NodePos::new(0, size), "{pages} pages");
        }
    }

    #[test]
    fn node_pos_slot_toward() {
        let root = NodePos::new(0, 16);
        for (page, slot) in [(0, 0), (3, 0), (4, 1), (9, 2), (12, 3), (15, 3)] {
            assert_eq!(root.slot_toward(page), slot, "page {page}");
        }
        assert_eq!(NodePos::new(4, 4).slot_toward(5), 1);
        assert_eq!(NodePos::new(4, 4).slot_toward(7), 3);
    }

    #[test]
    fn node_pos_intersects_and_contains() {
        let n = NodePos::new(4, 4);
        assert!(n.intersects(PageRange::new(7, 2)));
        assert!(!n.intersects(PageRange::new(8, 2)));
        assert!(!n.intersects(PageRange::new(0, 4)));
        assert!(n.contains(NodePos::new(6, 2)));
        assert!(n.contains(n));
        assert!(!n.contains(NodePos::new(0, 8)));
    }
}
