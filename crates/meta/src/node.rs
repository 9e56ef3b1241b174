//! Tree-node model and DHT keys.
//!
//! An inner node holds one child version per slot (`0..FANOUT`, in page
//! order, as [`NodePos::child`] names them); the codec and every walk
//! index children by slot. Four 48-bit child versions fill the three
//! value words of a DHT slot, so versions stop at [`MAX_VERSION`].

use blobseer_dht::{CellKey, CellValue};
use blobseer_types::{BlobId, NodePos, PageId, ProviderId, Version, FANOUT};

/// Bits of a child version in an inner node's encoding.
const VERSION_BITS: u32 = 48;

/// The highest version a tree node can name: `2^48 − 1`. The version
/// manager refuses to assign a higher one.
pub const MAX_VERSION: Version = Version((1 << VERSION_BITS) - 1);

/// DHT key of a tree node: "each tree node is identified uniquely by its
/// version and \[the\] range specified by the offset and size it covers"
/// (paper §4.1). We additionally scope keys by the *owning* blob so that
/// independent blobs never collide; branches resolve shared versions to
/// the ancestor owner through [`crate::Lineage`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeKey {
    /// Blob whose update created this node (lineage owner).
    pub blob: BlobId,
    /// Snapshot version whose update created this node.
    pub version: Version,
    /// Dyadic page range the node covers.
    pub pos: NodePos,
}

/// A node of the distributed segment tree.
///
/// Inner nodes "hold the version of the left child vl and the version of
/// the right child vr, while leaves hold the page id pid and the provider
/// that store\[s\] the page" (paper §4.1); here the inner node holds one
/// child version per slot. A `None` child version marks a child position
/// beyond the blob's current content — incomplete trees arise whenever
/// the page count is not a power of the fanout (e.g. paper Fig. 1(c):
/// appending a fifth page grows the root to `(0,16)`, which has no
/// pages 5..16).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeNode {
    /// An interior node: the versions of the children occupying its
    /// range's `FANOUT` equal parts.
    Inner {
        /// Version of the node at each child position, by slot.
        children: [Option<Version>; FANOUT as usize],
    },
    /// A leaf covering exactly one page.
    Leaf {
        /// Stored page id.
        pid: PageId,
        /// Data provider holding the page.
        provider: ProviderId,
        /// Valid bytes in the page (< page size only for a snapshot's
        /// final, partially-filled page).
        valid_len: u32,
    },
}

/// A node key is its four words: blob, version, offset, size.
impl CellKey for NodeKey {
    fn encode(&self) -> [u64; 4] {
        [self.blob.0, self.version.0, self.pos.offset, self.pos.size]
    }

    fn decode(w: [u64; 4]) -> Self {
        NodeKey {
            blob: BlobId(w[0]),
            version: Version(w[1]),
            pos: NodePos { offset: w[2], size: w[3] },
        }
    }
}

/// The kind bit is set for leaves. An inner node packs its `FANOUT`
/// child versions, by slot, as 48-bit fields of the three words read as
/// one 192-bit little-endian number: slot 0 is bits 0..48 of word 0,
/// slot 1 the top 16 bits of word 0 and the low 32 of word 1, slot 2
/// the top 32 bits of word 1 and the low 16 of word 2, slot 3 the top
/// 48 bits of word 2. A field of 0 is an absent child: version 0 is
/// every blob's empty snapshot, which has no tree, so no node is ever
/// owned by version 0 and no child pointer names it. A leaf is its page
/// id as two words plus `provider << 32 | valid_len`.
impl CellValue for TreeNode {
    fn encode(&self) -> (bool, [u64; 3]) {
        match *self {
            TreeNode::Inner { children } => {
                let [a, b, c, d] = children.map(|child| {
                    child.map_or(0, |v| {
                        assert!(
                            v > Version::ZERO && v <= MAX_VERSION,
                            "{v:?} does not fit a tree node's child field"
                        );
                        v.0
                    })
                });
                (false, [a | b << 48, b >> 16 | c << 32, c >> 32 | d << 16])
            }
            TreeNode::Leaf { pid, provider, valid_len } => (
                true,
                [
                    pid.0 as u64,
                    (pid.0 >> 64) as u64,
                    u64::from(provider.0) << 32 | u64::from(valid_len),
                ],
            ),
        }
    }

    fn decode(leaf: bool, w: [u64; 3]) -> Self {
        if leaf {
            TreeNode::Leaf {
                pid: PageId(u128::from(w[0]) | u128::from(w[1]) << 64),
                provider: ProviderId((w[2] >> 32) as u32),
                valid_len: w[2] as u32,
            }
        } else {
            let fields = [w[0], w[0] >> 48 | w[1] << 16, w[1] >> 32 | w[2] << 32, w[2] >> 16];
            TreeNode::Inner {
                children: fields.map(|f| Some(f & MAX_VERSION.0).filter(|&v| v != 0).map(Version)),
            }
        }
    }
}

/// A snapshot's tree root: the version plus the dyadic position its root
/// node covers. Handed to readers by the version manager (which tracks
/// per-version sizes and therefore root spans).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RootRef {
    /// Snapshot version the root belongs to.
    pub version: Version,
    /// Position covered by the root node (always offset 0).
    pub pos: NodePos,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_codecs_round_trip() {
        let key = NodeKey { blob: BlobId(3), version: Version(u64::MAX), pos: NodePos::new(8, 8) };
        assert_eq!(NodeKey::decode(key.encode()), key);
        let leaves = [
            TreeNode::Leaf {
                pid: PageId(u128::MAX - 1),
                provider: ProviderId(u32::MAX),
                valid_len: 7,
            },
            TreeNode::Leaf { pid: PageId(0), provider: ProviderId(0), valid_len: u32::MAX },
        ];
        for node in leaves {
            let (kind, words) = node.encode();
            assert_eq!(TreeNode::decode(kind, words), node);
        }
        // Every presence pattern, with each present child at the top of
        // the version range, at its bottom, and at values whose bits
        // differ per slot (so a field read from a neighbour's bits
        // shows).
        let max = MAX_VERSION.0;
        for values in [[max; 4], [1; 4], [0x8000_0000_0001, 0x1234_5678_9abc, max - 1, 0xffff_0000]]
        {
            for pattern in 0u32..1 << FANOUT {
                let children = std::array::from_fn(|slot| {
                    (pattern >> slot & 1 == 1).then_some(Version(values[slot]))
                });
                let node = TreeNode::Inner { children };
                let (kind, words) = node.encode();
                assert!(!kind);
                assert_eq!(TreeNode::decode(kind, words), node, "pattern {pattern:04b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn a_version_past_48_bits_is_refused_not_truncated() {
        let children = [Some(Version(MAX_VERSION.0 + 1)), None, None, None];
        TreeNode::Inner { children }.encode();
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn version_0_is_not_a_child() {
        TreeNode::Inner { children: [None, Some(Version::ZERO), None, None] }.encode();
    }

    #[test]
    fn keys_are_distinct_per_blob_version_pos() {
        let a = NodeKey { blob: BlobId(1), version: Version(1), pos: NodePos::new(0, 4) };
        let b = NodeKey { blob: BlobId(2), ..a };
        let c = NodeKey { version: Version(2), ..a };
        let d = NodeKey { pos: NodePos::new(4, 4), ..a };
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }
}
