//! Tree-node model and DHT keys.
//!
//! An inner node holds one child version per slot (`0..FANOUT`, in page
//! order, as [`NodePos::child`] names them); the codec and every walk
//! index children by slot.

use blobseer_dht::{CellKey, CellValue};
use blobseer_types::{BlobId, NodePos, PageId, ProviderId, Version, FANOUT};

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
/// the page count is not a power of two (e.g. paper Fig. 1(c), where the
/// grown root `(0,8)` has no pages 5..8).
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

/// The kind bit is set for leaves. An inner node is one word per child
/// version, by slot, plus a word of presence bits (bit `i` for slot
/// `i`); a leaf is its page id as two words plus
/// `provider << 32 | valid_len`.
impl CellValue for TreeNode {
    fn encode(&self) -> (bool, [u64; 3]) {
        match *self {
            TreeNode::Inner { children } => {
                // One word per child and a presence word fill the three.
                const _: () = assert!(FANOUT == 2);
                let mut w = [0; 3];
                for (slot, child) in children.iter().enumerate() {
                    if let Some(v) = child {
                        w[slot] = v.0;
                        w[2] |= 1 << slot;
                    }
                }
                (false, w)
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
            TreeNode::Inner {
                children: std::array::from_fn(|slot| {
                    (w[2] >> slot & 1 != 0).then_some(Version(w[slot]))
                }),
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
        let nodes = [
            TreeNode::Inner { children: [Some(Version(0)), None] },
            TreeNode::Inner { children: [None, Some(Version(u64::MAX))] },
            TreeNode::Inner { children: [None, None] },
            TreeNode::Leaf {
                pid: PageId(u128::MAX - 1),
                provider: ProviderId(u32::MAX),
                valid_len: 7,
            },
            TreeNode::Leaf { pid: PageId(0), provider: ProviderId(0), valid_len: u32::MAX },
        ];
        for node in nodes {
            let (kind, words) = node.encode();
            assert_eq!(TreeNode::decode(kind, words), node);
        }
    }

    #[test]
    fn keys_are_distinct_per_blob_version_pos() {
        let a = NodeKey { blob: BlobId(1), version: Version(1), pos: NodePos::new(0, 2) };
        let b = NodeKey { blob: BlobId(2), ..a };
        let c = NodeKey { version: Version(2), ..a };
        let d = NodeKey { pos: NodePos::new(2, 2), ..a };
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }
}
