//! Distributed segment-tree metadata (paper §4).
//!
//! Metadata in BlobSeer maps any `(version, offset, size)` request to the
//! pages holding that data. It is organised as a **segment tree per
//! snapshot version**: a tree over dyadic page ranges, `FANOUT` = 4
//! children per inner node (the paper draws two; its simulator twin
//! keeps them), whose leaves name pages and whose inner nodes record,
//! for each child slot, the *version* of the node occupying the child
//! position. Trees of
//! successive versions **share** all subtrees that the newer update did
//! not touch — new nodes are "weaved" with old ones (paper Fig. 1) —
//! which is what makes versioning cheap in both space and time.
//!
//! Layout of this crate:
//!
//! * [`node`] — tree-node model and DHT keys;
//! * [`lineage`] — blob ancestry for cheap branching (BRANCH shares all
//!   metadata up to the branch point);
//! * [`plan`] — **pure** planners computing which tree positions an
//!   update creates (which a read of the same range visits) and which
//!   positions border it, for a tree of any power-of-two arity. Used by
//!   both the real engine (four children) and the network simulator
//!   (the paper's two), so simulated costs follow the real tree math;
//! * [`store`] — typed facade over the DHT (`blobseer-dht`): one slab
//!   of write-once slots per update, in [`plan::SlabLayout`] order;
//! * [`read`] — `READ_META` (paper Algorithm 3);
//! * [`build`] — `BUILD_META` (paper Algorithm 4) including border-set
//!   resolution — one descent of the latest published tree along the
//!   update's two boundary paths — plus the version manager's overrides
//!   for in-flight concurrent updates (§4.2).

pub mod build;
pub mod lineage;
pub mod node;
pub mod plan;
pub mod read;
pub mod store;

pub use build::{build_meta, UpdateContext};
pub use lineage::Lineage;
pub use node::{NodeKey, RootRef, TreeNode, MAX_VERSION};
pub use plan::{update_plan, SlabLayout, UpdatePlan};
pub use read::{collect_tree_pages, read_meta, read_meta_multi, read_meta_page, TreeReader};
pub use store::{MetaStore, SelfHelpHook};
