//! Distributed segment-tree metadata (paper §4).
//!
//! Metadata in BlobSeer maps any `(version, offset, size)` request to the
//! pages holding that data. It is organised as a **segment tree per
//! snapshot version**: a binary tree over dyadic page ranges whose
//! leaves name pages and whose inner nodes record, for each child, the
//! *version* of the node occupying the child position. Trees of
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
//!   update creates, which positions border it, and which positions a
//!   read visits. Used by both the real engine and the network
//!   simulator, so simulated costs follow the real tree math;
//! * [`store`] — typed facade over the DHT (`blobseer-dht`);
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
pub use node::{NodeKey, RootRef, TreeNode};
pub use plan::{read_plan, update_plan, ReadPlan, UpdatePlan};
pub use read::{collect_tree_pages, read_meta, read_meta_multi, TreeReader};
pub use store::{MetaStore, SelfHelpHook};
