//! Core data model for the BlobSeer reproduction.
//!
//! BlobSeer (Nicolae, Antoniu, Bougé — EDBT/DAMAP 2009) stores *binary
//! large objects* (blobs) striped into fixed-size **pages** distributed
//! over data providers, with per-snapshot metadata organised as a
//! distributed **segment tree**. This crate defines the vocabulary shared
//! by every other crate in the workspace:
//!
//! * identifiers — [`BlobId`], [`Version`], [`PageId`], [`ProviderId`],
//!   [`TenantId`];
//! * range arithmetic — [`ByteRange`], [`PageRange`], the dyadic
//!   segment-tree positions [`NodePos`], the tree's arity [`FANOUT`] and
//!   its level step [`LEVEL_BITS`];
//! * the [`PageDescriptor`] record exchanged between the metadata layer
//!   and the data-access layer (the paper's *PD* sets);
//! * store-wide [`StoreConfig`] and the common [`BlobError`] type.
//!
//! Everything here is pure data: no I/O, no locks, no global state other
//! than the monotonic id generators.

mod checksum;
mod config;
mod error;
mod ids;
mod page;
mod range;

pub use checksum::page_checksum;
pub use config::{QosConfig, StoreConfig, TenantQuota, TenantQuotaEntry, DEFAULT_PAGE_SIZE};
pub use error::{BlobError, Result};
pub use ids::{BlobId, PageId, PageIdGen, PageIdHash, PageIdHasher, ProviderId, TenantId, Version};
pub use page::{PageDescriptor, PageSlice};
pub use range::{ByteRange, NodePos, PageRange, FANOUT, LEVEL_BITS};

/// Integer ceiling division.
#[inline]
pub fn div_ceil(a: u64, b: u64) -> u64 {
    debug_assert!(b > 0);
    a.div_euclid(b) + u64::from(!a.is_multiple_of(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn div_ceil_edge_cases() {
        assert_eq!(div_ceil(0, 4), 0);
        assert_eq!(div_ceil(1, 4), 1);
        assert_eq!(div_ceil(4, 4), 1);
        assert_eq!(div_ceil(5, 4), 2);
        assert_eq!(div_ceil(8, 4), 2);
        assert_eq!(div_ceil(u64::MAX, 1), u64::MAX);
    }
}
