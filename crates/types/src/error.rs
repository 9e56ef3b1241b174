//! The common error type for all BlobSeer crates.

use std::fmt;

use crate::{BlobId, PageId, ProviderId, TenantId, Version};

/// Result alias used across the workspace.
pub type Result<T> = std::result::Result<T, BlobError>;

/// Errors surfaced by the BlobSeer public API and its substrates.
///
/// The paper's primitives fail in well-defined situations (§2.1): a
/// `READ` of an unpublished version, a `READ` beyond the snapshot size,
/// a `WRITE` whose offset exceeds the previous snapshot size, a `BRANCH`
/// from an unpublished version. The remaining variants cover substrate
/// faults (missing pages/metadata, timeouts) that the paper's prototype
/// would surface as RPC failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlobError {
    /// The blob id is not registered with the version manager.
    BlobNotFound(BlobId),
    /// The version has not been published yet (READ/GET_SIZE/BRANCH).
    VersionNotPublished { blob: BlobId, version: Version },
    /// The version exceeds anything ever assigned for this blob.
    VersionUnknown { blob: BlobId, version: Version },
    /// WRITE offset beyond the size of the previous snapshot (§2.1:
    /// "the WRITE primitive fails if the specified offset is larger than
    /// the total size of the snapshot vw − 1").
    WriteBeyondEnd { blob: BlobId, offset: u64, snapshot_size: u64 },
    /// READ range exceeds the snapshot size (§2.1: "a read fails also if
    /// the total size of the snapshot v is smaller than offset + size").
    ReadBeyondEnd { blob: BlobId, version: Version, requested_end: u64, snapshot_size: u64 },
    /// Zero-byte updates are rejected: they would publish a snapshot
    /// indistinguishable from its predecessor.
    EmptyUpdate,
    /// The blob has assigned its last version: a tree node names a
    /// child's version in 48 bits, so no update gets a version above
    /// `2^48 − 1`. Nothing was assigned.
    VersionsExhausted { blob: BlobId },
    /// A page referenced by metadata is missing from its provider.
    PageMissing { pid: PageId, provider: ProviderId },
    /// Every reachable copy of a page failed checksum verification.
    /// Individual corrupt copies are downgraded to misses (the reader
    /// falls through to the next replica); this surfaces only when no
    /// copy verified — `provider` is the last one that returned corrupt
    /// bytes. Distinct from [`BlobError::PageMissing`] so operators can
    /// tell bit rot from loss; see `docs/FAILURES.md`.
    PageCorrupt { pid: PageId, provider: ProviderId },
    /// A requested provider id is not part of the deployment.
    ProviderNotFound(ProviderId),
    /// The provider is registered but currently failed/offline.
    ProviderUnavailable(ProviderId),
    /// No available provider could serve an allocation or fetch (all
    /// registered providers, or all replicas of a page, are offline).
    NoAvailableProvider,
    /// The version was reclaimed by garbage collection and can no
    /// longer be read.
    VersionRetired { blob: BlobId, version: Version },
    /// The version was assigned to a writer that died (or explicitly
    /// aborted) before completing its update. The version is skipped by
    /// the total order: it never publishes, is never readable, and
    /// later versions publish right over the hole.
    VersionAborted { blob: BlobId, version: Version },
    /// An abort cannot proceed: the version already completed its
    /// metadata (publication is the version manager's job now), already
    /// published, or was already aborted.
    AbortConflict(String),
    /// Garbage collection cannot proceed (live branch pins the history,
    /// or updates are in flight).
    GcConflict(String),
    /// A provider drain aborted before retiring the provider: the
    /// membership change could not migrate a consistent live set (the
    /// provider is offline or already retired, no survivor can absorb
    /// its pages, or in-flight writers outlasted the drain deadline).
    /// Nothing was migrated-then-lost: every page either reached full
    /// replication on the survivors before leaving the provider or is
    /// still on it.
    /// The provider returns to service; rerun the drain once the
    /// interfering condition clears. See `docs/FAILURES.md`.
    DrainConflict(String),
    /// A metadata tree node was not found (and waiting was not allowed
    /// or timed out).
    MetadataMissing { blob: BlobId, version: Version },
    /// A blocking wait (SYNC, DHT `get_wait`) exceeded its deadline.
    Timeout(&'static str),
    /// Multi-tenant QoS refused the update: the tenant's token
    /// buckets could not supply the required tokens — immediately for
    /// non-blocking submission (`write_pipelined`/`append_pipelined`),
    /// or within the configured `max_wait_ms` for blocking calls.
    /// Nothing was done: no version assigned, no page stored. The
    /// caller owns the retry policy; see `docs/FAILURES.md`.
    QuotaExceeded { tenant: TenantId },
    /// A request refused below or beside the data path: a page store
    /// error on a store, delete or scan (in this workspace, one
    /// injected by a `FaultPlan` wrapper), a range past a page's end,
    /// an invalid configuration, or a QoS call with QoS off. The
    /// message says which. A fetch that finds no page is
    /// [`BlobError::PageMissing`] instead.
    Storage(String),
    /// Internal invariant violation; indicates a bug, surfaced rather
    /// than panicking so stress tests can report it.
    Internal(String),
}

impl fmt::Display for BlobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlobError::BlobNotFound(id) => write!(f, "{id} not found"),
            BlobError::VersionNotPublished { blob, version } => {
                write!(f, "{blob} {version} is not published yet")
            }
            BlobError::VersionUnknown { blob, version } => {
                write!(f, "{blob} {version} was never assigned")
            }
            BlobError::WriteBeyondEnd { blob, offset, snapshot_size } => write!(
                f,
                "write to {blob} at offset {offset} beyond snapshot size {snapshot_size}"
            ),
            BlobError::ReadBeyondEnd { blob, version, requested_end, snapshot_size } => write!(
                f,
                "read of {blob} {version} up to byte {requested_end} exceeds snapshot size {snapshot_size}"
            ),
            BlobError::EmptyUpdate => write!(f, "zero-byte updates are not allowed"),
            BlobError::VersionsExhausted { blob } => {
                write!(f, "{blob} has assigned its last version (2^48 - 1)")
            }
            BlobError::PageMissing { pid, provider } => {
                write!(f, "{pid:?} missing from {provider}")
            }
            BlobError::PageCorrupt { pid, provider } => {
                write!(f, "{pid:?} failed checksum verification on every replica (last: {provider})")
            }
            BlobError::ProviderNotFound(p) => write!(f, "{p} is not deployed"),
            BlobError::ProviderUnavailable(p) => write!(f, "{p} is currently unavailable"),
            BlobError::NoAvailableProvider => {
                write!(f, "no available provider can serve the request")
            }
            BlobError::VersionRetired { blob, version } => {
                write!(f, "{blob} {version} was retired by garbage collection")
            }
            BlobError::VersionAborted { blob, version } => {
                write!(f, "{blob} {version} was aborted (writer failed before completion)")
            }
            BlobError::AbortConflict(why) => write!(f, "abort blocked: {why}"),
            BlobError::GcConflict(why) => write!(f, "garbage collection blocked: {why}"),
            BlobError::DrainConflict(why) => write!(f, "provider drain aborted: {why}"),
            BlobError::MetadataMissing { blob, version } => {
                write!(f, "metadata node missing for {blob} {version}")
            }
            BlobError::Timeout(what) => write!(f, "timed out waiting for {what}"),
            BlobError::QuotaExceeded { tenant } => {
                write!(f, "{tenant} is over its QoS quota (admission refused)")
            }
            BlobError::Storage(msg) => write!(f, "storage failure: {msg}"),
            BlobError::Internal(msg) => write!(f, "internal invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for BlobError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = BlobError::WriteBeyondEnd { blob: BlobId(1), offset: 100, snapshot_size: 64 };
        let s = e.to_string();
        assert!(s.contains("blob#1"));
        assert!(s.contains("100"));
        assert!(s.contains("64"));
    }

    #[test]
    fn page_corrupt_is_distinct_from_missing() {
        let pid = PageId(7);
        let provider = ProviderId(3);
        let corrupt = BlobError::PageCorrupt { pid, provider };
        let missing = BlobError::PageMissing { pid, provider };
        assert_ne!(corrupt, missing);
        assert!(corrupt.to_string().contains("checksum"));
        assert!(corrupt.to_string().contains("prov#3"));
    }

    #[test]
    fn quota_exceeded_names_the_tenant() {
        let e = BlobError::QuotaExceeded { tenant: TenantId(4) };
        assert!(e.to_string().contains("tenant#4"));
        assert!(e.to_string().contains("quota"));
        assert_ne!(e, BlobError::QuotaExceeded { tenant: TenantId(5) });
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(BlobError::Timeout("publication"), BlobError::Timeout("publication"));
        assert_ne!(BlobError::BlobNotFound(BlobId(1)), BlobError::BlobNotFound(BlobId(2)));
    }
}
