//! Identifier newtypes.
//!
//! All identifiers are small `Copy` newtypes so they can be used as map
//! keys and passed across component boundaries freely. Uniqueness of
//! [`BlobId`] and [`PageId`] is provided by monotonic in-process
//! generators (the paper's deployment uses globally-unique ids handed
//! out by the version manager; a process-wide atomic counter plays the
//! same role in our in-process reproduction).

use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// Globally-unique identifier of a blob (paper §2.1, `CREATE` returns it).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BlobId(pub u64);

impl BlobId {
    /// Raw numeric value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for BlobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blob#{}", self.0)
    }
}

impl fmt::Display for BlobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blob#{}", self.0)
    }
}

/// Snapshot version label.
///
/// Versions are assigned by the version manager in a total order per
/// blob; version 0 is the initial empty snapshot (paper §2: "In its
/// initial state, we assume any blob is considered empty ... and is
/// labeled with version 0").
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Version(pub u64);

impl Version {
    /// The initial, empty snapshot of every blob.
    pub const ZERO: Version = Version(0);

    /// Raw numeric value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The next version in the per-blob total order.
    #[inline]
    pub fn next(self) -> Version {
        Version(self.0 + 1)
    }

    /// The previous version; `None` for version 0.
    #[inline]
    pub fn prev(self) -> Option<Version> {
        self.0.checked_sub(1).map(Version)
    }
}

impl fmt::Debug for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Globally-unique identifier of a stored page (the paper's *pid*).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PageId(pub u128);

impl PageId {
    /// Raw numeric value.
    #[inline]
    pub fn raw(self) -> u128 {
        self.0
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid:{:x}", self.0)
    }
}

/// A [`BuildHasher`] for maps and sets keyed by [`PageId`]: two
/// multiply-folds (the id's halves, then a constant) instead of
/// SipHash's rounds.
/// Page ids are minted by the engine ([`PageIdGen`]), never chosen by a
/// client, so SipHash's resistance to crafted keys buys nothing there.
/// A fold's high half mixes every input bit into the low bits a table
/// indexes by and the top bits it tags with; the second fold keeps two
/// generators' runs of consecutive ids from lining up.
#[derive(Clone, Copy, Debug, Default)]
pub struct PageIdHash;

impl BuildHasher for PageIdHash {
    type Hasher = PageIdHasher;

    fn build_hasher(&self) -> PageIdHasher {
        PageIdHasher(0)
    }
}

/// The [`Hasher`] [`PageIdHash`] builds.
#[derive(Clone, Copy, Debug)]
pub struct PageIdHasher(u64);

/// The full product of `a` and `b`, its halves XOR-ed together.
#[inline]
fn fold_multiply(a: u64, b: u64) -> u64 {
    let full = (a as u128).wrapping_mul(b as u128);
    (full as u64) ^ ((full >> 64) as u64)
}

impl Hasher for PageIdHasher {
    #[inline]
    fn write_u128(&mut self, n: u128) {
        const K: [u64; 4] = [
            0x243f_6a88_85a3_08d3,
            0x1319_8a2e_0370_7344,
            0xa409_3822_299f_31d0,
            0x082e_fa98_ec4e_6c89,
        ];
        let folded = fold_multiply(self.0 ^ n as u64 ^ K[0], (n >> 64) as u64 ^ K[1]);
        self.0 = fold_multiply(folded ^ K[2], K[3]);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u128(byte.into());
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Identifier of a tenant — a client class sharing one deployment
/// under multi-tenant QoS (PR 8). Untagged callers act as
/// [`TenantId::DEFAULT`]; tag a handle with `Blob::for_tenant` to
/// charge its updates to another tenant's quota. Tenants are a purely
/// client-side notion: pages and metadata carry no tenant marker, so
/// tagging changes *admission*, never placement or content.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The tenant untagged callers are accounted to.
    pub const DEFAULT: TenantId = TenantId(0);

    /// Raw numeric value.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// Identifier of a data provider (storage node).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ProviderId(pub u32);

impl ProviderId {
    /// Raw numeric value.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for ProviderId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prov#{}", self.0)
    }
}

impl fmt::Display for ProviderId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prov#{}", self.0)
    }
}

/// Generator of globally-unique [`PageId`]s.
///
/// Each generator instance gets a distinct high 64-bit *namespace* from a
/// process-wide counter; page ids are `(namespace << 64) | sequence`.
/// Clients each own a generator, so page-id generation is contention-free
/// (the paper stresses that page writes need no synchronisation at all).
#[derive(Debug)]
pub struct PageIdGen {
    namespace: u64,
    seq: AtomicU64,
}

static NAMESPACE_COUNTER: AtomicU64 = AtomicU64::new(1);

impl PageIdGen {
    /// Create a generator with a fresh, process-unique namespace.
    pub fn new() -> Self {
        PageIdGen {
            namespace: NAMESPACE_COUNTER.fetch_add(1, Ordering::Relaxed),
            seq: AtomicU64::new(0),
        }
    }

    /// Produce the next unique page id.
    #[inline]
    pub fn next_id(&self) -> PageId {
        let lo = self.seq.fetch_add(1, Ordering::Relaxed);
        PageId(((self.namespace as u128) << 64) | lo as u128)
    }

    /// The **watermark**: the id the next [`PageIdGen::next_id`] call
    /// would return. Ids are handed out in strictly increasing order
    /// within a generator, so every id issued at or after a `peek` is
    /// `>= ` the peeked value — the property the orphan scrubber's
    /// epoch cut relies on ("pages stored after the mark began are
    /// exempt"). The watermark itself is never issued *before* the
    /// peek, only (possibly) after it.
    ///
    /// # Examples
    ///
    /// ```
    /// let gen = blobseer_types::PageIdGen::new();
    /// let watermark = gen.peek();
    /// assert!(gen.next_id() >= watermark);
    /// assert!(gen.peek() > watermark);
    /// ```
    #[inline]
    pub fn peek(&self) -> PageId {
        let lo = self.seq.load(Ordering::Relaxed);
        PageId(((self.namespace as u128) << 64) | lo as u128)
    }
}

impl Default for PageIdGen {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn version_arithmetic() {
        assert_eq!(Version::ZERO.next(), Version(1));
        assert_eq!(Version(5).prev(), Some(Version(4)));
        assert_eq!(Version::ZERO.prev(), None);
        assert!(Version(3) < Version(4));
    }

    #[test]
    fn display_formats() {
        assert_eq!(BlobId(7).to_string(), "blob#7");
        assert_eq!(Version(12).to_string(), "v12");
        assert_eq!(ProviderId(3).to_string(), "prov#3");
        assert_eq!(format!("{:?}", PageId(255)), "pid:ff");
    }

    #[test]
    fn page_ids_unique_within_generator() {
        let g = PageIdGen::new();
        let ids: HashSet<_> = (0..10_000).map(|_| g.next_id()).collect();
        assert_eq!(ids.len(), 10_000);
    }

    #[test]
    fn peek_bounds_future_ids_from_below() {
        let g = PageIdGen::new();
        let before = g.next_id();
        let watermark = g.peek();
        assert!(before < watermark, "issued ids sit below the watermark");
        for _ in 0..100 {
            assert!(g.next_id() >= watermark, "future ids sit at or above it");
        }
        assert!(g.peek() > watermark, "the watermark is monotonic");
    }

    #[test]
    fn page_ids_unique_across_generators() {
        let a = PageIdGen::new();
        let b = PageIdGen::new();
        let mut ids = HashSet::new();
        for _ in 0..1000 {
            assert!(ids.insert(a.next_id()));
            assert!(ids.insert(b.next_id()));
        }
    }

    /// Consecutive ids of two generators spread evenly over the low
    /// bits a table indexes by and the top seven bits it tags with.
    #[test]
    fn page_id_hash_spreads_consecutive_ids() {
        const IDS: usize = 1 << 14;
        let hashes: Vec<u64> = (0..IDS as u128)
            .flat_map(|seq| [PageId(1 << 64 | seq), PageId(2 << 64 | seq)])
            .map(|pid| PageIdHash.hash_one(pid))
            .collect();
        let expected = 2 * IDS / 128;
        for (what, bucket) in [
            ("low bits", (|h| (h & 127) as usize) as fn(u64) -> usize),
            ("top bits", |h| (h >> 57) as usize),
        ] {
            let mut counts = [0usize; 128];
            for &h in &hashes {
                counts[bucket(h)] += 1;
            }
            let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(*min > expected * 3 / 4 && *max < expected * 5 / 4, "{what}: {min}..{max}");
        }
        let distinct: HashSet<u64> = hashes.iter().copied().collect();
        assert_eq!(distinct.len(), hashes.len());
    }

    #[test]
    fn page_ids_unique_under_concurrency() {
        let g = Arc::new(PageIdGen::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let g = Arc::clone(&g);
            handles.push(std::thread::spawn(move || {
                (0..5000).map(|_| g.next_id()).collect::<Vec<_>>()
            }));
        }
        let mut all = HashSet::new();
        for h in handles {
            for id in h.join().unwrap() {
                assert!(all.insert(id), "duplicate page id {:?}", id);
            }
        }
        assert_eq!(all.len(), 8 * 5000);
    }
}
