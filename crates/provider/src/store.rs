//! The page storage trait and its in-memory backend.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use blobseer_types::{BlobError, PageId, Result};
use parking_lot::RwLock;

use crate::sealed::SealedPage;

/// Backend storing immutable pages addressed by [`PageId`].
///
/// Pages are written once and never mutated (BlobSeer "generates
/// completely new pages when clients request data modifications",
/// paper §1), so implementations only need last-writer-wins semantics
/// on the rare retry path.
///
/// An entry is a [`SealedPage`]: the payload **and** the block sums the
/// client sealed it with travel, are stored and come back together —
/// one lookup, one lock. There is no way to read payload bytes out of
/// a store without the sums that judge them. All byte accounting
/// (`scan`, `stored_bytes`, `delete`'s return value) counts **payload
/// bytes only**.
///
/// [`MemoryPageStore`] is the one backend; [`crate::FaultPlan`] wraps
/// any store to inject failures through this same seam.
pub trait PageStore: Send + Sync {
    /// Store a page. Overwrites (identical) content on retries.
    fn store(&self, pid: PageId, page: SealedPage) -> Result<()>;

    /// Fetch a page as stored — unverified; [`crate::DataProvider`]
    /// checks the blocks it is about to return.
    fn fetch(&self, pid: PageId) -> Result<SealedPage>;

    /// Verify the stored copy whole where it lives and return only the
    /// verdict: the payload bytes hashed, or `None` for a corrupt copy.
    /// A page not stored here errors as in [`Self::fetch`]. No copy is
    /// handed out.
    fn verify(&self, pid: PageId) -> Result<Option<u64>>;

    /// `true` if the page is stored here.
    fn contains(&self, pid: PageId) -> bool;

    /// Delete a page; returns the payload bytes freed, or `None` when
    /// the page was not stored here. (The garbage-collection hook.)
    fn delete(&self, pid: PageId) -> Result<Option<u64>>;

    /// Enumerate every stored page as `(pid, payload bytes)` pairs —
    /// the provider-side half of the orphan scrubber's sweep. The
    /// snapshot is **weakly consistent** under concurrency: pages
    /// stored or deleted while the scan runs may or may not appear,
    /// which is sufficient for mark-and-sweep (the scrubber's epoch cut
    /// exempts everything stored after its mark began, and deleting an
    /// already-deleted page is a no-op). A store that cannot enumerate
    /// at all (an offline store) must **error**, not
    /// return an empty list — "nothing stored" and "nothing visible"
    /// are different answers, and the scrubber reports them
    /// differently (clean sweep vs. skipped provider).
    fn scan(&self) -> Result<Vec<(PageId, u64)>>;

    /// Number of pages stored.
    fn page_count(&self) -> usize;

    /// Total payload bytes stored — the measure behind the paper's
    /// storage-efficiency claim (§4.3).
    fn stored_bytes(&self) -> u64;
}

/// The error of a request for a page that is not stored.
fn not_stored(pid: PageId) -> BlobError {
    BlobError::Storage(format!("{pid:?} not stored"))
}

const MEM_SHARDS: usize = 16;

/// Sharded in-memory page store.
pub struct MemoryPageStore {
    shards: Vec<RwLock<HashMap<PageId, SealedPage>>>,
    bytes: AtomicU64,
}

impl MemoryPageStore {
    /// Empty store.
    pub fn new() -> Self {
        MemoryPageStore {
            shards: (0..MEM_SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            bytes: AtomicU64::new(0),
        }
    }

    #[inline]
    fn shard(&self, pid: PageId) -> &RwLock<HashMap<PageId, SealedPage>> {
        // Low bits of the sequence part spread consecutive pages.
        &self.shards[(pid.raw() as usize) % MEM_SHARDS]
    }
}

impl Default for MemoryPageStore {
    fn default() -> Self {
        Self::new()
    }
}

impl PageStore for MemoryPageStore {
    fn store(&self, pid: PageId, page: SealedPage) -> Result<()> {
        let mut shard = self.shard(pid).write();
        let added = page.len() as u64;
        if let Some(old) = shard.insert(pid, page) {
            self.bytes.fetch_sub(old.len() as u64, Ordering::Relaxed);
        }
        self.bytes.fetch_add(added, Ordering::Relaxed);
        Ok(())
    }

    fn fetch(&self, pid: PageId) -> Result<SealedPage> {
        self.shard(pid).read().get(&pid).cloned().ok_or_else(|| not_stored(pid))
    }

    fn verify(&self, pid: PageId) -> Result<Option<u64>> {
        // Hashed under the shard's read guard: no clone, and stores to
        // the shard wait out one page's verify.
        self.shard(pid).read().get(&pid).map(SealedPage::verify).ok_or_else(|| not_stored(pid))
    }

    fn contains(&self, pid: PageId) -> bool {
        self.shard(pid).read().contains_key(&pid)
    }

    fn delete(&self, pid: PageId) -> Result<Option<u64>> {
        let mut shard = self.shard(pid).write();
        if let Some(old) = shard.remove(&pid) {
            self.bytes.fetch_sub(old.len() as u64, Ordering::Relaxed);
            Ok(Some(old.len() as u64))
        } else {
            Ok(None)
        }
    }

    fn scan(&self) -> Result<Vec<(PageId, u64)>> {
        // Shard by shard under the shared guard: writers to other
        // shards proceed; the per-shard view is a consistent snapshot.
        let mut out = Vec::with_capacity(self.page_count());
        for shard in &self.shards {
            out.extend(shard.read().iter().map(|(&pid, page)| (pid, page.len() as u64)));
        }
        Ok(out)
    }

    fn page_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    fn stored_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sealed::SUM_BLOCK;
    use bytes::Bytes;

    fn pid(n: u128) -> PageId {
        PageId(n)
    }

    fn sealed(bytes: &'static [u8]) -> SealedPage {
        SealedPage::seal(Bytes::from_static(bytes))
    }

    #[test]
    fn memory_store_contract() {
        let store = MemoryPageStore::new();
        assert_eq!(store.page_count(), 0);
        store.store(pid(1), sealed(b"hello world!")).unwrap();
        store.store(pid(2), sealed(b"abcd")).unwrap();
        assert_eq!(store.page_count(), 2);
        assert_eq!(store.stored_bytes(), 16);
        let page = store.fetch(pid(1)).unwrap();
        assert_eq!(&page[..], b"hello world!");
        assert_eq!(page.sums(), sealed(b"hello world!").sums(), "sums come back as sealed");
        assert_eq!(page.verify(), Some(12));
        // The in-place verdict, and a typed miss for a page not stored.
        assert_eq!(store.verify(pid(1)).unwrap(), Some(12));
        assert!(matches!(store.verify(pid(3)), Err(BlobError::Storage(_))));
        let mut scanned = store.scan().unwrap();
        scanned.sort_unstable();
        assert_eq!(scanned, vec![(pid(1), 12), (pid(2), 4)]);
        assert!(store.contains(pid(2)));
        assert!(!store.contains(pid(3)));
        assert!(store.fetch(pid(3)).is_err());
        // Overwrite adjusts byte accounting.
        store.store(pid(2), sealed(b"xy")).unwrap();
        assert_eq!(store.stored_bytes(), 14);
        assert_eq!(store.page_count(), 2);
        // A multi-block page round-trips with every sum; only payload
        // bytes are ever counted.
        let big = Bytes::from(vec![0x5Au8; 2 * SUM_BLOCK + 9]);
        store.store(pid(4), SealedPage::seal(big.clone())).unwrap();
        let back = store.fetch(pid(4)).unwrap();
        assert_eq!((back.sums().len(), back.verify()), (3, Some(big.len() as u64)));
        assert_eq!(store.stored_bytes(), 14 + big.len() as u64);
        assert_eq!(store.delete(pid(4)).unwrap(), Some(big.len() as u64));
        // Delete.
        assert_eq!(store.delete(pid(2)).unwrap(), Some(2));
        assert_eq!(store.delete(pid(2)).unwrap(), None);
        assert_eq!(store.page_count(), 1);
        assert_eq!(store.stored_bytes(), 12);
        assert_eq!(store.scan().unwrap(), vec![(pid(1), 12)]);
    }

    #[test]
    fn memory_store_keeps_the_callers_allocation() {
        let store = MemoryPageStore::new();
        let data = Bytes::from(vec![3u8; 64]);
        store.store(pid(1), SealedPage::seal(data.clone())).unwrap();
        assert_eq!(store.fetch(pid(1)).unwrap().data().as_ptr(), data.as_ptr());
    }

    #[test]
    fn rotted_payloads_verify_as_corrupt() {
        let data = Bytes::from(vec![0x5Au8; 2 * SUM_BLOCK + 9]);
        let mut rotted = data.to_vec();
        *rotted.last_mut().unwrap() ^= 0x40;
        let memory = MemoryPageStore::new();
        memory.store(pid(1), SealedPage::seal(data.clone())).unwrap();
        memory.store(pid(2), SealedPage::seal(data.clone()).with_payload(rotted.into())).unwrap();
        assert_eq!(memory.verify(pid(1)).unwrap(), Some(data.len() as u64));
        assert_eq!(memory.verify(pid(2)).unwrap(), None);
    }

    #[test]
    fn memory_store_concurrent_writers() {
        let store = std::sync::Arc::new(MemoryPageStore::new());
        let mut handles = Vec::new();
        for t in 0..8u128 {
            let s = std::sync::Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u128 {
                    let id = pid(t * 1000 + i);
                    let page = SealedPage::seal(Bytes::from(vec![t as u8; 64]));
                    s.store(id, page).unwrap();
                    assert_eq!(s.fetch(id).unwrap().len(), 64);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.page_count(), 4000);
        assert_eq!(store.stored_bytes(), 4000 * 64);
    }
}
