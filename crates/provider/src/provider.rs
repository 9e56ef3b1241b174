//! A single data provider node.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use blobseer_metrics::{AtomicHistogram, Counter};
use blobseer_types::{BlobError, PageId, ProviderId, Result};
use bytes::Bytes;

use crate::sealed::SealedPage;
use crate::store::PageStore;

/// One storage node: a page store plus request counters.
///
/// The counters let benches observe per-provider load imbalance — the
/// paper notes that "data access serialization is only necessary when
/// the same provider is contacted at the same time by different
/// clients" (§4.3), so skew here is the real engine's analogue of the
/// contention the simulator models with queues. The per-request
/// counters (`reads`, `writes` and their byte totals, `bytes_verified`)
/// are [`Counter`]s striped by thread, so two clients fetching from one
/// provider never write the same counter line; the maintenance counters
/// move once per pass and stay plain atomics. The provider also owns
/// its store and fetch latency histograms, which the engine's write and
/// read paths time into and exports per provider, so a provider that
/// joins later has its series from the start.
///
/// **Integrity.** A provider stores [`SealedPage`]s: the payload plus
/// the block sums its client took. It **trusts them on store** — the
/// client hashed those bytes a moment ago, and hashing them again per
/// copy would only compare a buffer with itself — and **verifies on
/// every fetch**, re-hashing exactly the blocks it is about to return
/// bytes from. Payload and sums are one store entry (one lookup, one
/// lock), and the payload `Bytes` stay pointer-identical to what the
/// client handed over. A failed verification surfaces as
/// [`BlobError::PageCorrupt`] and bumps `corrupt_detected`; callers treat it as a miss and fall
/// through to the next replica. Maintenance that only needs a copy's
/// health asks for the verdict alone ([`Self::verify_page`]: the store
/// hashes its copy in place, no bytes are handed out); only fills and
/// drain, which move bytes, fetch.
pub struct DataProvider {
    id: ProviderId,
    store: Arc<dyn PageStore>,
    available: AtomicBool,
    draining: AtomicBool,
    retired: AtomicBool,
    reads: Counter,
    writes: Counter,
    bytes_read: Counter,
    bytes_written: Counter,
    scrub_passes: AtomicU64,
    pages_scrubbed: AtomicU64,
    bytes_scrubbed: AtomicU64,
    corrupt_detected: AtomicU64,
    bytes_verified: Counter,
    pages_repaired: AtomicU64,
    bytes_repaired: AtomicU64,
    store_latency: AtomicHistogram,
    fetch_latency: AtomicHistogram,
}

impl DataProvider {
    /// Wrap a store as provider `id`.
    pub fn new(id: ProviderId, store: Arc<dyn PageStore>) -> Self {
        DataProvider {
            id,
            store,
            available: AtomicBool::new(true),
            draining: AtomicBool::new(false),
            retired: AtomicBool::new(false),
            reads: Counter::new(),
            writes: Counter::new(),
            bytes_read: Counter::new(),
            bytes_written: Counter::new(),
            scrub_passes: AtomicU64::new(0),
            pages_scrubbed: AtomicU64::new(0),
            bytes_scrubbed: AtomicU64::new(0),
            corrupt_detected: AtomicU64::new(0),
            bytes_verified: Counter::new(),
            pages_repaired: AtomicU64::new(0),
            bytes_repaired: AtomicU64::new(0),
            store_latency: AtomicHistogram::new(),
            fetch_latency: AtomicHistogram::new(),
        }
    }

    /// This provider's id.
    pub fn id(&self) -> ProviderId {
        self.id
    }

    /// Failure injection: take the provider offline. Stored pages are
    /// retained (a crashed node, not a wiped one); every request fails
    /// with [`BlobError::ProviderUnavailable`] until [`Self::recover`].
    pub fn fail(&self) {
        self.available.store(false, Ordering::SeqCst);
    }

    /// Bring a failed provider back online.
    pub fn recover(&self) {
        self.available.store(true, Ordering::SeqCst);
    }

    /// `true` when the provider accepts requests.
    pub fn is_available(&self) -> bool {
        self.available.load(Ordering::SeqCst)
    }

    fn check_available(&self) -> Result<()> {
        if self.is_available() {
            Ok(())
        } else {
            Err(BlobError::ProviderUnavailable(self.id))
        }
    }

    /// Put the provider into **draining** (read-only) mode: fetches,
    /// scans and deletions keep working so its pages can be migrated
    /// off, but every new [`Self::store_page`] is refused with
    /// [`BlobError::ProviderUnavailable`] — the same typed error as a
    /// crash, so the write path's existing failover re-places the copy
    /// on a healthy provider without learning a new protocol.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Leave draining mode (a drain that aborted); the provider
    /// accepts stores again.
    pub fn end_drain(&self) {
        self.draining.store(false, Ordering::SeqCst);
    }

    /// `true` while the provider is draining (read-only).
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Permanently remove the provider from service after a successful
    /// drain. Retired providers stay registered as **tombstones** — the
    /// registry index anchors every replica-chain walk, so positions
    /// must never shift — but they are skipped by placement, replica
    /// chains and maintenance sweeps. Irreversible.
    pub fn retire(&self) {
        self.retired.store(true, Ordering::SeqCst);
        self.draining.store(false, Ordering::SeqCst);
    }

    /// `true` once the provider was retired by a completed drain.
    pub fn is_retired(&self) -> bool {
        self.retired.load(Ordering::SeqCst)
    }

    /// Store a sealed page on this provider. The sums are taken on
    /// trust (see the type docs); nothing is hashed here.
    pub fn store_page(&self, pid: PageId, page: SealedPage) -> Result<()> {
        self.check_available()?;
        // Draining and retired providers are write-side unavailable
        // (reads keep flowing): refusing here is what guarantees the
        // drain's victim page set only ever shrinks.
        if self.is_draining() || self.is_retired() {
            return Err(BlobError::ProviderUnavailable(self.id));
        }
        self.writes.increment();
        self.bytes_written.add(page.len() as u64);
        self.store.store(pid, page)
    }

    /// Store a page copy on behalf of the replica repairer
    /// ([`Self::store_page`] plus the lifetime repair counters in
    /// [`ProviderStats`]). Also used to *replace* a copy that failed
    /// verification — the one legitimate overwrite of differing
    /// content, since the old bytes were provably not the page. The
    /// repairer passes the verified value it fetched, so the copy is
    /// placed with the client's sums and without another hashing pass.
    pub fn store_repaired_page(&self, pid: PageId, page: SealedPage) -> Result<()> {
        let len = page.len() as u64;
        self.store_page(pid, page)?;
        self.pages_repaired.fetch_add(1, Ordering::Relaxed);
        self.bytes_repaired.fetch_add(len, Ordering::Relaxed);
        Ok(())
    }

    /// Fetch the stored copy and verify the blocks overlapping
    /// `offset .. offset + len` (`None` = all of them).
    fn fetch_verified(&self, pid: PageId, range: Option<(u64, u64)>) -> Result<SealedPage> {
        self.check_available()?;
        self.reads.increment();
        let page =
            self.store.fetch(pid).map_err(|_| BlobError::PageMissing { pid, provider: self.id })?;
        let verified = match range {
            None => page.verify(),
            Some((offset, len)) => {
                let end = offset.saturating_add(len);
                if end <= page.len() as u64 {
                    page.verify_range(offset as usize, len as usize)
                } else if page.verify_range(0, 0).is_some() {
                    // A bad request against a copy of the right shape.
                    return Err(BlobError::Storage(format!(
                        "range [{offset}, {end}) exceeds page of {} bytes",
                        page.len()
                    )));
                } else {
                    // The copy is too short for its own sums: rot.
                    None
                }
            }
        };
        self.count_verdict(pid, verified)?;
        Ok(page)
    }

    /// Count a verification's verdict: bytes hashed when it passed, one
    /// corrupt copy (a typed error) when it failed.
    fn count_verdict(&self, pid: PageId, verified: Option<u64>) -> Result<u64> {
        let Some(hashed) = verified else {
            self.corrupt_detected.fetch_add(1, Ordering::Relaxed);
            return Err(BlobError::PageCorrupt { pid, provider: self.id });
        };
        self.bytes_verified.add(hashed);
        Ok(hashed)
    }

    /// Verify the stored copy of a page whole where it lives, handing
    /// out no bytes: the repairer's check that a chain copy is healthy.
    /// Counts `bytes_verified` and `corrupt_detected` as
    /// [`Self::fetch_page`] does, but no read. Returns the bytes
    /// hashed; fails typed as a fetch does (unavailable, missing,
    /// corrupt).
    pub fn verify_page(&self, pid: PageId) -> Result<u64> {
        self.check_available()?;
        let verified = self
            .store
            .verify(pid)
            .map_err(|_| BlobError::PageMissing { pid, provider: self.id })?;
        self.count_verdict(pid, verified)
    }

    /// Fetch a whole page with every block verified. The returned
    /// value still carries the client's sums, so repair and drain
    /// re-place it as it is.
    pub fn fetch_page(&self, pid: PageId) -> Result<SealedPage> {
        let page = self.fetch_verified(pid, None)?;
        self.bytes_read.add(page.len() as u64);
        Ok(page)
    }

    /// Fetch part of a page (paper §3.2: "the client may request only
    /// a part of the page"), verifying exactly the blocks that overlap
    /// the range — a 4 KiB read of a 64 KiB page hashes 4 KiB. Rot in
    /// a block the range does not touch is not this fetch's to find;
    /// it surfaces on a read that covers it, or in the repairer, which
    /// verifies whole pages.
    pub fn fetch_page_range(&self, pid: PageId, offset: u64, len: u64) -> Result<Bytes> {
        let page = self.fetch_verified(pid, Some((offset, len)))?;
        let out = page.data().slice(offset as usize..(offset + len) as usize);
        self.bytes_read.add(out.len() as u64);
        Ok(out)
    }

    /// `true` when the page is stored here.
    pub fn has_page(&self, pid: PageId) -> bool {
        self.store.contains(pid)
    }

    /// Delete a page (garbage collection); returns the bytes freed, or
    /// `None` when the page was not stored here.
    pub fn delete_page(&self, pid: PageId) -> Result<Option<u64>> {
        self.check_available()?;
        self.store.delete(pid)
    }

    /// Enumerate the pages stored here as `(pid, payload bytes)` pairs
    /// (weakly consistent under concurrency; see [`PageStore::scan`]).
    /// Like every request, fails typed while the provider is offline.
    pub fn scan_pages(&self) -> Result<Vec<(PageId, u64)>> {
        self.check_available()?;
        self.store.scan()
    }

    /// The orphan-scrub hook: scan this provider's store and delete
    /// every page `condemned` says is dead. The predicate is consulted
    /// once per stored page; deletions racing concurrent writers are
    /// safe because pages are immutable and `condemned` is required
    /// (by the caller's mark/epoch protocol) to never condemn a page a
    /// live tree references. Returns this pass's outcome and bumps the
    /// provider's lifetime scrub counters ([`ProviderStats`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use blobseer_provider::{DataProvider, MemoryPageStore, SealedPage};
    /// use blobseer_types::{PageId, ProviderId};
    ///
    /// let p = DataProvider::new(ProviderId(0), Arc::new(MemoryPageStore::new()));
    /// p.store_page(PageId(1), SealedPage::seal(bytes::Bytes::from_static(b"live")))?;
    /// p.store_page(PageId(2), SealedPage::seal(bytes::Bytes::from_static(b"orphan")))?;
    /// let pass = p.scrub(&|pid| pid == PageId(2))?;
    /// assert_eq!((pass.pages_scanned, pass.pages_reclaimed, pass.bytes_reclaimed), (2, 1, 6));
    /// assert!(p.has_page(PageId(1)) && !p.has_page(PageId(2)));
    /// # Ok::<(), blobseer_types::BlobError>(())
    /// ```
    pub fn scrub(&self, condemned: &(dyn Fn(PageId) -> bool + Sync)) -> Result<ScrubPass> {
        self.check_available()?;
        let mut pass = ScrubPass::default();
        for (pid, _) in self.store.scan()? {
            pass.pages_scanned += 1;
            if !condemned(pid) {
                continue;
            }
            // The store's own accounting (delete returns the payload
            // length) is authoritative — the scanned length could be
            // stale if the page raced an overwrite-retry. A delete
            // *error* must not abort the pass: earlier deletions
            // already happened, and dropping them from the outcome
            // would corrupt every byte count downstream. Count the
            // failure and keep sweeping; the page is retried next
            // pass.
            match self.store.delete(pid) {
                Ok(Some(bytes)) => {
                    pass.pages_reclaimed += 1;
                    pass.bytes_reclaimed += bytes;
                }
                Ok(None) => {}
                Err(_) => pass.pages_failed += 1,
            }
        }
        self.scrub_passes.fetch_add(1, Ordering::Relaxed);
        self.pages_scrubbed.fetch_add(pass.pages_reclaimed, Ordering::Relaxed);
        self.bytes_scrubbed.fetch_add(pass.bytes_reclaimed, Ordering::Relaxed);
        Ok(pass)
    }

    /// Pages currently stored.
    pub fn page_count(&self) -> usize {
        self.store.page_count()
    }

    /// Payload bytes currently stored.
    pub fn stored_bytes(&self) -> u64 {
        self.store.stored_bytes()
    }

    /// Page-store latency on this provider, as its callers time it
    /// (`blobseer_provider_store_latency_seconds`). Buckets allocate on
    /// first record, so an idle provider costs a few words.
    pub fn store_latency(&self) -> &AtomicHistogram {
        &self.store_latency
    }

    /// Page-fetch latency on this provider, as its callers time it
    /// (`blobseer_provider_fetch_latency_seconds`).
    pub fn fetch_latency(&self) -> &AtomicHistogram {
        &self.fetch_latency
    }

    /// Lifetime payload bytes re-hashed by fetches and in-place
    /// verifies that passed (see [`ProviderStats::bytes_verified`]).
    pub fn bytes_verified(&self) -> u64 {
        self.bytes_verified.value()
    }

    /// Snapshot of access counters.
    pub fn stats(&self) -> ProviderStats {
        ProviderStats {
            id: self.id,
            pages: self.store.page_count(),
            stored_bytes: self.store.stored_bytes(),
            reads: self.reads.value(),
            writes: self.writes.value(),
            bytes_read: self.bytes_read.value(),
            bytes_written: self.bytes_written.value(),
            scrub_passes: self.scrub_passes.load(Ordering::Relaxed),
            pages_scrubbed: self.pages_scrubbed.load(Ordering::Relaxed),
            bytes_scrubbed: self.bytes_scrubbed.load(Ordering::Relaxed),
            corrupt_detected: self.corrupt_detected.load(Ordering::Relaxed),
            bytes_verified: self.bytes_verified(),
            pages_repaired: self.pages_repaired.load(Ordering::Relaxed),
            bytes_repaired: self.bytes_repaired.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for DataProvider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataProvider")
            .field("id", &self.id)
            .field("pages", &self.page_count())
            .finish()
    }
}

/// Point-in-time counters for one provider.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProviderStats {
    /// Provider id.
    pub id: ProviderId,
    /// Pages stored.
    pub pages: usize,
    /// Payload bytes stored.
    pub stored_bytes: u64,
    /// Lifetime page reads served.
    pub reads: u64,
    /// Lifetime page writes served.
    pub writes: u64,
    /// Lifetime bytes served to readers.
    pub bytes_read: u64,
    /// Lifetime bytes accepted from writers.
    pub bytes_written: u64,
    /// Lifetime orphan-scrub passes over this provider.
    pub scrub_passes: u64,
    /// Lifetime pages deleted by orphan scrubs.
    pub pages_scrubbed: u64,
    /// Lifetime payload bytes reclaimed by orphan scrubs.
    pub bytes_scrubbed: u64,
    /// Lifetime fetches and in-place verifies that failed checksum
    /// verification here.
    pub corrupt_detected: u64,
    /// Lifetime payload bytes re-hashed by fetches and in-place
    /// verifies that passed: whole pages for [`DataProvider::fetch_page`]
    /// and [`DataProvider::verify_page`], only the blocks overlapping
    /// the range for [`DataProvider::fetch_page_range`].
    pub bytes_verified: u64,
    /// Lifetime page copies written onto this provider by the replica
    /// repairer (fills and corrupt-copy replacements).
    pub pages_repaired: u64,
    /// Lifetime payload bytes those repair writes carried.
    pub bytes_repaired: u64,
}

/// Outcome of one [`DataProvider::scrub`] pass over one provider.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubPass {
    /// Pages the pass inspected.
    pub pages_scanned: u64,
    /// Condemned pages actually deleted.
    pub pages_reclaimed: u64,
    /// Payload bytes those deletions freed.
    pub bytes_reclaimed: u64,
    /// Condemned pages whose delete *errored* (storage-level I/O
    /// failure, not "already gone"). They stay stored and are retried
    /// by the next pass; reclaimed counts above stay exact either way.
    pub pages_failed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::sealed::SUM_BLOCK;
    use crate::store::MemoryPageStore;

    fn provider() -> DataProvider {
        DataProvider::new(ProviderId(7), Arc::new(MemoryPageStore::new()))
    }

    fn sealed(bytes: &'static [u8]) -> SealedPage {
        SealedPage::seal(Bytes::from_static(bytes))
    }

    #[test]
    fn store_fetch_roundtrip_with_stats() {
        let p = provider();
        p.store_page(PageId(1), sealed(b"abcdef")).unwrap();
        assert_eq!(&p.fetch_page(PageId(1)).unwrap()[..], b"abcdef");
        assert_eq!(p.fetch_page_range(PageId(1), 2, 3).unwrap(), Bytes::from_static(b"cde"));
        let s = p.stats();
        assert_eq!(s.id, ProviderId(7));
        assert_eq!(s.pages, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 2);
        assert_eq!(s.bytes_written, 6);
        assert_eq!(s.bytes_read, 9);
    }

    #[test]
    fn missing_page_is_typed_error() {
        let p = provider();
        match p.fetch_page(PageId(99)) {
            Err(BlobError::PageMissing { pid, provider }) => {
                assert_eq!(pid, PageId(99));
                assert_eq!(provider, ProviderId(7));
            }
            other => panic!("expected PageMissing, got {other:?}"),
        }
        assert!(matches!(p.fetch_page_range(PageId(99), 0, 1), Err(BlobError::PageMissing { .. })));
    }

    #[test]
    fn has_page_reflects_store() {
        let p = provider();
        assert!(!p.has_page(PageId(5)));
        p.store_page(PageId(5), sealed(b"x")).unwrap();
        assert!(p.has_page(PageId(5)));
    }

    #[test]
    fn scrub_deletes_condemned_pages_and_counts() {
        let p = provider();
        p.store_page(PageId(1), sealed(b"live")).unwrap();
        p.store_page(PageId(2), sealed(b"orphaned!")).unwrap();
        p.store_page(PageId(3), sealed(b"dead")).unwrap();
        let mut scanned = p.scan_pages().unwrap();
        scanned.sort_unstable();
        assert_eq!(scanned, vec![(PageId(1), 4), (PageId(2), 9), (PageId(3), 4)]);

        let pass = p.scrub(&|pid| pid != PageId(1)).unwrap();
        assert_eq!(
            pass,
            ScrubPass {
                pages_scanned: 3,
                pages_reclaimed: 2,
                bytes_reclaimed: 13,
                pages_failed: 0
            }
        );
        assert!(p.has_page(PageId(1)));
        assert!(!p.has_page(PageId(2)));
        assert_eq!(p.stored_bytes(), 4);

        // A second pass finds nothing condemned; lifetime counters
        // accumulate across passes.
        let pass2 = p.scrub(&|pid| pid != PageId(1)).unwrap();
        assert_eq!(
            pass2,
            ScrubPass { pages_scanned: 1, pages_reclaimed: 0, bytes_reclaimed: 0, pages_failed: 0 }
        );
        let s = p.stats();
        assert_eq!(s.scrub_passes, 2);
        assert_eq!(s.pages_scrubbed, 2);
        assert_eq!(s.bytes_scrubbed, 13);
    }

    #[test]
    fn offline_provider_rejects_scan_and_scrub() {
        let p = provider();
        p.store_page(PageId(1), sealed(b"kept")).unwrap();
        p.fail();
        assert!(matches!(p.scan_pages(), Err(BlobError::ProviderUnavailable(_))));
        assert!(matches!(p.scrub(&|_| true), Err(BlobError::ProviderUnavailable(_))));
        p.recover();
        // The failed pass did not count and the data survived.
        assert_eq!(p.stats().scrub_passes, 0);
        assert!(p.has_page(PageId(1)));
    }

    #[test]
    fn corrupt_copy_fails_typed_and_counts() {
        let plan = Arc::new(FaultPlan::new(Arc::new(MemoryPageStore::new())));
        let p = DataProvider::new(ProviderId(7), Arc::clone(&plan) as Arc<dyn PageStore>);
        p.store_page(PageId(1), sealed(b"healthy payload")).unwrap();
        // Rot the stored copy *underneath* the provider: the payload
        // changes, the sums the client sealed stay.
        assert!(plan.corrupt_stored_page(PageId(1)).unwrap());
        match p.fetch_page(PageId(1)) {
            Err(BlobError::PageCorrupt { pid, provider }) => {
                assert_eq!(pid, PageId(1));
                assert_eq!(provider, ProviderId(7));
            }
            other => panic!("expected PageCorrupt, got {other:?}"),
        }
        assert!(matches!(p.fetch_page_range(PageId(1), 0, 4), Err(BlobError::PageCorrupt { .. })));
        let s = p.stats();
        assert_eq!((s.corrupt_detected, s.bytes_verified, s.bytes_read), (2, 0, 0));
        // Repair overwrites with a verified copy; fetches recover.
        p.store_repaired_page(PageId(1), sealed(b"healthy payload")).unwrap();
        assert_eq!(&p.fetch_page(PageId(1)).unwrap()[..], b"healthy payload");
        let s = p.stats();
        assert_eq!((s.pages_repaired, s.bytes_repaired, s.bytes_verified), (1, 15, 15));
    }

    #[test]
    fn verify_page_counts_a_verdict_and_no_read() {
        let plan = Arc::new(FaultPlan::new(Arc::new(MemoryPageStore::new())));
        let p = DataProvider::new(ProviderId(7), Arc::clone(&plan) as Arc<dyn PageStore>);
        let len = 3 * SUM_BLOCK as u64 + 5;
        p.store_page(PageId(1), SealedPage::seal(Bytes::from(vec![4u8; len as usize]))).unwrap();
        let counts = |p: &DataProvider| {
            let s = p.stats();
            (s.bytes_verified, s.corrupt_detected, s.reads, s.bytes_read)
        };

        assert_eq!(p.verify_page(PageId(1)).unwrap(), len);
        assert_eq!(counts(&p), (len, 0, 0, 0), "every block hashed, nothing read");
        assert!(matches!(p.verify_page(PageId(2)), Err(BlobError::PageMissing { .. })));
        assert!(plan.corrupt_stored_page(PageId(1)).unwrap());
        assert!(matches!(p.verify_page(PageId(1)), Err(BlobError::PageCorrupt { .. })));
        assert_eq!(counts(&p), (len, 1, 0, 0));
        p.fail();
        assert!(matches!(p.verify_page(PageId(1)), Err(BlobError::ProviderUnavailable(_))));
    }

    #[test]
    fn sub_page_fetch_verifies_only_the_blocks_it_returns() {
        let plan = Arc::new(FaultPlan::new(Arc::new(MemoryPageStore::new())));
        let p = DataProvider::new(ProviderId(7), Arc::clone(&plan) as Arc<dyn PageStore>);
        let data = Bytes::from((0..16 * SUM_BLOCK).map(|i| (i % 253) as u8).collect::<Vec<u8>>());
        p.store_page(PageId(1), SealedPage::seal(data.clone())).unwrap();

        let got = p.fetch_page_range(PageId(1), 5 * SUM_BLOCK as u64, SUM_BLOCK as u64).unwrap();
        assert_eq!(got, data.slice(5 * SUM_BLOCK..6 * SUM_BLOCK));
        assert_eq!(got.as_ptr(), data[5 * SUM_BLOCK..].as_ptr(), "a window, not a copy");
        assert_eq!(p.stats().bytes_verified, SUM_BLOCK as u64);
        // Straddling a block boundary costs both blocks; a whole-page
        // fetch costs the page.
        p.fetch_page_range(PageId(1), SUM_BLOCK as u64 - 1, 2).unwrap();
        assert_eq!(p.stats().bytes_verified, 3 * SUM_BLOCK as u64);
        let whole = p.fetch_page(PageId(1)).unwrap();
        assert_eq!(whole.data().as_ptr(), data.as_ptr());
        assert_eq!(p.stats().bytes_verified, 19 * SUM_BLOCK as u64);
        // An over-long range against an intact copy is a bad request,
        // not corruption.
        let too_far = p.fetch_page_range(PageId(1), 0, data.len() as u64 + 1);
        assert!(matches!(too_far, Err(BlobError::Storage(_))), "{too_far:?}");
        assert_eq!(p.stats().corrupt_detected, 0);
    }

    #[test]
    fn delete_then_restore_carries_the_new_sums() {
        let p = provider();
        p.store_page(PageId(4), sealed(b"first life")).unwrap();
        assert_eq!(p.delete_page(PageId(4)).unwrap(), Some(10));
        // Re-storing different content under the same pid verifies
        // against its own sums (GC reuses nothing, but scrub +
        // re-repair can legitimately re-store).
        p.store_page(PageId(4), sealed(b"second")).unwrap();
        assert_eq!(&p.fetch_page(PageId(4)).unwrap()[..], b"second");
    }

    #[test]
    fn draining_provider_is_read_only() {
        let p = provider();
        p.store_page(PageId(1), sealed(b"kept")).unwrap();
        p.begin_drain();
        assert!(p.is_draining() && p.is_available());
        // Writes refuse with the same typed error as a crash …
        assert!(matches!(
            p.store_page(PageId(2), sealed(b"no")),
            Err(BlobError::ProviderUnavailable(ProviderId(7)))
        ));
        // … while the read/migrate side keeps working.
        assert_eq!(&p.fetch_page(PageId(1)).unwrap()[..], b"kept");
        assert_eq!(p.scan_pages().unwrap(), vec![(PageId(1), 4)]);
        assert_eq!(p.delete_page(PageId(1)).unwrap(), Some(4));
        p.end_drain();
        assert!(!p.is_draining());
        p.store_page(PageId(2), sealed(b"yes")).unwrap();
    }

    #[test]
    fn retired_provider_rejects_stores_for_good() {
        let p = provider();
        p.begin_drain();
        p.retire();
        assert!(p.is_retired() && !p.is_draining() && p.is_available());
        assert!(matches!(
            p.store_page(PageId(1), sealed(b"no")),
            Err(BlobError::ProviderUnavailable(_))
        ));
    }

    #[test]
    fn failed_provider_rejects_requests_but_keeps_data() {
        let p = provider();
        p.store_page(PageId(1), sealed(b"kept")).unwrap();
        p.fail();
        assert!(!p.is_available());
        assert!(matches!(
            p.store_page(PageId(2), sealed(b"no")),
            Err(BlobError::ProviderUnavailable(ProviderId(7)))
        ));
        assert!(matches!(p.fetch_page(PageId(1)), Err(BlobError::ProviderUnavailable(_))));
        assert!(matches!(
            p.fetch_page_range(PageId(1), 0, 1),
            Err(BlobError::ProviderUnavailable(_))
        ));
        p.recover();
        assert_eq!(&p.fetch_page(PageId(1)).unwrap()[..], b"kept");
    }
}
