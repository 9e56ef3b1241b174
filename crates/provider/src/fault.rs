//! Composable fault injection for page stores.
//!
//! [`FaultPlan`] wraps any [`PageStore`] and injects the provider
//! failure modes the paper's availability story must survive:
//!
//! * **offline** — every request errors until the plan is cleared
//!   (a crashed node whose disk survives);
//! * **one-shot I/O errors** — the next *n* stores/fetches (an
//!   in-place verify counts as a fetch) fail, then service resumes (a
//!   flaky NIC, a timed-out RPC);
//! * **probabilistic I/O errors** — each store/fetch fails with
//!   probability `p`, drawn from a **seeded** RNG so every run of a
//!   test replays the same fault schedule;
//! * **latency** — every request sleeps first (a degraded disk);
//! * **bit-flip corruption** — the stored copy's payload differs from
//!   the caller's by one flipped bit (silent media rot) while the
//!   **sums the client sealed are kept** — re-sealing the rotted bytes
//!   would turn every corruption test into a silent adoption. The
//!   caller's `Bytes` is never mutated — corruption happens on a
//!   private copy — so zero-copy aliasing with the client buffer stays
//!   intact and the oracle a test compares against is never poisoned.
//!
//! The plan sits *below* [`crate::DataProvider`], which means the
//! provider's verification sees the faults exactly the way it would
//! see real ones: a corrupted store is detected by the next fetch that
//! covers the flipped block, an injected error is indistinguishable
//! from a genuine storage failure.
//!
//! All knobs are interior-mutable (`&self`): tests keep one
//! `Arc<FaultPlan>` clone as a control handle while the engine owns the
//! other through its provider.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use blobseer_types::{BlobError, PageId, Result};
use bytes::Bytes;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::sealed::SealedPage;
use crate::store::PageStore;

/// A fault-injecting [`PageStore`] wrapper; see the module docs.
pub struct FaultPlan {
    inner: Arc<dyn PageStore>,
    offline: AtomicBool,
    fail_next_stores: AtomicU64,
    fail_next_fetches: AtomicU64,
    /// `f64::to_bits` of the per-request error probability (0.0 = off).
    error_prob_bits: AtomicU64,
    corrupt_next_stores: AtomicU64,
    /// Injected latency per request, in microseconds (0 = off).
    latency_micros: AtomicU64,
    rng: Mutex<StdRng>,
    injected_errors: AtomicU64,
    injected_corruptions: AtomicU64,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("offline", &self.offline.load(Ordering::Relaxed))
            .field("injected_errors", &self.injected_errors.load(Ordering::Relaxed))
            .field("injected_corruptions", &self.injected_corruptions.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl FaultPlan {
    /// Wrap `inner` with no faults armed and a default RNG seed.
    pub fn new(inner: Arc<dyn PageStore>) -> Self {
        Self::with_seed(inner, 0xfau64)
    }

    /// Wrap `inner` with `seed` driving every probabilistic decision
    /// (error draws and corrupt-bit positions). Same seed + same
    /// request sequence = same fault schedule.
    pub fn with_seed(inner: Arc<dyn PageStore>, seed: u64) -> Self {
        FaultPlan {
            inner,
            offline: AtomicBool::new(false),
            fail_next_stores: AtomicU64::new(0),
            fail_next_fetches: AtomicU64::new(0),
            error_prob_bits: AtomicU64::new(0f64.to_bits()),
            corrupt_next_stores: AtomicU64::new(0),
            latency_micros: AtomicU64::new(0),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            injected_errors: AtomicU64::new(0),
            injected_corruptions: AtomicU64::new(0),
        }
    }

    /// Take the store offline (`true`) or back online (`false`). While
    /// offline every request fails; stored pages are retained.
    pub fn set_offline(&self, offline: bool) {
        self.offline.store(offline, Ordering::SeqCst);
    }

    /// Arm one-shot store errors: the next `n` stores fail.
    pub fn fail_next_stores(&self, n: u64) {
        self.fail_next_stores.store(n, Ordering::SeqCst);
    }

    /// Arm one-shot fetch errors: the next `n` fetches or in-place
    /// verifies fail.
    pub fn fail_next_fetches(&self, n: u64) {
        self.fail_next_fetches.store(n, Ordering::SeqCst);
    }

    /// Every store/fetch fails with probability `p` (0.0 disables).
    pub fn set_error_probability(&self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        self.error_prob_bits.store(p.to_bits(), Ordering::SeqCst);
    }

    /// Arm bit-flip corruption: the next `n` stores flip one
    /// RNG-chosen bit in a private copy of the payload before it
    /// reaches the inner store.
    pub fn corrupt_next_stores(&self, n: u64) {
        self.corrupt_next_stores.store(n, Ordering::SeqCst);
    }

    /// Every request sleeps `latency` first (zero disables).
    pub fn set_latency(&self, latency: Duration) {
        self.latency_micros.store(latency.as_micros() as u64, Ordering::SeqCst);
    }

    /// Flip one RNG-chosen bit of a page already in the inner store —
    /// media rot striking at rest rather than in flight. Returns `true`
    /// if the page existed (and is now corrupt).
    pub fn corrupt_stored_page(&self, pid: PageId) -> Result<bool> {
        let page = match self.inner.fetch(pid) {
            Ok(p) => p,
            Err(_) => return Ok(false),
        };
        self.inner.store(pid, self.flip_one_bit(&page))?;
        self.injected_corruptions.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    /// Lifetime injected request errors (one-shot + probabilistic +
    /// offline rejections).
    pub fn injected_errors(&self) -> u64 {
        self.injected_errors.load(Ordering::Relaxed)
    }

    /// Lifetime payload corruptions injected (on-store and at-rest).
    pub fn injected_corruptions(&self) -> u64 {
        self.injected_corruptions.load(Ordering::Relaxed)
    }

    /// `page` with one RNG-chosen payload bit flipped on a private copy
    /// and its sealed sums kept (empty payloads pass through untouched
    /// — nothing to flip).
    fn flip_one_bit(&self, page: &SealedPage) -> SealedPage {
        if page.is_empty() {
            return page.clone();
        }
        let mut copy = page.to_vec();
        let mut rng = self.rng.lock();
        let byte = rng.gen_range(0..copy.len());
        let bit = rng.gen_range(0..8u32);
        copy[byte] ^= 1 << bit;
        page.with_payload(Bytes::from(copy))
    }

    /// Common request gate: latency, offline, one-shot and
    /// probabilistic errors, in that order.
    fn gate(&self, what: &str, one_shot: &AtomicU64) -> Result<()> {
        let micros = self.latency_micros.load(Ordering::SeqCst);
        if micros > 0 {
            std::thread::sleep(Duration::from_micros(micros));
        }
        if self.offline.load(Ordering::SeqCst) {
            self.injected_errors.fetch_add(1, Ordering::Relaxed);
            return Err(BlobError::Storage(format!("injected fault: store offline ({what})")));
        }
        if take_one(one_shot) {
            self.injected_errors.fetch_add(1, Ordering::Relaxed);
            return Err(BlobError::Storage(format!("injected fault: one-shot {what} error")));
        }
        let p = f64::from_bits(self.error_prob_bits.load(Ordering::SeqCst));
        if p > 0.0 && self.rng.lock().gen_bool(p) {
            self.injected_errors.fetch_add(1, Ordering::Relaxed);
            return Err(BlobError::Storage(format!("injected fault: probabilistic {what} error")));
        }
        Ok(())
    }
}

/// Consume one armed one-shot: decrement-if-positive, never below zero,
/// and exactly once per arming under any number of racing callers.
fn take_one(armed: &AtomicU64) -> bool {
    armed.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1)).is_ok()
}

impl PageStore for FaultPlan {
    fn store(&self, pid: PageId, page: SealedPage) -> Result<()> {
        self.gate("store", &self.fail_next_stores)?;
        let page = if take_one(&self.corrupt_next_stores) {
            self.injected_corruptions.fetch_add(1, Ordering::Relaxed);
            self.flip_one_bit(&page)
        } else {
            page
        };
        self.inner.store(pid, page)
    }

    fn fetch(&self, pid: PageId) -> Result<SealedPage> {
        self.gate("fetch", &self.fail_next_fetches)?;
        self.inner.fetch(pid)
    }

    /// Behind the same gate as [`Self::fetch`]: an in-place verify is a
    /// read of the copy, and consumes a one-shot fetch error.
    fn verify(&self, pid: PageId) -> Result<Option<u64>> {
        self.gate("fetch", &self.fail_next_fetches)?;
        self.inner.verify(pid)
    }

    fn contains(&self, pid: PageId) -> bool {
        self.inner.contains(pid)
    }

    fn delete(&self, pid: PageId) -> Result<Option<u64>> {
        self.gate("delete", &self.fail_next_stores)?;
        self.inner.delete(pid)
    }

    fn scan(&self) -> Result<Vec<(PageId, u64)>> {
        // Scans (scrub/repair enumeration) honour *offline* only: the
        // transient-error knobs model per-request flakiness, and a scan
        // is the one request whose spurious failure would make a whole
        // provider look unenumerable.
        if self.offline.load(Ordering::SeqCst) {
            self.injected_errors.fetch_add(1, Ordering::Relaxed);
            return Err(BlobError::Storage("injected fault: store offline (scan)".into()));
        }
        self.inner.scan()
    }

    fn page_count(&self) -> usize {
        self.inner.page_count()
    }

    fn stored_bytes(&self) -> u64 {
        self.inner.stored_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemoryPageStore;
    use crate::DataProvider;
    use blobseer_types::ProviderId;

    fn sealed(bytes: &'static [u8]) -> SealedPage {
        SealedPage::seal(Bytes::from_static(bytes))
    }

    fn plan() -> (Arc<FaultPlan>, Arc<MemoryPageStore>) {
        let mem = Arc::new(MemoryPageStore::new());
        let plan = Arc::new(FaultPlan::with_seed(Arc::clone(&mem) as Arc<dyn PageStore>, 42));
        (plan, mem)
    }

    #[test]
    fn transparent_when_no_faults_armed() {
        let (plan, _) = plan();
        plan.store(PageId(1), sealed(b"payload")).unwrap();
        assert_eq!(&plan.fetch(PageId(1)).unwrap()[..], b"payload");
        assert_eq!(plan.scan().unwrap(), vec![(PageId(1), 7)]);
        assert_eq!(plan.injected_errors(), 0);
    }

    #[test]
    fn offline_fails_everything_then_recovers() {
        let (plan, _) = plan();
        plan.store(PageId(1), sealed(b"kept")).unwrap();
        plan.set_offline(true);
        assert!(plan.store(PageId(2), sealed(b"no")).is_err());
        assert!(plan.fetch(PageId(1)).is_err());
        assert!(plan.scan().is_err());
        plan.set_offline(false);
        assert_eq!(&plan.fetch(PageId(1)).unwrap()[..], b"kept");
        assert_eq!(plan.injected_errors(), 3);
    }

    #[test]
    fn one_shot_errors_consume_then_clear() {
        let (plan, _) = plan();
        plan.fail_next_stores(2);
        assert!(plan.store(PageId(1), sealed(b"a")).is_err());
        assert!(plan.store(PageId(1), sealed(b"a")).is_err());
        plan.store(PageId(1), sealed(b"a")).unwrap();
        plan.fail_next_fetches(1);
        assert!(plan.fetch(PageId(1)).is_err());
        assert_eq!(&plan.fetch(PageId(1)).unwrap()[..], b"a");
    }

    #[test]
    fn racing_callers_consume_each_one_shot_exactly_once() {
        const ARMED: u64 = 24;
        const THREADS: usize = 8;
        const CALLS: usize = 16;
        let (plan, _) = plan();
        plan.fail_next_stores(ARMED);
        let start = Arc::new(std::sync::Barrier::new(THREADS));
        let racers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (plan, start) = (Arc::clone(&plan), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    (0..CALLS)
                        .filter(|&i| {
                            plan.store(PageId((t * CALLS + i) as u128), sealed(b"r")).is_err()
                        })
                        .count() as u64
                })
            })
            .collect();
        let failed: u64 = racers.into_iter().map(|r| r.join().unwrap()).sum();
        assert_eq!(failed, ARMED);
        assert_eq!(plan.injected_errors(), ARMED);
        plan.store(PageId(u128::MAX), sealed(b"r")).unwrap();
    }

    #[test]
    fn in_place_verifies_pass_the_fetch_gate() {
        let (plan, _) = plan();
        plan.store(PageId(1), sealed(b"payload")).unwrap();
        assert_eq!(plan.verify(PageId(1)).unwrap(), Some(7));
        plan.set_offline(true);
        assert!(matches!(plan.verify(PageId(1)), Err(BlobError::Storage(_))));
        assert_eq!(plan.injected_errors(), 1);
        plan.set_offline(false);
        // One armed fetch error is consumed by exactly one verify.
        plan.fail_next_fetches(1);
        assert!(matches!(plan.verify(PageId(1)), Err(BlobError::Storage(_))));
        assert_eq!(plan.verify(PageId(1)).unwrap(), Some(7));
        assert_eq!(plan.injected_errors(), 2);
        // Rot at rest is seen where the copy lives.
        assert!(plan.corrupt_stored_page(PageId(1)).unwrap());
        assert_eq!(plan.verify(PageId(1)).unwrap(), None);
    }

    #[test]
    fn probabilistic_errors_are_seed_deterministic() {
        let run = || {
            let (plan, _) = plan();
            plan.set_error_probability(0.5);
            (0..64).map(|i| plan.store(PageId(i), sealed(b"x")).is_err()).collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must replay the same fault schedule");
        assert!(a.iter().any(|&e| e) && !a.iter().all(|&e| e));
    }

    #[test]
    fn corruption_flips_one_payload_bit_and_keeps_the_sealed_sums() {
        let (plan, mem) = plan();
        let original = Bytes::from(vec![0u8; 512]);
        let page = SealedPage::seal(original.clone());
        plan.corrupt_next_stores(1);
        plan.store(PageId(1), page.clone()).unwrap();
        assert!(original.iter().all(|&b| b == 0), "caller's buffer was mutated");
        let stored = mem.fetch(PageId(1)).unwrap();
        let diff: u32 = stored.iter().zip(original.iter()).map(|(a, b)| (a ^ b).count_ones()).sum();
        assert_eq!(diff, 1, "exactly one bit flips");
        assert_eq!(stored.sums(), page.sums(), "re-sealing would adopt the rot");
        assert_eq!(stored.verify(), None);
        assert_eq!(plan.injected_corruptions(), 1);
    }

    #[test]
    fn at_rest_corruption_is_caught_by_the_provider_checksum() {
        let (plan, _) = plan();
        let p = DataProvider::new(ProviderId(0), Arc::clone(&plan) as Arc<dyn PageStore>);
        p.store_page(PageId(9), SealedPage::seal(Bytes::from(vec![7u8; 128]))).unwrap();
        assert!(plan.corrupt_stored_page(PageId(9)).unwrap());
        assert!(matches!(p.fetch_page(PageId(9)), Err(BlobError::PageCorrupt { .. })));
        assert!(!plan.corrupt_stored_page(PageId(404)).unwrap(), "absent page: nothing to rot");
    }

    #[test]
    fn latency_injection_delays_requests() {
        let (plan, _) = plan();
        plan.set_latency(Duration::from_millis(5));
        let t0 = std::time::Instant::now();
        plan.store(PageId(1), sealed(b"slow")).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(5));
        plan.set_latency(Duration::ZERO);
    }
}
