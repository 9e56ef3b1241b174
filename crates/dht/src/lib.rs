//! In-process DHT: the metadata-provider substrate.
//!
//! The paper stores segment-tree nodes "on the metadata provider in a
//! distributed way, using a simple DHT" (§4.1), implemented as "a custom
//! DHT based on \[a\] simple static distribution scheme" (§5). This crate
//! reproduces that component: a sharded key/value store where each
//! shard ("bucket") models one metadata provider, keys are placed by a
//! deterministic static hash, and — crucially — readers may **block**
//! until a key appears.
//!
//! Blocking gets are the transport-level mechanism behind the paper's
//! writer-concurrency protocol (§4.2): writer `C2` may link to tree
//! nodes that the concurrent, lower-versioned writer `C1` has not yet
//! stored. `C2`'s *readers* (and `C2` itself while completing unaligned
//! boundary pages) simply wait for those nodes to materialise. Waiting
//! is always on strictly lower versions, so it cannot deadlock.
//!
//! Two stores share the buckets' machinery. A [`Dht`] keeps one value
//! per key in a bucket's cells. A [`Slabs`] store — what the metadata
//! provider keeps tree nodes in — keeps one **slab** per update: a
//! header cell per key (blob, version) naming a run of write-once
//! slots that hold the update's values in its owner's [`Layout`]
//! order; see the `slab` module.
//!
//! Per-bucket access statistics are kept so that benches can observe
//! metadata hotspots (e.g. every reader of a snapshot fetches the same
//! root node — the paper's Figure 2(b) degradation). A slab store counts
//! its gets, puts and waits per value, never per header probe.
//!
//! ## Locking
//!
//! A stored value is never replaced (`put_new` is the only store of a
//! [`Dht`], a fill from empty the only store of a slab slot), and the
//! cell table is built for that: each bucket is an open-addressed array
//! of **write-once cells**, one cache line each — a state word, four
//! key words and three value words, all `AtomicU64` (keys and values
//! enter through [`CellKey`] / [`CellValue`]). A key is hashed once,
//! word by word; the hash picks the bucket, the home cell and a tag.
//!
//! - **A `get` takes no lock.** It reads each candidate cell as a
//!   one-cell seqlock with the fence pairing of `blobseer_version`'s
//!   `SeqLock`: load the state (Acquire), compare the key, copy the
//!   value, fence (Acquire), reload the state. Equal live states make
//!   the hit valid; as a key's value never changes, it is also current.
//!   The only read-modify-write on the path is the bucket's stats
//!   counter, striped by thread, so readers of the same hot node (every
//!   reader of a snapshot fetches the same root) never serialize and
//!   never write a cache line another reader writes.
//! - **A live cell is never rewritten.** A slab sweep turns it into a
//!   tombstone, which is never reused in place. Writers (`put_new`,
//!   reservations, sweeps, rebuilds) serialize on the bucket's mutex.
//!   Slot fills and slot reads take no lock: a fill is a CAS from
//!   empty, a read a one-slot seqlock that also checks the run's
//!   generation (`slab`).
//! - **The rebuild sequence.** When live entries plus tombstones pass ¾
//!   of a bucket's capacity, the inserting writer makes the bucket's
//!   rebuild sequence odd, appends a segment (if live entries fill
//!   more than half the capacity) or compacts at the same size,
//!   re-places every live entry, and makes the sequence even again.
//!   Segments are append-only and never freed, so no reader ever
//!   probes freed memory. A hit during a rebuild is still valid; a
//!   **miss** counts only if the sequence was even and unchanged across
//!   the probe, and otherwise the reader probes again under the bucket
//!   mutex. Readers never spin.
//! - **Waits.** Only a [`Slabs`] store waits: its blocking waiters
//!   ([`Slabs::wait`]) park on **per-key wait queues** under a wait
//!   mutex of the header's bucket, in one parking loop (`Slabs::park`),
//!   and a per-bucket waiter count gates the wakeup path: an
//!   uncontended store (no parked readers — by far the usual case)
//!   never touches the wait mutex or any condvar, and a contended one
//!   notifies only the condvars of *its own keys* (every key of its
//!   slab's version). A lost wakeup is ruled out by a pair
//!   of SeqCst fences: the store publishes its slots, fences, then
//!   loads the waiter count; the waiter bumps the count, fences, then
//!   re-probes. Whichever fence comes second in the single total order
//!   sees the other side's store — the waiter finds the value, or the
//!   store finds the waiter (and notifies under the wait mutex, which
//!   the waiter holds until it parks). A [`Dht`] keeps no wait state.
//! - **`for_each` holds the bucket mutex** while it visits that bucket,
//!   so it sees every entry present for the whole visit and a writer
//!   to the bucket waits only while that bucket is being visited.
//!   `len` and `stats().entries` read a per-bucket live counter.
//!
//! Per-bucket stats are [`blobseer_metrics::Counter`]s: one relaxed
//! `fetch_add` on a cache line of the calling thread's own stripe, so
//! counter traffic neither dirties the lines readers probe nor moves a
//! line between two readers.

mod codec;
mod hash;
mod slab;
mod stats;
mod table;

pub use codec::{CellKey, CellValue};
pub use hash::static_bucket;
pub use slab::{Layout, Slab, Slabs};
pub use stats::{BucketStats, DhtStats};

use std::marker::PhantomData;

use table::{Entry, Table};

/// Errors from blocking DHT operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DhtError {
    /// A blocking wait ([`Slabs::wait`]) exceeded its deadline without
    /// the value appearing.
    WaitTimeout,
}

impl std::fmt::Display for DhtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DhtError::WaitTimeout => write!(f, "timed out waiting for DHT key"),
        }
    }
}

impl std::error::Error for DhtError {}

/// One metadata provider: a table of write-once cells and its access
/// counters.
struct Bucket {
    /// The store proper: write-once cells.
    table: Table,
    stats: stats::BucketCounters,
}

/// `n` empty buckets.
fn buckets(n: usize) -> Box<[Bucket]> {
    assert!(n > 0, "DHT needs at least one bucket");
    (0..n)
        .map(|_| Bucket { table: Table::new(n), stats: stats::BucketCounters::default() })
        .collect()
}

/// A sharded, in-process key/value store with static key distribution.
///
/// One bucket models one metadata provider. All operations are
/// thread-safe; none of them waits. A [`Slabs`] store keeps its
/// headers in one.
pub struct Dht<K, V> {
    buckets: Box<[Bucket]>,
    /// Keys and values are stored as words, never as `K`/`V`.
    types: PhantomData<fn() -> (K, V)>,
}

impl<K, V> Dht<K, V>
where
    K: CellKey,
    V: CellValue,
{
    /// Create a DHT spread over `buckets` metadata providers.
    pub fn new(buckets: usize) -> Self {
        Dht { buckets: self::buckets(buckets), types: PhantomData }
    }

    /// Number of buckets (metadata providers).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// The bucket responsible for `key` under the static distribution.
    #[inline]
    pub fn bucket_of(&self, key: &K) -> usize {
        static_bucket(key, self.buckets.len())
    }

    /// The key's words, its bucket's index and its fraction (the one
    /// hash).
    #[inline]
    fn locate(&self, key: &K) -> ([u64; 4], usize, u64) {
        let words = key.encode();
        let (bucket, fraction) = hash::place(&words, self.buckets.len());
        (words, bucket, fraction)
    }

    /// Store a value only if the key is absent; returns `true` when
    /// this call inserted. The only store: a stored value is never
    /// replaced. That is the write-fencing primitive behind version
    /// abort repair: a repair must fill in the nodes a dead writer
    /// never stored without clobbering the ones it did (readers may
    /// already have woven content from them), and a zombie writer's
    /// late stores must lose to an already-placed repair node.
    pub fn put_new(&self, key: K, value: V) -> bool {
        let (words, i, fraction) = self.locate(&key);
        let b = &self.buckets[i];
        b.stats.puts.increment();
        let (kind, value) = value.encode();
        b.table.insert(&Entry { key: words, kind, value }, fraction)
    }

    /// Fetch a value if present. Lock-free: concurrent `get`s of
    /// published metadata never serialize on the bucket.
    pub fn get(&self, key: &K) -> Option<V> {
        let (words, i, fraction) = self.locate(key);
        let b = &self.buckets[i];
        b.stats.gets.increment();
        b.table.get(&words, fraction).map(|(kind, value)| V::decode(kind, value))
    }

    /// Visit every stored entry, one bucket at a time under that
    /// bucket's **mutex**: readers and waiters proceed in
    /// parallel, and a writer to a bucket waits only while that bucket
    /// is being visited. The view is per-bucket consistent, not global —
    /// an entry stored into a bucket the visit already passed is not
    /// seen. Keep `f` cheap and non-reentrant (it runs under the mutex).
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for b in self.buckets.iter() {
            b.table.for_each(|e| f(&K::decode(e.key), &V::decode(e.kind, e.value)));
        }
    }

    /// Total number of stored entries (O(buckets)).
    pub fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.table.len()).sum()
    }

    /// `true` when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|b| b.table.len() == 0)
    }

    /// Snapshot of per-bucket access statistics, plus the cells the
    /// buckets hold and how often they were rebuilt.
    pub fn stats(&self) -> DhtStats {
        collect_stats(&self.buckets, |b| b.table.len())
    }
}

/// The stats of `buckets`, each holding `entries(b)` entries, plus the
/// cells their tables hold and how often those were rebuilt.
fn collect_stats(buckets: &[Bucket], entries: impl Fn(&Bucket) -> usize) -> DhtStats {
    let mut stats = DhtStats::collect(buckets.iter().map(|b| b.stats.snapshot(entries(b))));
    for b in buckets {
        let (growths, compactions) = b.table.rebuilds();
        stats.capacity += b.table.capacity();
        stats.growths += growths;
        stats.compactions += compactions;
    }
    stats
}

impl<K, V> std::fmt::Debug for Dht<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dht").field("buckets", &self.buckets.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    #[test]
    fn put_get_roundtrip() {
        let dht: Dht<u64, u64> = Dht::new(8);
        dht.put_new(1, 100);
        dht.put_new(2, 200);
        assert_eq!(dht.get(&1), Some(100));
        assert_eq!(dht.get(&2), Some(200));
        assert_eq!(dht.get(&3), None);
        assert_eq!(dht.len(), 2);
        assert!(!dht.is_empty());
    }

    #[test]
    fn put_new_inserts_only_once() {
        let dht: Dht<u64, u64> = Dht::new(4);
        assert!(dht.put_new(7, 1), "first store wins");
        assert!(!dht.put_new(7, 2), "the loser's value is discarded");
        assert_eq!(dht.get(&7), Some(1));
    }

    #[test]
    fn keys_spread_over_buckets() {
        let dht: Dht<u64, u64> = Dht::new(16);
        for k in 0..10_000 {
            dht.put_new(k, k);
        }
        let stats = dht.stats();
        assert_eq!(stats.total_entries, 10_000);
        // No bucket should be empty or hold more than 3x the mean.
        let mean = 10_000.0 / 16.0;
        for b in &stats.buckets {
            assert!(b.entries > 0);
            assert!((b.entries as f64) < mean * 3.0);
        }
    }

    #[test]
    fn stats_count_operations() {
        let dht: Dht<u64, u64> = Dht::new(1);
        dht.put_new(1, 1);
        dht.get(&1);
        dht.get(&2);
        let s = dht.stats();
        assert_eq!(s.total_puts, 1);
        assert_eq!(s.total_gets, 2);
        assert_eq!(s.total_waits, 0);
    }

    #[test]
    fn for_each_visits_every_entry_once_and_leaves_the_table_alone() {
        let dht: Dht<u64, u64> = Dht::new(4);
        for k in 0..100 {
            dht.put_new(k, k * 2);
        }
        let mut seen = Vec::new();
        dht.for_each(|&k, &v| seen.push((k, v)));
        seen.sort_unstable();
        assert_eq!(seen, (0..100).map(|k| (k, k * 2)).collect::<Vec<_>>());
        assert_eq!(dht.len(), 100);
    }

    #[test]
    fn read_storm_sees_no_torn_or_stale_values() {
        // N readers + 1 writer on one bucket. The writer publishes
        // (k, k) pairs in increasing k order; every reader repeatedly
        // scans downward from the highest key it has observed and
        // asserts value == key (no torn reads) and that observed
        // highest keys never regress (no stale map views).
        let dht: Arc<Dht<u64, u64>> = Arc::new(Dht::new(1));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        const KEYS: u64 = 4000;
        let readers: Vec<_> = (0..6)
            .map(|_| {
                let d = Arc::clone(&dht);
                let s = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut high = 0u64;
                    while !s.load(Ordering::Relaxed) {
                        for k in (0..KEYS).rev() {
                            if let Some(v) = d.get(&k) {
                                assert_eq!(v, k, "torn value under read storm");
                                assert!(k + 1 >= high || high == 0 || d.get(&(high - 1)).is_some());
                                high = high.max(k + 1);
                                break;
                            }
                        }
                    }
                    high
                })
            })
            .collect();
        for k in 0..KEYS {
            dht.put_new(k, k);
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            let high = r.join().unwrap();
            assert!(high <= KEYS);
        }
        assert_eq!(dht.len(), KEYS as usize);
    }

    #[test]
    fn concurrent_put_get_storm() {
        let dht: Arc<Dht<(u64, u64), u64>> = Arc::new(Dht::new(8));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let d = Arc::clone(&dht);
            handles.push(std::thread::spawn(move || {
                for i in 0..2000u64 {
                    d.put_new((t, i), t * 10_000 + i);
                    assert_eq!(d.get(&(t, i)), Some(t * 10_000 + i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(dht.len(), 8 * 2000);
    }
}
