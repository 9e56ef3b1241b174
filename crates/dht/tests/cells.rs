//! Concurrency tests of the write-once cell table, through the store
//! that keeps its headers there ([`Slabs`]): lock-free header probes
//! and whole-table visits racing growth, sweeps and compaction.
//!
//! Each key's slab is one slot, so a header probe and a value read are
//! one key's two halves. Removal is a [`Slabs::sweep`] of a batch of
//! old keys, the only way a header cell turns into a tombstone.
//!
//! Sized to run in about a second with `--release`. `PROPTEST_SEED`
//! moves every key (see [`base`]), so each seed of CI's stress job
//! lands the keys on other buckets and cells and rebuilds at other
//! moments.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use blobseer_dht::{CellValue, Layout, Slabs};

/// Held by each test for its whole run. The races only show while the
/// threads of one test share the CPUs with nothing else, so the tests
/// take turns instead of running side by side.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Offset of every stored key: 0 by default, a mix of `PROPTEST_SEED`
/// when it is set.
fn base() -> u64 {
    static BASE: OnceLock<u64> = OnceLock::new();
    *BASE.get_or_init(|| {
        let seed = std::env::var("PROPTEST_SEED").ok().and_then(|v| v.parse::<u64>().ok());
        // Top bit clear, so base + index never overflows.
        seed.map_or(0, |seed| seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 1)
    })
}

/// The slab key of key `i`: both words derive from it, so a probe that
/// compared only one would be caught.
fn key(i: u64) -> (u64, u64) {
    let k = base() + i;
    (k, k.rotate_left(17) ^ 0x5555_5555_5555_5555)
}

/// The index a slab key was made from.
fn index((k, _): (u64, u64)) -> u64 {
    k - base()
}

/// One slot.
#[derive(Clone, Copy, Debug, PartialEq)]
struct One;

impl Layout for One {
    fn encode(&self) -> [u64; 2] {
        [1, !1]
    }

    fn decode(w: [u64; 2]) -> Self {
        assert_eq!(w, [1, !1], "torn header");
        One
    }

    fn slots(&self) -> usize {
        1
    }
}

/// A value that uses all three words and the kind bit, so a torn read
/// shows as a mismatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Val {
    odd: bool,
    words: [u64; 3],
}

fn val(k: u64) -> Val {
    Val { odd: k % 2 == 1, words: [k, k.wrapping_mul(0x9e37_79b9_7f4a_7c15), !k] }
}

impl CellValue for Val {
    fn encode(&self) -> (bool, [u64; 3]) {
        (self.odd, self.words)
    }

    fn decode(odd: bool, words: [u64; 3]) -> Self {
        Val { odd, words }
    }
}

type Store = Slabs<One, Val>;

/// Reserve key `i`'s slab and fill its slot; `false` if it was there.
fn put(slabs: &Store, i: u64) -> bool {
    let slab = slabs.reserve(key(i), One);
    slabs.store(key(i), &slab, [(0, val(i))]) == 1
}

/// Key `i`'s value: a header probe, then a slot read.
fn get(slabs: &Store, i: u64) -> Option<Val> {
    let slab = slabs.slab(key(i))?;
    slabs.get(key(i), Some((&slab, 0)))
}

/// Remove the keys `from..to`: one sweep, which turns their headers
/// into tombstones.
fn remove_below(slabs: &Store, from: u64, to: u64) {
    slabs.sweep(|k| (from..to).contains(&index(k)), |_, _, _, _| false);
}

/// Keys present before the churn starts and never removed.
const STABLE: u64 = 2_000;
/// Churn keys alive at once, give or take one batch: after every
/// `BATCH` inserts, the keys more than `WINDOW` behind are swept.
const WINDOW: u64 = 4_000;
const BATCH: u64 = 64;
/// Churn keys inserted in all.
const CHURN: u64 = 60_000;

/// Four buckets holding the stable keys: growing to `STABLE + WINDOW`
/// live keys takes every bucket through several growths, and the
/// churn's tombstones then force repeated compactions.
fn stable_table() -> Store {
    let slabs = Store::new(4);
    for k in 0..STABLE {
        assert!(put(&slabs, k));
    }
    slabs
}

/// The writer: insert churn keys, sweeping those `WINDOW` behind every
/// `BATCH` inserts. `inserted` counts churn keys stored; `swept` is the
/// churn index below which keys are being (or have been) removed,
/// raised before each sweep starts.
fn churn(slabs: &Store, inserted: &AtomicU64, swept: &AtomicU64) {
    for j in 0..CHURN {
        assert!(put(slabs, STABLE + j));
        inserted.store(j + 1, Ordering::SeqCst);
        if j % BATCH == BATCH - 1 && j >= WINDOW {
            let (from, to) = (swept.load(Ordering::SeqCst), j + 1 - WINDOW);
            swept.store(to, Ordering::SeqCst);
            remove_below(slabs, STABLE + from, STABLE + to);
        }
    }
}

fn assert_rebuilt(slabs: &Store, swept: &AtomicU64) {
    let stats = slabs.stats();
    assert!(stats.growths >= 6, "only {} growths", stats.growths);
    assert!(stats.compactions >= 3, "only {} compactions", stats.compactions);
    assert_eq!(slabs.live() as u64, STABLE + CHURN - swept.load(Ordering::SeqCst));
}

#[test]
fn readers_never_miss_a_present_key_through_growth_and_compaction() {
    let _turn = one_at_a_time();
    let slabs = stable_table();
    let done = AtomicBool::new(false);
    let (inserted, swept) = (AtomicU64::new(0), AtomicU64::new(0));
    let gets: u64 = std::thread::scope(|s| {
        let readers: Vec<_> = (0..2u64)
            .map(|t| {
                let (slabs, done) = (&slabs, &done);
                s.spawn(move || {
                    let mut gets = 0u64;
                    while !done.load(Ordering::Relaxed) {
                        // The two readers walk the keys in opposite orders.
                        for i in 0..STABLE {
                            let k = if t == 0 { i } else { STABLE - 1 - i };
                            assert_eq!(get(slabs, k), Some(val(k)), "key {k}");
                        }
                        gets += STABLE;
                    }
                    gets
                })
            })
            .collect();
        churn(&slabs, &inserted, &swept);
        done.store(true, Ordering::Relaxed);
        readers.into_iter().map(|r| r.join().unwrap()).sum()
    });
    assert!(gets > 0);
    assert_rebuilt(&slabs, &swept);
}

#[test]
fn for_each_sees_every_key_present_for_the_whole_visit() {
    let _turn = one_at_a_time();
    let slabs = stable_table();
    let done = AtomicBool::new(false);
    let (inserted, swept) = (AtomicU64::new(0), AtomicU64::new(0));
    let visits = std::thread::scope(|s| {
        let visitor = s.spawn(|| {
            let mut visits = 0u64;
            while !done.load(Ordering::Relaxed) {
                let before = inserted.load(Ordering::SeqCst);
                let mut seen = HashSet::new();
                slabs.for_each_live(One::slots, |v| {
                    let k = v.words[0];
                    assert_eq!(v, val(k), "key {k}");
                    assert!(seen.insert(k), "key {k} visited twice");
                });
                let cut = swept.load(Ordering::SeqCst);
                for k in 0..STABLE {
                    assert!(seen.contains(&k), "stable key {k} missed");
                }
                // Inserted before the visit began, not yet being swept
                // when it ended.
                for j in cut..before {
                    assert!(seen.contains(&(STABLE + j)), "churn key {j} missed");
                }
                visits += 1;
            }
            visits
        });
        churn(&slabs, &inserted, &swept);
        done.store(true, Ordering::Relaxed);
        visitor.join().unwrap()
    });
    assert!(visits > 0);
    assert_rebuilt(&slabs, &swept);
}

#[test]
fn capacity_tracks_peak_live_not_churn() {
    let _turn = one_at_a_time();
    // One bucket, so the bound is about the rebuild policy rather than
    // how evenly the hash spreads keys over buckets.
    const LIVE: u64 = 1_000;
    let slabs = Store::new(1);
    for k in 0..LIVE {
        put(&slabs, k);
    }
    for k in LIVE..LIVE + 1_000_000 {
        assert!(put(&slabs, k));
        if k % LIVE == LIVE - 1 {
            remove_below(&slabs, k + 1 - 2 * LIVE, k + 1 - LIVE);
        }
    }
    let stats = slabs.stats();
    let peak = 2 * LIVE as usize;
    assert!(stats.capacity <= 4 * peak, "{} cells for {peak} live keys", stats.capacity);
    assert!(stats.compactions > 0, "churn never compacted");
    assert_eq!(slabs.live(), LIVE as usize);
    for k in 1_000_000..1_000_000 + LIVE {
        assert_eq!(get(&slabs, k), Some(val(k)));
    }
}
