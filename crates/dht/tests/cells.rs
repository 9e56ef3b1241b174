//! Concurrency tests of the write-once cell table: lock-free readers
//! and whole-table visits racing growth, compaction and waits.
//!
//! Sized to run in about a second with `--release`. `PROPTEST_SEED`
//! moves every key (see [`base`]), so each seed of CI's stress job
//! lands the keys on other buckets and cells and rebuilds at other
//! moments.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use blobseer_dht::{CellKey, CellValue, Dht};

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

/// Key `i` of a test, stored as word `base() + i`. The encoding uses
/// all four words, so a probe that compared fewer would be caught.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Key(u64);

impl CellKey for Key {
    fn encode(&self) -> [u64; 4] {
        let k = base() + self.0;
        [k, !k, k.rotate_left(17), k ^ 0x5555_5555_5555_5555]
    }

    fn decode(w: [u64; 4]) -> Self {
        let key = Key(w[0] - base());
        assert_eq!(key.encode(), w, "torn key");
        key
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

/// Keys present before the churn starts and never removed.
const STABLE: u64 = 2_000;
/// Churn keys alive at once: key `j` is removed when key `j + WINDOW`
/// is inserted.
const WINDOW: u64 = 4_000;
/// Churn keys inserted in all.
const CHURN: u64 = 60_000;

/// Op index of churn key `j`'s insert: `WINDOW` inserts, then
/// alternating insert/remove pairs.
fn insert_op(j: u64) -> u64 {
    if j < WINDOW {
        j
    } else {
        WINDOW + 2 * (j - WINDOW)
    }
}

/// Op index of churn key `j`'s removal.
fn remove_op(j: u64) -> u64 {
    insert_op(j + WINDOW) + 1
}

/// Four buckets holding the stable keys: growing to `STABLE + WINDOW`
/// live keys takes every bucket through several growths, and the
/// churn's tombstones then force repeated compactions.
fn stable_table() -> Dht<Key, Val> {
    let dht = Dht::new(4);
    for k in 0..STABLE {
        assert!(dht.put_new(Key(k), val(k)));
    }
    dht
}

/// The writer: insert churn keys, removing each `WINDOW` inserts later;
/// `progress` counts completed ops.
fn churn(dht: &Dht<Key, Val>, progress: &AtomicU64) {
    for j in 0..CHURN {
        assert!(dht.put_new(Key(STABLE + j), val(STABLE + j)));
        progress.fetch_add(1, Ordering::SeqCst);
        if j >= WINDOW {
            let gone = STABLE + j - WINDOW;
            assert_eq!(dht.remove(&Key(gone)), Some(val(gone)));
            progress.fetch_add(1, Ordering::SeqCst);
        }
    }
}

fn assert_rebuilt(dht: &Dht<Key, Val>) {
    let stats = dht.stats();
    assert!(stats.growths >= 6, "only {} growths", stats.growths);
    assert!(stats.compactions >= 3, "only {} compactions", stats.compactions);
    assert_eq!(dht.len() as u64, STABLE + WINDOW);
}

#[test]
fn readers_never_miss_a_present_key_through_growth_and_compaction() {
    let _turn = one_at_a_time();
    let dht = stable_table();
    let done = AtomicBool::new(false);
    let progress = AtomicU64::new(0);
    let gets: u64 = std::thread::scope(|s| {
        let readers: Vec<_> = (0..2u64)
            .map(|t| {
                let (dht, done) = (&dht, &done);
                s.spawn(move || {
                    let mut gets = 0u64;
                    while !done.load(Ordering::Relaxed) {
                        // The two readers walk the keys in opposite orders.
                        for i in 0..STABLE {
                            let k = if t == 0 { i } else { STABLE - 1 - i };
                            assert_eq!(dht.get(&Key(k)), Some(val(k)), "key {k}");
                        }
                        gets += STABLE;
                    }
                    gets
                })
            })
            .collect();
        churn(&dht, &progress);
        done.store(true, Ordering::Relaxed);
        readers.into_iter().map(|r| r.join().unwrap()).sum()
    });
    assert!(gets > 0);
    assert_rebuilt(&dht);
}

#[test]
fn for_each_sees_every_key_present_for_the_whole_visit() {
    let _turn = one_at_a_time();
    let dht = stable_table();
    let done = AtomicBool::new(false);
    let progress = AtomicU64::new(0);
    let visits = std::thread::scope(|s| {
        let visitor = s.spawn(|| {
            let mut visits = 0u64;
            while !done.load(Ordering::Relaxed) {
                let before = progress.load(Ordering::SeqCst);
                let mut seen = HashSet::new();
                dht.for_each(|k, v| {
                    assert_eq!(*v, val(k.0), "key {}", k.0);
                    assert!(seen.insert(k.0), "key {} visited twice", k.0);
                });
                let after = progress.load(Ordering::SeqCst);
                for k in 0..STABLE {
                    assert!(seen.contains(&k), "stable key {k} missed");
                }
                // Inserted before the visit began, not yet being removed
                // when it ended.
                for j in 0..CHURN {
                    if insert_op(j) < before && remove_op(j) > after {
                        assert!(seen.contains(&(STABLE + j)), "churn key {j} missed");
                    }
                }
                visits += 1;
            }
            visits
        });
        churn(&dht, &progress);
        done.store(true, Ordering::Relaxed);
        visitor.join().unwrap()
    });
    assert!(visits > 0);
    assert_rebuilt(&dht);
}

#[test]
fn capacity_tracks_peak_live_not_churn() {
    let _turn = one_at_a_time();
    // One bucket, so the bound is about the rebuild policy rather than
    // how evenly the hash spreads keys over buckets.
    const LIVE: u64 = 1_000;
    let dht: Dht<Key, u64> = Dht::new(1);
    for k in 0..LIVE {
        dht.put_new(Key(k), k);
    }
    for k in LIVE..LIVE + 1_000_000 {
        assert!(dht.put_new(Key(k), k));
        assert_eq!(dht.remove(&Key(k - LIVE)), Some(k - LIVE));
    }
    let stats = dht.stats();
    let peak = LIVE as usize + 1;
    assert!(stats.capacity <= 4 * peak, "{} cells for {peak} live keys", stats.capacity);
    assert!(stats.compactions > 0, "churn never compacted");
    assert_eq!(dht.len(), LIVE as usize);
    for k in 1_000_000..1_000_000 + LIVE {
        assert_eq!(dht.get(&Key(k)), Some(k));
    }
}

#[test]
fn a_put_racing_a_new_waiter_always_wakes_it() {
    let _turn = one_at_a_time();
    // The waiter registers and re-probes while the put publishes and
    // checks for waiters, at offsets swept over about a microsecond. A
    // lost wakeup leaves the waiter parked until its timeout; a round
    // that takes half of it fails.
    const ROUNDS: u64 = 100_000;
    const TIMEOUT: Duration = Duration::from_secs(5);
    let dht: Dht<Key, u64> = Dht::new(1);
    let go = AtomicU64::new(u64::MAX);
    let finished = AtomicU64::new(u64::MAX);
    let spin_until = |cell: &AtomicU64, round: u64| {
        let (start, mut spins) = (Instant::now(), 0u32);
        while cell.load(Ordering::Acquire) != round {
            assert!(start.elapsed() < 2 * TIMEOUT, "round {round}: the other thread stalled");
            spins += 1;
            if spins > 1_000 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    };
    std::thread::scope(|s| {
        s.spawn(|| {
            for round in 0..ROUNDS {
                spin_until(&go, round);
                let start = Instant::now();
                assert_eq!(dht.get_wait(&Key(round), TIMEOUT), Ok(round), "round {round}");
                let took = start.elapsed();
                assert!(took < TIMEOUT / 2, "round {round}: woken after {took:?}");
                finished.store(round, Ordering::Release);
            }
        });
        for round in 0..ROUNDS {
            go.store(round, Ordering::Release);
            for i in 0..round % 1024 {
                std::hint::black_box(i);
            }
            assert!(dht.put_new(Key(round), round));
            spin_until(&finished, round);
            dht.remove(&Key(round));
        }
    });
}
