//! Concurrency tests of the slab store: lock-free readers racing fills,
//! reservations, segment growth and run release and reuse; fills racing
//! waiters; stale headers racing the reuse of their run.
//!
//! Sized to run in about a second with `--release`. `PROPTEST_SEED`
//! moves every key (see [`base`]), so each seed of CI's stress job
//! lands the headers on other buckets and cells.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use blobseer_dht::{CellValue, Layout, Slab, Slabs};

/// Held by each test for its whole run. The races only show while the
/// threads of one test share the CPUs with nothing else, so the tests
/// take turns instead of running side by side.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Offset of every key: 0 by default, a mix of `PROPTEST_SEED` when it
/// is set.
fn base() -> u64 {
    static BASE: OnceLock<u64> = OnceLock::new();
    *BASE.get_or_init(|| {
        let seed = std::env::var("PROPTEST_SEED").ok().and_then(|v| v.parse::<u64>().ok());
        // Top bit clear, so base + index never overflows.
        seed.map_or(0, |seed| seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 1)
    })
}

/// The slab key of version `j` in test `t`.
fn key(t: u64, j: u64) -> (u64, u64) {
    (base() + j, t)
}

/// A run of `n` slots.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Run(u64);

impl Layout for Run {
    fn encode(&self) -> [u64; 2] {
        [self.0, !self.0]
    }

    fn decode(w: [u64; 2]) -> Self {
        assert_eq!(w[1], !w[0], "torn header");
        Run(w[0])
    }

    fn slots(&self) -> usize {
        self.0 as usize
    }
}

/// A value naming its version and slot in all three words and the kind
/// bit, so a torn read or another version's value shows as a mismatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Val {
    odd: bool,
    words: [u64; 3],
}

fn val(j: u64, i: usize) -> Val {
    let i = i as u64;
    Val { odd: (j + i) % 2 == 1, words: [j, i, (j ^ i << 32).wrapping_mul(0x9e37_79b9_7f4a_7c15)] }
}

impl CellValue for Val {
    fn encode(&self) -> (bool, [u64; 3]) {
        (self.odd, self.words)
    }

    fn decode(odd: bool, words: [u64; 3]) -> Self {
        Val { odd, words }
    }
}

type Store = Slabs<Run, Val>;

/// Store every value of version `j` into its freshly reserved slab.
fn write(slabs: &Store, t: u64, j: u64, len: u64) -> Slab<Run> {
    let slab = slabs.reserve(key(t, j), Run(len));
    let filled = slabs.store(key(t, j), &slab, (0..len as usize).map(|i| (i, val(j, i))));
    assert_eq!(filled, len as usize, "version {j}: a fresh slab's slots are empty");
    slab
}

/// Raises its flag when dropped, so helper threads looping until the
/// flag stop even when the test's own thread panics.
struct Stop<'a>(&'a AtomicBool);

impl Drop for Stop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Spin until `cell` reads `round`, yielding after a while.
fn spin_until(cell: &AtomicU64, round: u64, limit: Duration) {
    let (start, mut spins) = (Instant::now(), 0u32);
    while cell.load(Ordering::Acquire) != round {
        assert!(start.elapsed() < limit, "round {round}: the other thread stalled");
        spins += 1;
        if spins > 1_000 {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

#[test]
fn readers_see_every_stored_value_and_only_their_own_version_through_reuse() {
    let _turn = one_at_a_time();
    // Versions `swept..stored` are fully stored and not yet swept; the
    // writer sweeps all but the last `WINDOW` every 64 versions, so
    // their runs (of 23 lengths, plus a long one now and then that
    // takes a fresh segment) are reused under new generations.
    const VERSIONS: u64 = 60_000;
    const WINDOW: u64 = 256;
    let len = |j: u64| if j % 5_000 == 4_999 { 3_000 + j / 5_000 } else { 1 + j % 23 };
    let slabs = Store::new(4);
    let stored = AtomicU64::new(0);
    let swept = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let checks: u64 = std::thread::scope(|s| {
        let readers: Vec<_> = (0..2u64)
            .map(|t| {
                let (slabs, stored, swept, done) = (&slabs, &stored, &swept, &done);
                s.spawn(move || {
                    let (mut rng, mut checks) = (0x2545_f491_4f6c_dd1d ^ t, 0u64);
                    let mut stale: Option<(u64, Slab<Run>)> = None;
                    while !done.load(Ordering::Relaxed) {
                        let lo = swept.load(Ordering::SeqCst);
                        let hi = stored.load(Ordering::SeqCst);
                        if hi == lo {
                            continue;
                        }
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        let j = lo + rng % (hi - lo);
                        let slab = slabs.slab(key(1, j));
                        let mut missed = slab.is_none();
                        if let Some(slab) = slab {
                            assert_eq!(slab.layout, Run(len(j)), "version {j}'s header");
                            for i in 0..len(j) as usize {
                                match slabs.get(key(1, j), Some((&slab, i))) {
                                    Some(v) => assert_eq!(v, val(j, i), "version {j} slot {i}"),
                                    None => missed = true,
                                }
                            }
                        }
                        // Stored before the probe and not swept after it.
                        let present = j >= swept.load(Ordering::SeqCst);
                        assert!(!(missed && present), "version {j}: a stored value was missed");
                        // A header kept from an earlier probe reads its
                        // own version's values or nothing, whatever
                        // became of its run.
                        if let Some((old, slab)) = stale {
                            let i = (rng >> 32) as usize % len(old) as usize;
                            if let Some(v) = slabs.get(key(1, old), Some((&slab, i))) {
                                assert_eq!(v, val(old, i), "stale header of version {old}");
                            }
                        }
                        if rng % 8 == 0 {
                            stale = slab.map(|slab| (j, slab));
                        }
                        checks += 1;
                    }
                    checks
                })
            })
            .collect();
        let stop = Stop(&done);
        for j in 0..VERSIONS {
            write(&slabs, 1, j, len(j));
            stored.store(j + 1, Ordering::SeqCst);
            if j % 64 == 63 && j >= WINDOW {
                swept.store(j - WINDOW, Ordering::SeqCst);
                slabs.sweep(|(k, t)| t == 1 && k < base() + j - WINDOW, |_, _, _, _| false);
            }
        }
        drop(stop);
        readers.into_iter().map(|r| r.join().unwrap()).sum()
    });
    assert!(checks > 0);
    let stats = slabs.stats();
    assert!(stats.slots < 60_000, "{} slots carved: runs were not reused", stats.slots);
    let kept = swept.load(Ordering::SeqCst)..VERSIONS;
    assert_eq!(slabs.live() as u64, kept.map(len).sum::<u64>());
}

#[test]
fn a_fill_racing_a_new_waiter_always_wakes_it() {
    let _turn = one_at_a_time();
    // The waiter registers and re-probes while the store fills its slot
    // and checks for waiters, at offsets swept over about a
    // microsecond; half the rounds reserve the slab before the waiter
    // starts, half after. A lost wakeup leaves the waiter parked until
    // its timeout; a round that takes half of it fails.
    const ROUNDS: u64 = 100_000;
    const TIMEOUT: Duration = Duration::from_secs(5);
    let slabs = Store::new(1);
    let go = AtomicU64::new(u64::MAX);
    let finished = AtomicU64::new(u64::MAX);
    std::thread::scope(|s| {
        s.spawn(|| {
            for round in 0..ROUNDS {
                spin_until(&go, round, 2 * TIMEOUT);
                let start = Instant::now();
                let (k, t) = key(2, round);
                let got = slabs.wait((k, t), [k, t, 0, 0], |_| Some(0), TIMEOUT, TIMEOUT, || {});
                assert_eq!(got, Ok(val(round, 0)), "round {round}");
                let took = start.elapsed();
                assert!(took < TIMEOUT / 2, "round {round}: woken after {took:?}");
                finished.store(round, Ordering::Release);
            }
        });
        for round in 0..ROUNDS {
            let early = (round % 2 == 0).then(|| slabs.reserve(key(2, round), Run(1)));
            go.store(round, Ordering::Release);
            for i in 0..round % 1024 {
                std::hint::black_box(i);
            }
            let slab = early.unwrap_or_else(|| slabs.reserve(key(2, round), Run(1)));
            assert_eq!(slabs.store(key(2, round), &slab, [(0, val(round, 0))]), 1);
            spin_until(&finished, round, 2 * TIMEOUT);
            if round % 256 == 255 {
                slabs.sweep(|(_, t)| t == 2, |_, _, _, _| false);
            }
        }
    });
}

#[test]
fn a_stale_header_fills_nothing_in_its_reused_run() {
    let _turn = one_at_a_time();
    // Each round reserves version 2r and never fills it, hands its
    // header to a zombie that keeps filling through it, sweeps it (the
    // run is released) and reserves version 2r + 1, which takes the
    // same run under the next generation. Whatever the zombie's fills
    // race, version 2r + 1's writer fills every slot with its own value.
    const ROUNDS: u64 = 20_000;
    const LEN: u64 = 8;
    let slabs = Store::new(2);
    let zombie: Mutex<Option<(u64, Slab<Run>)>> = Mutex::new(None);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                let Some((j, slab)) = *zombie.lock().unwrap() else { continue };
                slabs.store(key(3, j), &slab, (0..LEN as usize).map(|i| (i, val(j, i))));
            }
        });
        let _stop = Stop(&done);
        for round in 0..ROUNDS {
            let (dead, next) = (2 * round, 2 * round + 1);
            let slab = slabs.reserve(key(3, dead), Run(LEN));
            *zombie.lock().unwrap() = Some((dead, slab));
            std::thread::yield_now();
            slabs.sweep(|k| k == key(3, dead), |_, _, _, _| false);
            let reused = slabs.reserve(key(3, next), Run(LEN));
            assert_ne!(reused, slab, "a new generation");
            for i in 0..round % 64 {
                std::hint::black_box(i);
            }
            let filled =
                slabs.store(key(3, next), &reused, (0..LEN as usize).map(|i| (i, val(next, i))));
            assert_eq!(filled, LEN as usize, "round {round}: a stale header filled a reused slot");
            for i in 0..LEN as usize {
                assert_eq!(slabs.get(key(3, next), Some((&reused, i))), Some(val(next, i)));
            }
            // A sweep that met a zombie mid-fill kept that slab: retry it.
            slabs.sweep(|(_, t)| t == 3, |_, _, _, _| false);
        }
    });
    assert!(slabs.stats().slots <= 8 * LEN as usize, "the runs are reused every round");
}

#[test]
fn racing_fills_of_one_slot_leave_one_winner() {
    let _turn = one_at_a_time();
    // The test's thread and a helper store their own values into every
    // slot of the same fresh slab at the same moment, from opposite
    // ends, so they meet on some slot every round: each slot is won by
    // exactly one of them, and holds the winner's value.
    const ROUNDS: u64 = 20_000;
    const LEN: usize = 16;
    const LIMIT: Duration = Duration::from_secs(10);
    let slabs = Store::new(1);
    let go = AtomicU64::new(u64::MAX);
    let finished = AtomicU64::new(u64::MAX);
    let helper_won = AtomicU64::new(0);
    // Fill every slot of `round`'s slab as filler `t`; the slots won.
    let fill = |round: u64, t: u64| {
        let at = slabs.slab(key(4, round)).expect("reserved before the go");
        let mut mask = 0u64;
        for n in 0..LEN {
            let i = if t == 0 { n } else { LEN - 1 - n };
            mask |= (slabs.store(key(4, round), &at, [(i, val(2 * round + t, i))]) as u64) << i;
        }
        mask
    };
    std::thread::scope(|s| {
        s.spawn(|| {
            for round in 0..ROUNDS {
                spin_until(&go, round, LIMIT);
                helper_won.store(fill(round, 1), Ordering::Relaxed);
                finished.store(round, Ordering::Release);
            }
        });
        for round in 0..ROUNDS {
            let at = slabs.reserve(key(4, round), Run(LEN as u64));
            go.store(round, Ordering::Release);
            let mine = fill(round, 0);
            spin_until(&finished, round, LIMIT);
            let theirs = helper_won.load(Ordering::Relaxed);
            let all = (1 << LEN) - 1;
            assert_eq!(
                (mine & theirs, mine | theirs),
                (0, all),
                "round {round}: one winner per slot"
            );
            for i in 0..LEN {
                let winner = theirs >> i & 1;
                let got = slabs.get(key(4, round), Some((&at, i)));
                assert_eq!(got, Some(val(2 * round + winner, i)), "round {round} slot {i}");
            }
            if round % 256 == 255 {
                slabs.sweep(|(_, t)| t == 4, |_, _, _, _| false);
            }
        }
    });
}
