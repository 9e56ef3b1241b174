//! Version slabs: an update's values in one run of write-once slots
//! behind one header cell.
//!
//! The paper names every tree node by (version, offset, size) and
//! stores all of an update's nodes at once (§4.1, Algorithm 4 line 34).
//! A [`Slabs`] store keeps them together: the update reserves a **run**
//! of slots, one per value, and one **header** cell in a bucket's
//! write-once table (`table.rs`) names the run. What each slot holds
//! is the owner's arithmetic — a [`Layout`], two words in the header —
//! so a slot stores no key and a fetch is one header probe, the
//! owner's rank arithmetic and one slot read.
//!
//! **Slots** are 32 bytes: a state word and three value words, all
//! `AtomicU64`. The state word holds the state (empty, busy, live,
//! tombstone), the value's kind bit and the run's generation. A slot
//! moves empty → busy → live → tombstone within one generation:
//!
//! - A **fill** is a CAS from empty in the header's generation, then
//!   the words, then live — insert-if-absent, per slot.
//! - A **read** is one-slot seqlock: load the state (Acquire), copy the
//!   words, fence (Acquire), reload the state. A live state of the
//!   header's generation, unchanged across the copy, makes the value
//!   one the slot really held.
//!
//! **Runs** are bump-allocated from append-only segments (segment *k*
//! holds `BASE · 2^k` slots), which are never freed or moved, so no
//! reader ever reads freed memory. A
//! sweep that leaves a slab with no live slot tombstones its header and
//! releases its run to a free list keyed by length; the next
//! reservation of that length takes it under a bumped generation. A
//! stale header — a reader's, or a zombie writer's — names the old
//! generation, so it can neither read nor fill the run's new values.
//! Memory follows the peak of live slabs, not the churn.
//!
//! **Waits** park in the [`Lot`] of the header key's bucket, in the
//! one parking loop of the crate (`Slabs::park`). A store fills its
//! slots, then fences once and checks the lot's waiter count once,
//! waking the queues of the slab's version when anyone is parked.

use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use blobseer_metrics::{AtomicHistogram, Timer};
use parking_lot::{Condvar, Mutex};

use crate::codec::CellValue;
use crate::table::Entry;
use crate::{collect_stats, Bucket, Dht, DhtError, DhtStats};

/// Slots in the arena's first segment (8 KiB).
const BASE: u64 = 256;
/// Most segments the arena can grow to: below `2^40` slots.
const SEGMENTS: usize = 32;

/// Bits of a header's first word that name the run's first slot; the
/// rest hold its generation.
const FIRST_BITS: u32 = 40;
const FIRST_MASK: u64 = (1 << FIRST_BITS) - 1;
const GEN_MASK: u64 = (1 << (64 - FIRST_BITS)) - 1;

const STATE: u64 = 0b11;
const EMPTY: u64 = 0;
const BUSY: u64 = 1;
const LIVE: u64 = 2;
const TOMB: u64 = 3;
const KIND: u64 = 1 << 2;
const GEN_SHIFT: u32 = 3;

/// What a slab's slots hold, as the owner's arithmetic: two words in
/// the header, and the number of slots they imply.
pub trait Layout: Copy + PartialEq + std::fmt::Debug {
    /// The layout's two header words.
    fn encode(&self) -> [u64; 2];

    /// The layout [`Layout::encode`] produced `words` from.
    fn decode(words: [u64; 2]) -> Self;

    /// Slots the slab holds.
    fn slots(&self) -> usize;
}

/// A slab's header: its run's first slot and generation, and its
/// layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slab<L> {
    first: u64,
    generation: u64,
    /// What the slab's slots hold.
    pub layout: L,
}

/// A header cell's words: the first slot beside the generation, then
/// the layout's two words.
impl<L: Layout> CellValue for Slab<L> {
    fn encode(&self) -> (bool, [u64; 3]) {
        let [a, b] = self.layout.encode();
        (false, [self.first | self.generation << FIRST_BITS, a, b])
    }

    fn decode(_: bool, w: [u64; 3]) -> Self {
        Slab {
            first: w[0] & FIRST_MASK,
            generation: w[0] >> FIRST_BITS,
            layout: L::decode([w[1], w[2]]),
        }
    }
}

impl<L> Slab<L> {
    /// `state` in this slab's generation.
    fn state(&self, state: u64) -> u64 {
        state | self.generation << GEN_SHIFT
    }
}

/// One slot: a state word and three value words.
#[repr(align(32))]
#[derive(Default)]
struct Slot {
    state: AtomicU64,
    value: [AtomicU64; 3],
}

const _: () = assert!(std::mem::size_of::<Slot>() == 32);

impl Slot {
    /// Move the state from `from` to `to`; the state found otherwise.
    /// Relaxed: a claim publishes nothing. A fill's words are published
    /// by its Release fence and live store; a run's closed slots reach
    /// its next reservation through the allocator mutex.
    fn claim(&self, from: u64, to: u64) -> Result<u64, u64> {
        self.state.compare_exchange(from, to, Ordering::Relaxed, Ordering::Relaxed)
    }
}

/// The allocator's state, behind the arena mutex.
#[derive(Default)]
struct Alloc {
    /// The first slot never handed out.
    next: u64,
    /// Slots handed out in runs (each counted once, however reused).
    carved: usize,
    /// Released runs by length: first slot and generation.
    free: HashMap<usize, Vec<(u64, u64)>>,
}

/// Every slot, in append-only segments.
#[derive(Default)]
struct Arena {
    segments: [OnceLock<Box<[Slot]>>; SEGMENTS],
    alloc: Mutex<Alloc>,
}

/// First slot of segment `k`, which holds `BASE << k` slots.
fn start(k: usize) -> u64 {
    BASE * ((1 << k) - 1)
}

/// The segment holding slot `i`.
fn segment_of(i: u64) -> usize {
    (63 - (i / BASE + 1).leading_zeros()) as usize
}

impl Arena {
    /// Slot `i`, of a run some header named.
    #[inline]
    fn slot(&self, i: u64) -> &Slot {
        let k = segment_of(i);
        let segment = self.segments[k].get().expect("a run lies in a published segment");
        &segment[(i - start(k)) as usize]
    }

    /// A run of `len` empty slots and its generation: a released run of
    /// that length under the next generation, or fresh slots.
    fn take(&self, len: usize) -> (u64, u64) {
        let mut a = self.alloc.lock();
        if let Some((first, generation)) = a.free.get_mut(&len).and_then(Vec::pop) {
            let generation = (generation + 1) & GEN_MASK;
            // Relaxed: the header naming the run is published after
            // these stores (the table's Release fill), and every filler
            // and reader reaches the run through an Acquire probe of it.
            for i in first..first + len as u64 {
                self.slot(i).state.store(EMPTY | generation << GEN_SHIFT, Ordering::Relaxed);
            }
            return (first, generation);
        }
        let mut first = a.next;
        let mut k = segment_of(first);
        if first + len as u64 > start(k + 1) {
            // The run does not fit the rest of this segment: the rest
            // (if the segment is allocated) becomes a free run of its
            // own length, and the run starts the first segment that
            // holds it.
            if first > start(k) {
                let rest = start(k + 1) - first;
                a.free.entry(rest as usize).or_default().push((first, 0));
                a.carved += rest as usize;
            }
            k += 1;
            while k < SEGMENTS && BASE << k < len as u64 {
                k += 1;
            }
            first = start(k);
        }
        assert!(k < SEGMENTS, "slab arena exhausted");
        self.segments[k]
            .get_or_init(|| (start(k)..start(k + 1)).map(|_| Slot::default()).collect());
        a.next = first + len as u64;
        a.carved += len;
        (first, 0)
    }

    /// Hand a slab's run back for reuse under a later generation.
    fn give<L: Layout>(&self, slab: &Slab<L>) {
        let mut a = self.alloc.lock();
        a.free.entry(slab.layout.slots()).or_default().push((slab.first, slab.generation));
    }

    /// Slot `index` of `slab`, if it is live in the slab's generation.
    fn read<L: Layout, V: CellValue>(&self, slab: &Slab<L>, index: usize) -> Option<V> {
        debug_assert!(index < slab.layout.slots(), "slot {index} outside {slab:?}");
        let slot = self.slot(slab.first + index as u64);
        let s1 = slot.state.load(Ordering::Acquire);
        if s1 & !KIND != slab.state(LIVE) {
            return None;
        }
        let words = std::array::from_fn(|i| slot.value[i].load(Ordering::Relaxed));
        // Pairs with `fill`'s Release fence: only now does the state
        // reload prove the words belong to `s1`.
        fence(Ordering::Acquire);
        (slot.state.load(Ordering::Relaxed) == s1).then(|| V::decode(s1 & KIND != 0, words))
    }

    /// Fill slot `index` of `slab` if it is empty in the slab's
    /// generation; `true` when this call filled it.
    fn fill<L: Layout>(
        &self,
        slab: &Slab<L>,
        index: usize,
        (kind, words): (bool, [u64; 3]),
    ) -> bool {
        debug_assert!(index < slab.layout.slots(), "slot {index} outside {slab:?}");
        let slot = self.slot(slab.first + index as u64);
        if slot.claim(slab.state(EMPTY), slab.state(BUSY)).is_err() {
            return false;
        }
        // Pairs with a reader's Acquire fence: a reader whose loads see
        // any new word also sees the state leave the one it loaded.
        fence(Ordering::Release);
        for (w, v) in slot.value.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
        slot.state.store(slab.state(LIVE) | (u64::from(kind) * KIND), Ordering::Release);
        true
    }

    /// Tombstone every live slot of `slab` that `keep` rejects. When no
    /// slot stays live, close the empty ones too, so no late fill lands
    /// in a run about to be released. Returns the slots tombstoned and
    /// whether any is still live (or being filled).
    fn sweep<L: Layout, V: CellValue>(
        &self,
        slab: &Slab<L>,
        mut keep: impl FnMut(usize, &V) -> bool,
    ) -> (usize, bool) {
        let (mut swept, mut live) = (0, false);
        for index in 0..slab.layout.slots() {
            let Some(value) = self.read::<L, V>(slab, index) else { continue };
            if keep(index, &value) {
                live = true;
            } else {
                let slot = self.slot(slab.first + index as u64);
                slot.state.store(slab.state(TOMB), Ordering::Release);
                swept += 1;
            }
        }
        let close =
            |i: usize| self.slot(slab.first + i as u64).claim(slab.state(EMPTY), slab.state(TOMB));
        live = live
            || (0..slab.layout.slots()).any(|i| matches!(close(i), Err(s) if s & STATE != TOMB));
        (swept, live)
    }
}

/// Parked waiters for one key: their private condvar plus a count that
/// keeps the queue entry alive while anyone is parked. Guarded by the
/// lot's wait mutex.
struct KeyQueue {
    cv: Arc<Condvar>,
    parked: usize,
}

/// The parking lot of one header bucket.
#[derive(Default)]
struct Lot {
    /// Per-key wait queues (by value words), held only around condvar
    /// waits and (when `waiters > 0`) the lookup of which keys to
    /// notify. Never taken while holding the bucket's writer lock.
    queues: Mutex<HashMap<[u64; 4], KeyQueue>>,
    /// Number of waiters parked in this lot; changed only under the
    /// wait mutex. A store skips the wait mutex entirely while this is
    /// zero.
    waiters: AtomicUsize,
}

impl Lot {
    /// After a store made something visible: wake the waiters parked on
    /// every key whose words start with `prefix`. Touches no lock at
    /// all while nobody is parked in the lot, and no condvar unless
    /// someone is parked on a matching key.
    fn wake(&self, prefix: &[u64]) {
        // Pairs with the waiter's fence after its count bump: we see its
        // registration, or its re-probe sees our store.
        fence(Ordering::SeqCst);
        if self.waiters.load(Ordering::Relaxed) > 0 {
            // Taking the wait lock serializes with a waiter that is
            // between its re-probe and its park, so this notify cannot
            // fall into that window and be lost. Waiters on other keys
            // sleep on.
            for (key, q) in self.queues.lock().iter() {
                if key.starts_with(prefix) {
                    q.cv.notify_all();
                }
            }
        }
    }
}

/// Version slabs over `buckets` metadata providers: one header cell
/// per key, in the key's bucket, naming a run of write-once slots.
///
/// Gets, puts and waits count per value, in the header's bucket; a
/// header probe or a reservation counts nothing.
pub struct Slabs<L, V> {
    headers: Dht<(u64, u64), Slab<L>>,
    arena: Arena,
    /// One parking lot per header bucket.
    lots: Box<[Lot]>,
    /// Block-time distribution of [`Slabs::wait`] calls that actually
    /// parked. Always recorded: a blocking metadata wait is
    /// milliseconds-scale, so the one timer read it costs is noise —
    /// and the p999 of this histogram is the single best indicator of
    /// writer-pipeline stalls (`docs/OBSERVABILITY.md`).
    wait_latency: AtomicHistogram,
    values: PhantomData<fn() -> V>,
}

impl<L: Layout, V: CellValue> Slabs<L, V> {
    /// An empty store spread over `buckets` metadata providers.
    pub fn new(buckets: usize) -> Self {
        Slabs {
            headers: Dht::new(buckets),
            arena: Arena::default(),
            lots: (0..buckets).map(|_| Lot::default()).collect(),
            wait_latency: AtomicHistogram::new(),
            values: PhantomData,
        }
    }

    /// The block-time histogram of [`Slabs::wait`] (nanoseconds per
    /// blocking call).
    pub fn wait_latency(&self) -> &AtomicHistogram {
        &self.wait_latency
    }

    fn probe(b: &Bucket, words: &[u64; 4], fraction: u64) -> Option<Slab<L>> {
        b.table.get(words, fraction).map(|(_, w)| Slab::decode(false, w))
    }

    /// The slab of `key`, if one is reserved: a header probe.
    pub fn slab(&self, key: (u64, u64)) -> Option<Slab<L>> {
        let (words, i, fraction) = self.headers.locate(&key);
        Self::probe(&self.headers.buckets[i], &words, fraction)
    }

    /// The slab of `key`, reserving a run for `layout` if none is.
    /// Idempotent: every caller for a key gets the one slab, and a
    /// caller that loses the race to reserve hands its run back.
    pub fn reserve(&self, key: (u64, u64), layout: L) -> Slab<L> {
        let (words, i, fraction) = self.headers.locate(&key);
        let b = &self.headers.buckets[i];
        loop {
            if let Some(slab) = Self::probe(b, &words, fraction) {
                debug_assert_eq!(slab.layout, layout, "one key, one layout");
                return slab;
            }
            let (first, generation) = self.arena.take(layout.slots());
            let slab = Slab { first, generation, layout };
            let (kind, value) = slab.encode();
            if b.table.insert(&Entry { key: words, kind, value }, fraction) {
                return slab;
            }
            self.arena.give(&slab);
        }
    }

    /// Fill each `(index, value)` into `slab` (the slab of `key`)
    /// where that slot is still empty, then fence once, check the
    /// waiters of `key`'s lot once and wake the ones parked on `key`'s
    /// values. Returns the slots this call filled.
    pub fn store(
        &self,
        key: (u64, u64),
        slab: &Slab<L>,
        values: impl IntoIterator<Item = (usize, V)>,
    ) -> usize {
        let (words, i, _) = self.headers.locate(&key);
        let b = &self.headers.buckets[i];
        let (mut puts, mut filled) = (0, 0);
        for (index, value) in values {
            puts += 1;
            filled += usize::from(self.arena.fill(slab, index, value.encode()));
        }
        b.stats.puts.add(puts);
        if filled > 0 {
            b.stats.filled.add(filled as u64);
            self.lots[i].wake(&words[..2]);
        }
        filled
    }

    /// Count one get of a value of `key`, and read slot `at` if there
    /// is one: `None` when no slab or no live slot holds it.
    pub fn get(&self, key: (u64, u64), at: Option<(&Slab<L>, usize)>) -> Option<V> {
        let (_, i, _) = self.headers.locate(&key);
        self.headers.buckets[i].stats.gets.increment();
        let (slab, index) = at?;
        self.arena.read(slab, index)
    }

    /// The blocking half of a [`Slabs::get`] that missed: park on
    /// `words` (which start with `key`'s) until the slab of `key` holds
    /// a live value at `index(layout)`, or `timeout` elapses. `between`
    /// runs after every `slice` that expires without it, with no lock
    /// held — the **self-help hook**: the engine hangs a lease sweep on
    /// it, so a reader blocked on a *dead* writer's node recovers in
    /// about one slice. A zero `slice` (or one at or above `timeout`)
    /// is a single block. Counts a wait if it parks, not a get.
    pub fn wait(
        &self,
        key: (u64, u64),
        words: [u64; 4],
        index: impl Fn(&L) -> Option<usize>,
        timeout: Duration,
        slice: Duration,
        between: impl FnMut(),
    ) -> Result<V, DhtError> {
        let (header, i, fraction) = self.headers.locate(&key);
        debug_assert_eq!(words[..2], header[..2], "a value's words start with its slab key");
        let find = || {
            let slab = Self::probe(&self.headers.buckets[i], &header, fraction)?;
            self.arena.read(&slab, index(&slab.layout)?)
        };
        self.park(i, words, timeout, slice, between, find)
    }

    /// The one parking loop: block in lot `i` on key `words` until
    /// `find` answers, `timeout` elapses, or — after every `slice` that
    /// expires without an answer — `between` has run with the wait
    /// mutex released. One recorded wait and one `wait_latency` sample
    /// per call that parked; a call answered by its first probe records
    /// neither.
    fn park(
        &self,
        i: usize,
        words: [u64; 4],
        timeout: Duration,
        slice: Duration,
        mut between: impl FnMut(),
        find: impl Fn() -> Option<V>,
    ) -> Result<V, DhtError> {
        // Fast path: present already — identical cost to a `get`.
        if let Some(v) = find() {
            return Ok(v);
        }
        let lot = &self.lots[i];
        let slice = if slice.is_zero() { timeout } else { slice };
        let deadline = Instant::now() + timeout;
        let mut queues = lot.queues.lock();
        let cv = {
            let q = queues
                .entry(words)
                .or_insert_with(|| KeyQueue { cv: Arc::new(Condvar::new()), parked: 0 });
            q.parked += 1;
            Arc::clone(&q.cv)
        };
        // Count ourselves in *before* the re-probe below: the count
        // changes only under the wait mutex, and the fence pairs with
        // `wake`'s, so a racing store either becomes visible to the
        // re-probe or sees our count and notifies our queue.
        lot.waiters.store(lot.waiters.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let mut block_timer: Option<Timer> = None;
        let result = loop {
            if let Some(v) = find() {
                break Ok(v);
            }
            if block_timer.is_none() {
                // Exactly one recorded wait per blocking call, however
                // many (possibly spurious) wakeups or slices follow.
                block_timer = Some(Timer::start());
                self.headers.buckets[i].stats.waits.increment();
            }
            let now = Instant::now();
            if now >= deadline {
                break Err(DhtError::WaitTimeout);
            }
            let slice_deadline = std::cmp::min(now + slice, deadline);
            if cv.wait_until(&mut queues, slice_deadline).timed_out() {
                // Slice expired. The key may have landed between the
                // timeout and our relock — prefer it over self-help.
                if let Some(v) = find() {
                    break Ok(v);
                }
                if Instant::now() >= deadline {
                    break Err(DhtError::WaitTimeout);
                }
                drop(queues);
                between();
                queues = lot.queues.lock();
            }
        };
        // Deregister; drop the key's queue once the last waiter leaves.
        if let Some(q) = queues.get_mut(&words) {
            q.parked -= 1;
            if q.parked == 0 {
                queues.remove(&words);
            }
        }
        lot.waiters.store(lot.waiters.load(Ordering::Relaxed) - 1, Ordering::Relaxed);
        drop(queues);
        if let Some(timer) = block_timer {
            timer.stop(&self.wait_latency);
        }
        result
    }

    /// Visit the live values among the first `run(layout)` slots of
    /// every slab, one bucket's headers at a time under that bucket's
    /// mutex; the slot reads take no lock. Keep `f` cheap and
    /// non-reentrant.
    pub fn for_each_live(&self, run: impl Fn(&L) -> usize, mut f: impl FnMut(V)) {
        self.headers.for_each(|_, slab| {
            (0..run(&slab.layout)).filter_map(|i| self.arena.read(slab, i)).for_each(&mut f)
        });
    }

    /// Garbage collection: in every slab whose key `pick` accepts,
    /// tombstone each live value `keep(key, layout, index, value)`
    /// rejects. A slab left with no live slot loses its header and
    /// releases its run. Runs one bucket at a time under its mutex;
    /// keep the closures cheap and non-reentrant. Returns the values
    /// tombstoned.
    pub fn sweep(
        &self,
        mut pick: impl FnMut((u64, u64)) -> bool,
        mut keep: impl FnMut((u64, u64), &L, usize, &V) -> bool,
    ) -> usize {
        let mut total = 0;
        for b in self.headers.buckets.iter() {
            let (mut swept, mut released) = (0, Vec::new());
            b.table.retain(|e| {
                let key = (e.key[0], e.key[1]);
                if !pick(key) {
                    return true;
                }
                let slab = Slab::<L>::decode(e.kind, e.value);
                let (n, live) = self.arena.sweep(&slab, |i, v| keep(key, &slab.layout, i, v));
                swept += n;
                if !live {
                    released.push(slab);
                }
                live
            });
            // The headers are gone: no new reader finds these runs.
            released.iter().for_each(|slab| self.arena.give(slab));
            b.stats.swept.add(swept as u64);
            total += swept;
        }
        total
    }

    /// Live values stored (O(buckets)).
    pub fn live(&self) -> usize {
        self.headers.buckets.iter().map(|b| b.stats.live_slots()).sum()
    }

    /// Slots carved out of the arena (32 bytes each), reused ones
    /// counted once.
    pub fn slots(&self) -> usize {
        self.arena.alloc.lock().carved
    }

    /// Per-bucket access statistics: entries are live values,
    /// `capacity` counts header cells and `slots` the slots carved.
    pub fn stats(&self) -> DhtStats {
        let mut stats = collect_stats(&self.headers.buckets, |b| b.stats.live_slots());
        stats.slots = self.slots();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

    /// A run of `n` slots.
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Run(u64);

    impl Layout for Run {
        fn encode(&self) -> [u64; 2] {
            [self.0, 0]
        }

        fn decode(w: [u64; 2]) -> Self {
            Run(w[0])
        }

        fn slots(&self) -> usize {
            self.0 as usize
        }
    }

    type Store = Slabs<Run, u64>;

    /// Store `value` as the one value of key `k`'s one-slot slab.
    fn put(slabs: &Store, k: u64, value: u64) -> bool {
        let slab = slabs.reserve((k, 1), Run(1));
        slabs.store((k, 1), &slab, [(0, value)]) == 1
    }

    fn wait(
        slabs: &Store,
        k: u64,
        timeout: Duration,
        slice: Duration,
        between: impl FnMut(),
    ) -> Result<u64, DhtError> {
        slabs.wait((k, 1), [k, 1, 0, 0], |_| Some(0), timeout, slice, between)
    }

    #[test]
    fn reservations_are_idempotent_and_fills_write_once() {
        let slabs = Store::new(4);
        let a = slabs.reserve((1, 1), Run(5));
        assert_eq!(slabs.reserve((1, 1), Run(5)), a);
        assert_eq!(slabs.slab((1, 1)), Some(a));
        assert_eq!(slabs.store((1, 1), &a, [(0, 10), (4, 14)]), 2);
        assert_eq!(slabs.store((1, 1), &a, [(0, 99), (1, 11)]), 1, "slot 0 keeps its first value");
        assert_eq!(slabs.get((1, 1), Some((&a, 0))), Some(10));
        assert_eq!(slabs.get((1, 1), Some((&a, 2))), None);
        assert_eq!(slabs.get((2, 1), None), None);
        let stats = slabs.stats();
        assert_eq!((stats.total_entries, stats.total_puts, stats.total_gets), (3, 4, 3));
        assert_eq!(stats.slots, 5);
    }

    #[test]
    fn a_released_run_is_reused_and_its_stale_header_reads_and_fills_nothing() {
        let slabs = Store::new(2);
        let old = slabs.reserve((1, 1), Run(3));
        slabs.store((1, 1), &old, [(0, 1), (1, 2), (2, 3)]);
        let mut seen = Vec::new();
        assert_eq!(
            slabs.sweep(
                |k| k == (1, 1),
                |_, _, i, v| {
                    seen.push((i, *v));
                    i == 1
                }
            ),
            2
        );
        assert_eq!(seen, [(0, 1), (1, 2), (2, 3)]);
        assert_eq!(slabs.live(), 1, "a slab with a live slot stays");
        assert_eq!(slabs.sweep(|_| true, |_, _, _, _| false), 1);
        assert_eq!(slabs.slab((1, 1)), None, "an empty slab loses its header");
        let new = slabs.reserve((2, 1), Run(3));
        assert_eq!(new.first, old.first, "the run is reused");
        assert_ne!(new.generation, old.generation);
        assert_eq!(slabs.store((1, 1), &old, [(2, 7)]), 0, "a stale header fills nothing");
        slabs.store((2, 1), &new, [(1, 8)]);
        assert_eq!(slabs.get((1, 1), Some((&old, 1))), None, "nor reads the new values");
        assert_eq!(slabs.get((2, 1), Some((&new, 1))), Some(8));
        assert_eq!(slabs.stats().slots, 3);
    }

    #[test]
    fn runs_that_outgrow_a_segment_start_the_next_one_that_holds_them() {
        let slabs = Store::new(1);
        let a = slabs.reserve((1, 1), Run(BASE - 1));
        let b = slabs.reserve((2, 1), Run(3 * BASE));
        assert_eq!((a.first, b.first), (0, start(2)), "segment 1 is too short");
        // The rest of segment 0 is a run of its own length.
        assert_eq!(slabs.reserve((3, 1), Run(1)).first, BASE - 1);
        slabs.store((2, 1), &b, [(3 * BASE as usize - 1, 5)]);
        assert_eq!(slabs.get((2, 1), Some((&b, 3 * BASE as usize - 1))), Some(5));
    }

    #[test]
    fn sliced_wait_self_help_supplies_the_value() {
        // The between-slices hook stores the value itself (the shape of
        // the engine's self-help lease sweep: abort repair fills the
        // node the waiter is parked on).
        let slabs = Store::new(4);
        let hook_runs = AtomicUsize::new(0);
        let t0 = Instant::now();
        let got = wait(&slabs, 7, Duration::from_secs(5), Duration::from_millis(20), || {
            hook_runs.fetch_add(1, Ordering::SeqCst);
            put(&slabs, 7, 77);
        });
        assert_eq!(got, Ok(77));
        assert_eq!(hook_runs.load(Ordering::SeqCst), 1, "recovered in one slice");
        assert!(t0.elapsed() < Duration::from_secs(4), "did not burn the full timeout");
        // Exactly one recorded wait for the whole sliced block.
        assert_eq!(slabs.stats().total_waits, 1);
    }

    #[test]
    fn sliced_wait_still_honours_the_overall_deadline() {
        let slabs = Store::new(4);
        let hook_runs = AtomicUsize::new(0);
        let t0 = Instant::now();
        let got = wait(&slabs, 7, Duration::from_millis(60), Duration::from_millis(15), || {
            hook_runs.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(got, Err(DhtError::WaitTimeout));
        assert!(t0.elapsed() >= Duration::from_millis(60));
        assert!(hook_runs.load(Ordering::SeqCst) >= 2, "hook ran between slices");
        assert_eq!(
            slabs.stats().total_waits,
            1,
            "one sample per blocked call, however many slices"
        );
    }

    #[test]
    fn sliced_wait_sees_a_store_from_another_thread() {
        let slabs = Store::new(4);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                wait(&slabs, 42, Duration::from_secs(5), Duration::from_millis(10), || {})
            });
            std::thread::sleep(Duration::from_millis(35));
            put(&slabs, 42, 99);
            assert_eq!(waiter.join().unwrap(), Ok(99));
        });
        assert_eq!(
            slabs.lots.iter().map(|lot| lot.waiters.load(Ordering::SeqCst)).sum::<usize>(),
            0
        );
    }

    #[test]
    fn one_wait_and_one_sample_per_blocking_call() {
        // Stores to other keys of the same bucket while the waiter is
        // parked must not split its wait: one recorded wait and one
        // latency sample, spanning the whole block.
        let slabs = Store::new(1);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| wait(&slabs, 1, Duration::from_secs(5), Duration::ZERO, || {}));
            std::thread::sleep(Duration::from_millis(25));
            for k in 100..105 {
                put(&slabs, k, k);
            }
            std::thread::sleep(Duration::from_millis(25));
            put(&slabs, 1, 11);
            assert_eq!(waiter.join().unwrap(), Ok(11));
        });
        assert_eq!(slabs.stats().total_waits, 1);
        let snap = slabs.wait_latency().snapshot();
        assert_eq!(snap.count(), 1);
        assert!(snap.sum() >= 50_000_000, "blocked ~50ms but recorded {}ns", snap.sum());
        // A wait its first probe answers records nothing.
        assert_eq!(wait(&slabs, 1, Duration::from_secs(1), Duration::ZERO, || {}), Ok(11));
        assert_eq!(slabs.stats().total_waits, 1);
        assert_eq!(slabs.wait_latency().snapshot().count(), 1);
    }

    #[test]
    fn waiters_on_distinct_keys_wake_independently() {
        // Waiters on two keys of one bucket, three on the first: a store
        // to that key completes exactly its waiters.
        let slabs = Store::new(1);
        std::thread::scope(|s| {
            let first: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| wait(&slabs, 1, Duration::from_secs(10), Duration::ZERO, || {}))
                })
                .collect();
            let second =
                s.spawn(|| wait(&slabs, 2, Duration::from_secs(10), Duration::ZERO, || {}));
            std::thread::sleep(Duration::from_millis(30));
            put(&slabs, 1, 11);
            for w in first {
                assert_eq!(w.join().unwrap(), Ok(11));
            }
            assert!(!second.is_finished(), "the waiter on key 2 must still be parked");
            put(&slabs, 2, 22);
            assert_eq!(second.join().unwrap(), Ok(22));
        });
    }

    #[test]
    fn a_key_queue_is_dropped_when_its_last_waiter_leaves() {
        let slabs = Store::new(1);
        let lot = &slabs.lots[0];
        // A timed-out waiter cleans its queue up...
        let timeout = Duration::from_millis(10);
        assert_eq!(wait(&slabs, 7, timeout, Duration::ZERO, || {}), Err(DhtError::WaitTimeout));
        assert!(lot.queues.lock().is_empty());
        assert_eq!(lot.waiters.load(Ordering::SeqCst), 0);
        // ...and so does a satisfied one.
        std::thread::scope(|s| {
            let w = s.spawn(|| wait(&slabs, 8, Duration::from_secs(5), Duration::ZERO, || {}));
            std::thread::sleep(Duration::from_millis(20));
            put(&slabs, 8, 88);
            assert_eq!(w.join().unwrap(), Ok(88));
        });
        assert!(lot.queues.lock().is_empty());
        assert_eq!(lot.waiters.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn sliced_wait_with_zero_slice_degrades_to_plain_wait() {
        let slabs = Store::new(4);
        put(&slabs, 1, 10);
        assert_eq!(
            wait(&slabs, 1, Duration::from_millis(5), Duration::ZERO, || panic!(
                "no hook without slicing"
            )),
            Ok(10)
        );
        assert_eq!(
            wait(&slabs, 2, Duration::from_millis(5), Duration::from_secs(1), || {
                panic!("slice >= timeout degrades too")
            }),
            Err(DhtError::WaitTimeout)
        );
    }
}
