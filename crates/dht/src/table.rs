//! One bucket's store: an open-addressed array of write-once cells.
//!
//! A cell is one cache line: a state word, four key words and three
//! value words, all `AtomicU64`. The state word holds the cell's state
//! (empty, busy, live, tombstone), the value's kind bit, the key's
//! 16-bit tag and a generation that every rewrite of the key and value
//! words bumps. Keys probe linearly from their home cell; an empty cell
//! ends a probe.
//!
//! **Readers** take no lock. Each cell is read as a one-cell seqlock
//! with the fence pairing of `blobseer_version`'s `SeqLock`
//! (`crates/version/src/seqlock.rs`): load the state
//! (Acquire), compare the key, copy the value, fence (Acquire), reload
//! the state. Equal states prove no writer rewrote the cell in between,
//! so the copy is a value the key really had — and since a key's value
//! never changes, any such hit is current. A **miss** counts only if
//! the bucket's rebuild sequence was even and unchanged across the
//! probe; otherwise (and after a torn hit) the reader probes again
//! under the writer lock. Readers never spin.
//!
//! **Writers** (`insert`, `retain`, rebuilds) serialize on the
//! bucket's mutex. A live cell is never overwritten: `retain` turns it
//! into a tombstone, and a tombstone is never reused in place, so
//! outside a rebuild a cell only ever goes empty → busy → live →
//! tombstone and no probe chain is ever cut.
//!
//! **Growth never frees what a reader may be probing.** The cells are
//! a list of append-only segments: segment 0 holds `BASE` cells and
//! segment *k* ≥ 1 holds `BASE · 2^(k−1)`, so the capacity is always a
//! power of two and a cell index maps to (segment, offset) by its
//! leading zeros. When an insert would take live + tombstones past ¾ of
//! the capacity, the writer makes the rebuild sequence odd, appends a
//! segment if live entries fill more than half the capacity (else
//! compacts at the same size), re-places every live entry, and makes
//! the sequence even again. A published segment is never freed or
//! moved, so memory follows the peak live count, not the churn.

use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use parking_lot::Mutex;

use crate::hash::{home, place, tag, TAG_BITS};

/// log2 of the cells in a bucket's first segment.
const BASE_BITS: u32 = 5;
/// Cells in a bucket's first segment.
const BASE: usize = 1 << BASE_BITS;
/// Most segments a bucket can grow to: `BASE · 2^30` cells.
const SEGMENTS: usize = 32;

const STATE: u64 = 0b11;
const EMPTY: u64 = 0;
const BUSY: u64 = 1;
const LIVE: u64 = 2;
const TOMB: u64 = 3;
const KIND: u64 = 1 << 2;
const TAG_SHIFT: u32 = 3;
const TAG_MASK: u64 = ((1 << TAG_BITS) - 1) << TAG_SHIFT;
const GEN_SHIFT: u32 = TAG_SHIFT + TAG_BITS;

/// One slot of a bucket: a state word, four key words and three value
/// words on one 64-byte cache line.
#[repr(align(64))]
#[derive(Default)]
pub(crate) struct Cell {
    state: AtomicU64,
    key: [AtomicU64; 4],
    value: [AtomicU64; 3],
}

const _: () = assert!(std::mem::size_of::<Cell>() == 64 && std::mem::align_of::<Cell>() == 64);

/// A stored entry, as words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Entry {
    pub key: [u64; 4],
    pub kind: bool,
    pub value: [u64; 3],
}

fn generation(state: u64) -> u64 {
    state >> GEN_SHIFT
}

impl Cell {
    #[inline]
    fn key_is(&self, key: &[u64; 4]) -> bool {
        self.key.iter().zip(key).all(|(w, k)| w.load(Ordering::Relaxed) == *k)
    }

    #[inline]
    fn value(&self) -> [u64; 3] {
        std::array::from_fn(|i| self.value[i].load(Ordering::Relaxed))
    }

    /// The entry of a cell whose `state` is live; writers only.
    fn entry(&self, state: u64) -> Entry {
        Entry {
            key: std::array::from_fn(|i| self.key[i].load(Ordering::Relaxed)),
            kind: state & KIND != 0,
            value: self.value(),
        }
    }

    /// Write `e` into this empty cell under a fresh generation: busy,
    /// then the words, then live. The Release fence after the busy
    /// store pairs with a reader's Acquire fence, so a reader whose
    /// loads see any new word also sees the state change.
    fn fill(&self, e: &Entry, tag: u64) {
        let generation = generation(self.state.load(Ordering::Relaxed)) + 1;
        self.state.store(BUSY | generation << GEN_SHIFT, Ordering::Relaxed);
        fence(Ordering::Release);
        for (w, v) in self.key.iter().zip(e.key) {
            w.store(v, Ordering::Relaxed);
        }
        for (w, v) in self.value.iter().zip(e.value) {
            w.store(v, Ordering::Relaxed);
        }
        let kind = if e.kind { KIND } else { 0 };
        self.state
            .store(LIVE | kind | tag << TAG_SHIFT | generation << GEN_SHIFT, Ordering::Release);
    }

    /// Empty a cell for a rebuild, bumping its generation so a reader
    /// that loaded the old state cannot validate against the new one.
    fn clear(&self) {
        let s = self.state.load(Ordering::Relaxed);
        if s & STATE != EMPTY {
            self.state.store(EMPTY | (generation(s) + 1) << GEN_SHIFT, Ordering::Relaxed);
        }
    }
}

/// What a lock-free probe proved.
enum Probe {
    Hit(bool, [u64; 3]),
    Miss,
    /// A rebuild overlapped the probe, or a hit tore: ask again under
    /// the writer lock.
    Unsure,
}

/// Writer-side state, on its own cache line so insert traffic does not
/// dirty the line readers load the rebuild sequence from.
#[repr(align(64))]
struct Writer {
    /// Serializes writers; holds the tombstone count.
    lock: Mutex<usize>,
    live: AtomicUsize,
    growths: AtomicU64,
    compactions: AtomicU64,
}

/// One bucket's cells.
pub(crate) struct Table {
    /// Even while stable, odd while a rebuild re-places cells.
    rebuild: AtomicU64,
    /// Published segments; the capacity is `BASE << (segments - 1)`.
    segments: AtomicUsize,
    cells: [OnceLock<Box<[Cell]>>; SEGMENTS],
    /// The owning table's bucket count: a rebuild recomputes each
    /// key's fraction from its words.
    buckets: usize,
    writer: Writer,
}

fn segment(len: usize) -> Box<[Cell]> {
    (0..len).map(|_| Cell::default()).collect()
}

/// log2 of the capacity of `segments` published segments.
fn capacity_bits(segments: usize) -> u32 {
    BASE_BITS + segments as u32 - 1
}

impl Table {
    /// An empty table of one `BASE`-cell segment, in a DHT of
    /// `buckets` buckets.
    pub(crate) fn new(buckets: usize) -> Self {
        let cells: [OnceLock<Box<[Cell]>>; SEGMENTS] = std::array::from_fn(|_| OnceLock::new());
        let _ = cells[0].set(segment(BASE));
        Table {
            rebuild: AtomicU64::new(0),
            segments: AtomicUsize::new(1),
            cells,
            buckets,
            writer: Writer {
                lock: Mutex::new(0),
                live: AtomicUsize::new(0),
                growths: AtomicU64::new(0),
                compactions: AtomicU64::new(0),
            },
        }
    }

    /// Cell `i`, if its segment is published.
    #[inline]
    fn cell(&self, i: usize) -> Option<&Cell> {
        let seg = (usize::BITS - (i >> BASE_BITS).leading_zeros()) as usize;
        let start = if seg == 0 { 0 } else { BASE << (seg - 1) };
        self.cells.get(seg)?.get()?.get(i - start)
    }

    /// Cell `i` of a table the caller holds the writer lock on, where
    /// every index below the capacity is published.
    fn locked_cell(&self, i: usize) -> &Cell {
        self.cell(i).expect("index below the capacity of a published segment")
    }

    /// Every published cell, segment by segment.
    fn all_cells(&self) -> impl Iterator<Item = &Cell> {
        self.cells.iter().map_while(OnceLock::get).flat_map(|seg| seg.iter())
    }

    /// Cells allocated.
    pub(crate) fn capacity(&self) -> usize {
        1 << capacity_bits(self.segments.load(Ordering::Acquire))
    }

    /// Live entries.
    pub(crate) fn len(&self) -> usize {
        self.writer.live.load(Ordering::Relaxed)
    }

    /// Rebuilds that appended a segment, and rebuilds that compacted
    /// at the same size.
    pub(crate) fn rebuilds(&self) -> (u64, u64) {
        (
            self.writer.growths.load(Ordering::Relaxed),
            self.writer.compactions.load(Ordering::Relaxed),
        )
    }

    /// The lock-free probe: one validated read per candidate cell.
    #[inline]
    fn probe(&self, key: &[u64; 4], fraction: u64) -> Probe {
        let seq = self.rebuild.load(Ordering::Acquire);
        let bits = capacity_bits(self.segments.load(Ordering::Acquire));
        let mask = (1usize << bits) - 1;
        let want = LIVE | tag(fraction) << TAG_SHIFT;
        let mut i = home(fraction, bits);
        for _ in 0..=mask {
            let Some(cell) = self.cell(i) else { return Probe::Unsure };
            let s1 = cell.state.load(Ordering::Acquire);
            if s1 & STATE == EMPTY {
                break;
            }
            if s1 & (STATE | TAG_MASK) == want && cell.key_is(key) {
                let value = cell.value();
                // Pairs with `fill`'s Release fence: only now does the
                // state reload prove the words belong to `s1`.
                fence(Ordering::Acquire);
                return if cell.state.load(Ordering::Relaxed) == s1 {
                    Probe::Hit(s1 & KIND != 0, value)
                } else {
                    Probe::Unsure
                };
            }
            i = (i + 1) & mask;
        }
        // Pairs with the rebuild's Release fence: a probe that saw a
        // cell a rebuild cleared or moved sees the odd sequence here.
        fence(Ordering::Acquire);
        if seq.is_multiple_of(2) && self.rebuild.load(Ordering::Relaxed) == seq {
            Probe::Miss
        } else {
            Probe::Unsure
        }
    }

    /// Under the writer lock: `Ok((index, state))` of the cell holding
    /// `key`, or `Err(index)` of the empty cell that ends its probe.
    fn locate(&self, key: &[u64; 4], fraction: u64) -> Result<(usize, u64), usize> {
        let bits = capacity_bits(self.segments.load(Ordering::Relaxed));
        let mask = (1usize << bits) - 1;
        let mut i = home(fraction, bits);
        for _ in 0..=mask {
            let cell = self.locked_cell(i);
            let s = cell.state.load(Ordering::Relaxed);
            match s & STATE {
                EMPTY => return Err(i),
                LIVE if cell.key_is(key) => return Ok((i, s)),
                _ => i = (i + 1) & mask,
            }
        }
        unreachable!("no empty cell: rebuilds keep live + tombstones at or below 3/4 of capacity")
    }

    /// The value of `key`: lock-free, unless a rebuild or a writer
    /// overlapped the probe.
    #[inline]
    pub(crate) fn get(&self, key: &[u64; 4], fraction: u64) -> Option<(bool, [u64; 3])> {
        match self.probe(key, fraction) {
            Probe::Hit(kind, value) => Some((kind, value)),
            Probe::Miss => None,
            Probe::Unsure => {
                let _writer = self.writer.lock.lock();
                let (i, s) = self.locate(key, fraction).ok()?;
                Some((s & KIND != 0, self.locked_cell(i).value()))
            }
        }
    }

    /// Store `e` unless its key is present; `true` when this call
    /// inserted.
    pub(crate) fn insert(&self, e: &Entry, fraction: u64) -> bool {
        let mut tombs = self.writer.lock.lock();
        let Err(mut slot) = self.locate(&e.key, fraction) else { return false };
        let live = self.writer.live.load(Ordering::Relaxed);
        if (live + *tombs + 1) * 4 > self.capacity() * 3 {
            self.rebuild(live);
            *tombs = 0;
            slot = self.locate(&e.key, fraction).expect_err("a rebuild keeps the key absent");
        }
        self.locked_cell(slot).fill(e, tag(fraction));
        self.writer.live.store(live + 1, Ordering::Relaxed);
        true
    }

    /// Tombstone every live entry `keep` rejects; the number removed.
    pub(crate) fn retain(&self, mut keep: impl FnMut(&Entry) -> bool) -> usize {
        let mut tombs = self.writer.lock.lock();
        let mut removed = 0;
        for cell in self.all_cells() {
            let s = cell.state.load(Ordering::Relaxed);
            if s & STATE == LIVE && !keep(&cell.entry(s)) {
                cell.state.store((s & !STATE) | TOMB, Ordering::Release);
                removed += 1;
            }
        }
        *tombs += removed;
        self.writer.live.fetch_sub(removed, Ordering::Relaxed);
        removed
    }

    /// Visit every live entry under the writer lock.
    pub(crate) fn for_each(&self, mut f: impl FnMut(&Entry)) {
        let _writer = self.writer.lock.lock();
        self.for_each_locked(&mut f);
    }

    fn for_each_locked(&self, f: &mut impl FnMut(&Entry)) {
        for cell in self.all_cells() {
            let s = cell.state.load(Ordering::Relaxed);
            if s & STATE == LIVE {
                f(&cell.entry(s));
            }
        }
    }

    /// Re-place every live entry, first appending a segment when they
    /// fill more than half the capacity. Runs under the writer lock,
    /// with the rebuild sequence odd throughout; leaves no tombstone.
    fn rebuild(&self, live: usize) {
        let mut entries = Vec::with_capacity(live);
        self.for_each_locked(&mut |e: &Entry| entries.push(*e));
        let seq = self.rebuild.load(Ordering::Relaxed);
        self.rebuild.store(seq + 1, Ordering::Relaxed);
        // Pairs with the reader's Acquire fence before its sequence
        // reload: a probe that sees any cell cleared below sees `seq + 1`.
        fence(Ordering::Release);
        self.all_cells().for_each(Cell::clear);
        let segments = self.segments.load(Ordering::Relaxed);
        let capacity = 1 << capacity_bits(segments);
        if live * 2 > capacity && segments < SEGMENTS {
            // The new segment holds as many cells as all before it.
            let _ = self.cells[segments].set(segment(capacity));
            self.segments.store(segments + 1, Ordering::Release);
            self.writer.growths.fetch_add(1, Ordering::Relaxed);
        } else {
            self.writer.compactions.fetch_add(1, Ordering::Relaxed);
        }
        for e in &entries {
            let (_, fraction) = place(&e.key, self.buckets);
            let slot = self.locate(&e.key, fraction).expect_err("keys are unique");
            self.locked_cell(slot).fill(e, tag(fraction));
        }
        self.rebuild.store(seq + 2, Ordering::Release);
    }
}
