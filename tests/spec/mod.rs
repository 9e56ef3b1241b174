//! One spec of the visible state, and the harness that runs it beside
//! a real store.
//!
//! The paper's promise (§2, §4.3) is that snapshot *k* equals snapshot
//! *k − 1* with update *k* applied, and that published snapshots are
//! immutable and totally ordered. [`Spec`] states that promise once,
//! for everything a client can see: per blob, each version's bytes (or
//! that it is aborted or retired), the lineage of branches and the pins
//! they hold, and each data provider's state. Every operation of the
//! alphabet ([`Op`]) has one rule in [`Spec::apply`], which predicts
//! its result — a version, a new blob, or exactly one typed error.
//!
//! [`Harness`] runs each operation on a tiny store — 16 B pages, 3
//! providers, replication 2, one I/O thread, a 50 ms metadata wait —
//! and on the spec side by side. Its checks, shared by every driver:
//!
//! * after every operation, its result is the one the spec predicts,
//!   and every version of every blob reads back exactly as the spec
//!   says, whole and as one sub-range, or fails with exactly the typed
//!   error the spec predicts. No rule predicts `Timeout`, so a timeout
//!   is always a failure;
//! * at the end of every history, once quiescent ([`Harness::settle`]):
//!   repair, scrub and drain succeed and a second pass of each is a
//!   no-op; the scrub's report accounts for every byte it dropped, and
//!   after it physical bytes equal `REPLICATION ×` the bytes of the
//!   pages the spec's retained versions name; every provider can fail
//!   in turn without a byte lost; drained providers stay empty.
//!
//! The drivers include this file as a module: `small_scope.rs` replays
//! every short history and long random scripts over every letter;
//! `prop_blobseer.rs`, `prop_membership.rs`, `prop_provider_crash.rs`
//! and `prop_scrub.rs` run random scripts ([`run_script`]) that draw
//! one concern's letters more often. None keeps a model of its own: a
//! new public operation adds a letter to [`Op`] and a rule to
//! [`Spec::apply`], not a new suite.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use blobseer::{
    Blob, BlobError, BlobSeer, ByteRange, Bytes, CrashPoint, FaultPlan, MemoryPageStore, PageStore,
    ProviderId, Version,
};
use proptest::prelude::*;

const PSIZE: u64 = 16;
const PROVIDERS: usize = 3;
const REPLICATION: usize = 2;
const MAX_BLOBS: usize = 3;
/// Providers that may be active at once (joins beyond are not enabled).
const MAX_ACTIVE: usize = 4;
const LEASE_TTL: u64 = 64;

/// How a crashed writer is recovered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recovery {
    /// The lease lapses and the sweeper aborts the version.
    Sweep,
    /// `Blob::abort` right after the crash.
    Abort,
}

/// The alphabet. Blob operations act on the *current* blob (the newest
/// branch, or the one `Focus` picked), except `RetireRoot`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Append `len` bytes.
    Append { len: u64 },
    /// Overwrite `len` bytes at `offset` (may be past the end: typed
    /// error).
    Write { offset: u64, len: u64 },
    /// Branch at the latest readable version; the child becomes current.
    BranchLatest,
    /// Branch at latest − 1 (on a fresh child: a version it inherited,
    /// owned by an ancestor); the child becomes current.
    BranchBack,
    /// Retire the current blob's history below latest − 1.
    RetireBack,
    /// Retire the root blob's history below `keep_from`.
    RetireRoot { keep_from: u64 },
    /// A writer appends `len` bytes and dies at `point`.
    Crash { len: u64, point: CrashPoint, recovery: Recovery },
    /// `scrub_orphans`.
    Scrub,
    /// `repair_replicas`.
    Repair,
    /// Drain the lowest active provider.
    Drain,
    /// Join a fresh provider.
    AddProvider,
    /// Take the lowest serving provider's page store offline: every
    /// request to it errors until `Recover`.
    Fail,
    /// Bring the failed provider's page store back.
    Recover,
    /// Rot every copy the lowest serving provider holds.
    Corrupt,
    /// Make blob `index % blobs` current (random driver only).
    Focus { index: usize },
    /// A pipelined append of `len` zero bytes, cancelled at once; the
    /// abort may lose the race to the write's completion (random driver
    /// only). Either way the bytes are zeros, so the spec takes the
    /// outcome the store reports.
    AbortRace { len: u64 },
}

/// The exhaustive driver's letters.
pub const ALPHABET: [Op; 16] = [
    Op::Append { len: 24 },
    Op::Write { offset: 8, len: 16 },
    Op::BranchLatest,
    Op::BranchBack,
    Op::RetireBack,
    Op::RetireRoot { keep_from: 2 },
    Op::Crash { len: 24, point: CrashPoint::AfterBoundaryPages, recovery: Recovery::Sweep },
    Op::Crash { len: 24, point: CrashPoint::BeforeNotify, recovery: Recovery::Sweep },
    Op::Crash { len: 24, point: CrashPoint::AfterPartialMetadata, recovery: Recovery::Abort },
    Op::Scrub,
    Op::Repair,
    Op::Drain,
    Op::AddProvider,
    Op::Fail,
    Op::Recover,
    Op::Corrupt,
];

/// One version as readers see it.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Snap {
    /// The snapshot's bytes; for an aborted version, what later
    /// versions build on.
    bytes: Vec<u8>,
    aborted: bool,
    /// Per page, the version whose update stored it.
    writers: Vec<u64>,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct BlobSpec {
    /// The blob this one was branched from, and the fork point.
    parent: Option<(usize, u64)>,
    /// Version → snapshot; inherited versions are copies.
    snaps: Vec<Snap>,
    /// Versions `1..retired_before` are retired.
    retired_before: u64,
    /// Fork points of every branch at a version this blob owns.
    pins: Vec<u64>,
}

/// A data provider's state. Draining exists only inside a drain call,
/// which ends retired or back in service.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Member {
    Serving,
    Failed,
    Retired,
}

/// What an operation returns: a version or a blob index, nothing, or
/// one typed error (named by its `BlobError` variant).
type Outcome = Result<Option<u64>, &'static str>;

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Spec {
    blobs: Vec<BlobSpec>,
    providers: Vec<Member>,
    /// A provider whose copies rotted; cleared by a repair with every
    /// provider serving.
    corrupt: Option<usize>,
    current: usize,
}

/// The bytes update `v` of blob `blob` writes at `offset`: distinct per
/// update, never zero, and a function of the history's shape only.
fn pattern(blob: usize, v: u64, offset: u64, len: u64) -> Vec<u8> {
    (offset..offset + len).map(|i| (blob as u64 * 89 + v * 31 + i * 7) as u8 | 1).collect()
}

impl Spec {
    pub fn new() -> Spec {
        let v0 = Snap { bytes: Vec::new(), aborted: false, writers: Vec::new() };
        let root = BlobSpec { parent: None, snaps: vec![v0], retired_before: 0, pins: Vec::new() };
        let providers = vec![Member::Serving; PROVIDERS];
        Spec { blobs: vec![root], providers, corrupt: None, current: 0 }
    }

    pub fn last(&self, b: usize) -> u64 {
        self.blobs[b].snaps.len() as u64 - 1
    }

    /// The size of blob `b`'s last version.
    pub fn size(&self, b: usize) -> u64 {
        self.blobs[b].snaps.last().expect("v0 exists").bytes.len() as u64
    }

    /// The blob owning (the tree of) version `v` of blob `b`.
    fn owner(&self, b: usize, v: u64) -> usize {
        match self.blobs[b].parent {
            Some((parent, fork)) if v <= fork => self.owner(parent, v),
            _ => b,
        }
    }

    /// Retired in `b`, or retired by the ancestor that owns it.
    fn retired(&self, b: usize, v: u64) -> bool {
        let owner = self.owner(b, v);
        v > 0 && (v < self.blobs[b].retired_before || v < self.blobs[owner].retired_before)
    }

    /// The newest version a reader may open: the last one, walked down
    /// past aborted holes and the blob's own retired history.
    fn latest(&self, b: usize) -> u64 {
        let blob = &self.blobs[b];
        let mut v = self.last(b);
        while v > 0 && (blob.snaps[v as usize].aborted || v < blob.retired_before) {
            v -= 1;
        }
        v
    }

    /// What reading version `v` of blob `b` returns.
    pub fn read(&self, b: usize, v: u64) -> Result<&[u8], &'static str> {
        if self.blobs[b].snaps[v as usize].aborted {
            Err("VersionAborted")
        } else if self.retired(b, v) {
            Err("VersionRetired")
        } else {
            Ok(&self.blobs[b].snaps[v as usize].bytes)
        }
    }

    fn lowest(&self, state: Member) -> Option<usize> {
        self.providers.iter().position(|&m| m == state)
    }

    fn count(&self, state: Member) -> usize {
        self.providers.iter().filter(|&&m| m == state).count()
    }

    /// One fault at a time, and never below three active providers:
    /// every page keeps a verified copy on a serving provider, so the
    /// spec can promise every read.
    fn healthy(&self) -> bool {
        self.corrupt.is_none() && self.count(Member::Failed) == 0
    }

    pub fn enabled(&self, op: Op) -> bool {
        match op {
            Op::BranchLatest | Op::BranchBack => self.blobs.len() < MAX_BLOBS,
            Op::Drain | Op::Fail => self.healthy() && self.count(Member::Serving) >= 3,
            Op::Corrupt => self.healthy(),
            Op::Recover => self.count(Member::Failed) > 0,
            Op::AddProvider => self.count(Member::Serving) < MAX_ACTIVE,
            _ => true,
        }
    }

    /// Apply update `v` of `b` (the next version): `data` at `offset`,
    /// or, for a writer that died before its leaves were stored, only
    /// the size it was assigned.
    fn update(&mut self, b: usize, offset: u64, data: &[u8], durable: bool, aborted: bool) -> u64 {
        let blob = &mut self.blobs[b];
        let v = blob.snaps.len() as u64;
        let prev = blob.snaps.last().expect("v0 exists");
        let (start, end) = (offset as usize, offset as usize + data.len());
        let mut bytes = prev.bytes.clone();
        bytes.resize(bytes.len().max(end), 0);
        if durable {
            bytes[start..end].copy_from_slice(data);
        }
        let mut writers = prev.writers.clone();
        writers.resize(bytes.len().div_ceil(PSIZE as usize), v);
        for w in &mut writers[start / PSIZE as usize..=(end - 1) / PSIZE as usize] {
            *w = v;
        }
        blob.snaps.push(Snap { bytes, aborted, writers });
        v
    }

    fn branch(&mut self, b: usize, at: u64) -> Outcome {
        if self.blobs[b].snaps[at as usize].aborted {
            return Err("VersionAborted");
        }
        if self.retired(b, at) {
            return Err("VersionRetired");
        }
        let owner = self.owner(b, at);
        self.blobs[owner].pins.push(at);
        self.blobs[owner].pins.sort_unstable();
        let parent = &self.blobs[b];
        let child = BlobSpec {
            parent: Some((b, at)),
            snaps: parent.snaps[..=at as usize].to_vec(),
            // The shared history is as retired as the parent's; the
            // child's own versions are not.
            retired_before: parent.retired_before.min(at + 1),
            pins: Vec::new(),
        };
        self.blobs.push(child);
        self.current = self.blobs.len() - 1;
        Ok(Some(self.current as u64))
    }

    fn retire(&mut self, b: usize, keep_from: u64) -> Outcome {
        let blob = &mut self.blobs[b];
        if keep_from > blob.snaps.len() as u64 - 1 {
            return Err("VersionNotPublished");
        }
        if blob.pins.first().is_some_and(|&pin| pin < keep_from) {
            return Err("GcConflict");
        }
        blob.retired_before = blob.retired_before.max(keep_from);
        Ok(None)
    }

    /// The rule of each letter: mutate the spec, return the predicted
    /// outcome. Only called for enabled ops.
    pub fn apply(&mut self, op: Op) -> Outcome {
        let (b, size) = (self.current, self.size(self.current));
        let next = self.last(b) + 1;
        match op {
            Op::Append { len } => {
                Ok(Some(self.update(b, size, &pattern(b, next, size, len), true, false)))
            }
            Op::Write { offset, .. } if offset > size => Err("WriteBeyondEnd"),
            Op::Write { offset, len } => {
                Ok(Some(self.update(b, offset, &pattern(b, next, offset, len), true, false)))
            }
            Op::AbortRace { len } => {
                Ok(Some(self.update(b, size, &vec![0; len as usize], true, false)))
            }
            Op::Crash { len, point, .. } => {
                // A dead version's size always counts; its bytes only
                // once its leaves were stored.
                let durable = point == CrashPoint::BeforeNotify;
                Ok(Some(self.update(b, size, &pattern(b, next, size, len), durable, true)))
            }
            Op::BranchLatest => self.branch(b, self.latest(b)),
            Op::BranchBack => self.branch(b, self.latest(b).saturating_sub(1)),
            Op::RetireBack => self.retire(b, self.latest(b).saturating_sub(1)),
            Op::RetireRoot { keep_from } => self.retire(0, keep_from),
            Op::Scrub => Ok(None),
            Op::Repair => {
                if self.count(Member::Failed) == 0 {
                    self.corrupt = None;
                }
                Ok(None)
            }
            Op::Drain => {
                let victim = self.lowest(Member::Serving).expect("enabled");
                self.providers[victim] = Member::Retired;
                Ok(Some(victim as u64))
            }
            Op::AddProvider => {
                self.providers.push(Member::Serving);
                Ok(Some(self.providers.len() as u64 - 1))
            }
            Op::Fail => {
                let victim = self.lowest(Member::Serving).expect("enabled");
                self.providers[victim] = Member::Failed;
                Ok(None)
            }
            Op::Recover => {
                let failed = self.lowest(Member::Failed).expect("enabled");
                self.providers[failed] = Member::Serving;
                Ok(None)
            }
            Op::Corrupt => {
                self.corrupt = self.lowest(Member::Serving);
                Ok(None)
            }
            Op::Focus { index } => {
                self.current = index % self.blobs.len();
                Ok(None)
            }
        }
    }

    /// `(pages, bytes)` the retained versions name: one page per leaf
    /// of every tree a reader or a later update can still reach,
    /// aborted versions' repair trees included.
    fn live(&self) -> (usize, u64) {
        let mut live: HashMap<(usize, u64, usize), u64> = HashMap::new();
        for b in 0..self.blobs.len() {
            for v in 0..=self.last(b) {
                if self.retired(b, v) {
                    continue;
                }
                for (i, &w) in self.blobs[b].snaps[v as usize].writers.iter().enumerate() {
                    let owner = self.owner(b, w);
                    let size = self.blobs[owner].snaps[w as usize].bytes.len() as u64;
                    live.insert((owner, w, i), PSIZE.min(size - i as u64 * PSIZE));
                }
            }
        }
        (live.len(), live.values().sum())
    }
}

fn kind(err: &BlobError) -> String {
    let debug = format!("{err:?}");
    debug.split(|c: char| !c.is_alphanumeric()).next().unwrap_or_default().to_string()
}

/// Compare what the store did with what the spec predicted.
fn expect(what: &str, got: Result<Option<u64>, BlobError>, want: Outcome) -> Result<(), String> {
    match (&got, want) {
        (Ok(g), Ok(w)) if *g == w => Ok(()),
        (Err(e), Err(w)) if kind(e) == w => Ok(()),
        _ => Err(format!("{what}: store returned {got:?}, spec predicts {want:?}")),
    }
}

/// Fail the check with a message unless `cond` holds.
macro_rules! ensure {
    ($cond:expr, $($message:tt)+) => {
        if !$cond {
            return Err(format!($($message)+));
        }
    };
}

/// A real store driven in step with a [`Spec`].
pub struct Harness {
    store: BlobSeer,
    pub blobs: Vec<Blob>,
    /// Every provider's page store, by provider id.
    pub plans: Vec<Arc<FaultPlan>>,
}

fn page_store(seed: u64) -> Arc<FaultPlan> {
    Arc::new(FaultPlan::with_seed(Arc::new(MemoryPageStore::new()), seed))
}

impl Harness {
    pub fn new() -> Harness {
        let plans: Vec<_> = (0..PROVIDERS as u64).map(page_store).collect();
        let store = BlobSeer::builder()
            .page_size(PSIZE)
            .metadata_providers(1)
            .io_threads(1)
            .replication(REPLICATION)
            .metadata_wait(Duration::from_millis(50))
            .lease_ttl_ticks(LEASE_TTL)
            .page_stores(plans.iter().map(|p| Arc::clone(p) as Arc<dyn PageStore>).collect())
            .build()
            .expect("tiny store");
        let root = store.create();
        Harness { store, blobs: vec![root], plans }
    }

    /// Run `op` on the store and the spec; the outcomes must agree.
    pub fn step(&mut self, spec: &mut Spec, op: Op) -> Result<(), String> {
        let (b, size) = (spec.current, spec.size(spec.current));
        let blob = self.blobs[b].clone();
        let next = spec.last(b) + 1;
        let (serving, failed) = (spec.lowest(Member::Serving), spec.lowest(Member::Failed));
        let latest_back = spec.latest(b).saturating_sub(1);
        let mut raced = None;
        let got: Result<Option<u64>, BlobError> = match op {
            Op::Append { len } => blob.append(&pattern(b, next, size, len)).map(|v| Some(v.raw())),
            Op::Write { offset, len } => {
                blob.write(&pattern(b, next, offset, len), offset).map(|v| Some(v.raw()))
            }
            Op::Crash { len, point, recovery } => {
                let data = Bytes::from(pattern(b, next, size, len));
                let v = blob.crash_append(data, point).map_err(|e| format!("crash: {e:?}"))?;
                match recovery {
                    Recovery::Sweep => {
                        self.store.advance_lease_clock(LEASE_TTL + 1);
                        let report = self.store.sweep_expired_leases();
                        ensure!(report.pending.is_empty(), "sweep left {report:?}");
                    }
                    Recovery::Abort => blob.abort(v).map_err(|e| format!("abort: {e:?}"))?,
                }
                Ok(Some(v.raw()))
            }
            Op::BranchLatest | Op::BranchBack => {
                let at = if op == Op::BranchLatest { spec.latest(b) } else { latest_back };
                blob.branch(Version(at)).map(|child| {
                    self.blobs.push(child);
                    Some(self.blobs.len() as u64 - 1)
                })
            }
            Op::RetireBack => blob.retire_versions(Version(latest_back)).map(|_| None),
            Op::RetireRoot { keep_from } => {
                self.blobs[0].retire_versions(Version(keep_from)).map(|_| None)
            }
            Op::Scrub => self.store.scrub_orphans().map(|_| None),
            Op::Repair => self.store.repair_replicas().map(|_| None),
            Op::Drain => {
                let victim = serving.expect("enabled");
                self.store.drain_provider(ProviderId(victim as u32)).map(|_| Some(victim as u64))
            }
            Op::AddProvider => {
                let plan = page_store(self.plans.len() as u64);
                self.plans.push(Arc::clone(&plan));
                Ok(Some(self.store.add_provider_store(plan).raw().into()))
            }
            Op::Fail | Op::Recover => {
                let p = if op == Op::Fail { serving } else { failed };
                self.plans[p.expect("enabled")].set_offline(op == Op::Fail);
                Ok(None)
            }
            Op::Corrupt => {
                let plan = &self.plans[serving.expect("enabled")];
                for (pid, _) in plan.scan().map_err(|e| format!("scan: {e:?}"))? {
                    plan.corrupt_stored_page(pid).map_err(|e| format!("corrupt: {e:?}"))?;
                }
                Ok(None)
            }
            Op::Focus { .. } => Ok(None),
            Op::AbortRace { len } => {
                let pending = blob.append_pipelined(Bytes::from(vec![0; len as usize]));
                let pending = pending.map_err(|e| format!("append: {e:?}"))?;
                let v = pending.version();
                match blob.abort(v) {
                    Ok(()) => raced = Some(v.raw() as usize),
                    Err(BlobError::AbortConflict(_)) => {}
                    Err(e) => return Err(format!("abort: {e:?}")),
                }
                // The cancelled stage may still hold its epoch pin; it
                // drops it before it resolves. A lease sweep it queued may
                // still be repeating the abort's repair; sweeps share one
                // gate, so a sweep of our own waits for it to finish.
                let _ = pending.wait();
                self.store.sweep_expired_leases();
                Ok(Some(v.raw()))
            }
        };
        let want = spec.apply(op);
        if let Some(v) = raced {
            spec.blobs[b].snaps[v].aborted = true;
        }
        expect(&format!("{op:?}"), got, want)
    }

    /// Every version of every blob reads back as the spec says.
    pub fn check_reads(&self, spec: &Spec) -> Result<(), String> {
        for (b, blob) in self.blobs.iter().enumerate() {
            for v in 0..=spec.last(b) {
                let what = || format!("blob {b} v{v}");
                let (snap, want) = match (blob.snapshot(Version(v)), spec.read(b, v)) {
                    (Ok(snap), Ok(want)) => (snap, want),
                    (Err(e), Err(want)) if kind(&e) == want => continue,
                    (got, want) => {
                        let got = got.map(|s| s.len());
                        return Err(format!("{}: opened {got:?}, spec predicts {want:?}", what()));
                    }
                };
                let size = want.len() as u64;
                ensure!(snap.len() == size, "{}: size {} != {size}", what(), snap.len());
                if size == 0 {
                    continue;
                }
                let read = |off: u64, len: u64| {
                    snap.read(ByteRange::new(off, len))
                        .map_err(|e| format!("{}: read [{off}, +{len}): {e:?}", what()))
                };
                ensure!(read(0, size)?[..] == *want, "{}: bytes differ", what());
                let (off, end) = (size / 3, (2 * size / 3 + v % 5).clamp(size / 3 + 1, size));
                let part = read(off, end - off)?;
                ensure!(
                    part == want[off as usize..end as usize],
                    "{}: [{off}, {end}) differs",
                    what()
                );
            }
        }
        Ok(())
    }

    /// Physical copies are exactly `REPLICATION` of every live page.
    fn check_footprint(&self, spec: &Spec, when: &str) -> Result<(), String> {
        let (pages, bytes) = spec.live();
        let stored = self.store.stats();
        let stored = (stored.physical_pages, stored.physical_bytes);
        ensure!(
            stored == (REPLICATION * pages, REPLICATION as u64 * bytes),
            "{when}: (pages, bytes) stored {stored:?}, the spec's live set is ({pages}, {bytes})"
        );
        Ok(())
    }

    /// Quiesce and run maintenance to a fixed point: recover, repair,
    /// scrub, drain — each must succeed and a second pass must be a
    /// no-op — with the exact footprint and every read intact.
    pub fn settle(&mut self, spec: &mut Spec) -> Result<(), String> {
        while spec.count(Member::Failed) > 0 {
            self.step(spec, Op::Recover)?;
        }
        while spec.count(Member::Serving) < 3 {
            self.step(spec, Op::AddProvider)?;
        }
        // Nothing is in flight, so nothing is exempt from either pass.
        let repair = self.store.repair_replicas().map_err(|e| format!("repair: {e:?}"))?;
        let missed = repair.copies_failed + repair.pages_unrepairable + repair.pages_exempt;
        ensure!(missed == 0, "repair: {repair:?}");
        spec.corrupt = None;
        let before = self.store.stats().physical_bytes;
        let scrub = self.store.scrub_orphans().map_err(|e| format!("scrub: {e:?}"))?;
        let dropped = before - self.store.stats().physical_bytes;
        let clean = scrub.pages_failed + scrub.pages_exempt == 0;
        ensure!(clean && scrub.bytes_reclaimed == dropped, "scrub: {scrub:?}");
        self.check_footprint(spec, "after repair and scrub")?;
        self.check_fixed_point("second pass")?;

        // Full replication: any one provider may fail without a loss.
        for p in (0..spec.providers.len()).filter(|&p| spec.providers[p] == Member::Serving) {
            let id = ProviderId(p as u32);
            self.store.fail_provider(id).map_err(|e| format!("fail {id}: {e:?}"))?;
            let reads = self.check_reads(spec).map_err(|e| format!("with {id} failed: {e}"));
            self.store.recover_provider(id).map_err(|e| format!("recover {id}: {e:?}"))?;
            reads?;
        }

        self.step(spec, Op::Drain)?;
        for p in (0..spec.providers.len()).filter(|&p| spec.providers[p] == Member::Retired) {
            ensure!(self.plans[p].page_count() == 0, "retired P{p} holds pages");
        }
        self.check_fixed_point("after the drain")?;
        self.check_footprint(spec, "after the drain")?;
        let members = self.store.membership();
        let counts =
            (spec.providers.len(), spec.count(Member::Serving), spec.count(Member::Retired));
        ensure!(
            (members.registered, members.active, members.retired) == counts,
            "membership {members:?}, spec {:?}",
            spec.providers
        );
        self.check_reads(spec)
    }

    /// A repair and a scrub that find nothing to do.
    fn check_fixed_point(&self, when: &str) -> Result<(), String> {
        let repair = self.store.repair_replicas().map_err(|e| format!("repair: {e:?}"))?;
        let work = repair.copies_repaired + repair.strays_trimmed + repair.copies_failed;
        ensure!(work + repair.pages_unrepairable == 0, "{when}: repair did work: {repair:?}");
        let scrub = self.store.scrub_orphans().map_err(|e| format!("scrub: {e:?}"))?;
        let stored = self.store.stats().physical_pages as u64;
        ensure!(
            scrub.pages_reclaimed + scrub.pages_exempt == 0 && scrub.pages_scanned == stored,
            "{when}: scrub did work: {scrub:?}"
        );
        Ok(())
    }
}
pub fn witness(error: &str, ops: &[Op]) -> ! {
    panic!("{error}\n  witness: {ops:?}")
}

/// A script letter: an [`Op`], or a write whose offset is resolved
/// against the current size when it runs.
#[derive(Clone, Copy, Debug)]
pub enum RandomOp {
    Op(Op),
    Write { at: u16, len: u64 },
}

/// Appends of 1–199 B.
pub fn appends() -> impl Strategy<Value = RandomOp> {
    (1u64..200).prop_map(|len| RandomOp::Op(Op::Append { len }))
}

/// Writes of 1–149 B at 0–110 % of the current size.
pub fn writes() -> impl Strategy<Value = RandomOp> {
    (0u16..=1100, 1u64..150).prop_map(|(at, len)| RandomOp::Write { at, len })
}

/// Appends of 1–149 B whose writer dies at any point, then is swept or
/// aborted.
pub fn crashes() -> impl Strategy<Value = RandomOp> {
    let point = prop_oneof![
        Just(CrashPoint::AfterPrepare),
        Just(CrashPoint::AfterBoundaryPages),
        Just(CrashPoint::AfterPartialMetadata),
        Just(CrashPoint::BeforeNotify),
    ];
    let recovery = prop_oneof![Just(Recovery::Sweep), Just(Recovery::Abort)];
    (1u64..150, point, recovery)
        .prop_map(|(len, point, recovery)| RandomOp::Op(Op::Crash { len, point, recovery }))
}

/// Every letter: [`ALPHABET`]'s, and the ones above with random sizes,
/// root retires to 0–7, `Focus` and `AbortRace`.
pub fn op_strategy() -> impl Strategy<Value = RandomOp> {
    prop_oneof![
        4 => appends(),
        4 => writes(),
        2 => crashes(),
        12 => (0..ALPHABET.len()).prop_map(|i| RandomOp::Op(ALPHABET[i])),
        1 => (0u64..8).prop_map(|keep_from| RandomOp::Op(Op::RetireRoot { keep_from })),
        2 => any::<usize>().prop_map(|index| RandomOp::Op(Op::Focus { index })),
        1 => (1u64..100).prop_map(|len| RandomOp::Op(Op::AbortRace { len })),
    ]
}

/// Run `script` on a fresh store and spec: skip the letters the spec
/// does not enable, check every result and every read after each
/// letter, then settle. Panics with the letters that ran.
pub fn run_script(script: &[RandomOp]) -> (Harness, Spec) {
    let mut harness = Harness::new();
    let mut spec = Spec::new();
    let mut ran = Vec::new();
    let result = script.iter().try_for_each(|&op| {
        let op = match op {
            RandomOp::Op(op) => op,
            RandomOp::Write { at, len } => {
                Op::Write { offset: spec.size(spec.current) * u64::from(at) / 1000, len }
            }
        };
        if !spec.enabled(op) {
            return Ok(());
        }
        ran.push(op);
        harness.step(&mut spec, op)?;
        harness.check_reads(&spec)
    });
    if let Err(e) = result.and_then(|()| harness.settle(&mut spec)) {
        witness(&e, &ran);
    }
    (harness, spec)
}
