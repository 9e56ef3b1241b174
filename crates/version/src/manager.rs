//! The version manager proper.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use blobseer_meta::plan::{borders_at_level, creates_position, levels_below};
use blobseer_meta::{Lineage, RootRef, UpdateContext, MAX_VERSION};
use blobseer_metrics::Counter;
use blobseer_types::{
    div_ceil, BlobError, BlobId, ByteRange, NodePos, PageRange, Result, Version, LEVEL_BITS,
};
use parking_lot::{Mutex, RwLock};

use crate::state::{BlobInner, BlobState, Inflight, UpdateState};

/// Shards in the blob registry. Power of two; blob ids are sequential,
/// so `id & (SHARDS - 1)` spreads unrelated blobs round-robin and
/// registry operations on different blobs stop serializing on one lock.
const BLOB_SHARDS: usize = 16;

/// The blob registry, sharded by blob id. Each shard is an independent
/// `RwLock<HashMap>`; lookups take one shard's read lock (shared, never
/// exclusive on the hot path), inserts one shard's write lock.
struct BlobShards {
    shards: Vec<RwLock<HashMap<BlobId, Arc<BlobState>>>>,
}

impl BlobShards {
    fn new() -> Self {
        BlobShards { shards: (0..BLOB_SHARDS).map(|_| RwLock::new(HashMap::new())).collect() }
    }

    fn shard(&self, id: BlobId) -> &RwLock<HashMap<BlobId, Arc<BlobState>>> {
        &self.shards[id.raw() as usize & (BLOB_SHARDS - 1)]
    }

    fn get(&self, id: BlobId) -> Option<Arc<BlobState>> {
        self.shard(id).read().get(&id).cloned()
    }

    fn insert(&self, id: BlobId, state: Arc<BlobState>) {
        self.shard(id).write().insert(id, state);
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Snapshot of every registered blob. Not atomic across shards,
    /// which every caller (expiry scan, scrub cut) already tolerates —
    /// neither was atomic across blobs before sharding either.
    fn all(&self) -> Vec<(BlobId, Arc<BlobState>)> {
        self.shards
            .iter()
            .flat_map(|s| {
                s.read().iter().map(|(id, state)| (*id, Arc::clone(state))).collect::<Vec<_>>()
            })
            .collect()
    }
}

/// Test-only observer of seqlock publications:
/// `(blob, new sequence, published words)`, called under the blob's
/// mutex so the stress suite can build an exact oracle of every state
/// the cell ever held.
#[doc(hidden)]
pub type PublishProbe = Box<dyn Fn(BlobId, u64, [u64; 3]) + Send + Sync>;

/// Default writer-lease TTL in logical ticks, matching
/// `StoreConfig::default().lease_ttl_ticks` (the engine always passes
/// its configured value through [`VersionManager::with_lease_ttl`]).
pub const DEFAULT_LEASE_TTL_TICKS: u64 = 1 << 20;

/// How writers interact with concurrent metadata builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConcurrencyMode {
    /// The paper's scheme: writers get partial border sets and build
    /// metadata concurrently (§4.2).
    Concurrent,
    /// Ablation baseline: a writer's version assignment blocks until
    /// all lower versions have *published*, so metadata builds are
    /// serialized version by version. Measured by experiment E5.
    SerializedMetadata,
}

/// The update type being registered (paper §2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateKind {
    /// Replace `size` bytes starting at `offset`.
    Write {
        /// Absolute byte offset (must be ≤ the previous snapshot size).
        offset: u64,
        /// Bytes written.
        size: u64,
    },
    /// Append `size` bytes at the end of the previous snapshot ("the
    /// offset is implicitly assumed to be the size of snapshot va − 1").
    Append {
        /// Bytes appended.
        size: u64,
    },
}

/// The version manager's reply to an update registration: everything the
/// writer needs to build and weave its metadata (paper §4.2).
///
/// [`VersionManager::begin_abort`] hands back the same record for a dead
/// writer's version — the update its repair re-runs with snapshot
/// `vw − 1`'s bytes as data.
#[derive(Clone, Debug)]
pub struct AssignedUpdate {
    /// Assigned snapshot version `vw`.
    pub vw: Version,
    /// Resolved byte offset of the update.
    pub offset: u64,
    /// Byte size of the update.
    pub size: u64,
    /// Size of snapshot `vw − 1` in bytes.
    pub prev_size: u64,
    /// Size of snapshot `vw` in bytes.
    pub new_size: u64,
    /// Pages covered by the update.
    pub range: PageRange,
    /// Root position of the new tree.
    pub new_root: NodePos,
    /// Partial border set: positions that in-flight lower-versioned
    /// updates will create, with the creating version (§4.2).
    pub overrides: Vec<(NodePos, Version)>,
    /// Root of the latest *published* snapshot (the "recently published
    /// snapshot version" of §4.2); `None` while nothing non-empty is
    /// published.
    pub ref_root: Option<RootRef>,
    /// Root of snapshot `vw − 1` (possibly still in flight); used by the
    /// unaligned-write merge path. `None` when `vw − 1` is empty.
    pub prev_root: Option<RootRef>,
}

impl AssignedUpdate {
    /// The weaving inputs `BUILD_META` takes
    /// ([`blobseer_meta::build_meta`]).
    pub fn context(self) -> UpdateContext {
        UpdateContext {
            vw: self.vw,
            range: self.range,
            new_root: self.new_root,
            overrides: self.overrides,
            ref_root: self.ref_root,
        }
    }
}

/// Everything a reader needs to serve any number of reads of one
/// published snapshot: resolved once, under a single acquisition of the
/// blob's lock, and valid forever (snapshots are immutable).
///
/// This is the cache behind `blobseer`'s `Snapshot` handle: constructing
/// the handle costs one VM round-trip, after which reads never consult
/// the version manager again.
#[derive(Clone, Debug)]
pub struct ReadView {
    /// Size of the snapshot in bytes.
    pub size: u64,
    /// Tree root, `None` for the empty snapshot.
    pub root: Option<RootRef>,
    /// The blob's lineage (for metadata key resolution across branches).
    pub lineage: Lineage,
}

/// One blob's slice of the **tree-walk live set**, captured atomically
/// under that blob's lock by [`VersionManager::scrub_cut`]: everything a
/// reachability mark needs to enumerate the blob's live pages through
/// its trees. The engine's maintenance mark scans the slabs' leaf runs
/// instead; this cut is the input of the tree walk its tests compare
/// that scan against.
///
/// * [`BlobScrubCut::roots`] — trees the frontier has passed. These are
///   guaranteed complete (published versions by construction; aborted
///   versions only pass the frontier after their repair committed), so
///   a mark walks them with non-blocking fetches.
/// * [`BlobScrubCut::inflight`] — assigned-but-unpublished updates, in
///   *any* state (active, completed-waiting, aborting, aborted-but-
///   blocked). Their trees may be arbitrarily incomplete; a mark
///   probes each update's leaf positions directly, because a durable
///   leaf's page is referenced forever (repair fills gaps, never
///   overwrites).
#[derive(Clone, Debug)]
pub struct BlobScrubCut {
    /// The blob this cut describes.
    pub blob: BlobId,
    /// Its lineage, for metadata key resolution across branches.
    pub lineage: Lineage,
    /// Roots of every retained version the frontier has passed,
    /// ascending by version.
    pub roots: Vec<RootRef>,
    /// In-flight updates as `(version, assigned page range)` pairs,
    /// ascending by version.
    pub inflight: Vec<(Version, PageRange)>,
}

/// Counters exposed for the E6 micro-experiment (VM work is claimed to
/// be "negligible when compared to the full operation", §4.3) and for
/// the writer-fault-tolerance experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Blobs registered.
    pub blobs: u64,
    /// Updates assigned.
    pub assigned: u64,
    /// Versions published.
    pub published: u64,
    /// Branches created.
    pub branches: u64,
    /// Read-view resolutions served ([`VersionManager::snapshot_view`]
    /// and [`VersionManager::latest_view`]). Version-pinned `Snapshot`
    /// reads must not move this counter after construction — asserted
    /// by the engine's tests.
    pub read_views: u64,
    /// Versions aborted (writer died or explicitly aborted); these were
    /// skipped by the total order, not published.
    pub aborted: u64,
    /// Lease renewals served to live writers.
    pub lease_renewals: u64,
    /// Hot-path reads served entirely from a blob's seqlock cell —
    /// no blob mutex taken. The engine's tests assert this counter
    /// moves in lockstep with hot reads, which is what *proves* (not
    /// just claims) the read path is lock-free.
    pub lockfree_reads: u64,
}

/// The centralized version manager.
pub struct VersionManager {
    psize: u64,
    mode: ConcurrencyMode,
    publish_wait: Duration,
    lease_ttl: u64,
    /// The lease clock: logical ticks, advanced by VM write-path
    /// operations (assign / renew / complete / abort) and by explicit
    /// [`VersionManager::advance_clock`] calls — never by wall time, so
    /// lease expiry is deterministic under test.
    clock: AtomicU64,
    /// Conservative lower bound on the earliest expiry of any live
    /// lease (`u64::MAX` when provably none). Lowered by `assign`;
    /// raised only by a full scan, and only when nobody lowered it
    /// meanwhile — so it may be stale-*low* (costing a spurious scan)
    /// but never stale-high past a grant. Lets the hot-path expiry
    /// query ([`VersionManager::expired_leases`]) be a single atomic
    /// load while every lease is within TTL.
    lease_watermark: AtomicU64,
    /// Versions currently stuck in `Aborting` (a begun-but-uncommitted
    /// abort): sweep work that must stay visible regardless of the
    /// watermark.
    aborting: AtomicU64,
    blobs: BlobShards,
    next_blob: AtomicU64,
    assigned: Counter,
    published: Counter,
    branches: Counter,
    read_views: Counter,
    aborted: Counter,
    renewals: Counter,
    lockfree_reads: Counter,
    probe_armed: std::sync::atomic::AtomicBool,
    publish_probe: Mutex<Option<PublishProbe>>,
}

impl VersionManager {
    /// VM for a deployment with the given page size.
    pub fn new(psize: u64, mode: ConcurrencyMode, publish_wait: Duration) -> Self {
        assert!(psize.is_power_of_two(), "page size must be a power of two");
        VersionManager {
            psize,
            mode,
            publish_wait,
            lease_ttl: DEFAULT_LEASE_TTL_TICKS,
            clock: AtomicU64::new(0),
            lease_watermark: AtomicU64::new(u64::MAX),
            aborting: AtomicU64::new(0),
            blobs: BlobShards::new(),
            next_blob: AtomicU64::new(1),
            assigned: Counter::new(),
            published: Counter::new(),
            branches: Counter::new(),
            read_views: Counter::new(),
            aborted: Counter::new(),
            renewals: Counter::new(),
            lockfree_reads: Counter::new(),
            probe_armed: std::sync::atomic::AtomicBool::new(false),
            publish_probe: Mutex::new(None),
        }
    }

    /// Set the writer-lease TTL in logical ticks (builder style; must
    /// be ≥ 1).
    pub fn with_lease_ttl(mut self, ticks: u64) -> Self {
        assert!(ticks >= 1, "lease TTL must be at least one tick");
        self.lease_ttl = ticks;
        self
    }

    /// Page size the VM was configured with.
    pub fn page_size(&self) -> u64 {
        self.psize
    }

    /// Configured concurrency mode.
    pub fn mode(&self) -> ConcurrencyMode {
        self.mode
    }

    /// Configured lease TTL in logical ticks.
    pub fn lease_ttl(&self) -> u64 {
        self.lease_ttl
    }

    /// Current logical-clock reading.
    pub fn now_ticks(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Advance the lease clock by `ticks` (tests and deployments that
    /// map wall time to ticks call this; VM write ops tick implicitly).
    pub fn advance_clock(&self, ticks: u64) -> u64 {
        self.clock.fetch_add(ticks, Ordering::Relaxed) + ticks
    }

    fn tick(&self) -> u64 {
        self.advance_clock(1)
    }

    fn blob_state(&self, blob: BlobId) -> Result<Arc<BlobState>> {
        self.blobs.get(blob).ok_or(BlobError::BlobNotFound(blob))
    }

    /// Republish `blob`'s hot triple after an operation (made under the
    /// blob's mutex — `inner` is the held guard's target) that may have
    /// moved the readable frontier. Writer serialization for the
    /// seqlock comes from that mutex.
    fn republish(&self, blob: BlobId, state: &BlobState, inner: &BlobInner) {
        let words = inner.hot_words(self.psize);
        let seq = state.hot.publish(words);
        if self.probe_armed.load(Ordering::Relaxed) {
            if let Some(probe) = self.publish_probe.lock().as_ref() {
                probe(blob, seq, words);
            }
        }
    }

    /// `CREATE`: register a new blob with the empty snapshot 0.
    pub fn create(&self) -> BlobId {
        let id = BlobId(self.next_blob.fetch_add(1, Ordering::Relaxed));
        let state = Arc::new(BlobState::new(BlobInner::new(Lineage::root(id)), self.psize));
        self.blobs.insert(id, state);
        id
    }

    /// `BRANCH(id, v)`: fork a blob at a *published* version. The new
    /// blob shares all data and metadata up to (and including) `v`.
    pub fn branch(&self, blob: BlobId, at: Version) -> Result<BlobId> {
        let state = self.blob_state(blob)?;
        let mut parent = state.inner.lock();
        if parent.is_aborted(at) {
            return Err(BlobError::VersionAborted { blob, version: at });
        }
        if at > parent.published {
            return Err(BlobError::VersionNotPublished { blob, version: at });
        }
        // The pin goes on the blob owning `at`, whose tree the branch
        // shares; its lock is held from the retire check to the pin.
        let owner_id = parent.lineage.owner_of(at);
        let owner_state = (owner_id != blob).then(|| self.blob_state(owner_id)).transpose()?;
        let mut owner = owner_state.as_ref().map(|s| s.inner.lock());
        if parent.is_retired(at) || owner.as_ref().is_some_and(|o| o.is_retired(at)) {
            return Err(BlobError::VersionRetired { blob, version: at });
        }
        let child_id = BlobId(self.next_blob.fetch_add(1, Ordering::Relaxed));
        let lineage = Lineage::branch(&parent.lineage, at, child_id);
        let child = BlobInner::branched(&parent, at, lineage);
        owner.as_deref_mut().unwrap_or(&mut parent).child_branch_points.push(at);
        drop((owner, parent));
        self.blobs.insert(child_id, Arc::new(BlobState::new(child, self.psize)));
        self.branches.increment();
        Ok(child_id)
    }

    /// Register an update and assign it the next snapshot version
    /// (Algorithm 2 line 10 plus the §4.2 border-set supply). The
    /// assignment grants the writer a **lease** of the configured TTL;
    /// see [`VersionManager::renew_lease`].
    pub fn assign(&self, blob: BlobId, kind: UpdateKind) -> Result<AssignedUpdate> {
        let now = self.tick();
        let state = self.blob_state(blob)?;
        let mut inner = state.inner.lock();

        let prev_size = *inner.sizes.last().expect("sizes non-empty");
        let (offset, size) = match kind {
            UpdateKind::Write { offset, size } => {
                if offset > prev_size {
                    return Err(BlobError::WriteBeyondEnd {
                        blob,
                        offset,
                        snapshot_size: prev_size,
                    });
                }
                (offset, size)
            }
            UpdateKind::Append { size } => (prev_size, size),
        };
        if size == 0 {
            return Err(BlobError::EmptyUpdate);
        }

        let vw = next_version(blob, inner.last_assigned())?;
        let new_size = prev_size.max(offset + size);
        let range = ByteRange::new(offset, size).pages(self.psize);
        let new_root = NodePos::root_for(div_ceil(new_size, self.psize));

        // Partial border set: for each border position, the *highest*
        // in-flight (assigned, unpublished) version creating a node
        // there. `vw` is not in the table yet, so every entry counts.
        let overrides = match self.mode {
            ConcurrencyMode::Concurrent => inflight_overrides(&inner.inflight, vw, range, new_root),
            ConcurrencyMode::SerializedMetadata => Vec::new(),
        };

        inner.sizes.push(new_size);
        let lease_expires = now + self.lease_ttl;
        inner.inflight.insert(
            vw.raw(),
            Inflight {
                range,
                root: new_root,
                state: UpdateState::Active,
                lease_expires,
                repairs: 0,
            },
        );
        self.lease_watermark.fetch_min(lease_expires, Ordering::Relaxed);
        self.assigned.increment();

        if self.mode == ConcurrencyMode::SerializedMetadata {
            // Ablation: hold the writer until every lower version has
            // published, so its border resolution needs no overrides.
            let deadline = Instant::now() + self.publish_wait;
            while inner.published.next() != vw {
                if inner.is_aborted(vw) {
                    // The sweeper presumed us dead while we waited.
                    return Err(BlobError::VersionAborted { blob, version: vw });
                }
                if state.publish_cv.wait_until(&mut inner, deadline).timed_out() {
                    return Err(BlobError::Timeout("serialized publication order"));
                }
            }
        }

        let ref_root = inner.root_of(inner.published, self.psize);
        let prev_root = inner.root_of(vw.prev().expect("vw ≥ 1"), self.psize);
        Ok(AssignedUpdate {
            vw,
            offset,
            size,
            prev_size,
            new_size,
            range,
            new_root,
            overrides,
            ref_root,
            prev_root,
        })
    }

    /// Writer notification that metadata for `vw` is durable
    /// (Algorithm 2 line 12). The VM "takes the responsibility of
    /// eventually publishing vw": it publishes as soon as all lower
    /// versions are published, preserving total order. Completion also
    /// retires the writer's lease — a completed version can no longer
    /// expire or abort. Fails with [`BlobError::VersionAborted`] when
    /// the sweeper already presumed this writer dead.
    pub fn complete(&self, blob: BlobId, vw: Version) -> Result<()> {
        self.tick();
        let state = self.blob_state(blob)?;
        let mut inner = state.inner.lock();
        if let Some(inf) = inner.inflight.get_mut(&vw.raw()) {
            match inf.state {
                UpdateState::Active => inf.state = UpdateState::Completed,
                UpdateState::Completed => {
                    return Err(BlobError::Internal(format!("{vw} completed twice")));
                }
                UpdateState::Aborting | UpdateState::Aborted => {
                    return Err(BlobError::VersionAborted { blob, version: vw });
                }
            }
        } else if inner.is_aborted(vw) {
            return Err(BlobError::VersionAborted { blob, version: vw });
        } else {
            return Err(BlobError::VersionUnknown { blob, version: vw });
        }
        let (published, skipped) = inner.drain_publishable();
        if published > 0 {
            self.published.add(published as u64);
        }
        if published + skipped > 0 {
            self.republish(blob, &state, &inner);
            state.publish_cv.notify_all();
        }
        Ok(())
    }

    /// Renew the lease of an in-flight update. Pipeline stages call
    /// this as they progress; any renewal pushes expiry a full TTL out.
    /// Renewing an expired-but-not-yet-aborted lease *revives* it (the
    /// writer beat the sweeper); renewing an aborted version fails with
    /// [`BlobError::VersionAborted`] — the fencing signal telling a
    /// presumed-dead writer to stop storing state. Renewing an
    /// already-completed (or published) version is a harmless no-op.
    pub fn renew_lease(&self, blob: BlobId, v: Version) -> Result<()> {
        let now = self.tick();
        let state = self.blob_state(blob)?;
        let mut inner = state.inner.lock();
        if let Some(inf) = inner.inflight.get_mut(&v.raw()) {
            return match inf.state {
                UpdateState::Active => {
                    inf.lease_expires = now + self.lease_ttl;
                    self.renewals.increment();
                    Ok(())
                }
                UpdateState::Completed => Ok(()),
                UpdateState::Aborting | UpdateState::Aborted => {
                    Err(BlobError::VersionAborted { blob, version: v })
                }
            };
        }
        if inner.is_aborted(v) {
            Err(BlobError::VersionAborted { blob, version: v })
        } else if v <= inner.published {
            Ok(())
        } else {
            Err(BlobError::VersionUnknown { blob, version: v })
        }
    }

    /// Every `(blob, version)` whose lease has lapsed as of the current
    /// clock, plus any version stuck in a failed abort (not one whose
    /// repair still runs) — the one lease-expiry query every sweep
    /// trigger asks. Sorted, and
    /// ascending per blob: aborts must run lowest-version-first so a
    /// repair only ever waits on strictly lower versions.
    ///
    /// `below = Some((blob, v))` restricts the answer to `blob`'s
    /// versions strictly below `v` — what a completion stage asks
    /// before its boundary merge ("is anything I might block on
    /// dead?") — and locks only that blob (an unknown blob has
    /// nothing expired). `None` scans every blob.
    ///
    /// One atomic load while every lease is fresh and no version is
    /// mid-abort, so it is safe to call per operation. When a full scan
    /// finds nothing due, it raises the watermark to the earliest live
    /// expiry — but never above `now + ttl` (a lease granted mid-scan
    /// on an already-visited blob expires no earlier than that) and
    /// only if no concurrent `assign` lowered it meanwhile (the CAS); a
    /// lost race leaves the watermark stale-low, which costs a spurious
    /// scan, never a missed expiry.
    pub fn expired_leases(&self, below: Option<(BlobId, Version)>) -> Vec<(BlobId, Version)> {
        // Clock first: a lease granted after this read expires past
        // `now`, so a watermark read later can only be conservative.
        let now = self.now_ticks();
        let wm_before = self.lease_watermark.load(Ordering::Relaxed);
        if self.aborting.load(Ordering::Relaxed) == 0 && now < wm_before {
            return Vec::new();
        }
        if let Some((blob, limit)) = below {
            let Ok(state) = self.blob_state(blob) else { return Vec::new() };
            let inner = state.inner.lock();
            return inner.expired_leases(now, Some(limit)).into_iter().map(|v| (blob, v)).collect();
        }
        let mut out = Vec::new();
        let mut earliest = u64::MAX;
        for (id, state) in self.blobs.all() {
            let inner = state.inner.lock();
            out.extend(inner.expired_leases(now, None).into_iter().map(|v| (id, v)));
            earliest = earliest.min(inner.earliest_expiry());
        }
        out.sort_unstable_by_key(|&(b, v)| (b.raw(), v.raw()));
        if out.is_empty() {
            let target = earliest.min(now.saturating_add(self.lease_ttl));
            let _ = self.lease_watermark.compare_exchange(
                wm_before,
                target,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
        out
    }

    /// Begin aborting an assigned-but-unpublished version: mark it
    /// aborted (racing readers and a racing `complete` now surface
    /// [`BlobError::VersionAborted`]) and return the dead writer's
    /// update for the caller to re-run as the **repair** before
    /// [`VersionManager::commit_abort`]: snapshot `vw − 1`'s bytes,
    /// zero-extended, over exactly the pages the writer was assigned.
    ///
    /// The returned update is widened to whole pages — `offset` is the
    /// first page's start and `offset + size` is
    /// `min(range.end() × psize, new_size)` — so the repair rewrites
    /// every assigned page and merges nothing. Its overrides are
    /// recomputed as of abort time, identical in effect to what the
    /// writer was handed: both resolve each border position to the
    /// newest version `< vw` creating it, and versions only move from
    /// in-flight to published, never disappear (aborted ones leave a
    /// repair tree behind).
    ///
    /// Idempotent over a failed repair (state `Aborting` re-issues the
    /// update); refuses — typed, with nothing changed — once the
    /// version completed, published, or fully aborted. Each call begins
    /// one repair, which [`VersionManager::commit_abort`] or
    /// [`VersionManager::end_repair`] ends; while one runs,
    /// [`VersionManager::expired_leases`] does not report the version.
    pub fn begin_abort(&self, blob: BlobId, v: Version) -> Result<AssignedUpdate> {
        self.tick();
        let state = self.blob_state(blob)?;
        let mut inner = state.inner.lock();
        if v > inner.last_assigned() {
            return Err(BlobError::VersionUnknown { blob, version: v });
        }
        let prior = match inner.inflight.get(&v.raw()).map(|inf| inf.state) {
            Some(s @ (UpdateState::Active | UpdateState::Aborting)) => s,
            Some(UpdateState::Completed) => {
                return Err(BlobError::AbortConflict(format!(
                    "{v} already completed; publication is the version manager's job"
                )));
            }
            Some(UpdateState::Aborted) => {
                return Err(BlobError::AbortConflict(format!("{v} already aborted")));
            }
            None if inner.is_aborted(v) => {
                return Err(BlobError::AbortConflict(format!("{v} already aborted")));
            }
            None => {
                return Err(BlobError::AbortConflict(format!(
                    "{v} already published; use garbage collection to drop history"
                )));
            }
        };
        let inf = {
            let entry = inner.inflight.get_mut(&v.raw()).expect("checked above");
            entry.state = UpdateState::Aborting;
            entry.repairs += 1;
            *entry
        };
        if prior == UpdateState::Active {
            // Keep the stuck-abort gauge exact across retries: one
            // increment per version entering Aborting, one decrement
            // at commit.
            self.aborting.fetch_add(1, Ordering::Relaxed);
        }
        inner.aborted.insert(v.raw());
        // Wake SYNC waiters parked on the aborted version right away.
        state.publish_cv.notify_all();

        // Recompute the weaving inputs the dead writer was handed: for
        // every border position, the newest version `< v` creating it —
        // either still in flight (scanned here, aborted holes included:
        // their repair trees create those nodes) or already published
        // (resolved by descending `ref_root`).
        let overrides = inflight_overrides(&inner.inflight, v, inf.range, inf.root);
        let prev = v.prev().expect("v ≥ 1: snapshot 0 is never in flight");
        let new_size = inner.size_of(v);
        let offset = inf.range.first * self.psize;
        Ok(AssignedUpdate {
            vw: v,
            offset,
            size: (inf.range.end() * self.psize).min(new_size) - offset,
            prev_size: inner.size_of(prev),
            new_size,
            range: inf.range,
            new_root: inf.root,
            overrides,
            ref_root: inner.root_of(inner.published, self.psize),
            prev_root: inner.root_of(prev, self.psize),
        })
    }

    /// A repair begun by [`VersionManager::begin_abort`] ended without
    /// committing (it failed or panicked): once no other repair of `v`
    /// runs, a sweep may retry it. A no-op once `v` left `Aborting`.
    pub fn end_repair(&self, blob: BlobId, v: Version) {
        let Ok(state) = self.blob_state(blob) else { return };
        let mut inner = state.inner.lock();
        if let Some(inf) = inner.inflight.get_mut(&v.raw()) {
            if inf.state == UpdateState::Aborting {
                inf.repairs = inf.repairs.saturating_sub(1);
            }
        }
    }

    /// Finish an abort after the repair tree is durable: the version
    /// becomes skippable, and publication drains over the hole — every
    /// completed later version publishes immediately.
    pub fn commit_abort(&self, blob: BlobId, v: Version) -> Result<()> {
        self.tick();
        let state = self.blob_state(blob)?;
        let mut inner = state.inner.lock();
        match inner.inflight.get_mut(&v.raw()) {
            Some(inf) if inf.state == UpdateState::Aborting => inf.state = UpdateState::Aborted,
            Some(inf) => {
                return Err(BlobError::AbortConflict(format!(
                    "{v} is {:?}, not mid-abort",
                    inf.state
                )));
            }
            None => {
                return Err(BlobError::AbortConflict(format!("{v} is not in flight")));
            }
        }
        self.aborted.increment();
        self.aborting.fetch_sub(1, Ordering::Relaxed);
        let (published, skipped) = inner.drain_publishable();
        if published > 0 {
            self.published.add(published as u64);
        }
        if published + skipped > 0 {
            self.republish(blob, &state, &inner);
            state.publish_cv.notify_all();
        }
        Ok(())
    }

    /// `GET_RECENT`: a recently published version (monotonic with
    /// respect to publications — garbage collection that retires up to
    /// a trailing aborted hole may regress it, see
    /// `get_recent_stays_readable_when_gc_meets_a_trailing_hole`).
    /// Aborted holes at the head of the order are skipped — the result
    /// is always readable. Served wait-free from the blob's seqlock
    /// cell: no blob mutex on this path.
    pub fn get_recent(&self, blob: BlobId) -> Result<Version> {
        let (words, _) = self.blob_state(blob)?.hot.read();
        self.lockfree_reads.increment();
        Ok(Version(words[0]))
    }

    /// `true` when `v` was aborted for `blob`.
    pub fn is_aborted(&self, blob: BlobId, v: Version) -> Result<bool> {
        Ok(self.blob_state(blob)?.inner.lock().is_aborted(v))
    }

    /// `GET_SIZE`: size of a *published* snapshot.
    pub fn get_size(&self, blob: BlobId, v: Version) -> Result<u64> {
        let state = self.blob_state(blob)?;
        let inner = state.inner.lock();
        if inner.is_aborted(v) {
            return Err(BlobError::VersionAborted { blob, version: v });
        }
        if v > inner.published {
            return Err(BlobError::VersionNotPublished { blob, version: v });
        }
        if self.is_retired(&inner, v) {
            return Err(BlobError::VersionRetired { blob, version: v });
        }
        Ok(inner.size_of(v))
    }

    /// Everything a READ needs: the snapshot size, tree root (`None`
    /// for an empty snapshot) and lineage of a published version. This
    /// is the one-time lookup a version-pinned `Snapshot` caches; all
    /// subsequent reads of that snapshot are VM-free.
    ///
    /// When `v` is the blob's current readable frontier — the hot case:
    /// open-latest traffic hammering one blob — the view is served
    /// wait-free from the seqlock cell without touching the blob mutex
    /// ([`VmStats::lockfree_reads`] counts exactly these). Other
    /// versions resolve under a single acquisition of the blob's lock,
    /// as before.
    pub fn snapshot_view(&self, blob: BlobId, v: Version) -> Result<ReadView> {
        self.read_views.increment();
        let state = self.blob_state(blob)?;
        let (words, _) = state.hot.read();
        if words[0] == v.raw() {
            // The triple was the readable frontier at publication time
            // and snapshots are immutable, so it is valid for `v`
            // forever; the read linearizes at the seqlock load.
            self.lockfree_reads.increment();
            return Ok(Self::view_from_words(&state, words));
        }
        let inner = state.inner.lock();
        if inner.is_aborted(v) {
            return Err(BlobError::VersionAborted { blob, version: v });
        }
        if v > inner.published {
            return Err(BlobError::VersionNotPublished { blob, version: v });
        }
        if self.is_retired(&inner, v) {
            return Err(BlobError::VersionRetired { blob, version: v });
        }
        Ok(ReadView {
            size: inner.size_of(v),
            root: inner.root_of(v, self.psize),
            lineage: inner.lineage.clone(),
        })
    }

    /// `true` when `v` of the locked `inner` was garbage-collected: by
    /// the blob itself, or by the ancestor owning an inherited `v`.
    /// Blob locks nest descendant → ancestor only. The seqlock hot path
    /// skips this: a branch's frontier is at or above its pinned fork
    /// point.
    fn is_retired(&self, inner: &BlobInner, v: Version) -> bool {
        if inner.is_retired(v) {
            return true;
        }
        let owner = inner.lineage.owner_of(v);
        owner != inner.lineage.blob()
            && self.blobs.get(owner).is_some_and(|s| s.inner.lock().is_retired(v))
    }

    /// Roots of every retained, non-empty snapshot of the locked `inner`.
    fn retained_roots(&self, inner: &BlobInner) -> Vec<RootRef> {
        (0..=inner.published.raw())
            .map(Version)
            .filter(|&v| !self.is_retired(inner, v))
            .filter_map(|v| inner.root_of(v, self.psize))
            .collect()
    }

    /// A [`ReadView`] reconstructed from a consistently-read hot
    /// triple: the root has offset 0 (every root does), the published
    /// span, and the published version; lineage comes from the blob's
    /// immutable copy.
    fn view_from_words(state: &BlobState, words: [u64; 3]) -> ReadView {
        let root = (words[1] > 0)
            .then(|| RootRef { version: Version(words[0]), pos: NodePos::new(0, words[2]) });
        ReadView { size: words[1], root, lineage: state.lineage.clone() }
    }

    /// The open-latest operation, fused: the blob's current readable
    /// version and its [`ReadView`], resolved from one wait-free
    /// seqlock read — the `(GET_RECENT, snapshot_view)` pair without
    /// the race window between the two calls and without the blob
    /// mutex. Counts one read-view resolution and one
    /// [`VmStats::lockfree_reads`].
    pub fn latest_view(&self, blob: BlobId) -> Result<(Version, ReadView)> {
        self.read_views.increment();
        let state = self.blob_state(blob)?;
        let (words, _) = state.hot.read();
        self.lockfree_reads.increment();
        Ok((Version(words[0]), Self::view_from_words(&state, words)))
    }

    /// `SYNC`: block until `v` is published or `timeout` elapses. A
    /// reader racing an abort of `v` is woken as soon as the abort
    /// begins and gets the typed [`BlobError::VersionAborted`].
    pub fn sync(&self, blob: BlobId, v: Version, timeout: Duration) -> Result<()> {
        let state = self.blob_state(blob)?;
        let mut inner = state.inner.lock();
        if v > inner.last_assigned() {
            return Err(BlobError::VersionUnknown { blob, version: v });
        }
        let deadline = Instant::now() + timeout;
        loop {
            if inner.is_aborted(v) {
                return Err(BlobError::VersionAborted { blob, version: v });
            }
            if inner.published >= v {
                return Ok(());
            }
            if state.publish_cv.wait_until(&mut inner, deadline).timed_out() {
                return Err(BlobError::Timeout("snapshot publication"));
            }
        }
    }

    /// Begin garbage collection: retire every version `< keep_from`.
    ///
    /// Preconditions (all typed errors, nothing partial happens on
    /// failure): `keep_from` must be published; no update may be in
    /// flight (quiescence — the sweep must not race border
    /// resolution); no live branch may pin history below `keep_from`.
    ///
    /// On success the retired versions immediately become unreadable
    /// ([`BlobError::VersionRetired`]) and the *mark roots* — the tree
    /// roots of every retained, non-empty snapshot — are returned for
    /// the caller's mark-and-sweep.
    pub fn begin_retire(&self, blob: BlobId, keep_from: Version) -> Result<Vec<RootRef>> {
        let state = self.blob_state(blob)?;
        let mut inner = state.inner.lock();
        if keep_from > inner.published {
            return Err(BlobError::VersionNotPublished { blob, version: keep_from });
        }
        if !inner.inflight.is_empty() {
            return Err(BlobError::GcConflict(format!(
                "{} update(s) in flight; GC requires quiescence",
                inner.inflight.len()
            )));
        }
        if let Some(&pin) = inner.child_branch_points.iter().min() {
            if pin < keep_from {
                return Err(BlobError::GcConflict(format!(
                    "a branch pins history at {pin} (< {keep_from})"
                )));
            }
        }
        if keep_from <= inner.retired_before {
            // Nothing new to retire.
            return Ok(Vec::new());
        }
        inner.retired_before = keep_from;
        // Retiring up to a trailing aborted hole can *regress* the
        // readable frontier (down to v0 in the degenerate case) — the
        // hot triple must follow it, so racing readers get the typed
        // retired/readable split, never a stale root.
        self.republish(blob, &state, &inner);
        Ok(self.retained_roots(&inner))
    }

    /// The tree-walk live set's **metadata cut**: for every registered
    /// blob, the retained roots to walk and the in-flight updates to
    /// probe (see [`BlobScrubCut`]). Each blob's slice is captured
    /// atomically under its own lock; the cut is *not* atomic across
    /// blobs.
    pub fn scrub_cut(&self) -> Vec<BlobScrubCut> {
        let mut cuts: Vec<BlobScrubCut> =
            self.blobs.all().into_iter().map(|(id, state)| self.cut_of(id, &state)).collect();
        cuts.sort_by_key(|c| c.blob.raw());
        cuts
    }

    fn cut_of(&self, id: BlobId, state: &BlobState) -> BlobScrubCut {
        let inner = state.inner.lock();
        // Aborted versions the frontier passed keep their (complete)
        // repair trees and are marked too.
        let roots = self.retained_roots(&inner);
        let inflight = inner.inflight.iter().map(|(&v, inf)| (Version(v), inf.range)).collect();
        BlobScrubCut { blob: id, lineage: inner.lineage.clone(), roots, inflight }
    }

    /// The blob's lineage (for metadata key resolution).
    pub fn lineage(&self, blob: BlobId) -> Result<Lineage> {
        // Immutable since creation: the lock-free copy is the same value.
        Ok(self.blob_state(blob)?.lineage.clone())
    }

    /// Counter snapshot.
    pub fn stats(&self) -> VmStats {
        VmStats {
            blobs: self.blobs.len() as u64,
            assigned: self.assigned.value(),
            published: self.published.value(),
            branches: self.branches.value(),
            read_views: self.read_views.value(),
            aborted: self.aborted.value(),
            lease_renewals: self.renewals.value(),
            lockfree_reads: self.lockfree_reads.value(),
        }
    }

    /// Arm (or disarm, with `None`) a blob's test-only mid-publication
    /// pause hook: the next publication calls `hook` after its first
    /// payload store — the torn intermediate — so deterministic
    /// interleaving tests can hold a writer there. Test infrastructure,
    /// not API.
    #[doc(hidden)]
    pub fn set_publish_pause(
        &self,
        blob: BlobId,
        hook: Option<Box<dyn Fn() + Send + Sync>>,
    ) -> Result<()> {
        self.blob_state(blob)?.hot.set_pause(hook);
        Ok(())
    }

    /// Arm (or disarm, with `None`) the test-only publication probe,
    /// called under the publishing blob's mutex with
    /// `(blob, new sequence, words)` for every republication — the
    /// stress suite's oracle feed. Test infrastructure, not API.
    #[doc(hidden)]
    pub fn set_publish_probe(&self, probe: Option<PublishProbe>) {
        self.probe_armed.store(probe.is_some(), Ordering::Relaxed);
        *self.publish_probe.lock() = probe;
    }

    /// One protocol-validated read of a blob's hot seqlock cell:
    /// `(words, sequence, retries)`. Test observable (the stress
    /// suite's reader primitive), not API.
    #[doc(hidden)]
    pub fn debug_hot_read(&self, blob: BlobId) -> Result<([u64; 3], u64, u64)> {
        Ok(self.blob_state(blob)?.hot.read_counted())
    }

    /// Raw, unvalidated `(words, sequence)` peek at a blob's hot cell —
    /// bypasses the seqlock protocol so tests can prove a paused
    /// publication really is torn. Never a correctness primitive.
    #[doc(hidden)]
    pub fn debug_peek_hot(&self, blob: BlobId) -> Result<([u64; 3], u64)> {
        Ok(self.blob_state(blob)?.hot.debug_peek())
    }
}

impl std::fmt::Debug for VersionManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionManager")
            .field("psize", &self.psize)
            .field("mode", &self.mode)
            .field("stats", &self.stats())
            .finish()
    }
}

/// The version after `last`, the only way a version is minted: refused
/// with [`BlobError::VersionsExhausted`] past [`MAX_VERSION`], the
/// highest version a tree node's child field holds, so the node codec
/// never truncates one.
fn next_version(blob: BlobId, last: Version) -> Result<Version> {
    Some(last.next()).filter(|&v| v <= MAX_VERSION).ok_or(BlobError::VersionsExhausted { blob })
}

/// The partial border set of an update of `range` under `root` (paper
/// §4.2): for each border position, the highest version below `below`
/// in `inflight` whose update creates a node there. Aborted holes count
/// — their repair trees create those nodes. Each border scans the lower
/// in-flight entries downward and stops at the first creator; nothing
/// is allocated but the result. Ordered like `border_positions`:
/// top-down, then by offset.
fn inflight_overrides(
    inflight: &BTreeMap<u64, Inflight>,
    below: Version,
    range: PageRange,
    root: NodePos,
) -> Vec<(NodePos, Version)> {
    let (first, last) = (range.first, range.end() - 1);
    let lower = inflight.range(..below.raw());
    let mut out = Vec::new();
    for level in levels_below(root, LEVEL_BITS) {
        for (_, pos) in borders_at_level(first, last, level, LEVEL_BITS) {
            let creator =
                lower.clone().rev().find(|(_, inf)| creates_position(inf.range, inf.root, pos));
            if let Some((&vk, _)) = creator {
                out.push((pos, Version(vk)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const PSIZE: u64 = 4;

    fn vm() -> VersionManager {
        VersionManager::new(PSIZE, ConcurrencyMode::Concurrent, Duration::from_secs(5))
    }

    #[test]
    fn create_starts_empty() {
        let vm = vm();
        let b = vm.create();
        assert_eq!(vm.get_recent(b).unwrap(), Version::ZERO);
        assert_eq!(vm.get_size(b, Version::ZERO).unwrap(), 0);
        let view = vm.snapshot_view(b, Version::ZERO).unwrap();
        assert_eq!(view.size, 0);
        assert!(view.root.is_none());
    }

    #[test]
    fn unknown_blob_errors() {
        let vm = vm();
        let ghost = BlobId(999);
        assert!(matches!(vm.get_recent(ghost), Err(BlobError::BlobNotFound(_))));
        assert!(vm.assign(ghost, UpdateKind::Append { size: 4 }).is_err());
    }

    #[test]
    fn assign_sequences_versions_and_sizes() {
        let vm = vm();
        let b = vm.create();
        let a1 = vm.assign(b, UpdateKind::Append { size: 8 }).unwrap();
        assert_eq!(a1.vw, Version(1));
        assert_eq!(a1.offset, 0);
        assert_eq!(a1.new_size, 8);
        assert_eq!(a1.range, PageRange::new(0, 2));
        assert_eq!(a1.new_root, NodePos::new(0, 4), "2 pages: the least power of four");
        assert!(a1.ref_root.is_none(), "nothing published yet");
        assert!(a1.prev_root.is_none(), "v0 is empty");

        let a2 = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
        assert_eq!(a2.vw, Version(2));
        assert_eq!(a2.offset, 8, "append offset = previous assigned size");
        assert_eq!(a2.new_size, 12);
        assert_eq!(a2.new_root, NodePos::new(0, 4));
        // v1 not yet complete → prev root refers to the in-flight v1.
        assert_eq!(a2.prev_root.unwrap().version, Version(1));
    }

    #[test]
    fn assigned_roots_are_the_least_covering_power() {
        // Independent of `NodePos::root_for`: offset 0 and the smallest
        // power of `FANOUT` covering `max(1, pages)`, found by
        // multiplying.
        let oracle = |pages: u64| {
            let mut size = 1;
            while size < pages.max(1) {
                size *= blobseer_types::FANOUT;
            }
            NodePos::new(0, size)
        };
        let vm = vm();
        let b = vm.create();
        let mut size = 0u64;
        for i in 0..48u64 {
            // Appends of 1..=13 bytes, and every third update a write
            // somewhere in range that may run past the end.
            let len = 1 + i * 7 % 13;
            let kind = if i % 3 == 2 {
                UpdateKind::Write { offset: size * (i % 5) / 4, size: len }
            } else {
                UpdateKind::Append { size: len }
            };
            let a = vm.assign(b, kind).unwrap();
            size = a.new_size;
            assert_eq!(a.new_root, oracle(size.div_ceil(PSIZE)), "update {i}, size {size}");
        }
        assert!(size > 32 * PSIZE, "the run crosses several powers: {size}");
    }

    #[test]
    fn assign_refuses_a_version_past_the_codec_bound() {
        // A blob's size table cannot hold 2^48 entries, so the last
        // assigned version is set where `assign` takes it from.
        let b = BlobId(7);
        let last = Version(MAX_VERSION.raw() - 1);
        assert_eq!(next_version(b, last), Ok(MAX_VERSION));
        assert_eq!(next_version(b, MAX_VERSION), Err(BlobError::VersionsExhausted { blob: b }));
        assert_eq!(MAX_VERSION, Version((1 << 48) - 1));
        // Below the bound, `assign` mints through it as before.
        let vm = vm();
        let b = vm.create();
        assert_eq!(vm.assign(b, UpdateKind::Append { size: 1 }).unwrap().vw, Version(1));
    }

    #[test]
    fn write_validation() {
        let vm = vm();
        let b = vm.create();
        assert!(matches!(
            vm.assign(b, UpdateKind::Write { offset: 1, size: 4 }),
            Err(BlobError::WriteBeyondEnd { .. })
        ));
        assert!(matches!(
            vm.assign(b, UpdateKind::Append { size: 0 }),
            Err(BlobError::EmptyUpdate)
        ));
        vm.assign(b, UpdateKind::Append { size: 8 }).unwrap();
        // Offset equal to the assigned (unpublished) size is allowed:
        // updates chain on assigned order, not publication order.
        let a = vm.assign(b, UpdateKind::Write { offset: 8, size: 4 }).unwrap();
        assert_eq!(a.vw, Version(2));
        // Overwrite within bounds does not grow the blob.
        let a3 = vm.assign(b, UpdateKind::Write { offset: 0, size: 4 }).unwrap();
        assert_eq!(a3.new_size, 12);
    }

    #[test]
    fn publication_is_total_order() {
        let vm = vm();
        let b = vm.create();
        let a1 = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
        let a2 = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
        let a3 = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
        // Completing out of order publishes nothing until the gap fills.
        vm.complete(b, a3.vw).unwrap();
        assert_eq!(vm.get_recent(b).unwrap(), Version(0));
        vm.complete(b, a2.vw).unwrap();
        assert_eq!(vm.get_recent(b).unwrap(), Version(0));
        vm.complete(b, a1.vw).unwrap();
        assert_eq!(vm.get_recent(b).unwrap(), Version(3));
        // Published sizes now visible.
        assert_eq!(vm.get_size(b, Version(2)).unwrap(), 8);
    }

    #[test]
    fn get_size_requires_publication() {
        let vm = vm();
        let b = vm.create();
        let a1 = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
        assert!(matches!(vm.get_size(b, a1.vw), Err(BlobError::VersionNotPublished { .. })));
        vm.complete(b, a1.vw).unwrap();
        assert_eq!(vm.get_size(b, a1.vw).unwrap(), 4);
    }

    #[test]
    fn complete_validation() {
        let vm = vm();
        let b = vm.create();
        assert!(matches!(vm.complete(b, Version(1)), Err(BlobError::VersionUnknown { .. })));
        let a = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
        vm.complete(b, a.vw).unwrap();
        assert!(vm.complete(b, a.vw).is_err(), "double complete");
    }

    #[test]
    fn sync_blocks_until_publication() {
        let vm = Arc::new(vm());
        let b = vm.create();
        let a1 = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
        let vm2 = Arc::clone(&vm);
        let waiter = std::thread::spawn(move || vm2.sync(b, Version(1), Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        vm.complete(b, a1.vw).unwrap();
        waiter.join().unwrap().unwrap();
    }

    #[test]
    fn sync_times_out_and_rejects_unknown() {
        let vm = vm();
        let b = vm.create();
        assert!(matches!(
            vm.sync(b, Version(5), Duration::from_millis(5)),
            Err(BlobError::VersionUnknown { .. })
        ));
        vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
        assert_eq!(
            vm.sync(b, Version(1), Duration::from_millis(10)),
            Err(BlobError::Timeout("snapshot publication"))
        );
    }

    #[test]
    fn overrides_point_to_inflight_creators() {
        // Replays the §4.2 scenario from the meta crate's concurrent
        // test, now with the VM computing the override itself.
        let vm = vm();
        let b = vm.create();
        let a1 = vm.assign(b, UpdateKind::Append { size: 16 }).unwrap(); // v1: 4 pages
        vm.complete(b, a1.vw).unwrap();
        // C1: v2 appends pages [4,8); stays in flight.
        let a2 = vm.assign(b, UpdateKind::Append { size: 16 }).unwrap();
        assert_eq!(a2.range, PageRange::new(4, 4));
        assert!(a2.overrides.is_empty(), "borders all come from published v1");
        // C2: v3 appends pages [8,12); its border (4,4) is created by v2.
        let a3 = vm.assign(b, UpdateKind::Append { size: 16 }).unwrap();
        assert_eq!(a3.range, PageRange::new(8, 4));
        assert_eq!(a3.overrides, vec![(NodePos::new(4, 4), Version(2))]);
        assert_eq!(a3.ref_root.unwrap().version, Version(1));
    }

    #[test]
    fn overrides_pick_highest_inflight_version() {
        let vm = vm();
        let b = vm.create();
        let a1 = vm.assign(b, UpdateKind::Append { size: 16 }).unwrap();
        vm.complete(b, a1.vw).unwrap();
        // Two in-flight overwrites of page 0; a third writer of page 2
        // needs border (0,1) → must take the *newest* in-flight creator.
        vm.assign(b, UpdateKind::Write { offset: 0, size: 4 }).unwrap(); // v2
        vm.assign(b, UpdateKind::Write { offset: 0, size: 4 }).unwrap(); // v3
        let a4 = vm.assign(b, UpdateKind::Write { offset: 8, size: 4 }).unwrap(); // v4
        assert!(a4.overrides.contains(&(NodePos::new(0, 1), Version(3))));
        assert!(!a4.overrides.iter().any(|&(_, v)| v == Version(2)));
    }

    #[test]
    fn branch_requires_published_version() {
        let vm = vm();
        let b = vm.create();
        let a1 = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
        assert!(matches!(vm.branch(b, Version(1)), Err(BlobError::VersionNotPublished { .. })));
        vm.complete(b, a1.vw).unwrap();
        let c = vm.branch(b, Version(1)).unwrap();
        assert_ne!(c, b);
        assert_eq!(vm.get_recent(c).unwrap(), Version(1));
        assert_eq!(vm.get_size(c, Version(1)).unwrap(), 4);
        // The branch evolves independently.
        let ac = vm.assign(c, UpdateKind::Append { size: 4 }).unwrap();
        assert_eq!(ac.vw, Version(2));
        vm.complete(c, ac.vw).unwrap();
        assert_eq!(vm.get_size(c, Version(2)).unwrap(), 8);
        assert_eq!(vm.get_recent(b).unwrap(), Version(1), "parent unaffected");
        // Lineage resolves shared versions to the parent.
        let lin = vm.lineage(c).unwrap();
        assert_eq!(lin.owner_of(Version(1)), b);
        assert_eq!(lin.owner_of(Version(2)), c);
    }

    #[test]
    fn serialized_mode_blocks_until_predecessor_publishes() {
        let vm = Arc::new(VersionManager::new(
            PSIZE,
            ConcurrencyMode::SerializedMetadata,
            Duration::from_secs(5),
        ));
        let b = vm.create();
        let a1 = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
        assert!(a1.overrides.is_empty());
        let vm2 = Arc::clone(&vm);
        let t0 = Instant::now();
        let second = std::thread::spawn(move || {
            let a2 = vm2.assign(b, UpdateKind::Append { size: 4 }).unwrap();
            (a2, Instant::now())
        });
        std::thread::sleep(Duration::from_millis(40));
        vm.complete(b, a1.vw).unwrap();
        let (a2, done) = second.join().unwrap();
        assert!(done - t0 >= Duration::from_millis(40), "assign was blocked");
        assert!(a2.overrides.is_empty());
        assert_eq!(a2.ref_root.unwrap().version, Version(1));
    }

    #[test]
    fn concurrent_assign_storm_is_gapless() {
        let vm = Arc::new(vm());
        let b = vm.create();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let vm = Arc::clone(&vm);
            handles.push(std::thread::spawn(move || {
                let mut versions = Vec::new();
                for _ in 0..50 {
                    let a = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
                    versions.push(a.vw);
                    vm.complete(b, a.vw).unwrap();
                }
                versions
            }));
        }
        let mut all: Vec<u64> =
            handles.into_iter().flat_map(|h| h.join().unwrap()).map(|v| v.raw()).collect();
        all.sort_unstable();
        assert_eq!(all, (1..=400).collect::<Vec<u64>>(), "dense, unique versions");
        assert_eq!(vm.get_recent(b).unwrap(), Version(400));
        assert_eq!(vm.get_size(b, Version(400)).unwrap(), 1600);
        let stats = vm.stats();
        assert_eq!(stats.assigned, 400);
        assert_eq!(stats.published, 400);
    }

    #[test]
    fn retire_validates_and_marks() {
        let vm = vm();
        let b = vm.create();
        for _ in 0..5 {
            let a = vm.assign(b, UpdateKind::Append { size: 8 }).unwrap();
            vm.complete(b, a.vw).unwrap();
        }
        // Unpublished keep_from rejected.
        assert!(matches!(
            vm.begin_retire(b, Version(9)),
            Err(BlobError::VersionNotPublished { .. })
        ));
        // Quiescence required.
        let inflight = vm.assign(b, UpdateKind::Append { size: 8 }).unwrap();
        assert!(matches!(vm.begin_retire(b, Version(3)), Err(BlobError::GcConflict(_))));
        vm.complete(b, inflight.vw).unwrap();
        // Success: roots of v3..=v6 returned, v1..v2 retired.
        let roots = vm.begin_retire(b, Version(3)).unwrap();
        assert_eq!(roots.len(), 4);
        assert_eq!(roots[0].version, Version(3));
        assert!(matches!(vm.get_size(b, Version(2)), Err(BlobError::VersionRetired { .. })));
        assert!(matches!(vm.snapshot_view(b, Version(1)), Err(BlobError::VersionRetired { .. })));
        assert!(vm.get_size(b, Version(3)).is_ok());
        assert!(vm.snapshot_view(b, Version(3)).is_ok());
        // Re-retiring below the watermark is a no-op.
        assert!(vm.begin_retire(b, Version(2)).unwrap().is_empty());
        // Branching at a retired version is rejected.
        assert!(matches!(vm.branch(b, Version(1)), Err(BlobError::VersionRetired { .. })));
    }

    #[test]
    fn branches_pin_history_against_gc() {
        let vm = vm();
        let b = vm.create();
        for _ in 0..4 {
            let a = vm.assign(b, UpdateKind::Append { size: 8 }).unwrap();
            vm.complete(b, a.vw).unwrap();
        }
        let _child = vm.branch(b, Version(2)).unwrap();
        assert!(matches!(vm.begin_retire(b, Version(4)), Err(BlobError::GcConflict(_))));
        // Retiring up to (and including protection of) the pin is fine.
        assert_eq!(vm.begin_retire(b, Version(2)).unwrap().len(), 3);
    }

    #[test]
    fn pins_and_retirement_follow_the_lineage_to_the_owner() {
        let vm = vm();
        let four_versions = || {
            let b = vm.create();
            for _ in 0..4 {
                let a = vm.assign(b, UpdateKind::Append { size: 8 }).unwrap();
                vm.complete(b, a.vw).unwrap();
            }
            b
        };
        // A grandchild forked at a version its parent inherited pins the
        // owner of that version.
        let b = four_versions();
        let child = vm.branch(b, Version(4)).unwrap();
        vm.branch(child, Version(1)).unwrap();
        assert!(matches!(vm.begin_retire(b, Version(2)), Err(BlobError::GcConflict(_))));

        // Retiring the owner retires what its branch inherited, on every
        // slow path; the pinned fork point stays readable.
        let b = four_versions();
        let child = vm.branch(b, Version(4)).unwrap();
        assert_eq!(vm.begin_retire(b, Version(3)).unwrap().len(), 2);
        for v in [Version(1), Version(2)] {
            let retired = |r: Result<()>| matches!(r, Err(BlobError::VersionRetired { .. }));
            assert!(retired(vm.get_size(child, v).map(drop)), "{v:?}");
            assert!(retired(vm.snapshot_view(child, v).map(drop)), "{v:?}");
            assert!(retired(vm.branch(child, v).map(drop)), "{v:?}");
        }
        assert_eq!(vm.get_size(child, Version(3)).unwrap(), 24);
        assert_eq!(vm.snapshot_view(child, Version(4)).unwrap().size, 32);
        // The child's own retire marks no root its owner already swept.
        assert_eq!(vm.begin_retire(child, Version(2)).unwrap().len(), 2);
        let cut = vm.scrub_cut().into_iter().find(|c| c.blob == child).unwrap();
        assert_eq!(cut.roots.len(), 2);
    }

    #[test]
    fn snapshot_view_resolves_once_and_counts() {
        let vm = vm();
        let b = vm.create();
        let a1 = vm.assign(b, UpdateKind::Append { size: 9 }).unwrap();
        // Unpublished versions are not viewable.
        assert!(matches!(vm.snapshot_view(b, a1.vw), Err(BlobError::VersionNotPublished { .. })));
        vm.complete(b, a1.vw).unwrap();
        let view = vm.snapshot_view(b, a1.vw).unwrap();
        assert_eq!(view.size, 9);
        let root = view.root.unwrap();
        assert_eq!(root.version, a1.vw);
        assert_eq!(root.pos, NodePos::new(0, 4)); // 9 B at psize 4 → 3 pages
        assert_eq!(view.lineage.owner_of(a1.vw), b);
        // Both view entry points move the read_views counter; nothing
        // else does.
        let before = vm.stats().read_views;
        vm.latest_view(b).unwrap();
        vm.snapshot_view(b, a1.vw).unwrap();
        vm.get_size(b, a1.vw).unwrap();
        vm.get_recent(b).unwrap();
        assert_eq!(vm.stats().read_views, before + 2);
    }

    /// Drive a full abort at the VM level (the engine layers the repair
    /// tree build between the two calls).
    fn abort(vm: &VersionManager, b: BlobId, v: Version) -> AssignedUpdate {
        let ticket = vm.begin_abort(b, v).unwrap();
        vm.commit_abort(b, v).unwrap();
        ticket
    }

    #[test]
    fn leases_expire_on_the_logical_clock_only() {
        let vm = VersionManager::new(PSIZE, ConcurrencyMode::Concurrent, Duration::from_secs(5))
            .with_lease_ttl(10);
        let b = vm.create();
        let a1 = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
        assert!(vm.expired_leases(None).is_empty());
        vm.advance_clock(9);
        assert!(vm.expired_leases(None).is_empty(), "TTL not yet reached");
        vm.advance_clock(1);
        assert_eq!(vm.expired_leases(None), vec![(b, a1.vw)]);
        // Renewal revives an expired-but-unaborted lease.
        vm.renew_lease(b, a1.vw).unwrap();
        assert!(vm.expired_leases(None).is_empty());
        assert_eq!(vm.stats().lease_renewals, 1);
        // Completion retires the lease entirely.
        vm.complete(b, a1.vw).unwrap();
        vm.advance_clock(1_000);
        assert!(vm.expired_leases(None).is_empty());
    }

    #[test]
    fn abort_skips_the_hole_and_later_versions_publish() {
        let vm = vm();
        let b = vm.create();
        let a1 = vm.assign(b, UpdateKind::Append { size: 8 }).unwrap();
        let a2 = vm.assign(b, UpdateKind::Append { size: 8 }).unwrap(); // dies
        let a3 = vm.assign(b, UpdateKind::Append { size: 8 }).unwrap();
        vm.complete(b, a1.vw).unwrap();
        vm.complete(b, a3.vw).unwrap();
        // v3 is complete but wedged behind the dead v2.
        assert_eq!(vm.get_recent(b).unwrap(), Version(1));

        let ticket = abort(&vm, b, a2.vw);
        assert_eq!(ticket.vw, Version(2));
        assert_eq!(ticket.range, PageRange::new(2, 2));
        assert_eq!(ticket.prev_size, 8);
        assert_eq!(ticket.new_size, 16);
        assert_eq!(ticket.prev_root.unwrap().version, Version(1));

        // The frontier drained over the hole; v3 is published.
        assert_eq!(vm.get_recent(b).unwrap(), Version(3));
        assert_eq!(vm.get_size(b, Version(3)).unwrap(), 24, "assigned offsets kept");
        assert_eq!(vm.snapshot_view(b, Version(3)).unwrap().size, 24);
        // The hole is typed everywhere.
        assert!(vm.is_aborted(b, Version(2)).unwrap());
        assert!(matches!(vm.get_size(b, Version(2)), Err(BlobError::VersionAborted { .. })));
        assert!(matches!(vm.snapshot_view(b, Version(2)), Err(BlobError::VersionAborted { .. })));
        assert!(matches!(vm.branch(b, Version(2)), Err(BlobError::VersionAborted { .. })));
        assert!(matches!(
            vm.sync(b, Version(2), Duration::from_millis(5)),
            Err(BlobError::VersionAborted { .. })
        ));
        let stats = vm.stats();
        assert_eq!(stats.aborted, 1);
        assert_eq!(stats.published, 2, "skipped versions are not counted as published");
    }

    #[test]
    fn get_recent_walks_past_trailing_aborted_heads() {
        let vm = vm();
        let b = vm.create();
        let a1 = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
        vm.complete(b, a1.vw).unwrap();
        let a2 = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
        abort(&vm, b, a2.vw);
        // Frontier passed v2, but the newest *readable* version is v1.
        assert_eq!(vm.get_recent(b).unwrap(), Version(1));
        // A later writer publishes right over the hole.
        let a3 = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
        vm.complete(b, a3.vw).unwrap();
        assert_eq!(vm.get_recent(b).unwrap(), Version(3));
    }

    #[test]
    fn abort_conflicts_are_typed_and_side_effect_free() {
        let vm = vm();
        let b = vm.create();
        // Never-assigned versions are unknown.
        assert!(matches!(vm.begin_abort(b, Version(7)), Err(BlobError::VersionUnknown { .. })));
        let a1 = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
        // Completed updates cannot abort — publication is the VM's job.
        vm.complete(b, a1.vw).unwrap();
        assert!(matches!(vm.begin_abort(b, a1.vw), Err(BlobError::AbortConflict(_))));
        assert_eq!(vm.get_recent(b).unwrap(), Version(1), "still published");
        // Double aborts are conflicts too.
        let a2 = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
        abort(&vm, b, a2.vw);
        assert!(matches!(vm.begin_abort(b, a2.vw), Err(BlobError::AbortConflict(_))));
        assert!(matches!(vm.commit_abort(b, a2.vw), Err(BlobError::AbortConflict(_))));
        assert_eq!(vm.stats().aborted, 1);
    }

    #[test]
    fn complete_racing_abort_is_fenced() {
        let vm = vm();
        let b = vm.create();
        let a1 = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
        // Sweeper begins the abort; the zombie writer's complete (and
        // renew — the stage fencing check) must fail typed.
        vm.begin_abort(b, a1.vw).unwrap();
        assert!(matches!(vm.complete(b, a1.vw), Err(BlobError::VersionAborted { .. })));
        assert!(matches!(vm.renew_lease(b, a1.vw), Err(BlobError::VersionAborted { .. })));
        // A running repair is nobody's sweep work; a failed one leaves
        // the version retryable.
        assert!(vm.expired_leases(None).is_empty(), "the repair still runs");
        vm.end_repair(b, a1.vw);
        assert_eq!(vm.expired_leases(None), vec![(b, a1.vw)], "a stuck abort wants a retry");
        let ticket = vm.begin_abort(b, a1.vw).unwrap();
        assert_eq!(ticket.vw, a1.vw);
        vm.commit_abort(b, a1.vw).unwrap();
        assert!(vm.expired_leases(None).is_empty());
    }

    #[test]
    fn abort_ticket_recomputes_overrides_for_inflight_creators() {
        // §4.2 scenario, with the middle writer dying: the repair tree
        // of v3 must weave against v2's (in-flight) nodes exactly as
        // the dead writer would have.
        let vm = vm();
        let b = vm.create();
        let a1 = vm.assign(b, UpdateKind::Append { size: 16 }).unwrap();
        vm.complete(b, a1.vw).unwrap();
        let _a2 = vm.assign(b, UpdateKind::Append { size: 16 }).unwrap(); // pages [4,8)
        let a3 = vm.assign(b, UpdateKind::Append { size: 16 }).unwrap(); // pages [8,12), dies
        let ticket = vm.begin_abort(b, a3.vw).unwrap();
        assert_eq!(ticket.overrides, vec![(NodePos::new(4, 4), Version(2))]);
        assert_eq!(ticket.ref_root.unwrap().version, Version(1));
        assert_eq!(ticket.prev_root.unwrap().version, Version(2));
        vm.commit_abort(b, a3.vw).unwrap();
    }

    #[test]
    fn begin_abort_widens_the_dead_update_to_whole_pages() {
        // A repair re-runs the dead update over every assigned page:
        // from the first page's start to the page end or the snapshot
        // end, whichever comes first.
        let vm = vm();
        let b = vm.create();
        let a1 = vm.assign(b, UpdateKind::Append { size: 6 }).unwrap();
        vm.complete(b, a1.vw).unwrap();
        let a2 = vm.assign(b, UpdateKind::Append { size: 8 }).unwrap(); // bytes [6, 14)
        let update = abort(&vm, b, a2.vw);
        assert_eq!(update.range, PageRange::new(1, 3));
        assert_eq!((update.offset, update.size), (PSIZE, 14 - PSIZE));
        let a3 = vm.assign(b, UpdateKind::Write { offset: 1, size: 2 }).unwrap(); // page 0
        let update = abort(&vm, b, a3.vw);
        assert_eq!((update.offset, update.size), (0, PSIZE));
    }

    #[test]
    fn sync_racing_an_abort_wakes_with_the_typed_error() {
        let vm = Arc::new(vm());
        let b = vm.create();
        let a1 = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
        let vm2 = Arc::clone(&vm);
        let reader = std::thread::spawn(move || vm2.sync(b, Version(1), Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        // begin_abort alone must wake the reader — it does not wait for
        // the repair to finish.
        vm.begin_abort(b, a1.vw).unwrap();
        assert_eq!(
            reader.join().unwrap(),
            Err(BlobError::VersionAborted { blob: b, version: Version(1) })
        );
        vm.commit_abort(b, a1.vw).unwrap();
    }

    #[test]
    fn branch_inherits_holes_but_not_later_ones() {
        let vm = vm();
        let b = vm.create();
        let a1 = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
        vm.complete(b, a1.vw).unwrap();
        let a2 = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
        abort(&vm, b, a2.vw);
        let a3 = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
        vm.complete(b, a3.vw).unwrap();
        let c = vm.branch(b, Version(3)).unwrap();
        // The shared hole is a hole in the child too.
        assert!(matches!(vm.get_size(c, Version(2)), Err(BlobError::VersionAborted { .. })));
        assert_eq!(vm.get_size(c, Version(3)).unwrap(), 12);
        // The child's own updates are unaffected by the parent's hole.
        let ac = vm.assign(c, UpdateKind::Append { size: 4 }).unwrap();
        vm.complete(c, ac.vw).unwrap();
        assert_eq!(vm.get_recent(c).unwrap(), Version(4));
    }

    #[test]
    fn a_fork_at_v0_inherits_no_retirement_of_its_own_versions() {
        // The parent retired v1, so its frontier falls back to v0 (v2
        // is a hole). A branch there shares only v0; its own v1 and v2
        // are new versions, readable once published.
        let vm = vm();
        let b = vm.create();
        let a1 = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
        vm.complete(b, a1.vw).unwrap();
        let a2 = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
        abort(&vm, b, a2.vw);
        vm.begin_retire(b, Version(2)).unwrap();
        assert_eq!(vm.get_recent(b).unwrap(), Version::ZERO);
        let c = vm.branch(b, Version::ZERO).unwrap();
        for v in 1..=2 {
            let a = vm.assign(c, UpdateKind::Append { size: 4 }).unwrap();
            vm.complete(c, a.vw).unwrap();
            assert_eq!(vm.get_recent(c).unwrap(), Version(v));
            assert_eq!(vm.snapshot_view(c, Version(v)).unwrap().size, 4 * v);
        }
        // The child can retire its own history.
        assert_eq!(vm.begin_retire(c, Version(2)).unwrap().len(), 1);
        assert!(matches!(vm.get_size(c, Version(1)), Err(BlobError::VersionRetired { .. })));
    }

    #[test]
    fn get_recent_stays_readable_when_gc_meets_a_trailing_hole() {
        // Regression: retire up to a hole at the head of the order —
        // GET_RECENT must fall through to the (readable, empty) v0,
        // never to a retired version.
        let vm = vm();
        let b = vm.create();
        let a1 = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
        vm.complete(b, a1.vw).unwrap();
        let a2 = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
        abort(&vm, b, a2.vw); // frontier passes v2; newest readable is v1
        vm.begin_retire(b, Version(2)).unwrap(); // retires v1
        let recent = vm.get_recent(b).unwrap();
        assert_eq!(recent, Version::ZERO);
        assert!(vm.snapshot_view(b, recent).is_ok(), "GET_RECENT must be readable");
        // The blob keeps working past the degenerate state.
        let a3 = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
        vm.complete(b, a3.vw).unwrap();
        assert_eq!(vm.get_recent(b).unwrap(), Version(3));
    }

    #[test]
    fn expiry_checks_are_watermark_gated() {
        let vm = VersionManager::new(PSIZE, ConcurrencyMode::Concurrent, Duration::from_secs(5))
            .with_lease_ttl(10);
        let b = vm.create();
        assert!(vm.expired_leases(None).is_empty(), "no leases, nothing expires");
        let a1 = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
        // A scan before the TTL raises the stale-low watermark...
        assert!(vm.expired_leases(None).is_empty());
        assert!(vm.expired_leases(Some((b, Version(9)))).is_empty());
        // ...but expiry is still detected exactly at the TTL.
        vm.advance_clock(20);
        assert_eq!(vm.expired_leases(None), vec![(b, a1.vw)]);
        assert_eq!(vm.expired_leases(Some((b, Version(9)))), vec![(b, a1.vw)]);
        assert!(vm.expired_leases(Some((b, a1.vw))).is_empty(), "strictly-below filter");
        // A stuck abort (its repair failed) stays visible regardless of
        // the watermark.
        vm.begin_abort(b, a1.vw).unwrap();
        vm.end_repair(b, a1.vw);
        assert_eq!(vm.expired_leases(None), vec![(b, a1.vw)]);
        vm.commit_abort(b, a1.vw).unwrap();
        assert!(vm.expired_leases(None).is_empty());
    }

    #[test]
    fn serialized_mode_writer_unblocks_when_predecessor_aborts() {
        let vm = Arc::new(
            VersionManager::new(PSIZE, ConcurrencyMode::SerializedMetadata, Duration::from_secs(5))
                .with_lease_ttl(5),
        );
        let b = vm.create();
        let a1 = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
        let vm2 = Arc::clone(&vm);
        let second = std::thread::spawn(move || vm2.assign(b, UpdateKind::Append { size: 4 }));
        std::thread::sleep(Duration::from_millis(30));
        abort(&vm, b, a1.vw);
        let a2 = second.join().unwrap().unwrap();
        assert_eq!(a2.vw, Version(2));
        vm.complete(b, a2.vw).unwrap();
        assert_eq!(vm.get_recent(b).unwrap(), Version(2));
    }

    #[test]
    fn scrub_cut_captures_roots_holes_and_inflight() {
        let vm = vm();
        let b = vm.create();
        // v1 published, v2 aborted (frontier passes it), v3 published,
        // v4 in flight, then retire v1.
        let a1 = vm.assign(b, UpdateKind::Append { size: 8 }).unwrap();
        vm.complete(b, a1.vw).unwrap();
        let a2 = vm.assign(b, UpdateKind::Append { size: 8 }).unwrap();
        abort(&vm, b, a2.vw);
        let a3 = vm.assign(b, UpdateKind::Append { size: 8 }).unwrap();
        vm.complete(b, a3.vw).unwrap();
        vm.begin_retire(b, Version(2)).unwrap(); // GC needs quiescence
        let a4 = vm.assign(b, UpdateKind::Append { size: 8 }).unwrap();

        let cuts = vm.scrub_cut();
        assert_eq!(cuts.len(), 1);
        let cut = &cuts[0];
        assert_eq!(cut.blob, b);
        // Retained roots: v2 (the aborted hole's complete repair tree)
        // and v3; the retired v1 is gone, v4 is not yet a root.
        let root_versions: Vec<Version> = cut.roots.iter().map(|r| r.version).collect();
        assert_eq!(root_versions, vec![Version(2), Version(3)]);
        assert_eq!(cut.inflight, vec![(a4.vw, a4.range)]);
        assert_eq!(cut.lineage.owner_of(Version(3)), b);
        // A fresh empty blob contributes an empty cut, not an absence.
        let b2 = vm.create();
        let cuts = vm.scrub_cut();
        assert_eq!(cuts.len(), 2);
        let empty = cuts.iter().find(|c| c.blob == b2).unwrap();
        assert!(empty.roots.is_empty());
        assert!(empty.inflight.is_empty());
    }

    #[test]
    fn append_offsets_chain_across_inflight_versions() {
        let vm = vm();
        let b = vm.create();
        let a1 = vm.assign(b, UpdateKind::Append { size: 6 }).unwrap();
        let a2 = vm.assign(b, UpdateKind::Append { size: 6 }).unwrap();
        // a2 starts where a1 *will* end, even though a1 is unpublished.
        assert_eq!(a2.offset, 6);
        assert_eq!(a2.new_size, 12);
        vm.complete(b, a1.vw).unwrap();
        vm.complete(b, a2.vw).unwrap();
        assert_eq!(vm.get_size(b, Version(2)).unwrap(), 12);
    }
}
