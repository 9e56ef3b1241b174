//! The version manager proper.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use blobseer_meta::plan::{borders_at_level, creates_position};
use blobseer_meta::{Lineage, RootRef};
use blobseer_types::{div_ceil, BlobError, BlobId, ByteRange, NodePos, PageRange, Result, Version};
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

/// Everything an abort needs to build the **repair tree** of a dead
/// writer's version: the exact node skeleton the writer was expected to
/// create (later versions' border sets already point into it), with the
/// weaving inputs recomputed as of abort time.
///
/// Returned by [`VersionManager::begin_abort`]; the caller stores a
/// no-op tree for `vw` — snapshot `vw − 1`'s bytes over the assigned
/// range, zero-extended to `new_size` — and then calls
/// [`VersionManager::commit_abort`] so the total order can skip the
/// hole.
#[derive(Clone, Debug)]
pub struct AbortTicket {
    /// The version being aborted.
    pub vw: Version,
    /// Pages the dead update was assigned (the repair tree must create
    /// exactly these leaves).
    pub range: PageRange,
    /// Root position of the dead update's tree.
    pub new_root: NodePos,
    /// Size of snapshot `vw − 1` in bytes.
    pub prev_size: u64,
    /// Size the dead update would have published (repair zero-extends
    /// to it, so later appends keep their assigned offsets).
    pub new_size: u64,
    /// Border overrides recomputed as of abort time. Identical in
    /// effect to what the dead writer was handed at assignment: both
    /// resolve each border position to the newest version `< vw`
    /// creating it — versions only move from in-flight to published,
    /// never disappear (aborted ones leave a repair tree behind).
    pub overrides: Vec<(NodePos, Version)>,
    /// Root of the latest published snapshot (always `< vw`).
    pub ref_root: Option<RootRef>,
    /// Root of snapshot `vw − 1` (possibly still in flight).
    pub prev_root: Option<RootRef>,
}

/// One blob's slice of the orphan scrubber's **mark cut**, captured
/// atomically under that blob's lock by [`VersionManager::scrub_cut`]:
/// everything the mark phase needs to enumerate the blob's live pages.
///
/// * [`BlobScrubCut::roots`] — trees the frontier has passed. These are
///   guaranteed complete (published versions by construction; aborted
///   versions only pass the frontier after their repair committed), so
///   the mark walks them with non-blocking fetches.
/// * [`BlobScrubCut::inflight`] — assigned-but-unpublished updates, in
///   *any* state (active, completed-waiting, aborting, aborted-but-
///   blocked). Their trees may be arbitrarily incomplete; the scrubber
///   probes each update's leaf positions directly and marks whatever
///   landed, because a durable leaf's page is referenced forever
///   (repair fills gaps, never overwrites).
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
    /// The blob's retire generation at capture time
    /// ([`VersionManager::retire_generation`]). A marker that hits
    /// missing metadata compares this against the current generation:
    /// changed means a concurrent `retire_versions` swept nodes from
    /// under the walk — re-cut **this blob** and restart its mark;
    /// unchanged means genuinely incomplete metadata, a hard conflict.
    pub retire_gen: u64,
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
    /// Read-view resolutions served ([`VersionManager::read_view`] +
    /// [`VersionManager::snapshot_view`]). Version-pinned `Snapshot`
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
    /// check ([`VersionManager::has_expired_leases`] and friends) be a
    /// single atomic load while every lease is within TTL.
    lease_watermark: AtomicU64,
    /// Versions currently stuck in `Aborting` (a begun-but-uncommitted
    /// abort): sweep work that must stay visible regardless of the
    /// watermark.
    aborting: AtomicU64,
    blobs: BlobShards,
    next_blob: AtomicU64,
    assigned: AtomicU64,
    published: AtomicU64,
    branches: AtomicU64,
    read_views: AtomicU64,
    aborted: AtomicU64,
    renewals: AtomicU64,
    lockfree_reads: AtomicU64,
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
            assigned: AtomicU64::new(0),
            published: AtomicU64::new(0),
            branches: AtomicU64::new(0),
            read_views: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            renewals: AtomicU64::new(0),
            lockfree_reads: AtomicU64::new(0),
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
        if parent.is_retired(at) {
            return Err(BlobError::VersionRetired { blob, version: at });
        }
        let child_id = BlobId(self.next_blob.fetch_add(1, Ordering::Relaxed));
        let lineage = Lineage::branch(&parent.lineage, at, child_id);
        let child = BlobInner::branched(&parent, at, lineage);
        parent.child_branch_points.push(at);
        drop(parent);
        self.blobs.insert(child_id, Arc::new(BlobState::new(child, self.psize)));
        self.branches.fetch_add(1, Ordering::Relaxed);
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

        let vw = Version(inner.sizes.len() as u64);
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
            Inflight { range, root: new_root, state: UpdateState::Active, lease_expires },
        );
        self.lease_watermark.fetch_min(lease_expires, Ordering::Relaxed);
        self.assigned.fetch_add(1, Ordering::Relaxed);

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
            self.published.fetch_add(published as u64, Ordering::Relaxed);
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
                    self.renewals.fetch_add(1, Ordering::Relaxed);
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

    /// `true` when some writer's lease may have lapsed (or an earlier
    /// abort is stuck mid-repair and wants a retry). One atomic load
    /// in the common all-leases-fresh case — safe to call per
    /// operation; the engine's sweeper gates on it.
    pub fn has_expired_leases(&self) -> bool {
        if self.aborting.load(Ordering::Relaxed) > 0 {
            return true;
        }
        if self.now_ticks() < self.lease_watermark.load(Ordering::Relaxed) {
            return false;
        }
        !self.scan_expired().is_empty()
    }

    /// The single-blob form of [`VersionManager::has_expired_leases`],
    /// restricted to versions strictly below `v` — what a completion
    /// stage asks before its boundary merge ("is anything I might
    /// block on dead?"). Same one-atomic fast path; the slow path
    /// locks only this blob.
    pub fn has_expired_below(&self, blob: BlobId, v: Version) -> Result<bool> {
        if self.aborting.load(Ordering::Relaxed) == 0
            && self.now_ticks() < self.lease_watermark.load(Ordering::Relaxed)
        {
            return Ok(false);
        }
        let state = self.blob_state(blob)?;
        let now = self.now_ticks();
        let inner = state.inner.lock();
        Ok(!inner.expired_leases(now, Some(v)).is_empty())
    }

    /// Every `(blob, version)` whose lease has lapsed as of the current
    /// clock, plus any version stuck in a failed abort. Sorted, and
    /// ascending per blob — aborts must run lowest-version-first so a
    /// repair only ever waits on strictly lower versions.
    pub fn expired_leases(&self) -> Vec<(BlobId, Version)> {
        self.scan_expired()
    }

    /// The single-blob list behind [`VersionManager::has_expired_below`]:
    /// expired (or abort-stuck) versions of `blob` strictly below `v`,
    /// ascending. Locks only this blob.
    pub fn expired_leases_below(&self, blob: BlobId, v: Version) -> Result<Vec<Version>> {
        let state = self.blob_state(blob)?;
        let now = self.now_ticks();
        let inner = state.inner.lock();
        Ok(inner.expired_leases(now, Some(v)))
    }

    /// Full scan behind the expiry checks. When nothing is due, raises
    /// the watermark to the earliest live expiry — but never above
    /// `now + ttl` (a lease granted mid-scan on an already-visited
    /// blob expires no earlier than that) and only if no concurrent
    /// `assign` lowered it meanwhile (the CAS); a lost race leaves the
    /// watermark stale-low, which costs a spurious scan, never a
    /// missed expiry.
    fn scan_expired(&self) -> Vec<(BlobId, Version)> {
        let wm_before = self.lease_watermark.load(Ordering::Relaxed);
        let now = self.now_ticks();
        let blobs = self.blobs.all();
        let mut out = Vec::new();
        let mut earliest = u64::MAX;
        for (id, state) in blobs {
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
    /// [`BlobError::VersionAborted`]) and return the [`AbortTicket`]
    /// describing the repair tree the caller must store before
    /// [`VersionManager::commit_abort`]. Idempotent over a failed
    /// repair (state `Aborting` re-issues the ticket); refuses —
    /// typed, with nothing changed — once the version completed,
    /// published, or fully aborted.
    pub fn begin_abort(&self, blob: BlobId, v: Version) -> Result<AbortTicket> {
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
        Ok(AbortTicket {
            vw: v,
            range: inf.range,
            new_root: inf.root,
            prev_size: inner.size_of(prev),
            new_size: inner.size_of(v),
            overrides,
            ref_root: inner.root_of(inner.published, self.psize),
            prev_root: inner.root_of(prev, self.psize),
        })
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
        self.aborted.fetch_add(1, Ordering::Relaxed);
        self.aborting.fetch_sub(1, Ordering::Relaxed);
        let (published, skipped) = inner.drain_publishable();
        if published > 0 {
            self.published.fetch_add(published as u64, Ordering::Relaxed);
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
        self.lockfree_reads.fetch_add(1, Ordering::Relaxed);
        Ok(Version(words[0]))
    }

    /// `true` when `v` is published for `blob` (aborted versions are
    /// never published — the order skips them).
    pub fn is_published(&self, blob: BlobId, v: Version) -> Result<bool> {
        let state = self.blob_state(blob)?;
        let inner = state.inner.lock();
        Ok(v <= inner.published && !inner.is_aborted(v))
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
        if inner.is_retired(v) {
            return Err(BlobError::VersionRetired { blob, version: v });
        }
        Ok(inner.size_of(v))
    }

    /// Everything a READ needs: the snapshot size and tree root of a
    /// published version (`None` root for the empty snapshot 0).
    pub fn read_view(&self, blob: BlobId, v: Version) -> Result<(u64, Option<RootRef>)> {
        let view = self.snapshot_view(blob, v)?;
        Ok((view.size, view.root))
    }

    /// [`VersionManager::read_view`] plus the blob's lineage. This is
    /// the one-time lookup a version-pinned `Snapshot` caches; all
    /// subsequent reads of that snapshot are VM-free.
    ///
    /// When `v` is the blob's current readable frontier — the hot case:
    /// open-latest traffic hammering one blob — the view is served
    /// wait-free from the seqlock cell without touching the blob mutex
    /// ([`VmStats::lockfree_reads`] counts exactly these). Other
    /// versions resolve under a single acquisition of the blob's lock,
    /// as before.
    pub fn snapshot_view(&self, blob: BlobId, v: Version) -> Result<ReadView> {
        self.read_views.fetch_add(1, Ordering::Relaxed);
        let state = self.blob_state(blob)?;
        let (words, _) = state.hot.read();
        if words[0] == v.raw() {
            // The triple was the readable frontier at publication time
            // and snapshots are immutable, so it is valid for `v`
            // forever; the read linearizes at the seqlock load.
            self.lockfree_reads.fetch_add(1, Ordering::Relaxed);
            return Ok(Self::view_from_words(&state, words));
        }
        let inner = state.inner.lock();
        if inner.is_aborted(v) {
            return Err(BlobError::VersionAborted { blob, version: v });
        }
        if v > inner.published {
            return Err(BlobError::VersionNotPublished { blob, version: v });
        }
        if inner.is_retired(v) {
            return Err(BlobError::VersionRetired { blob, version: v });
        }
        Ok(ReadView {
            size: inner.size_of(v),
            root: inner.root_of(v, self.psize),
            lineage: inner.lineage.clone(),
        })
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
        self.read_views.fetch_add(1, Ordering::Relaxed);
        let state = self.blob_state(blob)?;
        let (words, _) = state.hot.read();
        self.lockfree_reads.fetch_add(1, Ordering::Relaxed);
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
        // Advance the conflict token only when something actually
        // retires: no-op retires cannot have swept anything, so they
        // must not make a concurrent scrub restart its mark.
        inner.retire_gen += 1;
        // Retiring up to a trailing aborted hole can *regress* the
        // readable frontier (down to v0 in the degenerate case) — the
        // hot triple must follow it, so racing readers get the typed
        // retired/readable split, never a stale root.
        self.republish(blob, &state, &inner);
        let roots = (keep_from.raw()..=inner.published.raw())
            .filter_map(|v| inner.root_of(Version(v), self.psize))
            .collect();
        Ok(roots)
    }

    /// The orphan scrubber's **metadata cut**: for every registered
    /// blob, the retained roots to mark and the in-flight updates to
    /// probe (see [`BlobScrubCut`]). Each blob's slice is captured
    /// atomically under its own lock; the cut is *not* atomic across
    /// blobs, which is sound because anything assigned after a blob's
    /// slice was taken stores its pages at or above the scrubber's
    /// page-id epoch and is exempt from the sweep (the engine takes
    /// the epoch **before** calling this).
    pub fn scrub_cut(&self) -> Vec<BlobScrubCut> {
        let mut cuts: Vec<BlobScrubCut> =
            self.blobs.all().into_iter().map(|(id, state)| self.cut_of(id, &state)).collect();
        cuts.sort_by_key(|c| c.blob.raw());
        cuts
    }

    /// One blob's slice of the mark cut, captured under its lock —
    /// identical to its entry in [`VersionManager::scrub_cut`]. This is
    /// the per-blob *restart* path: a marker that detected a retire
    /// race (see [`BlobScrubCut::retire_gen`]) re-cuts just the
    /// affected blob and walks again, leaving every other blob's
    /// already-completed mark untouched.
    pub fn scrub_cut_for(&self, blob: BlobId) -> Result<BlobScrubCut> {
        let state = self.blob_state(blob)?;
        Ok(self.cut_of(blob, &state))
    }

    /// The blob's current retire generation (bumped by every retire
    /// that actually reclaimed versions).
    pub fn retire_generation(&self, blob: BlobId) -> Result<u64> {
        Ok(self.blob_state(blob)?.inner.lock().retire_gen)
    }

    fn cut_of(&self, id: BlobId, state: &BlobState) -> BlobScrubCut {
        let inner = state.inner.lock();
        // Versions below `retired_before` were reclaimed; v0 is
        // empty. Aborted versions the frontier passed keep
        // their (complete) repair trees and are marked too.
        let first = inner.retired_before.raw().max(1);
        let roots = (first..=inner.published.raw())
            .filter_map(|v| inner.root_of(Version(v), self.psize))
            .collect();
        let inflight = inner.inflight.iter().map(|(&v, inf)| (Version(v), inf.range)).collect();
        BlobScrubCut {
            blob: id,
            lineage: inner.lineage.clone(),
            roots,
            inflight,
            retire_gen: inner.retire_gen,
        }
    }

    /// The earliest readable version of `blob` (`v0` when nothing has
    /// been retired).
    pub fn retired_before(&self, blob: BlobId) -> Result<Version> {
        Ok(self.blob_state(blob)?.inner.lock().retired_before)
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
            assigned: self.assigned.load(Ordering::Relaxed),
            published: self.published.load(Ordering::Relaxed),
            branches: self.branches.load(Ordering::Relaxed),
            read_views: self.read_views.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
            lease_renewals: self.renewals.load(Ordering::Relaxed),
            lockfree_reads: self.lockfree_reads.load(Ordering::Relaxed),
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

/// The partial border set of an update of `range` under `root` (paper
/// §4.2): for each border position, the highest version below `below`
/// in `inflight` whose update creates a node there. Aborted holes count
/// — their repair trees create those nodes. One ascending pass over
/// `inflight`, each entry tested against the update's borders level by
/// level, so the last match is the highest; nothing is allocated but
/// the result. Ordered like `border_positions`: top-down, left first.
fn inflight_overrides(
    inflight: &BTreeMap<u64, Inflight>,
    below: Version,
    range: PageRange,
    root: NodePos,
) -> Vec<(NodePos, Version)> {
    let (first, last) = (range.first, range.end() - 1);
    let levels = root.level();
    // `best[level][side]`: the raw creator version, 0 for none —
    // snapshot 0 is never in flight.
    let mut best = [[0u64; 2]; u64::BITS as usize];
    for (&vk, inf) in inflight.range(..below.raw()) {
        for level in 0..levels {
            let borders = borders_at_level(first, last, level);
            for (slot, border) in best[level as usize].iter_mut().zip(borders) {
                if border.is_some_and(|pos| creates_position(inf.range, inf.root, pos)) {
                    *slot = vk;
                }
            }
        }
    }
    let mut out = Vec::new();
    for level in (0..levels).rev() {
        let borders = borders_at_level(first, last, level);
        for (border, &vk) in borders.into_iter().zip(&best[level as usize]) {
            if let Some(pos) = border.filter(|_| vk > 0) {
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
        let (size, root) = vm.read_view(b, Version::ZERO).unwrap();
        assert_eq!(size, 0);
        assert!(root.is_none());
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
        assert_eq!(a1.new_root, NodePos::new(0, 2));
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
        // C1: v2 appends pages [4,6); stays in flight.
        let a2 = vm.assign(b, UpdateKind::Append { size: 8 }).unwrap();
        assert_eq!(a2.range, PageRange::new(4, 2));
        assert!(a2.overrides.is_empty(), "borders all come from published v1");
        // C2: v3 appends pages [6,8); its border (4,2) is created by v2.
        let a3 = vm.assign(b, UpdateKind::Append { size: 8 }).unwrap();
        assert_eq!(a3.range, PageRange::new(6, 2));
        assert_eq!(a3.overrides, vec![(NodePos::new(4, 2), Version(2))]);
        assert_eq!(a3.ref_root.unwrap().version, Version(1));
    }

    #[test]
    fn overrides_pick_highest_inflight_version() {
        let vm = vm();
        let b = vm.create();
        let a1 = vm.assign(b, UpdateKind::Append { size: 16 }).unwrap();
        vm.complete(b, a1.vw).unwrap();
        // Two in-flight overwrites of page 0; a third writer of page 2
        // needs border (0,2) → must take the *newest* in-flight creator.
        vm.assign(b, UpdateKind::Write { offset: 0, size: 4 }).unwrap(); // v2
        vm.assign(b, UpdateKind::Write { offset: 0, size: 4 }).unwrap(); // v3
        let a4 = vm.assign(b, UpdateKind::Write { offset: 8, size: 4 }).unwrap(); // v4
        assert!(a4.overrides.contains(&(NodePos::new(0, 2), Version(3))));
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
        assert_eq!(vm.retired_before(b).unwrap(), Version(3));
        assert!(matches!(vm.get_size(b, Version(2)), Err(BlobError::VersionRetired { .. })));
        assert!(matches!(vm.read_view(b, Version(1)), Err(BlobError::VersionRetired { .. })));
        assert!(vm.get_size(b, Version(3)).is_ok());
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
        vm.read_view(b, a1.vw).unwrap();
        vm.snapshot_view(b, a1.vw).unwrap();
        vm.get_size(b, a1.vw).unwrap();
        vm.get_recent(b).unwrap();
        assert_eq!(vm.stats().read_views, before + 2);
    }

    /// Drive a full abort at the VM level (the engine layers the repair
    /// tree build between the two calls).
    fn abort(vm: &VersionManager, b: BlobId, v: Version) -> AbortTicket {
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
        assert!(!vm.has_expired_leases());
        assert!(vm.expired_leases().is_empty());
        vm.advance_clock(9);
        assert!(!vm.has_expired_leases(), "TTL not yet reached");
        vm.advance_clock(1);
        assert!(vm.has_expired_leases());
        assert_eq!(vm.expired_leases(), vec![(b, a1.vw)]);
        // Renewal revives an expired-but-unaborted lease.
        vm.renew_lease(b, a1.vw).unwrap();
        assert!(!vm.has_expired_leases());
        assert_eq!(vm.stats().lease_renewals, 1);
        // Completion retires the lease entirely.
        vm.complete(b, a1.vw).unwrap();
        vm.advance_clock(1_000);
        assert!(!vm.has_expired_leases());
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
        assert!(vm.is_published(b, Version(3)).unwrap());
        // The hole is typed everywhere.
        assert!(!vm.is_published(b, Version(2)).unwrap());
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
        // A failed repair leaves the version retryable.
        assert!(vm.has_expired_leases(), "Aborting state always wants a retry");
        let ticket = vm.begin_abort(b, a1.vw).unwrap();
        assert_eq!(ticket.vw, a1.vw);
        vm.commit_abort(b, a1.vw).unwrap();
        assert!(!vm.has_expired_leases());
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
        let _a2 = vm.assign(b, UpdateKind::Append { size: 8 }).unwrap(); // pages [4,6)
        let a3 = vm.assign(b, UpdateKind::Append { size: 8 }).unwrap(); // pages [6,8), dies
        let ticket = vm.begin_abort(b, a3.vw).unwrap();
        assert_eq!(ticket.overrides, vec![(NodePos::new(4, 2), Version(2))]);
        assert_eq!(ticket.ref_root.unwrap().version, Version(1));
        assert_eq!(ticket.prev_root.unwrap().version, Version(2));
        vm.commit_abort(b, a3.vw).unwrap();
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
        assert!(!vm.has_expired_leases(), "no leases, nothing expires");
        let a1 = vm.assign(b, UpdateKind::Append { size: 4 }).unwrap();
        // A scan before the TTL raises the stale-low watermark...
        assert!(!vm.has_expired_leases());
        assert!(!vm.has_expired_below(b, Version(9)).unwrap());
        // ...but expiry is still detected exactly at the TTL.
        vm.advance_clock(20);
        assert!(vm.has_expired_leases());
        assert!(vm.has_expired_below(b, Version(9)).unwrap());
        assert!(!vm.has_expired_below(b, a1.vw).unwrap(), "strictly-below filter");
        // A stuck abort stays visible regardless of the watermark.
        vm.begin_abort(b, a1.vw).unwrap();
        assert!(vm.has_expired_leases());
        vm.commit_abort(b, a1.vw).unwrap();
        assert!(!vm.has_expired_leases());
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
    fn retire_generation_advances_only_on_real_retires() {
        let vm = vm();
        let b = vm.create();
        assert_eq!(vm.retire_generation(b).unwrap(), 0);
        let a1 = vm.assign(b, UpdateKind::Append { size: 8 }).unwrap();
        vm.complete(b, a1.vw).unwrap();
        let a2 = vm.assign(b, UpdateKind::Append { size: 8 }).unwrap();
        vm.complete(b, a2.vw).unwrap();
        // A retire that advances the boundary bumps the token …
        vm.begin_retire(b, Version(2)).unwrap();
        assert_eq!(vm.retire_generation(b).unwrap(), 1);
        // … and no-op retires (repeat, or below the boundary) do not:
        // they swept nothing, so no concurrent mark needs restarting.
        vm.begin_retire(b, Version(2)).unwrap();
        vm.begin_retire(b, Version(1)).unwrap();
        assert_eq!(vm.retire_generation(b).unwrap(), 1);
        let cut = vm.scrub_cut_for(b).unwrap();
        assert_eq!(cut.retire_gen, 1);
        assert_eq!(cut.blob, b);
        // The per-blob cut matches the blob's slice of the global cut.
        let global = vm.scrub_cut();
        let slice = global.iter().find(|c| c.blob == b).unwrap();
        assert_eq!(
            (slice.retire_gen, &slice.roots, &slice.inflight),
            (cut.retire_gen, &cut.roots, &cut.inflight)
        );
        // Other blobs are unaffected; unknown blobs are typed errors.
        let b2 = vm.create();
        assert_eq!(vm.retire_generation(b2).unwrap(), 0);
        assert!(vm.scrub_cut_for(BlobId(999)).is_err());
        assert!(vm.retire_generation(BlobId(999)).is_err());
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
