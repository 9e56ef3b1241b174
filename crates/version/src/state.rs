//! Per-blob bookkeeping held by the version manager.

use std::collections::{BTreeMap, BTreeSet};

use blobseer_meta::{Lineage, RootRef};
use blobseer_types::{div_ceil, NodePos, PageRange, Version};
use parking_lot::{Condvar, Mutex};

use crate::seqlock::SeqLock;

/// Lifecycle of an assigned-but-unpublished update.
///
/// ```text
///            complete()                    drain (in order)
/// Active ───────────────────▶ Completed ─────────────────▶ published
///    │                                                     (removed)
///    │ lease expiry / explicit abort
///    │ (begin_abort)
///    ▼            repair tree durable
/// Aborting ─────────────────▶ Aborted ────────────────────▶ skipped
///              (commit_abort)              drain (in order) (removed,
///                                                    stays in `aborted`)
/// ```
///
/// Only `Active` versions carry a live lease; a `Completed` update is
/// the version manager's responsibility (the writer did its part) and
/// can never expire or abort.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum UpdateState {
    /// Assigned; the writer holds the lease and is (presumed) working.
    Active,
    /// Metadata fully written; waiting for lower versions to publish.
    Completed,
    /// Lease expired or abort requested; the no-op repair tree that
    /// keeps later versions' border references resolvable is being
    /// built. Retryable: a failed repair leaves the state here.
    Aborting,
    /// Repair durable; the version will be skipped by the next drain.
    Aborted,
}

/// An update that has been assigned a version but not yet published.
/// The VM keeps its range and root so it can compute partial border
/// sets for later concurrent writers (paper §4.2: such operations "have
/// been assigned a version number ... but they have not been published
/// yet"), and so an abort can rebuild the exact node skeleton the dead
/// writer was expected to create.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Inflight {
    pub range: PageRange,
    pub root: NodePos,
    pub state: UpdateState,
    /// Logical-clock tick at which the writer's lease lapses (only
    /// meaningful while `state == Active`).
    pub lease_expires: u64,
    /// Repairs of this `Aborting` version begun and not yet ended: a
    /// sweep retries a stuck abort only while none is running.
    pub repairs: u32,
}

/// Mutable per-blob state, guarded by one mutex per blob so different
/// blobs never contend.
pub(crate) struct BlobInner {
    pub lineage: Lineage,
    /// `sizes[k]` = byte size of snapshot `k`; `sizes.len()-1` is the
    /// latest *assigned* version.
    pub sizes: Vec<u64>,
    /// Latest version the publication frontier has passed. Every
    /// version `≤ published` is either published or aborted (see
    /// [`BlobInner::aborted`]); use [`BlobInner::recent_readable`] for
    /// the newest version a reader may open.
    pub published: Version,
    /// Assigned-but-unpublished updates, keyed by raw version.
    pub inflight: BTreeMap<u64, Inflight>,
    /// Versions skipped by the total order: their writers died (or
    /// aborted) before completing. Never readable; kept forever (same
    /// order as `sizes`) so reads and branches stay typed.
    pub aborted: BTreeSet<u64>,
    /// Versions `1..retired_before` were reclaimed by garbage
    /// collection and are no longer readable.
    pub retired_before: Version,
    /// Fork points of every branch (of any depth) at a version this blob
    /// owns — they pin the shared history against garbage collection.
    pub child_branch_points: Vec<Version>,
}

impl BlobInner {
    pub fn new(lineage: Lineage) -> Self {
        BlobInner {
            lineage,
            sizes: vec![0],
            published: Version::ZERO,
            inflight: BTreeMap::new(),
            aborted: BTreeSet::new(),
            retired_before: Version::ZERO,
            child_branch_points: Vec::new(),
        }
    }

    /// Fork of `parent` at published version `at` for blob `child`.
    pub fn branched(parent: &BlobInner, at: Version, lineage: Lineage) -> Self {
        BlobInner {
            lineage,
            sizes: parent.sizes[..=at.raw() as usize].to_vec(),
            published: at,
            inflight: BTreeMap::new(),
            // Shared history keeps its holes: an aborted version is
            // aborted in every branch that inherits it.
            aborted: parent.aborted.range(..=at.raw()).copied().collect(),
            // The child's shared history is exactly as retired as the
            // parent's was at fork time, and none of its own: a fork at
            // v0 of a blob whose history was retired starts clean.
            retired_before: parent.retired_before.min(Version(at.raw() + 1)),
            child_branch_points: Vec::new(),
        }
    }

    /// `true` when `v` has been garbage-collected.
    pub fn is_retired(&self, v: Version) -> bool {
        v > Version::ZERO && v < self.retired_before
    }

    /// `true` when `v` was aborted (writer died before completion) —
    /// including while its repair is still in progress.
    pub fn is_aborted(&self, v: Version) -> bool {
        self.aborted.contains(&v.raw())
    }

    /// Latest assigned version.
    pub fn last_assigned(&self) -> Version {
        Version(self.sizes.len() as u64 - 1)
    }

    /// Newest version a reader may open: the publication frontier,
    /// walked down past aborted holes *and* retired history (snapshot
    /// 0 is never aborted nor retired, so this always terminates on a
    /// readable version). Retirement matters when the caller retires
    /// up to an aborted hole at the head of the order: the walk then
    /// falls through to the empty snapshot 0 rather than returning a
    /// version that reads as `VersionRetired`.
    pub fn recent_readable(&self) -> Version {
        let mut v = self.published;
        while v > Version::ZERO && (self.is_aborted(v) || self.is_retired(v)) {
            v = Version(v.raw() - 1);
        }
        v
    }

    /// Size in bytes of snapshot `v` (caller validates `v` assigned).
    pub fn size_of(&self, v: Version) -> u64 {
        self.sizes[v.raw() as usize]
    }

    /// Root position of snapshot `v`'s tree.
    pub fn root_pos_of(&self, v: Version, psize: u64) -> NodePos {
        NodePos::root_for(div_ceil(self.size_of(v), psize))
    }

    /// Root reference of snapshot `v`, or `None` when it is empty (the
    /// empty snapshot 0 — and only it — has no tree).
    pub fn root_of(&self, v: Version, psize: u64) -> Option<RootRef> {
        (self.size_of(v) > 0).then(|| RootRef { version: v, pos: self.root_pos_of(v, psize) })
    }

    /// `true` when any lease has lapsed (or an abort is stuck mid
    /// repair and should be retried) as of logical tick `now`. (The
    /// manager's production checks go through [`Self::expired_leases`]
    /// directly; this predicate form serves the unit tests.)
    #[cfg(test)]
    pub fn has_expired(&self, now: u64) -> bool {
        !self.expired_leases(now, None).is_empty()
    }

    /// Versions whose lease has lapsed as of `now` — plus any version
    /// stuck mid-abort with no repair running — ascending, optionally
    /// restricted to versions strictly below `limit`.
    pub fn expired_leases(&self, now: u64, limit: Option<Version>) -> Vec<Version> {
        let upto = limit.map_or(u64::MAX, |v| v.raw());
        self.inflight
            .range(..upto)
            .filter(|(_, inf)| match inf.state {
                UpdateState::Active => inf.lease_expires <= now,
                UpdateState::Aborting => inf.repairs == 0,
                UpdateState::Completed | UpdateState::Aborted => false,
            })
            .map(|(&v, _)| Version(v))
            .collect()
    }

    /// Earliest lease expiry among live (`Active`) updates, or
    /// `u64::MAX` when none is live — the per-blob input to the
    /// version manager's expiry watermark.
    pub fn earliest_expiry(&self) -> u64 {
        self.inflight
            .values()
            .filter(|inf| inf.state == UpdateState::Active)
            .map(|inf| inf.lease_expires)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// The blob's hot triple as seqlock words:
    /// `[latest readable version, its byte size, its root span in
    /// pages]` (span 0 for the empty snapshot, which has no tree).
    /// All three are derivable from the newest readable version, but
    /// they are published as independent words precisely so a torn
    /// observation is *detectable* — the stress suite's oracle matches
    /// whole triples, not reconstructible fields.
    pub fn hot_words(&self, psize: u64) -> [u64; 3] {
        let r = self.recent_readable();
        let size = self.size_of(r);
        let span = if size > 0 { self.root_pos_of(r, psize).size } else { 0 };
        [r.raw(), size, span]
    }

    /// Advance publication past every completed *or aborted* in-order
    /// update. Aborted versions are skipped: the frontier moves over
    /// them, they are dropped from the in-flight table, and they stay
    /// in [`BlobInner::aborted`] forever. Returns how many versions
    /// were `(published, skipped)`.
    pub fn drain_publishable(&mut self) -> (usize, usize) {
        let (mut published, mut skipped) = (0, 0);
        loop {
            let next = self.published.raw() + 1;
            match self.inflight.get(&next) {
                Some(inf) if inf.state == UpdateState::Completed => {
                    self.inflight.remove(&next);
                    self.published = Version(next);
                    published += 1;
                }
                Some(inf) if inf.state == UpdateState::Aborted => {
                    debug_assert!(self.aborted.contains(&next));
                    self.inflight.remove(&next);
                    self.published = Version(next);
                    skipped += 1;
                }
                _ => return (published, skipped),
            }
        }
    }
}

/// A blob's state cell: the inner data plus the condition variable on
/// which `SYNC` callers (and serialized-mode writers) wait for
/// publications, plus the lock-free read-path state — the seqlock-
/// published hot triple and an immutable lineage copy — that hot reads
/// touch without ever taking `inner`.
pub(crate) struct BlobState {
    pub inner: Mutex<BlobInner>,
    pub publish_cv: Condvar,
    /// Seqlock cell holding [`BlobInner::hot_words`]; republished under
    /// `inner`'s lock by every operation that can move the readable
    /// frontier (complete / commit_abort / begin_retire).
    pub hot: SeqLock<3>,
    /// A blob's lineage is fixed at creation (`Lineage::branch` reads
    /// the parent's, never mutates it), so hot readers may clone this
    /// copy without locking `inner`.
    pub lineage: Lineage,
}

impl BlobState {
    pub fn new(inner: BlobInner, psize: u64) -> Self {
        // Construction precedes sharing (the blob-map insert publishes
        // the Arc), so seeding the cell needs no protocol round.
        let hot = SeqLock::new(inner.hot_words(psize));
        let lineage = inner.lineage.clone();
        BlobState { inner: Mutex::new(inner), publish_cv: Condvar::new(), hot, lineage }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer_types::BlobId;

    fn inner() -> BlobInner {
        BlobInner::new(Lineage::root(BlobId(1)))
    }

    fn inflight(range: PageRange, root: NodePos, state: UpdateState) -> Inflight {
        Inflight { range, root, state, lease_expires: u64::MAX, repairs: 0 }
    }

    #[test]
    fn fresh_blob_is_empty_v0() {
        let b = inner();
        assert_eq!(b.last_assigned(), Version::ZERO);
        assert_eq!(b.published, Version::ZERO);
        assert_eq!(b.size_of(Version::ZERO), 0);
        assert!(b.root_of(Version::ZERO, 4).is_none());
        assert!(!b.has_expired(u64::MAX - 1));
    }

    #[test]
    fn drain_respects_order_and_completion() {
        let mut b = inner();
        b.sizes.extend([8, 16, 24]); // v1..v3 assigned
        b.inflight
            .insert(1, inflight(PageRange::new(0, 2), NodePos::new(0, 2), UpdateState::Active));
        b.inflight
            .insert(2, inflight(PageRange::new(2, 2), NodePos::new(0, 4), UpdateState::Completed));
        b.inflight
            .insert(3, inflight(PageRange::new(4, 2), NodePos::new(0, 8), UpdateState::Completed));
        // v1 incomplete: nothing publishes.
        assert_eq!(b.drain_publishable(), (0, 0));
        assert_eq!(b.published, Version(0));
        // Completing v1 releases all three.
        b.inflight.get_mut(&1).unwrap().state = UpdateState::Completed;
        assert_eq!(b.drain_publishable(), (3, 0));
        assert_eq!(b.published, Version(3));
        assert!(b.inflight.is_empty());
    }

    #[test]
    fn drain_skips_aborted_holes() {
        let mut b = inner();
        b.sizes.extend([8, 16, 24]);
        b.inflight
            .insert(1, inflight(PageRange::new(0, 2), NodePos::new(0, 2), UpdateState::Completed));
        b.inflight
            .insert(2, inflight(PageRange::new(2, 2), NodePos::new(0, 4), UpdateState::Aborted));
        b.aborted.insert(2);
        b.inflight
            .insert(3, inflight(PageRange::new(4, 2), NodePos::new(0, 8), UpdateState::Completed));
        assert_eq!(b.drain_publishable(), (2, 1));
        assert_eq!(b.published, Version(3));
        assert!(b.inflight.is_empty());
        assert!(b.is_aborted(Version(2)));
        assert_eq!(b.recent_readable(), Version(3));
    }

    #[test]
    fn drain_stops_at_aborting() {
        // An abort whose repair has not committed is not yet skippable.
        let mut b = inner();
        b.sizes.extend([8, 16]);
        b.inflight
            .insert(1, inflight(PageRange::new(0, 2), NodePos::new(0, 2), UpdateState::Aborting));
        b.aborted.insert(1);
        b.inflight
            .insert(2, inflight(PageRange::new(2, 2), NodePos::new(0, 4), UpdateState::Completed));
        assert_eq!(b.drain_publishable(), (0, 0));
        assert_eq!(b.published, Version(0));
        assert!(b.has_expired(0), "a stuck abort wants a retry");
        b.inflight.get_mut(&1).unwrap().repairs = 1;
        assert!(!b.has_expired(0), "an abort whose repair runs does not");
    }

    #[test]
    fn recent_readable_walks_past_trailing_holes() {
        let mut b = inner();
        b.sizes.extend([8, 16]);
        b.published = Version(2);
        b.aborted.insert(2);
        assert_eq!(b.recent_readable(), Version(1));
        b.aborted.insert(1);
        assert_eq!(b.recent_readable(), Version(0));
    }

    #[test]
    fn lease_expiry_is_per_state() {
        let mut b = inner();
        b.sizes.push(8);
        b.inflight.insert(
            1,
            Inflight {
                range: PageRange::new(0, 2),
                root: NodePos::new(0, 2),
                state: UpdateState::Active,
                lease_expires: 10,
                repairs: 0,
            },
        );
        assert!(!b.has_expired(9));
        assert!(b.has_expired(10));
        b.inflight.get_mut(&1).unwrap().state = UpdateState::Completed;
        assert!(!b.has_expired(u64::MAX - 1), "completed updates never expire");
    }

    #[test]
    fn branched_state_copies_prefix() {
        let mut parent = inner();
        parent.sizes.extend([10, 20, 30]);
        parent.published = Version(3);
        parent.aborted.insert(1);
        parent.aborted.insert(3);
        let lineage = Lineage::branch(&parent.lineage, Version(2), BlobId(2));
        let child = BlobInner::branched(&parent, Version(2), lineage);
        assert_eq!(child.sizes, vec![0, 10, 20]);
        assert_eq!(child.published, Version(2));
        assert_eq!(child.last_assigned(), Version(2));
        // Holes in the shared prefix are inherited; later ones are not.
        assert!(child.is_aborted(Version(1)));
        assert!(!child.is_aborted(Version(3)));
    }

    #[test]
    fn root_positions_track_size() {
        let mut b = inner();
        b.sizes.push(9); // v1: 9 bytes, psize 4 → 3 pages → root (0,4)
        assert_eq!(b.root_pos_of(Version(1), 4), NodePos::new(0, 4));
        let r = b.root_of(Version(1), 4).unwrap();
        assert_eq!(r.version, Version(1));
        assert_eq!(r.pos, NodePos::new(0, 4));
    }
}
