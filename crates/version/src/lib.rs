//! The version manager — "the key actor of the system" (paper §3.1).
//!
//! The version manager (VM):
//!
//! * assigns snapshot version numbers to WRITE/APPEND requests, fixing
//!   the per-blob **total order** of updates (§2);
//! * **publishes** versions strictly in order once their metadata is
//!   complete, which is what makes every operation atomic (§4.3: "it is
//!   up to the version manager to decide when their effects will be
//!   revealed ... The only synchronization occurs at the level of the
//!   version manager");
//! * supplies each writer with the **partial border set**: the tree
//!   positions that concurrent, lower-versioned, still-unpublished
//!   updates will create (§4.2). This is the trick that lets metadata
//!   builds proceed in parallel instead of serializing version by
//!   version — and it is computable without touching the DHT because
//!   the set of positions an update creates is a pure function of its
//!   range and root (see [`blobseer_meta::plan::creates_position`]);
//! * tracks per-version snapshot sizes (`GET_SIZE`), recent published
//!   versions (`GET_RECENT`), publication waits (`SYNC`) and the
//!   branching registry (`BRANCH`).
//!
//! The VM is centralized, as in the paper ("In our current
//! implementation, atomicity is easy to achieve, as the version manager
//! is centralized"); distribution of the VM is explicitly future work
//! there and is out of scope here too.
//!
//! ## Writer fault tolerance (beyond the paper)
//!
//! The paper defers client failures to future work; this VM does not.
//! Every assignment grants the writer a **lease** measured on a
//! deterministic logical clock ([`VersionManager::renew_lease`],
//! [`VersionManager::advance_clock`]). A writer that dies mid-update
//! stops renewing; once its lease lapses it can be **aborted**
//! ([`VersionManager::begin_abort`] / [`VersionManager::commit_abort`]):
//! the dead writer's own [`AssignedUpdate`], re-run with snapshot
//! `vw − 1`'s bytes as data, stores a no-op *repair tree* in place of
//! the metadata it owed to later versions' border sets, and the total
//! order then **skips the hole**, so every later version publishes.
//! [`VersionManager::expired_leases`] is the one query that finds the
//! writers to abort. Aborted versions are never readable; racing readers get
//! the typed `BlobError::VersionAborted`. See `docs/ARCHITECTURE.md`
//! for the full failure model and the lease state machine.
//!
//! ## Wait-free snapshot publication (beyond the paper)
//!
//! Each blob's hot triple `(latest readable version, size, root span)`
//! is additionally published through a [`SeqLock`] cell, republished
//! under the blob mutex by every frontier-moving operation. The hot
//! read paths — [`VersionManager::get_recent`],
//! [`VersionManager::latest_view`] and the latest-version case of
//! [`VersionManager::snapshot_view`] — resolve entirely from that cell:
//! no blob mutex, [`VmStats::lockfree_reads`] counts the proof. The
//! mutex survives only on the write/assign/abort/retire side. The blob
//! registry itself is sharded by blob id so unrelated blobs do not
//! serialize on one registry lock either. See the seqlock section of
//! `docs/ARCHITECTURE.md` for the protocol and why it is safe against
//! the abort path.

mod manager;
mod seqlock;
mod state;

#[doc(hidden)]
pub use manager::PublishProbe;
pub use manager::{
    AssignedUpdate, BlobScrubCut, ConcurrencyMode, ReadView, UpdateKind, VersionManager, VmStats,
    DEFAULT_LEASE_TTL_TICKS,
};
pub use seqlock::SeqLock;
