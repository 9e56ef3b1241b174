//! Elastic provider membership: live join, drain and retire.
//!
//! PR 9 makes the provider set a dynamic resource, the way the paper
//! promises ("new data providers may dynamically join and leave the
//! system", §4.3) but the reproduction so far fixed at build time:
//!
//! * [`add_provider`] registers a new provider at the end of the
//!   registry. It is **immediately** eligible: the next allocation may
//!   place primaries on it, and every replica chain that wraps past
//!   the former last position now continues onto it (the repairer
//!   reconciles the handful of wrap-around chains, like any other
//!   membership change).
//! * [`drain_provider`] evacuates a provider and retires it. The
//!   victim first turns **read-only** (stores refuse with the same
//!   typed error as a crash, so the write path's existing failover
//!   re-places in-flight copies with no new protocol), then its live
//!   pages are migrated to the survivors, and only once a scan proves
//!   it empty is it retired — a tombstone that keeps anchoring
//!   registry positions so every chain derivation stays deterministic.
//!
//! # Why a drain is safe under live writers
//!
//! The drain reuses the orphan scrubber's judgment machinery verbatim
//! (`crate::scrub`): the [`Engine::pin_update`] **page-id epoch cut**
//! splits the victim's pages into *judged* (below the epoch: the mark
//! walk over the per-blob VM cut decides live-or-orphan with the
//! scrubber's exactness guarantee) and *unjudged* (at or above the
//! epoch: some in-flight update may still reference them). Each round
//! migrates the judged-live pages (fill survivors first, delete from
//! the victim second — the page is never below full replication),
//! deletes the judged-dead ones (exactly what a scrub pass would do),
//! and defers the unjudged remainder. Because the victim is
//! read-only, only operations already in flight at drain start can
//! still land pages on it; as their pins drop, the epoch advances and
//! the unjudged set shrinks to nothing. A deployment whose writers
//! never quiesce within the engine's wait budget fails **typed**
//! ([`BlobError::DrainConflict`]) with the victim returned to service
//! — never silently under-migrated.
//!
//! Concurrent `retire_versions` is absorbed the same way the scrubber
//! absorbs it: per-blob re-cut on a moved retire generation, typed
//! conflict when the generation did not move (see
//! `crate::scrub`'s restart discipline).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use blobseer_meta::NodeKey;
use blobseer_provider::{DataProvider, PageStore};
use blobseer_types::{BlobError, PageId, ProviderId, Result};

use crate::engine::Engine;
use crate::scrub::mark_one_blob;

/// What a completed [`crate::BlobSeer::drain_provider`] did. All
/// counters are for this drain only; the lifetime aggregates live in
/// `metrics_text()` (`blobseer_drain_*`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainReport {
    /// The provider that was drained and retired.
    pub provider: ProviderId,
    /// Live pages evacuated off the provider (deleted there after the
    /// survivors held a verified copy).
    pub pages_evacuated: usize,
    /// Payload bytes those evacuated pages freed on the provider.
    pub bytes_evacuated: u64,
    /// Copies written onto survivors to bring migrated pages to full
    /// replication (pages whose survivor chain was already complete
    /// needed none).
    pub copies_filled: u64,
    /// Payload bytes those fills carried.
    pub bytes_copied: u64,
    /// Fill attempts that failed at their target (offline survivor);
    /// the page still migrated if at least one survivor copy verified.
    pub copies_failed: u64,
    /// Pages on the victim judged dead by the scrub-cut rules and
    /// reclaimed in place (a drain doubles as a scrub of its victim).
    pub orphans_reclaimed: u64,
    /// Payload bytes those orphans freed.
    pub orphan_bytes: u64,
    /// Mark/scan/migrate rounds until a scan proved the victim empty.
    pub rounds: usize,
    /// Per-blob mark restarts absorbed (concurrent `retire_versions`);
    /// same mechanism as [`crate::ScrubReport::mark_restarts`].
    pub mark_restarts: u64,
}

impl DrainReport {
    fn new(provider: ProviderId) -> Self {
        DrainReport {
            provider,
            pages_evacuated: 0,
            bytes_evacuated: 0,
            copies_filled: 0,
            bytes_copied: 0,
            copies_failed: 0,
            orphans_reclaimed: 0,
            orphan_bytes: 0,
            rounds: 0,
            mark_restarts: 0,
        }
    }
}

/// Register a new provider over `store`; see module docs.
pub(crate) fn add_provider(engine: &Arc<Engine>, store: Arc<dyn PageStore>) -> ProviderId {
    engine.providers.add_provider(store)
}

/// Drain `id` and retire it; see module docs for the safety argument.
pub(crate) fn drain_provider(engine: &Arc<Engine>, id: ProviderId) -> Result<DrainReport> {
    let victim = engine.providers.provider(id)?;
    if victim.is_retired() {
        return Err(BlobError::DrainConflict(format!("{id} is already retired")));
    }
    if victim.is_draining() {
        return Err(BlobError::DrainConflict(format!("{id} is already being drained")));
    }
    if !victim.is_available() {
        return Err(BlobError::DrainConflict(format!(
            "{id} is offline; recover it (or repair around it) before draining"
        )));
    }
    let counts = engine.providers.membership();
    if counts.active < 2 {
        return Err(BlobError::DrainConflict(format!(
            "no survivor to migrate to: {} active provider(s) including {id}",
            counts.active
        )));
    }

    // Read-only from here: every new store to the victim fails over to
    // a survivor, so the victim's page set only shrinks.
    victim.begin_drain();
    match drain_rounds(engine, &victim) {
        Ok(report) => {
            victim.retire();
            Ok(report)
        }
        Err(e) => {
            // Nothing was migrated-then-lost: copies placed on
            // survivors are at worst strays the repairer trims once
            // the chain verifies. Return the victim to service.
            victim.end_drain();
            Err(e)
        }
    }
}

/// Mark/scan/migrate rounds until a scan proves the victim empty.
fn drain_rounds(engine: &Arc<Engine>, victim: &Arc<DataProvider>) -> Result<DrainReport> {
    let mut report = DrainReport::new(victim.id());
    let deadline = Instant::now() + engine.wait_timeout();
    let replication = engine.config.replication;
    loop {
        report.rounds += 1;

        // ── Mark: the scrubber's judgment — epoch cut, then the live
        // set with leaf-named primaries (shared walk with the
        // repairer), per-blob restart on a retire race.
        let mark_timer = engine.metrics.timer();
        let epoch = engine.scrub_pid_epoch();
        let (expected, restarts) = mark_expected(engine)?;
        report.mark_restarts += restarts;
        let held = victim
            .scan_pages()
            .map_err(|e| BlobError::DrainConflict(format!("victim went offline mid-drain: {e}")))?;
        crate::metrics::EngineMetrics::record(mark_timer, &engine.metrics.drain_mark_latency);
        if held.is_empty() {
            return Ok(report);
        }

        // ── Migrate/reclaim the judged pages; defer the unjudged.
        let copy_timer = engine.metrics.timer();
        let mut deferred = 0usize;
        for (pid, _) in held {
            if pid >= epoch {
                // Some in-flight update may still reference this page;
                // its pin will drop and a later round judges it.
                deferred += 1;
                continue;
            }
            match expected.get(&pid) {
                // Below the epoch and unmarked: dead by the scrubber's
                // exactness argument. Reclaim in place.
                None => {
                    if let Ok(Some(bytes)) = victim.delete_page(pid) {
                        report.orphans_reclaimed += 1;
                        report.orphan_bytes += bytes;
                    }
                }
                Some(&primary) => {
                    migrate_one(engine, victim, pid, primary, replication, &mut report)?
                }
            }
        }
        crate::metrics::EngineMetrics::record(copy_timer, &engine.metrics.drain_copy_latency);

        if Instant::now() >= deadline {
            return Err(BlobError::DrainConflict(format!(
                "{deferred} page(s) still unjudged (in-flight updates) at the drain deadline; \
                 quiesce or retry"
            )));
        }
        if deferred > 0 {
            // Waiting on writers to publish and drop their pins.
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
}

/// The repairer's mark phase, failing typed for the drain: live pages
/// with their leaf-named primary, under per-blob retire-race restarts.
fn mark_expected(engine: &Arc<Engine>) -> Result<(HashMap<PageId, ProviderId>, u64)> {
    let cuts = engine.vm.scrub_cut();
    let mut visited: HashSet<NodeKey> = HashSet::new();
    let mut expected: HashMap<PageId, ProviderId> = HashMap::new();
    let mut restarts = 0u64;
    for mut cut in cuts {
        loop {
            let mut scratch_visited = visited.clone();
            let mut scratch_pages: HashMap<PageId, ProviderId> = HashMap::new();
            let mut on_leaf = |pid: PageId, provider: ProviderId| {
                scratch_pages.insert(pid, provider);
            };
            match mark_one_blob(engine, &cut, &mut scratch_visited, &mut on_leaf) {
                Ok(()) => {
                    visited = scratch_visited;
                    expected.extend(scratch_pages);
                    break;
                }
                Err(conflict) => {
                    let gen = engine.vm.retire_generation(cut.blob).unwrap_or(cut.retire_gen);
                    if gen == cut.retire_gen {
                        // The tree is inconsistent for a reason other
                        // than a retire that already finished: do not
                        // guess at liveness.
                        return Err(BlobError::DrainConflict(format!(
                            "mark could not assemble a live set for {:?}: {conflict}",
                            cut.blob
                        )));
                    }
                    restarts += 1;
                    cut = engine.vm.scrub_cut_for(cut.blob)?;
                }
            }
        }
    }
    Ok((expected, restarts))
}

/// Migrate one judged-live page off the victim: source a verified
/// copy, fill the post-retirement chain on the survivors (never
/// overwriting a verifying copy — the repairer's discipline), and only
/// then delete the victim's copy. The source is fetched whole-page
/// verified and re-placed as the sealed value it is, client sums
/// included — migration never re-hashes a payload.
fn migrate_one(
    engine: &Arc<Engine>,
    victim: &Arc<DataProvider>,
    pid: PageId,
    primary: ProviderId,
    replication: usize,
    report: &mut DrainReport,
) -> Result<()> {
    // Where the copies must live once the victim is gone.
    let targets = engine.providers.chain_after_retire(primary, replication, victim.id())?;

    // Source: the victim's own copy when it verifies; otherwise any
    // verifying copy anywhere (chain first, then the failover
    // sequence) — a victim with a rotted copy does not block the
    // drain as long as some replica still has the page.
    let mut source = victim.fetch_page(pid).ok();
    if source.is_none() {
        let mut order = targets.clone();
        for id in engine.providers.fallbacks_of(primary, 1)? {
            if !order.contains(&id) {
                order.push(id);
            }
        }
        for id in order {
            if id == victim.id() {
                continue;
            }
            if let Ok(data) = engine.providers.provider(id).and_then(|p| p.fetch_page(pid)) {
                source = Some(data);
                break;
            }
        }
    }
    let Some(data) = source else {
        return Err(BlobError::DrainConflict(format!(
            "no verifying copy of {pid:?} anywhere; run repair_replicas or recover a provider, \
             then rerun the drain"
        )));
    };

    // Fill every target slot that is empty or corrupt; count how many
    // survivors end up holding a verified copy.
    let mut survivor_copies = 0u64;
    for &target in &targets {
        let Ok(p) = engine.providers.provider(target) else { continue };
        match p.fetch_page(pid) {
            Ok(_) => survivor_copies += 1, // verifying copy already in place
            Err(_) => match p.store_repaired_page(pid, data.clone()) {
                Ok(()) => {
                    survivor_copies += 1;
                    report.copies_filled += 1;
                    report.bytes_copied += data.len() as u64;
                    engine.metrics.pages_migrated.increment();
                    engine.metrics.bytes_migrated.add(data.len() as u64);
                }
                Err(_) => report.copies_failed += 1,
            },
        }
    }
    if survivor_copies == 0 {
        return Err(BlobError::DrainConflict(format!(
            "no survivor holds or accepted a copy of {pid:?}; the page stays on the provider"
        )));
    }

    // The survivors hold it; now — and only now — evacuate.
    if let Ok(Some(bytes)) = victim.delete_page(pid) {
        report.pages_evacuated += 1;
        report.bytes_evacuated += bytes;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::BlobSeer;

    fn store() -> BlobSeer {
        Builder::new()
            .page_size(16)
            .data_providers(3)
            .metadata_providers(2)
            .io_threads(2)
            .pipeline_threads(2)
            .replication(2)
            .build()
            .unwrap()
    }

    /// A stale cut whose blob has since retired versions re-cuts and
    /// restarts exactly once per blob (the scrubber's discipline).
    #[test]
    fn mark_restarts_when_retire_moved_the_generation() {
        let s = store();
        let blob = s.create();
        for i in 0..4u8 {
            blob.append(&[i; 64]).unwrap();
        }
        // Cut taken *before* the retire: its roots include versions
        // whose nodes retire_versions is about to sweep.
        let stale = s.engine.vm.scrub_cut();
        let keep = blob.recent_version().unwrap();
        s.retire_versions(blob.id(), keep).unwrap();

        let mut visited: HashSet<NodeKey> = HashSet::new();
        let mut restarts = 0u64;
        for mut cut in stale {
            loop {
                let mut scratch = visited.clone();
                match mark_one_blob(&s.engine, &cut, &mut scratch, &mut |_, _| {}) {
                    Ok(()) => {
                        visited = scratch;
                        break;
                    }
                    Err(_) => {
                        let gen = s.engine.vm.retire_generation(cut.blob).unwrap_or(cut.retire_gen);
                        assert_ne!(gen, cut.retire_gen, "generation must have moved");
                        restarts += 1;
                        cut = s.engine.vm.scrub_cut_for(cut.blob).unwrap();
                    }
                }
            }
        }
        assert_eq!(restarts, 1, "one re-cut absorbs the retire");
        // The fresh cut marks cleanly end-to-end.
        let (expected, more) = mark_expected(&s.engine).unwrap();
        assert_eq!(more, 0);
        assert!(!expected.is_empty());
    }

    /// A mark conflict whose blob generation did **not** move is a
    /// typed drain failure, not a guess: simulate the unmoved-gen race
    /// by handing the marker a cut that references swept roots under
    /// the *current* generation.
    #[test]
    fn unmoved_generation_conflict_fails_typed() {
        let s = store();
        let blob = s.create();
        for i in 0..4u8 {
            blob.append(&[i; 64]).unwrap();
        }
        let mut stale = s.engine.vm.scrub_cut();
        let keep = blob.recent_version().unwrap();
        s.retire_versions(blob.id(), keep).unwrap();
        // Forge the generation forward so the restart check concludes
        // "nothing moved" while the stale roots point at swept nodes.
        for cut in &mut stale {
            cut.retire_gen = s.engine.vm.retire_generation(cut.blob).unwrap();
        }
        let mut hit_conflict = false;
        for cut in stale {
            let mut visited: HashSet<NodeKey> = HashSet::new();
            if let Err(conflict) = mark_one_blob(&s.engine, &cut, &mut visited, &mut |_, _| {}) {
                hit_conflict = true;
                let gen = s.engine.vm.retire_generation(cut.blob).unwrap();
                assert_eq!(gen, cut.retire_gen);
                // This is the branch drain_provider turns into
                // DrainConflict; assert the mapping composes.
                let mapped = BlobError::DrainConflict(format!(
                    "mark could not assemble a live set for {:?}: {conflict}",
                    cut.blob
                ));
                assert!(matches!(mapped, BlobError::DrainConflict(_)));
            }
        }
        assert!(hit_conflict, "stale roots under an unmoved generation must conflict");
    }
}
