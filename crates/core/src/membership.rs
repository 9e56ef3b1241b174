//! Elastic provider membership: live join, drain and retire (the
//! paper's "new data providers may dynamically join and leave the
//! system", §4.3).
//!
//! * [`crate::BlobSeer::add_provider`] registers a provider at the end
//!   of the registry; it is eligible for placement at once, and the
//!   chains that now wrap onto it are reconciled by the next repair.
//! * [`drain_provider`] *evacuates* a provider: the victim turns
//!   read-only (stores refuse with the crash error, so write-path
//!   failover re-places in-flight copies), then rounds of scan, mark
//!   and migrate run until a scan proves it empty, and only then is it
//!   retired — a tombstone that keeps anchoring registry positions.
//!   Each round scans the victim first and marks only if the scan found
//!   pages, so the last round pays no mark. It migrates the judged-live
//!   pages below the epoch ([`fill_chain`] over the post-retirement
//!   chain, derived once per primary per round, then delete the
//!   victim's copy), reclaims the judged-dead ones in place and defers
//!   the unjudged rest until their writers' pins drop. Writers that
//!   never quiesce within the engine's wait budget fail **typed**
//!   ([`BlobError::DrainConflict`]) with the victim returned to
//!   service. The safety argument is `docs/OPERATIONS.md`, "Marking the
//!   live set".

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use blobseer_metrics::Timer;
use blobseer_provider::DataProvider;
use blobseer_types::{BlobError, ProviderId, Result};

use crate::engine::Engine;
use crate::maintenance::{fill_chain, LiveSet, Route};

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
    /// Always 0; see [`crate::ScrubReport::mark_restarts`].
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

/// Drain `id` and retire it; see module docs.
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
    let drained = drain_rounds(engine, victim);
    if drained.is_ok() {
        victim.retire();
    } else {
        // Nothing was migrated-then-lost: copies placed on survivors
        // are at worst strays the repairer trims once the chain
        // verifies. Return the victim to service.
        victim.end_drain();
    }
    drained
}

/// Scan/mark/migrate rounds until a scan proves the victim empty.
fn drain_rounds(engine: &Arc<Engine>, victim: &Arc<DataProvider>) -> Result<DrainReport> {
    let id = victim.id();
    let mut report = DrainReport::new(id);
    let deadline = Instant::now() + engine.wait_timeout();
    loop {
        report.rounds += 1;
        // Scan before marking, so the round that finds the victim empty
        // pays no mark. The judgment below does not depend on when the
        // scan ran: a page below the mark's epoch that no leaf names is
        // dead whenever it was listed.
        let held = victim
            .scan_pages()
            .map_err(|e| BlobError::DrainConflict(format!("victim went offline mid-drain: {e}")))?;
        if held.is_empty() {
            return Ok(report);
        }
        let live = LiveSet::mark(engine, &engine.metrics.drain_mark_latency);

        let copy_timer = Timer::start();
        let mut routes: HashMap<ProviderId, Route> = HashMap::new();
        let mut deferred = 0usize;
        for (pid, _) in held {
            if pid >= live.epoch {
                // Some in-flight update may still reference this page;
                // its pin will drop and a later round judges it.
                deferred += 1;
                continue;
            }
            let Some(&primary) = live.pages.get(&pid) else {
                // Below the epoch and unmarked: dead. Reclaim in place.
                if let Ok(Some(bytes)) = victim.delete_page(pid) {
                    report.orphans_reclaimed += 1;
                    report.orphan_bytes += bytes;
                }
                continue;
            };
            // Live: fill the chain as it will read once the victim
            // retires (sourcing from the victim only when no target
            // verifies), then — and only then — delete the victim's copy.
            let route = match routes.entry(primary) {
                Entry::Occupied(route) => route.into_mut(),
                Entry::Vacant(slot) => slot.insert(Route::of(engine, primary, Some(id))?),
            };
            let fill = fill_chain(pid, route, &|_| true)
                .filter(|fill| fill.verified + fill.filled > 0)
                .ok_or_else(|| {
                    BlobError::DrainConflict(format!(
                        "no survivor holds or accepted a verified copy of {pid:?}; recover a \
                         provider or run repair_replicas, then rerun the drain"
                    ))
                })?;
            report.copies_filled += fill.filled;
            report.bytes_copied += fill.bytes;
            report.copies_failed += fill.failed;
            engine.metrics.pages_migrated.add(fill.filled);
            engine.metrics.bytes_migrated.add(fill.bytes);
            if let Ok(Some(bytes)) = victim.delete_page(pid) {
                report.pages_evacuated += 1;
                report.bytes_evacuated += bytes;
            }
        }
        copy_timer.stop(&engine.metrics.drain_copy_latency);

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
