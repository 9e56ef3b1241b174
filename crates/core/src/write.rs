//! The WRITE/APPEND pipeline (paper Algorithm 2 plus the unaligned-write
//! completion scheme described in DESIGN.md §3.3).
//!
//! Order of operations:
//!
//! 1. **Pre-store interior pages** — every page fully covered by the
//!    update is stored immediately, in parallel, with *no*
//!    synchronization (for `APPEND` this happens right after version
//!    assignment, since the offset is only known then — paper §3.3:
//!    "an offset is directly provided by the version manager at the
//!    time when [the] snapshot version is assigned").
//! 2. **Register with the version manager** — obtain `vw`, the resolved
//!    offset, the partial border set and the published reference root.
//! 3. **Complete boundary pages** — a head/tail page only partially
//!    covered by the update is completed by reading the missing bytes
//!    from snapshot `vw − 1` (waiting on its in-flight metadata if
//!    necessary) and storing the merged page. This preserves the
//!    total-order semantics: snapshot `vw` equals snapshot `vw − 1`
//!    with the update applied.
//! 4. **Build and store metadata** — `BUILD_META` weaves the new tree
//!    with older versions; all nodes are stored (Algorithm 4 line 34's
//!    "in parallel" is a loop on the calling thread here: an in-process
//!    `put_new` is a fraction of a microsecond, far less than handing
//!    it to another thread — see `docs/ARCHITECTURE.md`).
//! 5. **Notify the version manager** — which publishes `vw` once all
//!    lower versions are published.

use std::sync::Arc;

use blobseer_meta::{build_meta, TreeReader, UpdateContext};
use blobseer_metrics::Timer;
use blobseer_provider::SealedPage;
use blobseer_rt::try_parallel;
use blobseer_types::{BlobError, BlobId, ByteRange, PageDescriptor, ProviderId, Result, Version};
use blobseer_version::{AssignedUpdate, UpdateKind};
use bytes::Bytes;

use crate::engine::Engine;
use crate::read::read_at_root;

/// What kind of update the caller requested.
pub(crate) enum Target {
    /// Explicit-offset WRITE.
    Write {
        /// Absolute byte offset.
        offset: u64,
    },
    /// APPEND (offset resolved by the version manager).
    Append,
}

/// Failure injection: the pipeline prefix after which a simulated
/// writer dies ([`crate::Blob::crash_write`] /
/// [`crate::Blob::crash_append`]). Each variant leaves the assigned
/// version wedged — stored state up to the crash point, no
/// version-manager notification — exactly like a client process dying
/// there. The lease sweeper is what recovers the blob.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPoint {
    /// Die right after the caller-side half: interior pages stored and
    /// the version assigned (its place in the total order is fixed).
    AfterPrepare,
    /// Die after storing the merged boundary pages, before any
    /// metadata.
    AfterBoundaryPages,
    /// Die mid metadata store with only the *inner* tree nodes durable
    /// — the node store lost exactly the leaf puts. (A fixed
    /// subset keeps injected crashes deterministic: leaves are what
    /// give a dead version observable content, so "no leaves" makes
    /// this point content-equivalent to [`CrashPoint::AfterPrepare`]
    /// while still exercising repair against a partially-present
    /// tree.)
    AfterPartialMetadata,
    /// Die with all metadata durable but the version manager never
    /// notified.
    BeforeNotify,
}

/// The caller-thread half of an update, produced by [`prepare`]:
/// interior pages are stored and the version is assigned, fixing the
/// update's place in the total order. Everything else ([`finish`]) can
/// run on any thread.
pub(crate) struct Prepared {
    pub assigned: AssignedUpdate,
    data: Bytes,
    leaves: Vec<PageDescriptor>,
    /// Epoch-cut registration: taken before the first page id was
    /// allocated, held until the update's fate is settled (leaves
    /// durable, or the writer "died" — including the crash-injection
    /// early returns, whose drop of `Prepared` is the simulated
    /// process death). Protects the update's stored-but-unreferenced
    /// pages from a concurrent orphan scrub.
    pin: crate::engine::UpdatePin,
}

/// Steps 1–2 of the pipeline: pre-store every fully-covered page and
/// register the update with the version manager. This is the part that
/// *must* run on the caller's thread in submission order — it is what
/// makes two successive `append_pipelined` calls land in call order.
///
/// `data` is refcounted: interior pages are carved out of it as O(1)
/// [`Bytes::slice`] windows, so a page payload is copied at most once
/// per update (at the `&[u8]` API boundary, if the caller used it) no
/// matter how many replicas each page is stored on.
pub(crate) fn prepare(
    engine: &Arc<Engine>,
    blob: BlobId,
    data: Bytes,
    target: Target,
) -> Result<Prepared> {
    if data.is_empty() {
        return Err(BlobError::EmptyUpdate);
    }
    let prepare_timer = Timer::start();
    // Register with the scrubber's epoch cut before any page id is
    // allocated; see `Prepared::pin`.
    let pin = engine.pin_update();
    let size = data.len() as u64;

    // 1 (WRITE): interior pages need no version, store them now.
    let mut leaves = match target {
        Target::Write { offset } => store_interior_pages(engine, &data, offset)?,
        Target::Append => Vec::new(),
    };

    // 2: register the update, obtaining vw and the weaving inputs.
    let kind = match target {
        Target::Write { offset } => UpdateKind::Write { offset, size },
        Target::Append => UpdateKind::Append { size },
    };
    let assigned = engine.vm.assign(blob, kind)?;

    // 1 (APPEND): the offset is now known. A failure here is *after*
    // version assignment — retire the version instead of wedging the
    // blob (best effort; the lease sweeper retries otherwise).
    if matches!(target, Target::Append) {
        leaves = match store_interior_pages(engine, &data, assigned.offset) {
            Ok(leaves) => leaves,
            Err(e) => {
                let _ = crate::abort::abort_version(engine, blob, assigned.vw);
                return Err(e);
            }
        };
    }
    prepare_timer.stop(&engine.metrics.write_prepare_latency);
    Ok(Prepared { assigned, data, leaves, pin })
}

/// Steps 3–5 of the pipeline: complete boundary pages, build and store
/// the metadata tree, and notify the version manager. Runs inline for
/// blocking updates and on the engine's pipeline pool for
/// `write_pipelined`/`append_pipelined`. May block on metadata of
/// strictly lower in-flight versions (boundary merges), never higher —
/// so completions cannot deadlock each other.
pub(crate) fn finish(engine: &Arc<Engine>, blob: BlobId, prepared: Prepared) -> Result<Version> {
    finish_until(engine, blob, prepared, None)
}

/// [`finish`] with an optional crash injection point; see
/// [`CrashPoint`]. The real path renews the writer's lease as it
/// progresses — the renewal doubling as the fencing check that stops a
/// presumed-dead (already aborted) writer from storing further state.
pub(crate) fn finish_until(
    engine: &Arc<Engine>,
    blob: BlobId,
    prepared: Prepared,
    crash: Option<CrashPoint>,
) -> Result<Version> {
    // `_pin` keeps the epoch-cut registration alive for the whole
    // stage — including the crash-injection early returns, where its
    // drop is precisely the simulated writer death.
    let Prepared { assigned, data, mut leaves, pin: _pin } = prepared;
    // Scope for the DHT self-help hook: if this stage blocks on
    // in-flight metadata mid-wait, the hook may sweep expired leases
    // strictly below our version — never at or above (that repair
    // would wait on the metadata we have yet to write).
    let _wait_scope = crate::abort::wait_scope(blob, assigned.vw);

    // Self-help sweep: if some lower version's writer died, this stage
    // is about to block on its metadata — abort the blocker first
    // (never a version ≥ our own: its repair would wait on *us*). The
    // check is one atomic load while every lease is fresh, and locks
    // only this blob otherwise.
    if crash.is_none() && engine.vm.has_expired_below(blob, assigned.vw).unwrap_or(false) {
        crate::abort::sweep_expired(engine, Some((blob, assigned.vw)));
    }
    engine.vm.renew_lease(blob, assigned.vw)?;

    // 3: boundary pages (head/tail partially covered by the update).
    let lineage = engine.vm.lineage(blob)?;
    leaves.extend(store_boundary_pages(engine, &lineage, &assigned, &data)?);
    leaves.sort_by_key(|pd| pd.page_index);
    if crash == Some(CrashPoint::AfterBoundaryPages) {
        return Ok(assigned.vw);
    }

    // 4: build the new tree and store every node.
    let reader = TreeReader::new(&engine.meta, &lineage);
    let ctx = UpdateContext {
        vw: assigned.vw,
        range: assigned.range,
        new_root: assigned.new_root,
        overrides: assigned.overrides,
        ref_root: assigned.ref_root,
    };
    let nodes = build_meta(&reader, &ctx, &leaves)?;
    engine.vm.renew_lease(blob, assigned.vw)?;
    // build_meta emits leaves first; AfterPartialMetadata drops exactly
    // that prefix (see the enum docs).
    let store_from = match crash {
        Some(CrashPoint::AfterPartialMetadata) => leaves.len().min(nodes.len()),
        _ => 0,
    };
    // Insert-if-absent: nodes are immutable once visible, so the only
    // way this key can already exist is an abort repair having placed
    // it — a presumed-dead writer racing its own repair must lose.
    for &(key, node) in &nodes[store_from..] {
        engine.meta.put_new(key, node);
    }
    if matches!(crash, Some(CrashPoint::AfterPartialMetadata) | Some(CrashPoint::BeforeNotify)) {
        return Ok(assigned.vw);
    }

    // 5: hand publication over to the version manager.
    engine.vm.complete(blob, assigned.vw)?;
    Ok(assigned.vw)
}

/// Run the full update pipeline; returns the assigned version. A
/// failure after version assignment retires the version (no-op abort)
/// instead of leaving a hole that wedges every later writer.
///
/// QoS admission (when configured) runs first, before any page store
/// or version assignment — a throttled update has zero side effects.
/// The blocking paths use deadline-bounded waiting admission; see
/// `crate::qos`.
pub(crate) fn update(
    engine: &Arc<Engine>,
    blob: BlobId,
    data: Bytes,
    target: Target,
    tenant: blobseer_types::TenantId,
) -> Result<Version> {
    crate::qos::admit_blocking(engine, tenant, data.len() as u64)?;
    let op_timer = Timer::start();
    let is_append = matches!(target, Target::Append);
    let prepared = prepare(engine, blob, data, target)?;
    let vw = prepared.assigned.vw;
    let published = finish(engine, blob, prepared).inspect_err(|e| {
        // VersionAborted means the sweeper (or an explicit abort)
        // already retired us; anything else is ours to clean up.
        if !matches!(e, BlobError::VersionAborted { .. }) {
            let _ = crate::abort::abort_version(engine, blob, vw);
        }
    })?;
    record_update(engine, is_append, op_timer);
    Ok(published)
}

/// Count a published update and record its end-to-end latency (only on
/// success: failed updates would pollute the tail with abort timing).
/// Shared by the blocking path above and the pipelined completion stage
/// in `crate::pending`.
pub(crate) fn record_update(engine: &Engine, is_append: bool, timer: Timer) {
    if is_append {
        engine.metrics.append_ops.increment();
        timer.stop(&engine.metrics.append_latency);
    } else {
        engine.metrics.write_ops.increment();
        timer.stop(&engine.metrics.write_latency);
    }
}

/// Failure injection: run the pipeline only up to `point`, then
/// "crash" — return the assigned (now wedged) version without
/// notifying the version manager. See [`CrashPoint`].
pub(crate) fn update_crashing(
    engine: &Arc<Engine>,
    blob: BlobId,
    data: Bytes,
    target: Target,
    point: CrashPoint,
) -> Result<Version> {
    let prepared = prepare(engine, blob, data, target)?;
    let vw = prepared.assigned.vw;
    if point == CrashPoint::AfterPrepare {
        return Ok(vw);
    }
    finish_until(engine, blob, prepared, Some(point))
}

/// Store every page *fully covered* by the update, in parallel
/// (Algorithm 2 lines 4-9). Returns their descriptors.
fn store_interior_pages(
    engine: &Arc<Engine>,
    data: &Bytes,
    offset: u64,
) -> Result<Vec<PageDescriptor>> {
    let psize = engine.psize();
    let end = offset + data.len() as u64;
    let first_full = blobseer_types::div_ceil(offset, psize);
    let last_full_end = end / psize;
    if first_full >= last_full_end {
        return Ok(Vec::new());
    }
    let n = (last_full_end - first_full) as usize;
    let providers = engine.providers.allocate(n)?;

    // Carve each page as an O(1) refcounted window into the update
    // buffer — no payload bytes move here.
    let jobs: Vec<(u64, ProviderId, Bytes)> = (0..n)
        .map(|i| {
            let page_index = first_full + i as u64;
            let start = (page_index * psize - offset) as usize;
            (page_index, providers[i], data.slice(start..start + psize as usize))
        })
        .collect();
    store_pages(engine, jobs, psize as u32)
}

/// Store the merged head/tail boundary pages of an unaligned update
/// (DESIGN.md §3.3). No-op for page-aligned updates.
fn store_boundary_pages(
    engine: &Arc<Engine>,
    lineage: &blobseer_meta::Lineage,
    assigned: &AssignedUpdate,
    data: &Bytes,
) -> Result<Vec<PageDescriptor>> {
    let psize = engine.psize();
    let offset = assigned.offset;
    let end = offset + assigned.size;
    if offset.is_multiple_of(psize) && end.is_multiple_of(psize) {
        return Ok(Vec::new()); // the aligned fast path allocates nothing
    }

    let mut boundary_pages: Vec<u64> = Vec::with_capacity(2);
    if !offset.is_multiple_of(psize) {
        boundary_pages.push(offset / psize);
    }
    if !end.is_multiple_of(psize) {
        let tail = (end - 1) / psize;
        if boundary_pages.last() != Some(&tail) {
            boundary_pages.push(tail);
        }
    }

    let providers = engine.providers.allocate(boundary_pages.len())?;
    let mut jobs = Vec::with_capacity(boundary_pages.len());
    let mut valid_lens = Vec::with_capacity(boundary_pages.len());
    for (slot, &page) in boundary_pages.iter().enumerate() {
        let page_start = page * psize;
        let valid_end = (page_start + psize).min(assigned.new_size);
        let mut payload = vec![0u8; (valid_end - page_start) as usize];

        // Bytes of this page coming from the update itself.
        let written = ByteRange::new(offset, assigned.size)
            .intersect(ByteRange::new(page_start, psize))
            .expect("boundary page intersects the update");
        let src = (written.offset - offset) as usize;
        let dst = (written.offset - page_start) as usize;
        payload[dst..dst + written.size as usize]
            .copy_from_slice(&data[src..src + written.size as usize]);

        // Missing head bytes come from snapshot vw−1.
        if page_start < offset && page == offset / psize {
            let old = ByteRange::new(page_start, offset - page_start);
            let bytes = read_old(engine, lineage, assigned, old)?;
            payload[..bytes.len()].copy_from_slice(&bytes);
        }
        // Missing tail bytes likewise (only when the old snapshot
        // actually had data past the update's end).
        if end < valid_end && page == (end - 1) / psize {
            let old = ByteRange::new(end, valid_end - end);
            let bytes = read_old(engine, lineage, assigned, old)?;
            let dst = (end - page_start) as usize;
            payload[dst..dst + bytes.len()].copy_from_slice(&bytes);
        }

        valid_lens.push((valid_end - page_start) as u32);
        jobs.push((page, providers[slot], Bytes::from(payload)));
    }

    // At most two pages; reuse the replicated store path so boundary
    // pages get the same durability as interior ones.
    let mut out = Vec::with_capacity(jobs.len());
    for ((page, provider, payload), valid_len) in jobs.into_iter().zip(valid_lens) {
        let pid = engine.pidgen.next_id();
        store_one_replicated(engine, pid, provider, payload)?;
        out.push(PageDescriptor { pid, page_index: page, provider, valid_len });
    }
    Ok(out)
}

/// Store one page on its primary plus the configured replica chain,
/// failing over when chain members are down. Succeeds when at least
/// one copy landed: the leaf names the primary, and readers fall back
/// along the same deterministic chain (and past it, in registry
/// order — see [`blobseer_provider::ProviderManager::fallbacks_of`]).
///
/// Failure discipline per target: up to `store_retry_attempts` extra
/// attempts with deterministic linear backoff
/// (`attempt * store_retry_backoff_ms`), then the copy is re-placed on
/// the next live fallback provider past the chain. Each re-placement
/// counts one `failovers_total`; publishing fewer copies than the
/// chain wanted counts one `under_replicated_stores_total` (the
/// repairer's cue). The update only fails when *no* provider in the
/// deployment accepted the page.
///
/// **This is where a page is sealed**: `payload` is checksummed here,
/// once, on the client and inside the page's own fork-join item — and
/// the one refcounted [`SealedPage`] goes to every replica and every
/// failover target. No byte is copied and no block is hashed per copy
/// (with zero-copy carving the payload still aliases the caller's
/// buffer).
pub(crate) fn store_one_replicated(
    engine: &Arc<Engine>,
    pid: blobseer_types::PageId,
    primary: ProviderId,
    payload: Bytes,
) -> Result<()> {
    engine.metrics.sealed_bytes.add(payload.len() as u64);
    let page = SealedPage::seal(payload);
    // (Without replication this is empty and costs no registry walk.)
    let replicas = engine.providers.replicas_of(primary, engine.config.replication)?;
    let desired = 1 + replicas.len();
    let mut stored = 0usize;
    let mut failed = 0usize;
    let mut last_err = None;
    for target in std::iter::once(primary).chain(replicas) {
        match store_with_retry(engine, target, pid, &page) {
            Ok(()) => stored += 1,
            Err(e) => {
                failed += 1;
                last_err = Some(e);
            }
        }
    }
    if failed > 0 {
        // Re-place each failed copy on the next fallback that accepts
        // it. The fallback sequence is a deterministic function of
        // (primary, registry order), so the repairer — and any reader —
        // recomputes where a failed-over copy can live with no extra
        // metadata.
        let mut fallbacks = engine.providers.fallbacks_of(primary, desired)?.into_iter();
        while failed > 0 {
            let Some(fallback) = fallbacks.next() else { break };
            match store_with_retry(engine, fallback, pid, &page) {
                Ok(()) => {
                    stored += 1;
                    failed -= 1;
                    engine.metrics.failovers.increment();
                }
                Err(e) => last_err = Some(e),
            }
        }
    }
    if stored == 0 {
        return Err(last_err.unwrap_or(BlobError::NoAvailableProvider));
    }
    if stored < desired {
        engine.metrics.under_replicated_stores.increment();
    }
    Ok(())
}

/// One target's share of a replicated store: the initial attempt plus
/// up to `store_retry_attempts` retries, sleeping
/// `attempt * store_retry_backoff_ms` between tries (linear, fully
/// deterministic — no jitter, so failure tests replay exactly).
fn store_with_retry(
    engine: &Arc<Engine>,
    target: ProviderId,
    pid: blobseer_types::PageId,
    page: &SealedPage,
) -> Result<()> {
    let timer = Timer::start();
    let mut attempt = 0u32;
    loop {
        match engine.providers.provider(target).and_then(|p| p.store_page(pid, page.clone())) {
            Ok(()) => {
                // Per-provider store split: the whole attempt sequence
                // (including backoff) lands on the provider that finally
                // accepted — which is what a capacity dashboard wants.
                if let Some(hist) = engine.metrics.provider_store_latency.get(target.0 as usize) {
                    timer.stop(hist);
                }
                return Ok(());
            }
            Err(e) if attempt >= engine.config.store_retry_attempts => return Err(e),
            Err(_) => {
                attempt += 1;
                let backoff = attempt as u64 * engine.config.store_retry_backoff_ms;
                if backoff > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(backoff));
                }
            }
        }
    }
}

/// Read bytes of snapshot `vw − 1` (the update's predecessor), waiting
/// on its in-flight metadata when necessary.
fn read_old(
    engine: &Arc<Engine>,
    lineage: &blobseer_meta::Lineage,
    assigned: &AssignedUpdate,
    range: ByteRange,
) -> Result<Vec<u8>> {
    debug_assert!(
        range.end() <= assigned.prev_size,
        "old bytes {range:?} must lie within snapshot vw-1 ({} B)",
        assigned.prev_size
    );
    let prev_root = assigned
        .prev_root
        .ok_or_else(|| BlobError::Internal("boundary merge against an empty predecessor".into()))?;
    read_at_root(engine, lineage, prev_root, range)
}

/// Store a batch of full pages (plus replicas) in parallel; returns
/// their descriptors.
fn store_pages(
    engine: &Arc<Engine>,
    jobs: Vec<(u64, ProviderId, Bytes)>,
    valid_len: u32,
) -> Result<Vec<PageDescriptor>> {
    let n = jobs.len();
    let pids: Vec<_> = (0..n).map(|_| engine.pidgen.next_id()).collect();
    let shared = Arc::new((jobs, pids));
    let eng = Arc::clone(engine);
    let batch = Arc::clone(&shared);
    try_parallel(&engine.pool, n, move |i| {
        let (jobs, pids) = &*batch;
        let (_, provider, payload) = &jobs[i];
        store_one_replicated(&eng, pids[i], *provider, payload.clone())
    })?;
    let (jobs, pids) = &*shared;
    Ok(jobs
        .iter()
        .zip(pids)
        .map(|(&(page_index, provider, _), &pid)| PageDescriptor {
            pid,
            page_index,
            provider,
            valid_len,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    const PSIZE: usize = 4096;

    fn build() -> crate::BlobSeer {
        crate::BlobSeer::builder()
            .page_size(PSIZE as u64)
            .data_providers(4)
            .replication(2)
            .build()
            .unwrap()
    }

    /// Fetch every interior page of `v` back out of the providers and
    /// return the payload `Bytes` as stored.
    fn stored_pages(store: &crate::BlobSeer, leaves: &[PageDescriptor]) -> Vec<Bytes> {
        leaves
            .iter()
            .map(|pd| {
                let provider = store.engine.providers.provider(pd.provider).unwrap();
                provider.fetch_page(pd.pid).unwrap().into_data()
            })
            .collect()
    }

    #[test]
    fn interior_pages_are_slices_of_the_source_buffer() {
        // The acceptance check for the zero-copy path: every stored
        // interior page must alias the caller's allocation (pointer
        // identity), proving no per-page payload copy happened.
        let store = build();
        let data = Bytes::from((0..4 * PSIZE).map(|i| i as u8).collect::<Vec<u8>>());
        let src = data.as_ptr() as usize..data.as_ptr() as usize + data.len();

        let leaves = store_interior_pages(&store.engine, &data, 0).unwrap();
        assert_eq!(leaves.len(), 4);
        for (i, page) in stored_pages(&store, &leaves).into_iter().enumerate() {
            let ptr = page.as_ptr() as usize;
            assert_eq!(page.len(), PSIZE);
            assert_eq!(
                ptr,
                src.start + i * PSIZE,
                "page {i} must alias the source buffer, not a copy"
            );
            assert!(src.contains(&ptr));
        }
    }

    #[test]
    fn unaligned_carving_slices_at_page_boundaries_of_the_blob() {
        // An update starting mid-page: interior pages begin at the
        // first in-buffer offset that is page-aligned in blob space.
        let store = build();
        let data = Bytes::from(vec![7u8; 3 * PSIZE]);
        let offset = (PSIZE / 2) as u64;
        let leaves = store_interior_pages(&store.engine, &data, offset).unwrap();
        assert_eq!(leaves.len(), 2);
        let src = data.as_ptr() as usize;
        for (slot, page) in stored_pages(&store, &leaves).into_iter().enumerate() {
            let expect = src + PSIZE / 2 + slot * PSIZE;
            assert_eq!(page.as_ptr() as usize, expect);
        }
    }

    #[test]
    fn replicated_store_keeps_aliasing_every_copy() {
        // replication = 2: both the primary and the replica must hold
        // the same refcounted window — zero payload copies per update.
        let store = build();
        let data = Bytes::from(vec![9u8; PSIZE]);
        let src = data.as_ptr() as usize;
        let leaves = store_interior_pages(&store.engine, &data, 0).unwrap();
        let pd = leaves[0];
        let replicas = store.engine.providers.replicas_of(pd.provider, 2).unwrap();
        for target in std::iter::once(pd.provider).chain(replicas) {
            let page = store.engine.providers.provider(target).unwrap().fetch_page(pd.pid).unwrap();
            assert_eq!(page.as_ptr() as usize, src, "copy on {target:?} must alias the source");
        }
    }
}
