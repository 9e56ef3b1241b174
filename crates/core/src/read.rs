//! The READ pipeline (paper Algorithm 1).
//!
//! 1. consult the version manager: is `v` published, how big is it;
//! 2. `READ_META`: walk the segment tree to assemble page descriptors;
//! 3. fetch all (partial) pages **in parallel** and fill the buffer.
//!
//! The module is *handle-first*: [`crate::Snapshot`] performs step 1
//! once at construction and then calls straight into the planning
//! ([`plan_slices`], [`plan_slices_multi`]) and fetching
//! ([`fetch_slices`], [`fetch_slices_into`]) halves below. The flat
//! [`crate::BlobSeer::read`] facade re-resolves the view per call and
//! delegates to the same halves.

use std::sync::Arc;

use blobseer_meta::Lineage;
use blobseer_meta::{read_meta, read_meta_multi, RootRef, TreeReader};
use blobseer_metrics::Timer;
use blobseer_rt::try_parallel;
use blobseer_types::{BlobError, BlobId, ByteRange, PageSlice, Result, Version};
use bytes::Bytes;

use crate::engine::Engine;

/// Public READ: validates against the published snapshot, then delegates
/// to [`read_at_root_into`]. Resolves size, root and lineage in a single
/// version-manager round-trip.
pub(crate) fn read(
    engine: &Arc<Engine>,
    blob: BlobId,
    v: Version,
    offset: u64,
    buf: &mut [u8],
) -> Result<()> {
    let op_timer = Timer::start();
    let size = buf.len() as u64;
    let view = engine.vm.snapshot_view(blob, v)?;
    if offset + size > view.size {
        return Err(BlobError::ReadBeyondEnd {
            blob,
            version: v,
            requested_end: offset + size,
            snapshot_size: view.size,
        });
    }
    if size == 0 {
        return Ok(());
    }
    let root = view
        .root
        .ok_or_else(|| BlobError::Internal("non-empty snapshot without a tree root".into()))?;
    read_at_root_into(engine, &view.lineage, root, ByteRange::new(offset, size), buf)?;
    engine.metrics.read_ops.increment();
    op_timer.stop(&engine.metrics.read_latency);
    Ok(())
}

/// Read `request` from the snapshot rooted at `root`, blocking on
/// in-flight metadata if needed. Used both by public READs (where the
/// tree is complete) and by the unaligned-write merge path (where the
/// predecessor tree may still be being written — waiting is on strictly
/// lower versions, so it cannot deadlock).
pub(crate) fn read_at_root(
    engine: &Arc<Engine>,
    lineage: &Lineage,
    root: RootRef,
    request: ByteRange,
) -> Result<Vec<u8>> {
    let mut buf = vec![0u8; request.size as usize];
    read_at_root_into(engine, lineage, root, request, &mut buf)?;
    Ok(buf)
}

pub(crate) fn read_at_root_into(
    engine: &Arc<Engine>,
    lineage: &Lineage,
    root: RootRef,
    request: ByteRange,
    buf: &mut [u8],
) -> Result<()> {
    let slices = plan_slices(engine, lineage, root, request)?;
    fetch_slices_into(engine, slices, buf)
}

/// `READ_META` + slicing: the page sub-ranges (with destination buffer
/// offsets) that tile `request` exactly.
pub(crate) fn plan_slices(
    engine: &Arc<Engine>,
    lineage: &Lineage,
    root: RootRef,
    request: ByteRange,
) -> Result<Vec<PageSlice>> {
    let psize = engine.psize();
    let reader = TreeReader::new(&engine.meta, lineage);
    let descriptors = read_meta(&reader, root, request, psize)?;
    let slices: Vec<PageSlice> = descriptors
        .into_iter()
        .filter_map(|pd| PageSlice::for_request(pd, request, psize))
        .collect();
    debug_assert_eq!(
        slices.iter().map(|s| s.within.size).sum::<u64>(),
        request.size,
        "slices must tile the request exactly"
    );
    Ok(slices)
}

/// Vectored planning: one segment-tree pass covering **all** of
/// `requests`, then per-request slicing. Returns one slice list per
/// request (each with buffer offsets relative to *its* request).
pub(crate) fn plan_slices_multi(
    engine: &Arc<Engine>,
    lineage: &Lineage,
    root: RootRef,
    requests: &[ByteRange],
) -> Result<Vec<Vec<PageSlice>>> {
    let psize = engine.psize();
    let reader = TreeReader::new(&engine.meta, lineage);
    let descriptors = read_meta_multi(&reader, root, requests, psize)?;
    Ok(requests
        .iter()
        .map(|&request| {
            descriptors
                .iter()
                .filter_map(|&pd| PageSlice::for_request(pd, request, psize))
                .collect()
        })
        .collect())
}

/// Algorithm 1 line 5: "for all (pid, i, provider) ∈ PD in parallel".
/// Fetches every slice and returns `(buffer_offset, data)` pairs, where
/// `data` is a refcounted window of the stored page — no payload copy
/// happens here (the scatter-read primitive).
pub(crate) fn fetch_slices(
    engine: &Arc<Engine>,
    slices: Vec<PageSlice>,
) -> Result<Vec<(u64, Bytes)>> {
    let shared = Arc::new(slices);
    let eng = Arc::clone(engine);
    let jobs = Arc::clone(&shared);
    try_parallel(&engine.pool, shared.len(), move |i| {
        let s = &jobs[i];
        let data = fetch_with_fallback(&eng, &s.descriptor, s.within)?;
        Ok::<_, BlobError>((s.buffer_offset, data))
    })
}

/// [`fetch_slices`] without destination offsets: fetch every slice and
/// return the payloads in input order ([`try_parallel`] preserves
/// it). The vectored-read path dedups identical page windows across
/// requests and indexes into this result to hand each request a
/// refcounted clone of the single fetch.
pub(crate) fn fetch_slices_data(
    engine: &Arc<Engine>,
    slices: Vec<PageSlice>,
) -> Result<Vec<Bytes>> {
    fetch_slices(engine, slices).map(|parts| parts.into_iter().map(|(_, data)| data).collect())
}

/// [`fetch_slices`], then gather into a contiguous caller buffer.
pub(crate) fn fetch_slices_into(
    engine: &Arc<Engine>,
    slices: Vec<PageSlice>,
    buf: &mut [u8],
) -> Result<()> {
    for (dst, data) in fetch_slices(engine, slices)? {
        let dst = dst as usize;
        buf[dst..dst + data.len()].copy_from_slice(&data);
    }
    Ok(())
}

/// Fetch a page sub-range from its primary provider, falling back along
/// the deterministic replica chain — and past it, through the fallback
/// sequence write-path failover re-places copies onto — when a copy is
/// missing, its provider is down, or it fails checksum verification.
/// Only the blocks overlapping `within` are verified (see
/// [`blobseer_provider::DataProvider::fetch_page_range`]).
///
/// The chain is derived **only after the primary missed**: the healthy
/// read costs one provider lookup and no registry walk.
///
/// A corrupt copy is treated as a miss (counted in
/// `corrupt_pages_detected_total`) and the walk continues; the typed
/// [`BlobError::PageCorrupt`] only surfaces when corruption was seen
/// and *no* provider produced a verified copy — the "every replica
/// rotted" case the repairer cannot fix either.
fn fetch_with_fallback(
    engine: &Arc<Engine>,
    descriptor: &blobseer_types::PageDescriptor,
    within: ByteRange,
) -> Result<Bytes> {
    let mut corrupt = None;
    let mut unavailable = None;
    let mut last = None;
    let mut attempt = |id: blobseer_types::ProviderId| {
        let timer = Timer::start();
        let fetched = engine
            .providers
            .provider(id)
            .and_then(|p| p.fetch_page_range(descriptor.pid, within.offset, within.size));
        match fetched {
            Ok(data) => {
                // Per-provider fetch split: only the successful attempt
                // is attributed (a miss on a fallback that never held
                // the copy says nothing about that provider's latency).
                if let Some(hist) = engine.metrics.provider_fetch_latency.get(id.0 as usize) {
                    timer.stop(hist);
                }
                return Some(data);
            }
            Err(e @ BlobError::PageCorrupt { .. }) => {
                engine.metrics.corrupt_pages.increment();
                corrupt = Some(e);
            }
            // A down provider may still hold the copy; report that over
            // a mere miss from a fallback that never had it.
            Err(e @ BlobError::ProviderUnavailable(_)) => unavailable = Some(e),
            Err(e) => last = Some(e),
        }
        None
    };
    if let Some(data) = attempt(descriptor.provider) {
        return Ok(data);
    }
    // Replica chain first, then everything live beyond it, both in
    // registry order — which is simply every serving successor of the
    // primary, in order.
    for id in engine.providers.fallbacks_of(descriptor.provider, 1)? {
        if let Some(data) = attempt(id) {
            return Ok(data);
        }
    }
    Err(corrupt.or(unavailable).or(last).unwrap_or(BlobError::NoAvailableProvider))
}
