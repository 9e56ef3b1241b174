//! The READ pipeline (paper Algorithm 1).
//!
//! 1. consult the version manager: is `v` published, how big is it;
//! 2. `READ_META`: walk the segment tree to assemble page descriptors;
//! 3. fetch all (partial) pages **in parallel** and fill the buffer.
//!
//! The module is *handle-first*: [`crate::Snapshot`] performs step 1
//! once at construction and then calls straight into the planning
//! ([`plan_slices`]) and fetching ([`fetch_slices`]) halves below. There
//! is one of each. A read, a scatter read and a vectored read all plan
//! through [`plan_slices`], which makes the one `READ_META` descent
//! ([`read_meta_multi`]) over all of their ranges at once. The single
//! exception is a request inside one page: [`read_at_root_into`] takes
//! [`read_meta_page`]'s loop and one fetch on the calling thread, with
//! no slices. The flat [`crate::BlobSeer::read`] facade opens a
//! [`crate::Snapshot`] per call, so it is the same read.

use std::sync::Arc;

use blobseer_meta::Lineage;
use blobseer_meta::{read_meta_multi, read_meta_page, RootRef, TreeReader};
use blobseer_metrics::Timer;
use blobseer_rt::try_parallel;
use blobseer_types::{BlobError, ByteRange, PageSlice, Result};
use bytes::Bytes;

use crate::engine::Engine;

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

/// [`read_at_root`] into a caller buffer. A request inside one page
/// allocates nothing: one descent loop ([`read_meta_page`]) and one
/// fetch on the calling thread.
pub(crate) fn read_at_root_into(
    engine: &Arc<Engine>,
    lineage: &Lineage,
    root: RootRef,
    request: ByteRange,
    buf: &mut [u8],
) -> Result<()> {
    let psize = engine.psize();
    let pages = request.pages(psize);
    if pages.count == 1 {
        let reader = TreeReader::new(&engine.meta, lineage);
        let descriptor = read_meta_page(&reader, root, pages.first)?;
        let within = ByteRange::new(request.offset - pages.first * psize, request.size);
        let data = fetch_with_fallback(engine, &descriptor, within)?;
        buf[..data.len()].copy_from_slice(&data);
        return Ok(());
    }
    for (dst, data) in fetch_slices(engine, plan_slices(engine, lineage, root, &[request])?)? {
        let dst = dst as usize;
        buf[dst..dst + data.len()].copy_from_slice(&data);
    }
    Ok(())
}

/// `READ_META` + slicing for every range of `requests` in **one**
/// segment-tree traversal ([`read_meta_multi`]): the page sub-ranges
/// that tile each request exactly, request after request. Request `i`'s
/// slices are the next `requests[i].pages(psize).count` entries, in page
/// order, with buffer offsets relative to *its* request.
pub(crate) fn plan_slices(
    engine: &Arc<Engine>,
    lineage: &Lineage,
    root: RootRef,
    requests: &[ByteRange],
) -> Result<Vec<PageSlice>> {
    let psize = engine.psize();
    let reader = TreeReader::new(&engine.meta, lineage);
    let descriptors = read_meta_multi(&reader, root, requests, psize)?;
    let mut slices =
        Vec::with_capacity(requests.iter().map(|r| r.pages(psize).count as usize).sum());
    for &request in requests {
        let pages = request.pages(psize);
        let first = descriptors.partition_point(|pd| pd.page_index < pages.first);
        let tiled = slices.len();
        slices.extend(
            descriptors[first..first + pages.count as usize]
                .iter()
                .filter_map(|&pd| PageSlice::for_request(pd, request, psize)),
        );
        debug_assert_eq!(
            slices[tiled..].iter().map(|s| s.within.size).sum::<u64>(),
            request.size,
            "slices must tile the request exactly"
        );
    }
    Ok(slices)
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

/// Fetch a page sub-range from its primary provider, falling back along
/// the page's deterministic provider sequence
/// ([`blobseer_provider::ProviderManager::chain`]: the replica chain,
/// then the fallbacks write-path failover re-places copies onto) when
/// a copy is missing, its provider is down, or it fails checksum
/// verification.
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
        let fetched = engine.providers.provider(id).and_then(|p| {
            let data = p.fetch_page_range(descriptor.pid, within.offset, within.size)?;
            // Per-provider fetch split: only the successful attempt is
            // attributed (a miss on a fallback that never held the
            // copy says nothing about that provider's latency).
            timer.stop(p.fetch_latency());
            Ok(data)
        });
        match fetched {
            Ok(data) => return Some(data),
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
    // registry order.
    let primary = descriptor.provider;
    for id in engine.providers.chain(primary, None)?.filter(|&id| id != primary) {
        if let Some(data) = attempt(id) {
            return Ok(data);
        }
    }
    Err(corrupt.or(unavailable).or(last).unwrap_or(BlobError::NoAvailableProvider))
}
