//! Version-pinned, immutable read views: [`Snapshot`] and the zero-copy
//! [`ScatterRead`].
//!
//! A snapshot in BlobSeer never changes once published, so everything
//! the version manager knows about it — size, tree root, lineage — can
//! be resolved **once** and cached. `Snapshot` does exactly that: after
//! construction, its reads go straight to metadata and data providers
//! with zero version-manager involvement, which is what lets thousands
//! of concurrent readers share one hot snapshot without serializing on
//! the VM (asserted via the `read_views` counter in `StoreStats`).

use std::collections::HashMap;
use std::sync::Arc;

use blobseer_meta::{Lineage, RootRef};
use blobseer_metrics::Timer;
use blobseer_types::{BlobError, BlobId, ByteRange, PageId, PageSlice, Result, Version};
use bytes::Bytes;

use crate::engine::Engine;
use crate::read;

/// An immutable read view of one published snapshot.
///
/// Obtained from [`crate::Blob::snapshot`] / [`crate::Blob::latest`]
/// (or [`crate::BlobSeer::snapshot`]). Cheap to clone; all clones share
/// the cached resolution. Reads validate against the cached size and
/// never consult the version manager again — except on a failed read,
/// where the VM is re-checked once so that a snapshot whose version was
/// retired by [`crate::Blob::retire_versions`] *after* pinning surfaces
/// the typed [`BlobError::VersionRetired`] (a live `Snapshot` does not
/// pin its version against garbage collection).
#[derive(Clone)]
pub struct Snapshot {
    engine: Arc<Engine>,
    blob: BlobId,
    version: Version,
    /// Cached from the VM at construction: snapshot size ...
    size: u64,
    /// ... tree root (`None` for the empty snapshot) ...
    root: Option<RootRef>,
    /// ... and the blob's lineage at resolution time. Lineage only
    /// grows (branches never detach), so a snapshot taken at version
    /// `v` resolves every key of versions `≤ v` forever.
    lineage: Lineage,
}

impl Snapshot {
    /// Resolve (and pin) published version `v` of `blob`. The single
    /// version-manager round-trip this handle will ever make.
    pub(crate) fn open(engine: &Arc<Engine>, blob: BlobId, v: Version) -> Result<Snapshot> {
        let view = engine.vm.snapshot_view(blob, v)?;
        Ok(Snapshot {
            engine: Arc::clone(engine),
            blob,
            version: v,
            size: view.size,
            root: view.root,
            lineage: view.lineage,
        })
    }

    /// Resolve (and pin) the blob's most recently published version in
    /// one fused VM call — version and view come from a single
    /// wait-free seqlock read, so there is no race window between a
    /// `GET_RECENT` and a separate view lookup, and no blob mutex on
    /// this path.
    pub(crate) fn open_latest(engine: &Arc<Engine>, blob: BlobId) -> Result<Snapshot> {
        let (v, view) = engine.vm.latest_view(blob)?;
        Ok(Snapshot {
            engine: Arc::clone(engine),
            blob,
            version: v,
            size: view.size,
            root: view.root,
            lineage: view.lineage,
        })
    }

    /// The blob this snapshot belongs to.
    ///
    /// # Examples
    ///
    /// ```
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).pipeline_threads(1).build()?;
    /// let blob = store.create();
    /// let v = blob.append(b"x")?;
    /// blob.sync(v)?;
    /// let snap = blob.snapshot(v)?;
    /// assert_eq!(snap.blob_id(), blob.id());
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn blob_id(&self) -> BlobId {
        self.blob
    }

    /// The pinned version.
    ///
    /// # Examples
    ///
    /// ```
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).pipeline_threads(1).build()?;
    /// let blob = store.create();
    /// let v = blob.append(b"x")?;
    /// blob.sync(v)?;
    /// // The handle stays pinned even as the blob moves on.
    /// let snap = blob.snapshot(v)?;
    /// blob.append(b"y")?;
    /// assert_eq!(snap.version(), v);
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn version(&self) -> Version {
        self.version
    }

    /// Snapshot size in bytes.
    ///
    /// # Examples
    ///
    /// ```
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).pipeline_threads(1).build()?;
    /// let blob = store.create();
    /// let v = blob.append(&[0u8; 100])?;
    /// blob.sync(v)?;
    /// assert_eq!(blob.snapshot(v)?.len(), 100);
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn len(&self) -> u64 {
        self.size
    }

    /// `true` for the empty snapshot (version 0 of an unwritten blob).
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::Version;
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).pipeline_threads(1).build()?;
    /// let blob = store.create();
    /// assert!(blob.snapshot(Version(0))?.is_empty());
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    fn check(&self, range: ByteRange) -> Result<()> {
        if range.end() > self.size {
            return Err(BlobError::ReadBeyondEnd {
                blob: self.blob,
                version: self.version,
                requested_end: range.end(),
                snapshot_size: self.size,
            });
        }
        Ok(())
    }

    fn root(&self) -> Result<RootRef> {
        self.root
            .ok_or_else(|| BlobError::Internal("non-empty snapshot without a tree root".into()))
    }

    /// A pinned snapshot does not protect its version from
    /// [`crate::Blob::retire_versions`]: garbage collection may delete
    /// the version's metadata and pages out from under live handles.
    /// (Only *may*: GC is reachability-based, so whatever the retained
    /// versions still share remains physically present, and reads of a
    /// retired-but-fully-shared snapshot keep succeeding.) When swept
    /// data is actually hit, the read fails at the substrate — after
    /// the metadata wait, since missing nodes look like in-flight
    /// writers; this re-checks the version manager *on that error path
    /// only* and surfaces the typed [`BlobError::VersionRetired`]
    /// instead. The successful-read path stays VM-free.
    fn refine_error(&self, e: BlobError) -> BlobError {
        let substrate = matches!(
            e,
            BlobError::Timeout(_)
                | BlobError::MetadataMissing { .. }
                | BlobError::PageMissing { .. }
                | BlobError::Internal(_)
        );
        if substrate {
            if let Err(check) = self.engine.vm.snapshot_view(self.blob, self.version) {
                return check;
            }
        }
        e
    }

    /// Read `range` into a fresh contiguous buffer.
    ///
    /// When the whole range falls inside a single page, the returned
    /// [`Bytes`] is a refcounted window of the stored page (no copy);
    /// multi-page ranges are gathered into one allocation. Use
    /// [`Snapshot::read_scatter`] to avoid the gather entirely.
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::ByteRange;
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).pipeline_threads(1).build()?;
    /// let blob = store.create();
    /// let v = blob.append(b"hello, world")?;
    /// blob.sync(v)?;
    /// let snap = blob.snapshot(v)?;
    /// assert_eq!(&snap.read(ByteRange::new(7, 5))?[..], b"world");
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn read(&self, range: ByteRange) -> Result<Bytes> {
        let op_timer = Timer::start();
        let scatter = self.scatter_inner(range)?;
        self.engine.metrics.read_ops.increment();
        op_timer.stop(&self.engine.metrics.read_latency);
        Ok(scatter.into_bytes())
    }

    /// Read exactly `buf.len()` bytes at `offset` into a caller-owned
    /// buffer (the paper's `READ` signature; reusable across calls).
    ///
    /// # Examples
    ///
    /// ```
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).pipeline_threads(1).build()?;
    /// let blob = store.create();
    /// let v = blob.append(b"reuse me")?;
    /// blob.sync(v)?;
    /// let snap = blob.snapshot(v)?;
    /// let mut buf = [0u8; 5];
    /// snap.read_into(0, &mut buf)?; // no allocation per call
    /// assert_eq!(&buf, b"reuse");
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn read_into(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let op_timer = Timer::start();
        let request = ByteRange::new(offset, buf.len() as u64);
        self.check(request)?;
        if request.is_empty() {
            return Ok(());
        }
        read::plan_slices(&self.engine, &self.lineage, self.root()?, request)
            .and_then(|slices| read::fetch_slices_into(&self.engine, slices, buf))
            .map_err(|e| self.refine_error(e))?;
        self.engine.metrics.read_ops.increment();
        op_timer.stop(&self.engine.metrics.read_latency);
        Ok(())
    }

    /// Zero-copy scatter read: fetch `range` as refcounted page windows
    /// without assembling a contiguous buffer — the read-side dual of
    /// the zero-copy write path. For page-aligned ranges every segment
    /// aliases the stored page directly (pointer-identical `Bytes`).
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::ByteRange;
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).pipeline_threads(1).build()?;
    /// let blob = store.create();
    /// let v = blob.append(&vec![7u8; 2 * 4096])?;
    /// blob.sync(v)?;
    /// let snap = blob.snapshot(v)?;
    /// let scatter = snap.read_scatter(ByteRange::new(0, 2 * 4096))?;
    /// // One refcounted window per stored page; nothing was gathered.
    /// assert_eq!(scatter.segments().len(), 2);
    /// assert_eq!(scatter.len(), 2 * 4096);
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn read_scatter(&self, range: ByteRange) -> Result<ScatterRead> {
        let op_timer = Timer::start();
        let scatter = self.scatter_inner(range)?;
        self.engine.metrics.read_scatter_ops.increment();
        op_timer.stop(&self.engine.metrics.read_scatter_latency);
        Ok(scatter)
    }

    /// Shared body of [`Snapshot::read`] and [`Snapshot::read_scatter`]
    /// — factored out so each public entry point records its *own*
    /// counter and latency histogram exactly once.
    fn scatter_inner(&self, range: ByteRange) -> Result<ScatterRead> {
        self.check(range)?;
        if range.is_empty() {
            return Ok(ScatterRead { range, segments: Vec::new() });
        }
        read::plan_slices(&self.engine, &self.lineage, self.root()?, range)
            .and_then(|slices| Self::fetch_segments(&self.engine, range, slices))
            .map(|segments| ScatterRead { range, segments })
            .map_err(|e| self.refine_error(e))
    }

    /// Vectored read: fetch every range of `requests`, planning them
    /// all in **one** segment-tree pass (shared upper tree levels are
    /// fetched once, not once per range) and fetching each distinct
    /// page window **once** — overlapping requests that hit the same
    /// window of the same page share a single provider fetch, every
    /// request receiving a refcounted clone of the same buffer
    /// (pointer-identical `Bytes`). Returns one [`ScatterRead`] per
    /// request, in request order.
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::ByteRange;
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).pipeline_threads(1).build()?;
    /// let blob = store.create();
    /// let v = blob.append(&vec![1u8; 2 * 4096])?;
    /// blob.sync(v)?;
    /// let snap = blob.snapshot(v)?;
    /// let reads = snap.readv(&[ByteRange::new(0, 4096), ByteRange::new(0, 4096)])?;
    /// // Overlapping requests share one fetch of the common page.
    /// let (a, b) = (&reads[0].segments()[0].data, &reads[1].segments()[0].data);
    /// assert_eq!(a.as_ptr(), b.as_ptr());
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn readv(&self, requests: &[ByteRange]) -> Result<Vec<ScatterRead>> {
        let op_timer = Timer::start();
        for &r in requests {
            self.check(r)?;
        }
        if requests.iter().all(|r| r.is_empty()) {
            return Ok(requests
                .iter()
                .map(|&range| ScatterRead { range, segments: Vec::new() })
                .collect());
        }
        let plans = read::plan_slices_multi(&self.engine, &self.lineage, self.root()?, requests)
            .map_err(|e| self.refine_error(e))?;

        // Dedup identical (page, window) fetches across requests.
        let mut unique: Vec<PageSlice> = Vec::new();
        let mut seen: HashMap<(PageId, u64, u64), usize> = HashMap::new();
        let assignments: Vec<Vec<(u64, usize)>> = plans
            .iter()
            .map(|slices| {
                slices
                    .iter()
                    .map(|s| {
                        let key = (s.descriptor.pid, s.within.offset, s.within.size);
                        let idx = *seen.entry(key).or_insert_with(|| {
                            unique.push(*s);
                            unique.len() - 1
                        });
                        (s.buffer_offset, idx)
                    })
                    .collect()
            })
            .collect();
        let fetched =
            read::fetch_slices_data(&self.engine, unique).map_err(|e| self.refine_error(e))?;
        self.engine.metrics.readv_ops.increment();
        op_timer.stop(&self.engine.metrics.readv_latency);

        Ok(requests
            .iter()
            .zip(assignments)
            .map(|(&range, parts)| {
                let mut segments: Vec<ScatterSegment> = parts
                    .into_iter()
                    .map(|(buffer_offset, idx)| ScatterSegment {
                        offset: range.offset + buffer_offset,
                        data: fetched[idx].clone(),
                    })
                    .collect();
                segments.sort_by_key(|s| s.offset);
                ScatterRead { range, segments }
            })
            .collect())
    }

    fn fetch_segments(
        engine: &Arc<Engine>,
        range: ByteRange,
        slices: Vec<PageSlice>,
    ) -> Result<Vec<ScatterSegment>> {
        let mut parts = read::fetch_slices(engine, slices)?;
        parts.sort_by_key(|&(buffer_offset, _)| buffer_offset);
        Ok(parts
            .into_iter()
            .map(|(buffer_offset, data)| ScatterSegment {
                offset: range.offset + buffer_offset,
                data,
            })
            .collect())
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("blob", &self.blob)
            .field("version", &self.version)
            .field("size", &self.size)
            .finish()
    }
}

/// One contiguous piece of a [`ScatterRead`]: a refcounted window of a
/// stored page.
#[derive(Clone, Debug)]
pub struct ScatterSegment {
    /// Absolute byte offset of this segment within the blob snapshot.
    pub offset: u64,
    /// The bytes, aliasing provider storage (no copy was made).
    pub data: Bytes,
}

/// The result of a zero-copy read: the requested range as a sequence of
/// page-backed segments, in offset order, tiling the range exactly.
///
/// Iterate the segments to stream them out (e.g. vectored socket
/// writes), or call [`ScatterRead::into_bytes`] to gather into one
/// contiguous buffer when an API demands it.
#[derive(Clone, Debug)]
pub struct ScatterRead {
    range: ByteRange,
    segments: Vec<ScatterSegment>,
}

impl ScatterRead {
    /// The byte range this read covers.
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::ByteRange;
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).pipeline_threads(1).build()?;
    /// # let blob = store.create();
    /// # let v = blob.append(b"scatter")?;
    /// # blob.sync(v)?;
    /// # let snap = blob.snapshot(v)?;
    /// let scatter = snap.read_scatter(ByteRange::new(2, 5))?;
    /// assert_eq!(scatter.range(), ByteRange::new(2, 5));
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn range(&self) -> ByteRange {
        self.range
    }

    /// Total bytes covered (the sum of all segment lengths).
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::ByteRange;
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).pipeline_threads(1).build()?;
    /// # let blob = store.create();
    /// # let v = blob.append(b"scatter")?;
    /// # blob.sync(v)?;
    /// # let snap = blob.snapshot(v)?;
    /// let scatter = snap.read_scatter(ByteRange::new(0, 7))?;
    /// assert_eq!(scatter.len(), 7);
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn len(&self) -> u64 {
        self.range.size
    }

    /// `true` when the read covered no bytes.
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::ByteRange;
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).pipeline_threads(1).build()?;
    /// # let blob = store.create();
    /// # let v = blob.append(b"scatter")?;
    /// # blob.sync(v)?;
    /// # let snap = blob.snapshot(v)?;
    /// assert!(snap.read_scatter(ByteRange::new(3, 0))?.is_empty());
    /// assert!(!snap.read_scatter(ByteRange::new(0, 1))?.is_empty());
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// The segments, ordered by offset.
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::ByteRange;
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).pipeline_threads(1).build()?;
    /// # let blob = store.create();
    /// # let v = blob.append(b"scatter")?;
    /// # blob.sync(v)?;
    /// # let snap = blob.snapshot(v)?;
    /// let scatter = snap.read_scatter(ByteRange::new(0, 7))?;
    /// for seg in scatter.segments() {
    ///     assert!(seg.offset + seg.data.len() as u64 <= 7);
    /// }
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn segments(&self) -> &[ScatterSegment] {
        &self.segments
    }

    /// Iterate the segment payloads in offset order.
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::ByteRange;
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).pipeline_threads(1).build()?;
    /// # let blob = store.create();
    /// # let v = blob.append(b"scatter")?;
    /// # blob.sync(v)?;
    /// # let snap = blob.snapshot(v)?;
    /// let scatter = snap.read_scatter(ByteRange::new(0, 7))?;
    /// // e.g. feed the windows to a vectored socket write.
    /// let total: usize = scatter.iter().map(|b| b.len()).sum();
    /// assert_eq!(total, 7);
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn iter(&self) -> impl Iterator<Item = &Bytes> {
        self.segments.iter().map(|s| &s.data)
    }

    /// Gather into one contiguous buffer. Borrows the single-segment
    /// fast path: a read within one page returns the page window itself
    /// (still zero-copy).
    ///
    /// # Examples
    ///
    /// ```
    /// # use blobseer::ByteRange;
    /// # let store = blobseer::BlobSeer::builder().page_size(4096).data_providers(2)
    /// #     .metadata_providers(2).io_threads(1).pipeline_threads(1).build()?;
    /// # let blob = store.create();
    /// # let v = blob.append(b"scatter")?;
    /// # blob.sync(v)?;
    /// # let snap = blob.snapshot(v)?;
    /// let scatter = snap.read_scatter(ByteRange::new(0, 7))?;
    /// assert_eq!(&scatter.into_bytes()[..], b"scatter");
    /// # Ok::<(), blobseer::BlobError>(())
    /// ```
    pub fn into_bytes(self) -> Bytes {
        match self.segments.len() {
            0 => Bytes::new(),
            1 => self.segments.into_iter().next().expect("one segment").data,
            _ => {
                let mut out = Vec::with_capacity(self.range.size as usize);
                for s in &self.segments {
                    out.extend_from_slice(&s.data);
                }
                Bytes::from(out)
            }
        }
    }
}

impl IntoIterator for ScatterRead {
    type Item = ScatterSegment;
    type IntoIter = std::vec::IntoIter<ScatterSegment>;

    fn into_iter(self) -> Self::IntoIter {
        self.segments.into_iter()
    }
}
